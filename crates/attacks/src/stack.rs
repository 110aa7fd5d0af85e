//! The composable **oracle stack**: noise × rotation as layers over one
//! bit-parallel evaluation engine.
//!
//! The paper's two defenses — stochastic switching (Sec. V-B) and
//! polymorphic key rotation (Sec. V-C) — are knobs on one device
//! substrate, not separate chips: a GSHE fabric can rotate its key *and*
//! clock its switches into the stochastic regime at the same time
//! (dynamic camouflaging à la Rangarajan et al., arXiv:1811.06012; the
//! deterministic-to-probabilistic continuum of arXiv:1904.00421). This
//! module models that composability directly:
//!
//! * [`EvalLayer`] — the base: a bit-parallel pass over a netlist, either
//!   exact ([`gshe_logic::Simulator`] semantics) or fault-injecting
//!   ([`FaultSimulator`] with an [`ErrorProfile`]);
//! * an optional **rotation layer** — epoch-segmented key resolution: the
//!   chip answers `period` queries per key, then draws a fresh random key
//!   and installs the re-resolved netlist into the base;
//! * an optional **caching layer** — lives in `gshe-campaign` (the cache
//!   is campaign-wide infrastructure) and composes over the bare exact
//!   stack only, the one configuration whose answers are memoizable.
//!
//! Every layer is `query_block`-first, so any composition answers 64
//! patterns per pass end to end. [`OracleStack`] is the only model of the
//! working chip: attacks, campaigns and benchmarks all build one of its
//! four compositions ([`OracleStack::exact`], [`OracleStack::noisy`],
//! [`OracleStack::rotating`], [`OracleStack::rotating_noisy`]).
//!
//! ## Seed-salt composition
//!
//! A stack consumes up to two independent RNG streams, each derived from
//! the *same* caller seed with a layer-specific salt, so the layers
//! compose without stealing each other's draws:
//!
//! * noise stream: `seed ^` [`NOISE_SEED_SALT`];
//! * rotation key stream: `seed ^` [`ROTATION_SEED_SALT`].
//!
//! Stacking or removing one layer therefore never perturbs the other
//! layer's stream.
//!
//! ## One noise stream
//!
//! The chip's reference semantics are *per query* (`OracleStack`'s
//! [`Oracle::query`]): rotation counts queries, and the noise stream draws
//! one `gen_bool` per noisy node per query. `query_block` splits the block
//! at epoch boundaries (a static stack is one segment) and answers each
//! segment with one engine pass ([`FaultSimulator::run_scalar_stream`] on
//! the noisy base): gate evaluation stays 64-wide, but noise is drawn
//! pattern-major, so `query_block` is bit-for-bit the scalar loop —
//! epochs, key draws, flips, and post-call RNG state all included.
//! Batching never changes what the chip says.

use crate::oracle::Oracle;
use gshe_camo::KeyedNetlist;
use gshe_logic::{sim, ErrorProfile, FaultSimulator, Netlist, PatternBlock};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::borrow::Cow;

/// Salt folded into the caller seed for the noise stream.
pub const NOISE_SEED_SALT: u64 = 0x570C_4A57;

/// Salt folded into the caller seed for the rotation key stream.
pub const ROTATION_SEED_SALT: u64 = 0xD0_7A7E;

/// The stack's base layer: one bit-parallel evaluation pass over a
/// netlist, exact or fault-injecting. The netlist is swappable in place
/// (`EvalLayer::install`) so a rotation layer can re-resolve per epoch
/// while scratch buffers — and, for the noisy base, the noise RNG stream —
/// survive.
#[derive(Debug, Clone)]
pub enum EvalLayer<'a> {
    /// Deterministic evaluation ([`gshe_logic::Simulator`] semantics).
    Exact {
        /// The evaluated netlist (borrowed for static chips, owned once a
        /// rotation layer has installed a resolved epoch netlist).
        netlist: Cow<'a, Netlist>,
        /// Bit-parallel scratch reused across calls.
        scratch: Vec<u64>,
    },
    /// Fault-injecting evaluation: the noise layer fused onto the base
    /// engine (dense per-node rates, one RNG stream).
    Noisy(FaultSimulator<'a>),
}

impl<'a> EvalLayer<'a> {
    /// An exact base over a borrowed netlist.
    pub fn exact(netlist: &'a Netlist) -> Self {
        EvalLayer::Exact {
            netlist: Cow::Borrowed(netlist),
            scratch: Vec::new(),
        }
    }

    /// An exact base over an owned netlist (the rotating case).
    pub fn exact_owned(netlist: Netlist) -> Self {
        EvalLayer::Exact {
            netlist: Cow::Owned(netlist),
            scratch: Vec::new(),
        }
    }

    /// A noisy base over a borrowed netlist. `seed` is consumed verbatim —
    /// stack constructors apply [`NOISE_SEED_SALT`].
    pub fn noisy(netlist: &'a Netlist, profile: ErrorProfile, seed: u64) -> Self {
        EvalLayer::Noisy(FaultSimulator::new(netlist, profile, seed))
    }

    /// A noisy base over an owned netlist (the rotating case).
    pub fn noisy_owned(netlist: Netlist, profile: ErrorProfile, seed: u64) -> Self {
        EvalLayer::Noisy(FaultSimulator::owned(netlist, profile, seed))
    }

    /// Swaps the evaluated netlist (same node count), keeping scratch and
    /// any noise state.
    fn install(&mut self, netlist: Netlist) {
        match self {
            EvalLayer::Exact { netlist: slot, .. } => *slot = Cow::Owned(netlist),
            EvalLayer::Noisy(engine) => engine.install(netlist),
        }
    }

    fn netlist(&self) -> &Netlist {
        match self {
            EvalLayer::Exact { netlist, .. } => netlist,
            EvalLayer::Noisy(engine) => engine.netlist(),
        }
    }

    /// The installed error profile (`None` for the exact base).
    pub fn profile(&self) -> Option<&ErrorProfile> {
        match self {
            EvalLayer::Exact { .. } => None,
            EvalLayer::Noisy(engine) => Some(engine.profile()),
        }
    }

    /// One pattern through lane 0 — the scalar noise stream for the noisy
    /// base (one `gen_bool` per noisy node).
    fn scalar(&mut self, inputs: &[bool]) -> Vec<bool> {
        match self {
            EvalLayer::Exact { netlist, scratch } => {
                sim::run_scalar_with_scratch(netlist, scratch, inputs)
            }
            EvalLayer::Noisy(engine) => engine.run_scalar(inputs),
        }
        .expect("oracle input arity mismatch")
    }

    /// An epoch segment (`start..start + len`) of `block`, unmasked, into
    /// a caller-owned buffer — one pass per epoch (a static stack's block
    /// is one segment). The noisy base draws the scalar noise stream for
    /// exactly the segment's patterns, so block queries stay bit-for-bit
    /// the scalar loop. Writing into the hoisted buffer keeps the
    /// steady-state block path at one allocation per call (the returned
    /// lane vector), however many epoch segments the block spans.
    fn segment_into(&mut self, block: &PatternBlock, start: usize, len: usize, out: &mut Vec<u64>) {
        match self {
            EvalLayer::Exact { netlist, scratch } => {
                sim::run_with_scratch_into(netlist, scratch, block, out)
            }
            EvalLayer::Noisy(engine) => engine.run_scalar_stream_into(block, start, len, out),
        }
        .expect("oracle input arity mismatch")
    }
}

/// The rotation layer's state: which keyed netlist to re-resolve, how
/// often, and the key stream.
#[derive(Debug, Clone)]
struct Rotation<'a> {
    keyed: &'a KeyedNetlist,
    period: u64,
    rng: StdRng,
}

impl Rotation<'_> {
    fn fresh_resolution(&mut self) -> Netlist {
        let key: Vec<bool> = (0..self.keyed.key_len())
            .map(|_| self.rng.gen_bool(0.5))
            .collect();
        self.keyed.resolve(&key).expect("key width is correct")
    }
}

/// A layered oracle: base evaluation (exact or noisy), with an optional
/// key-rotation layer on top. See the [module docs](self) for the layer
/// table, composition rules, and seed-salt derivation.
#[derive(Debug, Clone)]
pub struct OracleStack<'a> {
    base: EvalLayer<'a>,
    rotation: Option<Rotation<'a>>,
    count: u64,
    /// Per-epoch segment lanes, hoisted so a block query reuses one
    /// buffer across all its segments (and across calls).
    seg_buf: Vec<u64>,
}

impl<'a> OracleStack<'a> {
    /// The bare deterministic chip over the original netlist.
    pub fn exact(netlist: &'a Netlist) -> Self {
        OracleStack {
            base: EvalLayer::exact(netlist),
            rotation: None,
            count: 0,
            seg_buf: Vec::new(),
        }
    }

    /// The stochastic chip of Sec. V-B: the defender's keyed netlist with
    /// correct functions installed, flipping per `profile` (noise stream
    /// `seed ^` [`NOISE_SEED_SALT`]). Uniform noise over the cloaked cells
    /// is [`ErrorProfile::uniform_at`] over their nodes.
    ///
    /// # Panics
    ///
    /// Panics if the profile does not cover the keyed netlist's nodes.
    pub fn noisy(keyed: &'a KeyedNetlist, profile: ErrorProfile, seed: u64) -> Self {
        OracleStack {
            base: EvalLayer::noisy(keyed.netlist(), profile, seed ^ NOISE_SEED_SALT),
            rotation: None,
            count: 0,
            seg_buf: Vec::new(),
        }
    }

    /// The key-rotating chip of Sec. V-C: correct key for the first epoch,
    /// a fresh random key every `period` queries after that (key stream
    /// `seed ^` [`ROTATION_SEED_SALT`]).
    ///
    /// # Panics
    ///
    /// Panics if `period == 0`.
    pub fn rotating(keyed: &'a KeyedNetlist, period: u64, seed: u64) -> Self {
        let (rotation, resolved) = Self::rotation_over(keyed, period, seed);
        OracleStack {
            base: EvalLayer::exact_owned(resolved),
            rotation: Some(rotation),
            count: 0,
            seg_buf: Vec::new(),
        }
    }

    /// The **combined defense**: a rotating chip whose switches also run
    /// in the stochastic regime — rotation layered over the noisy base.
    /// Key stream and noise stream derive from the same `seed` with their
    /// respective salts, so either dimension alone draws the stream of
    /// the single-layer stack.
    ///
    /// # Panics
    ///
    /// Panics if `period == 0` or the profile does not cover the keyed
    /// netlist's nodes.
    pub fn rotating_noisy(
        keyed: &'a KeyedNetlist,
        profile: ErrorProfile,
        period: u64,
        seed: u64,
    ) -> Self {
        let (rotation, resolved) = Self::rotation_over(keyed, period, seed);
        OracleStack {
            base: EvalLayer::noisy_owned(resolved, profile, seed ^ NOISE_SEED_SALT),
            rotation: Some(rotation),
            count: 0,
            seg_buf: Vec::new(),
        }
    }

    fn rotation_over(keyed: &'a KeyedNetlist, period: u64, seed: u64) -> (Rotation<'a>, Netlist) {
        assert!(period > 0, "rotation period must be positive");
        let resolved = keyed
            .resolve(&keyed.correct_key())
            .expect("correct key resolves");
        (
            Rotation {
                keyed,
                period,
                rng: StdRng::seed_from_u64(seed ^ ROTATION_SEED_SALT),
            },
            resolved,
        )
    }

    /// The rotation layer's period, if one is stacked.
    pub fn rotation_period(&self) -> Option<u64> {
        self.rotation.as_ref().map(|r| r.period)
    }

    /// The noise layer's error profile, if the base is noisy.
    pub fn profile(&self) -> Option<&ErrorProfile> {
        self.base.profile()
    }

    /// Rotates if the query counter sits on an epoch boundary (the
    /// first epoch uses the correct key, so count 0 never rotates).
    fn maybe_rotate(&mut self) {
        if let Some(rot) = &mut self.rotation {
            if self.count > 0 && self.count.is_multiple_of(rot.period) {
                let resolved = rot.fresh_resolution();
                self.base.install(resolved);
            }
        }
    }
}

impl OracleStack<'_> {
    /// Latency-histogram name for this stack's layer composition, so the
    /// metrics snapshot separates rotating from static query costs.
    fn latency_histogram(&self, block: bool) -> &'static str {
        match (self.rotation.is_some(), block) {
            (false, false) => "oracle.eval.query_ns",
            (false, true) => "oracle.eval.query_block_ns",
            (true, false) => "oracle.rotating.query_ns",
            (true, true) => "oracle.rotating.query_block_ns",
        }
    }
}

impl Oracle for OracleStack<'_> {
    /// The per-query reference semantics `query_block` reproduces: rotate
    /// on an epoch boundary, count the query, evaluate one pattern (one
    /// `gen_bool` per noisy node on the noisy base).
    fn query(&mut self, inputs: &[bool]) -> Vec<bool> {
        let timed = gshe_obs::enabled().then(std::time::Instant::now);
        self.maybe_rotate();
        self.count += 1;
        let out = self.base.scalar(inputs);
        if let Some(t0) = timed {
            gshe_obs::record(
                self.latency_histogram(false),
                t0.elapsed().as_nanos() as u64,
            );
        }
        out
    }

    /// Bit-parallel block path: the block is split at epoch boundaries (a
    /// static stack is one segment) and each segment answered by one pass
    /// over the epoch's netlist, drawing the per-query noise stream — key
    /// draws, flips, query accounting, and answers match the scalar loop
    /// exactly; only the gate evaluation is batched.
    fn query_block(&mut self, block: &PatternBlock) -> Vec<u64> {
        let timed = gshe_obs::enabled().then(std::time::Instant::now);
        let mut lanes = vec![0u64; self.num_outputs()];
        let mut k = 0usize;
        while k < block.count {
            self.maybe_rotate();
            let until_rotation = self
                .rotation
                .as_ref()
                .map_or(64, |rot| (rot.period - self.count % rot.period).min(64));
            let take = (until_rotation as usize).min(block.count - k);
            let segment = if take == 64 {
                !0u64
            } else {
                ((1u64 << take) - 1) << k
            };
            self.base.segment_into(block, k, take, &mut self.seg_buf);
            for (lane, out) in lanes.iter_mut().zip(&self.seg_buf) {
                *lane |= out & segment;
            }
            self.count += take as u64;
            k += take;
        }
        if let Some(t0) = timed {
            gshe_obs::record(self.latency_histogram(true), t0.elapsed().as_nanos() as u64);
        }
        lanes
    }

    fn num_inputs(&self) -> usize {
        self.base.netlist().inputs().len()
    }

    fn num_outputs(&self) -> usize {
        self.base.netlist().outputs().len()
    }

    fn queries(&self) -> u64 {
        self.count
    }
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;
    use gshe_camo::{camouflage, select_gates, CamoScheme};
    use gshe_logic::bench_format::{parse_bench, C17_BENCH};
    use gshe_logic::NodeId;

    /// c17 with its gates cloaked as GSHE-16 cells (test fixture).
    pub(crate) fn c17_keyed() -> (Netlist, KeyedNetlist) {
        let nl = parse_bench(C17_BENCH).unwrap();
        let picks = select_gates(&nl, 1.0, 3);
        let mut rng = StdRng::seed_from_u64(0);
        let keyed = camouflage(&nl, &picks, CamoScheme::GsheAll16, &mut rng).unwrap();
        (nl, keyed)
    }

    /// Uniform noise at `rate` over `keyed`'s cloaked cells (test
    /// fixture).
    pub(crate) fn cloaked_noise(keyed: &KeyedNetlist, rate: f64) -> ErrorProfile {
        let nodes: Vec<NodeId> = keyed.camo_gates().iter().map(|g| g.node).collect();
        ErrorProfile::uniform_at(keyed.netlist().len(), &nodes, rate)
    }

    /// Answers full and partial blocks through a clone of `stack` and the
    /// scalar `query` loop through `stack` itself, then checks answers,
    /// query counts, and the post-call state of both RNG streams (the
    /// follow-up scalar queries span several more rotations).
    fn assert_blocks_match_scalar(stack: OracleStack<'_>, label: &str) {
        let mut fast = stack.clone();
        let mut slow = stack;
        let mut rng = StdRng::seed_from_u64(4);
        for (round, count) in [64usize, 50, 64, 17].into_iter().enumerate() {
            let block = PatternBlock::random_n(5, count, &mut rng);
            let lanes = fast.query_block(&block);
            for k in 0..count {
                let y = slow.query(&block.pattern(k));
                for (o, &bit) in y.iter().enumerate() {
                    assert_eq!(
                        bit,
                        (lanes[o] >> k) & 1 == 1,
                        "{label} round {round} pattern {k} output {o}"
                    );
                }
            }
            for lane in &lanes {
                assert_eq!(lane & !block.valid_mask(), 0, "{label}: stray lane bits");
            }
            assert_eq!(fast.queries(), slow.queries(), "{label} round {round}");
        }
        for q in 0..64u32 {
            let p: Vec<bool> = (0..5).map(|k| (q >> k) & 1 == 1).collect();
            assert_eq!(
                fast.query(&p),
                slow.query(&p),
                "{label}: post-block query {q} diverged"
            );
        }
    }

    #[test]
    fn combined_stack_blocks_match_scalar_queries_bit_for_bit() {
        // The headline contract, for every layer composition: exact,
        // noise-only, rotating, and rotating + noisy. Period 1 rotates
        // before every query after the first; 5 and 7 do not divide 64,
        // so the boundary drifts through consecutive blocks; 20 puts
        // three boundaries inside one block; 64 and 1000 align with or
        // outlast the blocks.
        let (_, keyed) = c17_keyed();
        let noise = cloaked_noise(&keyed, 0.3);
        assert_blocks_match_scalar(OracleStack::exact(keyed.netlist()), "exact");
        assert_blocks_match_scalar(OracleStack::noisy(&keyed, noise.clone(), 5), "noisy");
        for period in [1u64, 5, 7, 20, 64, 1000] {
            assert_blocks_match_scalar(
                OracleStack::rotating(&keyed, period, 5),
                &format!("rotating period {period}"),
            );
            assert_blocks_match_scalar(
                OracleStack::rotating_noisy(&keyed, noise.clone(), period, 5),
                &format!("rotating+noisy period {period}"),
            );
        }
    }

    #[test]
    fn combined_stack_leaves_count_and_both_rng_streams_in_sync() {
        // After a (partial) block, the stack must sit in exactly the state
        // the scalar loop leaves: query count, rotation key stream, AND
        // noise RNG position. Follow-up scalar queries spanning several
        // further rotations must therefore agree between the twins.
        let (_, keyed) = c17_keyed();
        for period in [1u64, 7, 20] {
            let noise = cloaked_noise(&keyed, 0.25);
            let mut fast = OracleStack::rotating_noisy(&keyed, noise.clone(), period, 9);
            let mut slow = OracleStack::rotating_noisy(&keyed, noise, period, 9);
            let mut rng = StdRng::seed_from_u64(6);
            let block = PatternBlock::random_n(5, 50, &mut rng);
            let _ = fast.query_block(&block);
            for k in 0..block.count {
                let _ = slow.query(&block.pattern(k));
            }
            assert_eq!(fast.queries(), slow.queries(), "period {period}");
            for q in 0..(3 * period + 2) {
                let p = block.pattern(q as usize % block.count);
                assert_eq!(
                    fast.query(&p),
                    slow.query(&p),
                    "period {period} post-block query {q} diverged"
                );
            }
        }
    }

    #[test]
    fn combined_stack_actually_rotates_and_flips() {
        // Sanity that both layers are live: at a 50% rate over six cloaked
        // cells plus period-4 rotation, blocks must disagree with the
        // clean chip on many lanes.
        let (nl, keyed) = c17_keyed();
        let mut combined = OracleStack::rotating_noisy(&keyed, cloaked_noise(&keyed, 0.5), 4, 11);
        assert_eq!(combined.rotation_period(), Some(4));
        assert!(combined.profile().is_some());
        let mut clean = OracleStack::exact(&nl);
        let mut rng = StdRng::seed_from_u64(2);
        let mut flipped = 0u32;
        for _ in 0..8 {
            let block = PatternBlock::random(5, &mut rng);
            let a = combined.query_block(&block);
            let b = clean.query_block(&block);
            flipped += a
                .iter()
                .zip(&b)
                .map(|(x, y)| (x ^ y).count_ones())
                .sum::<u32>();
        }
        assert!(flipped > 100, "only {flipped} lane flips");
    }

    #[test]
    fn rotation_key_stream_is_independent_of_the_noise_layer() {
        // Stacking noise must not steal rotation key draws: an exact
        // rotating stack and a rate-0 noisy rotating stack resolve the
        // same key sequence, hence answer identically.
        let (_, keyed) = c17_keyed();
        let quiet = ErrorProfile::zero(keyed.netlist().len());
        let mut exact = OracleStack::rotating(&keyed, 3, 17);
        let mut noisy = OracleStack::rotating_noisy(&keyed, quiet, 3, 17);
        let mut rng = StdRng::seed_from_u64(1);
        for _ in 0..2 {
            let block = PatternBlock::random(5, &mut rng);
            assert_eq!(exact.query_block(&block), noisy.query_block(&block));
        }
        for p in 0..10u32 {
            let v: Vec<bool> = (0..5).map(|k| (p >> k) & 1 == 1).collect();
            assert_eq!(exact.query(&v), noisy.query(&v));
        }
    }

    #[test]
    #[should_panic(expected = "rotation period")]
    fn zero_period_is_rejected() {
        let (_, keyed) = c17_keyed();
        let profile = ErrorProfile::zero(keyed.netlist().len());
        let _ = OracleStack::rotating_noisy(&keyed, profile, 0, 1);
    }
}
