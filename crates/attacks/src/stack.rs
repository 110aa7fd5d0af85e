//! The composable **oracle stack**: noise × rotation over one
//! bit-parallel [`Simulator`].
//!
//! The paper's two defenses — stochastic switching (Sec. V-B) and
//! polymorphic key rotation (Sec. V-C) — are knobs on one device
//! substrate, not separate chips: a GSHE fabric can rotate its key *and*
//! clock its switches into the stochastic regime at the same time
//! (dynamic camouflaging à la Rangarajan et al., arXiv:1811.06012; the
//! deterministic-to-probabilistic continuum of arXiv:1904.00421). This
//! module models that composability directly:
//!
//! * the base — one [`Simulator`] over the chip's netlist, exact or
//!   noisy (an [`ErrorProfile`] and a noise seed);
//! * an optional **rotation layer** — epoch-segmented key resolution: the
//!   chip answers `period` queries per key, then draws a fresh random key
//!   and installs the re-resolved netlist into the simulator;
//! * an optional **cache** — `gshe-campaign`'s `CachedOracle` (the cache
//!   is session-wide infrastructure) wraps the bare exact stack only, the
//!   one configuration whose answers are memoizable.
//!
//! Every layer is `query_block`-first, so any composition answers 64
//! patterns per pass end to end. [`OracleStack`] is the only model of the
//! working chip: attacks, campaigns and benchmarks all build one of its
//! four compositions ([`OracleStack::exact`], [`OracleStack::noisy`],
//! [`OracleStack::rotating`], [`OracleStack::rotating_noisy`]).
//!
//! ## The exact chip's cone answer
//!
//! An attack projected onto a cone of influence asks only for the
//! outputs the cloaked cells reach ([`Oracle::query_outputs`]). The
//! exact static stack answers those from their fanin cone of the
//! original netlist: extracted with [`Netlist::cone_of`] on the first
//! call for an output set (and again when the set changes), with its
//! inputs mapped to the chip's input ordinals, then simulated one pass
//! per block — a few hundred nodes instead of the whole design on a
//! superblue-scale cell. Noisy and rotating stacks keep the default (a
//! full `query_block`, then a gather), so their epochs, RNG streams and
//! answers are those of `query_block`.
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
//! segment with one [`Simulator::run_segment_into`] pass: gate evaluation
//! stays 64-wide, but noise is drawn pattern-major, so `query_block` is
//! bit-for-bit the scalar loop — epochs, key draws, flips, and post-call
//! RNG state all included. Batching never changes what the chip says.

use crate::coi::input_ordinal;
use crate::oracle::{gather, Oracle};
use gshe_camo::KeyedNetlist;
use gshe_logic::{ErrorProfile, Netlist, NodeId, PatternBlock, Simulator};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Salt folded into the caller seed for the noise stream.
pub const NOISE_SEED_SALT: u64 = 0x570C_4A57;

/// Salt folded into the caller seed for the rotation key stream.
pub const ROTATION_SEED_SALT: u64 = 0xD0_7A7E;

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

/// The exact chip restricted to one output set: those outputs' fanin
/// cone, simulated on its own.
#[derive(Debug, Clone)]
struct OutputCone {
    /// The output ordinals answered, in the caller's order.
    outputs: Vec<usize>,
    /// Cone input `k` → the chip's input ordinal.
    inputs: Vec<usize>,
    sim: Simulator<'static>,
    /// The cone's input lanes of the current block, reused across calls.
    block: PatternBlock,
}

impl OutputCone {
    fn build(nl: &Netlist, outputs: &[usize]) -> Self {
        let roots: Vec<NodeId> = outputs.iter().map(|&o| nl.outputs()[o]).collect();
        let (cone, map) = nl.cone_of(&roots);
        let inputs: Vec<usize> = cone
            .inputs()
            .iter()
            .map(|&ci| input_ordinal(nl, map.to_full(ci)))
            .collect();
        OutputCone {
            outputs: outputs.to_vec(),
            block: PatternBlock {
                lanes: vec![0; inputs.len()],
                count: 0,
            },
            inputs,
            sim: Simulator::owned(cone),
        }
    }

    /// One pass over the cone on `block`'s lanes of the cone inputs,
    /// with lanes past `block.count` cleared.
    fn answer(&mut self, block: &PatternBlock) -> Vec<u64> {
        for (lane, &full) in self.block.lanes.iter_mut().zip(&self.inputs) {
            *lane = block.lanes[full];
        }
        self.block.count = block.count;
        let mut lanes = Vec::with_capacity(self.outputs.len());
        self.sim
            .run_segment_into(&self.block, 0, block.count, &mut lanes)
            .expect("the cone block has one lane per cone input");
        let mask = block.valid_mask();
        for lane in &mut lanes {
            *lane &= mask;
        }
        lanes
    }
}

/// A layered oracle: one simulator (exact or noisy), with an optional
/// key-rotation layer on top. See the [module docs](self) for the layer
/// table, composition rules, and seed-salt derivation.
#[derive(Debug, Clone)]
pub struct OracleStack<'a> {
    sim: Simulator<'a>,
    rotation: Option<Rotation<'a>>,
    count: u64,
    /// Per-epoch segment lanes, hoisted so a block query reuses one
    /// buffer across all its segments (and across calls).
    seg_buf: Vec<u64>,
    /// The exact chip's cone for the latest `query_outputs` output set.
    cone: Option<OutputCone>,
}

impl<'a> OracleStack<'a> {
    /// The bare deterministic chip over the original netlist.
    pub fn exact(netlist: &'a Netlist) -> Self {
        Self::over(Simulator::new(netlist), None)
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
        let sim = Simulator::new(keyed.netlist()).with_noise(profile, seed ^ NOISE_SEED_SALT);
        Self::over(sim, None)
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
        Self::over(Simulator::owned(resolved), Some(rotation))
    }

    /// The **combined defense**: a rotating chip whose switches also run
    /// in the stochastic regime — rotation layered over a noisy simulator.
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
        let sim = Simulator::owned(resolved).with_noise(profile, seed ^ NOISE_SEED_SALT);
        Self::over(sim, Some(rotation))
    }

    fn over(sim: Simulator<'a>, rotation: Option<Rotation<'a>>) -> Self {
        OracleStack {
            sim,
            rotation,
            count: 0,
            seg_buf: Vec::new(),
            cone: None,
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

    /// The noise layer's error profile, if the chip is noisy.
    pub fn profile(&self) -> Option<&ErrorProfile> {
        self.sim.profile()
    }

    /// Rotates if the query counter sits on an epoch boundary (the
    /// first epoch uses the correct key, so count 0 never rotates).
    fn maybe_rotate(&mut self) {
        if let Some(rot) = &mut self.rotation {
            if self.count > 0 && self.count.is_multiple_of(rot.period) {
                let resolved = rot.fresh_resolution();
                self.sim.install(resolved);
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
    /// `gen_bool` per noisy node on a noisy chip).
    fn query(&mut self, inputs: &[bool]) -> Vec<bool> {
        let timed = gshe_obs::enabled().then(std::time::Instant::now);
        self.maybe_rotate();
        self.count += 1;
        let out = self
            .sim
            .run_scalar(inputs)
            .expect("oracle input arity mismatch");
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
            self.sim
                .run_segment_into(block, k, take, &mut self.seg_buf)
                .expect("oracle input arity mismatch");
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

    /// The exact static chip answers from the listed outputs' fanin cone,
    /// extracted on the first call for an output set and again when the
    /// set changes; a noisy or rotating chip answers the whole block and
    /// gathers.
    fn query_outputs(&mut self, block: &PatternBlock, outputs: &[usize]) -> Vec<u64> {
        if self.rotation.is_some() || self.sim.profile().is_some() {
            return gather(&self.query_block(block), outputs);
        }
        let timed = gshe_obs::enabled().then(std::time::Instant::now);
        assert_eq!(
            block.lanes.len(),
            self.num_inputs(),
            "oracle input arity mismatch"
        );
        if self.cone.as_ref().is_none_or(|c| c.outputs != outputs) {
            self.cone = Some(OutputCone::build(self.sim.netlist(), outputs));
        }
        let lanes = self.cone.as_mut().expect("built above").answer(block);
        self.count += block.count as u64;
        if let Some(t0) = timed {
            gshe_obs::record(
                "oracle.eval.query_outputs_ns",
                t0.elapsed().as_nanos() as u64,
            );
        }
        lanes
    }

    fn num_inputs(&self) -> usize {
        self.sim.netlist().inputs().len()
    }

    fn num_outputs(&self) -> usize {
        self.sim.netlist().outputs().len()
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
    use gshe_logic::{Bf1, Bf2, GeneratorConfig, NetlistBuilder, NetlistGenerator};

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

    /// A seeded random design: 1–8 inputs, both constants, up to 40 gates
    /// over earlier nodes, and outputs on any node, among them an input
    /// and a constant.
    fn random_design(rng: &mut StdRng) -> Netlist {
        let mut b = NetlistBuilder::new("random");
        let n_inputs: usize = rng.gen_range(1..=8);
        let mut nodes: Vec<NodeId> = (0..n_inputs).map(|i| b.input(format!("i{i}"))).collect();
        nodes.push(b.constant(false));
        nodes.push(b.constant(true));
        for _ in 0..rng.gen_range(0..=40) {
            let a = nodes[rng.gen_range(0..nodes.len())];
            let gate = if rng.gen_bool(0.2) {
                b.gate1_auto(Bf1::ALL[rng.gen_range(0..2usize)], a)
            } else {
                let c = nodes[rng.gen_range(0..nodes.len())];
                b.gate2_auto(Bf2::ALL[rng.gen_range(0..16usize)], a, c)
            };
            nodes.push(gate);
        }
        for _ in 0..rng.gen_range(1..=6) {
            b.output(nodes[rng.gen_range(0..nodes.len())]);
        }
        b.output(nodes[rng.gen_range(0..n_inputs)]);
        b.output(nodes[n_inputs + rng.gen_range(0..2usize)]);
        b.finish().unwrap()
    }

    #[test]
    fn exact_cone_answers_equal_the_gathered_full_answer() {
        // Seeded designs, the random ones with outputs on an input and a
        // constant. Each stack is asked random output lists in a random
        // order (repeats, the empty list and every output included), so
        // its cone is rebuilt on a switch and reused on a repeat. Every
        // answer must be the gather of the full block's, for full and
        // partial blocks, at the same query count.
        let mut rng = StdRng::seed_from_u64(25);
        let mut designs: Vec<Netlist> = (0..32).map(|_| random_design(&mut rng)).collect();
        designs.extend((0..3).map(|seed| {
            NetlistGenerator::new(GeneratorConfig::new("g", 12, 8, 200).with_seed(seed))
                .unwrap()
                .generate()
        }));
        let (mut switches, mut repeats) = (0, 0);
        for (d, nl) in designs.iter().enumerate() {
            let n = nl.outputs().len();
            let mut sets: Vec<Vec<usize>> = vec![Vec::new(), (0..n).collect()];
            for _ in 0..4 {
                let len = rng.gen_range(1..=n + 2);
                sets.push((0..len).map(|_| rng.gen_range(0..n)).collect());
            }
            let mut cone = OracleStack::exact(nl);
            let mut full = OracleStack::exact(nl);
            let mut last: Option<&Vec<usize>> = None;
            for round in 0..16 {
                let outputs = &sets[rng.gen_range(0..sets.len())];
                match last {
                    Some(prev) if prev == outputs => repeats += 1,
                    Some(_) => switches += 1,
                    None => {}
                }
                last = Some(outputs);
                let count = if rng.gen() { 64 } else { rng.gen_range(1..64) };
                let block = PatternBlock::random_n(nl.inputs().len(), count, &mut rng);
                assert_eq!(
                    cone.query_outputs(&block, outputs),
                    gather(&full.query_block(&block), outputs),
                    "design {d} round {round} outputs {outputs:?}"
                );
                assert_eq!(cone.queries(), full.queries(), "design {d} round {round}");
            }
        }
        assert!(
            switches > 100 && repeats > 20,
            "{switches} switches, {repeats} repeats"
        );
    }

    /// Answers full and partial blocks through `query_outputs` on a clone
    /// of `stack` and through `query_block` and a gather on `stack`
    /// itself, switching output lists between rounds, then checks answers,
    /// query counts, and the post-call state of both RNG streams (the
    /// follow-up scalar queries span several more rotations).
    fn assert_outputs_match_gather(stack: OracleStack<'_>, label: &str) {
        let mut fast = stack.clone();
        let mut slow = stack;
        let mut rng = StdRng::seed_from_u64(5);
        let sets: [&[usize]; 5] = [&[1], &[0, 1], &[1, 1, 0], &[], &[0]];
        for (round, count) in [64usize, 50, 64, 17, 1, 64].into_iter().enumerate() {
            let outputs = sets[round % sets.len()];
            let block = PatternBlock::random_n(5, count, &mut rng);
            assert_eq!(
                fast.query_outputs(&block, outputs),
                gather(&slow.query_block(&block), outputs),
                "{label} round {round} outputs {outputs:?}"
            );
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
    fn noisy_and_rotating_output_answers_are_the_gather_bit_for_bit() {
        // The default path for every stack but the exact one: the answer,
        // the query count, the epochs and both RNG streams must be those
        // of `query_block`. The exact stack's cone answer is checked the
        // same way.
        let (_, keyed) = c17_keyed();
        let noise = cloaked_noise(&keyed, 0.3);
        assert_outputs_match_gather(OracleStack::exact(keyed.netlist()), "exact");
        assert_outputs_match_gather(OracleStack::noisy(&keyed, noise.clone(), 5), "noisy");
        for period in [1u64, 7, 20, 1000] {
            assert_outputs_match_gather(
                OracleStack::rotating(&keyed, period, 5),
                &format!("rotating period {period}"),
            );
            assert_outputs_match_gather(
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

    /// Two random 5-input blocks from `StdRng::seed_from_u64(1)`, then
    /// the 8 patterns `0..8` one query at a time: the block answers, then
    /// the scalar answers packed like a block (bit `q` of word `o` is
    /// output `o` of query `q`).
    fn seeded_answers(mut stack: OracleStack<'_>) -> Vec<Vec<u64>> {
        let mut rng = StdRng::seed_from_u64(1);
        let mut answers: Vec<Vec<u64>> = (0..2)
            .map(|_| stack.query_block(&PatternBlock::random(5, &mut rng)))
            .collect();
        let mut scalar = vec![0u64; stack.num_outputs()];
        for q in 0..8u32 {
            let p: Vec<bool> = (0..5).map(|k| (q >> k) & 1 == 1).collect();
            for (lane, bit) in scalar.iter_mut().zip(stack.query(&p)) {
                *lane |= u64::from(bit) << q;
            }
        }
        answers.push(scalar);
        answers
    }

    #[test]
    fn seeded_chips_answer_as_recorded() {
        // Every other noise test compares two runs of the same code; this
        // one pins what a seeded chip actually says, so a change that
        // reorders the noise or key draws in block and scalar paths alike
        // still fails here.
        let (_, keyed) = c17_keyed();
        let noise = cloaked_noise(&keyed, 0.3);
        assert_eq!(
            seeded_answers(OracleStack::noisy(&keyed, noise.clone(), 42)),
            [
                vec![0xa0e9_59ae_56de_7bd5, 0x6f3a_2c7c_967e_7173],
                vec![0x6d5a_c5de_2fe3_742e, 0x8d7d_d53d_3623_b79e],
                vec![0x44, 0x42],
            ],
            "noisy"
        );
        assert_eq!(
            seeded_answers(OracleStack::rotating(&keyed, 7, 42)),
            [
                vec![0x8003_5486_f73d_c86e, 0xb27d_57f8_0f74_f37b],
                vec![0x3ef9_008b_f80f_a03f, 0xbf83_00b8_000f_e027],
                vec![0xfa, 0x1f],
            ],
            "rotating"
        );
        assert_eq!(
            seeded_answers(OracleStack::rotating_noisy(&keyed, noise, 7, 42)),
            [
                vec![0xbb29_5e34_e7e5_c9d5, 0xee74_56a8_4366_b9f3],
                vec![0x3b48_8030_aa01_60f7, 0xe4c0_04c4_6a52_b6ed],
                vec![0xf2, 0x51],
            ],
            "rotating+noisy"
        );
    }

    #[test]
    #[should_panic(expected = "rotation period")]
    fn zero_period_is_rejected() {
        let (_, keyed) = c17_keyed();
        let profile = ErrorProfile::zero(keyed.netlist().len());
        let _ = OracleStack::rotating_noisy(&keyed, profile, 0, 1);
    }
}
