//! Bit-parallel netlist simulation: the one netlist evaluator.
//!
//! [`Simulator`] evaluates 64 input patterns per pass by packing one pattern
//! per bit of a `u64`. It is exact, or noisy with per-node flip rates from
//! an [`ErrorProfile`] (the stochastic chip of Sec. V-B), and it can swap
//! its netlist in place (the key-rotating chip of Sec. V-C). The oracle
//! stack, the SAT attacks' candidate checks, [`Netlist::evaluate`] and the
//! functional-equivalence spot checks all run on it.

use crate::error::LogicError;
use crate::netlist::Netlist;
use crate::noise::ErrorProfile;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::borrow::Cow;

/// Obs counter: nodes evaluated by simulation sweeps (gate throughput —
/// divide by wall clock for a gates/sec figure).
const NODES_EVALUATED: &str = "logic.nodes_evaluated";

/// A block of up to 64 input patterns, one per bit lane.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PatternBlock {
    /// One `u64` per primary input; bit `k` is the input's value in
    /// pattern `k`.
    pub lanes: Vec<u64>,
    /// Number of valid patterns (1..=64).
    pub count: usize,
}

impl PatternBlock {
    /// Packs explicit patterns (`patterns[k][i]` = input `i` of pattern `k`).
    ///
    /// # Panics
    ///
    /// Panics if more than 64 patterns are supplied, if zero patterns are
    /// supplied, or if rows have inconsistent widths.
    pub fn from_patterns(patterns: &[Vec<bool>]) -> Self {
        assert!(
            !patterns.is_empty() && patterns.len() <= 64,
            "need 1..=64 patterns"
        );
        let width = patterns[0].len();
        let mut lanes = vec![0u64; width];
        for (k, row) in patterns.iter().enumerate() {
            assert_eq!(row.len(), width, "ragged pattern rows");
            for (i, &v) in row.iter().enumerate() {
                if v {
                    lanes[i] |= 1 << k;
                }
            }
        }
        PatternBlock {
            lanes,
            count: patterns.len(),
        }
    }

    /// Draws 64 uniformly random patterns for `num_inputs` inputs.
    pub fn random<R: Rng + ?Sized>(num_inputs: usize, rng: &mut R) -> Self {
        PatternBlock {
            lanes: (0..num_inputs).map(|_| rng.gen()).collect(),
            count: 64,
        }
    }

    /// Draws `count` uniformly random patterns for `num_inputs` inputs
    /// (partial blocks let block-capable oracles answer an arbitrary
    /// sample budget, e.g. AppSAT's reinforcement rounds).
    ///
    /// # Panics
    ///
    /// Panics if `count` is outside `1..=64`.
    pub fn random_n<R: Rng + ?Sized>(num_inputs: usize, count: usize, rng: &mut R) -> Self {
        assert!((1..=64).contains(&count), "need 1..=64 patterns");
        PatternBlock {
            lanes: (0..num_inputs).map(|_| rng.gen()).collect(),
            count,
        }
    }

    /// Extracts pattern `k` as a `Vec<bool>`.
    ///
    /// # Panics
    ///
    /// Panics if `k >= self.count`.
    pub fn pattern(&self, k: usize) -> Vec<bool> {
        assert!(k < self.count, "pattern index out of range");
        self.lanes
            .iter()
            .map(|&lane| (lane >> k) & 1 == 1)
            .collect()
    }

    /// Mask with one bit set per valid pattern.
    pub fn valid_mask(&self) -> u64 {
        if self.count == 64 {
            !0
        } else {
            (1u64 << self.count) - 1
        }
    }
}

/// The bit-parallel simulator of one netlist: the working chip, exact or
/// noisy.
///
/// A pass evaluates a block of up to 64 patterns, one per bit of a `u64`.
/// An exact pass is [`Netlist::sweep_lanes`]. A noisy simulator
/// ([`Simulator::with_noise`]) flips each node's value at its
/// [`ErrorProfile`] rate, and the faults propagate forward and superpose
/// at the outputs, the correlated output errors Sec. V-B relies on.
///
/// Noise comes from one stream: one `gen_bool` per noisy node per pattern,
/// patterns in order and noisy nodes in topological order within each.
/// [`Simulator::run_scalar`] consumes it one pattern at a time and
/// [`Simulator::run_segment_into`] for a block segment, so any split of a
/// pattern sequence into scalar calls and segments gives the same answers
/// and leaves the RNG in the same state.
///
/// The netlist is held as a [`Cow`]: borrowed for a static chip, owned
/// once a key-rotating chip installs its epoch's resolution
/// ([`Simulator::install`]). Scratch is sized on the first pass, so a
/// simulator that never runs never allocates.
#[derive(Debug, Clone)]
pub struct Simulator<'a> {
    netlist: Cow<'a, Netlist>,
    /// Node lanes of the latest pass, reused across calls.
    values: Vec<u64>,
    noise: Option<Noise>,
}

/// A noisy simulator's flip rates and the one RNG stream they draw from.
#[derive(Debug, Clone)]
struct Noise {
    profile: ErrorProfile,
    /// Pre-drawn flip masks of a segment, one per noisy node, reused
    /// across calls.
    flips: Vec<u64>,
    rng: StdRng,
}

impl Noise {
    /// One pass over `block` that flips, in the lanes of the segment
    /// `start..start + len`, exactly the nodes `len` scalar passes would.
    /// The flips are drawn first, pattern-major: a flip is a Bernoulli draw
    /// independent of the computed value, so drawing ahead commutes with
    /// evaluation, and the gates still evaluate 64 lanes wide. Lanes
    /// outside the segment evaluate noise-free.
    // Out of line on purpose: inlined into `run_segment_into`, the
    // generator state is reloaded from memory on every draw instead of
    // staying in registers, and the draws dominate a noisy pass.
    #[inline(never)]
    fn sweep(
        &mut self,
        nl: &Netlist,
        values: &mut [u64],
        block: &PatternBlock,
        start: usize,
        len: usize,
    ) {
        let rates = self.profile.rates();
        self.flips.clear();
        self.flips.resize(self.profile.noisy_count(), 0);
        for k in start..start + len {
            for (slot, node) in self.flips.iter_mut().zip(self.profile.noisy_nodes()) {
                if self.rng.gen_bool(rates[node.index()]) {
                    *slot |= 1 << k;
                }
            }
        }
        let mut next_noisy = 0usize;
        for i in 0..nl.len() {
            let mut v = nl.eval_node_lanes(i, values, |k| block.lanes[k]);
            if rates[i] > 0.0 {
                v ^= self.flips[next_noisy];
                next_noisy += 1;
            }
            values[i] = v;
        }
    }
}

impl<'a> Simulator<'a> {
    /// An exact simulator of a borrowed netlist.
    pub fn new(netlist: &'a Netlist) -> Self {
        Simulator {
            netlist: Cow::Borrowed(netlist),
            values: Vec::new(),
            noise: None,
        }
    }

    /// An exact simulator of an owned netlist (e.g. a key-rotating chip's
    /// first epoch).
    pub fn owned(netlist: Netlist) -> Simulator<'static> {
        Simulator {
            netlist: Cow::Owned(netlist),
            values: Vec::new(),
            noise: None,
        }
    }

    /// Makes the simulator noisy: every node flips at its `profile` rate,
    /// drawn from the RNG stream seeded by `seed`.
    ///
    /// # Panics
    ///
    /// Panics if the profile does not cover exactly the netlist's nodes.
    pub fn with_noise(mut self, profile: ErrorProfile, seed: u64) -> Self {
        assert_eq!(
            profile.len(),
            self.netlist.len(),
            "error profile must cover every netlist node"
        );
        self.noise = Some(Noise {
            profile,
            flips: Vec::new(),
            rng: StdRng::seed_from_u64(seed),
        });
        self
    }

    /// The simulated netlist.
    pub fn netlist(&self) -> &Netlist {
        &self.netlist
    }

    /// The error profile of a noisy simulator (`None` when exact).
    pub fn profile(&self) -> Option<&ErrorProfile> {
        self.noise.as_ref().map(|noise| &noise.profile)
    }

    /// Swaps the simulated netlist for `netlist`, keeping the scratch and
    /// the noise stream: the key-rotation hook. A rotating chip resolves
    /// its keyed netlist per epoch and installs it here, so the noise
    /// stream spans epochs as a scalar query stream would.
    ///
    /// # Panics
    ///
    /// Panics if the simulator is noisy and `netlist` has a different node
    /// count than its profile.
    pub fn install(&mut self, netlist: Netlist) {
        if let Some(noise) = &self.noise {
            assert_eq!(
                noise.profile.len(),
                netlist.len(),
                "installed netlist must match the error profile"
            );
        }
        self.netlist = Cow::Owned(netlist);
    }

    /// Simulates a block of patterns; returns one `u64` per primary output
    /// (bit `k` = output value under pattern `k`). A noisy simulator draws
    /// the flips of the block's `count` patterns.
    ///
    /// # Errors
    ///
    /// Returns [`LogicError::InputCountMismatch`] if the block width does
    /// not match the number of primary inputs.
    pub fn run(&mut self, block: &PatternBlock) -> Result<Vec<u64>, LogicError> {
        let mut out = Vec::with_capacity(self.netlist.outputs().len());
        self.run_segment_into(block, 0, block.count, &mut out)?;
        Ok(out)
    }

    /// One pass over `block` that answers its segment `start..start + len`
    /// into `out` (cleared and refilled), one `u64` per primary output. A
    /// noisy simulator draws the flips of exactly the segment's patterns,
    /// the draws `len` [`Simulator::run_scalar`] calls would make; lanes
    /// outside the segment are not answers, and callers mask them off. A
    /// key-rotating chip answers each epoch's segment of a block here.
    ///
    /// # Errors
    ///
    /// Returns [`LogicError::InputCountMismatch`] if the block width does
    /// not match the number of primary inputs (leaving `out` cleared).
    ///
    /// # Panics
    ///
    /// Panics if `start + len` exceeds `block.count`.
    pub fn run_segment_into(
        &mut self,
        block: &PatternBlock,
        start: usize,
        len: usize,
        out: &mut Vec<u64>,
    ) -> Result<(), LogicError> {
        out.clear();
        let Simulator {
            netlist,
            values,
            noise,
        } = self;
        check_arity(netlist, block.lanes.len())?;
        assert!(start + len <= block.count, "segment exceeds block");
        values.resize(netlist.len(), 0);
        match noise {
            None => netlist.sweep_lanes(values, &block.lanes),
            Some(noise) => noise.sweep(netlist, values, block, start, len),
        }
        gshe_obs::count(NODES_EVALUATED, netlist.len() as u64);
        out.extend(netlist.outputs().iter().map(|o| values[o.index()]));
        Ok(())
    }

    /// Evaluates one pattern through lane 0 of the gate core, drawing one
    /// `gen_bool` per noisy node when the simulator is noisy.
    ///
    /// # Errors
    ///
    /// Returns [`LogicError::InputCountMismatch`] on arity mismatch.
    pub fn run_scalar(&mut self, inputs: &[bool]) -> Result<Vec<bool>, LogicError> {
        let Simulator {
            netlist,
            values,
            noise,
        } = self;
        check_arity(netlist, inputs.len())?;
        values.resize(netlist.len(), 0);
        for i in 0..netlist.len() {
            let mut v = netlist.eval_node_lanes(i, values, |k| inputs[k] as u64);
            if let Some(Noise { profile, rng, .. }) = noise {
                let rate = profile.rates()[i];
                if rate > 0.0 && rng.gen_bool(rate) {
                    v ^= 1;
                }
            }
            values[i] = v;
        }
        gshe_obs::count(NODES_EVALUATED, netlist.len() as u64);
        Ok(netlist
            .outputs()
            .iter()
            .map(|o| values[o.index()] & 1 == 1)
            .collect())
    }

    /// Values of *all* nodes from the latest pass (packed lanes; after
    /// [`Simulator::run_scalar`] only bit 0 is meaningful).
    pub fn node_values(&self) -> &[u64] {
        &self.values
    }
}

/// `Ok` when `got` input values fit `netlist`'s primary inputs.
fn check_arity(netlist: &Netlist, got: usize) -> Result<(), LogicError> {
    let expected = netlist.inputs().len();
    if got == expected {
        Ok(())
    } else {
        Err(LogicError::InputCountMismatch { expected, got })
    }
}

/// Estimates whether two netlists with identical interfaces are functionally
/// equivalent by simulating `blocks` × 64 random patterns. Returns the first
/// differing input pattern, or `None` if none was found.
///
/// This is a *falsifier*, not a prover — the SAT-based miter in
/// `gshe-attacks` provides the complete check.
///
/// # Errors
///
/// Returns [`LogicError::Validation`] naming both interfaces if their
/// input or output counts differ.
pub fn random_equivalence_check<R: Rng + ?Sized>(
    a: &Netlist,
    b: &Netlist,
    blocks: usize,
    rng: &mut R,
) -> Result<Option<Vec<bool>>, LogicError> {
    let ports = |nl: &Netlist| (nl.inputs().len(), nl.outputs().len());
    let ((ai, ao), (bi, bo)) = (ports(a), ports(b));
    if (ai, ao) != (bi, bo) {
        return Err(LogicError::Validation(format!(
            "interfaces differ: inputs {ai} vs {bi}, outputs {ao} vs {bo}"
        )));
    }
    let mut sim_a = Simulator::new(a);
    let mut sim_b = Simulator::new(b);
    for _ in 0..blocks {
        let block = PatternBlock::random(a.inputs().len(), rng);
        let out_a = sim_a.run(&block)?;
        let out_b = sim_b.run(&block)?;
        for (ya, yb) in out_a.iter().zip(&out_b) {
            let diff = (ya ^ yb) & block.valid_mask();
            if diff != 0 {
                let k = diff.trailing_zeros() as usize;
                return Ok(Some(block.pattern(k)));
            }
        }
    }
    Ok(None)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::bf2::Bf2;
    use crate::builder::NetlistBuilder;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn adder() -> Netlist {
        let mut b = NetlistBuilder::new("fa");
        let x = b.input("x");
        let y = b.input("y");
        let s = b.gate2("s", Bf2::XOR, x, y);
        let c = b.gate2("c", Bf2::AND, x, y);
        b.output(s);
        b.output(c);
        b.finish().unwrap()
    }

    #[test]
    fn block_round_trip() {
        let patterns = vec![vec![true, false], vec![false, true], vec![true, true]];
        let block = PatternBlock::from_patterns(&patterns);
        assert_eq!(block.count, 3);
        for (k, p) in patterns.iter().enumerate() {
            assert_eq!(&block.pattern(k), p);
        }
        assert_eq!(block.valid_mask(), 0b111);
    }

    #[test]
    fn parallel_sim_matches_scalar_eval() {
        let nl = adder();
        let mut rng = StdRng::seed_from_u64(5);
        let mut sim = Simulator::new(&nl);
        for _ in 0..10 {
            let block = PatternBlock::random(2, &mut rng);
            let outs = sim.run(&block).unwrap();
            for k in 0..block.count {
                let scalar = nl.evaluate(&block.pattern(k));
                for (o, &packed) in scalar.iter().zip(&outs) {
                    assert_eq!(*o, (packed >> k) & 1 == 1);
                }
            }
        }
    }

    #[test]
    fn run_scalar_matches_block_lanes() {
        let nl = adder();
        let mut sim = Simulator::new(&nl);
        let patterns: Vec<Vec<bool>> = (0..4u32)
            .map(|p| (0..2).map(|k| (p >> k) & 1 == 1).collect())
            .collect();
        let lanes = sim.run(&PatternBlock::from_patterns(&patterns)).unwrap();
        for (k, inputs) in patterns.iter().enumerate() {
            let block_k: Vec<bool> = lanes.iter().map(|lane| (lane >> k) & 1 == 1).collect();
            assert_eq!(sim.run_scalar(inputs).unwrap(), block_k);
        }
        assert!(sim.run_scalar(&[true]).is_err(), "arity checked");
    }

    #[test]
    fn equivalence_check_accepts_identical() {
        let a = adder();
        let b = adder();
        let mut rng = StdRng::seed_from_u64(1);
        assert_eq!(random_equivalence_check(&a, &b, 8, &mut rng).unwrap(), None);
    }

    #[test]
    fn equivalence_check_finds_counterexample() {
        let a = adder();
        let mut b = adder();
        let s = b.find("s").unwrap();
        b.set_gate2_function(s, Bf2::XNOR).unwrap();
        let mut rng = StdRng::seed_from_u64(1);
        let cex = random_equivalence_check(&a, &b, 8, &mut rng)
            .unwrap()
            .expect("must differ");
        assert_ne!(a.evaluate(&cex), b.evaluate(&cex));
    }

    #[test]
    fn equivalence_check_rejects_interface_mismatch() {
        let a = adder();
        let mut builder = NetlistBuilder::new("other");
        let x = builder.input("x");
        builder.output(x);
        let b = builder.finish().unwrap();
        assert!(random_equivalence_check(&a, &b, 1, &mut StdRng::seed_from_u64(0)).is_err());
        // Same inputs, one output fewer: the error names the outputs.
        let mut builder = NetlistBuilder::new("narrow");
        let x = builder.input("x");
        let y = builder.input("y");
        let s = builder.gate2("s", Bf2::XOR, x, y);
        builder.output(s);
        let c = builder.finish().unwrap();
        let err = random_equivalence_check(&a, &c, 1, &mut StdRng::seed_from_u64(0)).unwrap_err();
        assert!(matches!(err, LogicError::Validation(_)), "{err:?}");
        let message = err.to_string();
        assert!(message.contains("outputs 2 vs 1"), "{message}");
    }

    #[test]
    #[should_panic(expected = "1..=64")]
    fn from_patterns_rejects_empty() {
        let _ = PatternBlock::from_patterns(&[]);
    }
}
