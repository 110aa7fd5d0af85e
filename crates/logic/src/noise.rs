//! Per-node error rates: what makes a [`Simulator`] a stochastic chip.
//!
//! The paper's headline defense (Sec. V-B) is stochastic switching whose
//! "error rate for any switch can be tuned individually". [`ErrorProfile`]
//! is that tunability as one object: a dense per-node flip-rate table
//! (`Vec<f64>`, one entry per netlist node). Uniform rates, per-node
//! vectors, and device-derived per-switch rates (see
//! `gshe_campaign::physical`) all normalize to it, so a pass never does a
//! per-node set-membership probe.
//!
//! [`Simulator::with_noise`] installs a profile and a seed. The noisy
//! simulator draws one `gen_bool` per noisy node per pattern,
//! pattern-major, whether patterns arrive one at a time or as a block
//! segment. With an all-zero profile it is bit-identical to the exact
//! simulator (property-tested in `tests/fault_sim_props.rs`).
//!
//! [`Simulator`]: crate::sim::Simulator
//! [`Simulator::with_noise`]: crate::sim::Simulator::with_noise

use crate::netlist::NodeId;

/// A dense per-node error-rate table: entry `i` is the probability that
/// node `i`'s computed value flips per evaluation.
///
/// This is the normal form every noise description reduces to — a uniform
/// rate over a node subset, an explicit rate vector, or per-switch rates
/// derived from spin current and clock period (Sec. V-B's knob). Dense
/// storage keeps the hot simulation loop to an indexed load, with the
/// noisy-node subset precomputed at construction.
#[derive(Debug, Clone, PartialEq)]
pub struct ErrorProfile {
    rates: Vec<f64>,
    /// Indices with a nonzero rate, ascending (precomputed).
    noisy: Vec<u32>,
}

impl ErrorProfile {
    /// A profile of `len` nodes, all perfectly deterministic.
    pub fn zero(len: usize) -> Self {
        ErrorProfile {
            rates: vec![0.0; len],
            noisy: Vec::new(),
        }
    }

    /// A profile with every node flipping at `rate`.
    ///
    /// # Panics
    ///
    /// Panics if `rate` is outside `[0, 1]`.
    pub fn uniform(len: usize, rate: f64) -> Self {
        Self::from_rates(vec![rate; len])
    }

    /// A profile with `rate` at exactly the listed `nodes` and 0 elsewhere
    /// — e.g. uniform noise over a keyed netlist's cloaked cells.
    ///
    /// # Panics
    ///
    /// Panics if `rate` is outside `[0, 1]` or a node index is out of
    /// range.
    pub fn uniform_at(len: usize, nodes: &[NodeId], rate: f64) -> Self {
        assert!((0.0..=1.0).contains(&rate), "error rate must be in [0, 1]");
        let mut rates = vec![0.0; len];
        for node in nodes {
            rates[node.index()] = rate;
        }
        Self::from_rates(rates)
    }

    /// A profile from an explicit per-node rate vector.
    ///
    /// # Panics
    ///
    /// Panics if any rate is outside `[0, 1]` (NaN included).
    pub fn from_rates(rates: Vec<f64>) -> Self {
        assert!(
            rates.iter().all(|r| (0.0..=1.0).contains(r)),
            "error rate must be in [0, 1]"
        );
        let noisy = rates
            .iter()
            .enumerate()
            .filter(|(_, &r)| r > 0.0)
            .map(|(i, _)| i as u32)
            .collect();
        ErrorProfile { rates, noisy }
    }

    /// Sets one node's rate.
    ///
    /// # Panics
    ///
    /// Panics if `rate` is outside `[0, 1]` or `node` is out of range.
    pub fn set(&mut self, node: NodeId, rate: f64) {
        assert!((0.0..=1.0).contains(&rate), "error rate must be in [0, 1]");
        self.rates[node.index()] = rate;
        // Rebuild the noisy set; `set` is a construction-time operation.
        self.noisy = self
            .rates
            .iter()
            .enumerate()
            .filter(|(_, &r)| r > 0.0)
            .map(|(i, _)| i as u32)
            .collect();
    }

    /// The flip rate of `node`.
    ///
    /// # Panics
    ///
    /// Panics if `node` is out of range.
    pub fn rate(&self, node: NodeId) -> f64 {
        self.rates[node.index()]
    }

    /// The dense rate table (one entry per node).
    pub fn rates(&self) -> &[f64] {
        &self.rates
    }

    /// Number of nodes the profile covers.
    pub fn len(&self) -> usize {
        self.rates.len()
    }

    /// `true` if the profile covers zero nodes.
    pub fn is_empty(&self) -> bool {
        self.rates.is_empty()
    }

    /// Ids of nodes with a nonzero rate, ascending.
    pub fn noisy_nodes(&self) -> impl Iterator<Item = NodeId> + '_ {
        self.noisy.iter().map(|&i| NodeId(i))
    }

    /// Number of nodes with a nonzero rate.
    pub fn noisy_count(&self) -> usize {
        self.noisy.len()
    }

    /// `true` if every rate is zero (a noisy
    /// [`Simulator`](crate::sim::Simulator) then answers as the exact one).
    pub fn is_quiet(&self) -> bool {
        self.noisy.is_empty()
    }

    /// The largest per-node rate (0 for a quiet profile).
    pub fn max_rate(&self) -> f64 {
        self.noisy
            .iter()
            .map(|&i| self.rates[i as usize])
            .fold(0.0, f64::max)
    }

    /// A stable identity hash of the profile (folds every rate's bit
    /// pattern). Campaigns mix this into job seeds so distinct profiles
    /// draw distinct noise streams, and report rows can name the profile
    /// they measured.
    pub fn fingerprint(&self) -> u64 {
        let mut h = splitmix(self.rates.len() as u64 ^ 0x9027_1A5E);
        for &r in &self.rates {
            h = splitmix(h ^ r.to_bits());
        }
        h
    }
}

/// SplitMix64 finalizer (local copy; `gshe-campaign` has the canonical
/// seed-derivation one, but `gshe-logic` sits below it in the crate DAG).
pub(crate) fn splitmix(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
    x = (x ^ (x >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    x ^ (x >> 31)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::bf2::Bf2;
    use crate::builder::NetlistBuilder;
    use crate::netlist::Netlist;
    use crate::sim::{PatternBlock, Simulator};
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

    /// `nl`'s simulator with noise `profile` seeded by `seed`.
    fn noisy(nl: &Netlist, profile: ErrorProfile, seed: u64) -> Simulator<'_> {
        Simulator::new(nl).with_noise(profile, seed)
    }

    #[test]
    fn quiet_profile_matches_plain_simulator() {
        let nl = adder();
        let mut rng = StdRng::seed_from_u64(9);
        let mut plain = Simulator::new(&nl);
        let mut quiet = noisy(&nl, ErrorProfile::zero(nl.len()), 1);
        for _ in 0..8 {
            let block = PatternBlock::random(2, &mut rng);
            assert_eq!(plain.run(&block).unwrap(), quiet.run(&block).unwrap());
        }
    }

    #[test]
    fn scalar_and_block_agree_when_quiet() {
        let nl = adder();
        let mut sim = noisy(&nl, ErrorProfile::zero(nl.len()), 1);
        let patterns: Vec<Vec<bool>> = (0..4u32)
            .map(|p| (0..2).map(|k| (p >> k) & 1 == 1).collect())
            .collect();
        let lanes = sim.run(&PatternBlock::from_patterns(&patterns)).unwrap();
        for (k, inputs) in patterns.iter().enumerate() {
            let block_k: Vec<bool> = lanes.iter().map(|lane| (lane >> k) & 1 == 1).collect();
            assert_eq!(sim.run_scalar(inputs).unwrap(), block_k);
        }
    }

    #[test]
    fn certain_flip_inverts_the_output() {
        let nl = adder();
        let s = nl.find("s").unwrap();
        let profile = ErrorProfile::uniform_at(nl.len(), &[s], 1.0);
        let mut sim = noisy(&nl, profile, 3);
        let block = PatternBlock::from_patterns(&[vec![true, false]]);
        let lanes = sim.run(&block).unwrap();
        // XOR(1,0) = 1, flipped with certainty → 0; AND untouched → 0.
        assert_eq!(lanes[0] & 1, 0);
        assert_eq!(lanes[1] & 1, 0);
        let scalar = sim.run_scalar(&[true, false]).unwrap();
        assert_eq!(scalar, vec![false, false]);
    }

    #[test]
    fn profile_construction_and_identity() {
        let nl = adder();
        let s = nl.find("s").unwrap();
        let quiet = ErrorProfile::zero(nl.len());
        assert!(quiet.is_quiet());
        assert_eq!(quiet.noisy_count(), 0);
        assert_eq!(quiet.max_rate(), 0.0);

        let mut p = ErrorProfile::uniform_at(nl.len(), &[s], 0.1);
        assert!(!p.is_quiet());
        assert_eq!(p.noisy_nodes().collect::<Vec<_>>(), vec![s]);
        assert_eq!(p.rate(s), 0.1);
        assert_eq!(p.max_rate(), 0.1);
        assert_ne!(p.fingerprint(), quiet.fingerprint());

        p.set(s, 0.0);
        assert!(p.is_quiet());
        assert_eq!(p.fingerprint(), quiet.fingerprint());
    }

    #[test]
    #[should_panic(expected = "error rate")]
    fn profile_rejects_out_of_range_rates() {
        let _ = ErrorProfile::from_rates(vec![0.5, 1.5]);
    }

    #[test]
    #[should_panic(expected = "cover every netlist node")]
    fn engine_rejects_mismatched_profile() {
        let nl = adder();
        let _ = noisy(&nl, ErrorProfile::zero(nl.len() + 1), 0);
    }

    #[test]
    fn scalar_stream_block_matches_scalar_calls_bit_for_bit() {
        // The segment path must reproduce run_scalar exactly — outputs
        // AND post-call RNG state — over arbitrary segment splits.
        let nl = adder();
        let s = nl.find("s").unwrap();
        let c = nl.find("c").unwrap();
        let profile = ErrorProfile::uniform_at(nl.len(), &[s, c], 0.3);
        let mut rng = StdRng::seed_from_u64(11);
        let mut fast = noisy(&nl, profile.clone(), 7);
        let mut slow = noisy(&nl, profile, 7);
        let mut lanes = Vec::new();
        for (start, len) in [(0usize, 64usize), (0, 17), (17, 30), (47, 17)] {
            let block = PatternBlock::random(2, &mut rng);
            fast.run_segment_into(&block, start, len, &mut lanes)
                .unwrap();
            for k in start..start + len {
                let y = slow.run_scalar(&block.pattern(k)).unwrap();
                for (o, &bit) in y.iter().enumerate() {
                    assert_eq!(
                        bit,
                        (lanes[o] >> k) & 1 == 1,
                        "segment ({start},{len}) pattern {k} output {o}"
                    );
                }
            }
        }
        // Twins must still agree afterwards: the streams stayed in sync.
        let probe = [true, true];
        assert_eq!(
            fast.run_scalar(&probe).unwrap(),
            slow.run_scalar(&probe).unwrap()
        );
    }

    #[test]
    fn install_swaps_the_netlist_and_keeps_the_noise_stream() {
        let nl = adder();
        let s = nl.find("s").unwrap();
        let profile = ErrorProfile::uniform_at(nl.len(), &[s], 0.5);
        let mut a = noisy(&nl, profile.clone(), 3);
        let mut b = noisy(&nl, profile, 3);
        let _ = a.run_scalar(&[true, false]).unwrap();
        let _ = b.run_scalar(&[true, false]).unwrap();
        // Install a structurally different netlist of the same size into
        // `a`: its answers change, but the RNG stream stays the twin's.
        let mut swapped = adder();
        let s2 = swapped.find("s").unwrap();
        swapped.set_gate2_function(s2, Bf2::XNOR).unwrap();
        a.install(swapped.clone());
        for p in 0..4u32 {
            let inputs: Vec<bool> = (0..2).map(|k| (p >> k) & 1 == 1).collect();
            let ya = a.run_scalar(&inputs).unwrap();
            let yb = b.run_scalar(&inputs).unwrap();
            // Same flip draws, different function: outputs differ exactly
            // where the swapped gate's clean value differs.
            assert_eq!(ya[0], !yb[0], "XNOR vs XOR under identical flips");
            assert_eq!(ya[1], yb[1], "carry gate untouched");
        }
    }

    #[test]
    #[should_panic(expected = "match the error profile")]
    fn install_rejects_mismatched_size() {
        let nl = adder();
        let mut sim = noisy(&nl, ErrorProfile::zero(nl.len()), 0);
        let mut b = NetlistBuilder::new("tiny");
        let x = b.input("x");
        b.output(x);
        sim.install(b.finish().unwrap());
    }
}
