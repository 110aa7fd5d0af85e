//! Seeded synthetic netlist generation.
//!
//! The paper evaluates on licensed benchmark suites (ISCAS-85, MCNC,
//! ITC-99, EPFL, IBM superblue) whose netlists are not redistributable
//! artifacts of this reproduction. [`NetlistGenerator`] synthesizes random
//! DAG netlists with prescribed PI/PO/gate counts and a tunable depth
//! profile, preserving the properties the paper's experiments actually
//! depend on: key count grows with protected-gate count, cones are wide and
//! deep, and (for the timing study) path-delay distributions are biased —
//! many short paths, few long critical ones (Fig. 6).

use crate::bf2::Bf2;
use crate::error::LogicError;
use crate::netlist::{Netlist, NetlistAssembly, NodeId};
use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::{Rng, SeedableRng};

/// Target gate count of one [`Topology::Local`] placement tile: random
/// fanins stay inside the gate's own tile, so no influence cone can
/// outgrow a tile plus the primary inputs it reads.
pub const LOCAL_WINDOW: usize = 1024;

/// Probability that a [`Topology::Local`] random fanin escapes its tile
/// to a uniformly-drawn **primary input** — the rare long wire of a
/// Rent-style wirelength distribution. Long wires route global signals
/// (resets, selects), not another tile's internal nets, which is what
/// keeps tile cones from chaining into each other.
const GLOBAL_EDGE_PROB: f64 = 0.02;

/// How the generator's *random* fanin draws are distributed over the
/// already-created nodes.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum Topology {
    /// Historical uniform-random fanins over every prior node. At
    /// superblue scale this makes any gate's influence percolate to
    /// most outputs — unlike placed netlists.
    #[default]
    Uniform,
    /// Placed-netlist locality: gates are partitioned round-robin into
    /// tiles of ~[`LOCAL_WINDOW`] gates, each tile drawing fanins from
    /// its own nodes (global-edge escapes reach primary inputs only),
    /// so a cloaked cell's influence cone is bounded by one tile —
    /// cone-of-influence reductions win without cone-aware placement.
    Local,
}

impl Topology {
    /// Parses the spec-file spelling: `"uniform"` or `"local"`.
    pub fn parse(s: &str) -> Option<Topology> {
        match s {
            "uniform" => Some(Topology::Uniform),
            "local" => Some(Topology::Local),
            _ => None,
        }
    }

    /// The spec-file spelling accepted by [`Topology::parse`].
    pub fn name(self) -> &'static str {
        match self {
            Topology::Uniform => "uniform",
            Topology::Local => "local",
        }
    }
}

/// Configuration of the random netlist generator.
#[derive(Debug, Clone, PartialEq)]
pub struct GeneratorConfig {
    /// Design name.
    pub name: String,
    /// Number of primary inputs (≥ 2).
    pub inputs: usize,
    /// Number of primary outputs (≥ 1).
    pub outputs: usize,
    /// Number of two-input gates (≥ outputs).
    pub gates: usize,
    /// RNG seed (same seed → identical netlist).
    pub seed: u64,
    /// Functions to draw from, with weights.
    pub functions: Vec<(Bf2, f64)>,
    /// Probability that a gate extends the most recently created node,
    /// producing long chains (0 → shallow and bushy, →1 → one deep chain).
    pub chain_bias: f64,
    /// Probability of drawing a fanin from the not-yet-used pool
    /// (keeps dead logic low).
    pub reuse_pressure: f64,
    /// Distribution of the random fanin draws ([`Topology::Uniform`]
    /// preserves the historical RNG stream bit-for-bit).
    pub topology: Topology,
}

impl GeneratorConfig {
    /// A reasonable default profile for SAT-attack workloads.
    pub fn new(name: impl Into<String>, inputs: usize, outputs: usize, gates: usize) -> Self {
        GeneratorConfig {
            name: name.into(),
            inputs,
            outputs,
            gates,
            seed: 1,
            functions: Bf2::STANDARD.iter().map(|&f| (f, 1.0)).collect(),
            chain_bias: 0.12,
            reuse_pressure: 0.65,
            topology: Topology::Uniform,
        }
    }

    /// Overrides the seed (builder style).
    pub fn with_seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    /// Overrides the fanin topology (builder style).
    pub fn with_topology(mut self, topology: Topology) -> Self {
        self.topology = topology;
        self
    }

    /// Overrides the chain bias (builder style).
    pub fn with_chain_bias(mut self, bias: f64) -> Self {
        self.chain_bias = bias;
        self
    }

    /// Validates the configuration.
    ///
    /// # Errors
    ///
    /// Returns [`LogicError::Validation`] when counts are inconsistent.
    pub fn validate(&self) -> Result<(), LogicError> {
        if self.inputs < 2 {
            return Err(LogicError::Validation("need at least 2 inputs".into()));
        }
        if self.outputs == 0 {
            return Err(LogicError::Validation("need at least 1 output".into()));
        }
        if self.gates < self.outputs {
            return Err(LogicError::Validation(format!(
                "{} gates cannot drive {} distinct outputs",
                self.gates, self.outputs
            )));
        }
        if self.functions.is_empty() {
            return Err(LogicError::Validation("function set is empty".into()));
        }
        if !(0.0..=1.0).contains(&self.chain_bias) || !(0.0..=1.0).contains(&self.reuse_pressure) {
            return Err(LogicError::Validation(
                "probabilities must be in [0, 1]".into(),
            ));
        }
        Ok(())
    }
}

/// The generator itself.
#[derive(Debug, Clone)]
pub struct NetlistGenerator {
    config: GeneratorConfig,
}

impl NetlistGenerator {
    /// Creates a generator.
    ///
    /// # Errors
    ///
    /// Returns [`LogicError::Validation`] if the configuration is
    /// inconsistent.
    pub fn new(config: GeneratorConfig) -> Result<Self, LogicError> {
        config.validate()?;
        Ok(NetlistGenerator { config })
    }

    /// The configuration.
    pub fn config(&self) -> &GeneratorConfig {
        &self.config
    }

    fn pick_function(&self, rng: &mut StdRng) -> Bf2 {
        let total: f64 = self.config.functions.iter().map(|(_, w)| w).sum();
        let mut t = rng.gen_range(0.0..total);
        for &(f, w) in &self.config.functions {
            if t < w {
                return f;
            }
            t -= w;
        }
        self.config.functions[0].0
    }

    /// Generates the netlist.
    pub fn generate(&self) -> Netlist {
        if self.config.topology == Topology::Local {
            return self.generate_local();
        }
        let cfg = &self.config;
        let mut rng = StdRng::seed_from_u64(cfg.seed);
        let mut b = NetlistAssembly::new(cfg.name.clone(), cfg.inputs + cfg.gates);

        let mut nodes: Vec<NodeId> = Vec::with_capacity(cfg.inputs + cfg.gates);
        for i in 0..cfg.inputs {
            nodes.push(b.input(format_args!("pi{i}")));
        }
        // FIFO pool of nodes that currently have no fanout. Consuming the
        // *oldest* dangling node first yields balanced, shallow structure
        // (depth ~ log gates); `chain_bias` explicitly extends the newest
        // node instead, growing long paths.
        let mut unused: std::collections::VecDeque<NodeId> = nodes.iter().copied().collect();
        let mut has_fanout = vec![false; cfg.inputs + cfg.gates];

        for g in 0..cfg.gates {
            let f = self.pick_function(&mut rng);
            // Keep the dangling pool tracking the number of outputs we will
            // eventually need: while it is larger, consume an extra fanin
            // from it so dead logic stays negligible.
            let want_shrink = unused.len() > cfg.outputs + 4;
            let a = if rng.gen_bool(cfg.chain_bias) {
                *nodes.last().expect("nodes nonempty")
            } else if !unused.is_empty() && rng.gen_bool(cfg.reuse_pressure) {
                unused.pop_front().expect("checked nonempty")
            } else {
                nodes[rng.gen_range(0..nodes.len())]
            };
            let mut bb = if want_shrink && !unused.is_empty() && rng.gen_bool(0.5) {
                unused.pop_front().expect("checked nonempty")
            } else {
                nodes[rng.gen_range(0..nodes.len())]
            };
            // Avoid a == b (degenerate gates weaken SAT workloads).
            let mut guard = 0;
            while bb == a && guard < 8 {
                bb = nodes[rng.gen_range(0..nodes.len())];
                guard += 1;
            }
            for id in [a, bb] {
                has_fanout[id.index()] = true;
            }
            let id = b.gate2(format_args!("g{g}"), f, a, bb);
            nodes.push(id);
            unused.push_back(id);
            has_fanout.push(false);
            // Lazily drop stale entries (nodes that gained fanout since
            // being queued) from the front of the pool.
            while let Some(&front) = unused.front() {
                if has_fanout[front.index()] {
                    unused.pop_front();
                } else {
                    break;
                }
            }
        }

        // Outputs: dangling gates first (minimizes dead logic), then random
        // gates to reach the exact count.
        let gate_start = cfg.inputs;
        let mut dangling: Vec<NodeId> = unused
            .into_iter()
            .filter(|id| id.index() >= gate_start && !has_fanout[id.index()])
            .collect();
        dangling.shuffle(&mut rng);
        let mut outs: Vec<NodeId> = Vec::with_capacity(cfg.outputs);
        while outs.len() < cfg.outputs {
            if let Some(id) = dangling.pop() {
                outs.push(id);
            } else {
                // Draw random distinct gates.
                let id = nodes[rng.gen_range(gate_start..nodes.len())];
                if !outs.contains(&id) {
                    outs.push(id);
                }
            }
        }
        for id in outs {
            b.output(id);
        }
        b.finish().expect("generator maintains invariants")
    }

    /// The [`Topology::Local`] generator: the same chain-bias /
    /// reuse-pool / random-draw recipe, run per **placement tile**.
    /// Gates are dealt round-robin into `⌈gates / LOCAL_WINDOW⌉` tiles;
    /// each tile keeps its own node list and dangling pool, and every
    /// random draw stays inside the gate's tile except the
    /// [`GLOBAL_EDGE_PROB`] escape to a uniformly-drawn primary input.
    /// Inter-tile edges therefore only ever originate at primary
    /// inputs, so a gate's influence cone — and the fanin cone of the
    /// outputs it reaches — is bounded by one tile plus the inputs
    /// feeding it, like a placed netlist's module structure.
    fn generate_local(&self) -> Netlist {
        let cfg = &self.config;
        let mut rng = StdRng::seed_from_u64(cfg.seed);
        let mut b = NetlistAssembly::new(cfg.name.clone(), cfg.inputs + cfg.gates);

        let pis: Vec<NodeId> = (0..cfg.inputs)
            .map(|i| b.input(format_args!("pi{i}")))
            .collect();
        let tiles = cfg.gates.div_ceil(LOCAL_WINDOW).max(1);
        // Each tile's visible nodes, seeded with its round-robin share
        // of the primary inputs (plus shared fallbacks so every tile
        // starts with at least two drawable nodes).
        let mut tile_nodes: Vec<Vec<NodeId>> = vec![Vec::new(); tiles];
        for (i, &pi) in pis.iter().enumerate() {
            tile_nodes[i % tiles].push(pi);
        }
        for (k, nodes) in tile_nodes.iter_mut().enumerate() {
            while nodes.len() < 2 {
                nodes.push(pis[(k + nodes.len()) % pis.len()]);
            }
        }
        let mut tile_unused: Vec<std::collections::VecDeque<NodeId>> = tile_nodes
            .iter()
            .map(|nodes| nodes.iter().copied().collect())
            .collect();
        let mut has_fanout = vec![false; cfg.inputs + cfg.gates];
        // Per-tile dangling target, mirroring the global `outputs + 4`
        // pool bound of the uniform path.
        let shrink_at = cfg.outputs.div_ceil(tiles) + 4;

        let mut all_gates: Vec<NodeId> = Vec::with_capacity(cfg.gates);
        for g in 0..cfg.gates {
            let k = g % tiles;
            let f = self.pick_function(&mut rng);
            let draw = |rng: &mut StdRng, nodes: &[NodeId]| -> NodeId {
                if rng.gen_bool(GLOBAL_EDGE_PROB) {
                    pis[rng.gen_range(0..pis.len())]
                } else {
                    nodes[rng.gen_range(0..nodes.len())]
                }
            };
            let want_shrink = tile_unused[k].len() > shrink_at;
            let a = if rng.gen_bool(cfg.chain_bias) {
                *tile_nodes[k].last().expect("tiles are seeded")
            } else if !tile_unused[k].is_empty() && rng.gen_bool(cfg.reuse_pressure) {
                tile_unused[k].pop_front().expect("checked nonempty")
            } else {
                draw(&mut rng, &tile_nodes[k])
            };
            let mut bb = if want_shrink && !tile_unused[k].is_empty() && rng.gen_bool(0.5) {
                tile_unused[k].pop_front().expect("checked nonempty")
            } else {
                draw(&mut rng, &tile_nodes[k])
            };
            let mut guard = 0;
            while bb == a && guard < 8 {
                bb = draw(&mut rng, &tile_nodes[k]);
                guard += 1;
            }
            for id in [a, bb] {
                has_fanout[id.index()] = true;
            }
            let id = b.gate2(format_args!("g{g}"), f, a, bb);
            all_gates.push(id);
            tile_nodes[k].push(id);
            tile_unused[k].push_back(id);
            while let Some(&front) = tile_unused[k].front() {
                if has_fanout[front.index()] {
                    tile_unused[k].pop_front();
                } else {
                    break;
                }
            }
        }

        // Outputs: dangling gates first (walk tiles round-robin so every
        // tile contributes), then random distinct gates.
        let gate_start = cfg.inputs;
        let mut dangling: Vec<NodeId> = tile_unused
            .into_iter()
            .flatten()
            .filter(|id| id.index() >= gate_start && !has_fanout[id.index()])
            .collect();
        dangling.shuffle(&mut rng);
        let mut outs: Vec<NodeId> = Vec::with_capacity(cfg.outputs);
        while outs.len() < cfg.outputs {
            if let Some(id) = dangling.pop() {
                outs.push(id);
            } else {
                let id = all_gates[rng.gen_range(0..all_gates.len())];
                if !outs.contains(&id) {
                    outs.push(id);
                }
            }
        }
        for id in outs {
            b.output(id);
        }
        b.finish().expect("generator maintains invariants")
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::stats::NetlistStats;

    #[test]
    fn counts_are_exact() {
        let cfg = GeneratorConfig::new("t", 12, 7, 120).with_seed(3);
        let nl = NetlistGenerator::new(cfg).unwrap().generate();
        assert_eq!(nl.inputs().len(), 12);
        assert_eq!(nl.outputs().len(), 7);
        assert_eq!(nl.gate_count(), 120);
        nl.check().unwrap();
    }

    #[test]
    fn same_seed_same_netlist() {
        let cfg = GeneratorConfig::new("t", 8, 4, 60).with_seed(9);
        let a = NetlistGenerator::new(cfg.clone()).unwrap().generate();
        let b = NetlistGenerator::new(cfg).unwrap().generate();
        assert_eq!(a, b);
    }

    #[test]
    fn different_seed_different_netlist() {
        let a = NetlistGenerator::new(GeneratorConfig::new("t", 8, 4, 60).with_seed(1))
            .unwrap()
            .generate();
        let b = NetlistGenerator::new(GeneratorConfig::new("t", 8, 4, 60).with_seed(2))
            .unwrap()
            .generate();
        assert_ne!(a, b);
    }

    #[test]
    fn chain_bias_increases_depth() {
        let shallow = NetlistGenerator::new(
            GeneratorConfig::new("t", 16, 8, 400)
                .with_seed(5)
                .with_chain_bias(0.0),
        )
        .unwrap()
        .generate();
        let deep = NetlistGenerator::new(
            GeneratorConfig::new("t", 16, 8, 400)
                .with_seed(5)
                .with_chain_bias(0.8),
        )
        .unwrap()
        .generate();
        assert!(
            deep.depth() > 2 * shallow.depth(),
            "deep {} vs shallow {}",
            deep.depth(),
            shallow.depth()
        );
    }

    #[test]
    fn dead_logic_stays_small() {
        let nl = NetlistGenerator::new(GeneratorConfig::new("t", 32, 16, 800).with_seed(7))
            .unwrap()
            .generate();
        let stats = NetlistStats::compute(&nl);
        assert!(
            (stats.dead_gates as f64) < 0.02 * 800.0,
            "{} dead gates",
            stats.dead_gates
        );
    }

    #[test]
    fn outputs_are_distinct() {
        let nl = NetlistGenerator::new(GeneratorConfig::new("t", 6, 6, 40).with_seed(2))
            .unwrap()
            .generate();
        let mut outs = nl.outputs().to_vec();
        outs.sort_unstable();
        outs.dedup();
        assert_eq!(outs.len(), 6);
    }

    #[test]
    fn invalid_configs_are_rejected() {
        assert!(NetlistGenerator::new(GeneratorConfig::new("t", 1, 1, 4)).is_err());
        assert!(NetlistGenerator::new(GeneratorConfig::new("t", 4, 0, 4)).is_err());
        assert!(NetlistGenerator::new(GeneratorConfig::new("t", 4, 9, 4)).is_err());
        let mut cfg = GeneratorConfig::new("t", 4, 2, 8);
        cfg.functions.clear();
        assert!(NetlistGenerator::new(cfg).is_err());
    }

    /// Fanin-cone size of the outputs influenced by `pick` (the
    /// sb1_smoke taint/cone scan): forward taint, affected outputs,
    /// reverse sweep. `None` when nothing or everything is affected.
    fn influence_cone(nl: &Netlist, pick: NodeId) -> Option<usize> {
        let mut tainted = vec![false; nl.len()];
        tainted[pick.index()] = true;
        for i in pick.index()..nl.len() {
            if !tainted[i] && nl.fanins(NodeId(i as u32)).any(|f| tainted[f.index()]) {
                tainted[i] = true;
            }
        }
        let affected: Vec<NodeId> = nl
            .outputs()
            .iter()
            .copied()
            .filter(|o| tainted[o.index()])
            .collect();
        if affected.is_empty() || affected.len() == nl.outputs().len() {
            return None;
        }
        let mut need = vec![false; nl.len()];
        for &o in &affected {
            need[o.index()] = true;
        }
        for i in (0..nl.len()).rev() {
            if need[i] {
                for f in nl.fanins(NodeId(i as u32)) {
                    need[f.index()] = true;
                }
            }
        }
        Some(need.iter().filter(|&&x| x).count())
    }

    #[test]
    fn local_topology_keeps_influence_cones_narrow() {
        // The superblue percolation fix: at a scale where the trailing
        // window binds, a random gate's affected-output fanin cone must
        // be a small slice under `local` and a large one under
        // `uniform` — same counts, same seed, topology is the only
        // difference. `local` also still produces valid topologically-
        // ordered DAGs with the exact configured shape.
        let base = GeneratorConfig::new("topo", 512, 256, 20_000).with_seed(3);
        let uniform = NetlistGenerator::new(base.clone()).unwrap().generate();
        let local = NetlistGenerator::new(base.with_topology(Topology::Local))
            .unwrap()
            .generate();
        for nl in [&uniform, &local] {
            nl.check().unwrap();
            assert_eq!(nl.inputs().len(), 512);
            assert_eq!(nl.outputs().len(), 256);
            assert_eq!(nl.gate_count(), 20_000);
        }

        let mean_cone = |nl: &Netlist| -> f64 {
            let picks: Vec<NodeId> = (0..16).map(|k| NodeId((512 + k * 1_117) as u32)).collect();
            let cones: Vec<usize> = picks
                .iter()
                .filter_map(|&p| influence_cone(nl, p))
                .collect();
            assert!(!cones.is_empty(), "no proper cone in {}", nl.name());
            cones.iter().sum::<usize>() as f64 / cones.len() as f64
        };
        let u = mean_cone(&uniform);
        let l = mean_cone(&local);
        assert!(
            l * 4.0 < u,
            "local cones should be ≥4× narrower: local {l:.0} vs uniform {u:.0}"
        );
    }

    #[test]
    fn topology_parse_round_trips_and_uniform_stream_is_unchanged() {
        for t in [Topology::Uniform, Topology::Local] {
            assert_eq!(Topology::parse(t.name()), Some(t));
        }
        assert_eq!(Topology::parse("placed"), None);
        // An explicit Uniform topology is the exact default object, so
        // every historical seeded netlist is reproduced bit-for-bit.
        let cfg = GeneratorConfig::new("t", 8, 4, 60).with_seed(9);
        assert_eq!(cfg.clone().with_topology(Topology::Uniform), cfg);
    }

    #[test]
    fn generated_netlists_evaluate() {
        let nl = NetlistGenerator::new(GeneratorConfig::new("t", 10, 5, 100).with_seed(11))
            .unwrap()
            .generate();
        let zeros = vec![false; 10];
        let ones = vec![true; 10];
        assert_eq!(nl.evaluate(&zeros).len(), 5);
        assert_eq!(nl.evaluate(&ones).len(), 5);
    }
}
