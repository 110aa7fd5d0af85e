//! Chip-level protection flows (Secs. IV and V-A).

use gshe_camo::{
    camouflage_with_report, select_gates, CamoError, CamoReport, CamoScheme, KeyedNetlist,
};
use gshe_logic::{Netlist, NodeId};
use gshe_timing::{delay_aware_replace, DelayModel, HybridResult};
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::sync::Arc;

/// How the secret configuration is provisioned against an untrusted fab
/// (Sec. IV).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum Provisioning {
    /// Option (a): split manufacturing — control/ferromagnet wires routed
    /// (at least partially) in a BEOL made by a separate, trusted fab \[32\].
    SplitManufacturing,
    /// Option (b): a tamper-proof memory holds the key; the IP holder loads
    /// it only after fabrication.
    #[default]
    TamperProofMemory,
}

impl Provisioning {
    /// Human-readable summary of the trust assumption.
    pub const fn description(self) -> &'static str {
        match self {
            Provisioning::SplitManufacturing => {
                "control wires routed through a trusted BEOL fab (split manufacturing)"
            }
            Provisioning::TamperProofMemory => {
                "key loaded post-fabrication into tamper-proof memory"
            }
        }
    }
}

/// A protected design: the keyed netlist plus flow metadata.
#[derive(Debug, Clone)]
pub struct Protected {
    /// The camouflaged/locked design.
    pub keyed: KeyedNetlist,
    /// Transform statistics.
    pub report: CamoReport,
    /// The memorized gate selection.
    pub selection: Vec<NodeId>,
    /// Provisioning option.
    pub provisioning: Provisioning,
}

/// Protects `fraction` of all gates with the GSHE all-16 primitive
/// (the paper's headline flow; Table IV "Our" column).
///
/// # Errors
///
/// Propagates [`CamoError`]s from the transform (cannot occur for the
/// all-16 scheme on gate picks, but the signature stays honest).
pub fn protect(netlist: &Netlist, fraction: f64, seed: u64) -> Result<Protected, CamoError> {
    let selection = select_gates(netlist, fraction, seed);
    let mut rng = StdRng::seed_from_u64(seed);
    let design = Arc::new(netlist.clone());
    let (keyed, report) =
        camouflage_with_report(&design, &selection, CamoScheme::GsheAll16, &mut rng)?;
    Ok(Protected {
        keyed,
        report,
        selection,
        provisioning: Provisioning::default(),
    })
}

/// The delay-aware hybrid flow (Sec. V-A): replace CMOS gates on
/// non-critical paths with GSHE primitives at **zero delay overhead**, then
/// camouflage exactly those gates.
///
/// # Errors
///
/// Propagates [`CamoError`]s from the transform.
pub fn protect_delay_aware(
    netlist: &Netlist,
    model: &DelayModel,
    seed: u64,
) -> Result<(Protected, HybridResult), CamoError> {
    let hybrid = delay_aware_replace(netlist, model, 0.0);
    let mut rng = StdRng::seed_from_u64(seed);
    let design = Arc::new(netlist.clone());
    let (keyed, report) =
        camouflage_with_report(&design, &hybrid.gshe_gates, CamoScheme::GsheAll16, &mut rng)?;
    let protected = Protected {
        keyed,
        report,
        selection: hybrid.gshe_gates.clone(),
        provisioning: Provisioning::SplitManufacturing,
    };
    Ok((protected, hybrid))
}

#[cfg(test)]
mod tests {
    use super::*;
    use gshe_logic::sim::random_equivalence_check;
    use gshe_logic::{GeneratorConfig, NetlistGenerator};

    fn sample(gates: usize, bias: f64) -> Netlist {
        NetlistGenerator::new(
            GeneratorConfig::new("t", 16, 8, gates)
                .with_seed(5)
                .with_chain_bias(bias),
        )
        .unwrap()
        .generate()
    }

    #[test]
    fn protect_preserves_function_under_correct_key() {
        let nl = sample(200, 0.1);
        let p = protect(&nl, 0.3, 42).unwrap();
        assert_eq!(p.report.protected(), p.selection.len());
        assert_eq!(p.keyed.key_len(), 4 * p.selection.len());
        let resolved = p.keyed.resolve(&p.keyed.correct_key()).unwrap();
        let mut rng = StdRng::seed_from_u64(1);
        assert_eq!(
            random_equivalence_check(&nl, &resolved, 6, &mut rng).unwrap(),
            None
        );
    }

    #[test]
    fn all16_flow_never_adds_gates() {
        // The all-16 set absorbs every function in place: layout-neutral.
        let nl = sample(150, 0.1);
        let p = protect(&nl, 0.5, 7).unwrap();
        assert_eq!(p.report.extra_gates, 0);
        assert_eq!(p.keyed.netlist().gate_count(), nl.gate_count());
    }

    #[test]
    fn delay_aware_flow_is_zero_overhead_and_protects_gates() {
        let nl = sample(1500, 0.35);
        let model = DelayModel::cmos_45nm();
        let (p, hybrid) = protect_delay_aware(&nl, &model, 9).unwrap();
        assert!(hybrid.hybrid_critical <= hybrid.baseline_critical + 1e-15);
        assert_eq!(p.selection.len(), hybrid.gshe_gates.len());
        assert!(p.report.protected() > 0, "hybrid flow protected nothing");
        assert_eq!(p.provisioning, Provisioning::SplitManufacturing);
        // Function preserved.
        let resolved = p.keyed.resolve(&p.keyed.correct_key()).unwrap();
        let mut rng = StdRng::seed_from_u64(2);
        assert_eq!(
            random_equivalence_check(&nl, &resolved, 4, &mut rng).unwrap(),
            None
        );
    }

    #[test]
    fn provisioning_descriptions_are_distinct() {
        assert_ne!(
            Provisioning::SplitManufacturing.description(),
            Provisioning::TamperProofMemory.description()
        );
    }
}
