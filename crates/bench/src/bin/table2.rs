//! Regenerates **Table II**: comparison of emerging-device security
//! primitives. Literature rows are constants; the "This work" row is
//! computed live from the device model — power/energy from the read-out
//! circuit, delay from an sLLGS Monte Carlo run as a campaign device job.

use gshe_bench::{fail, HarnessArgs};
use gshe_core::campaign::{Campaign, CampaignSpec, JobKind, JobSpec};
use gshe_core::device::characterize::{
    format_metrics_row, this_work_metrics, EMERGING_DEVICE_TABLE, NOMINAL_DELAY,
};
use gshe_core::device::SwitchParams;

fn main() {
    let args = HarnessArgs::parse();
    let params = SwitchParams::table_i();
    let samples = args.samples.min(4000);

    // One Monte Carlo delay measurement, run through the campaign engine
    // (same sample seeding as a standalone `measured_mean_delay` call).
    let jobs = vec![JobSpec {
        kind: JobKind::DeviceDelay {
            i_s: 20e-6,
            samples,
            seed: args.seed,
        },
        timeout: args.timeout,
    }];
    let spec = CampaignSpec {
        name: "table2".to_string(),
        seed: args.seed,
        threads: args.threads,
        ..Default::default()
    };
    let report = Campaign::run_jobs(&spec, jobs).unwrap_or_else(|e| fail(&e));
    let measured = report.device[0].value;

    println!("TABLE II — COMPARISON OF SELECTED EMERGING-DEVICE PRIMITIVES");
    println!(
        "{:<10} {:<36} {:>2}  {:>12}  {:>12}  {:>10}",
        "Publ.", "Primitive", "#F", "Energy", "Power", "Delay"
    );
    println!("{:-<92}", "");
    for row in EMERGING_DEVICE_TABLE {
        println!("{}", format_metrics_row(row));
    }
    let nominal = this_work_metrics(&params, NOMINAL_DELAY);
    println!("{}   (paper row)", format_metrics_row(&nominal));

    let ours = this_work_metrics(&params, measured);
    println!(
        "{}   (measured, {} MC samples)",
        format_metrics_row(&ours),
        samples
    );
    println!("{:-<92}", "");
    println!(
        "shape check: ours cloaks {}x the functions of the best prior primitive \
         at the lowest reported power",
        ours.functions
            / EMERGING_DEVICE_TABLE
                .iter()
                .map(|m| m.functions)
                .max()
                .unwrap_or(1)
    );
}
