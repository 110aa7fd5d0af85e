//! Regenerates **Table II**: comparison of emerging-device security
//! primitives. Literature rows are constants; the "This work" row is
//! computed live from the device model — power/energy from the read-out
//! circuit, delay from an sLLGS Monte Carlo run.

use gshe_bench::HarnessArgs;
use gshe_core::device::characterize::{
    format_metrics_row, measured_mean_delay, this_work_metrics, EMERGING_DEVICE_TABLE,
    NOMINAL_DELAY,
};
use gshe_core::device::SwitchParams;

fn main() {
    let args = HarnessArgs::parse(&["--samples", "--seed"]);
    let params = SwitchParams::table_i();
    let samples = args.samples.min(4000);
    let measured = measured_mean_delay(&params, 20e-6, samples, args.seed);

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
