//! Device-physics walkthrough: switching dynamics, delay distributions and
//! the read-out operating point (Figs. 3-4, Tables I-II).
//!
//! Run with `cargo run --release --example device_characterization`.

use spin_hall_security::device::readout::ReadoutCircuit;
use spin_hall_security::device::{
    DelayHistogram, GsheSwitch, MonteCarlo, MonteCarloConfig, SwitchParams,
};

fn main() {
    let params = SwitchParams::table_i();
    println!("GSHE switch, Table I parameters:");
    println!(
        "  G_P = {:.0} uS, G_AP = {:.1} uS, beta = {}, r = {:.0} Ohm",
        params.g_parallel() * 1e6,
        params.g_antiparallel() * 1e6,
        params.beta(),
        params.heavy_metal.resistance()
    );

    // A single deterministic write.
    let mut sw = GsheSwitch::new(params);
    let out = sw.write_deterministic(20e-6, true);
    println!(
        "\nsingle write at I_S = 20 uA: switched = {}, delay = {:.2} ns",
        out.switched,
        out.delay * 1e9
    );
    println!(
        "  W-NM state = {}, R-NM state = {} (anti-parallel pair)",
        sw.write_state(),
        sw.read_state()
    );

    // Fig. 4 in miniature.
    let mc = MonteCarlo::new(MonteCarloConfig {
        params,
        samples: 400,
        seed: 9,
    });
    println!("\nswitching-delay distributions (400 thermal samples each):");
    for i_s in [20e-6, 60e-6, 100e-6] {
        let h = DelayHistogram::from_samples(&mc.run(i_s), 30, 6e-9);
        println!(
            "  I_S = {:>3.0} uA: mean {:.2} ns, std {:.2} ns, p95 {:.2} ns",
            i_s * 1e6,
            h.mean * 1e9,
            h.std_dev * 1e9,
            h.quantile(0.95) * 1e9
        );
    }

    // Read-out operating point (Table II row).
    let circuit = ReadoutCircuit::new(&params);
    let pt = circuit.operating_point(20e-6);
    println!("\nread-out at I_S = 20 uA:");
    println!(
        "  V_SUP = {:.2} mV, V_OUT = {:.2} mV, I_OUT = {:.2} uA",
        pt.v_sup * 1e3,
        pt.v_out * 1e3,
        pt.i_out * 1e6
    );
    println!(
        "  P = {:.4} uW, E(1.55 ns) = {:.2} fJ  (paper: 0.2125 uW, 0.33 fJ)",
        pt.power * 1e6,
        pt.power * 1.55e-9 * 1e15
    );
}
