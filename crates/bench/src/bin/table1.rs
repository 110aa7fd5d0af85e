//! Regenerates **Table I**: material parameters of the GSHE switch,
//! including the derived electrical quantities the paper lists.

use gshe_bench::HarnessArgs;
use gshe_core::device::SwitchParams;

fn main() {
    HarnessArgs::parse(&[]);
    let p = SwitchParams::table_i();
    let w = &p.write;
    let r = &p.read;
    let hm = &p.heavy_metal;

    println!("TABLE I — MATERIAL PARAMETERS OF THE GSHE SWITCH");
    println!("{:-<78}", "");
    let rows: Vec<(String, String)> = vec![
        (
            "Volume of nanomagnets (NM)".into(),
            format!(
                "({:.0} x {:.0} x {:.0}) nm^3",
                w.length * 1e9,
                w.width * 1e9,
                w.thickness * 1e9
            ),
        ),
        (
            "Saturation magnetization Ms of NM".into(),
            format!("{:.0e} A/m (W-NM), {:.0e} A/m (R-NM)", w.ms, r.ms),
        ),
        (
            "Uniaxial energy density Ku of NM".into(),
            format!("{:.1e} J/m^3 (W-NM), {:.0e} J/m^3 (R-NM)", w.ku, r.ku),
        ),
        ("Spin current IS, determ. switching".into(), "20 uA".into()),
        (
            "Resistance area product RAP".into(),
            format!("{:.0} Ohm um^2", p.rap * 1e12),
        ),
        (
            "Tunneling magnetoresistance TMR".into(),
            format!("{:.0}%", p.tmr * 100.0),
        ),
        (
            "Parallel conductance GP".into(),
            format!("{:.0} uS", p.g_parallel() * 1e6),
        ),
        (
            "Anti-parallel conductance GAP".into(),
            format!("{:.1} uS", p.g_antiparallel() * 1e6),
        ),
        (
            "Resistivity of heavy metal (HM) rho".into(),
            format!("{:.1e} Ohm-m", hm.resistivity),
        ),
        (
            "Spin-Hall angle thetaSH of HM".into(),
            format!("{}", hm.spin_hall_angle),
        ),
        (
            "Thickness tHM of HM".into(),
            format!("{:.0} nm", hm.thickness * 1e9),
        ),
        (
            "Internal gain beta of HM".into(),
            format!(
                "thetaSH x (wNM/tHM) = {} x {} = {}",
                hm.spin_hall_angle,
                (w.width / hm.thickness).round() as i64,
                p.beta()
            ),
        ),
        (
            "Resistance r of HM".into(),
            format!("~ {:.0} kOhm", hm.resistance() / 1e3),
        ),
    ];
    for (k, v) in rows {
        println!("{k:<42} {v}");
    }
    println!("{:-<78}", "");
    println!(
        "derived: layout area = {:.4} um^2 (paper: 0.0016 um^2)",
        p.layout_area() * 1e12
    );
    println!(
        "derived: thermal stability  W-NM delta = {:.2} kT, R-NM delta = {:.2} kT (300 K)",
        w.thermal_stability(300.0),
        r.thermal_stability(300.0)
    );
}
