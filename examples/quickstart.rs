//! Quickstart: the GSHE polymorphic primitive in five minutes.
//!
//! Run with `cargo run --release --example quickstart`.

use spin_hall_security::prelude::*;
use spin_hall_security::GsheConfig;

fn main() {
    // 1. One physical device, sixteen functions. The primitive is
    //    reconfigured purely through terminal assignments — the layout
    //    never changes, which is what defeats optical reverse engineering.
    let mut primitive = GshePrimitive::new(GsheConfig::for_function(Bf2::NAND));
    println!("loaded function: {}", primitive.behavioral());
    println!(
        "NAND(1,1) through the device physics = {}",
        primitive.evaluate_device(true, true)
    );

    primitive.set_function(Bf2::XOR);
    println!("reconfigured at runtime to {}", primitive.behavioral());
    println!("XOR(1,0) = {}", primitive.evaluate_device(true, false));

    // 2. Protect a design: camouflage 30% of a small netlist with the
    //    all-16 primitive.
    let mut b = NetlistBuilder::new("demo");
    let x = b.input("x");
    let y = b.input("y");
    let z = b.input("z");
    let g1 = b.gate2("g1", Bf2::AND, x, y);
    let g2 = b.gate2("g2", Bf2::XOR, g1, z);
    let g3 = b.gate2("g3", Bf2::NOR, g1, g2);
    b.output(g2);
    b.output(g3);
    let design = b.finish().expect("valid netlist");

    let protected = spin_hall_security::protect(&design, 1.0, 42).expect("camouflage");
    println!(
        "\nprotected {} gates with {} key bits ({})",
        protected.report.protected(),
        protected.keyed.key_len(),
        protected.provisioning.description()
    );

    // 3. The correct key restores the design; a wrong key breaks it.
    let correct = protected.keyed.correct_key();
    let good = protected
        .keyed
        .evaluate_with_key(&[true, true, false], &correct)
        .unwrap();
    println!(
        "with the correct key : {:?} (original: {:?})",
        good,
        design.evaluate(&[true, true, false])
    );
    let wrong: Vec<bool> = correct.iter().map(|&b| !b).collect();
    let bad = protected
        .keyed
        .evaluate_with_key(&[true, true, false], &wrong)
        .unwrap();
    println!("with a wrong key     : {bad:?}");

    // 4. And the SAT attacker's view of the problem.
    let mut oracle = OracleStack::exact(&design);
    let outcome = sat_attack(
        &protected.keyed,
        &mut oracle,
        &AttackConfig::with_timeout_secs(10),
    );
    println!(
        "\nSAT attack on this toy design: {:?} after {} DIPs ({} oracle queries)",
        outcome.status, outcome.iterations, outcome.queries
    );
    println!("(tiny circuits always fall — see table4/exp_hybrid for the real story)");
}
