//! Quickstart: generate a random P4 program, compile it with the reference
//! nanopass compiler, and translation-validate every pass.
//!
//! Run with `cargo run --example quickstart [seed]`.

use gauntlet_core::{Gauntlet, GauntletOptions};
use p4_gen::{GeneratorConfig, RandomProgramGenerator};
use p4_ir::print_program;
use p4c::Compiler;

fn main() {
    let seed: u64 = std::env::args()
        .nth(1)
        .and_then(|s| s.parse().ok())
        .unwrap_or(2020);

    // 1. Random program generation (paper §4).
    let mut generator = RandomProgramGenerator::new(GeneratorConfig::default(), seed);
    let program = generator.generate();
    println!("=== generated program (seed {seed}) ===");
    println!("{}", print_program(&program));

    // 2. Compile with the reference front/mid end, capturing the program
    //    after every modifying pass (the p4test behaviour).
    let compiler = Compiler::reference();
    let result = match compiler.compile(&program) {
        Ok(result) => result,
        Err(error) => {
            println!("compiler error: {error}");
            std::process::exit(1);
        }
    };
    println!("=== compilation ===");
    println!("passes that modified the program:");
    for snapshot in result.snapshots.iter().skip(1) {
        println!(
            "  [{:>2}] {} ({})",
            snapshot.pass_index, snapshot.pass_name, snapshot.area
        );
    }
    let unchanged: Vec<String> = compiler
        .pass_names()
        .into_iter()
        .enumerate()
        .filter(|(index, _)| !result.snapshots.iter().any(|s| s.pass_index == index + 1))
        .map(|(_, name)| name)
        .collect();
    println!("passes with no effect: {}", unchanged.join(", "));

    // 3. Translation validation (paper §5): compare consecutive snapshots.
    let gauntlet = Gauntlet::new(GauntletOptions::default());
    let reports = gauntlet.validate_translation(&result);
    println!("=== translation validation ===");
    if reports.is_empty() {
        println!(
            "all {} pass transitions verified equivalent",
            result.snapshots.len().saturating_sub(1)
        );
    } else {
        for report in &reports {
            println!(
                "bug in pass {:?} ({:?}):\n{}",
                report.pass, report.kind, report.message
            );
        }
    }
}
