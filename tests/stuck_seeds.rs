//! Seeds that once never reached a verdict, each pinned to the verdict it
//! reaches now.
//!
//! Reference seeds 882 and 2561 and `DefUseDropsParameterWrites` seed 340
//! used to hang in translation validation, and seed 74 took ~5 s: the
//! session solvers searched with their VSIDS activity increment left at
//! zero, so the decision heuristic never learned from conflicts.  With the
//! solver constructed correctly each seed decides in a fraction of a
//! second; a regression in the SAT core shows up here as a hang.

use gauntlet_core::{HuntConfig, HuntReport, ParallelCampaign, SeededBug};
use p4c::FrontEndBugClass;

/// A one-seed, one-worker hunt of `seed` against the compiler `factory`
/// builds.
fn hunt_one(seed: u64, factory: impl Fn() -> p4c::Compiler + Send + Sync) -> HuntReport {
    ParallelCampaign::new(HuntConfig {
        jobs: 1,
        seed_start: seed,
        seed_count: 1,
        ..HuntConfig::default()
    })
    .run(factory)
}

fn defuse_compiler() -> p4c::Compiler {
    SeededBug::FrontEnd(FrontEndBugClass::DefUseDropsParameterWrites).build_compiler()
}

/// The dedup keys of every finding, in report order.
fn keys(report: &HuntReport) -> Vec<String> {
    report
        .outcomes
        .iter()
        .flat_map(|outcome| outcome.reports.iter().map(|report| report.dedup_key()))
        .collect()
}

#[test]
fn reference_seeds_882_and_2561_are_clean() {
    for seed in [882, 2561] {
        let report = hunt_one(seed, p4c::Compiler::reference);
        assert_eq!(report.programs_checked, 1, "seed {seed}");
        assert_eq!(keys(&report), Vec::<String>::new(), "seed {seed}");
    }
}

#[test]
fn defuse_seed_340_reports_its_one_finding() {
    let report = hunt_one(340, defuse_compiler);
    assert_eq!(report.programs_checked, 1);
    assert_eq!(
        keys(&report),
        ["Semantic|P4c|SimplifyDefUse|semantic difference in block `ingress`:"]
    );
}

#[test]
fn defuse_seed_74_is_clean() {
    let report = hunt_one(74, defuse_compiler);
    assert_eq!(report.programs_checked, 1);
    assert_eq!(keys(&report), Vec::<String>::new());
}
