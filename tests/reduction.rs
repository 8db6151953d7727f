//! Integration tests for the reduction subsystem wired through the
//! campaign engine — the acceptance contract of the `p4-reduce` PR:
//! on a seeded-bug hunt every committed finding carries a minimized
//! reproducer that (a) reproduces the same dedup key through its oracle,
//! (b) is at most 40% of the original program's statement count on median,
//! and (c) is byte-identical across `--jobs` settings.

use gauntlet_core::{
    Gauntlet, HuntConfig, HuntReport, MetamorphicOptions, ParallelCampaign, Platform, SeededBug,
};
use p4_gen::RandomProgramGenerator;
use p4_reduce::statement_count;

fn seeded_semantic_bug() -> SeededBug {
    SeededBug::catalogue()
        .into_iter()
        .find(|b| b.platform() == Platform::P4c && !b.is_crash_class())
        .expect("catalogue has a P4C semantic bug")
}

mod common;
use common::full_acceptance;

#[test]
fn seeded_hunt_reduces_every_report() {
    let full = full_acceptance();
    let bug = seeded_semantic_bug();
    let base = HuntConfig {
        seed_count: if full { 50 } else { 10 },
        reduce_reports: true,
        ..HuntConfig::default()
    };

    let sequential = ParallelCampaign::new(HuntConfig {
        jobs: 1,
        ..base.clone()
    })
    .run(|| bug.build_compiler());
    assert!(
        sequential.total_bugs > 0,
        "the seeded bug must fire somewhere in {} programs",
        base.seed_count
    );
    assert_eq!(
        sequential.reduction_failures, 0,
        "every finding's oracle must reproduce its dedup key"
    );

    // (c) Byte-identical reports (including minimized sources and stats)
    // across thread counts.
    let parallel = ParallelCampaign::new(HuntConfig {
        jobs: 8,
        ..base.clone()
    })
    .run(|| bug.build_compiler());
    assert_eq!(sequential.render(), parallel.render());
    for (a, b) in sequential.outcomes.iter().zip(parallel.outcomes.iter()) {
        assert_eq!(a.seed, b.seed);
        for (ra, rb) in a.reports.iter().zip(b.reports.iter()) {
            assert_eq!(ra.minimized, rb.minimized, "seed {}", a.seed);
            assert_eq!(ra.reduction, rb.reduction, "seed {}", a.seed);
        }
    }

    let mut ratios: Vec<f64> = Vec::new();
    for outcome in &sequential.outcomes {
        let original = RandomProgramGenerator::new(base.generator.clone(), outcome.seed).generate();
        let original_statements = statement_count(&original);
        for report in &outcome.reports {
            // Every committed finding carries a minimized reproducer.
            let minimized_src = report
                .minimized
                .as_deref()
                .unwrap_or_else(|| panic!("seed {}: report not reduced", outcome.seed));
            let stats = report
                .reduction
                .expect("stats accompany the minimized source");
            assert_eq!(
                stats.initial_statements, original_statements,
                "seed {}",
                outcome.seed
            );

            // (a) The minimized source re-parses, typechecks, and
            // reproduces the identical dedup key through its oracle.
            let minimized = p4_parser::parse_program(minimized_src)
                .unwrap_or_else(|e| panic!("seed {}: minimized does not parse: {e}", outcome.seed));
            assert!(
                p4_check::check_program(&minimized).is_empty(),
                "seed {}: minimized reproducer is ill-typed",
                outcome.seed
            );
            assert_eq!(statement_count(&minimized), stats.final_statements);
            let mut oracle = Gauntlet::open_compiler_oracle(report, bug.build_compiler());
            assert!(
                oracle.reproduces(&minimized, &report.dedup_key()),
                "seed {}: minimized reproducer lost the bug `{}`",
                outcome.seed,
                report.dedup_key()
            );

            ratios.push(stats.final_statements as f64 / stats.initial_statements.max(1) as f64);
        }
    }

    // (b) Median size at most 40% of the original statement count — the
    // CI-enforced threshold, judged only at the full 50-seed budget (the
    // smoke sample is too small for a stable median).
    ratios.sort_by(|a, b| a.partial_cmp(b).expect("finite ratios"));
    let median = ratios[ratios.len() / 2];
    if full {
        assert!(
            median <= 0.40,
            "median reduced size {:.0}% exceeds the 40% bound (ratios: {ratios:?})",
            median * 100.0
        );
    }
}

/// A reducing hunt over a crash-class bug: every crash finding carries a
/// minimized program that reproduces its dedup key through the
/// open-compiler oracle.
#[test]
fn seeded_crash_hunt_reduces_every_report() {
    let bug = SeededBug::FrontEnd(p4c::FrontEndBugClass::InlineCrashOnConditional);
    let hunt = ParallelCampaign::new(HuntConfig {
        jobs: 2,
        seed_count: 200,
        reduce_reports: true,
        ..HuntConfig::default()
    })
    .run(|| bug.build_compiler());
    assert!(hunt.total_bugs > 0, "the seeded crash must fire");
    assert_eq!(hunt.reduction_failures, 0);
    for outcome in &hunt.outcomes {
        for report in &outcome.reports {
            assert!(report.kind.is_crash_like(), "seed {}", outcome.seed);
            let minimized = report
                .minimized
                .as_deref()
                .unwrap_or_else(|| panic!("seed {}: report not reduced", outcome.seed));
            let minimized = p4_parser::parse_program(minimized)
                .unwrap_or_else(|e| panic!("seed {}: minimized does not parse: {e}", outcome.seed));
            let mut oracle = Gauntlet::open_compiler_oracle(report, bug.build_compiler());
            assert!(
                oracle.reproduces(&minimized, &report.dedup_key()),
                "seed {}: minimized reproducer lost `{}`",
                outcome.seed,
                report.dedup_key()
            );
        }
    }
}

/// Reduction with the symbolic-execution (black-box) oracle: a padded BMv2
/// trigger shrinks while the STF replay keeps failing identically.
#[test]
fn testgen_oracle_reduces_a_backend_trigger() {
    use p4_ir::{builder, Block, Expr, Statement};
    let bug = SeededBug::catalogue()
        .into_iter()
        .find(|b| b.platform() == Platform::Bmv2)
        .expect("catalogue has a BMv2 bug");

    // The exit-ignored trigger padded with irrelevant metadata writes.
    let mut statements = vec![
        Statement::assign(Expr::dotted(&["meta", "flag"]), Expr::uint(3, 8)),
        Statement::assign(Expr::dotted(&["meta", "tmp"]), Expr::uint(9, 16)),
    ];
    statements.extend(
        bug.trigger_program()
            .control("ingress_impl")
            .expect("skeleton ingress")
            .apply
            .statements
            .clone(),
    );
    let program = builder::v1model_program(vec![], Block::new(statements));

    let gauntlet = Gauntlet::default();
    let reports = bug.detect(&gauntlet, &program);
    assert!(
        !reports.is_empty(),
        "padded trigger must still expose the bug"
    );
    let mut report = reports[0].clone();
    let target = report.dedup_key();

    let mut oracle = bug.oracle(gauntlet.options.max_tests);
    assert!(gauntlet.reduce_report(&mut *oracle, &program, &mut report));
    let stats = report.reduction.expect("stats attached");
    assert!(
        stats.final_statements < stats.initial_statements,
        "the padding should reduce away: {stats:?}"
    );
    let minimized = p4_parser::parse_program(report.minimized.as_deref().expect("minimized"))
        .expect("minimized parses");
    assert!(oracle.reproduces(&minimized, &target));
}

/// FNV-1a (64-bit) over `bytes`.
fn fnv1a(bytes: &[u8]) -> u64 {
    bytes.iter().fold(0xcbf2_9ce4_8422_2325, |hash, &byte| {
        (hash ^ u64::from(byte)).wrapping_mul(0x0000_0100_0000_01b3)
    })
}

/// The bytes a reduction pin fingerprints: the rendered report plus every
/// report's full message (counterexample included), minimized source and
/// reduction stats.
fn reduction_bytes(hunt: &HuntReport) -> String {
    assert!(hunt.total_bugs > 0, "the seeded bug must fire");
    assert_eq!(hunt.reduction_failures, 0);
    let mut bytes = hunt.render();
    for outcome in &hunt.outcomes {
        for report in &outcome.reports {
            let minimized = report.minimized.as_deref().expect("every report reduced");
            bytes.push_str(&format!(
                "seed {}\n{}\n{minimized}\n{:?}\n",
                outcome.seed, report.message, report.reduction
            ));
        }
    }
    bytes
}

/// A one-worker reducing hunt of `seed_count` seeds against `bug`.
fn reducing_hunt(
    bug: SeededBug,
    seed_count: usize,
    mutation: Option<MetamorphicOptions>,
) -> HuntReport {
    ParallelCampaign::new(HuntConfig {
        jobs: 1,
        seed_count,
        reduce_reports: true,
        mutation,
        ..HuntConfig::default()
    })
    .run(|| bug.build_compiler())
}

fn assert_pinned(bytes: &str, fingerprint: &str) {
    assert_eq!(
        format!("{:016x}", fnv1a(bytes.as_bytes())),
        fingerprint,
        "reduction output changed:\n{bytes}"
    );
}

/// Golden reduction bytes: a small reducing hunt, pinned as one FNV-1a
/// fingerprint over [`reduction_bytes`].  Any change to what the reducer
/// accepts, to the order it tries candidates in, or to the counterexamples
/// the oracle reports moves the fingerprint; a pure speed-up of the
/// reduction oracle must leave it untouched.
#[test]
fn reducing_hunt_bytes_are_pinned() {
    let bug = SeededBug::FrontEnd(p4c::FrontEndBugClass::DefUseDropsParameterWrites);
    let hunt = reducing_hunt(bug, 30, None);
    assert_pinned(&reduction_bytes(&hunt), "1e272668bf867de8");
}

/// Golden reduction bytes of a crash-class hunt, whose findings reduce
/// through the crash oracle: declaration, structure and statement pruning
/// around a crashing function body.
#[test]
fn reducing_crash_hunt_bytes_are_pinned() {
    let bug = SeededBug::FrontEnd(p4c::FrontEndBugClass::InlineCrashOnConditional);
    let hunt = reducing_hunt(bug, 100, None);
    assert_pinned(&reduction_bytes(&hunt), "935e4bfe1a35afb3");
}

/// Golden reduction bytes of a mutation-origin hunt: a driver defect only
/// the metamorphic oracle convicts, so every finding reduces through it.
#[test]
fn reducing_mutation_hunt_bytes_are_pinned() {
    let bug = SeededBug::Driver(p4c::DriverBugClass::SnapshotDropsFinalWrite);
    let mutation = MetamorphicOptions {
        mutants_per_seed: 3,
    };
    let hunt = reducing_hunt(bug, 40, Some(mutation));
    assert_pinned(&reduction_bytes(&hunt), "f062426408836122");
}

/// The crash oracle compiles without per-pass snapshots, which it never
/// reads; it reproduces every finding of a snapshotting compile.
#[test]
fn crash_oracle_signatures_do_not_need_snapshots() {
    let bug = SeededBug::FrontEnd(p4c::FrontEndBugClass::TypeInferenceShiftCrash);
    let program = bug.trigger_program();
    let snapshotting = Gauntlet::default()
        .check_open_compiler(&bug.build_compiler(), &program)
        .reports;
    assert!(
        snapshotting
            .iter()
            .any(|report| report.dedup_key().starts_with("Crash|P4c|")),
        "the trigger must crash: {snapshotting:?}"
    );
    for report in &snapshotting {
        let mut oracle = Gauntlet::open_compiler_oracle(report, bug.build_compiler());
        assert!(oracle.reproduces(&program, &report.dedup_key()));
    }
}
