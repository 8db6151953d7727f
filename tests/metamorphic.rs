//! Acceptance tests for the metamorphic mutation oracle (`p4-mutate`):
//! a seeded miscompilation applied identically to every per-pass snapshot
//! is *provably invisible* to plain translation validation, yet a seeded
//! campaign with `HuntConfig::mutation` enabled detects it — and the whole
//! mutation dimension obeys the engine's byte-identical-across-`--jobs`
//! determinism contract.

use gauntlet_core::{
    BugKind, CoverageOptions, Gauntlet, HuntConfig, HuntReport, MetamorphicChecker,
    MetamorphicOptions, ParallelCampaign, SessionStats, CAMPAIGN_MUTATION_SEED,
};
use p4c::{Compiler, DriverBugClass};

/// A compiler whose driver silently drops the final ingress write *before*
/// the first snapshot: every snapshot pair is self-consistent, so per-pass
/// translation validation cannot see the lost write.
fn corrupted_compiler() -> Compiler {
    let mut compiler = Compiler::reference();
    compiler.seed_input_corruption(DriverBugClass::SnapshotDropsFinalWrite);
    compiler
}

fn mutation_hunt(jobs: usize, seeds: usize) -> HuntReport {
    ParallelCampaign::new(HuntConfig {
        jobs,
        seed_start: 0,
        seed_count: seeds,
        mutation: Some(MetamorphicOptions::default()),
        ..HuntConfig::default()
    })
    .run(corrupted_compiler)
}

/// The headline claim: translation validation misses the pre-snapshot
/// corruption on every one of the hunt's programs, while the metamorphic
/// campaign over the same seed range convicts it.
#[test]
fn mutation_campaign_detects_what_translation_validation_provably_misses() {
    const SEEDS: usize = 20;

    // (1) Plain hunt (no mutation): silent — the corruption is applied
    // identically to every snapshot, so the pass chain validates clean.
    let blind = ParallelCampaign::new(HuntConfig {
        jobs: 2,
        seed_start: 0,
        seed_count: SEEDS,
        ..HuntConfig::default()
    })
    .run(corrupted_compiler);
    let real: Vec<_> = blind
        .outcomes
        .iter()
        .flat_map(|o| &o.reports)
        .filter(|r| !matches!(r.kind, BugKind::InvalidTransformation))
        .collect();
    assert!(
        real.is_empty(),
        "translation validation should be blind to pre-snapshot corruption: {real:#?}"
    );

    // (2) The same seed range with the metamorphic oracle enabled: caught.
    let hunt = mutation_hunt(2, SEEDS);
    let summary = hunt.mutation.clone().expect("mutation block present");
    assert!(summary.mutants_checked > 0);
    assert!(
        summary.divergent > 0,
        "no metamorphic divergence in {} mutants:\n{}",
        summary.mutants_checked,
        hunt.render()
    );
    let divergences: Vec<_> = hunt
        .outcomes
        .iter()
        .flat_map(|o| &o.reports)
        .filter(|r| r.kind == BugKind::Metamorphic)
        .collect();
    assert_eq!(divergences.len(), summary.divergent);
    for report in &divergences {
        assert!(
            report.message.starts_with("mutation chain `"),
            "{}",
            report.message
        );
    }

    // (3) Mutation coverage is reportable, mirroring pass-rule coverage.
    assert!(summary.rules_fired() > 0);
    assert_eq!(summary.rules_total, 10);
    let rendered = hunt.render();
    assert!(rendered.contains("mutator rules applied"), "{rendered}");
    let table2 = gauntlet_core::render_table2(&hunt.campaign_summary());
    assert!(table2.contains("mutator rules applied"), "{table2}");
}

/// Determinism: mutant derivation is a pure function of the seed and all
/// findings commit at the ordered-commit point, so the rendered report is
/// byte-identical at `--jobs 1` and `--jobs 4`.
#[test]
fn mutation_hunt_is_byte_identical_across_jobs() {
    let sequential = mutation_hunt(1, 16);
    let parallel = mutation_hunt(4, 16);
    assert_eq!(sequential.render(), parallel.render());
    assert_eq!(sequential.mutation, parallel.mutation);
    assert!(sequential.total_bugs > 0, "{}", sequential.render());
}

/// The false-alarm discipline extends to the new oracle: a mutation hunt
/// over the *reference* compiler proves every mutant equivalent.
#[test]
fn mutation_hunt_on_the_reference_compiler_finds_nothing() {
    let report = ParallelCampaign::new(HuntConfig {
        jobs: 2,
        seed_start: 100,
        seed_count: 10,
        mutation: Some(MetamorphicOptions::default()),
        ..HuntConfig::default()
    })
    .run(Compiler::reference);
    let metamorphic: Vec<_> = report
        .outcomes
        .iter()
        .flat_map(|o| &o.reports)
        .filter(|r| r.kind == BugKind::Metamorphic)
        .collect();
    assert!(
        metamorphic.is_empty(),
        "metamorphic false alarms on the reference compiler: {metamorphic:#?}"
    );
    let summary = report.mutation.expect("mutation block present");
    assert!(summary.mutants_checked > 0);
    assert_eq!(summary.divergent, 0);
}

/// A pass that crashes on the opaque locals only mutants contain — so the
/// crash can *never* reproduce on the unmutated seed program, and reduction
/// must route through the metamorphic oracle (which replays the mutant
/// family) rather than the plain crash oracle.
struct OpaquePanic;

impl p4c::Pass for OpaquePanic {
    fn name(&self) -> &str {
        "OpaquePanic"
    }

    fn run(&self, program: &mut p4_ir::Program) -> Result<(), p4c::Diagnostic> {
        for control in program.controls() {
            p4_ir::for_each_statement_list(&control.apply.statements, &mut |list| {
                for stmt in list {
                    if let p4_ir::Statement::Declare { name, .. } = stmt {
                        assert!(
                            !name.starts_with("__opq"),
                            "OpaquePanic: cannot lower opaque local"
                        );
                    }
                }
            });
        }
        Ok(())
    }
}

/// Crashes that fire only on a mutant reduce through the metamorphic
/// oracle: with `reduce_reports` on, every committed finding still carries
/// a minimized reproducer and the failure tally stays zero.
#[test]
fn mutant_only_crashes_reduce_through_the_metamorphic_oracle() {
    let factory = || {
        let mut passes: Vec<Box<dyn p4c::Pass>> = vec![Box::new(OpaquePanic)];
        passes.extend(p4c::passes::default_pipeline());
        Compiler::with_passes(passes)
    };
    let report = ParallelCampaign::new(HuntConfig {
        jobs: 2,
        seed_count: 12,
        mutation: Some(MetamorphicOptions::default()),
        reduce_reports: true,
        ..HuntConfig::default()
    })
    .run(factory);
    let crashes: Vec<_> = report
        .outcomes
        .iter()
        .flat_map(|o| &o.reports)
        .filter(|r| r.kind == BugKind::Crash)
        .collect();
    assert!(
        !crashes.is_empty(),
        "the opaque guard must trip the crash somewhere:\n{}",
        report.render()
    );
    assert_eq!(
        report.reduction_failures,
        0,
        "mutation-origin findings must reduce through their own oracle:\n{}",
        report.render()
    );
    for crash in &crashes {
        assert!(crash.minimized.is_some(), "{}", crash.message);
        assert!(
            crash.message.contains("via mutation chain"),
            "{}",
            crash.message
        );
    }
}

/// Replayed corpus entries honour the reduction contract too: with
/// coverage+corpus, mutation, and reduction all enabled, a replay-only
/// campaign commits only reduced findings.
#[test]
fn replayed_corpus_findings_are_reduced() {
    let corpus = std::env::temp_dir().join(format!(
        "gauntlet-metamorphic-corpus-{}.txt",
        std::process::id()
    ));
    let _ = std::fs::remove_file(&corpus);
    let coverage = Some(gauntlet_core::CoverageOptions {
        corpus: Some(corpus.display().to_string()),
        ..gauntlet_core::CoverageOptions::default()
    });
    // Seed the corpus (no mutation yet, so the corpus is purely
    // coverage-driven).
    ParallelCampaign::new(HuntConfig {
        jobs: 2,
        seed_count: 20,
        coverage: coverage.clone(),
        ..HuntConfig::default()
    })
    .run(corrupted_compiler);

    // Replay-only campaign with mutation + reduction.
    let replay = ParallelCampaign::new(HuntConfig {
        jobs: 2,
        seed_count: 0,
        coverage,
        mutation: Some(MetamorphicOptions::default()),
        reduce_reports: true,
        ..HuntConfig::default()
    })
    .run(corrupted_compiler);
    assert_eq!(replay.programs_checked, 0);
    let summary = replay.mutation.clone().expect("mutation block present");
    assert!(summary.mutants_checked > 0, "corpus should not be empty");
    // The replay's mutant checks are this run's work: they land in its
    // session tallies like any hunted seed's.
    let cache = replay.cache.expect("the campaign cache is on by default");
    assert_ne!(
        cache.sessions,
        SessionStats::default(),
        "replayed mutant checks missing from the session tallies"
    );
    assert_eq!(replay.reduction_failures, 0, "{}", replay.render());
    for outcome in &replay.outcomes {
        for report in &outcome.reports {
            assert!(
                report.minimized.is_some(),
                "replayed finding not reduced: {}",
                report.message
            );
        }
    }
    let _ = std::fs::remove_file(&corpus);
}

/// A per-test corpus path, removed before use.
fn fresh_corpus(name: &str) -> String {
    let path = std::env::temp_dir().join(format!(
        "gauntlet-metamorphic-{name}-{}.txt",
        std::process::id()
    ));
    let _ = std::fs::remove_file(&path);
    path.display().to_string()
}

/// Records a coverage corpus from seeds `[seed_start, seed_start + seeds)`
/// of the corrupted compiler (static weights, no mutation).
fn record_corpus(corpus: &str, seed_start: u64, seeds: usize) {
    ParallelCampaign::new(HuntConfig {
        jobs: 2,
        seed_start,
        seed_count: seeds,
        coverage: Some(CoverageOptions {
            adapt: false,
            corpus: Some(corpus.to_string()),
            ..CoverageOptions::default()
        }),
        ..HuntConfig::default()
    })
    .run(corrupted_compiler);
}

/// Replayed findings commit under the same rule as hunted ones: a corpus
/// from seeds outside the hunted range meets a one-bug quota during the
/// replay, so the hunt stops before any hunted seed commits — and the
/// replayed findings are committed reduced.
#[test]
fn replayed_findings_meet_the_bug_quota_before_any_hunted_seed() {
    let corpus = fresh_corpus("quota");
    record_corpus(&corpus, 0, 20);
    let report = ParallelCampaign::new(HuntConfig {
        jobs: 2,
        seed_start: 100,
        seed_count: 20,
        bug_quota: Some(1),
        coverage: Some(CoverageOptions {
            corpus: Some(corpus.clone()),
            ..CoverageOptions::default()
        }),
        mutation: Some(MetamorphicOptions::default()),
        reduce_reports: true,
        ..HuntConfig::default()
    })
    .run(corrupted_compiler);
    let _ = std::fs::remove_file(&corpus);
    assert_eq!(report.programs_checked, 0, "{}", report.render());
    assert!(report.total_bugs >= 1, "{}", report.render());
    assert_eq!(report.reduction_failures, 0, "{}", report.render());
    for outcome in &report.outcomes {
        assert!(outcome.seed < 20, "hunted seed {} committed", outcome.seed);
        for finding in &outcome.reports {
            assert!(finding.minimized.is_some(), "{}", finding.message);
        }
    }
}

/// Corpus entries the hunt processes itself are not committed twice: with
/// every entry inside the hunted range, the mutation side of the report —
/// findings, reductions, mutation block — equals the same hunt without a
/// corpus.  Only the corpus line differs (the entries are loaded rather
/// than added), and static weights keep replay from steering generation.
#[test]
fn corpus_entries_inside_the_hunted_range_commit_once() {
    const SEEDS: usize = 16;
    let corpus = fresh_corpus("in-range");
    record_corpus(&corpus, 0, SEEDS);
    let hunt = |corpus: Option<String>| {
        ParallelCampaign::new(HuntConfig {
            jobs: 2,
            seed_count: SEEDS,
            coverage: Some(CoverageOptions {
                adapt: false,
                corpus,
                ..CoverageOptions::default()
            }),
            mutation: Some(MetamorphicOptions::default()),
            ..HuntConfig::default()
        })
        .run(corrupted_compiler)
    };
    let without_corpus = hunt(None);
    let with_corpus = hunt(Some(corpus.clone()));
    let _ = std::fs::remove_file(&corpus);
    let mutation_side = |report: &HuntReport| {
        report
            .render()
            .lines()
            .filter(|line| !line.starts_with("corpus:"))
            .collect::<Vec<_>>()
            .join("\n")
    };
    assert!(without_corpus.total_bugs > 0, "{}", without_corpus.render());
    assert_eq!(mutation_side(&with_corpus), mutation_side(&without_corpus));
    assert_eq!(with_corpus.mutation, without_corpus.mutation);
}

/// The paper-shaped single-program story, end to end: trigger program,
/// blind TV, convicting mutant family, minimised chain in the dedup key.
#[test]
fn trigger_program_walkthrough() {
    let gauntlet = Gauntlet::default();
    let trigger = gauntlet_core::SeededBug::catalogue()
        .into_iter()
        .find(|b| b.name() == "SnapshotDropsFinalWrite")
        .expect("driver bug in the catalogue")
        .trigger_program();

    assert!(
        gauntlet
            .check_open_compiler(&corrupted_compiler(), &trigger)
            .clean,
        "TV must validate the corrupted compile clean"
    );

    let mut checker = MetamorphicChecker::new(corrupted_compiler());
    let outcome = gauntlet.check_mutants(
        &mut checker,
        &trigger,
        &MetamorphicOptions::default(),
        CAMPAIGN_MUTATION_SEED,
    );
    let report = outcome
        .reports
        .iter()
        .find(|r| r.kind == BugKind::Metamorphic)
        .expect("divergence detected");
    // The chain in the dedup key is ddmin-minimised (1-minimal: dropping
    // any single mutation loses the divergence) and stays within the
    // configured chain budget.
    let first_line = report.message.lines().next().unwrap();
    let chain = first_line
        .split('`')
        .nth(1)
        .expect("chain between backticks");
    assert!(
        chain.split('>').count() <= p4_mutate::MAX_CHAIN,
        "chain exceeds the budget: {first_line}"
    );

    // And the minimised key reproduces through the reduction oracle, which
    // program reduction relies on.
    let mut oracle = Gauntlet::metamorphic_oracle(
        corrupted_compiler(),
        MetamorphicOptions::default(),
        CAMPAIGN_MUTATION_SEED,
    );
    assert!(
        oracle.reproduces(&trigger, &report.dedup_key()),
        "oracle lost the dedup key `{}`",
        report.dedup_key()
    );
}
