//! Acceptance tests for the epoch-scoped validation cache: the knob must be
//! *semantically invisible* — the rendered report and the saved corpus are
//! byte-identical with caching on or off, at `--jobs 1` and `--jobs 4` —
//! and the pool-wide cache counters must reconcile exactly with the
//! per-session tallies summed over every worker.

use gauntlet_core::{
    CacheSummary, CoverageOptions, HuntConfig, HuntReport, MetamorphicOptions, ParallelCampaign,
    Platform, SeededBug,
};
use p4_gen::GeneratorConfig;
use std::path::PathBuf;

mod common;
use common::full_acceptance;

/// Seed budget: the full matrix runs 50-seed hunts in CI, a 10-seed smoke
/// variant by default.
fn budget() -> usize {
    if full_acceptance() {
        50
    } else {
        10
    }
}

/// The compiler under test: the catalogue's first P4C semantic (non-crash)
/// seeded bug (`DefUseDropsParameterWrites`) — the same selection as the
/// committed trajectory bench — so hunts produce real counterexamples and
/// the solver path (not just structural discharge) is exercised.
fn hunted_compiler() -> p4c::Compiler {
    SeededBug::catalogue()
        .into_iter()
        .find(|b| b.platform() == Platform::P4c && !b.is_crash_class())
        .expect("catalogue has a P4C semantic bug")
        .build_compiler()
}

/// A hunt over the fixed seed range with both oracle dimensions on
/// (translation validation + metamorphic mutation), parameterised by the
/// two knobs under test.
fn hunt(cache: bool, jobs: usize) -> HuntReport {
    ParallelCampaign::new(HuntConfig {
        jobs,
        seed_start: 0,
        seed_count: budget(),
        generator: GeneratorConfig::tiny(),
        mutation: Some(MetamorphicOptions::default()),
        epoch_cache: cache,
        ..HuntConfig::default()
    })
    .run(hunted_compiler)
}

/// A scratch path unique to this test process.
fn scratch(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("gauntlet-perf-cache-{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("scratch dir");
    dir.join(name)
}

/// The headline determinism claim: across the whole knob matrix — cache
/// on/off × `--jobs` 1/4 — the rendered report is byte-identical.  Cached
/// SAT verdicts carry canonical models, so no combination may change a
/// single byte of output.
#[test]
fn reports_are_byte_identical_across_cache_and_jobs() {
    let baseline = hunt(false, 1);
    let rendered = baseline.render();
    assert!(
        baseline.total_bugs > 0,
        "the seeded bug must be visible, or the matrix proves nothing"
    );
    // Findings carry counterexamples: the canonical-model discipline is
    // actually load-bearing in this comparison.
    assert!(rendered.contains("semantic difference"), "{rendered}");
    for (cache, jobs) in [(true, 1), (false, 4), (true, 4)] {
        let variant = hunt(cache, jobs);
        assert_eq!(
            rendered,
            variant.render(),
            "cache={cache} jobs={jobs} changed the report"
        );
        assert_eq!(baseline.outcomes.len(), variant.outcomes.len());
        assert_eq!(baseline.total_bugs, variant.total_bugs);
    }
}

/// The coverage feedback loop (adaptive weights + corpus admission) is
/// downstream of validation, so the epoch cache must leave the saved
/// corpus byte-identical too, at any `--jobs`.
#[test]
fn corpus_bytes_are_identical_with_cache_on_and_off() {
    let corpus_hunt = |cache: bool, jobs: usize, path: &PathBuf| -> HuntReport {
        let _ = std::fs::remove_file(path);
        ParallelCampaign::new(HuntConfig {
            jobs,
            seed_start: 0,
            seed_count: budget(),
            generator: GeneratorConfig::tiny(),
            coverage: Some(CoverageOptions {
                adapt: true,
                adapt_every: budget().div_ceil(2).max(1),
                corpus: Some(path.display().to_string()),
                ..CoverageOptions::default()
            }),
            epoch_cache: cache,
            ..HuntConfig::default()
        })
        .run(p4c::Compiler::reference)
    };
    let path_off = scratch("corpus-cache-off.txt");
    let path_on_1 = scratch("corpus-cache-on-jobs1.txt");
    let path_on_4 = scratch("corpus-cache-on-jobs4.txt");
    let off = corpus_hunt(false, 2, &path_off);
    let on_1 = corpus_hunt(true, 1, &path_on_1);
    let on_4 = corpus_hunt(true, 4, &path_on_4);
    assert_eq!(off.render(), on_1.render());
    assert_eq!(off.render(), on_4.render());
    assert_eq!(off.coverage, on_1.coverage);
    assert_eq!(off.coverage, on_4.coverage);
    let bytes_off = std::fs::read(&path_off).expect("corpus saved with cache off");
    let bytes_on_1 = std::fs::read(&path_on_1).expect("corpus saved with cache on");
    let bytes_on_4 = std::fs::read(&path_on_4).expect("corpus saved at jobs 4");
    assert!(!bytes_off.is_empty());
    assert_eq!(bytes_off, bytes_on_1, "cache changed the corpus bytes");
    assert_eq!(bytes_off, bytes_on_4, "jobs changed the corpus bytes");
    for path in [path_off, path_on_1, path_on_4] {
        let _ = std::fs::remove_file(path);
    }
}

/// Cross-epoch reuse must be semantically invisible too.  A coverage-
/// guided hunt whose adaptation interval cuts the seed range into several
/// epochs exercises the campaign-lifetime cache across epoch barriers
/// (semantics memo, verdict memo, and interner all survive into the next
/// epoch); the rendered report, the coverage block, and the saved corpus
/// must still be byte-identical with the cache on or off, at `--jobs` 1
/// and 4.
#[test]
fn multi_epoch_reports_and_corpus_are_identical_across_cache_and_jobs() {
    // Strictly less than the seed count, so the hunt crosses epoch
    // boundaries (ceil(budget / epoch_len) >= 3 epochs).
    let epoch_len = (budget() / 3).max(2);
    let epoch_hunt = |cache: bool, jobs: usize, path: &PathBuf| -> HuntReport {
        let _ = std::fs::remove_file(path);
        ParallelCampaign::new(HuntConfig {
            jobs,
            seed_start: 0,
            seed_count: budget(),
            generator: GeneratorConfig::tiny(),
            coverage: Some(CoverageOptions {
                adapt: true,
                adapt_every: epoch_len,
                corpus: Some(path.display().to_string()),
                ..CoverageOptions::default()
            }),
            mutation: Some(MetamorphicOptions::default()),
            epoch_cache: cache,
            ..HuntConfig::default()
        })
        .run(hunted_compiler)
    };
    let base_path = scratch("multi-epoch-baseline.txt");
    let baseline = epoch_hunt(false, 1, &base_path);
    let baseline_bytes = std::fs::read(&base_path).expect("baseline corpus saved");
    let _ = std::fs::remove_file(&base_path);
    assert!(baseline.total_bugs > 0, "the seeded bug must be visible");
    for (cache, jobs) in [(false, 4), (true, 1), (true, 4)] {
        let path = scratch(&format!("multi-epoch-cache{cache}-jobs{jobs}.txt"));
        let variant = epoch_hunt(cache, jobs, &path);
        assert_eq!(
            baseline.render(),
            variant.render(),
            "cache={cache} jobs={jobs} changed the multi-epoch report"
        );
        assert_eq!(baseline.coverage, variant.coverage);
        let bytes = std::fs::read(&path).expect("variant corpus saved");
        let _ = std::fs::remove_file(&path);
        assert_eq!(
            baseline_bytes, bytes,
            "cache={cache} jobs={jobs} changed the corpus bytes"
        );
        if cache {
            let summary = variant.cache.expect("cache summary present");
            assert!(
                summary.epochs > 1,
                "the matrix must actually cross epoch boundaries: {summary:?}"
            );
        }
    }
}

/// Exact accounting under the parallel pool: the pool-wide [`CacheStats`]
/// (counted inside the shared cache) and the per-session tallies (summed
/// over every worker session of both oracle dimensions) must reconcile
/// *exactly* at the lookup level — every hit and miss attributed, none
/// dropped, none double-counted — even with four workers racing.
#[test]
fn cache_counters_reconcile_with_session_tallies() {
    for jobs in [1, 4] {
        let report = hunt(true, jobs);
        let summary = report.cache.expect("cache summary present when enabled");
        assert_eq!(summary.epochs, 1, "mutation-only hunts run one epoch");
        let (cache, sessions) = (summary.stats, summary.sessions);
        assert_eq!(
            cache.semantics_hits, sessions.semantics_hits,
            "jobs={jobs}: semantics hits diverge: {summary:?}"
        );
        assert_eq!(
            cache.semantics_misses, sessions.semantics_misses,
            "jobs={jobs}: semantics misses diverge: {summary:?}"
        );
        assert_eq!(
            cache.verdict_hits, sessions.verdict_hits,
            "jobs={jobs}: verdict hits diverge: {summary:?}"
        );
        assert_eq!(
            cache.verdict_misses, sessions.verdict_misses,
            "jobs={jobs}: verdict misses diverge: {summary:?}"
        );
        // The hunt did real work through the cache on both layers.
        assert!(cache.semantics_lookups() > 0, "jobs={jobs}: {summary:?}");
        assert!(cache.verdict_lookups() > 0, "jobs={jobs}: {summary:?}");
        assert!(
            sessions.solver_checks > 0,
            "jobs={jobs}: seeded bug must force solving: {summary:?}"
        );
    }
}

/// With no bug quota every seed is processed exactly once, so the cache
/// counters themselves are schedule-independent: the full summary is equal
/// at `--jobs 1` and `--jobs 4` (misses count distinct work by
/// construction — the miss is recorded at insert, so a racing loser counts
/// as a hit, exactly like a sequential second lookup).
#[test]
fn cache_counters_are_schedule_independent_without_a_quota() {
    let sequential = hunt(true, 1);
    let parallel = hunt(true, 4);
    assert_eq!(
        sequential.cache.expect("summary on"),
        parallel.cache.expect("summary on"),
        "quota-free hunts must produce identical cache accounting"
    );
}

/// The summary block appears exactly when the cache knob is on, and never
/// leaks into the rendered report (it is run-descriptive, like `elapsed`).
#[test]
fn cache_summary_presence_follows_the_knobs() {
    let off = hunt(false, 2);
    assert!(off.cache.is_none(), "no cache, no summary");
    let cached = hunt(true, 2);
    let summary = cached.cache.expect("cache knob produces the summary");
    assert!(summary.stats.semantics_lookups() > 0);
    for report in [&off, &cached] {
        let rendered = report.render();
        assert!(
            !rendered.to_lowercase().contains("cache"),
            "the render must not depend on run-descriptive cache data:\n{rendered}"
        );
    }
}

/// `CacheSummary` is plain data with an exhaustive equality: a copy round-
/// trips and a default is all-zero (the shape the golden-report fixture
/// relies on).
#[test]
fn cache_summary_default_is_all_zero() {
    let summary = CacheSummary::default();
    assert_eq!(summary.epochs, 0);
    assert_eq!(summary.stats.semantics_lookups(), 0);
    assert_eq!(summary.stats.verdict_lookups(), 0);
    assert_eq!(summary.sessions.solver_checks, 0);
}
