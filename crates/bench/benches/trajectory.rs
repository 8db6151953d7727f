//! The committed benchmark trajectory: every stage of the campaign loop
//! (generate → compile → validate → mutate) timed over a fixed-seed
//! workload, emitted as machine-readable JSON (the `BENCH_pr*.json` files
//! at the repo root, currently `BENCH_pr10.json`) so performance claims are
//! *committed* next to the code they describe and regressions show up in
//! review diffs.
//!
//! ```text
//! cargo bench -p bench --bench trajectory -- \
//!     [--seeds N] [--out PATH] [--compare BASELINE|auto]
//! ```
//!
//! * default — run the workload (50 seeds) and print the JSON to stdout;
//! * `--out PATH` — also write the JSON to `PATH` (use
//!   `--seeds 50 --out BENCH_pr10.json` to regenerate the committed file,
//!   see docs/REPRODUCING.md);
//! * `--compare BASELINE` — gate mode: after measuring, compare against a
//!   previously committed trajectory and exit nonzero on regression.
//!   `--compare auto` resolves to the highest-numbered committed
//!   `BENCH_pr*.json` at the workspace root and fails loudly if none
//!   exists — CI uses this form so the gate follows the newest committed
//!   baseline instead of a hard-coded file name going silently stale.
//!
//! The headline metric is the **warm-over-cold validate speedup**: the same
//! 50 compiled pass chains are translation-validated twice through the
//! campaign worker configuration (a fresh session per program, attached to
//! a shared `CampaignCache`) — first against the *empty* cache (the cold miss
//! path: every snapshot interpreted, every non-trivial query solved) and
//! then against the now-populated cache (the warm hit path: what any
//! revalidation inside an epoch experiences — duplicate programs, mutants
//! whose compiled form collapses onto the seed's, replayed corpus entries,
//! or a racing worker arriving second).  Both runs are in this file, so the
//! committed ≥2× claim is measured, not asserted.
//!
//! The campaign-lifetime cache adds a third validation run: the same chains
//! are re-validated *after an epoch barrier* (`validate_cross_epoch`).
//! Under the old per-epoch cache this path was a full cold re-run; with
//! the campaign-lifetime cache the memos and the interner survive the
//! barrier's generation sweep, so cross-epoch revalidation must stay at
//! least [`CROSS_EPOCH_SPEEDUP_FLOOR`]× faster than cold — the committed
//! `validate_speedup_cross_epoch` metric, gated in CI.
//!
//! The comparator deliberately gates on *scale-free* metrics only — the
//! speedup ratio, the deterministic work counters (pass pairs, solver
//! checks, mutants), and the **telemetry overhead**: the cold-validation
//! workload is re-run with a telemetry `Recorder` installed and the
//! relative slowdown is emitted as `telemetry_overhead_pct` and bounded at
//! <3% (the flight-recorder invariant).  Absolute throughput depends on
//! the machine that ran the bench, so comparing a CI runner's numbers
//! against a committed file from another machine would gate on noise;
//! throughputs are recorded for trend reading, not enforced.
//!
//! The per-query solver tail (`solver_tail` blocks) is now also captured by
//! the telemetry histograms inside every campaign run (`run.telemetry.solver`
//! in the `gauntlet-report-v1` document); the bench keeps its own exact
//! sorted-sample percentiles as the ground truth the bucketed histogram
//! approximates.

use gauntlet_core::{hunt_mutation_seed, MetamorphicChecker, MetamorphicOptions};
use gauntlet_telemetry::json::{self, Json};
use gauntlet_telemetry::ProgressSink;
use p4_gen::{GeneratorConfig, RandomProgramGenerator};
use p4_symbolic::{CampaignCache, SessionStats, ValidationSession};
use p4c::{CompileResult, Compiler};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// How much the gated ratio metrics may degrade relative to the committed
/// baseline before the comparator fails (the "10% regression" CI gate).
const REGRESSION_TOLERANCE: f64 = 0.10;

/// Ceiling on the telemetry flight recorder's measured slowdown of the
/// validation workload (the hard invariant from the telemetry PR).
const TELEMETRY_OVERHEAD_CEILING_PCT: f64 = 3.0;

/// Ceiling on the coverage sink's measured slowdown of the compile
/// workload.  Pair-interaction recording rides the compile hot path on
/// interned `(Symbol, Symbol)` keys — no string allocation per firing —
/// so installing a coverage scope must stay within noise of an
/// uninstrumented compile.
const COVERAGE_OVERHEAD_CEILING_PCT: f64 = 5.0;

/// Floor on the cross-epoch warm-validate speedup at the full committed
/// workload: revalidating the same chains after an epoch barrier must stay
/// at least this much faster than a cold run, proving the memos survive
/// the barrier.
const CROSS_EPOCH_SPEEDUP_FLOOR: f64 = 1.5;

fn parse_flag(args: &[String], name: &str) -> Option<String> {
    args.iter()
        .position(|a| a == name)
        .and_then(|i| args.get(i + 1))
        .cloned()
}

/// Resolves a `--out`/`--compare` path against the workspace root (cargo
/// runs bench harnesses with the package directory as cwd, which would
/// scatter relative paths under `crates/bench/`).
fn resolve(path: &str) -> std::path::PathBuf {
    let path = std::path::Path::new(path);
    if path.is_absolute() {
        path.to_path_buf()
    } else {
        std::path::Path::new(env!("CARGO_MANIFEST_DIR"))
            .join("../..")
            .join(path)
    }
}

/// `--compare auto`: the highest-numbered `BENCH_pr<N>.json` committed at
/// the workspace root.  Panics (nonzero exit) when none exists — a silent
/// fallback here would let CI "pass" a gate that compared against nothing.
fn latest_committed_baseline() -> std::path::PathBuf {
    let root = resolve(".");
    let mut best: Option<(u64, std::path::PathBuf)> = None;
    let entries = std::fs::read_dir(&root)
        .unwrap_or_else(|error| panic!("cannot list workspace root `{}`: {error}", root.display()));
    for entry in entries.flatten() {
        let name = entry.file_name();
        let Some(number) = name
            .to_str()
            .and_then(|name| name.strip_prefix("BENCH_pr"))
            .and_then(|rest| rest.strip_suffix(".json"))
            .and_then(|number| number.parse::<u64>().ok())
        else {
            continue;
        };
        if best.as_ref().is_none_or(|(highest, _)| number > *highest) {
            best = Some((number, entry.path()));
        }
    }
    match best {
        Some((_, path)) => path,
        None => panic!(
            "--compare auto: no committed BENCH_pr*.json found at the workspace root `{}`",
            root.display()
        ),
    }
}

fn main() {
    let args: Vec<String> = std::env::args().collect();
    let seeds: usize = parse_flag(&args, "--seeds")
        .and_then(|v| v.parse().ok())
        .unwrap_or(50);
    let out = parse_flag(&args, "--out");
    let compare = parse_flag(&args, "--compare");
    // Stderr narration routes through one sink (`--quiet` silences it);
    // stdout stays machine-readable JSON only.
    let progress = ProgressSink::new(!args.iter().any(|a| a == "--quiet"));

    let trajectory = measure(seeds);
    let json = render_json(&trajectory);
    println!("{json}");
    if let Some(path) = out {
        let path = resolve(&path);
        std::fs::write(&path, format!("{json}\n"))
            .unwrap_or_else(|error| panic!("cannot write `{}`: {error}", path.display()));
        progress.note(&format!("trajectory written to {}", path.display()));
    }
    if let Some(path) = compare {
        let path = if path == "auto" {
            latest_committed_baseline()
        } else {
            resolve(&path)
        };
        let baseline = std::fs::read_to_string(&path)
            .unwrap_or_else(|error| panic!("cannot read baseline `{}`: {error}", path.display()));
        let failures = compare_against(&trajectory, &baseline);
        if failures.is_empty() {
            progress.note(&format!(
                "comparator: no regression against {}",
                path.display()
            ));
        } else {
            for failure in &failures {
                progress.note(&format!("comparator FAIL: {failure}"));
            }
            std::process::exit(1);
        }
    }
}

/// One stage's timing: work units, wall clock, derived rate.
struct Stage {
    units: u64,
    elapsed: Duration,
}

impl Stage {
    fn per_sec(&self) -> f64 {
        let secs = self.elapsed.as_secs_f64();
        if secs <= 0.0 {
            0.0
        } else {
            self.units as f64 / secs
        }
    }
}

/// Per-query latency percentiles (the solver tail).
#[derive(Default)]
struct Tail {
    p50_us: f64,
    p90_us: f64,
    p99_us: f64,
    max_us: f64,
}

impl Tail {
    fn of(mut samples: Vec<Duration>) -> Tail {
        if samples.is_empty() {
            return Tail::default();
        }
        samples.sort();
        let at = |q: f64| {
            let index = ((samples.len() - 1) as f64 * q).round() as usize;
            samples[index].as_secs_f64() * 1e6
        };
        Tail {
            p50_us: at(0.50),
            p90_us: at(0.90),
            p99_us: at(0.99),
            max_us: samples[samples.len() - 1].as_secs_f64() * 1e6,
        }
    }
}

struct ValidateRun {
    stage: Stage,
    stats: SessionStats,
    tail: Tail,
}

struct Trajectory {
    seeds: usize,
    gen: Stage,
    compile: Stage,
    cold: ValidateRun,
    warm: ValidateRun,
    /// Revalidation of the same chains after an epoch barrier: the
    /// campaign-lifetime cache's cross-epoch hit path.
    cross_epoch: ValidateRun,
    mutate: Stage,
    mutants: u64,
    /// Relative slowdown (in percent, may be negative under noise) of the
    /// cold-validation workload with a telemetry `Recorder` installed.
    telemetry_overhead_pct: f64,
    /// Relative slowdown (in percent, may be negative under noise) of the
    /// compile workload with a coverage scope installed — the pair-sink
    /// hot-path micro-assert.
    coverage_overhead_pct: f64,
    /// Distinct cross-pass rule pairs the compile workload fires — a
    /// deterministic counter at fixed seeds (the pair-coverage-at-equal-
    /// budget metric).
    compile_distinct_pairs: u64,
}

impl Trajectory {
    /// The headline warm-over-cold validate speedup.
    fn speedup(&self) -> f64 {
        let cold = self.cold.stage.per_sec();
        if cold <= 0.0 {
            0.0
        } else {
            self.warm.stage.per_sec() / cold
        }
    }

    /// Cross-epoch speedup: revalidation after an epoch barrier over cold.
    fn cross_epoch_speedup(&self) -> f64 {
        let cold = self.cold.stage.per_sec();
        if cold <= 0.0 {
            0.0
        } else {
            self.cross_epoch.stage.per_sec() / cold
        }
    }
}

/// Validates every compiled pass chain in the campaign worker
/// configuration — a fresh session per program attached to the shared
/// epoch cache — timing each per-pair equivalence check.
fn validate_all(
    results: &[CompileResult],
    cache: &Arc<CampaignCache>,
    samples: &mut Vec<Duration>,
) -> ValidateRun {
    let mut pairs = 0u64;
    let mut stats = SessionStats::default();
    let start = Instant::now();
    for result in results {
        let mut session = ValidationSession::with_cache(Arc::clone(cache));
        for (before, after) in result.pass_pairs() {
            pairs += 1;
            let query_start = Instant::now();
            // Verdicts (equal or counterexample) are the workload; pairs the
            // interpreter cannot model are skipped like the pipeline does.
            let _ = session.check_pair(&before.program, &after.program);
            samples.push(query_start.elapsed());
        }
        stats += session.stats();
    }
    let elapsed = start.elapsed();
    ValidateRun {
        stage: Stage {
            units: pairs,
            elapsed,
        },
        stats,
        tail: Tail::default(),
    }
}

/// The compiler under test: the catalogue's first P4C semantic (non-crash)
/// seeded bug (`DefUseDropsParameterWrites`, as in `gauntlet hunt
/// --compiler DefUseDropsParameterWrites`), the same selection rule as the
/// hunt determinism tests.
fn hunted_compiler() -> Compiler {
    gauntlet_core::SeededBug::catalogue()
        .into_iter()
        .find(|b| b.platform() == gauntlet_core::Platform::P4c && !b.is_crash_class())
        .expect("catalogue has a P4C semantic bug")
        .build_compiler()
}

fn measure(seeds: usize) -> Trajectory {
    let config = GeneratorConfig::tiny();

    // Stage 1: generation (seeds 0..seeds, the hunt's own derivation).
    let start = Instant::now();
    let programs: Vec<_> = (0..seeds)
        .map(|seed| RandomProgramGenerator::new(config.clone(), seed as u64).generate())
        .collect();
    let gen = Stage {
        units: seeds as u64,
        elapsed: start.elapsed(),
    };

    // Stage 2: compilation through the hunted compiler — seeded with a
    // P4C semantic bug, like the example hunt, so validation downstream
    // exercises the solver (the reference compiler's chains all discharge
    // trivially by hash-consing, which would benchmark nothing).
    let compiler = hunted_compiler();
    let start = Instant::now();
    let results: Vec<CompileResult> = programs
        .iter()
        .map(|program| {
            compiler
                .compile(program)
                .expect("reference compiler accepts generated programs")
        })
        .collect();
    let compile = Stage {
        units: seeds as u64,
        elapsed: start.elapsed(),
    };

    // Stage 2b: the coverage-sink micro-assert.  The pair-interaction sink
    // records interned `(Symbol, Symbol)` keys per rewrite firing — the
    // per-firing `format!` is gone — so re-running the same compile
    // workload with a coverage scope installed must stay within noise of
    // the uninstrumented run.  Interleaved best-of-5 per side, like the
    // telemetry overhead stage.  The distinct-pair count from the scoped
    // run is deterministic at fixed seeds and gated exactly.
    let mut compile_plain = Duration::MAX;
    let mut compile_scoped = Duration::MAX;
    let mut compile_distinct_pairs = 0u64;
    for _ in 0..5 {
        let start = Instant::now();
        for program in &programs {
            let _ = compiler.compile(program);
        }
        compile_plain = compile_plain.min(start.elapsed());

        let start = Instant::now();
        let (_, coverage) = p4c::coverage::with_sink(|| {
            for program in &programs {
                let _ = compiler.compile(program);
            }
        });
        compile_scoped = compile_scoped.min(start.elapsed());
        compile_distinct_pairs = coverage.distinct_pairs() as u64;
    }
    let coverage_overhead_pct =
        (compile_scoped.as_secs_f64() / compile_plain.as_secs_f64() - 1.0) * 100.0;

    // Stages 3a/3b: cold then warm validation, best-of-5 repetitions
    // (min wall clock per side) so the committed speedup ratio gates on
    // the workload, not on scheduler noise in any single run.  Each
    // repetition starts from a fresh cache: cold runs against the *empty*
    // cache (every snapshot interpreted, every non-trivial query solved
    // and its canonical verdict stored), warm re-runs the same chains
    // through fresh sessions against the now-populated cache — the hit
    // path every revalidation inside an epoch takes.  The memo counters
    // are deterministic, so they agree across repetitions.
    let mut cold: Option<ValidateRun> = None;
    let mut warm: Option<ValidateRun> = None;
    let mut cache = Arc::new(CampaignCache::new());
    for _ in 0..5 {
        cache = Arc::new(CampaignCache::new());
        let mut cold_samples = Vec::new();
        let mut cold_run = validate_all(&results, &cache, &mut cold_samples);
        cold_run.tail = Tail::of(cold_samples);
        let mut warm_samples = Vec::new();
        let mut warm_run = validate_all(&results, &cache, &mut warm_samples);
        warm_run.tail = Tail::of(warm_samples);
        if cold
            .as_ref()
            .is_none_or(|best| cold_run.stage.elapsed < best.stage.elapsed)
        {
            cold = Some(cold_run);
        }
        if warm
            .as_ref()
            .is_none_or(|best| warm_run.stage.elapsed < best.stage.elapsed)
        {
            warm = Some(warm_run);
        }
    }
    let cold = cold.expect("at least one repetition");
    let warm = warm.expect("at least one repetition");

    // Stage 3c: cross-epoch revalidation.  Populate a fresh cache (epoch
    // 1), run the campaign's epoch barrier — generation bump plus the
    // budget-driven eviction sweep — then revalidate the same chains as
    // epoch 2 would.  Under the retired per-epoch cache this was a cold
    // re-run; the campaign-lifetime cache keeps it on the hit path.
    let mut cross_epoch: Option<ValidateRun> = None;
    for _ in 0..5 {
        let barrier_cache = Arc::new(CampaignCache::new());
        let mut sink = Vec::new();
        let _ = validate_all(&results, &barrier_cache, &mut sink);
        barrier_cache.epoch_barrier();
        let mut samples = Vec::new();
        let mut run = validate_all(&results, &barrier_cache, &mut samples);
        run.tail = Tail::of(samples);
        if cross_epoch
            .as_ref()
            .is_none_or(|best| run.stage.elapsed < best.stage.elapsed)
        {
            cross_epoch = Some(run);
        }
    }
    let cross_epoch = cross_epoch.expect("at least one repetition");

    // Stage 4: metamorphic mutation over the same seeds, warm checker.
    let mut checker = MetamorphicChecker::with_cache(hunted_compiler(), Arc::clone(&cache));
    let options = MetamorphicOptions::default();
    let mut mutants = 0u64;
    let start = Instant::now();
    for (seed, program) in programs.iter().enumerate() {
        let outcome = checker.check(program, &options, hunt_mutation_seed(seed as u64));
        mutants += outcome.mutants_checked as u64;
    }
    let mutate = Stage {
        units: mutants,
        elapsed: start.elapsed(),
    };

    // Stage 5: telemetry overhead.  The cold-validation workload (the
    // hottest instrumented path: a Validate span per pair plus a latency
    // sample per solver query) is re-run with and without a `Recorder`
    // installed, interleaved and best-of-5 per side so the ratio compares
    // the two fast paths rather than scheduler noise.
    let telemetry_overhead_pct = {
        let mut uninstrumented = Duration::MAX;
        let mut instrumented = Duration::MAX;
        for _ in 0..5 {
            let cache = Arc::new(CampaignCache::new());
            let mut sink = Vec::new();
            let run = validate_all(&results, &cache, &mut sink);
            uninstrumented = uninstrumented.min(run.stage.elapsed);

            let cache = Arc::new(CampaignCache::new());
            let enclosing = gauntlet_telemetry::install(gauntlet_telemetry::Recorder::new());
            let mut sink = Vec::new();
            let run = validate_all(&results, &cache, &mut sink);
            let recorder = gauntlet_telemetry::take().expect("recorder still installed");
            assert!(!recorder.is_empty(), "instrumented run recorded nothing");
            if let Some(previous) = enclosing {
                gauntlet_telemetry::install(previous);
            }
            instrumented = instrumented.min(run.stage.elapsed);
        }
        (instrumented.as_secs_f64() / uninstrumented.as_secs_f64() - 1.0) * 100.0
    };

    Trajectory {
        seeds,
        gen,
        compile,
        cold,
        warm,
        cross_epoch,
        mutate,
        mutants,
        telemetry_overhead_pct,
        coverage_overhead_pct,
        compile_distinct_pairs,
    }
}

fn render_json(t: &Trajectory) -> String {
    // Hand-rolled writer (the in-tree serde shim has no JSON back end);
    // key order is fixed so committed regenerations diff cleanly.
    let stage = |s: &Stage| {
        format!(
            "{{ \"units\": {}, \"elapsed_ms\": {:.3}, \"per_sec\": {:.1} }}",
            s.units,
            s.elapsed.as_secs_f64() * 1000.0,
            s.per_sec()
        )
    };
    let tail = |t: &Tail| {
        format!(
            "{{ \"p50_us\": {:.1}, \"p90_us\": {:.1}, \"p99_us\": {:.1}, \"max_us\": {:.1} }}",
            t.p50_us, t.p90_us, t.p99_us, t.max_us
        )
    };
    let validate = |v: &ValidateRun| {
        format!(
            "{{\n    \"pairs\": {}, \"elapsed_ms\": {:.3}, \"pairs_per_sec\": {:.1},\n    \"semantics_hits\": {}, \"semantics_misses\": {},\n    \"trivial_checks\": {}, \"solver_checks\": {}, \"cached_checks\": {},\n    \"verdict_hits\": {}, \"verdict_misses\": {},\n    \"solver_tail\": {}\n  }}",
            v.stage.units,
            v.stage.elapsed.as_secs_f64() * 1000.0,
            v.stage.per_sec(),
            v.stats.semantics_hits,
            v.stats.semantics_misses,
            v.stats.trivial_checks,
            v.stats.solver_checks,
            v.stats.cached_checks,
            v.stats.verdict_hits,
            v.stats.verdict_misses,
            tail(&v.tail)
        )
    };
    format!(
        "{{\n  \"schema\": \"gauntlet-trajectory-v1\",\n  \"seeds\": {},\n  \"gen\": {},\n  \"compile\": {},\n  \"compile_distinct_pairs\": {},\n  \"coverage_overhead_pct\": {:.2},\n  \"validate_cold\": {},\n  \"validate_warm\": {},\n  \"validate_speedup_warm_over_cold\": {:.3},\n  \"validate_cross_epoch\": {},\n  \"validate_speedup_cross_epoch\": {:.3},\n  \"mutate\": {},\n  \"mutants_checked\": {},\n  \"telemetry_overhead_pct\": {:.2}\n}}",
        t.seeds,
        stage(&t.gen),
        stage(&t.compile),
        t.compile_distinct_pairs,
        t.coverage_overhead_pct,
        validate(&t.cold),
        validate(&t.warm),
        t.speedup(),
        validate(&t.cross_epoch),
        t.cross_epoch_speedup(),
        stage(&t.mutate),
        t.mutants,
        t.telemetry_overhead_pct
    )
}

/// The CI gate: compares the fresh measurement against a committed
/// baseline.  Returns human-readable failures (empty = pass).
fn compare_against(current: &Trajectory, baseline: &str) -> Vec<String> {
    let baseline = match json::parse(baseline) {
        Ok(baseline) => baseline,
        Err(error) => return vec![format!("baseline does not parse: {error}")],
    };
    if baseline.get("schema").and_then(Json::as_str) != Some("gauntlet-trajectory-v1") {
        return vec!["baseline schema mismatch (expected gauntlet-trajectory-v1)".into()];
    }
    // The number at a dotted path (`"validate_cold.pairs"`), if present.
    let baseline_number = |path: &str| {
        path.split('.')
            .try_fold(&baseline, |value, key| value.get(key))?
            .as_f64()
    };
    let mut failures = Vec::new();
    // The telemetry invariant is a property of the current build, not a
    // baseline ratio: gate it at every workload scale.
    if current.telemetry_overhead_pct >= TELEMETRY_OVERHEAD_CEILING_PCT {
        failures.push(format!(
            "telemetry overhead too high: {:.2}% >= {TELEMETRY_OVERHEAD_CEILING_PCT:.0}% ceiling",
            current.telemetry_overhead_pct
        ));
    }
    // Likewise the coverage-sink invariant: recording pair interactions
    // must not tax compile throughput (interned keys, no per-firing
    // allocation) — gated at every workload scale.
    if current.coverage_overhead_pct >= COVERAGE_OVERHEAD_CEILING_PCT {
        failures.push(format!(
            "coverage sink overhead too high: {:.2}% >= {COVERAGE_OVERHEAD_CEILING_PCT:.0}% ceiling",
            current.coverage_overhead_pct
        ));
    }
    let baseline_seeds = baseline_number("seeds").unwrap_or(0.0) as usize;
    let baseline_speedup = baseline_number("validate_speedup_warm_over_cold").unwrap_or(0.0);
    if current.seeds == baseline_seeds {
        // The cross-epoch claim: revalidation after an epoch barrier must
        // stay well above cold — an absolute floor at the committed
        // workload, plus (when the baseline is new enough to carry the
        // key) the usual relative-regression gate.
        if current.cross_epoch_speedup() < CROSS_EPOCH_SPEEDUP_FLOOR {
            failures.push(format!(
                "cross-epoch validate speedup below floor: {:.3} < {CROSS_EPOCH_SPEEDUP_FLOOR:.1}",
                current.cross_epoch_speedup()
            ));
        }
        if let Some(baseline_cross) = baseline_number("validate_speedup_cross_epoch") {
            let floor = baseline_cross * (1.0 - REGRESSION_TOLERANCE);
            if current.cross_epoch_speedup() < floor {
                failures.push(format!(
                    "cross-epoch validate speedup regressed: {:.3} < {:.3} (baseline {:.3} - {:.0}%)",
                    current.cross_epoch_speedup(),
                    floor,
                    baseline_cross,
                    REGRESSION_TOLERANCE * 100.0
                ));
            }
        }
        // Same workload: the speedup must not regress by more than the
        // tolerance, and the deterministic work counters must match
        // exactly (a counter drift means the pipeline changed shape and
        // the baseline must be regenerated deliberately).
        let floor = baseline_speedup * (1.0 - REGRESSION_TOLERANCE);
        if current.speedup() < floor {
            failures.push(format!(
                "validate speedup regressed: {:.3} < {:.3} (baseline {:.3} - {:.0}%)",
                current.speedup(),
                floor,
                baseline_speedup,
                REGRESSION_TOLERANCE * 100.0
            ));
        }
        let counters: [(&str, f64); 4] = [
            ("validate_cold.pairs", current.cold.stage.units as f64),
            (
                "validate_cold.solver_checks",
                current.cold.stats.solver_checks as f64,
            ),
            (
                "validate_cold.trivial_checks",
                current.cold.stats.trivial_checks as f64,
            ),
            ("mutants_checked", current.mutants as f64),
        ];
        for (key, value) in counters {
            let expected = baseline_number(key);
            if expected != Some(value) {
                failures.push(format!(
                    "deterministic counter `{key}` drifted: measured {value}, baseline {expected:?} — regenerate the committed BENCH_pr*.json if intentional"
                ));
            }
        }
        // The pair-coverage-at-equal-budget counter (only gated when the
        // baseline is new enough to carry it): the distinct cross-pass
        // pairs the fixed-seed compile workload fires is deterministic,
        // so any drift means the pass pipeline or the pair registry
        // changed shape.
        if let Some(expected) = baseline_number("compile_distinct_pairs") {
            let measured = current.compile_distinct_pairs as f64;
            if expected != measured {
                failures.push(format!(
                    "deterministic counter `compile_distinct_pairs` drifted: measured {measured}, baseline {expected} — regenerate the committed BENCH_pr*.json if intentional"
                ));
            }
        }
    } else {
        // Smoke workload (different seed count): the counters cannot be
        // compared, so only require that warm validation is not slower
        // than cold beyond the tolerance.
        let floor = 1.0 - REGRESSION_TOLERANCE;
        if current.speedup() < floor {
            failures.push(format!(
                "smoke: warm validation slower than cold: speedup {:.3} < {floor:.2}",
                current.speedup()
            ));
        }
    }
    failures
}
