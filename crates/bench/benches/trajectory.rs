//! The committed benchmark trajectory: every stage of the campaign loop
//! (generate → compile → validate cold, warm and across an epoch barrier →
//! mutate), timed over a fixed-seed workload and written as one
//! `gauntlet-trajectory-v2` document.  The one committed `BENCH_pr*.json`
//! at the repository root is such a document, and
//! [`bench::trajectory::compare`] gates a fresh run against it (see that
//! module for the three rules).
//!
//! ```text
//! cargo bench -p bench --bench trajectory -- \
//!     [--seeds N] [--out PATH] [--compare BASELINE|auto] [--quiet]
//! ```
//!
//! * default — measure 50 seeds and print the document to stdout;
//! * `--out PATH` — also write it to `PATH`, relative to the repository
//!   root (`--seeds 50 --out BENCH_pr22.json` regenerates the baseline,
//!   see docs/REPRODUCING.md);
//! * `--compare BASELINE` — compare with a baseline document and exit
//!   nonzero on any failure.  `auto` is the one `BENCH_pr*.json` at the
//!   repository root; zero or several of them is an error.

use bench::trajectory;
use gauntlet_core::{hunt_mutation_seed, MetamorphicChecker, MetamorphicOptions};
use gauntlet_telemetry::json::{self, Json};
use gauntlet_telemetry::{ProgressSink, Recorder};
use p4_gen::{GeneratorConfig, RandomProgramGenerator};
use p4_ir::Program;
use p4_symbolic::{CampaignCache, SessionStats, ValidationSession};
use p4c::{CompileResult, Compiler};
use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::sync::Arc;
use std::time::Instant;

/// Repetitions per run.  Every timed side and every overhead is the median
/// over them, so one preempted repetition cannot move a gated number.
const REPETITIONS: usize = 15;

fn parse_flag(args: &[String], name: &str) -> Option<String> {
    args.iter()
        .position(|a| a == name)
        .and_then(|i| args.get(i + 1))
        .cloned()
}

/// Resolves a `--out`/`--compare` path against the workspace root (cargo
/// runs bench harnesses with the package directory as cwd).
fn resolve(path: &str) -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("../..")
        .join(path)
}

/// `--compare auto`: the one `BENCH_pr*.json` at the workspace root.
/// Panics (nonzero exit) unless there is exactly one, so the gate can
/// neither compare against nothing nor pick among stale baselines.
fn committed_baseline() -> PathBuf {
    let root = resolve(".");
    let entries = std::fs::read_dir(&root)
        .unwrap_or_else(|error| panic!("cannot list `{}`: {error}", root.display()));
    let found: Vec<PathBuf> = entries
        .flatten()
        .map(|entry| entry.path())
        .filter(|path| {
            let name = path.file_name().and_then(|name| name.to_str());
            name.is_some_and(|name| name.starts_with("BENCH_pr") && name.ends_with(".json"))
        })
        .collect();
    match found.as_slice() {
        [baseline] => baseline.clone(),
        _ => panic!("--compare auto needs exactly one BENCH_pr*.json, found {found:?}"),
    }
}

fn main() {
    let args: Vec<String> = std::env::args().collect();
    let seeds: usize = parse_flag(&args, "--seeds")
        .and_then(|v| v.parse().ok())
        .unwrap_or(50);
    // Stderr narration routes through one sink (`--quiet` silences it);
    // stdout stays the JSON document only.
    let progress = ProgressSink::new(!args.iter().any(|a| a == "--quiet"));

    let document = measure(seeds);
    let text = json::render(&document);
    println!("{text}");
    if let Some(path) = parse_flag(&args, "--out") {
        let path = resolve(&path);
        std::fs::write(&path, format!("{text}\n"))
            .unwrap_or_else(|error| panic!("cannot write `{}`: {error}", path.display()));
        progress.note(&format!("trajectory written to {}", path.display()));
    }
    if let Some(path) = parse_flag(&args, "--compare") {
        let path = if path == "auto" {
            committed_baseline()
        } else {
            resolve(&path)
        };
        let baseline = std::fs::read_to_string(&path)
            .map_err(|error| error.to_string())
            .and_then(|text| json::parse(&text))
            .unwrap_or_else(|error| panic!("cannot read baseline `{}`: {error}", path.display()));
        let failures = trajectory::compare(&document, &baseline);
        for failure in &failures {
            progress.note(&format!("comparator FAIL: {failure}"));
        }
        if !failures.is_empty() {
            std::process::exit(1);
        }
        progress.note(&format!("comparator: pass against {}", path.display()));
    }
}

/// Wall-clock milliseconds of one call, and its result.
fn timed<T>(work: impl FnOnce() -> T) -> (f64, T) {
    let start = Instant::now();
    let value = work();
    (start.elapsed().as_secs_f64() * 1e3, value)
}

/// Runs both closures, plain first for an even `order` and instrumented
/// first for an odd one.
fn alternate<A, B>(
    order: usize,
    plain: impl FnOnce() -> A,
    instrumented: impl FnOnce() -> B,
) -> (A, B) {
    if order.is_multiple_of(2) {
        let plain = plain();
        (plain, instrumented())
    } else {
        let instrumented = instrumented();
        (plain(), instrumented)
    }
}

fn median(mut values: Vec<f64>) -> f64 {
    values.sort_by(f64::total_cmp);
    values[values.len() / 2]
}

/// One overhead from its per-program instrumented/plain time ratios,
/// split by which run went first.  The second run of a pair finds the
/// program in the processor's caches and reads about 10% faster, so each
/// group's median is skewed by that order effect, in opposite directions;
/// their geometric mean cancels it.
fn overhead_pct(plain_first: Vec<f64>, instrumented_first: Vec<f64>) -> f64 {
    ((median(plain_first) * median(instrumented_first)).sqrt() - 1.0) * 100.0
}

fn rounded(value: f64) -> Json {
    Json::Number((value * 1e4).round() / 1e4)
}

/// The reference workload: string formatting, ordered-map updates and a
/// sort, sharing no code with the compiler or the validator, so that only
/// the machine moves its time.
fn reference_workload() {
    let mut state = 0x2545_f491_4f6c_dd1du64;
    let mut counts = BTreeMap::new();
    let mut words = Vec::new();
    for _ in 0..20_000 {
        state ^= state << 13;
        state ^= state >> 7;
        state ^= state << 17;
        *counts.entry(state % 4096).or_insert(0u64) += 1;
        words.push(format!("{state:x}"));
    }
    words.sort_unstable();
    std::hint::black_box((counts, words));
}

/// Pass pairs validated and the sessions' memo counters.
#[derive(Default)]
struct Tally {
    pairs: u64,
    stats: SessionStats,
}

impl Tally {
    /// Validates one compiled pass chain in the campaign worker
    /// configuration: a fresh session attached to the shared `cache`.
    fn validate(&mut self, result: &CompileResult, cache: &Arc<CampaignCache>) {
        let mut session = ValidationSession::with_cache(Arc::clone(cache));
        for (before, after) in result.pass_pairs() {
            self.pairs += 1;
            // Verdicts are the workload; pairs the interpreter cannot model
            // are skipped as the pipeline skips them.
            let _ = session.check_pair(&before.program, &after.program);
        }
        self.stats += session.stats();
    }

    fn to_json(&self) -> Json {
        let stats = &self.stats;
        json::object([
            ("pairs", self.pairs.into()),
            ("semantics_hits", stats.semantics_hits.into()),
            ("semantics_misses", stats.semantics_misses.into()),
            ("trivial_checks", stats.trivial_checks.into()),
            ("solver_checks", stats.solver_checks.into()),
            ("cached_checks", stats.cached_checks.into()),
            ("verdict_hits", stats.verdict_hits.into()),
            ("verdict_misses", stats.verdict_misses.into()),
        ])
    }
}

fn validate_all(results: &[CompileResult], cache: &Arc<CampaignCache>) -> Json {
    let mut tally = Tally::default();
    for result in results {
        tally.validate(result, cache);
    }
    tally.to_json()
}

/// The compiler under test: the catalogue's first P4C semantic seeded bug,
/// as in `gauntlet hunt --compiler DefUseDropsParameterWrites`, so that
/// validation reaches the solver (the reference compiler's chains all
/// discharge trivially).
fn hunted_compiler() -> Compiler {
    gauntlet_core::SeededBug::catalogue()
        .into_iter()
        .find(|b| b.platform() == gauntlet_core::Platform::P4c && !b.is_crash_class())
        .expect("catalogue has a P4C semantic bug")
        .build_compiler()
}

fn measure(seeds: usize) -> Json {
    let generate = || -> Vec<Program> {
        (0..seeds)
            .map(|seed| {
                RandomProgramGenerator::new(GeneratorConfig::tiny(), seed as u64).generate()
            })
            .collect()
    };
    let compiler = hunted_compiler();
    let programs = generate();
    let results: Vec<CompileResult> = programs
        .iter()
        .map(|program| {
            compiler
                .compile(program)
                .expect("generated programs compile")
        })
        .collect();

    let mut references = Vec::new();
    let mut sides: BTreeMap<&str, Vec<(f64, f64)>> = BTreeMap::new();
    let mut overheads: BTreeMap<&str, [Vec<f64>; 2]> = BTreeMap::new();
    let mut work = Json::Null;
    for rep in 0..REPETITIONS {
        let (reference, ()) = timed(reference_workload);
        references.push(reference);
        let mut record = |side, ms: f64| sides.entry(side).or_default().push((ms, ms / reference));
        let mut overhead = |name, order: usize, plain: f64, instrumented: f64| {
            overheads.entry(name).or_default()[order % 2].push(instrumented / plain);
        };
        record("gen", timed(generate).0);

        // Each program's compile and cold validation run once plain and
        // once instrumented, alternating which goes first; the overheads
        // are taken over these per-program pairs (see `overhead_pct`).
        let mut compile = 0.0;
        let mut coverage = p4c::coverage::PassCoverage::default();
        for (index, program) in programs.iter().enumerate() {
            let ((plain, _), (instrumented, (_, fired))) = alternate(
                rep + index,
                || timed(|| compiler.compile(program)),
                || timed(|| p4c::coverage::with_sink(|| compiler.compile(program))),
            );
            compile += plain;
            overhead("coverage", rep + index, plain, instrumented);
            coverage.merge(&fired);
        }
        record("compile", compile);

        // Cold validation fills `cache`, and warm validation re-runs the
        // same chains against it: the hit path of in-epoch revalidation.
        // The recorded cold run fills `barrier_cache`, which then crosses
        // an epoch barrier before the cross-epoch run revalidates.
        let cache = Arc::new(CampaignCache::new());
        let barrier_cache = Arc::new(CampaignCache::new());
        let mut cold = 0.0;
        let (mut cold_tally, mut recorded_tally) = (Tally::default(), Tally::default());
        let mut recorder = Some(Recorder::new());
        for (index, result) in results.iter().enumerate() {
            let (plain, instrumented) = alternate(
                rep + index,
                || timed(|| cold_tally.validate(result, &cache)).0,
                || {
                    gauntlet_telemetry::install(recorder.take().expect("recorder put back"));
                    let run = timed(|| recorded_tally.validate(result, &barrier_cache)).0;
                    recorder = gauntlet_telemetry::take();
                    run
                },
            );
            cold += plain;
            overhead("telemetry", rep + index, plain, instrumented);
        }
        assert!(
            !recorder.expect("recorder put back").is_empty(),
            "instrumented run recorded nothing"
        );
        record("validate_cold", cold);
        let cold_work = cold_tally.to_json();
        let (warm, warm_work) = timed(|| validate_all(&results, &cache));
        record("validate_warm", warm);
        barrier_cache.epoch_barrier();
        let (cross_epoch, cross_epoch_work) = timed(|| validate_all(&results, &barrier_cache));
        record("validate_cross_epoch", cross_epoch);

        let mut checker = MetamorphicChecker::with_cache(hunted_compiler(), Arc::clone(&cache));
        let options = MetamorphicOptions::default();
        let (mutate, mutants) = timed(|| {
            programs
                .iter()
                .enumerate()
                .map(|(seed, program)| {
                    let outcome = checker.check(program, &options, hunt_mutation_seed(seed as u64));
                    outcome.mutants_checked as u64
                })
                .sum::<u64>()
        });
        record("mutate", mutate);

        work = json::object([
            ("compile_distinct_pairs", coverage.distinct_pairs().into()),
            ("mutants_checked", mutants.into()),
            ("validate_cold", cold_work),
            ("validate_warm", warm_work),
            ("validate_cross_epoch", cross_epoch_work),
        ]);
    }

    let sides = sides.into_iter().map(|(side, samples)| {
        let (ms, per_reference): (Vec<f64>, Vec<f64>) = samples.into_iter().unzip();
        let summary = [
            ("ms", rounded(median(ms))),
            ("per_reference", rounded(median(per_reference))),
        ];
        (side, json::object(summary))
    });
    let overheads = overheads
        .into_iter()
        .map(|(name, [plain_first, instrumented_first])| {
            (name, rounded(overhead_pct(plain_first, instrumented_first)))
        });
    json::object([
        ("schema", trajectory::SCHEMA.into()),
        ("seeds", seeds.into()),
        ("repetitions", REPETITIONS.into()),
        ("reference_ms", rounded(median(references))),
        ("work", work),
        ("sides", json::object(sides)),
        ("overhead_pct", json::object(overheads)),
    ])
}
