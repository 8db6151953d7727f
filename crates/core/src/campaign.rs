//! The evaluation campaign layer: the seeded-bug table campaign that
//! regenerates the paper's Tables 2 and 3, and the parallel bug-hunting
//! engine ([`ParallelCampaign`]) that drives raw programs-per-second
//! throughput.
//!
//! For every seeded bug class the table campaign runs Gauntlet over the
//! class's Figure-5-style trigger program plus a configurable number of
//! random programs, using the technique appropriate to the platform
//! (translation validation for the open P4C pipeline, STF/PTF test replay
//! for the BMv2 and Tofino back ends).  Distinct findings are collected in
//! a [`BugDatabase`]; the report aggregates them into the same rows the
//! paper reports.
//!
//! Both campaigns shard work across `jobs` worker threads.  Every unit of
//! work derives its randomness from its own seed (never from a shared
//! stream) and results are committed in task order, so the output is
//! byte-identical regardless of thread count or schedule.
//!
//! In the hunt, one private unit does a seed's work: a `SeedWorker`
//! (built once per worker thread, and once for corpus replay) runs the
//! open-compiler check, the N-way differential, the metamorphic mutants
//! and reduction.  One commit rule, `HuntCommit::record`, counts what a
//! seed contributes — bugs, divergences, mutants, reduction failures — for
//! hunted seeds and replayed corpus entries alike.

use crate::bugs::{BugDatabase, BugKind, BugReport, CompilerArea, Platform, Technique};
use crate::corpus::{Corpus, CorpusEntry};
use crate::inject::SeededBug;
use crate::pipeline::{Gauntlet, GauntletOptions, MutationOutcome, ProgramOutcome};
use gauntlet_telemetry::json::Json;
use gauntlet_telemetry::{EventLog, Heartbeat, ProgressSink, Recorder, Stage};
use p4_gen::{GeneratorConfig, RandomProgramGenerator, WeightAdapter};
use p4_ir::{print_program, ConstructCensus, Program};
use p4_mutate::{hunt_mutation_seed, MetamorphicChecker, MetamorphicOptions, MutationCoverage};
use p4_symbolic::{CacheStats, CampaignCache, SessionStats, ValidationSession};
use p4c::coverage::PassCoverage;
use serde::{Deserialize, Serialize};
use std::collections::BTreeMap;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{mpsc, Arc, Mutex};
use std::time::{Duration, Instant};
use targets::{Target, TargetRegistry};

/// Campaign configuration.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct CampaignConfig {
    /// Random programs generated per seeded bug (in addition to the trigger
    /// program).
    pub random_programs_per_bug: usize,
    /// Seed for the random program generator.
    pub seed: u64,
    /// Maximum generated tests per program for black-box back ends.
    pub max_tests: usize,
    /// Also run every random program through the *correct* compiler and
    /// targets, to measure the false-alarm rate (it must be zero).
    pub check_false_alarms: bool,
    /// Worker threads to shard the bug classes across (0 runs one).
    /// The report is identical for every value.
    pub jobs: usize,
}

impl Default for CampaignConfig {
    fn default() -> Self {
        CampaignConfig {
            random_programs_per_bug: 5,
            seed: 0xC0FFEE,
            max_tests: 8,
            check_false_alarms: true,
            jobs: 1,
        }
    }
}

/// Per-bug-class outcome.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct SeededBugOutcome {
    pub bug: String,
    pub platform: Platform,
    pub area: CompilerArea,
    pub crash_class: bool,
    pub detected: bool,
    /// How many of the programs (trigger + random) exposed the bug.
    pub detecting_programs: usize,
    pub programs_run: usize,
}

/// The full campaign result.
#[derive(Debug, Clone, Default, Serialize, Deserialize)]
pub struct CampaignReport {
    pub outcomes: Vec<SeededBugOutcome>,
    /// Distinct findings per (platform, crash-like?) — the Table 2 analogue.
    pub by_platform: BTreeMap<String, usize>,
    /// Distinct findings per compiler area — the Table 3 analogue.
    pub by_area: BTreeMap<String, usize>,
    /// Distinct findings per differential attribution (target name or
    /// `"model"`); empty when no target/differential findings occurred.
    pub by_attribution: BTreeMap<String, usize>,
    /// Findings flagged while running the *correct* compiler (must be 0).
    pub false_alarms: usize,
    /// Total distinct bugs detected.
    pub total_detected: usize,
    /// Pass-rule coverage, when the producing hunt was coverage-guided
    /// (rendered by `render_table2` as a coverage block).
    pub coverage: Option<CoverageSummary>,
    /// Mutation statistics, when the producing hunt ran the metamorphic
    /// oracle (rendered by `render_table2` as a mutation block).
    pub mutation: Option<MutationSummary>,
}

impl CampaignReport {
    /// Detected bug count for a platform split into (crash, semantic).
    pub fn platform_counts(&self, platform: Platform) -> (usize, usize) {
        let crash = self
            .by_platform
            .get(&format!("{platform}/crash"))
            .copied()
            .unwrap_or(0);
        let semantic = self
            .by_platform
            .get(&format!("{platform}/semantic"))
            .copied()
            .unwrap_or(0);
        (crash, semantic)
    }

    pub fn area_count(&self, area: CompilerArea) -> usize {
        self.by_area.get(&area.to_string()).copied().unwrap_or(0)
    }
}

/// Everything one seeded bug class contributes to the campaign report.
struct ClassResult {
    outcome: SeededBugOutcome,
    reports: Vec<BugReport>,
    false_alarms: usize,
}

/// Runs Gauntlet over one bug class: the trigger program plus the
/// configured number of random programs, all derived from the class's own
/// seed (so the result is independent of which worker runs it).
fn run_bug_class(config: &CampaignConfig, bug_index: usize, bug: SeededBug) -> ClassResult {
    let gauntlet = Gauntlet::new(GauntletOptions {
        max_tests: config.max_tests,
    });
    let mut programs: Vec<Program> = vec![bug.trigger_program()];
    let generator_config = match bug.architecture() {
        "tna" => GeneratorConfig::tofino(),
        _ => GeneratorConfig::default(),
    };
    let mut generator = RandomProgramGenerator::new(
        generator_config,
        config.seed.wrapping_add(bug_index as u64 * 1009),
    );
    for _ in 0..config.random_programs_per_bug {
        programs.push(generator.generate());
    }

    let mut detecting_programs = 0usize;
    let mut false_alarms = 0usize;
    let mut reports: Vec<BugReport> = Vec::new();
    for program in &programs {
        let outcome = bug.detect(&gauntlet, program);
        if !outcome.is_empty() {
            detecting_programs += 1;
        }
        reports.extend(outcome);

        if config.check_false_alarms {
            false_alarms += count_false_alarms(&gauntlet, bug, program);
        }
    }
    ClassResult {
        outcome: SeededBugOutcome {
            bug: bug.name(),
            platform: bug.platform(),
            area: bug.area(),
            crash_class: bug.is_crash_class(),
            detected: !reports.is_empty(),
            detecting_programs,
            programs_run: programs.len(),
        },
        reports,
        false_alarms,
    }
}

/// Runs the full campaign, sharding bug classes across `config.jobs`
/// worker threads.  Results are aggregated in class order, so the report is
/// identical for every thread count.
pub fn run_campaign(config: &CampaignConfig) -> CampaignReport {
    let catalogue = SeededBug::catalogue();
    let next = AtomicUsize::new(0);
    let (sender, receiver) = mpsc::channel::<(usize, ClassResult)>();
    std::thread::scope(|scope| {
        for _ in 0..config.jobs.min(catalogue.len()).max(1) {
            let sender = sender.clone();
            let next = &next;
            let catalogue = &catalogue;
            scope.spawn(move || loop {
                let index = next.fetch_add(1, Ordering::Relaxed);
                let Some(&bug) = catalogue.get(index) else {
                    break;
                };
                if sender
                    .send((index, run_bug_class(config, index, bug)))
                    .is_err()
                {
                    break;
                }
            });
        }
    });
    drop(sender);
    let mut results: Vec<(usize, ClassResult)> = receiver.into_iter().collect();
    results.sort_by_key(|(index, _)| *index);

    let mut database = BugDatabase::new();
    let mut outcomes = Vec::new();
    let mut false_alarms = 0usize;
    for (_, class) in results {
        for report in class.reports {
            database.record(report);
        }
        false_alarms += class.false_alarms;
        outcomes.push(class.outcome);
    }
    let mut report = summarise(&database);
    report.outcomes = outcomes;
    report.false_alarms = false_alarms;
    report
}

/// Aggregates a de-duplicated bug database into the count maps of a
/// [`CampaignReport`] (`outcomes` and `false_alarms` are left for the
/// caller to fill in, when applicable).
fn summarise(database: &BugDatabase) -> CampaignReport {
    let mut by_platform = BTreeMap::new();
    for ((platform, crash_like), count) in database.count_by_platform() {
        let key = format!(
            "{platform}/{}",
            if crash_like { "crash" } else { "semantic" }
        );
        by_platform.insert(key, count);
    }
    let mut by_area = BTreeMap::new();
    for (area, count) in database.count_by_area() {
        by_area.insert(area.to_string(), count);
    }
    CampaignReport {
        outcomes: Vec::new(),
        by_platform,
        by_area,
        by_attribution: database.count_by_attribution(),
        false_alarms: 0,
        total_detected: database.len(),
        coverage: None,
        mutation: None,
    }
}

/// Runs the same program through the *correct* pipeline; any finding is a
/// false alarm (an interpreter/validator bug in our tooling, paper §5.2).
fn count_false_alarms(gauntlet: &Gauntlet, bug: SeededBug, program: &Program) -> usize {
    let mut reports = match bug.target_name() {
        None => {
            gauntlet
                .check_open_compiler(&p4c::Compiler::reference(), program)
                .reports
        }
        Some(name) => {
            let target = TargetRegistry::builtin()
                .build(name)
                .expect("builtin targets are registered");
            gauntlet.check_target(&*target, program).reports
        }
    };
    // Driver bugs are hunted metamorphically, so the false-alarm discipline
    // extends to the new oracle: the reference compiler must prove every
    // mutant equivalent (a finding here is a mutator or validator bug in
    // our own tooling).
    if matches!(bug, SeededBug::Driver(_)) {
        let mut checker = MetamorphicChecker::new(p4c::Compiler::reference());
        reports.extend(
            gauntlet
                .check_mutants(
                    &mut checker,
                    program,
                    &MetamorphicOptions::default(),
                    p4_mutate::CAMPAIGN_MUTATION_SEED,
                )
                .reports,
        );
    }
    reports
        .iter()
        .filter(|r| !matches!(r.kind, BugKind::InvalidTransformation))
        .count()
}

// ---------------------------------------------------------------------------
// The parallel bug-hunting engine.
// ---------------------------------------------------------------------------

/// Configuration of a [`ParallelCampaign`] hunt over a contiguous seed range.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct HuntConfig {
    /// Worker threads (`--jobs N`).  1 = sequential.  Output is identical
    /// for every value.
    pub jobs: usize,
    /// First seed of the range.
    pub seed_start: u64,
    /// Number of seeds (one generated program per seed).
    pub seed_count: usize,
    /// Program-generator configuration used for every seed.
    pub generator: GeneratorConfig,
    /// Stop early once this many bug reports have been committed.  Early
    /// stop is deterministic: results commit strictly in seed order, so the
    /// stopping point does not depend on the schedule (workers may *process*
    /// a few extra seeds past it, but never commit them).
    pub bug_quota: Option<usize>,
    /// Delta-debug every committed finding down to a minimal reproducer
    /// (paper §7: all 96 upstream reports were filed as reduced programs).
    /// Reduction runs on the worker that found the bug — sharded across the
    /// pool like the hunt itself — and is deterministic per seed, so
    /// reports stay byte-identical across `jobs` settings.  Only
    /// open-compiler findings are reduced; target-attributed differential
    /// findings are committed as-is.
    pub reduce_reports: bool,
    /// Back ends to run N-way differential testgen on, as
    /// `targets::TargetRegistry` spec strings (e.g. `"bmv2"`,
    /// `"ref-interp"`, or `"bmv2+Bmv2ExitIgnored"` to seed a defect).
    /// Empty (the default) hunts the open compiler only; with `n` specs
    /// every generated program additionally runs through
    /// [`Gauntlet::check_differential`] across all `n` targets, with
    /// majority-vote attribution.
    pub targets: Vec<String>,
    /// Coverage-guided hunting (`gauntlet hunt --coverage`).  `None` hunts
    /// with static weights, exactly as before.
    pub coverage: Option<CoverageOptions>,
    /// Metamorphic mutation hunting (`gauntlet hunt --mutants N`).  With
    /// options set, every generated program additionally spawns a family of
    /// semantics-preserving mutants whose compiled forms are proved
    /// equivalent to the compiled seed ([`Gauntlet::check_mutants`]); with
    /// [`CoverageOptions::corpus`] also set, replayed corpus entries are
    /// mutated too.  Mutant derivation is a pure function of the seed and
    /// findings commit at the ordered-commit point, so reports stay
    /// byte-identical at any `--jobs`.
    pub mutation: Option<MetamorphicOptions>,
    /// Share one [`CampaignCache`] across the worker pool, living for the
    /// whole campaign: semantics are interpreted and per-block equivalence
    /// queries decided once per campaign no matter which worker — or which
    /// epoch — gets there first.  Growth is bounded by a deterministic
    /// eviction sweep at each epoch barrier
    /// ([`CampaignCache::epoch_barrier`]).  Cached SAT verdicts carry
    /// canonical models, so the rendered report is byte-identical with the
    /// cache on or off, at any `--jobs`.  On by default — this is where the
    /// campaign validate-throughput comes from (`BENCH_pr22.json` pins
    /// the warm and cross-epoch runs at 0 solver checks).
    pub epoch_cache: bool,
    /// Flight-recorder telemetry (`--events` and the heartbeat).  `None`
    /// (the default) records nothing and pays nothing: every instrumentation
    /// hook in the stack is a single thread-local read.  With options set,
    /// each worker carries a [`gauntlet_telemetry::Recorder`] that is merged
    /// at the epoch barrier into [`HuntReport::telemetry`], wall-clock
    /// events stream to the JSONL log, and a progress heartbeat prints to
    /// stderr.  Strictly observation-only: reports and corpus bytes are
    /// byte-identical with telemetry on or off, at any `--jobs` (pinned by
    /// `tests/telemetry.rs`).
    pub telemetry: Option<TelemetryOptions>,
}

impl Default for HuntConfig {
    fn default() -> Self {
        HuntConfig {
            jobs: 1,
            seed_start: 0,
            seed_count: 100,
            generator: GeneratorConfig::tiny(),
            bug_quota: None,
            reduce_reports: false,
            targets: Vec::new(),
            coverage: None,
            mutation: None,
            epoch_cache: true,
            telemetry: None,
        }
    }
}

impl HuntConfig {
    /// The configuration for one contiguous shard of this hunt's seed
    /// range: seeds `[seed_start + offset, seed_start + offset + count)`,
    /// everything else unchanged.  Because every seed derives its
    /// randomness from itself alone, a shard processes exactly the seeds
    /// the full-range hunt would — this is the fleet's work-splitting
    /// entry point.
    pub fn shard(&self, offset: u64, count: usize) -> HuntConfig {
        HuntConfig {
            seed_start: self.seed_start + offset,
            seed_count: count,
            ..self.clone()
        }
    }

    /// Check that every differential target spec resolves through the
    /// built-in registry, so a typo fails before any work starts, with the
    /// list of known targets, instead of poisoning a worker.
    pub fn validate(&self) -> Result<(), String> {
        let registry = TargetRegistry::builtin();
        for spec in &self.targets {
            registry
                .build_spec(spec)
                .map_err(|error| error.to_string())?;
        }
        Ok(())
    }
}

/// Options for the flight recorder (see [`HuntConfig::telemetry`]).
#[derive(Clone, Serialize, Deserialize)]
pub struct TelemetryOptions {
    /// The out-of-band JSONL event log (`--events PATH`, opened with
    /// [`EventLog::create`]; fleet workers pass a log framed over their
    /// stdout protocol channel).  Every line is one `gauntlet-events-v1`
    /// object with a wall-clock `ts_ms`, explicitly excluded from the
    /// deterministic artifacts.  `None` records spans and counters but
    /// streams no events.
    pub events: Option<Arc<EventLog>>,
    /// Print the live progress heartbeat (seeds/sec, bugs found, cache hit
    /// rate, ETA) to stderr, one line every 25 committed seeds.
    pub progress: bool,
}

/// Committed seeds between progress heartbeat lines.
const HEARTBEAT_EVERY: usize = 25;

impl std::fmt::Debug for TelemetryOptions {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        // Manual because `EventLog` (a mutex over an arbitrary writer) has
        // no useful `Debug` form.
        f.debug_struct("TelemetryOptions")
            .field("events", &self.events.as_ref().map(|_| "EventLog"))
            .field("progress", &self.progress)
            .finish()
    }
}

impl Default for TelemetryOptions {
    fn default() -> Self {
        TelemetryOptions {
            events: None,
            progress: true,
        }
    }
}

/// Options for a coverage-guided hunt: the generate→compile→validate loop
/// is closed by accumulating pass-rule coverage (`p4c::coverage`) plus the
/// construct census of every generated program, re-deriving the generator
/// weights from it once per epoch, and persisting coverage-advancing
/// programs to a corpus.
///
/// Determinism: per-seed coverage is merged strictly in seed order at the
/// ordered-commit point, epochs only start after the previous epoch has
/// fully committed, and the [`WeightAdapter`] is a pure function — so
/// coverage, corpus, and reports are byte-identical at any `--jobs`.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct CoverageOptions {
    /// Seeds per adaptation epoch: weights are re-derived from accumulated
    /// coverage every `adapt_every` committed seeds.
    pub adapt_every: usize,
    /// Steer generator weights toward unfired rules.  Disable to account
    /// coverage without adapting — the unguided baseline the evaluation
    /// compares against.
    pub adapt: bool,
    /// Corpus file path: loaded and replayed before generation starts (a
    /// missing file is an empty corpus), appended with programs that newly
    /// cover a rule, and saved back after the hunt.
    pub corpus: Option<String>,
    /// Feed uncovered cross-pass interaction pairs to the weight adapter
    /// alongside unfired rules (see `p4c::coverage::pass_boundary`).  Pair
    /// *tracking* is always on — the report's `coverage.pairs` block and
    /// corpus pair admission do not depend on this flag — only the steering
    /// signal is gated, so a rule-only baseline stays comparable.
    pub pairs: bool,
}

impl Default for CoverageOptions {
    fn default() -> Self {
        CoverageOptions {
            adapt_every: 25,
            adapt: true,
            corpus: None,
            pairs: true,
        }
    }
}

/// The coverage block of a hunt report (deterministic across `--jobs`).
#[derive(Debug, Clone, Default, PartialEq, Serialize, Deserialize)]
pub struct CoverageSummary {
    /// Sorted fired rule keys (`"pass/rule"`).
    pub fired: Vec<String>,
    /// Size of the rule universe (`p4c::coverage::total_rules`).
    pub rules_total: usize,
    /// Distinct `context/kind` construct pairs seen across all programs.
    pub constructs_seen: usize,
    /// Corpus size after the hunt (loaded + newly admitted).
    pub corpus_size: usize,
    /// Entries admitted by this hunt.
    pub corpus_added: usize,
    /// Coverage over time: `(programs committed, distinct rules fired)` at
    /// each epoch boundary.
    pub rules_over_time: Vec<(usize, usize)>,
    /// Sorted observed cross-pass interaction pair keys (`"a->b"`).
    pub pairs: Vec<String>,
    /// Size of the pair universe (`p4c::coverage::total_pairs`).
    pub pairs_total: usize,
}

impl CoverageSummary {
    /// Number of distinct rules fired.
    pub fn rules_fired(&self) -> usize {
        self.fired.len()
    }

    /// Number of distinct cross-pass pairs observed.
    pub fn pairs_fired(&self) -> usize {
        self.pairs.len()
    }

    /// Renders the coverage block (used by both `HuntReport::render` and
    /// `render_table2`).
    pub fn render(&self) -> String {
        use std::fmt::Write;
        let mut out = String::new();
        let _ = writeln!(
            out,
            "coverage: {}/{} pass-rewrite rules fired, {} construct pairs seen",
            self.rules_fired(),
            self.rules_total,
            self.constructs_seen
        );
        let _ = writeln!(
            out,
            "interactions: {}/{} cross-pass rule pairs observed",
            self.pairs_fired(),
            self.pairs_total
        );
        let _ = writeln!(
            out,
            "corpus: {} program(s) ({} added this hunt)",
            self.corpus_size, self.corpus_added
        );
        if !self.rules_over_time.is_empty() {
            let trajectory: Vec<String> = self
                .rules_over_time
                .iter()
                .map(|(programs, rules)| format!("{programs}:{rules}"))
                .collect();
            let _ = writeln!(
                out,
                "coverage over time (programs:rules): {}",
                trajectory.join(" ")
            );
        }
        out
    }
}

/// The mutation block of a hunt report (deterministic across `--jobs`),
/// mirroring [`CoverageSummary`] for the metamorphic dimension: how many
/// mutants were checked, how many convicted the compiler, and which mutator
/// rules of `p4_mutate::ALL_MUTATORS` were exercised.
#[derive(Debug, Clone, Default, PartialEq, Serialize, Deserialize)]
pub struct MutationSummary {
    /// Mutants generated, mutated, and proved (or disproved) equivalent.
    pub mutants_checked: usize,
    /// Committed metamorphic divergence reports.
    pub divergent: usize,
    /// Sorted applied mutator-rule keys (`"mutator/rule"`).
    pub fired: Vec<String>,
    /// Size of the mutator-rule universe (`p4_mutate::total_rules`).
    pub rules_total: usize,
}

impl MutationSummary {
    /// Number of distinct mutator rules applied.
    pub fn rules_fired(&self) -> usize {
        self.fired.len()
    }

    /// Renders the mutation block (used by both `HuntReport::render` and
    /// `render_table2`).
    pub fn render(&self) -> String {
        format!(
            "mutation: {} mutant(s) checked, {} divergent, {}/{} mutator rules applied\n",
            self.mutants_checked,
            self.divergent,
            self.rules_fired(),
            self.rules_total
        )
    }
}

/// The diversity block of a merged fleet report: how the swarm's worker
/// slices each contributed to the de-duplicated bug pool.  Only a fleet
/// coordinator running with worker diversity produces one; a single-process
/// hunt (and a uniform fleet) reports `None`.
///
/// Deterministic: slices are a pure function of the fleet spec (shard index
/// modulo worker count), and the per-slice counts are derived from the
/// merged triage store, so resumed and uninterrupted runs agree.
#[derive(Debug, Clone, Default, PartialEq, Serialize, Deserialize)]
pub struct DiversitySummary {
    /// Number of diversity slices (the spec's worker count).
    pub slices: usize,
    /// Distinct de-duplicated bugs whose provenance includes each slice,
    /// keyed by slice label (`"slice-N"`).  Slices that found nothing are
    /// present with a zero count, so yield comparisons read directly.
    pub distinct_bugs: BTreeMap<String, usize>,
}

impl DiversitySummary {
    /// Renders the diversity block (appended to `HuntReport::render` by the
    /// fleet coordinator's merged report).
    pub fn render(&self) -> String {
        let yields: Vec<String> = self
            .distinct_bugs
            .iter()
            .map(|(slice, count)| format!("{slice}:{count}"))
            .collect();
        format!(
            "diversity: {} slice(s); distinct bugs per slice: {}\n",
            self.slices,
            if yields.is_empty() {
                "-".to_string()
            } else {
                yields.join(" ")
            }
        )
    }
}

/// The epoch-cache block of a hunt report: pool-wide memo counters summed
/// over every epoch, plus the per-worker session tallies summed over every
/// worker (the two reconcile at the lookup level — see
/// `tests/perf_cache.rs`).
///
/// Like [`HuntReport::elapsed`] and [`HuntReport::per_worker`] this
/// describes the particular run, not the deterministic result: hit counts
/// depend on how many seeds workers *processed* (which may overshoot a
/// quota stop by a schedule-dependent amount), so the summary is
/// deliberately excluded from [`HuntReport::render`].
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CacheSummary {
    /// Epochs that ran with a shared cache (0 when `epoch_cache` is off).
    pub epochs: usize,
    /// Exact pool-wide cache counters, summed across epochs.
    pub stats: CacheStats,
    /// Per-session counters summed over every session of the run
    /// (translation validation and metamorphic checkers alike, corpus
    /// replay included).
    pub sessions: SessionStats,
}

impl CacheSummary {
    /// Field-wise sum.  Fleet workers report per-shard deltas, so summing
    /// over fragments gives fleet-wide totals.
    pub fn add(&mut self, other: &CacheSummary) {
        self.epochs += other.epochs;
        self.stats += other.stats;
        self.sessions += other.sessions;
    }
}

/// The findings one seed contributed (clean seeds are not recorded).
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct SeedOutcome {
    pub seed: u64,
    pub reports: Vec<BugReport>,
}

/// The result of a [`ParallelCampaign`] run.
///
/// `outcomes`, `programs_checked`, and `total_bugs` are deterministic
/// functions of the configuration; `elapsed`, `per_worker`, `cache` and
/// `telemetry` describe the particular run.  `corpus` and `census` are the
/// coverage state the run ended with, handed back to the caller rather than
/// rendered.
#[derive(Debug, Clone)]
pub struct HuntReport {
    /// Seeds whose program exposed at least one bug, in ascending seed
    /// order.
    pub outcomes: Vec<SeedOutcome>,
    /// Programs committed (equals the seed count unless a quota stopped the
    /// hunt early).
    pub programs_checked: usize,
    /// Total committed bug reports.
    pub total_bugs: usize,
    /// Wall-clock duration of the hunt.
    pub elapsed: Duration,
    /// Programs processed per worker (schedule-dependent; sums to at least
    /// `programs_checked`).
    pub per_worker: Vec<usize>,
    /// Committed findings that could not be reduced despite
    /// [`HuntConfig::reduce_reports`] being set (always 0 when reduction is
    /// off).  Nonzero means a reduction oracle, which re-runs the detection
    /// pipeline, failed to reproduce a finding that pipeline filed — worth
    /// investigating.
    pub reduction_failures: usize,
    /// The coverage block (present iff [`HuntConfig::coverage`] was set).
    pub coverage: Option<CoverageSummary>,
    /// The mutation block (present iff [`HuntConfig::mutation`] was set).
    pub mutation: Option<MutationSummary>,
    /// The swarm-diversity block.  A single-process hunt never produces
    /// one; the fleet coordinator fills it in on the merged report when the
    /// spec enables worker diversity.
    pub diversity: Option<DiversitySummary>,
    /// Epoch-cache counters (present iff [`HuntConfig::epoch_cache`] was
    /// set).
    /// Run-descriptive like `elapsed`: not part of [`HuntReport::render`].
    pub cache: Option<CacheSummary>,
    /// The aggregated flight recorder (present iff
    /// [`HuntConfig::telemetry`] was set): stage spans, per-pass and
    /// per-rule counters, and the solver-query latency histogram, merged
    /// across every worker at the epoch barriers.  Its *counters* are
    /// schedule-independent; its *timings* are wall-clock, so like
    /// `elapsed` the whole block is excluded from [`HuntReport::render`]
    /// and from the deterministic half of the JSON report.
    pub telemetry: Option<Recorder>,
    /// The corpus after the hunt: the loaded entries, then those this run
    /// admitted, exactly as saved to [`CoverageOptions::corpus`] (present
    /// iff [`HuntConfig::coverage`] was set).  Fleet workers ship it in
    /// their fragment.  Neither rendered nor part of the JSON report; a
    /// report read back from JSON or merged by the fleet carries none.
    pub corpus: Option<Corpus>,
    /// The construct census of every program the run committed or replayed
    /// (present iff [`HuntConfig::coverage`] was set); the report renders
    /// only its size, [`CoverageSummary::constructs_seen`].
    pub census: Option<ConstructCensus>,
}

impl HuntReport {
    /// End-to-end throughput in programs per second.
    pub fn throughput(&self) -> f64 {
        if self.elapsed.is_zero() {
            0.0
        } else {
            self.programs_checked as f64 / self.elapsed.as_secs_f64()
        }
    }

    /// Renders the deterministic portion of the report: one block per
    /// bug-exposing seed.  Byte-identical across `jobs` settings.
    pub fn render(&self) -> String {
        use std::fmt::Write;
        let mut out = String::new();
        let _ = writeln!(
            out,
            "programs checked: {}, seeds with bugs: {}, bug reports: {}",
            self.programs_checked,
            self.outcomes.len(),
            self.total_bugs
        );
        if self.reduction_failures > 0 {
            let _ = writeln!(
                out,
                "WARNING: {} committed finding(s) could not be reduced (oracle mismatch)",
                self.reduction_failures
            );
        }
        for outcome in &self.outcomes {
            let _ = writeln!(out, "seed {}:", outcome.seed);
            for report in &outcome.reports {
                let _ = writeln!(
                    out,
                    "  [{:?}/{}/{}] pass {}: {}{}",
                    report.kind,
                    report.platform,
                    report.area,
                    report.pass.as_deref().unwrap_or("-"),
                    report.message.lines().next().unwrap_or(""),
                    match report.attributed_to.as_deref() {
                        Some(participant) => format!(" [attributed: {participant}]"),
                        None => String::new(),
                    }
                );
                if let Some(stats) = &report.reduction {
                    let _ = writeln!(
                        out,
                        "    minimized: {} -> {} statements ({} oracle calls, {} steps)",
                        stats.initial_statements,
                        stats.final_statements,
                        stats.oracle_calls,
                        stats.accepted_steps
                    );
                }
            }
        }
        if let Some(coverage) = &self.coverage {
            out.push_str(&coverage.render());
        }
        if let Some(mutation) = &self.mutation {
            out.push_str(&mutation.render());
        }
        if let Some(diversity) = &self.diversity {
            out.push_str(&diversity.render());
        }
        out
    }

    /// Aggregates the hunt's committed findings into the count maps of a
    /// [`CampaignReport`] (platform × kind, compiler area, differential
    /// attribution), de-duplicated the same way the table campaign
    /// de-duplicates — so `render_table2`/`render_table3` work on hunt
    /// results too.
    pub fn campaign_summary(&self) -> CampaignReport {
        let mut database = BugDatabase::new();
        for outcome in &self.outcomes {
            for report in &outcome.reports {
                database.record(report.clone());
            }
        }
        let mut report = summarise(&database);
        report.coverage = self.coverage.clone();
        report.mutation = self.mutation.clone();
        report
    }
}

/// What one seed contributes to the commit queue.
struct SeedResult {
    reports: Vec<BugReport>,
    /// Coverage observation (present iff the hunt is coverage-guided).
    observed: Option<SeedObservation>,
    /// Mutation observation (present iff the hunt mutates):
    /// `(rules applied, mutants checked)`.
    mutated: Option<(MutationCoverage, usize)>,
}

/// The coverage a seed's program produced, captured on the worker and
/// merged into the shared accumulator at the ordered-commit point.  The
/// program rides along so corpus admission can print it — only the rare
/// coverage-advancing seeds pay for rendering.
struct SeedObservation {
    coverage: PassCoverage,
    census: ConstructCensus,
    program: Program,
}

/// Coverage state guarded by the commit lock: merged strictly in seed
/// order, so corpus admission ("did this program newly cover a rule?") is
/// schedule-independent.
struct GuidedCommit {
    accum: PassCoverage,
    census: ConstructCensus,
    corpus: Corpus,
    corpus_added: usize,
    /// `(programs committed, distinct rules fired)` at each epoch boundary.
    rules_over_time: Vec<(usize, usize)>,
}

impl GuidedCommit {
    /// Merges one committed seed's observation; programs that newly cover a
    /// rule *or* a cross-pass rule pair are admitted to the corpus (with
    /// their *full* fired-rule and fired-pair sets, so the corpus
    /// fingerprints equal the unions over its entries).
    fn commit(&mut self, seed: u64, observation: SeedObservation) {
        if observation.coverage.covers_beyond(&self.accum) {
            self.corpus.entries.push(CorpusEntry {
                seed,
                rules: observation.coverage.fired_keys(),
                pairs: observation.coverage.fired_pair_keys(),
                source: print_program(&observation.program),
            });
            self.corpus_added += 1;
        }
        self.accum.merge(&observation.coverage);
        self.census.merge(&observation.census);
    }
}

/// Mutation state guarded by the commit lock, merged strictly in seed
/// order like [`GuidedCommit`].
#[derive(Default)]
struct MutationAccum {
    coverage: MutationCoverage,
    mutants: usize,
    divergent: usize,
}

/// The flight-recorder runtime of one hunt: the event log, the progress
/// sink, and the pool-wide recorder aggregate.  Everything here is strictly
/// out-of-band — it observes the hunt but never feeds back into it, which
/// is what keeps reports and corpus bytes identical with telemetry on/off.
struct HuntTelemetry {
    events: Option<Arc<EventLog>>,
    progress: ProgressSink,
    started: Instant,
    aggregate: Mutex<Recorder>,
}

impl HuntTelemetry {
    fn new(options: &TelemetryOptions) -> HuntTelemetry {
        HuntTelemetry {
            events: options.events.clone(),
            progress: ProgressSink::new(options.progress),
            started: Instant::now(),
            aggregate: Mutex::new(Recorder::new()),
        }
    }

    fn emit(&self, event: &str, fields: &[(&str, Json)]) {
        if let Some(log) = &self.events {
            log.emit(event, fields);
        }
    }

    /// Fold one worker's recorder into the pool-wide aggregate (called at
    /// the epoch barrier; merge is commutative so the aggregate counters
    /// are schedule-independent).
    fn absorb(&self, recorder: &Recorder) {
        self.aggregate
            .lock()
            .expect("telemetry lock")
            .merge(recorder);
    }
}

/// Commit state shared by the hunt workers: results enter `pending` in any
/// order and are committed strictly in task order, which makes early stop
/// (and therefore the whole report) schedule-independent.
struct HuntCommit {
    pending: BTreeMap<usize, SeedResult>,
    next: usize,
    committed: Vec<SeedOutcome>,
    programs_checked: usize,
    bugs: usize,
    /// Committed findings lacking `minimized` although reduction was on.
    reduction_failures: usize,
    /// Coverage accumulation (present iff the hunt is coverage-guided).
    guided: Option<GuidedCommit>,
    /// Mutation accumulation (present iff the hunt mutates).
    mutation: Option<MutationAccum>,
    /// Committed-seed count at which the next heartbeat prints (telemetry
    /// bookkeeping only — never read by the commit logic itself).
    next_heartbeat: usize,
}

impl HuntCommit {
    /// Whether the bug quota is met.  Nothing commits past that point, and
    /// since bugs only grow the stop is final.
    fn stopped(&self, config: &HuntConfig) -> bool {
        config.bug_quota.is_some_and(|quota| self.bugs >= quota)
    }

    /// The commit rule, shared by the ordered drain and corpus replay: the
    /// only code that counts bugs, metamorphic divergences, mutants and
    /// reduction failures, and that pushes outcomes.
    fn record(
        &mut self,
        config: &HuntConfig,
        seed: u64,
        reports: Vec<BugReport>,
        mutated: Option<(MutationCoverage, usize)>,
    ) {
        if let Some(mutation) = &mut self.mutation {
            if let Some((coverage, mutants)) = mutated {
                mutation.coverage.merge(&coverage);
                mutation.mutants += mutants;
            }
            mutation.divergent += reports
                .iter()
                .filter(|r| matches!(r.kind, BugKind::Metamorphic))
                .count();
        }
        if reports.is_empty() {
            return;
        }
        self.bugs += reports.len();
        if config.reduce_reports {
            // Counted over *committed* reports only, so the tally is
            // schedule-independent.  Differential findings are exempt (they
            // are never reduced).
            self.reduction_failures += reports
                .iter()
                .filter(|r| r.platform == Platform::P4c && r.minimized.is_none())
                .count();
        }
        self.committed.push(SeedOutcome { seed, reports });
    }

    /// Drains the contiguous prefix of `pending`, committing results in
    /// strict seed order (coverage merge, corpus admission, [`Self::record`],
    /// quota early stop).  `telemetry` and `cache` are observation-only:
    /// they emit seed/bug events and the heartbeat but never influence what
    /// commits.
    fn drain(
        &mut self,
        config: &HuntConfig,
        telemetry: Option<&HuntTelemetry>,
        cache: Option<&Arc<CampaignCache>>,
    ) {
        while !self.stopped(config) {
            let Some(result) = self.pending.remove(&self.next) else {
                break;
            };
            let committed_seed = config.seed_start + self.next as u64;
            self.next += 1;
            self.programs_checked += 1;
            if let (Some(guided), Some(observation)) = (&mut self.guided, result.observed) {
                guided.commit(committed_seed, observation);
            }
            if let Some(telemetry) = telemetry {
                telemetry.emit(
                    "seed",
                    &[
                        ("seed", committed_seed.into()),
                        ("bugs", result.reports.len().into()),
                    ],
                );
                for report in &result.reports {
                    telemetry.emit(
                        "bug",
                        &[
                            ("seed", committed_seed.into()),
                            ("kind", format!("{:?}", report.kind).into()),
                            ("platform", report.platform.to_string().into()),
                            ("pass", report.pass.as_deref().into()),
                            ("attributed_to", report.attributed_to.as_deref().into()),
                        ],
                    );
                }
            }
            self.record(config, committed_seed, result.reports, result.mutated);
            if let Some(telemetry) = telemetry.filter(|t| t.progress.is_enabled()) {
                if self.programs_checked >= self.next_heartbeat {
                    self.next_heartbeat = self.programs_checked + HEARTBEAT_EVERY;
                    let elapsed = telemetry.started.elapsed().as_secs_f64();
                    let rate = if elapsed > 0.0 {
                        self.programs_checked as f64 / elapsed
                    } else {
                        0.0
                    };
                    let remaining = config.seed_count.saturating_sub(self.programs_checked);
                    let cache_hit_rate = cache.and_then(|cache| {
                        let stats = cache.stats();
                        let lookups = stats.semantics_lookups() + stats.verdict_lookups();
                        (lookups > 0).then(|| {
                            (stats.semantics_hits + stats.verdict_hits) as f64 / lookups as f64
                        })
                    });
                    telemetry.progress.heartbeat(&Heartbeat {
                        done: self.programs_checked,
                        total: config.seed_count,
                        bugs: self.bugs,
                        seeds_per_sec: rate,
                        cache_hit_rate,
                        eta_secs: (rate > 0.0).then(|| remaining as f64 / rate),
                    });
                }
            }
        }
    }
}

/// Replays the corpus ahead of generation, sequentially and in corpus order
/// (part of the determinism contract): every kept program re-fires its
/// rules, warming the accumulator so the first epoch's weights already
/// steer toward the genuinely uncovered rules.  Replayed entries are
/// mutated too — the corpus multiplies into mutant families for free on
/// every campaign start — and their findings are reduced and committed
/// through the same [`SeedWorker`] and [`HuntCommit::record`] as hunted
/// seeds.  They are not translation-validated, not counted as programs
/// checked, emit no seed events, and commit even past the bug quota.
/// Returns the replay's session counters.
fn replay_corpus<F>(
    config: &HuntConfig,
    factory: &F,
    cache: Option<&Arc<CampaignCache>>,
    commit: &mut HuntCommit,
) -> SessionStats
where
    F: Fn() -> p4c::Compiler,
{
    let Some(mut guided) = commit.guided.take() else {
        return SessionStats::default();
    };
    let mut worker = SeedWorker::new(config, factory, cache);
    let hunted = config.seed_start..config.seed_start + config.seed_count as u64;
    for entry in &guided.corpus.entries {
        let program = p4_parser::parse_program(&entry.source)
            .expect("corpus entries are parse-checked on load");
        let (compiled, coverage) = p4c::coverage::with_sink(|| worker.compiler.compile(&program));
        guided.accum.merge(&coverage);
        guided.census.merge(&ConstructCensus::of(&program));
        // Entries whose seed the hunt itself will process are skipped — the
        // worker mutation-checks that seed's program with the same stream
        // seed, and committing both would duplicate reports (and drain any
        // bug quota twice).
        if hunted.contains(&entry.seed) {
            continue;
        }
        let compiled = compiled.ok().map(|result| result.program);
        if let Some(mut mutation) = worker.mutate(entry.seed, &program, compiled.as_ref()) {
            worker.reduce(entry.seed, &program, &mut mutation.reports);
            commit.record(
                config,
                entry.seed,
                mutation.reports,
                Some((mutation.coverage, mutation.mutants_checked)),
            );
        }
    }
    commit.guided = Some(guided);
    worker.into_tally()
}

/// The per-seed unit of work, built once per worker thread and once for
/// corpus replay.  It owns everything a seed is checked with — the
/// pipeline, the compiler under test, the differential targets, the
/// metamorphic checker — plus the session counters those accumulate.
struct SeedWorker<'a, F> {
    config: &'a HuntConfig,
    factory: &'a F,
    cache: Option<&'a Arc<CampaignCache>>,
    gauntlet: Gauntlet,
    compiler: p4c::Compiler,
    /// Differential targets, built per worker (they are stateless between
    /// programs, but not `Sync`).
    targets: Vec<Box<dyn Target>>,
    /// Present iff the hunt mutates.  Its validation session is reused
    /// across every seed the worker claims and attached to the same
    /// campaign cache as the translation-validation sessions, so the two
    /// dimensions share interpretations; verdicts are cache-independent,
    /// so sharing preserves the byte-identical-across-jobs contract.
    checker: Option<MetamorphicChecker>,
    /// Session counters of every program this worker validated.
    tally: SessionStats,
}

impl<'a, F> SeedWorker<'a, F>
where
    F: Fn() -> p4c::Compiler,
{
    fn new(
        config: &'a HuntConfig,
        factory: &'a F,
        cache: Option<&'a Arc<CampaignCache>>,
    ) -> SeedWorker<'a, F> {
        let registry = TargetRegistry::builtin();
        let checker = config.mutation.as_ref().map(|_| match cache {
            Some(cache) => MetamorphicChecker::with_cache(factory(), Arc::clone(cache)),
            None => MetamorphicChecker::new(factory()),
        });
        SeedWorker {
            config,
            factory,
            cache,
            gauntlet: Gauntlet::default(),
            compiler: factory(),
            targets: config
                .targets
                .iter()
                .map(|spec| registry.build_spec(spec).expect("specs validated above"))
                .collect(),
            checker,
            tally: SessionStats::default(),
        }
    }

    /// Compiles and translation-validates `program`, under the pass-coverage
    /// sink when the hunt is coverage-guided (pass-rule coverage means the
    /// front/mid-end pipeline, which a replayed corpus entry re-fires
    /// exactly through `Compiler::compile`).
    ///
    /// The validation session is fresh per program but attached to the
    /// campaign cache when caching is on: the memo layers (semantics,
    /// verdicts, terms) live in the cache and survive the session, while
    /// the solver stays small — a long-lived solver accumulates variables
    /// and learned clauses across unrelated programs and measurably *slows
    /// down* (see the cold run of the `trajectory` bench).
    fn check_open(&mut self, program: &Program) -> (ProgramOutcome, Option<PassCoverage>) {
        let mut session = match self.cache {
            Some(cache) => ValidationSession::with_cache(Arc::clone(cache)),
            None => ValidationSession::new(),
        };
        let mut check = || {
            self.gauntlet
                .check_open_compiler_in(&mut session, &self.compiler, program)
        };
        let (outcome, coverage) = if self.config.coverage.is_some() {
            let (outcome, coverage) = p4c::coverage::with_sink(check);
            (outcome, Some(coverage))
        } else {
            (check(), None)
        };
        self.tally += session.stats();
        (outcome, coverage)
    }

    /// Checks `program`'s mutant family (`None` unless the hunt mutates).
    /// `compiled` is the seed's compiled form when the caller already has
    /// one (identically configured compiler, deterministic pipeline ⇒
    /// identical form); without it the checker compiles the seed itself,
    /// and skips the family if that fails.
    fn mutate(
        &mut self,
        seed: u64,
        program: &Program,
        compiled: Option<&Program>,
    ) -> Option<MutationOutcome> {
        let options = self.config.mutation.as_ref()?;
        let checker = self.checker.as_mut()?;
        let stream = hunt_mutation_seed(seed);
        Some(match compiled {
            Some(seed_final) => self
                .gauntlet
                .check_mutants_against(checker, seed_final, program, options, stream),
            None => self
                .gauntlet
                .check_mutants(checker, program, options, stream),
        })
    }

    /// Delta-debugs every open-compiler finding in `reports` down to a
    /// minimal reproducer (a no-op unless [`HuntConfig::reduce_reports`] is
    /// set).  The result is a pure function of (program, report, budget),
    /// so which worker reduces does not disturb the byte-identical-across-
    /// jobs contract.  Differential findings are committed as-is.
    fn reduce(&self, seed: u64, program: &Program, reports: &mut [BugReport]) {
        if !self.config.reduce_reports {
            return;
        }
        for report in reports.iter_mut().filter(|r| r.platform == Platform::P4c) {
            // Mutation-origin findings (divergences, and crashes/rejections
            // that fire only on a mutant — the seed program compiles clean,
            // so the open-compiler oracles can never reproduce them) reduce
            // through their own oracle: same mutation stream as the
            // detection, so a candidate is accepted only when the identical
            // finding reproduces.
            let mut oracle = if matches!(report.technique, Technique::MetamorphicMutation) {
                let options = self
                    .config
                    .mutation
                    .clone()
                    .expect("metamorphic reports imply mutation config");
                Gauntlet::metamorphic_oracle((self.factory)(), options, hunt_mutation_seed(seed))
            } else {
                Gauntlet::open_compiler_oracle(report, (self.factory)())
            };
            self.gauntlet.reduce_report(&mut *oracle, program, report);
        }
    }

    /// The whole pipeline for one hunted seed: open-compiler check,
    /// differential, mutants, then reduction of the findings — skipped once
    /// `stopped` reports the quota met, since nothing further can commit.
    fn check(&mut self, seed: u64, program: Program, stopped: impl Fn() -> bool) -> SeedResult {
        let (outcome, coverage) = self.check_open(&program);
        let mut reports = outcome.reports;
        if !self.targets.is_empty() {
            reports.extend(
                self.gauntlet
                    .check_differential(&self.targets, &program)
                    .reports,
            );
        }
        let mutated = self
            .mutate(seed, &program, outcome.compiled.as_ref())
            .map(|mutation| {
                reports.extend(mutation.reports);
                (mutation.coverage, mutation.mutants_checked)
            });
        if !reports.is_empty() && !stopped() {
            self.reduce(seed, &program, &mut reports);
        }
        SeedResult {
            reports,
            observed: coverage.map(|coverage| SeedObservation {
                coverage,
                census: ConstructCensus::of(&program),
                program,
            }),
            mutated,
        }
    }

    /// This worker's session counters, the metamorphic checker's included.
    fn into_tally(self) -> SessionStats {
        let mut tally = self.tally;
        if let Some(checker) = &self.checker {
            tally += checker.session_stats();
        }
        tally
    }
}

/// A work-sharing campaign over a seed range: each seed deterministically
/// generates one program (its RNG is seeded by the seed alone, never by a
/// shared stream) which is compiled and checked with the full open-compiler
/// pipeline — crash detection, rejection detection, and per-pass
/// translation validation.
///
/// Scheduling is self-balancing: workers claim the next unclaimed seed from
/// a shared counter, so a slow program never stalls the other workers
/// (work-stealing by work-sharing — the queue is the integer range).
pub struct ParallelCampaign {
    config: HuntConfig,
}

impl ParallelCampaign {
    pub fn new(config: HuntConfig) -> ParallelCampaign {
        ParallelCampaign { config }
    }

    pub fn config(&self) -> &HuntConfig {
        &self.config
    }

    /// Runs the hunt against compilers built by `factory` (each worker
    /// builds its own instance, so the compiler need not be `Sync`).
    ///
    /// With [`HuntConfig::coverage`] set the seed range is processed in
    /// *epochs*: the corpus (if any) is replayed first, then each epoch's
    /// generator weights are derived from the coverage committed by every
    /// earlier epoch (plus the replay), and the epoch barrier guarantees
    /// that derivation never races a straggling worker — which keeps
    /// coverage, corpus, and reports byte-identical at any `--jobs`.
    pub fn run<F>(&self, factory: F) -> HuntReport
    where
        F: Fn() -> p4c::Compiler + Send + Sync,
    {
        self.run_with_cache(factory, None)
    }

    /// Like [`Self::run`], but validating through `external` — a
    /// caller-owned [`CampaignCache`] that outlives this run.  Fleet workers
    /// use this to keep one warm cache across every shard they are leased
    /// (workers are long-lived; rebuilding the memos per shard threw the
    /// warm state away).  The cache is consulted only when
    /// [`HuntConfig::epoch_cache`] is on, and the report's [`CacheSummary`]
    /// accounts this run's activity as a snapshot delta, so stats stay
    /// per-run even though the cache is not.
    pub fn run_with_cache<F>(&self, factory: F, external: Option<Arc<CampaignCache>>) -> HuntReport
    where
        F: Fn() -> p4c::Compiler + Send + Sync,
    {
        let config = &self.config;
        if let Err(error) = config.validate() {
            panic!("invalid HuntConfig target spec: {error}");
        }
        let jobs = config.jobs.max(1);
        let start = std::time::Instant::now();

        // The flight recorder, if requested.  Strictly observation-only
        // from here on: nothing below reads telemetry state back.
        let telemetry = config.telemetry.as_ref().map(HuntTelemetry::new);
        if let Some(telemetry) = &telemetry {
            telemetry.emit(
                "campaign_start",
                &[
                    ("jobs", jobs.into()),
                    ("seed_start", config.seed_start.into()),
                    ("seed_count", config.seed_count.into()),
                    ("targets", config.targets.len().into()),
                    ("coverage", config.coverage.is_some().into()),
                    ("mutation", config.mutation.is_some().into()),
                    ("epoch_cache", config.epoch_cache.into()),
                ],
            );
        }
        // A recorder for the main thread captures the sequential corpus
        // replay (compiles, validations, and mutant checks all run here
        // before workers spawn).  Any enclosing recorder is restored at the
        // end of the hunt.
        let enclosing_recorder = telemetry
            .as_ref()
            .and_then(|_| gauntlet_telemetry::install(Recorder::new()));

        // One campaign-lifetime cache: the semantics/verdict memos and the
        // hash-consing term manager survive epoch boundaries, bounded by the
        // barrier sweep below.  A caller-provided cache outlives even this
        // run (fleet workers reuse it across shards), so all per-run stats
        // are snapshot deltas — taken before the corpus replay, whose work
        // belongs to this run.
        let campaign_cache = config
            .epoch_cache
            .then(|| external.unwrap_or_else(|| Arc::new(CampaignCache::new())));
        let cache_base = campaign_cache
            .as_ref()
            .map(|cache| cache.stats())
            .unwrap_or_default();

        let mut commit = HuntCommit {
            pending: BTreeMap::new(),
            next: 0,
            committed: Vec::new(),
            programs_checked: 0,
            bugs: 0,
            reduction_failures: 0,
            guided: config.coverage.as_ref().map(|options| GuidedCommit {
                accum: PassCoverage::new(),
                census: ConstructCensus::default(),
                corpus: match &options.corpus {
                    Some(path) => Corpus::load_or_empty(path)
                        .unwrap_or_else(|error| panic!("cannot load corpus `{path}`: {error}")),
                    None => Corpus::default(),
                },
                corpus_added: 0,
                rules_over_time: Vec::new(),
            }),
            mutation: config.mutation.as_ref().map(|_| MutationAccum::default()),
            next_heartbeat: HEARTBEAT_EVERY,
        };
        let tallies = Mutex::new(replay_corpus(
            config,
            &factory,
            campaign_cache.as_ref(),
            &mut commit,
        ));
        let commit = Mutex::new(commit);
        let processed_counts = Mutex::new(vec![0usize; jobs]);
        let mut cache_epochs = 0usize;
        let mut cache_epoch_base = cache_base;

        let adapter = WeightAdapter::default();
        let epoch_len = match &config.coverage {
            Some(options) if options.adapt => options.adapt_every.max(1),
            _ => config.seed_count.max(1),
        };
        let mut epoch_start = 0usize;
        while epoch_start < config.seed_count {
            // Derive this epoch's weights from everything committed so far.
            let generator_config = {
                let state = commit.lock().expect("hunt lock");
                if state.stopped(config) {
                    break;
                }
                match (&config.coverage, &state.guided) {
                    (Some(options), Some(guided)) if options.adapt => adapter.adapt_with_pairs(
                        &config.generator,
                        &guided.accum.unfired_keys(),
                        &if options.pairs {
                            guided.accum.unfired_pair_keys()
                        } else {
                            Vec::new()
                        },
                        &guided.census,
                        epoch_start / epoch_len,
                    ),
                    _ => config.generator.clone(),
                }
            };
            let epoch_end = (epoch_start + epoch_len).min(config.seed_count);
            self.run_epoch(
                epoch_start,
                epoch_end,
                &generator_config,
                &factory,
                &commit,
                &processed_counts,
                jobs,
                campaign_cache.as_ref(),
                &tallies,
                telemetry.as_ref(),
            );
            if campaign_cache.is_some() {
                cache_epochs += 1;
            }
            let mut state = commit.lock().expect("hunt lock");
            let programs_checked = state.programs_checked;
            let bugs_so_far = state.bugs;
            if let Some(guided) = &mut state.guided {
                guided
                    .rules_over_time
                    .push((programs_checked, guided.accum.distinct_rules()));
            }
            drop(state);
            if let Some(telemetry) = &telemetry {
                let epoch_index = epoch_start / epoch_len;
                telemetry.emit(
                    "epoch",
                    &[
                        ("epoch", epoch_index.into()),
                        ("programs_checked", programs_checked.into()),
                        ("bugs", bugs_so_far.into()),
                    ],
                );
                if let Some(cache) = &campaign_cache {
                    // This epoch's activity: the cache is campaign-lived,
                    // so the per-epoch view is a snapshot delta.
                    let stats = cache.stats().since(&cache_epoch_base);
                    telemetry.emit(
                        "cache",
                        &[
                            ("epoch", epoch_index.into()),
                            ("semantics_hits", stats.semantics_hits.into()),
                            ("semantics_misses", stats.semantics_misses.into()),
                            ("verdict_hits", stats.verdict_hits.into()),
                            ("verdict_misses", stats.verdict_misses.into()),
                            ("evicted_entries", cache.evicted_entries().into()),
                            ("manager_resets", cache.manager_resets().into()),
                        ],
                    );
                }
            }
            if let Some(cache) = &campaign_cache {
                cache_epoch_base = cache.stats();
                // The epoch barrier: evict least-recently-hit generations
                // (and reset the term manager when over the interpretation
                // budget) while no session is live — the worker scope above
                // joined, and next epoch's sessions are created fresh.
                cache.epoch_barrier();
            }
            epoch_start = epoch_end;
        }

        let state = commit.into_inner().expect("hunt lock");
        let mutation = state.mutation.as_ref().map(|accum| MutationSummary {
            mutants_checked: accum.mutants,
            divergent: accum.divergent,
            fired: accum.coverage.fired_keys(),
            rules_total: p4_mutate::total_rules(),
        });
        let (coverage, corpus, census) = match state.guided {
            None => (None, None, None),
            Some(guided) => {
                if let Some(path) = config.coverage.as_ref().and_then(|o| o.corpus.as_ref()) {
                    guided
                        .corpus
                        .save(path)
                        .unwrap_or_else(|error| panic!("cannot save corpus `{path}`: {error}"));
                }
                let coverage = CoverageSummary {
                    fired: guided.accum.fired_keys(),
                    rules_total: p4c::coverage::total_rules(),
                    constructs_seen: guided.census.distinct(),
                    corpus_size: guided.corpus.len(),
                    corpus_added: guided.corpus_added,
                    rules_over_time: guided.rules_over_time,
                    pairs: guided.accum.fired_pair_keys(),
                    pairs_total: p4c::coverage::total_pairs(),
                };
                (Some(coverage), Some(guided.corpus), Some(guided.census))
            }
        };
        let cache = config.epoch_cache.then(|| CacheSummary {
            epochs: cache_epochs,
            // This run's activity only: a worker-lifetime cache carries
            // counters from earlier shard runs, which belong to those
            // runs' reports.
            stats: campaign_cache
                .as_ref()
                .map(|cache| cache.stats().since(&cache_base))
                .unwrap_or_default(),
            sessions: tallies.into_inner().expect("tally lock"),
        });
        let telemetry_summary = telemetry.map(|telemetry| {
            // Fold in the main thread's recorder (the corpus replay), then
            // restore whatever recorder enclosed this hunt.
            if let Some(recorder) = gauntlet_telemetry::take() {
                telemetry.absorb(&recorder);
            }
            if let Some(previous) = enclosing_recorder {
                gauntlet_telemetry::install(previous);
            }
            telemetry.emit(
                "campaign_end",
                &[
                    ("programs_checked", state.programs_checked.into()),
                    ("bugs", state.bugs.into()),
                    ("elapsed_ms", (start.elapsed().as_millis() as u64).into()),
                ],
            );
            telemetry.aggregate.into_inner().expect("telemetry lock")
        });
        HuntReport {
            outcomes: state.committed,
            programs_checked: state.programs_checked,
            total_bugs: state.bugs,
            elapsed: start.elapsed(),
            per_worker: processed_counts.into_inner().expect("count lock"),
            reduction_failures: state.reduction_failures,
            coverage,
            mutation,
            diversity: None,
            cache,
            telemetry: telemetry_summary,
            corpus,
            census,
        }
    }

    /// Runs the worker pool over seed indices `[epoch_start, epoch_end)`
    /// with a fixed generator configuration, committing into the shared
    /// ordered-commit state.  Returns once every claimed seed has been
    /// processed (the epoch barrier).
    #[allow(clippy::too_many_arguments)]
    fn run_epoch<F>(
        &self,
        epoch_start: usize,
        epoch_end: usize,
        generator_config: &GeneratorConfig,
        factory: &F,
        commit: &Mutex<HuntCommit>,
        processed_counts: &Mutex<Vec<usize>>,
        jobs: usize,
        cache: Option<&Arc<CampaignCache>>,
        tallies: &Mutex<SessionStats>,
        telemetry: Option<&HuntTelemetry>,
    ) where
        F: Fn() -> p4c::Compiler + Send + Sync,
    {
        let config = &self.config;
        let next_task = AtomicUsize::new(epoch_start);
        std::thread::scope(|scope| {
            for worker in 0..jobs {
                let next_task = &next_task;
                scope.spawn(move || {
                    // Per-worker flight recorder, merged into the pool-wide
                    // aggregate when the worker finishes — i.e. at the epoch
                    // barrier, since the scope join *is* the barrier.
                    if telemetry.is_some() {
                        gauntlet_telemetry::install(Recorder::new());
                    }
                    let mut seed_worker = SeedWorker::new(config, factory, cache);
                    let stopped = || commit.lock().expect("hunt lock").stopped(config);
                    let mut processed = 0usize;
                    loop {
                        if stopped() {
                            break;
                        }
                        let index = next_task.fetch_add(1, Ordering::Relaxed);
                        if index >= epoch_end {
                            break;
                        }
                        let seed = config.seed_start + index as u64;
                        let mut generator =
                            RandomProgramGenerator::new(generator_config.clone(), seed);
                        let program = gauntlet_telemetry::time(Stage::Gen, || generator.generate());
                        let result = seed_worker.check(seed, program, stopped);
                        processed += 1;
                        let mut state = commit.lock().expect("hunt lock");
                        state.pending.insert(index, result);
                        state.drain(config, telemetry, cache);
                    }
                    processed_counts.lock().expect("count lock")[worker] += processed;
                    *tallies.lock().expect("tally lock") += seed_worker.into_tally();
                    if let Some(telemetry) = telemetry {
                        if let Some(recorder) = gauntlet_telemetry::take() {
                            telemetry.absorb(&recorder);
                        }
                    }
                });
            }
        });
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A small campaign: every bug class must be detected by its trigger
    /// program and the correct pipeline must produce no false alarms.  This
    /// is the core claim of the reproduction (Tables 2 and 3 have the right
    /// shape), so it runs as a regular test despite being a little slower.
    #[test]
    fn trigger_only_campaign_detects_every_class_with_no_false_alarms() {
        let config = CampaignConfig {
            random_programs_per_bug: 0,
            check_false_alarms: true,
            ..CampaignConfig::default()
        };
        let report = run_campaign(&config);
        assert_eq!(report.false_alarms, 0, "correct pipeline flagged a bug");
        for outcome in &report.outcomes {
            assert!(
                outcome.detected,
                "seeded bug {} was not detected",
                outcome.bug
            );
        }
        // Table 2 shape: bugs on every platform, both kinds on P4C.
        let (p4c_crash, p4c_semantic) = report.platform_counts(Platform::P4c);
        assert!(p4c_crash >= 2);
        assert!(p4c_semantic >= 5);
        assert!(report.platform_counts(Platform::Bmv2).1 >= 2);
        assert!(report.platform_counts(Platform::Tofino).1 >= 2);
        // Table 3 shape: front end ≥ mid end, and back end bugs exist.
        assert!(
            report.area_count(CompilerArea::FrontEnd) >= report.area_count(CompilerArea::MidEnd)
        );
        assert!(report.area_count(CompilerArea::BackEnd) >= 3);
    }

    /// The table campaign must produce the identical report when sharded
    /// across threads.
    #[test]
    fn table_campaign_report_is_independent_of_jobs() {
        let base = CampaignConfig {
            random_programs_per_bug: 0,
            check_false_alarms: false,
            ..CampaignConfig::default()
        };
        let sequential = run_campaign(&CampaignConfig {
            jobs: 1,
            ..base.clone()
        });
        let parallel = run_campaign(&CampaignConfig { jobs: 4, ..base });
        assert_eq!(
            format!("{:?}", sequential.outcomes),
            format!("{:?}", parallel.outcomes)
        );
        assert_eq!(sequential.by_platform, parallel.by_platform);
        assert_eq!(sequential.by_area, parallel.by_area);
        assert_eq!(sequential.total_detected, parallel.total_detected);
    }

    /// Core determinism claim of the parallel engine: the same seed range
    /// produces byte-identical bug reports at `--jobs 1` and `--jobs 4`.
    #[test]
    fn hunt_reports_are_byte_identical_across_jobs() {
        // Hunt a seeded-buggy compiler so the reports are non-empty.
        let factory = || {
            let bug = SeededBug::catalogue()
                .into_iter()
                .find(|b| b.platform() == Platform::P4c && !b.is_crash_class())
                .expect("catalogue has a P4C semantic bug");
            bug.build_compiler()
        };
        let base = HuntConfig {
            seed_start: 0,
            seed_count: 40,
            ..HuntConfig::default()
        };
        let sequential = ParallelCampaign::new(HuntConfig {
            jobs: 1,
            ..base.clone()
        })
        .run(factory);
        let parallel = ParallelCampaign::new(HuntConfig { jobs: 4, ..base }).run(factory);
        assert_eq!(sequential.render(), parallel.render());
        assert_eq!(sequential.programs_checked, 40);
        assert!(
            sequential.total_bugs > 0,
            "a buggy compiler hunted over 40 programs should be caught at least once"
        );
    }

    /// Deterministic early stop: the quota cuts the commit sequence at the
    /// same seed regardless of thread count.
    #[test]
    fn hunt_quota_early_stop_is_deterministic() {
        let factory = || {
            let bug = SeededBug::catalogue()
                .into_iter()
                .find(|b| b.platform() == Platform::P4c && !b.is_crash_class())
                .expect("catalogue has a P4C semantic bug");
            bug.build_compiler()
        };
        let base = HuntConfig {
            seed_start: 0,
            seed_count: 60,
            bug_quota: Some(2),
            ..HuntConfig::default()
        };
        let sequential = ParallelCampaign::new(HuntConfig {
            jobs: 1,
            ..base.clone()
        })
        .run(factory);
        let parallel = ParallelCampaign::new(HuntConfig { jobs: 3, ..base }).run(factory);
        assert_eq!(sequential.render(), parallel.render());
        assert!(sequential.total_bugs >= 2);
        assert!(sequential.programs_checked <= 60);
    }

    /// A coverage-on hunt hands its corpus and census back on the report:
    /// the corpus is byte-for-byte what it saved, and the census covers
    /// exactly the programs of the seed range (what a fleet worker ships in
    /// its fragment instead of re-deriving it).
    #[test]
    fn coverage_hunt_returns_the_saved_corpus_and_the_full_census() {
        let path =
            std::env::temp_dir().join(format!("gauntlet-handoff-{}.corpus", std::process::id()));
        let _ = std::fs::remove_file(&path);
        let config = HuntConfig {
            jobs: 2,
            seed_start: 40,
            seed_count: 16,
            coverage: Some(CoverageOptions {
                adapt: false,
                corpus: Some(path.display().to_string()),
                ..CoverageOptions::default()
            }),
            ..HuntConfig::default()
        };
        let report = ParallelCampaign::new(config.clone()).run(p4c::Compiler::reference);
        let saved = std::fs::read_to_string(&path).expect("corpus saved");
        let _ = std::fs::remove_file(&path);

        let corpus = report.corpus.expect("coverage on: corpus returned");
        assert!(
            !corpus.is_empty(),
            "the first programs always advance coverage"
        );
        assert_eq!(corpus.to_text(), saved);

        let mut expected = ConstructCensus::default();
        for seed in config.seed_start..config.seed_start + config.seed_count as u64 {
            let program = RandomProgramGenerator::new(config.generator.clone(), seed).generate();
            expected.merge(&ConstructCensus::of(&program));
        }
        assert_eq!(report.census, Some(expected));
    }

    /// The hunt must stay silent on the reference compiler (no false
    /// alarms), mirroring the paper's §5.2 discipline.
    #[test]
    fn hunt_on_the_reference_compiler_finds_nothing() {
        let config = HuntConfig {
            jobs: 2,
            seed_start: 500,
            seed_count: 12,
            ..HuntConfig::default()
        };
        let report = ParallelCampaign::new(config).run(p4c::Compiler::reference);
        let real: Vec<_> = report
            .outcomes
            .iter()
            .flat_map(|o| &o.reports)
            .filter(|r| !matches!(r.kind, BugKind::InvalidTransformation))
            .collect();
        assert!(
            real.is_empty(),
            "false alarms on the reference compiler: {real:#?}"
        );
        assert_eq!(report.programs_checked, 12);
    }
}
