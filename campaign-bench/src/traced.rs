//! The traced child: sends the drawn chunks' seeds through each crate's
//! public functions one call at a time, in one thread, with a span around
//! every call, and through the same code again with the tracer off for the
//! tracing overhead; then runs the same chunks untraced through the campaign
//! entry points for the campaign, cache and fleet counters, and checks that
//! every seed's findings match the campaign's.  The in-program telemetry
//! recorder stays off throughout.

use crate::metrics::PER_LAYER;
use crate::phases::run_campaign;
use crate::stats::{percentile, ratio};
use crate::trace::{layer_totals, Tracer};
use crate::workload::{Workload, BUG_HUNT_TARGETS, JOBS, SETUP_SEED};
use gauntlet_core::{
    hunt_mutation_seed, BugKind, BugReport, CampaignCache, CompilerArea, CoverageOptions, Gauntlet,
    GauntletOptions, HuntReport, MetamorphicChecker, Platform, Technique,
};
use gauntlet_telemetry::json;
use p4_gen::{RandomProgramGenerator, WeightAdapter};
use p4_ir::{ConstructCensus, Program};
use p4_symbolic::{generate_tests, EquivalenceError, ValidationSession};
use p4c::coverage::PassCoverage;
use p4c::{CompileError, PassArea};
use std::collections::BTreeMap;
use std::sync::Arc;
use std::time::Instant;
use targets::{testgen_options, Target, TargetError, TargetRegistry, TestOutcome};

/// The slowest seeds printed after the per-layer table.
const SLOWEST_SHOWN: usize = 5;
/// Seeds run untimed before the traced pass.
const WARM_UP_SEEDS: usize = 10;

/// Counts recorded at the call boundaries of the traced run.
#[derive(Default)]
struct Counts {
    statements: f64,
    pass_pairs: f64,
    rules_fired: f64,
    semantics_hits: f64,
    semantics_misses: f64,
    trivial_checks: f64,
    solver_checks: f64,
    cached_checks: f64,
    verdict_hits: f64,
    verdict_misses: f64,
    conflicts: f64,
    decisions: f64,
    propagations: f64,
    variables: f64,
    query_ms: Vec<f64>,
    mutants: f64,
    divergent: f64,
    tests: f64,
    oracle_calls: f64,
    accepted_steps: f64,
    initial_statements: f64,
    final_statements: f64,
}

/// One traced seed: its verdict time, SAT conflicts, and the pass pair
/// whose validation took longest.
struct SeedRow {
    seed: u64,
    verdict_ms: f64,
    conflicts: u64,
    stalled_on: String,
    stalled_ms: f64,
}

/// One seed's findings in the terms the check against the campaign compares:
/// every P4C finding's dedup key and compiler area with its reduced program,
/// sorted, and whether the seed has a differential finding.  Differential
/// findings are compared by presence only, because the majority vote that
/// names their suspect is internal to `gauntlet-core`.
#[derive(Debug, Default, PartialEq)]
struct SeedFindings {
    p4c: Vec<(String, Option<String>)>,
    differential: bool,
}

impl SeedFindings {
    fn of(reports: &[BugReport], differential: bool) -> SeedFindings {
        let mut p4c: Vec<(String, Option<String>)> = reports
            .iter()
            .filter(|r| r.platform == Platform::P4c)
            .map(|r| (format!("{}|{}", r.dedup_key(), r.area), r.minimized.clone()))
            .collect();
        p4c.sort();
        SeedFindings { p4c, differential }
    }

    /// The campaign's findings for every seed of `report` that found one.
    fn of_campaign(report: &HuntReport) -> BTreeMap<u64, SeedFindings> {
        report
            .outcomes
            .iter()
            .map(|outcome| {
                let differential = outcome.reports.iter().any(|r| r.platform != Platform::P4c);
                (
                    outcome.seed,
                    SeedFindings::of(&outcome.reports, differential),
                )
            })
            .collect()
    }
}

/// The per-call pipeline state that lives across seeds, as in a campaign
/// worker: one compiler, one campaign cache, one metamorphic checker.
struct Pipeline {
    workload: Workload,
    gauntlet: Gauntlet,
    compiler: p4c::Compiler,
    cache: Arc<CampaignCache>,
    targets: Vec<Box<dyn Target>>,
    checker: Option<MetamorphicChecker>,
    tracer: Tracer,
    counts: Counts,
    rows: Vec<SeedRow>,
    /// Findings of every seed that found one.
    findings: BTreeMap<u64, SeedFindings>,
}

impl Pipeline {
    fn new(workload: Workload, tracer: Tracer) -> Pipeline {
        let cache = Arc::new(CampaignCache::new());
        let registry = TargetRegistry::builtin();
        let targets = if workload == Workload::BugHunt {
            BUG_HUNT_TARGETS
                .iter()
                .map(|spec| registry.build_spec(spec).expect("builtin target spec"))
                .collect()
        } else {
            Vec::new()
        };
        let checker = (workload == Workload::GuidedMutate)
            .then(|| MetamorphicChecker::with_cache(workload.build_compiler(), Arc::clone(&cache)));
        Pipeline {
            workload,
            gauntlet: Gauntlet::new(GauntletOptions::default()),
            compiler: workload.build_compiler(),
            cache,
            targets,
            checker,
            tracer,
            counts: Counts::default(),
            rows: Vec::new(),
            findings: BTreeMap::new(),
        }
    }

    /// Generate, compile and validate one seed (plus the workload's
    /// differential, mutation and reduction steps), as the campaign's worker
    /// does.  Records the seed's row and findings; returns the compile
    /// coverage and the program for the guided commit.
    fn seed(&mut self, seed: u64, generator: &p4_gen::GeneratorConfig) -> (PassCoverage, Program) {
        let t = &mut self.tracer;
        let c = &mut self.counts;
        t.enter("seed");

        t.enter("gen");
        let program = RandomProgramGenerator::new(generator.clone(), seed).generate();
        t.exit();
        c.statements += p4_reduce::statement_count(&program) as f64;

        t.enter("compile");
        let (compiled, coverage) = p4c::coverage::with_sink(|| self.compiler.compile(&program));
        t.exit();
        c.rules_fired += coverage.iter().map(|(_, n)| n as f64).sum::<f64>();

        let mut findings = Vec::new();
        let mut row = SeedRow {
            seed,
            verdict_ms: 0.0,
            conflicts: 0,
            stalled_on: "-".into(),
            stalled_ms: 0.0,
        };
        let mut seed_final = None;
        match compiled {
            Err(CompileError::Crash {
                pass,
                area,
                message,
            }) => findings.push(p4c_report(
                BugKind::Crash,
                Technique::RandomGeneration,
                area_of(area),
                pass,
                message,
            )),
            Err(CompileError::Rejected { pass, diagnostics }) => findings.push(p4c_report(
                BugKind::Rejection,
                Technique::RandomGeneration,
                area_of_pass(&pass),
                pass,
                diagnostics.join("; "),
            )),
            Ok(result) => {
                let mut session = ValidationSession::with_cache(Arc::clone(&self.cache));
                for (before, after) in result.pass_pairs() {
                    c.pass_pairs += 1.0;
                    t.enter("validate");
                    t.enter("parse");
                    let reparsed = p4_parser::parse_program(&after.printed);
                    t.exit();
                    if let Err(error) = reparsed {
                        // A parse failure is an invalid transformation.
                        t.exit();
                        findings.push(p4c_report(
                            BugKind::InvalidTransformation,
                            Technique::TranslationValidation,
                            area_of(after.area),
                            after.pass_name.clone(),
                            format!("emitted program no longer parses: {error}"),
                        ));
                        continue;
                    }
                    let stats_before = session.stats();
                    t.enter("interp");
                    let _ = session.semantics(&before.program);
                    t.exit();
                    t.enter("interp");
                    let _ = session.semantics(&after.program);
                    t.exit();
                    let interpreted = session.stats();
                    c.semantics_hits +=
                        (interpreted.semantics_hits - stats_before.semantics_hits) as f64;
                    c.semantics_misses +=
                        (interpreted.semantics_misses - stats_before.semantics_misses) as f64;
                    let query = Instant::now();
                    let verdict = session.check_pair(&before.program, &after.program);
                    let query_ms = query.elapsed().as_secs_f64() * 1e3;
                    let pair_ms = t.exit();
                    let after_stats = session.stats();
                    c.trivial_checks +=
                        (after_stats.trivial_checks - interpreted.trivial_checks) as f64;
                    c.cached_checks +=
                        (after_stats.cached_checks - interpreted.cached_checks) as f64;
                    c.verdict_hits += (after_stats.verdict_hits - interpreted.verdict_hits) as f64;
                    c.verdict_misses +=
                        (after_stats.verdict_misses - interpreted.verdict_misses) as f64;
                    if after_stats.solver_checks > interpreted.solver_checks {
                        c.solver_checks += 1.0;
                        c.query_ms.push(query_ms);
                        let solver = session.solver_stats();
                        c.conflicts += solver.conflicts as f64;
                        c.decisions += solver.decisions as f64;
                        c.propagations += solver.propagations as f64;
                        c.variables += solver.sat_variables as f64;
                        row.conflicts += solver.conflicts;
                    }
                    if pair_ms > row.stalled_ms {
                        row.stalled_ms = pair_ms;
                        row.stalled_on = format!("{} -> {}", before.pass_name, after.pass_name);
                    }
                    match verdict {
                        Ok(p4_symbolic::Equivalence::NotEqual(counterexample)) => {
                            findings.push(p4c_report(
                                BugKind::Semantic,
                                Technique::TranslationValidation,
                                area_of(after.area),
                                after.pass_name.clone(),
                                format!("{counterexample}"),
                            ))
                        }
                        Err(EquivalenceError::StructureMismatch { block, detail }) => findings
                            .push(p4c_report(
                                BugKind::InvalidTransformation,
                                Technique::TranslationValidation,
                                area_of(after.area),
                                after.pass_name.clone(),
                                format!("structure mismatch in `{block}`: {detail}"),
                            )),
                        _ => {}
                    }
                }
                seed_final = Some(result.program);
            }
        }

        let differential_found = !self.targets.is_empty()
            && differential(
                t,
                c,
                &self.targets,
                &program,
                self.gauntlet.options.max_tests,
            );

        if let Some(checker) = &mut self.checker {
            let options = gauntlet_core::MetamorphicOptions {
                mutants_per_seed: 3,
                ..Default::default()
            };
            t.enter("mutate");
            let outcome = match &seed_final {
                Some(seed_final) => self.gauntlet.check_mutants_against(
                    checker,
                    seed_final,
                    &program,
                    &options,
                    hunt_mutation_seed(seed),
                ),
                None => self.gauntlet.check_mutants(
                    checker,
                    &program,
                    &options,
                    hunt_mutation_seed(seed),
                ),
            };
            t.exit();
            c.mutants += outcome.mutants_checked as f64;
            c.divergent += outcome
                .reports
                .iter()
                .filter(|r| matches!(r.kind, BugKind::Metamorphic))
                .count() as f64;
            findings.extend(outcome.reports);
        }

        // Only `bug-hunt` reduces, and it does not mutate, so every P4C
        // finding here comes from the open compiler.
        if self.workload == Workload::BugHunt {
            for finding in findings.iter_mut().filter(|f| f.platform == Platform::P4c) {
                let mut oracle =
                    Gauntlet::open_compiler_oracle(finding, self.workload.build_compiler());
                t.enter("reduce");
                self.gauntlet.reduce_report(&mut *oracle, &program, finding);
                t.exit();
                if let Some(stats) = &finding.reduction {
                    c.oracle_calls += stats.oracle_calls as f64;
                    c.accepted_steps += stats.accepted_steps as f64;
                    c.initial_statements += stats.initial_statements as f64;
                    c.final_statements += stats.final_statements as f64;
                }
            }
        }

        row.verdict_ms = t.exit();
        self.rows.push(row);
        if !findings.is_empty() || differential_found {
            self.findings
                .insert(seed, SeedFindings::of(&findings, differential_found));
        }
        (coverage, program)
    }
}

/// A finding of the open-compiler pipeline, built as the campaign builds it,
/// so the reduction oracle reproduces the same bug.
fn p4c_report(
    kind: BugKind,
    technique: Technique,
    area: CompilerArea,
    pass: String,
    message: String,
) -> BugReport {
    BugReport::new(kind, Platform::P4c, area, technique, Some(pass), message)
}

fn area_of(area: PassArea) -> CompilerArea {
    match area {
        PassArea::FrontEnd => CompilerArea::FrontEnd,
        PassArea::MidEnd => CompilerArea::MidEnd,
        PassArea::BackEnd => CompilerArea::BackEnd,
    }
}

/// The area of a reference-pipeline pass, by name, as the campaign
/// attributes a rejection.
fn area_of_pass(name: &str) -> CompilerArea {
    p4c::passes::default_pipeline()
        .iter()
        .find(|pass| pass.name() == name)
        .map(|pass| area_of(pass.area()))
        .unwrap_or(CompilerArea::FrontEnd)
}

/// N-way differential testgen, call by call: compile on every target,
/// generate one test suite from the model, replay it everywhere.  Returns
/// whether the campaign would report a differential finding: a target
/// crashed, or a replay diverged from the model on an expected field.
fn differential(
    t: &mut Tracer,
    c: &mut Counts,
    targets: &[Box<dyn Target>],
    program: &Program,
    max_tests: usize,
) -> bool {
    let mut found = false;
    let mut runnable = Vec::new();
    for target in targets {
        t.enter("replay");
        let artifact = target.compile(program);
        t.exit();
        match artifact {
            Ok(artifact) if target.capabilities().semantic_tests => {
                runnable.push((target, artifact))
            }
            Err(TargetError::Crash { .. }) => found = true,
            _ => {}
        }
    }
    let Some((first, _)) = runnable.first() else {
        return found;
    };
    let options = testgen_options(&first.capabilities(), max_tests);
    t.enter("testgen");
    let tests = generate_tests(program, &options);
    t.exit();
    let Ok(tests) = tests else {
        return found;
    };
    c.tests += tests.len() as f64;
    for test in &tests {
        for (_, artifact) in &runnable {
            t.enter("replay");
            let outcome = artifact.run_test(test);
            t.exit();
            if let TestOutcome::Mismatch(mismatches) = outcome {
                found |= mismatches
                    .iter()
                    .any(|m| test.expected.contains_key(&m.field));
            }
        }
    }
    found
}

/// What a campaign carries from seed to seed within one chunk: the
/// coverage-guided generator and everything committed so far.
struct Chunk {
    start: u64,
    base: p4_gen::GeneratorConfig,
    generator: p4_gen::GeneratorConfig,
    accum: PassCoverage,
    census: ConstructCensus,
    /// Corpus entries the guided commit admitted.
    corpus_added: f64,
}

impl Pipeline {
    /// Starts chunk `[start, start+count)` as one campaign would: a fresh
    /// campaign cache (and metamorphic checker).
    fn begin_chunk(&mut self, start: u64, count: usize) -> Chunk {
        self.cache = Arc::new(CampaignCache::new());
        if self.checker.is_some() {
            self.checker = Some(MetamorphicChecker::with_cache(
                self.workload.build_compiler(),
                Arc::clone(&self.cache),
            ));
        }
        let base = self.workload.hunt_config(start, count, None).generator;
        Chunk {
            start,
            generator: base.clone(),
            base,
            accum: PassCoverage::new(),
            census: ConstructCensus::default(),
            corpus_added: 0.0,
        }
    }

    /// Seed `index` of the chunk; a coverage-guided workload adapts at an
    /// epoch barrier every `adapt_every` seeds and commits each seed's
    /// coverage.
    fn step(&mut self, chunk: &mut Chunk, index: usize) {
        let guided = self.workload == Workload::GuidedMutate;
        let adapt_every = CoverageOptions::default().adapt_every;
        if guided && index.is_multiple_of(adapt_every) {
            // The epoch barrier of a coverage-guided campaign: re-derive the
            // generator weights from everything committed so far.
            if index > 0 {
                self.cache.epoch_barrier();
            }
            self.tracer.enter("adapt");
            chunk.generator = WeightAdapter::default().adapt_with_pairs(
                &chunk.base,
                &chunk.accum.unfired_keys(),
                &chunk.accum.unfired_pair_keys(),
                &chunk.census,
                index / adapt_every,
            );
            self.tracer.exit();
        }
        let generator = chunk.generator.clone();
        let (coverage, program) = self.seed(chunk.start + index as u64, &generator);
        if guided {
            let newly_covers = coverage
                .fired_keys()
                .iter()
                .any(|key| !chunk.accum.fired(key))
                || coverage
                    .fired_pair_keys()
                    .iter()
                    .any(|key| !chunk.accum.pair_fired(key));
            if newly_covers {
                chunk.corpus_added += 1.0;
            }
            chunk.accum.merge(&coverage);
            chunk.census.merge(&ConstructCensus::of(&program));
        }
    }
}

/// The traced chunks run again untraced through the campaign entry points,
/// summed over chunks.
#[derive(Default)]
struct Untraced {
    /// Campaign wall time at the campaign's thread count, at one thread,
    /// and through the fleet.  The one-thread time is the campaign's busy
    /// time: its only worker never waits for another.
    campaign_s: f64,
    single_s: f64,
    fleet_s: f64,
    imbalance: Vec<f64>,
    cache: gauntlet_core::CacheStats,
    evicted: u64,
    pairs_fired: usize,
    corpus_added: usize,
    checkpoint_bytes: u64,
    checkpoints_written: usize,
    workers_spawned: usize,
    problems: Vec<String>,
}

impl Untraced {
    /// Runs chunk `[start, start+count)` untraced and folds it in, checking
    /// it against the traced pass, which admitted `traced_corpus` corpus
    /// entries for it and found `traced_findings`.
    fn add(
        &mut self,
        workload: Workload,
        (start, count): (u64, usize),
        traced_corpus: f64,
        traced_findings: &BTreeMap<u64, SeedFindings>,
    ) {
        let cache = Arc::new(CampaignCache::new());
        let campaign = run_campaign(workload, start, count, true, JOBS, Some(Arc::clone(&cache)));
        let single = run_campaign(workload, start, count, true, 1, None);
        let fleet = (workload == Workload::FleetCkpt)
            .then(|| run_campaign(workload, start, count, false, JOBS, None));
        self.campaign_s += campaign.elapsed_s;
        self.single_s += single.elapsed_s;
        let report = &campaign.report;
        let per_worker: Vec<f64> = report.per_worker.iter().map(|&n| n as f64).collect();
        let mean = per_worker.iter().sum::<f64>() / per_worker.len().max(1) as f64;
        self.imbalance
            .push(ratio(per_worker.iter().cloned().fold(0.0, f64::max), mean));
        if let Some(summary) = report.cache {
            self.cache.semantics_hits += summary.stats.semantics_hits;
            self.cache.semantics_misses += summary.stats.semantics_misses;
            self.cache.verdict_hits += summary.stats.verdict_hits;
            self.cache.verdict_misses += summary.stats.verdict_misses;
        }
        self.evicted += cache.evicted_entries();
        if let Some(coverage) = &report.coverage {
            self.pairs_fired = self.pairs_fired.max(coverage.pairs_fired());
            self.corpus_added += coverage.corpus_added;
            if workload == Workload::GuidedMutate && coverage.corpus_added as f64 != traced_corpus {
                self.problems.push(format!(
                    "seeds {start}..: the traced run admitted {traced_corpus} corpus entries, the campaign {}",
                    coverage.corpus_added
                ));
            }
        }
        let campaign_findings = SeedFindings::of_campaign(report);
        let none = SeedFindings::default();
        for seed in start..start + count as u64 {
            let traced = traced_findings.get(&seed).unwrap_or(&none);
            let committed = campaign_findings.get(&seed).unwrap_or(&none);
            if traced != committed {
                let keys = |f: &SeedFindings| {
                    let mut keys: Vec<&str> = f.p4c.iter().map(|(key, _)| key.as_str()).collect();
                    if f.differential {
                        keys.push("differential");
                    }
                    keys.join(", ")
                };
                self.problems.push(format!(
                    "seed {seed}: the traced run found [{}], the campaign [{}]",
                    keys(traced),
                    keys(committed)
                ));
            }
        }
        let digest = crate::phases::digest(&campaign);
        let runs = [
            ("jobs 2", Some(&campaign)),
            ("jobs 1", Some(&single)),
            ("fleet", fleet.as_ref()),
        ];
        for (label, outcome) in runs {
            let Some(outcome) = outcome else { continue };
            if outcome.report.programs_checked != count {
                self.problems.push(format!(
                    "seeds {start}.. at {label}: {} programs checked, {count} attempted",
                    outcome.report.programs_checked
                ));
            }
            if crate::phases::digest(outcome) != digest {
                self.problems.push(format!(
                    "seeds {start}..: the {label} report differs from jobs 2"
                ));
            }
        }
        if let Some(fleet) = &fleet {
            let (stats, bytes) = fleet.fleet.clone().expect("fleet counters");
            self.fleet_s += fleet.elapsed_s;
            self.checkpoint_bytes = self.checkpoint_bytes.max(bytes);
            self.checkpoints_written += stats.checkpoints_written;
            self.workers_spawned += stats.workers_spawned;
        }
    }
}

/// Entry point of the `traced` child: takes whole chunks, in order, until
/// 30% of the run's time is spent (at least one chunk).  Each seed goes
/// through the pipeline traced and through the same pipeline with the
/// tracer off, alternating which runs first; then the same chunks run
/// untraced through the campaign entry points.
pub fn traced_main(workload: Workload, seconds: u64, chunks: &[(u64, usize)]) {
    let budget = seconds as f64 * 0.3;
    // Warm up first, so the process's lazy one-time set-up is charged to
    // neither side of the overhead comparison.
    let mut warm_up = Pipeline::new(workload, Tracer::off());
    let mut chunk = warm_up.begin_chunk(SETUP_SEED, WARM_UP_SEEDS);
    for index in 0..WARM_UP_SEEDS {
        warm_up.step(&mut chunk, index);
    }
    let mut traced = Pipeline::new(workload, Tracer::new());
    let mut plain = Pipeline::new(workload, Tracer::off());
    let (mut traced_s, mut plain_s) = (0.0, 0.0);
    let mut done = Vec::new();
    let started = Instant::now();
    for &(start, count) in chunks {
        if !done.is_empty() && started.elapsed().as_secs_f64() >= budget {
            break;
        }
        let mut traced_chunk = traced.begin_chunk(start, count);
        let mut plain_chunk = plain.begin_chunk(start, count);
        for index in 0..count {
            // Alternate which side goes first, seed by seed, so a change in
            // machine speed touches both sides alike.
            for on in [index % 2 == 0, index % 2 != 0] {
                let began = Instant::now();
                if on {
                    traced.step(&mut traced_chunk, index);
                    traced_s += began.elapsed().as_secs_f64();
                } else {
                    plain.step(&mut plain_chunk, index);
                    plain_s += began.elapsed().as_secs_f64();
                }
            }
        }
        done.push(((start, count), traced_chunk.corpus_added));
    }
    let mut untraced = Untraced::default();
    for &(chunk, corpus_added) in &done {
        untraced.add(workload, chunk, corpus_added, &traced.findings);
    }
    report(&traced, traced_s, plain_s, &untraced);
}

fn report(pipeline: &Pipeline, traced_s: f64, plain_s: f64, untraced: &Untraced) {
    let c = &pipeline.counts;
    let u = untraced;
    let rows = &pipeline.rows;
    let seeds = rows.len();
    let totals = layer_totals(pipeline.tracer.spans());
    let self_ms = |name: &str| {
        totals
            .get(name)
            .map(|t| t.self_ns as f64 / 1e6)
            .unwrap_or(0.0)
    };
    let verdicts: Vec<f64> = rows.iter().map(|row| row.verdict_ms).collect();
    let fleet = pipeline.workload == Workload::FleetCkpt;

    let values: BTreeMap<&str, f64> = BTreeMap::from([
        ("gen.ms", self_ms("gen")),
        ("gen.statements", c.statements),
        ("compile.ms", self_ms("compile")),
        ("compile.pass_pairs", c.pass_pairs),
        ("compile.rules_fired", c.rules_fired),
        ("parse.ms", self_ms("parse")),
        ("interp.ms", self_ms("interp")),
        ("interp.semantics_misses", c.semantics_misses),
        (
            "interp.semantics_hit_ratio",
            ratio(c.semantics_hits, c.semantics_hits + c.semantics_misses),
        ),
        ("validate.ms", self_ms("validate")),
        ("validate.trivial_checks", c.trivial_checks),
        ("validate.solver_checks", c.solver_checks),
        ("validate.cached_checks", c.cached_checks),
        (
            "validate.verdict_hit_ratio",
            ratio(c.verdict_hits, c.verdict_hits + c.verdict_misses),
        ),
        ("sat.conflicts", c.conflicts),
        ("sat.decisions", c.decisions),
        ("sat.propagations", c.propagations),
        ("sat.variables", c.variables),
        ("solver.query_ms.p50", percentile(&c.query_ms, 50.0)),
        ("solver.query_ms.p99", percentile(&c.query_ms, 99.0)),
        ("solver.query_ms.max", percentile(&c.query_ms, 100.0)),
        ("seed.verdict_ms.p50", percentile(&verdicts, 50.0)),
        ("seed.verdict_ms.p99", percentile(&verdicts, 99.0)),
        ("seed.verdict_ms.max", percentile(&verdicts, 100.0)),
        ("mutate.ms", self_ms("mutate")),
        ("mutate.mutants", c.mutants),
        ("mutate.divergent", c.divergent),
        ("testgen.ms", self_ms("testgen")),
        ("testgen.tests", c.tests),
        ("replay.ms", self_ms("replay")),
        ("reduce.ms", self_ms("reduce")),
        ("reduce.oracle_calls", c.oracle_calls),
        (
            "reduce.accept_ratio",
            ratio(c.accepted_steps, c.oracle_calls),
        ),
        (
            "reduce.size_ratio",
            ratio(c.final_statements, c.initial_statements),
        ),
        ("adapt.ms", self_ms("adapt")),
        ("coverage.pairs_fired", u.pairs_fired as f64),
        ("corpus.added", u.corpus_added as f64),
        (
            "campaign.idle_pct",
            (1.0 - ratio(u.single_s, JOBS as f64 * u.campaign_s)) * 100.0,
        ),
        (
            "campaign.worker_imbalance",
            crate::stats::median(&u.imbalance),
        ),
        (
            "cache.semantics_hit_ratio",
            ratio(
                u.cache.semantics_hits as f64,
                u.cache.semantics_lookups() as f64,
            ),
        ),
        (
            "cache.verdict_hit_ratio",
            ratio(
                u.cache.verdict_hits as f64,
                u.cache.verdict_lookups() as f64,
            ),
        ),
        ("cache.evicted", u.evicted as f64),
        (
            "fleet.overhead_pct",
            if fleet {
                (ratio(u.fleet_s, u.campaign_s) - 1.0) * 100.0
            } else {
                0.0
            },
        ),
        ("fleet.checkpoint_bytes", u.checkpoint_bytes as f64),
        ("fleet.checkpoints_written", u.checkpoints_written as f64),
        ("fleet.workers_spawned", u.workers_spawned as f64),
        (
            "trace.overhead_pct",
            (ratio(traced_s, plain_s) - 1.0) * 100.0,
        ),
        ("trace.seeds", seeds as f64),
    ]);

    println!(
        "traced {seeds} seeds in {traced_s:.3}s, the same calls untraced {plain_s:.3}s: tracing overhead {:.1}%",
        values["trace.overhead_pct"]
    );
    println!(
        "campaign over the same seeds: {:.3}s at jobs 1, {:.3}s at jobs {JOBS}{}",
        u.single_s,
        u.campaign_s,
        if fleet {
            format!(", {:.3}s through the fleet", u.fleet_s)
        } else {
            String::new()
        }
    );
    println!();
    println!("{:<10} {:>12} {:>10}", "layer", "self ms", "calls");
    for (name, layer) in &totals {
        println!(
            "{name:<10} {:>12.3} {:>10}",
            layer.self_ns as f64 / 1e6,
            layer.calls
        );
    }
    println!();
    let mut slowest: Vec<&SeedRow> = rows.iter().collect();
    slowest.sort_by(|a, b| b.verdict_ms.total_cmp(&a.verdict_ms));
    println!(
        "{:<8} {:>12} {:>14}  stalled on (slowest pass pair, ms)",
        "seed", "verdict ms", "sat conflicts"
    );
    for row in slowest.iter().take(SLOWEST_SHOWN) {
        println!(
            "{:<8} {:>12.3} {:>14}  {} ({:.3})",
            row.seed, row.verdict_ms, row.conflicts, row.stalled_on, row.stalled_ms
        );
    }
    println!();
    for (name, unit) in PER_LAYER {
        println!("{name:<28} {:>14.4}  {unit}", values[name]);
    }
    for problem in &u.problems {
        println!("CHECK FAILED: {problem}");
    }
    let failed = if u.problems.is_empty() { 0 } else { seeds };
    let metrics: Vec<String> = PER_LAYER
        .iter()
        .map(|(name, _)| format!("\"{name}\":{}", json::number(values[name])))
        .collect();
    println!(
        "{{\"correct\":{},\"attempted\":{seeds},\"failed\":{failed},\"metrics\":{{{}}}}}",
        u.problems.is_empty(),
        metrics.join(",")
    );
}
