//! The Gauntlet pipeline: the three techniques glued together.
//!
//! * crash detection — compile a (random) program and catch abnormal
//!   termination (paper §4, Figure 2 left side);
//! * translation validation — re-parse and symbolically compare the program
//!   emitted after every modifying pass, pinpointing the faulty pass
//!   (paper §5, Figure 2);
//! * symbolic-execution testing — generate input/output tests from the
//!   input program's semantics and replay them on black-box back ends
//!   (paper §6, Figure 4), either one target at a time
//!   ([`Gauntlet::check_target`]) or N-way differential across every
//!   registered target with majority-vote attribution
//!   ([`Gauntlet::check_differential`]).

use crate::bugs::{BugKind, BugReport, CompilerArea, Platform, Technique};
use p4_ir::Program;
use p4_mutate::{
    MetamorphicChecker, MetamorphicFinding, MetamorphicFindingKind, MetamorphicOptions,
    MutationCoverage,
};
use p4_reduce::{Oracle, Reducer, ReducerConfig};
use p4_symbolic::{
    difference_headline, generate_tests, Equivalence, EquivalenceError, PairVerdict,
    ValidationSession,
};
use p4c::{CompileError, CompileResult, Compiler, PassArea, PassSnapshot};
use smt::Value;
use std::collections::{BTreeMap, BTreeSet};
use targets::{drive_target, testgen_options, Target, TargetError, TargetFinding};

/// The result of putting one program through one platform's pipeline.
#[derive(Debug, Clone, Default)]
pub struct ProgramOutcome {
    pub reports: Vec<BugReport>,
    /// True when the program compiled and every check passed.
    pub clean: bool,
    /// The fully lowered program, when compilation succeeded (open-compiler
    /// checks only).  Campaign workers hand it to
    /// [`Gauntlet::check_mutants_against`] so the metamorphic dimension
    /// does not recompile the seed.
    pub compiled: Option<Program>,
}

impl ProgramOutcome {
    fn with_reports(reports: Vec<BugReport>) -> ProgramOutcome {
        ProgramOutcome {
            clean: reports.is_empty(),
            reports,
            compiled: None,
        }
    }
}

fn area_of(pass_area: PassArea) -> CompilerArea {
    match pass_area {
        PassArea::FrontEnd => CompilerArea::FrontEnd,
        PassArea::MidEnd => CompilerArea::MidEnd,
        PassArea::BackEnd => CompilerArea::BackEnd,
    }
}

/// Looks up the area of a pass by name in the reference pipeline (used when
/// a semantic bug is attributed to a pass).
fn area_of_pass(pass_name: &str) -> CompilerArea {
    for pass in p4c::passes::default_pipeline() {
        if pass.name() == pass_name {
            return area_of(pass.area());
        }
    }
    CompilerArea::FrontEnd
}

/// Options for a Gauntlet run.
#[derive(Debug, Clone)]
pub struct GauntletOptions {
    /// Maximum tests generated per program for black-box back ends.
    pub max_tests: usize,
}

impl Default for GauntletOptions {
    fn default() -> Self {
        GauntletOptions { max_tests: 8 }
    }
}

/// The Gauntlet tool.
#[derive(Debug, Default)]
pub struct Gauntlet {
    pub options: GauntletOptions,
}

impl Gauntlet {
    pub fn new(options: GauntletOptions) -> Gauntlet {
        Gauntlet { options }
    }

    /// Delta-debugs `program` down to a minimal reproducer of `report`
    /// (within the default [`ReducerConfig`] oracle-call budget) and
    /// attaches the result (`minimized` + `reduction` stats) to the report.
    ///
    /// The oracle must match the finding (see [`Gauntlet::open_compiler_oracle`]
    /// and `SeededBug::oracle`); a candidate is only ever accepted when it
    /// reproduces the *same* [`BugReport::dedup_key`], so reduction cannot
    /// drift onto a different bug.  Returns false when the program does not
    /// reproduce the report through the given oracle.
    pub fn reduce_report(
        &self,
        oracle: &mut dyn Oracle,
        program: &Program,
        report: &mut BugReport,
    ) -> bool {
        let target = report.dedup_key();
        let reducer = Reducer::new(ReducerConfig::default());
        match reducer.reduce(oracle, program, &target) {
            Some(reduction) => {
                report.minimized = Some(p4_ir::print_program(&reduction.program));
                report.reduction = Some(reduction.stats);
                true
            }
            None => false,
        }
    }

    /// Technique 1 + 2 against an open compiler (P4C): compile, report
    /// crashes, then translation-validate every pass.
    pub fn check_open_compiler(&self, compiler: &Compiler, program: &Program) -> ProgramOutcome {
        self.check_open_compiler_in(&mut ValidationSession::new(), compiler, program)
    }

    /// [`Gauntlet::check_open_compiler`] with an explicit validation
    /// session: campaign workers open one session per program, attached to
    /// the pool's shared `p4_symbolic::CampaignCache`, so semantics and
    /// verdicts memoise across every program the pool checks.
    pub fn check_open_compiler_in(
        &self,
        session: &mut ValidationSession,
        compiler: &Compiler,
        program: &Program,
    ) -> ProgramOutcome {
        match compiler.compile(program) {
            Err(error) => ProgramOutcome::with_reports(vec![compile_error_report(error)]),
            Ok(result) => {
                let reports = self.validate_translation_in(session, &result);
                let mut outcome = ProgramOutcome::with_reports(reports);
                outcome.compiled = Some(result.program);
                outcome
            }
        }
    }

    /// Translation validation over the per-pass snapshots of a successful
    /// compilation (paper §5.2).
    ///
    /// The chain p₀ ≡ p₁ ≡ … ≡ pₙ is validated through one fresh
    /// [`ValidationSession`]: every snapshot is interpreted once and serves
    /// as both the right-hand side of one check and the left-hand side of
    /// the next, and all equivalence queries share one incremental solver.
    pub fn validate_translation(&self, result: &CompileResult) -> Vec<BugReport> {
        self.validate_translation_in(&mut ValidationSession::new(), result)
    }

    /// Translation validation with an explicit session, allowing callers to
    /// share incremental state across *programs* as well as across the
    /// passes of one program.
    pub fn validate_translation_in(
        &self,
        session: &mut ValidationSession,
        result: &CompileResult,
    ) -> Vec<BugReport> {
        result
            .pass_pairs()
            .filter_map(|(before, after)| pair_report(session, before, after, false))
            .collect()
    }

    /// The second bug-finding dimension — metamorphic mutation testing
    /// (`p4-mutate`, the EMI-style oracle of paper §8): derive
    /// semantics-preserving mutants of `program`, compile seed and every
    /// mutant with the checker's compiler, and prove `compile(mutant) ≡
    /// compile(seed)` end-to-end through the checker's hash-consed
    /// incremental `ValidationSession`.  A divergence is reported as
    /// [`BugKind::Metamorphic`], de-duplicated by the (ddmin-minimised)
    /// mutator chain plus the diverging output field; compiler crashes and
    /// rejections on a mutant are reported under their own kinds so they
    /// collapse with the same defect found by plain crash detection.
    ///
    /// `seed` seeds the mutation streams: the same `(program, options,
    /// seed)` triple yields byte-identical reports on any worker, which is
    /// how `HuntConfig::mutation` folds this into the ordered-commit
    /// determinism contract.
    pub fn check_mutants(
        &self,
        checker: &mut MetamorphicChecker,
        program: &Program,
        options: &MetamorphicOptions,
        seed: u64,
    ) -> MutationOutcome {
        match checker.compile_seed(program) {
            Some(seed_final) => {
                self.check_mutants_against(checker, &seed_final, program, options, seed)
            }
            None => MutationOutcome::default(),
        }
    }

    /// [`Gauntlet::check_mutants`] with the seed's compiled form supplied by
    /// the caller (see [`ProgramOutcome::compiled`]) — saves one full
    /// pipeline run per hunted program.
    pub fn check_mutants_against(
        &self,
        checker: &mut MetamorphicChecker,
        seed_final: &Program,
        program: &Program,
        options: &MetamorphicOptions,
        seed: u64,
    ) -> MutationOutcome {
        let outcome = checker.check_against(seed_final, program, options, seed);
        let mut reports = Vec::new();
        let mut keys = BTreeSet::new();
        for mut finding in outcome.findings {
            p4_reduce::minimize_chain(checker, seed_final, program, &mut finding);
            let report = metamorphic_report(&finding);
            // Distinct mutants of one seed often minimise to the same chain
            // and diverging field; keep the first report per dedup key so
            // the campaign does not commit (and re-reduce) identical ones.
            if keys.insert(report.dedup_key()) {
                reports.push(report);
            }
        }
        MutationOutcome {
            reports,
            coverage: outcome.coverage,
            mutants_checked: outcome.mutants_checked,
        }
    }

    /// Technique 3 against one black-box back end: compile for the target,
    /// generate tests from the input program's symbolic semantics, replay
    /// them, and package divergences as bug reports.  Works uniformly for
    /// every [`Target`] implementation — back ends are selected through the
    /// `targets::TargetRegistry`, not compile-time branching.
    pub fn check_target(&self, target: &dyn Target, program: &Program) -> ProgramOutcome {
        let _telemetry = gauntlet_telemetry::Span::begin(gauntlet_telemetry::Stage::Testgen);
        let platform = target_platform(target);
        let reports = drive_target(target, program, self.options.max_tests)
            .into_iter()
            .map(|finding| finding_report(finding, platform).attributed_to(target.name()))
            .collect();
        ProgramOutcome::with_reports(reports)
    }

    /// N-way differential testgen (the multi-backend scenario of the
    /// paper's campaign): generate tests once from the input program's
    /// semantics, replay every test on *all* given targets, and
    /// majority-vote per output field to attribute which participant —
    /// one of the targets, or the test-generation model itself —
    /// disagrees.
    ///
    /// Per (test, field) the voters are the model's expected value plus
    /// every target's observed value; participants outside the strict
    /// majority are suspects.  When no strict majority exists the model is
    /// trusted (its semantics are the specification) and every dissenting
    /// target is a suspect.  When a strict majority of targets out-votes
    /// the model, the finding is attributed to `"model"` — with all targets
    /// consuming the same front/mid end output, that points at the shared
    /// compiler stages or at our own oracle (the false-alarm discipline of
    /// §5.2).
    pub fn check_differential(
        &self,
        targets: &[Box<dyn Target>],
        program: &Program,
    ) -> ProgramOutcome {
        let _telemetry = gauntlet_telemetry::Span::begin(gauntlet_telemetry::Stage::Testgen);
        let mut reports = Vec::new();
        // Compile on every target.  Crashes are findings; restriction
        // rejections (and crash-only targets) just drop out of the vote.
        let mut runnable = Vec::new();
        for target in targets {
            match target.compile(program) {
                Ok(artifact) => {
                    if target.capabilities().semantic_tests {
                        runnable.push((target, artifact));
                    }
                }
                Err(TargetError::Crash { pass, message }) => {
                    reports.push(
                        finding_report(
                            TargetFinding::Crash { pass, message },
                            target_platform(&**target),
                        )
                        .attributed_to(target.name()),
                    );
                }
                Err(TargetError::Rejected { .. }) => {}
            }
        }
        if runnable.is_empty() {
            return ProgramOutcome::with_reports(reports);
        }
        // One test suite, generated from the model, replayed everywhere —
        // which is only sound when every voting target shares the same
        // capabilities (test block, undefined-read policy).  A mixed pool
        // would replay tests generated under one target's policy on targets
        // with another, misattributing every resulting divergence, so fail
        // fast instead.
        let caps = runnable[0].0.capabilities();
        for (target, _) in &runnable[1..] {
            assert_eq!(
                target.capabilities(),
                caps,
                "differential targets must share capabilities: `{}` differs from `{}`",
                target.name(),
                runnable[0].0.name()
            );
        }
        let options = testgen_options(&caps, self.options.max_tests);
        let tests = match generate_tests(program, &options) {
            Ok(tests) => tests,
            Err(_) => return ProgramOutcome::with_reports(reports),
        };

        let mut suspects: BTreeMap<usize, Suspect> = BTreeMap::new();
        for test in &tests {
            // Observed values per target: `None` entries abstain (skipped).
            let observations: Vec<Option<BTreeMap<String, Value>>> = runnable
                .iter()
                .map(|(_, artifact)| match artifact.run_test(test) {
                    targets::TestOutcome::Pass => Some(BTreeMap::new()),
                    targets::TestOutcome::Mismatch(mismatches) => Some(
                        mismatches
                            .into_iter()
                            .map(|m| (m.field, m.actual))
                            .collect(),
                    ),
                    targets::TestOutcome::Skipped(_) => None,
                })
                .collect();
            // Fields where at least one target diverged from the model.
            let contested: BTreeSet<&str> = observations
                .iter()
                .flatten()
                .flat_map(|fields| fields.keys().map(String::as_str))
                .collect();
            let mut failed_this_test: BTreeSet<usize> = BTreeSet::new();
            for field in contested {
                let Some(expected) = test.expected.get(field) else {
                    continue;
                };
                // One vote per participant; targets that pass a field vote
                // with the model (the harness compared them equal).
                let mut votes: Vec<(usize, &Value)> = vec![(MODEL, expected)];
                for (index, observation) in observations.iter().enumerate() {
                    if let Some(fields) = observation {
                        votes.push((index, fields.get(field).unwrap_or(expected)));
                    }
                }
                for (participant, value) in losers(&votes) {
                    failed_this_test.insert(participant);
                    let consensus = consensus_of(&votes, participant);
                    suspects
                        .entry(participant)
                        .or_default()
                        .observe(field, &consensus, value);
                }
            }
            for participant in failed_this_test {
                suspects.entry(participant).or_default().failing_tests += 1;
            }
        }

        // Deterministic report order: targets in input order, model last.
        for (participant, suspect) in &suspects {
            // `consensus` is what the other participants agreed on;
            // `observed` is the suspect's own value (for the MODEL suspect,
            // its "observation" is the expected output it computed).
            let Some((field, consensus, observed)) = &suspect.first else {
                continue;
            };
            let report = if *participant == MODEL {
                BugReport::new(
                    BugKind::Semantic,
                    Platform::Model,
                    // Every target consumes the shared front/mid end's
                    // output, so a target majority against the model points
                    // at those shared stages (or at the oracle itself).
                    CompilerArea::MidEnd,
                    Technique::SymbolicExecution,
                    None,
                    format!(
                        "differential mismatch on `{field}`: target consensus {consensus:?}, model expected {observed:?} ({} of {} tests failed)",
                        suspect.failing_tests,
                        tests.len()
                    ),
                )
                .attributed_to("model")
            } else {
                let target = runnable[*participant].0.as_ref();
                BugReport::new(
                    BugKind::Semantic,
                    target_platform(target),
                    CompilerArea::BackEnd,
                    Technique::SymbolicExecution,
                    None,
                    format!(
                        "{} differential mismatch on `{field}`: consensus {consensus:?}, observed {observed:?} ({} of {} tests failed, {}-way)",
                        target.harness(),
                        suspect.failing_tests,
                        tests.len(),
                        runnable.len()
                    ),
                )
                .attributed_to(target.name())
            };
            reports.push(report);
        }
        ProgramOutcome::with_reports(reports)
    }
}

/// Crash detection (paper §4): a failed compile as a crash or rejection
/// report.  Programs are well-typed by construction, so a rejection means
/// the compiler incorrectly refuses a valid program.
pub(crate) fn compile_error_report(error: CompileError) -> BugReport {
    match error {
        CompileError::Crash {
            pass,
            area,
            message,
        } => BugReport::new(
            BugKind::Crash,
            Platform::P4c,
            area_of(area),
            Technique::RandomGeneration,
            Some(pass),
            message,
        ),
        CompileError::Rejected { pass, diagnostics } => BugReport::new(
            BugKind::Rejection,
            Platform::P4c,
            area_of_pass(&pass),
            Technique::RandomGeneration,
            Some(pass),
            diagnostics.join("; "),
        ),
    }
}

/// Translation validation of one snapshot pair (paper §5.2): the emitted
/// program no longer parses, behaves differently from its predecessor, or
/// no longer exposes the same block outputs.  With `verdict_only` a
/// semantic difference is decided without building its counterexample and
/// the report carries only the headline, the line its dedup key keeps.
pub(crate) fn pair_report(
    session: &mut ValidationSession,
    before: &PassSnapshot,
    after: &PassSnapshot,
    verdict_only: bool,
) -> Option<BugReport> {
    let report = |kind, message| {
        Some(BugReport::new(
            kind,
            Platform::P4c,
            area_of(after.area),
            Technique::TranslationValidation,
            Some(after.pass_name.clone()),
            message,
        ))
    };
    // A parse failure is an invalid transformation (§7.2).
    if let Err(error) = p4_parser::parse_program(&after.printed) {
        return report(
            BugKind::InvalidTransformation,
            format!("emitted program no longer parses: {error}"),
        );
    }
    let difference = if verdict_only {
        session
            .check_pair_verdict(&before.program, &after.program)
            .map(|verdict| match verdict {
                PairVerdict::Equal => None,
                PairVerdict::Differs { block } => Some(difference_headline(&block)),
            })
    } else {
        session
            .check_pair(&before.program, &after.program)
            .map(|equivalence| match equivalence {
                Equivalence::Equal => None,
                Equivalence::NotEqual(counterexample) => Some(format!("{counterexample}")),
            })
    };
    match difference {
        Ok(None) => None,
        Ok(Some(message)) => report(BugKind::Semantic, message),
        Err(EquivalenceError::StructureMismatch { block, detail }) => report(
            BugKind::InvalidTransformation,
            format!("structure mismatch in `{block}`: {detail}"),
        ),
        // The interpreter cannot handle this program: skip, as the paper
        // does for unsupported constructs (§8).
        Err(EquivalenceError::Interpreter(_)) => None,
    }
}

/// The result of checking one seed program's mutant family
/// ([`Gauntlet::check_mutants`]).
#[derive(Debug, Clone, Default)]
pub struct MutationOutcome {
    pub reports: Vec<BugReport>,
    /// Which mutation rules were applied while building the family
    /// (reported by campaigns next to pass-rewrite coverage).
    pub coverage: MutationCoverage,
    /// Mutants that actually mutated and were checked.
    pub mutants_checked: usize,
}

/// Packages a metamorphic finding as a [`BugReport`].
fn metamorphic_report(finding: &MetamorphicFinding) -> BugReport {
    match finding.kind {
        MetamorphicFindingKind::Divergence => BugReport::new(
            BugKind::Metamorphic,
            Platform::P4c,
            // The end-to-end oracle cannot localise a pass; like the paper's
            // EMI discussion, findings point at the shared front end until a
            // human (or reduction) narrows them down.
            CompilerArea::FrontEnd,
            Technique::MetamorphicMutation,
            None,
            format!("{}\n{}", finding.headline(), finding.detail),
        ),
        MetamorphicFindingKind::Crash => BugReport::new(
            BugKind::Crash,
            Platform::P4c,
            finding
                .pass
                .as_deref()
                .map(area_of_pass)
                .unwrap_or(CompilerArea::FrontEnd),
            Technique::MetamorphicMutation,
            finding.pass.clone(),
            format!(
                "{}\n  via mutation chain `{}`",
                finding.detail,
                finding.chain_key()
            ),
        ),
        MetamorphicFindingKind::Rejection => BugReport::new(
            BugKind::Rejection,
            Platform::P4c,
            finding
                .pass
                .as_deref()
                .map(area_of_pass)
                .unwrap_or(CompilerArea::FrontEnd),
            Technique::MetamorphicMutation,
            finding.pass.clone(),
            format!(
                "{}\n  via mutation chain `{}`",
                finding.detail,
                finding.chain_key()
            ),
        ),
    }
}

/// The sentinel participant index of the test-generation model.
const MODEL: usize = usize::MAX;

/// Per-suspect accumulator for differential attribution.
#[derive(Default)]
struct Suspect {
    failing_tests: usize,
    /// First divergence seen: (field, consensus value, suspect's value).
    first: Option<(String, Value, Value)>,
}

impl Suspect {
    fn observe(&mut self, field: &str, consensus: &Value, value: &Value) {
        if self.first.is_none() {
            self.first = Some((field.to_string(), consensus.clone(), value.clone()));
        }
    }
}

/// Canonical form of a vote value, congruent with the comparison rule of
/// `harness::compare_outputs`: everything (booleans included — the harness
/// substitutes `Bool(false)` for fields missing from an observation, which
/// must group with a genuine zero) is compared as a 128-bit vector.
fn vote_key(value: &Value) -> String {
    format!("{:?}", value.as_bv().resize(128))
}

/// The participants voted out by strict majority; on a tie, the model is
/// trusted and every participant disagreeing with it loses.
fn losers<'a>(votes: &[(usize, &'a Value)]) -> Vec<(usize, &'a Value)> {
    let mut tally: BTreeMap<String, usize> = BTreeMap::new();
    for (_, value) in votes {
        *tally.entry(vote_key(value)).or_insert(0) += 1;
    }
    let majority = tally
        .iter()
        .max_by_key(|(_, count)| **count)
        .filter(|(_, count)| **count * 2 > votes.len())
        .map(|(key, _)| key.clone());
    let reference = match majority {
        Some(key) => key,
        // No strict majority: the model's semantics are the specification.
        None => {
            let model_value = votes
                .iter()
                .find(|(participant, _)| *participant == MODEL)
                .map(|(_, value)| vote_key(value))
                .unwrap_or_default();
            model_value
        }
    };
    votes
        .iter()
        .filter(|(_, value)| vote_key(value) != reference)
        .map(|(participant, value)| (*participant, *value))
        .collect()
}

/// The consensus value a suspect diverged from (majority of the others).
fn consensus_of(votes: &[(usize, &Value)], suspect: usize) -> Value {
    let mut tally: BTreeMap<String, (usize, Value)> = BTreeMap::new();
    for (participant, value) in votes {
        if *participant == suspect {
            continue;
        }
        let entry = tally
            .entry(vote_key(value))
            .or_insert_with(|| (0, (*value).clone()));
        entry.0 += 1;
    }
    tally
        .into_values()
        .max_by_key(|(count, _)| *count)
        .map(|(_, value)| value)
        .unwrap_or(Value::Bool(false))
}

/// Resolves a target's platform, panicking with guidance when a custom
/// target uses a label `gauntlet-core` has no variant for (see the
/// "Adding a new target" section of the README).
fn target_platform(target: &dyn Target) -> Platform {
    Platform::for_label(target.platform_label()).unwrap_or_else(|| {
        panic!(
            "target `{}` reports unknown platform label `{}`; add a Platform variant or reuse an existing label",
            target.name(),
            target.platform_label()
        )
    })
}

/// Packages a [`TargetFinding`] as a [`BugReport`] on `platform`.
fn finding_report(finding: TargetFinding, platform: Platform) -> BugReport {
    match finding {
        TargetFinding::Crash { pass, message } => BugReport::new(
            BugKind::Crash,
            platform,
            CompilerArea::BackEnd,
            Technique::RandomGeneration,
            Some(pass),
            message,
        ),
        TargetFinding::Semantic { message } => BugReport::new(
            BugKind::Semantic,
            platform,
            CompilerArea::BackEnd,
            Technique::SymbolicExecution,
            None,
            message,
        ),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use p4_ir::builder;
    use p4c::FrontEndBugClass;
    use targets::{BackEndBugClass, Bmv2Target, TargetRegistry, TofinoBackend};

    #[test]
    fn reference_compiler_is_clean_on_the_skeleton_programs() {
        let gauntlet = Gauntlet::default();
        let compiler = Compiler::reference();
        for program in [builder::trivial_program(), {
            let (locals, apply) = builder::figure3_table_control();
            builder::v1model_program(locals, apply)
        }] {
            let outcome = gauntlet.check_open_compiler(&compiler, &program);
            assert!(outcome.clean, "false alarm: {:#?}", outcome.reports);
        }
    }

    #[test]
    fn seeded_defuse_bug_is_reported_as_a_semantic_bug_in_the_right_pass() {
        let gauntlet = Gauntlet::default();
        let mut compiler = Compiler::reference();
        compiler.replace_pass(FrontEndBugClass::DefUseDropsParameterWrites.faulty_pass());
        let outcome = gauntlet.check_open_compiler(&compiler, &builder::trivial_program());
        assert!(!outcome.clean);
        let report = &outcome.reports[0];
        assert_eq!(report.kind, BugKind::Semantic);
        assert_eq!(report.pass.as_deref(), Some("SimplifyDefUse"));
    }

    /// Reduction through the pipeline API: a padded trigger program shrinks
    /// while still reproducing the identical dedup key.
    #[test]
    fn reduce_report_attaches_a_minimized_reproducer() {
        use p4_ir::{Block, Expr, Statement};
        let gauntlet = Gauntlet::default();
        let build = || {
            let mut compiler = Compiler::reference();
            compiler.replace_pass(FrontEndBugClass::DefUseDropsParameterWrites.faulty_pass());
            compiler
        };
        let mut statements: Vec<Statement> = (0..8)
            .map(|i| Statement::assign(Expr::dotted(&["meta", "flag"]), Expr::uint(i, 8)))
            .collect();
        statements.push(Statement::assign(
            Expr::dotted(&["hdr", "h", "a"]),
            Expr::uint(1, 8),
        ));
        let program = builder::v1model_program(vec![], Block::new(statements));
        let outcome = gauntlet.check_open_compiler(&build(), &program);
        assert!(!outcome.clean);
        let mut report = outcome.reports[0].clone();
        let target = report.dedup_key();
        let mut oracle = Gauntlet::open_compiler_oracle(&report, build());
        assert!(gauntlet.reduce_report(&mut *oracle, &program, &mut report));
        let stats = report.reduction.expect("stats attached");
        assert!(
            stats.final_statements < stats.initial_statements,
            "{stats:?}"
        );
        // The minimized source re-parses and still reproduces the same key.
        let minimized =
            p4_parser::parse_program(report.minimized.as_deref().expect("minimized attached"))
                .expect("minimized reproducer parses");
        assert!(oracle.reproduces(&minimized, &target));
    }

    /// The metamorphic dimension pays for itself exactly where translation
    /// validation is provably blind: corruption applied before the first
    /// snapshot makes every pass pair self-consistent, yet the mutant
    /// family convicts the compiler end-to-end.
    #[test]
    fn metamorphic_check_convicts_pre_snapshot_corruption_tv_misses() {
        use p4_ir::{Block, Expr, Statement};
        let trigger = builder::v1model_program(
            vec![],
            Block::new(vec![
                Statement::assign(Expr::dotted(&["meta", "flag"]), Expr::uint(1, 8)),
                Statement::assign(Expr::dotted(&["hdr", "h", "b"]), Expr::uint(2, 8)),
                Statement::assign(Expr::dotted(&["hdr", "h", "a"]), Expr::uint(7, 8)),
            ]),
        );
        let build = || {
            let mut compiler = Compiler::reference();
            compiler.seed_input_corruption(p4c::DriverBugClass::SnapshotDropsFinalWrite);
            compiler
        };
        let gauntlet = Gauntlet::default();
        // Crash detection + per-pass translation validation: silent.
        let open = gauntlet.check_open_compiler(&build(), &trigger);
        assert!(open.clean, "TV must be blind here: {:#?}", open.reports);
        // Metamorphic mutation: convicted.
        let mut checker = MetamorphicChecker::new(build());
        let outcome = gauntlet.check_mutants(
            &mut checker,
            &trigger,
            &MetamorphicOptions::default(),
            p4_mutate::CAMPAIGN_MUTATION_SEED,
        );
        assert!(outcome.mutants_checked > 0);
        let divergence = outcome
            .reports
            .iter()
            .find(|r| r.kind == BugKind::Metamorphic)
            .unwrap_or_else(|| panic!("no metamorphic finding: {:#?}", outcome.reports));
        assert_eq!(divergence.platform, Platform::P4c);
        assert!(
            divergence.message.starts_with("mutation chain `"),
            "{}",
            divergence.message
        );
        // And the reference compiler stays metamorphically clean (the
        // false-alarm discipline of §5.2 applies to the new oracle too).
        let mut reference = MetamorphicChecker::new(Compiler::reference());
        let clean = gauntlet.check_mutants(
            &mut reference,
            &trigger,
            &MetamorphicOptions::default(),
            p4_mutate::CAMPAIGN_MUTATION_SEED,
        );
        assert!(clean.reports.is_empty(), "{:#?}", clean.reports);
    }

    fn exit_program() -> Program {
        use p4_ir::{Block, Expr, Statement};
        builder::v1model_program(
            vec![],
            Block::new(vec![
                Statement::assign(Expr::dotted(&["hdr", "h", "a"]), Expr::uint(1, 8)),
                Statement::Exit,
                Statement::assign(Expr::dotted(&["hdr", "h", "a"]), Expr::uint(2, 8)),
            ]),
        )
    }

    #[test]
    fn bmv2_backend_bug_is_reported_via_the_target_trait() {
        let program = exit_program();
        let gauntlet = Gauntlet::default();
        let clean = gauntlet.check_target(&Bmv2Target::new(), &program);
        assert!(clean.clean);
        let buggy = gauntlet.check_target(
            &Bmv2Target::with_bug(BackEndBugClass::Bmv2ExitIgnored),
            &program,
        );
        assert!(!buggy.clean);
        assert_eq!(buggy.reports[0].platform, Platform::Bmv2);
        assert_eq!(buggy.reports[0].attributed_to.as_deref(), Some("bmv2"));
    }

    #[test]
    fn tofino_crash_and_semantic_bugs_are_reported() {
        use p4_ir::{BinOp, Block, Expr, Statement};
        let gauntlet = Gauntlet::default();
        // Semantic: saturating add lowered to wrapping add.
        let program = builder::tna_program(
            vec![],
            Block::new(vec![Statement::assign(
                Expr::dotted(&["hdr", "h", "a"]),
                Expr::binary(
                    BinOp::SatAdd,
                    Expr::dotted(&["hdr", "h", "b"]),
                    Expr::uint(255, 8),
                ),
            )]),
        );
        let clean = gauntlet.check_target(&TofinoBackend::new(), &program);
        assert!(clean.clean, "false alarm: {:#?}", clean.reports);
        let buggy = gauntlet.check_target(
            &TofinoBackend::with_bug(BackEndBugClass::TofinoSaturationWraps),
            &program,
        );
        assert!(!buggy.clean);
        assert_eq!(buggy.reports[0].kind, BugKind::Semantic);

        // Crash: slice lowering assertion.
        let slice_program = builder::tna_program(
            vec![],
            Block::new(vec![Statement::Assign {
                lhs: Expr::slice(Expr::dotted(&["hdr", "h", "a"]), 3, 0),
                rhs: Expr::uint(1, 4),
            }]),
        );
        let crash = gauntlet.check_target(
            &TofinoBackend::with_bug(BackEndBugClass::TofinoSliceLoweringCrash),
            &slice_program,
        );
        assert!(!crash.clean);
        assert_eq!(crash.reports[0].kind, BugKind::Crash);
        assert_eq!(crash.reports[0].platform, Platform::Tofino);
    }

    fn three_way(specs: [&str; 3]) -> Vec<Box<dyn Target>> {
        let registry = TargetRegistry::builtin();
        specs
            .iter()
            .map(|spec| registry.build_spec(spec).expect("builtin spec"))
            .collect()
    }

    #[test]
    fn differential_attributes_the_one_seeded_target() {
        let gauntlet = Gauntlet::default();
        let program = exit_program();
        let targets = three_way(["bmv2+Bmv2ExitIgnored", "tofino", "ref-interp"]);
        let outcome = gauntlet.check_differential(&targets, &program);
        assert!(!outcome.clean);
        assert!(
            outcome
                .reports
                .iter()
                .all(|r| r.attributed_to.as_deref() == Some("bmv2")),
            "{:#?}",
            outcome.reports
        );
        assert_eq!(outcome.reports[0].platform, Platform::Bmv2);
    }

    #[test]
    fn differential_is_clean_when_all_targets_agree_with_the_model() {
        let gauntlet = Gauntlet::default();
        let outcome = gauntlet.check_differential(
            &three_way(["bmv2", "tofino", "ref-interp"]),
            &exit_program(),
        );
        assert!(outcome.clean, "{:#?}", outcome.reports);
    }

    #[test]
    fn differential_attributes_to_the_model_when_targets_are_unanimous() {
        let gauntlet = Gauntlet::default();
        // Every target ignores `exit`, so they all agree with each other
        // and unanimously out-vote the model's expectation.
        let targets = three_way([
            "bmv2+Bmv2ExitIgnored",
            "tofino+TofinoExitIgnored",
            "ref-interp+Bmv2ExitIgnored",
        ]);
        let outcome = gauntlet.check_differential(&targets, &exit_program());
        assert!(!outcome.clean);
        assert_eq!(outcome.reports.len(), 1, "{:#?}", outcome.reports);
        assert_eq!(outcome.reports[0].attributed_to.as_deref(), Some("model"));
        assert_eq!(outcome.reports[0].platform, Platform::Model);
        // Value order in the message: the exit-dropping targets keep
        // executing and observe 2, while the model expects 1.
        assert!(
            outcome.reports[0]
                .message
                .contains("target consensus Bv(8w2), model expected Bv(8w1)"),
            "{}",
            outcome.reports[0].message
        );
    }
}
