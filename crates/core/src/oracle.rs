//! Reduction oracles: the detection pipeline re-run on shrink candidates.
//!
//! A reduction step is only sound if the shrunk program still triggers *the
//! same* bug, not merely *a* bug: a reducer that drifts onto a second,
//! shallower defect produces a useless report.  Findings are told apart by
//! [`BugReport::dedup_key`] (`kind|platform|pass|first message line`, the
//! way the authors told P4C bugs apart by their distinct assertion
//! messages, paper §7.3).  Every oracle here re-runs the detection code
//! that filed the finding and matches the keys of the reports it files
//! against the target, so an oracle reproduces exactly what detection
//! finds and no second key format exists.

use crate::bugs::BugReport;
use crate::pipeline::{compile_error_report, pair_report, Gauntlet};
use p4_ir::Program;
use p4_mutate::{MetamorphicChecker, MetamorphicOptions};
use p4_reduce::Oracle;
use p4_symbolic::ValidationSession;
use p4c::{Compiler, Snapshots};

/// Crash detection plus translation validation, reading from each target
/// key what to compile.
///
/// A translation-validation target names its pass
/// ([`BugReport::validated_pass`]): the compiler snapshots only that pass
/// ([`Snapshots::Pass`]) and its pairs are decided verdict-only, since the
/// key keeps only the first line of a counterexample.  The whole pipeline
/// still runs, so a crash or rejection still rejects the candidate.  Every
/// other target is matched against the compile error alone, so it compiles
/// without snapshots.  One incremental [`ValidationSession`] serves every
/// shrink step: candidates differ by a few removed statements, so their
/// snapshots hash-cons onto largely identical terms.
pub(crate) struct OpenCompilerOracle {
    compiler: Compiler,
    session: ValidationSession,
}

impl OpenCompilerOracle {
    pub(crate) fn new(compiler: Compiler) -> OpenCompilerOracle {
        OpenCompilerOracle {
            compiler,
            session: ValidationSession::new(),
        }
    }
}

impl Oracle for OpenCompilerOracle {
    fn reproduces(&mut self, program: &Program, target: &str) -> bool {
        let pass = BugReport::validated_pass(target);
        self.compiler
            .set_snapshots(pass.map_or(Snapshots::None, |pass| Snapshots::Pass(pass.into())));
        match self.compiler.compile(program) {
            Err(error) => compile_error_report(error).dedup_key() == target,
            Ok(result) => result
                .pass_pairs()
                .filter(|(_, after)| Some(after.pass_name.as_str()) == pass)
                .any(|(before, after)| {
                    pair_report(&mut self.session, before, after, true)
                        .is_some_and(|report| report.dedup_key() == target)
                }),
        }
    }
}

impl Gauntlet {
    /// The oracle for findings of the open-compiler pipeline
    /// ([`Gauntlet::check_open_compiler`]) on `compiler`.  It reads the
    /// technique from the target key it is asked about, so the oracle
    /// reproduces the finding `_report` and any other open-compiler one.
    pub fn open_compiler_oracle(_report: &BugReport, compiler: Compiler) -> Box<dyn Oracle> {
        Box::new(OpenCompilerOracle::new(compiler))
    }

    /// The oracle for metamorphic findings ([`Gauntlet::check_mutants`]):
    /// the candidate's mutant family, derived from the same mutation-stream
    /// `seed` the detection used, still files the target, with the same
    /// minimised chain and diverging field.
    pub fn metamorphic_oracle(
        compiler: Compiler,
        options: MetamorphicOptions,
        seed: u64,
    ) -> Box<dyn Oracle> {
        let mut checker = MetamorphicChecker::new(compiler);
        Box::new(move |program: &Program, target: &str| {
            files(
                &Gauntlet::default()
                    .check_mutants(&mut checker, program, &options, seed)
                    .reports,
                target,
            )
        })
    }
}

/// Whether `reports` hold a finding with dedup key `target`.
pub(crate) fn files(reports: &[BugReport], target: &str) -> bool {
    reports.iter().any(|report| report.dedup_key() == target)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::bugs::{BugKind, CompilerArea, Platform, Technique};
    use crate::inject::SeededBug;
    use p4_ir::{builder, Block, Expr, Statement};
    use p4c::{DriverBugClass, FrontEndBugClass};

    #[test]
    fn signature_format_uses_first_line_only() {
        let report = |kind, platform, pass: Option<&str>, message: &str| {
            BugReport::new(
                kind,
                platform,
                CompilerArea::FrontEnd,
                Technique::RandomGeneration,
                pass.map(str::to_string),
                message.into(),
            )
            .dedup_key()
        };
        assert_eq!(
            report(
                BugKind::Crash,
                Platform::P4c,
                Some("SimplifyDefUse"),
                "boom\ndetail"
            ),
            "Crash|P4c|SimplifyDefUse|boom"
        );
        assert_eq!(
            report(BugKind::Semantic, Platform::Bmv2, None, "mismatch"),
            "Semantic|Bmv2|-|mismatch"
        );
    }

    #[test]
    fn only_open_compiler_validation_targets_name_a_pass() {
        let pass = BugReport::validated_pass;
        assert_eq!(
            pass("Semantic|P4c|SimplifyDefUse|semantic difference"),
            Some("SimplifyDefUse")
        );
        assert_eq!(
            pass("InvalidTransformation|P4c|Predication|structure mismatch"),
            Some("Predication")
        );
        assert_eq!(pass("Crash|P4c|SimplifyDefUse|boom"), None);
        assert_eq!(pass("Semantic|Bmv2|-|mismatch"), None);
        assert_eq!(pass("always"), None);
    }

    #[test]
    fn crash_oracle_is_silent_on_the_reference_compiler() {
        let bug = SeededBug::FrontEnd(FrontEndBugClass::TypeInferenceShiftCrash);
        let program = bug.trigger_program();
        let reports = Gauntlet::default()
            .check_open_compiler(&bug.build_compiler(), &program)
            .reports;
        assert_eq!(reports[0].kind, BugKind::Crash, "{reports:#?}");
        let target = reports[0].dedup_key();
        assert!(OpenCompilerOracle::new(bug.build_compiler()).reproduces(&program, &target));
        assert!(!OpenCompilerOracle::new(Compiler::reference()).reproduces(&program, &target));
    }

    #[test]
    fn semantic_oracle_reports_a_seeded_defuse_bug() {
        let bug = SeededBug::FrontEnd(FrontEndBugClass::DefUseDropsParameterWrites);
        let program = builder::trivial_program();
        let reports = Gauntlet::default()
            .check_open_compiler(&bug.build_compiler(), &program)
            .reports;
        let target = reports[0].dedup_key();
        assert!(
            target.starts_with("Semantic|P4c|SimplifyDefUse|"),
            "unexpected key: {target}"
        );
        let mut oracle = OpenCompilerOracle::new(bug.build_compiler());
        assert!(oracle.reproduces(&program, &target));
        // Shrink-step reuse: a second query on the same program is served
        // from the session cache.
        let before = oracle.session.stats();
        assert!(oracle.reproduces(&program, &target));
        assert!(oracle.session.stats().semantics_hits > before.semantics_hits);
    }

    fn corrupted_compiler() -> Compiler {
        SeededBug::Driver(DriverBugClass::SnapshotDropsFinalWrite).build_compiler()
    }

    fn trigger() -> Program {
        builder::v1model_program(
            vec![],
            Block::new(vec![
                Statement::assign(Expr::dotted(&["meta", "flag"]), Expr::uint(1, 8)),
                Statement::assign(Expr::dotted(&["hdr", "h", "b"]), Expr::uint(2, 8)),
                Statement::assign(Expr::dotted(&["hdr", "h", "a"]), Expr::uint(7, 8)),
            ]),
        )
    }

    /// The dedup keys of the metamorphic findings `compiler` yields on the
    /// trigger.
    fn metamorphic_keys(compiler: Compiler) -> Vec<String> {
        Gauntlet::default()
            .check_mutants(
                &mut MetamorphicChecker::new(compiler),
                &trigger(),
                &MetamorphicOptions::default(),
                p4_mutate::CAMPAIGN_MUTATION_SEED,
            )
            .reports
            .iter()
            .map(BugReport::dedup_key)
            .collect()
    }

    #[test]
    fn oracle_is_silent_on_the_reference_compiler() {
        let keys = metamorphic_keys(corrupted_compiler());
        assert!(!keys.is_empty());
        let mut oracle = Gauntlet::metamorphic_oracle(
            Compiler::reference(),
            MetamorphicOptions::default(),
            p4_mutate::CAMPAIGN_MUTATION_SEED,
        );
        for key in &keys {
            assert!(!oracle.reproduces(&trigger(), key), "{key}");
        }
    }

    #[test]
    fn oracle_convicts_the_pre_snapshot_corruption_with_a_minimised_chain() {
        let keys = metamorphic_keys(corrupted_compiler());
        let divergence = keys
            .iter()
            .find(|key| key.starts_with("Metamorphic|P4c|-|mutation chain `"))
            .unwrap_or_else(|| panic!("expected a metamorphic divergence, got {keys:?}"));
        let mut oracle = Gauntlet::metamorphic_oracle(
            corrupted_compiler(),
            MetamorphicOptions::default(),
            p4_mutate::CAMPAIGN_MUTATION_SEED,
        );
        // Determinism: the oracle is a pure function of the program.
        assert!(oracle.reproduces(&trigger(), divergence));
        assert!(oracle.reproduces(&trigger(), divergence));
        assert_eq!(keys, metamorphic_keys(corrupted_compiler()));
    }
}
