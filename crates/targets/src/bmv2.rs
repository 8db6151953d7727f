//! The BMv2 ("simple switch") reference software target and its STF-style
//! test harness (paper §6.2).
//!
//! BMv2 consumes the shared front/mid end's output and executes it directly;
//! undefined values are zero-initialised, which is the behaviour the paper
//! calls out when asking Z3 for non-zero test inputs.

use crate::bugs::{BackEndBugClass, ExecutionQuirks};
use crate::concrete::{execute_block, TableRuntime, UndefinedPolicy};
use crate::harness::{compare_outputs, TestOutcome};
use crate::target::{compile_front_mid_end, Artifact, LoadedArtifact, Target, TargetError};
use p4_ir::Program;
use p4_symbolic::TestCase;

/// The BMv2 back end: the shared (reference) front/mid end plus the
/// `simple_switch` execution engine, optionally seeded with a back-end
/// defect.
#[derive(Debug, Default)]
pub struct Bmv2Target {
    bug: Option<BackEndBugClass>,
}

impl Bmv2Target {
    /// A correct BMv2 back end.
    pub fn new() -> Bmv2Target {
        Bmv2Target::default()
    }

    /// A BMv2 back end seeded with a back-end defect.
    pub fn with_bug(bug: BackEndBugClass) -> Bmv2Target {
        Bmv2Target { bug: Some(bug) }
    }
}

impl Target for Bmv2Target {
    fn name(&self) -> &'static str {
        "bmv2"
    }

    fn platform_label(&self) -> &'static str {
        "Bmv2"
    }

    fn harness(&self) -> &'static str {
        "STF"
    }

    fn compile(&self, program: &Program) -> Result<Artifact, TargetError> {
        Ok(Artifact::new(Bmv2Image {
            program: compile_front_mid_end(program)?,
            quirks: ExecutionQuirks::for_bug(self.bug),
        }))
    }
}

/// A compiled program loaded into a BMv2 instance.
#[derive(Debug, Clone)]
pub struct Bmv2Image {
    program: Program,
    quirks: ExecutionQuirks,
}

impl Bmv2Image {
    /// Loads an already-compiled program directly (bypassing the front/mid
    /// end), e.g. for harness-level tests.
    pub fn load(program: Program, bug: Option<BackEndBugClass>) -> Bmv2Image {
        Bmv2Image {
            program,
            quirks: ExecutionQuirks::for_bug(bug),
        }
    }
}

impl LoadedArtifact for Bmv2Image {
    /// Replays one STF test case: install the table entries, inject the
    /// packet, compare the observed output against the expectation.
    fn run_test(&self, test: &TestCase) -> TestOutcome {
        let tables = TableRuntime::new(test.table_config.clone());
        match execute_block(
            &self.program,
            "ingress",
            &test.inputs,
            &tables,
            self.quirks,
            UndefinedPolicy::Zero,
        ) {
            Ok(observed) => compare_outputs(test, &observed),
            Err(error) => TestOutcome::Skipped(error.to_string()),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::target::testgen_options;
    use p4_ir::builder;
    use p4_symbolic::generate_tests;

    fn tests_for(target: &Bmv2Target, program: &Program) -> Vec<TestCase> {
        generate_tests(program, &testgen_options(&target.capabilities(), 16)).unwrap()
    }

    #[test]
    fn generated_tests_pass_on_the_faithful_target() {
        let (locals, apply) = builder::figure3_table_control();
        let program = builder::v1model_program(locals, apply);
        let target = Bmv2Target::new();
        let tests = tests_for(&target, &program);
        assert!(!tests.is_empty());
        let artifact = target.compile(&program).expect("compiles");
        let report = target.run(&artifact, &tests);
        assert_eq!(
            report.passed, report.total,
            "mismatches: {:#?}",
            report.mismatches
        );
    }

    #[test]
    fn seeded_exit_bug_is_caught_by_stf_tests() {
        use p4_ir::{Block, Expr, Statement};
        let program = builder::v1model_program(
            vec![],
            Block::new(vec![
                Statement::assign(Expr::dotted(&["hdr", "h", "a"]), Expr::uint(1, 8)),
                Statement::Exit,
                Statement::assign(Expr::dotted(&["hdr", "h", "a"]), Expr::uint(2, 8)),
            ]),
        );
        let good = Bmv2Target::new();
        let tests = tests_for(&good, &program);
        let artifact = good.compile(&program).expect("compiles");
        assert!(!good.run(&artifact, &tests).found_semantic_bug());
        let buggy = Bmv2Target::with_bug(BackEndBugClass::Bmv2ExitIgnored);
        let artifact = buggy.compile(&program).expect("compiles");
        assert!(buggy.run(&artifact, &tests).found_semantic_bug());
    }

    #[test]
    fn seeded_slice_bug_is_caught_by_stf_tests() {
        use p4_ir::{Block, Expr, Statement};
        let program = builder::v1model_program(
            vec![],
            Block::new(vec![Statement::Assign {
                lhs: Expr::slice(Expr::dotted(&["hdr", "h", "a"]), 7, 4),
                rhs: Expr::uint(0x5, 4),
            }]),
        );
        let buggy = Bmv2Target::with_bug(BackEndBugClass::Bmv2SliceWritesWholeField);
        let tests = tests_for(&buggy, &program);
        let artifact = buggy.compile(&program).expect("compiles");
        // Writing the upper nibble: the correct target produces 0x5?, the
        // quirked target produces 0x05 — any input reveals the difference.
        let report = buggy.run(&artifact, &tests);
        assert!(report.total > 0);
        assert!(
            report.found_semantic_bug(),
            "expected the slice quirk to be visible: {:#?}",
            tests
        );
    }

    /// The image can also be loaded directly with an already-compiled
    /// program (harness-level access, bypassing the front/mid end).
    #[test]
    fn preloaded_image_replays_tests() {
        let (locals, apply) = builder::figure3_table_control();
        let program = builder::v1model_program(locals, apply);
        let target = Bmv2Target::new();
        let tests = tests_for(&target, &program);
        let compiled = p4c::Compiler::reference()
            .compile(&program)
            .expect("compiles")
            .program;
        let image = Bmv2Image::load(compiled, None);
        for test in &tests {
            assert!(image.run_test(test).is_pass(), "test {}", test.path);
        }
    }
}
