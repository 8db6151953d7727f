//! The simulated "Tofino" back end: a closed-source, proprietary compiler
//! stand-in (paper §6).
//!
//! The real Tofino compiler consumes P4C's front/mid end output and lowers
//! it through undocumented proprietary passes; Gauntlet therefore cannot use
//! translation validation and falls back to test-case generation against the
//! Tofino software simulator (PTF).  This module reproduces that *access
//! model*: compilation runs the shared front/mid end plus back-end-specific
//! restriction checks (and, when seeded, back-end bugs), and the resulting
//! [`TofinoBinary`] exposes only a packet-level test interface — callers
//! never see the transformed program.

use crate::bugs::{BackEndBugClass, ExecutionQuirks};
use crate::concrete::{execute_block, TableRuntime, UndefinedPolicy};
use crate::harness::{compare_outputs, TestOutcome};
use crate::target::{compile_front_mid_end, Artifact, LoadedArtifact, Target, TargetError};
use p4_ir::{Architecture, Expr, Program, Statement, Visitor};
use p4_symbolic::TestCase;

/// The closed-source compiler.
#[derive(Debug, Default)]
pub struct TofinoBackend {
    bug: Option<BackEndBugClass>,
}

impl TofinoBackend {
    pub fn new() -> TofinoBackend {
        TofinoBackend::default()
    }

    /// A back end seeded with one of the Tofino bug classes.
    pub fn with_bug(bug: BackEndBugClass) -> TofinoBackend {
        TofinoBackend { bug: Some(bug) }
    }

    /// Compiles a program for the Tofino pipeline.  The intermediate
    /// representation is *not* exposed; only a loadable binary comes back.
    pub fn compile_binary(&self, program: &Program) -> Result<TofinoBinary, TargetError> {
        // Shared front/mid end (the real back end links against P4C).
        let lowered = compile_front_mid_end(program)?;

        // Back-end restriction checks.
        let restrictions = Architecture::by_name(&lowered.architecture)
            .map(|a| a.restrictions)
            .unwrap_or_default();
        let mut scan = BackendScan::default();
        scan.visit_program(&lowered);
        if scan.has_multiplication && !restrictions.allows_multiplication {
            return Err(TargetError::Rejected {
                message: "multiplication is not supported by the match-action pipeline".into(),
            });
        }
        if let Some(width) = scan
            .widest_operand
            .filter(|w| *w > restrictions.max_operand_width)
        {
            return Err(TargetError::Rejected {
                message: format!("operand width {width} exceeds the pipeline's ALU width"),
            });
        }
        // Seeded back-end crash: the slice-lowering pass blows an assertion.
        if self.bug == Some(BackEndBugClass::TofinoSliceLoweringCrash) && scan.has_slice_assignment
        {
            return Err(TargetError::Crash {
                pass: "TofinoSliceLowering".into(),
                message: "assertion failed: unexpected slice l-value after lowering".into(),
            });
        }
        Ok(TofinoBinary {
            program: lowered,
            quirks: ExecutionQuirks::for_bug(self.bug),
        })
    }
}

impl Target for TofinoBackend {
    fn name(&self) -> &'static str {
        "tofino"
    }

    fn platform_label(&self) -> &'static str {
        "Tofino"
    }

    fn harness(&self) -> &'static str {
        "PTF"
    }

    fn compile(&self, program: &Program) -> Result<Artifact, TargetError> {
        self.compile_binary(program).map(Artifact::new)
    }
}

/// A compiled Tofino image loaded into the software simulator.  The
/// transformed program is private: callers interact through packets only.
#[derive(Debug, Clone)]
pub struct TofinoBinary {
    program: Program,
    quirks: ExecutionQuirks,
}

impl LoadedArtifact for TofinoBinary {
    /// Replays one PTF test case on the simulator.
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

/// Structural facts the back end checks before accepting a program.
#[derive(Debug, Default)]
struct BackendScan {
    has_multiplication: bool,
    has_slice_assignment: bool,
    widest_operand: Option<u32>,
}

impl Visitor for BackendScan {
    fn visit_statement(&mut self, stmt: &Statement) {
        if let Statement::Assign {
            lhs: Expr::Slice { .. },
            ..
        } = stmt
        {
            self.has_slice_assignment = true;
        }
        p4_ir::visit::walk_statement(self, stmt);
    }

    fn visit_expr(&mut self, expr: &Expr) {
        match expr {
            Expr::Binary { op, .. } if *op == p4_ir::BinOp::Mul => self.has_multiplication = true,
            Expr::Int {
                width: Some(width), ..
            } => {
                self.widest_operand = Some(self.widest_operand.unwrap_or(0).max(*width));
            }
            Expr::Cast { ty, .. } => {
                if let Some(width) = ty.width() {
                    self.widest_operand = Some(self.widest_operand.unwrap_or(0).max(width));
                }
            }
            _ => {}
        }
        p4_ir::visit::walk_expr(self, expr);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::target::testgen_options;
    use p4_ir::builder;
    use p4_symbolic::generate_tests;

    fn tna_test_program() -> Program {
        use p4_ir::{BinOp, Block, Statement};
        builder::tna_program(
            vec![],
            Block::new(vec![
                Statement::assign(
                    Expr::dotted(&["hdr", "h", "a"]),
                    Expr::binary(
                        BinOp::SatAdd,
                        Expr::dotted(&["hdr", "h", "b"]),
                        Expr::uint(255, 8),
                    ),
                ),
                Statement::Exit,
                Statement::assign(Expr::dotted(&["hdr", "h", "c"]), Expr::uint(9, 8)),
            ]),
        )
    }

    fn tna_tests(backend: &TofinoBackend, program: &Program) -> Vec<TestCase> {
        generate_tests(program, &testgen_options(&backend.capabilities(), 16)).unwrap()
    }

    #[test]
    fn correct_backend_passes_generated_tests() {
        let program = tna_test_program();
        let backend = TofinoBackend::new();
        let tests = tna_tests(&backend, &program);
        let binary = backend.compile(&program).expect("compiles");
        let report = backend.run(&binary, &tests);
        assert_eq!(
            report.passed, report.total,
            "mismatches: {:#?}",
            report.mismatches
        );
    }

    #[test]
    fn saturation_bug_is_detected_by_ptf_tests() {
        let program = tna_test_program();
        let backend = TofinoBackend::with_bug(BackEndBugClass::TofinoSaturationWraps);
        let tests = tna_tests(&backend, &program);
        let binary = backend.compile(&program).expect("compiles");
        let report = backend.run(&binary, &tests);
        assert!(report.found_semantic_bug());
    }

    #[test]
    fn exit_bug_is_detected_by_ptf_tests() {
        let program = tna_test_program();
        let backend = TofinoBackend::with_bug(BackEndBugClass::TofinoExitIgnored);
        let tests = tna_tests(&backend, &program);
        let binary = backend.compile(&program).expect("compiles");
        assert!(backend.run(&binary, &tests).found_semantic_bug());
    }

    #[test]
    fn slice_lowering_bug_crashes_the_backend() {
        use p4_ir::{Block, Statement};
        let program = builder::tna_program(
            vec![],
            Block::new(vec![Statement::Assign {
                lhs: Expr::slice(Expr::dotted(&["hdr", "h", "a"]), 3, 0),
                rhs: Expr::uint(1, 4),
            }]),
        );
        assert!(TofinoBackend::new().compile(&program).is_ok());
        match TofinoBackend::with_bug(BackEndBugClass::TofinoSliceLoweringCrash).compile(&program) {
            Err(error) => assert!(error.is_crash()),
            Ok(_) => panic!("seeded crash must fire"),
        }
    }

    #[test]
    fn restriction_violations_are_proper_rejections() {
        use p4_ir::{BinOp, Block, Statement};
        // Multiplication is not supported on the TNA model.
        let program = builder::tna_program(
            vec![],
            Block::new(vec![Statement::assign(
                Expr::dotted(&["hdr", "h", "a"]),
                Expr::binary(
                    BinOp::Mul,
                    Expr::dotted(&["hdr", "h", "b"]),
                    Expr::dotted(&["hdr", "h", "c"]),
                ),
            )]),
        );
        match TofinoBackend::new().compile(&program) {
            Err(TargetError::Rejected { message }) => assert!(message.contains("multiplication")),
            other => panic!("expected a rejection, got {other:?}"),
        }
    }
}
