//! Bug injection: the unified catalogue of seeded defects and, for every
//! class, a hand-written trigger program modelled on the paper's Figure 5.
//!
//! The evaluation cannot re-discover 2020-era p4c bugs, so it measures
//! Gauntlet's ability to *detect* seeded bugs of the classes the paper
//! documents.  Each [`SeededBug`] knows which platform it lives in, which
//! compiler area it belongs to, whether it manifests as a crash or a
//! miscompilation, how to build the seeded compiler/back end, and a trigger
//! program that is guaranteed to exercise the defective code path (random
//! programs may or may not hit it, exactly as in the original campaign).

use crate::bugs::{BugReport, CompilerArea, Platform};
use crate::oracle::{files, OpenCompilerOracle};
use crate::pipeline::{Gauntlet, GauntletOptions};
use p4_ir::builder;
use p4_ir::{
    ActionDecl, ActionRef, BinOp, Block, Declaration, Direction, Expr, FunctionDecl, KeyElement,
    MatchKind, Param, Program, Statement, TableDecl, Type,
};
use p4_mutate::{MetamorphicChecker, MetamorphicOptions, CAMPAIGN_MUTATION_SEED};
use p4c::{Compiler, DriverBugClass, FrontEndBugClass, PassArea};
use serde::{Deserialize, Serialize};
use targets::{BackEndBugClass, TargetRegistry};

/// A seeded defect in either the shared front/mid end or one of the back
/// ends.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum SeededBug {
    FrontEnd(FrontEndBugClass),
    /// A driver-level defect applied before the first snapshot — invisible
    /// to per-pass translation validation, detectable only by the
    /// metamorphic mutation oracle (`p4-mutate`).
    Driver(DriverBugClass),
    BackEnd(BackEndBugClass),
}

impl SeededBug {
    /// The full catalogue.
    pub fn catalogue() -> Vec<SeededBug> {
        let mut bugs: Vec<SeededBug> = FrontEndBugClass::all()
            .into_iter()
            .map(SeededBug::FrontEnd)
            .collect();
        bugs.extend(DriverBugClass::all().into_iter().map(SeededBug::Driver));
        bugs.extend(BackEndBugClass::all().into_iter().map(SeededBug::BackEnd));
        bugs
    }

    /// The platform the bug is observed on (Table 2 column).
    pub fn platform(self) -> Platform {
        match self {
            SeededBug::FrontEnd(_) | SeededBug::Driver(_) => Platform::P4c,
            SeededBug::BackEnd(bug) => match bug.backend() {
                targets::Backend::Bmv2 => Platform::Bmv2,
                targets::Backend::Tofino => Platform::Tofino,
            },
        }
    }

    /// The compiler area the defect lives in (Table 3 row).
    pub fn area(self) -> CompilerArea {
        match self {
            SeededBug::FrontEnd(bug) => match bug.area() {
                PassArea::FrontEnd => CompilerArea::FrontEnd,
                PassArea::MidEnd => CompilerArea::MidEnd,
                PassArea::BackEnd => CompilerArea::BackEnd,
            },
            // Pre-snapshot corruption happens while the front end builds
            // the IR the pipeline consumes.
            SeededBug::Driver(_) => CompilerArea::FrontEnd,
            SeededBug::BackEnd(_) => CompilerArea::BackEnd,
        }
    }

    /// Whether the defect manifests as a crash/rejection.
    pub fn is_crash_class(self) -> bool {
        match self {
            SeededBug::FrontEnd(bug) => bug.is_crash_class(),
            SeededBug::Driver(_) => false,
            SeededBug::BackEnd(bug) => bug.is_crash_class(),
        }
    }

    /// Short stable identifier used in reports.
    pub fn name(self) -> String {
        match self {
            SeededBug::FrontEnd(bug) => format!("{bug:?}"),
            SeededBug::Driver(bug) => format!("{bug:?}"),
            SeededBug::BackEnd(bug) => format!("{bug:?}"),
        }
    }

    /// Builds the compiler used when this bug is seeded.  Back-end bugs use
    /// the reference (correct) front/mid end.
    pub fn build_compiler(self) -> Compiler {
        let mut compiler = Compiler::reference();
        match self {
            SeededBug::FrontEnd(bug) => {
                let replaced = compiler.replace_pass(bug.faulty_pass());
                debug_assert!(replaced, "bug class must map onto an existing pass");
            }
            SeededBug::Driver(bug) => {
                compiler.seed_input_corruption(bug);
            }
            SeededBug::BackEnd(_) => {}
        }
        compiler
    }

    /// The back-end defect to seed into the target, if any.
    pub fn backend_bug(self) -> Option<BackEndBugClass> {
        match self {
            SeededBug::BackEnd(bug) => Some(bug),
            SeededBug::FrontEnd(_) | SeededBug::Driver(_) => None,
        }
    }

    /// The registry name of the back end this bug is observed on (`None`
    /// for front/mid-end bugs, which are checked on the open compiler).
    pub fn target_name(self) -> Option<&'static str> {
        match self {
            SeededBug::BackEnd(bug) => Some(bug.backend().target_name()),
            SeededBug::FrontEnd(_) | SeededBug::Driver(_) => None,
        }
    }

    /// Runs the detection technique appropriate to this bug's platform:
    /// crash detection + translation validation on the open compiler for
    /// front/mid-end bugs, generic target-trait testgen (through the
    /// builtin [`TargetRegistry`]) for back-end bugs.
    pub fn detect(self, gauntlet: &Gauntlet, program: &p4_ir::Program) -> Vec<BugReport> {
        if matches!(self, SeededBug::Driver(_)) {
            // The technique that can see pre-snapshot corruption: the
            // metamorphic mutation oracle, with the fixed campaign seed so
            // detection and the reduction oracle derive the same mutants.
            let mut checker = MetamorphicChecker::new(self.build_compiler());
            return gauntlet
                .check_mutants(
                    &mut checker,
                    program,
                    &MetamorphicOptions::default(),
                    CAMPAIGN_MUTATION_SEED,
                )
                .reports;
        }
        match self.target_name() {
            None => {
                gauntlet
                    .check_open_compiler(&self.build_compiler(), program)
                    .reports
            }
            Some(name) => {
                let target = TargetRegistry::builtin()
                    .build_seeded(name, self.backend_bug())
                    .expect("builtin targets are registered");
                gauntlet.check_target(&*target, program).reports
            }
        }
    }

    /// A program known to exercise the defective code path (Figure-5 style).
    pub fn trigger_program(self) -> Program {
        match self {
            SeededBug::FrontEnd(bug) => front_end_trigger(bug),
            SeededBug::Driver(bug) => driver_trigger(bug),
            SeededBug::BackEnd(bug) => back_end_trigger(bug),
        }
    }

    /// The architecture random programs should target when hunting this bug.
    pub fn architecture(self) -> &'static str {
        match self.platform() {
            Platform::Tofino => "tna",
            _ => "v1model",
        }
    }

    /// Builds the reduction oracle matching this class: the technique that
    /// detects the bug is the technique that must keep reproducing it while
    /// `p4-reduce` shrinks the trigger program.
    pub fn oracle(self, max_tests: usize) -> Box<dyn p4_reduce::Oracle> {
        match self {
            SeededBug::FrontEnd(_) => Box::new(OpenCompilerOracle::new(self.build_compiler())),
            SeededBug::Driver(_) => Gauntlet::metamorphic_oracle(
                self.build_compiler(),
                MetamorphicOptions::default(),
                CAMPAIGN_MUTATION_SEED,
            ),
            SeededBug::BackEnd(bug) => {
                let target = TargetRegistry::builtin()
                    .build_seeded(bug.backend().target_name(), Some(bug))
                    .expect("builtin targets are registered");
                let gauntlet = Gauntlet::new(GauntletOptions { max_tests });
                Box::new(move |program: &Program, key: &str| {
                    files(&gauntlet.check_target(&*target, program).reports, key)
                })
            }
        }
    }
}

fn hdr(parts: &[&str]) -> Expr {
    Expr::dotted(parts)
}

fn front_end_trigger(bug: FrontEndBugClass) -> Program {
    match bug {
        // Figure 5a / the snowball family: a final write through an inout
        // parameter that a careless def-use analysis considers dead.
        FrontEndBugClass::DefUseDropsParameterWrites => builder::v1model_program(
            vec![],
            Block::new(vec![
                Statement::assign(hdr(&["hdr", "h", "a"]), Expr::uint(1, 8)),
                Statement::assign(hdr(&["hdr", "h", "b"]), Expr::uint(2, 8)),
            ]),
        ),
        // Figure 5b: `(1 << hdr.h.c) + 8w2`.
        FrontEndBugClass::TypeInferenceShiftCrash => builder::v1model_program(
            vec![],
            Block::new(vec![Statement::assign(
                hdr(&["hdr", "h", "a"]),
                Expr::cast(
                    Type::bits(8),
                    Expr::binary(
                        BinOp::Add,
                        Expr::binary(BinOp::Shl, Expr::int(1), hdr(&["hdr", "h", "c"])),
                        Expr::uint(2, 8),
                    ),
                ),
            )]),
        ),
        // Figure 5c: a slice of a cast that the faulty pass refuses.
        FrontEndBugClass::StrengthReductionRejectsSlices => builder::v1model_program(
            vec![],
            Block::new(vec![Statement::assign(
                hdr(&["hdr", "h", "a"]),
                Expr::slice(Expr::cast(Type::bits(16), hdr(&["meta", "tmp"])), 7, 0),
            )]),
        ),
        FrontEndBugClass::StrengthReductionOrIdentity => builder::v1model_program(
            vec![],
            Block::new(vec![Statement::assign(
                hdr(&["hdr", "h", "a"]),
                Expr::binary(BinOp::BitOr, hdr(&["hdr", "h", "b"]), Expr::uint(0xff, 8)),
            )]),
        ),
        FrontEndBugClass::ConstantFoldingNoWraparound => builder::v1model_program(
            vec![],
            Block::new(vec![Statement::assign(
                hdr(&["hdr", "h", "a"]),
                Expr::binary(BinOp::Add, Expr::uint(250, 8), Expr::uint(10, 8)),
            )]),
        ),
        // Figure 5d: a slice of a variable passed inout while a disjoint
        // slice is assigned inside the action.
        FrontEndBugClass::SliceAssignmentDeleted => {
            let action = ActionDecl {
                name: "a".into(),
                params: vec![Param::new(Direction::InOut, "val", Type::bits(7))],
                body: Block::new(vec![Statement::Assign {
                    lhs: Expr::slice(hdr(&["hdr", "h", "a"]), 0, 0),
                    rhs: Expr::uint(0, 1),
                }]),
            };
            builder::v1model_program(
                vec![Declaration::Action(action)],
                Block::new(vec![Statement::Call(p4_ir::CallExpr::new(
                    vec!["a".into()],
                    vec![Expr::slice(hdr(&["hdr", "h", "a"]), 7, 1)],
                ))]),
            )
        }
        // Figure 5e-flavoured: two writes to the same field followed by a
        // copy; the stale value must not be propagated.
        FrontEndBugClass::CopyPropagationStaleValue => builder::v1model_program(
            vec![],
            Block::new(vec![
                Statement::assign(hdr(&["hdr", "h", "a"]), Expr::uint(1, 8)),
                Statement::assign(hdr(&["hdr", "h", "a"]), Expr::uint(2, 8)),
                Statement::assign(hdr(&["hdr", "h", "b"]), hdr(&["hdr", "h", "a"])),
            ]),
        ),
        // Figure 5f: `action a(inout bit<16> val) { val = 3; exit; }`.
        FrontEndBugClass::ExitSkipsCopyOut => {
            let action = ActionDecl {
                name: "a".into(),
                params: vec![Param::new(Direction::InOut, "val", Type::bits(16))],
                body: Block::new(vec![
                    Statement::assign(Expr::path("val"), Expr::uint(3, 16)),
                    Statement::Exit,
                ]),
            };
            builder::v1model_program(
                vec![Declaration::Action(action)],
                Block::new(vec![Statement::call(
                    vec!["a"],
                    vec![hdr(&["hdr", "eth", "eth_type"])],
                )]),
            )
        }
        // Aliasing arguments make the copy-out order observable.
        FrontEndBugClass::ArgumentOrderReversed => {
            let action = ActionDecl {
                name: "two".into(),
                params: vec![
                    Param::new(Direction::InOut, "x", Type::bits(8)),
                    Param::new(Direction::InOut, "y", Type::bits(8)),
                ],
                body: Block::new(vec![
                    Statement::assign(
                        Expr::path("x"),
                        Expr::binary(BinOp::Add, Expr::path("x"), Expr::uint(1, 8)),
                    ),
                    Statement::assign(
                        Expr::path("y"),
                        Expr::binary(BinOp::Add, Expr::path("y"), Expr::uint(2, 8)),
                    ),
                ]),
            };
            builder::v1model_program(
                vec![Declaration::Action(action)],
                Block::new(vec![Statement::call(
                    vec!["two"],
                    vec![hdr(&["hdr", "h", "a"]), hdr(&["hdr", "h", "a"])],
                )]),
            )
        }
        FrontEndBugClass::InlineCrashOnConditional => {
            let function = FunctionDecl {
                name: "pick".into(),
                return_type: Type::bits(8),
                params: vec![Param::new(Direction::In, "x", Type::bits(8))],
                body: Block::new(vec![
                    Statement::if_then(
                        Expr::binary(BinOp::Eq, Expr::path("x"), Expr::uint(0, 8)),
                        Statement::Block(Block::new(vec![Statement::Return(Some(Expr::uint(
                            7, 8,
                        )))])),
                    ),
                    Statement::Return(Some(Expr::path("x"))),
                ]),
            };
            let mut program = builder::v1model_program(
                vec![],
                Block::new(vec![Statement::assign(
                    hdr(&["hdr", "h", "a"]),
                    Expr::call(vec!["pick"], vec![hdr(&["hdr", "h", "b"])]),
                )]),
            );
            program
                .declarations
                .insert(0, Declaration::Function(function));
            program
        }
        FrontEndBugClass::PredicationSwapsBranches
        | FrontEndBugClass::PredicationUnconditionalElse => {
            // A table-bound action with a conditional assignment.
            let action = ActionDecl {
                name: "cond_set".into(),
                params: vec![],
                body: Block::new(vec![Statement::if_else(
                    Expr::binary(BinOp::Lt, hdr(&["hdr", "h", "a"]), Expr::uint(10, 8)),
                    Statement::Block(Block::new(vec![Statement::assign(
                        hdr(&["hdr", "h", "b"]),
                        Expr::uint(1, 8),
                    )])),
                    Statement::Block(Block::new(vec![Statement::assign(
                        hdr(&["hdr", "h", "b"]),
                        Expr::uint(2, 8),
                    )])),
                )]),
            };
            let table = TableDecl {
                name: "t".into(),
                keys: vec![KeyElement {
                    expr: hdr(&["hdr", "h", "a"]),
                    match_kind: MatchKind::Exact,
                }],
                actions: vec![ActionRef::new("cond_set"), ActionRef::new("NoAction")],
                default_action: ActionRef::new("NoAction"),
            };
            builder::v1model_program(
                vec![
                    Declaration::Action(builder::no_action()),
                    Declaration::Action(action),
                    Declaration::Table(table),
                ],
                Block::new(vec![Statement::call(vec!["t", "apply"], vec![])]),
            )
        }
    }
}

/// A trigger for the driver corruption: the ingress block *ends* with a
/// meaningful write, which the corruption silently drops from every
/// snapshot.  Detection needs a mutant whose tail differs (an opaque guard
/// appended at the end, the final write block-wrapped or reordered away) so
/// the corruption damages seed and mutant differently.
fn driver_trigger(bug: DriverBugClass) -> Program {
    match bug {
        DriverBugClass::SnapshotDropsFinalWrite => builder::v1model_program(
            vec![],
            Block::new(vec![
                Statement::assign(hdr(&["meta", "flag"]), Expr::uint(1, 8)),
                Statement::assign(
                    hdr(&["hdr", "h", "b"]),
                    Expr::binary(BinOp::Add, hdr(&["hdr", "h", "a"]), Expr::uint(1, 8)),
                ),
                Statement::assign(hdr(&["hdr", "h", "a"]), Expr::uint(7, 8)),
            ]),
        ),
    }
}

fn back_end_trigger(bug: BackEndBugClass) -> Program {
    match bug {
        BackEndBugClass::Bmv2ExitIgnored => builder::v1model_program(
            vec![],
            Block::new(vec![
                Statement::assign(hdr(&["hdr", "h", "a"]), Expr::uint(1, 8)),
                Statement::Exit,
                Statement::assign(hdr(&["hdr", "h", "a"]), Expr::uint(2, 8)),
            ]),
        ),
        BackEndBugClass::Bmv2SliceWritesWholeField => builder::v1model_program(
            vec![],
            Block::new(vec![Statement::Assign {
                lhs: Expr::slice(hdr(&["hdr", "h", "a"]), 7, 4),
                rhs: Expr::uint(0x5, 4),
            }]),
        ),
        BackEndBugClass::TofinoSliceLoweringCrash => builder::tna_program(
            vec![],
            Block::new(vec![Statement::Assign {
                lhs: Expr::slice(hdr(&["hdr", "h", "a"]), 3, 0),
                rhs: Expr::uint(1, 4),
            }]),
        ),
        BackEndBugClass::TofinoSaturationWraps => builder::tna_program(
            vec![],
            Block::new(vec![Statement::assign(
                hdr(&["hdr", "h", "a"]),
                Expr::binary(BinOp::SatAdd, hdr(&["hdr", "h", "b"]), Expr::uint(255, 8)),
            )]),
        ),
        BackEndBugClass::TofinoExitIgnored => builder::tna_program(
            vec![],
            Block::new(vec![
                Statement::assign(hdr(&["hdr", "h", "a"]), Expr::uint(1, 8)),
                Statement::Exit,
                Statement::assign(hdr(&["hdr", "h", "a"]), Expr::uint(2, 8)),
            ]),
        ),
        BackEndBugClass::TofinoValidityAlwaysTrue => builder::tna_program(
            vec![],
            Block::new(vec![Statement::if_else(
                Expr::call(vec!["hdr", "h", "isValid"], vec![]),
                Statement::assign(hdr(&["meta", "flag"]), Expr::uint(1, 8)),
                Statement::assign(hdr(&["meta", "flag"]), Expr::uint(2, 8)),
            )]),
        ),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use p4_check::check_program;

    #[test]
    fn catalogue_spans_all_platforms_and_areas() {
        let catalogue = SeededBug::catalogue();
        assert!(catalogue.len() >= 18);
        assert!(catalogue.iter().any(|b| b.platform() == Platform::P4c));
        assert!(catalogue.iter().any(|b| b.platform() == Platform::Bmv2));
        assert!(catalogue.iter().any(|b| b.platform() == Platform::Tofino));
        assert!(catalogue.iter().any(|b| b.area() == CompilerArea::FrontEnd));
        assert!(catalogue.iter().any(|b| b.area() == CompilerArea::MidEnd));
        assert!(catalogue.iter().any(|b| b.area() == CompilerArea::BackEnd));
        assert!(catalogue.iter().any(|b| b.is_crash_class()));
        assert!(catalogue.iter().any(|b| !b.is_crash_class()));
    }

    #[test]
    fn all_trigger_programs_are_well_typed() {
        for bug in SeededBug::catalogue() {
            let program = bug.trigger_program();
            let errors = check_program(&program);
            assert!(
                errors.is_empty(),
                "{}: trigger program is ill-typed: {errors:#?}",
                bug.name()
            );
        }
    }

    #[test]
    fn trigger_programs_compile_cleanly_on_the_reference_compiler() {
        for bug in SeededBug::catalogue() {
            let program = bug.trigger_program();
            let compiler = Compiler::reference();
            assert!(
                compiler.compile(&program).is_ok(),
                "{}: reference compiler rejects the trigger program",
                bug.name()
            );
        }
    }

    /// The contract that makes reduction sound: for every seeded bug class,
    /// the class's oracle reproduces, on the trigger program, the
    /// `dedup_key` of every report its detection files.
    #[test]
    fn oracle_signatures_match_pipeline_dedup_keys() {
        let gauntlet = Gauntlet::default();
        for bug in SeededBug::catalogue() {
            let program = bug.trigger_program();
            let reports = bug.detect(&gauntlet, &program);
            assert!(!reports.is_empty(), "{}: trigger not detected", bug.name());
            let mut oracle = bug.oracle(gauntlet.options.max_tests);
            for report in &reports {
                assert!(
                    oracle.reproduces(&program, &report.dedup_key()),
                    "{}: the oracle does not reproduce `{}`",
                    bug.name(),
                    report.dedup_key()
                );
            }
        }
    }

    #[test]
    fn seeded_compilers_replace_the_right_pass() {
        for bug in SeededBug::catalogue() {
            let compiler = bug.build_compiler();
            assert_eq!(
                compiler.pass_names().len(),
                p4c::passes::default_pass_names().len()
            );
        }
    }
}
