//! The reference-interpreter target: "the model is the oracle" (paper §6).
//!
//! BMv2 and Tofino are simulated with an independent *concrete* execution
//! engine; this third back end instead wraps `p4_symbolic`'s interpreter.
//! Compilation runs the shared front/mid end and then symbolically
//! interprets the lowered program; replaying a test evaluates the lowered
//! program's output formulas under the test's concrete inputs.  On a
//! correct compiler this target agrees with the test-generation model by
//! construction (translation validation guarantees the lowered program is
//! equivalent to the input program), which makes it the ideal consensus
//! anchor for N-way differential testing — and, when seeded with a defect,
//! it exercises the scenario where *every* execution engine agrees and the
//! model itself is the odd one out.
//!
//! Seeded defects cannot be injected into the interpreter's evaluation loop
//! (it is shared with translation validation), so they are modelled as
//! back-end *lowering* bugs: a small rewrite of the already-compiled
//! program that mimics the corresponding execution quirk (`exit` dropped,
//! saturating arithmetic lowered to wrapping, `isValid()` folded to true).
//! `Bmv2SliceWritesWholeField` has no program-level equivalent without type
//! information and is not supported on this target.

use crate::bugs::{BackEndBugClass, ExecutionQuirks};
use crate::harness::{compare_outputs, TestOutcome};
use crate::target::{compile_front_mid_end, Artifact, LoadedArtifact, Target, TargetError};
use p4_ir::{BinOp, Block, Declaration, Expr, Program, Statement};
use p4_symbolic::{interpret_program, TestCase};
use smt::{eval_with_default, Assignment, TermManager, TermRef};
use std::collections::BTreeMap;
use std::sync::Arc;

/// The reference-interpreter back end.
#[derive(Debug, Default)]
pub struct RefInterpTarget {
    bug: Option<BackEndBugClass>,
}

impl RefInterpTarget {
    /// A correct reference-interpreter back end.
    pub fn new() -> RefInterpTarget {
        RefInterpTarget::default()
    }

    /// A reference interpreter seeded with a (lowering-style) defect.
    ///
    /// # Panics
    ///
    /// On [`BackEndBugClass::Bmv2SliceWritesWholeField`], which has no
    /// program-level rewrite (see the module docs): seeding it here would
    /// silently run a *correct* target while reporting it as defective.
    pub fn with_bug(bug: BackEndBugClass) -> RefInterpTarget {
        assert!(
            bug != BackEndBugClass::Bmv2SliceWritesWholeField,
            "{bug:?} cannot be modelled as a lowering rewrite on ref-interp"
        );
        RefInterpTarget { bug: Some(bug) }
    }
}

impl Target for RefInterpTarget {
    fn name(&self) -> &'static str {
        "ref-interp"
    }

    fn platform_label(&self) -> &'static str {
        "RefInterp"
    }

    fn harness(&self) -> &'static str {
        "REF"
    }

    fn compile(&self, program: &Program) -> Result<Artifact, TargetError> {
        let compiled = compile_front_mid_end(program)?;
        let lowered = match self.bug {
            Some(bug) => apply_lowering_bug(&compiled, bug),
            None => compiled,
        };
        let tm = Arc::new(TermManager::new());
        let semantics = interpret_program(&tm, &lowered).map_err(|error| {
            // An interpreter limitation, not a compiler bug: the program is
            // outside this target's supported subset (paper §8).
            TargetError::Rejected {
                message: format!("reference interpreter: {error}"),
            }
        })?;
        let block = semantics
            .block("ingress")
            .ok_or_else(|| TargetError::Rejected {
                message: "reference interpreter: program has no `ingress` block".into(),
            })?;
        Ok(Artifact::new(RefInterpImage {
            outputs: block.outputs.clone(),
            _tm: tm,
        }))
    }
}

/// The "loaded" form of the reference interpreter: the lowered program's
/// per-output formulas, evaluated per test case.
pub struct RefInterpImage {
    outputs: Vec<(String, TermRef)>,
    /// Keeps the term manager (and thus the hash-consed term graph) alive.
    _tm: Arc<TermManager>,
}

impl LoadedArtifact for RefInterpImage {
    fn run_test(&self, test: &TestCase) -> TestOutcome {
        let mut assignment = Assignment::new();
        for (name, value) in &test.inputs {
            assignment.insert(name.clone(), value.clone());
        }
        for (name, value) in &test.table_config {
            assignment.insert(name.clone(), value.clone());
        }
        // Variables absent from the test (undefined reads, extern results)
        // default to zero — the same policy the concrete targets apply.
        let mut observed = BTreeMap::new();
        for (name, term) in &self.outputs {
            observed.insert(name.clone(), eval_with_default(term, &assignment));
        }
        compare_outputs(test, &observed)
    }
}

/// Rewrites an already-lowered program to mimic a back-end execution quirk
/// (the seeded-bug injection hook for this target).
fn apply_lowering_bug(program: &Program, bug: BackEndBugClass) -> Program {
    let quirks = ExecutionQuirks::for_bug(Some(bug));
    let mut rewritten = program.clone();
    for declaration in &mut rewritten.declarations {
        rewrite_declaration(declaration, &quirks);
    }
    rewritten
}

fn rewrite_declaration(declaration: &mut Declaration, quirks: &ExecutionQuirks) {
    match declaration {
        Declaration::Action(action) => rewrite_block(&mut action.body, quirks),
        Declaration::Function(function) => rewrite_block(&mut function.body, quirks),
        Declaration::Control(control) => {
            for local in &mut control.locals {
                rewrite_declaration(local, quirks);
            }
            rewrite_block(&mut control.apply, quirks);
        }
        Declaration::Parser(parser) => {
            for local in &mut parser.locals {
                rewrite_declaration(local, quirks);
            }
            for state in &mut parser.states {
                let statements = std::mem::take(&mut state.statements);
                state.statements = statements
                    .into_iter()
                    .filter_map(|stmt| rewrite_statement(stmt, quirks))
                    .collect();
            }
        }
        Declaration::Table(table) => {
            for key in &mut table.keys {
                rewrite_expr(&mut key.expr, quirks);
            }
        }
        Declaration::Variable { init, .. } => {
            if let Some(init) = init {
                rewrite_expr(init, quirks);
            }
        }
        Declaration::Constant(_)
        | Declaration::Header(_)
        | Declaration::Struct(_)
        | Declaration::Typedef(_) => {}
    }
}

fn rewrite_block(block: &mut Block, quirks: &ExecutionQuirks) {
    let statements = std::mem::take(&mut block.statements);
    block.statements = statements
        .into_iter()
        .filter_map(|stmt| rewrite_statement(stmt, quirks))
        .collect();
}

/// Rewrites one statement; `None` drops it (the `exit`-ignored quirk).
fn rewrite_statement(statement: Statement, quirks: &ExecutionQuirks) -> Option<Statement> {
    match statement {
        Statement::Exit if quirks.ignore_exit => None,
        Statement::Exit => Some(Statement::Exit),
        Statement::Assign { mut lhs, mut rhs } => {
            rewrite_expr(&mut lhs, quirks);
            rewrite_expr(&mut rhs, quirks);
            Some(Statement::Assign { lhs, rhs })
        }
        Statement::Call(mut call) => {
            for arg in &mut call.args {
                rewrite_expr(arg, quirks);
            }
            Some(Statement::Call(call))
        }
        Statement::If {
            mut cond,
            then_branch,
            else_branch,
        } => {
            rewrite_expr(&mut cond, quirks);
            let then_branch = rewrite_statement(*then_branch, quirks).unwrap_or(Statement::Empty);
            let else_branch = else_branch
                .map(|branch| rewrite_statement(*branch, quirks).unwrap_or(Statement::Empty));
            Some(Statement::If {
                cond,
                then_branch: Box::new(then_branch),
                else_branch: else_branch.map(Box::new),
            })
        }
        Statement::Block(mut block) => {
            rewrite_block(&mut block, quirks);
            Some(Statement::Block(block))
        }
        Statement::Declare { name, ty, mut init } => {
            if let Some(init) = init.as_mut() {
                rewrite_expr(init, quirks);
            }
            Some(Statement::Declare { name, ty, init })
        }
        Statement::Constant {
            name,
            ty,
            mut value,
        } => {
            rewrite_expr(&mut value, quirks);
            Some(Statement::Constant { name, ty, value })
        }
        Statement::Return(mut expr) => {
            if let Some(expr) = expr.as_mut() {
                rewrite_expr(expr, quirks);
            }
            Some(Statement::Return(expr))
        }
        Statement::Empty => Some(Statement::Empty),
    }
}

fn rewrite_expr(expr: &mut Expr, quirks: &ExecutionQuirks) {
    match expr {
        Expr::Binary { op, left, right } => {
            if quirks.saturation_wraps {
                match op {
                    BinOp::SatAdd => *op = BinOp::Add,
                    BinOp::SatSub => *op = BinOp::Sub,
                    _ => {}
                }
            }
            rewrite_expr(left, quirks);
            rewrite_expr(right, quirks);
        }
        Expr::Call(call) => {
            if quirks.validity_always_true && call.target.last().is_some_and(|m| m == "isValid") {
                *expr = Expr::Bool(true);
                return;
            }
            for arg in &mut call.args {
                rewrite_expr(arg, quirks);
            }
        }
        Expr::Member { base, .. } => rewrite_expr(base, quirks),
        Expr::Slice { base, .. } => rewrite_expr(base, quirks),
        Expr::Unary { operand, .. } => rewrite_expr(operand, quirks),
        Expr::Ternary {
            cond,
            then_expr,
            else_expr,
        } => {
            rewrite_expr(cond, quirks);
            rewrite_expr(then_expr, quirks);
            rewrite_expr(else_expr, quirks);
        }
        Expr::Cast { expr: inner, .. } => rewrite_expr(inner, quirks),
        Expr::Bool(_) | Expr::Int { .. } | Expr::Path(_) => {}
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::target::{drive_target, TargetFinding};
    use p4_ir::builder;

    fn exit_program() -> Program {
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
    fn faithful_interpreter_agrees_with_the_model() {
        let (locals, apply) = builder::figure3_table_control();
        let program = builder::v1model_program(locals, apply);
        let findings = drive_target(&RefInterpTarget::new(), &program, 8);
        assert!(findings.is_empty(), "false alarm: {findings:#?}");
        assert!(drive_target(&RefInterpTarget::new(), &exit_program(), 8).is_empty());
    }

    #[test]
    fn seeded_exit_bug_diverges_from_the_model() {
        let target = RefInterpTarget::with_bug(BackEndBugClass::Bmv2ExitIgnored);
        let findings = drive_target(&target, &exit_program(), 8);
        assert!(
            matches!(findings.first(), Some(TargetFinding::Semantic { .. })),
            "expected a semantic divergence, got {findings:#?}"
        );
    }

    #[test]
    fn seeded_saturation_bug_diverges_on_tna() {
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
        assert!(drive_target(&RefInterpTarget::new(), &program, 8).is_empty());
        let buggy = RefInterpTarget::with_bug(BackEndBugClass::TofinoSaturationWraps);
        assert!(!drive_target(&buggy, &program, 8).is_empty());
    }

    /// The slice quirk has no lowering-rewrite equivalent; seeding it must
    /// fail fast instead of silently running a correct target.
    #[test]
    #[should_panic(expected = "cannot be modelled as a lowering rewrite")]
    fn unsupported_slice_seed_is_rejected() {
        let _ = RefInterpTarget::with_bug(BackEndBugClass::Bmv2SliceWritesWholeField);
    }

    #[test]
    fn seeded_validity_bug_diverges_from_the_model() {
        let program = builder::tna_program(
            vec![],
            Block::new(vec![Statement::if_else(
                Expr::call(vec!["hdr", "h", "isValid"], vec![]),
                Statement::assign(Expr::dotted(&["meta", "flag"]), Expr::uint(1, 8)),
                Statement::assign(Expr::dotted(&["meta", "flag"]), Expr::uint(2, 8)),
            )]),
        );
        assert!(drive_target(&RefInterpTarget::new(), &program, 8).is_empty());
        let buggy = RefInterpTarget::with_bug(BackEndBugClass::TofinoValidityAlwaysTrue);
        assert!(!drive_target(&buggy, &program, 8).is_empty());
    }
}
