//! Agreement of the open-compiler reduction oracle with the detection
//! pipeline.
//!
//! `Gauntlet::open_compiler_oracle` checks only the snapshot pairs of the
//! pass a target names, and decides them verdict-only.  Reduction is sound
//! only if that answer is exactly "the pipeline files a finding with the
//! target key" for every candidate the reducer proposes, so a wrapping
//! oracle asserts it on every call of real `Reducer` runs.  The reference
//! keys come from `Gauntlet::check_open_compiler`, whose reports carry full
//! counterexamples.

use gauntlet_core::{BugReport, Gauntlet};
use p4_gen::{GeneratorConfig, RandomProgramGenerator};
use p4_ir::{Direction, Expr, Program, Statement};
use p4_reduce::{Reducer, ReducerConfig};
use p4_symbolic::ValidationSession;
use p4c::{Compiler, Diagnostic, FrontEndBugClass, Pass, PassArea};

/// A seeded invalid transformation: `SimplifyDefUse` as usual, except that
/// once the ingress apply block assigns `hdr.h.b` the pass also turns
/// ingress's `standard_metadata` into an `in` parameter, so the block's
/// outputs no longer match across the pass.
struct DefUseDropsCopyOut(Box<dyn Pass>);

impl Pass for DefUseDropsCopyOut {
    fn name(&self) -> &str {
        self.0.name()
    }

    fn area(&self) -> PassArea {
        self.0.area()
    }

    fn run(&self, program: &mut Program) -> Result<(), Diagnostic> {
        self.0.run(program)?;
        let trigger = Expr::dotted(&["hdr", "h", "b"]);
        if let Some(ingress) = program.control_mut("ingress_impl") {
            let assigns_trigger = ingress.apply.statements.iter().any(
                |statement| matches!(statement, Statement::Assign { lhs, .. } if *lhs == trigger),
            );
            if assigns_trigger {
                for param in &mut ingress.params {
                    if param.name == "standard_metadata" {
                        param.direction = Direction::In;
                    }
                }
            }
        }
        Ok(())
    }
}

/// The compilers under test: a seeded bug from the catalogue, or `None`
/// for the seeded invalid transformation above.
fn buggy_compiler(class: Option<FrontEndBugClass>) -> Compiler {
    let mut compiler = Compiler::reference();
    let faulty = match class {
        Some(class) => class.faulty_pass(),
        None => {
            let defuse = p4c::passes::default_pipeline()
                .into_iter()
                .find(|pass| pass.name() == "SimplifyDefUse")
                .expect("the reference pipeline runs SimplifyDefUse");
            Box::new(DefUseDropsCopyOut(defuse))
        }
    };
    assert!(compiler.replace_pass(faulty));
    compiler
}

/// The dedup keys of every finding the open-compiler pipeline files.
fn reference_keys(
    compiler: &Compiler,
    session: &mut ValidationSession,
    program: &Program,
) -> Vec<String> {
    Gauntlet::default()
        .check_open_compiler_in(session, compiler, program)
        .reports
        .iter()
        .map(BugReport::dedup_key)
        .collect()
}

/// Reduces `program` towards every finding it triggers, checking each
/// oracle call; returns how many shrink steps were accepted and rejected.
fn reduce_with_agreement(class: Option<FrontEndBugClass>, program: &Program) -> (usize, usize) {
    let reference = buggy_compiler(class);
    let mut session = ValidationSession::new();
    let (mut accepted, mut rejected) = (0, 0);
    let reports = Gauntlet::default()
        .check_open_compiler(&reference, program)
        .reports;
    for report in &reports {
        let mut oracle = Gauntlet::open_compiler_oracle(report, buggy_compiler(class));
        let mut agreement = |candidate: &Program, target: &str| {
            let reproduces = oracle.reproduces(candidate, target);
            let keys = reference_keys(&reference, &mut session, candidate);
            assert_eq!(
                reproduces,
                keys.iter().any(|key| key == target),
                "target `{target}`, keys {keys:?}\n{}",
                p4_ir::print_program(candidate)
            );
            reproduces
        };
        let stats = Reducer::new(ReducerConfig::default())
            .reduce(&mut agreement, program, &report.dedup_key())
            .expect("the program reproduces its own finding")
            .stats;
        accepted += stats.accepted_steps;
        // The first call checks the unreduced program.
        rejected += stats.oracle_calls - 1 - stats.accepted_steps;
    }
    (accepted, rejected)
}

/// The first `count` tiny generated programs on which `class` yields a
/// finding whose key starts with `kind`.
fn triggers(class: Option<FrontEndBugClass>, kind: &str, count: usize) -> Vec<Program> {
    let compiler = buggy_compiler(class);
    let mut session = ValidationSession::new();
    (0u64..)
        .map(|seed| RandomProgramGenerator::new(GeneratorConfig::tiny(), seed).generate())
        .filter(|program| {
            reference_keys(&compiler, &mut session, program)
                .iter()
                .any(|key| key.starts_with(kind))
        })
        .take(count)
        .collect()
}

fn assert_agreement(class: Option<FrontEndBugClass>, programs: &[Program]) {
    let (mut accepted, mut rejected) = (0, 0);
    for program in programs {
        let (a, r) = reduce_with_agreement(class, program);
        accepted += a;
        rejected += r;
    }
    // Both answers were exercised on real shrink steps.
    assert!(
        accepted > 0 && rejected > 0,
        "{accepted} accepted, {rejected} rejected shrink steps"
    );
}

#[test]
fn targeted_reproduction_agrees_with_signatures_on_semantic_findings() {
    let class = Some(FrontEndBugClass::DefUseDropsParameterWrites);
    assert_agreement(class, &triggers(class, "Semantic|", 8));
}

#[test]
fn targeted_reproduction_agrees_with_signatures_on_invalid_transformations() {
    assert_agreement(None, &triggers(None, "InvalidTransformation|", 3));
}
