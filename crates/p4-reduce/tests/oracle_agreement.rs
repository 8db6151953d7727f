//! Agreement of the reduction oracle's fast path with its full signature
//! set.
//!
//! `SemanticOracle::reproduces` checks only the snapshot pairs of the pass a
//! target names, and decides them verdict-only.  Reduction is sound only if
//! that answer is exactly `signatures(candidate).contains(target)` for every
//! candidate the reducer proposes, so a wrapping oracle asserts it on every
//! call of real `Reducer` runs.  The signatures themselves are checked
//! against ones rebuilt from `ValidationSession::check_pair`'s full
//! counterexamples, the form the campaign's dedup keys are built from.

use p4_gen::{GeneratorConfig, RandomProgramGenerator};
use p4_ir::{Direction, Expr, Program, Statement};
use p4_reduce::{bug_signature, Oracle, Reducer, ReducerConfig, SemanticOracle, PLATFORM_P4C};
use p4_symbolic::{Equivalence, EquivalenceError, ValidationSession};
use p4c::{CompileError, Compiler, Diagnostic, FrontEndBugClass, Pass, PassArea};

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

/// Signatures built the long way: every snapshot pair, with the full
/// counterexample rendered and cut to its first line by `bug_signature`.
fn counterexample_signatures(
    compiler: &Compiler,
    session: &mut ValidationSession,
    program: &Program,
) -> Vec<String> {
    let result = match compiler.compile(program) {
        Err(CompileError::Crash { pass, message, .. }) => {
            return vec![bug_signature("Crash", PLATFORM_P4C, Some(&pass), &message)]
        }
        Err(CompileError::Rejected { pass, diagnostics }) => {
            return vec![bug_signature(
                "Rejection",
                PLATFORM_P4C,
                Some(&pass),
                &diagnostics.join("; "),
            )]
        }
        Ok(result) => result,
    };
    let mut signatures = Vec::new();
    for (before, after) in result.pass_pairs() {
        let pass = Some(after.pass_name.as_str());
        if let Err(error) = p4_parser::parse_program(&after.printed) {
            signatures.push(bug_signature(
                "InvalidTransformation",
                PLATFORM_P4C,
                pass,
                &format!("emitted program no longer parses: {error}"),
            ));
            continue;
        }
        match session.check_pair(&before.program, &after.program) {
            Ok(Equivalence::Equal) | Err(EquivalenceError::Interpreter(_)) => {}
            Ok(Equivalence::NotEqual(counterexample)) => signatures.push(bug_signature(
                "Semantic",
                PLATFORM_P4C,
                pass,
                &format!("{counterexample}"),
            )),
            Err(EquivalenceError::StructureMismatch { block, detail }) => {
                signatures.push(bug_signature(
                    "InvalidTransformation",
                    PLATFORM_P4C,
                    pass,
                    &format!("structure mismatch in `{block}`: {detail}"),
                ))
            }
        }
    }
    signatures
}

/// Wraps a `SemanticOracle` and checks every reduction call against the
/// full signature set.
struct AgreementOracle {
    oracle: SemanticOracle,
    reference: Compiler,
    reference_session: ValidationSession,
}

impl AgreementOracle {
    fn new(class: Option<FrontEndBugClass>) -> AgreementOracle {
        AgreementOracle {
            oracle: SemanticOracle::new(buggy_compiler(class)),
            reference: buggy_compiler(class),
            reference_session: ValidationSession::new(),
        }
    }
}

impl Oracle for AgreementOracle {
    fn name(&self) -> &str {
        "agreement"
    }

    fn signatures(&mut self, program: &Program) -> Vec<String> {
        self.oracle.signatures(program)
    }

    fn reproduces(&mut self, program: &Program, target: &str) -> bool {
        let reproduces = self.oracle.reproduces(program, target);
        let signatures = self.oracle.signatures(program);
        assert_eq!(
            reproduces,
            signatures.iter().any(|s| s == target),
            "target `{target}`, signatures {signatures:?}\n{}",
            p4_ir::print_program(program)
        );
        assert_eq!(
            signatures,
            counterexample_signatures(&self.reference, &mut self.reference_session, program)
        );
        reproduces
    }
}

/// Reduces `program` towards every signature it triggers, checking each
/// oracle call; returns how many shrink steps were accepted and rejected.
fn reduce_with_agreement(class: Option<FrontEndBugClass>, program: &Program) -> (usize, usize) {
    let mut oracle = AgreementOracle::new(class);
    let (mut accepted, mut rejected) = (0, 0);
    for target in oracle.signatures(program) {
        let stats = Reducer::new(ReducerConfig::default())
            .reduce(&mut oracle, program, &target)
            .expect("the program reproduces its own signature")
            .stats;
        accepted += stats.accepted_steps;
        // The first call checks the unreduced program.
        rejected += stats.oracle_calls - 1 - stats.accepted_steps;
    }
    (accepted, rejected)
}

/// The first `count` tiny generated programs on which `class` yields a
/// signature starting with `kind`.
fn triggers(class: Option<FrontEndBugClass>, kind: &str, count: usize) -> Vec<Program> {
    let mut finder = SemanticOracle::new(buggy_compiler(class));
    (0u64..)
        .map(|seed| RandomProgramGenerator::new(GeneratorConfig::tiny(), seed).generate())
        .filter(|program| {
            finder
                .signatures(program)
                .iter()
                .any(|signature| signature.starts_with(kind))
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
