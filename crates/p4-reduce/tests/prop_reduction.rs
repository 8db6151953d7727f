//! Property tests for the reduction invariants: for *any* seed whose random
//! program triggers the seeded bug, the reducer output must still
//! typecheck, round-trip through the printer and parser, reproduce the
//! original bug signature through its oracle, and be deterministic.

use p4_gen::{GeneratorConfig, RandomProgramGenerator};
use p4_ir::{print_program, Program};
use p4_parser::parse_program;
use p4_reduce::{statement_count, Oracle, Reducer, ReducerConfig};
use p4_symbolic::{PairVerdict, ValidationSession};
use p4c::{Compiler, FrontEndBugClass};
use proptest::prelude::*;

fn buggy_compiler() -> Compiler {
    let mut compiler = Compiler::reference();
    compiler.replace_pass(FrontEndBugClass::DefUseDropsParameterWrites.faulty_pass());
    compiler
}

/// The findings of a test-local translation-validation oracle: each names
/// the pass whose snapshot pair differs and the block it differs in.
fn differences(session: &mut ValidationSession, program: &Program) -> Vec<String> {
    let Ok(result) = buggy_compiler().compile(program) else {
        return Vec::new();
    };
    result
        .pass_pairs()
        .filter_map(|(before, after)| {
            match session.check_pair_verdict(&before.program, &after.program) {
                Ok(PairVerdict::Differs { block }) => {
                    Some(format!("{} differs in `{block}`", after.pass_name))
                }
                _ => None,
            }
        })
        .collect()
}

/// An oracle over [`differences`], with one session across shrink steps.
fn oracle() -> impl FnMut(&Program, &str) -> bool {
    let mut session = ValidationSession::new();
    move |program: &Program, target: &str| {
        differences(&mut session, program)
            .iter()
            .any(|finding| finding == target)
    }
}

/// Reduces the program generated by `seed` when it triggers the seeded
/// bug; returns `None` for seeds whose program compiles cleanly.
fn reduce_seed(seed: u64) -> Option<(Program, Program, String)> {
    let program = RandomProgramGenerator::new(GeneratorConfig::tiny(), seed).generate();
    let target = differences(&mut ValidationSession::new(), &program)
        .into_iter()
        .next()?;
    let reducer = Reducer::new(ReducerConfig::default());
    let reduction = reducer
        .reduce(&mut oracle(), &program, &target)
        .expect("signature was just observed");
    Some((program, reduction.program, target))
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 24, ..ProptestConfig::default() })]

    /// Invariant 1+2: every reducer output typechecks and round-trips
    /// through printer → parser unchanged.
    #[test]
    fn reduced_programs_typecheck_and_round_trip(seed in 0u64..4096) {
        if let Some((_, reduced, _)) = reduce_seed(seed) {
            let errors = p4_check::check_program(&reduced);
            prop_assert!(errors.is_empty(), "seed {seed}: {errors:#?}");
            let printed = print_program(&reduced);
            let reparsed = parse_program(&printed)
                .unwrap_or_else(|e| panic!("seed {seed}: minimized does not parse: {e}\n{printed}"));
            prop_assert_eq!(print_program(&reparsed), printed, "seed {}", seed);
        }
    }

    /// Invariant 3: the reduced program reproduces the *original* dedup
    /// signature — reduction never migrates onto a different bug — and
    /// never grows.
    #[test]
    fn reduced_programs_reproduce_the_original_signature(seed in 0u64..4096) {
        if let Some((original, reduced, target)) = reduce_seed(seed) {
            prop_assert!(
                oracle().reproduces(&reduced, &target),
                "seed {}: lost `{}`:\n{}", seed, target, print_program(&reduced)
            );
            prop_assert!(statement_count(&reduced) <= statement_count(&original), "seed {}", seed);
        }
    }

    /// Invariant 4: reduction is a pure function of its inputs — two
    /// independent runs produce byte-identical minimized programs.
    #[test]
    fn reduction_is_deterministic(seed in 0u64..4096) {
        if let Some((_, first, _)) = reduce_seed(seed) {
            let (_, second, _) = reduce_seed(seed).expect("same seed reproduces");
            prop_assert_eq!(print_program(&first), print_program(&second), "seed {}", seed);
        }
    }
}
