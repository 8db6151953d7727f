//! Property-based tests for the random program generator: for *any* seed the
//! generated program must be well-typed, printable, re-parseable, and within
//! the configured size bounds — the generator contract from paper §4.2.

use p4_check::check_program;
use p4_gen::{
    ExpressionWeights, GeneratorConfig, RandomProgramGenerator, StatementWeights, WeightAdapter,
};
use p4_ir::print_program;
use p4_parser::parse_program;
use proptest::prelude::*;

/// A representative slice of the `p4c::coverage` rule universe (p4-gen does
/// not depend on p4c; the adapter only consumes `"pass/rule"` keys).
const RULE_UNIVERSE: &[&str] = &[
    "ConstantFolding/fold_arith",
    "ConstantFolding/fold_bitwise",
    "ConstantFolding/fold_shift",
    "ConstantFolding/fold_compare",
    "ConstantFolding/fold_cast",
    "ConstantFolding/fold_slice",
    "ConstantFolding/fold_ternary",
    "ConstantFolding/prune_if",
    "StrengthReduction/add_zero_identity",
    "StrengthReduction/mul_pow2_to_shift",
    "StrengthReduction/shift_by_zero",
    "StrengthReduction/mask_all_ones",
    "SideEffectOrdering/hoist_call",
    "InlineFunctions/inline_call",
    "InlineFunctions/guarded_return",
    "RemoveActionParameters/inline_call",
    "RemoveActionParameters/exit_copy_out",
    "SimplifyDefUse/dead_store",
    "SimplifyDefUse/dead_declare",
    "LocalCopyPropagation/propagate",
    "Predication/predicate_then",
    "FlattenBlocks/splice_block",
    "FlattenBlocks/drop_empty_else",
];

/// Deterministic pseudo-random weight row derived from a test seed (the
/// shim has no struct strategies; SplitMix64 gives a reproducible spread
/// including zero rows).
fn mix(state: &mut u64) -> u32 {
    *state = state.wrapping_add(0x9E3779B97F4A7C15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58476D1CE4E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D049BB133111EB);
    ((z ^ (z >> 31)) % 50) as u32
}

fn arbitrary_config(seed: u64) -> GeneratorConfig {
    let mut state = seed;
    let config = GeneratorConfig {
        statements: StatementWeights {
            assignment: mix(&mut state).max(1),
            slice_assignment: mix(&mut state),
            if_statement: mix(&mut state),
            declaration: mix(&mut state),
            table_apply: mix(&mut state),
            action_call: mix(&mut state),
            function_call: mix(&mut state),
            set_validity: mix(&mut state),
            exit: mix(&mut state),
        },
        expressions: ExpressionWeights {
            literal: mix(&mut state).max(1),
            variable: mix(&mut state),
            arithmetic: mix(&mut state),
            bitwise: mix(&mut state),
            shift: mix(&mut state),
            comparison_ternary: mix(&mut state),
            slice: mix(&mut state),
            cast: mix(&mut state),
            saturating: mix(&mut state),
        },
        ..GeneratorConfig::default()
    };
    config.validate().expect("arbitrary config is satisfiable");
    config
}

fn arbitrary_unfired(seed: u64) -> Vec<String> {
    let mut state = seed ^ 0xDEADBEEF;
    RULE_UNIVERSE
        .iter()
        .filter(|_| mix(&mut state).is_multiple_of(2))
        .map(|rule| rule.to_string())
        .collect()
}

fn stmt_total(weights: &StatementWeights) -> u32 {
    weights.total()
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 48, ..ProptestConfig::default() })]

    #[test]
    fn any_seed_produces_a_well_typed_program(seed in any::<u64>()) {
        let mut generator = RandomProgramGenerator::new(GeneratorConfig::default(), seed);
        let program = generator.generate();
        let errors = check_program(&program);
        prop_assert!(errors.is_empty(), "seed {seed}: {errors:#?}\n{}", print_program(&program));
    }

    #[test]
    fn any_seed_round_trips_through_print_and_parse(seed in any::<u64>()) {
        let mut generator = RandomProgramGenerator::new(GeneratorConfig::default(), seed);
        let program = generator.generate();
        let printed = print_program(&program);
        let reparsed = parse_program(&printed)
            .unwrap_or_else(|e| panic!("seed {seed}: {e}\n{printed}"));
        prop_assert_eq!(print_program(&reparsed), printed);
    }

    #[test]
    fn tiny_configuration_bounds_program_size(seed in any::<u64>()) {
        let mut generator = RandomProgramGenerator::new(GeneratorConfig::tiny(), seed);
        let program = generator.generate();
        prop_assert!(program.size() < 600, "seed {seed}: size {}", program.size());
    }

    /// For any base weights and any unfired-rule subset, the adapter yields
    /// strictly positive weights whose group totals are preserved — so the
    /// adapted configuration always passes `GeneratorConfig::validate` and
    /// the weighted chooser can never face an all-zero row.
    #[test]
    fn weight_adapter_yields_positive_normalised_weights(seed in any::<u64>()) {
        let base = arbitrary_config(seed);
        let unfired = arbitrary_unfired(seed);
        let census = p4_ir::ConstructCensus::default();
        let adapted = WeightAdapter::default().adapt_with_pairs(&base, &unfired, &[], &census, seed as usize % 5);
        if unfired.is_empty() {
            return; // fixpoint case, covered by the property below
        }
        for weight in [
            adapted.statements.assignment,
            adapted.statements.slice_assignment,
            adapted.statements.if_statement,
            adapted.statements.declaration,
            adapted.statements.table_apply,
            adapted.statements.action_call,
            adapted.statements.function_call,
            adapted.statements.set_validity,
            adapted.statements.exit,
            adapted.expressions.literal,
            adapted.expressions.variable,
            adapted.expressions.arithmetic,
            adapted.expressions.bitwise,
            adapted.expressions.shift,
            adapted.expressions.comparison_ternary,
            adapted.expressions.slice,
            adapted.expressions.cast,
            adapted.expressions.saturating,
        ] {
            prop_assert!(weight >= 1, "seed {seed}: zero weight after adaptation");
        }
        prop_assert_eq!(
            stmt_total(&adapted.statements),
            stmt_total(&base.statements).max(9),
            "seed {seed}: statement total not preserved"
        );
        prop_assert_eq!(
            adapted.expressions.total(),
            base.expressions.total().max(9),
            "seed {seed}: expression total not preserved"
        );
        prop_assert!(adapted.validate().is_ok(), "seed {seed}");
    }

    /// Full coverage is a fixpoint: with no unfired rules the adapter is a
    /// byte-for-byte no-op regardless of the census.
    #[test]
    fn weight_adapter_is_identity_on_full_coverage(seed in any::<u64>()) {
        let base = arbitrary_config(seed);
        let mut program_gen = RandomProgramGenerator::new(base.clone(), seed);
        let census = p4_ir::ConstructCensus::of(&program_gen.generate());
        let adapted = WeightAdapter::default().adapt_with_pairs(&base, &[], &[], &census, seed as usize % 5);
        prop_assert_eq!(
            format!("{:?}", adapted.statements),
            format!("{:?}", base.statements)
        );
        prop_assert_eq!(
            format!("{:?}", adapted.expressions),
            format!("{:?}", base.expressions)
        );
    }

    /// Adaptation is deterministic: the same inputs produce the same output
    /// (the campaign's byte-identical-across-jobs contract leans on this).
    #[test]
    fn weight_adapter_is_deterministic(seed in any::<u64>()) {
        let base = arbitrary_config(seed);
        let unfired = arbitrary_unfired(seed);
        let census = p4_ir::ConstructCensus::default();
        let adapter = WeightAdapter::default();
        let a = adapter.adapt_with_pairs(&base, &unfired, &[], &census, seed as usize % 7);
        let b = adapter.adapt_with_pairs(&base, &unfired, &[], &census, seed as usize % 7);
        prop_assert_eq!(format!("{:?}", a.statements), format!("{:?}", b.statements));
        prop_assert_eq!(format!("{:?}", a.expressions), format!("{:?}", b.expressions));
    }

    #[test]
    fn tna_programs_respect_backend_restrictions(seed in any::<u64>()) {
        let mut generator = RandomProgramGenerator::new(GeneratorConfig::tofino(), seed);
        let program = generator.generate();
        prop_assert_eq!(program.architecture.as_str(), "tna");
        prop_assert!(check_program(&program).is_empty(), "seed {seed}");
        // The TNA model forbids multiplication; the generator must not emit it.
        let printed = print_program(&program);
        prop_assert!(!printed.contains(" * "), "seed {seed} emitted a multiplication:\n{printed}");
    }
}
