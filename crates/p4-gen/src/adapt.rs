//! Coverage-guided weight adaptation: closes the generate→compile→validate
//! loop.
//!
//! The paper steers generation by adjusting per-node-kind probabilities
//! (§4.1) but leaves those probabilities static for the whole campaign.
//! [`WeightAdapter`] makes them a function of accumulated feedback: given
//! the set of compiler rewrite rules that have *never* fired (keys in
//! `"pass/rule"` form, produced by `p4c::coverage`) and the construct
//! census of the programs generated so far (`p4_ir::ConstructCensus`), it
//! re-normalises [`StatementWeights`]/[`ExpressionWeights`] toward the
//! statement and expression kinds most likely to trigger the missing rules
//! and the construct pairs that have not been produced yet.
//!
//! Adaptation is a pure function of its inputs — no randomness, no clock —
//! so a campaign that merges per-worker coverage in seed order obtains
//! byte-identical weights (and therefore byte-identical programs) at any
//! `--jobs` setting.  On full coverage the adapter is a fixpoint: when
//! every rule has fired it returns the base configuration unchanged.

use crate::config::{ExpressionWeights, GeneratorConfig, StatementWeights};
use p4_ir::ConstructCensus;

/// Index of each [`StatementWeights`] field, in declaration order.
const STMT_ASSIGNMENT: usize = 0;
const STMT_SLICE_ASSIGNMENT: usize = 1;
const STMT_IF: usize = 2;
const STMT_DECLARATION: usize = 3;
const STMT_TABLE_APPLY: usize = 4;
const STMT_ACTION_CALL: usize = 5;
const STMT_FUNCTION_CALL: usize = 6;
const STMT_SET_VALIDITY: usize = 7;
const STMT_EXIT: usize = 8;
const STMT_FIELDS: usize = StatementWeights::FIELDS;

/// Index of each [`ExpressionWeights`] field, in declaration order.
const EXPR_LITERAL: usize = 0;
const EXPR_VARIABLE: usize = 1;
const EXPR_ARITHMETIC: usize = 2;
const EXPR_BITWISE: usize = 3;
const EXPR_SHIFT: usize = 4;
const EXPR_COMPARISON_TERNARY: usize = 5;
const EXPR_SLICE: usize = 6;
const EXPR_CAST: usize = 7;
const EXPR_SATURATING: usize = 8;
const EXPR_FIELDS: usize = ExpressionWeights::FIELDS;

/// Which generator knobs make a given unfired rewrite rule more likely to
/// fire.  Constant-folding rules need constant operands, so they all pull
/// the `literal` expression weight up alongside their operator kind; the
/// inlining/def-use/predication families pull the statement mix instead.
fn rule_knobs(rule_key: &str) -> (&'static [usize], &'static [usize]) {
    let (pass, rule) = rule_key.split_once('/').unwrap_or((rule_key, ""));
    match pass {
        "ConstantFolding" => match rule {
            "fold_arith" => (&[], &[EXPR_ARITHMETIC, EXPR_LITERAL]),
            "fold_bitwise" => (&[], &[EXPR_BITWISE, EXPR_LITERAL]),
            "fold_shift" => (&[], &[EXPR_SHIFT, EXPR_LITERAL]),
            "fold_compare" | "fold_ternary" => (&[], &[EXPR_COMPARISON_TERNARY, EXPR_LITERAL]),
            "fold_cast" => (&[], &[EXPR_CAST, EXPR_LITERAL]),
            "fold_slice" => (&[], &[EXPR_SLICE, EXPR_CAST, EXPR_LITERAL]),
            "fold_bool" | "fold_unary" | "prune_if" => (&[STMT_IF], &[EXPR_LITERAL]),
            _ => (&[], &[EXPR_LITERAL]),
        },
        "StrengthReduction" => match rule {
            "add_zero_identity" | "mul_by_zero" | "mul_by_one" | "mul_pow2_to_shift" => {
                (&[], &[EXPR_ARITHMETIC, EXPR_LITERAL])
            }
            "mask_all_ones" => (&[], &[EXPR_BITWISE, EXPR_LITERAL]),
            "shift_by_zero" | "oversized_shift_to_zero" => (&[], &[EXPR_SHIFT, EXPR_LITERAL]),
            _ => (&[STMT_IF], &[]),
        },
        "SideEffectOrdering" | "InlineFunctions" => (&[STMT_FUNCTION_CALL], &[]),
        "RemoveActionParameters" => (&[STMT_ACTION_CALL, STMT_EXIT], &[]),
        "SimplifyDefUse" => (&[STMT_DECLARATION], &[]),
        "LocalCopyPropagation" => (&[STMT_DECLARATION], &[EXPR_VARIABLE]),
        "Predication" => (&[STMT_ACTION_CALL], &[]),
        "FlattenBlocks" => (&[STMT_IF], &[]),
        _ => (&[], &[]),
    }
}

/// Census `apply/<kind>` statement keys and the knob each one maps to.
const CENSUS_STMT_KNOBS: &[(&str, usize)] = &[
    ("apply/assign", STMT_ASSIGNMENT),
    ("apply/slice_assign", STMT_SLICE_ASSIGNMENT),
    ("apply/if", STMT_IF),
    ("apply/if_else", STMT_IF),
    ("apply/declare", STMT_DECLARATION),
    ("apply/table_apply", STMT_TABLE_APPLY),
    ("apply/call", STMT_ACTION_CALL),
    ("apply/validity_call", STMT_SET_VALIDITY),
    ("apply/exit", STMT_EXIT),
];

/// Census `apply/expr/<kind>` expression keys and their knobs.
const CENSUS_EXPR_KNOBS: &[(&str, usize)] = &[
    ("apply/expr/lit", EXPR_LITERAL),
    ("apply/expr/lvalue", EXPR_VARIABLE),
    ("apply/expr/arith", EXPR_ARITHMETIC),
    ("apply/expr/sat_arith", EXPR_SATURATING),
    ("apply/expr/bitwise", EXPR_BITWISE),
    ("apply/expr/shift", EXPR_SHIFT),
    ("apply/expr/compare", EXPR_COMPARISON_TERNARY),
    ("apply/expr/ternary", EXPR_COMPARISON_TERNARY),
    ("apply/expr/slice", EXPR_SLICE),
    ("apply/expr/cast", EXPR_CAST),
    ("apply/expr/call", EXPR_FIELDS), // handled as a statement knob below
];

/// The coverage-guided weight adapter.
#[derive(Debug, Clone)]
pub struct WeightAdapter {
    /// How aggressively unfired rules pull weight toward their knobs, as a
    /// multiple of the mean base weight per boost point.
    pub boost: u32,
}

impl Default for WeightAdapter {
    fn default() -> WeightAdapter {
        WeightAdapter { boost: 3 }
    }
}

impl WeightAdapter {
    /// Re-normalises `base`'s weights toward the knobs mapped from
    /// `unfired_rules` (rule keys in `"pass/rule"` form), from
    /// `unfired_pairs` (cross-pass interaction pairs, in the
    /// `"passA/ruleA->passB/ruleB"` keys of `p4c::coverage`, that have never
    /// been observed) and from census construct pairs that have count zero.
    /// `round` rotates the focus: a campaign passes its epoch index, and
    /// each epoch concentrates its boost on a different slice of the
    /// unfired lists — chasing a handful of targets hard beats diluting the
    /// pull across all of them, and the rotation is a pure function of
    /// `round`, preserving determinism.
    ///
    /// Each round's focus budget is split between the two lists: half
    /// chases unfired rules, half chases unfired pairs (a pair pulls the
    /// knobs of *both* member rules, since the two rewrites must meet in one
    /// program).  Either list being exhausted hands its share to the other.
    ///
    /// Guarantees, checked by the property tests in this crate:
    ///
    /// * every output weight is ≥ 1 (the chooser can never face an all-zero
    ///   row);
    /// * each weight group's total equals `max(base total, field count)` —
    ///   adaptation redistributes probability mass, it never inflates it;
    /// * with both unfired lists empty the output is byte-identical to
    ///   `base` (full coverage is a fixpoint, for every `round`).
    pub fn adapt_with_pairs(
        &self,
        base: &GeneratorConfig,
        unfired_rules: &[String],
        unfired_pairs: &[String],
        census: &ConstructCensus,
        round: usize,
    ) -> GeneratorConfig {
        if unfired_rules.is_empty() && unfired_pairs.is_empty() {
            return base.clone();
        }
        // Focus slices for this round: ~FOCUS_SIZE targets, rotating through
        // each unfired list so every target gets a concentrated epoch.
        const FOCUS_SIZE: usize = 6;
        let rule_share = if unfired_pairs.is_empty() {
            FOCUS_SIZE
        } else if unfired_rules.is_empty() {
            0
        } else {
            FOCUS_SIZE / 2
        };
        let rule_focus = focus_slice(unfired_rules, rule_share, round);
        let pair_focus = focus_slice(unfired_pairs, FOCUS_SIZE - rule_share, round);
        let mut stmt_boost = [0u32; STMT_FIELDS];
        let mut expr_boost = [0u32; EXPR_FIELDS];
        let mut boost_rule = |rule: &str| {
            let (stmts, exprs) = rule_knobs(rule);
            for &knob in stmts {
                stmt_boost[knob] += 1;
            }
            for &knob in exprs {
                expr_boost[knob] += 1;
            }
        };
        for rule in &rule_focus {
            boost_rule(rule);
        }
        for pair in &pair_focus {
            if let Some((first, second)) = pair.split_once("->") {
                boost_rule(first);
                boost_rule(second);
            }
        }
        // Construct pairs never produced so far get a secondary pull (only
        // while rules remain unfired, preserving the fixpoint property).
        for &(key, knob) in CENSUS_STMT_KNOBS {
            if census.count(key) == 0 {
                stmt_boost[knob] += 1;
            }
        }
        for &(key, knob) in CENSUS_EXPR_KNOBS {
            if census.count(key) == 0 {
                if knob == EXPR_FIELDS {
                    // Function-call expressions are steered by the
                    // statement mix, not the expression mix.
                    stmt_boost[STMT_FUNCTION_CALL] += 1;
                } else {
                    expr_boost[knob] += 1;
                }
            }
        }

        let mut adapted = base.clone();
        adapted.statements = StatementWeights::from_array(boosted(
            base.statements.as_array(),
            stmt_boost,
            self.boost,
        ));
        adapted.expressions = ExpressionWeights::from_array(boosted(
            base.expressions.as_array(),
            expr_boost,
            self.boost,
        ));
        // Constant-folding and strength-reduction rules only fire on
        // special constants (0, 1, all-ones, powers of two); the more of
        // them sit in this round's focus — as rules or as pair members —
        // the stronger the literal bias.
        let const_hungry = rule_focus
            .iter()
            .map(|rule| rule.as_str())
            .chain(pair_focus.iter().flat_map(|pair| pair.split("->")))
            .filter(|rule| {
                rule.starts_with("ConstantFolding/") || rule.starts_with("StrengthReduction/")
            })
            .count() as u32;
        if const_hungry > 0 {
            // Raise, never lower: a user-configured bias above the cap
            // stays where the user put it.
            adapted.special_literal_bias = (base.special_literal_bias + 6 * const_hungry)
                .clamp(20, 50)
                .max(base.special_literal_bias);
        }
        adapted
    }

    /// Deterministically perturbs `base` for one fleet worker's diversity
    /// slice: `focus_pairs` is the slice's disjoint partition of uncovered
    /// interaction pairs (each pair pulls both member rules' knobs, exactly
    /// like [`WeightAdapter::adapt_with_pairs`]), and `slice`/`slices` add a
    /// slice-indexed nudge so even workers with identical partitions explore
    /// different statement/expression mixes.  A pure function of its
    /// arguments — no randomness, no clock — so a crashed-and-respawned
    /// worker rebuilds the identical configuration, and sum-preserving like
    /// every other adaptation (weight totals and the ≥ 1 floor hold).
    pub fn diversify(
        &self,
        base: &GeneratorConfig,
        slice: usize,
        slices: usize,
        focus_pairs: &[String],
    ) -> GeneratorConfig {
        let mut stmt_boost = [0u32; STMT_FIELDS];
        let mut expr_boost = [0u32; EXPR_FIELDS];
        for pair in focus_pairs {
            if let Some((first, second)) = pair.split_once("->") {
                for member in [first, second] {
                    let (stmts, exprs) = rule_knobs(member);
                    for &knob in stmts {
                        stmt_boost[knob] += 1;
                    }
                    for &knob in exprs {
                        expr_boost[knob] += 1;
                    }
                }
            }
        }
        if slices > 1 {
            stmt_boost[(mix(slice as u64) % STMT_FIELDS as u64) as usize] += 2;
            expr_boost[(mix(slice as u64 ^ 0x9e37) % EXPR_FIELDS as u64) as usize] += 2;
        }
        if stmt_boost.iter().all(|&b| b == 0) && expr_boost.iter().all(|&b| b == 0) {
            return base.clone();
        }
        let mut adapted = base.clone();
        adapted.statements = StatementWeights::from_array(boosted(
            base.statements.as_array(),
            stmt_boost,
            self.boost,
        ));
        adapted.expressions = ExpressionWeights::from_array(boosted(
            base.expressions.as_array(),
            expr_boost,
            self.boost,
        ));
        let const_hungry = focus_pairs
            .iter()
            .flat_map(|pair| pair.split("->"))
            .filter(|rule| {
                rule.starts_with("ConstantFolding/") || rule.starts_with("StrengthReduction/")
            })
            .count() as u32;
        if const_hungry > 0 {
            adapted.special_literal_bias = (base.special_literal_bias + 6 * const_hungry)
                .clamp(20, 50)
                .max(base.special_literal_bias);
        }
        adapted
    }
}

/// This round's slice of an unfired list: `share` entries starting at
/// `(round * share) mod len`, wrapping around the end.  Indexing modulo the
/// *current* length keeps the focus full and cycles through every entry even
/// as coverage shrinks the list between rounds — the old
/// `skip(group * share)` arithmetic left a near-empty focus whenever the
/// list shrank to just past a group boundary.
fn focus_slice(items: &[String], share: usize, round: usize) -> Vec<&String> {
    if items.is_empty() || share == 0 {
        return Vec::new();
    }
    let len = items.len();
    let start = (round * share) % len;
    (0..share.min(len))
        .map(|offset| &items[(start + offset) % len])
        .collect()
}

/// SplitMix64 finaliser: spreads consecutive slice indices across the knob
/// space deterministically.
fn mix(x: u64) -> u64 {
    let mut z = x.wrapping_add(0x9E3779B97F4A7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58476D1CE4E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D049BB133111EB);
    z ^ (z >> 31)
}

/// Applies boost points to the base weights and re-normalises so the total
/// is preserved (and every weight stays ≥ 1).
fn boosted<const N: usize>(base: [u32; N], boost: [u32; N], strength: u32) -> [u32; N] {
    let base_total: u64 = base.iter().map(|&w| u64::from(w)).sum();
    let target = base_total.max(N as u64);
    let bump = (base_total / N as u64).max(1) * u64::from(strength.max(1));
    let mut raw = [0u64; N];
    for i in 0..N {
        raw[i] = u64::from(base[i]) + u64::from(boost[i]) * bump;
    }
    rebalance(&mut raw, target);
    let mut out = [0u32; N];
    for i in 0..N {
        out[i] = u32::try_from(raw[i]).expect("rebalanced weight fits in u32");
    }
    out
}

/// Scales `values` so they sum to exactly `target` with every entry ≥ 1.
/// Deterministic: rounding residue is settled by repeatedly adjusting the
/// largest entry (ties broken by lowest index).  Requires `target ≥ len`.
fn rebalance(values: &mut [u64], target: u64) {
    assert!(
        target >= values.len() as u64,
        "target below the per-field floor"
    );
    let sum: u64 = values.iter().sum();
    for value in values.iter_mut() {
        // `sum == 0` (all-zero input) floors every entry at 1.
        *value = match (*value * target).checked_div(sum) {
            Some(scaled) => scaled.max(1),
            None => 1,
        };
    }
    loop {
        let current: u64 = values.iter().sum();
        match current.cmp(&target) {
            std::cmp::Ordering::Equal => return,
            std::cmp::Ordering::Less => {
                // Hand the whole deficit to the largest entry.
                let index = max_index(values);
                values[index] += target - current;
            }
            std::cmp::Ordering::Greater => {
                // Shave the largest entry down to its floor if needed; with
                // target ≥ len the loop always terminates before every
                // entry reaches the floor.
                let index = max_index(values);
                let room = values[index] - 1;
                assert!(room > 0, "rebalance floor invariant violated");
                values[index] -= (current - target).min(room);
            }
        }
    }
}

/// Index of the largest value (lowest index wins ties).
fn max_index(values: &[u64]) -> usize {
    let mut best = 0;
    for (index, value) in values.iter().enumerate() {
        if *value > values[best] {
            best = index;
        }
    }
    best
}

#[cfg(test)]
mod tests {
    use super::*;

    fn no_census() -> ConstructCensus {
        // An empty census reports zero for every key, which maximises the
        // census-driven pull; fine for unit tests.
        ConstructCensus::default()
    }

    #[test]
    fn full_coverage_is_a_fixpoint() {
        let base = GeneratorConfig::default();
        let adapted = WeightAdapter::default().adapt_with_pairs(&base, &[], &[], &no_census(), 0);
        assert_eq!(adapted.statements.as_array(), base.statements.as_array());
        assert_eq!(adapted.expressions.as_array(), base.expressions.as_array());
    }

    #[test]
    fn unfired_shift_rules_pull_shift_weight_up() {
        let base = GeneratorConfig::default();
        let unfired = vec![
            "ConstantFolding/fold_shift".to_string(),
            "StrengthReduction/shift_by_zero".to_string(),
        ];
        let adapted =
            WeightAdapter::default().adapt_with_pairs(&base, &unfired, &[], &no_census(), 0);
        assert!(
            adapted.expressions.shift > base.expressions.shift,
            "shift weight should rise: {} vs {}",
            adapted.expressions.shift,
            base.expressions.shift
        );
    }

    #[test]
    fn adaptation_preserves_the_total_and_the_floor() {
        let base = GeneratorConfig::default();
        let unfired: Vec<String> = p4c_rule_universe();
        let adapted =
            WeightAdapter::default().adapt_with_pairs(&base, &unfired, &[], &no_census(), 0);
        let base_stmt: u32 = base.statements.total();
        let new_stmt: u32 = adapted.statements.total();
        assert_eq!(base_stmt, new_stmt);
        assert!(adapted.statements.as_array().iter().all(|&w| w >= 1));
        assert!(adapted.expressions.as_array().iter().all(|&w| w >= 1));
    }

    /// A stand-in for `p4c::coverage::all_rule_keys()` (p4-gen does not
    /// depend on p4c; the mapping only needs the key shape).
    fn p4c_rule_universe() -> Vec<String> {
        [
            "ConstantFolding/fold_arith",
            "ConstantFolding/fold_slice",
            "StrengthReduction/mul_pow2_to_shift",
            "SideEffectOrdering/hoist_call",
            "InlineFunctions/inline_call",
            "RemoveActionParameters/exit_copy_out",
            "SimplifyDefUse/dead_store",
            "LocalCopyPropagation/propagate",
            "Predication/predicate_then",
            "FlattenBlocks/splice_block",
        ]
        .into_iter()
        .map(String::from)
        .collect()
    }

    /// Regression for the rotating-focus bug: the old arithmetic
    /// (`skip(group * FOCUS) .take(FOCUS)` with `group = round % groups`)
    /// left a near-empty focus when coverage shrank the unfired list to
    /// just past a group boundary, and could skip or double-visit rules as
    /// the group count changed between epochs.  Indexing modulo the current
    /// length keeps the slice full and cycles through every entry.
    #[test]
    fn rotation_on_a_shrinking_unfired_set_keeps_the_focus_full() {
        let items: Vec<String> = (0..13).map(|i| format!("Pass/rule{i}")).collect();
        // Round 2 with 13 left: the old code focused on a single rule
        // (index 12); the wraparound slice stays full.
        let focus = focus_slice(&items, 6, 2);
        assert_eq!(focus.len(), 6);
        assert_eq!(focus[0], &items[12]);
        assert_eq!(focus[5], &items[4]);

        // Simulate an epoch loop where each round's focus fires and leaves
        // the list: every rule is visited, none twice, and the focus is
        // full (or the whole remainder) at every round.
        let mut remaining: Vec<String> = items.clone();
        let mut visited = std::collections::BTreeSet::new();
        for round in 0.. {
            if remaining.is_empty() {
                break;
            }
            let focus: Vec<String> = focus_slice(&remaining, 6, round)
                .into_iter()
                .cloned()
                .collect();
            assert_eq!(focus.len(), 6.min(remaining.len()));
            for rule in &focus {
                assert!(visited.insert(rule.clone()), "{rule} visited twice");
            }
            remaining.retain(|rule| !focus.contains(rule));
        }
        assert_eq!(visited.len(), items.len(), "every rule gets a focus epoch");
    }

    #[test]
    fn unfired_pairs_pull_both_member_knobs() {
        let base = GeneratorConfig::default();
        let pairs = vec!["ConstantFolding/fold_shift->LocalCopyPropagation/propagate".to_string()];
        let adapted =
            WeightAdapter::default().adapt_with_pairs(&base, &[], &pairs, &no_census(), 0);
        assert!(
            adapted.expressions.shift > base.expressions.shift,
            "first member's shift knob should rise"
        );
        assert!(
            adapted.statements.declaration > base.statements.declaration,
            "second member's declaration knob should rise"
        );
        assert_eq!(adapted.statements.total(), base.statements.total());
    }

    #[test]
    fn pairs_and_rules_exhausted_is_the_same_fixpoint() {
        let base = GeneratorConfig::default();
        let adapted = WeightAdapter::default().adapt_with_pairs(&base, &[], &[], &no_census(), 7);
        assert_eq!(adapted.statements.as_array(), base.statements.as_array());
        assert_eq!(adapted.expressions.as_array(), base.expressions.as_array());
    }

    #[test]
    fn diversify_is_deterministic_sum_preserving_and_slice_distinct() {
        let base = GeneratorConfig::default();
        let adapter = WeightAdapter::default();
        let pairs = vec![
            "ConstantFolding/fold_arith->Predication/predicate_then".to_string(),
            "StrengthReduction/mask_all_ones->FlattenBlocks/splice_block".to_string(),
        ];
        let a = adapter.diversify(&base, 1, 3, &pairs);
        let again = adapter.diversify(&base, 1, 3, &pairs);
        assert_eq!(a.statements.as_array(), again.statements.as_array());
        assert_eq!(a.expressions.as_array(), again.expressions.as_array());
        assert_eq!(a.statements.total(), base.statements.total());
        assert_eq!(a.expressions.total(), base.expressions.total());
        assert!(a.statements.as_array().iter().all(|&w| w >= 1));

        let b = adapter.diversify(&base, 2, 3, &pairs);
        assert!(
            a.statements.as_array() != b.statements.as_array()
                || a.expressions.as_array() != b.expressions.as_array(),
            "distinct slices should explore distinct weight mixes"
        );
        // No pairs and a single slice leaves the base untouched.
        let identity = adapter.diversify(&base, 0, 1, &[]);
        assert_eq!(identity.statements.as_array(), base.statements.as_array());
        assert_eq!(identity.expressions.as_array(), base.expressions.as_array());
    }

    #[test]
    fn rebalance_hits_the_target_exactly() {
        let mut values = [100u64, 1, 1, 1];
        rebalance(&mut values, 10);
        assert_eq!(values.iter().sum::<u64>(), 10);
        assert!(values.iter().all(|&v| v >= 1));
        let mut tiny = [0u64, 0, 0];
        rebalance(&mut tiny, 9);
        assert_eq!(tiny.iter().sum::<u64>(), 9);
    }
}
