//! Pass-rewrite coverage: which optimisation rules actually fired.
//!
//! The paper steers its random generator with per-node-kind probabilities so
//! programs stay "small and targeted" (§4.1), but offers no feedback signal
//! telling the campaign *which* compiler behaviour a batch of programs
//! exercised.  This module provides that signal: every rewrite rule in the
//! reference passes reports each firing through [`record`], and
//! [`with_sink`] collects the firings of everything run inside it into a
//! [`PassCoverage`] counter map.
//!
//! Beyond single rules, the sink tracks **pass interactions**: the driver
//! calls [`pass_boundary`] after every pass outcome, and the sink records
//! the ordered pair "rule A fired in an earlier pass, rule B fired in a
//! later pass" for the same compile.  Most real miscompiles live in exactly
//! these interactions (one rewrite manufacturing the shape a later rewrite
//! mis-handles), so the campaign steers generation toward *uncovered pairs*
//! once the single-rule frontier saturates.  The pair universe is every
//! cross-pass ordered pair of registered rules, in registry order.
//!
//! A rule is its index in the flat, static [`ALL_RULES`] table, and every
//! counter is keyed by that index; the `"pass/rule"` strings are formatted
//! once per process and read only when a caller asks for keys.  Each thread
//! has one sink slot, which [`with_sink`] fills for the duration of its
//! closure and which does not nest.  The compiler driver clears the pair
//! state at the start of every compile, so pairs never span two compiles,
//! and closes the pass segment after every pass outcome, crash and
//! rejection included, so a crashing pass's rules still pair with the
//! rules of the passes before it.  With no sink installed (and telemetry
//! off), recording is one thread-local read per fired rewrite and nothing
//! else.
//!
//! The campaign layer uses [`ALL_RULES`] to report "rules fired / total"
//! and to steer generator weights toward rules (and pairs) that have never
//! fired.

use std::cell::RefCell;
use std::collections::BTreeMap;
use std::panic::{catch_unwind, resume_unwind, AssertUnwindSafe};
use std::sync::OnceLock;

/// Every instrumented rewrite rule, grouped by pass.  The campaign layer
/// treats this as the coverage universe; [`record`] debug-asserts that each
/// firing names a registered rule so the two cannot drift apart.
pub const ALL_RULES: &[(&str, &[&str])] = &[
    (
        "ConstantFolding",
        &[
            "fold_arith",
            "fold_bitwise",
            "fold_shift",
            "fold_concat",
            "fold_compare",
            "fold_bool",
            "fold_unary",
            "fold_cast",
            "fold_slice",
            "fold_ternary",
            "prune_if",
        ],
    ),
    (
        "StrengthReduction",
        &[
            "add_zero_identity",
            "mul_by_zero",
            "mul_by_one",
            "mul_pow2_to_shift",
            "mask_all_ones",
            "shift_by_zero",
            "oversized_shift_to_zero",
            "bool_identity",
            "double_negation",
        ],
    ),
    ("SideEffectOrdering", &["hoist_call"]),
    (
        "InlineFunctions",
        &["inline_call", "guarded_return", "copy_out", "exit_copy_out"],
    ),
    (
        "RemoveActionParameters",
        &[
            "inline_call",
            "guarded_return",
            "copy_out",
            "exit_copy_out",
            "prune_action",
        ],
    ),
    (
        "SimplifyDefUse",
        &["dead_store", "dead_declare", "drop_control_var"],
    ),
    ("LocalCopyPropagation", &["propagate"]),
    ("Predication", &["predicate_then", "predicate_if_else"]),
    (
        "FlattenBlocks",
        &["splice_block", "drop_empty_statement", "drop_empty_else"],
    ),
];

/// One registered rule: its pass and name, the rank of its pass in
/// [`ALL_RULES`] (which orients pairs), and its `"pass/rule"` key.
struct Rule {
    pass: &'static str,
    name: &'static str,
    rank: usize,
    key: String,
}

/// The flat rule table: [`ALL_RULES`] in order, so a rule's index is its
/// position here.  Built once per process.
fn rules() -> &'static [Rule] {
    static RULES: OnceLock<Vec<Rule>> = OnceLock::new();
    RULES.get_or_init(|| {
        let mut table = Vec::new();
        for (rank, (pass, names)) in ALL_RULES.iter().enumerate() {
            for name in names.iter() {
                table.push(Rule {
                    pass,
                    name,
                    rank,
                    key: rule_key(pass, name),
                });
            }
        }
        assert!(table.len() <= 64, "a sink segment is a u64 rule mask");
        table
    })
}

/// The index of a registered rule, by scanning the table.
fn rule_index(pass: &str, rule: &str) -> Option<usize> {
    rules()
        .iter()
        .position(|entry| entry.pass == pass && entry.name == rule)
}

/// The index of a registered rule key (`"pass/rule"`).
fn key_index(key: &str) -> Option<usize> {
    let (pass, rule) = key.split_once('/')?;
    rule_index(pass, rule)
}

/// The indices of a registered pair key (`"passA/ruleA->passB/ruleB"`).
fn pair_index(key: &str) -> Option<(usize, usize)> {
    let (first, second) = key.split_once("->")?;
    Some((key_index(first)?, key_index(second)?))
}

/// Every cross-pass pair of rule indices: the first rule's pass precedes
/// the second's in [`ALL_RULES`] order.
fn cross_pairs() -> impl Iterator<Item = (usize, usize)> {
    let table = rules();
    (0..table.len()).flat_map(move |first| {
        (0..table.len())
            .filter(move |&second| table[first].rank < table[second].rank)
            .map(move |second| (first, second))
    })
}

/// The pair key of two rule indices.
fn pair_string((first, second): (usize, usize)) -> String {
    pair_key(&rules()[first].key, &rules()[second].key)
}

/// Number of rules in the static registry (the denominator of
/// "rules fired / total").
pub fn total_rules() -> usize {
    rules().len()
}

/// Number of ordered cross-pass rule pairs in the registry (the denominator
/// of "pairs fired / total"): every `(rule in pass i, rule in pass j)` with
/// `i < j` in [`ALL_RULES`] order.  Same-pass pairs are excluded — two rules
/// of one pass firing in one run is not an interaction between passes.
pub fn total_pairs() -> usize {
    cross_pairs().count()
}

/// The canonical flat key of a rule: `"pass/rule"`.
pub fn rule_key(pass: &str, rule: &str) -> String {
    format!("{pass}/{rule}")
}

/// The canonical flat key of an ordered rule pair:
/// `"passA/ruleA->passB/ruleB"` (A fired in an earlier pass run than B).
pub fn pair_key(first: &str, second: &str) -> String {
    format!("{first}->{second}")
}

/// All registered rule keys, sorted.
pub fn all_rule_keys() -> Vec<String> {
    let mut keys: Vec<String> = rules().iter().map(|rule| rule.key.clone()).collect();
    keys.sort();
    keys
}

/// All registered cross-pass pair keys, sorted.
pub fn all_pair_keys() -> Vec<String> {
    let mut keys: Vec<String> = cross_pairs().map(pair_string).collect();
    keys.sort();
    keys
}

/// Fired-rewrite counters, keyed by rule index: rule firings plus
/// cross-pass interaction pairs.  The public API speaks `"pass/rule"` (and
/// `"a->b"` pair) strings; they are resolved to indices at the map
/// boundary, and unregistered keys never fire.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct PassCoverage {
    counts: BTreeMap<usize, u64>,
    pairs: BTreeMap<(usize, usize), u64>,
}

impl PassCoverage {
    pub fn new() -> PassCoverage {
        PassCoverage::default()
    }

    /// Increments the counter for one firing of a registered rule
    /// (unregistered rules are ignored).
    pub fn record(&mut self, pass: &str, rule: &str) {
        if let Some(index) = rule_index(pass, rule) {
            *self.counts.entry(index).or_insert(0) += 1;
        }
    }

    /// Adds every counter of `other` into `self` (commutative, so the
    /// campaign may merge per-seed maps in any order and still commit a
    /// deterministic accumulated map).  Pair counters merge the same way.
    pub fn merge(&mut self, other: &PassCoverage) {
        for (key, count) in &other.counts {
            *self.counts.entry(*key).or_insert(0) += count;
        }
        for (key, count) in &other.pairs {
            *self.pairs.entry(*key).or_insert(0) += count;
        }
    }

    /// Whether `self` fired a rule or observed a pair that `seen` has not.
    pub fn covers_beyond(&self, seen: &PassCoverage) -> bool {
        self.counts
            .keys()
            .any(|rule| !seen.counts.contains_key(rule))
            || self.pairs.keys().any(|pair| !seen.pairs.contains_key(pair))
    }

    /// Number of distinct rules that fired at least once.
    pub fn distinct_rules(&self) -> usize {
        self.counts.len()
    }

    /// Number of distinct cross-pass pairs observed at least once.
    pub fn distinct_pairs(&self) -> usize {
        self.pairs.len()
    }

    /// Firing count of one rule key (`"pass/rule"`).
    pub fn count(&self, key: &str) -> u64 {
        key_index(key)
            .and_then(|index| self.counts.get(&index).copied())
            .unwrap_or(0)
    }

    /// Whether the given rule key has fired.
    pub fn fired(&self, key: &str) -> bool {
        self.count(key) > 0
    }

    /// Observation count of one pair key (`"passA/ruleA->passB/ruleB"`).
    pub fn pair_count(&self, key: &str) -> u64 {
        pair_index(key)
            .and_then(|pair| self.pairs.get(&pair).copied())
            .unwrap_or(0)
    }

    /// Whether the given pair key has been observed.
    pub fn pair_fired(&self, key: &str) -> bool {
        self.pair_count(key) > 0
    }

    pub fn is_empty(&self) -> bool {
        self.counts.is_empty() && self.pairs.is_empty()
    }

    /// Iterates `(rule key, firings)` in sorted key order.
    pub fn iter(&self) -> impl Iterator<Item = (String, u64)> {
        let mut entries: Vec<(String, u64)> = self
            .counts
            .iter()
            .map(|(&index, &count)| (rules()[index].key.clone(), count))
            .collect();
        entries.sort();
        entries.into_iter()
    }

    /// The sorted fired-rule keys.
    pub fn fired_keys(&self) -> Vec<String> {
        self.iter().map(|(key, _)| key).collect()
    }

    /// Registered rules that have *not* fired, in sorted key order.
    pub fn unfired_keys(&self) -> Vec<String> {
        let mut keys: Vec<String> = rules()
            .iter()
            .enumerate()
            .filter(|(index, _)| !self.counts.contains_key(index))
            .map(|(_, rule)| rule.key.clone())
            .collect();
        keys.sort();
        keys
    }

    /// The sorted fired-pair keys (`"a->b"` form).
    pub fn fired_pair_keys(&self) -> Vec<String> {
        let mut keys: Vec<String> = self.pairs.keys().copied().map(pair_string).collect();
        keys.sort();
        keys
    }

    /// Registered cross-pass pairs not yet observed, *frontier first*: pairs
    /// whose two member rules have both individually fired come before pairs
    /// with an unfired member (each group sorted).  A pair on the frontier
    /// only needs the two rewrites to meet in one program, so steering at it
    /// pays off sooner than chasing a pair gated behind an unfired rule.
    pub fn unfired_pair_keys(&self) -> Vec<String> {
        let (mut frontier, mut deferred) = (Vec::new(), Vec::new());
        for (first, second) in cross_pairs().filter(|pair| !self.pairs.contains_key(pair)) {
            let reachable = self.counts.contains_key(&first) && self.counts.contains_key(&second);
            let group = if reachable {
                &mut frontier
            } else {
                &mut deferred
            };
            group.push(pair_string((first, second)));
        }
        frontier.sort();
        deferred.sort();
        frontier.extend(deferred);
        frontier
    }
}

/// The installed sink: the coverage collected so far plus the pair state
/// of the current compile, as `u64` masks over rule indices.  `segment`
/// holds the rules fired since the last [`pass_boundary`], `earlier` the
/// rules of the compile's completed pass runs.  At each boundary the sink
/// counts every (earlier rule, segment rule) cross-pass pair once, then
/// promotes the segment.
#[derive(Default)]
struct Sink {
    coverage: PassCoverage,
    segment: u64,
    earlier: u64,
}

impl Sink {
    fn record(&mut self, rule: usize) {
        *self.coverage.counts.entry(rule).or_insert(0) += 1;
        self.segment |= 1 << rule;
    }

    fn flush_segment(&mut self) {
        let table = rules();
        for second in mask_bits(self.segment) {
            for first in mask_bits(self.earlier) {
                if table[first].rank < table[second].rank {
                    *self.coverage.pairs.entry((first, second)).or_insert(0) += 1;
                }
            }
        }
        self.earlier |= self.segment;
        self.segment = 0;
    }
}

/// The rule indices set in `mask`, ascending.
fn mask_bits(mask: u64) -> impl Iterator<Item = usize> {
    (0..64).filter(move |bit| mask >> bit & 1 == 1)
}

thread_local! {
    /// This thread's sink, present while a [`with_sink`] closure runs.
    static SINK: RefCell<Option<Sink>> = const { RefCell::new(None) };
}

/// Runs `f` on the installed sink, if any.
fn with_installed(f: impl FnOnce(&mut Sink)) {
    SINK.with(|slot| {
        if let Some(sink) = slot.borrow_mut().as_mut() {
            f(sink);
        }
    });
}

/// Records one rule firing into the installed sink, if any, and into the
/// flight recorder's per-rule counters when telemetry is on.  Called by the
/// passes at every rewrite point.
pub fn record(pass: &str, rule: &str) {
    debug_assert!(
        rule_index(pass, rule).is_some(),
        "unregistered coverage rule {pass}/{rule}; add it to coverage::ALL_RULES"
    );
    let telemetry = gauntlet_telemetry::enabled();
    SINK.with(|slot| {
        let mut slot = slot.borrow_mut();
        if slot.is_none() && !telemetry {
            return;
        }
        let Some(index) = rule_index(pass, rule) else {
            return;
        };
        if let Some(sink) = slot.as_mut() {
            sink.record(index);
        }
        if telemetry {
            gauntlet_telemetry::count_rule(&rules()[index].key);
        }
    });
}

/// Marks a pass boundary in the installed sink: rules recorded since the
/// previous boundary become "earlier" rules, and every registered
/// cross-pass pair they complete is counted.  The compiler driver calls
/// this after every pass outcome, including a crash or a rejection.
pub fn pass_boundary() {
    with_installed(Sink::flush_segment);
}

/// Starts a compile in the installed sink: the rules of any earlier compile
/// stop being pair partners.
pub(crate) fn start_compile() {
    with_installed(|sink| {
        sink.segment = 0;
        sink.earlier = 0;
    });
}

/// Runs `f` with a fresh sink installed and returns its result together with
/// every rule and pair recorded while it ran, including those of compiles
/// that ended in a crash.  The slot is cleared again when `f` returns or
/// unwinds.  Sinks do not nest: calling `with_sink` inside `f` panics.
pub fn with_sink<R>(f: impl FnOnce() -> R) -> (R, PassCoverage) {
    SINK.with(|slot| {
        let mut slot = slot.borrow_mut();
        assert!(
            slot.is_none(),
            "coverage::with_sink does not nest: this thread already has a sink installed"
        );
        *slot = Some(Sink::default());
    });
    let result = catch_unwind(AssertUnwindSafe(f));
    let mut sink = SINK
        .with(|slot| slot.borrow_mut().take())
        .expect("the sink stays installed while f runs");
    match result {
        Ok(result) => {
            sink.flush_segment();
            (result, sink.coverage)
        }
        Err(panic) => resume_unwind(panic),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn recording_without_a_sink_is_a_no_op() {
        record("ConstantFolding", "fold_arith");
        let (_, coverage) = with_sink(|| ());
        assert!(coverage.is_empty());
    }

    #[test]
    fn merge_sums_counters_commutatively() {
        let mut a = PassCoverage::new();
        a.record("ConstantFolding", "fold_arith");
        a.record("ConstantFolding", "fold_arith");
        let mut b = PassCoverage::new();
        b.record("ConstantFolding", "fold_arith");
        b.record("FlattenBlocks", "drop_empty_else");
        let mut ab = a.clone();
        ab.merge(&b);
        let mut ba = b.clone();
        ba.merge(&a);
        assert_eq!(ab, ba);
        assert_eq!(ab.count("ConstantFolding/fold_arith"), 3);
        assert_eq!(ab.distinct_rules(), 2);
    }

    #[test]
    fn unfired_keys_complement_fired_keys() {
        let mut coverage = PassCoverage::new();
        coverage.record("Predication", "predicate_then");
        let unfired = coverage.unfired_keys();
        assert_eq!(unfired.len(), total_rules() - 1);
        assert!(!unfired.contains(&"Predication/predicate_then".to_string()));
    }

    #[test]
    fn pair_universe_is_every_cross_pass_combination() {
        let keys = all_pair_keys();
        assert_eq!(keys.len(), total_pairs());
        // 39 rules, sum of squared per-pass sizes 267: (39^2 - 267) / 2.
        assert_eq!(total_pairs(), 627);
        assert!(
            keys.contains(&"ConstantFolding/fold_arith->Predication/predicate_then".to_string())
        );
        // Pairs are oriented by registry order only.
        assert!(
            !keys.contains(&"Predication/predicate_then->ConstantFolding/fold_arith".to_string())
        );
        // Same-pass combinations are not pairs.
        assert!(
            !keys.contains(&"ConstantFolding/fold_arith->ConstantFolding/fold_bool".to_string())
        );
    }

    #[test]
    fn pass_boundaries_turn_firings_into_ordered_pairs() {
        let ((), coverage) = with_sink(|| {
            record("ConstantFolding", "fold_arith");
            record("ConstantFolding", "fold_bool");
            pass_boundary();
            record("Predication", "predicate_then");
            pass_boundary();
        });
        assert_eq!(coverage.distinct_pairs(), 2);
        assert_eq!(
            coverage.pair_count("ConstantFolding/fold_arith->Predication/predicate_then"),
            1
        );
        assert_eq!(
            coverage.pair_count("ConstantFolding/fold_bool->Predication/predicate_then"),
            1
        );
        // Same-pass firings never pair.
        assert!(!coverage.pair_fired("ConstantFolding/fold_arith->ConstantFolding/fold_bool"));
    }

    #[test]
    fn pairs_against_registry_order_are_not_counted() {
        // Predication precedes ConstantFolding at runtime here, but the
        // registry orders ConstantFolding first, so no pair is recorded:
        // the pair universe is oriented by registry (pipeline) order.
        let ((), coverage) = with_sink(|| {
            record("Predication", "predicate_then");
            pass_boundary();
            record("ConstantFolding", "fold_arith");
            pass_boundary();
        });
        assert_eq!(coverage.distinct_pairs(), 0);
        assert_eq!(coverage.distinct_rules(), 2);
    }

    #[test]
    fn sinks_do_not_nest_and_an_unwind_clears_the_slot() {
        let nested = std::panic::catch_unwind(|| {
            with_sink(|| {
                record("FlattenBlocks", "splice_block");
                with_sink(|| ())
            })
        });
        assert!(nested.is_err(), "a nested with_sink must panic");
        let ((), coverage) = with_sink(|| ());
        assert!(coverage.is_empty(), "the unwind cleared the outer sink");
    }

    #[test]
    fn pair_merge_is_commutative_and_unfired_pairs_are_frontier_first() {
        let mut a = PassCoverage::new();
        a.record("ConstantFolding", "fold_arith");
        a.record("Predication", "predicate_then");
        let mut b = PassCoverage::new();
        b.record("FlattenBlocks", "splice_block");
        let mut ab = a.clone();
        ab.merge(&b);
        let mut ba = b.clone();
        ba.merge(&a);
        assert_eq!(ab, ba);

        let unfired = ab.unfired_pair_keys();
        assert_eq!(unfired.len(), total_pairs(), "no pair observed yet");
        // Every frontier pair (both members fired) sorts before every
        // deferred pair (some member unfired).
        let frontier_len = unfired
            .iter()
            .take_while(|key| {
                key.split_once("->")
                    .map(|(x, y)| ab.fired(x) && ab.fired(y))
                    .unwrap_or(false)
            })
            .count();
        // fold_arith->predicate_then, fold_arith->splice_block,
        // predicate_then->splice_block.
        assert_eq!(frontier_len, 3);
        assert!(unfired[frontier_len..].iter().all(|key| {
            key.split_once("->")
                .map(|(x, y)| !ab.fired(x) || !ab.fired(y))
                .unwrap_or(false)
        }));
    }
}
