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
//! calls [`pass_boundary`] after every pass run, and the sink records the
//! ordered pair "rule A fired in an earlier pass, rule B fired in a later
//! pass" for the same compile.  Most real miscompiles live in exactly these
//! interactions (one rewrite manufacturing the shape a later rewrite
//! mis-handles), so the campaign steers generation toward *uncovered pairs*
//! once the single-rule frontier saturates.  The pair universe is every
//! cross-pass ordered pair of registered rules, in registry order.
//!
//! The sink is a thread-local installed by [`with_sink`], which also sees
//! coverage from *crashing* compiles — a pass fires rules before it panics,
//! and those firings are already in the sink when `catch_unwind` returns.
//! The compiler driver opens a nested per-compile scope of its own, so pair
//! tracking never spans two compiles.  Recording is a no-op
//! when no sink is installed, so the passes pay one thread-local read per
//! fired rewrite and nothing else.  All sink state is keyed by interned
//! [`Symbol`] pairs — no string is allocated on the hot path; the string
//! form is materialised once, at report-render time.
//!
//! The full rule universe is enumerated statically in [`ALL_RULES`]; the
//! campaign layer uses it to report "rules fired / total" and to steer
//! generator weights toward rules (and pairs) that have never fired.

use p4_ir::{Interner, Symbol};
use std::cell::RefCell;
use std::collections::{BTreeMap, BTreeSet, HashMap, HashSet};
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

/// Number of rules in the static registry (the denominator of
/// "rules fired / total").
pub fn total_rules() -> usize {
    ALL_RULES.iter().map(|(_, rules)| rules.len()).sum()
}

/// Number of ordered cross-pass rule pairs in the registry (the denominator
/// of "pairs fired / total"): every `(rule in pass i, rule in pass j)` with
/// `i < j` in [`ALL_RULES`] order.  Same-pass pairs are excluded — two rules
/// of one pass firing in one run is not an interaction between passes.
pub fn total_pairs() -> usize {
    let sizes: Vec<usize> = ALL_RULES.iter().map(|(_, rules)| rules.len()).collect();
    let mut pairs = 0;
    for i in 0..sizes.len() {
        for j in i + 1..sizes.len() {
            pairs += sizes[i] * sizes[j];
        }
    }
    pairs
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

/// All registered rule keys, sorted (BTreeMap order of [`ALL_RULES`] is
/// already deterministic, but callers get a plain sorted list).
pub fn all_rule_keys() -> Vec<String> {
    let mut keys: Vec<String> = ALL_RULES
        .iter()
        .flat_map(|(pass, rules)| rules.iter().map(|rule| rule_key(pass, rule)))
        .collect();
    keys.sort();
    keys
}

/// All registered cross-pass pair keys, sorted.
pub fn all_pair_keys() -> Vec<String> {
    let mut keys = Vec::with_capacity(total_pairs());
    for (i, (pass_a, rules_a)) in ALL_RULES.iter().enumerate() {
        for (pass_b, rules_b) in ALL_RULES.iter().skip(i + 1) {
            for rule_a in rules_a.iter() {
                for rule_b in rules_b.iter() {
                    keys.push(pair_key(
                        &rule_key(pass_a, rule_a),
                        &rule_key(pass_b, rule_b),
                    ));
                }
            }
        }
    }
    keys.sort();
    keys
}

/// An interned `(pass, rule)` identity.
type RuleId = (Symbol, Symbol);

/// The pre-interned rule registry behind every sink and coverage map.  The
/// rule universe is tiny and static, so the whole table is built once; every
/// later firing is two read-mostly interner lookups plus hash-map
/// increments on plain integers — no per-firing allocation.
struct Registry {
    interner: Interner,
    /// Registered `(pass, rule)` → its pre-formatted `"pass/rule"` key.
    key_strings: HashMap<RuleId, String>,
    /// Pass symbol → rank in [`ALL_RULES`] order, used to orient pairs.
    pass_rank: HashMap<Symbol, usize>,
}

fn registry() -> &'static Registry {
    static REGISTRY: OnceLock<Registry> = OnceLock::new();
    REGISTRY.get_or_init(|| {
        let interner = Interner::new();
        let mut key_strings = HashMap::new();
        let mut pass_rank = HashMap::new();
        for (rank, (pass, rules)) in ALL_RULES.iter().enumerate() {
            let (pass_sym, _) = interner.intern(pass);
            pass_rank.insert(pass_sym, rank);
            for rule in rules.iter() {
                let (rule_sym, _) = interner.intern(rule);
                key_strings.insert((pass_sym, rule_sym), rule_key(pass, rule));
            }
        }
        Registry {
            interner,
            key_strings,
            pass_rank,
        }
    })
}

impl Registry {
    fn intern(&self, pass: &str, rule: &str) -> RuleId {
        let (pass_sym, _) = self.interner.intern(pass);
        let (rule_sym, _) = self.interner.intern(rule);
        (pass_sym, rule_sym)
    }

    /// The `"pass/rule"` string of an id.  Registered rules hit the
    /// pre-formatted table; unregistered ones (tests) format on demand.
    fn key_string(&self, id: RuleId) -> String {
        match self.key_strings.get(&id) {
            Some(key) => key.clone(),
            None => rule_key(&self.interner.resolve(id.0), &self.interner.resolve(id.1)),
        }
    }

    /// Whether `(first, second)` is a registered cross-pass pair: both rules
    /// registered and `first`'s pass strictly precedes `second`'s in
    /// [`ALL_RULES`] order.
    fn is_cross_pair(&self, first: RuleId, second: RuleId) -> bool {
        if !self.key_strings.contains_key(&first) || !self.key_strings.contains_key(&second) {
            return false;
        }
        match (self.pass_rank.get(&first.0), self.pass_rank.get(&second.0)) {
            (Some(a), Some(b)) => a < b,
            _ => false,
        }
    }
}

/// Fired-rewrite counters, keyed by interned `(pass, rule)` symbols: rule
/// firings plus cross-pass interaction pairs.  The public API speaks
/// `"pass/rule"` (and `"a->b"` pair) strings; resolution happens here, at
/// the map boundary, never per firing.
#[derive(Debug, Clone, Default, PartialEq, Eq, serde::Serialize, serde::Deserialize)]
pub struct PassCoverage {
    counts: BTreeMap<RuleId, u64>,
    pairs: BTreeMap<(RuleId, RuleId), u64>,
}

impl PassCoverage {
    pub fn new() -> PassCoverage {
        PassCoverage::default()
    }

    /// Increments the counter for one rule firing.
    pub fn record(&mut self, pass: &str, rule: &str) {
        let id = registry().intern(pass, rule);
        *self.counts.entry(id).or_insert(0) += 1;
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

    /// Number of distinct rules that fired at least once.
    pub fn distinct_rules(&self) -> usize {
        self.counts.len()
    }

    /// Number of distinct cross-pass pairs observed at least once.
    pub fn distinct_pairs(&self) -> usize {
        self.pairs.len()
    }

    fn lookup(&self, key: &str) -> Option<&u64> {
        let (pass, rule) = key.split_once('/')?;
        self.counts.get(&registry().intern(pass, rule))
    }

    /// Firing count of one rule key (`"pass/rule"`).
    pub fn count(&self, key: &str) -> u64 {
        self.lookup(key).copied().unwrap_or(0)
    }

    /// Whether the given rule key has fired.
    pub fn fired(&self, key: &str) -> bool {
        self.lookup(key).is_some()
    }

    fn lookup_pair(&self, key: &str) -> Option<&u64> {
        let (first, second) = key.split_once("->")?;
        let (pass_a, rule_a) = first.split_once('/')?;
        let (pass_b, rule_b) = second.split_once('/')?;
        let reg = registry();
        self.pairs
            .get(&(reg.intern(pass_a, rule_a), reg.intern(pass_b, rule_b)))
    }

    /// Observation count of one pair key (`"passA/ruleA->passB/ruleB"`).
    pub fn pair_count(&self, key: &str) -> u64 {
        self.lookup_pair(key).copied().unwrap_or(0)
    }

    /// Whether the given pair key has been observed.
    pub fn pair_fired(&self, key: &str) -> bool {
        self.lookup_pair(key).is_some()
    }

    pub fn is_empty(&self) -> bool {
        self.counts.is_empty() && self.pairs.is_empty()
    }

    /// Iterates `(rule key, firings)` in sorted key order.  Strings are
    /// resolved here, once per call — never on the recording path.
    pub fn iter(&self) -> impl Iterator<Item = (String, u64)> {
        let reg = registry();
        let mut entries: Vec<(String, u64)> = self
            .counts
            .iter()
            .map(|(id, count)| (reg.key_string(*id), *count))
            .collect();
        entries.sort();
        entries.into_iter()
    }

    /// The sorted fired-rule keys.
    pub fn fired_keys(&self) -> Vec<String> {
        let reg = registry();
        let mut keys: Vec<String> = self.counts.keys().map(|id| reg.key_string(*id)).collect();
        keys.sort();
        keys
    }

    /// Registered rules that have *not* fired, in sorted key order.
    pub fn unfired_keys(&self) -> Vec<String> {
        all_rule_keys()
            .into_iter()
            .filter(|key| !self.fired(key))
            .collect()
    }

    /// The sorted fired-pair keys (`"a->b"` form).
    pub fn fired_pair_keys(&self) -> Vec<String> {
        let reg = registry();
        let mut keys: Vec<String> = self
            .pairs
            .keys()
            .map(|(a, b)| pair_key(&reg.key_string(*a), &reg.key_string(*b)))
            .collect();
        keys.sort();
        keys
    }

    /// Registered cross-pass pairs not yet observed, *frontier first*: pairs
    /// whose two member rules have both individually fired come before pairs
    /// with an unfired member (each group sorted).  A pair on the frontier
    /// only needs the two rewrites to meet in one program, so steering at it
    /// pays off sooner than chasing a pair gated behind an unfired rule.
    pub fn unfired_pair_keys(&self) -> Vec<String> {
        let fired: BTreeSet<String> = self.fired_keys().into_iter().collect();
        let mut frontier = Vec::new();
        let mut deferred = Vec::new();
        for key in all_pair_keys() {
            if self.pair_fired(&key) {
                continue;
            }
            let reachable = key
                .split_once("->")
                .map(|(a, b)| fired.contains(a) && fired.contains(b))
                .unwrap_or(false);
            if reachable {
                frontier.push(key);
            } else {
                deferred.push(key);
            }
        }
        frontier.extend(deferred);
        frontier
    }
}

/// The in-flight sink: firing counters keyed by interned `(pass, rule)`
/// symbols.  The hot path ([`record`]) therefore increments a
/// `HashMap<(u32, u32), u64>` entry instead of formatting a `"pass/rule"`
/// string and walking a `BTreeMap<String, _>` per firing; the string form
/// ([`PassCoverage`]) is materialised once, when the scope pops.
///
/// `segment` and `earlier` implement pair tracking: `segment` holds the
/// rules fired since the last [`pass_boundary`], `earlier` the rules of all
/// completed pass runs of the current compile.  At each boundary the sink
/// crosses the two sets (filtered to registered cross-pass pairs) into
/// `pairs`, then promotes the segment.  Merging a child sink outward never
/// touches the parent's segment machinery — pairing is strictly
/// per-compile.
#[derive(Debug, Default)]
struct Sink {
    counts: HashMap<RuleId, u64>,
    pairs: HashMap<(RuleId, RuleId), u64>,
    segment: HashSet<RuleId>,
    earlier: HashSet<RuleId>,
}

impl Sink {
    fn record(&mut self, pass: &str, rule: &str) {
        let id = registry().intern(pass, rule);
        *self.counts.entry(id).or_insert(0) += 1;
        self.segment.insert(id);
    }

    /// Closes the current pass segment: every (earlier rule, segment rule)
    /// combination that forms a registered cross-pass pair is counted once
    /// per boundary, then the segment's rules join `earlier`.
    fn flush_segment(&mut self) {
        if self.segment.is_empty() {
            return;
        }
        let reg = registry();
        for &second in &self.segment {
            for &first in &self.earlier {
                if reg.is_cross_pair(first, second) {
                    *self.pairs.entry((first, second)).or_insert(0) += 1;
                }
            }
        }
        self.earlier.extend(self.segment.drain());
    }

    fn merge_from(&mut self, other: &Sink) {
        for (key, count) in &other.counts {
            *self.counts.entry(*key).or_insert(0) += count;
        }
        for (key, count) in &other.pairs {
            *self.pairs.entry(*key).or_insert(0) += count;
        }
    }

    /// Resolves the interned counters into the public form.  Called once
    /// per scope, not per firing.
    fn into_coverage(mut self) -> PassCoverage {
        self.flush_segment();
        PassCoverage {
            counts: self.counts.into_iter().collect(),
            pairs: self.pairs.into_iter().collect(),
        }
    }
}

thread_local! {
    /// The active sink stack.  A stack (rather than a single slot) lets the
    /// driver's per-compile scope nest inside a campaign's [`with_sink`]
    /// without either clobbering the other: on pop, the inner scope merges
    /// its counters into the enclosing sink.
    static SINKS: RefCell<Vec<Sink>> = const { RefCell::new(Vec::new()) };
}

/// Records one rule firing into the innermost active sink, if any.  Called
/// by the passes at every rewrite point.
pub fn record(pass: &str, rule: &str) {
    debug_assert!(
        ALL_RULES
            .iter()
            .any(|(p, rules)| *p == pass && rules.contains(&rule)),
        "unregistered coverage rule {pass}/{rule}; add it to coverage::ALL_RULES"
    );
    SINKS.with(|sinks| {
        if let Some(sink) = sinks.borrow_mut().last_mut() {
            sink.record(pass, rule);
        }
    });
    // Mirror every firing into the flight recorder's per-rule counters.
    // Registered rules hit the registry's pre-formatted key table, so even
    // the telemetry-on path allocates nothing per firing; telemetry-off
    // stays a single thread-local read.
    if gauntlet_telemetry::enabled() {
        let reg = registry();
        match reg.key_strings.get(&reg.intern(pass, rule)) {
            Some(key) => gauntlet_telemetry::count_rule(key),
            None => gauntlet_telemetry::count_rule(&rule_key(pass, rule)),
        }
    }
}

/// Marks a pass boundary in the innermost active sink: rules recorded since
/// the previous boundary become "earlier" rules, and every registered
/// cross-pass pair they complete is counted.  The compiler driver calls this
/// after each pass run; a crashing pass never reaches its boundary, but the
/// scope's pop flushes the dangling segment so crash compiles still
/// contribute their pairs.
pub fn pass_boundary() {
    SINKS.with(|sinks| {
        if let Some(sink) = sinks.borrow_mut().last_mut() {
            sink.flush_segment();
        }
    });
}

/// A coverage scope: a fresh sink on the stack until the scope ends.  The
/// compiler driver opens one around each compile's pass pipeline and drops
/// it; dropping the scope without [`Scope::finish`] (also when a pass panic
/// unwinds through the driver) still pops the sink and merges it outward,
/// so enclosing [`with_sink`] callers observe the rules a crashing pass
/// fired before dying.
#[derive(Debug)]
pub(crate) struct Scope {
    finished: bool,
}

impl Scope {
    /// Pushes a fresh sink.
    pub(crate) fn begin() -> Scope {
        SINKS.with(|sinks| sinks.borrow_mut().push(Sink::default()));
        Scope { finished: false }
    }

    /// Pops the sink, merging its counters into the enclosing sink (if any),
    /// and returns them.
    pub(crate) fn finish(mut self) -> PassCoverage {
        self.finished = true;
        Scope::pop().into_coverage()
    }

    fn pop() -> Sink {
        SINKS.with(|sinks| {
            let mut sinks = sinks.borrow_mut();
            let mut sink = sinks.pop().expect("coverage scope underflow");
            // Close the trailing segment first so a crashing pass's firings
            // pair with the earlier rules of the same compile before the
            // counters merge outward.
            sink.flush_segment();
            if let Some(parent) = sinks.last_mut() {
                parent.merge_from(&sink);
            }
            sink
        })
    }
}

impl Drop for Scope {
    fn drop(&mut self) {
        if !self.finished {
            Scope::pop();
        }
    }
}

/// Runs `f` with a fresh sink installed and returns its result together with
/// every rule fired while it ran — including firings from compiles that
/// ended in a crash (the driver's inner scope merges outward on unwind).
pub fn with_sink<R>(f: impl FnOnce() -> R) -> (R, PassCoverage) {
    let scope = Scope::begin();
    let result = f();
    (result, scope.finish())
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
    fn with_sink_collects_and_nested_scopes_merge_outward() {
        let ((), outer) = with_sink(|| {
            record("ConstantFolding", "fold_arith");
            let scope = Scope::begin();
            record("Predication", "predicate_then");
            let inner = scope.finish();
            assert_eq!(inner.distinct_rules(), 1);
            assert_eq!(inner.count("Predication/predicate_then"), 1);
        });
        assert_eq!(outer.distinct_rules(), 2);
        assert_eq!(outer.count("ConstantFolding/fold_arith"), 1);
        assert_eq!(outer.count("Predication/predicate_then"), 1);
    }

    #[test]
    fn scope_drop_on_unwind_still_merges_outward() {
        let (result, coverage) = with_sink(|| {
            std::panic::catch_unwind(|| {
                let _scope = Scope::begin();
                record("FlattenBlocks", "splice_block");
                panic!("pass bug");
            })
        });
        assert!(result.is_err());
        assert_eq!(coverage.count("FlattenBlocks/splice_block"), 1);
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
            let scope = Scope::begin();
            record("ConstantFolding", "fold_arith");
            record("ConstantFolding", "fold_bool");
            pass_boundary();
            record("Predication", "predicate_then");
            pass_boundary();
            let inner = scope.finish();
            assert_eq!(inner.distinct_pairs(), 2);
            assert_eq!(
                inner.pair_count("ConstantFolding/fold_arith->Predication/predicate_then"),
                1
            );
            assert_eq!(
                inner.pair_count("ConstantFolding/fold_bool->Predication/predicate_then"),
                1
            );
            // Same-pass firings never pair.
            assert!(!inner.pair_fired("ConstantFolding/fold_arith->ConstantFolding/fold_bool"));
        });
        assert_eq!(coverage.distinct_pairs(), 2, "pairs merge outward");
    }

    #[test]
    fn pairs_against_registry_order_are_not_counted() {
        // Predication precedes ConstantFolding at runtime here, but the
        // registry orders ConstantFolding first, so no pair is recorded:
        // the pair universe is oriented by registry (pipeline) order.
        let ((), coverage) = with_sink(|| {
            let scope = Scope::begin();
            record("Predication", "predicate_then");
            pass_boundary();
            record("ConstantFolding", "fold_arith");
            pass_boundary();
            scope.finish();
        });
        assert_eq!(coverage.distinct_pairs(), 0);
        assert_eq!(coverage.distinct_rules(), 2);
    }

    #[test]
    fn crashing_pass_segment_still_pairs_on_unwind() {
        let (result, coverage) = with_sink(|| {
            std::panic::catch_unwind(|| {
                let _scope = Scope::begin();
                record("ConstantFolding", "fold_arith");
                pass_boundary();
                record("FlattenBlocks", "splice_block");
                panic!("pass bug after firing");
            })
        });
        assert!(result.is_err());
        assert_eq!(
            coverage.pair_count("ConstantFolding/fold_arith->FlattenBlocks/splice_block"),
            1,
            "the dangling segment flushes when the scope unwinds"
        );
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
