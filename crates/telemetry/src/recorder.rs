//! The per-worker flight recorder: span-based stage stats, per-pass and
//! per-rule counters, and the solver-query latency histogram.
//!
//! One `Recorder` lives thread-locally on each worker (installed by the
//! campaign when `HuntConfig::telemetry` is set) and is merged into the
//! pool-wide aggregate at the epoch barrier.  All merges are plain addition
//! over sorted maps and fixed arrays, so the aggregated *counters* (span
//! counts, pass executions, fired rules, query counts) are independent of
//! the work-stealing schedule; the *timings* are wall-clock and therefore
//! run-descriptive, which is why the whole summary is excluded from
//! deterministic artifacts alongside `elapsed`.

use std::collections::BTreeMap;

use crate::histogram::LatencyHistogram;
use crate::json::{self, Json};

/// The pipeline stages a span can be attributed to.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Stage {
    /// Random program generation (`p4-gen`).
    Gen,
    /// The reference pass pipeline (`p4c::Compiler::compile`).
    Compile,
    /// Pair-wise translation validation (`ValidationSession::check_pair`).
    Validate,
    /// Symbolic test generation + target replay (`check_target` /
    /// `check_differential`).
    Testgen,
    /// Metamorphic mutant checking (`MetamorphicChecker::check`).
    Mutate,
    /// Delta-debugging reduction (`Reducer::reduce`).
    Reduce,
}

impl Stage {
    pub const ALL: [Stage; 6] = [
        Stage::Gen,
        Stage::Compile,
        Stage::Validate,
        Stage::Testgen,
        Stage::Mutate,
        Stage::Reduce,
    ];

    /// Stable lower-case name used in JSON output and event lines.
    pub fn name(self) -> &'static str {
        match self {
            Stage::Gen => "gen",
            Stage::Compile => "compile",
            Stage::Validate => "validate",
            Stage::Testgen => "testgen",
            Stage::Mutate => "mutate",
            Stage::Reduce => "reduce",
        }
    }

    fn index(self) -> usize {
        match self {
            Stage::Gen => 0,
            Stage::Compile => 1,
            Stage::Validate => 2,
            Stage::Testgen => 3,
            Stage::Mutate => 4,
            Stage::Reduce => 5,
        }
    }
}

/// Aggregate statistics for one stage.
///
/// Spans nest (a `Validate` span runs inside a `Mutate` span when a mutant
/// is proved equivalent), so stage totals measure time *within* that stage
/// and do not sum to wall-clock.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct StageStats {
    /// Number of completed spans.
    pub spans: u64,
    /// Total time spent inside the stage, in microseconds.
    pub total_us: u64,
}

/// A thread-safe-by-construction flight recorder: each worker owns one
/// exclusively and the campaign merges them behind the epoch barrier.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct Recorder {
    stages: [StageStats; 6],
    passes: BTreeMap<String, u64>,
    rules: BTreeMap<String, u64>,
    solver: LatencyHistogram,
}

impl Recorder {
    pub fn new() -> Self {
        Self::default()
    }

    /// Record one completed span for `stage`.
    pub fn record_stage(&mut self, stage: Stage, us: u64) {
        let slot = &mut self.stages[stage.index()];
        slot.spans += 1;
        slot.total_us = slot.total_us.saturating_add(us);
    }

    /// Count one execution of a compiler pass.
    pub fn count_pass(&mut self, pass: &str) {
        *self.passes.entry(pass.to_string()).or_insert(0) += 1;
    }

    /// Count one fired rewrite rule, keyed `pass/rule` like the coverage map.
    pub fn count_rule(&mut self, key: &str) {
        *self.rules.entry(key.to_string()).or_insert(0) += 1;
    }

    /// Record one solver query latency, in microseconds.
    pub fn record_solver_query(&mut self, us: u64) {
        self.solver.record(us);
    }

    /// Stats for one stage.
    pub fn stage(&self, stage: Stage) -> StageStats {
        self.stages[stage.index()]
    }

    /// Per-pass execution counts, sorted by pass name.
    pub fn passes(&self) -> &BTreeMap<String, u64> {
        &self.passes
    }

    /// Per-rule fired-rewrite counts, sorted by `pass/rule` key.
    pub fn rules(&self) -> &BTreeMap<String, u64> {
        &self.rules
    }

    /// The solver-query latency histogram.
    pub fn solver(&self) -> &LatencyHistogram {
        &self.solver
    }

    /// True when nothing has been recorded.
    pub fn is_empty(&self) -> bool {
        self.stages.iter().all(|s| s.spans == 0)
            && self.passes.is_empty()
            && self.rules.is_empty()
            && self.solver.count() == 0
    }

    /// Fold another recorder into this one.  Addition everywhere, so the
    /// result is independent of merge order and grouping — the property the
    /// proptest suite pins down.
    pub fn merge(&mut self, other: &Recorder) {
        for (mine, theirs) in self.stages.iter_mut().zip(other.stages.iter()) {
            mine.spans += theirs.spans;
            mine.total_us = mine.total_us.saturating_add(theirs.total_us);
        }
        for (pass, n) in &other.passes {
            *self.passes.entry(pass.clone()).or_insert(0) += n;
        }
        for (rule, n) in &other.rules {
            *self.rules.entry(rule.clone()).or_insert(0) += n;
        }
        self.solver.merge(&other.solver);
    }

    /// The recorder as one JSON object (stages, pass/rule counters, solver
    /// tail), used for the `telemetry` block of `gauntlet-report-v1`.  Key
    /// order is fixed so the output is stable.
    pub fn to_json(&self) -> Json {
        let stages = Stage::ALL.into_iter().filter_map(|stage| {
            let stats = self.stage(stage);
            (stats.spans > 0).then(|| {
                (
                    stage.name(),
                    json::object([
                        ("spans", stats.spans.into()),
                        ("total_us", stats.total_us.into()),
                    ]),
                )
            })
        });
        json::object([
            ("stages", json::object(stages)),
            ("passes", json::counters(&self.passes)),
            ("rules", json::counters(&self.rules)),
            (
                "solver",
                json::object([
                    ("queries", self.solver.count().into()),
                    ("total_us", self.solver.total_us().into()),
                    ("p50_us", self.solver.p50_us().into()),
                    ("p90_us", self.solver.p90_us().into()),
                    ("p99_us", self.solver.p99_us().into()),
                    ("max_us", self.solver.max_us().into()),
                ]),
            ),
        ])
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn merge_sums_everything() {
        let mut a = Recorder::new();
        a.record_stage(Stage::Gen, 10);
        a.count_pass("ConstantFolding");
        a.count_rule("ConstantFolding/fold_add");
        a.record_solver_query(100);

        let mut b = Recorder::new();
        b.record_stage(Stage::Gen, 5);
        b.record_stage(Stage::Validate, 7);
        b.count_pass("ConstantFolding");
        b.count_pass("StrengthReduction");
        b.record_solver_query(200);

        let mut merged = a.clone();
        merged.merge(&b);
        assert_eq!(
            merged.stage(Stage::Gen),
            StageStats {
                spans: 2,
                total_us: 15
            }
        );
        assert_eq!(merged.stage(Stage::Validate).spans, 1);
        assert_eq!(merged.passes()["ConstantFolding"], 2);
        assert_eq!(merged.passes()["StrengthReduction"], 1);
        assert_eq!(merged.rules()["ConstantFolding/fold_add"], 1);
        assert_eq!(merged.solver().count(), 2);
    }

    #[test]
    fn empty_recorder_reports_empty() {
        assert!(Recorder::new().is_empty());
        let mut r = Recorder::new();
        r.count_pass("p");
        assert!(!r.is_empty());
    }

    #[test]
    fn json_shape_is_stable() {
        let mut r = Recorder::new();
        r.record_stage(Stage::Compile, 42);
        r.count_pass("ConstantFolding");
        r.count_rule("ConstantFolding/fold_add");
        r.record_solver_query(7);
        let parsed = r.to_json();
        assert_eq!(
            parsed
                .get("stages")
                .and_then(|s| s.get("compile"))
                .and_then(|c| c.get("spans"))
                .and_then(|n| n.as_u64()),
            Some(1)
        );
        assert_eq!(
            parsed
                .get("solver")
                .and_then(|s| s.get("queries"))
                .and_then(|n| n.as_u64()),
            Some(1)
        );
    }
}
