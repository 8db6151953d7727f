//! The machine-readable campaign report: `gauntlet-report-v1`.
//!
//! [`HuntReport::to_json`] renders the whole report as one versioned JSON
//! document with two top-level halves:
//!
//! * `"result"` — the deterministic outcome: bugs (with attribution and
//!   reduction statistics), the aggregated table-2/3 summary, and the
//!   coverage/mutation blocks.  A pure function of the
//!   [`HuntConfig`](crate::campaign::HuntConfig):
//!   byte-identical at any `--jobs`, with or without telemetry or cache
//!   (also available alone via [`HuntReport::deterministic_json`], which
//!   the determinism tests pin).
//! * `"run"` — everything that describes the particular execution and is
//!   therefore excluded from [`HuntReport::render`]: `elapsed`, the
//!   per-worker loads, the [`CacheSummary`], and the telemetry flight
//!   recorder.
//!
//! The report's `corpus` and `census` are in neither half: the corpus has
//! its own file format (`crate::corpus`), and fleet workers ship both in
//! their fragment envelope.
//!
//! Every `render_*` table is derivable from the document: `render` needs
//! only `result.outcomes` + the coverage/mutation blocks, and
//! `render_table2`/`render_table3` need only `result.summary` — a property
//! `tests/golden_report.rs` proves by re-rendering the tables from the
//! parsed JSON alone.
//!
//! Both directions go through `gauntlet_telemetry::json`, the workspace's
//! one JSON codec: the writers build [`Json`] values with a fixed key order
//! (the layout `tests/golden_report.rs` pins byte for byte) and the readers
//! use its typed field accessors.

use crate::bugs::{BugKind, BugReport, CompilerArea, Platform, Technique};
use crate::campaign::{
    CacheSummary, CoverageSummary, DiversitySummary, HuntReport, MutationSummary, SeedOutcome,
};
use gauntlet_telemetry::json::{self, Json};
use p4_symbolic::{CacheStats, SessionStats};
use std::time::Duration;

/// Schema tag of the JSON report document.
pub const REPORT_SCHEMA: &str = "gauntlet-report-v1";

/// One [`BugReport`] in the `gauntlet-report-v1` layout.  Public because
/// the fleet's `TriageStore` persists first-seen reports in exactly this
/// form (so triage bytes match report bytes).
pub fn bug_report_json(report: &BugReport) -> Json {
    let reduction = report.reduction.as_ref().map(|stats| {
        json::object([
            ("initial_statements", stats.initial_statements.into()),
            ("final_statements", stats.final_statements.into()),
            ("initial_nodes", stats.initial_nodes.into()),
            ("final_nodes", stats.final_nodes.into()),
            ("oracle_calls", stats.oracle_calls.into()),
            ("typecheck_rejections", stats.typecheck_rejections.into()),
            ("accepted_steps", stats.accepted_steps.into()),
            ("rounds", stats.rounds.into()),
        ])
    });
    json::object([
        ("kind", format!("{:?}", report.kind).into()),
        ("platform", report.platform.to_string().into()),
        ("area", report.area.to_string().into()),
        ("technique", format!("{:?}", report.technique).into()),
        ("pass", report.pass.as_deref().into()),
        ("message", report.message.as_str().into()),
        ("attributed_to", report.attributed_to.as_deref().into()),
        ("minimized", report.minimized.as_deref().into()),
        ("reduction", reduction.into()),
    ])
}

fn coverage_json(coverage: &CoverageSummary) -> Json {
    let trajectory: Vec<Json> = coverage
        .rules_over_time
        .iter()
        .map(|&(programs, rules)| vec![programs, rules].into())
        .collect();
    json::object([
        ("fired", json::strings(&coverage.fired)),
        ("rules_total", coverage.rules_total.into()),
        ("constructs_seen", coverage.constructs_seen.into()),
        ("corpus_size", coverage.corpus_size.into()),
        ("corpus_added", coverage.corpus_added.into()),
        ("rules_over_time", trajectory.into()),
        ("pairs", json::strings(&coverage.pairs)),
        ("pairs_total", coverage.pairs_total.into()),
    ])
}

fn diversity_json(diversity: &DiversitySummary) -> Json {
    json::object([
        ("slices", diversity.slices.into()),
        ("distinct_bugs", json::counters(&diversity.distinct_bugs)),
    ])
}

fn mutation_json(mutation: &MutationSummary) -> Json {
    json::object([
        ("mutants_checked", mutation.mutants_checked.into()),
        ("divergent", mutation.divergent.into()),
        ("fired", json::strings(&mutation.fired)),
        ("rules_total", mutation.rules_total.into()),
    ])
}

/// A [`CacheSummary`] as its `gauntlet-report-v1` `run.cache` object.
/// Public because fleet fragments embed the same shape (a worker reports
/// its shard's cache counters through the frame protocol and the
/// coordinator sums them into the merged summary).
pub fn cache_json(cache: &CacheSummary) -> Json {
    let stats = &cache.stats;
    let sessions = &cache.sessions;
    json::object([
        ("epochs", cache.epochs.into()),
        (
            "stats",
            json::object([
                ("semantics_hits", stats.semantics_hits.into()),
                ("semantics_misses", stats.semantics_misses.into()),
                ("verdict_hits", stats.verdict_hits.into()),
                ("verdict_misses", stats.verdict_misses.into()),
            ]),
        ),
        (
            "sessions",
            json::object([
                ("semantics_hits", sessions.semantics_hits.into()),
                ("semantics_misses", sessions.semantics_misses.into()),
                ("trivial_checks", sessions.trivial_checks.into()),
                ("solver_checks", sessions.solver_checks.into()),
                ("cached_checks", sessions.cached_checks.into()),
                ("verdict_hits", sessions.verdict_hits.into()),
                ("verdict_misses", sessions.verdict_misses.into()),
            ]),
        ),
    ])
}

/// Parse a `run.cache`-shaped object back into a [`CacheSummary`] — the
/// inverse of [`cache_json`].  Fleet workers embed this shape in fragment
/// bodies; the coordinator parses and sums the blocks at merge time.
/// Unknown keys are ignored, so older documents that carry a since-removed
/// solver-race counter load too.
pub fn cache_summary_from_json(value: &Json) -> Result<CacheSummary, String> {
    let stats = value.field("stats")?;
    let sessions = value.field("sessions")?;
    Ok(CacheSummary {
        epochs: value.usize_field("epochs")?,
        stats: CacheStats {
            semantics_hits: stats.u64_field("semantics_hits")?,
            semantics_misses: stats.u64_field("semantics_misses")?,
            verdict_hits: stats.u64_field("verdict_hits")?,
            verdict_misses: stats.u64_field("verdict_misses")?,
        },
        sessions: SessionStats {
            semantics_hits: sessions.u64_field("semantics_hits")?,
            semantics_misses: sessions.u64_field("semantics_misses")?,
            trivial_checks: sessions.u64_field("trivial_checks")?,
            solver_checks: sessions.u64_field("solver_checks")?,
            cached_checks: sessions.u64_field("cached_checks")?,
            verdict_hits: sessions.u64_field("verdict_hits")?,
            verdict_misses: sessions.u64_field("verdict_misses")?,
        },
    })
}

/// Parse one bug report from its `gauntlet-report-v1` object form — the
/// exact inverse of [`bug_report_json`] (round-trip pinned by test).
pub fn bug_report_from_json(value: &Json) -> Result<BugReport, String> {
    let kind_name = value.str_field("kind")?;
    let kind = BugKind::from_name(kind_name).ok_or_else(|| format!("bad kind `{kind_name}`"))?;
    let platform_name = value.str_field("platform")?;
    let platform = Platform::from_display(platform_name)
        .ok_or_else(|| format!("bad platform `{platform_name}`"))?;
    let area_name = value.str_field("area")?;
    let area =
        CompilerArea::from_display(area_name).ok_or_else(|| format!("bad area `{area_name}`"))?;
    let technique_name = value.str_field("technique")?;
    let technique = Technique::from_name(technique_name)
        .ok_or_else(|| format!("bad technique `{technique_name}`"))?;
    let reduction = match value.field("reduction")? {
        Json::Null => None,
        stats => Some(p4_reduce::ReductionStats {
            initial_statements: stats.usize_field("initial_statements")?,
            final_statements: stats.usize_field("final_statements")?,
            initial_nodes: stats.usize_field("initial_nodes")?,
            final_nodes: stats.usize_field("final_nodes")?,
            oracle_calls: stats.usize_field("oracle_calls")?,
            typecheck_rejections: stats.usize_field("typecheck_rejections")?,
            accepted_steps: stats.usize_field("accepted_steps")?,
            rounds: stats.usize_field("rounds")?,
        }),
    };
    let opt_string = |key| Ok::<_, String>(value.opt_str_field(key)?.map(str::to_string));
    Ok(BugReport {
        kind,
        platform,
        area,
        technique,
        pass: opt_string("pass")?,
        message: value.str_field("message")?.to_string(),
        attributed_to: opt_string("attributed_to")?,
        minimized: opt_string("minimized")?,
        reduction,
    })
}

/// Parse the `outcomes` array of a `result` document.
pub fn outcomes_from_json(value: &Json) -> Result<Vec<SeedOutcome>, String> {
    let items = value.as_array().ok_or("`outcomes` is not an array")?;
    items
        .iter()
        .map(|outcome| {
            Ok(SeedOutcome {
                seed: outcome.u64_field("seed")?,
                reports: outcome
                    .array_field("reports")?
                    .iter()
                    .map(bug_report_from_json)
                    .collect::<Result<Vec<_>, _>>()?,
            })
        })
        .collect()
}

/// Parse a `coverage` block.
pub fn coverage_from_json(value: &Json) -> Result<CoverageSummary, String> {
    let trajectory = value
        .array_field("rules_over_time")?
        .iter()
        .map(|pair| match pair.as_array() {
            Some([programs, rules]) => Ok((
                programs.as_u64().ok_or("bad trajectory count")? as usize,
                rules.as_u64().ok_or("bad trajectory count")? as usize,
            )),
            _ => Err("trajectory entry is not a pair".to_string()),
        })
        .collect::<Result<Vec<_>, String>>()?;
    // `pairs`/`pairs_total` are absent from pre-pair-tracking documents;
    // tolerate that instead of rejecting the whole report.
    Ok(CoverageSummary {
        fired: value.str_array_field("fired")?,
        rules_total: value.usize_field("rules_total")?,
        constructs_seen: value.usize_field("constructs_seen")?,
        corpus_size: value.usize_field("corpus_size")?,
        corpus_added: value.usize_field("corpus_added")?,
        rules_over_time: trajectory,
        pairs: value.field_or_default("pairs", Json::str_array_field)?,
        pairs_total: value.field_or_default("pairs_total", Json::usize_field)?,
    })
}

/// Parse a `diversity` block.
pub fn diversity_from_json(value: &Json) -> Result<DiversitySummary, String> {
    Ok(DiversitySummary {
        slices: value.usize_field("slices")?,
        distinct_bugs: value.counters_field("distinct_bugs")?,
    })
}

/// Parse a `mutation` block.
pub fn mutation_from_json(value: &Json) -> Result<MutationSummary, String> {
    Ok(MutationSummary {
        mutants_checked: value.usize_field("mutants_checked")?,
        divergent: value.usize_field("divergent")?,
        fired: value.str_array_field("fired")?,
        rules_total: value.usize_field("rules_total")?,
    })
}

/// Reconstruct a [`HuntReport`] from the deterministic `result` half of a
/// `gauntlet-report-v1` document (either the bare [`deterministic_json`]
/// object or the `result` field of a full [`to_json`] document).
///
/// Only the deterministic fields are recovered: `elapsed` is zero,
/// `per_worker` is empty, and the run-side `cache`, `telemetry`, `corpus`
/// and `census` are `None` — which is exactly what `render`,
/// `render_table2`, and `render_table3` need.  The round trip
/// `report.deterministic_json()` → parse → `hunt_result_from_json` →
/// `.deterministic_json()` is byte-identical (pinned by test), which is the
/// property the fleet merge relies on.
///
/// [`deterministic_json`]: HuntReport::deterministic_json
/// [`to_json`]: HuntReport::to_json
pub fn hunt_result_from_json(value: &Json) -> Result<HuntReport, String> {
    let result = value.get("result").unwrap_or(value);
    let coverage = match result.field("coverage")? {
        Json::Null => None,
        block => Some(coverage_from_json(block)?),
    };
    let mutation = match result.field("mutation")? {
        Json::Null => None,
        block => Some(mutation_from_json(block)?),
    };
    // Absent from pre-diversity documents; tolerate like `coverage.pairs`.
    let diversity = result
        .opt_field("diversity")
        .map(diversity_from_json)
        .transpose()?;
    Ok(HuntReport {
        outcomes: outcomes_from_json(result.field("outcomes")?)?,
        programs_checked: result.usize_field("programs_checked")?,
        total_bugs: result.usize_field("total_bugs")?,
        elapsed: Duration::ZERO,
        per_worker: Vec::new(),
        reduction_failures: result.usize_field("reduction_failures")?,
        coverage,
        mutation,
        diversity,
        cache: None,
        telemetry: None,
        corpus: None,
        census: None,
    })
}

impl HuntReport {
    /// The deterministic half of the report as one JSON object: outcomes
    /// (with full bug reports and reduction statistics), the aggregated
    /// table summary, and the coverage/mutation blocks.  Byte-identical at
    /// any `--jobs` and with telemetry or cache on or off — the
    /// machine-readable counterpart of [`HuntReport::render`].
    pub fn result_json(&self) -> Json {
        let outcomes: Vec<Json> = self
            .outcomes
            .iter()
            .map(|outcome| {
                json::object([
                    ("seed", outcome.seed.into()),
                    (
                        "reports",
                        Json::Array(outcome.reports.iter().map(bug_report_json).collect()),
                    ),
                ])
            })
            .collect();
        let summary = self.campaign_summary();
        json::object([
            ("programs_checked", self.programs_checked.into()),
            ("seeds_with_bugs", self.outcomes.len().into()),
            ("total_bugs", self.total_bugs.into()),
            ("reduction_failures", self.reduction_failures.into()),
            ("outcomes", outcomes.into()),
            (
                "summary",
                json::object([
                    ("by_platform", json::counters(&summary.by_platform)),
                    ("by_area", json::counters(&summary.by_area)),
                    ("by_attribution", json::counters(&summary.by_attribution)),
                    ("total_detected", summary.total_detected.into()),
                ]),
            ),
            ("coverage", self.coverage.as_ref().map(coverage_json).into()),
            ("mutation", self.mutation.as_ref().map(mutation_json).into()),
            (
                "diversity",
                self.diversity.as_ref().map(diversity_json).into(),
            ),
        ])
    }

    /// [`HuntReport::result_json`], rendered.
    pub fn deterministic_json(&self) -> String {
        json::render(&self.result_json())
    }

    /// The full `gauntlet-report-v1` document: the deterministic `result`
    /// half plus the run-descriptive `run` half (elapsed, per-worker loads,
    /// cache counters, telemetry flight recorder).
    pub fn to_json(&self) -> String {
        json::render(&json::object([
            ("schema", REPORT_SCHEMA.into()),
            ("result", self.result_json()),
            (
                "run",
                json::object([
                    ("elapsed_us", (self.elapsed.as_micros() as u64).into()),
                    ("per_worker", self.per_worker.clone().into()),
                    ("cache", self.cache.as_ref().map(cache_json).into()),
                    (
                        "telemetry",
                        self.telemetry.as_ref().map(|r| r.to_json()).into(),
                    ),
                ]),
            ),
        ]))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::campaign::HuntConfig;
    use crate::campaign::ParallelCampaign;

    /// The JSON document must parse, carry the schema tag, and agree with
    /// the struct fields on the headline counts — on a real (small) hunt.
    #[test]
    fn report_json_round_trips_through_the_parser() {
        let hunt = ParallelCampaign::new(HuntConfig {
            seed_count: 4,
            epoch_cache: false,
            ..HuntConfig::default()
        })
        .run(p4c::Compiler::reference);
        let parsed = json::parse(&hunt.to_json()).expect("report JSON parses");
        assert_eq!(
            parsed.get("schema").and_then(|s| s.as_str()),
            Some(REPORT_SCHEMA)
        );
        let result = parsed.get("result").expect("result half");
        assert_eq!(
            result.get("programs_checked").and_then(|n| n.as_u64()),
            Some(hunt.programs_checked as u64)
        );
        assert_eq!(
            result.get("total_bugs").and_then(|n| n.as_u64()),
            Some(hunt.total_bugs as u64)
        );
        let run = parsed.get("run").expect("run half");
        assert_eq!(
            run.get("elapsed_us").and_then(|n| n.as_u64()),
            Some(hunt.elapsed.as_micros() as u64)
        );
        assert_eq!(run.get("cache"), Some(&json::Json::Null));
        assert_eq!(run.get("telemetry"), Some(&json::Json::Null));
        // And the result half is exactly the deterministic document.
        assert_eq!(
            json::parse(&hunt.deterministic_json()).expect("deterministic half parses"),
            *result
        );
    }

    /// `deterministic_json` → parse → `hunt_result_from_json` →
    /// `deterministic_json` must be byte-identical: the fleet merge ships
    /// report fragments as JSON and reconstructs `HuntReport`s on the far
    /// side, so the parse direction must lose nothing deterministic.
    #[test]
    fn deterministic_half_round_trips_through_the_struct() {
        let hunt = ParallelCampaign::new(HuntConfig {
            seed_count: 8,
            epoch_cache: false,
            coverage: Some(crate::campaign::CoverageOptions {
                adapt: false,
                ..Default::default()
            }),
            mutation: Some(p4_mutate::MetamorphicOptions {
                mutants_per_seed: 1,
            }),
            ..HuntConfig::default()
        })
        .run(|| {
            crate::inject::SeededBug::catalogue()
                .into_iter()
                .find(|b| b.platform() == Platform::P4c && !b.is_crash_class())
                .expect("catalogue has a P4C semantic bug")
                .build_compiler()
        });
        assert!(hunt.total_bugs > 0, "seeded hunt must find something");
        let bytes = hunt.deterministic_json();
        let parsed = json::parse(&bytes).expect("parses");
        let rebuilt = hunt_result_from_json(&parsed).expect("reconstructs");
        assert_eq!(rebuilt.deterministic_json(), bytes);
        // The full document's `result` field reconstructs identically.
        let full = json::parse(&hunt.to_json()).expect("full document parses");
        let from_full = hunt_result_from_json(&full).expect("reconstructs from full");
        assert_eq!(from_full.deterministic_json(), bytes);
        // And the rebuilt report renders the same tables.
        assert_eq!(rebuilt.render(), hunt.render());
    }
}
