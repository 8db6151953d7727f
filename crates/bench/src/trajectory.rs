//! The trajectory gate: compares a fresh `gauntlet-trajectory-v2` document
//! (written by the `trajectory` bench) with the one committed baseline at
//! the repository root, by three rules.
//!
//! * **(a) Exact work.**  Every counter under `work` — the pairs, memo hits
//!   and misses, trivial/solver/cached checks and verdict hits/misses of
//!   the cold, warm and cross-epoch validation runs, the mutants checked
//!   and the distinct compile pairs — is deterministic at a fixed seed
//!   count, so it must equal the baseline.  This proves directly that the
//!   warm and cross-epoch runs are served from the memo.
//! * **(b) Each side against itself.**  Every timed side is divided by a
//!   reference workload timed in the same repetition, which shares no
//!   code with the compiler or the validator, and the median of those
//!   quotients is compared only with the same side in the baseline.  A
//!   side may get faster by any amount, and slower by at most
//!   [`SLOWDOWN_TOLERANCE`].
//! * **(c) Overheads.**  Each instrumentation overhead comes from a fixed
//!   number of alternating plain and instrumented runs of one program
//!   (the medians of the two run orders, combined), and must stay below
//!   its ceiling in [`OVERHEAD_CEILINGS_PCT`].
//!
//! Rules (a) and (b) need the baseline's workload, so a run at a
//! different seed count is held to rule (c) only.

use gauntlet_telemetry::json::{self, Json};
use std::collections::BTreeMap;

/// Schema tag of the trajectory document.
pub const SCHEMA: &str = "gauntlet-trajectory-v2";

/// How much slower than the baseline a side's reference-normalised time
/// may read.  Runs of one build on a shared 2-vCPU machine spread each
/// side by about ±13% around its median, so a fresh run read up to 25%
/// above a baseline taken at the fast end of that spread.  A side 1.4× as
/// slow fails.
pub const SLOWDOWN_TOLERANCE: f64 = 0.40;

/// Ceiling on each `overhead_pct` entry: the telemetry recorder over cold
/// validation, and the coverage sink over compilation.
pub const OVERHEAD_CEILINGS_PCT: [(&str, f64); 2] = [("telemetry", 3.0), ("coverage", 5.0)];

/// The number at `path` inside `doc`.
fn number(doc: &Json, path: &[&str]) -> Option<f64> {
    path.iter()
        .try_fold(doc, |value, key| value.get(key))?
        .as_f64()
}

/// Every non-object value under `value`, keyed by its dotted path.
fn leaves(path: String, value: Option<&Json>, out: &mut BTreeMap<String, Json>) {
    match value.and_then(Json::as_object) {
        Some(fields) => {
            for (key, field) in fields {
                leaves(format!("{path}.{key}"), Some(field), out);
            }
        }
        None => {
            out.insert(path, value.cloned().unwrap_or(Json::Null));
        }
    }
}

/// Compares `current` with `baseline`; each returned line is one failure,
/// so an empty result passes.
pub fn compare(current: &Json, baseline: &Json) -> Vec<String> {
    let mut failures = Vec::new();
    for (name, doc) in [("current run", current), ("baseline", baseline)] {
        if doc.get("schema").and_then(Json::as_str) != Some(SCHEMA) {
            failures.push(format!("{name} is not a {SCHEMA} document"));
        }
    }
    if !failures.is_empty() {
        return failures;
    }

    for (name, ceiling) in OVERHEAD_CEILINGS_PCT {
        match number(current, &["overhead_pct", name]) {
            Some(pct) if pct < ceiling => {}
            Some(pct) => failures.push(format!(
                "{name} overhead {pct:.2}% is at or above its {ceiling}% ceiling"
            )),
            None => failures.push(format!("current run has no {name} overhead")),
        }
    }
    if current.get("seeds") != baseline.get("seeds") {
        return failures;
    }

    let (mut measured, mut expected) = (BTreeMap::new(), BTreeMap::new());
    leaves("work".into(), current.get("work"), &mut measured);
    leaves("work".into(), baseline.get("work"), &mut expected);
    let keys: std::collections::BTreeSet<&String> =
        measured.keys().chain(expected.keys()).collect();
    for key in keys {
        let show = |value: Option<&Json>| value.map_or("absent".into(), json::render);
        let (now, then) = (measured.get(key), expected.get(key));
        if now != then {
            failures.push(format!(
                "`{key}` drifted: measured {}, baseline {} (regenerate the baseline if intended)",
                show(now),
                show(then)
            ));
        }
    }

    let side_names = |doc: &Json| -> Vec<String> {
        let sides = doc
            .get("sides")
            .and_then(Json::as_object)
            .unwrap_or_default();
        sides.iter().map(|(name, _)| name.clone()).collect()
    };
    let sides = side_names(baseline);
    if side_names(current) != sides {
        failures.push(format!(
            "timed sides {:?} differ from the baseline's {sides:?}",
            side_names(current)
        ));
    }
    for side in &sides {
        let path = ["sides", side.as_str(), "per_reference"];
        let (Some(now), Some(then)) = (number(current, &path), number(baseline, &path)) else {
            failures.push(format!("side `{side}` has no per_reference time"));
            continue;
        };
        let limit = then * (1.0 + SLOWDOWN_TOLERANCE);
        if now > limit {
            failures.push(format!(
                "side `{side}` slowed: {now:.4} per reference > {limit:.4} (baseline {then:.4} + {:.0}%)",
                SLOWDOWN_TOLERANCE * 100.0
            ));
        }
    }
    failures
}

#[cfg(test)]
mod tests {
    use super::*;

    fn validate(solver_checks: u64) -> Json {
        json::object([
            ("pairs", 187u64.into()),
            ("solver_checks", solver_checks.into()),
            ("verdict_hits", 28u64.into()),
        ])
    }

    fn side(per_reference: f64) -> Json {
        json::object([("per_reference", Json::Number(per_reference))])
    }

    /// A synthetic document: `cold` is the cold side's normalised time.
    fn doc(seeds: u64, warm_solver_checks: u64, cold: f64, telemetry_pct: f64) -> Json {
        json::object([
            ("schema", SCHEMA.into()),
            ("seeds", seeds.into()),
            (
                "work",
                json::object([
                    ("mutants_checked", 150u64.into()),
                    ("validate_cold", validate(28)),
                    ("validate_warm", validate(warm_solver_checks)),
                ]),
            ),
            (
                "sides",
                json::object([("validate_cold", side(cold)), ("validate_warm", side(0.5))]),
            ),
            (
                "overhead_pct",
                json::object([
                    ("telemetry", Json::Number(telemetry_pct)),
                    ("coverage", Json::Number(-1.0)),
                ]),
            ),
        ])
    }

    #[test]
    fn identical_documents_pass() {
        assert_eq!(
            compare(&doc(50, 0, 4.0, 1.0), &doc(50, 0, 4.0, 1.0)),
            Vec::<String>::new()
        );
    }

    #[test]
    fn drifted_warm_solver_checks_fail() {
        let failures = compare(&doc(50, 1, 4.0, 1.0), &doc(50, 0, 4.0, 1.0));
        assert_eq!(failures.len(), 1, "{failures:?}");
        assert!(failures[0]
            .contains("`work.validate_warm.solver_checks` drifted: measured 1, baseline 0"));
    }

    #[test]
    fn a_faster_side_passes_and_a_slower_one_fails() {
        let baseline = doc(50, 0, 4.0, 1.0);
        assert!(compare(&doc(50, 0, 2.0, 1.0), &baseline).is_empty());
        let failures = compare(&doc(50, 0, 8.0, 1.0), &baseline);
        assert_eq!(failures.len(), 1, "{failures:?}");
        assert!(failures[0].starts_with("side `validate_cold` slowed: 8.0000 per reference"));
    }

    #[test]
    fn an_overhead_at_its_ceiling_fails() {
        let failures = compare(&doc(50, 0, 4.0, 3.0), &doc(50, 0, 4.0, 1.0));
        assert_eq!(
            failures,
            ["telemetry overhead 3.00% is at or above its 3% ceiling"]
        );
    }

    #[test]
    fn a_different_seed_count_applies_only_the_overhead_rule() {
        let baseline = doc(50, 0, 4.0, 1.0);
        assert!(compare(&doc(10, 5, 80.0, 1.0), &baseline).is_empty());
        let failures = compare(&doc(10, 5, 80.0, 4.0), &baseline);
        assert_eq!(
            failures,
            ["telemetry overhead 4.00% is at or above its 3% ceiling"]
        );
    }

    #[test]
    fn missing_keys_and_foreign_documents_fail() {
        let baseline = doc(50, 0, 4.0, 1.0);
        assert_eq!(compare(&Json::Null, &baseline).len(), 1);
        let mut current = doc(50, 0, 4.0, 1.0);
        if let Json::Object(fields) = &mut current {
            fields.retain(|(key, _)| key != "sides");
        }
        let failures = compare(&current, &baseline);
        assert_eq!(failures.len(), 3, "{failures:?}");
    }
}
