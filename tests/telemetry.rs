//! End-to-end tests of the telemetry flight recorder's hard invariant:
//! telemetry is strictly observation-only.  The deterministic artifacts —
//! the rendered report, the `gauntlet-report-v1` `result` half, and the
//! persisted corpus bytes — must be byte-identical with telemetry on or
//! off, at any `--jobs`.  The JSONL event log itself must be well-formed:
//! every line parses, carries the schema tag, and the campaign is framed by
//! `campaign_start`/`campaign_end` events.

use gauntlet_core::{CoverageOptions, HuntConfig, HuntReport, ParallelCampaign, TelemetryOptions};
use gauntlet_telemetry::{json, EventLog, Stage, EVENTS_SCHEMA};
use p4_gen::GeneratorConfig;
use std::path::PathBuf;
use std::sync::Arc;

mod common;
use common::full_acceptance;

fn budget() -> usize {
    if full_acceptance() {
        40
    } else {
        12
    }
}

/// A scratch path unique to this test process.
fn scratch(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("gauntlet-telemetry-{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("scratch dir");
    dir.join(name)
}

/// One coverage-guided hunt (coverage exercises the corpus writer, the
/// feedback loop, and the epoch cache at once) with telemetry on or off.
fn hunt(jobs: usize, telemetry: Option<TelemetryOptions>, corpus: &PathBuf) -> HuntReport {
    let _ = std::fs::remove_file(corpus);
    ParallelCampaign::new(HuntConfig {
        jobs,
        seed_start: 0,
        seed_count: budget(),
        generator: GeneratorConfig::tiny(),
        coverage: Some(CoverageOptions {
            corpus: Some(corpus.display().to_string()),
            ..CoverageOptions::default()
        }),
        telemetry,
        ..HuntConfig::default()
    })
    .run(p4c::Compiler::reference)
}

/// Telemetry options with the heartbeat silenced (tests must not spam
/// stderr) and, optionally, an event log.
fn quiet_telemetry(events: Option<String>) -> TelemetryOptions {
    TelemetryOptions {
        events: events.map(|path| Arc::new(EventLog::create(path).expect("event log opens"))),
        progress: false,
    }
}

/// The determinism matrix: telemetry {off, on} x jobs {1, 4} — all four
/// cells must produce byte-identical rendered reports, byte-identical
/// deterministic JSON, and byte-identical corpus files.
#[test]
fn deterministic_artifacts_are_identical_across_the_telemetry_matrix() {
    let mut cells = Vec::new();
    for (label, jobs, telemetry) in [
        ("off-jobs1", 1, None),
        ("off-jobs4", 4, None),
        ("on-jobs1", 1, Some(quiet_telemetry(None))),
        ("on-jobs4", 4, Some(quiet_telemetry(None))),
    ] {
        let corpus = scratch(&format!("corpus-{label}.txt"));
        let report = hunt(jobs, telemetry, &corpus);
        let corpus_bytes = std::fs::read(&corpus).expect("corpus written");
        cells.push((label, report, corpus_bytes));
    }
    let (_, baseline, baseline_corpus) = &cells[0];
    for (label, report, corpus_bytes) in &cells[1..] {
        assert_eq!(
            report.render(),
            baseline.render(),
            "rendered report differs in cell {label}"
        );
        assert_eq!(
            report.deterministic_json(),
            baseline.deterministic_json(),
            "deterministic JSON differs in cell {label}"
        );
        assert_eq!(
            corpus_bytes, baseline_corpus,
            "corpus bytes differ in cell {label}"
        );
    }
    // The run halves differ by construction (telemetry present or not).
    assert!(baseline.telemetry.is_none());
    assert!(cells[2].1.telemetry.is_some());
}

/// The flight recorder aggregated at the epoch barrier must be
/// schedule-independent: identical counters (spans, per-pass, per-rule,
/// solver-query count) at `--jobs 1` and `--jobs 4`.  Only the *timings*
/// may differ between runs.
#[test]
fn recorder_counters_are_schedule_independent() {
    let sequential = hunt(1, Some(quiet_telemetry(None)), &scratch("counters-1.txt"));
    let parallel = hunt(4, Some(quiet_telemetry(None)), &scratch("counters-4.txt"));
    let one = sequential.telemetry.expect("recorder present");
    let four = parallel.telemetry.expect("recorder present");
    for stage in Stage::ALL {
        assert_eq!(
            one.stage(stage).spans,
            four.stage(stage).spans,
            "span count for {} differs across --jobs",
            stage.name()
        );
    }
    assert_eq!(one.passes(), four.passes(), "per-pass counters differ");
    assert_eq!(one.rules(), four.rules(), "per-rule counters differ");
    assert_eq!(
        one.solver().count(),
        four.solver().count(),
        "solver query count differs"
    );
}

/// The event log is well-formed JSONL: every line parses on its own,
/// carries the `gauntlet-events-v1` schema tag and a timestamp, and the
/// stream is framed by `campaign_start` and `campaign_end`.
#[test]
fn event_log_is_well_formed_and_schema_tagged() {
    let events_path = scratch("events.jsonl");
    let _ = std::fs::remove_file(&events_path);
    let report = hunt(
        2,
        Some(quiet_telemetry(Some(events_path.display().to_string()))),
        &scratch("corpus-events.txt"),
    );
    let text = std::fs::read_to_string(&events_path).expect("event log written");
    let lines: Vec<&str> = text.lines().collect();
    assert!(!lines.is_empty(), "event log is empty");
    let mut names = Vec::new();
    for (index, line) in lines.iter().enumerate() {
        let event =
            json::parse(line).unwrap_or_else(|e| panic!("line {} unparsable: {e}", index + 1));
        assert_eq!(
            event.get("schema").and_then(|s| s.as_str()),
            Some(EVENTS_SCHEMA),
            "line {} lacks the schema tag",
            index + 1
        );
        assert!(
            event.get("ts_ms").and_then(|t| t.as_u64()).is_some(),
            "line {} lacks ts_ms",
            index + 1
        );
        names.push(
            event
                .get("event")
                .and_then(|e| e.as_str())
                .expect("event name")
                .to_string(),
        );
    }
    assert_eq!(names.first().map(String::as_str), Some("campaign_start"));
    assert_eq!(names.last().map(String::as_str), Some("campaign_end"));
    // One seed event per committed seed, in seed order.
    let seeds = names.iter().filter(|n| *n == "seed").count();
    assert_eq!(seeds, report.programs_checked);
}
