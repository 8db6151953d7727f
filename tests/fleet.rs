//! Fleet-mode acceptance: the multi-process campaign service must be
//! *exactly* as trustworthy as the in-process engine it wraps.
//!
//! The contracts pinned here:
//!
//! 1. **Determinism** — a two-worker fleet's merged report renders
//!    byte-identical to a single-process `ParallelCampaign` over the same
//!    seed range, and the merged corpus matches byte-for-byte.
//! 2. **Crash tolerance** — killing a worker mid-epoch (after it has taken
//!    a fresh lease) reassigns the lease and still converges on the
//!    byte-identical report.
//! 3. **Checkpoint/resume** — a run stopped after its first checkpoint
//!    resumes from disk and reaches the same final report and corpus.
//! 4. **Hang tolerance** — a stalled worker is killed by the lease timeout
//!    and its shard completes elsewhere.
//!
//! All of these drive the *real* `gauntlet` binary as worker processes
//! (`CARGO_BIN_EXE_gauntlet`), not an in-process simulation.

use gauntlet_core::{cache_json, CacheSummary, Corpus, ParallelCampaign, Platform, SeededBug};
use gauntlet_fleet::{
    coordinator, refilter_corpus, Checkpoint, CompilerSpec, FleetMode, FleetOptions, FleetSpec,
    CHECKPOINT_SCHEMA,
};
use gauntlet_telemetry::json::{self, Json};
use std::path::PathBuf;
use std::time::Duration;

fn worker_command() -> Vec<String> {
    vec![
        env!("CARGO_BIN_EXE_gauntlet").to_string(),
        "fleet-worker".to_string(),
    ]
}

fn scratch(name: &str) -> PathBuf {
    std::env::temp_dir().join(format!("gauntlet-fleet-test-{}-{name}", std::process::id()))
}

/// A spec whose seeded bug is guaranteed to produce findings through the
/// open-compiler oracles (P4C platform, not crash-killed), with coverage on
/// so the corpus contract is exercised too.
fn spec(seeds: usize, shard_size: usize) -> FleetSpec {
    let bug = SeededBug::catalogue()
        .into_iter()
        .find(|bug| bug.platform() == Platform::P4c && !bug.is_crash_class())
        .expect("catalogue has an open-compiler semantic bug");
    FleetSpec {
        workers: 2,
        seed_count: seeds,
        shard_size,
        compiler: CompilerSpec::Seeded(bug.name()),
        coverage: true,
        mode: FleetMode::Deterministic,
        ..FleetSpec::default()
    }
}

/// The single-process ground truth for a spec: report plus corpus bytes.
fn baseline(spec: &FleetSpec, tag: &str) -> (String, String) {
    let corpus_path = scratch(&format!("baseline-{tag}.corpus"));
    let _ = std::fs::remove_file(&corpus_path);
    let mut config = spec.hunt_config().expect("hunt config");
    config.coverage.as_mut().expect("coverage on").corpus = Some(corpus_path.display().to_string());
    let compiler = spec.compiler.clone();
    let report = ParallelCampaign::new(config).run(move || compiler.build());
    assert!(report.total_bugs > 0, "the seeded bug must be detectable");
    let corpus = Corpus::load_or_empty(&corpus_path).expect("baseline corpus");
    let _ = std::fs::remove_file(&corpus_path);
    (report.render(), corpus.to_text())
}

#[test]
fn two_worker_fleet_matches_the_single_process_campaign_byte_for_byte() {
    let spec = spec(12, 3);
    let (expect_render, expect_corpus) = baseline(&spec, "determinism");

    let mut options = FleetOptions::new(spec.clone(), worker_command());
    options.quiet = true;
    let outcome = coordinator::hunt(options).expect("fleet hunt");
    let report = outcome.report.expect("completed run has a report");

    assert_eq!(report.render(), expect_render);
    assert_eq!(outcome.corpus.to_text(), expect_corpus);
    // The merged pair coverage is part of both artifacts: the render's
    // `interactions:` line and the corpus's `% pairs=` lines just compared
    // byte-for-byte, and the merged block must actually carry pairs.
    let coverage = report.coverage.as_ref().expect("coverage on");
    assert!(!coverage.pairs.is_empty(), "cross-pass pairs observed");
    assert!(report.diversity.is_none(), "uniform fleet has no diversity");
    assert!(!outcome.interrupted);
    assert_eq!(outcome.stats.shards_total, 4);
    assert_eq!(outcome.stats.worker_deaths, 0);
    // Triage agrees with the report: every distinct dedup key, summed.
    assert_eq!(
        outcome.triage.occurrences() as usize,
        report.total_bugs,
        "triage folds every report occurrence exactly once"
    );

    // Worker-count independence is not just 1-vs-2: a three-worker fleet
    // over the same seed range produces the same bytes again.
    let mut three = spec;
    three.workers = 3;
    let mut options = FleetOptions::new(three, worker_command());
    options.quiet = true;
    let outcome = coordinator::hunt(options).expect("three-worker fleet hunt");
    let report = outcome.report.expect("completed run has a report");
    assert_eq!(report.render(), expect_render);
    assert_eq!(outcome.corpus.to_text(), expect_corpus);
}

#[test]
fn killing_a_worker_mid_epoch_reassigns_the_lease_and_stays_deterministic() {
    let spec = spec(12, 2);
    let (expect_render, expect_corpus) = baseline(&spec, "chaos");

    let mut options = FleetOptions::new(spec, worker_command());
    options.quiet = true;
    // Kill worker 0 right after its first delivered fragment — at that
    // point it has just been handed a fresh lease, which must be recovered.
    options.chaos_kill = Some((0, 1));
    let outcome = coordinator::hunt(options).expect("fleet hunt survives the kill");
    let report = outcome.report.expect("completed run has a report");

    assert!(outcome.stats.worker_deaths >= 1, "the chaos kill happened");
    assert!(
        outcome.stats.leases_reassigned >= 1,
        "the stranded shard was reassigned"
    );
    assert_eq!(report.render(), expect_render);
    assert_eq!(outcome.corpus.to_text(), expect_corpus);
}

#[test]
fn checkpointed_runs_resume_to_the_identical_final_report() {
    let mut spec = spec(12, 3);
    let checkpoint_path = scratch("resume.ckpt");
    let _ = std::fs::remove_file(&checkpoint_path);
    spec.checkpoint = Some(checkpoint_path.display().to_string());
    let (expect_render, expect_corpus) = baseline(&spec, "resume");

    // Phase 1: stop (orderly but incomplete) after the first checkpoint.
    let mut options = FleetOptions::new(spec.clone(), worker_command());
    options.quiet = true;
    options.stop_after_checkpoints = Some(1);
    let interrupted = coordinator::hunt(options).expect("interrupted hunt");
    assert!(interrupted.interrupted);
    assert!(interrupted.report.is_none());
    assert!(interrupted.stats.checkpoints_written >= 1);

    // Phase 2: resume from disk and finish.
    let checkpoint = Checkpoint::load(&checkpoint_path).expect("checkpoint loads");
    assert!(!checkpoint.complete);
    let done = checkpoint.fragments.len();
    assert!(
        (1..4).contains(&done),
        "stopped part-way ({done} of 4 shards)"
    );
    let mut options = FleetOptions::new(spec, worker_command());
    options.quiet = true;
    let outcome = coordinator::resume(options, checkpoint).expect("fleet resume");
    let report = outcome.report.expect("resumed run completes");

    assert_eq!(report.render(), expect_render);
    assert_eq!(outcome.corpus.to_text(), expect_corpus);
    assert_eq!(
        report.total_bugs,
        outcome.triage.occurrences() as usize,
        "resume does not double-fold checkpointed fragments into triage"
    );

    // The final checkpoint on disk is complete and status-renderable.
    let last = Checkpoint::load(&checkpoint_path).expect("final checkpoint");
    assert!(last.complete);
    assert!(last.remaining_shards().is_empty());
    assert!(last.render_status().contains("COMPLETE"));
    let _ = std::fs::remove_file(&checkpoint_path);
}

/// Checkpoints once also stored the derived `shards`, `corpus` and
/// `fingerprint` blocks and every fragment's `cache` counters.  A file in
/// that layout still loads and resumes to the same final report.
#[test]
fn old_layout_checkpoints_still_resume_to_the_identical_final_report() {
    let mut spec = spec(8, 2);
    let checkpoint_path = scratch("old-layout.ckpt");
    let _ = std::fs::remove_file(&checkpoint_path);
    spec.checkpoint = Some(checkpoint_path.display().to_string());
    let (expect_render, _) = baseline(&spec, "old-layout");

    let mut options = FleetOptions::new(spec.clone(), worker_command());
    options.quiet = true;
    options.stop_after_checkpoints = Some(1);
    assert!(
        coordinator::hunt(options)
            .expect("interrupted hunt")
            .interrupted
    );

    // Rewrite the checkpoint in the old layout.
    let checkpoint = Checkpoint::load(&checkpoint_path).expect("checkpoint loads");
    assert!((1..4).contains(&checkpoint.fragments.len()));
    let corpus = refilter_corpus(&checkpoint.fragments).expect("corpus");
    let fragments = checkpoint.fragments.iter().map(|(shard, body)| {
        let mut fields = body.as_object().expect("fragment object").to_vec();
        fields.push(("cache".into(), cache_json(&CacheSummary::default())));
        (shard.to_string(), Json::Object(fields))
    });
    let old = json::object([
        ("schema", CHECKPOINT_SCHEMA.into()),
        ("complete", false.into()),
        ("spec", checkpoint.spec.to_json()),
        (
            "shards",
            json::object([
                ("total", checkpoint.spec.shard_count().into()),
                (
                    "done",
                    checkpoint
                        .fragments
                        .keys()
                        .copied()
                        .collect::<Vec<_>>()
                        .into(),
                ),
                ("remaining", checkpoint.remaining_shards().into()),
            ]),
        ),
        ("corpus", corpus.to_text().into()),
        ("fingerprint", corpus.fingerprint().into()),
        ("triage", checkpoint.triage.to_json()),
        ("fragments", json::object(fragments)),
    ]);
    std::fs::write(&checkpoint_path, json::render(&old)).expect("write old layout");

    let loaded = Checkpoint::load(&checkpoint_path).expect("old layout loads");
    assert_eq!(loaded.remaining_shards(), checkpoint.remaining_shards());
    let mut options = FleetOptions::new(spec, worker_command());
    options.quiet = true;
    let outcome = coordinator::resume(options, loaded).expect("fleet resume");
    let report = outcome.report.expect("resumed run completes");
    assert_eq!(report.render(), expect_render);
    let _ = std::fs::remove_file(&checkpoint_path);
}

/// Swarm diversity under chaos (ISSUE 10 satellite): a diverse fleet that
/// is chaos-killed, checkpointed, and resumed must converge on the same
/// merged `coverage.pairs`, diversity block, and corpus bytes as an
/// uninterrupted run of the same spec — slices are a pure function of the
/// spec, never of which worker process held a lease.
#[test]
fn diversity_pair_state_survives_chaos_kill_and_resume() {
    let mut base = spec(12, 3);
    base.workers = 3;
    base.diversity = true;

    // The uninterrupted reference run.
    let mut options = FleetOptions::new(base.clone(), worker_command());
    options.quiet = true;
    let reference = coordinator::hunt(options).expect("diverse fleet hunt");
    let reference_report = reference.report.expect("completed run has a report");
    let reference_coverage = reference_report.coverage.clone().expect("coverage on");
    let reference_diversity = reference_report
        .diversity
        .clone()
        .expect("diverse fleet reports a diversity block");
    assert_eq!(reference_diversity.slices, 3);
    assert_eq!(reference_diversity.distinct_bugs.len(), 3);
    assert!(!reference_coverage.pairs.is_empty());
    // Triage provenance is per-configuration, not per-process.
    for entry in reference.triage.entries() {
        for provenance in entry.workers.keys() {
            assert!(provenance.starts_with("slice-"), "{provenance}");
        }
    }

    // Chaos run of the same spec: kill a worker mid-epoch, stop after the
    // first checkpoint, resume from disk.
    let checkpoint_path = scratch("diversity.ckpt");
    let _ = std::fs::remove_file(&checkpoint_path);
    let mut chaos_spec = base.clone();
    chaos_spec.checkpoint = Some(checkpoint_path.display().to_string());
    let mut options = FleetOptions::new(chaos_spec.clone(), worker_command());
    options.quiet = true;
    options.chaos_kill = Some((0, 1));
    options.stop_after_checkpoints = Some(1);
    let interrupted = coordinator::hunt(options).expect("interrupted hunt");
    assert!(interrupted.interrupted);

    let checkpoint = Checkpoint::load(&checkpoint_path).expect("checkpoint loads");
    let mut options = FleetOptions::new(chaos_spec, worker_command());
    options.quiet = true;
    let resumed = coordinator::resume(options, checkpoint).expect("fleet resume");
    let resumed_report = resumed.report.expect("resumed run completes");

    assert_eq!(resumed_report.render(), reference_report.render());
    assert_eq!(
        resumed_report.coverage.as_ref().expect("coverage on").pairs,
        reference_coverage.pairs,
        "merged pair coverage must survive kill + resume byte-identically"
    );
    assert_eq!(
        resumed_report.diversity.as_ref().expect("diversity block"),
        &reference_diversity
    );
    assert_eq!(resumed.corpus.to_text(), reference.corpus.to_text());
    let _ = std::fs::remove_file(&checkpoint_path);
}

#[test]
fn a_stalled_worker_is_killed_by_the_lease_timeout_and_the_hunt_completes() {
    let spec = spec(8, 2);
    let (expect_render, _) = baseline(&spec, "stall");

    let mut options = FleetOptions::new(spec, worker_command());
    options.quiet = true;
    // Worker 1's first assignment is withheld (the worker parks); only the
    // lease timeout can recover the shard.
    options.chaos_stall = Some((1, 0));
    options.lease_timeout = Some(Duration::from_millis(300));
    let outcome = coordinator::hunt(options).expect("fleet hunt survives the stall");
    let report = outcome.report.expect("completed run has a report");

    assert!(
        outcome.stats.worker_deaths >= 1,
        "the stalled worker was killed"
    );
    assert!(outcome.stats.leases_reassigned >= 1);
    assert_eq!(report.render(), expect_render);
}

#[test]
fn merged_event_log_validates_per_process_streams() {
    let mut spec = spec(6, 3);
    spec.coverage = false;
    let events_path = scratch("events.jsonl");
    let _ = std::fs::remove_file(&events_path);

    let mut options = FleetOptions::new(spec, worker_command());
    options.quiet = true;
    options.events = Some(events_path.display().to_string());
    let outcome = coordinator::hunt(options).expect("fleet hunt");
    assert!(outcome.report.is_some());

    let text = std::fs::read_to_string(&events_path).expect("event log exists");
    let mut saw_fleet_start = false;
    let mut saw_fleet_end = false;
    let mut worker_streams = std::collections::BTreeSet::new();
    for line in text.lines() {
        let event = gauntlet_telemetry::json::parse(line).expect("every line parses");
        assert_eq!(
            event.get("schema").and_then(|s| s.as_str()),
            Some("gauntlet-events-v1")
        );
        match event.get("event").and_then(|e| e.as_str()) {
            Some("fleet_start") => saw_fleet_start = true,
            Some("fleet_end") => saw_fleet_end = true,
            _ => {}
        }
        if let Some(worker) = event.get("worker").and_then(|w| w.as_u64()) {
            worker_streams.insert(worker);
        }
    }
    assert!(saw_fleet_start && saw_fleet_end, "fleet framing present");
    assert!(
        !worker_streams.is_empty(),
        "worker events were relayed with provenance"
    );
    let _ = std::fs::remove_file(&events_path);
}

/// The in-process front door: `gauntlet hunt` prints exactly the render of
/// the `ParallelCampaign` its flags describe, refuses fleet-only flags, and
/// — like `fleet hunt` — rejects an unknown target before any work starts.
#[test]
fn gauntlet_hunt_prints_the_in_process_render_and_refuses_fleet_flags() {
    let mut spec = spec(10, 10);
    spec.coverage = false;
    spec.jobs_per_worker = 2;
    spec.reduce_reports = true;
    spec.mutants_per_seed = 1;
    spec.targets = vec!["ref-interp".into()];
    let compiler = spec.compiler.clone();
    let expected = ParallelCampaign::new(spec.hunt_config().expect("hunt config"))
        .run(move || compiler.build())
        .render();

    let gauntlet = |args: &[&str]| {
        std::process::Command::new(env!("CARGO_BIN_EXE_gauntlet"))
            .args(args)
            .output()
            .expect("gauntlet runs")
    };
    let hunt = gauntlet(&[
        "hunt",
        "--seeds",
        "10",
        "--jobs",
        "2",
        "--compiler",
        spec.compiler.as_str(),
        "--reduce",
        "--mutants",
        "1",
        "--target",
        "ref-interp",
        "--quiet",
    ]);
    assert!(hunt.status.success(), "{hunt:?}");
    assert_eq!(String::from_utf8_lossy(&hunt.stdout), expected);

    let fleet_flag = gauntlet(&["hunt", "--workers", "2"]);
    assert!(!fleet_flag.status.success());
    assert!(String::from_utf8_lossy(&fleet_flag.stderr).contains("gauntlet fleet hunt"));

    for command in [&["hunt"][..], &["fleet", "hunt", "--workers", "1"][..]] {
        let bogus =
            gauntlet(&[command, &["--target", "bogus", "--seeds", "2", "--quiet"]].concat());
        assert!(
            !bogus.status.success(),
            "{command:?} accepted a bogus target"
        );
        assert!(String::from_utf8_lossy(&bogus.stderr).contains("unknown target spec `bogus`"));
    }
}

/// A pass panic is a crash finding, not an error: a quiet hunt over a
/// crash-class bug prints its report and nothing on stderr.
#[test]
fn quiet_crash_hunt_keeps_caught_pass_panics_off_stderr() {
    let hunt = std::process::Command::new(env!("CARGO_BIN_EXE_gauntlet"))
        .args([
            "hunt",
            "--seeds",
            "40",
            "--compiler",
            "InlineCrashOnConditional",
            "--quiet",
        ])
        .output()
        .expect("gauntlet runs");
    assert!(hunt.status.success(), "{hunt:?}");
    assert!(String::from_utf8_lossy(&hunt.stdout).contains("[Crash/P4C/"));
    assert_eq!(String::from_utf8_lossy(&hunt.stderr), "");
}
