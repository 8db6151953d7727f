//! Untraced child phases: one chunk of a workload's seeds, run through the
//! public campaign entry points (`ParallelCampaign::run`, or
//! `gauntlet_fleet::coordinator::hunt` for `fleet-ckpt`).  Each prints one
//! JSON object as its last stdout line for the parent to read.

use crate::child::{largest_child_peak_rss_kb, self_peak_rss_kb};
use crate::stats::fnv64;
use crate::workload::Workload;
use gauntlet_core::{BugKind, CampaignCache, Corpus, HuntReport, ParallelCampaign, Platform};
use gauntlet_fleet::{FleetOptions, FleetStats};
use gauntlet_telemetry::json;
use std::path::PathBuf;
use std::sync::Arc;
use std::time::Instant;

/// Scratch directory for corpora and checkpoints, inside the benchmark's own
/// directory (ignored by git).
pub fn work_dir() -> PathBuf {
    let dir = PathBuf::from(concat!(env!("CARGO_MANIFEST_DIR"), "/work"));
    std::fs::create_dir_all(&dir).expect("create work directory");
    dir
}

fn scratch_file(tag: &str) -> String {
    let path = work_dir().join(format!("{tag}-{}", std::process::id()));
    let _ = std::fs::remove_file(&path);
    path.display().to_string()
}

/// What one campaign run produced.
pub struct ChunkOutcome {
    pub report: HuntReport,
    pub corpus: String,
    pub elapsed_s: f64,
    /// Fleet counters and the final checkpoint size (`fleet-ckpt` only).
    pub fleet: Option<(FleetStats, u64)>,
}

/// Runs `[start, start+count)` of `workload` once, untraced, at `jobs`
/// threads, validating through `cache`.  `fleet-ckpt` goes through the
/// fleet coordinator unless `in_process` is set.
pub fn run_campaign(
    workload: Workload,
    start: u64,
    count: usize,
    in_process: bool,
    jobs: usize,
    cache: Option<Arc<CampaignCache>>,
) -> ChunkOutcome {
    if workload == Workload::FleetCkpt && !in_process {
        return run_fleet(workload, start, count);
    }
    let corpus_path = matches!(workload, Workload::GuidedMutate | Workload::FleetCkpt)
        .then(|| scratch_file("corpus"));
    let mut config = workload.hunt_config(start, count, corpus_path.clone());
    config.jobs = jobs;
    let started = Instant::now();
    let report =
        ParallelCampaign::new(config).run_with_cache(move || workload.build_compiler(), cache);
    let elapsed_s = started.elapsed().as_secs_f64();
    let corpus = match &corpus_path {
        Some(path) => {
            let text = Corpus::load_or_empty(path)
                .expect("corpus written by the campaign")
                .to_text();
            let _ = std::fs::remove_file(path);
            text
        }
        None => String::new(),
    };
    ChunkOutcome {
        report,
        corpus,
        elapsed_s,
        fleet: None,
    }
}

fn run_fleet(workload: Workload, start: u64, count: usize) -> ChunkOutcome {
    let checkpoint = scratch_file("checkpoint");
    let spec = workload.fleet_spec(start, count, Some(checkpoint.clone()));
    let exe = std::env::current_exe().expect("current executable path");
    let mut options =
        FleetOptions::new(spec, vec![exe.display().to_string(), "fleet-worker".into()]);
    options.quiet = true;
    let started = Instant::now();
    let outcome =
        gauntlet_fleet::hunt(options).unwrap_or_else(|error| panic!("fleet hunt: {error}"));
    let elapsed_s = started.elapsed().as_secs_f64();
    let checkpoint_bytes = std::fs::metadata(&checkpoint).map(|m| m.len()).unwrap_or(0);
    let _ = std::fs::remove_file(&checkpoint);
    ChunkOutcome {
        report: outcome
            .report
            .expect("an uninterrupted fleet run merges a report"),
        corpus: outcome.corpus.to_text(),
        elapsed_s,
        fleet: Some((outcome.stats, checkpoint_bytes)),
    }
}

/// Fingerprint of the deterministic result: rendered report plus corpus
/// bytes.
pub fn digest(outcome: &ChunkOutcome) -> u64 {
    fnv64(
        format!(
            "{}\n--corpus--\n{}",
            outcome.report.render(),
            outcome.corpus
        )
        .as_bytes(),
    )
}

/// The `chunk` child: run, then print the facts the parent checks.
pub fn chunk_main(workload: Workload, start: u64, count: usize, in_process: bool) {
    let jobs = crate::workload::JOBS;
    let outcome = run_campaign(workload, start, count, in_process, jobs, None);
    let report = &outcome.report;
    let reports = || {
        report
            .outcomes
            .iter()
            .flat_map(|o| o.reports.iter().map(move |r| (o.seed, r)))
    };
    let findings: Vec<String> = reports()
        .map(|(seed, r)| {
            json::string(&format!(
                "seed {seed} [{:?}/{}] pass {}",
                r.kind,
                r.platform,
                r.pass.as_deref().unwrap_or("-")
            ))
        })
        .collect();
    let p4c_semantic = reports()
        .filter(|(_, r)| r.platform == Platform::P4c && matches!(r.kind, BugKind::Semantic))
        .count();
    let bmv2_attributed = reports()
        .filter(|(_, r)| r.attributed_to.as_deref() == Some("bmv2"))
        .count();
    let leases_reassigned = outcome
        .fleet
        .as_ref()
        .map(|(stats, _)| stats.leases_reassigned)
        .unwrap_or(0);
    println!(
        "{{\"programs\":{},\"elapsed_s\":{},\"rss_kb\":{},\"digest\":\"{:016x}\",\"p4c_semantic\":{},\"bmv2_attributed\":{},\"leases_reassigned\":{},\"findings\":[{}]}}",
        report.programs_checked,
        json::number(outcome.elapsed_s),
        self_peak_rss_kb() + largest_child_peak_rss_kb(),
        digest(&outcome),
        p4c_semantic,
        bmv2_attributed,
        leases_reassigned,
        findings.join(",")
    );
}

/// The `fleet-worker` child: a fleet worker process serving the coordinator
/// over stdin/stdout.
pub fn fleet_worker_main() {
    if let Err(error) = gauntlet_fleet::worker::serve() {
        eprintln!("fleet worker: {error}");
        std::process::exit(2);
    }
}
