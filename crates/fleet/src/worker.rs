//! The worker process: a stateless shard executor behind the frame
//! protocol.
//!
//! `gauntlet fleet-worker` calls [`serve`], which speaks frames on
//! stdin/stdout: `init` delivers the [`FleetSpec`], each `assign` runs one
//! shard through the ordinary in-process [`ParallelCampaign`] and answers
//! with a `fragment` frame, and `shutdown` exits.  Campaign events stream
//! out as `event` frames *while the shard runs* (the coordinator's live
//! status and crash forensics depend on that), via an [`EventLog`] sink
//! that reframes each JSONL line onto stdout.
//!
//! Statelessness is the crash-tolerance story: a worker owns nothing but
//! its current lease, so the coordinator recovers from a dead worker by
//! re-assigning the shard — no worker-side journal, no partial-shard
//! resume.  Shards are small (the lease granularity) precisely so that
//! re-running one is cheap.

use crate::merge::fragment_body;
use crate::protocol::{read_frame, write_frame, FromWorker, ToWorker};
use crate::spec::FleetSpec;
use gauntlet_core::{CampaignCache, Corpus, ParallelCampaign, TelemetryOptions};
use gauntlet_telemetry::json::{self, Json};
use gauntlet_telemetry::EventLog;
use p4_gen::RandomProgramGenerator;
use p4_ir::ConstructCensus;
use std::collections::BTreeSet;
use std::io::Write;
use std::path::PathBuf;
use std::sync::Arc;

/// An [`EventLog`] sink that turns each complete JSONL line into one
/// `event` frame on stdout.  Every frame is a single `write_all` and
/// `Stdout` serializes writers internally, so event frames never interleave
/// with the fragment frame the main thread writes at shard end.
#[derive(Default)]
struct EventFrameWriter {
    buffer: Vec<u8>,
}

impl Write for EventFrameWriter {
    fn write(&mut self, buf: &[u8]) -> std::io::Result<usize> {
        self.buffer.extend_from_slice(buf);
        while let Some(newline) = self.buffer.iter().position(|&byte| byte == b'\n') {
            let line: Vec<u8> = self.buffer.drain(..=newline).collect();
            let line = String::from_utf8(line).map_err(|error| {
                std::io::Error::new(std::io::ErrorKind::InvalidData, error.to_string())
            })?;
            let line = line.trim_end();
            if line.is_empty() {
                continue;
            }
            let payload = json::parse(line)
                .map_err(|error| std::io::Error::new(std::io::ErrorKind::InvalidData, error))?;
            write_frame(
                &mut std::io::stdout(),
                &FromWorker::Event { payload }.to_body(),
            )?;
        }
        Ok(buf.len())
    }

    fn flush(&mut self) -> std::io::Result<()> {
        std::io::stdout().flush()
    }
}

/// This worker process's scratch directory.  Everything a worker writes to
/// disk lives under one per-pid directory so that (a) concurrent workers
/// never collide and (b) a crashed worker's leftovers are identifiable —
/// [`sweep_stale_worker_dirs`] removes directories whose owning pid is
/// gone.
fn worker_temp_dir() -> PathBuf {
    std::env::temp_dir().join(format!("gauntlet-fleet-worker-{}", std::process::id()))
}

/// The worker's scratch corpus path for one shard.  Campaigns persist their
/// corpus through a file path, so the worker lends each shard a throwaway
/// file in its scratch directory and reads the admitted candidates back out
/// of it.  The file is removed when the shard completes (success or error);
/// anything a crash leaves behind falls to the startup sweep.
fn shard_corpus_path(shard: usize) -> PathBuf {
    worker_temp_dir().join(format!("shard-{shard}.corpus"))
}

#[cfg(target_os = "linux")]
fn process_is_alive(pid: u32) -> bool {
    std::path::Path::new("/proc").join(pid.to_string()).exists()
}

/// Without procfs there is no cheap liveness probe; keep stale directories
/// rather than risk deleting a live worker's scratch space.
#[cfg(not(target_os = "linux"))]
fn process_is_alive(_pid: u32) -> bool {
    true
}

/// Remove scratch directories abandoned by dead workers.  Runs once at
/// worker startup: each `gauntlet-fleet-worker-<pid>` directory in the temp
/// dir whose pid no longer exists is swept away.  Best-effort — a sweep
/// failure never blocks the worker.
fn sweep_stale_worker_dirs() {
    let Ok(entries) = std::fs::read_dir(std::env::temp_dir()) else {
        return;
    };
    for entry in entries.flatten() {
        let name = entry.file_name();
        let Some(pid_text) = name
            .to_str()
            .and_then(|name| name.strip_prefix("gauntlet-fleet-worker-"))
        else {
            continue;
        };
        let Ok(pid) = pid_text.parse::<u32>() else {
            continue;
        };
        if pid == std::process::id() || process_is_alive(pid) {
            continue;
        }
        let _ = std::fs::remove_dir_all(entry.path());
    }
}

/// Run one shard through the worker-lifetime `cache` and build its fragment
/// body.  The cache outlives shard assignments (it is created once per
/// worker process in [`serve`]): interned identifiers and memoised verdicts
/// accumulated on one shard stay warm for the next, while the deterministic
/// half of every fragment remains byte-identical to a cold run — the same
/// guarantee `ParallelCampaign` gives across epochs.
fn run_shard(
    spec: &FleetSpec,
    shard: usize,
    offset: u64,
    count: usize,
    cache: &Arc<CampaignCache>,
) -> Result<Json, String> {
    let mut config = spec
        .hunt_config()
        .map_err(|error| format!("shard {shard}: {error}"))?
        .shard(offset, count);
    let corpus_path = spec.coverage.then(|| shard_corpus_path(shard));
    if let (Some(path), Some(coverage)) = (&corpus_path, config.coverage.as_mut()) {
        if let Some(parent) = path.parent() {
            std::fs::create_dir_all(parent)
                .map_err(|error| format!("shard {shard} scratch dir: {error}"))?;
        }
        // Start cold: a stale file from a previous lease of this shard
        // would be replayed into the campaign.
        let _ = std::fs::remove_file(path);
        coverage.corpus = Some(path.display().to_string());
    }
    config.telemetry = Some(TelemetryOptions {
        events: None,
        sink: Some(Arc::new(EventLog::with_sink(Box::new(
            EventFrameWriter::default(),
        )))),
        progress: false,
        heartbeat_every: usize::MAX,
    });
    if spec.diversity {
        // Swarm diversity: perturb this shard's generator towards the
        // slice's partition of the pair universe.  The slice is a pure
        // function of the spec (`shard % workers`), never of which worker
        // process happens to hold the lease — so chaos re-assignment and
        // `fleet resume` rebuild the exact same generator per shard.
        let slice = shard % spec.workers.max(1);
        let focus: Vec<String> = p4c::coverage::all_pair_keys()
            .into_iter()
            .enumerate()
            .filter(|(index, _)| index % spec.workers.max(1) == slice)
            .map(|(_, key)| key)
            .collect();
        config.generator = p4_gen::WeightAdapter::default().diversify(
            &config.generator,
            slice,
            spec.workers.max(1),
            &focus,
        );
    }
    let generator = config.generator.clone();
    let compiler = spec.compiler.clone();
    let report =
        ParallelCampaign::new(config).run_with_cache(move || compiler.build(), Some(cache.clone()));
    let body = match &corpus_path {
        None => fragment_body(report.result_json(), None, report.cache.as_ref()),
        Some(path) => {
            // Read the admitted candidates back, dropping the scratch file
            // whether or not the read succeeds — a completed shard leaves
            // nothing behind.
            let loaded = Corpus::load_or_empty(path);
            let _ = std::fs::remove_file(path);
            let corpus = loaded.map_err(|error| format!("shard {shard} corpus: {error}"))?;
            // The shard's construct-census keys.  The census is a pure
            // function of the generated programs, which are a pure function
            // of (generator config, seed) — so regenerating here observes
            // exactly what the campaign observed, without widening the
            // deterministic report schema.
            let mut census: BTreeSet<String> = BTreeSet::new();
            for index in 0..count {
                let seed = spec.seed_start + offset + index as u64;
                let program = RandomProgramGenerator::new(generator.clone(), seed).generate();
                census.extend(
                    ConstructCensus::of(&program)
                        .iter()
                        .map(|(key, _)| key.to_string()),
                );
            }
            let census: Vec<String> = census.into_iter().collect();
            fragment_body(
                report.result_json(),
                Some((&corpus, &census)),
                report.cache.as_ref(),
            )
        }
    };
    Ok(body)
}

/// The worker main loop.  Returns an error string for protocol violations
/// (which the binary surfaces on stderr and exits nonzero); a closed stdin
/// is an orderly exit, mirroring coordinator death.
pub fn serve() -> Result<(), String> {
    sweep_stale_worker_dirs();
    let stdout = std::io::stdout();
    write_frame(
        &mut stdout.lock(),
        &FromWorker::Hello {
            pid: std::process::id() as u64,
        }
        .to_body(),
    )
    .map_err(|error| format!("hello: {error}"))?;

    // The worker-lifetime cache: one campaign cache shared by every shard
    // this process is ever assigned.  Interned identifiers and memoised
    // semantics/verdicts stay warm across assignments; each shard's
    // fragment reports the counters it contributed.
    let cache = Arc::new(CampaignCache::new());

    let stdin = std::io::stdin();
    let mut input = stdin.lock();
    let mut spec: Option<FleetSpec> = None;
    loop {
        let frame = match read_frame(&mut input) {
            Ok(Some(frame)) => frame,
            // Coordinator gone (cleanly or not): exit quietly.
            Ok(None) => return Ok(()),
            Err(error) if error.kind() == std::io::ErrorKind::UnexpectedEof => return Ok(()),
            Err(error) => return Err(format!("reading frame: {error}")),
        };
        match ToWorker::from_body(&frame)? {
            ToWorker::Init { spec: value } => {
                let parsed = FleetSpec::from_json(&value)?;
                parsed.validate()?;
                spec = Some(parsed);
            }
            ToWorker::Assign {
                shard,
                offset,
                count,
            } => {
                let spec = spec.as_ref().ok_or("assign before init")?;
                let body = run_shard(spec, shard, offset, count, &cache)?;
                write_frame(
                    &mut stdout.lock(),
                    &FromWorker::Fragment { shard, body }.to_body(),
                )
                .map_err(|error| format!("fragment: {error}"))?;
            }
            ToWorker::Stall => loop {
                // Chaos hook: emulate a wedged worker until killed.
                std::thread::sleep(std::time::Duration::from_secs(3600));
            },
            ToWorker::Shutdown => return Ok(()),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::merge;
    use crate::spec::FleetMode;
    use gauntlet_core::SeededBug;
    use std::collections::BTreeMap;

    /// Tests below share this process's scratch dir (same pid, overlapping
    /// shard numbers), so they must not run concurrently.
    static SCRATCH: std::sync::Mutex<()> = std::sync::Mutex::new(());

    fn seeded_spec() -> FleetSpec {
        // A compiler guaranteed to produce detections on the open-compiler
        // oracles (no crash-killed pipeline, P4C platform).
        let bug = SeededBug::catalogue()
            .into_iter()
            .find(|bug| bug.platform() == gauntlet_core::Platform::P4c && !bug.is_crash_class())
            .expect("catalogue has an open-compiler semantic bug");
        FleetSpec {
            seed_count: 12,
            shard_size: 4,
            compiler: crate::spec::CompilerSpec::Seeded(bug.name()),
            coverage: true,
            mode: FleetMode::Deterministic,
            ..FleetSpec::default()
        }
    }

    #[test]
    fn shard_fragments_merge_to_the_single_process_report() {
        let _scratch = SCRATCH
            .lock()
            .unwrap_or_else(|poisoned| poisoned.into_inner());
        let spec = seeded_spec();
        // One worker-lifetime cache across every shard, as `serve` runs.
        let cache = Arc::new(CampaignCache::new());
        let mut fragments = BTreeMap::new();
        for shard in 0..spec.shard_count() {
            let (offset, count) = spec.shard_range(shard);
            let body = run_shard(&spec, shard, offset, count, &cache).expect("shard runs");
            let text = json::render(&body);
            fragments.insert(shard, json::parse(&text).expect("fragment parses"));
        }
        let (merged, corpus) = merge::merge(&spec, &fragments, &[]).expect("merges");

        // The single-process baseline over the whole range, with its own
        // scratch corpus file.
        let baseline_path = std::env::temp_dir().join(format!(
            "gauntlet-fleet-baseline-{}.corpus",
            std::process::id()
        ));
        let _ = std::fs::remove_file(&baseline_path);
        let mut config = spec.hunt_config().expect("config");
        config.coverage.as_mut().expect("coverage on").corpus =
            Some(baseline_path.display().to_string());
        let compiler = spec.compiler.clone();
        let baseline = ParallelCampaign::new(config).run(move || compiler.build());
        let baseline_corpus = Corpus::load_or_empty(&baseline_path).expect("baseline corpus");
        let _ = std::fs::remove_file(&baseline_path);

        assert!(baseline.total_bugs > 0, "seeded bug must be detected");
        assert_eq!(merged.deterministic_json(), baseline.deterministic_json());
        assert_eq!(merged.render(), baseline.render());
        assert_eq!(corpus.to_text(), baseline_corpus.to_text());
        // Every fragment carried its cache counters; the merge summed them.
        let merged_cache = merged.cache.expect("fragments carry cache counters");
        assert_eq!(merged_cache.epochs, spec.shard_count());
        assert!(merged_cache.stats.semantics_misses > 0);
    }

    #[test]
    fn worker_lifetime_cache_keeps_reruns_byte_identical() {
        // A worker's cache survives shard assignments; re-assigning the
        // same shards to the same (now warm) worker must reproduce the
        // deterministic result and corpus bytes exactly, while the warm
        // pass actually hits the memo.
        let _scratch = SCRATCH
            .lock()
            .unwrap_or_else(|poisoned| poisoned.into_inner());
        let spec = seeded_spec();
        let cache = Arc::new(CampaignCache::new());
        let run_all = |cache: &Arc<CampaignCache>| {
            let mut fragments = BTreeMap::new();
            for shard in 0..spec.shard_count() {
                let (offset, count) = spec.shard_range(shard);
                let body = run_shard(&spec, shard, offset, count, cache).expect("shard runs");
                let text = json::render(&body);
                fragments.insert(shard, json::parse(&text).expect("fragment parses"));
            }
            merge::merge(&spec, &fragments, &[]).expect("merges")
        };
        let (cold, cold_corpus) = run_all(&cache);
        let (warm, warm_corpus) = run_all(&cache);
        assert_eq!(cold.deterministic_json(), warm.deterministic_json());
        assert_eq!(cold_corpus.to_text(), warm_corpus.to_text());
        let warm_cache = warm.cache.expect("warm pass reports cache counters");
        assert!(
            warm_cache.stats.semantics_hits > 0,
            "re-assigned seeds must be served from the worker-lifetime cache"
        );
    }

    #[test]
    #[cfg(target_os = "linux")]
    fn startup_sweep_removes_only_dead_workers_scratch_dirs() {
        // A scratch dir owned by a pid that no longer exists is swept;
        // this live process's own dir survives.
        let _scratch = SCRATCH
            .lock()
            .unwrap_or_else(|poisoned| poisoned.into_inner());
        let dead = std::env::temp_dir().join("gauntlet-fleet-worker-4294967294");
        std::fs::create_dir_all(dead.join("nested")).expect("create stale dir");
        std::fs::write(dead.join("shard-0.corpus"), b"stale").expect("stale file");
        let live = worker_temp_dir();
        std::fs::create_dir_all(&live).expect("create live dir");
        sweep_stale_worker_dirs();
        assert!(!dead.exists(), "dead worker's scratch dir is swept");
        assert!(live.exists(), "live worker's scratch dir survives");
        let _ = std::fs::remove_dir_all(live);
    }

    #[test]
    fn event_frame_writer_reframes_lines_even_split_across_writes() {
        let mut writer = EventFrameWriter::default();
        // Split one JSONL line across writes; no frame until the newline.
        writer.write_all(b"{\"event\":\"seed\",").unwrap();
        assert!(!writer.buffer.is_empty());
        writer.write_all(b"\"seed\":7}\n").unwrap();
        assert!(writer.buffer.is_empty(), "complete line was drained");
    }
}
