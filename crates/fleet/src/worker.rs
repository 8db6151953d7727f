//! The worker process: a shard executor behind the frame protocol.
//!
//! `gauntlet fleet-worker` calls [`serve`], which speaks frames on
//! stdin/stdout: `init` delivers the [`FleetSpec`], each `assign` runs one
//! shard through the ordinary in-process [`ParallelCampaign`] and answers
//! with a `fragment` frame, and `shutdown` exits.  Campaign events stream
//! out as `event` frames *while the shard runs* (the coordinator's live
//! status and crash forensics depend on that), via an [`EventLog`] sink
//! that reframes each JSONL line onto stdout.
//!
//! A worker holds two things: its current lease and a warm
//! [`CampaignCache`].  It writes nothing to disk.  The fragment is built
//! from the shard's [`HuntReport`](gauntlet_core::HuntReport), which
//! carries the corpus and construct census the campaign accumulated, so a
//! shard's results leave only through its fragment frame.  That is the
//! crash-tolerance story: the coordinator recovers from a dead worker by
//! re-assigning the shard, with no worker-side journal, partial-shard
//! resume or scratch files to clean up.  The cache only memoises, so a
//! re-run is byte-identical however warm it is.  Shards are small (the
//! lease granularity) precisely so that re-running one is cheap.

use crate::merge::fragment_body;
use crate::protocol::{read_frame, write_frame, FromWorker, ToWorker};
use crate::spec::FleetSpec;
use gauntlet_core::{CampaignCache, ParallelCampaign, TelemetryOptions};
use gauntlet_telemetry::json::{self, Json};
use gauntlet_telemetry::EventLog;
use std::io::Write;
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
    config.telemetry = Some(TelemetryOptions {
        events: Some(Arc::new(EventLog::with_sink(Box::new(
            EventFrameWriter::default(),
        )))),
        progress: false,
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
    let compiler = spec.compiler.clone();
    let report =
        ParallelCampaign::new(config).run_with_cache(move || compiler.build(), Some(cache.clone()));
    Ok(fragment_body(&report))
}

/// The worker main loop.  Returns an error string for protocol violations
/// (which the binary surfaces on stderr and exits nonzero); a closed stdin
/// is an orderly exit, mirroring coordinator death.
pub fn serve() -> Result<(), String> {
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
    use gauntlet_core::{Corpus, SeededBug};
    use std::collections::BTreeMap;

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
    fn event_frame_writer_reframes_lines_even_split_across_writes() {
        let mut writer = EventFrameWriter::default();
        // Split one JSONL line across writes; no frame until the newline.
        writer.write_all(b"{\"event\":\"seed\",").unwrap();
        assert!(!writer.buffer.is_empty());
        writer.write_all(b"\"seed\":7}\n").unwrap();
        assert!(writer.buffer.is_empty(), "complete line was drained");
    }
}
