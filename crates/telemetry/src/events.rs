//! Out-of-band JSONL event log.
//!
//! Every line is one JSON object tagged `"schema":"gauntlet-events-v1"` with
//! a wall-clock `ts_ms` timestamp.  The log is *explicitly excluded* from the
//! deterministic artifacts: reports and corpus bytes are identical whether or
//! not an event log is attached, and nothing in the engine ever reads one
//! back.  Timestamps and event interleaving are schedule-dependent by nature
//! — that is the point of an out-of-band channel.

use std::fs::File;
use std::io::{BufWriter, Write};
use std::path::Path;
use std::sync::Mutex;
use std::time::{SystemTime, UNIX_EPOCH};

use crate::json::{self, Json};

/// Schema tag carried by every event line.
pub const EVENTS_SCHEMA: &str = "gauntlet-events-v1";

/// Every event kind the in-tree emitters produce: the campaign engine's
/// per-run events plus the fleet coordinator's lifecycle events.  Consumers
/// (`examples/validate_events.rs`) treat kinds outside this list as a
/// *warning*, not an error — the schema is forward-compatible by
/// construction, so a newer emitter never breaks an older validator.
pub const KNOWN_EVENTS: &[&str] = &[
    // Campaign engine (`ParallelCampaign`).
    "campaign_start",
    "campaign_end",
    "seed",
    "bug",
    "epoch",
    "cache",
    // Fleet coordinator (`gauntlet-fleet`).
    "fleet_start",
    "fleet_end",
    "worker_spawn",
    "worker_exit",
    "shard_assign",
    "shard_done",
    "shard_reassign",
    "checkpoint",
];

/// Milliseconds since the Unix epoch, for event timestamps.
pub fn now_ms() -> u64 {
    SystemTime::now()
        .duration_since(UNIX_EPOCH)
        .map(|d| d.as_millis() as u64)
        .unwrap_or(0)
}

/// An append-only JSONL event sink shared across workers.  Usually a file
/// ([`EventLog::create`]); fleet workers instead hand it a framing adapter
/// over their stdout protocol channel ([`EventLog::with_sink`]).
pub struct EventLog {
    out: Mutex<BufWriter<Box<dyn Write + Send>>>,
}

impl EventLog {
    /// Create (truncate) the event file.
    pub fn create(path: impl AsRef<Path>) -> std::io::Result<EventLog> {
        let file = File::create(path)?;
        Ok(EventLog::with_sink(Box::new(file)))
    }

    /// Wrap an arbitrary writer (a pipe, a protocol framer, a test buffer).
    pub fn with_sink(sink: Box<dyn Write + Send>) -> EventLog {
        EventLog {
            out: Mutex::new(BufWriter::new(sink)),
        }
    }

    /// Append one event with its `(key, value)` fields.  Errors are
    /// swallowed: telemetry must never fail a campaign.
    pub fn emit(&self, event: &str, fields: &[(&str, Json)]) {
        if let Ok(mut out) = self.out.lock() {
            // The timestamp is taken *under* the writer lock so that write
            // order and `ts_ms` order agree: concurrent campaign threads
            // share one log, and the event validator checks per-process
            // monotonicity.
            let line = json::render_object(|line| {
                line.field("schema", &EVENTS_SCHEMA.into())
                    .field("ts_ms", &now_ms().into())
                    .field("event", &event.into());
                for (key, value) in fields {
                    line.field(key, value);
                }
            });
            let _ = out.write_all(line.as_bytes());
            let _ = out.write_all(b"\n");
            let _ = out.flush();
        }
    }

    /// Append one already-rendered JSON object as its own line.  Used by the
    /// fleet coordinator to relay worker events (which already carry their
    /// own `ts_ms`) into the merged log verbatim, plus provenance.
    pub fn emit_raw(&self, line: &str) {
        if let Ok(mut out) = self.out.lock() {
            let _ = out.write_all(line.as_bytes());
            let _ = out.write_all(b"\n");
            let _ = out.flush();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn events_are_schema_tagged_jsonl() {
        let path =
            std::env::temp_dir().join(format!("gauntlet-events-test-{}.jsonl", std::process::id()));
        let log = EventLog::create(&path).expect("create event log");
        log.emit("campaign_start", &[("seeds", 10u64.into())]);
        log.emit("bug", &[("seed", 3u64.into()), ("kind", "Semantic".into())]);
        drop(log);

        let text = std::fs::read_to_string(&path).expect("read back");
        let lines: Vec<&str> = text.lines().collect();
        assert_eq!(lines.len(), 2);
        for line in &lines {
            let parsed = json::parse(line).expect("line parses");
            assert_eq!(
                parsed.get("schema").and_then(|s| s.as_str()),
                Some(EVENTS_SCHEMA)
            );
            assert!(parsed.get("ts_ms").and_then(|t| t.as_u64()).is_some());
            assert!(parsed.get("event").and_then(|e| e.as_str()).is_some());
        }
        assert_eq!(
            json::parse(lines[1])
                .unwrap()
                .get("kind")
                .and_then(|k| k.as_str()),
            Some("Semantic")
        );
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn custom_sinks_receive_framed_and_raw_lines() {
        use std::sync::Arc;

        #[derive(Clone, Default)]
        struct Shared(Arc<Mutex<Vec<u8>>>);
        impl Write for Shared {
            fn write(&mut self, buf: &[u8]) -> std::io::Result<usize> {
                self.0.lock().unwrap().extend_from_slice(buf);
                Ok(buf.len())
            }
            fn flush(&mut self) -> std::io::Result<()> {
                Ok(())
            }
        }

        let shared = Shared::default();
        let log = EventLog::with_sink(Box::new(shared.clone()));
        log.emit("fleet_start", &[("workers", 2u64.into())]);
        log.emit_raw("{\"schema\":\"gauntlet-events-v1\",\"ts_ms\":1,\"event\":\"seed\"}");
        drop(log);

        let bytes = shared.0.lock().unwrap().clone();
        let text = String::from_utf8(bytes).expect("utf8");
        let lines: Vec<&str> = text.lines().collect();
        assert_eq!(lines.len(), 2);
        let first = json::parse(lines[0]).expect("emit line parses");
        assert_eq!(
            first.get("event").and_then(|e| e.as_str()),
            Some("fleet_start")
        );
        assert!(KNOWN_EVENTS.contains(&"fleet_start"));
        let second = json::parse(lines[1]).expect("raw line parses");
        assert_eq!(second.get("ts_ms").and_then(|t| t.as_u64()), Some(1));
    }
}
