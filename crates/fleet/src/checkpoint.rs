//! The on-disk checkpoint: everything a restarted coordinator needs to
//! continue a campaign (`gauntlet fleet resume`) — and nothing a worker
//! restart needs, because workers are stateless by design (their whole
//! state is the shard lease, which the coordinator re-issues).
//!
//! A checkpoint carries the spec, the triage store and every completed
//! fragment, minus the fragment's run-descriptive `cache` block: those
//! counters describe the run that produced the shard, not its result.  A
//! resumed run's `run.cache` therefore covers only the shards it ran
//! itself.  Anything else `fleet status` shows (remaining shards, the
//! corpus so far) is recomputed from the fragments.  Saves are atomic
//! (write-to-temp, rename), so a coordinator killed mid-checkpoint leaves
//! the previous checkpoint intact rather than a torn file.
//!
//! Resume correctness: the final report is a pure function of the fragment
//! set (see `merge`), and the triage store's merge is order-independent, so
//! a resumed run converges on byte-identical artifacts no matter where the
//! original died (pinned by `tests/fleet.rs`).  Older checkpoints that also
//! stored the derived `shards`, `corpus` and `fingerprint` blocks and the
//! fragments' `cache` blocks still load: those keys are ignored.

use crate::merge::refilter_corpus;
use crate::spec::FleetSpec;
use crate::triage::TriageStore;
use gauntlet_telemetry::json::{self, Json};
use std::collections::BTreeMap;
use std::path::Path;

/// Schema tag of the checkpoint document.
pub const CHECKPOINT_SCHEMA: &str = "gauntlet-checkpoint-v1";

/// Why [`Checkpoint::load`] failed.  Typed so callers can distinguish "no
/// such file" from "the file is damaged" — and so `fleet status`/`fleet
/// resume` report a corrupt checkpoint as a diagnostic with a nonzero exit
/// instead of a panic.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum CheckpointError {
    /// The file could not be read (missing, permissions, I/O failure).
    Io { path: String, error: String },
    /// The bytes are not one well-formed JSON document — the signature of a
    /// checkpoint truncated by a crash or a full disk.  Atomic saves make
    /// this unreachable for checkpoints this binary wrote, but older or
    /// foreign files still arrive here.
    Truncated { path: String, error: String },
    /// Well-formed JSON that is not a valid `gauntlet-checkpoint-v1`
    /// document (wrong schema tag, missing fields, bad spec).
    Invalid { path: String, error: String },
}

impl std::fmt::Display for CheckpointError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            CheckpointError::Io { path, error } => {
                write!(f, "cannot read checkpoint {path}: {error}")
            }
            CheckpointError::Truncated { path, error } => write!(
                f,
                "checkpoint {path} is not well-formed JSON (truncated or corrupt): {error}"
            ),
            CheckpointError::Invalid { path, error } => {
                write!(
                    f,
                    "checkpoint {path} is not a valid {CHECKPOINT_SCHEMA} document: {error}"
                )
            }
        }
    }
}

impl std::error::Error for CheckpointError {}

/// `gauntlet`'s CLI plumbing threads `Result<_, String>`; the conversion
/// keeps `Checkpoint::load(...)?` working there while the typed error stays
/// available to programmatic callers.
impl From<CheckpointError> for String {
    fn from(error: CheckpointError) -> String {
        error.to_string()
    }
}

/// A saved (or loaded) campaign state.
#[derive(Debug, Clone)]
pub struct Checkpoint {
    pub spec: FleetSpec,
    /// Completed shards: fragment bodies as the workers sent them (a
    /// loaded checkpoint's fragments lack the `cache` block).
    pub fragments: BTreeMap<usize, Json>,
    pub triage: TriageStore,
    /// True once every shard has completed (the final checkpoint of a
    /// finished run).
    pub complete: bool,
}

impl Checkpoint {
    /// Shards not yet covered by a fragment, in ascending order.
    pub fn remaining_shards(&self) -> Vec<usize> {
        (0..self.spec.shard_count())
            .filter(|shard| !self.fragments.contains_key(shard))
            .collect()
    }

    /// The checkpoint document.  Fragment bodies are rendered in place
    /// rather than cloned into a tree: they are most of the bytes.
    pub fn to_json(&self) -> String {
        json::render_object(|doc| {
            doc.field("schema", &CHECKPOINT_SCHEMA.into())
                .field("complete", &self.complete.into())
                .field("spec", &self.spec.to_json())
                .field("triage", &self.triage.to_json())
                .object("fragments", |fragments| {
                    for (shard, body) in &self.fragments {
                        fragments.object(&shard.to_string(), |fragment| {
                            let fields = body.as_object().unwrap_or_default();
                            for (key, value) in fields.iter().filter(|(key, _)| key != "cache") {
                                fragment.field(key, value);
                            }
                        });
                    }
                });
        })
    }

    pub fn from_json(value: &Json) -> Result<Checkpoint, String> {
        let schema = value.str_field("schema")?;
        if schema != CHECKPOINT_SCHEMA {
            return Err(format!("not a checkpoint: schema `{schema}`"));
        }
        let mut fragments = BTreeMap::new();
        for (shard, body) in value.object_field("fragments")? {
            let shard: usize = shard
                .parse()
                .map_err(|_| format!("bad fragment shard key `{shard}`"))?;
            fragments.insert(shard, body.clone());
        }
        Ok(Checkpoint {
            spec: FleetSpec::from_json(value.field("spec")?)?,
            fragments,
            triage: TriageStore::from_json(value.field("triage")?)?,
            complete: value.bool_field("complete")?,
        })
    }

    /// Atomic save: write a sibling temp file, then rename over the target.
    pub fn save(&self, path: impl AsRef<Path>) -> Result<(), String> {
        let path = path.as_ref();
        let bytes = self.to_json();
        let tmp = path.with_extension("tmp");
        std::fs::write(&tmp, bytes).map_err(|error| format!("write {}: {error}", tmp.display()))?;
        std::fs::rename(&tmp, path)
            .map_err(|error| format!("rename to {}: {error}", path.display()))
    }

    /// Load and validate a checkpoint file.  Never panics on damaged input:
    /// every failure mode maps to a [`CheckpointError`] variant.
    pub fn load(path: impl AsRef<Path>) -> Result<Checkpoint, CheckpointError> {
        let path = path.as_ref();
        let text = std::fs::read_to_string(path).map_err(|error| CheckpointError::Io {
            path: path.display().to_string(),
            error: error.to_string(),
        })?;
        let value = json::parse(&text).map_err(|error| CheckpointError::Truncated {
            path: path.display().to_string(),
            error,
        })?;
        Checkpoint::from_json(&value).map_err(|error| CheckpointError::Invalid {
            path: path.display().to_string(),
            error,
        })
    }

    /// The `fleet status` view.
    pub fn render_status(&self) -> String {
        use std::fmt::Write;
        let mut out = String::new();
        let _ = writeln!(
            out,
            "fleet campaign: {} seed(s) from {}, {} shard(s) of {}, mode {}",
            self.spec.seed_count,
            self.spec.seed_start,
            self.spec.shard_count(),
            self.spec.shard_size,
            self.spec.mode.as_str()
        );
        let _ = writeln!(
            out,
            "compiler: {} · generator: {} · coverage: {} · mutants/seed: {}",
            self.spec.compiler.as_str(),
            self.spec.generator,
            self.spec.coverage,
            self.spec.mutants_per_seed
        );
        let remaining = self.remaining_shards();
        let _ = writeln!(
            out,
            "progress: {}/{} shard(s) done{} · remaining {:?}",
            self.fragments.len(),
            self.spec.shard_count(),
            if self.complete { " · COMPLETE" } else { "" },
            remaining
        );
        if self.spec.coverage {
            if let Ok(corpus) = refilter_corpus(&self.fragments) {
                let _ = writeln!(
                    out,
                    "corpus so far: {} entry(ies), {} distinct rule(s)",
                    corpus.len(),
                    corpus.fingerprint().len()
                );
            }
        }
        out.push_str(&self.triage.render());
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use gauntlet_core::{BugKind, BugReport, CompilerArea, Platform, Technique};

    fn sample() -> Checkpoint {
        let mut triage = TriageStore::new();
        triage.record(
            "worker-0",
            12,
            0,
            &BugReport::new(
                BugKind::Crash,
                Platform::P4c,
                CompilerArea::FrontEnd,
                Technique::RandomGeneration,
                Some("Predication".into()),
                "assertion failed".into(),
            ),
        );
        let mut fragments = BTreeMap::new();
        fragments.insert(
            0,
            json::parse("{\"result\":{\"programs_checked\":25,\"total_bugs\":1},\"corpus\":[],\"census\":[]}")
                .unwrap(),
        );
        fragments.insert(
            2,
            json::parse("{\"result\":{\"programs_checked\":25,\"total_bugs\":0},\"corpus\":[],\"census\":[]}")
                .unwrap(),
        );
        Checkpoint {
            spec: FleetSpec {
                seed_count: 100,
                shard_size: 25,
                checkpoint: Some("fleet.ckpt".into()),
                ..FleetSpec::default()
            },
            fragments,
            triage,
            complete: false,
        }
    }

    #[test]
    fn checkpoint_round_trips_through_json() {
        let checkpoint = sample();
        let bytes = checkpoint.to_json();
        let back = Checkpoint::from_json(&json::parse(&bytes).expect("parses")).expect("loads");
        assert_eq!(back.spec, checkpoint.spec);
        assert_eq!(back.fragments, checkpoint.fragments);
        assert_eq!(back.triage.to_json(), checkpoint.triage.to_json());
        assert!(!back.complete);
        assert_eq!(back.to_json(), bytes);
        // A fragment's run-descriptive cache block is not persisted.
        let mut cached = checkpoint.clone();
        if let Some(Json::Object(fields)) = cached.fragments.get_mut(&0) {
            fields.push(("cache".into(), json::object([("epochs", 1u64.into())])));
        }
        assert_eq!(cached.to_json(), bytes);
    }

    /// Seeds above 2^53 (where an `f64` starts rounding) survive every
    /// document that carries one: the spec, as the init frame a worker
    /// parses, a report outcome, and a triage representative.
    #[test]
    fn seeds_above_two_to_the_53_round_trip_exactly() {
        use crate::protocol::ToWorker;
        use gauntlet_core::{hunt_result_from_json, HuntReport, SeedOutcome};

        let seed = (1u64 << 53) + 1;
        let spec = FleetSpec {
            seed_start: seed,
            ..FleetSpec::default()
        };
        let frame = ToWorker::Init {
            spec: spec.to_json(),
        }
        .to_body();
        let ToWorker::Init { spec: value } = ToWorker::from_body(&frame).expect("frame parses")
        else {
            panic!("an init frame reads back as init");
        };
        assert_eq!(FleetSpec::from_json(&value).unwrap().seed_start, seed);

        let bug = sample().triage.entries().next().unwrap().report.clone();
        let report = HuntReport {
            outcomes: vec![SeedOutcome {
                seed,
                reports: vec![bug.clone()],
            }],
            programs_checked: 1,
            total_bugs: 1,
            elapsed: std::time::Duration::ZERO,
            per_worker: Vec::new(),
            reduction_failures: 0,
            coverage: None,
            mutation: None,
            diversity: None,
            cache: None,
            telemetry: None,
            corpus: None,
            census: None,
        };
        let back = hunt_result_from_json(&json::parse(&report.to_json()).unwrap()).unwrap();
        assert_eq!(back.outcomes[0].seed, seed);
        assert!(report.to_json().contains("\"seed\":9007199254740993"));

        let mut triage = TriageStore::new();
        triage.record("worker-0", seed, 0, &bug);
        let text = json::render(&triage.to_json());
        let back = TriageStore::from_json(&json::parse(&text).unwrap()).unwrap();
        assert_eq!(back.entries().next().unwrap().first_seed, seed);
    }

    #[test]
    fn remaining_shards_are_the_gaps() {
        assert_eq!(sample().remaining_shards(), vec![1, 3]);
    }

    #[test]
    fn save_is_atomic_and_loadable() {
        let dir = std::env::temp_dir().join(format!("gauntlet-ckpt-test-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("fleet.ckpt");
        let checkpoint = sample();
        checkpoint.save(&path).expect("saves");
        assert!(
            !path.with_extension("tmp").exists(),
            "temp file renamed away"
        );
        let back = Checkpoint::load(&path).expect("loads");
        assert_eq!(back.spec, checkpoint.spec);
        let status = back.render_status();
        assert!(status.contains("2/4 shard(s) done"));
        assert!(status.contains("remaining [1, 3]"));
        assert!(status.contains("triage: 1 distinct bug(s)"));
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn load_reports_truncated_and_corrupt_files_as_typed_errors() {
        let dir =
            std::env::temp_dir().join(format!("gauntlet-ckpt-truncated-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("fleet.ckpt");

        // A real checkpoint, truncated mid-file — the shape a crash during
        // a non-atomic write (or a torn copy) leaves behind.
        let checkpoint = sample();
        checkpoint.save(&path).expect("saves");
        let bytes = std::fs::read(&path).expect("read back");
        std::fs::write(&path, &bytes[..bytes.len() / 2]).expect("truncate");
        match Checkpoint::load(&path) {
            Err(CheckpointError::Truncated { path: reported, .. }) => {
                assert_eq!(reported, path.display().to_string());
            }
            other => panic!("expected Truncated error, got {other:?}"),
        }

        // Well-formed JSON that is not a checkpoint document.
        std::fs::write(&path, "{\"schema\":\"not-a-checkpoint\"}").unwrap();
        assert!(matches!(
            Checkpoint::load(&path),
            Err(CheckpointError::Invalid { .. })
        ));

        // Missing file.
        let missing = dir.join("nope.ckpt");
        let error = Checkpoint::load(&missing).expect_err("missing file errors");
        assert!(matches!(error, CheckpointError::Io { .. }));
        // The String conversion used by the CLI keeps the diagnostic.
        let rendered: String = error.into();
        assert!(rendered.contains("nope.ckpt"));

        let _ = std::fs::remove_dir_all(&dir);
    }
}
