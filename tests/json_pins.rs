//! Byte pins for every JSON document kind the campaign writes: the fleet
//! spec, each coordinator and worker frame, fragment bodies, the triage
//! store, the checkpoint file, the telemetry recorder summary, and event
//! lines.  Each document is pinned as one FNV-1a fingerprint of its exact
//! bytes, so any change to key order, number formatting or escaping shows
//! up here, whichever module produced it.
//!
//! Wall-clock and process-identity values (`ts_ms`, `elapsed_ms`,
//! `elapsed_us`, `pid`) and the scratch checkpoint path are masked before
//! fingerprinting; everything else is a pure function of the inputs.

use gauntlet_core::{BugKind, BugReport, CompilerArea, Platform, SeededBug, Technique};
use gauntlet_fleet::protocol::{FromWorker, ToWorker};
use gauntlet_fleet::{
    coordinator, Checkpoint, CompilerSpec, FleetMode, FleetOptions, FleetSpec, TriageStore,
};
use gauntlet_telemetry::json::{self, Json};
use gauntlet_telemetry::{Recorder, Stage};

/// FNV-1a (64-bit) over `bytes`, as 16 hex digits.
fn fnv1a(bytes: &str) -> String {
    let hash = bytes.bytes().fold(0xcbf2_9ce4_8422_2325u64, |hash, byte| {
        (hash ^ u64::from(byte)).wrapping_mul(0x0000_0100_0000_01b3)
    });
    format!("{hash:016x}")
}

/// The rendered bytes of a document, whether its writer hands back text or
/// a [`Json`] value.
trait Bytes {
    fn bytes(&self) -> String;
}

impl Bytes for String {
    fn bytes(&self) -> String {
        self.clone()
    }
}

impl Bytes for Json {
    fn bytes(&self) -> String {
        json::render(self)
    }
}

/// Replace the digits after every `"key":` with `0`.
fn mask(text: &str, key: &str) -> String {
    let needle = format!("\"{key}\":");
    let mut out = String::with_capacity(text.len());
    let mut rest = text;
    while let Some(at) = rest.find(&needle) {
        let value_start = at + needle.len();
        out.push_str(&rest[..value_start]);
        out.push('0');
        rest = rest[value_start..].trim_start_matches(|c: char| c.is_ascii_digit());
    }
    out.push_str(rest);
    out
}

/// Check every `(name, bytes)` against its pinned fingerprint, reporting all
/// mismatches at once.
fn check(pins: &[(&str, String)], expected: &[(&str, &str)]) {
    let actual: Vec<(&str, String)> = pins
        .iter()
        .map(|(name, bytes)| (*name, fnv1a(bytes)))
        .collect();
    let wanted: Vec<(&str, String)> = expected
        .iter()
        .map(|(name, hash)| (*name, hash.to_string()))
        .collect();
    if actual != wanted {
        let mut diagnostic = String::new();
        for (name, bytes) in pins {
            diagnostic.push_str(&format!("{name} {}:\n{bytes}\n\n", fnv1a(bytes)));
        }
        panic!("JSON bytes changed: {actual:?}\n\n{diagnostic}");
    }
}

fn spec() -> FleetSpec {
    FleetSpec {
        workers: 3,
        jobs_per_worker: 2,
        seed_start: 1_000_000_007,
        seed_count: 90,
        shard_size: 15,
        compiler: CompilerSpec::Seeded("DropPredicateBlocks".into()),
        generator: "default".into(),
        mode: FleetMode::Throughput,
        coverage: true,
        corpus: Some("out/corpus \"quoted\".txt".into()),
        diversity: true,
        mutants_per_seed: 2,
        reduce_reports: true,
        targets: vec!["bmv2".into(), "ref-interp".into()],
        checkpoint: None,
        checkpoint_every: 4,
    }
}

fn triage() -> TriageStore {
    let mut reduced = BugReport::new(
        BugKind::Semantic,
        Platform::P4c,
        CompilerArea::MidEnd,
        Technique::TranslationValidation,
        Some("SimplifyDefUse".into()),
        "mismatch \"hdr.h.a\"\n\tcounterexample: a = 0x1f \u{2192} 0x00 \\ done".into(),
    );
    reduced.attributed_to = Some("bmv2".into());
    reduced.minimized = Some("control c() {\n    apply { }\n}\n".into());
    reduced.reduction = Some(p4_reduce::ReductionStats {
        initial_statements: 40,
        final_statements: 3,
        initial_nodes: 212,
        final_nodes: 17,
        oracle_calls: 61,
        typecheck_rejections: 9,
        accepted_steps: 12,
        rounds: 2,
    });
    let crash = BugReport::new(
        BugKind::Crash,
        Platform::Tofino,
        CompilerArea::BackEnd,
        Technique::RandomGeneration,
        None,
        "assertion failed\u{1}".into(),
    );
    let mut store = TriageStore::new();
    store.record("worker-1", 11, 0, &reduced);
    store.record("worker-0", 4, 2, &crash);
    store.record("worker-0", 9, 1, &reduced);
    store
}

fn recorder() -> Recorder {
    let mut recorder = Recorder::new();
    recorder.record_stage(Stage::Compile, 42);
    recorder.record_stage(Stage::Validate, 7_000_123);
    recorder.record_stage(Stage::Validate, 5);
    recorder.count_pass("ConstantFolding");
    recorder.count_pass("ConstantFolding");
    recorder.count_pass("Predication");
    recorder.count_rule("ConstantFolding/fold_add");
    recorder.record_solver_query(3);
    recorder.record_solver_query(150);
    recorder.record_solver_query(2_600_000);
    recorder
}

#[test]
fn in_memory_documents_keep_their_bytes() {
    let spec = spec();
    let spec_value = json::parse(&spec.to_json().bytes()).expect("spec parses");
    let event = json::parse(
        "{\"schema\":\"gauntlet-events-v1\",\"ts_ms\":1700000000000,\"event\":\"bug\",\"seed\":7,\"kind\":\"Semantic\",\"pass\":null}",
    )
    .expect("event parses");
    let fragment = json::parse(
        "{\"result\":{\"programs_checked\":2,\"outcomes\":[]},\"corpus\":[{\"seed\":3,\"rules\":[\"p/a\"],\"pairs\":[],\"source\":\"control c() { }\\n\"}],\"census\":[\"control/decl\"]}",
    )
    .expect("fragment parses");
    let pins = [
        ("spec", spec.to_json().bytes()),
        (
            "to_worker_init",
            ToWorker::Init { spec: spec_value }.to_body(),
        ),
        (
            "to_worker_assign",
            ToWorker::Assign {
                shard: 5,
                offset: 75,
                count: 15,
            }
            .to_body(),
        ),
        ("to_worker_stall", ToWorker::Stall.to_body()),
        ("to_worker_shutdown", ToWorker::Shutdown.to_body()),
        (
            "from_worker_hello",
            FromWorker::Hello { pid: 4242 }.to_body(),
        ),
        (
            "from_worker_event",
            FromWorker::Event { payload: event }.to_body(),
        ),
        (
            "from_worker_fragment",
            FromWorker::Fragment {
                shard: 2,
                body: fragment,
            }
            .to_body(),
        ),
        ("triage", triage().to_json().bytes()),
        ("recorder", recorder().to_json().bytes()),
        ("recorder_empty", Recorder::new().to_json().bytes()),
    ];
    check(
        &pins,
        &[
            ("spec", "aef690e251c9d82c"),
            ("to_worker_init", "02dfa3e6ecfc0b99"),
            ("to_worker_assign", "7b43a3a25b426755"),
            ("to_worker_stall", "c623169c69cbb30d"),
            ("to_worker_shutdown", "6f69c2b65c81caad"),
            ("from_worker_hello", "4a8575258df66c02"),
            ("from_worker_event", "9a6df61afdb40194"),
            ("from_worker_fragment", "a3d896d42396d553"),
            ("triage", "0660b633dd242da7"),
            ("recorder", "5f8435f622b609d4"),
            ("recorder_empty", "726d588482fd2a20"),
        ],
    );
}

fn worker_command() -> Vec<String> {
    vec![
        env!("CARGO_BIN_EXE_gauntlet").to_string(),
        "fleet-worker".to_string(),
    ]
}

/// A small coverage-on, one-worker, swarm-diversity deterministic fleet
/// hunt against a seeded compiler: the checkpoint file, one fragment body
/// as the checkpoint stores it (without the worker's run-descriptive
/// `cache` block; also as a worker frame), the merged report document and
/// the merged event log.
#[test]
fn fleet_documents_keep_their_bytes() {
    let dir = std::env::temp_dir().join(format!("gauntlet-json-pins-{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("scratch dir");
    let checkpoint_path = dir.join("fleet.ckpt").display().to_string();
    let events_path = dir.join("events.jsonl").display().to_string();
    let bug = SeededBug::catalogue()
        .into_iter()
        .find(|bug| bug.platform() == Platform::P4c && !bug.is_crash_class())
        .expect("catalogue has an open-compiler semantic bug");
    let spec = FleetSpec {
        workers: 1,
        seed_count: 8,
        shard_size: 4,
        compiler: CompilerSpec::Seeded(bug.name()),
        coverage: true,
        diversity: true,
        checkpoint: Some(checkpoint_path.clone()),
        ..FleetSpec::default()
    };
    let mut options = FleetOptions::new(spec, worker_command());
    options.quiet = true;
    options.events = Some(events_path.clone());
    let outcome = coordinator::hunt(options).expect("fleet hunt completes");
    let report = outcome.report.expect("complete run has a report");
    assert!(report.total_bugs > 0, "the seeded bug must fire");

    let unpath = |text: String| text.replace(&checkpoint_path, "<checkpoint>");
    let checkpoint_bytes = std::fs::read_to_string(&checkpoint_path).expect("checkpoint");
    let checkpoint = Checkpoint::load(&checkpoint_path).expect("checkpoint loads");
    let fragment = checkpoint.fragments[&0].clone();
    let events = std::fs::read_to_string(&events_path).expect("event log");
    let events = ["ts_ms", "elapsed_ms", "pid"]
        .iter()
        .fold(events, |text, key| mask(&text, key));
    let _ = std::fs::remove_dir_all(&dir);

    let pins = [
        ("checkpoint", unpath(checkpoint_bytes)),
        ("fragment", fragment.bytes()),
        (
            "fragment_frame",
            FromWorker::Fragment {
                shard: 0,
                body: fragment,
            }
            .to_body(),
        ),
        ("report", mask(&report.to_json(), "elapsed_us")),
        ("triage", outcome.triage.to_json().bytes()),
        ("events", unpath(events)),
    ];
    check(
        &pins,
        &[
            ("checkpoint", "1f99a293d124d77c"),
            ("fragment", "f9b5a6f764df93a8"),
            ("fragment_frame", "440a7137b934a742"),
            ("report", "6c95113cf43ac377"),
            ("triage", "78520221baf2a246"),
            ("events", "b8832c78b33d21e8"),
        ],
    );
}
