//! The deduplicating triage store: the fleet's cross-shard analogue of
//! `BugDatabase`, keyed by the existing [`BugReport::dedup_key`].
//!
//! Where `BugDatabase` deduplicates inside one campaign, the triage store
//! folds findings streamed from many worker processes over days of
//! checkpointed hunting — so it additionally tracks occurrence counts and
//! per-worker provenance, and its *first-seen* discipline is made explicit:
//! the representative report of a key is the one with the smallest
//! `(seed, index)` ever recorded, regardless of arrival order.  That makes
//! [`TriageStore::merge`] associative and commutative (counts are sums,
//! provenance maps are element-wise sums, representatives are minima), so a
//! coordinator folding fragments in any order — including a resumed
//! coordinator re-folding checkpointed state — converges on byte-identical
//! triage (pinned by the property tests in `tests/prop_triage.rs`).

use gauntlet_core::{bug_report_from_json, bug_report_json, BugReport};
use gauntlet_telemetry::json::{self, Json};
use std::collections::BTreeMap;

/// Schema tag of the serialized store.
pub const TRIAGE_SCHEMA: &str = "gauntlet-triage-v1";

/// One distinct bug.
#[derive(Debug, Clone)]
pub struct TriageEntry {
    /// [`BugReport::dedup_key`] of every occurrence.
    pub key: String,
    /// Raw occurrences recorded (first-seen plus duplicates).
    pub count: u64,
    /// Seed of the first-seen occurrence.
    pub first_seed: u64,
    /// Report index within that seed's outcome (one seed can yield several
    /// findings; the index breaks the tie deterministically).
    pub first_index: u64,
    /// The first-seen report itself.
    pub report: BugReport,
    /// Occurrences per worker provenance label (`"worker-0"`, ...).
    pub workers: BTreeMap<String, u64>,
}

/// The representative order: `(seed, index, serialized report bytes)`.
/// Comparing the serialized form (rather than arrival order) keeps the
/// choice total, which is what makes record/merge commutative (see the
/// property tests).
fn precedes(seed: u64, index: u64, report: &BugReport, entry: &TriageEntry) -> bool {
    match (seed, index).cmp(&(entry.first_seed, entry.first_index)) {
        std::cmp::Ordering::Less => true,
        std::cmp::Ordering::Greater => false,
        std::cmp::Ordering::Equal => {
            json::render(&bug_report_json(report)) < json::render(&bug_report_json(&entry.report))
        }
    }
}

/// The store: distinct bugs by dedup key.
#[derive(Debug, Clone, Default)]
pub struct TriageStore {
    entries: BTreeMap<String, TriageEntry>,
}

impl TriageStore {
    pub fn new() -> TriageStore {
        TriageStore::default()
    }

    pub fn len(&self) -> usize {
        self.entries.len()
    }

    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Total raw occurrences across all distinct bugs.
    pub fn occurrences(&self) -> u64 {
        self.entries.values().map(|entry| entry.count).sum()
    }

    pub fn entries(&self) -> impl Iterator<Item = &TriageEntry> {
        self.entries.values()
    }

    pub fn get(&self, key: &str) -> Option<&TriageEntry> {
        self.entries.get(key)
    }

    /// Record one occurrence.  The stored report is replaced only when this
    /// occurrence precedes the current representative in `(seed, index,
    /// report bytes)` order — a *total* order, so the representative is
    /// arrival-order independent even in the degenerate case of two
    /// different bodies at the same `(seed, index)` (which deterministic
    /// shard re-runs never produce, but the merge laws must not rely on
    /// that).
    pub fn record(&mut self, provenance: &str, seed: u64, index: u64, report: &BugReport) {
        let key = report.dedup_key();
        let entry = self
            .entries
            .entry(key.clone())
            .or_insert_with(|| TriageEntry {
                key,
                count: 0,
                first_seed: seed,
                first_index: index,
                report: report.clone(),
                workers: BTreeMap::new(),
            });
        entry.count += 1;
        *entry.workers.entry(provenance.to_string()).or_insert(0) += 1;
        if precedes(seed, index, report, entry) {
            entry.first_seed = seed;
            entry.first_index = index;
            entry.report = report.clone();
        }
    }

    /// Fold another store into this one.  Counts and provenance add;
    /// representatives take the `(seed, index)` minimum.
    pub fn merge(&mut self, other: &TriageStore) {
        for incoming in other.entries.values() {
            match self.entries.get_mut(&incoming.key) {
                None => {
                    self.entries.insert(incoming.key.clone(), incoming.clone());
                }
                Some(entry) => {
                    entry.count += incoming.count;
                    for (worker, count) in &incoming.workers {
                        *entry.workers.entry(worker.clone()).or_insert(0) += count;
                    }
                    if precedes(
                        incoming.first_seed,
                        incoming.first_index,
                        &incoming.report,
                        entry,
                    ) {
                        entry.first_seed = incoming.first_seed;
                        entry.first_index = incoming.first_index;
                        entry.report = incoming.report.clone();
                    }
                }
            }
        }
    }

    /// The store as one `gauntlet-triage-v1` document.  Entries are in key
    /// order and reports use the `gauntlet-report-v1` layout, so equal
    /// stores serialize byte-identically.
    pub fn to_json(&self) -> Json {
        let bugs: Vec<Json> = self
            .entries
            .values()
            .map(|entry| {
                json::object([
                    ("key", entry.key.as_str().into()),
                    ("count", entry.count.into()),
                    ("first_seed", entry.first_seed.into()),
                    ("first_index", entry.first_index.into()),
                    ("workers", json::counters(&entry.workers)),
                    ("report", bug_report_json(&entry.report)),
                ])
            })
            .collect();
        json::object([
            ("schema", TRIAGE_SCHEMA.into()),
            ("distinct", self.len().into()),
            ("occurrences", self.occurrences().into()),
            ("bugs", bugs.into()),
        ])
    }

    pub fn from_json(value: &Json) -> Result<TriageStore, String> {
        let schema = value.str_field("schema")?;
        if schema != TRIAGE_SCHEMA {
            return Err(format!("not a triage store: schema `{schema}`"));
        }
        let mut store = TriageStore::new();
        for bug in value.array_field("bugs")? {
            let key = bug.str_field("key")?.to_string();
            let entry = TriageEntry {
                key: key.clone(),
                count: bug.u64_field("count")?,
                first_seed: bug.u64_field("first_seed")?,
                first_index: bug.u64_field("first_index")?,
                report: bug_report_from_json(bug.field("report")?)?,
                workers: bug.counters_field("workers")?,
            };
            store.entries.insert(key, entry);
        }
        Ok(store)
    }

    /// Human-readable summary, one line per distinct bug.
    pub fn render(&self) -> String {
        use std::fmt::Write;
        let mut out = format!(
            "triage: {} distinct bug(s), {} occurrence(s)\n",
            self.len(),
            self.occurrences()
        );
        for entry in self.entries.values() {
            let _ = writeln!(
                out,
                "  [{}x] seed {} · {:?} · {} · {}",
                entry.count,
                entry.first_seed,
                entry.report.kind,
                entry.report.platform,
                entry.report.message.lines().next().unwrap_or("")
            );
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use gauntlet_core::{BugKind, CompilerArea, Platform, Technique};

    fn report(message: &str) -> BugReport {
        BugReport::new(
            BugKind::Semantic,
            Platform::P4c,
            CompilerArea::MidEnd,
            Technique::TranslationValidation,
            Some("SimplifyDefUse".into()),
            message.into(),
        )
    }

    #[test]
    fn first_seen_wins_regardless_of_arrival_order() {
        let early = report("mismatch\nearly detail");
        let late = report("mismatch\nlate detail");
        // Same dedup key (same first message line), different bodies.
        assert_eq!(early.dedup_key(), late.dedup_key());

        let mut forward = TriageStore::new();
        forward.record("worker-0", 3, 0, &early);
        forward.record("worker-1", 9, 0, &late);
        let mut backward = TriageStore::new();
        backward.record("worker-1", 9, 0, &late);
        backward.record("worker-0", 3, 0, &early);
        assert_eq!(forward.to_json(), backward.to_json());
        assert_eq!(
            forward.get(&early.dedup_key()).unwrap().report.message,
            early.message
        );
        assert_eq!(forward.occurrences(), 2);
        assert_eq!(forward.len(), 1);
    }

    #[test]
    fn merge_sums_counts_and_provenance() {
        let bug = report("mismatch");
        let mut a = TriageStore::new();
        a.record("worker-0", 5, 0, &bug);
        a.record("worker-0", 7, 1, &bug);
        let mut b = TriageStore::new();
        b.record("worker-1", 2, 0, &bug);

        let mut ab = a.clone();
        ab.merge(&b);
        let mut ba = b.clone();
        ba.merge(&a);
        assert_eq!(ab.to_json(), ba.to_json());
        let entry = ab.get(&bug.dedup_key()).unwrap();
        assert_eq!(entry.count, 3);
        assert_eq!(entry.first_seed, 2);
        assert_eq!(entry.workers["worker-0"], 2);
        assert_eq!(entry.workers["worker-1"], 1);
    }

    #[test]
    fn store_round_trips_through_json() {
        let mut store = TriageStore::new();
        store.record("worker-0", 11, 0, &report("assert failed: \"quoted\""));
        store.record("worker-1", 4, 2, &report("other bug"));
        store.record("worker-1", 11, 0, &report("assert failed: \"quoted\""));
        let bytes = json::render(&store.to_json());
        let parsed = json::parse(&bytes).expect("triage JSON parses");
        let back = TriageStore::from_json(&parsed).expect("reconstructs");
        assert_eq!(json::render(&back.to_json()), bytes);
        assert_eq!(back.len(), 2);
        assert_eq!(back.occurrences(), 3);
    }

    #[test]
    fn render_lists_each_distinct_bug_once() {
        let mut store = TriageStore::new();
        store.record("worker-0", 1, 0, &report("first"));
        store.record("worker-0", 2, 0, &report("first"));
        store.record("worker-0", 3, 0, &report("second"));
        let text = store.render();
        assert!(text.starts_with("triage: 2 distinct bug(s), 3 occurrence(s)"));
        assert_eq!(text.matches("first").count(), 1);
        assert!(text.contains("[2x] seed 1"));
    }
}
