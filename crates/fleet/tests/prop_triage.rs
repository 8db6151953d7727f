//! Property tests for the triage-store merge laws the coordinator relies
//! on: folding fragment findings in *any* order — original run, chaos-kill
//! reassignments, checkpointed resume — must converge on byte-identical
//! triage JSON.  That requires merge to be associative and commutative
//! (counts and provenance sum, representatives take `(seed, index)`
//! minima) and `record` to be arrival-order independent.

use gauntlet_core::{BugKind, BugReport, CompilerArea, Platform, Technique};
use gauntlet_fleet::TriageStore;
use proptest::prelude::*;

/// Deterministically expand a compact seed into a batch of recorded
/// occurrences.  A small message pool forces dedup-key collisions (the
/// interesting case); distinct bodies behind equal first lines exercise the
/// first-seen representative choice.
fn store_from(seed: u64) -> TriageStore {
    let mut store = TriageStore::new();
    let mut state = seed | 1;
    let mut next = || {
        state = state
            .wrapping_mul(6364136223846793005)
            .wrapping_add(1442695040888963407);
        state
    };
    for _ in 0..(seed % 11) + 1 {
        let roll = next();
        let kind = [BugKind::Crash, BugKind::Semantic, BugKind::Rejection][(roll % 3) as usize];
        let platform = [Platform::P4c, Platform::Bmv2][((roll >> 2) % 2) as usize];
        let first_line = ["mismatch", "assert failed", "timeout"][((roll >> 4) % 3) as usize];
        let report = BugReport::new(
            kind,
            platform,
            CompilerArea::MidEnd,
            Technique::TranslationValidation,
            Some("SimplifyDefUse".into()),
            format!("{first_line}\nbody variant {}", (roll >> 8) % 4),
        );
        let worker = format!("worker-{}", (roll >> 16) % 3);
        store.record(&worker, (roll >> 24) % 50, (roll >> 32) % 2, &report);
    }
    store
}

fn merged(base: &TriageStore, others: &[&TriageStore]) -> TriageStore {
    let mut out = base.clone();
    for other in others {
        out.merge(other);
    }
    out
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 64, ..ProptestConfig::default() })]

    /// merge(a, b) == merge(b, a), byte-for-byte.
    #[test]
    fn merge_is_commutative(a in any::<u64>(), b in any::<u64>()) {
        let (sa, sb) = (store_from(a), store_from(b));
        prop_assert_eq!(merged(&sa, &[&sb]).to_json(), merged(&sb, &[&sa]).to_json());
    }

    /// (a ⊕ b) ⊕ c == a ⊕ (b ⊕ c).
    #[test]
    fn merge_is_associative(a in any::<u64>(), b in any::<u64>(), c in any::<u64>()) {
        let (sa, sb, sc) = (store_from(a), store_from(b), store_from(c));
        let left = merged(&merged(&sa, &[&sb]), &[&sc]);
        let right = merged(&sa, &[&merged(&sb, &[&sc])]);
        prop_assert_eq!(left.to_json(), right.to_json());
    }

    /// Merging the empty store is the identity.
    #[test]
    fn empty_store_is_the_identity(a in any::<u64>()) {
        let store = store_from(a);
        let empty = TriageStore::new();
        prop_assert_eq!(merged(&store, &[&empty]).to_json(), store.to_json());
        prop_assert_eq!(merged(&empty, &[&store]).to_json(), store.to_json());
    }

    /// Occurrence totals are preserved by merge (nothing dropped, nothing
    /// double-counted) and the distinct count is bounded by both inputs.
    #[test]
    fn merge_conserves_occurrences(a in any::<u64>(), b in any::<u64>()) {
        let (sa, sb) = (store_from(a), store_from(b));
        let both = merged(&sa, &[&sb]);
        prop_assert_eq!(both.occurrences(), sa.occurrences() + sb.occurrences());
        prop_assert!(both.len() <= sa.len() + sb.len());
        prop_assert!(both.len() >= sa.len().max(sb.len()));
    }

    /// The first-seen representative survives any interleaving: a single
    /// store fed occurrences in seed-shuffled order serializes identically.
    #[test]
    fn record_order_is_immaterial(a in any::<u64>(), b in any::<u64>()) {
        let (sa, sb) = (store_from(a), store_from(b));
        // a-then-b versus b-then-a through record-level merge.
        prop_assert_eq!(merged(&sa, &[&sb]).to_json(), merged(&sb, &[&sa]).to_json());
        // And a JSON round trip changes nothing.
        let combined = merged(&sa, &[&sb]);
        let text = gauntlet_telemetry::json::render(&combined.to_json());
        let parsed = gauntlet_telemetry::json::parse(&text).unwrap();
        prop_assert_eq!(TriageStore::from_json(&parsed).unwrap().to_json(), combined.to_json());
    }
}
