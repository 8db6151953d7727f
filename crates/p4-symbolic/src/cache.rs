//! Campaign-lifetime validation cache, shared across a campaign's worker
//! pool and across its epochs.
//!
//! A [`crate::ValidationSession`] memoises semantics and reuses its solver
//! only *within* one session.  Campaign hunts, however, validate hundreds of
//! generated programs whose structurally-shared prefixes (the generator
//! draws from a fixed header/metadata namespace) re-derive the same terms
//! and re-decide the same per-block queries seed after seed — and epoch
//! after epoch.  A [`CampaignCache`] lifts the two memoisation layers out of
//! the session so every worker in the pool shares them for the duration of
//! the whole campaign:
//!
//! * **term manager** — one hash-consing [`TermManager`], so structurally
//!   identical subterms built by any worker collapse to a single node and
//!   per-block equivalence queries of duplicate shape collapse to a single
//!   term id;
//! * **semantics memo** — each distinct program (by structural hash, with
//!   collision detection by equality) is symbolically interpreted once, no
//!   matter which worker gets there first;
//! * **verdict memo** — each distinct per-block equivalence query (by
//!   hash-consed term id) is decided once.  `Unsat` verdicts are stored
//!   as-is; `Sat` verdicts store the *canonical* model (re-derived from the
//!   query term alone by a fresh solver, see [`crate::equivalence`]), so the
//!   cached counterexample is a pure function of the query structure and
//!   reports stay byte-identical no matter which worker populated the cache
//!   or in which order.
//!
//! # Bounded growth across epochs
//!
//! Living for the whole campaign (PR 9; previously the cache was rebuilt
//! every epoch, throwing the warm memos away at each adaptation round)
//! requires bounding two things:
//!
//! * **memo entries** — every entry is stamped with the *generation* (epoch
//!   index) of its last hit.  [`CampaignCache::epoch_barrier`], called
//!   between epochs while no session is live, sweeps each memo that exceeds
//!   its [`CacheBudget`] entry budget by evicting whole least-recently-hit
//!   generations (never splitting a generation, so eviction is a pure
//!   function of lookup history, which is schedule-independent);
//! * **the hash-cons term table** — memo eviction alone cannot shrink it
//!   (the manager retains every distinct term ever built), so when the
//!   number of programs *interpreted* since the last reset exceeds the
//!   budget, the barrier swaps in a fresh manager and clears **both** memos:
//!   term ids restart after a swap, so id-keyed verdicts would collide, and
//!   semantics entries hold `TermRef`s from the retired manager.
//!
//! The trigger for both is insertion/lookup history — never
//! [`TermManager::term_count`], which is schedule-dependent through the
//! fresh-variable counter — so cache contents at each barrier are identical
//! at any `--jobs`, keeping reports byte-identical.  The name
//! [`p4_ir::Interner`] survives resets: symbols interned in epoch 1 stay
//! valid for the whole campaign, which is what makes the swap cheap.
//!
//! Counters are exact under contention: a *miss* is counted only by the
//! thread that actually inserts the entry, so `misses` equals the number of
//! distinct programs/queries (schedule-independent) and `hits` equals
//! `lookups - misses`.  Racing losers — workers that interpreted or solved
//! concurrently but lost the insert — count their lookup as a hit, because
//! the cache did serve the canonical entry they return.

use crate::equivalence::SessionStats;
use crate::interpreter::{interpret_program, InterpError, ProgramSemantics};
use p4_ir::{Interner, Program};
use smt::{Model, TermManager};
use std::collections::hash_map::DefaultHasher;
use std::collections::HashMap;
use std::hash::{Hash, Hasher};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};

/// Exact usage counters for a [`CampaignCache`], aggregated across every
/// worker that shares it.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CacheStats {
    /// Semantics lookups served from the memo.
    pub semantics_hits: u64,
    /// Distinct programs interpreted (miss counted at insert).
    pub semantics_misses: u64,
    /// Per-block equivalence queries served from the verdict memo.
    pub verdict_hits: u64,
    /// Distinct queries decided by a solver (miss counted at insert).
    pub verdict_misses: u64,
}

impl CacheStats {
    /// Total semantics lookups (hits + misses always reconcile by
    /// construction; exposed for the reconciliation tests).
    pub fn semantics_lookups(&self) -> u64 {
        self.semantics_hits + self.semantics_misses
    }

    /// Total verdict-memo lookups.
    pub fn verdict_lookups(&self) -> u64 {
        self.verdict_hits + self.verdict_misses
    }

    /// Counter-wise difference (`self - earlier`): the activity between two
    /// snapshots of a long-lived cache.  Campaigns sharing a worker-lifetime
    /// cache across runs report per-run stats as a delta.
    pub fn since(&self, earlier: &CacheStats) -> CacheStats {
        CacheStats {
            semantics_hits: self.semantics_hits - earlier.semantics_hits,
            semantics_misses: self.semantics_misses - earlier.semantics_misses,
            verdict_hits: self.verdict_hits - earlier.verdict_hits,
            verdict_misses: self.verdict_misses - earlier.verdict_misses,
        }
    }
}

/// Counter-wise sum: the inverse of [`CacheStats::since`], used to total
/// per-run deltas (fleet fragments, epochs) into one figure.
impl std::ops::AddAssign for CacheStats {
    fn add_assign(&mut self, other: CacheStats) {
        self.semantics_hits += other.semantics_hits;
        self.semantics_misses += other.semantics_misses;
        self.verdict_hits += other.verdict_hits;
        self.verdict_misses += other.verdict_misses;
    }
}

/// Counter-wise sum of two sessions' tallies (the pool-wide figure a
/// campaign reports is the sum over every session it ran).
impl std::ops::AddAssign for SessionStats {
    fn add_assign(&mut self, other: SessionStats) {
        self.semantics_hits += other.semantics_hits;
        self.semantics_misses += other.semantics_misses;
        self.trivial_checks += other.trivial_checks;
        self.solver_checks += other.solver_checks;
        self.cached_checks += other.cached_checks;
        self.verdict_hits += other.verdict_hits;
        self.verdict_misses += other.verdict_misses;
    }
}

/// Growth bounds enforced at each [`CampaignCache::epoch_barrier`].  The
/// defaults are deliberately generous — far above what the committed bench
/// workloads touch — because eviction is a memory-safety valve, not a
/// tuning knob; campaigns that never exceed a budget behave exactly as if
/// the cache were unbounded.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CacheBudget {
    /// Maximum retained semantics-memo entries after a barrier sweep.
    pub max_semantics_entries: usize,
    /// Maximum retained verdict-memo entries after a barrier sweep.
    pub max_verdict_entries: usize,
    /// Programs interpreted (semantics-memo inserts) between full resets of
    /// the term manager.  Memo eviction cannot shrink the hash-cons table,
    /// so this is the bound on term-table growth.
    pub max_interpretations_between_resets: u64,
}

impl Default for CacheBudget {
    fn default() -> CacheBudget {
        CacheBudget {
            max_semantics_entries: 1 << 14,
            max_verdict_entries: 1 << 18,
            max_interpretations_between_resets: 1 << 16,
        }
    }
}

/// A cached per-block query verdict: `None` is UNSAT (the outputs cannot
/// differ), `Some(model)` is the canonical distinguishing model.
type Verdict = Option<Model>;

#[derive(Debug)]
struct SemanticsEntry {
    /// The hashed program, kept so a hash collision is detected by equality
    /// instead of silently returning the wrong semantics.
    program: Program,
    semantics: Arc<ProgramSemantics>,
    /// Generation (epoch index) of the last hit; insert counts as a hit.
    last_hit: u64,
}

#[derive(Debug)]
struct VerdictEntry {
    verdict: Verdict,
    last_hit: u64,
}

/// Shared, campaign-lifetime validation state (see the module docs).
#[derive(Debug)]
pub struct CampaignCache {
    /// Campaign-scoped name interner; survives manager resets.
    interner: Arc<Interner>,
    /// The current hash-consing manager, swappable at a barrier reset.
    tm: Mutex<Arc<TermManager>>,
    semantics: Mutex<HashMap<u64, SemanticsEntry>>,
    verdicts: Mutex<HashMap<u64, VerdictEntry>>,
    budget: CacheBudget,
    /// Current generation; bumped by each barrier.
    generation: AtomicU64,
    /// Semantics-memo inserts since the last manager reset.
    inserts_since_reset: AtomicU64,
    semantics_hits: AtomicU64,
    semantics_misses: AtomicU64,
    verdict_hits: AtomicU64,
    verdict_misses: AtomicU64,
    evicted_entries: AtomicU64,
    manager_resets: AtomicU64,
}

impl Default for CampaignCache {
    fn default() -> CampaignCache {
        CampaignCache::with_budget(CacheBudget::default())
    }
}

impl CampaignCache {
    pub fn new() -> CampaignCache {
        CampaignCache::default()
    }

    pub fn with_budget(budget: CacheBudget) -> CampaignCache {
        let interner = Arc::new(Interner::new());
        CampaignCache {
            tm: Mutex::new(Arc::new(TermManager::with_interner(interner.clone()))),
            interner,
            semantics: Mutex::default(),
            verdicts: Mutex::default(),
            budget,
            generation: AtomicU64::new(0),
            inserts_since_reset: AtomicU64::new(0),
            semantics_hits: AtomicU64::new(0),
            semantics_misses: AtomicU64::new(0),
            verdict_hits: AtomicU64::new(0),
            verdict_misses: AtomicU64::new(0),
            evicted_entries: AtomicU64::new(0),
            manager_resets: AtomicU64::new(0),
        }
    }

    /// The shared hash-consing term manager.  Every session attached to
    /// this cache interprets programs through it, so equal subterms share
    /// ids across the whole pool.  Returned by clone because a barrier
    /// reset may swap in a fresh manager — sessions hold the `Arc` they
    /// fetched for their lifetime (sessions never straddle a barrier).
    pub fn term_manager(&self) -> Arc<TermManager> {
        self.tm.lock().expect("term manager slot poisoned").clone()
    }

    /// The campaign-scoped name interner (stable across manager resets).
    pub fn interner(&self) -> &Arc<Interner> {
        &self.interner
    }

    /// An exact snapshot of the usage counters.
    pub fn stats(&self) -> CacheStats {
        CacheStats {
            semantics_hits: self.semantics_hits.load(Ordering::Relaxed),
            semantics_misses: self.semantics_misses.load(Ordering::Relaxed),
            verdict_hits: self.verdict_hits.load(Ordering::Relaxed),
            verdict_misses: self.verdict_misses.load(Ordering::Relaxed),
        }
    }

    /// Memo entries evicted by barrier sweeps so far (telemetry only).
    pub fn evicted_entries(&self) -> u64 {
        self.evicted_entries.load(Ordering::Relaxed)
    }

    /// Term-manager resets performed by barriers so far (telemetry only).
    pub fn manager_resets(&self) -> u64 {
        self.manager_resets.load(Ordering::Relaxed)
    }

    /// The epoch boundary: bounds growth, then opens the next generation.
    ///
    /// Must be called while no session is live (campaigns call it at the
    /// epoch join, after the worker scope ends), because a reset swaps the
    /// term manager out from under `term_manager()` callers.  The sweep and
    /// the reset trigger are pure functions of lookup/insert history, so at
    /// any `--jobs` the cache enters the next epoch with identical contents.
    pub fn epoch_barrier(&self) {
        if self.inserts_since_reset.load(Ordering::Relaxed)
            >= self.budget.max_interpretations_between_resets
        {
            // Full reset: a fresh manager restarts term ids, so id-keyed
            // verdicts and semantics entries holding old-manager TermRefs
            // must both go.  The interner (and thus symbol identity)
            // survives.
            *self.tm.lock().expect("term manager slot poisoned") =
                Arc::new(TermManager::with_interner(self.interner.clone()));
            let dropped = {
                let mut semantics = self.semantics.lock().expect("semantics memo lock poisoned");
                let mut verdicts = self.verdicts.lock().expect("verdict memo lock poisoned");
                let dropped = semantics.len() + verdicts.len();
                semantics.clear();
                verdicts.clear();
                dropped
            };
            self.evicted_entries
                .fetch_add(dropped as u64, Ordering::Relaxed);
            self.inserts_since_reset.store(0, Ordering::Relaxed);
            self.manager_resets.fetch_add(1, Ordering::Relaxed);
        } else {
            let swept = sweep(
                &mut self.semantics.lock().expect("semantics memo lock poisoned"),
                self.budget.max_semantics_entries,
                |entry| entry.last_hit,
            ) + sweep(
                &mut self.verdicts.lock().expect("verdict memo lock poisoned"),
                self.budget.max_verdict_entries,
                |entry| entry.last_hit,
            );
            self.evicted_entries
                .fetch_add(swept as u64, Ordering::Relaxed);
        }
        self.generation.fetch_add(1, Ordering::Relaxed);
    }

    /// The symbolic semantics of `program`, interpreting it at most once
    /// per campaign (per retained memo entry).  Returns whether this lookup
    /// was a hit alongside the semantics so callers can keep their own
    /// per-session tallies.
    pub fn semantics(
        &self,
        program: &Program,
    ) -> Result<(Arc<ProgramSemantics>, bool), InterpError> {
        let mut hasher = DefaultHasher::new();
        program.hash(&mut hasher);
        let key = hasher.finish();
        let generation = self.generation.load(Ordering::Relaxed);
        if let Some(entry) = self
            .semantics
            .lock()
            .expect("semantics memo lock poisoned")
            .get_mut(&key)
        {
            if entry.program == *program {
                entry.last_hit = generation;
                self.semantics_hits.fetch_add(1, Ordering::Relaxed);
                return Ok((entry.semantics.clone(), true));
            }
            // Hash collision: fall through and interpret uncached (the
            // first occupant keeps the slot).
        }
        // Interpret outside the lock so a slow program does not serialise
        // the pool; a racing loser finds the entry occupied below and
        // counts a hit instead (the memo did serve the canonical entry).
        let tm = self.term_manager();
        let semantics = Arc::new(interpret_program(&tm, program)?);
        let mut memo = self.semantics.lock().expect("semantics memo lock poisoned");
        if let Some(entry) = memo.get_mut(&key) {
            if entry.program == *program {
                entry.last_hit = generation;
                self.semantics_hits.fetch_add(1, Ordering::Relaxed);
                return Ok((entry.semantics.clone(), true));
            }
            // Collision slot stays with its first occupant; our interpretation
            // is correct for `program`, it just is not memoisable.
            self.semantics_misses.fetch_add(1, Ordering::Relaxed);
            return Ok((semantics, false));
        }
        memo.insert(
            key,
            SemanticsEntry {
                program: program.clone(),
                semantics: semantics.clone(),
                last_hit: generation,
            },
        );
        self.semantics_misses.fetch_add(1, Ordering::Relaxed);
        self.inserts_since_reset.fetch_add(1, Ordering::Relaxed);
        Ok((semantics, false))
    }

    /// Looks up the canonical verdict for a query term id.
    pub fn lookup_verdict(&self, query_id: u64) -> Option<Verdict> {
        let generation = self.generation.load(Ordering::Relaxed);
        let mut memo = self.verdicts.lock().expect("verdict memo lock poisoned");
        let found = memo.get_mut(&query_id).map(|entry| {
            entry.last_hit = generation;
            entry.verdict.clone()
        });
        drop(memo);
        if found.is_some() {
            self.verdict_hits.fetch_add(1, Ordering::Relaxed);
        }
        found
    }

    /// Records the canonical verdict for a query term id.  The miss is
    /// counted here — by the inserting thread only — so
    /// `verdict_misses` is exactly the number of distinct queries decided.
    pub fn store_verdict(&self, query_id: u64, verdict: Verdict) {
        let mut memo = self.verdicts.lock().expect("verdict memo lock poisoned");
        if memo.contains_key(&query_id) {
            // A racing worker solved the same query first; our lookup
            // becomes a (late) hit so totals still reconcile.
            self.verdict_hits.fetch_add(1, Ordering::Relaxed);
            return;
        }
        memo.insert(
            query_id,
            VerdictEntry {
                verdict,
                last_hit: self.generation.load(Ordering::Relaxed),
            },
        );
        self.verdict_misses.fetch_add(1, Ordering::Relaxed);
    }
}

/// Evicts whole least-recently-hit generations until the memo fits
/// `budget`.  Generation granularity keeps the sweep deterministic: the set
/// of generations and each entry's last-hit generation are pure functions
/// of lookup history, whereas cutting *within* a generation would depend on
/// hash-map iteration order.  Returns the number of entries evicted.
fn sweep<V>(memo: &mut HashMap<u64, V>, budget: usize, last_hit: impl Fn(&V) -> u64) -> usize {
    if memo.len() <= budget {
        return 0;
    }
    let mut generations: Vec<u64> = memo.values().map(&last_hit).collect();
    generations.sort_unstable();
    generations.dedup();
    let before = memo.len();
    for oldest in generations {
        if memo.len() <= budget {
            break;
        }
        memo.retain(|_, entry| last_hit(entry) != oldest);
    }
    before - memo.len()
}

#[cfg(test)]
mod tests {
    use super::*;
    use p4_ir::builder;

    #[test]
    fn semantics_memo_interprets_each_program_once() {
        let cache = CampaignCache::new();
        let program = builder::trivial_program();
        let (first, hit1) = cache.semantics(&program).unwrap();
        let (second, hit2) = cache.semantics(&program).unwrap();
        assert!(!hit1);
        assert!(hit2);
        assert!(Arc::ptr_eq(&first, &second));
        let stats = cache.stats();
        assert_eq!(stats.semantics_misses, 1);
        assert_eq!(stats.semantics_hits, 1);
        assert_eq!(stats.semantics_lookups(), 2);
    }

    #[test]
    fn verdict_memo_counters_reconcile() {
        let cache = CampaignCache::new();
        assert_eq!(cache.lookup_verdict(7), None);
        cache.store_verdict(7, None);
        assert_eq!(cache.lookup_verdict(7), Some(None));
        // A racing double-store counts as a hit, not a second miss.
        cache.store_verdict(7, None);
        let stats = cache.stats();
        assert_eq!(stats.verdict_misses, 1);
        assert_eq!(stats.verdict_hits, 2);
    }

    #[test]
    fn shared_across_threads_counts_exactly() {
        let cache = Arc::new(CampaignCache::new());
        let program = builder::trivial_program();
        let workers: Vec<_> = (0..4)
            .map(|_| {
                let cache = cache.clone();
                let program = program.clone();
                std::thread::spawn(move || {
                    cache.semantics(&program).unwrap();
                })
            })
            .collect();
        for worker in workers {
            worker.join().unwrap();
        }
        let stats = cache.stats();
        // Exactly one interpretation no matter the interleaving; every
        // other lookup is a hit.
        assert_eq!(stats.semantics_misses, 1);
        assert_eq!(stats.semantics_hits, 3);
    }

    #[test]
    fn memos_survive_an_epoch_barrier_within_budget() {
        let cache = CampaignCache::new();
        let program = builder::trivial_program();
        let (_, miss) = cache.semantics(&program).unwrap();
        assert!(!miss);
        cache.store_verdict(3, None);
        cache.epoch_barrier();
        // Cross-epoch reuse: both memos answer without re-deriving.
        let (_, hit) = cache.semantics(&program).unwrap();
        assert!(hit, "semantics memo must survive the barrier");
        assert_eq!(cache.lookup_verdict(3), Some(None));
        assert_eq!(cache.evicted_entries(), 0);
        assert_eq!(cache.manager_resets(), 0);
    }

    #[test]
    fn barrier_sweep_evicts_whole_stale_generations() {
        let cache = CampaignCache::with_budget(CacheBudget {
            max_verdict_entries: 3,
            ..CacheBudget::default()
        });
        // Generation 0: four verdicts.
        for id in 0..4 {
            cache.store_verdict(id, None);
        }
        cache.epoch_barrier(); // over budget → generation 0 evicted whole
        assert_eq!(cache.evicted_entries(), 4);
        for id in 0..4 {
            assert_eq!(cache.lookup_verdict(id), None, "entry {id} evicted");
        }
        // Generation 1: two fresh + re-stored; generation 2 touches one.
        for id in 0..2 {
            cache.store_verdict(id, None);
        }
        cache.epoch_barrier(); // 2 ≤ 3: no eviction
        assert_eq!(cache.lookup_verdict(0), Some(None)); // now last-hit gen 2
        for id in 4..7 {
            cache.store_verdict(id, None);
        }
        cache.epoch_barrier();
        // 5 entries > 3: gen-1 survivors (id 1) go, then gen-2 (0, 4, 5, 6)
        // would still leave 4 > 3 — whole-generation granularity means the
        // sweep also drops generation 2, emptying the memo.
        assert_eq!(cache.lookup_verdict(1), None, "older generation evicted");
        assert_eq!(
            cache.lookup_verdict(0),
            None,
            "whole generations go together"
        );
        assert_eq!(cache.manager_resets(), 0);
    }

    #[test]
    fn interpretation_budget_forces_a_manager_reset() {
        let cache = CampaignCache::with_budget(CacheBudget {
            max_interpretations_between_resets: 1,
            ..CacheBudget::default()
        });
        let before = cache.term_manager();
        let program = builder::trivial_program();
        cache.semantics(&program).unwrap();
        cache.store_verdict(9, None);
        cache.epoch_barrier();
        assert_eq!(cache.manager_resets(), 1);
        let after = cache.term_manager();
        assert!(!Arc::ptr_eq(&before, &after), "manager swapped");
        assert!(
            Arc::ptr_eq(before.interner(), after.interner()),
            "interner survives the reset"
        );
        // Both memos cleared: ids from the retired manager must not answer.
        assert_eq!(cache.lookup_verdict(9), None);
        let (_, hit) = cache.semantics(&program).unwrap();
        assert!(!hit, "semantics memo cleared with the manager");
    }
}
