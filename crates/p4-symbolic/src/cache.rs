//! Campaign-lifetime validation cache, shared across a campaign's worker
//! pool and across its epochs.
//!
//! Campaign hunts validate hundreds of generated programs whose pass
//! snapshots and mutants mostly repeat one another: a pass usually rewrites
//! one control, and the generator draws from a fixed header/metadata
//! namespace, so the same terms and the same per-block queries come back
//! seed after seed — and epoch after epoch.  A [`CampaignCache`] holds the
//! memoisation layers every [`crate::ValidationSession`] attached to it
//! shares for the whole campaign.  Reduction candidates are not served from
//! it: each reduction's semantic oracle keeps a private session of its own.
//! The layers are:
//!
//! * **term manager** — one hash-consing [`TermManager`], so structurally
//!   identical subterms built by any worker collapse to a single node and
//!   per-block equivalence queries of duplicate shape collapse to a single
//!   term id;
//! * **semantics memo** — each programmable block is interpreted once per
//!   distinct *block key*, no matter which program or which worker asks.
//!   Gauntlet turns each block into its own formula (paper §5.2), and a
//!   block's formula depends on three things only: the architecture and
//!   slot, the control or parser bound to the slot, and the block's
//!   *context* — every top-level declaration that is not a control or
//!   parser (types, constants, globals, actions, functions, tables).  The
//!   context is interned once per distinct value and shared by the block
//!   entries through an `Arc`.  [`CampaignCache::semantics`] assembles a
//!   [`ProgramSemantics`] from the block entries and interprets only the
//!   blocks that miss, so a pass that rewrites `ingress` re-interprets
//!   `ingress` alone.  Every hit compares the stored key by equality, so a
//!   hash collision is detected instead of returning the wrong semantics;
//! * **verdict memo** — each distinct per-block equivalence query (by
//!   hash-consed term id) is decided once.  `Unsat` verdicts are stored
//!   as-is; `Sat` verdicts store the *canonical* model (re-derived from the
//!   query term alone by a fresh solver, see [`crate::equivalence`]), so the
//!   cached counterexample is a pure function of the query structure and
//!   reports stay byte-identical no matter which worker populated the cache
//!   or in which order.
//!
//! Memoising blocks is sound because interpretation names every variable
//! by its position (inputs by parameter path, undefined reads by path,
//! table and extern unknowns by control and index): within one manager a
//! block key always yields the same terms, whichever worker interprets it.
//!
//! # Bounded growth across epochs
//!
//! Living for the whole campaign requires bounding two things:
//!
//! * **memo entries** — every entry is stamped with the *generation* (epoch
//!   index) of its last hit.  [`CampaignCache::epoch_barrier`], called
//!   between epochs while no session is live, sweeps each table that
//!   exceeds its [`CacheBudget`] entry budget by evicting whole
//!   least-recently-hit generations (never splitting a generation, so
//!   eviction is a pure function of lookup history, which is
//!   schedule-independent);
//! * **the hash-cons term table** — memo eviction alone cannot shrink it
//!   (the manager retains every distinct term ever built), so when the
//!   number of distinct programs looked up since the last reset exceeds the
//!   budget, the barrier swaps in a fresh manager and clears **both** memos:
//!   term ids restart after a swap, so id-keyed verdicts would collide, and
//!   block entries hold `TermRef`s from the retired manager.
//!
//! The trigger for both is insertion/lookup history — never
//! [`TermManager::term_count`], whose ids are assigned in schedule order —
//! so cache contents at each barrier are identical at any `--jobs`, keeping
//! reports byte-identical.  The name [`p4_ir::Interner`] survives resets:
//! symbols interned in epoch 1 stay valid for the whole campaign, which is
//! what makes the swap cheap.
//!
//! Counters are exact under contention and count *programs*, not blocks:
//! the memo keeps a small set of program keys (the context id plus the ids
//! of the program's block entries), and a *miss* is counted only by the
//! thread that inserts a program key, so `misses` equals the number of
//! distinct programs (and, for verdicts, distinct queries) and `hits`
//! equals `lookups - misses`.  Racing losers — workers that interpreted or
//! solved concurrently but lost the insert — count their lookup as a hit,
//! because the cache did serve the canonical entry they return.

use crate::equivalence::SessionStats;
use crate::interpreter::{
    bound_block, interpret_block, interpret_program, program_architecture, BlockSemantics,
    InterpError, ProgramSemantics,
};
use p4_ir::{Declaration, Interner, Program, TypeEnv};
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
    /// Program semantics lookups served from the memo.
    pub semantics_hits: u64,
    /// Distinct programs looked up (miss counted at insert), however many
    /// of their blocks the memo already held.
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
    /// Maximum retained entries of each semantics-memo table (contexts,
    /// blocks, program keys) after a barrier sweep.
    pub max_semantics_entries: usize,
    /// Maximum retained verdict-memo entries after a barrier sweep.
    pub max_verdict_entries: usize,
    /// Distinct programs looked up (program-key inserts) between full
    /// resets of the term manager.  Memo eviction cannot shrink the
    /// hash-cons table, so this is the bound on term-table growth.
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

/// A block's context: every top-level declaration of its program that is
/// not a control or parser, in program order.  Interned once per distinct
/// value; `id` is unique for the cache's lifetime.
#[derive(Debug)]
struct BlockContext {
    id: u64,
    declarations: Vec<Declaration>,
}

#[derive(Debug)]
struct ContextEntry {
    context: Arc<BlockContext>,
    /// Generation (epoch index) of the last hit; insert counts as a hit.
    last_hit: u64,
}

/// One memoised block.  The key fields are kept so a hash collision is
/// detected by equality instead of silently returning the wrong semantics.
#[derive(Debug)]
struct BlockEntry {
    context: Arc<BlockContext>,
    architecture: String,
    slot: String,
    decl: Declaration,
    /// Unique for the cache's lifetime; program keys list these.
    id: u64,
    semantics: Arc<BlockSemantics>,
    last_hit: u64,
}

impl BlockEntry {
    fn matches(&self, context: &BlockContext, lookup: &BlockLookup<'_>) -> bool {
        self.context.id == context.id
            && self.architecture == lookup.architecture
            && self.slot == lookup.spec.slot
            && self.decl == *lookup.decl
    }
}

/// A hash collision between different keys: the first occupant keeps the
/// slot and the newcomer is interpreted without the memo.
struct Collision;

/// A program as the memo sees it: its context id and its block entry ids,
/// in slot order.  Only counters read this set.
type ProgramKey = (u64, Vec<u64>);

/// The per-block semantics memo, guarded by one lock.
#[derive(Debug, Default)]
struct SemanticsMemo {
    /// Interned contexts by structural hash.
    contexts: HashMap<u64, ContextEntry>,
    /// Block entries by (context id, hash of architecture, slot and
    /// declaration).
    blocks: HashMap<(u64, u64), BlockEntry>,
    /// Distinct programs seen, with their last-hit generation.
    programs: HashMap<ProgramKey, u64>,
    /// Source of context and block entry ids.
    next_id: u64,
}

impl SemanticsMemo {
    fn fresh_id(&mut self) -> u64 {
        self.next_id += 1;
        self.next_id
    }

    /// The interned context with these declarations, interning it on first
    /// sight.  `None` on a hash collision with a different context (the
    /// first occupant keeps the slot).
    fn intern_context(
        &mut self,
        hash: u64,
        declarations: &[&Declaration],
        generation: u64,
    ) -> Option<Arc<BlockContext>> {
        if let Some(entry) = self.contexts.get_mut(&hash) {
            if !entry
                .context
                .declarations
                .iter()
                .eq(declarations.iter().copied())
            {
                return None;
            }
            entry.last_hit = generation;
            return Some(entry.context.clone());
        }
        let context = Arc::new(BlockContext {
            id: self.fresh_id(),
            declarations: declarations.iter().map(|decl| (*decl).clone()).collect(),
        });
        self.contexts.insert(
            hash,
            ContextEntry {
                context: context.clone(),
                last_hit: generation,
            },
        );
        Some(context)
    }

    /// The memoised entry for `lookup`'s block, if any.
    fn find_block(
        &mut self,
        context: &BlockContext,
        lookup: &BlockLookup<'_>,
        generation: u64,
    ) -> Result<Option<(u64, Arc<BlockSemantics>)>, Collision> {
        match self.blocks.get_mut(&(context.id, lookup.hash)) {
            Some(entry) if entry.matches(context, lookup) => {
                entry.last_hit = generation;
                Ok(Some((entry.id, entry.semantics.clone())))
            }
            Some(_) => Err(Collision),
            None => Ok(None),
        }
    }

    /// Memoises `semantics` for `lookup`'s block, or returns the entry a
    /// racing worker inserted first.
    fn insert_block(
        &mut self,
        context: &Arc<BlockContext>,
        lookup: &BlockLookup<'_>,
        semantics: Arc<BlockSemantics>,
        generation: u64,
    ) -> Result<(u64, Arc<BlockSemantics>), Collision> {
        if let Some(found) = self.find_block(context, lookup, generation)? {
            return Ok(found);
        }
        let id = self.fresh_id();
        self.blocks.insert(
            (context.id, lookup.hash),
            BlockEntry {
                context: context.clone(),
                architecture: lookup.architecture.to_string(),
                slot: lookup.spec.slot.clone(),
                decl: lookup.decl.clone(),
                id,
                semantics: semantics.clone(),
                last_hit: generation,
            },
        );
        Ok((id, semantics))
    }

    fn clear(&mut self) -> usize {
        let dropped = self.contexts.len() + self.blocks.len() + self.programs.len();
        self.contexts.clear();
        self.blocks.clear();
        self.programs.clear();
        dropped
    }

    fn sweep(&mut self, budget: usize) -> usize {
        sweep(&mut self.contexts, budget, |entry| entry.last_hit)
            + sweep(&mut self.blocks, budget, |entry| entry.last_hit)
            + sweep(&mut self.programs, budget, |last_hit| *last_hit)
    }
}

/// One block of a program being looked up.
struct BlockLookup<'p> {
    architecture: &'p str,
    spec: &'p p4_ir::BlockSpec,
    decl: &'p Declaration,
    /// Hash of architecture, slot and declaration.
    hash: u64,
    /// The memo's entry, once found or inserted: its id and semantics.
    found: Option<(u64, Arc<BlockSemantics>)>,
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
    semantics: Mutex<SemanticsMemo>,
    verdicts: Mutex<HashMap<u64, VerdictEntry>>,
    budget: CacheBudget,
    /// Current generation; bumped by each barrier.
    generation: AtomicU64,
    /// Program-key inserts since the last manager reset.
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
                let dropped = semantics.clear() + verdicts.len();
                verdicts.clear();
                dropped
            };
            self.evicted_entries
                .fetch_add(dropped as u64, Ordering::Relaxed);
            self.inserts_since_reset.store(0, Ordering::Relaxed);
            self.manager_resets.fetch_add(1, Ordering::Relaxed);
        } else {
            let swept = self
                .semantics
                .lock()
                .expect("semantics memo lock poisoned")
                .sweep(self.budget.max_semantics_entries)
                + sweep(
                    &mut self.verdicts.lock().expect("verdict memo lock poisoned"),
                    self.budget.max_verdict_entries,
                    |entry| entry.last_hit,
                );
            self.evicted_entries
                .fetch_add(swept as u64, Ordering::Relaxed);
        }
        self.generation.fetch_add(1, Ordering::Relaxed);
    }

    /// The symbolic semantics of `program`, interpreting each of its blocks
    /// at most once per campaign (per retained memo entry).  Returns whether
    /// this lookup was a program-level hit alongside the semantics so
    /// callers can keep their own per-session tallies.
    pub fn semantics(
        &self,
        program: &Program,
    ) -> Result<(Arc<ProgramSemantics>, bool), InterpError> {
        let architecture = program_architecture(program)?;
        let generation = self.generation.load(Ordering::Relaxed);
        let context_decls: Vec<&Declaration> = program
            .declarations
            .iter()
            .filter(|decl| !matches!(decl, Declaration::Control(_) | Declaration::Parser(_)))
            .collect();
        let context_hash = structural_hash(&context_decls);

        // Resolve and hash every block before taking the lock.  A binding
        // error stops the scan; blocks before it still interpret first, so
        // errors come out in the order `interpret_program` reports them.
        let mut lookups = Vec::with_capacity(architecture.blocks.len());
        let mut binding_error = None;
        for spec in &architecture.blocks {
            match bound_block(program, spec) {
                Ok(decl) => lookups.push(BlockLookup {
                    architecture: &program.architecture,
                    spec,
                    decl,
                    hash: structural_hash(&(&program.architecture, &spec.slot, decl)),
                    found: None,
                }),
                Err(error) => {
                    binding_error = Some(error);
                    break;
                }
            }
        }

        // Under the lock: intern the context and look every block up.
        let context = {
            let mut memo = self.semantics.lock().expect("semantics memo lock poisoned");
            let Some(context) = memo.intern_context(context_hash, &context_decls, generation)
            else {
                drop(memo);
                return self.uncached(program);
            };
            for lookup in &mut lookups {
                match memo.find_block(&context, lookup, generation) {
                    Ok(found) => lookup.found = found,
                    Err(Collision) => {
                        drop(memo);
                        return self.uncached(program);
                    }
                }
            }
            if binding_error.is_none() && lookups.iter().all(|lookup| lookup.found.is_some()) {
                return Ok(self.record_program(&mut memo, context.id, &lookups, generation));
            }
            context
        };

        // Interpret the missing blocks outside the lock so a slow block does
        // not serialise the pool.
        let tm = self.term_manager();
        let mut env = None;
        let mut interpreted = Vec::new();
        for (index, lookup) in lookups.iter().enumerate() {
            if lookup.found.is_none() {
                let env = env.get_or_insert_with(|| TypeEnv::from_program(program));
                let semantics = interpret_block(&tm, env, program, lookup.spec, lookup.decl)?;
                interpreted.push((index, Arc::new(semantics)));
            }
        }
        if let Some(error) = binding_error {
            return Err(error);
        }

        // Insert the new blocks; a racing loser finds its block already
        // inserted and adopts the canonical entry.
        let mut memo = self.semantics.lock().expect("semantics memo lock poisoned");
        for (index, semantics) in interpreted {
            match memo.insert_block(&context, &lookups[index], semantics, generation) {
                Ok(found) => lookups[index].found = Some(found),
                Err(Collision) => {
                    drop(memo);
                    return self.uncached(program);
                }
            }
        }
        Ok(self.record_program(&mut memo, context.id, &lookups, generation))
    }

    /// Counts a program lookup whose blocks are all memoised: a miss if
    /// this thread inserts the program key, a hit otherwise.
    fn record_program(
        &self,
        memo: &mut SemanticsMemo,
        context_id: u64,
        lookups: &[BlockLookup<'_>],
        generation: u64,
    ) -> (Arc<ProgramSemantics>, bool) {
        let mut ids = Vec::with_capacity(lookups.len());
        let mut blocks = Vec::with_capacity(lookups.len());
        for lookup in lookups {
            let (id, semantics) = lookup.found.clone().expect("every block is memoised");
            ids.push(id);
            blocks.push(semantics);
        }
        let key = (context_id, ids);
        let hit = match memo.programs.get_mut(&key) {
            Some(last_hit) => {
                *last_hit = generation;
                self.semantics_hits.fetch_add(1, Ordering::Relaxed);
                true
            }
            None => {
                memo.programs.insert(key, generation);
                self.semantics_misses.fetch_add(1, Ordering::Relaxed);
                self.inserts_since_reset.fetch_add(1, Ordering::Relaxed);
                false
            }
        };
        (Arc::new(ProgramSemantics { blocks }), hit)
    }

    /// Interprets `program` without the memo (a hash collision keeps the
    /// slot for its first occupant) and counts the lookup as a miss.
    fn uncached(&self, program: &Program) -> Result<(Arc<ProgramSemantics>, bool), InterpError> {
        let semantics = interpret_program(&self.term_manager(), program)?;
        self.semantics_misses.fetch_add(1, Ordering::Relaxed);
        Ok((Arc::new(semantics), false))
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

fn structural_hash(value: &impl Hash) -> u64 {
    let mut hasher = DefaultHasher::new();
    value.hash(&mut hasher);
    hasher.finish()
}

/// Evicts whole least-recently-hit generations until the memo fits
/// `budget`.  Generation granularity keeps the sweep deterministic: the set
/// of generations and each entry's last-hit generation are pure functions
/// of lookup history, whereas cutting *within* a generation would depend on
/// hash-map iteration order.  Returns the number of entries evicted.
fn sweep<K, V>(memo: &mut HashMap<K, V>, budget: usize, last_hit: impl Fn(&V) -> u64) -> usize {
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
    use p4_ir::{builder, Expr, Statement};

    /// `trivial_program` with `statement` appended to the apply block of
    /// the control bound to `slot`.
    fn with_statement(slot: &str, statement: Statement) -> Program {
        let mut program = builder::trivial_program();
        let name = program.package.binding(slot).unwrap().to_string();
        program
            .control_mut(&name)
            .unwrap()
            .apply
            .statements
            .push(statement);
        program
    }

    fn assign(field: &str, value: u128) -> Statement {
        Statement::assign(Expr::dotted(&["hdr", "h", field]), Expr::uint(value, 8))
    }

    fn block_entries(cache: &CampaignCache) -> usize {
        cache.semantics.lock().unwrap().blocks.len()
    }

    fn shared(a: &ProgramSemantics, b: &ProgramSemantics, slot: &str) -> bool {
        let find = |semantics: &ProgramSemantics| {
            semantics
                .blocks
                .iter()
                .find(|block| block.slot == slot)
                .cloned()
                .unwrap()
        };
        Arc::ptr_eq(&find(a), &find(b))
    }

    #[test]
    fn semantics_memo_interprets_each_program_once() {
        let cache = CampaignCache::new();
        let program = builder::trivial_program();
        let (first, hit1) = cache.semantics(&program).unwrap();
        let (second, hit2) = cache.semantics(&program).unwrap();
        assert!(!hit1);
        assert!(hit2);
        // The second lookup interprets nothing: every block is shared.
        assert_eq!(first.blocks.len(), 4);
        for (a, b) in first.blocks.iter().zip(&second.blocks) {
            assert!(Arc::ptr_eq(a, b), "block `{}` re-interpreted", a.slot);
        }
        assert_eq!(block_entries(&cache), 4);
        let stats = cache.stats();
        assert_eq!(stats.semantics_misses, 1);
        assert_eq!(stats.semantics_hits, 1);
        assert_eq!(stats.semantics_lookups(), 2);
    }

    #[test]
    fn programs_differing_in_ingress_share_the_other_blocks() {
        let cache = CampaignCache::new();
        let (a, _) = cache
            .semantics(&with_statement("ingress", assign("b", 1)))
            .unwrap();
        let (b, _) = cache
            .semantics(&with_statement("ingress", assign("b", 2)))
            .unwrap();
        for slot in ["parser", "egress", "deparser"] {
            assert!(shared(&a, &b, slot), "`{slot}` must be shared");
        }
        assert!(!shared(&a, &b, "ingress"));
        // Four blocks for the first program, one more for the second: each
        // `ingress` was interpreted once, nothing else twice.
        assert_eq!(block_entries(&cache), 5);
        let (a_again, hit) = cache
            .semantics(&with_statement("ingress", assign("b", 1)))
            .unwrap();
        assert!(hit);
        assert!(shared(&a, &a_again, "ingress"));
        assert_eq!(block_entries(&cache), 5);
    }

    #[test]
    fn a_changed_top_level_constant_reinterprets_every_block() {
        let with_constant = |value| {
            let mut program = builder::trivial_program();
            program.declarations.insert(
                0,
                Declaration::Constant(p4_ir::ConstantDecl {
                    name: "LIMIT".into(),
                    ty: p4_ir::Type::bits(8),
                    value: Expr::uint(value, 8),
                }),
            );
            program
        };
        let cache = CampaignCache::new();
        let (a, _) = cache.semantics(&with_constant(1)).unwrap();
        let (b, _) = cache.semantics(&with_constant(2)).unwrap();
        for slot in ["parser", "ingress", "egress", "deparser"] {
            assert!(!shared(&a, &b, slot), "`{slot}` must be re-interpreted");
        }
        assert_eq!(block_entries(&cache), 8);
        assert_eq!(cache.stats().semantics_misses, 2);
    }

    #[test]
    fn program_counters_reconcile_over_shared_blocks() {
        let cache = CampaignCache::new();
        let ingress_one = with_statement("ingress", assign("b", 1));
        let egress_two = with_statement("egress", assign("b", 2));
        // Ingress from the first program, egress from the second: every
        // block is memoised, yet the program is new.
        let mut mixed = ingress_one.clone();
        *mixed.control_mut("egress_impl").unwrap() =
            egress_two.control("egress_impl").unwrap().clone();
        let lookups = [
            &ingress_one,
            &egress_two,
            &ingress_one,
            &mixed,
            &egress_two,
            &mixed,
        ];
        let hits: Vec<bool> = lookups
            .iter()
            .map(|program| cache.semantics(program).unwrap().1)
            .collect();
        assert_eq!(hits, [false, false, true, false, true, true]);
        // Parser, deparser, two ingresses and two egresses.
        assert_eq!(block_entries(&cache), 6);
        let stats = cache.stats();
        assert_eq!(stats.semantics_misses, 3, "one miss per distinct program");
        assert_eq!(stats.semantics_hits, 3);
        assert_eq!(stats.semantics_lookups(), lookups.len() as u64);
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
