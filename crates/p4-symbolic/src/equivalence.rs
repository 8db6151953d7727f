//! Equivalence checking between two versions of a program — the core of
//! translation validation (paper §5).
//!
//! Both programs are interpreted with the *same* term manager so that input
//! variables (parameters, packet fields, symbolic table keys and action
//! indices) with equal names denote the same unknowns.  For every
//! programmable block we then ask the solver whether any assignment makes
//! the two output tuples differ; a satisfying assignment is a counterexample
//! packet / table configuration and the pair of differing outputs.

use crate::cache::CampaignCache;
use crate::interpreter::{interpret_program, InterpError, ProgramSemantics};
use p4_ir::Program;
use smt::{CheckResult, Model, Solver, TermKind, TermManager, TermRef, Value};
use std::collections::{BTreeMap, HashSet};
use std::sync::Arc;

/// The verdict of an equivalence check.
#[derive(Debug, Clone)]
pub enum Equivalence {
    /// No input distinguishes the two programs.
    Equal,
    /// The programs differ; the payload says where and why.
    NotEqual(Counterexample),
}

impl Equivalence {
    pub fn is_equal(&self) -> bool {
        matches!(self, Equivalence::Equal)
    }
}

/// A concrete witness that two programs differ.
#[derive(Debug, Clone)]
pub struct Counterexample {
    /// The architecture slot (e.g. `"ingress"`) where the difference lies.
    pub block: String,
    /// Input assignment (packet fields, metadata, table keys/actions) that
    /// triggers the difference.
    pub inputs: BTreeMap<String, Value>,
    /// Outputs that differ: `(name, value before, value after)`.
    pub differing_outputs: Vec<(String, Value, Value)>,
}

impl Counterexample {
    /// The first differing output's name — the anchor the campaign layer
    /// uses when de-duplicating findings by diverging field (translation
    /// validation keys on the full counterexample line instead).
    pub fn primary_field(&self) -> Option<&str> {
        self.differing_outputs
            .first()
            .map(|(name, _, _)| name.as_str())
    }
}

/// The first line of a [`Counterexample`]'s rendering, which names only the
/// differing block.  Translation-validation dedup keys keep just this line,
/// so a verdict-only check can report a difference without a
/// counterexample.
pub fn difference_headline(block: &str) -> String {
    format!("semantic difference in block `{block}`:")
}

impl std::fmt::Display for Counterexample {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        writeln!(f, "{}", difference_headline(&self.block))?;
        for (name, before, after) in &self.differing_outputs {
            writeln!(f, "  {name}: {before:?} -> {after:?}")?;
        }
        writeln!(f, "  under inputs:")?;
        for (name, value) in &self.inputs {
            writeln!(f, "    {name} = {value:?}")?;
        }
        Ok(())
    }
}

/// The verdict of a verdict-only check
/// ([`ValidationSession::check_pair_verdict`]): whether two programs differ,
/// and in which block, without a counterexample.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum PairVerdict {
    /// No input distinguishes the two programs.
    Equal,
    /// The first block, in the `before` program's order, whose outputs can
    /// differ: the block [`Equivalence::NotEqual`]'s counterexample names.
    Differs { block: String },
}

/// Errors: either program could not be interpreted (an interpreter
/// limitation, not a compiler bug) or the block structure differs in a way
/// that prevents comparison.
#[derive(Debug, Clone)]
pub enum EquivalenceError {
    Interpreter(InterpError),
    /// The two programs do not expose the same outputs for a block (e.g. a
    /// pass changed a parameter list) — reported separately so Gauntlet can
    /// flag it as an invalid transformation rather than a miscompilation.
    StructureMismatch {
        block: String,
        detail: String,
    },
}

impl std::fmt::Display for EquivalenceError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            EquivalenceError::Interpreter(e) => write!(f, "{e}"),
            EquivalenceError::StructureMismatch { block, detail } => {
                write!(f, "structure mismatch in block `{block}`: {detail}")
            }
        }
    }
}

impl std::error::Error for EquivalenceError {}

impl From<InterpError> for EquivalenceError {
    fn from(e: InterpError) -> Self {
        EquivalenceError::Interpreter(e)
    }
}

/// Checks whether two programs are semantically equivalent, block by block.
///
/// This is the one-shot entry point: it interprets both programs into a
/// fresh term manager and decides each block with a fresh solver.  Chains of
/// related checks (translation validation of consecutive pass snapshots)
/// should use a [`ValidationSession`] instead, which interprets every
/// distinct block once and reuses the solver's CNF across adjacent checks.
pub fn check_equivalence(
    before: &Program,
    after: &Program,
) -> Result<Equivalence, EquivalenceError> {
    let tm = Arc::new(TermManager::new());
    let semantics_before = interpret_program(&tm, before)?;
    let semantics_after = interpret_program(&tm, after)?;
    let mut solver = Solver::new();
    check_semantics_equivalence_via(
        &tm,
        &mut solver,
        None,
        Mode::Counterexample,
        &semantics_before,
        &semantics_after,
    )
    .map(|(difference, _)| difference.into())
}

/// Re-derives the distinguishing model for a satisfiable query from the
/// query term alone, with a fresh solver.
///
/// SAT models depend on solver history (learned clauses, phase saving,
/// variable numbering), so the model a long-lived incremental solver returns
/// for a query depends on every query it decided before — which varies with
/// session reuse, epoch caching, and worker scheduling.  The *verdict*
/// (SAT/UNSAT) is semantic and schedule-independent, so we let the warm
/// solver decide it, then pay one extra cold solve on the rare SAT path to
/// make the reported counterexample a pure function of the query structure.
/// This is what keeps rendered reports byte-identical across `--jobs` and
/// cache on/off.
fn solve_canonical_model(query: &TermRef, fallback: Model) -> Model {
    let mut fresh = Solver::new();
    match fresh.check_with(std::slice::from_ref(query)) {
        CheckResult::Sat(model) => model,
        // A warm-SAT / cold-UNSAT disagreement would be a solver bug; the
        // warm model is still a genuine witness, so keep it.
        CheckResult::Unsat => {
            debug_assert!(false, "canonical re-solve disagreed with warm solver");
            fallback
        }
    }
}

/// How much the block loop derives for the first differing block.
enum Mode<'a> {
    /// A canonical counterexample: the path reports take.
    Counterexample,
    /// The block name alone, skipping the canonical re-solve and the model
    /// evaluation.  Satisfiable query ids are remembered in the set rather
    /// than in the verdict memo, which holds canonical models only.
    VerdictOnly(&'a mut HashSet<u64>),
}

/// The first differing block, with as much as the [`Mode`] derived.
enum Difference {
    Counterexample(Counterexample),
    Block(String),
}

impl Difference {
    fn block(self) -> String {
        match self {
            Difference::Counterexample(counterexample) => counterexample.block,
            Difference::Block(block) => block,
        }
    }
}

impl From<Option<Difference>> for Equivalence {
    fn from(difference: Option<Difference>) -> Equivalence {
        match difference {
            None => Equivalence::Equal,
            Some(Difference::Counterexample(counterexample)) => {
                Equivalence::NotEqual(counterexample)
            }
            Some(Difference::Block(_)) => {
                unreachable!("only a verdict-only check omits the counterexample")
            }
        }
    }
}

impl From<Option<Difference>> for PairVerdict {
    fn from(difference: Option<Difference>) -> PairVerdict {
        match difference {
            None => PairVerdict::Equal,
            Some(difference) => PairVerdict::Differs {
                block: difference.block(),
            },
        }
    }
}

/// The block loop behind every equivalence check: optionally
/// consults/updates a [`CampaignCache`] verdict memo, and returns the first
/// differing block (`None` when the programs are equivalent) plus how many
/// per-block queries a memo served (for session accounting).
fn check_semantics_equivalence_via(
    tm: &Arc<TermManager>,
    solver: &mut Solver,
    cache: Option<&CampaignCache>,
    mut mode: Mode<'_>,
    before: &ProgramSemantics,
    after: &ProgramSemantics,
) -> Result<(Option<Difference>, u64), EquivalenceError> {
    let mut memo_served = 0u64;
    for block_before in &before.blocks {
        let Some(block_after) = after.block(&block_before.slot) else {
            return Err(EquivalenceError::StructureMismatch {
                block: block_before.slot.clone(),
                detail: "block missing after the pass".into(),
            });
        };
        // Pair up outputs by name.
        let mut pairs: Vec<(String, TermRef, TermRef)> = Vec::new();
        for (name, term_before) in &block_before.outputs {
            match block_after.output(name) {
                Some(term_after) => {
                    pairs.push((name.clone(), term_before.clone(), term_after.clone()))
                }
                None => {
                    return Err(EquivalenceError::StructureMismatch {
                        block: block_before.slot.clone(),
                        detail: format!("output `{name}` missing after the pass"),
                    })
                }
            }
        }
        if pairs.is_empty() {
            continue;
        }
        // The query: does any input make at least one output differ?  Terms
        // are hash-consed, so outputs a pass did not touch compare with
        // identical ids and their disjuncts fold away to `false` here.
        let mut disjuncts = Vec::with_capacity(pairs.len());
        for (_, term_before, term_after) in &pairs {
            if term_before.sort != term_after.sort {
                return Err(EquivalenceError::StructureMismatch {
                    block: block_before.slot.clone(),
                    detail: "output widths differ".into(),
                });
            }
            disjuncts.push(tm.neq(term_before.clone(), term_after.clone()));
        }
        let query = tm.or(disjuncts);
        if matches!(query.kind, TermKind::BoolConst(false)) {
            // Every output is syntactically identical: equal without solving.
            continue;
        }
        if let Mode::VerdictOnly(sat_queries) = &mode {
            if sat_queries.contains(&query.id) {
                memo_served += 1;
                return Ok((
                    Some(Difference::Block(block_before.slot.clone())),
                    memo_served,
                ));
            }
        }
        // Epoch verdict memo: a structurally identical query (same
        // hash-consed id) decided by any worker this epoch is not decided
        // again.  Cached SAT verdicts carry the canonical model, so the
        // counterexample built from them is identical to the uncached one.
        let model = match cache.and_then(|cache| cache.lookup_verdict(query.id)) {
            Some(None) => {
                memo_served += 1;
                continue;
            }
            Some(Some(model)) => {
                memo_served += 1;
                model
            }
            None => match solver.check_with(std::slice::from_ref(&query)) {
                CheckResult::Unsat => {
                    if let Some(cache) = cache {
                        cache.store_verdict(query.id, None);
                    }
                    continue;
                }
                CheckResult::Sat(model) => match &mut mode {
                    Mode::Counterexample => {
                        let canonical = solve_canonical_model(&query, model);
                        if let Some(cache) = cache {
                            cache.store_verdict(query.id, Some(canonical.clone()));
                        }
                        canonical
                    }
                    Mode::VerdictOnly(sat_queries) => {
                        sat_queries.insert(query.id);
                        model
                    }
                },
            },
        };
        let difference = match mode {
            Mode::Counterexample => Difference::Counterexample(build_counterexample(
                &block_before.slot,
                &model,
                &pairs,
                &block_before.inputs,
            )),
            Mode::VerdictOnly(_) => Difference::Block(block_before.slot.clone()),
        };
        return Ok((Some(difference), memo_served));
    }
    Ok((None, memo_served))
}

/// Counters describing how much work a [`ValidationSession`] saved.
///
/// These are *per-session* tallies; when several sessions share one
/// [`CampaignCache`] the cache's own [`crate::cache::CacheStats`] is the exact
/// pool-wide aggregate, and the two reconcile: summing the session counters
/// over every attached session yields the cache totals.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct SessionStats {
    /// Programs the cache had seen before (every block memoised).
    pub semantics_hits: u64,
    /// Programs new to the cache; only their blocks the memo lacked were
    /// interpreted.
    pub semantics_misses: u64,
    /// Equivalence checks decided without touching the solver because every
    /// output pair was syntactically identical after hash-consing.
    pub trivial_checks: u64,
    /// Equivalence checks that went to the solver.
    pub solver_checks: u64,
    /// Equivalence checks decided entirely by the epoch verdict memo (at
    /// least one memoised query, no solver call).
    pub cached_checks: u64,
    /// Per-block queries this session served from the epoch verdict memo,
    /// or, in verdict-only checks, from its own memo of satisfiable queries
    /// (which the cache never sees, so those do not reconcile with it).
    pub verdict_hits: u64,
    /// Per-block queries this session had to decide with its solver.
    pub verdict_misses: u64,
}

/// A long-lived equivalence-checking session with incremental reuse.
///
/// Gauntlet validates a *chain* p₀ ≡ p₁ ≡ … ≡ pₙ of per-pass snapshots: the
/// program emitted by pass *i* is the right-hand side of one check and the
/// left-hand side of the next, and usually differs from its predecessor in
/// one block.  A session exploits that structure twice over:
///
/// * **semantics cache** — each block is symbolically interpreted once per
///   distinct block key (architecture and slot, the bound control or
///   parser, and the program's other top-level declarations; see
///   [`crate::cache`]), and a [`ProgramSemantics`] is assembled from the
///   shared block entries, so a pass that rewrites one control
///   re-interprets that control alone;
/// * **incremental solver** — all terms live in one hash-consing
///   [`TermManager`], and one [`Solver`] decides every query via
///   assumptions, so subterms shared across the chain are bit-blasted once
///   and learned clauses carry over.
pub struct ValidationSession {
    /// Campaign-scoped shared state: term manager, semantics memo, verdict
    /// memo.  A standalone session owns a private cache; campaign workers
    /// attach to one shared instance via [`Self::with_cache`].
    cache: Arc<CampaignCache>,
    solver: Solver,
    /// Ids of the satisfiable queries verdict-only checks decided.  Their
    /// models are not canonical, so they stay out of the cache's verdict
    /// memo; ids are stable because a session never straddles a barrier.
    sat_queries: HashSet<u64>,
    stats: SessionStats,
}

impl Default for ValidationSession {
    fn default() -> Self {
        ValidationSession::new()
    }
}

impl ValidationSession {
    /// A standalone session with its own private cache.
    pub fn new() -> ValidationSession {
        ValidationSession::with_cache(Arc::new(CampaignCache::new()))
    }

    /// A session that shares `cache` (term manager, semantics memo, verdict
    /// memo) with every other session attached to it.  The session's solver
    /// and counters stay private — only the memoisation layers are shared.
    pub fn with_cache(cache: Arc<CampaignCache>) -> ValidationSession {
        ValidationSession {
            cache,
            solver: Solver::new(),
            sat_queries: HashSet::new(),
            stats: SessionStats::default(),
        }
    }

    /// The shared term manager (all cached semantics use it).  Cloned out
    /// of the cache because a campaign cache may swap managers at an epoch
    /// barrier; sessions never straddle a barrier, so the clone a session
    /// works with stays the cache's current manager for its whole life.
    pub fn term_manager(&self) -> Arc<TermManager> {
        self.cache.term_manager()
    }

    /// The campaign cache this session is attached to.
    pub fn cache(&self) -> &Arc<CampaignCache> {
        &self.cache
    }

    /// Usage counters for this session.
    pub fn stats(&self) -> SessionStats {
        self.stats
    }

    /// Statistics of this session's most recent solver call.
    pub fn solver_stats(&self) -> smt::SolverStats {
        self.solver.stats()
    }

    /// The symbolic semantics of `program`, interpreting each block only on
    /// the first request for its block key across *all* sessions attached
    /// to the cache (the stored key is compared on every hit to rule out
    /// hash collisions).  The session counts a hit when the cache has seen
    /// this exact program before.
    pub fn semantics(&mut self, program: &Program) -> Result<Arc<ProgramSemantics>, InterpError> {
        let (semantics, hit) = self.cache.semantics(program)?;
        if hit {
            self.stats.semantics_hits += 1;
        } else {
            self.stats.semantics_misses += 1;
        }
        Ok(semantics)
    }

    /// Checks two programs for equivalence with full incremental reuse.
    pub fn check_pair(
        &mut self,
        before: &Program,
        after: &Program,
    ) -> Result<Equivalence, EquivalenceError> {
        self.check_pair_in(before, after, false)
            .map(Equivalence::from)
    }

    /// [`Self::check_pair`] without the counterexample: the verdict and the
    /// differing block only, or the same error.  It skips the canonical
    /// re-solve and the model evaluation, and a satisfiable query it has
    /// decided before is not decided again.
    pub fn check_pair_verdict(
        &mut self,
        before: &Program,
        after: &Program,
    ) -> Result<PairVerdict, EquivalenceError> {
        self.check_pair_in(before, after, true)
            .map(PairVerdict::from)
    }

    fn check_pair_in(
        &mut self,
        before: &Program,
        after: &Program,
        verdict_only: bool,
    ) -> Result<Option<Difference>, EquivalenceError> {
        let _telemetry = gauntlet_telemetry::Span::begin(gauntlet_telemetry::Stage::Validate);
        let semantics_before = self.semantics(before)?;
        let semantics_after = self.semantics(after)?;
        let solver_checks_before = self.solver.total_checks();
        let mode = if verdict_only {
            Mode::VerdictOnly(&mut self.sat_queries)
        } else {
            Mode::Counterexample
        };
        let result = check_semantics_equivalence_via(
            &self.cache.term_manager(),
            &mut self.solver,
            Some(&self.cache),
            mode,
            &semantics_before,
            &semantics_after,
        );
        let solver_queries = self.solver.total_checks() - solver_checks_before;
        self.stats.verdict_misses += solver_queries;
        if let Ok((_, memo_served)) = &result {
            self.stats.verdict_hits += memo_served;
            if solver_queries == 0 {
                if *memo_served > 0 {
                    self.stats.cached_checks += 1;
                } else {
                    self.stats.trivial_checks += 1;
                }
            } else {
                self.stats.solver_checks += 1;
            }
        } else if solver_queries == 0 {
            self.stats.trivial_checks += 1;
        } else {
            self.stats.solver_checks += 1;
        }
        result.map(|(difference, _)| difference)
    }
}

fn build_counterexample(
    block: &str,
    model: &Model,
    pairs: &[(String, TermRef, TermRef)],
    inputs: &[(String, u32)],
) -> Counterexample {
    let mut differing = Vec::new();
    for (name, term_before, term_after) in pairs {
        let value_before = model.eval(term_before);
        let value_after = model.eval(term_after);
        if value_before != value_after {
            differing.push((name.clone(), value_before, value_after));
        }
    }
    let mut input_values = BTreeMap::new();
    // Record the model's choice for every declared block input; inputs the
    // model does not mention default to zero (they were irrelevant).
    for (name, width) in inputs {
        let value = model
            .get(name)
            .cloned()
            .unwrap_or_else(|| Value::bv(0, (*width).max(1)));
        input_values.insert(name.clone(), value);
    }
    // Also include every other variable the model assigned (table keys,
    // action indices, packet fields) — they are part of the trigger.
    for (name, value) in model.bindings() {
        if !name.starts_with("undef.") && !name.starts_with("extern") {
            input_values
                .entry(name.clone())
                .or_insert_with(|| value.clone());
        }
    }
    Counterexample {
        block: block.to_string(),
        inputs: input_values,
        differing_outputs: differing,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use p4_ir::builder;
    use p4_ir::{BinOp, Block, Expr, Statement};

    #[test]
    fn identical_programs_are_equivalent() {
        let program = builder::trivial_program();
        let result = check_equivalence(&program, &program.clone()).unwrap();
        assert!(result.is_equal());
    }

    #[test]
    fn semantically_equal_but_syntactically_different_programs_are_equivalent() {
        // x + 0 vs x: strength reduction's rewrite is validated as correct.
        let before = builder::v1model_program(
            vec![],
            Block::new(vec![Statement::assign(
                Expr::dotted(&["hdr", "h", "a"]),
                Expr::binary(
                    BinOp::Add,
                    Expr::dotted(&["hdr", "h", "b"]),
                    Expr::uint(0, 8),
                ),
            )]),
        );
        let after = builder::v1model_program(
            vec![],
            Block::new(vec![Statement::assign(
                Expr::dotted(&["hdr", "h", "a"]),
                Expr::dotted(&["hdr", "h", "b"]),
            )]),
        );
        assert!(check_equivalence(&before, &after).unwrap().is_equal());
    }

    #[test]
    fn dropped_write_is_detected_with_counterexample() {
        // The Figure-5a-style miscompilation: the write disappears.
        let before = builder::trivial_program();
        let after = builder::v1model_program(vec![], Block::empty());
        match check_equivalence(&before, &after).unwrap() {
            Equivalence::NotEqual(cex) => {
                assert_eq!(cex.block, "ingress");
                assert!(cex
                    .differing_outputs
                    .iter()
                    .any(|(name, _, _)| name == "hdr.h.a"));
            }
            Equivalence::Equal => panic!("must detect the dropped write"),
        }
    }

    #[test]
    fn branch_swap_is_detected() {
        let before = builder::v1model_program(
            vec![],
            Block::new(vec![Statement::if_else(
                Expr::binary(
                    BinOp::Eq,
                    Expr::dotted(&["hdr", "h", "a"]),
                    Expr::uint(0, 8),
                ),
                Statement::assign(Expr::dotted(&["hdr", "h", "b"]), Expr::uint(1, 8)),
                Statement::assign(Expr::dotted(&["hdr", "h", "b"]), Expr::uint(2, 8)),
            )]),
        );
        let after = builder::v1model_program(
            vec![],
            Block::new(vec![Statement::if_else(
                Expr::binary(
                    BinOp::Eq,
                    Expr::dotted(&["hdr", "h", "a"]),
                    Expr::uint(0, 8),
                ),
                Statement::assign(Expr::dotted(&["hdr", "h", "b"]), Expr::uint(2, 8)),
                Statement::assign(Expr::dotted(&["hdr", "h", "b"]), Expr::uint(1, 8)),
            )]),
        );
        match check_equivalence(&before, &after).unwrap() {
            Equivalence::NotEqual(cex) => {
                // The counterexample fixes hdr.h.a to one side of the branch.
                assert!(cex.inputs.contains_key("hdr.h.a"));
                assert!(!cex.differing_outputs.is_empty());
            }
            Equivalence::Equal => panic!("swapped branches must be detected"),
        }
    }

    #[test]
    fn table_semantics_compare_equal_across_identical_programs() {
        let (locals, apply) = builder::figure3_table_control();
        let before = builder::v1model_program(locals.clone(), apply.clone());
        let after = builder::v1model_program(locals, apply);
        assert!(check_equivalence(&before, &after).unwrap().is_equal());
    }

    #[test]
    fn session_cache_agrees_with_the_uncached_path() {
        // The same pairs, checked through a shared session (cached
        // semantics + incremental solver) and through the one-shot path,
        // must produce the same verdicts.
        let equal_pair = {
            let before = builder::v1model_program(
                vec![],
                Block::new(vec![Statement::assign(
                    Expr::dotted(&["hdr", "h", "a"]),
                    Expr::binary(
                        BinOp::Add,
                        Expr::dotted(&["hdr", "h", "b"]),
                        Expr::uint(0, 8),
                    ),
                )]),
            );
            let after = builder::v1model_program(
                vec![],
                Block::new(vec![Statement::assign(
                    Expr::dotted(&["hdr", "h", "a"]),
                    Expr::dotted(&["hdr", "h", "b"]),
                )]),
            );
            (before, after)
        };
        let unequal_pair = (
            builder::trivial_program(),
            builder::v1model_program(vec![], Block::empty()),
        );

        let mut session = ValidationSession::new();
        for (before, after) in [&equal_pair, &unequal_pair] {
            let uncached = check_equivalence(before, after).unwrap();
            let cached = session.check_pair(before, after).unwrap();
            assert_eq!(cached.is_equal(), uncached.is_equal());
            // Re-checking through the session hits the semantics cache and
            // still agrees.
            let cached_again = session.check_pair(before, after).unwrap();
            assert_eq!(cached_again.is_equal(), uncached.is_equal());
        }
        let stats = session.stats();
        assert!(
            stats.semantics_hits >= 4,
            "re-checks must hit the cache: {stats:?}"
        );
        assert_eq!(stats.semantics_misses, 4);
    }

    #[test]
    fn session_reuses_semantics_across_a_chain() {
        // A chain p0 -> p1 -> p2: the middle program's semantics must be
        // interpreted once, not twice.
        let p0 = builder::trivial_program();
        let p1 = p0.clone();
        let p2 = p0.clone();
        let mut session = ValidationSession::new();
        assert!(session.check_pair(&p0, &p1).unwrap().is_equal());
        assert!(session.check_pair(&p1, &p2).unwrap().is_equal());
        let stats = session.stats();
        // All three programs are structurally identical here, so a single
        // interpretation serves the whole chain.
        assert_eq!(stats.semantics_misses, 1);
        assert_eq!(stats.semantics_hits, 3);
        // And identical programs decide without the solver (hash-consing
        // collapses the queries to `false`).
        assert_eq!(stats.solver_checks, 0);
        assert_eq!(stats.trivial_checks, 2);
    }

    #[test]
    fn wraparound_miscompilation_is_detected() {
        // 250 + 10 folded without wraparound (260 is not representable).
        let before = builder::v1model_program(
            vec![],
            Block::new(vec![Statement::assign(
                Expr::dotted(&["hdr", "h", "a"]),
                Expr::binary(
                    BinOp::Add,
                    Expr::uint(250, 8),
                    Expr::dotted(&["hdr", "h", "b"]),
                ),
            )]),
        );
        let after = builder::v1model_program(
            vec![],
            Block::new(vec![Statement::assign(
                Expr::dotted(&["hdr", "h", "a"]),
                Expr::binary(
                    BinOp::Sub,
                    Expr::uint(250, 8),
                    Expr::dotted(&["hdr", "h", "b"]),
                ),
            )]),
        );
        assert!(!check_equivalence(&before, &after).unwrap().is_equal());
    }

    /// Pairs covering every verdict shape: equal (identical, folded equal,
    /// and equal only by solving), and unequal in a dropped write, swapped
    /// branches and a non-wrapping fold.  A satisfiable pair comes before
    /// the pair that needs the solver to prove it equal.
    fn verdict_fixture_pairs() -> Vec<(Program, Program)> {
        let field = |name: &str| Expr::dotted(&["hdr", "h", name]);
        let assign = |name: &str, value: Expr| Statement::assign(field(name), value);
        let branch = |then_value: u128, else_value: u128| {
            builder::v1model_program(
                vec![],
                Block::new(vec![Statement::if_else(
                    Expr::binary(BinOp::Eq, field("a"), Expr::uint(0, 8)),
                    assign("b", Expr::uint(then_value, 8)),
                    assign("b", Expr::uint(else_value, 8)),
                )]),
            )
        };
        let with_apply =
            |value: Expr| builder::v1model_program(vec![], Block::new(vec![assign("a", value)]));
        // (b & c) | (b & ~c) == b, which hash-consing does not fold.
        let masked = Expr::binary(
            BinOp::BitOr,
            Expr::binary(BinOp::BitAnd, field("b"), field("c")),
            Expr::binary(
                BinOp::BitAnd,
                field("b"),
                Expr::unary(p4_ir::UnOp::BitNot, field("c")),
            ),
        );
        vec![
            (builder::trivial_program(), builder::trivial_program()),
            (
                with_apply(Expr::binary(BinOp::Add, field("b"), Expr::uint(0, 8))),
                with_apply(field("b")),
            ),
            (
                builder::trivial_program(),
                builder::v1model_program(vec![], Block::empty()),
            ),
            (with_apply(masked), with_apply(field("b"))),
            (branch(1, 2), branch(2, 1)),
            (
                with_apply(Expr::binary(BinOp::Add, Expr::uint(250, 8), field("b"))),
                with_apply(Expr::binary(BinOp::Sub, Expr::uint(250, 8), field("b"))),
            ),
        ]
    }

    #[test]
    fn verdict_only_check_agrees_with_check_pair() {
        // A fresh session per pair; one long-lived verdict-only session, as
        // in reduction; and one session where the verdict-only check runs
        // after check_pair and meets its cached verdicts.
        let mut verdict_only = ValidationSession::new();
        let mut after_full = ValidationSession::new();
        for (before, after) in verdict_fixture_pairs() {
            let full = ValidationSession::new()
                .check_pair(&before, &after)
                .unwrap();
            let expected = match &full {
                Equivalence::Equal => PairVerdict::Equal,
                Equivalence::NotEqual(counterexample) => PairVerdict::Differs {
                    block: counterexample.block.clone(),
                },
            };
            let verdict = ValidationSession::new()
                .check_pair_verdict(&before, &after)
                .unwrap();
            assert_eq!(verdict, expected);
            assert_eq!(verdict == PairVerdict::Equal, full.is_equal());
            assert_eq!(
                verdict_only.check_pair_verdict(&before, &after).unwrap(),
                expected
            );
            after_full.check_pair(&before, &after).unwrap();
            assert_eq!(
                after_full.check_pair_verdict(&before, &after).unwrap(),
                expected
            );
        }
        // Every pair but the two that fold needs the solver, the pair that
        // is equal only by solving included.
        assert_eq!(verdict_only.stats().solver_checks, 4);
    }

    #[test]
    fn verdict_only_check_returns_the_same_structure_mismatch() {
        let before = builder::trivial_program();
        let mut after = builder::trivial_program();
        // `standard_metadata` no longer copies out, so its outputs vanish.
        for param in &mut after.control_mut("ingress_impl").unwrap().params {
            if param.name == "standard_metadata" {
                param.direction = p4_ir::Direction::In;
            }
        }
        let full = ValidationSession::new().check_pair(&before, &after);
        let verdict = ValidationSession::new().check_pair_verdict(&before, &after);
        match (full, verdict) {
            (
                Err(EquivalenceError::StructureMismatch { block, detail }),
                Err(EquivalenceError::StructureMismatch {
                    block: verdict_block,
                    detail: verdict_detail,
                }),
            ) => {
                assert_eq!((block, detail), (verdict_block, verdict_detail));
            }
            other => panic!("expected two structure mismatches, got {other:?}"),
        }
    }

    #[test]
    fn verdict_only_check_decides_a_satisfiable_query_once() {
        let before = builder::trivial_program();
        let after = builder::v1model_program(vec![], Block::empty());
        let mut session = ValidationSession::new();
        let first = session.check_pair_verdict(&before, &after).unwrap();
        assert!(matches!(first, PairVerdict::Differs { .. }));
        let stats = session.stats();
        assert_eq!(stats.solver_checks, 1);
        assert_eq!(stats.verdict_misses, 1);
        // The warm solver's model is not canonical: it stays out of the
        // verdict memo.
        assert_eq!(session.cache().stats().verdict_misses, 0);
        assert_eq!(session.check_pair_verdict(&before, &after).unwrap(), first);
        let again = session.stats();
        assert_eq!(again.verdict_misses, 1, "the repeated query was re-solved");
        assert_eq!(again.solver_checks, 1);
        assert_eq!(again.cached_checks, 1);
        assert_eq!(again.verdict_hits, 1);
    }
}
