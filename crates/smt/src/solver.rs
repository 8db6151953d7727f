//! Solver facade: the `Z3`-shaped API the rest of the workspace uses.
//!
//! A [`Solver`] accumulates boolean assertions (terms) and decides their
//! conjunction by bit-blasting into the CDCL SAT core.  On SAT it returns a
//! [`Model`] mapping every variable that occurred in the assertions to a
//! concrete value; on UNSAT it reports unsatisfiability.  This is exactly
//! the interface translation validation (§5) and test-case generation (§6)
//! need.

use crate::bitblast::{BitBlaster, BlastContext, Repr};
use crate::eval::{eval_with_default, Assignment, Value};
use crate::sat::{Lit, SatResult, SatSolver};
use crate::term::TermRef;
use crate::value::BvValue;
use std::collections::HashMap;

/// A satisfying assignment for the variables of a query.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Model {
    values: HashMap<String, Value>,
}

impl Model {
    pub fn new(values: HashMap<String, Value>) -> Model {
        Model { values }
    }

    /// Value of a named variable, if it occurred in the query.
    pub fn get(&self, name: &str) -> Option<&Value> {
        self.values.get(name)
    }

    /// Bit-vector value of a named variable (booleans become 1-bit vectors).
    pub fn get_bv(&self, name: &str) -> Option<BvValue> {
        self.values.get(name).map(Value::as_bv)
    }

    /// Boolean value of a named variable.
    pub fn get_bool(&self, name: &str) -> Option<bool> {
        self.values.get(name).map(Value::as_bool)
    }

    /// Evaluates an arbitrary term under this model.  Variables absent from
    /// the model default to zero (they were "don't care" in the query).
    pub fn eval(&self, term: &TermRef) -> Value {
        eval_with_default(term, &self.values)
    }

    /// All variable bindings.
    pub fn bindings(&self) -> &HashMap<String, Value> {
        &self.values
    }

    /// The model as an evaluation environment.
    pub fn as_assignment(&self) -> Assignment {
        self.values.clone()
    }
}

/// Result of a [`Solver::check`] call.
#[derive(Debug, Clone, PartialEq)]
pub enum CheckResult {
    Sat(Model),
    Unsat,
}

impl CheckResult {
    pub fn is_sat(&self) -> bool {
        matches!(self, CheckResult::Sat(_))
    }

    pub fn model(&self) -> Option<&Model> {
        match self {
            CheckResult::Sat(model) => Some(model),
            CheckResult::Unsat => None,
        }
    }
}

/// Statistics from one `check` call, surfaced to the benchmark harness.
///
/// `sat_variables`/`sat_clauses` are totals for the (possibly long-lived)
/// underlying SAT instance; the search counters (`conflicts`, `decisions`,
/// `propagations`) cover only the most recent check.  `memo_hits` counts
/// lookups the last check served from encodings built by *earlier* checks —
/// the subterms it did not have to re-bitblast thanks to the incremental
/// term-to-CNF memo.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct SolverStats {
    pub sat_variables: usize,
    pub sat_clauses: usize,
    pub conflicts: u64,
    pub decisions: u64,
    pub propagations: u64,
    pub memo_hits: usize,
}

/// An accumulating, incremental solver over terms.
///
/// The solver keeps one SAT instance and one bit-blasting memo alive for its
/// whole lifetime.  Assertions are lowered once when first checked;
/// [`Solver::check_with`] extras are lowered to indicator literals and
/// passed to the SAT core as *assumptions*, so they are decided without
/// being retained and without discarding any of the already-built CNF —
/// Z3's `push`/`check`/`pop` idiom, with learned clauses carrying over
/// between checks.  Chains of related queries over one [`crate::TermManager`]
/// (translation validation of consecutive pass pairs) therefore bit-blast
/// every shared subterm exactly once.
#[derive(Debug)]
pub struct Solver {
    assertions: Vec<TermRef>,
    /// How many of `assertions` are already lowered into `sat`.
    lowered: usize,
    sat: SatSolver,
    ctx: BlastContext,
    last_stats: SolverStats,
    total_checks: u64,
}

impl Default for Solver {
    fn default() -> Solver {
        Solver::new()
    }
}

impl Solver {
    pub fn new() -> Solver {
        Solver {
            assertions: Vec::new(),
            lowered: 0,
            sat: SatSolver::new(),
            ctx: BlastContext::new(),
            last_stats: SolverStats::default(),
            total_checks: 0,
        }
    }

    /// Adds a boolean assertion.
    pub fn assert(&mut self, term: TermRef) {
        debug_assert!(term.sort.is_bool(), "assertions must be boolean terms");
        self.assertions.push(term);
    }

    /// Number of assertions added so far.
    pub fn len(&self) -> usize {
        self.assertions.len()
    }

    pub fn is_empty(&self) -> bool {
        self.assertions.is_empty()
    }

    /// Removes all assertions and discards the incremental SAT state.
    pub fn reset(&mut self) {
        self.assertions.clear();
        self.lowered = 0;
        self.sat = SatSolver::new();
        self.ctx = BlastContext::new();
    }

    /// Statistics of the most recent `check`/`check_with` call.
    pub fn stats(&self) -> SolverStats {
        self.last_stats
    }

    /// Number of `check`/`check_with` calls over this solver's lifetime.
    pub fn total_checks(&self) -> u64 {
        self.total_checks
    }

    /// Decides the conjunction of all assertions.
    pub fn check(&mut self) -> CheckResult {
        self.check_with(&[])
    }

    /// Decides the conjunction of all assertions plus `extra` (which are not
    /// retained), mirroring Z3's push/assert/check/pop idiom.
    pub fn check_with(&mut self, extra: &[TermRef]) -> CheckResult {
        // Observation only: times the whole decision (blast + solve) into
        // the flight recorder's latency histogram when one is installed.
        let telemetry_query = gauntlet_telemetry::query_start();
        self.total_checks += 1;
        let (conflicts0, decisions0, propagations0) = (
            self.sat.conflicts,
            self.sat.decisions,
            self.sat.propagations,
        );

        // Lower assertions added since the last check as permanent unit
        // clauses; lower extras to indicator literals used as assumptions.
        let mut assumptions: Vec<Lit> = Vec::with_capacity(extra.len());
        {
            let mut blaster = BitBlaster::new(&mut self.sat, &mut self.ctx);
            let pending = self.assertions[self.lowered..].to_vec();
            for assertion in &pending {
                blaster.assert(assertion);
            }
            for term in extra {
                debug_assert!(term.sort.is_bool(), "checked terms must be boolean");
                assumptions.push(blaster.blast(term).as_bool());
            }
        }
        self.lowered = self.assertions.len();
        let memo_hits = self.ctx.cross_generation_hits();

        let result = self.sat.solve_with_assumptions(&assumptions);
        self.last_stats = SolverStats {
            sat_variables: self.sat.num_vars(),
            sat_clauses: self.sat.num_clauses(),
            conflicts: self.sat.conflicts - conflicts0,
            decisions: self.sat.decisions - decisions0,
            propagations: self.sat.propagations - propagations0,
            memo_hits,
        };
        let result = match result {
            SatResult::Unsat => CheckResult::Unsat,
            SatResult::Sat(assignment) => {
                CheckResult::Sat(Model::new(extract_values(&self.ctx, &assignment)))
            }
        };
        gauntlet_telemetry::query_finish(telemetry_query);
        result
    }

    /// Convenience: checks whether two terms of equal sort can differ.  This
    /// is the core query of translation validation (§5.2): it is satisfiable
    /// only if there is an input on which the two programs disagree.
    pub fn check_distinct(
        &mut self,
        tm: &crate::term::TermManager,
        a: TermRef,
        b: TermRef,
    ) -> CheckResult {
        let distinct = tm.neq(a, b);
        self.check_with(&[distinct])
    }
}

/// Named-variable values under a satisfying assignment, read through the
/// blast context that produced the CNF.
fn extract_values(ctx: &BlastContext, assignment: &[bool]) -> HashMap<String, Value> {
    let mut values = HashMap::new();
    for (name, repr) in ctx.variables() {
        let value = match repr {
            Repr::Bool(lit) => Value::Bool(assignment[lit.var() as usize] ^ lit.is_negated()),
            Repr::Bits(bits) => Value::Bv(BvValue::from_bits(
                bits.iter()
                    .map(|l| assignment[l.var() as usize] ^ l.is_negated())
                    .collect(),
            )),
        };
        values.insert(name.to_string(), value);
    }
    values
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::term::{Sort, TermManager};

    #[test]
    fn sat_model_evaluates_assertions_true() {
        let tm = TermManager::new();
        let mut solver = Solver::new();
        let x = tm.var("x", Sort::BitVec(8));
        let y = tm.var("y", Sort::BitVec(8));
        let a1 = tm.eq(tm.bv_add(x.clone(), y.clone()), tm.bv_const(10, 8));
        let a2 = tm.bv_ult(x.clone(), y.clone());
        solver.assert(a1.clone());
        solver.assert(a2.clone());
        match solver.check() {
            CheckResult::Sat(model) => {
                assert!(model.eval(&a1).as_bool());
                assert!(model.eval(&a2).as_bool());
                let xv = model.get_bv("x").unwrap().to_u128();
                let yv = model.get_bv("y").unwrap().to_u128();
                assert_eq!((xv + yv) % 256, 10);
                assert!(xv < yv);
            }
            CheckResult::Unsat => panic!("satisfiable instance reported UNSAT"),
        }
    }

    #[test]
    fn unsat_conjunction() {
        let tm = TermManager::new();
        let mut solver = Solver::new();
        let x = tm.var("x", Sort::BitVec(4));
        solver.assert(tm.bv_ult(x.clone(), tm.bv_const(3, 4)));
        solver.assert(tm.bv_ult(tm.bv_const(10, 4), x.clone()));
        assert_eq!(solver.check(), CheckResult::Unsat);
    }

    #[test]
    fn check_with_does_not_retain_extras() {
        let tm = TermManager::new();
        let mut solver = Solver::new();
        let x = tm.var("x", Sort::BitVec(4));
        solver.assert(tm.bv_ult(x.clone(), tm.bv_const(3, 4)));
        let contradiction = tm.bv_ult(tm.bv_const(10, 4), x.clone());
        assert_eq!(solver.check_with(&[contradiction]), CheckResult::Unsat);
        // Without the extra assertion the instance is satisfiable again.
        assert!(solver.check().is_sat());
        assert!(solver.stats().sat_variables > 0);
    }

    #[test]
    fn check_distinct_detects_semantic_difference() {
        let tm = TermManager::new();
        let mut solver = Solver::new();
        let x = tm.var("x", Sort::BitVec(8));
        // f(x) = x + 1 vs g(x) = x + 2 differ everywhere.
        let f = tm.bv_add(x.clone(), tm.bv_const(1, 8));
        let g = tm.bv_add(x.clone(), tm.bv_const(2, 8));
        assert!(solver.check_distinct(&tm, f.clone(), g).is_sat());
        // f vs f + 0 are equivalent.
        let f2 = tm.bv_add(f.clone(), tm.bv_const(0, 8));
        assert_eq!(solver.check_distinct(&tm, f, f2), CheckResult::Unsat);
    }

    #[test]
    fn incremental_checks_reuse_the_cnf_memo() {
        let tm = TermManager::new();
        let mut solver = Solver::new();
        let x = tm.var("x", Sort::BitVec(16));
        let y = tm.var("y", Sort::BitVec(16));
        // A moderately large shared subterm.
        let shared = tm.bv_mul(
            tm.bv_add(x.clone(), y.clone()),
            tm.bv_xor(x.clone(), y.clone()),
        );
        let q1 = tm.bv_ult(shared.clone(), tm.bv_const(100, 16));
        assert!(solver.check_with(std::slice::from_ref(&q1)).is_sat());
        let first_clauses = solver.stats().sat_clauses;
        assert_eq!(solver.stats().memo_hits, 0, "first check starts cold");
        // A second query over the same subterm must hit the memo instead of
        // re-bitblasting the multiplier.
        let q2 = tm.bv_ult(tm.bv_const(200, 16), shared.clone());
        assert!(solver.check_with(&[q2]).is_sat());
        assert!(
            solver.stats().memo_hits > 0,
            "shared subterm must be memoised"
        );
        let second_clauses = solver.stats().sat_clauses - first_clauses;
        assert!(
            second_clauses < first_clauses / 2,
            "incremental check re-encoded too much: {second_clauses} vs {first_clauses}"
        );
        // Results stay correct in both directions after many checks.
        assert_eq!(
            solver.check_with(&[tm.neq(shared.clone(), shared.clone())]),
            CheckResult::Unsat
        );
        assert!(solver.check_with(&[q1]).is_sat());
    }

    #[test]
    fn incremental_checks_respect_retained_assertions() {
        let tm = TermManager::new();
        let mut solver = Solver::new();
        let x = tm.var("x", Sort::BitVec(8));
        solver.assert(tm.bv_ult(x.clone(), tm.bv_const(10, 8)));
        assert!(solver.check().is_sat());
        // A later assertion narrows the space incrementally.
        solver.assert(tm.bv_ult(tm.bv_const(7, 8), x.clone()));
        match solver.check() {
            CheckResult::Sat(model) => {
                let value = model.get_bv("x").unwrap().to_u128();
                assert!(value > 7 && value < 10);
            }
            CheckResult::Unsat => panic!("8 and 9 satisfy both bounds"),
        }
        solver.assert(tm.bv_ult(tm.bv_const(8, 8), x.clone()));
        solver.assert(tm.neq(x.clone(), tm.bv_const(9, 8)));
        assert_eq!(solver.check(), CheckResult::Unsat);
    }

    /// An UNSAT miter that needs real conflict analysis: commuted
    /// multiplication, kept narrow because UNSAT proofs over multipliers
    /// grow steeply with width.  An extra xor layer defeats hash-consing's
    /// syntactic collapse so the query actually reaches the SAT core.
    fn commuted_multiplication_miter(tm: &TermManager) -> TermRef {
        let x = tm.var("x", Sort::BitVec(5));
        let y = tm.var("y", Sort::BitVec(5));
        let lhs = tm.bv_xor(
            tm.bv_mul(x.clone(), y.clone()),
            tm.bv_add(x.clone(), y.clone()),
        );
        let rhs = tm.bv_xor(
            tm.bv_mul(y.clone(), x.clone()),
            tm.bv_add(x.clone(), y.clone()),
        );
        tm.neq(lhs, rhs)
    }

    /// A freshly constructed solver searches exactly like one whose SAT
    /// instance was rebuilt by `reset`: both start from the same VSIDS
    /// state, so a query that needs conflicts takes the same number of
    /// conflicts and decisions either way.
    #[test]
    fn new_solver_searches_like_a_reset_one() {
        let tm = TermManager::new();
        let query = commuted_multiplication_miter(&tm);

        let mut fresh = Solver::new();
        assert_eq!(
            fresh.check_with(std::slice::from_ref(&query)),
            CheckResult::Unsat
        );
        let mut reset = Solver::new();
        reset.reset();
        assert_eq!(
            reset.check_with(std::slice::from_ref(&query)),
            CheckResult::Unsat
        );

        let (fresh, reset) = (fresh.stats(), reset.stats());
        assert!(fresh.conflicts > 0, "the miter must need conflict analysis");
        assert_eq!(
            (fresh.conflicts, fresh.decisions),
            (reset.conflicts, reset.decisions),
            "a new solver must search with the same VSIDS state as a reset one"
        );
    }

    /// A budget-limited solve gives up cleanly and the solver stays usable.
    #[test]
    fn budgeted_solve_is_resumable() {
        use crate::sat::{SatResult, SatSolver};
        // Pigeonhole PHP(5,4): UNSAT and needs real search.
        let pigeons = 5;
        let holes = 4;
        let var = |p: usize, h: usize| (p * holes + h) as u32;
        let mut sat = SatSolver::new();
        for _ in 0..pigeons * holes {
            sat.new_var();
        }
        for p in 0..pigeons {
            let clause: Vec<Lit> = (0..holes).map(|h| Lit::positive(var(p, h))).collect();
            sat.add_clause(&clause);
        }
        for h in 0..holes {
            for p1 in 0..pigeons {
                for p2 in (p1 + 1)..pigeons {
                    sat.add_clause(&[Lit::negative(var(p1, h)), Lit::negative(var(p2, h))]);
                }
            }
        }
        assert_eq!(
            sat.solve_limited(&[], Some(1)),
            None,
            "budget of one conflict cannot finish PHP(5,4)"
        );
        // The interrupted instance resumes and still answers correctly.
        assert_eq!(sat.solve_limited(&[], None), Some(SatResult::Unsat));
    }

    #[test]
    fn boolean_variables_in_models() {
        let tm = TermManager::new();
        let mut solver = Solver::new();
        let p = tm.var("p", Sort::Bool);
        let q = tm.var("q", Sort::Bool);
        solver.assert(tm.and2(p.clone(), tm.not(q.clone())));
        match solver.check() {
            CheckResult::Sat(model) => {
                assert_eq!(model.get_bool("p"), Some(true));
                assert_eq!(model.get_bool("q"), Some(false));
            }
            CheckResult::Unsat => panic!("satisfiable"),
        }
    }
}
