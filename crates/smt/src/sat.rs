//! A CDCL SAT solver.
//!
//! The bit-blaster lowers QF_BV queries to CNF; this module decides them.
//! The solver implements the standard conflict-driven clause learning loop:
//! two-watched-literal unit propagation, first-UIP conflict analysis,
//! non-chronological backjumping, VSIDS-style variable activities with phase
//! saving, and geometric restarts.  Instances produced by Gauntlet's
//! equivalence checks are small (hundreds to a few thousand variables), so
//! clarity is favoured over heavy optimisation throughout.

/// A propositional variable, numbered from 0.
pub type Var = u32;

/// A literal: variable plus polarity, encoded as `var * 2 + negated`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct Lit(u32);

impl Lit {
    pub fn positive(var: Var) -> Lit {
        Lit(var * 2)
    }

    pub fn negative(var: Var) -> Lit {
        Lit(var * 2 + 1)
    }

    pub fn new(var: Var, negated: bool) -> Lit {
        Lit(var * 2 + u32::from(negated))
    }

    pub fn var(self) -> Var {
        self.0 / 2
    }

    pub fn is_negated(self) -> bool {
        self.0 & 1 == 1
    }

    pub fn negate(self) -> Lit {
        Lit(self.0 ^ 1)
    }

    /// Dense index usable for watch lists.
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

/// Result of a satisfiability check.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SatResult {
    /// Satisfiable, with one satisfying assignment (indexed by variable).
    Sat(Vec<bool>),
    Unsat,
}

impl SatResult {
    pub fn is_sat(&self) -> bool {
        matches!(self, SatResult::Sat(_))
    }
}

#[derive(Debug)]
struct Clause {
    lits: Vec<Lit>,
    /// Whether the clause was learned during conflict analysis (kept for
    /// statistics and future clause-database reduction).
    #[allow(dead_code)]
    learned: bool,
}

const UNASSIGNED: i8 = 0;

/// Conflicts before the first restart.
const RESTART_BASE: u64 = 100;
/// Geometric restart growth as a `(numerator, denominator)` ratio.
const RESTART_GROWTH: (u64, u64) = (3, 2);
/// Initial saved phase for fresh variables (phase saving overwrites it as
/// soon as a variable is first assigned).
const INITIAL_PHASE: bool = false;
/// VSIDS activity decay factor (activities are divided by this after every
/// conflict; smaller means faster forgetting).
const ACTIVITY_DECAY: f64 = 0.95;

/// The CDCL solver.
#[derive(Debug)]
pub struct SatSolver {
    clauses: Vec<Clause>,
    /// watches[lit.index()] = clause indices watching `lit`.
    watches: Vec<Vec<usize>>,
    /// assign[var] = 0 unassigned, 1 true, -1 false.
    assign: Vec<i8>,
    level: Vec<u32>,
    reason: Vec<Option<usize>>,
    trail: Vec<Lit>,
    trail_lim: Vec<usize>,
    qhead: usize,
    activity: Vec<f64>,
    /// The VSIDS bump amount; it grows by `1 / ACTIVITY_DECAY` per
    /// conflict, so it must start positive or activities never move.
    var_inc: f64,
    phase: Vec<bool>,
    /// Set when an empty clause is added; the instance is trivially UNSAT.
    trivially_unsat: bool,
    /// Statistics: number of conflicts encountered.
    pub conflicts: u64,
    /// Statistics: number of decisions made.
    pub decisions: u64,
    /// Statistics: number of literals propagated.
    pub propagations: u64,
}

impl Default for SatSolver {
    fn default() -> SatSolver {
        SatSolver::new()
    }
}

impl SatSolver {
    /// An empty instance.  This is the only constructor: every field is
    /// written here, so no caller can build a solver with VSIDS switched
    /// off.
    pub fn new() -> SatSolver {
        SatSolver {
            clauses: Vec::new(),
            watches: Vec::new(),
            assign: Vec::new(),
            level: Vec::new(),
            reason: Vec::new(),
            trail: Vec::new(),
            trail_lim: Vec::new(),
            qhead: 0,
            activity: Vec::new(),
            var_inc: 1.0,
            phase: Vec::new(),
            trivially_unsat: false,
            conflicts: 0,
            decisions: 0,
            propagations: 0,
        }
    }

    /// Allocates and returns a fresh variable.
    pub fn new_var(&mut self) -> Var {
        let var = self.assign.len() as Var;
        self.assign.push(UNASSIGNED);
        self.level.push(0);
        self.reason.push(None);
        self.activity.push(0.0);
        self.phase.push(INITIAL_PHASE);
        self.watches.push(Vec::new());
        self.watches.push(Vec::new());
        var
    }

    pub fn num_vars(&self) -> usize {
        self.assign.len()
    }

    pub fn num_clauses(&self) -> usize {
        self.clauses.len()
    }

    fn value(&self, lit: Lit) -> i8 {
        let v = self.assign[lit.var() as usize];
        if lit.is_negated() {
            -v
        } else {
            v
        }
    }

    /// Adds a clause.  Must be called before `solve` (no incremental solving
    /// under assumptions beyond what [`SatSolver::solve_with_assumptions`]
    /// provides).
    pub fn add_clause(&mut self, lits: &[Lit]) {
        debug_assert!(
            self.trail_lim.is_empty(),
            "clauses must be added at decision level 0"
        );
        // Deduplicate and check for tautology.
        let mut sorted: Vec<Lit> = lits.to_vec();
        sorted.sort();
        sorted.dedup();
        for window in sorted.windows(2) {
            if window[0].var() == window[1].var() {
                return; // x ∨ ¬x: tautology, skip.
            }
        }
        // Remove literals already false at level 0; drop clause if any literal
        // is already true at level 0.
        let mut reduced = Vec::with_capacity(sorted.len());
        for &lit in &sorted {
            match self.value(lit) {
                1 => return,
                -1 => {}
                _ => reduced.push(lit),
            }
        }
        match reduced.len() {
            0 => self.trivially_unsat = true,
            1 => {
                if !self.enqueue(reduced[0], None) || self.propagate().is_some() {
                    self.trivially_unsat = true;
                }
            }
            _ => {
                let idx = self.clauses.len();
                self.watches[reduced[0].index()].push(idx);
                self.watches[reduced[1].index()].push(idx);
                self.clauses.push(Clause {
                    lits: reduced,
                    learned: false,
                });
            }
        }
    }

    fn enqueue(&mut self, lit: Lit, reason: Option<usize>) -> bool {
        match self.value(lit) {
            1 => true,
            -1 => false,
            _ => {
                let var = lit.var() as usize;
                self.assign[var] = if lit.is_negated() { -1 } else { 1 };
                self.level[var] = self.decision_level();
                self.reason[var] = reason;
                self.phase[var] = !lit.is_negated();
                self.trail.push(lit);
                true
            }
        }
    }

    fn decision_level(&self) -> u32 {
        self.trail_lim.len() as u32
    }

    /// Unit propagation.  Returns the index of a conflicting clause, if any.
    fn propagate(&mut self) -> Option<usize> {
        while self.qhead < self.trail.len() {
            let lit = self.trail[self.qhead];
            self.qhead += 1;
            self.propagations += 1;
            let false_lit = lit.negate();
            let mut watch_list = std::mem::take(&mut self.watches[false_lit.index()]);
            let mut i = 0;
            while i < watch_list.len() {
                let clause_idx = watch_list[i];
                // Make sure the false literal is at position 1.
                let (first, second) = {
                    let clause = &mut self.clauses[clause_idx];
                    if clause.lits[0] == false_lit {
                        clause.lits.swap(0, 1);
                    }
                    (clause.lits[0], clause.lits[1])
                };
                debug_assert_eq!(second, false_lit);
                // If the other watched literal is already true, keep watching.
                if self.value(first) == 1 {
                    i += 1;
                    continue;
                }
                // Look for a new literal to watch.
                let mut found = None;
                {
                    let clause = &self.clauses[clause_idx];
                    for (j, &other) in clause.lits.iter().enumerate().skip(2) {
                        if self.value(other) != -1 {
                            found = Some((j, other));
                            break;
                        }
                    }
                }
                if let Some((j, other)) = found {
                    self.clauses[clause_idx].lits.swap(1, j);
                    self.watches[other.index()].push(clause_idx);
                    watch_list.swap_remove(i);
                    continue;
                }
                // No new watch: the clause is unit or conflicting.
                if !self.enqueue(first, Some(clause_idx)) {
                    // Conflict: restore remaining watches and report.
                    self.watches[false_lit.index()].extend_from_slice(&watch_list[i..]);
                    self.watches[false_lit.index()].extend_from_slice(&watch_list[..i]);
                    self.qhead = self.trail.len();
                    return Some(clause_idx);
                }
                i += 1;
            }
            self.watches[false_lit.index()] = watch_list;
        }
        None
    }

    fn bump_var(&mut self, var: Var) {
        self.activity[var as usize] += self.var_inc;
        if self.activity[var as usize] > 1e100 {
            for a in &mut self.activity {
                *a *= 1e-100;
            }
            self.var_inc *= 1e-100;
        }
    }

    fn decay_activities(&mut self) {
        self.var_inc /= ACTIVITY_DECAY;
    }

    /// First-UIP conflict analysis.  Returns the learned clause (asserting
    /// literal first) and the backjump level.
    fn analyze(&mut self, conflict: usize) -> (Vec<Lit>, u32) {
        let mut learned: Vec<Lit> = vec![Lit::positive(0)]; // placeholder for the asserting literal
        let mut seen = vec![false; self.num_vars()];
        let mut counter = 0usize;
        let mut lit: Option<Lit> = None;
        let mut clause_idx = conflict;
        let mut trail_pos = self.trail.len();
        let current_level = self.decision_level();

        loop {
            let clause_lits: Vec<Lit> = self.clauses[clause_idx].lits.clone();
            // Skip the asserting literal slot on the first iteration only.
            let skip = usize::from(lit.is_some());
            for &q in clause_lits.iter().skip(skip) {
                let var = q.var() as usize;
                if !seen[var] && self.level[var] > 0 {
                    seen[var] = true;
                    self.bump_var(q.var());
                    if self.level[var] >= current_level {
                        counter += 1;
                    } else {
                        learned.push(q);
                    }
                }
            }
            // Find the next literal on the trail to resolve on.
            loop {
                trail_pos -= 1;
                let p = self.trail[trail_pos];
                if seen[p.var() as usize] {
                    lit = Some(p);
                    break;
                }
            }
            let p = lit.expect("found a literal to resolve on");
            seen[p.var() as usize] = false;
            counter -= 1;
            if counter == 0 {
                learned[0] = p.negate();
                break;
            }
            clause_idx = self.reason[p.var() as usize].expect("non-decision literal has a reason");
        }

        // Compute backjump level: the highest level among the other literals.
        let backjump_level = if learned.len() == 1 {
            0
        } else {
            let mut max_i = 1;
            for i in 2..learned.len() {
                if self.level[learned[i].var() as usize] > self.level[learned[max_i].var() as usize]
                {
                    max_i = i;
                }
            }
            learned.swap(1, max_i);
            self.level[learned[1].var() as usize]
        };
        (learned, backjump_level)
    }

    fn backjump(&mut self, level: u32) {
        while self.decision_level() > level {
            let lim = self
                .trail_lim
                .pop()
                .expect("decision level > 0 has a limit");
            while self.trail.len() > lim {
                let lit = self
                    .trail
                    .pop()
                    .expect("trail is non-empty above the limit");
                let var = lit.var() as usize;
                self.assign[var] = UNASSIGNED;
                self.reason[var] = None;
            }
        }
        self.qhead = self.trail.len();
    }

    fn learn(&mut self, learned: Vec<Lit>) {
        if learned.len() == 1 {
            let ok = self.enqueue(learned[0], None);
            debug_assert!(
                ok,
                "asserting unit literal must be enqueueable after backjump"
            );
            return;
        }
        let idx = self.clauses.len();
        self.watches[learned[0].index()].push(idx);
        self.watches[learned[1].index()].push(idx);
        let asserting = learned[0];
        self.clauses.push(Clause {
            lits: learned,
            learned: true,
        });
        let ok = self.enqueue(asserting, Some(idx));
        debug_assert!(ok, "asserting literal must be enqueueable after backjump");
    }

    fn decide(&mut self) -> bool {
        let mut best: Option<Var> = None;
        let mut best_activity = -1.0f64;
        for var in 0..self.num_vars() {
            if self.assign[var] == UNASSIGNED && self.activity[var] > best_activity {
                best_activity = self.activity[var];
                best = Some(var as Var);
            }
        }
        match best {
            Some(var) => {
                self.decisions += 1;
                self.trail_lim.push(self.trail.len());
                let lit = Lit::new(var, !self.phase[var as usize]);
                let ok = self.enqueue(lit, None);
                debug_assert!(ok, "decision variable was unassigned");
                true
            }
            None => false,
        }
    }

    /// Decides satisfiability of the added clauses.
    pub fn solve(&mut self) -> SatResult {
        self.solve_with_assumptions(&[])
    }

    /// Decides satisfiability under the given assumption literals.
    pub fn solve_with_assumptions(&mut self, assumptions: &[Lit]) -> SatResult {
        self.solve_limited(assumptions, None)
            .expect("unlimited solve always completes")
    }

    /// Decides satisfiability under assumptions, giving up after
    /// `max_conflicts` conflicts (if given).
    ///
    /// Returns `None` when the budget ran out; the solver backtracks to
    /// level 0 and keeps its learned clauses, so it stays usable (a later
    /// unlimited call resumes with everything learned so far).  Conflicts
    /// are deterministic where wall time is not, so this is the entry point
    /// for a per-query verdict budget.
    pub fn solve_limited(
        &mut self,
        assumptions: &[Lit],
        max_conflicts: Option<u64>,
    ) -> Option<SatResult> {
        if self.trivially_unsat {
            return Some(SatResult::Unsat);
        }
        // Top-level propagation of any pending units.
        if self.propagate().is_some() {
            return Some(SatResult::Unsat);
        }
        // Enqueue assumptions as decisions; a conflict among them is UNSAT
        // (for Gauntlet's use, assumption conflicts never need a core).
        for &assumption in assumptions {
            match self.value(assumption) {
                1 => continue,
                -1 => {
                    self.backjump(0);
                    return Some(SatResult::Unsat);
                }
                _ => {
                    self.trail_lim.push(self.trail.len());
                    let ok = self.enqueue(assumption, None);
                    debug_assert!(ok);
                    if self.propagate().is_some() {
                        self.backjump(0);
                        return Some(SatResult::Unsat);
                    }
                }
            }
        }
        let assumption_level = self.decision_level();

        let mut conflicts_until_restart = RESTART_BASE;
        let mut conflicts_since_restart = 0u64;
        let mut budget_spent = 0u64;
        loop {
            if let Some(conflict) = self.propagate() {
                self.conflicts += 1;
                conflicts_since_restart += 1;
                budget_spent += 1;
                if self.decision_level() <= assumption_level {
                    self.backjump(0);
                    return Some(SatResult::Unsat);
                }
                let (learned, backjump_level) = self.analyze(conflict);
                let target = backjump_level.max(assumption_level);
                self.backjump(target);
                // If the asserting literal is already assigned after
                // backjumping to the assumption level, the instance is UNSAT
                // under the assumptions.
                if self.value(learned[0]) != UNASSIGNED {
                    self.backjump(0);
                    return Some(SatResult::Unsat);
                }
                self.learn(learned);
                self.decay_activities();
                if max_conflicts.is_some_and(|max| budget_spent >= max) {
                    // Give up, keeping everything learned so far.
                    self.backjump(0);
                    return None;
                }
                if conflicts_since_restart >= conflicts_until_restart {
                    conflicts_since_restart = 0;
                    conflicts_until_restart =
                        conflicts_until_restart * RESTART_GROWTH.0 / RESTART_GROWTH.1;
                    self.backjump(assumption_level);
                }
            } else if !self.decide() {
                let model: Vec<bool> = self.assign.iter().map(|&v| v == 1).collect();
                self.backjump(0);
                return Some(SatResult::Sat(model));
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn lit(v: i32) -> Lit {
        if v > 0 {
            Lit::positive((v - 1) as Var)
        } else {
            Lit::negative((-v - 1) as Var)
        }
    }

    fn solver_with_vars(n: usize) -> SatSolver {
        let mut s = SatSolver::new();
        for _ in 0..n {
            s.new_var();
        }
        s
    }

    #[test]
    fn literal_encoding() {
        let l = Lit::positive(3);
        assert_eq!(l.var(), 3);
        assert!(!l.is_negated());
        assert!(l.negate().is_negated());
        assert_eq!(l.negate().negate(), l);
    }

    #[test]
    fn trivially_sat_and_unsat() {
        let mut s = solver_with_vars(1);
        s.add_clause(&[lit(1)]);
        assert!(s.solve().is_sat());

        let mut s = solver_with_vars(1);
        s.add_clause(&[lit(1)]);
        s.add_clause(&[lit(-1)]);
        assert_eq!(s.solve(), SatResult::Unsat);
    }

    #[test]
    fn empty_clause_is_unsat() {
        let mut s = solver_with_vars(1);
        s.add_clause(&[]);
        assert_eq!(s.solve(), SatResult::Unsat);
    }

    #[test]
    fn simple_implication_chain() {
        // (¬1 ∨ 2) ∧ (¬2 ∨ 3) ∧ 1 ∧ ¬3 is UNSAT.
        let mut s = solver_with_vars(3);
        s.add_clause(&[lit(-1), lit(2)]);
        s.add_clause(&[lit(-2), lit(3)]);
        s.add_clause(&[lit(1)]);
        s.add_clause(&[lit(-3)]);
        assert_eq!(s.solve(), SatResult::Unsat);
    }

    #[test]
    fn model_satisfies_all_clauses() {
        let clauses: Vec<Vec<i32>> = vec![
            vec![1, 2, -3],
            vec![-1, 3],
            vec![-2, 3],
            vec![2, 3, 4],
            vec![-4, -1],
        ];
        let mut s = solver_with_vars(4);
        for clause in &clauses {
            let lits: Vec<Lit> = clause.iter().map(|&v| lit(v)).collect();
            s.add_clause(&lits);
        }
        match s.solve() {
            SatResult::Sat(model) => {
                for clause in &clauses {
                    assert!(clause.iter().any(|&v| {
                        let value = model[(v.unsigned_abs() - 1) as usize];
                        if v > 0 {
                            value
                        } else {
                            !value
                        }
                    }));
                }
            }
            SatResult::Unsat => panic!("instance is satisfiable"),
        }
    }

    /// Pigeonhole principle PHP(n+1, n) is unsatisfiable; n=3 keeps it fast
    /// but still requires real conflict analysis.
    #[test]
    fn pigeonhole_is_unsat() {
        let pigeons = 4;
        let holes = 3;
        let var = |p: usize, h: usize| (p * holes + h) as Var;
        let mut s = SatSolver::new();
        for _ in 0..pigeons * holes {
            s.new_var();
        }
        // Every pigeon is in some hole.
        for p in 0..pigeons {
            let clause: Vec<Lit> = (0..holes).map(|h| Lit::positive(var(p, h))).collect();
            s.add_clause(&clause);
        }
        // No two pigeons share a hole.
        for h in 0..holes {
            for p1 in 0..pigeons {
                for p2 in (p1 + 1)..pigeons {
                    s.add_clause(&[Lit::negative(var(p1, h)), Lit::negative(var(p2, h))]);
                }
            }
        }
        assert_eq!(s.solve(), SatResult::Unsat);
    }

    #[test]
    fn assumptions_restrict_models() {
        let mut s = solver_with_vars(2);
        s.add_clause(&[lit(1), lit(2)]);
        match s.solve_with_assumptions(&[lit(-1)]) {
            SatResult::Sat(model) => {
                assert!(!model[0]);
                assert!(model[1]);
            }
            SatResult::Unsat => panic!("satisfiable under assumption"),
        }
        // Conflicting assumptions.
        s.add_clause(&[lit(-2)]);
        assert_eq!(s.solve_with_assumptions(&[lit(-1)]), SatResult::Unsat);
        // Solver remains usable afterwards.
        assert!(s.solve_with_assumptions(&[lit(1)]).is_sat());
    }

    /// Brute-force cross-check on random 3-CNF instances.
    #[test]
    fn agrees_with_brute_force_on_random_instances() {
        // Simple deterministic linear congruential generator so the test is
        // reproducible without external crates.
        let mut state = 0x12345678u64;
        let mut next = move || {
            state = state
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            (state >> 33) as u32
        };
        for round in 0..60 {
            let num_vars = 4 + (next() % 6) as usize; // 4..9
            let num_clauses = 6 + (next() % 20) as usize;
            let mut clauses: Vec<Vec<i32>> = Vec::new();
            for _ in 0..num_clauses {
                let len = 1 + (next() % 3) as usize;
                let mut clause = Vec::new();
                for _ in 0..len {
                    let v = 1 + (next() % num_vars as u32) as i32;
                    let sign = if next() % 2 == 0 { 1 } else { -1 };
                    clause.push(v * sign);
                }
                clauses.push(clause);
            }
            // Brute force.
            let mut brute_sat = false;
            'outer: for assignment in 0..(1u32 << num_vars) {
                for clause in &clauses {
                    let ok = clause.iter().any(|&v| {
                        let bit = (assignment >> (v.unsigned_abs() - 1)) & 1 == 1;
                        if v > 0 {
                            bit
                        } else {
                            !bit
                        }
                    });
                    if !ok {
                        continue 'outer;
                    }
                }
                brute_sat = true;
                break;
            }
            // CDCL.
            let mut s = solver_with_vars(num_vars);
            for clause in &clauses {
                let lits: Vec<Lit> = clause.iter().map(|&v| lit(v)).collect();
                s.add_clause(&lits);
            }
            let result = s.solve();
            assert_eq!(
                result.is_sat(),
                brute_sat,
                "mismatch on round {round}: {clauses:?}"
            );
            if let SatResult::Sat(model) = result {
                for clause in &clauses {
                    assert!(clause.iter().any(|&v| {
                        let value = model[(v.unsigned_abs() - 1) as usize];
                        if v > 0 {
                            value
                        } else {
                            !value
                        }
                    }));
                }
            }
        }
    }
}
