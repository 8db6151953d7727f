//! Bit-blasting: lowering QF_BV terms to CNF over a [`SatSolver`].
//!
//! Every bit-vector term is represented by a vector of literals (LSB first),
//! every boolean term by a single literal.  Word-level operations are
//! expanded into standard gate encodings (Tseitin transformation): ripple
//! carry adders, shift-and-add multipliers, barrel shifters, and
//! lexicographic comparators.

use crate::sat::{Lit, SatSolver};
use crate::term::{TermKind, TermRef, VarName};
use std::collections::HashMap;

/// The CNF-level representation of a term.
#[derive(Debug, Clone)]
pub enum Repr {
    Bool(Lit),
    /// LSB-first literal vector.
    Bits(Vec<Lit>),
}

impl Repr {
    pub fn as_bool(&self) -> Lit {
        match self {
            Repr::Bool(lit) => *lit,
            Repr::Bits(bits) => {
                assert_eq!(bits.len(), 1, "boolean view of a multi-bit vector");
                bits[0]
            }
        }
    }
}

/// The persistent state of a bit-blasting session: the term-to-CNF memo and
/// the variable map survive across [`BitBlaster`] instances (and therefore
/// across solver checks), so a chain of related queries — translation
/// validation of consecutive pass pairs, for example — lowers every shared
/// subterm exactly once.
#[derive(Debug, Default)]
pub struct BlastContext {
    /// Term id → (CNF representation, generation that first encoded it).
    cache: HashMap<u64, (Repr, u64)>,
    /// Variable name → CNF representation, used for model extraction.
    /// Keyed by the interned [`VarName`] so lookups hash a `u32`, not the
    /// spelling.
    vars: HashMap<VarName, Repr>,
    /// The literal fixed to true, allocated on first use.
    true_lit: Option<Lit>,
    /// Current generation; bumped by each [`BitBlaster`] session so cache
    /// hits against *earlier* sessions can be counted cheaply.
    generation: u64,
    /// Cache hits against encodings from earlier generations, this
    /// generation.
    cross_generation_hits: usize,
}

impl BlastContext {
    pub fn new() -> BlastContext {
        BlastContext::default()
    }

    /// The map from symbolic variable names to their CNF literals, for model
    /// extraction after a SAT result.
    pub fn variables(&self) -> &HashMap<VarName, Repr> {
        &self.vars
    }

    /// Cache hits in the current generation against encodings built by
    /// earlier generations — the incremental-reuse telemetry.
    pub fn cross_generation_hits(&self) -> usize {
        self.cross_generation_hits
    }
}

/// Lowers terms to CNF, sharing sub-term encodings via the id-keyed memo in
/// a (possibly long-lived) [`BlastContext`].
pub struct BitBlaster<'a> {
    sat: &'a mut SatSolver,
    ctx: &'a mut BlastContext,
}

impl<'a> BitBlaster<'a> {
    /// Resumes (or starts) a blasting session over `ctx`.  The context must
    /// always be paired with the same `sat` instance.  Each session starts a
    /// new generation, so reuse of earlier sessions' encodings is counted.
    pub fn new(sat: &'a mut SatSolver, ctx: &'a mut BlastContext) -> BitBlaster<'a> {
        if ctx.true_lit.is_none() {
            let true_var = sat.new_var();
            let true_lit = Lit::positive(true_var);
            sat.add_clause(&[true_lit]);
            ctx.true_lit = Some(true_lit);
        }
        ctx.generation += 1;
        ctx.cross_generation_hits = 0;
        BitBlaster { sat, ctx }
    }

    fn const_lit(&self, value: bool) -> Lit {
        if value {
            self.ctx.true_lit.expect("initialised in new")
        } else {
            self.ctx.true_lit.expect("initialised in new").negate()
        }
    }

    fn fresh(&mut self) -> Lit {
        Lit::positive(self.sat.new_var())
    }

    // ---- gates ---------------------------------------------------------

    fn and_gate(&mut self, inputs: &[Lit]) -> Lit {
        if inputs.is_empty() {
            return self.const_lit(true);
        }
        if inputs.len() == 1 {
            return inputs[0];
        }
        let out = self.fresh();
        let mut long_clause = vec![out];
        for &input in inputs {
            self.sat.add_clause(&[out.negate(), input]);
            long_clause.push(input.negate());
        }
        self.sat.add_clause(&long_clause);
        out
    }

    fn or_gate(&mut self, inputs: &[Lit]) -> Lit {
        if inputs.is_empty() {
            return self.const_lit(false);
        }
        if inputs.len() == 1 {
            return inputs[0];
        }
        let out = self.fresh();
        let mut long_clause = vec![out.negate()];
        for &input in inputs {
            self.sat.add_clause(&[input.negate(), out]);
            long_clause.push(input);
        }
        self.sat.add_clause(&long_clause);
        out
    }

    fn xor_gate(&mut self, a: Lit, b: Lit) -> Lit {
        let out = self.fresh();
        self.sat.add_clause(&[a.negate(), b.negate(), out.negate()]);
        self.sat.add_clause(&[a, b, out.negate()]);
        self.sat.add_clause(&[a, b.negate(), out]);
        self.sat.add_clause(&[a.negate(), b, out]);
        out
    }

    fn iff_gate(&mut self, a: Lit, b: Lit) -> Lit {
        self.xor_gate(a, b).negate()
    }

    fn ite_gate(&mut self, cond: Lit, then_lit: Lit, else_lit: Lit) -> Lit {
        let out = self.fresh();
        self.sat
            .add_clause(&[cond.negate(), then_lit.negate(), out]);
        self.sat
            .add_clause(&[cond.negate(), then_lit, out.negate()]);
        self.sat.add_clause(&[cond, else_lit.negate(), out]);
        self.sat.add_clause(&[cond, else_lit, out.negate()]);
        out
    }

    fn majority_gate(&mut self, a: Lit, b: Lit, c: Lit) -> Lit {
        let ab = self.and_gate(&[a, b]);
        let ac = self.and_gate(&[a, c]);
        let bc = self.and_gate(&[b, c]);
        self.or_gate(&[ab, ac, bc])
    }

    // ---- word-level circuits --------------------------------------------

    fn adder(&mut self, a: &[Lit], b: &[Lit], carry_in: Lit) -> Vec<Lit> {
        let mut out = Vec::with_capacity(a.len());
        let mut carry = carry_in;
        for i in 0..a.len() {
            let axb = self.xor_gate(a[i], b[i]);
            let sum = self.xor_gate(axb, carry);
            let cout = self.majority_gate(a[i], b[i], carry);
            out.push(sum);
            carry = cout;
        }
        out
    }

    fn negate_bits(&self, bits: &[Lit]) -> Vec<Lit> {
        bits.iter().map(|l| l.negate()).collect()
    }

    fn subtractor(&mut self, a: &[Lit], b: &[Lit]) -> Vec<Lit> {
        let not_b = self.negate_bits(b);
        self.adder(a, &not_b, self.const_lit(true))
    }

    fn multiplier(&mut self, a: &[Lit], b: &[Lit]) -> Vec<Lit> {
        let width = a.len();
        let mut acc: Vec<Lit> = vec![self.const_lit(false); width];
        for (i, &b_bit) in b.iter().enumerate().take(width) {
            // Partial product: (a << i) AND-ed with b[i], truncated to width.
            let mut partial = Vec::with_capacity(width);
            for j in 0..width {
                if j < i {
                    partial.push(self.const_lit(false));
                } else {
                    partial.push(self.and_gate(&[a[j - i], b_bit]));
                }
            }
            acc = self.adder(&acc, &partial, self.const_lit(false));
        }
        acc
    }

    /// Barrel shifter.  `left = true` shifts towards the MSB.
    fn shifter(&mut self, a: &[Lit], amount: &[Lit], left: bool) -> Vec<Lit> {
        let width = a.len();
        let mut current: Vec<Lit> = a.to_vec();
        for (stage, &sel) in amount.iter().enumerate() {
            // Shifting by 2^stage; anything >= width zeroes the result.
            let shift = 1usize.checked_shl(stage as u32).unwrap_or(usize::MAX);
            let shifted: Vec<Lit> = (0..width)
                .map(|i| {
                    let source = if left {
                        if shift <= i {
                            Some(i - shift)
                        } else {
                            None
                        }
                    } else {
                        i.checked_add(shift).filter(|&s| s < width)
                    };
                    match source {
                        Some(s) => current[s],
                        None => self.const_lit(false),
                    }
                })
                .collect();
            current = (0..width)
                .map(|i| self.ite_gate(sel, shifted[i], current[i]))
                .collect();
        }
        current
    }

    fn equal_bits(&mut self, a: &[Lit], b: &[Lit]) -> Lit {
        let per_bit: Vec<Lit> = a
            .iter()
            .zip(b)
            .map(|(&x, &y)| self.iff_gate(x, y))
            .collect();
        self.and_gate(&per_bit)
    }

    fn unsigned_less_than(&mut self, a: &[Lit], b: &[Lit]) -> Lit {
        // Process from LSB to MSB: acc' = (¬a_i ∧ b_i) ∨ ((a_i ≡ b_i) ∧ acc)
        let mut acc = self.const_lit(false);
        for i in 0..a.len() {
            let strictly = self.and_gate(&[a[i].negate(), b[i]]);
            let equal = self.iff_gate(a[i], b[i]);
            let carry = self.and_gate(&[equal, acc]);
            acc = self.or_gate(&[strictly, carry]);
        }
        acc
    }

    fn signed_less_than(&mut self, a: &[Lit], b: &[Lit]) -> Lit {
        let width = a.len();
        if width == 0 {
            return self.const_lit(false);
        }
        let a_sign = a[width - 1];
        let b_sign = b[width - 1];
        let ult = self.unsigned_less_than(a, b);
        let neg_pos = self.and_gate(&[a_sign, b_sign.negate()]);
        let same_sign = self.iff_gate(a_sign, b_sign);
        let same_and_ult = self.and_gate(&[same_sign, ult]);
        self.or_gate(&[neg_pos, same_and_ult])
    }

    // ---- term lowering ---------------------------------------------------

    /// Lowers a term to its CNF representation.
    pub fn blast(&mut self, term: &TermRef) -> Repr {
        if let Some((repr, generation)) = self.ctx.cache.get(&term.id) {
            if *generation < self.ctx.generation {
                self.ctx.cross_generation_hits += 1;
            }
            return repr.clone();
        }
        let repr = self.blast_uncached(term);
        self.ctx
            .cache
            .insert(term.id, (repr.clone(), self.ctx.generation));
        repr
    }

    fn blast_bits(&mut self, term: &TermRef) -> Vec<Lit> {
        match self.blast(term) {
            Repr::Bits(bits) => bits,
            Repr::Bool(lit) => vec![lit],
        }
    }

    fn blast_bool(&mut self, term: &TermRef) -> Lit {
        match self.blast(term) {
            Repr::Bool(lit) => lit,
            Repr::Bits(bits) => {
                assert_eq!(bits.len(), 1, "boolean context requires a 1-bit value");
                bits[0]
            }
        }
    }

    fn blast_uncached(&mut self, term: &TermRef) -> Repr {
        match &term.kind {
            TermKind::BoolConst(b) => Repr::Bool(self.const_lit(*b)),
            TermKind::BvConst(v) => {
                let bits = (0..v.width()).map(|i| self.const_lit(v.bit(i))).collect();
                Repr::Bits(bits)
            }
            TermKind::Var(name) => {
                if let Some(repr) = self.ctx.vars.get(name) {
                    return repr.clone();
                }
                let repr = match term.sort {
                    crate::term::Sort::Bool => Repr::Bool(self.fresh()),
                    crate::term::Sort::BitVec(w) => {
                        Repr::Bits((0..w).map(|_| self.fresh()).collect())
                    }
                };
                self.ctx.vars.insert(name.clone(), repr.clone());
                repr
            }
            TermKind::Not(a) => Repr::Bool(self.blast_bool(a).negate()),
            TermKind::And(args) => {
                let lits: Vec<Lit> = args.iter().map(|a| self.blast_bool(a)).collect();
                Repr::Bool(self.and_gate(&lits))
            }
            TermKind::Or(args) => {
                let lits: Vec<Lit> = args.iter().map(|a| self.blast_bool(a)).collect();
                Repr::Bool(self.or_gate(&lits))
            }
            TermKind::Implies(a, b) => {
                let la = self.blast_bool(a);
                let lb = self.blast_bool(b);
                Repr::Bool(self.or_gate(&[la.negate(), lb]))
            }
            TermKind::Eq(a, b) => {
                let repr_a = self.blast(a);
                let repr_b = self.blast(b);
                match (repr_a, repr_b) {
                    (Repr::Bool(x), Repr::Bool(y)) => Repr::Bool(self.iff_gate(x, y)),
                    (ra, rb) => {
                        let (x, y) = (ra_bits(&ra), ra_bits(&rb));
                        Repr::Bool(self.equal_bits(&x, &y))
                    }
                }
            }
            TermKind::Ite(c, t, e) => {
                let cond = self.blast_bool(c);
                match (self.blast(t), self.blast(e)) {
                    (Repr::Bool(x), Repr::Bool(y)) => Repr::Bool(self.ite_gate(cond, x, y)),
                    (rt, re) => {
                        let (x, y) = (ra_bits(&rt), ra_bits(&re));
                        assert_eq!(x.len(), y.len(), "ite branch widths differ");
                        let bits = (0..x.len())
                            .map(|i| self.ite_gate(cond, x[i], y[i]))
                            .collect();
                        Repr::Bits(bits)
                    }
                }
            }
            TermKind::BvAdd(a, b) => {
                let (x, y) = (self.blast_bits(a), self.blast_bits(b));
                let zero = self.const_lit(false);
                Repr::Bits(self.adder(&x, &y, zero))
            }
            TermKind::BvSub(a, b) => {
                let (x, y) = (self.blast_bits(a), self.blast_bits(b));
                Repr::Bits(self.subtractor(&x, &y))
            }
            TermKind::BvMul(a, b) => {
                let (x, y) = (self.blast_bits(a), self.blast_bits(b));
                Repr::Bits(self.multiplier(&x, &y))
            }
            TermKind::BvAnd(a, b) => {
                let (x, y) = (self.blast_bits(a), self.blast_bits(b));
                Repr::Bits((0..x.len()).map(|i| self.and_gate(&[x[i], y[i]])).collect())
            }
            TermKind::BvOr(a, b) => {
                let (x, y) = (self.blast_bits(a), self.blast_bits(b));
                Repr::Bits((0..x.len()).map(|i| self.or_gate(&[x[i], y[i]])).collect())
            }
            TermKind::BvXor(a, b) => {
                let (x, y) = (self.blast_bits(a), self.blast_bits(b));
                Repr::Bits((0..x.len()).map(|i| self.xor_gate(x[i], y[i])).collect())
            }
            TermKind::BvNot(a) => {
                let x = self.blast_bits(a);
                Repr::Bits(self.negate_bits(&x))
            }
            TermKind::BvNeg(a) => {
                let x = self.blast_bits(a);
                let zero: Vec<Lit> = vec![self.const_lit(false); x.len()];
                Repr::Bits(self.subtractor(&zero, &x))
            }
            TermKind::BvShl(a, b) => {
                let (x, y) = (self.blast_bits(a), self.blast_bits(b));
                Repr::Bits(self.shifter(&x, &y, true))
            }
            TermKind::BvLshr(a, b) => {
                let (x, y) = (self.blast_bits(a), self.blast_bits(b));
                Repr::Bits(self.shifter(&x, &y, false))
            }
            TermKind::BvUlt(a, b) => {
                let (x, y) = (self.blast_bits(a), self.blast_bits(b));
                Repr::Bool(self.unsigned_less_than(&x, &y))
            }
            TermKind::BvUle(a, b) => {
                let (x, y) = (self.blast_bits(a), self.blast_bits(b));
                let gt = self.unsigned_less_than(&y, &x);
                Repr::Bool(gt.negate())
            }
            TermKind::BvSlt(a, b) => {
                let (x, y) = (self.blast_bits(a), self.blast_bits(b));
                Repr::Bool(self.signed_less_than(&x, &y))
            }
            TermKind::Concat(hi, lo) => {
                let (hi_bits, lo_bits) = (self.blast_bits(hi), self.blast_bits(lo));
                let mut bits = lo_bits;
                bits.extend(hi_bits);
                Repr::Bits(bits)
            }
            TermKind::Extract { hi, lo, arg } => {
                let bits = self.blast_bits(arg);
                Repr::Bits(bits[*lo as usize..=*hi as usize].to_vec())
            }
            TermKind::ZeroExtend { arg, width } => {
                let mut bits = self.blast_bits(arg);
                bits.resize(*width as usize, self.const_lit(false));
                Repr::Bits(bits)
            }
            TermKind::SignExtend { arg, width } => {
                let mut bits = self.blast_bits(arg);
                let sign = bits.last().copied().unwrap_or(self.const_lit(false));
                bits.resize(*width as usize, sign);
                Repr::Bits(bits)
            }
        }
    }

    /// Asserts a boolean term as a top-level constraint.
    pub fn assert(&mut self, term: &TermRef) {
        let lit = self.blast_bool(term);
        self.sat.add_clause(&[lit]);
    }
}

fn ra_bits(repr: &Repr) -> Vec<Lit> {
    match repr {
        Repr::Bits(bits) => bits.clone(),
        Repr::Bool(lit) => vec![*lit],
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::sat::SatResult;
    use crate::term::{Sort, TermManager};
    use crate::value::BvValue;

    fn solve_assertion(tm: &TermManager, term: &TermRef) -> Option<Vec<(String, BvValue)>> {
        let _ = tm;
        let mut sat = SatSolver::new();
        let mut ctx = BlastContext::new();
        let mut blaster = BitBlaster::new(&mut sat, &mut ctx);
        blaster.assert(term);
        let vars: Vec<(String, Repr)> = ctx
            .variables()
            .iter()
            .map(|(k, v)| (k.to_string(), v.clone()))
            .collect();
        match sat.solve() {
            SatResult::Sat(model) => {
                let mut out = Vec::new();
                for (name, repr) in vars {
                    if let Repr::Bits(bits) = repr {
                        let value = BvValue::from_bits(
                            bits.iter()
                                .map(|l| model[l.var() as usize] ^ l.is_negated())
                                .collect(),
                        );
                        out.push((name, value));
                    }
                }
                Some(out)
            }
            SatResult::Unsat => None,
        }
    }

    #[test]
    fn addition_model_is_correct() {
        let tm = TermManager::new();
        let x = tm.var("x", Sort::BitVec(8));
        let constraint = tm.eq(
            tm.bv_add(x.clone(), tm.bv_const(13, 8)),
            tm.bv_const(200, 8),
        );
        let model = solve_assertion(&tm, &constraint).expect("satisfiable");
        let x_value = model.iter().find(|(n, _)| n == "x").unwrap().1.to_u128();
        assert_eq!(x_value, 187);
    }

    #[test]
    fn unsatisfiable_arithmetic() {
        let tm = TermManager::new();
        let x = tm.var("x", Sort::BitVec(8));
        // x + 1 == x is unsatisfiable for bit-vectors.
        let constraint = tm.eq(tm.bv_add(x.clone(), tm.bv_const(1, 8)), x.clone());
        assert!(solve_assertion(&tm, &constraint).is_none());
    }

    #[test]
    fn multiplication_factors() {
        let tm = TermManager::new();
        let x = tm.var("x", Sort::BitVec(8));
        let y = tm.var("y", Sort::BitVec(8));
        // x * y == 35 with x, y > 1: the only factorisations are {5, 7}.
        let constraint = tm.and(vec![
            tm.eq(tm.bv_mul(x.clone(), y.clone()), tm.bv_const(35, 8)),
            tm.bv_ult(tm.bv_const(1, 8), x.clone()),
            tm.bv_ult(tm.bv_const(1, 8), y.clone()),
            tm.bv_ult(x.clone(), tm.bv_const(16, 8)),
            tm.bv_ult(y.clone(), tm.bv_const(16, 8)),
        ]);
        let model = solve_assertion(&tm, &constraint).expect("satisfiable");
        let x_value = model.iter().find(|(n, _)| n == "x").unwrap().1.to_u128();
        let y_value = model.iter().find(|(n, _)| n == "y").unwrap().1.to_u128();
        assert_eq!(x_value * y_value, 35);
    }

    #[test]
    fn shift_semantics_match_zero_fill() {
        let tm = TermManager::new();
        let x = tm.var("x", Sort::BitVec(8));
        // (x << 9) != 0 is unsatisfiable: shifting an 8-bit value by 9 gives 0.
        let shifted = tm.bv_shl(x.clone(), tm.var("s", Sort::BitVec(8)));
        let constraint = tm.and(vec![
            tm.eq(tm.var("s", Sort::BitVec(8)), tm.bv_const(9, 8)),
            tm.neq(shifted, tm.bv_const(0, 8)),
        ]);
        // Note: the two `s` vars are distinct term objects but share a name,
        // so the blaster unifies them through the variable map.
        assert!(solve_assertion(&tm, &constraint).is_none());
    }

    #[test]
    fn comparison_and_ite() {
        let tm = TermManager::new();
        let x = tm.var("x", Sort::BitVec(8));
        let branch = tm.ite(
            tm.bv_ult(x.clone(), tm.bv_const(100, 8)),
            tm.bv_const(1, 8),
            tm.bv_const(2, 8),
        );
        // branch == 2 forces x >= 100.
        let constraint = tm.eq(branch, tm.bv_const(2, 8));
        let model = solve_assertion(&tm, &constraint).expect("satisfiable");
        let x_value = model.iter().find(|(n, _)| n == "x").unwrap().1.to_u128();
        assert!(x_value >= 100);
    }

    #[test]
    fn concat_extract_roundtrip_constraint() {
        let tm = TermManager::new();
        let a = tm.var("a", Sort::BitVec(8));
        let b = tm.var("b", Sort::BitVec(8));
        let cat = tm.concat(a.clone(), b.clone());
        // Extracting the halves of the concatenation differing from the
        // originals is unsatisfiable.
        let hi = tm.extract(15, 8, cat.clone());
        let lo = tm.extract(7, 0, cat);
        let constraint = tm.or2(tm.neq(hi, a), tm.neq(lo, b));
        assert!(solve_assertion(&tm, &constraint).is_none());
    }

    #[test]
    fn signed_comparison() {
        let tm = TermManager::new();
        let x = tm.var("x", Sort::BitVec(8));
        // x <s 0 and x >u 127 are the same set; their difference is empty.
        let neg = tm.bv_slt(x.clone(), tm.bv_const(0, 8));
        let high = tm.bv_ult(tm.bv_const(127, 8), x.clone());
        let constraint = tm.neq(neg, high);
        assert!(solve_assertion(&tm, &constraint).is_none());
    }
}
