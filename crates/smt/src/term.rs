//! Term representation for the quantifier-free bit-vector logic (QF_BV)
//! fragment Gauntlet needs.
//!
//! The paper encodes P4 program semantics as Z3 formulas (§5.2).  This crate
//! plays the role of Z3 for the reproduction: terms are built through a
//! [`TermManager`], which assigns unique ids (used for memoisation during
//! bit-blasting and evaluation) and performs light constant folding.

use crate::value::BvValue;
use p4_ir::{Interner, Symbol};
use std::fmt;
use std::sync::Arc;

/// The sort (type) of a term.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Sort {
    Bool,
    BitVec(u32),
}

impl Sort {
    pub fn width(self) -> u32 {
        match self {
            Sort::Bool => 1,
            Sort::BitVec(w) => w,
        }
    }

    pub fn is_bool(self) -> bool {
        self == Sort::Bool
    }
}

/// Reference-counted term handle.  `Arc` rather than `Rc` so one hash-consed
/// term DAG can be shared across the campaign worker pool (epoch-scoped
/// caching): structurally identical subterms built by different workers
/// collapse to one node no matter which thread built them first.
pub type TermRef = Arc<Term>;

/// A term node.
#[derive(Debug)]
pub struct Term {
    /// Unique id assigned by the manager; used as a memoisation key.
    pub id: u64,
    pub sort: Sort,
    pub kind: TermKind,
}

/// An interned variable name: identity (hashing, equality) is the
/// campaign-scoped [`Symbol`] — a `u32` — while the spelling rides along as
/// a shared `Arc<str>` for display and model extraction.  Hash-consing a
/// variable therefore costs one integer hash instead of a byte scan of the
/// name, which dominates the term-builder hot path for the long dotted
/// names the symbolic interpreter emits (`ingress.hdr.eth.dst`, …).
#[derive(Debug, Clone)]
pub struct VarName {
    sym: Symbol,
    text: Arc<str>,
}

impl VarName {
    /// The interned identity.
    pub fn symbol(&self) -> Symbol {
        self.sym
    }

    pub fn as_str(&self) -> &str {
        &self.text
    }
}

impl PartialEq for VarName {
    fn eq(&self, other: &VarName) -> bool {
        self.sym == other.sym
    }
}

impl Eq for VarName {}

impl std::hash::Hash for VarName {
    fn hash<H: std::hash::Hasher>(&self, state: &mut H) {
        self.sym.hash(state);
    }
}

impl std::ops::Deref for VarName {
    type Target = str;

    fn deref(&self) -> &str {
        &self.text
    }
}

impl fmt::Display for VarName {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.text)
    }
}

/// Term constructors.  Saturating arithmetic and a few other P4 operators
/// are desugared into this kernel language by the manager.
#[derive(Debug)]
pub enum TermKind {
    BoolConst(bool),
    BvConst(BvValue),
    /// A free variable of the term's sort.
    Var(VarName),

    // Boolean connectives.
    Not(TermRef),
    And(Vec<TermRef>),
    Or(Vec<TermRef>),
    Implies(TermRef, TermRef),

    /// Polymorphic equality (both operands share a sort).
    Eq(TermRef, TermRef),
    /// Polymorphic if-then-else (condition is Bool, branches share a sort).
    Ite(TermRef, TermRef, TermRef),

    // Bit-vector operations.
    BvAdd(TermRef, TermRef),
    BvSub(TermRef, TermRef),
    BvMul(TermRef, TermRef),
    BvAnd(TermRef, TermRef),
    BvOr(TermRef, TermRef),
    BvXor(TermRef, TermRef),
    BvNot(TermRef),
    BvNeg(TermRef),
    BvShl(TermRef, TermRef),
    BvLshr(TermRef, TermRef),
    BvUlt(TermRef, TermRef),
    BvUle(TermRef, TermRef),
    BvSlt(TermRef, TermRef),
    Concat(TermRef, TermRef),
    Extract {
        hi: u32,
        lo: u32,
        arg: TermRef,
    },
    ZeroExtend {
        arg: TermRef,
        width: u32,
    },
    SignExtend {
        arg: TermRef,
        width: u32,
    },
}

impl Term {
    /// Calls `f` on every direct child of this term.  The single place that
    /// knows the arity of every [`TermKind`]; DAG walkers (subterm
    /// collection, variable scans) build on this instead of re-matching.
    pub fn for_each_child(&self, mut f: impl FnMut(&TermRef)) {
        match &self.kind {
            TermKind::BoolConst(_) | TermKind::BvConst(_) | TermKind::Var(_) => {}
            TermKind::Not(a)
            | TermKind::BvNot(a)
            | TermKind::BvNeg(a)
            | TermKind::Extract { arg: a, .. }
            | TermKind::ZeroExtend { arg: a, .. }
            | TermKind::SignExtend { arg: a, .. } => f(a),
            TermKind::And(args) | TermKind::Or(args) => args.iter().for_each(f),
            TermKind::Implies(a, b)
            | TermKind::Eq(a, b)
            | TermKind::BvAdd(a, b)
            | TermKind::BvSub(a, b)
            | TermKind::BvMul(a, b)
            | TermKind::BvAnd(a, b)
            | TermKind::BvOr(a, b)
            | TermKind::BvXor(a, b)
            | TermKind::BvShl(a, b)
            | TermKind::BvLshr(a, b)
            | TermKind::BvUlt(a, b)
            | TermKind::BvUle(a, b)
            | TermKind::BvSlt(a, b)
            | TermKind::Concat(a, b) => {
                f(a);
                f(b);
            }
            TermKind::Ite(c, t, e) => {
                f(c);
                f(t);
                f(e);
            }
        }
    }
}

impl fmt::Display for Term {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match &self.kind {
            TermKind::BoolConst(b) => write!(f, "{b}"),
            TermKind::BvConst(v) => write!(f, "{v}"),
            TermKind::Var(name) => write!(f, "{name}"),
            TermKind::Not(a) => write!(f, "(not {a})"),
            TermKind::And(args) => {
                write!(f, "(and")?;
                for a in args {
                    write!(f, " {a}")?;
                }
                write!(f, ")")
            }
            TermKind::Or(args) => {
                write!(f, "(or")?;
                for a in args {
                    write!(f, " {a}")?;
                }
                write!(f, ")")
            }
            TermKind::Implies(a, b) => write!(f, "(=> {a} {b})"),
            TermKind::Eq(a, b) => write!(f, "(= {a} {b})"),
            TermKind::Ite(c, t, e) => write!(f, "(ite {c} {t} {e})"),
            TermKind::BvAdd(a, b) => write!(f, "(bvadd {a} {b})"),
            TermKind::BvSub(a, b) => write!(f, "(bvsub {a} {b})"),
            TermKind::BvMul(a, b) => write!(f, "(bvmul {a} {b})"),
            TermKind::BvAnd(a, b) => write!(f, "(bvand {a} {b})"),
            TermKind::BvOr(a, b) => write!(f, "(bvor {a} {b})"),
            TermKind::BvXor(a, b) => write!(f, "(bvxor {a} {b})"),
            TermKind::BvNot(a) => write!(f, "(bvnot {a})"),
            TermKind::BvNeg(a) => write!(f, "(bvneg {a})"),
            TermKind::BvShl(a, b) => write!(f, "(bvshl {a} {b})"),
            TermKind::BvLshr(a, b) => write!(f, "(bvlshr {a} {b})"),
            TermKind::BvUlt(a, b) => write!(f, "(bvult {a} {b})"),
            TermKind::BvUle(a, b) => write!(f, "(bvule {a} {b})"),
            TermKind::BvSlt(a, b) => write!(f, "(bvslt {a} {b})"),
            TermKind::Concat(a, b) => write!(f, "(concat {a} {b})"),
            TermKind::Extract { hi, lo, arg } => write!(f, "((_ extract {hi} {lo}) {arg})"),
            TermKind::ZeroExtend { arg, width } => write!(f, "((_ zero_extend_to {width}) {arg})"),
            TermKind::SignExtend { arg, width } => write!(f, "((_ sign_extend_to {width}) {arg})"),
        }
    }
}

/// Structural key for hash-consing: a term's kind with children replaced by
/// their (already unique) ids.  Two structurally equal terms built through
/// the same manager therefore share one id, which makes syntactic equality
/// an id comparison — `eq(a, a)` folds to `true` without ever reaching the
/// solver, and the bit-blaster's id-keyed cache lowers every shared subterm
/// exactly once.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
enum Shape {
    BoolConst(bool),
    BvConst(BvValue),
    /// Interned: variable lookups in the hash-cons table compare a `u32`.
    Var(Symbol),
    Not(u64),
    And(Vec<u64>),
    Or(Vec<u64>),
    Implies(u64, u64),
    Eq(u64, u64),
    Ite(u64, u64, u64),
    /// Binary bit-vector operators, tagged by operator name.
    Binary(&'static str, u64, u64),
    /// Unary bit-vector operators, tagged by operator name.
    Unary(&'static str, u64),
    Extract(u32, u32, u64),
    ZeroExtend(u64, u32),
    SignExtend(u64, u32),
}

impl Shape {
    fn of(kind: &TermKind) -> Shape {
        match kind {
            TermKind::BoolConst(b) => Shape::BoolConst(*b),
            TermKind::BvConst(v) => Shape::BvConst(v.clone()),
            TermKind::Var(name) => Shape::Var(name.symbol()),
            TermKind::Not(a) => Shape::Not(a.id),
            TermKind::And(args) => Shape::And(args.iter().map(|a| a.id).collect()),
            TermKind::Or(args) => Shape::Or(args.iter().map(|a| a.id).collect()),
            TermKind::Implies(a, b) => Shape::Implies(a.id, b.id),
            TermKind::Eq(a, b) => Shape::Eq(a.id, b.id),
            TermKind::Ite(c, t, e) => Shape::Ite(c.id, t.id, e.id),
            TermKind::BvAdd(a, b) => Shape::Binary("add", a.id, b.id),
            TermKind::BvSub(a, b) => Shape::Binary("sub", a.id, b.id),
            TermKind::BvMul(a, b) => Shape::Binary("mul", a.id, b.id),
            TermKind::BvAnd(a, b) => Shape::Binary("and", a.id, b.id),
            TermKind::BvOr(a, b) => Shape::Binary("or", a.id, b.id),
            TermKind::BvXor(a, b) => Shape::Binary("xor", a.id, b.id),
            TermKind::BvNot(a) => Shape::Unary("not", a.id),
            TermKind::BvNeg(a) => Shape::Unary("neg", a.id),
            TermKind::BvShl(a, b) => Shape::Binary("shl", a.id, b.id),
            TermKind::BvLshr(a, b) => Shape::Binary("lshr", a.id, b.id),
            TermKind::BvUlt(a, b) => Shape::Binary("ult", a.id, b.id),
            TermKind::BvUle(a, b) => Shape::Binary("ule", a.id, b.id),
            TermKind::BvSlt(a, b) => Shape::Binary("slt", a.id, b.id),
            TermKind::Concat(a, b) => Shape::Binary("concat", a.id, b.id),
            TermKind::Extract { hi, lo, arg } => Shape::Extract(*hi, *lo, arg.id),
            TermKind::ZeroExtend { arg, width } => Shape::ZeroExtend(arg.id, *width),
            TermKind::SignExtend { arg, width } => Shape::SignExtend(arg.id, *width),
        }
    }
}

/// Creates terms.  All terms used in a single solver query must come from
/// the same manager.
///
/// Terms are hash-consed: structurally identical terms share one node and
/// one id.  This matters enormously for translation validation, where the
/// "before" and "after" programs mostly coincide — their shared parts
/// collapse to the same term, so the distinguishing query only pays for the
/// parts a compiler pass actually changed.
/// Interior state of a [`TermManager`], guarded by one mutex so the manager
/// is `Send + Sync` and can back an epoch-scoped cache shared by the
/// campaign's worker pool.  Term *ids* assigned under contention are
/// schedule-dependent, but everything downstream treats ids as opaque
/// memoisation keys: hash-consing, the folds, and SAT verdicts are all
/// structural, and reported counterexamples are re-derived canonically from
/// the query term alone (see `p4-symbolic`), so rendered output stays
/// byte-identical at any `--jobs`.
#[derive(Debug, Default)]
struct ManagerState {
    next_id: u64,
    table: std::collections::HashMap<(Sort, Shape), TermRef>,
}

#[derive(Debug)]
pub struct TermManager {
    state: std::sync::Mutex<ManagerState>,
    /// Campaign-scoped name interner.  Shared (not owned) so a validation
    /// cache can replace its manager at an epoch barrier — bounding the
    /// term table — while symbols stay stable for the whole campaign.
    interner: Arc<Interner>,
}

impl Default for TermManager {
    fn default() -> TermManager {
        TermManager::with_interner(Arc::new(Interner::new()))
    }
}

impl TermManager {
    pub fn new() -> TermManager {
        TermManager::default()
    }

    /// A manager whose variable names intern through `interner`.  Managers
    /// sharing one interner agree on [`Symbol`] identity, so a cache that
    /// swaps managers across epochs keeps name identity stable.
    pub fn with_interner(interner: Arc<Interner>) -> TermManager {
        TermManager {
            state: std::sync::Mutex::default(),
            interner,
        }
    }

    /// The interner behind this manager's variable names.
    pub fn interner(&self) -> &Arc<Interner> {
        &self.interner
    }

    fn mk(&self, sort: Sort, kind: TermKind) -> TermRef {
        let key = (sort, Shape::of(&kind));
        let mut state = self.state.lock().expect("term manager lock poisoned");
        if let Some(existing) = state.table.get(&key) {
            return existing.clone();
        }
        let id = state.next_id;
        state.next_id += 1;
        let term = Arc::new(Term { id, sort, kind });
        state.table.insert(key, term.clone());
        term
    }

    /// Number of terms created so far (a proxy for formula size).
    pub fn term_count(&self) -> u64 {
        self.state
            .lock()
            .expect("term manager lock poisoned")
            .next_id
    }

    // ---- constants and variables -------------------------------------

    pub fn bool_const(&self, value: bool) -> TermRef {
        self.mk(Sort::Bool, TermKind::BoolConst(value))
    }

    pub fn tru(&self) -> TermRef {
        self.bool_const(true)
    }

    pub fn fls(&self) -> TermRef {
        self.bool_const(false)
    }

    pub fn bv_const(&self, value: u128, width: u32) -> TermRef {
        self.bv_value(BvValue::from_u128(value, width))
    }

    pub fn bv_value(&self, value: BvValue) -> TermRef {
        let width = value.width();
        self.mk(Sort::BitVec(width), TermKind::BvConst(value))
    }

    pub fn var(&self, name: impl AsRef<str>, sort: Sort) -> TermRef {
        let (sym, text) = self.interner.intern(name.as_ref());
        self.mk(sort, TermKind::Var(VarName { sym, text }))
    }

    // ---- boolean connectives ------------------------------------------

    pub fn not(&self, a: TermRef) -> TermRef {
        debug_assert!(a.sort.is_bool());
        match &a.kind {
            TermKind::BoolConst(b) => self.bool_const(!b),
            TermKind::Not(inner) => inner.clone(),
            _ => self.mk(Sort::Bool, TermKind::Not(a)),
        }
    }

    pub fn and(&self, args: Vec<TermRef>) -> TermRef {
        let mut flat = Vec::new();
        for a in args {
            debug_assert!(a.sort.is_bool());
            match &a.kind {
                TermKind::BoolConst(false) => return self.fls(),
                TermKind::BoolConst(true) => {}
                _ => flat.push(a),
            }
        }
        match flat.len() {
            0 => self.tru(),
            1 => flat.pop().expect("length checked"),
            _ => self.mk(Sort::Bool, TermKind::And(flat)),
        }
    }

    pub fn and2(&self, a: TermRef, b: TermRef) -> TermRef {
        self.and(vec![a, b])
    }

    pub fn or(&self, args: Vec<TermRef>) -> TermRef {
        let mut flat = Vec::new();
        for a in args {
            debug_assert!(a.sort.is_bool());
            match &a.kind {
                TermKind::BoolConst(true) => return self.tru(),
                TermKind::BoolConst(false) => {}
                _ => flat.push(a),
            }
        }
        match flat.len() {
            0 => self.fls(),
            1 => flat.pop().expect("length checked"),
            _ => self.mk(Sort::Bool, TermKind::Or(flat)),
        }
    }

    pub fn or2(&self, a: TermRef, b: TermRef) -> TermRef {
        self.or(vec![a, b])
    }

    pub fn implies(&self, a: TermRef, b: TermRef) -> TermRef {
        match (&a.kind, &b.kind) {
            (TermKind::BoolConst(false), _) | (_, TermKind::BoolConst(true)) => self.tru(),
            (TermKind::BoolConst(true), _) => b,
            (_, TermKind::BoolConst(false)) => self.not(a),
            _ => self.mk(Sort::Bool, TermKind::Implies(a, b)),
        }
    }

    pub fn xor(&self, a: TermRef, b: TermRef) -> TermRef {
        // Desugar boolean xor as (a != b).
        self.not(self.eq(a, b))
    }

    // ---- polymorphic --------------------------------------------------

    pub fn eq(&self, a: TermRef, b: TermRef) -> TermRef {
        debug_assert_eq!(a.sort, b.sort, "eq over mismatched sorts: {a} vs {b}");
        if a.id == b.id {
            return self.tru();
        }
        match (&a.kind, &b.kind) {
            (TermKind::BoolConst(x), TermKind::BoolConst(y)) => self.bool_const(x == y),
            (TermKind::BvConst(x), TermKind::BvConst(y)) => self.bool_const(x == y),
            _ => self.mk(Sort::Bool, TermKind::Eq(a, b)),
        }
    }

    pub fn neq(&self, a: TermRef, b: TermRef) -> TermRef {
        self.not(self.eq(a, b))
    }

    pub fn ite(&self, cond: TermRef, then_t: TermRef, else_t: TermRef) -> TermRef {
        debug_assert!(cond.sort.is_bool());
        debug_assert_eq!(then_t.sort, else_t.sort, "ite branches must share a sort");
        match &cond.kind {
            TermKind::BoolConst(true) => then_t,
            TermKind::BoolConst(false) => else_t,
            _ => {
                // Same-condition absorption: inside the then-branch `cond`
                // is known true (dually for else), so a nested ite on the
                // same condition collapses onto the matching arm.  The
                // symbolic interpreter's per-statement state merge nests
                // guards exactly this way for block-wrapped statements
                // (`ite(c, ite(c, a, b), b)`); without the fold the two
                // sides of a translation-validation miter stay structurally
                // different and the query goes to the SAT solver instead of
                // short-circuiting on hash-consed equality.
                let then_t = match &then_t.kind {
                    TermKind::Ite(c2, inner_then, _) if c2.id == cond.id => inner_then.clone(),
                    _ => then_t,
                };
                let else_t = match &else_t.kind {
                    TermKind::Ite(c2, _, inner_else) if c2.id == cond.id => inner_else.clone(),
                    _ => else_t,
                };
                if then_t.id == else_t.id {
                    then_t
                } else {
                    let sort = then_t.sort;
                    self.mk(sort, TermKind::Ite(cond, then_t, else_t))
                }
            }
        }
    }

    // ---- bit-vector operations ----------------------------------------

    fn bv_binop(
        &self,
        a: TermRef,
        b: TermRef,
        fold: impl Fn(&BvValue, &BvValue) -> BvValue,
        build: impl Fn(TermRef, TermRef) -> TermKind,
    ) -> TermRef {
        debug_assert_eq!(a.sort, b.sort, "bit-vector binop sorts differ: {a} vs {b}");
        let sort = a.sort;
        if let (TermKind::BvConst(x), TermKind::BvConst(y)) = (&a.kind, &b.kind) {
            return self.bv_value(fold(x, y));
        }
        self.mk(sort, build(a, b))
    }

    /// `Some(value)` when the term is a bit-vector constant.
    fn as_const(term: &TermRef) -> Option<&BvValue> {
        match &term.kind {
            TermKind::BvConst(v) => Some(v),
            _ => None,
        }
    }

    fn bv_cmp(
        &self,
        a: TermRef,
        b: TermRef,
        fold: impl Fn(&BvValue, &BvValue) -> bool,
        build: impl Fn(TermRef, TermRef) -> TermKind,
    ) -> TermRef {
        debug_assert_eq!(a.sort, b.sort, "comparison sorts differ");
        if let (TermKind::BvConst(x), TermKind::BvConst(y)) = (&a.kind, &b.kind) {
            return self.bool_const(fold(x, y));
        }
        self.mk(Sort::Bool, build(a, b))
    }

    pub fn bv_add(&self, a: TermRef, b: TermRef) -> TermRef {
        // x + 0 = 0 + x = x.
        if Self::as_const(&a).is_some_and(BvValue::is_zero) {
            return b;
        }
        if Self::as_const(&b).is_some_and(BvValue::is_zero) {
            return a;
        }
        self.bv_binop(a, b, BvValue::add, TermKind::BvAdd)
    }

    pub fn bv_sub(&self, a: TermRef, b: TermRef) -> TermRef {
        // x - 0 = x; x - x = 0.
        if Self::as_const(&b).is_some_and(BvValue::is_zero) {
            return a;
        }
        if a.id == b.id {
            return self.bv_const(0, a.sort.width());
        }
        self.bv_binop(a, b, BvValue::sub, TermKind::BvSub)
    }

    pub fn bv_mul(&self, a: TermRef, b: TermRef) -> TermRef {
        // x * 0 = 0; x * 1 = x (and the mirrored forms).
        let width = a.sort.width();
        for (constant, other) in [(&a, &b), (&b, &a)] {
            if let Some(value) = Self::as_const(constant) {
                if value.is_zero() {
                    return self.bv_const(0, width);
                }
                // `bit(0) && rest zero` rather than `to_u128() == 1`:
                // to_u128 panics on constants wider than 128 bits.
                if value.bit(0) && value.lshr(1).is_zero() {
                    return other.clone();
                }
                // x * 2^k = x << k (mod 2^width on both sides), canonicalised
                // so a strength-reduced shift and the original multiply
                // hash-cons to one term.
                if Self::as_const(other).is_none() {
                    if let Some(k) = value.single_bit_position() {
                        let amount = self.bv_const(u128::from(k), width);
                        return self.bv_shl(other.clone(), amount);
                    }
                }
            }
        }
        self.bv_binop(a, b, BvValue::mul, TermKind::BvMul)
    }

    pub fn bv_and(&self, a: TermRef, b: TermRef) -> TermRef {
        // x & 0 = 0; x & ~0 = x; x & x = x.
        if a.id == b.id {
            return a;
        }
        let width = a.sort.width();
        for (constant, other) in [(&a, &b), (&b, &a)] {
            if let Some(value) = Self::as_const(constant) {
                if value.is_zero() {
                    return self.bv_const(0, width);
                }
                if value.bitnot().is_zero() {
                    return other.clone();
                }
            }
        }
        self.bv_binop(a, b, BvValue::bitand, TermKind::BvAnd)
    }

    pub fn bv_or(&self, a: TermRef, b: TermRef) -> TermRef {
        // x | 0 = x; x | ~0 = ~0; x | x = x.
        if a.id == b.id {
            return a;
        }
        for (constant, other) in [(&a, &b), (&b, &a)] {
            if let Some(value) = Self::as_const(constant) {
                if value.is_zero() {
                    return other.clone();
                }
                if value.bitnot().is_zero() {
                    return constant.clone();
                }
            }
        }
        self.bv_binop(a, b, BvValue::bitor, TermKind::BvOr)
    }

    pub fn bv_xor(&self, a: TermRef, b: TermRef) -> TermRef {
        // x ^ 0 = x; x ^ x = 0.
        if a.id == b.id {
            return self.bv_const(0, a.sort.width());
        }
        for (constant, other) in [(&a, &b), (&b, &a)] {
            if let Some(value) = Self::as_const(constant) {
                if value.is_zero() {
                    return other.clone();
                }
            }
        }
        self.bv_binop(a, b, BvValue::bitxor, TermKind::BvXor)
    }

    pub fn bv_not(&self, a: TermRef) -> TermRef {
        let sort = a.sort;
        match &a.kind {
            TermKind::BvConst(v) => self.bv_value(v.bitnot()),
            // ~~x = x, mirroring the compiler's double-negation rewrite.
            TermKind::BvNot(inner) => inner.clone(),
            _ => self.mk(sort, TermKind::BvNot(a)),
        }
    }

    pub fn bv_neg(&self, a: TermRef) -> TermRef {
        let sort = a.sort;
        if let TermKind::BvConst(v) = &a.kind {
            return self.bv_value(v.neg());
        }
        self.mk(sort, TermKind::BvNeg(a))
    }

    pub fn bv_shl(&self, a: TermRef, b: TermRef) -> TermRef {
        // x << 0 = x.
        if Self::as_const(&b).is_some_and(BvValue::is_zero) {
            return a;
        }
        // x << k = 0 for constant k ≥ width (zero-fill semantics).  Folding
        // here keeps a symbolic `x << 41` and a rewritten literal `0`
        // hash-consed to the same term, so translation-validation miters
        // over oversized shifts stay structural instead of burning SAT time.
        if let (Sort::BitVec(width), Some(amount)) = (a.sort, Self::as_const(&b)) {
            if amount.to_u128() >= u128::from(width) {
                return self.bv_const(0, width);
            }
        }
        self.bv_binop(
            a,
            b,
            |x, y| x.shl(y.to_u128().min(u128::from(u32::MAX)) as u32),
            TermKind::BvShl,
        )
    }

    pub fn bv_lshr(&self, a: TermRef, b: TermRef) -> TermRef {
        // x >> 0 = x.
        if Self::as_const(&b).is_some_and(BvValue::is_zero) {
            return a;
        }
        // x >> k = 0 for constant k ≥ width, mirroring `bv_shl`.
        if let (Sort::BitVec(width), Some(amount)) = (a.sort, Self::as_const(&b)) {
            if amount.to_u128() >= u128::from(width) {
                return self.bv_const(0, width);
            }
        }
        self.bv_binop(
            a,
            b,
            |x, y| x.lshr(y.to_u128().min(u128::from(u32::MAX)) as u32),
            TermKind::BvLshr,
        )
    }

    pub fn bv_ult(&self, a: TermRef, b: TermRef) -> TermRef {
        // x < x = false; x < 0 = false (unsigned).  The zero fold is what
        // keeps `x |-| 0` (desugared `ite(ult(x, 0), 0, x - 0)`) hash-consed
        // back to `x`: a strength-reduced program and its original then meet
        // structurally instead of handing the SAT core an equivalence over
        // two 48-bit datapaths that costs unbounded conflicts to prove.
        if a.id == b.id || Self::as_const(&b).is_some_and(BvValue::is_zero) {
            return self.fls();
        }
        self.bv_cmp(a, b, BvValue::ult, TermKind::BvUlt)
    }

    pub fn bv_ule(&self, a: TermRef, b: TermRef) -> TermRef {
        // x <= x = true; 0 <= x = true (unsigned).
        if a.id == b.id || Self::as_const(&a).is_some_and(BvValue::is_zero) {
            return self.tru();
        }
        self.bv_cmp(a, b, |x, y| !y.ult(x), TermKind::BvUle)
    }

    pub fn bv_ugt(&self, a: TermRef, b: TermRef) -> TermRef {
        self.bv_ult(b, a)
    }

    pub fn bv_uge(&self, a: TermRef, b: TermRef) -> TermRef {
        self.bv_ule(b, a)
    }

    pub fn bv_slt(&self, a: TermRef, b: TermRef) -> TermRef {
        // x < x = false (signed).
        if a.id == b.id {
            return self.fls();
        }
        self.bv_cmp(a, b, BvValue::slt, TermKind::BvSlt)
    }

    /// Saturating add, desugared: `ite(ult(a + b, a), max, a + b)`.
    pub fn bv_sat_add(&self, a: TermRef, b: TermRef) -> TermRef {
        let width = a.sort.width();
        let sum = self.bv_add(a.clone(), b);
        let overflow = self.bv_ult(sum.clone(), a);
        let max = self.bv_value(BvValue::from_u128(u128::MAX, width).resize(width));
        let max = self.bv_not(self.bv_xor(max.clone(), max)); // all-ones of the right width
        self.ite(overflow, max, sum)
    }

    /// Saturating subtract, desugared: `ite(ult(a, b), 0, a - b)`.
    pub fn bv_sat_sub(&self, a: TermRef, b: TermRef) -> TermRef {
        let width = a.sort.width();
        let diff = self.bv_sub(a.clone(), b.clone());
        let underflow = self.bv_ult(a, b);
        let zero = self.bv_const(0, width);
        self.ite(underflow, zero, diff)
    }

    pub fn concat(&self, hi: TermRef, lo: TermRef) -> TermRef {
        let width = hi.sort.width() + lo.sort.width();
        if let (TermKind::BvConst(h), TermKind::BvConst(l)) = (&hi.kind, &lo.kind) {
            return self.bv_value(h.concat(l));
        }
        self.mk(Sort::BitVec(width), TermKind::Concat(hi, lo))
    }

    pub fn extract(&self, hi: u32, lo: u32, arg: TermRef) -> TermRef {
        assert!(hi >= lo, "extract with hi < lo");
        assert!(
            hi < arg.sort.width(),
            "extract out of range: [{hi}:{lo}] of {}",
            arg.sort.width()
        );
        let width = hi - lo + 1;
        if width == arg.sort.width() {
            return arg;
        }
        if let TermKind::BvConst(v) = &arg.kind {
            return self.bv_value(v.extract(hi, lo));
        }
        self.mk(Sort::BitVec(width), TermKind::Extract { hi, lo, arg })
    }

    pub fn zero_extend(&self, arg: TermRef, width: u32) -> TermRef {
        assert!(width >= arg.sort.width());
        if width == arg.sort.width() {
            return arg;
        }
        if let TermKind::BvConst(v) = &arg.kind {
            return self.bv_value(v.resize(width));
        }
        self.mk(Sort::BitVec(width), TermKind::ZeroExtend { arg, width })
    }

    pub fn sign_extend(&self, arg: TermRef, width: u32) -> TermRef {
        assert!(width >= arg.sort.width());
        if width == arg.sort.width() {
            return arg;
        }
        if let TermKind::BvConst(v) = &arg.kind {
            return self.bv_value(v.sign_extend(width));
        }
        self.mk(Sort::BitVec(width), TermKind::SignExtend { arg, width })
    }

    /// Resizes a bit-vector term to `width`, zero-extending or truncating.
    pub fn resize(&self, arg: TermRef, width: u32) -> TermRef {
        let current = arg.sort.width();
        if width == current {
            arg
        } else if width > current {
            self.zero_extend(arg, width)
        } else {
            self.extract(width - 1, 0, arg)
        }
    }

    /// Converts a boolean term to a 1-bit vector (true → 1).
    pub fn bool_to_bv(&self, arg: TermRef) -> TermRef {
        debug_assert!(arg.sort.is_bool());
        self.ite(arg, self.bv_const(1, 1), self.bv_const(0, 1))
    }

    /// Converts a bit-vector term to a boolean (non-zero → true).
    pub fn bv_to_bool(&self, arg: TermRef) -> TermRef {
        let width = arg.sort.width();
        let zero = self.bv_const(0, width);
        self.neq(arg, zero)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn constant_folding_arithmetic() {
        let tm = TermManager::new();
        let a = tm.bv_const(250, 8);
        let b = tm.bv_const(10, 8);
        let sum = tm.bv_add(a.clone(), b.clone());
        assert!(matches!(&sum.kind, TermKind::BvConst(v) if v.to_u128() == 4));
        let cmp = tm.bv_ult(a, b);
        assert!(matches!(&cmp.kind, TermKind::BoolConst(false)));
    }

    /// Same-condition nested ites absorb into the outer ite: the symbolic
    /// interpreter's per-statement merge produces `ite(c, ite(c, a, b), b)`
    /// for block-wrapped statements, which must stay hash-consed identical
    /// to the unwrapped `ite(c, a, b)` (a block-wrapping pass used to send
    /// the resulting 48-bit miter to the SAT solver and hang the campaign).
    #[test]
    fn same_condition_nested_ites_absorb() {
        let tm = TermManager::new();
        let c = tm.var("c", Sort::Bool);
        let a = tm.var("a", Sort::BitVec(48));
        let b = tm.var("b", Sort::BitVec(48));
        let plain = tm.ite(c.clone(), a.clone(), b.clone());
        let wrapped_then = tm.ite(c.clone(), plain.clone(), b.clone());
        assert_eq!(wrapped_then.id, plain.id);
        let wrapped_else = tm.ite(c.clone(), a.clone(), plain.clone());
        assert_eq!(wrapped_else.id, plain.id);
        // Different conditions must not absorb.
        let d = tm.var("d", Sort::Bool);
        let other = tm.ite(d, plain.clone(), b.clone());
        assert_ne!(other.id, plain.id);
    }

    /// Oversized constant shift amounts fold to the zero constant at the
    /// term level (zero-fill semantics), keeping `x << 41` hash-consed
    /// identical to a literal `0` — translation-validation miters over
    /// strength-reduced oversized shifts must stay structural (a 8w41 shift
    /// of a symbolic operand used to cost the SAT solver over a minute).
    #[test]
    fn oversized_constant_shifts_fold_to_zero() {
        let tm = TermManager::new();
        let x = tm.var("x", Sort::BitVec(8));
        for shifted in [
            tm.bv_shl(x.clone(), tm.bv_const(41, 8)),
            tm.bv_shl(x.clone(), tm.bv_const(8, 8)),
            tm.bv_lshr(x.clone(), tm.bv_const(9, 8)),
        ] {
            assert!(
                matches!(&shifted.kind, TermKind::BvConst(v) if v.is_zero()),
                "expected zero constant, got {shifted:?}"
            );
        }
        // In-range constant amounts stay symbolic.
        let in_range = tm.bv_shl(x.clone(), tm.bv_const(7, 8));
        assert!(matches!(&in_range.kind, TermKind::BvShl(..)));
    }

    #[test]
    fn boolean_simplifications() {
        let tm = TermManager::new();
        let x = tm.var("x", Sort::Bool);
        assert!(matches!(
            tm.and2(tm.fls(), x.clone()).kind,
            TermKind::BoolConst(false)
        ));
        assert!(matches!(
            tm.or2(tm.tru(), x.clone()).kind,
            TermKind::BoolConst(true)
        ));
        assert_eq!(tm.and2(tm.tru(), x.clone()).id, x.id);
        let double_neg = tm.not(tm.not(x.clone()));
        assert_eq!(double_neg.id, x.id);
    }

    #[test]
    fn ite_simplifications() {
        let tm = TermManager::new();
        let a = tm.var("a", Sort::BitVec(8));
        let b = tm.var("b", Sort::BitVec(8));
        assert_eq!(tm.ite(tm.tru(), a.clone(), b.clone()).id, a.id);
        assert_eq!(tm.ite(tm.fls(), a.clone(), b.clone()).id, b.id);
        let c = tm.var("c", Sort::Bool);
        assert_eq!(tm.ite(c, a.clone(), a.clone()).id, a.id);
    }

    #[test]
    fn eq_reflexive_and_constant() {
        let tm = TermManager::new();
        let a = tm.var("a", Sort::BitVec(8));
        assert!(matches!(
            tm.eq(a.clone(), a.clone()).kind,
            TermKind::BoolConst(true)
        ));
        let one = tm.bv_const(1, 8);
        let two = tm.bv_const(2, 8);
        assert!(matches!(tm.eq(one, two).kind, TermKind::BoolConst(false)));
    }

    #[test]
    fn extract_concat_widths() {
        let tm = TermManager::new();
        let a = tm.var("a", Sort::BitVec(8));
        let b = tm.var("b", Sort::BitVec(16));
        let cat = tm.concat(a.clone(), b.clone());
        assert_eq!(cat.sort, Sort::BitVec(24));
        let ext = tm.extract(7, 4, a.clone());
        assert_eq!(ext.sort, Sort::BitVec(4));
        assert_eq!(tm.extract(7, 0, a.clone()).id, a.id);
        assert_eq!(tm.resize(a.clone(), 16).sort, Sort::BitVec(16));
        assert_eq!(tm.resize(b, 8).sort, Sort::BitVec(8));
    }

    #[test]
    fn sat_arith_folds_to_expected_shape() {
        let tm = TermManager::new();
        let a = tm.bv_const(250, 8);
        let b = tm.bv_const(10, 8);
        let sat = tm.bv_sat_add(a, b);
        assert!(matches!(&sat.kind, TermKind::BvConst(v) if v.to_u128() == 255));
        let sat2 = tm.bv_sat_sub(tm.bv_const(3, 8), tm.bv_const(10, 8));
        assert!(matches!(&sat2.kind, TermKind::BvConst(v) if v.to_u128() == 0));
    }

    /// The comparison identities every strength-reduction rewrite leans on:
    /// without them `x |-| 0` (desugared through `ult(x, 0)`) and plain `x`
    /// only meet at the SAT solver, and a 48-bit instance of that miter is
    /// hard enough to stall a campaign for minutes.
    #[test]
    fn comparison_identities_fold() {
        let tm = TermManager::new();
        let x = tm.var("x", Sort::BitVec(48));
        let zero = tm.bv_const(0, 48);
        assert!(matches!(
            tm.bv_ult(x.clone(), zero.clone()).kind,
            TermKind::BoolConst(false)
        ));
        assert!(matches!(
            tm.bv_ult(x.clone(), x.clone()).kind,
            TermKind::BoolConst(false)
        ));
        assert!(matches!(
            tm.bv_ule(zero.clone(), x.clone()).kind,
            TermKind::BoolConst(true)
        ));
        assert!(matches!(
            tm.bv_ule(x.clone(), x.clone()).kind,
            TermKind::BoolConst(true)
        ));
        assert!(matches!(
            tm.bv_slt(x.clone(), x.clone()).kind,
            TermKind::BoolConst(false)
        ));
        // Still symbolic when nothing is known.
        let y = tm.var("y", Sort::BitVec(48));
        assert!(matches!(
            tm.bv_ult(x.clone(), y.clone()).kind,
            TermKind::BvUlt(..)
        ));
        assert!(matches!(tm.bv_ule(x, y).kind, TermKind::BvUle(..)));
    }

    /// Saturating arithmetic with a zero operand folds all the way back to
    /// the other operand — the exact shape of the `add_zero_identity`
    /// strength-reduction rule, which must stay structural in miters.
    #[test]
    fn saturating_zero_identities_fold_to_operand() {
        let tm = TermManager::new();
        let x = tm.var("x", Sort::BitVec(48));
        let zero = tm.bv_const(0, 48);
        assert_eq!(tm.bv_sat_sub(x.clone(), zero.clone()).id, x.id);
        assert_eq!(tm.bv_sat_add(x.clone(), zero.clone()).id, x.id);
        // The seed-17 regression shape: (x |-| 0) << 13 vs x << 13 must be
        // one hash-consed term, so the equivalence query never reaches SAT.
        let thirteen = tm.bv_const(13, 48);
        let reduced = tm.bv_shl(x.clone(), thirteen.clone());
        let original = tm.bv_shl(tm.bv_sat_sub(x.clone(), zero), thirteen);
        assert_eq!(original.id, reduced.id);
        assert!(matches!(
            tm.neq(original, reduced).kind,
            TermKind::BoolConst(false)
        ));
    }

    /// `x * 2^k` canonicalises to `x << k`, mirroring the compiler's
    /// `mul_pow2_to_shift` rewrite so those miters stay structural too.
    #[test]
    fn mul_by_power_of_two_canonicalises_to_shift() {
        let tm = TermManager::new();
        let x = tm.var("x", Sort::BitVec(8));
        let mul = tm.bv_mul(x.clone(), tm.bv_const(4, 8));
        let shift = tm.bv_shl(x.clone(), tm.bv_const(2, 8));
        assert_eq!(mul.id, shift.id);
        let mirrored = tm.bv_mul(tm.bv_const(16, 8), x.clone());
        assert!(matches!(&mirrored.kind, TermKind::BvShl(..)));
        // A power that would overflow the width truncates to zero before
        // the constructor sees it, landing in the mul-by-zero fold.
        let overflowed = tm.bv_mul(x.clone(), tm.bv_value(BvValue::from_u128(256, 8)));
        assert!(matches!(&overflowed.kind, TermKind::BvConst(v) if v.is_zero()));
        // Non-power constants still multiply.
        assert!(matches!(
            tm.bv_mul(x.clone(), tm.bv_const(6, 8)).kind,
            TermKind::BvMul(..)
        ));
        // Constant * constant folds to a constant, not a shift.
        let both = tm.bv_mul(tm.bv_const(3, 8), tm.bv_const(4, 8));
        assert!(matches!(&both.kind, TermKind::BvConst(v) if v.to_u128() == 12));
    }

    #[test]
    fn double_bitwise_negation_folds() {
        let tm = TermManager::new();
        let x = tm.var("x", Sort::BitVec(8));
        assert_eq!(tm.bv_not(tm.bv_not(x.clone())).id, x.id);
    }

    #[test]
    fn display_smtlib_like() {
        let tm = TermManager::new();
        let a = tm.var("a", Sort::BitVec(8));
        let e = tm.bv_add(a.clone(), tm.bv_const(1, 8));
        assert_eq!(format!("{e}"), "(bvadd a 8w1)");
    }
}
