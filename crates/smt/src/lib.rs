//! # smt — a quantifier-free bit-vector solver
//!
//! The paper uses the Z3 SMT solver to decide program equivalence and to
//! generate test packets.  The `z3` crate needs the native libz3 library,
//! which is not available in this offline environment, so this crate
//! re-implements the fragment Gauntlet actually needs (QF_BV with
//! if-then-else) from scratch:
//!
//! * [`term`] — the term language and a constant-folding [`TermManager`];
//! * [`value`] — arbitrary-width concrete bit-vector values;
//! * [`mod@eval`] — concrete evaluation of terms under an assignment;
//! * [`bitblast`] — Tseitin lowering of terms to CNF;
//! * [`sat`] — a CDCL SAT solver (watched literals, 1UIP learning, VSIDS,
//!   restarts);
//! * [`solver`] — the Z3-shaped facade: assert terms, check, get a model.
//!
//! The design trade-off matches the paper's observation that generated
//! programs are small (§2.3, §5.2): formulas stay tiny, so a simple,
//! obviously-correct solver is preferable to a heavily optimised one.

pub mod bitblast;
pub mod eval;
pub mod sat;
pub mod solver;
pub mod term;
pub mod value;

pub use bitblast::{BitBlaster, BlastContext};
pub use eval::{eval, eval_with_default, Assignment, EvalError, Value};
pub use solver::{CheckResult, Model, Solver, SolverStats};
pub use term::{Sort, Term, TermKind, TermManager, TermRef, VarName};
pub use value::BvValue;
