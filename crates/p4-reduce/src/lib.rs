//! # p4-reduce — delta-debugging test-case reduction for Gauntlet findings
//!
//! The paper's workflow does not end when a bug fires: every one of the 96
//! reports filed upstream was first *reduced* to a minimal reproducer (§7).
//! This crate supplies that missing stage as a standalone subsystem:
//!
//! * [`mod@ddmin`] — the Zeller/Hildebrandt delta-debugging minimisation
//!   algorithm over an arbitrary item list;
//! * [`metamorphic`] — ddmin over the applied-mutation chain of a
//!   `p4-mutate` finding ([`minimize_chain`]);
//! * `passes` — the four reduction steps, run in a fixed order: ddmin over
//!   top-level declarations, structural pruning (control locals, table keys
//!   and actions, parser `select`s and states), statement-list ddmin inside
//!   every block, and expression simplification;
//! * [`reducer`] — the fixpoint [`Reducer`] driver: rounds over that
//!   schedule under an oracle-call budget, with [`ReductionStats`], behind
//!   the one-method [`Oracle`] trait.
//!
//! The oracles themselves live in `gauntlet-core`, next to the detection
//! pipeline they re-run: an oracle answers whether a candidate still files
//! a finding with the target de-duplication key.  Every candidate is gated
//! through `p4_check` before the oracle sees it, so a reducer output always
//! typechecks; and a candidate is only accepted when the oracle reproduces
//! the *same* key, so reduction can never migrate onto a different bug.
//! Every step is deterministic, which makes the minimised program a pure
//! function of (program, key, budget).

pub mod ddmin;
pub mod metamorphic;
mod passes;
pub mod reducer;

pub use ddmin::ddmin;
pub use metamorphic::minimize_chain;
pub use passes::statement_count;
pub use reducer::{Oracle, Reducer, ReducerConfig, Reduction, ReductionStats};
