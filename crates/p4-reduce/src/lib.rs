//! # p4-reduce — delta-debugging test-case reduction for Gauntlet findings
//!
//! The paper's workflow does not end when a bug fires: every one of the 96
//! reports filed upstream was first *reduced* to a minimal reproducer (§7).
//! This crate supplies that missing stage as a standalone subsystem:
//!
//! * [`mod@ddmin`] — the Zeller/Hildebrandt delta-debugging minimisation
//!   algorithm over an arbitrary item list;
//! * [`oracle`] — the pluggable [`Oracle`] trait plus concrete oracles for
//!   the three detection techniques: [`CrashOracle`] (the compiler still
//!   aborts or rejects), [`SemanticOracle`] (translation validation still
//!   reports inequivalence at the same pass, checking only that pass's
//!   snapshot pairs, verdict-only, and re-using one incremental
//!   [`p4_symbolic::ValidationSession`] across every shrink step), and
//!   [`TestgenOracle`] (any `targets::Target` — BMv2, Tofino, the
//!   reference interpreter, or a custom registration — still diverges on
//!   generated tests);
//! * [`metamorphic`] — the [`MetamorphicOracle`] for `p4-mutate` findings:
//!   the applied-mutation *chain* is ddmin-minimised first
//!   ([`minimize_chain`]), then the seed program shrinks through the
//!   standard reducer while the minimised chain keeps reproducing the same
//!   divergence;
//! * [`passes`] — the [`ReductionPass`] catalogue: ddmin over top-level
//!   declarations, statement-list ddmin inside every block, expression
//!   simplification, and table/parser-state pruning;
//! * [`reducer`] — the fixpoint [`Reducer`] driver with a deterministic
//!   schedule, an oracle-call budget, and [`ReductionStats`].
//!
//! Every candidate is gated through `p4_check` before the oracle sees it, so
//! a reducer output always typechecks; and a candidate is only accepted when
//! the oracle reproduces the *same* bug signature (the de-duplication key of
//! the original finding), so reduction can never migrate onto a different
//! bug.  All passes are deterministic, which makes the minimised program a
//! pure function of (program, signature, budget).

pub mod ddmin;
pub mod metamorphic;
pub mod oracle;
pub mod passes;
pub mod reducer;

pub use ddmin::ddmin;
pub use metamorphic::{
    metamorphic_findings, metamorphic_findings_against, metamorphic_signature, minimize_chain,
    minimize_chain_against, MetamorphicOracle,
};
pub use oracle::{
    bug_signature, CrashOracle, FnOracle, Oracle, SemanticOracle, TestgenOracle, PLATFORM_BMV2,
    PLATFORM_P4C, PLATFORM_REFINTERP, PLATFORM_TOFINO,
};
pub use passes::{
    statement_count, DeclarationDdmin, ExprSimplify, ReductionPass, StatementDdmin, StructurePrune,
};
pub use reducer::{Reducer, ReducerConfig, Reduction, ReductionStats};
