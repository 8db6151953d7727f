//! # p4-mutate — semantics-preserving program mutation for metamorphic testing
//!
//! Gauntlet's translation validation checks each compiled program against
//! *its own* source, pass by pass (paper §5).  That oracle is blind to two
//! defect shapes: a miscompilation the validator's model mis-models the same
//! way, and corruption applied to the program *before the first snapshot* is
//! taken — every adjacent snapshot pair is then self-consistent and the
//! chain validates clean.  The paper's §8 names semantics-preserving
//! transformation ("EMI-style") testing as the complementary oracle; this
//! crate supplies it as a second bug-finding dimension:
//!
//! * [`mutators`] — the [`Mutator`] trait and the catalogue of
//!   semantics-preserving program mutators: opaque-guard dead-code
//!   injection, algebraic identity rewrites, reordering of provably
//!   independent assignments, and control-flow wrapping/unwrapping;
//! * [`registry`] — the static mutator/rule registry
//!   ([`registry::ALL_MUTATORS`]) and [`MutationCoverage`] counters,
//!   mirroring `p4c::coverage`'s pass-rule registry so mutation coverage is
//!   reportable the same way pass-rewrite coverage is;
//! * [`engine`] — the deterministic, seedable [`MutationEngine`] that turns
//!   one seed program into a [`Mutant`] (program + applied-mutation chain),
//!   with chain replay for test-case reduction;
//! * [`check`] — the [`MetamorphicChecker`]: compile the seed, compile each
//!   mutant, and prove mutant ≡ seed end-to-end through one hash-consed
//!   incremental `p4_symbolic::ValidationSession`.  A divergence is a
//!   compiler bug by construction (the mutant is equivalent to the seed at
//!   the source level), de-duplicated by mutator chain + diverging field.
//!
//! Every mutator preserves well-typedness, printer→parser round-trips, and
//! byte-determinism per seed; the property suite in
//! `tests/prop_mutators.rs` enforces all three plus chain-equivalence
//! against the reference interpreter.

pub mod check;
pub mod engine;
pub mod mutators;
pub mod registry;

pub use check::{
    divergence_headline, ChainOutcome, MetamorphicChecker, MetamorphicFinding,
    MetamorphicFindingKind, MetamorphicOptions, MetamorphicOutcome, CAMPAIGN_MUTATION_SEED,
    MAX_CHAIN,
};
pub use engine::{chain_key, hunt_mutation_seed, AppliedMutation, Mutant, MutationEngine};
pub use mutators::{standard_mutators, Mutator};
pub use registry::{all_rule_keys, rule_key, total_rules, MutationCoverage, ALL_MUTATORS};
