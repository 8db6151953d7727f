//! # Gauntlet — a Rust reproduction of "Gauntlet: Finding Bugs in Compilers
//! for Programmable Packet Processing" (OSDI '20)
//!
//! This facade crate re-exports the workspace so the root-level integration
//! tests (`tests/`) and runnable examples (`examples/`) can exercise every
//! layer.  The pipeline, crate by crate:
//!
//! | crate | role |
//! |-------|------|
//! | [`p4_ir`] | the P4 intermediate representation: AST, types, printer |
//! | [`p4_check`] | the reference type checker |
//! | [`p4_parser`] | parser round-tripping the printer's output |
//! | [`p4_gen`] | random well-typed program generation (paper §4) |
//! | [`p4c`] | the nanopass compiler under test, with seedable bug classes |
//! | [`p4_mutate`] | semantics-preserving mutation: the metamorphic (EMI-style) oracle (§8) |
//! | [`smt`] | the QF_BV solver (terms → bit-blasting → CDCL SAT) |
//! | [`p4_symbolic`] | symbolic interpretation, equivalence, test generation (§5–6) |
//! | [`p4_reduce`] | delta-debugging test-case reduction behind a one-method `Oracle` trait (§7) |
//! | [`targets`] | the `Target` trait + registry: BMv2, Tofino, and reference-interpreter back ends |
//! | [`gauntlet_core`] | the three techniques glued together, plus campaigns |
//! | [`gauntlet_fleet`] | crash-tolerant multi-process campaigns: coordinator, workers, triage, checkpoint/resume |
//!
//! Start with `cargo run --example quickstart`, then see the top-level
//! `README.md` and `docs/REPRODUCING.md`.  The `gauntlet` binary
//! (`src/main.rs`) drives fleet campaigns: `gauntlet fleet hunt ...`.

pub use gauntlet_core;
pub use gauntlet_fleet;
pub use p4_check;
pub use p4_gen;
pub use p4_ir;
pub use p4_mutate;
pub use p4_parser;
pub use p4_reduce;
pub use p4_symbolic;
pub use p4c;
pub use smt;
pub use targets;
