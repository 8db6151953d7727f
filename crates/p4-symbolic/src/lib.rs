//! # p4-symbolic — symbolic interpretation of P4 programs
//!
//! The crate at the centre of Gauntlet's semantic-bug detection.  It turns a
//! P4 program into per-block SMT formulas ([`interpreter`]), decides whether
//! two versions of a program can ever disagree ([`equivalence`], used for
//! translation validation of open compilers), and derives input/output test
//! packets from the same formulas ([`testgen`], used for black-box testing
//! of closed compilers such as Tofino).

pub mod cache;
pub mod equivalence;
pub mod interpreter;
pub mod state;
pub mod testgen;

pub use cache::{CacheBudget, CacheStats, CampaignCache};
pub use equivalence::{
    check_equivalence, difference_headline, Counterexample, Equivalence, EquivalenceError,
    PairVerdict, SessionStats, ValidationSession,
};
pub use interpreter::{
    interpret_program, BlockSemantics, InterpError, ProgramSemantics, TableInfo,
};
pub use state::{SymState, SymVal};
pub use testgen::{generate_tests, TestCase, TestGenError, TestGenOptions};
