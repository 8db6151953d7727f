//! # p4c — a nanopass compiler for the P4-16 subset
//!
//! This crate is the reproduction's stand-in for the P4C front- and mid-end
//! infrastructure that Gauntlet tests.  It provides:
//!
//! * a [`pass::Pass`] trait and [`Compiler`] driver that runs a pipeline of
//!   passes, captures the program after every modifying pass (the `p4test`
//!   behaviour translation validation consumes), and converts pass panics
//!   into structured crash reports;
//! * the reference pass catalogue in [`passes`] (constant folding, strength
//!   reduction, side-effect ordering, function/action inlining with explicit
//!   copy-in/copy-out, def-use simplification, copy propagation,
//!   predication, block flattening);
//! * a seeded-bug catalogue in [`buggy`] with one faulty pass variant per
//!   miscompilation class described in the paper's §7.2 / Figure 5, used by
//!   the evaluation harness to measure Gauntlet's detection ability;
//! * a rewrite-rule [`coverage`] subsystem: every optimisation rule reports
//!   its firings through a lightweight sink threaded through the driver, so
//!   campaigns can close the generate→compile→validate loop and steer the
//!   program generator toward rules that have never fired.

pub mod buggy;
pub mod coverage;
pub mod error;
pub mod pass;
pub mod passes;

pub use buggy::{DriverBugClass, FrontEndBugClass};
pub use coverage::PassCoverage;
pub use error::{CompileError, Diagnostic};
pub use pass::{CompileResult, Compiler, Pass, PassArea, PassSnapshot, Snapshots};
