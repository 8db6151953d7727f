//! End-to-end campaign benchmark for the Gauntlet reproduction.
//!
//! See `NOTES.md` in the package directory for the workloads, the screened
//! chunk pools, and how this benchmark relates to the per-stage
//! `trajectory` bench.

pub mod child;
pub mod metrics;
pub mod phases;
pub mod runner;
pub mod screen;
pub mod stats;
pub mod trace;
pub mod traced;
pub mod workload;
