//! # gauntlet-core — the Gauntlet compiler bug-finding pipeline
//!
//! This crate is the paper's primary contribution assembled from the
//! substrate crates: random program generation (`p4-gen`), the nanopass
//! compiler under test (`p4c`), symbolic interpretation / translation
//! validation / test-case generation (`p4-symbolic` over the `smt` solver),
//! and the simulated back ends (`targets`).
//!
//! * [`pipeline`] — the three detection techniques (crash detection,
//!   translation validation, symbolic-execution testing) glued into one
//!   [`Gauntlet`] tool (paper Figures 2 and 4);
//! * [`bugs`] — finding classification and de-duplication (crash vs
//!   semantic vs invalid transformation; platform; compiler area);
//! * [`inject`] — the seeded-bug catalogue with Figure-5-style trigger
//!   programs, replacing the real 2020-era compiler bugs the paper found;
//! * [`campaign`] — the evaluation campaign that regenerates the shape of
//!   the paper's Tables 2 and 3;
//! * [`report`] — text rendering of the campaign results;
//! * [`json_report`] — the versioned machine-readable `gauntlet-report-v1`
//!   JSON document from which every rendered table is derivable.
//!
//! Test-case reduction (`p4-reduce`) plugs in underneath: campaigns run
//! with reduction enabled attach a delta-debugged minimal reproducer to
//! every finding, reproducing the paper's reporting workflow (§7).  The
//! reduction oracles ([`Gauntlet::open_compiler_oracle`],
//! [`Gauntlet::metamorphic_oracle`], [`SeededBug::oracle`]) live here and
//! re-run the detection pipeline on every shrink candidate, matching
//! [`BugReport::dedup_key`].

pub mod bugs;
pub mod campaign;
pub mod corpus;
pub mod inject;
pub mod json_report;
mod oracle;
pub mod pipeline;
pub mod report;

pub use bugs::{BugDatabase, BugKind, BugReport, CompilerArea, Platform, Technique};
pub use campaign::{
    run_campaign, CacheSummary, CampaignConfig, CampaignReport, CoverageOptions, CoverageSummary,
    DiversitySummary, HuntConfig, HuntReport, MutationSummary, ParallelCampaign, SeedOutcome,
    SeededBugOutcome, TelemetryOptions,
};
pub use corpus::{Corpus, CorpusEntry};
pub use inject::SeededBug;
pub use json_report::{
    bug_report_from_json, bug_report_json, cache_json, cache_summary_from_json, coverage_from_json,
    diversity_from_json, hunt_result_from_json, mutation_from_json, outcomes_from_json,
    REPORT_SCHEMA,
};
pub use p4_symbolic::{CacheBudget, CacheStats, CampaignCache, SessionStats};

pub use p4_mutate::{
    hunt_mutation_seed, MetamorphicChecker, MetamorphicOptions, CAMPAIGN_MUTATION_SEED,
};
pub use pipeline::{Gauntlet, GauntletOptions, MutationOutcome, ProgramOutcome};
pub use report::{render_detection_matrix, render_reduction_summary, render_table2, render_table3};
