//! Full bug-finding campaign: regenerates the shape of the paper's Tables 2
//! and 3 from the seeded-bug catalogue, demonstrates the parallel
//! bug-hunting engine over a random seed range, and finishes with an N-way
//! differential hunt across all registered back ends (BMv2, Tofino, and the
//! reference interpreter) with per-target majority-vote attribution.
//!
//! Run with:
//!
//! ```text
//! cargo run --release --example bug_campaign -- [--jobs N] [--programs-per-bug P] \
//!     [--hunt-seeds S] [--coverage 1] [--corpus PATH] [--mutate 1] \
//!     [--mutations-per-seed M] [--cache 0] [--portfolio 1] \
//!     [--events PATH] [--report PATH] [--quiet]
//! ```
//!
//! `--coverage 1` turns the hunts coverage-guided: pass-rule coverage is
//! accumulated, generator weights adapt each epoch, and the report gains a
//! coverage block; `--corpus PATH` additionally persists the
//! coverage-advancing programs across runs.  `--mutate 1` adds the second
//! bug-finding dimension: every hunted program (and every replayed corpus
//! entry) spawns `--mutations-per-seed` semantics-preserving mutants whose
//! compiled forms are proved equivalent to the compiled seed, the report
//! gains a mutation block, and a hunt against a compiler with seeded
//! pre-snapshot corruption demonstrates a detection translation validation
//! provably cannot make.  `--cache 0` disables the pool-shared epoch
//! validation cache (on by default; reports are identical either way) and
//! `--portfolio 1` races hard equivalence queries across diverse SAT
//! configurations.
//!
//! Observability (all strictly observation-only — stdout stays
//! byte-identical): `--events PATH` writes a `gauntlet-events-v1` JSONL
//! event log for the main hunt, `--report PATH` writes its
//! `gauntlet-report-v1` JSON document, and `--quiet` silences the stderr
//! progress heartbeat and notes.

use gauntlet_core::{
    render_detection_matrix, render_table2, render_table3, run_campaign, CampaignConfig,
    CoverageOptions, HuntConfig, MetamorphicOptions, ParallelCampaign, SeededBug, TelemetryOptions,
};
use gauntlet_telemetry::{EventLog, ProgressSink};
use std::sync::Arc;

fn parse_flag(name: &str, default: usize) -> usize {
    let args: Vec<String> = std::env::args().collect();
    args.iter()
        .position(|a| a == name)
        .and_then(|i| args.get(i + 1))
        .and_then(|v| v.parse().ok())
        .unwrap_or(default)
}

fn parse_string_flag(name: &str) -> Option<String> {
    let args: Vec<String> = std::env::args().collect();
    args.iter()
        .position(|a| a == name)
        .and_then(|i| args.get(i + 1))
        .cloned()
}

fn has_flag(name: &str) -> bool {
    std::env::args().any(|a| a == name)
}

fn main() {
    let jobs = parse_flag("--jobs", 1);
    let random_programs_per_bug = parse_flag("--programs-per-bug", 2);
    let hunt_seeds = parse_flag("--hunt-seeds", 100);
    let coverage = if parse_flag("--coverage", 0) != 0 {
        Some(CoverageOptions {
            corpus: parse_string_flag("--corpus"),
            ..CoverageOptions::default()
        })
    } else {
        None
    };
    let epoch_cache = parse_flag("--cache", 1) != 0;
    let portfolio = parse_flag("--portfolio", 0) != 0;
    let quiet = has_flag("--quiet");
    let report_path = parse_string_flag("--report");
    // All stderr narration goes through one sink so `--quiet` silences
    // everything at once; stdout (the deterministic artifact) is untouched.
    let progress = ProgressSink::new(!quiet);
    // Telemetry must never fail a campaign: an unusable event-log path is
    // noted and the hunt runs without the log.
    let events = parse_string_flag("--events").and_then(|path| {
        EventLog::create(&path)
            .map_err(|error| {
                progress.note(&format!(
                    "[gauntlet] cannot open event log `{path}`: {error}"
                ))
            })
            .ok()
    });
    // The main hunt gets the event log; the later hunts use progress-only
    // telemetry so the log holds exactly one campaign.
    let hunt_telemetry = Some(TelemetryOptions {
        events: events.map(Arc::new),
        progress: !quiet,
    });
    let progress_telemetry = Some(TelemetryOptions {
        events: None,
        progress: !quiet,
    });
    let mutation = if parse_flag("--mutate", 0) != 0 {
        Some(MetamorphicOptions {
            mutants_per_seed: parse_flag(
                "--mutations-per-seed",
                MetamorphicOptions::default().mutants_per_seed,
            ),
            ..MetamorphicOptions::default()
        })
    } else {
        None
    };

    // Part 1: the seeded-bug table campaign (paper Tables 2 and 3).
    let config = CampaignConfig {
        random_programs_per_bug,
        jobs,
        ..CampaignConfig::default()
    };
    println!(
        "running campaign: {} seeded bug classes, {} random program(s) per class, {} job(s) ...",
        SeededBug::catalogue().len(),
        config.random_programs_per_bug,
        jobs
    );
    let start = std::time::Instant::now();
    let report = run_campaign(&config);
    println!("campaign finished in {:?}", start.elapsed());
    println!();
    println!("{}", render_table2(&report));
    println!("{}", render_table3(&report));
    println!("{}", render_detection_matrix(&report));

    // Part 2: the parallel hunt over a random seed range, against a compiler
    // seeded with one semantic bug so there is something to find.
    let buggy = SeededBug::catalogue()
        .into_iter()
        .find(|b| b.platform() == gauntlet_core::Platform::P4c && !b.is_crash_class())
        .expect("catalogue has a P4C semantic bug");
    println!(
        "hunting {} random programs against a compiler seeded with `{}` ({} job(s)) ...",
        hunt_seeds,
        buggy.name(),
        jobs
    );
    let hunt = ParallelCampaign::new(HuntConfig {
        jobs,
        seed_count: hunt_seeds,
        bug_quota: if coverage.is_some() || mutation.is_some() {
            None
        } else {
            Some(5)
        },
        coverage: coverage.clone(),
        mutation: mutation.clone(),
        epoch_cache,
        portfolio,
        telemetry: hunt_telemetry,
        ..HuntConfig::default()
    })
    .run(|| buggy.build_compiler());
    println!(
        "hunt finished in {:?} ({:.1} programs/s, per-worker loads {:?})",
        hunt.elapsed,
        hunt.throughput(),
        hunt.per_worker
    );
    if let Some(cache) = &hunt.cache {
        // Run-descriptive like `elapsed` (quota overshoot makes lookup
        // counts schedule-dependent), so the stderr sink: stdout stays
        // byte-identical across `--jobs`, and `--quiet` silences it.
        progress.note(&format!(
            "epoch cache: {} epoch(s), semantics {}/{} hit, verdicts {}/{} hit, {} portfolio race(s)",
            cache.epochs,
            cache.stats.semantics_hits,
            cache.stats.semantics_lookups(),
            cache.stats.verdict_hits,
            cache.stats.verdict_lookups(),
            cache.portfolio_races
        ));
    }
    if let Some(path) = &report_path {
        match std::fs::write(path, hunt.to_json()) {
            Ok(()) => progress.note(&format!("wrote gauntlet-report-v1 to {path}")),
            Err(error) => progress.note(&format!("could not write report {path}: {error}")),
        }
    }
    println!("{}", hunt.render());

    // Part 3: N-way differential testgen — every generated test replayed on
    // all three registered back ends, with a seeded BMv2 defect that the
    // majority vote must pin on the right target.
    let diff_targets = vec![
        "bmv2+Bmv2ExitIgnored".to_string(),
        "tofino".to_string(),
        "ref-interp".to_string(),
    ];
    println!(
        "3-way differential hunt over {} programs across {:?} ({} job(s)) ...",
        hunt_seeds, diff_targets, jobs
    );
    let diff = ParallelCampaign::new(HuntConfig {
        jobs,
        seed_count: hunt_seeds,
        targets: diff_targets,
        coverage,
        epoch_cache,
        portfolio,
        telemetry: progress_telemetry.clone(),
        ..HuntConfig::default()
    })
    .run(p4c::Compiler::reference);
    println!(
        "differential hunt finished in {:?} ({:.1} programs/s)",
        diff.elapsed,
        diff.throughput()
    );
    println!("{}", diff.render());
    println!("{}", render_table2(&diff.campaign_summary()));
    assert!(
        diff.outcomes
            .iter()
            .flat_map(|o| &o.reports)
            .all(|r| r.attributed_to.as_deref() == Some("bmv2")),
        "the 3-way vote must attribute every finding to the seeded bmv2 target"
    );

    // Part 4 (with --mutate): the metamorphic showcase — hunt a compiler
    // whose driver corrupts the program *before the first snapshot*.
    // Translation validation is blind to it by construction; the mutant
    // families convict it.
    if let Some(mutation) = mutation {
        let driver_bug = SeededBug::catalogue()
            .into_iter()
            .find(|b| matches!(b, SeededBug::Driver(_)))
            .expect("catalogue has a driver bug");
        println!(
            "metamorphic hunt: {} programs x {} mutants against `{}` ({} job(s)) ...",
            hunt_seeds,
            mutation.mutants_per_seed,
            driver_bug.name(),
            jobs
        );
        let metamorphic = ParallelCampaign::new(HuntConfig {
            jobs,
            seed_count: hunt_seeds,
            mutation: Some(mutation),
            epoch_cache,
            portfolio,
            telemetry: progress_telemetry,
            ..HuntConfig::default()
        })
        .run(|| driver_bug.build_compiler());
        println!(
            "metamorphic hunt finished in {:?} ({:.1} programs/s)",
            metamorphic.elapsed,
            metamorphic.throughput()
        );
        println!("{}", metamorphic.render());
        let summary = metamorphic
            .mutation
            .as_ref()
            .expect("mutation block present");
        assert!(
            summary.divergent > 0,
            "the metamorphic oracle must convict the pre-snapshot corruption"
        );
    }
}
