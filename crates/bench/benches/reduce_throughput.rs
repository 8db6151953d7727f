//! Experiment §7 — reduction throughput (oracle calls per second and
//! end-to-end reduction time).
//!
//! The paper reduced every reported program to a minimal reproducer before
//! filing it; reduction cost is dominated by re-running the detection
//! technique on every shrink candidate.  This bench measures the raw oracle
//! rate (the open-compiler oracle on a crash target, which compiles without
//! snapshots, and on a semantic target, the pass-targeted, verdict-only
//! check every shrink step of a translation-validation finding makes) and
//! the end-to-end cost of delta-debugging a fixed seed set, asserting along
//! the way that every minimized program still triggers the original bug.
//!
//! Run with `cargo bench --bench reduce_throughput`.

use criterion::{criterion_group, criterion_main, Criterion};
use gauntlet_core::{BugReport, Gauntlet, SeededBug};
use p4_gen::{GeneratorConfig, RandomProgramGenerator};
use p4_ir::Program;
use p4_reduce::{statement_count, Reducer, ReducerConfig};
use p4_symbolic::ValidationSession;
use p4c::FrontEndBugClass;

const SEMANTIC: SeededBug = SeededBug::FrontEnd(FrontEndBugClass::DefUseDropsParameterWrites);

/// The fixed seed set every measurement uses: seeds from a tiny-program
/// range whose generated program triggers the seeded def-use bug, each with
/// its program and first finding.
fn triggers(count: usize) -> Vec<(u64, Program, BugReport)> {
    let compiler = SEMANTIC.build_compiler();
    let mut session = ValidationSession::new();
    (0u64..)
        .filter_map(|seed| {
            let program = RandomProgramGenerator::new(GeneratorConfig::tiny(), seed).generate();
            let report = Gauntlet::default()
                .check_open_compiler_in(&mut session, &compiler, &program)
                .reports
                .into_iter()
                .next()?;
            Some((seed, program, report))
        })
        .take(count)
        .collect()
}

fn bench_oracle_rate(c: &mut Criterion) {
    let mut group = c.benchmark_group("reduce_throughput");
    group.sample_size(20);
    group.bench_function("crash_oracle_call", |b| {
        let crash = SeededBug::FrontEnd(FrontEndBugClass::TypeInferenceShiftCrash);
        let program = crash.trigger_program();
        let report = crash.detect(&Gauntlet::default(), &program).remove(0);
        let target = report.dedup_key();
        let mut oracle = Gauntlet::open_compiler_oracle(&report, crash.build_compiler());
        b.iter(|| std::hint::black_box(oracle.reproduces(&program, &target)))
    });
    group.bench_function("semantic_oracle_reproduces", |b| {
        // The reducer's hot path: one pass-targeted, verdict-only check of
        // the finding's own key per shrink step, through one long-lived
        // session whose caches are warm after the first call.
        let (_, program, report) = triggers(1).remove(0);
        let target = report.dedup_key();
        let mut oracle = Gauntlet::open_compiler_oracle(&report, SEMANTIC.build_compiler());
        b.iter(|| std::hint::black_box(oracle.reproduces(&program, &target)))
    });
    group.finish();
}

/// End-to-end reduction over the fixed seed set, printed as a table (the
/// reproduction guide quotes these numbers), with the soundness assertion
/// that every minimized program still triggers the original bug.
fn reduction_end_to_end(_c: &mut Criterion) {
    const SEEDS: usize = 8;
    println!();
    println!("end-to-end ddmin reduction over {SEEDS} bug-triggering programs:");
    let mut total_calls = 0usize;
    let mut total_elapsed = std::time::Duration::ZERO;
    for (seed, program, report) in triggers(SEEDS) {
        let target = report.dedup_key();
        let mut oracle = Gauntlet::open_compiler_oracle(&report, SEMANTIC.build_compiler());
        let reducer = Reducer::new(ReducerConfig::default());
        let reduction = reducer
            .reduce(&mut *oracle, &program, &target)
            .expect("seed set triggers the bug");
        // Soundness: the minimized program still triggers the same bug.
        assert!(
            oracle.reproduces(&reduction.program, &target),
            "seed {seed}: minimized program lost the bug"
        );
        assert_eq!(
            statement_count(&reduction.program),
            reduction.stats.final_statements
        );
        total_calls += reduction.stats.oracle_calls;
        total_elapsed += reduction.wall_clock;
        println!(
            "  seed {seed:>4}: {:>3} -> {:>2} statements, {:>3} oracle calls, {:?}",
            reduction.stats.initial_statements,
            reduction.stats.final_statements,
            reduction.stats.oracle_calls,
            reduction.wall_clock
        );
    }
    let rate = total_calls as f64 / total_elapsed.as_secs_f64().max(f64::MIN_POSITIVE);
    println!("  total: {total_calls} oracle calls in {total_elapsed:?} ({rate:.1} oracle calls/s)");
}

criterion_group!(benches, bench_oracle_rate, reduction_end_to_end);
criterion_main!(benches);
