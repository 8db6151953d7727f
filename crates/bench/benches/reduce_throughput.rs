//! Experiment §7 — reduction throughput (oracle calls per second and
//! end-to-end reduction time).
//!
//! The paper reduced every reported program to a minimal reproducer before
//! filing it; reduction cost is dominated by re-running the detection
//! technique on every shrink candidate.  This bench measures the raw oracle
//! rate (crash oracle, the incremental semantic oracle's full signature
//! set, and its pass-targeted, verdict-only `reproduces` that every shrink
//! step calls) and the end-to-end cost of delta-debugging a fixed seed set,
//! asserting along the way that every minimized program still triggers the
//! original bug.
//!
//! Run with `cargo bench --bench reduce_throughput`.

use criterion::{criterion_group, criterion_main, Criterion};
use p4_gen::{GeneratorConfig, RandomProgramGenerator};
use p4_reduce::{statement_count, CrashOracle, Oracle, Reducer, ReducerConfig, SemanticOracle};
use p4c::{Compiler, FrontEndBugClass};

fn buggy_compiler(class: FrontEndBugClass) -> Compiler {
    let mut compiler = Compiler::reference();
    compiler.replace_pass(class.faulty_pass());
    compiler
}

/// The fixed seed set every measurement uses: seeds from a tiny-program
/// range whose generated program triggers the seeded def-use bug.
fn trigger_seeds(count: usize) -> Vec<u64> {
    let mut oracle =
        SemanticOracle::new(buggy_compiler(FrontEndBugClass::DefUseDropsParameterWrites));
    (0u64..)
        .filter(|&seed| {
            let program = RandomProgramGenerator::new(GeneratorConfig::tiny(), seed).generate();
            !oracle.signatures(&program).is_empty()
        })
        .take(count)
        .collect()
}

fn bench_oracle_rate(c: &mut Criterion) {
    let program =
        RandomProgramGenerator::new(GeneratorConfig::tiny(), trigger_seeds(1)[0]).generate();
    let mut group = c.benchmark_group("reduce_throughput");
    group.sample_size(20);
    group.bench_function("crash_oracle_call", |b| {
        let mut oracle =
            CrashOracle::new(buggy_compiler(FrontEndBugClass::TypeInferenceShiftCrash));
        b.iter(|| std::hint::black_box(oracle.signatures(&program).len()))
    });
    group.bench_function("semantic_oracle_call_incremental", |b| {
        // One long-lived session, as during reduction: after the first call
        // the semantics cache and CNF memo are warm.
        let mut oracle =
            SemanticOracle::new(buggy_compiler(FrontEndBugClass::DefUseDropsParameterWrites));
        b.iter(|| std::hint::black_box(oracle.signatures(&program).len()))
    });
    group.bench_function("semantic_oracle_reproduces", |b| {
        // The reducer's hot path: one pass-targeted, verdict-only check of
        // the finding's own signature per shrink step.
        let mut oracle =
            SemanticOracle::new(buggy_compiler(FrontEndBugClass::DefUseDropsParameterWrites));
        let target = oracle.signatures(&program).remove(0);
        b.iter(|| std::hint::black_box(oracle.reproduces(&program, &target)))
    });
    group.finish();
}

/// End-to-end reduction over the fixed seed set, printed as a table (the
/// reproduction guide quotes these numbers), with the soundness assertion
/// that every minimized program still triggers the original bug.
fn reduction_end_to_end(_c: &mut Criterion) {
    const SEEDS: usize = 8;
    let seeds = trigger_seeds(SEEDS);
    println!();
    println!("end-to-end ddmin reduction over {SEEDS} bug-triggering programs:");
    let mut total_calls = 0usize;
    let mut total_elapsed = std::time::Duration::ZERO;
    for &seed in &seeds {
        let program = RandomProgramGenerator::new(GeneratorConfig::tiny(), seed).generate();
        let mut oracle =
            SemanticOracle::new(buggy_compiler(FrontEndBugClass::DefUseDropsParameterWrites));
        let target = oracle.signatures(&program).remove(0);
        let reducer = Reducer::new(ReducerConfig::default());
        let reduction = reducer
            .reduce(&mut oracle, &program, &target)
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
