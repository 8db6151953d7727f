//! Experiment §5.2 — campaign throughput (programs checked per second).
//!
//! The paper reports generating roughly 10 000 programs per week of
//! wall-clock campaign time (dominated by compilation and validation, not
//! generation).  This bench measures raw generator throughput, the
//! end-to-end per-program cost of the full local pipeline, and — the
//! headline numbers — the parallel campaign engine's throughput scaling
//! across `--jobs` and the speedup from incremental solver reuse.
//!
//! Run with `cargo bench --bench gen_throughput`.

use criterion::{criterion_group, criterion_main, Criterion};
use gauntlet_core::{Gauntlet, GauntletOptions, HuntConfig, ParallelCampaign};
use p4_gen::{GeneratorConfig, RandomProgramGenerator};
use p4c::Compiler;
use std::time::{Duration, Instant};

fn bench_generation(c: &mut Criterion) {
    let mut group = c.benchmark_group("gen_throughput");
    group.sample_size(20);
    group.bench_function("generate_default_program", |b| {
        let mut seed = 0u64;
        b.iter(|| {
            seed += 1;
            let mut generator = RandomProgramGenerator::new(GeneratorConfig::default(), seed);
            std::hint::black_box(generator.generate().size());
        })
    });
    group.bench_function("generate_and_type_check", |b| {
        let mut seed = 10_000u64;
        b.iter(|| {
            seed += 1;
            let mut generator = RandomProgramGenerator::new(GeneratorConfig::default(), seed);
            let program = generator.generate();
            assert!(p4_check::check_program(&program).is_empty());
        })
    });
    group.sample_size(10);
    group.bench_function("generate_compile_validate_tiny", |b| {
        let gauntlet = Gauntlet::default();
        let compiler = Compiler::reference();
        let mut seed = 20_000u64;
        b.iter(|| {
            seed += 1;
            let mut generator = RandomProgramGenerator::new(GeneratorConfig::tiny(), seed);
            let program = generator.generate();
            let outcome = gauntlet.check_open_compiler(&compiler, &program);
            std::hint::black_box(outcome.reports.len());
        })
    });
    group.finish();
}

/// The campaign-engine comparison: throughput at increasing `--jobs`, and
/// incremental vs from-scratch validation (the `check_equivalence`
/// reference path) over the same programs through the pipeline.  Printed as a table so the
/// reproduction guide can quote it directly.
fn campaign_scaling(_c: &mut Criterion) {
    const SEEDS: usize = 200;
    let base = HuntConfig {
        seed_start: 0,
        seed_count: SEEDS,
        generator: GeneratorConfig::tiny(),
        ..HuntConfig::default()
    };

    println!();
    println!("campaign throughput over {SEEDS} generated programs (reference compiler):");
    let mut baseline = None;
    let mut reference_render = None;
    for jobs in [1usize, 2, 4] {
        let config = HuntConfig {
            jobs,
            ..base.clone()
        };
        let report = ParallelCampaign::new(config).run(Compiler::reference);
        let throughput = report.throughput();
        let speedup = baseline.map(|b: f64| throughput / b).unwrap_or(1.0);
        baseline.get_or_insert(throughput);
        println!(
            "  --jobs {jobs}: {:>8.1} programs/s  ({:>6.2}x vs --jobs 1, {:?} wall clock)",
            throughput, speedup, report.elapsed
        );
        // The determinism contract: every jobs setting commits the identical
        // report.
        match &reference_render {
            None => reference_render = Some(report.render()),
            Some(expected) => assert_eq!(
                expected,
                &report.render(),
                "bug reports must be byte-identical across --jobs"
            ),
        }
    }

    println!();
    println!("incremental validation-chain reuse (same {SEEDS} programs, one at a time):");
    let programs: Vec<_> = (0..SEEDS as u64)
        .map(|seed| RandomProgramGenerator::new(GeneratorConfig::tiny(), seed).generate())
        .collect();
    let compiler = Compiler::reference();
    let validate = |gauntlet: &Gauntlet| {
        let start = Instant::now();
        let reports: Vec<String> = programs
            .iter()
            .flat_map(|program| gauntlet.check_open_compiler(&compiler, program).reports)
            .map(|report| format!("{report:?}"))
            .collect();
        (reports, start.elapsed())
    };
    let (fresh_reports, fresh) = validate(&Gauntlet::new(GauntletOptions {
        incremental: false,
        ..GauntletOptions::default()
    }));
    let (incremental_reports, incremental) = validate(&Gauntlet::default());
    assert_eq!(
        fresh_reports, incremental_reports,
        "incremental and from-scratch validation must agree"
    );
    let rate = |elapsed: Duration| SEEDS as f64 / elapsed.as_secs_f64().max(f64::MIN_POSITIVE);
    println!(
        "  from-scratch: {:>8.1} programs/s  ({fresh:?})",
        rate(fresh)
    );
    println!(
        "  incremental:  {:>8.1} programs/s  ({incremental:?}, {:.2}x)",
        rate(incremental),
        rate(incremental) / rate(fresh)
    );
}

criterion_group!(benches, bench_generation, campaign_scaling);
criterion_main!(benches);
