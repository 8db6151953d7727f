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
use gauntlet_core::{BugKind, Gauntlet, HuntConfig, ParallelCampaign, Technique};
use p4_gen::{GeneratorConfig, RandomProgramGenerator};
use p4_ir::Program;
use p4_symbolic::{check_equivalence, Equivalence, EquivalenceError};
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
/// the pipeline's incremental validation vs a from-scratch baseline that
/// runs a one-shot `check_equivalence` per pass pair, over the same
/// programs.  Printed as a table so the reproduction guide can quote it
/// directly.
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
    // Both validators report every translation-validation finding as a
    // (kind, pass, message) triple, per program, so their verdicts and
    // counterexample models can be compared exactly.
    type Finding = (BugKind, Option<String>, String);
    let timed = |validate: &dyn Fn(&Program) -> Vec<Finding>| {
        let start = Instant::now();
        let findings: Vec<Vec<Finding>> = programs.iter().map(validate).collect();
        (findings, start.elapsed())
    };
    // From scratch: the paper's naive path, re-interpreting and
    // re-bitblasting every pass pair in a one-shot `check_equivalence`.
    // Findings are phrased as `Gauntlet::validate_translation_in` phrases
    // them; the reference compiler's emitted programs always re-parse, so
    // the pipeline's re-parse check has nothing to add here.
    let (fresh_findings, fresh) = timed(&|program| match compiler.compile(program) {
        Ok(result) => result
            .pass_pairs()
            .filter_map(|(before, after)| {
                let (kind, message) = match check_equivalence(&before.program, &after.program) {
                    Ok(Equivalence::NotEqual(counterexample)) => {
                        (BugKind::Semantic, format!("{counterexample}"))
                    }
                    Err(EquivalenceError::StructureMismatch { block, detail }) => (
                        BugKind::InvalidTransformation,
                        format!("structure mismatch in `{block}`: {detail}"),
                    ),
                    Ok(Equivalence::Equal) | Err(EquivalenceError::Interpreter(_)) => return None,
                };
                Some((kind, Some(after.pass_name.clone()), message))
            })
            .collect(),
        Err(_) => Vec::new(),
    });
    let gauntlet = Gauntlet::default();
    let (incremental_findings, incremental) = timed(&|program| {
        gauntlet
            .check_open_compiler(&compiler, program)
            .reports
            .into_iter()
            .filter(|report| report.technique == Technique::TranslationValidation)
            .map(|report| (report.kind, report.pass, report.message))
            .collect()
    });
    assert_eq!(
        fresh_findings, incremental_findings,
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
