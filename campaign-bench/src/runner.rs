//! The benchmark's front end: runs one workload in child processes, checks
//! the outputs, and prints the metrics.
//!
//! An untraced run (`--trace 0`) hunts the chunks the workload seed drew
//! again and again, one fresh campaign per chunk, until `--seconds` have
//! passed, with a one-seed set-up run before every chunk; it reports the
//! median repetition and the median set-up run.  Every time is wall time as
//! the campaign's own entry point saw it, timed inside the child.
//! A traced run (`--trace 1`) hands the same chunks to the `traced` child.

use crate::child;
use crate::metrics::{self, END_TO_END, PER_LAYER};
use crate::stats::median;
use crate::workload::{Workload, FLEET_WORKERS, SETUP_SEED};
use gauntlet_telemetry::json::Json;
use std::collections::BTreeSet;
use std::time::{Duration, Instant};

/// Fewest set-up runs per invocation; `setup_s` is their median.  One runs
/// before every chunk, so a full-length run takes many more.
const MIN_SETUP_SAMPLES: usize = 15;
const SETUP_DEADLINE: Duration = Duration::from_secs(20);
/// A chunk that has not committed by now is killed and its seeds count as
/// failed.  Screened chunks finish in well under a tenth of this.
pub const CHUNK_DEADLINE: Duration = Duration::from_secs(20);

pub struct Options {
    pub workload: Workload,
    pub seed: u64,
    pub seconds: u64,
    pub trace: bool,
    /// Draw from all candidate chunks, screened-out ones included.
    pub unscreened: bool,
}

impl Options {
    pub fn parse(args: &[String]) -> Result<Options, String> {
        let mut workload = None;
        let mut seed = None;
        let mut seconds = None;
        let mut trace = false;
        let mut unscreened = false;
        let mut iter = args.iter();
        while let Some(flag) = iter.next() {
            let mut value = || iter.next().ok_or_else(|| format!("`{flag}` needs a value"));
            match flag.as_str() {
                "--workload" => {
                    let name = value()?;
                    workload = Some(
                        Workload::from_name(name)
                            .ok_or_else(|| format!("unknown workload `{name}`"))?,
                    );
                }
                "--seed" => seed = Some(parse_number(value()?)?),
                "--seconds" => seconds = Some(parse_number(value()?)?),
                "--trace" => trace = parse_number(value()?)? != 0,
                "--unscreened" => unscreened = true,
                other => return Err(format!("unknown argument `{other}`")),
            }
        }
        Ok(Options {
            workload: workload.ok_or("missing --workload")?,
            seed: seed.ok_or("missing --seed")?,
            seconds: seconds.ok_or("missing --seconds")?.max(1),
            trace,
            unscreened,
        })
    }
}

pub fn parse_number(text: &str) -> Result<u64, String> {
    text.parse()
        .map_err(|_| format!("`{text}` is not a whole number"))
}

pub fn chunk_args(workload: Workload, start: u64, count: usize, in_process: bool) -> Vec<String> {
    let mut args = vec![
        "chunk".to_string(),
        workload.name().to_string(),
        start.to_string(),
        count.to_string(),
    ];
    if in_process {
        args.push("in-process".to_string());
    }
    args
}

fn number(result: &Json, key: &str) -> f64 {
    result.get(key).and_then(Json::as_f64).unwrap_or(0.0)
}

/// One pass over the drawn chunks: one child per chunk.
struct Repetition {
    programs: f64,
    /// Campaign wall time, summed over the chunks.
    elapsed_s: f64,
    /// Median over the chunks of each chunk process's peak resident set.
    peak_rss_kb: f64,
    /// Per-chunk report digests (`None` for a killed chunk).
    digests: Vec<Option<String>>,
    findings: Vec<String>,
    failed: u64,
    /// Output checks that failed, as messages.
    problems: Vec<String>,
    killed: Vec<(u64, usize)>,
}

/// Set-up time of one run: the workload's configuration over one fast seed
/// (one per fleet worker, so every worker does its handshake), timed inside
/// the child around the campaign entry point.  `None` when the run did not
/// finish.
fn setup_sample(workload: Workload) -> Option<f64> {
    let count = if workload == Workload::FleetCkpt {
        FLEET_WORKERS
    } else {
        1
    };
    child::run(
        &chunk_args(workload, SETUP_SEED, count, false),
        SETUP_DEADLINE,
    )
    .result
    .map(|result| number(&result, "elapsed_s"))
}

/// Hunts every drawn chunk once, taking a set-up sample before each, so the
/// set-up samples spread over the whole measurement.
fn run_repetition(
    workload: Workload,
    chunks: &[(u64, usize)],
    setup: &mut Vec<Option<f64>>,
) -> Repetition {
    let mut rep = Repetition {
        programs: 0.0,
        elapsed_s: 0.0,
        peak_rss_kb: 0.0,
        digests: Vec::new(),
        findings: Vec::new(),
        failed: 0,
        problems: Vec::new(),
        killed: Vec::new(),
    };
    let (mut p4c_semantic, mut bmv2_attributed) = (0.0, 0.0);
    let mut chunk_rss = Vec::new();
    for &(chunk_start, count) in chunks {
        setup.push(setup_sample(workload));
        let run = child::run(
            &chunk_args(workload, chunk_start, count, false),
            CHUNK_DEADLINE,
        );
        let Some(result) = run.result else {
            rep.failed += count as u64;
            rep.elapsed_s += run.wall.as_secs_f64();
            rep.digests.push(None);
            rep.killed.push((chunk_start, count));
            continue;
        };
        let programs = number(&result, "programs");
        rep.programs += programs;
        rep.elapsed_s += number(&result, "elapsed_s");
        chunk_rss.push(number(&result, "rss_kb"));
        rep.digests.push(
            result
                .get("digest")
                .and_then(Json::as_str)
                .map(str::to_string),
        );
        p4c_semantic += number(&result, "p4c_semantic");
        bmv2_attributed += number(&result, "bmv2_attributed");
        if programs as usize != count {
            rep.problems.push(format!(
                "seeds {chunk_start}..{}: {programs} programs checked, {count} attempted",
                chunk_start + count as u64
            ));
        }
        if number(&result, "leases_reassigned") != 0.0 {
            rep.problems
                .push(format!("seeds {chunk_start}..: fleet reassigned a lease"));
        }
        if let Some(findings) = result.get("findings").and_then(Json::as_array) {
            rep.findings
                .extend(findings.iter().filter_map(Json::as_str).map(str::to_string));
        }
    }
    rep.peak_rss_kb = median(&chunk_rss);
    if workload == Workload::BugHunt && rep.killed.is_empty() {
        if p4c_semantic == 0.0 {
            rep.problems
                .push("bug-hunt: the seeded P4C semantic bug was not detected".into());
        }
        if bmv2_attributed == 0.0 {
            rep.problems
                .push("bug-hunt: the seeded bmv2 defect was not attributed to bmv2".into());
        }
    }
    rep
}

/// Entry point of a benchmark run; returns the process exit code.
pub fn run(options: &Options) -> i32 {
    let workload = options.workload;
    let chunks = workload
        .pool()
        .chunks_for(options.seed, !options.unscreened);
    println!(
        "workload {} · chunks of {} seeds starting at {} · {}",
        workload.name(),
        workload.pool().chunk,
        chunks
            .iter()
            .map(|(start, _)| start.to_string())
            .collect::<Vec<_>>()
            .join(", "),
        if options.unscreened {
            "unscreened pool"
        } else {
            "screened pool"
        }
    );
    if options.trace {
        traced_run(options, &chunks)
    } else {
        untraced_run(options, &chunks)
    }
}

fn untraced_run(options: &Options, chunks: &[(u64, usize)]) -> i32 {
    let workload = options.workload;
    let seeds_per_rep: usize = chunks.iter().map(|(_, count)| count).sum();
    let mut problems: Vec<String> = Vec::new();

    let measuring = Instant::now();
    let budget = Duration::from_secs(options.seconds);
    let mut setup: Vec<Option<f64>> = Vec::new();
    let mut reps: Vec<Repetition> = Vec::new();
    while reps.is_empty() || measuring.elapsed() < budget {
        reps.push(run_repetition(workload, chunks, &mut setup));
    }
    while setup.len() < MIN_SETUP_SAMPLES {
        setup.push(setup_sample(workload));
    }
    if setup.iter().any(Option::is_none) {
        problems.push("a set-up run did not finish".into());
    }
    let setup: Vec<f64> = setup.into_iter().flatten().collect();

    // Output checks.
    let reference = &reps[0].digests;
    let mut failed = 0u64;
    for (index, rep) in reps.iter().enumerate() {
        let mut rep_problems = rep.problems.clone();
        let differs = rep
            .digests
            .iter()
            .zip(reference)
            .any(|(a, b)| matches!((a, b), (Some(a), Some(b)) if a != b));
        if differs {
            rep_problems.push(format!(
                "repetition {index}: report differs from repetition 0"
            ));
        }
        if rep_problems.is_empty() {
            failed += rep.failed;
        } else {
            failed += seeds_per_rep as u64;
        }
        problems.extend(rep_problems);
        for (chunk_start, count) in &rep.killed {
            println!(
                "repetition {index}: seeds {chunk_start}..{} missed the {}s deadline; counted as failed{}",
                chunk_start + *count as u64,
                CHUNK_DEADLINE.as_secs(),
                screened_note(workload, *chunk_start, *count)
            );
        }
    }
    if workload == Workload::FleetCkpt {
        for (&(chunk_start, count), fleet_digest) in chunks.iter().zip(&reps[0].digests) {
            let run = child::run(
                &chunk_args(workload, chunk_start, count, true),
                CHUNK_DEADLINE,
            );
            let in_process = run
                .result
                .as_ref()
                .and_then(|r| r.get("digest"))
                .and_then(Json::as_str)
                .map(str::to_string);
            if fleet_digest.is_some() && in_process != *fleet_digest {
                problems.push(format!(
                    "fleet-ckpt: seeds {chunk_start}..: merged report differs from the in-process campaign"
                ));
                failed = (reps.len() * seeds_per_rep) as u64;
            }
        }
    }

    let rates: Vec<f64> = reps
        .iter()
        .map(|rep| rep.programs / rep.elapsed_s.max(1e-9))
        .collect();
    let rss: Vec<f64> = reps.iter().map(|rep| rep.peak_rss_kb / 1024.0).collect();
    let values = [median(&rates), median(&setup), median(&rss)];
    println!();
    println!("{:<16} {:>12}  unit", "metric", "value");
    for ((name, unit), value) in END_TO_END.iter().zip(values) {
        println!("{name:<16} {value:>12.4}  {unit}");
    }
    let attempted = (reps.len() * seeds_per_rep) as u64;
    println!(
        "seeds failed {failed} / {attempted} attempted · {} repetition(s), programs/s each: {}",
        reps.len(),
        rates
            .iter()
            .map(|r| format!("{r:.1}"))
            .collect::<Vec<_>>()
            .join(" ")
    );
    println!(
        "set-up: {} run(s), {:.2}-{:.2} ms",
        setup.len(),
        setup.iter().cloned().fold(f64::INFINITY, f64::min) * 1e3,
        setup.iter().cloned().fold(0.0, f64::max) * 1e3
    );
    let findings: BTreeSet<&String> = reps[0].findings.iter().collect();
    if workload == Workload::TvReference {
        for finding in &findings {
            println!("known finding (left for triage, not a failure): {finding}");
        }
    } else {
        println!("{} finding(s) per repetition", reps[0].findings.len());
    }
    for problem in &problems {
        println!("CHECK FAILED: {problem}");
    }
    let metrics: Vec<(&str, &str, f64)> = END_TO_END
        .iter()
        .zip(values)
        .map(|((name, unit), value)| (*name, *unit, value))
        .collect();
    println!(
        "{}",
        metrics::result_line(problems.is_empty(), attempted, failed, &metrics)
    );
    0
}

/// The seeds of `[start, start+count)` that screening already named.
fn screened_note(workload: Workload, start: u64, count: usize) -> String {
    let named: Vec<String> = crate::workload::STUCK_SEEDS
        .iter()
        .filter(|(w, seed, _)| {
            *w == workload.name() && *seed >= start && *seed < start + count as u64
        })
        .map(|(_, seed, why)| format!("seed {seed}: {why}"))
        .collect();
    if named.is_empty() {
        String::new()
    } else {
        format!(" (screened: {})", named.join("; "))
    }
}

fn traced_run(options: &Options, chunks: &[(u64, usize)]) -> i32 {
    let workload = options.workload;
    let mut args = vec![
        "traced".to_string(),
        workload.name().to_string(),
        options.seconds.to_string(),
    ];
    args.extend(
        chunks
            .iter()
            .map(|(start, count)| format!("{start}:{count}")),
    );
    let deadline = Duration::from_secs((options.seconds * 4 + 60).min(170));
    let run = child::run(&args, deadline);
    match run.result {
        Some(result) => {
            let mut lines: Vec<&str> = run.text.lines().collect();
            lines.pop();
            for line in lines {
                println!("{line}");
            }
            let metrics: Vec<(&str, &str, f64)> = PER_LAYER
                .iter()
                .map(|(name, unit)| {
                    let value = result
                        .get("metrics")
                        .and_then(|m| m.get(name))
                        .and_then(Json::as_f64)
                        .unwrap_or(0.0);
                    (*name, *unit, value)
                })
                .collect();
            let correct = result
                .get("correct")
                .and_then(Json::as_bool)
                .unwrap_or(false);
            let attempted = number(&result, "attempted") as u64;
            let failed = number(&result, "failed") as u64;
            println!(
                "{}",
                metrics::result_line(correct, attempted.max(1), failed, &metrics)
            );
        }
        None => {
            println!("the traced run missed its {}s deadline", deadline.as_secs());
            let metrics: Vec<(&str, &str, f64)> =
                PER_LAYER.iter().map(|(n, u)| (*n, *u, 0.0)).collect();
            println!("{}", metrics::result_line(false, 1, 1, &metrics));
        }
    }
    0
}
