//! The `gauntlet` binary: campaigns from the command line.
//!
//! ```text
//! gauntlet hunt --seeds 200 --compiler DefUseDropsParameterWrites --reduce
//! gauntlet fleet hunt --seeds 100 --workers 2 --coverage --checkpoint fleet.ckpt
//! gauntlet fleet status --checkpoint fleet.ckpt
//! gauntlet fleet resume --checkpoint fleet.ckpt
//! gauntlet report report.json
//! gauntlet fleet-worker        # spawned by the coordinator, not by hand
//! ```
//!
//! `hunt` runs the campaign in this process; `fleet hunt` spreads the same
//! campaign over worker processes.  Both take the same campaign flags and,
//! without `--coverage`, print the same report.  Flag parsing is
//! hand-rolled (the workspace is fully offline; no clap).

use gauntlet_core::{CoverageOptions, ParallelCampaign, TelemetryOptions};
use gauntlet_fleet::{
    checkpoint::Checkpoint, coordinator, worker, CompilerSpec, FleetMode, FleetOptions,
    FleetOutcome, FleetSpec,
};
use gauntlet_telemetry::{json, EventLog, ProgressSink};
use std::sync::Arc;
use std::time::Duration;

const USAGE: &str = "\
gauntlet — Gauntlet campaign driver

USAGE:
  gauntlet hunt [FLAGS]             run a campaign in this process
  gauntlet fleet hunt [FLAGS]       run a multi-process campaign
  gauntlet fleet resume [FLAGS]     continue from --checkpoint
  gauntlet fleet status --checkpoint PATH
  gauntlet report FILE              render a gauntlet-report-v1 JSON file
  gauntlet fleet-worker             (internal) shard executor

CAMPAIGN FLAGS (hunt and fleet hunt):
  --jobs N                threads (per worker under fleet; default 1)
  --seed-start N          first seed (default 0)
  --seeds N               seed count (default 100)
  --compiler NAME         `reference` or a SeededBug name (default reference)
  --generator NAME        tiny | default | tofino (default tiny)
  --coverage              account pass-rule coverage and build a corpus;
                          in-process hunts also adapt generator weights
                          each epoch, fleet shards do not
  --corpus PATH           replay and extend (hunt) or write the merged (fleet)
                          corpus here (implies --coverage)
  --mutants N             metamorphic mutants per seed (default 0)
  --reduce                delta-debug committed findings
  --target SPEC           differential target (repeatable)
  --report PATH           write the gauntlet-report-v1 JSON here
  --events PATH           JSONL event log
  --quiet                 no heartbeat, notes or worker stderr

FLEET-ONLY FLAGS:
  --workers N             worker processes (default 2)
  --shard-size N          seeds per lease (default 25)
  --mode MODE             deterministic | throughput (default deterministic)
  --diversity             swarm mode: per-slice generator perturbation and
                          disjoint pair-frontier partitions (implies --coverage)
  --checkpoint PATH       checkpoint file (enables resume/status)
  --checkpoint-every N    shards between checkpoints (default 1)
  --triage PATH           write the gauntlet-triage-v1 JSON here

FAULT-INJECTION / RUNTIME FLAGS (fleet hunt and fleet resume):
  --chaos-kill W:F        kill worker W after its F-th delivered fragment
  --chaos-stall W:F       park worker W instead of its next assignment
  --stop-after-checkpoints N   stop (resumably) after N checkpoints
  --lease-timeout-ms N    kill workers whose lease exceeds N ms
  --max-respawns N        replacement processes allowed (default 8)
";

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    if let Err(error) = run(&args) {
        eprintln!("gauntlet: {error}");
        std::process::exit(2);
    }
}

fn run(args: &[String]) -> Result<(), String> {
    match args.first().map(String::as_str) {
        Some("fleet-worker") => worker::serve(),
        Some("hunt") => hunt(&args[1..]),
        Some("fleet") => fleet(&args[1..]),
        Some("report") => report(&args[1..]),
        None | Some("--help") | Some("-h") | Some("help") => {
            print!("{USAGE}");
            Ok(())
        }
        Some(other) => Err(format!("unknown command `{other}` (see `gauntlet --help`)")),
    }
}

/// `W:F` pairs for the chaos flags.
fn parse_pair(text: &str) -> Result<(usize, usize), String> {
    let (worker, fragments) = text
        .split_once(':')
        .ok_or_else(|| format!("expected `WORKER:FRAGMENTS`, got `{text}`"))?;
    Ok((
        worker
            .parse()
            .map_err(|_| format!("bad worker index `{worker}`"))?,
        fragments
            .parse()
            .map_err(|_| format!("bad fragment count `{fragments}`"))?,
    ))
}

fn parse_number<T: std::str::FromStr>(flag: &str, value: &str) -> Result<T, String> {
    value
        .parse()
        .map_err(|_| format!("bad value `{value}` for {flag}"))
}

/// Pull the value of `--flag VALUE`.
fn value<'a>(args: &'a [String], index: &mut usize, flag: &str) -> Result<&'a str, String> {
    *index += 1;
    args.get(*index)
        .map(String::as_str)
        .ok_or_else(|| format!("{flag} needs a value"))
}

fn worker_command() -> Result<Vec<String>, String> {
    let exe = std::env::current_exe()
        .map_err(|error| format!("cannot locate the gauntlet binary: {error}"))?;
    Ok(vec![exe.display().to_string(), "fleet-worker".to_string()])
}

/// Parse the campaign flags shared by `hunt` and `fleet hunt`.  Returns
/// `true` when the flag was consumed.
fn campaign_flag(spec: &mut FleetSpec, args: &[String], index: &mut usize) -> Result<bool, String> {
    match args[*index].as_str() {
        "--jobs" => spec.jobs_per_worker = parse_number("--jobs", value(args, index, "--jobs")?)?,
        "--seed-start" => {
            spec.seed_start = parse_number("--seed-start", value(args, index, "--seed-start")?)?
        }
        "--seeds" => spec.seed_count = parse_number("--seeds", value(args, index, "--seeds")?)?,
        "--compiler" => spec.compiler = CompilerSpec::from_name(value(args, index, "--compiler")?),
        "--generator" => spec.generator = value(args, index, "--generator")?.to_string(),
        "--coverage" => spec.coverage = true,
        "--corpus" => {
            spec.corpus = Some(value(args, index, "--corpus")?.to_string());
            spec.coverage = true;
        }
        "--mutants" => {
            spec.mutants_per_seed = parse_number("--mutants", value(args, index, "--mutants")?)?
        }
        "--reduce" => spec.reduce_reports = true,
        "--target" => spec
            .targets
            .push(value(args, index, "--target")?.to_string()),
        _ => return Ok(false),
    }
    Ok(true)
}

/// `gauntlet hunt`: the campaign in this process.  Stdout is exactly the
/// report render; notes and the heartbeat go to stderr.
fn hunt(args: &[String]) -> Result<(), String> {
    let mut spec = FleetSpec::default();
    let mut quiet = false;
    let mut events = None;
    let mut report_path = None;
    let mut index = 0;
    while index < args.len() {
        if !campaign_flag(&mut spec, args, &mut index)? {
            match args[index].as_str() {
                "--quiet" => quiet = true,
                "--events" => events = Some(value(args, &mut index, "--events")?.to_string()),
                "--report" => report_path = Some(value(args, &mut index, "--report")?.to_string()),
                other => {
                    return Err(format!(
                        "unknown hunt flag `{other}` (worker, checkpoint and fault-injection \
                         flags belong to `gauntlet fleet hunt`)"
                    ))
                }
            }
        }
        index += 1;
    }
    spec.validate()?;
    let mut config = spec.hunt_config()?;
    // In process, coverage adapts the generator weights at every epoch
    // barrier and replays the corpus; fleet shards cannot (see FleetSpec).
    if spec.coverage {
        config.coverage = Some(CoverageOptions {
            corpus: spec.corpus.clone(),
            ..CoverageOptions::default()
        });
    }
    let events = events
        .map(|path| {
            EventLog::create(&path)
                .map(Arc::new)
                .map_err(|error| format!("cannot create event log `{path}`: {error}"))
        })
        .transpose()?;
    if events.is_some() || !quiet {
        config.telemetry = Some(TelemetryOptions {
            events,
            progress: !quiet,
        });
    }
    let compiler = spec.compiler.clone();
    let report = ParallelCampaign::new(config).run(move || compiler.build());
    ProgressSink::new(!quiet).note(&format!(
        "hunt: {} program(s) in {:.2?} ({:.1} programs/s)",
        report.programs_checked,
        report.elapsed,
        report.throughput()
    ));
    if let Some(path) = &report_path {
        std::fs::write(path, report.to_json())
            .map_err(|error| format!("cannot write report `{path}`: {error}"))?;
    }
    print!("{}", report.render());
    Ok(())
}

#[derive(Default)]
struct OutputPaths {
    report: Option<String>,
    triage: Option<String>,
}

/// Parse the runtime (non-spec) flags shared by hunt and resume.  Returns
/// `true` when the flag was consumed.
fn runtime_flag(
    options: &mut FleetOptions,
    outputs: &mut OutputPaths,
    args: &[String],
    index: &mut usize,
) -> Result<bool, String> {
    match args[*index].as_str() {
        "--quiet" => options.quiet = true,
        "--events" => options.events = Some(value(args, index, "--events")?.to_string()),
        "--report" => outputs.report = Some(value(args, index, "--report")?.to_string()),
        "--triage" => outputs.triage = Some(value(args, index, "--triage")?.to_string()),
        "--chaos-kill" => {
            options.chaos_kill = Some(parse_pair(value(args, index, "--chaos-kill")?)?)
        }
        "--chaos-stall" => {
            options.chaos_stall = Some(parse_pair(value(args, index, "--chaos-stall")?)?)
        }
        "--stop-after-checkpoints" => {
            options.stop_after_checkpoints = Some(parse_number(
                "--stop-after-checkpoints",
                value(args, index, "--stop-after-checkpoints")?,
            )?)
        }
        "--lease-timeout-ms" => {
            options.lease_timeout = Some(Duration::from_millis(parse_number(
                "--lease-timeout-ms",
                value(args, index, "--lease-timeout-ms")?,
            )?))
        }
        "--max-respawns" => {
            options.max_respawns =
                parse_number("--max-respawns", value(args, index, "--max-respawns")?)?
        }
        _ => return Ok(false),
    }
    Ok(true)
}

fn finish(outcome: FleetOutcome, outputs: &OutputPaths) -> Result<(), String> {
    if let Some(path) = &outputs.triage {
        std::fs::write(path, json::render(&outcome.triage.to_json()))
            .map_err(|error| format!("cannot write triage `{path}`: {error}"))?;
    }
    match &outcome.report {
        Some(report) => {
            if let Some(path) = &outputs.report {
                std::fs::write(path, report.to_json())
                    .map_err(|error| format!("cannot write report `{path}`: {error}"))?;
            }
            print!("{}", report.render());
            print!("{}", outcome.triage.render());
            Ok(())
        }
        None => {
            // Interrupted (stop_after_checkpoints): resumable, so not an
            // error — but say so and skip the report outputs.
            println!(
                "fleet: interrupted after {} checkpoint(s); resume with `gauntlet fleet resume`",
                outcome.stats.checkpoints_written
            );
            print!("{}", outcome.triage.render());
            Ok(())
        }
    }
}

fn fleet(args: &[String]) -> Result<(), String> {
    match args.first().map(String::as_str) {
        Some("hunt") => fleet_hunt(&args[1..]),
        Some("resume") => fleet_resume(&args[1..]),
        Some("status") => fleet_status(&args[1..]),
        _ => Err("usage: gauntlet fleet <hunt|resume|status> [flags]".into()),
    }
}

fn fleet_hunt(args: &[String]) -> Result<(), String> {
    let mut spec = FleetSpec::default();
    let mut options = FleetOptions::new(FleetSpec::default(), worker_command()?);
    let mut outputs = OutputPaths::default();
    let mut index = 0;
    while index < args.len() {
        if runtime_flag(&mut options, &mut outputs, args, &mut index)?
            || campaign_flag(&mut spec, args, &mut index)?
        {
            index += 1;
            continue;
        }
        match args[index].as_str() {
            "--workers" => {
                spec.workers = parse_number("--workers", value(args, &mut index, "--workers")?)?
            }
            "--shard-size" => {
                spec.shard_size =
                    parse_number("--shard-size", value(args, &mut index, "--shard-size")?)?
            }
            "--mode" => {
                let name = value(args, &mut index, "--mode")?;
                spec.mode =
                    FleetMode::from_name(name).ok_or_else(|| format!("unknown mode `{name}`"))?;
            }
            "--diversity" => {
                spec.diversity = true;
                spec.coverage = true;
            }
            "--checkpoint" => {
                spec.checkpoint = Some(value(args, &mut index, "--checkpoint")?.to_string())
            }
            "--checkpoint-every" => {
                spec.checkpoint_every = parse_number(
                    "--checkpoint-every",
                    value(args, &mut index, "--checkpoint-every")?,
                )?
            }
            other => return Err(format!("unknown fleet hunt flag `{other}`")),
        }
        index += 1;
    }
    options.spec = spec;
    finish(coordinator::hunt(options)?, &outputs)
}

fn fleet_resume(args: &[String]) -> Result<(), String> {
    let mut options = FleetOptions::new(FleetSpec::default(), worker_command()?);
    let mut outputs = OutputPaths::default();
    let mut checkpoint_path: Option<String> = None;
    let mut index = 0;
    while index < args.len() {
        if runtime_flag(&mut options, &mut outputs, args, &mut index)? {
            index += 1;
            continue;
        }
        match args[index].as_str() {
            "--checkpoint" => {
                checkpoint_path = Some(value(args, &mut index, "--checkpoint")?.to_string())
            }
            other => return Err(format!("unknown fleet resume flag `{other}`")),
        }
        index += 1;
    }
    let path = checkpoint_path.ok_or("fleet resume needs --checkpoint PATH")?;
    let checkpoint = Checkpoint::load(&path)?;
    if checkpoint.complete {
        println!("fleet: checkpoint `{path}` is already complete");
    }
    finish(coordinator::resume(options, checkpoint)?, &outputs)
}

fn fleet_status(args: &[String]) -> Result<(), String> {
    let mut checkpoint_path: Option<String> = None;
    let mut index = 0;
    while index < args.len() {
        match args[index].as_str() {
            "--checkpoint" => {
                checkpoint_path = Some(value(args, &mut index, "--checkpoint")?.to_string())
            }
            other => return Err(format!("unknown fleet status flag `{other}`")),
        }
        index += 1;
    }
    let path = checkpoint_path.ok_or("fleet status needs --checkpoint PATH")?;
    print!("{}", Checkpoint::load(&path)?.render_status());
    Ok(())
}

fn report(args: &[String]) -> Result<(), String> {
    let [path] = args else {
        return Err("usage: gauntlet report FILE".into());
    };
    let text =
        std::fs::read_to_string(path).map_err(|error| format!("cannot read `{path}`: {error}"))?;
    let value = json::parse(&text)?;
    let report = gauntlet_core::hunt_result_from_json(&value)?;
    print!("{}", report.render());
    Ok(())
}
