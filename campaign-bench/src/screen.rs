//! `campaign-bench screen <workload> <first> <last> [deadline-s]`: runs
//! candidate chunks `first..=last` of a workload's pool one child each,
//! killing a chunk at the deadline, and prints each chunk's campaign time,
//! throughput and peak memory.  This is how the kept chunk lists in
//! `src/workload.rs` were chosen; `NOTES.md` records what it found.

use crate::child;
use crate::runner::{chunk_args, parse_number};
use crate::workload::Workload;
use gauntlet_telemetry::json::Json;
use std::time::Duration;

pub fn screen_main(args: &[String]) -> Result<(), String> {
    let workload = args
        .first()
        .and_then(|name| Workload::from_name(name))
        .ok_or("screen needs a workload name")?;
    let first = parse_number(args.get(1).ok_or("missing first chunk")?)? as usize;
    let last = parse_number(args.get(2).ok_or("missing last chunk")?)? as usize;
    let deadline = Duration::from_secs(match args.get(3) {
        Some(text) => parse_number(text)?,
        None => 20,
    });
    let pool = workload.pool();
    for index in first..=last.min(pool.candidates - 1) {
        let (start, count) = pool.chunk(index);
        let run = child::run(&chunk_args(workload, start, count, false), deadline);
        let number = |key: &str| {
            run.result
                .as_ref()
                .and_then(|r| r.get(key))
                .and_then(Json::as_f64)
                .unwrap_or(0.0)
        };
        if run.result.is_some() {
            println!(
                "{} chunk {index} seeds {start}..{}: {:.3}s {:.1} programs/s {:.1} MB",
                workload.name(),
                start + count as u64,
                number("elapsed_s"),
                number("programs") / number("elapsed_s").max(1e-9),
                number("rss_kb") / 1024.0
            );
        } else {
            println!(
                "{} chunk {index} seeds {start}..{}: killed at {}s",
                workload.name(),
                start + count as u64,
                deadline.as_secs()
            );
        }
    }
    Ok(())
}
