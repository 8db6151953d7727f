//! `campaign-bench --workload <name> --seed <n> --seconds <s> --trace <0|1>`
//!
//! The other first arguments name the child phases the benchmark starts
//! itself (`chunk`, `traced`, `fleet-worker`) and the offline chunk
//! screener (`screen`).

use campaign_bench::runner::{self, parse_number, Options};
use campaign_bench::workload::Workload;
use campaign_bench::{phases, screen, traced};

fn workload_arg(args: &[String], index: usize) -> Workload {
    args.get(index)
        .and_then(|name| Workload::from_name(name))
        .unwrap_or_else(|| fail("expected a workload name"))
}

fn number_arg(args: &[String], index: usize) -> u64 {
    args.get(index)
        .ok_or_else(|| "missing argument".to_string())
        .and_then(|text| parse_number(text))
        .unwrap_or_else(|error| fail(&error))
}

fn fail(message: &str) -> ! {
    eprintln!("campaign-bench: {message}");
    std::process::exit(2);
}

fn main() {
    // Fleet workers keep per-shard scratch corpora under the temp
    // directory; point it inside the benchmark's own work directory.
    let tmp = phases::work_dir().join("tmp");
    std::fs::create_dir_all(&tmp).expect("create temp directory");
    std::env::set_var("TMPDIR", &tmp);

    let args: Vec<String> = std::env::args().skip(1).collect();
    match args.first().map(String::as_str) {
        Some("fleet-worker") => phases::fleet_worker_main(),
        Some("chunk") => phases::chunk_main(
            workload_arg(&args, 1),
            number_arg(&args, 2),
            number_arg(&args, 3) as usize,
            args.get(4).map(String::as_str) == Some("in-process"),
        ),
        Some("traced") => {
            let chunks: Vec<(u64, usize)> = args[3.min(args.len())..]
                .iter()
                .map(|chunk| {
                    let (start, count) = chunk
                        .split_once(':')
                        .unwrap_or_else(|| fail("expected chunks as start:count"));
                    let number = |text| parse_number(text).unwrap_or_else(|error| fail(&error));
                    (number(start), number(count) as usize)
                })
                .collect();
            traced::traced_main(workload_arg(&args, 1), number_arg(&args, 2), &chunks)
        }
        Some("screen") => screen::screen_main(&args[1..]).unwrap_or_else(|error| fail(&error)),
        _ => {
            let options = Options::parse(&args).unwrap_or_else(|error| fail(&error));
            std::process::exit(runner::run(&options));
        }
    }
}
