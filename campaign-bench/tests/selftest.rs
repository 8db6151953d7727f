//! Self-tests of the benchmark's own logic: seed-to-chunk derivation,
//! metric naming, and span self time.

use campaign_bench::metrics::{result_line, valid_name, END_TO_END, PER_LAYER};
use campaign_bench::trace::{layer_totals, Span, Tracer};
use campaign_bench::workload::Workload;
use gauntlet_telemetry::json::{self, Json};
use std::collections::BTreeSet;

#[test]
fn the_chunks_are_a_deterministic_function_of_the_workload_seed() {
    for workload in Workload::ALL {
        let pool = workload.pool();
        let mut drawn = BTreeSet::new();
        for seed in 0..200u64 {
            let chunks = pool.chunks_for(seed, true);
            assert_eq!(
                chunks,
                pool.chunks_for(seed, true),
                "same seed, same chunks"
            );
            assert_eq!(chunks.len(), pool.per_run);
            assert!(
                chunks.windows(2).all(|w| w[0].0 < w[1].0),
                "distinct, in seed order"
            );
            for &(start, count) in &chunks {
                assert_eq!(count, pool.chunk);
                let index = start as usize / pool.chunk;
                assert_eq!(pool.chunk(index), (start, count));
                assert!(
                    pool.kept.contains(&index),
                    "{}: seed {seed} drew screened-out chunk {index}",
                    workload.name()
                );
            }
            drawn.insert(chunks);
        }
        assert!(
            drawn.len() > 20,
            "{}: workload seeds must draw different chunks",
            workload.name()
        );
    }
}

#[test]
fn unscreened_draws_include_the_rejected_chunks() {
    for workload in Workload::ALL {
        let pool = workload.pool();
        assert_eq!(pool.eligible(false).len(), pool.candidates);
        let kept = pool.eligible(true);
        assert!(
            kept.len() >= pool.per_run,
            "{} keeps enough chunks",
            workload.name()
        );
        assert!(kept.iter().all(|&index| index < pool.candidates));
        assert!(kept.len() < pool.candidates);
    }
    // Reference seed 882 never reaches a verdict: no screened tv-reference
    // draw holds it, but an unscreened one can.
    let pool = Workload::TvReference.pool();
    let holds_882 = |chunks: Vec<(u64, usize)>| {
        chunks
            .iter()
            .any(|&(start, count)| (start..start + count as u64).contains(&882))
    };
    assert!((0..500).all(|seed| !holds_882(pool.chunks_for(seed, true))));
    assert!((0..500).any(|seed| holds_882(pool.chunks_for(seed, false))));
}

fn benchmark_json() -> Json {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    let text = std::fs::read_to_string(path).expect("BENCHMARK.json at the repository root");
    json::parse(&text).expect("BENCHMARK.json parses")
}

fn declared(doc: &Json, key: &str) -> Vec<(String, String)> {
    doc.get(key)
        .and_then(Json::as_array)
        .expect("metric list")
        .iter()
        .map(|m| {
            (
                m.get("name")
                    .and_then(Json::as_str)
                    .expect("name")
                    .to_string(),
                m.get("unit")
                    .and_then(Json::as_str)
                    .expect("unit")
                    .to_string(),
            )
        })
        .collect()
}

#[test]
fn printed_metric_names_match_benchmark_json() {
    let doc = benchmark_json();
    let as_owned = |list: &[(&str, &str)]| -> Vec<(String, String)> {
        list.iter()
            .map(|(n, u)| (n.to_string(), u.to_string()))
            .collect()
    };
    assert_eq!(declared(&doc, "end_to_end"), as_owned(END_TO_END));
    assert_eq!(declared(&doc, "per_layer"), as_owned(PER_LAYER));
    let workloads: Vec<&str> = doc
        .get("workloads")
        .and_then(Json::as_array)
        .expect("workloads")
        .iter()
        .filter_map(|w| w.get("name").and_then(Json::as_str))
        .collect();
    let ours: Vec<&str> = Workload::ALL.iter().map(|w| w.name()).collect();
    assert_eq!(workloads, ours);
    let mut seen = BTreeSet::new();
    for (name, _) in END_TO_END.iter().chain(PER_LAYER) {
        assert!(valid_name(name), "metric name `{name}`");
        assert!(seen.insert(*name), "metric `{name}` listed twice");
    }
}

#[test]
fn the_result_line_has_exactly_the_result_keys() {
    let line = result_line(true, 10, 1, &[("programs_per_s", "1/s", 12.5)]);
    let parsed = json::parse(&line).expect("result line parses");
    let keys: Vec<&str> = parsed
        .as_object()
        .expect("object")
        .iter()
        .map(|(k, _)| k.as_str())
        .collect();
    assert_eq!(keys, ["correct", "attempted", "failed", "metrics"]);
    let metric = parsed
        .get("metrics")
        .and_then(|m| m.get("programs_per_s"))
        .expect("metric");
    assert_eq!(metric.get("value").and_then(Json::as_f64), Some(12.5));
    assert_eq!(metric.get("unit").and_then(Json::as_str), Some("1/s"));
}

fn span(name: &'static str, parent: Option<usize>, start_ns: u64, end_ns: u64) -> Span {
    Span {
        name,
        parent,
        start_ns,
        end_ns,
    }
}

#[test]
fn self_time_subtracts_the_union_of_child_intervals() {
    // seed [0,100] has children validate [10,40] and replay [30,60] (they
    // overlap by 10) and a child that pokes past its parent's end; validate
    // has a child interp [15,20].  A second seed span accumulates.
    let spans = vec![
        span("seed", None, 0, 100),
        span("validate", Some(0), 10, 40),
        span("interp", Some(1), 15, 20),
        span("replay", Some(0), 30, 60),
        span("reduce", Some(0), 90, 120),
        span("seed", None, 200, 210),
    ];
    let totals = layer_totals(&spans);
    // 100 - |[10,60] ∪ [90,100]| = 100 - 60 = 40, plus the second seed's 10.
    assert_eq!(totals["seed"].self_ns, 50);
    assert_eq!(totals["seed"].calls, 2);
    assert_eq!(totals["validate"].self_ns, 25);
    assert_eq!(totals["interp"].self_ns, 5);
    assert_eq!(totals["replay"].self_ns, 30);
    assert_eq!(totals["reduce"].self_ns, 30);
}

#[test]
fn the_tracer_links_each_span_to_the_innermost_open_one() {
    let mut tracer = Tracer::new();
    tracer.enter("seed");
    tracer.enter("compile");
    tracer.exit();
    tracer.enter("validate");
    tracer.enter("interp");
    tracer.exit();
    tracer.exit();
    tracer.exit();
    let parents: Vec<(&str, Option<usize>)> =
        tracer.spans().iter().map(|s| (s.name, s.parent)).collect();
    assert_eq!(
        parents,
        [
            ("seed", None),
            ("compile", Some(0)),
            ("validate", Some(0)),
            ("interp", Some(2)),
        ]
    );
    assert!(tracer.spans().iter().all(|s| s.end_ns >= s.start_ns));
}

#[test]
fn a_tracer_that_is_off_records_nothing() {
    let mut tracer = Tracer::off();
    tracer.enter("seed");
    tracer.enter("compile");
    assert_eq!(tracer.exit(), 0.0);
    assert_eq!(tracer.exit(), 0.0);
    assert!(tracer.spans().is_empty());
}
