//! Every metric the benchmark prints, with its unit.  `BENCHMARK.json` lists
//! the same names; the self-tests keep the two in step.

/// Printed by an untraced run (`--trace 0`).
pub const END_TO_END: &[(&str, &str)] = &[
    ("programs_per_s", "1/s"),
    ("setup_s", "s"),
    ("peak_rss_mb", "MB"),
];

/// Printed by a traced run (`--trace 1`), for every workload; a layer a
/// workload bypasses reads 0.
pub const PER_LAYER: &[(&str, &str)] = &[
    ("gen.ms", "ms"),
    ("gen.statements", "count"),
    ("compile.ms", "ms"),
    ("compile.pass_pairs", "count"),
    ("compile.rules_fired", "count"),
    ("parse.ms", "ms"),
    ("interp.ms", "ms"),
    ("interp.semantics_misses", "count"),
    ("interp.semantics_hit_ratio", "ratio"),
    ("validate.ms", "ms"),
    ("validate.trivial_checks", "count"),
    ("validate.solver_checks", "count"),
    ("validate.cached_checks", "count"),
    ("validate.verdict_hit_ratio", "ratio"),
    ("sat.conflicts", "count"),
    ("sat.decisions", "count"),
    ("sat.propagations", "count"),
    ("sat.variables", "count"),
    ("solver.query_ms.p50", "ms"),
    ("solver.query_ms.p99", "ms"),
    ("solver.query_ms.max", "ms"),
    ("seed.verdict_ms.p50", "ms"),
    ("seed.verdict_ms.p99", "ms"),
    ("seed.verdict_ms.max", "ms"),
    ("mutate.ms", "ms"),
    ("mutate.mutants", "count"),
    ("mutate.divergent", "count"),
    ("testgen.ms", "ms"),
    ("testgen.tests", "count"),
    ("replay.ms", "ms"),
    ("reduce.ms", "ms"),
    ("reduce.oracle_calls", "count"),
    ("reduce.accept_ratio", "ratio"),
    ("reduce.size_ratio", "ratio"),
    ("adapt.ms", "ms"),
    ("coverage.pairs_fired", "count"),
    ("corpus.added", "count"),
    ("campaign.idle_pct", "%"),
    ("campaign.worker_imbalance", "ratio"),
    ("cache.semantics_hit_ratio", "ratio"),
    ("cache.verdict_hit_ratio", "ratio"),
    ("cache.evicted", "count"),
    ("fleet.overhead_pct", "%"),
    ("fleet.checkpoint_bytes", "bytes"),
    ("fleet.checkpoints_written", "count"),
    ("fleet.workers_spawned", "count"),
    ("trace.overhead_pct", "%"),
    ("trace.seeds", "count"),
];

/// Whether `name` uses only the characters metric names may contain.
pub fn valid_name(name: &str) -> bool {
    !name.is_empty()
        && name.len() <= 64
        && name.starts_with(|c: char| c.is_ascii_alphanumeric())
        && name
            .chars()
            .all(|c| c.is_ascii_alphanumeric() || matches!(c, '_' | '.' | '-'))
}

/// Renders the result line printed last on standard output: `correct`,
/// `attempted`, `failed` and the metrics.
pub fn result_line(
    correct: bool,
    attempted: u64,
    failed: u64,
    metrics: &[(&str, &str, f64)],
) -> String {
    let body: Vec<String> = metrics
        .iter()
        .map(|(name, unit, value)| {
            format!(
                "\"{name}\": {{\"value\": {}, \"unit\": \"{unit}\"}}",
                gauntlet_telemetry::json::number(if value.is_finite() { *value } else { 0.0 })
            )
        })
        .collect();
    format!(
        "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{{}}}}}",
        body.join(", ")
    )
}
