//! Folding shard fragments back into one campaign result.
//!
//! Every completed shard arrives as a *fragment*: the shard campaign's
//! deterministic `gauntlet-report-v1` `result` document, plus a fleet
//! envelope carrying what the cross-shard merge needs but the report schema
//! deliberately excludes — the shard's candidate corpus entries and its
//! construct-census keys.
//!
//! # Why the merge is exact
//!
//! Every seed derives its randomness from itself alone and (in fleet runs)
//! coverage adaptation is off, so a shard processes exactly the seeds the
//! single-process run would.  Report fields then merge by concatenation and
//! summation.  The one subtle piece is the corpus: single-process admission
//! is stateful ("does this program fire a rule the accumulator hasn't
//! seen?").  The key invariant is that a shard's accumulator always equals
//! the union of its *admitted* entries' full rule sets — a seed either adds
//! nothing to the accumulator or is admitted with its full fired set.
//! Consequently (a) a seed not admitted by its shard can never be
//! admissible globally (the global accumulator at that point is a superset
//! of the shard-local one), and (b) re-filtering the shard-admitted
//! candidates in seed order against an accumulator built from
//! previously-admitted candidates reproduces single-process admission
//! decision-for-decision.  `tests/fleet.rs` pins the result byte-identical
//! to `ParallelCampaign`.

use crate::spec::{FleetMode, FleetSpec};
use gauntlet_core::{
    cache_json, cache_summary_from_json, hunt_result_from_json, CacheSummary, Corpus, CorpusEntry,
    CoverageSummary, HuntReport, MutationSummary,
};
use gauntlet_telemetry::json::{self, Json};
use std::collections::{BTreeMap, BTreeSet};
use std::time::Duration;

/// Build one fragment body from a shard's report: its deterministic result
/// document plus the fleet envelope — the shard's corpus entries and
/// census keys when the campaign is coverage-guided, and its cache counters
/// (shaped like the report's `run.cache` object) when the shard ran with a
/// cache.  The cache block is run-descriptive, like `elapsed`: the merged
/// report and corpus stay byte-identical whether or not any fragment
/// carries one.
pub fn fragment_body(report: &HuntReport) -> Json {
    let mut body = vec![("result", report.result_json())];
    if let Some(cache) = &report.cache {
        body.push(("cache", cache_json(cache)));
    }
    if let (Some(corpus), Some(census)) = (&report.corpus, &report.census) {
        let entries: Vec<Json> = corpus
            .entries
            .iter()
            .map(|entry| {
                json::object([
                    ("seed", entry.seed.into()),
                    ("rules", json::strings(&entry.rules)),
                    ("pairs", json::strings(&entry.pairs)),
                    ("source", entry.source.as_str().into()),
                ])
            })
            .collect();
        let keys: Vec<&str> = census.iter().map(|(key, _)| key).collect();
        body.push(("corpus", entries.into()));
        body.push(("census", json::strings(&keys)));
    }
    json::object(body)
}

fn fragment_corpus(body: &Json) -> Result<Vec<CorpusEntry>, String> {
    body.field_or_default("corpus", Json::array_field)?
        .iter()
        .map(|entry| {
            Ok(CorpusEntry {
                seed: entry.u64_field("seed")?,
                rules: entry.str_array_field("rules")?,
                // Absent from pre-pair-tracking fragments: empty.
                pairs: entry.field_or_default("pairs", Json::str_array_field)?,
                source: entry.str_field("source")?.to_string(),
            })
        })
        .collect()
}

fn fragment_cache(body: &Json) -> Result<Option<CacheSummary>, String> {
    body.opt_field("cache")
        .map(cache_summary_from_json)
        .transpose()
}

fn fragment_census(body: &Json) -> Result<Vec<String>, String> {
    body.field_or_default("census", Json::str_array_field)
}

/// Re-filter the shard-admitted candidates into the global corpus, in
/// `(shard, admission)` order — exactly reproducing single-process
/// admission (see the module docs for why).
///
/// Admission must test the *full* coverage signal — a rule novelty OR a
/// pair novelty — exactly as `ParallelCampaign` does.  Checking rules alone
/// would silently drop entries whose only contribution is a new cross-pass
/// interaction, and the merged corpus would no longer be byte-identical to
/// the single-process one.  Rule keys (`pass/rule`) and pair keys (`a->b`)
/// are disjoint string namespaces, so one accumulator set serves both.
pub fn refilter_corpus(fragments: &BTreeMap<usize, Json>) -> Result<Corpus, String> {
    let mut accum: BTreeSet<String> = BTreeSet::new();
    let mut corpus = Corpus::default();
    for body in fragments.values() {
        for entry in fragment_corpus(body)? {
            if entry.rules.iter().any(|rule| !accum.contains(rule))
                || entry.pairs.iter().any(|pair| !accum.contains(pair))
            {
                accum.extend(entry.rules.iter().cloned());
                accum.extend(entry.pairs.iter().cloned());
                corpus.entries.push(entry);
            }
        }
    }
    Ok(corpus)
}

/// Fold all fragments into the final report and corpus.
///
/// In deterministic mode outcomes concatenate in shard order (= ascending
/// seed order, matching `ParallelCampaign`'s ordered commit); in throughput
/// mode they concatenate in `arrival` order.  The corpus re-filter always
/// runs in shard order — its exactness argument needs it, and corpus bytes
/// are a persistent artifact worth keeping stable even in throughput runs.
pub fn merge(
    spec: &FleetSpec,
    fragments: &BTreeMap<usize, Json>,
    arrival: &[usize],
) -> Result<(HuntReport, Corpus), String> {
    let order: Vec<usize> = match spec.mode {
        FleetMode::Deterministic => fragments.keys().copied().collect(),
        FleetMode::Throughput => arrival.to_vec(),
    };
    let mut outcomes = Vec::new();
    let mut programs_checked = 0usize;
    let mut total_bugs = 0usize;
    let mut reduction_failures = 0usize;
    let mut fired: BTreeSet<String> = BTreeSet::new();
    let mut pairs: BTreeSet<String> = BTreeSet::new();
    let mut census: BTreeSet<String> = BTreeSet::new();
    let mut mutants_checked = 0usize;
    let mut divergent = 0usize;
    let mut mutation_fired: BTreeSet<String> = BTreeSet::new();
    let mut cache: Option<CacheSummary> = None;
    for shard in &order {
        let body = fragments
            .get(shard)
            .ok_or_else(|| format!("fragment for shard {shard} missing"))?;
        let result = body
            .get("result")
            .ok_or_else(|| format!("fragment for shard {shard} has no `result`"))?;
        let partial = hunt_result_from_json(result)
            .map_err(|error| format!("fragment for shard {shard}: {error}"))?;
        programs_checked += partial.programs_checked;
        total_bugs += partial.total_bugs;
        reduction_failures += partial.reduction_failures;
        outcomes.extend(partial.outcomes);
        if let Some(coverage) = partial.coverage {
            fired.extend(coverage.fired);
            pairs.extend(coverage.pairs);
        }
        if let Some(mutation) = partial.mutation {
            mutants_checked += mutation.mutants_checked;
            divergent += mutation.divergent;
            mutation_fired.extend(mutation.fired);
        }
        census.extend(fragment_census(body)?);
        if let Some(part) = fragment_cache(body)
            .map_err(|error| format!("fragment for shard {shard} cache: {error}"))?
        {
            cache.get_or_insert_with(CacheSummary::default).add(&part);
        }
    }
    let corpus = if spec.coverage {
        refilter_corpus(fragments)?
    } else {
        Corpus::default()
    };
    let coverage = spec.coverage.then(|| {
        let fired: Vec<String> = fired.iter().cloned().collect();
        CoverageSummary {
            rules_total: p4c::coverage::total_rules(),
            constructs_seen: census.len(),
            corpus_size: corpus.len(),
            corpus_added: corpus.len(),
            // One entry, like a single-process non-adaptive hunt (one
            // epoch spanning the whole range).
            rules_over_time: vec![(programs_checked, fired.len())],
            fired,
            pairs: pairs.iter().cloned().collect(),
            pairs_total: p4c::coverage::total_pairs(),
        }
    });
    let mutation = (spec.mutants_per_seed > 0).then(|| MutationSummary {
        mutants_checked,
        divergent,
        fired: mutation_fired.into_iter().collect(),
        rules_total: p4_mutate::total_rules(),
    });
    let report = HuntReport {
        outcomes,
        programs_checked,
        total_bugs,
        elapsed: Duration::ZERO,
        per_worker: Vec::new(),
        reduction_failures,
        coverage,
        mutation,
        // Filled in by the coordinator from the merged triage store when
        // the spec runs with diversity (per-slice distinct-bug yield).
        diversity: None,
        cache,
        telemetry: None,
        corpus: None,
        census: None,
    };
    Ok((report, corpus))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn body(text: &str) -> Json {
        json::parse(text).expect("test fragment parses")
    }

    const EMPTY_RESULT: &str = "\"result\":{\"programs_checked\":0,\"seeds_with_bugs\":0,\"total_bugs\":0,\"reduction_failures\":0,\"outcomes\":[],\"summary\":{\"by_platform\":{},\"by_area\":{},\"by_attribution\":{},\"total_detected\":0},\"coverage\":null,\"mutation\":null}";

    /// A report with no findings and every optional block absent.
    fn empty_report() -> HuntReport {
        hunt_result_from_json(&body(&format!("{{{EMPTY_RESULT}}}"))).expect("result parses")
    }

    fn corpus_fragment(entries: &[(u64, &[&str], &[&str])]) -> Json {
        let mut text = format!("{{{EMPTY_RESULT},\"corpus\":[");
        for (index, (seed, rules, pairs)) in entries.iter().enumerate() {
            if index > 0 {
                text.push(',');
            }
            let rules: Vec<String> = rules.iter().map(|r| format!("\"{r}\"")).collect();
            let pairs: Vec<String> = pairs.iter().map(|p| format!("\"{p}\"")).collect();
            text.push_str(&format!(
                "{{\"seed\":{seed},\"rules\":[{}],\"pairs\":[{}],\"source\":\"control c() {{ apply {{ }} }}\"}}",
                rules.join(","),
                pairs.join(",")
            ));
        }
        text.push_str("],\"census\":[]}");
        body(&text)
    }

    #[test]
    fn refilter_drops_candidates_covered_by_earlier_shards() {
        let mut fragments = BTreeMap::new();
        // Shard 0 admits rules {a, b}; shard 1's first candidate only
        // re-fires {a} (locally novel, globally redundant) and must be
        // dropped, while its second brings {c} and survives.
        fragments.insert(
            0,
            corpus_fragment(&[(1, &["p/a"], &[]), (3, &["p/a", "p/b"], &[])]),
        );
        fragments.insert(
            1,
            corpus_fragment(&[(25, &["p/a"], &[]), (27, &["p/c", "p/a"], &[])]),
        );
        let corpus = refilter_corpus(&fragments).expect("refilter");
        let seeds: Vec<u64> = corpus.entries.iter().map(|e| e.seed).collect();
        assert_eq!(seeds, vec![1, 3, 27]);
        assert_eq!(
            corpus.fingerprint(),
            vec!["p/a".to_string(), "p/b".to_string(), "p/c".to_string()]
        );
    }

    /// A candidate whose rules are all globally known but which observed a
    /// new cross-pass pair must still be admitted — the full coverage
    /// signal, exactly as single-process admission tests it.
    #[test]
    fn refilter_admits_on_pair_novelty_alone() {
        let mut fragments = BTreeMap::new();
        fragments.insert(0, corpus_fragment(&[(1, &["p/a", "q/b"], &["p/a->q/b"])]));
        fragments.insert(
            1,
            // Seed 25: same rules, same pair — dropped.  Seed 27: same
            // rules, new pair ordering observed — admitted.
            corpus_fragment(&[
                (25, &["p/a", "q/b"], &["p/a->q/b"]),
                (27, &["p/a", "q/b"], &["p/a->q/b", "p/a->r/c"]),
            ]),
        );
        let corpus = refilter_corpus(&fragments).expect("refilter");
        let seeds: Vec<u64> = corpus.entries.iter().map(|e| e.seed).collect();
        assert_eq!(seeds, vec![1, 27]);
        assert_eq!(
            corpus.pair_fingerprint(),
            vec!["p/a->q/b".to_string(), "p/a->r/c".to_string()]
        );
    }

    #[test]
    fn merge_orders_outcomes_by_mode() {
        let with_bug = |seed: u64| {
            body(&format!(
                "{{\"result\":{{\"programs_checked\":5,\"seeds_with_bugs\":1,\"total_bugs\":1,\"reduction_failures\":0,\"outcomes\":[{{\"seed\":{seed},\"reports\":[{{\"kind\":\"Semantic\",\"platform\":\"P4C\",\"area\":\"Mid End\",\"technique\":\"TranslationValidation\",\"pass\":null,\"message\":\"m{seed}\",\"attributed_to\":null,\"minimized\":null,\"reduction\":null}}]}}],\"summary\":{{\"by_platform\":{{}},\"by_area\":{{}},\"by_attribution\":{{}},\"total_detected\":0}},\"coverage\":null,\"mutation\":null}}}}"
            ))
        };
        let mut fragments = BTreeMap::new();
        fragments.insert(0, with_bug(2));
        fragments.insert(1, with_bug(7));
        let spec = FleetSpec {
            seed_count: 10,
            shard_size: 5,
            ..FleetSpec::default()
        };
        // Deterministic: shard order, whatever the arrival order was.
        let (report, _) = merge(&spec, &fragments, &[1, 0]).expect("merge");
        let seeds: Vec<u64> = report.outcomes.iter().map(|o| o.seed).collect();
        assert_eq!(seeds, vec![2, 7]);
        assert_eq!(report.programs_checked, 10);
        assert_eq!(report.total_bugs, 2);
        // Throughput: arrival order.
        let throughput = FleetSpec {
            mode: FleetMode::Throughput,
            ..spec
        };
        let (report, _) = merge(&throughput, &fragments, &[1, 0]).expect("merge");
        let seeds: Vec<u64> = report.outcomes.iter().map(|o| o.seed).collect();
        assert_eq!(seeds, vec![7, 2]);
    }

    #[test]
    fn fragment_body_round_trips_the_envelope() {
        let corpus = Corpus {
            entries: vec![CorpusEntry {
                seed: 4,
                rules: vec!["p/a".into()],
                pairs: vec!["p/a->q/b".into()],
                source: "control c() { apply { } }\n".into(),
            }],
        };
        let census = p4_ir::ConstructCensus::of(&p4_ir::builder::trivial_program());
        let keys: Vec<String> = census.iter().map(|(key, _)| key.to_string()).collect();
        assert!(!keys.is_empty());
        let report = HuntReport {
            corpus: Some(corpus.clone()),
            census: Some(census),
            ..empty_report()
        };
        let parsed = body(&json::render(&fragment_body(&report)));
        assert_eq!(fragment_corpus(&parsed).unwrap(), corpus.entries);
        assert_eq!(fragment_census(&parsed).unwrap(), keys);
        assert_eq!(fragment_cache(&parsed).unwrap(), None);
        // Coverage off: no envelope at all.
        let bare = fragment_body(&empty_report());
        assert!(fragment_corpus(&bare).unwrap().is_empty());
        assert!(fragment_census(&bare).unwrap().is_empty());
    }

    #[test]
    fn merge_sums_fragment_cache_blocks() {
        use gauntlet_core::{CacheStats, SessionStats};
        let part = CacheSummary {
            epochs: 2,
            stats: CacheStats {
                semantics_hits: 3,
                semantics_misses: 5,
                verdict_hits: 7,
                verdict_misses: 11,
            },
            sessions: SessionStats {
                semantics_hits: 3,
                semantics_misses: 5,
                trivial_checks: 2,
                solver_checks: 9,
                cached_checks: 1,
                verdict_hits: 7,
                verdict_misses: 11,
            },
        };
        // The cache block round-trips through the fragment envelope.
        let report = HuntReport {
            cache: Some(part),
            ..empty_report()
        };
        let text = json::render(&fragment_body(&report));
        assert_eq!(fragment_cache(&body(&text)).unwrap(), Some(part));

        let mut fragments = BTreeMap::new();
        fragments.insert(
            0,
            body(&format!(
                "{{{EMPTY_RESULT},\"cache\":{}}}",
                json::render(&cache_json(&part))
            )),
        );
        // A fragment written before the solver race was removed carries a
        // `portfolio_races` count; it still loads, and the count is ignored.
        let old_cache = r#"{"epochs":2,"stats":{"semantics_hits":3,"semantics_misses":5,"verdict_hits":7,"verdict_misses":11},"sessions":{"semantics_hits":3,"semantics_misses":5,"trivial_checks":2,"solver_checks":9,"cached_checks":1,"verdict_hits":7,"verdict_misses":11},"portfolio_races":1}"#;
        fragments.insert(
            1,
            body(&format!("{{{EMPTY_RESULT},\"cache\":{old_cache}}}")),
        );
        // A cache-less fragment (a worker run with the cache off) still
        // merges; it just contributes nothing.
        fragments.insert(2, body(&format!("{{{EMPTY_RESULT}}}")));
        let spec = FleetSpec::default();
        let (report, _) = merge(&spec, &fragments, &[]).expect("merge");
        let merged = report.cache.expect("cache block survives the merge");
        assert_eq!(merged.epochs, 4);
        assert_eq!(merged.stats.semantics_hits, 6);
        assert_eq!(merged.stats.verdict_misses, 22);
        assert_eq!(merged.sessions.solver_checks, 18);
        let mut twice = part;
        twice.add(&part);
        assert_eq!(merged, twice, "the old fragment parses to the same block");

        // No fragment carries a cache: the merged report has none either.
        let mut bare = BTreeMap::new();
        bare.insert(0, body(&format!("{{{EMPTY_RESULT}}}")));
        let (report, _) = merge(&spec, &bare, &[]).expect("merge");
        assert!(report.cache.is_none());
    }
}
