//! Golden snapshot tests for report rendering: fixture `HuntReport`s pinned
//! against verbatim `render`/`render_table2`/`render_table3` output.
//!
//! The totals-row defect fixed in the reduction PR had no pinned-output
//! regression test — a formatting change could silently corrupt every
//! rendered campaign artifact.  These fixtures cover the per-seed report
//! blocks (including reduction stats and attribution tags), the Table 2/3
//! analogues with their margin columns, and the coverage and mutation
//! blocks added by the coverage-guided and metamorphic dimensions.

use gauntlet_core::{
    render_table2, render_table3, BugKind, BugReport, CompilerArea, CoverageSummary,
    DiversitySummary, HuntReport, MutationSummary, Platform, SeedOutcome, Technique,
};
use gauntlet_telemetry::json;
use std::time::Duration;

/// A hunt fixture exercising every rendered feature at once: a reduced
/// translation-validation finding, a differential finding with attribution,
/// a metamorphic divergence, plus coverage and mutation blocks.
fn fixture_hunt() -> HuntReport {
    let mut semantic = BugReport::new(
        BugKind::Semantic,
        Platform::P4c,
        CompilerArea::FrontEnd,
        Technique::TranslationValidation,
        Some("SimplifyDefUse".into()),
        "semantic difference in block `ingress`:\n  hdr.h.a: Bv(8w1) -> Bv(8w0)".into(),
    );
    semantic.minimized = Some("<minimized program>".into());
    semantic.reduction = Some(p4_reduce::ReductionStats {
        initial_statements: 24,
        final_statements: 2,
        initial_nodes: 60,
        final_nodes: 5,
        oracle_calls: 31,
        typecheck_rejections: 4,
        accepted_steps: 6,
        rounds: 2,
    });
    let differential = BugReport::new(
        BugKind::Semantic,
        Platform::Bmv2,
        CompilerArea::BackEnd,
        Technique::SymbolicExecution,
        None,
        "stf differential mismatch on `hdr.h.a`: consensus Bv(8w1), observed Bv(8w2) (3 of 8 tests failed, 3-way)".into(),
    )
    .attributed_to("bmv2");
    let metamorphic = BugReport::new(
        BugKind::Metamorphic,
        Platform::P4c,
        CompilerArea::FrontEnd,
        Technique::MetamorphicMutation,
        None,
        "mutation chain `OpaqueGuard` diverges on `hdr.h.a`\nsemantic difference in block `ingress`:\n  hdr.h.a: Bv(8w7) -> Bv(8w0)".into(),
    );
    HuntReport {
        outcomes: vec![
            SeedOutcome {
                seed: 3,
                reports: vec![semantic, differential],
            },
            SeedOutcome {
                seed: 7,
                reports: vec![metamorphic],
            },
        ],
        programs_checked: 50,
        total_bugs: 3,
        elapsed: Duration::from_millis(1234),
        per_worker: vec![26, 24],
        reduction_failures: 0,
        coverage: Some(CoverageSummary {
            fired: vec![
                "ConstantFolding/fold_arith".into(),
                "Predication/predicate_then".into(),
                "StrengthReduction/add_zero_identity".into(),
            ],
            rules_total: 39,
            constructs_seen: 17,
            corpus_size: 3,
            corpus_added: 1,
            rules_over_time: vec![(25, 2), (50, 3)],
            pairs: vec![
                "ConstantFolding/fold_arith->Predication/predicate_then".into(),
                "ConstantFolding/fold_arith->StrengthReduction/add_zero_identity".into(),
            ],
            pairs_total: 627,
        }),
        mutation: Some(MutationSummary {
            mutants_checked: 96,
            divergent: 1,
            fired: vec![
                "AlgebraicRewrite/xor_zero".into(),
                "ControlFlowWrap/block_wrap".into(),
                "OpaqueGuard/opaque_false_branch".into(),
                "ReorderIndependent/swap_independent".into(),
            ],
            rules_total: 10,
        }),
        diversity: Some(DiversitySummary {
            slices: 2,
            distinct_bugs: [("slice-0".to_string(), 2), ("slice-1".to_string(), 1)]
                .into_iter()
                .collect(),
        }),
        // Run-descriptive like `elapsed`: must not influence the render.
        cache: Some(gauntlet_core::CacheSummary::default()),
        telemetry: None,
        corpus: None,
        census: None,
    }
}

const EXPECTED_RENDER: &str = "\
programs checked: 50, seeds with bugs: 2, bug reports: 3
seed 3:
  [Semantic/P4C/Front End] pass SimplifyDefUse: semantic difference in block `ingress`:
    minimized: 24 -> 2 statements (31 oracle calls, 6 steps)
  [Semantic/BMv2/Back End] pass -: stf differential mismatch on `hdr.h.a`: consensus Bv(8w1), observed Bv(8w2) (3 of 8 tests failed, 3-way) [attributed: bmv2]
seed 7:
  [Metamorphic/P4C/Front End] pass -: mutation chain `OpaqueGuard` diverges on `hdr.h.a`
coverage: 3/39 pass-rewrite rules fired, 17 construct pairs seen
interactions: 2/627 cross-pass rule pairs observed
corpus: 3 program(s) (1 added this hunt)
coverage over time (programs:rules): 25:2 50:3
mutation: 96 mutant(s) checked, 1 divergent, 4/10 mutator rules applied
diversity: 2 slice(s); distinct bugs per slice: slice-0:2 slice-1:1
";

const EXPECTED_TABLE2: &str = "\
Table 2 (reproduction): distinct seeded bugs detected
Bug Type          P4C     BMv2   Tofino  RefIntp    Model    Total
Crash               0        0        0        0        0        0
Semantic            2        1        0        0        0        3
Total               2        1        0        0        0        3

Per-target attribution (differential/testgen majority vote):
bmv2                1

coverage: 3/39 pass-rewrite rules fired, 17 construct pairs seen
interactions: 2/627 cross-pass rule pairs observed
corpus: 3 program(s) (1 added this hunt)
coverage over time (programs:rules): 25:2 50:3

mutation: 96 mutant(s) checked, 1 divergent, 4/10 mutator rules applied
";

const EXPECTED_TABLE3: &str = "\
Table 3 (reproduction): distinct seeded bugs by compiler area
Location         Bugs
Front End           2
Mid End             0
Back End            1
Total               3
";

#[test]
fn hunt_render_is_pinned_verbatim() {
    assert_eq!(fixture_hunt().render(), EXPECTED_RENDER);
}

#[test]
fn campaign_summary_table2_is_pinned_verbatim() {
    let summary = fixture_hunt().campaign_summary();
    assert_eq!(render_table2(&summary), EXPECTED_TABLE2);
}

#[test]
fn campaign_summary_table3_is_pinned_verbatim() {
    let summary = fixture_hunt().campaign_summary();
    assert_eq!(render_table3(&summary), EXPECTED_TABLE3);
}

/// The totals-row regression fixed in the reduction PR, pinned numerically:
/// per-platform totals under their columns plus both margins.
#[test]
fn table2_totals_row_carries_per_platform_totals_and_margins() {
    let summary = fixture_hunt().campaign_summary();
    let text = render_table2(&summary);
    let totals: Vec<usize> = text
        .lines()
        .find(|line| line.starts_with("Total"))
        .expect("total row")
        .split_whitespace()
        .skip(1)
        .map(|v| v.parse().expect("numeric"))
        .collect();
    // P4C (semantic TV + metamorphic), BMv2, Tofino, RefInterp, Model, grand.
    assert_eq!(totals, vec![2, 1, 0, 0, 0, 3]);
}

/// Metamorphic findings count as semantic (non-crash) miscompilations in
/// the Table 2 buckets.
#[test]
fn metamorphic_kind_is_not_crash_like() {
    assert!(!BugKind::Metamorphic.is_crash_like());
}

// ---------------------------------------------------------------------------
// gauntlet-report-v1: the machine-readable report
// ---------------------------------------------------------------------------

/// The fixture hunt's full `gauntlet-report-v1` document, pinned verbatim.
/// Key order is part of the schema contract (the serde shim is a no-op, so
/// the emitter writes keys in a fixed order); any change here is a schema
/// change and must bump the version tag.
const EXPECTED_JSON: &str = concat!(
    r#"{"schema":"gauntlet-report-v1","result":{"programs_checked":50,"seeds_with_bugs":2,"total_bugs":3,"reduction_failures":0,"#,
    r#""outcomes":[{"seed":3,"reports":[{"kind":"Semantic","platform":"P4C","area":"Front End","technique":"TranslationValidation","pass":"SimplifyDefUse","message":"semantic difference in block `ingress`:\n  hdr.h.a: Bv(8w1) -> Bv(8w0)","attributed_to":null,"minimized":"<minimized program>","reduction":{"initial_statements":24,"final_statements":2,"initial_nodes":60,"final_nodes":5,"oracle_calls":31,"typecheck_rejections":4,"accepted_steps":6,"rounds":2}},"#,
    r#"{"kind":"Semantic","platform":"BMv2","area":"Back End","technique":"SymbolicExecution","pass":null,"message":"stf differential mismatch on `hdr.h.a`: consensus Bv(8w1), observed Bv(8w2) (3 of 8 tests failed, 3-way)","attributed_to":"bmv2","minimized":null,"reduction":null}]},"#,
    r#"{"seed":7,"reports":[{"kind":"Metamorphic","platform":"P4C","area":"Front End","technique":"MetamorphicMutation","pass":null,"message":"mutation chain `OpaqueGuard` diverges on `hdr.h.a`\nsemantic difference in block `ingress`:\n  hdr.h.a: Bv(8w7) -> Bv(8w0)","attributed_to":null,"minimized":null,"reduction":null}]}],"#,
    r#""summary":{"by_platform":{"BMv2/semantic":1,"P4C/semantic":2},"by_area":{"Back End":1,"Front End":2},"by_attribution":{"bmv2":1},"total_detected":3},"#,
    r#""coverage":{"fired":["ConstantFolding/fold_arith","Predication/predicate_then","StrengthReduction/add_zero_identity"],"rules_total":39,"constructs_seen":17,"corpus_size":3,"corpus_added":1,"rules_over_time":[[25,2],[50,3]],"pairs":["ConstantFolding/fold_arith->Predication/predicate_then","ConstantFolding/fold_arith->StrengthReduction/add_zero_identity"],"pairs_total":627},"#,
    r#""mutation":{"mutants_checked":96,"divergent":1,"fired":["AlgebraicRewrite/xor_zero","ControlFlowWrap/block_wrap","OpaqueGuard/opaque_false_branch","ReorderIndependent/swap_independent"],"rules_total":10},"#,
    r#""diversity":{"slices":2,"distinct_bugs":{"slice-0":2,"slice-1":1}}},"#,
    r#""run":{"elapsed_us":1234000,"per_worker":[26,24],"cache":{"epochs":0,"stats":{"semantics_hits":0,"semantics_misses":0,"verdict_hits":0,"verdict_misses":0},"sessions":{"semantics_hits":0,"semantics_misses":0,"trivial_checks":0,"solver_checks":0,"cached_checks":0,"verdict_hits":0,"verdict_misses":0}},"telemetry":null}}"#,
);

#[test]
fn report_json_is_pinned_verbatim() {
    assert_eq!(fixture_hunt().to_json(), EXPECTED_JSON);
}

/// The deterministic half is exactly the `result` object of the full
/// document — what the determinism matrix test compares across runs.
#[test]
fn deterministic_json_is_the_result_half() {
    let hunt = fixture_hunt();
    assert!(hunt.to_json().contains(&hunt.deterministic_json()));
}

fn counter_map(value: &json::Json) -> std::collections::BTreeMap<String, usize> {
    value
        .as_counter_map()
        .expect("counter map")
        .into_iter()
        .map(|(key, count)| (key, count as usize))
        .collect()
}

fn u64_field(value: &json::Json, key: &str) -> u64 {
    value
        .get(key)
        .and_then(|field| field.as_u64())
        .unwrap_or_else(|| panic!("u64 field {key}"))
}

fn string_array(value: &json::Json) -> Vec<String> {
    value
        .as_array()
        .expect("array")
        .iter()
        .map(|item| item.as_str().expect("string").to_string())
        .collect()
}

/// The derivability guarantee: `render_table2` and `render_table3` can be
/// reproduced from the parsed JSON document alone, without the original
/// `HuntReport`.  The reconstruction goes through `CampaignReport`, proving
/// the summary/coverage/mutation blocks carry everything the tables need.
#[test]
fn tables_are_derivable_from_the_json_report() {
    let hunt = fixture_hunt();
    let parsed = json::parse(&hunt.to_json()).expect("report JSON parses");
    let result = parsed.get("result").expect("result half");
    let summary = result.get("summary").expect("summary block");

    let coverage = result.get("coverage").and_then(|block| match block {
        json::Json::Null => None,
        block => Some(CoverageSummary {
            fired: string_array(block.get("fired").expect("fired")),
            rules_total: u64_field(block, "rules_total") as usize,
            constructs_seen: u64_field(block, "constructs_seen") as usize,
            corpus_size: u64_field(block, "corpus_size") as usize,
            corpus_added: u64_field(block, "corpus_added") as usize,
            rules_over_time: block
                .get("rules_over_time")
                .and_then(|t| t.as_array())
                .expect("trajectory")
                .iter()
                .map(|pair| {
                    let pair = pair.as_array().expect("pair");
                    (
                        pair[0].as_u64().expect("programs") as usize,
                        pair[1].as_u64().expect("rules") as usize,
                    )
                })
                .collect(),
            pairs: string_array(block.get("pairs").expect("pairs")),
            pairs_total: u64_field(block, "pairs_total") as usize,
        }),
    });
    let mutation = result.get("mutation").and_then(|block| match block {
        json::Json::Null => None,
        block => Some(MutationSummary {
            mutants_checked: u64_field(block, "mutants_checked") as usize,
            divergent: u64_field(block, "divergent") as usize,
            fired: string_array(block.get("fired").expect("fired")),
            rules_total: u64_field(block, "rules_total") as usize,
        }),
    });

    let reconstructed = gauntlet_core::CampaignReport {
        outcomes: Vec::new(),
        by_platform: counter_map(summary.get("by_platform").expect("by_platform")),
        by_area: counter_map(summary.get("by_area").expect("by_area")),
        by_attribution: counter_map(summary.get("by_attribution").expect("by_attribution")),
        false_alarms: 0,
        total_detected: u64_field(summary, "total_detected") as usize,
        coverage,
        mutation,
    };

    let direct = hunt.campaign_summary();
    assert_eq!(render_table2(&reconstructed), render_table2(&direct));
    assert_eq!(render_table3(&reconstructed), render_table3(&direct));
    assert_eq!(render_table2(&reconstructed), EXPECTED_TABLE2);
    assert_eq!(render_table3(&reconstructed), EXPECTED_TABLE3);
}
