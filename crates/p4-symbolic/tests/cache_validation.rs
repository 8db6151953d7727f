//! Cached-versus-cold validation agreement, plus the two classic miter
//! blow-up regressions pinned as structural (zero solver checks).
//!
//! The epoch cache must be semantically invisible: a session attached to a
//! *populated* cache has to report exactly the verdict — including every
//! `Counterexample` field — that a cold session computes from scratch.
//! Canonical counterexamples (every SAT verdict re-solved in a fresh
//! solver) are what make this hold even though the cached and cold paths
//! run entirely different solver state.

use p4_gen::{GeneratorConfig, RandomProgramGenerator};
use p4_symbolic::{
    interpret_program, BlockSemantics, CampaignCache, Equivalence, ValidationSession,
};
use proptest::prelude::*;
use std::sync::Arc;
use std::time::Instant;

/// Two generated programs with the same architecture but different seeds:
/// structurally comparable (same block names) yet semantically distinct
/// often enough to exercise the counterexample path.
fn program_pair(seed: u64) -> (p4_ir::Program, p4_ir::Program) {
    let config = GeneratorConfig::tiny();
    let a = RandomProgramGenerator::new(config.clone(), seed).generate();
    let b = RandomProgramGenerator::new(config, seed + 1).generate();
    (a, b)
}

/// Asserts two verdicts agree on every observable field.
fn assert_verdicts_agree(cold: &Equivalence, warm: &Equivalence, context: &str) {
    match (cold, warm) {
        (Equivalence::Equal, Equivalence::Equal) => {}
        (Equivalence::NotEqual(c), Equivalence::NotEqual(w)) => {
            assert_eq!(c.block, w.block, "{context}: diverging block differs");
            assert_eq!(c.inputs, w.inputs, "{context}: witness inputs differ");
            assert_eq!(
                c.differing_outputs, w.differing_outputs,
                "{context}: differing outputs differ"
            );
        }
        (cold, warm) => panic!("{context}: cold said {cold:?}, warm said {warm:?}"),
    }
}

proptest! {
    // Every case interprets and SAT-solves whole programs; keep the count
    // moderate (the fixed pins below cover the structural fast paths).
    #![proptest_config(ProptestConfig { cases: 8, ..ProptestConfig::default() })]

    /// A warm session (attached to a cache populated by a prior identical
    /// run) reports byte-for-byte the verdict a cold session computes —
    /// equal/not-equal, diverging block, witness inputs, and differing
    /// outputs — while doing none of the solver work.
    #[test]
    fn warm_and_cold_sessions_agree_on_verdicts(seed in 0u64..5_000) {
        let (a, b) = program_pair(seed);

        let mut cold = ValidationSession::new();
        let cold_verdict = match cold.check_pair(&a, &b) {
            Ok(verdict) => verdict,
            // Interpreter limitations are skipped by the pipeline; the
            // cached path must skip identically (checked below).
            Err(_) => {
                let cache = Arc::new(CampaignCache::new());
                let mut first = ValidationSession::with_cache(Arc::clone(&cache));
                prop_assert!(first.check_pair(&a, &b).is_err());
                let mut second = ValidationSession::with_cache(cache);
                prop_assert!(second.check_pair(&a, &b).is_err());
                return;
            }
        };

        let cache = Arc::new(CampaignCache::new());
        let mut first = ValidationSession::with_cache(Arc::clone(&cache));
        let first_verdict = first.check_pair(&a, &b).expect("cold path succeeded");
        assert_verdicts_agree(&cold_verdict, &first_verdict, "empty-cache session");

        let mut second = ValidationSession::with_cache(cache);
        let second_verdict = second.check_pair(&a, &b).expect("cold path succeeded");
        assert_verdicts_agree(&cold_verdict, &second_verdict, "populated-cache session");

        // The warm session did no interpretation and no solving: both
        // programs and every decided query came from the memo.
        let stats = second.stats();
        prop_assert_eq!(stats.semantics_misses, 0);
        prop_assert_eq!(stats.semantics_hits, 2);
        prop_assert_eq!(stats.solver_checks, 0);
        prop_assert_eq!(stats.verdict_misses, 0);
    }

    /// The reference compiler's whole pass chain validates identically
    /// through a shared cache: every snapshot pair is `Equal` both cold and
    /// warm (the campaign's zero-false-alarm discipline must not depend on
    /// which worker populated the memo).
    #[test]
    fn reference_chains_stay_equal_under_the_cache(seed in 5_000u64..10_000) {
        let program = RandomProgramGenerator::new(GeneratorConfig::tiny(), seed).generate();
        let compiled = p4c::Compiler::reference()
            .compile(&program)
            .unwrap_or_else(|e| panic!("seed {seed}: reference compiler failed: {e}"));
        let cache = Arc::new(CampaignCache::new());
        for session_round in 0..2 {
            let mut session = ValidationSession::with_cache(Arc::clone(&cache));
            for (before, after) in compiled.pass_pairs() {
                // An `Err` is an interpreter limitation: skipped, like the
                // pipeline does.
                if let Ok(verdict) = session.check_pair(&before.program, &after.program) {
                    prop_assert!(
                        verdict.is_equal(),
                        "seed {seed}, round {session_round}, pass {}: reference pass flagged",
                        after.pass_name
                    );
                }
            }
            if session_round == 1 {
                prop_assert_eq!(session.stats().semantics_misses, 0);
                prop_assert_eq!(session.stats().solver_checks, 0);
            }
        }
    }

    /// The per-block memo is invisible: for every reference-compiler
    /// snapshot of a tiny seed, the semantics it assembles — sharing blocks
    /// with earlier snapshots — equal a fresh `interpret_program` in the
    /// same manager, output for output.
    #[test]
    fn memoised_semantics_equal_fresh_interpretation(seed in 0u64..10_000) {
        let program = RandomProgramGenerator::new(GeneratorConfig::tiny(), seed).generate();
        if let Ok(compiled) = p4c::Compiler::reference().compile(&program) {
            let cache = CampaignCache::new();
            let tm = cache.term_manager();
            for snapshot in &compiled.snapshots {
                let fresh = interpret_program(&tm, &snapshot.program);
                let memoised = cache.semantics(&snapshot.program);
                let (Ok(fresh), Ok((memoised, _))) = (&fresh, &memoised) else {
                    prop_assert!(
                        fresh.is_err() && memoised.is_err(),
                        "seed {seed}, pass {}: only one path failed",
                        snapshot.pass_name
                    );
                    continue;
                };
                prop_assert_eq!(memoised.blocks.len(), fresh.blocks.len());
                for (memo_block, fresh_block) in memoised.blocks.iter().zip(&fresh.blocks) {
                    prop_assert_eq!(&memo_block.slot, &fresh_block.slot);
                    prop_assert_eq!(
                        block_terms(memo_block),
                        block_terms(fresh_block),
                        "seed {}, pass {}, block {}",
                        seed,
                        &snapshot.pass_name,
                        &fresh_block.slot
                    );
                    prop_assert_eq!(&memo_block.inputs, &fresh_block.inputs);
                }
            }
        }
    }
}

/// Every term of a block's semantics, by id and labelled: its outputs,
/// branch conditions and table hit conditions.
fn block_terms(block: &BlockSemantics) -> Vec<(String, u64)> {
    let outputs = block
        .outputs
        .iter()
        .map(|(name, term)| (name.clone(), term.id));
    let branches = block
        .branch_conditions
        .iter()
        .map(|term| ("branch".to_string(), term.id));
    let tables = block
        .tables
        .iter()
        .map(|table| (format!("{}.hit", table.table), table.hit.id));
    outputs.chain(branches).chain(tables).collect()
}

/// Parses a miniature single-assignment program whose ingress body is
/// `statements`.
fn tiny_program(statements: &str) -> p4_ir::Program {
    let source = format!(
        r#"
header h_t {{
    bit<8> a;
    bit<8> b;
}}

struct headers_t {{
    h_t h;
}}

struct metadata_t {{
    bit<8> tmp;
}}

parser parser_impl(packet_in packet, out headers_t hdr, inout metadata_t meta, inout standard_metadata_t standard_metadata) {{
    state start {{
        packet.extract(hdr.h);
        transition accept;
    }}
}}

control ingress_impl(inout headers_t hdr, inout metadata_t meta, inout standard_metadata_t standard_metadata) {{
    apply {{
{statements}
    }}
}}

control egress_impl(inout headers_t hdr, inout metadata_t meta, inout standard_metadata_t standard_metadata) {{
    apply {{
    }}
}}

control deparser_impl(packet_in packet, in headers_t hdr) {{
    apply {{
        packet.emit(hdr.h);
    }}
}}

V1Switch(parser_impl(), ingress_impl(), egress_impl(), deparser_impl()) main;
"#
    );
    p4_parser::parse_program(&source).expect("pin fixture parses")
}

/// Checks a before/after pair and asserts the verdict is `Equal`, decided
/// structurally (no SAT call) and fast.  The wall-clock bound is a blow-up
/// alarm, not a benchmark: these queries fold to syntactic identity, and a
/// regression that re-introduces solving shows up first in the counters.
fn assert_structural_equal(before: &p4_ir::Program, after: &p4_ir::Program, context: &str) {
    let mut session = ValidationSession::new();
    let start = Instant::now();
    let verdict = session
        .check_pair(before, after)
        .unwrap_or_else(|e| panic!("{context}: cannot compare: {e}"));
    let elapsed = start.elapsed();
    assert!(verdict.is_equal(), "{context}: expected Equal");
    let stats = session.stats();
    assert_eq!(
        stats.solver_checks, 0,
        "{context}: must discharge structurally, got {stats:?}"
    );
    assert_eq!(stats.trivial_checks, 1, "{context}: {stats:?}");
    // Structural discharge is microseconds of hashing; anything near the
    // bound means the fold regressed into real solving or interpretation
    // blow-up.  Debug builds are ~10× slower than release, hence 100ms.
    assert!(
        elapsed.as_millis() < 100,
        "{context}: took {elapsed:?}, expected sub-millisecond-class discharge"
    );
}

/// Pin: shifting an 8-bit value by a constant ≥ its width folds to zero in
/// the term manager, so validating a strength-reduced oversized shift never
/// builds a miter.  (Without the fold the shifter encoding explodes and the
/// query burns SAT time for a tautology.)
#[test]
fn oversized_shift_fold_discharges_structurally() {
    let before = tiny_program("        hdr.h.a = (hdr.h.b << 8w41);");
    let after = tiny_program("        hdr.h.a = 8w0;");
    assert_structural_equal(&before, &after, "oversized shl");

    let before = tiny_program("        hdr.h.a = (hdr.h.b >> 8w200);");
    let after = tiny_program("        hdr.h.a = 8w0;");
    assert_structural_equal(&before, &after, "oversized shr");
}

/// Pin: nested ites over the same condition absorb into the outer ite, so
/// an if/else whose else-branch re-tests the identical condition validates
/// against its flattened form without a solver call.
#[test]
fn same_condition_ite_absorption_discharges_structurally() {
    let before = tiny_program(
        "        if ((hdr.h.a == 8w1)) {\n            hdr.h.b = 8w2;\n        } else {\n            if ((hdr.h.a == 8w1)) {\n                hdr.h.b = 8w3;\n            } else {\n                hdr.h.b = 8w4;\n            }\n        }",
    );
    let after = tiny_program(
        "        if ((hdr.h.a == 8w1)) {\n            hdr.h.b = 8w2;\n        } else {\n            hdr.h.b = 8w4;\n        }",
    );
    assert_structural_equal(&before, &after, "same-condition ite absorption");
}
