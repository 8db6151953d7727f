//! Mutation-chain minimisation for metamorphic findings.
//!
//! A metamorphic finding has *two* things to shrink: the mutation chain
//! that produced the diverging mutant, and the seed program itself.  The
//! chain comes first ([`minimize_chain`]): drop subsets of mutations
//! (replaying the survivors with their recorded per-step seeds) while the
//! mutant keeps diverging on the same output field.  A four-step chain
//! whose opaque guard alone triggers the bug reports as `OpaqueGuard`, not
//! as a four-mutator pile-up — which is also what keys the finding for
//! de-duplication.  The seed program then shrinks through the standard
//! [`crate::Reducer`] under an oracle that re-runs the whole metamorphic
//! detection, chain minimisation included.

use crate::ddmin::ddmin;
use p4_ir::Program;
use p4_mutate::{ChainOutcome, MetamorphicChecker, MetamorphicFinding, MetamorphicFindingKind};

/// Ddmin-shrinks a divergence finding's mutation chain in place: mutations
/// are dropped while the replayed remainder still diverges on the same
/// output field.  `seed_final` is the seed program's compiled form, which
/// every probe compares against, so a probe costs one mutant compile.
/// Crash/rejection findings are left alone (their dedup key is the
/// compiler's own message, not the chain).
pub fn minimize_chain(
    checker: &mut MetamorphicChecker,
    seed_final: &Program,
    program: &Program,
    finding: &mut MetamorphicFinding,
) {
    if finding.kind != MetamorphicFindingKind::Divergence {
        return;
    }
    let Some(original_field) = finding.field.clone() else {
        return;
    };
    if finding.chain.len() < 2 {
        return;
    }
    let steps = finding.chain.clone();
    let shrunk = ddmin(&steps, &mut |subset| {
        matches!(
            checker.check_chain_against(seed_final, program, subset),
            ChainOutcome::Divergence { ref field, .. } if *field == original_field
        )
    });
    if shrunk.len() < steps.len() {
        // Re-derive the counterexample for the shrunk chain so the reported
        // detail matches what a replay of the minimised chain produces.
        if let ChainOutcome::Divergence { field, detail } =
            checker.check_chain_against(seed_final, program, &shrunk)
        {
            finding.chain = shrunk;
            finding.field = Some(field);
            finding.detail = detail;
        }
    }
}
