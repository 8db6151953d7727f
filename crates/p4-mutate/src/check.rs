//! The metamorphic checker: prove mutant ≡ seed *end-to-end*.
//!
//! Translation validation compares consecutive pass snapshots of one
//! compile.  The metamorphic oracle instead compares the **fully compiled**
//! forms of two source-equivalent programs: the seed and one of its
//! semantics-preserving mutants.  Because mutant ≡ seed holds at the source
//! level by construction, `compile(mutant) ≢ compile(seed)` convicts the
//! compiler — including defect shapes per-pass validation provably cannot
//! see, such as corruption applied before the first snapshot is taken
//! (every snapshot pair is then self-consistent) or a miscompilation the
//! validator's model mis-models identically on both sides of one pass.
//!
//! Equivalence of the two compiled programs is decided by the same
//! hash-consed incremental [`ValidationSession`] translation validation
//! uses, so mutants whose optimised form collapses back onto the seed's
//! (the common case on a correct compiler) are discharged without touching
//! the solver.

use crate::engine::{chain_key, AppliedMutation, MutationEngine};
use crate::registry::MutationCoverage;
use p4_ir::Program;
use p4_symbolic::{Equivalence, EquivalenceError, ValidationSession};
use p4c::{CompileError, Compiler};
use serde::{Deserialize, Serialize};

/// The fixed mutation-stream seed used where no per-seed stream exists: the
/// seeded-bug table campaign and its reduction oracles (`SeededBug::detect`
/// and `SeededBug::oracle` must derive identical mutant families or their
/// dedup keys would never match).
pub const CAMPAIGN_MUTATION_SEED: u64 = 0x4D55_5441_5445;

/// Maximum mutation-chain length per mutant.
pub const MAX_CHAIN: usize = 4;

/// Options of a metamorphic check (the `--mutants` knob).
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct MetamorphicOptions {
    /// Mutants generated and checked per seed program (`--mutants`).
    pub mutants_per_seed: usize,
}

impl Default for MetamorphicOptions {
    fn default() -> Self {
        MetamorphicOptions {
            mutants_per_seed: 3,
        }
    }
}

/// How one mutant family member related to its seed.
#[derive(Debug, Clone)]
pub enum ChainOutcome {
    /// The mutant's compiled form is provably equivalent to the seed's.
    Equivalent,
    /// The compiled forms differ: a miscompilation, by the metamorphic
    /// argument.  `detail` is the solver's counterexample rendering.
    Divergence { field: String, detail: String },
    /// The compiler crashed on the mutant (but not on the seed).
    Crash { pass: String, message: String },
    /// The compiler rejected the well-typed mutant.
    Rejected { pass: String, message: String },
    /// The pair could not be compared (unsupported construct or structure
    /// mismatch) — skipped, as the pipeline does for its own oracle gaps
    /// (paper §8).
    Skipped,
}

/// What kind of defect a [`MetamorphicFinding`] describes.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum MetamorphicFindingKind {
    /// compile(mutant) ≢ compile(seed).
    Divergence,
    /// The compiler crashed on a mutant.
    Crash,
    /// The compiler rejected a well-typed mutant.
    Rejection,
}

/// One metamorphic finding.
#[derive(Debug, Clone)]
pub struct MetamorphicFinding {
    pub kind: MetamorphicFindingKind,
    /// The pass a crash/rejection is attributed to (`None` for divergences:
    /// the end-to-end oracle cannot localise a pass — the price of seeing
    /// what per-pass validation cannot).
    pub pass: Option<String>,
    /// The applied-mutation chain that produced the offending mutant
    /// (minimised ddmin-style by `p4-reduce` before reporting).
    pub chain: Vec<AppliedMutation>,
    /// The first diverging output field (divergences only).
    pub field: Option<String>,
    /// Full message body: counterexample rendering or crash message.
    pub detail: String,
}

impl MetamorphicFinding {
    /// The chain's dedup identity (mutator names in application order).
    pub fn chain_key(&self) -> String {
        chain_key(&self.chain)
    }

    /// The finding's first message line — the de-duplication anchor
    /// `gauntlet-core` keys its report on (`BugReport::dedup_key`), so
    /// reduction and per-seed de-duplication both read it.  Divergences are keyed by mutator chain + diverging
    /// field; crashes and rejections keep the compiler's own first line so
    /// they collapse with the same defect found by plain crash detection.
    pub fn headline(&self) -> String {
        match self.kind {
            MetamorphicFindingKind::Divergence => {
                divergence_headline(&self.chain_key(), self.field.as_deref().unwrap_or("?"))
            }
            _ => self.detail.lines().next().unwrap_or("").to_string(),
        }
    }
}

/// The canonical first line of a divergence finding.
pub fn divergence_headline(chain: &str, field: &str) -> String {
    format!("mutation chain `{chain}` diverges on `{field}`")
}

/// Everything one seed program's mutant family produced.
#[derive(Debug, Clone, Default)]
pub struct MetamorphicOutcome {
    pub findings: Vec<MetamorphicFinding>,
    /// Which mutation rules were applied while building the family.
    pub coverage: MutationCoverage,
    /// Mutants that actually mutated (empty chains are not counted).
    pub mutants_checked: usize,
}

/// The metamorphic checker: owns the compiler under test, the mutation
/// engine, and one incremental validation session shared across every
/// mutant (and, when held by a campaign worker, across every seed).
pub struct MetamorphicChecker {
    compiler: Compiler,
    session: ValidationSession,
    engine: MutationEngine,
}

impl MetamorphicChecker {
    /// Turns the compiler's per-pass snapshots off: the checker reads only
    /// the fully compiled program, never a snapshot.
    pub fn new(compiler: Compiler) -> MetamorphicChecker {
        MetamorphicChecker::with_session(compiler, ValidationSession::new())
    }

    /// A checker whose validation session attaches to a shared campaign
    /// cache: campaign workers hand every checker (and every
    /// translation-validation session) the same [`p4_symbolic::CampaignCache`], so a
    /// mutant family whose compiled forms another worker already interpreted
    /// or decided is discharged from the memo.  Snapshots are off, as in
    /// [`MetamorphicChecker::new`].
    pub fn with_cache(
        compiler: Compiler,
        cache: std::sync::Arc<p4_symbolic::CampaignCache>,
    ) -> MetamorphicChecker {
        MetamorphicChecker::with_session(compiler, ValidationSession::with_cache(cache))
    }

    fn with_session(mut compiler: Compiler, session: ValidationSession) -> MetamorphicChecker {
        compiler.set_snapshots(p4c::Snapshots::None);
        MetamorphicChecker {
            compiler,
            session,
            engine: MutationEngine::standard(),
        }
    }

    pub fn engine(&self) -> &MutationEngine {
        &self.engine
    }

    /// Usage counters of the shared validation session.
    pub fn session_stats(&self) -> p4_symbolic::SessionStats {
        self.session.stats()
    }

    /// Checks `options.mutants_per_seed` mutants of `program` against it.
    /// A seed program the compiler does not accept yields an empty outcome
    /// — the open-compiler pipeline owns that finding.
    pub fn check(
        &mut self,
        program: &Program,
        options: &MetamorphicOptions,
        seed: u64,
    ) -> MetamorphicOutcome {
        let Some(seed_final) = self.compile_seed(program) else {
            return MetamorphicOutcome::default();
        };
        self.check_against(&seed_final, program, options, seed)
    }

    /// [`MetamorphicChecker::check`] with the seed's compiled form supplied
    /// by the caller — campaign workers already compiled the seed for the
    /// open-compiler check, so handing it over avoids a second full
    /// pipeline run per hunted program.
    pub fn check_against(
        &mut self,
        seed_final: &Program,
        program: &Program,
        options: &MetamorphicOptions,
        seed: u64,
    ) -> MetamorphicOutcome {
        let _telemetry = gauntlet_telemetry::Span::begin(gauntlet_telemetry::Stage::Mutate);
        let mut outcome = MetamorphicOutcome::default();
        for index in 0..options.mutants_per_seed {
            let mutant =
                self.engine
                    .mutate(program, MutationEngine::mutant_seed(seed, index), MAX_CHAIN);
            if mutant.chain.is_empty() {
                continue;
            }
            outcome.mutants_checked += 1;
            for step in &mutant.chain {
                outcome.coverage.record(&step.mutator, &step.rule);
            }
            match self.compare(seed_final, &mutant.program) {
                ChainOutcome::Equivalent | ChainOutcome::Skipped => {}
                ChainOutcome::Divergence { field, detail } => {
                    outcome.findings.push(MetamorphicFinding {
                        kind: MetamorphicFindingKind::Divergence,
                        pass: None,
                        chain: mutant.chain.clone(),
                        field: Some(field),
                        detail,
                    });
                }
                ChainOutcome::Crash { pass, message } => {
                    outcome.findings.push(MetamorphicFinding {
                        kind: MetamorphicFindingKind::Crash,
                        pass: Some(pass),
                        chain: mutant.chain.clone(),
                        field: None,
                        detail: message,
                    });
                }
                ChainOutcome::Rejected { pass, message } => {
                    outcome.findings.push(MetamorphicFinding {
                        kind: MetamorphicFindingKind::Rejection,
                        pass: Some(pass),
                        chain: mutant.chain.clone(),
                        field: None,
                        detail: message,
                    });
                }
            }
        }
        outcome
    }

    /// The fully compiled form of a seed program, or `None` when the
    /// compiler does not accept it.  Chain-minimisation loops compile the
    /// (invariant) seed once through this and probe with
    /// [`MetamorphicChecker::check_chain_against`].
    pub fn compile_seed(&self, program: &Program) -> Option<Program> {
        self.compiler.compile(program).ok().map(|r| r.program)
    }

    /// Re-checks one recorded chain against `program`, whose compiled form
    /// the caller supplies as `seed_final` — the per-probe cost is then one
    /// mutant compile instead of two full pipelines.
    pub fn check_chain_against(
        &mut self,
        seed_final: &Program,
        program: &Program,
        steps: &[AppliedMutation],
    ) -> ChainOutcome {
        let mutant = self.engine.apply_chain(program, steps);
        self.compare(seed_final, &mutant)
    }

    /// Compiles the mutant and decides `seed_final ≡ mutant_final`.
    fn compare(&mut self, seed_final: &Program, mutant: &Program) -> ChainOutcome {
        let mutant_final = match self.compiler.compile(mutant) {
            Ok(result) => result.program,
            Err(CompileError::Crash { pass, message, .. }) => {
                return ChainOutcome::Crash { pass, message };
            }
            Err(CompileError::Rejected { pass, diagnostics }) => {
                return ChainOutcome::Rejected {
                    pass,
                    message: diagnostics.join("; "),
                };
            }
        };
        match self.session.check_pair(seed_final, &mutant_final) {
            Ok(Equivalence::Equal) => ChainOutcome::Equivalent,
            Ok(Equivalence::NotEqual(counterexample)) => ChainOutcome::Divergence {
                field: counterexample.primary_field().unwrap_or("?").to_string(),
                detail: format!("{counterexample}"),
            },
            Err(EquivalenceError::StructureMismatch { .. } | EquivalenceError::Interpreter(_)) => {
                ChainOutcome::Skipped
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use p4_ir::{builder, Block, Expr, Statement};

    fn seed_program() -> Program {
        builder::v1model_program(
            vec![],
            Block::new(vec![
                Statement::assign(Expr::dotted(&["hdr", "h", "a"]), Expr::uint(1, 8)),
                Statement::assign(Expr::dotted(&["hdr", "h", "b"]), Expr::uint(2, 8)),
            ]),
        )
    }

    #[test]
    fn reference_compiler_is_metamorphically_clean() {
        let mut checker = MetamorphicChecker::new(Compiler::reference());
        let outcome = checker.check(&seed_program(), &MetamorphicOptions::default(), 0xABCD);
        assert!(
            outcome.findings.is_empty(),
            "false alarm: {:#?}",
            outcome.findings
        );
        assert!(outcome.mutants_checked > 0);
        assert!(!outcome.coverage.is_empty());
    }

    #[test]
    fn empty_chain_on_the_same_program_is_equivalent() {
        let mut checker = MetamorphicChecker::new(Compiler::reference());
        let seed_final = checker.compile_seed(&seed_program()).expect("compiles");
        assert!(matches!(
            checker.check_chain_against(&seed_final, &seed_program(), &[]),
            ChainOutcome::Equivalent
        ));
    }

    #[test]
    fn divergence_headline_is_stable() {
        assert_eq!(
            divergence_headline("OpaqueGuard>AlgebraicRewrite", "hdr.h.a"),
            "mutation chain `OpaqueGuard>AlgebraicRewrite` diverges on `hdr.h.a`"
        );
    }
}
