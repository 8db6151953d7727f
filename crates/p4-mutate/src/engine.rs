//! The deterministic, seedable mutation engine.
//!
//! [`MutationEngine::mutate`] turns one seed program into a [`Mutant`]: the
//! mutated program plus the chain of applied mutations.  Everything derives
//! from the engine seed alone — mutator choice, site choice, and rule choice
//! all come from per-step SplitMix streams — so the same `(program, seed)`
//! pair yields a byte-identical mutant on every run and on every worker
//! thread, which is what lets the campaign engine fold mutation hunting
//! into its ordered-commit determinism contract.
//!
//! Each recorded [`AppliedMutation`] carries the per-step seed, so a chain
//! can be *replayed* ([`MutationEngine::apply_chain`]) — on the original
//! program (reproducing the mutant exactly) or on a shrunk candidate during
//! test-case reduction, where steps that no longer find a site are skipped
//! but keep their label, keeping the chain's dedup key stable.

use crate::mutators::{standard_mutators, Mutator};
use p4_ir::Program;
use rand::rngs::StdRng;
use rand::{Rng, RngCore, SeedableRng};
use serde::{Deserialize, Serialize};

/// One applied mutation: which mutator, which of its rules fired, and the
/// per-step RNG seed that makes the step replayable.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct AppliedMutation {
    pub mutator: String,
    pub rule: String,
    pub step_seed: u64,
}

/// A mutated program together with the chain that produced it.
#[derive(Debug, Clone)]
pub struct Mutant {
    pub program: Program,
    pub chain: Vec<AppliedMutation>,
}

impl Mutant {
    /// The chain's identity for de-duplication: mutator names in application
    /// order.  Rules are deliberately excluded — a replay on a reduced
    /// program may pick a different rule at a shifted site, and the dedup
    /// key must survive that.
    pub fn chain_key(&self) -> String {
        chain_key(&self.chain)
    }
}

/// Formats a chain's dedup identity (see [`Mutant::chain_key`]).
pub fn chain_key(steps: &[AppliedMutation]) -> String {
    steps
        .iter()
        .map(|step| step.mutator.as_str())
        .collect::<Vec<_>>()
        .join(">")
}

/// Derives the stream seed used by a hunt for the mutants of one campaign
/// seed (exposed so reduction oracles can re-derive the exact mutant family
/// a worker checked).
pub fn hunt_mutation_seed(seed: u64) -> u64 {
    seed.wrapping_mul(0x9E3779B97F4A7C15) ^ 0x4D55_5441_5445
}

/// The mutation engine: a mutator catalogue plus deterministic application.
pub struct MutationEngine {
    mutators: Vec<Box<dyn Mutator>>,
}

impl Default for MutationEngine {
    fn default() -> Self {
        MutationEngine::standard()
    }
}

impl MutationEngine {
    /// An engine over the full registered catalogue.
    pub fn standard() -> MutationEngine {
        MutationEngine {
            mutators: standard_mutators(),
        }
    }

    pub fn mutators(&self) -> &[Box<dyn Mutator>] {
        &self.mutators
    }

    /// Derives mutant `index`'s engine seed from a campaign seed: each of a
    /// seed's mutants gets its own independent stream.
    pub fn mutant_seed(seed: u64, index: usize) -> u64 {
        seed ^ (index as u64 + 1).wrapping_mul(0x9E3779B97F4A7C15)
    }

    /// Produces one mutant by applying up to `max_chain` mutations.  Steps
    /// whose chosen mutator finds no site are skipped (the chain records
    /// only mutations that actually applied); a program with no candidate
    /// sites at all yields an empty chain and an unchanged program.
    pub fn mutate(&self, seed_program: &Program, engine_seed: u64, max_chain: usize) -> Mutant {
        let mut rng = StdRng::seed_from_u64(engine_seed);
        let mut program = seed_program.clone();
        let mut chain = Vec::new();
        for _ in 0..max_chain {
            let step_seed = rng.next_u64();
            if let Some(applied) = self.apply_step(&mut program, step_seed) {
                chain.push(applied);
            }
        }
        Mutant { program, chain }
    }

    /// One mutation step: rotate through the catalogue from an RNG-chosen
    /// start until a mutator fires.
    fn apply_step(&self, program: &mut Program, step_seed: u64) -> Option<AppliedMutation> {
        let mut rng = StdRng::seed_from_u64(step_seed);
        let start = rng.gen_range(0..self.mutators.len());
        for offset in 0..self.mutators.len() {
            let index = (start + offset) % self.mutators.len();
            if let Some(applied) = self.apply_indexed(program, index, step_seed) {
                return Some(applied);
            }
        }
        None
    }

    /// Applies mutator `index` with its per-step RNG stream.  The result is
    /// gated through the fast typecheck — a mutator violating its
    /// well-typedness contract on an exotic input (hand-written trigger,
    /// corpus entry) discards its rewrite instead of poisoning the mutant.
    fn apply_indexed(
        &self,
        program: &mut Program,
        index: usize,
        step_seed: u64,
    ) -> Option<AppliedMutation> {
        let mutator = &self.mutators[index];
        let mut candidate = program.clone();
        let mut rng = StdRng::seed_from_u64(step_rng_seed(step_seed, index));
        let rule = mutator.apply(&mut candidate, &mut rng)?;
        if !p4_check::program_well_typed(&candidate) {
            return None;
        }
        *program = candidate;
        Some(AppliedMutation {
            mutator: mutator.name().to_string(),
            rule: rule.to_string(),
            step_seed,
        })
    }

    /// Replays a recorded chain on (a possibly different version of) the
    /// seed program.  Each step re-applies its *recorded* mutator with its
    /// recorded per-step seed — no catalogue rotation — so replaying on the
    /// unchanged program reproduces the mutant exactly, and replaying on a
    /// reduced program degrades gracefully: steps whose mutator no longer
    /// finds a site are skipped.
    pub fn apply_chain(&self, seed_program: &Program, steps: &[AppliedMutation]) -> Program {
        let mut program = seed_program.clone();
        for step in steps {
            let Some(index) = self.mutators.iter().position(|m| m.name() == step.mutator) else {
                continue;
            };
            let _ = self.apply_indexed(&mut program, index, step.step_seed);
        }
        program
    }
}

/// The RNG stream of one (step, mutator) pair — shared by first application
/// and replay, which is what makes chains replayable.
fn step_rng_seed(step_seed: u64, mutator_index: usize) -> u64 {
    step_seed ^ (mutator_index as u64 + 1).wrapping_mul(0xBF58476D1CE4E5B9)
}

#[cfg(test)]
mod tests {
    use super::*;
    use p4_ir::{builder, print_program, Block, Expr, Statement};

    fn seed_program() -> Program {
        builder::v1model_program(
            vec![],
            Block::new(vec![
                Statement::assign(Expr::dotted(&["hdr", "h", "a"]), Expr::uint(1, 8)),
                Statement::assign(Expr::dotted(&["meta", "flag"]), Expr::uint(2, 8)),
                Statement::assign(Expr::dotted(&["hdr", "h", "b"]), Expr::uint(3, 8)),
            ]),
        )
    }

    #[test]
    fn mutation_is_deterministic_per_seed() {
        let engine = MutationEngine::standard();
        let program = seed_program();
        let a = engine.mutate(&program, 42, 4);
        let b = engine.mutate(&program, 42, 4);
        assert_eq!(print_program(&a.program), print_program(&b.program));
        assert_eq!(a.chain, b.chain);
        assert!(
            !a.chain.is_empty(),
            "three assignments offer plenty of sites"
        );
        let c = engine.mutate(&program, 43, 4);
        assert_ne!(
            print_program(&a.program),
            print_program(&c.program),
            "different seeds should diverge on this program"
        );
    }

    #[test]
    fn chain_replay_reproduces_the_mutant() {
        let engine = MutationEngine::standard();
        let program = seed_program();
        let mutant = engine.mutate(&program, 7, 6);
        let replayed = engine.apply_chain(&program, &mutant.chain);
        assert_eq!(print_program(&mutant.program), print_program(&replayed));
    }

    #[test]
    fn chain_key_joins_mutator_names() {
        let steps = vec![
            AppliedMutation {
                mutator: "OpaqueGuard".into(),
                rule: "opaque_false_branch".into(),
                step_seed: 1,
            },
            AppliedMutation {
                mutator: "AlgebraicRewrite".into(),
                rule: "xor_zero".into(),
                step_seed: 2,
            },
        ];
        assert_eq!(chain_key(&steps), "OpaqueGuard>AlgebraicRewrite");
        assert_eq!(chain_key(&[]), "");
    }

    #[test]
    fn mutants_stay_well_typed() {
        let engine = MutationEngine::standard();
        let program = seed_program();
        for seed in 0..16u64 {
            let mutant = engine.mutate(&program, seed, 8);
            assert!(
                p4_check::check_program(&mutant.program).is_empty(),
                "seed {seed}: {}",
                print_program(&mutant.program)
            );
        }
    }
}
