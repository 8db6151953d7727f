//! The fixpoint reduction driver.
//!
//! Runs the fixed four-step schedule — declaration ddmin, structural
//! pruning, statement ddmin, expression simplification — round after round
//! until a full round makes no progress, four rounds have run, or
//! the oracle-call budget runs out, gating every candidate through
//! `p4_check` re-typechecking and the bug oracle.  Everything is
//! deterministic: the schedule is fixed, the steps are pure, and the
//! budget is counted in oracle calls rather than wall-clock time, so the
//! minimised program is a pure function of (program, target key,
//! configuration) — which is what lets the campaign engine shard reduction
//! across worker threads and still commit byte-identical reports.

use crate::passes::{statement_count, SCHEDULE};
use p4_ir::Program;
use serde::{Deserialize, Serialize};
use std::time::Duration;

/// A bug oracle: re-runs one detection technique on a candidate program.
///
/// Implemented for every `FnMut(&Program, &str) -> bool` closure.
pub trait Oracle {
    /// Whether `program` still triggers the finding whose de-duplication
    /// key is `target`.
    fn reproduces(&mut self, program: &Program, target: &str) -> bool;
}

impl<F: FnMut(&Program, &str) -> bool> Oracle for F {
    fn reproduces(&mut self, program: &Program, target: &str) -> bool {
        self(program, target)
    }
}

/// Maximum rounds over the schedule; reduction normally reaches a fixpoint
/// in two or three.
const MAX_ROUNDS: usize = 4;

/// The reduction budget.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct ReducerConfig {
    /// Hard budget of oracle invocations (the expensive part of a shrink
    /// step; typechecking rejected candidates is not counted).  When the
    /// budget runs out the reducer freezes the current best program.
    pub max_oracle_calls: usize,
}

impl Default for ReducerConfig {
    fn default() -> Self {
        ReducerConfig {
            max_oracle_calls: 512,
        }
    }
}

/// Counters describing one reduction run.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct ReductionStats {
    /// Executable statements before / after reduction.
    pub initial_statements: usize,
    pub final_statements: usize,
    /// AST nodes before / after reduction.
    pub initial_nodes: usize,
    pub final_nodes: usize,
    /// Oracle invocations spent (including the initial reproduction check).
    pub oracle_calls: usize,
    /// Candidates rejected by `p4_check` before reaching the oracle.
    pub typecheck_rejections: usize,
    /// Accepted shrink steps.
    pub accepted_steps: usize,
    /// Schedule rounds executed.
    pub rounds: usize,
}

impl ReductionStats {
    /// Final size as a fraction of the initial size, by statement count
    /// (1.0 = no reduction).
    pub fn statement_ratio(&self) -> f64 {
        if self.initial_statements == 0 {
            1.0
        } else {
            self.final_statements as f64 / self.initial_statements as f64
        }
    }
}

/// The outcome of a successful reduction.
#[derive(Debug, Clone)]
pub struct Reduction {
    /// The minimised program; it typechecks and reproduces the target key
    /// through the oracle it was reduced under.
    pub program: Program,
    pub stats: ReductionStats,
    /// Wall-clock time of the run (informational; never part of rendered
    /// reports, which must be byte-identical across schedules).
    pub wall_clock: Duration,
}

/// The delta-debugging driver.
pub struct Reducer {
    config: ReducerConfig,
}

impl Reducer {
    /// A reducer running the fixed schedule within `config`'s budget.
    pub fn new(config: ReducerConfig) -> Reducer {
        Reducer { config }
    }

    /// Reduces `program` to a smaller program that still reproduces
    /// `target` (the finding's de-duplication key) through `oracle`.
    ///
    /// Returns `None` when the original program does not reproduce the
    /// target — reduction of a non-reproducing input is meaningless (and a
    /// sign the caller paired the wrong oracle with the finding).
    pub fn reduce(
        &self,
        oracle: &mut dyn Oracle,
        program: &Program,
        target: &str,
    ) -> Option<Reduction> {
        let _telemetry = gauntlet_telemetry::Span::begin(gauntlet_telemetry::Stage::Reduce);
        let started = std::time::Instant::now();
        let mut stats = ReductionStats {
            initial_statements: statement_count(program),
            initial_nodes: program.size(),
            ..ReductionStats::default()
        };

        stats.oracle_calls += 1;
        if !oracle.reproduces(program, target) {
            return None;
        }

        let mut current = program.clone();
        for _ in 0..MAX_ROUNDS {
            if stats.oracle_calls >= self.config.max_oracle_calls {
                break;
            }
            stats.rounds += 1;
            let mut round_progressed = false;
            for step in SCHEDULE {
                let mut check = |candidate: &Program| -> bool {
                    if stats.oracle_calls >= self.config.max_oracle_calls {
                        return false;
                    }
                    if !p4_check::program_well_typed(candidate) {
                        stats.typecheck_rejections += 1;
                        return false;
                    }
                    stats.oracle_calls += 1;
                    let reproduces = oracle.reproduces(candidate, target);
                    if reproduces {
                        stats.accepted_steps += 1;
                    }
                    reproduces
                };
                round_progressed |= step(&mut current, &mut check);
                if stats.oracle_calls >= self.config.max_oracle_calls {
                    break;
                }
            }
            if !round_progressed {
                break;
            }
        }

        stats.final_statements = statement_count(&current);
        stats.final_nodes = current.size();
        Some(Reduction {
            program: current,
            stats,
            wall_clock: started.elapsed(),
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use p4_ir::{builder, print_program, Block, Expr, Statement};
    use p4_symbolic::{PairVerdict, ValidationSession};
    use p4c::{Compiler, FrontEndBugClass};

    fn buggy_compiler(class: FrontEndBugClass) -> Compiler {
        let mut compiler = Compiler::reference();
        compiler.replace_pass(class.faulty_pass());
        compiler
    }

    /// A test-local translation-validation oracle: a finding names the pass
    /// whose snapshot pair differs and the block it differs in.
    fn validation_oracle(compiler: Compiler) -> impl FnMut(&Program, &str) -> bool {
        let mut session = ValidationSession::new();
        move |program: &Program, target: &str| {
            differences(&compiler, &mut session, program)
                .iter()
                .any(|finding| finding == target)
        }
    }

    fn differences(
        compiler: &Compiler,
        session: &mut ValidationSession,
        program: &Program,
    ) -> Vec<String> {
        let Ok(result) = compiler.compile(program) else {
            return Vec::new();
        };
        result
            .pass_pairs()
            .filter_map(|(before, after)| {
                match session.check_pair_verdict(&before.program, &after.program) {
                    Ok(PairVerdict::Differs { block }) => {
                        Some(format!("{} differs in `{block}`", after.pass_name))
                    }
                    _ => None,
                }
            })
            .collect()
    }

    fn first_difference(class: FrontEndBugClass, program: &Program) -> String {
        let compiler = buggy_compiler(class);
        differences(&compiler, &mut ValidationSession::new(), program)
            .into_iter()
            .next()
            .expect("trigger reproduces")
    }

    /// A trigger statement buried in noise reduces down to (almost) just
    /// the trigger.
    #[test]
    fn reduces_a_padded_defuse_trigger() {
        let mut statements = Vec::new();
        for i in 0..10 {
            statements.push(Statement::assign(
                Expr::dotted(&["meta", "flag"]),
                Expr::uint(i % 16, 8),
            ));
        }
        statements.push(Statement::assign(
            Expr::dotted(&["hdr", "h", "a"]),
            Expr::uint(1, 8),
        ));
        let program = builder::v1model_program(vec![], Block::new(statements));

        let class = FrontEndBugClass::DefUseDropsParameterWrites;
        let target = first_difference(class, &program);
        let mut oracle = validation_oracle(buggy_compiler(class));

        let reducer = Reducer::new(ReducerConfig::default());
        let reduction = reducer
            .reduce(&mut oracle, &program, &target)
            .expect("reproduces");
        assert!(
            reduction.stats.final_statements < reduction.stats.initial_statements,
            "no shrinking happened: {:?}",
            reduction.stats
        );
        // The reduced program still typechecks and reproduces.
        assert!(p4_check::check_program(&reduction.program).is_empty());
        assert!(oracle.reproduces(&reduction.program, &target));
    }

    /// Reduction is deterministic: two runs give byte-identical programs.
    #[test]
    fn reduction_is_deterministic() {
        let program = builder::v1model_program(
            vec![],
            Block::new(vec![
                Statement::assign(Expr::dotted(&["meta", "flag"]), Expr::uint(7, 8)),
                Statement::assign(Expr::dotted(&["hdr", "h", "a"]), Expr::uint(1, 8)),
                Statement::assign(Expr::dotted(&["hdr", "h", "b"]), Expr::uint(2, 8)),
            ]),
        );
        let run = || {
            let class = FrontEndBugClass::DefUseDropsParameterWrites;
            let target = first_difference(class, &program);
            let mut oracle = validation_oracle(buggy_compiler(class));
            let reducer = Reducer::new(ReducerConfig::default());
            let reduction = reducer
                .reduce(&mut oracle, &program, &target)
                .expect("reproduces");
            print_program(&reduction.program)
        };
        assert_eq!(run(), run());
    }

    /// A non-reproducing program is refused instead of "reduced" onto a
    /// different bug.
    #[test]
    fn refuses_non_reproducing_input() {
        let program = builder::trivial_program();
        let mut oracle = validation_oracle(Compiler::reference());
        let reducer = Reducer::new(ReducerConfig::default());
        assert!(reducer
            .reduce(&mut oracle, &program, "SimplifyDefUse differs in `ingress`")
            .is_none());
    }

    /// The oracle budget is a hard ceiling.
    #[test]
    fn budget_caps_oracle_calls() {
        let program = builder::v1model_program(
            vec![],
            Block::new(
                (0..20)
                    .map(|i| Statement::assign(Expr::dotted(&["hdr", "h", "a"]), Expr::uint(i, 8)))
                    .collect(),
            ),
        );
        let mut calls = 0usize;
        let mut oracle = |_: &Program, _: &str| {
            calls += 1;
            true
        };
        let reducer = Reducer::new(ReducerConfig {
            max_oracle_calls: 10,
        });
        let reduction = reducer
            .reduce(&mut oracle, &program, "always")
            .expect("reproduces");
        assert!(reduction.stats.oracle_calls <= 10, "{:?}", reduction.stats);
    }
}
