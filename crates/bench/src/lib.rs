//! Shared helpers for the benchmark/experiment harness.
//!
//! Each bench target under `benches/` regenerates one table or figure from
//! the paper's evaluation (see DESIGN.md §5 for the experiment index).  The
//! campaign-style experiments print the table rows directly; the
//! micro-benchmarks use Criterion for statistically meaningful timings.

pub mod trajectory;

use p4_gen::{GeneratorConfig, RandomProgramGenerator};
use p4_ir::Program;

/// Deterministic set of random programs used by several experiments.
pub fn sample_programs(count: usize, config: GeneratorConfig, base_seed: u64) -> Vec<Program> {
    (0..count)
        .map(|index| {
            RandomProgramGenerator::new(config.clone(), base_seed + index as u64).generate()
        })
        .collect()
}

/// A small helper to format a ratio as a percentage.
pub fn percent(numerator: usize, denominator: usize) -> f64 {
    if denominator == 0 {
        0.0
    } else {
        100.0 * numerator as f64 / denominator as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sample_programs_are_deterministic() {
        let a = sample_programs(3, GeneratorConfig::tiny(), 7);
        let b = sample_programs(3, GeneratorConfig::tiny(), 7);
        assert_eq!(a.len(), 3);
        for (x, y) in a.iter().zip(&b) {
            assert_eq!(p4_ir::print_program(x), p4_ir::print_program(y));
        }
    }

    #[test]
    fn percent_handles_zero_denominator() {
        assert_eq!(percent(1, 0), 0.0);
        assert_eq!(percent(1, 2), 50.0);
    }
}
