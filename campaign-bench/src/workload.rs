//! The four hunt workloads: their campaign configurations and the screened
//! chunk pools a workload seed draws from.
//!
//! Every workload hunts a few *chunks* — contiguous seed ranges, each one
//! campaign — drawn by the workload seed (`--seed`) from a fixed pool, so
//! the same seed always hunts the same programs.  Chunks holding a seed that
//! reaches no verdict, or whose time or memory was far from the pool's
//! typical figure, were screened out on the seed commit; `NOTES.md` lists
//! them and why.  `--unscreened` draws from every candidate chunk instead,
//! which is how the hang-safety path is exercised on purpose.

use gauntlet_core::{CoverageOptions, HuntConfig, MetamorphicOptions, SeededBug};
use gauntlet_fleet::{CompilerSpec, FleetMode, FleetSpec};
use p4_gen::GeneratorConfig;

/// Worker threads for every in-process campaign, and total threads for the
/// fleet (2 workers × 1 job): the core count of the reference machine.
pub const JOBS: usize = 2;

/// The seeded P4C bug `bug-hunt` hunts.
pub const BUG_HUNT_COMPILER: &str = "DefUseDropsParameterWrites";

/// The differential targets of `bug-hunt`: one seeded back-end defect plus
/// two correct back ends to out-vote it.
pub const BUG_HUNT_TARGETS: [&str; 3] = ["bmv2+Bmv2ExitIgnored", "tofino", "ref-interp"];

/// Seeds known to reach no verdict, per workload: `(workload, seed, why)`.
/// No kept chunk holds one; a run drawing such a chunk (`--unscreened`)
/// names them when their chunk misses the deadline.
pub const STUCK_SEEDS: &[(&str, u64, &str)] = &[
    (
        "tv-reference",
        882,
        "no verdict in minutes on the reference compiler",
    ),
    (
        "tv-reference",
        2561,
        "no verdict in minutes on the reference compiler",
    ),
    (
        "bug-hunt",
        340,
        "no verdict in minutes under DefUseDropsParameterWrites",
    ),
];

/// A seed every configuration checks in a few milliseconds: a set-up run
/// hunts only this seed (and the next, one per fleet worker), so its time
/// is almost all set-up.
pub const SETUP_SEED: u64 = 5;

/// Fleet shape of `fleet-ckpt`.
pub const FLEET_WORKERS: usize = 2;
pub const FLEET_SHARD_SIZE: usize = 20;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    TvReference,
    BugHunt,
    GuidedMutate,
    FleetCkpt,
}

/// The chunk pool of one workload: candidate chunk `k` hunts seeds
/// `[k·chunk, (k+1)·chunk)` as one campaign in one child process.  A
/// workload seed draws `per_run` chunks from the kept ones.
#[derive(Debug, Clone, Copy)]
pub struct Pool {
    /// Seeds per chunk.  A chunk is the unit the benchmark kills at the
    /// deadline, so it is also the granularity of failure counts.
    pub chunk: usize,
    /// Number of candidate chunks.
    pub candidates: usize,
    /// Candidate indices kept by screening (`NOTES.md` says why the others
    /// were dropped).
    pub kept: &'static [usize],
    /// Chunks one repetition hunts.
    pub per_run: usize,
}

impl Pool {
    /// The candidate indices a workload seed may draw from.
    pub fn eligible(&self, screened: bool) -> Vec<usize> {
        if screened {
            self.kept.to_vec()
        } else {
            (0..self.candidates).collect()
        }
    }

    /// `(start, count)` of candidate chunk `index`.
    pub fn chunk(&self, index: usize) -> (u64, usize) {
        ((index * self.chunk) as u64, self.chunk)
    }

    /// The chunks workload seed `seed` hunts: `per_run` distinct eligible
    /// chunks drawn by a seeded shuffle, in seed order.
    pub fn chunks_for(&self, seed: u64, screened: bool) -> Vec<(u64, usize)> {
        let mut eligible = self.eligible(screened);
        let take = self.per_run.min(eligible.len());
        let mut state = seed;
        for i in 0..take {
            state = mix(state);
            let j = i + (state % (eligible.len() - i) as u64) as usize;
            eligible.swap(i, j);
        }
        let mut picked = eligible[..take].to_vec();
        picked.sort_unstable();
        picked.into_iter().map(|index| self.chunk(index)).collect()
    }
}

/// SplitMix64 finaliser: the stream behind the seeded chunk draw.
pub fn mix(seed: u64) -> u64 {
    let mut z = seed.wrapping_add(0x9e37_79b9_7f4a_7c15);
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

impl Workload {
    pub const ALL: [Workload; 4] = [
        Workload::TvReference,
        Workload::BugHunt,
        Workload::GuidedMutate,
        Workload::FleetCkpt,
    ];

    pub fn name(self) -> &'static str {
        match self {
            Workload::TvReference => "tv-reference",
            Workload::BugHunt => "bug-hunt",
            Workload::GuidedMutate => "guided-mutate",
            Workload::FleetCkpt => "fleet-ckpt",
        }
    }

    pub fn from_name(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }

    pub fn pool(self) -> Pool {
        match self {
            Workload::TvReference => Pool {
                chunk: 250,
                candidates: 120,
                kept: &[
                    4, 6, 8, 11, 12, 13, 15, 16, 17, 18, 19, 21, 24, 25, 28, 30, 39, 41, 43, 44,
                    45, 46, 48, 53, 55, 59, 60, 70, 79, 81, 89, 94, 98, 99, 102, 103, 104, 112,
                    113, 114, 116, 117, 118,
                ],
                per_run: 8,
            },
            Workload::BugHunt => Pool {
                chunk: 100,
                candidates: 60,
                kept: &[1, 2, 7, 13, 18, 28, 33, 38, 40],
                per_run: 6,
            },
            // Adaptation couples every seed of a chunk to the epochs before
            // it, so a chunk is a whole guided campaign (8 epochs).
            Workload::GuidedMutate => Pool {
                chunk: 200,
                candidates: 40,
                kept: &[1, 2, 3, 4, 5, 6, 9, 15, 18, 23, 25, 28, 33, 34, 39],
                per_run: 6,
            },
            Workload::FleetCkpt => Pool {
                chunk: 400,
                candidates: 40,
                kept: &[
                    7, 8, 10, 11, 13, 15, 16, 17, 18, 19, 20, 22, 23, 24, 25, 27, 28, 30, 37,
                ],
                per_run: 5,
            },
        }
    }

    pub fn build_compiler(self) -> p4c::Compiler {
        match self {
            Workload::BugHunt => seeded_bug(BUG_HUNT_COMPILER).build_compiler(),
            _ => p4c::Compiler::reference(),
        }
    }

    /// The in-process campaign configuration over `[start, start+count)`.
    /// `corpus` is the fresh corpus file of a coverage-guided hunt.
    pub fn hunt_config(self, start: u64, count: usize, corpus: Option<String>) -> HuntConfig {
        let base = HuntConfig {
            jobs: JOBS,
            seed_start: start,
            seed_count: count,
            generator: GeneratorConfig::tiny(),
            ..HuntConfig::default()
        };
        match self {
            Workload::TvReference => base,
            Workload::BugHunt => HuntConfig {
                reduce_reports: true,
                targets: BUG_HUNT_TARGETS.iter().map(|t| t.to_string()).collect(),
                ..base
            },
            Workload::GuidedMutate => HuntConfig {
                coverage: Some(CoverageOptions {
                    adapt: true,
                    pairs: true,
                    corpus,
                    ..CoverageOptions::default()
                }),
                mutation: Some(MetamorphicOptions {
                    mutants_per_seed: 3,
                    ..MetamorphicOptions::default()
                }),
                ..base
            },
            // The fleet's own configuration, at the fleet's total thread
            // count, so the two runs are comparable.
            Workload::FleetCkpt => {
                let mut config = self
                    .fleet_spec(start, count, None)
                    .hunt_config()
                    .expect("valid fleet spec");
                config.jobs = JOBS;
                if let Some(options) = config.coverage.as_mut() {
                    options.corpus = corpus;
                }
                config
            }
        }
    }

    /// The fleet description of `fleet-ckpt` over `[start, start+count)`.
    pub fn fleet_spec(self, start: u64, count: usize, checkpoint: Option<String>) -> FleetSpec {
        FleetSpec {
            workers: FLEET_WORKERS,
            jobs_per_worker: JOBS / FLEET_WORKERS,
            seed_start: start,
            seed_count: count,
            shard_size: FLEET_SHARD_SIZE.min(count.div_ceil(FLEET_WORKERS)).max(1),
            compiler: CompilerSpec::Reference,
            generator: "tiny".to_string(),
            mode: FleetMode::Deterministic,
            coverage: true,
            checkpoint,
            checkpoint_every: 1,
            ..FleetSpec::default()
        }
    }
}

pub fn seeded_bug(name: &str) -> SeededBug {
    SeededBug::catalogue()
        .into_iter()
        .find(|bug| bug.name() == name)
        .expect("bug is in the catalogue")
}
