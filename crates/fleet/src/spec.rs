//! The fleet campaign description: everything a worker needs to rebuild the
//! exact [`HuntConfig`] for any shard of the seed range.
//!
//! The spec is deliberately a *description* (strings and numbers), not a
//! `HuntConfig`: it crosses a process boundary, lands in checkpoints, and
//! must stay meaningful to a coordinator restarted days later.  Workers
//! resolve it back to concrete objects (compiler factory, generator preset)
//! through [`FleetSpec::validate`]-checked names.
//!
//! Deterministic mode restrictions (enforced by `validate`): coverage runs
//! with `adapt: false` — weight adaptation feeds committed coverage back
//! into generation, which would couple shards and break the equal-to-
//! single-process guarantee — and there is no bug quota (an early stop
//! cannot be replicated across independently-scheduled shards).

use gauntlet_core::{CoverageOptions, HuntConfig, MetamorphicOptions, SeededBug};
use gauntlet_telemetry::json::{self, Json};
use p4_gen::GeneratorConfig;

/// Shard scheduling / merge mode.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FleetMode {
    /// Ordered commit across shards: the merged report and corpus are
    /// byte-identical to a single-process `ParallelCampaign` over the same
    /// range, at any worker count.
    Deterministic,
    /// First-come merge: outcomes appear in fragment-arrival order and a
    /// live status line streams from worker events.  Explicitly
    /// non-deterministic.
    Throughput,
}

impl FleetMode {
    pub fn as_str(self) -> &'static str {
        match self {
            FleetMode::Deterministic => "deterministic",
            FleetMode::Throughput => "throughput",
        }
    }

    pub fn from_name(name: &str) -> Option<FleetMode> {
        match name {
            "deterministic" => Some(FleetMode::Deterministic),
            "throughput" => Some(FleetMode::Throughput),
            _ => None,
        }
    }
}

/// The compiler under test, by name.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum CompilerSpec {
    /// The correct reference pipeline.
    Reference,
    /// A pipeline seeded with one catalogue bug (`SeededBug::name`).
    Seeded(String),
}

impl CompilerSpec {
    pub fn as_str(&self) -> &str {
        match self {
            CompilerSpec::Reference => "reference",
            CompilerSpec::Seeded(name) => name,
        }
    }

    pub fn from_name(name: &str) -> CompilerSpec {
        if name == "reference" {
            CompilerSpec::Reference
        } else {
            CompilerSpec::Seeded(name.to_string())
        }
    }

    /// Resolve to the seeded bug, if any; `Err` on an unknown name.
    pub fn resolve(&self) -> Result<Option<SeededBug>, String> {
        match self {
            CompilerSpec::Reference => Ok(None),
            CompilerSpec::Seeded(name) => SeededBug::catalogue()
                .into_iter()
                .find(|bug| bug.name() == *name)
                .map(Some)
                .ok_or_else(|| format!("unknown seeded bug `{name}`")),
        }
    }

    /// Build one compiler instance.
    pub fn build(&self) -> p4c::Compiler {
        match self.resolve().expect("spec validated") {
            Some(bug) => bug.build_compiler(),
            None => p4c::Compiler::reference(),
        }
    }
}

/// The full campaign description.
#[derive(Debug, Clone, PartialEq)]
pub struct FleetSpec {
    /// Worker processes.
    pub workers: usize,
    /// Threads per worker process (`HuntConfig::jobs`).
    pub jobs_per_worker: usize,
    /// First seed of the range.
    pub seed_start: u64,
    /// Total seeds across all shards.
    pub seed_count: usize,
    /// Seeds per shard (the lease granularity).
    pub shard_size: usize,
    /// Compiler under test.
    pub compiler: CompilerSpec,
    /// Generator preset: `"tiny"`, `"default"`, or `"tofino"`.
    pub generator: String,
    pub mode: FleetMode,
    /// Account pass-rule coverage (always `adapt: false` — see module docs).
    pub coverage: bool,
    /// Coordinator-side output path for the merged corpus (requires
    /// `coverage`).
    pub corpus: Option<String>,
    /// Swarm diversity: give each worker slice a deterministic generator
    /// perturbation and a disjoint partition of the uncovered pair frontier
    /// (requires `coverage`).  A slice is `shard % workers` — a pure
    /// function of the spec, so lease reassignment and crash-resume keep
    /// every shard's generator identical.  Diversity trades the
    /// equal-at-any-worker-count guarantee for exploration breadth: results
    /// are still deterministic *for a fixed spec*, but differ across
    /// `workers` settings (uniform fleets remain count-independent).
    pub diversity: bool,
    /// Mutants per seed; 0 disables the metamorphic dimension.
    pub mutants_per_seed: usize,
    /// Delta-debug committed findings.
    pub reduce_reports: bool,
    /// Differential target specs (`HuntConfig::targets`).
    pub targets: Vec<String>,
    /// Checkpoint file path; `None` disables checkpointing (and resume).
    pub checkpoint: Option<String>,
    /// Completed shards between checkpoint writes.
    pub checkpoint_every: usize,
}

impl Default for FleetSpec {
    fn default() -> Self {
        FleetSpec {
            workers: 2,
            jobs_per_worker: 1,
            seed_start: 0,
            seed_count: 100,
            shard_size: 25,
            compiler: CompilerSpec::Reference,
            generator: "tiny".to_string(),
            mode: FleetMode::Deterministic,
            coverage: false,
            corpus: None,
            diversity: false,
            mutants_per_seed: 0,
            reduce_reports: false,
            targets: Vec::new(),
            checkpoint: None,
            checkpoint_every: 1,
        }
    }
}

impl FleetSpec {
    /// Number of shards the seed range splits into.
    pub fn shard_count(&self) -> usize {
        self.seed_count.div_ceil(self.shard_size.max(1))
    }

    /// `(offset, count)` of one shard.
    pub fn shard_range(&self, shard: usize) -> (u64, usize) {
        let offset = shard * self.shard_size;
        let count = self.shard_size.min(self.seed_count - offset);
        (offset as u64, count)
    }

    /// Resolve the generator preset.
    pub fn generator_config(&self) -> Result<GeneratorConfig, String> {
        match self.generator.as_str() {
            "tiny" => Ok(GeneratorConfig::tiny()),
            "default" => Ok(GeneratorConfig::default()),
            "tofino" => Ok(GeneratorConfig::tofino()),
            other => Err(format!("unknown generator preset `{other}`")),
        }
    }

    /// Check every name resolves and the shape is runnable.
    pub fn validate(&self) -> Result<(), String> {
        if self.workers == 0 {
            return Err("workers must be at least 1".into());
        }
        if self.seed_count == 0 {
            return Err("seed_count must be at least 1".into());
        }
        if self.shard_size == 0 {
            return Err("shard_size must be at least 1".into());
        }
        if self.corpus.is_some() && !self.coverage {
            return Err("a corpus path requires coverage".into());
        }
        if self.diversity && !self.coverage {
            return Err("diversity requires coverage".into());
        }
        self.compiler.resolve()?;
        self.hunt_config()?.validate()
    }

    /// The `HuntConfig` for the *whole* seed range; shards are cut from it
    /// with [`HuntConfig::shard`].  Corpus and telemetry stay unset here:
    /// a shard hands its corpus back on its report, and the worker attaches
    /// its own event sink per shard.
    pub fn hunt_config(&self) -> Result<HuntConfig, String> {
        Ok(HuntConfig {
            jobs: self.jobs_per_worker.max(1),
            seed_start: self.seed_start,
            seed_count: self.seed_count,
            generator: self.generator_config()?,
            bug_quota: None,
            reduce_reports: self.reduce_reports,
            targets: self.targets.clone(),
            coverage: self.coverage.then(|| CoverageOptions {
                adapt: false,
                corpus: None,
                ..CoverageOptions::default()
            }),
            mutation: (self.mutants_per_seed > 0).then_some(MetamorphicOptions {
                mutants_per_seed: self.mutants_per_seed,
            }),
            ..HuntConfig::default()
        })
    }

    pub fn to_json(&self) -> Json {
        json::object([
            ("workers", self.workers.into()),
            ("jobs_per_worker", self.jobs_per_worker.into()),
            ("seed_start", self.seed_start.into()),
            ("seed_count", self.seed_count.into()),
            ("shard_size", self.shard_size.into()),
            ("compiler", self.compiler.as_str().into()),
            ("generator", self.generator.as_str().into()),
            ("mode", self.mode.as_str().into()),
            ("coverage", self.coverage.into()),
            ("corpus", self.corpus.as_deref().into()),
            ("diversity", self.diversity.into()),
            ("mutants_per_seed", self.mutants_per_seed.into()),
            ("reduce_reports", self.reduce_reports.into()),
            ("targets", json::strings(&self.targets)),
            ("checkpoint", self.checkpoint.as_deref().into()),
            ("checkpoint_every", self.checkpoint_every.into()),
        ])
    }

    pub fn from_json(value: &Json) -> Result<FleetSpec, String> {
        let read = || -> Result<FleetSpec, String> {
            let mode = value.str_field("mode")?;
            Ok(FleetSpec {
                workers: value.usize_field("workers")?,
                jobs_per_worker: value.usize_field("jobs_per_worker")?,
                seed_start: value.u64_field("seed_start")?,
                seed_count: value.usize_field("seed_count")?,
                shard_size: value.usize_field("shard_size")?,
                compiler: CompilerSpec::from_name(value.str_field("compiler")?),
                generator: value.str_field("generator")?.to_string(),
                mode: FleetMode::from_name(mode).ok_or_else(|| format!("unknown mode `{mode}`"))?,
                coverage: value.bool_field("coverage")?,
                corpus: value.opt_str_field("corpus")?.map(str::to_string),
                // Absent from pre-diversity specs and checkpoints: default off.
                diversity: value.field_or_default("diversity", Json::bool_field)?,
                mutants_per_seed: value.usize_field("mutants_per_seed")?,
                reduce_reports: value.bool_field("reduce_reports")?,
                targets: value.str_array_field("targets")?,
                checkpoint: value.opt_str_field("checkpoint")?.map(str::to_string),
                checkpoint_every: value.usize_field("checkpoint_every")?,
            })
        };
        read().map_err(|error| format!("spec: {error}"))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn spec_round_trips_through_json() {
        let spec = FleetSpec {
            workers: 3,
            seed_start: 40,
            seed_count: 90,
            shard_size: 15,
            compiler: CompilerSpec::Seeded("DropPredicateBlocks".into()),
            mode: FleetMode::Throughput,
            coverage: true,
            corpus: Some("corpus.txt".into()),
            diversity: true,
            mutants_per_seed: 2,
            targets: vec!["bmv2".into(), "ref-interp".into()],
            checkpoint: Some("fleet.ckpt".into()),
            ..FleetSpec::default()
        };
        let parsed = json::parse(&json::render(&spec.to_json())).expect("spec JSON parses");
        assert_eq!(FleetSpec::from_json(&parsed).expect("reconstructs"), spec);
    }

    #[test]
    fn shards_tile_the_seed_range_exactly() {
        let spec = FleetSpec {
            seed_count: 95,
            shard_size: 25,
            ..FleetSpec::default()
        };
        assert_eq!(spec.shard_count(), 4);
        let mut next = 0u64;
        let mut total = 0usize;
        for shard in 0..spec.shard_count() {
            let (offset, count) = spec.shard_range(shard);
            assert_eq!(offset, next);
            assert!(count > 0);
            next = offset + count as u64;
            total += count;
        }
        assert_eq!(total, 95);
    }

    /// Specs serialized before the diversity flag (old checkpoints) load
    /// with diversity off instead of failing.
    #[test]
    fn legacy_specs_without_the_diversity_key_still_load() {
        let spec = FleetSpec::default();
        let mut text = json::render(&spec.to_json());
        let needle = "\"diversity\":false,";
        let at = text.find(needle).expect("serialized diversity key");
        text.replace_range(at..at + needle.len(), "");
        let parsed = json::parse(&text).expect("stripped spec parses");
        assert_eq!(FleetSpec::from_json(&parsed).expect("reconstructs"), spec);
    }

    #[test]
    fn validation_rejects_unresolvable_names() {
        let mut spec = FleetSpec::default();
        assert!(spec.validate().is_ok());
        spec.compiler = CompilerSpec::Seeded("NoSuchBug".into());
        assert!(spec.validate().is_err());
        spec.compiler = CompilerSpec::Reference;
        spec.generator = "enormous".into();
        assert!(spec.validate().is_err());
        spec.generator = "tiny".into();
        spec.corpus = Some("c.txt".into());
        assert!(spec.validate().is_err(), "corpus without coverage");
        spec.coverage = true;
        assert!(spec.validate().is_ok());
        spec.coverage = false;
        spec.corpus = None;
        spec.diversity = true;
        assert!(spec.validate().is_err(), "diversity without coverage");
        spec.coverage = true;
        assert!(spec.validate().is_ok());
        spec.targets = vec!["bogus".into()];
        assert!(spec.validate().is_err(), "unknown target spec");
    }

    #[test]
    fn seeded_compilers_resolve_through_the_catalogue() {
        let bug = SeededBug::catalogue()[0];
        let spec = CompilerSpec::from_name(&bug.name());
        assert_eq!(spec.resolve().expect("known bug"), Some(bug));
        assert_eq!(CompilerSpec::Reference.resolve().unwrap(), None);
    }
}
