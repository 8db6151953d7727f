//! The unified back-end abstraction: one [`Target`] trait that every
//! simulated back end implements, so the validation/testgen pipeline drives
//! BMv2, Tofino, and the reference interpreter through the *same* call
//! sequence (paper §6: one pipeline, many compilers).
//!
//! A target is a compiler plus a test harness:
//!
//! * [`Target::compile`] turns a P4 program into an opaque [`Artifact`]
//!   (crashes and restriction rejections surface as [`TargetError`]);
//! * [`Target::run`] replays generated test cases on the artifact through
//!   the shared [`crate::harness::run_batch`] path;
//! * [`Target::capabilities`] advertises what the target supports
//!   (crash-only vs semantic testing, the undefined-read policy the
//!   test-generation oracle must adopt, the block tests are generated for).
//!
//! [`drive_target`] is the one shared "compile, generate tests, replay,
//! summarise" driver.  The detection pipeline (`gauntlet-core`) calls it,
//! and its reduction oracles re-run that pipeline, so both see the same
//! finding messages and therefore the same de-duplication keys.

use crate::concrete::UndefinedPolicy;
use crate::harness::{run_batch, TestOutcome, TestReport};
use p4_ir::Program;
use p4_symbolic::{generate_tests, TestCase, TestGenOptions};
use std::fmt;

/// Errors from a target's compiler.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum TargetError {
    /// The target's compiler crashed (assertion violation in a back-end
    /// pass).  Always a bug.
    Crash { pass: String, message: String },
    /// The target's compiler rejected the program with a diagnostic.  For
    /// back ends this is a *restriction*, not a bug: the program is simply
    /// outside the supported subset.
    Rejected { message: String },
}

impl TargetError {
    pub fn is_crash(&self) -> bool {
        matches!(self, TargetError::Crash { .. })
    }
}

impl fmt::Display for TargetError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            TargetError::Crash { pass, message } => {
                write!(f, "target compiler crash in `{pass}`: {message}")
            }
            TargetError::Rejected { message } => write!(f, "target compiler error: {message}"),
        }
    }
}

impl std::error::Error for TargetError {}

/// Every in-tree back end compiles through the shared front/mid end, so
/// they share one conversion of its errors.  The `Rejected` message format
/// feeds de-duplication keys — changing it here changes every target's
/// keys in lock-step instead of letting them drift apart.
impl From<p4c::CompileError> for TargetError {
    fn from(error: p4c::CompileError) -> TargetError {
        match error {
            p4c::CompileError::Crash { pass, message, .. } => TargetError::Crash { pass, message },
            p4c::CompileError::Rejected { pass, diagnostics } => TargetError::Rejected {
                message: format!("{pass}: {}", diagnostics.join("; ")),
            },
        }
    }
}

/// The shared front/mid end every in-tree back end links against: the
/// reference pipeline's fully compiled program.  Back ends read only that
/// program, so the pipeline takes no per-pass snapshots.
pub(crate) fn compile_front_mid_end(program: &Program) -> Result<Program, TargetError> {
    let mut compiler = p4c::Compiler::reference();
    compiler.set_snapshots(p4c::Snapshots::None);
    Ok(compiler.compile(program)?.program)
}

/// What a target supports; consumed by [`drive_target`] and by the
/// differential driver in `gauntlet-core`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TargetCaps {
    /// Whether the target can execute tests at all.  `false` means the
    /// target is crash-only: compiling it is the entire check (useful for
    /// back ends whose simulator is unavailable).
    pub semantic_tests: bool,
    /// The policy the target applies to reads of undefined values.  Test
    /// generation must adopt the same policy when computing expected
    /// outputs, or every undefined read becomes a false alarm (§6.2).
    pub undefined_reads: UndefinedPolicy,
    /// The architecture slot end-to-end tests are generated for.
    pub test_block: &'static str,
}

impl Default for TargetCaps {
    fn default() -> Self {
        TargetCaps {
            semantic_tests: true,
            undefined_reads: UndefinedPolicy::Zero,
            test_block: "ingress",
        }
    }
}

/// A compiled program loaded into a target, able to execute one test case.
/// The representation is target-private; callers interact through packets
/// only (the paper's black-box access model).
pub trait LoadedArtifact {
    fn run_test(&self, test: &TestCase) -> TestOutcome;
}

/// An opaque compiled artifact returned by [`Target::compile`].
pub struct Artifact {
    inner: Box<dyn LoadedArtifact>,
}

impl Artifact {
    pub fn new(inner: impl LoadedArtifact + 'static) -> Artifact {
        Artifact {
            inner: Box::new(inner),
        }
    }

    /// Replays one test case on the loaded artifact.
    pub fn run_test(&self, test: &TestCase) -> TestOutcome {
        self.inner.run_test(test)
    }
}

impl fmt::Debug for Artifact {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Artifact").finish_non_exhaustive()
    }
}

/// One back end the pipeline can drive: a compiler plus a test harness.
///
/// Implementations are registered in the [`crate::registry::TargetRegistry`]
/// so campaigns can select back ends by name; see the "Adding a new target"
/// section of the README for the contract and a worked example.
pub trait Target: fmt::Debug {
    /// Registry key and stable identifier, e.g. `"bmv2"`.
    fn name(&self) -> &'static str;

    /// The platform label used in bug reports and de-duplication keys.
    /// Must match the `Debug` form of `gauntlet-core`'s `Platform` variant
    /// for this target (`"Bmv2"`, `"Tofino"`, `"RefInterp"`, ...).
    fn platform_label(&self) -> &'static str;

    /// Short name of the target's test framework, used in finding messages
    /// (`"STF"` for BMv2, `"PTF"` for Tofino, `"REF"` for the reference
    /// interpreter).
    fn harness(&self) -> &'static str;

    /// What the target supports.  The default is a semantic target with the
    /// zero policy for undefined reads, tested through the `ingress` block.
    fn capabilities(&self) -> TargetCaps {
        TargetCaps::default()
    }

    /// Compiles a program for this target.  The intermediate representation
    /// is not exposed; only a loadable artifact comes back.
    fn compile(&self, program: &Program) -> Result<Artifact, TargetError>;

    /// Replays a batch of generated tests on a compiled artifact and
    /// aggregates the report.  The default goes through the shared
    /// [`run_batch`] path; targets should rarely need to override it.
    fn run(&self, artifact: &Artifact, tests: &[TestCase]) -> TestReport {
        run_batch(tests, |test| artifact.run_test(test))
    }
}

/// A platform-agnostic finding produced by [`drive_target`].  The caller
/// decides how to package it (a `BugReport` in `gauntlet-core`).
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum TargetFinding {
    /// The target's compiler crashed.
    Crash { pass: String, message: String },
    /// Generated tests exposed a behavioural divergence from the input
    /// program's semantics.
    Semantic { message: String },
}

/// The shared single-target check: compile `program` for `target`, generate
/// tests from the input program's symbolic semantics, replay them, and
/// summarise divergences.  Restriction rejections and untestable programs
/// yield no findings, exactly as the paper skips unsupported constructs
/// (§8).
pub fn drive_target(
    target: &dyn Target,
    program: &Program,
    max_tests: usize,
) -> Vec<TargetFinding> {
    let artifact = match target.compile(program) {
        Ok(artifact) => artifact,
        Err(TargetError::Crash { pass, message }) => {
            return vec![TargetFinding::Crash { pass, message }];
        }
        Err(TargetError::Rejected { .. }) => return Vec::new(),
    };
    let caps = target.capabilities();
    if !caps.semantic_tests {
        return Vec::new();
    }
    let tests = match generate_tests(program, &testgen_options(&caps, max_tests)) {
        Ok(tests) => tests,
        Err(_) => return Vec::new(),
    };
    let report = target.run(&artifact, &tests);
    if report.found_semantic_bug() {
        let first = &report.mismatches[0];
        // Failed *tests*, not per-field mismatches (one test can diverge
        // on several output fields).
        let failed = report.total - report.passed - report.skipped;
        vec![TargetFinding::Semantic {
            message: format!(
                "{} mismatch on `{}`: expected {:?}, observed {:?} ({} of {} tests failed)",
                target.harness(),
                first.field,
                first.expected,
                first.actual,
                failed,
                report.total
            ),
        }]
    } else {
        Vec::new()
    }
}

/// The test-generation options matching a target's capabilities.
pub fn testgen_options(caps: &TargetCaps, max_tests: usize) -> TestGenOptions {
    TestGenOptions {
        max_tests,
        block: caps.test_block.into(),
        undefined_reads_zero: caps.undefined_reads == UndefinedPolicy::Zero,
        ..TestGenOptions::default()
    }
}
