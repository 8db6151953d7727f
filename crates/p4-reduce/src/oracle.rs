//! Pluggable bug oracles.
//!
//! A reduction step is only sound if the shrunk program still triggers *the
//! same* bug — not merely *a* bug (a reducer that drifts onto a second,
//! shallower defect produces a useless report).  Gauntlet's campaign layer
//! identifies findings by a de-duplication key (`kind|platform|pass|first
//! message line`, mirroring how the authors used P4C's distinct assertion
//! messages, paper §7.3); an [`Oracle`] re-runs one detection technique on a
//! candidate program and reports the keys of every finding it triggers.
//! The [`crate::Reducer`] accepts a candidate only when the original key is
//! among them.

use p4_ir::Program;
use p4_symbolic::{difference_headline, EquivalenceError, PairVerdict, ValidationSession};
use p4c::{CompileError, Compiler, PassSnapshot, Snapshots};
use targets::{drive_target, Target, TargetFinding};

/// `Platform` label of the open P4C pipeline, as it appears in dedup keys.
pub const PLATFORM_P4C: &str = "P4c";
/// `Platform` label of the BMv2 back end, as it appears in dedup keys.
pub const PLATFORM_BMV2: &str = "Bmv2";
/// `Platform` label of the Tofino back end, as it appears in dedup keys.
pub const PLATFORM_TOFINO: &str = "Tofino";
/// `Platform` label of the reference-interpreter back end.
pub const PLATFORM_REFINTERP: &str = "RefInterp";

/// Builds a finding signature in the campaign layer's dedup-key format:
/// `kind|platform|pass|first-message-line`.
///
/// The format must stay in lock-step with `BugReport::dedup_key` in
/// `gauntlet-core` (which cannot be referenced from here without a
/// dependency cycle); the campaign crate carries a test pinning the two
/// together for every seeded bug class.
pub fn bug_signature(kind: &str, platform: &str, pass: Option<&str>, message: &str) -> String {
    format!(
        "{kind}|{platform}|{}|{}",
        pass.unwrap_or("-"),
        message.lines().next().unwrap_or("")
    )
}

/// A bug oracle: re-runs one detection technique on a candidate program.
pub trait Oracle {
    /// Short name used in stats and debug output.
    fn name(&self) -> &str;

    /// Dedup-key signatures of every finding the candidate triggers, in
    /// detection order.  An empty vector means the candidate is clean.
    fn signatures(&mut self, program: &Program) -> Vec<String>;

    /// Whether the candidate still reproduces the target finding.
    fn reproduces(&mut self, program: &Program, target: &str) -> bool {
        self.signatures(program).iter().any(|s| s == target)
    }
}

/// Crash/rejection oracle: the compiler under test still aborts (or still
/// incorrectly rejects the valid program) with the same message in the same
/// pass.  The cheapest oracle — it stops at the compiler driver and never
/// touches the solver.
pub struct CrashOracle {
    compiler: Compiler,
}

impl CrashOracle {
    /// Turns the compiler's per-pass snapshots off: this oracle reads only
    /// the compile error, never a snapshot.
    pub fn new(mut compiler: Compiler) -> CrashOracle {
        compiler.options_mut().snapshots = Snapshots::None;
        CrashOracle { compiler }
    }
}

impl Oracle for CrashOracle {
    fn name(&self) -> &str {
        "crash"
    }

    fn signatures(&mut self, program: &Program) -> Vec<String> {
        match self.compiler.compile(program) {
            Err(CompileError::Crash { pass, message, .. }) => {
                vec![bug_signature("Crash", PLATFORM_P4C, Some(&pass), &message)]
            }
            Err(CompileError::Rejected { pass, diagnostics }) => {
                vec![bug_signature(
                    "Rejection",
                    PLATFORM_P4C,
                    Some(&pass),
                    &diagnostics.join("; "),
                )]
            }
            Ok(_) => Vec::new(),
        }
    }
}

/// Translation-validation oracle: the compiled pass chain still contains an
/// inequivalent (or unparseable, or structurally broken) snapshot pair
/// attributed to the same pass.
///
/// One incremental [`ValidationSession`] is shared across *every* shrink
/// step: candidate programs differ from each other by a handful of removed
/// statements, so their per-pass snapshots hash-cons onto largely identical
/// terms and the session's semantics cache and term-to-CNF memo make
/// re-validation much cheaper than the first run.
///
/// A signature keeps only the first line of a counterexample, which names
/// the differing block alone, so pairs are decided verdict-only
/// ([`ValidationSession::check_pair_verdict`]).  A shrink step whose target
/// names a validated pass (`Semantic|P4c|<pass>|…` or
/// `InvalidTransformation|P4c|<pass>|…`) still compiles the whole pipeline,
/// so a later crash or rejection still rejects the candidate, but snapshots,
/// parses and checks only that pass's pairs ([`Snapshots::Pass`]).
pub struct SemanticOracle {
    compiler: Compiler,
    session: ValidationSession,
}

impl SemanticOracle {
    pub fn new(compiler: Compiler) -> SemanticOracle {
        SemanticOracle {
            compiler,
            session: ValidationSession::new(),
        }
    }

    /// Usage counters of the shared validation session.
    pub fn session_stats(&self) -> p4_symbolic::SessionStats {
        self.session.stats()
    }

    /// The finding one snapshot pair yields, if any.
    fn pair_signature(&mut self, before: &PassSnapshot, after: &PassSnapshot) -> Option<String> {
        let invalid = |message: &str| {
            bug_signature(
                "InvalidTransformation",
                PLATFORM_P4C,
                Some(&after.pass_name),
                message,
            )
        };
        if let Err(error) = p4_parser::parse_program(&after.printed) {
            return Some(invalid(&format!(
                "emitted program no longer parses: {error}"
            )));
        }
        match self
            .session
            .check_pair_verdict(&before.program, &after.program)
        {
            Ok(PairVerdict::Equal) => None,
            Ok(PairVerdict::Differs { block }) => Some(bug_signature(
                "Semantic",
                PLATFORM_P4C,
                Some(&after.pass_name),
                &difference_headline(&block),
            )),
            Err(EquivalenceError::StructureMismatch { block, detail }) => Some(invalid(&format!(
                "structure mismatch in `{block}`: {detail}"
            ))),
            // Unsupported construct: skip the pair, as the pipeline does
            // (paper §8).
            Err(EquivalenceError::Interpreter(_)) => None,
        }
    }
}

/// The pass a translation-validation target names:
/// `Semantic|P4c|<pass>|…` or `InvalidTransformation|P4c|<pass>|…`.
fn validated_pass(target: &str) -> Option<&str> {
    let mut fields = target.split('|');
    let kind = fields.next()?;
    let platform = fields.next()?;
    let pass = fields.next()?;
    (matches!(kind, "Semantic" | "InvalidTransformation") && platform == PLATFORM_P4C)
        .then_some(pass)
}

impl Oracle for SemanticOracle {
    fn name(&self) -> &str {
        "semantic"
    }

    fn signatures(&mut self, program: &Program) -> Vec<String> {
        match self.compiler.compile(program) {
            Err(CompileError::Crash { pass, message, .. }) => {
                vec![bug_signature("Crash", PLATFORM_P4C, Some(&pass), &message)]
            }
            Err(CompileError::Rejected { pass, diagnostics }) => {
                vec![bug_signature(
                    "Rejection",
                    PLATFORM_P4C,
                    Some(&pass),
                    &diagnostics.join("; "),
                )]
            }
            Ok(result) => result
                .pass_pairs()
                .filter_map(|(before, after)| self.pair_signature(before, after))
                .collect(),
        }
    }

    fn reproduces(&mut self, program: &Program, target: &str) -> bool {
        let Some(pass) = validated_pass(target) else {
            return self.signatures(program).iter().any(|s| s == target);
        };
        let options = self.compiler.options_mut();
        let snapshots = std::mem::replace(&mut options.snapshots, Snapshots::Pass(pass.into()));
        let compiled = self.compiler.compile(program);
        self.compiler.options_mut().snapshots = snapshots;
        // A crash or rejection is a finding of another kind.
        let Ok(result) = compiled else {
            return false;
        };
        let reproduces = result
            .pass_pairs()
            .filter(|(_, after)| after.pass_name == pass)
            .any(|(before, after)| self.pair_signature(before, after).as_deref() == Some(target));
        reproduces
    }
}

/// Symbolic-execution oracle: the black-box target still diverges from the
/// input program's semantics on generated tests (or its compiler still
/// crashes in the same back-end stage).  Works for any [`Target`]
/// implementation — the oracle goes through the same `drive_target` path as
/// the detection pipeline, so its finding messages (and therefore its
/// signatures) stay in lock-step by construction.
pub struct TestgenOracle {
    target: Box<dyn Target>,
    name: String,
    max_tests: usize,
}

impl TestgenOracle {
    pub fn new(target: Box<dyn Target>, max_tests: usize) -> TestgenOracle {
        let name = format!("testgen-{}", target.name());
        TestgenOracle {
            target,
            name,
            max_tests,
        }
    }
}

impl Oracle for TestgenOracle {
    fn name(&self) -> &str {
        &self.name
    }

    fn signatures(&mut self, program: &Program) -> Vec<String> {
        drive_target(&*self.target, program, self.max_tests)
            .into_iter()
            .map(|finding| match finding {
                TargetFinding::Crash { pass, message } => {
                    bug_signature("Crash", self.target.platform_label(), Some(&pass), &message)
                }
                TargetFinding::Semantic { message } => {
                    bug_signature("Semantic", self.target.platform_label(), None, &message)
                }
            })
            .collect()
    }
}

/// A closure-backed oracle, mostly for tests and custom campaigns.
pub struct FnOracle<F: FnMut(&Program) -> Vec<String>> {
    name: String,
    f: F,
}

impl<F: FnMut(&Program) -> Vec<String>> FnOracle<F> {
    pub fn new(name: impl Into<String>, f: F) -> FnOracle<F> {
        FnOracle {
            name: name.into(),
            f,
        }
    }
}

impl<F: FnMut(&Program) -> Vec<String>> Oracle for FnOracle<F> {
    fn name(&self) -> &str {
        &self.name
    }

    fn signatures(&mut self, program: &Program) -> Vec<String> {
        (self.f)(program)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use p4_ir::builder;

    #[test]
    fn signature_format_uses_first_line_only() {
        let sig = bug_signature(
            "Crash",
            PLATFORM_P4C,
            Some("SimplifyDefUse"),
            "boom\ndetail",
        );
        assert_eq!(sig, "Crash|P4c|SimplifyDefUse|boom");
        let sig = bug_signature("Semantic", PLATFORM_BMV2, None, "mismatch");
        assert_eq!(sig, "Semantic|Bmv2|-|mismatch");
    }

    #[test]
    fn only_open_compiler_validation_targets_name_a_pass() {
        let pass = |target: &str| validated_pass(target).map(str::to_string);
        assert_eq!(
            pass("Semantic|P4c|SimplifyDefUse|semantic difference"),
            Some("SimplifyDefUse".into())
        );
        assert_eq!(
            pass("InvalidTransformation|P4c|Predication|structure mismatch"),
            Some("Predication".into())
        );
        assert_eq!(pass("Crash|P4c|SimplifyDefUse|boom"), None);
        assert_eq!(pass("Semantic|Bmv2|-|mismatch"), None);
        assert_eq!(pass("always"), None);
    }

    #[test]
    fn crash_oracle_is_silent_on_the_reference_compiler() {
        let mut oracle = CrashOracle::new(Compiler::reference());
        assert!(oracle.signatures(&builder::trivial_program()).is_empty());
    }

    #[test]
    fn semantic_oracle_reports_a_seeded_defuse_bug() {
        let mut compiler = Compiler::reference();
        compiler.replace_pass(p4c::FrontEndBugClass::DefUseDropsParameterWrites.faulty_pass());
        let mut oracle = SemanticOracle::new(compiler);
        let signatures = oracle.signatures(&builder::trivial_program());
        assert!(
            signatures
                .iter()
                .any(|s| s.starts_with("Semantic|P4c|SimplifyDefUse|")),
            "unexpected signatures: {signatures:?}"
        );
        // Shrink-step reuse: a second query on the same program is served
        // entirely from the session cache.
        let before = oracle.session_stats();
        let again = oracle.signatures(&builder::trivial_program());
        assert_eq!(again, signatures);
        let after = oracle.session_stats();
        assert!(after.semantics_hits > before.semantics_hits);
    }
}
