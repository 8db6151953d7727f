//! Bug report types and de-duplication.
//!
//! Gauntlet classifies findings the way the paper does (§2.1): *crash bugs*
//! (abnormal termination of a pass, including incorrect rejections of valid
//! programs), *semantic bugs* (the compiled program's behaviour differs from
//! the input program's), plus the auxiliary *invalid transformation*
//! category (§7.2) for emitted intermediate programs that no longer parse.

use serde::{Deserialize, Serialize};
use std::collections::BTreeMap;

/// The kind of bug a finding represents.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum BugKind {
    /// The compiler crashed (assertion violation / panic).
    Crash,
    /// The compiler rejected a valid program with an error message.
    Rejection,
    /// The compiled program behaves differently from the input program.
    Semantic,
    /// An intermediate program emitted by the compiler no longer re-parses.
    InvalidTransformation,
    /// The compiled forms of a program and one of its semantics-preserving
    /// mutants diverge (`p4-mutate`'s EMI-style oracle, paper §8).  A
    /// miscompilation like [`BugKind::Semantic`], but convicted without
    /// ever comparing against the input program — which is what lets it see
    /// defects per-pass translation validation cannot.
    Metamorphic,
}

impl BugKind {
    /// The paper's two headline categories fold rejections of valid programs
    /// into the crash count (they are detected the same way: no oracle
    /// needed beyond "the input was valid").
    pub fn is_crash_like(self) -> bool {
        matches!(self, BugKind::Crash | BugKind::Rejection)
    }

    /// Inverse of the `Debug` form `gauntlet-report-v1` serializes.
    pub fn from_name(name: &str) -> Option<BugKind> {
        [
            BugKind::Crash,
            BugKind::Rejection,
            BugKind::Semantic,
            BugKind::InvalidTransformation,
            BugKind::Metamorphic,
        ]
        .into_iter()
        .find(|kind| format!("{kind:?}") == name)
    }
}

/// Which compiler/back end platform a bug was found in (Table 2's columns).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Serialize, Deserialize)]
pub enum Platform {
    P4c,
    Bmv2,
    Tofino,
    /// The reference-interpreter back end (`targets::RefInterpTarget`).
    RefInterp,
    /// The test-generation model itself: in N-way differential testing,
    /// when every target agrees and the model is the odd one out, the
    /// defect lives in the shared front/mid end or in our own oracle.
    Model,
}

impl Platform {
    /// All platforms, in Table 2 column order.
    pub fn all() -> [Platform; 5] {
        [
            Platform::P4c,
            Platform::Bmv2,
            Platform::Tofino,
            Platform::RefInterp,
            Platform::Model,
        ]
    }

    /// Resolves a target's platform label (see
    /// `targets::Target::platform_label`, which must return the `Debug`
    /// form of the matching variant).
    pub fn for_label(label: &str) -> Option<Platform> {
        Platform::all()
            .into_iter()
            .find(|platform| format!("{platform:?}") == label)
    }

    /// Inverse of the `Display` form `gauntlet-report-v1` serializes
    /// (`"P4C"`, `"BMv2"`, ...).
    pub fn from_display(name: &str) -> Option<Platform> {
        Platform::all()
            .into_iter()
            .find(|platform| platform.to_string() == name)
    }
}

impl std::fmt::Display for Platform {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Platform::P4c => write!(f, "P4C"),
            Platform::Bmv2 => write!(f, "BMv2"),
            Platform::Tofino => write!(f, "Tofino"),
            Platform::RefInterp => write!(f, "RefIntp"),
            Platform::Model => write!(f, "Model"),
        }
    }
}

/// Where in the compiler the bug lives (Table 3's rows).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Serialize, Deserialize)]
pub enum CompilerArea {
    FrontEnd,
    MidEnd,
    BackEnd,
}

impl CompilerArea {
    /// Inverse of the `Display` form `gauntlet-report-v1` serializes
    /// (`"Front End"`, ...).
    pub fn from_display(name: &str) -> Option<CompilerArea> {
        [
            CompilerArea::FrontEnd,
            CompilerArea::MidEnd,
            CompilerArea::BackEnd,
        ]
        .into_iter()
        .find(|area| area.to_string() == name)
    }
}

impl std::fmt::Display for CompilerArea {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            CompilerArea::FrontEnd => write!(f, "Front End"),
            CompilerArea::MidEnd => write!(f, "Mid End"),
            CompilerArea::BackEnd => write!(f, "Back End"),
        }
    }
}

/// Which of Gauntlet's techniques produced the finding.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum Technique {
    RandomGeneration,
    TranslationValidation,
    SymbolicExecution,
    /// Semantics-preserving mutation with end-to-end equivalence of the
    /// compiled seed/mutant pair (`p4-mutate`).
    MetamorphicMutation,
}

impl Technique {
    /// Inverse of the `Debug` form `gauntlet-report-v1` serializes.
    pub fn from_name(name: &str) -> Option<Technique> {
        [
            Technique::RandomGeneration,
            Technique::TranslationValidation,
            Technique::SymbolicExecution,
            Technique::MetamorphicMutation,
        ]
        .into_iter()
        .find(|technique| format!("{technique:?}") == name)
    }
}

/// One finding.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct BugReport {
    pub kind: BugKind,
    pub platform: Platform,
    pub area: CompilerArea,
    pub technique: Technique,
    /// The pass (or back-end stage) the bug is attributed to, when known.
    pub pass: Option<String>,
    /// Human-readable description / crash message / counterexample summary.
    pub message: String,
    /// Which participant of an N-way differential run this finding is
    /// attributed to by majority vote: a registry target name
    /// (`"bmv2"`, ...) or `"model"` when every target out-votes the
    /// test-generation oracle.  Single-target checks record the target that
    /// observed the finding.  `None` for open-compiler findings.
    pub attributed_to: Option<String>,
    /// The delta-debugged minimal reproducer (printed P4 source), when the
    /// campaign ran with reduction enabled.  The minimized program
    /// typechecks and reproduces the same [`BugReport::dedup_key`] through
    /// the oracle it was reduced under — the paper's reporting workflow
    /// (§7) filed exactly such reduced programs upstream.
    pub minimized: Option<String>,
    /// Statistics of the reduction run that produced `minimized`
    /// (wall-clock excluded, so reports stay schedule-independent).
    pub reduction: Option<p4_reduce::ReductionStats>,
}

impl BugReport {
    /// A finding with no attached reproducer reduction.
    pub fn new(
        kind: BugKind,
        platform: Platform,
        area: CompilerArea,
        technique: Technique,
        pass: Option<String>,
        message: String,
    ) -> BugReport {
        BugReport {
            kind,
            platform,
            area,
            technique,
            pass,
            message,
            attributed_to: None,
            minimized: None,
            reduction: None,
        }
    }

    /// Sets the differential-attribution tag (builder style).
    pub fn attributed_to(mut self, participant: impl Into<String>) -> BugReport {
        self.attributed_to = Some(participant.into());
        self
    }

    /// The key used to consider two findings "the same bug": same kind, same
    /// platform, same pass, and the same leading line of the message — the
    /// same rule the authors used with P4C's distinct assertion messages
    /// (§7.3).
    pub fn dedup_key(&self) -> String {
        let first_line = self.message.lines().next().unwrap_or("");
        format!(
            "{:?}|{:?}|{}|{}",
            self.kind,
            self.platform,
            self.pass.as_deref().unwrap_or("-"),
            first_line
        )
    }

    /// The pass a translation-validation dedup key names
    /// (`Semantic|P4c|<pass>|…` or `InvalidTransformation|P4c|<pass>|…`):
    /// only that pass's snapshot pairs can reproduce the finding.  `None`
    /// for every other key.
    pub fn validated_pass(key: &str) -> Option<&str> {
        let mut fields = key.split('|');
        let kind = BugKind::from_name(fields.next()?);
        let platform = Platform::for_label(fields.next()?);
        let pass = fields.next()?;
        let validated = matches!(
            kind,
            Some(BugKind::Semantic | BugKind::InvalidTransformation)
        );
        (validated && platform == Some(Platform::P4c)).then_some(pass)
    }
}

/// A de-duplicating collection of findings.
#[derive(Debug, Clone, Default, Serialize, Deserialize)]
pub struct BugDatabase {
    bugs: BTreeMap<String, BugReport>,
    /// How many raw findings mapped onto each distinct bug.
    duplicates: BTreeMap<String, usize>,
}

impl BugDatabase {
    pub fn new() -> BugDatabase {
        BugDatabase::default()
    }

    /// Records a finding; returns true if it is a new distinct bug.
    pub fn record(&mut self, report: BugReport) -> bool {
        let key = report.dedup_key();
        let new = !self.bugs.contains_key(&key);
        *self.duplicates.entry(key.clone()).or_insert(0) += 1;
        self.bugs.entry(key).or_insert(report);
        new
    }

    pub fn len(&self) -> usize {
        self.bugs.len()
    }

    pub fn is_empty(&self) -> bool {
        self.bugs.is_empty()
    }

    pub fn reports(&self) -> impl Iterator<Item = &BugReport> {
        self.bugs.values()
    }

    /// Count of distinct bugs by (platform, crash-like vs semantic).
    pub fn count_by_platform(&self) -> BTreeMap<(Platform, bool), usize> {
        let mut counts = BTreeMap::new();
        for report in self.bugs.values() {
            *counts
                .entry((report.platform, report.kind.is_crash_like()))
                .or_insert(0) += 1;
        }
        counts
    }

    /// Count of distinct bugs by differential attribution (target name or
    /// `"model"`); findings without an attribution are not counted.
    pub fn count_by_attribution(&self) -> BTreeMap<String, usize> {
        let mut counts = BTreeMap::new();
        for report in self.bugs.values() {
            if let Some(participant) = &report.attributed_to {
                *counts.entry(participant.clone()).or_insert(0) += 1;
            }
        }
        counts
    }

    /// Count of distinct bugs by compiler area.
    pub fn count_by_area(&self) -> BTreeMap<CompilerArea, usize> {
        let mut counts = BTreeMap::new();
        for report in self.bugs.values() {
            *counts.entry(report.area).or_insert(0) += 1;
        }
        counts
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn report(kind: BugKind, pass: &str, message: &str) -> BugReport {
        BugReport::new(
            kind,
            Platform::P4c,
            CompilerArea::FrontEnd,
            Technique::TranslationValidation,
            Some(pass.into()),
            message.into(),
        )
    }

    #[test]
    fn duplicate_findings_collapse() {
        let mut db = BugDatabase::new();
        assert!(db.record(report(
            BugKind::Crash,
            "SimplifyDefUse",
            "assertion failed: x"
        )));
        assert!(!db.record(report(
            BugKind::Crash,
            "SimplifyDefUse",
            "assertion failed: x"
        )));
        assert!(db.record(report(BugKind::Crash, "Predication", "assertion failed: x")));
        assert!(db.record(report(
            BugKind::Semantic,
            "SimplifyDefUse",
            "assertion failed: x"
        )));
        assert_eq!(db.len(), 3);
    }

    #[test]
    fn platform_and_area_counts() {
        let mut db = BugDatabase::new();
        db.record(report(BugKind::Crash, "A", "m1"));
        db.record(report(BugKind::Semantic, "B", "m2"));
        let by_platform = db.count_by_platform();
        assert_eq!(by_platform.get(&(Platform::P4c, true)), Some(&1));
        assert_eq!(by_platform.get(&(Platform::P4c, false)), Some(&1));
        assert_eq!(db.count_by_area().get(&CompilerArea::FrontEnd), Some(&2));
    }

    #[test]
    fn rejections_count_as_crash_like() {
        assert!(BugKind::Rejection.is_crash_like());
        assert!(!BugKind::Semantic.is_crash_like());
    }

    #[test]
    fn enum_parsers_invert_their_serialized_forms() {
        for kind in [
            BugKind::Crash,
            BugKind::Rejection,
            BugKind::Semantic,
            BugKind::InvalidTransformation,
            BugKind::Metamorphic,
        ] {
            assert_eq!(BugKind::from_name(&format!("{kind:?}")), Some(kind));
        }
        for platform in Platform::all() {
            assert_eq!(
                Platform::from_display(&platform.to_string()),
                Some(platform)
            );
        }
        for area in [
            CompilerArea::FrontEnd,
            CompilerArea::MidEnd,
            CompilerArea::BackEnd,
        ] {
            assert_eq!(CompilerArea::from_display(&area.to_string()), Some(area));
        }
        for technique in [
            Technique::RandomGeneration,
            Technique::TranslationValidation,
            Technique::SymbolicExecution,
            Technique::MetamorphicMutation,
        ] {
            assert_eq!(
                Technique::from_name(&format!("{technique:?}")),
                Some(technique)
            );
        }
        assert_eq!(BugKind::from_name("NotAKind"), None);
        assert_eq!(Platform::from_display("p4c"), None);
    }
}
