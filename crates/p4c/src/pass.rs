//! The nanopass framework: pass trait, pass manager, and compiler driver.
//!
//! P4C is structured as a long sequence of small ("nano") passes that each
//! perform one analysis or transformation (paper §3, §7.3).  Gauntlet relies
//! on two properties of that architecture, which this module reproduces:
//!
//! 1. the compiler can emit the transformed program after every pass
//!    (`p4test`-style snapshots), which translation validation consumes; and
//! 2. passes signal internal errors through assertions, which surface as
//!    crash bugs with the offending pass attached.
//!
//! Passes run in place on one working program; the driver clones only what
//! it emits, once per pass that changed the program.

use crate::error::{CompileError, Diagnostic};
use p4_ir::{print_program, Program};
use std::cell::Cell;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::{Arc, Once};

/// Which part of the compiler a pass belongs to.  Table 3 of the paper
/// groups detected bugs by exactly these areas.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, serde::Serialize, serde::Deserialize)]
pub enum PassArea {
    FrontEnd,
    MidEnd,
    BackEnd,
}

impl std::fmt::Display for PassArea {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            PassArea::FrontEnd => write!(f, "front end"),
            PassArea::MidEnd => write!(f, "mid end"),
            PassArea::BackEnd => write!(f, "back end"),
        }
    }
}

/// A compiler pass.
pub trait Pass {
    /// Stable pass name used in diagnostics and bug reports.
    fn name(&self) -> &str;

    /// The compiler area the pass belongs to.
    fn area(&self) -> PassArea {
        PassArea::FrontEnd
    }

    /// Transforms the program in place.  Returning an error models a
    /// *rejected* program (a compiler diagnostic); panicking models an
    /// internal assertion violation, which the driver reports as a crash
    /// bug.  After an error or a panic the program may be left in any
    /// state: the driver discards it.
    fn run(&self, program: &mut Program) -> Result<(), Diagnostic>;
}

/// The program snapshot taken after a pass that changed the program.
#[derive(Debug, Clone)]
pub struct PassSnapshot {
    pub pass_name: String,
    pub area: PassArea,
    /// Index of the pass in the pipeline (0 = the input program).
    pub pass_index: usize,
    /// The emitted program, shared with the driver and never mutated.
    pub program: Arc<Program>,
    /// The ToP4-printed form of `program`.
    pub printed: String,
}

/// The result of a successful compilation.
#[derive(Debug, Clone)]
pub struct CompileResult {
    /// The input program plus one snapshot per pass that modified it.
    pub snapshots: Vec<PassSnapshot>,
    /// The fully transformed program.
    pub program: Program,
    /// Which rewrite rules fired during this compile (see
    /// [`crate::coverage`]).
    pub coverage: crate::coverage::PassCoverage,
}

impl PassSnapshot {
    /// The snapshot of `program` as pass `pass_name` (at `pass_index`, in
    /// `area`) emitted it.
    fn new((pass_name, area, pass_index): (&str, PassArea, usize), program: Arc<Program>) -> Self {
        PassSnapshot {
            pass_name: pass_name.to_string(),
            area,
            pass_index,
            printed: print_program(&program),
            program,
        }
    }
}

impl CompileResult {
    /// Consecutive snapshot pairs `(before, after)` for translation
    /// validation.
    pub fn pass_pairs(&self) -> impl Iterator<Item = (&PassSnapshot, &PassSnapshot)> {
        self.snapshots.windows(2).map(|w| (&w[0], &w[1]))
    }
}

/// Which per-pass snapshots a compile records in
/// [`CompileResult::snapshots`].  Every mode runs the whole pipeline.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Snapshots {
    /// The input program and the program after every pass that changed it
    /// (the `p4test --top4` behaviour Gauntlet depends on).
    All,
    /// No snapshots, for callers that read only the final program or the
    /// compile error.  The driver keeps no copy and compares nothing.
    None,
    /// Only the snapshots that make up the named pass's pairs under
    /// [`Snapshots::All`]: for every run of the pass that changed the
    /// program, the snapshot before it and the one after it, both printed.
    /// If the pass runs more than once with other changes between runs,
    /// [`CompileResult::pass_pairs`] also yields a bridging pair whose
    /// `after` belongs to another pass, so callers select pairs by
    /// `after.pass_name`.
    Pass(String),
}

/// Options controlling a compiler run.
#[derive(Debug, Clone)]
pub struct CompileOptions {
    /// Which per-pass snapshots the compile records.
    pub snapshots: Snapshots,
}

impl Default for CompileOptions {
    fn default() -> Self {
        CompileOptions {
            snapshots: Snapshots::All,
        }
    }
}

/// A pipeline of passes plus the driver that runs them.
pub struct Compiler {
    passes: Vec<Box<dyn Pass>>,
    options: CompileOptions,
    /// Seeded driver defect: corrupts the program after input type checking
    /// but *before* the first snapshot, making it invisible to per-pass
    /// translation validation (see [`crate::buggy::DriverBugClass`]).
    input_corruption: Option<crate::buggy::DriverBugClass>,
}

impl Default for Compiler {
    /// An empty pipeline, same as [`Compiler::empty`].
    fn default() -> Compiler {
        Compiler::empty()
    }
}

impl Compiler {
    /// An empty compiler with no passes (useful for tests).
    pub fn empty() -> Compiler {
        Compiler {
            passes: Vec::new(),
            options: CompileOptions::default(),
            input_corruption: None,
        }
    }

    /// The reference pipeline: all front-end and mid-end passes in their
    /// default order.
    pub fn reference() -> Compiler {
        let mut compiler = Compiler::empty();
        for pass in crate::passes::default_pipeline() {
            compiler.passes.push(pass);
        }
        compiler
    }

    /// Creates a compiler from an explicit pass list.
    pub fn with_passes(passes: Vec<Box<dyn Pass>>) -> Compiler {
        Compiler {
            passes,
            ..Compiler::empty()
        }
    }

    /// Seeds a driver-level defect: the corruption runs after input type
    /// checking but before snapshot 0 is recorded, so every per-pass
    /// snapshot carries it identically and translation validation stays
    /// silent.  Only the metamorphic oracle (`p4-mutate`) can convict it.
    pub fn seed_input_corruption(&mut self, bug: crate::buggy::DriverBugClass) -> &mut Self {
        self.input_corruption = Some(bug);
        self
    }

    pub fn options_mut(&mut self) -> &mut CompileOptions {
        &mut self.options
    }

    /// Appends a pass to the pipeline.
    pub fn add_pass(&mut self, pass: Box<dyn Pass>) -> &mut Self {
        self.passes.push(pass);
        self
    }

    /// Replaces the pass with the same name, returning whether a replacement
    /// happened.  Used by the bug-injection framework to swap a correct pass
    /// for a faulty variant.
    pub fn replace_pass(&mut self, pass: Box<dyn Pass>) -> bool {
        for slot in &mut self.passes {
            if slot.name() == pass.name() {
                *slot = pass;
                return true;
            }
        }
        false
    }

    /// Removes a pass by name (Different-Optimization-Levels style testing).
    pub fn remove_pass(&mut self, name: &str) -> bool {
        let before = self.passes.len();
        self.passes.retain(|p| p.name() != name);
        self.passes.len() != before
    }

    /// Pass names in pipeline order.
    pub fn pass_names(&self) -> Vec<String> {
        self.passes.iter().map(|p| p.name().to_string()).collect()
    }

    /// Runs the pipeline on `program`.
    ///
    /// A fresh [`crate::coverage`] sink is threaded through the pass
    /// pipeline: rules fired by the passes land in
    /// [`CompileResult::coverage`], and — because the scope merges outward
    /// on unwind — in any enclosing [`crate::coverage::with_sink`] even
    /// when a pass crashes.
    pub fn compile(&self, program: &Program) -> Result<CompileResult, CompileError> {
        // The span guard records through an unwinding pass crash, mirroring
        // the coverage scope's drop behaviour.
        let _telemetry = gauntlet_telemetry::Span::begin(gauntlet_telemetry::Stage::Compile);
        let scope = crate::coverage::Scope::begin();
        self.compile_inner(program).map(|mut result| {
            result.coverage = scope.finish();
            result
        })
    }

    fn compile_inner(&self, program: &Program) -> Result<CompileResult, CompileError> {
        let errors = p4_check::check_program(program);
        if !errors.is_empty() {
            return Err(CompileError::Rejected {
                pass: "TypeChecking".into(),
                diagnostics: errors.iter().map(|e| e.to_string()).collect(),
            });
        }

        let mut current = program.clone();
        if let Some(bug) = self.input_corruption {
            bug.corrupt(&mut current);
        }
        let mut snapshots = Vec::new();
        // The last emitted program, against which each pass's output is
        // compared; `Snapshots::None` compares nothing.
        let mut emitted =
            (self.options.snapshots != Snapshots::None).then(|| Arc::new(current.clone()));
        // The name, area and index of the snapshot `emitted` has under
        // `Snapshots::All`.
        let mut origin = ("<input>", PassArea::FrontEnd, 0);
        if let (Snapshots::All, Some(input)) = (&self.options.snapshots, &emitted) {
            snapshots.push(PassSnapshot::new(origin, input.clone()));
        }

        for (index, pass) in self.passes.iter().enumerate() {
            gauntlet_telemetry::count_pass(pass.name());
            silence_pass_panics();
            IN_PASS.set(true);
            let outcome = catch_unwind(AssertUnwindSafe(|| pass.run(&mut current)));
            IN_PASS.set(false);
            match outcome {
                Err(panic) => {
                    return Err(CompileError::Crash {
                        pass: pass.name().to_string(),
                        area: pass.area(),
                        message: panic_message(panic),
                    });
                }
                Ok(Err(diagnostic)) => {
                    return Err(CompileError::Rejected {
                        pass: pass.name().to_string(),
                        diagnostics: vec![diagnostic.message],
                    });
                }
                Ok(Ok(())) => {}
            }
            // Close the coverage segment for this pass run: rules it fired
            // become "earlier" rules for pair tracking.  A crashing pass
            // never reaches this; the scope flushes its dangling segment on
            // unwind instead.
            crate::coverage::pass_boundary();
            // Emitted programs identical to their predecessor are ignored
            // (paper §5.2).
            let Some(last) = emitted.as_mut() else {
                continue;
            };
            if **last == current {
                continue;
            }
            let before = std::mem::replace(last, Arc::new(current.clone()));
            let after = (pass.name(), pass.area(), index + 1);
            match &self.options.snapshots {
                Snapshots::All => snapshots.push(PassSnapshot::new(after, last.clone())),
                Snapshots::Pass(name) if name == pass.name() => {
                    // Two runs in a row share their middle snapshot.
                    if snapshots.last().map(|s: &PassSnapshot| s.pass_index) != Some(origin.2) {
                        snapshots.push(PassSnapshot::new(origin, before));
                    }
                    snapshots.push(PassSnapshot::new(after, last.clone()));
                }
                Snapshots::Pass(_) | Snapshots::None => {}
            }
            origin = after;
        }
        Ok(CompileResult {
            snapshots,
            program: current,
            coverage: crate::coverage::PassCoverage::new(),
        })
    }
}

thread_local! {
    /// Set while a pass runs under the driver's `catch_unwind`.
    static IN_PASS: Cell<bool> = const { Cell::new(false) };
}

/// Installs, once per process, a panic hook that stays silent for pass
/// panics — the driver turns each into a [`CompileError::Crash`] carrying
/// the message, and a crash-bug hunt catches thousands — and hands every
/// other panic to the hook it replaced.
fn silence_pass_panics() {
    static INSTALL: Once = Once::new();
    INSTALL.call_once(|| {
        let previous = std::panic::take_hook();
        std::panic::set_hook(Box::new(move |info| {
            if !IN_PASS.get() {
                previous(info);
            }
        }));
    });
}

fn panic_message(panic: Box<dyn std::any::Any + Send>) -> String {
    if let Some(message) = panic.downcast_ref::<&str>() {
        (*message).to_string()
    } else if let Some(message) = panic.downcast_ref::<String>() {
        message.clone()
    } else {
        "unknown panic".to_string()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use p4_ir::builder;

    struct NopPass;
    impl Pass for NopPass {
        fn name(&self) -> &str {
            "Nop"
        }
        fn run(&self, _program: &mut Program) -> Result<(), Diagnostic> {
            Ok(())
        }
    }

    struct RenameControlPass;
    impl Pass for RenameControlPass {
        fn name(&self) -> &str {
            "RenameControl"
        }
        fn run(&self, program: &mut Program) -> Result<(), Diagnostic> {
            if let Some(control) = program.control_mut("ingress_impl") {
                control.apply.statements.push(p4_ir::Statement::Empty);
            }
            Ok(())
        }
    }

    struct PanickingPass;
    impl Pass for PanickingPass {
        fn name(&self) -> &str {
            "Panicking"
        }
        fn run(&self, _program: &mut Program) -> Result<(), Diagnostic> {
            panic!("compiler bug: invariant violated");
        }
    }

    #[test]
    fn unchanged_passes_produce_no_snapshots() {
        let mut compiler = Compiler::empty();
        compiler.add_pass(Box::new(NopPass));
        let result = compiler.compile(&builder::trivial_program()).unwrap();
        assert_eq!(result.snapshots.len(), 1); // just the input
    }

    #[test]
    fn modifying_passes_are_snapshotted() {
        let mut compiler = Compiler::empty();
        compiler.add_pass(Box::new(RenameControlPass));
        let result = compiler.compile(&builder::trivial_program()).unwrap();
        assert_eq!(result.snapshots.len(), 2);
        assert_eq!(result.snapshots[1].pass_name, "RenameControl");
        assert_eq!(result.pass_pairs().count(), 1);
    }

    /// The compilers of the seeded-bug registry on the P4C platform: the
    /// reference pipeline (which back-end bugs also use), every faulty pass
    /// and every driver defect.
    fn registry_compilers() -> Vec<(String, Compiler)> {
        let mut compilers = vec![("reference".to_string(), Compiler::reference())];
        for bug in crate::FrontEndBugClass::all() {
            let mut compiler = Compiler::reference();
            assert!(compiler.replace_pass(bug.faulty_pass()));
            compilers.push((format!("{bug:?}"), compiler));
        }
        for bug in crate::DriverBugClass::all() {
            let mut compiler = Compiler::reference();
            compiler.seed_input_corruption(bug);
            compilers.push((format!("{bug:?}"), compiler));
        }
        compilers
    }

    /// For every registry compiler: a `Snapshots::None` compile ends like a
    /// `Snapshots::All` one, the last snapshot is the final program, every
    /// snapshot's printed form is its program printed, the input is left
    /// alone, and a `Snapshots::Pass` compile holds exactly the named
    /// pass's pairs of the full compile, and no other pass's pairs.
    #[test]
    fn pass_snapshots_match_that_pass_pairs_of_a_full_compile() {
        use p4_gen::{GeneratorConfig, RandomProgramGenerator};
        let compile = |compiler: &mut Compiler, snapshots: Snapshots, program: &Program| {
            compiler.options_mut().snapshots = snapshots;
            let result = compiler.compile(program);
            if let Ok(result) = &result {
                for snapshot in &result.snapshots {
                    assert_eq!(print_program(&snapshot.program), snapshot.printed);
                }
            }
            result
        };
        let (mut pairs, mut errors) = (0, 0);
        for (label, mut compiler) in registry_compilers() {
            for seed in 0..12 {
                let program = RandomProgramGenerator::new(GeneratorConfig::tiny(), seed).generate();
                let input = program.clone();
                let all = compile(&mut compiler, Snapshots::All, &program);
                let none = compile(&mut compiler, Snapshots::None, &program);
                assert_eq!(program, input, "{label}, seed {seed}: the input changed");
                let all = match (all, none) {
                    (Ok(all), Ok(none)) => {
                        assert!(none.snapshots.is_empty());
                        assert_eq!(none.program, all.program, "{label}, seed {seed}");
                        let last = all.snapshots.last().expect("the input snapshot");
                        assert_eq!(*last.program, all.program, "{label}, seed {seed}");
                        all
                    }
                    (Err(all), Err(none)) => {
                        assert_eq!(none, all, "{label}, seed {seed}");
                        errors += 1;
                        continue;
                    }
                    (all, none) => {
                        panic!("{label}, seed {seed}: {:?} vs {:?}", all.err(), none.err())
                    }
                };
                for name in compiler.pass_names() {
                    let only = compile(&mut compiler, Snapshots::Pass(name.clone()), &program)
                        .unwrap_or_else(|e| panic!("{label}, seed {seed}, pass {name}: {e}"));
                    let key = |(before, after): (&PassSnapshot, &PassSnapshot)| {
                        let fields = |s: &PassSnapshot| {
                            (s.pass_name.clone(), s.area, s.pass_index, s.printed.clone())
                        };
                        (fields(before), fields(after))
                    };
                    let expected: Vec<_> = all
                        .pass_pairs()
                        .filter(|(_, after)| after.pass_name == name)
                        .map(key)
                        .collect();
                    let got: Vec<_> = only.pass_pairs().map(key).collect();
                    assert_eq!(got, expected, "{label}, seed {seed}, pass {name}");
                    assert_eq!(only.program, all.program);
                    pairs += got.len();
                }
            }
        }
        assert!(pairs > 100, "the fixture must exercise pass pairs: {pairs}");
        assert!(errors > 0, "the fixture must exercise failed compiles");
    }

    /// A pass that edits the program and then rejects it, or edits it and
    /// then panics, is reported against that pass.
    #[test]
    fn a_pass_that_fails_after_editing_is_reported() {
        struct EditThen(&'static str, fn() -> Result<(), Diagnostic>);
        impl Pass for EditThen {
            fn name(&self) -> &str {
                self.0
            }
            fn run(&self, program: &mut Program) -> Result<(), Diagnostic> {
                program
                    .control_mut("ingress_impl")
                    .unwrap()
                    .apply
                    .statements
                    .clear();
                (self.1)()
            }
        }
        for snapshots in [Snapshots::All, Snapshots::None] {
            let mut compiler = Compiler::empty();
            compiler.options_mut().snapshots = snapshots;
            compiler.add_pass(Box::new(RenameControlPass));
            compiler.add_pass(Box::new(EditThen("Rejecting", || {
                Err(Diagnostic::new("unsupported construct"))
            })));
            assert!(matches!(
                compiler.compile(&builder::trivial_program()),
                Err(CompileError::Rejected { pass, diagnostics })
                    if pass == "Rejecting" && diagnostics == ["unsupported construct"]
            ));
            assert!(compiler.remove_pass("Rejecting"));
            compiler.add_pass(Box::new(EditThen("Crashing", || {
                panic!("edited, then crashed")
            })));
            assert!(matches!(
                compiler.compile(&builder::trivial_program()),
                Err(CompileError::Crash { pass, message, .. })
                    if pass == "Crashing" && message == "edited, then crashed"
            ));
        }
    }

    #[test]
    fn panics_become_crash_errors() {
        let mut compiler = Compiler::empty();
        compiler.add_pass(Box::new(PanickingPass));
        match compiler.compile(&builder::trivial_program()) {
            Err(CompileError::Crash { pass, message, .. }) => {
                assert_eq!(pass, "Panicking");
                assert!(message.contains("invariant violated"));
            }
            other => panic!("expected a crash, got {other:?}"),
        }
    }

    #[test]
    fn ill_typed_input_is_rejected_before_any_pass() {
        let mut program = builder::trivial_program();
        // Break the program: assign an unknown variable.
        if let Some(control) = program.control_mut("ingress_impl") {
            control.apply.statements.push(p4_ir::Statement::assign(
                p4_ir::Expr::path("ghost"),
                p4_ir::Expr::uint(1, 8),
            ));
        }
        let compiler = Compiler::empty();
        assert!(matches!(
            compiler.compile(&program),
            Err(CompileError::Rejected { pass, .. }) if pass == "TypeChecking"
        ));
    }

    #[test]
    fn replace_and_remove_passes() {
        let mut compiler = Compiler::empty();
        compiler.add_pass(Box::new(NopPass));
        assert!(compiler.replace_pass(Box::new(NopPass)));
        assert!(compiler.remove_pass("Nop"));
        assert!(!compiler.remove_pass("Nop"));
        assert!(!compiler.replace_pass(Box::new(NopPass)));
    }

    /// The driver threads a coverage sink through the pipeline: a compile
    /// of a program with foldable constants reports the fired rule in
    /// `CompileResult::coverage`.
    #[test]
    fn compile_attaches_pass_rule_coverage() {
        use p4_ir::{BinOp, Expr};
        let mut program = builder::trivial_program();
        if let Some(control) = program.control_mut("ingress_impl") {
            control.apply.statements.push(p4_ir::Statement::assign(
                Expr::dotted(&["hdr", "h", "a"]),
                Expr::binary(BinOp::Add, Expr::uint(1, 8), Expr::uint(2, 8)),
            ));
        }
        let result = Compiler::reference().compile(&program).unwrap();
        assert!(result.coverage.count("ConstantFolding/fold_arith") >= 1);
    }

    /// The driver marks a pass boundary after every pass run, so rules that
    /// fire in different passes of one compile surface as ordered
    /// interaction pairs in `CompileResult::coverage`.
    #[test]
    fn compile_attaches_cross_pass_pair_coverage() {
        use p4_ir::{BinOp, Expr};
        let mut program = builder::trivial_program();
        if let Some(control) = program.control_mut("ingress_impl") {
            control.apply.statements.push(p4_ir::Statement::assign(
                Expr::dotted(&["hdr", "h", "a"]),
                Expr::binary(BinOp::Add, Expr::uint(1, 8), Expr::uint(2, 8)),
            ));
            // `x + 0` with a non-constant operand is out of ConstantFolding's
            // reach but StrengthReduction rewrites it, so the compile records
            // rules in two distinct passes.
            control.apply.statements.push(p4_ir::Statement::assign(
                Expr::dotted(&["hdr", "h", "a"]),
                Expr::binary(
                    BinOp::Add,
                    Expr::dotted(&["hdr", "h", "a"]),
                    Expr::uint(0, 8),
                ),
            ));
        }
        let result = Compiler::reference().compile(&program).unwrap();
        let passes_hit: std::collections::BTreeSet<String> = result
            .coverage
            .fired_keys()
            .iter()
            .filter_map(|key| key.split_once('/').map(|(pass, _)| pass.to_string()))
            .collect();
        assert!(
            passes_hit.len() >= 2,
            "fixture must exercise at least two passes, hit {passes_hit:?}"
        );
        assert!(
            result.coverage.distinct_pairs() >= 1,
            "rules firing in distinct passes must produce interaction pairs"
        );
        // Every recorded pair is between two individually fired rules.
        for pair in result.coverage.fired_pair_keys() {
            let (first, second) = pair.split_once("->").unwrap();
            assert!(result.coverage.fired(first), "{pair} first member unfired");
            assert!(
                result.coverage.fired(second),
                "{pair} second member unfired"
            );
        }
    }

    /// Rules fired before a pass crashes are still observable through an
    /// enclosing `coverage::with_sink` (the driver's scope merges outward on
    /// unwind).
    #[test]
    fn crash_coverage_merges_into_the_enclosing_sink() {
        use p4_ir::{BinOp, Expr};
        let mut program = builder::trivial_program();
        if let Some(control) = program.control_mut("ingress_impl") {
            control.apply.statements.push(p4_ir::Statement::assign(
                Expr::dotted(&["hdr", "h", "a"]),
                Expr::binary(BinOp::Add, Expr::uint(1, 8), Expr::uint(2, 8)),
            ));
        }
        let mut compiler = Compiler::reference();
        compiler.add_pass(Box::new(PanickingPass));
        let (result, coverage) = crate::coverage::with_sink(|| compiler.compile(&program));
        assert!(matches!(result, Err(CompileError::Crash { .. })));
        assert!(coverage.count("ConstantFolding/fold_arith") >= 1);
    }

    /// The seeded driver corruption runs before snapshot 0: the write is
    /// gone from *every* snapshot (so pass-pair validation has nothing to
    /// compare against), yet the compiled output genuinely lost it.
    #[test]
    fn input_corruption_poisons_snapshot_zero() {
        let program = builder::trivial_program();
        let mut compiler = Compiler::reference();
        compiler.seed_input_corruption(crate::buggy::DriverBugClass::SnapshotDropsFinalWrite);
        let corrupted = compiler.compile(&program).unwrap();
        let reference = Compiler::reference().compile(&program).unwrap();
        assert_ne!(
            corrupted.snapshots[0].printed, reference.snapshots[0].printed,
            "corruption must land before the first snapshot"
        );
        assert!(!corrupted.snapshots[0].printed.contains("hdr.h.a = 8w1;"));
        assert!(reference.program != corrupted.program);
    }

    /// A pass whose output equals its input counts as unchanged, however it
    /// got there; the smallest real change is snapshotted.
    #[test]
    fn pass_changes_are_detected_by_program_equality() {
        struct RoundTripPass;
        impl Pass for RoundTripPass {
            fn name(&self) -> &str {
                "RoundTrip"
            }
            fn run(&self, program: &mut Program) -> Result<(), Diagnostic> {
                let apply = &mut program.control_mut("ingress_impl").unwrap().apply;
                apply.statements.push(p4_ir::Statement::Exit);
                apply.statements.pop();
                Ok(())
            }
        }
        struct AppendExitPass;
        impl Pass for AppendExitPass {
            fn name(&self) -> &str {
                "AppendExit"
            }
            fn run(&self, program: &mut Program) -> Result<(), Diagnostic> {
                let apply = &mut program.control_mut("ingress_impl").unwrap().apply;
                apply.statements.push(p4_ir::Statement::Exit);
                Ok(())
            }
        }
        let mut compiler = Compiler::empty();
        compiler.add_pass(Box::new(RoundTripPass));
        compiler.add_pass(Box::new(AppendExitPass));
        let result = compiler.compile(&builder::trivial_program()).unwrap();
        let names: Vec<&str> = result
            .snapshots
            .iter()
            .map(|snapshot| snapshot.pass_name.as_str())
            .collect();
        assert_eq!(names, vec!["<input>", "AppendExit"]);
    }
}
