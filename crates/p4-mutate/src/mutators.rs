//! The semantics-preserving mutator catalogue.
//!
//! Each mutator implements [`Mutator`]: given a well-typed program and a
//! seeded RNG it performs *one* rewrite at an RNG-chosen site, returning the
//! registry rule that fired.  Every rewrite preserves the program's
//! semantics by construction — a compiled mutant that diverges from its
//! compiled seed is therefore a compiler bug, no reference semantics needed
//! (the EMI-style oracle of the paper's §8 future-work discussion).
//!
//! Site selection is two-phase and fully deterministic: an immutable walk
//! counts candidate sites (using `p4_ir::for_each_statement_list`), the RNG
//! picks one, and a mutable walk rewrites exactly that site.  Mutation is
//! restricted to the apply blocks of control declarations — the blocks the
//! symbolic interpreter models end-to-end.

use p4_ir::{
    for_each_statement_list, for_each_statement_list_mut, max_unsigned, type_of, BinOp, Block,
    ControlDecl, Declaration, Expr, Program, Scope, Statement, Type, TypeEnv, UnOp,
};
use rand::rngs::StdRng;
use rand::Rng;

/// A semantics-preserving program mutator.
///
/// Implementations must be pure functions of `(program, rng)` — the engine
/// relies on that for byte-deterministic mutants per seed — and must keep
/// the program well-typed and printable (the property suite in
/// `tests/prop_mutators.rs` enforces both, plus equivalence of mutation
/// chains against the reference interpreter).
pub trait Mutator {
    /// Registry name (first column of [`crate::registry::ALL_MUTATORS`]).
    fn name(&self) -> &'static str;

    /// The registry rules this mutator can fire.
    fn rules(&self) -> &'static [&'static str];

    /// Attempts one rewrite at an RNG-chosen site.  Returns the rule that
    /// fired, or `None` when the program offers no candidate site.
    fn apply(&self, program: &mut Program, rng: &mut StdRng) -> Option<&'static str>;
}

/// The full mutator catalogue, in [`crate::registry::ALL_MUTATORS`] order.
pub fn standard_mutators() -> Vec<Box<dyn Mutator>> {
    vec![
        Box::new(AlgebraicRewrite),
        Box::new(ControlFlowWrap),
        Box::new(OpaqueGuard),
        Box::new(ReorderIndependent),
    ]
}

// ---------------------------------------------------------------------------
// Shared site-selection plumbing.
// ---------------------------------------------------------------------------

/// A flat scope of every name visible anywhere in `control`: top-level
/// constants/variables, parameters, control locals, and every local
/// declaration in the apply block.  Flattening ignores block scoping, which
/// is sound here because the scope is only used to *look up widths* of
/// l-values that the well-typed input already resolves; a pathological
/// shadowing clash at worst mis-sizes a rewrite, which the engine's
/// re-typecheck gate then discards.
fn control_scope(env: &TypeEnv, program: &Program, control: &ControlDecl) -> Scope {
    let mut scope = Scope::new();
    for decl in &program.declarations {
        match decl {
            Declaration::Constant(c) => scope.declare(c.name.clone(), env.resolve(&c.ty)),
            Declaration::Variable { name, ty, .. } => {
                scope.declare(name.clone(), env.resolve(ty));
            }
            _ => {}
        }
    }
    for param in &control.params {
        scope.declare(param.name.clone(), env.resolve(&param.ty));
    }
    for local in &control.locals {
        match local {
            Declaration::Variable { name, ty, .. } => {
                scope.declare(name.clone(), env.resolve(ty));
            }
            Declaration::Constant(c) => scope.declare(c.name.clone(), env.resolve(&c.ty)),
            _ => {}
        }
    }
    for_each_statement_list(&control.apply.statements, &mut |list| {
        for stmt in list {
            match stmt {
                Statement::Declare { name, ty, .. } | Statement::Constant { name, ty, .. } => {
                    scope.declare(name.clone(), env.resolve(ty));
                }
                _ => {}
            }
        }
    });
    scope
}

/// Picks the `target`'th candidate site across every statement list of every
/// control (counted by `count_in`) and applies `mutate` to
/// `(list, ordinal-within-list)`.  Counting and application share one
/// traversal order, so phase 1 and phase 2 agree; `mutate` runs at most
/// once.
fn apply_at_nth_site(
    program: &mut Program,
    target: usize,
    count_in: &dyn Fn(&[Statement]) -> usize,
    mutate: &mut dyn FnMut(&mut Vec<Statement>, usize) -> Option<&'static str>,
) -> Option<&'static str> {
    let mut seen = 0usize;
    let mut fired = None;
    for control in program.controls_mut() {
        if fired.is_some() {
            break;
        }
        for_each_statement_list_mut(&mut control.apply.statements, &mut |list| {
            if fired.is_some() {
                return;
            }
            let here = count_in(list);
            if seen + here > target {
                fired = mutate(list, target - seen);
            }
            seen += here;
        });
    }
    fired
}

fn total_sites(program: &Program, count_in: &dyn Fn(&[Statement]) -> usize) -> usize {
    let mut total = 0usize;
    for control in program.controls() {
        for_each_statement_list(&control.apply.statements, &mut |list| {
            total += count_in(list)
        });
    }
    total
}

// ---------------------------------------------------------------------------
// AlgebraicRewrite — identity rewrites on assignment right-hand sides.
// ---------------------------------------------------------------------------

/// Rewrites the right-hand side of an assignment through a known algebraic
/// identity: `x ^ 0`, `x & all-ones`, `~~x`, `x << 0`.  The identity's
/// literal widths come from the assignment target's declared type, so the
/// rewrite is well-typed whenever the original assignment was.
pub struct AlgebraicRewrite;

/// The width of an assignment whose target is an unsigned `bit<N>` l-value
/// (the shapes the identities are defined on); `None` for anything else.
fn assign_width(env: &TypeEnv, scope: &Scope, stmt: &Statement) -> Option<u32> {
    let Statement::Assign { lhs, .. } = stmt else {
        return None;
    };
    match type_of(env, scope, lhs)? {
        Type::Bits {
            width,
            signed: false,
        } if width > 0 => Some(width),
        _ => None,
    }
}

fn rewrite_rhs(rhs: &mut Expr, width: u32, pick: u8) -> &'static str {
    // `~~x` needs the operand's own width to be inferable; an unsized
    // integer literal has none, so those sites fall back to `x ^ 0` (whose
    // sized right operand fixes the width for both sides).
    let unsized_literal = matches!(rhs, Expr::Int { width: None, .. });
    let old = std::mem::replace(rhs, Expr::Bool(false));
    let (new, rule) = match pick {
        1 => (
            Expr::binary(BinOp::BitAnd, old, Expr::uint(max_unsigned(width), width)),
            "and_all_ones",
        ),
        2 if !unsized_literal => (
            Expr::unary(UnOp::BitNot, Expr::unary(UnOp::BitNot, old)),
            "double_negation",
        ),
        3 => (
            Expr::binary(BinOp::Shl, old, Expr::uint(0, width)),
            "shift_zero",
        ),
        _ => (
            Expr::binary(BinOp::BitXor, old, Expr::uint(0, width)),
            "xor_zero",
        ),
    };
    *rhs = new;
    rule
}

impl Mutator for AlgebraicRewrite {
    fn name(&self) -> &'static str {
        "AlgebraicRewrite"
    }

    fn rules(&self) -> &'static [&'static str] {
        &["xor_zero", "and_all_ones", "double_negation", "shift_zero"]
    }

    fn apply(&self, program: &mut Program, rng: &mut StdRng) -> Option<&'static str> {
        let env = TypeEnv::from_program(program);
        // Phase 1: candidate assignments per control, under that control's
        // scope (needed to size the identity literals).
        let mut controls: Vec<(String, Scope, usize)> = Vec::new();
        let mut total = 0usize;
        for control in program.controls() {
            let scope = control_scope(&env, program, control);
            let mut count = 0usize;
            for_each_statement_list(&control.apply.statements, &mut |list| {
                count += list
                    .iter()
                    .filter(|s| assign_width(&env, &scope, s).is_some())
                    .count();
            });
            total += count;
            controls.push((control.name.clone(), scope, count));
        }
        if total == 0 {
            return None;
        }
        let target = rng.gen_range(0..total);
        let pick = rng.gen_range(0u8..4);
        // Phase 2: rewrite the target'th candidate in its control.
        let mut seen = 0usize;
        for (name, scope, count) in controls {
            if seen + count <= target {
                seen += count;
                continue;
            }
            let mut remaining = target - seen;
            let mut fired = None;
            let control = program
                .control_mut(&name)
                .expect("control name from phase 1");
            for_each_statement_list_mut(&mut control.apply.statements, &mut |list| {
                if fired.is_some() {
                    return;
                }
                for stmt in list.iter_mut() {
                    let Some(width) = assign_width(&env, &scope, stmt) else {
                        continue;
                    };
                    if remaining > 0 {
                        remaining -= 1;
                        continue;
                    }
                    let Statement::Assign { rhs, .. } = stmt else {
                        unreachable!("assign_width only accepts assignments");
                    };
                    fired = Some(rewrite_rhs(rhs, width, pick));
                    return;
                }
            });
            return fired;
        }
        None
    }
}

// ---------------------------------------------------------------------------
// ControlFlowWrap — block introduction / unwrapping and if-true hoisting.
// ---------------------------------------------------------------------------

/// Wraps and unwraps control flow without changing it: `s` ⇄ `{ s }`,
/// `s` → `if (true) { s }`, and `if (true) { s } …` → the taken branch.
/// Declarations are never wrapped (a block would change their scope) and
/// blocks containing declarations are never spliced, so name resolution is
/// preserved exactly.
pub struct ControlFlowWrap;

fn wrappable(stmt: &Statement) -> bool {
    !matches!(
        stmt,
        Statement::Declare { .. } | Statement::Constant { .. } | Statement::Empty
    )
}

fn splicable_block(stmt: &Statement) -> bool {
    matches!(stmt, Statement::Block(block) if !block.statements.iter().any(
        |s| matches!(s, Statement::Declare { .. } | Statement::Constant { .. })
    ))
}

fn hoistable_if_true(stmt: &Statement) -> bool {
    matches!(
        stmt,
        Statement::If {
            cond: Expr::Bool(true),
            ..
        }
    )
}

fn cfw_predicate(rule: &str) -> fn(&Statement) -> bool {
    match rule {
        "block_unwrap" => splicable_block,
        "if_true_hoist" => hoistable_if_true,
        _ => wrappable,
    }
}

/// Index of the `ordinal`'th statement in `list` satisfying `pred`.
fn nth_matching(list: &[Statement], pred: fn(&Statement) -> bool, ordinal: usize) -> Option<usize> {
    list.iter()
        .enumerate()
        .filter(|(_, s)| pred(s))
        .nth(ordinal)
        .map(|(index, _)| index)
}

impl Mutator for ControlFlowWrap {
    fn name(&self) -> &'static str {
        "ControlFlowWrap"
    }

    fn rules(&self) -> &'static [&'static str] {
        &[
            "block_wrap",
            "if_true_wrap",
            "block_unwrap",
            "if_true_hoist",
        ]
    }

    fn apply(&self, program: &mut Program, rng: &mut StdRng) -> Option<&'static str> {
        let rules = self.rules();
        let start = rng.gen_range(0..rules.len());
        for offset in 0..rules.len() {
            let rule = rules[(start + offset) % rules.len()];
            let pred = cfw_predicate(rule);
            let count_in = move |list: &[Statement]| list.iter().filter(|s| pred(s)).count();
            let total = total_sites(program, &count_in);
            if total == 0 {
                continue;
            }
            let target = rng.gen_range(0..total);
            return apply_at_nth_site(program, target, &count_in, &mut |list, ordinal| {
                let index = nth_matching(list, pred, ordinal)?;
                match rule {
                    "block_wrap" => {
                        let old = std::mem::replace(&mut list[index], Statement::Empty);
                        list[index] = Statement::Block(Block::new(vec![old]));
                    }
                    "if_true_wrap" => {
                        let old = std::mem::replace(&mut list[index], Statement::Empty);
                        list[index] = Statement::if_then(
                            Expr::Bool(true),
                            Statement::Block(Block::new(vec![old])),
                        );
                    }
                    "block_unwrap" => {
                        let Statement::Block(block) = list.remove(index) else {
                            unreachable!("splicable_block only accepts blocks");
                        };
                        for (offset, stmt) in block.statements.into_iter().enumerate() {
                            list.insert(index + offset, stmt);
                        }
                    }
                    "if_true_hoist" => {
                        let Statement::If { then_branch, .. } =
                            std::mem::replace(&mut list[index], Statement::Empty)
                        else {
                            unreachable!("hoistable_if_true only accepts if (true)");
                        };
                        list[index] = *then_branch;
                    }
                    _ => unreachable!("rule comes from ControlFlowWrap::rules"),
                }
                Some(rule)
            });
        }
        None
    }
}

// ---------------------------------------------------------------------------
// OpaqueGuard — dead code behind an opaquely false branch.
// ---------------------------------------------------------------------------

/// Injects a branch that can never be taken, guarded by an opaque condition
/// over fresh metadata: a new zero-initialised local (`__opq<n>`) compared
/// against its known value.  The dead branch writes only that local, so no
/// live state can be disturbed even if a buggy pass *does* take it.
pub struct OpaqueGuard;

fn fresh_opaque_name(program: &Program) -> String {
    let mut highest: Option<u32> = None;
    for control in program.controls() {
        for_each_statement_list(&control.apply.statements, &mut |list| {
            for stmt in list {
                if let Statement::Declare { name, .. } = stmt {
                    if let Some(index) = name.strip_prefix("__opq").and_then(|s| s.parse().ok()) {
                        highest = Some(highest.map_or(index, |h: u32| h.max(index)));
                    }
                }
            }
        });
    }
    format!("__opq{}", highest.map_or(0, |h| h + 1))
}

impl Mutator for OpaqueGuard {
    fn name(&self) -> &'static str {
        "OpaqueGuard"
    }

    fn rules(&self) -> &'static [&'static str] {
        &["opaque_false_branch"]
    }

    fn apply(&self, program: &mut Program, rng: &mut StdRng) -> Option<&'static str> {
        let count_in = |list: &[Statement]| list.len() + 1;
        let total = total_sites(program, &count_in);
        if total == 0 {
            return None;
        }
        let target = rng.gen_range(0..total);
        let fresh = fresh_opaque_name(program);
        apply_at_nth_site(program, target, &count_in, &mut |list, position| {
            let guard = Statement::if_then(
                Expr::binary(BinOp::Ne, Expr::path(&fresh), Expr::uint(0, 8)),
                Statement::Block(Block::new(vec![Statement::assign(
                    Expr::path(&fresh),
                    Expr::uint(1, 8),
                )])),
            );
            list.insert(position, guard);
            list.insert(
                position,
                Statement::Declare {
                    name: fresh.clone(),
                    ty: Type::bits(8),
                    init: Some(Expr::uint(0, 8)),
                },
            );
            Some("opaque_false_branch")
        })
    }
}

// ---------------------------------------------------------------------------
// ReorderIndependent — def/use-checked swap of adjacent assignments.
// ---------------------------------------------------------------------------

/// Swaps two adjacent assignments whose def/use sets are provably disjoint.
/// L-values are compared as full dotted paths with prefix overlap counted as
/// a conflict (`hdr.h` vs `hdr.h.a`), slices of a field conservatively both
/// read and write the whole field, and any call disqualifies the pair.
pub struct ReorderIndependent;

/// The full dotted path of a pure l-value chain (`hdr.h.a`); slices resolve
/// to their base field.  `None` for anything else.
fn lvalue_path(expr: &Expr) -> Option<String> {
    match expr {
        Expr::Path(name) => Some(name.clone()),
        Expr::Member { base, member } => Some(format!("{}.{member}", lvalue_path(base)?)),
        Expr::Slice { base, .. } => lvalue_path(base),
        _ => None,
    }
}

/// Collects the paths `expr` reads.  Returns `None` when the expression
/// contains anything opaque (a call, a member of a non-path base), in which
/// case the statement must not be reordered.
fn collect_read_paths(expr: &Expr, out: &mut Vec<String>) -> Option<()> {
    match expr {
        Expr::Bool(_) | Expr::Int { .. } => Some(()),
        Expr::Path(_) | Expr::Member { .. } | Expr::Slice { .. } => {
            out.push(lvalue_path(expr)?);
            Some(())
        }
        Expr::Unary { operand, .. } => collect_read_paths(operand, out),
        Expr::Cast { expr, .. } => collect_read_paths(expr, out),
        Expr::Binary { left, right, .. } => {
            collect_read_paths(left, out)?;
            collect_read_paths(right, out)
        }
        Expr::Ternary {
            cond,
            then_expr,
            else_expr,
        } => {
            collect_read_paths(cond, out)?;
            collect_read_paths(then_expr, out)?;
            collect_read_paths(else_expr, out)
        }
        Expr::Call(_) => None,
    }
}

/// `(written path, read paths)` of a call-free assignment.
fn assign_def_use(stmt: &Statement) -> Option<(String, Vec<String>)> {
    let Statement::Assign { lhs, rhs } = stmt else {
        return None;
    };
    let def = lvalue_path(lhs)?;
    let mut uses = Vec::new();
    collect_read_paths(rhs, &mut uses)?;
    // A partial (slice) write also reads the untouched bits of its base.
    if matches!(lhs, Expr::Slice { .. }) {
        uses.push(def.clone());
    }
    Some((def, uses))
}

fn paths_conflict(a: &str, b: &str) -> bool {
    a == b || a.starts_with(&format!("{b}.")) || b.starts_with(&format!("{a}."))
}

fn independent_pair(first: &Statement, second: &Statement) -> bool {
    if first == second {
        // Swapping identical statements is a no-op, not a mutation.
        return false;
    }
    let Some((def1, uses1)) = assign_def_use(first) else {
        return false;
    };
    let Some((def2, uses2)) = assign_def_use(second) else {
        return false;
    };
    !paths_conflict(&def1, &def2)
        && !uses2.iter().any(|used| paths_conflict(&def1, used))
        && !uses1.iter().any(|used| paths_conflict(&def2, used))
}

impl Mutator for ReorderIndependent {
    fn name(&self) -> &'static str {
        "ReorderIndependent"
    }

    fn rules(&self) -> &'static [&'static str] {
        &["swap_independent"]
    }

    fn apply(&self, program: &mut Program, rng: &mut StdRng) -> Option<&'static str> {
        let count_in = |list: &[Statement]| {
            (0..list.len().saturating_sub(1))
                .filter(|&i| independent_pair(&list[i], &list[i + 1]))
                .count()
        };
        let total = total_sites(program, &count_in);
        if total == 0 {
            return None;
        }
        let target = rng.gen_range(0..total);
        apply_at_nth_site(program, target, &count_in, &mut |list, ordinal| {
            let index = (0..list.len().saturating_sub(1))
                .filter(|&i| independent_pair(&list[i], &list[i + 1]))
                .nth(ordinal)?;
            list.swap(index, index + 1);
            Some("swap_independent")
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::registry::ALL_MUTATORS;
    use p4_ir::builder;
    use rand::SeedableRng;

    fn two_assign_program() -> Program {
        builder::v1model_program(
            vec![],
            Block::new(vec![
                Statement::assign(Expr::dotted(&["hdr", "h", "a"]), Expr::uint(1, 8)),
                Statement::assign(Expr::dotted(&["hdr", "h", "b"]), Expr::uint(2, 8)),
            ]),
        )
    }

    #[test]
    fn catalogue_matches_the_registry() {
        let mutators = standard_mutators();
        assert_eq!(mutators.len(), ALL_MUTATORS.len());
        for (mutator, (name, rules)) in mutators.iter().zip(ALL_MUTATORS) {
            assert_eq!(mutator.name(), *name);
            assert_eq!(mutator.rules(), *rules);
        }
    }

    #[test]
    fn every_mutator_fires_on_a_simple_program_and_stays_well_typed() {
        for mutator in standard_mutators() {
            let mut program = two_assign_program();
            let rule = mutator
                .apply(&mut program, &mut StdRng::seed_from_u64(7))
                .unwrap_or_else(|| panic!("{} found no site", mutator.name()));
            assert!(mutator.rules().contains(&rule), "{rule}");
            assert!(
                p4_check::check_program(&program).is_empty(),
                "{} broke typing: {}",
                mutator.name(),
                p4_ir::print_program(&program)
            );
            assert_ne!(
                p4_ir::print_program(&program),
                p4_ir::print_program(&two_assign_program()),
                "{} must actually change the program",
                mutator.name()
            );
        }
    }

    #[test]
    fn opaque_guard_names_are_fresh() {
        let mut program = two_assign_program();
        for _ in 0..3 {
            OpaqueGuard
                .apply(&mut program, &mut StdRng::seed_from_u64(11))
                .expect("insertion sites always exist");
        }
        let text = p4_ir::print_program(&program);
        for index in 0..3 {
            assert!(text.contains(&format!("__opq{index}")), "{text}");
        }
    }

    #[test]
    fn reorder_respects_def_use_dependencies() {
        // b = a; a = 1;  — dependent, must never swap.
        let dependent = builder::v1model_program(
            vec![],
            Block::new(vec![
                Statement::assign(
                    Expr::dotted(&["hdr", "h", "b"]),
                    Expr::dotted(&["hdr", "h", "a"]),
                ),
                Statement::assign(Expr::dotted(&["hdr", "h", "a"]), Expr::uint(1, 8)),
            ]),
        );
        let mut program = dependent.clone();
        assert_eq!(
            ReorderIndependent.apply(&mut program, &mut StdRng::seed_from_u64(3)),
            None
        );

        let mut independent = two_assign_program();
        assert_eq!(
            ReorderIndependent.apply(&mut independent, &mut StdRng::seed_from_u64(3)),
            Some("swap_independent")
        );
    }

    #[test]
    fn if_true_hoist_recovers_the_wrapped_statement() {
        let mut program = two_assign_program();
        ControlFlowWrap
            .apply(&mut program, &mut StdRng::seed_from_u64(1))
            .expect("wrap site exists");
        // Keep applying until a hoist/unwrap undoes some wrapping; the
        // program must remain well-typed throughout.
        for step in 0..6u64 {
            ControlFlowWrap.apply(&mut program, &mut StdRng::seed_from_u64(step));
            assert!(p4_check::check_program(&program).is_empty());
        }
    }
}
