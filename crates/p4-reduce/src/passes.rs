//! The reduction pass catalogue.
//!
//! Each [`ReductionPass`] proposes structurally smaller candidate programs
//! and keeps a candidate whenever the driver's `check` callback accepts it
//! (the callback typechecks the candidate and asks the bug oracle whether
//! the original finding still reproduces).  Passes are pure functions of
//! their input program and the sequence of `check` verdicts, which keeps the
//! whole reducer deterministic.

use crate::ddmin::ddmin;
use p4_ir::visit::{walk_statement, Visitor};
use p4_ir::{BinOp, Block, Declaration, Expr, Program, Statement, Transition, Type, UnOp};

/// The candidate-acceptance callback handed to every pass: returns true when
/// the candidate typechecks and still reproduces the target bug.
pub type Check<'a> = dyn FnMut(&Program) -> bool + 'a;

/// One reduction strategy over the program AST.
pub trait ReductionPass {
    /// Stable name used in stats and debug output.
    fn name(&self) -> &'static str;

    /// Tries to shrink `program`, consulting `check` for every candidate.
    /// Returns the reduced program if any candidate was accepted.
    fn reduce(&self, program: &Program, check: &mut Check) -> Option<Program>;
}

/// Counts executable statements across every block of the program (control
/// bodies, actions, functions, parser states, nested blocks).  This is the
/// size metric reduction reports use — AST node counts over-weight wide
/// expressions.
pub fn statement_count(program: &Program) -> usize {
    struct Counter {
        count: usize,
    }
    impl Visitor for Counter {
        fn visit_statement(&mut self, stmt: &Statement) {
            self.count += 1;
            walk_statement(self, stmt);
        }
    }
    let mut counter = Counter { count: 0 };
    counter.visit_program(program);
    counter.count
}

// ---------------------------------------------------------------------------
// Pass 1: ddmin over the top-level declaration list.
// ---------------------------------------------------------------------------

/// Delta-debugs the top-level declaration list: unused headers, constants,
/// actions, functions and tables disappear wholesale.  Declarations the
/// package instantiation or any surviving code still references are
/// protected implicitly — removing them produces an ill-typed candidate,
/// which the `check` callback rejects before the oracle ever runs.
pub struct DeclarationDdmin;

impl ReductionPass for DeclarationDdmin {
    fn name(&self) -> &'static str {
        "decl-ddmin"
    }

    fn reduce(&self, program: &Program, check: &mut Check) -> Option<Program> {
        // Ddmin runs over declaration indices, so each candidate clones
        // only the declarations it keeps, once.
        let keeping = |kept: &[usize]| Program {
            architecture: program.architecture.clone(),
            declarations: kept
                .iter()
                .map(|&index| program.declarations[index].clone())
                .collect(),
            package: program.package.clone(),
        };
        let indices: Vec<usize> = (0..program.declarations.len()).collect();
        let reduced = ddmin(&indices, &mut |subset| {
            subset.len() < indices.len() && check(&keeping(subset))
        });
        (reduced.len() < indices.len()).then(|| keeping(&reduced))
    }
}

// ---------------------------------------------------------------------------
// Statement-list plumbing shared by the statement passes.
// ---------------------------------------------------------------------------

/// Applies `f` to every statement list in the program (control `apply`
/// blocks, action/function bodies — top-level and control-local — parser
/// state bodies, and nested blocks and `if` arms), in a fixed deterministic
/// order.
fn for_each_stmt_list(program: &mut Program, f: &mut dyn FnMut(&mut Vec<Statement>)) {
    fn in_stmt(stmt: &mut Statement, f: &mut dyn FnMut(&mut Vec<Statement>)) {
        match stmt {
            Statement::Block(block) => in_block(block, f),
            Statement::If {
                then_branch,
                else_branch,
                ..
            } => {
                in_stmt(then_branch, f);
                if let Some(else_stmt) = else_branch {
                    in_stmt(else_stmt, f);
                }
            }
            _ => {}
        }
    }
    fn in_block(block: &mut Block, f: &mut dyn FnMut(&mut Vec<Statement>)) {
        f(&mut block.statements);
        for stmt in &mut block.statements {
            in_stmt(stmt, f);
        }
    }
    fn in_decl(decl: &mut Declaration, f: &mut dyn FnMut(&mut Vec<Statement>)) {
        match decl {
            Declaration::Action(a) => in_block(&mut a.body, f),
            Declaration::Function(func) => in_block(&mut func.body, f),
            Declaration::Control(c) => {
                for local in &mut c.locals {
                    in_decl(local, f);
                }
                in_block(&mut c.apply, f);
            }
            Declaration::Parser(p) => {
                for state in &mut p.states {
                    f(&mut state.statements);
                    for stmt in &mut state.statements {
                        in_stmt(stmt, f);
                    }
                }
            }
            _ => {}
        }
    }
    for decl in &mut program.declarations {
        in_decl(decl, f);
    }
}

/// Read-only twin of [`for_each_stmt_list`]: same sites, same order,
/// without requiring a mutable (or cloned) program.  The two must stay in
/// lock-step; `stmt_list_traversals_agree` pins them together.
fn for_each_stmt_list_ref(program: &Program, f: &mut dyn FnMut(&[Statement])) {
    fn in_stmt(stmt: &Statement, f: &mut dyn FnMut(&[Statement])) {
        match stmt {
            Statement::Block(block) => in_block(block, f),
            Statement::If {
                then_branch,
                else_branch,
                ..
            } => {
                in_stmt(then_branch, f);
                if let Some(else_stmt) = else_branch {
                    in_stmt(else_stmt, f);
                }
            }
            _ => {}
        }
    }
    fn in_block(block: &Block, f: &mut dyn FnMut(&[Statement])) {
        f(&block.statements);
        for stmt in &block.statements {
            in_stmt(stmt, f);
        }
    }
    fn in_decl(decl: &Declaration, f: &mut dyn FnMut(&[Statement])) {
        match decl {
            Declaration::Action(a) => in_block(&a.body, f),
            Declaration::Function(func) => in_block(&func.body, f),
            Declaration::Control(c) => {
                for local in &c.locals {
                    in_decl(local, f);
                }
                in_block(&c.apply, f);
            }
            Declaration::Parser(p) => {
                for state in &p.states {
                    f(&state.statements);
                    for stmt in &state.statements {
                        in_stmt(stmt, f);
                    }
                }
            }
            _ => {}
        }
    }
    for decl in &program.declarations {
        in_decl(decl, f);
    }
}

/// Number of statement-list sites in the program.
fn stmt_list_count(program: &Program) -> usize {
    let mut count = 0usize;
    for_each_stmt_list_ref(program, &mut |_| count += 1);
    count
}

/// A copy of `program` with statement-list site `site` replaced by `list`.
fn with_stmt_list(program: &Program, site: usize, list: &[Statement]) -> Program {
    let mut candidate = program.clone();
    let mut index = 0usize;
    for_each_stmt_list(&mut candidate, &mut |statements| {
        if index == site {
            *statements = list.to_vec();
        }
        index += 1;
    });
    candidate
}

/// The statement list at site `site`.
fn stmt_list_at(program: &Program, site: usize) -> Vec<Statement> {
    let mut index = 0usize;
    let mut result = Vec::new();
    for_each_stmt_list_ref(program, &mut |statements| {
        if index == site {
            result = statements.to_vec();
        }
        index += 1;
    });
    result
}

// ---------------------------------------------------------------------------
// Pass 2: ddmin inside every statement list.
// ---------------------------------------------------------------------------

/// Delta-debugs every statement list in the program, outermost first.  This
/// is where most of the shrinking happens: of the hundreds of statements in
/// a random program, typically only a handful interact with the defective
/// code path.  Def-use chains are respected for free — deleting the
/// declaration of a still-used variable fails `p4_check` re-typechecking,
/// so the candidate never reaches the oracle.
pub struct StatementDdmin;

impl ReductionPass for StatementDdmin {
    fn name(&self) -> &'static str {
        "stmt-ddmin"
    }

    fn reduce(&self, program: &Program, check: &mut Check) -> Option<Program> {
        let mut current = program.clone();
        let mut progressed = false;
        let mut site = 0usize;
        // The site count shrinks as nested blocks get deleted; re-evaluate
        // every iteration and simply stop at the (possibly reduced) end.
        while site < stmt_list_count(&current) {
            let list = stmt_list_at(&current, site);
            if !list.is_empty() {
                let reduced = ddmin(&list, &mut |subset| {
                    if subset.len() == list.len() {
                        return false;
                    }
                    check(&with_stmt_list(&current, site, subset))
                });
                if reduced.len() < list.len() {
                    current = with_stmt_list(&current, site, &reduced);
                    progressed = true;
                }
            }
            site += 1;
        }
        progressed.then_some(current)
    }
}

// ---------------------------------------------------------------------------
// Pass 3: expression simplification.
// ---------------------------------------------------------------------------

/// Simplification candidates for one expression node, smallest first.  Every
/// candidate preserves the node's type by construction where the IR makes
/// that decidable locally (operand hoisting, boolean constants, zero
/// constants of a known width); anything else is filtered by re-typechecking.
fn expr_candidates(expr: &Expr) -> Vec<Expr> {
    /// A zero constant with the width of `model`, when that width is
    /// locally known.
    fn zero_like(model: &Expr) -> Option<Expr> {
        match model {
            Expr::Int {
                width: Some(width), ..
            } => Some(Expr::uint(0, *width)),
            _ => None,
        }
    }
    match expr {
        Expr::Binary { op, left, right } => {
            let mut candidates = Vec::new();
            if op.is_comparison() {
                candidates.push(Expr::Bool(true));
                candidates.push(Expr::Bool(false));
            } else if op.is_logical() {
                candidates.push(Expr::Bool(true));
                candidates.push(Expr::Bool(false));
                candidates.push((**left).clone());
                candidates.push((**right).clone());
            } else {
                match op {
                    // The result width of a shift is the left operand's;
                    // the right operand cannot substitute for it.
                    BinOp::Shl | BinOp::Shr => candidates.push((**left).clone()),
                    // Concatenation changes width; no operand substitutes.
                    BinOp::Concat => {}
                    _ => {
                        if let Some(zero) = zero_like(left).or_else(|| zero_like(right)) {
                            candidates.push(zero);
                        }
                        candidates.push((**left).clone());
                        candidates.push((**right).clone());
                    }
                }
            }
            candidates
        }
        Expr::Ternary {
            then_expr,
            else_expr,
            ..
        } => {
            vec![(**then_expr).clone(), (**else_expr).clone()]
        }
        // `!`, `~` and `-` all preserve their operand's type.
        Expr::Unary {
            op: UnOp::Not | UnOp::BitNot | UnOp::Neg,
            operand,
        } => {
            vec![(**operand).clone()]
        }
        Expr::Cast {
            ty: Type::Bits {
                width,
                signed: false,
            },
            ..
        } => vec![Expr::uint(0, *width)],
        Expr::Slice { hi, lo, .. } => vec![Expr::uint(0, hi - lo + 1)],
        Expr::Int {
            value,
            width: Some(width),
            ..
        } if *value != 0 => {
            vec![Expr::uint(0, *width)]
        }
        _ => Vec::new(),
    }
}

/// Pre-order visit of every simplifiable expression position: assignment
/// right-hand sides, call arguments, conditions, initialisers and return
/// values.  Assignment left-hand sides are skipped — they must stay
/// l-values, so no candidate we generate could survive the type checker.
fn find_expr(program: &mut Program, target: usize) -> (usize, Option<&mut Expr>) {
    fn in_expr<'a>(expr: &'a mut Expr, counter: &mut usize, target: usize) -> Option<&'a mut Expr> {
        if *counter == target {
            return Some(expr);
        }
        *counter += 1;
        match expr {
            Expr::Member { base, .. } | Expr::Slice { base, .. } => in_expr(base, counter, target),
            Expr::Unary { operand, .. } => in_expr(operand, counter, target),
            Expr::Cast { expr, .. } => in_expr(expr, counter, target),
            Expr::Binary { left, right, .. } => {
                if let Some(found) = in_expr(left, counter, target) {
                    return Some(found);
                }
                in_expr(right, counter, target)
            }
            Expr::Ternary {
                cond,
                then_expr,
                else_expr,
            } => {
                if let Some(found) = in_expr(cond, counter, target) {
                    return Some(found);
                }
                if let Some(found) = in_expr(then_expr, counter, target) {
                    return Some(found);
                }
                in_expr(else_expr, counter, target)
            }
            Expr::Call(call) => {
                for arg in &mut call.args {
                    if let Some(found) = in_expr(arg, counter, target) {
                        return Some(found);
                    }
                }
                None
            }
            _ => None,
        }
    }

    fn in_stmt<'a>(
        stmt: &'a mut Statement,
        counter: &mut usize,
        target: usize,
    ) -> Option<&'a mut Expr> {
        match stmt {
            Statement::Assign { rhs, .. } => in_expr(rhs, counter, target),
            Statement::Call(call) => {
                for arg in &mut call.args {
                    if let Some(found) = in_expr(arg, counter, target) {
                        return Some(found);
                    }
                }
                None
            }
            Statement::If {
                cond,
                then_branch,
                else_branch,
            } => {
                if let Some(found) = in_expr(cond, counter, target) {
                    return Some(found);
                }
                if let Some(found) = in_stmt(then_branch, counter, target) {
                    return Some(found);
                }
                match else_branch {
                    Some(else_stmt) => in_stmt(else_stmt, counter, target),
                    None => None,
                }
            }
            Statement::Block(block) => in_block(block, counter, target),
            Statement::Declare {
                init: Some(init), ..
            } => in_expr(init, counter, target),
            Statement::Constant { value, .. } => in_expr(value, counter, target),
            Statement::Return(Some(expr)) => in_expr(expr, counter, target),
            _ => None,
        }
    }
    fn in_block<'a>(
        block: &'a mut Block,
        counter: &mut usize,
        target: usize,
    ) -> Option<&'a mut Expr> {
        for stmt in &mut block.statements {
            if let Some(found) = in_stmt(stmt, counter, target) {
                return Some(found);
            }
        }
        None
    }

    let mut counter = 0usize;
    for decl in &mut program.declarations {
        let found = match decl {
            Declaration::Action(a) => in_block(&mut a.body, &mut counter, target),
            Declaration::Function(f) => in_block(&mut f.body, &mut counter, target),
            Declaration::Control(c) => {
                let mut found = None;
                for local in &mut c.locals {
                    // Mirrors `for_each_stmt_list`: control locals with a
                    // body (actions and functions) are simplifiable too.
                    let body = match local {
                        Declaration::Action(a) => Some(&mut a.body),
                        Declaration::Function(f) => Some(&mut f.body),
                        _ => None,
                    };
                    if let Some(body) = body {
                        found = in_block(body, &mut counter, target);
                        if found.is_some() {
                            break;
                        }
                    }
                }
                match found {
                    Some(found) => Some(found),
                    None => in_block(&mut c.apply, &mut counter, target),
                }
            }
            Declaration::Parser(p) => {
                let mut found = None;
                for state in &mut p.states {
                    for stmt in &mut state.statements {
                        found = in_stmt(stmt, &mut counter, target);
                        if found.is_some() {
                            break;
                        }
                    }
                    if found.is_some() {
                        break;
                    }
                }
                found
            }
            _ => None,
        };
        if found.is_some() {
            return (counter, found);
        }
    }
    (counter, None)
}

/// Read-only snapshot of the expression node at pre-order index `target`
/// (a clone of the node alone — never of the whole program, which keeps
/// the per-site cost of `ExprSimplify`'s scan small).  Visits exactly the
/// positions [`find_expr`] visits, in the same order; the two are pinned
/// node-by-node by the `expr_traversals_agree` test.
fn expr_at(program: &Program, target: usize) -> Option<Expr> {
    fn in_expr(expr: &Expr, counter: &mut usize, target: usize) -> Option<Expr> {
        if *counter == target {
            return Some(expr.clone());
        }
        *counter += 1;
        match expr {
            Expr::Member { base, .. } | Expr::Slice { base, .. } => in_expr(base, counter, target),
            Expr::Unary { operand, .. } => in_expr(operand, counter, target),
            Expr::Cast { expr, .. } => in_expr(expr, counter, target),
            Expr::Binary { left, right, .. } => {
                in_expr(left, counter, target).or_else(|| in_expr(right, counter, target))
            }
            Expr::Ternary {
                cond,
                then_expr,
                else_expr,
            } => in_expr(cond, counter, target)
                .or_else(|| in_expr(then_expr, counter, target))
                .or_else(|| in_expr(else_expr, counter, target)),
            Expr::Call(call) => call
                .args
                .iter()
                .find_map(|arg| in_expr(arg, counter, target)),
            _ => None,
        }
    }
    // Top-level expressions of one statement, in `find_expr` order.  Nested
    // statements are *not* recursed into here: the statement-list traversal
    // below already enumerates every nested list, and `if` arms that are
    // not blocks are handled explicitly.
    fn stmt_exprs(stmt: &Statement, counter: &mut usize, target: usize) -> Option<Expr> {
        match stmt {
            Statement::Assign { rhs, .. } => in_expr(rhs, counter, target),
            Statement::Call(call) => call
                .args
                .iter()
                .find_map(|arg| in_expr(arg, counter, target)),
            Statement::If {
                cond,
                then_branch,
                else_branch,
            } => {
                if let Some(found) = in_expr(cond, counter, target) {
                    return Some(found);
                }
                if let Some(found) = stmt_exprs(then_branch, counter, target) {
                    return Some(found);
                }
                match else_branch {
                    Some(else_stmt) => stmt_exprs(else_stmt, counter, target),
                    None => None,
                }
            }
            Statement::Block(block) => block
                .statements
                .iter()
                .find_map(|s| stmt_exprs(s, counter, target)),
            Statement::Declare {
                init: Some(init), ..
            } => in_expr(init, counter, target),
            Statement::Constant { value, .. } => in_expr(value, counter, target),
            Statement::Return(Some(expr)) => in_expr(expr, counter, target),
            _ => None,
        }
    }
    // `find_expr` walks bodies in declaration order and recurses through
    // nested statements from each body root; replaying the same recursion
    // from only the *top-level* body lists reproduces the same order.
    fn in_decl(decl: &Declaration, counter: &mut usize, target: usize) -> Option<Expr> {
        match decl {
            Declaration::Action(a) => a
                .body
                .statements
                .iter()
                .find_map(|s| stmt_exprs(s, counter, target)),
            Declaration::Function(f) => f
                .body
                .statements
                .iter()
                .find_map(|s| stmt_exprs(s, counter, target)),
            Declaration::Control(c) => c
                .locals
                .iter()
                .filter(|l| matches!(l, Declaration::Action(_) | Declaration::Function(_)))
                .find_map(|l| in_decl(l, counter, target))
                .or_else(|| {
                    c.apply
                        .statements
                        .iter()
                        .find_map(|s| stmt_exprs(s, counter, target))
                }),
            Declaration::Parser(p) => p.states.iter().find_map(|state| {
                state
                    .statements
                    .iter()
                    .find_map(|s| stmt_exprs(s, counter, target))
            }),
            _ => None,
        }
    }
    let mut counter = 0usize;
    program
        .declarations
        .iter()
        .find_map(|decl| in_decl(decl, &mut counter, target))
}

/// Greedy expression shrinking: walks every expression position in pre-order
/// and tries to replace the subexpression with a typed constant or one of
/// its own operands, keeping the first accepted candidate and re-examining
/// the (now smaller) node before moving on.
pub struct ExprSimplify;

impl ReductionPass for ExprSimplify {
    fn name(&self) -> &'static str {
        "expr-simplify"
    }

    fn reduce(&self, program: &Program, check: &mut Check) -> Option<Program> {
        let mut current = program.clone();
        let mut progressed = false;
        let mut site = 0usize;
        // Snapshot the node at `site` (if any) and try its candidates.
        while let Some(node) = expr_at(&current, site) {
            let node_size = node.size();
            let candidates = expr_candidates(&node);
            let mut accepted = false;
            for candidate_expr in candidates {
                // Filter on the snapshot before paying for a program clone.
                // Equal-size replacements are allowed only for the
                // non-re-proposable constant rewrites (literal zeroing), so
                // the greedy revisit loop still terminates.
                if candidate_expr == node || candidate_expr.size() > node_size {
                    continue;
                }
                let mut candidate = current.clone();
                let (_, slot) = find_expr(&mut candidate, site);
                *slot.expect("site was just observed") = candidate_expr;
                if check(&candidate) {
                    current = candidate;
                    progressed = true;
                    accepted = true;
                    break;
                }
            }
            if !accepted {
                site += 1;
            }
            // If accepted, revisit the same site: the replacement may
            // itself be simplifiable (and strictly shrank, so this
            // terminates).
        }
        progressed.then_some(current)
    }
}

// ---------------------------------------------------------------------------
// Pass 4: structural pruning of tables and parser states.
// ---------------------------------------------------------------------------

/// Prunes coarse structure that ddmin over statements cannot reach: whole
/// control-local declarations (tables, actions, variables), table key
/// elements and action lists, parser `select` transitions (collapsed to the
/// default target) and entire parser states (with transitions into them
/// redirected to `accept`).
pub struct StructurePrune;

impl StructurePrune {
    fn prune_control_locals(program: &Program, check: &mut Check) -> Option<Program> {
        let mut current = program.clone();
        let mut progressed = false;
        for decl_index in 0..current.declarations.len() {
            let Declaration::Control(control) = &current.declarations[decl_index] else {
                continue;
            };
            let locals = control.locals.clone();
            if locals.is_empty() {
                continue;
            }
            let reduced = ddmin(&locals, &mut |subset| {
                if subset.len() == locals.len() {
                    return false;
                }
                let mut candidate = current.clone();
                let Declaration::Control(control) = &mut candidate.declarations[decl_index] else {
                    unreachable!("declaration kinds are stable under local pruning");
                };
                control.locals = subset.to_vec();
                check(&candidate)
            });
            if reduced.len() < locals.len() {
                let Declaration::Control(control) = &mut current.declarations[decl_index] else {
                    unreachable!("declaration kinds are stable under local pruning");
                };
                control.locals = reduced;
                progressed = true;
            }
        }
        progressed.then_some(current)
    }

    fn prune_tables(program: &Program, check: &mut Check) -> Option<Program> {
        let mut current = program.clone();
        let mut progressed = false;
        // Table sites: top-level tables and control-local tables, addressed
        // by (declaration index, optional local index).
        let mut sites: Vec<(usize, Option<usize>)> = Vec::new();
        for (index, decl) in current.declarations.iter().enumerate() {
            match decl {
                Declaration::Table(_) => sites.push((index, None)),
                Declaration::Control(control) => {
                    for (local_index, local) in control.locals.iter().enumerate() {
                        if matches!(local, Declaration::Table(_)) {
                            sites.push((index, Some(local_index)));
                        }
                    }
                }
                _ => {}
            }
        }
        let table_at = |program: &Program, site: &(usize, Option<usize>)| {
            let decl = &program.declarations[site.0];
            let decl = match site.1 {
                Some(local_index) => match decl {
                    Declaration::Control(control) => &control.locals[local_index],
                    _ => decl,
                },
                None => decl,
            };
            match decl {
                Declaration::Table(table) => Some(table.clone()),
                _ => None,
            }
        };
        let with_table =
            |program: &Program, site: &(usize, Option<usize>), table: p4_ir::TableDecl| {
                let mut candidate = program.clone();
                let slot = match site.1 {
                    Some(local_index) => match &mut candidate.declarations[site.0] {
                        Declaration::Control(control) => &mut control.locals[local_index],
                        other => other,
                    },
                    None => &mut candidate.declarations[site.0],
                };
                *slot = Declaration::Table(table);
                candidate
            };
        for site in &sites {
            // Drop key elements one at a time (greedy, first-to-last).
            let mut accepted = true;
            while accepted {
                accepted = false;
                let Some(table) = table_at(&current, site) else {
                    break;
                };
                for key_index in 0..table.keys.len() {
                    let mut pruned = table.clone();
                    pruned.keys.remove(key_index);
                    let candidate = with_table(&current, site, pruned);
                    if check(&candidate) {
                        current = candidate;
                        progressed = true;
                        accepted = true;
                        break;
                    }
                }
            }
            // Drop non-default actions from the action list.
            let mut accepted = true;
            while accepted {
                accepted = false;
                let Some(table) = table_at(&current, site) else {
                    break;
                };
                for action_index in 0..table.actions.len() {
                    if table.actions.len() <= 1 {
                        break;
                    }
                    if table.actions[action_index].name == table.default_action.name {
                        continue;
                    }
                    let mut pruned = table.clone();
                    pruned.actions.remove(action_index);
                    let candidate = with_table(&current, site, pruned);
                    if check(&candidate) {
                        current = candidate;
                        progressed = true;
                        accepted = true;
                        break;
                    }
                }
            }
        }
        progressed.then_some(current)
    }

    fn prune_parser_states(program: &Program, check: &mut Check) -> Option<Program> {
        let mut current = program.clone();
        let mut progressed = false;
        for decl_index in 0..current.declarations.len() {
            if !matches!(current.declarations[decl_index], Declaration::Parser(_)) {
                continue;
            }
            // Collapse `select` transitions to their default target.
            let mut accepted = true;
            while accepted {
                accepted = false;
                let Declaration::Parser(parser) = &current.declarations[decl_index] else {
                    break;
                };
                for (state_index, state) in parser.states.iter().enumerate() {
                    if let Transition::Select { cases, .. } = &state.transition {
                        let default_target = cases
                            .iter()
                            .find(|case| case.value.is_none())
                            .map(|case| case.next_state.clone())
                            .unwrap_or_else(|| "accept".to_string());
                        let mut candidate = current.clone();
                        let Declaration::Parser(parser) = &mut candidate.declarations[decl_index]
                        else {
                            unreachable!("declaration kinds are stable under state pruning");
                        };
                        parser.states[state_index].transition = Transition::Direct(default_target);
                        if check(&candidate) {
                            current = candidate;
                            progressed = true;
                            accepted = true;
                            break;
                        }
                    }
                }
            }
            // Remove whole states, redirecting inbound transitions to
            // `accept`.  The `start` state is the entry point and stays.
            let mut accepted = true;
            while accepted {
                accepted = false;
                let Declaration::Parser(parser) = &current.declarations[decl_index] else {
                    break;
                };
                let removable: Vec<String> = parser
                    .states
                    .iter()
                    .filter(|state| state.name != "start")
                    .map(|state| state.name.clone())
                    .collect();
                for name in removable {
                    let mut candidate = current.clone();
                    let Declaration::Parser(parser) = &mut candidate.declarations[decl_index]
                    else {
                        unreachable!("declaration kinds are stable under state pruning");
                    };
                    parser.states.retain(|state| state.name != name);
                    for state in &mut parser.states {
                        match &mut state.transition {
                            Transition::Direct(target) if *target == name => {
                                *target = "accept".to_string();
                            }
                            Transition::Select { cases, .. } => {
                                for case in cases {
                                    if case.next_state == name {
                                        case.next_state = "accept".to_string();
                                    }
                                }
                            }
                            _ => {}
                        }
                    }
                    if check(&candidate) {
                        current = candidate;
                        progressed = true;
                        accepted = true;
                        break;
                    }
                }
            }
        }
        progressed.then_some(current)
    }
}

impl ReductionPass for StructurePrune {
    fn name(&self) -> &'static str {
        "structure-prune"
    }

    fn reduce(&self, program: &Program, check: &mut Check) -> Option<Program> {
        let mut current = program.clone();
        let mut progressed = false;
        if let Some(reduced) = Self::prune_control_locals(&current, check) {
            current = reduced;
            progressed = true;
        }
        if let Some(reduced) = Self::prune_tables(&current, check) {
            current = reduced;
            progressed = true;
        }
        if let Some(reduced) = Self::prune_parser_states(&current, check) {
            current = reduced;
            progressed = true;
        }
        progressed.then_some(current)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use p4_ir::builder;

    #[test]
    fn statement_count_counts_nested_statements() {
        let program = builder::v1model_program(
            vec![],
            Block::new(vec![Statement::if_else(
                Expr::Bool(true),
                Statement::Block(Block::new(vec![
                    Statement::assign(Expr::dotted(&["hdr", "h", "a"]), Expr::uint(1, 8)),
                    Statement::Exit,
                ])),
                Statement::Empty,
            )]),
        );
        // The skeleton parser contributes extract statements as well; the
        // ingress contributes if + block + assign + exit + empty = 5.
        assert!(statement_count(&program) >= 5);
    }

    #[test]
    fn declaration_ddmin_drops_unreferenced_declarations() {
        let program = builder::v1model_program(
            vec![],
            Block::new(vec![Statement::assign(
                Expr::dotted(&["hdr", "h", "a"]),
                Expr::uint(1, 8),
            )]),
        );
        // Accept everything that still contains the ingress control: the
        // pass should strip as much as the callback allows.
        let before = program.declarations.len();
        let reduced = DeclarationDdmin
            .reduce(&program, &mut |candidate: &Program| {
                candidate.control("ingress_impl").is_some()
            })
            .expect("some declaration is droppable");
        assert!(reduced.declarations.len() < before);
    }

    #[test]
    fn stmt_list_sites_cover_nested_blocks() {
        let program = builder::v1model_program(
            vec![],
            Block::new(vec![Statement::Block(Block::new(vec![Statement::Exit]))]),
        );
        // start-state list, parse_h list (skeleton parser), ingress apply,
        // nested block — at least 3 sites exist.
        assert!(stmt_list_count(&program) >= 3);
    }

    /// A program exercising every traversal corner: control-local action
    /// *and* function bodies, nested blocks, `if` arms, parser states.
    fn traversal_fixture() -> Program {
        use p4_ir::{ActionDecl, Declaration, FunctionDecl, Param, Type};
        let action = ActionDecl {
            name: "act".into(),
            params: vec![],
            body: Block::new(vec![Statement::assign(
                Expr::dotted(&["hdr", "h", "a"]),
                Expr::binary(
                    BinOp::Add,
                    Expr::dotted(&["hdr", "h", "b"]),
                    Expr::uint(1, 8),
                ),
            )]),
        };
        let function = FunctionDecl {
            name: "fun".into(),
            return_type: Type::bits(8),
            params: vec![Param::new(p4_ir::Direction::In, "x", Type::bits(8))],
            body: Block::new(vec![Statement::Return(Some(Expr::binary(
                BinOp::Mul,
                Expr::path("x"),
                Expr::uint(2, 8),
            )))]),
        };
        builder::v1model_program(
            vec![Declaration::Action(action), Declaration::Function(function)],
            Block::new(vec![Statement::if_else(
                Expr::binary(
                    BinOp::Lt,
                    Expr::dotted(&["hdr", "h", "a"]),
                    Expr::uint(9, 8),
                ),
                Statement::Block(Block::new(vec![Statement::assign(
                    Expr::dotted(&["meta", "flag"]),
                    Expr::ternary(Expr::Bool(true), Expr::uint(1, 8), Expr::uint(2, 8)),
                )])),
                Statement::assign(Expr::dotted(&["meta", "flag"]), Expr::uint(3, 8)),
            )]),
        )
    }

    /// The read-only and mutable statement-list traversals enumerate the
    /// same sites in the same order.
    #[test]
    fn stmt_list_traversals_agree() {
        let program = traversal_fixture();
        let mut ref_lists: Vec<Vec<Statement>> = Vec::new();
        for_each_stmt_list_ref(&program, &mut |list| ref_lists.push(list.to_vec()));
        let mut mut_lists: Vec<Vec<Statement>> = Vec::new();
        let mut scratch = program.clone();
        for_each_stmt_list(&mut scratch, &mut |list| mut_lists.push(list.clone()));
        assert_eq!(ref_lists, mut_lists);
        assert_eq!(ref_lists.len(), stmt_list_count(&program));
    }

    /// `expr_at` (read-only snapshot) and `find_expr` (mutable applier)
    /// agree node-by-node — including inside control-local function bodies.
    #[test]
    fn expr_traversals_agree() {
        let program = traversal_fixture();
        let mut sites = 0usize;
        let mut saw_function_body_expr = false;
        while let Some(snapshot) = expr_at(&program, sites) {
            let mut scratch = program.clone();
            let (_, node) = find_expr(&mut scratch, sites);
            assert_eq!(Some(&snapshot), node.as_deref(), "site {sites}");
            if snapshot == Expr::binary(BinOp::Mul, Expr::path("x"), Expr::uint(2, 8)) {
                saw_function_body_expr = true;
            }
            sites += 1;
        }
        assert!(
            sites >= 10,
            "fixture should expose many expression sites, got {sites}"
        );
        assert!(
            saw_function_body_expr,
            "control-local function bodies must be covered"
        );
        // Past the end, the mutable finder agrees there is nothing left.
        let mut scratch = program.clone();
        assert!(find_expr(&mut scratch, sites).1.is_none());
    }

    #[test]
    fn expr_candidates_respect_operator_classes() {
        let cmp = Expr::binary(BinOp::Lt, Expr::path("x"), Expr::uint(3, 8));
        assert!(expr_candidates(&cmp).contains(&Expr::Bool(true)));
        let shift = Expr::binary(BinOp::Shl, Expr::path("x"), Expr::path("y"));
        assert_eq!(expr_candidates(&shift), vec![Expr::path("x")]);
        let concat = Expr::binary(BinOp::Concat, Expr::path("x"), Expr::path("y"));
        assert!(expr_candidates(&concat).is_empty());
        let add = Expr::binary(BinOp::Add, Expr::path("x"), Expr::uint(3, 8));
        let candidates = expr_candidates(&add);
        assert!(candidates.contains(&Expr::uint(0, 8)));
        assert!(candidates.contains(&Expr::path("x")));
    }
}
