//! The reduction steps and their fixed schedule.
//!
//! Each step proposes structurally smaller candidate programs and keeps a
//! candidate whenever the driver's `check` callback accepts it (the callback
//! typechecks the candidate and asks the bug oracle whether the original
//! finding still reproduces).  Steps are plain functions of their input
//! program and the sequence of `check` verdicts, which keeps the whole
//! reducer deterministic.  Each kind of site has one walker over the
//! reducer's own program: [`at_stmt_list`] for statement lists,
//! [`find_expr`] for expressions and [`table_mut`] for tables.

use crate::ddmin::ddmin;
use p4_ir::visit::{walk_statement, Visitor};
use p4_ir::{
    for_each_statement_list_mut, BinOp, Declaration, Expr, ParserDecl, Program, Statement,
    TableDecl, Transition, Type, UnOp,
};

/// The candidate-acceptance callback handed to every step: returns true when
/// the candidate typechecks and still reproduces the target bug.
pub(crate) type Check<'a> = dyn FnMut(&Program) -> bool + 'a;

/// A reduction step: shrinks `program` in place through the candidates
/// `check` accepts, and returns whether it accepted any.
pub(crate) type Step = fn(&mut Program, &mut Check) -> bool;

/// The reducer's schedule, coarsest first so the fine-grained steps see a
/// small program: declaration ddmin, structural pruning, statement ddmin,
/// expression simplification.
pub(crate) const SCHEDULE: [Step; 4] = [
    reduce_declarations,
    prune_structure,
    reduce_statements,
    simplify_expressions,
];

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

/// Greedy first-fit shrinking: for each edit index `edits` lists, applies
/// `edit` to a copy of `program` and keeps the first copy `check` accepts,
/// then starts over on the result until no edit is accepted.  Returns
/// whether any was.
fn first_fit(
    program: &mut Program,
    check: &mut Check,
    edits: impl Fn(&mut Program) -> Vec<usize>,
    edit: impl Fn(&mut Program, usize),
) -> bool {
    let mut progressed = false;
    'round: loop {
        for index in edits(program) {
            let mut candidate = program.clone();
            edit(&mut candidate, index);
            if check(&candidate) {
                *program = candidate;
                progressed = true;
                continue 'round;
            }
        }
        return progressed;
    }
}

// ---------------------------------------------------------------------------
// Step 1: ddmin over the top-level declaration list.
// ---------------------------------------------------------------------------

/// Delta-debugs the top-level declaration list: unused headers, constants,
/// actions, functions and tables disappear wholesale.  Declarations the
/// package instantiation or any surviving code still references are
/// protected implicitly — removing them produces an ill-typed candidate,
/// which the `check` callback rejects before the oracle ever runs.
fn reduce_declarations(program: &mut Program, check: &mut Check) -> bool {
    // Ddmin runs over declaration indices, so each candidate clones only
    // the declarations it keeps, once.
    let keeping = |kept: &[usize]| Program {
        architecture: program.architecture.clone(),
        declarations: kept
            .iter()
            .map(|&index| program.declarations[index].clone())
            .collect(),
        package: program.package.clone(),
    };
    let indices: Vec<usize> = (0..program.declarations.len()).collect();
    let reduced = ddmin(&indices, &mut |subset| check(&keeping(subset)));
    if reduced.len() == indices.len() {
        return false;
    }
    *program = keeping(&reduced);
    true
}

// ---------------------------------------------------------------------------
// Step 2: structural pruning of control locals, tables and parser states.
// ---------------------------------------------------------------------------

/// Prunes coarse structure that ddmin over statements cannot reach: whole
/// control-local declarations (tables, actions, variables), table key
/// elements and action lists, parser `select` transitions (collapsed to the
/// default target) and entire parser states (with transitions into them
/// redirected to `accept`).
fn prune_structure(program: &mut Program, check: &mut Check) -> bool {
    let mut progressed = false;
    for prune in [prune_control_locals, prune_tables, prune_parser_states] {
        progressed |= prune(program, check);
    }
    progressed
}

fn prune_control_locals(program: &mut Program, check: &mut Check) -> bool {
    fn locals_mut(program: &mut Program, index: usize) -> Option<&mut Vec<Declaration>> {
        match &mut program.declarations[index] {
            Declaration::Control(control) => Some(&mut control.locals),
            _ => None,
        }
    }
    let mut progressed = false;
    for index in 0..program.declarations.len() {
        let Some(locals) = locals_mut(program, index).cloned() else {
            continue;
        };
        let reduced = ddmin(&locals, &mut |subset| {
            let mut candidate = program.clone();
            *locals_mut(&mut candidate, index).expect("a control") = subset.to_vec();
            check(&candidate)
        });
        if reduced.len() < locals.len() {
            *locals_mut(program, index).expect("a control") = reduced;
            progressed = true;
        }
    }
    progressed
}

/// The table at a table site: a top-level table, or a control-local one,
/// addressed by (declaration index, optional local index).
fn table_mut(
    program: &mut Program,
    (index, local): (usize, Option<usize>),
) -> Option<&mut TableDecl> {
    let decl = match (&mut program.declarations[index], local) {
        (Declaration::Control(control), Some(local)) => &mut control.locals[local],
        (decl, _) => decl,
    };
    match decl {
        Declaration::Table(table) => Some(table),
        _ => None,
    }
}

fn prune_tables(program: &mut Program, check: &mut Check) -> bool {
    let mut sites = Vec::new();
    for (index, decl) in program.declarations.iter().enumerate() {
        match decl {
            Declaration::Table(_) => sites.push((index, None)),
            Declaration::Control(control) => {
                for (local, decl) in control.locals.iter().enumerate() {
                    if matches!(decl, Declaration::Table(_)) {
                        sites.push((index, Some(local)));
                    }
                }
            }
            _ => {}
        }
    }
    let mut progressed = false;
    for site in sites {
        // Drop key elements, then non-default actions from the action list.
        progressed |= first_fit(
            program,
            check,
            |program| (0..table_mut(program, site).map_or(0, |table| table.keys.len())).collect(),
            |candidate, key| {
                table_mut(candidate, site)
                    .expect("a table")
                    .keys
                    .remove(key);
            },
        );
        progressed |= first_fit(
            program,
            check,
            |program| match table_mut(program, site) {
                Some(table) if table.actions.len() > 1 => (0..table.actions.len())
                    .filter(|&action| table.actions[action].name != table.default_action.name)
                    .collect(),
                _ => Vec::new(),
            },
            |candidate, action| {
                table_mut(candidate, site)
                    .expect("a table")
                    .actions
                    .remove(action);
            },
        );
    }
    progressed
}

fn prune_parser_states(program: &mut Program, check: &mut Check) -> bool {
    fn parser_mut(program: &mut Program, index: usize) -> &mut ParserDecl {
        match &mut program.declarations[index] {
            Declaration::Parser(parser) => parser,
            _ => unreachable!("declaration kinds are stable under state pruning"),
        }
    }
    let mut progressed = false;
    for index in 0..program.declarations.len() {
        if !matches!(program.declarations[index], Declaration::Parser(_)) {
            continue;
        }
        // Collapse `select` transitions to their default target.
        progressed |= first_fit(
            program,
            check,
            |program| {
                let states = &parser_mut(program, index).states;
                (0..states.len())
                    .filter(|&state| matches!(states[state].transition, Transition::Select { .. }))
                    .collect()
            },
            |candidate, state| {
                let state = &mut parser_mut(candidate, index).states[state];
                let Transition::Select { cases, .. } = &state.transition else {
                    unreachable!("a select state");
                };
                let default_target = cases
                    .iter()
                    .find(|case| case.value.is_none())
                    .map_or("accept", |case| &case.next_state)
                    .to_string();
                state.transition = Transition::Direct(default_target);
            },
        );
        // Remove whole states, redirecting inbound transitions to `accept`.
        // The `start` state is the entry point and stays.
        progressed |= first_fit(
            program,
            check,
            |program| {
                let states = &parser_mut(program, index).states;
                (0..states.len())
                    .filter(|&state| states[state].name != "start")
                    .collect()
            },
            |candidate, state| {
                let parser = parser_mut(candidate, index);
                let name = parser.states.remove(state).name;
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
            },
        );
    }
    progressed
}

// ---------------------------------------------------------------------------
// Steps 3 and 4 address their sites inside statement bodies.
// ---------------------------------------------------------------------------

/// The top-level statement lists of the program, in declaration order:
/// action and function bodies (top-level and control-local), control
/// `apply` blocks and parser-state bodies.  Both body walkers start here.
fn bodies(program: &mut Program) -> Vec<&mut Vec<Statement>> {
    fn push<'a>(decl: &'a mut Declaration, bodies: &mut Vec<&'a mut Vec<Statement>>) {
        match decl {
            Declaration::Action(action) => bodies.push(&mut action.body.statements),
            Declaration::Function(function) => bodies.push(&mut function.body.statements),
            Declaration::Control(control) => {
                for local in &mut control.locals {
                    push(local, bodies);
                }
                bodies.push(&mut control.apply.statements);
            }
            Declaration::Parser(parser) => {
                bodies.extend(parser.states.iter_mut().map(|state| &mut state.statements));
            }
            _ => {}
        }
    }
    let mut bodies = Vec::new();
    for decl in &mut program.declarations {
        push(decl, &mut bodies);
    }
    bodies
}

/// Runs `f` on statement-list site `site` — counted over every body and,
/// within each, the list first and then the lists nested in its blocks and
/// `if` arms — or returns `None` when the program has no such site.
fn at_stmt_list<R>(
    program: &mut Program,
    site: usize,
    f: impl FnOnce(&mut Vec<Statement>) -> R,
) -> Option<R> {
    let mut f = Some(f);
    let mut result = None;
    let mut index = 0usize;
    for body in bodies(program) {
        for_each_statement_list_mut(body, &mut |list| {
            if index == site {
                result = f.take().map(|f| f(list));
            }
            index += 1;
        });
    }
    result
}

// ---------------------------------------------------------------------------
// Step 3: ddmin inside every statement list.
// ---------------------------------------------------------------------------

/// Delta-debugs every statement list in the program, outermost first.  This
/// is where most of the shrinking happens: of the hundreds of statements in
/// a random program, typically only a handful interact with the defective
/// code path.  Def-use chains are respected for free — deleting the
/// declaration of a still-used variable fails `p4_check` re-typechecking,
/// so the candidate never reaches the oracle.
fn reduce_statements(program: &mut Program, check: &mut Check) -> bool {
    let mut progressed = false;
    let mut site = 0usize;
    // The site count shrinks as nested blocks get deleted; stop at the
    // (possibly reduced) end.
    while let Some(list) = at_stmt_list(program, site, |list| list.clone()) {
        let reduced = ddmin(&list, &mut |subset| {
            let mut candidate = program.clone();
            at_stmt_list(&mut candidate, site, |list| *list = subset.to_vec());
            check(&candidate)
        });
        if reduced.len() < list.len() {
            at_stmt_list(program, site, |list| *list = reduced);
            progressed = true;
        }
        site += 1;
    }
    progressed
}

// ---------------------------------------------------------------------------
// Step 4: expression simplification.
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

/// The expression node at pre-order index `target` among the simplifiable
/// expression positions — assignment right-hand sides, call arguments,
/// conditions, initialisers and return values — walked statement by
/// statement through each body.  Assignment left-hand sides are skipped:
/// they must stay l-values, so no candidate we generate could survive the
/// type checker.
fn find_expr(program: &mut Program, target: usize) -> Option<&mut Expr> {
    fn in_expr<'a>(expr: &'a mut Expr, counter: &mut usize, target: usize) -> Option<&'a mut Expr> {
        if *counter == target {
            return Some(expr);
        }
        *counter += 1;
        match expr {
            Expr::Member { base, .. } | Expr::Slice { base, .. } => in_expr(base, counter, target),
            Expr::Unary { operand, .. } => in_expr(operand, counter, target),
            Expr::Cast { expr, .. } => in_expr(expr, counter, target),
            Expr::Binary { left, right, .. } => [left, right]
                .into_iter()
                .find_map(|operand| in_expr(operand, counter, target)),
            Expr::Ternary {
                cond,
                then_expr,
                else_expr,
            } => [cond, then_expr, else_expr]
                .into_iter()
                .find_map(|operand| in_expr(operand, counter, target)),
            Expr::Call(call) => call
                .args
                .iter_mut()
                .find_map(|arg| in_expr(arg, counter, target)),
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
            Statement::Call(call) => call
                .args
                .iter_mut()
                .find_map(|arg| in_expr(arg, counter, target)),
            Statement::If {
                cond,
                then_branch,
                else_branch,
            } => {
                if let Some(found) = in_expr(cond, counter, target) {
                    return Some(found);
                }
                std::iter::once(then_branch)
                    .chain(else_branch)
                    .find_map(|branch| in_stmt(branch, counter, target))
            }
            Statement::Block(block) => block
                .statements
                .iter_mut()
                .find_map(|stmt| in_stmt(stmt, counter, target)),
            Statement::Declare {
                init: Some(init), ..
            } => in_expr(init, counter, target),
            Statement::Constant { value, .. } => in_expr(value, counter, target),
            Statement::Return(Some(expr)) => in_expr(expr, counter, target),
            _ => None,
        }
    }
    let mut counter = 0usize;
    bodies(program)
        .into_iter()
        .flatten()
        .find_map(|stmt| in_stmt(stmt, &mut counter, target))
}

/// Greedy expression shrinking: walks every expression position in pre-order
/// and tries to replace the subexpression with a typed constant or one of
/// its own operands, keeping the first accepted candidate and re-examining
/// the (now smaller) node before moving on.
fn simplify_expressions(program: &mut Program, check: &mut Check) -> bool {
    let mut progressed = false;
    let mut site = 0usize;
    // Copy the node at `site` (if any) and try its candidates.
    while let Some(node) = find_expr(program, site).map(|node| node.clone()) {
        let node_size = node.size();
        let mut accepted = false;
        for replacement in expr_candidates(&node) {
            // Filter on the node before paying for a program clone.
            // Equal-size replacements are allowed only for the
            // non-re-proposable constant rewrites (literal zeroing), so the
            // greedy revisit loop still terminates.
            if replacement == node || replacement.size() > node_size {
                continue;
            }
            let mut candidate = program.clone();
            *find_expr(&mut candidate, site).expect("site was just observed") = replacement;
            if check(&candidate) {
                *program = candidate;
                progressed = true;
                accepted = true;
                break;
            }
        }
        // If accepted, revisit the same site: the replacement may itself be
        // simplifiable (and strictly shrank, so this terminates).
        if !accepted {
            site += 1;
        }
    }
    progressed
}

#[cfg(test)]
mod tests {
    use super::*;
    use p4_ir::{builder, Block};

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
        // step should strip as much as the callback allows.
        let mut reduced = program.clone();
        assert!(reduce_declarations(&mut reduced, &mut |candidate| {
            candidate.control("ingress_impl").is_some()
        }));
        assert!(reduced.declarations.len() < program.declarations.len());
    }

    #[test]
    fn stmt_list_sites_cover_nested_blocks() {
        let mut program = builder::v1model_program(
            vec![],
            Block::new(vec![Statement::Block(Block::new(vec![Statement::Exit]))]),
        );
        // start-state list, parse_h list (skeleton parser), ingress apply,
        // nested block — at least 3 sites exist.
        assert!(at_stmt_list(&mut program, 2, |_| ()).is_some());
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

    /// `at_stmt_list` addresses, site by site, the lists that p4-ir's
    /// read-only `for_each_statement_list` walks from the reducer's bodies,
    /// and a write through a site lands on that list.
    #[test]
    fn stmt_list_traversals_agree() {
        let walk = |mut program: Program| {
            let mut lists: Vec<Vec<Statement>> = Vec::new();
            for body in bodies(&mut program) {
                p4_ir::for_each_statement_list(body, &mut |list| lists.push(list.to_vec()));
            }
            lists
        };
        let program = traversal_fixture();
        let walked = walk(program.clone());
        let mut scratch = program.clone();
        let mut addressed = Vec::new();
        while let Some(list) = at_stmt_list(&mut scratch, addressed.len(), |list| list.clone()) {
            addressed.push(list);
        }
        assert_eq!(addressed, walked);
        for site in 0..walked.len() {
            let mut edited = program.clone();
            at_stmt_list(&mut edited, site, |list| list.push(Statement::Exit));
            let mut expected = walked[site].clone();
            expected.push(Statement::Exit);
            let lists = walk(edited);
            assert_eq!(lists.len(), walked.len(), "site {site}");
            assert_eq!(lists[site], expected, "site {site}");
        }
    }

    /// `find_expr` addresses, node by node, the expressions that p4-ir's
    /// read-only `Visitor` reaches in pre-order from the reducer's bodies
    /// when it skips assignment targets, and a write through a site lands
    /// on that node.
    #[test]
    fn expr_traversals_agree() {
        use p4_ir::visit::walk_expr;
        struct Sites(Vec<Expr>);
        impl Visitor for Sites {
            fn visit_statement(&mut self, stmt: &Statement) {
                match stmt {
                    Statement::Assign { rhs, .. } => self.visit_expr(rhs),
                    _ => walk_statement(self, stmt),
                }
            }
            fn visit_expr(&mut self, expr: &Expr) {
                self.0.push(expr.clone());
                walk_expr(self, expr);
            }
        }
        let walk = |mut program: Program| {
            let mut sites = Sites(Vec::new());
            for body in bodies(&mut program) {
                body.iter().for_each(|stmt| sites.visit_statement(stmt));
            }
            sites.0
        };
        let program = traversal_fixture();
        let walked = walk(program.clone());
        let mut scratch = program.clone();
        let mut found = Vec::new();
        while let Some(node) = find_expr(&mut scratch, found.len()) {
            found.push(node.clone());
        }
        assert_eq!(found, walked);
        let marker = Expr::path("marker");
        for site in 0..walked.len() {
            let mut edited = program.clone();
            *find_expr(&mut edited, site).unwrap() = marker.clone();
            assert_eq!(walk(edited).get(site), Some(&marker), "site {site}");
        }
    }

    /// The statement-list and expression sites of the fixture, in the
    /// order the reducer addresses them.
    #[test]
    fn traversal_sites_are_pinned() {
        let mut program = traversal_fixture();
        let render = |list: &mut Vec<Statement>| {
            list.iter()
                .map(|stmt| p4_ir::print_statement(stmt).trim().replace('\n', " "))
                .collect::<Vec<_>>()
                .join(" ")
        };
        let mut lists = Vec::new();
        while let Some(list) = at_stmt_list(&mut program, lists.len(), render) {
            lists.push(list);
        }
        let mut exprs = Vec::new();
        while let Some(node) = find_expr(&mut program, exprs.len()) {
            exprs.push(p4_ir::print_expr(node));
        }
        assert_eq!(
            lists,
            [
                "packet.extract(hdr.eth);",
                "packet.extract(hdr.h);",
                "hdr.h.a = (hdr.h.b + 8w1);",
                "return (x * 8w2);",
                "if ((hdr.h.a < 8w9)) {     meta.flag = (true ? 8w1 : 8w2); } else {     meta.flag = 8w3; }",
                "meta.flag = (true ? 8w1 : 8w2);",
                "",
                "packet.emit(hdr.eth); packet.emit(hdr.h);",
            ]
        );
        assert_eq!(
            exprs,
            [
                "hdr.eth",
                "hdr",
                "hdr.h",
                "hdr",
                "(hdr.h.b + 8w1)",
                "hdr.h.b",
                "hdr.h",
                "hdr",
                "8w1",
                "(x * 8w2)",
                "x",
                "8w2",
                "(hdr.h.a < 8w9)",
                "hdr.h.a",
                "hdr.h",
                "hdr",
                "8w9",
                "(true ? 8w1 : 8w2)",
                "true",
                "8w1",
                "8w2",
                "8w3",
                "hdr.eth",
                "hdr",
                "hdr.h",
                "hdr",
            ]
        );
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
