//! Visitor and mutator traits over the IR.
//!
//! P4C's pass infrastructure is built on AST visitors (paper §7.3 "The AST
//! visitor library in P4C allowed us to develop extensions like our random
//! program generator and interpreter").  This module provides the same
//! facility for our IR: a read-only [`Visitor`] used for analyses and a
//! [`Mutator`] used by transform passes.

use crate::ast::*;

/// Read-only traversal.  Implement the hooks you care about; every hook has
/// a default that recurses into children via the `walk_*` free functions.
pub trait Visitor {
    fn visit_program(&mut self, program: &Program) {
        walk_program(self, program);
    }
    fn visit_declaration(&mut self, decl: &Declaration) {
        walk_declaration(self, decl);
    }
    fn visit_control(&mut self, control: &ControlDecl) {
        walk_control(self, control);
    }
    fn visit_parser(&mut self, parser: &ParserDecl) {
        walk_parser(self, parser);
    }
    fn visit_table(&mut self, _table: &TableDecl) {}
    fn visit_action(&mut self, action: &ActionDecl) {
        walk_block(self, &action.body);
    }
    fn visit_function(&mut self, function: &FunctionDecl) {
        walk_block(self, &function.body);
    }
    fn visit_block(&mut self, block: &Block) {
        walk_block(self, block);
    }
    fn visit_statement(&mut self, stmt: &Statement) {
        walk_statement(self, stmt);
    }
    fn visit_expr(&mut self, expr: &Expr) {
        walk_expr(self, expr);
    }
}

pub fn walk_program<V: Visitor + ?Sized>(v: &mut V, program: &Program) {
    for decl in &program.declarations {
        v.visit_declaration(decl);
    }
}

pub fn walk_declaration<V: Visitor + ?Sized>(v: &mut V, decl: &Declaration) {
    match decl {
        Declaration::Control(c) => v.visit_control(c),
        Declaration::Parser(p) => v.visit_parser(p),
        Declaration::Action(a) => v.visit_action(a),
        Declaration::Function(f) => v.visit_function(f),
        Declaration::Table(t) => v.visit_table(t),
        Declaration::Constant(c) => v.visit_expr(&c.value),
        Declaration::Variable {
            init: Some(init), ..
        } => v.visit_expr(init),
        _ => {}
    }
}

pub fn walk_control<V: Visitor + ?Sized>(v: &mut V, control: &ControlDecl) {
    for local in &control.locals {
        v.visit_declaration(local);
    }
    v.visit_block(&control.apply);
}

pub fn walk_parser<V: Visitor + ?Sized>(v: &mut V, parser: &ParserDecl) {
    for local in &parser.locals {
        v.visit_declaration(local);
    }
    for state in &parser.states {
        for stmt in &state.statements {
            v.visit_statement(stmt);
        }
        if let Transition::Select { selector, cases } = &state.transition {
            v.visit_expr(selector);
            for case in cases {
                if let Some(value) = &case.value {
                    v.visit_expr(value);
                }
            }
        }
    }
}

pub fn walk_block<V: Visitor + ?Sized>(v: &mut V, block: &Block) {
    for stmt in &block.statements {
        v.visit_statement(stmt);
    }
}

pub fn walk_statement<V: Visitor + ?Sized>(v: &mut V, stmt: &Statement) {
    match stmt {
        Statement::Assign { lhs, rhs } => {
            v.visit_expr(lhs);
            v.visit_expr(rhs);
        }
        Statement::Call(call) => {
            for arg in &call.args {
                v.visit_expr(arg);
            }
        }
        Statement::If {
            cond,
            then_branch,
            else_branch,
        } => {
            v.visit_expr(cond);
            v.visit_statement(then_branch);
            if let Some(else_stmt) = else_branch {
                v.visit_statement(else_stmt);
            }
        }
        Statement::Block(block) => v.visit_block(block),
        Statement::Declare {
            init: Some(init), ..
        } => v.visit_expr(init),
        Statement::Constant { value, .. } => v.visit_expr(value),
        Statement::Return(Some(expr)) => v.visit_expr(expr),
        _ => {}
    }
}

pub fn walk_expr<V: Visitor + ?Sized>(v: &mut V, expr: &Expr) {
    match expr {
        Expr::Member { base, .. } | Expr::Slice { base, .. } => v.visit_expr(base),
        Expr::Unary { operand, .. } => v.visit_expr(operand),
        Expr::Cast { expr, .. } => v.visit_expr(expr),
        Expr::Binary { left, right, .. } => {
            v.visit_expr(left);
            v.visit_expr(right);
        }
        Expr::Ternary {
            cond,
            then_expr,
            else_expr,
        } => {
            v.visit_expr(cond);
            v.visit_expr(then_expr);
            v.visit_expr(else_expr);
        }
        Expr::Call(call) => {
            for arg in &call.args {
                v.visit_expr(arg);
            }
        }
        _ => {}
    }
}

/// In-place transforming traversal.  Hooks receive `&mut` nodes; the default
/// implementations recurse into children.  Passes override the hooks they
/// need and rely on the defaults for the rest — the same structure as a P4C
/// `Transform`.
pub trait Mutator {
    fn mutate_program(&mut self, program: &mut Program) {
        mutate_walk_program(self, program);
    }
    fn mutate_declaration(&mut self, decl: &mut Declaration) {
        mutate_walk_declaration(self, decl);
    }
    fn mutate_control(&mut self, control: &mut ControlDecl) {
        mutate_walk_control(self, control);
    }
    fn mutate_parser(&mut self, parser: &mut ParserDecl) {
        mutate_walk_parser(self, parser);
    }
    fn mutate_table(&mut self, _table: &mut TableDecl) {}
    fn mutate_action(&mut self, action: &mut ActionDecl) {
        self.mutate_block(&mut action.body);
    }
    fn mutate_function(&mut self, function: &mut FunctionDecl) {
        self.mutate_block(&mut function.body);
    }
    fn mutate_block(&mut self, block: &mut Block) {
        mutate_walk_block(self, block);
    }
    fn mutate_statement(&mut self, stmt: &mut Statement) {
        mutate_walk_statement(self, stmt);
    }
    fn mutate_expr(&mut self, expr: &mut Expr) {
        mutate_walk_expr(self, expr);
    }
}

pub fn mutate_walk_program<M: Mutator + ?Sized>(m: &mut M, program: &mut Program) {
    for decl in &mut program.declarations {
        m.mutate_declaration(decl);
    }
}

pub fn mutate_walk_declaration<M: Mutator + ?Sized>(m: &mut M, decl: &mut Declaration) {
    match decl {
        Declaration::Control(c) => m.mutate_control(c),
        Declaration::Parser(p) => m.mutate_parser(p),
        Declaration::Action(a) => m.mutate_action(a),
        Declaration::Function(f) => m.mutate_function(f),
        Declaration::Table(t) => m.mutate_table(t),
        Declaration::Constant(c) => m.mutate_expr(&mut c.value),
        Declaration::Variable {
            init: Some(init), ..
        } => m.mutate_expr(init),
        _ => {}
    }
}

pub fn mutate_walk_control<M: Mutator + ?Sized>(m: &mut M, control: &mut ControlDecl) {
    for local in &mut control.locals {
        m.mutate_declaration(local);
    }
    m.mutate_block(&mut control.apply);
}

pub fn mutate_walk_parser<M: Mutator + ?Sized>(m: &mut M, parser: &mut ParserDecl) {
    for local in &mut parser.locals {
        m.mutate_declaration(local);
    }
    for state in &mut parser.states {
        for stmt in &mut state.statements {
            m.mutate_statement(stmt);
        }
        if let Transition::Select { selector, cases } = &mut state.transition {
            m.mutate_expr(selector);
            for case in cases {
                if let Some(value) = &mut case.value {
                    m.mutate_expr(value);
                }
            }
        }
    }
}

pub fn mutate_walk_block<M: Mutator + ?Sized>(m: &mut M, block: &mut Block) {
    for stmt in &mut block.statements {
        m.mutate_statement(stmt);
    }
}

pub fn mutate_walk_statement<M: Mutator + ?Sized>(m: &mut M, stmt: &mut Statement) {
    match stmt {
        Statement::Assign { lhs, rhs } => {
            m.mutate_expr(lhs);
            m.mutate_expr(rhs);
        }
        Statement::Call(call) => {
            for arg in &mut call.args {
                m.mutate_expr(arg);
            }
        }
        Statement::If {
            cond,
            then_branch,
            else_branch,
        } => {
            m.mutate_expr(cond);
            m.mutate_statement(then_branch);
            if let Some(else_stmt) = else_branch {
                m.mutate_statement(else_stmt);
            }
        }
        Statement::Block(block) => m.mutate_block(block),
        Statement::Declare {
            init: Some(init), ..
        } => m.mutate_expr(init),
        Statement::Constant { value, .. } => m.mutate_expr(value),
        Statement::Return(Some(expr)) => m.mutate_expr(expr),
        _ => {}
    }
}

pub fn mutate_walk_expr<M: Mutator + ?Sized>(m: &mut M, expr: &mut Expr) {
    match expr {
        Expr::Member { base, .. } | Expr::Slice { base, .. } => m.mutate_expr(base),
        Expr::Unary { operand, .. } => m.mutate_expr(operand),
        Expr::Cast { expr, .. } => m.mutate_expr(expr),
        Expr::Binary { left, right, .. } => {
            m.mutate_expr(left);
            m.mutate_expr(right);
        }
        Expr::Ternary {
            cond,
            then_expr,
            else_expr,
        } => {
            m.mutate_expr(cond);
            m.mutate_expr(then_expr);
            m.mutate_expr(else_expr);
        }
        Expr::Call(call) => {
            for arg in &mut call.args {
                m.mutate_expr(arg);
            }
        }
        _ => {}
    }
}

/// Applies `f` to every statement *list* reachable from `list`, outermost
/// first: `list` itself, then — in statement order — the lists nested
/// inside child blocks and `if` branches.  Statement lists (rather than
/// individual statements) are the unit of interest for transformations that
/// insert, splice, or reorder statements: `p4-mutate`'s program mutators and
/// `p4-reduce`'s statement-level ddmin both address sites this way.  The
/// root is a bare list so block bodies and parser-state bodies walk alike.
pub fn for_each_statement_list<F: FnMut(&[Statement])>(list: &[Statement], f: &mut F) {
    f(list);
    for stmt in list {
        nested_statement_lists(stmt, f);
    }
}

fn nested_statement_lists<F: FnMut(&[Statement])>(stmt: &Statement, f: &mut F) {
    match stmt {
        Statement::Block(block) => for_each_statement_list(&block.statements, f),
        Statement::If {
            then_branch,
            else_branch,
            ..
        } => {
            nested_statement_lists(then_branch, f);
            if let Some(else_stmt) = else_branch {
                nested_statement_lists(else_stmt, f);
            }
        }
        _ => {}
    }
}

/// Mutable counterpart of [`for_each_statement_list`]: `f` receives each
/// statement list as `&mut Vec<Statement>` and may grow, shrink, or reorder
/// it in place.  The traversal descends into whatever the list contains
/// *after* `f` ran on it, so statements inserted by `f` are themselves
/// visited — callers that must mutate only one site should latch on the
/// first hit.
pub fn for_each_statement_list_mut<F: FnMut(&mut Vec<Statement>)>(
    list: &mut Vec<Statement>,
    f: &mut F,
) {
    f(list);
    for stmt in list {
        nested_statement_lists_mut(stmt, f);
    }
}

fn nested_statement_lists_mut<F: FnMut(&mut Vec<Statement>)>(stmt: &mut Statement, f: &mut F) {
    match stmt {
        Statement::Block(block) => for_each_statement_list_mut(&mut block.statements, f),
        Statement::If {
            then_branch,
            else_branch,
            ..
        } => {
            nested_statement_lists_mut(then_branch, f);
            if let Some(else_stmt) = else_branch {
                nested_statement_lists_mut(else_stmt, f);
            }
        }
        _ => {}
    }
}

/// Counts occurrences of various node kinds; useful for tests and for the
/// generator's size accounting.
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
pub struct NodeCounter {
    pub statements: usize,
    pub expressions: usize,
    pub calls: usize,
    pub tables: usize,
}

impl Visitor for NodeCounter {
    fn visit_statement(&mut self, stmt: &Statement) {
        self.statements += 1;
        if matches!(stmt, Statement::Call(_)) {
            self.calls += 1;
        }
        walk_statement(self, stmt);
    }

    fn visit_expr(&mut self, expr: &Expr) {
        self.expressions += 1;
        if matches!(expr, Expr::Call(_)) {
            self.calls += 1;
        }
        walk_expr(self, expr);
    }

    fn visit_table(&mut self, table: &TableDecl) {
        self.tables += 1;
        for key in &table.keys {
            self.visit_expr(&key.expr);
        }
    }
}

impl NodeCounter {
    /// Convenience: count nodes in a whole program.
    pub fn count(program: &Program) -> NodeCounter {
        let mut counter = NodeCounter::default();
        counter.visit_program(program);
        counter
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ast::{BinOp, Block, ControlDecl, Declaration, Program, Statement};
    use crate::types::{Direction, Param, Type};

    fn sample_program() -> Program {
        let mut program = Program::new("v1model");
        let apply = Block::new(vec![
            Statement::assign(Expr::dotted(&["hdr", "a"]), Expr::uint(1, 8)),
            Statement::if_then(
                Expr::binary(BinOp::Eq, Expr::dotted(&["hdr", "a"]), Expr::uint(1, 8)),
                Statement::call(vec!["t", "apply"], vec![]),
            ),
        ]);
        program.declarations.push(Declaration::Control(ControlDecl {
            name: "ig".into(),
            params: vec![Param::new(
                Direction::InOut,
                "hdr",
                Type::Struct("headers_t".into()),
            )],
            locals: vec![],
            apply,
        }));
        program
    }

    #[test]
    fn node_counter_counts_statements_and_calls() {
        let counts = NodeCounter::count(&sample_program());
        assert_eq!(counts.statements, 3);
        assert_eq!(counts.calls, 1);
        assert!(counts.expressions >= 5);
    }

    struct RenamePaths;
    impl Mutator for RenamePaths {
        fn mutate_expr(&mut self, expr: &mut Expr) {
            if let Expr::Path(name) = expr {
                if name == "hdr" {
                    *name = "headers".into();
                }
            }
            mutate_walk_expr(self, expr);
        }
    }

    #[test]
    fn statement_list_walkers_cover_nested_lists() {
        let nested = Block::new(vec![
            Statement::assign(Expr::dotted(&["hdr", "a"]), Expr::uint(1, 8)),
            Statement::if_else(
                Expr::Bool(true),
                Statement::Block(Block::new(vec![Statement::Exit])),
                Statement::assign(Expr::dotted(&["hdr", "a"]), Expr::uint(2, 8)),
            ),
            Statement::Block(Block::new(vec![Statement::Empty])),
        ]);
        let mut lists = 0;
        let mut statements = 0;
        for_each_statement_list(&nested.statements, &mut |list| {
            lists += 1;
            statements += list.len();
        });
        // Outer list, the `then` block, and the trailing block (the bare
        // `else` statement is not a list).
        assert_eq!(lists, 3);
        assert_eq!(statements, 5);

        // The mutable walker can splice; inserted statements are visited.
        let mut block = nested;
        let mut first = true;
        for_each_statement_list_mut(&mut block.statements, &mut |list| {
            if first {
                first = false;
                list.insert(0, Statement::Empty);
            }
        });
        assert_eq!(block.statements.len(), 4);
        assert!(matches!(block.statements[0], Statement::Empty));
    }

    #[test]
    fn mutator_rewrites_paths_everywhere() {
        let mut program = sample_program();
        RenamePaths.mutate_program(&mut program);
        let text = crate::printer::print_program(&program);
        assert!(text.contains("headers.a"));
        assert!(!text.contains("hdr.a"));
    }
}
