//! The type checker proper.

use p4_ir::{
    type_of, Architecture, BinOp, Block, CallExpr, ControlDecl, Declaration, Expr, FunctionDecl,
    ParserDecl, Program, Scope, Statement, Transition, Type, TypeEnv, UnOp,
};
use std::collections::HashMap;
use std::fmt;

/// Classification of a check failure; used by tests and the campaign
/// reports to group diagnostics.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum CheckErrorKind {
    UnknownType,
    UnknownName,
    TypeMismatch,
    NotAnLValue,
    ReadOnlyTarget,
    BadSlice,
    BadCall,
    BadTable,
    BadPackage,
    UninitializedRead,
}

/// A single diagnostic.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CheckError {
    pub kind: CheckErrorKind,
    pub message: String,
    /// The declaration (control/parser/action/function) the error was found in.
    pub context: String,
}

impl fmt::Display for CheckError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "[{:?}] in `{}`: {}",
            self.kind, self.context, self.message
        )
    }
}

/// Options controlling a check run.
#[derive(Debug, Clone, Default)]
pub struct CheckOptions {
    /// Stop checking once this many errors have been collected.  Callers
    /// that only need a yes/no verdict (the `p4-reduce` candidate gate runs
    /// the checker thousands of times per reduction) set this to 1 so a
    /// clearly broken candidate is rejected without checking the rest of
    /// the program.
    pub error_limit: Option<usize>,
}

/// Checks a whole program, returning all diagnostics found.
/// An empty vector means the program is well-typed.
pub fn check_program(program: &Program) -> Vec<CheckError> {
    check_program_with(program, &CheckOptions::default())
}

/// Fast boolean verdict: does the program typecheck?  Equivalent to
/// `check_program(program).is_empty()` but stops at the first error, which
/// makes it the right entry point for hot candidate-filtering loops.
pub fn program_well_typed(program: &Program) -> bool {
    check_program_with(
        program,
        &CheckOptions {
            error_limit: Some(1),
        },
    )
    .is_empty()
}

/// Checks a whole program with explicit options.
pub fn check_program_with(program: &Program, options: &CheckOptions) -> Vec<CheckError> {
    let env = TypeEnv::from_program(program);
    let mut checker = Checker {
        env: &env,
        program,
        options,
        errors: Vec::new(),
        context: String::new(),
        callables: collect_callables(program),
    };
    checker.check();
    checker.errors
}

/// Signature of a callable object (action or function) visible to calls.
#[derive(Debug, Clone)]
struct CallableSig {
    params: Vec<p4_ir::Param>,
    /// Return type of the callable (kept for future call-in-expression
    /// checking; direct statement calls only need the parameter list).
    #[allow(dead_code)]
    return_type: Type,
}

fn collect_callables(program: &Program) -> HashMap<String, CallableSig> {
    let mut map = HashMap::new();
    // The implicit NoAction action always exists.
    map.insert(
        "NoAction".to_string(),
        CallableSig {
            params: Vec::new(),
            return_type: Type::Void,
        },
    );
    for decl in &program.declarations {
        match decl {
            Declaration::Action(a) => {
                map.insert(
                    a.name.clone(),
                    CallableSig {
                        params: a.params.clone(),
                        return_type: Type::Void,
                    },
                );
            }
            Declaration::Function(f) => {
                map.insert(
                    f.name.clone(),
                    CallableSig {
                        params: f.params.clone(),
                        return_type: f.return_type.clone(),
                    },
                );
            }
            Declaration::Control(c) => {
                for local in &c.locals {
                    if let Declaration::Action(a) = local {
                        map.insert(
                            a.name.clone(),
                            CallableSig {
                                params: a.params.clone(),
                                return_type: Type::Void,
                            },
                        );
                    }
                }
            }
            _ => {}
        }
    }
    map
}

struct Checker<'a> {
    env: &'a TypeEnv,
    program: &'a Program,
    options: &'a CheckOptions,
    errors: Vec<CheckError>,
    context: String,
    callables: HashMap<String, CallableSig>,
}

impl<'a> Checker<'a> {
    fn error(&mut self, kind: CheckErrorKind, message: impl Into<String>) {
        if self.at_error_limit() {
            return;
        }
        self.errors.push(CheckError {
            kind,
            message: message.into(),
            context: self.context.clone(),
        });
    }

    /// True once the configured error limit has been reached; the main
    /// declaration loop bails out early and `error` drops further
    /// diagnostics.
    fn at_error_limit(&self) -> bool {
        matches!(self.options.error_limit, Some(limit) if self.errors.len() >= limit)
    }

    fn check(&mut self) {
        self.check_package();
        for decl in &self.program.declarations {
            if self.at_error_limit() {
                return;
            }
            match decl {
                Declaration::Control(c) => self.check_control(c),
                Declaration::Parser(p) => self.check_parser(p),
                Declaration::Function(f) => self.check_function(f),
                Declaration::Action(a) => {
                    self.context = format!("action {}", a.name);
                    let mut scope = Scope::new();
                    self.declare_params(&mut scope, &a.params);
                    self.check_block(&a.body, &mut scope, &Type::Void);
                }
                Declaration::Header(h) => self.check_fields(&h.name, &h.fields),
                Declaration::Struct(s) => self.check_fields(&s.name, &s.fields),
                _ => {}
            }
        }
    }

    fn check_fields(&mut self, owner: &str, fields: &[p4_ir::Field]) {
        self.context = owner.to_string();
        for field in fields {
            if !self.type_exists(&field.ty) {
                self.error(
                    CheckErrorKind::UnknownType,
                    format!("field `{}` has unknown type {}", field.name, field.ty),
                );
            }
        }
    }

    fn type_exists(&self, ty: &Type) -> bool {
        match ty {
            Type::Named(name) => {
                !matches!(self.env.resolve(ty), Type::Named(_) if self.env.aggregate(name).is_none())
            }
            _ => true,
        }
    }

    fn check_package(&mut self) {
        self.context = "package".into();
        let Some(arch) = Architecture::by_name(&self.program.architecture) else {
            self.error(
                CheckErrorKind::BadPackage,
                format!("unknown architecture `{}`", self.program.architecture),
            );
            return;
        };
        if self.program.package.package.is_empty() {
            self.error(
                CheckErrorKind::BadPackage,
                "missing `main` package instantiation",
            );
            return;
        }
        if self.program.package.package != arch.package_name {
            self.error(
                CheckErrorKind::BadPackage,
                format!(
                    "package `{}` does not match architecture package `{}`",
                    self.program.package.package, arch.package_name
                ),
            );
        }
        for block in &arch.blocks {
            let Some(decl_name) = self.program.package.binding(&block.slot) else {
                self.error(
                    CheckErrorKind::BadPackage,
                    format!("architecture slot `{}` is not bound", block.slot),
                );
                continue;
            };
            let decl = self.program.find(decl_name);
            let params = match (block.kind, decl) {
                (p4_ir::BlockKind::Parser, Some(Declaration::Parser(p))) => &p.params,
                (
                    p4_ir::BlockKind::Control | p4_ir::BlockKind::Deparser,
                    Some(Declaration::Control(c)),
                ) => &c.params,
                (_, Some(_)) => {
                    self.error(
                        CheckErrorKind::BadPackage,
                        format!(
                            "declaration `{decl_name}` has the wrong kind for slot `{}`",
                            block.slot
                        ),
                    );
                    continue;
                }
                (_, None) => {
                    self.error(
                        CheckErrorKind::BadPackage,
                        format!(
                            "slot `{}` references unknown declaration `{decl_name}`",
                            block.slot
                        ),
                    );
                    continue;
                }
            };
            if params.len() != block.params.len() {
                self.error(
                    CheckErrorKind::BadPackage,
                    format!(
                        "`{decl_name}` has {} parameters, slot `{}` expects {}",
                        params.len(),
                        block.slot,
                        block.params.len()
                    ),
                );
            }
        }
    }

    fn declare_params(&mut self, scope: &mut Scope, params: &[p4_ir::Param]) {
        for param in params {
            if !self.type_exists(&param.ty) {
                self.error(
                    CheckErrorKind::UnknownType,
                    format!("parameter `{}` has unknown type {}", param.name, param.ty),
                );
            }
            scope.declare(param.name.clone(), self.env.resolve(&param.ty));
        }
    }

    fn declare_top_level_constants(&mut self, scope: &mut Scope) {
        for decl in &self.program.declarations {
            match decl {
                Declaration::Constant(c) => scope.declare(c.name.clone(), self.env.resolve(&c.ty)),
                Declaration::Variable { name, ty, .. } => {
                    scope.declare(name.clone(), self.env.resolve(ty))
                }
                _ => {}
            }
        }
    }

    fn check_control(&mut self, control: &ControlDecl) {
        self.context = format!("control {}", control.name);
        let mut scope = Scope::new();
        self.declare_top_level_constants(&mut scope);
        self.declare_params(&mut scope, &control.params);
        // Local declarations: variables, constants, actions, tables.
        let mut local_tables: Vec<&p4_ir::TableDecl> = Vec::new();
        let mut local_actions: HashMap<String, CallableSig> = HashMap::new();
        for local in &control.locals {
            match local {
                Declaration::Variable { name, ty, init } => {
                    if let Some(init) = init {
                        self.check_expr_type(init, &self.env.resolve(ty), &scope);
                    }
                    scope.declare(name.clone(), self.env.resolve(ty));
                }
                Declaration::Constant(c) => {
                    self.check_expr_type(&c.value, &self.env.resolve(&c.ty), &scope);
                    scope.declare(c.name.clone(), self.env.resolve(&c.ty));
                }
                Declaration::Action(a) => {
                    self.context = format!("control {} / action {}", control.name, a.name);
                    let mut action_scope = scope.clone();
                    action_scope.push();
                    self.declare_params(&mut action_scope, &a.params);
                    self.check_block(&a.body, &mut action_scope, &Type::Void);
                    local_actions.insert(
                        a.name.clone(),
                        CallableSig {
                            params: a.params.clone(),
                            return_type: Type::Void,
                        },
                    );
                    self.context = format!("control {}", control.name);
                }
                Declaration::Table(t) => local_tables.push(t),
                _ => {}
            }
        }
        // Tables may reference actions declared later in the locals list, so
        // check them after all actions are known.
        for table in local_tables {
            self.context = format!("control {} / table {}", control.name, table.name);
            for key in &table.keys {
                if self.expr_type(&key.expr, &scope).is_none() {
                    self.error(
                        CheckErrorKind::BadTable,
                        format!(
                            "table key `{}` is not well-typed",
                            p4_ir::print_expr(&key.expr)
                        ),
                    );
                }
            }
            let mut refs: Vec<&p4_ir::ActionRef> = table.actions.iter().collect();
            refs.push(&table.default_action);
            for action_ref in refs {
                let known = action_ref.name == "NoAction"
                    || local_actions.contains_key(&action_ref.name)
                    || self.callables.contains_key(&action_ref.name);
                if !known {
                    self.error(
                        CheckErrorKind::BadTable,
                        format!("table references unknown action `{}`", action_ref.name),
                    );
                }
            }
            if !table
                .actions
                .iter()
                .any(|a| a.name == table.default_action.name)
                && table.default_action.name != "NoAction"
            {
                self.error(
                    CheckErrorKind::BadTable,
                    format!(
                        "default action `{}` is not in the table's action list",
                        table.default_action.name
                    ),
                );
            }
        }
        self.context = format!("control {}", control.name);
        let mut apply_scope = scope;
        apply_scope.push();
        self.check_block(&control.apply, &mut apply_scope, &Type::Void);
    }

    fn check_parser(&mut self, parser: &ParserDecl) {
        self.context = format!("parser {}", parser.name);
        let mut scope = Scope::new();
        self.declare_top_level_constants(&mut scope);
        self.declare_params(&mut scope, &parser.params);
        for local in &parser.locals {
            if let Declaration::Variable { name, ty, .. } = local {
                scope.declare(name.clone(), self.env.resolve(ty));
            }
        }
        let state_names: Vec<&str> = parser
            .states
            .iter()
            .map(|s| s.name.as_str())
            .chain(["accept", "reject"])
            .collect();
        if !parser.states.iter().any(|s| s.name == "start") {
            self.error(CheckErrorKind::UnknownName, "parser has no `start` state");
        }
        for state in &parser.states {
            self.context = format!("parser {} / state {}", parser.name, state.name);
            let mut state_scope = scope.clone();
            state_scope.push();
            for stmt in &state.statements {
                self.check_statement(stmt, &mut state_scope, &Type::Void);
            }
            match &state.transition {
                Transition::Direct(next) => {
                    if !state_names.contains(&next.as_str()) {
                        self.error(
                            CheckErrorKind::UnknownName,
                            format!("transition to unknown state `{next}`"),
                        );
                    }
                }
                Transition::Select { selector, cases } => {
                    if self.expr_type(selector, &state_scope).is_none() {
                        self.error(
                            CheckErrorKind::TypeMismatch,
                            "select expression is not well-typed",
                        );
                    }
                    for case in cases {
                        if !state_names.contains(&case.next_state.as_str()) {
                            self.error(
                                CheckErrorKind::UnknownName,
                                format!("transition to unknown state `{}`", case.next_state),
                            );
                        }
                    }
                }
            }
        }
    }

    fn check_function(&mut self, function: &FunctionDecl) {
        self.context = format!("function {}", function.name);
        let mut scope = Scope::new();
        self.declare_top_level_constants(&mut scope);
        self.declare_params(&mut scope, &function.params);
        self.check_block(&function.body, &mut scope, &function.return_type.clone());
    }

    fn check_block(&mut self, block: &Block, scope: &mut Scope, return_type: &Type) {
        scope.push();
        for stmt in &block.statements {
            self.check_statement(stmt, scope, return_type);
        }
        scope.pop();
    }

    fn check_statement(&mut self, stmt: &Statement, scope: &mut Scope, return_type: &Type) {
        match stmt {
            Statement::Assign { lhs, rhs } => {
                if !lhs.is_lvalue() {
                    self.error(
                        CheckErrorKind::NotAnLValue,
                        format!("cannot assign to `{}`", p4_ir::print_expr(lhs)),
                    );
                    return;
                }
                let lhs_ty = self.expr_type(lhs, scope);
                match lhs_ty {
                    Some(ty) => self.check_expr_type(rhs, &ty, scope),
                    None => self.error(
                        CheckErrorKind::UnknownName,
                        format!("unknown assignment target `{}`", p4_ir::print_expr(lhs)),
                    ),
                }
            }
            Statement::Call(call) => self.check_call(call, scope),
            Statement::If {
                cond,
                then_branch,
                else_branch,
            } => {
                self.check_expr_type(cond, &Type::Bool, scope);
                self.check_statement(then_branch, scope, return_type);
                if let Some(else_stmt) = else_branch {
                    self.check_statement(else_stmt, scope, return_type);
                }
            }
            Statement::Block(block) => self.check_block(block, scope, return_type),
            Statement::Declare { name, ty, init } => {
                if !self.type_exists(ty) {
                    self.error(
                        CheckErrorKind::UnknownType,
                        format!("variable `{name}` has unknown type {ty}"),
                    );
                }
                if let Some(init) = init {
                    self.check_expr_type(init, &self.env.resolve(ty), scope);
                }
                scope.declare(name.clone(), self.env.resolve(ty));
            }
            Statement::Constant { name, ty, value } => {
                self.check_expr_type(value, &self.env.resolve(ty), scope);
                scope.declare(name.clone(), self.env.resolve(ty));
            }
            Statement::Return(expr) => match (expr, return_type) {
                (None, Type::Void) => {}
                (Some(_), Type::Void) => self.error(
                    CheckErrorKind::TypeMismatch,
                    "void callable returns a value",
                ),
                (None, _) => self.error(CheckErrorKind::TypeMismatch, "missing return value"),
                (Some(e), ty) => self.check_expr_type(e, &self.env.resolve(ty), scope),
            },
            Statement::Exit | Statement::Empty => {}
        }
    }

    fn check_call(&mut self, call: &CallExpr, scope: &Scope) {
        let method = call.method();
        match method {
            // Built-in extern-style methods.
            "apply" | "setValid" | "setInvalid" | "isValid" | "emit" | "extract" => {
                // Receiver existence: the root of the receiver path must be
                // in scope or name a local table.
                if let Some(root) = call.target.first() {
                    let is_table = self
                        .program
                        .controls()
                        .flat_map(|c| c.locals.iter())
                        .any(|d| matches!(d, Declaration::Table(t) if &t.name == root));
                    if scope.lookup(root).is_none() && !is_table && root != "packet" {
                        self.error(
                            CheckErrorKind::UnknownName,
                            format!("call receiver `{root}` is not declared"),
                        );
                    }
                }
                for arg in &call.args {
                    if self.expr_type(arg, scope).is_none() && !arg.is_lvalue() {
                        self.error(
                            CheckErrorKind::BadCall,
                            format!("argument `{}` is not well-typed", p4_ir::print_expr(arg)),
                        );
                    }
                }
            }
            name => {
                let Some(sig) = self.callables.get(name).cloned() else {
                    self.error(
                        CheckErrorKind::BadCall,
                        format!("call to unknown callable `{name}`"),
                    );
                    return;
                };
                // Direct invocations must supply every parameter (control
                // plane arguments only exist for table-bound actions).
                if call.args.len() != sig.params.len() {
                    self.error(
                        CheckErrorKind::BadCall,
                        format!(
                            "`{name}` expects {} arguments, got {}",
                            sig.params.len(),
                            call.args.len()
                        ),
                    );
                    return;
                }
                for (arg, param) in call.args.iter().zip(&sig.params) {
                    if param.direction.requires_lvalue() && !arg.is_lvalue() {
                        self.error(
                            CheckErrorKind::NotAnLValue,
                            format!(
                                "argument for `{}` ({}) must be a writable l-value",
                                param.name, param.direction
                            ),
                        );
                    }
                    let expected = self.env.resolve(&param.ty);
                    self.check_expr_type(arg, &expected, scope);
                }
            }
        }
    }

    /// Computes the type of an expression, reporting unknown names.
    fn expr_type(&mut self, expr: &Expr, scope: &Scope) -> Option<Type> {
        // Report unresolved path roots explicitly for better diagnostics.
        let mut paths = Vec::new();
        expr.collect_paths(&mut paths);
        for path in paths {
            if scope.lookup(path).is_none() && !self.is_global_name(path) {
                self.error(
                    CheckErrorKind::UnknownName,
                    format!("`{path}` is not declared"),
                );
                return None;
            }
        }
        self.validate_expr(expr, scope);
        type_of(self.env, scope, expr)
    }

    fn is_global_name(&self, name: &str) -> bool {
        self.callables.contains_key(name)
            || self.program.declarations.iter().any(|d| d.name() == name)
            || name == "packet"
    }

    /// Structural validity checks that `type_of` does not perform.
    fn validate_expr(&mut self, expr: &Expr, scope: &Scope) {
        match expr {
            Expr::Slice { base, hi, lo } => {
                self.validate_expr(base, scope);
                if hi < lo {
                    self.error(
                        CheckErrorKind::BadSlice,
                        format!("slice [{hi}:{lo}] has hi < lo"),
                    );
                } else if let Some(width) = type_of(self.env, scope, base).and_then(|t| t.width()) {
                    if *hi >= width {
                        self.error(
                            CheckErrorKind::BadSlice,
                            format!("slice [{hi}:{lo}] exceeds operand width {width}"),
                        );
                    }
                }
            }
            Expr::Binary { op, left, right } => {
                self.validate_expr(left, scope);
                self.validate_expr(right, scope);
                if matches!(op, BinOp::And | BinOp::Or) {
                    for side in [left, right] {
                        if let Some(ty) = type_of(self.env, scope, side) {
                            if ty != Type::Bool {
                                self.error(
                                    CheckErrorKind::TypeMismatch,
                                    format!("logical operator applied to non-boolean {ty}"),
                                );
                            }
                        }
                    }
                } else if !matches!(op, BinOp::Shl | BinOp::Shr | BinOp::Concat) {
                    // Widths must agree for arithmetic and comparisons when
                    // both sides have a known width.
                    if let (Some(lw), Some(rw)) = (
                        type_of(self.env, scope, left).and_then(|t| t.width()),
                        type_of(self.env, scope, right).and_then(|t| t.width()),
                    ) {
                        if lw != rw {
                            self.error(
                                CheckErrorKind::TypeMismatch,
                                format!(
                                    "operands of `{}` have different widths ({lw} vs {rw})",
                                    op.symbol()
                                ),
                            );
                        }
                    }
                }
            }
            Expr::Unary { op, operand } => {
                self.validate_expr(operand, scope);
                if *op == UnOp::Not {
                    if let Some(ty) = type_of(self.env, scope, operand) {
                        if ty != Type::Bool {
                            self.error(
                                CheckErrorKind::TypeMismatch,
                                format!("`!` applied to non-boolean {ty}"),
                            );
                        }
                    }
                }
            }
            Expr::Ternary {
                cond,
                then_expr,
                else_expr,
            } => {
                self.validate_expr(cond, scope);
                self.validate_expr(then_expr, scope);
                self.validate_expr(else_expr, scope);
                if let Some(ty) = type_of(self.env, scope, cond) {
                    if ty != Type::Bool {
                        self.error(
                            CheckErrorKind::TypeMismatch,
                            "ternary condition must be boolean",
                        );
                    }
                }
            }
            Expr::Cast { expr, .. } => self.validate_expr(expr, scope),
            Expr::Member { base, member } => {
                self.validate_expr(base, scope);
                if let Some(base_ty) = type_of(self.env, scope, base) {
                    if base_ty.is_aggregate() && self.env.field_type(&base_ty, member).is_none() {
                        self.error(
                            CheckErrorKind::UnknownName,
                            format!("no field `{member}` in {base_ty}"),
                        );
                    }
                }
            }
            Expr::Call(call) => {
                for arg in &call.args {
                    self.validate_expr(arg, scope);
                }
            }
            _ => {}
        }
    }

    /// Checks that `expr` is compatible with `expected`.
    fn check_expr_type(&mut self, expr: &Expr, expected: &Type, scope: &Scope) {
        // Unsized integer literals adapt to any bit type.
        if let Expr::Int { width: None, .. } = expr {
            if expected.is_bits() {
                return;
            }
        }
        let Some(actual) = self.expr_type(expr, scope) else {
            // `expr_type` already reported the problem (or the expression
            // contains an unsized literal whose width is inferred from
            // context, which we accept).
            return;
        };
        let compatible = match (&actual, expected) {
            (a, b) if a == b => true,
            (Type::Bits { width: w1, .. }, Type::Bits { width: w2, .. }) => w1 == w2,
            _ => false,
        };
        if !compatible {
            self.error(
                CheckErrorKind::TypeMismatch,
                format!(
                    "expected {expected}, found {actual} in `{}`",
                    p4_ir::print_expr(expr)
                ),
            );
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use p4_ir::builder;
    use p4_ir::{Block, Expr, Statement, Type};

    fn check_ingress(statements: Vec<Statement>) -> Vec<CheckError> {
        let program = builder::v1model_program(vec![], Block::new(statements));
        check_program(&program)
    }

    #[test]
    fn trivial_and_figure3_programs_are_clean() {
        assert_eq!(check_program(&builder::trivial_program()), Vec::new());
        let (locals, apply) = builder::figure3_table_control();
        let program = builder::v1model_program(locals, apply);
        assert_eq!(check_program(&program), Vec::new());
    }

    #[test]
    fn detects_unknown_names() {
        let errors = check_ingress(vec![Statement::assign(
            Expr::dotted(&["hdr", "h", "a"]),
            Expr::path("nonexistent"),
        )]);
        assert!(errors.iter().any(|e| e.kind == CheckErrorKind::UnknownName));
    }

    #[test]
    fn detects_unknown_fields() {
        let errors = check_ingress(vec![Statement::assign(
            Expr::dotted(&["hdr", "h", "nope"]),
            Expr::uint(1, 8),
        )]);
        assert!(errors.iter().any(|e| e.kind == CheckErrorKind::UnknownName));
    }

    #[test]
    fn detects_width_mismatches() {
        let errors = check_ingress(vec![Statement::assign(
            Expr::dotted(&["hdr", "h", "a"]),
            Expr::uint(1, 16),
        )]);
        assert!(errors
            .iter()
            .any(|e| e.kind == CheckErrorKind::TypeMismatch));
    }

    #[test]
    fn accepts_unsized_literals_in_bit_context() {
        let errors = check_ingress(vec![Statement::assign(
            Expr::dotted(&["hdr", "h", "a"]),
            Expr::int(3),
        )]);
        assert_eq!(errors, Vec::new());
    }

    #[test]
    fn detects_non_lvalue_assignment_targets() {
        let errors = check_ingress(vec![Statement::Assign {
            lhs: Expr::uint(1, 8),
            rhs: Expr::uint(2, 8),
        }]);
        assert!(errors.iter().any(|e| e.kind == CheckErrorKind::NotAnLValue));
    }

    #[test]
    fn detects_bad_slices() {
        let errors = check_ingress(vec![Statement::assign(
            Expr::dotted(&["hdr", "h", "a"]),
            Expr::slice(Expr::dotted(&["hdr", "h", "b"]), 9, 2),
        )]);
        assert!(errors.iter().any(|e| e.kind == CheckErrorKind::BadSlice));
    }

    #[test]
    fn detects_non_boolean_conditions() {
        let errors = check_ingress(vec![Statement::if_then(
            Expr::dotted(&["hdr", "h", "a"]),
            Statement::Block(Block::empty()),
        )]);
        assert!(errors
            .iter()
            .any(|e| e.kind == CheckErrorKind::TypeMismatch));
    }

    #[test]
    fn detects_unknown_table_actions() {
        use p4_ir::{ActionRef, Declaration, KeyElement, MatchKind, TableDecl};
        let table = TableDecl {
            name: "t".into(),
            keys: vec![KeyElement {
                expr: Expr::dotted(&["hdr", "h", "a"]),
                match_kind: MatchKind::Exact,
            }],
            actions: vec![ActionRef::new("missing_action")],
            default_action: ActionRef::new("NoAction"),
        };
        let program = builder::v1model_program(
            vec![Declaration::Table(table)],
            Block::new(vec![Statement::call(vec!["t", "apply"], vec![])]),
        );
        let errors = check_program(&program);
        assert!(errors.iter().any(|e| e.kind == CheckErrorKind::BadTable));
    }

    #[test]
    fn detects_out_argument_that_is_not_an_lvalue() {
        use p4_ir::{ActionDecl, Declaration, Direction, Param};
        let action = ActionDecl {
            name: "a".into(),
            params: vec![Param::new(Direction::InOut, "val", Type::bits(8))],
            body: Block::new(vec![Statement::assign(Expr::path("val"), Expr::uint(1, 8))]),
        };
        let program = builder::v1model_program(
            vec![Declaration::Action(action)],
            Block::new(vec![Statement::call(vec!["a"], vec![Expr::uint(5, 8)])]),
        );
        let errors = check_program(&program);
        assert!(errors.iter().any(|e| e.kind == CheckErrorKind::NotAnLValue));
    }

    #[test]
    fn detects_wrong_argument_count() {
        use p4_ir::{ActionDecl, Declaration, Direction, Param};
        let action = ActionDecl {
            name: "a".into(),
            params: vec![Param::new(Direction::In, "val", Type::bits(8))],
            body: Block::empty(),
        };
        let program = builder::v1model_program(
            vec![Declaration::Action(action)],
            Block::new(vec![Statement::call(vec!["a"], vec![])]),
        );
        let errors = check_program(&program);
        assert!(errors.iter().any(|e| e.kind == CheckErrorKind::BadCall));
    }

    #[test]
    fn detects_broken_package_bindings() {
        let mut program = builder::trivial_program();
        program
            .package
            .bindings
            .retain(|(slot, _)| slot != "egress");
        let errors = check_program(&program);
        assert!(errors.iter().any(|e| e.kind == CheckErrorKind::BadPackage));
    }

    #[test]
    fn parser_without_start_state_is_rejected() {
        let mut program = builder::trivial_program();
        for decl in &mut program.declarations {
            if let p4_ir::Declaration::Parser(p) = decl {
                p.states.retain(|s| s.name != "start");
            }
        }
        let errors = check_program(&program);
        assert!(errors.iter().any(|e| e.kind == CheckErrorKind::UnknownName));
    }
}
