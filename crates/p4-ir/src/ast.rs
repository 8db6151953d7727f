//! Abstract syntax tree / intermediate representation for the P4-16 subset.
//!
//! The same IR is used by the parser, the type checker, every compiler pass,
//! the symbolic interpreter, the concrete targets, and the random program
//! generator — mirroring how Gauntlet is built as an extension of P4C's IR
//! (paper §4.2, §5.2).

use crate::types::{MatchKind, Param, Type};
use serde::{Deserialize, Serialize};

/// Unary operators.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum UnOp {
    /// Logical negation `!` on `bool`.
    Not,
    /// Bitwise complement `~` on `bit<N>`.
    BitNot,
    /// Arithmetic negation `-` (two's complement).
    Neg,
}

/// Binary operators.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum BinOp {
    Add,
    Sub,
    Mul,
    /// Saturating addition `|+|`.
    SatAdd,
    /// Saturating subtraction `|-|`.
    SatSub,
    BitAnd,
    BitOr,
    BitXor,
    Shl,
    Shr,
    /// Bit-vector concatenation `++`.
    Concat,
    Eq,
    Ne,
    Lt,
    Le,
    Gt,
    Ge,
    /// Short-circuit logical and `&&`.
    And,
    /// Short-circuit logical or `||`.
    Or,
}

impl BinOp {
    /// True if the operator produces a `bool` regardless of operand type.
    pub fn is_comparison(self) -> bool {
        matches!(
            self,
            BinOp::Eq | BinOp::Ne | BinOp::Lt | BinOp::Le | BinOp::Gt | BinOp::Ge
        )
    }

    /// True for the boolean connectives.
    pub fn is_logical(self) -> bool {
        matches!(self, BinOp::And | BinOp::Or)
    }

    /// Source-level token for this operator.
    pub fn symbol(self) -> &'static str {
        match self {
            BinOp::Add => "+",
            BinOp::Sub => "-",
            BinOp::Mul => "*",
            BinOp::SatAdd => "|+|",
            BinOp::SatSub => "|-|",
            BinOp::BitAnd => "&",
            BinOp::BitOr => "|",
            BinOp::BitXor => "^",
            BinOp::Shl => "<<",
            BinOp::Shr => ">>",
            BinOp::Concat => "++",
            BinOp::Eq => "==",
            BinOp::Ne => "!=",
            BinOp::Lt => "<",
            BinOp::Le => "<=",
            BinOp::Gt => ">",
            BinOp::Ge => ">=",
            BinOp::And => "&&",
            BinOp::Or => "||",
        }
    }
}

/// Expressions.  All expressions are side-effect free except [`Expr::Call`],
/// whose evaluation order relative to other argument expressions is governed
/// by the side-effect-ordering pass in the compiler.
#[derive(Debug, Clone, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum Expr {
    /// `true` / `false`.
    Bool(bool),
    /// Integer literal; `width = None` means an "infinite precision"
    /// compile-time integer that must be cast/inferred by the checker.
    Int {
        value: u128,
        width: Option<u32>,
        signed: bool,
    },
    /// A reference to a named variable, parameter, or constant.
    Path(String),
    /// Member access `expr.member` (struct field, header field).
    Member { base: Box<Expr>, member: String },
    /// Bit slice `expr[hi:lo]` (inclusive indices, `hi >= lo`).
    Slice { base: Box<Expr>, hi: u32, lo: u32 },
    /// Unary operation.
    Unary { op: UnOp, operand: Box<Expr> },
    /// Binary operation.
    Binary {
        op: BinOp,
        left: Box<Expr>,
        right: Box<Expr>,
    },
    /// Conditional `cond ? then : else`.
    Ternary {
        cond: Box<Expr>,
        then_expr: Box<Expr>,
        else_expr: Box<Expr>,
    },
    /// Explicit cast `(ty) expr`.
    Cast { ty: Type, expr: Box<Expr> },
    /// A call used in expression position, e.g. `hdr.h.isValid()`,
    /// `t.apply().hit`, or a call of a function returning a value.
    Call(Box<CallExpr>),
}

/// A call: the callee is a "method path" (e.g. `t.apply`, `hdr.h.setValid`,
/// `my_fun`) plus positional arguments.
#[derive(Debug, Clone, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub struct CallExpr {
    /// Dotted path of the callee, e.g. `["t", "apply"]` or `["clamp"]`.
    pub target: Vec<String>,
    pub args: Vec<Expr>,
}

impl CallExpr {
    pub fn new(target: Vec<String>, args: Vec<Expr>) -> CallExpr {
        CallExpr { target, args }
    }

    /// The final component of the callee path (the method name).
    pub fn method(&self) -> &str {
        self.target.last().map(String::as_str).unwrap_or("")
    }

    /// The receiver path (everything but the method name), joined by dots.
    pub fn receiver(&self) -> String {
        self.target[..self.target.len().saturating_sub(1)].join(".")
    }
}

impl Expr {
    /// Convenience constructor for an unsigned sized literal.
    pub fn uint(value: u128, width: u32) -> Expr {
        Expr::Int {
            value: crate::types::truncate(value, width),
            width: Some(width),
            signed: false,
        }
    }

    /// Convenience constructor for an "infinite precision" integer literal.
    pub fn int(value: u128) -> Expr {
        Expr::Int {
            value,
            width: None,
            signed: false,
        }
    }

    /// Convenience constructor for a path expression.
    pub fn path(name: impl Into<String>) -> Expr {
        Expr::Path(name.into())
    }

    /// Convenience constructor for member access.
    pub fn member(base: Expr, member: impl Into<String>) -> Expr {
        Expr::Member {
            base: Box::new(base),
            member: member.into(),
        }
    }

    /// `base.a.b.c` from `["base", "a", "b", "c"]`.
    pub fn dotted(parts: &[&str]) -> Expr {
        let mut iter = parts.iter();
        let mut expr = Expr::path(*iter.next().expect("dotted path needs at least one part"));
        for part in iter {
            expr = Expr::member(expr, *part);
        }
        expr
    }

    pub fn binary(op: BinOp, left: Expr, right: Expr) -> Expr {
        Expr::Binary {
            op,
            left: Box::new(left),
            right: Box::new(right),
        }
    }

    pub fn unary(op: UnOp, operand: Expr) -> Expr {
        Expr::Unary {
            op,
            operand: Box::new(operand),
        }
    }

    pub fn ternary(cond: Expr, then_expr: Expr, else_expr: Expr) -> Expr {
        Expr::Ternary {
            cond: Box::new(cond),
            then_expr: Box::new(then_expr),
            else_expr: Box::new(else_expr),
        }
    }

    pub fn cast(ty: Type, expr: Expr) -> Expr {
        Expr::Cast {
            ty,
            expr: Box::new(expr),
        }
    }

    pub fn slice(base: Expr, hi: u32, lo: u32) -> Expr {
        Expr::Slice {
            base: Box::new(base),
            hi,
            lo,
        }
    }

    pub fn call(target: Vec<&str>, args: Vec<Expr>) -> Expr {
        Expr::Call(Box::new(CallExpr::new(
            target.into_iter().map(str::to_owned).collect(),
            args,
        )))
    }

    /// True if this expression is a syntactic l-value (path, member access,
    /// or slice of an l-value).  Only l-values may be assigned or bound to
    /// `out`/`inout` parameters.
    pub fn is_lvalue(&self) -> bool {
        match self {
            Expr::Path(_) => true,
            Expr::Member { base, .. } => base.is_lvalue(),
            Expr::Slice { base, .. } => base.is_lvalue(),
            _ => false,
        }
    }

    /// Returns the root path name of an l-value (e.g. `hdr` for
    /// `hdr.eth.src[7:0]`), or `None` if this is not an l-value.
    pub fn lvalue_root(&self) -> Option<&str> {
        match self {
            Expr::Path(name) => Some(name),
            Expr::Member { base, .. } | Expr::Slice { base, .. } => base.lvalue_root(),
            _ => None,
        }
    }

    /// True if the expression contains a call anywhere (used by the
    /// side-effect-ordering pass).
    pub fn has_call(&self) -> bool {
        match self {
            Expr::Call(_) => true,
            Expr::Bool(_) | Expr::Int { .. } | Expr::Path(_) => false,
            Expr::Member { base, .. } | Expr::Slice { base, .. } => base.has_call(),
            Expr::Unary { operand, .. } => operand.has_call(),
            Expr::Cast { expr, .. } => expr.has_call(),
            Expr::Binary { left, right, .. } => left.has_call() || right.has_call(),
            Expr::Ternary {
                cond,
                then_expr,
                else_expr,
            } => cond.has_call() || then_expr.has_call() || else_expr.has_call(),
        }
    }

    /// Collects all free path roots referenced by the expression into `out`.
    pub fn collect_paths<'a>(&'a self, out: &mut Vec<&'a str>) {
        match self {
            Expr::Path(name) => out.push(name),
            Expr::Bool(_) | Expr::Int { .. } => {}
            Expr::Member { base, .. } | Expr::Slice { base, .. } => base.collect_paths(out),
            Expr::Unary { operand, .. } => operand.collect_paths(out),
            Expr::Cast { expr, .. } => expr.collect_paths(out),
            Expr::Binary { left, right, .. } => {
                left.collect_paths(out);
                right.collect_paths(out);
            }
            Expr::Ternary {
                cond,
                then_expr,
                else_expr,
            } => {
                cond.collect_paths(out);
                then_expr.collect_paths(out);
                else_expr.collect_paths(out);
            }
            Expr::Call(call) => {
                if let Some(root) = call.target.first() {
                    out.push(root);
                }
                for arg in &call.args {
                    arg.collect_paths(out);
                }
            }
        }
    }

    /// Approximate AST size (number of nodes); used by the generator to
    /// bound program size and by tests.
    pub fn size(&self) -> usize {
        match self {
            Expr::Bool(_) | Expr::Int { .. } | Expr::Path(_) => 1,
            Expr::Member { base, .. } | Expr::Slice { base, .. } => 1 + base.size(),
            Expr::Unary { operand, .. } => 1 + operand.size(),
            Expr::Cast { expr, .. } => 1 + expr.size(),
            Expr::Binary { left, right, .. } => 1 + left.size() + right.size(),
            Expr::Ternary {
                cond,
                then_expr,
                else_expr,
            } => 1 + cond.size() + then_expr.size() + else_expr.size(),
            Expr::Call(call) => 1 + call.args.iter().map(Expr::size).sum::<usize>(),
        }
    }
}

/// Statements.
#[derive(Debug, Clone, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum Statement {
    /// `lhs = rhs;`
    Assign { lhs: Expr, rhs: Expr },
    /// An expression-statement call: `t.apply();`, `hdr.h.setValid();`,
    /// `my_action(x);`.
    Call(CallExpr),
    /// `if (cond) { .. } else { .. }`
    If {
        cond: Expr,
        then_branch: Box<Statement>,
        else_branch: Option<Box<Statement>>,
    },
    /// `{ ... }`
    Block(Block),
    /// Local variable declaration with optional initializer.
    Declare {
        name: String,
        ty: Type,
        init: Option<Expr>,
    },
    /// Local compile-time constant declaration.
    Constant { name: String, ty: Type, value: Expr },
    /// `exit;` — terminates processing of the whole programmable block, but
    /// still performs copy-out of `inout`/`out` parameters (spec change the
    /// paper triggered; see Figure 5f).
    Exit,
    /// `return;` / `return expr;`
    Return(Option<Expr>),
    /// The empty statement `;`.
    Empty,
}

impl Statement {
    pub fn assign(lhs: Expr, rhs: Expr) -> Statement {
        Statement::Assign { lhs, rhs }
    }

    pub fn if_then(cond: Expr, then_branch: Statement) -> Statement {
        Statement::If {
            cond,
            then_branch: Box::new(then_branch),
            else_branch: None,
        }
    }

    pub fn if_else(cond: Expr, then_branch: Statement, else_branch: Statement) -> Statement {
        Statement::If {
            cond,
            then_branch: Box::new(then_branch),
            else_branch: Some(Box::new(else_branch)),
        }
    }

    pub fn call(target: Vec<&str>, args: Vec<Expr>) -> Statement {
        Statement::Call(CallExpr::new(
            target.into_iter().map(str::to_owned).collect(),
            args,
        ))
    }

    /// Number of AST nodes in this statement.
    pub fn size(&self) -> usize {
        match self {
            Statement::Assign { lhs, rhs } => 1 + lhs.size() + rhs.size(),
            Statement::Call(call) => 1 + call.args.iter().map(Expr::size).sum::<usize>(),
            Statement::If {
                cond,
                then_branch,
                else_branch,
            } => {
                1 + cond.size()
                    + then_branch.size()
                    + else_branch.as_ref().map(|s| s.size()).unwrap_or(0)
            }
            Statement::Block(block) => 1 + block.size(),
            Statement::Declare { init, .. } => 1 + init.as_ref().map(Expr::size).unwrap_or(0),
            Statement::Constant { value, .. } => 1 + value.size(),
            Statement::Exit | Statement::Empty => 1,
            Statement::Return(expr) => 1 + expr.as_ref().map(Expr::size).unwrap_or(0),
        }
    }
}

/// A brace-delimited sequence of statements.
#[derive(Debug, Clone, Default, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub struct Block {
    pub statements: Vec<Statement>,
}

impl Block {
    pub fn new(statements: Vec<Statement>) -> Block {
        Block { statements }
    }

    pub fn empty() -> Block {
        Block {
            statements: Vec::new(),
        }
    }

    pub fn size(&self) -> usize {
        self.statements.iter().map(Statement::size).sum()
    }
}

/// A named, typed field of a header or struct.
#[derive(Debug, Clone, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub struct Field {
    pub name: String,
    pub ty: Type,
}

impl Field {
    pub fn new(name: impl Into<String>, ty: Type) -> Field {
        Field {
            name: name.into(),
            ty,
        }
    }
}

/// `header name { fields }` — a packet header with a validity bit.
#[derive(Debug, Clone, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub struct HeaderDecl {
    pub name: String,
    pub fields: Vec<Field>,
}

impl HeaderDecl {
    /// Total bit width of all fields (the wire size of the header).
    pub fn bit_width(&self) -> u32 {
        self.fields.iter().filter_map(|f| f.ty.width()).sum()
    }
}

/// `struct name { fields }` — an aggregate without a validity bit.
#[derive(Debug, Clone, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub struct StructDecl {
    pub name: String,
    pub fields: Vec<Field>,
}

/// `typedef bit<N> name;`
#[derive(Debug, Clone, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub struct TypedefDecl {
    pub name: String,
    pub ty: Type,
}

/// `action name(params) { body }`
#[derive(Debug, Clone, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub struct ActionDecl {
    pub name: String,
    pub params: Vec<Param>,
    pub body: Block,
}

/// A free function: `ret name(params) { body }`.
#[derive(Debug, Clone, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub struct FunctionDecl {
    pub name: String,
    pub return_type: Type,
    pub params: Vec<Param>,
    pub body: Block,
}

/// One `expr : match_kind` entry of a table `key` property.
#[derive(Debug, Clone, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub struct KeyElement {
    pub expr: Expr,
    pub match_kind: MatchKind,
}

/// Reference to an action from a table's `actions` / `default_action`
/// property, with optional compile-time bound arguments.
#[derive(Debug, Clone, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub struct ActionRef {
    pub name: String,
    pub args: Vec<Expr>,
}

impl ActionRef {
    pub fn new(name: impl Into<String>) -> ActionRef {
        ActionRef {
            name: name.into(),
            args: Vec::new(),
        }
    }
}

/// `table name { key = {..}; actions = {..}; default_action = ..; }`
#[derive(Debug, Clone, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub struct TableDecl {
    pub name: String,
    pub keys: Vec<KeyElement>,
    pub actions: Vec<ActionRef>,
    pub default_action: ActionRef,
}

/// `control name(params) { locals apply { .. } }`
#[derive(Debug, Clone, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub struct ControlDecl {
    pub name: String,
    pub params: Vec<Param>,
    pub locals: Vec<Declaration>,
    pub apply: Block,
}

/// One state of a parser state machine.
#[derive(Debug, Clone, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub struct ParserState {
    pub name: String,
    pub statements: Vec<Statement>,
    pub transition: Transition,
}

/// Parser state transition.
#[derive(Debug, Clone, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum Transition {
    /// `transition accept;` / `transition reject;` / `transition state_x;`
    Direct(String),
    /// `transition select(expr) { value: state; ...; default: state; }`
    Select {
        selector: Expr,
        cases: Vec<SelectCase>,
    },
}

/// One arm of a `select` transition.
#[derive(Debug, Clone, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub struct SelectCase {
    /// `None` represents the `default` / `_` case.
    pub value: Option<Expr>,
    pub next_state: String,
}

/// `parser name(params) { locals states }`
#[derive(Debug, Clone, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub struct ParserDecl {
    pub name: String,
    pub params: Vec<Param>,
    pub locals: Vec<Declaration>,
    pub states: Vec<ParserState>,
}

impl ParserDecl {
    pub fn state(&self, name: &str) -> Option<&ParserState> {
        self.states.iter().find(|s| s.name == name)
    }
}

/// Top-level constant declaration.
#[derive(Debug, Clone, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub struct ConstantDecl {
    pub name: String,
    pub ty: Type,
    pub value: Expr,
}

/// A top-level declaration.
#[derive(Debug, Clone, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum Declaration {
    Header(HeaderDecl),
    Struct(StructDecl),
    Typedef(TypedefDecl),
    Constant(ConstantDecl),
    Action(ActionDecl),
    Function(FunctionDecl),
    Table(TableDecl),
    Control(ControlDecl),
    Parser(ParserDecl),
    /// A local variable declaration inside a control's declaration list.
    Variable {
        name: String,
        ty: Type,
        init: Option<Expr>,
    },
}

impl Declaration {
    /// The declared name, regardless of declaration kind.
    pub fn name(&self) -> &str {
        match self {
            Declaration::Header(d) => &d.name,
            Declaration::Struct(d) => &d.name,
            Declaration::Typedef(d) => &d.name,
            Declaration::Constant(d) => &d.name,
            Declaration::Action(d) => &d.name,
            Declaration::Function(d) => &d.name,
            Declaration::Table(d) => &d.name,
            Declaration::Control(d) => &d.name,
            Declaration::Parser(d) => &d.name,
            Declaration::Variable { name, .. } => name,
        }
    }
}

/// The `main` package instantiation: maps each programmable block slot of
/// the architecture (e.g. `"ingress"`) to the name of the control/parser
/// declaration instantiated in that slot.
#[derive(Debug, Clone, Default, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub struct PackageInstance {
    /// The package type name, e.g. `V1Switch`.
    pub package: String,
    /// Slot name → declaration name, in architecture slot order.
    pub bindings: Vec<(String, String)>,
}

impl PackageInstance {
    pub fn binding(&self, slot: &str) -> Option<&str> {
        self.bindings
            .iter()
            .find(|(s, _)| s == slot)
            .map(|(_, decl)| decl.as_str())
    }
}

/// A complete P4 program: declarations plus the package instantiation and
/// the name of the architecture it targets.
#[derive(Debug, Clone, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub struct Program {
    /// Architecture name, e.g. `"v1model"` or `"tna"`.
    pub architecture: String,
    pub declarations: Vec<Declaration>,
    pub package: PackageInstance,
}

impl Program {
    pub fn new(architecture: impl Into<String>) -> Program {
        Program {
            architecture: architecture.into(),
            declarations: Vec::new(),
            package: PackageInstance::default(),
        }
    }

    pub fn find(&self, name: &str) -> Option<&Declaration> {
        self.declarations.iter().find(|d| d.name() == name)
    }

    pub fn header(&self, name: &str) -> Option<&HeaderDecl> {
        self.declarations.iter().find_map(|d| match d {
            Declaration::Header(h) if h.name == name => Some(h),
            _ => None,
        })
    }

    pub fn struct_decl(&self, name: &str) -> Option<&StructDecl> {
        self.declarations.iter().find_map(|d| match d {
            Declaration::Struct(s) if s.name == name => Some(s),
            _ => None,
        })
    }

    pub fn control(&self, name: &str) -> Option<&ControlDecl> {
        self.declarations.iter().find_map(|d| match d {
            Declaration::Control(c) if c.name == name => Some(c),
            _ => None,
        })
    }

    pub fn control_mut(&mut self, name: &str) -> Option<&mut ControlDecl> {
        self.declarations.iter_mut().find_map(|d| match d {
            Declaration::Control(c) if c.name == name => Some(c),
            _ => None,
        })
    }

    pub fn parser(&self, name: &str) -> Option<&ParserDecl> {
        self.declarations.iter().find_map(|d| match d {
            Declaration::Parser(p) if p.name == name => Some(p),
            _ => None,
        })
    }

    pub fn controls(&self) -> impl Iterator<Item = &ControlDecl> {
        self.declarations.iter().filter_map(|d| match d {
            Declaration::Control(c) => Some(c),
            _ => None,
        })
    }

    pub fn controls_mut(&mut self) -> impl Iterator<Item = &mut ControlDecl> {
        self.declarations.iter_mut().filter_map(|d| match d {
            Declaration::Control(c) => Some(c),
            _ => None,
        })
    }

    pub fn parsers(&self) -> impl Iterator<Item = &ParserDecl> {
        self.declarations.iter().filter_map(|d| match d {
            Declaration::Parser(p) => Some(p),
            _ => None,
        })
    }

    /// Total AST size (rough node count) across all controls, parsers,
    /// actions and functions.
    pub fn size(&self) -> usize {
        self.declarations
            .iter()
            .map(|d| match d {
                Declaration::Action(a) => a.body.size() + 1,
                Declaration::Function(f) => f.body.size() + 1,
                Declaration::Control(c) => {
                    c.apply.size()
                        + c.locals
                            .iter()
                            .map(|l| match l {
                                Declaration::Action(a) => a.body.size() + 1,
                                Declaration::Table(t) => t.keys.len() + t.actions.len() + 1,
                                _ => 1,
                            })
                            .sum::<usize>()
                        + 1
                }
                Declaration::Parser(p) => {
                    p.states
                        .iter()
                        .map(|s| s.statements.iter().map(Statement::size).sum::<usize>() + 1)
                        .sum::<usize>()
                        + 1
                }
                _ => 1,
            })
            .sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::types::Direction;

    fn sample_header() -> HeaderDecl {
        HeaderDecl {
            name: "h_t".into(),
            fields: vec![
                Field::new("a", Type::bits(8)),
                Field::new("b", Type::bits(16)),
            ],
        }
    }

    #[test]
    fn header_width_sums_fields() {
        assert_eq!(sample_header().bit_width(), 24);
    }

    #[test]
    fn lvalue_detection() {
        assert!(Expr::path("x").is_lvalue());
        assert!(Expr::member(Expr::path("hdr"), "a").is_lvalue());
        assert!(Expr::slice(Expr::member(Expr::path("hdr"), "a"), 7, 1).is_lvalue());
        assert!(!Expr::uint(3, 8).is_lvalue());
        assert!(!Expr::binary(BinOp::Add, Expr::path("x"), Expr::uint(1, 8)).is_lvalue());
    }

    #[test]
    fn lvalue_root() {
        let e = Expr::slice(Expr::member(Expr::dotted(&["hdr", "eth"]), "src"), 7, 0);
        assert_eq!(e.lvalue_root(), Some("hdr"));
        assert_eq!(Expr::uint(1, 8).lvalue_root(), None);
    }

    #[test]
    fn collect_paths_finds_all_roots() {
        let e = Expr::binary(
            BinOp::Add,
            Expr::dotted(&["hdr", "a"]),
            Expr::ternary(Expr::path("flag"), Expr::path("x"), Expr::uint(0, 8)),
        );
        let mut paths = Vec::new();
        e.collect_paths(&mut paths);
        assert_eq!(paths, vec!["hdr", "flag", "x"]);
    }

    #[test]
    fn has_call_detects_nested_calls() {
        let no_call = Expr::binary(BinOp::Add, Expr::path("a"), Expr::uint(1, 8));
        assert!(!no_call.has_call());
        let with_call = Expr::binary(
            BinOp::Add,
            Expr::path("a"),
            Expr::call(vec!["f"], vec![Expr::path("b")]),
        );
        assert!(with_call.has_call());
    }

    #[test]
    fn call_expr_receiver_and_method() {
        let call = CallExpr::new(vec!["t".into(), "apply".into()], vec![]);
        assert_eq!(call.method(), "apply");
        assert_eq!(call.receiver(), "t");
        let plain = CallExpr::new(vec!["f".into()], vec![]);
        assert_eq!(plain.method(), "f");
        assert_eq!(plain.receiver(), "");
    }

    #[test]
    fn program_lookup() {
        let mut prog = Program::new("v1model");
        prog.declarations.push(Declaration::Header(sample_header()));
        prog.declarations.push(Declaration::Control(ControlDecl {
            name: "ig".into(),
            params: vec![Param::new(
                Direction::InOut,
                "hdr",
                Type::Struct("headers_t".into()),
            )],
            locals: vec![],
            apply: Block::empty(),
        }));
        assert!(prog.header("h_t").is_some());
        assert!(prog.control("ig").is_some());
        assert!(prog.control("eg").is_none());
        assert_eq!(prog.find("ig").map(|d| d.name()), Some("ig"));
    }

    #[test]
    fn package_binding_lookup() {
        let pkg = PackageInstance {
            package: "V1Switch".into(),
            bindings: vec![
                ("parser".into(), "p".into()),
                ("ingress".into(), "ig".into()),
            ],
        };
        assert_eq!(pkg.binding("ingress"), Some("ig"));
        assert_eq!(pkg.binding("egress"), None);
    }

    #[test]
    fn statement_sizes() {
        let s = Statement::if_else(
            Expr::path("c"),
            Statement::assign(Expr::path("x"), Expr::uint(1, 8)),
            Statement::Block(Block::new(vec![Statement::Exit])),
        );
        assert!(s.size() >= 5);
    }
}
