//! Recursive-descent parser producing `p4-ir` programs.
//!
//! The parser accepts the P4-16 subset that the ToP4 printer emits plus the
//! usual hand-written formatting, so that Gauntlet can re-parse the program
//! emitted after every compiler pass (paper §5.2: "We explicitly reparse
//! each emitted P4 file to also catch misbehavior in the parser and the ToP4
//! module").

use crate::lexer::{lex, Pos, Spanned, Token};
use p4_ir::{
    ActionDecl, ActionRef, Architecture, BinOp, Block, CallExpr, ConstantDecl, ControlDecl,
    Declaration, Direction, Expr, Field, FunctionDecl, HeaderDecl, KeyElement, MatchKind,
    PackageInstance, Param, ParserDecl, ParserState, Program, SelectCase, Statement, StructDecl,
    TableDecl, Transition, Type, TypedefDecl, UnOp,
};
use std::fmt;

/// A parse error with its source position.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ParseError {
    pub message: String,
    pub pos: Pos,
}

impl fmt::Display for ParseError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "parse error at {}: {}", self.pos, self.message)
    }
}

impl std::error::Error for ParseError {}

/// Parses a complete program from source text.
pub fn parse_program(source: &str) -> Result<Program, ParseError> {
    let tokens = lex(source).map_err(|e| ParseError {
        message: e.message,
        pos: e.pos,
    })?;
    Parser::new(tokens).program()
}

/// Parses a single expression (used by tests and the STF harness).
pub fn parse_expression(source: &str) -> Result<Expr, ParseError> {
    let tokens = lex(source).map_err(|e| ParseError {
        message: e.message,
        pos: e.pos,
    })?;
    let mut parser = Parser::new(tokens);
    let expr = parser.expression()?;
    parser.expect(&Token::Eof)?;
    Ok(expr)
}

struct Parser {
    tokens: Vec<Spanned>,
    index: usize,
}

type PResult<T> = Result<T, ParseError>;

impl Parser {
    fn new(tokens: Vec<Spanned>) -> Parser {
        Parser { tokens, index: 0 }
    }

    fn peek(&self) -> &Token {
        &self.tokens[self.index.min(self.tokens.len() - 1)].token
    }

    fn peek_at(&self, offset: usize) -> &Token {
        let i = (self.index + offset).min(self.tokens.len() - 1);
        &self.tokens[i].token
    }

    fn pos(&self) -> Pos {
        self.tokens[self.index.min(self.tokens.len() - 1)].pos
    }

    /// Consumes the current token and returns it.  The parser never
    /// backtracks, so the token is moved out of the stream rather than
    /// cloned; the trailing `Eof` is never consumed.
    fn bump(&mut self) -> Token {
        let last = self.tokens.len() - 1;
        if self.index < last {
            self.index += 1;
            std::mem::replace(&mut self.tokens[self.index - 1].token, Token::Eof)
        } else {
            self.tokens[last].token.clone()
        }
    }

    fn error<T>(&self, message: impl Into<String>) -> PResult<T> {
        Err(ParseError {
            message: message.into(),
            pos: self.pos(),
        })
    }

    fn expect(&mut self, token: &Token) -> PResult<()> {
        if self.peek() == token {
            self.bump();
            Ok(())
        } else {
            self.error(format!("expected {token}, found {}", self.peek()))
        }
    }

    fn eat(&mut self, token: &Token) -> bool {
        if self.peek() == token {
            self.bump();
            true
        } else {
            false
        }
    }

    fn identifier(&mut self) -> PResult<String> {
        match self.peek() {
            Token::Identifier(_) => match self.bump() {
                Token::Identifier(name) => Ok(name),
                _ => unreachable!("the current token is an identifier"),
            },
            other => self.error(format!("expected an identifier, found {other}")),
        }
    }

    fn is_keyword(&self, keyword: &str) -> bool {
        matches!(self.peek(), Token::Identifier(name) if name == keyword)
    }

    fn eat_keyword(&mut self, keyword: &str) -> bool {
        if self.is_keyword(keyword) {
            self.bump();
            true
        } else {
            false
        }
    }

    fn expect_keyword(&mut self, keyword: &str) -> PResult<()> {
        if self.eat_keyword(keyword) {
            Ok(())
        } else {
            self.error(format!("expected `{keyword}`, found {}", self.peek()))
        }
    }

    // ---- program structure ---------------------------------------------

    fn program(&mut self) -> PResult<Program> {
        let mut architecture = String::from("v1model");
        let mut declarations = Vec::new();
        let mut package = PackageInstance::default();
        loop {
            match self.peek() {
                Token::Eof => break,
                Token::Include(_) => {
                    if let Token::Include(name) = self.bump() {
                        if name != "core" {
                            architecture = name;
                        }
                    }
                }
                Token::Identifier(word) => match word.as_str() {
                    "header" => declarations.push(Declaration::Header(self.header_decl()?)),
                    "struct" => declarations.push(Declaration::Struct(self.struct_decl()?)),
                    "typedef" => declarations.push(Declaration::Typedef(self.typedef_decl()?)),
                    "const" => declarations.push(self.constant_decl()?),
                    "action" => declarations.push(Declaration::Action(self.action_decl()?)),
                    "control" => declarations.push(Declaration::Control(self.control_decl()?)),
                    "parser" => declarations.push(Declaration::Parser(self.parser_decl()?)),
                    "table" => declarations.push(Declaration::Table(self.table_decl()?)),
                    "bit" | "int" | "bool" | "void" => {
                        declarations.push(self.function_or_variable()?)
                    }
                    _ => {
                        // Either a package instantiation `Pkg(a(), b()) main;`
                        // or a declaration with a user-defined type.
                        if matches!(self.peek_at(1), Token::LParen) {
                            package = self.package_instance(&architecture)?;
                        } else {
                            declarations.push(self.function_or_variable()?);
                        }
                    }
                },
                other => return self.error(format!("unexpected token {other} at top level")),
            }
        }
        Ok(Program {
            architecture,
            declarations,
            package,
        })
    }

    fn package_instance(&mut self, architecture: &str) -> PResult<PackageInstance> {
        let package = self.identifier()?;
        self.expect(&Token::LParen)?;
        let mut decls = Vec::new();
        while !self.eat(&Token::RParen) {
            let name = self.identifier()?;
            self.expect(&Token::LParen)?;
            self.expect(&Token::RParen)?;
            decls.push(name);
            if !self.eat(&Token::Comma) {
                self.expect(&Token::RParen)?;
                break;
            }
        }
        self.expect_keyword("main")?;
        self.expect(&Token::Semicolon)?;
        // Bind positionally to the architecture's slots.
        let bindings = match Architecture::by_name(architecture) {
            Some(arch) => arch
                .blocks
                .iter()
                .map(|b| b.slot.clone())
                .zip(decls.iter().cloned())
                .collect(),
            None => decls
                .iter()
                .enumerate()
                .map(|(i, d)| (format!("block{i}"), d.clone()))
                .collect(),
        };
        Ok(PackageInstance { package, bindings })
    }

    // ---- type and parameter parsing --------------------------------------

    fn parse_type(&mut self) -> PResult<Type> {
        let name = self.identifier()?;
        match name.as_str() {
            "bool" => Ok(Type::Bool),
            "void" => Ok(Type::Void),
            "packet_in" | "packet_out" => Ok(Type::Packet),
            "bit" | "int" => {
                self.expect(&Token::LAngle)?;
                let width = match self.bump() {
                    Token::Number(n) => u32::try_from(n).map_err(|_| ParseError {
                        message: "width too large".into(),
                        pos: self.pos(),
                    })?,
                    other => return self.error(format!("expected a bit width, found {other}")),
                };
                self.expect(&Token::RAngle)?;
                Ok(Type::Bits {
                    width,
                    signed: name == "int",
                })
            }
            _ => Ok(Type::Named(name)),
        }
    }

    fn parameter_list(&mut self) -> PResult<Vec<Param>> {
        self.expect(&Token::LParen)?;
        let mut params = Vec::new();
        while !self.eat(&Token::RParen) {
            let direction = if self.eat_keyword("inout") {
                Direction::InOut
            } else if self.eat_keyword("out") {
                Direction::Out
            } else if self.is_keyword("in")
                && !matches!(self.peek_at(1), Token::Identifier(n) if n == "bit" || n == "int")
            {
                // `in` followed by a type; `in` itself can also be a type
                // name start, so check the next token is a type-ish token.
                self.bump();
                Direction::In
            } else if self.eat_keyword("in") {
                Direction::In
            } else {
                Direction::None
            };
            let ty = self.parse_type()?;
            let name = self.identifier()?;
            params.push(Param {
                direction,
                name,
                ty,
            });
            if !self.eat(&Token::Comma) {
                self.expect(&Token::RParen)?;
                break;
            }
        }
        Ok(params)
    }

    // ---- declarations ----------------------------------------------------

    fn header_decl(&mut self) -> PResult<HeaderDecl> {
        self.expect_keyword("header")?;
        let name = self.identifier()?;
        let fields = self.field_list()?;
        Ok(HeaderDecl { name, fields })
    }

    fn struct_decl(&mut self) -> PResult<StructDecl> {
        self.expect_keyword("struct")?;
        let name = self.identifier()?;
        let fields = self.field_list()?;
        Ok(StructDecl { name, fields })
    }

    fn field_list(&mut self) -> PResult<Vec<Field>> {
        self.expect(&Token::LBrace)?;
        let mut fields = Vec::new();
        while !self.eat(&Token::RBrace) {
            let ty = self.parse_type()?;
            let name = self.identifier()?;
            self.expect(&Token::Semicolon)?;
            fields.push(Field { name, ty });
        }
        Ok(fields)
    }

    fn typedef_decl(&mut self) -> PResult<TypedefDecl> {
        self.expect_keyword("typedef")?;
        let ty = self.parse_type()?;
        let name = self.identifier()?;
        self.expect(&Token::Semicolon)?;
        Ok(TypedefDecl { name, ty })
    }

    fn constant_decl(&mut self) -> PResult<Declaration> {
        self.expect_keyword("const")?;
        let ty = self.parse_type()?;
        let name = self.identifier()?;
        self.expect(&Token::Assign)?;
        let value = self.expression()?;
        self.expect(&Token::Semicolon)?;
        Ok(Declaration::Constant(ConstantDecl { name, ty, value }))
    }

    fn action_decl(&mut self) -> PResult<ActionDecl> {
        self.expect_keyword("action")?;
        let name = self.identifier()?;
        let params = self.parameter_list()?;
        let body = self.block()?;
        Ok(ActionDecl { name, params, body })
    }

    fn function_or_variable(&mut self) -> PResult<Declaration> {
        let ty = self.parse_type()?;
        let name = self.identifier()?;
        if matches!(self.peek(), Token::LParen) {
            let params = self.parameter_list()?;
            let body = self.block()?;
            Ok(Declaration::Function(FunctionDecl {
                name,
                return_type: ty,
                params,
                body,
            }))
        } else {
            let init = if self.eat(&Token::Assign) {
                Some(self.expression()?)
            } else {
                None
            };
            self.expect(&Token::Semicolon)?;
            Ok(Declaration::Variable { name, ty, init })
        }
    }

    fn control_decl(&mut self) -> PResult<ControlDecl> {
        self.expect_keyword("control")?;
        let name = self.identifier()?;
        let params = self.parameter_list()?;
        self.expect(&Token::LBrace)?;
        let mut locals = Vec::new();
        let mut apply = Block::empty();
        loop {
            if self.eat(&Token::RBrace) {
                break;
            }
            if self.is_keyword("apply") {
                self.bump();
                apply = self.block()?;
                continue;
            }
            locals.push(self.local_declaration()?);
        }
        Ok(ControlDecl {
            name,
            params,
            locals,
            apply,
        })
    }

    fn local_declaration(&mut self) -> PResult<Declaration> {
        match self.peek() {
            Token::Identifier(word) => match word.as_str() {
                "action" => Ok(Declaration::Action(self.action_decl()?)),
                "table" => Ok(Declaration::Table(self.table_decl()?)),
                "const" => self.constant_decl(),
                _ => self.function_or_variable(),
            },
            other => self.error(format!("unexpected token {other} in declaration list")),
        }
    }

    fn parser_decl(&mut self) -> PResult<ParserDecl> {
        self.expect_keyword("parser")?;
        let name = self.identifier()?;
        let params = self.parameter_list()?;
        self.expect(&Token::LBrace)?;
        let mut locals = Vec::new();
        let mut states = Vec::new();
        loop {
            if self.eat(&Token::RBrace) {
                break;
            }
            if self.is_keyword("state") {
                states.push(self.parser_state()?);
            } else {
                locals.push(self.local_declaration()?);
            }
        }
        Ok(ParserDecl {
            name,
            params,
            locals,
            states,
        })
    }

    fn parser_state(&mut self) -> PResult<ParserState> {
        self.expect_keyword("state")?;
        let name = self.identifier()?;
        self.expect(&Token::LBrace)?;
        let mut statements = Vec::new();
        let mut transition = Transition::Direct("reject".into());
        loop {
            if self.eat(&Token::RBrace) {
                break;
            }
            if self.eat_keyword("transition") {
                transition = self.transition()?;
                continue;
            }
            statements.push(self.statement()?);
        }
        Ok(ParserState {
            name,
            statements,
            transition,
        })
    }

    fn transition(&mut self) -> PResult<Transition> {
        if self.eat_keyword("select") {
            self.expect(&Token::LParen)?;
            let selector = self.expression()?;
            self.expect(&Token::RParen)?;
            self.expect(&Token::LBrace)?;
            let mut cases = Vec::new();
            while !self.eat(&Token::RBrace) {
                let value = if self.eat_keyword("default") || self.eat_keyword("_") {
                    None
                } else {
                    Some(self.expression()?)
                };
                self.expect(&Token::Colon)?;
                let next_state = self.identifier()?;
                self.expect(&Token::Semicolon)?;
                cases.push(SelectCase { value, next_state });
            }
            Ok(Transition::Select { selector, cases })
        } else {
            let next = self.identifier()?;
            self.expect(&Token::Semicolon)?;
            Ok(Transition::Direct(next))
        }
    }

    fn table_decl(&mut self) -> PResult<TableDecl> {
        self.expect_keyword("table")?;
        let name = self.identifier()?;
        self.expect(&Token::LBrace)?;
        let mut keys = Vec::new();
        let mut actions = Vec::new();
        let mut default_action = ActionRef::new("NoAction");
        while !self.eat(&Token::RBrace) {
            if self.eat_keyword("key") {
                self.expect(&Token::Assign)?;
                self.expect(&Token::LBrace)?;
                while !self.eat(&Token::RBrace) {
                    let expr = self.expression()?;
                    self.expect(&Token::Colon)?;
                    let kind = self.identifier()?;
                    let match_kind = match kind.as_str() {
                        "exact" => MatchKind::Exact,
                        "ternary" => MatchKind::Ternary,
                        "lpm" => MatchKind::Lpm,
                        other => return self.error(format!("unknown match kind `{other}`")),
                    };
                    self.expect(&Token::Semicolon)?;
                    keys.push(KeyElement { expr, match_kind });
                }
                self.eat(&Token::Semicolon);
            } else if self.eat_keyword("actions") {
                self.expect(&Token::Assign)?;
                self.expect(&Token::LBrace)?;
                while !self.eat(&Token::RBrace) {
                    actions.push(self.action_ref()?);
                    self.expect(&Token::Semicolon)?;
                }
                self.eat(&Token::Semicolon);
            } else if self.eat_keyword("default_action") {
                self.expect(&Token::Assign)?;
                default_action = self.action_ref()?;
                self.expect(&Token::Semicolon)?;
            } else {
                return self.error(format!("unknown table property {}", self.peek()));
            }
        }
        Ok(TableDecl {
            name,
            keys,
            actions,
            default_action,
        })
    }

    fn action_ref(&mut self) -> PResult<ActionRef> {
        let name = self.identifier()?;
        let mut args = Vec::new();
        if self.eat(&Token::LParen) {
            while !self.eat(&Token::RParen) {
                args.push(self.expression()?);
                if !self.eat(&Token::Comma) {
                    self.expect(&Token::RParen)?;
                    break;
                }
            }
        }
        Ok(ActionRef { name, args })
    }

    // ---- statements ------------------------------------------------------

    fn block(&mut self) -> PResult<Block> {
        self.expect(&Token::LBrace)?;
        let mut statements = Vec::new();
        while !self.eat(&Token::RBrace) {
            statements.push(self.statement()?);
        }
        Ok(Block { statements })
    }

    fn statement(&mut self) -> PResult<Statement> {
        match self.peek() {
            Token::LBrace => Ok(Statement::Block(self.block()?)),
            Token::Semicolon => {
                self.bump();
                Ok(Statement::Empty)
            }
            Token::Identifier(word) => match word.as_str() {
                "if" => self.if_statement(),
                "exit" => {
                    self.bump();
                    self.expect(&Token::Semicolon)?;
                    Ok(Statement::Exit)
                }
                "return" => {
                    self.bump();
                    if self.eat(&Token::Semicolon) {
                        Ok(Statement::Return(None))
                    } else {
                        let expr = self.expression()?;
                        self.expect(&Token::Semicolon)?;
                        Ok(Statement::Return(Some(expr)))
                    }
                }
                "const" => {
                    self.bump();
                    let ty = self.parse_type()?;
                    let name = self.identifier()?;
                    self.expect(&Token::Assign)?;
                    let value = self.expression()?;
                    self.expect(&Token::Semicolon)?;
                    Ok(Statement::Constant { name, ty, value })
                }
                "bit" | "int" | "bool" => self.declaration_statement(),
                _ => {
                    // Named-type declaration (`h_t tmp;`) vs assignment/call.
                    if matches!(self.peek_at(1), Token::Identifier(_)) {
                        self.declaration_statement()
                    } else {
                        self.assignment_or_call()
                    }
                }
            },
            other => self.error(format!("unexpected token {other} at start of a statement")),
        }
    }

    fn declaration_statement(&mut self) -> PResult<Statement> {
        let ty = self.parse_type()?;
        let name = self.identifier()?;
        let init = if self.eat(&Token::Assign) {
            Some(self.expression()?)
        } else {
            None
        };
        self.expect(&Token::Semicolon)?;
        Ok(Statement::Declare { name, ty, init })
    }

    fn if_statement(&mut self) -> PResult<Statement> {
        self.expect_keyword("if")?;
        self.expect(&Token::LParen)?;
        let cond = self.expression()?;
        self.expect(&Token::RParen)?;
        let then_branch = Box::new(self.statement()?);
        let else_branch = if self.eat_keyword("else") {
            Some(Box::new(self.statement()?))
        } else {
            None
        };
        Ok(Statement::If {
            cond,
            then_branch,
            else_branch,
        })
    }

    fn assignment_or_call(&mut self) -> PResult<Statement> {
        let expr = self.expression()?;
        if self.eat(&Token::Assign) {
            let rhs = self.expression()?;
            self.expect(&Token::Semicolon)?;
            if !expr.is_lvalue() {
                return self.error("left-hand side of an assignment must be an l-value");
            }
            Ok(Statement::Assign { lhs: expr, rhs })
        } else {
            self.expect(&Token::Semicolon)?;
            match expr {
                Expr::Call(call) => Ok(Statement::Call(*call)),
                other => self.error(format!(
                    "expression statement must be a call, found {other:?}"
                )),
            }
        }
    }

    // ---- expressions ------------------------------------------------------

    fn expression(&mut self) -> PResult<Expr> {
        self.ternary_expr()
    }

    fn ternary_expr(&mut self) -> PResult<Expr> {
        let cond = self.or_expr()?;
        if self.eat(&Token::Question) {
            let then_expr = self.expression()?;
            self.expect(&Token::Colon)?;
            let else_expr = self.expression()?;
            Ok(Expr::ternary(cond, then_expr, else_expr))
        } else {
            Ok(cond)
        }
    }

    fn or_expr(&mut self) -> PResult<Expr> {
        let mut left = self.and_expr()?;
        while self.eat(&Token::OrOr) {
            let right = self.and_expr()?;
            left = Expr::binary(BinOp::Or, left, right);
        }
        Ok(left)
    }

    fn and_expr(&mut self) -> PResult<Expr> {
        let mut left = self.equality_expr()?;
        while self.eat(&Token::AndAnd) {
            let right = self.equality_expr()?;
            left = Expr::binary(BinOp::And, left, right);
        }
        Ok(left)
    }

    fn equality_expr(&mut self) -> PResult<Expr> {
        let mut left = self.relational_expr()?;
        loop {
            let op = if self.eat(&Token::EqEq) {
                BinOp::Eq
            } else if self.eat(&Token::NotEq) {
                BinOp::Ne
            } else {
                break;
            };
            let right = self.relational_expr()?;
            left = Expr::binary(op, left, right);
        }
        Ok(left)
    }

    fn relational_expr(&mut self) -> PResult<Expr> {
        let mut left = self.bitor_expr()?;
        loop {
            let op = if self.eat(&Token::LAngle) {
                BinOp::Lt
            } else if self.eat(&Token::RAngle) {
                BinOp::Gt
            } else if self.eat(&Token::Le) {
                BinOp::Le
            } else if self.eat(&Token::Ge) {
                BinOp::Ge
            } else {
                break;
            };
            let right = self.bitor_expr()?;
            left = Expr::binary(op, left, right);
        }
        Ok(left)
    }

    fn bitor_expr(&mut self) -> PResult<Expr> {
        let mut left = self.bitxor_expr()?;
        while self.eat(&Token::Pipe) {
            let right = self.bitxor_expr()?;
            left = Expr::binary(BinOp::BitOr, left, right);
        }
        Ok(left)
    }

    fn bitxor_expr(&mut self) -> PResult<Expr> {
        let mut left = self.bitand_expr()?;
        while self.eat(&Token::Caret) {
            let right = self.bitand_expr()?;
            left = Expr::binary(BinOp::BitXor, left, right);
        }
        Ok(left)
    }

    fn bitand_expr(&mut self) -> PResult<Expr> {
        let mut left = self.shift_expr()?;
        while self.eat(&Token::Amp) {
            let right = self.shift_expr()?;
            left = Expr::binary(BinOp::BitAnd, left, right);
        }
        Ok(left)
    }

    fn shift_expr(&mut self) -> PResult<Expr> {
        let mut left = self.additive_expr()?;
        loop {
            let op = if self.eat(&Token::Shl) {
                BinOp::Shl
            } else if self.eat(&Token::Shr) {
                BinOp::Shr
            } else {
                break;
            };
            let right = self.additive_expr()?;
            left = Expr::binary(op, left, right);
        }
        Ok(left)
    }

    fn additive_expr(&mut self) -> PResult<Expr> {
        let mut left = self.multiplicative_expr()?;
        loop {
            let op = if self.eat(&Token::Plus) {
                BinOp::Add
            } else if self.eat(&Token::Minus) {
                BinOp::Sub
            } else if self.eat(&Token::SatPlus) {
                BinOp::SatAdd
            } else if self.eat(&Token::SatMinus) {
                BinOp::SatSub
            } else if self.eat(&Token::PlusPlus) {
                BinOp::Concat
            } else {
                break;
            };
            let right = self.multiplicative_expr()?;
            left = Expr::binary(op, left, right);
        }
        Ok(left)
    }

    fn multiplicative_expr(&mut self) -> PResult<Expr> {
        let mut left = self.unary_expr()?;
        while self.eat(&Token::Star) {
            let right = self.unary_expr()?;
            left = Expr::binary(BinOp::Mul, left, right);
        }
        Ok(left)
    }

    fn unary_expr(&mut self) -> PResult<Expr> {
        if self.eat(&Token::Bang) {
            return Ok(Expr::unary(UnOp::Not, self.unary_expr()?));
        }
        if self.eat(&Token::Tilde) {
            return Ok(Expr::unary(UnOp::BitNot, self.unary_expr()?));
        }
        if self.eat(&Token::Minus) {
            return Ok(Expr::unary(UnOp::Neg, self.unary_expr()?));
        }
        self.postfix_expr()
    }

    fn postfix_expr(&mut self) -> PResult<Expr> {
        let mut expr = self.primary_expr()?;
        loop {
            if self.eat(&Token::Dot) {
                let member = self.identifier()?;
                expr = Expr::member(expr, member);
            } else if self.eat(&Token::LBracket) {
                let hi = self.const_u32()?;
                self.expect(&Token::Colon)?;
                let lo = self.const_u32()?;
                self.expect(&Token::RBracket)?;
                expr = Expr::Slice {
                    base: Box::new(expr),
                    hi,
                    lo,
                };
            } else if matches!(self.peek(), Token::LParen) {
                // Call: the callee must be a dotted path.
                let target = match path_components(&expr) {
                    Some(parts) => parts,
                    None => return self.error("call target must be a dotted name"),
                };
                self.bump();
                let mut args = Vec::new();
                while !self.eat(&Token::RParen) {
                    args.push(self.expression()?);
                    if !self.eat(&Token::Comma) {
                        self.expect(&Token::RParen)?;
                        break;
                    }
                }
                expr = Expr::Call(Box::new(CallExpr { target, args }));
            } else {
                break;
            }
        }
        Ok(expr)
    }

    fn const_u32(&mut self) -> PResult<u32> {
        match self.bump() {
            Token::Number(n) => u32::try_from(n).map_err(|_| ParseError {
                message: "index out of range".into(),
                pos: self.pos(),
            }),
            Token::SizedNumber { value, .. } => u32::try_from(value).map_err(|_| ParseError {
                message: "index out of range".into(),
                pos: self.pos(),
            }),
            other => self.error(format!("expected a constant index, found {other}")),
        }
    }

    fn primary_expr(&mut self) -> PResult<Expr> {
        match *self.peek() {
            Token::Number(value) => {
                self.bump();
                Ok(Expr::Int {
                    value,
                    width: None,
                    signed: false,
                })
            }
            Token::SizedNumber {
                width,
                value,
                signed,
            } => {
                self.bump();
                Ok(Expr::Int {
                    value,
                    width: Some(width),
                    signed,
                })
            }
            Token::Identifier(ref name) => match name.as_str() {
                "true" => {
                    self.bump();
                    Ok(Expr::Bool(true))
                }
                "false" => {
                    self.bump();
                    Ok(Expr::Bool(false))
                }
                _ => Ok(Expr::Path(self.identifier()?)),
            },
            Token::LParen => {
                self.bump();
                // Either a cast `(type)(expr)` / `(type)expr` or a
                // parenthesised expression.
                if self.looks_like_cast() {
                    let ty = self.parse_type()?;
                    self.expect(&Token::RParen)?;
                    let operand = self.unary_expr()?;
                    Ok(Expr::cast(ty, operand))
                } else {
                    let expr = self.expression()?;
                    self.expect(&Token::RParen)?;
                    Ok(expr)
                }
            }
            ref other => self.error(format!("unexpected token {other} in an expression")),
        }
    }

    /// After consuming a `(`, decides whether the contents form a cast.
    fn looks_like_cast(&self) -> bool {
        match self.peek() {
            Token::Identifier(name) => match name.as_str() {
                "bit" | "int" => matches!(self.peek_at(1), Token::LAngle),
                "bool" => matches!(self.peek_at(1), Token::RParen),
                _ => {
                    // `(h_t)(...)`: a named type cast — identifier followed
                    // directly by `)` and then `(` or an identifier.
                    matches!(self.peek_at(1), Token::RParen)
                        && matches!(self.peek_at(2), Token::LParen | Token::Identifier(_))
                }
            },
            _ => false,
        }
    }
}

/// Extracts the dotted path components of a pure member-access chain.
fn path_components(expr: &Expr) -> Option<Vec<String>> {
    match expr {
        Expr::Path(name) => Some(vec![name.clone()]),
        Expr::Member { base, member } => {
            let mut parts = path_components(base)?;
            parts.push(member.clone());
            Some(parts)
        }
        _ => None,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use p4_ir::print_program;

    #[test]
    fn parses_expressions_with_precedence() {
        let e = parse_expression("1 + 2 * 3").unwrap();
        assert_eq!(
            e,
            Expr::binary(
                BinOp::Add,
                Expr::int(1),
                Expr::binary(BinOp::Mul, Expr::int(2), Expr::int(3))
            )
        );
        let e = parse_expression("a == b && c != d").unwrap();
        assert!(matches!(e, Expr::Binary { op: BinOp::And, .. }));
    }

    #[test]
    fn parses_sized_literals_slices_and_casts() {
        let e = parse_expression("(bit<4>)(h.a[7:4])").unwrap();
        assert_eq!(
            e,
            Expr::cast(Type::bits(4), Expr::slice(Expr::dotted(&["h", "a"]), 7, 4))
        );
        let e = parse_expression("8w255 |+| 8w1").unwrap();
        assert!(matches!(
            e,
            Expr::Binary {
                op: BinOp::SatAdd,
                ..
            }
        ));
    }

    #[test]
    fn parses_calls_with_dotted_targets() {
        let e = parse_expression("hdr.h.isValid()").unwrap();
        match e {
            Expr::Call(call) => {
                assert_eq!(call.target, vec!["hdr", "h", "isValid"]);
                assert!(call.args.is_empty());
            }
            other => panic!("expected a call, got {other:?}"),
        }
    }

    #[test]
    fn parses_simple_control() {
        let src = r#"
            struct headers_t { bit<8> a; }
            control ig(inout headers_t hdr) {
                action set_a() { hdr.a = 8w1; }
                table t {
                    key = { hdr.a : exact; }
                    actions = { set_a(); NoAction(); }
                    default_action = NoAction();
                }
                apply {
                    if (hdr.a == 8w0) {
                        t.apply();
                    } else {
                        hdr.a = hdr.a + 8w1;
                    }
                }
            }
        "#;
        let program = parse_program(src).unwrap();
        let control = program.control("ig").unwrap();
        assert_eq!(control.locals.len(), 2);
        assert_eq!(control.apply.statements.len(), 1);
        match &control.apply.statements[0] {
            Statement::If { else_branch, .. } => assert!(else_branch.is_some()),
            other => panic!("expected if, got {other:?}"),
        }
    }

    #[test]
    fn parses_parser_with_select() {
        let src = r#"
            header eth_t { bit<16> etype; }
            struct headers_t { eth_t eth; }
            parser p(packet_in packet, out headers_t hdr) {
                state start {
                    packet.extract(hdr.eth);
                    transition select(hdr.eth.etype) {
                        16w2048: parse_more;
                        default: accept;
                    }
                }
                state parse_more {
                    transition accept;
                }
            }
        "#;
        let program = parse_program(src).unwrap();
        let parser = program.parser("p").unwrap();
        assert_eq!(parser.states.len(), 2);
        match &parser.states[0].transition {
            Transition::Select { cases, .. } => assert_eq!(cases.len(), 2),
            other => panic!("expected select, got {other:?}"),
        }
    }

    #[test]
    fn parses_package_instantiation_with_architecture() {
        let src = r#"
            #include <core.p4>
            #include <v1model.p4>
            struct headers_t { bit<8> a; }
            struct metadata_t { bit<8> m; }
            parser p(packet_in packet, out headers_t hdr, inout metadata_t meta, inout standard_metadata_t standard_metadata) {
                state start { transition accept; }
            }
            control ig(inout headers_t hdr, inout metadata_t meta, inout standard_metadata_t standard_metadata) { apply { } }
            control eg(inout headers_t hdr, inout metadata_t meta, inout standard_metadata_t standard_metadata) { apply { } }
            control dep(packet_in packet, in headers_t hdr) { apply { } }
            V1Switch(p(), ig(), eg(), dep()) main;
        "#;
        let program = parse_program(src).unwrap();
        assert_eq!(program.architecture, "v1model");
        assert_eq!(program.package.package, "V1Switch");
        assert_eq!(program.package.binding("ingress"), Some("ig"));
        assert_eq!(program.package.binding("deparser"), Some("dep"));
    }

    #[test]
    fn roundtrips_builder_skeleton_through_print_and_parse() {
        let original = p4_ir::builder::trivial_program();
        let text = print_program(&original);
        let reparsed = parse_program(&text).unwrap_or_else(|e| panic!("{e}\n{text}"));
        assert_eq!(print_program(&reparsed), text);
    }

    #[test]
    fn roundtrips_figure3_program() {
        let (locals, apply) = p4_ir::builder::figure3_table_control();
        let original = p4_ir::builder::v1model_program(locals, apply);
        let text = print_program(&original);
        let reparsed = parse_program(&text).unwrap_or_else(|e| panic!("{e}\n{text}"));
        assert_eq!(print_program(&reparsed), text);
        assert_eq!(reparsed, original);
    }

    #[test]
    fn rejects_malformed_programs() {
        assert!(parse_program("header h {").is_err());
        assert!(parse_program("control c() { apply { 1 = 2; } }").is_err());
        assert!(parse_program("control c() { apply { x + 1; } }").is_err());
    }

    #[test]
    fn parses_exit_return_and_declarations() {
        let src = r#"
            control ig(inout bit<8> x) {
                apply {
                    bit<8> tmp = x + 8w1;
                    const bit<8> k = 8w7;
                    if (tmp == k) {
                        exit;
                    }
                    return;
                }
            }
        "#;
        let program = parse_program(src).unwrap();
        let control = program.control("ig").unwrap();
        assert_eq!(control.apply.statements.len(), 4);
    }

    /// Error messages and positions are part of the parser's contract:
    /// several of these paths read a token right after consuming the one
    /// before it.
    #[test]
    fn malformed_programs_report_stable_errors() {
        let cases = [
            ("header h {", "expected an identifier, found `<eof>`", 1, 11),
            (
                "struct s { bit<8> ; }",
                "expected an identifier, found `;`",
                1,
                19,
            ),
            (
                "control c() { apply { 1 = 2; } }",
                "unexpected token number `1` at start of a statement",
                1,
                23,
            ),
            (
                "control c(inout bit<8> x) { apply { x = (bit<8>) ; } }",
                "unexpected token `;` in an expression",
                1,
                50,
            ),
            (
                "control c() { apply { if (a { } } }",
                "expected `)`, found `{`",
                1,
                29,
            ),
            (
                "control c() { table t { key = { a : fuzzy; } } apply { } }",
                "unknown match kind `fuzzy`",
                1,
                42,
            ),
            (
                "parser p() { state start { transition select(a) { 1 x; } } }",
                "expected `:`, found identifier `x`",
                1,
                53,
            ),
            (
                "bit<8> 7;",
                "expected an identifier, found number `7`",
                1,
                8,
            ),
            (
                "control c() { apply { hdr.h.a[3:] = 1; } }",
                "expected a constant index, found `]`",
                1,
                35,
            ),
        ];
        for (source, message, line, column) in cases {
            let error = parse_program(source).unwrap_err();
            assert_eq!(error.message, message, "{source}");
            assert_eq!(error.pos, Pos { line, column }, "{source}");
        }
    }
}
