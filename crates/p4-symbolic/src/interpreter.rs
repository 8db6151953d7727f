//! The symbolic interpreter: converts P4 programs into SMT formulas.
//!
//! Each programmable block of the package becomes an independent formula
//! (paper §5.2).  The interpreter walks the block, maintaining a symbolic
//! state; control-flow joins merge whole states with if-then-else terms, so
//! the final value of every `inout`/`out` parameter is a nested ITE over the
//! block's inputs — the functional form of Figure 3.
//!
//! Tables are handled exactly as the paper describes: one symbolic key
//! variable and one symbolic action-index variable per table application,
//! with the default action as the fallback.

use crate::state::{input_of_type, symbolic_of_type, undefined_of_type, SymState, SymVal};
use p4_ir::{
    ActionDecl, ActionRef, Architecture, BinOp, Block, BlockKind, BlockSpec, CallExpr, ControlDecl,
    Declaration, Direction, Expr, FunctionDecl, Param, ParserDecl, Program, Statement, TableDecl,
    Transition, Type, TypeEnv, UnOp,
};
use smt::{Sort, TermManager, TermRef};
use std::collections::BTreeMap;
use std::fmt;
use std::sync::Arc;

/// Maximum number of parser state transitions followed before giving up
/// (guards against parser loops, which the paper reports as a crash-bug
/// trigger when they slip through).
const PARSER_FUEL: u32 = 32;

/// Interpreter errors (unsupported constructs, malformed programs).  These
/// are *interpreter* limitations, not compiler bugs; Gauntlet skips programs
/// it cannot interpret.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct InterpError {
    pub message: String,
}

impl InterpError {
    fn new(message: impl Into<String>) -> InterpError {
        InterpError {
            message: message.into(),
        }
    }
}

impl fmt::Display for InterpError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "symbolic interpreter error: {}", self.message)
    }
}

impl std::error::Error for InterpError {}

/// Information about one table application, kept for test-case generation.
#[derive(Debug, Clone)]
pub struct TableInfo {
    pub control: String,
    pub table: String,
    /// `(variable name, width, key expression term)` per key element.
    pub keys: Vec<(String, u32, TermRef)>,
    /// Name of the symbolic action-index variable.
    pub action_var: String,
    /// Names of the actions, in index order (index 0 is reserved for the
    /// default action on a miss).
    pub actions: Vec<String>,
    /// The `hit` condition term.
    pub hit: TermRef,
}

/// The symbolic semantics of one programmable block.
#[derive(Debug, Clone)]
pub struct BlockSemantics {
    /// Architecture slot, e.g. `"ingress"`.
    pub slot: String,
    pub kind: BlockKind,
    /// Flattened final values of all `inout`/`out` parameters (and header
    /// validity bits), keyed by dotted path.
    pub outputs: Vec<(String, TermRef)>,
    /// Flattened input variable names and widths (for test generation).
    pub inputs: Vec<(String, u32)>,
    /// Branch conditions encountered, in program order (for path
    /// enumeration during test generation).
    pub branch_conditions: Vec<TermRef>,
    /// Tables applied in this block.
    pub tables: Vec<TableInfo>,
}

impl BlockSemantics {
    pub fn output(&self, name: &str) -> Option<&TermRef> {
        self.outputs.iter().find(|(n, _)| n == name).map(|(_, t)| t)
    }
}

/// The symbolic semantics of a whole program: one formula per block.
/// Blocks are shared so a memo can hand one block's semantics to every
/// program that contains that block unchanged.
#[derive(Debug, Clone)]
pub struct ProgramSemantics {
    pub blocks: Vec<Arc<BlockSemantics>>,
}

impl ProgramSemantics {
    pub fn block(&self, slot: &str) -> Option<&BlockSemantics> {
        self.blocks.iter().find(|b| b.slot == slot).map(Arc::as_ref)
    }
}

/// The architecture `program` targets.
pub(crate) fn program_architecture(
    program: &Program,
) -> Result<&'static Architecture, InterpError> {
    Architecture::named(&program.architecture)
        .ok_or_else(|| InterpError::new(format!("unknown architecture `{}`", program.architecture)))
}

/// The declaration bound to `spec`'s slot: a control for control and
/// deparser slots, a parser for the parser slot.
pub(crate) fn bound_block<'p>(
    program: &'p Program,
    spec: &BlockSpec,
) -> Result<&'p Declaration, InterpError> {
    let Some(decl_name) = program.package.binding(&spec.slot) else {
        return Err(InterpError::new(format!("slot `{}` is unbound", spec.slot)));
    };
    let is_parser = spec.kind == BlockKind::Parser;
    program
        .declarations
        .iter()
        .find(|decl| match decl {
            Declaration::Control(control) => !is_parser && control.name == decl_name,
            Declaration::Parser(parser) => is_parser && parser.name == decl_name,
            _ => false,
        })
        .ok_or_else(|| {
            let kind = if is_parser { "parser" } else { "control" };
            InterpError::new(format!("{kind} `{decl_name}` not found"))
        })
}

/// Interprets every programmable block of `program`, creating terms in `tm`.
/// Translation validation interprets two programs with the *same* manager so
/// that input variables with equal names unify.
pub fn interpret_program(
    tm: &Arc<TermManager>,
    program: &Program,
) -> Result<ProgramSemantics, InterpError> {
    let architecture = program_architecture(program)?;
    let env = TypeEnv::from_program(program);
    let mut blocks = Vec::new();
    for spec in &architecture.blocks {
        let decl = bound_block(program, spec)?;
        blocks.push(Arc::new(interpret_block(tm, &env, program, spec, decl)?));
    }
    Ok(ProgramSemantics { blocks })
}

/// Interprets one programmable block: `decl` is the control or parser bound
/// to `spec`'s slot (see [`bound_block`]) and `env` is `program`'s type
/// environment.  Besides `decl`, only the architecture and the program's
/// other top-level declarations (types, constants, globals, actions,
/// functions, tables) are read, and every variable is named by its
/// position, so the result is a pure function of those inputs within one
/// term manager.  That is what lets [`crate::CampaignCache`] memoise
/// blocks rather than programs.
pub(crate) fn interpret_block(
    tm: &Arc<TermManager>,
    env: &TypeEnv,
    program: &Program,
    spec: &BlockSpec,
    decl: &Declaration,
) -> Result<BlockSemantics, InterpError> {
    let mut interp = Interpreter::new(tm.clone(), env, program);
    match decl {
        Declaration::Control(control) => interp.interpret_control(spec, control),
        Declaration::Parser(parser) => interp.interpret_parser(spec, parser),
        other => Err(InterpError::new(format!(
            "`{}` is neither a control nor a parser",
            other.name()
        ))),
    }
}

struct Interpreter<'a> {
    tm: Arc<TermManager>,
    env: &'a TypeEnv,
    program: &'a Program,
    state: SymState,
    branch_conditions: Vec<TermRef>,
    tables: Vec<TableInfo>,
    /// Local actions of the control being interpreted.
    local_actions: BTreeMap<String, ActionDecl>,
    /// Local tables of the control being interpreted.
    local_tables: BTreeMap<String, TableDecl>,
    /// Name of the control being interpreted (for table variable naming).
    current_control: String,
    /// Counter for deterministic packet-extraction variable names.
    extract_counter: u32,
    /// Counter for deterministic unknown-extern havoc variable names.
    extern_counter: u32,
}

type IResult<T> = Result<T, InterpError>;

impl<'a> Interpreter<'a> {
    fn new(tm: Arc<TermManager>, env: &'a TypeEnv, program: &'a Program) -> Interpreter<'a> {
        let state = SymState::new(&tm);
        Interpreter {
            tm,
            env,
            program,
            state,
            branch_conditions: Vec::new(),
            tables: Vec::new(),
            local_actions: BTreeMap::new(),
            local_tables: BTreeMap::new(),
            current_control: String::new(),
            extract_counter: 0,
            extern_counter: 0,
        }
    }

    // ---- block entry points -----------------------------------------------

    fn bind_globals(&mut self) -> IResult<()> {
        for decl in &self.program.declarations {
            match decl {
                Declaration::Constant(constant) => {
                    let width = self.env.resolve(&constant.ty).width();
                    let value = self.eval_expr(&constant.value, width)?;
                    self.state.declare_global(constant.name.clone(), value);
                }
                Declaration::Variable { name, ty, init } => {
                    let value = match init {
                        Some(init) => self.eval_expr(init, self.env.resolve(ty).width())?,
                        None => undefined_of_type(&self.tm, self.env, ty, name),
                    };
                    self.state.declare_global(name.clone(), value);
                }
                _ => {}
            }
        }
        Ok(())
    }

    fn bind_params(&mut self, params: &[Param]) -> Vec<(String, u32)> {
        let mut inputs = Vec::new();
        for param in params {
            if self.env.resolve(&param.ty) == Type::Packet {
                continue;
            }
            let value = if param.direction.copies_in() {
                // Inputs are named by the parameter path so both sides of a
                // translation-validation query use identical variables.
                input_of_type(&self.tm, self.env, &param.ty, &param.name, &mut inputs)
            } else {
                // `out` parameters start undefined (headers invalid).
                undefined_of_type(&self.tm, self.env, &param.ty, &param.name)
            };
            self.state.declare(param.name.clone(), value);
        }
        inputs
    }

    fn collect_outputs(&self, params: &[Param]) -> Vec<(String, TermRef)> {
        let mut outputs = Vec::new();
        for param in params {
            if !param.direction.copies_out() {
                continue;
            }
            if let Some(value) = self.state.lookup(&param.name) {
                value.flatten(&param.name, &mut outputs);
            }
        }
        outputs
    }

    fn interpret_control(
        &mut self,
        spec: &BlockSpec,
        control: &ControlDecl,
    ) -> IResult<BlockSemantics> {
        self.current_control = control.name.clone();
        self.bind_globals()?;
        let inputs = self.bind_params(&control.params);
        // Register control-local declarations.
        for local in &control.locals {
            match local {
                Declaration::Action(action) => {
                    self.local_actions
                        .insert(action.name.clone(), action.clone());
                }
                Declaration::Table(table) => {
                    self.local_tables.insert(table.name.clone(), table.clone());
                }
                Declaration::Variable { name, ty, init } => {
                    let value = match init {
                        Some(init) => self.eval_expr(init, self.env.resolve(ty).width())?,
                        None => undefined_of_type(&self.tm, self.env, ty, name),
                    };
                    self.state.declare(name.clone(), value);
                }
                Declaration::Constant(constant) => {
                    let width = self.env.resolve(&constant.ty).width();
                    let value = self.eval_expr(&constant.value, width)?;
                    self.state.declare(constant.name.clone(), value);
                }
                _ => {}
            }
        }
        self.exec_block(&control.apply)?;
        let outputs = self.collect_outputs(&control.params);
        Ok(BlockSemantics {
            slot: spec.slot.clone(),
            kind: spec.kind,
            outputs,
            inputs,
            branch_conditions: std::mem::take(&mut self.branch_conditions),
            tables: std::mem::take(&mut self.tables),
        })
    }

    fn interpret_parser(
        &mut self,
        spec: &BlockSpec,
        parser: &ParserDecl,
    ) -> IResult<BlockSemantics> {
        self.current_control = parser.name.clone();
        self.bind_globals()?;
        let inputs = self.bind_params(&parser.params);
        for local in &parser.locals {
            if let Declaration::Variable { name, ty, init } = local {
                let value = match init {
                    Some(init) => self.eval_expr(init, self.env.resolve(ty).width())?,
                    None => undefined_of_type(&self.tm, self.env, ty, name),
                };
                self.state.declare(name.clone(), value);
            }
        }
        self.run_parser_state(parser, "start", PARSER_FUEL)?;
        let outputs = self.collect_outputs(&parser.params);
        Ok(BlockSemantics {
            slot: spec.slot.clone(),
            kind: spec.kind,
            outputs,
            inputs,
            branch_conditions: std::mem::take(&mut self.branch_conditions),
            tables: std::mem::take(&mut self.tables),
        })
    }

    fn run_parser_state(&mut self, parser: &ParserDecl, name: &str, fuel: u32) -> IResult<()> {
        if name == "accept" || name == "reject" {
            return Ok(());
        }
        if fuel == 0 {
            return Err(InterpError::new(
                "parser state loop exceeds the interpreter's fuel",
            ));
        }
        let Some(state) = parser.state(name) else {
            return Err(InterpError::new(format!(
                "parser transitions to unknown state `{name}`"
            )));
        };
        for stmt in &state.statements {
            self.exec_statement(stmt)?;
        }
        match &state.transition {
            Transition::Direct(next) => self.run_parser_state(parser, next, fuel - 1),
            Transition::Select { selector, cases } => {
                let selector = self.eval_scalar(selector, None)?;
                self.run_select_cases(parser, &selector, cases, fuel)
            }
        }
    }

    fn run_select_cases(
        &mut self,
        parser: &ParserDecl,
        selector: &TermRef,
        cases: &[p4_ir::SelectCase],
        fuel: u32,
    ) -> IResult<()> {
        let Some((case, rest)) = cases.split_first() else {
            // No matching case: the packet is rejected; parsing just stops.
            return Ok(());
        };
        match &case.value {
            None => self.run_parser_state(parser, &case.next_state, fuel - 1),
            Some(value) => {
                let width = selector.sort.width();
                let value = self.eval_scalar(value, Some(width))?;
                let cond = self.tm.eq(selector.clone(), value);
                self.branch_conditions.push(cond.clone());
                let saved = self.state.clone();
                self.run_parser_state(parser, &case.next_state, fuel - 1)?;
                let then_state = std::mem::replace(&mut self.state, saved);
                self.run_select_cases(parser, selector, rest, fuel)?;
                self.state = SymState::merge(&self.tm, &cond, &then_state, &self.state);
                Ok(())
            }
        }
    }

    // ---- statement execution ------------------------------------------------

    fn exec_block(&mut self, block: &Block) -> IResult<()> {
        self.state.push_scope();
        self.exec_statements(&block.statements)?;
        self.state.pop_scope();
        Ok(())
    }

    fn exec_statements(&mut self, statements: &[Statement]) -> IResult<()> {
        for stmt in statements {
            let active = self.tm.and2(
                self.tm.not(self.state.exited.clone()),
                self.tm.not(self.state.returned.clone()),
            );
            match active.kind {
                smt::TermKind::BoolConst(false) => break,
                // Every path is still running, so the guarded merge below
                // would be the identity: `ite(true, a, b)` is `a`, and no
                // statement drops a `return_value` (calls restore theirs).
                smt::TermKind::BoolConst(true) => self.exec_statement(stmt)?,
                _ => {
                    let before = self.state.clone();
                    self.exec_statement(stmt)?;
                    self.state = SymState::merge(&self.tm, &active, &self.state, &before);
                }
            }
        }
        Ok(())
    }

    fn exec_statement(&mut self, stmt: &Statement) -> IResult<()> {
        match stmt {
            Statement::Empty => Ok(()),
            Statement::Exit => {
                self.state.exited = self.tm.tru();
                Ok(())
            }
            Statement::Return(value) => {
                if let Some(value) = value {
                    let result = self.eval_expr(value, None)?;
                    self.state.return_value = Some(match &self.state.return_value {
                        // A previous path already returned; the flag-guarded
                        // merge in `exec_statements` picks the right one.
                        Some(_) | None => result,
                    });
                }
                self.state.returned = self.tm.tru();
                Ok(())
            }
            Statement::Block(block) => self.exec_block(block),
            Statement::Declare { name, ty, init } => {
                let value = match init {
                    Some(init) => self.eval_expr(init, self.env.resolve(ty).width())?,
                    None => undefined_of_type(&self.tm, self.env, ty, name),
                };
                self.state.declare(name.clone(), value);
                Ok(())
            }
            Statement::Constant { name, ty, value } => {
                let value = self.eval_expr(value, self.env.resolve(ty).width())?;
                self.state.declare(name.clone(), value);
                Ok(())
            }
            Statement::Assign { lhs, rhs } => {
                let width = self.lvalue_width(lhs);
                let value = self.eval_expr(rhs, width)?;
                self.assign(lhs, value)
            }
            Statement::If {
                cond,
                then_branch,
                else_branch,
            } => {
                let cond = self.eval_scalar(cond, None)?;
                self.branch_conditions.push(cond.clone());
                let saved = self.state.clone();
                self.exec_statement(then_branch)?;
                let then_state = std::mem::replace(&mut self.state, saved);
                if let Some(else_branch) = else_branch {
                    self.exec_statement(else_branch)?;
                }
                self.state = SymState::merge(&self.tm, &cond, &then_state, &self.state);
                Ok(())
            }
            Statement::Call(call) => {
                self.exec_call(call)?;
                Ok(())
            }
        }
    }

    // ---- calls ---------------------------------------------------------------

    fn exec_call(&mut self, call: &CallExpr) -> IResult<Option<SymVal>> {
        match call.method() {
            "apply" => {
                let table_name = call.receiver();
                let table = self
                    .local_tables
                    .get(&table_name)
                    .cloned()
                    .ok_or_else(|| InterpError::new(format!("unknown table `{table_name}`")))?;
                self.apply_table(&table)?;
                Ok(None)
            }
            "setValid" | "setInvalid" => {
                let receiver = receiver_expr(call);
                let valid = call.method() == "setValid";
                self.set_header_validity(&receiver, valid)?;
                Ok(None)
            }
            "isValid" => {
                let receiver = receiver_expr(call);
                let value = self.eval_expr(&receiver, None)?;
                match value {
                    SymVal::Header { valid, .. } => Ok(Some(SymVal::Scalar(valid))),
                    _ => Err(InterpError::new("isValid() on a non-header value")),
                }
            }
            "extract" => {
                let target = call
                    .args
                    .first()
                    .ok_or_else(|| InterpError::new("extract() needs a header argument"))?;
                self.extract_header(target)?;
                Ok(None)
            }
            "emit" => Ok(None),
            "mark_to_drop" => Ok(None),
            _ => {
                // User-defined function or action, or an unknown extern.
                let name = call.target.join(".");
                if let Some(function) = find_function(self.program, &name) {
                    let function = function.clone();
                    return self.call_callable(
                        &function.params,
                        &function.body,
                        Some(&function.return_type),
                        &call.args,
                    );
                }
                if let Some(action) = self.find_action(&name) {
                    let action = action.clone();
                    return self.call_callable(&action.params, &action.body, None, &call.args);
                }
                // Unknown extern: havoc every out/inout argument and return
                // an unknown value — "like an uninterpreted function" (§3).
                // The unknowns are named by control and call index, the way
                // undefined reads are named by path, so re-interpreting the
                // block yields the same terms.
                let call_index = self.extern_counter;
                self.extern_counter += 1;
                let prefix = format!("{}.{call_index}", self.current_control);
                for (arg_index, arg) in call.args.iter().enumerate() {
                    if arg.is_lvalue() {
                        if let Some(width) = self.lvalue_width(arg) {
                            let havoc = self.tm.var(
                                format!("extern.{prefix}.{arg_index}.w{width}"),
                                Sort::BitVec(width),
                            );
                            self.assign(arg, SymVal::Scalar(havoc))?;
                        }
                    }
                }
                Ok(Some(SymVal::Scalar(
                    self.tm
                        .var(format!("extern_result.{prefix}"), Sort::BitVec(32)),
                )))
            }
        }
    }

    fn find_action(&self, name: &str) -> Option<&ActionDecl> {
        self.local_actions.get(name).or_else(|| {
            self.program.declarations.iter().find_map(|d| match d {
                Declaration::Action(a) if a.name == name => Some(a),
                _ => None,
            })
        })
    }

    /// Calls an action or function with explicit copy-in/copy-out.
    fn call_callable(
        &mut self,
        params: &[Param],
        body: &Block,
        return_type: Option<&Type>,
        args: &[Expr],
    ) -> IResult<Option<SymVal>> {
        if params.len() != args.len() {
            return Err(InterpError::new("call arity mismatch"));
        }
        // Copy-in, left to right.
        let mut bindings: Vec<(Param, Option<Expr>, SymVal)> = Vec::new();
        for (param, arg) in params.iter().zip(args) {
            let value = if param.direction.copies_in() {
                self.eval_expr(arg, self.env.resolve(&param.ty).width())?
            } else {
                undefined_of_type(&self.tm, self.env, &param.ty, &param.name)
            };
            let copy_back = if param.direction.copies_out() {
                Some(arg.clone())
            } else {
                None
            };
            bindings.push((param.clone(), copy_back, value));
        }
        // Fresh callable frame.
        self.state.push_scope();
        for (param, _, value) in &bindings {
            self.state.declare(param.name.clone(), value.clone());
        }
        let saved_returned = std::mem::replace(&mut self.state.returned, self.tm.fls());
        let saved_return_value = self.state.return_value.take();
        self.exec_statements(&body.statements)?;
        let return_value = self.state.return_value.take();
        self.state.returned = saved_returned;
        self.state.return_value = saved_return_value;
        // Capture final parameter values before leaving the frame.
        let mut final_values = Vec::new();
        for (param, copy_back, _) in &bindings {
            if copy_back.is_some() {
                let value = self
                    .state
                    .lookup(&param.name)
                    .cloned()
                    .ok_or_else(|| InterpError::new("parameter vanished during call"))?;
                final_values.push(value);
            }
        }
        self.state.pop_scope();
        // Copy-out (also performed when the callee exited; see Figure 5f).
        let mut value_index = 0;
        for (_, copy_back, _) in &bindings {
            if let Some(arg) = copy_back {
                let value = final_values[value_index].clone();
                value_index += 1;
                self.assign(arg, value)?;
            }
        }
        match (return_type, return_value) {
            (Some(ty), Some(value)) if *ty != Type::Void => Ok(Some(value)),
            (Some(ty), None) if *ty != Type::Void => {
                // Function fell off the end without returning on some path:
                // the result is undefined.
                Ok(Some(undefined_of_type(&self.tm, self.env, ty, "ret")))
            }
            _ => Ok(None),
        }
    }

    // ---- tables ---------------------------------------------------------------

    fn apply_table(&mut self, table: &TableDecl) -> IResult<()> {
        let prefix = format!("{}.{}", self.current_control, table.name);
        // Symbolic key variables and the hit condition.
        let mut hit = self.tm.tru();
        let mut keys = Vec::new();
        for (index, key) in table.keys.iter().enumerate() {
            let expr = self.eval_scalar(&key.expr, None)?;
            let width = expr.sort.width();
            let var_name = format!("{prefix}_key_{index}");
            let key_var = self.tm.var(&var_name, Sort::BitVec(width));
            let matches = match key.match_kind {
                p4_ir::MatchKind::Exact => self.tm.eq(expr.clone(), key_var.clone()),
                p4_ir::MatchKind::Ternary | p4_ir::MatchKind::Lpm => {
                    let mask = self
                        .tm
                        .var(format!("{prefix}_mask_{index}"), Sort::BitVec(width));
                    self.tm.eq(
                        self.tm.bv_and(expr.clone(), mask.clone()),
                        self.tm.bv_and(key_var.clone(), mask),
                    )
                }
            };
            hit = self.tm.and2(hit, matches);
            keys.push((var_name, width, expr));
        }
        if table.keys.is_empty() {
            // A keyless table never "hits" from the data plane's viewpoint;
            // the control plane decides.  Model the decision symbolically.
            hit = self.tm.var(format!("{prefix}_hit"), Sort::Bool);
        }
        let action_var_name = format!("{prefix}_action");
        let action_var = self.tm.var(&action_var_name, Sort::BitVec(8));
        self.branch_conditions.push(hit.clone());

        // Default action state.
        let saved = self.state.clone();
        self.exec_action_ref(&table.default_action, &prefix)?;
        let default_state = std::mem::replace(&mut self.state, saved.clone());

        // Per-action states, merged under `action_var == index`.
        let mut merged = default_state.clone();
        for (index, action_ref) in table.actions.iter().enumerate().rev() {
            self.state = saved.clone();
            self.exec_action_ref(action_ref, &prefix)?;
            let action_state = std::mem::replace(&mut self.state, saved.clone());
            let selected = self
                .tm
                .eq(action_var.clone(), self.tm.bv_const((index + 1) as u128, 8));
            self.branch_conditions
                .push(self.tm.and2(hit.clone(), selected.clone()));
            merged = SymState::merge(&self.tm, &selected, &action_state, &merged);
        }

        // Miss → default action.
        self.state = SymState::merge(&self.tm, &hit, &merged, &default_state);
        self.tables.push(TableInfo {
            control: self.current_control.clone(),
            table: table.name.clone(),
            keys,
            action_var: action_var_name,
            actions: table.actions.iter().map(|a| a.name.clone()).collect(),
            hit,
        });
        Ok(())
    }

    fn exec_action_ref(&mut self, action_ref: &ActionRef, table_prefix: &str) -> IResult<()> {
        if action_ref.name == "NoAction" && self.find_action("NoAction").is_none() {
            return Ok(());
        }
        let action = self
            .find_action(&action_ref.name)
            .cloned()
            .ok_or_else(|| InterpError::new(format!("unknown action `{}`", action_ref.name)))?;
        // Bind parameters: compile-time arguments from the action reference
        // when present, otherwise fresh control-plane-provided symbols.
        self.state.push_scope();
        for (index, param) in action.params.iter().enumerate() {
            let value = if let Some(arg) = action_ref.args.get(index) {
                self.eval_expr(arg, self.env.resolve(&param.ty).width())?
            } else if param.direction == Direction::None {
                symbolic_of_type(
                    &self.tm,
                    self.env,
                    &param.ty,
                    &format!("{table_prefix}.{}.{}", action.name, param.name),
                )
            } else {
                undefined_of_type(&self.tm, self.env, &param.ty, &param.name)
            };
            self.state.declare(param.name.clone(), value);
        }
        let saved_returned = std::mem::replace(&mut self.state.returned, self.tm.fls());
        self.exec_statements(&action.body.statements)?;
        self.state.returned = saved_returned;
        self.state.pop_scope();
        Ok(())
    }

    // ---- headers and parser extraction -----------------------------------------

    fn set_header_validity(&mut self, receiver: &Expr, valid: bool) -> IResult<()> {
        let ty = self
            .lvalue_type(receiver)
            .ok_or_else(|| InterpError::new("setValid/setInvalid on unknown l-value"))?;
        let current = self.eval_expr(receiver, None)?;
        let new_value = match current {
            SymVal::Header { fields, .. } => {
                if valid {
                    // Fields become arbitrary unknown values when a header is
                    // made valid (paper §5.2, "Header validity").
                    let fresh = undefined_of_type(&self.tm, self.env, &ty, "setvalid");
                    match fresh {
                        SymVal::Header { fields, .. } => SymVal::Header {
                            valid: self.tm.tru(),
                            fields,
                        },
                        other => other,
                    }
                } else {
                    SymVal::Header {
                        valid: self.tm.fls(),
                        fields,
                    }
                }
            }
            other => other,
        };
        self.assign(receiver, new_value)
    }

    fn extract_header(&mut self, target: &Expr) -> IResult<()> {
        let ty = self
            .lvalue_type(target)
            .ok_or_else(|| InterpError::new("extract() target is not an l-value"))?;
        let Type::Header(header_name) = self.env.resolve(&ty) else {
            return Err(InterpError::new("extract() target is not a header"));
        };
        let aggregate = self
            .env
            .aggregate(&header_name)
            .ok_or_else(|| InterpError::new("unknown header type in extract()"))?;
        let index = self.extract_counter;
        self.extract_counter += 1;
        let mut fields = BTreeMap::new();
        for field in &aggregate.fields {
            let width = self.env.resolve(&field.ty).width().unwrap_or(1);
            let name = format!("pkt_{index}_{}", field.name);
            fields.insert(
                field.name.clone(),
                SymVal::Scalar(self.tm.var(name, Sort::BitVec(width))),
            );
        }
        self.assign(
            target,
            SymVal::Header {
                valid: self.tm.tru(),
                fields,
            },
        )
    }

    // ---- l-values ----------------------------------------------------------------

    fn lvalue_type(&self, expr: &Expr) -> Option<Type> {
        match expr {
            Expr::Path(name) => {
                // Parameters and locals: infer the type from the program
                // declaration that introduced them is not tracked here; use
                // the structure of the symbolic value instead.
                let value = self.state.lookup(name)?;
                self.type_from_value(value)
            }
            Expr::Member { base, member } => {
                let base_ty = self.lvalue_type(base)?;
                self.env.field_type(&base_ty, member)
            }
            Expr::Slice { hi, lo, .. } => Some(Type::bits(hi - lo + 1)),
            _ => None,
        }
    }

    fn type_from_value(&self, value: &SymVal) -> Option<Type> {
        match value {
            SymVal::Scalar(term) => match term.sort {
                Sort::Bool => Some(Type::Bool),
                Sort::BitVec(width) => Some(Type::bits(width)),
            },
            SymVal::Struct(fields) | SymVal::Header { fields, .. } => {
                // Find the aggregate type with exactly these field names.
                let names: Vec<&str> = fields.keys().map(String::as_str).collect();
                for aggregate_name in self.env.aggregate_names() {
                    let aggregate = self.env.aggregate(aggregate_name)?;
                    let mut agg_names: Vec<&str> =
                        aggregate.fields.iter().map(|f| f.name.as_str()).collect();
                    agg_names.sort_unstable();
                    let mut sorted = names.clone();
                    sorted.sort_unstable();
                    if agg_names == sorted {
                        return Some(match value {
                            SymVal::Header { .. } => Type::Header(aggregate_name.to_string()),
                            _ => Type::Struct(aggregate_name.to_string()),
                        });
                    }
                }
                None
            }
        }
    }

    fn lvalue_width(&self, expr: &Expr) -> Option<u32> {
        match expr {
            Expr::Slice { hi, lo, .. } => Some(hi - lo + 1),
            _ => self
                .lvalue_type(expr)
                .and_then(|t| self.env.resolve(&t).width()),
        }
    }

    /// Writes `value` into the storage denoted by the l-value expression.
    fn assign(&mut self, lvalue: &Expr, value: SymVal) -> IResult<()> {
        let segments = lvalue_segments(lvalue).ok_or_else(|| {
            InterpError::new(format!("not an l-value: {}", p4_ir::print_expr(lvalue)))
        })?;
        let (root, rest) = segments
            .split_first()
            .ok_or_else(|| InterpError::new("empty l-value"))?;
        let Segment::Field(root_name) = root else {
            return Err(InterpError::new("l-value must start with a variable"));
        };
        let tm = self.tm.clone();
        let root_name = root_name.clone();
        let target = self
            .state
            .lookup_mut(&root_name)
            .ok_or_else(|| InterpError::new(format!("assignment to undeclared `{root_name}`")))?;
        assign_into(&tm, target, rest, value)
    }

    // ---- expression evaluation ------------------------------------------------------

    fn eval_scalar(&mut self, expr: &Expr, width_hint: Option<u32>) -> IResult<TermRef> {
        match self.eval_expr(expr, width_hint)? {
            SymVal::Scalar(term) => Ok(term),
            other => Err(InterpError::new(format!(
                "expected a scalar, found aggregate {other:?} for {}",
                p4_ir::print_expr(expr)
            ))),
        }
    }

    fn eval_expr(&mut self, expr: &Expr, width_hint: Option<u32>) -> IResult<SymVal> {
        match expr {
            Expr::Bool(b) => Ok(SymVal::Scalar(self.tm.bool_const(*b))),
            Expr::Int { value, width, .. } => {
                let width = width.or(width_hint).unwrap_or(32);
                Ok(SymVal::Scalar(self.tm.bv_const(*value, width)))
            }
            Expr::Path(name) => self
                .state
                .lookup(name)
                .cloned()
                .ok_or_else(|| InterpError::new(format!("unknown name `{name}`"))),
            Expr::Member { base, member } => {
                let base_value = self.eval_expr(base, None)?;
                base_value
                    .field(member)
                    .cloned()
                    .ok_or_else(|| InterpError::new(format!("no field `{member}`")))
            }
            Expr::Slice { base, hi, lo } => {
                let base_value = self.eval_scalar(base, None)?;
                if *hi >= base_value.sort.width() {
                    return Err(InterpError::new("slice out of range"));
                }
                Ok(SymVal::Scalar(self.tm.extract(*hi, *lo, base_value)))
            }
            Expr::Unary { op, operand } => {
                let value = self.eval_scalar(operand, width_hint)?;
                let term = match op {
                    UnOp::Not => self.tm.not(value),
                    UnOp::BitNot => self.tm.bv_not(value),
                    UnOp::Neg => self.tm.bv_neg(value),
                };
                Ok(SymVal::Scalar(term))
            }
            Expr::Binary { op, left, right } => self.eval_binary(*op, left, right, width_hint),
            Expr::Ternary {
                cond,
                then_expr,
                else_expr,
            } => {
                let cond = self.eval_scalar(cond, None)?;
                let then_value = self.eval_scalar(then_expr, width_hint)?;
                let hint = Some(then_value.sort.width());
                let else_value = self.eval_scalar(else_expr, hint)?;
                let else_value = self.coerce(else_value, then_value.sort.width());
                Ok(SymVal::Scalar(self.tm.ite(cond, then_value, else_value)))
            }
            Expr::Cast { ty, expr } => {
                let resolved = self.env.resolve(ty);
                let value = self.eval_scalar(expr, resolved.width())?;
                let term = match resolved {
                    Type::Bool => self.tm.bv_to_bool(value),
                    Type::Bits { width, .. } => {
                        let value = if value.sort.is_bool() {
                            self.tm.bool_to_bv(value)
                        } else {
                            value
                        };
                        self.tm.resize(value, width)
                    }
                    _ => value,
                };
                Ok(SymVal::Scalar(term))
            }
            Expr::Call(call) => match self.exec_call(call)? {
                Some(value) => Ok(value),
                None => Err(InterpError::new(format!(
                    "call `{}` used as a value but returns nothing",
                    call.target.join(".")
                ))),
            },
        }
    }

    fn coerce(&self, term: TermRef, width: u32) -> TermRef {
        if term.sort.is_bool() || term.sort.width() == width {
            term
        } else {
            self.tm.resize(term, width)
        }
    }

    fn eval_binary(
        &mut self,
        op: BinOp,
        left: &Expr,
        right: &Expr,
        width_hint: Option<u32>,
    ) -> IResult<SymVal> {
        use BinOp::*;
        if matches!(op, And | Or) {
            let l = self.eval_scalar(left, None)?;
            let r = self.eval_scalar(right, None)?;
            let term = match op {
                And => self.tm.and2(l, r),
                _ => self.tm.or2(l, r),
            };
            return Ok(SymVal::Scalar(term));
        }
        // Evaluate the side that fixes the width first so unsized literals
        // on the other side can adopt it.
        let (mut l, mut r) = if matches!(left, Expr::Int { width: None, .. }) {
            let r = self.eval_scalar(right, width_hint)?;
            let l = self.eval_scalar(left, Some(r.sort.width()))?;
            (l, r)
        } else {
            let l = self.eval_scalar(left, width_hint)?;
            let r = self.eval_scalar(right, Some(l.sort.width()))?;
            (l, r)
        };
        // Shifts allow operands of different widths; other operators expect
        // matching widths (coerce defensively to keep the solver total).
        if !l.sort.is_bool() && !r.sort.is_bool() && l.sort != r.sort {
            if matches!(op, Shl | Shr) {
                r = self.tm.resize(r, l.sort.width());
            } else {
                let width = l.sort.width().max(r.sort.width());
                l = self.tm.resize(l, width);
                r = self.tm.resize(r, width);
            }
        }
        let tm = &self.tm;
        let term = match op {
            Add => tm.bv_add(l, r),
            Sub => tm.bv_sub(l, r),
            Mul => tm.bv_mul(l, r),
            SatAdd => tm.bv_sat_add(l, r),
            SatSub => tm.bv_sat_sub(l, r),
            BitAnd => tm.bv_and(l, r),
            BitOr => tm.bv_or(l, r),
            BitXor => tm.bv_xor(l, r),
            Shl => tm.bv_shl(l, r),
            Shr => tm.bv_lshr(l, r),
            Concat => tm.concat(l, r),
            Eq => tm.eq(l, r),
            Ne => tm.neq(l, r),
            Lt => tm.bv_ult(l, r),
            Le => tm.bv_ule(l, r),
            Gt => tm.bv_ugt(l, r),
            Ge => tm.bv_uge(l, r),
            And | Or => unreachable!("handled above"),
        };
        Ok(SymVal::Scalar(term))
    }
}

// ---- l-value plumbing -------------------------------------------------------

#[derive(Debug, Clone)]
enum Segment {
    Field(String),
    Slice(u32, u32),
}

fn lvalue_segments(expr: &Expr) -> Option<Vec<Segment>> {
    match expr {
        Expr::Path(name) => Some(vec![Segment::Field(name.clone())]),
        Expr::Member { base, member } => {
            let mut segments = lvalue_segments(base)?;
            segments.push(Segment::Field(member.clone()));
            Some(segments)
        }
        Expr::Slice { base, hi, lo } => {
            let mut segments = lvalue_segments(base)?;
            segments.push(Segment::Slice(*hi, *lo));
            Some(segments)
        }
        _ => None,
    }
}

fn assign_into(
    tm: &TermManager,
    target: &mut SymVal,
    path: &[Segment],
    value: SymVal,
) -> Result<(), InterpError> {
    match path.split_first() {
        None => {
            *target = value;
            Ok(())
        }
        Some((Segment::Field(name), rest)) => {
            let field = target.field_mut(name).ok_or_else(|| {
                InterpError::new(format!("no field `{name}` in assignment target"))
            })?;
            assign_into(tm, field, rest, value)
        }
        Some((Segment::Slice(hi, lo), rest)) => {
            if !rest.is_empty() {
                return Err(InterpError::new(
                    "slice must be the last component of an l-value",
                ));
            }
            let old = target.scalar().clone();
            let width = old.sort.width();
            if *hi >= width {
                return Err(InterpError::new("slice assignment out of range"));
            }
            let new_scalar = splice_slice(tm, &old, value.scalar(), *hi, *lo);
            *target = SymVal::Scalar(new_scalar);
            Ok(())
        }
    }
}

/// Builds `old` with bits `[hi:lo]` replaced by `value`.
fn splice_slice(tm: &TermManager, old: &TermRef, value: &TermRef, hi: u32, lo: u32) -> TermRef {
    let width = old.sort.width();
    let value = tm.resize(value.clone(), hi - lo + 1);
    let mut parts: Vec<TermRef> = Vec::new();
    if hi + 1 < width {
        parts.push(tm.extract(width - 1, hi + 1, old.clone()));
    }
    parts.push(value);
    if lo > 0 {
        parts.push(tm.extract(lo - 1, 0, old.clone()));
    }
    let mut iter = parts.into_iter();
    let first = iter.next().expect("at least one part");
    iter.fold(first, |acc, part| tm.concat(acc, part))
}

fn receiver_expr(call: &CallExpr) -> Expr {
    let parts: Vec<&str> = call.target[..call.target.len() - 1]
        .iter()
        .map(String::as_str)
        .collect();
    Expr::dotted(&parts)
}

fn find_function<'a>(program: &'a Program, name: &str) -> Option<&'a FunctionDecl> {
    program.declarations.iter().find_map(|d| match d {
        Declaration::Function(f) if f.name == name => Some(f),
        _ => None,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use p4_ir::builder;
    use smt::{eval_with_default, Assignment, Value};

    fn ingress_semantics(program: &Program) -> (Arc<TermManager>, BlockSemantics) {
        let tm = Arc::new(TermManager::new());
        let semantics = interpret_program(&tm, program).expect("interpretation succeeds");
        let block = semantics.block("ingress").expect("ingress block").clone();
        (tm, block)
    }

    fn eval_output(block: &BlockSemantics, name: &str, env: &Assignment) -> Value {
        let term = block
            .output(name)
            .unwrap_or_else(|| panic!("no output {name}"));
        eval_with_default(term, env)
    }

    #[test]
    fn trivial_assignment_produces_constant_output() {
        let program = builder::trivial_program();
        let (_tm, block) = ingress_semantics(&program);
        let out = eval_output(&block, "hdr.h.a", &Assignment::new());
        assert_eq!(out, Value::bv(1, 8));
        // Untouched fields pass through their input variables.
        let mut env = Assignment::new();
        env.insert("hdr.h.b".into(), Value::bv(77, 8));
        assert_eq!(eval_output(&block, "hdr.h.b", &env), Value::bv(77, 8));
    }

    #[test]
    fn if_statement_builds_ite_semantics() {
        use p4_ir::{BinOp, Block, Statement};
        let program = builder::v1model_program(
            vec![],
            Block::new(vec![Statement::if_else(
                Expr::binary(
                    BinOp::Eq,
                    Expr::dotted(&["hdr", "h", "a"]),
                    Expr::uint(3, 8),
                ),
                Statement::assign(Expr::dotted(&["hdr", "h", "b"]), Expr::uint(10, 8)),
                Statement::assign(Expr::dotted(&["hdr", "h", "b"]), Expr::uint(20, 8)),
            )]),
        );
        let (_tm, block) = ingress_semantics(&program);
        let mut env = Assignment::new();
        env.insert("hdr.h.a".into(), Value::bv(3, 8));
        assert_eq!(eval_output(&block, "hdr.h.b", &env), Value::bv(10, 8));
        env.insert("hdr.h.a".into(), Value::bv(4, 8));
        assert_eq!(eval_output(&block, "hdr.h.b", &env), Value::bv(20, 8));
        assert_eq!(block.branch_conditions.len(), 1);
    }

    #[test]
    fn figure3_table_semantics_match_the_paper() {
        let (locals, apply) = builder::figure3_table_control();
        let program = builder::v1model_program(locals, apply);
        let (_tm, block) = ingress_semantics(&program);
        assert_eq!(block.tables.len(), 1);
        let table = &block.tables[0];
        assert_eq!(table.actions, vec!["assign", "NoAction"]);

        // Key matches and the `assign` action (index 1) is chosen: hdr.h.a = 1.
        let mut env = Assignment::new();
        env.insert("hdr.h.a".into(), Value::bv(5, 8));
        env.insert(table.keys[0].0.clone(), Value::bv(5, 8));
        env.insert(table.action_var.clone(), Value::bv(1, 8));
        assert_eq!(eval_output(&block, "hdr.h.a", &env), Value::bv(1, 8));

        // Key matches but NoAction (index 2) is chosen: unchanged.
        env.insert(table.action_var.clone(), Value::bv(2, 8));
        assert_eq!(eval_output(&block, "hdr.h.a", &env), Value::bv(5, 8));

        // Key does not match: default action (NoAction): unchanged.
        env.insert(table.keys[0].0.clone(), Value::bv(9, 8));
        env.insert(table.action_var.clone(), Value::bv(1, 8));
        assert_eq!(eval_output(&block, "hdr.h.a", &env), Value::bv(5, 8));
    }

    #[test]
    fn exit_stops_subsequent_updates() {
        use p4_ir::{Block, Statement};
        let program = builder::v1model_program(
            vec![],
            Block::new(vec![
                Statement::assign(Expr::dotted(&["hdr", "h", "a"]), Expr::uint(1, 8)),
                Statement::Exit,
                Statement::assign(Expr::dotted(&["hdr", "h", "a"]), Expr::uint(2, 8)),
            ]),
        );
        let (_tm, block) = ingress_semantics(&program);
        assert_eq!(
            eval_output(&block, "hdr.h.a", &Assignment::new()),
            Value::bv(1, 8)
        );
    }

    #[test]
    fn conditional_exit_only_affects_its_path() {
        use p4_ir::{BinOp, Block, Statement};
        let program = builder::v1model_program(
            vec![],
            Block::new(vec![
                Statement::if_then(
                    Expr::binary(
                        BinOp::Eq,
                        Expr::dotted(&["hdr", "h", "a"]),
                        Expr::uint(0, 8),
                    ),
                    Statement::Block(Block::new(vec![Statement::Exit])),
                ),
                Statement::assign(Expr::dotted(&["hdr", "h", "b"]), Expr::uint(9, 8)),
            ]),
        );
        let (_tm, block) = ingress_semantics(&program);
        let mut env = Assignment::new();
        env.insert("hdr.h.a".into(), Value::bv(0, 8));
        env.insert("hdr.h.b".into(), Value::bv(1, 8));
        assert_eq!(eval_output(&block, "hdr.h.b", &env), Value::bv(1, 8));
        env.insert("hdr.h.a".into(), Value::bv(7, 8));
        assert_eq!(eval_output(&block, "hdr.h.b", &env), Value::bv(9, 8));
    }

    #[test]
    fn conditional_return_only_affects_its_path() {
        use p4_ir::{Block, Declaration, FunctionDecl, Param, Statement};
        // bit<8> bump(inout bit<8> v) {
        //     if (v == 0) { return 5; }
        //     v = v + 1;
        //     return v;
        // }
        let function = FunctionDecl {
            name: "bump".into(),
            return_type: Type::bits(8),
            params: vec![Param::new(Direction::InOut, "v", Type::bits(8))],
            body: Block::new(vec![
                Statement::if_then(
                    Expr::binary(BinOp::Eq, Expr::path("v"), Expr::uint(0, 8)),
                    Statement::Block(Block::new(vec![Statement::Return(Some(Expr::uint(5, 8)))])),
                ),
                Statement::assign(
                    Expr::path("v"),
                    Expr::binary(BinOp::Add, Expr::path("v"), Expr::uint(1, 8)),
                ),
                Statement::Return(Some(Expr::path("v"))),
            ]),
        };
        let mut program = builder::v1model_program(
            vec![],
            Block::new(vec![Statement::assign(
                Expr::dotted(&["hdr", "h", "a"]),
                Expr::call(vec!["bump"], vec![Expr::dotted(&["hdr", "h", "b"])]),
            )]),
        );
        program.declarations.push(Declaration::Function(function));
        let (_tm, block) = ingress_semantics(&program);
        let mut env = Assignment::new();
        env.insert("hdr.h.b".into(), Value::bv(0, 8));
        assert_eq!(eval_output(&block, "hdr.h.a", &env), Value::bv(5, 8));
        assert_eq!(eval_output(&block, "hdr.h.b", &env), Value::bv(0, 8));
        env.insert("hdr.h.b".into(), Value::bv(7, 8));
        assert_eq!(eval_output(&block, "hdr.h.a", &env), Value::bv(8, 8));
        assert_eq!(eval_output(&block, "hdr.h.b", &env), Value::bv(8, 8));
    }

    #[test]
    fn block_inputs_list_validity_first_then_fields_by_name() {
        let program = builder::trivial_program();
        let (_tm, block) = ingress_semantics(&program);
        let inputs: Vec<String> = block
            .inputs
            .iter()
            .map(|(name, width)| format!("{name}:{width}"))
            .collect();
        // Test generation builds its non-zero preference in this order, so
        // it reaches generated models: fields are declared `dst_addr,
        // src_addr, eth_type` and `tmp, flag` but listed by name.
        assert_eq!(
            inputs,
            [
                "hdr.eth.$valid:1",
                "hdr.eth.dst_addr:48",
                "hdr.eth.eth_type:16",
                "hdr.eth.src_addr:48",
                "hdr.h.$valid:1",
                "hdr.h.a:8",
                "hdr.h.b:8",
                "hdr.h.c:8",
                "meta.flag:8",
                "meta.tmp:16",
                "standard_metadata.deq_qdepth:19",
                "standard_metadata.egress_port:9",
                "standard_metadata.egress_spec:9",
                "standard_metadata.enq_timestamp:32",
                "standard_metadata.ingress_port:9",
                "standard_metadata.instance_type:32",
                "standard_metadata.packet_length:32",
            ]
        );
    }

    #[test]
    fn copy_in_copy_out_of_inout_action_parameters() {
        use p4_ir::{ActionDecl, Block, Declaration, Param, Statement};
        // Figure 5f without the exit: action a(inout bit<16> val) { val = 3; }
        let action = ActionDecl {
            name: "set".into(),
            params: vec![Param::new(Direction::InOut, "val", Type::bits(16))],
            body: Block::new(vec![Statement::assign(
                Expr::path("val"),
                Expr::uint(3, 16),
            )]),
        };
        let program = builder::v1model_program(
            vec![Declaration::Action(action)],
            Block::new(vec![Statement::call(
                vec!["set"],
                vec![Expr::dotted(&["hdr", "eth", "eth_type"])],
            )]),
        );
        let (_tm, block) = ingress_semantics(&program);
        assert_eq!(
            eval_output(&block, "hdr.eth.eth_type", &Assignment::new()),
            Value::bv(3, 16)
        );
    }

    #[test]
    fn exit_inside_action_still_copies_out() {
        use p4_ir::{ActionDecl, Block, Declaration, Param, Statement};
        let action = ActionDecl {
            name: "set".into(),
            params: vec![Param::new(Direction::InOut, "val", Type::bits(16))],
            body: Block::new(vec![
                Statement::assign(Expr::path("val"), Expr::uint(3, 16)),
                Statement::Exit,
            ]),
        };
        let program = builder::v1model_program(
            vec![Declaration::Action(action)],
            Block::new(vec![
                Statement::call(vec!["set"], vec![Expr::dotted(&["hdr", "eth", "eth_type"])]),
                // Must not execute: the action exited.
                Statement::assign(Expr::dotted(&["hdr", "h", "a"]), Expr::uint(5, 8)),
            ]),
        );
        let (_tm, block) = ingress_semantics(&program);
        let env = Assignment::new();
        assert_eq!(
            eval_output(&block, "hdr.eth.eth_type", &env),
            Value::bv(3, 16)
        );
        // hdr.h.a keeps its input value (the write after exit is dead).
        let mut env = Assignment::new();
        env.insert("hdr.h.a".into(), Value::bv(42, 8));
        assert_eq!(eval_output(&block, "hdr.h.a", &env), Value::bv(42, 8));
    }

    #[test]
    fn header_validity_setinvalid_and_isvalid() {
        use p4_ir::{BinOp, Block, Statement};
        let program = builder::v1model_program(
            vec![],
            Block::new(vec![
                Statement::call(vec!["hdr", "h", "setInvalid"], vec![]),
                Statement::if_then(
                    Expr::binary(
                        BinOp::Eq,
                        Expr::call(vec!["hdr", "h", "isValid"], vec![]),
                        Expr::Bool(true),
                    ),
                    Statement::Block(Block::new(vec![Statement::assign(
                        Expr::dotted(&["hdr", "h", "a"]),
                        Expr::uint(1, 8),
                    )])),
                ),
            ]),
        );
        let (_tm, block) = ingress_semantics(&program);
        // The header was just invalidated, so the guarded assignment never
        // executes and the validity output is false.
        let mut env = Assignment::new();
        env.insert("hdr.h.a".into(), Value::bv(9, 8));
        env.insert("hdr.h.$valid".into(), Value::Bool(true));
        assert_eq!(eval_output(&block, "hdr.h.a", &env), Value::bv(9, 8));
        assert_eq!(
            eval_output(&block, "hdr.h.$valid", &env),
            Value::Bool(false)
        );
    }

    #[test]
    fn slice_assignment_updates_only_selected_bits() {
        use p4_ir::{Block, Statement};
        let program = builder::v1model_program(
            vec![],
            Block::new(vec![Statement::assign(
                Expr::slice(Expr::dotted(&["hdr", "h", "a"]), 3, 0),
                Expr::uint(0xf, 4),
            )]),
        );
        let (_tm, block) = ingress_semantics(&program);
        let mut env = Assignment::new();
        env.insert("hdr.h.a".into(), Value::bv(0xa0, 8));
        assert_eq!(eval_output(&block, "hdr.h.a", &env), Value::bv(0xaf, 8));
    }

    #[test]
    fn function_calls_are_inlined_symbolically() {
        use p4_ir::{Block, Declaration, FunctionDecl, Param, Statement};
        let function = FunctionDecl {
            name: "inc".into(),
            return_type: Type::bits(8),
            params: vec![Param::new(Direction::In, "x", Type::bits(8))],
            body: Block::new(vec![Statement::Return(Some(Expr::binary(
                BinOp::Add,
                Expr::path("x"),
                Expr::uint(1, 8),
            )))]),
        };
        let mut program = builder::v1model_program(
            vec![],
            Block::new(vec![Statement::assign(
                Expr::dotted(&["hdr", "h", "a"]),
                Expr::call(vec!["inc"], vec![Expr::dotted(&["hdr", "h", "b"])]),
            )]),
        );
        program.declarations.push(Declaration::Function(function));
        let (_tm, block) = ingress_semantics(&program);
        let mut env = Assignment::new();
        env.insert("hdr.h.b".into(), Value::bv(41, 8));
        assert_eq!(eval_output(&block, "hdr.h.a", &env), Value::bv(42, 8));
    }

    #[test]
    fn unknown_extern_havoc_is_the_same_on_reinterpretation() {
        use p4_ir::{Block, Statement};
        let program = builder::v1model_program(
            vec![],
            Block::new(vec![
                Statement::call(
                    vec!["opaque_extern"],
                    vec![Expr::dotted(&["hdr", "h", "a"])],
                ),
                Statement::assign(
                    Expr::dotted(&["hdr", "h", "b"]),
                    Expr::cast(Type::bits(8), Expr::call(vec!["opaque_extern"], vec![])),
                ),
            ]),
        );
        let tm = Arc::new(TermManager::new());
        let first = interpret_program(&tm, &program).unwrap();
        let second = interpret_program(&tm, &program).unwrap();
        for (block_first, block_second) in first.blocks.iter().zip(&second.blocks) {
            assert_eq!(block_first.outputs.len(), block_second.outputs.len());
            for ((name, term_first), (_, term_second)) in
                block_first.outputs.iter().zip(&block_second.outputs)
            {
                assert_eq!(term_first.id, term_second.id, "output {name} differs");
            }
        }
        // The call did havoc its argument and produce an unknown result.
        let ingress = first.block("ingress").unwrap();
        for field in ["hdr.h.a", "hdr.h.b"] {
            let input = tm.var(field, Sort::BitVec(8));
            assert_ne!(ingress.output(field).unwrap().id, input.id, "{field}");
        }
    }

    #[test]
    fn parser_block_extracts_headers_symbolically() {
        let program = builder::trivial_program();
        let tm = Arc::new(TermManager::new());
        let semantics = interpret_program(&tm, &program).unwrap();
        let parser = semantics.block("parser").unwrap();
        // The ethernet header is always extracted and marked valid.
        let mut env = Assignment::new();
        env.insert("pkt_0_eth_type".into(), Value::bv(0x0800, 16));
        assert_eq!(
            eval_with_default(parser.output("hdr.eth.$valid").unwrap(), &env),
            Value::Bool(true)
        );
        assert_eq!(
            eval_with_default(parser.output("hdr.eth.eth_type").unwrap(), &env),
            Value::bv(0x0800, 16)
        );
        // The custom header is valid only when eth_type selects parse_h.
        assert_eq!(
            eval_with_default(parser.output("hdr.h.$valid").unwrap(), &env),
            Value::Bool(true)
        );
        env.insert("pkt_0_eth_type".into(), Value::bv(0x1234, 16));
        assert_eq!(
            eval_with_default(parser.output("hdr.h.$valid").unwrap(), &env),
            Value::Bool(false)
        );
    }
}
