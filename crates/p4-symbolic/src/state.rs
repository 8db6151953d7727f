//! Symbolic state: the mapping from P4 variables to symbolic values.
//!
//! Scalars are SMT terms; structs and headers are nested maps of fields,
//! with headers carrying an extra symbolic validity bit.  The interpreter
//! merges whole states at control-flow joins with if-then-else terms, which
//! is what produces the nested-ITE functional form the paper shows in
//! Figure 3.

use p4_ir::{Type, TypeEnv};
use smt::{Sort, TermManager, TermRef};
use std::collections::BTreeMap;
use std::fmt::Write;
use std::sync::Arc;

/// A symbolic value: a scalar term or a nested aggregate.
#[derive(Debug, Clone)]
pub enum SymVal {
    /// A `bit<N>` or `bool` value.
    Scalar(TermRef),
    /// A struct: field name → value.
    Struct(BTreeMap<String, SymVal>),
    /// A header: validity bit plus fields.
    Header {
        valid: TermRef,
        fields: BTreeMap<String, SymVal>,
    },
}

impl SymVal {
    /// The scalar term, panicking on aggregates (callers check types first).
    pub fn scalar(&self) -> &TermRef {
        match self {
            SymVal::Scalar(term) => term,
            other => panic!("expected a scalar symbolic value, found {other:?}"),
        }
    }

    /// Field lookup for aggregates.
    pub fn field(&self, name: &str) -> Option<&SymVal> {
        match self {
            SymVal::Struct(fields) | SymVal::Header { fields, .. } => fields.get(name),
            SymVal::Scalar(_) => None,
        }
    }

    pub fn field_mut(&mut self, name: &str) -> Option<&mut SymVal> {
        match self {
            SymVal::Struct(fields) | SymVal::Header { fields, .. } => fields.get_mut(name),
            SymVal::Scalar(_) => None,
        }
    }

    /// Flattens the value into `(suffix, term)` pairs, including `$valid`
    /// entries for headers.  `prefix` is prepended to every name.
    pub fn flatten(&self, prefix: &str, out: &mut Vec<(String, TermRef)>) {
        self.flatten_at(&mut prefix.to_string(), out);
    }

    /// [`SymVal::flatten`] with the dotted path kept in one buffer, which is
    /// restored before returning.
    fn flatten_at(&self, path: &mut String, out: &mut Vec<(String, TermRef)>) {
        let fields = match self {
            SymVal::Scalar(term) => {
                out.push((path.clone(), term.clone()));
                return;
            }
            SymVal::Struct(fields) => fields,
            SymVal::Header { valid, fields } => {
                with_segment(path, "$valid", |path| {
                    out.push((path.clone(), valid.clone()))
                });
                fields
            }
        };
        for (name, value) in fields {
            with_segment(path, name, |path| value.flatten_at(path, out));
        }
    }

    /// Merges two structurally identical values with `ite(cond, a, b)`.
    pub fn merge(tm: &TermManager, cond: &TermRef, a: &SymVal, b: &SymVal) -> SymVal {
        match (a, b) {
            (SymVal::Scalar(x), SymVal::Scalar(y)) => {
                SymVal::Scalar(tm.ite(cond.clone(), x.clone(), y.clone()))
            }
            (SymVal::Struct(fa), SymVal::Struct(fb)) => {
                let mut merged = BTreeMap::new();
                for (name, value_a) in fa {
                    let value_b = fb.get(name).unwrap_or(value_a);
                    merged.insert(name.clone(), SymVal::merge(tm, cond, value_a, value_b));
                }
                SymVal::Struct(merged)
            }
            (
                SymVal::Header {
                    valid: va,
                    fields: fa,
                },
                SymVal::Header {
                    valid: vb,
                    fields: fb,
                },
            ) => {
                let mut merged = BTreeMap::new();
                for (name, value_a) in fa {
                    let value_b = fb.get(name).unwrap_or(value_a);
                    merged.insert(name.clone(), SymVal::merge(tm, cond, value_a, value_b));
                }
                SymVal::Header {
                    valid: tm.ite(cond.clone(), va.clone(), vb.clone()),
                    fields: merged,
                }
            }
            // Structurally different (should not happen for well-typed
            // programs); prefer the then-side.
            (a, _) => a.clone(),
        }
    }
}

/// The sort of a leaf of resolved, non-aggregate type `ty`: unresolvable or
/// non-value types get a 1-bit placeholder.
fn leaf_sort(ty: &Type) -> Sort {
    match ty {
        Type::Bool => Sort::Bool,
        Type::Bits { width, .. } => Sort::BitVec(*width),
        _ => Sort::BitVec(1),
    }
}

/// Runs `f` with `.segment` appended to `path`, then restores `path`.
fn with_segment<R>(path: &mut String, segment: &str, f: impl FnOnce(&mut String) -> R) -> R {
    let len = path.len();
    path.push('.');
    path.push_str(segment);
    let result = f(path);
    path.truncate(len);
    result
}

/// Builds a symbolic value of the given type whose leaves are fresh
/// variables named `prefix.<field>` (used for control-plane action
/// parameters).
pub fn symbolic_of_type(tm: &TermManager, env: &TypeEnv, ty: &Type, prefix: &str) -> SymVal {
    input_of_type(tm, env, ty, prefix, &mut Vec::new())
}

/// Builds a block input: [`symbolic_of_type`] named by `name`, which also
/// appends every leaf's `(path, width)` to `inputs` in the order
/// [`SymVal::flatten`] lists them (`$valid` first, then fields by name).
pub fn input_of_type(
    tm: &TermManager,
    env: &TypeEnv,
    ty: &Type,
    name: &str,
    inputs: &mut Vec<(String, u32)>,
) -> SymVal {
    symbolic_at(tm, env, ty, &mut name.to_string(), inputs)
}

/// The walk behind [`input_of_type`], with the dotted name kept in one
/// buffer.
fn symbolic_at(
    tm: &TermManager,
    env: &TypeEnv,
    ty: &Type,
    path: &mut String,
    leaves: &mut Vec<(String, u32)>,
) -> SymVal {
    let (name, is_header) = match env.resolve(ty) {
        Type::Header(name) => (name, true),
        Type::Struct(name) => (name, false),
        scalar => {
            let sort = leaf_sort(&scalar);
            leaves.push((path.clone(), sort.width()));
            return SymVal::Scalar(tm.var(path.as_str(), sort));
        }
    };
    if is_header {
        with_segment(path, "$valid", |path| leaves.push((path.clone(), 1)));
    }
    // Variables are created field by field in declaration order (a
    // header's `$valid` last), which fixes the manager's term ids, while
    // the leaves are listed by field name.  `spans` maps each name to its
    // leaves; like `fields`, it keeps the last of a repeated name.
    let first = leaves.len();
    let mut spans = BTreeMap::new();
    let mut fields = BTreeMap::new();
    for field in env.aggregate(&name).map_or(&[][..], |agg| &agg.fields) {
        let start = leaves.len() - first;
        let value = with_segment(path, &field.name, |path| {
            symbolic_at(tm, env, &field.ty, path, leaves)
        });
        spans.insert(field.name.as_str(), start..leaves.len() - first);
        fields.insert(field.name.clone(), value);
    }
    let mut declared = leaves.split_off(first);
    for range in spans.into_values() {
        leaves.extend(declared[range].iter_mut().map(std::mem::take));
    }
    if !is_header {
        return SymVal::Struct(fields);
    }
    let valid = with_segment(path, "$valid", |path| tm.var(path.as_str(), Sort::Bool));
    SymVal::Header { valid, fields }
}

/// Builds an "undefined" value of the given type: every leaf is an
/// unconstrained variable, headers are invalid.  Used for `out` parameters
/// and undefined reads (paper §5.2, "Interpreting function calls").
///
/// Undefined leaves are named *deterministically* from `hint` (plus the
/// field path and width) rather than with per-call fresh counters.  This
/// mirrors the paper's decision to "provide our own semantics for undefined
/// behavior": when the same structural position is undefined in the program
/// before and after a pass, both sides see the *same* unknown, so an
/// unchanged program always validates as equivalent, while a pass that makes
/// a defined value undefined (or vice versa) is still flagged.
pub fn undefined_of_type(tm: &TermManager, env: &TypeEnv, ty: &Type, hint: &str) -> SymVal {
    undefined_at(tm, env, ty, &mut format!("undef.{hint}"))
}

/// The walk behind [`undefined_of_type`], with the dotted name kept in one
/// buffer.
fn undefined_at(tm: &TermManager, env: &TypeEnv, ty: &Type, path: &mut String) -> SymVal {
    let (name, is_header) = match env.resolve(ty) {
        Type::Header(name) => (name, true),
        Type::Struct(name) => (name, false),
        scalar => {
            let sort = leaf_sort(&scalar);
            let len = path.len();
            match sort {
                Sort::Bool => path.push_str(".b"),
                Sort::BitVec(width) => write!(path, ".w{width}").expect("writing to a String"),
            }
            let var = tm.var(path.as_str(), sort);
            path.truncate(len);
            return SymVal::Scalar(var);
        }
    };
    let mut fields = BTreeMap::new();
    for field in env.aggregate(&name).map_or(&[][..], |agg| &agg.fields) {
        let value = with_segment(path, &field.name, |path| {
            undefined_at(tm, env, &field.ty, path)
        });
        fields.insert(field.name.clone(), value);
    }
    if is_header {
        SymVal::Header {
            valid: tm.bool_const(false),
            fields,
        }
    } else {
        SymVal::Struct(fields)
    }
}

/// The interpreter's mutable state: a stack of lexical scopes plus the
/// control-flow flags.
#[derive(Debug, Clone)]
pub struct SymState {
    scopes: Vec<BTreeMap<String, SymVal>>,
    /// True on paths where `exit` has executed (terminates the whole block).
    pub exited: TermRef,
    /// True on paths where the current callable has returned.
    pub returned: TermRef,
    /// The value returned by the current callable, if any path returned one.
    pub return_value: Option<SymVal>,
}

impl SymState {
    pub fn new(tm: &TermManager) -> SymState {
        SymState {
            scopes: vec![BTreeMap::new()],
            exited: tm.fls(),
            returned: tm.fls(),
            return_value: None,
        }
    }

    pub fn push_scope(&mut self) {
        self.scopes.push(BTreeMap::new());
    }

    pub fn pop_scope(&mut self) {
        self.scopes.pop();
        if self.scopes.is_empty() {
            self.scopes.push(BTreeMap::new());
        }
    }

    /// Declares a variable in the innermost scope.
    pub fn declare(&mut self, name: impl Into<String>, value: SymVal) {
        self.scopes
            .last_mut()
            .expect("state always has a scope")
            .insert(name.into(), value);
    }

    /// Declares a variable in the outermost (global) scope.
    pub fn declare_global(&mut self, name: impl Into<String>, value: SymVal) {
        self.scopes
            .first_mut()
            .expect("state always has a scope")
            .insert(name.into(), value);
    }

    pub fn lookup(&self, name: &str) -> Option<&SymVal> {
        self.scopes.iter().rev().find_map(|scope| scope.get(name))
    }

    pub fn lookup_mut(&mut self, name: &str) -> Option<&mut SymVal> {
        self.scopes
            .iter_mut()
            .rev()
            .find_map(|scope| scope.get_mut(name))
    }

    /// Merges two states produced from a common predecessor: every variable
    /// present in either side is merged with `ite(cond, then, else)`.
    pub fn merge(
        tm: &TermManager,
        cond: &TermRef,
        then_state: &SymState,
        else_state: &SymState,
    ) -> SymState {
        let mut scopes = Vec::with_capacity(then_state.scopes.len());
        for (depth, then_scope) in then_state.scopes.iter().enumerate() {
            let else_scope = else_state.scopes.get(depth);
            let mut merged = BTreeMap::new();
            for (name, then_value) in then_scope {
                let merged_value = match else_scope.and_then(|s| s.get(name)) {
                    Some(else_value) => SymVal::merge(tm, cond, then_value, else_value),
                    None => then_value.clone(),
                };
                merged.insert(name.clone(), merged_value);
            }
            // Variables only present on the else side (declared there) are
            // dropped: they are out of scope after the join anyway.
            scopes.push(merged);
        }
        let return_value = match (&then_state.return_value, &else_state.return_value) {
            (Some(a), Some(b)) => Some(SymVal::merge(tm, cond, a, b)),
            (Some(a), None) => Some(a.clone()),
            (None, Some(b)) => Some(b.clone()),
            (None, None) => None,
        };
        SymState {
            scopes,
            exited: tm.ite(
                cond.clone(),
                then_state.exited.clone(),
                else_state.exited.clone(),
            ),
            returned: tm.ite(
                cond.clone(),
                then_state.returned.clone(),
                else_state.returned.clone(),
            ),
            return_value,
        }
    }
}

/// Shared handle on the term manager used by one interpretation run.
pub type SharedTm = Arc<TermManager>;

#[cfg(test)]
mod tests {
    use super::*;
    use p4_ir::builder;
    use smt::TermKind;

    fn setup() -> (TermManager, TypeEnv) {
        let program = builder::trivial_program();
        (TermManager::new(), TypeEnv::from_program(&program))
    }

    #[test]
    fn symbolic_struct_flattens_with_validity_bits() {
        let (tm, env) = setup();
        let value = symbolic_of_type(&tm, &env, &Type::Named("headers_t".into()), "hdr");
        let mut flat = Vec::new();
        value.flatten("hdr", &mut flat);
        let names: Vec<&str> = flat.iter().map(|(n, _)| n.as_str()).collect();
        assert!(names.contains(&"hdr.eth.$valid"));
        assert!(names.contains(&"hdr.eth.src_addr"));
        assert!(names.contains(&"hdr.h.$valid"));
        assert!(names.contains(&"hdr.h.a"));
    }

    #[test]
    fn input_leaves_are_listed_in_flatten_order() {
        use p4_ir::{Declaration, Field, StructDecl};
        let tm = TermManager::new();
        let mut program = builder::trivial_program();
        // Unsorted, with a repeated name: the field map keeps the last `b`.
        program.declarations.push(Declaration::Struct(StructDecl {
            name: "dup_t".into(),
            fields: vec![
                Field::new("b", Type::bits(8)),
                Field::new("h", Type::Named("h_t".into())),
                Field::new("a", Type::bits(4)),
                Field::new("b", Type::bits(16)),
            ],
        }));
        let env = TypeEnv::from_program(&program);
        for ty in ["headers_t", "metadata_t", "standard_metadata_t", "dup_t"] {
            let mut inputs = Vec::new();
            let value = input_of_type(&tm, &env, &Type::Named(ty.into()), "p", &mut inputs);
            let mut flat = Vec::new();
            value.flatten("p", &mut flat);
            let flat: Vec<(String, u32)> = flat
                .into_iter()
                .map(|(name, term)| (name, term.sort.width()))
                .collect();
            assert_eq!(inputs, flat, "{ty}");
        }
    }

    #[test]
    fn undefined_headers_start_invalid() {
        let (tm, env) = setup();
        let value = undefined_of_type(&tm, &env, &Type::Named("headers_t".into()), "hdr");
        let eth = value.field("eth").unwrap();
        match eth {
            SymVal::Header { valid, .. } => {
                assert!(matches!(valid.kind, TermKind::BoolConst(false)))
            }
            other => panic!("expected a header, got {other:?}"),
        }
    }

    #[test]
    fn scope_shadowing_and_restoration() {
        let (tm, env) = setup();
        let mut state = SymState::new(&tm);
        let _ = env;
        state.declare("x", SymVal::Scalar(tm.bv_const(1, 8)));
        state.push_scope();
        state.declare("x", SymVal::Scalar(tm.bv_const(2, 8)));
        match state.lookup("x").unwrap() {
            SymVal::Scalar(term) => assert!(format!("{term}").contains("8w2")),
            _ => panic!(),
        }
        state.pop_scope();
        match state.lookup("x").unwrap() {
            SymVal::Scalar(term) => assert!(format!("{term}").contains("8w1")),
            _ => panic!(),
        }
    }

    #[test]
    fn merge_keeps_then_side_under_true_condition() {
        let (tm, env) = setup();
        let _ = env;
        let mut a = SymState::new(&tm);
        let mut b = SymState::new(&tm);
        a.declare("x", SymVal::Scalar(tm.bv_const(1, 8)));
        b.declare("x", SymVal::Scalar(tm.bv_const(2, 8)));
        let merged = SymState::merge(&tm, &tm.tru(), &a, &b);
        match merged.lookup("x").unwrap() {
            SymVal::Scalar(term) => assert!(format!("{term}").contains("8w1")),
            _ => panic!(),
        }
        let cond = tm.var("c", Sort::Bool);
        let merged = SymState::merge(&tm, &cond, &a, &b);
        match merged.lookup("x").unwrap() {
            SymVal::Scalar(term) => assert_eq!(format!("{term}"), "(ite c 8w1 8w2)"),
            _ => panic!(),
        }
    }
}
