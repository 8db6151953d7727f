//! Type environment: resolves named aggregate types to their field lists and
//! computes the static type of expressions given a variable scope.
//!
//! Both the type checker and the symbolic interpreter need to know, for any
//! l-value such as `hdr.eth.src[7:0]`, what its declared type is.  The
//! [`TypeEnv`] answers those queries from the program's declarations plus
//! the architecture's intrinsic structs.

use crate::arch::Architecture;
use crate::ast::{Declaration, Expr, Field, Program};
use crate::types::Type;
use std::collections::HashMap;

/// Whether a named aggregate is a header (has a validity bit) or a struct.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AggregateKind {
    Header,
    Struct,
}

/// A resolved aggregate type: its kind and fields.
#[derive(Debug, Clone)]
pub struct Aggregate {
    pub kind: AggregateKind,
    pub fields: Vec<Field>,
}

impl Aggregate {
    pub fn field(&self, name: &str) -> Option<&Field> {
        self.fields.iter().find(|f| f.name == name)
    }
}

/// Immutable view of the program's type declarations.
#[derive(Debug, Clone, Default)]
pub struct TypeEnv {
    aggregates: HashMap<String, Aggregate>,
    typedefs: HashMap<String, Type>,
}

impl TypeEnv {
    /// Builds an environment from a program and (optionally) the intrinsic
    /// structs of its architecture.
    pub fn from_program(program: &Program) -> TypeEnv {
        let mut env = TypeEnv::default();
        if let Some(arch) = Architecture::named(&program.architecture) {
            for st in &arch.intrinsic_structs {
                env.aggregates.insert(
                    st.name.clone(),
                    Aggregate {
                        kind: AggregateKind::Struct,
                        fields: st.fields.clone(),
                    },
                );
            }
        }
        for decl in &program.declarations {
            match decl {
                Declaration::Header(h) => {
                    env.aggregates.insert(
                        h.name.clone(),
                        Aggregate {
                            kind: AggregateKind::Header,
                            fields: h.fields.clone(),
                        },
                    );
                }
                Declaration::Struct(s) => {
                    env.aggregates.insert(
                        s.name.clone(),
                        Aggregate {
                            kind: AggregateKind::Struct,
                            fields: s.fields.clone(),
                        },
                    );
                }
                Declaration::Typedef(t) => {
                    env.typedefs.insert(t.name.clone(), t.ty.clone());
                }
                _ => {}
            }
        }
        env
    }

    /// Resolves `Named` and typedef'd types to their underlying type.
    pub fn resolve(&self, ty: &Type) -> Type {
        match ty {
            Type::Named(name) => {
                if let Some(inner) = self.typedefs.get(name) {
                    self.resolve(inner)
                } else if let Some(agg) = self.aggregates.get(name) {
                    match agg.kind {
                        AggregateKind::Header => Type::Header(name.clone()),
                        AggregateKind::Struct => Type::Struct(name.clone()),
                    }
                } else {
                    ty.clone()
                }
            }
            other => other.clone(),
        }
    }

    /// Looks up an aggregate declaration by name.
    pub fn aggregate(&self, name: &str) -> Option<&Aggregate> {
        self.aggregates.get(name)
    }

    /// Whether `name` names a header type.
    pub fn is_header(&self, name: &str) -> bool {
        matches!(self.aggregates.get(name), Some(a) if a.kind == AggregateKind::Header)
    }

    /// The type of field `field` of aggregate type `ty`, if any.
    pub fn field_type(&self, ty: &Type, field: &str) -> Option<Type> {
        let resolved = self.resolve(ty);
        let name = match &resolved {
            Type::Header(n) | Type::Struct(n) => n,
            _ => return None,
        };
        self.aggregates
            .get(name)
            .and_then(|agg| agg.field(field))
            .map(|f| self.resolve(&f.ty))
    }

    /// Iterates all declared aggregate names.
    pub fn aggregate_names(&self) -> impl Iterator<Item = &str> {
        self.aggregates.keys().map(String::as_str)
    }
}

/// A lexical scope mapping variable names to their declared types.  Scopes
/// are chained; lookups walk outwards.
#[derive(Debug, Clone, Default)]
pub struct Scope {
    frames: Vec<HashMap<String, Type>>,
}

impl Scope {
    pub fn new() -> Scope {
        Scope {
            frames: vec![HashMap::new()],
        }
    }

    pub fn push(&mut self) {
        self.frames.push(HashMap::new());
    }

    pub fn pop(&mut self) {
        self.frames.pop();
        if self.frames.is_empty() {
            self.frames.push(HashMap::new());
        }
    }

    pub fn declare(&mut self, name: impl Into<String>, ty: Type) {
        self.frames
            .last_mut()
            .expect("scope always has a frame")
            .insert(name.into(), ty);
    }

    pub fn lookup(&self, name: &str) -> Option<&Type> {
        self.frames.iter().rev().find_map(|f| f.get(name))
    }

    /// All visible bindings, innermost shadowing outermost.
    pub fn visible(&self) -> HashMap<String, Type> {
        let mut out = HashMap::new();
        for frame in &self.frames {
            for (k, v) in frame {
                out.insert(k.clone(), v.clone());
            }
        }
        out
    }
}

/// Computes the static type of an expression under `env` and `scope`.
/// Returns `None` for ill-typed or unresolvable expressions; full diagnosis
/// is the type checker's job, this is a best-effort query used by passes and
/// the generator.
pub fn type_of(env: &TypeEnv, scope: &Scope, expr: &Expr) -> Option<Type> {
    use crate::ast::{BinOp, UnOp};
    match expr {
        Expr::Bool(_) => Some(Type::Bool),
        Expr::Int {
            width: Some(w),
            signed,
            ..
        } => Some(Type::Bits {
            width: *w,
            signed: *signed,
        }),
        Expr::Int { width: None, .. } => None,
        Expr::Path(name) => scope.lookup(name).map(|t| env.resolve(t)),
        Expr::Member { base, member } => {
            let base_ty = type_of(env, scope, base)?;
            env.field_type(&base_ty, member)
        }
        Expr::Slice { hi, lo, .. } => {
            if hi >= lo {
                Some(Type::bits(hi - lo + 1))
            } else {
                None
            }
        }
        Expr::Unary { op, operand } => {
            let t = type_of(env, scope, operand)?;
            match op {
                UnOp::Not => Some(Type::Bool),
                UnOp::BitNot | UnOp::Neg => Some(t),
            }
        }
        Expr::Binary { op, left, right } => {
            if op.is_comparison() || op.is_logical() {
                Some(Type::Bool)
            } else if *op == BinOp::Concat {
                let lw = type_of(env, scope, left)?.width()?;
                let rw = type_of(env, scope, right)?.width()?;
                Some(Type::bits(lw + rw))
            } else {
                // Width of the left operand (shifts) or common width.
                type_of(env, scope, left).or_else(|| type_of(env, scope, right))
            }
        }
        Expr::Ternary {
            then_expr,
            else_expr,
            ..
        } => type_of(env, scope, then_expr).or_else(|| type_of(env, scope, else_expr)),
        Expr::Cast { ty, .. } => Some(env.resolve(ty)),
        Expr::Call(call) => match call.method() {
            "isValid" => Some(Type::Bool),
            _ => None,
        },
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ast::{Declaration, Field, HeaderDecl, Program, StructDecl};

    fn program() -> Program {
        let mut p = Program::new("v1model");
        p.declarations.push(Declaration::Header(HeaderDecl {
            name: "eth_t".into(),
            fields: vec![
                Field::new("dst", Type::bits(48)),
                Field::new("src", Type::bits(48)),
                Field::new("etype", Type::bits(16)),
            ],
        }));
        p.declarations.push(Declaration::Struct(StructDecl {
            name: "headers_t".into(),
            fields: vec![Field::new("eth", Type::Named("eth_t".into()))],
        }));
        p
    }

    #[test]
    fn env_resolves_fields_through_named_types() {
        let env = TypeEnv::from_program(&program());
        let hdr_ty = Type::Struct("headers_t".into());
        let eth = env.field_type(&hdr_ty, "eth").unwrap();
        assert_eq!(eth, Type::Header("eth_t".into()));
        assert_eq!(env.field_type(&eth, "etype"), Some(Type::bits(16)));
        assert!(env.is_header("eth_t"));
        assert!(!env.is_header("headers_t"));
    }

    #[test]
    fn env_includes_architecture_intrinsics() {
        let env = TypeEnv::from_program(&program());
        let std_meta = Type::Struct("standard_metadata_t".into());
        assert_eq!(
            env.field_type(&std_meta, "egress_spec"),
            Some(Type::bits(9))
        );
    }

    #[test]
    fn scope_shadowing() {
        let mut scope = Scope::new();
        scope.declare("x", Type::bits(8));
        scope.push();
        scope.declare("x", Type::bits(16));
        assert_eq!(scope.lookup("x"), Some(&Type::bits(16)));
        scope.pop();
        assert_eq!(scope.lookup("x"), Some(&Type::bits(8)));
        assert_eq!(scope.lookup("y"), None);
    }

    #[test]
    fn type_of_member_chain() {
        let env = TypeEnv::from_program(&program());
        let mut scope = Scope::new();
        scope.declare("hdr", Type::Struct("headers_t".into()));
        let e = Expr::dotted(&["hdr", "eth", "src"]);
        assert_eq!(type_of(&env, &scope, &e), Some(Type::bits(48)));
        let slice = Expr::slice(e, 7, 0);
        assert_eq!(type_of(&env, &scope, &slice), Some(Type::bits(8)));
    }

    #[test]
    fn type_of_operators() {
        let env = TypeEnv::default();
        let mut scope = Scope::new();
        scope.declare("a", Type::bits(8));
        scope.declare("b", Type::bits(8));
        use crate::ast::BinOp;
        let sum = Expr::binary(BinOp::Add, Expr::path("a"), Expr::path("b"));
        assert_eq!(type_of(&env, &scope, &sum), Some(Type::bits(8)));
        let cmp = Expr::binary(BinOp::Lt, Expr::path("a"), Expr::path("b"));
        assert_eq!(type_of(&env, &scope, &cmp), Some(Type::Bool));
        let cat = Expr::binary(BinOp::Concat, Expr::path("a"), Expr::path("b"));
        assert_eq!(type_of(&env, &scope, &cat), Some(Type::bits(16)));
    }
}
