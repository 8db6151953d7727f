//! Convenience builders for constructing complete, valid programs.
//!
//! Tests, examples, and the paper's Figure-5 reproduction programs all need
//! a complete program skeleton (headers, parser, deparser, package) into
//! which a hand-written or generated ingress control is dropped.  This
//! module provides that skeleton for both supported architectures.

use crate::arch::{Architecture, HEADERS_STRUCT, META_STRUCT};
use crate::ast::*;
use crate::types::{Param, Type};

/// The canonical Ethernet-like header used by skeleton programs.
pub fn ethernet_header() -> HeaderDecl {
    HeaderDecl {
        name: "ethernet_t".into(),
        fields: vec![
            Field::new("dst_addr", Type::bits(48)),
            Field::new("src_addr", Type::bits(48)),
            Field::new("eth_type", Type::bits(16)),
        ],
    }
}

/// The canonical small custom header (`h`) the paper's figures use:
/// `bit<8> a; bit<8> b; bit<8> c;`.
pub fn custom_header() -> HeaderDecl {
    HeaderDecl {
        name: "h_t".into(),
        fields: vec![
            Field::new("a", Type::bits(8)),
            Field::new("b", Type::bits(8)),
            Field::new("c", Type::bits(8)),
        ],
    }
}

/// The `headers_t` struct bundling the skeleton headers.
pub fn headers_struct() -> StructDecl {
    StructDecl {
        name: HEADERS_STRUCT.into(),
        fields: vec![
            Field::new("eth", Type::Named("ethernet_t".into())),
            Field::new("h", Type::Named("h_t".into())),
        ],
    }
}

/// The user metadata struct.
pub fn metadata_struct() -> StructDecl {
    StructDecl {
        name: META_STRUCT.into(),
        fields: vec![
            Field::new("tmp", Type::bits(16)),
            Field::new("flag", Type::bits(8)),
        ],
    }
}

/// A parser that extracts the Ethernet header and then the custom header
/// whenever `eth_type == 0x0800`, otherwise accepts immediately.
fn skeleton_parser(name: &str, params: Vec<Param>) -> ParserDecl {
    ParserDecl {
        name: name.into(),
        params,
        locals: vec![],
        states: vec![
            ParserState {
                name: "start".into(),
                statements: vec![Statement::call(
                    vec!["packet", "extract"],
                    vec![Expr::dotted(&["hdr", "eth"])],
                )],
                transition: Transition::Select {
                    selector: Expr::dotted(&["hdr", "eth", "eth_type"]),
                    cases: vec![
                        SelectCase {
                            value: Some(Expr::uint(0x0800, 16)),
                            next_state: "parse_h".into(),
                        },
                        SelectCase {
                            value: None,
                            next_state: "accept".into(),
                        },
                    ],
                },
            },
            ParserState {
                name: "parse_h".into(),
                statements: vec![Statement::call(
                    vec!["packet", "extract"],
                    vec![Expr::dotted(&["hdr", "h"])],
                )],
                transition: Transition::Direct("accept".into()),
            },
        ],
    }
}

/// A deparser that emits both skeleton headers.
fn skeleton_deparser(name: &str, params: Vec<Param>) -> ControlDecl {
    ControlDecl {
        name: name.into(),
        params,
        locals: vec![],
        apply: Block::new(vec![
            Statement::call(vec!["packet", "emit"], vec![Expr::dotted(&["hdr", "eth"])]),
            Statement::call(vec!["packet", "emit"], vec![Expr::dotted(&["hdr", "h"])]),
        ]),
    }
}

/// An empty control with the right signature for a slot.
fn empty_control(name: &str, params: Vec<Param>) -> ControlDecl {
    ControlDecl {
        name: name.into(),
        params,
        locals: vec![],
        apply: Block::empty(),
    }
}

/// Options controlling skeleton construction.
#[derive(Debug, Clone)]
pub struct SkeletonOptions {
    /// Architecture name (`"v1model"` or `"tna"`).
    pub architecture: String,
}

impl Default for SkeletonOptions {
    fn default() -> Self {
        SkeletonOptions {
            architecture: "v1model".into(),
        }
    }
}

/// Builds a complete program for the given architecture in which the main
/// match-action control (`ingress`) has the supplied locals and apply body.
/// All other programmable blocks are filled with standard skeleton code.
pub fn program_with_ingress(
    options: &SkeletonOptions,
    ingress_locals: Vec<Declaration>,
    ingress_apply: Block,
) -> Program {
    let arch = Architecture::by_name(&options.architecture)
        .unwrap_or_else(|| panic!("unknown architecture {}", options.architecture));
    let mut program = Program::new(arch.name.clone());
    program
        .declarations
        .push(Declaration::Header(ethernet_header()));
    program
        .declarations
        .push(Declaration::Header(custom_header()));
    program
        .declarations
        .push(Declaration::Struct(headers_struct()));
    program
        .declarations
        .push(Declaration::Struct(metadata_struct()));

    let mut bindings = Vec::new();
    for block in &arch.blocks {
        let decl_name = format!("{}_impl", block.slot);
        match block.kind {
            crate::arch::BlockKind::Parser => {
                program
                    .declarations
                    .push(Declaration::Parser(skeleton_parser(
                        &decl_name,
                        block.params.clone(),
                    )));
            }
            crate::arch::BlockKind::Deparser => {
                program
                    .declarations
                    .push(Declaration::Control(skeleton_deparser(
                        &decl_name,
                        block.params.clone(),
                    )));
            }
            crate::arch::BlockKind::Control => {
                // The first (primary) control slot receives the user body;
                // any additional control slots are left empty.
                let is_primary = block.slot == "ingress";
                let control = if is_primary {
                    ControlDecl {
                        name: decl_name.clone(),
                        params: block.params.clone(),
                        locals: ingress_locals.clone(),
                        apply: ingress_apply.clone(),
                    }
                } else {
                    empty_control(&decl_name, block.params.clone())
                };
                program.declarations.push(Declaration::Control(control));
            }
        }
        bindings.push((block.slot.clone(), decl_name));
    }
    program.package = PackageInstance {
        package: arch.package_name.clone(),
        bindings,
    };
    program
}

/// Shorthand for a v1model program with a custom ingress.
pub fn v1model_program(ingress_locals: Vec<Declaration>, ingress_apply: Block) -> Program {
    program_with_ingress(&SkeletonOptions::default(), ingress_locals, ingress_apply)
}

/// Shorthand for a tna program with a custom ingress.
pub fn tna_program(ingress_locals: Vec<Declaration>, ingress_apply: Block) -> Program {
    program_with_ingress(
        &SkeletonOptions {
            architecture: "tna".into(),
        },
        ingress_locals,
        ingress_apply,
    )
}

/// A trivial, always-valid program used as a smoke-test fixture: ingress
/// assigns a constant to a header field.
pub fn trivial_program() -> Program {
    v1model_program(
        vec![],
        Block::new(vec![Statement::assign(
            Expr::dotted(&["hdr", "h", "a"]),
            Expr::uint(1, 8),
        )]),
    )
}

/// Builds a `NoAction`-style empty action declaration.
pub fn no_action() -> ActionDecl {
    ActionDecl {
        name: "NoAction".into(),
        params: vec![],
        body: Block::empty(),
    }
}

/// Builds a single-key, two-action table over `hdr.h.a` mirroring the
/// paper's Figure 3 example.
pub fn figure3_table_control() -> (Vec<Declaration>, Block) {
    let assign = ActionDecl {
        name: "assign".into(),
        params: vec![],
        body: Block::new(vec![Statement::assign(
            Expr::dotted(&["hdr", "h", "a"]),
            Expr::uint(1, 8),
        )]),
    };
    let table = TableDecl {
        name: "t".into(),
        keys: vec![KeyElement {
            expr: Expr::dotted(&["hdr", "h", "a"]),
            match_kind: crate::types::MatchKind::Exact,
        }],
        actions: vec![ActionRef::new("assign"), ActionRef::new("NoAction")],
        default_action: ActionRef::new("NoAction"),
    };
    let locals = vec![
        Declaration::Action(no_action()),
        Declaration::Action(assign),
        Declaration::Table(table),
    ];
    let apply = Block::new(vec![Statement::call(vec!["t", "apply"], vec![])]);
    (locals, apply)
}

/// Returns an l-value expression for the given dotted path, e.g.
/// `lval(&["hdr", "h", "a"])`.
pub fn lval(parts: &[&str]) -> Expr {
    Expr::dotted(parts)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::env::TypeEnv;
    use crate::printer::print_program;

    #[test]
    fn skeleton_has_all_v1model_blocks_bound() {
        let program = trivial_program();
        assert_eq!(program.package.bindings.len(), 4);
        assert!(program.control("ingress_impl").is_some());
        assert!(program.parser("parser_impl").is_some());
        assert!(program.control("deparser_impl").is_some());
        assert_eq!(program.package.binding("ingress"), Some("ingress_impl"));
    }

    #[test]
    fn skeleton_prints_and_contains_package() {
        let text = print_program(&trivial_program());
        assert!(text.contains("V1Switch("));
        assert!(text.contains("control ingress_impl("));
        assert!(text.contains("hdr.h.a = 8w1;"));
    }

    #[test]
    fn tna_skeleton_uses_tna_package() {
        let program = tna_program(vec![], Block::empty());
        assert_eq!(program.architecture, "tna");
        assert_eq!(program.package.package, "Pipeline");
        assert_eq!(program.package.bindings.len(), 3);
    }

    #[test]
    fn figure3_control_typechecks_structurally() {
        let (locals, apply) = figure3_table_control();
        let program = v1model_program(locals, apply);
        let env = TypeEnv::from_program(&program);
        assert!(env.is_header("h_t"));
        let ingress = program.control("ingress_impl").unwrap();
        assert_eq!(ingress.locals.len(), 3);
        assert_eq!(ingress.apply.statements.len(), 1);
    }

    #[test]
    fn header_widths() {
        assert_eq!(ethernet_header().bit_width(), 112);
        assert_eq!(custom_header().bit_width(), 24);
    }
}
