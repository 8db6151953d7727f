//! Target architecture models.
//!
//! A P4 program is compiled against a *package* that lists the programmable
//! blocks of a target (paper §3, Figure 1).  This module describes the two
//! architectures the paper's back ends expose:
//!
//! * [`Architecture::v1model`] — the BMv2 "simple switch" package with
//!   parser, ingress, egress, and deparser blocks, plus the
//!   `standard_metadata_t` intrinsic struct.
//! * [`Architecture::tna`] — a reduced model of the Tofino Native
//!   Architecture with per-pipe ingress parser / ingress / deparser blocks
//!   and target restrictions that the back end enforces (no multiplications,
//!   bounded operand widths), standing in for the closed-source compiler's
//!   constraints.

use crate::ast::{Field, StructDecl};
use crate::types::{Direction, Param, Type};
use serde::{Deserialize, Serialize};
use std::sync::OnceLock;

/// The role a programmable block plays, which determines how the symbolic
/// interpreter and the targets treat it.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum BlockKind {
    /// A parser state machine: bytes in, parsed headers out.
    Parser,
    /// A match-action control block.
    Control,
    /// A deparser control block: headers in, bytes out.
    Deparser,
}

/// One programmable slot of a package.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct BlockSpec {
    /// Slot name used in the package instantiation, e.g. `"ingress"`.
    pub slot: String,
    pub kind: BlockKind,
    /// The parameter signature a user declaration must match for this slot.
    pub params: Vec<Param>,
}

/// Restrictions a back end places on programs (used by the random program
/// generator to stay within the target's supported subset, and by the
/// "proprietary" Tofino-like back end to reject programs).
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct TargetRestrictions {
    /// Maximum bit width of any arithmetic operand.
    pub max_operand_width: u32,
    /// Whether `*` is supported in the data plane.
    pub allows_multiplication: bool,
    /// Whether variable (non-constant) shift amounts are supported.
    pub allows_variable_shift: bool,
    /// Maximum number of table applications per control.
    pub max_tables_per_control: usize,
}

impl Default for TargetRestrictions {
    fn default() -> Self {
        TargetRestrictions {
            max_operand_width: 128,
            allows_multiplication: true,
            allows_variable_shift: true,
            max_tables_per_control: 64,
        }
    }
}

/// A target architecture: its package name, programmable block slots,
/// intrinsic metadata struct, and restrictions.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct Architecture {
    /// Architecture identifier: `"v1model"` or `"tna"`.
    pub name: String,
    /// Package type name used in the `main` instantiation.
    pub package_name: String,
    pub blocks: Vec<BlockSpec>,
    /// Intrinsic structs the architecture injects into every program
    /// (e.g. `standard_metadata_t`).
    pub intrinsic_structs: Vec<StructDecl>,
    pub restrictions: TargetRestrictions,
}

/// Name of the user headers struct every generated program uses.
pub const HEADERS_STRUCT: &str = "headers_t";
/// Name of the user metadata struct every generated program uses.
pub const META_STRUCT: &str = "metadata_t";
/// Name of the v1model intrinsic metadata struct.
pub const STD_META_STRUCT: &str = "standard_metadata_t";
/// Name of the tna intrinsic metadata struct.
pub const TNA_META_STRUCT: &str = "ingress_intrinsic_metadata_t";

impl Architecture {
    /// The BMv2 / v1model architecture (paper §3: "simple switch").
    pub fn v1model() -> Architecture {
        let std_meta = StructDecl {
            name: STD_META_STRUCT.into(),
            fields: vec![
                Field::new("ingress_port", Type::bits(9)),
                Field::new("egress_spec", Type::bits(9)),
                Field::new("egress_port", Type::bits(9)),
                Field::new("instance_type", Type::bits(32)),
                Field::new("packet_length", Type::bits(32)),
                Field::new("enq_timestamp", Type::bits(32)),
                Field::new("deq_qdepth", Type::bits(19)),
            ],
        };
        let hdr = |dir| Param::new(dir, "hdr", Type::Named(HEADERS_STRUCT.into()));
        let meta = |dir| Param::new(dir, "meta", Type::Named(META_STRUCT.into()));
        let std = |dir| {
            Param::new(
                dir,
                "standard_metadata",
                Type::Named(STD_META_STRUCT.into()),
            )
        };
        Architecture {
            name: "v1model".into(),
            package_name: "V1Switch".into(),
            blocks: vec![
                BlockSpec {
                    slot: "parser".into(),
                    kind: BlockKind::Parser,
                    params: vec![
                        Param::new(Direction::None, "packet", Type::Packet),
                        hdr(Direction::Out),
                        meta(Direction::InOut),
                        std(Direction::InOut),
                    ],
                },
                BlockSpec {
                    slot: "ingress".into(),
                    kind: BlockKind::Control,
                    params: vec![
                        hdr(Direction::InOut),
                        meta(Direction::InOut),
                        std(Direction::InOut),
                    ],
                },
                BlockSpec {
                    slot: "egress".into(),
                    kind: BlockKind::Control,
                    params: vec![
                        hdr(Direction::InOut),
                        meta(Direction::InOut),
                        std(Direction::InOut),
                    ],
                },
                BlockSpec {
                    slot: "deparser".into(),
                    kind: BlockKind::Deparser,
                    params: vec![
                        Param::new(Direction::None, "packet", Type::Packet),
                        hdr(Direction::In),
                    ],
                },
            ],
            intrinsic_structs: vec![std_meta],
            restrictions: TargetRestrictions::default(),
        }
    }

    /// A reduced Tofino Native Architecture model: one ingress pipe with a
    /// hardware-flavoured restriction set.
    pub fn tna() -> Architecture {
        let ig_meta = StructDecl {
            name: TNA_META_STRUCT.into(),
            fields: vec![
                Field::new("ingress_port", Type::bits(9)),
                Field::new("ucast_egress_port", Type::bits(9)),
                Field::new("drop_ctl", Type::bits(3)),
                Field::new("ingress_mac_tstamp", Type::bits(48)),
            ],
        };
        let hdr = |dir| Param::new(dir, "hdr", Type::Named(HEADERS_STRUCT.into()));
        let meta = |dir| Param::new(dir, "meta", Type::Named(META_STRUCT.into()));
        let ig = |dir| Param::new(dir, "ig_intr_md", Type::Named(TNA_META_STRUCT.into()));
        Architecture {
            name: "tna".into(),
            package_name: "Pipeline".into(),
            blocks: vec![
                BlockSpec {
                    slot: "ingress_parser".into(),
                    kind: BlockKind::Parser,
                    params: vec![
                        Param::new(Direction::None, "packet", Type::Packet),
                        hdr(Direction::Out),
                        meta(Direction::InOut),
                        ig(Direction::InOut),
                    ],
                },
                BlockSpec {
                    slot: "ingress".into(),
                    kind: BlockKind::Control,
                    params: vec![
                        hdr(Direction::InOut),
                        meta(Direction::InOut),
                        ig(Direction::InOut),
                    ],
                },
                BlockSpec {
                    slot: "ingress_deparser".into(),
                    kind: BlockKind::Deparser,
                    params: vec![
                        Param::new(Direction::None, "packet", Type::Packet),
                        hdr(Direction::In),
                    ],
                },
            ],
            intrinsic_structs: vec![ig_meta],
            restrictions: TargetRestrictions {
                max_operand_width: 32,
                allows_multiplication: false,
                allows_variable_shift: false,
                max_tables_per_control: 16,
            },
        }
    }

    /// Look up an architecture by name.
    pub fn by_name(name: &str) -> Option<Architecture> {
        Architecture::named(name).cloned()
    }

    /// The shared instance of the architecture called `name`, built once
    /// per process, for hot paths that only read it.
    pub fn named(name: &str) -> Option<&'static Architecture> {
        static KNOWN: OnceLock<[Architecture; 2]> = OnceLock::new();
        KNOWN
            .get_or_init(|| [Architecture::v1model(), Architecture::tna()])
            .iter()
            .find(|architecture| architecture.name == name)
    }

    /// The block spec for a slot name.
    pub fn block(&self, slot: &str) -> Option<&BlockSpec> {
        self.blocks.iter().find(|b| b.slot == slot)
    }

    /// Slots holding match-action controls (the blocks translation
    /// validation and symbolic execution analyse).
    pub fn control_slots(&self) -> impl Iterator<Item = &BlockSpec> {
        self.blocks.iter().filter(|b| b.kind == BlockKind::Control)
    }

    /// The parser slot, if the architecture has one.
    pub fn parser_slot(&self) -> Option<&BlockSpec> {
        self.blocks.iter().find(|b| b.kind == BlockKind::Parser)
    }

    /// The deparser slot, if the architecture has one.
    pub fn deparser_slot(&self) -> Option<&BlockSpec> {
        self.blocks.iter().find(|b| b.kind == BlockKind::Deparser)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn v1model_has_four_blocks() {
        let arch = Architecture::v1model();
        assert_eq!(arch.blocks.len(), 4);
        assert!(arch.block("ingress").is_some());
        assert!(arch.block("egress").is_some());
        assert_eq!(arch.control_slots().count(), 2);
        assert_eq!(arch.parser_slot().unwrap().slot, "parser");
        assert_eq!(arch.deparser_slot().unwrap().slot, "deparser");
    }

    #[test]
    fn tna_is_more_restricted() {
        let tna = Architecture::tna();
        let v1 = Architecture::v1model();
        assert!(tna.restrictions.max_operand_width < v1.restrictions.max_operand_width);
        assert!(!tna.restrictions.allows_multiplication);
        assert!(v1.restrictions.allows_multiplication);
    }

    #[test]
    fn by_name_roundtrip() {
        assert_eq!(Architecture::by_name("v1model").unwrap().name, "v1model");
        assert_eq!(Architecture::by_name("tna").unwrap().name, "tna");
        assert!(Architecture::by_name("psa").is_none());
    }

    #[test]
    fn ingress_signature_uses_copy_in_copy_out() {
        let arch = Architecture::v1model();
        let ingress = arch.block("ingress").unwrap();
        assert!(ingress
            .params
            .iter()
            .all(|p| p.direction == Direction::InOut));
    }
}
