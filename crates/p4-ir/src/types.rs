//! Type representation for the P4-16 subset used throughout the workspace.
//!
//! P4-16 is a statically typed language whose value types are finite bit
//! vectors, booleans, and nested header/struct aggregates.  This module
//! models exactly that finite fragment: there are no pointers, references,
//! or unbounded types, which is the property Gauntlet's translation
//! validation relies on (the paper, §1 and §2.2).

use serde::{Deserialize, Serialize};
use std::fmt;

/// A P4 type.
///
/// Named aggregate types (`Header`/`Struct`) refer to declarations by name;
/// the [`crate::Program`] owns the declarations and
/// [`crate::TypeEnv`] resolves names to field lists.
#[derive(Debug, Clone, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum Type {
    /// `bool`
    Bool,
    /// `bit<N>` (unsigned) or `int<N>` (signed two's complement).
    Bits { width: u32, signed: bool },
    /// A header type: fields plus an implicit validity bit.
    Header(String),
    /// A plain struct aggregate.
    Struct(String),
    /// The return type of procedures that return nothing.
    Void,
    /// The type of `packet_in` / `packet_out` extern instances.
    Packet,
    /// An unresolved named type (e.g. a `typedef`), resolved by the checker.
    Named(String),
}

impl Type {
    /// Shorthand for the ubiquitous `bit<N>` type.
    pub fn bits(width: u32) -> Type {
        Type::Bits {
            width,
            signed: false,
        }
    }

    /// Shorthand for `int<N>`.
    pub fn signed(width: u32) -> Type {
        Type::Bits {
            width,
            signed: true,
        }
    }

    /// Returns the bit width for scalar types, `None` for aggregates/void.
    pub fn width(&self) -> Option<u32> {
        match self {
            Type::Bool => Some(1),
            Type::Bits { width, .. } => Some(*width),
            _ => None,
        }
    }

    /// True for `bit<N>`/`int<N>`.
    pub fn is_bits(&self) -> bool {
        matches!(self, Type::Bits { .. })
    }

    /// True for header or struct aggregates.
    pub fn is_aggregate(&self) -> bool {
        matches!(self, Type::Header(_) | Type::Struct(_))
    }
}

impl fmt::Display for Type {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Type::Bool => write!(f, "bool"),
            Type::Bits {
                width,
                signed: false,
            } => write!(f, "bit<{width}>"),
            Type::Bits {
                width,
                signed: true,
            } => write!(f, "int<{width}>"),
            Type::Header(name) | Type::Struct(name) | Type::Named(name) => write!(f, "{name}"),
            Type::Void => write!(f, "void"),
            Type::Packet => write!(f, "packet"),
        }
    }
}

/// Parameter directions ("modes") of the P4-16 calling convention
/// (spec §6.7, paper §3 "Calling conventions").
///
/// Copy-in/copy-out semantics are central to a large fraction of the
/// semantic bugs the paper reports, so the direction is tracked explicitly
/// on every parameter.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum Direction {
    /// No direction: compile-time constant arguments (e.g. action data set
    /// by the control plane).
    None,
    /// Read-only; copied in.
    In,
    /// Write-only; uninitialized at procedure entry, copied back at exit.
    Out,
    /// Read-write; copied in and copied back at exit.
    InOut,
}

impl Direction {
    /// Whether the callee observes the caller's value at entry.
    pub fn copies_in(self) -> bool {
        matches!(self, Direction::In | Direction::InOut | Direction::None)
    }

    /// Whether the callee's final value is copied back to the caller.
    pub fn copies_out(self) -> bool {
        matches!(self, Direction::Out | Direction::InOut)
    }

    /// Whether arguments bound to this parameter must be writable l-values.
    pub fn requires_lvalue(self) -> bool {
        self.copies_out()
    }
}

impl fmt::Display for Direction {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Direction::None => Ok(()),
            Direction::In => write!(f, "in"),
            Direction::Out => write!(f, "out"),
            Direction::InOut => write!(f, "inout"),
        }
    }
}

/// A single named, typed, directed parameter of a callable object or a
/// programmable block.
#[derive(Debug, Clone, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub struct Param {
    pub direction: Direction,
    pub name: String,
    pub ty: Type,
}

impl Param {
    pub fn new(direction: Direction, name: impl Into<String>, ty: Type) -> Param {
        Param {
            direction,
            name: name.into(),
            ty,
        }
    }
}

impl fmt::Display for Param {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.direction == Direction::None {
            write!(f, "{} {}", self.ty, self.name)
        } else {
            write!(f, "{} {} {}", self.direction, self.ty, self.name)
        }
    }
}

/// Match kinds supported on table keys.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum MatchKind {
    Exact,
    Ternary,
    Lpm,
}

impl fmt::Display for MatchKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            MatchKind::Exact => write!(f, "exact"),
            MatchKind::Ternary => write!(f, "ternary"),
            MatchKind::Lpm => write!(f, "lpm"),
        }
    }
}

/// Computes the maximum value representable by an unsigned bit vector of
/// `width` bits, saturating at 128 bits (the widest literal we support).
pub fn max_unsigned(width: u32) -> u128 {
    if width >= 128 {
        u128::MAX
    } else {
        (1u128 << width) - 1
    }
}

/// Truncates `value` to `width` bits (two's complement wraparound), which is
/// the semantics of all P4 arithmetic on `bit<N>`.
pub fn truncate(value: u128, width: u32) -> u128 {
    value & max_unsigned(width)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_types() {
        assert_eq!(Type::bits(8).to_string(), "bit<8>");
        assert_eq!(Type::signed(16).to_string(), "int<16>");
        assert_eq!(Type::Bool.to_string(), "bool");
        assert_eq!(Type::Header("h_t".into()).to_string(), "h_t");
    }

    #[test]
    fn widths() {
        assert_eq!(Type::bits(9).width(), Some(9));
        assert_eq!(Type::Bool.width(), Some(1));
        assert_eq!(Type::Struct("s".into()).width(), None);
    }

    #[test]
    fn direction_properties() {
        assert!(Direction::In.copies_in());
        assert!(!Direction::In.copies_out());
        assert!(Direction::Out.copies_out());
        assert!(!Direction::Out.copies_in());
        assert!(Direction::InOut.copies_in() && Direction::InOut.copies_out());
        assert!(Direction::InOut.requires_lvalue());
        assert!(!Direction::None.requires_lvalue());
    }

    #[test]
    fn truncation() {
        assert_eq!(truncate(256, 8), 0);
        assert_eq!(truncate(257, 8), 1);
        assert_eq!(truncate(u128::MAX, 4), 0xf);
        assert_eq!(max_unsigned(1), 1);
        assert_eq!(max_unsigned(128), u128::MAX);
    }

    #[test]
    fn param_display() {
        let p = Param::new(Direction::InOut, "hdr", Type::Struct("headers_t".into()));
        assert_eq!(p.to_string(), "inout headers_t hdr");
        let c = Param::new(Direction::None, "port", Type::bits(9));
        assert_eq!(c.to_string(), "bit<9> port");
    }
}
