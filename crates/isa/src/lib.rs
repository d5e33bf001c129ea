//! # certa-isa
//!
//! The instruction set architecture shared by every crate in the `certa`
//! workspace: a small MIPS-like, three-address RISC with 32 integer and 32
//! floating-point registers, byte-addressed little-endian data memory, and a
//! Harvard-style instruction store (the program counter indexes instructions,
//! not bytes).
//!
//! The ISA is designed to support the IISWC 2006 study *"Characterization of
//! Error-Tolerant Applications when Protecting Control Data"*: every
//! instruction exposes its **definition** (the register it writes) and its
//! **uses** classified as *data*, *address*, or *control* operands, which is
//! exactly the information the paper's backward CVar dataflow analysis
//! consumes.
//!
//! ## Example
//!
//! ```
//! use certa_isa::{Instr, AluOp, reg};
//!
//! let add = Instr::Alu { op: AluOp::Add, rd: reg::T0, rs: reg::T1, rt: reg::T2 };
//! assert_eq!(add.def(), Some(certa_isa::RegRef::Int(reg::T0)));
//! assert_eq!(add.to_string(), "add $t0, $t1, $t2");
//! ```

mod instr;
mod program;
mod register;

pub use instr::{AluOp, BranchKind, CmpOp, FCmpOp, FpuOp, Instr, MemWidth, RegRef, UseKind};
pub use program::{FuncMeta, Program, ProgramError};
pub use register::{reg, FReg, Reg, RegParseError};

/// Number of integer registers in the architecture.
pub const NUM_INT_REGS: usize = 32;
/// Number of floating-point registers in the architecture.
pub const NUM_FLOAT_REGS: usize = 32;

/// 64-bit FNV-1a of `bytes`: the workspace's one content hash. It keys
/// program code fingerprints, campaign session fingerprints, wire frame
/// and journal record checksums, `Hello` tokens and chaos seeds.
#[must_use]
pub fn fnv1a(bytes: &[u8]) -> u64 {
    fnv1a_with(0xcbf2_9ce4_8422_2325, bytes)
}

/// Continues a 64-bit FNV-1a chain from `hash` over `bytes`, so a hash of
/// several fields needs no buffer: `fnv1a_with(fnv1a(a), b)` is the
/// [`fnv1a`] of `a` followed by `b`.
#[must_use]
pub fn fnv1a_with(hash: u64, bytes: &[u8]) -> u64 {
    bytes.iter().fold(hash, |h, &b| {
        (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3)
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fnv1a_matches_the_published_vectors() {
        assert_eq!(fnv1a(b""), 0xcbf2_9ce4_8422_2325);
        assert_eq!(fnv1a(b"a"), 0xaf63_dc4c_8601_ec8c);
        assert_eq!(fnv1a(b"foobar"), 0x8594_4171_f739_67e8);
        assert_eq!(fnv1a_with(fnv1a(b"foo"), b"bar"), fnv1a(b"foobar"));
    }
}
