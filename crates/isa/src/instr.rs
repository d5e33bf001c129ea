//! The instruction set, with def/use metadata for dataflow analysis.
//!
//! Every instruction knows which register it *defines* ([`Instr::def`]) and
//! which registers it *uses*, with each use classified as a [`UseKind`]:
//! ordinary data, an address operand of a memory access, or a control operand
//! (branch comparison input or indirect-jump target). The classification is
//! what the paper's static analysis consumes: control and address uses seed
//! the `CVar` set of control-influencing variables.

use std::fmt;

use crate::register::{FReg, Reg};

/// Integer ALU operation.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum AluOp {
    /// Wrapping addition.
    Add,
    /// Wrapping subtraction.
    Sub,
    /// Wrapping multiplication (low 32 bits).
    Mul,
    /// Signed division. Division by zero yields 0 (does not trap), matching
    /// the behaviour of MIPS `div` followed by `mflo` on common cores.
    Div,
    /// Signed remainder. Remainder by zero yields 0.
    Rem,
    /// Unsigned division. Division by zero yields 0.
    Divu,
    /// Unsigned remainder. Remainder by zero yields 0.
    Remu,
    /// Bitwise AND.
    And,
    /// Bitwise OR.
    Or,
    /// Bitwise XOR.
    Xor,
    /// Bitwise NOR.
    Nor,
    /// Logical shift left (shift amount taken modulo 32).
    Sll,
    /// Logical shift right (shift amount taken modulo 32).
    Srl,
    /// Arithmetic shift right (shift amount taken modulo 32).
    Sra,
    /// Set-if-less-than, signed: `rd = (rs < rt) as u32`.
    Slt,
    /// Set-if-less-than, unsigned.
    Sltu,
}

impl AluOp {
    /// The assembly mnemonic for the register-register form.
    #[must_use]
    pub const fn mnemonic(self) -> &'static str {
        match self {
            AluOp::Add => "add",
            AluOp::Sub => "sub",
            AluOp::Mul => "mul",
            AluOp::Div => "div",
            AluOp::Rem => "rem",
            AluOp::Divu => "divu",
            AluOp::Remu => "remu",
            AluOp::And => "and",
            AluOp::Or => "or",
            AluOp::Xor => "xor",
            AluOp::Nor => "nor",
            AluOp::Sll => "sll",
            AluOp::Srl => "srl",
            AluOp::Sra => "sra",
            AluOp::Slt => "slt",
            AluOp::Sltu => "sltu",
        }
    }

    /// All ALU operations, for exhaustive testing.
    pub const ALL: [AluOp; 16] = [
        AluOp::Add,
        AluOp::Sub,
        AluOp::Mul,
        AluOp::Div,
        AluOp::Rem,
        AluOp::Divu,
        AluOp::Remu,
        AluOp::And,
        AluOp::Or,
        AluOp::Xor,
        AluOp::Nor,
        AluOp::Sll,
        AluOp::Srl,
        AluOp::Sra,
        AluOp::Slt,
        AluOp::Sltu,
    ];
}

/// Branch comparison condition.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum CmpOp {
    /// Branch if equal.
    Eq,
    /// Branch if not equal.
    Ne,
    /// Branch if less than (signed).
    Lt,
    /// Branch if greater or equal (signed).
    Ge,
    /// Branch if less than (unsigned).
    Ltu,
    /// Branch if greater or equal (unsigned).
    Geu,
}

impl CmpOp {
    /// The branch mnemonic (e.g. `beq`).
    #[must_use]
    pub const fn mnemonic(self) -> &'static str {
        match self {
            CmpOp::Eq => "beq",
            CmpOp::Ne => "bne",
            CmpOp::Lt => "blt",
            CmpOp::Ge => "bge",
            CmpOp::Ltu => "bltu",
            CmpOp::Geu => "bgeu",
        }
    }

    /// Evaluates the condition on two register values.
    #[must_use]
    pub fn eval(self, a: u32, b: u32) -> bool {
        match self {
            CmpOp::Eq => a == b,
            CmpOp::Ne => a != b,
            CmpOp::Lt => (a as i32) < (b as i32),
            CmpOp::Ge => (a as i32) >= (b as i32),
            CmpOp::Ltu => a < b,
            CmpOp::Geu => a >= b,
        }
    }

    /// The negated condition (`beq` ↔ `bne`, `blt` ↔ `bge`, ...).
    #[must_use]
    pub const fn negate(self) -> Self {
        match self {
            CmpOp::Eq => CmpOp::Ne,
            CmpOp::Ne => CmpOp::Eq,
            CmpOp::Lt => CmpOp::Ge,
            CmpOp::Ge => CmpOp::Lt,
            CmpOp::Ltu => CmpOp::Geu,
            CmpOp::Geu => CmpOp::Ltu,
        }
    }
}

/// Width of a memory access.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum MemWidth {
    /// 8-bit access.
    Byte,
    /// 16-bit access (must be 2-byte aligned).
    Half,
    /// 32-bit access (must be 4-byte aligned).
    Word,
}

impl MemWidth {
    /// Access size in bytes.
    #[must_use]
    pub const fn bytes(self) -> u32 {
        match self {
            MemWidth::Byte => 1,
            MemWidth::Half => 2,
            MemWidth::Word => 4,
        }
    }
}

/// Floating-point arithmetic operation (double precision).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum FpuOp {
    /// Addition.
    Add,
    /// Subtraction.
    Sub,
    /// Multiplication.
    Mul,
    /// Division.
    Div,
    /// Minimum (propagates the non-NaN operand).
    Min,
    /// Maximum (propagates the non-NaN operand).
    Max,
}

impl FpuOp {
    /// The assembly mnemonic (e.g. `add.d`).
    #[must_use]
    pub const fn mnemonic(self) -> &'static str {
        match self {
            FpuOp::Add => "add.d",
            FpuOp::Sub => "sub.d",
            FpuOp::Mul => "mul.d",
            FpuOp::Div => "div.d",
            FpuOp::Min => "min.d",
            FpuOp::Max => "max.d",
        }
    }
}

/// Floating-point comparison writing a 0/1 integer result.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum FCmpOp {
    /// Equal.
    Eq,
    /// Less than.
    Lt,
    /// Less than or equal.
    Le,
}

impl FCmpOp {
    /// The assembly mnemonic (e.g. `c.lt.d`).
    #[must_use]
    pub const fn mnemonic(self) -> &'static str {
        match self {
            FCmpOp::Eq => "c.eq.d",
            FCmpOp::Lt => "c.lt.d",
            FCmpOp::Le => "c.le.d",
        }
    }

    /// Evaluates the comparison. NaN operands compare false.
    #[must_use]
    pub fn eval(self, a: f64, b: f64) -> bool {
        match self {
            FCmpOp::Eq => a == b,
            FCmpOp::Lt => a < b,
            FCmpOp::Le => a <= b,
        }
    }
}

/// A reference to either an integer or a floating-point register, used by
/// the def/use interface so dataflow analyses can treat both files uniformly.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum RegRef {
    /// Integer register.
    Int(Reg),
    /// Floating-point register.
    Float(FReg),
}

impl RegRef {
    /// A dense index over both register files (ints 0–31, floats 32–63),
    /// convenient for bitset-based dataflow.
    #[must_use]
    pub fn dense_index(self) -> usize {
        match self {
            RegRef::Int(r) => r.index(),
            RegRef::Float(f) => 32 + f.index(),
        }
    }

    /// Inverse of [`RegRef::dense_index`].
    ///
    /// # Panics
    ///
    /// Panics if `idx >= 64`.
    #[must_use]
    pub fn from_dense_index(idx: usize) -> Self {
        assert!(idx < 64, "dense register index out of range");
        if idx < 32 {
            RegRef::Int(Reg::new(idx as u8))
        } else {
            RegRef::Float(FReg::new((idx - 32) as u8))
        }
    }
}

impl fmt::Display for RegRef {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            RegRef::Int(r) => r.fmt(f),
            RegRef::Float(r) => r.fmt(f),
        }
    }
}

/// How an instruction uses a register operand.
///
/// The paper's analysis cares about the distinction: *control* uses (branch
/// inputs, indirect-jump targets) and *address* uses (base registers of loads
/// and stores) seed the set of control-influencing variables, while pure
/// *data* uses do not.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum UseKind {
    /// Ordinary data operand.
    Data,
    /// Address operand of a memory access.
    Address,
    /// Control operand: branch comparison input or indirect-jump target.
    Control,
}

/// Control-flow classification of an instruction, used by CFG construction
/// and the simulator's superblock builder to follow straight-line runs
/// without re-matching the full [`Instr`] enum.
///
/// Obtained from [`Instr::branch_kind`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum BranchKind {
    /// Straight-line: execution always continues at the next instruction
    /// (the instruction may still *crash* — loads and stores are here).
    FallThrough,
    /// Conditional branch: continues at `target` when taken, at the next
    /// instruction otherwise.
    Conditional {
        /// Taken-path instruction index.
        target: usize,
    },
    /// Unconditional jump to a static target.
    Jump {
        /// Target instruction index.
        target: usize,
    },
    /// Call: jumps to `target` and defines `$ra`.
    Call {
        /// Callee entry instruction index.
        target: usize,
    },
    /// Indirect jump through a register (returns); no static target.
    Indirect,
    /// Stops execution.
    Halt,
}

impl BranchKind {
    /// Whether this kind ever continues at the next instruction index
    /// (mirrors [`Instr::can_fall_through`]).
    #[must_use]
    pub const fn can_fall_through(self) -> bool {
        matches!(
            self,
            BranchKind::FallThrough | BranchKind::Conditional { .. }
        )
    }
}

/// A single instruction.
///
/// Branch and jump targets are *instruction indices* into the program's code
/// array (the assembler resolves labels to indices). There is no binary
/// encoding: the simulator executes this enum directly, which is all a
/// functional fault-injection study requires.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Instr {
    /// Register-register ALU operation: `rd = rs op rt`.
    Alu {
        /// Operation.
        op: AluOp,
        /// Destination.
        rd: Reg,
        /// First source.
        rs: Reg,
        /// Second source.
        rt: Reg,
    },
    /// Register-immediate ALU operation: `rd = rs op imm`.
    AluImm {
        /// Operation.
        op: AluOp,
        /// Destination.
        rd: Reg,
        /// Source.
        rs: Reg,
        /// Immediate operand.
        imm: i32,
    },
    /// Load immediate: `rd = imm` (pseudo-instruction covering `lui`+`ori`).
    Li {
        /// Destination.
        rd: Reg,
        /// Immediate value.
        imm: i32,
    },
    /// Memory load: `rd = mem[base + off]`.
    Load {
        /// Access width.
        width: MemWidth,
        /// Whether sub-word loads sign-extend.
        signed: bool,
        /// Destination.
        rd: Reg,
        /// Base address register (an *address* use).
        base: Reg,
        /// Byte offset.
        off: i32,
    },
    /// Memory store: `mem[base + off] = rs`.
    Store {
        /// Access width.
        width: MemWidth,
        /// Value to store (a *data* use).
        rs: Reg,
        /// Base address register (an *address* use).
        base: Reg,
        /// Byte offset.
        off: i32,
    },
    /// Conditional branch: `if rs cond rt goto target`.
    Branch {
        /// Condition.
        cond: CmpOp,
        /// First comparison operand (a *control* use).
        rs: Reg,
        /// Second comparison operand (a *control* use).
        rt: Reg,
        /// Target instruction index.
        target: usize,
    },
    /// Unconditional jump.
    Jump {
        /// Target instruction index.
        target: usize,
    },
    /// Call: jumps to `target` and writes the return address (the index of
    /// the following instruction) to `$ra`.
    Call {
        /// Target instruction index (function entry).
        target: usize,
    },
    /// Indirect jump: `goto rs` (used for returns; the register value is an
    /// instruction index).
    JumpReg {
        /// Target register (a *control* use).
        rs: Reg,
    },
    /// Floating-point arithmetic: `fd = fs op ft`.
    Fpu {
        /// Operation.
        op: FpuOp,
        /// Destination.
        fd: FReg,
        /// First source.
        fs: FReg,
        /// Second source.
        ft: FReg,
    },
    /// Floating-point move: `fd = fs`.
    FMov {
        /// Destination.
        fd: FReg,
        /// Source.
        fs: FReg,
    },
    /// Floating-point absolute value: `fd = |fs|`.
    FAbs {
        /// Destination.
        fd: FReg,
        /// Source.
        fs: FReg,
    },
    /// Floating-point negation: `fd = -fs`.
    FNeg {
        /// Destination.
        fd: FReg,
        /// Source.
        fs: FReg,
    },
    /// Floating-point square root: `fd = sqrt(fs)` (NaN for negative input).
    FSqrt {
        /// Destination.
        fd: FReg,
        /// Source.
        fs: FReg,
    },
    /// Load floating-point immediate.
    FLi {
        /// Destination.
        fd: FReg,
        /// Immediate value.
        value: f64,
    },
    /// Load a 64-bit float from memory (8-byte aligned).
    FLoad {
        /// Destination.
        fd: FReg,
        /// Base address register (an *address* use).
        base: Reg,
        /// Byte offset.
        off: i32,
    },
    /// Store a 64-bit float to memory (8-byte aligned).
    FStore {
        /// Value to store (a *data* use).
        fs: FReg,
        /// Base address register (an *address* use).
        base: Reg,
        /// Byte offset.
        off: i32,
    },
    /// Convert signed integer to double: `fd = rs as f64`.
    CvtIF {
        /// Destination.
        fd: FReg,
        /// Integer source.
        rs: Reg,
    },
    /// Convert double to signed integer with truncation and saturation:
    /// `rd = fs as i32`.
    CvtFI {
        /// Integer destination.
        rd: Reg,
        /// Source.
        fs: FReg,
    },
    /// Floating-point comparison: `rd = (fs op ft) as u32`.
    FCmp {
        /// Comparison.
        op: FCmpOp,
        /// Integer destination (0 or 1).
        rd: Reg,
        /// First operand.
        fs: FReg,
        /// Second operand.
        ft: FReg,
    },
    /// Stops execution successfully.
    Halt,
    /// No operation.
    Nop,
}

impl Instr {
    /// The register this instruction defines (writes), if any.
    ///
    /// Writes to `$zero` still report a definition here; the simulator
    /// discards them, and the analysis treats them as dead.
    #[must_use]
    pub fn def(&self) -> Option<RegRef> {
        match *self {
            Instr::Alu { rd, .. }
            | Instr::AluImm { rd, .. }
            | Instr::Li { rd, .. }
            | Instr::Load { rd, .. }
            | Instr::CvtFI { rd, .. }
            | Instr::FCmp { rd, .. } => Some(RegRef::Int(rd)),
            Instr::Fpu { fd, .. }
            | Instr::FMov { fd, .. }
            | Instr::FAbs { fd, .. }
            | Instr::FNeg { fd, .. }
            | Instr::FSqrt { fd, .. }
            | Instr::FLi { fd, .. }
            | Instr::FLoad { fd, .. }
            | Instr::CvtIF { fd, .. } => Some(RegRef::Float(fd)),
            Instr::Call { .. } => Some(RegRef::Int(crate::reg::RA)),
            Instr::Store { .. }
            | Instr::Branch { .. }
            | Instr::Jump { .. }
            | Instr::JumpReg { .. }
            | Instr::FStore { .. }
            | Instr::Halt
            | Instr::Nop => None,
        }
    }

    /// Invokes `f` for every register this instruction reads, with the
    /// [`UseKind`] classification of each use.
    pub fn for_each_use(&self, mut f: impl FnMut(RegRef, UseKind)) {
        match *self {
            Instr::Alu { rs, rt, .. } => {
                f(RegRef::Int(rs), UseKind::Data);
                f(RegRef::Int(rt), UseKind::Data);
            }
            Instr::AluImm { rs, .. } => f(RegRef::Int(rs), UseKind::Data),
            Instr::Li { .. } | Instr::FLi { .. } => {}
            Instr::Load { base, .. } | Instr::FLoad { base, .. } => {
                f(RegRef::Int(base), UseKind::Address);
            }
            Instr::Store { rs, base, .. } => {
                f(RegRef::Int(rs), UseKind::Data);
                f(RegRef::Int(base), UseKind::Address);
            }
            Instr::FStore { fs, base, .. } => {
                f(RegRef::Float(fs), UseKind::Data);
                f(RegRef::Int(base), UseKind::Address);
            }
            Instr::Branch { rs, rt, .. } => {
                f(RegRef::Int(rs), UseKind::Control);
                f(RegRef::Int(rt), UseKind::Control);
            }
            Instr::Jump { .. } | Instr::Call { .. } | Instr::Halt | Instr::Nop => {}
            Instr::JumpReg { rs } => f(RegRef::Int(rs), UseKind::Control),
            Instr::Fpu { fs, ft, .. } => {
                f(RegRef::Float(fs), UseKind::Data);
                f(RegRef::Float(ft), UseKind::Data);
            }
            Instr::FMov { fs, .. }
            | Instr::FAbs { fs, .. }
            | Instr::FNeg { fs, .. }
            | Instr::FSqrt { fs, .. } => f(RegRef::Float(fs), UseKind::Data),
            Instr::CvtIF { rs, .. } => f(RegRef::Int(rs), UseKind::Data),
            Instr::CvtFI { fs, .. } => f(RegRef::Float(fs), UseKind::Data),
            Instr::FCmp { fs, ft, .. } => {
                f(RegRef::Float(fs), UseKind::Data);
                f(RegRef::Float(ft), UseKind::Data);
            }
        }
    }

    /// Collects the uses into a vector (convenience for tests and tools).
    #[must_use]
    pub fn uses(&self) -> Vec<(RegRef, UseKind)> {
        let mut out = Vec::with_capacity(2);
        self.for_each_use(|r, k| out.push((r, k)));
        out
    }

    /// Whether this instruction produces a register value into which a fault
    /// could be injected. Writes to `$zero` are excluded: they are discarded
    /// and can never propagate.
    #[must_use]
    pub fn is_value_producing(&self) -> bool {
        match self.def() {
            Some(RegRef::Int(r)) => !r.is_zero(),
            Some(RegRef::Float(_)) => true,
            None => false,
        }
    }

    /// Whether executing this instruction can ever continue at the next
    /// instruction index. Unconditional transfers (`j`, `jal`, `jr`) and
    /// `halt` cannot; everything else — including conditional branches and
    /// faultable memory accesses — can.
    ///
    /// The simulator's predecoder uses this to pick fused-pair heads: when
    /// an instruction *did* fall through, its successor can retire in the
    /// same dispatch iteration.
    #[must_use]
    pub fn can_fall_through(&self) -> bool {
        !matches!(
            self,
            Instr::Jump { .. } | Instr::Call { .. } | Instr::JumpReg { .. } | Instr::Halt
        )
    }

    /// Classifies this instruction's effect on control flow (see
    /// [`BranchKind`]). `branch_kind().can_fall_through()` agrees with
    /// [`Instr::can_fall_through`] by construction (a unit test pins it).
    #[must_use]
    pub fn branch_kind(&self) -> BranchKind {
        match *self {
            Instr::Branch { target, .. } => BranchKind::Conditional { target },
            Instr::Jump { target } => BranchKind::Jump { target },
            Instr::Call { target } => BranchKind::Call { target },
            Instr::JumpReg { .. } => BranchKind::Indirect,
            Instr::Halt => BranchKind::Halt,
            _ => BranchKind::FallThrough,
        }
    }

    /// Whether this instruction can change control flow (branch, jump, call,
    /// indirect jump, halt).
    #[must_use]
    pub fn is_control_transfer(&self) -> bool {
        matches!(
            self,
            Instr::Branch { .. }
                | Instr::Jump { .. }
                | Instr::Call { .. }
                | Instr::JumpReg { .. }
                | Instr::Halt
        )
    }

    /// Whether this instruction is a conditional branch.
    #[must_use]
    pub fn is_branch(&self) -> bool {
        matches!(self, Instr::Branch { .. })
    }

    /// Whether this instruction accesses memory.
    #[must_use]
    pub fn is_mem_access(&self) -> bool {
        matches!(
            self,
            Instr::Load { .. } | Instr::Store { .. } | Instr::FLoad { .. } | Instr::FStore { .. }
        )
    }

    /// The static branch/jump/call target, if this instruction has one.
    #[must_use]
    pub fn static_target(&self) -> Option<usize> {
        match *self {
            Instr::Branch { target, .. } | Instr::Jump { target } | Instr::Call { target } => {
                Some(target)
            }
            _ => None,
        }
    }

    /// Rewrites the static target (used by the assembler's label fixups).
    pub fn set_static_target(&mut self, new_target: usize) {
        match self {
            Instr::Branch { target, .. } | Instr::Jump { target } | Instr::Call { target } => {
                *target = new_target;
            }
            _ => {}
        }
    }

    /// A fixed encoding of every field, for
    /// [`crate::Program::code_fingerprint`]: variant tag, operation (with a
    /// load's signedness in bit 4), up to three register indices, and one
    /// 64-bit word holding the immediate, offset, target or float bits.
    pub(crate) fn encoding(&self) -> [u8; 13] {
        let r = |reg: Reg| reg.index() as u8;
        let f = |reg: FReg| reg.index() as u8;
        let word = |imm: i32| u64::from(imm as u32);
        let (tag, op, regs, word): (u8, u8, [u8; 3], u64) = match *self {
            Instr::Alu { op, rd, rs, rt } => (0, op as u8, [r(rd), r(rs), r(rt)], 0),
            Instr::AluImm { op, rd, rs, imm } => (1, op as u8, [r(rd), r(rs), 0], word(imm)),
            Instr::Li { rd, imm } => (2, 0, [r(rd), 0, 0], word(imm)),
            Instr::Load {
                width,
                signed,
                rd,
                base,
                off,
            } => (
                3,
                width as u8 | u8::from(signed) << 4,
                [r(rd), r(base), 0],
                word(off),
            ),
            Instr::Store {
                width,
                rs,
                base,
                off,
            } => (4, width as u8, [r(rs), r(base), 0], word(off)),
            Instr::Branch {
                cond,
                rs,
                rt,
                target,
            } => (5, cond as u8, [r(rs), r(rt), 0], target as u64),
            Instr::Jump { target } => (6, 0, [0; 3], target as u64),
            Instr::Call { target } => (7, 0, [0; 3], target as u64),
            Instr::JumpReg { rs } => (8, 0, [r(rs), 0, 0], 0),
            Instr::Fpu { op, fd, fs, ft } => (9, op as u8, [f(fd), f(fs), f(ft)], 0),
            Instr::FMov { fd, fs } => (10, 0, [f(fd), f(fs), 0], 0),
            Instr::FAbs { fd, fs } => (11, 0, [f(fd), f(fs), 0], 0),
            Instr::FNeg { fd, fs } => (12, 0, [f(fd), f(fs), 0], 0),
            Instr::FSqrt { fd, fs } => (13, 0, [f(fd), f(fs), 0], 0),
            Instr::FLi { fd, value } => (14, 0, [f(fd), 0, 0], value.to_bits()),
            Instr::FLoad { fd, base, off } => (15, 0, [f(fd), r(base), 0], word(off)),
            Instr::FStore { fs, base, off } => (16, 0, [f(fs), r(base), 0], word(off)),
            Instr::CvtIF { fd, rs } => (17, 0, [f(fd), r(rs), 0], 0),
            Instr::CvtFI { rd, fs } => (18, 0, [r(rd), f(fs), 0], 0),
            Instr::FCmp { op, rd, fs, ft } => (19, op as u8, [r(rd), f(fs), f(ft)], 0),
            Instr::Halt => (20, 0, [0; 3], 0),
            Instr::Nop => (21, 0, [0; 3], 0),
        };
        let mut out = [0u8; 13];
        out[..5].copy_from_slice(&[tag, op, regs[0], regs[1], regs[2]]);
        out[5..].copy_from_slice(&word.to_le_bytes());
        out
    }
}

impl fmt::Display for Instr {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match *self {
            Instr::Alu { op, rd, rs, rt } => {
                write!(f, "{} {}, {}, {}", op.mnemonic(), rd, rs, rt)
            }
            Instr::AluImm { op, rd, rs, imm } => {
                write!(f, "{}i {}, {}, {}", op.mnemonic(), rd, rs, imm)
            }
            Instr::Li { rd, imm } => write!(f, "li {rd}, {imm}"),
            Instr::Load {
                width,
                signed,
                rd,
                base,
                off,
            } => {
                let m = match (width, signed) {
                    (MemWidth::Byte, true) => "lb",
                    (MemWidth::Byte, false) => "lbu",
                    (MemWidth::Half, true) => "lh",
                    (MemWidth::Half, false) => "lhu",
                    (MemWidth::Word, _) => "lw",
                };
                write!(f, "{m} {rd}, {off}({base})")
            }
            Instr::Store {
                width, rs, base, off, ..
            } => {
                let m = match width {
                    MemWidth::Byte => "sb",
                    MemWidth::Half => "sh",
                    MemWidth::Word => "sw",
                };
                write!(f, "{m} {rs}, {off}({base})")
            }
            Instr::Branch {
                cond,
                rs,
                rt,
                target,
            } => write!(f, "{} {}, {}, @{}", cond.mnemonic(), rs, rt, target),
            Instr::Jump { target } => write!(f, "j @{target}"),
            Instr::Call { target } => write!(f, "jal @{target}"),
            Instr::JumpReg { rs } => write!(f, "jr {rs}"),
            Instr::Fpu { op, fd, fs, ft } => {
                write!(f, "{} {}, {}, {}", op.mnemonic(), fd, fs, ft)
            }
            Instr::FMov { fd, fs } => write!(f, "mov.d {fd}, {fs}"),
            Instr::FAbs { fd, fs } => write!(f, "abs.d {fd}, {fs}"),
            Instr::FNeg { fd, fs } => write!(f, "neg.d {fd}, {fs}"),
            Instr::FSqrt { fd, fs } => write!(f, "sqrt.d {fd}, {fs}"),
            Instr::FLi { fd, value } => write!(f, "li.d {fd}, {value}"),
            Instr::FLoad { fd, base, off } => write!(f, "l.d {fd}, {off}({base})"),
            Instr::FStore { fs, base, off } => write!(f, "s.d {fs}, {off}({base})"),
            Instr::CvtIF { fd, rs } => write!(f, "cvt.d.w {fd}, {rs}"),
            Instr::CvtFI { rd, fs } => write!(f, "trunc.w.d {rd}, {fs}"),
            Instr::FCmp { op, rd, fs, ft } => {
                write!(f, "{} {}, {}, {}", op.mnemonic(), rd, fs, ft)
            }
            Instr::Halt => write!(f, "halt"),
            Instr::Nop => write!(f, "nop"),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::reg;

    #[test]
    fn def_and_uses_of_alu() {
        let i = Instr::Alu {
            op: AluOp::Add,
            rd: reg::T0,
            rs: reg::T1,
            rt: reg::T2,
        };
        assert_eq!(i.def(), Some(RegRef::Int(reg::T0)));
        assert_eq!(
            i.uses(),
            vec![
                (RegRef::Int(reg::T1), UseKind::Data),
                (RegRef::Int(reg::T2), UseKind::Data)
            ]
        );
        assert!(i.is_value_producing());
        assert!(!i.is_control_transfer());
    }

    #[test]
    fn branch_uses_are_control() {
        let i = Instr::Branch {
            cond: CmpOp::Ne,
            rs: reg::T0,
            rt: reg::ZERO,
            target: 7,
        };
        assert_eq!(i.def(), None);
        for (_, kind) in i.uses() {
            assert_eq!(kind, UseKind::Control);
        }
        assert!(i.is_control_transfer());
        assert_eq!(i.static_target(), Some(7));
    }

    #[test]
    fn load_base_is_address_use() {
        let i = Instr::Load {
            width: MemWidth::Word,
            signed: true,
            rd: reg::T0,
            base: reg::S0,
            off: 4,
        };
        assert_eq!(i.uses(), vec![(RegRef::Int(reg::S0), UseKind::Address)]);
    }

    #[test]
    fn store_has_data_and_address_uses() {
        let i = Instr::Store {
            width: MemWidth::Word,
            rs: reg::T1,
            base: reg::SP,
            off: -8,
        };
        assert_eq!(
            i.uses(),
            vec![
                (RegRef::Int(reg::T1), UseKind::Data),
                (RegRef::Int(reg::SP), UseKind::Address)
            ]
        );
        assert!(!i.is_value_producing());
    }

    #[test]
    fn call_defines_ra() {
        let i = Instr::Call { target: 3 };
        assert_eq!(i.def(), Some(RegRef::Int(reg::RA)));
    }

    #[test]
    fn fall_through_excludes_unconditional_transfers_only() {
        assert!(!Instr::Jump { target: 0 }.can_fall_through());
        assert!(!Instr::Call { target: 0 }.can_fall_through());
        assert!(!Instr::JumpReg { rs: reg::RA }.can_fall_through());
        assert!(!Instr::Halt.can_fall_through());
        // Conditional branches and faultable memory ops can fall through.
        assert!(Instr::Branch {
            cond: CmpOp::Eq,
            rs: reg::T0,
            rt: reg::T1,
            target: 0
        }
        .can_fall_through());
        assert!(Instr::Load {
            width: MemWidth::Word,
            signed: true,
            rd: reg::T0,
            base: reg::T1,
            off: 0
        }
        .can_fall_through());
        assert!(Instr::Nop.can_fall_through());
    }

    #[test]
    fn branch_kind_classifies_every_transfer() {
        assert_eq!(
            Instr::Branch {
                cond: CmpOp::Lt,
                rs: reg::T0,
                rt: reg::T1,
                target: 9
            }
            .branch_kind(),
            BranchKind::Conditional { target: 9 }
        );
        assert_eq!(
            Instr::Jump { target: 4 }.branch_kind(),
            BranchKind::Jump { target: 4 }
        );
        assert_eq!(
            Instr::Call { target: 2 }.branch_kind(),
            BranchKind::Call { target: 2 }
        );
        assert_eq!(
            Instr::JumpReg { rs: reg::RA }.branch_kind(),
            BranchKind::Indirect
        );
        assert_eq!(Instr::Halt.branch_kind(), BranchKind::Halt);
        assert_eq!(Instr::Nop.branch_kind(), BranchKind::FallThrough);
        assert_eq!(
            Instr::Store {
                width: MemWidth::Word,
                rs: reg::T0,
                base: reg::SP,
                off: 0
            }
            .branch_kind(),
            BranchKind::FallThrough
        );
    }

    #[test]
    fn branch_kind_fall_through_agrees_with_instr() {
        let samples = [
            Instr::Nop,
            Instr::Halt,
            Instr::Jump { target: 0 },
            Instr::Call { target: 0 },
            Instr::JumpReg { rs: reg::RA },
            Instr::Li {
                rd: reg::T0,
                imm: 3,
            },
            Instr::Branch {
                cond: CmpOp::Eq,
                rs: reg::T0,
                rt: reg::T1,
                target: 0,
            },
            Instr::Load {
                width: MemWidth::Word,
                signed: false,
                rd: reg::T0,
                base: reg::T1,
                off: 0,
            },
        ];
        for i in samples {
            assert_eq!(
                i.branch_kind().can_fall_through(),
                i.can_fall_through(),
                "{i}"
            );
        }
    }

    #[test]
    fn zero_write_not_value_producing() {
        let i = Instr::Li {
            rd: reg::ZERO,
            imm: 5,
        };
        assert!(!i.is_value_producing());
    }

    #[test]
    fn set_static_target_rewrites() {
        let mut i = Instr::Jump { target: 0 };
        i.set_static_target(42);
        assert_eq!(i.static_target(), Some(42));
    }

    #[test]
    fn dense_index_round_trip() {
        for idx in 0..64 {
            assert_eq!(RegRef::from_dense_index(idx).dense_index(), idx);
        }
    }

    #[test]
    fn cmp_eval_matrix() {
        assert!(CmpOp::Lt.eval((-1i32) as u32, 0));
        assert!(!CmpOp::Ltu.eval((-1i32) as u32, 0));
        assert!(CmpOp::Geu.eval((-1i32) as u32, 0));
        assert!(CmpOp::Eq.eval(5, 5));
        assert!(CmpOp::Ne.eval(5, 6));
        assert!(CmpOp::Ge.eval(0, -5i32 as u32));
    }

    #[test]
    fn cmp_negate_is_involution() {
        for op in [
            CmpOp::Eq,
            CmpOp::Ne,
            CmpOp::Lt,
            CmpOp::Ge,
            CmpOp::Ltu,
            CmpOp::Geu,
        ] {
            assert_eq!(op.negate().negate(), op);
            // negation flips the outcome on arbitrary operands
            for (a, b) in [(0u32, 0u32), (1, 2), (u32::MAX, 3)] {
                assert_ne!(op.eval(a, b), op.negate().eval(a, b));
            }
        }
    }

    #[test]
    fn fcmp_nan_is_false() {
        assert!(!FCmpOp::Eq.eval(f64::NAN, f64::NAN));
        assert!(!FCmpOp::Lt.eval(f64::NAN, 1.0));
        assert!(FCmpOp::Le.eval(1.0, 1.0));
    }

    #[test]
    fn display_smoke() {
        let i = Instr::Load {
            width: MemWidth::Byte,
            signed: false,
            rd: reg::T3,
            base: reg::GP,
            off: 16,
        };
        assert_eq!(i.to_string(), "lbu $t3, 16($gp)");
    }
}
