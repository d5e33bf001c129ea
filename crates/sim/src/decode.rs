//! The predecode layer: lowering [`certa_isa::Instr`] into a dense,
//! operand-resolved micro-op array the dispatch loop can execute without
//! re-extracting enum payloads on every dynamic instruction.
//!
//! # Lowering
//!
//! [`DecodedProgram::new`] walks the instruction stream once and produces
//! one [`MicroOp`] per instruction:
//!
//! * register operands become raw `u8` indices (no newtype unwrapping in
//!   the hot loop),
//! * branch/jump/call targets and memory offsets live in one `i32`
//!   immediate slot,
//! * sub-operation selectors (ALU op, access width, sign extension, branch
//!   condition, FPU op) are folded into the opcode byte itself, so dispatch
//!   is a single flat match,
//! * `f64` immediates are spilled to a constant pool ([`MicroOp::imm`]
//!   indexes it), keeping every micro-op a fixed 12 bytes.
//!
//! The array is strictly 1:1 with `Program::code`: micro-op `i` is
//! instruction `i`, so the architectural `pc`, branch targets, profiling
//! indices, and [`WritebackHook`](crate::WritebackHook) instruction indices
//! are unchanged by predecoding.
//!
//! # Fusion
//!
//! A second pass marks **fused pair heads**: any instruction that can fall
//! through ([`certa_isa::Instr::can_fall_through`]) to an existing
//! successor. When the head actually does fall through at runtime, the
//! dispatch loop retires its successor in the same iteration, skipping one
//! fetch/bounds-check/loop-latch round trip.
//!
//! The assembler's common idioms — compare + branch, address compute +
//! load/store, `li` + ALU — are the pairs this hits on every loop
//! iteration, and in straight-line bodies nearly every instruction is
//! covered.
//!
//! Because the array stays 1:1, fusion needs no branch-target analysis: a
//! dynamic jump landing on the *second* half of a pair simply executes that
//! slot's ordinary micro-op. The invariants fusion must preserve (and that
//! the differential suite checks) are:
//!
//! * both halves bump `icount` and per-instruction `exec_counts`
//!   individually,
//! * every intermediate writeback — including the head's — flows through
//!   the [`WritebackHook`](crate::WritebackHook), so fault-injection sites
//!   are unchanged,
//! * the second half only retires when the head *fell through* — a taken
//!   branch, crash, or halt in the head ends the iteration exactly as
//!   unfused execution would,
//! * a pair never straddles a watchdog or [`run_until`]
//!   boundary: when the second half would cross it, the head executes
//!   alone as an ordinary micro-op.
//!
//! # Superblocks
//!
//! A third pass derives a **superblock table** from the program's control
//! flow graph ([`certa_core::Cfg`]): for each basic-block entry, a
//! straight-line *trace* of micro-ops is laid out by following fall-through
//! edges and unconditional jumps across block boundaries, with conditional
//! branches embedded as **side-exit guards** (taken → leave the trace) and
//! calls/indirect jumps/halts terminating it. The dispatch loop executes a
//! whole trace with watchdog/pause checks hoisted to the trace boundary —
//! see [`crate::Machine::run`] — falling back to fused per-op dispatch for
//! cold blocks and mid-block entry points (e.g. resuming from a snapshot
//! taken mid-trace).
//!
//! Each trace element carries its original instruction index, so `pc`,
//! `icount`, `exec_counts`, and hook indices remain exactly 1:1 with the
//! reference interpreter. A [`SuperblockPolicy`] decides which block
//! entries earn a trace: by static trace length, or seeded with
//! `exec_counts` from a profiled run so only blocks the golden run actually
//! executed get bodies (the fault campaign uses this for trial machines).
//!
//! [`run_until`]: crate::Machine::run_until

use certa_core::Cfg;
use certa_isa::{AluOp, BranchKind, CmpOp, FCmpOp, FpuOp, Instr, MemWidth, Program};

/// Micro-op opcode with every sub-operation selector folded in.
///
/// The dispatch loop matches each variant with its own arm; the ALU block
/// is laid out contiguously in [`AluOp::ALL`] order (register-register
/// forms first, then register-immediate) purely as a reading aid, with a
/// unit test pinning the correspondence.
#[repr(u8)]
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum MOp {
    // 0..=15: register-register ALU, in AluOp::ALL order.
    AddRR = 0,
    SubRR,
    MulRR,
    DivRR,
    RemRR,
    DivuRR,
    RemuRR,
    AndRR,
    OrRR,
    XorRR,
    NorRR,
    SllRR,
    SrlRR,
    SraRR,
    SltRR,
    SltuRR,
    // 16..=31: register-immediate ALU, in AluOp::ALL order.
    AddRI,
    SubRI,
    MulRI,
    DivRI,
    RemRI,
    DivuRI,
    RemuRI,
    AndRI,
    OrRI,
    XorRI,
    NorRI,
    SllRI,
    SrlRI,
    SraRI,
    SltRI,
    SltuRI,
    /// `a = imm`.
    Li,
    /// Sign-extending byte load: `a = sx8(mem[rb + imm])`.
    Lb,
    /// Zero-extending byte load.
    Lbu,
    /// Sign-extending halfword load.
    Lh,
    /// Zero-extending halfword load.
    Lhu,
    /// Word load.
    Lw,
    /// Byte store: `mem[rb + imm] = ra`.
    Sb,
    /// Halfword store.
    Sh,
    /// Word store.
    Sw,
    /// Branch to `imm` if `ra == rb`.
    Beq,
    /// Branch if `ra != rb`.
    Bne,
    /// Branch if `ra < rb` (signed).
    Blt,
    /// Branch if `ra >= rb` (signed).
    Bge,
    /// Branch if `ra < rb` (unsigned).
    Bltu,
    /// Branch if `ra >= rb` (unsigned).
    Bgeu,
    /// Unconditional jump to `imm`.
    Jump,
    /// Call: `$ra = pc + 1`, jump to `imm` (`a` carries the RA index).
    Call,
    /// Indirect jump to the value of register `a`.
    JumpReg,
    /// `fa = fb + fc`.
    FAdd,
    /// `fa = fb - fc`.
    FSub,
    /// `fa = fb * fc`.
    FMul,
    /// `fa = fb / fc`.
    FDiv,
    /// `fa = min(fb, fc)`.
    FMin,
    /// `fa = max(fb, fc)`.
    FMax,
    /// `fa = fb`.
    FMov,
    /// `fa = |fb|`.
    FAbs,
    /// `fa = -fb`.
    FNeg,
    /// `fa = sqrt(fb)`.
    FSqrt,
    /// `fa = fpool[imm]`.
    FLi,
    /// `fa = mem_f64[rb + imm]`.
    FLd,
    /// `mem_f64[rb + imm] = fa`.
    FSd,
    /// `fa = rb as i32 as f64`.
    CvtIF,
    /// `a = fb as i32` (truncating, saturating).
    CvtFI,
    /// `a = (fb == fc) as u32`.
    FCeq,
    /// `a = (fb < fc) as u32`.
    FClt,
    /// `a = (fb <= fc) as u32`.
    FCle,
    /// Stop successfully.
    Halt,
    /// No operation.
    Nop,
}

/// One predecoded instruction: folded opcode, raw register indices, one
/// immediate. 12 bytes, `Copy`, fetched as a unit by the dispatch loop.
#[derive(Debug, Clone, Copy)]
pub(crate) struct MicroOp {
    /// Folded opcode.
    pub(crate) op: MOp,
    /// Non-zero when this op heads a fused pair (see the module docs); the
    /// second half is always the micro-op at the next index.
    pub(crate) fuse: u8,
    /// First register field (destination, store source, or branch lhs).
    pub(crate) a: u8,
    /// Second register field (source / base / branch rhs).
    pub(crate) b: u8,
    /// Third register field (second ALU/FPU source).
    pub(crate) c: u8,
    /// Immediate: ALU immediate, memory offset, branch/jump target, or
    /// `f64` constant-pool index.
    pub(crate) imm: i32,
}

impl MicroOp {
    fn new(op: MOp) -> Self {
        MicroOp {
            op,
            fuse: 0,
            a: 0,
            b: 0,
            c: 0,
            imm: 0,
        }
    }

    fn regs(op: MOp, a: u8, b: u8, c: u8) -> Self {
        MicroOp {
            op,
            fuse: 0,
            a,
            b,
            c,
            imm: 0,
        }
    }

    fn imm(op: MOp, a: u8, b: u8, imm: i32) -> Self {
        MicroOp {
            op,
            fuse: 0,
            a,
            b,
            c: 0,
            imm,
        }
    }
}

/// Chain tag of a single element: no second op — the element executes
/// `op` alone through the full single-op executor.
pub(crate) const COMBO_NONE: u8 = 0;

// ---------------------------------------------------------------------
// Chain tags.
//
// Each tag is a **constant-folded specialization** of one concrete 2- or
// 3-op sequence: a dedicated straight-line handler in `machine.rs` with
// the operation, operand form, width, and condition fixed at compile
// time — registers resolved at decode time, no inner dispatch of any
// kind. Micro-op fields are stored verbatim for pairs; the triple tags
// re-pack fields (layouts documented at the match arms in
// [`specialize_triple`]).
//
// The vocabulary is set by measured traffic: a tag stays only while it
// retires at least 5% of some study workload's golden-run instructions
// (a tag cannot save more dispatches than the instructions it retires).
// A neighbour no chain covers is a single element.
// ---------------------------------------------------------------------

/// `sllri + addrr` (the top half of the address-generation chain).
pub(crate) const CH_SLLI_ADD: u8 = 1;
/// `addrr + addrr`.
pub(crate) const CH_ADD_ADD: u8 = 2;
/// `srari + xorrr`.
pub(crate) const CH_SRAI_XOR: u8 = 3;
/// `addrr + addri`.
pub(crate) const CH_ADD_ADDI: u8 = 4;
/// `mulri + addrr`.
pub(crate) const CH_MULI_ADD: u8 = 5;
/// `addrr + lw` (address compute feeding a word load).
pub(crate) const CH_ADD_LW: u8 = 6;
/// `lw + addrr`.
pub(crate) const CH_LW_ADD: u8 = 7;
/// `lbu + subrr`.
pub(crate) const CH_LBU_SUB: u8 = 8;
/// `sltri + bne` (compare + conditional branch).
pub(crate) const CH_SLTI_BNE: u8 = 9;
/// `subrr + addrr`.
pub(crate) const CH_SUB_ADD: u8 = 10;
/// `mulrr + addrr`.
pub(crate) const CH_MUL_ADD: u8 = 11;
/// `subrr + mulrr`.
pub(crate) const CH_SUB_MUL: u8 = 12;
/// `sltrr + subrr`.
pub(crate) const CH_SLT_SUB: u8 = 13;
/// `li/addri + sltrr`.
pub(crate) const CH_ADDI_SLT: u8 = 14;
/// `orrr + orrr`.
pub(crate) const CH_OR_OR: u8 = 15;
/// `srlri + andri`.
pub(crate) const CH_SRLI_ANDI: u8 = 16;
/// `fadd + addri` (float accumulate + induction bump).
pub(crate) const CH_FADD_ADDI: u8 = 17;
/// `fmul + fadd` (multiply-accumulate halves).
pub(crate) const CH_FMUL_FADD: u8 = 18;
/// First 3-op chain tag (everything `>=` this retires three instructions).
pub(crate) const CH3_FIRST: u8 = 19;
/// `sllri + addrr + lw`: the full address-generation chain (scaled index
/// plus base feeding a word load).
pub(crate) const CH3_SLLI_ADD_LW: u8 = 19;
/// `addri + sltri + bne`: the canonical loop latch (induction bump,
/// bound compare, loop-closing branch).
pub(crate) const CH3_ADDI_SLTI_BNE: u8 = 20;
/// `addrr + lw + addrr`: base-plus-index address generation feeding a
/// load whose result the next add consumes (accumulator idiom).
pub(crate) const CH3_ADD_LW_ADD: u8 = 21;
/// `andri + sllri + addrr`: mask, scale, and index (the Blowfish S-box
/// address chain).
pub(crate) const CH3_ANDI_SLLI_ADD: u8 = 22;
/// `sllri + addrr + fld`: the address-generation chain feeding an `f64`
/// load (the ART float kernel's hot address shape).
pub(crate) const CH3_SLLI_ADD_FLD: u8 = 23;

/// One element of a superblock trace: one micro-op — or a **chain** of
/// two or three adjacent micro-ops retired by a single dispatch — plus the
/// instruction indices they were lifted from, so hooks, profiling, and
/// `pc` reconstruction stay 1:1 with the source program. 32 bytes, laid
/// out densely per trace.
///
/// Two bytes are repurposed inside the copied micro-ops:
///
/// * `op.fuse` is the **sequential continuation flag**: non-zero means
///   the next trace element starts at this element's last instruction
///   plus one, so a fall-through retirement stays inside the trace
///   without any bounds or index check.
/// * `op2.fuse` is the **chain tag** (`CH_*`/`CH3_*`): which chain arm
///   executes this element, or [`COMBO_NONE`] for a single op.
///
/// Control transfers use the universal continuation rule instead: the
/// trace continues iff the next element's `at` equals the dynamic target
/// (sound for any linearization — traced-through jumps and call returns
/// compare equal, side exits compare unequal).
///
/// Chains keep per-instruction observability exactly: every constituent
/// bumps `icount`/`exec_counts` individually, writebacks flow through the
/// hook in program order with their own instruction indices, and a crash
/// in any constituent reports that instruction's `pc`. `li` halves are
/// normalized to `addi rd, $zero, imm` so the `addri` chains cover them.
#[derive(Debug, Clone, Copy)]
#[repr(align(32))]
pub(crate) struct SuperOp {
    /// First micro-op (`fuse` = sequential continuation flag).
    pub(crate) op: MicroOp,
    /// Original instruction index of `op`.
    pub(crate) at: u32,
    /// Second micro-op of a chain (`fuse` = chain tag); `Nop` with tag
    /// [`COMBO_NONE`] for single elements.
    pub(crate) op2: MicroOp,
    /// Original instruction index of the chain's last instruction
    /// (meaningful only for chains).
    pub(crate) at2: u32,
}

impl SuperOp {
    /// Instruction index the element's fall-through path resumes after:
    /// the last constituent instruction.
    fn last_at(&self) -> u32 {
        if self.op2.fuse == COMBO_NONE {
            self.at
        } else {
            self.at2
        }
    }
}

/// One superblock: a straight-line trace in the shared [`SuperOp`] arena.
#[derive(Debug, Clone, Copy)]
pub(crate) struct Superblock {
    /// First trace element in the arena.
    pub(crate) start: u32,
    /// Trace length in elements (chains count once).
    pub(crate) elems: u32,
    /// Trace length in **instructions** — the exact upper bound on what
    /// one pass through the trace can retire, which is what the dispatch
    /// loop checks against the watchdog/pause boundary before entering.
    pub(crate) instrs: u32,
}

/// Profitability policy for the superblock pass: which basic-block entries
/// earn a straight-line trace body, and how long traces may grow.
#[derive(Debug, Clone)]
pub struct SuperblockPolicy {
    /// Build superblocks at all (`false` = fused per-op dispatch only; the
    /// benches use this to isolate the superblock tier's contribution).
    pub enable: bool,
    /// Minimum trace length (in micro-ops) worth the block-entry lookup;
    /// shorter traces fall back to fused dispatch.
    pub min_len: usize,
    /// Trace length cap (bounds trace memory and the boundary slack the
    /// dispatch loop must leave before the watchdog/pause target).
    pub max_len: usize,
    /// Optional per-instruction execution counts from a profiled run
    /// (e.g. the campaign's golden run): when present, only block entries
    /// that executed at least once get trace bodies.
    pub hot_counts: Option<Vec<u64>>,
}

impl Default for SuperblockPolicy {
    fn default() -> Self {
        SuperblockPolicy {
            enable: true,
            min_len: 2,
            // Long traces pay off once taken-path unrolling keeps hot
            // loops in-trace: 384 measured best on the study workloads
            // (sbtune sweep; short caps truncate unrolled loop laps and
            // fall back to fused dispatch mid-iteration).
            max_len: 384,
            hot_counts: None,
        }
    }
}

impl SuperblockPolicy {
    /// Superblocks off: the decoded program executes purely through the
    /// fused per-op dispatch tier.
    #[must_use]
    pub fn disabled() -> Self {
        SuperblockPolicy {
            enable: false,
            ..SuperblockPolicy::default()
        }
    }

    /// Profile-seeded policy: only basic blocks whose entry instruction
    /// executed at least once in `exec_counts` get trace bodies. The fault
    /// campaign seeds trial machines with the golden run's counts.
    #[must_use]
    pub fn seeded(exec_counts: Vec<u64>) -> Self {
        SuperblockPolicy {
            hot_counts: Some(exec_counts),
            ..SuperblockPolicy::default()
        }
    }
}

/// A program lowered to the micro-op form the dispatch loop executes: a
/// dense array strictly 1:1 with `Program::code`, the `f64` constant
/// pool, and the superblock trace table. Immutable once built; cheap to
/// share across trial machines via [`std::sync::Arc`] (the fault campaign
/// decodes once per campaign).
#[derive(Debug)]
pub struct DecodedProgram {
    ops: Vec<MicroOp>,
    fpool: Vec<f64>,
    fused_pairs: usize,
    /// Superblock descriptors; `sb_entry[pc]` holds `id + 1`.
    superblocks: Vec<Superblock>,
    /// Shared trace arena, indexed by [`Superblock::start`]/`len`.
    sb_ops: Vec<SuperOp>,
    /// Per-instruction superblock entry map: `0` = no trace starts here,
    /// else the superblock id plus one. Only basic-block entry points are
    /// ever non-zero.
    sb_entry: Vec<u32>,
    /// Trace elements carrying a chain tag (diagnostics).
    sb_specialized: usize,
}

impl DecodedProgram {
    /// Lowers `program` with the default [`SuperblockPolicy`] (decode pass
    /// + fusion pass + CFG-derived superblock pass).
    #[must_use]
    pub fn new(program: &Program) -> Self {
        Self::with_policy(program, &SuperblockPolicy::default())
    }

    /// Lowers `program` with an explicit superblock policy.
    #[must_use]
    pub fn with_policy(program: &Program, policy: &SuperblockPolicy) -> Self {
        let mut fpool = Vec::new();
        let mut ops: Vec<MicroOp> = program
            .code
            .iter()
            .map(|instr| decode_instr(instr, &mut fpool))
            .collect();

        // Fusion pass: mark every op that can fall through to an existing
        // successor as a pair head. The dispatch loop retires the successor
        // in the same iteration whenever the head actually fell through.
        let mut fused_pairs = 0;
        for i in 0..ops.len().saturating_sub(1) {
            if program.code[i].can_fall_through() {
                ops[i].fuse = 1;
                fused_pairs += 1;
            }
        }
        let (superblocks, sb_ops, sb_entry) = build_superblocks(program, &ops, policy);
        let sb_specialized = sb_ops.iter().filter(|s| s.op2.fuse != COMBO_NONE).count();
        DecodedProgram {
            ops,
            fpool,
            fused_pairs,
            superblocks,
            sb_ops,
            sb_entry,
            sb_specialized,
        }
    }

    /// Number of micro-ops (equal to the source program's code length).
    #[must_use]
    pub fn len(&self) -> usize {
        self.ops.len()
    }

    /// Whether the program has no instructions.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.ops.is_empty()
    }

    /// Number of static fused pair heads (diagnostics and benches).
    #[must_use]
    pub fn fused_pairs(&self) -> usize {
        self.fused_pairs
    }

    /// Number of superblock trace bodies (diagnostics and benches).
    #[must_use]
    pub fn superblock_count(&self) -> usize {
        self.superblocks.len()
    }

    /// Total micro-ops across all superblock traces (diagnostics; traces
    /// overlap, so this can exceed [`DecodedProgram::len`]).
    #[must_use]
    pub fn superblock_ops(&self) -> usize {
        self.sb_ops.len()
    }

    /// Trace elements executed by a chain handler — a concrete 2- or 3-op
    /// sequence with its own straight-line arm in the trace executor
    /// (diagnostics; lets the tuning harness and tests verify chains
    /// actually fire).
    #[must_use]
    pub fn superblock_specialized(&self) -> usize {
        self.sb_specialized
    }

    pub(crate) fn ops(&self) -> &[MicroOp] {
        &self.ops
    }

    pub(crate) fn fpool(&self) -> &[f64] {
        &self.fpool
    }

    pub(crate) fn superblocks(&self) -> &[Superblock] {
        &self.superblocks
    }

    pub(crate) fn sb_ops(&self) -> &[SuperOp] {
        &self.sb_ops
    }

    pub(crate) fn sb_entry(&self) -> &[u32] {
        &self.sb_entry
    }
}

/// The superblock pass: walks the [`Cfg`] and lays out one straight-line
/// trace per profitable basic-block entry. Traces follow fall-through
/// edges and unconditional jumps, embed conditional branches as side
/// exits, trace **through calls** into the callee (laying the call site's
/// return point after the callee's `jr`, so a well-behaved return
/// continues in-trace — the dispatch loop's dynamic-target comparison
/// side-exits if the return address was corrupted), and stop at indirect
/// jumps with no pending return point, halts, code end, the length cap, or
/// the first revisited block (which bounds every trace even for `j self`
/// loops).
#[allow(clippy::cast_possible_truncation)]
fn build_superblocks(
    program: &Program,
    ops: &[MicroOp],
    policy: &SuperblockPolicy,
) -> (Vec<Superblock>, Vec<SuperOp>, Vec<u32>) {
    let n = ops.len();
    let mut sb_entry = vec![0u32; n];
    if !policy.enable || n == 0 {
        return (Vec::new(), Vec::new(), sb_entry);
    }
    let cfg = Cfg::build(program);
    let min_len = policy.min_len.max(1);
    let mut superblocks: Vec<Superblock> = Vec::new();
    let mut sb_ops: Vec<SuperOp> = Vec::new();
    // Generation-stamped visited set: `visited[b] == seed` means block
    // `b` is already part of the trace currently being built. The stamps
    // gate only the *pre-loop* portion of a trace — once taken-path
    // unrolling starts, laps repeat blocks freely and the length cap is
    // what terminates the builder (every lap pushes at least one op).
    let mut visited = vec![usize::MAX; cfg.len()];
    let mut trace: Vec<(MicroOp, u32)> = Vec::with_capacity(policy.max_len);
    for seed in 0..cfg.len() {
        let entry = cfg.blocks[seed].start;
        if let Some(counts) = &policy.hot_counts {
            if counts.get(entry).copied().unwrap_or(0) == 0 {
                continue;
            }
        }
        trace.clear();
        let mut cur = seed;
        // Set once the trace follows a loop-closing branch's *taken* path:
        // from then on the trace is unrolling loop iterations, and only
        // the length cap bounds it.
        let mut unrolling = false;
        // Trace length at the end of the last complete unrolled lap
        // (just after a taken back-edge branch was laid): when the cap
        // lands mid-lap, the trace is cut back here so it ends at the
        // loop latch — the taken continuation then re-enters the trace at
        // the header instead of falling out mid-iteration into fused
        // dispatch.
        let mut lap_end = 0usize;
        // Return points of calls traced through, innermost last: when the
        // callee's `jr` retires, the trace resumes at the block after the
        // call site (the dispatch loop verifies the dynamic target).
        let mut ret_stack: Vec<usize> = Vec::new();
        'trace: loop {
            if !unrolling {
                if visited[cur] == seed {
                    break 'trace;
                }
                visited[cur] = seed;
            }
            let block = &cfg.blocks[cur];
            for (i, &op) in ops.iter().enumerate().take(block.end).skip(block.start) {
                if trace.len() >= policy.max_len {
                    if lap_end > 0 {
                        trace.truncate(lap_end);
                    }
                    break 'trace;
                }
                trace.push((op, i as u32));
            }
            let last = block.end - 1;
            cur = match program.code[last].branch_kind() {
                // A loop-closing conditional branch (a natural-loop back
                // edge) is linearized along its **taken** path: the
                // backward target is laid next, unrolling the loop, so
                // hot iterations continue in-trace instead of
                // side-exiting every iteration. (Legal under the dispatch
                // loop's universal dynamic-target continuation rule:
                // not-taken simply side-exits at `last + 1`.) Other
                // conditionals keep the fall-through bias.
                BranchKind::Conditional { .. }
                    if cfg
                        .static_target_succ(cur, program)
                        .is_some_and(|t| cfg.is_back_edge(cur, t)) =>
                {
                    unrolling = true;
                    lap_end = trace.len();
                    match cfg.static_target_succ(cur, program) {
                        Some(next) => next,
                        None => break 'trace,
                    }
                }
                // Straight-line and not-taken conditional paths continue
                // at the textual successor block.
                BranchKind::FallThrough | BranchKind::Conditional { .. } => {
                    match cfg.fallthrough_succ(cur, program) {
                        Some(next) => next,
                        None => break 'trace,
                    }
                }
                // Unconditional jumps are traced through: the jump retires
                // inside the trace and execution continues at its target.
                BranchKind::Jump { .. } => match cfg.static_target_succ(cur, program) {
                    Some(next) => next,
                    None => break 'trace,
                },
                // Calls are traced into the callee; remember where a
                // matching return should resume.
                BranchKind::Call { .. } => {
                    if last + 1 < n {
                        ret_stack.push(cfg.block_of(last + 1));
                    }
                    match cfg.static_target_succ(cur, program) {
                        Some(next) => next,
                        None => break 'trace,
                    }
                }
                // An indirect jump closes the innermost traced call (the
                // guest's return idiom); with no pending call it ends the
                // trace.
                BranchKind::Indirect => match ret_stack.pop() {
                    Some(next) => next,
                    None => break 'trace,
                },
                BranchKind::Halt => break 'trace,
            };
        }
        if trace.len() < min_len {
            continue;
        }
        let start = sb_ops.len();
        pair_trace(&trace, &mut sb_ops);
        // Sequential-continuation post-pass: an element's `op.fuse` is set
        // iff the next element resumes at this element's last instruction
        // plus one, so fall-through retirements continue in-trace without
        // an index comparison. The final element always exits.
        for k in start..sb_ops.len() {
            let seq = sb_ops
                .get(k + 1)
                .is_some_and(|next| next.at == sb_ops[k].last_at() + 1);
            sb_ops[k].op.fuse = u8::from(seq);
        }
        let id = u32::try_from(superblocks.len()).expect("superblock count fits u32");
        superblocks.push(Superblock {
            start: u32::try_from(start).expect("trace arena fits u32"),
            elems: (sb_ops.len() - start) as u32,
            instrs: trace.len() as u32,
        });
        sb_entry[entry] = id + 1;
    }
    (superblocks, sb_ops, sb_entry)
}

/// Normalizes `li rd, imm` to `addi rd, $zero, imm` so the `addri` chains
/// cover it (reading `$zero` yields 0, so the result is `imm`
/// bit-for-bit, and the writeback path is identical); every other
/// micro-op passes through unchanged.
fn li_normalized(m: MicroOp) -> MicroOp {
    if m.op == MOp::Li {
        MicroOp {
            op: MOp::AddRI,
            b: 0,
            ..m
        }
    } else {
        m
    }
}

/// Pair matcher: the concrete opcode pairs that earn a chain tag, after
/// `li` normalization. Micro-op fields pass through verbatim.
fn specialize_pair(m1: MicroOp, m2: MicroOp) -> Option<(u8, MicroOp, MicroOp)> {
    let n1 = li_normalized(m1);
    let n2 = li_normalized(m2);
    let tag = match (n1.op, n2.op) {
        (MOp::SllRI, MOp::AddRR) => CH_SLLI_ADD,
        (MOp::AddRR, MOp::AddRR) => CH_ADD_ADD,
        (MOp::SraRI, MOp::XorRR) => CH_SRAI_XOR,
        (MOp::AddRR, MOp::AddRI) => CH_ADD_ADDI,
        (MOp::MulRI, MOp::AddRR) => CH_MULI_ADD,
        (MOp::AddRR, MOp::Lw) => CH_ADD_LW,
        (MOp::Lw, MOp::AddRR) => CH_LW_ADD,
        (MOp::Lbu, MOp::SubRR) => CH_LBU_SUB,
        (MOp::SltRI, MOp::Bne) => CH_SLTI_BNE,
        (MOp::SubRR, MOp::AddRR) => CH_SUB_ADD,
        (MOp::MulRR, MOp::AddRR) => CH_MUL_ADD,
        (MOp::SubRR, MOp::MulRR) => CH_SUB_MUL,
        (MOp::SltRR, MOp::SubRR) => CH_SLT_SUB,
        (MOp::AddRI, MOp::SltRR) => CH_ADDI_SLT,
        (MOp::OrRR, MOp::OrRR) => CH_OR_OR,
        (MOp::SrlRI, MOp::AndRI) => CH_SRLI_ANDI,
        (MOp::FAdd, MOp::AddRI) => CH_FADD_ADDI,
        (MOp::FMul, MOp::FAdd) => CH_FMUL_FADD,
        _ => return None,
    };
    Some((tag, n1, n2))
}

/// Triple matcher: three *fully sequential* instructions matching a
/// 3-op chain collapse into one element. Because a
/// [`SuperOp`] only carries two micro-ops, the three ops' fields are
/// re-packed into chain-specific layouts (documented per arm); the match
/// guards enforce the constraints that make the packing lossless.
fn specialize_triple(m1: MicroOp, m2: MicroOp, m3: MicroOp) -> Option<(u8, MicroOp, MicroOp)> {
    let n1 = li_normalized(m1);
    let n2 = li_normalized(m2);
    let n3 = li_normalized(m3);
    // Picks the operand of a commutative consumer that is *not* the
    // producer's destination (normalizing "which side reads the chained
    // value"); `None` when the consumer does not read the produced value.
    let other_operand = |consumer: MicroOp, produced: u8| {
        if consumer.b == produced {
            Some(consumer.c)
        } else if consumer.c == produced {
            Some(consumer.b)
        } else {
            None
        }
    };
    match (n1.op, n2.op, n3.op) {
        // `sllri t,s,sh ; addrr u,x,y ; lw d,off(u)` — the load's base
        // must be the add's destination (the address-generation idiom).
        // Layout: op = {a:t, b:s, c:u, imm:sh}, op2 = {a:x, b:y, c:d, imm:off}.
        (MOp::SllRI, MOp::AddRR, MOp::Lw) if m3.b == n2.a => Some((
            CH3_SLLI_ADD_LW,
            MicroOp {
                op: MOp::SllRI,
                fuse: 0,
                a: n1.a,
                b: n1.b,
                c: n2.a,
                imm: n1.imm,
            },
            MicroOp {
                op: MOp::Lw,
                fuse: 0,
                a: n2.b,
                b: n2.c,
                c: m3.a,
                imm: m3.imm,
            },
        )),
        // `addri a1,b1,i1 ; sltri a2,b2,i2 ; bne s,t,target` — the loop
        // latch. Both ALU immediates must fit i16 (packed into one slot).
        // Layout: op = {a:a1, b:b1, c:a2, imm: i1 & 0xFFFF | i2 << 16},
        //         op2 = {a:b2, b:s, c:t, imm:target}.
        (MOp::AddRI, MOp::SltRI, MOp::Bne)
            if i16::try_from(n1.imm).is_ok() && i16::try_from(n2.imm).is_ok() =>
        {
            Some((
                CH3_ADDI_SLTI_BNE,
                MicroOp {
                    op: MOp::AddRI,
                    fuse: 0,
                    a: n1.a,
                    b: n1.b,
                    c: n2.a,
                    imm: (n1.imm & 0xFFFF) | (n2.imm << 16),
                },
                MicroOp {
                    op: MOp::Bne,
                    fuse: 0,
                    a: n2.b,
                    b: m3.a,
                    c: m3.b,
                    imm: m3.imm,
                },
            ))
        }
        // `addrr u,x,y ; lw d,off(u) ; addrr v,p,q` — the load's base is
        // the first add's destination and the second add consumes the
        // loaded value (accumulator idiom). Layout:
        // op = {a:u, b:x, c:y, imm:off}, op2 = {a:d, b:v, c:q, imm:0}
        // where q is the second add's non-loaded operand.
        (MOp::AddRR, MOp::Lw, MOp::AddRR) if m2.b == n1.a => {
            let q = other_operand(n3, m2.a)?;
            Some((
                CH3_ADD_LW_ADD,
                MicroOp {
                    op: MOp::AddRR,
                    fuse: 0,
                    a: n1.a,
                    b: n1.b,
                    c: n1.c,
                    imm: m2.imm,
                },
                MicroOp {
                    op: MOp::Lw,
                    fuse: 0,
                    a: m2.a,
                    b: n3.a,
                    c: q,
                    imm: 0,
                },
            ))
        }
        // `andri t,s,i1 ; sllri u,x,i2 ; addrr v,p,q` — mask, scale,
        // index; the add consumes the shift's result and both immediates
        // fit i16. Layout: op = {a:t, b:s, c:u, imm: i1 & 0xFFFF | i2 << 16},
        // op2 = {a:x, b:v, c:p, imm:0}.
        (MOp::AndRI, MOp::SllRI, MOp::AddRR)
            if i16::try_from(n1.imm).is_ok() && i16::try_from(n2.imm).is_ok() =>
        {
            let p = other_operand(n3, n2.a)?;
            Some((
                CH3_ANDI_SLLI_ADD,
                MicroOp {
                    op: MOp::AndRI,
                    fuse: 0,
                    a: n1.a,
                    b: n1.b,
                    c: n2.a,
                    imm: (n1.imm & 0xFFFF) | (n2.imm << 16),
                },
                MicroOp {
                    op: MOp::SllRI,
                    fuse: 0,
                    a: n2.b,
                    b: n3.a,
                    c: p,
                    imm: 0,
                },
            ))
        }
        // `sllri t,s,sh ; addrr u,x,y ; fld fd,off(u)` — the
        // address-generation chain feeding an f64 load. Same layout as
        // [`CH3_SLLI_ADD_LW`] with the float destination in `op2.c`.
        (MOp::SllRI, MOp::AddRR, MOp::FLd) if m3.b == n2.a => Some((
            CH3_SLLI_ADD_FLD,
            MicroOp {
                op: MOp::SllRI,
                fuse: 0,
                a: n1.a,
                b: n1.b,
                c: n2.a,
                imm: n1.imm,
            },
            MicroOp {
                op: MOp::FLd,
                fuse: 0,
                a: n2.b,
                b: n2.c,
                c: m3.a,
                imm: m3.imm,
            },
        )),
        _ => None,
    }
}

/// The pairing pass: greedily fuses adjacent *sequential* trace
/// instructions into chain elements, trying 3-op chains first, then 2-op
/// chains. A neighbour no chain covers — including one laid across a
/// traced-through jump — is a single element.
fn pair_trace(trace: &[(MicroOp, u32)], sb_ops: &mut Vec<SuperOp>) {
    let mut k = 0;
    while k < trace.len() {
        let (m1, at1) = trace[k];
        // Triples: three sequential instructions collapsed into one
        // element (`at2` = the *last* instruction, so exits and the
        // sequential post-pass see the chain's true extent).
        if let (Some(&(m2, at2)), Some(&(m3, at3))) = (trace.get(k + 1), trace.get(k + 2)) {
            if at2 == at1 + 1 && at3 == at1 + 2 {
                if let Some((tag, op, mut op2)) = specialize_triple(m1, m2, m3) {
                    op2.fuse = tag;
                    sb_ops.push(SuperOp {
                        op,
                        at: at1,
                        op2,
                        at2: at3,
                    });
                    k += 3;
                    continue;
                }
            }
        }
        if let Some(&(m2, at2)) = trace.get(k + 1).filter(|&&(_, at2)| at2 == at1 + 1) {
            if let Some((tag, op, mut op2)) = specialize_pair(m1, m2) {
                op2.fuse = tag;
                sb_ops.push(SuperOp { op, at: at1, op2, at2 });
                k += 2;
                continue;
            }
        }
        sb_ops.push(SuperOp {
            op: m1,
            at: at1,
            op2: MicroOp {
                fuse: COMBO_NONE,
                ..MicroOp::new(MOp::Nop)
            },
            at2: at1,
        });
        k += 1;
    }
}

fn alu_rr(op: AluOp) -> MOp {
    match op {
        AluOp::Add => MOp::AddRR,
        AluOp::Sub => MOp::SubRR,
        AluOp::Mul => MOp::MulRR,
        AluOp::Div => MOp::DivRR,
        AluOp::Rem => MOp::RemRR,
        AluOp::Divu => MOp::DivuRR,
        AluOp::Remu => MOp::RemuRR,
        AluOp::And => MOp::AndRR,
        AluOp::Or => MOp::OrRR,
        AluOp::Xor => MOp::XorRR,
        AluOp::Nor => MOp::NorRR,
        AluOp::Sll => MOp::SllRR,
        AluOp::Srl => MOp::SrlRR,
        AluOp::Sra => MOp::SraRR,
        AluOp::Slt => MOp::SltRR,
        AluOp::Sltu => MOp::SltuRR,
    }
}

fn alu_ri(op: AluOp) -> MOp {
    match op {
        AluOp::Add => MOp::AddRI,
        AluOp::Sub => MOp::SubRI,
        AluOp::Mul => MOp::MulRI,
        AluOp::Div => MOp::DivRI,
        AluOp::Rem => MOp::RemRI,
        AluOp::Divu => MOp::DivuRI,
        AluOp::Remu => MOp::RemuRI,
        AluOp::And => MOp::AndRI,
        AluOp::Or => MOp::OrRI,
        AluOp::Xor => MOp::XorRI,
        AluOp::Nor => MOp::NorRI,
        AluOp::Sll => MOp::SllRI,
        AluOp::Srl => MOp::SrlRI,
        AluOp::Sra => MOp::SraRI,
        AluOp::Slt => MOp::SltRI,
        AluOp::Sltu => MOp::SltuRI,
    }
}

fn branch_op(cond: CmpOp) -> MOp {
    match cond {
        CmpOp::Eq => MOp::Beq,
        CmpOp::Ne => MOp::Bne,
        CmpOp::Lt => MOp::Blt,
        CmpOp::Ge => MOp::Bge,
        CmpOp::Ltu => MOp::Bltu,
        CmpOp::Geu => MOp::Bgeu,
    }
}

#[allow(clippy::cast_possible_truncation, clippy::cast_possible_wrap)]
fn decode_instr(instr: &Instr, fpool: &mut Vec<f64>) -> MicroOp {
    match *instr {
        Instr::Alu { op, rd, rs, rt } => MicroOp::regs(
            alu_rr(op),
            rd.index() as u8,
            rs.index() as u8,
            rt.index() as u8,
        ),
        Instr::AluImm { op, rd, rs, imm } => {
            MicroOp::imm(alu_ri(op), rd.index() as u8, rs.index() as u8, imm)
        }
        Instr::Li { rd, imm } => MicroOp::imm(MOp::Li, rd.index() as u8, 0, imm),
        Instr::Load {
            width,
            signed,
            rd,
            base,
            off,
        } => {
            let op = match (width, signed) {
                (MemWidth::Byte, true) => MOp::Lb,
                (MemWidth::Byte, false) => MOp::Lbu,
                (MemWidth::Half, true) => MOp::Lh,
                (MemWidth::Half, false) => MOp::Lhu,
                (MemWidth::Word, _) => MOp::Lw,
            };
            MicroOp::imm(op, rd.index() as u8, base.index() as u8, off)
        }
        Instr::Store {
            width,
            rs,
            base,
            off,
        } => {
            let op = match width {
                MemWidth::Byte => MOp::Sb,
                MemWidth::Half => MOp::Sh,
                MemWidth::Word => MOp::Sw,
            };
            MicroOp::imm(op, rs.index() as u8, base.index() as u8, off)
        }
        Instr::Branch {
            cond,
            rs,
            rt,
            target,
        } => MicroOp::imm(
            branch_op(cond),
            rs.index() as u8,
            rt.index() as u8,
            target as i32,
        ),
        Instr::Jump { target } => MicroOp::imm(MOp::Jump, 0, 0, target as i32),
        Instr::Call { target } => MicroOp::imm(
            MOp::Call,
            certa_isa::reg::RA.index() as u8,
            0,
            target as i32,
        ),
        Instr::JumpReg { rs } => MicroOp::regs(MOp::JumpReg, rs.index() as u8, 0, 0),
        Instr::Fpu { op, fd, fs, ft } => {
            let m = match op {
                FpuOp::Add => MOp::FAdd,
                FpuOp::Sub => MOp::FSub,
                FpuOp::Mul => MOp::FMul,
                FpuOp::Div => MOp::FDiv,
                FpuOp::Min => MOp::FMin,
                FpuOp::Max => MOp::FMax,
            };
            MicroOp::regs(m, fd.index() as u8, fs.index() as u8, ft.index() as u8)
        }
        Instr::FMov { fd, fs } => MicroOp::regs(MOp::FMov, fd.index() as u8, fs.index() as u8, 0),
        Instr::FAbs { fd, fs } => MicroOp::regs(MOp::FAbs, fd.index() as u8, fs.index() as u8, 0),
        Instr::FNeg { fd, fs } => MicroOp::regs(MOp::FNeg, fd.index() as u8, fs.index() as u8, 0),
        Instr::FSqrt { fd, fs } => {
            MicroOp::regs(MOp::FSqrt, fd.index() as u8, fs.index() as u8, 0)
        }
        Instr::FLi { fd, value } => {
            let idx = fpool.len() as i32;
            fpool.push(value);
            MicroOp::imm(MOp::FLi, fd.index() as u8, 0, idx)
        }
        Instr::FLoad { fd, base, off } => {
            MicroOp::imm(MOp::FLd, fd.index() as u8, base.index() as u8, off)
        }
        Instr::FStore { fs, base, off } => {
            MicroOp::imm(MOp::FSd, fs.index() as u8, base.index() as u8, off)
        }
        Instr::CvtIF { fd, rs } => MicroOp::regs(MOp::CvtIF, fd.index() as u8, rs.index() as u8, 0),
        Instr::CvtFI { rd, fs } => MicroOp::regs(MOp::CvtFI, rd.index() as u8, fs.index() as u8, 0),
        Instr::FCmp { op, rd, fs, ft } => {
            let m = match op {
                FCmpOp::Eq => MOp::FCeq,
                FCmpOp::Lt => MOp::FClt,
                FCmpOp::Le => MOp::FCle,
            };
            MicroOp::regs(m, rd.index() as u8, fs.index() as u8, ft.index() as u8)
        }
        Instr::Halt => MicroOp::new(MOp::Halt),
        Instr::Nop => MicroOp::new(MOp::Nop),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use certa_isa::reg;

    /// The documented ALU discriminant layout: decoding `AluOp::ALL[i]`
    /// lands on discriminant `i` (register-register) / `16 + i`
    /// (register-immediate).
    #[test]
    fn alu_discriminants_follow_all_order() {
        for (i, &op) in AluOp::ALL.iter().enumerate() {
            assert_eq!(alu_rr(op) as u8, i as u8, "{op:?} RR");
            assert_eq!(alu_ri(op) as u8, 16 + i as u8, "{op:?} RI");
        }
    }

    #[test]
    fn micro_op_is_12_bytes() {
        assert_eq!(std::mem::size_of::<MicroOp>(), 12);
    }

    #[test]
    fn decode_is_one_to_one_with_code() {
        let mut a = certa_asm::Asm::new();
        a.func("main", false);
        a.li(reg::T0, 5);
        a.addi(reg::T0, reg::T0, 1);
        a.fli(reg::F0, 2.5);
        a.fli(reg::F1, -1.0);
        a.halt();
        a.endfunc();
        let p = a.assemble().unwrap();
        let d = DecodedProgram::new(&p);
        assert_eq!(d.len(), p.code.len());
        assert_eq!(d.fpool(), &[2.5, -1.0]);
        assert_eq!(d.ops()[0].op, MOp::Li);
        assert_eq!(d.ops()[1].op, MOp::AddRI);
        assert_eq!(d.ops()[4].op, MOp::Halt);
    }

    #[test]
    fn fusion_marks_fall_through_heads_only() {
        let mut a = certa_asm::Asm::new();
        let buf = a.data_zero(8);
        a.func("main", false);
        a.la(reg::T0, buf); //  0: li     — head
        a.lw(reg::T1, 0, reg::T0); //  1: load   — head (fall-through on success)
        a.addi(reg::T1, reg::T1, 1); //  2: alui   — head
        a.bnez(reg::T1, "skip"); //  3: branch — head (fall-through when not taken)
        a.j("main"); //  4: jump   — never falls through
        a.label("skip");
        a.nop(); //  5: nop    — head
        a.halt(); //  6: halt   — never falls through (and last)
        a.endfunc();
        let p = a.assemble().unwrap();
        let d = DecodedProgram::new(&p);
        let flags: Vec<u8> = d.ops().iter().map(|m| m.fuse).collect();
        assert_eq!(flags, [1, 1, 1, 1, 0, 1, 0]);
        assert_eq!(d.fused_pairs(), 5);
    }

    #[test]
    fn superblocks_cover_block_entries_only() {
        let mut a = certa_asm::Asm::new();
        a.func("main", false);
        a.li(reg::T0, 3); //  0: block entry (program entry)
        a.label("loop");
        a.addi(reg::T0, reg::T0, -1); //  1: block entry (branch target)
        a.bnez(reg::T0, "loop"); //  2
        a.halt(); //  3: block entry (after branch)
        a.endfunc();
        let p = a.assemble().unwrap();
        let d = DecodedProgram::with_policy(
            &p,
            &SuperblockPolicy {
                min_len: 1,
                ..SuperblockPolicy::default()
            },
        );
        assert!(d.superblock_count() >= 2);
        // Entries only at leaders: 0, 1, 3.
        let entries: Vec<usize> = (0..d.len())
            .filter(|&i| d.sb_entry()[i] != 0)
            .collect();
        assert!(entries.contains(&0));
        assert!(entries.contains(&1));
        assert!(!entries.contains(&2), "mid-block pc is never a trace entry");
    }

    #[test]
    fn traces_follow_jumps_and_stop_on_cycles() {
        let mut a = certa_asm::Asm::new();
        a.func("main", false);
        a.li(reg::T0, 1); // 0
        a.j("tail"); // 1: traced through
        a.label("dead");
        a.nop(); // 2
        a.label("tail");
        a.addi(reg::T0, reg::T0, 1); // 3
        a.halt(); // 4
        a.endfunc();
        let p = a.assemble().unwrap();
        let d = DecodedProgram::with_policy(
            &p,
            &SuperblockPolicy {
                min_len: 1,
                ..SuperblockPolicy::default()
            },
        );
        // The trace from instruction 0 follows the jump into `tail` and
        // ends at the halt: instructions {0, 1, 3, 4}.
        let id = d.sb_entry()[0];
        assert!(id != 0, "entry block earns a trace");
        let info = d.superblocks()[(id - 1) as usize];
        assert_eq!(info.instrs, 4);
        let ats: Vec<u32> = d.sb_ops()[info.start as usize..(info.start + info.elems) as usize]
            .iter()
            .flat_map(|s| {
                if s.op2.fuse == COMBO_NONE {
                    vec![s.at]
                } else {
                    vec![s.at, s.at2]
                }
            })
            .collect();
        assert_eq!(ats, [0, 1, 3, 4]);

        // A self-loop cannot trace forever.
        let mut a = certa_asm::Asm::new();
        a.func("main", false);
        a.label("spin");
        a.j("spin");
        a.endfunc();
        let p = a.assemble().unwrap();
        let d = DecodedProgram::with_policy(
            &p,
            &SuperblockPolicy {
                min_len: 1,
                ..SuperblockPolicy::default()
            },
        );
        assert!(d.superblock_count() <= 1);
        assert!(d.superblock_ops() <= 1);
    }

    #[test]
    fn traces_follow_calls_and_returns() {
        let mut a = certa_asm::Asm::new();
        a.func("sq", false);
        a.mul(reg::V0, reg::A0, reg::A0); // 0
        a.ret(); // 1
        a.endfunc();
        a.func("main", false);
        a.li(reg::A0, 4); // 2 (entry)
        a.call("sq"); // 3
        a.halt(); // 4
        a.endfunc();
        let p = a.assemble().unwrap();
        let d = DecodedProgram::with_policy(
            &p,
            &SuperblockPolicy {
                min_len: 1,
                ..SuperblockPolicy::default()
            },
        );
        let id = d.sb_entry()[2];
        assert!(id != 0);
        let info = d.superblocks()[(id - 1) as usize];
        // li, call, callee mul, callee ret, then the return point (halt).
        assert_eq!(info.instrs, 5);
        let first = d.sb_ops()[info.start as usize];
        assert_eq!(first.at, 2);
    }

    #[test]
    fn uncovered_neighbours_are_single_elements() {
        let mut a = certa_asm::Asm::new();
        a.func("main", false);
        a.li(reg::T0, 7); // 0: li -> AddRI against $zero ┐ CH_ADDI_SLT
        a.slt(reg::T1, reg::T2, reg::T0); // 1             ┘
        a.xor(reg::T2, reg::T1, reg::T0); // 2: no chain starts with xor+add
        a.add(reg::T3, reg::T2, reg::T0); // 3 ┐ CH_ADD_ADD
        a.add(reg::T3, reg::T3, reg::T1); // 4 ┘
        a.halt(); // 5
        a.endfunc();
        let p = a.assemble().unwrap();
        let d = DecodedProgram::with_policy(
            &p,
            &SuperblockPolicy {
                min_len: 1,
                ..SuperblockPolicy::default()
            },
        );
        let id = d.sb_entry()[0];
        let info = d.superblocks()[(id - 1) as usize];
        assert_eq!(info.instrs, 6);
        assert_eq!(info.elems, 4);
        let body = &d.sb_ops()[info.start as usize..(info.start + info.elems) as usize];
        assert_eq!(body[0].op2.fuse, CH_ADDI_SLT);
        assert_eq!(body[0].op.op, MOp::AddRI, "li normalized to addi-from-zero");
        assert_eq!(body[0].op.b, 0);
        assert_eq!(
            (body[1].op.op, body[1].op2.fuse),
            (MOp::XorRR, COMBO_NONE),
            "a neighbour no chain covers stays a single element"
        );
        assert_eq!(body[2].op2.fuse, CH_ADD_ADD);
        assert_eq!((body[2].at, body[2].at2), (3, 4));
        assert_eq!((body[3].op.op, body[3].op2.fuse), (MOp::Halt, COMBO_NONE));
        assert_eq!(d.superblock_specialized(), 2, "the two chains");
    }

    #[test]
    fn taken_path_unrolls_loop_laps_and_truncates_to_latch() {
        let mut a = certa_asm::Asm::new();
        a.func("main", false);
        a.li(reg::T0, 100); // 0
        a.label("loop");
        a.addi(reg::T0, reg::T0, -1); // 1
        a.addi(reg::T1, reg::T1, 2); // 2
        a.bnez(reg::T0, "loop"); // 3: loop-closing back edge
        a.halt(); // 4
        a.endfunc();
        let p = a.assemble().unwrap();
        let d = DecodedProgram::with_policy(
            &p,
            &SuperblockPolicy {
                min_len: 1,
                max_len: 16,
                ..SuperblockPolicy::default()
            },
        );
        // The entry trace lays {0} then unrolls {1,2,3} laps up to the
        // cap, truncated back to a complete lap: 0 + 5×{1,2,3} = 16
        // instructions exactly (the cap), ending at the latch.
        let id = d.sb_entry()[0];
        assert!(id != 0);
        let info = d.superblocks()[(id - 1) as usize];
        assert_eq!(info.instrs, 16, "truncation keeps complete laps only");
        let body = &d.sb_ops()[info.start as usize..(info.start + info.elems) as usize];
        let last = body.last().unwrap();
        assert_eq!(
            last.at2, 3,
            "the trace ends at the loop-closing branch, so the taken \
             continuation re-enters at the header"
        );
        // The loop-header trace unrolls too: {1,2,3} × 5 = 15.
        let id = d.sb_entry()[1];
        assert!(id != 0);
        let info = d.superblocks()[(id - 1) as usize];
        assert_eq!(info.instrs, 15);
        // addi, addi, bnez matches no chain, so every element is single;
        // whatever the grouping, the elements retire all 15 instructions.
        let body = &d.sb_ops()[info.start as usize..(info.start + info.elems) as usize];
        let counted: u32 = body
            .iter()
            .map(|s| match s.op2.fuse {
                COMBO_NONE => 1,
                tag if tag >= CH3_FIRST => 3,
                _ => 2,
            })
            .sum();
        assert_eq!(counted, 15);
    }

    #[test]
    fn disabled_policy_builds_no_superblocks() {
        let mut a = certa_asm::Asm::new();
        a.func("main", false);
        a.li(reg::T0, 1);
        a.addi(reg::T0, reg::T0, 1);
        a.halt();
        a.endfunc();
        let p = a.assemble().unwrap();
        let d = DecodedProgram::with_policy(&p, &SuperblockPolicy::disabled());
        assert_eq!(d.superblock_count(), 0);
        assert!(d.sb_entry().iter().all(|&e| e == 0));
    }

    #[test]
    fn seeded_policy_skips_cold_blocks() {
        let mut a = certa_asm::Asm::new();
        a.func("main", false);
        a.li(reg::T0, 1); // 0: hot
        a.addi(reg::T0, reg::T0, 1); // 1
        a.beqz(reg::T0, "cold"); // 2
        a.halt(); // 3
        a.label("cold");
        a.nop(); // 4: never executed in the golden run
        a.nop(); // 5
        a.halt(); // 6
        a.endfunc();
        let p = a.assemble().unwrap();
        let mut counts = vec![1u64; p.code.len()];
        counts[4] = 0;
        counts[5] = 0;
        counts[6] = 0;
        let d = DecodedProgram::with_policy(
            &p,
            &SuperblockPolicy {
                min_len: 1,
                ..SuperblockPolicy::seeded(counts)
            },
        );
        assert!(d.sb_entry()[0] != 0, "hot entry gets a trace");
        assert_eq!(d.sb_entry()[4], 0, "cold block is skipped");
    }

    #[test]
    fn sequential_flags_reflect_layout() {
        let mut a = certa_asm::Asm::new();
        a.func("main", false);
        a.fli(reg::F0, 1.0); // 0 (float: no chain covers fli, so single)
        a.fli(reg::F1, 2.0); // 1
        a.j("next"); // 2: traced through — non-sequential continuation
        a.label("dead");
        a.nop(); // 3
        a.label("next");
        a.fli(reg::F2, 3.0); // 4
        a.halt(); // 5
        a.endfunc();
        let p = a.assemble().unwrap();
        let d = DecodedProgram::with_policy(
            &p,
            &SuperblockPolicy {
                min_len: 1,
                ..SuperblockPolicy::default()
            },
        );
        let id = d.sb_entry()[0];
        let info = d.superblocks()[(id - 1) as usize];
        let body = &d.sb_ops()[info.start as usize..(info.start + info.elems) as usize];
        // Five single elements: 0 and 1 fall sequentially into their
        // successors; the jump's continuation to 4 is NOT sequential (it
        // continues via the dynamic-target rule); 4 falls into the halt,
        // which is terminal.
        assert_eq!(info.elems, 5);
        assert!(body.iter().all(|s| s.op2.fuse == COMBO_NONE));
        let flags: Vec<u8> = body.iter().map(|s| s.op.fuse).collect();
        assert_eq!(flags, [1, 1, 0, 1, 0]);
    }

    #[test]
    fn last_instruction_is_never_a_head() {
        let mut a = certa_asm::Asm::new();
        a.func("main", false);
        a.li(reg::T0, 1);
        a.endfunc();
        let p = a.assemble().unwrap();
        let d = DecodedProgram::new(&p);
        assert_eq!(d.ops()[0].fuse, 0, "no successor to fuse with");
    }
}
