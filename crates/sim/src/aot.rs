//! Tier 4 support: the execution context and exit protocol for
//! ahead-of-time compiled native regions.
//!
//! The `certa-aot` crate walks a program's CFG and emits Rust source — one
//! `match` arm per basic block, guest registers lowered to locals — which a
//! consumer (`certa-native`'s `build.rs`) compiles into its own binary as
//! [`AotProgram`] values. [`crate::Machine::run_aot`] drives such a program:
//! it enters native code at block boundaries and falls back to the
//! interpreter tiers everywhere native code cannot go (mid-block resume
//! pcs, sub-block pause tails, indirect jumps to uncompiled targets).
//!
//! The contract between generated code and the machine is deliberately
//! narrow and lives entirely in [`AotCtx`]:
//!
//! * generated code reads the entry state ([`AotCtx::pc`],
//!   [`AotCtx::icount`], [`AotCtx::vp`], [`AotCtx::stop`], the register
//!   files), executes whole basic blocks, and reaches guest memory only
//!   through the checked accessors ([`AotCtx::lw`], [`AotCtx::sw`], …)
//!   which share one implementation of the memory model with every
//!   interpreter tier;
//! * before *every* return it spills exact architectural state back
//!   ([`AotCtx::set_state`], [`AotCtx::put_regs`], [`AotCtx::put_fregs`])
//!   — exact pc, exact icount (including a crashing instruction, excluding
//!   a failed fetch), exact value-producing count (excluding the crashing
//!   instruction's writeback) — so the machine observes precisely the
//!   state the reference interpreter would have left;
//! * the [`AotExit`] discriminant tells the machine why native execution
//!   stopped and therefore which tier handles the next instruction.
//!
//! A hook-free run ([`crate::WritebackHook::IS_NOOP`]) executes every
//! block it can natively. A hook that must observe writebacks — the fault
//! injector — instead opens an *eligibility window*
//! ([`crate::WritebackHook::native_window`]): how many of the writebacks
//! it counts native code may retire unseen (for the injector, the
//! distance to its next planned flip), plus the per-block table of those
//! counts. The windowed instantiation ([`AotProgram::run_windowed`])
//! guards every block with `elig + ELIG[b] > elig_stop` beside the
//! instruction-count guard and adds `ELIG[b]` at block close, so native
//! code stops at the block holding the next observed writeback and
//! returns [`AotExit::Bounded`]. The machine then runs the hook over the
//! rest of that block on the interpreter in one call and re-enters native
//! code at the next leader; a mid-block pc (every restored trial starts
//! on one) is handed off the same way. No hook code is compiled into
//! native regions, and `ELIG` is a runtime table, so one compiled module
//! serves every protection regime and tag map. Both sides derive block
//! boundaries from the one CFG the code was generated from
//! ([`AotProgram::block_starts`]), so they cannot disagree about which
//! block a flip lands in.

use crate::machine::CrashKind;
use crate::mem::{load_f64_mem, load_mem, store_f64_mem, store_mem, PagedMem};
use certa_isa::{MemWidth, Program};
use std::ops::Range;

/// Why a native region returned control to the interpreter loop.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AotExit {
    /// The current pc has no compiled region entry (mid-block resume pc,
    /// indirect jump to an uncompiled target, or control fell off the end
    /// of the code array). The machine retires one instruction on the
    /// interpreter and retries native entry.
    Escape,
    /// Executing the next full block would cross the pause or watchdog
    /// boundary (`icount + block_len > stop`). The machine hands the
    /// sub-block tail to the interpreter, which stops exactly at the
    /// boundary.
    Bounded,
    /// The program executed `halt`; pc is on the halt instruction and
    /// icount includes it.
    Halted,
    /// A memory access crashed; pc is on the faulting instruction, icount
    /// includes it, and the value-producing count excludes its writeback.
    Crashed(CrashKind),
}

/// Mutable view of a [`crate::Machine`]'s architectural state handed to
/// generated native code for the duration of one region-execution call.
///
/// Constructed only by the machine (the fields are disjoint borrows of its
/// register files, paged memory, and profile counters); generated code
/// sees the public accessors below and nothing else.
#[derive(Debug)]
pub struct AotCtx<'m> {
    regs: &'m mut [u32; 32],
    fregs: &'m mut [f64; 32],
    mem: &'m mut PagedMem,
    exec_counts: &'m mut [u64],
    pc: u64,
    icount: u64,
    vp: u64,
    stop: u64,
    /// Per-block eligible-writeback counts (`ELIG`); empty outside
    /// windowed regions.
    elig_table: &'m [u32],
    /// Eligible writebacks a windowed region may retire.
    elig_stop: u64,
    /// Eligible writebacks the region retired in whole blocks, as spilled.
    elig: u64,
}

impl<'m> AotCtx<'m> {
    #[allow(clippy::too_many_arguments)]
    pub(crate) fn new(
        regs: &'m mut [u32; 32],
        fregs: &'m mut [f64; 32],
        mem: &'m mut PagedMem,
        exec_counts: &'m mut [u64],
        pc: u64,
        icount: u64,
        vp: u64,
        stop: u64,
        elig_table: &'m [u32],
        elig_stop: u64,
    ) -> Self {
        AotCtx {
            regs,
            fregs,
            mem,
            exec_counts,
            pc,
            icount,
            vp,
            stop,
            elig_table,
            elig_stop,
            elig: 0,
        }
    }

    /// Eligible writebacks retired in whole blocks, as last spilled.
    pub(crate) fn eligible_retired(&self) -> u64 {
        self.elig
    }

    /// `(pc, icount, value_producing)` as last spilled (or as entered, if
    /// the region returned before touching anything).
    pub(crate) fn state(&self) -> (u64, u64, u64) {
        (self.pc, self.icount, self.vp)
    }

    /// Program counter at region entry.
    #[inline(always)]
    #[must_use]
    pub fn pc(&self) -> u64 {
        self.pc
    }

    /// Dynamic instruction count at region entry.
    #[inline(always)]
    #[must_use]
    pub fn icount(&self) -> u64 {
        self.icount
    }

    /// Value-producing writeback count at region entry.
    #[inline(always)]
    #[must_use]
    pub fn vp(&self) -> u64 {
        self.vp
    }

    /// The nearest instruction-count boundary (pause target or watchdog
    /// budget): a block may only execute natively when retiring all of it
    /// stays at or below this bound.
    #[inline(always)]
    #[must_use]
    pub fn stop(&self) -> u64 {
        self.stop
    }

    /// The per-block eligible-writeback table (`ELIG`) of a windowed
    /// region, indexed by block id; empty otherwise.
    #[inline(always)]
    #[must_use]
    pub fn elig_table(&self) -> &'m [u32] {
        self.elig_table
    }

    /// Eligible writebacks a windowed region may retire: a block may only
    /// execute natively when retiring all of its eligible writebacks
    /// stays at or below this bound.
    #[inline(always)]
    #[must_use]
    pub fn elig_stop(&self) -> u64 {
        self.elig_stop
    }

    /// Integer register value at region entry (index taken modulo 32).
    #[inline(always)]
    #[must_use]
    pub fn reg(&self, i: usize) -> u32 {
        self.regs[i & 31]
    }

    /// Floating-point register value at region entry (index modulo 32).
    #[inline(always)]
    #[must_use]
    pub fn freg(&self, i: usize) -> f64 {
        self.fregs[i & 31]
    }

    /// Spills the control counters before a return.
    #[inline(always)]
    pub fn set_state(&mut self, pc: u64, icount: u64, vp: u64) {
        self.pc = pc;
        self.icount = icount;
        self.vp = vp;
    }

    /// Spills the eligible writebacks retired in whole blocks before a
    /// return (windowed regions only).
    #[inline(always)]
    pub fn set_elig(&mut self, elig: u64) {
        self.elig = elig;
    }

    /// Spills the integer register file before a return (element 0 is
    /// ignored — `$zero` stays zero).
    #[inline(always)]
    pub fn put_regs(&mut self, regs: [u32; 32]) {
        *self.regs = regs;
        self.regs[0] = 0;
    }

    /// Spills the floating-point register file before a return.
    #[inline(always)]
    pub fn put_fregs(&mut self, fregs: [f64; 32]) {
        *self.fregs = fregs;
    }

    /// Bumps per-instruction execution counts for instructions
    /// `start..end`, one retirement each (profiled regions only; the
    /// unprofiled monomorphization never calls this, so the machine hands
    /// an empty slice without cost).
    #[inline(always)]
    pub fn bump_counts(&mut self, start: usize, end: usize) {
        for c in &mut self.exec_counts[start..end] {
            *c += 1;
        }
    }

    /// Unsigned byte load.
    ///
    /// # Errors
    ///
    /// Returns the [`CrashKind`] the reference interpreter would crash
    /// with (all the accessors below do likewise).
    #[inline(always)]
    pub fn lbu(&self, addr: u32) -> Result<u32, CrashKind> {
        load_mem(self.mem, addr, MemWidth::Byte, false)
    }

    /// Sign-extending byte load.
    ///
    /// # Errors
    ///
    /// See [`AotCtx::lbu`].
    #[inline(always)]
    pub fn lb(&self, addr: u32) -> Result<u32, CrashKind> {
        load_mem(self.mem, addr, MemWidth::Byte, true)
    }

    /// Unsigned halfword load.
    ///
    /// # Errors
    ///
    /// See [`AotCtx::lbu`].
    #[inline(always)]
    pub fn lhu(&self, addr: u32) -> Result<u32, CrashKind> {
        load_mem(self.mem, addr, MemWidth::Half, false)
    }

    /// Sign-extending halfword load.
    ///
    /// # Errors
    ///
    /// See [`AotCtx::lbu`].
    #[inline(always)]
    pub fn lh(&self, addr: u32) -> Result<u32, CrashKind> {
        load_mem(self.mem, addr, MemWidth::Half, true)
    }

    /// Word load.
    ///
    /// # Errors
    ///
    /// See [`AotCtx::lbu`].
    #[inline(always)]
    pub fn lw(&self, addr: u32) -> Result<u32, CrashKind> {
        load_mem(self.mem, addr, MemWidth::Word, false)
    }

    /// Byte store.
    ///
    /// # Errors
    ///
    /// See [`AotCtx::lbu`].
    #[inline(always)]
    pub fn sb(&mut self, addr: u32, value: u32) -> Result<(), CrashKind> {
        store_mem(self.mem, addr, MemWidth::Byte, value)
    }

    /// Halfword store.
    ///
    /// # Errors
    ///
    /// See [`AotCtx::lbu`].
    #[inline(always)]
    pub fn sh(&mut self, addr: u32, value: u32) -> Result<(), CrashKind> {
        store_mem(self.mem, addr, MemWidth::Half, value)
    }

    /// Word store.
    ///
    /// # Errors
    ///
    /// See [`AotCtx::lbu`].
    #[inline(always)]
    pub fn sw(&mut self, addr: u32, value: u32) -> Result<(), CrashKind> {
        store_mem(self.mem, addr, MemWidth::Word, value)
    }

    /// 64-bit float load (8-byte aligned).
    ///
    /// # Errors
    ///
    /// See [`AotCtx::lbu`].
    #[inline(always)]
    pub fn lfd(&self, addr: u32) -> Result<f64, CrashKind> {
        load_f64_mem(self.mem, addr)
    }

    /// 64-bit float store (8-byte aligned).
    ///
    /// # Errors
    ///
    /// See [`AotCtx::lbu`].
    #[inline(always)]
    pub fn sfd(&mut self, addr: u32, value: f64) -> Result<(), CrashKind> {
        store_f64_mem(self.mem, addr, value)
    }
}

/// One ahead-of-time compiled program: its monomorphized region executors
/// (`run` without profiling, `run_profiled` bumping `exec_counts`,
/// `run_windowed` bounded by an eligible-writeback window) plus its block
/// boundaries and the identity of the program it was generated from:
/// length and [`certa_isa::Program::code_fingerprint`]. Whoever pairs code
/// with a program checks both once ([`AotProgram::matches`]); the machine
/// re-checks only the length on every run.
#[derive(Debug, Clone, Copy)]
pub struct AotProgram {
    /// Program name the code was generated from (diagnostics).
    pub name: &'static str,
    /// Length of the instruction stream the code was generated from;
    /// [`crate::Machine::run_aot`] asserts this against its program.
    pub code_len: usize,
    /// [`certa_isa::Program::code_fingerprint`] of the program the code was
    /// generated from.
    pub fingerprint: u64,
    /// First instruction of every basic block, ascending and indexed by
    /// block id: the CFG the native code (and its `BLOCK_AT` entry table)
    /// was generated from. Block `b` spans `block_starts[b]` up to the
    /// next start (or `code_len`).
    pub block_starts: &'static [u32],
    /// Executes native regions starting at the context's pc until an
    /// [`AotExit`], without per-instruction profiling.
    pub run: fn(&mut AotCtx<'_>) -> AotExit,
    /// As `run`, but bumps per-instruction execution counts.
    pub run_profiled: fn(&mut AotCtx<'_>) -> AotExit,
    /// As `run`, but a block also executes natively only when its
    /// eligible writebacks ([`AotCtx::elig_table`]) fit under
    /// [`AotCtx::elig_stop`].
    pub run_windowed: fn(&mut AotCtx<'_>) -> AotExit,
}

impl AotProgram {
    /// Whether this code was generated from `program`: same length and
    /// same code fingerprint. A length match alone is not enough — an
    /// unrelated program can have any given length.
    #[must_use]
    pub fn matches(&self, program: &Program) -> bool {
        self.code_len == program.code.len() && self.fingerprint == program.code_fingerprint()
    }

    /// The instruction range of the block holding instruction `pc`.
    ///
    /// # Panics
    ///
    /// Panics if `pc` is not below [`AotProgram::code_len`].
    #[must_use]
    pub fn block_range(&self, pc: usize) -> Range<usize> {
        assert!(pc < self.code_len, "pc {pc} is outside the program");
        let b = self.block_starts.partition_point(|&s| s as usize <= pc) - 1;
        let end = self
            .block_starts
            .get(b + 1)
            .map_or(self.code_len, |&s| s as usize);
        self.block_starts[b] as usize..end
    }

    /// Folds a per-instruction indicator of the writebacks a hook counts
    /// into per-block totals: the `ELIG` table a
    /// [`crate::WritebackHook::native_window`] hands windowed regions.
    ///
    /// # Panics
    ///
    /// Panics if `eligible` does not cover exactly this program.
    #[must_use]
    pub fn block_counts(&self, eligible: &[bool]) -> Vec<u32> {
        assert_eq!(
            eligible.len(),
            self.code_len,
            "eligibility does not match the instruction stream"
        );
        let ends = self.block_starts[1..]
            .iter()
            .map(|&s| s as usize)
            .chain([self.code_len]);
        self.block_starts
            .iter()
            .zip(ends)
            .map(|(&start, end)| {
                eligible[start as usize..end].iter().filter(|&&e| e).count() as u32
            })
            .collect()
    }
}

/// What a writeback hook lets native code do between its observations
/// (see [`crate::WritebackHook::native_window`]).
#[derive(Debug, Clone, Copy)]
pub struct NativeWindow<'h> {
    /// Per instruction: whether its writeback is one the hook counts (it
    /// produces a value and the hook's eligibility admits it).
    pub eligible: &'h [bool],
    /// Per block of the [`AotProgram`]: the eligible writebacks the whole
    /// block retires ([`AotProgram::block_counts`] of `eligible`).
    pub per_block: &'h [u32],
    /// Eligible writebacks native code may retire before the hook must
    /// observe one; `u64::MAX` for no bound.
    pub budget: u64,
}
