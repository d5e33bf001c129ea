//! # certa-sim
//!
//! Functional simulator for [`certa-isa`](certa_isa) programs — the
//! reproduction's stand-in for the SimpleScalar environment used by the
//! IISWC 2006 paper.
//!
//! The simulator executes the [`certa_isa::Instr`] enum directly (no binary
//! encoding) and provides the three capabilities the paper's methodology
//! needs:
//!
//! 1. **A writeback hook** ([`WritebackHook`]) invoked on every
//!    value-producing instruction, through which the fault injector in
//!    `certa-fault` flips bits in destination-register results.
//! 2. **A crash taxonomy** ([`CrashKind`]): out-of-bounds or misaligned
//!    memory accesses and wild program counters terminate the run — these
//!    are the paper's "crash" catastrophic failures.
//! 3. **A watchdog** ([`MachineConfig::max_instructions`]): runs exceeding
//!    the budget are classified as the paper's "infinite execution"
//!    catastrophic failures.
//!
//! ## Execution pipeline
//!
//! Lowering is a four-stage pipeline — **decode → fuse → superblock →
//! dispatch** — producing three interpreter execution tiers (reference
//! tree-walker, fused micro-op dispatch, superblock traces), plus a
//! fourth, ahead-of-time compiled tier driven by [`Machine::run_aot`]
//! (native Rust code generated per program by the `certa-aot` crate; see
//! the [`aot`] module docs); see `ARCHITECTURE.md` at the workspace root
//! for the full picture.
//!
//! 1. **Decode** ([`DecodedProgram::new`]): the [`certa_isa::Instr`] stream
//!    is lowered once per program into a dense micro-op array — register
//!    operands as raw `u8` indices, branch/jump targets and memory offsets
//!    in a single `i32` immediate, and every sub-operation selector (ALU
//!    op, access width, sign extension, branch condition) folded into the
//!    opcode byte. The array is strictly 1:1 with `Program::code`, so the
//!    architectural `pc`, hook instruction indices, and profiling indices
//!    are untouched by predecoding.
//! 2. **Fuse**: every instruction that can fall through to an existing
//!    successor ([`certa_isa::Instr::can_fall_through`]) is marked as a
//!    pair head; whenever the head actually falls through at runtime, the
//!    dispatch loop retires its successor in the same iteration. This
//!    covers the assembler's common idioms — compare + branch, address
//!    compute + load/store, `li` + ALU — on every loop iteration.
//! 3. **Superblock** ([`SuperblockPolicy`]): a control-flow graph
//!    ([`certa_core::Cfg`]) of the program drives a trace pass — each
//!    profitable basic-block entry gets a straight-line run of micro-ops
//!    following fall-through edges, unconditional jumps, and static
//!    call/return linkage, with conditional branches embedded as side-exit
//!    guards and adjacent ops that form a measured-hot chain (address
//!    generation, loop latches, accumulators) retired by one dispatch.
//!    The policy picks entries by static trace length or
//!    seeded with a profiled run's `exec_counts` (the fault campaign seeds
//!    trial machines with the golden run's counts).
//! 4. **Dispatch** ([`Machine::run`], [`Machine::run_until`]): trace
//!    bodies execute with watchdog/pause checks hoisted to trace
//!    boundaries; everything else goes through the flat fused per-op
//!    match. Both are monomorphized over const-generic `PROFILE` and
//!    `BOUNDED` flags so unprofiled, unbounded runs carry zero
//!    per-instruction overhead for profiling or pause targets. A `pc`
//!    that is not a trace entry (e.g. resuming from a snapshot taken
//!    mid-trace) simply dispatches per-op until control reaches one.
//!
//! **Invariants fusion and superblocks must preserve** (enforced by the
//! workspace differential suite in `tests/differential.rs`, including a
//! seeded random-program generator):
//!
//! * every instruction bumps `icount` and per-instruction
//!   [`Machine::exec_counts`] individually — fused pairs, chain elements,
//!   and traces are invisible in every profile;
//! * every intermediate writeback flows through the [`WritebackHook`]
//!   with its own instruction index, in program order, so fault-injection
//!   sites are identical across tiers;
//! * neither a fused pair nor a trace ever straddles a watchdog or
//!   [`Machine::run_until`] boundary — near a boundary execution falls
//!   back to single ops — so bounded runs pause at exactly the requested
//!   instruction count;
//! * crashes report the faulting instruction's `pc` and count it exactly
//!   as the reference interpreter does, wherever inside a trace or pair
//!   they strike.
//!
//! The original tree-walking interpreter survives as
//! [`Machine::run_reference`] / [`Machine::run_until_reference`]: the
//! differential oracle the predecoded pipeline is tested against
//! (identical `Outcome`, output bytes, instruction counts, `exec_counts`,
//! and hook call sequences).
//!
//! ## Checkpointing
//!
//! The simulator supports snapshot/restore of its complete architectural
//! state ([`Snapshot`], [`Machine::snapshot`], [`Machine::restore`],
//! [`Machine::from_snapshot`]) and bounded execution
//! ([`Machine::run_until`]) that stops cleanly at an exact dynamic
//! instruction count. Together these let a fault campaign checkpoint the
//! golden run and fast-forward each trial to the neighborhood of its first
//! injection point instead of re-executing from instruction zero.
//!
//! Memory is a table of copy-on-write 4 KiB pages shared with snapshots
//! by `Arc`, 64 pages to a shared group, and sharing one is the only fast
//! path: a shared `Arc` proves equal bytes. The machine tracks which
//! pages guest stores and host writes have dirtied since its memory was
//! last synchronized with a snapshot. A capture rebuilds only the written
//! groups, and [`Machine::restore`] is one pass over the groups: one the
//! machine is based on swaps back its dirty pages, any other swaps the
//! pages not already shared with the target. [`Machine::restore_full`]
//! makes the per-page pass everywhere, trusting no dirty bit; both swap
//! pointers, never copy bytes, and are bit-identical.
//! [`Machine::state_eq`] accepts shared groups and pages without reading
//! them and compares the rest bytewise.
//!
//! **Determinism contract:** the simulator is a pure function of
//! (program, initial state, hook behavior). Restoring a snapshot taken at
//! dynamic instruction *N* of some run and continuing — with a hook that
//! behaves like the original hook from *N* onward — produces bit-identical
//! architectural state, outcomes, and instruction counts to re-running from
//! scratch. `run_until` pauses are invisible: splitting a run into any
//! sequence of bounded steps yields exactly the same execution. The fault
//! campaign's checkpoint acceleration relies on this contract and
//! `certa-fault` enforces it with a property test.
//!
//! ## Example
//!
//! ```
//! use certa_asm::Asm;
//! use certa_isa::reg::{T0, V0};
//! use certa_sim::{Machine, MachineConfig, Outcome};
//!
//! let mut a = Asm::new();
//! a.func("main", false);
//! a.li(T0, 21);
//! a.add(V0, T0, T0);
//! a.halt();
//! a.endfunc();
//! let program = a.assemble().unwrap();
//!
//! let mut m = Machine::new(&program, &MachineConfig::default());
//! let result = m.run_simple();
//! assert_eq!(result.outcome, Outcome::Halted);
//! assert_eq!(m.reg(V0), 42);
//! ```

pub mod aot;
mod decode;
mod machine;
mod mem;

pub use aot::{AotCtx, AotExit, AotProgram, NativeWindow};
pub use certa_asm::DATA_BASE;
pub use decode::{DecodedProgram, SuperblockPolicy};
pub use machine::{
    BoundedRun, CrashKind, Machine, MachineConfig, MachineError, MemError, NoHook, Outcome,
    RunResult, Snapshot, WritebackHook,
};
