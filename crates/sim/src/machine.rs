//! The functional simulator.

use std::fmt;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use certa_asm::DATA_BASE;
use certa_isa::{reg, AluOp, FpuOp, FReg, Instr, MemWidth, Program, Reg};

use crate::aot::{AotCtx, AotExit, AotProgram, NativeWindow};
use crate::decode::{DecodedProgram, MOp, MicroOp, SuperOp};
use crate::mem::{
    hash_page, load_f64_mem, load_mem, store_f64_mem, store_mem, PageBuf, PagedMem,
};

/// Monotonic id source for [`Snapshot`]s; id 0 is reserved for "no base
/// snapshot" so a fresh machine never takes the dirty-page restore path.
static SNAPSHOT_IDS: AtomicU64 = AtomicU64::new(1);

/// Simulator configuration.
#[derive(Debug, Clone)]
pub struct MachineConfig {
    /// Total data memory size in bytes. The data segment is loaded at
    /// [`DATA_BASE`]; the stack pointer starts at `mem_size - 16` and grows
    /// down.
    pub mem_size: u32,
    /// Watchdog: a run executing more than this many instructions is
    /// classified as [`Outcome::InfiniteRun`] (the paper's "infinite
    /// execution" failures).
    pub max_instructions: u64,
    /// Whether to record per-instruction execution counts (needed for the
    /// paper's Table 3 dynamic statistics; small overhead).
    pub profile: bool,
}

impl Default for MachineConfig {
    fn default() -> Self {
        MachineConfig {
            mem_size: 4 << 20,
            max_instructions: 500_000_000,
            profile: false,
        }
    }
}

/// Why a run crashed.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum CrashKind {
    /// A load or store touched memory outside `[DATA_BASE, mem_size)`.
    /// Accesses below `DATA_BASE` (the guard region) are the typical result
    /// of corrupted pointer arithmetic.
    MemOutOfBounds {
        /// Faulting address.
        addr: u32,
        /// Access size in bytes.
        size: u32,
    },
    /// A load or store address was not a multiple of the access size.
    Misaligned {
        /// Faulting address.
        addr: u32,
        /// Access size in bytes.
        size: u32,
    },
    /// The program counter left the code array (wild `jr`, corrupted return
    /// address, or falling off the end of the program).
    PcOutOfRange {
        /// The invalid instruction index.
        pc: u64,
    },
}

impl fmt::Display for CrashKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CrashKind::MemOutOfBounds { addr, size } => {
                write!(f, "out-of-bounds {size}-byte access at {addr:#x}")
            }
            CrashKind::Misaligned { addr, size } => {
                write!(f, "misaligned {size}-byte access at {addr:#x}")
            }
            CrashKind::PcOutOfRange { pc } => write!(f, "program counter out of range: {pc}"),
        }
    }
}

/// How a run ended.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Outcome {
    /// The program executed `halt`.
    Halted,
    /// The program crashed (a catastrophic failure in the paper's terms).
    Crashed(CrashKind),
    /// The watchdog expired (the paper's "infinite execution" failures).
    InfiniteRun,
}

impl Outcome {
    /// Whether this outcome is one of the paper's catastrophic failures
    /// (crash or infinite run).
    #[must_use]
    pub fn is_catastrophic(&self) -> bool {
        !matches!(self, Outcome::Halted)
    }
}

impl fmt::Display for Outcome {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Outcome::Halted => write!(f, "halted"),
            Outcome::Crashed(k) => write!(f, "crashed: {k}"),
            Outcome::InfiniteRun => write!(f, "infinite run (watchdog)"),
        }
    }
}

/// Result of a completed [`Machine::run`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RunResult {
    /// How the run ended.
    pub outcome: Outcome,
    /// Dynamic instructions executed.
    pub instructions: u64,
    /// Dynamic executions of value-producing instructions (the denominator
    /// of the fault model's uniform sampling).
    pub value_producing: u64,
}

/// Result of a bounded [`Machine::run_until`] step.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum BoundedRun {
    /// The program finished (halted, crashed, or tripped the watchdog)
    /// before reaching the instruction target.
    Finished(RunResult),
    /// The dynamic instruction count reached the target; the machine is
    /// paused at an instruction boundary and can be resumed with another
    /// [`Machine::run_until`] or [`Machine::run`] call.
    Paused,
}

/// Error from the fallible [`Machine`] constructors.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum MachineError {
    /// The program's data segment (plus the 4 KiB slack the loader
    /// reserves above it) does not fit below `mem_size`.
    DataSegmentTooLarge {
        /// Bytes required: `DATA_BASE + data segment + 4096` slack.
        required: usize,
        /// Configured memory size.
        mem_size: u32,
    },
    /// A snapshot's memory image size does not match the machine's
    /// configured memory size.
    MemSizeMismatch {
        /// Memory bytes recorded in the snapshot.
        snapshot: usize,
        /// Memory bytes configured for the machine.
        machine: usize,
    },
}

impl fmt::Display for MachineError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            MachineError::DataSegmentTooLarge { required, mem_size } => write!(
                f,
                "data segment needs {required} bytes but only {mem_size} are configured"
            ),
            MachineError::MemSizeMismatch { snapshot, machine } => write!(
                f,
                "snapshot holds {snapshot} bytes of memory but the machine has {machine}"
            ),
        }
    }
}

impl std::error::Error for MachineError {}

/// A complete copy of the architectural state of a [`Machine`] at an
/// instruction boundary: register files, program counter, dynamic counters,
/// and the full memory image as a table of shared 4 KiB pages.
///
/// Snapshots make fault campaigns cheap: the golden run records them at
/// intervals, and every trial then [`Machine::restore`]s the latest snapshot
/// before its first injection point instead of re-executing the prefix.
/// The page table is copy-on-write-shared with the machine it was captured
/// from (and with every machine later restored from it): capture
/// materializes only the pages written since the previous capture, and
/// restore swaps page pointers instead of copying bytes (see
/// [`Machine::restore`] and the `mem` module docs).
///
/// Per-instruction profiling counts ([`Machine::exec_counts`]) are *not*
/// part of a snapshot: they are a measurement artifact of one specific run,
/// not architectural state.
#[derive(Debug, Clone)]
pub struct Snapshot {
    /// Identity for dirty-page restore: machines remember the id of the
    /// snapshot their memory was last synchronized with. Clones share the
    /// id, which is sound because snapshots are immutable.
    id: u64,
    regs: [u32; 32],
    fregs: [f64; 32],
    pc: u64,
    icount: u64,
    value_producing: u64,
    /// The memory image: one immutable shared page per [`PAGE_SIZE`]
    /// bytes. Cloning a snapshot (or restoring from it) bumps reference
    /// counts; nobody can write through these `Arc`s — a machine holding
    /// one copies the page out before its first write.
    pages: Vec<Arc<PageBuf>>,
    /// Addressable bytes (the tail of the last page past this is zero
    /// padding).
    mem_len: usize,
    /// One 64-bit hash per page, computed incrementally at capture (clean
    /// pages reuse the previous capture's hash) and shared by clones.
    /// [`Machine::state_eq`] uses these to refute equality in
    /// O(pages-compared) without touching page bytes: differing hashes
    /// prove differing content (equal hashes prove nothing and fall back
    /// to an exact compare).
    page_hashes: Arc<[u64]>,
}

impl Snapshot {
    /// Dynamic instruction count at which this snapshot was taken.
    #[must_use]
    pub fn instructions(&self) -> u64 {
        self.icount
    }

    /// Snapshot identity (used by campaigns to key precomputed page diffs;
    /// see [`Machine::restore_with_diff`]).
    #[must_use]
    pub fn id(&self) -> u64 {
        self.id
    }

    /// Number of [`PAGE_SIZE`] pages in the memory image.
    #[must_use]
    pub fn page_count(&self) -> usize {
        self.pages.len()
    }

    /// Logical footprint in bytes for checkpoint budget accounting: the
    /// (fully materialized) memory image, the per-page hash table, plus
    /// the inline state — both register files (integer and
    /// floating-point), program counter, dynamic counters, and the
    /// id/Vec bookkeeping — which `size_of::<Snapshot>()` covers because
    /// the register files are stored inline, not boxed.
    ///
    /// Deliberately *logical*, not physical: copy-on-write sharing means
    /// the real incremental cost of a capture is far smaller (see
    /// [`Machine::capture_bytes`]), but budget-derived checkpoint counts
    /// must not depend on how much happened to be shared at capture time,
    /// or campaign results would stop being a pure function of the
    /// configuration.
    #[must_use]
    pub fn size_bytes(&self) -> usize {
        self.mem_len
            + self.page_hashes.len() * std::mem::size_of::<u64>()
            + std::mem::size_of::<Snapshot>()
    }

    /// Page indices on which `self` and `other` differ, byte-exactly
    /// (page hashes are deliberately not consulted: a hash collision must
    /// never hide a real difference, because campaigns feed this list to
    /// [`Machine::restore_with_diff`] where missing a page would corrupt
    /// the restore). Pages sharing one `Arc` are identical by
    /// construction and skipped without touching their bytes — adjacent
    /// golden checkpoints share almost everything, which is what makes
    /// campaign diff precomputation cheap. Returns `None` when the images
    /// differ in size.
    #[must_use]
    pub fn diff_pages(&self, other: &Snapshot) -> Option<Vec<u32>> {
        if self.mem_len != other.mem_len || self.pages.len() != other.pages.len() {
            return None;
        }
        let mut pages = Vec::new();
        for (page, (a, b)) in self.pages.iter().zip(&other.pages).enumerate() {
            if !Arc::ptr_eq(a, b) && **a != **b {
                pages.push(page as u32);
            }
        }
        Some(pages)
    }
}

/// Error returned by the host-side memory access helpers.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct MemError {
    /// Faulting address.
    pub addr: u32,
    /// Requested length.
    pub len: u32,
}

impl fmt::Display for MemError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "host access of {} bytes at {:#x} is out of bounds",
            self.len, self.addr
        )
    }
}

impl std::error::Error for MemError {}

/// Hook invoked on every value-producing writeback; the fault injector
/// overrides these to flip bits in instruction results.
///
/// The default implementations pass values through unchanged.
pub trait WritebackHook {
    /// Whether this hook observably does nothing: both writeback methods
    /// are the identity and carry no state. Such hooks run AOT native
    /// regions ([`Machine::run_aot`]) without any eligibility bound —
    /// individual writebacks are compiled away there. Any other hook runs
    /// natively only inside the window it opens
    /// ([`WritebackHook::native_window`]). `false` is the safe default —
    /// an implementation may opt in only when every method is left at its
    /// default.
    const IS_NOOP: bool = false;

    /// Observes/modifies an integer register writeback.
    #[inline]
    fn int_writeback(&mut self, instr_index: usize, value: u32) -> u32 {
        let _ = instr_index;
        value
    }

    /// Observes/modifies a floating-point register writeback.
    #[inline]
    fn float_writeback(&mut self, instr_index: usize, value: f64) -> f64 {
        let _ = instr_index;
        value
    }

    /// How far AOT native regions may run without this hook seeing the
    /// writebacks it counts: which writebacks those are, per instruction
    /// and per native block, and how many of them may retire unseen (see
    /// the [`crate::aot`] module docs). Asked before every native entry.
    /// `None`, the default, is a budget of zero with no table: every run
    /// of the hook stays on the interpreter tiers.
    #[inline]
    fn native_window(&self) -> Option<NativeWindow<'_>> {
        None
    }

    /// Native code retired `eligible` of the writebacks the window counts
    /// without calling the hook (at most the window's budget).
    #[inline]
    fn retired_natively(&mut self, eligible: u64) {
        let _ = eligible;
    }
}

/// A hook that does nothing (fault-free execution).
#[derive(Debug, Clone, Copy, Default)]
pub struct NoHook;

impl WritebackHook for NoHook {
    const IS_NOOP: bool = true;
}

/// The simulator state: registers, memory, program counter.
#[derive(Debug, Clone)]
pub struct Machine<'p> {
    program: &'p Program,
    decoded: Arc<DecodedProgram>,
    regs: [u32; 32],
    fregs: [f64; 32],
    /// Paged copy-on-write memory image, including the per-page dirty
    /// bitset (see the `mem` module docs).
    mem: PagedMem,
    pc: u64,
    icount: u64,
    value_producing: u64,
    exec_counts: Vec<u64>,
    profile: bool,
    max_instructions: u64,
    /// Id of the [`Snapshot`] this machine's memory was last synchronized
    /// with (0 = none): non-dirty pages are bit-identical to that snapshot,
    /// which is what makes dirty-page restore exact.
    base_snapshot: u64,
    /// Per-page hashes of the base snapshot's memory (shared with it),
    /// `None` when there is no base. Clean pages of this machine hash to
    /// these values by the dirty-tracking invariant, which is what lets
    /// [`Machine::state_eq`] refute cross-snapshot equality in
    /// O(pages-compared) instead of O(memory).
    base_hashes: Option<Arc<[u64]>>,
    /// Instructions retired inside superblock traces (diagnostics: lets
    /// benches and tests verify the superblock tier actually executed).
    sb_retired: u64,
    /// Instructions retired inside AOT native regions (diagnostics: tier-4
    /// coverage of this machine's execution).
    aot_retired: u64,
    /// Cumulative bytes materialized by [`Machine::snapshot`] captures
    /// (owned pages copied into fresh shared pages) — the true
    /// incremental cost of checkpointing under copy-on-write sharing.
    capture_bytes: u64,
}

/// Control-flow effect of one executed micro-op.
enum Step {
    /// Fall through to the next instruction.
    Next,
    /// Transfer to an absolute instruction index.
    Jump(u64),
    /// The program executed `halt`.
    Halt,
    /// The instruction crashed the run.
    Crash(CrashKind),
}

impl<'p> Machine<'p> {
    /// Creates a machine with the program's data segment loaded at
    /// [`DATA_BASE`], `$sp` at the top of memory and `$gp` at `DATA_BASE`.
    ///
    /// # Errors
    ///
    /// Returns [`MachineError::DataSegmentTooLarge`] if the data segment
    /// (plus 4 KiB of loader slack) does not fit in `config.mem_size`.
    pub fn try_new(program: &'p Program, config: &MachineConfig) -> Result<Self, MachineError> {
        let decoded = Arc::new(DecodedProgram::new(program));
        Self::try_new_with_decoded(program, &decoded, config)
    }

    /// Like [`Machine::try_new`], but reuses an already-lowered
    /// [`DecodedProgram`] instead of decoding again. Fault campaigns decode
    /// once and share the result across the golden run and every trial
    /// machine.
    ///
    /// # Errors
    ///
    /// Returns [`MachineError::DataSegmentTooLarge`] as [`Machine::try_new`].
    ///
    /// # Panics
    ///
    /// Panics if `decoded` was not produced from `program` (length
    /// mismatch) — a caller contract violation, not a runtime condition.
    pub fn try_new_with_decoded(
        program: &'p Program,
        decoded: &Arc<DecodedProgram>,
        config: &MachineConfig,
    ) -> Result<Self, MachineError> {
        assert_eq!(
            decoded.len(),
            program.code.len(),
            "decoded program does not match the instruction stream"
        );
        let lo = DATA_BASE as usize;
        let hi = lo + program.data.len();
        if hi + 4096 >= config.mem_size as usize {
            return Err(MachineError::DataSegmentTooLarge {
                required: hi + 4096,
                mem_size: config.mem_size,
            });
        }
        let mut mem = PagedMem::new_zeroed(config.mem_size as usize);
        mem.copy_in(lo, &program.data);
        // The freshly loaded image has no base snapshot, so the dirty bits
        // the loader just set carry no meaning; clear them so diagnostics
        // (and the first capture's hash reuse guard) see a clean machine.
        mem.clear_dirty();
        let mut regs = [0u32; 32];
        regs[reg::SP.index()] = config.mem_size - 16;
        regs[reg::GP.index()] = DATA_BASE;
        Ok(Machine {
            program,
            decoded: Arc::clone(decoded),
            regs,
            fregs: [0.0; 32],
            mem,
            pc: program.entry as u64,
            icount: 0,
            value_producing: 0,
            exec_counts: if config.profile {
                vec![0; program.code.len()]
            } else {
                Vec::new()
            },
            profile: config.profile,
            max_instructions: config.max_instructions,
            base_snapshot: 0,
            base_hashes: None,
            sb_retired: 0,
            aot_retired: 0,
            capture_bytes: 0,
        })
    }

    /// Creates a machine, panicking on configuration errors (convenience
    /// wrapper around [`Machine::try_new`]).
    ///
    /// # Panics
    ///
    /// Panics if the data segment does not fit in `config.mem_size`.
    #[must_use]
    pub fn new(program: &'p Program, config: &MachineConfig) -> Self {
        Self::try_new(program, config)
            .unwrap_or_else(|e| panic!("machine configuration rejected: {e}"))
    }

    /// Creates a machine whose architectural state is copied from
    /// `snapshot`, with watchdog and profiling taken from `config`.
    ///
    /// The `config.mem_size` must match the snapshot's memory image — a
    /// snapshot is a complete state, not a loadable program image.
    ///
    /// # Errors
    ///
    /// Returns [`MachineError::MemSizeMismatch`] if `config.mem_size`
    /// differs from the snapshot's memory size.
    pub fn from_snapshot(
        program: &'p Program,
        snapshot: &Snapshot,
        config: &MachineConfig,
    ) -> Result<Self, MachineError> {
        let decoded = Arc::new(DecodedProgram::new(program));
        Self::from_snapshot_with_decoded(program, &decoded, snapshot, config)
    }

    /// Like [`Machine::from_snapshot`], but reuses an already-lowered
    /// [`DecodedProgram`] (see [`Machine::try_new_with_decoded`]).
    ///
    /// # Errors
    ///
    /// Returns [`MachineError::MemSizeMismatch`] as
    /// [`Machine::from_snapshot`].
    ///
    /// # Panics
    ///
    /// Panics if `decoded` was not produced from `program`.
    pub fn from_snapshot_with_decoded(
        program: &'p Program,
        decoded: &Arc<DecodedProgram>,
        snapshot: &Snapshot,
        config: &MachineConfig,
    ) -> Result<Self, MachineError> {
        assert_eq!(
            decoded.len(),
            program.code.len(),
            "decoded program does not match the instruction stream"
        );
        if snapshot.mem_len != config.mem_size as usize {
            return Err(MachineError::MemSizeMismatch {
                snapshot: snapshot.mem_len,
                machine: config.mem_size as usize,
            });
        }
        Ok(Machine {
            program,
            decoded: Arc::clone(decoded),
            regs: snapshot.regs,
            fregs: snapshot.fregs,
            // O(pages) reference bumps: the machine shares every page with
            // the snapshot and copies one out only when it first writes it.
            mem: PagedMem::from_shared(&snapshot.pages, snapshot.mem_len),
            pc: snapshot.pc,
            icount: snapshot.icount,
            value_producing: snapshot.value_producing,
            exec_counts: if config.profile {
                vec![0; program.code.len()]
            } else {
                Vec::new()
            },
            profile: config.profile,
            max_instructions: config.max_instructions,
            base_snapshot: snapshot.id,
            base_hashes: Some(Arc::clone(&snapshot.page_hashes)),
            sb_retired: 0,
            aot_retired: 0,
            capture_bytes: 0,
        })
    }

    /// The shared micro-op lowering this machine dispatches over.
    #[must_use]
    pub fn decoded_program(&self) -> &Arc<DecodedProgram> {
        &self.decoded
    }

    /// Captures the complete architectural state at the current instruction
    /// boundary. See [`Snapshot`] for what is (and is not) included.
    ///
    /// Capture is incremental under copy-on-write sharing: only the pages
    /// written since the previous capture/restore point are materialized
    /// (copied into fresh shared pages and rehashed); everything else is a
    /// reference bump reusing the previous hashes. The machine's memory is
    /// left sharing every page with the new snapshot, which becomes its
    /// base — so an immediately following [`Machine::restore`] of it is
    /// free, and [`Machine::state_eq`] against it is O(pages) pointer
    /// compares. This is why capture takes `&mut self`: it flips written
    /// pages from owned to shared (the architectural state is unchanged).
    #[must_use]
    pub fn snapshot(&mut self) -> Snapshot {
        let (pages, page_hashes, fresh) = self.mem.capture(self.base_hashes.as_ref());
        self.capture_bytes += fresh;
        let id = SNAPSHOT_IDS.fetch_add(1, Ordering::Relaxed);
        self.base_snapshot = id;
        self.base_hashes = Some(Arc::clone(&page_hashes));
        Snapshot {
            id,
            regs: self.regs,
            fregs: self.fregs,
            pc: self.pc,
            icount: self.icount,
            value_producing: self.value_producing,
            pages,
            mem_len: self.mem.len(),
            page_hashes,
        }
    }

    /// Cumulative bytes materialized by this machine's
    /// [`Machine::snapshot`] captures — the true incremental cost of
    /// checkpointing under copy-on-write sharing (untouched pages cost a
    /// reference bump, not a copy). Campaigns report this as checkpoint
    /// capture bytes.
    #[must_use]
    pub fn capture_bytes(&self) -> u64 {
        self.capture_bytes
    }

    /// Overwrites this machine's architectural state with `snapshot`.
    ///
    /// This is the hot path of checkpointed fault campaigns. When the
    /// machine's memory was last synchronized with this same snapshot (a
    /// previous [`Machine::restore`], [`Machine::snapshot`] capture, or
    /// [`Machine::from_snapshot`] of it), the rollback is O(dirty pages)
    /// of pointer swaps: every page written since is swapped back to
    /// sharing the snapshot's page, and every clean page is untouched —
    /// no page bytes are copied at all (displaced owned pages are
    /// recycled, so the steady-state trial loop never allocates).
    /// Restoring a *different* snapshot falls back to swapping every slot
    /// (see [`Machine::restore_full`] — still pointer swaps, not copies).
    /// Both paths produce bit-identical state.
    ///
    /// Watchdog budget and profiling configuration are unchanged.
    ///
    /// # Errors
    ///
    /// Returns [`MachineError::MemSizeMismatch`] if the snapshot's memory
    /// image differs in size from this machine's memory.
    pub fn restore(&mut self, snapshot: &Snapshot) -> Result<(), MachineError> {
        if snapshot.mem_len != self.mem.len() {
            return Err(MachineError::MemSizeMismatch {
                snapshot: snapshot.mem_len,
                machine: self.mem.len(),
            });
        }
        if self.base_snapshot == snapshot.id {
            self.restore_registers(snapshot);
            self.mem.restore_dirty_from(&snapshot.pages);
        } else {
            self.restore_full_unchecked(snapshot);
        }
        Ok(())
    }

    /// Overwrites this machine's architectural state with `snapshot` by
    /// swapping **every** page to share the snapshot's, bypassing
    /// dirty-page tracking. Exposed so the differential suite can prove
    /// both restore paths bit-identical; ordinary callers should use
    /// [`Machine::restore`].
    ///
    /// # Errors
    ///
    /// Returns [`MachineError::MemSizeMismatch`] if the snapshot's memory
    /// image differs in size from this machine's memory.
    pub fn restore_full(&mut self, snapshot: &Snapshot) -> Result<(), MachineError> {
        if snapshot.mem_len != self.mem.len() {
            return Err(MachineError::MemSizeMismatch {
                snapshot: snapshot.mem_len,
                machine: self.mem.len(),
            });
        }
        self.restore_full_unchecked(snapshot);
        Ok(())
    }

    fn restore_full_unchecked(&mut self, snapshot: &Snapshot) {
        self.restore_registers(snapshot);
        self.mem.restore_all_from(&snapshot.pages);
        self.base_snapshot = snapshot.id;
        self.base_hashes = Some(Arc::clone(&snapshot.page_hashes));
    }

    fn restore_registers(&mut self, snapshot: &Snapshot) {
        self.regs = snapshot.regs;
        self.fregs = snapshot.fregs;
        self.pc = snapshot.pc;
        self.icount = snapshot.icount;
        self.value_producing = snapshot.value_producing;
    }

    /// Number of pages dirtied since the last restore point (diagnostics
    /// and benches).
    #[must_use]
    pub fn dirty_pages(&self) -> usize {
        self.mem.dirty_page_count()
    }

    /// Id of the snapshot this machine's memory was last synchronized
    /// with, or 0 when it has none (a freshly loaded machine). Campaigns
    /// use this to pick a precomputed page diff for
    /// [`Machine::restore_with_diff`].
    #[must_use]
    pub fn base_snapshot_id(&self) -> u64 {
        self.base_snapshot
    }

    /// Restores `snapshot` using a precomputed page diff against the
    /// machine's current base snapshot: instead of the every-slot swap a
    /// cross-snapshot [`Machine::restore`] would make, only the pages
    /// dirtied since the last restore point **plus** `changed_pages` are
    /// swapped to share the snapshot's pages (pointer swaps — no byte
    /// copies on any path). The fault campaign precomputes diffs between
    /// adjacent golden checkpoints so checkpoint-hopping restores are
    /// page-granular too.
    ///
    /// **Contract:** `changed_pages` must include every page on which the
    /// machine's current base snapshot (see
    /// [`Machine::base_snapshot_id`]) and `snapshot` differ — e.g. the
    /// union of adjacent [`Snapshot::diff_pages`] lists along the hop.
    /// Every other page is clean (bit-identical to the base, hence to
    /// `snapshot`) or dirty (copied here). Out-of-range page indices are
    /// ignored.
    ///
    /// # Errors
    ///
    /// Returns [`MachineError::MemSizeMismatch`] if the snapshot's memory
    /// image differs in size from this machine's memory.
    pub fn restore_with_diff(
        &mut self,
        snapshot: &Snapshot,
        changed_pages: &[u32],
    ) -> Result<(), MachineError> {
        if snapshot.mem_len != self.mem.len() {
            return Err(MachineError::MemSizeMismatch {
                snapshot: snapshot.mem_len,
                machine: self.mem.len(),
            });
        }
        self.restore_registers(snapshot);
        self.mem.restore_diff_from(&snapshot.pages, changed_pages);
        self.base_snapshot = snapshot.id;
        self.base_hashes = Some(Arc::clone(&snapshot.page_hashes));
        Ok(())
    }

    /// Whether this machine's architectural state is bit-identical to
    /// `snapshot` (floats compared by bit pattern, so NaNs compare
    /// faithfully). Cheap fields are compared first so divergent states
    /// usually return `false` without touching the memory image, and the
    /// memory comparison exploits dirty-page tracking:
    ///
    /// * against the machine's own base snapshot, only dirty pages are
    ///   compared (exact, O(dirty pages));
    /// * against any other snapshot, per-page hashes refute inequality
    ///   first — clean pages by comparing the base's and the snapshot's
    ///   stored hashes, dirty pages by hashing current content — and only
    ///   when no hash disagrees (the rare "probably reconverged" case)
    ///   does an exact full comparison confirm.
    ///
    /// This is what makes the campaign's reconvergence probe cheap: the
    /// common not-yet-reconverged answer costs O(dirty pages), not
    /// O(memory).
    #[must_use]
    pub fn state_eq(&self, snapshot: &Snapshot) -> bool {
        self.icount == snapshot.icount
            && self.pc == snapshot.pc
            && self.value_producing == snapshot.value_producing
            && self.regs == snapshot.regs
            && self
                .fregs
                .iter()
                .zip(&snapshot.fregs)
                .all(|(a, b)| a.to_bits() == b.to_bits())
            && self.mem_eq(snapshot)
    }

    /// Memory comparison half of [`Machine::state_eq`].
    fn mem_eq(&self, snapshot: &Snapshot) -> bool {
        if snapshot.mem_len != self.mem.len() || snapshot.pages.len() != self.mem.page_count() {
            return false;
        }
        if self.base_snapshot == snapshot.id {
            // Clean pages are bit-identical to this very snapshot by the
            // dirty-tracking invariant: comparing dirty pages is exact.
            return self.dirty_pages_match(snapshot);
        }
        if let Some(base_hashes) = &self.base_hashes {
            if base_hashes.len() == snapshot.page_hashes.len() {
                // Fast refutation: a differing hash proves differing
                // content (clean pages hash to the base snapshot's value),
                // and a page sharing the snapshot's `Arc` is identical by
                // construction.
                for (page, (&bh, &sh)) in base_hashes
                    .iter()
                    .zip(snapshot.page_hashes.iter())
                    .enumerate()
                {
                    if self
                        .mem
                        .shared_page(page)
                        .is_some_and(|a| Arc::ptr_eq(a, &snapshot.pages[page]))
                    {
                        continue;
                    }
                    if self.mem.is_dirty(page) {
                        if hash_page(self.mem.page_bytes(page)) != sh {
                            return false;
                        }
                    } else if bh != sh {
                        return false;
                    }
                }
                // No hash disagrees: confirm exactly (hash equality is
                // evidence, not proof; pointer-equal pages short-circuit).
                return self.mem.eq_pages(&snapshot.pages);
            }
        }
        self.mem.eq_pages(&snapshot.pages)
    }

    /// Exact comparison of this machine's dirty pages against `snapshot`
    /// (clean pages share the snapshot's `Arc`s or equal them by the
    /// dirty-tracking invariant).
    fn dirty_pages_match(&self, snapshot: &Snapshot) -> bool {
        let mut equal = true;
        self.mem.for_each_dirty(|page| {
            if equal && *self.mem.page_bytes(page) != *snapshot.pages[page] {
                equal = false;
            }
        });
        equal
    }

    /// Current value of an integer register.
    #[must_use]
    pub fn reg(&self, r: Reg) -> u32 {
        self.regs[r.index()]
    }

    /// Current value of a floating-point register.
    #[must_use]
    pub fn freg(&self, r: FReg) -> f64 {
        self.fregs[r.index()]
    }

    /// Sets an integer register (harness use).
    pub fn set_reg(&mut self, r: Reg, value: u32) {
        if !r.is_zero() {
            self.regs[r.index()] = value;
        }
    }

    /// Dynamic instructions executed so far.
    #[must_use]
    pub fn instructions(&self) -> u64 {
        self.icount
    }

    /// Per-instruction execution counts (empty unless
    /// [`MachineConfig::profile`] was set).
    #[must_use]
    pub fn exec_counts(&self) -> &[u64] {
        &self.exec_counts
    }

    /// Dynamic instructions retired inside superblock traces so far —
    /// the superblock tier's coverage of this machine's execution
    /// (diagnostics; compare with [`Machine::instructions`]).
    #[must_use]
    pub fn superblock_instructions(&self) -> u64 {
        self.sb_retired
    }

    /// Dynamic instructions retired inside AOT native regions so far —
    /// the tier-4 coverage of this machine's execution (diagnostics;
    /// compare with [`Machine::instructions`]).
    #[must_use]
    pub fn aot_instructions(&self) -> u64 {
        self.aot_retired
    }

    // ------------------------------------------------------------------
    // host-side memory access (I/O injection and output capture)
    // ------------------------------------------------------------------

    fn host_range(&self, addr: u32, len: u32) -> Result<std::ops::Range<usize>, MemError> {
        let start = addr as usize;
        let end = start.checked_add(len as usize).ok_or(MemError { addr, len })?;
        if addr < DATA_BASE || end > self.mem.len() {
            return Err(MemError { addr, len });
        }
        Ok(start..end)
    }

    /// Reads guest memory (harness use; bounds-checked, alignment-free,
    /// may span pages — which is why this returns an owned buffer: the
    /// paged image has no contiguous slice to borrow).
    ///
    /// # Errors
    ///
    /// Returns [`MemError`] if the range is outside addressable memory.
    pub fn read_bytes(&self, addr: u32, len: u32) -> Result<Vec<u8>, MemError> {
        let range = self.host_range(addr, len)?;
        let mut out = vec![0u8; len as usize];
        self.mem.copy_out(range.start, &mut out);
        Ok(out)
    }

    /// Writes guest memory (harness use; bounds-checked, alignment-free).
    ///
    /// # Errors
    ///
    /// Returns [`MemError`] if the range is outside addressable memory.
    pub fn write_bytes(&mut self, addr: u32, bytes: &[u8]) -> Result<(), MemError> {
        let range = self.host_range(addr, bytes.len() as u32)?;
        self.mem.copy_in(range.start, bytes);
        Ok(())
    }

    /// XORs one bit of the byte at guest address `addr` (memory-cell fault
    /// injection). The flip goes through the copy-on-write path, so it is
    /// tracked as a dirty page and survives checkpoint restores exactly
    /// like a guest store would.
    ///
    /// # Errors
    ///
    /// Returns [`MemError`] if `addr` is outside addressable memory.
    pub fn flip_memory_bit(&mut self, addr: u32, bit: u8) -> Result<(), MemError> {
        let range = self.host_range(addr, 1)?;
        self.mem.flip_bit(range.start, bit);
        Ok(())
    }

    /// Reads a little-endian 32-bit word from guest memory (harness use).
    ///
    /// # Errors
    ///
    /// Returns [`MemError`] if the range is outside addressable memory.
    pub fn read_word(&self, addr: u32) -> Result<u32, MemError> {
        let range = self.host_range(addr, 4)?;
        let mut b = [0u8; 4];
        self.mem.copy_out(range.start, &mut b);
        Ok(u32::from_le_bytes(b))
    }

    /// Writes a little-endian 32-bit word to guest memory (harness use).
    ///
    /// # Errors
    ///
    /// Returns [`MemError`] if the range is outside addressable memory.
    pub fn write_word(&mut self, addr: u32, value: u32) -> Result<(), MemError> {
        self.write_bytes(addr, &value.to_le_bytes())
    }

    // ------------------------------------------------------------------
    // guest-side memory access
    // ------------------------------------------------------------------

    #[inline]
    fn load(&self, addr: u32, width: MemWidth, signed: bool) -> Result<u32, CrashKind> {
        load_mem(&self.mem, addr, width, signed)
    }

    #[inline]
    fn store(&mut self, addr: u32, width: MemWidth, value: u32) -> Result<(), CrashKind> {
        store_mem(&mut self.mem, addr, width, value)
    }

    #[inline]
    fn load_f64(&self, addr: u32) -> Result<f64, CrashKind> {
        load_f64_mem(&self.mem, addr)
    }

    #[inline]
    fn store_f64(&mut self, addr: u32, value: f64) -> Result<(), CrashKind> {
        store_f64_mem(&mut self.mem, addr, value)
    }

    // ------------------------------------------------------------------
    // execution
    // ------------------------------------------------------------------

    #[inline]
    fn write_int<H: WritebackHook>(&mut self, hook: &mut H, instr_index: usize, rd: Reg, v: u32) {
        self.value_producing += 1;
        let v = hook.int_writeback(instr_index, v);
        if !rd.is_zero() {
            self.regs[rd.index()] = v;
        }
    }

    #[inline]
    fn write_float<H: WritebackHook>(
        &mut self,
        hook: &mut H,
        instr_index: usize,
        fd: FReg,
        v: f64,
    ) {
        self.value_producing += 1;
        let v = hook.float_writeback(instr_index, v);
        self.fregs[fd.index()] = v;
    }

    /// Runs to completion with no hook — the single no-hook entry point
    /// shared by every hook-free caller.
    pub fn run_simple(&mut self) -> RunResult {
        self.run(&mut NoHook)
    }

    /// Bounded no-hook execution: [`Machine::run_until`] through the same
    /// shared [`NoHook`] path as [`Machine::run_simple`].
    pub fn run_until_simple(&mut self, target: u64) -> BoundedRun {
        self.run_until(&mut NoHook, target)
    }

    /// Runs to completion, invoking `hook` on every value-producing
    /// writeback. Dispatches over the predecoded micro-op pipeline; the
    /// `PROFILE`/`BOUNDED` const generics mean an unprofiled unbounded run
    /// carries zero per-instruction overhead for either feature.
    pub fn run<H: WritebackHook>(&mut self, hook: &mut H) -> RunResult {
        let result = if self.profile {
            self.run_decoded::<H, true, false>(hook, 0)
        } else {
            self.run_decoded::<H, false, false>(hook, 0)
        };
        match result {
            BoundedRun::Finished(result) => result,
            BoundedRun::Paused => unreachable!("unbounded run cannot pause"),
        }
    }

    /// Runs until the dynamic instruction count reaches `target` (absolute,
    /// not relative), stopping cleanly at the instruction boundary, or until
    /// the program finishes — whichever comes first.
    ///
    /// A target at or below the current count pauses immediately without
    /// executing anything; a target beyond the program's natural end returns
    /// [`BoundedRun::Finished`]. The bounded and unbounded paths share one
    /// monomorphized dispatch loop, so `run_until` pays no per-instruction
    /// dispatch penalty over [`Machine::run`] — and pauses are invisible:
    /// fused micro-op pairs never straddle the target boundary.
    pub fn run_until<H: WritebackHook>(&mut self, hook: &mut H, target: u64) -> BoundedRun {
        if self.profile {
            self.run_decoded::<H, true, true>(hook, target)
        } else {
            self.run_decoded::<H, false, true>(hook, target)
        }
    }

    /// Runs to completion over the original [`Instr`] tree-walking
    /// interpreter — the reference pipeline the predecoded dispatch is
    /// differentially tested against. Slower than [`Machine::run`];
    /// observably identical.
    pub fn run_reference<H: WritebackHook>(&mut self, hook: &mut H) -> RunResult {
        match self.run_loop_reference::<H, false>(hook, 0) {
            BoundedRun::Finished(result) => result,
            BoundedRun::Paused => unreachable!("unbounded run cannot pause"),
        }
    }

    /// Bounded execution over the reference interpreter (see
    /// [`Machine::run_reference`]).
    pub fn run_until_reference<H: WritebackHook>(
        &mut self,
        hook: &mut H,
        target: u64,
    ) -> BoundedRun {
        self.run_loop_reference::<H, true>(hook, target)
    }

    /// Runs to completion over tier 4: ahead-of-time compiled native
    /// regions (see the [`crate::aot`] module docs), falling back to the
    /// interpreter tiers wherever native code cannot go. Observably
    /// identical to every other tier on outcome, output, instruction
    /// counts, profile counts, crash identity, and every writeback a hook
    /// sees.
    ///
    /// A hook that observes writebacks (`H::IS_NOOP == false`) runs
    /// natively only between the writebacks it counts, inside the window
    /// it opens ([`WritebackHook::native_window`]); the interpreter runs
    /// it over every block holding one. A hook that opens no window, and
    /// any hooked run of a profiling machine, executes entirely on the
    /// superblock/fused dispatch tier.
    ///
    /// # Panics
    ///
    /// Panics if `aot` was not generated from this machine's program
    /// (code length mismatch) — a caller contract violation.
    pub fn run_aot<H: WritebackHook>(&mut self, hook: &mut H, aot: &AotProgram) -> RunResult {
        match self.run_aot_loop::<H, false>(hook, aot, 0) {
            BoundedRun::Finished(result) => result,
            BoundedRun::Paused => unreachable!("unbounded run cannot pause"),
        }
    }

    /// Bounded execution over tier 4 (see [`Machine::run_aot`] and
    /// [`Machine::run_until`]): pauses exactly at the `target` instruction
    /// boundary. Native code never straddles a pause — a block that would
    /// cross the boundary is handed to the interpreter, which stops at
    /// precisely the target.
    ///
    /// # Panics
    ///
    /// Panics if `aot` was not generated from this machine's program.
    pub fn run_until_aot<H: WritebackHook>(
        &mut self,
        hook: &mut H,
        aot: &AotProgram,
        target: u64,
    ) -> BoundedRun {
        self.run_aot_loop::<H, true>(hook, aot, target)
    }

    /// The tier-4 driver loop behind [`Machine::run_aot`] and
    /// [`Machine::run_until_aot`]: alternates native region execution with
    /// interpreter hand-offs, mirroring the check order of the interpreter
    /// loops (pause, watchdog, fetch) so every boundary observation is
    /// bit-identical.
    ///
    /// Native code returns early when the next whole block would cross
    /// the pause/watchdog boundary or the hook's eligibility window
    /// ([`AotExit::Bounded`]), or when the pc has no compiled entry
    /// ([`AotExit::Escape`]: mid-block, e.g. after a restore, or an
    /// indirect jump to one). Either way the interpreter then retires the
    /// rest of the current block — stopping early at a pause target —
    /// in one call, with the hook seeing each writeback, and native code
    /// resumes at the next leader.
    fn run_aot_loop<H: WritebackHook, const BOUNDED: bool>(
        &mut self,
        hook: &mut H,
        aot: &AotProgram,
        target: u64,
    ) -> BoundedRun {
        assert_eq!(
            aot.code_len,
            self.program.code.len(),
            "AOT program does not match the instruction stream"
        );
        let run_region = if H::IS_NOOP {
            if self.profile {
                aot.run_profiled
            } else {
                aot.run
            }
        } else if !self.profile && hook.native_window().is_some() {
            aot.run_windowed
        } else {
            // The hook must observe every individual writeback — exactly
            // what native code compiles away. Run the whole thing on the
            // interpreter's fastest tier instead.
            return if self.profile {
                self.run_decoded::<H, true, BOUNDED>(hook, target)
            } else {
                self.run_decoded::<H, false, BOUNDED>(hook, target)
            };
        };
        let stop = if BOUNDED {
            target.min(self.max_instructions)
        } else {
            self.max_instructions
        };
        let code_len = aot.code_len as u64;
        let mut native = true;
        loop {
            if BOUNDED && self.icount >= target {
                return BoundedRun::Paused;
            }
            if self.icount >= self.max_instructions {
                return self.finish(Outcome::InfiniteRun);
            }
            if self.pc >= code_len {
                return self.finish(Outcome::Crashed(CrashKind::PcOutOfRange { pc: self.pc }));
            }
            if native {
                native = false;
                let window = if H::IS_NOOP {
                    None
                } else {
                    Some(
                        hook.native_window()
                            .expect("a hook's native window stays open"),
                    )
                };
                let (table, budget) =
                    window.map_or((&[][..], u64::MAX), |w| (w.per_block, w.budget));
                let entered_at = self.icount;
                let (exit, retired) = {
                    let mut ctx = AotCtx::new(
                        &mut self.regs,
                        &mut self.fregs,
                        &mut self.mem,
                        self.exec_counts.as_mut_slice(),
                        self.pc,
                        self.icount,
                        self.value_producing,
                        stop,
                        table,
                        budget,
                    );
                    let exit = run_region(&mut ctx);
                    let (pc, icount, vp) = ctx.state();
                    self.pc = pc;
                    self.icount = icount;
                    self.value_producing = vp;
                    (exit, ctx.eligible_retired())
                };
                self.aot_retired += self.icount - entered_at;
                if let Some(window) = window {
                    // A crash cuts its block short: add the eligible
                    // writebacks retired before the faulting instruction.
                    let partial = match exit {
                        AotExit::Crashed(_) => {
                            let at = self.pc as usize;
                            let block = aot.block_range(at);
                            window.eligible[block.start..at]
                                .iter()
                                .filter(|&&e| e)
                                .count() as u64
                        }
                        _ => 0,
                    };
                    hook.retired_natively(retired + partial);
                }
                match exit {
                    AotExit::Halted => return self.finish(Outcome::Halted),
                    AotExit::Crashed(kind) => return self.finish(Outcome::Crashed(kind)),
                    // Re-check the boundaries the loop head checks (the
                    // region may have retired instructions), then hand off.
                    AotExit::Bounded | AotExit::Escape => continue,
                }
            }
            native = true;
            let block_end = aot.block_range(self.pc as usize).end as u64;
            let until = self.icount + (block_end - self.pc);
            let until = if BOUNDED { until.min(target) } else { until };
            let step = if self.profile {
                self.run_decoded::<H, true, true>(hook, until)
            } else {
                self.run_decoded::<H, false, true>(hook, until)
            };
            if let BoundedRun::Finished(result) = step {
                return BoundedRun::Finished(result);
            }
        }
    }

    /// The micro-op dispatch loop behind [`Machine::run`] and
    /// [`Machine::run_until`].
    ///
    /// `PROFILE` hoists the per-instruction `exec_counts` update out of the
    /// unprofiled monomorphization entirely; `BOUNDED` compiles the target
    /// comparison out of unbounded runs. `pc`/`icount`/`value_producing`
    /// live in locals and are synced back to the architectural fields at
    /// every exit, so pauses and crashes observe exactly the reference
    /// interpreter's state.
    ///
    /// Fused pairs: when a micro-op carries the fuse flag, actually *fell
    /// through* ([`Step::Next`]), and the second half would still be
    /// strictly before the next boundary (`run_until` target or watchdog),
    /// both halves retire in this iteration — each bumping
    /// `icount`/`exec_counts` and passing its writeback through the hook
    /// individually. Near a boundary (or after a taken branch, crash, or
    /// halt in the head) the head's effect stands alone, which is what
    /// makes pauses invisible to fusion.
    fn run_decoded<H: WritebackHook, const PROFILE: bool, const BOUNDED: bool>(
        &mut self,
        hook: &mut H,
        target: u64,
    ) -> BoundedRun {
        let decoded = Arc::clone(&self.decoded);
        let ops = decoded.ops();
        let fpool = decoded.fpool();
        let superblocks = decoded.superblocks();
        let sb_ops = decoded.sb_ops();
        let sb_entry = decoded.sb_entry();
        // The nearest instruction-count boundary at which dispatch must
        // re-check before executing: a fused pair may only retire its
        // second half when that half's pre-execution checks would pass.
        let stop = if BOUNDED {
            target.min(self.max_instructions)
        } else {
            self.max_instructions
        };
        let max_instructions = self.max_instructions;
        let mut pc = self.pc;
        let mut icount = self.icount;
        let mut vp = self.value_producing;
        let outcome = {
            // Disjoint field borrows: the compiler sees the register
            // files, paged memory image, and profile counters as
            // non-aliasing, so a guest store can never invalidate a cached
            // register value or slice length.
            let regs = &mut self.regs;
            let fregs = &mut self.fregs;
            let mem = &mut self.mem;
            let exec_counts = self.exec_counts.as_mut_slice();
            loop {
                if BOUNDED && icount >= target {
                    break None;
                }
                if icount >= max_instructions {
                    break Some(Outcome::InfiniteRun);
                }
                if pc >= ops.len() as u64 {
                    break Some(Outcome::Crashed(CrashKind::PcOutOfRange { pc }));
                }
                let at = pc as usize;
                // Superblock tier: when a trace starts at `pc` and retiring
                // its full length cannot cross the pause/watchdog boundary,
                // execute the whole straight-line body with per-instruction
                // fetch/bounds/watchdog checks hoisted out. Near a boundary
                // (or at a mid-trace pc, e.g. after a snapshot restore) the
                // fused per-op tier below handles the instruction instead.
                let sb = sb_entry[at];
                if sb != 0 {
                    let info = superblocks[(sb - 1) as usize];
                    if icount + u64::from(info.instrs) <= stop {
                        let body = &sb_ops
                            [info.start as usize..info.start as usize + info.elems as usize];
                        match run_superblock::<H, PROFILE>(
                            regs,
                            fregs,
                            mem,
                            exec_counts,
                            &mut vp,
                            hook,
                            body,
                            fpool,
                        ) {
                            SbExit::Continue {
                                executed,
                                next_pc,
                            } => {
                                icount += executed;
                                self.sb_retired += executed;
                                pc = next_pc;
                                continue;
                            }
                            SbExit::Done {
                                executed,
                                final_pc,
                                outcome,
                            } => {
                                icount += executed;
                                self.sb_retired += executed;
                                pc = final_pc;
                                break Some(outcome);
                            }
                        }
                    }
                }
                let m = ops[at];
                icount += 1;
                if PROFILE {
                    exec_counts[at] += 1;
                }
                let mut step = exec_op(regs, fregs, mem, &mut vp, hook, at, m, fpool);
                if m.fuse != 0 && icount < stop && matches!(step, Step::Next) {
                    // Fused pair: the head fell through, carries the fuse
                    // flag (a successor exists), and the successor's
                    // pre-execution checks would pass — retire the
                    // successor in the same iteration, skipping one round
                    // of outer bounds/watchdog/pause checks. The second
                    // dispatch is a distinct inlined copy of `exec_op`,
                    // giving the hot path two alternating indirect-branch
                    // sites, which predict better than one shared site.
                    let at2 = at + 1;
                    icount += 1;
                    if PROFILE {
                        exec_counts[at2] += 1;
                    }
                    pc += 1;
                    step = exec_op(regs, fregs, mem, &mut vp, hook, at2, ops[at2], fpool);
                }
                match step {
                    Step::Next => pc += 1,
                    Step::Jump(t) => pc = t,
                    Step::Halt => break Some(Outcome::Halted),
                    Step::Crash(kind) => break Some(Outcome::Crashed(kind)),
                }
            }
        };
        self.pc = pc;
        self.icount = icount;
        self.value_producing = vp;
        match outcome {
            None => BoundedRun::Paused,
            Some(outcome) => self.finish(outcome),
        }
    }


    /// The dispatch loop of the reference [`Instr`] interpreter, behind
    /// [`Machine::run_reference`] and [`Machine::run_until_reference`].
    /// `BOUNDED` is a const generic so the target comparison is compiled
    /// out entirely for unbounded runs.
    #[allow(clippy::too_many_lines)]
    fn run_loop_reference<H: WritebackHook, const BOUNDED: bool>(
        &mut self,
        hook: &mut H,
        target: u64,
    ) -> BoundedRun {
        let code = &self.program.code;
        loop {
            if BOUNDED && self.icount >= target {
                return BoundedRun::Paused;
            }
            if self.icount >= self.max_instructions {
                return self.finish(Outcome::InfiniteRun);
            }
            let Some(&instr) = usize::try_from(self.pc).ok().and_then(|pc| code.get(pc)) else {
                return self.finish(Outcome::Crashed(CrashKind::PcOutOfRange { pc: self.pc }));
            };
            let at = self.pc as usize;
            self.icount += 1;
            if self.profile {
                self.exec_counts[at] += 1;
            }
            let mut next = self.pc + 1;
            match instr {
                Instr::Alu { op, rd, rs, rt } => {
                    let a = self.regs[rs.index()];
                    let b = self.regs[rt.index()];
                    let v = eval_alu(op, a, b);
                    self.write_int(hook, at, rd, v);
                }
                Instr::AluImm { op, rd, rs, imm } => {
                    let a = self.regs[rs.index()];
                    let v = eval_alu(op, a, imm as u32);
                    self.write_int(hook, at, rd, v);
                }
                Instr::Li { rd, imm } => self.write_int(hook, at, rd, imm as u32),
                Instr::Load {
                    width,
                    signed,
                    rd,
                    base,
                    off,
                } => {
                    let addr = self.regs[base.index()].wrapping_add(off as u32);
                    match self.load(addr, width, signed) {
                        Ok(v) => self.write_int(hook, at, rd, v),
                        Err(k) => return self.finish(Outcome::Crashed(k)),
                    }
                }
                Instr::Store {
                    width, rs, base, off,
                } => {
                    let addr = self.regs[base.index()].wrapping_add(off as u32);
                    let v = self.regs[rs.index()];
                    if let Err(k) = self.store(addr, width, v) {
                        return self.finish(Outcome::Crashed(k));
                    }
                }
                Instr::Branch {
                    cond,
                    rs,
                    rt,
                    target,
                } => {
                    if cond.eval(self.regs[rs.index()], self.regs[rt.index()]) {
                        next = target as u64;
                    }
                }
                Instr::Jump { target } => next = target as u64,
                Instr::Call { target } => {
                    self.write_int(hook, at, reg::RA, (self.pc + 1) as u32);
                    next = target as u64;
                }
                Instr::JumpReg { rs } => next = u64::from(self.regs[rs.index()]),
                Instr::Fpu { op, fd, fs, ft } => {
                    let a = self.fregs[fs.index()];
                    let b = self.fregs[ft.index()];
                    let v = match op {
                        FpuOp::Add => a + b,
                        FpuOp::Sub => a - b,
                        FpuOp::Mul => a * b,
                        FpuOp::Div => a / b,
                        FpuOp::Min => a.min(b),
                        FpuOp::Max => a.max(b),
                    };
                    self.write_float(hook, at, fd, v);
                }
                Instr::FMov { fd, fs } => {
                    let v = self.fregs[fs.index()];
                    self.write_float(hook, at, fd, v);
                }
                Instr::FAbs { fd, fs } => {
                    let v = self.fregs[fs.index()].abs();
                    self.write_float(hook, at, fd, v);
                }
                Instr::FNeg { fd, fs } => {
                    let v = -self.fregs[fs.index()];
                    self.write_float(hook, at, fd, v);
                }
                Instr::FSqrt { fd, fs } => {
                    let v = self.fregs[fs.index()].sqrt();
                    self.write_float(hook, at, fd, v);
                }
                Instr::FLi { fd, value } => self.write_float(hook, at, fd, value),
                Instr::FLoad { fd, base, off } => {
                    let addr = self.regs[base.index()].wrapping_add(off as u32);
                    match self.load_f64(addr) {
                        Ok(v) => self.write_float(hook, at, fd, v),
                        Err(k) => return self.finish(Outcome::Crashed(k)),
                    }
                }
                Instr::FStore { fs, base, off } => {
                    let addr = self.regs[base.index()].wrapping_add(off as u32);
                    let v = self.fregs[fs.index()];
                    if let Err(k) = self.store_f64(addr, v) {
                        return self.finish(Outcome::Crashed(k));
                    }
                }
                Instr::CvtIF { fd, rs } => {
                    let v = self.regs[rs.index()] as i32 as f64;
                    self.write_float(hook, at, fd, v);
                }
                Instr::CvtFI { rd, fs } => {
                    let f = self.fregs[fs.index()];
                    let v = if f.is_nan() {
                        0
                    } else {
                        f.clamp(i32::MIN as f64, i32::MAX as f64) as i32 as u32
                    };
                    self.write_int(hook, at, rd, v);
                }
                Instr::FCmp { op, rd, fs, ft } => {
                    let v = u32::from(op.eval(self.fregs[fs.index()], self.fregs[ft.index()]));
                    self.write_int(hook, at, rd, v);
                }
                Instr::Halt => return self.finish(Outcome::Halted),
                Instr::Nop => {}
            }
            self.pc = next;
        }
    }

    fn finish(&self, outcome: Outcome) -> BoundedRun {
        BoundedRun::Finished(RunResult {
            outcome,
            instructions: self.icount,
            value_producing: self.value_producing,
        })
    }
}

// ---------------------------------------------------------------------
// Guest memory primitives live in the `mem` module (`load_mem`,
// `store_mem`, `load_f64_mem`, `store_f64_mem` over the paged
// copy-on-write image); the writeback helpers below stay here. All are
// free functions over disjoint `&mut` borrows rather than methods so the
// micro-op dispatch loop can hand the compiler non-aliasing views of the
// register files and the memory image — a store can then never
// invalidate a cached register value. The reference interpreter reaches
// them through thin `Machine` method wrappers, so both pipelines share
// one implementation of the memory model.
// ---------------------------------------------------------------------

/// Integer writeback through the hook (raw register index, masked so the
/// compiler emits no bounds check). Observably identical to
/// [`Machine::write_int`]: the hook sees every writeback, including
/// `$zero` destinations, whose value is then discarded.
#[inline(always)]
fn wint<H: WritebackHook>(
    regs: &mut [u32; 32],
    vp: &mut u64,
    hook: &mut H,
    at: usize,
    rd: u8,
    v: u32,
) {
    *vp += 1;
    let v = hook.int_writeback(at, v);
    if rd != 0 {
        regs[(rd & 31) as usize] = v;
    }
}

/// Floating-point writeback through the hook (raw register index).
#[inline(always)]
fn wfloat<H: WritebackHook>(
    fregs: &mut [f64; 32],
    vp: &mut u64,
    hook: &mut H,
    at: usize,
    fd: u8,
    v: f64,
) {
    *vp += 1;
    let v = hook.float_writeback(at, v);
    fregs[(fd & 31) as usize] = v;
}

/// How one pass through a superblock trace ended.
enum SbExit {
    /// The trace was left at an instruction boundary (full fall-out, side
    /// exit, or internal transfer leaving the trace): `executed`
    /// instructions retired and control continues at `next_pc`.
    Continue {
        /// Instructions retired by this pass.
        executed: u64,
        /// Program counter to continue dispatch at.
        next_pc: u64,
    },
    /// The run finished inside the trace (halt or crash).
    Done {
        /// Instructions retired by this pass (including the final one).
        executed: u64,
        /// Architectural `pc` of the halting/faulting instruction, exactly
        /// as the per-op tiers would leave it.
        final_pc: u64,
        /// How the run ended.
        outcome: Outcome,
    },
}

/// Evaluates the ALU half of a combo element: the micro-op is one of the
/// 32 ALU discriminants (register-register below 16, register-immediate
/// from 16, each block in [`AluOp::ALL`] order — pinned by a decode test),
/// so the operation and operand-2 source fall out of the discriminant.
#[inline(always)]
fn alu_flat(regs: &[u32; 32], m: MicroOp) -> u32 {
    let d = m.op as u8;
    let lhs = regs[(m.b & 31) as usize];
    let rhs = if d < 16 {
        regs[(m.c & 31) as usize]
    } else {
        m.imm as u32
    };
    eval_alu(AluOp::ALL[(d & 15) as usize], lhs, rhs)
}

/// Evaluates the load half of a combo element.
#[inline(always)]
fn load_flat(mem: &PagedMem, addr: u32, op: MOp) -> Result<u32, CrashKind> {
    match op {
        MOp::Lb => load_mem(mem, addr, MemWidth::Byte, true),
        MOp::Lbu => load_mem(mem, addr, MemWidth::Byte, false),
        MOp::Lh => load_mem(mem, addr, MemWidth::Half, true),
        MOp::Lhu => load_mem(mem, addr, MemWidth::Half, false),
        _ => load_mem(mem, addr, MemWidth::Word, false),
    }
}

/// Evaluates the store half of a combo element.
#[inline(always)]
fn store_flat(
    mem: &mut PagedMem,
    addr: u32,
    op: MOp,
    value: u32,
) -> Result<(), CrashKind> {
    match op {
        MOp::Sb => store_mem(mem, addr, MemWidth::Byte, value),
        MOp::Sh => store_mem(mem, addr, MemWidth::Half, value),
        _ => store_mem(mem, addr, MemWidth::Word, value),
    }
}

/// Evaluates the conditional-branch half of a combo element.
#[inline(always)]
fn branch_flat(op: MOp, a: u32, b: u32) -> bool {
    match op {
        MOp::Beq => a == b,
        MOp::Bne => a != b,
        MOp::Blt => (a as i32) < (b as i32),
        MOp::Bge => (a as i32) >= (b as i32),
        MOp::Bltu => a < b,
        _ => a >= b,
    }
}

/// Executes one superblock trace to its first exit. The caller has already
/// proven the full trace (in instructions) fits below the watchdog/pause
/// boundary, so the body runs with no per-instruction fetch, bounds, or
/// boundary checks — only the element dispatch itself, plus `exec_counts`
/// updates when `PROFILE` (profiling indices must stay exact per
/// instruction). Combo elements retire two instructions per dispatch,
/// with both halves individually counted, hooked, and crash-precise.
///
/// Continuation rules (see [`SuperOp`]):
///
/// * a fall-through retirement stays in-trace iff the element's
///   sequential flag is set (the builder proved the next element resumes
///   at the element's last instruction plus one), with no index
///   comparison at all;
/// * a transfer stays in-trace iff the next element's `at` equals the
///   dynamic target — true for traced-through jumps, calls, and honest
///   returns; false for side exits and corrupted return addresses.
///
/// Exits reconstruct the architectural `pc` from the element's original
/// instruction indices.
///
/// Deliberately *not* inlined into the dispatch loop: trace entries are
/// amortized over whole traces, and a standalone symbol keeps the trace
/// executor's code layout independent of the outer loop's (interpreter
/// throughput is notoriously alignment-sensitive).
#[inline(never)]
#[allow(clippy::too_many_arguments, clippy::too_many_lines)]
fn run_superblock<H: WritebackHook, const PROFILE: bool>(
    regs: &mut [u32; 32],
    fregs: &mut [f64; 32],
    mem: &mut PagedMem,
    exec_counts: &mut [u64],
    vp: &mut u64,
    hook: &mut H,
    body: &[SuperOp],
    fpool: &[f64],
) -> SbExit {
    use crate::decode::{
        CH3_FIRST, CH3_SLLI_ADD_LW, CH_ADDI_ADD, CH_ADDI_LW, CH_ADDI_SLT, CH_ADDI_SLTI,
        CH_ADD_ADD, CH_ADD_ADDI, CH_ADD_LBU, CH_ADD_LW, CH_ADD_SRAI, CH_ADD_SUB, CH_ANDI_SLLI,
        CH_LBU_ADD, CH_LBU_SUB, CH_LW_ADD, CH_LW_ADDI, CH_LW_BEQ, CH_LW_LW, CH_LW_SLLI,
        CH_LW_XOR, CH_MULI_ADD, CH_MULI_SUB, CH_MUL_ADD, CH_OR_OR, CH_SLLI_ADD, CH_SLTI_ADD,
        CH_SLTI_BNE, CH_SLT_SUB, CH_SRAI_XOR, CH_SRLI_ANDI, CH_SUB_ADD, CH_SUB_MUL, CH_SUB_SRAI,
        CH_ADDI_BLT, CH_ADDI_MULI, CH_ADD_SLLI, CH_ADD_SW, CH_LBU_LBU, CH_MULI_SLLI,
        CH_MUL_SUB, CH_SLT_XORI, CH_SUB_LBU, CH_SW_ADDI, CH_FADD_ADDI, CH_FADD_FADD, CH_FLD_FMUL, CH_FMUL_FADD,
        CH_MULI_MULI, CH_ADD_FLD, CH_SUB_SUB, CH3_ADDI_SLTI_BNE, CH3_ADDI_SLT_SUB,
        CH_SW_SW, CH_XOR_SUB, CH3_ADD_FLD_FMUL, CH3_ADD_LW_ADD, CH3_ANDI_SLLI_ADD,
        CH3_FLD_FMUL_FADD, CH3_LW_ADD_ADD, CH3_LW_LW_LW, CH3_SLLI_ADD_FLD, CH3_SW_SW_SW,
        COMBO_ALU_ALU, COMBO_ALU_BRANCH, COMBO_ALU_LOAD, COMBO_ALU_STORE, COMBO_ANY_ANY,
        COMBO_LOAD_ALU, COMBO_NONE, COMBO_STORE_ALU, COMBO_STORE_STORE,
    };
    let mut i = 0usize;
    let mut retired = 0u64;
    // `vp` arrives as `&mut u64`: left as-is, every writeback would pay a
    // load/add/store through the pointer. Shadowing it with a local (and
    // syncing once at every exit, via the labeled block) lets the counter
    // live in a register for the whole trace, like the fused loop's.
    let mut vpl = *vp;
    let result = 'exec: {
        let vp = &mut vpl;
    macro_rules! exit_seq {
        ($s:expr, $last_at:expr) => {{
            if $s.op.fuse == 0 {
                // Sequential flag clear: the next element (if any) does
                // not resume at `last_at + 1` — leave the trace.
                break 'exec SbExit::Continue {
                    executed: retired,
                    next_pc: u64::from($last_at) + 1,
                };
            }
            i += 1;
        }};
    }
    macro_rules! exit_jump {
        ($t:expr) => {{
            let t = $t;
            i += 1;
            if i == body.len() || u64::from(body[i].at) != t {
                break 'exec SbExit::Continue {
                    executed: retired,
                    next_pc: t,
                };
            }
        }};
    }
    // -----------------------------------------------------------------
    // Specialized chain halves (see the `CH_*` tags in `decode.rs`): the
    // ALU operation, operand form, load width/sign, and branch condition
    // are all static, so each expansion is straight-line code — no
    // `AluOp::ALL` jump table, no width dispatch. Every half still reads
    // its operands from the register file *after* the previous half's
    // writeback (hooks may tamper; `$zero` discards), which is what keeps
    // the chains bit-identical to sequential execution.
    // -----------------------------------------------------------------
    /// First/second ALU half of a chain: `op1`/`op2` picks the micro-op,
    /// `rr`/`ri` the operand-2 source, `$aop` the constant operation.
    macro_rules! chain_alu {
        ($s:expr, op1, rr, $aop:expr) => {{
            let v = eval_alu($aop, regs[($s.op.b & 31) as usize], regs[($s.op.c & 31) as usize]);
            wint(regs, vp, hook, $s.at as usize, $s.op.a, v);
        }};
        ($s:expr, op1, ri, $aop:expr) => {{
            let v = eval_alu($aop, regs[($s.op.b & 31) as usize], $s.op.imm as u32);
            wint(regs, vp, hook, $s.at as usize, $s.op.a, v);
        }};
        ($s:expr, op2, rr, $aop:expr) => {{
            let v = eval_alu(
                $aop,
                regs[($s.op2.b & 31) as usize],
                regs[($s.op2.c & 31) as usize],
            );
            wint(regs, vp, hook, $s.at2 as usize, $s.op2.a, v);
        }};
        ($s:expr, op2, ri, $aop:expr) => {{
            let v = eval_alu($aop, regs[($s.op2.b & 31) as usize], $s.op2.imm as u32);
            wint(regs, vp, hook, $s.at2 as usize, $s.op2.a, v);
        }};
    }
    /// Constant-width load as the chain's *second* half (a crash exits
    /// with the load's pc; the first half's retirement stands).
    macro_rules! chain_ld2 {
        ($s:expr, $width:expr, $signed:expr) => {{
            let addr = regs[($s.op2.b & 31) as usize].wrapping_add($s.op2.imm as u32);
            match load_mem(mem, addr, $width, $signed) {
                Ok(v) => wint(regs, vp, hook, $s.at2 as usize, $s.op2.a, v),
                Err(kind) => {
                    break 'exec SbExit::Done {
                        executed: retired,
                        final_pc: u64::from($s.at2),
                        outcome: Outcome::Crashed(kind),
                    }
                }
            }
        }};
    }
    /// Constant-width load as the chain's *first* half (a crash un-counts
    /// the never-executed second half, like the generic load/ALU arm).
    macro_rules! chain_ld1 {
        ($s:expr, $width:expr, $signed:expr) => {{
            let addr = regs[($s.op.b & 31) as usize].wrapping_add($s.op.imm as u32);
            match load_mem(mem, addr, $width, $signed) {
                Ok(v) => wint(regs, vp, hook, $s.at as usize, $s.op.a, v),
                Err(kind) => {
                    retired -= 1;
                    if PROFILE {
                        exec_counts[$s.at2 as usize] -= 1;
                    }
                    break 'exec SbExit::Done {
                        executed: retired,
                        final_pc: u64::from($s.at),
                        outcome: Outcome::Crashed(kind),
                    };
                }
            }
        }};
    }
    /// Constant-width store as the chain's *second* half (stores are not
    /// value-producing: no hook, no `vp` bump — exactly like the single-op
    /// arms).
    macro_rules! chain_st2 {
        ($s:expr, $width:expr) => {{
            let addr = regs[($s.op2.b & 31) as usize].wrapping_add($s.op2.imm as u32);
            match store_mem(mem, addr, $width, regs[($s.op2.a & 31) as usize]) {
                Ok(()) => {}
                Err(kind) => {
                    break 'exec SbExit::Done {
                        executed: retired,
                        final_pc: u64::from($s.at2),
                        outcome: Outcome::Crashed(kind),
                    }
                }
            }
        }};
    }
    /// Constant-width store as the chain's *first* half (a crash un-counts
    /// the never-executed second half).
    macro_rules! chain_st1 {
        ($s:expr, $width:expr) => {{
            let addr = regs[($s.op.b & 31) as usize].wrapping_add($s.op.imm as u32);
            match store_mem(mem, addr, $width, regs[($s.op.a & 31) as usize]) {
                Ok(()) => {}
                Err(kind) => {
                    retired -= 1;
                    if PROFILE {
                        exec_counts[$s.at2 as usize] -= 1;
                    }
                    break 'exec SbExit::Done {
                        executed: retired,
                        final_pc: u64::from($s.at),
                        outcome: Outcome::Crashed(kind),
                    };
                }
            }
        }};
    }
    /// Constant-condition conditional branch closing a chain.
    macro_rules! chain_br2 {
        ($s:expr, $cmp:expr) => {{
            let cmp = $cmp;
            if cmp(
                regs[($s.op2.a & 31) as usize],
                regs[($s.op2.b & 31) as usize],
            ) {
                exit_jump!(u64::from($s.op2.imm as u32));
            } else {
                exit_seq!($s, $s.at2);
            }
        }};
    }
    /// One trace element (single or combo pair): each expansion is a
    /// distinct set of inlined dispatch sites, and the loop body expands
    /// it four times so consecutive elements rotate across four
    /// branch-predictor sites — the same courtesy the fused tier gets
    /// from its head/successor split, doubled (measured best at 4 on the
    /// dev box; 6 regresses on i-cache).
    macro_rules! element {
        () => {{
        let s = &body[i];
        let combo = s.op2.fuse;
        if combo == COMBO_NONE {
            retired += 1;
            if PROFILE {
                exec_counts[s.at as usize] += 1;
            }
            match exec_op(regs, fregs, mem, vp, hook, s.at as usize, s.op, fpool) {
                Step::Next => exit_seq!(s, s.at),
                Step::Jump(t) => exit_jump!(t),
                Step::Halt => {
                    break 'exec SbExit::Done {
                        executed: retired,
                        final_pc: u64::from(s.at),
                        outcome: Outcome::Halted,
                    }
                }
                Step::Crash(kind) => {
                    break 'exec SbExit::Done {
                        executed: retired,
                        final_pc: u64::from(s.at),
                        outcome: Outcome::Crashed(kind),
                    }
                }
            }
        } else {
        // Combo pair or specialized chain: one dispatch, two (or three)
        // architecturally distinct retirements (separate
        // icount/profile/hook events per constituent instruction).
        if combo >= CH3_FIRST {
            retired += 3;
            if PROFILE {
                exec_counts[s.at as usize] += 1;
                exec_counts[s.at as usize + 1] += 1;
                exec_counts[s.at2 as usize] += 1;
            }
        } else {
            retired += 2;
            if PROFILE {
                exec_counts[s.at as usize] += 1;
                exec_counts[s.at2 as usize] += 1;
            }
        }
        match combo {
            COMBO_ALU_ALU => {
                let v1 = alu_flat(regs, s.op);
                wint(regs, vp, hook, s.at as usize, s.op.a, v1);
                let v2 = alu_flat(regs, s.op2);
                wint(regs, vp, hook, s.at2 as usize, s.op2.a, v2);
                exit_seq!(s, s.at2);
            }
            COMBO_ALU_LOAD => {
                let v1 = alu_flat(regs, s.op);
                wint(regs, vp, hook, s.at as usize, s.op.a, v1);
                let addr = regs[(s.op2.b & 31) as usize].wrapping_add(s.op2.imm as u32);
                match load_flat(mem, addr, s.op2.op) {
                    Ok(v) => {
                        wint(regs, vp, hook, s.at2 as usize, s.op2.a, v);
                        exit_seq!(s, s.at2);
                    }
                    Err(kind) => {
                        break 'exec SbExit::Done {
                            executed: retired,
                            final_pc: u64::from(s.at2),
                            outcome: Outcome::Crashed(kind),
                        }
                    }
                }
            }
            COMBO_LOAD_ALU => {
                let addr = regs[(s.op.b & 31) as usize].wrapping_add(s.op.imm as u32);
                match load_flat(mem, addr, s.op.op) {
                    Ok(v) => wint(regs, vp, hook, s.at as usize, s.op.a, v),
                    Err(kind) => {
                        // The first half crashed: the second never
                        // executed (and must not be counted).
                        retired -= 1;
                        if PROFILE {
                            exec_counts[s.at2 as usize] -= 1;
                        }
                        break 'exec SbExit::Done {
                            executed: retired,
                            final_pc: u64::from(s.at),
                            outcome: Outcome::Crashed(kind),
                        };
                    }
                }
                let v2 = alu_flat(regs, s.op2);
                wint(regs, vp, hook, s.at2 as usize, s.op2.a, v2);
                exit_seq!(s, s.at2);
            }
            COMBO_ALU_BRANCH => {
                let v1 = alu_flat(regs, s.op);
                wint(regs, vp, hook, s.at as usize, s.op.a, v1);
                let a = regs[(s.op2.a & 31) as usize];
                let b = regs[(s.op2.b & 31) as usize];
                if branch_flat(s.op2.op, a, b) {
                    exit_jump!(u64::from(s.op2.imm as u32));
                } else {
                    exit_seq!(s, s.at2);
                }
            }
            COMBO_ANY_ANY => {
                // Catch-all pair: both halves through the full single-op
                // executor — the trace-tier mirror of the fused tier's
                // dynamic pairing. The builder guarantees the head either
                // falls through or crashes.
                match exec_op(regs, fregs, mem, vp, hook, s.at as usize, s.op, fpool) {
                    Step::Next => {}
                    Step::Crash(kind) => {
                        // The head crashed: the second half never executed
                        // (and must not be counted).
                        retired -= 1;
                        if PROFILE {
                            exec_counts[s.at2 as usize] -= 1;
                        }
                        break 'exec SbExit::Done {
                            executed: retired,
                            final_pc: u64::from(s.at),
                            outcome: Outcome::Crashed(kind),
                        };
                    }
                    Step::Jump(_) | Step::Halt => {
                        unreachable!("ANY_ANY head always falls through or crashes")
                    }
                }
                match exec_op(regs, fregs, mem, vp, hook, s.at2 as usize, s.op2, fpool) {
                    Step::Next => exit_seq!(s, s.at2),
                    Step::Jump(t) => exit_jump!(t),
                    Step::Halt => {
                        break 'exec SbExit::Done {
                            executed: retired,
                            final_pc: u64::from(s.at2),
                            outcome: Outcome::Halted,
                        }
                    }
                    Step::Crash(kind) => {
                        break 'exec SbExit::Done {
                            executed: retired,
                            final_pc: u64::from(s.at2),
                            outcome: Outcome::Crashed(kind),
                        }
                    }
                }
            }
            COMBO_ALU_STORE => {
                let v1 = alu_flat(regs, s.op);
                wint(regs, vp, hook, s.at as usize, s.op.a, v1);
                let addr = regs[(s.op2.b & 31) as usize].wrapping_add(s.op2.imm as u32);
                match store_flat(mem, addr, s.op2.op, regs[(s.op2.a & 31) as usize]) {
                    Ok(()) => exit_seq!(s, s.at2),
                    Err(kind) => {
                        break 'exec SbExit::Done {
                            executed: retired,
                            final_pc: u64::from(s.at2),
                            outcome: Outcome::Crashed(kind),
                        }
                    }
                }
            }
            COMBO_STORE_ALU => {
                let addr = regs[(s.op.b & 31) as usize].wrapping_add(s.op.imm as u32);
                match store_flat(mem, addr, s.op.op, regs[(s.op.a & 31) as usize]) {
                    Ok(()) => {}
                    Err(kind) => {
                        // The first half crashed: the second never
                        // executed (and must not be counted).
                        retired -= 1;
                        if PROFILE {
                            exec_counts[s.at2 as usize] -= 1;
                        }
                        break 'exec SbExit::Done {
                            executed: retired,
                            final_pc: u64::from(s.at),
                            outcome: Outcome::Crashed(kind),
                        };
                    }
                }
                let v2 = alu_flat(regs, s.op2);
                wint(regs, vp, hook, s.at2 as usize, s.op2.a, v2);
                exit_seq!(s, s.at2);
            }
            COMBO_STORE_STORE => {
                let addr = regs[(s.op.b & 31) as usize].wrapping_add(s.op.imm as u32);
                match store_flat(mem, addr, s.op.op, regs[(s.op.a & 31) as usize]) {
                    Ok(()) => {}
                    Err(kind) => {
                        retired -= 1;
                        if PROFILE {
                            exec_counts[s.at2 as usize] -= 1;
                        }
                        break 'exec SbExit::Done {
                            executed: retired,
                            final_pc: u64::from(s.at),
                            outcome: Outcome::Crashed(kind),
                        };
                    }
                }
                let addr = regs[(s.op2.b & 31) as usize].wrapping_add(s.op2.imm as u32);
                match store_flat(mem, addr, s.op2.op, regs[(s.op2.a & 31) as usize]) {
                    Ok(()) => exit_seq!(s, s.at2),
                    Err(kind) => {
                        break 'exec SbExit::Done {
                            executed: retired,
                            final_pc: u64::from(s.at2),
                            outcome: Outcome::Crashed(kind),
                        }
                    }
                }
            }
            // --- specialized 2-op chains (census-dominant concrete
            // opcode pairs; straight-line, no inner dispatch) ---
            CH_SLLI_ADD => {
                chain_alu!(s, op1, ri, AluOp::Sll);
                chain_alu!(s, op2, rr, AluOp::Add);
                exit_seq!(s, s.at2);
            }
            CH_ADD_ADD => {
                chain_alu!(s, op1, rr, AluOp::Add);
                chain_alu!(s, op2, rr, AluOp::Add);
                exit_seq!(s, s.at2);
            }
            CH_ADDI_SLTI => {
                chain_alu!(s, op1, ri, AluOp::Add);
                chain_alu!(s, op2, ri, AluOp::Slt);
                exit_seq!(s, s.at2);
            }
            CH_SUB_SRAI => {
                chain_alu!(s, op1, rr, AluOp::Sub);
                chain_alu!(s, op2, ri, AluOp::Sra);
                exit_seq!(s, s.at2);
            }
            CH_SRAI_XOR => {
                chain_alu!(s, op1, ri, AluOp::Sra);
                chain_alu!(s, op2, rr, AluOp::Xor);
                exit_seq!(s, s.at2);
            }
            CH_XOR_SUB => {
                chain_alu!(s, op1, rr, AluOp::Xor);
                chain_alu!(s, op2, rr, AluOp::Sub);
                exit_seq!(s, s.at2);
            }
            CH_SLTI_ADD => {
                chain_alu!(s, op1, ri, AluOp::Slt);
                chain_alu!(s, op2, rr, AluOp::Add);
                exit_seq!(s, s.at2);
            }
            CH_ADD_ADDI => {
                chain_alu!(s, op1, rr, AluOp::Add);
                chain_alu!(s, op2, ri, AluOp::Add);
                exit_seq!(s, s.at2);
            }
            CH_MULI_ADD => {
                chain_alu!(s, op1, ri, AluOp::Mul);
                chain_alu!(s, op2, rr, AluOp::Add);
                exit_seq!(s, s.at2);
            }
            CH_ANDI_SLLI => {
                chain_alu!(s, op1, ri, AluOp::And);
                chain_alu!(s, op2, ri, AluOp::Sll);
                exit_seq!(s, s.at2);
            }
            CH_ADD_LW => {
                chain_alu!(s, op1, rr, AluOp::Add);
                chain_ld2!(s, MemWidth::Word, false);
                exit_seq!(s, s.at2);
            }
            CH_ADDI_LW => {
                chain_alu!(s, op1, ri, AluOp::Add);
                chain_ld2!(s, MemWidth::Word, false);
                exit_seq!(s, s.at2);
            }
            CH_ADD_LBU => {
                chain_alu!(s, op1, rr, AluOp::Add);
                chain_ld2!(s, MemWidth::Byte, false);
                exit_seq!(s, s.at2);
            }
            CH_LW_ADD => {
                chain_ld1!(s, MemWidth::Word, false);
                chain_alu!(s, op2, rr, AluOp::Add);
                exit_seq!(s, s.at2);
            }
            CH_LW_ADDI => {
                chain_ld1!(s, MemWidth::Word, false);
                chain_alu!(s, op2, ri, AluOp::Add);
                exit_seq!(s, s.at2);
            }
            CH_LBU_SUB => {
                chain_ld1!(s, MemWidth::Byte, false);
                chain_alu!(s, op2, rr, AluOp::Sub);
                exit_seq!(s, s.at2);
            }
            CH_LW_SLLI => {
                chain_ld1!(s, MemWidth::Word, false);
                chain_alu!(s, op2, ri, AluOp::Sll);
                exit_seq!(s, s.at2);
            }
            CH_SLTI_BNE => {
                chain_alu!(s, op1, ri, AluOp::Slt);
                chain_br2!(s, |x, y| x != y);
            }
            CH_LW_BEQ => {
                chain_ld1!(s, MemWidth::Word, false);
                chain_br2!(s, |x, y| x == y);
            }
            CH_SUB_ADD => {
                chain_alu!(s, op1, rr, AluOp::Sub);
                chain_alu!(s, op2, rr, AluOp::Add);
                exit_seq!(s, s.at2);
            }
            CH_ADD_SUB => {
                chain_alu!(s, op1, rr, AluOp::Add);
                chain_alu!(s, op2, rr, AluOp::Sub);
                exit_seq!(s, s.at2);
            }
            CH_SUB_SUB => {
                chain_alu!(s, op1, rr, AluOp::Sub);
                chain_alu!(s, op2, rr, AluOp::Sub);
                exit_seq!(s, s.at2);
            }
            CH_LW_LW => {
                chain_ld1!(s, MemWidth::Word, false);
                chain_ld2!(s, MemWidth::Word, false);
                exit_seq!(s, s.at2);
            }
            CH_SW_SW => {
                chain_st1!(s, MemWidth::Word);
                chain_st2!(s, MemWidth::Word);
                exit_seq!(s, s.at2);
            }
            CH_LBU_ADD => {
                chain_ld1!(s, MemWidth::Byte, false);
                chain_alu!(s, op2, rr, AluOp::Add);
                exit_seq!(s, s.at2);
            }
            CH_ADDI_ADD => {
                chain_alu!(s, op1, ri, AluOp::Add);
                chain_alu!(s, op2, rr, AluOp::Add);
                exit_seq!(s, s.at2);
            }
            CH_ADD_SRAI => {
                chain_alu!(s, op1, rr, AluOp::Add);
                chain_alu!(s, op2, ri, AluOp::Sra);
                exit_seq!(s, s.at2);
            }
            CH_MUL_ADD => {
                chain_alu!(s, op1, rr, AluOp::Mul);
                chain_alu!(s, op2, rr, AluOp::Add);
                exit_seq!(s, s.at2);
            }
            CH_SUB_MUL => {
                chain_alu!(s, op1, rr, AluOp::Sub);
                chain_alu!(s, op2, rr, AluOp::Mul);
                exit_seq!(s, s.at2);
            }
            CH_SLT_SUB => {
                chain_alu!(s, op1, rr, AluOp::Slt);
                chain_alu!(s, op2, rr, AluOp::Sub);
                exit_seq!(s, s.at2);
            }
            CH_ADDI_SLT => {
                chain_alu!(s, op1, ri, AluOp::Add);
                chain_alu!(s, op2, rr, AluOp::Slt);
                exit_seq!(s, s.at2);
            }
            CH_OR_OR => {
                chain_alu!(s, op1, rr, AluOp::Or);
                chain_alu!(s, op2, rr, AluOp::Or);
                exit_seq!(s, s.at2);
            }
            CH_LW_XOR => {
                chain_ld1!(s, MemWidth::Word, false);
                chain_alu!(s, op2, rr, AluOp::Xor);
                exit_seq!(s, s.at2);
            }
            CH_SRLI_ANDI => {
                chain_alu!(s, op1, ri, AluOp::Srl);
                chain_alu!(s, op2, ri, AluOp::And);
                exit_seq!(s, s.at2);
            }
            CH_MULI_SUB => {
                chain_alu!(s, op1, ri, AluOp::Mul);
                chain_alu!(s, op2, rr, AluOp::Sub);
                exit_seq!(s, s.at2);
            }
            CH_FADD_ADDI => {
                let v1 = fregs[(s.op.b & 31) as usize] + fregs[(s.op.c & 31) as usize];
                wfloat(fregs, vp, hook, s.at as usize, s.op.a, v1);
                chain_alu!(s, op2, ri, AluOp::Add);
                exit_seq!(s, s.at2);
            }
            CH_FMUL_FADD => {
                let v1 = fregs[(s.op.b & 31) as usize] * fregs[(s.op.c & 31) as usize];
                wfloat(fregs, vp, hook, s.at as usize, s.op.a, v1);
                let v2 = fregs[(s.op2.b & 31) as usize] + fregs[(s.op2.c & 31) as usize];
                wfloat(fregs, vp, hook, s.at2 as usize, s.op2.a, v2);
                exit_seq!(s, s.at2);
            }
            CH_FADD_FADD => {
                let v1 = fregs[(s.op.b & 31) as usize] + fregs[(s.op.c & 31) as usize];
                wfloat(fregs, vp, hook, s.at as usize, s.op.a, v1);
                let v2 = fregs[(s.op2.b & 31) as usize] + fregs[(s.op2.c & 31) as usize];
                wfloat(fregs, vp, hook, s.at2 as usize, s.op2.a, v2);
                exit_seq!(s, s.at2);
            }
            CH_ADD_FLD => {
                chain_alu!(s, op1, rr, AluOp::Add);
                let addr = regs[(s.op2.b & 31) as usize].wrapping_add(s.op2.imm as u32);
                match load_f64_mem(mem, addr) {
                    Ok(v) => {
                        wfloat(fregs, vp, hook, s.at2 as usize, s.op2.a, v);
                        exit_seq!(s, s.at2);
                    }
                    Err(kind) => {
                        break 'exec SbExit::Done {
                            executed: retired,
                            final_pc: u64::from(s.at2),
                            outcome: Outcome::Crashed(kind),
                        }
                    }
                }
            }
            CH_SUB_LBU => {
                chain_alu!(s, op1, rr, AluOp::Sub);
                chain_ld2!(s, MemWidth::Byte, false);
                exit_seq!(s, s.at2);
            }
            CH_LBU_LBU => {
                chain_ld1!(s, MemWidth::Byte, false);
                chain_ld2!(s, MemWidth::Byte, false);
                exit_seq!(s, s.at2);
            }
            CH_ADD_SLLI => {
                chain_alu!(s, op1, rr, AluOp::Add);
                chain_alu!(s, op2, ri, AluOp::Sll);
                exit_seq!(s, s.at2);
            }
            CH_ADD_SW => {
                chain_alu!(s, op1, rr, AluOp::Add);
                chain_st2!(s, MemWidth::Word);
                exit_seq!(s, s.at2);
            }
            CH_MULI_SLLI => {
                chain_alu!(s, op1, ri, AluOp::Mul);
                chain_alu!(s, op2, ri, AluOp::Sll);
                exit_seq!(s, s.at2);
            }
            CH_SW_ADDI => {
                chain_st1!(s, MemWidth::Word);
                chain_alu!(s, op2, ri, AluOp::Add);
                exit_seq!(s, s.at2);
            }
            CH_SLT_XORI => {
                chain_alu!(s, op1, rr, AluOp::Slt);
                chain_alu!(s, op2, ri, AluOp::Xor);
                exit_seq!(s, s.at2);
            }
            CH_MUL_SUB => {
                chain_alu!(s, op1, rr, AluOp::Mul);
                chain_alu!(s, op2, rr, AluOp::Sub);
                exit_seq!(s, s.at2);
            }
            CH_ADDI_BLT => {
                chain_alu!(s, op1, ri, AluOp::Add);
                chain_br2!(s, |x: u32, y: u32| (x as i32) < (y as i32));
            }
            CH_MULI_MULI => {
                chain_alu!(s, op1, ri, AluOp::Mul);
                chain_alu!(s, op2, ri, AluOp::Mul);
                exit_seq!(s, s.at2);
            }
            CH_ADDI_MULI => {
                chain_alu!(s, op1, ri, AluOp::Add);
                chain_alu!(s, op2, ri, AluOp::Mul);
                exit_seq!(s, s.at2);
            }
            CH_FLD_FMUL => {
                let addr = regs[(s.op.b & 31) as usize].wrapping_add(s.op.imm as u32);
                match load_f64_mem(mem, addr) {
                    Ok(v) => wfloat(fregs, vp, hook, s.at as usize, s.op.a, v),
                    Err(kind) => {
                        retired -= 1;
                        if PROFILE {
                            exec_counts[s.at2 as usize] -= 1;
                        }
                        break 'exec SbExit::Done {
                            executed: retired,
                            final_pc: u64::from(s.at),
                            outcome: Outcome::Crashed(kind),
                        };
                    }
                }
                let v2 = fregs[(s.op2.b & 31) as usize] * fregs[(s.op2.c & 31) as usize];
                wfloat(fregs, vp, hook, s.at2 as usize, s.op2.a, v2);
                exit_seq!(s, s.at2);
            }
            // --- specialized 3-op chains (field layouts documented at
            // `specialize_triple` in decode.rs) ---
            CH3_SLLI_ADD_LW => {
                // op = {a:t, b:s, c:u, imm:sh}; op2 = {a:x, b:y, c:d, imm:off}.
                let v1 = eval_alu(AluOp::Sll, regs[(s.op.b & 31) as usize], s.op.imm as u32);
                wint(regs, vp, hook, s.at as usize, s.op.a, v1);
                let v2 = eval_alu(
                    AluOp::Add,
                    regs[(s.op2.a & 31) as usize],
                    regs[(s.op2.b & 31) as usize],
                );
                wint(regs, vp, hook, s.at as usize + 1, s.op.c, v2);
                let addr = regs[(s.op.c & 31) as usize].wrapping_add(s.op2.imm as u32);
                match load_mem(mem, addr, MemWidth::Word, false) {
                    Ok(v) => {
                        wint(regs, vp, hook, s.at2 as usize, s.op2.c, v);
                        exit_seq!(s, s.at2);
                    }
                    Err(kind) => {
                        break 'exec SbExit::Done {
                            executed: retired,
                            final_pc: u64::from(s.at2),
                            outcome: Outcome::Crashed(kind),
                        }
                    }
                }
            }
            CH3_ADD_LW_ADD => {
                // op = {a:u, b:x, c:y, imm:off}; op2 = {a:d, b:v, c:q}.
                let v1 = eval_alu(
                    AluOp::Add,
                    regs[(s.op.b & 31) as usize],
                    regs[(s.op.c & 31) as usize],
                );
                wint(regs, vp, hook, s.at as usize, s.op.a, v1);
                let addr = regs[(s.op.a & 31) as usize].wrapping_add(s.op.imm as u32);
                match load_mem(mem, addr, MemWidth::Word, false) {
                    Ok(v) => wint(regs, vp, hook, s.at as usize + 1, s.op2.a, v),
                    Err(kind) => {
                        // Crash at the middle instruction: the third
                        // never executed.
                        retired -= 1;
                        if PROFILE {
                            exec_counts[s.at2 as usize] -= 1;
                        }
                        break 'exec SbExit::Done {
                            executed: retired,
                            final_pc: u64::from(s.at) + 1,
                            outcome: Outcome::Crashed(kind),
                        };
                    }
                }
                let v3 = eval_alu(
                    AluOp::Add,
                    regs[(s.op2.a & 31) as usize],
                    regs[(s.op2.c & 31) as usize],
                );
                wint(regs, vp, hook, s.at2 as usize, s.op2.b, v3);
                exit_seq!(s, s.at2);
            }
            CH3_LW_ADD_ADD => {
                // op = {a:d, b:base, c:y, imm:off}; op2 = {a:u, b:v, c:q}.
                let addr = regs[(s.op.b & 31) as usize].wrapping_add(s.op.imm as u32);
                match load_mem(mem, addr, MemWidth::Word, false) {
                    Ok(v) => wint(regs, vp, hook, s.at as usize, s.op.a, v),
                    Err(kind) => {
                        // Crash at the first instruction: neither add
                        // executed.
                        retired -= 2;
                        if PROFILE {
                            exec_counts[s.at as usize + 1] -= 1;
                            exec_counts[s.at2 as usize] -= 1;
                        }
                        break 'exec SbExit::Done {
                            executed: retired,
                            final_pc: u64::from(s.at),
                            outcome: Outcome::Crashed(kind),
                        };
                    }
                }
                let v2 = eval_alu(
                    AluOp::Add,
                    regs[(s.op.a & 31) as usize],
                    regs[(s.op.c & 31) as usize],
                );
                wint(regs, vp, hook, s.at as usize + 1, s.op2.a, v2);
                let v3 = eval_alu(
                    AluOp::Add,
                    regs[(s.op2.a & 31) as usize],
                    regs[(s.op2.c & 31) as usize],
                );
                wint(regs, vp, hook, s.at2 as usize, s.op2.b, v3);
                exit_seq!(s, s.at2);
            }
            CH3_ANDI_SLLI_ADD => {
                // op = {a:t, b:s, c:u, imm: i1 & 0xFFFF | i2 << 16};
                // op2 = {a:x, b:v, c:p}.
                let i1 = i32::from(s.op.imm as i16);
                let i2 = s.op.imm >> 16;
                let v1 = eval_alu(AluOp::And, regs[(s.op.b & 31) as usize], i1 as u32);
                wint(regs, vp, hook, s.at as usize, s.op.a, v1);
                let v2 = eval_alu(AluOp::Sll, regs[(s.op2.a & 31) as usize], i2 as u32);
                wint(regs, vp, hook, s.at as usize + 1, s.op.c, v2);
                let v3 = eval_alu(
                    AluOp::Add,
                    regs[(s.op.c & 31) as usize],
                    regs[(s.op2.c & 31) as usize],
                );
                wint(regs, vp, hook, s.at2 as usize, s.op2.b, v3);
                exit_seq!(s, s.at2);
            }
            CH3_SLLI_ADD_FLD => {
                // op = {a:t, b:s, c:u, imm:sh}; op2 = {a:x, b:y, c:fd, imm:off}.
                let v1 = eval_alu(AluOp::Sll, regs[(s.op.b & 31) as usize], s.op.imm as u32);
                wint(regs, vp, hook, s.at as usize, s.op.a, v1);
                let v2 = eval_alu(
                    AluOp::Add,
                    regs[(s.op2.a & 31) as usize],
                    regs[(s.op2.b & 31) as usize],
                );
                wint(regs, vp, hook, s.at as usize + 1, s.op.c, v2);
                let addr = regs[(s.op.c & 31) as usize].wrapping_add(s.op2.imm as u32);
                match load_f64_mem(mem, addr) {
                    Ok(v) => {
                        wfloat(fregs, vp, hook, s.at2 as usize, s.op2.c, v);
                        exit_seq!(s, s.at2);
                    }
                    Err(kind) => {
                        break 'exec SbExit::Done {
                            executed: retired,
                            final_pc: u64::from(s.at2),
                            outcome: Outcome::Crashed(kind),
                        }
                    }
                }
            }
            CH3_LW_LW_LW => {
                // op = {a:d1, b:b1, c:d2, imm:off1};
                // op2 = {a:b2, b:d3, c:b3, imm: off2 & 0xFFFF | off3 << 16}.
                let off2 = i32::from(s.op2.imm as i16);
                let off3 = s.op2.imm >> 16;
                let addr = regs[(s.op.b & 31) as usize].wrapping_add(s.op.imm as u32);
                match load_mem(mem, addr, MemWidth::Word, false) {
                    Ok(v) => wint(regs, vp, hook, s.at as usize, s.op.a, v),
                    Err(kind) => {
                        retired -= 2;
                        if PROFILE {
                            exec_counts[s.at as usize + 1] -= 1;
                            exec_counts[s.at2 as usize] -= 1;
                        }
                        break 'exec SbExit::Done {
                            executed: retired,
                            final_pc: u64::from(s.at),
                            outcome: Outcome::Crashed(kind),
                        };
                    }
                }
                let addr = regs[(s.op2.a & 31) as usize].wrapping_add(off2 as u32);
                match load_mem(mem, addr, MemWidth::Word, false) {
                    Ok(v) => wint(regs, vp, hook, s.at as usize + 1, s.op.c, v),
                    Err(kind) => {
                        retired -= 1;
                        if PROFILE {
                            exec_counts[s.at2 as usize] -= 1;
                        }
                        break 'exec SbExit::Done {
                            executed: retired,
                            final_pc: u64::from(s.at) + 1,
                            outcome: Outcome::Crashed(kind),
                        };
                    }
                }
                let addr = regs[(s.op2.c & 31) as usize].wrapping_add(off3 as u32);
                match load_mem(mem, addr, MemWidth::Word, false) {
                    Ok(v) => {
                        wint(regs, vp, hook, s.at2 as usize, s.op2.b, v);
                        exit_seq!(s, s.at2);
                    }
                    Err(kind) => {
                        break 'exec SbExit::Done {
                            executed: retired,
                            final_pc: u64::from(s.at2),
                            outcome: Outcome::Crashed(kind),
                        }
                    }
                }
            }
            CH3_SW_SW_SW => {
                // op = {a:rs1, b:b1, c:rs2, imm:off1};
                // op2 = {a:b2, b:rs3, c:b3, imm: off2 & 0xFFFF | off3 << 16}.
                let off2 = i32::from(s.op2.imm as i16);
                let off3 = s.op2.imm >> 16;
                let addr = regs[(s.op.b & 31) as usize].wrapping_add(s.op.imm as u32);
                match store_mem(mem, addr, MemWidth::Word, regs[(s.op.a & 31) as usize]) {
                    Ok(()) => {}
                    Err(kind) => {
                        retired -= 2;
                        if PROFILE {
                            exec_counts[s.at as usize + 1] -= 1;
                            exec_counts[s.at2 as usize] -= 1;
                        }
                        break 'exec SbExit::Done {
                            executed: retired,
                            final_pc: u64::from(s.at),
                            outcome: Outcome::Crashed(kind),
                        };
                    }
                }
                let addr = regs[(s.op2.a & 31) as usize].wrapping_add(off2 as u32);
                match store_mem(mem, addr, MemWidth::Word, regs[(s.op.c & 31) as usize]) {
                    Ok(()) => {}
                    Err(kind) => {
                        retired -= 1;
                        if PROFILE {
                            exec_counts[s.at2 as usize] -= 1;
                        }
                        break 'exec SbExit::Done {
                            executed: retired,
                            final_pc: u64::from(s.at) + 1,
                            outcome: Outcome::Crashed(kind),
                        };
                    }
                }
                let addr = regs[(s.op2.c & 31) as usize].wrapping_add(off3 as u32);
                match store_mem(mem, addr, MemWidth::Word, regs[(s.op2.b & 31) as usize]) {
                    Ok(()) => exit_seq!(s, s.at2),
                    Err(kind) => {
                        break 'exec SbExit::Done {
                            executed: retired,
                            final_pc: u64::from(s.at2),
                            outcome: Outcome::Crashed(kind),
                        }
                    }
                }
            }
            CH3_ADD_FLD_FMUL => {
                // op = {a:u, b:x, c:y, imm:off}; op2 = {a:fd, b:fv, c:fq}.
                let v1 = eval_alu(
                    AluOp::Add,
                    regs[(s.op.b & 31) as usize],
                    regs[(s.op.c & 31) as usize],
                );
                wint(regs, vp, hook, s.at as usize, s.op.a, v1);
                let addr = regs[(s.op.a & 31) as usize].wrapping_add(s.op.imm as u32);
                match load_f64_mem(mem, addr) {
                    Ok(v) => wfloat(fregs, vp, hook, s.at as usize + 1, s.op2.a, v),
                    Err(kind) => {
                        retired -= 1;
                        if PROFILE {
                            exec_counts[s.at2 as usize] -= 1;
                        }
                        break 'exec SbExit::Done {
                            executed: retired,
                            final_pc: u64::from(s.at) + 1,
                            outcome: Outcome::Crashed(kind),
                        };
                    }
                }
                let v3 = fregs[(s.op2.a & 31) as usize] * fregs[(s.op2.c & 31) as usize];
                wfloat(fregs, vp, hook, s.at2 as usize, s.op2.b, v3);
                exit_seq!(s, s.at2);
            }
            CH3_FLD_FMUL_FADD => {
                // op = {a:fd, b:b, c:t, imm:off}; op2 = {a:u, b:v, c:q}.
                let addr = regs[(s.op.b & 31) as usize].wrapping_add(s.op.imm as u32);
                match load_f64_mem(mem, addr) {
                    Ok(v) => wfloat(fregs, vp, hook, s.at as usize, s.op.a, v),
                    Err(kind) => {
                        retired -= 2;
                        if PROFILE {
                            exec_counts[s.at as usize + 1] -= 1;
                            exec_counts[s.at2 as usize] -= 1;
                        }
                        break 'exec SbExit::Done {
                            executed: retired,
                            final_pc: u64::from(s.at),
                            outcome: Outcome::Crashed(kind),
                        };
                    }
                }
                let v2 = fregs[(s.op.a & 31) as usize] * fregs[(s.op.c & 31) as usize];
                wfloat(fregs, vp, hook, s.at as usize + 1, s.op2.a, v2);
                let v3 = fregs[(s.op2.a & 31) as usize] + fregs[(s.op2.c & 31) as usize];
                wfloat(fregs, vp, hook, s.at2 as usize, s.op2.b, v3);
                exit_seq!(s, s.at2);
            }
            CH3_ADDI_SLT_SUB => {
                // op = {a:a1, b:b1, c:u, imm:imm}; op2 = {a:x, b:v, c:q}.
                let v1 = eval_alu(AluOp::Add, regs[(s.op.b & 31) as usize], s.op.imm as u32);
                wint(regs, vp, hook, s.at as usize, s.op.a, v1);
                let v2 = eval_alu(
                    AluOp::Slt,
                    regs[(s.op2.a & 31) as usize],
                    regs[(s.op.a & 31) as usize],
                );
                wint(regs, vp, hook, s.at as usize + 1, s.op.c, v2);
                let v3 = eval_alu(
                    AluOp::Sub,
                    regs[(s.op2.c & 31) as usize],
                    regs[(s.op.c & 31) as usize],
                );
                wint(regs, vp, hook, s.at2 as usize, s.op2.b, v3);
                exit_seq!(s, s.at2);
            }
            CH3_ADDI_SLTI_BNE => {
                // op = {a:a1, b:b1, c:a2, imm: i1 & 0xFFFF | i2 << 16};
                // op2 = {a:b2, b:s, c:t, imm:target}.
                let i1 = i32::from(s.op.imm as i16);
                let i2 = s.op.imm >> 16;
                let v1 = eval_alu(AluOp::Add, regs[(s.op.b & 31) as usize], i1 as u32);
                wint(regs, vp, hook, s.at as usize, s.op.a, v1);
                let v2 = eval_alu(AluOp::Slt, regs[(s.op2.a & 31) as usize], i2 as u32);
                wint(regs, vp, hook, s.at as usize + 1, s.op.c, v2);
                if regs[(s.op2.b & 31) as usize] != regs[(s.op2.c & 31) as usize] {
                    exit_jump!(u64::from(s.op2.imm as u32));
                } else {
                    exit_seq!(s, s.at2);
                }
            }
            // Every tag decode.rs can emit has an explicit arm above: a
            // tag landing here means a matcher/executor mismatch, which
            // must fail loudly, not misexecute another chain's layout.
            other => unreachable!("trace element carries unknown chain tag {other}"),
        }
        }
        }};
    }
    loop {
            element!();
            element!();
            element!();
            element!();
        }
    };
    *vp = vpl;
    result
}

/// Executes one micro-op and reports its control-flow effect: one flat
/// match over the folded opcode — every sub-operation (ALU op, width,
/// sign, condition) is baked into its own arm, so the interpreter pays a
/// single dispatch per instruction with no second-level `match`.
#[inline(always)]
#[allow(clippy::too_many_lines, clippy::too_many_arguments)]
fn exec_op<H: WritebackHook>(
    regs: &mut [u32; 32],
    fregs: &mut [f64; 32],
    mem: &mut PagedMem,
    vp: &mut u64,
    hook: &mut H,
    at: usize,
    m: MicroOp,
    fpool: &[f64],
) -> Step {
    /// Masked register read: no bounds-check branch in the hot loop.
    macro_rules! r {
        ($i:expr) => {
            regs[(($i) & 31) as usize]
        };
    }
    /// Masked floating-point register read.
    macro_rules! f {
        ($i:expr) => {
            fregs[(($i) & 31) as usize]
        };
    }
    /// Register-register ALU arm: `eval_alu` with a constant op folds to
    /// the single operation at compile time.
    macro_rules! rr {
        ($op:expr) => {{
            let v = eval_alu($op, r!(m.b), r!(m.c));
            wint(regs, vp, hook, at, m.a, v);
            Step::Next
        }};
    }
    /// Register-immediate ALU arm.
    macro_rules! ri {
        ($op:expr) => {{
            let v = eval_alu($op, r!(m.b), m.imm as u32);
            wint(regs, vp, hook, at, m.a, v);
            Step::Next
        }};
    }
    /// Load arm: constant width/sign fold `load_mem` to one case.
    macro_rules! ld {
        ($width:expr, $signed:expr) => {{
            let addr = r!(m.b).wrapping_add(m.imm as u32);
            match load_mem(mem, addr, $width, $signed) {
                Ok(v) => {
                    wint(regs, vp, hook, at, m.a, v);
                    Step::Next
                }
                Err(kind) => Step::Crash(kind),
            }
        }};
    }
    /// Store arm.
    macro_rules! st {
        ($width:expr) => {{
            let addr = r!(m.b).wrapping_add(m.imm as u32);
            match store_mem(mem, addr, $width, r!(m.a)) {
                Ok(()) => Step::Next,
                Err(kind) => Step::Crash(kind),
            }
        }};
    }
    /// Branch arm: `$cmp` is a two-argument comparison function.
    macro_rules! br {
        ($cmp:expr) => {{
            let cmp = $cmp;
            if cmp(r!(m.a), r!(m.b)) {
                Step::Jump(u64::from(m.imm as u32))
            } else {
                Step::Next
            }
        }};
    }
    /// Two-operand FPU arithmetic arm.
    macro_rules! fpu {
        ($f:expr) => {{
            let f = $f;
            let v: f64 = f(f!(m.b), f!(m.c));
            wfloat(fregs, vp, hook, at, m.a, v);
            Step::Next
        }};
    }
    /// One-operand FPU arm.
    macro_rules! fpu1 {
        ($f:expr) => {{
            let f = $f;
            let v: f64 = f(f!(m.b));
            wfloat(fregs, vp, hook, at, m.a, v);
            Step::Next
        }};
    }
    /// Float-comparison arm writing a 0/1 integer.
    macro_rules! fcmp {
        ($f:expr) => {{
            let f = $f;
            let v = u32::from(f(f!(m.b), f!(m.c)));
            wint(regs, vp, hook, at, m.a, v);
            Step::Next
        }};
    }
    match m.op {
        MOp::AddRR => rr!(AluOp::Add),
        MOp::SubRR => rr!(AluOp::Sub),
        MOp::MulRR => rr!(AluOp::Mul),
        MOp::DivRR => rr!(AluOp::Div),
        MOp::RemRR => rr!(AluOp::Rem),
        MOp::DivuRR => rr!(AluOp::Divu),
        MOp::RemuRR => rr!(AluOp::Remu),
        MOp::AndRR => rr!(AluOp::And),
        MOp::OrRR => rr!(AluOp::Or),
        MOp::XorRR => rr!(AluOp::Xor),
        MOp::NorRR => rr!(AluOp::Nor),
        MOp::SllRR => rr!(AluOp::Sll),
        MOp::SrlRR => rr!(AluOp::Srl),
        MOp::SraRR => rr!(AluOp::Sra),
        MOp::SltRR => rr!(AluOp::Slt),
        MOp::SltuRR => rr!(AluOp::Sltu),
        MOp::AddRI => ri!(AluOp::Add),
        MOp::SubRI => ri!(AluOp::Sub),
        MOp::MulRI => ri!(AluOp::Mul),
        MOp::DivRI => ri!(AluOp::Div),
        MOp::RemRI => ri!(AluOp::Rem),
        MOp::DivuRI => ri!(AluOp::Divu),
        MOp::RemuRI => ri!(AluOp::Remu),
        MOp::AndRI => ri!(AluOp::And),
        MOp::OrRI => ri!(AluOp::Or),
        MOp::XorRI => ri!(AluOp::Xor),
        MOp::NorRI => ri!(AluOp::Nor),
        MOp::SllRI => ri!(AluOp::Sll),
        MOp::SrlRI => ri!(AluOp::Srl),
        MOp::SraRI => ri!(AluOp::Sra),
        MOp::SltRI => ri!(AluOp::Slt),
        MOp::SltuRI => ri!(AluOp::Sltu),
        MOp::Li => {
            wint(regs, vp, hook, at, m.a, m.imm as u32);
            Step::Next
        }
        MOp::Lb => ld!(MemWidth::Byte, true),
        MOp::Lbu => ld!(MemWidth::Byte, false),
        MOp::Lh => ld!(MemWidth::Half, true),
        MOp::Lhu => ld!(MemWidth::Half, false),
        MOp::Lw => ld!(MemWidth::Word, false),
        MOp::Sb => st!(MemWidth::Byte),
        MOp::Sh => st!(MemWidth::Half),
        MOp::Sw => st!(MemWidth::Word),
        MOp::Beq => br!(|x, y| x == y),
        MOp::Bne => br!(|x, y| x != y),
        MOp::Blt => br!(|x: u32, y: u32| (x as i32) < (y as i32)),
        MOp::Bge => br!(|x: u32, y: u32| (x as i32) >= (y as i32)),
        MOp::Bltu => br!(|x, y| x < y),
        MOp::Bgeu => br!(|x, y| x >= y),
        MOp::Jump => Step::Jump(u64::from(m.imm as u32)),
        MOp::Call => {
            wint(regs, vp, hook, at, m.a, (at + 1) as u32);
            Step::Jump(u64::from(m.imm as u32))
        }
        MOp::JumpReg => Step::Jump(u64::from(r!(m.a))),
        MOp::FAdd => fpu!(|x, y| x + y),
        MOp::FSub => fpu!(|x, y| x - y),
        MOp::FMul => fpu!(|x, y| x * y),
        MOp::FDiv => fpu!(|x, y| x / y),
        MOp::FMin => fpu!(f64::min),
        MOp::FMax => fpu!(f64::max),
        MOp::FMov => fpu1!(|x| x),
        MOp::FAbs => fpu1!(f64::abs),
        MOp::FNeg => fpu1!(|x: f64| -x),
        MOp::FSqrt => fpu1!(f64::sqrt),
        MOp::FLi => {
            let v = fpool[m.imm as usize];
            wfloat(fregs, vp, hook, at, m.a, v);
            Step::Next
        }
        MOp::FLd => {
            let addr = r!(m.b).wrapping_add(m.imm as u32);
            match load_f64_mem(mem, addr) {
                Ok(v) => {
                    wfloat(fregs, vp, hook, at, m.a, v);
                    Step::Next
                }
                Err(kind) => Step::Crash(kind),
            }
        }
        MOp::FSd => {
            let addr = r!(m.b).wrapping_add(m.imm as u32);
            let v = f!(m.a);
            match store_f64_mem(mem, addr, v) {
                Ok(()) => Step::Next,
                Err(kind) => Step::Crash(kind),
            }
        }
        MOp::CvtIF => {
            let v = r!(m.b) as i32 as f64;
            wfloat(fregs, vp, hook, at, m.a, v);
            Step::Next
        }
        MOp::CvtFI => {
            let f = f!(m.b);
            let v = if f.is_nan() {
                0
            } else {
                f.clamp(i32::MIN as f64, i32::MAX as f64) as i32 as u32
            };
            wint(regs, vp, hook, at, m.a, v);
            Step::Next
        }
        MOp::FCeq => fcmp!(|x, y| x == y),
        MOp::FClt => fcmp!(|x, y| x < y),
        MOp::FCle => fcmp!(|x, y| x <= y),
        MOp::Halt => Step::Halt,
        MOp::Nop => Step::Next,
    }
}

#[inline]
fn eval_alu(op: AluOp, a: u32, b: u32) -> u32 {
    match op {
        AluOp::Add => a.wrapping_add(b),
        AluOp::Sub => a.wrapping_sub(b),
        AluOp::Mul => a.wrapping_mul(b),
        AluOp::Div => {
            if b == 0 {
                0
            } else {
                (a as i32).wrapping_div(b as i32) as u32
            }
        }
        AluOp::Rem => {
            if b == 0 {
                0
            } else {
                (a as i32).wrapping_rem(b as i32) as u32
            }
        }
        AluOp::Divu => a.checked_div(b).unwrap_or(0),
        AluOp::Remu => a.checked_rem(b).unwrap_or(0),
        AluOp::And => a & b,
        AluOp::Or => a | b,
        AluOp::Xor => a ^ b,
        AluOp::Nor => !(a | b),
        AluOp::Sll => a.wrapping_shl(b),
        AluOp::Srl => a.wrapping_shr(b),
        AluOp::Sra => (a as i32).wrapping_shr(b) as u32,
        AluOp::Slt => u32::from((a as i32) < (b as i32)),
        AluOp::Sltu => u32::from(a < b),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use certa_asm::Asm;
    use certa_isa::reg::{A0, RA, SP, T0, T1, T2, V0, F0, F1, F2};

    fn run_program(build: impl FnOnce(&mut Asm)) -> (Program, RunResult) {
        let mut a = Asm::new();
        build(&mut a);
        let p = a.assemble().unwrap();
        let mut m = Machine::new(&p, &MachineConfig::default());
        let r = m.run_simple();
        (p, r)
    }

    #[test]
    fn arithmetic_loop_sums() {
        let mut a = Asm::new();
        a.func("main", false);
        a.li(A0, 100);
        a.li(V0, 0);
        a.li(T0, 1);
        a.label("loop");
        a.add(V0, V0, T0);
        a.addi(T0, T0, 1);
        a.ble(T0, A0, "loop");
        a.halt();
        a.endfunc();
        let p = a.assemble().unwrap();
        let mut m = Machine::new(&p, &MachineConfig::default());
        let r = m.run_simple();
        assert_eq!(r.outcome, Outcome::Halted);
        assert_eq!(m.reg(V0), 5050);
    }

    #[test]
    fn call_and_return() {
        let mut a = Asm::new();
        a.func("double", false);
        a.add(V0, A0, A0);
        a.ret();
        a.endfunc();
        a.func("main", false);
        a.li(A0, 21);
        a.call("double");
        a.halt();
        a.endfunc();
        let p = a.assemble().unwrap();
        let mut m = Machine::new(&p, &MachineConfig::default());
        let r = m.run_simple();
        assert_eq!(r.outcome, Outcome::Halted);
        assert_eq!(m.reg(V0), 42);
    }

    #[test]
    fn memory_round_trip_all_widths() {
        let mut a = Asm::new();
        let buf = a.data_zero(16);
        a.func("main", false);
        a.la(T0, buf);
        a.li(T1, -2);
        a.sw(T1, 0, T0);
        a.lw(T2, 0, T0);
        a.sh(T1, 4, T0);
        a.lh(V0, 4, T0);
        a.sb(T1, 8, T0);
        a.lb(A0, 8, T0);
        a.lbu(RA, 8, T0);
        a.halt();
        a.endfunc();
        let p = a.assemble().unwrap();
        let mut m = Machine::new(&p, &MachineConfig::default());
        assert_eq!(m.run_simple().outcome, Outcome::Halted);
        assert_eq!(m.reg(T2) as i32, -2);
        assert_eq!(m.reg(V0) as i32, -2);
        assert_eq!(m.reg(A0) as i32, -2);
        assert_eq!(m.reg(RA), 0xfe);
    }

    #[test]
    fn guard_region_access_crashes() {
        let (_, r) = run_program(|a| {
            a.func("main", false);
            a.li(T0, 0x10); // below DATA_BASE
            a.lw(T1, 0, T0);
            a.halt();
            a.endfunc();
        });
        assert!(matches!(
            r.outcome,
            Outcome::Crashed(CrashKind::MemOutOfBounds { .. })
        ));
    }

    #[test]
    fn misaligned_access_crashes() {
        let (_, r) = run_program(|a| {
            let buf = a.data_zero(8);
            a.func("main", false);
            a.la(T0, buf);
            a.lw(T1, 1, T0);
            a.halt();
            a.endfunc();
        });
        assert!(matches!(
            r.outcome,
            Outcome::Crashed(CrashKind::Misaligned { addr: _, size: 4 })
        ));
    }

    #[test]
    fn wild_jump_crashes() {
        let (_, r) = run_program(|a| {
            a.func("main", false);
            a.li(T0, 1_000_000);
            a.jr(T0);
            a.halt();
            a.endfunc();
        });
        assert!(matches!(
            r.outcome,
            Outcome::Crashed(CrashKind::PcOutOfRange { .. })
        ));
    }

    #[test]
    fn watchdog_fires_on_infinite_loop() {
        let mut a = Asm::new();
        a.func("main", false);
        a.label("spin");
        a.j("spin");
        a.halt();
        a.endfunc();
        let p = a.assemble().unwrap();
        let mut m = Machine::new(
            &p,
            &MachineConfig {
                max_instructions: 10_000,
                ..MachineConfig::default()
            },
        );
        let r = m.run_simple();
        assert_eq!(r.outcome, Outcome::InfiniteRun);
        assert!(r.outcome.is_catastrophic());
        assert_eq!(r.instructions, 10_000);
    }

    #[test]
    fn division_by_zero_yields_zero_not_crash() {
        let (_, r) = run_program(|a| {
            a.func("main", false);
            a.li(T0, 7);
            a.li(T1, 0);
            a.div(V0, T0, T1);
            a.rem(A0, T0, T1);
            a.halt();
            a.endfunc();
        });
        assert_eq!(r.outcome, Outcome::Halted);
    }

    #[test]
    fn float_pipeline() {
        let mut a = Asm::new();
        a.func("main", false);
        a.fli(F0, 2.0);
        a.fli(F1, 8.0);
        a.fmul(F2, F0, F1);
        a.fsqrt(F2, F2);
        a.cvt_fi(V0, F2);
        a.fcmp_lt(T0, F0, F1);
        a.halt();
        a.endfunc();
        let p = a.assemble().unwrap();
        let mut m = Machine::new(&p, &MachineConfig::default());
        assert_eq!(m.run_simple().outcome, Outcome::Halted);
        assert_eq!(m.reg(V0), 4);
        assert_eq!(m.reg(T0), 1);
    }

    #[test]
    fn stack_push_pop() {
        let mut a = Asm::new();
        a.func("main", false);
        a.li(T0, 77);
        a.addi(SP, SP, -8);
        a.sw(T0, 0, SP);
        a.li(T0, 0);
        a.lw(V0, 0, SP);
        a.addi(SP, SP, 8);
        a.halt();
        a.endfunc();
        let p = a.assemble().unwrap();
        let mut m = Machine::new(&p, &MachineConfig::default());
        assert_eq!(m.run_simple().outcome, Outcome::Halted);
        assert_eq!(m.reg(V0), 77);
    }

    #[test]
    fn hook_sees_writebacks_and_can_tamper() {
        struct FlipFirst {
            seen: u64,
        }
        impl WritebackHook for FlipFirst {
            fn int_writeback(&mut self, _i: usize, v: u32) -> u32 {
                self.seen += 1;
                if self.seen == 1 {
                    v ^ 0x8000_0000
                } else {
                    v
                }
            }
        }
        let mut a = Asm::new();
        a.func("main", false);
        a.li(T0, 5);
        a.halt();
        a.endfunc();
        let p = a.assemble().unwrap();
        let mut m = Machine::new(&p, &MachineConfig::default());
        let mut hook = FlipFirst { seen: 0 };
        let r = m.run(&mut hook);
        assert_eq!(r.outcome, Outcome::Halted);
        assert_eq!(m.reg(T0), 5 | 0x8000_0000);
        assert_eq!(hook.seen, r.value_producing);
    }

    #[test]
    fn profile_counts_executions() {
        let mut a = Asm::new();
        a.func("main", false);
        a.li(T0, 3);
        a.label("loop");
        a.addi(T0, T0, -1);
        a.bnez(T0, "loop");
        a.halt();
        a.endfunc();
        let p = a.assemble().unwrap();
        let mut m = Machine::new(
            &p,
            &MachineConfig {
                profile: true,
                ..MachineConfig::default()
            },
        );
        m.run_simple();
        assert_eq!(m.exec_counts()[0], 1); // li
        assert_eq!(m.exec_counts()[1], 3); // addi in loop
        assert_eq!(m.exec_counts()[2], 3); // bnez
        assert_eq!(m.exec_counts()[3], 1); // halt
    }

    #[test]
    fn host_io_round_trip() {
        let mut a = Asm::new();
        let buf = a.data_zero(64);
        a.func("main", false);
        a.halt();
        a.endfunc();
        let p = a.assemble().unwrap();
        let mut m = Machine::new(&p, &MachineConfig::default());
        m.write_bytes(buf, b"hello").unwrap();
        m.write_word(buf + 8, 0xdead_beef).unwrap();
        assert_eq!(m.read_bytes(buf, 5).unwrap(), b"hello");
        assert_eq!(m.read_word(buf + 8).unwrap(), 0xdead_beef);
        assert!(m.read_bytes(0, 4).is_err()); // guard region
        assert!(m.write_bytes(u32::MAX - 2, &[1, 2, 3, 4]).is_err());
    }

    #[test]
    fn writes_to_zero_register_discarded() {
        let (_, r) = run_program(|a| {
            a.func("main", false);
            a.li(certa_isa::reg::ZERO, 123);
            a.halt();
            a.endfunc();
        });
        assert_eq!(r.outcome, Outcome::Halted);
    }

    #[test]
    fn falling_off_end_crashes() {
        let mut a = Asm::new();
        a.func("main", false);
        a.nop();
        a.endfunc();
        let p = a.assemble().unwrap();
        let mut m = Machine::new(&p, &MachineConfig::default());
        let r = m.run_simple();
        assert!(matches!(
            r.outcome,
            Outcome::Crashed(CrashKind::PcOutOfRange { .. })
        ));
    }
}

#[cfg(test)]
mod snapshot_tests {
    use super::*;
    use certa_asm::Asm;
    use certa_isa::reg::{A0, T0, V0};

    /// 1 + 2 + ... + 100 in a loop: long enough to pause mid-run.
    fn sum_program() -> Program {
        let mut a = Asm::new();
        a.func("main", false);
        a.li(A0, 100);
        a.li(V0, 0);
        a.li(T0, 1);
        a.label("loop");
        a.add(V0, V0, T0);
        a.addi(T0, T0, 1);
        a.ble(T0, A0, "loop");
        a.halt();
        a.endfunc();
        a.assemble().unwrap()
    }

    #[test]
    fn try_new_rejects_oversized_data_segment() {
        let mut a = Asm::new();
        a.data_zero(10_000);
        a.func("main", false);
        a.halt();
        a.endfunc();
        let p = a.assemble().unwrap();
        let config = MachineConfig {
            mem_size: 8192,
            ..MachineConfig::default()
        };
        match Machine::try_new(&p, &config) {
            Err(MachineError::DataSegmentTooLarge { required, mem_size }) => {
                assert!(required > 8192);
                assert_eq!(mem_size, 8192);
            }
            other => panic!("expected DataSegmentTooLarge, got {other:?}"),
        }
    }

    #[test]
    #[should_panic(expected = "machine configuration rejected")]
    fn new_panics_on_oversized_data_segment() {
        let mut a = Asm::new();
        a.data_zero(10_000);
        a.func("main", false);
        a.halt();
        a.endfunc();
        let p = a.assemble().unwrap();
        let _ = Machine::new(
            &p,
            &MachineConfig {
                mem_size: 8192,
                ..MachineConfig::default()
            },
        );
    }

    #[test]
    fn snapshot_restore_round_trip_is_bit_identical() {
        let p = sum_program();
        let config = MachineConfig::default();

        // Reference: run straight through.
        let mut reference = Machine::new(&p, &config);
        let ref_result = reference.run_simple();

        // Snapshot mid-run, finish, then restore and finish again.
        let mut m = Machine::new(&p, &config);
        assert_eq!(m.run_until_simple(57), BoundedRun::Paused);
        let snap = m.snapshot();
        assert_eq!(snap.instructions(), 57);
        let first = m.run_simple();
        assert_eq!(first, ref_result);

        m.restore(&snap).unwrap();
        assert!(m.state_eq(&snap));
        assert_eq!(m.instructions(), 57);
        let second = m.run_simple();
        assert_eq!(second, ref_result);
        assert_eq!(m.reg(V0), 5050);
    }

    #[test]
    fn from_snapshot_resumes_identically() {
        let p = sum_program();
        let config = MachineConfig::default();
        let mut golden = Machine::new(&p, &config);
        let golden_result = golden.run_simple();

        let mut m = Machine::new(&p, &config);
        m.run_until_simple(123);
        let snap = m.snapshot();
        let mut resumed = Machine::from_snapshot(&p, &snap, &config).unwrap();
        assert!(resumed.state_eq(&snap));
        assert_eq!(resumed.run_simple(), golden_result);
        assert_eq!(resumed.reg(V0), 5050);
    }

    #[test]
    fn from_snapshot_rejects_mem_size_mismatch() {
        let p = sum_program();
        let snap = Machine::new(&p, &MachineConfig::default()).snapshot();
        let smaller = MachineConfig {
            mem_size: 1 << 20,
            ..MachineConfig::default()
        };
        assert!(matches!(
            Machine::from_snapshot(&p, &snap, &smaller),
            Err(MachineError::MemSizeMismatch { .. })
        ));
        let mut m = Machine::new(&p, &smaller);
        assert!(matches!(
            m.restore(&snap),
            Err(MachineError::MemSizeMismatch { .. })
        ));
    }

    #[test]
    fn run_until_stops_exactly_at_target() {
        let p = sum_program();
        let mut m = Machine::new(&p, &MachineConfig::default());
        assert_eq!(m.run_until_simple(10), BoundedRun::Paused);
        assert_eq!(m.instructions(), 10);
        // Resuming with a lower or equal target executes nothing.
        assert_eq!(m.run_until_simple(10), BoundedRun::Paused);
        assert_eq!(m.instructions(), 10);
        assert_eq!(m.run_until_simple(5), BoundedRun::Paused);
        assert_eq!(m.instructions(), 10);
        // And a higher target continues from where it stopped.
        assert_eq!(m.run_until_simple(11), BoundedRun::Paused);
        assert_eq!(m.instructions(), 11);
    }

    #[test]
    fn run_until_zero_executes_nothing() {
        let p = sum_program();
        let mut m = Machine::new(&p, &MachineConfig::default());
        let before = m.snapshot();
        assert_eq!(m.run_until_simple(0), BoundedRun::Paused);
        assert_eq!(m.instructions(), 0);
        assert!(m.state_eq(&before));
    }

    #[test]
    fn run_until_past_halt_finishes() {
        let p = sum_program();
        let mut straight = Machine::new(&p, &MachineConfig::default());
        let expected = straight.run_simple();

        let mut m = Machine::new(&p, &MachineConfig::default());
        match m.run_until_simple(u64::MAX / 4) {
            BoundedRun::Finished(r) => assert_eq!(r, expected),
            BoundedRun::Paused => panic!("must finish before an enormous target"),
        }
        // Running again after halt finishes immediately at the same state:
        // pc sits past the halt, which reports as a crash, exactly like
        // calling run() twice would.
        assert_eq!(m.instructions(), expected.instructions);
    }

    #[test]
    fn run_until_target_exactly_at_halt_boundary() {
        let p = sum_program();
        let mut straight = Machine::new(&p, &MachineConfig::default());
        let expected = straight.run_simple();
        let n = expected.instructions;

        // Target exactly N: the halt is the Nth instruction executed, so
        // the run finishes rather than pausing.
        let mut m = Machine::new(&p, &MachineConfig::default());
        match m.run_until_simple(n) {
            BoundedRun::Finished(r) => assert_eq!(r, expected),
            BoundedRun::Paused => panic!("target N must execute the halt"),
        }

        // Target N-1 pauses with the halt still unexecuted; resuming
        // finishes identically to the straight run.
        let mut m = Machine::new(&p, &MachineConfig::default());
        assert_eq!(m.run_until_simple(n - 1), BoundedRun::Paused);
        assert_eq!(m.instructions(), n - 1);
        assert_eq!(m.run_simple(), expected);
    }

    #[test]
    fn interleaved_bounded_steps_match_straight_run() {
        let p = sum_program();
        let mut straight = Machine::new(&p, &MachineConfig::default());
        let expected = straight.run_simple();

        let mut m = Machine::new(&p, &MachineConfig::default());
        let mut target = 0u64;
        let result = loop {
            target += 37;
            match m.run_until_simple(target) {
                BoundedRun::Finished(r) => break r,
                BoundedRun::Paused => assert_eq!(m.instructions(), target),
            }
        };
        assert_eq!(result, expected);
        for i in 0..32u8 {
            assert_eq!(m.reg(Reg::new(i)), straight.reg(Reg::new(i)));
        }
    }

    #[test]
    fn watchdog_still_fires_inside_bounded_runs() {
        let mut a = Asm::new();
        a.func("main", false);
        a.label("spin");
        a.j("spin");
        a.endfunc();
        let p = a.assemble().unwrap();
        let mut m = Machine::new(
            &p,
            &MachineConfig {
                max_instructions: 100,
                ..MachineConfig::default()
            },
        );
        assert_eq!(m.run_until_simple(50), BoundedRun::Paused);
        match m.run_until_simple(1000) {
            BoundedRun::Finished(r) => {
                assert_eq!(r.outcome, Outcome::InfiniteRun);
                assert_eq!(r.instructions, 100);
            }
            BoundedRun::Paused => panic!("watchdog must fire before the bound"),
        }
    }

    #[test]
    fn state_eq_detects_every_component() {
        let p = sum_program();
        let config = MachineConfig::default();
        let mut m = Machine::new(&p, &config);
        m.run_until_simple(20);
        let snap = m.snapshot();
        assert!(m.state_eq(&snap));

        let mut r = Machine::from_snapshot(&p, &snap, &config).unwrap();
        r.set_reg(certa_isa::reg::S0, 0xDEAD);
        assert!(!r.state_eq(&snap));

        let mut r = Machine::from_snapshot(&p, &snap, &config).unwrap();
        r.write_bytes(DATA_BASE + 64, &[1]).unwrap();
        assert!(!r.state_eq(&snap));

        let mut r = Machine::from_snapshot(&p, &snap, &config).unwrap();
        r.run_until_simple(21);
        assert!(!r.state_eq(&snap));
    }
}

#[cfg(test)]
mod edge_case_tests {
    use super::*;
    use certa_asm::{Asm, DATA_BASE};
    use certa_isa::reg::{T0, T1, V0};

    #[test]
    fn watchdog_exact_boundary() {
        // A program needing exactly N instructions halts with budget N but
        // trips the watchdog with budget N-1.
        let mut a = Asm::new();
        a.func("main", false);
        a.nop();
        a.nop();
        a.halt();
        a.endfunc();
        let p = a.assemble().unwrap();
        let mut ok = Machine::new(
            &p,
            &MachineConfig {
                max_instructions: 3,
                ..MachineConfig::default()
            },
        );
        assert_eq!(ok.run_simple().outcome, Outcome::Halted);
        let mut short = Machine::new(
            &p,
            &MachineConfig {
                max_instructions: 2,
                ..MachineConfig::default()
            },
        );
        assert_eq!(short.run_simple().outcome, Outcome::InfiniteRun);
    }

    #[test]
    fn store_at_last_valid_byte_succeeds_and_one_past_crashes() {
        let mem_size = 1 << 20;
        let mut a = Asm::new();
        a.func("main", false);
        a.li(T0, (mem_size - 1) as i32);
        a.li(T1, 0x5A);
        a.sb(T1, 0, T0);
        a.halt();
        a.endfunc();
        let p = a.assemble().unwrap();
        let mut m = Machine::new(
            &p,
            &MachineConfig {
                mem_size,
                ..MachineConfig::default()
            },
        );
        assert_eq!(m.run_simple().outcome, Outcome::Halted);
        assert_eq!(m.read_bytes(mem_size - 1, 1).unwrap(), &[0x5A]);

        let mut a = Asm::new();
        a.func("main", false);
        a.li(T0, mem_size as i32);
        a.li(T1, 1);
        a.sb(T1, 0, T0);
        a.halt();
        a.endfunc();
        let p = a.assemble().unwrap();
        let mut m = Machine::new(
            &p,
            &MachineConfig {
                mem_size,
                ..MachineConfig::default()
            },
        );
        assert!(matches!(
            m.run_simple().outcome,
            Outcome::Crashed(CrashKind::MemOutOfBounds { .. })
        ));
    }

    #[test]
    fn first_data_byte_is_accessible_and_guard_edge_is_not() {
        let mut a = Asm::new();
        let first = a.data_bytes(&[0xAB]);
        assert_eq!(first, DATA_BASE);
        a.func("main", false);
        a.li(T0, DATA_BASE as i32);
        a.lbu(V0, 0, T0);
        a.halt();
        a.endfunc();
        let p = a.assemble().unwrap();
        let mut m = Machine::new(&p, &MachineConfig::default());
        assert_eq!(m.run_simple().outcome, Outcome::Halted);
        assert_eq!(m.reg(V0), 0xAB);

        let mut a = Asm::new();
        a.data_bytes(&[0xAB]);
        a.func("main", false);
        a.li(T0, (DATA_BASE - 1) as i32);
        a.lbu(V0, 0, T0);
        a.halt();
        a.endfunc();
        let p = a.assemble().unwrap();
        let mut m = Machine::new(&p, &MachineConfig::default());
        assert!(matches!(
            m.run_simple().outcome,
            Outcome::Crashed(CrashKind::MemOutOfBounds { .. })
        ));
    }

    #[test]
    fn negative_offset_addressing_works() {
        let mut a = Asm::new();
        let buf = a.data_words(&[11, 22, 33]);
        a.func("main", false);
        a.li(T0, (buf + 8) as i32);
        a.lw(V0, -8, T0); // reads buf[0]
        a.halt();
        a.endfunc();
        let p = a.assemble().unwrap();
        let mut m = Machine::new(&p, &MachineConfig::default());
        assert_eq!(m.run_simple().outcome, Outcome::Halted);
        assert_eq!(m.reg(V0), 11);
    }

    #[test]
    fn jr_to_halt_instruction_works() {
        // jumping to any valid instruction index through a register is legal
        let mut a = Asm::new();
        a.func("main", false);
        a.li(T0, 2); // index of halt below
        a.jr(T0);
        a.halt();
        a.endfunc();
        let p = a.assemble().unwrap();
        let mut m = Machine::new(&p, &MachineConfig::default());
        let r = m.run_simple();
        assert_eq!(r.outcome, Outcome::Halted);
        assert_eq!(r.instructions, 3);
    }

    #[test]
    fn shift_amounts_wrap_modulo_32() {
        let mut a = Asm::new();
        a.func("main", false);
        a.li(T0, 1);
        a.li(T1, 33); // 33 % 32 == 1
        a.sll(V0, T0, T1);
        a.halt();
        a.endfunc();
        let p = a.assemble().unwrap();
        let mut m = Machine::new(&p, &MachineConfig::default());
        m.run_simple();
        assert_eq!(m.reg(V0), 2);
    }

    #[test]
    fn i32_min_div_neg_one_does_not_trap() {
        let mut a = Asm::new();
        a.func("main", false);
        a.li(T0, i32::MIN);
        a.li(T1, -1);
        a.div(V0, T0, T1);
        a.rem(T1, T0, T1);
        a.halt();
        a.endfunc();
        let p = a.assemble().unwrap();
        let mut m = Machine::new(&p, &MachineConfig::default());
        assert_eq!(m.run_simple().outcome, Outcome::Halted);
        assert_eq!(m.reg(V0) as i32, i32::MIN); // wrapping division
    }

    #[test]
    fn float_writeback_count_includes_conversions() {
        use certa_isa::reg::F0;
        let mut a = Asm::new();
        a.func("main", false);
        a.li(T0, 7);
        a.cvt_if(F0, T0);
        a.cvt_fi(V0, F0);
        a.halt();
        a.endfunc();
        let p = a.assemble().unwrap();
        let mut m = Machine::new(&p, &MachineConfig::default());
        let r = m.run_simple();
        // li + cvt.d.w + trunc.w.d all produce values
        assert_eq!(r.value_producing, 3);
        assert_eq!(m.reg(V0), 7);
    }
}

#[cfg(test)]
mod pipeline_tests {
    use super::*;
    use certa_asm::Asm;
    use certa_isa::reg::{A0, T0, T1, V0};

    /// A kernel mixing every fusion idiom: li+ALU, address compute +
    /// load/store, compare + branch.
    fn mixed_program() -> Program {
        let mut a = Asm::new();
        let buf = a.data_zero(64);
        a.func("main", false);
        a.la(T0, buf);
        a.li(T1, 0);
        a.li(V0, 0);
        a.label("loop");
        a.add(A0, T0, T1);
        a.sb(T1, 0, A0);
        a.lbu(A0, 0, A0);
        a.add(V0, V0, A0);
        a.addi(T1, T1, 1);
        a.slti(A0, T1, 64);
        a.bnez(A0, "loop");
        a.halt();
        a.endfunc();
        a.assemble().unwrap()
    }

    #[test]
    fn decoded_and_reference_pipelines_agree() {
        let p = mixed_program();
        let config = MachineConfig {
            profile: true,
            ..MachineConfig::default()
        };
        let mut fast = Machine::new(&p, &config);
        let mut slow = Machine::new(&p, &config);
        let a = fast.run_simple();
        let b = slow.run_reference(&mut NoHook);
        assert_eq!(a, b);
        assert_eq!(fast.exec_counts(), slow.exec_counts());
        for i in 0..32u8 {
            assert_eq!(fast.reg(Reg::new(i)), slow.reg(Reg::new(i)));
        }
        assert!(fast.decoded_program().fused_pairs() > 0);
    }

    #[test]
    fn hooks_see_identical_sequences_across_pipelines() {
        #[derive(Default)]
        struct Recorder {
            events: Vec<(usize, u32)>,
        }
        impl WritebackHook for Recorder {
            fn int_writeback(&mut self, i: usize, v: u32) -> u32 {
                self.events.push((i, v));
                v ^ (self.events.len() as u32 & 1) // tamper every other writeback
            }
        }
        let p = mixed_program();
        let config = MachineConfig::default();
        let mut fast = Machine::new(&p, &config);
        let mut slow = Machine::new(&p, &config);
        let mut fast_hook = Recorder::default();
        let mut slow_hook = Recorder::default();
        let a = fast.run(&mut fast_hook);
        let b = slow.run_reference(&mut slow_hook);
        assert_eq!(a, b);
        assert_eq!(fast_hook.events, slow_hook.events);
    }

    #[test]
    fn bounded_pauses_are_exact_across_fused_pairs() {
        let p = mixed_program();
        let mut reference = Machine::new(&p, &MachineConfig::default());
        let expected = reference.run_reference(&mut NoHook);
        // Pause at every possible boundary: fused pairs must split cleanly.
        for target in 0..expected.instructions {
            let mut m = Machine::new(&p, &MachineConfig::default());
            assert_eq!(m.run_until_simple(target), BoundedRun::Paused);
            assert_eq!(m.instructions(), target, "pause at {target}");
            assert_eq!(m.run_simple(), expected, "resume from {target}");
        }
    }

    #[test]
    fn watchdog_is_exact_across_fused_pairs() {
        let p = mixed_program();
        let mut reference = Machine::new(&p, &MachineConfig::default());
        let expected = reference.run_simple();
        for budget in 1..expected.instructions {
            let mut m = Machine::new(
                &p,
                &MachineConfig {
                    max_instructions: budget,
                    ..MachineConfig::default()
                },
            );
            let r = m.run_simple();
            assert_eq!(r.outcome, Outcome::InfiniteRun, "budget {budget}");
            assert_eq!(r.instructions, budget, "budget {budget}");
        }
    }

    #[test]
    fn dirty_page_restore_matches_full_restore() {
        let p = mixed_program();
        let config = MachineConfig::default();
        let mut m = Machine::new(&p, &config);
        m.run_until_simple(20);
        let snap = m.snapshot();
        m.restore(&snap).unwrap(); // different id: full path, sets the base
        assert!(m.state_eq(&snap));

        // Run ahead, then restore the same snapshot: dirty-page path.
        m.run_until_simple(120);
        assert!(m.dirty_pages() > 0, "stores must dirty pages");
        m.restore(&snap).unwrap();
        assert!(m.state_eq(&snap), "dirty-page restore must be bit-identical");
        assert_eq!(m.dirty_pages(), 0, "restore clears the dirty set");

        // And the run from the dirty-restored state matches a full restore.
        let mut full = Machine::new(&p, &config);
        full.restore_full(&snap).unwrap();
        assert_eq!(m.run_simple(), full.run_simple());
        for i in 0..32u8 {
            assert_eq!(m.reg(Reg::new(i)), full.reg(Reg::new(i)));
        }
    }

    /// Copy-on-write sharing: a page co-owned by several snapshots must
    /// survive a machine write untouched in every one of them, and the
    /// write must land only in the machine.
    #[test]
    fn write_to_page_shared_by_three_snapshots_preserves_all() {
        let p = mixed_program();
        let mut m = Machine::new(&p, &MachineConfig::default());
        m.write_bytes(DATA_BASE + 100, &[0xAA; 16]).unwrap();
        // Three captures with no writes in between: all three snapshots
        // (and the machine) share the same page `Arc`s.
        let s1 = m.snapshot();
        let s2 = m.snapshot();
        let s3 = m.snapshot();
        assert_eq!(s1.diff_pages(&s2).unwrap(), Vec::<u32>::new());
        assert_eq!(s2.diff_pages(&s3).unwrap(), Vec::<u32>::new());

        // Write through the shared page: the machine copies it out.
        m.write_bytes(DATA_BASE + 104, &[0xBB; 4]).unwrap();
        assert_eq!(m.read_bytes(DATA_BASE + 104, 4).unwrap(), &[0xBB; 4]);
        for snap in [&s1, &s2, &s3] {
            let probe = Machine::from_snapshot(&p, snap, &MachineConfig::default()).unwrap();
            assert_eq!(
                probe.read_bytes(DATA_BASE + 100, 16).unwrap(),
                vec![0xAA; 16],
                "snapshot pages must be immune to machine writes"
            );
            // Rolling the writer back onto each snapshot is exact.
            let saved = m.read_bytes(DATA_BASE + 104, 4).unwrap();
            m.restore(snap).unwrap();
            assert!(m.state_eq(snap));
            assert_eq!(m.read_bytes(DATA_BASE + 104, 4).unwrap(), &[0xAA; 4]);
            // Re-apply the write so the next loop iteration sees it again.
            m.write_bytes(DATA_BASE + 104, &saved).unwrap();
        }
    }

    /// Capture accounting: only pages written since the previous capture
    /// are materialized (and counted); an untouched re-capture costs zero.
    #[test]
    fn capture_bytes_counts_only_written_pages() {
        let p = mixed_program();
        let mut m = Machine::new(&p, &MachineConfig::default());
        let _first = m.snapshot();
        let after_first = m.capture_bytes();
        assert!(
            after_first > 0,
            "the first capture materializes the loaded data pages"
        );

        // No writes: a re-capture shares everything and costs nothing.
        let _second = m.snapshot();
        assert_eq!(m.capture_bytes(), after_first);

        // One byte dirties one page: exactly one page is materialized.
        m.write_bytes(DATA_BASE + 200, &[1]).unwrap();
        let _third = m.snapshot();
        assert_eq!(m.capture_bytes(), after_first + 4096);
    }

    /// Restores are pointer swaps under the hood, but each path must stay
    /// bit-identical when interleaved with writes that force page copies.
    #[test]
    fn cow_restore_paths_stay_exact_under_interleaved_writes() {
        let p = mixed_program();
        let config = MachineConfig::default();
        let mut m = Machine::new(&p, &config);
        m.run_until_simple(40);
        let early = m.snapshot();
        m.run_until_simple(160);
        let late = m.snapshot();
        let delta = early.diff_pages(&late).unwrap();

        // dirty-path restore after COW writes
        m.write_bytes(DATA_BASE + 300, &[7; 64]).unwrap();
        m.restore(&late).unwrap();
        assert!(m.state_eq(&late));
        // diff-path hop back to early, with fresh dirty pages
        m.write_bytes(DATA_BASE + 300, &[9; 64]).unwrap();
        m.restore_with_diff(&early, &delta).unwrap();
        assert!(m.state_eq(&early));
        // full path onto a machine that never saw these snapshots
        let mut other = Machine::new(&p, &config);
        other.restore_full(&late).unwrap();
        assert!(other.state_eq(&late));
        assert_eq!(m.run_simple(), {
            let mut fresh = Machine::from_snapshot(&p, &early, &config).unwrap();
            fresh.run_simple()
        });
    }

    #[test]
    fn restoring_a_different_snapshot_takes_the_full_path() {
        let p = mixed_program();
        let config = MachineConfig::default();
        let mut m = Machine::new(&p, &config);
        m.run_until_simple(10);
        let early = m.snapshot();
        m.run_until_simple(200);
        let late = m.snapshot();

        m.restore(&early).unwrap();
        assert!(m.state_eq(&early));
        // Different snapshot while based on `early`: must fall back to the
        // full copy (pages differing between the two are not dirty).
        m.run_until_simple(40);
        m.restore(&late).unwrap();
        assert!(m.state_eq(&late));
    }

    #[test]
    fn host_writes_are_dirty_tracked() {
        let p = mixed_program();
        let mut m = Machine::new(&p, &MachineConfig::default());
        let snap = m.snapshot();
        m.restore(&snap).unwrap(); // establish base
        assert_eq!(m.dirty_pages(), 0);
        m.write_bytes(DATA_BASE, &[7; 10_000]).unwrap();
        assert!(m.dirty_pages() >= 3, "10 KB spans at least 3 pages");
        m.restore(&snap).unwrap();
        assert!(m.state_eq(&snap));
    }

    #[test]
    fn from_snapshot_seeds_the_dirty_base() {
        let p = mixed_program();
        let config = MachineConfig::default();
        let mut m = Machine::new(&p, &config);
        m.run_until_simple(50);
        let snap = m.snapshot();
        let mut resumed = Machine::from_snapshot(&p, &snap, &config).unwrap();
        resumed.run_until_simple(300);
        resumed.restore(&snap).unwrap(); // dirty-page path straight away
        assert!(resumed.state_eq(&snap));
        let mut straight = Machine::from_snapshot(&p, &snap, &config).unwrap();
        assert_eq!(resumed.run_simple(), straight.run_simple());
    }

    #[test]
    fn snapshot_size_accounts_for_register_files() {
        let p = mixed_program();
        let mut m = Machine::new(&p, &MachineConfig::default());
        let snap = m.snapshot();
        // memory image + integer regs (128 B) + float regs (256 B) + ids
        // and counters — not just the memory image.
        assert!(snap.size_bytes() >= snap.mem_len + 128 + 256 + 8);
    }

    #[test]
    fn shared_decoded_program_runs_identically() {
        let p = mixed_program();
        let config = MachineConfig::default();
        let decoded = Arc::new(DecodedProgram::new(&p));
        let mut shared = Machine::try_new_with_decoded(&p, &decoded, &config).unwrap();
        let mut owned = Machine::new(&p, &config);
        assert_eq!(shared.run_simple(), owned.run_simple());
        assert!(Arc::ptr_eq(shared.decoded_program(), &decoded));
    }

    #[test]
    fn diff_pages_is_byte_exact_and_symmetric() {
        let p = mixed_program();
        let mut m = Machine::new(&p, &MachineConfig::default());
        let a = m.snapshot();
        m.write_bytes(DATA_BASE, &[1; 10]).unwrap();
        m.write_bytes(DATA_BASE + 3 * 4096, &[2; 4097]).unwrap();
        let b = m.snapshot();
        let diff = a.diff_pages(&b).unwrap();
        // DATA_BASE = 0x1000 = page 1; +3 pages and the 4097-byte write
        // spilling into the next.
        assert_eq!(diff, vec![1, 4, 5]);
        assert_eq!(b.diff_pages(&a).unwrap(), diff);
        assert_eq!(a.diff_pages(&a).unwrap(), Vec::<u32>::new());
        assert!(a.page_count() > 20);
    }

    #[test]
    fn restore_with_diff_matches_full_restore() {
        let p = mixed_program();
        let config = MachineConfig::default();
        let mut m = Machine::new(&p, &config);
        m.run_until_simple(15);
        let early = m.snapshot();
        m.run_until_simple(200);
        let late = m.snapshot();
        let delta = early.diff_pages(&late).unwrap();

        // Base the machine on `early`, dirty some pages, then hop to
        // `late` through the precomputed diff.
        m.restore(&early).unwrap();
        assert_eq!(m.base_snapshot_id(), early.id());
        m.run_until_simple(120);
        m.restore_with_diff(&late, &delta).unwrap();
        assert_eq!(m.base_snapshot_id(), late.id());
        assert!(m.state_eq(&late), "diff restore must be bit-identical");

        // And execution from the diff-restored state matches a machine
        // fully restored from `late`.
        let mut full = Machine::from_snapshot(&p, &late, &config).unwrap();
        assert_eq!(m.run_simple(), full.run_simple());
        for i in 0..32u8 {
            assert_eq!(m.reg(Reg::new(i)), full.reg(Reg::new(i)));
        }
    }

    #[test]
    fn restore_with_diff_rejects_size_mismatch_and_ignores_wild_pages() {
        let p = mixed_program();
        let config = MachineConfig::default();
        let mut m = Machine::new(&p, &config);
        let snap = m.snapshot();
        let smaller = Machine::new(
            &p,
            &MachineConfig {
                mem_size: 1 << 20,
                ..config
            },
        )
        .snapshot();
        assert!(matches!(
            m.restore_with_diff(&smaller, &[]),
            Err(MachineError::MemSizeMismatch { .. })
        ));
        // Out-of-range page indices are ignored, not a panic.
        m.restore_with_diff(&snap, &[u32::MAX, 9_999_999]).unwrap();
        assert!(m.state_eq(&snap));
    }

    #[test]
    fn state_eq_fast_paths_agree_with_exact_comparison() {
        let p = mixed_program();
        let config = MachineConfig::default();
        let mut m = Machine::new(&p, &config);
        m.run_until_simple(10);
        let a = m.snapshot();
        m.run_until_simple(40);
        let b = m.snapshot();

        // Same-base dirty-page path: true right after restoring, false
        // after guest stores diverge the state.
        m.restore(&a).unwrap();
        assert!(m.state_eq(&a));
        m.run_until_simple(40);
        // icount now matches `b`: memory must be consulted.
        assert!(m.state_eq(&b), "re-executed run reconverges with b");
        m.write_bytes(DATA_BASE + 8, &[0xEE]).unwrap();
        assert!(!m.state_eq(&b), "dirty-page divergence detected");

        // Cross-snapshot hash path: machine based on `a`, compared
        // against `b` (differing icount/regs are caught early, so pin
        // them equal by comparing the same instruction boundary).
        m.restore(&a).unwrap();
        m.run_until_simple(40);
        assert!(m.state_eq(&b));
        assert!(!m.state_eq(&a), "icount mismatch refutes instantly");
    }

    #[test]
    fn superblock_tier_carries_the_run_and_can_be_disabled() {
        use crate::decode::SuperblockPolicy;
        let p = mixed_program();
        let config = MachineConfig::default();

        let mut sb = Machine::new(&p, &config);
        let r = sb.run_simple();
        assert!(
            sb.superblock_instructions() > r.instructions / 2,
            "superblocks should retire most of this loopy kernel ({} of {})",
            sb.superblock_instructions(),
            r.instructions
        );

        let disabled = Arc::new(DecodedProgram::with_policy(
            &p,
            &SuperblockPolicy::disabled(),
        ));
        let mut fused = Machine::try_new_with_decoded(&p, &disabled, &config).unwrap();
        assert_eq!(fused.run_simple(), r);
        assert_eq!(fused.superblock_instructions(), 0);
    }

    #[test]
    fn superblock_and_fused_tiers_agree_with_profiling_and_hooks() {
        use crate::decode::SuperblockPolicy;
        #[derive(Default)]
        struct Recorder {
            events: Vec<(usize, u32)>,
        }
        impl WritebackHook for Recorder {
            fn int_writeback(&mut self, i: usize, v: u32) -> u32 {
                self.events.push((i, v));
                v ^ (self.events.len() as u32 & 3)
            }
        }
        let p = mixed_program();
        let config = MachineConfig {
            profile: true,
            ..MachineConfig::default()
        };
        let disabled = Arc::new(DecodedProgram::with_policy(
            &p,
            &SuperblockPolicy::disabled(),
        ));
        let mut sb = Machine::new(&p, &config);
        let mut fused = Machine::try_new_with_decoded(&p, &disabled, &config).unwrap();
        let mut sb_hook = Recorder::default();
        let mut fused_hook = Recorder::default();
        let a = sb.run(&mut sb_hook);
        let b = fused.run(&mut fused_hook);
        assert_eq!(a, b);
        assert_eq!(sb_hook.events, fused_hook.events);
        assert_eq!(sb.exec_counts(), fused.exec_counts());
        for i in 0..32u8 {
            assert_eq!(sb.reg(Reg::new(i)), fused.reg(Reg::new(i)));
        }
    }

    #[test]
    fn mid_trace_resume_falls_back_to_fused_dispatch() {
        // Pausing mid-superblock and restoring lands the pc at a
        // non-entry instruction: the dispatch loop must fall back to the
        // per-op tier and still finish bit-identically.
        let p = mixed_program();
        let config = MachineConfig::default();
        let mut reference = Machine::new(&p, &config);
        let expected = reference.run_reference(&mut NoHook);
        for target in [3, 7, 11, 23] {
            let mut m = Machine::new(&p, &config);
            assert_eq!(m.run_until_simple(target), BoundedRun::Paused);
            let snap = m.snapshot();
            let mut resumed = Machine::from_snapshot(&p, &snap, &config).unwrap();
            assert_eq!(resumed.run_simple(), expected, "resume at {target}");
        }
    }
}
