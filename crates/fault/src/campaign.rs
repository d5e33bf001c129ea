//! Monte-Carlo fault-injection campaigns.
//!
//! # Checkpoint acceleration
//!
//! A naive campaign re-executes every trial from instruction zero, even
//! though everything before a trial's first bit flip is bit-identical to
//! the golden run. With [`CampaignConfig::checkpointing`] (the default),
//! the campaign instead:
//!
//! 1. **Checkpoints the golden run**: while the fault-free reference
//!    executes, the campaign records up to 64 [`certa_sim::Snapshot`]s
//!    (count auto-tuned from [`CampaignConfig::checkpoint_budget_bytes`]),
//!    doubling the spacing whenever the budget would be exceeded, and
//!    remembers each snapshot's per-instruction execution counts, from
//!    which the *eligible* writebacks it had seen under any protection
//!    regime follow.
//! 2. **Fast-forwards each trial**: a trial restores the latest checkpoint
//!    at or before its earliest planned flip — by eligible-writeback count
//!    for register plans ([`FaultPlan`]), by dynamic instruction count for
//!    memory-cell plans ([`MemoryFaultPlan`]) — so the skipped prefix,
//!    which carries no flips, is never re-executed.
//! 3. **Rejoins the golden run between and after flips**: the trial
//!    walks the later checkpoints, pausing at some to probe whether its
//!    state is bit-identical to the checkpoint's ([`Machine::state_eq`] —
//!    a pointer compare per page, and a byte compare only of the pages the
//!    trial does not share with the checkpoint). Between two flips it
//!    probes only at checkpoints before the next flip's restore
//!    checkpoint: a trial that has rejoined there, with as many eligible
//!    writebacks seen as the golden run (register plans; memory plans key
//!    on the instruction count, which `state_eq` compares), *is* a fresh
//!    trial of its remaining flips, so it **fast-forwards** — it restores
//!    the latest checkpoint before its next flip, by the rule of step 2,
//!    instead of executing the golden stretch up to it. After the last
//!    flip a rejoined trial *is* the golden run, and the golden
//!    outcome/output are spliced in without executing the suffix. A trial
//!    that has not rejoined backs off exponentially (probe gaps 1, 2, 4, …
//!    checkpoints): masked flips — the common case under protection —
//!    rejoin at the first probe, while persistently divergent trials stop
//!    paying per-checkpoint pauses (a pause also forces the simulator out
//!    of its superblock traces and native regions).
//! 4. **Schedules for incremental restore**: worker threads
//!    ([`std::thread::scope`]) each own one reusable [`Machine`]. Trials
//!    are sorted by restore checkpoint and injection point, then handed
//!    out in contiguous *chunks*, so a worker's consecutive trials
//!    restore the very checkpoint the machine is already based on —
//!    O(pages the previous trial wrote) of pointer swaps. The hops that
//!    remain (between checkpoint groups) also swap only the pages of the
//!    64-page groups the two checkpoints do not share.
//!    Restores never copy page bytes and never allocate: copy-on-write
//!    page sharing swaps page pointers and recycles displaced pages.
//! 5. **Shares the golden half**: the golden run, its checkpoints and the
//!    trial program's lowering to the simulator's micro-op form
//!    ([`certa_sim::DecodedProgram`]) depend on the target alone, so a
//!    [`GoldenSession`] builds them once and any number of campaigns —
//!    every regime, fault target, error level, seed and tag map — run on
//!    them, each trial machine sharing the one lowering.
//! 6. **Runs trials natively** when the golden session holds the target's
//!    tier-4 [`AotProgram`]: a register trial's injector lets native code
//!    retire the eligible writebacks before its next planned flip, the
//!    interpreter runs the block holding the flip, and the trial goes
//!    native again after its last flip; memory-cell trials run natively
//!    throughout. One eligibility table per campaign
//!    feeds the injectors, every checkpoint's `eligible_seen`, the
//!    eligible population and the native per-block counts.
//!    From-scratch trials stay on the interpreter as the reference.
//!
//! **Determinism contract**: checkpointed trials are bit-identical —
//! outcome, output, instruction count, and injected count — to running the
//! same seed from scratch. Before the earliest flip a trial equals the
//! golden run, so restoring a golden checkpoint there is exact; between
//! flips, a fast-forward only happens when the full architectural state
//! and the count the next flip is keyed on equal the golden run's, which
//! makes the trial equal the golden run up to its next flip; after the
//! last flip, splicing only happens when the full architectural state
//! equals the golden state, which makes the suffix exact too. The
//! workspace property suite (`tests/property.rs`) verifies this
//! equivalence across random seeds, workload sizes and fault targets.
//!
//! # Harness fault containment
//!
//! At paper scale a campaign must survive its own harness: a trial whose
//! hook panics, or one that wedges past any reasonable wall-clock bound,
//! must not take down the worker thread and the campaign with it. Every
//! trial attempt therefore runs under [`std::panic::catch_unwind`] with a
//! wall-clock deadline ([`CampaignConfig::trial_timeout`]) checked
//! between instruction slices. A failed attempt (panic or timeout)
//! discards the possibly-poisoned machine state — checkpointed workers
//! are rebuilt from checkpoint 0 via [`Machine::restore_full`], scratch
//! workers build a fresh machine anyway — and the trial is retried once.
//! A trial that fails the harness twice is recorded as
//! [`TrialStatus::HarnessError`], never silently dropped, and
//! [`CampaignResult::verify_reconciliation`] (asserted by
//! [`run_campaign`]) checks that scheduled = completed + retried-out and
//! that every failure, retry, and rebuild is accounted for.
//! [`CampaignConfig::harness_faults`] lets tests sabotage specific trials
//! with deliberate panics and hangs to prove all of this end to end.

use certa_core::TagMap;
use certa_isa::{fnv1a, fnv1a_with, Program};
use certa_sim::{
    AotProgram, BoundedRun, DecodedProgram, Machine, MachineConfig, NoHook, Outcome, RunResult,
    Snapshot, SuperblockPolicy, WritebackHook, DATA_BASE,
};
use rand::rngs::SmallRng;
use rand::SeedableRng;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use crate::injector::{Eligibility, ErrorModel, FaultPlan, Injector};
use crate::regime::{FaultTarget, MemoryFaultPlan, Protection};

/// Hard cap on golden-run checkpoints, regardless of memory budget. A
/// capture bumps one reference per unwritten 64-page group, so captures are
/// cheap next to the golden code between them; with the default budget
/// and 4 MiB images the budget binds first, at 63.
const MAX_CHECKPOINTS: usize = 64;

/// Bounds on the per-slice instruction count between wall-clock deadline
/// checks (see [`derive_run_slice`]).
const MIN_RUN_SLICE: u64 = 1 << 12;
const MAX_RUN_SLICE: u64 = 1 << 20;

/// Instructions executed between wall-clock deadline checks on otherwise
/// unbounded run segments, derived from the golden run's dynamic
/// instruction count: a sixty-fourth of the golden length, clamped to
/// [`MIN_RUN_SLICE`]`..=`[`MAX_RUN_SLICE`]. Short workloads get tight
/// hang detection (a wedged trial is caught within a small multiple of a
/// healthy run), while long workloads keep the pause overhead (which
/// forces the simulator out of its superblock traces near the boundary)
/// negligible.
fn derive_run_slice(golden_icount: u64) -> u64 {
    (golden_icount / 64).clamp(MIN_RUN_SLICE, MAX_RUN_SLICE)
}

/// Harness attempts per trial: the first run plus one retry. A trial that
/// fails the harness this many times is reported as
/// [`TrialStatus::HarnessError`].
const MAX_ATTEMPTS: u32 = 2;

/// Something that can be fault-injected: a program plus the harness logic
/// that stages its input into guest memory and extracts its output.
///
/// Implemented by every workload in `certa-workloads`.
pub trait Target: Sync {
    /// The program to execute.
    fn program(&self) -> &Program;

    /// Stages input data into guest memory before a run.
    fn prepare(&self, machine: &mut Machine<'_>);

    /// Extracts the output bytes after a halted run. `None` means the
    /// output region was unreadable/malformed (treated as a completed run
    /// with zero-fidelity output by callers that care).
    fn extract(&self, machine: &Machine<'_>) -> Option<Vec<u8>>;

    /// Data memory size required (defaults to 4 MiB).
    fn mem_size(&self) -> u32 {
        4 << 20
    }
}

/// Deliberate harness sabotage for containment tests: which trials'
/// attempts are poisoned with a panicking hook or a wall-clock hang.
///
/// Each entry is `(trial index, number of leading attempts to poison)`:
/// `(3, 1)` makes trial 3's first attempt fail and its retry succeed,
/// `(3, 2)` retries trial 3 out into a [`TrialStatus::HarnessError`].
/// Empty by default — production campaigns never sabotage themselves.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct HarnessFaultInjection {
    /// Trials whose leading attempts panic before the run starts.
    pub panic_trials: Vec<(usize, u32)>,
    /// Trials whose leading attempts stall past the wall-clock deadline.
    pub hang_trials: Vec<(usize, u32)>,
}

impl HarnessFaultInjection {
    /// Whether no sabotage is configured (the production case).
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.panic_trials.is_empty() && self.hang_trials.is_empty()
    }

    fn panic_attempts(&self, trial: usize) -> u32 {
        self.panic_trials
            .iter()
            .find(|&&(t, _)| t == trial)
            .map_or(0, |&(_, n)| n)
    }

    fn hang_attempts(&self, trial: usize) -> u32 {
        self.hang_trials
            .iter()
            .find(|&&(t, _)| t == trial)
            .map_or(0, |&(_, n)| n)
    }
}

/// Campaign configuration.
#[derive(Debug, Clone)]
pub struct CampaignConfig {
    /// Number of Monte-Carlo trials.
    pub trials: usize,
    /// Bit flips injected per trial (the paper's "errors inserted").
    pub errors: u64,
    /// Protection regime (the control-vs-data axis; see [`Protection`]).
    pub protection: Protection,
    /// Where faults land: register writebacks or resident memory cells.
    pub target: FaultTarget,
    /// Base seed; trial `t` uses a seed derived from `(seed, t)`.
    pub seed: u64,
    /// Watchdog budget as a multiple of the golden instruction count.
    /// Exceeding it is the experiment's "infinite execution" outcome.
    pub watchdog_factor: u64,
    /// Worker threads (0 = one per available core).
    pub threads: usize,
    /// Value-corruption model (defaults to the paper's single bit flip).
    pub model: ErrorModel,
    /// Accelerate trials with golden-run checkpoints (see the module docs).
    /// Results are bit-identical either way; turning this off exists for
    /// benchmarking and for double-checking the determinism contract.
    pub checkpointing: bool,
    /// Memory budget for golden-run checkpoints in bytes. The checkpoint
    /// count is `budget / snapshot size` ([`certa_sim::Snapshot::size_bytes`],
    /// the logical image size), clamped to `1..=64`.
    pub checkpoint_budget_bytes: usize,
    /// Initial checkpoint spacing in dynamic instructions. Spacing doubles
    /// (and existing checkpoints are thinned) whenever the count would
    /// exceed the budget, so any golden length ends up with a bounded,
    /// roughly even checkpoint set. A checkpointed trial executes about
    /// one spacing of code per flip, so the default, `1 << 14`, is dense:
    /// the seven workloads get 6–38 checkpoints each.
    pub checkpoint_stride: u64,
    /// Wall-clock deadline per trial attempt — the escalation above the
    /// instruction-budget watchdog. A watchdog trip is an experimental
    /// outcome ([`certa_sim::Outcome::InfiniteRun`]); blowing the
    /// wall-clock deadline is a *harness* failure, handled by the
    /// containment policy (retry once, then [`TrialStatus::HarnessError`]).
    pub trial_timeout: Duration,
    /// Deliberate sabotage for containment tests (empty in production).
    pub harness_faults: HarnessFaultInjection,
}

impl Default for CampaignConfig {
    fn default() -> Self {
        CampaignConfig {
            trials: 100,
            errors: 1,
            protection: Protection::ControlOnly,
            target: FaultTarget::Registers,
            seed: 0xCE27A,
            watchdog_factor: 10,
            threads: 0,
            model: ErrorModel::default(),
            checkpointing: true,
            checkpoint_budget_bytes: 256 << 20,
            checkpoint_stride: 1 << 14,
            trial_timeout: Duration::from_secs(60),
            harness_faults: HarnessFaultInjection::default(),
        }
    }
}

/// The fault-free reference run.
#[derive(Debug, Clone)]
pub struct GoldenRun {
    /// Output captured from the golden run.
    pub output: Vec<u8>,
    /// Dynamic instructions executed.
    pub instructions: u64,
    /// Size of the eligible-injection population under the campaign's
    /// protection regime.
    pub eligible_population: u64,
    /// Per-instruction execution counts (for Table 3 dynamic statistics).
    pub exec_counts: Vec<u64>,
}

/// One trial's result.
#[derive(Debug, Clone, PartialEq)]
pub struct TrialResult {
    /// How the run ended.
    pub outcome: Outcome,
    /// Output bytes, if the run halted and the output region was readable.
    pub output: Option<Vec<u8>>,
    /// Dynamic instructions executed.
    pub instructions: u64,
    /// Bit flips actually applied (≤ requested when the run dies early).
    pub injected: u32,
}

impl TrialResult {
    /// Whether this trial ended in one of the paper's catastrophic failures
    /// (crash or infinite run).
    #[must_use]
    pub fn is_catastrophic(&self) -> bool {
        self.outcome.is_catastrophic()
    }
}

/// Which harness-level failure mode an attempt (or a retried-out trial)
/// hit.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum HarnessFailure {
    /// The trial panicked (caught by the per-trial `catch_unwind`).
    Panic,
    /// The trial blew its wall-clock deadline.
    Timeout,
}

/// How one scheduled trial ended, harness-wise.
#[derive(Debug, Clone, PartialEq)]
pub enum TrialStatus {
    /// The trial ran to an experimental outcome.
    Completed(TrialResult),
    /// The trial failed the harness `MAX_ATTEMPTS` times and was
    /// retried out. Reported, never silently dropped.
    HarnessError(HarnessFailure),
}

/// One scheduled trial's record: its status plus how many harness retries
/// it consumed.
#[derive(Debug, Clone, PartialEq)]
pub struct TrialRecord {
    /// How the trial ended.
    pub status: TrialStatus,
    /// Harness retries consumed (0 for a first-attempt completion).
    pub retries: u32,
}

impl TrialRecord {
    /// The experimental result, if the trial completed.
    #[must_use]
    pub fn result(&self) -> Option<&TrialResult> {
        match &self.status {
            TrialStatus::Completed(result) => Some(result),
            TrialStatus::HarnessError(_) => None,
        }
    }

    /// Whether the trial was retried out as a harness error.
    #[must_use]
    pub fn is_harness_error(&self) -> bool {
        matches!(self.status, TrialStatus::HarnessError(_))
    }
}

/// Campaign-level containment accounting (see the module docs): every
/// failed attempt, retry, machine rebuild, and retried-out trial is
/// counted, and [`CampaignResult::verify_reconciliation`] checks they
/// balance against the per-trial records.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct HarnessStats {
    /// Attempts that panicked (caught and contained).
    pub panics: u64,
    /// Attempts that blew the wall-clock deadline.
    pub timeouts: u64,
    /// Retries granted after failed attempts.
    pub retries: u64,
    /// Machine rebuilds after failed attempts (restore-from-checkpoint-0
    /// for checkpointed workers, fresh construction for scratch workers).
    pub rebuilds: u64,
    /// Trials retried out into [`TrialStatus::HarnessError`].
    pub harness_errors: u64,
}

impl HarnessStats {
    /// Adds every counter of `other` into `self`. Merging is commutative
    /// and associative with [`HarnessStats::default`] as identity, which
    /// is what lets a distributed campaign sum per-chunk deltas in any
    /// arrival order (see the workspace merge-algebra property suite).
    pub fn merge(&mut self, other: &HarnessStats) {
        self.panics += other.panics;
        self.timeouts += other.timeouts;
        self.retries += other.retries;
        self.rebuilds += other.rebuilds;
        self.harness_errors += other.harness_errors;
    }

    /// The counter-wise delta `self - earlier`, saturating at zero. Used
    /// to attribute a monotone shared counter snapshot to one chunk of
    /// work: snapshot before, run, snapshot after, subtract.
    #[must_use]
    pub fn saturating_sub(&self, earlier: &HarnessStats) -> HarnessStats {
        HarnessStats {
            panics: self.panics.saturating_sub(earlier.panics),
            timeouts: self.timeouts.saturating_sub(earlier.timeouts),
            retries: self.retries.saturating_sub(earlier.retries),
            rebuilds: self.rebuilds.saturating_sub(earlier.rebuilds),
            harness_errors: self.harness_errors.saturating_sub(earlier.harness_errors),
        }
    }
}

/// Shared atomic counterpart of [`HarnessStats`], bumped by workers.
#[derive(Default)]
struct HarnessCounters {
    panics: AtomicU64,
    timeouts: AtomicU64,
    retries: AtomicU64,
    rebuilds: AtomicU64,
    harness_errors: AtomicU64,
}

impl HarnessCounters {
    fn snapshot(&self) -> HarnessStats {
        HarnessStats {
            panics: self.panics.load(Ordering::Relaxed),
            timeouts: self.timeouts.load(Ordering::Relaxed),
            retries: self.retries.load(Ordering::Relaxed),
            rebuilds: self.rebuilds.load(Ordering::Relaxed),
            harness_errors: self.harness_errors.load(Ordering::Relaxed),
        }
    }
}

/// How the campaign's trial restores broke down by the trial machine's
/// base snapshot (see [`certa_sim::Machine::restore`]). All zero for
/// campaigns that run without checkpointing.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct RestoreStats {
    /// Restores of the checkpoint the machine was already based on: only
    /// the pages the previous trial dirtied were swapped back.
    pub dirty_page: u64,
    /// Restores of another checkpoint of this campaign, which swap the
    /// dirty pages and the pages the two checkpoints do not share.
    pub diff_hop: u64,
    /// Always 0. Kept only because the wire codec, journal records and
    /// their readers carry four restore counters.
    pub diff_union_cache_hits: u64,
    /// Restores onto a machine whose base is outside the checkpoint set
    /// (same one-pass restore as `diff_hop`).
    pub full_image: u64,
}

impl RestoreStats {
    /// Total trial restores across all paths.
    #[must_use]
    pub fn total(&self) -> u64 {
        self.dirty_page + self.diff_hop + self.full_image
    }

    /// Adds every counter of `other` into `self` (commutative/associative
    /// with the default as identity — see [`HarnessStats::merge`]).
    pub fn merge(&mut self, other: &RestoreStats) {
        self.dirty_page += other.dirty_page;
        self.diff_hop += other.diff_hop;
        self.diff_union_cache_hits += other.diff_union_cache_hits;
        self.full_image += other.full_image;
    }

    /// The counter-wise delta `self - earlier`, saturating at zero (see
    /// [`HarnessStats::saturating_sub`]).
    #[must_use]
    pub fn saturating_sub(&self, earlier: &RestoreStats) -> RestoreStats {
        RestoreStats {
            dirty_page: self.dirty_page.saturating_sub(earlier.dirty_page),
            diff_hop: self.diff_hop.saturating_sub(earlier.diff_hop),
            diff_union_cache_hits: self
                .diff_union_cache_hits
                .saturating_sub(earlier.diff_union_cache_hits),
            full_image: self.full_image.saturating_sub(earlier.full_image),
        }
    }
}

/// Counts of completed trials by raw simulator outcome, plus the trials
/// the harness retried out. Replaces the old positional
/// `(halted, crashed, infinite)` tuple — with a six-way verdict taxonomy
/// layered on top (see `certa_fidelity::verdict`), positional counts are
/// an accident waiting to happen.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct OutcomeCounts {
    /// Trials that ran to a clean halt.
    pub halted: usize,
    /// Trials that crashed (memory violation, misalignment, control
    /// derailment).
    pub crashed: usize,
    /// Trials that tripped the instruction-budget watchdog.
    pub infinite: usize,
    /// Trials retried out as [`TrialStatus::HarnessError`].
    pub harness_error: usize,
}

impl OutcomeCounts {
    /// Counts the outcomes of a record sequence — the same bucketing as
    /// [`CampaignResult::outcome_counts`], usable on a chunk's records
    /// before they are merged into a campaign (the write-ahead journal
    /// stores per-chunk counts and cross-checks them against the decoded
    /// records on replay).
    pub fn of<'a>(records: impl IntoIterator<Item = &'a TrialRecord>) -> OutcomeCounts {
        let mut counts = OutcomeCounts::default();
        for record in records {
            match &record.status {
                TrialStatus::Completed(t) => match t.outcome {
                    Outcome::Halted => counts.halted += 1,
                    Outcome::Crashed(_) => counts.crashed += 1,
                    Outcome::InfiniteRun => counts.infinite += 1,
                },
                TrialStatus::HarnessError(_) => counts.harness_error += 1,
            }
        }
        counts
    }

    /// Total scheduled trials accounted for.
    #[must_use]
    pub fn total(&self) -> usize {
        self.halted + self.crashed + self.infinite + self.harness_error
    }

    /// Adds every bucket of `other` into `self` (commutative/associative
    /// with the default as identity — see [`HarnessStats::merge`]).
    pub fn merge(&mut self, other: &OutcomeCounts) {
        self.halted += other.halted;
        self.crashed += other.crashed;
        self.infinite += other.infinite;
        self.harness_error += other.harness_error;
    }
}

/// Aggregated campaign results.
#[derive(Debug, Clone)]
pub struct CampaignResult {
    /// The fault-free reference run.
    pub golden: GoldenRun,
    /// Per-trial records, in trial order.
    pub trials: Vec<TrialRecord>,
    /// Restore-path breakdown of the checkpointed trial scheduler.
    pub restore_stats: RestoreStats,
    /// Containment accounting (all zero for an unsabotaged, healthy run).
    pub harness_stats: HarnessStats,
    /// Bytes actually materialized capturing the golden checkpoints: under
    /// copy-on-write page sharing a capture copies only the pages written
    /// since the previous checkpoint, so this is far below
    /// `checkpoints × memory size`. Zero for campaigns run without
    /// checkpointing.
    pub checkpoint_capture_bytes: u64,
    /// Wall-clock time of the whole campaign (golden run, checkpoint
    /// capture, and all trials).
    pub elapsed: std::time::Duration,
}

impl CampaignResult {
    /// Completed trials per wall-clock second — the paper-scale campaign
    /// throughput number (golden-run time is included in the denominator,
    /// as a campaign cannot run without it).
    #[must_use]
    pub fn trials_per_second(&self) -> f64 {
        let secs = self.elapsed.as_secs_f64();
        if secs <= 0.0 {
            return 0.0;
        }
        self.trials.len() as f64 / secs
    }

    /// Iterates over the results of trials that completed (skipping
    /// harness errors).
    pub fn completed(&self) -> impl Iterator<Item = &TrialResult> + '_ {
        self.trials.iter().filter_map(TrialRecord::result)
    }

    /// Fraction of completed trials that ended catastrophically (Table
    /// 2's "% failures").
    #[must_use]
    pub fn failure_rate(&self) -> f64 {
        let mut completed = 0usize;
        let mut failures = 0usize;
        for trial in self.completed() {
            completed += 1;
            failures += usize::from(trial.is_catastrophic());
        }
        if completed == 0 {
            return 0.0;
        }
        failures as f64 / completed as f64
    }

    /// Iterates over the outputs of completed (halted) trials.
    pub fn completed_outputs(&self) -> impl Iterator<Item = &[u8]> + '_ {
        self.completed().filter_map(|t| t.output.as_deref())
    }

    /// Counts every scheduled trial by raw outcome (see
    /// [`OutcomeCounts`]).
    #[must_use]
    pub fn outcome_counts(&self) -> OutcomeCounts {
        OutcomeCounts::of(&self.trials)
    }

    /// Checks the campaign-level containment invariants: every scheduled
    /// trial is either completed or a harness error, the per-trial retry
    /// counts sum to the campaign retry counter, every failed attempt was
    /// either retried or retried out, and every failed attempt rebuilt
    /// its worker machine.
    ///
    /// # Errors
    ///
    /// Returns a description of the first violated invariant.
    /// [`run_campaign`] asserts this before returning, so a violation is
    /// a harness bug, not an experimental outcome.
    pub fn verify_reconciliation(&self) -> Result<(), String> {
        let completed = self.completed().count();
        let errors = self.trials.iter().filter(|r| r.is_harness_error()).count();
        if completed + errors != self.trials.len() {
            return Err(format!(
                "trial records do not partition: {completed} completed + {errors} errors != {} scheduled",
                self.trials.len()
            ));
        }
        let stats = &self.harness_stats;
        if errors as u64 != stats.harness_errors {
            return Err(format!(
                "harness-error records ({errors}) disagree with the campaign counter ({})",
                stats.harness_errors
            ));
        }
        let retry_sum: u64 = self.trials.iter().map(|r| u64::from(r.retries)).sum();
        if retry_sum != stats.retries {
            return Err(format!(
                "per-trial retries ({retry_sum}) disagree with the campaign counter ({})",
                stats.retries
            ));
        }
        let failed_attempts = stats.panics + stats.timeouts;
        if failed_attempts != stats.retries + stats.harness_errors {
            return Err(format!(
                "failed attempts ({failed_attempts}) != retries ({}) + harness errors ({})",
                stats.retries, stats.harness_errors
            ));
        }
        if stats.rebuilds != failed_attempts {
            return Err(format!(
                "rebuilds ({}) != failed attempts ({failed_attempts})",
                stats.rebuilds
            ));
        }
        Ok(())
    }
}

fn trial_seed(base: u64, trial: usize) -> u64 {
    // SplitMix64 finalizer: decorrelates consecutive trial indices.
    let mut z = base ^ (trial as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Runs the golden (fault-free) reference for `target`, also measuring the
/// eligible population under `protection`.
///
/// # Panics
///
/// Panics if the golden run does not halt cleanly — the guest program itself
/// is broken, which is a harness bug, not an experimental outcome.
#[must_use]
pub fn golden_run(
    target: &dyn Target,
    tags: &TagMap,
    protection: Protection,
    watchdog: u64,
) -> GoldenRun {
    // Zero budget keeps only the mandatory instruction-zero checkpoint and
    // the maximal stride means the run is never paused: this is exactly the
    // plain golden run, sharing one implementation with the checkpointed
    // path so the two can never diverge.
    let decoded = Arc::new(DecodedProgram::new(target.program()));
    let trace = trace_golden(target, &decoded, watchdog, 0, u64::MAX, None);
    let eligibility = Eligibility::new(target.program(), tags, protection, None);
    GoldenRun {
        eligible_population: eligibility.count(&trace.exec_counts),
        output: trace.output,
        instructions: trace.instructions,
        exec_counts: trace.exec_counts,
    }
}

/// A golden-run snapshot plus the per-instruction execution counts up to
/// it. The eligible writebacks it had seen under any protection regime —
/// the unit the checkpointed scheduler fast-forwards register trials to —
/// follow from the counts (see [`Eligibility::count`]), so one checkpoint
/// serves every regime.
struct Checkpoint {
    snapshot: Snapshot,
    exec_counts: Vec<u64>,
}

/// The golden checkpoints: everything about them that no campaign
/// configuration changes, shared by every campaign built on one
/// [`GoldenSession`].
struct GoldenCheckpoints {
    checkpoints: Vec<Checkpoint>,
    /// Bytes materialized by the captures (see
    /// [`certa_sim::Machine::capture_bytes`]).
    capture_bytes: u64,
    /// The capture parameters ([`CampaignConfig::checkpoint_budget_bytes`],
    /// [`CampaignConfig::checkpoint_stride`]) that laid these checkpoints.
    budget_bytes: usize,
    stride: u64,
}

impl GoldenCheckpoints {
    fn snapshot(&self, index: usize) -> &Snapshot {
        &self.checkpoints[index].snapshot
    }
}

/// One campaign's view of the golden checkpoints: the eligible writebacks
/// each had seen under the campaign's regime, plus the restore counters.
struct CheckpointSet {
    golden: Arc<GoldenCheckpoints>,
    /// `eligible_seen[i]`: eligible writebacks before checkpoint `i`.
    eligible_seen: Vec<u64>,
    /// Restore-path counters (see [`RestoreStats`]), relaxed — they are
    /// diagnostics, aggregated after the scheduler joins.
    dirty_restores: AtomicU64,
    diff_restores: AtomicU64,
    full_restores: AtomicU64,
    /// Restores of trials that rejoined the golden run between two flips
    /// (see [`run_trial_checkpointed`]); each is also counted by path.
    fast_forwards: AtomicU64,
}

impl CheckpointSet {
    /// The campaign view of `golden` under `eligibility`.
    fn new(golden: Arc<GoldenCheckpoints>, eligibility: &Eligibility) -> Self {
        let eligible_seen = golden
            .checkpoints
            .iter()
            .map(|c| eligibility.count(&c.exec_counts))
            .collect();
        CheckpointSet {
            golden,
            eligible_seen,
            dirty_restores: AtomicU64::new(0),
            diff_restores: AtomicU64::new(0),
            full_restores: AtomicU64::new(0),
            fast_forwards: AtomicU64::new(0),
        }
    }

    /// Restores `machine` to checkpoint `index` ([`Machine::restore`]:
    /// O(dirty pages) when the machine is already based on it, plus the
    /// pages not shared with it otherwise) and counts the restore by the
    /// machine's base: that checkpoint, another of this set, or a snapshot
    /// outside it.
    fn restore(&self, machine: &mut Machine<'_>, index: usize) {
        let target = self.golden.snapshot(index);
        let base = machine.base_snapshot_id();
        let counter = if base == target.id() {
            &self.dirty_restores
        } else if self
            .golden
            .checkpoints
            .iter()
            .any(|c| c.snapshot.id() == base)
        {
            &self.diff_restores
        } else {
            &self.full_restores
        };
        counter.fetch_add(1, Ordering::Relaxed);
        machine
            .restore(target)
            .expect("checkpoint memory image matches the trial machine");
    }

    /// Snapshot of the restore-path counters.
    fn stats(&self) -> RestoreStats {
        RestoreStats {
            dirty_page: self.dirty_restores.load(Ordering::Relaxed),
            diff_hop: self.diff_restores.load(Ordering::Relaxed),
            diff_union_cache_hits: 0,
            full_image: self.full_restores.load(Ordering::Relaxed),
        }
    }

    /// The latest checkpoint a trial of this plan can restore from with a
    /// flip at `at` still ahead: register plans compare against the
    /// checkpoint's eligible-writeback count, memory plans against its
    /// dynamic instruction count (strictly below the flip boundary, which
    /// is where the flip *pauses*, so restoring there would skip it).
    fn restore_before(&self, plan: &TrialPlan, at: u64) -> usize {
        match plan {
            TrialPlan::Reg(_) => self.eligible_seen.partition_point(|&e| e <= at),
            TrialPlan::Mem(_) => self
                .golden
                .checkpoints
                .partition_point(|c| c.snapshot.instructions() < at),
        }
        .saturating_sub(1)
    }
}

/// What a profiled, hook-free golden run observes: nothing here depends
/// on a protection regime or a tag map.
struct GoldenTrace {
    output: Vec<u8>,
    instructions: u64,
    exec_counts: Vec<u64>,
    checkpoints: Vec<Checkpoint>,
    /// Bytes materialized by the checkpoint captures (see
    /// [`certa_sim::Machine::capture_bytes`]).
    capture_bytes: u64,
}

/// Runs the golden reference with profiling and no hook, recording
/// checkpoints: snapshots spaced `stride` dynamic instructions apart,
/// thinned (keep every other, double the stride) whenever the count would
/// exceed the memory budget. Checkpoint 0 is always the post-`prepare`
/// state at instruction zero, so every trial has a restore point.
///
/// With `aot` supplied, the run executes on the tier-4 native regions
/// ([`certa_sim::Machine::run_until_aot`]) instead of the interpreter —
/// bit-identical state, profile counts and checkpoints either way, just
/// faster.
fn trace_golden(
    target: &dyn Target,
    decoded: &Arc<DecodedProgram>,
    watchdog: u64,
    budget_bytes: usize,
    stride: u64,
    aot: Option<&AotProgram>,
) -> GoldenTrace {
    let program = target.program();
    let config = MachineConfig {
        mem_size: target.mem_size(),
        max_instructions: watchdog,
        profile: true,
    };
    let mut machine = Machine::try_new_with_decoded(program, decoded, &config)
        .unwrap_or_else(|e| panic!("machine configuration rejected: {e}"));
    target.prepare(&mut machine);

    let mut checkpoints = vec![Checkpoint {
        snapshot: machine.snapshot(),
        exec_counts: machine.exec_counts().to_vec(),
    }];
    let max_snapshots =
        (budget_bytes / checkpoints[0].snapshot.size_bytes().max(1)).clamp(1, MAX_CHECKPOINTS);
    let mut stride = stride.max(1);

    let result = loop {
        let next_at = machine.instructions().saturating_add(stride);
        match run_until(&mut machine, &mut NoHook, aot, next_at) {
            BoundedRun::Finished(result) => break result,
            BoundedRun::Paused => {
                if checkpoints.len() >= max_snapshots {
                    // Keep every other checkpoint (0 always survives) and
                    // double the spacing: the count stays bounded with
                    // O(log golden_len) thinning rounds overall.
                    let mut keep = false;
                    checkpoints.retain(|_| {
                        keep = !keep;
                        keep
                    });
                    stride = stride.saturating_mul(2);
                }
                let last = checkpoints.last().expect("checkpoint 0 is never thinned");
                if machine.instructions() - last.snapshot.instructions() >= stride {
                    checkpoints.push(Checkpoint {
                        snapshot: machine.snapshot(),
                        exec_counts: machine.exec_counts().to_vec(),
                    });
                }
            }
        }
    };

    assert_eq!(
        result.outcome,
        Outcome::Halted,
        "golden run must halt cleanly, got {}",
        result.outcome
    );
    GoldenTrace {
        output: target
            .extract(&machine)
            .expect("golden run must produce readable output"),
        instructions: result.instructions,
        exec_counts: machine.exec_counts().to_vec(),
        checkpoints,
        capture_bytes: machine.capture_bytes(),
    }
}

/// The per-workload half of a campaign: the predecoded golden run, its
/// profile and checkpoints, and the trial program lowering it seeds —
/// everything that depends on the target alone, built once and shared by
/// any number of campaigns ([`GoldenSession::campaign`]) over every
/// protection regime, fault target, error level, seed and tag map.
///
/// A campaign built on a shared golden session is identical — records,
/// [`CampaignSession::fingerprint`], golden observables — to one built
/// by [`CampaignSession::new`], which is exactly these two steps.
pub struct GoldenSession<'a> {
    target: &'a dyn Target,
    output: Vec<u8>,
    instructions: u64,
    exec_counts: Vec<u64>,
    /// `None` when built without checkpointing.
    checkpoints: Option<Arc<GoldenCheckpoints>>,
    trial_decoded: Arc<DecodedProgram>,
    /// Native code for the target's program, when supplied: checkpointed
    /// trials run on it.
    aot: Option<AotProgram>,
}

impl<'a> GoldenSession<'a> {
    /// Runs `target`'s golden reference — on tier-4 native regions when
    /// `aot` is supplied (it must have been generated from `target`'s
    /// program), else on the interpreter; both are bit-identical —
    /// capturing checkpoints with `config`'s budget and stride when
    /// [`CampaignConfig::checkpointing`] is on, and lowers the trial
    /// program seeded with the golden profile. No other field of `config`
    /// is read. The session keeps `aot`: checkpointed trials of its
    /// campaigns run natively too (see [`CampaignSession::new_with_aot`]).
    ///
    /// # Panics
    ///
    /// Panics if the golden run fails (see [`golden_run`]) or if `aot` was
    /// not generated from `target`'s program ([`AotProgram::matches`]).
    #[must_use]
    pub fn new(target: &'a dyn Target, config: &CampaignConfig, aot: Option<&AotProgram>) -> Self {
        let program = target.program();
        if let Some(aot) = aot {
            assert!(
                aot.matches(program),
                "native code `{}` ({} instructions, code fingerprint {:#018x}) was not generated \
                 from the target's program ({} instructions, code fingerprint {:#018x})",
                aot.name,
                aot.code_len,
                aot.fingerprint,
                program.code.len(),
                program.code_fingerprint()
            );
        }
        // One decode for the golden run; trials get their own seeded
        // lowering below.
        let decoded = Arc::new(DecodedProgram::new(program));
        // Large budget for the golden run; the trial watchdog derives
        // from it.
        let golden_budget = u64::MAX / 2;
        let (budget, stride) = if config.checkpointing {
            (config.checkpoint_budget_bytes, config.checkpoint_stride)
        } else {
            (0, u64::MAX)
        };
        let trace = trace_golden(target, &decoded, golden_budget, budget, stride, aot);
        let checkpoints = config.checkpointing.then(|| {
            Arc::new(GoldenCheckpoints {
                checkpoints: trace.checkpoints,
                capture_bytes: trace.capture_bytes,
                budget_bytes: budget,
                stride,
            })
        });
        // Trials re-lower the program with the golden run's execution
        // counts seeding the superblock policy: only blocks the golden run
        // actually reached get trace bodies, which is where trials spend
        // nearly all of their time (they diverge from golden only after a
        // flip lands). Decoded once, shared by every worker machine of
        // every campaign on this session.
        let trial_decoded = Arc::new(DecodedProgram::with_policy(
            program,
            &SuperblockPolicy::seeded(trace.exec_counts.clone()),
        ));
        GoldenSession {
            target,
            output: trace.output,
            instructions: trace.instructions,
            exec_counts: trace.exec_counts,
            checkpoints,
            trial_decoded,
            aot: aot.copied(),
        }
    }

    /// Dynamic instructions the golden run executed.
    #[must_use]
    pub fn instructions(&self) -> u64 {
        self.instructions
    }

    /// Per-instruction execution counts of the golden run (for Table 3
    /// dynamic statistics).
    #[must_use]
    pub fn exec_counts(&self) -> &[u64] {
        &self.exec_counts
    }

    /// Prepares one campaign on this golden run: the eligibility table of
    /// `config.protection` (per instruction, and per native block when the
    /// session has native code), the eligible population and every
    /// checkpoint's eligible count (profile dot products with that table
    /// — no execution), the trial watchdog, and the pre-sampled plans.
    /// Restore and harness counters start at zero and belong to the
    /// returned session alone. With `checkpointing: false`
    /// the campaign ignores any checkpoints and reports zero capture
    /// bytes.
    ///
    /// # Panics
    ///
    /// Panics if `config` asks for checkpointing with a budget or stride
    /// other than this session's (or this session has no checkpoints), or
    /// if `config.trials` does not fit in `u32`.
    #[must_use]
    pub fn campaign<'t>(&self, tags: &'t TagMap, config: &CampaignConfig) -> CampaignSession<'t>
    where
        'a: 't,
    {
        assert!(
            u32::try_from(config.trials).is_ok(),
            "trial ids must fit in u32"
        );
        let started = Instant::now();
        let program = self.target.program();
        let eligibility = Arc::new(Eligibility::new(
            program,
            tags,
            config.protection,
            self.aot.as_ref(),
        ));
        let checkpoints = config.checkpointing.then(|| {
            let golden = self
                .checkpoints
                .as_ref()
                .expect("a checkpointed campaign needs a golden session built with checkpointing");
            assert_eq!(
                (golden.budget_bytes, golden.stride),
                (config.checkpoint_budget_bytes, config.checkpoint_stride),
                "campaign checkpoint budget/stride must match the golden session's"
            );
            CheckpointSet::new(Arc::clone(golden), &eligibility)
        });
        let golden = GoldenRun {
            output: self.output.clone(),
            instructions: self.instructions,
            eligible_population: eligibility.count(&self.exec_counts),
            exec_counts: self.exec_counts.clone(),
        };
        let watchdog = golden
            .instructions
            .saturating_mul(config.watchdog_factor)
            .max(golden.instructions + 1_000_000);

        let threads = if config.threads == 0 {
            std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get)
        } else {
            config.threads
        };

        let machine_config = MachineConfig {
            mem_size: self.target.mem_size(),
            max_instructions: watchdog,
            profile: false,
        };

        // Pre-sample every trial's plan. This matches sampling inside the
        // trial exactly — the per-trial RNG is used for nothing else — and
        // the scheduler needs the injection points up front to sort
        // trials.
        let plans: Vec<TrialPlan> = (0..config.trials)
            .map(|t| {
                let mut rng = SmallRng::seed_from_u64(trial_seed(config.seed, t));
                match config.target {
                    FaultTarget::Registers => TrialPlan::Reg(FaultPlan::sample(
                        &mut rng,
                        golden.eligible_population,
                        config.errors,
                    )),
                    FaultTarget::MemoryCells => TrialPlan::Mem(MemoryFaultPlan::sample(
                        &mut rng,
                        golden.instructions,
                        program.data.len(),
                        config.errors,
                    )),
                }
            })
            .collect();

        CampaignSession {
            target: self.target,
            config: config.clone(),
            threads,
            run_slice: derive_run_slice(golden.instructions),
            golden,
            checkpoints,
            trial_decoded: Arc::clone(&self.trial_decoded),
            aot: self.aot,
            eligibility,
            machine_config,
            plans,
            counters: HarnessCounters::default(),
            started,
        }
    }
}

/// One trial's pre-sampled fault plan, dispatched by the campaign's
/// [`FaultTarget`].
#[derive(Debug, Clone)]
enum TrialPlan {
    /// Register-writeback flips, keyed by eligible-execution index.
    Reg(FaultPlan),
    /// Memory-cell flips, keyed by dynamic instruction count.
    Mem(MemoryFaultPlan),
}

impl TrialPlan {
    fn earliest_injection(&self) -> Option<u64> {
        match self {
            TrialPlan::Reg(p) => p.earliest_injection(),
            TrialPlan::Mem(p) => p.earliest_injection(),
        }
    }
}

/// How a trial attempt ended, harness-wise: an experimental result, or a
/// blown wall-clock deadline (the containment wrapper decides retry vs.
/// [`TrialStatus::HarnessError`]).
enum TrialExec {
    Done(TrialResult),
    TimedOut,
}

/// [`Machine::run_until`], on `aot`'s native regions when supplied
/// ([`Machine::run_until_aot`]) — bit-identical either way.
fn run_until<H: WritebackHook>(
    machine: &mut Machine<'_>,
    hook: &mut H,
    aot: Option<&AotProgram>,
    target: u64,
) -> BoundedRun {
    match aot {
        Some(aot) => machine.run_until_aot(hook, aot, target),
        None => machine.run_until(hook, target),
    }
}

/// Runs `machine` to completion in `slice`-instruction slices (see
/// [`derive_run_slice`]), on `aot` when supplied, checking the wall-clock
/// `deadline` between slices. `None` means the deadline passed with the
/// run still going — a harness failure, distinct from the
/// instruction-budget watchdog (which finishes the run with
/// [`Outcome::InfiniteRun`], an experimental outcome).
fn run_sliced<H: WritebackHook>(
    machine: &mut Machine<'_>,
    hook: &mut H,
    aot: Option<&AotProgram>,
    deadline: Instant,
    slice: u64,
) -> Option<RunResult> {
    loop {
        let bound = machine.instructions().saturating_add(slice.max(1));
        match run_until(machine, hook, aot, bound) {
            BoundedRun::Finished(result) => return Some(result),
            BoundedRun::Paused => {
                if Instant::now() >= deadline {
                    return None;
                }
            }
        }
    }
}

/// Applies memory-cell flips (a run of [`MemoryFaultPlan::triples`]) at
/// their instruction boundaries: runs to each boundary (on `aot` when
/// supplied), flips the planned data-segment bit through the
/// copy-on-write store, and counts the flips that landed. Returns the
/// run's result if it finished before (or at) some boundary, `Ok(None)` if
/// all boundaries were passed with the run still going, and
/// `Err(TrialExec::TimedOut)` on a blown deadline.
fn apply_memory_flips(
    machine: &mut Machine<'_>,
    flips: &[(u64, u32, u8)],
    aot: Option<&AotProgram>,
    injected: &mut u32,
    deadline: Instant,
) -> Result<Option<RunResult>, TrialExec> {
    for &(at, offset, bit) in flips {
        if at <= machine.instructions() {
            // Resumed past this boundary (cannot happen from the campaign
            // scheduler, which restores strictly below each pending
            // flip): the flip is missed, exactly as a hook attached late
            // would miss it.
            continue;
        }
        match run_until(machine, &mut NoHook, aot, at) {
            BoundedRun::Finished(result) => return Ok(Some(result)),
            BoundedRun::Paused => {
                if Instant::now() >= deadline {
                    return Err(TrialExec::TimedOut);
                }
                if machine
                    .flip_memory_bit(DATA_BASE.saturating_add(offset), bit)
                    .is_ok()
                {
                    *injected += 1;
                }
            }
        }
    }
    Ok(None)
}

/// Runs one trial the slow way: fresh machine, staged input, execute from
/// instruction zero, always on the interpreter. This is the reference
/// path (`checkpointing: false`) the accelerated path — checkpoints and,
/// when the session has native code, tier 4 — must match bit-for-bit.
fn run_trial_scratch(
    session: &CampaignSession<'_>,
    plan: &TrialPlan,
    deadline: Instant,
) -> TrialExec {
    let target = session.target;
    let program = target.program();
    let mut machine =
        Machine::try_new_with_decoded(program, &session.trial_decoded, &session.machine_config)
            .unwrap_or_else(|e| panic!("machine configuration rejected: {e}"));
    target.prepare(&mut machine);
    let (result, injected) = match plan {
        TrialPlan::Reg(plan) => {
            let mut injector = session.injector(plan);
            let Some(result) = run_sliced(
                &mut machine,
                &mut injector,
                None,
                deadline,
                session.run_slice,
            ) else {
                return TrialExec::TimedOut;
            };
            (result, injector.injected())
        }
        TrialPlan::Mem(plan) => {
            let mut injected = 0u32;
            let early = match apply_memory_flips(
                &mut machine,
                plan.triples(),
                None,
                &mut injected,
                deadline,
            ) {
                Ok(early) => early,
                Err(timed_out) => return timed_out,
            };
            let result = match early {
                Some(result) => result,
                None => {
                    match run_sliced(&mut machine, &mut NoHook, None, deadline, session.run_slice) {
                        Some(result) => result,
                        None => return TrialExec::TimedOut,
                    }
                }
            };
            (result, injected)
        }
    };
    let output = if result.outcome == Outcome::Halted {
        target.extract(&machine)
    } else {
        None
    };
    TrialExec::Done(TrialResult {
        outcome: result.outcome,
        output,
        instructions: result.instructions,
        injected,
    })
}

/// Largest reconvergence-probe gap (in checkpoints) the exponential
/// backoff reaches. Bounded so a trial that diverges early but heals late
/// still rejoins within a few probes of healing, while a persistently
/// divergent trial pays at most O(log checkpoints) pauses.
const MAX_PROBE_GAP: usize = 8;

/// A checkpointed trial's flips, applied as it runs: register plans by
/// the injector's writeback hook, memory plans by pausing at each
/// boundary.
enum Flips<'p> {
    Reg(Injector),
    Mem {
        plan: &'p MemoryFaultPlan,
        /// Position in the plan of the next flip to apply.
        next: usize,
        injected: u32,
    },
}

impl Flips<'_> {
    /// The key — an eligible-writeback index or an instruction boundary —
    /// of the first flip still to apply for which `passed` is false
    /// (`passed` must hold for a prefix of the flips), or `None`.
    fn pending(&self, passed: impl Fn(u64) -> bool) -> Option<u64> {
        fn first<F>(
            flips: &[F],
            key: impl Fn(&F) -> u64,
            passed: impl Fn(u64) -> bool,
        ) -> Option<u64> {
            flips
                .get(flips.partition_point(|f| passed(key(f))))
                .map(key)
        }
        match self {
            Flips::Reg(injector) => first(injector.pending(), |&(at, _)| at, passed),
            Flips::Mem { plan, next, .. } => {
                first(&plan.triples()[*next..], |&(at, _, _)| at, passed)
            }
        }
    }

    fn injected(&self) -> u32 {
        match self {
            Flips::Reg(injector) => injector.injected(),
            Flips::Mem { injected, .. } => *injected,
        }
    }

    /// Whether the count the pending flip is keyed on equals the golden
    /// run's at checkpoint `index`: the injector's eligible writebacks for
    /// a register plan (two equal-length paths can retire different
    /// numbers of them, so [`Machine::state_eq`] does not imply it); for a
    /// memory plan the instruction count, which `state_eq` compares.
    fn on_golden_count(&self, set: &CheckpointSet, index: usize) -> bool {
        match self {
            Flips::Reg(injector) => injector.eligible_seen() == set.eligible_seen[index],
            Flips::Mem { .. } => true,
        }
    }

    /// Restores checkpoint `index`, which must lie before the pending flip
    /// ([`CheckpointSet::restore_before`]), and seeks the injector to the
    /// golden run's count there.
    fn restore(&mut self, set: &CheckpointSet, machine: &mut Machine<'_>, index: usize) {
        set.restore(machine, index);
        if let Flips::Reg(injector) = self {
            injector.seek(set.eligible_seen[index]);
        }
    }

    /// Runs `machine` to instruction `bound` (on `aot` when supplied),
    /// applying the flips due on the way.
    fn run_until(
        &mut self,
        machine: &mut Machine<'_>,
        aot: Option<&AotProgram>,
        bound: u64,
        deadline: Instant,
    ) -> Result<BoundedRun, TrialExec> {
        match self {
            Flips::Reg(injector) => Ok(run_until(machine, injector, aot, bound)),
            Flips::Mem {
                plan,
                next,
                injected,
            } => {
                let rest = &plan.triples()[*next..];
                let due = &rest[..rest.partition_point(|&(at, _, _)| at <= bound)];
                *next += due.len();
                if let Some(result) = apply_memory_flips(machine, due, aot, injected, deadline)? {
                    return Ok(BoundedRun::Finished(result));
                }
                Ok(run_until(machine, &mut NoHook, aot, bound))
            }
        }
    }
}

/// Runs one trial in one walk over the golden checkpoints, reusing
/// `machine`'s buffers (restore is pointer swaps into existing page slots,
/// never an allocation).
///
/// The trial restores the latest checkpoint before its first flip, then
/// pauses at later checkpoints to probe whether it has rejoined the golden
/// run ([`Machine::state_eq`]). Between two flips it probes only before
/// the pending flip's restore checkpoint
/// ([`CheckpointSet::restore_before`]), and a rejoined trial whose pending
/// flip's counter is the golden run's too ([`Flips::on_golden_count`])
/// *fast-forwards*: it restores that checkpoint instead of executing the
/// golden stretch up to it. After the last flip a rejoined trial splices
/// the golden outcome and output in. The module docs say why both are
/// exact. The walk pauses only where a probe could succeed on the golden
/// run's schedule, never at a checkpoint whose interval to the next holds
/// a pending flip, so packed flips run straight through; a failed probe
/// doubles the gap to the next (1, 2, 4, … up to [`MAX_PROBE_GAP`]
/// checkpoints), and a fast-forward starts afresh. Probing late only costs
/// execution time, never correctness.
///
/// When the session has native code, every segment runs on tier 4
/// ([`Machine::run_until_aot`]): register trials natively up to each
/// planned flip's block, which the interpreter runs with the injector,
/// and natively again after it; memory trials natively throughout.
/// Bit-identical to the interpreter either way.
fn run_trial_checkpointed(
    session: &CampaignSession<'_>,
    machine: &mut Machine<'_>,
    plan: &TrialPlan,
    deadline: Instant,
) -> TrialExec {
    let golden = &session.golden;
    let aot = session.aot.as_ref();
    let set = session
        .checkpoints
        .as_ref()
        .expect("checkpointed trial runner requires a checkpoint set");
    let mut flips = match plan {
        TrialPlan::Reg(plan) => Flips::Reg(session.injector(plan)),
        TrialPlan::Mem(plan) => Flips::Mem {
            plan,
            next: 0,
            injected: 0,
        },
    };
    let on_golden_run = |injected| {
        TrialExec::Done(TrialResult {
            outcome: Outcome::Halted,
            output: Some(golden.output.clone()),
            instructions: golden.instructions,
            injected,
        })
    };
    let Some(first) = flips.pending(|_| false) else {
        // No flips will ever fire, so the trial *is* the golden run.
        return on_golden_run(0);
    };
    let restored = set.restore_before(plan, first);
    flips.restore(set, machine, restored);
    let (mut next, mut gap) = (restored, 1);
    let result = loop {
        // Pause only where a probe can succeed if the trial keeps to the
        // golden run's schedule: not at the restore checkpoint of the flip
        // pending there.
        while next < set.golden.checkpoints.len()
            && flips
                .pending(|at| set.restore_before(plan, at) < next)
                .is_some_and(|at| set.restore_before(plan, at) == next)
        {
            next += 1;
        }
        // Past the last checkpoint the run goes on in deadline-checked
        // slices.
        let probe = set.golden.checkpoints.get(next);
        let bound = match probe {
            Some(cp) => cp.snapshot.instructions(),
            None => machine.instructions().saturating_add(session.run_slice),
        };
        match flips.run_until(machine, aot, bound, deadline) {
            Ok(BoundedRun::Finished(result)) => break result,
            Ok(BoundedRun::Paused) if Instant::now() < deadline => {}
            Ok(BoundedRun::Paused) => return TrialExec::TimedOut,
            Err(timed_out) => return timed_out,
        }
        let Some(cp) = probe else { continue };
        match flips.pending(|_| false) {
            None if machine.state_eq(&cp.snapshot) => return on_golden_run(flips.injected()),
            Some(at) => {
                let ahead = set.restore_before(plan, at);
                if next < ahead
                    && flips.on_golden_count(set, next)
                    && machine.state_eq(&cp.snapshot)
                {
                    flips.restore(set, machine, ahead);
                    set.fast_forwards.fetch_add(1, Ordering::Relaxed);
                    (next, gap) = (ahead + 1, 1);
                    continue;
                }
            }
            None => {}
        }
        next += gap;
        gap = (gap * 2).min(MAX_PROBE_GAP);
    };
    let output = if result.outcome == Outcome::Halted {
        session.target.extract(machine)
    } else {
        None
    };
    TrialExec::Done(TrialResult {
        outcome: result.outcome,
        output,
        instructions: result.instructions,
        injected: flips.injected(),
    })
}

/// The per-trial containment wrapper: runs up to [`MAX_ATTEMPTS`]
/// attempts of `attempt_run` under `catch_unwind` with a fresh wall-clock
/// deadline each, applying any configured sabotage
/// ([`CampaignConfig::harness_faults`]) at attempt entry, rebuilding the
/// worker after every failed attempt, and bumping the shared containment
/// counters so [`CampaignResult::verify_reconciliation`] can balance the
/// books.
fn contain<W>(
    trial: usize,
    config: &CampaignConfig,
    counters: &HarnessCounters,
    worker: &mut W,
    rebuild: impl Fn(&mut W),
    attempt_run: impl Fn(&mut W, Instant) -> TrialExec,
) -> TrialRecord {
    let mut retries = 0u32;
    let mut last_failure = None;
    for attempt in 0..MAX_ATTEMPTS {
        let deadline = Instant::now() + config.trial_timeout;
        let exec = catch_unwind(AssertUnwindSafe(|| {
            if attempt < config.harness_faults.panic_attempts(trial) {
                // `resume_unwind` skips the global panic hook: injected
                // faults are expected and must not spam stderr.
                std::panic::resume_unwind(Box::new("injected harness fault: panicking hook"));
            }
            if attempt < config.harness_faults.hang_attempts(trial) {
                // Simulate a wedged trial: stall past the deadline.
                std::thread::sleep(config.trial_timeout + Duration::from_millis(20));
            }
            if Instant::now() >= deadline {
                return TrialExec::TimedOut;
            }
            attempt_run(&mut *worker, deadline)
        }));
        match exec {
            Ok(TrialExec::Done(result)) => {
                return TrialRecord {
                    status: TrialStatus::Completed(result),
                    retries,
                };
            }
            Ok(TrialExec::TimedOut) => {
                counters.timeouts.fetch_add(1, Ordering::Relaxed);
                last_failure = Some(HarnessFailure::Timeout);
            }
            Err(_) => {
                counters.panics.fetch_add(1, Ordering::Relaxed);
                last_failure = Some(HarnessFailure::Panic);
            }
        }
        // The attempt failed: whatever state the machine was left in is
        // suspect, so discard it before any retry.
        rebuild(&mut *worker);
        counters.rebuilds.fetch_add(1, Ordering::Relaxed);
        if attempt + 1 < MAX_ATTEMPTS {
            retries += 1;
            counters.retries.fetch_add(1, Ordering::Relaxed);
        }
    }
    counters.harness_errors.fetch_add(1, Ordering::Relaxed);
    TrialRecord {
        status: TrialStatus::HarnessError(
            last_failure.expect("at least one attempt ran and failed"),
        ),
        retries,
    }
}

/// Runs `order`'s trials across `threads` scoped workers, each owning one
/// reusable worker state (for checkpointed campaigns, a [`Machine`] whose
/// page slots are recycled across trials). Trials are handed out in
/// `order` through an atomic cursor in contiguous chunks of `chunk`
/// trials: with `order` sorted by restore checkpoint, a worker's
/// consecutive trials then restore the checkpoint its machine is already
/// based on (the O(previous trial's written pages) fast path) instead of
/// interleaving checkpoint groups across workers. Results land at their
/// trial index, so the output is independent of the handout. `chunk = 1`
/// degrades to the plain work-stealing cursor.
fn schedule_trials<R, W, G, F>(
    order: &[usize],
    threads: usize,
    chunk: usize,
    mk_worker: G,
    run: F,
) -> Vec<R>
where
    R: Send,
    W: Send,
    G: Fn() -> W + Sync,
    F: Fn(&mut W, usize) -> R + Sync,
{
    let n = order.len();
    let chunk = chunk.max(1);
    let mut results: Vec<Option<R>> = (0..n).map(|_| None).collect();
    let threads = threads.min(n);
    if threads <= 1 || n <= 1 {
        let mut worker = mk_worker();
        for &t in order {
            results[t] = Some(run(&mut worker, t));
        }
    } else {
        let next = AtomicUsize::new(0);
        std::thread::scope(|scope| {
            let handles: Vec<_> = (0..threads)
                .map(|_| {
                    scope.spawn(|| {
                        let mut worker = mk_worker();
                        let mut local = Vec::new();
                        loop {
                            let k = next.fetch_add(1, Ordering::Relaxed);
                            let start = k.saturating_mul(chunk);
                            if start >= n {
                                break;
                            }
                            for &t in &order[start..(start + chunk).min(n)] {
                                local.push((t, run(&mut worker, t)));
                            }
                        }
                        local
                    })
                })
                .collect();
            for handle in handles {
                for (t, result) in handle.join().expect("campaign worker panicked") {
                    results[t] = Some(result);
                }
            }
        });
    }
    results
        .into_iter()
        .map(|r| r.expect("every trial filled"))
        .collect()
}

/// Runs a full campaign: golden run, then `config.trials` parallel
/// fault-injection trials (checkpoint-accelerated by default — see the
/// module docs; results are bit-identical to from-scratch execution),
/// each contained by the harness-fault policy (panic isolation,
/// wall-clock timeout, bounded retry).
///
/// # Panics
///
/// Panics if the golden run fails (see [`golden_run`]) or if the
/// campaign's trial accounting does not reconcile (a harness bug — see
/// [`CampaignResult::verify_reconciliation`]).
#[must_use]
pub fn run_campaign(target: &dyn Target, tags: &TagMap, config: &CampaignConfig) -> CampaignResult {
    let session = CampaignSession::new(target, tags, config);
    let trials = session.run_all();
    session.finish(trials)
}

/// [`run_campaign`] with the golden run, checkpoint capture and the
/// checkpointed fault trials executed on tier-4 native code (see
/// [`CampaignSession::new_with_aot`]). Results are bit-identical to
/// [`run_campaign`]; only the wall clock changes.
///
/// # Panics
///
/// Panics as [`run_campaign`] does, and additionally if `aot` was not
/// generated from `target`'s program.
#[must_use]
pub fn run_campaign_with_aot(
    target: &dyn Target,
    tags: &TagMap,
    config: &CampaignConfig,
    aot: Option<&AotProgram>,
) -> CampaignResult {
    let session = CampaignSession::new_with_aot(target, tags, config, aot);
    let trials = session.run_all();
    session.finish(trials)
}

/// A contiguous, checkpoint-grouped batch of trial ids — the unit of work
/// the distributed coordinator (`certa-dist`) leases to workers.
/// [`CampaignSession::chunk_plan`] cuts the session's sorted trial order
/// into these, so a worker's consecutive trials within one chunk restore
/// incrementally, exactly as the in-process scheduler's chunked handout
/// does.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TrialChunk {
    /// Dense chunk id (`0..chunk_count`).
    pub id: u32,
    /// Global trial ids, in scheduling order.
    pub trials: Vec<u32>,
}

/// A fully prepared campaign: the golden run, its checkpoint set, the
/// predecoded trial program, and every trial's pre-sampled fault plan —
/// everything [`run_campaign`] builds before scheduling, held open so
/// trials can be executed in arbitrary subsets. The golden half is shared
/// (see [`GoldenSession`]); the plans, eligible counts and restore and
/// harness counters are this campaign's own.
///
/// This is the seam the distributed service (`certa-dist`) splits the
/// campaign along: a coordinator and each worker process independently
/// build a session from the same `(target, config)` pair — construction
/// is deterministic, and [`CampaignSession::fingerprint`] guards against
/// mismatch — and then any party can run any subset of trial ids with
/// [`CampaignSession::run_subset`], bit-identical to the same trials of
/// an in-process [`run_campaign`]. Trial ids are deterministic (the
/// per-trial seed depends only on `(config.seed, id)`), so re-executing a
/// chunk after a lost worker overwrites the same records instead of
/// double-counting.
pub struct CampaignSession<'a> {
    target: &'a dyn Target,
    config: CampaignConfig,
    /// Resolved worker-thread count (`config.threads` with 0 = per-core).
    threads: usize,
    /// Wall-clock deadline check interval in instructions (see
    /// [`derive_run_slice`]).
    run_slice: u64,
    golden: GoldenRun,
    checkpoints: Option<CheckpointSet>,
    trial_decoded: Arc<DecodedProgram>,
    /// Native code checkpointed trials run on (see [`GoldenSession`]).
    aot: Option<AotProgram>,
    /// The regime's eligibility table every injector of this campaign
    /// shares.
    eligibility: Arc<Eligibility>,
    machine_config: MachineConfig,
    plans: Vec<TrialPlan>,
    counters: HarnessCounters,
    started: Instant,
}

impl<'a> CampaignSession<'a> {
    /// Prepares a campaign: golden run (with checkpoints when configured),
    /// trial program lowering, and plan pre-sampling. Deterministic for a
    /// given `(target, config)` pair.
    ///
    /// # Panics
    ///
    /// Panics if the golden run fails (see [`golden_run`]).
    #[must_use]
    pub fn new(target: &'a dyn Target, tags: &'a TagMap, config: &CampaignConfig) -> Self {
        Self::new_with_aot(target, tags, config, None)
    }

    /// [`CampaignSession::new`], with the golden run and checkpoint
    /// capture executed on tier-4 native regions when `aot` is supplied
    /// (it must have been generated from `target`'s program), and so are
    /// checkpointed trials: register trials run natively between planned
    /// flips — an injector lets native code retire the eligible writebacks
    /// before its next flip, and the interpreter runs the block holding it
    /// — and memory-cell trials run natively throughout. Checkpoints,
    /// eligible-writeback counts, the seeded trial lowering and every
    /// trial record are bit-identical to the interpreted session — the
    /// native tier matches the reference on every observable, including
    /// profile counts and the writebacks a hook sees — so sessions built
    /// either way are interchangeable (same
    /// [`CampaignSession::fingerprint`]). From-scratch trials
    /// (`checkpointing: false`) stay on the interpreter as the reference.
    ///
    /// # Panics
    ///
    /// Panics if the golden run fails (see [`golden_run`]) or if `aot` was
    /// not generated from `target`'s program (see [`GoldenSession::new`]).
    #[must_use]
    pub fn new_with_aot(
        target: &'a dyn Target,
        tags: &'a TagMap,
        config: &CampaignConfig,
        aot: Option<&AotProgram>,
    ) -> Self {
        let started = Instant::now();
        let mut session = GoldenSession::new(target, config, aot).campaign(tags, config);
        // A session built alone pays for its golden run.
        session.started = started;
        session
    }

    /// The fault-free reference run.
    #[must_use]
    pub fn golden(&self) -> &GoldenRun {
        &self.golden
    }

    /// A fresh injector for `plan` over this campaign's shared
    /// eligibility table.
    fn injector(&self, plan: &FaultPlan) -> Injector {
        Injector::shared(
            Arc::clone(&self.eligibility),
            plan.clone(),
            self.config.model,
        )
    }

    /// The campaign configuration this session was built from.
    #[must_use]
    pub fn config(&self) -> &CampaignConfig {
        &self.config
    }

    /// Whether this campaign's trials run on tier-4 native code: the
    /// session holds an [`AotProgram`] and restores trials from
    /// checkpoints (from-scratch trials stay on the interpreter).
    #[must_use]
    pub fn runs_natively(&self) -> bool {
        self.aot.is_some() && self.checkpoints.is_some()
    }

    /// Number of golden checkpoints this campaign's trials restore from (0
    /// without checkpointing).
    #[must_use]
    pub fn checkpoints(&self) -> usize {
        self.checkpoints
            .as_ref()
            .map_or(0, |c| c.golden.checkpoints.len())
    }

    /// Bytes materialized capturing the golden checkpoints (see
    /// [`CampaignResult::checkpoint_capture_bytes`]).
    #[must_use]
    pub fn checkpoint_capture_bytes(&self) -> u64 {
        self.checkpoints
            .as_ref()
            .map_or(0, |c| c.golden.capture_bytes)
    }

    /// Wall-clock time since session construction began (includes the
    /// golden run, like [`CampaignResult::elapsed`], unless the session
    /// was prepared on a shared [`GoldenSession`]).
    #[must_use]
    pub fn elapsed(&self) -> Duration {
        self.started.elapsed()
    }

    /// Snapshot of the cumulative harness containment counters across
    /// every trial this session has run so far. Monotone — callers
    /// attributing stats to one batch take before/after snapshots and
    /// [`HarnessStats::saturating_sub`] them.
    #[must_use]
    pub fn harness_stats(&self) -> HarnessStats {
        self.counters.snapshot()
    }

    /// Snapshot of the cumulative restore-path counters (all zero without
    /// checkpointing). Monotone, like [`CampaignSession::harness_stats`].
    #[must_use]
    pub fn restore_stats(&self) -> RestoreStats {
        self.checkpoints
            .as_ref()
            .map_or_else(RestoreStats::default, CheckpointSet::stats)
    }

    /// How many of the restores in [`CampaignSession::restore_stats`] were
    /// trials that rejoined the golden run between two flips and restored
    /// the checkpoint before their next flip (see the module docs). Monotone,
    /// like the restore counters.
    #[must_use]
    pub fn fast_forwards(&self) -> u64 {
        self.checkpoints
            .as_ref()
            .map_or(0, |c| c.fast_forwards.load(Ordering::Relaxed))
    }

    /// A deterministic digest of everything that shapes trial results:
    /// the result-affecting configuration fields and the golden run
    /// (output, instruction count, eligible population). Two processes
    /// that independently built sessions from the same `(target, config)`
    /// pair agree on every trial's record **iff** their fingerprints
    /// match — the distributed service refuses to hand out work across a
    /// mismatch.
    #[must_use]
    pub fn fingerprint(&self) -> u64 {
        let word = |hash: u64, value: u64| fnv1a_with(hash, &value.to_le_bytes());
        let mut hash = word(fnv1a(&[]), self.config.trials as u64);
        hash = word(hash, self.config.errors);
        hash = word(hash, self.config.seed);
        hash = word(hash, self.config.watchdog_factor);
        hash = fnv1a_with(hash, self.config.protection.label().as_bytes());
        hash = fnv1a_with(hash, self.config.target.label().as_bytes());
        let (model_tag, model_param) = match self.config.model {
            ErrorModel::SingleBitFlip => (0u64, 0u64),
            ErrorModel::AdjacentDoubleBitFlip => (1, 0),
            ErrorModel::BurstFlip { len } => (2, u64::from(len)),
            ErrorModel::StuckAtZero => (3, 0),
            ErrorModel::StuckAtOne => (4, 0),
        };
        hash = word(hash, model_tag);
        hash = word(hash, model_param);
        hash = word(hash, self.golden.instructions);
        hash = word(hash, self.golden.eligible_population);
        hash = word(hash, self.golden.output.len() as u64);
        fnv1a_with(hash, &self.golden.output)
    }

    /// The scheduling sort key of one trial: its restore checkpoint group
    /// and earliest injection point (empty plans sort last — they splice
    /// the golden run and restore nothing).
    fn sort_key(&self, trial: u32) -> (usize, u64) {
        let plan = &self.plans[trial as usize];
        match (&self.checkpoints, plan.earliest_injection()) {
            (Some(set), Some(earliest)) => (set.restore_before(plan, earliest), earliest),
            _ => (usize::MAX, u64::MAX),
        }
    }

    /// Cuts the full trial population into at most roughly `parts`
    /// equal-size chunks along the scheduling order, never splitting a
    /// chunk across a checkpoint-group boundary (a chunk that restores
    /// one checkpoint stays cheap for whichever worker leases it). Every
    /// trial id appears in exactly one chunk.
    #[must_use]
    pub fn chunk_plan(&self, parts: usize) -> Vec<TrialChunk> {
        let n = self.config.trials;
        let mut order: Vec<u32> = (0..n as u32).collect();
        order.sort_by_key(|&t| self.sort_key(t));
        let max_len = n.div_ceil(parts.max(1)).max(1);
        let mut chunks: Vec<TrialChunk> = Vec::new();
        let mut current: Vec<u32> = Vec::new();
        let mut current_group = usize::MAX;
        for trial in order {
            let group = self.sort_key(trial).0;
            if !current.is_empty() && (current.len() >= max_len || group != current_group) {
                chunks.push(TrialChunk {
                    id: chunks.len() as u32,
                    trials: std::mem::take(&mut current),
                });
            }
            current_group = group;
            current.push(trial);
        }
        if !current.is_empty() {
            chunks.push(TrialChunk {
                id: chunks.len() as u32,
                trials: current,
            });
        }
        chunks
    }

    /// Runs every trial of the campaign (equivalent to
    /// [`CampaignSession::run_subset`] over `0..trials`).
    #[must_use]
    pub fn run_all(&self) -> Vec<TrialRecord> {
        let ids: Vec<u32> = (0..self.config.trials as u32).collect();
        self.run_subset(&ids)
    }

    /// Runs the given trials across this session's worker threads,
    /// returning one record per id, aligned with `ids`. Each record is
    /// bit-identical to the same trial of a full in-process campaign —
    /// subsets only select *which* trials run, never what they compute —
    /// so re-running an id (e.g. a re-leased distributed chunk) always
    /// reproduces the same record.
    ///
    /// # Panics
    ///
    /// Panics if any id is out of range.
    #[must_use]
    pub fn run_subset(&self, ids: &[u32]) -> Vec<TrialRecord> {
        for &id in ids {
            assert!(
                (id as usize) < self.config.trials,
                "trial id {id} out of range (campaign has {} trials)",
                self.config.trials
            );
        }
        let n = ids.len();
        match &self.checkpoints {
            Some(checkpoint_set) => {
                // Sort by (restore checkpoint, injection point): trials of
                // one checkpoint group sit contiguously, ordered by how
                // early they diverge. Chunked handout (see
                // `schedule_trials`) then gives each worker a run of
                // same-checkpoint trials — consecutive trials restore
                // incrementally from the previous trial's start state —
                // and the hops that remain are mostly to the adjacent
                // checkpoint, which shares most pages with the machine's.
                let mut order: Vec<usize> = (0..n).collect();
                order.sort_by_key(|&pos| self.sort_key(ids[pos]));
                // Chunks sized so each worker lands several chunks in
                // every checkpoint group: within a group a worker's
                // consecutive chunks restore on the dirty-page fast path,
                // and the cursor hands the next chunk to whichever worker
                // is free, so uneven trial lengths balance out. (One giant
                // chunk per worker would minimize hops but leave the
                // workers with the longest trials finishing last.)
                let groups = checkpoint_set.eligible_seen.len().max(1);
                let chunk = (n / (groups * self.threads * 2).max(1)).clamp(1, 64);
                schedule_trials(
                    &order,
                    self.threads,
                    chunk,
                    || {
                        let machine = Machine::from_snapshot_with_decoded(
                            self.target.program(),
                            &self.trial_decoded,
                            checkpoint_set.golden.snapshot(0),
                            &self.machine_config,
                        )
                        .expect("checkpoint matches the campaign machine config");
                        machine
                    },
                    |worker: &mut Machine<'_>, pos| {
                        let trial = ids[pos] as usize;
                        contain(
                            trial,
                            &self.config,
                            &self.counters,
                            worker,
                            |w| {
                                w.restore_full(checkpoint_set.golden.snapshot(0))
                                    .expect("checkpoint matches the campaign machine config");
                            },
                            |w, deadline| {
                                run_trial_checkpointed(self, w, &self.plans[trial], deadline)
                            },
                        )
                    },
                )
            }
            None => {
                let order: Vec<usize> = (0..n).collect();
                schedule_trials(
                    &order,
                    self.threads,
                    1,
                    || (),
                    |worker, pos| {
                        let trial = ids[pos] as usize;
                        contain(
                            trial,
                            &self.config,
                            &self.counters,
                            worker,
                            |_| {
                                // Scratch trials build a fresh machine per
                                // attempt; the "rebuild" is that
                                // construction.
                            },
                            |_, deadline| {
                                run_trial_scratch(self, &self.plans[trial], deadline)
                            },
                        )
                    },
                )
            }
        }
    }

    /// Assembles the final [`CampaignResult`] from this session and a
    /// complete, trial-ordered record vector (normally
    /// [`CampaignSession::run_all`]'s output).
    ///
    /// # Panics
    ///
    /// Panics if the trial accounting does not reconcile (a harness bug —
    /// see [`CampaignResult::verify_reconciliation`]).
    #[must_use]
    pub fn finish(self, trials: Vec<TrialRecord>) -> CampaignResult {
        let restore_stats = self.restore_stats();
        let harness_stats = self.counters.snapshot();
        let checkpoint_capture_bytes = self.checkpoint_capture_bytes();
        let result = CampaignResult {
            golden: self.golden,
            trials,
            restore_stats,
            harness_stats,
            checkpoint_capture_bytes,
            elapsed: self.started.elapsed(),
        };
        if let Err(violation) = result.verify_reconciliation() {
            panic!("campaign trial accounting must reconcile: {violation}");
        }
        result
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use certa_asm::Asm;
    use certa_core::analyze;
    use certa_isa::reg::{S0, S1, S2, T0, T1, T2, T3, T5, T6};

    use crate::injector::EligibleCounter;

    /// A tiny workload: sums an input array of 64 bytes into a 32-bit output.
    struct SumTarget {
        program: Program,
        input_addr: u32,
        output_addr: u32,
    }

    impl SumTarget {
        fn new() -> Self {
            let mut a = Asm::new();
            let input_addr = a.data_zero(64);
            let output_addr = a.data_zero(4);
            a.func("sum", true);
            a.la(T0, input_addr);
            a.li(T1, 0);
            a.li(T2, 0);
            a.label("loop");
            a.add(T3, T0, T1);
            a.lbu(T3, 0, T3);
            a.add(T2, T2, T3);
            a.addi(T1, T1, 1);
            a.slti(T3, T1, 64);
            a.bnez(T3, "loop");
            a.la(T0, output_addr);
            a.sw(T2, 0, T0);
            a.ret();
            a.endfunc();
            a.func("main", false);
            a.call("sum");
            a.halt();
            a.endfunc();
            SumTarget {
                program: a.assemble().unwrap(),
                input_addr,
                output_addr,
            }
        }
    }

    impl Target for SumTarget {
        fn program(&self) -> &Program {
            &self.program
        }

        fn prepare(&self, machine: &mut Machine<'_>) {
            let input: Vec<u8> = (0..64u8).collect();
            machine.write_bytes(self.input_addr, &input).unwrap();
        }

        fn extract(&self, machine: &Machine<'_>) -> Option<Vec<u8>> {
            machine.read_bytes(self.output_addr, 4).ok()
        }
    }

    #[test]
    fn golden_run_captures_reference() {
        let t = SumTarget::new();
        let tags = analyze(&t.program);
        let g = golden_run(&t, &tags, Protection::ControlOnly, 1_000_000);
        let sum = u32::from_le_bytes(g.output.clone().try_into().unwrap());
        assert_eq!(sum, (0..64u32).sum::<u32>());
        assert!(g.eligible_population > 0);
        assert!(g.instructions > 64 * 6);
    }

    #[test]
    fn zero_errors_campaign_matches_golden() {
        let t = SumTarget::new();
        let tags = analyze(&t.program);
        let cfg = CampaignConfig {
            trials: 4,
            errors: 0,
            ..CampaignConfig::default()
        };
        let r = run_campaign(&t, &tags, &cfg);
        assert_eq!(r.failure_rate(), 0.0);
        assert_eq!(r.completed().count(), 4);
        for trial in r.completed() {
            assert_eq!(trial.output.as_deref(), Some(&r.golden.output[..]));
            assert_eq!(trial.injected, 0);
        }
    }

    #[test]
    fn protected_campaign_never_crashes_this_kernel() {
        // With control data protected, faults hit only the accumulator
        // chain: outputs may differ but control never derails.
        let t = SumTarget::new();
        let tags = analyze(&t.program);
        let cfg = CampaignConfig {
            trials: 50,
            errors: 2,
            protection: Protection::ControlOnly,
            threads: 2,
            ..CampaignConfig::default()
        };
        let r = run_campaign(&t, &tags, &cfg);
        assert_eq!(
            r.failure_rate(),
            0.0,
            "protected sum kernel must not fail catastrophically"
        );
        // ... and at least one trial should actually corrupt the sum.
        let corrupted = r
            .completed_outputs()
            .filter(|o| *o != &r.golden.output[..])
            .count();
        assert!(corrupted > 0, "faults should perturb some outputs");
    }

    #[test]
    fn unprotected_campaign_fails_sometimes() {
        let t = SumTarget::new();
        let tags = analyze(&t.program);
        let cfg = CampaignConfig {
            trials: 60,
            errors: 4,
            protection: Protection::None,
            threads: 2,
            ..CampaignConfig::default()
        };
        let r = run_campaign(&t, &tags, &cfg);
        assert!(
            r.failure_rate() > 0.0,
            "unprotected injection into addresses/branches should crash sometimes"
        );
    }

    #[test]
    fn full_protection_campaign_is_all_masked() {
        // The all-shielded sanity pole: no instruction is eligible, every
        // plan is empty, every trial splices as the golden run.
        let t = SumTarget::new();
        let tags = analyze(&t.program);
        let cfg = CampaignConfig {
            trials: 12,
            errors: 3,
            protection: Protection::Full,
            threads: 2,
            ..CampaignConfig::default()
        };
        let r = run_campaign(&t, &tags, &cfg);
        assert_eq!(r.golden.eligible_population, 0);
        assert_eq!(r.completed().count(), 12);
        for trial in r.completed() {
            assert_eq!(trial.output.as_deref(), Some(&r.golden.output[..]));
            assert_eq!(trial.injected, 0);
        }
    }

    #[test]
    fn campaign_is_deterministic_for_fixed_seed() {
        let t = SumTarget::new();
        let tags = analyze(&t.program);
        let cfg = CampaignConfig {
            trials: 10,
            errors: 1,
            threads: 2,
            ..CampaignConfig::default()
        };
        let a = run_campaign(&t, &tags, &cfg);
        let b = run_campaign(&t, &tags, &cfg);
        assert_eq!(a.trials, b.trials);
    }

    #[test]
    fn injected_count_matches_errors_when_run_completes() {
        let t = SumTarget::new();
        let tags = analyze(&t.program);
        let cfg = CampaignConfig {
            trials: 8,
            errors: 3,
            protection: Protection::ControlOnly,
            threads: 1,
            ..CampaignConfig::default()
        };
        let r = run_campaign(&t, &tags, &cfg);
        for trial in r.completed().filter(|t| !t.is_catastrophic()) {
            assert_eq!(trial.injected, 3);
        }
    }

    /// The determinism contract: checkpointed and from-scratch campaigns
    /// must agree on every per-trial observable, under every protection
    /// regime, with a stride small enough to exercise multi-checkpoint
    /// restore, reconvergence splicing, and the unbounded tail.
    #[test]
    fn checkpointed_trials_match_scratch_exactly() {
        let t = SumTarget::new();
        let tags = analyze(&t.program);
        for protection in Protection::all() {
            for threads in [1, 3] {
                let fast_cfg = CampaignConfig {
                    trials: 24,
                    errors: 2,
                    protection,
                    threads,
                    checkpoint_stride: 50,
                    ..CampaignConfig::default()
                };
                let slow_cfg = CampaignConfig {
                    checkpointing: false,
                    ..fast_cfg.clone()
                };
                let fast = run_campaign(&t, &tags, &fast_cfg);
                let slow = run_campaign(&t, &tags, &slow_cfg);
                assert_eq!(fast.golden.output, slow.golden.output);
                assert_eq!(fast.golden.instructions, slow.golden.instructions);
                assert_eq!(
                    fast.golden.eligible_population,
                    slow.golden.eligible_population
                );
                for (i, (a, b)) in fast.trials.iter().zip(&slow.trials).enumerate() {
                    assert_eq!(a, b, "trial {i} record ({protection:?})");
                }
            }
        }
    }

    /// A loop whose parity branch takes one of two equal-length paths, each
    /// rewriting a register with the value it already holds: the odd
    /// path's `li` feeds a branch after the loop (control), the even
    /// path's feeds only the sum (low reliability). A flip of the parity
    /// value switches paths, and the trial rejoins the golden state once
    /// the next iteration recomputes it, but under
    /// [`Protection::DataOnly`] the odd path retires one more eligible
    /// writeback than the even path. Every iteration stores the sum, so a
    /// memory flip of its slot is overwritten within one iteration.
    struct PathSwitchTarget {
        program: Program,
        output_addr: u32,
        /// Instruction indices of the odd and the even path's `li`.
        paths: (usize, usize),
    }

    impl PathSwitchTarget {
        fn new() -> Self {
            let mut a = Asm::new();
            let output_addr = a.data_zero(8);
            a.func("kernel", true);
            a.la(S2, output_addr);
            a.li(S0, 0);
            a.li(S1, 48);
            a.li(T5, 7);
            a.li(T6, 9);
            a.li(T2, 0);
            a.label("loop");
            a.andi(T0, S0, 1);
            a.beqz(T0, "even");
            let odd = a.len();
            a.li(T5, 7);
            a.j("join");
            a.label("even");
            let even = a.len();
            a.li(T6, 9);
            a.j("join");
            a.label("join");
            a.add(T2, T2, T6);
            a.sw(T2, 0, S2);
            a.addi(S0, S0, 1);
            a.slt(T1, S0, S1);
            a.bnez(T1, "loop");
            a.beqz(T5, "done");
            a.sw(S0, 4, S2);
            a.label("done");
            a.ret();
            a.endfunc();
            a.func("main", false);
            a.call("kernel");
            a.halt();
            a.endfunc();
            PathSwitchTarget {
                program: a.assemble().unwrap(),
                output_addr,
                paths: (odd, even),
            }
        }
    }

    impl Target for PathSwitchTarget {
        fn program(&self) -> &Program {
            &self.program
        }

        fn prepare(&self, _machine: &mut Machine<'_>) {}

        fn extract(&self, machine: &Machine<'_>) -> Option<Vec<u8>> {
            machine.read_bytes(self.output_addr, 8).ok()
        }
    }

    /// A trial whose flip switched paths rejoins the golden state but not
    /// its eligible count, so restoring ahead on `state_eq` alone would key
    /// its later flips on the wrong writebacks. Records must equal the
    /// from-scratch run, while trials that rejoin with the golden count
    /// still fast-forward.
    #[test]
    fn fast_forward_requires_the_golden_eligible_count() {
        let t = PathSwitchTarget::new();
        let tags = analyze(&t.program);
        let (odd, even) = t.paths;
        assert!(
            !tags.is_low_reliability(odd) && tags.is_low_reliability(even),
            "only the odd path's rewrite is eligible under DataOnly"
        );
        for errors in [2, 3] {
            let config = CampaignConfig {
                trials: 128,
                errors,
                protection: Protection::DataOnly,
                threads: 1,
                checkpoint_stride: 16,
                ..CampaignConfig::default()
            };
            let session = CampaignSession::new(&t, &tags, &config);
            let fast = session.run_all();
            assert!(
                session.fast_forwards() > 0,
                "masked flips must fast-forward at {errors} errors"
            );
            let slow = run_campaign(
                &t,
                &tags,
                &CampaignConfig {
                    checkpointing: false,
                    ..config
                },
            );
            for (i, (a, b)) in fast.iter().zip(&slow.trials).enumerate() {
                assert_eq!(a, b, "trial {i} record at {errors} errors");
            }
        }
    }

    /// Memory plans restore, and so probe, only at checkpoints strictly
    /// before the pending flip boundary: a flip planned exactly at a
    /// checkpoint's instruction count must land whether it is a trial's
    /// first flip or the one a fast-forward stops before (restoring that
    /// checkpoint would skip it).
    #[test]
    fn memory_flips_on_a_checkpoint_boundary_still_land() {
        let t = PathSwitchTarget::new();
        let tags = analyze(&t.program);
        let config = CampaignConfig {
            trials: 2,
            target: FaultTarget::MemoryCells,
            threads: 1,
            checkpoint_stride: 16,
            ..CampaignConfig::default()
        };
        let mut fast = CampaignSession::new(&t, &tags, &config);
        let mut slow = CampaignSession::new(
            &t,
            &tags,
            &CampaignConfig {
                checkpointing: false,
                ..config
            },
        );
        let at: Vec<u64> = fast.checkpoints.as_ref().unwrap().golden.checkpoints[..8]
            .iter()
            .map(|c| c.snapshot.instructions())
            .collect();
        // Offset 0 is the sum's slot: the first flip of trial 0 is
        // overwritten before checkpoint 3, which lies before the second
        // flip's restore checkpoint 5.
        let plans = vec![
            TrialPlan::Mem(MemoryFaultPlan::from_triples(&[
                (at[2] + 3, 0, 0),
                (at[6], 0, 1),
            ])),
            TrialPlan::Mem(MemoryFaultPlan::from_triples(&[(at[4], 0, 2)])),
        ];
        fast.plans.clone_from(&plans);
        slow.plans = plans;
        let records = fast.run_all();
        assert_eq!(
            fast.fast_forwards(),
            1,
            "trial 0 rejoins after its first flip"
        );
        assert_eq!(records, slow.run_all());
        for record in &records {
            assert_eq!(
                record.result().unwrap().output,
                Some(fast.golden.output.clone())
            );
        }
        assert_eq!(records[0].result().unwrap().injected, 2);
        assert_eq!(records[1].result().unwrap().injected, 1);
    }

    /// The determinism contract holds for memory-cell campaigns too: the
    /// instruction-count-keyed flip boundaries make checkpointed memory
    /// trials exactly as splice-able as register trials.
    #[test]
    fn memory_target_checkpointed_matches_scratch() {
        let t = SumTarget::new();
        let tags = analyze(&t.program);
        for threads in [1, 3] {
            let fast_cfg = CampaignConfig {
                trials: 24,
                errors: 2,
                target: FaultTarget::MemoryCells,
                threads,
                checkpoint_stride: 50,
                ..CampaignConfig::default()
            };
            let slow_cfg = CampaignConfig {
                checkpointing: false,
                ..fast_cfg.clone()
            };
            let fast = run_campaign(&t, &tags, &fast_cfg);
            let slow = run_campaign(&t, &tags, &slow_cfg);
            for (i, (a, b)) in fast.trials.iter().zip(&slow.trials).enumerate() {
                assert_eq!(a, b, "memory trial {i} record");
            }
            // Memory flips into live input data must perturb some sums.
            let corrupted = fast
                .completed_outputs()
                .filter(|o| *o != &fast.golden.output[..])
                .count();
            assert!(corrupted > 0, "memory faults should perturb some outputs");
        }
    }

    /// Checkpointing during the golden run must not perturb the golden
    /// observables (pauses are invisible to the simulated program).
    #[test]
    fn golden_run_is_unchanged_by_checkpointing() {
        let t = SumTarget::new();
        let tags = analyze(&t.program);
        let plain = golden_run(&t, &tags, Protection::ControlOnly, 1_000_000);
        let config = CampaignConfig {
            checkpoint_stride: 50,
            ..CampaignConfig::default()
        };
        let session = GoldenSession::new(&t, &config, None);
        assert_eq!(plain.output, session.output);
        assert_eq!(plain.instructions, session.instructions());
        assert_eq!(plain.exec_counts, session.exec_counts());
        let cps = &session.checkpoints.as_ref().unwrap().checkpoints;
        assert!(cps.len() > 2, "stride 50 must yield several checkpoints");
        assert!(cps.len() <= MAX_CHECKPOINTS);
        assert_eq!(cps[0].snapshot.instructions(), 0);
        assert!(cps
            .windows(2)
            .all(|w| w[0].snapshot.instructions() < w[1].snapshot.instructions()));
        let campaign = session.campaign(&tags, &config);
        assert_eq!(
            plain.eligible_population,
            campaign.golden.eligible_population
        );
        let seen = &campaign.checkpoints.as_ref().unwrap().eligible_seen;
        assert!(seen.windows(2).all(|w| w[0] <= w[1]));
    }

    /// The eligible-writeback oracle: under every regime, a hook counting
    /// eligible writebacks while the interpreter runs to each checkpoint
    /// sees exactly the profile-derived `eligible_seen`, and over the
    /// whole run exactly the eligible population.
    #[test]
    fn profile_derived_eligible_counts_match_the_hook_count() {
        let t = SumTarget::new();
        let tags = analyze(&t.program);
        let config = CampaignConfig {
            checkpoint_stride: 50,
            ..CampaignConfig::default()
        };
        let golden = GoldenSession::new(&t, &config, None);
        let machine_config = MachineConfig {
            mem_size: t.mem_size(),
            max_instructions: 1_000_000,
            profile: false,
        };
        for protection in Protection::all() {
            let campaign = golden.campaign(
                &tags,
                &CampaignConfig {
                    protection,
                    ..config.clone()
                },
            );
            let set = campaign.checkpoints.as_ref().unwrap();
            assert!(set.eligible_seen.len() > 2);
            let mut machine = Machine::new(&t.program, &machine_config);
            t.prepare(&mut machine);
            let mut counter = EligibleCounter::new(&t.program, &tags, protection);
            for (i, &seen) in set.eligible_seen.iter().enumerate().skip(1) {
                let at = set.golden.snapshot(i).instructions();
                assert!(matches!(
                    machine.run_until(&mut counter, at),
                    BoundedRun::Paused
                ));
                assert_eq!(counter.count, seen, "{protection:?}: checkpoint {i}");
            }
            assert_eq!(machine.run(&mut counter).outcome, Outcome::Halted);
            assert_eq!(
                counter.count, campaign.golden.eligible_population,
                "{protection:?}: eligible population"
            );
        }
    }

    /// Tiny budgets degrade gracefully to a single instruction-zero
    /// checkpoint (equivalent to re-running with reused buffers).
    #[test]
    fn single_checkpoint_budget_still_matches_scratch() {
        let t = SumTarget::new();
        let tags = analyze(&t.program);
        let fast_cfg = CampaignConfig {
            trials: 10,
            errors: 3,
            protection: Protection::None,
            threads: 2,
            checkpoint_budget_bytes: 1, // clamps to one snapshot
            ..CampaignConfig::default()
        };
        let slow_cfg = CampaignConfig {
            checkpointing: false,
            ..fast_cfg.clone()
        };
        let fast = run_campaign(&t, &tags, &fast_cfg);
        let slow = run_campaign(&t, &tags, &slow_cfg);
        assert_eq!(fast.trials, slow.trials);
    }

    /// The golden checkpoints of `t` at `stride`, viewed as one
    /// `ControlOnly` campaign's checkpoint set.
    fn checkpoint_set(t: &SumTarget, decoded: &Arc<DecodedProgram>, stride: u64) -> CheckpointSet {
        let trace = trace_golden(t, decoded, 1_000_000, 256 << 20, stride, None);
        let golden = GoldenCheckpoints {
            checkpoints: trace.checkpoints,
            capture_bytes: trace.capture_bytes,
            budget_bytes: 256 << 20,
            stride,
        };
        let eligibility = Eligibility::new(
            &t.program,
            &analyze(&t.program),
            Protection::ControlOnly,
            None,
        );
        CheckpointSet::new(Arc::new(golden), &eligibility)
    }

    /// Checkpoint-hopping restores (forward and backward, adjacent and
    /// multi-step) must land on bit-identical state, and the restore-path
    /// counters must partition the restores by the machine's base.
    #[test]
    fn checkpoint_set_hops_are_bit_identical() {
        let t = SumTarget::new();
        let decoded = Arc::new(DecodedProgram::new(&t.program));
        let set = checkpoint_set(&t, &decoded, 40);
        assert!(
            set.eligible_seen.len() >= 4,
            "need several checkpoints to hop"
        );

        let config = MachineConfig {
            mem_size: t.mem_size(),
            max_instructions: 1_000_000,
            profile: false,
        };
        let mut machine = Machine::from_snapshot_with_decoded(
            &t.program,
            &decoded,
            set.golden.snapshot(0),
            &config,
        )
        .unwrap();
        // Forward hops (adjacent and multi-step), with dirty state in
        // between; then backward hops, and a same-checkpoint restore.
        for &index in &[1usize, 3, 2, 0, 3, 3] {
            machine.run_until_simple(machine.instructions() + 17);
            set.restore(&mut machine, index);
            assert!(
                machine.state_eq(set.golden.snapshot(index)),
                "hop to checkpoint {index} must be exact"
            );
        }
        let stats = set.stats();
        assert_eq!(stats.diff_hop, 5, "every change of checkpoint is a hop");
        assert_eq!(stats.dirty_page, 1, "the repeated checkpoint is not");
        assert_eq!(stats.full_image, 0);
        assert_eq!(stats.diff_union_cache_hits, 0);
        assert_eq!(stats.total(), 6);
    }

    /// A machine whose base snapshot is foreign to the checkpoint set must
    /// count as a full-image restore, completing the dirty/diff/full
    /// partition of [`RestoreStats`]; a follow-up restore of the same
    /// checkpoint is back on the dirty-page path.
    #[test]
    fn foreign_base_takes_the_full_image_path() {
        let t = SumTarget::new();
        let decoded = Arc::new(DecodedProgram::new(&t.program));
        let set = checkpoint_set(&t, &decoded, 40);
        let config = MachineConfig {
            mem_size: t.mem_size(),
            max_instructions: 1_000_000,
            profile: false,
        };
        // A snapshot that is not part of the checkpoint set.
        let mut foreign = Machine::try_new_with_decoded(&t.program, &decoded, &config).unwrap();
        t.prepare(&mut foreign);
        foreign.run_until_simple(13);
        let foreign_snap = foreign.snapshot();

        let mut machine =
            Machine::from_snapshot_with_decoded(&t.program, &decoded, &foreign_snap, &config)
                .unwrap();
        set.restore(&mut machine, 2);
        assert!(machine.state_eq(set.golden.snapshot(2)));
        set.restore(&mut machine, 2);
        let stats = set.stats();
        assert_eq!(stats.full_image, 1, "a base outside the set counts as full-image");
        assert_eq!(stats.dirty_page, 1, "second restore is same-base");
        assert_eq!(stats.diff_hop, 0);
        assert_eq!(stats.diff_union_cache_hits, 0);
        assert_eq!(stats.total(), 2);
    }

    /// The campaign reports wall-clock throughput and the bytes its
    /// checkpoint captures actually materialized (zero without
    /// checkpointing — there are no checkpoints to pay for).
    #[test]
    fn campaign_reports_throughput_and_capture_bytes() {
        let t = SumTarget::new();
        let tags = analyze(&t.program);
        let cfg = CampaignConfig {
            trials: 8,
            errors: 1,
            checkpoint_stride: 50,
            ..CampaignConfig::default()
        };
        let r = run_campaign(&t, &tags, &cfg);
        assert!(r.elapsed > std::time::Duration::ZERO);
        assert!(r.trials_per_second() > 0.0);
        assert!(
            r.checkpoint_capture_bytes > 0,
            "checkpoint captures must account for the pages they materialize"
        );
        let scratch = run_campaign(
            &t,
            &tags,
            &CampaignConfig {
                checkpointing: false,
                ..cfg
            },
        );
        assert_eq!(scratch.checkpoint_capture_bytes, 0);
        assert!(scratch.trials_per_second() > 0.0);
    }

    /// The campaign surfaces the restore breakdown, and it accounts for
    /// every checkpointed trial restore: one per trial with a non-empty
    /// plan (an empty plan is the golden run and restores nothing), plus
    /// one per fast-forward; scratch campaigns report zeros.
    #[test]
    fn campaign_reports_restore_stats() {
        let sum = SumTarget::new();
        let switch = PathSwitchTarget::new();
        let cfg = CampaignConfig {
            trials: 16,
            errors: 2,
            threads: 2,
            checkpoint_stride: 50,
            ..CampaignConfig::default()
        };
        let mut all_fast_forwards = 0;
        for (t, protection) in [
            (&sum as &dyn Target, Protection::ControlOnly),
            (&switch, Protection::DataOnly),
        ] {
            let tags = analyze(t.program());
            for errors in [cfg.errors, 0] {
                let config = CampaignConfig {
                    errors,
                    protection,
                    ..cfg.clone()
                };
                let session = CampaignSession::new(t, &tags, &config);
                let planned = session
                    .plans
                    .iter()
                    .filter(|p| p.earliest_injection().is_some())
                    .count() as u64;
                let trials = session.run_all();
                let fast_forwards = session.fast_forwards();
                all_fast_forwards += fast_forwards;
                let r = session.finish(trials);
                assert_eq!(
                    r.restore_stats.total(),
                    planned + fast_forwards,
                    "one restore per trial with a non-empty plan, plus one per fast-forward, \
                     at {errors} errors ({protection:?}): {:?}",
                    r.restore_stats
                );
                assert_eq!(r.restore_stats.diff_union_cache_hits, 0);
            }
        }
        assert!(
            all_fast_forwards > 0,
            "the accounting must cover fast-forwards"
        );
        let scratch = run_campaign(
            &sum,
            &analyze(&sum.program),
            &CampaignConfig {
                checkpointing: false,
                ..cfg
            },
        );
        assert_eq!(scratch.restore_stats, RestoreStats::default());
    }

    #[test]
    fn outcome_counts_partition_trials() {
        let t = SumTarget::new();
        let tags = analyze(&t.program);
        let cfg = CampaignConfig {
            trials: 30,
            errors: 5,
            protection: Protection::None,
            threads: 2,
            ..CampaignConfig::default()
        };
        let r = run_campaign(&t, &tags, &cfg);
        let counts = r.outcome_counts();
        assert_eq!(counts.total(), 30);
        assert_eq!(counts.harness_error, 0, "healthy campaigns never retry out");
        assert_eq!(r.harness_stats, HarnessStats::default());
    }

    /// Sabotaged trials (one panicking attempt, one hung attempt) are
    /// contained, retried, and completed; a trial sabotaged on every
    /// attempt is retried out as a harness error; and the books balance.
    #[test]
    fn harness_faults_are_contained_and_reconciled() {
        let t = SumTarget::new();
        let tags = analyze(&t.program);
        let cfg = CampaignConfig {
            trials: 10,
            errors: 2,
            threads: 1,
            trial_timeout: Duration::from_millis(100),
            harness_faults: HarnessFaultInjection {
                panic_trials: vec![(1, 1), (7, MAX_ATTEMPTS)],
                hang_trials: vec![(4, 1)],
            },
            ..CampaignConfig::default()
        };
        let r = run_campaign(&t, &tags, &cfg);
        assert_eq!(r.trials.len(), 10);
        assert_eq!(r.trials[1].retries, 1, "panicked attempt is retried");
        assert!(r.trials[1].result().is_some());
        assert_eq!(r.trials[4].retries, 1, "hung attempt is retried");
        assert!(r.trials[4].result().is_some());
        assert_eq!(
            r.trials[7].status,
            TrialStatus::HarnessError(HarnessFailure::Panic),
            "a trial failing every attempt is retried out, never dropped"
        );
        let stats = r.harness_stats;
        assert_eq!(stats.panics, 1 + u64::from(MAX_ATTEMPTS));
        assert_eq!(stats.timeouts, 1);
        assert_eq!(stats.harness_errors, 1);
        assert_eq!(r.outcome_counts().harness_error, 1);
        r.verify_reconciliation().unwrap();

        // The unaffected trials match an unsabotaged campaign exactly.
        let clean = run_campaign(
            &t,
            &tags,
            &CampaignConfig {
                harness_faults: HarnessFaultInjection::default(),
                ..cfg.clone()
            },
        );
        for (i, (a, b)) in r.trials.iter().zip(&clean.trials).enumerate() {
            if i == 7 {
                continue; // retried out under sabotage
            }
            assert_eq!(
                a.result(),
                b.result(),
                "trial {i} result must be unaffected by sabotage elsewhere"
            );
        }
    }

    /// Pins the zero-elapsed guard in [`CampaignResult::trials_per_second`]:
    /// a degenerate duration must read as a rate of 0.0, never `inf`/`NaN`
    /// (a coarse monotonic clock can legitimately report zero elapsed for
    /// a tiny campaign, and downstream JSON emitters cannot represent the
    /// IEEE specials). This is the only rate in the fault crate computed
    /// from wall-clock time; the bench-side ratios all divide by timings
    /// of full campaigns or multi-million-instruction runs, where a zero
    /// denominator means a broken clock rather than a reachable state.
    #[test]
    fn trials_per_second_is_pinned_to_zero_on_zero_elapsed() {
        let record = TrialRecord {
            status: TrialStatus::HarnessError(HarnessFailure::Timeout),
            retries: 1,
        };
        let result = CampaignResult {
            golden: GoldenRun {
                output: Vec::new(),
                instructions: 0,
                eligible_population: 0,
                exec_counts: Vec::new(),
            },
            trials: vec![record; 3],
            restore_stats: RestoreStats::default(),
            harness_stats: HarnessStats::default(),
            checkpoint_capture_bytes: 0,
            elapsed: Duration::ZERO,
        };
        assert_eq!(result.trials_per_second(), 0.0, "zero elapsed, nonempty trials");
        let nonzero = CampaignResult {
            elapsed: Duration::from_millis(500),
            ..result
        };
        assert_eq!(nonzero.trials_per_second(), 6.0);
    }
}
