//! # certa-fault
//!
//! The fault-injection engine reproducing the paper's methodology (§4):
//!
//! > *"We flip a bit in the result of an instruction that was tagged as not
//! > influencing a control decision. \[...\] Single bit-flip errors were
//! > randomly inserted with a uniform distribution. Once an error was
//! > introduced in any instruction, it would propagate to all dependent
//! > instructions."*
//!
//! A **campaign** first performs a fault-free *golden run* (capturing the
//! reference output, the dynamic instruction count, and the eligible
//! injection population), then executes Monte-Carlo trials: each trial
//! uniformly samples `errors` distinct dynamic executions of *eligible*
//! instructions and XORs one uniformly-chosen bit into each sampled result.
//!
//! Eligibility depends on the [`Protection`] *regime* — the
//! control-vs-data axis of the experiment:
//!
//! * [`Protection::None`] — every value-producing instruction is fair game
//!   (the unprotected baseline of Table 2).
//! * [`Protection::ControlOnly`] — only instructions tagged
//!   [`certa_core::Tag::LowReliability`] by the static analysis receive
//!   faults (everything else is assumed protected by redundancy — the
//!   paper's proposed scheme).
//! * [`Protection::DataOnly`] — the complement: faults land only on the
//!   instructions the analysis would have shielded.
//! * [`Protection::Full`] — nothing is eligible; the all-masked sanity
//!   pole of the regime matrix.
//!
//! Orthogonally, [`FaultTarget`] selects *where* faults land: register
//! writebacks (the paper's model) or resident memory cells of the guest
//! data segment ([`MemoryFaultPlan`] — bits flipped in stored state at
//! sampled instruction boundaries, through the simulator's copy-on-write
//! page store).
//!
//! Trials run in parallel with deterministic per-trial seeds, and each run
//! is bounded by a watchdog of `watchdog_factor ×` the golden instruction
//! count; runs that exceed it are the paper's "infinite execution"
//! failures. Above the watchdog sits a *harness* containment layer: every
//! trial attempt runs under panic isolation with a wall-clock deadline,
//! failed attempts are retried once from rebuilt machine state, and a
//! trial that fails twice is reported as a [`TrialStatus::HarnessError`]
//! — never silently dropped (the campaign asserts the accounting
//! reconciles; see [`CampaignResult::verify_reconciliation`]).
//! Per-regime verdict distributions aggregate into [`ToleranceProfile`]
//! rows (verdict counts plus Wilson 95% intervals) — the regime-matrix
//! table the `campaign_matrix` binary emits.
//!
//! ## Checkpoint acceleration
//!
//! By default ([`CampaignConfig::checkpointing`]) campaigns do not
//! re-execute each trial from instruction zero. The golden run records up
//! to 32 simulator snapshots together with their execution profiles (any
//! regime's eligible-writeback count follows from a profile); each trial
//! then restores the latest checkpoint at or before its
//! earliest planned flip, executes only from there, and — once all of its
//! flips have been applied — is spliced back onto the golden result as
//! soon as its architectural state reconverges with a golden checkpoint.
//! Worker threads own one reusable [`certa_sim::Machine`] each, so a
//! restore never allocates — and thanks to the simulator's dirty-page
//! tracking, re-restoring the checkpoint a worker is already based on
//! copies only the pages the previous trial touched. Trials are scheduled
//! sorted by injection point so neighbors share warm checkpoints, and the
//! trial program is lowered once to the simulator's predecoded micro-op
//! form ([`certa_sim::DecodedProgram`]), shared by every trial machine.
//! The golden run, its checkpoints and that lowering depend on the target
//! alone: a [`GoldenSession`] builds them once per workload and any number
//! of campaigns run on it ([`GoldenSession::campaign`]). A session given
//! the target's tier-4 native code runs the golden run and every
//! checkpointed trial on it, returning to the interpreter only for the
//! blocks that hold a planned register flip.
//!
//! The acceleration is **exact**: outcome, output, instruction count, and
//! injected count of every trial are bit-identical to from-scratch
//! execution (see the determinism contract in the `campaign` module docs,
//! the `checkpointed_trials_match_scratch_exactly` test, and the
//! workspace-level property suite). A campaign-throughput criterion
//! bench (`crates/bench/benches/campaign.rs`) measures the speedup — about
//! 7× for a 12M-instruction golden run at 24 trials.
//!
//! ## Distributed seam
//!
//! [`CampaignSession`] holds a prepared campaign open — golden run,
//! checkpoint set, predecoded trial program, pre-sampled plans — so trial
//! subsets can run on demand ([`CampaignSession::run_subset`]),
//! bit-identical to the in-process scheduler. The `certa-dist` crate
//! splits a campaign along this seam into a lease-granting coordinator
//! and worker processes; the [`wire`] module provides the byte-exact
//! (de)serialization of [`TrialRecord`]s and friends that crosses that
//! boundary.

mod campaign;
mod injector;
mod regime;
mod stats;
pub mod wire;

pub use campaign::{
    golden_run, run_campaign, run_campaign_with_aot, CampaignConfig, CampaignResult,
    CampaignSession, GoldenRun, GoldenSession, HarnessFailure, HarnessFaultInjection, HarnessStats,
    OutcomeCounts, RestoreStats, Target, TrialChunk, TrialRecord, TrialResult, TrialStatus,
};
pub use injector::{ErrorModel, FaultPlan, Injector};
pub use regime::{FaultTarget, MemoryFaultPlan, Protection, ToleranceProfile};
pub use stats::{mean, proportion_ci95, stddev};
