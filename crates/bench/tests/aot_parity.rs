//! Tier-4 differential suite: the AOT native tier must be observationally
//! identical to the reference tree-walker, the fused dispatch, and the
//! superblock dispatch — outcome, dynamic instruction counts,
//! value-producing counts, per-instruction `exec_counts`, register files,
//! memory, and extracted outputs — for every paper workload, for the
//! seeded random programs precompiled by `build.rs`, and across
//! pause/resume and snapshot/restore landing at *every* instruction
//! boundary of a nested-loop lap (satellite: mid-superblock and
//! mid-AOT-region capture). Fault injectors that run native code between
//! their planned flips must see exactly the writebacks, and leave exactly
//! the state, of the interpreter — machine by machine and campaign by
//! campaign.
#![cfg(feature = "aot")]

use std::sync::Arc;
use std::time::Duration;

use certa_aot::progs::{nested_loop_program, AOT_RANDOM_SEEDS, RANDOM_BUF_LEN};
use certa_bench::{aot_workloads, AsTarget};
use certa_core::{analyze, TagMap};
use certa_dist::{run_worker, Coordinator, DistConfig, DistProgress, WorkerOptions};
use certa_fault::{
    CampaignConfig, CampaignSession, FaultPlan, FaultTarget, GoldenSession, Injector, Protection,
    Target,
};
use certa_isa::{Instr, Program, Reg};
use certa_sim::{
    AotProgram, BoundedRun, DecodedProgram, Machine, MachineConfig, NoHook, Outcome, RunResult,
    SuperblockPolicy, WritebackHook, DATA_BASE,
};
use certa_workloads::{all_workloads, Workload};

/// Watchdog for the random programs (they always halt far below this;
/// tampered or truncated runs are caught instead of spinning).
const WATCHDOG: u64 = 1 << 20;

/// The four execution tiers under differential comparison.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Tier {
    Reference,
    Fused,
    Superblock,
    Aot,
}

const ALL_TIERS: [Tier; 4] = [Tier::Reference, Tier::Fused, Tier::Superblock, Tier::Aot];

fn config(mem_size: u32) -> MachineConfig {
    MachineConfig {
        mem_size,
        max_instructions: WATCHDOG,
        profile: true,
    }
}

/// Everything the campaign (and the fault injector) can observe of a run.
#[derive(Debug, PartialEq)]
struct Fingerprint {
    result: RunResult,
    regs: Vec<u32>,
    fregs: Vec<u64>,
    exec_counts: Vec<u64>,
    mem: Vec<u8>,
}

fn fingerprint(m: &Machine<'_>, result: RunResult, mem_probe: u32) -> Fingerprint {
    Fingerprint {
        result,
        regs: (0..32).map(|i| m.reg(Reg::new(i))).collect(),
        fregs: (0..32)
            .map(|i| m.freg(certa_isa::FReg::new(i)).to_bits())
            .collect(),
        exec_counts: m.exec_counts().to_vec(),
        mem: m.read_bytes(DATA_BASE, mem_probe).unwrap_or_default(),
    }
}

fn run_tier(
    p: &Program,
    aot: &AotProgram,
    tier: Tier,
    cfg: &MachineConfig,
    mem_probe: u32,
) -> (Fingerprint, u64) {
    let decoded = match tier {
        Tier::Fused => Arc::new(DecodedProgram::with_policy(p, &SuperblockPolicy::disabled())),
        _ => Arc::new(DecodedProgram::new(p)),
    };
    let mut m = Machine::try_new_with_decoded(p, &decoded, cfg).expect("valid config");
    let result = match tier {
        Tier::Reference => m.run_reference(&mut NoHook),
        Tier::Fused | Tier::Superblock => m.run_simple(),
        Tier::Aot => m.run_aot(&mut NoHook, aot),
    };
    let native = m.aot_instructions();
    (fingerprint(&m, result, mem_probe), native)
}

/// All seven paper workloads: the AOT golden run must match every
/// interpreter tier on every observable, including extracted output.
#[test]
fn workload_golden_runs_agree_across_all_four_tiers() {
    for w in all_workloads() {
        let aot = aot_workloads::lookup(w.name()).expect("workload is precompiled");
        let cfg = MachineConfig {
            mem_size: w.mem_size(),
            profile: true,
            ..MachineConfig::default()
        };
        let mut reference = None;
        for tier in ALL_TIERS {
            let decoded = match tier {
                Tier::Fused => Arc::new(DecodedProgram::with_policy(
                    w.program(),
                    &SuperblockPolicy::disabled(),
                )),
                _ => Arc::new(DecodedProgram::new(w.program())),
            };
            let mut m =
                Machine::try_new_with_decoded(w.program(), &decoded, &cfg).expect("valid config");
            w.prepare(&mut m);
            let result = match tier {
                Tier::Reference => m.run_reference(&mut NoHook),
                Tier::Fused | Tier::Superblock => m.run_simple(),
                Tier::Aot => m.run_aot(&mut NoHook, aot),
            };
            assert_eq!(result.outcome, Outcome::Halted, "{} {tier:?}", w.name());
            let fp = (result.clone(), m.exec_counts().to_vec(), w.extract(&m));
            if tier == Tier::Aot {
                // The native tier must actually carry the bulk of the run.
                let native = m.aot_instructions();
                assert!(
                    native * 2 > fp.0.instructions,
                    "{}: only {native} of {} instructions ran natively",
                    w.name(),
                    result.instructions
                );
            }
            match &reference {
                None => reference = Some(fp),
                Some(r) => assert_eq!(r, &fp, "{} {tier:?} diverged", w.name()),
            }
        }
    }
}

/// The precompiled random programs (same seeds as `build.rs`): all four
/// tiers agree on every observable — including crash pcs/icounts for the
/// seeds whose wild accesses fault — and under a halved watchdog the
/// native tier reports the identical `InfiniteRun` boundary.
#[test]
fn random_programs_agree_across_all_four_tiers() {
    let mut halted = 0u32;
    let mut crashed = 0u32;
    let mut native_total = 0u64;
    for seed in AOT_RANDOM_SEEDS {
        let p = certa_aot::progs::random_program(seed);
        let aot = aot_workloads::lookup(&format!("random_{seed}")).expect("seed is precompiled");
        let cfg = config(1 << 20);
        let (expected, _) = run_tier(&p, aot, Tier::Reference, &cfg, RANDOM_BUF_LEN);
        for tier in [Tier::Fused, Tier::Superblock, Tier::Aot] {
            let (got, native) = run_tier(&p, aot, tier, &cfg, RANDOM_BUF_LEN);
            assert_eq!(expected, got, "seed {seed} {tier:?} diverged");
            if tier == Tier::Aot {
                native_total += native;
            }
        }
        match expected.result.outcome {
            Outcome::Halted => halted += 1,
            Outcome::Crashed(_) => crashed += 1,
            Outcome::InfiniteRun => {}
        }
        // A tight watchdog must cut the native run at the identical point.
        let short = MachineConfig {
            max_instructions: (expected.result.instructions / 2).max(1),
            ..cfg
        };
        let (expected_short, _) = run_tier(&p, aot, Tier::Reference, &short, RANDOM_BUF_LEN);
        let (got_short, _) = run_tier(&p, aot, Tier::Aot, &short, RANDOM_BUF_LEN);
        assert_eq!(expected_short, got_short, "seed {seed} watchdog diverged");
    }
    assert!(halted >= 5, "random corpus lost its halting majority");
    assert!(crashed >= 1, "random corpus no longer covers crash parity");
    assert!(native_total > 1_000, "native tier barely executed");
}

/// A hook that observes writebacks (here: counting them) but opens no
/// native window keeps [`Machine::run_aot`] off the native path entirely
/// — the run equals the interpreter tiers bit-for-bit and retires zero
/// native instructions.
#[test]
fn hooked_runs_fall_back_to_the_interpreter() {
    #[derive(Default)]
    struct Counter {
        ints: u64,
        floats: u64,
    }
    impl WritebackHook for Counter {
        fn int_writeback(&mut self, _i: usize, v: u32) -> u32 {
            self.ints += 1;
            v
        }
        fn float_writeback(&mut self, _i: usize, v: f64) -> f64 {
            self.floats += 1;
            v
        }
    }

    let p = nested_loop_program();
    let aot = aot_workloads::lookup("nested-loop").expect("precompiled");
    let cfg = config(1 << 20);

    let decoded = Arc::new(DecodedProgram::new(&p));
    let mut mi = Machine::try_new_with_decoded(&p, &decoded, &cfg).expect("valid config");
    let mut hi = Counter::default();
    let ri = mi.run(&mut hi);

    let mut ma = Machine::try_new_with_decoded(&p, &decoded, &cfg).expect("valid config");
    let mut ha = Counter::default();
    let ra = ma.run_aot(&mut ha, aot);

    assert_eq!(ri, ra);
    assert_eq!((hi.ints, hi.floats), (ha.ints, ha.floats));
    assert_eq!(ha.ints, ra.value_producing, "hook saw every writeback");
    assert_eq!(ma.aot_instructions(), 0, "hooked run must not go native");
    assert_eq!(
        fingerprint(&mi, ri, 64),
        fingerprint(&ma, ra, 64),
        "hooked fallback diverged"
    );
}

/// Satellite: mid-superblock / mid-AOT-region capture. Pause the native
/// run at *every* instruction boundary of the nested-loop kernel (pauses
/// land inside unrolled laps and inside compiled regions), snapshot at
/// the boundary, and prove that (a) the pause is exact, (b) resuming
/// natively finishes bit-identically, and (c) a fresh machine restored
/// from the snapshot finishes bit-identically on every other tier.
#[test]
fn every_pause_point_snapshots_and_resumes_bit_identically_across_tiers() {
    let p = nested_loop_program();
    let aot = aot_workloads::lookup("nested-loop").expect("precompiled");
    let cfg = config(1 << 20);
    let decoded = Arc::new(DecodedProgram::new(&p));
    let fused = Arc::new(DecodedProgram::with_policy(&p, &SuperblockPolicy::disabled()));

    let mut straight = Machine::try_new_with_decoded(&p, &decoded, &cfg).expect("valid config");
    let expected_result = straight.run_reference(&mut NoHook);
    assert_eq!(expected_result.outcome, Outcome::Halted);
    let expected = fingerprint(&straight, expected_result, 64);

    for pause in 1..expected.result.instructions {
        // (a) native run pauses exactly at the boundary...
        let mut m = Machine::try_new_with_decoded(&p, &decoded, &cfg).expect("valid config");
        match m.run_until_aot(&mut NoHook, aot, pause) {
            BoundedRun::Paused => assert_eq!(m.instructions(), pause, "pause point {pause}"),
            BoundedRun::Finished(r) => panic!("finished early at {pause}: {r:?}"),
        }
        let snap = m.snapshot();

        // (b) ...and resuming natively completes bit-identically.
        let r = m.run_aot(&mut NoHook, aot);
        assert_eq!(fingerprint(&m, r, 64), expected, "native resume at {pause}");

        // (c) a machine restored from the mid-region snapshot agrees on
        // every tier (resume pcs here are mid-block for most boundaries).
        // Snapshots deliberately exclude `exec_counts`, so restored runs
        // are compared against a restored *reference* baseline — which
        // must itself match the straight run on everything but the
        // profile of the pre-pause prefix.
        let mut baseline = None;
        for tier in ALL_TIERS {
            let dec = if tier == Tier::Fused { &fused } else { &decoded };
            let mut n = Machine::from_snapshot_with_decoded(&p, dec, &snap, &cfg)
                .expect("snapshot restores");
            let rn = match tier {
                Tier::Reference => n.run_reference(&mut NoHook),
                Tier::Fused | Tier::Superblock => n.run_simple(),
                Tier::Aot => n.run_aot(&mut NoHook, aot),
            };
            let fp = fingerprint(&n, rn, 64);
            match &baseline {
                None => {
                    assert_eq!(fp.result, expected.result, "restored result at {pause}");
                    assert_eq!(fp.regs, expected.regs, "restored registers at {pause}");
                    assert_eq!(fp.mem, expected.mem, "restored memory at {pause}");
                    baseline = Some(fp);
                }
                Some(b) => assert_eq!(&fp, b, "restored {tier:?} at {pause}"),
            }
        }
    }
}

/// Chopping a native run into uneven bounded slices is invisible: the
/// final fingerprint equals the straight reference run for every
/// precompiled random program.
#[test]
fn sliced_native_runs_match_straight_reference_runs() {
    for seed in AOT_RANDOM_SEEDS {
        let p = certa_aot::progs::random_program(seed);
        let aot = aot_workloads::lookup(&format!("random_{seed}")).expect("precompiled");
        let cfg = config(1 << 20);
        let (expected, _) = run_tier(&p, aot, Tier::Reference, &cfg, RANDOM_BUF_LEN);

        let decoded = Arc::new(DecodedProgram::new(&p));
        let mut m = Machine::try_new_with_decoded(&p, &decoded, &cfg).expect("valid config");
        // Uneven, prime-ish slices land pauses mid-region and mid-pair.
        let slice = (expected.result.instructions / 7).max(1) | 1;
        let mut target = 0u64;
        let result = loop {
            target += slice;
            match m.run_until_aot(&mut NoHook, aot, target) {
                BoundedRun::Finished(r) => break r,
                BoundedRun::Paused => {
                    assert_eq!(m.instructions(), target, "seed {seed} pause point");
                }
            }
        };
        assert_eq!(
            fingerprint(&m, result, RANDOM_BUF_LEN),
            expected,
            "seed {seed} sliced native run diverged"
        );
    }
}

/// The paper-scale ring-threshold kernel (the `campaign_paper` golden
/// run) is precompiled and bit-identical to the reference interpreter.
#[test]
fn ring_threshold_paper_kernel_agrees() {
    let (p, input_addr, _) = certa_aot::progs::ring_threshold_program(
        certa_aot::progs::PAPER_RING,
        certa_aot::progs::PAPER_ITERS,
    );
    let aot = aot_workloads::lookup("ring-threshold-paper").expect("precompiled");
    let cfg = MachineConfig {
        mem_size: 1 << 20,
        profile: true,
        ..MachineConfig::default()
    };
    let decoded = Arc::new(DecodedProgram::new(&p));
    let stage = |m: &mut Machine<'_>| {
        let bytes: Vec<u8> = (0..certa_aot::progs::PAPER_RING)
            .map(|i| (i * 151 + 43) as u8)
            .collect();
        m.write_bytes(input_addr, &bytes).expect("stage input");
    };

    let mut mr = Machine::try_new_with_decoded(&p, &decoded, &cfg).expect("valid config");
    stage(&mut mr);
    let rr = mr.run_reference(&mut NoHook);
    assert_eq!(rr.outcome, Outcome::Halted);

    let mut ma = Machine::try_new_with_decoded(&p, &decoded, &cfg).expect("valid config");
    stage(&mut ma);
    let ra = ma.run_aot(&mut NoHook, aot);
    let native = ma.aot_instructions();
    assert!(
        native * 2 > ra.instructions,
        "paper kernel barely ran natively"
    );
    assert_eq!(fingerprint(&ma, ra, 8192), fingerprint(&mr, rr, 8192));
}

/// The campaign seam the tentpole exists for: a session whose golden run
/// and checkpoint capture executed on tier-4 native code must be
/// indistinguishable from one built on the hooked interpreter — same
/// session fingerprint, same golden observables (including the
/// eligible-writeback population recovered from the execution profile),
/// and bit-identical trial records end to end.
#[test]
fn native_golden_campaigns_match_interpreted_campaigns() {
    use certa_fault::{run_campaign, run_campaign_with_aot};

    let workloads = all_workloads();
    let w = workloads
        .iter()
        .min_by_key(|w| w.program().code.len())
        .expect("at least one workload");
    let aot = aot_workloads::lookup(w.name()).expect("workload is precompiled");
    let tags = analyze(w.program());
    let config = CampaignConfig {
        trials: 24,
        errors: 1,
        protection: Protection::ControlOnly,
        threads: 2,
        seed: 0xA07_601D,
        ..CampaignConfig::default()
    };

    let interpreted = CampaignSession::new(&**w, &tags, &config);
    let native = CampaignSession::new_with_aot(&**w, &tags, &config, Some(aot));
    assert_eq!(
        interpreted.fingerprint(),
        native.fingerprint(),
        "{}: session fingerprints diverge",
        w.name()
    );
    let (gi, gn) = (interpreted.golden(), native.golden());
    assert_eq!(gi.output, gn.output, "{}: golden output", w.name());
    assert_eq!(gi.instructions, gn.instructions);
    assert_eq!(
        gi.eligible_population, gn.eligible_population,
        "{}: profile-derived eligible population diverges from the hook's",
        w.name()
    );
    assert_eq!(gi.exec_counts, gn.exec_counts);

    let ri = run_campaign(&**w, &tags, &config);
    let rn = run_campaign_with_aot(&**w, &tags, &config, Some(aot));
    assert_eq!(ri.trials, rn.trials, "{}: trial records diverge", w.name());
    assert!(ri.trials.iter().any(|t| t.result().is_some()));
}

/// The eligible writebacks of one injector-free run, in order: each one's
/// eligible index and static instruction.
#[derive(Default)]
struct EligibleLog {
    eligible: Vec<bool>,
    seen: u64,
    ints: Vec<(u64, usize)>,
    floats: Vec<(u64, usize)>,
}

/// Per-kind cap on logged writebacks (workload runs are millions long).
const LOG_CAP: usize = 1 << 16;

impl EligibleLog {
    fn new(p: &Program, tags: &TagMap, protection: Protection) -> Self {
        let mask = protection.eligibility_mask(p, tags);
        EligibleLog {
            eligible: (0..p.code.len())
                .map(|i| mask.as_ref().is_none_or(|m| m[i]))
                .collect(),
            ..EligibleLog::default()
        }
    }

    fn log(&mut self, float: bool, at: usize) {
        if !self.eligible[at] {
            return;
        }
        let list = if float {
            &mut self.floats
        } else {
            &mut self.ints
        };
        if list.len() < LOG_CAP {
            list.push((self.seen, at));
        }
        self.seen += 1;
    }
}

impl WritebackHook for EligibleLog {
    fn int_writeback(&mut self, at: usize, v: u32) -> u32 {
        self.log(false, at);
        v
    }
    fn float_writeback(&mut self, at: usize, v: f64) -> f64 {
        self.log(true, at);
        v
    }
}

/// Up to three entries of `picks` — first, middle and last.
fn spread(picks: &[(u64, usize)]) -> Vec<u64> {
    let mut out: Vec<u64> = [0, picks.len() / 2, picks.len().saturating_sub(1)]
        .iter()
        .filter_map(|&k| picks.get(k).map(|&(e, _)| e))
        .collect();
    out.dedup();
    out
}

/// Flip plans aimed at the seams of the windowed hand-off: flips on the
/// first and the last instruction of a block, on a call's `$ra` (low bits,
/// so returns land mid-block or wild), on float writebacks, on the last
/// writebacks before the run ends (a crash, for the crashing seeds), and a
/// dense run of consecutive flips.
fn seam_plans(log: &EligibleLog, p: &Program, aot: &AotProgram) -> Vec<Vec<(u64, u8)>> {
    let ints = &log.ints;
    let pick = |f: &dyn Fn(usize) -> bool| -> Vec<(u64, usize)> {
        ints.iter().copied().filter(|&(_, at)| f(at)).collect()
    };
    let firsts = pick(&|at| aot.block_range(at).start == at);
    let lasts = pick(&|at| aot.block_range(at).end == at + 1);
    let calls = pick(&|at| matches!(p.code[at], Instr::Call { .. }));
    let mut plans: Vec<Vec<(u64, u8)>> = Vec::new();
    for e in spread(&firsts) {
        plans.push(vec![(e, 3)]);
    }
    for e in spread(&lasts) {
        plans.push(vec![(e, 17)]);
    }
    for e in spread(&calls) {
        plans.push(vec![(e, 0)]);
        plans.push(vec![(e, 2)]);
    }
    for e in spread(&log.floats) {
        plans.push(vec![(e, 52)]);
        plans.push(vec![(e, 7)]);
    }
    for back in 1..=3 {
        if let Some(e) = log.seen.checked_sub(back) {
            plans.push(vec![(e, 1)]);
        }
    }
    let mid = log.seen / 2;
    plans.push(
        (mid..(mid + 8).min(log.seen))
            .map(|e| (e, (e % 32) as u8))
            .collect(),
    );
    let all: Vec<(u64, u8)> = plans.iter().flatten().copied().collect();
    plans.push(all);
    plans
}

/// The observables of an injected run: everything a campaign trial reads.
#[derive(Debug, PartialEq)]
struct Injected {
    fingerprint: Fingerprint,
    injected: u32,
    eligible_seen: u64,
}

/// Runs `p` with an injector for `plan` on the interpreter, on windowed
/// native code, and on windowed native code in uneven slices; asserts all
/// three agree and returns the straight native run's (native, total)
/// instruction counts.
#[allow(clippy::too_many_arguments)]
fn windowed_trial(
    label: &str,
    p: &Program,
    aot: &AotProgram,
    tags: &TagMap,
    protection: Protection,
    plan: &[(u64, u8)],
    cfg: &MachineConfig,
    prepare: &dyn Fn(&mut Machine<'_>),
    probe: u32,
) -> (u64, u64) {
    let decoded = Arc::new(DecodedProgram::new(p));
    let injector = || Injector::new(p, tags, protection, FaultPlan::from_pairs(plan));
    let machine = || {
        let mut m = Machine::try_new_with_decoded(p, &decoded, cfg).expect("valid config");
        prepare(&mut m);
        m
    };
    let observe = |m: &Machine<'_>, r: RunResult, inj: &Injector| Injected {
        fingerprint: fingerprint(m, r, probe),
        injected: inj.injected(),
        eligible_seen: inj.eligible_seen(),
    };

    let (mut mi, mut ii) = (machine(), injector());
    let ri = mi.run(&mut ii);
    let expected = observe(&mi, ri, &ii);
    assert_eq!(mi.aot_instructions(), 0);

    let (mut mn, mut inn) = (machine(), injector().with_native(aot));
    let rn = mn.run_aot(&mut inn, aot);
    let native = mn.aot_instructions();
    let total = rn.instructions;
    assert_eq!(observe(&mn, rn, &inn), expected, "{label}: plan {plan:?}");

    // Slices land pauses mid-block: every slice after the first resumes
    // on a hand-off.
    let (mut ms, mut is) = (machine(), injector().with_native(aot));
    let slice = (total / 5).max(1) | 1;
    let mut bound = 0u64;
    let rs = loop {
        bound += slice;
        match ms.run_until_aot(&mut is, aot, bound) {
            BoundedRun::Finished(r) => break r,
            BoundedRun::Paused => assert_eq!(ms.instructions(), bound, "{label}: pause"),
        }
    };
    assert_eq!(
        observe(&ms, rs, &is),
        expected,
        "{label}: sliced, plan {plan:?}"
    );
    (native, total)
}

/// Windowed injectors on every precompiled random program and on `art`
/// (the float workload): flips at the hand-off seams (see [`seam_plans`])
/// under two regimes leave registers, memory, the run result, the
/// injected count and the eligible count exactly as the interpreter
/// does, and sparse plans still retire most instructions natively.
#[test]
fn windowed_injectors_match_the_interpreter() {
    let cfg = MachineConfig {
        mem_size: 1 << 20,
        max_instructions: WATCHDOG,
        profile: false,
    };
    let (mut sparse_native, mut sparse_total, mut plans_run) = (0u64, 0u64, 0usize);
    for seed in AOT_RANDOM_SEEDS {
        let p = certa_aot::progs::random_program(seed);
        let aot = aot_workloads::lookup(&format!("random_{seed}")).expect("seed is precompiled");
        let tags = analyze(&p);
        for protection in [Protection::None, Protection::ControlOnly] {
            let mut log = EligibleLog::new(&p, &tags, protection);
            let mut m = Machine::new(&p, &cfg);
            m.run(&mut log);
            for plan in seam_plans(&log, &p, aot) {
                let label = format!("random_{seed} {protection:?}");
                let (native, total) = windowed_trial(
                    &label,
                    &p,
                    aot,
                    &tags,
                    protection,
                    &plan,
                    &cfg,
                    &|_| {},
                    RANDOM_BUF_LEN,
                );
                plans_run += 1;
                if plan.len() == 1 {
                    sparse_native += native;
                    sparse_total += total;
                }
            }
        }
    }

    let workloads = all_workloads();
    let art = workloads
        .iter()
        .find(|w| w.name() == "art")
        .expect("art is a workload");
    let aot = aot_workloads::lookup("art").expect("art is precompiled");
    let tags = analyze(art.program());
    let art_cfg = MachineConfig {
        mem_size: art.mem_size(),
        max_instructions: u64::MAX / 2,
        profile: false,
    };
    for protection in [Protection::None, Protection::ControlOnly] {
        let mut log = EligibleLog::new(art.program(), &tags, protection);
        let mut m = Machine::new(art.program(), &art_cfg);
        art.prepare(&mut m);
        m.run(&mut log);
        assert!(!log.floats.is_empty(), "art retires float writebacks");
        for plan in seam_plans(&log, art.program(), aot) {
            let label = format!("art {protection:?}");
            let prepare = |m: &mut Machine<'_>| art.prepare(m);
            let (native, total) = windowed_trial(
                &label,
                art.program(),
                aot,
                &tags,
                protection,
                &plan,
                &art_cfg,
                &prepare,
                4096,
            );
            plans_run += 1;
            if plan.len() == 1 {
                sparse_native += native;
                sparse_total += total;
            }
        }
    }
    assert!(plans_run > 100, "only {plans_run} plans exercised");
    assert!(
        sparse_native * 10 > sparse_total * 7,
        "sparse plans retired only {sparse_native} of {sparse_total} instructions natively"
    );
}

/// The campaign seam: on every workload, regime and fault target, at one
/// error and at the workload's highest Table 2 or figure level, a session
/// holding native code (native checkpointed trials) produces the records
/// of an interpreted session and of from-scratch trials, byte for byte.
#[test]
fn native_trials_match_interpreted_trials() {
    let figures = certa_bench::FigureSpec::all();
    for w in all_workloads() {
        let aot = aot_workloads::lookup(w.name()).expect("workload is precompiled");
        let tags = analyze(w.program());
        let scratch_layout = CampaignConfig {
            checkpointing: false,
            ..CampaignConfig::default()
        };
        let native = GoldenSession::new(w.as_target(), &CampaignConfig::default(), Some(aot));
        let interpreted = GoldenSession::new(w.as_target(), &CampaignConfig::default(), None);
        let scratch = GoldenSession::new(w.as_target(), &scratch_layout, None);
        let highest = certa_bench::table2_error_levels(w.name())
            .into_iter()
            .chain(
                figures
                    .iter()
                    .filter(|f| f.app == w.name())
                    .flat_map(|f| f.errors.iter().copied()),
            )
            .max()
            .expect("every workload has a Table 2 level");
        for protection in [
            Protection::None,
            Protection::ControlOnly,
            Protection::DataOnly,
            Protection::Full,
        ] {
            for target in [FaultTarget::Registers, FaultTarget::MemoryCells] {
                for errors in [1, highest] {
                    let config = CampaignConfig {
                        trials: 4,
                        errors,
                        protection,
                        target,
                        seed: 0x5EED ^ errors,
                        threads: 2,
                        ..CampaignConfig::default()
                    };
                    let label = format!("{} {protection:?} {target:?} e{errors}", w.name());
                    let n = native.campaign(&tags, &config).run_all();
                    let i = interpreted.campaign(&tags, &config).run_all();
                    let s = scratch
                        .campaign(
                            &tags,
                            &CampaignConfig {
                                checkpointing: false,
                                ..config.clone()
                            },
                        )
                        .run_all();
                    assert_eq!(n, i, "{label}: native vs interpreted");
                    assert_eq!(n, s, "{label}: native vs from scratch");
                    assert!(
                        n.iter().all(|t| t.result().is_some()),
                        "{label}: harness error"
                    );
                }
            }
        }
    }
}

/// Susan with one immediate changed: a program of a generated program's
/// length, with the same CFG, whose code differs in one instruction.
struct OneInstructionOff {
    susan: Box<dyn Workload>,
    program: Program,
}

impl OneInstructionOff {
    fn new() -> Self {
        let susan = all_workloads()
            .into_iter()
            .find(|w| w.name() == "susan")
            .expect("susan is a workload");
        let mut program = susan.program().clone();
        let at = program
            .code
            .iter()
            .position(|i| matches!(i, Instr::Li { .. }))
            .expect("susan loads an immediate");
        if let Instr::Li { imm, .. } = &mut program.code[at] {
            *imm ^= 1;
        }
        OneInstructionOff { susan, program }
    }
}

impl Target for OneInstructionOff {
    fn program(&self) -> &Program {
        &self.program
    }
    fn prepare(&self, machine: &mut Machine<'_>) {
        self.susan.prepare(machine);
    }
    fn extract(&self, machine: &Machine<'_>) -> Option<Vec<u8>> {
        self.susan.extract(machine)
    }
    fn mem_size(&self) -> u32 {
        self.susan.mem_size()
    }
}

/// Native code is found by the program it was generated from, not by name
/// or length: every precompiled program finds its own code, and a program
/// of susan's length with one instruction changed finds none.
#[test]
fn native_code_is_found_by_program_identity() {
    for w in all_workloads() {
        let found = aot_workloads::for_program(w.program()).expect("workload is precompiled");
        assert_eq!(found.name, w.name());
    }
    for seed in AOT_RANDOM_SEEDS {
        let p = certa_aot::progs::random_program(seed);
        let found = aot_workloads::for_program(&p).expect("seed is precompiled");
        assert_eq!(found.name, format!("random_{seed}"));
    }
    let off = OneInstructionOff::new();
    let susan = aot_workloads::lookup("susan").expect("susan is precompiled");
    assert_eq!(off.program.code.len(), susan.code_len);
    assert!(aot_workloads::for_program(&off.program).is_none());
}

/// Handing a golden session native code generated from another program is
/// a caller bug, caught once at session build.
#[test]
#[should_panic(expected = "was not generated from the target's program")]
fn golden_sessions_refuse_native_code_of_another_program() {
    let off = OneInstructionOff::new();
    let _ = GoldenSession::new(
        &off,
        &CampaignConfig::default(),
        aot_workloads::lookup("susan"),
    );
}

/// Resolves a job's workload by name, as `campaign_worker` does: the
/// worker must find native code for the program on its own.
fn resolve_workload(name: &str) -> Option<Box<dyn Target>> {
    all_workloads()
        .into_iter()
        .find(|w| w.name() == name)
        .map(|w| w as Box<dyn Target>)
}

/// `certa-dist` workers in an `aot` build run their trials natively, and
/// their record tables equal an interpreted inline `run_all`: susan
/// register faults under control protection, adpcm memory-cell faults,
/// and mcf unprotected at its highest Table 2 level (crashes and hangs
/// included), the last through a durable coordinator and its journal.
#[test]
fn native_dist_workers_match_interpreted_campaigns() {
    let mcf_high = *certa_bench::table2_error_levels("mcf")
        .iter()
        .max()
        .expect("mcf has Table 2 levels");
    let (registers, cells) = (FaultTarget::Registers, FaultTarget::MemoryCells);
    let cases = [
        ("susan", registers, Protection::ControlOnly, 2, false),
        ("adpcm", cells, Protection::ControlOnly, 3, false),
        ("mcf", registers, Protection::None, mcf_high, true),
    ];
    for (name, target, protection, errors, durable) in cases {
        let label = format!("{name} {target:?} {protection:?} e{errors}");
        let w = resolve_workload(name).expect("workload");
        let tags = analyze(w.program());
        let config = CampaignConfig {
            trials: 256,
            errors,
            protection,
            target,
            seed: 0xD157 ^ errors,
            threads: 2,
            ..CampaignConfig::default()
        };
        let inline = CampaignSession::new(&*w, &tags, &config).run_all();
        let session = CampaignSession::new_with_aot(
            &*w,
            &tags,
            &config,
            aot_workloads::for_program(w.program()),
        );
        let coordinator = Coordinator::bind("127.0.0.1:0").expect("bind");
        let addr = coordinator.local_addr().expect("addr");
        let dist = DistConfig {
            fallback_inline: false,
            chunk_parts: 8,
            worker_threads: 1,
            drain_timeout: Duration::from_secs(120),
            ..DistConfig::default()
        };
        let journal = std::env::temp_dir().join(format!(
            "certa-aot-parity-{}-{name}.wal",
            std::process::id()
        ));
        let (result, reports) = std::thread::scope(|scope| {
            let workers: Vec<_> = (0..2u64)
                .map(|i| {
                    let opts = WorkerOptions {
                        name: format!("native-{i}"),
                        backoff_seed: i,
                        // So neither worker drains the queue before the
                        // other's first grant.
                        throttle_per_chunk: Duration::from_millis(10),
                        ..WorkerOptions::default()
                    };
                    scope.spawn(move || run_worker(addr, &resolve_workload, &opts))
                })
                .collect();
            let result = if durable {
                let progress = DistProgress::default();
                coordinator.run_durable(&session, name, &dist, &progress, &journal, None)
            } else {
                coordinator.run(&session, name, &dist)
            };
            let reports: Vec<_> = workers
                .into_iter()
                .map(|h| h.join().expect("worker thread"))
                .collect();
            (result, reports)
        });
        let _ = std::fs::remove_file(&journal);
        let result = result.unwrap_or_else(|e| panic!("{label}: distributed campaign: {e}"));
        assert_eq!(
            result.campaign.trials, inline,
            "{label}: native workers vs interpreted inline run_all"
        );
        for report in reports {
            let report = report.unwrap_or_else(|e| panic!("{label}: worker: {e}"));
            assert_eq!(report.session_builds, 1, "{label}");
            assert!(
                report.native,
                "{label}: worker {} ran interpreted",
                report.worker
            );
        }
    }
}
