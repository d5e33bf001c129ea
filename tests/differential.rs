//! Differential suite for the predecoded execution pipeline: for every
//! workload in the study, the micro-op dispatch ([`Machine::run`]) and the
//! reference `Instr` interpreter ([`Machine::run_reference`]) must produce
//! identical `Outcome`, output bytes, instruction counts, register files,
//! and `exec_counts` — including under `run_until` pause/resume, under an
//! injecting `WritebackHook`, and across dirty-page vs full-image restore.

use std::sync::Arc;

use certa::core::analyze;
use certa::fault::{golden_run, FaultPlan, Injector, Protection};
use certa::isa::{Program, Reg};
use certa::sim::{
    BoundedRun, DecodedProgram, Machine, MachineConfig, NoHook, Outcome, RunResult,
    SuperblockPolicy, WritebackHook,
};
use certa::workloads::all_workloads;
use certa::workloads::Workload;
use rand::rngs::SmallRng;
use rand::Rng;
use rand::SeedableRng;

fn machine_config(w: &dyn Workload, profile: bool) -> MachineConfig {
    MachineConfig {
        mem_size: w.mem_size(),
        profile,
        ..MachineConfig::default()
    }
}

fn fresh_machine<'p>(w: &'p dyn Workload, profile: bool) -> Machine<'p> {
    let mut m = Machine::new(w.program(), &machine_config(w, profile));
    w.prepare(&mut m);
    m
}

fn assert_same_state(fast: &Machine<'_>, slow: &Machine<'_>, label: &str) {
    for i in 0..32u8 {
        assert_eq!(
            fast.reg(Reg::new(i)),
            slow.reg(Reg::new(i)),
            "{label}: register ${i} diverged"
        );
    }
    assert_eq!(
        fast.instructions(),
        slow.instructions(),
        "{label}: icount diverged"
    );
}

/// Golden (fault-free, profiled) runs must agree on everything the
/// campaign observes: result, per-instruction execution counts, registers,
/// and extracted output bytes.
#[test]
fn golden_runs_agree_across_pipelines() {
    for w in all_workloads() {
        let mut fast = fresh_machine(&*w, true);
        let mut slow = fresh_machine(&*w, true);
        let a = fast.run_simple();
        let b = slow.run_reference(&mut NoHook);
        assert_eq!(a, b, "{}: run result", w.name());
        assert_eq!(a.outcome, Outcome::Halted, "{}", w.name());
        assert_eq!(
            fast.exec_counts(),
            slow.exec_counts(),
            "{}: exec_counts",
            w.name()
        );
        assert_same_state(&fast, &slow, w.name());
        assert_eq!(
            w.extract(&fast),
            w.extract(&slow),
            "{}: output bytes",
            w.name()
        );
    }
}

/// Chopping a decoded run into uneven `run_until` slices must be invisible:
/// the final result equals the reference interpreter's straight run, and
/// every pause lands exactly on its target (fused pairs must split).
#[test]
fn bounded_decoded_runs_match_straight_reference_runs() {
    for w in all_workloads() {
        let mut slow = fresh_machine(&*w, false);
        let expected = slow.run_reference(&mut NoHook);

        let mut fast = fresh_machine(&*w, false);
        // Uneven, prime-ish slices to land pauses inside fused pairs.
        let slice = (expected.instructions / 7).max(1) | 1;
        let mut target = 0u64;
        let result = loop {
            target += slice;
            match fast.run_until_simple(target) {
                BoundedRun::Finished(r) => break r,
                BoundedRun::Paused => {
                    assert_eq!(fast.instructions(), target, "{}: pause point", w.name());
                }
            }
        };
        assert_eq!(result, expected, "{}: sliced run result", w.name());
        assert_same_state(&fast, &slow, w.name());
        assert_eq!(w.extract(&fast), w.extract(&slow), "{}", w.name());
    }
}

fn run_injected(
    w: &dyn Workload,
    plan: &FaultPlan,
    reference: bool,
    chunked: bool,
) -> (RunResult, u32, Option<Vec<u8>>) {
    let tags = analyze(w.program());
    let mut m = fresh_machine(w, false);
    let mut injector = Injector::new(w.program(), &tags, Protection::None, plan.clone());
    let result = if reference {
        m.run_reference(&mut injector)
    } else if chunked {
        let mut target = 0u64;
        loop {
            target += 10_001;
            match m.run_until(&mut injector, target) {
                BoundedRun::Finished(r) => break r,
                BoundedRun::Paused => {}
            }
        }
    } else {
        m.run(&mut injector)
    };
    let output = (result.outcome == Outcome::Halted)
        .then(|| w.extract(&m))
        .flatten();
    (result, injector.injected(), output)
}

/// Under an injecting hook — bit flips landing on exact writeback indices —
/// the pipelines must stay bit-identical: same flips hit the same dynamic
/// writebacks, so outcome, icount, injected count, and output all match.
/// The decoded pipeline is additionally exercised with pause/resume to
/// prove injection sites are unaffected by bounded execution.
#[test]
fn injected_trials_agree_across_pipelines() {
    for w in all_workloads() {
        let tags = analyze(w.program());
        let golden = golden_run(&*w, &tags, Protection::None, u64::MAX / 2);
        let mut rng = SmallRng::seed_from_u64(0xD1FF ^ golden.instructions);
        let plan = FaultPlan::sample(&mut rng, golden.eligible_population, 5);

        let (ref_result, ref_injected, ref_output) = run_injected(&*w, &plan, true, false);
        let (dec_result, dec_injected, dec_output) = run_injected(&*w, &plan, false, false);
        let (chk_result, chk_injected, chk_output) = run_injected(&*w, &plan, false, true);

        assert_eq!(dec_result, ref_result, "{}: injected result", w.name());
        assert_eq!(dec_injected, ref_injected, "{}: injected count", w.name());
        assert_eq!(dec_output, ref_output, "{}: injected output", w.name());
        assert_eq!(chk_result, ref_result, "{}: chunked result", w.name());
        assert_eq!(chk_injected, ref_injected, "{}: chunked count", w.name());
        assert_eq!(chk_output, ref_output, "{}: chunked output", w.name());
    }
}

// ---------------------------------------------------------------------
// Seeded random-program generator (hoisted to certa-aot::progs so the
// build-time tier-4 generator compiles byte-identical programs): loops,
// traced-through calls and jumps, guarded memory traffic, occasional
// wild accesses — the shapes the superblock builder linearizes. Every
// branch except the fixed-count loop closers is forward, so programs
// terminate (the watchdog backstops wild control flow anyway).
// ---------------------------------------------------------------------

use certa::aot::progs::{nested_loop_program, random_program, RANDOM_BUF_LEN as BUF_LEN};

/// A deterministic tampering hook: records every writeback and flips low
/// bits on a fixed cadence, so injected divergence (including into
/// addresses and branch inputs) stresses side exits identically per tier.
#[derive(Default)]
struct Recorder {
    events: Vec<(usize, u64)>,
    tamper: bool,
}

impl WritebackHook for Recorder {
    fn int_writeback(&mut self, i: usize, v: u32) -> u32 {
        self.events.push((i, u64::from(v)));
        if self.tamper && self.events.len().is_multiple_of(37) {
            v ^ 3
        } else {
            v
        }
    }
    fn float_writeback(&mut self, i: usize, v: f64) -> f64 {
        self.events.push((i, v.to_bits()));
        v
    }
}

/// Policy variants every seed is exercised under (superblock shapes from
/// degenerate 1-op traces to long call-threaded ones).
fn random_policy(rng: &mut SmallRng) -> SuperblockPolicy {
    SuperblockPolicy {
        min_len: rng.gen_range(1..4),
        max_len: rng.gen_range(4..80),
        ..SuperblockPolicy::default()
    }
}

struct TierRun {
    result: RunResult,
    events: Vec<(usize, u64)>,
    exec_counts: Vec<u64>,
    regs: Vec<u32>,
    mem: Vec<u8>,
    sb_instructions: u64,
}

fn run_tier(p: &Program, decoded: &Arc<DecodedProgram>, reference: bool, tamper: bool) -> TierRun {
    let config = MachineConfig {
        profile: true,
        max_instructions: 1 << 20,
        ..MachineConfig::default()
    };
    let mut m = Machine::try_new_with_decoded(p, decoded, &config).unwrap();
    let mut hook = Recorder {
        tamper,
        ..Recorder::default()
    };
    let result = if reference {
        m.run_reference(&mut hook)
    } else {
        m.run(&mut hook)
    };
    let buf_base = certa::asm::DATA_BASE;
    TierRun {
        result,
        events: hook.events,
        exec_counts: m.exec_counts().to_vec(),
        regs: (0..32).map(|i| m.reg(Reg::new(i))).collect(),
        mem: m.read_bytes(buf_base, BUF_LEN).unwrap(),
        sb_instructions: m.superblock_instructions(),
    }
}

fn assert_tiers_agree(seed: u64, a: &TierRun, b: &TierRun, label: &str) {
    assert_eq!(a.result, b.result, "seed {seed}: {label} result");
    assert_eq!(a.events, b.events, "seed {seed}: {label} hook sequence");
    assert_eq!(a.exec_counts, b.exec_counts, "seed {seed}: {label} counts");
    assert_eq!(a.regs, b.regs, "seed {seed}: {label} registers");
    assert_eq!(a.mem, b.mem, "seed {seed}: {label} memory");
}

/// The core random-program property: superblock ≡ fused ≡ reference on
/// outcome, hook sequences (plain and tampering), exec counts, registers,
/// and memory, across random superblock policies.
#[test]
fn random_programs_agree_across_all_three_tiers() {
    let mut covered = 0u64;
    for seed in 0..60u64 {
        let p = random_program(seed);
        let mut rng = SmallRng::seed_from_u64(!seed);
        let sb = Arc::new(DecodedProgram::with_policy(&p, &random_policy(&mut rng)));
        let fused = Arc::new(DecodedProgram::with_policy(
            &p,
            &SuperblockPolicy::disabled(),
        ));
        for tamper in [false, true] {
            let r = run_tier(&p, &fused, true, tamper);
            let f = run_tier(&p, &fused, false, tamper);
            let s = run_tier(&p, &sb, false, tamper);
            assert_tiers_agree(seed, &f, &r, "fused-vs-reference");
            assert_tiers_agree(seed, &s, &r, "superblock-vs-reference");
            covered += s.sb_instructions;
            assert_eq!(f.sb_instructions, 0, "disabled policy must stay fused");
        }
    }
    assert!(
        covered > 10_000,
        "random programs must actually exercise the superblock tier ({covered})"
    );
}

/// Pause/resume at arbitrary boundaries — including mid-superblock — is
/// invisible: sliced bounded runs equal the straight reference run.
#[test]
fn random_programs_pause_and_resume_mid_superblock() {
    for seed in 0..20u64 {
        let p = random_program(seed);
        let config = MachineConfig {
            max_instructions: 1 << 20,
            ..MachineConfig::default()
        };
        let mut reference = Machine::new(&p, &config);
        let expected = reference.run_reference(&mut NoHook);

        let mut rng = SmallRng::seed_from_u64(seed ^ 0xABCD);
        let mut m = Machine::new(&p, &config);
        let mut target = 0u64;
        let result = loop {
            target += rng.gen_range(1..23);
            match m.run_until_simple(target) {
                BoundedRun::Finished(r) => break r,
                BoundedRun::Paused => {
                    assert_eq!(m.instructions(), target, "seed {seed}: pause point");
                }
            }
        };
        assert_eq!(result, expected, "seed {seed}: sliced run");
        for i in 0..32u8 {
            assert_eq!(
                m.reg(Reg::new(i)),
                reference.reg(Reg::new(i)),
                "seed {seed}: register {i}"
            );
        }

        // Watchdog boundaries are exact across tiers too.
        if expected.instructions > 2 {
            let budget = expected.instructions / 2;
            for reference_tier in [false, true] {
                let mut m = Machine::new(
                    &p,
                    &MachineConfig {
                        max_instructions: budget,
                        ..MachineConfig::default()
                    },
                );
                let r = if reference_tier {
                    m.run_reference(&mut NoHook)
                } else {
                    m.run_simple()
                };
                assert_eq!(r.outcome, Outcome::InfiniteRun, "seed {seed}");
                assert_eq!(r.instructions, budget, "seed {seed}: watchdog point");
            }
        }
    }
}

/// Fault injection through the hook lands on identical dynamic writebacks
/// in every tier — flips at superblock boundaries and inside traces
/// produce the same outcome, icount, injected count, and memory.
#[test]
fn random_programs_agree_under_fault_injection() {
    for seed in 40..60u64 {
        let p = random_program(seed);
        let tags = analyze(&p);
        let config = MachineConfig {
            max_instructions: 1 << 20,
            ..MachineConfig::default()
        };
        // Population under Protection::None = every value-producing
        // writeback of the fault-free run.
        let mut probe = Machine::new(&p, &config);
        let base = probe.run_simple();
        if base.value_producing == 0 {
            continue;
        }
        let mut rng = SmallRng::seed_from_u64(seed.wrapping_mul(0x9E37));
        let plan = FaultPlan::sample(&mut rng, base.value_producing, 4);

        let mut results = Vec::new();
        for tier in ["reference", "fused", "superblock"] {
            let decoded = match tier {
                "fused" => Arc::new(DecodedProgram::with_policy(
                    &p,
                    &SuperblockPolicy::disabled(),
                )),
                _ => Arc::new(DecodedProgram::new(&p)),
            };
            let mut m = Machine::try_new_with_decoded(&p, &decoded, &config).unwrap();
            let mut injector = Injector::new(&p, &tags, Protection::None, plan.clone());
            let result = if tier == "reference" {
                m.run_reference(&mut injector)
            } else {
                m.run(&mut injector)
            };
            let mem = m.read_bytes(certa::asm::DATA_BASE, BUF_LEN).unwrap();
            results.push((result, injector.injected(), mem));
        }
        assert_eq!(results[0], results[1], "seed {seed}: fused injection");
        assert_eq!(results[0], results[2], "seed {seed}: superblock injection");
    }
}

// ---------------------------------------------------------------------
// Taken-path loop linearization edges: the superblock builder now lays a
// loop-closing conditional branch's *backward* target next (unrolling
// iterations until the trace cap), so these shapes pin the equivalence
// across unrolled laps specifically.
// ---------------------------------------------------------------------


/// Nested loops with a traced call in the body: all three tiers agree on
/// every observable, and the superblock tier actually runs the trace.
#[test]
fn nested_loops_with_calls_agree_across_tiers() {
    let p = nested_loop_program();
    for policy in [
        SuperblockPolicy::default(),
        SuperblockPolicy {
            min_len: 1,
            max_len: 24, // cap lands mid-lap: exercises lap truncation
            ..SuperblockPolicy::default()
        },
    ] {
        let sb = Arc::new(DecodedProgram::with_policy(&p, &policy));
        let fused = Arc::new(DecodedProgram::with_policy(
            &p,
            &SuperblockPolicy::disabled(),
        ));
        for tamper in [false, true] {
            let r = run_tier(&p, &fused, true, tamper);
            let f = run_tier(&p, &fused, false, tamper);
            let s = run_tier(&p, &sb, false, tamper);
            assert_tiers_agree(7001, &f, &r, "nested fused-vs-reference");
            assert_tiers_agree(7001, &s, &r, "nested superblock-vs-reference");
            if !tamper {
                assert!(
                    s.sb_instructions > 0,
                    "nested-loop program must exercise the superblock tier"
                );
            }
        }
    }
}

/// Pause and watchdog boundaries landing mid-unrolled-iteration: slicing
/// a hot loop at every possible boundary is invisible, and the watchdog
/// fires at exactly its budget in every tier.
#[test]
fn pause_lands_mid_unrolled_iteration() {
    let p = nested_loop_program();
    let config = MachineConfig::default();
    let mut reference = Machine::new(&p, &config);
    let expected = reference.run_reference(&mut NoHook);

    // Every pause point (step 1): each boundary lands inside some
    // unrolled lap of the inner-loop trace.
    let mut m = Machine::new(&p, &config);
    for target in 1..expected.instructions {
        assert_eq!(m.run_until_simple(target), BoundedRun::Paused);
        assert_eq!(m.instructions(), target, "pause at {target}");
    }
    match m.run_until_simple(expected.instructions) {
        BoundedRun::Finished(r) => assert_eq!(r, expected),
        BoundedRun::Paused => panic!("final step must finish"),
    }
    for i in 0..32u8 {
        assert_eq!(m.reg(Reg::new(i)), reference.reg(Reg::new(i)));
    }

    // Watchdog at every budget below the natural end.
    for budget in (1..expected.instructions).step_by(7) {
        let cfg = MachineConfig {
            max_instructions: budget,
            ..MachineConfig::default()
        };
        let mut fast = Machine::new(&p, &cfg);
        let mut slow = Machine::new(&p, &cfg);
        let a = fast.run_simple();
        let b = slow.run_reference(&mut NoHook);
        assert_eq!(a, b, "watchdog budget {budget}");
        assert_eq!(a.outcome, Outcome::InfiniteRun);
        assert_eq!(a.instructions, budget);
    }
}

/// A tampering hook that corrupts the loop counter mid-trace: the flip
/// lands inside an unrolled lap, the loop-closing branch goes the "wrong"
/// way relative to the linearized path, and the side exit must carry all
/// three tiers to the identical (early or late) outcome.
#[test]
fn tampering_with_loop_counter_mid_trace_agrees() {
    struct CorruptCounter {
        countdown: u32,
        hits: u64,
    }
    impl WritebackHook for CorruptCounter {
        fn int_writeback(&mut self, _i: usize, v: u32) -> u32 {
            self.hits += 1;
            if self.hits == self.countdown as u64 {
                v ^ 0x7 // flip low bits of whatever retires here
            } else {
                v
            }
        }
    }
    let p = nested_loop_program();
    let config = MachineConfig {
        max_instructions: 1 << 16,
        ..MachineConfig::default()
    };
    let sb = Arc::new(DecodedProgram::new(&p));
    let fused = Arc::new(DecodedProgram::with_policy(
        &p,
        &SuperblockPolicy::disabled(),
    ));
    // Sweep the corruption over the first 60 writebacks: some land on the
    // inner counter (`addi t1, t1, -1`) inside an unrolled lap, flipping
    // the loop-closing branch against the trace's taken-path layout.
    for countdown in 1..60u32 {
        let mut results = Vec::new();
        for (decoded, reference) in [(&fused, true), (&fused, false), (&sb, false)] {
            let mut m = Machine::try_new_with_decoded(&p, decoded, &config).unwrap();
            let mut hook = CorruptCounter {
                countdown,
                hits: 0,
            };
            let r = if reference {
                m.run_reference(&mut hook)
            } else {
                m.run(&mut hook)
            };
            let regs: Vec<u32> = (0..32).map(|i| m.reg(Reg::new(i))).collect();
            results.push((r, hook.hits, regs));
        }
        assert_eq!(results[0], results[1], "countdown {countdown}: fused");
        assert_eq!(results[0], results[2], "countdown {countdown}: superblock");
    }
}

/// Dirty-page restore vs full-image restore: a trial resumed from a
/// snapshot must not care which restore path refreshed the machine.
#[test]
fn dirty_page_and_full_image_restore_agree() {
    for w in all_workloads() {
        let mut m = fresh_machine(&*w, false);
        let probe = {
            let mut probe = fresh_machine(&*w, false);
            probe.run_simple().instructions
        };
        assert_eq!(m.run_until_simple(probe / 2), BoundedRun::Paused);
        let snap = m.snapshot();

        // Dirty path: finish the run (dirtying pages), then restore the
        // snapshot the machine is already based on.
        m.restore(&snap).unwrap(); // already the base: nothing to swap
        m.run_simple();
        m.restore(&snap).unwrap(); // swaps back the dirty pages
        let a = m.run_simple();
        let out_a = w.extract(&m);

        // Untrusting path: a per-page pass over every group on a fresh
        // machine.
        let mut full = Machine::from_snapshot(
            w.program(),
            &snap,
            &machine_config(&*w, false),
        )
        .unwrap();
        full.restore_full(&snap).unwrap();
        let b = full.run_simple();
        let out_b = w.extract(&full);

        assert_eq!(a, b, "{}: restore-path result", w.name());
        assert_eq!(out_a, out_b, "{}: restore-path output", w.name());
        assert_same_state(&m, &full, w.name());
    }
}
