//! Paper-scale fault-campaign bench: 1024 two-flip trials (Table-2 order
//! of magnitude) against a medium golden run, checkpointing on vs. off.
//!
//! The 24-trial `campaign` bench measures restore mechanics on a handful
//! of trials; this bench runs enough trials that every checkpoint group
//! is visited by several workers, so trial machines restore both the
//! checkpoint they are based on and other checkpoints. Two flips per
//! trial let a trial whose first flip is masked rejoin the golden run and
//! fast-forward to the checkpoint before its second. The warmup
//! campaign's records are compared with from-scratch trials and must
//! include cross-checkpoint restores and fast-forwards (asserted); the
//! trajectory gate (`bench_trajectory`) tracks the headline speedup *and*
//! fails if the timed campaign's cross-checkpoint restore count or its
//! fast-forward count reads zero, or if its golden run holds fewer than 32
//! checkpoints (the default layout gives it ~48).
//!
//! With the `aot` feature the checkpointed campaign runs its golden run
//! *and its trials* on tier-4 native code, while the from-scratch
//! campaign's trials stay on the interpreter (the reference path), so the
//! on/off ratio measures checkpointing and the native tier together. The
//! JSON records which tier each mode's trials ran on.
//!
//! `CERTA_PAPER_TRIALS` overrides the trial count (CI uses a short-trial
//! variant to bound runtime; the acceptance numbers are recorded at the
//! default 1024).

use std::time::Instant;

use criterion::{criterion_group, criterion_main, Criterion, Throughput};

use certa_aot::progs::{ring_threshold_program, PAPER_ITERS, PAPER_RING};
use certa_core::analyze;
use certa_fault::{
    run_campaign, run_campaign_with_aot, CampaignConfig, CampaignSession, Protection, Target,
};
use certa_isa::Program;
use certa_sim::{AotProgram, Machine};

/// Default trial count (Table-2 scale).
const DEFAULT_TRIALS: usize = 1024;

/// Same ring-threshold kernel as the `campaign` bench, scaled down:
/// `out[i % RING] = ((in[i % RING] * 3 + 7) & 0xff) < 128`, built by
/// [`certa_aot::progs::ring_threshold_program`] — the same source
/// `build.rs` compiles into the tier-4 `ring-threshold-paper` native
/// region. Each slot is rewritten every [`PAPER_RING`] iterations, which
/// lets corrupted outputs heal and trials reconverge with the golden run
/// (the behavior checkpointing exploits), and [`PAPER_ITERS`] ~12-
/// instruction iterations put the golden run near 1.6M — long enough
/// that from-scratch re-execution dominates the off-mode campaign, short
/// enough that 1024 off-mode trials stay benchable.
struct RingThresholdTarget {
    program: Program,
    input_addr: u32,
    output_addr: u32,
}

impl RingThresholdTarget {
    fn new() -> Self {
        let (program, input_addr, output_addr) = ring_threshold_program(PAPER_RING, PAPER_ITERS);
        RingThresholdTarget {
            program,
            input_addr,
            output_addr,
        }
    }
}

/// The precompiled tier-4 region for the paper kernel when this bench is
/// built with the `aot` feature; `None` otherwise (golden runs and trials
/// then execute on the interpreter, exactly as before tier 4 existed).
fn paper_aot() -> Option<&'static AotProgram> {
    #[cfg(feature = "aot")]
    {
        certa_bench::aot_workloads::lookup("ring-threshold-paper")
    }
    #[cfg(not(feature = "aot"))]
    {
        None
    }
}

impl Target for RingThresholdTarget {
    fn program(&self) -> &Program {
        &self.program
    }

    fn prepare(&self, machine: &mut Machine<'_>) {
        let input: Vec<u8> = (0..PAPER_RING).map(|i| (i * 151 + 43) as u8).collect();
        machine.write_bytes(self.input_addr, &input).unwrap();
    }

    fn extract(&self, machine: &Machine<'_>) -> Option<Vec<u8>> {
        machine.read_bytes(self.output_addr, PAPER_RING as u32).ok()
    }
}

fn trial_count() -> usize {
    std::env::var("CERTA_PAPER_TRIALS")
        .ok()
        .and_then(|v| v.parse().ok())
        .filter(|&n| n > 0)
        .unwrap_or(DEFAULT_TRIALS)
}

fn campaign_config(checkpointing: bool) -> CampaignConfig {
    CampaignConfig {
        trials: trial_count(),
        errors: 2,
        protection: Protection::ControlOnly,
        seed: 0x7AB1E2,
        checkpointing,
        // Pinned worker count (not the core count): paper-scale campaigns
        // are a multi-worker workload, and each worker sweeps every
        // checkpoint group, hopping between checkpoints as it goes.
        // Pinning also makes the speedup comparable across machines; both
        // modes are equally affected.
        threads: 4,
        ..CampaignConfig::default()
    }
}

fn bench_campaign_paper(c: &mut Criterion) {
    let target = RingThresholdTarget::new();
    let tags = analyze(target.program());
    let trials = trial_count();
    let aot = paper_aot();
    // From-scratch trials always run on the interpreter.
    let tier_on = if aot.is_some() { "aot" } else { "interpreter" };
    println!(
        "paper-scale campaign: {trials} trials (CERTA_PAPER_TRIALS overrides), golden runs and \
         checkpointed trials {}",
        if aot.is_some() {
            "native (tier 4)"
        } else {
            "interpreted (build with --features aot for tier 4)"
        }
    );

    // Warmup + determinism spot-check on a small prefix of the trial
    // space: the full determinism contract is covered by the workspace
    // property suite; here we only want warm caches and a sanity check —
    // and, with the aot feature on, a live cross-tier check (the fast
    // campaign's golden run and trials are native, the slow one's
    // interpreted; their trial records must still match bit for bit).
    let warm_cfg = CampaignConfig {
        trials: trials.min(64),
        ..campaign_config(true)
    };
    let warm_scratch_cfg = CampaignConfig {
        checkpointing: false,
        ..warm_cfg.clone()
    };
    let warm = CampaignSession::new_with_aot(&target, &tags, &warm_cfg, aot);
    let warm_trials = warm.run_all();
    let warm_fast_forwards = warm.fast_forwards();
    let fast = warm.finish(warm_trials);
    let slow = run_campaign(&target, &tags, &warm_scratch_cfg);
    for (i, (a, b)) in fast.trials.iter().zip(&slow.trials).enumerate() {
        assert_eq!(a, b, "trial {i} record must match");
    }
    assert!(
        fast.restore_stats.diff_hop > 0,
        "the checkpointed warmup must restore across checkpoints, so the records just \
         compared cover cross-checkpoint restores: {:?}",
        fast.restore_stats
    );
    assert!(
        warm_fast_forwards > 0,
        "the checkpointed warmup must fast-forward between flips, so the records just \
         compared cover restores ahead of a pending flip"
    );

    // Golden-phase margin, measured on its own: session construction is
    // the golden run plus checkpoint capture and plan sampling, so the
    // interpreted-vs-native build-time ratio is the honest measure of
    // what tier 4 buys the campaign's serial prefix (with the feature
    // off, both builds are interpreted and the ratio reads ~1).
    let start = Instant::now();
    std::hint::black_box(CampaignSession::new(&target, &tags, &campaign_config(true)));
    let session_interpreted = start.elapsed();
    let start = Instant::now();
    std::hint::black_box(CampaignSession::new_with_aot(
        &target,
        &tags,
        &campaign_config(true),
        aot,
    ));
    let session_native = start.elapsed();
    let golden_speedup = session_interpreted.as_secs_f64() / session_native.as_secs_f64().max(1e-9);

    // Headline: one timed campaign per mode at full scale (the
    // checkpointed one through its session, which counts fast-forwards).
    let start = Instant::now();
    let session = CampaignSession::new_with_aot(&target, &tags, &campaign_config(true), aot);
    let timed_trials = session.run_all();
    let fast_forwards = session.fast_forwards();
    let checkpoints = session.checkpoints();
    let timed = std::hint::black_box(session.finish(timed_trials));
    let with_checkpoints = start.elapsed();
    let start = Instant::now();
    std::hint::black_box(run_campaign_with_aot(
        &target,
        &tags,
        &campaign_config(false),
        aot,
    ));
    let from_scratch = start.elapsed();
    let speedup = from_scratch.as_secs_f64() / with_checkpoints.as_secs_f64();

    let golden_instructions = timed.golden.instructions;
    let rs = timed.restore_stats;
    println!(
        "paper campaign wall-clock: checkpointing on {:.3} s, off {:.3} s → {:.1}x speedup \
         (target ≥ 5x)",
        with_checkpoints.as_secs_f64(),
        from_scratch.as_secs_f64(),
        speedup
    );
    println!(
        "paper campaign rates: {:.1} trials/s, {} checkpoints, {} checkpoint capture bytes, \
         golden {} instructions",
        timed.trials_per_second(),
        checkpoints,
        timed.checkpoint_capture_bytes,
        golden_instructions
    );
    println!(
        "paper campaign golden phase (session build): interpreted {:.3} s, {} {:.3} s → {:.2}x",
        session_interpreted.as_secs_f64(),
        if aot.is_some() { "native" } else { "interpreted (aot off)" },
        session_native.as_secs_f64(),
        golden_speedup
    );
    println!(
        "paper campaign restores: {} dirty-page, {} diff-hop, {} full-image ({} of them \
         fast-forwards between flips)",
        rs.dirty_page, rs.diff_hop, rs.full_image, fast_forwards
    );

    let json = format!(
        "{{\"bench\":\"campaign_paper\",\"golden_instructions\":{},\"trials\":{},\
         \"checkpointing_on_secs\":{:.6},\"checkpointing_off_secs\":{:.6},\
         \"speedup\":{:.3},\"trials_per_second\":{:.3},\"checkpoints\":{},\
         \"checkpoint_capture_bytes\":{},\
         \"restores_dirty_page\":{},\"restores_diff_hop\":{},\"restores_full_image\":{},\
         \"fast_forwards\":{},\"aot_golden\":{},\"trials_tier_checkpointing_on\":\"{}\",\
         \"trials_tier_checkpointing_off\":\"interpreter\",\
         \"session_build_secs_interpreted\":{:.6},\
         \"session_build_secs_native\":{:.6},\"golden_session_speedup\":{:.3}}}\n",
        golden_instructions,
        trials,
        with_checkpoints.as_secs_f64(),
        from_scratch.as_secs_f64(),
        speedup,
        timed.trials_per_second(),
        checkpoints,
        timed.checkpoint_capture_bytes,
        rs.dirty_page,
        rs.diff_hop,
        rs.full_image,
        fast_forwards,
        aot.is_some(),
        tier_on,
        session_interpreted.as_secs_f64(),
        session_native.as_secs_f64(),
        golden_speedup
    );
    match certa_bench::write_bench_json("campaign_paper", &json) {
        Ok(path) => println!("wrote {}", path.display()),
        Err(e) => eprintln!("could not write BENCH_campaign_paper.json: {e}"),
    }

    // One criterion entry (checkpointed mode only: the off mode at this
    // scale is minutes, and the headline above already timed it once).
    let mut group = c.benchmark_group("campaign_paper_throughput");
    group.sample_size(2);
    group.throughput(Throughput::Elements(trials as u64));
    group.bench_function("checkpointing_on", |b| {
        b.iter(|| {
            std::hint::black_box(run_campaign_with_aot(
                &target,
                &tags,
                &campaign_config(true),
                aot,
            ))
        });
    });
    group.finish();
}

criterion_group!(benches, bench_campaign_paper);
criterion_main!(benches);
