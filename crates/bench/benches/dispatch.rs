//! Criterion bench: raw interpreter throughput per workload across the
//! three execution tiers — the CFG-derived superblock dispatch (the
//! default [`Machine::run`] configuration), the fused per-op dispatch
//! ([`SuperblockPolicy::disabled`]), and the reference `Instr`
//! tree-walking interpreter ([`Machine::run_reference`]) — all unprofiled
//! and hook-free (the campaign's hot configuration).
//!
//! Prints MIPS (millions of simulated instructions per second) for each
//! workload and three geometric-mean speedups, and emits a
//! `BENCH_dispatch.json` summary for the CI artifact trail. There is no
//! absolute target: the `bench_trajectory` binary fails CI when
//! `geomean_speedup` (superblock/reference) or
//! `geomean_superblock_vs_fused` falls more than 10% below its committed
//! baseline in `baselines/`, or any workload's `speedup` or
//! `speedup_vs_fused` more than 25%.

use std::fmt::Write as _;
use std::sync::Arc;
use std::time::{Duration, Instant};

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion, Throughput};

use certa_bench::{geomean, time_tiers, write_bench_json, TierRounds};
use certa_sim::{
    DecodedProgram, Machine, MachineConfig, NoHook, Outcome, RunResult, SuperblockPolicy,
};
use certa_workloads::{all_workloads, Workload};

/// Which execution tier a sample times.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Tier {
    /// Tree-walking `Instr` interpreter.
    Reference,
    /// Predecoded micro-op dispatch with pair fusion, superblocks off.
    Fused,
    /// Superblock trace dispatch (the default pipeline).
    Superblock,
}

impl Tier {
    const ALL: [Tier; 3] = [Tier::Reference, Tier::Fused, Tier::Superblock];

    fn name(self) -> &'static str {
        match self {
            Tier::Reference => "reference",
            Tier::Fused => "fused",
            Tier::Superblock => "superblock",
        }
    }
}

fn machine_config(w: &dyn Workload) -> MachineConfig {
    MachineConfig {
        mem_size: w.mem_size(),
        ..MachineConfig::default()
    }
}

/// The two decoded forms every sample reuses (lowering excluded from the
/// timed section, like machine construction and input staging).
struct Lowered {
    fused: Arc<DecodedProgram>,
    superblock: Arc<DecodedProgram>,
}

impl Lowered {
    fn new(w: &dyn Workload) -> Self {
        Lowered {
            fused: Arc::new(DecodedProgram::with_policy(
                w.program(),
                &SuperblockPolicy::disabled(),
            )),
            superblock: Arc::new(DecodedProgram::new(w.program())),
        }
    }
}

/// One timed sample of the chosen tier: `reps` back-to-back golden runs
/// (machine construction and input staging excluded from the timed
/// sections), long enough that the sample is not aliased by host clock
/// stepping.
fn time_golden_reps(
    w: &dyn Workload,
    lowered: &Lowered,
    tier: Tier,
    reps: usize,
) -> (Duration, RunResult) {
    let config = machine_config(w);
    let decoded = match tier {
        Tier::Fused => &lowered.fused,
        _ => &lowered.superblock,
    };
    let mut total = Duration::ZERO;
    let mut result = None;
    for _ in 0..reps {
        let mut m = Machine::try_new_with_decoded(w.program(), decoded, &config)
            .expect("bench machine config is valid");
        w.prepare(&mut m);
        let start = Instant::now();
        let r = match tier {
            Tier::Reference => m.run_reference(&mut NoHook),
            Tier::Fused | Tier::Superblock => m.run_simple(),
        };
        total += start.elapsed();
        assert_eq!(r.outcome, Outcome::Halted, "{} golden run", w.name());
        result = Some(r);
    }
    (total, result.expect("at least one rep"))
}

/// Times the three tiers through the shared round-based harness
/// ([`certa_bench::time_tiers`]): each sampler returns seconds per
/// simulated instruction over a rep-accumulated run, and per-round
/// ratios survive host clock drift. Also returns the (tier-agreeing)
/// run result for throughput annotations.
fn time_golden_rounds(w: &dyn Workload, lowered: &Lowered, rounds: usize) -> (TierRounds, RunResult) {
    // Size reps so each sample spans ≥ ~20M simulated instructions.
    let (_, probe) = time_golden_reps(w, lowered, Tier::Superblock, 1);
    let reps = (20_000_000 / probe.instructions.max(1)).clamp(1, 2_000) as usize;
    let spi_of = |tier: Tier| {
        let (t, r) = time_golden_reps(w, lowered, tier, reps);
        t.as_secs_f64() / (r.instructions * reps as u64) as f64
    };
    let timing = time_tiers(
        rounds,
        &mut [
            &mut || spi_of(Tier::Reference),
            &mut || spi_of(Tier::Fused),
            &mut || spi_of(Tier::Superblock),
        ],
    );
    (timing, probe)
}

fn bench_dispatch_throughput(c: &mut Criterion) {
    let workloads = all_workloads();
    let lowered: Vec<Lowered> = workloads.iter().map(|w| Lowered::new(&**w)).collect();

    // Warmup sweep: every tier over every workload before any timing, so
    // page cache, branch predictors, and clock governors reach steady
    // state (single-core CI machines ramp noticeably).
    for (w, l) in workloads.iter().zip(&lowered) {
        for tier in Tier::ALL {
            let _ = time_golden_reps(&**w, l, tier, 1);
        }
    }

    let mut rows = String::new();
    let mut sb_vs_ref = Vec::new();
    let mut fused_vs_ref = Vec::new();
    let mut sb_vs_fused = Vec::new();
    println!(
        "{:<10} {:>14} {:>10} {:>11} {:>11} {:>9} {:>9}",
        "workload", "instructions", "ref MIPS", "fused MIPS", "sb MIPS", "sb/ref", "sb/fused"
    );
    for (w, l) in workloads.iter().zip(&lowered) {
        let (timing, result) = time_golden_rounds(&**w, l, 5);
        let to_mips = |spi: f64| 1.0 / spi / 1e6;
        let (ref_mips, fused_mips, sb_mips) = (
            to_mips(timing.best[0]),
            to_mips(timing.best[1]),
            to_mips(timing.best[2]),
        );
        // Ratios are medians of within-round comparisons: reference(0),
        // fused(1), superblock(2); numerator is the slower tier's s/i.
        let (w_sb_ref, w_fused_ref, w_sb_fused) = (
            timing.median_ratio(0, 2),
            timing.median_ratio(0, 1),
            timing.median_ratio(1, 2),
        );
        sb_vs_ref.push(w_sb_ref);
        fused_vs_ref.push(w_fused_ref);
        sb_vs_fused.push(w_sb_fused);
        println!(
            "{:<10} {:>14} {:>10.1} {:>11.1} {:>11.1} {:>8.2}x {:>8.2}x",
            w.name(),
            result.instructions,
            ref_mips,
            fused_mips,
            sb_mips,
            w_sb_ref,
            w_sb_fused,
        );
        let _ = write!(
            rows,
            "{}{{\"name\":\"{}\",\"instructions\":{},\"reference_mips\":{:.3},\
             \"fused_mips\":{:.3},\"superblock_mips\":{:.3},\"speedup\":{:.3},\
             \"speedup_vs_fused\":{:.3}}}",
            if rows.is_empty() { "" } else { "," },
            w.name(),
            result.instructions,
            ref_mips,
            fused_mips,
            sb_mips,
            w_sb_ref,
            w_sb_fused,
        );
    }
    let geo_sb_ref = geomean(&sb_vs_ref);
    let geo_fused_ref = geomean(&fused_vs_ref);
    let geo_sb_fused = geomean(&sb_vs_fused);
    println!(
        "dispatch geomeans: superblock/reference {geo_sb_ref:.2}x, \
         fused/reference {geo_fused_ref:.2}x, superblock/fused {geo_sb_fused:.2}x \
         (bench_trajectory gates the first and last against baselines/)"
    );

    let json = format!(
        "{{\"bench\":\"dispatch\",\"geomean_speedup\":{geo_sb_ref:.3},\
         \"geomean_fused_speedup\":{geo_fused_ref:.3},\
         \"geomean_superblock_vs_fused\":{geo_sb_fused:.3},\"workloads\":[{rows}]}}\n"
    );
    match write_bench_json("dispatch", &json) {
        Ok(path) => println!("wrote {}", path.display()),
        Err(e) => eprintln!("could not write BENCH_dispatch.json: {e}"),
    }

    // Criterion entries for the trajectory: every tier on every workload,
    // throughput-annotated with the dynamic instruction count.
    let mut group = c.benchmark_group("dispatch_throughput");
    group.sample_size(5);
    for (w, l) in workloads.iter().zip(&lowered) {
        let config = machine_config(&**w);
        let mut probe =
            Machine::try_new_with_decoded(w.program(), &l.superblock, &config).expect("probe");
        w.prepare(&mut probe);
        let instructions = probe.run_simple().instructions;
        group.throughput(Throughput::Elements(instructions));
        for tier in Tier::ALL {
            group.bench_function(BenchmarkId::new(tier.name(), w.name()), |b| {
                b.iter(|| {
                    let decoded = match tier {
                        Tier::Fused => &l.fused,
                        _ => &l.superblock,
                    };
                    let mut m = Machine::try_new_with_decoded(w.program(), decoded, &config)
                        .expect("bench machine config is valid");
                    w.prepare(&mut m);
                    match tier {
                        Tier::Reference => std::hint::black_box(m.run_reference(&mut NoHook)),
                        Tier::Fused | Tier::Superblock => std::hint::black_box(m.run_simple()),
                    }
                });
            });
        }
    }
    group.finish();
}

criterion_group!(benches, bench_dispatch_throughput);
criterion_main!(benches);
