//! Superblock policy tuning harness: prints per-workload trace statistics,
//! dynamic trace coverage, the tier-4 AOT-region coverage fraction (when
//! built with `--features aot`; `-` otherwise), and carefully timed MIPS
//! for the three interpreter tiers (reference tree-walker, fused
//! dispatch, superblock traces), using the same clock-drift-resistant
//! measurement harness as the `dispatch` bench
//! ([`certa_bench::time_tiers`]: rep-accumulated samples, median of
//! within-round tier ratios).
//!
//! ```text
//! cargo run --release -p certa-bench --example sbtune -- [min_len] [max_len] [rounds]
//! ```
//!
//! `min_len` and `max_len` default to [`SuperblockPolicy::default`]'s;
//! `rounds` defaults to 7.

use std::sync::Arc;
use std::time::{Duration, Instant};

use certa_bench::time_tiers;
use certa_sim::{DecodedProgram, Machine, MachineConfig, NoHook, SuperblockPolicy};
use certa_workloads::{all_workloads, Workload};

fn time_runs(
    w: &dyn Workload,
    decoded: &Arc<DecodedProgram>,
    reference: bool,
    reps: usize,
) -> (Duration, u64) {
    let config = MachineConfig {
        mem_size: w.mem_size(),
        ..MachineConfig::default()
    };
    let mut total = Duration::ZERO;
    let mut instructions = 0;
    for _ in 0..reps {
        let mut m = Machine::try_new_with_decoded(w.program(), decoded, &config).unwrap();
        w.prepare(&mut m);
        let start = Instant::now();
        let r = if reference {
            m.run_reference(&mut NoHook)
        } else {
            m.run_simple()
        };
        total += start.elapsed();
        instructions = r.instructions;
    }
    (total, instructions * reps as u64)
}

/// Percentage of a golden run's dynamic instructions retired inside
/// tier-4 native regions — measured live when this example is built with
/// the `aot` feature, `None` otherwise (and for any program `build.rs`
/// did not precompile).
fn aot_coverage(w: &dyn Workload) -> Option<f64> {
    #[cfg(feature = "aot")]
    {
        let aot = certa_bench::aot_workloads::lookup(w.name())?;
        let config = MachineConfig {
            mem_size: w.mem_size(),
            ..MachineConfig::default()
        };
        let mut m = Machine::new(w.program(), &config);
        w.prepare(&mut m);
        let r = m.run_aot(&mut NoHook, aot);
        Some(m.aot_instructions() as f64 / r.instructions.max(1) as f64 * 100.0)
    }
    #[cfg(not(feature = "aot"))]
    {
        let _ = w;
        None
    }
}

fn main() {
    let args: Vec<String> = std::env::args().collect();
    let default = SuperblockPolicy::default();
    let min_len: usize = args
        .get(1)
        .and_then(|s| s.parse().ok())
        .unwrap_or(default.min_len);
    let max_len: usize = args
        .get(2)
        .and_then(|s| s.parse().ok())
        .unwrap_or(default.max_len);
    let rounds: usize = args.get(3).and_then(|s| s.parse().ok()).unwrap_or(7);
    let policy = SuperblockPolicy {
        min_len,
        max_len,
        ..default
    };
    println!("policy: min_len={min_len} max_len={max_len} rounds={rounds}");
    println!(
        "{:<10} {:>5} {:>7} {:>7} {:>6} {:>6} {:>8} {:>10} {:>10} {:>10} {:>9}",
        "workload", "sbs", "elems", "avg", "spec", "cov", "aot cov", "ref MIPS", "fus MIPS",
        "sb MIPS", "sb/fused"
    );
    let mut ratios = Vec::new();
    for w in all_workloads() {
        let fused = Arc::new(DecodedProgram::with_policy(
            w.program(),
            &SuperblockPolicy::disabled(),
        ));
        let sb = Arc::new(DecodedProgram::with_policy(w.program(), &policy));
        // Warmup + rep sizing so every sample is long enough to time.
        let _ = time_runs(&*w, &fused, false, 1);
        let reps = (20_000_000 / time_runs(&*w, &sb, false, 1).1).max(1) as usize;
        let spi = |decoded: &Arc<DecodedProgram>, reference: bool| {
            let (t, n) = time_runs(&*w, decoded, reference, reps);
            t.as_secs_f64() / n as f64
        };
        let timing = time_tiers(
            rounds,
            &mut [
                &mut || spi(&fused, true),
                &mut || spi(&fused, false),
                &mut || spi(&sb, false),
            ],
        );
        let med_ratio = timing.median_ratio(1, 2);
        let mips = |s: f64| 1.0 / s / 1e6;
        // Dynamic trace coverage probe.
        let config = MachineConfig {
            mem_size: w.mem_size(),
            ..MachineConfig::default()
        };
        let mut probe = Machine::try_new_with_decoded(w.program(), &sb, &config).unwrap();
        w.prepare(&mut probe);
        let pr = probe.run_simple();
        let cov = probe.superblock_instructions() as f64 / pr.instructions as f64 * 100.0;
        let count = sb.superblock_count();
        let elems = sb.superblock_ops();
        ratios.push(med_ratio);
        let aot_cov = aot_coverage(&*w)
            .map_or_else(|| "-".to_string(), |c| format!("{c:.1}%"));
        println!(
            "{:<10} {:>5} {:>7} {:>7.1} {:>5.1}% {:>5.1}% {:>8} {:>10.1} {:>10.1} {:>10.1} {:>8.2}x",
            w.name(),
            count,
            elems,
            elems as f64 / count.max(1) as f64,
            sb.superblock_specialized() as f64 / elems.max(1) as f64 * 100.0,
            cov,
            aot_cov,
            mips(timing.best[0]),
            mips(timing.best[1]),
            mips(timing.best[2]),
            med_ratio,
        );
    }
    let geo = ratios.iter().map(|r| r.ln()).sum::<f64>() / ratios.len() as f64;
    println!("geomean sb/fused (median-of-rounds): {:.3}x", geo.exp());
}
