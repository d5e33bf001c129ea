//! Criterion bench: fault-campaign throughput with checkpoint acceleration
//! on vs. off.
//!
//! The workload is a synthetic ring-threshold kernel sized so its golden
//! run exceeds 10M dynamic instructions — long enough that re-executing
//! every trial from instruction zero dominates campaign cost. The bench
//! prints the measured wall-clock speedup; the checkpointing acceptance
//! target is ≥ 3×.

use std::time::Instant;

use criterion::{criterion_group, criterion_main, Criterion, Throughput};

use certa_asm::Asm;
use certa_core::analyze;
use certa_fault::{golden_run, run_campaign, CampaignConfig, Protection, Target};
use certa_isa::{reg, Program};
use certa_sim::Machine;

/// Ring buffer size (bytes); each slot is rewritten every `RING` iterations,
/// which is what lets corrupted outputs heal and trials reconverge with the
/// golden run — the behavior checkpointing exploits.
const RING: usize = 4096;
/// Loop iterations; ~12 instructions each puts the golden run past 12M.
const ITERS: i32 = 1 << 20;

/// Threshold-classifies a transformed byte stream into a ring buffer:
/// `out[i % RING] = ((in[i % RING] * 3 + 7) & 0xff) < 128`.
struct RingThresholdTarget {
    program: Program,
    input_addr: u32,
    output_addr: u32,
}

impl RingThresholdTarget {
    fn new() -> Self {
        let mut a = Asm::new();
        let input_addr = a.data_zero(RING);
        let output_addr = a.data_zero(RING);
        a.func("threshold", true);
        a.la(reg::T0, input_addr);
        a.la(reg::T4, output_addr);
        a.li(reg::T1, 0);
        a.label("loop");
        a.andi(reg::T5, reg::T1, (RING - 1) as i32);
        a.add(reg::T3, reg::T0, reg::T5);
        a.lbu(reg::T3, 0, reg::T3);
        a.muli(reg::T3, reg::T3, 3);
        a.addi(reg::T3, reg::T3, 7);
        a.andi(reg::T3, reg::T3, 255);
        a.slti(reg::T3, reg::T3, 128);
        a.add(reg::T6, reg::T4, reg::T5);
        a.sb(reg::T3, 0, reg::T6);
        a.addi(reg::T1, reg::T1, 1);
        a.slti(reg::T6, reg::T1, ITERS);
        a.bnez(reg::T6, "loop");
        a.ret();
        a.endfunc();
        a.func("main", false);
        a.call("threshold");
        a.halt();
        a.endfunc();
        RingThresholdTarget {
            program: a.assemble().unwrap(),
            input_addr,
            output_addr,
        }
    }
}

impl Target for RingThresholdTarget {
    fn program(&self) -> &Program {
        &self.program
    }

    fn prepare(&self, machine: &mut Machine<'_>) {
        let input: Vec<u8> = (0..RING).map(|i| (i * 151 + 43) as u8).collect();
        machine.write_bytes(self.input_addr, &input).unwrap();
    }

    fn extract(&self, machine: &Machine<'_>) -> Option<Vec<u8>> {
        machine
            .read_bytes(self.output_addr, RING as u32)
            .ok()
    }
}

fn campaign_config(checkpointing: bool) -> CampaignConfig {
    CampaignConfig {
        trials: 24,
        errors: 1,
        protection: Protection::ControlOnly,
        seed: 0xBE11C,
        checkpointing,
        ..CampaignConfig::default()
    }
}

fn bench_campaign_throughput(c: &mut Criterion) {
    let target = RingThresholdTarget::new();
    let tags = analyze(target.program());

    let golden = golden_run(&target, &tags, Protection::ControlOnly, u64::MAX / 2);
    assert!(
        golden.instructions >= 10_000_000,
        "bench workload must exceed 10M golden instructions, got {}",
        golden.instructions
    );
    println!(
        "golden run: {} instructions, {} eligible injection points",
        golden.instructions, golden.eligible_population
    );

    // Warmup pass for both modes: primes the page cache and the big
    // checkpoint allocations, and double-checks the determinism contract.
    let fast = run_campaign(&target, &tags, &campaign_config(true));
    let slow = run_campaign(&target, &tags, &campaign_config(false));
    for (i, (a, b)) in fast.trials.iter().zip(&slow.trials).enumerate() {
        assert_eq!(a, b, "trial {i} record must match");
    }

    // Restore-path breakdown of the warmup's checkpointed run: how many
    // trial restores rolled back the checkpoint the machine was based on
    // (dirty pages only), hopped to another checkpoint, or started from a
    // base outside the checkpoint set.
    let rs = fast.restore_stats;
    println!(
        "campaign restores: {} dirty-page, {} diff-hop, {} full-image",
        rs.dirty_page, rs.diff_hop, rs.full_image
    );
    assert_eq!(
        slow.restore_stats,
        certa_fault::RestoreStats::default(),
        "scratch campaigns never restore checkpoints"
    );

    // Headline number: one warm timed campaign per mode.
    let start = Instant::now();
    let timed = std::hint::black_box(run_campaign(&target, &tags, &campaign_config(true)));
    let with_checkpoints = start.elapsed();
    let start = Instant::now();
    std::hint::black_box(run_campaign(&target, &tags, &campaign_config(false)));
    let from_scratch = start.elapsed();
    let speedup = from_scratch.as_secs_f64() / with_checkpoints.as_secs_f64();
    println!(
        "campaign wall-clock: checkpointing on {:.3} s, off {:.3} s → {:.1}x speedup (target ≥ 3x)",
        with_checkpoints.as_secs_f64(),
        from_scratch.as_secs_f64(),
        speedup
    );
    // MIPS-style throughput: the campaign simulates trials × golden-length
    // instructions (an upper bound for checkpointed runs, which skip
    // prefixes/suffixes — making the effective rate look even higher).
    let campaign_instructions = golden.instructions * campaign_config(true).trials as u64;
    let on_mips = campaign_instructions as f64 / with_checkpoints.as_secs_f64() / 1e6;
    let off_mips = campaign_instructions as f64 / from_scratch.as_secs_f64() / 1e6;
    println!(
        "campaign throughput: checkpointing on {on_mips:.1} MIPS, off {off_mips:.1} MIPS \
         ({campaign_instructions} simulated instructions per campaign)"
    );
    let trs = timed.restore_stats;
    println!(
        "campaign rates: {:.1} trials/s checkpointed, {} checkpoint capture bytes \
         (copy-on-write: only pages written between checkpoints are materialized)",
        timed.trials_per_second(),
        timed.checkpoint_capture_bytes
    );
    let json = format!(
        "{{\"bench\":\"campaign\",\"golden_instructions\":{},\"trials\":{},\
         \"checkpointing_on_secs\":{:.6},\"checkpointing_off_secs\":{:.6},\
         \"speedup\":{:.3},\"checkpointing_on_mips\":{:.3},\"checkpointing_off_mips\":{:.3},\
         \"trials_per_second\":{:.3},\"checkpoint_capture_bytes\":{},\
         \"restores_dirty_page\":{},\"restores_diff_hop\":{},\"restores_full_image\":{}}}\n",
        golden.instructions,
        campaign_config(true).trials,
        with_checkpoints.as_secs_f64(),
        from_scratch.as_secs_f64(),
        speedup,
        on_mips,
        off_mips,
        timed.trials_per_second(),
        timed.checkpoint_capture_bytes,
        trs.dirty_page,
        trs.diff_hop,
        trs.full_image
    );
    match certa_bench::write_bench_json("campaign", &json) {
        Ok(path) => println!("wrote {}", path.display()),
        Err(e) => eprintln!("could not write BENCH_campaign.json: {e}"),
    }

    let mut group = c.benchmark_group("campaign_throughput");
    group.sample_size(3);
    group.throughput(Throughput::Elements(
        golden.instructions * campaign_config(true).trials as u64,
    ));
    group.bench_function("checkpointing_on", |b| {
        b.iter(|| std::hint::black_box(run_campaign(&target, &tags, &campaign_config(true))));
    });
    group.bench_function("checkpointing_off", |b| {
        b.iter(|| std::hint::black_box(run_campaign(&target, &tags, &campaign_config(false))));
    });
    group.finish();
}

criterion_group!(benches, bench_campaign_throughput);
criterion_main!(benches);
