//! Regime-matrix fault campaign: every workload × every protection regime
//! (register faults) plus the memory-cell fault model, each trial
//! classified into the six-way verdict taxonomy and aggregated into
//! `ToleranceProfile` rows with Wilson 95% intervals.
//!
//! This table *is* the reproduction: the separation between error-tolerant
//! data (masked/tolerable under `control_only`) and must-protect control
//! state (crashes/hangs under `none` and `data_only`) is the paper's
//! claim, stated per workload with confidence intervals.
//!
//! Writes `BENCH_matrix.json` at the workspace root. The JSON carries no
//! timing, so for a fixed seed and trial count it is byte-deterministic —
//! CI uploads it as an artifact and diffs are meaningful.
//!
//! Usage: `campaign_matrix [--trials N] [--seed N]`; the `CERTA_MATRIX_TRIALS`
//! environment variable overrides the trial count (CI sets 256).
//!
//! Exits non-zero unless at least one workload's register-fault rows show
//! the full spread — masked, tolerable, and detected all nonzero — which
//! is the smoke signal that the taxonomy actually discriminates.

use std::fmt::Write as _;
use std::process::ExitCode;

use certa_bench::{golden_session, harness_json, parse_cli, write_bench_json};
use certa_core::{analyze, TagMap};
use certa_fault::{
    CampaignConfig, FaultTarget, GoldenSession, HarnessStats, Protection, ToleranceProfile,
};
use certa_fidelity::verdict::VerdictCounts;
use certa_workloads::{all_workloads, Workload};

/// Errors injected per trial: fixed across the whole matrix so cells are
/// comparable along both axes (the per-application error sweeps live in
/// the figure reproductions, not here).
const ERRORS: u64 = 2;

/// One cell of the matrix, run on the workload's shared golden session.
fn run_cell(
    golden: &GoldenSession<'_>,
    workload: &dyn Workload,
    tags: &TagMap,
    target: FaultTarget,
    regime: Protection,
    trials: usize,
    seed: u64,
) -> (ToleranceProfile, HarnessStats) {
    let config = CampaignConfig {
        trials,
        errors: ERRORS,
        protection: regime,
        target,
        seed,
        ..CampaignConfig::default()
    };
    let session = golden.campaign(tags, &config);
    let records = session.run_all();
    let result = session.finish(records);
    let mut counts = VerdictCounts::default();
    for record in &result.trials {
        counts.record(&workload.classify_trial(&record.status, &result.golden.output));
    }
    let profile = ToleranceProfile {
        workload: workload.name().to_string(),
        regime,
        target,
        errors: ERRORS,
        counts,
    };
    (profile, result.harness_stats)
}

fn main() -> ExitCode {
    let (cli_trials, seed) = parse_cli(64);
    let trials = std::env::var("CERTA_MATRIX_TRIALS")
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(cli_trials);

    let mut rows: Vec<ToleranceProfile> = Vec::new();
    let mut harness = HarnessStats::default();
    for w in all_workloads() {
        // One golden run per workload serves all of its cells.
        let tags = analyze(w.program());
        let golden = golden_session(&*w);
        for regime in Protection::all() {
            eprintln!(
                "campaign_matrix: {} registers/{} ({trials} trials)",
                w.name(),
                regime.label()
            );
            let (row, cell_harness) = run_cell(
                &golden,
                &*w,
                &tags,
                FaultTarget::Registers,
                regime,
                trials,
                seed,
            );
            rows.push(row);
            harness.merge(&cell_harness);
        }
        // Memory-cell faults hit stored state, which carries no
        // instruction tag — one regime-independent row per workload.
        eprintln!("campaign_matrix: {} memory_cells ({trials} trials)", w.name());
        let (row, cell_harness) = run_cell(
            &golden,
            &*w,
            &tags,
            FaultTarget::MemoryCells,
            Protection::None,
            trials,
            seed,
        );
        rows.push(row);
        harness.merge(&cell_harness);
    }

    let mut json = String::new();
    let _ = write!(
        json,
        "{{\"bench\":\"campaign_matrix\",\"trials\":{trials},\"errors\":{ERRORS},\"seed\":{seed},\"harness\":{},\"rows\":[",
        harness_json(&harness)
    );
    for (i, row) in rows.iter().enumerate() {
        if i > 0 {
            json.push(',');
        }
        json.push_str(&row.to_json());
    }
    json.push_str("]}");

    println!(
        "{:<10} {:<13} {:<13} {:>7} {:>7} {:>7} {:>7} {:>7} {:>7} {:>7}",
        "workload", "target", "regime", "masked", "toler", "silent", "crash", "hang", "check", "herr"
    );
    for row in &rows {
        let c = &row.counts;
        println!(
            "{:<10} {:<13} {:<13} {:>7} {:>7} {:>7} {:>7} {:>7} {:>7} {:>7}",
            row.workload,
            row.target.label(),
            row.regime.label(),
            c.masked,
            c.tolerable,
            c.silent_corruption,
            c.detected_crash,
            c.hang,
            c.detected_by_check,
            c.harness_error
        );
    }

    match write_bench_json("matrix", &json) {
        Ok(path) => eprintln!("campaign_matrix: wrote {}", path.display()),
        Err(e) => {
            eprintln!("campaign_matrix: cannot write BENCH_matrix.json: {e}");
            return ExitCode::FAILURE;
        }
    }

    // Smoke gate: the taxonomy must actually discriminate — at least one
    // workload's register-fault rows must populate masked, tolerable, and
    // detected buckets.
    let discriminates = all_workloads().iter().any(|w| {
        let mut agg = VerdictCounts::default();
        for row in rows
            .iter()
            .filter(|r| r.workload == w.name() && r.target == FaultTarget::Registers)
        {
            let c = &row.counts;
            agg.masked += c.masked;
            agg.tolerable += c.tolerable;
            agg.silent_corruption += c.silent_corruption;
            agg.detected_crash += c.detected_crash;
            agg.hang += c.hang;
            agg.detected_by_check += c.detected_by_check;
        }
        agg.masked > 0 && agg.tolerable > 0 && agg.detected() > 0
    });
    if !discriminates {
        eprintln!(
            "campaign_matrix: FAIL — no workload shows masked, tolerable, and detected all nonzero"
        );
        return ExitCode::FAILURE;
    }
    eprintln!("campaign_matrix: verdict spread OK");
    ExitCode::SUCCESS
}
