//! Bench trajectory gate: compares the freshly written `BENCH_*.json`
//! summaries against the committed baselines under `baselines/` and fails
//! (non-zero exit) when a headline geomean regresses by more than the
//! threshold — closing ROADMAP's "bench trajectory tracking" loop in CI.
//!
//! Usage:
//!
//! ```text
//! bench_trajectory            # compare fresh results against baselines
//! bench_trajectory --update   # copy fresh results over the baselines
//! ```
//!
//! Metrics are dimensionless speedup ratios (tier-vs-tier on the same
//! machine and the same run), which transfer across machines far better
//! than absolute MIPS; the threshold still leaves 10% headroom for CI
//! noise, per the acceptance criteria.

use std::path::Path;
use std::process::ExitCode;

use certa_bench::{json_number, json_workload_names, json_workload_number, workspace_root};

/// Allowed relative regression of a tracked geomean before CI fails.
const THRESHOLD: f64 = 0.10;

/// Allowed relative regression of a single workload's dispatch ratio —
/// looser than the geomean gate, because per-workload ratios carry the
/// full brunt of link-time layout luck that the geomean averages away.
const WORKLOAD_THRESHOLD: f64 = 0.25;

/// One tracked benchmark artifact: file stem and headline metric key.
const TRACKED: &[(&str, &str)] = &[
    ("dispatch", "geomean_speedup"),
    ("dispatch", "geomean_superblock_vs_fused"),
    ("campaign", "speedup"),
    ("campaign_paper", "speedup"),
    ("aot", "geomean_aot_vs_reference"),
];

/// Fewest golden checkpoints the paper-scale campaign may lay. A
/// checkpointed trial executes about one checkpoint interval per flip, so
/// the default layout must stay dense: it gives the campaign's
/// 1,572,870-instruction golden run ~48, where a 4× sparser stride gives
/// 24–25.
const MIN_PAPER_CHECKPOINTS: f64 = 32.0;

/// Per-workload dispatch ratios gated at [`WORKLOAD_THRESHOLD`]: the
/// drift-resistant tier-vs-tier ratios, not absolute MIPS.
const WORKLOAD_KEYS: &[&str] = &["speedup", "speedup_vs_fused"];

fn read_metric(path: &Path, key: &str) -> Result<f64, String> {
    let text = std::fs::read_to_string(path)
        .map_err(|e| format!("cannot read {}: {e}", path.display()))?;
    json_number(&text, key)
        .ok_or_else(|| format!("{} has no numeric \"{key}\"", path.display()))
}

fn main() -> ExitCode {
    let update = std::env::args().any(|a| a == "--update");
    let root = match workspace_root() {
        Ok(root) => root,
        Err(e) => {
            eprintln!("bench_trajectory: cannot resolve workspace root: {e}");
            return ExitCode::FAILURE;
        }
    };
    let baseline_dir = root.join("baselines");
    let mut failed = false;
    if update {
        let mut done: Vec<&str> = Vec::new();
        for &(name, _) in TRACKED {
            if done.contains(&name) {
                continue;
            }
            done.push(name);
            let fresh_path = root.join(format!("BENCH_{name}.json"));
            let baseline_path = baseline_dir.join(format!("BENCH_{name}.json"));
            match std::fs::create_dir_all(&baseline_dir)
                .and_then(|()| std::fs::copy(&fresh_path, &baseline_path))
            {
                Ok(_) => println!("updated {}", baseline_path.display()),
                Err(e) => {
                    eprintln!("bench_trajectory: cannot update {name} baseline: {e}");
                    failed = true;
                }
            }
        }
        return if failed {
            ExitCode::FAILURE
        } else {
            ExitCode::SUCCESS
        };
    }
    for &(name, key) in TRACKED {
        let fresh_path = root.join(format!("BENCH_{name}.json"));
        let baseline_path = baseline_dir.join(format!("BENCH_{name}.json"));
        let fresh = match read_metric(&fresh_path, key) {
            Ok(v) => v,
            Err(e) => {
                eprintln!("bench_trajectory: {e} (run the {name} bench first)");
                failed = true;
                continue;
            }
        };
        let baseline = match read_metric(&baseline_path, key) {
            Ok(v) => v,
            Err(e) => {
                println!("bench_trajectory: {e} — no baseline, skipping {name} (run with --update to record one)");
                continue;
            }
        };
        let ratio = fresh / baseline;
        let verdict = if ratio < 1.0 - THRESHOLD {
            failed = true;
            "REGRESSION"
        } else if ratio > 1.0 + THRESHOLD {
            "improved (consider --update)"
        } else {
            "ok"
        };
        println!(
            "{name}: {key} fresh {fresh:.3} vs baseline {baseline:.3} ({:+.1}%) — {verdict}",
            (ratio - 1.0) * 100.0
        );
    }

    // Per-workload dispatch gates: every workload present in the baseline
    // must still be present fresh, and its tier-vs-tier ratios may not
    // regress past the (looser) per-workload threshold. Catches a single
    // workload cratering while the geomean stays inside its band.
    let fresh_path = root.join("BENCH_dispatch.json");
    let baseline_path = baseline_dir.join("BENCH_dispatch.json");
    if let (Ok(fresh_json), Ok(baseline_json)) = (
        std::fs::read_to_string(&fresh_path),
        std::fs::read_to_string(&baseline_path),
    ) {
        for workload in json_workload_names(&baseline_json) {
            for &key in WORKLOAD_KEYS {
                let Some(base) = json_workload_number(&baseline_json, &workload, key) else {
                    continue;
                };
                let Some(fresh) = json_workload_number(&fresh_json, &workload, key) else {
                    eprintln!(
                        "bench_trajectory: {workload} missing from fresh BENCH_dispatch.json"
                    );
                    failed = true;
                    continue;
                };
                let ratio = fresh / base;
                if ratio < 1.0 - WORKLOAD_THRESHOLD {
                    eprintln!(
                        "dispatch/{workload}: {key} fresh {fresh:.3} vs baseline {base:.3} \
                         ({:+.1}%) — WORKLOAD REGRESSION",
                        (ratio - 1.0) * 100.0
                    );
                    failed = true;
                } else {
                    println!(
                        "dispatch/{workload}: {key} fresh {fresh:.3} vs baseline {base:.3} \
                         ({:+.1}%) — ok",
                        (ratio - 1.0) * 100.0
                    );
                }
            }
        }
    }
    // Liveness gates on the paper-scale campaign. Its workers sweep every
    // checkpoint group, so zero cross-checkpoint restores means trial
    // machines never left the checkpoint they were based on and the timed
    // campaign did not exercise the one-pass restore between checkpoints.
    // Most of its two-flip trials mask their first flip, so zero
    // fast-forwards means no trial restored ahead to its second flip.
    let paper_path = root.join("BENCH_campaign_paper.json");
    for (key, least, missing) in [
        ("restores_diff_hop", 1.0, "no cross-checkpoint restore ran"),
        (
            "fast_forwards",
            1.0,
            "no trial fast-forwarded between flips",
        ),
        (
            "checkpoints",
            MIN_PAPER_CHECKPOINTS,
            "the default checkpoint layout got sparser",
        ),
    ] {
        match read_metric(&paper_path, key) {
            Ok(count) if count >= least => {
                println!("campaign_paper: {key} {count:.0} — ok");
            }
            Ok(count) => {
                eprintln!("campaign_paper: {key} {count:.0} is below {least:.0} — {missing}");
                failed = true;
            }
            Err(e) => {
                eprintln!("bench_trajectory: {e} (run the campaign_paper bench first)");
                failed = true;
            }
        }
    }

    if failed {
        eprintln!(
            "bench_trajectory: a tracked metric regressed past its threshold (geomean {:.0}%, \
             per-workload {:.0}%) against committed baselines, or a liveness gate failed — \
             see the lines above",
            THRESHOLD * 100.0,
            WORKLOAD_THRESHOLD * 100.0
        );
        ExitCode::FAILURE
    } else {
        ExitCode::SUCCESS
    }
}
