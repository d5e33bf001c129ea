//! # certa-bench
//!
//! The experiment harness: one function per table/figure of the paper, each
//! returning printable rows so that the `repro_*` binaries and the criterion
//! benches share the exact same measurement path.
//!
//! | Paper artifact | Function | Binary | Criterion bench |
//! |---|---|---|---|
//! | Table 1 | [`table1`] | `repro_table1` | `experiments` |
//! | Table 2 | [`table2`] | `repro_table2` | `experiments` |
//! | Table 3 | [`table3`] | `repro_table3` | `experiments` |
//! | Figure 1 (Susan) | [`figure`] with [`FigureSpec::susan`] | `repro_fig1` | `experiments` |
//! | Figure 2 (MPEG) | [`figure`] with [`FigureSpec::mpeg`] | `repro_fig2` | `experiments` |
//! | Figure 3 (MCF) | [`figure`] with [`FigureSpec::mcf`] | `repro_fig3` | `experiments` |
//! | Figure 4 (Blowfish) | [`figure`] with [`FigureSpec::blowfish`] | `repro_fig4` | `experiments` |
//! | Figure 5 (GSM) | [`figure`] with [`FigureSpec::gsm`] | `repro_fig5` | `experiments` |
//! | Figure 6 (ART) | [`figure`] with [`FigureSpec::art`] | `repro_fig6` | `experiments` |
//! | Address-protection ablation | [`ablation`] | `repro_ablation` | `ablation` |

/// Tier-4 native code for every shared guest program (`certa-native`,
/// generated at build time under the `aot` feature, empty without it):
/// `for_program`, `lookup(name)` and `ALL`. The parity tests, the
/// `aot`/`campaign_paper` benches and every golden session here consume it.
pub use certa_native as aot_workloads;

use std::fmt::Write as _;

use certa_core::{analyze, analyze_with, AnalysisOptions, TagMap};
use certa_fault::{CampaignConfig, GoldenSession, Protection};
use certa_workloads::{all_workloads, FidelityDetail, Workload};

/// One measured point of a campaign sweep.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PointStats {
    /// Errors injected per trial.
    pub errors: u64,
    /// Trials executed.
    pub trials: usize,
    /// % of trials ending in catastrophic failure (crash or infinite run).
    pub failure_pct: f64,
    /// Mean normalized fidelity score over completed trials.
    pub mean_score: f64,
    /// % of all trials whose output clears the workload's fidelity
    /// threshold (failures count as unacceptable).
    pub acceptable_pct: f64,
    /// Workload-specific scalar (mean PSNR dB, % bad frames, % optimal
    /// schedules, % bytes correct, SNR loss dB, % recognized).
    pub detail: f64,
}

fn detail_scalar(d: &FidelityDetail) -> f64 {
    match *d {
        FidelityDetail::Psnr { db } => db.min(60.0),
        FidelityDetail::BadFrames { fraction } => fraction * 100.0,
        FidelityDetail::Schedule(v) => {
            if v == certa_fidelity::schedule::ScheduleFidelity::Optimal {
                100.0
            } else {
                0.0
            }
        }
        FidelityDetail::ByteSimilarity { fraction } => fraction * 100.0,
        FidelityDetail::SnrLoss { db } => db.min(60.0),
        FidelityDetail::Confidence { recognized, .. } => {
            if recognized {
                100.0
            } else {
                0.0
            }
        }
    }
}

/// The golden session every campaign point of `workload` shares: built
/// with the default checkpoint layout, which is what [`measure_point`]'s
/// configurations ask for. With the `aot` feature the session holds the
/// workload's tier-4 native code, so its golden run and every
/// checkpointed trial run natively — bit-identical to the interpreter.
#[must_use]
pub fn golden_session(workload: &dyn Workload) -> GoldenSession<'_> {
    GoldenSession::new(
        workload.as_target(),
        &CampaignConfig::default(),
        aot_workloads::for_program(workload.program()),
    )
}

/// Runs one campaign point on `golden` (see [`golden_session`]) and
/// aggregates workload fidelity over it.
#[must_use]
pub fn measure_point(
    golden: &GoldenSession<'_>,
    workload: &dyn Workload,
    tags: &TagMap,
    protection: Protection,
    errors: u64,
    trials: usize,
    seed: u64,
) -> PointStats {
    let config = CampaignConfig {
        trials,
        errors,
        protection,
        seed,
        ..CampaignConfig::default()
    };
    let session = golden.campaign(tags, &config);
    let records = session.run_all();
    let result = session.finish(records);
    let mut scores = Vec::new();
    let mut details = Vec::new();
    let mut acceptable = 0usize;
    for trial in result.completed() {
        if trial.is_catastrophic() {
            continue;
        }
        let f = workload.evaluate(&result.golden.output, trial.output.as_deref());
        scores.push(f.score);
        details.push(detail_scalar(&f.detail));
        if f.acceptable {
            acceptable += 1;
        }
    }
    PointStats {
        errors,
        trials,
        failure_pct: result.failure_rate() * 100.0,
        mean_score: certa_fault::mean(&scores),
        acceptable_pct: if trials == 0 {
            0.0
        } else {
            acceptable as f64 / trials as f64 * 100.0
        },
        detail: certa_fault::mean(&details),
    }
}

/// Object-safe helper: a `&dyn Workload` is also usable as `&dyn Target`.
pub trait AsTarget {
    /// Upcasts to the fault-injection target view.
    fn as_target(&self) -> &dyn certa_fault::Target;
}

impl AsTarget for dyn Workload + '_ {
    fn as_target(&self) -> &dyn certa_fault::Target {
        self
    }
}

// ---------------------------------------------------------------------
// Table 1
// ---------------------------------------------------------------------

/// Regenerates Table 1: the application/fidelity-measure inventory.
#[must_use]
pub fn table1() -> String {
    let mut out = String::new();
    let _ = writeln!(out, "Table 1: applications and their fidelity measures");
    let _ = writeln!(out, "{:<10} {:<55} measure", "app", "description");
    for w in all_workloads() {
        let _ = writeln!(
            out,
            "{:<10} {:<55} {}",
            w.name(),
            w.description(),
            w.fidelity_measure()
        );
    }
    out
}

// ---------------------------------------------------------------------
// Table 2
// ---------------------------------------------------------------------

/// One Table 2 row.
#[derive(Debug, Clone)]
pub struct Table2Row {
    /// Application name.
    pub app: &'static str,
    /// Errors injected per trial.
    pub errors: u64,
    /// Golden dynamic instruction count.
    pub instructions: u64,
    /// % catastrophic failures with control protection.
    pub with_protection_pct: f64,
    /// % catastrophic failures without protection.
    pub without_protection_pct: f64,
}

/// The paper's Table 2 error levels per application (low, high).
#[must_use]
pub fn table2_error_levels(app: &str) -> Vec<u64> {
    match app {
        "susan" => vec![2200],
        "mpeg" => vec![20, 120],
        "mcf" => vec![1, 340],
        "blowfish" => vec![2, 20],
        "gsm" => vec![10, 40],
        "art" => vec![4],
        "adpcm" => vec![3, 56],
        _ => vec![1],
    }
}

/// Regenerates Table 2: % catastrophic failures with and without control
/// protection, at the paper's per-application error counts. Every point
/// of a workload runs on one golden session.
#[must_use]
pub fn table2(trials: usize, seed: u64) -> Vec<Table2Row> {
    let mut rows = Vec::new();
    for w in all_workloads() {
        let tags = analyze(w.program());
        let golden = golden_session(&*w);
        for errors in table2_error_levels(w.name()) {
            let point = |protection, seed| {
                measure_point(&golden, &*w, &tags, protection, errors, trials, seed)
            };
            let with = point(Protection::ControlOnly, seed);
            let without = point(Protection::None, seed ^ 1);
            rows.push(Table2Row {
                app: w.name(),
                errors,
                instructions: golden.instructions(),
                with_protection_pct: with.failure_pct,
                without_protection_pct: without.failure_pct,
            });
        }
    }
    rows
}

/// Renders Table 2 rows in the paper's layout.
#[must_use]
pub fn render_table2(rows: &[Table2Row]) -> String {
    let mut out = String::new();
    let _ = writeln!(
        out,
        "Table 2: % catastrophic failures (infinite runs or crashes)"
    );
    let _ = writeln!(
        out,
        "{:<10} {:>8} {:>14} {:>18} {:>20}",
        "app", "errors", "instructions", "% fail (with)", "% fail (without)"
    );
    for r in rows {
        let _ = writeln!(
            out,
            "{:<10} {:>8} {:>14} {:>17.1}% {:>19.1}%",
            r.app, r.errors, r.instructions, r.with_protection_pct, r.without_protection_pct
        );
    }
    out
}

// ---------------------------------------------------------------------
// Table 3
// ---------------------------------------------------------------------

/// One Table 3 row.
#[derive(Debug, Clone)]
pub struct Table3Row {
    /// Application name.
    pub app: &'static str,
    /// Golden dynamic instruction count.
    pub instructions: u64,
    /// % of dynamic instructions tagged low-reliability.
    pub low_reliability_pct: f64,
    /// % of static instructions tagged low-reliability.
    pub static_low_reliability_pct: f64,
}

/// Regenerates Table 3: dynamic instruction counts and the percentage the
/// static analysis tags as low-reliability. Each workload's profile comes
/// from one golden run without checkpoints, on native code under the
/// `aot` feature.
#[must_use]
pub fn table3() -> Vec<Table3Row> {
    let profile_only = CampaignConfig {
        checkpointing: false,
        ..CampaignConfig::default()
    };
    let mut rows = Vec::new();
    for w in all_workloads() {
        let tags = analyze(w.program());
        let golden = GoldenSession::new(
            w.as_target(),
            &profile_only,
            aot_workloads::for_program(w.program()),
        );
        rows.push(Table3Row {
            app: w.name(),
            instructions: golden.instructions(),
            low_reliability_pct: tags.dynamic_low_reliability_fraction(golden.exec_counts())
                * 100.0,
            static_low_reliability_pct: tags.stats().low_reliability_fraction() * 100.0,
        });
    }
    rows
}

/// Renders Table 3 rows in the paper's layout.
#[must_use]
pub fn render_table3(rows: &[Table3Row]) -> String {
    let mut out = String::new();
    let _ = writeln!(
        out,
        "Table 3: dynamic instructions identified as not leading to control"
    );
    let _ = writeln!(
        out,
        "{:<10} {:>14} {:>22} {:>21}",
        "app", "instructions", "% low-rel (dynamic)", "% low-rel (static)"
    );
    for r in rows {
        let _ = writeln!(
            out,
            "{:<10} {:>14} {:>21.1}% {:>20.1}%",
            r.app, r.instructions, r.low_reliability_pct, r.static_low_reliability_pct
        );
    }
    out
}

// ---------------------------------------------------------------------
// Figures 1–6
// ---------------------------------------------------------------------

/// Specification of one figure sweep.
#[derive(Debug, Clone)]
pub struct FigureSpec {
    /// Figure id in the paper ("fig1" ... "fig6").
    pub id: &'static str,
    /// Workload name.
    pub app: &'static str,
    /// Error counts swept on the x-axis.
    pub errors: Vec<u64>,
    /// Label of the workload-specific detail column.
    pub detail_label: &'static str,
    /// Whether to also sweep with static analysis OFF (Figure 1 does).
    pub include_unprotected: bool,
}

impl FigureSpec {
    /// Figure 1: Susan PSNR vs. errors, static analysis ON and OFF.
    #[must_use]
    pub fn susan() -> Self {
        FigureSpec {
            id: "fig1",
            app: "susan",
            errors: vec![100, 500, 920, 1100, 1550, 2300],
            detail_label: "mean PSNR (dB)",
            include_unprotected: true,
        }
    }

    /// Figure 2: MPEG % bad frames + % failures vs. errors.
    #[must_use]
    pub fn mpeg() -> Self {
        FigureSpec {
            id: "fig2",
            app: "mpeg",
            errors: vec![1, 2, 5, 10, 20, 50],
            detail_label: "% bad frames",
            include_unprotected: false,
        }
    }

    /// Figure 3: MCF % optimal schedules + % failures vs. errors.
    #[must_use]
    pub fn mcf() -> Self {
        FigureSpec {
            id: "fig3",
            app: "mcf",
            errors: vec![1, 5, 20, 50, 100, 200, 300],
            detail_label: "% optimal schedules",
            include_unprotected: false,
        }
    }

    /// Figure 4: Blowfish % bytes correct + % failures vs. errors.
    #[must_use]
    pub fn blowfish() -> Self {
        FigureSpec {
            id: "fig4",
            app: "blowfish",
            errors: vec![5, 10, 15, 20, 25, 30, 35, 40],
            detail_label: "% bytes correct",
            include_unprotected: false,
        }
    }

    /// Figure 5: GSM SNR loss + % failures vs. errors.
    #[must_use]
    pub fn gsm() -> Self {
        FigureSpec {
            id: "fig5",
            app: "gsm",
            errors: vec![1, 2, 5, 10, 20, 40],
            detail_label: "SNR loss (dB)",
            include_unprotected: false,
        }
    }

    /// Figure 6: ART % images recognized + % failures vs. errors.
    #[must_use]
    pub fn art() -> Self {
        FigureSpec {
            id: "fig6",
            app: "art",
            errors: vec![1, 2, 3, 4],
            detail_label: "% recognized",
            include_unprotected: false,
        }
    }

    /// All six figures in paper order.
    #[must_use]
    pub fn all() -> Vec<FigureSpec> {
        vec![
            FigureSpec::susan(),
            FigureSpec::mpeg(),
            FigureSpec::mcf(),
            FigureSpec::blowfish(),
            FigureSpec::gsm(),
            FigureSpec::art(),
        ]
    }
}

/// One figure point (protected, plus optionally unprotected).
#[derive(Debug, Clone)]
pub struct FigurePoint {
    /// Protected-run statistics.
    pub protected: PointStats,
    /// Unprotected-run statistics, when the figure includes them.
    pub unprotected: Option<PointStats>,
}

/// Runs one figure's sweep.
///
/// # Panics
///
/// Panics if the spec names an unknown workload.
#[must_use]
pub fn figure(spec: &FigureSpec, trials: usize, seed: u64) -> Vec<FigurePoint> {
    let workloads = all_workloads();
    let w = workloads
        .iter()
        .find(|w| w.name() == spec.app)
        .expect("figure spec names a known workload");
    let tags = analyze(w.program());
    let golden = golden_session(&**w);
    let point = |protection, errors, seed| {
        measure_point(&golden, &**w, &tags, protection, errors, trials, seed)
    };
    spec.errors
        .iter()
        .map(|&errors| {
            let protected = point(Protection::ControlOnly, errors, seed);
            let unprotected = spec
                .include_unprotected
                .then(|| point(Protection::None, errors, seed ^ 0xF));
            FigurePoint {
                protected,
                unprotected,
            }
        })
        .collect()
}

/// Renders a figure sweep as the paper's series.
#[must_use]
pub fn render_figure(spec: &FigureSpec, points: &[FigurePoint]) -> String {
    let mut out = String::new();
    let _ = writeln!(out, "{} ({}): {}", spec.id, spec.app, spec.detail_label);
    if spec.include_unprotected {
        let _ = writeln!(
            out,
            "{:>8} {:>16} {:>16} {:>12} {:>14}",
            "errors", "detail (ON)", "detail (OFF)", "% fail (ON)", "% fail (OFF)"
        );
        for p in points {
            let u = p.unprotected.as_ref().expect("figure includes OFF series");
            let _ = writeln!(
                out,
                "{:>8} {:>16.2} {:>16.2} {:>11.1}% {:>13.1}%",
                p.protected.errors, p.protected.detail, u.detail, p.protected.failure_pct,
                u.failure_pct
            );
        }
    } else {
        let _ = writeln!(
            out,
            "{:>8} {:>16} {:>12} {:>14}",
            "errors", "detail", "% fail", "% acceptable"
        );
        for p in points {
            let _ = writeln!(
                out,
                "{:>8} {:>16.2} {:>11.1}% {:>13.1}%",
                p.protected.errors, p.protected.detail, p.protected.failure_pct,
                p.protected.acceptable_pct
            );
        }
    }
    out
}

// ---------------------------------------------------------------------
// Ablation: the design choices DESIGN.md calls out
// ---------------------------------------------------------------------

/// One ablation row: tag fractions and failure rates under analysis
/// variants.
#[derive(Debug, Clone)]
pub struct AblationRow {
    /// Application name.
    pub app: &'static str,
    /// Analysis variant label.
    pub variant: &'static str,
    /// % of dynamic instructions tagged low-reliability.
    pub low_reliability_pct: f64,
    /// % catastrophic failures under protection at the probe error count.
    pub failure_pct: f64,
}

/// Analysis variants studied by the ablation.
#[must_use]
pub fn ablation_variants() -> Vec<(&'static str, AnalysisOptions)> {
    vec![
        ("default", AnalysisOptions::default()),
        (
            "no-addr-protect",
            AnalysisOptions {
                protect_addresses: false,
                ..AnalysisOptions::default()
            },
        ),
        (
            "no-mask-break",
            AnalysisOptions {
                mask_breaks_address_chains: false,
                ..AnalysisOptions::default()
            },
        ),
        (
            "no-load-tagging",
            AnalysisOptions {
                tag_loads: false,
                ..AnalysisOptions::default()
            },
        ),
    ]
}

/// Runs the ablation over every workload: how each analysis design choice
/// moves the taggable fraction and the protected failure rate. Every
/// variant of a workload runs on one golden session (the golden run does
/// not depend on the tag map).
#[must_use]
pub fn ablation(trials: usize, errors: u64, seed: u64) -> Vec<AblationRow> {
    let mut rows = Vec::new();
    for w in all_workloads() {
        let golden = golden_session(&*w);
        for (variant, opts) in ablation_variants() {
            let tags = analyze_with(w.program(), &opts);
            let point = measure_point(
                &golden,
                &*w,
                &tags,
                Protection::ControlOnly,
                errors,
                trials,
                seed,
            );
            rows.push(AblationRow {
                app: w.name(),
                variant,
                low_reliability_pct: tags.dynamic_low_reliability_fraction(golden.exec_counts())
                    * 100.0,
                failure_pct: point.failure_pct,
            });
        }
    }
    rows
}

/// Renders ablation rows.
#[must_use]
pub fn render_ablation(rows: &[AblationRow]) -> String {
    let mut out = String::new();
    let _ = writeln!(
        out,
        "Ablation: analysis design choices vs. taggable fraction and protected failure rate"
    );
    let _ = writeln!(
        out,
        "{:<10} {:<18} {:>20} {:>12}",
        "app", "variant", "% low-rel (dyn)", "% fail"
    );
    for r in rows {
        let _ = writeln!(
            out,
            "{:<10} {:<18} {:>19.1}% {:>11.1}%",
            r.app, r.variant, r.low_reliability_pct, r.failure_pct
        );
    }
    out
}

// ---------------------------------------------------------------------
// Bench reporting: BENCH_*.json artifacts
// ---------------------------------------------------------------------

/// Geometric mean of strictly positive values (`0.0` for an empty slice).
/// Used by the throughput benches to aggregate per-workload speedups
/// without letting one outlier workload dominate.
#[must_use]
pub fn geomean(values: &[f64]) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let log_sum: f64 = values.iter().map(|v| v.ln()).sum();
    (log_sum / values.len() as f64).exp()
}

// ---------------------------------------------------------------------
// Clock-drift-resistant tier timing (shared by the dispatch bench and
// the sbtune example)
// ---------------------------------------------------------------------

/// Median of the samples (`0.0` for an empty slice).
#[must_use]
pub fn median(mut v: Vec<f64>) -> f64 {
    if v.is_empty() {
        return 0.0;
    }
    v.sort_by(f64::total_cmp);
    v[v.len() / 2]
}

/// Per-tier timing results from [`time_tiers`].
pub struct TierRounds {
    /// Best (lowest) sample value observed per tier.
    pub best: Vec<f64>,
    /// `rounds[r][tier]`: the sample every tier produced in round `r`.
    rounds: Vec<Vec<f64>>,
}

impl TierRounds {
    /// Median over rounds of `rounds[r][num] / rounds[r][den]` — a
    /// tier-vs-tier ratio taken within each round, so it stays meaningful
    /// on hosts whose clock drifts between rounds (each round samples the
    /// tiers back-to-back at nearly one clock operating point).
    #[must_use]
    pub fn median_ratio(&self, num: usize, den: usize) -> f64 {
        median(self.rounds.iter().map(|r| r[num] / r[den]).collect())
    }
}

/// Runs `rounds` timing rounds; in each round every sampler is invoked
/// once, back-to-back, and should return a cost metric where *lower is
/// better* (e.g. seconds per simulated instruction over a rep-accumulated
/// sample long enough not to alias host clock stepping). Compare tiers
/// through [`TierRounds::median_ratio`], not across separately-timed
/// runs.
///
/// Within a round the samplers run in **rotated order** (round `r` starts
/// at sampler `r % n`): a clock regime that decays or ramps *during* a
/// round would otherwise bias whichever tier always samples last, and the
/// median over rounds cannot remove a bias that is systematic in sampler
/// position. Rotation turns position bias into symmetric noise the median
/// does absorb.
pub fn time_tiers(rounds: usize, samplers: &mut [&mut dyn FnMut() -> f64]) -> TierRounds {
    let n = samplers.len();
    let mut best = vec![f64::MAX; n];
    let mut all = Vec::with_capacity(rounds);
    for r in 0..rounds {
        let mut round = vec![0.0f64; n];
        for k in 0..n {
            let slot = (r + k) % n;
            let v = samplers[slot]();
            if v < best[slot] {
                best[slot] = v;
            }
            round[slot] = v;
        }
        all.push(round);
    }
    TierRounds { best, rounds: all }
}

/// The workspace root: the nearest ancestor of the current directory
/// holding a `Cargo.lock` (benches and bins run with the *package*
/// directory as CWD), falling back to the current directory itself.
///
/// # Errors
///
/// Propagates the underlying [`std::io::Error`] if the current directory
/// cannot be resolved.
pub fn workspace_root() -> std::io::Result<std::path::PathBuf> {
    let cwd = std::env::current_dir()?;
    for dir in cwd.ancestors() {
        if dir.join("Cargo.lock").is_file() {
            return Ok(dir.to_path_buf());
        }
    }
    Ok(cwd)
}

/// Writes `BENCH_{name}.json` into the workspace root (see
/// [`workspace_root`]), so CI can upload every `BENCH_*.json` as a build
/// artifact and track the perf trajectory across PRs. Returns the path
/// written.
///
/// # Errors
///
/// Propagates the underlying [`std::io::Error`] if the file cannot be
/// written.
pub fn write_bench_json(name: &str, json: &str) -> std::io::Result<std::path::PathBuf> {
    let path = workspace_root()?.join(format!("BENCH_{name}.json"));
    std::fs::write(&path, json)?;
    Ok(path)
}

/// Serializes [`certa_fault::HarnessStats`] as a JSON object — the
/// containment counters belong in every `BENCH_*.json` that runs
/// campaigns, so harness health (panics, timeouts, retries, rebuilds,
/// retried-out trials) is tracked across PRs alongside throughput.
#[must_use]
pub fn harness_json(stats: &certa_fault::HarnessStats) -> String {
    format!(
        "{{\"panics\":{},\"timeouts\":{},\"retries\":{},\"rebuilds\":{},\"harness_errors\":{}}}",
        stats.panics, stats.timeouts, stats.retries, stats.rebuilds, stats.harness_errors
    )
}

/// Extracts the numeric value of `"key": <number>` from a flat JSON
/// document — the `BENCH_*.json` summaries are written by this crate with
/// a known shape, so a dependency-free scan is all the trajectory checker
/// needs. Returns the first occurrence; `None` when the key is missing or
/// its value does not parse as a number.
#[must_use]
pub fn json_number(json: &str, key: &str) -> Option<f64> {
    json_number_from(json, 0, key)
}

/// Like [`json_number`], but scanning only from byte offset `from` — the
/// building block for per-record extraction in array-of-objects summaries.
#[must_use]
pub fn json_number_from(json: &str, from: usize, key: &str) -> Option<f64> {
    let needle = format!("\"{key}\":");
    let start = from + json.get(from..)?.find(&needle)? + needle.len();
    let rest = json[start..].trim_start();
    let end = rest
        .find(|c: char| !(c.is_ascii_digit() || matches!(c, '.' | '-' | '+' | 'e' | 'E')))
        .unwrap_or(rest.len());
    rest[..end].parse().ok()
}

/// Extracts `key` from the workload record named `name` in a
/// `BENCH_dispatch.json`-shaped document (an array of
/// `{"name":"...", ...}` objects): finds the record's `"name"` anchor and
/// reads the first `key` after it. `None` when the workload or key is
/// missing.
#[must_use]
pub fn json_workload_number(json: &str, name: &str, key: &str) -> Option<f64> {
    let anchor = format!("\"name\":\"{name}\"");
    let start = json.find(&anchor)? + anchor.len();
    // Bound the scan at the record's closing brace: a key missing from
    // *this* record must return `None`, not the next record's value.
    let end = start + json[start..].find('}').unwrap_or(json.len() - start);
    json_number_from(&json[..end], start, key)
}

/// The workload names present in a `BENCH_dispatch.json`-shaped document,
/// in order of appearance.
#[must_use]
pub fn json_workload_names(json: &str) -> Vec<String> {
    let mut names = Vec::new();
    let mut at = 0;
    while let Some(pos) = json[at..].find("\"name\":\"") {
        let start = at + pos + "\"name\":\"".len();
        let Some(end) = json[start..].find('"') else {
            break;
        };
        names.push(json[start..start + end].to_string());
        at = start + end;
    }
    names
}

/// Parses the `--trials N` / `--seed N` CLI convention used by the
/// `repro_*` binaries from `args` (without the program name). Returns
/// `(trials, seed)`; either flag may be omitted (`default_trials`, seed
/// `0xCE27A`).
///
/// # Errors
///
/// An unknown argument, a flag without a value, or a value that is not a
/// non-negative decimal integer.
pub fn parse_args(args: &[String], default_trials: usize) -> Result<(usize, u64), String> {
    let mut trials = default_trials;
    let mut seed = 0xCE27A;
    let mut args = args.iter();
    while let Some(flag) = args.next() {
        let value = match flag.as_str() {
            "--trials" | "--seed" => args.next().ok_or_else(|| format!("{flag} needs a value"))?,
            other => return Err(format!("unknown argument {other:?}")),
        };
        let invalid = |_| format!("{flag} takes a non-negative integer, got {value:?}");
        if flag == "--trials" {
            trials = value.parse().map_err(invalid)?;
        } else {
            seed = value.parse().map_err(invalid)?;
        }
    }
    Ok((trials, seed))
}

/// [`parse_args`] over the process arguments. On bad input it prints the
/// problem and the usage to stderr and exits with code 2, so a typo never
/// silently runs the defaults.
#[must_use]
pub fn parse_cli(default_trials: usize) -> (usize, u64) {
    let args: Vec<String> = std::env::args().skip(1).collect();
    parse_args(&args, default_trials).unwrap_or_else(|e| {
        let program = std::env::args().next().unwrap_or_default();
        eprintln!("{program}: {e}\nusage: {program} [--trials N] [--seed N]");
        std::process::exit(2)
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table1_lists_all_apps() {
        let t = table1();
        for app in ["susan", "mpeg", "mcf", "blowfish", "gsm", "art", "adpcm"] {
            assert!(t.contains(app), "table1 missing {app}");
        }
    }

    #[test]
    fn table3_covers_all_apps_with_sane_fractions() {
        let rows = table3();
        assert_eq!(rows.len(), 7);
        for r in &rows {
            assert!(r.instructions > 1_000, "{} too small", r.app);
            assert!((0.0..=100.0).contains(&r.low_reliability_pct));
        }
        // MCF must be the least taggable (the paper's outlier)
        let mcf = rows.iter().find(|r| r.app == "mcf").expect("mcf row");
        for r in &rows {
            if r.app != "mcf" {
                assert!(
                    mcf.low_reliability_pct <= r.low_reliability_pct + 15.0,
                    "mcf ({:.1}%) should be near the bottom vs {} ({:.1}%)",
                    mcf.low_reliability_pct,
                    r.app,
                    r.low_reliability_pct
                );
            }
        }
    }

    #[test]
    fn measure_point_zero_errors_is_perfect() {
        let workloads = all_workloads();
        let w = workloads.iter().find(|w| w.name() == "adpcm").expect("adpcm");
        let tags = analyze(w.program());
        let p = measure_point(
            &golden_session(&**w),
            &**w,
            &tags,
            Protection::ControlOnly,
            0,
            3,
            1,
        );
        assert_eq!(p.failure_pct, 0.0);
        assert_eq!(p.acceptable_pct, 100.0);
        assert_eq!(p.mean_score, 1.0);
    }

    #[test]
    fn json_number_extracts_bench_metrics() {
        let json = r#"{"bench":"dispatch","geomean_speedup":2.076,"neg":-1.5e2,"workloads":[{"speedup":9.9}]}"#;
        assert_eq!(json_number(json, "geomean_speedup"), Some(2.076));
        assert_eq!(json_number(json, "neg"), Some(-150.0));
        assert_eq!(json_number(json, "speedup"), Some(9.9));
        assert_eq!(json_number(json, "missing"), None);
        assert_eq!(json_number(r#"{"bench":"x"}"#, "bench"), None);
    }

    #[test]
    fn json_workload_helpers_extract_per_record_metrics() {
        let json = r#"{"bench":"dispatch","geomean_speedup":1.5,"workloads":[
            {"name":"susan","speedup":2.1,"speedup_vs_fused":1.5},
            {"name":"mpeg","speedup":1.6,"speedup_vs_fused":1.2}]}"#;
        assert_eq!(json_workload_names(json), ["susan", "mpeg"]);
        assert_eq!(json_workload_number(json, "susan", "speedup"), Some(2.1));
        assert_eq!(
            json_workload_number(json, "mpeg", "speedup_vs_fused"),
            Some(1.2)
        );
        assert_eq!(json_workload_number(json, "mpeg", "speedup"), Some(1.6));
        assert_eq!(json_workload_number(json, "gsm", "speedup"), None);
        assert_eq!(json_workload_number(json, "susan", "missing"), None);
        assert_eq!(json_workload_names("{}"), Vec::<String>::new());
    }

    #[test]
    fn time_tiers_rotates_sampler_order() {
        // Record invocation order across rounds: with 3 samplers and 3
        // rounds, each sampler must lead exactly one round.
        let order = std::cell::RefCell::new(Vec::new());
        let mut s0 = || {
            order.borrow_mut().push(0);
            1.0
        };
        let mut s1 = || {
            order.borrow_mut().push(1);
            2.0
        };
        let mut s2 = || {
            order.borrow_mut().push(2);
            4.0
        };
        let timing = time_tiers(3, &mut [&mut s0, &mut s1, &mut s2]);
        assert_eq!(
            order.into_inner(),
            [0, 1, 2, 1, 2, 0, 2, 0, 1],
            "round r starts at sampler r % n"
        );
        assert_eq!(timing.best, [1.0, 2.0, 4.0]);
        assert!((timing.median_ratio(0, 1) - 0.5).abs() < 1e-12);
        assert!((timing.median_ratio(2, 1) - 2.0).abs() < 1e-12);
    }

    #[test]
    fn geomean_basics() {
        assert_eq!(geomean(&[]), 0.0);
        assert!((geomean(&[4.0]) - 4.0).abs() < 1e-12);
        assert!((geomean(&[1.0, 4.0]) - 2.0).abs() < 1e-12);
        assert!((geomean(&[2.0, 2.0, 2.0]) - 2.0).abs() < 1e-12);
        // Order-independent.
        assert!((geomean(&[0.5, 8.0]) - geomean(&[8.0, 0.5])).abs() < 1e-12);
    }

    #[test]
    fn parse_args_accepts_the_two_flags_in_any_order() {
        let args = |v: &[&str]| v.iter().map(|s| (*s).to_string()).collect::<Vec<_>>();
        assert_eq!(parse_args(&args(&[]), 40), Ok((40, 0xCE27A)));
        assert_eq!(
            parse_args(&args(&["--trials", "1000"]), 40),
            Ok((1000, 0xCE27A))
        );
        assert_eq!(
            parse_args(&args(&["--seed", "7", "--trials", "3"]), 40),
            Ok((3, 7))
        );
    }

    #[test]
    fn parse_args_rejects_bad_input() {
        let err = |v: &[&str]| {
            let args: Vec<String> = v.iter().map(|s| (*s).to_string()).collect();
            parse_args(&args, 40).expect_err("must be rejected")
        };
        assert!(err(&["--trails", "1000"]).contains("unknown argument"));
        assert!(err(&["1000"]).contains("unknown argument"));
        assert!(err(&["--trials"]).contains("needs a value"));
        assert!(err(&["--trials", "40", "--seed"]).contains("needs a value"));
        assert!(err(&["--trials", "1e3"]).contains("non-negative integer"));
        assert!(err(&["--trials", "-5"]).contains("non-negative integer"));
        assert!(err(&["--seed", "0xCE27A"]).contains("non-negative integer"));
    }

    #[test]
    fn figure_specs_cover_the_six_figures() {
        let ids: Vec<&str> = FigureSpec::all().iter().map(|s| s.id).collect();
        assert_eq!(ids, ["fig1", "fig2", "fig3", "fig4", "fig5", "fig6"]);
    }

    #[test]
    fn render_figure_smoke() {
        let spec = FigureSpec {
            id: "fig6",
            app: "art",
            errors: vec![1],
            detail_label: "% recognized",
            include_unprotected: false,
        };
        let points = figure(&spec, 2, 9);
        let text = render_figure(&spec, &points);
        assert!(text.contains("fig6"));
        assert!(text.contains("errors"));
    }
}
