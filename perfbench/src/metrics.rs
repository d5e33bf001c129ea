//! The benchmark's metrics: names, units and better directions, exactly
//! as `BENCHMARK.json` lists them, plus the JSON result line.

use std::fmt::Write as _;

/// One reported metric.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Metric {
    /// `layer.quantity` name (end-to-end metrics have no layer prefix).
    pub name: &'static str,
    /// Unit, as printed.
    pub unit: &'static str,
    /// `"lower"` or `"higher"`.
    pub better: &'static str,
}

const fn m(name: &'static str, unit: &'static str, better: &'static str) -> Metric {
    Metric { name, unit, better }
}

/// Metrics of untraced runs.
pub const END_TO_END: [Metric; 5] = [
    m("wall_s", "s", "lower"),
    m("setup_s", "s", "lower"),
    m("trials_per_s", "trials/s", "higher"),
    m("peak_rss_mib", "MiB", "lower"),
    m("completed_share", "fraction", "higher"),
];

/// Metrics of traced runs; a metric that does not apply to a workload
/// reads 0.
pub const PER_LAYER: &[Metric] = &[
    m("workloads.build_s", "s", "lower"),
    m("core.analyze_s", "s", "lower"),
    m("sim.decode_s", "s", "lower"),
    m("sim.interp_mips.susan", "MIPS", "higher"),
    m("sim.interp_mips.mpeg", "MIPS", "higher"),
    m("sim.interp_mips.mcf", "MIPS", "higher"),
    m("sim.interp_mips.blowfish", "MIPS", "higher"),
    m("sim.interp_mips.gsm", "MIPS", "higher"),
    m("sim.interp_mips.art", "MIPS", "higher"),
    m("sim.interp_mips.adpcm", "MIPS", "higher"),
    m("sim.interp_mips.geomean", "MIPS", "higher"),
    m("sim.aot_mips.susan", "MIPS", "higher"),
    m("sim.aot_mips.mpeg", "MIPS", "higher"),
    m("sim.aot_mips.mcf", "MIPS", "higher"),
    m("sim.aot_mips.blowfish", "MIPS", "higher"),
    m("sim.aot_mips.gsm", "MIPS", "higher"),
    m("sim.aot_mips.art", "MIPS", "higher"),
    m("sim.aot_mips.adpcm", "MIPS", "higher"),
    m("sim.aot_mips.geomean", "MIPS", "higher"),
    m("fault.session_build_s", "s", "lower"),
    m("fault.sessions", "count", "lower"),
    m("fault.checkpoint_bytes", "bytes", "lower"),
    m("fault.run_s", "s", "lower"),
    m("fault.trials", "count", "higher"),
    m("fault.restore.dirty_page", "count", "higher"),
    m("fault.restore.diff_hop", "count", "lower"),
    m("fault.restore.cache_hits", "count", "higher"),
    m("fault.restore.full_image", "count", "lower"),
    m("fault.golden_like_share", "fraction", "higher"),
    m("fault.harness.retries", "count", "lower"),
    m("fault.harness.timeouts", "count", "lower"),
    m("fault.harness.errors", "count", "lower"),
    m("fault.finish_s", "s", "lower"),
    m("fidelity.classify_s", "s", "lower"),
    m("fidelity.masked", "count", "higher"),
    m("fidelity.tolerable", "count", "higher"),
    m("fidelity.silent", "count", "lower"),
    m("fidelity.crash", "count", "lower"),
    m("fidelity.hang", "count", "lower"),
    m("fidelity.check", "count", "lower"),
    m("fidelity.harness_error", "count", "lower"),
    m("wire.encode_s", "s", "lower"),
    m("wire.decode_s", "s", "lower"),
    m("wire.bytes", "bytes", "lower"),
    m("dist.run_s", "s", "lower"),
    m("dist.worker_s.max", "s", "lower"),
    m("dist.worker_s.min", "s", "lower"),
    m("dist.journal_bytes", "bytes", "lower"),
    m("dist.leases", "count", "lower"),
    m("dist.redeliveries", "count", "lower"),
    m("dist.stale_completions", "count", "lower"),
    m("dist.heartbeats", "count", "lower"),
    m("dist.reconnects", "count", "lower"),
    m("dist.session_builds", "count", "lower"),
    m("dist.overhead_s", "s", "lower"),
    m("repro.table1_s", "s", "lower"),
    m("repro.table2_s", "s", "lower"),
    m("repro.table3_s", "s", "lower"),
    m("repro.fig1_s", "s", "lower"),
    m("repro.fig2_s", "s", "lower"),
    m("repro.fig3_s", "s", "lower"),
    m("repro.fig4_s", "s", "lower"),
    m("repro.fig5_s", "s", "lower"),
    m("repro.fig6_s", "s", "lower"),
    m("repro.ablation_s", "s", "lower"),
    m("trace.overhead_s", "s", "lower"),
];

/// Median of `values` (mean of the middle two for an even count; 0 for
/// none).
#[must_use]
pub fn median(values: &[f64]) -> f64 {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    match v.len() {
        0 => 0.0,
        n if n % 2 == 1 => v[n / 2],
        n => (v[n / 2 - 1] + v[n / 2]) / 2.0,
    }
}

/// The result line: `{"correct":..,"attempted":..,"failed":..,"metrics":{..}}`.
/// Values print with every digit Rust's shortest round-trip form keeps.
#[must_use]
pub fn result_json(
    correct: bool,
    attempted: u64,
    failed: u64,
    values: &[(String, &'static str, f64)],
) -> String {
    let mut metrics = String::new();
    for (i, (name, unit, value)) in values.iter().enumerate() {
        let value = if value.is_finite() { *value } else { 0.0 };
        let _ = write!(
            metrics,
            "{}\"{name}\": {{\"value\": {value:?}, \"unit\": \"{unit}\"}}",
            if i == 0 { "" } else { ", " }
        );
    }
    format!(
        "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{{metrics}}}}}"
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    const BENCHMARK_JSON: &str = include_str!("../../BENCHMARK.json");

    #[test]
    fn benchmark_json_lists_exactly_these_metrics() {
        for metric in END_TO_END.iter().chain(PER_LAYER) {
            let entry = format!(
                "\"name\": \"{}\", \"unit\": \"{}\", \"better\": \"{}\"",
                metric.name, metric.unit, metric.better
            );
            assert!(
                BENCHMARK_JSON.contains(&entry),
                "BENCHMARK.json lacks {entry}"
            );
        }
        let names = BENCHMARK_JSON.matches("\"name\":").count();
        let workloads = crate::cli::Workload::ALL.len();
        assert_eq!(names, END_TO_END.len() + PER_LAYER.len() + workloads);
    }

    #[test]
    fn metric_names_are_unique() {
        let mut names: Vec<&str> = END_TO_END.iter().chain(PER_LAYER).map(|m| m.name).collect();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), END_TO_END.len() + PER_LAYER.len());
    }

    #[test]
    fn median_of_odd_even_and_empty() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
        assert_eq!(median(&[]), 0.0);
    }

    #[test]
    fn result_line_keeps_full_precision() {
        let line = result_json(true, 3, 0, &[("wall_s".into(), "s", 1.234_567_890_123)]);
        assert_eq!(
            line,
            "{\"correct\": true, \"attempted\": 3, \"failed\": 0, \"metrics\": \
             {\"wall_s\": {\"value\": 1.234567890123, \"unit\": \"s\"}}}"
        );
    }
}
