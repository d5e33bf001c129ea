//! `certa-perfbench`: the repository's end-to-end and per-layer
//! benchmark (see `README.md` beside this crate).
//!
//! `--workload W --seed N --seconds S --trace T` repeats workload `W` in
//! child processes of this binary (one process per repetition, so set-up
//! and peak memory belong to that repetition alone) for at most about `S`
//! seconds, checks every output, and prints the medians. The last line of
//! stdout is the JSON result. With `--trace 1` repetitions alternate
//! between untraced and traced, and the result holds the per-layer
//! metrics of the traced ones.

mod cli;
mod digest;
mod metrics;
mod trace;
mod work;

use std::fmt::Write as _;
use std::io::Read as _;
use std::path::Path;
use std::process::{Command, ExitCode, Stdio};
use std::time::{Duration, Instant};

use cli::{Mode, Workload, DEFAULT_SEED};
use metrics::{median, END_TO_END, PER_LAYER};
use work::Rep;

/// Untraced repetitions a `--trace 0` run makes at least.
const MIN_REPS: usize = 3;
/// A repetition still running after this long is killed and fails.
const REP_LIMIT: Duration = Duration::from_secs(120);
/// No repetition starts that would be expected to end after this.
const RUN_LIMIT: Duration = Duration::from_secs(150);

fn main() -> ExitCode {
    let started = Instant::now();
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mode = match cli::parse(&args) {
        Ok(mode) => mode,
        Err(e) => {
            eprintln!("certa-perfbench: {e}\n{}", cli::USAGE);
            return ExitCode::from(2);
        }
    };
    match mode {
        Mode::Child {
            workload,
            seed,
            trace,
            verify,
        } => {
            print!(
                "{}",
                report(&work::run(workload, seed, trace, verify, started))
            );
            ExitCode::SUCCESS
        }
        Mode::Measure {
            workloads,
            seed,
            seconds,
            trace,
        } => measure(&workloads, seed, Duration::from_secs(seconds), trace),
        Mode::Bless => bless(),
    }
}

// ---------------------------------------------------------------------
// Child → parent report
// ---------------------------------------------------------------------

/// A repetition's result as `kind name value` lines.
fn report(rep: &Rep) -> String {
    let mut out = String::new();
    for (name, value) in [
        ("wall_s", rep.wall_s),
        ("setup_s", rep.setup_s),
        ("scheduled", rep.scheduled as f64),
        ("completed", rep.completed as f64),
        ("peak_rss_mib", rep.peak_rss_mib),
    ] {
        let _ = writeln!(out, "rep {name} {value:?}");
    }
    for (point, digest) in &rep.points {
        let _ = writeln!(out, "point {point} {digest:016x}");
    }
    for (name, value) in &rep.layers {
        let _ = writeln!(out, "layer {name} {value:?}");
    }
    for problem in &rep.problems {
        let _ = writeln!(out, "problem {}", problem.replace('\n', " "));
    }
    out
}

fn parse_report(text: &str) -> Result<Rep, String> {
    let mut rep = Rep::default();
    let mut seen = 0;
    for line in text.lines() {
        let (kind, rest) = line.split_once(' ').unwrap_or((line, ""));
        if kind == "problem" {
            rep.problems.push(rest.to_string());
            continue;
        }
        let (name, value) = rest
            .split_once(' ')
            .ok_or_else(|| format!("malformed report line {line:?}"))?;
        let number = |v: &str| v.parse::<f64>().map_err(|e| format!("{line:?}: {e}"));
        match kind {
            "rep" => {
                let v = number(value)?;
                seen += 1;
                match name {
                    "wall_s" => rep.wall_s = v,
                    "setup_s" => rep.setup_s = v,
                    "scheduled" => rep.scheduled = v as u64,
                    "completed" => rep.completed = v as u64,
                    "peak_rss_mib" => rep.peak_rss_mib = v,
                    _ => return Err(format!("unknown report field {line:?}")),
                }
            }
            "point" => {
                let digest =
                    u64::from_str_radix(value, 16).map_err(|e| format!("{line:?}: {e}"))?;
                rep.points.push((name.to_string(), digest));
            }
            "layer" => {
                let metric = PER_LAYER
                    .iter()
                    .find(|m| m.name == name)
                    .ok_or_else(|| format!("unknown layer metric {line:?}"))?;
                rep.layers.insert(metric.name, number(value)?);
            }
            _ => return Err(format!("unknown report line {line:?}")),
        }
    }
    if seen != 5 {
        return Err("incomplete repetition report".into());
    }
    Ok(rep)
}

/// Runs one repetition in a child process of this binary.
fn run_rep(
    exe: &Path,
    workload: Workload,
    seed: u64,
    trace: bool,
    verify: bool,
) -> Result<Rep, String> {
    let flag = |on: bool| if on { "1" } else { "0" };
    let mut child = Command::new(exe)
        .args([
            "--child",
            "--workload",
            workload.name(),
            "--seed",
            &seed.to_string(),
        ])
        .args(["--trace", flag(trace), "--verify", flag(verify)])
        .stdin(Stdio::null())
        .stdout(Stdio::piped())
        .stderr(Stdio::inherit())
        .spawn()
        .map_err(|e| format!("cannot start {}: {e}", exe.display()))?;
    let mut stdout = child.stdout.take().expect("stdout is piped");
    let reader = std::thread::spawn(move || {
        let mut text = String::new();
        stdout.read_to_string(&mut text).map(|_| text)
    });
    let deadline = Instant::now() + REP_LIMIT;
    let status = loop {
        match child.try_wait() {
            Ok(Some(status)) => break Some(status),
            Ok(None) if Instant::now() < deadline => std::thread::sleep(Duration::from_millis(5)),
            _ => {
                let _ = child.kill();
                let _ = child.wait();
                break None;
            }
        }
    };
    let text = reader
        .join()
        .map_err(|_| "stdout reader panicked".to_string())?
        .map_err(|e| format!("cannot read the repetition's report: {e}"))?;
    match status {
        None => Err(format!("killed after {} s", REP_LIMIT.as_secs())),
        Some(status) if !status.success() => Err(format!("exited with {status}")),
        Some(_) => parse_report(&text),
    }
}

// ---------------------------------------------------------------------
// Measurement
// ---------------------------------------------------------------------

/// Every repetition of one workload, and what failed.
#[derive(Default)]
struct Measured {
    plain: Vec<Rep>,
    traced: Vec<Rep>,
    problems: Vec<String>,
}

/// Starts repetitions until the next one would end after `budget`. The
/// first repetition also runs the untimed differential checks; every
/// later one must reproduce its outputs.
fn measure_one(
    exe: &Path,
    workload: Workload,
    seed: u64,
    budget: Duration,
    trace: bool,
) -> Measured {
    let start = Instant::now();
    let (mut verifying, mut longest) = (Duration::ZERO, Duration::ZERO);
    let mut m = Measured::default();
    loop {
        let traced = trace && m.traced.len() < m.plain.len();
        let verify = m.plain.is_empty();
        let rep_start = Instant::now();
        match run_rep(exe, workload, seed, traced, verify) {
            Ok(rep) if traced => m.traced.push(rep),
            Ok(rep) => m.plain.push(rep),
            Err(e) => {
                m.problems
                    .push(format!("{}: repetition failed: {e}", workload.name()));
                break;
            }
        }
        // The first repetition also runs the checks, so the next one is
        // predicted from the longest of the others once there are any.
        let took = rep_start.elapsed();
        if verify {
            verifying = took;
        } else {
            longest = longest.max(took);
        }
        let expected_end = start.elapsed()
            + if longest.is_zero() {
                verifying
            } else {
                longest
            };
        let enough = if trace {
            !m.traced.is_empty()
        } else {
            m.plain.len() >= MIN_REPS
        };
        if (enough && expected_end > budget) || expected_end > RUN_LIMIT {
            break;
        }
    }
    let all: Vec<&Rep> = m.plain.iter().chain(&m.traced).collect();
    for (i, rep) in all.iter().enumerate() {
        for problem in &rep.problems {
            m.problems
                .push(format!("{} repetition {i}: {problem}", workload.name()));
        }
    }
    if let Some(first) = all.first() {
        for (i, rep) in all.iter().enumerate().skip(1) {
            if rep.points != first.points {
                m.problems.push(format!(
                    "{} repetition {i}: outputs differ from repetition 0 at the same seed",
                    workload.name()
                ));
            }
        }
        if seed == DEFAULT_SEED {
            m.problems
                .extend(digest::diverging(workload.name(), &first.points));
        }
    }
    m
}

fn measure(workloads: &[Workload], seed: u64, budget: Duration, trace: bool) -> ExitCode {
    let exe = match std::env::current_exe() {
        Ok(exe) => exe,
        Err(e) => {
            eprintln!("certa-perfbench: cannot locate this binary: {e}");
            return ExitCode::FAILURE;
        }
    };
    let nproc = std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get);
    let mut values: Vec<(String, &'static str, f64)> = Vec::new();
    let (mut attempted, mut failed, mut problems) = (0u64, 0u64, Vec::new());
    for &workload in workloads {
        let m = measure_one(&exe, workload, seed, budget, trace);
        // `repro_all`'s artifact functions run one trial thread per core;
        // each `dist` worker runs one.
        let (trial_threads, dist_workers) = match workload {
            Workload::Repro => (nproc, 0),
            Workload::Dist => (1, work::DIST_WORKERS),
        };
        println!(
            "perfbench workload={} seed={seed} reps={} traced_reps={} nproc={nproc} \
             trial_threads={trial_threads} dist_workers={dist_workers} features=aot",
            workload.name(),
            m.plain.len(),
            m.traced.len(),
        );
        let samples = |f: fn(&Rep) -> f64| {
            m.plain
                .iter()
                .map(|r| format!("{:.3}", f(r)))
                .collect::<Vec<_>>()
                .join(" ")
        };
        println!(
            "perfbench workload={} untraced wall_s samples: {}; setup_s samples: {}",
            workload.name(),
            samples(|r| r.wall_s),
            samples(|r| r.setup_s)
        );
        for rep in m.plain.iter().chain(&m.traced) {
            attempted += rep.scheduled;
            failed += rep.scheduled - rep.completed.min(rep.scheduled);
        }
        let prefix = if workloads.len() > 1 {
            format!("{}.", workload.name())
        } else {
            String::new()
        };
        let measured = if trace {
            layer_values(&m)
        } else {
            end_to_end_values(&m.plain)
        };
        for (name, unit, value) in measured {
            println!("{:<10} {:<28} {value:>16.6} {unit}", workload.name(), name);
            values.push((format!("{prefix}{name}"), unit, value));
        }
        problems.extend(m.problems);
    }
    for problem in &problems {
        eprintln!("certa-perfbench: FAIL {problem}");
    }
    let correct = problems.is_empty();
    if attempted > 0 {
        println!(
            "{}",
            metrics::result_json(correct, attempted, failed, &values)
        );
    }
    if correct && attempted > 0 {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

/// Medians over untraced repetitions.
fn end_to_end_values(reps: &[Rep]) -> Vec<(&'static str, &'static str, f64)> {
    let of = |f: fn(&Rep) -> f64| median(&reps.iter().map(f).collect::<Vec<_>>());
    let scheduled: u64 = reps.iter().map(|r| r.scheduled).sum();
    let completed: u64 = reps.iter().map(|r| r.completed).sum();
    let values = [
        of(|r| r.wall_s),
        of(|r| r.setup_s),
        of(|r| r.completed as f64 / (r.wall_s - r.setup_s)),
        of(|r| r.peak_rss_mib),
        completed as f64 / scheduled.max(1) as f64,
    ];
    END_TO_END
        .iter()
        .zip(values)
        .map(|(m, v)| (m.name, m.unit, v))
        .collect()
}

/// Medians of every per-layer metric over traced repetitions, plus the
/// tracing overhead against the untraced ones.
fn layer_values(m: &Measured) -> Vec<(&'static str, &'static str, f64)> {
    PER_LAYER
        .iter()
        .map(|metric| {
            let value = if metric.name == "trace.overhead_s" {
                median(&m.traced.iter().map(|r| r.wall_s).collect::<Vec<_>>())
                    - median(&m.plain.iter().map(|r| r.wall_s).collect::<Vec<_>>())
            } else {
                median(
                    &m.traced
                        .iter()
                        .map(|r| r.layers.get(metric.name).copied().unwrap_or(0.0))
                        .collect::<Vec<_>>(),
                )
            };
            (metric.name, metric.unit, value)
        })
        .collect()
}

/// Rewrites `digests.txt` from one untraced repetition of every workload
/// at the default seed.
fn bless() -> ExitCode {
    let exe = match std::env::current_exe() {
        Ok(exe) => exe,
        Err(e) => {
            eprintln!("certa-perfbench: cannot locate this binary: {e}");
            return ExitCode::FAILURE;
        }
    };
    let mut text = String::from(
        "# FNV-1a digests of the benchmark's outputs at the default seed 0xCE27A.\n\
         # repro: each artifact of repro_all's text, then the whole text.\n\
         # dist: the campaign's wire-encoded record table plus its verdict\n\
         # counts.\n\
         # Rewritten by `certa-perfbench --bless`; a change here changes results.\n",
    );
    for workload in Workload::ALL {
        match run_rep(&exe, workload, DEFAULT_SEED, false, true) {
            Ok(rep) if rep.problems.is_empty() => {
                for (point, digest) in &rep.points {
                    let _ = writeln!(text, "{} {point} {digest:016x}", workload.name());
                }
            }
            Ok(rep) => {
                for problem in rep.problems {
                    eprintln!("certa-perfbench: {}: {problem}", workload.name());
                }
                return ExitCode::FAILURE;
            }
            Err(e) => {
                eprintln!("certa-perfbench: {}: {e}", workload.name());
                return ExitCode::FAILURE;
            }
        }
    }
    match std::fs::write(digest::COMMITTED_PATH, text) {
        Ok(()) => {
            eprintln!("certa-perfbench: wrote {}", digest::COMMITTED_PATH);
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!(
                "certa-perfbench: cannot write {}: {e}",
                digest::COMMITTED_PATH
            );
            ExitCode::FAILURE
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn report_round_trips() {
        let mut rep = Rep {
            wall_s: 1.25,
            setup_s: 0.125,
            scheduled: 512,
            completed: 511,
            peak_rss_mib: 40.5,
            points: vec![("susan/registers/control_only/e2".into(), 0xdead_beef)],
            problems: vec!["a problem".into()],
            ..Rep::default()
        };
        rep.layers.insert("dist.run_s", 0.5);
        let back = parse_report(&report(&rep)).expect("parses");
        assert_eq!(back.wall_s, rep.wall_s);
        assert_eq!(back.scheduled, 512);
        assert_eq!(back.completed, 511);
        assert_eq!(back.points, rep.points);
        assert_eq!(back.problems, rep.problems);
        assert_eq!(back.layers, rep.layers);
        assert!(parse_report("rep wall_s 1.0\n").is_err());
        assert!(parse_report("layer no.such_metric 1.0\n").is_err());
    }
}
