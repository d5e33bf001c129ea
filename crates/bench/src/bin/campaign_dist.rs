//! Distributed-campaign benchmark and robustness gate: drives the
//! `certa-dist` coordinator against real `campaign_worker` OS processes
//! on localhost, and proves the service's two core claims end to end:
//!
//! 1. **Determinism under distribution and loss** — the per-trial record
//!    table of an in-process campaign, a 1-worker and an N-worker
//!    distributed campaign, and an N-worker campaign whose slowest worker
//!    is SIGKILLed mid-lease are all identical, and global reconciliation
//!    holds in every case (the coordinator checks it before returning).
//! 2. **Throughput scaling** — trials/s of the clean (no throttle, no
//!    kill) 1- and N-worker runs, reported per-worker and end-to-end in
//!    `BENCH_dist.json`. The kill run is not timed against them: its
//!    victim's lease returns only after the lease TTL. The ≥2× speedup
//!    gate is enforced only where the host actually has the cores for N
//!    workers; on smaller machines the numbers are still reported, with
//!    the gate recorded as not enforced.
//! 3. **Coordinator durability** — a `campaign_coordinator` subprocess
//!    running the same campaign durably is SIGKILLed *provably*
//!    mid-campaign (its stdout reports accepted chunks; it dies with
//!    `1 ≤ done < total`), a fresh incarnation resumes from the
//!    write-ahead journal with fresh workers, and the recovered record
//!    table must be byte-identical to the inline baseline with at least
//!    one chunk replayed from the journal rather than re-executed.
//! 4. **Wire chaos** — an N-worker campaign whose every connection (both
//!    sides) runs under the adversarial fault-injection schedule
//!    (resets, stalls, bit corruption, duplicate frames, delays) with
//!    secret-authenticated Hellos still converges byte-identically, with
//!    nonzero injected-fault and frame-recovery counters persisted to
//!    `BENCH_dist.json`.
//!
//! The coordinator sessions and the workers run on tier-4 native code
//! when the binaries are built with the `aot` feature (all three: this
//! driver spawns its sibling `campaign_worker` and `campaign_coordinator`
//! binaries); the inline baseline is always interpreted.
//!
//! Usage: `campaign_dist [--trials N] [--seed N]`; environment overrides:
//! `CERTA_DIST_TRIALS`, `CERTA_DIST_WORKERS` (default 4),
//! `CERTA_DIST_WORKLOAD` (default `susan`).
//!
//! Exits non-zero if any record table diverges, any campaign fails
//! reconciliation, or the speedup gate (where enforced) fails.

use std::fmt::Write as _;
use std::io::BufRead as _;
use std::process::{Child, Command, ExitCode, Stdio};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Mutex;
use std::time::{Duration, Instant};

use certa_bench::{aot_workloads, harness_json, parse_cli, write_bench_json, AsTarget};
use certa_core::analyze;
use certa_dist::{ChaosConfig, Coordinator, DistConfig, DistProgress, DistResult};
use certa_fault::wire::{encode_trial_record, ByteWriter};
use certa_fault::{run_campaign, CampaignConfig, CampaignSession, TrialRecord};
use certa_workloads::{all_workloads, Workload};

const ERRORS: u64 = 2;

fn env_usize(key: &str, default: usize) -> usize {
    std::env::var(key)
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(default)
}

fn config(trials: usize, seed: u64) -> CampaignConfig {
    CampaignConfig {
        trials,
        errors: ERRORS,
        seed,
        threads: 1,
        ..CampaignConfig::default()
    }
}

fn dist_config() -> DistConfig {
    DistConfig {
        lease_ttl: Duration::from_secs(2),
        fallback_inline: false,
        chunk_parts: 16,
        worker_threads: 1,
        drain_timeout: Duration::from_secs(300),
        ..DistConfig::default()
    }
}

fn worker_exe() -> std::io::Result<std::path::PathBuf> {
    let me = std::env::current_exe()?;
    Ok(me.with_file_name(format!(
        "campaign_worker{}",
        std::env::consts::EXE_SUFFIX
    )))
}

fn spawn_worker(
    exe: &std::path::Path,
    addr: &str,
    name: &str,
    throttle_ms: Option<u64>,
) -> std::io::Result<Child> {
    spawn_worker_env(exe, addr, name, throttle_ms, &[])
}

fn spawn_worker_env(
    exe: &std::path::Path,
    addr: &str,
    name: &str,
    throttle_ms: Option<u64>,
    env: &[(&str, String)],
) -> std::io::Result<Child> {
    let mut cmd = Command::new(exe);
    cmd.args(["--connect", addr, "--name", name])
        .stdout(Stdio::null())
        .stderr(Stdio::null());
    if let Some(ms) = throttle_ms {
        cmd.env("CERTA_WORKER_THROTTLE_MS", ms.to_string());
    }
    for (key, value) in env {
        cmd.env(key, value);
    }
    cmd.spawn()
}

/// How long worker processes may take to exit after the campaign ends.
const STRAGGLER_GRACE: Duration = Duration::from_secs(5);

/// Waits for `children` to exit until `grace` has passed, then kills the
/// rest; returns how many it killed.
fn reap(children: Vec<Child>, grace: Duration) -> usize {
    let deadline = Instant::now() + grace;
    let mut killed = 0;
    for mut child in children {
        while matches!(child.try_wait(), Ok(None)) {
            if Instant::now() >= deadline {
                let _ = child.kill();
                killed += 1;
                break;
            }
            std::thread::sleep(Duration::from_millis(20));
        }
        let _ = child.wait();
    }
    killed
}

struct DistRun {
    result: DistResult,
    seconds: f64,
    victim_killed: bool,
}

/// Shared secret for the chaos phase — the point is to exercise the
/// authenticated Hello/Welcome path in real subprocesses, not to hide
/// anything.
const CHAOS_SECRET: &str = "campaign-dist-chaos";

/// Runs one distributed campaign with `workers` subprocess workers. With
/// `kill_victim`, worker 0 is throttled (so it provably holds leases) and
/// SIGKILLed as soon as the campaign is demonstrably mid-flight. With
/// `chaos_seed`, every connection on both sides runs under the
/// adversarial fault schedule for that seed and the Hello/Welcome
/// exchange is secret-authenticated.
fn run_dist(
    workload: &dyn Workload,
    trials: usize,
    seed: u64,
    workers: usize,
    kill_victim: bool,
    chaos_seed: Option<u64>,
) -> Result<DistRun, String> {
    let tags = analyze(workload.program());
    let cfg = config(trials, seed);
    let session = CampaignSession::new_with_aot(
        workload.as_target(),
        &tags,
        &cfg,
        aot_workloads::for_program(workload.program()),
    );
    let coordinator = Coordinator::bind("127.0.0.1:0").map_err(|e| e.to_string())?;
    let addr = coordinator.local_addr().map_err(|e| e.to_string())?.to_string();
    let exe = worker_exe().map_err(|e| e.to_string())?;

    let mut dist = dist_config();
    if let Some(chaos) = chaos_seed {
        dist.chaos = Some(ChaosConfig::adversarial(chaos));
        dist.secret = Some(CHAOS_SECRET.into());
        dist.io_timeout = Duration::from_secs(2);
    }

    let mut children: Vec<Child> = Vec::new();
    let mut victim: Option<Mutex<Child>> = None;
    for w in 0..workers {
        let name = format!("worker-{w}");
        let throttle = (kill_victim && w == 0).then_some(150);
        let mut env: Vec<(&str, String)> = Vec::new();
        if let Some(chaos) = chaos_seed {
            env.push(("CERTA_WORKER_CHAOS_SEED", (chaos ^ (w as u64 + 1)).to_string()));
            env.push(("CERTA_WORKER_SECRET", CHAOS_SECRET.into()));
        }
        let child = spawn_worker_env(&exe, &addr, &name, throttle, &env)
            .map_err(|e| format!("cannot spawn {name}: {e}"))?;
        if kill_victim && w == 0 {
            victim = Some(Mutex::new(child));
        } else {
            children.push(child);
        }
    }

    let progress = DistProgress::default();
    let done = AtomicBool::new(false);
    let victim_killed = AtomicBool::new(false);
    let mut outcome: Option<Result<DistResult, String>> = None;
    let started = Instant::now();
    std::thread::scope(|scope| {
        if let Some(victim) = &victim {
            scope.spawn(|| {
                // SIGKILL the victim once at least one chunk has landed —
                // the campaign is then provably mid-flight, and the
                // throttled victim is either holding a lease or about to.
                while !done.load(Ordering::SeqCst) {
                    if progress.chunks_done() >= 1 {
                        if victim.lock().unwrap().kill().is_ok() {
                            victim_killed.store(true, Ordering::SeqCst);
                        }
                        return;
                    }
                    std::thread::sleep(Duration::from_millis(10));
                }
            });
        }
        outcome = Some(
            coordinator
                .run_with_progress(&session, workload.name(), &dist, &progress)
                .map_err(|e| e.to_string()),
        );
        done.store(true, Ordering::SeqCst);
    });
    let seconds = started.elapsed().as_secs_f64();

    // The campaign is over once the coordinator returns. Close its
    // listener, so a worker that lost its connection near the end is
    // refused on reconnect instead of waiting on a backlog nobody
    // accepts, then give the workers a grace period and kill the rest:
    // the records are already in hand.
    drop(coordinator);
    let stragglers = reap(children, STRAGGLER_GRACE);
    if stragglers > 0 {
        eprintln!(
            "campaign_dist: killed {stragglers} worker(s) still running {}s after the campaign ended",
            STRAGGLER_GRACE.as_secs()
        );
    }
    if let Some(victim) = victim {
        let mut child = victim.into_inner().unwrap();
        let _ = child.kill();
        let _ = child.wait();
    }

    outcome.unwrap().map(|result| DistRun {
        result,
        seconds,
        victim_killed: victim_killed.load(Ordering::SeqCst),
    })
}

/// What the coordinator crash/resume phase measured.
struct DurableStats {
    /// Accepted chunks at the instant the first coordinator was killed.
    killed_at_chunks: usize,
    /// Total chunks in the campaign plan.
    total_chunks: usize,
    /// Parsed from the second incarnation's `RESUME` line.
    resumed: bool,
    epoch: u64,
    replayed_chunks: u64,
    replayed_trials: u64,
    /// Completions the resumed incarnation rejected as carrying the dead
    /// incarnation's epoch (0 here is normal: the first incarnation's
    /// workers are killed with it, so usually nothing is left to fence).
    stale_epoch_completions: u64,
    /// Recovered record table byte-identical to the inline baseline.
    records_match: bool,
}

/// The final record table in the campaign wire encoding — the same
/// bytes `campaign_coordinator --records-out` writes.
fn encode_records(trials: &[TrialRecord]) -> Vec<u8> {
    let mut w = ByteWriter::new();
    w.u32(trials.len() as u32);
    for record in trials {
        encode_trial_record(&mut w, record);
    }
    w.finish()
}

fn coordinator_exe() -> std::io::Result<std::path::PathBuf> {
    let me = std::env::current_exe()?;
    Ok(me.with_file_name(format!(
        "campaign_coordinator{}",
        std::env::consts::EXE_SUFFIX
    )))
}

fn spawn_coordinator(
    workload: &str,
    trials: usize,
    seed: u64,
    journal: &std::path::Path,
    records_out: &std::path::Path,
) -> Result<Child, String> {
    let exe = coordinator_exe().map_err(|e| e.to_string())?;
    Command::new(&exe)
        .args([
            "--workload",
            workload,
            "--trials",
            &trials.to_string(),
            "--seed",
            &seed.to_string(),
            "--errors",
            &ERRORS.to_string(),
            "--chunk-parts",
            "16",
            "--journal",
            &journal.display().to_string(),
            "--records-out",
            &records_out.display().to_string(),
        ])
        .stdout(Stdio::piped())
        .stderr(Stdio::null())
        .spawn()
        .map_err(|e| format!("cannot spawn {}: {e}", exe.display()))
}

fn kill_all(children: &mut Vec<Child>) {
    for child in children.iter_mut() {
        let _ = child.kill();
    }
    for mut child in children.drain(..) {
        let _ = child.wait();
    }
}

/// Reads the coordinator subprocess's stdout until its `ADDR` line.
fn read_addr(lines: &mut impl Iterator<Item = std::io::Result<String>>) -> Result<String, String> {
    for line in lines {
        let line = line.map_err(|e| e.to_string())?;
        if let Some(addr) = line.strip_prefix("ADDR ") {
            return Ok(addr.to_string());
        }
    }
    Err("coordinator exited before printing ADDR".into())
}

/// Phase 3: SIGKILL a durable coordinator provably mid-campaign, resume
/// from its journal, gate the recovered record table against the inline
/// baseline.
fn run_durable_crash(
    workload: &str,
    trials: usize,
    seed: u64,
    workers: usize,
    inline_records: &[u8],
) -> Result<DurableStats, String> {
    let pid = std::process::id();
    let journal = std::env::temp_dir().join(format!("certa-dist-crash-{pid}.wal"));
    let records_out = std::env::temp_dir().join(format!("certa-dist-crash-{pid}.records"));
    let _ = std::fs::remove_file(&journal);
    let worker_exe = worker_exe().map_err(|e| e.to_string())?;
    let mut children: Vec<Child> = Vec::new();

    let outcome = (|| {
        // Incarnation 1: throttled workers stretch the campaign so the
        // kill window (1 ≤ done < total) is wide; its stdout proves the
        // kill landed mid-flight.
        let mut coordinator = spawn_coordinator(workload, trials, seed, &journal, &records_out)?;
        let stdout = coordinator.stdout.take().expect("piped stdout");
        let mut lines = std::io::BufReader::new(stdout).lines();
        let addr = match read_addr(&mut lines) {
            Ok(addr) => addr,
            Err(e) => {
                let _ = coordinator.kill();
                let _ = coordinator.wait();
                return Err(e);
            }
        };
        for w in 0..workers {
            children.push(
                spawn_worker(&worker_exe, &addr, &format!("mortal-{w}"), Some(100))
                    .map_err(|e| format!("cannot spawn worker: {e}"))?,
            );
        }
        let mut killed_at: Option<(usize, usize)> = None;
        for line in &mut lines {
            let line = line.map_err(|e| e.to_string())?;
            let Some(progress) = line.strip_prefix("PROGRESS ") else {
                continue;
            };
            let mut parts = progress.split_whitespace();
            let done: usize = parts.next().and_then(|v| v.parse().ok()).unwrap_or(0);
            let total: usize = parts.next().and_then(|v| v.parse().ok()).unwrap_or(0);
            if done >= 1 && done < total {
                let _ = coordinator.kill();
                killed_at = Some((done, total));
                break;
            }
        }
        let _ = coordinator.wait();
        let Some((killed_at_chunks, total_chunks)) = killed_at else {
            return Err("campaign finished before a mid-flight kill was possible".into());
        };
        // The orphaned workers would only burn reconnect budget against a
        // dead port; incarnation 2 gets a fresh crew on a fresh port.
        kill_all(&mut children);

        // Incarnation 2: same journal, fresh everything else.
        let mut coordinator = spawn_coordinator(workload, trials, seed, &journal, &records_out)?;
        let stdout = coordinator.stdout.take().expect("piped stdout");
        let mut lines = std::io::BufReader::new(stdout).lines();
        let addr = match read_addr(&mut lines) {
            Ok(addr) => addr,
            Err(e) => {
                let _ = coordinator.kill();
                let _ = coordinator.wait();
                return Err(e);
            }
        };
        for w in 0..workers {
            children.push(
                spawn_worker(&worker_exe, &addr, &format!("fresh-{w}"), None)
                    .map_err(|e| format!("cannot spawn worker: {e}"))?,
            );
        }
        let mut resume_line: Option<String> = None;
        for line in &mut lines {
            let line = line.map_err(|e| e.to_string())?;
            if line.starts_with("RESUME ") {
                resume_line = Some(line);
            }
        }
        let status = coordinator.wait().map_err(|e| e.to_string())?;
        if !status.success() {
            return Err(format!("resumed coordinator exited with {status}"));
        }
        let resume_line =
            resume_line.ok_or("resumed coordinator finished without a RESUME line")?;
        let field = |key: &str| -> Option<u64> {
            resume_line
                .split_whitespace()
                .find_map(|kv| kv.strip_prefix(&format!("{key}=")))
                .and_then(|v| v.parse().ok())
        };
        let resumed = resume_line.contains("resumed=true");
        let recovered = std::fs::read(&records_out)
            .map_err(|e| format!("cannot read {}: {e}", records_out.display()))?;

        Ok(DurableStats {
            killed_at_chunks,
            total_chunks,
            resumed,
            epoch: field("epoch").unwrap_or(0),
            replayed_chunks: field("replayed_chunks").unwrap_or(0),
            replayed_trials: field("replayed_trials").unwrap_or(0),
            stale_epoch_completions: field("stale_epoch").unwrap_or(0),
            records_match: recovered == inline_records,
        })
    })();

    kill_all(&mut children);
    let _ = std::fs::remove_file(&journal);
    let _ = std::fs::remove_file(&records_out);
    outcome
}

fn main() -> ExitCode {
    let (cli_trials, seed) = parse_cli(256);
    let trials = env_usize("CERTA_DIST_TRIALS", cli_trials);
    let workers = env_usize("CERTA_DIST_WORKERS", 4).max(2);
    let workload_name =
        std::env::var("CERTA_DIST_WORKLOAD").unwrap_or_else(|_| "susan".into());
    let Some(workload) = all_workloads()
        .into_iter()
        .find(|w| w.name() == workload_name)
    else {
        eprintln!("campaign_dist: unknown workload {workload_name:?}");
        return ExitCode::FAILURE;
    };
    let workload = &*workload;
    let cores = std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get);

    // Inline baseline: the ordinary in-process campaign, interpreted in
    // every build — so under the `aot` feature each phase below checks
    // native workers against the interpreter.
    eprintln!("campaign_dist: inline baseline ({trials} trials of {workload_name})");
    let tags = analyze(workload.program());
    let inline_started = Instant::now();
    let inline = run_campaign(workload.as_target(), &tags, &config(trials, seed));
    let inline_seconds = inline_started.elapsed().as_secs_f64();

    let phase = |label: &str, n: usize, kill_victim: bool, chaos_seed: Option<u64>| {
        eprintln!("campaign_dist: {label}");
        run_dist(workload, trials, seed, n, kill_victim, chaos_seed)
            .map_err(|e| eprintln!("campaign_dist: {label}: run failed: {e}"))
    };
    let Ok(one) = phase("1 worker process", 1, false, None) else {
        return ExitCode::FAILURE;
    };
    let Ok(multi) = phase(&format!("{workers} worker processes"), workers, false, None) else {
        return ExitCode::FAILURE;
    };
    let kill_label = format!("{workers} worker processes, SIGKILLing one mid-run");
    let Ok(kill) = phase(&kill_label, workers, true, None) else {
        return ExitCode::FAILURE;
    };
    eprintln!("campaign_dist: durable coordinator, SIGKILLed mid-campaign and resumed");
    let inline_records = encode_records(&inline.trials);
    let durable = match run_durable_crash(&workload_name, trials, seed, workers, &inline_records) {
        Ok(stats) => stats,
        Err(e) => {
            eprintln!("campaign_dist: durable crash/resume phase failed: {e}");
            return ExitCode::FAILURE;
        }
    };

    let chaos_seed = seed ^ 0xc4a05;
    let chaos_label = format!("{workers} worker processes under adversarial wire chaos");
    let Ok(chaos) = phase(&chaos_label, workers, false, Some(chaos_seed)) else {
        return ExitCode::FAILURE;
    };

    let one_matches = one.result.campaign.trials == inline.trials;
    let multi_matches = multi.result.campaign.trials == inline.trials;
    let kill_matches = kill.result.campaign.trials == inline.trials;
    let chaos_matches = chaos.result.campaign.trials == inline.trials;
    let chaos_injected = chaos.result.chaos.injected();
    // Wire-recovery evidence at the coordinator: corrupt frames it
    // dropped and duplicates it absorbed both originate from the
    // *workers'* chaos domains, so nonzero counts prove the subprocess
    // env hooks took effect end to end.
    let chaos_recovered =
        chaos.result.wire.corrupt_frames + chaos.result.wire.duplicate_frames;
    let tps = |seconds: f64| trials as f64 / seconds.max(1e-9);
    let inline_tps = tps(inline_seconds);
    let one_tps = tps(one.seconds);
    let multi_tps = tps(multi.seconds);
    let speedup = multi_tps / one_tps.max(1e-9);
    // The ≥2× gate needs the cores to exist: N workers plus the
    // coordinator cannot beat one worker on a single-core host, and
    // pretending otherwise would just make the gate flake. Report the
    // measured numbers either way.
    let gate_enforced = cores >= workers;

    let mut per_worker = String::new();
    for (i, w) in multi.result.workers.iter().enumerate() {
        if i > 0 {
            per_worker.push(',');
        }
        let _ = write!(
            per_worker,
            "{{\"name\":{:?},\"leases\":{},\"chunks\":{},\"trials\":{},\"stale\":{},\"heartbeats\":{},\"trials_per_sec\":{:.3}}}",
            w.name,
            w.leases,
            w.chunks_completed,
            w.trials_completed,
            w.stale_completions,
            w.heartbeats,
            w.trials_completed as f64 / multi.seconds.max(1e-9)
        );
    }

    let mut json = String::new();
    let _ = write!(
        json,
        "{{\"bench\":\"campaign_dist\",\"workload\":{workload_name:?},\"trials\":{trials},\"errors\":{ERRORS},\"seed\":{seed},\"cores\":{cores},\
\"inline\":{{\"seconds\":{inline_seconds:.3},\"trials_per_sec\":{inline_tps:.3}}},\
\"one_worker\":{{\"seconds\":{:.3},\"trials_per_sec\":{one_tps:.3},\"redeliveries\":{},\"harness\":{}}},\
\"multi_worker\":{{\"workers\":{workers},\"seconds\":{:.3},\"trials_per_sec\":{multi_tps:.3},\"redeliveries\":{},\"harness\":{},\"per_worker\":[{per_worker}]}},\
\"worker_kill\":{{\"workers\":{workers},\"seconds\":{:.3},\"redeliveries\":{},\"victim_killed\":{},\"records_match\":{kill_matches}}},\
\"durable\":{{\"killed_at_chunks\":{},\"total_chunks\":{},\"resumed\":{},\"epoch\":{},\"replayed_chunks\":{},\"replayed_trials\":{},\"stale_epoch_completions\":{},\"records_match\":{}}},\
\"chaos\":{{\"seed\":{chaos_seed},\"seconds\":{:.3},\"injected\":{chaos_injected},\"resets\":{},\"stalls\":{},\"payload_corruptions\":{},\"length_corruptions\":{},\"duplicates\":{},\"delays\":{},\"corrupt_frames\":{},\"duplicate_frames\":{},\"auth_rejects\":{},\"redeliveries\":{},\"records_match\":{chaos_matches}}},\
\"speedup_multi_over_one\":{speedup:.3},\"speedup_gate_enforced\":{gate_enforced},\"records_match\":{}}}",
        one.seconds,
        one.result.redeliveries,
        harness_json(&one.result.campaign.harness_stats),
        multi.seconds,
        multi.result.redeliveries,
        harness_json(&multi.result.campaign.harness_stats),
        kill.seconds,
        kill.result.redeliveries,
        kill.victim_killed,
        durable.killed_at_chunks,
        durable.total_chunks,
        durable.resumed,
        durable.epoch,
        durable.replayed_chunks,
        durable.replayed_trials,
        durable.stale_epoch_completions,
        durable.records_match,
        chaos.seconds,
        chaos.result.chaos.resets,
        chaos.result.chaos.stalls,
        chaos.result.chaos.payload_corruptions,
        chaos.result.chaos.length_corruptions,
        chaos.result.chaos.duplicates,
        chaos.result.chaos.delays,
        chaos.result.wire.corrupt_frames,
        chaos.result.wire.duplicate_frames,
        chaos.result.wire.auth_rejects,
        chaos.result.redeliveries,
        one_matches && multi_matches && kill_matches && chaos_matches,
    );

    println!(
        "{:<14} {:>9} {:>12} {:>13}",
        "run", "seconds", "trials/s", "redeliveries"
    );
    println!("{:<14} {:>9.3} {:>12.1} {:>13}", "inline", inline_seconds, inline_tps, "-");
    println!(
        "{:<14} {:>9.3} {:>12.1} {:>13}",
        "1 worker", one.seconds, one_tps, one.result.redeliveries
    );
    println!(
        "{:<14} {:>9.3} {:>12.1} {:>13}",
        format!("{workers} workers"),
        multi.seconds,
        multi_tps,
        multi.result.redeliveries
    );
    println!(
        "{:<14} {:>9.3} {:>12.1} {:>13}",
        format!("{workers} w/ kill"),
        kill.seconds,
        tps(kill.seconds),
        kill.result.redeliveries
    );
    println!(
        "{:<14} {:>9.3} {:>12.1} {:>13}",
        "chaos",
        chaos.seconds,
        tps(chaos.seconds),
        chaos.result.redeliveries
    );
    eprintln!(
        "campaign_dist: clean-run speedup {speedup:.2}x on {cores} core(s); kill run's victim killed: {}",
        kill.victim_killed
    );
    eprintln!(
        "campaign_dist: chaos run injected {chaos_injected} faults (coordinator side); \
         {} corrupt frames dropped, {} duplicate frames absorbed, {} redeliveries",
        chaos.result.wire.corrupt_frames,
        chaos.result.wire.duplicate_frames,
        chaos.result.redeliveries
    );
    eprintln!(
        "campaign_dist: coordinator killed at {}/{} chunks; resume epoch {} replayed {} chunks ({} trials)",
        durable.killed_at_chunks,
        durable.total_chunks,
        durable.epoch,
        durable.replayed_chunks,
        durable.replayed_trials
    );

    match write_bench_json("dist", &json) {
        Ok(path) => eprintln!("campaign_dist: wrote {}", path.display()),
        Err(e) => {
            eprintln!("campaign_dist: cannot write BENCH_dist.json: {e}");
            return ExitCode::FAILURE;
        }
    }

    if !one_matches || !multi_matches || !kill_matches || !chaos_matches {
        eprintln!(
            "campaign_dist: FAIL — record tables diverge (1-worker match: {one_matches}, {workers}-worker match: {multi_matches}, kill match: {kill_matches}, chaos match: {chaos_matches})"
        );
        return ExitCode::FAILURE;
    }
    if chaos_injected == 0 || chaos_recovered == 0 {
        eprintln!(
            "campaign_dist: FAIL — chaos run proved nothing (injected: {chaos_injected}, \
             corrupt+duplicate frames handled: {chaos_recovered})"
        );
        return ExitCode::FAILURE;
    }
    if !durable.records_match {
        eprintln!(
            "campaign_dist: FAIL — record table recovered from the journal diverges from the inline baseline"
        );
        return ExitCode::FAILURE;
    }
    if !durable.resumed || durable.replayed_chunks == 0 {
        eprintln!(
            "campaign_dist: FAIL — resumed coordinator replayed nothing (resumed: {}, replayed_chunks: {}); the kill landed at {}/{} chunks so the journal cannot have been empty",
            durable.resumed, durable.replayed_chunks, durable.killed_at_chunks, durable.total_chunks
        );
        return ExitCode::FAILURE;
    }
    if gate_enforced && speedup < 2.0 {
        eprintln!(
            "campaign_dist: FAIL — {workers} workers reached only {speedup:.2}x over 1 worker on {cores} cores"
        );
        return ExitCode::FAILURE;
    }
    if !gate_enforced {
        eprintln!(
            "campaign_dist: speedup gate not enforced ({cores} core(s) < {workers} workers) — determinism gates still applied"
        );
    }
    eprintln!(
        "campaign_dist: record tables identical across inline, 1-worker, {workers}-worker, {workers}-worker-with-kill, coordinator-crash-resume, and wire-chaos runs"
    );
    ExitCode::SUCCESS
}
