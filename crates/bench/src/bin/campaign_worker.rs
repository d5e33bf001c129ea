//! A campaign worker process: connects to a `campaign_dist` (or any
//! `certa-dist`) coordinator, resolves the advertised workload from the
//! study's workload set, and runs leased trial chunks until the campaign
//! drains — on tier-4 native code when built with the `aot` feature. Its
//! done-line on stderr names the tier the trials ran on.
//!
//! Usage: `campaign_worker --connect HOST:PORT [--name NAME]`
//!
//! Environment:
//! * `CERTA_WORKER_THROTTLE_MS` — artificial per-chunk delay, so a bench
//!   driver can designate a slow victim that provably holds a lease when
//!   it gets SIGKILLed.
//! * `CERTA_WORKER_HEARTBEAT_MS` — heartbeat period override.
//! * `CERTA_WORKER_CHAOS_SEED` — wrap every connection this worker dials
//!   in the adversarial [`certa_dist::ChaosConfig`] schedule for that
//!   seed (and raise the reconnect budget to survive it).
//! * `CERTA_WORKER_SECRET` — shared secret for the Hello/Welcome
//!   challenge/response.

use std::net::{SocketAddr, ToSocketAddrs};
use std::process::ExitCode;
use std::time::Duration;

use certa_dist::{run_worker, Chaos, ChaosConfig, WorkerOptions};
use certa_fault::Target;
use certa_workloads::all_workloads;

fn env_ms(key: &str) -> Option<Duration> {
    std::env::var(key)
        .ok()
        .and_then(|v| v.parse().ok())
        .map(Duration::from_millis)
}

fn resolve(name: &str) -> Option<Box<dyn Target>> {
    all_workloads()
        .into_iter()
        .find(|w| w.name() == name)
        .map(|w| w as Box<dyn Target>)
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().collect();
    let mut connect: Option<String> = None;
    let mut name = format!("worker-{}", std::process::id());
    let mut i = 1;
    while i < args.len() {
        match args[i].as_str() {
            "--connect" if i + 1 < args.len() => {
                connect = Some(args[i + 1].clone());
                i += 2;
            }
            "--name" if i + 1 < args.len() => {
                name = args[i + 1].clone();
                i += 2;
            }
            other => {
                eprintln!("campaign_worker: unknown argument {other:?}");
                eprintln!("usage: campaign_worker --connect HOST:PORT [--name NAME]");
                return ExitCode::FAILURE;
            }
        }
    }
    let Some(connect) = connect else {
        eprintln!("campaign_worker: missing --connect HOST:PORT");
        return ExitCode::FAILURE;
    };
    let addr: SocketAddr = match connect.to_socket_addrs().ok().and_then(|mut a| a.next()) {
        Some(addr) => addr,
        None => {
            eprintln!("campaign_worker: cannot resolve {connect:?}");
            return ExitCode::FAILURE;
        }
    };

    let mut opts = WorkerOptions {
        name: name.clone(),
        // Distinct per-process seeds keep reconnect storms de-synchronized.
        backoff_seed: u64::from(std::process::id()),
        ..WorkerOptions::default()
    };
    if let Some(throttle) = env_ms("CERTA_WORKER_THROTTLE_MS") {
        opts.throttle_per_chunk = throttle;
    }
    if let Some(heartbeat) = env_ms("CERTA_WORKER_HEARTBEAT_MS") {
        opts.heartbeat_interval = heartbeat;
    }
    if let Some(seed) = std::env::var("CERTA_WORKER_CHAOS_SEED")
        .ok()
        .and_then(|v| v.parse::<u64>().ok())
    {
        opts.chaos = Some(Chaos::new(ChaosConfig::adversarial(seed)));
        opts.connect_attempts = opts.connect_attempts.max(50);
    }
    if let Ok(secret) = std::env::var("CERTA_WORKER_SECRET") {
        opts.secret = Some(secret);
    }

    match run_worker(addr, &resolve, &opts) {
        Ok(report) => {
            eprintln!(
                "campaign_worker: {name} done — {} chunks, {} {} trials, {} stale, {} reconnects, \
                 {} corrupt frames dropped, {} duplicate frames absorbed, {} faults injected",
                report.chunks_completed,
                report.trials_completed,
                if report.native {
                    "native"
                } else {
                    "interpreted"
                },
                report.stale_acks,
                report.reconnects,
                report.corrupt_frames,
                report.duplicate_frames,
                report.chaos.injected()
            );
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("campaign_worker: {name} failed: {e}");
            ExitCode::FAILURE
        }
    }
}
