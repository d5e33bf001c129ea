//! A durable campaign coordinator process: the killable half of the
//! `campaign_dist` crash-recovery gate. It binds a listener, runs one
//! distributed campaign with a write-ahead journal, and narrates enough
//! on stdout for a driver to (a) point workers at it, (b) SIGKILL it
//! *provably* mid-campaign, and (c) check what a restarted incarnation
//! recovered.
//!
//! Stdout protocol (one record per line, flushed):
//! * `ADDR {host:port}` — once, after binding.
//! * `PROGRESS {done} {total}` — whenever the accepted-chunk count
//!   changes (~25 ms cadence).
//! * `RESUME resumed={bool} epoch={n} replayed_chunks={n}
//!   replayed_trials={n} duplicates={n} torn_tail_bytes={n}
//!   stale_epoch={n} corrupt={n} dup_frames={n} auth_rejects={n}` —
//!   once, on successful completion (the last three report wire
//!   integrity: corrupt frames dropped, duplicate frames absorbed,
//!   shared-secret rejections).
//!
//! On success the final record table is written to `--records-out` in
//! the campaign wire encoding (`u32` count, then one
//! `certa_fault::wire::encode_trial_record` per trial in id order) so
//! the driver can compare it byte-for-byte against an inline baseline.
//!
//! Usage: `campaign_coordinator --journal PATH --records-out PATH
//! [--listen HOST:PORT] [--workload NAME] [--trials N] [--seed N]
//! [--errors N] [--chunk-parts N] [--secret SECRET]`

use std::io::Write as _;
use std::process::ExitCode;
use std::time::Duration;

use certa_bench::{aot_workloads, AsTarget};
use certa_core::analyze;
use certa_dist::{Coordinator, DistConfig, DistProgress, DistResult};
use certa_fault::wire::{encode_trial_record, ByteWriter};
use certa_fault::{CampaignConfig, CampaignSession, TrialRecord};
use certa_workloads::all_workloads;

struct Args {
    listen: String,
    workload: String,
    trials: usize,
    seed: u64,
    errors: u64,
    journal: String,
    chunk_parts: usize,
    records_out: String,
    secret: Option<String>,
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        listen: "127.0.0.1:0".into(),
        workload: "susan".into(),
        trials: 256,
        seed: 42,
        errors: 2,
        journal: String::new(),
        chunk_parts: 16,
        records_out: String::new(),
        secret: None,
    };
    let argv: Vec<String> = std::env::args().collect();
    let mut i = 1;
    while i < argv.len() {
        let (flag, value) = (argv[i].as_str(), argv.get(i + 1));
        let value = value.ok_or_else(|| format!("{flag} needs a value"))?;
        match flag {
            "--listen" => args.listen = value.clone(),
            "--workload" => args.workload = value.clone(),
            "--trials" => args.trials = value.parse().map_err(|e| format!("--trials: {e}"))?,
            "--seed" => args.seed = value.parse().map_err(|e| format!("--seed: {e}"))?,
            "--errors" => args.errors = value.parse().map_err(|e| format!("--errors: {e}"))?,
            "--journal" => args.journal = value.clone(),
            "--chunk-parts" => {
                args.chunk_parts = value.parse().map_err(|e| format!("--chunk-parts: {e}"))?;
            }
            "--records-out" => args.records_out = value.clone(),
            "--secret" => args.secret = Some(value.clone()),
            other => return Err(format!("unknown argument {other:?}")),
        }
        i += 2;
    }
    if args.journal.is_empty() {
        return Err("missing --journal PATH".into());
    }
    if args.records_out.is_empty() {
        return Err("missing --records-out PATH".into());
    }
    Ok(args)
}

fn encode_records(trials: &[TrialRecord]) -> Vec<u8> {
    let mut w = ByteWriter::new();
    w.u32(trials.len() as u32);
    for record in trials {
        encode_trial_record(&mut w, record);
    }
    w.finish()
}

fn run(args: &Args) -> Result<DistResult, String> {
    // Leaked so the classifier closure (which must be `'static` per
    // `VerdictClassifier`) can capture it; the process exits right after.
    let workload: &'static dyn certa_workloads::Workload = Box::leak(
        all_workloads()
            .into_iter()
            .find(|w| w.name() == args.workload)
            .ok_or_else(|| format!("unknown workload {:?}", args.workload))?,
    );
    let tags = analyze(workload.program());
    let config = CampaignConfig {
        trials: args.trials,
        errors: args.errors,
        seed: args.seed,
        threads: 1,
        ..CampaignConfig::default()
    };
    let session = CampaignSession::new_with_aot(
        workload.as_target(),
        &tags,
        &config,
        aot_workloads::for_program(workload.program()),
    );
    let golden = session.golden().output.clone();
    let classify =
        move |record: &TrialRecord| workload.classify_trial(&record.status, &golden);

    let dist = DistConfig {
        lease_ttl: Duration::from_secs(2),
        fallback_inline: false,
        chunk_parts: args.chunk_parts,
        worker_threads: 1,
        drain_timeout: Duration::from_secs(300),
        secret: args.secret.clone(),
        ..DistConfig::default()
    };

    let coordinator = Coordinator::bind(&args.listen).map_err(|e| format!("bind: {e}"))?;
    let addr = coordinator.local_addr().map_err(|e| format!("local_addr: {e}"))?;
    println!("ADDR {addr}");
    let _ = std::io::stdout().flush();

    let progress = DistProgress::default();
    let mut outcome: Option<Result<DistResult, String>> = None;
    std::thread::scope(|scope| {
        let progress = &progress;
        let (done_tx, done_rx) = std::sync::mpsc::channel::<()>();
        scope.spawn(move || {
            let mut last = usize::MAX;
            loop {
                let done = progress.chunks_done();
                if done != last {
                    println!("PROGRESS {done} {}", progress.chunks_total());
                    let _ = std::io::stdout().flush();
                    last = done;
                }
                match done_rx.recv_timeout(Duration::from_millis(25)) {
                    Err(std::sync::mpsc::RecvTimeoutError::Timeout) => {}
                    _ => return,
                }
            }
        });
        outcome = Some(
            coordinator
                .run_durable(
                    &session,
                    &args.workload,
                    &dist,
                    progress,
                    std::path::Path::new(&args.journal),
                    Some(&classify),
                )
                .map_err(|e| e.to_string()),
        );
        drop(done_tx);
    });
    outcome.unwrap()
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(args) => args,
        Err(e) => {
            eprintln!("campaign_coordinator: {e}");
            eprintln!(
                "usage: campaign_coordinator --journal PATH --records-out PATH \
                 [--listen HOST:PORT] [--workload NAME] [--trials N] [--seed N] \
                 [--errors N] [--chunk-parts N] [--secret SECRET]"
            );
            return ExitCode::FAILURE;
        }
    };
    let result = match run(&args) {
        Ok(result) => result,
        Err(e) => {
            eprintln!("campaign_coordinator: {e}");
            return ExitCode::FAILURE;
        }
    };
    if let Err(e) = std::fs::write(&args.records_out, encode_records(&result.campaign.trials)) {
        eprintln!("campaign_coordinator: cannot write {}: {e}", args.records_out);
        return ExitCode::FAILURE;
    }
    let r = &result.resume;
    println!(
        "RESUME resumed={} epoch={} replayed_chunks={} replayed_trials={} duplicates={} \
         torn_tail_bytes={} stale_epoch={} corrupt={} dup_frames={} auth_rejects={}",
        r.resumed,
        r.epoch,
        r.replayed_chunks,
        r.replayed_trials,
        r.journal_duplicates,
        r.torn_tail_bytes,
        r.stale_epoch_completions,
        result.wire.corrupt_frames,
        result.wire.duplicate_frames,
        result.wire.auth_rejects
    );
    let _ = std::io::stdout().flush();
    eprintln!(
        "campaign_coordinator: {} trials done ({} workers, {} redeliveries)",
        result.campaign.trials.len(),
        result.workers.len(),
        result.redeliveries
    );
    ExitCode::SUCCESS
}
