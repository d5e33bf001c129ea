//! Loopback integration tests: coordinator and workers in one process
//! over 127.0.0.1, exercising the full wire protocol, lease expiry and
//! redelivery, the inline fallback, and — the core robustness claim —
//! that losing a worker mid-lease changes *nothing* about the final
//! per-trial record table.

use std::net::SocketAddr;
use std::sync::atomic::{AtomicU32, Ordering};
use std::time::{Duration, Instant};

use certa_asm::Asm;
use certa_core::analyze;
use certa_dist::{
    run_worker, Coordinator, CoordinatorSabotage, DistConfig, DistError, DistProgress,
    DistResult, WorkerOptions, WorkerReport, WorkerSabotage, REPLAY_LEDGER_NAME,
};
use certa_fault::{
    run_campaign, CampaignConfig, CampaignSession, HarnessStats, RestoreStats, Target, TrialRecord,
};
use certa_fidelity::verdict::TrialVerdict;
use certa_isa::reg::{T0, T1, T2, T3};
use certa_isa::Program;
use certa_sim::{Machine, Outcome};

/// The campaign crate's canonical tiny workload: sums 64 input bytes
/// into a 32-bit little-endian output.
struct SumTarget {
    program: Program,
    input_addr: u32,
    output_addr: u32,
}

impl SumTarget {
    fn new() -> Self {
        let mut a = Asm::new();
        let input_addr = a.data_zero(64);
        let output_addr = a.data_zero(4);
        a.func("sum", true);
        a.la(T0, input_addr);
        a.li(T1, 0);
        a.li(T2, 0);
        a.label("loop");
        a.add(T3, T0, T1);
        a.lbu(T3, 0, T3);
        a.add(T2, T2, T3);
        a.addi(T1, T1, 1);
        a.slti(T3, T1, 64);
        a.bnez(T3, "loop");
        a.la(T0, output_addr);
        a.sw(T2, 0, T0);
        a.ret();
        a.endfunc();
        a.func("main", false);
        a.call("sum");
        a.halt();
        a.endfunc();
        SumTarget {
            program: a.assemble().unwrap(),
            input_addr,
            output_addr,
        }
    }
}

impl Target for SumTarget {
    fn program(&self) -> &Program {
        &self.program
    }

    fn prepare(&self, machine: &mut Machine<'_>) {
        let input: Vec<u8> = (0..64u8).collect();
        machine.write_bytes(self.input_addr, &input).unwrap();
    }

    fn extract(&self, machine: &Machine<'_>) -> Option<Vec<u8>> {
        machine.read_bytes(self.output_addr, 4).ok()
    }
}

fn resolve_sum(name: &str) -> Option<Box<dyn Target>> {
    (name == "sum").then(|| Box::new(SumTarget::new()) as Box<dyn Target>)
}

fn config(trials: usize) -> CampaignConfig {
    CampaignConfig {
        trials,
        errors: 1,
        seed: 0xd15c0,
        threads: 1,
        ..CampaignConfig::default()
    }
}

fn fast_worker(name: &str, seed: u64) -> WorkerOptions {
    WorkerOptions {
        name: name.into(),
        heartbeat_interval: Duration::from_millis(50),
        connect_base: Duration::from_millis(10),
        connect_cap: Duration::from_millis(100),
        backoff_seed: seed,
        ..WorkerOptions::default()
    }
}

/// Runs a coordinator plus in-process worker threads to completion.
fn run_distributed(
    trials: usize,
    dist: DistConfig,
    workers: Vec<WorkerOptions>,
) -> (DistResult, Vec<Result<WorkerReport, DistError>>) {
    let coordinator = Coordinator::bind("127.0.0.1:0").expect("bind");
    run_on(&coordinator, trials, &dist, workers)
}

/// Runs one campaign on `coordinator` plus in-process worker threads to
/// completion; the coordinator (and its bound listener) outlives it.
fn run_on(
    coordinator: &Coordinator,
    trials: usize,
    dist: &DistConfig,
    workers: Vec<WorkerOptions>,
) -> (DistResult, Vec<Result<WorkerReport, DistError>>) {
    let target = SumTarget::new();
    let tags = analyze(target.program());
    let cfg = config(trials);
    let session = CampaignSession::new(&target, &tags, &cfg);
    let addr: SocketAddr = coordinator.local_addr().expect("addr");
    let mut result = None;
    let mut reports = Vec::new();
    std::thread::scope(|scope| {
        let handles: Vec<_> = workers
            .into_iter()
            .map(|opts| scope.spawn(move || run_worker(addr, &resolve_sum, &opts)))
            .collect();
        result = Some(
            coordinator
                .run(&session, "sum", dist)
                .expect("distributed campaign"),
        );
        reports = handles.into_iter().map(|h| h.join().unwrap()).collect();
    });
    (result.unwrap(), reports)
}

#[test]
fn two_workers_reproduce_the_inline_campaign_exactly() {
    let trials = 48;
    let target = SumTarget::new();
    let tags = analyze(target.program());
    let inline = run_campaign(&target, &tags, &config(trials));

    let dist = DistConfig {
        fallback_inline: false,
        chunk_parts: 6,
        drain_timeout: Duration::from_secs(120),
        ..DistConfig::default()
    };
    let (result, reports) = run_distributed(
        trials,
        dist,
        vec![fast_worker("alpha", 1), fast_worker("beta", 2)],
    );

    assert_eq!(result.campaign.trials, inline.trials, "per-trial records differ");
    assert_eq!(result.campaign.harness_stats, inline.harness_stats);
    assert!(!result.fallback_used);
    // Both workers attached; together they account for every chunk.
    assert_eq!(result.workers.len(), 2);
    let chunks: u32 = result.workers.iter().map(|w| w.chunks_completed).sum();
    assert!(
        chunks >= 6,
        "checkpoint-group cuts can only add chunks beyond the 6 requested parts"
    );
    let attributed: u64 = result.workers.iter().map(|w| w.trials_completed).sum();
    assert_eq!(attributed, trials as u64);
    for report in reports {
        // No build generates native code for this test's program.
        assert!(!report.expect("worker finished clean").native);
    }
}

/// Satellite: kill a worker mid-lease and prove the final record table is
/// byte-identical to a clean single-worker run of the same configuration.
#[test]
fn worker_loss_mid_lease_redelivers_and_stays_deterministic() {
    let trials = 64;

    // Clean baseline: one well-behaved worker.
    let clean_dist = DistConfig {
        fallback_inline: false,
        chunk_parts: 8,
        drain_timeout: Duration::from_secs(120),
        ..DistConfig::default()
    };
    let (clean, _) = run_distributed(trials, clean_dist.clone(), vec![fast_worker("solo", 3)]);

    // Sabotaged run: the victim completes one chunk, then vanishes while
    // holding its second lease (no heartbeat, no completion — exactly
    // what the coordinator observes after a SIGKILL). A short TTL lets
    // the test expire it quickly; the survivor finishes the campaign.
    let dist = DistConfig {
        lease_ttl: Duration::from_millis(400),
        fallback_inline: false,
        chunk_parts: 8,
        drain_timeout: Duration::from_secs(120),
        ..DistConfig::default()
    };
    let victim = WorkerOptions {
        sabotage: WorkerSabotage {
            abandon_after_leases: Some(1),
        },
        // Hold each chunk briefly so the survivor cannot drain the queue
        // before the victim has taken its doomed second lease.
        throttle_per_chunk: Duration::from_millis(100),
        ..fast_worker("victim", 4)
    };
    let survivor = WorkerOptions {
        throttle_per_chunk: Duration::from_millis(50),
        ..fast_worker("survivor", 5)
    };
    let (wounded, reports) = run_distributed(trials, dist, vec![victim, survivor]);

    assert!(
        wounded.redeliveries >= 1,
        "the abandoned lease must expire and redeliver"
    );
    assert_eq!(
        wounded.campaign.trials, clean.campaign.trials,
        "worker loss must not change a single trial record"
    );
    assert_eq!(wounded.campaign.harness_stats, clean.campaign.harness_stats);
    wounded
        .campaign
        .verify_reconciliation()
        .expect("global reconciliation after worker loss");

    let victim_report = reports[0].as_ref().expect("victim exits voluntarily");
    assert!(victim_report.abandoned);
    reports[1].as_ref().expect("survivor finishes clean");
}

/// A worker slower than its lease TTL keeps every lease by heartbeating:
/// beats every 40 ms against a 200-ms TTL hold each chunk for more than
/// three TTLs without a single redelivery.
#[test]
fn heartbeats_keep_a_slow_workers_leases_alive() {
    let trials = 24;
    let target = SumTarget::new();
    let tags = analyze(target.program());
    let inline = run_campaign(&target, &tags, &config(trials));

    let dist = DistConfig {
        lease_ttl: Duration::from_millis(200),
        fallback_inline: false,
        chunk_parts: 2,
        drain_timeout: Duration::from_secs(120),
        ..DistConfig::default()
    };
    let steady = WorkerOptions {
        heartbeat_interval: Duration::from_millis(40),
        throttle_per_chunk: Duration::from_millis(600),
        ..fast_worker("steady", 12)
    };
    let (result, reports) = run_distributed(trials, dist, vec![steady]);
    let report = reports[0].as_ref().expect("worker finishes clean");

    assert_eq!(result.redeliveries, 0, "a beating worker's lease must never expire");
    let ledger = &result.workers[0];
    assert!(
        (2..=3).contains(&ledger.chunks_completed),
        "the plan should have 2-3 chunks, got {}",
        ledger.chunks_completed
    );
    assert_eq!(ledger.stale_completions, 0);
    assert_eq!(report.stale_acks, 0);
    assert!(
        ledger.heartbeats >= 2 * u64::from(ledger.chunks_completed),
        "{} heartbeats for {} chunks",
        ledger.heartbeats,
        ledger.chunks_completed
    );
    assert_eq!(result.campaign.trials, inline.trials, "per-trial records differ");
}

/// A worker with nothing to lease is held by the coordinator, not put to
/// sleep: with a 5-s `worker_poll` and a single chunk, the idle worker
/// must hear `Drained` the moment the other one completes the chunk,
/// instead of sleeping out a 5-s `Wait` the post-drain linger then waits
/// for.
#[test]
fn idle_worker_hears_drained_without_sleeping_out_the_poll() {
    let trials = 1;
    let target = SumTarget::new();
    let tags = analyze(target.program());
    let cfg = config(trials);
    let inline = run_campaign(&target, &tags, &cfg);
    let session = CampaignSession::new(&target, &tags, &cfg);
    let dist = DistConfig {
        worker_poll: Duration::from_secs(5),
        fallback_inline: false,
        chunk_parts: 1,
        drain_timeout: Duration::from_secs(120),
        ..DistConfig::default()
    };
    assert_eq!(session.chunk_plan(dist.chunk_parts).len(), 1);
    // Whoever wins the chunk holds it for a second, long enough for the
    // other worker to attach and ask for a lease.
    let worker = |name: &str, seed| WorkerOptions {
        throttle_per_chunk: Duration::from_secs(1),
        ..fast_worker(name, seed)
    };
    let coordinator = Coordinator::bind("127.0.0.1:0").expect("bind");
    let addr = coordinator.local_addr().expect("addr");
    let (result, took, reports) = std::thread::scope(|scope| {
        let handles: Vec<_> = [worker("alpha", 21), worker("beta", 22)]
            .into_iter()
            .map(|opts| scope.spawn(move || run_worker(addr, &resolve_sum, &opts)))
            .collect();
        let started = Instant::now();
        let result = coordinator
            .run(&session, "sum", &dist)
            .expect("distributed campaign");
        let took = started.elapsed();
        let reports: Vec<_> = handles.into_iter().map(|h| h.join().unwrap()).collect();
        (result, took, reports)
    });
    assert!(
        took < Duration::from_secs(4),
        "run returned after {took:?}: the idle worker slept out its poll"
    );
    assert_eq!(result.workers.len(), 2, "both workers attached");
    for report in reports {
        report.expect("worker finished clean");
    }
    assert_eq!(result.campaign.trials, inline.trials, "per-trial records differ");
}

/// A worker that lost its connection as the campaign ended re-attaches to
/// a coordinator whose `run` has returned. The listener is still bound,
/// so the connect succeeds, but nobody accepts: the `Hello` must give up
/// within the 5-s cap on short exchanges, not the default 60-s
/// `io_timeout`.
#[test]
fn late_reattach_to_a_finished_coordinator_fails_fast() {
    let coordinator = Coordinator::bind("127.0.0.1:0").expect("bind");
    let addr = coordinator.local_addr().expect("addr");
    let dist = DistConfig {
        fallback_inline: false,
        chunk_parts: 2,
        drain_timeout: Duration::from_secs(120),
        ..DistConfig::default()
    };
    let (result, reports) = run_on(&coordinator, 16, &dist, vec![fast_worker("early", 13)]);
    assert!(!result.fallback_used);
    reports[0].as_ref().expect("the campaign's worker finishes clean");

    let late = WorkerOptions {
        name: "late".into(),
        connect_attempts: 1,
        ..WorkerOptions::default()
    };
    assert_eq!(late.io_timeout, Duration::from_secs(60));
    let started = Instant::now();
    match run_worker(addr, &resolve_sum, &late) {
        Err(DistError::Io(_)) => {}
        other => panic!("expected an Io error from the unanswered Hello, got {other:?}"),
    }
    let waited = started.elapsed();
    assert!(
        waited < Duration::from_secs(15),
        "a Hello to a finished coordinator blocked for {waited:?}"
    );
    drop(coordinator);
}

/// Tentpole: kill the coordinator provably mid-campaign (via the
/// sabotage hook — in-memory state is dropped exactly as a SIGKILL would
/// drop it), restart it from the write-ahead journal, and prove the
/// final record table is byte-identical to a clean inline run. The one
/// worker survives the outage: it re-attaches to the new incarnation
/// *without* rebuilding its session, and any completion staged for the
/// dead epoch is fenced off, never double-merged.
#[test]
fn coordinator_crash_and_resume_is_byte_identical() {
    let trials = 64;
    let target = SumTarget::new();
    let tags = analyze(target.program());
    let inline = run_campaign(&target, &tags, &config(trials));

    let journal_path = std::env::temp_dir().join(format!(
        "certa-crash-resume-{}.wal",
        std::process::id()
    ));
    let _ = std::fs::remove_file(&journal_path);

    let cfg = config(trials);
    let session = CampaignSession::new(&target, &tags, &cfg);
    let coordinator = Coordinator::bind("127.0.0.1:0").expect("bind");
    let addr: SocketAddr = coordinator.local_addr().expect("addr");
    let dist = DistConfig {
        fallback_inline: false,
        chunk_parts: 8,
        drain_timeout: Duration::from_secs(120),
        ..DistConfig::default()
    };
    // Die after two fresh completions: provably mid-campaign (the chunk
    // plan has >= 8 parts), provably with something durable to resume
    // from.
    let sabotaged = DistConfig {
        sabotage: CoordinatorSabotage {
            die_after_fresh: Some(2),
        },
        ..dist.clone()
    };
    let worker_opts = WorkerOptions {
        // Pace the chunks so the drive loop observes the crash threshold
        // while most of the queue is still open.
        throttle_per_chunk: Duration::from_millis(25),
        // The gap between incarnations costs connect attempts; be
        // generous enough that the worker always survives it.
        connect_attempts: 10,
        ..fast_worker("survivor", 11)
    };

    let mut crash = None;
    let mut resumed = None;
    let mut report = None;
    std::thread::scope(|scope| {
        let handle = scope.spawn(|| run_worker(addr, &resolve_sum, &worker_opts));
        let progress = DistProgress::default();
        crash = Some(coordinator.run_durable(
            &session,
            "sum",
            &sabotaged,
            &progress,
            &journal_path,
            None,
        ));
        // "Restart": same listener (the test process never died, so it
        // keeps the port), but every byte of campaign state — records,
        // lease table, stat sums — was dropped with the crashed run.
        // Only the journal carries over.
        resumed = Some(coordinator.run_durable(
            &session,
            "sum",
            &dist,
            &DistProgress::default(),
            &journal_path,
            None,
        ));
        report = Some(handle.join().unwrap());
    });

    match crash.unwrap() {
        Err(DistError::Crashed(_)) => {}
        other => panic!("expected sabotaged run to crash, got {other:?}"),
    }
    let result = resumed.unwrap().expect("resumed campaign completes");
    let report = report.unwrap().expect("worker survives the restart");

    assert_eq!(
        result.campaign.trials, inline.trials,
        "a crash + resume must not change a single trial record"
    );
    assert_eq!(result.campaign.harness_stats, inline.harness_stats);
    result
        .campaign
        .verify_reconciliation()
        .expect("global reconciliation after resume");

    assert!(result.resume.durable);
    assert!(result.resume.resumed, "the journal must have been replayed");
    assert_eq!(result.resume.epoch, 2, "second incarnation, second epoch");
    assert!(
        result.resume.replayed_chunks >= 2,
        "both pre-crash completions were journaled ahead of their merge"
    );
    assert!(
        (result.resume.replayed_chunks as usize) < result.workers.len() + 8,
        "sanity: replay cannot exceed the chunk plan"
    );
    assert_eq!(result.workers[0].name, REPLAY_LEDGER_NAME);
    assert_eq!(
        result.workers[0].trials_completed,
        result.resume.replayed_trials
    );
    let attributed: u64 = result.workers.iter().map(|w| w.trials_completed).sum();
    assert_eq!(attributed, trials as u64, "replay + live work covers every trial");

    assert!(
        report.reconnects >= 1,
        "the worker must have re-attached across the crash"
    );
    assert_eq!(
        report.session_builds, 1,
        "a coordinator restart must not cost the worker a session rebuild"
    );

    let _ = std::fs::remove_file(&journal_path);
}

/// The coordinator's books agree with the workers and with replay. After
/// a durable 2-worker campaign, its restore and harness sums equal the
/// sums of the deltas each worker counted as accepted — the workers'
/// own tally, kept apart from the coordinator's merge. Then a coordinator
/// resumed on the finished journal, with no workers and no inline
/// fallback, can only finish from replay, and must rebuild the same
/// records, stat sums and verdicts.
#[test]
fn workers_and_replay_agree_with_the_books() {
    let trials = 48;
    let target = SumTarget::new();
    let tags = analyze(target.program());
    let cfg = config(trials);
    let session = CampaignSession::new(&target, &tags, &cfg);
    let golden = session.golden().output.clone();
    let classify = move |record: &TrialRecord| match record.result() {
        None => TrialVerdict::HarnessError,
        Some(r) if r.output.as_deref() == Some(golden.as_slice()) => TrialVerdict::Masked,
        Some(r) if r.outcome == Outcome::InfiniteRun => TrialVerdict::Hang,
        Some(_) => TrialVerdict::SilentCorruption,
    };

    let journal_path =
        std::env::temp_dir().join(format!("certa-books-agree-{}.wal", std::process::id()));
    let _ = std::fs::remove_file(&journal_path);
    let coordinator = Coordinator::bind("127.0.0.1:0").expect("bind");
    let addr = coordinator.local_addr().expect("addr");
    let dist = DistConfig {
        fallback_inline: false,
        chunk_parts: 6,
        drain_timeout: Duration::from_secs(120),
        ..DistConfig::default()
    };
    let (first, reports) = std::thread::scope(|scope| {
        let handles: Vec<_> = [fast_worker("alpha", 31), fast_worker("beta", 32)]
            .into_iter()
            .map(|opts| scope.spawn(move || run_worker(addr, &resolve_sum, &opts)))
            .collect();
        let result = coordinator
            .run_durable(
                &session,
                "sum",
                &dist,
                &DistProgress::default(),
                &journal_path,
                Some(&classify),
            )
            .expect("durable campaign");
        let reports: Vec<WorkerReport> = handles
            .into_iter()
            .map(|h| h.join().unwrap().expect("worker finished clean"))
            .collect();
        (result, reports)
    });

    let mut harness = HarnessStats::default();
    let mut restores = RestoreStats::default();
    for report in &reports {
        harness.merge(&report.harness);
        restores.merge(&report.restores);
    }
    assert!(restores.total() > 0, "the campaign restored checkpoints");
    assert_eq!(first.campaign.restore_stats, restores);
    assert_eq!(first.campaign.harness_stats, harness);
    assert_eq!(first.verdicts.total(), trials);

    let replayed = coordinator
        .run_durable(
            &session,
            "sum",
            &dist,
            &DistProgress::default(),
            &journal_path,
            Some(&classify),
        )
        .expect("a finished journal resumes from replay alone");
    let _ = std::fs::remove_file(&journal_path);
    assert_eq!(
        replayed.resume.replayed_chunks,
        session.chunk_plan(dist.chunk_parts).len() as u64
    );
    assert_eq!(replayed.campaign.trials, first.campaign.trials);
    assert_eq!(
        replayed.campaign.restore_stats,
        first.campaign.restore_stats
    );
    assert_eq!(
        replayed.campaign.harness_stats,
        first.campaign.harness_stats
    );
    assert_eq!(replayed.verdicts, first.verdicts);
}

/// Satellite: a completion stamped with a dead incarnation's epoch is
/// rejected (`Ack { accepted: false }` carrying the current epoch) and
/// counted — never merged. Driven over the raw protocol so the stale
/// epoch is deterministic, while the inline fallback runs the real
/// campaign underneath.
#[test]
fn stale_epoch_completion_is_fenced_and_counted() {
    use certa_dist::protocol::{FrameCodec, Request, Response};

    let trials = 24;
    let target = SumTarget::new();
    let tags = analyze(target.program());
    let inline = run_campaign(&target, &tags, &config(trials));

    let journal_path = std::env::temp_dir().join(format!(
        "certa-stale-epoch-{}.wal",
        std::process::id()
    ));
    let _ = std::fs::remove_file(&journal_path);

    let cfg = config(trials);
    let session = CampaignSession::new(&target, &tags, &cfg);
    let coordinator = Coordinator::bind("127.0.0.1:0").expect("bind");
    let addr: SocketAddr = coordinator.local_addr().expect("addr");
    let dist = DistConfig {
        fallback_inline: true,
        fallback_grace: Duration::from_millis(50),
        chunk_parts: 4,
        drain_timeout: Duration::from_secs(120),
        ..DistConfig::default()
    };

    let mut result = None;
    let mut fenced_ack = None;
    std::thread::scope(|scope| {
        let saboteur = scope.spawn(|| {
            // No `Hello`: saying hello would mark a worker as attached
            // and hold off the inline fallback that actually runs this
            // campaign. The fence must fire on epoch alone anyway — a
            // dead incarnation's worker is exactly a peer whose other
            // credentials all look plausible.
            let mut stream = std::net::TcpStream::connect(addr).expect("connect");
            // A delivery from an epoch that never existed (a fresh
            // journal runs under epoch 1). The fence fires before any
            // payload validation, exactly as it must for a
            // predecessor's in-flight completion: the content is
            // deliberately nonsense to prove nothing downstream looks
            // at it.
            let stale = Request::Complete {
                worker: 0,
                lease: 1,
                chunk: 0,
                epoch: 1001,
                records: Vec::new(),
                harness: certa_fault::HarnessStats::default(),
                restores: certa_fault::RestoreStats::default(),
            };
            let mut codec = FrameCodec::new();
            codec
                .write_frame(&mut stream, &stale.encode())
                .expect("stale complete");
            let ack = codec.read_frame(&mut stream).expect("ack frame");
            match Response::decode(&ack).expect("ack") {
                Response::Ack { accepted, epoch } => Some((accepted, epoch)),
                other => panic!("expected Ack, got {other:?}"),
            }
        });
        result = Some(
            coordinator
                .run_durable(
                    &session,
                    "sum",
                    &dist,
                    &DistProgress::default(),
                    &journal_path,
                    None,
                )
                .expect("campaign completes despite the saboteur"),
        );
        fenced_ack = Some(saboteur.join().unwrap());
    });

    let (accepted, ack_epoch) = fenced_ack.unwrap().expect("ack received");
    assert!(!accepted, "a stale-epoch completion must be refused");
    assert_eq!(
        ack_epoch, 1,
        "the refusal advertises the current epoch so the sender can fence itself"
    );

    let result = result.unwrap();
    assert_eq!(
        result.resume.stale_epoch_completions, 1,
        "the fenced delivery is counted"
    );
    assert_eq!(
        result.campaign.trials, inline.trials,
        "the nonsense payload must never reach the record table"
    );
    result
        .campaign
        .verify_reconciliation()
        .expect("reconciliation unaffected by the fenced delivery");

    let _ = std::fs::remove_file(&journal_path);
}

#[test]
fn coordinator_degrades_to_inline_when_no_worker_attaches() {
    let trials = 24;
    let target = SumTarget::new();
    let tags = analyze(target.program());
    let inline = run_campaign(&target, &tags, &config(trials));

    let session = CampaignSession::new(&target, &tags, &config(trials));
    let coordinator = Coordinator::bind("127.0.0.1:0").expect("bind");
    let dist = DistConfig {
        fallback_grace: Duration::from_millis(50),
        chunk_parts: 4,
        drain_timeout: Duration::from_secs(120),
        ..DistConfig::default()
    };
    let result = coordinator
        .run(&session, "sum", &dist)
        .expect("fallback campaign");

    assert!(result.fallback_used);
    assert_eq!(result.campaign.trials, inline.trials);
    assert_eq!(result.workers.len(), 1);
    assert_eq!(result.workers[0].name, "coordinator-inline");
    assert_eq!(result.workers[0].trials_completed, trials as u64);
}

#[test]
fn worker_gives_up_after_exhausting_backoff() {
    // Bind then drop a listener to get a port that refuses connections.
    let addr = {
        let listener = std::net::TcpListener::bind("127.0.0.1:0").unwrap();
        listener.local_addr().unwrap()
    };
    let opts = WorkerOptions {
        connect_attempts: 3,
        connect_base: Duration::from_millis(5),
        connect_cap: Duration::from_millis(20),
        ..fast_worker("orphan", 6)
    };
    match run_worker(addr, &resolve_sum, &opts) {
        Err(DistError::Io(_)) => {}
        other => panic!("expected Io error after exhausted backoff, got {other:?}"),
    }
}

#[test]
fn unresolvable_workload_is_a_job_mismatch() {
    let target = SumTarget::new();
    let tags = analyze(target.program());
    let session = CampaignSession::new(&target, &tags, &config(8));
    let coordinator = Coordinator::bind("127.0.0.1:0").expect("bind");
    let addr = coordinator.local_addr().expect("addr");
    let dist = DistConfig {
        // The mismatched worker can never serve; the inline fallback
        // would also never fire (the worker *attaches*), so keep the
        // coordinator from hanging with a short drain timeout.
        fallback_inline: false,
        drain_timeout: Duration::from_secs(2),
        ..DistConfig::default()
    };

    let rejections = AtomicU32::new(0);
    std::thread::scope(|scope| {
        let worker = scope.spawn(|| {
            let resolve_nothing = |_: &str| -> Option<Box<dyn Target>> { None };
            match run_worker(addr, &resolve_nothing, &fast_worker("confused", 7)) {
                Err(DistError::JobMismatch(_)) => {
                    rejections.fetch_add(1, Ordering::SeqCst);
                }
                other => panic!("expected JobMismatch, got {other:?}"),
            }
        });
        match coordinator.run(&session, "sum", &dist) {
            Err(DistError::Incomplete(_)) => {}
            other => panic!("expected Incomplete after drain timeout, got {other:?}"),
        }
        worker.join().unwrap();
    });
    assert_eq!(rejections.load(Ordering::SeqCst), 1);
}
