//! The chaos soak: full distributed campaigns over a transport that
//! injects resets, stalls, bit corruption, length corruption, duplicate
//! frames, and delays — on **both** ends of every connection — must
//! still produce a record table byte-identical to the inline baseline.
//!
//! This is the paper's thesis applied to our own wire: fault tolerance
//! is measured, not assumed. Every seed asserts both directions of the
//! claim — the chaos actually fired (nonzero injection counters) and
//! the protocol actually recovered (nonzero corruption/duplicate/
//! reconnect counters), so a silently-weakened schedule or a silently-
//! bypassed checksum both fail the suite.
//!
//! Also here: the shared-secret authentication gates (wrong secret →
//! counted `Reject`, never served; non-loopback listener without a
//! secret → refused outright).

use std::net::SocketAddr;
use std::sync::Arc;
use std::time::{Duration, Instant};

use certa_asm::Asm;
use certa_core::analyze;
use certa_dist::{
    run_worker, Chaos, ChaosConfig, ChaosCounts, Coordinator, DistConfig, DistError, DistProgress,
    DistResult, WorkerOptions, WorkerReport,
};
use certa_fault::{run_campaign, CampaignConfig, CampaignSession, Target, TrialRecord};
use certa_isa::reg::{T0, T1, T2, T3};
use certa_isa::Program;
use certa_sim::Machine;

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

const SECRET: &str = "soak-secret";

/// The soak's chaos schedule: the adversarial preset with the stall
/// window pushed *past* both sides' io timeouts, so every injected stall
/// provably exercises a read timeout rather than resolving as a fast
/// reset.
fn soak_chaos(seed: u64) -> ChaosConfig {
    ChaosConfig {
        stall_for: Duration::from_millis(600),
        ..ChaosConfig::adversarial(seed)
    }
}

fn soak_dist(seed: u64) -> DistConfig {
    DistConfig {
        lease_ttl: Duration::from_millis(800),
        worker_poll: Duration::from_millis(50),
        fallback_inline: false,
        chunk_parts: 8,
        drain_timeout: Duration::from_secs(120),
        shutdown_linger: Duration::from_secs(1),
        io_timeout: Duration::from_millis(300),
        secret: Some(SECRET.into()),
        chaos: Some(soak_chaos(seed)),
        ..DistConfig::default()
    }
}

fn soak_worker(name: &str, seed: u64, chaos: Arc<Chaos>) -> WorkerOptions {
    WorkerOptions {
        name: name.into(),
        heartbeat_interval: Duration::from_millis(50),
        connect_attempts: 50,
        connect_base: Duration::from_millis(10),
        connect_cap: Duration::from_millis(100),
        io_timeout: Duration::from_millis(400),
        backoff_seed: seed,
        secret: Some(SECRET.into()),
        chaos: Some(chaos),
        ..WorkerOptions::default()
    }
}

/// One full campaign under chaos seed `seed`: coordinator chaos on every
/// accepted socket, per-worker chaos on every dialed socket. Returns the
/// coordinator result, the worker outcomes, and the chaos counts of the
/// two worker domains (held here so a worker that dies of its own chaos
/// still reports what it injected).
fn run_chaos_campaign(
    trials: usize,
    seed: u64,
) -> (
    DistResult,
    Vec<Result<WorkerReport, DistError>>,
    ChaosCounts,
) {
    let target = SumTarget::new();
    let tags = analyze(target.program());
    let cfg = config(trials);
    let session = CampaignSession::new(&target, &tags, &cfg);
    let coordinator = Coordinator::bind("127.0.0.1:0").expect("bind");
    let addr: SocketAddr = coordinator.local_addr().expect("addr");

    let worker_chaos: Vec<Arc<Chaos>> = (0..2u64)
        .map(|k| Chaos::new(soak_chaos(seed.wrapping_mul(0x9e37_79b9) ^ (k + 1))))
        .collect();
    let mut result = None;
    let mut reports = Vec::new();
    std::thread::scope(|scope| {
        let handles: Vec<_> = worker_chaos
            .iter()
            .enumerate()
            .map(|(k, chaos)| {
                let opts = soak_worker(
                    &format!("chaos-{k}"),
                    seed ^ (k as u64 + 1),
                    Arc::clone(chaos),
                );
                scope.spawn(move || run_worker(addr, &resolve_sum, &opts))
            })
            .collect();
        result = Some(
            coordinator
                .run(&session, "sum", &soak_dist(seed))
                .expect("chaos campaign must still drain"),
        );
        reports = handles.into_iter().map(|h| h.join().unwrap()).collect();
    });
    let mut injected_by_workers = ChaosCounts::default();
    for chaos in &worker_chaos {
        injected_by_workers.merge(&chaos.counts());
    }
    (result.unwrap(), reports, injected_by_workers)
}

/// The tentpole acceptance gate: ≥8 adversarial seeds, each campaign's
/// record table byte-identical to the inline baseline, with nonzero
/// injected-fault and recovery counters across the sweep. Chaos stats
/// land in `BENCH_chaos.json` at the workspace root for the CI artifact
/// upload.
#[test]
fn soak_adversarial_seeds_converge_byte_identically() {
    let trials = 32;
    let target = SumTarget::new();
    let tags = analyze(target.program());
    let baseline: Vec<TrialRecord> = run_campaign(&target, &tags, &config(trials)).trials;

    let mut injected = ChaosCounts::default();
    let mut corrupt_dropped = 0u64;
    let mut duplicates_absorbed = 0u64;
    let mut reconnects = 0u64;
    let mut redeliveries = 0u64;
    let mut stale_acks = 0u64;
    let mut per_seed = Vec::new();

    for seed in 1..=8u64 {
        let (result, reports, worker_injected) = run_chaos_campaign(trials, seed);
        assert_eq!(
            result.campaign.trials, baseline,
            "seed {seed}: record table diverged from the inline baseline"
        );
        result
            .campaign
            .verify_reconciliation()
            .unwrap_or_else(|e| panic!("seed {seed}: reconciliation failed: {e}"));
        assert_eq!(
            result.wire.auth_rejects, 0,
            "seed {seed}: both sides share the secret"
        );

        let mut seed_injected = worker_injected;
        seed_injected.merge(&result.chaos);
        let mut seed_corrupt = result.wire.corrupt_frames;
        let mut seed_dups = result.wire.duplicate_frames;
        let mut seed_reconnects = 0u64;
        for (k, report) in reports.iter().enumerate() {
            match report {
                Ok(report) => {
                    seed_corrupt += report.corrupt_frames;
                    seed_dups += report.duplicate_frames;
                    seed_reconnects += u64::from(report.reconnects);
                    stale_acks += u64::from(report.stale_acks);
                }
                // A worker is allowed to die of connection-level chaos
                // (its chunks redeliver); it is NOT allowed to die of a
                // protocol, job, or auth failure — chaos must never
                // corrupt its way past the typed error taxonomy.
                Err(DistError::Io(_) | DistError::Frame(_)) => {}
                Err(fatal) => panic!("seed {seed} worker {k}: unexpected fatal error: {fatal}"),
            }
        }
        eprintln!(
            "chaos seed {seed}: injected {seed_injected:?}; \
             corrupt dropped {seed_corrupt}, duplicates absorbed {seed_dups}, \
             reconnects {seed_reconnects}, redeliveries {}",
            result.redeliveries
        );
        injected.merge(&seed_injected);
        corrupt_dropped += seed_corrupt;
        duplicates_absorbed += seed_dups;
        reconnects += seed_reconnects;
        redeliveries += result.redeliveries;
        per_seed.push(format!(
            "    {{\"seed\": {seed}, \"injected\": {}, \"resets\": {}, \"stalls\": {}, \
             \"payload_corruptions\": {}, \"length_corruptions\": {}, \"duplicates\": {}, \
             \"delays\": {}, \"corrupt_frames_dropped\": {seed_corrupt}, \
             \"duplicate_frames_absorbed\": {seed_dups}, \"reconnects\": {seed_reconnects}, \
             \"redeliveries\": {}, \"byte_identical\": true}}",
            seed_injected.injected(),
            seed_injected.resets,
            seed_injected.stalls,
            seed_injected.payload_corruptions,
            seed_injected.length_corruptions,
            seed_injected.duplicates,
            seed_injected.delays,
            result.redeliveries,
        ));
    }

    // The chaos must actually have fired — every class, across the sweep.
    assert!(injected.resets > 0, "no resets injected: {injected:?}");
    assert!(injected.stalls > 0, "no stalls injected: {injected:?}");
    assert!(
        injected.payload_corruptions > 0,
        "no payload corruption injected: {injected:?}"
    );
    assert!(
        injected.length_corruptions > 0,
        "no length corruption injected: {injected:?}"
    );
    assert!(injected.duplicates > 0, "no duplicates injected: {injected:?}");
    assert!(injected.delays > 0, "no delays injected: {injected:?}");

    // ... and the hardened protocol must actually have recovered.
    assert!(
        corrupt_dropped > 0,
        "corruption was injected but never caught by a checksum"
    );
    assert!(
        duplicates_absorbed > 0,
        "duplicates were injected but never absorbed by sequence numbers"
    );
    assert!(
        reconnects > 0,
        "connections were killed but no worker ever re-attached"
    );

    let json = format!(
        "{{\n  \"bench\": \"campaign_chaos\",\n  \"trials_per_seed\": {trials},\n  \
         \"seeds\": 8,\n  \"workers\": 2,\n  \"injected_total\": {},\n  \
         \"corrupt_frames_dropped\": {corrupt_dropped},\n  \
         \"duplicate_frames_absorbed\": {duplicates_absorbed},\n  \
         \"reconnects\": {reconnects},\n  \"redeliveries\": {redeliveries},\n  \
         \"stale_acks\": {stale_acks},\n  \"per_seed\": [\n{}\n  ]\n}}\n",
        injected.injected(),
        per_seed.join(",\n"),
    );
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCH_chaos.json");
    std::fs::write(path, json).expect("write BENCH_chaos.json");
}

/// A worker with the wrong shared secret is rejected and counted; it
/// never registers, never leases, and the campaign completes without it
/// (inline fallback — the impostor does not count as an attached
/// worker).
#[test]
fn wrong_secret_is_rejected_counted_and_never_served() {
    let trials = 16;
    let target = SumTarget::new();
    let tags = analyze(target.program());
    let baseline = run_campaign(&target, &tags, &config(trials)).trials;
    let cfg = config(trials);
    let session = CampaignSession::new(&target, &tags, &cfg);
    let coordinator = Coordinator::bind("127.0.0.1:0").expect("bind");
    let addr: SocketAddr = coordinator.local_addr().expect("addr");
    let dist = DistConfig {
        fallback_inline: true,
        fallback_grace: Duration::from_millis(100),
        chunk_parts: 4,
        drain_timeout: Duration::from_secs(120),
        secret: Some("the-real-secret".into()),
        ..DistConfig::default()
    };

    let mut result = None;
    let mut outcome = None;
    std::thread::scope(|scope| {
        let impostor = scope.spawn(move || {
            let opts = WorkerOptions {
                name: "impostor".into(),
                secret: Some("wrong-secret".into()),
                ..WorkerOptions::default()
            };
            run_worker(addr, &resolve_sum, &opts)
        });
        result = Some(
            coordinator
                .run(&session, "sum", &dist)
                .expect("campaign completes without the impostor"),
        );
        outcome = Some(impostor.join().unwrap());
    });

    let result = result.unwrap();
    match outcome.unwrap() {
        Err(DistError::Protocol(reason)) => {
            assert!(
                reason.contains("authentication"),
                "reject reason should name authentication: {reason}"
            );
        }
        other => panic!("impostor should be rejected, got {other:?}"),
    }
    assert!(result.wire.auth_rejects >= 1, "the rejection is counted");
    assert!(result.fallback_used, "the impostor never counted as a worker");
    assert!(
        result.workers.iter().map(|w| w.leases).sum::<u32>() > 0,
        "the inline ledger did the work"
    );
    assert_eq!(result.campaign.trials, baseline);
}

/// A worker that *has* a secret refuses a coordinator that cannot prove
/// it: the no-secret coordinator answers `proof = 0`, and the worker
/// bails with a fatal auth error rather than lease a single chunk from
/// an unproven peer. An honest no-secret worker runs alongside so the
/// campaign still drains (the wary worker registers at Hello — before
/// it can see the proofless Welcome — so inline fallback never arms).
/// The honest worker starts only once that Hello is registered: a
/// campaign drained first would leave the wary Hello unanswered.
#[test]
fn worker_rejects_a_coordinator_that_cannot_prove_the_secret() {
    let trials = 16;
    let target = SumTarget::new();
    let tags = analyze(target.program());
    let baseline = run_campaign(&target, &tags, &config(trials)).trials;
    let cfg = config(trials);
    let session = CampaignSession::new(&target, &tags, &cfg);
    let coordinator = Coordinator::bind("127.0.0.1:0").expect("bind");
    let addr: SocketAddr = coordinator.local_addr().expect("addr");
    let dist = DistConfig {
        chunk_parts: 4,
        drain_timeout: Duration::from_secs(120),
        ..DistConfig::default()
    };

    let progress = DistProgress::default();
    let attached = &progress;
    let mut result = None;
    let mut wary_outcome = None;
    let mut honest_outcome = None;
    std::thread::scope(|scope| {
        let wary = scope.spawn(move || {
            let opts = WorkerOptions {
                name: "wary".into(),
                secret: Some("a-secret-the-coordinator-lacks".into()),
                ..WorkerOptions::default()
            };
            run_worker(addr, &resolve_sum, &opts)
        });
        let honest = scope.spawn(move || {
            let deadline = Instant::now() + Duration::from_secs(60);
            while attached.workers_attached() == 0 && Instant::now() < deadline {
                std::thread::sleep(Duration::from_millis(1));
            }
            let opts = WorkerOptions {
                name: "honest".into(),
                ..WorkerOptions::default()
            };
            run_worker(addr, &resolve_sum, &opts)
        });
        result = Some(
            coordinator
                .run_with_progress(&session, "sum", &dist, &progress)
                .expect("the honest worker drains the campaign"),
        );
        wary_outcome = Some(wary.join().unwrap());
        honest_outcome = Some(honest.join().unwrap());
    });
    assert!(
        matches!(wary_outcome.unwrap(), Err(DistError::Auth(_))),
        "a proofless Welcome must be fatal to a secret-holding worker"
    );
    honest_outcome.unwrap().expect("honest worker completes");
    assert_eq!(result.unwrap().campaign.trials, baseline);
}

/// A non-loopback listener without a shared secret refuses to serve at
/// all — the campaign never starts, no frame is ever exchanged.
#[test]
fn non_loopback_listener_without_secret_is_refused() {
    let trials = 8;
    let target = SumTarget::new();
    let tags = analyze(target.program());
    let cfg = config(trials);
    let session = CampaignSession::new(&target, &tags, &cfg);
    let coordinator = Coordinator::bind("0.0.0.0:0").expect("bind");
    let err = coordinator
        .run(&session, "sum", &DistConfig::default())
        .expect_err("a routable listener without a secret must refuse");
    assert!(
        matches!(err, DistError::Auth(_)),
        "expected an auth refusal, got {err}"
    );
    // The same listener with a secret is allowed.
    let dist = DistConfig {
        fallback_inline: true,
        fallback_grace: Duration::from_millis(50),
        chunk_parts: 2,
        drain_timeout: Duration::from_secs(120),
        secret: Some("now-we-may-roam".into()),
        ..DistConfig::default()
    };
    coordinator
        .run(&session, "sum", &dist)
        .expect("secret-bearing routable listener serves (inline fallback)");
}
