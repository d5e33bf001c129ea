//! The campaign worker: connects to a coordinator, rebuilds the campaign
//! session independently from the [`JobSpec`], and runs leased chunks
//! through the *identical* trial path as an in-process campaign.
//!
//! ## Native trials
//!
//! The worker finds tier-4 native code for the program its resolver
//! returned ([`certa_native::for_program`]: same length, same code
//! fingerprint) and builds its session with it. In a build that has code
//! for that program (`certa-native`'s `aot` feature) the golden run and
//! every checkpointed trial run natively, exactly as an inline session's
//! do; otherwise the worker runs interpreted. Records are bit-identical
//! either way, so the session fingerprint, the wire protocol and the
//! journal do not know which tier ran — only [`WorkerReport::native`]
//! says.
//!
//! Robustness: while a leased chunk runs, a guard thread beats every
//! [`WorkerOptions::heartbeat_interval`] over short-lived side
//! connections (so beats never interleave with an in-flight request
//! frame) and ends the moment the chunk does, so a chunk shorter than the
//! interval costs neither a beat nor any idle time; connection loss
//! triggers re-attach (re-connect + re-`Hello`, the handshake's timeouts
//! capped like a beat's at 5 s) with exponential backoff plus
//! deterministic jitter; and the [`WorkerSabotage`] hook lets tests make a
//! worker vanish mid-lease — from the coordinator's point of view
//! indistinguishable from a SIGKILL.
//!
//! ## Surviving a coordinator restart
//!
//! Re-attach is the *single* recovery path for every connection-level
//! failure, including the coordinator dying and coming back. The
//! expensive session (golden run + checkpoint capture) is built at most
//! once per worker process and reused across any number of re-attaches —
//! a coordinator restart costs the worker one `Hello`, not a rebuild.
//! The epoch in the new `Welcome` then disambiguates what the outage
//! meant:
//!
//! * **Same epoch** — the coordinator never died; the connection did. A
//!   completion that was in flight when the connection dropped
//!   (`PendingComplete`) is simply re-sent: the coordinator dedups
//!   (`Ack { accepted: false }` = already merged, counted as a stale
//!   ack).
//! * **New epoch** — the old incarnation is dead. Its leases and any
//!   undelivered completion are invalid by definition (the restarted
//!   coordinator re-queues exactly the chunks its journal lacks), so the
//!   worker drops the pending payload — counted in
//!   [`WorkerReport::stale_epoch_drops`], never re-sent — and leases
//!   afresh under the new epoch.

use std::net::{SocketAddr, TcpStream};
use std::sync::mpsc::{self, RecvTimeoutError};
use std::sync::Arc;
use std::time::Duration;

use certa_core::TagMap;
use certa_fault::{CampaignConfig, CampaignSession, HarnessStats, RestoreStats, Target};
use rand::rngs::SmallRng;
use rand::{Rng, RngCore, SeedableRng};

use crate::chaos::{Chaos, ChaosCounts, NetStream};
use crate::protocol::{
    auth_proof, auth_token, FrameCodec, JobSpec, Request, Response, PROTOCOL_VERSION,
};
use crate::DistError;

/// Maps the coordinator's workload name to a local fault-injection
/// target. `None` marks the job unservable ([`DistError::JobMismatch`]).
pub type TargetResolver = dyn Fn(&str) -> Option<Box<dyn Target>> + Sync;

/// Deliberate worker sabotage for crash-tolerance tests.
#[derive(Debug, Clone, Copy, Default)]
pub struct WorkerSabotage {
    /// After this many lease grants, the worker abandons the next granted
    /// chunk without running or releasing it and exits — its lease must
    /// expire and the chunk redeliver. `Some(1)` = complete the first
    /// chunk, vanish holding the second.
    pub abandon_after_leases: Option<u32>,
}

/// Worker tuning knobs.
#[derive(Debug, Clone)]
pub struct WorkerOptions {
    /// Name reported in `Hello` (ledger attribution).
    pub name: String,
    /// Heartbeat period for a held lease. Must be well under the
    /// coordinator's lease TTL.
    pub heartbeat_interval: Duration,
    /// Consecutive connection failures tolerated before giving up.
    pub connect_attempts: u32,
    /// Backoff base delay (first retry).
    pub connect_base: Duration,
    /// Backoff cap.
    pub connect_cap: Duration,
    /// Overrides the job's advertised trial-thread count.
    pub threads_override: Option<usize>,
    /// Read timeout on the main connection — how long a worker waits for
    /// one response before treating the coordinator as gone and
    /// reconnecting. Generous by default: a starved-but-alive
    /// coordinator is much more common than a dead one, and a false
    /// positive costs a round of reconnect backoff.
    pub io_timeout: Duration,
    /// Artificial delay per granted chunk, before running it — lets tests
    /// and benches hold a lease long enough to lose it on purpose.
    pub throttle_per_chunk: Duration,
    /// Jitter seed (deterministic backoff under test).
    pub backoff_seed: u64,
    /// Crash-tolerance sabotage hook.
    pub sabotage: WorkerSabotage,
    /// Shared secret for the `Hello`/`Welcome` challenge/response. When
    /// set, the `Hello` token is derived from it and the coordinator's
    /// `Welcome` proof is verified (mismatch is fatal — the peer is an
    /// imposter, not a flaky network).
    pub secret: Option<String>,
    /// Wire-fault injection domain for every connection this worker
    /// opens (main, re-attach, heartbeat). Tests hold the [`Arc`] so the
    /// injection counters survive a worker that dies of its own chaos.
    pub chaos: Option<Arc<Chaos>>,
}

impl Default for WorkerOptions {
    fn default() -> Self {
        WorkerOptions {
            name: "worker".into(),
            heartbeat_interval: Duration::from_millis(500),
            connect_attempts: 5,
            connect_base: Duration::from_millis(50),
            connect_cap: Duration::from_secs(2),
            threads_override: None,
            io_timeout: Duration::from_secs(60),
            throttle_per_chunk: Duration::ZERO,
            backoff_seed: 0,
            sabotage: WorkerSabotage::default(),
            secret: None,
            chaos: None,
        }
    }
}

/// What one worker accomplished, from its own point of view.
#[derive(Debug, Default, Clone)]
pub struct WorkerReport {
    /// Worker id assigned by the coordinator (last attach's).
    pub worker: u32,
    /// Lease grants received.
    pub leases: u32,
    /// Chunk completions the coordinator accepted as fresh.
    pub chunks_completed: u32,
    /// Trials inside those accepted chunks.
    pub trials_completed: u64,
    /// Completions the coordinator acknowledged as stale duplicates.
    pub stale_acks: u32,
    /// Successful re-attaches (re-connect + re-`Hello`) after a
    /// connection loss.
    pub reconnects: u32,
    /// Times the expensive session (golden run + checkpoints) was built.
    /// At most 1 per worker process, however many re-attaches happened —
    /// the proof hook that a coordinator restart does not trigger a
    /// rebuild.
    pub session_builds: u32,
    /// Whether the session this worker built runs its trials on tier-4
    /// native code ([`CampaignSession::runs_natively`]); `false` until a
    /// session is built.
    pub native: bool,
    /// Completed chunks dropped un-sent because the coordinator's epoch
    /// moved (the work was done for a dead incarnation; the restarted
    /// coordinator re-queues whatever its journal lacks).
    pub stale_epoch_drops: u32,
    /// Whether the sabotage hook made this worker abandon a lease.
    pub abandoned: bool,
    /// Connections dropped because a received frame failed an integrity
    /// check (checksum mismatch, sequence gap, oversize length prefix).
    /// Each one fed the same re-attach machinery as a connection loss.
    pub corrupt_frames: u64,
    /// Duplicated frames the framing layer silently absorbed.
    pub duplicate_frames: u64,
    /// Faults this worker's own chaos domain injected (zero without
    /// [`WorkerOptions::chaos`]).
    pub chaos: ChaosCounts,
    /// Harness-counter deltas across accepted chunks.
    pub harness: HarnessStats,
    /// Restore-counter deltas across accepted chunks.
    pub restores: RestoreStats,
}

/// Exponential backoff with deterministic jitter: `base << attempt`
/// (the shift exponent clamped at 16, so arbitrarily large `attempt`
/// values cannot overflow), **capped at `cap` before jitter is
/// applied**, then scaled into `[1/2, 1]` of the capped value by a
/// [`SmallRng`] keyed on `(seed, attempt)` — reproducible in tests, yet
/// de-synchronized across workers with distinct seeds. Because the cap
/// precedes the jitter, the returned delay never exceeds `cap`.
#[must_use]
pub fn backoff_delay(attempt: u32, base: Duration, cap: Duration, seed: u64) -> Duration {
    let exp = base.saturating_mul(1u32 << attempt.min(16));
    let capped = exp.min(cap);
    let nanos = u64::try_from(capped.as_nanos()).unwrap_or(u64::MAX);
    if nanos == 0 {
        return Duration::ZERO;
    }
    let mut rng = SmallRng::seed_from_u64(
        seed ^ u64::from(attempt).wrapping_mul(0x9e37_79b9_7f4a_7c15),
    );
    Duration::from_nanos(rng.gen_range(nanos / 2..nanos.saturating_add(1)))
}

/// One connection's protocol state: the (possibly chaos-wrapped) socket
/// and its frame codec. The codec lives and dies with the connection —
/// sequence numbers never straddle a reconnect.
struct Channel {
    stream: NetStream,
    codec: FrameCodec,
}

impl Channel {
    fn new(stream: NetStream) -> Channel {
        Channel {
            stream,
            codec: FrameCodec::new(),
        }
    }

    /// One request/response exchange. Frame-integrity failures surface
    /// as [`DistError::Frame`]; the caller must discard this channel.
    fn roundtrip(&mut self, request: &Request) -> Result<Response, DistError> {
        self.codec.write_frame(&mut self.stream, &request.encode())?;
        let payload = self.codec.read_frame(&mut self.stream)?;
        Response::decode(&payload).map_err(|e| DistError::Protocol(e.to_string()))
    }

    /// Folds this channel's framing counters into the report; call
    /// whenever the channel is being discarded (cleanly or not).
    fn retire(self, report: &mut WorkerReport) {
        report.duplicate_frames += self.codec.duplicates_dropped;
    }
}

/// Cap on the socket timeouts of the two exchanges a live coordinator
/// answers at once: a heartbeat side connection and the `Hello`→`Welcome`
/// handshake. A coordinator whose `run*` has returned keeps its listener
/// bound, so a connect still succeeds; this cap bounds the wait for an
/// answer that will never come.
const SHORT_EXCHANGE_CAP: Duration = Duration::from_secs(5);

/// Connects to the coordinator, applying the chaos wrapper (when
/// configured) and full-duplex socket timeouts. A socket that refuses
/// its timeouts is returned as an error, never used bare — an untimed
/// socket is a thread leak waiting for a stalled peer.
fn dial(
    addr: SocketAddr,
    timeout: Duration,
    chaos: Option<&Arc<Chaos>>,
) -> Result<NetStream, DistError> {
    let stream = TcpStream::connect(addr)?;
    let stream = match chaos {
        Some(chaos) => NetStream::Chaos(chaos.wrap(stream)),
        None => NetStream::Plain(stream),
    };
    let _ = stream.set_nodelay(true);
    stream.set_read_timeout(Some(timeout))?;
    stream.set_write_timeout(Some(timeout))?;
    Ok(stream)
}

/// Beats for one held lease every `interval` until `stop`'s sender is
/// dropped, which ends the guard at once: the wait is one blocking
/// `recv_timeout`, so a chunk shorter than `interval` costs no beat and no
/// idle time. Each heartbeat is a fresh side connection (timeouts capped
/// by [`SHORT_EXCHANGE_CAP`]) — the main connection stays free for the
/// eventual `Complete` frame. Heartbeat failures are swallowed: the worst
/// case is a lost lease, which the redelivery machinery already covers.
/// A socket that cannot take its timeouts is dropped and the beat
/// skipped — never heartbeat over a socket that could block forever.
fn heartbeat_guard(
    addr: SocketAddr,
    beat: &Request,
    interval: Duration,
    io_timeout: Duration,
    chaos: Option<&Arc<Chaos>>,
    stop: &mpsc::Receiver<()>,
) {
    let timeout = io_timeout.min(SHORT_EXCHANGE_CAP);
    while let Err(RecvTimeoutError::Timeout) = stop.recv_timeout(interval) {
        if let Ok(stream) = dial(addr, timeout, chaos) {
            let _ = Channel::new(stream).roundtrip(beat);
        }
    }
}

/// A completed chunk whose `Complete` has not been accepted yet. The
/// `Request::Complete` is built once, *before* the first delivery
/// attempt, and every attempt sends it by reference, so a connection lost
/// anywhere in the round trip leaves the payload re-sendable unchanged.
/// The epoch stamped in the request decides its fate on re-attach: same
/// epoch → re-send (the coordinator dedups), new epoch → drop and count
/// (the work belonged to a dead incarnation).
struct PendingComplete {
    trials: u64,
    harness: HarnessStats,
    restores: RestoreStats,
    request: Request,
}

/// Everything about the job that is fixed for the life of the worker
/// process (the first `Welcome` pins it; later attaches must match).
struct WorkerContext<'a> {
    addr: SocketAddr,
    fingerprint: u64,
    target: &'a dyn Target,
    tags: &'a TagMap,
    config: CampaignConfig,
    opts: &'a WorkerOptions,
}

/// How one attached connection ended, short of a connection error.
enum Served {
    /// The campaign is over for this worker (drained, or deliberately
    /// abandoned by the sabotage hook).
    Done,
    /// The coordinator answered with a different epoch than this
    /// connection attached under — re-attach to observe the new one.
    Fenced,
}

/// One `Hello`/`Welcome` handshake attempt over a fresh connection. On
/// failure the channel's framing counters are folded into the report
/// before the error propagates.
fn try_attach(
    addr: SocketAddr,
    opts: &WorkerOptions,
    challenge: u64,
    report: &mut WorkerReport,
) -> Result<(Channel, u32, u64, JobSpec), DistError> {
    let stream = dial(addr, opts.io_timeout.min(SHORT_EXCHANGE_CAP), opts.chaos.as_ref())?;
    let mut channel = Channel::new(stream);
    let token = opts
        .secret
        .as_deref()
        .map_or(0, |secret| auth_token(secret, &opts.name));
    let attempt = (|| {
        let welcome = channel.roundtrip(&Request::Hello {
            version: PROTOCOL_VERSION,
            name: opts.name.clone(),
            token,
            challenge,
        })?;
        match welcome {
            Response::Welcome {
                worker,
                job,
                epoch,
                proof,
            } => {
                if let Some(secret) = opts.secret.as_deref() {
                    if proof != auth_proof(secret, challenge) {
                        // Whoever answered does not know the secret; this
                        // is an imposter, not a flaky network — fatal.
                        return Err(DistError::Auth(
                            "coordinator failed the welcome proof".into(),
                        ));
                    }
                }
                // Attached: the main connection's later answers (a
                // `Complete` waits on a journal sync) get the full budget.
                channel.stream.set_read_timeout(Some(opts.io_timeout))?;
                channel.stream.set_write_timeout(Some(opts.io_timeout))?;
                Ok((worker, epoch, job))
            }
            Response::Reject { reason } => Err(DistError::Protocol(reason)),
            other => Err(DistError::Protocol(format!(
                "expected Welcome, got {other:?}"
            ))),
        }
    })();
    match attempt {
        Ok((worker, epoch, job)) => Ok((channel, worker, epoch, job)),
        Err(err) => {
            channel.retire(report);
            Err(err)
        }
    }
}

/// Connects and performs the `Hello`/`Welcome` handshake, retrying with
/// exponential backoff on connection-level failures — including framing
/// corruption, which is just a connection loss with a counter. Returns
/// the attached channel plus the coordinator-assigned worker id, the
/// coordinator's epoch, and the job. `failures` counts *consecutive*
/// losses across attach attempts and is reset by success;
/// `connected_before` distinguishes a first attach from a re-attach (for
/// the reconnect counter).
fn attach(
    addr: SocketAddr,
    opts: &WorkerOptions,
    report: &mut WorkerReport,
    failures: &mut u32,
    connected_before: &mut bool,
) -> Result<(Channel, u32, u64, JobSpec), DistError> {
    // Challenges only need to differ between handshakes, not be
    // unpredictable — the auth scheme gates accidents and chaos, not
    // cryptanalysis (see the protocol module docs).
    let mut challenge_rng = SmallRng::seed_from_u64(
        opts.backoff_seed
            ^ (u64::from(report.reconnects) << 24)
            ^ u64::from(*failures)
            ^ 0x6368_616c_6c65_6e67,
    );
    loop {
        let challenge = challenge_rng.next_u64();
        let retriable = match try_attach(addr, opts, challenge, report) {
            Ok(attached) => {
                if *connected_before {
                    report.reconnects += 1;
                }
                *connected_before = true;
                *failures = 0;
                return Ok(attached);
            }
            Err(DistError::Io(e)) => DistError::Io(e),
            Err(DistError::Frame(what)) => {
                report.corrupt_frames += 1;
                DistError::Frame(what)
            }
            Err(fatal) => return Err(fatal),
        };
        *failures += 1;
        if *failures >= opts.connect_attempts {
            return Err(retriable);
        }
        std::thread::sleep(backoff_delay(
            *failures,
            opts.connect_base,
            opts.connect_cap,
            opts.backoff_seed,
        ));
    }
}

/// Delivers `pending` and settles the `Ack`. `Ok(None)` = settled (fresh
/// or stale-duplicate — either way the payload is spent); `Ok(Some)` =
/// the coordinator fenced us (new epoch): payload dropped and counted,
/// caller must re-attach. A connection error propagates with `pending`
/// still intact for the re-attach path to settle.
fn deliver(
    channel: &mut Channel,
    epoch: u64,
    pending: &mut Option<PendingComplete>,
    report: &mut WorkerReport,
) -> Result<Option<Served>, DistError> {
    let staged = pending.as_ref().expect("deliver needs a payload");
    match channel.roundtrip(&staged.request)? {
        Response::Ack { accepted: true, .. } => {
            let sent = pending.take().expect("payload still pending");
            report.chunks_completed += 1;
            report.trials_completed += sent.trials;
            report.harness.merge(&sent.harness);
            report.restores.merge(&sent.restores);
            Ok(None)
        }
        Response::Ack {
            accepted: false,
            epoch: ack_epoch,
        } => {
            pending.take();
            if ack_epoch == epoch {
                // Duplicate delivery (e.g. our lease expired and someone
                // else finished the chunk first): already merged once,
                // harmless by idempotency.
                report.stale_acks += 1;
                Ok(None)
            } else {
                report.stale_epoch_drops += 1;
                Ok(Some(Served::Fenced))
            }
        }
        Response::Reject { reason } => Err(DistError::Protocol(reason)),
        other => Err(DistError::Protocol(format!("expected Ack, got {other:?}"))),
    }
}

/// Serves one attached connection until drained, sabotaged, fenced, or
/// errored. Connection loss is `Err(DistError::Io)`, which the caller
/// turns into a re-attach; `pending` carries any undelivered completion
/// across that boundary.
fn serve<'a>(
    ctx: &WorkerContext<'a>,
    channel: &mut Channel,
    worker: u32,
    epoch: u64,
    session: &mut Option<CampaignSession<'a>>,
    pending: &mut Option<PendingComplete>,
    report: &mut WorkerReport,
) -> Result<Served, DistError> {
    // Settle a completion left over from a lost connection first: same
    // epoch means the coordinator never died, so the chunk is either
    // unmerged (re-send lands it) or already merged (stale ack). Only
    // then ask for new work.
    if pending.is_some() {
        if let Some(served) = deliver(channel, epoch, pending, report)? {
            return Ok(served);
        }
    }

    loop {
        let response = channel.roundtrip(&Request::Lease {
            worker,
            fingerprint: ctx.fingerprint,
        })?;
        match response {
            Response::Grant {
                lease,
                chunk,
                trials,
                ttl_ms: _,
                epoch: grant_epoch,
            } => {
                if grant_epoch != epoch {
                    // Can only mean the coordinator restarted underneath
                    // this connection; the grant belongs to an epoch we
                    // never attached to. Re-attach rather than guess.
                    return Ok(Served::Fenced);
                }
                if ctx
                    .opts
                    .sabotage
                    .abandon_after_leases
                    .is_some_and(|n| report.leases >= n)
                {
                    // Vanish holding the lease: no heartbeat, no
                    // completion, no goodbye.
                    report.abandoned = true;
                    return Ok(Served::Done);
                }
                report.leases += 1;
                // Dropping `stop` ends the guard at once.
                let (stop, stopped) = mpsc::channel::<()>();
                let guard = {
                    let interval = ctx.opts.heartbeat_interval;
                    let io_timeout = ctx.opts.io_timeout;
                    let chaos = ctx.opts.chaos.clone();
                    let addr = ctx.addr;
                    std::thread::spawn(move || {
                        heartbeat_guard(
                            addr,
                            &Request::Heartbeat {
                                worker,
                                lease,
                                epoch,
                            },
                            interval,
                            io_timeout,
                            chaos.as_ref(),
                            &stopped,
                        );
                    })
                };
                // First grant ever: build the session under heartbeat
                // cover (the guard above keeps the lease alive through
                // the golden run), then prove both sides prepared the
                // same campaign. The session then lives for the rest of
                // the process — a re-attach, even one that crosses a
                // coordinator restart, reuses it (the fingerprint check
                // on every `Lease` keeps it honest). On mismatch the
                // held lease simply expires and the chunk redelivers —
                // correct by design.
                if session.is_none() {
                    let built = CampaignSession::new_with_aot(
                        ctx.target,
                        ctx.tags,
                        &ctx.config,
                        certa_native::for_program(ctx.target.program()),
                    );
                    report.session_builds += 1;
                    report.native = built.runs_natively();
                    let fingerprint = built.fingerprint();
                    if fingerprint != ctx.fingerprint {
                        drop(stop);
                        guard.join().expect("heartbeat guard panicked");
                        return Err(DistError::JobMismatch(format!(
                            "session fingerprint {fingerprint:#x} != job fingerprint {:#x}",
                            ctx.fingerprint
                        )));
                    }
                    *session = Some(built);
                }
                let live = session.as_ref().expect("session just built");
                if !ctx.opts.throttle_per_chunk.is_zero() {
                    std::thread::sleep(ctx.opts.throttle_per_chunk);
                }
                let harness_before = live.harness_stats();
                let restores_before = live.restore_stats();
                let records = live.run_subset(&trials);
                let harness = live.harness_stats().saturating_sub(&harness_before);
                let restores = live.restore_stats().saturating_sub(&restores_before);
                drop(stop);
                guard.join().expect("heartbeat guard panicked");

                // Stage the request *before* the first send attempt, so
                // a connection lost mid-round-trip can re-send it.
                *pending = Some(PendingComplete {
                    trials: trials.len() as u64,
                    harness,
                    restores,
                    request: Request::Complete {
                        worker,
                        lease,
                        chunk,
                        epoch,
                        records: trials.iter().copied().zip(records).collect(),
                        harness,
                        restores,
                    },
                });
                if let Some(served) = deliver(channel, epoch, pending, report)? {
                    return Ok(served);
                }
            }
            Response::Wait { poll_ms } => {
                std::thread::sleep(Duration::from_millis(poll_ms.min(5_000)));
            }
            Response::Drained => return Ok(Served::Done),
            Response::Reject { reason } => return Err(DistError::Protocol(reason)),
            other => {
                return Err(DistError::Protocol(format!(
                    "expected Grant/Wait/Drained, got {other:?}"
                )))
            }
        }
    }
}

/// Runs a worker against the coordinator at `addr` until the campaign
/// drains (or the sabotage hook fires). `resolve` maps the job's workload
/// name to a target; the session built for it on the first grant runs on
/// the native code this build has for the target's program, if any, and
/// on the interpreter otherwise ([`WorkerReport::native`] says which).
/// Re-attaches with exponential backoff plus jitter on connection loss —
/// including across a coordinator restart, where the new `Welcome`'s
/// epoch tells the worker to drop work done for the dead incarnation (see
/// the module docs) — and gives up after
/// [`WorkerOptions::connect_attempts`] consecutive failures.
///
/// # Errors
///
/// [`DistError::Io`] or [`DistError::Frame`] once reconnection is
/// exhausted (frame corruption is handled exactly like connection loss:
/// drop the connection, count it, re-attach);
/// [`DistError::JobMismatch`] when the workload cannot be resolved, the
/// rebuilt session's fingerprint differs from the coordinator's, or a
/// re-attach is welcomed to a *different* job; [`DistError::Protocol`]
/// on undecodable or out-of-order responses; [`DistError::Auth`] when
/// the coordinator cannot prove it knows the shared secret — the latter
/// three are fatal immediately (retrying cannot fix a wrong binary or a
/// wrong peer).
///
/// # Panics
///
/// Panics if the heartbeat guard thread panics (a worker bug).
pub fn run_worker(
    addr: SocketAddr,
    resolve: &TargetResolver,
    opts: &WorkerOptions,
) -> Result<WorkerReport, DistError> {
    let mut report = WorkerReport::default();
    // Consecutive failures: a successful attach (Hello/Welcome) resets
    // the budget, so a long campaign survives any number of transient
    // losses as long as each re-attach actually reaches a coordinator.
    let mut failures = 0u32;
    let mut connected_before = false;

    let (mut channel, mut worker, mut epoch, job) =
        attach(addr, opts, &mut report, &mut failures, &mut connected_before)?;
    report.worker = worker;

    // Resolve the workload and re-derive its tag map now (cheap), but
    // DEFER the expensive session rebuild — the golden run and checkpoint
    // capture — until the first `Grant`. The `Hello`→`Lease` gap stays at
    // milliseconds, so a faster co-worker draining the campaign in that
    // window costs this worker nothing but a `Drained` answer; building
    // eagerly here once stranded a late worker against a coordinator that
    // had already finished. Until the session exists we lease with the
    // job's advertised fingerprint; the rebuilt session must then match
    // it or the job is unservable.
    let target = resolve(&job.workload).ok_or_else(|| {
        DistError::JobMismatch(format!("unresolvable workload {:?}", job.workload))
    })?;
    let tags = certa_core::analyze(target.program());
    let mut config = job.config.clone();
    config.threads = opts
        .threads_override
        .unwrap_or(job.worker_threads as usize);
    let ctx = WorkerContext {
        addr,
        fingerprint: job.fingerprint,
        target: target.as_ref(),
        tags: &tags,
        config,
        opts,
    };
    let mut session: Option<CampaignSession<'_>> = None;
    let mut pending: Option<PendingComplete> = None;

    loop {
        let served = serve(
            &ctx,
            &mut channel,
            worker,
            epoch,
            &mut session,
            &mut pending,
            &mut report,
        );
        match served {
            Ok(Served::Done) => {
                channel.retire(&mut report);
                if let Some(chaos) = &opts.chaos {
                    report.chaos = chaos.counts();
                }
                return Ok(report);
            }
            Ok(Served::Fenced) => {}
            Err(DistError::Io(_)) => {}
            Err(DistError::Frame(_)) => {
                // The peer (or the chaos layer) sent garbage; the
                // connection is untrusted. Same recovery as a loss.
                report.corrupt_frames += 1;
            }
            Err(fatal) => return Err(fatal),
        }
        channel.retire(&mut report);
        // Re-attach (failed attempts count toward the consecutive-failure
        // budget until a Welcome lands). A different fingerprint means
        // the restarted coordinator is running a different campaign — the
        // session we hold cannot serve it, so that is fatal, not
        // retriable.
        let (new_channel, new_worker, new_epoch, new_job) =
            attach(addr, opts, &mut report, &mut failures, &mut connected_before)?;
        if new_job.fingerprint != ctx.fingerprint {
            return Err(DistError::JobMismatch(format!(
                "re-attach welcomed to a different job: fingerprint {:#x} != {:#x}",
                new_job.fingerprint, ctx.fingerprint
            )));
        }
        if new_epoch != epoch {
            // The old incarnation is dead; anything staged for it is
            // void. (A completion fenced by an explicit Ack was already
            // dropped and counted in `deliver`.)
            if pending.take().is_some() {
                report.stale_epoch_drops += 1;
            }
        }
        channel = new_channel;
        worker = new_worker;
        epoch = new_epoch;
        report.worker = worker;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn backoff_grows_exponentially_and_caps() {
        let base = Duration::from_millis(50);
        let cap = Duration::from_secs(2);
        let mut previous_ceiling = Duration::ZERO;
        for attempt in 0..8 {
            let ceiling = base.saturating_mul(1 << attempt).min(cap);
            let delay = backoff_delay(attempt, base, cap, 42);
            assert!(delay <= ceiling, "attempt {attempt}: {delay:?} > {ceiling:?}");
            assert!(
                delay >= ceiling / 2,
                "attempt {attempt}: {delay:?} < half of {ceiling:?}"
            );
            assert!(ceiling >= previous_ceiling);
            previous_ceiling = ceiling;
        }
        assert_eq!(
            base.saturating_mul(1 << 7).min(cap),
            cap,
            "late attempts are capped"
        );
    }

    #[test]
    fn backoff_is_deterministic_per_seed_and_attempt() {
        let base = Duration::from_millis(50);
        let cap = Duration::from_secs(2);
        assert_eq!(
            backoff_delay(3, base, cap, 7),
            backoff_delay(3, base, cap, 7)
        );
        // Different seeds de-synchronize workers (not guaranteed for
        // every pair, but this pair is fixed).
        assert_ne!(
            backoff_delay(3, base, cap, 7),
            backoff_delay(3, base, cap, 8)
        );
    }

    #[test]
    fn backoff_survives_huge_attempt_values() {
        // `base << 40` would overflow the u32 multiplier; the exponent
        // clamp (16) plus the pre-jitter cap must keep any attempt
        // number finite and within `cap`.
        let base = Duration::from_millis(50);
        let cap = Duration::from_secs(2);
        for attempt in [17, 40, 1000, u32::MAX] {
            let delay = backoff_delay(attempt, base, cap, 9);
            assert!(delay <= cap, "attempt {attempt}: {delay:?} > {cap:?}");
            assert!(delay >= cap / 2, "attempt {attempt}: {delay:?} < half cap");
        }
    }

    #[test]
    fn heartbeat_guard_ends_when_its_sender_drops() {
        let (stop, stopped) = mpsc::channel::<()>();
        let guard = std::thread::spawn(move || {
            // Nothing listens here; a 60-s interval never gets to dial.
            heartbeat_guard(
                SocketAddr::from(([127, 0, 0, 1], 9)),
                &Request::Heartbeat {
                    worker: 0,
                    lease: 1,
                    epoch: 0,
                },
                Duration::from_secs(60),
                Duration::from_secs(60),
                None,
                &stopped,
            );
        });
        std::thread::sleep(Duration::from_millis(50));
        let dropped = std::time::Instant::now();
        drop(stop);
        guard.join().expect("guard thread");
        assert!(
            dropped.elapsed() < Duration::from_secs(1),
            "guard outlived its chunk by {:?}",
            dropped.elapsed()
        );
    }

    #[test]
    fn backoff_handles_zero_base() {
        assert_eq!(
            backoff_delay(5, Duration::ZERO, Duration::ZERO, 1),
            Duration::ZERO
        );
    }
}
