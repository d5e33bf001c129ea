//! The campaign coordinator: owns the [`CampaignSession`] (golden run +
//! checkpoint set), leases checkpoint-grouped trial chunks to workers,
//! and assembles the globally reconciled [`CampaignResult`].
//!
//! Threading model: the caller's thread drives lease expiry, inline
//! fallback, and the drain condition; one scoped acceptor thread takes
//! connections off the listener; and each connection gets a scoped
//! handler thread running a trivial request/response loop. All state the
//! handlers touch lives in one `Shared` struct: atomics plus three
//! mutexes, each held briefly and never while another is taken, nor
//! across trial execution or socket I/O.
//!
//! * The **lease table**, with the `table_changed` condvar that held
//!   `Lease` requests and the drive loop wait on.
//! * The write-ahead **journal**.
//! * The **books**: the record table, stat and verdict sums, per-worker
//!   ledgers, and the remote/drained worker sets.
//!
//! A chunk's results take one path. A fresh delivery, whether from a
//! remote worker or the inline fallback, is journaled and synced under
//! the journal lock, then merged under the books lock; a resumed
//! coordinator replays journaled chunks through the same merge. The sync
//! happens outside the books, so a `Grant` never waits on another chunk's
//! `fdatasync`.

use std::collections::HashSet;
use std::net::{TcpListener, ToSocketAddrs};
use std::path::Path;
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::{Condvar, Mutex, MutexGuard};
use std::time::{Duration, Instant};

use certa_fault::{
    CampaignResult, CampaignSession, HarnessStats, OutcomeCounts, RestoreStats, TrialChunk,
    TrialRecord,
};
use certa_fidelity::verdict::{TrialVerdict, VerdictCounts};

use crate::chaos::{Chaos, ChaosConfig, ChaosCounts, NetStream};
use crate::journal::{check_trial_ids, ChunkRecord, Journal, JournalIdentity};
use crate::lease::{Completion, LeaseTable};
use crate::protocol::{
    auth_proof, auth_token, FrameCodec, FrameError, JobSpec, Request, Response, PROTOCOL_VERSION,
};
use crate::worker::run_chunk;
use crate::DistError;

/// Classifies one trial record into the paper's verdict taxonomy.
/// Supplied by the driver (it needs the workload's fidelity judge, which
/// does not cross the coordinator seam); when present, per-chunk
/// [`VerdictCounts`] ride along in the durable journal and the final
/// [`DistResult`].
pub type VerdictClassifier = dyn Fn(&TrialRecord) -> TrialVerdict + Sync;

/// Ledger name under which a resumed coordinator attributes chunks
/// replayed from the journal (keeping "every trial is attributed to
/// exactly one worker" true across restarts).
pub const REPLAY_LEDGER_NAME: &str = "journal-replay";

/// Tuning knobs of a distributed campaign run.
#[derive(Debug, Clone)]
pub struct DistConfig {
    /// How long a granted lease lives without a heartbeat. Must comfortably
    /// exceed the worker heartbeat interval; a SIGKILLed worker's chunks
    /// come back after at most this long.
    pub lease_ttl: Duration,
    /// How long the coordinator holds a `Lease` request it cannot grant
    /// yet (every open chunk is leased out) before answering
    /// `Wait { poll_ms: 0 }`. The hold ends early with a `Grant` or
    /// `Drained` as soon as a completion, an expired lease, drain or
    /// shutdown changes the answer, so an idle worker is always held,
    /// never asleep. Keep it below the workers' read timeout
    /// (`WorkerOptions::io_timeout`).
    pub worker_poll: Duration,
    /// Degrade to in-process execution when zero workers ever attach
    /// within [`DistConfig::fallback_grace`] — a campaign should complete
    /// even if every worker binary is missing.
    pub fallback_inline: bool,
    /// How long to wait for a first worker before the inline fallback
    /// kicks in.
    pub fallback_grace: Duration,
    /// Trial threads each worker process runs with (advertised in the
    /// [`JobSpec`]).
    pub worker_threads: u32,
    /// Target chunk count for [`CampaignSession::chunk_plan`] — more
    /// parts mean finer-grained redelivery after a worker loss, at more
    /// round trips.
    pub chunk_parts: usize,
    /// Hard wall-clock bound on draining the chunk queue (golden run
    /// excluded); exceeding it is [`DistError::Incomplete`]. A backstop
    /// so a coordinator with no workers and no fallback cannot hang CI
    /// forever.
    pub drain_timeout: Duration,
    /// After the last chunk completes, keep answering requests (`Lease` →
    /// `Drained`, late `Complete`s → stale `Ack`s) until every attached
    /// worker has been told `Drained`, or this long passes with no
    /// incoming request — a coordinator that goes silent the instant the
    /// queue drains strands any worker whose request was in flight.
    pub shutdown_linger: Duration,
    /// Read/write timeout for every accepted connection: how long a
    /// handler thread will block on one mid-frame read or one response
    /// write before declaring the peer gone. A stalled peer can
    /// therefore never wedge a handler thread.
    pub io_timeout: Duration,
    /// Shared secret for the `Hello`/`Welcome` challenge/response. When
    /// set, a `Hello` with the wrong token is rejected (counted in
    /// [`WireStats::auth_rejects`], never served). **Required** for
    /// non-loopback listeners — [`Coordinator::run`] refuses to serve a
    /// routable address without one.
    pub secret: Option<String>,
    /// Wire-fault injection applied to every accepted connection
    /// (tests; the network analogue of
    /// [`crate::JournalFaultInjection`]).
    pub chaos: Option<ChaosConfig>,
    /// Test-only coordinator sabotage (the analogue of
    /// `WorkerSabotage`): lets the crash-recovery differential tests
    /// kill the coordinator at a provable point.
    pub sabotage: CoordinatorSabotage,
}

impl Default for DistConfig {
    fn default() -> Self {
        DistConfig {
            lease_ttl: Duration::from_secs(5),
            worker_poll: Duration::from_millis(100),
            fallback_inline: true,
            fallback_grace: Duration::from_secs(2),
            worker_threads: 1,
            chunk_parts: 16,
            drain_timeout: Duration::from_secs(600),
            shutdown_linger: Duration::from_secs(5),
            io_timeout: Duration::from_secs(10),
            secret: None,
            chaos: None,
            sabotage: CoordinatorSabotage::default(),
        }
    }
}

/// Test-only sabotage of the coordinator itself.
#[derive(Debug, Clone, Default)]
pub struct CoordinatorSabotage {
    /// Abort the drive loop — simulating coordinator death — once this
    /// many **Fresh** completions have been accepted by this
    /// incarnation (journal replays excluded). The run returns
    /// [`DistError::Crashed`]; with a journal, a subsequent
    /// [`Coordinator::run_durable`] resumes from the accepted chunks.
    /// Everything in-memory is dropped exactly as a SIGKILL would drop
    /// it; the bound listener survives only because the test holds the
    /// same [`Coordinator`], which is what lets loopback tests restart
    /// on the same address without `SO_REUSEADDR`.
    pub die_after_fresh: Option<usize>,
}

/// Per-worker attribution: what each attached worker (or the inline
/// fallback, ledgered under the name `coordinator-inline`) contributed.
#[derive(Debug, Clone, Default)]
pub struct WorkerLedger {
    /// Name from the worker's `Hello`.
    pub name: String,
    /// Leases granted to this worker (including ones it later lost).
    pub leases: u32,
    /// Chunks whose completion was accepted from this worker.
    pub chunks_completed: u32,
    /// Trials inside those accepted chunks.
    pub trials_completed: u64,
    /// Duplicate completions dropped (the chunk was already done).
    pub stale_completions: u32,
    /// Heartbeats received.
    pub heartbeats: u64,
    /// Harness-counter deltas merged from accepted chunks.
    pub harness: HarnessStats,
    /// Restore-counter deltas merged from accepted chunks.
    pub restores: RestoreStats,
}

/// Live progress counters a driver (e.g. the `campaign_dist` bench) can
/// watch from another thread — for instance to SIGKILL a worker once it
/// is provably mid-campaign.
#[derive(Debug, Default)]
pub struct DistProgress {
    chunks_total: AtomicUsize,
    chunks_done: AtomicUsize,
    workers_attached: AtomicUsize,
    leases_granted: AtomicUsize,
}

impl DistProgress {
    /// Total chunks in the campaign (0 until the run starts).
    #[must_use]
    pub fn chunks_total(&self) -> usize {
        self.chunks_total.load(Ordering::Relaxed)
    }

    /// Chunks whose completion has been accepted so far.
    #[must_use]
    pub fn chunks_done(&self) -> usize {
        self.chunks_done.load(Ordering::Relaxed)
    }

    /// Workers that have said `Hello` so far.
    #[must_use]
    pub fn workers_attached(&self) -> usize {
        self.workers_attached.load(Ordering::Relaxed)
    }

    /// Leases granted so far (including re-grants).
    #[must_use]
    pub fn leases_granted(&self) -> usize {
        self.leases_granted.load(Ordering::Relaxed)
    }
}

/// Wire-hardening counters for one coordinator run: what the protocol's
/// integrity and authentication layers caught and refused to act on.
#[derive(Debug, Clone, Copy, Default)]
pub struct WireStats {
    /// Connections dropped because a received frame failed an integrity
    /// check (checksum mismatch, sequence gap, oversize length prefix).
    /// The offending payload was never decoded, let alone merged.
    pub corrupt_frames: u64,
    /// Duplicated frames the framing layer silently absorbed.
    pub duplicate_frames: u64,
    /// `Hello`s rejected for a bad shared-secret token.
    pub auth_rejects: u64,
}

/// A distributed campaign's outcome: the globally assembled (and
/// reconciliation-checked) campaign result plus distribution-level
/// accounting.
#[derive(Debug)]
pub struct DistResult {
    /// The assembled campaign result — per-trial records bit-identical to
    /// an in-process run of the same configuration.
    pub campaign: CampaignResult,
    /// Per-worker attribution, in attach order (a resumed run leads with
    /// the [`REPLAY_LEDGER_NAME`] ledger).
    pub workers: Vec<WorkerLedger>,
    /// Lease expiries (chunks returned to the queue) over the whole run.
    pub redeliveries: u64,
    /// Whether the inline fallback executed any chunks.
    pub fallback_used: bool,
    /// Durability accounting (all-default for non-durable runs).
    pub resume: ResumeStats,
    /// Verdict counts summed over every chunk, when a
    /// [`VerdictClassifier`] was supplied (journaled chunks contribute
    /// their journaled counts).
    pub verdicts: VerdictCounts,
    /// What the frame-integrity and authentication layers caught on the
    /// coordinator's side of the wire.
    pub wire: WireStats,
    /// Faults the coordinator's own chaos domain injected (zero without
    /// [`DistConfig::chaos`]).
    pub chaos: ChaosCounts,
}

/// What crash recovery did for one coordinator incarnation.
#[derive(Debug, Clone, Default)]
pub struct ResumeStats {
    /// Whether this run used a write-ahead journal at all.
    pub durable: bool,
    /// Whether a pre-existing journal was found and replayed.
    pub resumed: bool,
    /// The epoch this incarnation ran under (1 for a fresh journal,
    /// `0` for non-durable runs).
    pub epoch: u64,
    /// Chunks replayed from the journal instead of re-executed.
    pub replayed_chunks: u64,
    /// Trials inside those replayed chunks.
    pub replayed_trials: u64,
    /// Duplicate journal records dropped during replay.
    pub journal_duplicates: u64,
    /// Bytes cut from the journal's torn tail.
    pub torn_tail_bytes: u64,
    /// Completions rejected because they carried another incarnation's
    /// epoch (counted, never merged).
    pub stale_epoch_completions: u64,
}

/// Everything a merged chunk or an attach updates, behind one lock.
#[derive(Default)]
struct Books {
    /// One slot per trial, filled by the fresh merge of its chunk.
    records: Vec<Option<TrialRecord>>,
    harness: HarnessStats,
    restores: RestoreStats,
    verdicts: VerdictCounts,
    /// Per-worker attribution, indexed by worker id.
    workers: Vec<WorkerLedger>,
    /// Worker ids that said `Hello` over the wire (the inline fallback
    /// and the replay ledger never appear here).
    remote: HashSet<u32>,
    /// Remote workers that have been answered with `Drained`, or whose
    /// connection closed.
    drained: HashSet<u32>,
}

impl Books {
    /// Opens a ledger named `name` and returns its worker id.
    fn attach(&mut self, name: &str) -> u32 {
        self.workers.push(WorkerLedger {
            name: name.to_string(),
            ..WorkerLedger::default()
        });
        (self.workers.len() - 1) as u32
    }
}

/// Shared coordinator state, borrowed by every handler thread.
struct Shared<'s, 'a> {
    session: &'s CampaignSession<'a>,
    workload: String,
    fingerprint: u64,
    dist: DistConfig,
    chunks: Vec<TrialChunk>,
    started: Instant,
    /// This incarnation's fencing epoch (from the journal; 0 when not
    /// durable — non-durable coordinators cannot restart, so no
    /// completion can ever carry a different epoch).
    epoch: u64,
    classify: Option<&'s VerdictClassifier>,
    table: Mutex<LeaseTable>,
    /// Signalled, after the change, whenever a held `Lease` request's
    /// answer may have changed: a Fresh completion (which may also drain
    /// the table), an expiry that re-queued a chunk, and shutdown. The
    /// drive loop waits on it too.
    table_changed: Condvar,
    /// The write-ahead journal; a Fresh delta is appended (and synced)
    /// under this lock *before* it is merged into the books.
    journal: Mutex<Option<Journal>>,
    books: Mutex<Books>,
    /// Coordinator-clock timestamp of the last incoming request.
    last_request_ms: AtomicU64,
    ever_attached: AtomicBool,
    fallback_used: AtomicBool,
    shutdown: AtomicBool,
    /// Fresh completions accepted by this incarnation (journal replays
    /// excluded) — the sabotage trigger.
    fresh_accepted: AtomicUsize,
    /// Completions rejected for carrying another incarnation's epoch.
    stale_epoch: AtomicU64,
    /// Connections dropped for a corrupt frame (payload never decoded).
    corrupt_frames: AtomicU64,
    /// Duplicated frames absorbed by handler-connection codecs.
    duplicate_frames: AtomicU64,
    /// `Hello`s rejected for a bad shared-secret token.
    auth_rejects: AtomicU64,
    progress: &'s DistProgress,
}

impl Shared<'_, '_> {
    fn now_ms(&self) -> u64 {
        u64::try_from(self.started.elapsed().as_millis()).unwrap_or(u64::MAX)
    }

    fn books(&self) -> MutexGuard<'_, Books> {
        self.books.lock().expect("books lock")
    }

    /// Updates `worker`'s ledger; an id this coordinator never handed out
    /// has none and is ignored.
    fn with_ledger(&self, worker: u32, update: impl FnOnce(&mut WorkerLedger)) {
        if let Some(ledger) = self.books().workers.get_mut(worker as usize) {
            update(ledger);
        }
    }

    fn handle(&self, request: Request) -> Response {
        self.last_request_ms.store(self.now_ms(), Ordering::SeqCst);
        match request {
            Request::Hello {
                version,
                name,
                token,
                challenge,
            } => {
                if version != PROTOCOL_VERSION {
                    return Response::Reject {
                        reason: format!(
                            "protocol version {version} != {PROTOCOL_VERSION}"
                        ),
                    };
                }
                if let Some(secret) = self.dist.secret.as_deref() {
                    if token != auth_token(secret, &name) {
                        // Wrong or missing secret: never registered, never
                        // served, only counted.
                        self.auth_rejects.fetch_add(1, Ordering::Relaxed);
                        return Response::Reject {
                            reason: "shared-secret authentication failed".into(),
                        };
                    }
                }
                let proof = self
                    .dist
                    .secret
                    .as_deref()
                    .map_or(0, |secret| auth_proof(secret, challenge));
                let worker = {
                    let mut books = self.books();
                    let worker = books.attach(&name);
                    books.remote.insert(worker);
                    worker
                };
                self.ever_attached.store(true, Ordering::SeqCst);
                self.progress.workers_attached.fetch_add(1, Ordering::Relaxed);
                Response::Welcome {
                    worker,
                    job: JobSpec {
                        workload: self.workload.clone(),
                        config: self.session.config().clone(),
                        fingerprint: self.fingerprint,
                        worker_threads: self.dist.worker_threads,
                    },
                    epoch: self.epoch,
                    proof,
                }
            }
            Request::Lease {
                worker,
                fingerprint,
            } => {
                if fingerprint != self.fingerprint {
                    return Response::Reject {
                        reason: format!(
                            "session fingerprint mismatch: worker {fingerprint:#x} != coordinator {:#x}",
                            self.fingerprint
                        ),
                    };
                }
                let granted = self.lease_or_hold(worker);
                match granted {
                    Ok((lease, chunk, trials)) => {
                        self.with_ledger(worker, |l| l.leases += 1);
                        self.progress.leases_granted.fetch_add(1, Ordering::Relaxed);
                        Response::Grant {
                            lease,
                            chunk,
                            trials,
                            ttl_ms: u64::try_from(self.dist.lease_ttl.as_millis())
                                .unwrap_or(u64::MAX),
                            epoch: self.epoch,
                        }
                    }
                    Err(true) => {
                        self.books().drained.insert(worker);
                        Response::Drained
                    }
                    Err(false) => Response::Wait { poll_ms: 0 },
                }
            }
            Request::Heartbeat {
                worker,
                lease,
                epoch,
            } => {
                // A lease from another epoch does not exist in this
                // incarnation's table — even if the id collides with a
                // live lease, renewing it would fence the wrong chunk.
                if epoch != self.epoch {
                    return Response::Ack {
                        accepted: false,
                        epoch: self.epoch,
                    };
                }
                let now = self.now_ms();
                let accepted = self.table.lock().expect("lease lock").heartbeat(lease, now);
                self.with_ledger(worker, |l| l.heartbeats += 1);
                Response::Ack {
                    accepted,
                    epoch: self.epoch,
                }
            }
            Request::Complete {
                worker,
                lease: _,
                chunk,
                epoch,
                records,
                harness,
                restores,
            } => {
                // The fence: a chunk executed against a dead incarnation
                // is already covered either by the journal (it was
                // accepted before the crash) or by re-queueing (it was
                // not) — merging it here could double-count. Reject and
                // tally; the worker drops its stale payload on seeing
                // the current epoch in the Ack.
                if epoch != self.epoch {
                    self.stale_epoch.fetch_add(1, Ordering::Relaxed);
                    return Response::Ack {
                        accepted: false,
                        epoch: self.epoch,
                    };
                }
                match self.accept_completion(worker, chunk, records, harness, restores) {
                    Ok(accepted) => Response::Ack {
                        accepted,
                        epoch: self.epoch,
                    },
                    Err(reason) => Response::Reject { reason },
                }
            }
        }
    }

    /// Leases a chunk to `worker`, or holds the request for at most
    /// [`DistConfig::worker_poll`] until one frees up. `Err(true)` means
    /// the table drained, `Err(false)` that the hold ran out (or the
    /// coordinator is shutting down) with nothing to grant.
    fn lease_or_hold(&self, worker: u32) -> Result<(u64, u32, Vec<u32>), bool> {
        let deadline = Instant::now() + self.dist.worker_poll;
        let mut table = self.table.lock().expect("lease lock");
        loop {
            let now = self.now_ms();
            if table.expire(now) > 0 {
                // Other held requests may take the rest of what came back.
                self.table_changed.notify_all();
            }
            if let Some(grant) = table.lease(worker, now) {
                return Ok(grant);
            }
            if table.is_drained() {
                return Err(true);
            }
            let left = deadline.saturating_duration_since(Instant::now());
            if left.is_zero() || self.shutdown.load(Ordering::SeqCst) {
                return Err(false);
            }
            table = self
                .table_changed
                .wait_timeout(table, left)
                .expect("lease lock")
                .0;
        }
    }

    /// Validates one live chunk delivery (a remote worker's or the inline
    /// fallback's) and, when fresh, journals and merges it. `Ok(true)` =
    /// fresh (merged), `Ok(false)` = stale duplicate (dropped). Only
    /// fresh completions touch the books — that is what keeps the global
    /// reconciliation exact under redelivery.
    fn accept_completion(
        &self,
        worker: u32,
        chunk: u32,
        records: Vec<(u32, TrialRecord)>,
        harness: HarnessStats,
        restores: RestoreStats,
    ) -> Result<bool, String> {
        check_trial_ids(&self.chunks, chunk, &records)?;
        let completion = self
            .table
            .lock()
            .expect("lease lock")
            .complete(chunk, worker);
        match completion {
            None => Err(format!("unknown chunk {chunk}")),
            Some(Completion::Stale) => {
                self.with_ledger(worker, |l| l.stale_completions += 1);
                Ok(false)
            }
            Some(Completion::Fresh) => {
                let mut verdicts = VerdictCounts::default();
                if let Some(classify) = self.classify {
                    for (_, record) in &records {
                        verdicts.record(&classify(record));
                    }
                }
                let delta = ChunkRecord {
                    chunk,
                    outcomes: OutcomeCounts::of(records.iter().map(|(_, r)| r)),
                    records,
                    harness,
                    restores,
                    verdicts,
                };
                // The write-ahead barrier: the delta must be durable
                // before it becomes visible anywhere in memory. An
                // append failure is fatal by design — continuing would
                // let the campaign diverge from its own journal.
                if let Some(journal) = self.journal.lock().expect("journal lock").as_mut() {
                    journal
                        .append_chunk(&delta)
                        .expect("write-ahead journal append failed");
                }
                self.fresh_accepted.fetch_add(1, Ordering::SeqCst);
                self.merge(worker, delta);
                Ok(true)
            }
        }
    }

    /// The one merge of a fresh chunk delta into the books, for live
    /// completions, the inline fallback and journal replay alike. A live
    /// delta reaches it already journaled; replay's came from the journal.
    fn merge(&self, worker: u32, delta: ChunkRecord) {
        {
            let mut books = self.books();
            books.harness.merge(&delta.harness);
            books.restores.merge(&delta.restores);
            books.verdicts.merge(&delta.verdicts);
            if let Some(ledger) = books.workers.get_mut(worker as usize) {
                ledger.chunks_completed += 1;
                ledger.trials_completed += delta.records.len() as u64;
                ledger.harness.merge(&delta.harness);
                ledger.restores.merge(&delta.restores);
            }
            for (trial, record) in delta.records {
                books.records[trial as usize] = Some(record);
            }
        }
        self.progress.chunks_done.fetch_add(1, Ordering::Relaxed);
        self.table_changed.notify_all();
    }

    /// The inline degradation path: the coordinator leases chunks to
    /// itself and runs them on its own session, through the *same*
    /// completion accounting as a remote delivery. Runs until nothing is
    /// leasable (drained, or a late worker holds the remainder).
    fn run_inline_fallback(&self) {
        let worker = self.books().attach("coordinator-inline");
        self.fallback_used.store(true, Ordering::SeqCst);
        loop {
            let now = self.now_ms();
            let granted = {
                let mut table = self.table.lock().expect("lease lock");
                table.expire(now);
                table.lease(worker, now)
            };
            let Some((_lease, chunk, trials)) = granted else {
                return;
            };
            self.with_ledger(worker, |l| l.leases += 1);
            self.progress.leases_granted.fetch_add(1, Ordering::Relaxed);
            let (records, harness, restores) = run_chunk(self.session, &trials);
            if let Err(reason) = self.accept_completion(worker, chunk, records, harness, restores) {
                // Can only happen on a coordinator bug; surface loudly.
                panic!("inline fallback delivery rejected: {reason}");
            }
        }
    }
}

/// Reads one frame from a handler connection, idling in short timeouts so
/// the shutdown flag stays responsive. `Ok(None)` means shutdown was
/// requested while idle; `Err` means the connection is gone — or sent
/// garbage ([`FrameError::Corrupt`]) and can no longer be trusted.
/// `io_timeout` bounds the mid-frame read once bytes have started
/// arriving, so a stalled peer cannot wedge the handler thread.
fn read_frame_idle(
    stream: &mut NetStream,
    codec: &mut FrameCodec,
    shutdown: &AtomicBool,
    io_timeout: Duration,
) -> Result<Option<Vec<u8>>, FrameError> {
    loop {
        if shutdown.load(Ordering::SeqCst) {
            return Ok(None);
        }
        // Peek with the short read timeout: only once at least one byte
        // is available do we commit to a bounded frame read, so an idle
        // poll can never desynchronize a partially read frame header.
        let mut probe = [0u8; 1];
        match stream.peek(&mut probe) {
            Ok(0) => {
                return Err(FrameError::Io(std::io::Error::new(
                    std::io::ErrorKind::UnexpectedEof,
                    "peer closed",
                )))
            }
            Ok(_) => {
                stream.set_read_timeout(Some(io_timeout))?;
                let frame = codec.read_frame(stream);
                stream.set_read_timeout(Some(Duration::from_millis(50)))?;
                return frame.map(Some);
            }
            Err(e)
                if e.kind() == std::io::ErrorKind::WouldBlock
                    || e.kind() == std::io::ErrorKind::TimedOut => {}
            Err(e) => return Err(FrameError::Io(e)),
        }
    }
}

/// One connection's request/response loop. A frame that fails an
/// integrity check kills the connection on the spot — its payload is
/// never decoded, never answered, only counted; the worker re-attaches
/// through the same machinery as any connection loss.
fn handle_connection(shared: &Shared<'_, '_>, mut stream: NetStream) {
    let _ = stream.set_nodelay(true);
    // Full-duplex timeouts before the first byte moves: a socket that
    // refuses them is dropped rather than trusted to never stall.
    if stream
        .set_write_timeout(Some(shared.dist.io_timeout))
        .is_err()
        || stream
            .set_read_timeout(Some(Duration::from_millis(50)))
            .is_err()
    {
        return;
    }
    let mut codec = FrameCodec::new();
    let mut helloed: Vec<u32> = Vec::new();
    loop {
        let payload = match read_frame_idle(
            &mut stream,
            &mut codec,
            &shared.shutdown,
            shared.dist.io_timeout,
        ) {
            Ok(Some(payload)) => payload,
            Ok(None) => break,
            Err(FrameError::Corrupt(_) | FrameError::Oversize(_)) => {
                shared.corrupt_frames.fetch_add(1, Ordering::Relaxed);
                break;
            }
            Err(FrameError::Io(_)) => break,
        };
        let response = match Request::decode(&payload) {
            Ok(request) => shared.handle(request),
            Err(e) => Response::Reject {
                reason: format!("undecodable request: {e}"),
            },
        };
        if let Response::Welcome { worker, .. } = &response {
            helloed.push(*worker);
        }
        if codec.write_frame(&mut stream, &response.encode()).is_err() {
            break;
        }
    }
    shared
        .duplicate_frames
        .fetch_add(codec.duplicates_dropped, Ordering::Relaxed);
    // A closed connection can never be told `Drained`; release the
    // post-drain linger from waiting on the workers it carried.
    if !helloed.is_empty() {
        shared.books().drained.extend(helloed);
    }
}

/// The campaign coordinator: a bound listener plus the drive loop that
/// leases chunks, expires lost workers, and assembles the global result.
#[derive(Debug)]
pub struct Coordinator {
    listener: TcpListener,
}

impl Coordinator {
    /// Binds the coordinator's listener (pass port 0 to let the OS pick).
    ///
    /// # Errors
    ///
    /// Propagates bind/configuration failures.
    pub fn bind(addr: impl ToSocketAddrs) -> std::io::Result<Self> {
        let listener = TcpListener::bind(addr)?;
        listener.set_nonblocking(true)?;
        Ok(Coordinator { listener })
    }

    /// The bound address (workers connect here).
    ///
    /// # Errors
    ///
    /// Propagates the OS query failure.
    pub fn local_addr(&self) -> std::io::Result<std::net::SocketAddr> {
        self.listener.local_addr()
    }

    /// Runs a distributed campaign to completion (see
    /// [`Coordinator::run_with_progress`]).
    ///
    /// # Errors
    ///
    /// See [`Coordinator::run_with_progress`].
    pub fn run(
        &self,
        session: &CampaignSession<'_>,
        workload: &str,
        dist: &DistConfig,
    ) -> Result<DistResult, DistError> {
        let progress = DistProgress::default();
        self.run_with_progress(session, workload, dist, &progress)
    }

    /// Runs a distributed campaign to completion: serves worker requests
    /// until every chunk is completed, then assembles the global
    /// [`CampaignResult`] and checks
    /// [`CampaignResult::verify_reconciliation`] across everything that
    /// arrived over the wire. `progress` is updated live.
    ///
    /// # Errors
    ///
    /// [`DistError::Incomplete`] if the drain timeout expires or a record
    /// is missing after drain (coordinator bugs or an abandoned
    /// campaign); [`DistError::Reconciliation`] if the assembled result
    /// fails the global invariants; [`DistError::Io`] on listener
    /// failures; [`DistError::Auth`] when the listener is bound to a
    /// non-loopback address without [`DistConfig::secret`] configured.
    ///
    /// # Panics
    ///
    /// Panics if an internal lock is poisoned (a handler thread
    /// panicked), or if the inline fallback's own delivery is rejected —
    /// both coordinator bugs.
    pub fn run_with_progress(
        &self,
        session: &CampaignSession<'_>,
        workload: &str,
        dist: &DistConfig,
        progress: &DistProgress,
    ) -> Result<DistResult, DistError> {
        self.run_internal(session, workload, dist, progress, None, None)
    }

    /// Runs a **durable** distributed campaign: every Fresh chunk
    /// completion is appended (and synced) to the write-ahead journal at
    /// `journal_path` before it is merged, so a coordinator killed
    /// mid-campaign can be restarted on the same journal and resume from
    /// its completed chunks instead of from zero. If the journal already
    /// holds a valid prefix for *this* campaign (same workload,
    /// fingerprint, and chunk plan), it is replayed through the ordinary
    /// completion merge under the [`REPLAY_LEDGER_NAME`] ledger, a torn
    /// tail is cut, and the run continues under the next epoch —
    /// completions from earlier incarnations are fenced off (counted in
    /// [`ResumeStats::stale_epoch_completions`], never merged).
    ///
    /// `classify` optionally maps each trial record to the paper's
    /// verdict taxonomy; the per-chunk [`VerdictCounts`] then ride along
    /// in the journal and sum into [`DistResult::verdicts`].
    ///
    /// # Errors
    ///
    /// Everything [`Coordinator::run_with_progress`] returns, plus
    /// [`DistError::Journal`] when the journal cannot be opened or
    /// belongs to a different campaign, and [`DistError::Crashed`] when
    /// [`CoordinatorSabotage::die_after_fresh`] fires.
    ///
    /// # Panics
    ///
    /// Additionally panics if a journal *append* fails mid-run: merging
    /// an unjournaled delta would break the write-ahead invariant.
    pub fn run_durable(
        &self,
        session: &CampaignSession<'_>,
        workload: &str,
        dist: &DistConfig,
        progress: &DistProgress,
        journal_path: &Path,
        classify: Option<&VerdictClassifier>,
    ) -> Result<DistResult, DistError> {
        self.run_internal(session, workload, dist, progress, Some(journal_path), classify)
    }

    fn run_internal(
        &self,
        session: &CampaignSession<'_>,
        workload: &str,
        dist: &DistConfig,
        progress: &DistProgress,
        journal_path: Option<&Path>,
        classify: Option<&VerdictClassifier>,
    ) -> Result<DistResult, DistError> {
        // Identity gate before a single frame is served: a listener
        // reachable from off-host must not hand the campaign to whoever
        // connects first.
        let local = self.listener.local_addr()?;
        if !local.ip().is_loopback() && dist.secret.is_none() {
            return Err(DistError::Auth(format!(
                "refusing to serve non-loopback listener {local} without a shared secret"
            )));
        }
        let chaos = dist.chaos.clone().map(Chaos::new);
        let chunks = session.chunk_plan(dist.chunk_parts);
        let fingerprint = session.fingerprint();
        let (journal, recovery) = match journal_path {
            Some(path) => {
                let identity = JournalIdentity {
                    workload,
                    fingerprint,
                    config: session.config(),
                    chunks: &chunks,
                };
                let (journal, recovery) = Journal::open(path, &identity)
                    .map_err(|e| DistError::Journal(e.to_string()))?;
                (Some(journal), Some(recovery))
            }
            None => (None, None),
        };
        let mut resume = ResumeStats {
            durable: journal.is_some(),
            resumed: recovery.as_ref().is_some_and(|r| r.resumed),
            epoch: recovery.as_ref().map_or(0, |r| r.epoch),
            journal_duplicates: recovery.as_ref().map_or(0, |r| r.duplicates),
            torn_tail_bytes: recovery.as_ref().map_or(0, |r| r.torn_tail_bytes),
            ..ResumeStats::default()
        };

        let ttl_ms = u64::try_from(dist.lease_ttl.as_millis()).unwrap_or(u64::MAX);
        let table = LeaseTable::new(chunks.iter().map(|c| c.trials.clone()).collect(), ttl_ms);
        progress.chunks_total.store(chunks.len(), Ordering::Relaxed);
        let shared = Shared {
            session,
            workload: workload.to_string(),
            fingerprint,
            dist: dist.clone(),
            chunks,
            started: Instant::now(),
            epoch: resume.epoch,
            classify,
            table: Mutex::new(table),
            table_changed: Condvar::new(),
            journal: Mutex::new(journal),
            books: Mutex::new(Books {
                records: vec![None; session.config().trials],
                ..Books::default()
            }),
            last_request_ms: AtomicU64::new(0),
            ever_attached: AtomicBool::new(false),
            fallback_used: AtomicBool::new(false),
            shutdown: AtomicBool::new(false),
            fresh_accepted: AtomicUsize::new(0),
            stale_epoch: AtomicU64::new(0),
            corrupt_frames: AtomicU64::new(0),
            duplicate_frames: AtomicU64::new(0),
            auth_rejects: AtomicU64::new(0),
            progress,
        };

        // Replay the journal's completed chunks through the one merge a
        // live delivery takes, before serving a single request: the
        // lease table then re-queues exactly the chunks with no durable
        // record. Attribution goes to a synthetic ledger so "every trial
        // is attributed to exactly one worker" survives the restart.
        if let Some(recovery) = recovery.filter(|r| !r.completed.is_empty()) {
            let replay_worker = shared.books().attach(REPLAY_LEDGER_NAME);
            for delta in recovery.completed {
                resume.replayed_chunks += 1;
                resume.replayed_trials += delta.records.len() as u64;
                let completion = shared
                    .table
                    .lock()
                    .expect("lease lock")
                    .complete(delta.chunk, replay_worker);
                assert_eq!(
                    completion,
                    Some(Completion::Fresh),
                    "journal recovery already deduplicated chunk records"
                );
                shared.merge(replay_worker, delta);
            }
        }

        let mut drain_error: Option<DistError> = None;
        std::thread::scope(|scope| {
            let acceptor = scope.spawn(|| {
                loop {
                    if shared.shutdown.load(Ordering::SeqCst) {
                        return;
                    }
                    match self.listener.accept() {
                        Ok((stream, _)) => {
                            let stream = match &chaos {
                                Some(chaos) => NetStream::Chaos(chaos.wrap(stream)),
                                None => NetStream::Plain(stream),
                            };
                            scope.spawn(|| handle_connection(&shared, stream));
                        }
                        Err(e)
                            if e.kind() == std::io::ErrorKind::WouldBlock
                                || e.kind() == std::io::ErrorKind::TimedOut =>
                        {
                            std::thread::sleep(Duration::from_millis(5));
                        }
                        Err(_) => std::thread::sleep(Duration::from_millis(5)),
                    }
                }
            });

            // The drive loop: expire lost leases, watch for drain, and
            // degrade to inline execution if no worker ever shows up. A
            // turn ends waiting on `table_changed` for at most 5 ms, so
            // the fresh merge that drains the table wakes it at once.
            loop {
                // Sabotage first: if the test asked this incarnation to
                // die after N fresh completions, it must die even if the
                // campaign would drain in the same tick — "crashed
                // provably mid-campaign" is the whole point.
                if let Some(limit) = dist.sabotage.die_after_fresh {
                    if shared.fresh_accepted.load(Ordering::SeqCst) >= limit {
                        drain_error = Some(DistError::Crashed(format!(
                            "sabotage: coordinator died after {} fresh completions",
                            shared.fresh_accepted.load(Ordering::SeqCst)
                        )));
                        break;
                    }
                }
                let mut table = shared.table.lock().expect("lease lock");
                if table.expire(shared.now_ms()) > 0 {
                    shared.table_changed.notify_all();
                }
                if table.is_drained() {
                    break;
                }
                if shared.started.elapsed() >= dist.drain_timeout {
                    drain_error = Some(DistError::Incomplete(format!(
                        "drain timeout ({:?}) expired with chunks outstanding",
                        dist.drain_timeout
                    )));
                    break;
                }
                if dist.fallback_inline
                    && !shared.ever_attached.load(Ordering::SeqCst)
                    && shared.started.elapsed() >= dist.fallback_grace
                {
                    drop(table);
                    shared.run_inline_fallback();
                    continue;
                }
                drop(
                    shared
                        .table_changed
                        .wait_timeout(table, Duration::from_millis(5))
                        .expect("lease lock"),
                );
            }
            // Linger after drain: a worker whose request was in flight (or
            // still rebuilding its session) would otherwise see the
            // coordinator go silent and burn its whole reconnect budget.
            // Keep serving until every `Hello`'d worker has either been
            // answered `Drained` or dropped its connection, bounded by a
            // no-incoming-request window for workers that died without
            // closing cleanly (SIGKILL leaves the peer OS to close the
            // socket, which still unblocks us via the connection path).
            if drain_error.is_none() {
                shared.last_request_ms.store(shared.now_ms(), Ordering::SeqCst);
                loop {
                    let all_notified = {
                        let books = shared.books();
                        books.remote.is_subset(&books.drained)
                    };
                    let idle = shared
                        .now_ms()
                        .saturating_sub(shared.last_request_ms.load(Ordering::SeqCst));
                    if all_notified
                        || Duration::from_millis(idle) >= dist.shutdown_linger
                        || shared.started.elapsed() >= dist.drain_timeout
                    {
                        break;
                    }
                    std::thread::sleep(Duration::from_millis(5));
                }
            }
            shared.shutdown.store(true, Ordering::SeqCst);
            // Wake held `Lease` requests. The flag is not guarded by the
            // lease lock, so take the lock first: that orders the wake-up
            // after any held request's last look at the flag.
            drop(shared.table.lock().expect("lease lock"));
            shared.table_changed.notify_all();
            acceptor.join().expect("acceptor thread panicked");
        });

        if let Some(error) = drain_error {
            return Err(error);
        }

        let books = shared.books.into_inner().expect("books lock");
        let mut trials = Vec::with_capacity(books.records.len());
        for (trial, record) in books.records.into_iter().enumerate() {
            match record {
                Some(record) => trials.push(record),
                None => {
                    return Err(DistError::Incomplete(format!(
                        "trial {trial} has no record after drain"
                    )))
                }
            }
        }
        let campaign = CampaignResult {
            golden: session.golden().clone(),
            trials,
            restore_stats: books.restores,
            harness_stats: books.harness,
            checkpoint_capture_bytes: session.checkpoint_capture_bytes(),
            elapsed: session.elapsed(),
        };
        campaign
            .verify_reconciliation()
            .map_err(DistError::Reconciliation)?;
        resume.stale_epoch_completions = shared.stale_epoch.load(Ordering::Relaxed);
        let wire = WireStats {
            corrupt_frames: shared.corrupt_frames.load(Ordering::Relaxed),
            duplicate_frames: shared.duplicate_frames.load(Ordering::Relaxed),
            auth_rejects: shared.auth_rejects.load(Ordering::Relaxed),
        };
        Ok(DistResult {
            campaign,
            workers: books.workers,
            redeliveries: shared.table.into_inner().expect("lease lock").redeliveries(),
            fallback_used: shared.fallback_used.load(Ordering::SeqCst),
            resume,
            verdicts: books.verdicts,
            wire,
            chaos: chaos.as_ref().map_or_else(ChaosCounts::default, |c| c.counts()),
        })
    }
}
