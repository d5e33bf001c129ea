//! Wire protocol between coordinator and workers.
//!
//! Transport: one TCP connection per worker command stream (plus
//! short-lived connections for heartbeats), carrying checksummed,
//! sequence-numbered frames (see [`FrameCodec`]) capped at
//! [`MAX_FRAME_BYTES`]. Payloads are encoded with the hand-rolled
//! bincode-style format of [`certa_fault::wire`]; every message starts
//! with a one-byte message tag.
//!
//! The exchange is strictly request/response, worker-initiated (the
//! coordinator never pushes), which keeps the coordinator's per-connection
//! state machine trivial and makes worker loss indistinguishable from
//! worker silence — exactly the failure model the lease table handles.
//!
//! ```text
//! worker                         coordinator
//!   | -- Hello{version,name,token,challenge} -> | register worker (verify token)
//!   | <-- Welcome{worker,job,ep,proof} -------- | job spec + worker id + epoch
//!   | -- Lease{worker,fp} -------------------->  | expire stale leases, grant
//!   | <-- Grant{lease,chunk,ep,.} ------------- |    (or Wait / Drained / Reject)
//!   | -- Heartbeat{lease,ep} ----------------->  | renew expiry  (own connection)
//!   | -- Complete{lease,ep,recs} ------------->  | accept (fresh) or drop (stale)
//!   | <-- Ack{accepted,ep} -------------------- |
//! ```
//!
//! ## Chunk body (v4)
//!
//! A `Complete` carries its chunk's records and counter deltas as one
//! body, the same bytes the journal's chunk record holds. Since v4 the
//! body carries each distinct output once: a completed record whose
//! output equals an earlier record's in the same body is written without
//! it, as a back-reference to the first entry carrying it; every other
//! record is written as [`certa_fault::wire::encode_trial_record`]'s
//! bytes. The body decodes on its own, and a back-reference to itself, to
//! a later or missing entry, or to an entry without output is a
//! [`WireError`]. So is a body whose outputs, copies included, total more
//! than [`MAX_FRAME_BYTES`]: decoding never yields more output bytes than
//! one frame could carry written out.
//!
//! ## Frame format (v3, unchanged in v4)
//!
//! ```text
//! frame := u32 payload-len ++ u64 seq ++ u64 fnv1a-64(seq ++ payload) ++ payload
//! ```
//!
//! All integers little-endian. `seq` counts frames per connection per
//! direction, starting at zero; the checksum covers the sequence number
//! and the payload, so neither can be flipped undetected. The receiver:
//!
//! * rejects a length prefix over [`MAX_FRAME_BYTES`] as
//!   [`FrameError::Corrupt`] without allocating;
//! * rejects a checksum mismatch as [`FrameError::Corrupt`] — the caller
//!   must drop the **connection**, never act on the payload;
//! * silently drops a frame whose `seq` is below the expected one (a
//!   duplicated frame — delivered twice by a faulty transport — has
//!   already been acted on) and counts it;
//! * rejects a `seq` above the expected one (a lost or reordered frame)
//!   as [`FrameError::Corrupt`].
//!
//! Dropping duplicates at the framing layer is what preserves the strict
//! request/response pairing under chaos: without it, one duplicated
//! request would elicit two responses and desynchronise the stream for
//! good.
//!
//! ## Authentication
//!
//! [`Request::Hello`] carries `token = fnv(tag ++ secret ++ name)` and a
//! random `challenge`; [`Response::Welcome`] answers with
//! `proof = fnv(tag ++ secret ++ challenge)`. A coordinator configured
//! with a shared secret rejects Hellos with the wrong token (counted,
//! never served); a worker configured with a secret verifies the proof,
//! so neither side talks to an imposter. Non-loopback listeners refuse to
//! start without a secret. This is integrity-plus-identity, not
//! confidentiality: payloads are cleartext by design (trusted networks),
//! and the fnv construction gates accidents and chaos, not cryptanalysis.
//!
//! ## Epoch fencing
//!
//! Every coordinator incarnation runs under a monotonic **epoch**
//! (persisted in the durable journal — see `certa-dist`'s `journal`
//! module). [`Response::Welcome`], [`Response::Grant`], and
//! [`Response::Ack`] carry it; [`Request::Heartbeat`] and
//! [`Request::Complete`] must echo it. A completion stamped with a
//! pre-restart epoch is rejected (`Ack { accepted: false }`) and counted
//! as stale: lease ids restart from zero in a restarted coordinator, so
//! without the fence a chunk executed against the dead incarnation could
//! collide with a live lease id and double-merge after recovery.

use std::collections::hash_map::{Entry, HashMap};
use std::io::{Read, Write};

use certa_fault::wire::{
    decode_campaign_config, decode_harness_stats, decode_restore_stats, decode_trial_record,
    encode_campaign_config, encode_harness_stats, encode_restore_stats, encode_trial_record,
    ByteReader, ByteWriter, WireError,
};
use certa_fault::{
    CampaignConfig, HarnessStats, RestoreStats, TrialRecord, TrialResult, TrialStatus,
};
use certa_isa::{fnv1a, fnv1a_with};

/// Protocol version; a [`Request::Hello`] with any other version is
/// rejected. Bump on any frame-format change.
///
/// Version history: 1 = initial lease protocol; 2 = epoch fencing
/// (`Welcome`/`Grant`/`Ack` carry the coordinator epoch,
/// `Heartbeat`/`Complete` echo it); 3 = hardened framing (per-frame
/// FNV-1a checksum + sequence number, shared-secret challenge/response
/// in `Hello`/`Welcome`); 4 = a `Complete` body carries each distinct
/// output once, later records with the same output referring back to
/// the first (see [`Request::Complete`]).
pub const PROTOCOL_VERSION: u32 = 4;

/// Upper bound on one frame's payload. Generous — the largest real frame
/// is a [`Request::Complete`] carrying one chunk's trial records — but
/// finite, so a corrupt length prefix cannot make a peer allocate
/// unboundedly.
pub const MAX_FRAME_BYTES: u32 = 64 << 20;

/// Bytes of frame header preceding the payload: `u32` length, `u64`
/// sequence number, `u64` FNV-1a checksum.
pub const FRAME_HEADER_BYTES: usize = 4 + 8 + 8;

fn frame_checksum(seq: u64, payload: &[u8]) -> u64 {
    fnv1a_with(fnv1a(&seq.to_le_bytes()), payload)
}

/// The `Hello` token for `name` under `secret`: proves the worker knows
/// the shared secret without shipping it.
#[must_use]
pub fn auth_token(secret: &str, name: &str) -> u64 {
    let hash = fnv1a(b"certa-hello-token");
    let hash = fnv1a_with(hash, secret.as_bytes());
    fnv1a_with(hash, name.as_bytes())
}

/// The `Welcome` proof for a `Hello`'s `challenge` under `secret`: proves
/// the coordinator knows the shared secret too (a fresh challenge per
/// attach keeps a recorded `Welcome` from being replayed by an imposter).
#[must_use]
pub fn auth_proof(secret: &str, challenge: u64) -> u64 {
    let hash = fnv1a(b"certa-welcome-proof");
    let hash = fnv1a_with(hash, secret.as_bytes());
    fnv1a_with(hash, &challenge.to_le_bytes())
}

/// A framing-layer failure, distinct from socket errors so callers can
/// tell "the peer vanished" (retry via the usual reattach machinery) from
/// "the peer sent garbage" (drop the connection, count the corruption,
/// then retry via the same machinery).
#[derive(Debug)]
pub enum FrameError {
    /// Socket-level failure (including read/write timeouts, surfaced as
    /// [`std::io::ErrorKind::WouldBlock`] / `TimedOut`).
    Io(std::io::Error),
    /// The frame failed an integrity check: oversize length prefix,
    /// checksum mismatch, or sequence gap. The connection is untrusted
    /// from this point on and must be dropped.
    Corrupt(&'static str),
    /// A locally produced payload exceeds [`MAX_FRAME_BYTES`]; carries
    /// the offending length. Checked against `usize` *before* any `u32`
    /// conversion, so a >4 GiB payload cannot saturate its way past the
    /// cap.
    Oversize(usize),
}

impl std::fmt::Display for FrameError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            FrameError::Io(err) => write!(f, "frame io: {err}"),
            FrameError::Corrupt(what) => write!(f, "frame corrupt: {what}"),
            FrameError::Oversize(len) => {
                write!(f, "frame payload of {len} bytes exceeds MAX_FRAME_BYTES")
            }
        }
    }
}

impl std::error::Error for FrameError {}

impl From<std::io::Error> for FrameError {
    fn from(err: std::io::Error) -> Self {
        FrameError::Io(err)
    }
}

impl FrameError {
    /// Whether this is a socket timeout (as opposed to EOF, reset, or
    /// corruption).
    #[must_use]
    pub fn is_timeout(&self) -> bool {
        matches!(
            self,
            FrameError::Io(err) if matches!(
                err.kind(),
                std::io::ErrorKind::WouldBlock | std::io::ErrorKind::TimedOut
            )
        )
    }
}

/// Validates a to-be-sent payload length against [`MAX_FRAME_BYTES`] in
/// `usize` space — the length is only narrowed to `u32` *after* the cap
/// check, so a >4 GiB payload rejects cleanly instead of saturating.
///
/// # Errors
///
/// [`FrameError::Oversize`] when `len` exceeds the cap.
pub fn check_frame_len(len: usize) -> Result<u32, FrameError> {
    if len > MAX_FRAME_BYTES as usize {
        return Err(FrameError::Oversize(len));
    }
    Ok(u32::try_from(len).expect("MAX_FRAME_BYTES fits in u32"))
}

/// Reads exactly `len` payload bytes, growing the buffer in bounded
/// steps: an adversarial length prefix that passes the cap check still
/// cannot make the receiver allocate [`MAX_FRAME_BYTES`] up front for a
/// stream that delivers nothing.
fn read_capped(stream: &mut impl Read, len: usize) -> Result<Vec<u8>, FrameError> {
    const STEP: usize = 1 << 20;
    let mut payload = Vec::new();
    while payload.len() < len {
        let start = payload.len();
        payload.resize(start + (len - start).min(STEP), 0);
        stream.read_exact(&mut payload[start..])?;
    }
    Ok(payload)
}

/// Per-connection, per-direction frame state: the next sequence number to
/// stamp on writes, the next expected on reads, and the count of
/// duplicated frames silently dropped.
///
/// One codec per connection, on each side; the two directions keep
/// independent counters inside it. Sockets are never reused across
/// logical connections, so sequence numbers never wrap in practice.
#[derive(Debug, Default)]
pub struct FrameCodec {
    send_seq: u64,
    recv_seq: u64,
    /// Frames discarded because their sequence number had already been
    /// accepted — the transport delivered them twice.
    pub duplicates_dropped: u64,
}

impl FrameCodec {
    /// A fresh codec for a fresh connection.
    #[must_use]
    pub fn new() -> Self {
        FrameCodec::default()
    }

    /// Writes one checksummed, sequence-numbered frame. The frame is
    /// assembled in memory and sent with a single `write_all`, so a
    /// fault-injecting transport observes exactly one write per frame.
    ///
    /// # Errors
    ///
    /// [`FrameError::Oversize`] for payloads over [`MAX_FRAME_BYTES`];
    /// [`FrameError::Io`] for socket errors (including write timeouts).
    pub fn write_frame(
        &mut self,
        stream: &mut impl Write,
        payload: &[u8],
    ) -> Result<(), FrameError> {
        let len = check_frame_len(payload.len())?;
        let seq = self.send_seq;
        let mut frame = Vec::with_capacity(FRAME_HEADER_BYTES + payload.len());
        frame.extend_from_slice(&len.to_le_bytes());
        frame.extend_from_slice(&seq.to_le_bytes());
        frame.extend_from_slice(&frame_checksum(seq, payload).to_le_bytes());
        frame.extend_from_slice(payload);
        stream.write_all(&frame)?;
        stream.flush()?;
        // Only burn the sequence number once the transport accepted the
        // bytes; a failed write leaves the stream dead either way.
        self.send_seq += 1;
        Ok(())
    }

    /// Reads frames until one carries the expected sequence number,
    /// silently dropping duplicated frames (counted in
    /// [`FrameCodec::duplicates_dropped`]).
    ///
    /// # Errors
    ///
    /// [`FrameError::Io`] for socket errors (including read timeouts);
    /// [`FrameError::Corrupt`] for an oversize length prefix, checksum
    /// mismatch, or sequence gap — the caller must drop the connection
    /// and must not act on any part of the frame.
    pub fn read_frame(&mut self, stream: &mut impl Read) -> Result<Vec<u8>, FrameError> {
        loop {
            let mut header = [0u8; FRAME_HEADER_BYTES];
            stream.read_exact(&mut header)?;
            let len = u32::from_le_bytes(header[0..4].try_into().expect("4 bytes"));
            if len > MAX_FRAME_BYTES {
                return Err(FrameError::Corrupt("length prefix exceeds MAX_FRAME_BYTES"));
            }
            let seq = u64::from_le_bytes(header[4..12].try_into().expect("8 bytes"));
            let checksum = u64::from_le_bytes(header[12..20].try_into().expect("8 bytes"));
            let payload = read_capped(stream, len as usize)?;
            if frame_checksum(seq, &payload) != checksum {
                return Err(FrameError::Corrupt("frame checksum mismatch"));
            }
            if seq < self.recv_seq {
                self.duplicates_dropped += 1;
                continue;
            }
            if seq > self.recv_seq {
                return Err(FrameError::Corrupt("frame sequence gap"));
            }
            self.recv_seq += 1;
            return Ok(payload);
        }
    }
}

/// Everything a worker needs to rebuild the coordinator's campaign
/// session from scratch: the workload (resolved by name on the worker
/// side), the campaign configuration, and the coordinator's session
/// fingerprint the worker must independently reproduce.
#[derive(Debug, Clone)]
pub struct JobSpec {
    /// Workload name (e.g. `"adpcm"`); the worker's resolver maps it to a
    /// [`certa_fault::Target`].
    pub workload: String,
    /// The campaign configuration (sabotage excluded — see
    /// [`certa_fault::wire`]).
    pub config: CampaignConfig,
    /// The coordinator session's
    /// [`certa_fault::CampaignSession::fingerprint`].
    pub fingerprint: u64,
    /// Worker threads each worker process should run trials with.
    pub worker_threads: u32,
}

/// Worker → coordinator messages.
#[derive(Debug)]
pub enum Request {
    /// Introduce this worker process and negotiate the protocol version.
    Hello {
        /// Must equal [`PROTOCOL_VERSION`].
        version: u32,
        /// Human-readable worker name for the ledger.
        name: String,
        /// [`auth_token`] over the shared secret and `name`; zero when
        /// the worker has no secret configured. A coordinator configured
        /// with a secret rejects mismatches.
        token: u64,
        /// Fresh random nonce; the coordinator's [`Response::Welcome`]
        /// must answer with [`auth_proof`] over it.
        challenge: u64,
    },
    /// Ask for a chunk lease.
    Lease {
        /// Worker id from [`Response::Welcome`].
        worker: u32,
        /// The worker's independently computed session fingerprint.
        fingerprint: u64,
    },
    /// Renew a lease's expiry (sent on a short-lived side connection so
    /// it never interleaves with an in-flight request).
    Heartbeat {
        /// Worker id from [`Response::Welcome`].
        worker: u32,
        /// The lease being renewed.
        lease: u64,
        /// The coordinator epoch the lease was granted under; a renewal
        /// from a dead incarnation's epoch is refused.
        epoch: u64,
    },
    /// Deliver a completed chunk's records and stat deltas.
    Complete {
        /// Worker id from [`Response::Welcome`].
        worker: u32,
        /// The lease the chunk was run under (possibly already expired —
        /// completion of a not-yet-completed chunk is accepted anyway,
        /// because re-execution is idempotent).
        lease: u64,
        /// The chunk id.
        chunk: u32,
        /// The coordinator epoch the lease was granted under; a delivery
        /// stamped with another epoch is rejected as stale and counted,
        /// never merged.
        epoch: u64,
        /// `(trial id, record)` pairs, one per trial of the chunk. On the
        /// wire, a record whose output repeats an earlier one's refers
        /// back to it (see the module docs).
        records: Vec<(u32, TrialRecord)>,
        /// Harness-counter delta attributable to this chunk.
        harness: HarnessStats,
        /// Restore-counter delta attributable to this chunk.
        restores: RestoreStats,
    },
}

/// Coordinator → worker messages.
#[derive(Debug)]
pub enum Response {
    /// Reply to [`Request::Hello`].
    Welcome {
        /// The worker id to present in subsequent requests.
        worker: u32,
        /// The job to build a session for.
        job: JobSpec,
        /// The coordinator incarnation's epoch. A worker observing a new
        /// epoch on re-`Hello` must drop any leases and undelivered
        /// completions from the old one.
        epoch: u64,
        /// [`auth_proof`] over the `Hello`'s challenge; zero when the
        /// coordinator has no secret configured. A worker configured with
        /// a secret treats a mismatch as fatal.
        proof: u64,
    },
    /// A chunk lease.
    Grant {
        /// Lease id (unique per grant, including re-grants of one chunk).
        /// The id namespace is per-epoch: a restarted coordinator reuses
        /// ids, which is why completions carry the epoch.
        lease: u64,
        /// Chunk id to report back in [`Request::Complete`].
        chunk: u32,
        /// The chunk's trial ids.
        trials: Vec<u32>,
        /// Lease time-to-live; heartbeat well within it.
        ttl_ms: u64,
        /// The epoch this lease is valid under; echo it in
        /// [`Request::Heartbeat`] and [`Request::Complete`].
        epoch: u64,
    },
    /// Nothing leasable right now (everything is leased out); poll again
    /// after `poll_ms`.
    Wait {
        /// Suggested delay before the next [`Request::Lease`].
        poll_ms: u64,
    },
    /// Every chunk is completed; the worker can exit.
    Drained,
    /// Reply to [`Request::Heartbeat`] and [`Request::Complete`]:
    /// whether the renewal/delivery was accepted (`false` = lease
    /// unknown/expired for heartbeats, duplicate or stale-epoch
    /// completion for completes — all harmless by idempotency).
    Ack {
        /// Whether the request took effect.
        accepted: bool,
        /// The coordinator's *current* epoch — lets a worker learn it was
        /// fenced without waiting for the next re-`Hello`.
        epoch: u64,
    },
    /// The request cannot be served (version, fingerprint, or shared
    /// secret mismatch, malformed chunk). The worker should give up, not
    /// retry.
    Reject {
        /// Human-readable reason.
        reason: String,
    },
}

fn encode_job_spec(w: &mut ByteWriter, job: &JobSpec) {
    w.str(&job.workload);
    encode_campaign_config(w, &job.config);
    w.u64(job.fingerprint);
    w.u32(job.worker_threads);
}

fn decode_job_spec(r: &mut ByteReader<'_>) -> Result<JobSpec, WireError> {
    Ok(JobSpec {
        workload: r.str()?,
        config: decode_campaign_config(r)?,
        fingerprint: r.u64()?,
        worker_threads: r.u32()?,
    })
}

/// Cap on `Vec::with_capacity` pre-allocation while decoding adversarial
/// counts, on the wire and in the journal: large honest collections
/// still decode (the loop pushes past the capacity), but a forged count
/// cannot reserve more than this many elements up front.
const DECODE_PREALLOC_CAP: usize = 4096;

/// A chunk's results: its `(trial id, record)` pairs, one per trial, and
/// the harness and restore counter deltas running them added.
pub(crate) type ChunkBody = (Vec<(u32, TrialRecord)>, HarnessStats, RestoreStats);

/// Entry form of a record written with its own bytes.
const ENTRY_OWN: u8 = 0;
/// Entry form of a record whose output is an earlier entry's.
const ENTRY_BACK_REF: u8 = 1;

/// Encodes a chunk's results, the body of both [`Request::Complete`] and
/// the journal's chunk record:
///
/// ```text
/// body  := u32 count ++ entry* ++ harness ++ restores
/// entry := u32 trial ++ u8 0 ++ record
///        | u32 trial ++ u8 1 ++ u32 earlier ++ record-without-output
/// ```
///
/// A completed record whose output equals an earlier entry's is written
/// without it, as the index of the first entry carrying that output, so
/// a body holds each distinct output once and still decodes on its own:
/// neither the wire nor journal replay needs the golden run. How much
/// that saves depends on how often a workload's outputs repeat within a
/// chunk (see ARCHITECTURE.md, *Wire protocol framing*).
pub(crate) fn encode_chunk_body(
    w: &mut ByteWriter,
    records: &[(u32, TrialRecord)],
    harness: &HarnessStats,
    restores: &RestoreStats,
) {
    w.u32(u32::try_from(records.len()).expect("chunk fits in u32"));
    let mut first_with: HashMap<&[u8], u32> = HashMap::new();
    for (entry, (trial, record)) in (0u32..).zip(records) {
        w.u32(*trial);
        if let TrialStatus::Completed(
            result @ TrialResult {
                output: Some(output),
                ..
            },
        ) = &record.status
        {
            match first_with.entry(output) {
                Entry::Occupied(first) => {
                    w.u8(ENTRY_BACK_REF);
                    w.u32(*first.get());
                    let without_output = TrialRecord {
                        status: TrialStatus::Completed(TrialResult {
                            output: None,
                            ..*result
                        }),
                        retries: record.retries,
                    };
                    encode_trial_record(w, &without_output);
                    continue;
                }
                Entry::Vacant(slot) => {
                    slot.insert(entry);
                }
            }
        }
        w.u8(ENTRY_OWN);
        encode_trial_record(w, record);
    }
    encode_harness_stats(w, harness);
    encode_restore_stats(w, restores);
}

/// Decodes what [`encode_chunk_body`] wrote. A back-reference must name
/// an earlier entry that has an output, and the referring record must be
/// a completed one written without its own.
///
/// The outputs a body decodes to total at most [`MAX_FRAME_BYTES`]: a
/// body with every output written out had to fit in one frame, so no
/// honest body is refused, and a forged one cannot turn a small frame
/// into gigabytes of copies of one output.
pub(crate) fn decode_chunk_body(r: &mut ByteReader<'_>) -> Result<ChunkBody, WireError> {
    let count = r.u32()? as usize;
    let mut records: Vec<(u32, TrialRecord)> = Vec::with_capacity(count.min(DECODE_PREALLOC_CAP));
    let mut output_bytes = 0usize;
    let mut charge = |record: Option<&TrialResult>| {
        output_bytes += record
            .and_then(|result| result.output.as_ref())
            .map_or(0, Vec::len);
        if output_bytes > MAX_FRAME_BYTES as usize {
            return Err(WireError::Malformed("chunk outputs exceed MAX_FRAME_BYTES"));
        }
        Ok(())
    };
    for _ in 0..count {
        let trial = r.u32()?;
        let record = match r.u8()? {
            ENTRY_OWN => {
                let record = decode_trial_record(r)?;
                charge(record.result())?;
                record
            }
            ENTRY_BACK_REF => {
                // Every entry decoded so far is earlier; the entry itself,
                // later ones and anything past the count are not there yet.
                let earlier = records
                    .get(r.u32()? as usize)
                    .ok_or(WireError::Malformed("back-reference to no earlier entry"))?
                    .1
                    .result()
                    .filter(|result| result.output.is_some())
                    .ok_or(WireError::Malformed(
                        "back-reference to an entry without output",
                    ))?;
                // Charged before the copy is made.
                charge(Some(earlier))?;
                let output = earlier.output.clone();
                let mut record = decode_trial_record(r)?;
                match &mut record.status {
                    TrialStatus::Completed(result) if result.output.is_none() => {
                        result.output = output;
                    }
                    _ => return Err(WireError::Malformed("back-referring entry")),
                }
                record
            }
            _ => return Err(WireError::Malformed("chunk entry form")),
        };
        records.push((trial, record));
    }
    Ok((records, decode_harness_stats(r)?, decode_restore_stats(r)?))
}

impl Request {
    /// Encodes this request as one frame payload.
    #[must_use]
    pub fn encode(&self) -> Vec<u8> {
        let mut w = ByteWriter::new();
        match self {
            Request::Hello {
                version,
                name,
                token,
                challenge,
            } => {
                w.u8(0);
                w.u32(*version);
                w.str(name);
                w.u64(*token);
                w.u64(*challenge);
            }
            Request::Lease {
                worker,
                fingerprint,
            } => {
                w.u8(1);
                w.u32(*worker);
                w.u64(*fingerprint);
            }
            Request::Heartbeat {
                worker,
                lease,
                epoch,
            } => {
                w.u8(2);
                w.u32(*worker);
                w.u64(*lease);
                w.u64(*epoch);
            }
            Request::Complete {
                worker,
                lease,
                chunk,
                epoch,
                records,
                harness,
                restores,
            } => {
                w.u8(3);
                w.u32(*worker);
                w.u64(*lease);
                w.u32(*chunk);
                w.u64(*epoch);
                encode_chunk_body(&mut w, records, harness, restores);
            }
        }
        w.finish()
    }

    /// Decodes one frame payload.
    ///
    /// # Errors
    ///
    /// Returns [`WireError`] on truncation, bad tags, or trailing bytes.
    pub fn decode(payload: &[u8]) -> Result<Request, WireError> {
        let mut r = ByteReader::new(payload);
        let request = match r.u8()? {
            0 => Request::Hello {
                version: r.u32()?,
                name: r.str()?,
                token: r.u64()?,
                challenge: r.u64()?,
            },
            1 => Request::Lease {
                worker: r.u32()?,
                fingerprint: r.u64()?,
            },
            2 => Request::Heartbeat {
                worker: r.u32()?,
                lease: r.u64()?,
                epoch: r.u64()?,
            },
            3 => {
                let worker = r.u32()?;
                let lease = r.u64()?;
                let chunk = r.u32()?;
                let epoch = r.u64()?;
                let (records, harness, restores) = decode_chunk_body(&mut r)?;
                Request::Complete {
                    worker,
                    lease,
                    chunk,
                    epoch,
                    records,
                    harness,
                    restores,
                }
            }
            _ => return Err(WireError::Malformed("request tag")),
        };
        r.expect_end()?;
        Ok(request)
    }
}

impl Response {
    /// Encodes this response as one frame payload.
    #[must_use]
    pub fn encode(&self) -> Vec<u8> {
        let mut w = ByteWriter::new();
        match self {
            Response::Welcome {
                worker,
                job,
                epoch,
                proof,
            } => {
                w.u8(0);
                w.u32(*worker);
                encode_job_spec(&mut w, job);
                w.u64(*epoch);
                w.u64(*proof);
            }
            Response::Grant {
                lease,
                chunk,
                trials,
                ttl_ms,
                epoch,
            } => {
                w.u8(1);
                w.u64(*lease);
                w.u32(*chunk);
                w.u32(u32::try_from(trials.len()).expect("chunk fits in u32"));
                for trial in trials {
                    w.u32(*trial);
                }
                w.u64(*ttl_ms);
                w.u64(*epoch);
            }
            Response::Wait { poll_ms } => {
                w.u8(2);
                w.u64(*poll_ms);
            }
            Response::Drained => w.u8(3),
            Response::Ack { accepted, epoch } => {
                w.u8(4);
                w.bool(*accepted);
                w.u64(*epoch);
            }
            Response::Reject { reason } => {
                w.u8(5);
                w.str(reason);
            }
        }
        w.finish()
    }

    /// Decodes one frame payload.
    ///
    /// # Errors
    ///
    /// Returns [`WireError`] on truncation, bad tags, or trailing bytes.
    pub fn decode(payload: &[u8]) -> Result<Response, WireError> {
        let mut r = ByteReader::new(payload);
        let response = match r.u8()? {
            0 => Response::Welcome {
                worker: r.u32()?,
                job: decode_job_spec(&mut r)?,
                epoch: r.u64()?,
                proof: r.u64()?,
            },
            1 => {
                let lease = r.u64()?;
                let chunk = r.u32()?;
                let count = r.u32()? as usize;
                let mut trials = Vec::with_capacity(count.min(DECODE_PREALLOC_CAP));
                for _ in 0..count {
                    trials.push(r.u32()?);
                }
                Response::Grant {
                    lease,
                    chunk,
                    trials,
                    ttl_ms: r.u64()?,
                    epoch: r.u64()?,
                }
            }
            2 => Response::Wait { poll_ms: r.u64()? },
            3 => Response::Drained,
            4 => Response::Ack {
                accepted: r.bool()?,
                epoch: r.u64()?,
            },
            5 => Response::Reject { reason: r.str()? },
            _ => return Err(WireError::Malformed("response tag")),
        };
        r.expect_end()?;
        Ok(response)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use certa_fault::{TrialResult, TrialStatus};

    #[test]
    fn requests_roundtrip() {
        let record = TrialRecord {
            status: TrialStatus::Completed(TrialResult {
                outcome: certa_sim::Outcome::Halted,
                output: Some(vec![1, 2, 3]),
                instructions: 42,
                injected: 2,
            }),
            retries: 0,
        };
        let requests = [
            Request::Hello {
                version: PROTOCOL_VERSION,
                name: "w1".into(),
                token: auth_token("s3cret", "w1"),
                challenge: 0xfeed_beef,
            },
            Request::Lease {
                worker: 3,
                fingerprint: 0xABCD,
            },
            Request::Heartbeat {
                worker: 3,
                lease: 17,
                epoch: 2,
            },
            Request::Complete {
                worker: 3,
                lease: 17,
                chunk: 5,
                epoch: 2,
                records: vec![(9, record.clone()), (11, record)],
                harness: HarnessStats {
                    panics: 1,
                    ..HarnessStats::default()
                },
                restores: RestoreStats {
                    dirty_page: 4,
                    ..RestoreStats::default()
                },
            },
        ];
        for request in &requests {
            let bytes = request.encode();
            let back = Request::decode(&bytes).expect("decodes");
            assert_eq!(format!("{back:?}"), format!("{request:?}"));
        }
    }

    #[test]
    fn responses_roundtrip() {
        let responses = [
            Response::Welcome {
                worker: 1,
                job: JobSpec {
                    workload: "sum".into(),
                    config: CampaignConfig::default(),
                    fingerprint: 99,
                    worker_threads: 2,
                },
                epoch: 3,
                proof: auth_proof("s3cret", 0xfeed_beef),
            },
            Response::Grant {
                lease: 8,
                chunk: 2,
                trials: vec![1, 5, 9],
                ttl_ms: 5000,
                epoch: 3,
            },
            Response::Wait { poll_ms: 100 },
            Response::Drained,
            Response::Ack {
                accepted: true,
                epoch: 3,
            },
            Response::Reject {
                reason: "fingerprint mismatch".into(),
            },
        ];
        for response in &responses {
            let bytes = response.encode();
            let back = Response::decode(&bytes).expect("decodes");
            assert_eq!(format!("{back:?}"), format!("{response:?}"));
        }
    }

    #[test]
    fn frames_roundtrip_over_a_buffer() {
        let payload = Request::Lease {
            worker: 1,
            fingerprint: 2,
        }
        .encode();
        let mut writer = FrameCodec::new();
        let mut reader = FrameCodec::new();
        let mut buf = Vec::new();
        writer.write_frame(&mut buf, &payload).unwrap();
        writer.write_frame(&mut buf, b"second").unwrap();
        let mut cursor = &buf[..];
        assert_eq!(reader.read_frame(&mut cursor).unwrap(), payload);
        assert_eq!(reader.read_frame(&mut cursor).unwrap(), b"second");
        assert!(cursor.is_empty());
        assert_eq!(reader.duplicates_dropped, 0);
    }

    #[test]
    fn oversize_length_prefix_is_rejected_without_allocating() {
        let mut buf = Vec::new();
        buf.extend_from_slice(&(MAX_FRAME_BYTES + 1).to_le_bytes());
        buf.extend_from_slice(&[0u8; 16]);
        let mut cursor = &buf[..];
        let err = FrameCodec::new().read_frame(&mut cursor).unwrap_err();
        assert!(matches!(err, FrameError::Corrupt(_)), "{err}");
    }

    #[test]
    fn oversize_payload_is_rejected_before_narrowing() {
        // A payload whose length only overflows after `u32` truncation:
        // 5 GiB reports as ~1 GiB if narrowed first. The guard must
        // compare in usize space (satellite: the old guard saturated
        // `u32::try_from(...).unwrap_or(u32::MAX)` and could not tell
        // 4 GiB + 1 from u32::MAX).
        let huge = 5usize << 30;
        assert!(matches!(
            check_frame_len(huge),
            Err(FrameError::Oversize(len)) if len == huge
        ));
        assert!(check_frame_len(MAX_FRAME_BYTES as usize).is_ok());
        assert!(matches!(
            check_frame_len(MAX_FRAME_BYTES as usize + 1),
            Err(FrameError::Oversize(_))
        ));
    }

    #[test]
    fn corrupt_payload_fails_the_checksum() {
        let mut writer = FrameCodec::new();
        let mut buf = Vec::new();
        writer.write_frame(&mut buf, b"hello world").unwrap();
        let victim = FRAME_HEADER_BYTES + 3;
        buf[victim] ^= 0x40;
        let mut cursor = &buf[..];
        let err = FrameCodec::new().read_frame(&mut cursor).unwrap_err();
        assert!(
            matches!(err, FrameError::Corrupt("frame checksum mismatch")),
            "{err}"
        );
    }

    #[test]
    fn corrupt_sequence_number_fails_the_checksum() {
        let mut writer = FrameCodec::new();
        let mut buf = Vec::new();
        writer.write_frame(&mut buf, b"payload").unwrap();
        // The checksum covers the sequence number, so flipping seq bits
        // cannot smuggle a replay past the duplicate filter.
        buf[5] ^= 0x01;
        let mut cursor = &buf[..];
        let err = FrameCodec::new().read_frame(&mut cursor).unwrap_err();
        assert!(matches!(err, FrameError::Corrupt(_)), "{err}");
    }

    #[test]
    fn duplicated_frames_are_dropped_and_counted() {
        let mut writer = FrameCodec::new();
        let mut first = Vec::new();
        writer.write_frame(&mut first, b"frame zero").unwrap();
        let mut second = Vec::new();
        writer.write_frame(&mut second, b"frame one").unwrap();

        // The transport delivers frame zero twice, then frame one.
        let mut buf = Vec::new();
        buf.extend_from_slice(&first);
        buf.extend_from_slice(&first);
        buf.extend_from_slice(&second);

        let mut reader = FrameCodec::new();
        let mut cursor = &buf[..];
        assert_eq!(reader.read_frame(&mut cursor).unwrap(), b"frame zero");
        assert_eq!(reader.read_frame(&mut cursor).unwrap(), b"frame one");
        assert!(cursor.is_empty());
        assert_eq!(reader.duplicates_dropped, 1);
    }

    #[test]
    fn sequence_gaps_are_rejected() {
        let mut writer = FrameCodec::new();
        let mut skipped = Vec::new();
        writer.write_frame(&mut skipped, b"frame zero").unwrap();
        let mut buf = Vec::new();
        writer.write_frame(&mut buf, b"frame one").unwrap();

        // The receiver sees frame one without ever seeing frame zero.
        let mut cursor = &buf[..];
        let err = FrameCodec::new().read_frame(&mut cursor).unwrap_err();
        assert!(
            matches!(err, FrameError::Corrupt("frame sequence gap")),
            "{err}"
        );
    }

    #[test]
    fn auth_token_and_proof_depend_on_every_input() {
        assert_ne!(auth_token("a", "w1"), auth_token("b", "w1"));
        assert_ne!(auth_token("a", "w1"), auth_token("a", "w2"));
        assert_ne!(auth_proof("a", 1), auth_proof("b", 1));
        assert_ne!(auth_proof("a", 1), auth_proof("a", 2));
        // Token and proof domains are separated: same secret, same data
        // shape, different hashes.
        assert_ne!(auth_token("a", ""), auth_proof("a", 0));
    }
}
