//! The coordinator's durable write-ahead journal.
//!
//! A campaign that runs for hours must survive coordinator death, not
//! just worker death. The journal is the only state that outlives the
//! process: an append-only log of **Fresh** chunk completions, each
//! carrying the chunk's full merge delta (trial records plus the
//! harness/restore/outcome/verdict counter blocks), written and
//! `fsync`ed *before* the delta is merged into coordinator memory — the
//! write-ahead invariant. Whatever the coordinator has observed, the
//! journal has observed first; a restarted coordinator replays the
//! journal through the same (property-tested, commutative-monoid) merge
//! and re-queues only the chunks with no journal record.
//!
//! ## File format
//!
//! ```text
//! magic  := b"CERTAWAL" ++ u32 format-version          (12 bytes)
//! record := u32 payload-len ++ u64 fnv1a-64(payload) ++ payload
//! payload:
//!   tag 0  Header { workload, fingerprint, config, chunk_count }
//!   tag 1  Epoch  { epoch }
//!   tag 2  Chunk  { chunk, (trial, record)*, harness, restores,
//!                   outcomes, verdicts }
//! ```
//!
//! A chunk record's `(trial, record)*, harness, restores` is the chunk
//! body a `Request::Complete` carries, written by the same codec: since
//! format 2, a record whose output repeats an earlier record's in the
//! same chunk refers back to it instead of carrying it (see
//! [`crate::protocol`]). A journal of another format version is refused
//! with an error naming both, never truncated.
//!
//! All integers are little-endian ([`certa_fault::wire`]). The first
//! record is always a `Header` pinning the campaign's identity; every
//! [`Journal::open`] appends one `Epoch` record, so the current epoch is
//! `max(epochs seen) + 1` and the file stays strictly append-only.
//!
//! ## Torn-tail policy
//!
//! A crash can leave a half-written final record. Recovery walks the
//! log tracking the end of the last fully valid record; the first
//! truncated, checksum-failing, or undecodable record **cuts the
//! file there** — it and everything after it are untrusted and
//! discarded ([`Recovery::torn_tail_bytes`]). Cut chunks simply re-run:
//! chunk execution is idempotent, so recovery never needs the tail to
//! be intact, only detectable as damaged. A record that checksums
//! correctly but *contradicts the campaign identity* (wrong trial ids
//! for its chunk id, counter blocks that disagree with its own records)
//! is a different beast — not a torn write but a journal for a
//! different campaign or an encoder bug — and fails recovery loudly
//! ([`JournalError::Identity`] / [`JournalError::Corrupt`]) instead of
//! silently dropping data.
//!
//! ## Epochs
//!
//! Lease ids restart from zero in a restarted coordinator, so a chunk
//! executed against the dead incarnation could collide with a live
//! lease id. Every incarnation therefore runs under the journal's
//! monotonic epoch, stamps it into grants, and rejects completions
//! stamped with any other epoch (see [`crate::protocol`]).

use std::fmt;
use std::fs::{File, OpenOptions};
use std::io::{Read, Seek, SeekFrom, Write};
use std::path::Path;

use certa_fault::wire::{
    decode_campaign_config, decode_outcome_counts, decode_verdict_counts, encode_campaign_config,
    encode_outcome_counts, encode_verdict_counts, ByteReader, ByteWriter,
};
use certa_fault::{CampaignConfig, HarnessStats, OutcomeCounts, RestoreStats, TrialChunk, TrialRecord};
use certa_fidelity::verdict::VerdictCounts;
use certa_isa::fnv1a;

use crate::protocol::{decode_chunk_body, encode_chunk_body};

/// File magic: distinguishes a journal from arbitrary bytes before any
/// record parsing happens.
const MAGIC: &[u8; 8] = b"CERTAWAL";

/// On-disk format version (bump on any record-format change).
///
/// Version history: 1 = initial format; 2 = a chunk record's body writes
/// an output repeated within it as a back-reference to its first entry
/// (the chunk-body codec of protocol v4).
const FORMAT_VERSION: u32 = 2;

const TAG_HEADER: u8 = 0;
const TAG_EPOCH: u8 = 1;
const TAG_CHUNK: u8 = 2;

/// Why the journal could not be opened or recovered.
#[derive(Debug)]
pub enum JournalError {
    /// A filesystem operation failed.
    Io(std::io::Error),
    /// The file exists but is not a journal (wrong magic or format
    /// version). Never truncated — it is probably someone else's file.
    NotAJournal(String),
    /// The journal belongs to a different campaign (workload,
    /// fingerprint, configuration, or chunk plan mismatch). Resuming
    /// would splice another experiment's trials into this one.
    Identity(String),
    /// A record checksummed correctly but is semantically impossible
    /// (trial ids that do not match the chunk plan, counter blocks that
    /// disagree with their own records). Not a torn write — refuse to
    /// guess.
    Corrupt(String),
}

impl fmt::Display for JournalError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            JournalError::Io(e) => write!(f, "journal i/o error: {e}"),
            JournalError::NotAJournal(what) => write!(f, "not a campaign journal: {what}"),
            JournalError::Identity(what) => write!(f, "journal identity mismatch: {what}"),
            JournalError::Corrupt(what) => write!(f, "journal corrupt: {what}"),
        }
    }
}

impl std::error::Error for JournalError {}

impl From<std::io::Error> for JournalError {
    fn from(e: std::io::Error) -> Self {
        JournalError::Io(e)
    }
}

/// What pins a journal to one campaign: the coordinator validates all of
/// this against its freshly rebuilt session before trusting a single
/// replayed record.
#[derive(Debug)]
pub struct JournalIdentity<'a> {
    /// Workload name (resolvable the same way as [`crate::JobSpec`]).
    pub workload: &'a str,
    /// [`certa_fault::CampaignSession::fingerprint`] — covers the
    /// result-affecting configuration *and* the golden run.
    pub fingerprint: u64,
    /// The full campaign configuration (stored for `JobSpec`
    /// resolvability and debugging; the fingerprint is the authority on
    /// result-affecting fields).
    pub config: &'a CampaignConfig,
    /// The deterministic chunk plan; replayed chunk records must match
    /// it trial-id for trial-id.
    pub chunks: &'a [TrialChunk],
}

/// One journaled chunk completion: the chunk id plus the complete merge
/// delta a `Request::Complete` carried.
#[derive(Debug, Clone, PartialEq)]
pub struct ChunkRecord {
    /// Chunk id (index into the deterministic chunk plan).
    pub chunk: u32,
    /// `(trial id, record)` pairs, one per trial of the chunk.
    pub records: Vec<(u32, TrialRecord)>,
    /// Harness-counter delta attributable to this chunk.
    pub harness: HarnessStats,
    /// Restore-counter delta attributable to this chunk.
    pub restores: RestoreStats,
    /// Outcome counts over `records` — redundant by construction, stored
    /// so recovery can cross-check the decode.
    pub outcomes: OutcomeCounts,
    /// Verdict counts over `records` (all-zero when the coordinator runs
    /// without a verdict classifier).
    pub verdicts: VerdictCounts,
}

/// What [`Journal::open`] recovered from a pre-existing journal.
#[derive(Debug, Default)]
pub struct Recovery {
    /// This incarnation's epoch (already appended to the journal):
    /// `max(epochs in the valid prefix) + 1`, so 1 for a fresh journal.
    pub epoch: u64,
    /// Whether the journal existed with a valid header (i.e. this is a
    /// resume, not a first run).
    pub resumed: bool,
    /// Deduplicated completed-chunk records in journal order, validated
    /// against the [`JournalIdentity`].
    pub completed: Vec<ChunkRecord>,
    /// Duplicate chunk records dropped during replay (a crash between
    /// journal append and in-memory merge can legitimately leave one).
    pub duplicates: u64,
    /// Bytes cut from the tail (0 when the log ended cleanly).
    pub torn_tail_bytes: u64,
}

/// Test-only write-path sabotage, mirroring the campaign harness's
/// `HarnessFaultInjection`: lets the journal's own recovery be put under
/// the faults it claims to survive. Indexes are 0-based counts of
/// [`Journal::append_chunk`] calls.
#[derive(Debug, Clone, Default)]
pub struct JournalFaultInjection {
    /// On the Nth append, write only the first `bytes` bytes of the
    /// record and stop accepting appends — the process "died"
    /// mid-`write`.
    pub tear_at: Option<(u64, usize)>,
    /// On the Nth append, XOR-flip one bit at `offset % record length` —
    /// media corruption that the checksum must catch.
    pub corrupt_at: Option<(u64, usize)>,
    /// Write the Nth append twice — a crash between append and merge
    /// retried by an over-eager delivery path.
    pub duplicate_at: Option<u64>,
}

impl JournalFaultInjection {
    /// Whether any sabotage is configured.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.tear_at.is_none() && self.corrupt_at.is_none() && self.duplicate_at.is_none()
    }
}

/// The open, append-only journal handle.
#[derive(Debug)]
pub struct Journal {
    file: File,
    /// `append_chunk` calls so far (fault-injection indexing).
    appended: u64,
    faults: JournalFaultInjection,
    /// Set after a simulated torn write: the journal behaves as if the
    /// process died, ignoring further appends.
    torn: bool,
}

fn encode_chunk_payload(chunk: &ChunkRecord) -> Vec<u8> {
    let mut w = ByteWriter::new();
    w.u8(TAG_CHUNK);
    w.u32(chunk.chunk);
    encode_chunk_body(&mut w, &chunk.records, &chunk.harness, &chunk.restores);
    encode_outcome_counts(&mut w, &chunk.outcomes);
    encode_verdict_counts(&mut w, &chunk.verdicts);
    w.finish()
}

/// Frames a payload as one on-disk record.
fn frame(payload: &[u8]) -> Vec<u8> {
    let mut bytes = Vec::with_capacity(12 + payload.len());
    bytes.extend_from_slice(&u32::try_from(payload.len()).expect("record fits in u32").to_le_bytes());
    bytes.extend_from_slice(&fnv1a(payload).to_le_bytes());
    bytes.extend_from_slice(payload);
    bytes
}

/// One parsed record payload.
enum Payload {
    Header {
        workload: String,
        fingerprint: u64,
        config: CampaignConfig,
        chunk_count: u32,
    },
    Epoch(u64),
    Chunk(ChunkRecord),
}

/// Decodes one checksum-valid payload. `None` = undecodable (treated as
/// tail damage by the caller).
fn decode_payload(payload: &[u8]) -> Option<Payload> {
    let mut r = ByteReader::new(payload);
    let parsed = match r.u8().ok()? {
        TAG_HEADER => Payload::Header {
            workload: r.str().ok()?,
            fingerprint: r.u64().ok()?,
            config: decode_campaign_config(&mut r).ok()?,
            chunk_count: r.u32().ok()?,
        },
        TAG_EPOCH => Payload::Epoch(r.u64().ok()?),
        TAG_CHUNK => {
            let chunk = r.u32().ok()?;
            let (records, harness, restores) = decode_chunk_body(&mut r).ok()?;
            Payload::Chunk(ChunkRecord {
                chunk,
                records,
                harness,
                restores,
                outcomes: decode_outcome_counts(&mut r).ok()?,
                verdicts: decode_verdict_counts(&mut r).ok()?,
            })
        }
        _ => return None,
    };
    r.expect_end().ok()?;
    Some(parsed)
}

/// Checks that `records` carry exactly the trial ids `plan` gives chunk
/// `chunk`, in any order: the one check a live delivery and a replayed
/// journal record both pass before they are merged.
pub(crate) fn check_trial_ids(
    plan: &[TrialChunk],
    chunk: u32,
    records: &[(u32, TrialRecord)],
) -> Result<(), String> {
    let Some(expected) = plan.get(chunk as usize) else {
        return Err(format!(
            "chunk {chunk} is not in the {}-chunk plan",
            plan.len()
        ));
    };
    let mut got: Vec<u32> = records.iter().map(|(t, _)| *t).collect();
    got.sort_unstable();
    let mut want = expected.trials.clone();
    want.sort_unstable();
    if got != want {
        return Err(format!("chunk {chunk}'s trial ids do not match the chunk plan"));
    }
    Ok(())
}

/// Validates a replayed chunk record against the campaign identity.
fn validate_chunk(chunk: &ChunkRecord, identity: &JournalIdentity<'_>) -> Result<(), JournalError> {
    check_trial_ids(identity.chunks, chunk.chunk, &chunk.records)
        .map_err(|e| JournalError::Identity(format!("journaled {e}")))?;
    let recomputed = OutcomeCounts::of(chunk.records.iter().map(|(_, r)| r));
    if recomputed != chunk.outcomes {
        return Err(JournalError::Corrupt(format!(
            "chunk {} outcome counts disagree with its own records",
            chunk.chunk
        )));
    }
    Ok(())
}

impl Journal {
    /// Opens (creating if absent) the journal at `path`, recovers
    /// whatever valid prefix it holds, validates it against `identity`,
    /// cuts any torn tail, and appends this incarnation's epoch record.
    ///
    /// # Errors
    ///
    /// [`JournalError::Io`] on filesystem failures;
    /// [`JournalError::NotAJournal`] if the file is not a journal (never
    /// truncated); [`JournalError::Identity`] /
    /// [`JournalError::Corrupt`] if the journal's valid prefix belongs
    /// to a different campaign or contradicts itself.
    pub fn open(
        path: &Path,
        identity: &JournalIdentity<'_>,
    ) -> Result<(Journal, Recovery), JournalError> {
        let mut file = OpenOptions::new()
            .read(true)
            .write(true)
            .create(true)
            .truncate(false)
            .open(path)?;
        let mut bytes = Vec::new();
        file.read_to_end(&mut bytes)?;

        let mut recovery = Recovery::default();
        // A file too short to hold the magic is the debris of a crash
        // during creation: no record can have been written (records only
        // follow the magic), so nothing is lost by starting over.
        let fresh = bytes.len() < MAGIC.len() + 4;
        if fresh {
            file.set_len(0)?;
            file.seek(SeekFrom::Start(0))?;
            file.write_all(MAGIC)?;
            file.write_all(&FORMAT_VERSION.to_le_bytes())?;
        } else {
            if &bytes[..MAGIC.len()] != MAGIC {
                return Err(JournalError::NotAJournal("bad magic".into()));
            }
            let version = u32::from_le_bytes(
                bytes[MAGIC.len()..MAGIC.len() + 4].try_into().expect("4 bytes"),
            );
            if version != FORMAT_VERSION {
                return Err(JournalError::NotAJournal(format!(
                    "format version {version}; this build reads format {FORMAT_VERSION}"
                )));
            }
            recovery = Self::recover(&bytes, identity)?;
            // Cut the torn tail before appending anything: everything
            // past the last valid record is untrusted.
            let valid_len = (bytes.len() as u64) - recovery.torn_tail_bytes;
            if recovery.torn_tail_bytes > 0 {
                file.set_len(valid_len)?;
            }
            file.seek(SeekFrom::Start(valid_len))?;
        }

        let mut journal = Journal {
            file,
            appended: 0,
            faults: JournalFaultInjection::default(),
            torn: false,
        };
        if !recovery.resumed {
            let mut w = ByteWriter::new();
            w.u8(TAG_HEADER);
            w.str(identity.workload);
            w.u64(identity.fingerprint);
            encode_campaign_config(&mut w, identity.config);
            w.u32(u32::try_from(identity.chunks.len()).expect("chunk count fits in u32"));
            journal.append_raw(&w.finish())?;
        }
        recovery.epoch += 1;
        let mut w = ByteWriter::new();
        w.u8(TAG_EPOCH);
        w.u64(recovery.epoch);
        journal.append_raw(&w.finish())?;
        Ok((journal, recovery))
    }

    /// Walks the record log (after the magic), returning the recovery
    /// state with `epoch` still at the *maximum seen* (the caller bumps
    /// it).
    fn recover(bytes: &[u8], identity: &JournalIdentity<'_>) -> Result<Recovery, JournalError> {
        let mut recovery = Recovery::default();
        let mut offset = MAGIC.len() + 4;
        let mut seen = vec![false; identity.chunks.len()];
        let mut first = true;
        while offset < bytes.len() {
            let Some(rest) = bytes.get(offset + 12..) else {
                break; // truncated record header: torn tail
            };
            let len = u32::from_le_bytes(bytes[offset..offset + 4].try_into().expect("4 bytes"))
                as usize;
            let checksum =
                u64::from_le_bytes(bytes[offset + 4..offset + 12].try_into().expect("8 bytes"));
            let Some(payload) = rest.get(..len) else {
                break; // truncated payload: torn tail
            };
            if fnv1a(payload) != checksum {
                break; // bit-corrupted record: untrusted from here on
            }
            let Some(parsed) = decode_payload(payload) else {
                break; // checksum collision on garbage: still untrusted
            };
            match parsed {
                Payload::Header {
                    workload,
                    fingerprint,
                    config,
                    chunk_count,
                } => {
                    if !first {
                        return Err(JournalError::Corrupt("second header record".into()));
                    }
                    if workload != identity.workload {
                        return Err(JournalError::Identity(format!(
                            "journal is for workload {workload:?}, campaign is {:?}",
                            identity.workload
                        )));
                    }
                    if fingerprint != identity.fingerprint {
                        return Err(JournalError::Identity(format!(
                            "journal fingerprint {fingerprint:#x} != session {:#x}",
                            identity.fingerprint
                        )));
                    }
                    if chunk_count as usize != identity.chunks.len() {
                        return Err(JournalError::Identity(format!(
                            "journal has {chunk_count} chunks, plan has {}",
                            identity.chunks.len()
                        )));
                    }
                    // The fingerprint covers every result-affecting
                    // config field and the golden run; the stored config
                    // is informational (threads may legitimately differ
                    // across a restart on different hardware).
                    let _ = config;
                    recovery.resumed = true;
                }
                Payload::Epoch(_) if first => {
                    return Err(JournalError::Corrupt(
                        "epoch record before the header".into(),
                    ))
                }
                Payload::Epoch(epoch) => recovery.epoch = recovery.epoch.max(epoch),
                Payload::Chunk(_) if first => {
                    return Err(JournalError::Corrupt(
                        "chunk record before the header".into(),
                    ));
                }
                Payload::Chunk(chunk) => {
                    validate_chunk(&chunk, identity)?;
                    if seen[chunk.chunk as usize] {
                        recovery.duplicates += 1;
                    } else {
                        seen[chunk.chunk as usize] = true;
                        recovery.completed.push(chunk);
                    }
                }
            }
            first = false;
            offset += 12 + len;
        }
        recovery.torn_tail_bytes = (bytes.len() - offset) as u64;
        Ok(recovery)
    }

    /// Appends one framed record, honoring fault injection, and syncs it
    /// to disk. This is the write-ahead barrier: when it returns, the
    /// record survives process death.
    fn append_raw(&mut self, payload: &[u8]) -> std::io::Result<()> {
        if self.torn {
            // A simulated torn write already "killed" this process; the
            // journal swallows everything after it, like the real crash
            // would.
            return Ok(());
        }
        let mut record = frame(payload);
        let n = self.appended;
        if let Some((at, offset)) = self.faults.corrupt_at {
            if at == n {
                let len = record.len();
                record[offset % len] ^= 0x01;
            }
        }
        let mut cut = record.len();
        if let Some((at, bytes)) = self.faults.tear_at {
            if at == n {
                cut = bytes.min(record.len());
                self.torn = true;
            }
        }
        self.file.write_all(&record[..cut])?;
        if !self.torn {
            if let Some(at) = self.faults.duplicate_at {
                if at == n {
                    self.file.write_all(&record)?;
                }
            }
        }
        self.file.sync_data()
    }

    /// Journals one Fresh chunk completion. Call *before* merging the
    /// delta into coordinator state; when this returns, the completion
    /// is durable.
    ///
    /// # Errors
    ///
    /// Propagates write/sync failures — the caller must treat them as
    /// fatal (merging an unjournaled delta would break the write-ahead
    /// invariant).
    pub fn append_chunk(&mut self, chunk: &ChunkRecord) -> std::io::Result<()> {
        let payload = encode_chunk_payload(chunk);
        // `appended` counts chunk appends only — header/epoch records
        // (written at open, before any sabotage is installed) never
        // consume a fault index.
        let result = self.append_raw(&payload);
        self.appended += 1;
        result
    }

    /// Installs test-only write-path sabotage.
    pub fn set_faults(&mut self, faults: JournalFaultInjection) {
        self.faults = faults;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use certa_fault::{TrialResult, TrialStatus};
    use certa_sim::Outcome;
    use std::path::PathBuf;
    use std::sync::atomic::{AtomicU64, Ordering};

    fn temp_path(tag: &str) -> PathBuf {
        static SEQ: AtomicU64 = AtomicU64::new(0);
        let seq = SEQ.fetch_add(1, Ordering::Relaxed);
        std::env::temp_dir().join(format!(
            "certa-journal-test-{}-{tag}-{seq}.wal",
            std::process::id()
        ))
    }

    fn record(trial: u32) -> TrialRecord {
        TrialRecord {
            status: TrialStatus::Completed(TrialResult {
                outcome: Outcome::Halted,
                output: Some(vec![trial as u8, 1, 2]),
                instructions: 100 + u64::from(trial),
                injected: 1,
            }),
            retries: 0,
        }
    }

    fn chunk_record(chunk: u32, trials: &[u32]) -> ChunkRecord {
        let records: Vec<(u32, TrialRecord)> =
            trials.iter().map(|&t| (t, record(t))).collect();
        let outcomes = OutcomeCounts::of(records.iter().map(|(_, r)| r));
        ChunkRecord {
            chunk,
            records,
            harness: HarnessStats::default(),
            restores: RestoreStats {
                dirty_page: 3,
                ..RestoreStats::default()
            },
            outcomes,
            verdicts: VerdictCounts::default(),
        }
    }

    struct Fixture {
        config: CampaignConfig,
        chunks: Vec<TrialChunk>,
    }

    impl Fixture {
        fn new() -> Self {
            Fixture {
                config: CampaignConfig {
                    trials: 6,
                    ..CampaignConfig::default()
                },
                chunks: vec![
                    TrialChunk {
                        id: 0,
                        trials: vec![0, 1],
                    },
                    TrialChunk {
                        id: 1,
                        trials: vec![2, 3],
                    },
                    TrialChunk {
                        id: 2,
                        trials: vec![4, 5],
                    },
                ],
            }
        }

        fn identity(&self) -> JournalIdentity<'_> {
            JournalIdentity {
                workload: "sum",
                fingerprint: 0xFEED_F00D,
                config: &self.config,
                chunks: &self.chunks,
            }
        }
    }

    #[test]
    fn fresh_open_then_resume_bumps_epoch_and_replays() {
        let fx = Fixture::new();
        let path = temp_path("resume");
        let (mut journal, recovery) = Journal::open(&path, &fx.identity()).expect("fresh open");
        assert_eq!(recovery.epoch, 1);
        assert!(!recovery.resumed);
        assert!(recovery.completed.is_empty());
        journal.append_chunk(&chunk_record(1, &[2, 3])).expect("append");
        journal.append_chunk(&chunk_record(0, &[0, 1])).expect("append");
        drop(journal);

        let (_journal, recovery) = Journal::open(&path, &fx.identity()).expect("resume");
        assert_eq!(recovery.epoch, 2);
        assert!(recovery.resumed);
        assert_eq!(recovery.duplicates, 0);
        assert_eq!(recovery.torn_tail_bytes, 0);
        // Journal order, not chunk order: replay is order-invariant.
        let ids: Vec<u32> = recovery.completed.iter().map(|c| c.chunk).collect();
        assert_eq!(ids, vec![1, 0]);
        assert_eq!(recovery.completed[0], chunk_record(1, &[2, 3]));
        drop(_journal);

        let (_journal, recovery) = Journal::open(&path, &fx.identity()).expect("resume again");
        assert_eq!(recovery.epoch, 3, "epochs are monotonic across opens");
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn torn_write_is_cut_exactly() {
        let fx = Fixture::new();
        let path = temp_path("torn");
        let (mut journal, _) = Journal::open(&path, &fx.identity()).expect("open");
        journal.append_chunk(&chunk_record(0, &[0, 1])).expect("append");
        journal.set_faults(JournalFaultInjection {
            tear_at: Some((1, 17)),
            ..JournalFaultInjection::default()
        });
        journal.append_chunk(&chunk_record(1, &[2, 3])).expect("torn append");
        // The torn journal swallows later appends, like the dead process
        // it simulates.
        journal.append_chunk(&chunk_record(2, &[4, 5])).expect("swallowed");
        drop(journal);

        let (_journal, recovery) = Journal::open(&path, &fx.identity()).expect("recover");
        assert_eq!(recovery.torn_tail_bytes, 17, "exactly the torn bytes are cut");
        let ids: Vec<u32> = recovery.completed.iter().map(|c| c.chunk).collect();
        assert_eq!(ids, vec![0], "only the intact record survives");
        drop(_journal);
        // The cut is durable: a third open sees a clean log.
        let (_journal, recovery) = Journal::open(&path, &fx.identity()).expect("reopen");
        assert_eq!(recovery.torn_tail_bytes, 0);
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn corrupted_record_is_rejected_and_cut() {
        let fx = Fixture::new();
        let path = temp_path("corrupt");
        let (mut journal, _) = Journal::open(&path, &fx.identity()).expect("open");
        journal.append_chunk(&chunk_record(0, &[0, 1])).expect("append");
        journal.set_faults(JournalFaultInjection {
            corrupt_at: Some((1, 40)),
            ..JournalFaultInjection::default()
        });
        journal.append_chunk(&chunk_record(1, &[2, 3])).expect("corrupted");
        // A later good record is *also* discarded: everything after the
        // first invalid record is untrusted.
        journal.set_faults(JournalFaultInjection::default());
        journal.append_chunk(&chunk_record(2, &[4, 5])).expect("after corruption");
        drop(journal);

        let (_journal, recovery) = Journal::open(&path, &fx.identity()).expect("recover");
        let ids: Vec<u32> = recovery.completed.iter().map(|c| c.chunk).collect();
        assert_eq!(ids, vec![0]);
        assert!(recovery.torn_tail_bytes > 0);
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn duplicated_record_is_deduplicated() {
        let fx = Fixture::new();
        let path = temp_path("dup");
        let (mut journal, _) = Journal::open(&path, &fx.identity()).expect("open");
        journal.set_faults(JournalFaultInjection {
            duplicate_at: Some(0),
            ..JournalFaultInjection::default()
        });
        journal.append_chunk(&chunk_record(0, &[0, 1])).expect("append twice");
        journal.set_faults(JournalFaultInjection::default());
        journal.append_chunk(&chunk_record(1, &[2, 3])).expect("append");
        drop(journal);

        let (_journal, recovery) = Journal::open(&path, &fx.identity()).expect("recover");
        assert_eq!(recovery.duplicates, 1);
        let ids: Vec<u32> = recovery.completed.iter().map(|c| c.chunk).collect();
        assert_eq!(ids, vec![0, 1], "each chunk replays exactly once");
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn identity_mismatches_fail_loudly_not_silently() {
        let fx = Fixture::new();
        let path = temp_path("identity");
        let (mut journal, _) = Journal::open(&path, &fx.identity()).expect("open");
        journal.append_chunk(&chunk_record(0, &[0, 1])).expect("append");
        drop(journal);

        let mut other = Fixture::new();
        let wrong_fp = JournalIdentity {
            fingerprint: 0xBAD,
            ..fx.identity()
        };
        assert!(matches!(
            Journal::open(&path, &wrong_fp),
            Err(JournalError::Identity(_))
        ));
        let wrong_workload = JournalIdentity {
            workload: "mpeg",
            ..fx.identity()
        };
        assert!(matches!(
            Journal::open(&path, &wrong_workload),
            Err(JournalError::Identity(_))
        ));
        other.chunks.pop();
        assert!(matches!(
            Journal::open(&path, &other.identity()),
            Err(JournalError::Identity(_))
        ));
        // The journal is never modified by a failed open.
        let (_journal, recovery) = Journal::open(&path, &fx.identity()).expect("still valid");
        assert_eq!(recovery.completed.len(), 1);
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn chunk_plan_mismatch_is_identity_error_not_tail_cut() {
        let fx = Fixture::new();
        let path = temp_path("plan");
        let (mut journal, _) = Journal::open(&path, &fx.identity()).expect("open");
        journal.append_chunk(&chunk_record(0, &[0, 1])).expect("append");
        drop(journal);

        // Same fingerprint, but a chunk plan whose chunk 0 holds other
        // trials: the checksum-valid record contradicts the plan.
        let mut other = Fixture::new();
        other.chunks[0].trials = vec![0, 1, 2];
        other.chunks[1].trials = vec![3];
        assert!(matches!(
            Journal::open(&path, &other.identity()),
            Err(JournalError::Identity(_))
        ));
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn a_format_1_journal_is_refused_naming_both_versions() {
        let fx = Fixture::new();
        let path = temp_path("format1");
        let (mut journal, _) = Journal::open(&path, &fx.identity()).expect("open");
        journal.append_chunk(&chunk_record(0, &[0, 1])).expect("append");
        drop(journal);
        let mut bytes = std::fs::read(&path).unwrap();
        bytes[MAGIC.len()..MAGIC.len() + 4].copy_from_slice(&1u32.to_le_bytes());
        std::fs::write(&path, &bytes).unwrap();

        match Journal::open(&path, &fx.identity()) {
            Err(err @ JournalError::NotAJournal(_)) => {
                let text = err.to_string();
                assert!(
                    text.contains("format version 1")
                        && text.contains(&format!("format {FORMAT_VERSION}")),
                    "{text}"
                );
            }
            other => panic!("expected NotAJournal, got {other:?}"),
        }
        assert_eq!(std::fs::read(&path).unwrap(), bytes, "never truncated");
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn non_journal_files_are_never_truncated() {
        let path = temp_path("notajournal");
        std::fs::write(&path, b"precious data that is definitely not a journal").unwrap();
        let fx = Fixture::new();
        assert!(matches!(
            Journal::open(&path, &fx.identity()),
            Err(JournalError::NotAJournal(_))
        ));
        assert_eq!(
            std::fs::read(&path).unwrap(),
            b"precious data that is definitely not a journal"
        );
        std::fs::remove_file(&path).ok();
    }
}
