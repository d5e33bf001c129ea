//! Format freeze for a chunk's results: the bytes one fixed
//! `Request::Complete` takes on the wire (protocol v4) and one fixed
//! chunk record takes in the write-ahead journal (format 2).
//!
//! The hex literals below were produced by the encoders of protocol v4
//! and journal format 2. Any change to either encoding fails here, so a
//! refactor of the codecs cannot move a byte without also bumping
//! `PROTOCOL_VERSION` or the journal's format version (and updating
//! these fixtures on purpose). Each test checks both directions: the
//! encoder produces the frozen bytes, and the decoder reads them back
//! into the same values. The fixture's third record repeats the first
//! one's output, so the back-reference form is frozen too.

use std::path::PathBuf;

use certa_dist::protocol::{Request, PROTOCOL_VERSION};
use certa_dist::{ChunkRecord, Journal, JournalIdentity};
use certa_fault::{
    CampaignConfig, HarnessFailure, HarnessStats, OutcomeCounts, RestoreStats, TrialChunk,
    TrialRecord, TrialResult, TrialStatus,
};
use certa_fidelity::verdict::VerdictCounts;
use certa_sim::Outcome;

/// The frozen `Request::Complete` payload (frame header excluded).
const COMPLETE_HEX: &str = concat!(
    "0303000000110000000000000001000000020000000000000003000000070000",
    "000000000104000000deadbeefd2040000000000000200000001000000090000",
    "00000202000000050000000100000000000000e7030000000000000300000000",
    "0000000100000000000000020000000000000003000000000000000400000000",
    "0000000500000000000000060000000000000007000000000000000800000000",
    "0000000900000000000000",
);

/// The frozen journal chunk record, framed as on disk: `u32` payload
/// length, `u64` FNV-1a checksum, payload.
const JOURNAL_CHUNK_HEX: &str = concat!(
    "ef000000700d6fd8b6ee39e40201000000030000000700000000000001040000",
    "00deadbeefd20400000000000002000000010000000900000000020200000005",
    "0000000100000000000000e70300000000000003000000000000000100000000",
    "0000000200000000000000030000000000000004000000000000000500000000",
    "0000000600000000000000070000000000000008000000000000000900000000",
    "0000000200000000000000000000000000000000000000000000000100000000",
    "0000000b000000000000000c000000000000000d000000000000000e00000000",
    "0000000f0000000000000010000000000000001100000000000000",
);

/// A halted trial with output, a retried-out `HarnessError` trial, and a
/// halted trial whose output repeats the first one's (written as a
/// back-reference to entry 0).
fn records() -> Vec<(u32, TrialRecord)> {
    vec![
        (
            7,
            TrialRecord {
                status: TrialStatus::Completed(TrialResult {
                    outcome: Outcome::Halted,
                    output: Some(vec![0xde, 0xad, 0xbe, 0xef]),
                    instructions: 1234,
                    injected: 2,
                }),
                retries: 1,
            },
        ),
        (
            9,
            TrialRecord {
                status: TrialStatus::HarnessError(HarnessFailure::Timeout),
                retries: 2,
            },
        ),
        (
            5,
            TrialRecord {
                status: TrialStatus::Completed(TrialResult {
                    outcome: Outcome::Halted,
                    output: Some(vec![0xde, 0xad, 0xbe, 0xef]),
                    instructions: 999,
                    injected: 3,
                }),
                retries: 0,
            },
        ),
    ]
}

/// Every counter distinct and nonzero, so a swapped or dropped field
/// shows in the bytes.
fn harness() -> HarnessStats {
    HarnessStats {
        panics: 1,
        timeouts: 2,
        retries: 3,
        rebuilds: 4,
        harness_errors: 5,
    }
}

fn restores() -> RestoreStats {
    RestoreStats {
        dirty_page: 6,
        diff_hop: 7,
        diff_union_cache_hits: 8,
        full_image: 9,
    }
}

fn verdicts() -> VerdictCounts {
    VerdictCounts {
        masked: 11,
        tolerable: 12,
        silent_corruption: 13,
        detected_crash: 14,
        hang: 15,
        detected_by_check: 16,
        harness_error: 17,
    }
}

fn complete() -> Request {
    Request::Complete {
        worker: 3,
        lease: 17,
        chunk: 1,
        epoch: 2,
        records: records(),
        harness: harness(),
        restores: restores(),
    }
}

fn chunk_record() -> ChunkRecord {
    let records = records();
    ChunkRecord {
        chunk: 1,
        outcomes: OutcomeCounts::of(records.iter().map(|(_, r)| r)),
        records,
        harness: harness(),
        restores: restores(),
        verdicts: verdicts(),
    }
}

fn hex(bytes: &[u8]) -> String {
    bytes.iter().map(|b| format!("{b:02x}")).collect()
}

fn unhex(text: &str) -> Vec<u8> {
    (0..text.len())
        .step_by(2)
        .map(|i| u8::from_str_radix(&text[i..i + 2], 16).expect("hex digit pair"))
        .collect()
}

#[test]
fn complete_request_bytes_are_frozen() {
    assert_eq!(
        PROTOCOL_VERSION, 4,
        "a new protocol version needs new fixtures"
    );
    assert_eq!(hex(&complete().encode()), COMPLETE_HEX);
    match Request::decode(&unhex(COMPLETE_HEX)).expect("frozen bytes decode") {
        Request::Complete {
            worker,
            lease,
            chunk,
            epoch,
            records: got,
            harness: got_harness,
            restores: got_restores,
        } => {
            assert_eq!((worker, lease, chunk, epoch), (3, 17, 1, 2));
            assert_eq!(got, records());
            assert_eq!(got_harness, harness());
            assert_eq!(got_restores, restores());
        }
        other => panic!("expected Complete, got {other:?}"),
    }
}

struct Plan {
    config: CampaignConfig,
    chunks: Vec<TrialChunk>,
}

impl Plan {
    fn new() -> Self {
        Plan {
            config: CampaignConfig {
                trials: 10,
                ..CampaignConfig::default()
            },
            chunks: vec![
                TrialChunk {
                    id: 0,
                    trials: vec![0, 1, 2, 3, 4, 6, 8],
                },
                TrialChunk {
                    id: 1,
                    trials: vec![5, 7, 9],
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

fn temp_path(tag: &str) -> PathBuf {
    std::env::temp_dir().join(format!(
        "certa-format-freeze-{}-{tag}.wal",
        std::process::id()
    ))
}

/// The bytes of a freshly opened journal: magic, header and epoch.
fn fresh_journal(path: &PathBuf, plan: &Plan) -> Vec<u8> {
    let _ = std::fs::remove_file(path);
    let (journal, _) = Journal::open(path, &plan.identity()).expect("fresh journal");
    drop(journal);
    std::fs::read(path).expect("journal bytes")
}

#[test]
fn journal_chunk_record_bytes_are_frozen() {
    let plan = Plan::new();

    // Produce: what one append adds after the header and epoch records.
    let path = temp_path("produce");
    let prefix = fresh_journal(&path, &plan);
    let (mut journal, _) = Journal::open(&path, &plan.identity()).expect("reopen");
    let before = std::fs::read(&path).expect("journal bytes").len();
    assert!(
        before > prefix.len(),
        "the reopen appended its epoch record"
    );
    journal.append_chunk(&chunk_record()).expect("append");
    drop(journal);
    let bytes = std::fs::read(&path).expect("journal bytes");
    assert_eq!(hex(&bytes[before..]), JOURNAL_CHUNK_HEX);
    std::fs::remove_file(&path).ok();

    // Decode: a journal whose only chunk record is the frozen bytes
    // replays to the fixture.
    let path = temp_path("decode");
    let mut bytes = fresh_journal(&path, &plan);
    bytes.extend_from_slice(&unhex(JOURNAL_CHUNK_HEX));
    std::fs::write(&path, &bytes).expect("write journal");
    let (journal, recovery) = Journal::open(&path, &plan.identity()).expect("recover");
    drop(journal);
    std::fs::remove_file(&path).ok();
    assert_eq!(recovery.torn_tail_bytes, 0, "the frozen record is intact");
    assert_eq!(recovery.completed, vec![chunk_record()]);
}
