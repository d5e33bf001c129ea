//! Property-based fuzzing of the wire decoders (frame layer and message
//! layer): adversarial bytes must always produce *typed errors* —
//! never a panic, never an unbounded allocation, never a silently
//! accepted corruption.
//!
//! Four claims, each driven by proptest:
//!
//! 1. `Request::decode` / `Response::decode` total on arbitrary bytes.
//! 2. Every strict prefix of a valid encoding fails to decode (the
//!    format is not ambiguous under truncation).
//! 3. Any single-bit flip anywhere in a framed message — length prefix,
//!    sequence number, checksum, payload — is rejected by
//!    [`FrameCodec::read_frame`].
//! 4. Forged length prefixes, element counts and back-references
//!    produce bounded allocations and typed errors, not OOM.
//!
//! Beside them: a `Complete` body that writes a repeated output as a
//! back-reference round-trips exactly, and a forged back-reference is a
//! typed error.

use std::io::Cursor;

use certa_dist::protocol::{JobSpec, Request, Response, MAX_FRAME_BYTES, PROTOCOL_VERSION};
use certa_dist::{FrameCodec, FrameError};
use certa_fault::wire::{
    encode_harness_stats, encode_restore_stats, encode_trial_record, ByteWriter,
};
use certa_fault::{
    CampaignConfig, HarnessFailure, HarnessStats, RestoreStats, TrialRecord, TrialResult,
    TrialStatus,
};
use certa_sim::{CrashKind, Outcome};
use proptest::prelude::*;

fn halted(output: Option<Vec<u8>>, instructions: u64) -> TrialRecord {
    TrialRecord {
        status: TrialStatus::Completed(TrialResult {
            outcome: Outcome::Halted,
            output,
            instructions,
            injected: 1,
        }),
        retries: 0,
    }
}

/// A halted record with output, a repeat of it (the back-reference form)
/// and a `HarnessError`.
fn sample_records(name: &[u8], a: u64) -> Vec<(u32, TrialRecord)> {
    vec![
        (0, halted(Some(name.to_vec()), a)),
        (1, halted(Some(name.to_vec()), a ^ 1)),
        (
            2,
            TrialRecord {
                status: TrialStatus::HarnessError(HarnessFailure::Panic),
                retries: 3,
            },
        ),
    ]
}

fn sample_requests(name: String, a: u64, b: u64, small: u32) -> Vec<Request> {
    let records = sample_records(name.as_bytes(), a);
    vec![
        Request::Hello {
            version: PROTOCOL_VERSION,
            name,
            token: a,
            challenge: b,
        },
        Request::Lease {
            worker: small,
            fingerprint: a,
        },
        Request::Heartbeat {
            worker: small,
            lease: a,
            epoch: b,
        },
        Request::Complete {
            worker: small,
            lease: a,
            chunk: small ^ 1,
            epoch: b,
            records,
            harness: Default::default(),
            restores: Default::default(),
        },
    ]
}

fn sample_responses(reason: String, a: u64, b: u64, small: u32) -> Vec<Response> {
    vec![
        Response::Welcome {
            worker: small,
            job: JobSpec {
                workload: reason.clone(),
                config: CampaignConfig::default(),
                fingerprint: a,
                worker_threads: 1,
            },
            epoch: b,
            proof: a ^ b,
        },
        Response::Grant {
            lease: a,
            chunk: small,
            trials: vec![0, 1, 2, small],
            ttl_ms: b,
            epoch: a,
        },
        Response::Wait { poll_ms: a },
        Response::Drained,
        Response::Ack {
            accepted: small.is_multiple_of(2),
            epoch: b,
        },
        Response::Reject { reason },
    ]
}

/// Frames `payload` exactly as a peer would put it on the wire.
fn frame(payload: &[u8]) -> Vec<u8> {
    let mut codec = FrameCodec::new();
    let mut wire = Vec::new();
    codec.write_frame(&mut wire, payload).expect("vec write");
    wire
}

fn ascii(bytes: Vec<u8>) -> String {
    String::from_utf8(bytes).expect("generated ascii")
}

proptest! {
    /// Claim 1: the message decoders are total — arbitrary bytes give
    /// `Ok` or a typed `WireError`, never a panic.
    #[test]
    fn decoders_never_panic_on_arbitrary_bytes(
        bytes in prop::collection::vec(any::<u8>(), 0..512)
    ) {
        let _ = Request::decode(&bytes);
        let _ = Response::decode(&bytes);
    }

    /// Claim 2: no strict prefix of a valid encoding decodes — there is
    /// no truncation point an attacker (or a cut connection) can hit
    /// that yields a different-but-valid message.
    #[test]
    fn truncations_always_fail_to_decode(
        name in prop::collection::vec(0x61u8..0x7b, 0..12),
        a in any::<u64>(),
        b in any::<u64>(),
        small in any::<u32>(),
        cut in any::<usize>(),
    ) {
        for request in sample_requests(ascii(name.clone()), a, b, small) {
            let full = request.encode();
            let cut = cut % full.len();
            prop_assert!(
                Request::decode(&full[..cut]).is_err(),
                "truncated {request:?} at {cut}/{} decoded",
                full.len()
            );
        }
        for response in sample_responses(ascii(name.clone()), a, b, small) {
            let full = response.encode();
            let cut = cut % full.len();
            prop_assert!(
                Response::decode(&full[..cut]).is_err(),
                "truncated {response:?} at {cut}/{} decoded",
                full.len()
            );
        }
    }

    /// Claim 3: a single flipped bit anywhere in a framed message —
    /// header or payload — is caught by the frame layer. FNV-1a's
    /// byte-mix is bijective per step, so a one-bit change in the
    /// checksummed region *always* changes the checksum; a flip in the
    /// length prefix misframes the stream and fails the checksum or
    /// truncates.
    #[test]
    fn single_bit_flips_never_survive_the_codec(
        name in prop::collection::vec(0x61u8..0x7b, 0..12),
        a in any::<u64>(),
        b in any::<u64>(),
        small in any::<u32>(),
        which in any::<usize>(),
        flip in any::<usize>(),
    ) {
        let requests = sample_requests(ascii(name.clone()), a, b, small);
        let request = &requests[which % requests.len()];
        let mut wire = frame(&request.encode());
        let bit = flip % (wire.len() * 8);
        wire[bit / 8] ^= 1 << (bit % 8);
        let mut codec = FrameCodec::new();
        let got = codec.read_frame(&mut Cursor::new(&wire));
        prop_assert!(
            got.is_err(),
            "bit {bit} flipped in {request:?} but the frame was accepted"
        );
    }

    /// Claim 4a: a length prefix over [`MAX_FRAME_BYTES`] is rejected as
    /// `Corrupt` before any payload allocation happens.
    #[test]
    fn oversize_length_prefix_is_corrupt(
        len in (MAX_FRAME_BYTES + 1)..u32::MAX,
        junk in any::<u64>(),
    ) {
        let mut wire = Vec::new();
        wire.extend_from_slice(&len.to_le_bytes());
        wire.extend_from_slice(&0u64.to_le_bytes());
        wire.extend_from_slice(&junk.to_le_bytes());
        let mut codec = FrameCodec::new();
        match codec.read_frame(&mut Cursor::new(&wire)) {
            Err(FrameError::Corrupt(_)) => {}
            other => prop_assert!(false, "expected Corrupt, got {other:?}"),
        }
    }

    /// Claim 4b: a length prefix *under* the cap but far beyond the
    /// actual bytes on the wire errors out with a typed I/O error; the
    /// incremental read buffer never balloons to the claimed size
    /// (`read_capped` grows in 1 MiB steps between reads, so a lying
    /// 64 MiB prefix on an empty stream allocates at most one step).
    #[test]
    fn lying_length_prefix_is_a_typed_io_error(
        len in (1u32 << 21)..MAX_FRAME_BYTES,
        body in prop::collection::vec(any::<u8>(), 0..64),
    ) {
        let mut wire = Vec::new();
        wire.extend_from_slice(&len.to_le_bytes());
        wire.extend_from_slice(&0u64.to_le_bytes());
        wire.extend_from_slice(&u64::MAX.to_le_bytes());
        wire.extend_from_slice(&body);
        let mut codec = FrameCodec::new();
        match codec.read_frame(&mut Cursor::new(&wire)) {
            Err(FrameError::Io(_)) => {}
            other => prop_assert!(false, "expected Io, got {other:?}"),
        }
    }

    /// Claim 4c: a forged element count inside an otherwise-valid
    /// payload (a `Complete` claiming `u32::MAX` records, a `Grant`
    /// claiming `u32::MAX` trials) is a typed error with bounded
    /// pre-allocation — the decoder reserves at most
    /// `DECODE_PREALLOC_CAP` elements before the truncation shows.
    #[test]
    fn forged_element_counts_are_typed_errors(count in (1u32 << 16)..u32::MAX) {
        let complete = Request::Complete {
            worker: 1,
            lease: 2,
            chunk: 3,
            epoch: 4,
            records: Vec::new(),
            harness: Default::default(),
            restores: Default::default(),
        };
        let mut payload = complete.encode();
        // tag(1) + worker(4) + lease(8) + chunk(4) + epoch(8) = 25.
        payload[25..29].copy_from_slice(&count.to_le_bytes());
        prop_assert!(Request::decode(&payload).is_err());

        let grant = Response::Grant {
            lease: 1,
            chunk: 2,
            trials: Vec::new(),
            ttl_ms: 3,
            epoch: 4,
        };
        let mut payload = grant.encode();
        // tag(1) + lease(8) + chunk(4) = 13.
        payload[13..17].copy_from_slice(&count.to_le_bytes());
        prop_assert!(Response::decode(&payload).is_err());
    }
}

/// A `Complete` payload of three entries: `first`, then a halted record
/// written as a back-reference to entry `earlier` (carrying `own` as its
/// own output, which a well-formed back-reference never does), then a
/// plain halted record. Laid out by hand, the way a forger would.
fn forged_complete(first: &TrialRecord, earlier: u32, own: Option<Vec<u8>>) -> Vec<u8> {
    let mut w = ByteWriter::new();
    w.u8(3); // Complete
    w.u32(1); // worker
    w.u64(2); // lease
    w.u32(3); // chunk
    w.u64(4); // epoch
    w.u32(3); // entries
    w.u32(10);
    w.u8(0);
    encode_trial_record(&mut w, first);
    w.u32(11);
    w.u8(1);
    w.u32(earlier);
    encode_trial_record(&mut w, &halted(own, 7));
    w.u32(12);
    w.u8(0);
    encode_trial_record(&mut w, &halted(Some(vec![9]), 8));
    encode_harness_stats(&mut w, &HarnessStats::default());
    encode_restore_stats(&mut w, &RestoreStats::default());
    w.finish()
}

#[test]
fn forged_back_references_are_typed_errors() {
    let with_output = halted(Some(vec![1, 2, 3]), 5);
    match Request::decode(&forged_complete(&with_output, 0, None)) {
        Ok(Request::Complete { records, .. }) => {
            assert_eq!(
                records[1].1,
                halted(Some(vec![1, 2, 3]), 7),
                "the forger lays out a valid body"
            );
        }
        other => panic!("expected a Complete, got {other:?}"),
    }
    let crashed = TrialRecord {
        status: TrialStatus::Completed(TrialResult {
            outcome: Outcome::Crashed(CrashKind::PcOutOfRange { pc: 99 }),
            output: None,
            instructions: 5,
            injected: 1,
        }),
        retries: 0,
    };
    let harness_error = TrialRecord {
        status: TrialStatus::HarnessError(HarnessFailure::Timeout),
        retries: 1,
    };
    let forged = [
        ("to itself", forged_complete(&with_output, 1, None)),
        ("to a later entry", forged_complete(&with_output, 2, None)),
        ("past the count", forged_complete(&with_output, 3, None)),
        (
            "far out of range",
            forged_complete(&with_output, u32::MAX, None),
        ),
        (
            "to a record without output",
            forged_complete(&crashed, 0, None),
        ),
        (
            "to a harness error",
            forged_complete(&harness_error, 0, None),
        ),
        (
            "with an output of its own",
            forged_complete(&with_output, 0, Some(vec![4])),
        ),
    ];
    for (what, payload) in forged {
        assert!(
            Request::decode(&payload).is_err(),
            "a back-reference {what} decoded"
        );
    }
}

/// A `Complete` payload of one halted record with an `output_len`-byte
/// output and `copies` back-references to it: a small frame that would
/// decode to `(copies + 1) * output_len` bytes of outputs.
fn amplifying_complete(output_len: usize, copies: u32) -> Vec<u8> {
    let mut w = ByteWriter::new();
    w.u8(3); // Complete
    w.u32(1); // worker
    w.u64(2); // lease
    w.u32(3); // chunk
    w.u64(4); // epoch
    w.u32(copies + 1); // entries
    w.u32(0);
    w.u8(0);
    encode_trial_record(&mut w, &halted(Some(vec![7; output_len]), 1));
    for trial in 1..=copies {
        w.u32(trial);
        w.u8(1);
        w.u32(0);
        encode_trial_record(&mut w, &halted(None, 1));
    }
    encode_harness_stats(&mut w, &HarnessStats::default());
    encode_restore_stats(&mut w, &RestoreStats::default());
    w.finish()
}

/// Claim 4, for back-references: they cannot amplify a frame. The
/// outputs a body decodes to total at most [`MAX_FRAME_BYTES`], as every
/// body written out in full had to; one byte more is a typed error,
/// decided before the copy that would pass the bound is made.
#[test]
fn back_references_cannot_amplify_past_a_frame() {
    let output_len = MAX_FRAME_BYTES as usize / 16;
    let at_bound = amplifying_complete(output_len, 15);
    assert!(at_bound.len() < output_len + 1024, "a small frame");
    match Request::decode(&at_bound) {
        Ok(Request::Complete { records, .. }) => assert_eq!(records.len(), 16),
        other => panic!("a body at the bound must decode, got {other:?}"),
    }
    drop(at_bound);
    assert!(
        Request::decode(&amplifying_complete(output_len, 16)).is_err(),
        "a body past the bound decoded"
    );
    assert!(
        Request::decode(&amplifying_complete(1 << 19, 18_000)).is_err(),
        "a 1 MiB frame decoded to gigabytes"
    );
}

proptest! {
    /// Bodies whose records repeat outputs (drawn from three, one of them
    /// empty), mixed with output-less and `HarnessError` records,
    /// round-trip exactly.
    #[test]
    fn bodies_with_repeated_outputs_round_trip(
        bytes in prop::collection::vec(any::<u8>(), 0..64),
        kinds in prop::collection::vec((0u8..6, any::<u32>()), 0..48),
    ) {
        let pool = [bytes.clone(), [bytes.as_slice(), &[0xa5]].concat(), Vec::new()];
        let records: Vec<(u32, TrialRecord)> = kinds
            .iter()
            .enumerate()
            .map(|(i, &(kind, x))| {
                let record = match kind {
                    0..=2 => halted(Some(pool[kind as usize].clone()), u64::from(x)),
                    3 => halted(None, u64::from(x)),
                    4 => TrialRecord {
                        status: TrialStatus::Completed(TrialResult {
                            outcome: Outcome::InfiniteRun,
                            output: None,
                            instructions: u64::from(x),
                            injected: x % 5,
                        }),
                        retries: x % 3,
                    },
                    _ => TrialRecord {
                        status: TrialStatus::HarnessError(HarnessFailure::Panic),
                        retries: x,
                    },
                };
                (i as u32 * 3, record)
            })
            .collect();
        let complete = Request::Complete {
            worker: 1,
            lease: 2,
            chunk: 3,
            epoch: 4,
            records: records.clone(),
            harness: HarnessStats::default(),
            restores: RestoreStats::default(),
        };
        match Request::decode(&complete.encode()) {
            Ok(Request::Complete { records: back, .. }) => prop_assert_eq!(back, records),
            other => prop_assert!(false, "expected a Complete, got {other:?}"),
        }
    }
}
