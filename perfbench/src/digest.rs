//! FNV-1a digests of the benchmark's outputs and the table of digests
//! committed for the default seed.

use certa_fault::wire::{encode_trial_record, ByteWriter};
use certa_fault::TrialRecord;
use certa_fidelity::verdict::VerdictCounts;

/// The committed digests, one `workload point hex` line each (`#` starts
/// a comment). Rewritten by `--bless`.
const COMMITTED: &str = include_str!("../digests.txt");

/// Where `--bless` writes the digests.
pub const COMMITTED_PATH: &str = concat!(env!("CARGO_MANIFEST_DIR"), "/digests.txt");

/// Incremental 64-bit FNV-1a.
#[derive(Debug, Clone, Copy)]
pub struct Fnv(u64);

impl Fnv {
    /// The FNV-1a offset basis.
    #[must_use]
    pub fn new() -> Self {
        Fnv(0xcbf2_9ce4_8422_2325)
    }

    /// Folds `bytes` into the digest.
    pub fn bytes(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 = (self.0 ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3);
        }
    }

    /// Folds a little-endian `u64` into the digest.
    pub fn u64(&mut self, value: u64) {
        self.bytes(&value.to_le_bytes());
    }

    /// The digest so far.
    #[must_use]
    pub fn finish(self) -> u64 {
        self.0
    }
}

/// FNV-1a of `bytes`.
#[must_use]
pub fn fnv1a(bytes: &[u8]) -> u64 {
    let mut h = Fnv::new();
    h.bytes(bytes);
    h.finish()
}

/// The record table in the campaign wire encoding: a `u32` count, then
/// one `encode_trial_record` per trial in id order.
#[must_use]
pub fn encode_records(records: &[TrialRecord]) -> Vec<u8> {
    let mut w = ByteWriter::new();
    w.u32(u32::try_from(records.len()).expect("trial ids fit in u32"));
    for record in records {
        encode_trial_record(&mut w, record);
    }
    w.finish()
}

/// Digest of one campaign point: its encoded record table plus its
/// verdict counts.
#[must_use]
pub fn point_digest(encoded: &[u8], verdicts: &VerdictCounts) -> u64 {
    let mut h = Fnv::new();
    h.bytes(encoded);
    for (_, count) in verdicts.labeled() {
        h.u64(count as u64);
    }
    h.finish()
}

/// The committed `(point, digest)` pairs of `workload`, in file order.
///
/// # Panics
///
/// Panics if the committed file is malformed (a bug in `--bless`).
#[must_use]
pub fn committed(workload: &str) -> Vec<(String, u64)> {
    parse(COMMITTED)
        .into_iter()
        .filter(|(w, _, _)| w == workload)
        .map(|(_, point, digest)| (point, digest))
        .collect()
}

fn parse(text: &str) -> Vec<(String, String, u64)> {
    text.lines()
        .map(str::trim)
        .filter(|line| !line.is_empty() && !line.starts_with('#'))
        .map(|line| {
            let fields: Vec<&str> = line.split_whitespace().collect();
            assert_eq!(fields.len(), 3, "digest line {line:?}");
            let digest = u64::from_str_radix(fields[2], 16)
                .unwrap_or_else(|e| panic!("digest line {line:?}: {e}"));
            (fields[0].to_string(), fields[1].to_string(), digest)
        })
        .collect()
}

/// Compares a run's `(point, digest)` pairs against the committed ones
/// and describes every divergence.
#[must_use]
pub fn diverging(workload: &str, got: &[(String, u64)]) -> Vec<String> {
    let want = committed(workload);
    let mut problems = Vec::new();
    for (point, digest) in &want {
        match got.iter().find(|(p, _)| p == point) {
            None => problems.push(format!("{workload} point {point}: not produced")),
            Some((_, d)) if d != digest => problems.push(format!(
                "{workload} point {point}: digest {d:016x}, committed {digest:016x}"
            )),
            Some(_) => {}
        }
    }
    for (point, _) in got {
        if !want.iter().any(|(p, _)| p == point) {
            problems.push(format!("{workload} point {point}: no committed digest"));
        }
    }
    problems
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fnv1a_matches_reference_vectors() {
        assert_eq!(fnv1a(b""), 0xcbf2_9ce4_8422_2325);
        assert_eq!(fnv1a(b"a"), 0xaf63_dc4c_8601_ec8c);
        assert_eq!(fnv1a(b"foobar"), 0x8594_4171_f739_67e8);
    }

    #[test]
    fn committed_table_parses_and_covers_every_workload() {
        for workload in crate::cli::Workload::ALL {
            assert!(
                !committed(workload.name()).is_empty(),
                "no committed digests for {}",
                workload.name()
            );
        }
    }

    #[test]
    fn divergence_names_the_point() {
        let want = committed("dist");
        let mut got = want.clone();
        got[0].1 ^= 1;
        let problems = diverging("dist", &got);
        assert_eq!(problems.len(), 1);
        assert!(problems[0].contains(&want[0].0));
        assert!(diverging("dist", &want).is_empty());
    }
}
