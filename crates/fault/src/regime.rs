//! Fault-model regimes: *where* faults may land ([`FaultTarget`]) and
//! *which* instructions are shielded ([`Protection`]), plus the
//! per-regime [`ToleranceProfile`] aggregation the regime-matrix
//! experiment reports.
//!
//! The paper's experiment is a matrix: each workload is campaigned under
//! several protection regimes, and each trial is classified into the
//! six-way verdict taxonomy of [`certa_fidelity::verdict`]. The
//! [`ToleranceProfile`] rows of that matrix — verdict counts plus Wilson
//! 95% confidence intervals — are what separates error-tolerant data
//! from must-protect control data.

use certa_core::TagMap;
use certa_fidelity::verdict::VerdictCounts;
use certa_isa::Program;
use rand::seq::index::sample as index_sample;
use rand::Rng;

use crate::stats::proportion_ci95;

/// The protection regime: which instruction results the static analysis
/// shields from injection. This is the control-vs-data axis of the
/// paper — [`Protection::ControlOnly`] is its proposed scheme (protect
/// everything that can influence control, leave tolerant data exposed).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Protection {
    /// No protection: every value-producing instruction is fault-eligible
    /// (the unprotected baseline of Table 2).
    None,
    /// Control data protected: only instructions tagged
    /// [`certa_core::Tag::LowReliability`] (pure data) receive faults —
    /// the paper's scheme.
    ControlOnly,
    /// The complement regime: *data* is protected and faults land only on
    /// instructions the analysis would have shielded (control,
    /// address-feeding, and other non-low-reliability value producers).
    DataOnly,
    /// Everything protected: no instruction is fault-eligible. Every
    /// trial must classify as masked — the all-shielded sanity pole of
    /// the matrix.
    Full,
}

impl Protection {
    /// The four regimes in matrix presentation order.
    #[must_use]
    pub fn all() -> [Protection; 4] {
        [
            Protection::None,
            Protection::ControlOnly,
            Protection::DataOnly,
            Protection::Full,
        ]
    }

    /// Stable snake_case label (serialization and reporting).
    #[must_use]
    pub fn label(self) -> &'static str {
        match self {
            Protection::None => "none",
            Protection::ControlOnly => "control_only",
            Protection::DataOnly => "data_only",
            Protection::Full => "full",
        }
    }

    /// Per-instruction eligibility mask under this regime: `None` means
    /// *every* value-producing instruction is eligible (no mask needed on
    /// the hot path), otherwise `mask[i]` says whether instruction `i`'s
    /// writebacks may receive faults.
    #[must_use]
    pub fn eligibility_mask(self, program: &Program, tags: &TagMap) -> Option<Vec<bool>> {
        match self {
            Protection::None => None,
            Protection::ControlOnly => Some(
                (0..program.code.len())
                    .map(|i| tags.is_low_reliability(i))
                    .collect(),
            ),
            Protection::DataOnly => Some(
                (0..program.code.len())
                    .map(|i| !tags.is_low_reliability(i))
                    .collect(),
            ),
            Protection::Full => Some(vec![false; program.code.len()]),
        }
    }
}

/// Where a campaign's faults land.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum FaultTarget {
    /// Register-writeback faults: bits flipped in instruction results as
    /// they are written back (the paper's model, filtered by
    /// [`Protection`]).
    #[default]
    Registers,
    /// Memory-cell faults: bits flipped directly in resident pages of the
    /// guest's data segment at sampled instruction boundaries — upsets in
    /// stored state rather than in flight. Orthogonal to the instruction
    /// tag regime (a stored bit has no tag), so memory campaigns run
    /// under [`Protection::None`] semantics regardless of the configured
    /// regime.
    MemoryCells,
}

impl FaultTarget {
    /// Stable snake_case label (serialization and reporting).
    #[must_use]
    pub fn label(self) -> &'static str {
        match self {
            FaultTarget::Registers => "registers",
            FaultTarget::MemoryCells => "memory_cells",
        }
    }
}

/// A per-trial memory-cell fault plan: which instruction boundaries pause
/// the run to flip which bit of which data-segment byte.
///
/// Flips are keyed by the *dynamic instruction count* at which they are
/// applied (distinct per plan, sorted ascending), which makes memory
/// trials exactly as checkpoint-acceleratable as register trials: before
/// the earliest flip boundary the trial is bit-identical to the golden
/// run.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct MemoryFaultPlan {
    /// `(instruction count, data-segment byte offset, bit 0..8)`, sorted
    /// by instruction count, unique counts.
    flips: Vec<(u64, u32, u8)>,
}

impl MemoryFaultPlan {
    /// Samples a plan with `errors` flips at distinct instruction
    /// boundaries uniformly drawn from `1..=instructions`, each targeting
    /// a uniform byte of a `data_len`-byte data segment and a uniform bit
    /// of that byte. Empty when the run or the data segment is empty.
    pub fn sample<R: Rng>(rng: &mut R, instructions: u64, data_len: usize, errors: u64) -> Self {
        if instructions == 0 || data_len == 0 || errors == 0 {
            return MemoryFaultPlan::default();
        }
        let errors = errors.min(instructions);
        let picks = index_sample(rng, instructions as usize, errors as usize);
        let mut flips: Vec<(u64, u32, u8)> = picks
            .into_iter()
            .map(|p| {
                (
                    p as u64 + 1,
                    rng.gen_range(0..data_len) as u32,
                    rng.gen_range(0..8u8),
                )
            })
            .collect();
        flips.sort_unstable_by_key(|&(at, _, _)| at);
        MemoryFaultPlan { flips }
    }

    /// Builds a plan from explicit `(instruction count, offset, bit)`
    /// triples (tests and targeted experiments); duplicated counts keep
    /// the last triple.
    #[must_use]
    pub fn from_triples(triples: &[(u64, u32, u8)]) -> Self {
        let mut flips = triples.to_vec();
        flips.reverse();
        flips.sort_by_key(|&(at, _, _)| at);
        flips.dedup_by_key(|&mut (at, _, _)| at);
        MemoryFaultPlan { flips }
    }

    /// Number of planned flips.
    #[must_use]
    pub fn len(&self) -> usize {
        self.flips.len()
    }

    /// Whether the plan contains no flips.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.flips.is_empty()
    }

    /// The planned `(instruction count, offset, bit)` triples, sorted by
    /// instruction count.
    #[must_use]
    pub fn triples(&self) -> &[(u64, u32, u8)] {
        &self.flips
    }

    /// The earliest flip boundary, or `None` for an empty plan. The
    /// campaign restores each trial from the latest checkpoint at or
    /// before this instruction count.
    #[must_use]
    pub fn earliest_injection(&self) -> Option<u64> {
        self.flips.first().map(|&(at, _, _)| at)
    }
}

/// One row of the regime matrix: the verdict distribution of a campaign
/// of one workload under one `(target, regime)` cell, with Wilson 95%
/// confidence intervals per bucket.
#[derive(Debug, Clone, PartialEq)]
pub struct ToleranceProfile {
    /// Workload name.
    pub workload: String,
    /// Protection regime of the campaign.
    pub regime: Protection,
    /// Fault target of the campaign.
    pub target: FaultTarget,
    /// Errors injected per trial.
    pub errors: u64,
    /// Verdict counts over every scheduled trial.
    pub counts: VerdictCounts,
}

impl ToleranceProfile {
    /// Wilson 95% interval of `count / total` trials (`(0, 1)` for an
    /// empty campaign — no evidence constrains the proportion).
    #[must_use]
    pub fn ci95(&self, count: usize) -> (f64, f64) {
        proportion_ci95(count, self.counts.total())
    }

    /// `(label, count, (ci_lo, ci_hi))` rows in taxonomy order.
    #[must_use]
    pub fn rows(&self) -> Vec<(&'static str, usize, (f64, f64))> {
        self.counts
            .labeled()
            .iter()
            .map(|&(label, count)| (label, count, self.ci95(count)))
            .collect()
    }

    /// Serializes this row as a JSON object (stable key order, fixed
    /// float precision — byte-deterministic for a fixed seed).
    #[must_use]
    pub fn to_json(&self) -> String {
        use std::fmt::Write as _;
        let mut out = String::new();
        let _ = write!(
            out,
            "{{\"workload\":\"{}\",\"target\":\"{}\",\"regime\":\"{}\",\"errors\":{},\"trials\":{}",
            self.workload,
            self.target.label(),
            self.regime.label(),
            self.errors,
            self.counts.total()
        );
        for (label, count, (lo, hi)) in self.rows() {
            let _ = write!(
                out,
                ",\"{label}\":{count},\"{label}_ci\":[{lo:.6},{hi:.6}]"
            );
        }
        out.push('}');
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::SmallRng;
    use rand::SeedableRng;

    #[test]
    fn regime_labels_are_stable() {
        let labels: Vec<&str> = Protection::all().iter().map(|r| r.label()).collect();
        assert_eq!(labels, ["none", "control_only", "data_only", "full"]);
        assert_eq!(FaultTarget::Registers.label(), "registers");
        assert_eq!(FaultTarget::MemoryCells.label(), "memory_cells");
    }

    #[test]
    fn memory_plan_sampling_respects_bounds() {
        let mut rng = SmallRng::seed_from_u64(5);
        let plan = MemoryFaultPlan::sample(&mut rng, 1000, 64, 10);
        assert_eq!(plan.len(), 10);
        for &(at, off, bit) in plan.triples() {
            assert!((1..=1000).contains(&at));
            assert!(off < 64);
            assert!(bit < 8);
        }
        assert!(plan.triples().windows(2).all(|w| w[0].0 < w[1].0));
        assert_eq!(plan.earliest_injection(), Some(plan.triples()[0].0));
        assert!(MemoryFaultPlan::sample(&mut rng, 0, 64, 3).is_empty());
        assert!(MemoryFaultPlan::sample(&mut rng, 100, 0, 3).is_empty());
        assert!(MemoryFaultPlan::sample(&mut rng, 100, 64, 0).is_empty());
        assert_eq!(
            MemoryFaultPlan::sample(&mut SmallRng::seed_from_u64(4), 3, 8, 10).len(),
            3,
            "errors capped at the boundary population"
        );
    }

    #[test]
    fn memory_plan_sampling_is_deterministic() {
        let a = MemoryFaultPlan::sample(&mut SmallRng::seed_from_u64(9), 500, 32, 5);
        let b = MemoryFaultPlan::sample(&mut SmallRng::seed_from_u64(9), 500, 32, 5);
        assert_eq!(a, b);
    }

    #[test]
    fn from_triples_sorts_and_last_duplicate_wins() {
        let plan = MemoryFaultPlan::from_triples(&[(9, 1, 1), (2, 5, 0), (9, 7, 3)]);
        assert_eq!(plan.triples(), &[(2, 5, 0), (9, 7, 3)]);
    }

    #[test]
    fn tolerance_profile_rows_and_json() {
        let counts = VerdictCounts {
            masked: 3,
            detected_crash: 1,
            ..Default::default()
        };
        let p = ToleranceProfile {
            workload: "sum".into(),
            regime: Protection::ControlOnly,
            target: FaultTarget::Registers,
            errors: 2,
            counts,
        };
        let rows = p.rows();
        assert_eq!(rows.len(), 7);
        assert_eq!(rows[0], ("masked", 3, proportion_ci95(3, 4)));
        let json = p.to_json();
        assert!(json.contains("\"regime\":\"control_only\""));
        assert!(json.contains("\"masked\":3"));
        assert!(json.contains("\"masked_ci\":["));
        assert!(json.contains("\"trials\":4"));
        // Deterministic serialization.
        assert_eq!(json, p.to_json());
    }
}
