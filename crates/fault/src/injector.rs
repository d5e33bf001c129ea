//! The bit-flip injector: a [`WritebackHook`] that tampers with sampled
//! dynamic executions of eligible instructions.

use std::sync::Arc;

use certa_core::TagMap;
use certa_isa::Program;
use certa_sim::{AotProgram, NativeWindow, WritebackHook};
use rand::seq::index::sample as index_sample;
use rand::Rng;

use crate::regime::Protection;

/// The kind of value corruption applied at an injection point.
///
/// The paper studies [`ErrorModel::SingleBitFlip`]; the other models are
/// provided as extensions for studying correlated upsets, burst upsets,
/// and latched faults with the same campaign machinery.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum ErrorModel {
    /// XOR one uniformly chosen bit (the paper's soft-error model).
    #[default]
    SingleBitFlip,
    /// XOR two adjacent bits (a correlated double upset).
    AdjacentDoubleBitFlip,
    /// XOR a run of `len` adjacent bits starting at the chosen position
    /// (wrapping within the value's width) — a multi-bit burst upset.
    /// `len = 1` degenerates to [`ErrorModel::SingleBitFlip`]; `len = 2`
    /// to [`ErrorModel::AdjacentDoubleBitFlip`].
    BurstFlip {
        /// Burst length in bits (clamped to at least 1).
        len: u8,
    },
    /// Clear one uniformly chosen bit (stuck-at-0 on the latched result).
    StuckAtZero,
    /// Set one uniformly chosen bit (stuck-at-1 on the latched result).
    StuckAtOne,
}

impl ErrorModel {
    /// Applies the model to a 32-bit integer result at `bit % 32`.
    #[inline]
    #[must_use]
    pub fn apply_u32(self, value: u32, bit: u8) -> u32 {
        let m = 1u32 << (bit % 32);
        match self {
            ErrorModel::SingleBitFlip => value ^ m,
            ErrorModel::AdjacentDoubleBitFlip => value ^ m ^ m.rotate_left(1),
            ErrorModel::BurstFlip { len } => {
                let mut mask = 0u32;
                for i in 0..u32::from(len.max(1)).min(32) {
                    mask |= m.rotate_left(i);
                }
                value ^ mask
            }
            ErrorModel::StuckAtZero => value & !m,
            ErrorModel::StuckAtOne => value | m,
        }
    }

    /// Applies the model to a 64-bit float result at `bit % 64`.
    #[inline]
    #[must_use]
    pub fn apply_f64(self, value: f64, bit: u8) -> f64 {
        let bits = value.to_bits();
        let m = 1u64 << (bit % 64);
        let new = match self {
            ErrorModel::SingleBitFlip => bits ^ m,
            ErrorModel::AdjacentDoubleBitFlip => bits ^ m ^ m.rotate_left(1),
            ErrorModel::BurstFlip { len } => {
                let mut mask = 0u64;
                for i in 0..u32::from(len.max(1)).min(64) {
                    mask |= m.rotate_left(i);
                }
                bits ^ mask
            }
            ErrorModel::StuckAtZero => bits & !m,
            ErrorModel::StuckAtOne => bits | m,
        };
        f64::from_bits(new)
    }
}

/// A per-trial injection plan: which eligible dynamic executions receive a
/// flip, and which bit position is flipped.
///
/// Bit positions are sampled in `0..64`; integer writebacks use the position
/// modulo 32, which keeps the per-bit distribution uniform.
///
/// Pairs are stored sorted by execution index, so lookups are binary
/// searches and [`FaultPlan::earliest_injection`] — the quantity the
/// checkpointing campaign scheduler sorts trials by — is `O(1)`.
#[derive(Debug, Clone, Default)]
pub struct FaultPlan {
    /// `(eligible execution index, bit position)`, sorted by index, unique
    /// indices.
    flips: Vec<(u64, u8)>,
}

impl FaultPlan {
    /// Samples a plan with `errors` distinct injection points uniformly
    /// distributed over a population of `eligible` dynamic executions.
    ///
    /// If `errors` exceeds the population, every execution receives a flip.
    pub fn sample<R: Rng>(rng: &mut R, eligible: u64, errors: u64) -> Self {
        if eligible == 0 || errors == 0 {
            return FaultPlan::default();
        }
        let errors = errors.min(eligible);
        // `index_sample` works on usize; the eligible populations in this
        // study are far below usize::MAX.
        let picks = index_sample(rng, eligible as usize, errors as usize);
        let mut flips: Vec<(u64, u8)> = picks
            .into_iter()
            .map(|p| (p as u64, rng.gen_range(0..64u8)))
            .collect();
        flips.sort_unstable_by_key(|&(idx, _)| idx);
        FaultPlan { flips }
    }

    /// Builds a plan from explicit `(execution index, bit)` pairs (tests and
    /// targeted experiments). When an index appears more than once, the
    /// last pair wins.
    #[must_use]
    pub fn from_pairs(pairs: &[(u64, u8)]) -> Self {
        let mut flips = pairs.to_vec();
        // Stable-sort the reversed list so that, within equal indices, the
        // pair latest in `pairs` comes first and survives the dedup.
        flips.reverse();
        flips.sort_by_key(|&(idx, _)| idx);
        flips.dedup_by_key(|&mut (idx, _)| idx);
        FaultPlan { flips }
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

    /// The smallest planned eligible-execution index, or `None` for an
    /// empty plan. The campaign scheduler restores each trial from the
    /// latest checkpoint at or before this point.
    #[must_use]
    pub fn earliest_injection(&self) -> Option<u64> {
        self.flips.first().map(|&(idx, _)| idx)
    }

    /// The largest planned eligible-execution index, or `None` for an
    /// empty plan. The campaign's reconvergence probe starts at the first
    /// checkpoint past this point — earlier probes can never splice,
    /// because not every planned flip has been applied yet.
    #[must_use]
    pub fn latest_injection(&self) -> Option<u64> {
        self.flips.last().map(|&(idx, _)| idx)
    }

    /// The planned `(execution index, bit)` pairs, sorted by index.
    #[must_use]
    pub fn pairs(&self) -> &[(u64, u8)] {
        &self.flips
    }

    /// The planned bit position for `exec_index`, if any (binary search
    /// over the sorted plan).
    #[inline]
    #[must_use]
    pub fn bit_for(&self, exec_index: u64) -> Option<u8> {
        self.flips
            .binary_search_by_key(&exec_index, |&(idx, _)| idx)
            .ok()
            .map(|pos| self.flips[pos].1)
    }
}

/// Where one protection regime's eligible writebacks fall in a program:
/// per instruction, and per block of the program's native code when it
/// has some. A campaign builds this once and shares it by `Arc`, so the
/// injector's mask, every checkpoint's `eligible_seen`, the eligible
/// population and the native per-block counts are one table and cannot
/// disagree about where a flip lands.
#[derive(Debug)]
pub(crate) struct Eligibility {
    /// `writeback[i]`: instruction `i` produces a value (one hook-visible
    /// writeback per execution) and the regime's mask admits it.
    writeback: Vec<bool>,
    /// Eligible writebacks per native block ([`AotProgram::block_counts`]);
    /// `None` without native code.
    per_block: Option<Vec<u32>>,
}

impl Eligibility {
    pub(crate) fn new(
        program: &Program,
        tags: &TagMap,
        protection: Protection,
        aot: Option<&AotProgram>,
    ) -> Self {
        let mask = protection.eligibility_mask(program, tags);
        let writeback: Vec<bool> = program
            .code
            .iter()
            .enumerate()
            .map(|(i, instr)| instr.def().is_some() && mask.as_ref().is_none_or(|m| m[i]))
            .collect();
        let per_block = aot.map(|aot| aot.block_counts(&writeback));
        Eligibility {
            writeback,
            per_block,
        }
    }

    /// The eligible writebacks of a run with these per-instruction
    /// execution counts: what a hook counting them would have seen.
    pub(crate) fn count(&self, exec_counts: &[u64]) -> u64 {
        self.writeback
            .iter()
            .zip(exec_counts)
            .map(|(&e, &c)| u64::from(e) * c)
            .sum()
    }
}

/// The [`WritebackHook`] that applies a [`FaultPlan`] during simulation.
///
/// Counts eligible writebacks as they happen; when the count matches a
/// planned injection point the destination value has one bit flipped before
/// it is written to the register file. Corruption then propagates naturally
/// through dependent instructions, as in the paper.
///
/// An injector with native blocks ([`Injector::with_native`]) lets AOT
/// native code retire the eligible writebacks up to its next planned flip
/// unseen, and every writeback after its last one.
#[derive(Debug)]
pub struct Injector {
    eligible: Arc<Eligibility>,
    plan: FaultPlan,
    model: ErrorModel,
    seen: u64,
    /// Position in the sorted plan of the next flip to apply. Because
    /// `seen` only grows, the plan is consumed front to back — no lookup
    /// per writeback, just one comparison.
    cursor: usize,
    injected: u32,
}

impl Injector {
    /// Creates an injector for `program` under the given protection regime
    /// with the paper's single-bit-flip model.
    #[must_use]
    pub fn new(
        program: &Program,
        tags: &TagMap,
        protection: Protection,
        plan: FaultPlan,
    ) -> Injector {
        Self::with_model(program, tags, protection, plan, ErrorModel::SingleBitFlip)
    }

    /// Creates an injector with an explicit [`ErrorModel`].
    #[must_use]
    pub fn with_model(
        program: &Program,
        tags: &TagMap,
        protection: Protection,
        plan: FaultPlan,
        model: ErrorModel,
    ) -> Injector {
        let eligible = Eligibility::new(program, tags, protection, None);
        Self::shared(Arc::new(eligible), plan, model)
    }

    /// An injector over a campaign's shared eligibility table.
    pub(crate) fn shared(
        eligible: Arc<Eligibility>,
        plan: FaultPlan,
        model: ErrorModel,
    ) -> Injector {
        Injector {
            eligible,
            plan,
            model,
            seen: 0,
            cursor: 0,
            injected: 0,
        }
    }

    /// Lets `aot`'s native regions ([`certa_sim::Machine::run_aot`]) run
    /// between this injector's planned flips: native code retires the
    /// eligible writebacks before the next flip, the interpreter runs the
    /// block holding it.
    ///
    /// # Panics
    ///
    /// Panics if `aot` was not generated from this injector's program.
    #[must_use]
    pub fn with_native(mut self, aot: &AotProgram) -> Injector {
        let writeback = self.eligible.writeback.clone();
        let per_block = Some(aot.block_counts(&writeback));
        self.eligible = Arc::new(Eligibility {
            writeback,
            per_block,
        });
        self
    }

    /// Seeds the injector as if `eligible_seen` eligible writebacks had
    /// already happened — used when a trial resumes from a checkpoint
    /// taken mid-way through the golden run. Planned flips below
    /// `eligible_seen` are skipped, exactly as they would have been missed
    /// by a hook attached after that point.
    ///
    /// The campaign scheduler only resumes from checkpoints at or before a
    /// plan's [`FaultPlan::earliest_injection`], so in practice nothing is
    /// skipped and resumed trials are bit-identical to from-scratch ones.
    #[must_use]
    pub fn resume_from(mut self, eligible_seen: u64) -> Self {
        self.seen = eligible_seen;
        self.cursor = self
            .plan
            .pairs()
            .partition_point(|&(idx, _)| idx < eligible_seen);
        self
    }

    /// Number of eligible writebacks observed so far (including those
    /// native code retired unseen).
    #[must_use]
    pub fn eligible_seen(&self) -> u64 {
        self.seen
    }

    /// Number of planned flips (applied or still pending).
    #[must_use]
    pub fn planned(&self) -> u32 {
        self.plan.len() as u32
    }

    /// Number of bit flips actually applied so far.
    #[must_use]
    pub fn injected(&self) -> u32 {
        self.injected
    }

    #[inline]
    fn next_bit(&mut self, instr_index: usize) -> Option<u8> {
        if !self.eligible.writeback[instr_index] {
            return None;
        }
        let idx = self.seen;
        self.seen += 1;
        let &(at, bit) = self.plan.pairs().get(self.cursor)?;
        if at != idx {
            return None;
        }
        self.cursor += 1;
        self.injected += 1;
        Some(bit)
    }
}

impl WritebackHook for Injector {
    #[inline]
    fn int_writeback(&mut self, instr_index: usize, value: u32) -> u32 {
        match self.next_bit(instr_index) {
            Some(bit) => self.model.apply_u32(value, bit),
            None => value,
        }
    }

    #[inline]
    fn float_writeback(&mut self, instr_index: usize, value: f64) -> f64 {
        match self.next_bit(instr_index) {
            Some(bit) => self.model.apply_f64(value, bit),
            None => value,
        }
    }

    /// The distance to the next planned flip, unbounded after the last
    /// one; no window without native blocks.
    fn native_window(&self) -> Option<NativeWindow<'_>> {
        let per_block = self.eligible.per_block.as_deref()?;
        let budget = self
            .plan
            .pairs()
            .get(self.cursor)
            .map_or(u64::MAX, |&(at, _)| at.saturating_sub(self.seen));
        Some(NativeWindow {
            eligible: &self.eligible.writeback,
            per_block,
            budget,
        })
    }

    fn retired_natively(&mut self, eligible: u64) {
        self.seen += eligible;
    }
}

/// Counts eligible writebacks without injecting: the test oracle for the
/// eligible counts campaigns derive from golden-run profiles.
#[cfg(test)]
#[derive(Debug)]
pub(crate) struct EligibleCounter {
    eligible: Vec<bool>,
    pub(crate) count: u64,
}

#[cfg(test)]
impl EligibleCounter {
    pub(crate) fn new(program: &Program, tags: &TagMap, protection: Protection) -> Self {
        let eligible = protection
            .eligibility_mask(program, tags)
            .unwrap_or_else(|| vec![true; program.code.len()]);
        EligibleCounter { eligible, count: 0 }
    }
}

#[cfg(test)]
impl WritebackHook for EligibleCounter {
    #[inline]
    fn int_writeback(&mut self, instr_index: usize, value: u32) -> u32 {
        self.count += u64::from(self.eligible[instr_index]);
        value
    }

    #[inline]
    fn float_writeback(&mut self, instr_index: usize, value: f64) -> f64 {
        self.count += u64::from(self.eligible[instr_index]);
        value
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::SmallRng;
    use rand::SeedableRng;

    #[test]
    fn plan_sampling_respects_bounds() {
        let mut rng = SmallRng::seed_from_u64(7);
        let plan = FaultPlan::sample(&mut rng, 1000, 10);
        assert_eq!(plan.len(), 10);
        let plan = FaultPlan::sample(&mut rng, 5, 10);
        assert_eq!(plan.len(), 5, "errors capped at population");
        let plan = FaultPlan::sample(&mut rng, 0, 10);
        assert!(plan.is_empty());
        let plan = FaultPlan::sample(&mut rng, 100, 0);
        assert!(plan.is_empty());
    }

    #[test]
    fn plan_indices_within_population() {
        let mut rng = SmallRng::seed_from_u64(42);
        let plan = FaultPlan::sample(&mut rng, 50, 20);
        for &(idx, bit) in plan.pairs() {
            assert!(idx < 50);
            assert!(bit < 64);
        }
    }

    #[test]
    fn sampling_is_deterministic_per_seed() {
        let a = FaultPlan::sample(&mut SmallRng::seed_from_u64(9), 1000, 5);
        let b = FaultPlan::sample(&mut SmallRng::seed_from_u64(9), 1000, 5);
        assert_eq!(a.pairs(), b.pairs());
    }

    #[test]
    fn plan_pairs_are_sorted_and_unique() {
        let plan = FaultPlan::sample(&mut SmallRng::seed_from_u64(3), 10_000, 200);
        assert!(plan.pairs().windows(2).all(|w| w[0].0 < w[1].0));
        assert_eq!(plan.earliest_injection(), Some(plan.pairs()[0].0));
    }

    #[test]
    fn earliest_injection_matches_minimum() {
        assert_eq!(FaultPlan::default().earliest_injection(), None);
        let plan = FaultPlan::from_pairs(&[(17, 3), (4, 1), (99, 0)]);
        assert_eq!(plan.earliest_injection(), Some(4));
        assert_eq!(plan.len(), 3);
    }

    #[test]
    fn from_pairs_sorts_and_last_duplicate_wins() {
        let plan = FaultPlan::from_pairs(&[(9, 1), (2, 5), (9, 7), (2, 6)]);
        assert_eq!(plan.pairs(), &[(2, 6), (9, 7)]);
        assert_eq!(plan.bit_for(2), Some(6));
        assert_eq!(plan.bit_for(9), Some(7));
        assert_eq!(plan.bit_for(3), None);
    }

    #[test]
    fn bit_for_binary_search_agrees_with_linear_scan() {
        let plan = FaultPlan::sample(&mut SmallRng::seed_from_u64(11), 5_000, 64);
        for probe in 0..5_000u64 {
            let linear = plan
                .pairs()
                .iter()
                .find(|&&(idx, _)| idx == probe)
                .map(|&(_, bit)| bit);
            assert_eq!(plan.bit_for(probe), linear, "probe {probe}");
        }
    }

    #[test]
    fn error_models_apply_correctly() {
        assert_eq!(ErrorModel::SingleBitFlip.apply_u32(0b1000, 3), 0);
        assert_eq!(ErrorModel::SingleBitFlip.apply_u32(0, 3), 0b1000);
        assert_eq!(ErrorModel::AdjacentDoubleBitFlip.apply_u32(0, 3), 0b11000);
        // double flip at the top bit wraps to bit 0
        assert_eq!(
            ErrorModel::AdjacentDoubleBitFlip.apply_u32(0, 31),
            0x8000_0001
        );
        assert_eq!(ErrorModel::StuckAtZero.apply_u32(0xFF, 0), 0xFE);
        assert_eq!(ErrorModel::StuckAtZero.apply_u32(0xFE, 0), 0xFE, "idempotent");
        assert_eq!(ErrorModel::StuckAtOne.apply_u32(0, 4), 0x10);
        assert_eq!(ErrorModel::StuckAtOne.apply_u32(0x10, 4), 0x10, "idempotent");
        // float: flipping the same bit twice restores the value
        let v = 1234.5678f64;
        let once = ErrorModel::SingleBitFlip.apply_f64(v, 17);
        let twice = ErrorModel::SingleBitFlip.apply_f64(once, 17);
        assert_eq!(twice.to_bits(), v.to_bits());
    }

    #[test]
    fn stuck_at_models_are_idempotent_for_all_bits() {
        for bit in 0..32u8 {
            for value in [0u32, u32::MAX, 0xDEAD_BEEF] {
                let z = ErrorModel::StuckAtZero.apply_u32(value, bit);
                assert_eq!(ErrorModel::StuckAtZero.apply_u32(z, bit), z);
                let o = ErrorModel::StuckAtOne.apply_u32(value, bit);
                assert_eq!(ErrorModel::StuckAtOne.apply_u32(o, bit), o);
            }
        }
    }

    #[test]
    fn resumed_injector_skips_prior_indices() {
        use certa_sim::WritebackHook;

        // Instruction 0 produces a value: the machine calls writeback
        // hooks only for value-producing instructions.
        let mut a = certa_asm::Asm::new();
        a.func("main", false);
        a.li(certa_isa::reg::T0, 1);
        a.halt();
        a.endfunc();
        let program = a.assemble().unwrap();
        let tags = certa_core::analyze(&program);
        let plan = FaultPlan::from_pairs(&[(1, 0), (4, 2)]);

        // Fresh injector: flips fire at eligible indices 1 and 4.
        let mut fresh = Injector::new(&program, &tags, Protection::None, plan.clone());
        let flipped: Vec<bool> = (0..6)
            .map(|_| fresh.int_writeback(0, 0) != 0)
            .collect();
        assert_eq!(flipped, [false, true, false, false, true, false]);
        assert_eq!(fresh.injected(), 2);
        assert_eq!(fresh.planned(), 2);

        // Resumed at 2: index 1 is in the past and must be skipped; the
        // flip at index 4 fires after two more writebacks (indices 2, 3).
        let mut resumed =
            Injector::new(&program, &tags, Protection::None, plan).resume_from(2);
        assert_eq!(resumed.eligible_seen(), 2);
        let flipped: Vec<bool> = (0..4)
            .map(|_| resumed.int_writeback(0, 0) != 0)
            .collect();
        assert_eq!(flipped, [false, false, true, false]);
        assert_eq!(resumed.injected(), 1);
    }

    #[test]
    fn uniformity_over_population() {
        // Chi-square-ish sanity: over many samples, each of 10 slots should
        // be hit roughly equally.
        let mut counts = [0u32; 10];
        for seed in 0..4000 {
            let plan = FaultPlan::sample(&mut SmallRng::seed_from_u64(seed), 10, 1);
            for &(idx, _) in plan.pairs() {
                counts[idx as usize] += 1;
            }
        }
        let expected = 400.0;
        for &c in &counts {
            assert!(
                (f64::from(c) - expected).abs() < expected * 0.25,
                "slot count {c} deviates too far from {expected}: {counts:?}"
            );
        }
    }
}
