//! Property-based tests over the core data structures and invariants.

use proptest::prelude::*;

use certa::asm::Asm;
use certa::core::{analyze, analyze_with, AnalysisOptions, Tag};
use certa::fault::{
    run_campaign, CampaignConfig, CampaignSession, FaultTarget, Protection, Target,
};
use certa::fidelity::{byte_similarity, psnr, snr_db};
use certa::isa::{reg, AluOp, Instr, Program, Reg, RegRef};
use certa::sim::{Machine, MachineConfig, Outcome};

fn arb_reg() -> impl Strategy<Value = Reg> {
    // avoid $zero so written values are observable, and avoid $sp/$gp so
    // random programs do not wreck the memory conventions
    prop::sample::select(vec![
        reg::V0,
        reg::V1,
        reg::A0,
        reg::A1,
        reg::T0,
        reg::T1,
        reg::T2,
        reg::T3,
        reg::S0,
        reg::S1,
    ])
}

fn arb_alu_op() -> impl Strategy<Value = AluOp> {
    prop::sample::select(AluOp::ALL.to_vec())
}

proptest! {
    /// Every ALU instruction executed by the simulator matches the host
    /// semantics implemented independently here.
    #[test]
    fn alu_semantics_match_host(op in arb_alu_op(), a in any::<u32>(), b in any::<u32>()) {
        let mut asm = Asm::new();
        asm.func("main", false);
        asm.li(reg::T0, a as i32);
        asm.li(reg::T1, b as i32);
        asm.emit(Instr::Alu { op, rd: reg::V0, rs: reg::T0, rt: reg::T1 });
        asm.halt();
        asm.endfunc();
        let program = asm.assemble().unwrap();
        let mut m = Machine::new(&program, &MachineConfig::default());
        prop_assert_eq!(m.run_simple().outcome, Outcome::Halted);
        let expected = host_alu(op, a, b);
        prop_assert_eq!(m.reg(reg::V0), expected);
    }

    /// Random straight-line programs always assemble, validate, analyze
    /// without panicking, and produce a tag per instruction; with an
    /// eligible function, instructions after the last control transfer can
    /// only be LowReliability or protected-for-structure reasons.
    #[test]
    fn random_programs_analyze_totally(
        ops in prop::collection::vec((arb_alu_op(), arb_reg(), arb_reg(), arb_reg()), 1..40),
        eligible in any::<bool>(),
    ) {
        let mut asm = Asm::new();
        asm.func("kernel", eligible);
        for (op, rd, rs, rt) in &ops {
            asm.emit(Instr::Alu { op: *op, rd: *rd, rs: *rs, rt: *rt });
        }
        asm.halt();
        asm.endfunc();
        let program = asm.assemble().unwrap();
        prop_assert!(program.validate().is_ok());
        let tags = analyze(&program);
        prop_assert_eq!(tags.len(), program.code.len());
        for (i, tag) in tags.iter() {
            if !eligible && program.code[i].is_value_producing() {
                prop_assert_ne!(tag, Tag::LowReliability);
            }
        }
        // straight-line code with no branches or memory: every
        // value-producing instruction in an eligible function is taggable
        if eligible {
            for (i, tag) in tags.iter().take(ops.len()) {
                if program.code[i].is_value_producing() {
                    prop_assert_eq!(tag, Tag::LowReliability, "instr {}", i);
                }
            }
        }
    }

    /// The analysis is monotone in its options: disabling address
    /// protection can only increase (or keep) the number of taggable
    /// instructions.
    #[test]
    fn disabling_address_protection_is_monotone(
        ops in prop::collection::vec((arb_alu_op(), arb_reg(), arb_reg(), arb_reg()), 1..30),
        offs in prop::collection::vec(0u8..16, 1..5),
    ) {
        let mut asm = Asm::new();
        let buf = asm.data_zero(256);
        asm.func("kernel", true);
        asm.la(reg::S7, buf);
        for (op, rd, rs, rt) in &ops {
            asm.emit(Instr::Alu { op: *op, rd: *rd, rs: *rs, rt: *rt });
        }
        for off in &offs {
            asm.lw(reg::T4, i32::from(*off) * 4, reg::S7);
            asm.sw(reg::T4, i32::from(*off) * 4 + 64, reg::S7);
        }
        asm.halt();
        asm.endfunc();
        let program = asm.assemble().unwrap();
        let strict = analyze(&program).stats().low_reliability;
        let relaxed = analyze_with(&program, &AnalysisOptions {
            protect_addresses: false,
            ..AnalysisOptions::default()
        }).stats().low_reliability;
        prop_assert!(relaxed >= strict);
    }

    /// The simulator is deterministic: identical programs and inputs give
    /// identical register files and instruction counts.
    #[test]
    fn simulator_is_deterministic(
        ops in prop::collection::vec((arb_alu_op(), arb_reg(), arb_reg(), arb_reg()), 1..30)
    ) {
        let mut asm = Asm::new();
        asm.func("main", false);
        for (op, rd, rs, rt) in &ops {
            asm.emit(Instr::Alu { op: *op, rd: *rd, rs: *rs, rt: *rt });
        }
        asm.halt();
        asm.endfunc();
        let program = asm.assemble().unwrap();
        let mut m1 = Machine::new(&program, &MachineConfig::default());
        let mut m2 = Machine::new(&program, &MachineConfig::default());
        let r1 = m1.run_simple();
        let r2 = m2.run_simple();
        prop_assert_eq!(r1, r2);
        for i in 0..32u8 {
            prop_assert_eq!(m1.reg(Reg::new(i)), m2.reg(Reg::new(i)));
        }
    }

    /// PSNR properties: identity is infinite, symmetric in its arguments,
    /// and any difference is finite and non-negative.
    #[test]
    fn psnr_properties(img in prop::collection::vec(any::<u8>(), 16..128), flip in 0usize..16) {
        prop_assert!(psnr(&img, &img).is_infinite());
        let mut other = img.clone();
        let idx = flip % other.len();
        other[idx] = other[idx].wrapping_add(1);
        let p1 = psnr(&img, &other);
        let p2 = psnr(&other, &img);
        prop_assert!((p1 - p2).abs() < 1e-9);
        prop_assert!(p1.is_finite() && p1 >= 0.0);
    }

    /// Byte similarity is within [0,1], reflexive and symmetric.
    #[test]
    fn byte_similarity_properties(a in prop::collection::vec(any::<u8>(), 0..64),
                                  b in prop::collection::vec(any::<u8>(), 0..64)) {
        let s = byte_similarity(&a, &b);
        prop_assert!((0.0..=1.0).contains(&s));
        prop_assert_eq!(byte_similarity(&a, &a), 1.0);
        prop_assert_eq!(s, byte_similarity(&b, &a));
    }

    /// SNR decreases (weakly) as uniform noise amplitude grows.
    #[test]
    fn snr_monotone_in_noise(base in 500i16..5000, n in 8usize..64) {
        let signal: Vec<i16> = (0..n).map(|i| (f64::from(base) * (i as f64 / 3.0).sin()) as i16).collect();
        let noisy = |amp: i16| -> Vec<i16> {
            signal.iter().enumerate().map(|(i, &s)| {
                s.saturating_add(if i % 2 == 0 { amp } else { -amp })
            }).collect()
        };
        let small = snr_db(&signal, &noisy(2));
        let large = snr_db(&signal, &noisy(50));
        prop_assert!(small >= large);
    }

    /// RegRef dense indexing is a bijection over both register files.
    #[test]
    fn regref_dense_index_bijection(idx in 0usize..64) {
        prop_assert_eq!(RegRef::from_dense_index(idx).dense_index(), idx);
    }

    /// The checkpointing determinism contract: for random seeds, all three
    /// workload sizes, both protection regimes, register and memory-cell
    /// plans, and varying error counts, a checkpoint-accelerated campaign
    /// produces trial results that are bit-identical (outcome, output,
    /// instruction count, injected count) to from-scratch execution.
    #[test]
    fn checkpointed_campaigns_equal_scratch(seed in any::<u64>()) {
        const SIZES: [usize; 3] = [64, 256, 1024];
        let size = SIZES[(seed % 3) as usize];
        // 0..=5, including the no-flip splice path; several flips straddle
        // the stride-64 checkpoints, so trials fast-forward between them.
        let errors = (seed >> 6) % 6;
        let protection = if seed & 2 == 0 { Protection::ControlOnly } else { Protection::None };
        let threads = if seed & 16 == 0 { 1 } else { 2 };
        let target_kind = if seed & 32 == 0 { FaultTarget::Registers } else { FaultTarget::MemoryCells };

        let target = TransformTarget::new(size);
        let tags = analyze(&target.program);
        let fast_cfg = CampaignConfig {
            trials: 6,
            errors,
            protection,
            target: target_kind,
            seed,
            threads,
            checkpoint_stride: 64, // force several checkpoints even when small
            ..CampaignConfig::default()
        };
        let slow_cfg = CampaignConfig { checkpointing: false, ..fast_cfg.clone() };
        let fast = run_campaign(&target, &tags, &fast_cfg);
        let slow = run_campaign(&target, &tags, &slow_cfg);

        prop_assert_eq!(&fast.golden.output, &slow.golden.output);
        prop_assert_eq!(fast.golden.instructions, slow.golden.instructions);
        prop_assert_eq!(fast.golden.eligible_population, slow.golden.eligible_population);
        for (i, (a, b)) in fast.trials.iter().zip(&slow.trials).enumerate() {
            prop_assert_eq!(a, b, "trial {} record (size {})", i, size);
        }
    }
}

/// The fixed-seed companion of `checkpointed_campaigns_equal_scratch`: on
/// the transform kernel, register plans under both regimes and memory-cell
/// plans equal the from-scratch run, and trials did fast-forward between
/// flips, so the equality covers restores ahead of a pending flip.
#[test]
fn checkpointed_campaigns_fast_forward_and_equal_scratch() {
    let target = TransformTarget::new(256);
    let tags = analyze(&target.program);
    for (kind, protection) in [
        (FaultTarget::Registers, Protection::ControlOnly),
        (FaultTarget::Registers, Protection::None),
        (FaultTarget::MemoryCells, Protection::None),
    ] {
        for seed in [7, 844_410] {
            let fast_cfg = CampaignConfig {
                trials: 48,
                errors: 4,
                protection,
                target: kind,
                seed,
                threads: 2,
                checkpoint_stride: 64,
                ..CampaignConfig::default()
            };
            let session = CampaignSession::new(&target, &tags, &fast_cfg);
            let fast = session.run_all();
            let scratch = run_campaign(
                &target,
                &tags,
                &CampaignConfig {
                    checkpointing: false,
                    ..fast_cfg
                },
            );
            assert_eq!(fast, scratch.trials, "{kind:?} {protection:?} seed {seed}");
            assert!(
                session.fast_forwards() > 0,
                "{kind:?} {protection:?} seed {seed}: no trial fast-forwarded"
            );
        }
    }
}

/// A size-parameterized byte-transform kernel used by the checkpointing
/// property: per element it computes `(b * 3 + 7) & 0xff`, stores it, and
/// accumulates a checksum. Masked flips reconverge with the golden run
/// (exercising the splice path); checksum/store flips diverge to the end
/// (exercising the run-out path); address flips under `Protection::None`
/// crash (exercising early termination).
struct TransformTarget {
    program: Program,
    input_addr: u32,
    output_addr: u32,
    size: usize,
}

impl TransformTarget {
    fn new(size: usize) -> Self {
        let mut a = Asm::new();
        let input_addr = a.data_zero(size);
        let output_addr = a.data_zero(size + 4);
        a.func("transform", true);
        a.la(reg::T0, input_addr);
        a.la(reg::T4, output_addr);
        a.li(reg::T1, 0);
        a.li(reg::T2, 0);
        a.label("loop");
        a.add(reg::T3, reg::T0, reg::T1);
        a.lbu(reg::T3, 0, reg::T3);
        a.muli(reg::T3, reg::T3, 3);
        a.addi(reg::T3, reg::T3, 7);
        a.andi(reg::T3, reg::T3, 255);
        a.add(reg::T2, reg::T2, reg::T3);
        a.add(reg::T5, reg::T4, reg::T1);
        a.sb(reg::T3, 0, reg::T5);
        a.addi(reg::T1, reg::T1, 1);
        a.slti(reg::T6, reg::T1, size as i32);
        a.bnez(reg::T6, "loop");
        a.la(reg::T5, output_addr + size as u32);
        a.sw(reg::T2, 0, reg::T5);
        a.ret();
        a.endfunc();
        a.func("main", false);
        a.call("transform");
        a.halt();
        a.endfunc();
        TransformTarget {
            program: a.assemble().unwrap(),
            input_addr,
            output_addr,
            size,
        }
    }
}

impl Target for TransformTarget {
    fn program(&self) -> &Program {
        &self.program
    }

    fn prepare(&self, machine: &mut Machine<'_>) {
        let input: Vec<u8> = (0..self.size).map(|i| (i * 37 + 11) as u8).collect();
        machine.write_bytes(self.input_addr, &input).unwrap();
    }

    fn extract(&self, machine: &Machine<'_>) -> Option<Vec<u8>> {
        machine
            .read_bytes(self.output_addr, self.size as u32 + 4)
            .ok()
    }
}

fn host_alu(op: AluOp, a: u32, b: u32) -> u32 {
    match op {
        AluOp::Add => a.wrapping_add(b),
        AluOp::Sub => a.wrapping_sub(b),
        AluOp::Mul => a.wrapping_mul(b),
        AluOp::Div => {
            if b == 0 {
                0
            } else {
                (a as i32).wrapping_div(b as i32) as u32
            }
        }
        AluOp::Rem => {
            if b == 0 {
                0
            } else {
                (a as i32).wrapping_rem(b as i32) as u32
            }
        }
        AluOp::Divu => a.checked_div(b).unwrap_or(0),
        AluOp::Remu => a.checked_rem(b).unwrap_or(0),
        AluOp::And => a & b,
        AluOp::Or => a | b,
        AluOp::Xor => a ^ b,
        AluOp::Nor => !(a | b),
        AluOp::Sll => a.wrapping_shl(b),
        AluOp::Srl => a.wrapping_shr(b),
        AluOp::Sra => (a as i32).wrapping_shr(b) as u32,
        AluOp::Slt => u32::from((a as i32) < (b as i32)),
        AluOp::Sltu => u32::from(a < b),
    }
}

// ---------------------------------------------------------------------
// Error-model algebra
// ---------------------------------------------------------------------

/// Every error model (with a spread of burst lengths for the burst case).
fn arb_error_model() -> impl Strategy<Value = certa::fault::ErrorModel> {
    use certa::fault::ErrorModel;
    prop::sample::select(vec![
        ErrorModel::SingleBitFlip,
        ErrorModel::AdjacentDoubleBitFlip,
        ErrorModel::BurstFlip { len: 1 },
        ErrorModel::BurstFlip { len: 3 },
        ErrorModel::BurstFlip { len: 8 },
        ErrorModel::BurstFlip { len: 31 },
        ErrorModel::BurstFlip { len: 64 },
        ErrorModel::StuckAtZero,
        ErrorModel::StuckAtOne,
    ])
}

proptest! {
    /// The XOR-family models (single, adjacent-double, burst) are
    /// involutions: applying the same fault twice restores the value
    /// exactly, in both the integer and the float domain. (Float values
    /// are compared as bit patterns: a flip can produce a NaN, and the
    /// involution must hold for its payload too.)
    #[test]
    fn xor_family_models_are_involutions(
        model in arb_error_model(),
        value in any::<u32>(),
        fvalue in any::<u64>(),
        bit in any::<u8>(),
    ) {
        use certa::fault::ErrorModel;
        if matches!(model, ErrorModel::StuckAtZero | ErrorModel::StuckAtOne) {
            return Ok(()); // stuck-at is idempotent, not involutive
        }
        prop_assert_eq!(model.apply_u32(model.apply_u32(value, bit), bit), value);
        let f = f64::from_bits(fvalue);
        prop_assert_eq!(
            model.apply_f64(model.apply_f64(f, bit), bit).to_bits(),
            fvalue
        );
    }

    /// The stuck-at models are idempotent: a latched bit stuck at 0 or 1
    /// stays stuck — re-applying the same fault changes nothing.
    #[test]
    fn stuck_at_models_are_idempotent(
        stuck_one in any::<bool>(),
        value in any::<u32>(),
        fvalue in any::<u64>(),
        bit in any::<u8>(),
    ) {
        use certa::fault::ErrorModel;
        let model = if stuck_one { ErrorModel::StuckAtOne } else { ErrorModel::StuckAtZero };
        let once = model.apply_u32(value, bit);
        prop_assert_eq!(model.apply_u32(once, bit), once);
        let fonce = model.apply_f64(f64::from_bits(fvalue), bit).to_bits();
        prop_assert_eq!(model.apply_f64(f64::from_bits(fonce), bit).to_bits(), fonce);
    }

    /// Bit positions reduce modulo the value's width: `bit` and
    /// `bit % 32` (resp. `% 64`) denote the same fault.
    #[test]
    fn bit_positions_reduce_modulo_width(
        model in arb_error_model(),
        value in any::<u32>(),
        fvalue in any::<u64>(),
        bit in any::<u8>(),
    ) {
        prop_assert_eq!(
            model.apply_u32(value, bit),
            model.apply_u32(value, bit % 32)
        );
        let f = f64::from_bits(fvalue);
        prop_assert_eq!(
            model.apply_f64(f, bit).to_bits(),
            model.apply_f64(f, bit % 64).to_bits()
        );
    }

    /// For faults whose mask fits inside the low 32 bits, the integer and
    /// float applications agree: `apply_f64` on a value with zero high
    /// bits flips exactly the bits `apply_u32` flips, and leaves the high
    /// word alone. (Wrapping faults — adjacent at bit 31, bursts crossing
    /// bit 31 — are excluded: the u32 mask wraps within 32 bits where the
    /// u64 mask continues upward, by design.)
    #[test]
    fn integer_and_float_applications_agree_in_the_low_word(
        model in arb_error_model(),
        value in any::<u32>(),
        bit in 0usize..32,
    ) {
        use certa::fault::ErrorModel;
        let bit = bit as u8;
        let fits = match model {
            ErrorModel::SingleBitFlip
            | ErrorModel::StuckAtZero
            | ErrorModel::StuckAtOne => true,
            ErrorModel::AdjacentDoubleBitFlip => bit < 31,
            ErrorModel::BurstFlip { len } => u32::from(bit) + u32::from(len.max(1)) <= 32,
        };
        if !fits {
            return Ok(()); // wrapping masks differ across widths by design
        }
        let wide = model.apply_f64(f64::from_bits(u64::from(value)), bit).to_bits();
        prop_assert_eq!(wide >> 32, 0u64, "high word must stay untouched");
        prop_assert_eq!(wide as u32, model.apply_u32(value, bit));
    }
}
