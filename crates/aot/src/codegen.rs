//! Rust source generation from a program's control-flow graph.
//!
//! [`generate_module`] emits one region-executor function per program: a
//! `loop { match block_id }` over the CFG's basic blocks with guest
//! integer/float registers lowered to locals. Control stays native across
//! branches, jumps, calls, and returns whose targets are block starts;
//! everything native code cannot express — a pause/watchdog boundary
//! before a full block fits, a crash, a halt, an indirect jump to a
//! non-block-start pc — is compiled in as an explicit early return
//! spilling exact `(pc, icount, value_producing)` state plus both
//! register files, so the driving `Machine` observes precisely what the
//! reference interpreter would have left.
//!
//! Each executor is generic over two flags. `PROFILE` bumps per-instruction
//! execution counts. `ELIG` adds the eligibility window fault trials run
//! under: a second per-block guard, `elig + ELIG[b] > elig_stop`, beside
//! the instruction-count guard, and `elig += ELIG[b]` at block close, where
//! `ELIG` is a runtime per-block table of the writebacks the hook counts —
//! so one compiled module serves every protection regime and tag map, and
//! hook-free runs (`ELIG = false`) pay nothing for it. The module exports
//! each program's block boundaries, the same CFG its `BLOCK_AT` entry table
//! comes from, so the runtime and the native code agree on where a flip
//! lands.
//!
//! The emitted source targets the consumer crate's dependency graph: it
//! names `certa_sim::aot::{AotCtx, AotExit, AotProgram}` and nothing
//! else, and is meant to be written into `OUT_DIR` by a build script and
//! `include!`d into a module carrying the blanket `#[allow]`s generated
//! code needs.

use std::collections::HashMap;
use std::fmt::Write as _;

use certa_core::Cfg;
use certa_isa::{AluOp, CmpOp, FCmpOp, FpuOp, Instr, MemWidth, Program};

/// Generates a Rust module containing one `certa-sim`
/// `AotProgram` per `(name, program)` entry, each stamped with its
/// program's length and [`Program::code_fingerprint`], plus an `ALL` table
/// over every entry.
///
/// # Panics
///
/// Panics on an empty program or duplicate entry names — generator-input
/// bugs, not runtime conditions.
#[must_use]
pub fn generate_module(entries: &[(&str, &Program)]) -> String {
    let mut out = String::new();
    out.push_str("// @generated by certa-aot — do not edit.\n");
    out.push_str("//\n// One region-executor function per guest program: a threaded\n");
    out.push_str("// `loop { match block_id }` over the program's basic blocks with\n");
    out.push_str("// guest registers lowered to locals. See certa-aot's codegen docs.\n\n");
    out.push_str("use certa_sim::aot::{AotCtx, AotExit, AotProgram};\n");

    let mut seen = HashMap::new();
    let mut idents = Vec::new();
    for &(name, program) in entries {
        let id = ident(name);
        assert!(
            seen.insert(id.clone(), ()).is_none(),
            "duplicate AOT entry ident {id:?} (from name {name:?})"
        );
        emit_program(&mut out, name, &id, program);
        idents.push(id);
    }

    out.push_str("\n/// Every precompiled program in this module.\n");
    out.push_str("pub static ALL: &[&AotProgram] = &[\n");
    for id in &idents {
        let _ = writeln!(out, "    &AOT_{},", id.to_uppercase());
    }
    out.push_str("];\n");
    out
}

/// A Rust identifier for a program name: non-alphanumerics become `_`,
/// a leading digit gets a `p` prefix.
fn ident(name: &str) -> String {
    let mut id: String = name
        .chars()
        .map(|c| if c.is_ascii_alphanumeric() { c.to_ascii_lowercase() } else { '_' })
        .collect();
    if id.chars().next().is_none_or(|c| c.is_ascii_digit()) {
        id.insert(0, 'p');
    }
    id
}

/// Integer register operand text: `$zero` folds to a literal.
fn rv(r: certa_isa::Reg) -> String {
    let i = r.index();
    if i == 0 {
        "0u32".to_string()
    } else {
        format!("r{i}")
    }
}

/// Float register operand text.
fn fv(f: certa_isa::FReg) -> String {
    format!("f{}", f.index())
}

/// The expression computing `a op b` exactly as the interpreter's
/// `eval_alu` does.
fn alu_expr(op: AluOp, a: &str, b: &str) -> String {
    match op {
        AluOp::Add => format!("{a}.wrapping_add({b})"),
        AluOp::Sub => format!("{a}.wrapping_sub({b})"),
        AluOp::Mul => format!("{a}.wrapping_mul({b})"),
        AluOp::Div => format!(
            "{{ let b__ = {b}; if b__ == 0 {{ 0 }} else {{ ({a} as i32).wrapping_div(b__ as i32) as u32 }} }}"
        ),
        AluOp::Rem => format!(
            "{{ let b__ = {b}; if b__ == 0 {{ 0 }} else {{ ({a} as i32).wrapping_rem(b__ as i32) as u32 }} }}"
        ),
        AluOp::Divu => format!("{a}.checked_div({b}).unwrap_or(0)"),
        AluOp::Remu => format!("{a}.checked_rem({b}).unwrap_or(0)"),
        AluOp::And => format!("{a} & {b}"),
        AluOp::Or => format!("{a} | {b}"),
        AluOp::Xor => format!("{a} ^ {b}"),
        AluOp::Nor => format!("!({a} | {b})"),
        AluOp::Sll => format!("{a}.wrapping_shl({b})"),
        AluOp::Srl => format!("{a}.wrapping_shr({b})"),
        AluOp::Sra => format!("(({a} as i32).wrapping_shr({b})) as u32"),
        AluOp::Slt => format!("u32::from(({a} as i32) < ({b} as i32))"),
        AluOp::Sltu => format!("u32::from({a} < {b})"),
    }
}

/// The boolean expression for a branch condition, matching `CmpOp::eval`.
fn cmp_expr(cond: CmpOp, a: &str, b: &str) -> String {
    match cond {
        CmpOp::Eq => format!("{a} == {b}"),
        CmpOp::Ne => format!("{a} != {b}"),
        CmpOp::Lt => format!("({a} as i32) < ({b} as i32)"),
        CmpOp::Ge => format!("({a} as i32) >= ({b} as i32)"),
        CmpOp::Ltu => format!("{a} < {b}"),
        CmpOp::Geu => format!("{a} >= {b}"),
    }
}

/// The checked-accessor method name for a load of the given width/sign.
fn load_method(width: MemWidth, signed: bool) -> &'static str {
    match (width, signed) {
        (MemWidth::Byte, false) => "lbu",
        (MemWidth::Byte, true) => "lb",
        (MemWidth::Half, false) => "lhu",
        (MemWidth::Half, true) => "lh",
        (MemWidth::Word, _) => "lw",
    }
}

/// The checked-accessor method name for a store of the given width.
fn store_method(width: MemWidth) -> &'static str {
    match width {
        MemWidth::Byte => "sb",
        MemWidth::Half => "sh",
        MemWidth::Word => "sw",
    }
}

/// Whether the interpreter counts this instruction as value-producing
/// (calls `write_int`/`write_float`) when it retires without crashing.
fn is_value_producing(instr: &Instr) -> bool {
    instr.def().is_some()
}

fn emit_program(out: &mut String, name: &str, id: &str, program: &Program) {
    let code = &program.code;
    assert!(!code.is_empty(), "cannot generate AOT code for an empty program");
    let cfg = Cfg::build(program);
    // Block id by start index — every static branch/jump/call target is a
    // leader by CFG construction, so target lookups below must hit.
    let bid_of: HashMap<usize, usize> = cfg
        .blocks
        .iter()
        .enumerate()
        .map(|(b, blk)| (blk.start, b))
        .collect();

    let _ = writeln!(
        out,
        "\n/// Region executor generated from program `{name}` ({} instructions,\n\
         /// {} basic blocks).",
        code.len(),
        cfg.blocks.len()
    );
    let _ = writeln!(
        out,
        "fn run_{id}<const PROFILE: bool, const ELIG: bool>(ctx: &mut AotCtx<'_>) -> AotExit {{"
    );

    // Entry table: block id at each block-start pc, u32::MAX elsewhere.
    let mut entry = vec![u32::MAX; code.len()];
    for (b, blk) in cfg.blocks.iter().enumerate() {
        entry[blk.start] = b as u32;
    }
    out.push_str("    const BLOCK_AT: &[u32] = &[");
    for (i, e) in entry.iter().enumerate() {
        if i % 16 == 0 {
            out.push_str("\n        ");
        }
        if *e == u32::MAX {
            out.push_str("u32::MAX, ");
        } else {
            let _ = write!(out, "{e}, ");
        }
    }
    out.push_str("\n    ];\n");

    out.push_str(concat!(
        "    let mut bid = match BLOCK_AT.get(ctx.pc() as usize) {\n",
        "        Some(&b) if b != u32::MAX => b,\n",
        "        _ => return AotExit::Escape,\n",
        "    };\n",
        "    let stop = ctx.stop();\n",
        "    let mut icount = ctx.icount();\n",
        "    let mut vp = ctx.vp();\n",
        "    let elig_tab = ctx.elig_table();\n",
        "    let elig_stop = ctx.elig_stop();\n",
        "    let mut elig = 0u64;\n",
    ));
    let _ = writeln!(
        out,
        "    if ELIG {{ assert_eq!(elig_tab.len(), {}, \"ELIG table does not match the block count\"); }}",
        cfg.blocks.len()
    );
    for i in 1..32 {
        let _ = writeln!(out, "    let mut r{i} = ctx.reg({i});");
    }
    for i in 0..32 {
        let _ = writeln!(out, "    let mut f{i} = ctx.freg({i});");
    }
    // Spill macro: control counters plus both register files, exactly once
    // per return path.
    out.push_str("    macro_rules! spill_ {\n        ($pc:expr, $ic:expr, $vp:expr) => {{\n            ctx.set_state($pc, $ic, $vp);\n            if ELIG { ctx.set_elig(elig); }\n            ctx.put_regs([0u32");
    for i in 1..32 {
        let _ = write!(out, ", r{i}");
    }
    out.push_str("]);\n            ctx.put_fregs([f0");
    for i in 1..32 {
        let _ = write!(out, ", f{i}");
    }
    out.push_str("]);\n        }};\n    }\n");

    out.push_str("    loop {\n        match bid {\n");
    for (b, blk) in cfg.blocks.iter().enumerate() {
        emit_block(out, code, &bid_of, b, blk.start, blk.end);
    }
    out.push_str("            _ => unreachable!(\"invalid block id\"),\n");
    out.push_str("        }\n    }\n}\n");

    let upper = id.to_uppercase();
    let starts: Vec<String> = cfg.blocks.iter().map(|blk| blk.start.to_string()).collect();
    let _ = writeln!(
        out,
        "\n/// Precompiled tier-4 program `{name}`.\npub static AOT_{upper}: AotProgram = AotProgram {{\n    name: {name:?},\n    code_len: {},\n    fingerprint: {:#018x},\n    block_starts: &[{}],\n    run: run_{id}::<false, false>,\n    run_profiled: run_{id}::<true, false>,\n    run_windowed: run_{id}::<false, true>,\n}};",
        code.len(),
        program.code_fingerprint(),
        starts.join(", ")
    );
}

/// Emits one `match` arm executing block `b` (instructions `start..end`).
fn emit_block(
    out: &mut String,
    code: &[Instr],
    bid_of: &HashMap<usize, usize>,
    b: usize,
    start: usize,
    end: usize,
) {
    let len = end - start;
    let _ = writeln!(out, "            // block {b}: instructions {start}..{end}");
    let _ = writeln!(out, "            {b} => {{");
    // Pause/watchdog gate: the whole block must fit below the boundary,
    // otherwise the interpreter retires the sub-block tail.
    let _ = writeln!(
        out,
        "                if icount + {len} > stop {{ spill_!({start}u64, icount, vp); return AotExit::Bounded; }}"
    );
    // Eligibility gate: the block's counted writebacks must fit in the
    // hook's window, otherwise the interpreter runs the block with it.
    let _ = writeln!(
        out,
        "                if ELIG && elig + u64::from(elig_tab[{b}]) > elig_stop {{ spill_!({start}u64, icount, vp); return AotExit::Bounded; }}"
    );

    // Number of value-producing retirements among start..at — the crash
    // spill must exclude the faulting instruction's own writeback.
    let mut vp_before = 0u64;
    let mut terminated = false;
    for (k, instr) in code[start..end].iter().enumerate() {
        let at = start + k;
        let last = k == len - 1;
        // A crashing access retires (icount includes it, exec_counts[at]
        // bumps) but never reaches its writeback.
        let crash = format!(
            "{{ if PROFILE {{ ctx.bump_counts({start}, {}); }} spill_!({at}u64, icount + {}, vp + {vp_before}); return AotExit::Crashed(e__); }}",
            at + 1,
            k + 1
        );
        match *instr {
            Instr::Alu { op, rd, rs, rt } => {
                let v = alu_expr(op, &rv(rs), &rv(rt));
                if rd.index() != 0 {
                    let _ = writeln!(out, "                r{} = {v};", rd.index());
                } else {
                    let _ = writeln!(out, "                // {at}: alu into $zero (discarded)");
                }
            }
            Instr::AluImm { op, rd, rs, imm } => {
                let v = alu_expr(op, &rv(rs), &format!("{}u32", imm as u32));
                if rd.index() != 0 {
                    let _ = writeln!(out, "                r{} = {v};", rd.index());
                } else {
                    let _ = writeln!(out, "                // {at}: alu into $zero (discarded)");
                }
            }
            Instr::Li { rd, imm } => {
                if rd.index() != 0 {
                    let _ = writeln!(out, "                r{} = {}u32;", rd.index(), imm as u32);
                }
            }
            Instr::Load {
                width,
                signed,
                rd,
                base,
                off,
            } => {
                let m = load_method(width, signed);
                let dst = if rd.index() != 0 {
                    format!("r{} = v__;", rd.index())
                } else {
                    "let _ = v__;".to_string()
                };
                let _ = writeln!(
                    out,
                    "                match ctx.{m}({}.wrapping_add({}u32)) {{ Ok(v__) => {{ {dst} }} Err(e__) => {crash} }}",
                    rv(base),
                    off as u32
                );
            }
            Instr::Store {
                width, rs, base, off,
            } => {
                let m = store_method(width);
                let _ = writeln!(
                    out,
                    "                if let Err(e__) = ctx.{m}({}.wrapping_add({}u32), {}) {crash}",
                    rv(base),
                    off as u32,
                    rv(rs)
                );
            }
            Instr::Fpu { op, fd, fs, ft } => {
                let (a, bb) = (fv(fs), fv(ft));
                let v = match op {
                    FpuOp::Add => format!("{a} + {bb}"),
                    FpuOp::Sub => format!("{a} - {bb}"),
                    FpuOp::Mul => format!("{a} * {bb}"),
                    FpuOp::Div => format!("{a} / {bb}"),
                    FpuOp::Min => format!("{a}.min({bb})"),
                    FpuOp::Max => format!("{a}.max({bb})"),
                };
                let _ = writeln!(out, "                {} = {v};", fv(fd));
            }
            Instr::FMov { fd, fs } => {
                let _ = writeln!(out, "                {} = {};", fv(fd), fv(fs));
            }
            Instr::FAbs { fd, fs } => {
                let _ = writeln!(out, "                {} = {}.abs();", fv(fd), fv(fs));
            }
            Instr::FNeg { fd, fs } => {
                let _ = writeln!(out, "                {} = -{};", fv(fd), fv(fs));
            }
            Instr::FSqrt { fd, fs } => {
                let _ = writeln!(out, "                {} = {}.sqrt();", fv(fd), fv(fs));
            }
            Instr::FLi { fd, value } => {
                let _ = writeln!(
                    out,
                    "                {} = f64::from_bits({}u64);",
                    fv(fd),
                    value.to_bits()
                );
            }
            Instr::FLoad { fd, base, off } => {
                let _ = writeln!(
                    out,
                    "                match ctx.lfd({}.wrapping_add({}u32)) {{ Ok(v__) => {{ {} = v__; }} Err(e__) => {crash} }}",
                    rv(base),
                    off as u32,
                    fv(fd)
                );
            }
            Instr::FStore { fs, base, off } => {
                let _ = writeln!(
                    out,
                    "                if let Err(e__) = ctx.sfd({}.wrapping_add({}u32), {}) {crash}",
                    rv(base),
                    off as u32,
                    fv(fs)
                );
            }
            Instr::CvtIF { fd, rs } => {
                let _ = writeln!(out, "                {} = {} as i32 as f64;", fv(fd), rv(rs));
            }
            Instr::CvtFI { rd, fs } => {
                if rd.index() != 0 {
                    let _ = writeln!(
                        out,
                        "                r{} = {{ let v__ = {}; if v__.is_nan() {{ 0 }} else {{ v__.clamp(i32::MIN as f64, i32::MAX as f64) as i32 as u32 }} }};",
                        rd.index(),
                        fv(fs)
                    );
                }
            }
            Instr::FCmp { op, rd, fs, ft } => {
                if rd.index() != 0 {
                    let cmp = match op {
                        FCmpOp::Eq => "==",
                        FCmpOp::Lt => "<",
                        FCmpOp::Le => "<=",
                    };
                    let _ = writeln!(
                        out,
                        "                r{} = u32::from({} {cmp} {});",
                        rd.index(),
                        fv(fs),
                        fv(ft)
                    );
                }
            }
            Instr::Nop => {
                let _ = writeln!(out, "                // {at}: nop");
            }
            // ----- terminators: always the block's last instruction -----
            Instr::Branch {
                cond,
                rs,
                rt,
                target,
            } => {
                assert!(last, "conditional branch mid-block at {at}");
                emit_block_close(out, b, start, end, len, vp_before);
                let taken = bid_of[&target];
                let cexp = cmp_expr(cond, &rv(rs), &rv(rt));
                if let Some(&fall) = bid_of.get(&end) {
                    let _ = writeln!(
                        out,
                        "                bid = if {cexp} {{ {taken} }} else {{ {fall} }};"
                    );
                } else {
                    // Not-taken falls off the end of the code array: the
                    // machine's outer loop reports the wild pc.
                    let _ = writeln!(
                        out,
                        "                if {cexp} {{ bid = {taken}; }} else {{ spill_!({end}u64, icount, vp); return AotExit::Escape; }}"
                    );
                }
                terminated = true;
            }
            Instr::Jump { target } => {
                assert!(last, "jump mid-block at {at}");
                emit_block_close(out, b, start, end, len, vp_before);
                let _ = writeln!(out, "                bid = {};", bid_of[&target]);
                terminated = true;
            }
            Instr::Call { target } => {
                assert!(last, "call mid-block at {at}");
                // The return-address writeback is part of the block's
                // retirement (hook-free: vp bumps, $ra gets pc+1).
                let _ = writeln!(out, "                r31 = {}u32;", at + 1);
                emit_block_close(out, b, start, end, len, vp_before + 1);
                let _ = writeln!(out, "                bid = {};", bid_of[&target]);
                terminated = true;
            }
            Instr::JumpReg { rs } => {
                assert!(last, "indirect jump mid-block at {at}");
                emit_block_close(out, b, start, end, len, vp_before);
                let _ = writeln!(
                    out,
                    "                let t__ = u64::from({});\n                match BLOCK_AT.get(t__ as usize) {{\n                    Some(&b) if b != u32::MAX => bid = b,\n                    _ => {{ spill_!(t__, icount, vp); return AotExit::Escape; }}\n                }}",
                    rv(rs)
                );
                terminated = true;
            }
            Instr::Halt => {
                assert!(last, "halt mid-block at {at}");
                // icount includes the halt; pc rests on it.
                emit_block_close(out, b, start, end, len, vp_before);
                let _ = writeln!(
                    out,
                    "                spill_!({}u64, icount, vp); return AotExit::Halted;",
                    end - 1
                );
                terminated = true;
            }
        }
        if is_value_producing(instr) {
            vp_before += 1;
        }
    }
    if !terminated {
        // Straight-line block: the next instruction is a leader (or the
        // end of the code array, which the machine's outer loop reports).
        emit_block_close(out, b, start, end, len, vp_before);
        if let Some(&fall) = bid_of.get(&end) {
            let _ = writeln!(out, "                bid = {fall};");
        } else {
            let _ = writeln!(
                out,
                "                spill_!({end}u64, icount, vp); return AotExit::Escape;"
            );
        }
    }
    out.push_str("            }\n");
}

/// End-of-block bookkeeping: the whole block retired, so bump every
/// per-instruction count once and advance the dynamic counters.
fn emit_block_close(
    out: &mut String,
    b: usize,
    start: usize,
    end: usize,
    len: usize,
    vp_total: u64,
) {
    let _ = writeln!(
        out,
        "                if PROFILE {{ ctx.bump_counts({start}, {end}); }}\n                icount += {len};\n                vp += {vp_total};\n                if ELIG {{ elig += u64::from(elig_tab[{b}]); }}"
    );
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::progs;

    #[test]
    fn generates_executor_and_registry() {
        let p = progs::nested_loop_program();
        let src = generate_module(&[("nested-loop", &p)]);
        assert!(src.contains("fn run_nested_loop<const PROFILE: bool, const ELIG: bool>"));
        assert!(src.contains("pub static AOT_NESTED_LOOP: AotProgram"));
        assert!(src.contains("run_windowed: run_nested_loop::<false, true>"));
        // The exported block boundaries are the CFG's.
        let starts: Vec<String> = Cfg::build(&p)
            .blocks
            .iter()
            .map(|blk| blk.start.to_string())
            .collect();
        assert!(src.contains(&format!("block_starts: &[{}]", starts.join(", "))));
        assert!(src.contains("pub static ALL: &[&AotProgram] = &[\n    &AOT_NESTED_LOOP,\n];"));
        assert!(src.contains(&format!("code_len: {}", p.code.len())));
        assert!(src.contains(&format!("fingerprint: {:#018x}", p.code_fingerprint())));
        // The halt exit spills pc on the halt instruction.
        assert!(src.contains("return AotExit::Halted"));
    }

    #[test]
    fn random_programs_generate_for_all_precompiled_seeds() {
        for seed in progs::AOT_RANDOM_SEEDS {
            let p = progs::random_program(seed);
            let src = generate_module(&[("r", &p)]);
            assert!(src.contains("AotExit::Bounded"), "seed {seed}");
        }
    }

    #[test]
    #[should_panic(expected = "duplicate AOT entry ident")]
    fn rejects_colliding_names() {
        let p = progs::nested_loop_program();
        let _ = generate_module(&[("a b", &p), ("a-b", &p)]);
    }
}
