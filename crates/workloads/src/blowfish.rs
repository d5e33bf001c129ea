//! Blowfish encryption (MiBench / Schneier 1993).
//!
//! A **complete** Blowfish: the 18-entry P-array and four 256-entry S-boxes
//! are initialized from the hexadecimal digits of π (a committed constant
//! table, as in Schneier's reference code and MiBench's `bf_pi.h`; the
//! Bailey–Borwein–Plouffe digit extraction [`pi_hex_digits`] that
//! generated it stays as the test oracle), the full key schedule (521
//! chained block encryptions) runs **inside the guest**, and the guest
//! then encrypts and decrypts the input text through the 16-round Feistel
//! network.
//!
//! Fidelity (Table 1): percentage of bytes of the decrypt(encrypt(input))
//! round trip that match the original plaintext.
//!
//! Byte-order convention: blocks are handled as pairs of little-endian
//! `u32` halves (the guest memory is little-endian); for 16-byte keys the
//! key schedule XORs the four *big-endian* key words cyclically, which is
//! exactly the standard algorithm's behaviour. The classic all-zero-key
//! test vector `E(0,0) = (0x4EF99745, 0x6198DD78)` is asserted in the test
//! suite, validating both the π tables and the network.

use certa_asm::Asm;
use certa_fault::Target;
use certa_fidelity::byte_similarity;
use certa_isa::reg::{A0, A1, S0, S1, S2, S3, S4, S6, S7, T0, T1, T2, T3, T7, T8, T9, V0, V1};
use certa_isa::Program;
use certa_sim::Machine;

use crate::common::read_output;
use crate::{Fidelity, FidelityDetail, Workload};

/// Plaintext length in bytes (8 blocks).
pub const TEXT_LEN: usize = 64;
/// Documented acceptability threshold (the paper defines none for
/// Blowfish): at least 90% of bytes recovered.
pub const SIMILARITY_THRESHOLD: f64 = 0.90;

// ---------------------------------------------------------------------
// π hex digits via Bailey–Borwein–Plouffe digit extraction
// ---------------------------------------------------------------------

fn modpow(mut base: u64, mut exp: u64, m: u64) -> u64 {
    if m == 1 {
        return 0;
    }
    let mut result = 1u64;
    base %= m;
    while exp > 0 {
        if exp & 1 == 1 {
            result = result * base % m;
        }
        base = base * base % m;
        exp >>= 1;
    }
    result
}

/// `frac( Σ_{k=0}^{d} 16^{d-k} mod (8k+j) / (8k+j) + tail )`
fn bbp_series(j: u64, d: u64) -> f64 {
    let mut s = 0.0f64;
    for k in 0..=d {
        let m = 8 * k + j;
        s += modpow(16, d - k, m) as f64 / m as f64;
        s = s.fract();
    }
    let mut t = 0.0f64;
    let mut scale = 1.0 / 16.0;
    for k in (d + 1)..=(d + 14) {
        t += scale / (8 * k + j) as f64;
        scale /= 16.0;
    }
    (s + t).fract()
}

fn pi_frac_at(d: u64) -> f64 {
    let x = 4.0 * bbp_series(1, d) - 2.0 * bbp_series(4, d) - bbp_series(5, d) - bbp_series(6, d);
    let mut f = x.fract();
    if f < 0.0 {
        f += 1.0;
    }
    f
}

/// The first `count` hexadecimal digits of the fractional part of π
/// (π = 3.243F6A88…, so the sequence starts 2, 4, 3, F, …).
#[must_use]
pub fn pi_hex_digits(count: usize) -> Vec<u8> {
    let mut out = Vec::with_capacity(count);
    let per_extraction = 8; // well within f64 precision
    let mut d = 0u64;
    while out.len() < count {
        let mut frac = pi_frac_at(d);
        for _ in 0..per_extraction {
            frac *= 16.0;
            let digit = frac.floor();
            out.push(digit as u8);
            frac -= digit;
            if out.len() == count {
                break;
            }
        }
        d += per_extraction as u64;
    }
    out
}

mod tables;

/// Number of 32-bit words in the initialization tables (P + 4 S-boxes).
const INIT_WORDS: usize = 18 + 4 * 256;

/// The Blowfish initialization tables: π's hex digits as 32-bit words.
fn init_tables() -> &'static [u32; INIT_WORDS] {
    &tables::INIT_TABLES
}

// ---------------------------------------------------------------------
// host reference implementation
// ---------------------------------------------------------------------

/// Host-side Blowfish reference (mirrors the guest bit-for-bit).
#[derive(Clone)]
pub struct BlowfishRef {
    p: [u32; 18],
    s: Vec<u32>, // 4 × 256, flat
}

impl std::fmt::Debug for BlowfishRef {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("BlowfishRef").field("p0", &self.p[0]).finish()
    }
}

impl BlowfishRef {
    /// Runs the key schedule for a 16-byte key.
    #[must_use]
    pub fn new(key: &[u8; 16]) -> Self {
        let tables = init_tables();
        let mut p = [0u32; 18];
        p.copy_from_slice(&tables[0..18]);
        // Standard cyclic key mixing: for a 16-byte key this reduces to the
        // four big-endian key words indexed by i mod 4.
        let kw: Vec<u32> = key
            .chunks_exact(4)
            .map(|c| u32::from_be_bytes(c.try_into().expect("4-byte chunk")))
            .collect();
        for (i, pi) in p.iter_mut().enumerate() {
            *pi ^= kw[i % 4];
        }
        let mut bf = BlowfishRef {
            p,
            s: tables[18..].to_vec(),
        };
        let (mut l, mut r) = (0u32, 0u32);
        for i in (0..18).step_by(2) {
            let (nl, nr) = bf.encrypt_block(l, r);
            bf.p[i] = nl;
            bf.p[i + 1] = nr;
            l = nl;
            r = nr;
        }
        for i in (0..1024).step_by(2) {
            let (nl, nr) = bf.encrypt_block(l, r);
            bf.s[i] = nl;
            bf.s[i + 1] = nr;
            l = nl;
            r = nr;
        }
        bf
    }

    fn f(&self, x: u32) -> u32 {
        let a = (x >> 24) as usize;
        let b = ((x >> 16) & 0xff) as usize;
        let c = ((x >> 8) & 0xff) as usize;
        let d = (x & 0xff) as usize;
        (self.s[a].wrapping_add(self.s[256 + b]) ^ self.s[512 + c]).wrapping_add(self.s[768 + d])
    }

    /// Encrypts one block of two 32-bit halves.
    #[must_use]
    pub fn encrypt_block(&self, mut xl: u32, mut xr: u32) -> (u32, u32) {
        for i in 0..16 {
            xl ^= self.p[i];
            xr ^= self.f(xl);
            std::mem::swap(&mut xl, &mut xr);
        }
        std::mem::swap(&mut xl, &mut xr);
        xr ^= self.p[16];
        xl ^= self.p[17];
        (xl, xr)
    }

    /// Decrypts one block of two 32-bit halves.
    #[must_use]
    pub fn decrypt_block(&self, mut xl: u32, mut xr: u32) -> (u32, u32) {
        for i in (2..18).rev() {
            xl ^= self.p[i];
            xr ^= self.f(xl);
            std::mem::swap(&mut xl, &mut xr);
        }
        std::mem::swap(&mut xl, &mut xr);
        xr ^= self.p[1];
        xl ^= self.p[0];
        (xl, xr)
    }

    /// Encrypts then decrypts `text` (length a multiple of 8), as the guest
    /// does; returns the round-tripped bytes.
    ///
    /// # Panics
    ///
    /// Panics if `text.len()` is not a multiple of 8.
    #[must_use]
    pub fn round_trip(&self, text: &[u8]) -> Vec<u8> {
        assert_eq!(text.len() % 8, 0, "text must be whole blocks");
        let mut out = Vec::with_capacity(text.len());
        for block in text.chunks_exact(8) {
            let l = u32::from_le_bytes(block[0..4].try_into().expect("4 bytes"));
            let r = u32::from_le_bytes(block[4..8].try_into().expect("4 bytes"));
            let (cl, cr) = self.encrypt_block(l, r);
            let (dl, dr) = self.decrypt_block(cl, cr);
            out.extend_from_slice(&dl.to_le_bytes());
            out.extend_from_slice(&dr.to_le_bytes());
        }
        out
    }
}

// ---------------------------------------------------------------------
// the guest
// ---------------------------------------------------------------------

/// Emits the Blowfish F function: `T7 = F(A0)`, clobbering `T1`–`T3`.
/// Assumes `S7` holds the working S-box base.
fn emit_f(a: &mut Asm) {
    // S0[x >> 24]
    a.srli(T1, A0, 24);
    a.slli(T1, T1, 2);
    a.add(T1, T1, S7);
    a.lw(T2, 0, T1);
    // + S1[(x >> 16) & 0xff]
    a.srli(T1, A0, 16);
    a.andi(T1, T1, 255);
    a.slli(T1, T1, 2);
    a.add(T1, T1, S7);
    a.lw(T3, 1024, T1);
    a.add(T2, T2, T3);
    // ^ S2[(x >> 8) & 0xff]
    a.srli(T1, A0, 8);
    a.andi(T1, T1, 255);
    a.slli(T1, T1, 2);
    a.add(T1, T1, S7);
    a.lw(T3, 2048, T1);
    a.xor(T2, T2, T3);
    // + S3[x & 0xff]
    a.andi(T1, A0, 255);
    a.slli(T1, T1, 2);
    a.add(T1, T1, S7);
    a.lw(T3, 3072, T1);
    a.add(T7, T2, T3);
}

fn emit_swap_halves(a: &mut Asm) {
    a.mv(T0, A0);
    a.mv(A0, A1);
    a.mv(A1, T0);
}

/// The Blowfish workload.
#[derive(Debug)]
pub struct BlowfishWorkload {
    program: Program,
    plaintext: Vec<u8>,
    out_len_addr: u32,
    out_addr: u32,
}

impl Default for BlowfishWorkload {
    fn default() -> Self {
        Self::new()
    }
}

impl BlowfishWorkload {
    /// Builds the workload with the default plaintext and key.
    #[must_use]
    pub fn new() -> Self {
        Self::with_text(
            b"The quick brown fox jumps over the lazy dog! CERTA @ IISWC 2006!",
            b"CERTA-BLOWFISH16",
        )
    }

    /// Builds the workload with an explicit 64-byte plaintext and 16-byte
    /// key.
    #[must_use]
    #[allow(clippy::too_many_lines)]
    pub fn with_text(text: &[u8; TEXT_LEN], key: &[u8; 16]) -> Self {
        let tables = init_tables();
        let key_words: Vec<i32> = key
            .chunks_exact(4)
            .map(|c| u32::from_be_bytes(c.try_into().expect("4-byte chunk")) as i32)
            .collect();

        let mut a = Asm::new();
        let p_init = a.data_words(&tables[0..18].iter().map(|&w| w as i32).collect::<Vec<_>>());
        let s_init = a.data_words(&tables[18..].iter().map(|&w| w as i32).collect::<Vec<_>>());
        let key_addr = a.data_words(&key_words);
        let input_addr = a.data_bytes(text);
        a.align(4);
        let p_work = a.data_zero(18 * 4);
        let s_work = a.data_zero(1024 * 4);
        let cipher = a.data_zero(TEXT_LEN);
        let out_len_addr = a.data_zero(4);
        let out_addr = a.data_zero(TEXT_LEN);

        // ------------------------------------------------------------
        // bf_encrypt: (A0, A1) -> (V0, V1); S6 = P base, S7 = S base.
        // Leaf; clobbers T0-T3, T7, T8.
        // ------------------------------------------------------------
        a.func("bf_encrypt", true);
        a.li(T8, 0);
        a.label("bfe_round");
        a.slli(T0, T8, 2);
        a.add(T0, T0, S6);
        a.lw(T0, 0, T0); // P[i]
        a.xor(A0, A0, T0);
        emit_f(&mut a);
        a.xor(A1, A1, T7);
        emit_swap_halves(&mut a);
        a.addi(T8, T8, 1);
        a.slti(T0, T8, 16);
        a.bnez(T0, "bfe_round");
        emit_swap_halves(&mut a);
        a.lw(T0, 64, S6); // P[16]
        a.xor(A1, A1, T0);
        a.lw(T0, 68, S6); // P[17]
        a.xor(A0, A0, T0);
        a.mv(V0, A0);
        a.mv(V1, A1);
        a.ret();
        a.endfunc();

        // ------------------------------------------------------------
        // bf_decrypt: (A0, A1) -> (V0, V1); reversed P order.
        // ------------------------------------------------------------
        a.func("bf_decrypt", true);
        a.li(T8, 17);
        a.label("bfd_round");
        a.slli(T0, T8, 2);
        a.add(T0, T0, S6);
        a.lw(T0, 0, T0); // P[i]
        a.xor(A0, A0, T0);
        emit_f(&mut a);
        a.xor(A1, A1, T7);
        emit_swap_halves(&mut a);
        a.addi(T8, T8, -1);
        a.slti(T0, T8, 2);
        a.beqz(T0, "bfd_round");
        emit_swap_halves(&mut a);
        a.lw(T0, 4, S6); // P[1]
        a.xor(A1, A1, T0);
        a.lw(T0, 0, S6); // P[0]
        a.xor(A0, A0, T0);
        a.mv(V0, A0);
        a.mv(V1, A1);
        a.ret();
        a.endfunc();

        // ------------------------------------------------------------
        // bf_keyschedule: copies the π tables into the working arrays,
        // mixes the key, and runs the 521 chained encryptions.
        // ------------------------------------------------------------
        a.func("bf_keyschedule", true);
        a.prologue(&[], 0);
        // copy P
        a.la(T9, p_init);
        a.li(S0, 0);
        a.label("ks_copy_p");
        a.slli(T0, S0, 2);
        a.add(T1, T9, T0);
        a.lw(T2, 0, T1);
        a.add(T1, S6, T0);
        a.sw(T2, 0, T1);
        a.addi(S0, S0, 1);
        a.slti(T0, S0, 18);
        a.bnez(T0, "ks_copy_p");
        // copy S
        a.la(T9, s_init);
        a.li(S0, 0);
        a.label("ks_copy_s");
        a.slli(T0, S0, 2);
        a.add(T1, T9, T0);
        a.lw(T2, 0, T1);
        a.add(T1, S7, T0);
        a.sw(T2, 0, T1);
        a.addi(S0, S0, 1);
        a.slti(T0, S0, 1024);
        a.bnez(T0, "ks_copy_s");
        // P[i] ^= key_words[i & 3]
        a.la(T9, key_addr);
        a.li(S0, 0);
        a.label("ks_key");
        a.andi(T1, S0, 3);
        a.slli(T1, T1, 2);
        a.add(T1, T9, T1);
        a.lw(T2, 0, T1); // key word
        a.slli(T0, S0, 2);
        a.add(T0, S6, T0);
        a.lw(T3, 0, T0);
        a.xor(T3, T3, T2);
        a.sw(T3, 0, T0);
        a.addi(S0, S0, 1);
        a.slti(T0, S0, 18);
        a.bnez(T0, "ks_key");
        // chain through P
        a.li(S2, 0); // l
        a.li(S3, 0); // r
        a.li(S4, 0); // i
        a.label("ks_chain_p");
        a.mv(A0, S2);
        a.mv(A1, S3);
        a.call("bf_encrypt");
        a.mv(S2, V0);
        a.mv(S3, V1);
        a.slli(T0, S4, 2);
        a.add(T0, S6, T0);
        a.sw(S2, 0, T0);
        a.sw(S3, 4, T0);
        a.addi(S4, S4, 2);
        a.slti(T0, S4, 18);
        a.bnez(T0, "ks_chain_p");
        // chain through the flat S array
        a.li(S4, 0);
        a.label("ks_chain_s");
        a.mv(A0, S2);
        a.mv(A1, S3);
        a.call("bf_encrypt");
        a.mv(S2, V0);
        a.mv(S3, V1);
        a.slli(T0, S4, 2);
        a.add(T0, S7, T0);
        a.sw(S2, 0, T0);
        a.sw(S3, 4, T0);
        a.addi(S4, S4, 2);
        a.slti(T0, S4, 1024);
        a.bnez(T0, "ks_chain_s");
        a.epilogue(&[], 0);
        a.endfunc();

        // ------------------------------------------------------------
        // bf_run: key schedule, encrypt 8 blocks, decrypt them back.
        // ------------------------------------------------------------
        let blocks = (TEXT_LEN / 8) as i32;
        a.func("bf_run", true);
        a.prologue(&[], 0);
        a.la(S6, p_work);
        a.la(S7, s_work);
        a.call("bf_keyschedule");
        // encrypt input -> cipher
        a.la(S0, input_addr);
        a.la(S1, cipher);
        a.li(S4, 0);
        a.label("run_enc");
        a.slli(T0, S4, 3);
        a.add(T1, S0, T0);
        a.lw(A0, 0, T1);
        a.lw(A1, 4, T1);
        a.call("bf_encrypt");
        a.slli(T0, S4, 3);
        a.add(T1, S1, T0);
        a.sw(V0, 0, T1);
        a.sw(V1, 4, T1);
        a.addi(S4, S4, 1);
        a.slti(T0, S4, blocks);
        a.bnez(T0, "run_enc");
        // decrypt cipher -> out
        a.la(S0, cipher);
        a.la(S1, out_addr);
        a.li(S4, 0);
        a.label("run_dec");
        a.slli(T0, S4, 3);
        a.add(T1, S0, T0);
        a.lw(A0, 0, T1);
        a.lw(A1, 4, T1);
        a.call("bf_decrypt");
        a.slli(T0, S4, 3);
        a.add(T1, S1, T0);
        a.sw(V0, 0, T1);
        a.sw(V1, 4, T1);
        a.addi(S4, S4, 1);
        a.slti(T0, S4, blocks);
        a.bnez(T0, "run_dec");
        a.epilogue(&[], 0);
        a.endfunc();

        // ------------------------------------------------------------
        // main (not eligible)
        // ------------------------------------------------------------
        a.func("main", false);
        a.call("bf_run");
        a.la(T0, out_len_addr);
        a.li(T1, TEXT_LEN as i32);
        a.sw(T1, 0, T0);
        a.halt();
        a.endfunc();

        BlowfishWorkload {
            program: a.assemble().expect("blowfish guest must assemble"),
            plaintext: text.to_vec(),
            out_len_addr,
            out_addr,
        }
    }

    /// The plaintext baked into the guest.
    #[must_use]
    pub fn plaintext(&self) -> &[u8] {
        &self.plaintext
    }
}

impl Target for BlowfishWorkload {
    fn program(&self) -> &Program {
        &self.program
    }

    fn prepare(&self, _machine: &mut Machine<'_>) {}

    fn extract(&self, machine: &Machine<'_>) -> Option<Vec<u8>> {
        read_output(machine, self.out_len_addr, self.out_addr, TEXT_LEN as u32)
    }
}

impl Workload for BlowfishWorkload {
    fn name(&self) -> &'static str {
        "blowfish"
    }

    fn description(&self) -> &'static str {
        "Full Blowfish (16-round Feistel, in-guest key schedule) encrypt+decrypt round trip"
    }

    fn fidelity_measure(&self) -> &'static str {
        "% bytes of the round-tripped text matching the original plaintext"
    }

    fn evaluate(&self, golden: &[u8], trial: Option<&[u8]>) -> Fidelity {
        let Some(out) = trial else {
            return Fidelity {
                score: 0.0,
                acceptable: false,
                detail: FidelityDetail::ByteSimilarity { fraction: 0.0 },
            };
        };
        let fraction = byte_similarity(golden, out);
        Fidelity {
            score: fraction,
            acceptable: fraction >= SIMILARITY_THRESHOLD,
            detail: FidelityDetail::ByteSimilarity { fraction },
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use certa_core::analyze;
    use certa_fault::{run_campaign, CampaignConfig, Protection};
    use certa_sim::{MachineConfig, Outcome};

    #[test]
    fn pi_digits_start_correctly() {
        // π = 3.243F6A8885A308D3…
        let digits = pi_hex_digits(16);
        assert_eq!(
            digits,
            vec![0x2, 0x4, 0x3, 0xF, 0x6, 0xA, 0x8, 0x8, 0x8, 0x5, 0xA, 0x3, 0x0, 0x8, 0xD, 0x3]
        );
    }

    #[test]
    fn init_tables_are_the_hex_digits_of_pi() {
        let digits = pi_hex_digits(INIT_WORDS * 8);
        for (i, (word, hex)) in init_tables().iter().zip(digits.chunks_exact(8)).enumerate() {
            let expected = hex.iter().fold(0u32, |acc, &d| (acc << 4) | u32::from(d));
            assert_eq!(*word, expected, "table word {i}");
        }
    }

    #[test]
    fn p_array_matches_published_constants() {
        let t = init_tables();
        assert_eq!(t[0], 0x243F_6A88);
        assert_eq!(t[1], 0x85A3_08D3);
        assert_eq!(t[2], 0x1319_8A2E);
        assert_eq!(t[3], 0x0370_7344);
        assert_eq!(t[17], 0x8979_FB1B);
        // first S-box word (published blowfish S[0][0])
        assert_eq!(t[18], 0xD131_0BA6);
    }

    #[test]
    fn zero_key_test_vector() {
        let bf = BlowfishRef::new(&[0u8; 16]);
        assert_eq!(bf.encrypt_block(0, 0), (0x4EF9_9745, 0x6198_DD78));
    }

    #[test]
    fn reference_round_trip_recovers_plaintext() {
        let bf = BlowfishRef::new(b"CERTA-BLOWFISH16");
        let text = b"0123456789abcdef";
        assert_eq!(bf.round_trip(text), text.to_vec());
        // and encryption is not the identity
        let (cl, cr) = bf.encrypt_block(0x3231_3030, 0x3635_3433);
        assert_ne!((cl, cr), (0x3231_3030, 0x3635_3433));
    }

    #[test]
    fn decrypt_inverts_encrypt_on_many_blocks() {
        let bf = BlowfishRef::new(b"0123456789ABCDEF");
        let mut x = (1u32, 2u32);
        for _ in 0..50 {
            let c = bf.encrypt_block(x.0, x.1);
            assert_eq!(bf.decrypt_block(c.0, c.1), x);
            x = c;
        }
    }

    #[test]
    fn guest_round_trips_the_plaintext() {
        let w = BlowfishWorkload::new();
        let mut m = Machine::new(w.program(), &MachineConfig::default());
        let r = m.run_simple();
        assert_eq!(r.outcome, Outcome::Halted);
        let out = w.extract(&m).expect("output readable");
        assert_eq!(out, w.plaintext(), "decrypt(encrypt(x)) must equal x");
    }

    #[test]
    fn evaluate_thresholds() {
        let w = BlowfishWorkload::new();
        let golden = w.plaintext().to_vec();
        assert!(w.evaluate(&golden, Some(&golden)).acceptable);
        let mut corrupted = golden.clone();
        for b in corrupted.iter_mut().take(32) {
            *b ^= 0xff;
        }
        let f = w.evaluate(&golden, Some(&corrupted));
        assert!(!f.acceptable);
        assert!((f.score - 0.5).abs() < 1e-12);
        assert_eq!(w.evaluate(&golden, None).score, 0.0);
    }

    #[test]
    fn protected_campaign_is_stable() {
        let w = BlowfishWorkload::new();
        let tags = analyze(w.program());
        let r = run_campaign(
            &w,
            &tags,
            &CampaignConfig {
                trials: 8,
                errors: 2,
                protection: Protection::ControlOnly,
                threads: 4,
                ..CampaignConfig::default()
            },
        );
        assert_eq!(r.failure_rate(), 0.0);
    }
}
