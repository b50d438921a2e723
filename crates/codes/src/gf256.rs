//! Arithmetic over the finite field GF(2^8).
//!
//! TREAS (Section 2 of the paper, "Background on erasure coding") stores
//! values using an `[n, k]` linear MDS code over a finite field `F_q`.
//! This module provides the field `GF(2^8)` (so `q = 256`), which supports
//! codes with up to `n = 256` fragments — far more than any configuration
//! the paper considers.
//!
//! The field is realized as `GF(2)[x] / (x^8 + x^4 + x^3 + x^2 + 1)`, the
//! conventional `0x11d` primitive polynomial also used by RAID-6 and QR
//! codes. Addition is XOR; multiplication uses log/antilog tables generated
//! at compile time from the generator element `x` (i.e. `2`).
//!
//! # Examples
//!
//! ```
//! use ares_codes::gf256::{add, mul, inv};
//!
//! let a = 0x53;
//! let b = 0xca;
//! assert_eq!(mul(a, inv(a)), 1);        // multiplicative inverse
//! assert_eq!(add(a, a), 0);             // characteristic 2
//! assert_eq!(mul(a, b), mul(b, a));     // commutativity
//! ```

/// The primitive polynomial `x^8 + x^4 + x^3 + x^2 + 1` (bit pattern
/// `0b1_0001_1101`) used to construct the field.
pub const PRIMITIVE_POLY: u16 = 0x11d;

/// Number of elements in the field.
pub const FIELD_SIZE: usize = 256;

/// Order of the multiplicative group (`FIELD_SIZE - 1`).
pub const GROUP_ORDER: usize = 255;

const fn build_tables() -> ([u8; 512], [u8; 256]) {
    // exp[i] = g^i for the generator g = 2; duplicated to 512 entries so
    // that `exp[log a + log b]` never needs a modular reduction.
    let mut exp = [0u8; 512];
    let mut log = [0u8; 256];
    let mut x: u16 = 1;
    let mut i = 0;
    while i < GROUP_ORDER {
        exp[i] = x as u8;
        log[x as usize] = i as u8;
        x <<= 1;
        if x & 0x100 != 0 {
            x ^= PRIMITIVE_POLY;
        }
        i += 1;
    }
    // Extend so products of logs (max 254 + 254 = 508) index directly.
    let mut j = GROUP_ORDER;
    while j < 512 {
        exp[j] = exp[j - GROUP_ORDER];
        j += 1;
    }
    (exp, log)
}

const TABLES: ([u8; 512], [u8; 256]) = build_tables();

/// Antilog table: `EXP[i] = 2^i` in GF(256), duplicated over 512 entries.
pub static EXP: [u8; 512] = TABLES.0;

/// Log table: `LOG[a]` is the discrete log of `a != 0` base 2.
pub static LOG: [u8; 256] = TABLES.1;

const fn build_mul_table() -> [[u8; 256]; 256] {
    let (exp, log) = build_tables();
    let mut t = [[0u8; 256]; 256];
    let mut a = 1usize;
    while a < 256 {
        let la = log[a] as usize;
        let mut b = 1usize;
        while b < 256 {
            t[a][b] = exp[la + log[b] as usize];
            b += 1;
        }
        a += 1;
    }
    t
}

/// Full 256×256 product table: `MUL[a][b] = a·b` in GF(256). 64 KiB,
/// built at compile time. Row `MUL[c]` turns the Reed-Solomon inner loop
/// into a single branch-free lookup per byte — the seed's log/antilog
/// kernel (kept as the test oracle `mul_add_slice_ref`) pays a zero-test
/// plus two dependent table reads per byte instead, which dominated
/// encode time on megabyte values.
pub static MUL: [[u8; 256]; 256] = build_mul_table();

const fn build_nibble_tables() -> ([[u8; 16]; 256], [[u8; 16]; 256]) {
    let mul = build_mul_table();
    let mut lo = [[0u8; 16]; 256];
    let mut hi = [[0u8; 16]; 256];
    let mut c = 0usize;
    while c < 256 {
        let mut x = 0usize;
        while x < 16 {
            lo[c][x] = mul[c][x];
            hi[c][x] = mul[c][x << 4];
            x += 1;
        }
        c += 1;
    }
    (lo, hi)
}

const NIBBLE_TABLES: ([[u8; 16]; 256], [[u8; 16]; 256]) = build_nibble_tables();

/// Low-nibble product tables: `NIB_LO[c][x] = c·x` for `x < 16`.
/// With [`NIB_HI`] these drive the PSHUFB (byte-shuffle) SIMD kernel:
/// `c·s = NIB_LO[c][s & 15] ^ NIB_HI[c][s >> 4]` — in GF(2^8) a product
/// splits linearly over the nibbles of one operand, so two 16-entry
/// shuffles and a XOR multiply 16 (SSSE3) or 32 (AVX2) bytes at once.
pub static NIB_LO: [[u8; 16]; 256] = NIBBLE_TABLES.0;

/// High-nibble product tables: `NIB_HI[c][x] = c·(x << 4)` for `x < 16`.
pub static NIB_HI: [[u8; 16]; 256] = NIBBLE_TABLES.1;

#[cfg(target_arch = "x86_64")]
mod simd {
    //! PSHUFB GF(256) multiply-accumulate, the standard erasure-coding
    //! kernel (ISA-L and friends): per 128-bit lane, shuffle the two
    //! 16-entry nibble tables by the source's nibbles and XOR.

    /// `dst[j] ^= c·src[j]` over 16-byte SSSE3 lanes.
    ///
    /// # Safety
    ///
    /// The caller must have verified SSSE3 support (e.g. via
    /// `is_x86_feature_detected!("ssse3")`) before calling. All memory
    /// access is through unaligned loads/stores within `dst`/`src`
    /// bounds (`i + 16 <= n <= len`), so any equal-length slices are
    /// otherwise fine; `debug_assert` guards the length contract.
    #[target_feature(enable = "ssse3")]
    pub unsafe fn mul_add_ssse3(dst: &mut [u8], src: &[u8], lo: &[u8; 16], hi: &[u8; 16]) {
        use core::arch::x86_64::*;
        debug_assert_eq!(dst.len(), src.len());
        let lo_t = _mm_loadu_si128(lo.as_ptr().cast());
        let hi_t = _mm_loadu_si128(hi.as_ptr().cast());
        let mask = _mm_set1_epi8(0x0f);
        let n = dst.len() / 16 * 16;
        let mut i = 0;
        while i < n {
            let s = _mm_loadu_si128(src.as_ptr().add(i).cast());
            let d = _mm_loadu_si128(dst.as_ptr().add(i).cast());
            let s_lo = _mm_and_si128(s, mask);
            let s_hi = _mm_and_si128(_mm_srli_epi64::<4>(s), mask);
            let prod = _mm_xor_si128(_mm_shuffle_epi8(lo_t, s_lo), _mm_shuffle_epi8(hi_t, s_hi));
            _mm_storeu_si128(dst.as_mut_ptr().add(i).cast(), _mm_xor_si128(d, prod));
            i += 16;
        }
        tail(&mut dst[n..], &src[n..], lo, hi);
    }

    /// `dst[j] ^= c·src[j]` over 32-byte AVX2 lanes.
    ///
    /// # Safety
    ///
    /// The caller must have verified AVX2 support (e.g. via
    /// `is_x86_feature_detected!("avx2")`) before calling. All memory
    /// access is through unaligned loads/stores within `dst`/`src`
    /// bounds (`i + 32 <= n <= len`), so any equal-length slices are
    /// otherwise fine; `debug_assert` guards the length contract.
    #[target_feature(enable = "avx2")]
    pub unsafe fn mul_add_avx2(dst: &mut [u8], src: &[u8], lo: &[u8; 16], hi: &[u8; 16]) {
        use core::arch::x86_64::*;
        debug_assert_eq!(dst.len(), src.len());
        // VPSHUFB shuffles within each 128-bit lane, so broadcast the
        // 16-entry tables into both lanes.
        let lo_t = _mm256_broadcastsi128_si256(_mm_loadu_si128(lo.as_ptr().cast()));
        let hi_t = _mm256_broadcastsi128_si256(_mm_loadu_si128(hi.as_ptr().cast()));
        let mask = _mm256_set1_epi8(0x0f);
        let n = dst.len() / 32 * 32;
        let mut i = 0;
        while i < n {
            let s = _mm256_loadu_si256(src.as_ptr().add(i).cast());
            let d = _mm256_loadu_si256(dst.as_ptr().add(i).cast());
            let s_lo = _mm256_and_si256(s, mask);
            let s_hi = _mm256_and_si256(_mm256_srli_epi64::<4>(s), mask);
            let prod =
                _mm256_xor_si256(_mm256_shuffle_epi8(lo_t, s_lo), _mm256_shuffle_epi8(hi_t, s_hi));
            _mm256_storeu_si256(dst.as_mut_ptr().add(i).cast(), _mm256_xor_si256(d, prod));
            i += 32;
        }
        tail(&mut dst[n..], &src[n..], lo, hi);
    }

    fn tail(dst: &mut [u8], src: &[u8], lo: &[u8; 16], hi: &[u8; 16]) {
        for (d, s) in dst.iter_mut().zip(src) {
            *d ^= lo[(*s & 0x0f) as usize] ^ hi[(*s >> 4) as usize];
        }
    }
}

/// Adds two field elements (XOR).
#[inline(always)]
pub const fn add(a: u8, b: u8) -> u8 {
    a ^ b
}

/// Subtracts two field elements. In characteristic 2 this equals [`add`].
#[inline(always)]
pub const fn sub(a: u8, b: u8) -> u8 {
    a ^ b
}

/// Multiplies two field elements via the log/antilog tables.
#[inline(always)]
pub fn mul(a: u8, b: u8) -> u8 {
    if a == 0 || b == 0 {
        0
    } else {
        EXP[LOG[a as usize] as usize + LOG[b as usize] as usize]
    }
}

/// Returns the multiplicative inverse of `a`.
///
/// # Panics
///
/// Panics if `a == 0`; zero has no inverse.
#[inline]
pub fn inv(a: u8) -> u8 {
    assert!(a != 0, "attempted to invert 0 in GF(256)");
    EXP[GROUP_ORDER - LOG[a as usize] as usize]
}

/// Raises `a` to the integer power `e`.
pub fn pow(a: u8, e: usize) -> u8 {
    if e == 0 {
        return 1;
    }
    if a == 0 {
        return 0;
    }
    let l = (LOG[a as usize] as usize * e) % GROUP_ORDER;
    EXP[l]
}

/// Computes `dst[i] ^= c * src[i]` for all `i` — the inner kernel of
/// Reed-Solomon encoding (a GF(256) "axpy").
///
/// # Panics
///
/// Panics if the slices have different lengths.
pub fn mul_add_slice(dst: &mut [u8], src: &[u8], c: u8) {
    assert_eq!(dst.len(), src.len(), "mul_add_slice length mismatch");
    if c == 0 {
        return;
    }
    if c == 1 {
        for (d, s) in dst.iter_mut().zip(src) {
            *d ^= *s;
        }
        return;
    }
    #[cfg(target_arch = "x86_64")]
    {
        let (lo, hi) = (&NIB_LO[c as usize], &NIB_HI[c as usize]);
        if std::arch::is_x86_feature_detected!("avx2") {
            // SAFETY: feature checked at runtime; the kernel handles any
            // slice length (vector body + scalar tail).
            unsafe { simd::mul_add_avx2(dst, src, lo, hi) };
            return;
        }
        if std::arch::is_x86_feature_detected!("ssse3") {
            // SAFETY: as above.
            unsafe { simd::mul_add_ssse3(dst, src, lo, hi) };
            return;
        }
    }
    let tbl = &MUL[c as usize];
    for (d, s) in dst.iter_mut().zip(src) {
        *d ^= tbl[*s as usize];
    }
}

/// The seed's log/antilog implementation of [`mul_add_slice`], retained
/// as a differential-testing oracle. Semantically identical to
/// [`mul_add_slice`]; roughly 2–3× slower on large slices (per-byte
/// zero test plus two dependent lookups).
///
/// # Panics
///
/// Panics if the slices have different lengths.
#[cfg(test)]
pub(crate) fn mul_add_slice_ref(dst: &mut [u8], src: &[u8], c: u8) {
    assert_eq!(dst.len(), src.len(), "mul_add_slice length mismatch");
    if c == 0 {
        return;
    }
    if c == 1 {
        for (d, s) in dst.iter_mut().zip(src) {
            *d ^= *s;
        }
        return;
    }
    let lc = LOG[c as usize] as usize;
    for (d, s) in dst.iter_mut().zip(src) {
        if *s != 0 {
            *d ^= EXP[lc + LOG[*s as usize] as usize];
        }
    }
}

/// Computes `dst[i] = c * dst[i]` in place.
pub fn scale_slice(dst: &mut [u8], c: u8) {
    if c == 1 {
        return;
    }
    if c == 0 {
        dst.fill(0);
        return;
    }
    let lc = LOG[c as usize] as usize;
    for d in dst.iter_mut() {
        if *d != 0 {
            *d = EXP[lc + LOG[*d as usize] as usize];
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tables_are_consistent() {
        for a in 1..=255u8 {
            assert_eq!(EXP[LOG[a as usize] as usize], a);
        }
        for i in 0..GROUP_ORDER {
            assert_eq!(LOG[EXP[i] as usize] as usize, i);
        }
    }

    #[test]
    fn exp_table_duplication() {
        for i in 0..GROUP_ORDER {
            assert_eq!(EXP[i], EXP[i + GROUP_ORDER]);
        }
    }

    #[test]
    fn additive_identity_and_inverse() {
        for a in 0..=255u8 {
            assert_eq!(add(a, 0), a);
            assert_eq!(add(a, a), 0);
        }
    }

    #[test]
    fn multiplicative_identity() {
        for a in 0..=255u8 {
            assert_eq!(mul(a, 1), a);
            assert_eq!(mul(1, a), a);
            assert_eq!(mul(a, 0), 0);
        }
    }

    #[test]
    fn inverses_round_trip() {
        for a in 1..=255u8 {
            assert_eq!(mul(a, inv(a)), 1);
        }
    }

    #[test]
    fn multiplication_is_commutative_and_associative() {
        // Spot-check associativity on a coarse grid (full 256^3 is slow in
        // debug builds); commutativity is checked exhaustively.
        for a in 0..=255u8 {
            for b in 0..=255u8 {
                assert_eq!(mul(a, b), mul(b, a));
            }
        }
        for a in (0..=255u8).step_by(7) {
            for b in (0..=255u8).step_by(11) {
                for c in (0..=255u8).step_by(13) {
                    assert_eq!(mul(mul(a, b), c), mul(a, mul(b, c)));
                }
            }
        }
    }

    #[test]
    fn distributivity() {
        for a in (0..=255u8).step_by(5) {
            for b in (0..=255u8).step_by(9) {
                for c in (0..=255u8).step_by(17) {
                    assert_eq!(mul(a, add(b, c)), add(mul(a, b), mul(a, c)));
                }
            }
        }
    }

    #[test]
    fn pow_matches_repeated_mul() {
        for a in [0u8, 1, 2, 3, 87, 255] {
            let mut acc = 1u8;
            for e in 0..20 {
                assert_eq!(pow(a, e), acc, "a={a} e={e}");
                acc = mul(acc, a);
            }
        }
        assert_eq!(pow(0, 0), 1, "0^0 = 1 by convention");
    }

    #[test]
    fn mul_table_matches_log_exp_mul() {
        for a in 0..=255u8 {
            for b in 0..=255u8 {
                assert_eq!(MUL[a as usize][b as usize], mul(a, b), "a={a} b={b}");
            }
        }
    }

    #[test]
    fn mul_add_slice_matches_scalar_loop() {
        let src: Vec<u8> = (0..=255).collect();
        for c in [0u8, 1, 2, 0x1d, 255] {
            let mut dst: Vec<u8> = (0..=255).rev().collect();
            let mut expect = dst.clone();
            for (e, s) in expect.iter_mut().zip(&src) {
                *e ^= mul(c, *s);
            }
            mul_add_slice(&mut dst, &src, c);
            assert_eq!(dst, expect, "c={c}");
        }
    }

    #[test]
    fn mul_add_slice_ref_is_a_faithful_oracle() {
        let src: Vec<u8> = (0..=255).collect();
        for c in [0u8, 1, 2, 0x1d, 0x53, 255] {
            let mut fast: Vec<u8> = (0..=255).rev().collect();
            let mut slow = fast.clone();
            mul_add_slice(&mut fast, &src, c);
            mul_add_slice_ref(&mut slow, &src, c);
            assert_eq!(fast, slow, "c={c}");
        }
    }

    #[test]
    fn nibble_tables_reconstruct_products() {
        for c in 0..=255usize {
            for s in 0..=255usize {
                let got = NIB_LO[c][s & 0x0f] ^ NIB_HI[c][s >> 4];
                assert_eq!(got, MUL[c][s], "c={c} s={s}");
            }
        }
    }

    #[test]
    fn simd_kernel_matches_reference_on_all_tail_lengths() {
        // Lengths straddling the 16/32-byte vector widths exercise both
        // the vector body and the scalar tail of the SIMD kernels.
        for len in [0usize, 1, 15, 16, 17, 31, 32, 33, 63, 64, 100, 1000] {
            let src: Vec<u8> = (0..len).map(|i| (i * 37 + 11) as u8).collect();
            for c in [0u8, 1, 2, 0x1d, 0x80, 255] {
                let mut fast: Vec<u8> = (0..len).map(|i| (i * 101 + 3) as u8).collect();
                let mut slow = fast.clone();
                mul_add_slice(&mut fast, &src, c);
                mul_add_slice_ref(&mut slow, &src, c);
                assert_eq!(fast, slow, "c={c} len={len}");
            }
        }
    }

    #[test]
    fn scale_slice_matches_scalar_loop() {
        let mut v: Vec<u8> = (0..=255).collect();
        let expect: Vec<u8> = v.iter().map(|&x| mul(x, 0x53)).collect();
        scale_slice(&mut v, 0x53);
        assert_eq!(v, expect);
    }

    #[test]
    #[should_panic(expected = "invert 0")]
    fn inv_zero_panics() {
        inv(0);
    }
}
