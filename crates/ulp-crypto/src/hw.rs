//! The hardware backend: AES-128 on AES-NI and GF(2^128) products on
//! PCLMULQDQ, for x86_64 hosts that have the instructions.
//!
//! This is the only module of the crate that may use `unsafe`. The
//! kernels are `#[target_feature]` functions, which are unsound to run
//! on a CPU without those features, so each is reached through an
//! [`Hw`] token that only [`Hw::detect`] constructs, after
//! `is_x86_feature_detected!` has seen all three features. Holding an
//! `Hw` is the proof; every `unsafe` call below names that check.
//!
//! Nothing here takes a raw pointer: blocks cross into `__m128i` as
//! little-endian `u128` halves, so the only unsafe operation is the
//! feature-gated call itself.
//!
//! GCM's GF(2^128) elements are bit-reflected: [`crate::gf128::Gf128`]
//! holds the block as a big-endian `u128` whose bit 127 is the
//! coefficient of x^0. The carry-less product of two reflected operands
//! is the 255-bit product reflected, one bit short of 256, so
//! [`Hw::gf_mul`] shifts it left by one and then reduces modulo
//! x^128 + x^7 + x^2 + x + 1 without reversing any bits.

#![deny(unsafe_op_in_unsafe_fn)]

use std::arch::x86_64::{
    __m128i, _mm_aesenc_si128, _mm_aesenclast_si128, _mm_clmulepi64_si128, _mm_cvtsi128_si64,
    _mm_extract_epi64, _mm_insert_epi32, _mm_set_epi64x, _mm_slli_si128, _mm_srli_si128,
    _mm_xor_si128,
};

/// AES-128 round keys, as the key schedule lays them out.
type RoundKeys = [[u8; 16]; 11];

/// CTR blocks the keystream kernel keeps in flight: AES-NI rounds
/// pipeline, so four independent blocks hide one block's latency.
const LANES: usize = 4;

/// Proof that the host has AES-NI, PCLMULQDQ and SSE4.1. Only
/// [`Hw::detect`] makes one, so every method may call the
/// `#[target_feature]` kernels.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) struct Hw(());

impl Hw {
    /// `Some` iff the CPU supports every instruction the kernels use.
    pub(crate) fn detect() -> Option<Hw> {
        let present = is_x86_feature_detected!("aes")
            && is_x86_feature_detected!("pclmulqdq")
            && is_x86_feature_detected!("sse4.1");
        present.then_some(Hw(()))
    }

    /// Encrypts one block with AES-NI.
    pub(crate) fn encrypt_block(self, round_keys: &RoundKeys, block: &[u8; 16]) -> [u8; 16] {
        // SAFETY: `self` exists only if `Hw::detect` saw aes, pclmulqdq and sse4.1.
        unsafe { encrypt_block(round_keys, block) }
    }

    /// XORs `data` with the CTR keystream whose first block encrypts
    /// `iv ‖ counter` (a 32-bit big-endian counter, GCM's `inc32`).
    pub(crate) fn ctr32_xor(
        self,
        round_keys: &RoundKeys,
        iv: &[u8; 12],
        counter: u32,
        data: &mut [u8],
    ) {
        // SAFETY: `self` exists only if `Hw::detect` saw aes, pclmulqdq and sse4.1.
        unsafe { ctr32_xor(round_keys, iv, counter, data) }
    }

    /// The GF(2^128) product of two reflected elements.
    pub(crate) fn gf_mul(self, a: u128, b: u128) -> u128 {
        // SAFETY: `self` exists only if `Hw::detect` saw aes, pclmulqdq and sse4.1.
        unsafe { gf_mul(a, b) }
    }

    /// Folds each 64-byte group of big-endian blocks `X_0..X_3` into
    /// `y` as `y ← (y + X_0)·p_0 + X_1·p_1 + X_2·p_2 + X_3·p_3`: the four
    /// carry-less products are summed unreduced and reduced once, which
    /// gives the bits of four reduced products XORed together because
    /// reduction is linear.
    pub(crate) fn fold_groups(self, y: u128, groups: &[[u8; 64]], p: &[u128; 4]) -> u128 {
        // SAFETY: `self` exists only if `Hw::detect` saw aes, pclmulqdq and sse4.1.
        unsafe { fold_groups(y, groups, p) }
    }
}

#[inline]
#[target_feature(enable = "sse4.1")]
fn to_m128(v: u128) -> __m128i {
    _mm_set_epi64x((v >> 64) as i64, v as i64)
}

#[inline]
#[target_feature(enable = "sse4.1")]
fn to_u128(x: __m128i) -> u128 {
    let hi = _mm_extract_epi64::<1>(x) as u64;
    let lo = _mm_cvtsi128_si64(x) as u64;
    (u128::from(hi) << 64) | u128::from(lo)
}

#[inline]
#[target_feature(enable = "sse4.1")]
fn load(block: &[u8; 16]) -> __m128i {
    to_m128(u128::from_le_bytes(*block))
}

#[inline]
#[target_feature(enable = "sse4.1")]
fn store(x: __m128i) -> [u8; 16] {
    to_u128(x).to_le_bytes()
}

#[inline]
#[target_feature(enable = "sse4.1")]
fn schedule(round_keys: &RoundKeys) -> [__m128i; 11] {
    round_keys.map(|rk| load(&rk))
}

#[inline]
#[target_feature(enable = "aes")]
fn cipher(keys: &[__m128i; 11], block: __m128i) -> __m128i {
    let mut s = _mm_xor_si128(block, keys[0]);
    for &k in &keys[1..10] {
        s = _mm_aesenc_si128(s, k);
    }
    _mm_aesenclast_si128(s, keys[10])
}

#[target_feature(enable = "aes,pclmulqdq,sse4.1")]
fn encrypt_block(round_keys: &RoundKeys, block: &[u8; 16]) -> [u8; 16] {
    store(cipher(&schedule(round_keys), load(block)))
}

/// `iv ‖ counter` with the counter big-endian in bytes 12..16, which
/// are lane 3 of the little-endian vector.
#[inline]
#[target_feature(enable = "sse4.1")]
fn counter_block(base: __m128i, counter: u32) -> __m128i {
    _mm_insert_epi32::<3>(base, counter.swap_bytes() as i32)
}

#[target_feature(enable = "aes,pclmulqdq,sse4.1")]
fn ctr32_xor(round_keys: &RoundKeys, iv: &[u8; 12], mut counter: u32, data: &mut [u8]) {
    let keys = schedule(round_keys);
    let mut j0 = [0u8; 16];
    j0[..12].copy_from_slice(iv);
    let base = load(&j0);
    let (groups, rest) = data.as_chunks_mut::<{ 16 * LANES }>();
    for group in groups {
        let mut s: [__m128i; LANES] = std::array::from_fn(|k| {
            _mm_xor_si128(counter_block(base, counter.wrapping_add(k as u32)), keys[0])
        });
        for &k in &keys[1..10] {
            for lane in &mut s {
                *lane = _mm_aesenc_si128(*lane, k);
            }
        }
        let (blocks, _) = group.as_chunks_mut::<16>();
        for (block, lane) in blocks.iter_mut().zip(s) {
            let ks = to_u128(_mm_aesenclast_si128(lane, keys[10]));
            *block = (u128::from_le_bytes(*block) ^ ks).to_le_bytes();
        }
        counter = counter.wrapping_add(LANES as u32);
    }
    for chunk in rest.chunks_mut(16) {
        let ks = store(cipher(&keys, counter_block(base, counter)));
        for (b, k) in chunk.iter_mut().zip(ks) {
            *b ^= k;
        }
        counter = counter.wrapping_add(1);
    }
}

#[target_feature(enable = "aes,pclmulqdq,sse4.1")]
fn gf_mul(a: u128, b: u128) -> u128 {
    let (lo, mid, hi) = clmul(to_m128(a), to_m128(b));
    reduce_words(lo, mid, hi)
}

/// The low, middle and high words of the carry-less product `a·b`:
/// `lo + mid·x^64 + hi·x^128`, with `mid` straddling the other two.
#[inline]
#[target_feature(enable = "pclmulqdq,sse4.1")]
fn clmul(a: __m128i, b: __m128i) -> (__m128i, __m128i, __m128i) {
    let mid = _mm_xor_si128(
        _mm_clmulepi64_si128::<0x01>(a, b),
        _mm_clmulepi64_si128::<0x10>(a, b),
    );
    (
        _mm_clmulepi64_si128::<0x00>(a, b),
        mid,
        _mm_clmulepi64_si128::<0x11>(a, b),
    )
}

/// Splits the middle word of a carry-less product between its low and
/// high halves and reduces the result.
#[inline]
#[target_feature(enable = "sse4.1")]
fn reduce_words(lo: __m128i, mid: __m128i, hi: __m128i) -> u128 {
    let lo = _mm_xor_si128(lo, _mm_slli_si128::<8>(mid));
    let hi = _mm_xor_si128(hi, _mm_srli_si128::<8>(mid));
    reduce(to_u128(hi), to_u128(lo))
}

/// Each product's low, middle and high words accumulate into the
/// group's, which is reduced once.
#[target_feature(enable = "aes,pclmulqdq,sse4.1")]
fn fold_groups(mut y: u128, groups: &[[u8; 64]], p: &[u128; 4]) -> u128 {
    let p = p.map(|v| to_m128(v));
    for group in groups {
        let (blocks, _) = group.as_chunks::<16>();
        let (mut lo, mut mid, mut hi) = (to_m128(0), to_m128(0), to_m128(0));
        for (k, (block, &p)) in blocks.iter().zip(&p).enumerate() {
            let mut x = u128::from_be_bytes(*block);
            if k == 0 {
                x ^= y;
            }
            let (l, m, h) = clmul(to_m128(x), p);
            lo = _mm_xor_si128(lo, l);
            mid = _mm_xor_si128(mid, m);
            hi = _mm_xor_si128(hi, h);
        }
        y = reduce_words(lo, mid, hi);
    }
    y
}

/// Reduces the carry-less product `hi:lo` of two reflected operands.
///
/// Bit `m` of the 255-bit product is the coefficient of x^(254−m);
/// shifting left by one makes it x^(255−m), so the high half holds
/// x^0..x^127 and the low half x^128..x^255, both reflected. In that
/// order multiplying by x^k is a right shift by k, and x^128 ≡
/// x^7 + x^2 + x + 1. The first fold multiplies the low half by that
/// polynomial; its left shifts by 127, 126 and 121 are the terms that
/// land past x^127 again, and the second fold multiplies those by the
/// polynomial once more, which stays below x^128. Both folds multiply
/// by the same polynomial, so they run as one on the sum of the low
/// half and the spill.
#[inline]
fn reduce(hi: u128, lo: u128) -> u128 {
    let (hi, lo) = ((hi << 1) | (lo >> 127), lo << 1);
    let spill = (lo << 127) ^ (lo << 126) ^ (lo << 121);
    let x = lo ^ spill;
    hi ^ x ^ (x >> 1) ^ (x >> 2) ^ (x >> 7)
}
