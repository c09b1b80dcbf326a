//! Arithmetic in GF(2^128) with the GCM bit ordering.
//!
//! GCM interprets 16-byte blocks with the *most significant* bit of the
//! first byte as the coefficient of x^0 (the "reflected" convention). The
//! reduction polynomial is x^128 + x^7 + x^2 + x + 1, which in this
//! convention appears as the constant `0xE1` shifted into the top byte.
//!
//! [`Gf128`] is the element type used by GHASH and by the SmartDIMM TLS
//! DSA's precomputed table of powers of `H` (§V-A).
//!
//! Products run on PCLMULQDQ when the host has it (the hardware
//! [`crate::Backend`]) and on Shoup tables otherwise; a
//! [`GfMulTable`] fixes its backend when it is built, and `*` checks the
//! host per product. [`Gf128::mul_bitwise`] is the oracle for both.

use crate::Kernels;
use std::ops::{Add, Mul};

/// Multiplies by `x` (one bit of polynomial degree): shift right in the
/// reflected representation, folding the dropped degree-127 term back in
/// with the reduction constant.
#[inline]
const fn mulx(v: u128) -> u128 {
    const R: u128 = 0xE1 << 120;
    let carry = v & 1;
    let shifted = v >> 1;
    if carry == 1 {
        shifted ^ R
    } else {
        shifted
    }
}

/// `R4[j]` is the reduction contribution of the low nibble `j` when a
/// field element is multiplied by `x^4`: `z·x^4 = (z >> 4) ^ R4[z & 0xF]`.
/// Derived at compile time from `mulx` so no transcribed constants can
/// drift from the reference reduction.
const R4: [u128; 16] = reduction_table::<16>(4);

/// `R8[j]` is the same for the low byte and `x^8`. Its set bits all lie
/// in the top 16, so only those are stored:
/// `z·x^8 = (z >> 8) ^ (R8[z & 0xFF] << 112)`.
const R8: [u16; 256] = {
    let wide = reduction_table::<256>(8);
    let mut table = [0u16; 256];
    let mut j = 0;
    while j < 256 {
        table[j] = (wide[j] >> 112) as u16;
        j += 1;
    }
    table
};

/// `table[j]` = `j · x^bits` for every `j < N`, by repeated `mulx`.
const fn reduction_table<const N: usize>(bits: u32) -> [u128; N] {
    let mut table = [0u128; N];
    let mut j = 0;
    while j < N {
        let mut v = j as u128;
        let mut k = 0;
        while k < bits {
            v = mulx(v);
            k += 1;
        }
        table[j] = v;
        j += 1;
    }
    table
}

/// An element of GF(2^128) in GCM bit order.
///
/// # Example
///
/// ```
/// use ulp_crypto::gf128::Gf128;
/// let h = Gf128::from_bytes(&[0x80; 16]);
/// let one = Gf128::ONE;
/// assert_eq!(h * one, h);          // multiplicative identity
/// assert_eq!(h + h, Gf128::ZERO);  // characteristic 2
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub struct Gf128(u128);

impl Gf128 {
    /// The additive identity.
    pub const ZERO: Gf128 = Gf128(0);
    /// The multiplicative identity: x^0, i.e. the MSB of the first byte.
    pub const ONE: Gf128 = Gf128(1 << 127);

    /// Interprets 16 big-endian bytes as a field element.
    pub fn from_bytes(b: &[u8; 16]) -> Gf128 {
        Gf128(u128::from_be_bytes(*b))
    }

    /// Serializes the element back to 16 big-endian bytes.
    pub fn to_bytes(self) -> [u8; 16] {
        self.0.to_be_bytes()
    }

    /// Computes `self^n` by square-and-multiply (n ≥ 0; `x^0 == ONE`).
    pub fn pow(self, n: u64) -> Gf128 {
        Kernels::detect().pow(self, n)
    }

    /// Reference multiplication: the bit-at-a-time algorithm of NIST SP
    /// 800-38D §6.3, one conditional XOR per bit of `rhs`.
    ///
    /// This is the oracle both backends of [`GfMulTable`] and `*` are
    /// validated against, and the "before" side of the `bench_hotpaths`
    /// GHASH measurement. Hot paths should use `*` or a per-key
    /// [`GfMulTable`] instead.
    pub fn mul_bitwise(self, rhs: Gf128) -> Gf128 {
        const R: u128 = 0xE1 << 120;
        let mut z: u128 = 0;
        let mut v = self.0;
        let y = rhs.0;
        for i in 0..128 {
            if (y >> (127 - i)) & 1 == 1 {
                z ^= v;
            }
            let lsb = v & 1;
            v >>= 1;
            if lsb == 1 {
                v ^= R;
            }
        }
        Gf128(z)
    }
}

/// Multiplication by a fixed element `H`, the GHASH hash subkey.
///
/// On the hardware backend the table holds `H` and its first four
/// powers (three products at key setup): each product by `H` is one
/// PCLMULQDQ multiply and reduction, and a four-block GHASH step is four
/// multiplies by `H^4..H^1` summed and reduced once. On the portable backend
/// ([`GfMulTable::new_portable`]) it is a Shoup-style 8-bit table:
/// GHASH multiplies everything by the same hash subkey, so the table is
/// built **once per key** (256 entries, 4 KB: every 8-bit polynomial
/// times `H`) and each subsequent product costs 16 byte steps instead of
/// the 128 conditional-XOR iterations of [`Gf128::mul_bitwise`] — the
/// §V-A observation that the multiplier, not the data, is the loop
/// invariant. Building it costs about as much as ten products, so
/// portable products of two varying elements (`*`) use a 16-entry 4-bit
/// table built per call instead.
///
/// # Example
///
/// ```
/// use ulp_crypto::gf128::{Gf128, GfMulTable};
/// let h = Gf128::from_bytes(&[0x35; 16]);
/// let x = Gf128::from_bytes(&[0x77; 16]);
/// let table = GfMulTable::new(h);
/// assert_eq!(table.mul(x), x.mul_bitwise(h));
/// assert_eq!(GfMulTable::new_portable(h).mul(x), x.mul_bitwise(h));
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct GfMulTable {
    kernel: TableKernel,
}

#[derive(Debug, Clone, PartialEq, Eq)]
enum TableKernel {
    /// `m[i]` = (the degree-≤7 polynomial spelled by byte `i`) · H,
    /// where bit `j` of `i` carries the coefficient of `x^(7-j)`.
    Shoup(Box<[u128; 256]>),
    /// `[H^4, H^3, H^2, H]`, the weights of four consecutive blocks
    /// one Horner step from the end, multiplied in on PCLMULQDQ.
    #[cfg(target_arch = "x86_64")]
    Clmul(crate::hw::Hw, [u128; 4]),
}

impl GfMulTable {
    /// Sets up multiplication by `h` on the hardware backend if this
    /// host has PCLMULQDQ, else builds the portable 256-entry table.
    pub fn new(h: Gf128) -> GfMulTable {
        GfMulTable::with_kernels(h, Kernels::detect())
    }

    /// Builds the portable 256-entry table for multiplication by `h`,
    /// whatever the host supports.
    pub fn new_portable(h: Gf128) -> GfMulTable {
        GfMulTable::with_kernels(h, Kernels::Portable)
    }

    pub(crate) fn with_kernels(h: Gf128, kernels: Kernels) -> GfMulTable {
        let kernel = match kernels {
            Kernels::Portable => TableKernel::Shoup(shoup_table(h)),
            #[cfg(target_arch = "x86_64")]
            Kernels::Hardware(hw) => {
                let h2 = hw.gf_mul(h.0, h.0);
                let h3 = hw.gf_mul(h2, h.0);
                TableKernel::Clmul(hw, [hw.gf_mul(h3, h.0), h3, h2, h.0])
            }
        };
        GfMulTable { kernel }
    }

    /// Computes `x · H`.
    #[inline]
    pub fn mul(&self, x: Gf128) -> Gf128 {
        match &self.kernel {
            TableKernel::Shoup(m) => shoup_mul(m, x),
            #[cfg(target_arch = "x86_64")]
            TableKernel::Clmul(hw, hn) => Gf128(hw.gf_mul(x.0, hn[3])),
        }
    }

    /// `[H, H^2, H^3, H^4]`: read from the hardware table, multiplied
    /// out on the portable one.
    pub(crate) fn powers(&self) -> [Gf128; 4] {
        match &self.kernel {
            TableKernel::Shoup(m) => {
                let h = Gf128(m[0x80]);
                let h2 = shoup_mul(m, h);
                let h3 = shoup_mul(m, h2);
                [h, h2, h3, shoup_mul(m, h3)]
            }
            #[cfg(target_arch = "x86_64")]
            TableKernel::Clmul(_, [h4, h3, h2, h]) => [*h, *h2, *h3, *h4].map(Gf128),
        }
    }

    /// Four GHASH steps `y ← (y + X_k)·H` per 64-byte group of blocks
    /// `X_0..X_3`, which is `(y + X_0)·H^4 + X_1·H^3 + X_2·H^2 + X_3·H`:
    /// four products and one reduction on the hardware backend, four
    /// table multiplies on the portable one.
    pub(crate) fn fold_groups(&self, y: Gf128, groups: &[[u8; 64]]) -> Gf128 {
        match &self.kernel {
            TableKernel::Shoup(m) => groups.iter().fold(y, |y, group| {
                let (blocks, _) = group.as_chunks::<16>();
                blocks
                    .iter()
                    .fold(y, |y, x| shoup_mul(m, y + Gf128::from_bytes(x)))
            }),
            #[cfg(target_arch = "x86_64")]
            TableKernel::Clmul(hw, hn) => Gf128(hw.fold_groups(y.0, groups, hn)),
        }
    }

    /// The Horner fold `X_0·H^3 + X_1·H^2 + X_2·H + X_3` of a line's four
    /// blocks, with no multiply after the last: one reduction on the
    /// hardware backend (`X_3` rides along times `ONE`), three table
    /// multiplies on the portable one.
    #[inline]
    pub(crate) fn fold_line(&self, line: &[u8; 64]) -> Gf128 {
        match &self.kernel {
            TableKernel::Shoup(m) => {
                let (blocks, _) = line.as_chunks::<16>();
                blocks[1..]
                    .iter()
                    .fold(Gf128::from_bytes(&blocks[0]), |acc, x| {
                        shoup_mul(m, acc) + Gf128::from_bytes(x)
                    })
            }
            #[cfg(target_arch = "x86_64")]
            TableKernel::Clmul(hw, [_, h3, h2, h]) => {
                Gf128(hw.fold_groups(0, std::slice::from_ref(line), &[*h3, *h2, *h, Gf128::ONE.0]))
            }
        }
    }
}

/// The 8-bit Shoup table of `h`: single-bit entries by repeated ·x,
/// composites by linearity.
fn shoup_table(h: Gf128) -> Box<[u128; 256]> {
    let mut m = Box::new([0u128; 256]);
    let mut v = h.0;
    for bit in [0x80usize, 0x40, 0x20, 0x10, 8, 4, 2, 1] {
        m[bit] = v;
        v = mulx(v);
    }
    for top in [2usize, 4, 8, 16, 32, 64, 128] {
        for low in 1..top {
            m[top | low] = m[top] ^ m[low];
        }
    }
    m
}

#[inline]
fn shoup_mul(m: &[u128; 256], x: Gf128) -> Gf128 {
    // Horner over the 16 bytes of x, least-significant (highest
    // polynomial degree) first: z ← z·x^8 + byte·H.
    let x = x.0;
    let mut z = m[(x & 0xFF) as usize];
    for n in 1..16 {
        z = (z >> 8)
            ^ ((R8[(z & 0xFF) as usize] as u128) << 112)
            ^ m[((x >> (8 * n)) & 0xFF) as usize];
    }
    Gf128(z)
}

impl Kernels {
    /// `a · b` for two varying elements.
    #[inline]
    pub(crate) fn mul(self, a: Gf128, b: Gf128) -> Gf128 {
        match self {
            Kernels::Portable => NibbleTable::new(a).mul(b),
            #[cfg(target_arch = "x86_64")]
            Kernels::Hardware(hw) => Gf128(hw.gf_mul(a.0, b.0)),
        }
    }

    /// Fills `out` back to front with `start·r^k`, `k = 0, 1, …`: the
    /// stride table of [`crate::gcm::OooGcm`]'s line weights (`r = H^4`).
    /// The portable backend multiplies on `r`'s 8-bit table; the
    /// hardware one multiplies by `r` alone and computes none of its
    /// powers.
    pub(crate) fn fill_powers(self, start: Gf128, r: Gf128, out: &mut [Gf128]) {
        let table = (self == Kernels::Portable).then(|| shoup_table(r));
        let mut power = start;
        for (k, slot) in out.iter_mut().rev().enumerate() {
            if k > 0 {
                power = match &table {
                    Some(m) => shoup_mul(m, power),
                    None => self.mul(power, r),
                };
            }
            *slot = power;
        }
    }

    /// `x^n` by square-and-multiply (`x^0 == ONE`).
    pub(crate) fn pow(self, x: Gf128, mut n: u64) -> Gf128 {
        let mut result = Gf128::ONE;
        let mut base = x;
        while n > 0 {
            if n & 1 == 1 {
                result = self.mul(result, base);
            }
            n >>= 1;
            if n > 0 {
                base = self.mul(base, base);
            }
        }
        result
    }
}

/// The 4-bit form of [`GfMulTable`] (16 entries, three `mulx` and eleven
/// XORs to build), for products where neither operand repeats.
#[derive(Debug, Clone, Copy)]
struct NibbleTable {
    /// `m[i]` = (the degree-≤3 polynomial spelled by nibble `i`) · H,
    /// where bit `j` of `i` carries the coefficient of `x^(3-j)`.
    m: [u128; 16],
}

impl NibbleTable {
    fn new(h: Gf128) -> NibbleTable {
        let mut m = [0u128; 16];
        m[8] = h.0; // x^0 · H
        m[4] = mulx(m[8]); // x^1 · H
        m[2] = mulx(m[4]); // x^2 · H
        m[1] = mulx(m[2]); // x^3 · H
        for top in [2usize, 4, 8] {
            for low in 1..top {
                m[top | low] = m[top] ^ m[low];
            }
        }
        NibbleTable { m }
    }

    #[inline]
    fn mul(&self, x: Gf128) -> Gf128 {
        // Two independent byte-step Horner chains, one over the low and
        // one over the high nibble of each byte of x (least-significant
        // byte first, as in `GfMulTable::mul`); the low chain's nibbles
        // sit one x^4 further out.
        let x = x.0;
        let mut lo = self.m[(x & 0xF) as usize];
        let mut hi = self.m[((x >> 4) & 0xF) as usize];
        for n in 1..16 {
            let byte = (x >> (8 * n)) as usize;
            lo = (lo >> 8) ^ ((R8[(lo & 0xFF) as usize] as u128) << 112) ^ self.m[byte & 0xF];
            hi =
                (hi >> 8) ^ ((R8[(hi & 0xFF) as usize] as u128) << 112) ^ self.m[(byte >> 4) & 0xF];
        }
        Gf128((lo >> 4) ^ R4[(lo & 0xF) as usize] ^ hi)
    }
}

impl Add for Gf128 {
    type Output = Gf128;
    /// Addition in GF(2^128) is XOR.
    #[inline]
    #[allow(clippy::suspicious_arithmetic_impl)]
    fn add(self, rhs: Gf128) -> Gf128 {
        Gf128(self.0 ^ rhs.0)
    }
}

impl Mul for Gf128 {
    type Output = Gf128;
    /// The product of two varying elements — the out-of-order GHASH
    /// multiplies each line by a *different* power of `H`, so no per-key
    /// table applies there. On a host with PCLMULQDQ it is one carry-less
    /// multiply and reduction; otherwise a 4-bit window table is built
    /// per call (cheap: 3 shifts + 11 XORs). Agrees bit-for-bit with
    /// [`Gf128::mul_bitwise`].
    fn mul(self, rhs: Gf128) -> Gf128 {
        Kernels::detect().mul(self, rhs)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    fn hex16(s: &str) -> [u8; 16] {
        let v: Vec<u8> = (0..32)
            .step_by(2)
            .map(|i| u8::from_str_radix(&s[i..i + 2], 16).unwrap())
            .collect();
        v.try_into().unwrap()
    }

    #[test]
    fn identity_and_zero() {
        let a = Gf128::from_bytes(&hex16("66e94bd4ef8a2c3b884cfa59ca342b2e"));
        assert_eq!(a * Gf128::ONE, a);
        assert_eq!(a * Gf128::ZERO, Gf128::ZERO);
        assert_eq!(a + Gf128::ZERO, a);
    }

    #[test]
    fn known_product_from_gcm_test_case_2() {
        // In GCM test case 2 (zero key, one zero plaintext block), the tag
        // computation includes GHASH steps we can replicate: with
        // H = 66e94bd4ef8a2c3b884cfa59ca342b2e and
        // C1 = 0388dace60b6a392f328c2b971b2fe78,
        // GHASH = (C1 · H + LenBlock) · H = f38cbb1ad69223dcc3457ae5b6b0f885.
        let h = Gf128::from_bytes(&hex16("66e94bd4ef8a2c3b884cfa59ca342b2e"));
        let c1 = Gf128::from_bytes(&hex16("0388dace60b6a392f328c2b971b2fe78"));
        let mut len_block = [0u8; 16];
        len_block[8..].copy_from_slice(&(128u64).to_be_bytes());
        let len = Gf128::from_bytes(&len_block);
        let ghash = (c1 * h + len) * h;
        assert_eq!(ghash.to_bytes(), hex16("f38cbb1ad69223dcc3457ae5b6b0f885"));
    }

    #[test]
    fn pow_matches_repeated_mul() {
        let h = Gf128::from_bytes(&hex16("acbef20579b4b8ebce889bac8732dad7"));
        let mut acc = Gf128::ONE;
        for n in 0..16u64 {
            assert_eq!(h.pow(n), acc, "H^{n}");
            acc = acc * h;
        }
    }

    #[test]
    fn roundtrip_bytes() {
        let b = hex16("0123456789abcdef0f1e2d3c4b5a6978");
        assert_eq!(Gf128::from_bytes(&b).to_bytes(), b);
    }

    #[test]
    fn table_identity_and_zero() {
        let h = Gf128::from_bytes(&hex16("66e94bd4ef8a2c3b884cfa59ca342b2e"));
        let table = GfMulTable::new(h);
        assert_eq!(table.mul(Gf128::ONE), h);
        assert_eq!(table.mul(Gf128::ZERO), Gf128::ZERO);
        assert_eq!(GfMulTable::new(Gf128::ONE).mul(h), h);
    }

    #[test]
    fn table_matches_bitwise_on_gcm_vectors() {
        let h = Gf128::from_bytes(&hex16("66e94bd4ef8a2c3b884cfa59ca342b2e"));
        let c1 = Gf128::from_bytes(&hex16("0388dace60b6a392f328c2b971b2fe78"));
        let table = GfMulTable::new(h);
        assert_eq!(table.mul(c1), c1.mul_bitwise(h));
        assert_eq!(table.mul(h), h.mul_bitwise(h));
    }

    /// Every multiplier agrees with the bitwise oracle on `a · b`: the
    /// detected backend (CLMUL where the host has it) through `*` and a
    /// per-key table, the portable 8-bit table and the portable 4-bit
    /// `*` kernel.
    fn assert_all_products_agree(a: Gf128, b: Gf128) {
        let want = a.mul_bitwise(b);
        assert_eq!(a * b, want, "{a:?} * {b:?}");
        assert_eq!(GfMulTable::new(b).mul(a), want);
        assert_eq!(GfMulTable::new_portable(b).mul(a), want);
        assert_eq!(Kernels::Portable.mul(a, b), want);
    }

    #[test]
    fn every_backend_matches_bitwise_on_edge_operands() {
        // Zero, x^0, all ones, the lone top coefficient x^127 (whose
        // square x^254 needs both reduction folds), the qword boundary
        // x^63 / x^64, and x^121..x^127, the terms the first fold spills.
        let edges = [
            Gf128::ZERO,
            Gf128::ONE,
            Gf128(u128::MAX),
            Gf128(1),
            Gf128(1 << 63),
            Gf128(1 << 64),
            Gf128(0x7F),
        ];
        for &a in &edges {
            for &b in &edges {
                assert_all_products_agree(a, b);
            }
        }
        let x127 = Gf128(1);
        assert_eq!(x127 * x127, x127.mul_bitwise(x127));
        assert_ne!(x127 * x127, Gf128::ZERO);
    }

    #[test]
    fn hardware_table_holds_h_and_its_first_four_powers() {
        let h = Gf128::from_bytes(&hex16("66e94bd4ef8a2c3b884cfa59ca342b2e"));
        let want = [1, 2, 3, 4].map(|n| h.pow(n));
        match GfMulTable::new(h).kernel {
            TableKernel::Shoup(_) => assert_eq!(Kernels::detect(), Kernels::Portable),
            #[cfg(target_arch = "x86_64")]
            TableKernel::Clmul(_, stored) => {
                assert_eq!(stored, [want[3], want[2], want[1], want[0]].map(|p| p.0))
            }
        }
        assert_eq!(GfMulTable::new(h).powers(), want);
        assert_eq!(GfMulTable::new_portable(h).powers(), want);
        assert!(matches!(
            GfMulTable::new_portable(h).kernel,
            TableKernel::Shoup(_)
        ));
    }

    /// Both backends' four-block steps agree with the per-block
    /// `mul_bitwise` chain: `fold_groups` with four steps `y ← (y + x)·H`,
    /// `fold_line` with the same chain from `x_0` that stops before the
    /// last multiply.
    fn assert_four_block_steps_agree(h: Gf128, y: Gf128, x: [Gf128; 4]) {
        let chain = x.into_iter().fold(y, |y, x| (y + x).mul_bitwise(h));
        let fold = x[1..].iter().fold(x[0], |acc, &x| acc.mul_bitwise(h) + x);
        let mut line = [0u8; 64];
        for (block, x) in line.chunks_mut(16).zip(x) {
            block.copy_from_slice(&x.to_bytes());
        }
        for table in [GfMulTable::new(h), GfMulTable::new_portable(h)] {
            let step = table.fold_groups(y, std::slice::from_ref(&line));
            assert_eq!(step, chain, "fold_groups {h:?} {y:?} {x:?}");
            assert_eq!(table.fold_line(&line), fold, "fold_line {h:?} {x:?}");
        }
    }

    #[test]
    fn four_block_steps_match_bitwise_on_edge_summands() {
        // Zero, x^0, all ones and the lone x^127: every summand alike
        // (under every H), then every mix of them under one H.
        let edges = [Gf128::ZERO, Gf128::ONE, Gf128(u128::MAX), Gf128(1)];
        let h = Gf128::from_bytes(&hex16("66e94bd4ef8a2c3b884cfa59ca342b2e"));
        for &e in &edges {
            for &key in edges.iter().chain([&h]) {
                assert_four_block_steps_agree(key, e, [e; 4]);
            }
        }
        for n in 0..4usize.pow(5) {
            let pick = |k: u32| edges[n / 4usize.pow(k) % 4];
            assert_four_block_steps_agree(h, pick(4), [pick(0), pick(1), pick(2), pick(3)]);
        }
    }

    proptest! {
        #[test]
        fn prop_every_backend_matches_bitwise(a: [u8; 16], b: [u8; 16]) {
            assert_all_products_agree(Gf128::from_bytes(&a), Gf128::from_bytes(&b));
        }

        #[test]
        fn prop_four_block_steps_match_bitwise(h: [u8; 16], y: [u8; 16], x: [[u8; 16]; 4]) {
            assert_four_block_steps_agree(
                Gf128::from_bytes(&h),
                Gf128::from_bytes(&y),
                x.map(|b| Gf128::from_bytes(&b)),
            );
        }

        #[test]
        fn prop_mul_commutative(a: [u8; 16], b: [u8; 16]) {
            let x = Gf128::from_bytes(&a);
            let y = Gf128::from_bytes(&b);
            prop_assert_eq!(x * y, y * x);
        }

        #[test]
        fn prop_mul_associative(a: [u8; 16], b: [u8; 16], c: [u8; 16]) {
            let x = Gf128::from_bytes(&a);
            let y = Gf128::from_bytes(&b);
            let z = Gf128::from_bytes(&c);
            prop_assert_eq!((x * y) * z, x * (y * z));
        }

        #[test]
        fn prop_mul_distributes_over_add(a: [u8; 16], b: [u8; 16], c: [u8; 16]) {
            let x = Gf128::from_bytes(&a);
            let y = Gf128::from_bytes(&b);
            let z = Gf128::from_bytes(&c);
            prop_assert_eq!(x * (y + z), x * y + x * z);
        }

        #[test]
        fn prop_add_self_inverse(a: [u8; 16]) {
            let x = Gf128::from_bytes(&a);
            prop_assert_eq!(x + x, Gf128::ZERO);
        }
    }
}
