//! Arithmetic in GF(2^128) with the GCM bit ordering.
//!
//! GCM interprets 16-byte blocks with the *most significant* bit of the
//! first byte as the coefficient of x^0 (the "reflected" convention). The
//! reduction polynomial is x^128 + x^7 + x^2 + x + 1, which in this
//! convention appears as the constant `0xE1` shifted into the top byte.
//!
//! [`Gf128`] is the element type used by GHASH and by the SmartDIMM TLS
//! DSA's precomputed table of powers of `H` (§V-A).

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
    pub fn pow(self, mut n: u64) -> Gf128 {
        let mut result = Gf128::ONE;
        let mut base = self;
        while n > 0 {
            if n & 1 == 1 {
                result = result * base;
            }
            n >>= 1;
            if n > 0 {
                base = base * base;
            }
        }
        result
    }

    /// Reference multiplication: the bit-at-a-time algorithm of NIST SP
    /// 800-38D §6.3, one conditional XOR per bit of `rhs`.
    ///
    /// This is the oracle the table-driven [`GfMulTable`] (and the `Mul`
    /// impl built on it) is validated against, and the "before" side of
    /// the `bench_hotpaths` GHASH measurement. Hot paths should use `*`
    /// or a per-key [`GfMulTable`] instead.
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

/// Shoup-style 8-bit multiplication table for a fixed element `H`.
///
/// GHASH multiplies everything by the same hash subkey, so the table is
/// built **once per key** (256 entries, 4 KB: every 8-bit polynomial
/// times `H`) and each subsequent product costs 16 byte steps instead of
/// the 128 conditional-XOR iterations of [`Gf128::mul_bitwise`] — the
/// §V-A observation that the multiplier, not the data, is the loop
/// invariant. Building it costs about as much as ten products, so
/// one-off products of two varying elements (`*`) use a 16-entry 4-bit
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
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct GfMulTable {
    /// `m[i]` = (the degree-≤7 polynomial spelled by byte `i`) · H,
    /// where bit `j` of `i` carries the coefficient of `x^(7-j)`.
    m: Box<[u128; 256]>,
}

impl GfMulTable {
    /// Builds the 256-entry table for multiplication by `h`.
    pub fn new(h: Gf128) -> GfMulTable {
        let mut m = Box::new([0u128; 256]);
        // Single-bit entries by repeated ·x, composites by linearity.
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
        GfMulTable { m }
    }

    /// Computes `x · H` with the precomputed table.
    #[inline]
    pub fn mul(&self, x: Gf128) -> Gf128 {
        // Horner over the 16 bytes of x, least-significant (highest
        // polynomial degree) first: z ← z·x^8 + byte·H.
        let x = x.0;
        let mut z = self.m[(x & 0xFF) as usize];
        for n in 1..16 {
            z = (z >> 8)
                ^ ((R8[(z & 0xFF) as usize] as u128) << 112)
                ^ self.m[((x >> (8 * n)) & 0xFF) as usize];
        }
        Gf128(z)
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
    /// Carry-less multiplication with on-the-fly reduction via a 4-bit
    /// window table built per call (cheap: 3 shifts + 11 XORs). Both
    /// operands may vary — the out-of-order GHASH multiplies each line
    /// by a *different* power of `H`, so no per-key table applies there.
    /// Agrees bit-for-bit with [`Gf128::mul_bitwise`].
    fn mul(self, rhs: Gf128) -> Gf128 {
        NibbleTable::new(self).mul(rhs)
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

    proptest! {
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

        #[test]
        fn prop_table_and_mul_match_bitwise(a: [u8; 16], b: [u8; 16]) {
            let x = Gf128::from_bytes(&a);
            let y = Gf128::from_bytes(&b);
            let expected = x.mul_bitwise(y);
            prop_assert_eq!(x * y, expected);
            prop_assert_eq!(GfMulTable::new(y).mul(x), expected);
        }
    }
}
