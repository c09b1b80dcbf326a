//! GHASH — the universal hash of GCM — in both the textbook sequential
//! form and the out-of-order form used by SmartDIMM's TLS DSA.
//!
//! Sequentially, GHASH chains `Y_i = (Y_{i-1} ⊕ X_i) · H`. That chain
//! would force the DIMM-side accelerator to see cachelines in order, but
//! the memory controller reorders CAS commands. §V-A of the paper solves
//! this by *precomputing powers of H*: since
//!
//! ```text
//! GHASH(X_1 .. X_n) = Σ_{i=1..n}  X_i · H^(n-i+1)
//! ```
//!
//! each 16-byte block's contribution depends only on its own index and the
//! total block count, so blocks may be absorbed in any order.
//!
//! [`HPowers`] (every power `H^1..H^n`) and [`OooGhash`] (one full
//! multiply per block) are that identity written out block by block.
//! They are the test oracle and the "before" side of `bench_hotpaths`,
//! not the DSA's hot path: [`crate::gcm::OooGcm`] precomputes powers "in
//! strides of 4", one per 64-byte cacheline, folds each line's blocks by
//! Horner with the per-key `H` table and multiplies once per line.

use crate::gf128::{Gf128, GfMulTable};

/// Precomputed powers of the hash subkey `H` (H^1 .. H^max).
///
/// The per-block reference for the DSA's strided table: one 4 KB page
/// plus the length block needs 258 powers here, where
/// [`crate::gcm::OooGcm`] keeps one per full cacheline (64).
///
/// # Example
///
/// ```
/// use ulp_crypto::gf128::Gf128;
/// use ulp_crypto::ghash::HPowers;
/// let h = Gf128::from_bytes(&[7u8; 16]);
/// let powers = HPowers::new(h, 8);
/// assert_eq!(powers.get(1), h);
/// assert_eq!(powers.get(3), h * h * h);
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct HPowers {
    powers: Vec<Gf128>, // powers[i] = H^(i+1)
}

impl HPowers {
    /// Precomputes `H^1 ..= H^max`.
    ///
    /// # Panics
    ///
    /// Panics if `max` is zero.
    pub fn new(h: Gf128, max: usize) -> HPowers {
        assert!(max > 0, "need at least H^1");
        // Every step multiplies by the same H, so one per-key table
        // amortizes across the whole fill.
        let table = GfMulTable::new(h);
        let mut powers = Vec::with_capacity(max);
        let mut acc = h;
        for _ in 0..max {
            powers.push(acc);
            acc = table.mul(acc);
        }
        HPowers { powers }
    }

    /// Returns `H^exp` (1-indexed).
    ///
    /// # Panics
    ///
    /// Panics if `exp` is zero or beyond the precomputed range.
    pub fn get(&self, exp: usize) -> Gf128 {
        assert!(exp >= 1, "H^0 is not stored");
        self.powers[exp - 1]
    }
}

/// Textbook sequential GHASH.
///
/// The streaming form of the fold the software AES-GCM baseline (the
/// "CPU with AES-NI" configuration) runs on its own per-key table, and
/// an oracle the out-of-order DSA form is tested against.
#[derive(Debug, Clone)]
pub struct Ghash {
    h: GfMulTable,
    y: Gf128,
}

impl Ghash {
    /// Creates a GHASH instance keyed by `h`, building the per-key 8-bit
    /// multiplication table once up front.
    pub fn new(h: Gf128) -> Ghash {
        Ghash {
            h: GfMulTable::new(h),
            y: Gf128::ZERO,
        }
    }

    /// Absorbs one 16-byte block.
    pub fn update_block(&mut self, block: &[u8; 16]) {
        self.y = self.h.mul(self.y + Gf128::from_bytes(block));
    }

    /// Absorbs `data`, zero-padding its final partial block: the fold
    /// [`crate::gcm::AesGcm`]'s `seal` and `open` run, four blocks per
    /// step, and the same value as one [`Ghash::update_block`] per block.
    pub fn update(&mut self, data: &[u8]) {
        self.y = fold_padded(&self.h, self.y, data);
    }

    /// Returns the current hash value.
    pub fn finalize(&self) -> [u8; 16] {
        self.y.to_bytes()
    }
}

/// Continues sequential GHASH from `y` over `data`, zero-padding the
/// final partial block. Each whole 64-byte group takes one four-block
/// step, `y ← (y + X_0)·H^4 + X_1·H^3 + X_2·H^2 + X_3·H` (one reduction
/// on the hardware backend); the blocks after the last group take the
/// textbook step `y ← (y + X)·H` one at a time.
pub(crate) fn fold_padded(h: &GfMulTable, mut y: Gf128, data: &[u8]) -> Gf128 {
    let (groups, rest) = data.as_chunks::<64>();
    y = h.fold_groups(y, groups);
    for chunk in rest.chunks(16) {
        let mut block = [0u8; 16];
        block[..chunk.len()].copy_from_slice(chunk);
        y = h.mul(y + Gf128::from_bytes(&block));
    }
    y
}

/// Order-independent GHASH over a message with a known total block count.
///
/// This is the DSA-side formulation: every block contributes
/// `X_i · H^(n-i+1)` where `n` is the total number of blocks (including
/// the final length block), and contributions are XOR-accumulated in any
/// order. The result equals sequential GHASH once every block has been
/// absorbed exactly once.
///
/// # Example
///
/// ```
/// use ulp_crypto::gf128::Gf128;
/// use ulp_crypto::ghash::{Ghash, HPowers, OooGhash};
///
/// let h = Gf128::from_bytes(&[0x42; 16]);
/// let blocks: Vec<[u8; 16]> = (0..4u8).map(|i| [i; 16]).collect();
///
/// let mut seq = Ghash::new(h);
/// for b in &blocks { seq.update_block(b); }
///
/// let powers = HPowers::new(h, blocks.len());
/// let mut ooo = OooGhash::new(blocks.len());
/// // Absorb in reverse order — the result must not change.
/// for (i, b) in blocks.iter().enumerate().rev() {
///     ooo.absorb(&powers, i, b);
/// }
/// assert_eq!(ooo.finalize(), seq.finalize());
/// ```
#[derive(Debug, Clone)]
pub struct OooGhash {
    total_blocks: usize,
    acc: Gf128,
    absorbed: u64,
}

impl OooGhash {
    /// Creates an accumulator for a message of exactly `total_blocks`
    /// 16-byte blocks.
    ///
    /// # Panics
    ///
    /// Panics if `total_blocks` is zero.
    pub fn new(total_blocks: usize) -> OooGhash {
        assert!(total_blocks > 0, "message must have at least one block");
        OooGhash {
            total_blocks,
            acc: Gf128::ZERO,
            absorbed: 0,
        }
    }

    /// Absorbs block `index` (0-based position within the message).
    ///
    /// # Panics
    ///
    /// Panics if `index` is out of range or the required power of `H` was
    /// not precomputed.
    pub fn absorb(&mut self, powers: &HPowers, index: usize, block: &[u8; 16]) {
        assert!(index < self.total_blocks, "block index out of range");
        let exp = self.total_blocks - index; // n - i + 1 with 1-based i
        self.acc = self.acc + Gf128::from_bytes(block) * powers.get(exp);
        self.absorbed += 1;
    }

    /// Number of blocks absorbed so far (duplicates are not detected; the
    /// caller — the DSA — guarantees each cacheline is processed once).
    pub fn absorbed(&self) -> u64 {
        self.absorbed
    }

    /// Whether every block of the message has been absorbed.
    pub fn is_complete(&self) -> bool {
        self.absorbed == self.total_blocks as u64
    }

    /// Returns the accumulated hash value.
    pub fn finalize(&self) -> [u8; 16] {
        self.acc.to_bytes()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    fn h_fixture() -> Gf128 {
        Gf128::from_bytes(&[
            0x66, 0xe9, 0x4b, 0xd4, 0xef, 0x8a, 0x2c, 0x3b, 0x88, 0x4c, 0xfa, 0x59, 0xca, 0x34,
            0x2b, 0x2e,
        ])
    }

    #[test]
    fn hpowers_first_is_h() {
        let h = h_fixture();
        let p = HPowers::new(h, 4);
        assert_eq!(p.get(1), h);
        assert_eq!(p.get(2), h * h);
    }

    #[test]
    #[should_panic(expected = "H^0")]
    fn hpowers_rejects_zero_exp() {
        HPowers::new(h_fixture(), 2).get(0);
    }

    #[test]
    fn sequential_ghash_zero_message() {
        let mut g = Ghash::new(h_fixture());
        g.update_block(&[0u8; 16]);
        // (0 + 0) * H = 0
        assert_eq!(g.finalize(), [0u8; 16]);
    }

    #[test]
    fn ooo_matches_sequential_any_order() {
        let h = h_fixture();
        let blocks: Vec<[u8; 16]> = (0..17u8).map(|i| [i.wrapping_mul(37); 16]).collect();
        let mut seq = Ghash::new(h);
        for b in &blocks {
            seq.update_block(b);
        }
        let powers = HPowers::new(h, blocks.len());

        // A few deterministic permutations.
        let orders: Vec<Vec<usize>> = vec![
            (0..blocks.len()).collect(),
            (0..blocks.len()).rev().collect(),
            (0..blocks.len()).map(|i| (i * 7) % blocks.len()).collect(),
        ];
        for order in orders {
            let mut ooo = OooGhash::new(blocks.len());
            for &i in &order {
                ooo.absorb(&powers, i, &blocks[i]);
            }
            assert!(ooo.is_complete());
            assert_eq!(ooo.finalize(), seq.finalize());
        }
    }

    #[test]
    fn ooo_tracks_completion() {
        let h = h_fixture();
        let powers = HPowers::new(h, 2);
        let mut ooo = OooGhash::new(2);
        assert!(!ooo.is_complete());
        ooo.absorb(&powers, 1, &[1; 16]);
        assert_eq!(ooo.absorbed(), 1);
        assert!(!ooo.is_complete());
        ooo.absorb(&powers, 0, &[2; 16]);
        assert!(ooo.is_complete());
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn ooo_rejects_bad_index() {
        let powers = HPowers::new(h_fixture(), 4);
        OooGhash::new(2).absorb(&powers, 2, &[0; 16]);
    }

    /// GHASH of `data` from `y` by the per-block `mul_bitwise` chain
    /// over zero-padded blocks, the oracle of the four-block fold.
    fn bitwise_chain(h: Gf128, y: Gf128, data: &[u8]) -> Gf128 {
        data.chunks(16).fold(y, |y, chunk| {
            let mut block = [0u8; 16];
            block[..chunk.len()].copy_from_slice(chunk);
            (y + Gf128::from_bytes(&block)).mul_bitwise(h)
        })
    }

    /// Both backends' `fold_padded` (and `Ghash::update`) equal the chain.
    fn assert_fold_matches_chain(h: Gf128, y: Gf128, data: &[u8]) {
        let want = bitwise_chain(h, y, data);
        for table in [GfMulTable::new(h), GfMulTable::new_portable(h)] {
            assert_eq!(fold_padded(&table, y, data), want, "len {}", data.len());
        }
        let mut ghash = Ghash::new(h);
        ghash.update(data);
        assert_eq!(
            ghash.finalize(),
            bitwise_chain(h, Gf128::ZERO, data).to_bytes()
        );
    }

    #[test]
    fn fold_matches_chain_for_every_short_length() {
        let h = h_fixture();
        let data: Vec<u8> = (0..300u32).map(|i| (i * 31 + 5) as u8).collect();
        for len in 0..=data.len() {
            assert_fold_matches_chain(h, Gf128::ONE, &data[..len]);
        }
    }

    proptest! {
        #[test]
        fn prop_fold_matches_bitwise_chain(
            hbytes: [u8; 16],
            ybytes: [u8; 16],
            len in 0usize..=300,
            page: bool,
            seed: u64,
        ) {
            let mut data = vec![0u8; if page { 4096 } else { len }];
            simkit::DetRng::new(seed).fill_bytes(&mut data);
            let mut y = Gf128::from_bytes(&ybytes);
            if y == Gf128::ZERO {
                y = Gf128::ONE;
            }
            assert_fold_matches_chain(Gf128::from_bytes(&hbytes), y, &data);
        }

        #[test]
        fn prop_ooo_equals_sequential(
            hbytes: [u8; 16],
            data in proptest::collection::vec(any::<u8>(), 16..512),
            seed: u64,
        ) {
            let h = Gf128::from_bytes(&hbytes);
            let blocks: Vec<[u8; 16]> = data
                .chunks(16)
                .map(|c| {
                    let mut b = [0u8; 16];
                    b[..c.len()].copy_from_slice(c);
                    b
                })
                .collect();
            let mut seq = Ghash::new(h);
            for b in &blocks { seq.update_block(b); }

            let powers = HPowers::new(h, blocks.len());
            let mut order: Vec<usize> = (0..blocks.len()).collect();
            let mut rng = simkit::DetRng::new(seed);
            rng.shuffle(&mut order);

            let mut ooo = OooGhash::new(blocks.len());
            for &i in &order {
                ooo.absorb(&powers, i, &blocks[i]);
            }
            prop_assert_eq!(ooo.finalize(), seq.finalize());
        }
    }
}
