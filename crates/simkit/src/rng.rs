//! Deterministic pseudo-random number generation.
//!
//! Simulation results must be exactly reproducible from a seed, so the
//! workspace uses its own small generator rather than thread-local entropy:
//! [`DetRng`] is xoshiro256++ seeded through SplitMix64, the standard
//! seeding procedure recommended by the xoshiro authors.

/// A deterministic, seedable pseudo-random number generator
/// (xoshiro256++ with SplitMix64 seeding).
///
/// `DetRng` is deliberately *not* cryptographically secure; it drives
/// workload generation, loss injection and replacement decisions in the
/// simulators. All derived helpers (`gen_range`, `gen_bool`, ...) consume
/// a documented number of raw draws so streams stay stable across
/// refactorings.
///
/// # Example
///
/// ```
/// use simkit::DetRng;
/// let mut a = DetRng::new(42);
/// let mut b = DetRng::new(42);
/// assert_eq!(a.next_u64(), b.next_u64()); // same seed, same stream
/// let x = a.gen_range(10..20);
/// assert!((10..20).contains(&x));
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct DetRng {
    s: [u64; 4],
}

fn splitmix64(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

impl DetRng {
    /// Creates a generator from a 64-bit seed.
    pub fn new(seed: u64) -> DetRng {
        let mut sm = seed;
        let s = [
            splitmix64(&mut sm),
            splitmix64(&mut sm),
            splitmix64(&mut sm),
            splitmix64(&mut sm),
        ];
        DetRng { s }
    }

    /// Returns the next 64 random bits.
    pub fn next_u64(&mut self) -> u64 {
        let result = self.s[0]
            .wrapping_add(self.s[3])
            .rotate_left(23)
            .wrapping_add(self.s[0]);
        let t = self.s[1] << 17;
        self.s[2] ^= self.s[0];
        self.s[3] ^= self.s[1];
        self.s[1] ^= self.s[2];
        self.s[0] ^= self.s[3];
        self.s[2] ^= t;
        self.s[3] = self.s[3].rotate_left(45);
        result
    }

    /// Returns a uniformly distributed value in `range` (one raw draw).
    ///
    /// Uses Lemire's multiply-shift reduction; the modulo bias is
    /// negligible for the range sizes used in the simulators (< 2^40).
    ///
    /// # Panics
    ///
    /// Panics if the range is empty.
    pub fn gen_range(&mut self, range: std::ops::Range<u64>) -> u64 {
        assert!(range.start < range.end, "empty range");
        let span = range.end - range.start;
        let hi = ((self.next_u64() as u128 * span as u128) >> 64) as u64;
        range.start + hi
    }

    /// Returns `true` with probability `p` (one raw draw).
    ///
    /// # Panics
    ///
    /// Panics if `p` is not within `0.0..=1.0`.
    pub fn gen_bool(&mut self, p: f64) -> bool {
        assert!((0.0..=1.0).contains(&p), "probability out of range: {p}");
        // Compare against the top 53 bits for full double precision.
        let x = (self.next_u64() >> 11) as f64 * (1.0 / (1u64 << 53) as f64);
        x < p
    }

    /// Returns a uniformly distributed `f64` in `[0, 1)` (one raw draw).
    pub fn gen_f64(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
    }

    /// Returns an exponentially distributed value with the given mean
    /// (one raw draw). Used for Poisson arrival processes.
    pub fn gen_exp(&mut self, mean: f64) -> f64 {
        let u = self.gen_f64();
        // Guard against ln(0).
        -mean * (1.0 - u).max(f64::MIN_POSITIVE).ln()
    }

    /// Fills `buf` with random bytes (`ceil(len/8)` raw draws).
    pub fn fill_bytes(&mut self, buf: &mut [u8]) {
        for chunk in buf.chunks_mut(8) {
            let v = self.next_u64().to_le_bytes();
            chunk.copy_from_slice(&v[..chunk.len()]);
        }
    }

    /// Performs a Fisher–Yates shuffle of `slice` (one raw draw per element).
    pub fn shuffle<T>(&mut self, slice: &mut [T]) {
        for i in (1..slice.len()).rev() {
            let j = self.gen_range(0..(i as u64 + 1)) as usize;
            slice.swap(i, j);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn same_seed_same_stream() {
        let mut a = DetRng::new(7);
        let mut b = DetRng::new(7);
        for _ in 0..1000 {
            assert_eq!(a.next_u64(), b.next_u64());
        }
    }

    #[test]
    fn different_seeds_differ() {
        let mut a = DetRng::new(1);
        let mut b = DetRng::new(2);
        let va: Vec<u64> = (0..8).map(|_| a.next_u64()).collect();
        let vb: Vec<u64> = (0..8).map(|_| b.next_u64()).collect();
        assert_ne!(va, vb);
    }

    #[test]
    fn gen_range_bounds() {
        let mut r = DetRng::new(3);
        for _ in 0..10_000 {
            let v = r.gen_range(5..17);
            assert!((5..17).contains(&v));
        }
    }

    #[test]
    fn gen_range_covers_small_range() {
        let mut r = DetRng::new(4);
        let mut seen = [false; 4];
        for _ in 0..1000 {
            seen[r.gen_range(0..4) as usize] = true;
        }
        assert!(seen.iter().all(|&s| s));
    }

    #[test]
    #[should_panic(expected = "empty range")]
    fn gen_range_empty_panics() {
        DetRng::new(0).gen_range(3..3);
    }

    #[test]
    fn gen_bool_extremes() {
        let mut r = DetRng::new(5);
        for _ in 0..100 {
            assert!(!r.gen_bool(0.0));
            assert!(r.gen_bool(1.0));
        }
    }

    #[test]
    fn gen_bool_is_roughly_calibrated() {
        let mut r = DetRng::new(6);
        let hits = (0..100_000).filter(|_| r.gen_bool(0.3)).count();
        let p = hits as f64 / 100_000.0;
        assert!((p - 0.3).abs() < 0.01, "p={p}");
    }

    #[test]
    fn gen_exp_mean() {
        let mut r = DetRng::new(8);
        let n = 200_000;
        let sum: f64 = (0..n).map(|_| r.gen_exp(5.0)).sum();
        let mean = sum / n as f64;
        assert!((mean - 5.0).abs() < 0.1, "mean={mean}");
    }

    #[test]
    fn fill_bytes_deterministic_and_full() {
        let mut a = DetRng::new(10);
        let mut b = DetRng::new(10);
        let mut ba = [0u8; 13];
        let mut bb = [0u8; 13];
        a.fill_bytes(&mut ba);
        b.fill_bytes(&mut bb);
        assert_eq!(ba, bb);
        assert!(ba.iter().any(|&x| x != 0));
    }

    #[test]
    fn shuffle_is_permutation() {
        let mut r = DetRng::new(12);
        let mut v: Vec<u32> = (0..64).collect();
        r.shuffle(&mut v);
        let mut sorted = v.clone();
        sorted.sort_unstable();
        assert_eq!(sorted, (0..64).collect::<Vec<_>>());
        assert_ne!(v, (0..64).collect::<Vec<_>>()); // overwhelmingly likely
    }

    proptest! {
        #[test]
        fn prop_gen_range_in_bounds(seed: u64, lo in 0u64..1000, span in 1u64..1000) {
            let mut r = DetRng::new(seed);
            for _ in 0..32 {
                let v = r.gen_range(lo..lo + span);
                prop_assert!(v >= lo && v < lo + span);
            }
        }

        #[test]
        fn prop_gen_f64_unit_interval(seed: u64) {
            let mut r = DetRng::new(seed);
            for _ in 0..64 {
                let x = r.gen_f64();
                prop_assert!((0.0..1.0).contains(&x));
            }
        }
    }
}
