//! Canonical Huffman (prefix) codes as used by Deflate.
//!
//! Provides:
//!
//! * [`CanonicalCode`] — encoder-side code table built from code lengths
//!   (RFC 1951 §3.2.2's canonical construction),
//! * [`Decoder`] — decoder-side table for the same lengths,
//! * [`build_lengths`] — a *length-limited* Huffman code builder using the
//!   package-merge algorithm, needed for dynamic Deflate blocks (15-bit
//!   limit for literal/distance codes, 7-bit for the code-length code),
//! * the fixed Deflate literal/length and distance codes.

use crate::bitio::BitReader;
use crate::DecodeError;

/// Maximum code length for literal/length and distance codes.
pub const MAX_BITS: usize = 15;

/// An encoder-side canonical prefix code: for each symbol, its code and
/// bit length.
///
/// # Example
///
/// ```
/// use ulp_compress::huffman::CanonicalCode;
/// // Lengths {A:1, B:2, C:2} produce codes A=0, B=10, C=11.
/// let code = CanonicalCode::from_lengths(&[1, 2, 2]).unwrap();
/// assert_eq!(code.code(0), (0b0, 1));
/// assert_eq!(code.code(1), (0b10, 2));
/// assert_eq!(code.code(2), (0b11, 2));
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CanonicalCode {
    codes: Vec<(u32, u8)>, // (code, length); length 0 = symbol unused
}

impl CanonicalCode {
    /// Builds the canonical code for the given per-symbol lengths.
    ///
    /// Returns `None` if the lengths over-subscribe the code space
    /// (i.e. do not describe a valid prefix code). Under-subscribed
    /// (incomplete) codes are accepted, as Deflate permits them in
    /// degenerate cases (e.g. a single distance code).
    pub fn from_lengths(lengths: &[u8]) -> Option<CanonicalCode> {
        let max_len = *lengths.iter().max().unwrap_or(&0) as usize;
        if max_len == 0 {
            return Some(CanonicalCode {
                codes: vec![(0, 0); lengths.len()],
            });
        }
        if max_len > MAX_BITS {
            return None;
        }
        let mut bl_count = vec![0u32; max_len + 1];
        for &l in lengths {
            if l > 0 {
                bl_count[l as usize] += 1;
            }
        }
        // Kraft inequality check: must not over-subscribe.
        let mut kraft: u64 = 0;
        for (len, &count) in bl_count.iter().enumerate().skip(1) {
            kraft += (count as u64) << (max_len - len);
        }
        if kraft > 1u64 << max_len {
            return None;
        }
        let mut next_code = vec![0u32; max_len + 2];
        let mut code = 0u32;
        for bits in 1..=max_len {
            code = (code + bl_count[bits - 1]) << 1;
            next_code[bits] = code;
        }
        let mut codes = Vec::with_capacity(lengths.len());
        for &l in lengths {
            if l == 0 {
                codes.push((0, 0));
            } else {
                codes.push((next_code[l as usize], l));
                next_code[l as usize] += 1;
            }
        }
        Some(CanonicalCode { codes })
    }

    /// Returns `(code, length)` for `symbol`.
    ///
    /// # Panics
    ///
    /// Panics if the symbol has no code (length 0).
    pub fn code(&self, symbol: usize) -> (u32, u32) {
        let (c, l) = self.codes[symbol];
        assert!(l > 0, "symbol {symbol} has no code");
        (c, l as u32)
    }

    /// Bit length of `symbol`'s code, or 0 if unused.
    pub fn length(&self, symbol: usize) -> u8 {
        self.codes[symbol].1
    }
}

/// A decoder for a canonical prefix code.
///
/// Implements the standard counts/offsets decode (one bit at a time with
/// per-length first-code tracking); fast enough for the simulator and
/// obviously correct.
#[derive(Debug, Clone)]
pub struct Decoder {
    /// first_code[len], first_symbol_index[len], and symbols sorted by
    /// (length, symbol).
    first_code: [u32; MAX_BITS + 1],
    first_index: [u32; MAX_BITS + 1],
    count: [u32; MAX_BITS + 1],
    symbols: Vec<u16>,
}

impl Decoder {
    /// Builds a decoder from per-symbol code lengths.
    ///
    /// Returns `None` if the lengths over-subscribe the code space or no
    /// symbol has a code.
    pub fn from_lengths(lengths: &[u8]) -> Option<Decoder> {
        let mut count = [0u32; MAX_BITS + 1];
        for &l in lengths {
            if l as usize > MAX_BITS {
                return None;
            }
            count[l as usize] += 1;
        }
        count[0] = 0;
        if count.iter().sum::<u32>() == 0 {
            return None;
        }
        let mut kraft: u64 = 0;
        for (len, &c) in count.iter().enumerate().skip(1) {
            kraft += (c as u64) << (MAX_BITS - len);
        }
        if kraft > 1u64 << MAX_BITS {
            return None;
        }
        let mut first_code = [0u32; MAX_BITS + 1];
        let mut first_index = [0u32; MAX_BITS + 1];
        let mut code = 0u32;
        let mut index = 0u32;
        for len in 1..=MAX_BITS {
            code = (code + count[len - 1]) << 1;
            first_code[len] = code;
            first_index[len] = index;
            index += count[len];
        }
        let mut symbols = vec![0u16; index as usize];
        let mut next = first_index;
        for (sym, &l) in lengths.iter().enumerate() {
            if l > 0 {
                symbols[next[l as usize] as usize] = sym as u16;
                next[l as usize] += 1;
            }
        }
        Some(Decoder {
            first_code,
            first_index,
            count,
            symbols,
        })
    }

    /// Decodes one symbol from the bit reader.
    ///
    /// # Errors
    ///
    /// Returns [`DecodeError`] on EOF or if the bits do not form a valid
    /// code.
    pub fn decode(&self, reader: &mut BitReader<'_>) -> Result<u16, DecodeError> {
        let mut code = 0u32;
        for len in 1..=MAX_BITS {
            code = (code << 1) | reader.read_bits(1)?;
            let c = self.count[len];
            if c > 0 && code >= self.first_code[len] && code < self.first_code[len] + c {
                let idx = self.first_index[len] + (code - self.first_code[len]);
                return Ok(self.symbols[idx as usize]);
            }
        }
        Err(DecodeError::InvalidStream("unknown huffman code"))
    }
}

/// Builds length-limited Huffman code lengths for the given symbol
/// frequencies using the package-merge algorithm.
///
/// Symbols with zero frequency get length 0 (no code). If only one symbol
/// has a nonzero frequency it is assigned length 1 (Deflate cannot encode
/// a 0-bit code).
///
/// # Panics
///
/// Panics if `max_len` cannot accommodate the alphabet
/// (`2^max_len < live symbols`) or `max_len == 0`.
///
/// # Example
///
/// ```
/// use ulp_compress::huffman::build_lengths;
/// let lens = build_lengths(&[45, 13, 12, 16, 9, 5], 4);
/// assert!(lens.iter().all(|&l| l <= 4));
/// // More frequent symbols get codes no longer than rarer ones.
/// assert!(lens[0] <= lens[5]);
/// ```
pub fn build_lengths(freqs: &[u64], max_len: usize) -> Vec<u8> {
    assert!(max_len > 0, "max_len must be positive");
    let live: Vec<usize> = (0..freqs.len()).filter(|&i| freqs[i] > 0).collect();
    let mut lengths = vec![0u8; freqs.len()];
    match live.len() {
        0 => return lengths,
        1 => {
            lengths[live[0]] = 1;
            return lengths;
        }
        n => assert!(
            (1usize << max_len.min(63)) >= n,
            "alphabet does not fit in max_len bits"
        ),
    }

    // Package-merge: coin collector over `max_len` levels.
    // Each item is (weight, set of original symbol indices it covers).
    #[derive(Clone)]
    struct Item {
        weight: u64,
        symbols: Vec<u32>,
    }
    let base: Vec<Item> = {
        let mut v: Vec<Item> = live
            .iter()
            .map(|&i| Item {
                weight: freqs[i],
                symbols: vec![i as u32],
            })
            .collect();
        v.sort_by_key(|it| it.weight);
        v
    };

    let mut prev: Vec<Item> = Vec::new();
    for _level in 0..max_len {
        // Merge base coins with packages from the previous level.
        let mut merged: Vec<Item> = Vec::with_capacity(base.len() + prev.len() / 2);
        let mut pkgs = Vec::new();
        let mut i = 0;
        while i + 1 < prev.len() {
            let mut syms = prev[i].symbols.clone();
            syms.extend_from_slice(&prev[i + 1].symbols);
            pkgs.push(Item {
                weight: prev[i].weight + prev[i + 1].weight,
                symbols: syms,
            });
            i += 2;
        }
        let (mut a, mut b) = (0usize, 0usize);
        while a < base.len() || b < pkgs.len() {
            let take_base = match (base.get(a), pkgs.get(b)) {
                (Some(x), Some(y)) => x.weight <= y.weight,
                (Some(_), None) => true,
                (None, Some(_)) => false,
                (None, None) => break,
            };
            if take_base {
                merged.push(base[a].clone());
                a += 1;
            } else {
                merged.push(pkgs[b].clone());
                b += 1;
            }
        }
        prev = merged;
    }

    // Take the first 2n-2 items; each time a symbol appears, its code
    // length increases by one.
    let n = live.len();
    for item in prev.iter().take(2 * n - 2) {
        for &s in &item.symbols {
            lengths[s as usize] += 1;
        }
    }
    lengths
}

/// The fixed literal/length code lengths (RFC 1951 §3.2.6).
pub fn fixed_literal_lengths() -> Vec<u8> {
    let mut lens = vec![0u8; 288];
    for (i, l) in lens.iter_mut().enumerate() {
        *l = match i {
            0..=143 => 8,
            144..=255 => 9,
            256..=279 => 7,
            _ => 8,
        };
    }
    lens
}

/// The fixed distance code lengths: thirty 5-bit codes.
pub fn fixed_distance_lengths() -> Vec<u8> {
    vec![5u8; 30]
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::bitio::BitWriter;
    use proptest::prelude::*;

    #[test]
    fn canonical_rfc1951_example() {
        // RFC 1951 §3.2.2 example: lengths (3,3,3,3,3,2,4,4) for A..H.
        let lens = [3u8, 3, 3, 3, 3, 2, 4, 4];
        let code = CanonicalCode::from_lengths(&lens).unwrap();
        let expect = [
            (0b010, 3),
            (0b011, 3),
            (0b100, 3),
            (0b101, 3),
            (0b110, 3),
            (0b00, 2),
            (0b1110, 4),
            (0b1111, 4),
        ];
        for (sym, &(c, l)) in expect.iter().enumerate() {
            assert_eq!(code.code(sym), (c, l), "symbol {sym}");
        }
    }

    #[test]
    fn oversubscribed_lengths_rejected() {
        assert!(CanonicalCode::from_lengths(&[1, 1, 1]).is_none());
        assert!(Decoder::from_lengths(&[1, 1, 1]).is_none());
    }

    #[test]
    fn incomplete_code_accepted() {
        // A single 1-bit code under-subscribes the space; Deflate allows it.
        let code = CanonicalCode::from_lengths(&[1, 0]).unwrap();
        assert_eq!(code.code(0), (0, 1));
        assert_eq!(code.length(1), 0);
    }

    #[test]
    fn all_zero_lengths() {
        let code = CanonicalCode::from_lengths(&[0, 0, 0]).unwrap();
        assert_eq!(code.length(2), 0);
        assert!(Decoder::from_lengths(&[0, 0, 0]).is_none());
    }

    #[test]
    fn encode_decode_round_trip() {
        let lens = [3u8, 3, 3, 3, 3, 2, 4, 4];
        let code = CanonicalCode::from_lengths(&lens).unwrap();
        let dec = Decoder::from_lengths(&lens).unwrap();
        let message = [5usize, 0, 7, 3, 6, 2, 1, 4, 5, 5];
        let mut w = BitWriter::new();
        for &s in &message {
            let (c, l) = code.code(s);
            w.write_huffman(c, l);
        }
        let bytes = w.finish();
        let mut r = BitReader::new(&bytes);
        for &s in &message {
            assert_eq!(dec.decode(&mut r).unwrap() as usize, s);
        }
    }

    #[test]
    fn fixed_tables_are_valid() {
        let lit = fixed_literal_lengths();
        assert_eq!(lit.len(), 288);
        let code = CanonicalCode::from_lengths(&lit).unwrap();
        // RFC 1951: literal 0 -> 00110000, 256 -> 0000000, 280 -> 11000000.
        assert_eq!(code.code(0), (0b0011_0000, 8));
        assert_eq!(code.code(256), (0b000_0000, 7));
        assert_eq!(code.code(280), (0b1100_0000, 8));
        assert!(Decoder::from_lengths(&lit).is_some());
        assert!(Decoder::from_lengths(&fixed_distance_lengths()).is_some());
    }

    #[test]
    fn build_lengths_single_symbol() {
        let lens = build_lengths(&[0, 42, 0], 15);
        assert_eq!(lens, vec![0, 1, 0]);
    }

    #[test]
    fn build_lengths_empty() {
        assert_eq!(build_lengths(&[0, 0], 15), vec![0, 0]);
    }

    #[test]
    fn build_lengths_respects_limit() {
        // Exponential frequencies force long codes without a limit.
        let freqs: Vec<u64> = (0..20).map(|i| 1u64 << i).collect();
        let lens = build_lengths(&freqs, 7);
        assert!(lens.iter().all(|&l| l <= 7 && l > 0));
        // Must still satisfy Kraft (valid prefix code).
        assert!(CanonicalCode::from_lengths(&lens).is_some());
    }

    #[test]
    fn build_lengths_is_optimal_for_uniform() {
        // 8 equal symbols -> all 3-bit codes.
        let lens = build_lengths(&[5; 8], 15);
        assert!(lens.iter().all(|&l| l == 3));
    }

    proptest! {
        #[test]
        fn prop_build_lengths_valid_prefix_code(
            freqs in proptest::collection::vec(0u64..1000, 2..64),
            max_len in 7usize..=15,
        ) {
            let lens = build_lengths(&freqs, max_len);
            prop_assert_eq!(lens.len(), freqs.len());
            for (i, &l) in lens.iter().enumerate() {
                prop_assert_eq!(l > 0, freqs[i] > 0);
                prop_assert!((l as usize) <= max_len);
            }
            if freqs.iter().any(|&f| f > 0) {
                prop_assert!(CanonicalCode::from_lengths(&lens).is_some());
            }
        }

        #[test]
        fn prop_round_trip_random_code(
            data in proptest::collection::vec(0usize..16, 1..256),
        ) {
            // Build a code from the empirical frequencies of the data.
            let mut freqs = vec![0u64; 16];
            for &s in &data { freqs[s] += 1; }
            let lens = build_lengths(&freqs, 15);
            let code = CanonicalCode::from_lengths(&lens).unwrap();
            let dec = Decoder::from_lengths(&lens).unwrap();
            let mut w = BitWriter::new();
            for &s in &data {
                let (c, l) = code.code(s);
                w.write_huffman(c, l);
            }
            let bytes = w.finish();
            let mut r = BitReader::new(&bytes);
            for &s in &data {
                prop_assert_eq!(dec.decode(&mut r).unwrap() as usize, s);
            }
        }
    }
}
