//! LZ77 token model and the software hash-chain match finder.
//!
//! The token stream ([`Token`]) is shared by the software Deflate encoder
//! (the CPU baseline) and the hardware-model compressor; both lower their
//! tokens to the same Deflate bit syntax. This module also owns the RFC
//! 1951 length/distance symbol tables used by the encoder and decoder.

/// Minimum match length Deflate can encode.
pub const MIN_MATCH: usize = 3;
/// Maximum match length Deflate can encode.
pub const MAX_MATCH: usize = 258;
/// Maximum back-reference distance.
pub const MAX_DISTANCE: usize = 32 * 1024;

/// One LZ77 token: a literal byte or a back-reference.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Token {
    /// A single literal byte.
    Literal(u8),
    /// A `(length, distance)` back-reference: copy `length` bytes from
    /// `distance` bytes back.
    Match {
        /// Match length in `MIN_MATCH..=MAX_MATCH`.
        length: u16,
        /// Distance in `1..=MAX_DISTANCE`.
        distance: u16,
    },
}

/// `(base_length, extra_bits)` for length symbols 257..=285.
pub const LENGTH_TABLE: [(u16, u8); 29] = [
    (3, 0),
    (4, 0),
    (5, 0),
    (6, 0),
    (7, 0),
    (8, 0),
    (9, 0),
    (10, 0),
    (11, 1),
    (13, 1),
    (15, 1),
    (17, 1),
    (19, 2),
    (23, 2),
    (27, 2),
    (31, 2),
    (35, 3),
    (43, 3),
    (51, 3),
    (59, 3),
    (67, 4),
    (83, 4),
    (99, 4),
    (115, 4),
    (131, 5),
    (163, 5),
    (195, 5),
    (227, 5),
    (258, 0),
];

/// `(base_distance, extra_bits)` for distance symbols 0..=29.
pub const DIST_TABLE: [(u16, u8); 30] = [
    (1, 0),
    (2, 0),
    (3, 0),
    (4, 0),
    (5, 1),
    (7, 1),
    (9, 2),
    (13, 2),
    (17, 3),
    (25, 3),
    (33, 4),
    (49, 4),
    (65, 5),
    (97, 5),
    (129, 6),
    (193, 6),
    (257, 7),
    (385, 7),
    (513, 8),
    (769, 8),
    (1025, 9),
    (1537, 9),
    (2049, 10),
    (3073, 10),
    (4097, 11),
    (6145, 11),
    (8193, 12),
    (12289, 12),
    (16385, 13),
    (24577, 13),
];

/// Maps a match length (3..=258) to `(symbol, extra_bits, extra_value)`.
///
/// Closed form of [`LENGTH_TABLE`]: above the eight zero-extra codes,
/// each extra-bit count covers four codes, so the leading one of
/// `length - 3` picks the group and the two bits below it the code.
///
/// # Panics
///
/// Panics if `length` is out of range.
pub fn length_to_symbol(length: u16) -> (u16, u8, u16) {
    assert!(
        (MIN_MATCH..=MAX_MATCH).contains(&(length as usize)),
        "match length out of range: {length}"
    );
    if length as usize == MAX_MATCH {
        return (285, 0, 0);
    }
    let l0 = length - 3;
    if l0 < 8 {
        return (257 + l0, 0, 0);
    }
    let top = 15 - l0.leading_zeros() as u16;
    let extra = top - 2;
    (
        257 + 4 * (top - 1) + ((l0 >> extra) & 3),
        extra as u8,
        l0 & ((1 << extra) - 1),
    )
}

/// [`length_to_symbol`] by a scan of [`LENGTH_TABLE`]: the oracle the
/// closed form is checked against.
///
/// # Panics
///
/// Panics if `length` is out of range.
pub fn length_to_symbol_reference(length: u16) -> (u16, u8, u16) {
    assert!(
        (MIN_MATCH..=MAX_MATCH).contains(&(length as usize)),
        "match length out of range: {length}"
    );
    // Find the last entry whose base <= length.
    let idx = LENGTH_TABLE
        .iter()
        .rposition(|&(base, _)| base <= length)
        .expect("length table covers 3..=258");
    // Length 258 must use symbol 285 (the dedicated zero-extra code).
    let (base, extra) = LENGTH_TABLE[idx];
    (257 + idx as u16, extra, length - base)
}

/// Maps a distance (1..=32768) to `(symbol, extra_bits, extra_value)`.
///
/// Closed form of [`DIST_TABLE`]: above the four zero-extra codes, each
/// extra-bit count covers two codes, picked by the bit below the leading
/// one of `distance - 1`.
///
/// # Panics
///
/// Panics if `distance` is out of range.
pub fn distance_to_symbol(distance: u16) -> (u16, u8, u16) {
    assert!(
        (1..=MAX_DISTANCE as u32).contains(&(distance as u32)),
        "distance out of range: {distance}"
    );
    let d0 = distance - 1;
    if d0 < 4 {
        return (d0, 0, 0);
    }
    let top = 15 - d0.leading_zeros() as u16;
    let extra = top - 1;
    (
        2 * top + ((d0 >> extra) & 1),
        extra as u8,
        d0 & ((1 << extra) - 1),
    )
}

/// [`distance_to_symbol`] by a scan of [`DIST_TABLE`]: the oracle the
/// closed form is checked against.
///
/// # Panics
///
/// Panics if `distance` is out of range.
pub fn distance_to_symbol_reference(distance: u16) -> (u16, u8, u16) {
    assert!(
        (1..=MAX_DISTANCE as u32).contains(&(distance as u32)),
        "distance out of range: {distance}"
    );
    let idx = DIST_TABLE
        .iter()
        .rposition(|&(base, _)| base <= distance)
        .expect("distance table covers 1..=32768");
    let (base, extra) = DIST_TABLE[idx];
    (idx as u16, extra, distance - base)
}

/// Reconstructs the original bytes described by a token stream.
///
/// This is the token-level oracle used by tests: every match finder must
/// produce tokens that expand back to the input.
///
/// # Panics
///
/// Panics if a match reaches before the start of the output.
pub fn expand_tokens(tokens: &[Token]) -> Vec<u8> {
    let mut out = Vec::new();
    for &t in tokens {
        match t {
            Token::Literal(b) => out.push(b),
            Token::Match { length, distance } => {
                let dist = distance as usize;
                assert!(dist >= 1 && dist <= out.len(), "invalid distance");
                for _ in 0..length {
                    let b = out[out.len() - dist];
                    out.push(b);
                }
            }
        }
    }
    out
}

/// Configuration for the software hash-chain match finder.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct MatcherConfig {
    /// Sliding-window size in bytes (at most [`MAX_DISTANCE`]).
    pub window: usize,
    /// Maximum hash-chain links followed per position (the zlib
    /// `max_chain` "effort" knob).
    pub max_chain: usize,
    /// Whether to use lazy matching (defer a match one byte if the next
    /// position matches longer), as zlib levels ≥ 4 do.
    pub lazy: bool,
}

impl Default for MatcherConfig {
    /// zlib-level-6-like defaults.
    fn default() -> Self {
        MatcherConfig {
            window: MAX_DISTANCE,
            max_chain: 128,
            lazy: true,
        }
    }
}

const HASH_BITS: usize = 15;
const HASH_SIZE: usize = 1 << HASH_BITS;

/// Length of the common prefix of `data[cand..]` and `data[pos..]`, capped
/// at `max_len`. Compares eight bytes per step and pinpoints the diverging
/// byte with a trailing-zero count, falling back to byte steps only for
/// the sub-word tail. Requires `cand < pos` and `pos + max_len <= data.len()`.
#[inline]
fn match_len(data: &[u8], cand: usize, pos: usize, max_len: usize) -> usize {
    let mut l = 0;
    while l + 8 <= max_len {
        let a = u64::from_le_bytes(data[cand + l..cand + l + 8].try_into().unwrap());
        let b = u64::from_le_bytes(data[pos + l..pos + l + 8].try_into().unwrap());
        let diff = a ^ b;
        if diff != 0 {
            return l + (diff.trailing_zeros() >> 3) as usize;
        }
        l += 8;
    }
    while l < max_len && data[cand + l] == data[pos + l] {
        l += 1;
    }
    l
}

fn hash3(data: &[u8], pos: usize) -> usize {
    let h = (data[pos] as u32)
        .wrapping_mul(0x9E37)
        .wrapping_add((data[pos + 1] as u32).wrapping_mul(0x79B9))
        .wrapping_add((data[pos + 2] as u32).wrapping_mul(0x7F4A));
    (h as usize) & (HASH_SIZE - 1)
}

/// Greedy/lazy hash-chain LZ77 tokenizer — the software baseline that
/// stands in for zlib running on the CPU.
///
/// # Example
///
/// ```
/// use ulp_compress::lz77::{tokenize, expand_tokens, MatcherConfig, Token};
/// let data = b"abcabcabcabc";
/// let tokens = tokenize(data, MatcherConfig::default());
/// assert!(tokens.iter().any(|t| matches!(t, Token::Match { .. })));
/// assert_eq!(expand_tokens(&tokens), data);
/// ```
pub fn tokenize(data: &[u8], config: MatcherConfig) -> Vec<Token> {
    let window = config.window.clamp(1, MAX_DISTANCE);
    let mut tokens = Vec::new();
    if data.is_empty() {
        return tokens;
    }
    let mut head = vec![usize::MAX; HASH_SIZE];
    let mut chain = vec![usize::MAX; data.len()];

    let find_match = |head: &[usize], chain: &[usize], pos: usize| -> Option<(usize, usize)> {
        if pos + MIN_MATCH > data.len() {
            return None;
        }
        let mut best_len = MIN_MATCH - 1;
        let mut best_dist = 0usize;
        let mut cand = head[hash3(data, pos)];
        let mut links = config.max_chain;
        let limit = pos.saturating_sub(window);
        let max_len = (data.len() - pos).min(MAX_MATCH);
        while cand != usize::MAX && cand >= limit && links > 0 {
            if cand < pos {
                // A candidate can only improve on `best_len` if it agrees
                // at offset `best_len`; one byte probe rejects most chains
                // without running the full prefix compare.
                if data[cand + best_len] == data[pos + best_len] {
                    let l = match_len(data, cand, pos, max_len);
                    if l > best_len {
                        best_len = l;
                        best_dist = pos - cand;
                        if l == max_len {
                            break;
                        }
                    }
                }
            }
            cand = chain[cand];
            links -= 1;
        }
        if best_len >= MIN_MATCH {
            Some((best_len, best_dist))
        } else {
            None
        }
    };

    let insert = |head: &mut [usize], chain: &mut [usize], pos: usize| {
        if pos + MIN_MATCH <= data.len() {
            let h = hash3(data, pos);
            chain[pos] = head[h];
            head[h] = pos;
        }
    };

    let mut pos = 0usize;
    while pos < data.len() {
        let cur = find_match(&head, &chain, pos);
        let (emit_len, emit_dist) = match cur {
            None => {
                tokens.push(Token::Literal(data[pos]));
                insert(&mut head, &mut chain, pos);
                pos += 1;
                continue;
            }
            Some((len, dist)) if config.lazy && pos + 1 < data.len() => {
                // Lazy evaluation: see if deferring one byte finds better.
                insert(&mut head, &mut chain, pos);
                match find_match(&head, &chain, pos + 1) {
                    Some((nlen, _)) if nlen > len => {
                        tokens.push(Token::Literal(data[pos]));
                        pos += 1;
                        continue;
                    }
                    _ => (len, dist),
                }
            }
            Some((len, dist)) => {
                insert(&mut head, &mut chain, pos);
                (len, dist)
            }
        };
        tokens.push(Token::Match {
            length: emit_len as u16,
            distance: emit_dist as u16,
        });
        // Insert hash entries for the matched span (skipping pos, done).
        for p in pos + 1..pos + emit_len {
            insert(&mut head, &mut chain, p);
        }
        pos += emit_len;
    }
    tokens
}

/// Reference LZ77 tokenizer that scans every window position linearly
/// (O(n · window) worst case) instead of following hash chains.
///
/// This is the "before" side of the `bench_hotpaths` match-finder
/// measurement and a correctness oracle for [`tokenize`]: both must
/// round-trip through [`expand_tokens`], though they may legitimately
/// pick different (equally valid) matches. `max_chain` is ignored — the
/// linear scan visits the whole window by construction. Not for hot
/// paths.
pub fn tokenize_linear(data: &[u8], config: MatcherConfig) -> Vec<Token> {
    let window = config.window.clamp(1, MAX_DISTANCE);
    let mut tokens = Vec::new();

    let find_match = |pos: usize| -> Option<(usize, usize)> {
        if pos + MIN_MATCH > data.len() {
            return None;
        }
        let max_len = (data.len() - pos).min(MAX_MATCH);
        let mut best_len = MIN_MATCH - 1;
        let mut best_dist = 0usize;
        // Nearest candidate first, exactly like the chain walk.
        for cand in (pos.saturating_sub(window)..pos).rev() {
            let mut l = 0;
            while l < max_len && data[cand + l] == data[pos + l] {
                l += 1;
            }
            if l > best_len {
                best_len = l;
                best_dist = pos - cand;
                if l == max_len {
                    break;
                }
            }
        }
        if best_len >= MIN_MATCH {
            Some((best_len, best_dist))
        } else {
            None
        }
    };

    let mut pos = 0usize;
    while pos < data.len() {
        let (emit_len, emit_dist) = match find_match(pos) {
            None => {
                tokens.push(Token::Literal(data[pos]));
                pos += 1;
                continue;
            }
            Some((len, dist)) if config.lazy && pos + 1 < data.len() => match find_match(pos + 1) {
                Some((nlen, _)) if nlen > len => {
                    tokens.push(Token::Literal(data[pos]));
                    pos += 1;
                    continue;
                }
                _ => (len, dist),
            },
            Some((len, dist)) => (len, dist),
        };
        tokens.push(Token::Match {
            length: emit_len as u16,
            distance: emit_dist as u16,
        });
        pos += emit_len;
    }
    tokens
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn length_symbol_boundaries() {
        assert_eq!(length_to_symbol(3), (257, 0, 0));
        assert_eq!(length_to_symbol(10), (264, 0, 0));
        assert_eq!(length_to_symbol(11), (265, 1, 0));
        assert_eq!(length_to_symbol(12), (265, 1, 1));
        assert_eq!(length_to_symbol(13), (266, 1, 0));
        assert_eq!(length_to_symbol(257), (284, 5, 30));
        assert_eq!(length_to_symbol(258), (285, 0, 0));
    }

    #[test]
    fn distance_symbol_boundaries() {
        assert_eq!(distance_to_symbol(1), (0, 0, 0));
        assert_eq!(distance_to_symbol(4), (3, 0, 0));
        assert_eq!(distance_to_symbol(5), (4, 1, 0));
        assert_eq!(distance_to_symbol(6), (4, 1, 1));
        assert_eq!(distance_to_symbol(24577), (29, 13, 0));
        assert_eq!(distance_to_symbol(32768), (29, 13, 8191));
    }

    #[test]
    fn closed_form_symbols_equal_table_scan_everywhere() {
        for len in MIN_MATCH as u16..=MAX_MATCH as u16 {
            assert_eq!(
                length_to_symbol(len),
                length_to_symbol_reference(len),
                "length {len}"
            );
        }
        for dist in 1..=MAX_DISTANCE as u16 {
            assert_eq!(
                distance_to_symbol(dist),
                distance_to_symbol_reference(dist),
                "distance {dist}"
            );
        }
    }

    #[test]
    fn symbol_tables_cover_all_values() {
        for len in MIN_MATCH..=MAX_MATCH {
            let (sym, extra, val) = length_to_symbol(len as u16);
            assert!((257..=285).contains(&sym));
            assert!(val < (1 << extra) || extra == 0 && val == 0, "len {len}");
            let (base, _) = LENGTH_TABLE[(sym - 257) as usize];
            assert_eq!(base as usize + val as usize, len);
        }
        for dist in 1..=MAX_DISTANCE {
            let (sym, extra, val) = distance_to_symbol(dist as u16);
            assert!(sym < 30);
            assert!(val < (1 << extra) || extra == 0 && val == 0, "dist {dist}");
            let (base, _) = DIST_TABLE[sym as usize];
            assert_eq!(base as usize + val as usize, dist);
        }
    }

    #[test]
    fn expand_literal_only() {
        let tokens = vec![Token::Literal(b'h'), Token::Literal(b'i')];
        assert_eq!(expand_tokens(&tokens), b"hi");
    }

    #[test]
    fn expand_overlapping_match() {
        // "aaaa...": literal 'a' then an overlapping match dist=1.
        let tokens = vec![
            Token::Literal(b'a'),
            Token::Match {
                length: 7,
                distance: 1,
            },
        ];
        assert_eq!(expand_tokens(&tokens), b"aaaaaaaa");
    }

    #[test]
    fn tokenize_finds_repeats() {
        let data = b"abcdefabcdefabcdef";
        let tokens = tokenize(data, MatcherConfig::default());
        let matches: Vec<_> = tokens
            .iter()
            .filter(|t| matches!(t, Token::Match { .. }))
            .collect();
        assert!(!matches.is_empty());
        assert_eq!(expand_tokens(&tokens), data);
    }

    #[test]
    fn tokenize_incompressible() {
        // All-distinct bytes: no matches possible.
        let data: Vec<u8> = (0..=255).collect();
        let tokens = tokenize(&data, MatcherConfig::default());
        assert_eq!(tokens.len(), 256);
        assert!(tokens.iter().all(|t| matches!(t, Token::Literal(_))));
    }

    #[test]
    fn tokenize_empty_and_tiny() {
        assert!(tokenize(b"", MatcherConfig::default()).is_empty());
        assert_eq!(
            expand_tokens(&tokenize(b"ab", MatcherConfig::default())),
            b"ab"
        );
    }

    #[test]
    fn tokenize_respects_window() {
        // Repeat is farther away than the window: must not match.
        let mut data = b"uniqueprefix".to_vec();
        data.extend(std::iter::repeat_n(0u8, 300));
        data.extend_from_slice(b"uniqueprefix");
        let tokens = tokenize(
            &data,
            MatcherConfig {
                window: 64,
                max_chain: 64,
                lazy: false,
            },
        );
        assert_eq!(expand_tokens(&tokens), data);
        for t in &tokens {
            if let Token::Match { distance, .. } = t {
                assert!(*distance as usize <= 64);
            }
        }
    }

    #[test]
    fn greedy_vs_lazy_both_correct() {
        let data = b"abcbcdbcdebcdefbcdefg".repeat(4);
        for lazy in [false, true] {
            let tokens = tokenize(
                &data,
                MatcherConfig {
                    lazy,
                    ..MatcherConfig::default()
                },
            );
            assert_eq!(expand_tokens(&tokens), data, "lazy={lazy}");
        }
    }

    #[test]
    fn match_len_helper_agrees_with_byte_loop() {
        let mut data = b"abcdefgh_abcdefgh_abcdefgX_tail".to_vec();
        data.extend_from_slice(&[7u8; 40]);
        for pos in 1..data.len() {
            for cand in 0..pos {
                let max_len = data.len() - pos;
                let mut expect = 0;
                while expect < max_len && data[cand + expect] == data[pos + expect] {
                    expect += 1;
                }
                assert_eq!(
                    match_len(&data, cand, pos, max_len),
                    expect,
                    "{cand}->{pos}"
                );
            }
        }
    }

    #[test]
    fn linear_matcher_round_trips_and_finds_repeats() {
        let data = b"abcdefabcdefabcdef";
        for lazy in [false, true] {
            let tokens = tokenize_linear(
                data,
                MatcherConfig {
                    lazy,
                    ..MatcherConfig::default()
                },
            );
            assert_eq!(expand_tokens(&tokens), data, "lazy={lazy}");
            assert!(tokens.iter().any(|t| matches!(t, Token::Match { .. })));
        }
        assert!(tokenize_linear(b"", MatcherConfig::default()).is_empty());
    }

    proptest! {
        #[test]
        fn prop_tokenize_round_trips(data in proptest::collection::vec(any::<u8>(), 0..2000)) {
            let tokens = tokenize(&data, MatcherConfig::default());
            prop_assert_eq!(expand_tokens(&tokens), data);
        }

        #[test]
        fn prop_linear_and_chain_both_round_trip(
            data in proptest::collection::vec(any::<u8>(), 0..600),
        ) {
            // The two matchers may pick different matches; both streams
            // must reconstruct the input byte-for-byte.
            let chain = tokenize(&data, MatcherConfig::default());
            let linear = tokenize_linear(&data, MatcherConfig::default());
            prop_assert_eq!(expand_tokens(&chain), data.clone());
            prop_assert_eq!(expand_tokens(&linear), data);
        }

        #[test]
        fn prop_tokenize_compressible_round_trips(
            seed in proptest::collection::vec(0u8..4, 1..32),
            reps in 1usize..64,
        ) {
            let data: Vec<u8> = seed.iter().cycle().take(seed.len() * reps).copied().collect();
            let tokens = tokenize(&data, MatcherConfig::default());
            prop_assert_eq!(expand_tokens(&tokens), data);
        }

        #[test]
        fn prop_matches_within_bounds(data in proptest::collection::vec(any::<u8>(), 0..1500)) {
            let tokens = tokenize(&data, MatcherConfig::default());
            let mut produced = 0usize;
            for t in &tokens {
                match t {
                    Token::Literal(_) => produced += 1,
                    Token::Match { length, distance } => {
                        prop_assert!((MIN_MATCH..=MAX_MATCH).contains(&(*length as usize)));
                        prop_assert!(*distance as usize >= 1);
                        prop_assert!((*distance as usize) <= produced);
                        produced += *length as usize;
                    }
                }
            }
            prop_assert_eq!(produced, data.len());
        }
    }
}
