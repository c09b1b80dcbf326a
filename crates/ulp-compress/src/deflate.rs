//! Deflate encoder (RFC 1951): stored, fixed-Huffman and dynamic-Huffman
//! blocks over an LZ77 token stream.
//!
//! [`compress`] is the software baseline — what "the CPU running zlib"
//! does in the paper's `CPU` configuration. The hardware-model compressor
//! in [`crate::hwmodel`] writes the same fixed-Huffman codes (the
//! deterministic-latency hardware design choice of §V-B), with
//! [`encode_fixed_reference`] as its oracle.

use crate::bitio::{BitWriter, BytewiseBitWriter};
use crate::huffman::{build_lengths, fixed_distance_lengths, fixed_literal_lengths, CanonicalCode};
use crate::lz77::{
    self, distance_to_symbol, distance_to_symbol_reference, length_to_symbol,
    length_to_symbol_reference, Token,
};
use std::sync::OnceLock;

/// Which Deflate block type to emit.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum Strategy {
    /// Pick whichever of stored/fixed/dynamic is smallest.
    #[default]
    Auto,
    /// Always emit a stored (uncompressed) block.
    Stored,
    /// Always emit fixed-Huffman blocks (the hardware choice: no
    /// second pass over the data, deterministic latency).
    Fixed,
    /// Always emit a dynamic-Huffman block.
    Dynamic,
}

/// Compresses `data` with default (zlib-level-6-like) matching and
/// automatic block-type selection, returning a raw Deflate stream.
///
/// # Example
///
/// ```
/// use ulp_compress::{deflate, inflate};
/// let data = vec![7u8; 1000];
/// let out = deflate::compress(&data);
/// assert!(out.len() < 40);
/// assert_eq!(inflate::decompress(&out).unwrap(), data);
/// ```
pub fn compress(data: &[u8]) -> Vec<u8> {
    compress_with(data, Strategy::Auto)
}

/// Compresses with the default matching and an explicit block strategy.
pub fn compress_with(data: &[u8], strategy: Strategy) -> Vec<u8> {
    let tokens = lz77::tokenize(data);
    encode_tokens(&tokens, data, strategy)
}

/// Lowers an LZ77 token stream to a complete Deflate stream.
///
/// `original` must be the bytes the tokens expand to; it is only read by
/// the stored-block path.
pub fn encode_tokens(tokens: &[Token], original: &[u8], strategy: Strategy) -> Vec<u8> {
    match strategy {
        Strategy::Stored => encode_stored(original),
        Strategy::Fixed => {
            let mut w = BitWriter::new();
            write_fixed_block(&mut w, tokens, true);
            w.finish()
        }
        Strategy::Dynamic => {
            let mut w = BitWriter::new();
            write_dynamic_block(&mut w, tokens, true);
            w.finish()
        }
        Strategy::Auto => {
            let mut fixed = BitWriter::new();
            write_fixed_block(&mut fixed, tokens, true);
            let fixed = fixed.finish();
            let mut dynamic = BitWriter::new();
            write_dynamic_block(&mut dynamic, tokens, true);
            let dynamic = dynamic.finish();
            let mut stored = BitWriter::new();
            write_stored(&mut stored, original);
            let stored = stored.finish();
            let mut best = fixed;
            if dynamic.len() < best.len() {
                best = dynamic;
            }
            if stored.len() < best.len() {
                best = stored;
            }
            best
        }
    }
}

/// `data` as stored (uncompressed) blocks: the stream of last resort.
pub(crate) fn encode_stored(data: &[u8]) -> Vec<u8> {
    let mut w = BitWriter::new();
    write_stored(&mut w, data);
    w.finish()
}

/// Writes one or more stored blocks covering `data` (stored blocks are
/// limited to 65535 bytes each), marking the last as final.
fn write_stored(w: &mut BitWriter, data: &[u8]) {
    let chunks: Vec<&[u8]> = if data.is_empty() {
        vec![&[]]
    } else {
        data.chunks(65535).collect()
    };
    for (i, chunk) in chunks.iter().enumerate() {
        let is_final = i + 1 == chunks.len();
        w.write_bits(is_final as u32, 1);
        w.write_bits(0b00, 2);
        w.align_byte();
        let len = chunk.len() as u16;
        w.write_bytes(&len.to_le_bytes());
        w.write_bytes(&(!len).to_le_bytes());
        w.write_bytes(chunk);
    }
}

fn write_token_stream(
    w: &mut BitWriter,
    tokens: &[Token],
    lit_code: &CanonicalCode,
    dist_code: &CanonicalCode,
) {
    for &t in tokens {
        match t {
            Token::Literal(b) => {
                let (c, l) = lit_code.code(b as usize);
                w.write_huffman(c, l);
            }
            Token::Match { length, distance } => {
                let (sym, extra, val) = length_to_symbol(length);
                let (c, l) = lit_code.code(sym as usize);
                w.write_huffman(c, l);
                if extra > 0 {
                    w.write_bits(val as u32, extra as u32);
                }
                let (dsym, dextra, dval) = distance_to_symbol(distance);
                let (c, l) = dist_code.code(dsym as usize);
                w.write_huffman(c, l);
                if dextra > 0 {
                    w.write_bits(dval as u32, dextra as u32);
                }
            }
        }
    }
    // End-of-block symbol.
    let (c, l) = lit_code.code(256);
    w.write_huffman(c, l);
}

/// The fixed literal/length and distance codes (RFC 1951 §3.2.6).
fn build_fixed_codes() -> (CanonicalCode, CanonicalCode) {
    (
        CanonicalCode::from_lengths(&fixed_literal_lengths()).expect("fixed literal code"),
        CanonicalCode::from_lengths(&fixed_distance_lengths()).expect("fixed distance code"),
    )
}

/// The fixed literal/length and distance codes, built once per process.
pub(crate) fn fixed_codes() -> &'static (CanonicalCode, CanonicalCode) {
    static FIXED: OnceLock<(CanonicalCode, CanonicalCode)> = OnceLock::new();
    FIXED.get_or_init(build_fixed_codes)
}

/// Writes a fixed-Huffman block.
pub(crate) fn write_fixed_block(w: &mut BitWriter, tokens: &[Token], is_final: bool) {
    let (lit, dist) = fixed_codes();
    w.write_bits(is_final as u32, 1);
    w.write_bits(0b01, 2);
    write_token_stream(w, tokens, lit, dist);
}

/// The fixed-Huffman encoder as it stood before the table-driven one:
/// both codes rebuilt per call, [`BytewiseBitWriter`] and the scan-based
/// symbol maps. Returns the same bytes as
/// `encode_tokens(tokens, _, Strategy::Fixed)`; kept as that path's
/// oracle and as the `before` side of the `hw_compress_page` hot-path
/// row.
pub fn encode_fixed_reference(tokens: &[Token]) -> Vec<u8> {
    let (lit, dist) = build_fixed_codes();
    let mut w = BytewiseBitWriter::new();
    w.write_bits(1, 1);
    w.write_bits(0b01, 2);
    for &t in tokens {
        match t {
            Token::Literal(b) => {
                let (c, l) = lit.code(b as usize);
                w.write_huffman(c, l);
            }
            Token::Match { length, distance } => {
                let (sym, extra, val) = length_to_symbol_reference(length);
                let (c, l) = lit.code(sym as usize);
                w.write_huffman(c, l);
                if extra > 0 {
                    w.write_bits(val as u32, extra as u32);
                }
                let (dsym, dextra, dval) = distance_to_symbol_reference(distance);
                let (c, l) = dist.code(dsym as usize);
                w.write_huffman(c, l);
                if dextra > 0 {
                    w.write_bits(dval as u32, dextra as u32);
                }
            }
        }
    }
    let (c, l) = lit.code(256);
    w.write_huffman(c, l);
    w.finish()
}

/// Order in which code-length-code lengths are transmitted (RFC 1951).
const CLC_ORDER: [usize; 19] = [
    16, 17, 18, 0, 8, 7, 9, 6, 10, 5, 11, 4, 12, 3, 13, 2, 14, 1, 15,
];

/// Run-length encodes `lengths` into the code-length alphabet
/// (0..15 verbatim, 16 = repeat previous, 17/18 = zero runs).
fn rle_code_lengths(lengths: &[u8]) -> Vec<(u8, u8, u8)> {
    // (symbol, extra_bits, extra_value)
    let mut out = Vec::new();
    let mut i = 0;
    while i < lengths.len() {
        let cur = lengths[i];
        let mut run = 1;
        while i + run < lengths.len() && lengths[i + run] == cur {
            run += 1;
        }
        if cur == 0 {
            let mut left = run;
            while left >= 11 {
                let take = left.min(138);
                out.push((18, 7, (take - 11) as u8));
                left -= take;
            }
            if left >= 3 {
                out.push((17, 3, (left - 3) as u8));
                left = 0;
            }
            for _ in 0..left {
                out.push((0, 0, 0));
            }
        } else {
            out.push((cur, 0, 0));
            let mut left = run - 1;
            while left >= 3 {
                let take = left.min(6);
                out.push((16, 2, (take - 3) as u8));
                left -= take;
            }
            for _ in 0..left {
                out.push((cur, 0, 0));
            }
        }
        i += run;
    }
    out
}

/// Writes a dynamic-Huffman block.
pub(crate) fn write_dynamic_block(w: &mut BitWriter, tokens: &[Token], is_final: bool) {
    // 1. Symbol frequencies.
    let mut lit_freq = vec![0u64; 286];
    let mut dist_freq = vec![0u64; 30];
    for &t in tokens {
        match t {
            Token::Literal(b) => lit_freq[b as usize] += 1,
            Token::Match { length, distance } => {
                lit_freq[length_to_symbol(length).0 as usize] += 1;
                dist_freq[distance_to_symbol(distance).0 as usize] += 1;
            }
        }
    }
    lit_freq[256] += 1; // end-of-block

    // 2. Length-limited code lengths.
    let lit_lens = build_lengths(&lit_freq, 15);
    let mut dist_lens = build_lengths(&dist_freq, 15);
    // Deflate requires HDIST >= 1; if no distances are used, transmit a
    // single zero length.
    if dist_lens.iter().all(|&l| l == 0) {
        dist_lens.truncate(1);
    }

    let hlit = lit_lens
        .iter()
        .rposition(|&l| l > 0)
        .map(|p| p + 1)
        .unwrap_or(257)
        .max(257);
    let hdist = dist_lens
        .iter()
        .rposition(|&l| l > 0)
        .map(|p| p + 1)
        .unwrap_or(1)
        .max(1);

    // 3. RLE-encode the combined length sequence.
    let mut combined = Vec::with_capacity(hlit + hdist);
    combined.extend_from_slice(&lit_lens[..hlit]);
    combined.extend_from_slice(&dist_lens[..hdist]);
    let rle = rle_code_lengths(&combined);

    // 4. Code-length code (alphabet of 19, 7-bit limit).
    let mut clc_freq = vec![0u64; 19];
    for &(sym, _, _) in &rle {
        clc_freq[sym as usize] += 1;
    }
    let clc_lens = build_lengths(&clc_freq, 7);
    let clc_code = CanonicalCode::from_lengths(&clc_lens).expect("code-length code");

    let hclen = CLC_ORDER
        .iter()
        .rposition(|&s| clc_lens[s] > 0)
        .map(|p| p + 1)
        .unwrap_or(4)
        .max(4);

    // 5. Emit the block.
    w.write_bits(is_final as u32, 1);
    w.write_bits(0b10, 2);
    w.write_bits((hlit - 257) as u32, 5);
    w.write_bits((hdist - 1) as u32, 5);
    w.write_bits((hclen - 4) as u32, 4);
    for &s in CLC_ORDER.iter().take(hclen) {
        w.write_bits(clc_lens[s] as u32, 3);
    }
    for &(sym, extra, val) in &rle {
        let (c, l) = clc_code.code(sym as usize);
        w.write_huffman(c, l);
        if extra > 0 {
            w.write_bits(val as u32, extra as u32);
        }
    }

    let lit_code = CanonicalCode::from_lengths(&lit_lens).expect("literal code");
    // The distance code may be a single zero-length entry (no matches);
    // write_token_stream will then never request a distance code.
    let dist_code = CanonicalCode::from_lengths(&dist_lens).expect("distance code");
    write_token_stream(w, tokens, &lit_code, &dist_code);
}

#[cfg(test)]
mod tests {
    use super::*;
    // Explicit import shadows proptest's `Strategy` trait from the glob.
    use super::Strategy;
    use crate::inflate::decompress;
    use proptest::prelude::*;

    #[test]
    fn stored_round_trip() {
        let data = b"stored block payload".to_vec();
        let out = compress_with(&data, Strategy::Stored);
        assert_eq!(decompress(&out).unwrap(), data);
        // Stored adds 5 bytes of framing.
        assert_eq!(out.len(), data.len() + 5);
    }

    #[test]
    fn stored_empty_input() {
        let out = compress_with(b"", Strategy::Stored);
        assert_eq!(decompress(&out).unwrap(), Vec::<u8>::new());
    }

    #[test]
    fn stored_multi_block_large_input() {
        let data = vec![0xABu8; 70_000]; // > 65535 forces two stored blocks
        let out = compress_with(&data, Strategy::Stored);
        assert_eq!(decompress(&out).unwrap(), data);
    }

    #[test]
    fn fixed_round_trip() {
        let data = b"fixed huffman fixed huffman fixed huffman".to_vec();
        let out = compress_with(&data, Strategy::Fixed);
        assert!(out.len() < data.len());
        assert_eq!(decompress(&out).unwrap(), data);
    }

    #[test]
    fn dynamic_round_trip() {
        let data = b"dynamic blocks build a bespoke code from symbol frequencies; frequencies vary"
            .repeat(8);
        let out = compress_with(&data, Strategy::Dynamic);
        assert!(out.len() < data.len());
        assert_eq!(decompress(&out).unwrap(), data);
    }

    #[test]
    fn dynamic_literals_only() {
        // No matches -> single zero-length distance code path.
        let data: Vec<u8> = (0..=255).collect();
        let out = compress_with(&data, Strategy::Dynamic);
        assert_eq!(decompress(&out).unwrap(), data);
    }

    #[test]
    fn auto_picks_stored_for_random_data() {
        let mut rng = simkit::DetRng::new(99);
        let mut data = vec![0u8; 4096];
        rng.fill_bytes(&mut data);
        let auto = compress(&data);
        // Incompressible: auto must not expand beyond stored + framing.
        assert!(auto.len() <= data.len() + 5 * ((data.len() / 65535) + 1));
        assert_eq!(decompress(&auto).unwrap(), data);
    }

    #[test]
    fn auto_picks_compressed_for_text() {
        let data = b"aaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaabbbbbbbbcccccccc".repeat(16);
        let out = compress(&data);
        assert!(out.len() < data.len() / 4);
        assert_eq!(decompress(&out).unwrap(), data);
    }

    #[test]
    fn rle_encodes_long_zero_runs() {
        let lengths = vec![0u8; 150];
        let rle = rle_code_lengths(&lengths);
        // 150 zeros = 138 (sym 18) + 12 (sym 18).
        assert_eq!(rle.len(), 2);
        assert_eq!(rle[0], (18, 7, 127));
        assert_eq!(rle[1], (18, 7, 1));
    }

    #[test]
    fn rle_encodes_repeats() {
        let lengths = vec![5u8; 8];
        let rle = rle_code_lengths(&lengths);
        // 5, then 16(repeat x6), then 5.
        assert_eq!(rle[0], (5, 0, 0));
        assert_eq!(rle[1], (16, 2, 3));
        assert_eq!(rle[2], (5, 0, 0));
        assert_eq!(rle.len(), 3);
    }

    #[test]
    fn rle_round_trips_through_expansion() {
        let lengths: Vec<u8> = vec![0, 0, 0, 0, 3, 3, 3, 3, 3, 3, 3, 0, 7, 7, 0, 0, 0]
            .into_iter()
            .chain(std::iter::repeat_n(4, 20))
            .collect();
        let rle = rle_code_lengths(&lengths);
        // Expand back.
        let mut expanded: Vec<u8> = Vec::new();
        for &(sym, _, val) in &rle {
            match sym {
                0..=15 => expanded.push(sym),
                16 => {
                    let prev = *expanded.last().expect("repeat with no previous");
                    for _ in 0..val + 3 {
                        expanded.push(prev);
                    }
                }
                17 => expanded.extend(std::iter::repeat_n(0, val as usize + 3)),
                18 => expanded.extend(std::iter::repeat_n(0, val as usize + 11)),
                _ => unreachable!(),
            }
        }
        assert_eq!(expanded, lengths);
    }

    proptest! {
        #[test]
        fn prop_all_strategies_round_trip(
            data in proptest::collection::vec(any::<u8>(), 0..3000),
        ) {
            for strategy in [Strategy::Stored, Strategy::Fixed, Strategy::Dynamic, Strategy::Auto] {
                let out = compress_with(&data, strategy);
                prop_assert_eq!(&decompress(&out).unwrap(), &data, "strategy {:?}", strategy);
            }
        }

        #[test]
        fn prop_fixed_encoder_matches_reference(
            data in proptest::collection::vec(any::<u8>(), 0..3000),
            word in proptest::collection::vec(any::<u8>(), 1..40),
        ) {
            // Random bytes give literal-heavy streams; a repeated word
            // gives long matches at many distances.
            let repeated: Vec<u8> = word.iter().cycle().take(data.len()).copied().collect();
            for input in [&data, &repeated] {
                let tokens = lz77::tokenize(input);
                prop_assert_eq!(
                    encode_tokens(&tokens, input, Strategy::Fixed),
                    encode_fixed_reference(&tokens)
                );
            }
        }

        #[test]
        fn prop_compressible_data_shrinks(
            word in proptest::collection::vec(any::<u8>(), 4..16),
            reps in 32usize..128,
        ) {
            let data: Vec<u8> = word.iter().cycle().take(word.len() * reps).copied().collect();
            let out = compress(&data);
            prop_assert!(out.len() < data.len());
            prop_assert_eq!(decompress(&out).unwrap(), data);
        }
    }
}
