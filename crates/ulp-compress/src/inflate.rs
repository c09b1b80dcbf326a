//! Deflate decoder (RFC 1951): handles stored, fixed-Huffman and
//! dynamic-Huffman blocks.
//!
//! The decoder is deliberately independent of the encoder internals: it
//! rebuilds every table from the bit stream, so encoder/decoder agreement
//! is real evidence of format conformance (and both sides are further
//! validated against each other by property tests).

use crate::bitio::BitReader;
use crate::huffman::{fixed_distance_lengths, fixed_literal_lengths, Decoder};
use crate::lz77::{DIST_TABLE, LENGTH_TABLE};
use crate::DecodeError;

const CLC_ORDER: [usize; 19] = [
    16, 17, 18, 0, 8, 7, 9, 6, 10, 5, 11, 4, 12, 3, 13, 2, 14, 1, 15,
];

/// Decompresses a complete raw Deflate stream.
///
/// # Errors
///
/// Returns a [`DecodeError`] on truncated input, malformed headers,
/// invalid Huffman codes or out-of-window back-references.
///
/// # Example
///
/// ```
/// use ulp_compress::{deflate, inflate};
/// let out = deflate::compress(b"inflate me");
/// assert_eq!(inflate::decompress(&out).unwrap(), b"inflate me");
/// ```
pub fn decompress(data: &[u8]) -> Result<Vec<u8>, DecodeError> {
    decompress_bounded(data, usize::MAX)
}

/// Decompresses a complete raw Deflate stream whose output may hold at
/// most `max_out` bytes. Decoding stops at the first symbol or stored
/// block that would cross the bound, so a small hostile stream (13-bit
/// fixed-code 258-byte matches expand about 160×) never inflates past
/// it.
///
/// # Errors
///
/// Returns [`DecodeError::OutputTooLarge`] once the output would exceed
/// `max_out`, otherwise the errors of [`decompress`].
///
/// # Example
///
/// ```
/// use ulp_compress::{deflate, inflate, DecodeError};
/// let out = deflate::compress(&[0u8; 10_000]);
/// assert_eq!(inflate::decompress_bounded(&out, 10_000).unwrap().len(), 10_000);
/// assert_eq!(inflate::decompress_bounded(&out, 4096), Err(DecodeError::OutputTooLarge(4096)));
/// ```
pub fn decompress_bounded(data: &[u8], max_out: usize) -> Result<Vec<u8>, DecodeError> {
    let mut reader = BitReader::new(data);
    let mut out = Vec::new();
    loop {
        let is_final = reader.read_bits(1)? == 1;
        let btype = reader.read_bits(2)?;
        match btype {
            0b00 => inflate_stored(&mut reader, &mut out, max_out)?,
            0b01 => {
                let lit = Decoder::from_lengths(&fixed_literal_lengths())
                    .ok_or(DecodeError::InvalidStream("fixed literal table"))?;
                let dist = Decoder::from_lengths(&fixed_distance_lengths())
                    .ok_or(DecodeError::InvalidStream("fixed distance table"))?;
                inflate_block(&mut reader, &mut out, max_out, &lit, Some(&dist))?;
            }
            0b10 => {
                let (lit, dist) = read_dynamic_tables(&mut reader)?;
                inflate_block(&mut reader, &mut out, max_out, &lit, dist.as_ref())?;
            }
            _ => return Err(DecodeError::InvalidStream("reserved block type")),
        }
        if is_final {
            return Ok(out);
        }
    }
}

/// Fails with [`DecodeError::OutputTooLarge`] unless `more` bytes still
/// fit in `out` under `max_out`.
fn check_room(out: &[u8], more: usize, max_out: usize) -> Result<(), DecodeError> {
    if more > max_out - out.len() {
        return Err(DecodeError::OutputTooLarge(max_out));
    }
    Ok(())
}

fn inflate_stored(
    reader: &mut BitReader<'_>,
    out: &mut Vec<u8>,
    max_out: usize,
) -> Result<(), DecodeError> {
    reader.align_byte();
    let len_bytes = reader.read_bytes(2)?;
    let nlen_bytes = reader.read_bytes(2)?;
    let len = u16::from_le_bytes([len_bytes[0], len_bytes[1]]);
    let nlen = u16::from_le_bytes([nlen_bytes[0], nlen_bytes[1]]);
    if len != !nlen {
        return Err(DecodeError::InvalidStream("stored LEN/NLEN mismatch"));
    }
    check_room(out, len as usize, max_out)?;
    let payload = reader.read_bytes(len as usize)?;
    out.extend_from_slice(&payload);
    Ok(())
}

fn read_dynamic_tables(
    reader: &mut BitReader<'_>,
) -> Result<(Decoder, Option<Decoder>), DecodeError> {
    let hlit = reader.read_bits(5)? as usize + 257;
    let hdist = reader.read_bits(5)? as usize + 1;
    let hclen = reader.read_bits(4)? as usize + 4;
    if hlit > 286 || hdist > 30 {
        return Err(DecodeError::InvalidStream("table sizes out of range"));
    }
    let mut clc_lens = [0u8; 19];
    for &sym in CLC_ORDER.iter().take(hclen) {
        clc_lens[sym] = reader.read_bits(3)? as u8;
    }
    let clc =
        Decoder::from_lengths(&clc_lens).ok_or(DecodeError::InvalidStream("code-length code"))?;

    let total = hlit + hdist;
    let mut lengths = Vec::with_capacity(total);
    while lengths.len() < total {
        let sym = clc.decode(reader)?;
        match sym {
            0..=15 => lengths.push(sym as u8),
            16 => {
                let prev = *lengths
                    .last()
                    .ok_or(DecodeError::InvalidStream("repeat with no previous length"))?;
                let run = reader.read_bits(2)? + 3;
                for _ in 0..run {
                    lengths.push(prev);
                }
            }
            17 => {
                let run = reader.read_bits(3)? + 3;
                lengths.extend(std::iter::repeat_n(0, run as usize));
            }
            18 => {
                let run = reader.read_bits(7)? + 11;
                lengths.extend(std::iter::repeat_n(0, run as usize));
            }
            _ => return Err(DecodeError::InvalidStream("bad code-length symbol")),
        }
    }
    if lengths.len() != total {
        return Err(DecodeError::InvalidStream("code lengths overflow tables"));
    }
    let (lit_lens, dist_lens) = lengths.split_at(hlit);
    if lit_lens[256] == 0 {
        return Err(DecodeError::InvalidStream("no end-of-block code"));
    }
    let lit = Decoder::from_lengths(lit_lens)
        .ok_or(DecodeError::InvalidStream("literal/length table"))?;
    // A stream with no matches may transmit an empty distance code.
    let dist = Decoder::from_lengths(dist_lens);
    Ok((lit, dist))
}

fn inflate_block(
    reader: &mut BitReader<'_>,
    out: &mut Vec<u8>,
    max_out: usize,
    lit: &Decoder,
    dist: Option<&Decoder>,
) -> Result<(), DecodeError> {
    loop {
        let sym = lit.decode(reader)?;
        match sym {
            0..=255 => {
                check_room(out, 1, max_out)?;
                out.push(sym as u8);
            }
            256 => return Ok(()),
            257..=285 => {
                let (base, extra) = LENGTH_TABLE[(sym - 257) as usize];
                let length = base as usize + reader.read_bits(extra as u32)? as usize;
                let dist_decoder =
                    dist.ok_or(DecodeError::InvalidStream("match with no distance table"))?;
                let dsym = dist_decoder.decode(reader)?;
                if dsym >= 30 {
                    return Err(DecodeError::InvalidStream("bad distance symbol"));
                }
                let (dbase, dextra) = DIST_TABLE[dsym as usize];
                let distance = dbase as usize + reader.read_bits(dextra as u32)? as usize;
                if distance == 0 || distance > out.len() {
                    return Err(DecodeError::BadDistance);
                }
                check_room(out, length, max_out)?;
                for _ in 0..length {
                    let b = out[out.len() - distance];
                    out.push(b);
                }
            }
            _ => return Err(DecodeError::InvalidStream("bad literal/length symbol")),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::deflate::{compress, compress_with, Strategy};
    use proptest::prelude::*;

    #[test]
    fn handcrafted_stored_block() {
        // BFINAL=1, BTYPE=00, align, LEN=3, NLEN=!3, "abc".
        let stream = [0x01, 0x03, 0x00, 0xFC, 0xFF, b'a', b'b', b'c'];
        assert_eq!(decompress(&stream).unwrap(), b"abc");
    }

    #[test]
    fn stored_nlen_mismatch_rejected() {
        let stream = [0x01, 0x03, 0x00, 0x00, 0x00, b'a', b'b', b'c'];
        assert_eq!(
            decompress(&stream),
            Err(DecodeError::InvalidStream("stored LEN/NLEN mismatch"))
        );
    }

    #[test]
    fn truncated_input_rejected() {
        let good = compress(b"hello hello hello hello");
        for cut in 0..good.len() {
            // Every strict prefix must fail (never panic, never succeed
            // with the full output).
            if let Ok(out) = decompress(&good[..cut]) {
                assert_ne!(out, b"hello hello hello hello");
            }
        }
    }

    #[test]
    fn reserved_block_type_rejected() {
        // BFINAL=1, BTYPE=11.
        let stream = [0b0000_0111];
        assert_eq!(
            decompress(&stream),
            Err(DecodeError::InvalidStream("reserved block type"))
        );
    }

    #[test]
    fn empty_input_is_eof() {
        assert_eq!(decompress(&[]), Err(DecodeError::UnexpectedEof));
    }

    #[test]
    fn bad_distance_rejected() {
        // Craft a fixed block: one literal then a match with distance 4
        // (> output length 1).
        use crate::bitio::BitWriter;
        use crate::lz77::Token;
        let tokens = [
            Token::Literal(b'x'),
            Token::Match {
                length: 3,
                distance: 4,
            },
        ];
        let mut w = BitWriter::new();
        crate::deflate::write_fixed_block(&mut w, &tokens, true);
        let stream = w.finish();
        assert_eq!(decompress(&stream), Err(DecodeError::BadDistance));
    }

    #[test]
    fn multi_block_streams() {
        // Two fixed blocks back to back.
        use crate::bitio::BitWriter;
        use crate::lz77::Token;
        let mut w = BitWriter::new();
        crate::deflate::write_fixed_block(&mut w, &[Token::Literal(b'a')], false);
        crate::deflate::write_fixed_block(&mut w, &[Token::Literal(b'b')], true);
        assert_eq!(decompress(&w.finish()).unwrap(), b"ab");
    }

    /// A fixed block of one literal and then 258-byte distance-1 matches
    /// for `stream_bytes` of input (13 bits each, ~160x expansion), with
    /// no end-of-block: the whole stream decodes to far more than a page
    /// and then ends mid-block.
    fn match_bomb(stream_bytes: usize) -> Vec<u8> {
        use crate::bitio::BitWriter;
        let mut w = BitWriter::new();
        w.write_bits(1, 1);
        w.write_bits(0b01, 2);
        w.write_huffman(0b0011_0000 + u32::from(b'a'), 8);
        while w.bit_len() + 13 <= stream_bytes * 8 {
            w.write_huffman(0b1100_0101, 8); // length symbol 285: 258
            w.write_huffman(0, 5); // distance symbol 0: 1
        }
        w.finish()
    }

    #[test]
    fn match_bomb_stops_at_the_bound() {
        let bomb = match_bomb(4096);
        assert!(bomb.len() <= 4096);
        // Unbounded, the stream inflates ~650 KB before it runs out of
        // input; bounded, decoding stops at the first match past 4 KB.
        assert_eq!(decompress(&bomb), Err(DecodeError::UnexpectedEof));
        assert_eq!(
            decompress_bounded(&bomb, 4096),
            Err(DecodeError::OutputTooLarge(4096))
        );
    }

    #[test]
    fn bound_is_inclusive_for_every_block_type() {
        let data = crate::corpus::html(4096, 3);
        for s in [Strategy::Stored, Strategy::Fixed, Strategy::Dynamic] {
            let out = compress_with(&data, s);
            assert_eq!(decompress_bounded(&out, 4096).unwrap(), data, "{s:?}");
            assert_eq!(
                decompress_bounded(&out, 4095),
                Err(DecodeError::OutputTooLarge(4095)),
                "{s:?}"
            );
        }
    }

    proptest! {
        #[test]
        fn prop_decompress_never_panics(junk in proptest::collection::vec(any::<u8>(), 0..512)) {
            let _ = decompress(&junk); // must return, never panic
        }

        #[test]
        fn prop_round_trip_all_strategies(data in proptest::collection::vec(any::<u8>(), 0..4096)) {
            for s in [Strategy::Stored, Strategy::Fixed, Strategy::Dynamic] {
                let out = compress_with(&data, s);
                prop_assert_eq!(&decompress(&out).unwrap(), &data);
            }
        }
    }
}
