//! LSB-first bit I/O, the bit order Deflate (RFC 1951 §3.1.1) uses:
//! within a byte, bits are consumed least-significant first; Huffman
//! codes are packed starting from their *most* significant bit, so the
//! writer provides [`BitWriter::write_huffman`] which reverses the code.
//!
//! [`BitWriter`] flushes 32 bits at a time; [`BytewiseBitWriter`] is the
//! byte-at-a-time writer it replaced, kept as the test oracle.

use crate::DecodeError;

/// Accumulates bits LSB-first into a byte vector, flushing whole 32-bit
/// words.
///
/// # Example
///
/// ```
/// use ulp_compress::bitio::BitWriter;
/// let mut w = BitWriter::new();
/// w.write_bits(0b101, 3);
/// w.write_bits(0b11, 2);
/// let bytes = w.finish();
/// assert_eq!(bytes, vec![0b0001_1101]);
/// ```
#[derive(Debug, Clone, Default)]
pub struct BitWriter {
    out: Vec<u8>,
    /// Pending bits, LSB first; fewer than 32 between calls.
    acc: u64,
    nbits: u32,
}

impl BitWriter {
    /// Creates an empty writer.
    pub fn new() -> BitWriter {
        BitWriter::default()
    }

    /// Writes the low `n` bits of `value`, LSB-first.
    ///
    /// # Panics
    ///
    /// Panics if `n > 32`.
    pub fn write_bits(&mut self, value: u32, n: u32) {
        assert!(n <= 32, "at most 32 bits per call");
        debug_assert!(n == 32 || value < (1 << n), "value wider than n bits");
        self.acc |= (value as u64) << self.nbits;
        self.nbits += n;
        if self.nbits >= 32 {
            self.out.extend_from_slice(&(self.acc as u32).to_le_bytes());
            self.acc >>= 32;
            self.nbits -= 32;
        }
    }

    /// Writes a Huffman code of `len` bits: Deflate packs codes starting
    /// from the MSB, so the code is bit-reversed before writing.
    pub fn write_huffman(&mut self, code: u32, len: u32) {
        let reversed = code.reverse_bits() >> (32 - len);
        self.write_bits(reversed, len);
    }

    /// Pads to a byte boundary with zero bits (used before stored blocks).
    pub fn align_byte(&mut self) {
        let partial = self.nbits % 8;
        if partial > 0 {
            self.write_bits(0, 8 - partial);
        }
    }

    /// Moves the pending whole bytes to the output.
    fn flush_bytes(&mut self) {
        let bytes = (self.nbits / 8) as usize;
        self.out.extend_from_slice(&self.acc.to_le_bytes()[..bytes]);
        self.acc >>= bytes * 8;
        self.nbits %= 8;
    }

    /// Appends raw bytes; the writer must be byte-aligned.
    ///
    /// # Panics
    ///
    /// Panics if the writer is not at a byte boundary.
    pub fn write_bytes(&mut self, bytes: &[u8]) {
        assert_eq!(self.nbits % 8, 0, "write_bytes requires byte alignment");
        self.flush_bytes();
        self.out.extend_from_slice(bytes);
    }

    /// Total bits written so far.
    pub fn bit_len(&self) -> usize {
        self.out.len() * 8 + self.nbits as usize
    }

    /// Flushes any partial byte (zero-padded) and returns the bytes.
    pub fn finish(mut self) -> Vec<u8> {
        self.align_byte();
        self.flush_bytes();
        self.out
    }
}

/// The byte-at-a-time LSB-first writer [`BitWriter`] replaced: same
/// output, one `push` per completed byte. Kept as the oracle the word
/// writer is checked against and as the `before` side of the
/// `hw_compress_page` hot-path row.
#[derive(Debug, Clone, Default)]
pub struct BytewiseBitWriter {
    out: Vec<u8>,
    acc: u64,
    nbits: u32,
}

impl BytewiseBitWriter {
    /// Creates an empty writer.
    pub fn new() -> BytewiseBitWriter {
        BytewiseBitWriter::default()
    }

    /// Writes the low `n` bits of `value`, LSB-first.
    ///
    /// # Panics
    ///
    /// Panics if `n > 32`.
    pub fn write_bits(&mut self, value: u32, n: u32) {
        assert!(n <= 32, "at most 32 bits per call");
        self.acc |= (value as u64) << self.nbits;
        self.nbits += n;
        while self.nbits >= 8 {
            self.out.push((self.acc & 0xff) as u8);
            self.acc >>= 8;
            self.nbits -= 8;
        }
    }

    /// Writes a bit-reversed Huffman code of `len` bits.
    pub fn write_huffman(&mut self, code: u32, len: u32) {
        let reversed = code.reverse_bits() >> (32 - len);
        self.write_bits(reversed, len);
    }

    /// Pads to a byte boundary with zero bits.
    pub fn align_byte(&mut self) {
        if self.nbits > 0 {
            let pad = 8 - self.nbits;
            self.write_bits(0, pad);
        }
    }

    /// Appends raw bytes; the writer must be byte-aligned.
    ///
    /// # Panics
    ///
    /// Panics if the writer is not at a byte boundary.
    pub fn write_bytes(&mut self, bytes: &[u8]) {
        assert_eq!(self.nbits, 0, "write_bytes requires byte alignment");
        self.out.extend_from_slice(bytes);
    }

    /// Total bits written so far.
    pub fn bit_len(&self) -> usize {
        self.out.len() * 8 + self.nbits as usize
    }

    /// Flushes any partial byte (zero-padded) and returns the bytes.
    pub fn finish(mut self) -> Vec<u8> {
        self.align_byte();
        self.out
    }
}

/// Reads bits LSB-first from a byte slice.
///
/// # Example
///
/// ```
/// use ulp_compress::bitio::BitReader;
/// let mut r = BitReader::new(&[0b0001_1101]);
/// assert_eq!(r.read_bits(3).unwrap(), 0b101);
/// assert_eq!(r.read_bits(2).unwrap(), 0b11);
/// ```
#[derive(Debug, Clone)]
pub struct BitReader<'a> {
    data: &'a [u8],
    pos: usize,
    acc: u64,
    nbits: u32,
}

impl<'a> BitReader<'a> {
    /// Creates a reader over `data`.
    pub fn new(data: &'a [u8]) -> BitReader<'a> {
        BitReader {
            data,
            pos: 0,
            acc: 0,
            nbits: 0,
        }
    }

    fn refill(&mut self) {
        while self.nbits <= 56 && self.pos < self.data.len() {
            self.acc |= (self.data[self.pos] as u64) << self.nbits;
            self.pos += 1;
            self.nbits += 8;
        }
    }

    /// Reads `n` bits.
    ///
    /// # Errors
    ///
    /// Returns [`DecodeError::UnexpectedEof`] if fewer than `n` bits
    /// remain.
    pub fn read_bits(&mut self, n: u32) -> Result<u32, DecodeError> {
        assert!(n <= 32, "at most 32 bits per call");
        self.refill();
        if self.nbits < n {
            return Err(DecodeError::UnexpectedEof);
        }
        let v = (self.acc & ((1u64 << n) - 1)) as u32;
        let v = if n == 0 { 0 } else { v };
        self.acc >>= n;
        self.nbits -= n;
        Ok(v)
    }

    /// Discards bits to the next byte boundary.
    pub fn align_byte(&mut self) {
        let drop = self.nbits % 8;
        self.acc >>= drop;
        self.nbits -= drop;
    }

    /// Reads `n` raw bytes; the reader must be byte-aligned.
    ///
    /// # Errors
    ///
    /// Returns [`DecodeError::UnexpectedEof`] if not enough bytes remain.
    ///
    /// # Panics
    ///
    /// Panics if the reader is not byte-aligned.
    pub fn read_bytes(&mut self, n: usize) -> Result<Vec<u8>, DecodeError> {
        assert_eq!(self.nbits % 8, 0, "read_bytes requires byte alignment");
        let mut out = Vec::with_capacity(n);
        for _ in 0..n {
            let b = self.read_bits(8)?;
            out.push(b as u8);
        }
        Ok(out)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn writer_packs_lsb_first() {
        let mut w = BitWriter::new();
        w.write_bits(1, 1);
        w.write_bits(0, 1);
        w.write_bits(0b111, 3);
        assert_eq!(w.finish(), vec![0b0001_1101]);
    }

    #[test]
    fn huffman_codes_are_reversed() {
        let mut w = BitWriter::new();
        // Code 0b110 (3 bits) must be emitted MSB-first: bits 1,1,0.
        w.write_huffman(0b110, 3);
        assert_eq!(w.finish(), vec![0b0000_0011]);
    }

    #[test]
    fn align_and_raw_bytes() {
        let mut w = BitWriter::new();
        w.write_bits(1, 1);
        w.align_byte();
        w.write_bytes(&[0xAB, 0xCD]);
        assert_eq!(w.finish(), vec![0x01, 0xAB, 0xCD]);
    }

    #[test]
    fn bit_len_tracks_partial_bytes() {
        let mut w = BitWriter::new();
        assert_eq!(w.bit_len(), 0);
        w.write_bits(0, 5);
        assert_eq!(w.bit_len(), 5);
        w.write_bits(0, 5);
        assert_eq!(w.bit_len(), 10);
    }

    #[test]
    fn reader_round_trip() {
        let mut w = BitWriter::new();
        w.write_bits(0b1011, 4);
        w.write_bits(0x3FF, 10);
        w.write_bits(0, 2);
        let bytes = w.finish();
        let mut r = BitReader::new(&bytes);
        assert_eq!(r.read_bits(4).unwrap(), 0b1011);
        assert_eq!(r.read_bits(10).unwrap(), 0x3FF);
        assert_eq!(r.read_bits(2).unwrap(), 0);
    }

    #[test]
    fn reader_eof() {
        let mut r = BitReader::new(&[0xFF]);
        assert_eq!(r.read_bits(8).unwrap(), 0xFF);
        assert_eq!(r.read_bits(1), Err(DecodeError::UnexpectedEof));
    }

    #[test]
    fn reader_align_and_bytes() {
        let mut w = BitWriter::new();
        w.write_bits(0b11, 2);
        w.align_byte();
        w.write_bytes(&[0x42]);
        let bytes = w.finish();
        let mut r = BitReader::new(&bytes);
        assert_eq!(r.read_bits(2).unwrap(), 0b11);
        r.align_byte();
        assert_eq!(r.read_bytes(1).unwrap(), vec![0x42]);
    }

    #[test]
    #[should_panic(expected = "write_bytes requires byte alignment")]
    fn unaligned_write_bytes_panics_past_a_word() {
        let mut w = BitWriter::new();
        w.write_bits(0x1_FFFF, 17);
        w.write_bits(0x7FFF, 15);
        w.write_bits(1, 3);
        w.write_bytes(&[0]);
    }

    /// One writer call of the interleaving proptest.
    #[derive(Debug, Clone)]
    enum Op {
        Bits(u32, u32),
        Huffman(u32, u32),
        Align,
        Bytes(Vec<u8>),
    }

    fn op() -> impl Strategy<Value = Op> {
        (
            0u32..4,
            any::<u32>(),
            0u32..=32,
            proptest::collection::vec(any::<u8>(), 0..9),
        )
            .prop_map(|(kind, v, n, bytes)| match kind {
                0 => Op::Bits(if n == 32 { v } else { v & ((1 << n) - 1) }, n),
                1 => Op::Huffman(v & ((1 << n.clamp(1, 15)) - 1), n.clamp(1, 15)),
                2 => Op::Align,
                _ => Op::Bytes(bytes),
            })
    }

    proptest! {
        #[test]
        fn prop_word_writer_matches_bytewise_writer(ops in proptest::collection::vec(op(), 0..200)) {
            let mut w = BitWriter::new();
            let mut oracle = BytewiseBitWriter::new();
            for op in ops {
                match op {
                    Op::Bits(v, n) => {
                        w.write_bits(v, n);
                        oracle.write_bits(v, n);
                    }
                    Op::Huffman(c, l) => {
                        w.write_huffman(c, l);
                        oracle.write_huffman(c, l);
                    }
                    Op::Align => {
                        w.align_byte();
                        oracle.align_byte();
                    }
                    // Raw bytes need alignment: both writers pad first.
                    Op::Bytes(b) => {
                        w.align_byte();
                        w.write_bytes(&b);
                        oracle.align_byte();
                        oracle.write_bytes(&b);
                    }
                }
                prop_assert_eq!(w.bit_len(), oracle.bit_len());
            }
            prop_assert_eq!(w.finish(), oracle.finish());
        }

        #[test]
        fn prop_round_trip_bit_sequences(fields in proptest::collection::vec((0u32..=0xFFFF, 1u32..=16), 0..64)) {
            let mut w = BitWriter::new();
            for &(v, n) in &fields {
                w.write_bits(v & ((1 << n) - 1), n);
            }
            let bytes = w.finish();
            let mut r = BitReader::new(&bytes);
            for &(v, n) in &fields {
                prop_assert_eq!(r.read_bits(n).unwrap(), v & ((1 << n) - 1));
            }
        }
    }
}
