//! `ulp-compress` implements the (de)compression upper-layer protocol that
//! SmartDIMM offloads: the Deflate format (RFC 1951), written from
//! scratch, plus the *hardware-model* compressor that mirrors the design
//! choices of the paper's Deflate DSA (§V-B).
//!
//! Layout:
//!
//! * [`bitio`] — LSB-first bit readers/writers (Deflate's bit order),
//! * [`huffman`] — canonical prefix codes, the fixed Deflate codes, and a
//!   length-limited (package-merge) code builder for dynamic blocks,
//! * [`lz77`] — the token model and a hash-chain match finder (the
//!   software baseline, standing in for zlib running on the CPU),
//! * [`deflate`] — a complete encoder emitting stored, fixed and dynamic
//!   blocks,
//! * [`inflate`] — a complete decoder for all three block types,
//! * [`hwmodel`] — the SmartDIMM Deflate DSA: 8-byte parallelization
//!   window, 8-bank candidate memory with conflict dropping, 4 KB history,
//!   deterministic per-cacheline latency,
//! * [`corpus`] — deterministic synthetic corpora used by the benchmarks.
//!
//! Every compressor in this crate produces a stream that [`inflate`]
//! decodes back to the original input; this cross-validation is enforced
//! by property tests.
//!
//! # Example
//!
//! ```
//! use ulp_compress::{deflate, inflate};
//!
//! let data = b"the quick brown fox jumps over the lazy dog, the quick brown fox".to_vec();
//! let compressed = deflate::compress(&data);
//! assert!(compressed.len() < data.len());
//! let restored = inflate::decompress(&compressed).unwrap();
//! assert_eq!(restored, data);
//! ```

#![forbid(unsafe_code)]

pub mod bitio;
pub mod corpus;
pub mod deflate;
pub mod huffman;
pub mod hwmodel;
pub mod inflate;
pub mod lz77;

/// Errors produced while decoding a Deflate stream.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DecodeError {
    /// The input ended before the stream was complete.
    UnexpectedEof,
    /// A block header or Huffman code was invalid.
    InvalidStream(&'static str),
    /// A back-reference pointed before the start of the output.
    BadDistance,
    /// The output would exceed the caller's bound (the payload, in
    /// bytes): decoding stops there instead of inflating the rest.
    OutputTooLarge(usize),
}

impl std::fmt::Display for DecodeError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            DecodeError::UnexpectedEof => write!(f, "unexpected end of compressed input"),
            DecodeError::InvalidStream(what) => write!(f, "invalid deflate stream: {what}"),
            DecodeError::BadDistance => write!(f, "back-reference beyond window start"),
            DecodeError::OutputTooLarge(limit) => {
                write!(f, "decompressed output exceeds {limit} bytes")
            }
        }
    }
}

impl std::error::Error for DecodeError {}
