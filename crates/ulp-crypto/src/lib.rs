//! `ulp-crypto` implements the cryptography SmartDIMM's TLS DSA offloads:
//! the AES-128 forward cipher, GHASH over GF(2^128) and AES-GCM. TLS
//! record framing and the TLS traffic-key derivation stay in the host's
//! software stack, which the simulator bills as cost constants. SHA-256
//! is kept for the benchmark's snapshot digests.
//!
//! Everything is written from scratch (no external crypto crates) because
//! the SmartDIMM DSA model in the `smartdimm` crate needs access to the
//! *internals*: precomputed powers of `H`, per-cacheline out-of-order
//! keystream generation, and partial authentication tags ([`gcm::OooGcm`]).
//! Those are exactly the pieces §V-A of the paper moves into the DIMM
//! buffer device.
//!
//! Functional correctness is anchored to published test vectors
//! (FIPS-197 for AES, the McGrew–Viega GCM vectors, FIPS 180-4 for
//! SHA-256) plus round-trip property tests.
//!
//! # Example
//!
//! ```
//! use ulp_crypto::gcm::AesGcm;
//!
//! let key = [0u8; 16];
//! let iv = [0u8; 12];
//! let gcm = AesGcm::new_128(&key);
//! let (ct, tag) = gcm.seal(&iv, b"", b"hello, smartdimm");
//! let pt = gcm.open(&iv, b"", &ct, &tag).expect("tag verifies");
//! assert_eq!(pt, b"hello, smartdimm");
//! ```

pub mod aes;
pub mod gcm;
pub mod gf128;
pub mod ghash;
pub mod sha256;

/// Errors produced by this crate's fallible operations.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CryptoError {
    /// Authentication tag mismatch during AEAD open.
    TagMismatch,
}

impl std::fmt::Display for CryptoError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            CryptoError::TagMismatch => write!(f, "authentication tag mismatch"),
        }
    }
}

impl std::error::Error for CryptoError {}
