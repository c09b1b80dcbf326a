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
//! # Backends
//!
//! AES and the GF(2^128) multiply run on one of two [`Backend`]s, picked
//! once when a key is set up ([`aes::Aes::new_128`],
//! [`gcm::AesGcm::new_128`], [`gf128::GfMulTable::new`]): the hardware
//! kernels (AES-NI CTR, PCLMULQDQ products) on an x86_64 host that has
//! the instructions, and the portable T-table AES and Shoup-table GHASH
//! everywhere else. Both compute the same bytes; the `*_portable`
//! constructors build the portable backend explicitly so tests and
//! benchmarks compare the two on any host. All `unsafe` code lives in
//! the private x86_64 `hw` module, and the crate denies it elsewhere.
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

#![deny(unsafe_code)]

pub mod aes;
pub mod gcm;
pub mod gf128;
pub mod ghash;
#[cfg(target_arch = "x86_64")]
#[allow(unsafe_code)]
mod hw;
pub mod sha256;

/// Which kernels a key's AES and GF(2^128) products run on.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Backend {
    /// T-table AES and Shoup-table GHASH, on any host.
    Portable,
    /// AES-NI and PCLMULQDQ, on x86_64 hosts that have them.
    Hardware,
}

/// The kernels one key runs on, fixed at key setup. The hardware
/// variant carries the `hw::Hw` token, so it exists only on a host whose
/// CPU has the instructions.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum Kernels {
    Portable,
    #[cfg(target_arch = "x86_64")]
    Hardware(hw::Hw),
}

impl Kernels {
    /// The hardware kernels if this host has them, else the portable ones.
    pub(crate) fn detect() -> Kernels {
        #[cfg(target_arch = "x86_64")]
        {
            if let Some(hw) = hw::Hw::detect() {
                return Kernels::Hardware(hw);
            }
        }
        Kernels::Portable
    }

    pub(crate) fn backend(self) -> Backend {
        match self {
            Kernels::Portable => Backend::Portable,
            #[cfg(target_arch = "x86_64")]
            Kernels::Hardware(_) => Backend::Hardware,
        }
    }
}

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
