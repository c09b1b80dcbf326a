//! A fixed, seedless hasher for integer-keyed indexes on hot paths.
//!
//! `std`'s `RandomState` seeds SipHash per process, so iteration order
//! differs run to run (simlint's DET-HASH). A map built with
//! [`FixedState`] hashes alike in every run, but must still only be
//! probed by key, never iterated.

/// Multiply-xor hasher: the keys it serves (page numbers, packed DRAM
/// coordinates) are already well distributed, so SipHash's DoS hardening
/// would only add latency to every probe.
#[derive(Debug, Default, Clone, Copy)]
pub struct FixedHasher(u64);

impl std::hash::Hasher for FixedHasher {
    fn finish(&self) -> u64 {
        self.0
    }

    fn write(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 = (self.0 ^ b as u64).wrapping_mul(0x100_0000_01b3);
        }
    }

    fn write_u64(&mut self, v: u64) {
        self.0 = (self.0 ^ v).wrapping_mul(0x9E37_79B9_7F4A_7C15);
        self.0 ^= self.0 >> 32;
    }
}

/// The `BuildHasher` for maps keyed through [`FixedHasher`].
pub type FixedState = std::hash::BuildHasherDefault<FixedHasher>;
