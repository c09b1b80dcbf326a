//! AES-GCM authenticated encryption (NIST SP 800-38D), in two forms:
//!
//! * [`AesGcm`] — the textbook sequential implementation, standing in for
//!   the CPU/OpenSSL baseline, and
//! * [`OooGcm`] — the out-of-order, cacheline-granular engine that models
//!   SmartDIMM's TLS DSA (§V-A): the CPU supplies the hash subkey `H` and
//!   the encrypted IV `EIV = E_K(J0)` through Config Memory, the engine
//!   precomputes powers of `H`, and 64-byte cachelines are then processed
//!   in *any* order as their rdCAS commands arrive at the buffer device.
//!
//! The engine's GHASH works a cacheline at a time. Ciphertext block `j`
//! of `C` carries weight `H^(C+1−j)`, so a line's ≤4 blocks fold by
//! Horner with the per-key `H` table and the fold is then multiplied
//! once by `H^(C+1−b)`, `b` being the line's last block. Every full
//! line takes that power from a table of `⌊C/4⌋` powers spaced `H^4`
//! apart, filled at registration by multiplying by `H^4` (the paper's
//! "strides of 4"); the short tail line always ends at block
//! `C−1` and uses `H^2`. The length block uses `H^1`, and the AAD's own
//! sequential GHASH is weighted by `H^(C+1)`. The per-block
//! [`crate::ghash::HPowers`] / [`crate::ghash::OooGhash`] form stays as
//! the test oracle.
//!
//! Both forms run every AES block and GF(2^128) product on the backend
//! their key was set up on ([`AesGcm::new_128`] picks the hardware one
//! where the host has it, [`AesGcm::new_128_portable`] the tables), so a
//! hardware key builds no 4 KB table, only `H^2..H^4`.
//!
//! Only 96-bit IVs are supported — the TLS 1.2/1.3 AEAD nonce size, and
//! the only case where `J0` needs no GHASH (the paper's DSA relies on
//! this).

use crate::aes::Aes;
use crate::gf128::{Gf128, GfMulTable};
use crate::ghash::fold_padded;
use crate::{Backend, CryptoError, Kernels};

/// GCM tag length in bytes (full 128-bit tags only).
pub const TAG_LEN: usize = 16;
/// GCM nonce length in bytes (96-bit IVs only).
pub const IV_LEN: usize = 12;
/// The cacheline granularity at which SmartDIMM's DSA processes data.
pub const CACHELINE: usize = 64;

fn j0(iv: &[u8; IV_LEN]) -> [u8; 16] {
    let mut block = [0u8; 16];
    block[..IV_LEN].copy_from_slice(iv);
    block[15] = 1;
    block
}

fn length_block(aad_bits: u64, ct_bits: u64) -> [u8; 16] {
    let mut block = [0u8; 16];
    block[..8].copy_from_slice(&aad_bits.to_be_bytes());
    block[8..].copy_from_slice(&ct_bits.to_be_bytes());
    block
}

/// Sequential AES-GCM, the software baseline.
///
/// # Example
///
/// ```
/// use ulp_crypto::gcm::AesGcm;
/// let gcm = AesGcm::new_128(&[1u8; 16]);
/// let iv = [2u8; 12];
/// let (ct, tag) = gcm.seal(&iv, b"header", b"payload");
/// assert_eq!(gcm.open(&iv, b"header", &ct, &tag).unwrap(), b"payload");
/// assert!(gcm.open(&iv, b"tampered", &ct, &tag).is_err());
/// ```
#[derive(Debug, Clone)]
pub struct AesGcm {
    aes: Aes,
    h: Gf128,
    /// Per-key multiplication by `H` (`H` and its first four powers on
    /// the hardware backend).
    h_table: GfMulTable,
}

impl AesGcm {
    /// Creates a GCM instance from a 128-bit key, on the hardware
    /// backend if this host has AES-NI and PCLMULQDQ.
    pub fn new_128(key: &[u8; 16]) -> AesGcm {
        AesGcm::from_aes(Aes::new_128(key))
    }

    /// Creates a GCM instance on the portable backend (T-table AES,
    /// 8-bit Shoup GHASH table), whatever the host supports.
    pub fn new_128_portable(key: &[u8; 16]) -> AesGcm {
        AesGcm::from_aes(Aes::new_128_portable(key))
    }

    fn from_aes(aes: Aes) -> AesGcm {
        let h = Gf128::from_bytes(&aes.encrypt_block(&[0u8; 16]));
        let h_table = GfMulTable::with_kernels(h, aes.kernels());
        AesGcm { aes, h, h_table }
    }

    /// The backend this key was set up on.
    pub fn backend(&self) -> Backend {
        self.aes.backend()
    }

    fn kernels(&self) -> Kernels {
        self.aes.kernels()
    }

    /// The hash subkey `H = E_K(0^128)` — the value the CPU writes into
    /// SmartDIMM's Config Memory at registration time.
    pub fn hash_subkey(&self) -> Gf128 {
        self.h
    }

    /// `EIV = E_K(J0)` for the given IV — the other value shipped to the
    /// DSA; the final tag is `GHASH ⊕ EIV`.
    pub fn encrypted_iv(&self, iv: &[u8; IV_LEN]) -> [u8; 16] {
        self.aes.encrypt_block(&j0(iv))
    }

    /// XORs `data` (located at byte `offset` within the message) with the
    /// keystream in place. Works for encryption and decryption alike.
    ///
    /// # Panics
    ///
    /// Panics if `offset` is not 16-byte aligned (partial-block starts are
    /// not needed anywhere in the stack and would complicate the DSA).
    pub fn xor_keystream(&self, iv: &[u8; IV_LEN], offset: usize, data: &mut [u8]) {
        assert!(offset.is_multiple_of(16), "offset must be block aligned");
        // Data counters start at 2: J0 has counter 1.
        let first_counter = ((offset / 16) as u32).wrapping_add(2);
        self.aes.ctr32_xor(iv, first_counter, data);
    }

    /// Encrypts `plaintext` with associated data `aad`, returning the
    /// ciphertext and authentication tag.
    pub fn seal(
        &self,
        iv: &[u8; IV_LEN],
        aad: &[u8],
        plaintext: &[u8],
    ) -> (Vec<u8>, [u8; TAG_LEN]) {
        let mut ct = plaintext.to_vec();
        self.xor_keystream(iv, 0, &mut ct);
        let tag = self.compute_tag(iv, aad, &ct);
        (ct, tag)
    }

    /// Decrypts and authenticates; returns the plaintext.
    ///
    /// # Errors
    ///
    /// Returns [`CryptoError::TagMismatch`] if the tag does not verify;
    /// no plaintext is released in that case.
    pub fn open(
        &self,
        iv: &[u8; IV_LEN],
        aad: &[u8],
        ciphertext: &[u8],
        tag: &[u8; TAG_LEN],
    ) -> Result<Vec<u8>, CryptoError> {
        let expect = self.compute_tag(iv, aad, ciphertext);
        // Constant-time-ish comparison (branch-free accumulate).
        let diff = expect
            .iter()
            .zip(tag.iter())
            .fold(0u8, |acc, (a, b)| acc | (a ^ b));
        if diff != 0 {
            return Err(CryptoError::TagMismatch);
        }
        let mut pt = ciphertext.to_vec();
        self.xor_keystream(iv, 0, &mut pt);
        Ok(pt)
    }

    fn compute_tag(&self, iv: &[u8; IV_LEN], aad: &[u8], ct: &[u8]) -> [u8; TAG_LEN] {
        let h = &self.h_table;
        let y = fold_padded(h, fold_padded(h, Gf128::ZERO, aad), ct);
        let len_block = length_block(aad.len() as u64 * 8, ct.len() as u64 * 8);
        let mut tag = h.mul(y + Gf128::from_bytes(&len_block)).to_bytes();
        let eiv = self.encrypted_iv(iv);
        for (t, e) in tag.iter_mut().zip(eiv.iter()) {
            *t ^= e;
        }
        tag
    }
}

/// Whether the DSA is encrypting (TX path) or decrypting (RX path).
///
/// GHASH is always computed over the *ciphertext*, so the engine must know
/// whether its input cachelines are plaintext or ciphertext.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Direction {
    /// Input cachelines are plaintext; output is ciphertext.
    Encrypt,
    /// Input cachelines are ciphertext; output is plaintext.
    Decrypt,
}

/// Out-of-order, cacheline-granular AES-GCM — the TLS DSA model.
///
/// One `OooGcm` instance corresponds to one registered source-buffer page
/// span: it is created when the CPU writes the offload context (round
/// keys, IV, `EIV`, message length, AAD) into Config Memory, precomputes
/// the powers of `H` (the paper's GF multiplier running "in strides of
/// 4", one power per full cacheline), and then accepts 64-byte
/// cachelines in arbitrary order as rdCAS commands deliver them.
///
/// # Example
///
/// ```
/// use ulp_crypto::gcm::{AesGcm, Direction, OooGcm};
///
/// let key = [9u8; 16];
/// let iv = [3u8; 12];
/// let msg = vec![0xAB; 200];
///
/// // Reference: sequential seal.
/// let gcm = AesGcm::new_128(&key);
/// let (want_ct, want_tag) = gcm.seal(&iv, b"", &msg);
///
/// // DSA: process the four cachelines out of order.
/// let mut dsa = OooGcm::new(AesGcm::new_128(&key), iv, b"", msg.len(), Direction::Encrypt);
/// let mut got = vec![0u8; 200];
/// for start in [192usize, 64, 0, 128] {
///     let end = (start + 64).min(200);
///     let out = dsa.process_cacheline(start, &msg[start..end]);
///     got[start..end].copy_from_slice(&out[..end - start]);
/// }
/// assert!(dsa.is_complete());
/// assert_eq!(got, want_ct);
/// assert_eq!(dsa.tag(), want_tag);
/// ```
#[derive(Debug, Clone)]
pub struct OooGcm {
    gcm: AesGcm,
    iv: [u8; IV_LEN],
    eiv: [u8; 16],
    msg_len: usize,
    /// `line_powers[l] = H^(C−2−4l)`, the weight of full cacheline `l`'s
    /// Horner fold (`C` ciphertext blocks; its last block is `4l+3`).
    line_powers: Vec<Gf128>,
    acc: Gf128,
    direction: Direction,
    bytes_processed: usize,
    absorbed_metadata: bool,
}

impl OooGcm {
    /// Registers a new offload: fixes the IV, AAD and total message
    /// length, precomputes powers of `H` and absorbs the AAD and length
    /// blocks (both known at registration time).
    ///
    /// # Panics
    ///
    /// Panics if `msg_len` is zero.
    pub fn new(
        gcm: AesGcm,
        iv: [u8; IV_LEN],
        aad: &[u8],
        msg_len: usize,
        direction: Direction,
    ) -> OooGcm {
        OooGcm::with_metadata_policy(gcm, iv, aad, msg_len, direction, true)
    }

    /// Like [`OooGcm::new`], but with control over whether this engine
    /// absorbs the AAD and length blocks into its GHASH accumulator.
    ///
    /// Under fine-grain memory-channel interleaving (§V-D), one engine
    /// runs per SmartDIMM and each sees only its channel's cachelines;
    /// because the out-of-order GHASH is an XOR of per-block
    /// contributions, partial accumulators from all channels combine by
    /// XOR — but the AAD/length metadata must then be contributed exactly
    /// once, by the host (see [`metadata_contribution`]). Pass
    /// `absorb_metadata = false` for every per-channel engine.
    pub fn with_metadata_policy(
        gcm: AesGcm,
        iv: [u8; IV_LEN],
        aad: &[u8],
        msg_len: usize,
        direction: Direction,
        absorb_metadata: bool,
    ) -> OooGcm {
        assert!(msg_len > 0, "empty offloads are handled on the CPU");
        let ct_blocks = msg_len.div_ceil(16);
        // The last full line ends `C mod 4` blocks before the message
        // does, so its weight is H^(C mod 4 + 2); each earlier line sits
        // four blocks further out.
        let [_, h2, h3, h4] = gcm.h_table.powers();
        let mut line_powers = vec![Gf128::ZERO; ct_blocks / 4];
        let last = [h2, h3, h4, gcm.h_table.mul(h4)][ct_blocks % 4];
        gcm.kernels().fill_powers(last, h4, &mut line_powers);
        let acc = if absorb_metadata {
            metadata_ghash(&gcm, aad, msg_len)
        } else {
            Gf128::ZERO
        };
        let eiv = gcm.encrypted_iv(&iv);
        OooGcm {
            gcm,
            iv,
            eiv,
            msg_len,
            line_powers,
            acc,
            direction,
            bytes_processed: 0,
            absorbed_metadata: absorb_metadata,
        }
    }

    /// Processes one cacheline of input located at message byte `offset`,
    /// returning the transformed bytes in a 64-byte line whose bytes past
    /// `input.len()` are zero.
    ///
    /// Cachelines may arrive in any order; each must be processed exactly
    /// once (the buffer-device arbiter guarantees this in hardware).
    ///
    /// # Panics
    ///
    /// Panics if `offset` is not 64-byte aligned, `input` exceeds 64
    /// bytes or runs past the message end, or the cacheline does not end
    /// exactly at the message end when shorter than 64 bytes.
    pub fn process_cacheline(&mut self, offset: usize, input: &[u8]) -> [u8; CACHELINE] {
        assert!(
            offset.is_multiple_of(CACHELINE),
            "cacheline offset must be aligned"
        );
        assert!(input.len() <= CACHELINE, "input exceeds a cacheline");
        assert!(
            offset + input.len() == self.msg_len
                || (input.len() == CACHELINE && offset + CACHELINE < self.msg_len),
            "input must be the whole cacheline at offset: 64 bytes, or the message tail"
        );
        let mut line = [0u8; CACHELINE];
        line[..input.len()].copy_from_slice(input);
        let blocks = input.len().div_ceil(16);
        // GHASH runs over the ciphertext: the input when decrypting, the
        // output when encrypting. Padding bytes stay zero either way.
        if self.direction == Direction::Decrypt {
            self.absorb_line(offset, &line, blocks);
        }
        self.gcm
            .xor_keystream(&self.iv, offset, &mut line[..input.len()]);
        if self.direction == Direction::Encrypt {
            self.absorb_line(offset, &line, blocks);
        }
        self.bytes_processed += input.len();
        line
    }

    /// Adds the line's first `blocks` ciphertext blocks to the GHASH
    /// accumulator: a Horner fold by `H`, then one multiply by the
    /// weight of the line's last block. A full line's fold is one
    /// aggregated step ([`GfMulTable::fold_line`]: one reduction on the
    /// hardware backend); the short tail line folds block by block.
    fn absorb_line(&mut self, offset: usize, line: &[u8; CACHELINE], blocks: usize) {
        let (chunks, _) = line.as_chunks::<16>();
        let h = &self.gcm.h_table;
        // A full line's power is in the stride table; a short line is
        // the tail, whose last block is block C−1, weight H^2.
        let (fold, weight) = match self.line_powers.get(offset / CACHELINE) {
            Some(&p) if blocks == 4 => (h.fold_line(line), p),
            _ => {
                let mut fold = Gf128::ZERO;
                for (k, block) in chunks[..blocks].iter().enumerate() {
                    if k > 0 {
                        fold = h.mul(fold);
                    }
                    fold = fold + Gf128::from_bytes(block);
                }
                (fold, h.mul(self.gcm.h))
            }
        };
        self.acc = self.acc + self.gcm.kernels().mul(fold, weight);
    }

    /// Whether every cacheline of the message has been processed. A
    /// partial engine (`absorb_metadata = false`) never completes on
    /// its own: its accumulator is combined host-side.
    pub fn is_complete(&self) -> bool {
        self.absorbed_metadata && self.bytes_processed == self.msg_len
    }

    /// Bytes processed so far.
    pub fn bytes_processed(&self) -> usize {
        self.bytes_processed
    }

    /// Total message length fixed at registration.
    pub fn msg_len(&self) -> usize {
        self.msg_len
    }

    /// The authentication tag: `GHASH ⊕ EIV`.
    ///
    /// Meaningful only once [`OooGcm::is_complete`] returns true — in
    /// hardware the tag lands in the TLS record trailer after the last
    /// cacheline is processed.
    ///
    /// # Panics
    ///
    /// Panics if this engine was created with `absorb_metadata = false`:
    /// its accumulator is a partial that must be combined host-side.
    pub fn tag(&self) -> [u8; TAG_LEN] {
        assert!(
            self.absorbed_metadata,
            "partial engines have no standalone tag; combine partial_ghash() host-side"
        );
        let mut tag = self.acc.to_bytes();
        for (t, e) in tag.iter_mut().zip(self.eiv.iter()) {
            *t ^= e;
        }
        tag
    }

    /// The raw GHASH accumulator (no EIV): the per-channel partial that
    /// the host XOR-combines under channel interleaving.
    pub fn partial_ghash(&self) -> [u8; 16] {
        self.acc.to_bytes()
    }
}

/// The GHASH contribution of the AAD and length blocks. The length block
/// is last (weight `H^1`). Sequential GHASH of the AAD alone weights its
/// last block `H^1` too, and that block sits `C + 1` blocks from the
/// message's end, so the AAD's GHASH is weighted by `H^(C+1)`.
fn metadata_ghash(gcm: &AesGcm, aad: &[u8], msg_len: usize) -> Gf128 {
    let len_block = length_block(aad.len() as u64 * 8, msg_len as u64 * 8);
    let mut acc = gcm.h_table.mul(Gf128::from_bytes(&len_block));
    if !aad.is_empty() {
        let aad_ghash = fold_padded(&gcm.h_table, Gf128::ZERO, aad);
        let k = gcm.kernels();
        acc = acc + k.mul(aad_ghash, k.pow(gcm.h, msg_len.div_ceil(16) as u64 + 1));
    }
    acc
}

/// The GHASH contribution of the AAD and length blocks for a message of
/// `msg_len` bytes — the piece the host adds exactly once when combining
/// per-channel partial accumulators (§V-D).
///
/// # Panics
///
/// Panics if `msg_len` is zero.
pub fn metadata_contribution(gcm: &AesGcm, aad: &[u8], msg_len: usize) -> [u8; 16] {
    assert!(msg_len > 0);
    metadata_ghash(gcm, aad, msg_len).to_bytes()
}

/// XOR-combines per-channel partial GHASH accumulators with the metadata
/// contribution and `EIV` into the final tag.
pub fn combine_partial_tags(
    gcm: &AesGcm,
    iv: &[u8; IV_LEN],
    aad: &[u8],
    msg_len: usize,
    partials: &[[u8; 16]],
) -> [u8; TAG_LEN] {
    let mut acc = metadata_contribution(gcm, aad, msg_len);
    for p in partials {
        for (a, b) in acc.iter_mut().zip(p.iter()) {
            *a ^= b;
        }
    }
    let eiv = gcm.encrypted_iv(iv);
    for (a, e) in acc.iter_mut().zip(eiv.iter()) {
        *a ^= e;
    }
    acc
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ghash::{HPowers, OooGhash};
    use proptest::prelude::*;
    use simkit::DetRng;

    /// The same key on the detected backend (the hardware one where the
    /// host has it) and on the portable one.
    fn both_backends(key: &[u8; 16]) -> [AesGcm; 2] {
        [AesGcm::new_128(key), AesGcm::new_128_portable(key)]
    }

    /// `data` XORed with the keystream from message byte `offset`, one
    /// `encrypt_block_bytewise` per block with GCM's wrapping `inc32`.
    fn bytewise_keystream_xor(
        key: &[u8; 16],
        iv: &[u8; 12],
        offset: usize,
        data: &[u8],
    ) -> Vec<u8> {
        let aes = Aes::new_128_portable(key);
        let mut out = data.to_vec();
        for (i, chunk) in out.chunks_mut(16).enumerate() {
            let mut block = [0u8; 16];
            block[..IV_LEN].copy_from_slice(iv);
            let counter = (offset / 16 + i + 2) as u32;
            block[12..].copy_from_slice(&counter.to_be_bytes());
            for (b, k) in chunk.iter_mut().zip(aes.encrypt_block_bytewise(&block)) {
                *b ^= k;
            }
        }
        out
    }

    fn padded(chunk: &[u8]) -> [u8; 16] {
        let mut block = [0u8; 16];
        block[..chunk.len()].copy_from_slice(chunk);
        block
    }

    /// The per-block oracle: the GHASH contribution of ciphertext
    /// `lines` (and, with `metadata`, of the AAD and length blocks), one
    /// `OooGhash::absorb` per block against a full `HPowers` table.
    fn per_block_ghash(
        gcm: &AesGcm,
        aad: &[u8],
        ct: &[u8],
        lines: &[usize],
        metadata: bool,
    ) -> [u8; 16] {
        let aad_blocks = aad.len().div_ceil(16);
        let total = aad_blocks + ct.len().div_ceil(16) + 1;
        let powers = HPowers::new(gcm.hash_subkey(), total);
        let mut ghash = OooGhash::new(total);
        if metadata {
            for (i, chunk) in aad.chunks(16).enumerate() {
                ghash.absorb(&powers, i, &padded(chunk));
            }
            let len_block = length_block(aad.len() as u64 * 8, ct.len() as u64 * 8);
            ghash.absorb(&powers, total - 1, &len_block);
        }
        for &line in lines {
            let start = line * CACHELINE;
            let end = (start + CACHELINE).min(ct.len());
            for (k, chunk) in ct[start..end].chunks(16).enumerate() {
                ghash.absorb(&powers, aad_blocks + start / 16 + k, &padded(chunk));
            }
        }
        ghash.finalize()
    }

    /// Runs `lines` of `input` through `engine`, writing outputs to `out`.
    fn feed(engine: &mut OooGcm, input: &[u8], lines: &[usize], out: &mut [u8]) {
        for &line in lines {
            let start = line * CACHELINE;
            let end = (start + CACHELINE).min(input.len());
            let line_out = engine.process_cacheline(start, &input[start..end]);
            out[start..end].copy_from_slice(&line_out[..end - start]);
        }
    }

    fn hex(s: &str) -> Vec<u8> {
        (0..s.len())
            .step_by(2)
            .map(|i| u8::from_str_radix(&s[i..i + 2], 16).unwrap())
            .collect()
    }

    /// McGrew–Viega test case 1: empty plaintext, zero key.
    #[test]
    fn gcm_test_case_1() {
        let gcm = AesGcm::new_128(&[0u8; 16]);
        let iv = [0u8; 12];
        let (ct, tag) = gcm.seal(&iv, b"", b"");
        assert!(ct.is_empty());
        assert_eq!(tag.to_vec(), hex("58e2fccefa7e3061367f1d57a4e7455a"));
    }

    /// McGrew–Viega test case 2: one zero block.
    #[test]
    fn gcm_test_case_2() {
        let gcm = AesGcm::new_128(&[0u8; 16]);
        let iv = [0u8; 12];
        let (ct, tag) = gcm.seal(&iv, b"", &[0u8; 16]);
        assert_eq!(ct, hex("0388dace60b6a392f328c2b971b2fe78"));
        assert_eq!(tag.to_vec(), hex("ab6e47d42cec13bdf53a67b21257bddf"));
    }

    /// McGrew–Viega test case 3: 64-byte plaintext.
    #[test]
    fn gcm_test_case_3() {
        let key: [u8; 16] = hex("feffe9928665731c6d6a8f9467308308").try_into().unwrap();
        let iv: [u8; 12] = hex("cafebabefacedbaddecaf888").try_into().unwrap();
        let pt = hex(
            "d9313225f88406e5a55909c5aff5269a86a7a9531534f7da2e4c303d8a318a72\
             1c3c0c95956809532fcf0e2449a6b525b16aedf5aa0de657ba637b391aafd255",
        );
        let gcm = AesGcm::new_128(&key);
        let (ct, tag) = gcm.seal(&iv, b"", &pt);
        assert_eq!(
            ct,
            hex(
                "42831ec2217774244b7221b784d0d49ce3aa212f2c02a4e035c17e2329aca12e\
                 21d514b25466931c7d8f6a5aac84aa051ba30b396a0aac973d58e091473f5985"
            )
        );
        assert_eq!(tag.to_vec(), hex("4d5c2af327cd64a62cf35abd2ba6fab4"));
    }

    /// McGrew–Viega test case 4: partial final block + AAD.
    #[test]
    fn gcm_test_case_4() {
        let key: [u8; 16] = hex("feffe9928665731c6d6a8f9467308308").try_into().unwrap();
        let iv: [u8; 12] = hex("cafebabefacedbaddecaf888").try_into().unwrap();
        let pt = hex(
            "d9313225f88406e5a55909c5aff5269a86a7a9531534f7da2e4c303d8a318a72\
             1c3c0c95956809532fcf0e2449a6b525b16aedf5aa0de657ba637b39",
        );
        let aad = hex("feedfacedeadbeeffeedfacedeadbeefabaddad2");
        let gcm = AesGcm::new_128(&key);
        let (ct, tag) = gcm.seal(&iv, &aad, &pt);
        assert_eq!(
            ct,
            hex(
                "42831ec2217774244b7221b784d0d49ce3aa212f2c02a4e035c17e2329aca12e\
                 21d514b25466931c7d8f6a5aac84aa051ba30b396a0aac973d58e091"
            )
        );
        assert_eq!(tag.to_vec(), hex("5bc94fbc3221a5db94fae95ae7121a47"));
        // Decryption round-trips and rejects tampering.
        assert_eq!(gcm.open(&iv, &aad, &ct, &tag).unwrap(), pt);
        let mut bad = tag;
        bad[0] ^= 1;
        assert_eq!(
            gcm.open(&iv, &aad, &ct, &bad),
            Err(CryptoError::TagMismatch)
        );
    }

    #[test]
    fn open_rejects_modified_ciphertext() {
        let gcm = AesGcm::new_128(&[5u8; 16]);
        let iv = [6u8; 12];
        let (mut ct, tag) = gcm.seal(&iv, b"aad", b"some plaintext bytes");
        ct[3] ^= 0x80;
        assert_eq!(
            gcm.open(&iv, b"aad", &ct, &tag),
            Err(CryptoError::TagMismatch)
        );
    }

    #[test]
    fn keystream_backends_match_bytewise_for_every_short_shape() {
        // Every tail of 1–15 bytes and every block count around the
        // 4-wide groups, from offsets at and off a group boundary, and
        // across the 32-bit counter wrap.
        let key = [0xA7; 16];
        let iv = [0x19; 12];
        let data: Vec<u8> = (0..300u32).map(|i| (i * 29 + 3) as u8).collect();
        let wrap = (u32::MAX as usize - 4) * 16;
        for offset in [0usize, 16, 48, 64, 1008, wrap] {
            for len in 1..=data.len() {
                let want = bytewise_keystream_xor(&key, &iv, offset, &data[..len]);
                for gcm in both_backends(&key) {
                    let mut got = data[..len].to_vec();
                    gcm.xor_keystream(&iv, offset, &mut got);
                    assert_eq!(got, want, "{:?} offset {offset} len {len}", gcm.backend());
                }
            }
        }
    }

    #[test]
    fn key_setup_builds_a_shoup_table_only_on_the_portable_backend() {
        let [detected, portable] = both_backends(&[0x42; 16]);
        assert_eq!(portable.backend(), Backend::Portable);
        for gcm in [detected, portable] {
            let want_table = gcm.backend() == Backend::Portable;
            assert_eq!(
                gcm.h_table == GfMulTable::new_portable(gcm.hash_subkey()),
                want_table
            );
        }
    }

    #[test]
    fn incremental_range_encryption_matches_full() {
        // Observation 4: encrypting arbitrary ranges must compose.
        let gcm = AesGcm::new_128(&[9u8; 16]);
        let iv = [1u8; 12];
        let msg: Vec<u8> = (0..160u32).map(|i| (i * 7) as u8).collect();
        let (want, _) = gcm.seal(&iv, b"", &msg);
        let mut got = msg.clone();
        // Encrypt in three disjoint, unordered ranges (block aligned).
        for (start, end) in [(96usize, 160usize), (0, 32), (32, 96)] {
            let mut chunk = got[start..end].to_vec();
            gcm.xor_keystream(&iv, start, &mut chunk);
            got[start..end].copy_from_slice(&chunk);
        }
        assert_eq!(got, want);
    }

    #[test]
    fn ooo_gcm_decrypt_direction() {
        let key = [4u8; 16];
        let iv = [2u8; 12];
        let msg = vec![0x5A; 130];
        let gcm = AesGcm::new_128(&key);
        let (ct, tag) = gcm.seal(&iv, b"hdr", &msg);

        let mut dsa = OooGcm::new(
            AesGcm::new_128(&key),
            iv,
            b"hdr",
            ct.len(),
            Direction::Decrypt,
        );
        let mut pt = vec![0u8; ct.len()];
        for start in [64usize, 0, 128] {
            let end = (start + 64).min(ct.len());
            let out = dsa.process_cacheline(start, &ct[start..end]);
            pt[start..end].copy_from_slice(&out[..end - start]);
        }
        assert!(dsa.is_complete());
        assert_eq!(pt, msg);
        assert_eq!(dsa.tag(), tag);
    }

    #[test]
    fn ooo_gcm_progress_tracking() {
        let dsa = OooGcm::new(
            AesGcm::new_128(&[0u8; 16]),
            [0u8; 12],
            b"",
            128,
            Direction::Encrypt,
        );
        assert_eq!(dsa.msg_len(), 128);
        assert_eq!(dsa.bytes_processed(), 0);
        assert!(!dsa.is_complete());
    }

    #[test]
    #[should_panic(expected = "aligned")]
    fn ooo_gcm_rejects_unaligned_offset() {
        let mut dsa = OooGcm::new(
            AesGcm::new_128(&[0u8; 16]),
            [0u8; 12],
            b"",
            128,
            Direction::Encrypt,
        );
        dsa.process_cacheline(32, &[0u8; 64]);
    }

    #[test]
    fn strided_matches_seal_for_every_short_length() {
        // Every tail shape (C mod 4, partial last block) of the first
        // few lines, with AAD that is empty, partial, whole and multi-block.
        let gcm = AesGcm::new_128(&[0x3C; 16]);
        let iv = [0x5E; 12];
        let msg: Vec<u8> = (0..300u32).map(|i| (i * 13 + 7) as u8).collect();
        for aad_len in [0usize, 5, 13, 16, 40] {
            let aad = &msg[..aad_len];
            for len in 1..=msg.len() {
                let pt = &msg[..len];
                let (want_ct, want_tag) = gcm.seal(&iv, aad, pt);
                let mut dsa = OooGcm::new(gcm.clone(), iv, aad, len, Direction::Encrypt);
                let lines: Vec<usize> = (0..len.div_ceil(CACHELINE)).rev().collect();
                let mut got = vec![0u8; len];
                feed(&mut dsa, pt, &lines, &mut got);
                assert!(dsa.is_complete(), "len {len} aad {aad_len}");
                assert_eq!(got, want_ct, "len {len} aad {aad_len}");
                assert_eq!(dsa.tag(), want_tag, "len {len} aad {aad_len}");
            }
        }
    }

    #[test]
    fn metadata_contribution_matches_per_block_oracle() {
        let gcm = AesGcm::new_128(&[0x77; 16]);
        let aad: Vec<u8> = (0..40u8).collect();
        for (aad_len, msg_len) in [(0usize, 1usize), (5, 64), (16, 100), (40, 4096)] {
            let ct = vec![0u8; msg_len];
            assert_eq!(
                metadata_contribution(&gcm, &aad[..aad_len], msg_len),
                per_block_ghash(&gcm, &aad[..aad_len], &ct, &[], true),
            );
        }
    }

    #[test]
    fn tail_line_bytes_past_the_message_are_zero() {
        let mut dsa = OooGcm::new(
            AesGcm::new_128(&[1u8; 16]),
            [2u8; 12],
            b"",
            70,
            Direction::Encrypt,
        );
        let out = dsa.process_cacheline(64, &[0xFF; 6]);
        assert!(out[6..].iter().all(|&b| b == 0));
    }

    #[test]
    #[should_panic(expected = "whole cacheline")]
    fn ooo_gcm_rejects_full_line_past_the_end() {
        let mut dsa = OooGcm::new(
            AesGcm::new_128(&[0u8; 16]),
            [0u8; 12],
            b"",
            100,
            Direction::Encrypt,
        );
        dsa.process_cacheline(64, &[0u8; 64]);
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(96))]

        #[test]
        fn prop_strided_matches_per_block_oracle_and_seal(
            key: [u8; 16],
            iv: [u8; 12],
            aad in proptest::collection::vec(any::<u8>(), 0..=40),
            msg_len in 1usize..=8192,
            seed: u64,
            decrypt: bool,
        ) {
            let mut rng = DetRng::new(seed);
            let mut pt = vec![0u8; msg_len];
            rng.fill_bytes(&mut pt);
            let (ct, tag) = AesGcm::new_128_portable(&key).seal(&iv, &aad, &pt);
            let mut lines: Vec<usize> = (0..msg_len.div_ceil(CACHELINE)).collect();
            rng.shuffle(&mut lines);

            let (direction, input, want) = if decrypt {
                (Direction::Decrypt, &ct, &pt)
            } else {
                (Direction::Encrypt, &pt, &ct)
            };
            for gcm in both_backends(&key) {
                prop_assert_eq!(gcm.seal(&iv, &aad, &pt), (ct.clone(), tag));
                prop_assert_eq!(&gcm.open(&iv, &aad, &ct, &tag).unwrap(), &pt);
                let mut dsa = OooGcm::new(gcm.clone(), iv, &aad, msg_len, direction);
                let mut got = vec![0u8; msg_len];
                feed(&mut dsa, input, &lines, &mut got);
                prop_assert!(dsa.is_complete());
                prop_assert_eq!(&got, want);
                prop_assert_eq!(dsa.tag(), tag);
                prop_assert_eq!(
                    dsa.partial_ghash(),
                    per_block_ghash(&gcm, &aad, &ct, &lines, true)
                );
            }
        }

        #[test]
        fn prop_split_lines_combine_to_the_seal_tag(
            key: [u8; 16],
            iv: [u8; 12],
            aad in proptest::collection::vec(any::<u8>(), 0..=40),
            msg_len in 1usize..=8192,
            seed: u64,
        ) {
            let mut rng = DetRng::new(seed);
            let mut pt = vec![0u8; msg_len];
            rng.fill_bytes(&mut pt);
            let (ct, tag) = AesGcm::new_128_portable(&key).seal(&iv, &aad, &pt);
            for ways in [2usize, 4] {
                for gcm in both_backends(&key) {
                    // Fine interleave: line `l` goes to channel `l mod ways`,
                    // each channel's lines in its own random order.
                    let mut got = vec![0u8; msg_len];
                    let mut partials = Vec::new();
                    for channel in 0..ways {
                        let mut lines: Vec<usize> = (channel..msg_len.div_ceil(CACHELINE))
                            .step_by(ways)
                            .collect();
                        rng.shuffle(&mut lines);
                        let mut dsa = OooGcm::with_metadata_policy(
                            gcm.clone(), iv, &aad, msg_len, Direction::Encrypt, false,
                        );
                        feed(&mut dsa, &pt, &lines, &mut got);
                        prop_assert!(!dsa.is_complete());
                        prop_assert_eq!(
                            dsa.partial_ghash(),
                            per_block_ghash(&gcm, &aad, &ct, &lines, false)
                        );
                        partials.push(dsa.partial_ghash());
                    }
                    prop_assert_eq!(&got, &ct);
                    prop_assert_eq!(combine_partial_tags(&gcm, &iv, &aad, msg_len, &partials), tag);
                }
            }
        }
    }

    proptest! {
        #[test]
        fn prop_keystream_backends_match_bytewise(
            key: [u8; 16],
            iv: [u8; 12],
            offset_blocks in 0usize..1024,
            len in 1usize..=8192,
            seed: u64,
        ) {
            let mut data = vec![0u8; len];
            DetRng::new(seed).fill_bytes(&mut data);
            let offset = offset_blocks * 16;
            let want = bytewise_keystream_xor(&key, &iv, offset, &data);
            for gcm in both_backends(&key) {
                let mut got = data.clone();
                gcm.xor_keystream(&iv, offset, &mut got);
                prop_assert_eq!(&got, &want);
            }
        }

        #[test]
        fn prop_seal_open_roundtrip(
            key: [u8; 16],
            iv: [u8; 12],
            aad in proptest::collection::vec(any::<u8>(), 0..48),
            pt in proptest::collection::vec(any::<u8>(), 0..300),
        ) {
            let gcm = AesGcm::new_128(&key);
            let (ct, tag) = gcm.seal(&iv, &aad, &pt);
            prop_assert_eq!(ct.len(), pt.len());
            prop_assert_eq!(gcm.open(&iv, &aad, &ct, &tag).unwrap(), pt);
        }

        #[test]
        fn prop_ooo_matches_sequential(
            key: [u8; 16],
            iv: [u8; 12],
            aad in proptest::collection::vec(any::<u8>(), 0..32),
            pt in proptest::collection::vec(any::<u8>(), 1..600),
            seed: u64,
        ) {
            let mut starts: Vec<usize> = (0..pt.len()).step_by(CACHELINE).collect();
            simkit::DetRng::new(seed).shuffle(&mut starts);
            for gcm in both_backends(&key) {
                let (want_ct, want_tag) = gcm.seal(&iv, &aad, &pt);
                let mut dsa = OooGcm::new(gcm, iv, &aad, pt.len(), Direction::Encrypt);
                let mut got = vec![0u8; pt.len()];
                for &start in &starts {
                    let end = (start + CACHELINE).min(pt.len());
                    let out = dsa.process_cacheline(start, &pt[start..end]);
                    got[start..end].copy_from_slice(&out[..end - start]);
                }
                prop_assert!(dsa.is_complete());
                prop_assert_eq!(got, want_ct);
                prop_assert_eq!(dsa.tag(), want_tag);
            }
        }

        #[test]
        fn prop_open_rejects_bit_flips(
            key: [u8; 16],
            iv: [u8; 12],
            pt in proptest::collection::vec(any::<u8>(), 1..64),
            flip_byte in 0usize..64,
            flip_bit in 0u8..8,
        ) {
            let gcm = AesGcm::new_128(&key);
            let (mut ct, tag) = gcm.seal(&iv, b"", &pt);
            let idx = flip_byte % ct.len();
            ct[idx] ^= 1 << flip_bit;
            prop_assert_eq!(gcm.open(&iv, b"", &ct, &tag), Err(CryptoError::TagMismatch));
        }
    }
}
