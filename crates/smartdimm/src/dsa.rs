//! The Domain-Specific Accelerators (§V): TLS AES-GCM and Deflate
//! (de)compression, behind a uniform per-cacheline interface the arbiter
//! drives.
//!
//! One [`DsaInstance`] exists per registered offload. The TLS DSA
//! transforms each 64-byte cacheline independently and out of order
//! (powers-of-H GHASH, §V-A). The Deflate DSA is a streaming engine: it
//! consumes ordered cachelines (CompCpy's `ordered` mode inserts the
//! fences, §IV-D) and emits its output once the page is complete, which
//! is why compression destination lines can see premature writebacks
//! (S7) that the Scratchpad ignores.

use ulp_compress::hwmodel::{HwCompressor, HwDeflateConfig};
use ulp_crypto::gcm::{AesGcm, Direction, OooGcm};

use crate::configmem::OffloadStatus;

/// Copies `N` bytes out of the context payload starting at `at`,
/// without any panicking slice/array conversion.
fn take_arr<const N: usize>(p: &[u8; 48], at: usize) -> Option<[u8; N]> {
    let slice = p.get(at..at + N)?;
    let mut out = [0u8; N];
    out.copy_from_slice(slice);
    Some(out)
}

/// The offload operation requested through CompCpy.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum OffloadOp {
    /// AES-128-GCM encryption of the whole message.
    TlsEncrypt {
        /// AES-128 traffic key.
        key: [u8; 16],
        /// 96-bit per-record nonce.
        iv: [u8; 12],
    },
    /// AES-128-GCM decryption.
    TlsDecrypt {
        /// AES-128 traffic key.
        key: [u8; 16],
        /// 96-bit per-record nonce.
        iv: [u8; 12],
    },
    /// Deflate compression at 4 KB page granularity.
    Compress,
    /// Deflate decompression of one compressed page.
    Decompress,
}

impl OffloadOp {
    /// Serializes the op + message parameters into a context payload
    /// (fits the 48-byte chunk of one MMIO write, §V-A).
    pub fn encode_context(&self, msg_len: usize, aad: &[u8]) -> [u8; 48] {
        self.encode_context_with_policy(msg_len, aad, true)
    }

    /// [`OffloadOp::encode_context`] with control over metadata
    /// absorption: under channel interleaving each DIMM's TLS engine is a
    /// *partial* engine and must not absorb the AAD/length blocks (the
    /// host contributes them once when combining, §V-D).
    pub fn encode_context_with_policy(
        &self,
        msg_len: usize,
        aad: &[u8],
        absorb_metadata: bool,
    ) -> [u8; 48] {
        self.encode_context_full(msg_len, aad, absorb_metadata, false)
    }

    /// Full context encoding. `dma_input` marks a *Compute DMA* offload
    /// (§IV-E): source data arrives through device DMA *writes* instead of
    /// the CompCpy copy's reads, so the arbiter feeds the DSA from wrCAS
    /// commands on the source range.
    pub fn encode_context_full(
        &self,
        msg_len: usize,
        aad: &[u8],
        absorb_metadata: bool,
        dma_input: bool,
    ) -> [u8; 48] {
        assert!(aad.len() <= 7, "AAD limited to 7 bytes (TLS header is 5)");
        let mut p = [0u8; 48];
        p[45] = absorb_metadata as u8;
        p[46] = dma_input as u8;
        p[0] = match self {
            OffloadOp::TlsEncrypt { .. } => 0,
            OffloadOp::TlsDecrypt { .. } => 1,
            OffloadOp::Compress => 2,
            OffloadOp::Decompress => 3,
        };
        p[1] = aad.len() as u8;
        p[2..2 + aad.len()].copy_from_slice(aad);
        p[9..17].copy_from_slice(&(msg_len as u64).to_le_bytes());
        match self {
            OffloadOp::TlsEncrypt { key, iv } | OffloadOp::TlsDecrypt { key, iv } => {
                p[17..33].copy_from_slice(key);
                p[33..45].copy_from_slice(iv);
            }
            _ => {}
        }
        p
    }

    /// Decodes a context payload back into
    /// `(op, msg_len, aad, absorb_metadata)`, or `None` for a malformed
    /// payload (unknown op byte, oversized AAD length).
    pub fn decode_context(p: &[u8; 48]) -> Option<(OffloadOp, usize, Vec<u8>, bool)> {
        let (op, msg_len, aad, absorb, _) = OffloadOp::decode_context_full(p)?;
        Some((op, msg_len, aad, absorb))
    }

    /// Full context decoding including the Compute-DMA flag. Returns
    /// `None` for a malformed payload: the device must reject a corrupt
    /// MMIO context write, not fault on it.
    pub fn decode_context_full(p: &[u8; 48]) -> Option<(OffloadOp, usize, Vec<u8>, bool, bool)> {
        let dma_input = p[46] != 0;
        let absorb_metadata = p[45] != 0;
        let aad_len = p[1] as usize;
        if aad_len > 7 {
            return None; // corrupt context: aad length
        }
        let aad = p.get(2..2 + aad_len)?.to_vec();
        let msg_len = u64::from_le_bytes(take_arr(p, 9)?) as usize;
        let op = match p[0] {
            0 | 1 => {
                let key: [u8; 16] = take_arr(p, 17)?;
                let iv: [u8; 12] = take_arr(p, 33)?;
                if p[0] == 0 {
                    OffloadOp::TlsEncrypt { key, iv }
                } else {
                    OffloadOp::TlsDecrypt { key, iv }
                }
            }
            2 => OffloadOp::Compress,
            3 => OffloadOp::Decompress,
            _ => return None, // unknown offload op
        };
        Some((op, msg_len, aad, absorb_metadata, dma_input))
    }

    /// Whether the DSA requires ordered input delivery (Algorithm 2's
    /// `ordered` flag): Deflate's dictionary state is sequential, while
    /// AES-GCM handles any cacheline order.
    pub fn requires_ordered(&self) -> bool {
        matches!(self, OffloadOp::Compress | OffloadOp::Decompress)
    }

    /// Whether the transformation preserves message size (drives how many
    /// destination lines are expected per page).
    pub fn size_preserving(&self) -> bool {
        matches!(
            self,
            OffloadOp::TlsEncrypt { .. } | OffloadOp::TlsDecrypt { .. }
        )
    }
}

/// Output of feeding one cacheline to a DSA.
#[derive(Debug, Clone, Default)]
pub struct DsaOutput {
    /// `(message-wide output line index, data)` pairs produced.
    pub produced: Vec<(usize, [u8; 64])>,
    /// Present once the offload's final state is known.
    pub completion: Option<DsaCompletion>,
}

/// Terminal state of an offload.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct DsaCompletion {
    /// Result status for the MMIO result slot.
    pub status: OffloadStatus,
    /// Output length in bytes.
    pub out_len: usize,
    /// Authentication tag (TLS only).
    pub tag: Option<[u8; 16]>,
}

/// A live DSA engine bound to one offload.
pub enum DsaInstance {
    /// AES-GCM, out-of-order per cacheline.
    Tls(Box<OooGcm>),
    /// Deflate compression: buffers the page, then compresses.
    Compress(StreamBuf),
    /// Deflate decompression: buffers the compressed page, then inflates.
    Decompress(StreamBuf),
}

impl std::fmt::Debug for DsaInstance {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            DsaInstance::Tls(g) => write!(f, "Tls({}B)", g.msg_len()),
            DsaInstance::Compress(s) => write!(f, "Compress({}B)", s.msg_len),
            DsaInstance::Decompress(s) => write!(f, "Decompress({}B)", s.msg_len),
        }
    }
}

/// Reassembly buffer for the streaming (de)compression DSAs.
#[derive(Debug)]
pub struct StreamBuf {
    msg_len: usize,
    data: Vec<u8>,
    received: Vec<bool>, // per cacheline
    hw_config: HwDeflateConfig,
}

impl StreamBuf {
    fn new(msg_len: usize, hw_config: HwDeflateConfig) -> StreamBuf {
        StreamBuf {
            msg_len,
            data: vec![0u8; msg_len],
            received: vec![false; msg_len.div_ceil(64)],
            hw_config,
        }
    }

    fn absorb(&mut self, offset: usize, line: &[u8; 64]) -> bool {
        let idx = offset / 64;
        if self.received[idx] {
            return false;
        }
        self.received[idx] = true;
        let take = (self.msg_len - offset).min(64);
        self.data[offset..offset + take].copy_from_slice(&line[..take]);
        self.received.iter().all(|&r| r)
    }
}

/// Splits a byte stream into 64-byte output lines (zero-padded tail).
fn to_lines(bytes: &[u8]) -> Vec<(usize, [u8; 64])> {
    bytes
        .chunks(64)
        .enumerate()
        .map(|(i, c)| {
            let mut line = [0u8; 64];
            line[..c.len()].copy_from_slice(c);
            (i, line)
        })
        .collect()
}

impl DsaInstance {
    /// Instantiates the engine for a decoded context.
    ///
    /// # Panics
    ///
    /// Panics if `msg_len` is zero, or exceeds 4 KB for the page-granular
    /// (de)compression engines (§V-C).
    pub fn new(op: OffloadOp, msg_len: usize, aad: &[u8], hw: HwDeflateConfig) -> DsaInstance {
        DsaInstance::with_metadata_policy(op, msg_len, aad, hw, true)
    }

    /// [`DsaInstance::new`] for per-channel partial TLS engines (§V-D).
    pub fn with_metadata_policy(
        op: OffloadOp,
        msg_len: usize,
        aad: &[u8],
        hw: HwDeflateConfig,
        absorb_metadata: bool,
    ) -> DsaInstance {
        assert!(msg_len > 0, "empty offload");
        let tls = |key: &[u8; 16], iv, direction| {
            DsaInstance::Tls(Box::new(OooGcm::with_metadata_policy(
                AesGcm::new_128(key),
                iv,
                aad,
                msg_len,
                direction,
                absorb_metadata,
            )))
        };
        match op {
            OffloadOp::TlsEncrypt { key, iv } => tls(&key, iv, Direction::Encrypt),
            OffloadOp::TlsDecrypt { key, iv } => tls(&key, iv, Direction::Decrypt),
            OffloadOp::Compress => {
                assert!(msg_len <= 4096, "compression is page-granular");
                DsaInstance::Compress(StreamBuf::new(msg_len, hw))
            }
            OffloadOp::Decompress => {
                assert!(msg_len <= 4096, "decompression input is page-granular");
                DsaInstance::Decompress(StreamBuf::new(msg_len, hw))
            }
        }
    }

    /// Feeds the cacheline at message byte `offset`. `valid` is the
    /// number of meaningful bytes (< 64 only on the final line).
    ///
    /// Returns the output lines produced by this input and, when the
    /// offload reaches its terminal state, the completion record.
    ///
    /// # Panics
    ///
    /// Panics if `offset` is unaligned or out of range.
    pub fn process_line(&mut self, offset: usize, data: &[u8; 64], valid: usize) -> DsaOutput {
        assert_eq!(offset % 64, 0, "cacheline alignment");
        match self {
            DsaInstance::Tls(gcm) => {
                assert!(offset < gcm.msg_len(), "offset beyond message");
                let Some(input) = data.get(..valid) else {
                    return DsaOutput::default();
                };
                let line = gcm.process_cacheline(offset, input);
                let completion = if gcm.is_complete() {
                    Some(DsaCompletion {
                        status: OffloadStatus::Done,
                        out_len: gcm.msg_len(),
                        tag: Some(gcm.tag()),
                    })
                } else {
                    None
                };
                DsaOutput {
                    produced: vec![(offset / 64, line)],
                    completion,
                }
            }
            DsaInstance::Compress(buf) => {
                let complete = buf.absorb(offset, data);
                if !complete {
                    return DsaOutput::default();
                }
                let mut hw = HwCompressor::new(buf.hw_config);
                let result = hw.compress_page(&buf.data);
                if result.data.len() >= buf.msg_len {
                    // Did not compress below the original size: hand the
                    // raw input back so the output never outgrows the
                    // registered destination pages.
                    DsaOutput {
                        produced: to_lines(&buf.data),
                        completion: Some(DsaCompletion {
                            status: OffloadStatus::Incompressible,
                            out_len: buf.msg_len,
                            tag: None,
                        }),
                    }
                } else {
                    DsaOutput {
                        produced: to_lines(&result.data),
                        completion: Some(DsaCompletion {
                            status: OffloadStatus::Done,
                            out_len: result.data.len(),
                            tag: None,
                        }),
                    }
                }
            }
            DsaInstance::Decompress(buf) => {
                let complete = buf.absorb(offset, data);
                if !complete {
                    return DsaOutput::default();
                }
                match ulp_compress::inflate::decompress(&buf.data) {
                    Ok(out) if !out.is_empty() && out.len() <= 4096 => DsaOutput {
                        produced: to_lines(&out),
                        completion: Some(DsaCompletion {
                            status: OffloadStatus::Done,
                            out_len: out.len(),
                            tag: None,
                        }),
                    },
                    _ => DsaOutput {
                        produced: Vec::new(),
                        completion: Some(DsaCompletion {
                            status: OffloadStatus::Error,
                            out_len: 0,
                            tag: None,
                        }),
                    },
                }
            }
        }
    }

    /// For TLS engines: `(bytes processed, raw GHASH accumulator)` — the
    /// per-channel partial result exposed through the result slot under
    /// interleaving. `None` for (de)compression engines.
    pub fn partial(&self) -> Option<(usize, [u8; 16])> {
        match self {
            DsaInstance::Tls(g) => Some((g.bytes_processed(), g.partial_ghash())),
            _ => None,
        }
    }

    /// Total input length this engine expects.
    pub fn msg_len(&self) -> usize {
        match self {
            DsaInstance::Tls(g) => g.msg_len(),
            DsaInstance::Compress(s) | DsaInstance::Decompress(s) => s.msg_len,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ulp_crypto::gcm::AesGcm;

    #[test]
    fn context_round_trip_tls() {
        let op = OffloadOp::TlsEncrypt {
            key: [3u8; 16],
            iv: [4u8; 12],
        };
        let ctx = op.encode_context(12345, b"hdr55");
        let (op2, len, aad, absorb) = OffloadOp::decode_context(&ctx).unwrap();
        assert_eq!(op2, op);
        assert_eq!(len, 12345);
        assert_eq!(aad, b"hdr55");
        assert!(absorb);
        let ctx = op.encode_context_with_policy(4096, b"", false);
        assert!(!OffloadOp::decode_context(&ctx).unwrap().3);
        let mut corrupt = ctx;
        corrupt[0] = 9; // unknown op byte
        assert!(OffloadOp::decode_context(&corrupt).is_none());
        let mut corrupt = ctx;
        corrupt[1] = 200; // oversized AAD length
        assert!(OffloadOp::decode_context(&corrupt).is_none());
    }

    #[test]
    fn context_round_trip_compress() {
        let ctx = OffloadOp::Compress.encode_context(4096, b"");
        let (op, len, aad, _) = OffloadOp::decode_context(&ctx).unwrap();
        assert_eq!(op, OffloadOp::Compress);
        assert_eq!(len, 4096);
        assert!(aad.is_empty());
    }

    #[test]
    fn ordering_requirements() {
        assert!(!OffloadOp::TlsEncrypt {
            key: [0; 16],
            iv: [0; 12]
        }
        .requires_ordered());
        assert!(OffloadOp::Compress.requires_ordered());
        assert!(OffloadOp::TlsDecrypt {
            key: [0; 16],
            iv: [0; 12]
        }
        .size_preserving());
        assert!(!OffloadOp::Decompress.size_preserving());
    }

    #[test]
    fn tls_dsa_matches_software_gcm() {
        let key = [1u8; 16];
        let iv = [2u8; 12];
        let msg: Vec<u8> = (0..200u32).map(|i| i as u8).collect();
        let mut dsa = DsaInstance::new(
            OffloadOp::TlsEncrypt { key, iv },
            msg.len(),
            b"",
            HwDeflateConfig::default(),
        );
        let mut out = vec![0u8; msg.len()];
        let mut completion = None;
        for start in [128usize, 0, 64, 192] {
            let valid = (msg.len() - start).min(64);
            let mut line = [0u8; 64];
            line[..valid].copy_from_slice(&msg[start..start + valid]);
            let o = dsa.process_line(start, &line, valid);
            for (idx, data) in o.produced {
                let begin = idx * 64;
                let n = (msg.len() - begin).min(64);
                out[begin..begin + n].copy_from_slice(&data[..n]);
            }
            if let Some(c) = o.completion {
                completion = Some(c);
            }
        }
        let gcm = AesGcm::new_128(&key);
        let (want, tag) = gcm.seal(&iv, b"", &msg);
        assert_eq!(out, want);
        let c = completion.expect("completed");
        assert_eq!(c.status, OffloadStatus::Done);
        assert_eq!(c.tag, Some(tag));
        assert_eq!(c.out_len, msg.len());
    }

    #[test]
    fn compress_dsa_emits_on_completion_only() {
        let page = ulp_compress::corpus::text(4096, 11);
        let mut dsa = DsaInstance::new(
            OffloadOp::Compress,
            page.len(),
            b"",
            HwDeflateConfig::default(),
        );
        let mut all_produced = Vec::new();
        let mut completion = None;
        for start in (0..page.len()).step_by(64) {
            let mut line = [0u8; 64];
            line.copy_from_slice(&page[start..start + 64]);
            let o = dsa.process_line(start, &line, 64);
            if start + 64 < page.len() {
                assert!(o.produced.is_empty(), "no output before completion");
            }
            all_produced.extend(o.produced);
            completion = completion.or(o.completion);
        }
        let c = completion.expect("completed");
        assert_eq!(c.status, OffloadStatus::Done);
        assert!(c.out_len < page.len());
        // Reassemble and verify.
        let mut bytes = Vec::new();
        for (i, (idx, line)) in all_produced.iter().enumerate() {
            assert_eq!(*idx, i);
            bytes.extend_from_slice(line);
        }
        bytes.truncate(c.out_len);
        assert_eq!(ulp_compress::inflate::decompress(&bytes).unwrap(), page);
    }

    #[test]
    fn compress_dsa_incompressible_fallback() {
        let page = ulp_compress::corpus::random(4096, 5);
        let mut dsa = DsaInstance::new(
            OffloadOp::Compress,
            page.len(),
            b"",
            HwDeflateConfig::default(),
        );
        let mut completion = None;
        for start in (0..page.len()).step_by(64) {
            let mut line = [0u8; 64];
            line.copy_from_slice(&page[start..start + 64]);
            completion = completion.or(dsa.process_line(start, &line, 64).completion);
        }
        let c = completion.expect("completed");
        assert_eq!(c.status, OffloadStatus::Incompressible);
        assert_eq!(c.out_len, page.len());
    }

    #[test]
    fn decompress_dsa_round_trip() {
        let page = ulp_compress::corpus::html(3000, 9);
        let compressed = ulp_compress::deflate::compress(&page);
        let mut dsa = DsaInstance::new(
            OffloadOp::Decompress,
            compressed.len(),
            b"",
            HwDeflateConfig::default(),
        );
        let mut out = Vec::new();
        let mut completion = None;
        for start in (0..compressed.len()).step_by(64) {
            let valid = (compressed.len() - start).min(64);
            let mut line = [0u8; 64];
            line[..valid].copy_from_slice(&compressed[start..start + valid]);
            let o = dsa.process_line(start, &line, valid);
            for (_, data) in o.produced {
                out.extend_from_slice(&data);
            }
            completion = completion.or(o.completion);
        }
        let c = completion.expect("completed");
        assert_eq!(c.status, OffloadStatus::Done);
        out.truncate(c.out_len);
        assert_eq!(out, page);
    }

    #[test]
    fn decompress_dsa_corrupt_stream_errors() {
        let garbage = [0xFFu8; 128];
        let mut dsa = DsaInstance::new(
            OffloadOp::Decompress,
            garbage.len(),
            b"",
            HwDeflateConfig::default(),
        );
        let mut completion = None;
        for start in (0..garbage.len()).step_by(64) {
            let mut line = [0u8; 64];
            line.copy_from_slice(&garbage[start..start + 64]);
            completion = completion.or(dsa.process_line(start, &line, 64).completion);
        }
        assert_eq!(completion.expect("terminal").status, OffloadStatus::Error);
    }

    #[test]
    fn duplicate_lines_are_idempotent_for_streams() {
        let page = ulp_compress::corpus::text(128, 2);
        let mut dsa = DsaInstance::new(
            OffloadOp::Compress,
            page.len(),
            b"",
            HwDeflateConfig::default(),
        );
        let mut line0 = [0u8; 64];
        line0.copy_from_slice(&page[..64]);
        let _ = dsa.process_line(0, &line0, 64);
        let again = dsa.process_line(0, &line0, 64);
        assert!(again.produced.is_empty() && again.completion.is_none());
    }
}
