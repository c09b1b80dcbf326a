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

use simkit::par::Lookahead;
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

/// The per-offload context (§V-A): everything a DSA engine needs besides
/// the data, carried to every shard in the 48-byte payload of one MMIO
/// context write. Layout of [`OffloadContext::encode`]:
///
/// | bytes | field |
/// |-------|-------|
/// | 0 | op: 0 TLS encrypt, 1 TLS decrypt, 2 compress, 3 decompress |
/// | 1 | AAD length (≤ 7) |
/// | 2..9 | AAD, zero padded |
/// | 9..17 | message length, little endian |
/// | 17..33 | AES-128 key (TLS only) |
/// | 33..45 | IV (TLS only) |
/// | 45 | `absorb_metadata` |
/// | 46 | `dma_input` |
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct OffloadContext {
    /// The requested operation.
    pub op: OffloadOp,
    /// Input length in bytes.
    pub msg_len: usize,
    aad: [u8; 7],
    aad_len: u8,
    /// Whether this shard's TLS engine absorbs the AAD/length blocks.
    /// Under channel interleaving each DIMM runs a *partial* engine that
    /// must not: the host contributes them once when combining (§V-D).
    pub absorb_metadata: bool,
    /// A *Compute DMA* offload (§IV-E): source data arrives through
    /// device DMA *writes* instead of the CompCpy copy's reads, so the
    /// arbiter feeds the DSA from wrCAS commands on the source range.
    pub dma_input: bool,
}

impl OffloadContext {
    /// A metadata-absorbing, copy-fed context, or `None` when `aad`
    /// exceeds the 7 bytes the payload holds (the TLS header is 5).
    pub fn new(op: OffloadOp, msg_len: usize, aad: &[u8]) -> Option<OffloadContext> {
        let mut ctx = OffloadContext {
            op,
            msg_len,
            aad: [0; 7],
            aad_len: u8::try_from(aad.len()).ok()?,
            absorb_metadata: true,
            dma_input: false,
        };
        ctx.aad.get_mut(..aad.len())?.copy_from_slice(aad);
        Some(ctx)
    }

    /// The AEAD additional data.
    pub fn aad(&self) -> &[u8] {
        self.aad
            .get(..usize::from(self.aad_len))
            .unwrap_or_default()
    }

    /// Serializes the context into one MMIO payload.
    pub fn encode(&self) -> [u8; 48] {
        let mut p = [0u8; 48];
        let mut put = |at: usize, bytes: &[u8]| {
            if let Some(dst) = p.get_mut(at..at + bytes.len()) {
                dst.copy_from_slice(bytes);
            }
        };
        let (op, key_iv) = match &self.op {
            OffloadOp::TlsEncrypt { key, iv } => (0, Some((key, iv))),
            OffloadOp::TlsDecrypt { key, iv } => (1, Some((key, iv))),
            OffloadOp::Compress => (2, None),
            OffloadOp::Decompress => (3, None),
        };
        put(0, &[op, self.aad_len]);
        put(2, self.aad());
        put(9, &(self.msg_len as u64).to_le_bytes());
        if let Some((key, iv)) = key_iv {
            put(17, key);
            put(33, iv);
        }
        put(45, &[u8::from(self.absorb_metadata)]);
        put(46, &[u8::from(self.dma_input)]);
        p
    }

    /// Parses an MMIO payload. `None` for a malformed one (unknown op
    /// byte, AAD length over 7): the device must reject a corrupt context
    /// write, not fault on it.
    pub fn decode(p: &[u8; 48]) -> Option<OffloadContext> {
        let byte = |at: usize| p.get(at).copied();
        let msg_len = u64::from_le_bytes(take_arr(p, 9)?) as usize;
        let op = match byte(0)? {
            0 => OffloadOp::TlsEncrypt {
                key: take_arr(p, 17)?,
                iv: take_arr(p, 33)?,
            },
            1 => OffloadOp::TlsDecrypt {
                key: take_arr(p, 17)?,
                iv: take_arr(p, 33)?,
            },
            2 => OffloadOp::Compress,
            3 => OffloadOp::Decompress,
            _ => return None,
        };
        // `new` rejects an AAD length past the 7-byte field.
        let aad = p.get(2..2 + usize::from(byte(1)?))?;
        let mut ctx = OffloadContext::new(op, msg_len, aad)?;
        ctx.absorb_metadata = byte(45)? != 0;
        ctx.dma_input = byte(46)? != 0;
        Some(ctx)
    }
}

impl OffloadOp {
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

/// Everything a streaming DSA's page kernel reads: the operation, the
/// Deflate geometry and the page's bytes.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PageJob {
    /// [`OffloadOp::Compress`] or [`OffloadOp::Decompress`].
    pub op: OffloadOp,
    /// The Deflate DSA geometry.
    pub config: HwDeflateConfig,
    /// The whole input page, `msg_len` bytes.
    pub bytes: Vec<u8>,
}

/// The streaming DSAs' page kernel, a pure function of the job: the
/// output bytes, or `None` when the page yields no usable output (a
/// compression that does not shrink it, a corrupt or oversized stream).
pub fn page_kernel(job: &PageJob) -> Option<Vec<u8>> {
    match job.op {
        OffloadOp::Compress => {
            let out = HwCompressor::new(job.config).compress_page(&job.bytes).data;
            (out.len() < job.bytes.len()).then_some(out)
        }
        // Inflation stops at one page, so a hostile stream cannot grow
        // the engine's buffer past it.
        OffloadOp::Decompress => match ulp_compress::hwmodel::decompress_page(&job.bytes) {
            Ok((out, _)) if !out.is_empty() => Some(out),
            _ => None,
        },
        OffloadOp::TlsEncrypt { .. } | OffloadOp::TlsDecrypt { .. } => None,
    }
}

/// [`page_kernel`] run ahead of the simulation on a `simkit::par`
/// helper. The host submits copies of the pages it is about to offload;
/// a streaming DSA takes the helper's output only for a job equal to
/// the one it absorbed, byte for byte, and runs the kernel itself
/// otherwise, so every simulated outcome is the same with or without it.
pub type PageLookahead = Lookahead<PageJob, Option<Vec<u8>>>;

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
            DsaInstance::Compress(s) => write!(f, "Compress({}B)", s.msg_len()),
            DsaInstance::Decompress(s) => write!(f, "Decompress({}B)", s.msg_len()),
        }
    }
}

/// Reassembly buffer for the streaming (de)compression DSAs.
#[derive(Debug)]
pub struct StreamBuf {
    /// The page being absorbed, with the operation and geometry its
    /// kernel runs under.
    job: PageJob,
    received: Vec<bool>, // per cacheline
    /// How many entries of `received` are set.
    lines_received: usize,
    /// Where the page's output may already be waiting.
    lookahead: Option<PageLookahead>,
}

impl StreamBuf {
    fn new(op: OffloadOp, msg_len: usize, config: HwDeflateConfig) -> StreamBuf {
        StreamBuf {
            job: PageJob {
                op,
                config,
                bytes: vec![0u8; msg_len],
            },
            received: vec![false; msg_len.div_ceil(64)],
            lines_received: 0,
            lookahead: None,
        }
    }

    fn msg_len(&self) -> usize {
        self.job.bytes.len()
    }

    /// The kernel's output for the complete page: the lookahead's, if it
    /// ran an equal job, else computed here.
    fn run_kernel(&self) -> Option<Vec<u8>> {
        (self.lookahead.as_ref())
            .and_then(|l| l.take(&self.job))
            .unwrap_or_else(|| page_kernel(&self.job))
    }

    /// Stores the line at message byte `offset` (64-aligned) and returns
    /// whether it was the last one missing. A repeated line, or one past
    /// the message, changes nothing.
    fn absorb(&mut self, offset: usize, line: &[u8; 64]) -> bool {
        let Some(seen) = self.received.get_mut(offset / 64) else {
            return false;
        };
        if std::mem::replace(seen, true) {
            return false;
        }
        // The line's slot of the message; `zip` stops at its valid bytes.
        for (dst, src) in self.job.bytes.iter_mut().skip(offset).zip(line) {
            *dst = *src;
        }
        self.lines_received += 1;
        self.lines_received == self.received.len()
    }
}

/// Splits a byte stream into 64-byte output lines (zero-padded tail).
fn to_lines(bytes: &[u8]) -> Vec<(usize, [u8; 64])> {
    bytes
        .chunks(64)
        .enumerate()
        .map(|(i, c)| {
            let mut line = [0u8; 64];
            for (dst, src) in line.iter_mut().zip(c) {
                *dst = *src;
            }
            (i, line)
        })
        .collect()
}

impl DsaInstance {
    /// Instantiates the engine for a decoded context. A TLS engine with
    /// `absorb_metadata` clear is a per-channel partial engine (§V-D).
    ///
    /// # Panics
    ///
    /// Panics if `msg_len` is zero, or exceeds 4 KB for the page-granular
    /// (de)compression engines (§V-C).
    pub fn new(ctx: &OffloadContext, hw: HwDeflateConfig) -> DsaInstance {
        let msg_len = ctx.msg_len;
        assert!(msg_len > 0, "empty offload");
        let tls = |key: &[u8; 16], iv, direction| {
            DsaInstance::Tls(Box::new(OooGcm::with_metadata_policy(
                AesGcm::new_128(key),
                iv,
                ctx.aad(),
                msg_len,
                direction,
                ctx.absorb_metadata,
            )))
        };
        match ctx.op {
            OffloadOp::TlsEncrypt { key, iv } => tls(&key, iv, Direction::Encrypt),
            OffloadOp::TlsDecrypt { key, iv } => tls(&key, iv, Direction::Decrypt),
            OffloadOp::Compress => {
                assert!(msg_len <= 4096, "compression is page-granular");
                DsaInstance::Compress(StreamBuf::new(ctx.op, msg_len, hw))
            }
            OffloadOp::Decompress => {
                assert!(msg_len <= 4096, "decompression input is page-granular");
                DsaInstance::Decompress(StreamBuf::new(ctx.op, msg_len, hw))
            }
        }
    }

    /// Lets a streaming engine take its page's output from `lookahead`
    /// (see [`PageLookahead`]). No effect on a TLS engine.
    pub fn with_lookahead(mut self, lookahead: Option<&PageLookahead>) -> DsaInstance {
        if let DsaInstance::Compress(buf) | DsaInstance::Decompress(buf) = &mut self {
            buf.lookahead = lookahead.cloned();
        }
        self
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
                if !buf.absorb(offset, data) {
                    return DsaOutput::default();
                }
                let compressed = buf.run_kernel();
                let (status, out) = match &compressed {
                    Some(out) => (OffloadStatus::Done, out),
                    // Did not compress below the original size: hand the
                    // raw input back so the output never outgrows the
                    // registered destination pages.
                    None => (OffloadStatus::Incompressible, &buf.job.bytes),
                };
                DsaOutput {
                    produced: to_lines(out),
                    completion: Some(DsaCompletion {
                        status,
                        out_len: out.len(),
                        tag: None,
                    }),
                }
            }
            DsaInstance::Decompress(buf) => {
                if !buf.absorb(offset, data) {
                    return DsaOutput::default();
                }
                match buf.run_kernel() {
                    Some(out) => DsaOutput {
                        produced: to_lines(&out),
                        completion: Some(DsaCompletion {
                            status: OffloadStatus::Done,
                            out_len: out.len(),
                            tag: None,
                        }),
                    },
                    None => DsaOutput {
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
            DsaInstance::Compress(s) | DsaInstance::Decompress(s) => s.msg_len(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ulp_crypto::gcm::AesGcm;

    fn ctx(op: OffloadOp, msg_len: usize) -> OffloadContext {
        OffloadContext::new(op, msg_len, b"").unwrap()
    }

    /// Every context field survives `encode` → `decode` for `ops`, under
    /// each metadata/DMA flag pair and every AAD length the payload holds.
    fn assert_round_trips(ops: &[OffloadOp]) {
        let aad = *b"\x17\x03\x03\x40\x11hd";
        for &op in ops {
            for (absorb_metadata, dma_input) in
                [(false, false), (false, true), (true, false), (true, true)]
            {
                for n in 0..=aad.len() {
                    let mut ctx = OffloadContext::new(op, 4096 + n * 977, &aad[..n]).unwrap();
                    ctx.absorb_metadata = absorb_metadata;
                    ctx.dma_input = dma_input;
                    let back = OffloadContext::decode(&ctx.encode()).unwrap();
                    assert_eq!(back, ctx, "{op:?} aad {n}");
                    assert_eq!(back.aad(), &aad[..n]);
                }
            }
        }
    }

    #[test]
    fn context_round_trip_tls() {
        let key: [u8; 16] = std::array::from_fn(|i| 0x10 + i as u8);
        let iv: [u8; 12] = std::array::from_fn(|i| 0x20 + i as u8);
        assert_round_trips(&[
            OffloadOp::TlsEncrypt { key, iv },
            OffloadOp::TlsDecrypt { key, iv },
        ]);

        // The MMIO layout, pinned: host and device must agree on it.
        let ctx = OffloadContext::new(
            OffloadOp::TlsEncrypt { key, iv },
            0x4005,
            b"\x17\x03\x03\x40\x11",
        )
        .unwrap();
        #[rustfmt::skip]
        let golden: [u8; 48] = [
            0x00, 0x05, 0x17, 0x03, 0x03, 0x40, 0x11, 0x00, 0x00, // op, AAD len, AAD
            0x05, 0x40, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, // message length
            0x10, 0x11, 0x12, 0x13, 0x14, 0x15, 0x16, 0x17, // key
            0x18, 0x19, 0x1a, 0x1b, 0x1c, 0x1d, 0x1e, 0x1f,
            0x20, 0x21, 0x22, 0x23, 0x24, 0x25, 0x26, 0x27, // IV
            0x28, 0x29, 0x2a, 0x2b,
            0x01, 0x00, 0x00, // absorb_metadata, dma_input, reserved
        ];
        assert_eq!(ctx.encode(), golden);
        assert_eq!(OffloadContext::decode(&golden), Some(ctx));

        // Malformed payloads decode to `None`.
        let mut corrupt = golden;
        corrupt[1] = 8; // AAD length past the 7-byte field
        assert_eq!(OffloadContext::decode(&corrupt), None);
        let mut corrupt = golden;
        corrupt[0] = 4; // unknown op byte
        assert_eq!(OffloadContext::decode(&corrupt), None);
        assert_eq!(OffloadContext::new(OffloadOp::Compress, 64, &[0; 8]), None);
    }

    #[test]
    fn context_round_trip_compress() {
        assert_round_trips(&[OffloadOp::Compress, OffloadOp::Decompress]);
        let ctx = OffloadContext::new(OffloadOp::Compress, 4096, b"").unwrap();
        let p = ctx.encode();
        assert_eq!((p[0], p[1]), (2, 0));
        assert!(p[17..45].iter().all(|&b| b == 0), "no key material");
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
            &ctx(OffloadOp::TlsEncrypt { key, iv }, msg.len()),
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
            &ctx(OffloadOp::Compress, page.len()),
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
            &ctx(OffloadOp::Compress, page.len()),
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
            &ctx(OffloadOp::Decompress, compressed.len()),
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
            &ctx(OffloadOp::Decompress, garbage.len()),
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
    fn decompress_dsa_rejects_streams_that_outgrow_a_page() {
        // 1 MB of zeros deflates to a short run of 258-byte matches: a
        // sub-page stream that inflates 256 pages deep.
        let bomb = ulp_compress::deflate::compress(&vec![0u8; 1 << 20]);
        assert!(bomb.len() <= 4096, "{} B", bomb.len());
        let mut dsa = DsaInstance::new(
            &ctx(OffloadOp::Decompress, bomb.len()),
            HwDeflateConfig::default(),
        );
        let mut completion = None;
        for start in (0..bomb.len()).step_by(64) {
            let valid = (bomb.len() - start).min(64);
            let mut line = [0u8; 64];
            line[..valid].copy_from_slice(&bomb[start..start + valid]);
            let o = dsa.process_line(start, &line, valid);
            assert!(o.produced.is_empty());
            completion = completion.or(o.completion);
        }
        let c = completion.expect("terminal");
        assert_eq!((c.status, c.out_len), (OffloadStatus::Error, 0));
    }

    #[test]
    fn duplicate_lines_are_idempotent_for_streams() {
        let page = ulp_compress::corpus::text(128, 2);
        let mut dsa = DsaInstance::new(
            &ctx(OffloadOp::Compress, page.len()),
            HwDeflateConfig::default(),
        );
        let mut line0 = [0u8; 64];
        line0.copy_from_slice(&page[..64]);
        let _ = dsa.process_line(0, &line0, 64);
        let again = dsa.process_line(0, &line0, 64);
        assert!(again.produced.is_empty() && again.completion.is_none());
    }

    #[test]
    fn stream_completes_once_on_its_last_new_line_in_any_order() {
        // Four lines, the last holding 8 bytes; fed out of order, with a
        // repeat and a line past the message that both change nothing.
        let page = ulp_compress::corpus::html(200, 4);
        let line = |i: usize| {
            let mut line = [0u8; 64];
            for (dst, src) in line.iter_mut().zip(&page[i * 64..]) {
                *dst = *src;
            }
            line
        };
        let mut dsa = DsaInstance::new(
            &ctx(OffloadOp::Compress, page.len()),
            HwDeflateConfig::default(),
        );
        let mut completion = None;
        for (i, expect_done) in [(3, false), (1, false), (1, false), (0, false), (2, true)] {
            let o = dsa.process_line(i * 64, &line(i), if i == 3 { 8 } else { 64 });
            assert_eq!(o.completion.is_some(), expect_done, "line {i}");
            completion = completion.or(o.completion.map(|c| (c, o.produced)));
        }
        let past = dsa.process_line(256, &[0xAB; 64], 64);
        assert!(past.produced.is_empty() && past.completion.is_none());
        let again = dsa.process_line(128, &line(2), 64);
        assert!(again.produced.is_empty() && again.completion.is_none());

        let (c, produced) = completion.expect("completed");
        assert_eq!(c.status, OffloadStatus::Done);
        let mut bytes: Vec<u8> = produced.iter().flat_map(|(_, l)| *l).collect();
        bytes.truncate(c.out_len);
        assert_eq!(ulp_compress::inflate::decompress(&bytes).unwrap(), page);
    }
}
