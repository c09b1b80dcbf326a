//! The correctness gate: a seeded sample of offloads pushed through
//! `CompCpyHost::comp_cpy` + `use_buffer` on each workload's topology and
//! compared byte for byte with the software golden path.

use platforms::server::conn_file_addr;
use platforms::UlpKind;
use simkit::DetRng;
use smartdimm::configmem::OffloadStatus;
use smartdimm::{CompCpyHost, OffloadOp};
use ulp_compress::hwmodel::{HwCompressor, HwDeflateConfig};
use ulp_crypto::gcm::AesGcm;

use crate::workload::Harness;

/// Offloads tried and offloads that failed (rejected, `Error` status or
/// output different from the golden path).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct GateResult {
    /// Offloads attempted.
    pub attempted: u64,
    /// Offloads that failed.
    pub failed: u64,
}

/// TLS record header used as AEAD additional data.
const AAD: [u8; 5] = [0x17, 0x03, 0x03, 0x10, 0x00];

/// Whether an offloaded TLS record matches `AesGcm::seal`: ciphertext
/// byte for byte, and the tag the host assembles from the shards.
pub fn tls_matches(
    key: &[u8; 16],
    iv: &[u8; 12],
    input: &[u8],
    output: &[u8],
    tag: Option<[u8; 16]>,
) -> bool {
    let (ct, want) = AesGcm::new_128(key).seal(iv, &AAD, input);
    output == ct.as_slice() && tag == Some(want)
}

/// Whether an offloaded deflate page matches the hardware model the
/// device runs (raw input when the page does not compress) and inflates
/// back to the input.
pub fn deflate_matches(hw: HwDeflateConfig, input: &[u8], output: &[u8]) -> bool {
    let golden = HwCompressor::new(hw).compress_page(input).data;
    if golden.len() >= input.len() {
        return output == input;
    }
    output == golden.as_slice()
        && ulp_compress::inflate::decompress(output).is_ok_and(|d| d == input)
}

/// Runs `samples` seeded offloads of the workload's ULP on a fresh host
/// built like the workload's own.
pub fn run(harness: &Harness, seed: u64, samples: usize) -> GateResult {
    let cfg = harness.host_config();
    let hw = cfg.dimm.hw_deflate;
    let mut host = CompCpyHost::new(cfg);
    let mut rng = DetRng::new(seed ^ 0x6A7E);
    let (min_len, max_len, corpus) = match harness {
        Harness::LockStep(c) => (c.message_bytes, c.message_bytes, c.corpus),
        Harness::Event(c) => (c.min_object_bytes, c.max_object_bytes, c.corpus),
    };
    let mut result = GateResult::default();
    for i in 0..samples {
        result.attempted += 1;
        let ok = match harness.ulp() {
            UlpKind::Tls => {
                let span = (max_len - min_len + 1) as u64;
                let len = min_len + rng.gen_range(0..span) as usize;
                let mut key = [0u8; 16];
                key[..8].copy_from_slice(&rng.next_u64().to_le_bytes());
                let mut iv = [0u8; 12];
                iv[..8].copy_from_slice(&rng.next_u64().to_le_bytes());
                let body = corpus.generate(len, seed ^ i as u64);
                let op = OffloadOp::TlsEncrypt { key, iv };
                offload(&mut host, i, &body, op, false)
                    .is_some_and(|(out, tag)| tls_matches(&key, &iv, &body, &out, tag))
            }
            UlpKind::Compression => {
                let body = corpus.generate(4096, seed ^ i as u64);
                offload(&mut host, i, &body, OffloadOp::Compress, true)
                    .is_some_and(|(out, _)| deflate_matches(hw, &body, &out))
            }
            UlpKind::None => true,
        };
        result.failed += u64::from(!ok);
    }
    result
}

/// One CompCpy offload of `body` from connection `i`'s page-cache slot
/// into fresh driver pages. `None` when the offload is rejected or ends
/// in `Error`.
fn offload(
    host: &mut CompCpyHost,
    i: usize,
    body: &[u8],
    op: OffloadOp,
    ordered: bool,
) -> Option<(Vec<u8>, Option<[u8; 16]>)> {
    let src = conn_file_addr(i % 1024);
    let dst = host.alloc_pages(body.len().div_ceil(smartdimm::PAGE));
    host.mem_mut().store(src, body, 0);
    let aad: &[u8] = if op.size_preserving() { &AAD } else { b"" };
    let handle = host
        .comp_cpy_with_aad(dst, src, body.len(), op, aad, ordered, 0)
        .ok()?;
    if host.read_result(&handle).status == OffloadStatus::Error {
        return None;
    }
    let out = host.use_buffer(&handle);
    let tag = if op.size_preserving() {
        host.tag(&handle)
    } else {
        None
    };
    Some((out, tag))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn corrupted_tls_output_fails_the_check() {
        let (key, iv) = ([7u8; 16], [9u8; 12]);
        let body = vec![0x41u8; 4096];
        let (ct, tag) = AesGcm::new_128(&key).seal(&iv, &AAD, &body);
        assert!(tls_matches(&key, &iv, &body, &ct, Some(tag)));
        let mut bad = ct.clone();
        bad[100] ^= 1;
        assert!(!tls_matches(&key, &iv, &body, &bad, Some(tag)));
        assert!(!tls_matches(&key, &iv, &body, &ct, None));
    }

    #[test]
    fn corrupted_deflate_output_fails_the_check() {
        let hw = HwDeflateConfig::default();
        let body = ulp_compress::corpus::Kind::Html.generate(4096, 3);
        let good = HwCompressor::new(hw).compress_page(&body).data;
        assert!(deflate_matches(hw, &body, &good));
        let mut bad = good.clone();
        bad[10] ^= 0x80;
        assert!(!deflate_matches(hw, &body, &bad));
    }
}
