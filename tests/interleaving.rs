//! §V-D: fine-grain memory-channel interleaving.
//!
//! Multi-channel servers map only 1–4 consecutive cachelines to each
//! DIMM. Size-preserving ULPs (TLS) still offload: one SmartDIMM per
//! channel runs a *partial* AES-GCM engine over its own cachelines, the
//! registration step replicates the configuration data to every DIMM,
//! and the host XOR-combines the partial GHASH accumulators with the
//! metadata contribution and EIV. Non-size-preserving ULPs must be mapped
//! to a single channel and are rejected otherwise.

mod common;

use common::{host_with, tls_round_trip};
use smartdimm::{CompCpyError, OffloadOp};
use ulp_crypto::gcm::AesGcm;

/// The key every `tls_round_trip` here encrypts under.
const KEY: [u8; 16] = [0x77; 16];

#[test]
fn two_channels_line_interleaved_tls() {
    let mut host = host_with(2, 1);
    assert_eq!(host.channels(), 2);
    tls_round_trip(&mut host, KEY, 4096, b"", 1);
    tls_round_trip(&mut host, KEY, 16384, b"hdr#2", 2);
}

#[test]
fn two_channels_coarser_interleave() {
    // 4 consecutive cachelines per channel (§V-D's upper end).
    let mut host = host_with(2, 4);
    tls_round_trip(&mut host, KEY, 4096, b"", 3);
    tls_round_trip(&mut host, KEY, 8192, b"aad", 4);
}

#[test]
fn four_channels_tls() {
    let mut host = host_with(4, 1);
    tls_round_trip(&mut host, KEY, 4096, b"", 5);
    tls_round_trip(&mut host, KEY, 12288, b"hd", 6);
}

#[test]
fn both_devices_participate() {
    let mut host = host_with(2, 1);
    tls_round_trip(&mut host, KEY, 4096, b"", 7);
    for c in 0..2 {
        let stats = host.device_on(c).stats();
        assert!(
            stats.dsa_lines >= 30,
            "channel {c} processed {} lines",
            stats.dsa_lines
        );
        assert!(stats.self_recycles > 0, "channel {c} recycled nothing");
    }
}

#[test]
fn decrypt_direction_interleaved() {
    let mut host = host_with(2, 2);
    let key = [0x31u8; 16];
    let iv = [9u8; 12];
    let msg = ulp_compress::corpus::text(6000, 8);
    let gcm = AesGcm::new_128(&key);
    let (ct, _) = gcm.seal(&iv, b"", &msg);

    let src = host.alloc_pages(2);
    let dst = host.alloc_pages(2);
    host.mem_mut().store(src, &ct, 0);
    let handle = host
        .comp_cpy(
            dst,
            src,
            ct.len(),
            OffloadOp::TlsDecrypt { key, iv },
            false,
            0,
        )
        .expect("offload accepted");
    let pt = host.use_buffer(&handle);
    assert_eq!(pt, msg);
}

#[test]
fn compression_rejected_on_interleaved_channels() {
    let mut host = host_with(2, 1);
    let src = host.alloc_pages(1);
    let dst = host.alloc_pages(1);
    host.mem_mut().store(src, &[7u8; 4096], 0);
    assert_eq!(
        host.comp_cpy(dst, src, 4096, OffloadOp::Compress, true, 0),
        Err(CompCpyError::SingleChannelOnly)
    );
    // TLS on the same host still works.
    tls_round_trip(&mut host, KEY, 4096, b"", 9);
}

#[test]
fn back_to_back_interleaved_offloads_reuse_buffers() {
    let mut host = host_with(2, 1);
    let src = host.alloc_pages(1);
    let dst = host.alloc_pages(1);
    let key = [0x55u8; 16];
    for i in 0..6u64 {
        let msg = ulp_compress::corpus::json(4096, 100 + i);
        host.mem_mut().store(src, &msg, 0);
        let iv = [(i + 1) as u8; 12];
        let handle = host
            .comp_cpy(dst, src, 4096, OffloadOp::TlsEncrypt { key, iv }, false, 0)
            .expect("offload accepted");
        let ct = host.use_buffer(&handle);
        let tag = host.tag(&handle).expect("tag");
        let gcm = AesGcm::new_128(&key);
        let (want, want_tag) = gcm.seal(&iv, b"", &msg);
        assert_eq!(ct, want, "round {i}");
        assert_eq!(tag, want_tag, "round {i}");
    }
}
