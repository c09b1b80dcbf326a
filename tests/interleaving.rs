//! §V-D: fine-grain memory-channel interleaving.
//!
//! Multi-channel servers map only 1–4 consecutive cachelines to each
//! DIMM. Size-preserving ULPs (TLS) still offload: one SmartDIMM per
//! channel runs a *partial* AES-GCM engine over its own cachelines, the
//! registration step replicates the configuration data to every DIMM,
//! and the host XOR-combines the partial GHASH accumulators with the
//! metadata contribution and EIV. Non-size-preserving ULPs must be mapped
//! to a single channel and are rejected otherwise.

use bench::differential::{host_for, tls_offload};
use memsys::BackendKind::CycleAccurate;
use smartdimm::{CompCpyError, OffloadOp};
use ulp_crypto::gcm::AesGcm;

#[test]
fn two_channels_line_interleaved_tls() {
    let mut host = host_for(CycleAccurate, 2, 1);
    assert_eq!(host.channels(), 2);
    tls_offload(&mut host, 4096, 1, [1; 12], b"");
    tls_offload(&mut host, 16384, 2, [2; 12], b"hdr#2");
}

#[test]
fn two_channels_coarser_interleave() {
    // 4 consecutive cachelines per channel (§V-D's upper end).
    let mut host = host_for(CycleAccurate, 2, 4);
    tls_offload(&mut host, 4096, 3, [3; 12], b"");
    tls_offload(&mut host, 8192, 4, [4; 12], b"aad");
}

#[test]
fn four_channels_tls() {
    let mut host = host_for(CycleAccurate, 4, 1);
    tls_offload(&mut host, 4096, 5, [5; 12], b"");
    tls_offload(&mut host, 12288, 6, [6; 12], b"hd");
}

#[test]
fn both_devices_participate() {
    let mut host = host_for(CycleAccurate, 2, 1);
    tls_offload(&mut host, 4096, 7, [7; 12], b"");
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
    let mut host = host_for(CycleAccurate, 2, 2);
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
    let mut host = host_for(CycleAccurate, 2, 1);
    let src = host.alloc_pages(1);
    let dst = host.alloc_pages(1);
    host.mem_mut().store(src, &[7u8; 4096], 0);
    assert_eq!(
        host.comp_cpy(dst, src, 4096, OffloadOp::Compress, true, 0),
        Err(CompCpyError::SingleChannelOnly)
    );
    // TLS on the same host still works.
    tls_offload(&mut host, 4096, 9, [9; 12], b"");
}

#[test]
fn back_to_back_interleaved_offloads_reuse_buffers() {
    let mut host = host_for(CycleAccurate, 2, 1);
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
