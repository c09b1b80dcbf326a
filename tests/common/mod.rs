//! Helpers shared by the multi-channel integration suites
//! (`interleaving.rs`, `multichannel.rs`).

use dram::DramTopology;
use smartdimm::{CompCpyHost, HostConfig, OffloadOp};
use ulp_crypto::gcm::AesGcm;

/// The default host configuration with `channels` DRAM channels,
/// `interleave` consecutive cachelines per channel.
pub fn config_with(channels: usize, interleave: usize) -> HostConfig {
    let mut cfg = HostConfig::default();
    cfg.mem.dram.topology = DramTopology {
        channels,
        channel_interleave_lines: interleave,
        ..DramTopology::default()
    };
    cfg
}

/// A host built from [`config_with`].
pub fn host_with(channels: usize, interleave: usize) -> CompCpyHost {
    CompCpyHost::new(config_with(channels, interleave))
}

/// Encrypts `size` bytes of seeded HTML under `key` through the AAD
/// offload and checks ciphertext and tag against software
/// `AesGcm::seal`. Returns how many offloads the host bounced so far.
pub fn tls_round_trip(
    host: &mut CompCpyHost,
    key: [u8; 16],
    size: usize,
    aad: &[u8],
    seed: u64,
) -> u64 {
    let pages = size.div_ceil(4096);
    let src = host.alloc_pages(pages);
    let dst = host.alloc_pages(pages);
    let msg = ulp_compress::corpus::html(size, seed);
    host.mem_mut().store(src, &msg, 0);
    let iv = [seed as u8; 12];
    let handle = host
        .comp_cpy_with_aad(
            dst,
            src,
            size,
            OffloadOp::TlsEncrypt { key, iv },
            aad,
            false,
            0,
        )
        .expect("offload accepted");
    let ct = host.use_buffer(&handle);
    let tag = host.tag(&handle).expect("tag available");
    let (want_ct, want_tag) = AesGcm::new_128(&key).seal(&iv, aad, &msg);
    assert_eq!(ct, want_ct, "ciphertext ({size}B, seed {seed})");
    assert_eq!(tag, want_tag, "tag ({size}B, seed {seed})");
    host.bounced_offload_count()
}
