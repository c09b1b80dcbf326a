//! The backend-differential workloads, defined once for the
//! `backend_differential` artifact (`bench::figures::report`) and
//! `tests/backend_differential.rs`.
//!
//! Each workload runs on one timing tier of [`dram::DramSystem`] —
//! cycle-accurate bank and bus timing (tier 0) or the fixed-latency
//! per-channel FIFO (tier 1) — and returns an [`Outcome`]: the payload
//! bytes and functional counters, which must match exactly across tiers,
//! plus the simulated clock and channel busy cycles, which need only agree
//! within a band. Every sweep also checks its own output against the
//! software golden path and panics on any divergence, so a returned
//! outcome is already correct on its own tier.

use dram::DramTopology;
use memsys::BackendKind;
use simkit::FaultPlan;
use smartdimm::{CompCpyHost, FaultOracle, HostConfig, OffloadOp};
use ulp_crypto::gcm::AesGcm;

/// 64 lines per channel: page-granular (coarse) channel rotation.
pub const COARSE: usize = 64;

/// Offloads per TLS sweep in the committed report.
pub const TLS_OFFLOADS: u64 = 6;

/// Compress + decompress round trips per deflate sweep in the committed
/// report.
pub const DEFLATE_ROUNDS: u64 = 3;

/// Fault-plan seeds of the oracle sweep in the committed report.
pub const FAULT_SEEDS: u64 = 12;

/// What must match exactly across tiers: payload bytes, offload/bounce
/// and fault-recovery counters, and CAS command counts are properties of
/// the protocol state machines, not of bank timing.
#[derive(Debug, Default, PartialEq)]
pub struct Functional {
    /// Ciphertexts and tags, or compressed and restored pages.
    pub payloads: Vec<Vec<u8>>,
    pub bounced_offloads: u64,
    pub force_recycles: u64,
    pub injected_faults: u64,
    /// Oracle scenarios that fell back to software.
    pub fallbacks: u64,
    pub rd_cas: u64,
    pub wr_cas: u64,
    pub alert_retries: u64,
}

/// One workload run on one tier.
#[derive(Debug, Default)]
pub struct Outcome {
    pub functional: Functional,
    /// Simulated end-of-run cycle.
    pub now: u64,
    /// Busy cycles summed over every channel.
    pub busy: u64,
}

impl Outcome {
    fn collect(host: &mut CompCpyHost, payloads: Vec<Vec<u8>>, fallbacks: u64) -> Outcome {
        let channels = host.channels();
        let dram = host.mem().dram();
        let stats = dram.stats();
        Outcome {
            functional: Functional {
                payloads,
                bounced_offloads: host.bounced_offload_count(),
                force_recycles: host.force_recycle_count(),
                injected_faults: host.injected_fault_count(),
                fallbacks,
                rd_cas: stats.rd_cas,
                wr_cas: stats.wr_cas,
                alert_retries: stats.retries,
            },
            now: dram.now().raw(),
            busy: (0..channels).map(|c| dram.channel_busy_cycles(c)).sum(),
        }
    }

    /// Sums two runs: payloads concatenate, every counter adds.
    fn merge(mut self, other: Outcome) -> Outcome {
        let (f, o) = (&mut self.functional, other.functional);
        f.payloads.extend(o.payloads);
        f.bounced_offloads += o.bounced_offloads;
        f.force_recycles += o.force_recycles;
        f.injected_faults += o.injected_faults;
        f.fallbacks += o.fallbacks;
        f.rd_cas += o.rd_cas;
        f.wr_cas += o.wr_cas;
        f.alert_retries += o.alert_retries;
        self.now += other.now;
        self.busy += other.busy;
        self
    }
}

/// The default host configuration on `backend` with `channels` channels
/// rotating every `interleave` lines.
pub fn config_for(backend: BackendKind, channels: usize, interleave: usize) -> HostConfig {
    let mut cfg = HostConfig::default();
    cfg.mem.backend = backend;
    cfg.mem.dram.topology = DramTopology {
        channels,
        channel_interleave_lines: interleave,
        ..DramTopology::default()
    };
    cfg
}

/// A host built from [`config_for`].
pub fn host_for(backend: BackendKind, channels: usize, interleave: usize) -> CompCpyHost {
    CompCpyHost::new(config_for(backend, channels, interleave))
}

/// Seals `size` bytes of HTML (corpus seed `msg_seed`) through the offload
/// path, checks ciphertext and tag against software AES-GCM, and returns
/// them for cross-tier comparison.
pub fn tls_offload(
    host: &mut CompCpyHost,
    size: usize,
    msg_seed: u64,
    iv: [u8; 12],
    aad: &[u8],
) -> Vec<Vec<u8>> {
    let pages = size.div_ceil(4096);
    let src = host.alloc_pages(pages);
    let dst = host.alloc_pages(pages);
    let msg = ulp_compress::corpus::html(size, msg_seed);
    host.mem_mut().store(src, &msg, 0);
    let key = [0x2Au8; 16];
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
    assert_eq!(
        ct, want_ct,
        "ciphertext vs software ({size}B, seed {msg_seed})"
    );
    assert_eq!(tag, want_tag, "tag vs software ({size}B, seed {msg_seed})");
    vec![ct, tag.to_vec()]
}

/// The TLS workload of the multi-channel sweep: `offloads` mixed-size
/// records, enough to rotate through every channel (and bounce on coarse
/// multi-channel hosts). Fault-free, so every buffer device must have
/// seen every PRE/ACT (refresh included): zero Bank Table desyncs.
pub fn tls_sweep(
    backend: BackendKind,
    channels: usize,
    interleave: usize,
    offloads: u64,
) -> Outcome {
    let mut host = host_for(backend, channels, interleave);
    let mut payloads = Vec::new();
    for i in 0..offloads {
        let size = 2048 + (i * 1777) as usize % 6000;
        payloads.extend(tls_offload(&mut host, size, 40 + i, [i as u8; 12], b"diff"));
    }
    let desyncs: u64 = (0..channels)
        .map(|c| host.device_on(c).stats().bank_desyncs)
        .sum();
    assert_eq!(
        desyncs, 0,
        "{backend} tls ch{channels} il{interleave}: Bank Table desynced"
    );
    Outcome::collect(&mut host, payloads, 0)
}

/// `rounds` deflate compress + decompress round trips of one HTML page
/// each on a coarse-interleaved host, checked against `inflate`.
pub fn deflate_sweep(backend: BackendKind, channels: usize, rounds: u64) -> Outcome {
    let mut host = host_for(backend, channels, COARSE);
    let mut payloads = Vec::new();
    for seed in 0..rounds {
        let page = ulp_compress::corpus::html(4096, 70 + seed);
        let src = host.alloc_pages(1);
        let dst = host.alloc_pages(1);
        host.mem_mut().store(src, &page, 0);
        let handle = host
            .comp_cpy(dst, src, 4096, OffloadOp::Compress, true, 0)
            .expect("compression accepted");
        let compressed = host.use_buffer(&handle);
        assert_eq!(
            ulp_compress::inflate::decompress(&compressed).expect("valid deflate"),
            page,
            "compression corrupted (seed {seed})"
        );
        let csrc = host.alloc_pages(1);
        let cdst = host.alloc_pages(1);
        host.mem_mut().store(csrc, &compressed, 0);
        let handle = host
            .comp_cpy(cdst, csrc, compressed.len(), OffloadOp::Decompress, true, 0)
            .expect("decompression accepted");
        let restored = host.use_buffer(&handle);
        assert_eq!(restored, page, "decompress round trip (seed {seed})");
        payloads.push(compressed);
        payloads.push(restored);
    }
    Outcome::collect(&mut host, payloads, 0)
}

/// One seed of the fault-injection oracle sweep: four TLS scenarios on a
/// starved 2-channel coarse host under `FaultPlan::generate(seed, 4)`.
/// `FaultOracle::check` panics on any byte divergence from the software
/// golden path, so the outcome carries no payloads.
pub fn fault_seed(backend: BackendKind, seed: u64) -> Outcome {
    let mut cfg = config_for(backend, 2, COARSE);
    cfg.dimm.scratchpad_pages = 16;
    cfg.dimm.xlat_entries = 64;
    cfg.dimm.cam_entries = 4;
    let mut oracle = FaultOracle::new(cfg, FaultPlan::generate(seed, 4));
    let key = [0x5Cu8; 16];
    let mut fallbacks = 0;
    for i in 0..4u64 {
        let size = 600 + (seed * 977 + i * 4099) as usize % 7000;
        let msg = ulp_compress::corpus::text(size, seed * 31 + i);
        let mut iv = [0u8; 12];
        iv[..8].copy_from_slice(&(seed * 100 + i).to_le_bytes());
        let out = oracle.check(OffloadOp::TlsEncrypt { key, iv }, &msg, b"hdr#f");
        fallbacks += u64::from(out.used_fallback);
        oracle.assert_occupancy_bound();
    }
    let host = oracle.host();
    assert!(
        host.bounced_offload_count() >= 1,
        "seed {seed}: no offload exercised the bounce path"
    );
    Outcome::collect(host, Vec::new(), fallbacks)
}

/// Seeds `0..seeds` of [`fault_seed`], summed into one outcome.
pub fn fault_sweep(backend: BackendKind, seeds: u64) -> Outcome {
    (0..seeds)
        .map(|seed| fault_seed(backend, seed))
        .fold(Outcome::default(), Outcome::merge)
}
