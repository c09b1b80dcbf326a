//! Multi-channel scale-out (§V-D): per-channel SmartDIMM shards behind
//! one `CompCpyHost`, with cross-channel sbuf/dbuf pairs routed through
//! a phase-matched bounce buffer.
//!
//! Under *coarse* interleave (≥ 64 consecutive cachelines per channel)
//! whole pages map to one channel and consecutive pages rotate channels,
//! so a source page and its destination page can land on different
//! SmartDIMMs. A shard only ever sees the CAS traffic of its own
//! channel, so the driver stages such offloads into a bounce region at
//! the same phase of the interleave period as the source and copies out
//! once the device completes. Every path must stay byte-exact against
//! the software golden path and deterministic across same-seed runs.

use bench::differential::{config_for, host_for, tls_offload, COARSE};
use memsys::BackendKind::{self, CycleAccurate, FastQueue};
use simkit::telemetry::Registry;
use simkit::FaultPlan;
use smartdimm::{FaultOracle, OffloadOp};

#[test]
fn cross_channel_tls_two_channels_coarse() {
    // One page per buffer: consecutive page allocations land on
    // alternating channels, so sbuf and dbuf are guaranteed to sit on
    // *different* SmartDIMMs.
    let mut host = host_for(CycleAccurate, 2, COARSE);
    tls_offload(&mut host, 4096, 1, [1; 12], b"hdr#1");
    assert!(
        host.bounced_offload_count() >= 1,
        "cross-channel pair must take the bounce path"
    );
}

#[test]
fn cross_channel_tls_multi_page() {
    // Three pages: src pages occupy channels (k, k+1, k+2) mod 2 and dst
    // pages start at an odd page offset, so every page pair is
    // phase-mismatched. The partial engines on both shards must combine.
    let mut host = host_for(CycleAccurate, 2, COARSE);
    tls_offload(&mut host, 3 * 4096, 2, [2; 12], b"hdr#3");
    tls_offload(&mut host, 2 * 4096 + 100, 3, [3; 12], b"");
}

#[test]
fn cross_channel_tls_four_channels() {
    // 3 and 6 channels put the Config Memory base at a different phase
    // of the interleave period on every channel: the host must still
    // read each pinned offload's tag from the shard that computed it.
    for channels in [4, 3, 6] {
        let mut host = host_for(CycleAccurate, channels, COARSE);
        for seed in 0..channels as u64 {
            tls_offload(&mut host, 4096, 10 + seed, [(10 + seed) as u8; 12], b"hd");
        }
        tls_offload(&mut host, 1024, 9, [9; 12], b"hd");
        assert!(
            host.bounced_offload_count() >= 1,
            "some pair must have crossed channels"
        );
        // Repeated single-page offloads rotate through the channels.
        let active = (0..channels)
            .filter(|&c| host.device_on(c).stats().dsa_lines > 0)
            .count();
        assert!(
            active >= 2,
            "only {active} of {channels} shards processed lines"
        );
    }
}

#[test]
fn cross_channel_compression_round_trip() {
    for channels in [2, 3, 6] {
        let mut host = host_for(CycleAccurate, channels, COARSE);
        let page = ulp_compress::corpus::html(4096, 7);
        let src = host.alloc_pages(1);
        let dst = host.alloc_pages(1); // next channel over from src
        host.mem_mut().store(src, &page, 0);
        let handle = host
            .comp_cpy(dst, src, 4096, OffloadOp::Compress, true, 0)
            .expect("coarse interleave keeps the source on one channel");
        let compressed = host.use_buffer(&handle);
        assert!(host.bounced_offload_count() >= 1);
        assert!(compressed.len() < page.len(), "{channels} channels");
        assert_eq!(
            ulp_compress::inflate::decompress(&compressed).expect("valid deflate stream"),
            page,
            "compressed output corrupted by the bounce path"
        );

        // And back: decompress across channels too.
        let csrc = host.alloc_pages(1);
        let cdst = host.alloc_pages(1);
        host.mem_mut().store(csrc, &compressed, 0);
        let handle = host
            .comp_cpy(cdst, csrc, compressed.len(), OffloadOp::Decompress, true, 0)
            .expect("decompression accepted");
        let restored = host.use_buffer(&handle);
        assert_eq!(
            restored, page,
            "decompression round trip ({channels} channels)"
        );
    }
}

#[test]
fn fine_interleave_still_rejects_compression() {
    // Fine interleave splits every page across channels: there is no
    // sole channel for the source, so non-size-preserving offloads stay
    // rejected (the pre-existing §V-D restriction).
    let mut host = host_for(CycleAccurate, 2, 1);
    let src = host.alloc_pages(1);
    let dst = host.alloc_pages(1);
    host.mem_mut().store(src, &[7u8; 4096], 0);
    assert_eq!(
        host.comp_cpy(dst, src, 4096, OffloadOp::Compress, true, 0),
        Err(smartdimm::CompCpyError::SingleChannelOnly)
    );
}

/// Seeded fault plans against a starved 2-channel coarse-interleave host
/// on the given DRAM tier: the oracle allocates src and dst
/// consecutively, so odd-page-count buffers produce cross-channel pairs.
/// Bounce staging, fault injection and `finish_bounce` retries are
/// protocol logic above the memory model, so every scenario must stay
/// byte-exact on either tier (oracle.check panics otherwise). The
/// differential harness (tests/backend_differential.rs) additionally
/// pins the recovery counters equal across tiers.
fn cross_channel_fault_sweep(backend: BackendKind) {
    let mut fallbacks = 0;
    for seed in 0..12u64 {
        let plan = FaultPlan::generate(seed, 4);
        let mut cfg = config_for(backend, 2, COARSE);
        cfg.dimm.scratchpad_pages = 16;
        cfg.dimm.xlat_entries = 64;
        cfg.dimm.cam_entries = 4;
        let mut oracle = FaultOracle::new(cfg, plan);
        let key = [0x5Cu8; 16];
        for i in 0..4u64 {
            let size = 600 + (seed * 977 + i * 4099) as usize % 7000;
            let msg = ulp_compress::corpus::text(size, seed * 31 + i);
            let mut iv = [0u8; 12];
            iv[..8].copy_from_slice(&(seed * 100 + i).to_le_bytes());
            let out = oracle.check(OffloadOp::TlsEncrypt { key, iv }, &msg, b"hdr#f");
            fallbacks += usize::from(out.used_fallback);
            oracle.assert_occupancy_bound();
        }
        assert!(
            oracle.host().bounced_offload_count() >= 1,
            "{backend} seed {seed}: no offload exercised the bounce path"
        );
        // Every bank command reached each shard's Bank Table, so Addr
        // Remap never met a CAS it could not place.
        let desyncs: u64 = (0..2)
            .map(|ch| oracle.host().device_on(ch).stats().bank_desyncs)
            .sum();
        assert_eq!(desyncs, 0, "{backend} seed {seed}: Bank Table out of sync");
    }
    // Device-path coverage: striped and bounced offloads must settle on
    // the device; only offloads the injected faults truly starved may
    // fall back to software.
    assert!(
        fallbacks <= 4,
        "{backend}: {fallbacks} of 48 scenarios fell back to software"
    );
}

#[test]
fn cross_channel_offloads_under_fault_injection() {
    cross_channel_fault_sweep(CycleAccurate);
}

#[test]
fn cross_channel_fault_recovery_on_the_fast_backend() {
    // The same sweep on the fast fixed-latency backend (fidelity tier 1).
    cross_channel_fault_sweep(FastQueue);
}

/// Runs a fixed multi-channel workload and snapshots its telemetry.
fn channel_snapshot(channels: usize, interleave: usize) -> String {
    let mut host = host_for(CycleAccurate, channels, interleave);
    for seed in 0..6u64 {
        let size = 2048 + (seed * 1777) as usize % 6000;
        tls_offload(&mut host, size, 40 + seed, [(40 + seed) as u8; 12], b"det");
    }
    let mut reg = Registry::new();
    host.export_telemetry(reg.scope("host"));
    reg.snapshot()
}

#[test]
fn multi_channel_same_seed_runs_are_byte_identical() {
    for (channels, interleave) in [(2, 1), (2, COARSE), (4, COARSE)] {
        let a = channel_snapshot(channels, interleave);
        let b = channel_snapshot(channels, interleave);
        assert_eq!(
            a, b,
            "{channels}-channel (interleave {interleave}) snapshots diverged"
        );
        // Per-channel sub-scopes must be present in the export.
        for c in 0..channels {
            assert!(a.contains(&format!("\"channel{c}\"")), "missing channel{c}");
        }
        for sub in ["\"device\"", "\"scratchpad\"", "\"xlat\""] {
            assert!(a.contains(sub), "missing {sub} sub-scope");
        }
    }
}
