//! Differential fidelity harness: every committed workload runs on both
//! memory fidelity tiers of [`dram::DramSystem`] — cycle-accurate bank
//! and bus timing (tier 0) and the fixed-latency + per-channel-FIFO
//! rule (tier 1) — and must agree:
//!
//! * **byte-identical payloads** — ciphertexts, tags, compressed and
//!   decompressed bytes never depend on the timing model,
//! * **identical functional stats** — offload/bounce/reject counts,
//!   fault-recovery counters and CAS command counts are a property of
//!   the protocol state machines, not of bank timing,
//! * **timing stats within a committed tolerance band** — the fast
//!   tier's service times equal the accurate controller's steady-state
//!   issue spacing (`tCL+tBURST` / `tCWL+tBURST`), so simulated cycle
//!   counts track closely; the bands below are measured and documented
//!   in DESIGN.md ("Memory backend fidelity tiers"),
//! * **fast-mode determinism** — same-seed fast runs produce
//!   byte-identical telemetry snapshots (the simlint DET rules apply to
//!   the fast backend exactly as to the accurate one).

use dram::DramTopology;
use memsys::BackendKind;
use simkit::telemetry::Registry;
use simkit::FaultPlan;
use smartdimm::{CompCpyHost, FaultOracle, HostConfig, OffloadOp};
use ulp_crypto::gcm::AesGcm;

/// 64 lines per channel: page-granular (coarse) channel rotation.
const COARSE: usize = 64;

const BACKENDS: [BackendKind; 2] = [BackendKind::CycleAccurate, BackendKind::FastQueue];

/// Committed tolerance band for simulated end-of-run time: the fast
/// tier must land within this factor of the accurate backend's `now`.
/// Measured on the sweeps below it runs 5-8% *short* (ratio 0.92-0.95:
/// it drops tRCD/tRP on row misses and tREFI refresh stalls); the band
/// leaves margin for workload drift without letting the tiers diverge
/// past what tier 1 promises.
const NOW_RATIO_BAND: (f64, f64) = (0.85, 1.05);

/// Committed tolerance band for per-channel busy-cycle totals. The fast
/// tier books the *full* service time (`tCL+tBURST` = 26 cycles per
/// read) as channel occupancy while the accurate controller books only
/// the data-burst cycles (`tBURST` = 4), so fast "busy" sits a little
/// under `service/burst` = 6.5x higher by construction (measured
/// 4.9-5.8x). This is a semantic difference, not drift — see DESIGN.md.
const BUSY_RATIO_BAND: (f64, f64) = (4.0, 6.5);

fn host_for(backend: BackendKind, channels: usize, interleave: usize) -> CompCpyHost {
    let mut cfg = HostConfig::default();
    cfg.mem.backend = backend;
    cfg.mem.dram.topology = DramTopology {
        channels,
        channel_interleave_lines: interleave,
        ..DramTopology::default()
    };
    CompCpyHost::new(cfg)
}

/// Everything one workload run produces, split into the payload bytes
/// (must match exactly), the functional counters (must match exactly)
/// and the timing stats (must match within the committed bands).
#[derive(Debug, PartialEq)]
struct Functional {
    payloads: Vec<Vec<u8>>,
    bounced_offloads: u64,
    force_recycles: u64,
    injected_faults: u64,
    rd_cas: u64,
    wr_cas: u64,
    alert_retries: u64,
}

#[derive(Debug)]
struct TimingStats {
    now: u64,
    busy: u64,
}

fn collect(host: &mut CompCpyHost, payloads: Vec<Vec<u8>>) -> (Functional, TimingStats) {
    let channels = host.channels();
    let dram = host.mem().dram();
    let functional = Functional {
        payloads,
        bounced_offloads: host.bounced_offload_count(),
        force_recycles: host.force_recycle_count(),
        injected_faults: host.injected_fault_count(),
        rd_cas: dram.stats().rd_cas.value(),
        wr_cas: dram.stats().wr_cas.value(),
        alert_retries: dram.stats().retries.value(),
    };
    let timing = TimingStats {
        now: dram.now().raw(),
        busy: (0..channels).map(|c| dram.channel_busy_cycles(c)).sum(),
    };
    (functional, timing)
}

/// Seals `size` bytes through the offload path, verifies against
/// software AES-GCM, and returns ciphertext + tag for cross-backend
/// comparison.
fn tls_offload(host: &mut CompCpyHost, size: usize, aad: &[u8], seed: u64) -> Vec<Vec<u8>> {
    let pages = size.div_ceil(4096);
    let src = host.alloc_pages(pages);
    let dst = host.alloc_pages(pages);
    let msg = ulp_compress::corpus::html(size, seed);
    host.mem_mut().store(src, &msg, 0);
    let key = [0x2Au8; 16];
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
    assert_eq!(ct, want_ct, "ciphertext vs software ({size}B, seed {seed})");
    assert_eq!(tag, want_tag, "tag vs software ({size}B, seed {seed})");
    vec![ct, tag.to_vec()]
}

/// Bank Table desyncs summed over every channel's device: a CAS or ACT
/// that found the device's view of a bank different from the
/// controller's.
fn bank_desyncs(host: &mut CompCpyHost) -> u64 {
    (0..host.channels())
        .map(|c| host.device_on(c).stats().bank_desyncs)
        .sum()
}

/// The TLS workload of the multi-channel sweep: mixed sizes, enough
/// offloads to rotate through every channel (and bounce on coarse
/// multi-channel hosts). Fault-free, so every buffer device must have
/// seen every PRE/ACT (refresh included): zero Bank Table desyncs.
fn run_tls_sweep(
    backend: BackendKind,
    channels: usize,
    interleave: usize,
) -> (Functional, TimingStats) {
    let mut host = host_for(backend, channels, interleave);
    let mut payloads = Vec::new();
    for seed in 0..6u64 {
        let size = 2048 + (seed * 1777) as usize % 6000;
        payloads.extend(tls_offload(&mut host, size, b"diff", 40 + seed));
    }
    assert_eq!(
        bank_desyncs(&mut host),
        0,
        "{backend} tls ch{channels} il{interleave}: Bank Table desynced"
    );
    collect(&mut host, payloads)
}

/// Deflate compress + cross-channel decompress round trip.
fn run_deflate_sweep(backend: BackendKind, channels: usize) -> (Functional, TimingStats) {
    let mut host = host_for(backend, channels, COARSE);
    let mut payloads = Vec::new();
    for seed in 0..3u64 {
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
    collect(&mut host, payloads)
}

/// The 12-seed fault-injection oracle sweep from `tests/multichannel.rs`
/// on a selectable backend. `oracle.check` panics on any byte divergence
/// from the software golden path, so a green run *is* the payload check.
fn run_fault_sweep(backend: BackendKind, seed: u64) -> (Functional, TimingStats) {
    let plan = FaultPlan::generate(seed, 4);
    let mut cfg = HostConfig::default();
    cfg.mem.backend = backend;
    cfg.mem.dram.topology = DramTopology {
        channels: 2,
        channel_interleave_lines: COARSE,
        ..DramTopology::default()
    };
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
        oracle.check(OffloadOp::TlsEncrypt { key, iv }, &msg, b"hdr#f");
        oracle.assert_occupancy_bound();
    }
    assert!(
        oracle.host().bounced_offload_count() >= 1,
        "seed {seed}: no offload exercised the bounce path"
    );
    // FaultOracle owns the host; collect through its accessor.
    let host = oracle.host();
    let channels = host.channels();
    let dram = host.mem().dram();
    let functional = Functional {
        payloads: Vec::new(), // oracle.check already compared every byte
        bounced_offloads: host.bounced_offload_count(),
        force_recycles: host.force_recycle_count(),
        injected_faults: host.injected_fault_count(),
        rd_cas: dram.stats().rd_cas.value(),
        wr_cas: dram.stats().wr_cas.value(),
        alert_retries: dram.stats().retries.value(),
    };
    let timing = TimingStats {
        now: dram.now().raw(),
        busy: (0..channels).map(|c| dram.channel_busy_cycles(c)).sum(),
    };
    (functional, timing)
}

fn assert_timing_in_band(label: &str, acc: &TimingStats, fast: &TimingStats) {
    let now_ratio = fast.now as f64 / acc.now as f64;
    assert!(
        (NOW_RATIO_BAND.0..=NOW_RATIO_BAND.1).contains(&now_ratio),
        "{label}: fast `now` {} vs accurate {} (ratio {now_ratio:.3}) outside {NOW_RATIO_BAND:?}",
        fast.now,
        acc.now
    );
    let busy_ratio = fast.busy as f64 / acc.busy as f64;
    assert!(
        (BUSY_RATIO_BAND.0..=BUSY_RATIO_BAND.1).contains(&busy_ratio),
        "{label}: fast busy {} vs accurate {} (ratio {busy_ratio:.3}) outside {BUSY_RATIO_BAND:?}",
        fast.busy,
        acc.busy
    );
}

#[test]
fn tls_sweeps_agree_across_backends() {
    // 1/2/4-channel sweeps, fine and coarse interleave: payload bytes
    // and every functional counter identical, timing within band.
    for (channels, interleave) in [(1, 1), (2, 1), (2, COARSE), (4, COARSE)] {
        let label = format!("tls ch{channels} il{interleave}");
        let (acc_fn, acc_t) = run_tls_sweep(BackendKind::CycleAccurate, channels, interleave);
        let (fast_fn, fast_t) = run_tls_sweep(BackendKind::FastQueue, channels, interleave);
        assert_eq!(acc_fn, fast_fn, "{label}: functional divergence");
        assert_timing_in_band(&label, &acc_t, &fast_t);
    }
}

#[test]
fn deflate_sweep_agrees_across_backends() {
    for channels in [1, 2] {
        let label = format!("deflate ch{channels}");
        let (acc_fn, acc_t) = run_deflate_sweep(BackendKind::CycleAccurate, channels);
        let (fast_fn, fast_t) = run_deflate_sweep(BackendKind::FastQueue, channels);
        assert_eq!(acc_fn, fast_fn, "{label}: functional divergence");
        assert_timing_in_band(&label, &acc_t, &fast_t);
    }
}

#[test]
fn fault_injected_oracle_seeds_agree_across_backends() {
    // The full 12-seed fault-recovery sweep on *both* backends: the
    // oracle asserts byte-exactness internally; across backends the
    // recovery counters (injected faults, bounces, recycles) and CAS
    // command counts must be identical — fault handling is protocol
    // state, not timing.
    let mut total_faults = 0;
    for seed in 0..12u64 {
        let (acc_fn, acc_t) = run_fault_sweep(BackendKind::CycleAccurate, seed);
        let (fast_fn, fast_t) = run_fault_sweep(BackendKind::FastQueue, seed);
        total_faults += fast_fn.injected_faults;
        assert_eq!(acc_fn, fast_fn, "seed {seed}: functional divergence");
        assert_timing_in_band(&format!("fault seed {seed}"), &acc_t, &fast_t);
    }
    assert!(total_faults > 0, "12-seed sweep injected no faults at all");
}

/// Runs a fixed fast-mode workload and snapshots the full telemetry
/// registry (host counters, per-channel shards, memory hierarchy,
/// backend identity).
fn fast_snapshot(channels: usize, interleave: usize) -> String {
    let mut host = host_for(BackendKind::FastQueue, channels, interleave);
    for seed in 0..4u64 {
        let size = 1024 + (seed * 2333) as usize % 5000;
        tls_offload(&mut host, size, b"det", 90 + seed);
    }
    let mut reg = Registry::new();
    host.export_telemetry(reg.scope("host"));
    reg.snapshot()
}

#[test]
fn fast_mode_same_seed_runs_are_byte_identical() {
    for (channels, interleave) in [(1, 1), (2, COARSE), (4, COARSE)] {
        let a = fast_snapshot(channels, interleave);
        let b = fast_snapshot(channels, interleave);
        assert_eq!(
            a, b,
            "fast {channels}-channel (interleave {interleave}) snapshots diverged"
        );
    }
}

#[test]
fn snapshots_carry_backend_identity() {
    // Every snapshot names its backend and fidelity tier so archived
    // telemetry can never be compared across tiers by accident.
    for (backend, tier, name) in [
        (BackendKind::CycleAccurate, 0u64, "\"cycle_accurate\""),
        (BackendKind::FastQueue, 1u64, "\"fast_queue\""),
    ] {
        let mut host = host_for(backend, 1, 1);
        tls_offload(&mut host, 4096, b"id", 7);
        let mut reg = Registry::new();
        host.export_telemetry(reg.scope("host"));
        let snap = reg.snapshot();
        assert!(snap.contains("\"backend\""), "{backend}: no backend scope");
        assert!(snap.contains(name), "{backend}: identity counter missing");
        let tier_line =
            format!("\"fidelity_tier\": {{ \"kind\": \"counter\", \"value\": {tier} }}");
        assert!(
            snap.contains(&tier_line),
            "{backend}: fidelity_tier {tier} missing from snapshot"
        );
        // The two-backend list above is exhaustive; a run can only carry
        // one identity.
        let other = if tier == 0 {
            "\"fast_queue\""
        } else {
            "\"cycle_accurate\""
        };
        assert!(!snap.contains(other), "{backend}: carries both identities");
    }
}

#[test]
fn backends_disagree_only_inside_the_band() {
    // Sanity-pin the band constants themselves: the fast tier must not
    // be "accurate by accident" (busy semantics differ by design), and
    // the bands must stay real intervals.
    assert!(NOW_RATIO_BAND.0 < NOW_RATIO_BAND.1);
    assert!(BUSY_RATIO_BAND.0 < BUSY_RATIO_BAND.1);
    assert!(BACKENDS[0] != BACKENDS[1]);
    let (_, acc_t) = run_tls_sweep(BACKENDS[0], 2, COARSE);
    let (_, fast_t) = run_tls_sweep(BACKENDS[1], 2, COARSE);
    assert_ne!(
        acc_t.busy, fast_t.busy,
        "busy-cycle semantics are documented as different; identical values \
         mean the fast tier silently started emulating burst accounting"
    );
}
