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
//!
//! The workloads live in `bench::differential`, shared with the
//! `backend_differential` artifact that writes
//! `results/backend_differential.json`; each sweep there checks its own
//! output against the software golden path. This file holds the
//! cross-tier assertions, the bands and the snapshot tests.

use bench::differential::{
    deflate_sweep, fault_seed, host_for, tls_offload, tls_sweep, Outcome, COARSE, DEFLATE_ROUNDS,
    FAULT_SEEDS, TLS_OFFLOADS,
};
use memsys::BackendKind;
use simkit::telemetry::Registry;

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

fn assert_timing_in_band(label: &str, acc: &Outcome, fast: &Outcome) {
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
        let [acc, fast] = BACKENDS.map(|b| tls_sweep(b, channels, interleave, TLS_OFFLOADS));
        assert_eq!(
            acc.functional, fast.functional,
            "{label}: functional divergence"
        );
        assert_timing_in_band(&label, &acc, &fast);
    }
}

#[test]
fn deflate_sweep_agrees_across_backends() {
    for channels in [1, 2] {
        let label = format!("deflate ch{channels}");
        let [acc, fast] = BACKENDS.map(|b| deflate_sweep(b, channels, DEFLATE_ROUNDS));
        assert_eq!(
            acc.functional, fast.functional,
            "{label}: functional divergence"
        );
        assert_timing_in_band(&label, &acc, &fast);
    }
}

#[test]
fn fault_injected_oracle_seeds_agree_across_backends() {
    // The full 12-seed fault-recovery sweep on *both* backends: the
    // oracle asserts byte-exactness internally; across backends the
    // recovery counters (injected faults, bounces, recycles, software
    // fallbacks) and CAS command counts must be identical — fault
    // handling is protocol state, not timing.
    let mut total_faults = 0;
    for seed in 0..FAULT_SEEDS {
        let [acc, fast] = BACKENDS.map(|b| fault_seed(b, seed));
        total_faults += fast.functional.injected_faults;
        assert_eq!(
            acc.functional, fast.functional,
            "seed {seed}: functional divergence"
        );
        assert_timing_in_band(&format!("fault seed {seed}"), &acc, &fast);
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
        let msg_seed = 90 + seed;
        tls_offload(&mut host, size, msg_seed, [msg_seed as u8; 12], b"det");
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
        tls_offload(&mut host, 4096, 7, [7; 12], b"id");
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
    let [acc, fast] = BACKENDS.map(|b| tls_sweep(b, 2, COARSE, TLS_OFFLOADS));
    assert_ne!(
        acc.busy, fast.busy,
        "busy-cycle semantics are documented as different; identical values \
         mean the fast tier silently started emulating burst accounting"
    );
}
