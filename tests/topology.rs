//! Scale-out topology determinism and scheduler invariants (PR 10).
//!
//! A 2-socket × 2-DIMM-per-channel system must behave exactly like the
//! flat topology in every way that matters for reproducibility: the
//! telemetry snapshot is byte-identical across same-seed runs, the
//! offload scheduler never feeds a DSA-less capacity DIMM,
//! and remote-socket offloads are visible in the interconnect counters
//! (DESIGN.md §13).

use cache::CacheConfig;
use dram::PhysAddr;
use platforms::{run_server_with_telemetry, PlatformKind, UlpKind, WorkloadConfig};
use simkit::telemetry::Registry;
use smartdimm::{CompCpyHost, HostConfig, OffloadOp, PlacementPolicy};

/// Whole pages pin to one channel — required for placement to be a
/// per-offload decision at all.
const COARSE: usize = 64;

fn topo_workload(placement: PlacementPolicy) -> WorkloadConfig {
    WorkloadConfig {
        message_bytes: 4096,
        connections: 12,
        requests: 48,
        ulp: UlpKind::Tls,
        llc: Some(CacheConfig::mb(2, 16)),
        channels: 4,
        channel_interleave_lines: COARSE,
        dimms_per_channel: 2,
        sockets: 2,
        interconnect_penalty_cycles: 200,
        placement,
        ..WorkloadConfig::default()
    }
}

fn topo_snapshot(placement: PlacementPolicy) -> String {
    let mut reg = Registry::new();
    let cfg = topo_workload(placement);
    run_server_with_telemetry(PlatformKind::SmartDimm, &cfg, reg.scope("server.topo"));
    reg.snapshot()
}

/// First value of counter `key` in a rendered `telemetry/v1` snapshot
/// (one metric per line: `"key": { "kind": "counter", "value": N }`).
fn counter(snapshot: &str, key: &str) -> u64 {
    let pat = format!("\"{key}\": {{ \"kind\": \"counter\", \"value\": ");
    snapshot
        .lines()
        .find_map(|l| {
            let idx = l.find(&pat)?;
            let digits: String = l[idx + pat.len()..]
                .chars()
                .take_while(|c| c.is_ascii_digit())
                .collect();
            digits.parse::<u64>().ok()
        })
        .unwrap_or_else(|| panic!("snapshot has no counter {key}"))
}

#[test]
fn two_socket_two_dimm_snapshot_repeats_for_same_seed() {
    for placement in [PlacementPolicy::Static, PlacementPolicy::OccupancyLocality] {
        let first = topo_snapshot(placement);
        assert!(first.contains("\"schema\": \"telemetry/v1\""));
        // The per-socket rollups and scheduler counters must be present.
        assert!(first.contains("\"socket1\""), "missing socket rollup");
        assert!(first.contains("remote_accesses"));
        assert!(first.contains("rehomed_offloads"));
        assert_eq!(
            first,
            topo_snapshot(placement),
            "same-seed runs diverged ({placement:?})"
        );
    }
}

#[test]
fn remote_offloads_bill_the_interconnect() {
    // Channel 1 of a 2-channel × 2-socket host lives on socket 1; an
    // offload sourced there must bump the remote CAS counter, and the
    // per-socket rollup must attribute it to socket 1.
    let mut cfg = HostConfig::default();
    cfg.mem.dram.topology.channels = 2;
    cfg.mem.dram.topology.sockets = 2;
    cfg.mem.dram.topology.channel_interleave_lines = COARSE;
    cfg.mem.dram.interconnect_penalty_cycles = 200;
    let mut host = CompCpyHost::new(cfg);
    let src = PhysAddr(0x0100_1000); // channel 1 → socket 1 (remote)
    let dst = PhysAddr(0x0100_0000); // channel 0 → socket 0 (home)
    let msg = ulp_compress::corpus::text(4096, 3);
    let key = [0x21u8; 16];
    let iv = [0x43u8; 12];
    host.mem_mut().store(src, &msg, 0);
    let handle = host
        .comp_cpy(
            dst,
            src,
            msg.len(),
            OffloadOp::TlsEncrypt { key, iv },
            false,
            0,
        )
        .expect("offload accepted");
    let (want, _) = ulp_crypto::gcm::AesGcm::new_128(&key).seal(&iv, b"", &msg);
    assert_eq!(host.use_buffer(&handle), want);

    assert!(
        host.mem().dram().stats().remote_accesses > 0,
        "remote-socket offload never touched the interconnect counter"
    );
    assert_eq!(host.sched_stats().remote_placements, 1);

    let mut reg = Registry::new();
    host.export_telemetry(reg.scope("host"));
    let snap = reg.snapshot();
    let socket1 = snap.split("\"socket1\"").nth(1).expect("socket1 scope");
    assert!(
        counter(socket1, "remote_accesses") > 0,
        "socket1 rollup shows no remote CAS traffic"
    );
}

#[test]
fn scheduler_never_feeds_capacity_slots() {
    // With two DIMMs per channel half the address space decodes to the
    // DSA-less slot 1. Every offload must still come back byte-exact
    // (a source staged on slot 1 would bypass interception and return
    // raw bytes), and the placement accounting must cover every offload
    // issued — nothing may take an unclassified path.
    let mut cfg = HostConfig::default();
    cfg.mem.dram.topology.dimms_per_channel = 2;
    let topo = cfg.mem.dram.topology;
    let mapper = dram::AddressMapper::new(topo);
    // Scan for page-aligned addresses whose lines all decode to the
    // capacity slot (slot 1) — sources the scheduler must re-home.
    let mut slot1_pages = Vec::new();
    let mut a = 0x0200_0000u64;
    while slot1_pages.len() < 6 {
        let slot = topo.dimm_slot_of_rank(mapper.decode(PhysAddr(a)).rank);
        let end = topo.dimm_slot_of_rank(mapper.decode(PhysAddr(a + 4096 - 64)).rank);
        if slot == 1 && end == 1 {
            slot1_pages.push(PhysAddr(a));
        }
        a += 4096;
    }
    let mut host = CompCpyHost::new(cfg);
    let key = [0x5Au8; 16];
    let total = 12u64;
    for i in 0..total {
        let msg = ulp_compress::corpus::html(2048 + 173 * i as usize, i);
        let src = if i % 2 == 0 {
            slot1_pages[(i as usize / 2) % slot1_pages.len()]
        } else {
            host.alloc_pages(1)
        };
        let dst = host.alloc_pages(1);
        let mut iv = [0u8; 12];
        iv[..8].copy_from_slice(&(i + 1).to_le_bytes());
        host.mem_mut().store(src, &msg, 0);
        let handle = host
            .comp_cpy(
                dst,
                src,
                msg.len(),
                OffloadOp::TlsEncrypt { key, iv },
                false,
                0,
            )
            .expect("offload accepted");
        let (want, want_tag) = ulp_crypto::gcm::AesGcm::new_128(&key).seal(&iv, b"", &msg);
        assert_eq!(host.use_buffer(&handle), want, "offload {i} bytes");
        assert_eq!(host.tag(&handle), Some(want_tag), "offload {i} tag");
    }
    let s = host.sched_stats();
    assert_eq!(
        s.static_placements + s.rehomed_offloads + s.migrated_offloads,
        total,
        "placement accounting must cover every offload"
    );
    assert!(
        s.rehomed_offloads > 0,
        "a 2-DIMM sweep never exercised re-homing"
    );
}

#[test]
fn occupancy_locality_shifts_placement_at_workload_level() {
    // The §V-D acceptance criterion: under a 2-socket topology the
    // occupancy+locality policy must measurably move offloads compared
    // with the static per-line decode — visible purely in telemetry.
    let stat = topo_snapshot(PlacementPolicy::Static);
    let dyn_ = topo_snapshot(PlacementPolicy::OccupancyLocality);
    assert_eq!(
        counter(&stat, "migrated_offloads"),
        0,
        "static decode must never migrate"
    );
    let migrated = counter(&dyn_, "migrated_offloads");
    assert!(
        migrated > 0,
        "occupancy+locality policy never moved an offload"
    );
    assert!(
        counter(&dyn_, "remote_placements") < counter(&stat, "remote_placements"),
        "locality scheduling should reduce remote placements"
    );
}
