//! Memory fidelity tiers.
//!
//! There is one memory controller, [`DramSystem`]; a [`BackendKind`]
//! selects which timing rule its channels apply:
//!
//! * [`BackendKind::CycleAccurate`] — per-bank state machines, data-bus
//!   turnaround and tREFI refresh (fidelity tier 0, the reference).
//! * [`BackendKind::FastQueue`] — one fixed-latency FIFO per channel
//!   (fidelity tier 1): service times are derived from the same
//!   [`crate::Timing`] parameters (tRCD/tCL/tCWL/tBURST), contention is
//!   a single FIFO per channel, and there is **no** bank timing,
//!   bus-turnaround or refresh modeling.
//!
//! Both tiers share everything else — the functional storage and
//! buffer-device interception ([`crate::Dimm`]), the `ALERT_N` retry
//! protocol, and the one bank-command path that delivers every PRE/ACT
//! to the buffer device — so payload bytes and device-visible CAS
//! semantics (data substitution, Self-Recycle, retries, the Bank Table's
//! view of open rows for Addr Remap, §IV-C) are identical by
//! construction.
//!
//! What the fast tier is allowed to get wrong is *timing only*, and the
//! differential harness (`tests/backend_differential.rs`) pins how
//! wrong: byte-identical payloads and functional statistics, timing
//! statistics within a committed tolerance band. See DESIGN.md
//! ("Memory backend fidelity tiers").
#![deny(missing_docs)]

use crate::controller::{DramSystem, MemorySystemConfig};

/// Which timing rule a [`DramSystem`] applies. The default is the
/// cycle-accurate reference model.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum BackendKind {
    /// Cycle-accurate bank, bus and refresh timing, tier 0.
    #[default]
    CycleAccurate,
    /// Fixed-latency + per-channel FIFO timing, tier 1.
    FastQueue,
}

impl BackendKind {
    /// Stable identity string (used as a telemetry metric name, so it
    /// must stay snake_case and never change for a given tier).
    pub fn as_str(&self) -> &'static str {
        match self {
            BackendKind::CycleAccurate => "cycle_accurate",
            BackendKind::FastQueue => "fast_queue",
        }
    }

    /// Numeric fidelity tier: 0 = cycle-accurate reference, higher =
    /// faster/lower-fidelity.
    pub fn fidelity_tier(&self) -> u64 {
        match self {
            BackendKind::CycleAccurate => 0,
            BackendKind::FastQueue => 1,
        }
    }

    /// Builds a memory system of this tier for `config`.
    pub fn build(&self, config: MemorySystemConfig) -> DramSystem {
        DramSystem::with_fidelity(config, *self)
    }
}

impl std::fmt::Display for BackendKind {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.as_str())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::addr::{AddressMapper, DramTopology, PhysAddr};

    fn fast_with(config: MemorySystemConfig) -> DramSystem {
        BackendKind::FastQueue.build(config)
    }

    fn fast() -> DramSystem {
        fast_with(MemorySystemConfig::default())
    }

    /// Fast-tier service time of one cacheline read.
    fn read_service(s: &DramSystem) -> u64 {
        s.timing().t_cl + s.timing().t_burst
    }

    #[test]
    fn fast_write_then_read_round_trip() {
        let mut s = fast();
        let addr = PhysAddr(0x10000);
        s.write64(addr, &[0x5A; 64]);
        s.advance(1_000); // drain the posted write from the FIFO
        let (data, lat) = s.read64(addr);
        assert_eq!(data, [0x5A; 64]);
        assert_eq!(lat, read_service(&s));
    }

    #[test]
    fn fast_fifo_serializes_a_channel() {
        let mut s = fast();
        // Two back-to-back reads: the second queues behind the first.
        let (_, first) = s.read64(PhysAddr(0));
        let (_, second) = s.read64(PhysAddr(64));
        assert_eq!(first, read_service(&s));
        assert_eq!(second, 2 * read_service(&s));
        assert_eq!(s.channel_busy_cycles(0), 2 * read_service(&s));
    }

    #[test]
    fn fast_idle_gaps_do_not_count_as_busy() {
        let mut s = fast();
        let _ = s.read64(PhysAddr(0));
        s.advance(10_000);
        let _ = s.read64(PhysAddr(0));
        assert_eq!(s.channel_busy_cycles(0), 2 * read_service(&s));
        assert!(s.bus_utilization(20_000) < 0.1);
    }

    #[test]
    fn fast_functional_bytes_match_accurate_backend() {
        let mut fast = fast();
        let mut acc = DramSystem::new(MemorySystemConfig::default());
        let payload: Vec<u8> = (0..900u32).map(|i| (i * 13) as u8).collect();
        fast.write_bytes(PhysAddr(0x2010), &payload);
        acc.write_bytes(PhysAddr(0x2010), &payload);
        assert_eq!(
            fast.read_bytes(PhysAddr(0x2010), 900),
            acc.read_bytes(PhysAddr(0x2010), 900)
        );
        // Same CAS counts on the straight-line path (no retries here).
        assert_eq!(fast.stats().rd_cas.value(), acc.stats().rd_cas.value());
        assert_eq!(fast.stats().wr_cas.value(), acc.stats().wr_cas.value());
    }

    #[test]
    fn fast_page_read_matches_per_line_reads() {
        let mut a = fast();
        let mut b = fast();
        for i in 0..64u64 {
            let mut line = [0u8; 64];
            line[0] = i as u8;
            a.write64(PhysAddr(0x4000 + i * 64), &line);
            b.write64(PhysAddr(0x4000 + i * 64), &line);
        }
        let (page, lat) = a.read_page(PhysAddr(0x4000)).expect("passthrough pages");
        for i in 0..64usize {
            let (line, _) = b.read64(PhysAddr(0x4000 + (i as u64) * 64));
            assert_eq!(page[i], line, "line {i}");
        }
        assert_eq!(a.stats().rd_cas.value(), b.stats().rd_cas.value());
        let t = a.timing();
        assert!(lat >= t.t_rcd + t.t_cl + 64 * t.t_burst);
    }

    #[test]
    fn fast_page_read_declines_when_page_spans_channels() {
        let topo = DramTopology {
            channels: 2,
            ..DramTopology::default()
        };
        let mut s = fast_with(MemorySystemConfig {
            topology: topo,
            ..MemorySystemConfig::default()
        });
        assert!(s.read_page(PhysAddr(0)).is_none());
        let _ = s.read64(PhysAddr(0));
    }

    #[test]
    fn fast_multi_channel_addresses_route_correctly() {
        let topo = DramTopology {
            channels: 2,
            ..DramTopology::default()
        };
        let mut s = fast_with(MemorySystemConfig {
            topology: topo,
            ..MemorySystemConfig::default()
        });
        s.write64(PhysAddr(0), &[1u8; 64]);
        s.write64(PhysAddr(64), &[2u8; 64]);
        assert_eq!(s.read64(PhysAddr(0)).0, [1u8; 64]);
        assert_eq!(s.read64(PhysAddr(64)).0, [2u8; 64]);
        assert!(s.channel_busy_cycles(0) > 0);
        assert!(s.channel_busy_cycles(1) > 0);
    }

    #[test]
    fn fast_remote_socket_access_pays_interconnect_penalty() {
        let topo = DramTopology {
            channels: 2,
            sockets: 2,
            ..DramTopology::default()
        };
        let mut s = fast_with(MemorySystemConfig {
            topology: topo,
            interconnect_penalty_cycles: 300,
            home_socket: 0,
            ..MemorySystemConfig::default()
        });
        let (_, local) = s.read64(PhysAddr(0)); // channel 0, socket 0
        let (_, remote) = s.read64(PhysAddr(64)); // channel 1, socket 1
        assert_eq!(local, read_service(&s));
        assert_eq!(remote, read_service(&s) + 300);
        assert_eq!(s.stats().remote_accesses.value(), 1);
    }

    #[test]
    fn fast_multi_dimm_slots_round_trip() {
        let topo = DramTopology {
            dimms_per_channel: 2,
            ..DramTopology::default()
        };
        let mapper = AddressMapper::new(topo);
        let mut s = fast_with(MemorySystemConfig {
            topology: topo,
            ..MemorySystemConfig::default()
        });
        let mut per_slot = [None, None];
        for line in 0..1 << 16 {
            let a = PhysAddr(line * 64);
            let slot = topo.dimm_slot_of_rank(mapper.decode(a).rank);
            if per_slot[slot].is_none() {
                per_slot[slot] = Some(a);
            }
        }
        let (a0, a1) = (per_slot[0].unwrap(), per_slot[1].unwrap());
        s.write64(a0, &[0x33u8; 64]);
        s.write64(a1, &[0x44u8; 64]);
        assert_eq!(s.read64(a0).0, [0x33u8; 64]);
        assert_eq!(s.read64(a1).0, [0x44u8; 64]);
    }

    #[test]
    fn backend_kind_builds_the_matching_fidelity() {
        for kind in [BackendKind::CycleAccurate, BackendKind::FastQueue] {
            let b = kind.build(MemorySystemConfig::default());
            assert_eq!(b.fidelity(), kind);
        }
        assert_eq!(BackendKind::default(), BackendKind::CycleAccurate);
        assert_eq!(BackendKind::CycleAccurate.fidelity_tier(), 0);
        assert_eq!(BackendKind::FastQueue.fidelity_tier(), 1);
        assert_eq!(BackendKind::FastQueue.as_str(), "fast_queue");
    }
}
