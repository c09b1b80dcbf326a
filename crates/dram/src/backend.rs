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
    use crate::addr::PhysAddr;
    use crate::Timing;

    fn fast() -> DramSystem {
        BackendKind::FastQueue.build(MemorySystemConfig::default())
    }

    /// Fast-tier service time of one cacheline read.
    const READ_SERVICE: u64 = Timing::DDR4_3200.t_cl + Timing::DDR4_3200.t_burst;

    #[test]
    fn fast_fifo_serializes_a_channel() {
        let mut s = fast();
        // Two back-to-back reads: the second queues behind the first.
        let (_, first) = s.read64(PhysAddr(0));
        let (_, second) = s.read64(PhysAddr(64));
        assert_eq!(first, READ_SERVICE);
        assert_eq!(second, 2 * READ_SERVICE);
        assert_eq!(s.channel_busy_cycles(0), 2 * READ_SERVICE);
    }

    #[test]
    fn fast_idle_gaps_do_not_count_as_busy() {
        let mut s = fast();
        let _ = s.read64(PhysAddr(0));
        s.advance(10_000);
        let _ = s.read64(PhysAddr(0));
        assert_eq!(s.channel_busy_cycles(0), 2 * READ_SERVICE);
    }

    #[test]
    fn fast_functional_bytes_match_accurate_backend() {
        let mut fast = fast();
        let mut acc = DramSystem::new(MemorySystemConfig::default());
        // 15 lines from an unaligned base: the first write lands on the
        // line below 0x2010.
        let lines: Vec<(PhysAddr, [u8; 64])> = (0..15u64)
            .map(|i| {
                let line = std::array::from_fn(|b| (i as u8).wrapping_mul(13) ^ b as u8);
                (PhysAddr(0x2010 + i * 64), line)
            })
            .collect();
        for s in [&mut fast, &mut acc] {
            for (addr, line) in &lines {
                s.write64(*addr, line);
            }
        }
        for (addr, line) in &lines {
            assert_eq!(fast.read64(*addr).0, *line);
            assert_eq!(acc.read64(*addr).0, *line);
        }
        // Same CAS counts on the straight-line path (no retries here).
        assert_eq!(fast.stats().rd_cas, acc.stats().rd_cas);
        assert_eq!(fast.stats().wr_cas, acc.stats().wr_cas);
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
