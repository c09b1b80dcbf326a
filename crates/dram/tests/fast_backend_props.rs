//! Property tests for the fast tier's queue model
//! ([`dram::BackendKind::FastQueue`], fidelity tier 1).
//!
//! The fast tier replaces per-bank state machines with one FIFO per
//! channel and fixed Timing-derived service times. Two invariants make
//! that model usable as a drop-in fidelity tier:
//!
//! 1. **FIFO order**: completion times are strictly monotone in enqueue
//!    order per channel — the queue never reorders, overlaps or loses an
//!    access, for any interleaved read/write/address sequence.
//! 2. **Occupancy accounting**: total per-channel busy time equals the
//!    sum of the service times of the accesses routed to that channel —
//!    exactly, with zero contention (idle gaps never count as busy).

use dram::{BackendKind, DramSystem, DramTopology, MemorySystemConfig, PhysAddr};
use proptest::prelude::*;

fn sys(channels: usize, interleave: usize) -> DramSystem {
    BackendKind::FastQueue.build(MemorySystemConfig {
        topology: DramTopology {
            channels,
            channel_interleave_lines: interleave,
            ..DramTopology::default()
        },
        ..MemorySystemConfig::default()
    })
}

proptest! {
    #[test]
    fn prop_completions_monotone_per_channel_in_enqueue_order(
        ops in proptest::collection::vec((0u64..4096, any::<bool>()), 1..80),
        channels in 1usize..4,
        interleave_log in 0u32..7,
    ) {
        let mut s = sys(channels, 1 << interleave_log);
        let mut last_done = vec![0u64; channels];
        for (line, is_write) in ops {
            let addr = PhysAddr(line * 64);
            let ch = s.mapper().decode(addr).channel;
            let done = if is_write {
                s.write64(addr, &[0xABu8; 64]).raw()
            } else {
                // read64 reports latency relative to `now`; the absolute
                // completion is now + latency.
                let (_, latency) = s.read64(addr);
                s.now().raw() + latency
            };
            prop_assert!(
                done > last_done[ch],
                "channel {ch}: completion {done} not after previous {}",
                last_done[ch]
            );
            last_done[ch] = done;
        }
    }

    #[test]
    fn prop_zero_contention_busy_equals_service_time_sum(
        ops in proptest::collection::vec((0u64..4096, any::<bool>()), 1..60),
        channels in 1usize..4,
    ) {
        let mut s = sys(channels, 1);
        let t = *s.timing();
        let mut want = vec![0u64; channels];
        for (line, is_write) in ops {
            let addr = PhysAddr(line * 64);
            let ch = s.mapper().decode(addr).channel;
            if is_write {
                s.write64(addr, &[0x5Au8; 64]);
                want[ch] += t.t_cwl + t.t_burst;
            } else {
                s.read64(addr);
                want[ch] += t.t_cl + t.t_burst;
            }
            // Drain every FIFO before the next access: zero contention,
            // and the idle gap must not be booked as busy.
            s.advance(100_000);
        }
        for (ch, want_busy) in want.iter().enumerate() {
            prop_assert_eq!(
                s.channel_busy_cycles(ch),
                *want_busy,
                "channel {} busy != sum of service times",
                ch
            );
        }
    }

    #[test]
    fn prop_back_to_back_spacing_is_exactly_one_service_time(
        line in 0u64..4096,
        burst in 2usize..20,
    ) {
        // Same-channel back-to-back reads: the FIFO serializes them at
        // exactly one read service time (`tCL + tBURST`) apart,
        // regardless of address.
        let mut s = sys(1, 1);
        let addr = PhysAddr(line * 64);
        let service = s.timing().t_cl + s.timing().t_burst;
        let mut prev = {
            let (_, latency) = s.read64(addr);
            s.now().raw() + latency
        };
        for _ in 1..burst {
            let (_, latency) = s.read64(addr);
            let done = s.now().raw() + latency;
            prop_assert_eq!(done, prev + service);
            prev = done;
        }
        prop_assert_eq!(s.channel_busy_cycles(0), burst as u64 * service);
    }
}
