//! A discrete-event TCP flow model: sliding window, slow start /
//! congestion avoidance, fast retransmit on triple duplicate ACKs,
//! retransmission timeouts, and seeded segment loss.
//!
//! The model carries *byte ranges*, not payloads — every consumer in this
//! workspace (the kTLS offload model, the server harness) only needs the
//! order and timing of segment transmissions and deliveries. Reliability
//! is an asserted invariant: the receiver must see every byte exactly
//! once, in order.
//!
//! Time is in nanoseconds. The link, its round trip and the window
//! limits are those of the paper's testbed and fixed here; a
//! [`TcpConfig`] varies only the loss and reordering processes and their
//! seed.

#![deny(missing_docs)]

use std::collections::BTreeMap;

use simkit::{Cycle, DetRng, EventQueue};

/// Maximum segment size in bytes.
const MSS: usize = 1460;
/// Link rate in Gbit/s (100 GbE in the paper's testbed).
const LINK_GBPS: f64 = 100.0;
/// Round-trip time in nanoseconds (datacenter scale).
const RTT_NS: u64 = 50_000;
/// Initial congestion window in segments.
const INIT_CWND: usize = 10;
/// Maximum congestion window in segments (receive-window cap).
const MAX_CWND: usize = 1024;
/// Extra in-network delay applied to reordered segments (ns).
const REORDER_DELAY_NS: u64 = 150_000;
/// Retransmission timeout in nanoseconds.
const RTO_NS: u64 = 200_000;

/// Flow configuration.
#[derive(Debug, Clone, Copy)]
pub struct TcpConfig {
    /// Per-segment drop probability (the programmable-switch injection
    /// of §III / Fig. 2).
    pub loss_prob: f64,
    /// Per-segment reordering probability: the segment is delayed in the
    /// network so it arrives after its successors (Observation 1 names
    /// reordering alongside loss as what breaks autonomous NIC offloads —
    /// late arrivals trigger duplicate ACKs and spurious retransmits).
    pub reorder_prob: f64,
    /// RNG seed for loss decisions.
    pub seed: u64,
}

impl Default for TcpConfig {
    fn default() -> Self {
        TcpConfig {
            loss_prob: 0.0,
            reorder_prob: 0.0,
            seed: 1,
        }
    }
}

/// Wire time of `len` payload bytes on the link (with ~Ethernet/IP/TCP
/// framing overhead of 78 bytes per segment).
pub(crate) fn wire_time_ns(len: usize) -> u64 {
    let bits = ((len + 78) * 8) as f64;
    (bits / LINK_GBPS).ceil() as u64
}

/// Events surfaced to the flow observer.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum FlowEvent {
    /// The sender put a segment on the wire. The observer's return value
    /// is added to the sender's processing time (e.g. CPU encryption).
    Tx {
        /// First byte of the segment.
        seq: u64,
        /// Payload length.
        len: usize,
        /// Whether this is a retransmission.
        retransmission: bool,
        /// Transmission time (ns).
        now: u64,
    },
    /// The receiver consumed in-order bytes.
    Deliver {
        /// First byte delivered.
        seq: u64,
        /// Number of bytes delivered.
        len: usize,
        /// Delivery time (ns).
        now: u64,
    },
}

/// Result of a simulated transfer.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct TcpRun {
    /// Bytes delivered in order to the application.
    pub delivered_bytes: u64,
    /// Total elapsed time (ns).
    pub elapsed_ns: u64,
    /// Segments retransmitted (fast retransmit + timeout).
    pub retransmits: u64,
    /// Retransmission timeouts taken.
    pub timeouts: u64,
    /// Fast retransmits triggered by triple duplicate ACKs.
    pub fast_retransmits: u64,
    /// Segments dropped by the loss process.
    pub drops: u64,
    /// Of `drops`, those forced by an installed fault injector (rather
    /// than the seeded random loss process).
    pub forced_drops: u64,
    /// Segments delayed by the reordering process.
    pub reordered: u64,
}

impl TcpRun {
    /// Application goodput in Gbit/s.
    pub fn goodput_gbps(&self) -> f64 {
        if self.elapsed_ns == 0 {
            return 0.0;
        }
        (self.delivered_bytes * 8) as f64 / self.elapsed_ns as f64
    }

    /// Registers the flow metrics under `scope` for a `telemetry/v1`
    /// snapshot.
    pub fn export_telemetry(&self, scope: &mut simkit::telemetry::Scope) {
        scope.set_counter("delivered_bytes", self.delivered_bytes);
        scope.set_counter("elapsed_ns", self.elapsed_ns);
        scope.set_counter("retransmits", self.retransmits);
        scope.set_counter("timeouts", self.timeouts);
        scope.set_counter("fast_retransmits", self.fast_retransmits);
        scope.set_counter("drops", self.drops);
        scope.set_counter("forced_drops", self.forced_drops);
        scope.set_counter("reordered", self.reordered);
        scope.set_gauge("goodput_gbps", self.goodput_gbps());
    }
}

#[derive(Debug, Clone, Copy)]
enum Ev {
    /// Segment reaches the receiver.
    Arrival { seq: u64, len: usize },
    /// Cumulative ACK reaches the sender.
    Ack { ackno: u64 },
    /// Retransmission timer fires (valid only if epoch matches).
    Timeout { epoch: u64 },
}

/// Simulates the one-way transfer of `total_bytes` and returns flow
/// metrics. `observer` sees every Tx/Deliver event; for Tx events its
/// return value is added to the sender's per-segment processing time (the
/// hook the kTLS models use). It must return 0 for Deliver events.
///
/// # Panics
///
/// Panics if the flow fails to make progress (internal invariant).
pub fn simulate_transfer(
    total_bytes: u64,
    cfg: &TcpConfig,
    observer: impl FnMut(&FlowEvent) -> u64,
) -> TcpRun {
    simulate_transfer_with_faults(total_bytes, cfg, None, observer)
}

/// [`simulate_transfer`] with an optional fault injector: armed
/// `TcpLossBurst` events force-drop the segments whose transmission index
/// falls inside the burst window, on top of the configured random loss.
/// With `fault == None` the RNG draw sequence is identical to
/// [`simulate_transfer`].
pub fn simulate_transfer_with_faults(
    total_bytes: u64,
    cfg: &TcpConfig,
    fault: Option<&simkit::FaultHandle>,
    mut observer: impl FnMut(&FlowEvent) -> u64,
) -> TcpRun {
    assert!(total_bytes > 0, "empty transfer");
    let mut rng = DetRng::new(cfg.seed);
    let mut seg_counter: u64 = 0;
    let mut q: EventQueue<Ev> = EventQueue::new();
    let mut now: u64 = 0;

    // Sender state.
    let mut send_base: u64 = 0;
    let mut next_seq: u64 = 0;
    let mut cwnd: f64 = (INIT_CWND * MSS) as f64;
    let mut ssthresh: f64 = (MAX_CWND * MSS) as f64;
    let mut dup_acks = 0u32;
    // RFC 5681 §3.2 fast-recovery state: while set, additional duplicate
    // ACKs inflate cwnd (segments have left the network) and the next new
    // ACK deflates cwnd back to ssthresh.
    let mut in_recovery = false;
    let mut timer_epoch = 0u64;
    let mut link_free: u64 = 0;

    // Receiver state.
    let mut rcv_next: u64 = 0;
    let mut ooo: BTreeMap<u64, usize> = BTreeMap::new();

    let mut run = TcpRun {
        delivered_bytes: 0,
        elapsed_ns: 0,
        retransmits: 0,
        timeouts: 0,
        fast_retransmits: 0,
        drops: 0,
        forced_drops: 0,
        reordered: 0,
    };

    let max_cwnd_bytes = (MAX_CWND * MSS) as f64;
    let one_way = RTT_NS / 2;

    macro_rules! send_segment {
        ($q:expr, $seq:expr, $len:expr, $rtx:expr) => {{
            let seq: u64 = $seq;
            let len: usize = $len;
            let extra = observer(&FlowEvent::Tx {
                seq,
                len,
                retransmission: $rtx,
                now,
            });
            let start = now.max(link_free) + extra;
            let done = start + wire_time_ns(len);
            link_free = done;
            if $rtx {
                run.retransmits += 1;
            }
            // The random draw happens unconditionally so the RNG sequence
            // matches a fault-free run of the same config and seed.
            let random_drop = rng.gen_bool(cfg.loss_prob);
            let forced_drop = fault.is_some_and(|f| f.tcp_force_drop(seg_counter));
            seg_counter += 1;
            if random_drop || forced_drop {
                run.drops += 1;
                if forced_drop {
                    run.forced_drops += 1;
                }
            } else if rng.gen_bool(cfg.reorder_prob) {
                run.reordered += 1;
                $q.push(
                    Cycle(done + one_way + REORDER_DELAY_NS),
                    Ev::Arrival { seq, len },
                );
            } else {
                $q.push(Cycle(done + one_way), Ev::Arrival { seq, len });
            }
        }};
    }

    macro_rules! arm_timer {
        ($q:expr) => {{
            timer_epoch += 1;
            $q.push(Cycle(now + RTO_NS), Ev::Timeout { epoch: timer_epoch });
        }};
    }

    // Prime the window.
    while next_seq < total_bytes && (next_seq - send_base) as f64 + MSS as f64 <= cwnd {
        let len = ((total_bytes - next_seq) as usize).min(MSS);
        send_segment!(q, next_seq, len, false);
        next_seq += len as u64;
    }
    arm_timer!(q);

    let mut guard = 0u64;
    while send_base < total_bytes {
        guard += 1;
        assert!(guard < 100_000_000, "TCP simulation stuck");
        let Some((t, ev)) = q.pop() else {
            // Nothing in flight (everything dropped): timeout path should
            // have fired; if the queue is empty the flow is stuck.
            panic!("TCP event queue drained before completion");
        };
        now = now.max(t.raw());
        match ev {
            Ev::Arrival { seq, len } => {
                if seq == rcv_next {
                    rcv_next += len as u64;
                    // Drain contiguous out-of-order segments.
                    while let Some((&s, &l)) = ooo.first_key_value() {
                        if s <= rcv_next {
                            let end = s + l as u64;
                            if end > rcv_next {
                                rcv_next = end;
                            }
                            ooo.pop_first();
                        } else {
                            break;
                        }
                    }
                    let delivered = rcv_next - run.delivered_bytes;
                    observer(&FlowEvent::Deliver {
                        seq: run.delivered_bytes,
                        len: delivered as usize,
                        now,
                    });
                    run.delivered_bytes = rcv_next;
                } else if seq > rcv_next {
                    ooo.insert(seq, len);
                }
                q.push(Cycle(now + one_way), Ev::Ack { ackno: rcv_next });
            }
            Ev::Ack { ackno } => {
                if ackno > send_base {
                    send_base = ackno;
                    dup_acks = 0;
                    if in_recovery {
                        // Fast recovery exits on the first new ACK: deflate
                        // the window back to ssthresh (RFC 5681 §3.2 step 6)
                        // instead of growing from the inflated value.
                        in_recovery = false;
                        cwnd = ssthresh;
                    } else if cwnd < ssthresh {
                        // Slow start.
                        cwnd += MSS as f64;
                    } else {
                        // Congestion avoidance.
                        cwnd += (MSS * MSS) as f64 / cwnd;
                    }
                    cwnd = cwnd.min(max_cwnd_bytes);
                    if send_base < total_bytes {
                        arm_timer!(q);
                    }
                } else if ackno == send_base && send_base < total_bytes {
                    dup_acks += 1;
                    if dup_acks == 3 && !in_recovery {
                        // Fast retransmit, then enter fast recovery with the
                        // window inflated by the three segments known to
                        // have left the network (RFC 5681 §3.2 steps 2–3).
                        run.fast_retransmits += 1;
                        in_recovery = true;
                        ssthresh = (cwnd / 2.0).max(2.0 * MSS as f64);
                        cwnd = (ssthresh + 3.0 * MSS as f64).min(max_cwnd_bytes);
                        let len = ((total_bytes - send_base) as usize).min(MSS);
                        send_segment!(q, send_base, len, true);
                        arm_timer!(q);
                    } else if in_recovery {
                        // Each further duplicate ACK means another segment
                        // left the network: inflate by one MSS so new data
                        // can be clocked out (RFC 5681 §3.2 step 4).
                        cwnd = (cwnd + MSS as f64).min(max_cwnd_bytes);
                    }
                }
                // Transmit whatever the updated window allows.
                while next_seq < total_bytes && (next_seq - send_base) as f64 + MSS as f64 <= cwnd {
                    let len = ((total_bytes - next_seq) as usize).min(MSS);
                    send_segment!(q, next_seq, len, false);
                    next_seq += len as u64;
                }
            }
            Ev::Timeout { epoch } => {
                if epoch == timer_epoch && send_base < total_bytes {
                    run.timeouts += 1;
                    ssthresh = (cwnd / 2.0).max(2.0 * MSS as f64);
                    cwnd = MSS as f64;
                    // An RTO abandons fast recovery and its dup-ACK count;
                    // stale dup ACKs must not trigger a spurious fast
                    // retransmit after the window restarts.
                    dup_acks = 0;
                    in_recovery = false;
                    let len = ((total_bytes - send_base) as usize).min(MSS);
                    send_segment!(q, send_base, len, true);
                    arm_timer!(q);
                }
            }
        }
    }
    run.elapsed_ns = now;
    run
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn lossless_transfer_completes() {
        let cfg = TcpConfig::default();
        let run = simulate_transfer(10 << 20, &cfg, |_| 0);
        assert_eq!(run.delivered_bytes, 10 << 20);
        assert_eq!(run.retransmits, 0);
        assert_eq!(run.drops, 0);
        assert!(run.goodput_gbps() > 1.0, "goodput {}", run.goodput_gbps());
    }

    #[test]
    fn goodput_bounded_by_link_rate() {
        let cfg = TcpConfig::default();
        let run = simulate_transfer(64 << 20, &cfg, |_| 0);
        assert!(run.goodput_gbps() <= LINK_GBPS * 1.01);
    }

    #[test]
    fn delivery_is_in_order_and_exact() {
        let cfg = TcpConfig {
            loss_prob: 0.02,
            seed: 42,
            ..TcpConfig::default()
        };
        let mut expected_seq = 0u64;
        let run = simulate_transfer(4 << 20, &cfg, |ev| {
            if let FlowEvent::Deliver { seq, len, .. } = ev {
                assert_eq!(*seq, expected_seq, "in-order delivery");
                expected_seq += *len as u64;
            }
            0
        });
        assert_eq!(expected_seq, 4 << 20);
        assert_eq!(run.delivered_bytes, 4 << 20);
        assert!(run.drops > 0);
        assert!(run.retransmits >= run.drops);
    }

    #[test]
    fn loss_reduces_goodput() {
        let base = TcpConfig::default();
        let clean = simulate_transfer(16 << 20, &base, |_| 0);
        let lossy_cfg = TcpConfig {
            loss_prob: 0.01,
            ..base
        };
        let lossy = simulate_transfer(16 << 20, &lossy_cfg, |_| 0);
        assert!(
            lossy.goodput_gbps() < clean.goodput_gbps() * 0.8,
            "lossy {} vs clean {}",
            lossy.goodput_gbps(),
            clean.goodput_gbps()
        );
    }

    #[test]
    fn higher_loss_is_worse() {
        let mut prev = f64::INFINITY;
        for loss in [0.0, 0.002, 0.01, 0.05] {
            let cfg = TcpConfig {
                loss_prob: loss,
                seed: 7,
                ..TcpConfig::default()
            };
            let run = simulate_transfer(8 << 20, &cfg, |_| 0);
            assert_eq!(run.delivered_bytes, 8 << 20, "reliable at loss {loss}");
            assert!(
                run.goodput_gbps() <= prev * 1.05,
                "goodput must not increase with loss ({loss})"
            );
            prev = run.goodput_gbps();
        }
    }

    #[test]
    fn goodput_monotone_non_increasing_in_loss() {
        // Regression for the RFC 5681 fast-recovery fixes: before cwnd was
        // deflated to ssthresh on recovery exit (and dup ACKs inflated it,
        // and RTOs reset the dup-ACK count), the sweep below was not
        // monotone — seed 63 showed goodput *rising* from 0.001 to 0.002
        // loss because the un-deflated window overshot after recovery.
        for seed in [7u64, 21, 63] {
            let mut prev = f64::INFINITY;
            for loss in [0.0, 0.001, 0.002, 0.005, 0.01, 0.02, 0.05, 0.08] {
                let cfg = TcpConfig {
                    loss_prob: loss,
                    seed,
                    ..TcpConfig::default()
                };
                let run = simulate_transfer(8 << 20, &cfg, |_| 0);
                assert_eq!(run.delivered_bytes, 8 << 20, "reliable at loss {loss}");
                assert!(
                    run.goodput_gbps() <= prev,
                    "goodput increased with loss (seed {seed}, loss {loss}): \
                     {} > {prev}",
                    run.goodput_gbps()
                );
                prev = run.goodput_gbps();
            }
        }
    }

    #[test]
    fn sender_processing_cost_throttles_flow() {
        let cfg = TcpConfig::default();
        let fast = simulate_transfer(8 << 20, &cfg, |_| 0);
        // 2 µs of CPU work per segment caps throughput well below line rate.
        let slow = simulate_transfer(8 << 20, &cfg, |ev| match ev {
            FlowEvent::Tx { .. } => 2_000,
            _ => 0,
        });
        assert!(slow.goodput_gbps() < fast.goodput_gbps() * 0.7);
        // 1460B / 2µs ≈ 5.8 Gbps upper bound from the CPU cost alone.
        assert!(slow.goodput_gbps() < 7.0);
    }

    #[test]
    fn deterministic_given_seed() {
        let cfg = TcpConfig {
            loss_prob: 0.01,
            seed: 99,
            ..TcpConfig::default()
        };
        let a = simulate_transfer(2 << 20, &cfg, |_| 0);
        let b = simulate_transfer(2 << 20, &cfg, |_| 0);
        assert_eq!(a, b);
    }

    #[test]
    fn retransmissions_are_flagged() {
        let cfg = TcpConfig {
            loss_prob: 0.05,
            seed: 3,
            ..TcpConfig::default()
        };
        let mut rtx_seen = 0u64;
        let run = simulate_transfer(2 << 20, &cfg, |ev| {
            if let FlowEvent::Tx {
                retransmission: true,
                ..
            } = ev
            {
                rtx_seen += 1;
            }
            0
        });
        assert_eq!(rtx_seen, run.retransmits);
        assert!(rtx_seen > 0);
    }

    #[test]
    fn reordering_delivers_everything_in_order() {
        let cfg = TcpConfig {
            reorder_prob: 0.05,
            seed: 11,
            ..TcpConfig::default()
        };
        let mut expected = 0u64;
        let run = simulate_transfer(4 << 20, &cfg, |ev| {
            if let FlowEvent::Deliver { seq, len, .. } = ev {
                assert_eq!(*seq, expected);
                expected += *len as u64;
            }
            0
        });
        assert_eq!(run.delivered_bytes, 4 << 20);
        assert!(run.reordered > 0);
        assert_eq!(run.drops, 0);
    }

    #[test]
    fn reordering_costs_throughput_without_losing_data() {
        let clean = simulate_transfer(8 << 20, &TcpConfig::default(), |_| 0);
        let cfg = TcpConfig {
            reorder_prob: 0.02,
            seed: 12,
            ..TcpConfig::default()
        };
        let reordered = simulate_transfer(8 << 20, &cfg, |_| 0);
        assert_eq!(reordered.delivered_bytes, 8 << 20);
        assert!(reordered.goodput_gbps() < clean.goodput_gbps());
        // Spurious fast retransmits from duplicate ACKs are the mechanism.
        assert!(reordered.fast_retransmits > 0 || reordered.timeouts > 0);
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(16))]
        #[test]
        fn prop_reliable_delivery_under_any_loss(
            bytes in 1u64..500_000,
            loss in 0.0f64..0.12,
            seed: u64,
        ) {
            let cfg = TcpConfig { loss_prob: loss, seed, ..TcpConfig::default() };
            let mut deliveries: Vec<(u64, usize)> = Vec::new();
            let run = simulate_transfer(bytes, &cfg, |ev| {
                if let FlowEvent::Deliver { seq, len, .. } = ev {
                    deliveries.push((*seq, *len));
                }
                0
            });
            prop_assert_eq!(run.delivered_bytes, bytes);
            // Deliveries are contiguous, in order, and cover [0, bytes).
            let mut cursor = 0u64;
            for (seq, len) in deliveries {
                prop_assert_eq!(seq, cursor);
                cursor += len as u64;
            }
            prop_assert_eq!(cursor, bytes);
        }
    }
}
