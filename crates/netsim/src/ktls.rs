//! Autonomous TLS offload placements over a TCP flow — the model behind
//! Observation 1 and Fig. 2.
//!
//! Two ways to encrypt an HTTPS stream's payload:
//!
//! * [`TlsPlacement::CpuAesNi`] — the kernel/OpenSSL encrypts every byte
//!   on the CPU with AES-NI before it enters the TCP stack; constant cost
//!   per transmitted byte, indifferent to losses.
//! * [`TlsPlacement::SmartNic`] — autonomous inline offload (Pismenny et
//!   al.): the NIC holds the crypto state for the *expected* TCP sequence
//!   number and encrypts in-order segments for free. Any transmission
//!   that does not match the expected sequence (a retransmission) forces
//!   a **resynchronization**: the driver stalls, rebuilds the record
//!   state, and the affected record is encrypted on the CPU as a
//!   fallback. Under packet drops these resyncs erase the offload's
//!   benefit — the effect Fig. 2 shows.

use crate::tcp::{simulate_transfer_with_faults, wire_time_ns, FlowEvent, TcpConfig, TcpRun};

/// Where TLS record encryption runs.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum TlsPlacement {
    /// On-CPU AES-NI encryption.
    CpuAesNi {
        /// Encryption cost in CPU cycles per byte (AES-GCM with AES-NI:
        /// ~0.7–1.3 cpb on Xeon-class cores).
        cycles_per_byte: f64,
        /// Core clock in GHz.
        cpu_ghz: f64,
        /// Cores encrypting records in parallel ahead of the send queue;
        /// only the crypto time exceeding the wire time stalls the
        /// sender (the paper's Xeon keeps up with the NIC at zero loss).
        crypto_cores: u32,
    },
    /// Autonomous inline NIC offload with CPU fallback on resync.
    SmartNic {
        /// Driver/NIC resynchronization stall per out-of-sequence
        /// transmission, in nanoseconds.
        resync_ns: u64,
        /// TLS record size — the CPU re-encrypts the whole affected
        /// record on resync.
        record_bytes: usize,
        /// CPU fallback encryption cost (cycles/byte).
        cycles_per_byte: f64,
        /// Core clock in GHz.
        cpu_ghz: f64,
    },
}

impl TlsPlacement {
    /// A Xeon-Gold-class AES-NI software path (crypto pipelined over
    /// four cores, as a multi-threaded sender would).
    pub fn cpu_default() -> TlsPlacement {
        TlsPlacement::CpuAesNi {
            cycles_per_byte: 1.0,
            cpu_ghz: 2.8,
            crypto_cores: 4,
        }
    }

    /// A ConnectX-6-class autonomous kTLS offload.
    pub fn smartnic_default() -> TlsPlacement {
        TlsPlacement::SmartNic {
            resync_ns: 30_000,
            record_bytes: 16 * 1024,
            cycles_per_byte: 1.0,
            cpu_ghz: 2.8,
        }
    }
}

/// Metrics of one encrypted transfer.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct EncryptedFlowReport {
    /// Underlying TCP metrics.
    pub tcp: TcpRun,
    /// NIC resynchronizations performed (SmartNIC placement only).
    pub resyncs: u64,
    /// CPU nanoseconds spent on encryption (software path or fallback).
    pub cpu_crypto_ns: u64,
    /// Bytes encrypted by the NIC hardware.
    pub nic_encrypted_bytes: u64,
}

impl EncryptedFlowReport {
    /// Application goodput in Gbit/s.
    pub fn goodput_gbps(&self) -> f64 {
        self.tcp.goodput_gbps()
    }

    /// Fraction of wall-clock time the CPU spent encrypting.
    pub fn cpu_crypto_fraction(&self) -> f64 {
        if self.tcp.elapsed_ns == 0 {
            return 0.0;
        }
        self.cpu_crypto_ns as f64 / self.tcp.elapsed_ns as f64
    }

    /// Registers the encryption metrics (with the underlying TCP flow
    /// under `tcp`) for a `telemetry/v1` snapshot.
    pub fn export_telemetry(&self, scope: &mut simkit::telemetry::Scope) {
        scope.set_counter("resyncs", self.resyncs);
        scope.set_counter("cpu_crypto_ns", self.cpu_crypto_ns);
        scope.set_counter("nic_encrypted_bytes", self.nic_encrypted_bytes);
        scope.set_gauge("cpu_crypto_fraction", self.cpu_crypto_fraction());
        self.tcp.export_telemetry(scope.scope("tcp"));
    }
}

/// Runs an encrypted transfer of `bytes` with the given placement.
pub fn run_encrypted_flow(
    bytes: u64,
    tcp: &TcpConfig,
    placement: TlsPlacement,
) -> EncryptedFlowReport {
    run_encrypted_flow_with_faults(bytes, tcp, None, placement)
}

/// [`run_encrypted_flow`] with an optional fault injector (armed
/// `TcpLossBurst` events force-drop segments by transmission index), used
/// to study resync behaviour under precisely placed losses.
pub fn run_encrypted_flow_with_faults(
    bytes: u64,
    tcp: &TcpConfig,
    fault: Option<&simkit::FaultHandle>,
    placement: TlsPlacement,
) -> EncryptedFlowReport {
    let mut resyncs = 0u64;
    let mut cpu_crypto_ns = 0u64;
    let mut nic_encrypted = 0u64;
    let mut nic_expected_seq = 0u64;

    let run = simulate_transfer_with_faults(bytes, tcp, fault, |ev| {
        let FlowEvent::Tx {
            seq,
            len,
            retransmission,
            ..
        } = *ev
        else {
            return 0;
        };
        match placement {
            TlsPlacement::CpuAesNi {
                cycles_per_byte,
                cpu_ghz,
                crypto_cores,
            } => {
                let ns = (len as f64 * cycles_per_byte / cpu_ghz).ceil() as u64;
                cpu_crypto_ns += ns;
                // Parallel crypto pipelines: the sender only stalls when
                // per-core crypto falls behind the wire.
                let effective = ns / crypto_cores.max(1) as u64;
                let wire = wire_time_ns(len);
                effective.saturating_sub(wire)
            }
            TlsPlacement::SmartNic {
                resync_ns,
                record_bytes,
                cycles_per_byte,
                cpu_ghz,
            } => {
                if !retransmission && seq == nic_expected_seq {
                    // In-order: the NIC encrypts inline, zero CPU cost.
                    nic_expected_seq = seq + len as u64;
                    nic_encrypted += len as u64;
                    0
                } else {
                    // Out-of-sequence: hardware resync + CPU fallback for
                    // the affected record. The expected sequence advances
                    // monotonically — a retransmission of an *old* segment
                    // must not rewind it, or every in-flight segment behind
                    // it would spuriously count as out-of-sequence too.
                    resyncs += 1;
                    let fallback = (record_bytes as f64 * cycles_per_byte / cpu_ghz).ceil() as u64;
                    cpu_crypto_ns += fallback;
                    nic_expected_seq = nic_expected_seq.max(seq + len as u64);
                    resync_ns + fallback
                }
            }
        }
    });
    EncryptedFlowReport {
        tcp: run,
        resyncs,
        cpu_crypto_ns,
        nic_encrypted_bytes: nic_encrypted,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tcp(loss: f64, seed: u64) -> TcpConfig {
        TcpConfig {
            loss_prob: loss,
            seed,
            ..TcpConfig::default()
        }
    }

    #[test]
    fn lossless_smartnic_encrypts_everything_in_hardware() {
        let report = run_encrypted_flow(8 << 20, &tcp(0.0, 1), TlsPlacement::smartnic_default());
        assert_eq!(report.resyncs, 0);
        assert_eq!(report.cpu_crypto_ns, 0);
        assert_eq!(report.nic_encrypted_bytes, 8 << 20);
    }

    #[test]
    fn cpu_placement_pays_per_byte() {
        let report = run_encrypted_flow(8 << 20, &tcp(0.0, 1), TlsPlacement::cpu_default());
        assert!(report.cpu_crypto_ns > 0);
        assert_eq!(report.nic_encrypted_bytes, 0);
        // ~1 cpb at 2.8 GHz over 8 MiB ≈ 3 ms of CPU time.
        let expect = (8u64 << 20) as f64 / 2.8;
        let actual = report.cpu_crypto_ns as f64;
        assert!(
            (actual - expect).abs() / expect < 0.05,
            "{actual} vs {expect}"
        );
    }

    #[test]
    fn drops_trigger_resyncs() {
        let report = run_encrypted_flow(8 << 20, &tcp(0.01, 2), TlsPlacement::smartnic_default());
        assert!(report.resyncs > 0);
        assert!(report.cpu_crypto_ns > 0, "fallback encryption happened");
        assert_eq!(report.tcp.delivered_bytes, 8 << 20);
    }

    #[test]
    fn smartnic_advantage_fades_with_loss() {
        // Fig. 2's crossover: at zero loss the NIC wins (or ties); with
        // drops the NIC's resync penalty makes it lose to the CPU.
        let size = 16u64 << 20;
        let nic_clean = run_encrypted_flow(size, &tcp(0.0, 5), TlsPlacement::smartnic_default());
        let cpu_clean = run_encrypted_flow(size, &tcp(0.0, 5), TlsPlacement::cpu_default());
        assert!(nic_clean.goodput_gbps() >= cpu_clean.goodput_gbps() * 0.99);

        let nic_lossy = run_encrypted_flow(size, &tcp(0.01, 5), TlsPlacement::smartnic_default());
        let cpu_lossy = run_encrypted_flow(size, &tcp(0.01, 5), TlsPlacement::cpu_default());
        assert!(
            nic_lossy.goodput_gbps() < cpu_lossy.goodput_gbps(),
            "nic {} vs cpu {} at 1% loss",
            nic_lossy.goodput_gbps(),
            cpu_lossy.goodput_gbps()
        );
    }

    #[test]
    fn single_loss_causes_exactly_matching_resyncs() {
        // Regression for the expected-sequence rewind bug: a retransmission
        // of an old segment used to set nic_expected_seq backwards, so the
        // next in-flight *new* segment also counted as out-of-sequence —
        // doubling the resync count. With the monotonic advance, resyncs
        // match the actual out-of-sequence transmissions one-to-one.
        use simkit::{FaultEvent, FaultHandle, FaultKind, FaultPlan};
        let plan = FaultPlan {
            seed: 0,
            events: vec![FaultEvent {
                at_offload: 0,
                kind: FaultKind::TcpLossBurst { start: 30, len: 1 },
            }],
        };
        let handle = FaultHandle::new(plan);
        let report = run_encrypted_flow_with_faults(
            4 << 20,
            &tcp(0.0, 1),
            Some(&handle),
            TlsPlacement::smartnic_default(),
        );
        assert_eq!(report.tcp.drops, 1, "exactly the injected loss");
        assert_eq!(report.tcp.forced_drops, 1);
        assert!(report.tcp.retransmits >= 1);
        assert_eq!(
            report.resyncs, report.tcp.retransmits,
            "one resync per out-of-sequence transmission, no spurious extras"
        );
        assert_eq!(report.tcp.delivered_bytes, 4 << 20);
    }

    #[test]
    fn resyncs_match_retransmits_under_random_loss() {
        // Every retransmission is out-of-sequence at the NIC, and — with
        // the monotonic expected-sequence fix — nothing else is.
        for seed in [2u64, 5, 9] {
            let report =
                run_encrypted_flow(4 << 20, &tcp(0.01, seed), TlsPlacement::smartnic_default());
            assert!(report.tcp.retransmits > 0);
            assert_eq!(report.resyncs, report.tcp.retransmits, "seed {seed}");
        }
    }

    #[test]
    fn reports_are_deterministic() {
        let a = run_encrypted_flow(1 << 20, &tcp(0.02, 9), TlsPlacement::smartnic_default());
        let b = run_encrypted_flow(1 << 20, &tcp(0.02, 9), TlsPlacement::smartnic_default());
        assert_eq!(a, b);
    }
}
