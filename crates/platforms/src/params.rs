//! Calibrated cost parameters for the platform models.
//!
//! Every number here is a *published-figure-scale* constant, not a
//! measurement of this machine: AES-NI throughput from Gueron's AES-NI
//! white paper, zlib level-6 software throughput from the CDPU/Accelerometer
//! characterizations, QAT per-call costs from the QTLS paper (Hu et al.),
//! SmartNIC per-record costs from Pismenny et al. The absolute RPS
//! numbers that come out are therefore model estimates; the evaluation
//! compares *ratios* between platforms, which is what the paper reports.

/// Cost constants shared by the server flows (times in nanoseconds).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CostParams {
    /// Host core clock in GHz (Xeon Gold 6242: 2.8 GHz base).
    pub cpu_ghz: f64,
    /// Per-request protocol overhead: parse, socket calls, scheduling.
    pub request_overhead_ns: u64,
    /// AES-GCM with AES-NI, CPU cycles per byte.
    pub aesni_cpb: f64,
    /// Software deflate (zlib-6-class), CPU cycles per byte.
    pub deflate_cpb: f64,
    /// QuickAssist: CPU cost per synchronous offload — descriptor build,
    /// doorbell, and completion polling (the stock sync driver burns tens
    /// of microseconds per call; QTLS's async rework exists precisely
    /// because of this).
    pub qat_call_cpu_ns: u64,
    /// QuickAssist: device latency floor per offload (PCIe round trips).
    pub qat_latency_ns: u64,
    /// QuickAssist: device throughput in Gbit/s.
    pub qat_gbps: f64,
    /// SmartNIC: per-record driver cost to install/advance inline state.
    pub nic_record_init_ns: u64,
    /// SmartDIMM: MMIO write cost is taken from `memsys`; this is the
    /// extra driver bookkeeping per CompCpy call.
    pub compcpy_sw_overhead_ns: u64,
    /// Network link rate in Gbit/s.
    pub link_gbps: f64,
}

impl Default for CostParams {
    fn default() -> Self {
        CostParams {
            cpu_ghz: 2.8,
            request_overhead_ns: 2_500,
            aesni_cpb: 1.0,
            deflate_cpb: 35.0,
            qat_call_cpu_ns: 25_000,
            qat_latency_ns: 12_000,
            qat_gbps: 40.0,
            nic_record_init_ns: 1_800,
            compcpy_sw_overhead_ns: 300,
            link_gbps: 100.0,
        }
    }
}

impl CostParams {
    /// CPU nanoseconds to run a `cycles_per_byte` kernel over `bytes`.
    pub fn cpu_ns(&self, cycles_per_byte: f64, bytes: usize) -> u64 {
        (bytes as f64 * cycles_per_byte / self.cpu_ghz).ceil() as u64
    }

    /// Device nanoseconds to push `bytes` through a `gbps` accelerator.
    pub fn accel_ns(&self, gbps: f64, bytes: usize) -> u64 {
        ((bytes * 8) as f64 / gbps).ceil() as u64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn aesni_is_much_cheaper_than_software_deflate() {
        let p = CostParams::default();
        assert!(p.cpu_ns(p.deflate_cpb, 4096) > 20 * p.cpu_ns(p.aesni_cpb, 4096));
    }

    #[test]
    fn cpu_ns_scales_linearly() {
        let p = CostParams::default();
        let one = p.cpu_ns(1.0, 1000);
        let four = p.cpu_ns(1.0, 4000);
        assert!((four as f64 / one as f64 - 4.0).abs() < 0.05);
    }

    #[test]
    fn accel_ns_matches_rate() {
        let p = CostParams::default();
        // 40 Gbps over 4 KB = 4096*8/40 ns ≈ 819 ns.
        let ns = p.accel_ns(40.0, 4096);
        assert!((810..=830).contains(&ns), "{ns}");
    }
}
