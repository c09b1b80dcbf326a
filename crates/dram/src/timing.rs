//! DDR4 timing parameters, expressed in DRAM command-clock cycles
//! (DDR4-3200: 1600 MHz command clock, so 1 cycle = 0.625 ns).

#![deny(missing_docs)]

/// DDR timing constraints used by the bank state machines and the
/// controller's data-bus rule. The simulated machine has one set:
/// [`Timing::DDR4_3200`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Timing {
    /// ACT to CAS delay (tRCD).
    pub t_rcd: u64,
    /// Precharge latency (tRP).
    pub t_rp: u64,
    /// CAS (read) latency (CL).
    pub t_cl: u64,
    /// CAS write latency (CWL).
    pub t_cwl: u64,
    /// Minimum row-open time before precharge (tRAS).
    pub t_ras: u64,
    /// Burst duration on the data bus (BL8 on a 2n prefetch = 4 cycles).
    /// Back-to-back bursts serialize on it; tCCD is not modelled.
    pub t_burst: u64,
    /// Write recovery before precharge (tWR).
    pub t_wr: u64,
    /// Write-to-read turnaround (tWTR).
    pub t_wtr: u64,
    /// Read-to-write bus turnaround.
    pub t_rtw: u64,
    /// Delay before a rdCAS NACKed via `ALERT_N` is retried (§IV-D).
    pub retry_delay: u64,
    /// Average refresh interval (tREFI: 7.8 µs at DDR4-3200 ≈ 12480
    /// command cycles).
    pub t_refi: u64,
    /// Refresh cycle time — the rank is unavailable for this long
    /// (tRFC: ~350 ns for 8 Gb devices ≈ 560 cycles).
    pub t_rfc: u64,
}

impl Timing {
    /// DDR4-3200AA-class numbers in command-clock cycles.
    pub const DDR4_3200: Timing = Timing {
        t_rcd: 22,
        t_rp: 22,
        t_cl: 22,
        t_cwl: 16,
        t_ras: 52,
        t_burst: 4,
        t_wr: 24,
        t_wtr: 12,
        t_rtw: 8,
        retry_delay: 50,
        t_refi: 12_480,
        t_rfc: 560,
    };
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ddr4_3200_is_consistent() {
        let t = Timing::DDR4_3200;
        assert!(t.t_ras >= t.t_rcd, "row must stay open past tRCD");
    }

    #[test]
    fn refresh_parameters_are_sane() {
        let t = Timing::DDR4_3200;
        // Refresh overhead must stay in the single-digit percent range.
        let overhead = t.t_rfc as f64 / t.t_refi as f64;
        assert!((0.01..0.10).contains(&overhead), "overhead {overhead}");
    }
}
