//! Per-layer attribution from outside the program: unit costs measured
//! by timing calls into each layer's public API, multiplied by the work
//! counts the telemetry snapshot reports.

use std::hint::black_box;
use std::time::Instant;

use platforms::UlpKind;
use ulp_compress::corpus;
use ulp_compress::hwmodel::{HwCompressor, HwDeflateConfig};
use ulp_crypto::gcm::{AesGcm, Direction, OooGcm};

use crate::median;
use crate::snapshot;
use crate::workload::Outcome;

/// Host nanoseconds per call of each layer's hot entry point.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct UnitCosts {
    /// `OooGcm::process_cacheline` on one 64 B line.
    pub ns_per_gcm_line: f64,
    /// `AesGcm::seal` of a 4 KB record with the key already expanded.
    pub ns_per_seal_4k: f64,
    /// `AesGcm::new_128` (key expansion and GHASH tables).
    pub ns_per_key_setup: f64,
    /// `HwCompressor::new` + `compress_page` on a 4 KB page, which is what
    /// the deflate DSA runs per page.
    pub ns_per_hw_page: f64,
}

impl UnitCosts {
    /// Medians over `rounds` timed batches on seeded inputs.
    pub fn measure(seed: u64, hw: HwDeflateConfig, rounds: usize) -> UnitCosts {
        let page = corpus::Kind::Html.generate(4096, seed);
        let key = [0x5Au8; 16];
        let iv = [0x11u8; 12];
        let gcm = AesGcm::new_128(&key);

        let ns_per_gcm_line = median(
            (0..rounds)
                .map(|_| {
                    let mut engine =
                        OooGcm::new(gcm.clone(), iv, b"", page.len(), Direction::Encrypt);
                    let t0 = Instant::now();
                    for off in (0..page.len()).step_by(64) {
                        black_box(engine.process_cacheline(off, &page[off..off + 64]));
                    }
                    t0.elapsed().as_nanos() as f64 / 64.0
                })
                .collect(),
        );
        let ns_per_seal_4k = median(
            (0..rounds)
                .map(|_| {
                    let t0 = Instant::now();
                    black_box(gcm.seal(&iv, b"", black_box(&page)));
                    t0.elapsed().as_nanos() as f64
                })
                .collect(),
        );
        let ns_per_key_setup = median(
            (0..rounds)
                .map(|_| {
                    let t0 = Instant::now();
                    for _ in 0..16 {
                        black_box(AesGcm::new_128(black_box(&key)));
                    }
                    t0.elapsed().as_nanos() as f64 / 16.0
                })
                .collect(),
        );
        let ns_per_hw_page = median(
            (0..rounds)
                .map(|_| {
                    let t0 = Instant::now();
                    let mut hw = HwCompressor::new(hw);
                    black_box(hw.compress_page(black_box(&page)));
                    t0.elapsed().as_nanos() as f64
                })
                .collect(),
        );
        UnitCosts {
            ns_per_gcm_line,
            ns_per_seal_4k,
            ns_per_key_setup,
            ns_per_hw_page,
        }
    }
}

/// Host seconds charged to the ULP layers for one harness call.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct UlpTime {
    /// AES-GCM: device lines, key setups and CPU-served seals.
    pub crypto_s: f64,
    /// Deflate DSA pages.
    pub compress_s: f64,
}

/// Replays the call's ULP work at the measured unit costs.
///
/// * Every DSA line of a TLS workload is one `process_cacheline`.
/// * Key setups: on the lock-step harness one engine per page
///   registration (4 KB records register one page per channel); on the
///   event harness one per completed response, built on the device or by
///   the CPU fallback.
/// * Each CPU-fallback response is one `seal` of the mean response size.
/// * Each completed deflate offload is one hardware page.
pub fn ulp_time(ulp: UlpKind, outcome: &Outcome, costs: &UnitCosts, event: bool) -> UlpTime {
    let c = &outcome.counters;
    let channel = |suffix| snapshot::sum(c, "host.channel", suffix);
    let mut crypto_ns = 0.0;
    let mut compress_ns = 0.0;
    match ulp {
        UlpKind::Tls => {
            crypto_ns += channel(".device.dsa_lines") * costs.ns_per_gcm_line;
            let sim = &outcome.sim;
            let key_setups = if event {
                sim.completed as f64
            } else {
                channel(".device.registrations")
            };
            crypto_ns += key_setups * costs.ns_per_key_setup;
            if sim.completed > 0 {
                let mean_bytes =
                    c.get("delivered_bytes").copied().unwrap_or(0.0) / sim.completed as f64;
                crypto_ns += sim.fallbacks as f64 * mean_bytes / 4096.0 * costs.ns_per_seal_4k;
            }
        }
        UlpKind::Compression => {
            compress_ns += channel(".device.offloads_completed") * costs.ns_per_hw_page;
        }
        UlpKind::None => {}
    }
    UlpTime {
        crypto_s: crypto_ns / 1e9,
        compress_s: compress_ns / 1e9,
    }
}
