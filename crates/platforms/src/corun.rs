//! Performance isolation (Table I): Nginx co-running with a
//! cache-intensive application.
//!
//! The paper co-runs 10 Nginx threads with 10 instances of SPEC 505.mcf
//! and reports each side's slowdown relative to its solo run. 505.mcf is
//! a pointer-chasing network-simplex code with a hot arc-array region
//! (LLC-resident when solo) and a large irregular cold region.
//!
//! Concurrency is modelled with `memsys`'s background-traffic injector:
//! while one side runs in the foreground, the other side's access
//! pattern is injected between its memory operations — evicting LLC
//! lines and occupying DRAM buses/banks exactly as a co-scheduled
//! workload would, without serializing the two timelines. Each side's
//! slowdown is then its foreground cycles per unit of work, co-run vs
//! solo.

use dram::PhysAddr;
use memsys::BackgroundTraffic;
use simkit::DetRng;
use smartdimm::CompCpyHost;

use crate::server::{run_server_instrumented, PlatformKind, UlpKind, WorkloadConfig};

/// A 505.mcf-like pointer-chasing workload: a *hot* region (arc arrays)
/// that is LLC-resident when run alone, plus a *cold* region (the network
/// graph) whose irregular accesses always miss.
#[derive(Debug, Clone)]
pub struct McfLike {
    base: PhysAddr,
    cold_chain: Vec<u32>,
    hot_chain: Vec<u32>,
    cold_off: u64,
    cursor: usize,
    hot_cursor: usize,
    rng: DetRng,
}

/// Hot-region size: LLC-resident when solo, evictable under co-run.
pub const MCF_HOT_BYTES: usize = 1024 * 1024;
/// Fraction of accesses that touch the hot region.
pub const MCF_HOT_FRACTION: f64 = 0.7;
/// mcf arena placement — far above the server's buffer regions.
pub const MCF_BASE: u64 = 0x7000_0000;

impl McfLike {
    /// Builds an mcf-like workload whose cold region spans
    /// `footprint_bytes`, starting at `base`.
    pub fn new(base: PhysAddr, footprint_bytes: usize, seed: u64) -> McfLike {
        let mut rng = DetRng::new(seed);
        let cold_lines = (footprint_bytes / 64).max(1);
        let mut cold_chain: Vec<u32> = (0..cold_lines as u32).collect();
        rng.shuffle(&mut cold_chain);
        let hot_lines = MCF_HOT_BYTES / 64;
        let mut hot_chain: Vec<u32> = (0..hot_lines as u32).collect();
        rng.shuffle(&mut hot_chain);
        McfLike {
            base,
            cold_chain,
            hot_chain,
            cold_off: MCF_HOT_BYTES as u64,
            cursor: 0,
            hot_cursor: 0,
            rng,
        }
    }

    /// Performs `accesses` dependent loads, returning the cycles consumed.
    pub fn run(&mut self, host: &mut CompCpyHost, accesses: usize) -> u64 {
        let t0 = host.mem().now();
        for _ in 0..accesses {
            let addr = if self.rng.gen_bool(MCF_HOT_FRACTION) {
                let line = self.hot_chain[self.hot_cursor] as u64;
                self.hot_cursor = (self.hot_cursor + 1) % self.hot_chain.len();
                PhysAddr(self.base.0 + line * 64)
            } else {
                let line = self.cold_chain[self.cursor] as u64;
                self.cursor = (self.cursor + 1) % self.cold_chain.len();
                PhysAddr(self.base.0 + self.cold_off + line * 64)
            };
            let _ = host.mem_mut().load_line(addr, 1);
        }
        host.mem().now() - t0
    }
}

/// Slowdowns of both actors in a co-run, normalized to their solo runs.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CorunReport {
    /// Server request-latency inflation (e.g. 0.15 = 15 % slower).
    pub nginx_slowdown: f64,
    /// mcf per-access latency inflation.
    pub mcf_slowdown: f64,
    /// Solo server cycles per request.
    pub nginx_solo_cycles: f64,
    /// Co-run server cycles per request.
    pub nginx_corun_cycles: f64,
}

/// The mcf access pattern as background traffic for the server side.
fn mcf_background(footprint: usize, per_op: f64, seed: u64) -> BackgroundTraffic {
    BackgroundTraffic {
        base: PhysAddr(MCF_BASE),
        hot_lines: (MCF_HOT_BYTES / 64) as u64,
        cold_lines: (footprint / 64) as u64,
        hot_fraction: MCF_HOT_FRACTION,
        per_op,
        class: 1,
        seed,
    }
}

/// A server-like access pattern as background traffic for the mcf side:
/// mostly streaming over the connection buffer arenas, with a small hot
/// set (metadata, stack). The pressure depends on the placement — that is
/// Table I's finding: per request, the CPU path sweeps four buffers
/// through the cache (page cache, user buffer, record, skb) plus the
/// cipher's reads; SmartDIMM touches two (its copy *is* the transform and
/// the NIC reads the recycled record from DRAM); QuickAssist adds DMA
/// staging copies on top of the CPU path.
fn server_background(
    kind: PlatformKind,
    cfg: &WorkloadConfig,
    per_op: f64,
    seed: u64,
) -> BackgroundTraffic {
    // (buffer passes per request, memory-op intensity vs the CPU path)
    let (regions, op_factor) = match kind {
        PlatformKind::Cpu => (4.0, 1.0),
        PlatformKind::SmartNic => (4.0, 0.8), // no cipher pass
        PlatformKind::QuickAssist => (5.0, 1.3), // + DMA staging
        PlatformKind::SmartDimm => (2.0, 0.45), // copy-is-the-transform
    };
    let per_conn_bytes = (regions * cfg.message_bytes as f64) as usize;
    BackgroundTraffic {
        base: PhysAddr(0x0200_0000),
        hot_lines: 4096, // 256 KB of hot server state
        cold_lines: ((cfg.connections * per_conn_bytes) / 64) as u64,
        hot_fraction: 0.25,
        per_op: per_op * op_factor,
        class: 0,
        seed,
    }
}

/// mcf foreground cycles per access with optional background traffic.
fn measure_mcf(cfg: &WorkloadConfig, footprint: usize, bg: Option<BackgroundTraffic>) -> f64 {
    let mut host = CompCpyHost::new(cfg.host_config());
    let mut mcf = McfLike::new(PhysAddr(MCF_BASE), footprint, cfg.seed);
    host.mem_mut().set_background(bg);
    mcf.run(&mut host, 30_000); // warm the hot region
    mcf.run(&mut host, 60_000) as f64 / 60_000.0
}

/// Runs solo and co-run phases for the given platform and returns the
/// Table I slowdowns. Both sides run on the machine [`crate::run_server`]
/// builds for `cfg` (LLC, topology, placement, DRAM backend). Both server
/// phases run through [`crate::run_server`]'s own warm-up and measure
/// loop, fault plan included, so the solo cycles per request are the
/// lock-step server's for `cfg`.
///
/// # Panics
///
/// Panics if `cfg` fails [`WorkloadConfig::validate`].
///
/// `mcf_footprint` is the co-runner's cold working set; `intensity` is
/// the ratio of co-runner accesses per foreground memory operation (1.0 ≈
/// equal memory intensity on both sides, as with 10 mcf instances vs 10
/// server threads).
pub fn run_corun(
    kind: PlatformKind,
    cfg: &WorkloadConfig,
    mcf_footprint: usize,
    intensity: f64,
) -> CorunReport {
    assert!(cfg.ulp != UlpKind::None, "co-run needs a ULP workload");

    let server_cycles = |bg| run_server_instrumented(kind, cfg, bg).2;
    let nginx_solo = server_cycles(None);
    let nginx_corun = server_cycles(Some(mcf_background(
        mcf_footprint,
        intensity,
        cfg.seed ^ 0xBF,
    )));
    let mcf_solo = measure_mcf(cfg, mcf_footprint, None);
    let mcf_corun = measure_mcf(
        cfg,
        mcf_footprint,
        Some(server_background(kind, cfg, intensity, cfg.seed ^ 0x5E)),
    );

    CorunReport {
        nginx_slowdown: nginx_corun / nginx_solo - 1.0,
        mcf_slowdown: mcf_corun / mcf_solo - 1.0,
        nginx_solo_cycles: nginx_solo,
        nginx_corun_cycles: nginx_corun,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cache::CacheConfig;

    fn cfg() -> WorkloadConfig {
        WorkloadConfig {
            message_bytes: 4096,
            connections: 64, // LLC-resident solo, evictable under co-run
            requests: 200,
            ulp: UlpKind::Tls,
            llc: Some(CacheConfig::mb(2, 16)),
            ..WorkloadConfig::default()
        }
    }

    #[test]
    fn corun_slows_both_sides() {
        let report = run_corun(PlatformKind::Cpu, &cfg(), 16 << 20, 1.0);
        assert!(report.nginx_slowdown > 0.0, "{report:?}");
        assert!(report.mcf_slowdown > 0.0, "{report:?}");
        assert!(report.nginx_slowdown < 2.0);
        assert!(report.mcf_slowdown < 2.0);
    }

    #[test]
    fn smartdimm_interferes_less_than_cpu() {
        // Table I: offloading the ULP reduces the server's cache
        // footprint, so the co-runner suffers less.
        let cpu = run_corun(PlatformKind::Cpu, &cfg(), 16 << 20, 1.0);
        let sd = run_corun(PlatformKind::SmartDimm, &cfg(), 16 << 20, 1.0);
        assert!(
            sd.mcf_slowdown < cpu.mcf_slowdown,
            "smartdimm mcf {} vs cpu mcf {}",
            sd.mcf_slowdown,
            cpu.mcf_slowdown
        );
        assert!(sd.nginx_slowdown > 0.0, "{sd:?}");
    }

    #[test]
    fn corun_runs_on_the_workload_machine() {
        // The topology reaches both hosts: a second channel changes the
        // SmartDIMM server's solo cycles per request.
        let small = WorkloadConfig {
            connections: 16,
            requests: 64,
            ..cfg()
        };
        let one = run_corun(PlatformKind::SmartDimm, &small, 16 << 20, 1.0);
        let two = run_corun(
            PlatformKind::SmartDimm,
            &WorkloadConfig {
                channels: 2,
                ..small.clone()
            },
            16 << 20,
            1.0,
        );
        assert_ne!(one.nginx_solo_cycles, two.nginx_solo_cycles);
    }

    #[test]
    fn solo_phase_is_the_lock_step_server() {
        // Fewer requests than one batch of 250: a loop that clamped the
        // batch to the request count would measure a different server.
        let small = WorkloadConfig {
            connections: 256,
            requests: 64,
            ..cfg()
        };
        let solo = run_corun(PlatformKind::Cpu, &small, 16 << 20, 1.0).nginx_solo_cycles;
        let server = crate::run_server(PlatformKind::Cpu, &small).avg_request_ns * 1.6;
        assert!((solo - server).abs() <= 1e-9 * server, "{solo} vs {server}");
    }

    #[test]
    #[should_panic(expected = "invalid WorkloadConfig")]
    fn corun_validates_the_workload() {
        let zero_requests = WorkloadConfig {
            requests: 0,
            ..cfg()
        };
        run_corun(PlatformKind::Cpu, &zero_requests, 16 << 20, 1.0);
    }

    #[test]
    fn mcf_has_realistic_miss_profile() {
        let mut host = CompCpyHost::new(smartdimm::HostConfig {
            mem: memsys::MemConfig {
                llc: Some(CacheConfig::mb(2, 16)),
                ..Default::default()
            },
            ..Default::default()
        });
        let mut mcf = McfLike::new(PhysAddr(MCF_BASE), 16 << 20, 3);
        mcf.run(&mut host, 30_000);
        host.mem_mut().llc_mut().reset_stats();
        mcf.run(&mut host, 30_000);
        let misses = host.mem().llc().stats().miss_rate();
        // Cold region always misses (~30% of accesses); hot region hits.
        assert!((0.2..0.6).contains(&misses), "mcf miss rate {misses}");
    }
}
