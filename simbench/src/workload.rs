//! The benchmark's three workloads and the public harness calls that run
//! them.
//!
//! All three use a 2 MB LLC so the cache thrashes as in the paper's
//! Fig. 3, and all are closed loops: the lock-step harness serves a
//! fixed number of requests in batches, and the event harness's
//! connections each wait for their response before thinking and asking
//! again.

use std::collections::BTreeMap;
use std::time::Instant;

use cache::CacheConfig;
use platforms::server::conn_file_addr;
use platforms::{
    run_event_server_with_telemetry, run_server_with_telemetry, AdmissionConfig, AdmissionPolicy,
    BackendKind, EventWorkloadConfig, PlatformKind, UlpKind, WorkloadConfig,
};
use simkit::telemetry::Registry;
use smartdimm::{CompCpyHost, HostConfig, PlacementPolicy};

use crate::snapshot;

/// One workload of the benchmark.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// Lock-step HTTPS, 4 KB records, 4 channels at 1-line interleave on
    /// the cycle-accurate controller (Fig. 11 at §V-D scale). Every
    /// record runs 4 partial AES-GCM engines and a settle/merge, and no
    /// offload bounces or re-homes.
    TlsFine4,
    /// Lock-step deflate of 4 KB pages on 4 coarse-interleaved channels
    /// over 2 sockets with 2 DIMMs per channel, a 200-cycle interconnect
    /// penalty and occupancy+locality placement. Nearly every offload
    /// bounces and about half re-home, and no AES runs.
    DeflateNuma,
    /// Event-driven zipfian 1-16 KB objects with churn and slow clients
    /// on the fast backend, with a starved scratchpad so most requests
    /// fall back to software AES-GCM. The only workload that runs the
    /// event loop, pressure sampling and page-cache refills.
    EventFallback,
}

/// Run size: the full benchmark or the test suite's smoke size.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Scale {
    /// The sizes `BENCHMARK.json` measures.
    Full,
    /// A few hundred requests, for the package's own tests.
    Smoke,
}

impl Workload {
    /// Every workload, in the order `BENCHMARK.json` lists them.
    pub const ALL: [Workload; 3] = [
        Workload::TlsFine4,
        Workload::DeflateNuma,
        Workload::EventFallback,
    ];

    /// The name used on the command line and in `BENCHMARK.json`.
    pub fn name(self) -> &'static str {
        match self {
            Workload::TlsFine4 => "tls_fine4",
            Workload::DeflateNuma => "deflate_numa",
            Workload::EventFallback => "event_fallback",
        }
    }

    /// Parses a workload name.
    pub fn parse(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }

    /// Reference passes timed after each harness call, about a tenth of
    /// the call: a lock-step call takes about 1 s, an event call about
    /// 3 s, and one pass about 0.1 s.
    pub fn reference_passes(self) -> usize {
        match self {
            Workload::TlsFine4 | Workload::DeflateNuma => 1,
            Workload::EventFallback => 3,
        }
    }

    /// The harness configuration for `seed`. The seed only reaches the
    /// program as the config's `seed` (request order, object draws and
    /// corpus bodies); every run uses the program's default thread count.
    pub fn harness(self, seed: u64, scale: Scale) -> Harness {
        let smoke = scale == Scale::Smoke;
        let llc = Some(CacheConfig::mb(2, 16));
        match self {
            Workload::TlsFine4 => Harness::LockStep(WorkloadConfig {
                message_bytes: 4096,
                connections: if smoke { 64 } else { 1024 },
                requests: if smoke { 200 } else { 2000 },
                ulp: UlpKind::Tls,
                llc,
                seed,
                channels: 4,
                channel_interleave_lines: 1,
                backend: BackendKind::CycleAccurate,
                ..WorkloadConfig::default()
            }),
            Workload::DeflateNuma => Harness::LockStep(WorkloadConfig {
                message_bytes: 4096,
                connections: if smoke { 64 } else { 1024 },
                requests: if smoke { 200 } else { 2000 },
                ulp: UlpKind::Compression,
                llc,
                seed,
                channels: 4,
                channel_interleave_lines: 64,
                dimms_per_channel: 2,
                sockets: 2,
                interconnect_penalty_cycles: 200,
                placement: PlacementPolicy::OccupancyLocality,
                backend: BackendKind::CycleAccurate,
                ..WorkloadConfig::default()
            }),
            // 2048 connections with a 300 us think time keep the closed
            // loop throughput-bound (about 3/4 of the 100 Gb/s link), so
            // the makespan behind goodput and RPS is set by the work, not
            // by the slowest connection's think-time tail; at 1024
            // connections that tail swings RPS and p99 by +-30% from seed
            // to seed. Zipf exponent 0.6 (not 1.0) keeps one seed-drawn
            // object size from carrying 12% of all requests.
            Workload::EventFallback => Harness::Event(EventWorkloadConfig {
                connections: if smoke { 256 } else { 2048 },
                requests: if smoke { 1024 } else { 4096 },
                ulp: UlpKind::Tls,
                llc,
                seed,
                zipf_s: 0.6,
                think_time_ns: 300_000,
                churn_permille: 100,
                slow_client_permille: 50,
                scratchpad_pages: Some(48),
                admission: AdmissionConfig {
                    policy: AdmissionPolicy::CpuFallback,
                    watermark: 0.5,
                },
                backend: BackendKind::FastQueue,
                ..EventWorkloadConfig::default()
            }),
        }
    }
}

/// A workload's configuration for one of the two public harnesses.
#[derive(Debug, Clone)]
pub enum Harness {
    /// `platforms::run_server_with_telemetry`.
    LockStep(WorkloadConfig),
    /// `platforms::run_event_server_with_telemetry`.
    Event(EventWorkloadConfig),
}

/// Simulated outcomes of one harness call. They repeat exactly for a
/// given seed and build.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Sim {
    /// Simulated requests per simulated second.
    pub rps: f64,
    /// Simulated DRAM bandwidth, GB/s.
    pub mem_bw_gbs: f64,
    /// Median request latency, us. The lock-step harness models one
    /// service latency per request (its mean), so p50 = p99 = mean there.
    pub p50_us: f64,
    /// 99th-percentile request latency, us.
    pub p99_us: f64,
    /// Delivered payload, Gb/s.
    pub goodput_gbps: f64,
    /// Requests the harness measured (lock-step: `requests`; event:
    /// requests completed).
    pub requests: f64,
    /// Requests issued by the load generator.
    pub issued: u64,
    /// Requests served to completion.
    pub completed: u64,
    /// Requests shed by admission control.
    pub shed: u64,
    /// Event harness only: requests served by the CPU fallback.
    pub fallbacks: u64,
    /// Event harness only: connection teardowns.
    pub reconnects: u64,
    /// Event harness only: highest sampled queue pressure.
    pub max_pressure: f64,
    /// Event harness only: 99.9th-percentile latency, us.
    pub p999_us: f64,
    /// Goodput over the NIC link rate.
    pub link_util: f64,
}

/// One harness call: its host time, its telemetry and its outcomes.
#[derive(Debug, Clone)]
pub struct Outcome {
    /// Host seconds spent inside the harness call.
    pub host_s: f64,
    /// Host seconds from the call's start until its snapshot has been
    /// rendered, hashed and flattened: the traced run's per-call time.
    pub traced_s: f64,
    /// SHA-256 of the rendered telemetry snapshot.
    pub digest: String,
    /// Every numeric leaf of the snapshot.
    pub counters: BTreeMap<String, f64>,
    /// Simulated outcomes.
    pub sim: Sim,
}

/// Copies the topology knobs shared by both workload configs into a
/// host config, mirroring what the harnesses do before they run.
macro_rules! topology_into {
    ($h:expr, $c:expr) => {{
        $h.mem.llc = $c.llc;
        $h.mem.backend = $c.backend;
        $h.mem.dram.topology.channels = $c.channels;
        $h.mem.dram.topology.channel_interleave_lines = $c.channel_interleave_lines.max(1);
        $h.mem.dram.topology.dimms_per_channel = $c.dimms_per_channel.max(1);
        $h.mem.dram.topology.sockets = $c.sockets.max(1);
        $h.mem.dram.interconnect_penalty_cycles = $c.interconnect_penalty_cycles;
        $h.sched.policy = $c.placement;
        $h.threads = $c.threads;
    }};
}

impl Harness {
    /// The harness's own validation of the config.
    pub fn validate(&self) -> Result<(), String> {
        match self {
            Harness::LockStep(c) => c.validate().map_err(|e| e.to_string()),
            Harness::Event(c) => c.validate().map_err(|e| e.to_string()),
        }
    }

    /// The ULP every request applies.
    pub fn ulp(&self) -> UlpKind {
        match self {
            Harness::LockStep(c) => c.ulp,
            Harness::Event(c) => c.ulp,
        }
    }

    /// The DRAM backend the workload runs on.
    pub fn backend(&self) -> BackendKind {
        match self {
            Harness::LockStep(c) => c.backend,
            Harness::Event(c) => c.backend,
        }
    }

    /// The same workload on another DRAM backend (a knock-out variant).
    pub fn with_backend(&self, backend: BackendKind) -> Harness {
        let mut h = self.clone();
        match &mut h {
            Harness::LockStep(c) => c.backend = backend,
            Harness::Event(c) => c.backend = backend,
        }
        h
    }

    /// The same workload with an explicit settle-pool thread count.
    pub fn with_threads(&self, threads: usize) -> Harness {
        let mut h = self.clone();
        match &mut h {
            Harness::LockStep(c) => c.threads = threads,
            Harness::Event(c) => c.threads = threads,
        }
        h
    }

    /// The machine the harness builds, through the public constructors.
    pub fn host_config(&self) -> HostConfig {
        let mut h = HostConfig::default();
        match self {
            Harness::LockStep(c) => topology_into!(h, c),
            Harness::Event(c) => {
                topology_into!(h, c);
                if let Some(pages) = c.scratchpad_pages {
                    h.dimm.scratchpad_pages = pages;
                }
            }
        }
        h
    }

    /// Host seconds to build the workload's machine and preload its page
    /// cache: one body per connection (per arena slot for the event
    /// harness, which multiplexes connections over 1024 slots).
    pub fn setup(&self) -> f64 {
        let (bodies, len, corpus, seed) = match self {
            Harness::LockStep(c) => (c.connections, c.message_bytes, c.corpus, c.seed),
            Harness::Event(c) => (
                c.connections.min(1024),
                c.max_object_bytes,
                c.corpus,
                c.seed,
            ),
        };
        let t0 = Instant::now();
        let mut host = CompCpyHost::new(self.host_config());
        for conn in 0..bodies {
            let body = corpus.generate(len, seed ^ conn as u64);
            host.mem_mut().dma_write(conn_file_addr(conn), &body);
        }
        let secs = t0.elapsed().as_secs_f64();
        std::hint::black_box(&host);
        secs
    }

    /// Runs the harness once on the SmartDIMM placement. Only the harness
    /// call is timed; rendering and hashing the snapshot are not.
    pub fn run(&self) -> Result<Outcome, String> {
        let mut reg = Registry::new();
        let start = Instant::now();
        let (host_s, sim) = match self {
            Harness::LockStep(c) => {
                let m = run_server_with_telemetry(PlatformKind::SmartDimm, c, reg.root());
                let host_s = start.elapsed().as_secs_f64();
                let goodput_gbps = m.rps * m.wire_bytes_per_req * 8.0 / 1e9;
                let sim = Sim {
                    rps: m.rps,
                    mem_bw_gbs: m.mem_bw_gbs(),
                    p50_us: m.avg_request_ns / 1e3,
                    p99_us: m.avg_request_ns / 1e3,
                    goodput_gbps,
                    requests: c.requests as f64,
                    issued: c.requests as u64,
                    completed: c.requests as u64,
                    shed: 0,
                    fallbacks: 0,
                    reconnects: 0,
                    max_pressure: 0.0,
                    p999_us: 0.0,
                    link_util: goodput_gbps / c.costs.link_gbps,
                };
                (host_s, sim)
            }
            Harness::Event(c) => {
                let m = run_event_server_with_telemetry(PlatformKind::SmartDimm, c, reg.root());
                let host_s = start.elapsed().as_secs_f64();
                let sim = Sim {
                    rps: m.completed_requests as f64 * 1e9 / m.makespan_ns,
                    mem_bw_gbs: 0.0, // from the snapshot below
                    p50_us: m.p50_ns as f64 / 1e3,
                    p99_us: m.p99_ns as f64 / 1e3,
                    goodput_gbps: m.goodput_gbps,
                    requests: m.completed_requests as f64,
                    issued: m.issued_requests,
                    completed: m.completed_requests,
                    shed: m.shed_requests,
                    fallbacks: m.fallback_under_pressure,
                    reconnects: m.reconnects,
                    max_pressure: m.max_pressure,
                    p999_us: m.p999_ns as f64 / 1e3,
                    link_util: m.goodput_gbps / c.costs.link_gbps,
                };
                (host_s, sim)
            }
        };
        let snap = reg.snapshot();
        let digest = snapshot::digest(&snap);
        let counters = snapshot::flatten(&snap)?;
        let traced_s = start.elapsed().as_secs_f64();
        let mut sim = sim;
        if let (Harness::Event(_), Some(bytes), Some(makespan)) = (
            self,
            counters.get("host.mem.dram.bytes_transferred"),
            counters.get("makespan_ns"),
        ) {
            sim.mem_bw_gbs = bytes / makespan; // bytes per ns = GB/s
        }
        Ok(Outcome {
            host_s,
            traced_s,
            digest,
            counters,
            sim,
        })
    }
}
