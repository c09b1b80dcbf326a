//! The two whole-stack reports: `run_report.json`, every component's
//! statistics from the HTTPS-server workload (§VI) on all four
//! placements, the channel, topology, fidelity-tier and tail-latency
//! sweeps and the kTLS flows in one `simkit::telemetry` registry; and
//! `backend_differential.json`, every differential workload on both
//! DRAM timing tiers.

use cache::CacheConfig;
use memsys::BackendKind;
use netsim::ktls::{run_encrypted_flow, TlsPlacement};
use netsim::tcp::TcpConfig;
use platforms::{
    run_event_server_with_telemetry, run_server_with_telemetry, AdmissionConfig, AdmissionPolicy,
    EventWorkloadConfig, PlatformKind, UlpKind, WorkloadConfig,
};
use simkit::telemetry::{Registry, Scope};
use smartdimm::PlacementPolicy;

use super::{all, csv_table, Run, Verdict};
use crate::differential::{
    deflate_sweep, fault_sweep, tls_sweep, Outcome, COARSE, DEFLATE_ROUNDS, FAULT_SEEDS,
    TLS_OFFLOADS,
};
use crate::Json;

/// Metric names that prove each stat surface is reachable from the one
/// snapshot.
const REQUIRED_METRICS: &[&str] = &[
    "\"rps\"",
    "\"cpu_utilization\"",
    "\"mem_bw_bytes\"",
    "\"rd_cas\"",
    "\"wr_cas\"",
    "\"row_hits\"",
    "\"miss_rate\"",
    "\"sampled_miss_rate\"",
    "\"page_feeds\"",
    "\"xlat_failures\"",
    "\"bank_desyncs\"",
    "\"dropped_feeds\"",
    "\"orphan_lines\"",
    "\"force_recycles\"",
    "\"injected_faults\"",
    "\"goodput_gbps\"",
    "\"resyncs\"",
    // Multi-channel surfaces: per-channel shard scopes and the host's
    // cross-channel bounce counter.
    "\"channel0\"",
    "\"bounced_offloads\"",
    "\"cross_channel_rejects\"",
    // Backend identity: every memsys export names its memory backend
    // and fidelity tier, so snapshots are never compared across tiers
    // by accident.
    "\"fidelity_tier\"",
    "\"cycle_accurate\"",
    "\"fast_queue\"",
    // Scale-out topology surfaces: per-socket rollup scopes with the
    // interconnect CAS counter, and the offload scheduler's placement
    // accounting.
    "\"socket0\"",
    "\"socket1\"",
    "\"remote_accesses\"",
    "\"static_placements\"",
    "\"rehomed_offloads\"",
    "\"migrated_offloads\"",
    "\"remote_placements\"",
    "\"local_placements\"",
    // Event-driven tail-latency surfaces: the request-latency histogram
    // (whose snapshot carries p50/p99/p999 and the small-sample p999
    // flag) and the admission-control counters.
    "\"latency_ns\"",
    "\"p999\"",
    "\"p999_resolvable\"",
    "\"admission_rejects\"",
    "\"fallback_under_pressure\"",
    "\"shed_requests\"",
    "\"completed_requests\"",
    "\"reconnects\"",
    "\"slow_drains\"",
    "\"makespan_ns\"",
    "\"mean_latency_ns\"",
    "\"max_pressure\"",
];

/// One independent simulation of the run report: a server workload, a
/// kTLS flow or an event-driven server, plus the dotted registry path
/// its scope mounts at and its progress-line label.
pub enum Entry {
    Server {
        kind: PlatformKind,
        cfg: WorkloadConfig,
        path: String,
        label: String,
    },
    Flow {
        placement: TlsPlacement,
        tcp: TcpConfig,
        transfer_bytes: u64,
        path: String,
        label: String,
    },
    Event {
        kind: PlatformKind,
        cfg: EventWorkloadConfig,
        path: String,
        label: String,
    },
}

/// Runs one entry into a detached scope; returns `(mount path, scope,
/// progress line)`. Pure function of the entry — safe on any worker.
fn run_entry(e: Entry) -> (String, Scope, String) {
    match e {
        Entry::Server {
            kind,
            cfg,
            path,
            label,
        } => {
            let mut scope = Scope::default();
            let m = run_server_with_telemetry(kind, &cfg, &mut scope);
            let line = format!(
                "  {label:<25} {:>10.0} rps  {:>5.1}% cpu  {:>6.2} GB/s",
                m.rps,
                m.cpu_utilization * 100.0,
                m.mem_bw_gbs()
            );
            (path, scope, line)
        }
        Entry::Flow {
            placement,
            tcp,
            transfer_bytes,
            path,
            label,
        } => {
            let mut scope = Scope::default();
            let report = run_encrypted_flow(transfer_bytes, &tcp, placement);
            report.export_telemetry(&mut scope);
            let line = format!(
                "  {label:<25} {:>9.2} Gbps  {:>4} resyncs  {:>4} rtx",
                report.goodput_gbps(),
                report.resyncs,
                report.tcp.retransmits
            );
            (path, scope, line)
        }
        Entry::Event {
            kind,
            cfg,
            path,
            label,
        } => {
            let mut scope = Scope::default();
            let m = run_event_server_with_telemetry(kind, &cfg, &mut scope);
            let line = format!(
                "  {label:<35} p50 {:>8} ns  p99 {:>8} ns  p999 {:>8} ns  {:>6.2} Gbps",
                m.p50_ns, m.p99_ns, m.p999_ns, m.goodput_gbps
            );
            (path, scope, line)
        }
    }
}

/// The report's entry list: 512 connections and 2000 requests per
/// server run, 16 MB kTLS flows. Every entry is independent (own host,
/// own seed), which is what lets [`render`] fan them out across workers
/// and still mount scopes in list order.
fn entries() -> Vec<Entry> {
    let (connections, requests, transfer_bytes) = (512, 2000, 16u64 << 20);
    let mut entries = Vec::new();

    let cfg = WorkloadConfig {
        message_bytes: 4096,
        connections,
        requests,
        ulp: UlpKind::Tls,
        llc: Some(CacheConfig::mb(2, 16)),
        ..WorkloadConfig::default()
    };
    let platforms = [
        (PlatformKind::Cpu, "https_cpu"),
        (PlatformKind::SmartNic, "https_smartnic"),
        (PlatformKind::QuickAssist, "https_quickassist"),
        (PlatformKind::SmartDimm, "https_smartdimm"),
    ];
    for (kind, name) in platforms {
        entries.push(Entry::Server {
            kind,
            cfg: cfg.clone(),
            path: format!("server.{name}"),
            label: format!("server/{name}"),
        });
    }

    // Placement × channel-count sweep (§V-D, Fig. 11/12 at scale): TLS
    // under fine interleave stripes every offload across all shards;
    // deflate requires page-granular (coarse) interleave, where
    // cross-channel record→skb pairs exercise the driver's bounce path.
    // Runs at a reduced scale so the sweep adds breadth, not wall-clock.
    let sweep_conns = connections / 4;
    let sweep_reqs = requests / 4;
    for channels in [1usize, 2, 4] {
        let tls_cfg = WorkloadConfig {
            message_bytes: 4096,
            connections: sweep_conns,
            requests: sweep_reqs,
            ulp: UlpKind::Tls,
            llc: Some(CacheConfig::mb(2, 16)),
            channels,
            channel_interleave_lines: 1,
            ..WorkloadConfig::default()
        };
        for (kind, place) in [
            (PlatformKind::Cpu, "cpu"),
            (PlatformKind::SmartDimm, "smartdimm"),
        ] {
            let name = format!("tls_ch{channels}_{place}");
            entries.push(Entry::Server {
                kind,
                cfg: tls_cfg.clone(),
                path: format!("sweep.{name}"),
                label: format!("sweep/{name}"),
            });
        }
        let deflate_cfg = WorkloadConfig {
            ulp: UlpKind::Compression,
            channel_interleave_lines: 64,
            ..tls_cfg
        };
        let name = format!("deflate_ch{channels}_smartdimm");
        entries.push(Entry::Server {
            kind: PlatformKind::SmartDimm,
            cfg: deflate_cfg,
            path: format!("sweep.{name}"),
            label: format!("sweep/{name}"),
        });
    }

    // Scale-out topology sweep (§V-D on a NUMA box): 4 channels split
    // across 2 sockets with 2 DIMMs per channel — only slot 0 of each
    // channel carries the DSA, and remote-socket CAS pays a 200-cycle
    // interconnect penalty. One CPU baseline plus the SmartDIMM rows
    // under both placement policies, so the report shows the
    // occupancy+locality scheduler shifting offloads off the remote
    // socket (per-socket `remote_accesses` rollups and the host `sched`
    // counters make the shift auditable).
    let topo_cfg = WorkloadConfig {
        message_bytes: 4096,
        connections: sweep_conns,
        requests: sweep_reqs,
        ulp: UlpKind::Tls,
        llc: Some(CacheConfig::mb(2, 16)),
        channels: 4,
        channel_interleave_lines: 64,
        dimms_per_channel: 2,
        sockets: 2,
        interconnect_penalty_cycles: 200,
        ..WorkloadConfig::default()
    };
    entries.push(Entry::Server {
        kind: PlatformKind::Cpu,
        cfg: topo_cfg.clone(),
        path: "sweep.topology_cpu".to_string(),
        label: "sweep/topology_cpu".to_string(),
    });
    for (placement, name) in [
        (PlacementPolicy::Static, "topology_static_smartdimm"),
        (
            PlacementPolicy::OccupancyLocality,
            "topology_sched_smartdimm",
        ),
    ] {
        entries.push(Entry::Server {
            kind: PlatformKind::SmartDimm,
            cfg: WorkloadConfig {
                placement,
                ..topo_cfg.clone()
            },
            path: format!("sweep.{name}"),
            label: format!("sweep/{name}"),
        });
    }

    // Fidelity-tier row: the 4-channel TLS sweep once more on the fast
    // backend. Same workload bytes, tier-1 timing — archived so report
    // consumers can see both tiers side by side (and the `backend`
    // scope marking each).
    entries.push(Entry::Server {
        kind: PlatformKind::SmartDimm,
        cfg: WorkloadConfig {
            message_bytes: 4096,
            connections: sweep_conns,
            requests: sweep_reqs,
            ulp: UlpKind::Tls,
            llc: Some(CacheConfig::mb(2, 16)),
            channels: 4,
            channel_interleave_lines: 1,
            backend: platforms::BackendKind::FastQueue,
            ..WorkloadConfig::default()
        },
        path: "sweep.tls_ch4_smartdimm_fast".to_string(),
        label: "sweep/tls_ch4_smartdimm_fast".to_string(),
    });

    // Event-driven tail-latency sweep: 10240 logical zipfian connections
    // and 12000 requests — enough samples to resolve p999 — on the
    // tier-1 fast backend (a cycle-accurate run at this concurrency
    // would dominate the report's wall-clock).
    let event_cfg = EventWorkloadConfig {
        connections: connections * 20,
        requests: requests * 6,
        workers: 64,
        ulp: UlpKind::Tls,
        llc: Some(CacheConfig::mb(2, 16)),
        churn_permille: 100,
        slow_client_permille: 50,
        ..EventWorkloadConfig::default()
    };
    for (kind, place) in [
        (PlatformKind::Cpu, "cpu"),
        (PlatformKind::SmartNic, "smartnic"),
        (PlatformKind::QuickAssist, "quickassist"),
        (PlatformKind::SmartDimm, "smartdimm"),
    ] {
        let name = format!("tail_latency_{place}");
        entries.push(Entry::Event {
            kind,
            cfg: event_cfg.clone(),
            path: format!("sweep.{name}"),
            label: format!("sweep/{name}"),
        });
    }
    entries.push(Entry::Event {
        kind: PlatformKind::SmartDimm,
        cfg: EventWorkloadConfig {
            ulp: UlpKind::Compression,
            ..event_cfg.clone()
        },
        path: "sweep.tail_latency_deflate_smartdimm".to_string(),
        label: "sweep/tail_latency_deflate_smartdimm".to_string(),
    });
    // Admission-controlled row: a starved scratchpad pushes queue
    // pressure over the watermark, so the committed report archives live
    // fallback/reject counters rather than structural zeros.
    entries.push(Entry::Event {
        kind: PlatformKind::SmartDimm,
        cfg: EventWorkloadConfig {
            scratchpad_pages: Some(48),
            admission: AdmissionConfig {
                policy: AdmissionPolicy::CpuFallback,
                watermark: 0.5,
            },
            ..event_cfg
        },
        path: "sweep.tail_latency_smartdimm_admission".to_string(),
        label: "sweep/tail_latency_smartdimm_admission".to_string(),
    });

    let tcp = TcpConfig {
        loss_prob: 0.005,
        seed: 7,
        ..TcpConfig::default()
    };
    for (placement, name) in [
        (TlsPlacement::cpu_default(), "ktls_cpu"),
        (TlsPlacement::smartnic_default(), "ktls_smartnic"),
    ] {
        entries.push(Entry::Flow {
            placement,
            tcp,
            transfer_bytes,
            path: format!("netsim.{name}"),
            label: format!("netsim/{name}"),
        });
    }
    entries
}

/// Runs `entries` on `workers` threads, mounts their scopes in list
/// order and renders the `run_report/v1` document around the
/// `telemetry/v1` snapshot; returns it with one progress line per
/// entry. Everything is seeded, so the document is byte-identical at
/// any worker count.
pub fn render(entries: Vec<Entry>, workers: usize) -> (String, Vec<String>) {
    let (results, _) = simkit::par::run_indexed(workers, entries, |_, e| run_entry(e));
    let mut reg = Registry::new();
    let mut lines = Vec::new();
    for (path, scope, line) in results {
        *reg.scope(&path) = scope;
        lines.push(line);
    }
    let telemetry = reg.snapshot().replace('\n', "\n  ");
    let doc = format!("{{\n  \"schema\": \"run_report/v1\",\n  \"telemetry\": {telemetry}\n}}");
    (doc, lines)
}

/// The unified run report, its entries fanned out over every available
/// worker.
pub fn run_report() -> Run {
    let (doc, lines) = render(entries(), simkit::par::available_workers());
    Run {
        table: format!("\n=== run report ===\n{}\n", lines.join("\n")),
        files: vec![("run_report.json", doc.clone())],
        rows: Box::new(doc),
    }
}

/// How many counters named `name` in a rendered snapshot hold a
/// non-zero value.
fn nonzero_counters(doc: &str, name: &str) -> usize {
    let key = format!("\"{name}\": {{ \"kind\": \"counter\", \"value\": ");
    doc.match_indices(&key)
        .filter(|(at, _)| {
            let value = &doc[at + key.len()..];
            let digits = value.bytes().take_while(u8::is_ascii_digit).count();
            value[..digits].bytes().any(|d| d != b'0')
        })
        .count()
}

/// Every entry is fault-free and the buffer device sees every PRE/ACT
/// the controller issues (refresh precharges included), so no device
/// scope may report a Bank Table desync.
pub fn no_bank_desyncs(doc: &str) -> Verdict {
    match nonzero_counters(doc, "bank_desyncs") {
        0 => Ok(()),
        n => Err(format!("{n} device scope(s) report non-zero bank_desyncs")),
    }
}

/// Every stat surface (server harness, LLC, DRAM, device, scheduler,
/// topology, event loop, TCP) is reachable from the one snapshot.
pub fn covers_every_stat_surface(doc: &str) -> Verdict {
    all(REQUIRED_METRICS, |m| doc.contains(**m))
}

/// One differential workload on both timing tiers.
#[derive(Debug)]
pub struct TierRow {
    pub workload: &'static str,
    pub accurate_cycles: u64,
    pub fast_cycles: u64,
    pub functional_match: bool,
}

impl TierRow {
    fn measure(workload: &'static str, run: impl Fn(BackendKind) -> Outcome) -> TierRow {
        let acc = run(BackendKind::CycleAccurate);
        let fast = run(BackendKind::FastQueue);
        TierRow {
            workload,
            accurate_cycles: acc.now,
            fast_cycles: fast.now,
            functional_match: acc.functional == fast.functional,
        }
    }

    fn cycle_ratio(&self) -> f64 {
        self.fast_cycles as f64 / self.accurate_cycles as f64
    }
}

/// Every differential workload (`bench::differential`) on the
/// cycle-accurate tier and the fixed-latency FIFO tier: simulated
/// end-of-run cycles, their ratio, and whether payload bytes and
/// functional counters matched.
pub fn backend_differential() -> Run {
    let rows = vec![
        TierRow::measure("tls_ch1_fine", |b| tls_sweep(b, 1, 1, TLS_OFFLOADS)),
        TierRow::measure("tls_ch2_coarse", |b| tls_sweep(b, 2, COARSE, TLS_OFFLOADS)),
        TierRow::measure("tls_ch4_coarse", |b| tls_sweep(b, 4, COARSE, TLS_OFFLOADS)),
        TierRow::measure("deflate_ch2_coarse", |b| {
            deflate_sweep(b, 2, DEFLATE_ROUNDS)
        }),
        TierRow::measure("fault_seed_sweep", |b| fault_sweep(b, FAULT_SEEDS)),
    ];
    let lines: Vec<String> = (rows.iter())
        .map(|r| {
            let (acc, fast, ratio) = (r.accurate_cycles, r.fast_cycles, r.cycle_ratio());
            format!(
                "{},{acc},{fast},{ratio:.3},{}",
                r.workload, r.functional_match
            )
        })
        .collect();
    let row_json = |r: &TierRow| {
        Json::Obj(vec![
            ("workload".into(), r.workload.into()),
            ("accurate_cycles".into(), r.accurate_cycles.into()),
            ("fast_cycles".into(), r.fast_cycles.into()),
            ("cycle_ratio".into(), r.cycle_ratio().into()),
            ("functional_match".into(), r.functional_match.into()),
        ])
    };
    let doc = Json::Obj(vec![
        ("schema".into(), "backend_differential/v1".into()),
        (
            "all_functional_match".into(),
            rows.iter().all(|r| r.functional_match).into(),
        ),
        (
            "workloads".into(),
            Json::Arr(rows.iter().map(row_json).collect()),
        ),
    ]);
    Run {
        table: csv_table(
            "fast vs accurate backend",
            "workload,acc cycles,fast cycles,ratio,match",
            &lines,
        ),
        files: vec![("backend_differential.json", doc.render())],
        rows: Box::new(rows),
    }
}

/// The fixed-latency tier changes timing only: every workload's payload
/// bytes and functional counters match the cycle-accurate tier's.
pub fn tiers_agree_functionally(rows: &[TierRow]) -> Verdict {
    all(rows, |r| r.functional_match)
}
