//! Unified run report → `results/run_report.json`.
//!
//! Drives the HTTPS-server workload (§VI) on all four placements plus the
//! kTLS encrypted-flow models, gathers every component's statistics into
//! one `simkit::telemetry` registry — server harness {RPS, CPU util, BW},
//! LLC miss rates, DRAM CAS counters, SmartDIMM device/scratchpad/xlat
//! counters, TCP flow metrics — and emits a single JSON document: a
//! `run_report/v1` metadata wrapper around the deterministic
//! `telemetry/v1` snapshot.
//!
//! The wall-clock stamp lives *only* in the wrapper metadata; the inner
//! snapshot is byte-identical across same-seed runs (enforced by
//! `tests/telemetry_determinism.rs`). Modes follow `bench_hotpaths`:
//!
//! * `smoke` — tiny workload for CI; writes `target/run_report.smoke.json`
//!   so a CI run never clobbers the committed full-mode report,
//! * `full` — the committed report at `results/run_report.json` (default),
//! * `check` — validate the committed report (well-formed JSON, both
//!   schema tags, the expected top-level scopes) and exit non-zero
//!   otherwise (used by `ci.sh`).

use bench::harness::json_parses;
use cache::CacheConfig;
use netsim::ktls::{run_encrypted_flow, TlsPlacement};
use netsim::tcp::TcpConfig;
use platforms::{
    run_event_server_with_telemetry, run_server_with_telemetry, AdmissionConfig, AdmissionPolicy,
    EventWorkloadConfig, PlatformKind, UlpKind, WorkloadConfig,
};
use simkit::par::ParStats;
use simkit::telemetry::{Registry, Scope};
use smartdimm::PlacementPolicy;
use std::path::PathBuf;
use std::process::ExitCode;

fn repo_root() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .parent()
        .and_then(|p| p.parent())
        .expect("workspace root")
        .to_path_buf()
}

/// Scope names every report must contain — `check` mode and the
/// acceptance criteria both key off this list.
const REQUIRED_SCOPES: &[&str] = &[
    "server.https_cpu",
    "server.https_smartnic",
    "server.https_quickassist",
    "server.https_smartdimm",
    "netsim.ktls_cpu",
    "netsim.ktls_smartnic",
    // Placement × channel-count sweep (§V-D): 1/2/4 channels.
    "sweep.tls_ch1_cpu",
    "sweep.tls_ch1_smartdimm",
    "sweep.tls_ch2_cpu",
    "sweep.tls_ch2_smartdimm",
    "sweep.tls_ch4_cpu",
    "sweep.tls_ch4_smartdimm",
    "sweep.deflate_ch1_smartdimm",
    "sweep.deflate_ch2_smartdimm",
    "sweep.deflate_ch4_smartdimm",
    // Scale-out topology sweep (§V-D on a NUMA box): 2 sockets ×
    // 2 DIMMs/channel, CPU baseline plus SmartDIMM under both
    // placement policies.
    "sweep.topology_cpu",
    "sweep.topology_static_smartdimm",
    "sweep.topology_sched_smartdimm",
    // Fidelity-tier coverage: the 4-channel TLS sweep repeated on the
    // fast fixed-latency backend (tier 1). The differential harness
    // pins its functional equality with the accurate run above.
    "sweep.tls_ch4_smartdimm_fast",
    // Event-driven tail-latency sweep: >10k zipfian closed-loop
    // connections on the tier-1 backend, per placement, plus an
    // admission-controlled row on a starved scratchpad.
    "sweep.tail_latency_cpu",
    "sweep.tail_latency_smartnic",
    "sweep.tail_latency_quickassist",
    "sweep.tail_latency_smartdimm",
    "sweep.tail_latency_deflate_smartdimm",
    "sweep.tail_latency_smartdimm_admission",
];

/// Metric names that prove each stat surface named in the issue is
/// reachable from the one snapshot.
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

/// One independent simulation of the report: a server workload or a
/// kTLS flow, plus the dotted registry path its scope mounts at.
enum Entry {
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

/// The report's full entry list for one workload scale. Every entry is
/// independent (own host, own seed), which is what lets the builder fan
/// them out across workers and still mount scopes in list order.
fn report_entries(connections: usize, requests: usize, transfer_bytes: u64) -> Vec<Entry> {
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
    let sweep_conns = (connections / 4).max(16);
    let sweep_reqs = (requests / 4).max(64);
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

    // Event-driven tail-latency sweep: the full-mode scale is 10240
    // logical zipfian connections and 12000 requests — enough samples to
    // resolve p999 — on the tier-1 fast backend (a cycle-accurate run at
    // this concurrency would dominate the report's wall-clock).
    let event_conns = connections * 20;
    let event_reqs = requests * 6;
    let event_cfg = EventWorkloadConfig {
        connections: event_conns,
        requests: event_reqs,
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

/// Builds the full telemetry tree for one workload scale, fanning the
/// independent entries across `threads` workers. Everything is seeded
/// and scopes mount in entry-list order, so the registry snapshots
/// byte-identically for the same `(connections, requests,
/// transfer_bytes)` triple at *any* worker count — only the returned
/// [`ParStats`] (wall-clock metadata) varies.
fn build_registry(
    connections: usize,
    requests: usize,
    transfer_bytes: u64,
    threads: usize,
) -> (Registry, ParStats) {
    let entries = report_entries(connections, requests, transfer_bytes);
    let (results, stats) = simkit::par::run_indexed(threads, entries, |_, e| run_entry(e));
    let mut reg = Registry::new();
    for (path, scope, line) in results {
        println!("{line}");
        *reg.scope(&path) = scope;
    }
    (reg, stats)
}

/// Wraps the telemetry snapshot in the `run_report/v1` metadata document.
/// The wall-clock stamp and the scheduler stats (worker count, task and
/// steal totals from the entry fan-out) are the only non-deterministic
/// fields, which is why they live out here and not inside the snapshot.
fn render_report(mode: &str, snapshot: &str, stats: ParStats) -> String {
    let indented = snapshot.replace('\n', "\n  ");
    format!(
        "{{\n  \"schema\": \"run_report/v1\",\n  \"mode\": \"{mode}\",\n  \
         \"generated_at_unix\": {},\n  \"workers\": {},\n  \
         \"par_tasks\": {},\n  \"par_steals\": {},\n  \
         \"telemetry\": {indented}\n}}",
        simkit::timer::unix_time_secs(),
        stats.workers,
        stats.tasks,
        stats.steals
    )
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

fn check(path: &PathBuf) -> ExitCode {
    let doc = match std::fs::read_to_string(path) {
        Ok(s) => s,
        Err(e) => {
            eprintln!("[err] {}: {e}", path.display());
            return ExitCode::FAILURE;
        }
    };
    if !json_parses(&doc) {
        eprintln!("[err] {} is not well-formed JSON", path.display());
        return ExitCode::FAILURE;
    }
    for tag in ["run_report/v1", "telemetry/v1"] {
        if !doc.contains(tag) {
            eprintln!("[err] {} lacks schema tag {tag:?}", path.display());
            return ExitCode::FAILURE;
        }
    }
    // Scopes render as nested objects, so `server.https_cpu` appears as
    // the leaf name under the `server` scope.
    for scope in REQUIRED_SCOPES {
        let leaf = scope.rsplit('.').next().expect("non-empty scope path");
        if !doc.contains(&format!("\"{leaf}\"")) {
            eprintln!("[err] {} lacks scope {scope:?}", path.display());
            return ExitCode::FAILURE;
        }
    }
    for metric in REQUIRED_METRICS {
        if !doc.contains(metric) {
            eprintln!("[err] {} lacks metric {metric}", path.display());
            return ExitCode::FAILURE;
        }
    }
    // Every entry is fault-free and the buffer device sees every PRE/ACT
    // the controller issues (refresh precharges included), so no device
    // scope may report a Bank Table desync.
    let desynced = nonzero_counters(&doc, "bank_desyncs");
    if desynced > 0 {
        eprintln!(
            "[err] {}: {desynced} device scope(s) report non-zero bank_desyncs",
            path.display()
        );
        return ExitCode::FAILURE;
    }
    println!(
        "[ok] {} parses and covers all stat surfaces",
        path.display()
    );
    ExitCode::SUCCESS
}

fn main() -> ExitCode {
    let mode = std::env::args().nth(1).unwrap_or_else(|| "full".into());
    let committed = bench::results_dir().join("run_report.json");

    if mode == "check" {
        return check(&committed);
    }

    let (connections, requests, transfer_bytes, out_path) = match mode.as_str() {
        "smoke" => (
            64,
            200,
            1u64 << 20,
            repo_root().join("target").join("run_report.smoke.json"),
        ),
        "full" => (512, 2000, 16u64 << 20, committed),
        other => {
            eprintln!("usage: run_report [smoke|full|check] (got {other:?})");
            return ExitCode::FAILURE;
        }
    };

    let threads = simkit::par::configured_threads(0);
    println!("run report ({mode} mode, {threads} worker(s))");
    let (reg, stats) = build_registry(connections, requests, transfer_bytes, threads);
    let snapshot = reg.snapshot();
    let doc = render_report(&mode, &snapshot, stats);
    assert!(json_parses(&doc), "emitted report must be valid JSON");
    for scope in REQUIRED_SCOPES {
        let leaf = scope.rsplit('.').next().expect("non-empty scope path");
        assert!(doc.contains(&format!("\"{leaf}\"")), "missing {scope}");
    }
    if let Some(dir) = out_path.parent() {
        std::fs::create_dir_all(dir).expect("create report dir");
    }
    std::fs::write(&out_path, &doc).expect("write run_report.json");
    println!(
        "\n[{} metrics across the registry; report written to {}]",
        reg.metric_count(),
        out_path.display()
    );
    ExitCode::SUCCESS
}
