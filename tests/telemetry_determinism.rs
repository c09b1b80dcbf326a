//! The run report must be byte-identical across same-seed runs and at
//! any worker count — the property that makes `results/run_report.json`
//! diffable in review and lets `figures check` compare it byte for
//! byte. These tests render the report through the registry's own
//! `bench::figures::report::render` on three of its entries.

use bench::figures::report::{render, Entry};
use cache::CacheConfig;
use netsim::ktls::TlsPlacement;
use netsim::tcp::TcpConfig;
use platforms::{PlatformKind, UlpKind, WorkloadConfig};

/// Two HTTPS servers (16 connections, 64 requests) and one lossy 1 MB
/// kTLS flow with TCP seed `tcp_seed`.
fn entries(tcp_seed: u64) -> Vec<Entry> {
    let cfg = WorkloadConfig {
        message_bytes: 4096,
        connections: 16,
        requests: 64,
        ulp: UlpKind::Tls,
        llc: Some(CacheConfig::mb(2, 16)),
        ..WorkloadConfig::default()
    };
    let server = |kind, name: &str| Entry::Server {
        kind,
        cfg: cfg.clone(),
        path: format!("server.{name}"),
        label: name.to_string(),
    };
    vec![
        server(PlatformKind::Cpu, "https_cpu"),
        server(PlatformKind::SmartDimm, "https_smartdimm"),
        Entry::Flow {
            placement: TlsPlacement::smartnic_default(),
            tcp: TcpConfig {
                loss_prob: 0.01,
                seed: tcp_seed,
                ..TcpConfig::default()
            },
            transfer_bytes: 1 << 20,
            path: "netsim.ktls_smartnic".to_string(),
            label: "ktls_smartnic".to_string(),
        },
    ]
}

#[test]
fn same_seed_runs_snapshot_byte_identically() {
    // `figures` renders the report on every available worker, so the
    // committed document — wrapper included — must not depend on the
    // worker count.
    let (a, _) = render(entries(11), 1);
    for workers in [1, 2] {
        let (b, _) = render(entries(11), workers);
        assert_eq!(
            a, b,
            "run_report/v1 documents diverged between same-seed runs at 1 and {workers} worker(s)"
        );
    }
    assert!(bench::harness::json_parses(&a), "{a}");
    assert!(a.contains("\"schema\": \"run_report/v1\""));
    assert!(a.contains("\"schema\": \"telemetry/v1\""));
}

#[test]
fn different_seed_changes_the_snapshot() {
    // Sanity check that the byte-compare above is not vacuous: perturbing
    // the TCP seed must actually move at least one rendered metric. The
    // kTLS flow alone carries the seed.
    let flow_only = |seed| render(entries(seed).split_off(2), 1).0;
    let base = flow_only(11);
    assert!(base.contains("\"ktls_smartnic\""));
    assert_ne!(base, flow_only(12));
}
