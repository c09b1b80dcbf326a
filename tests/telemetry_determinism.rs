//! Telemetry snapshots must be byte-identical across same-seed runs and
//! at any worker count — the property that makes
//! `results/run_report.json` diffable in review and lets CI compare
//! reports across machines. The wall-clock stamp in the `run_report/v1`
//! wrapper is deliberately outside the snapshot.

use cache::CacheConfig;
use netsim::ktls::{run_encrypted_flow, TlsPlacement};
use netsim::tcp::TcpConfig;
use platforms::{run_server_with_telemetry, PlatformKind, UlpKind, WorkloadConfig};
use simkit::telemetry::{Registry, Scope};

/// One independent whole simulation of the reduced report.
enum Entry {
    Server(PlatformKind, &'static str),
    KtlsFlow,
}

/// Runs one entry into its own scope and names where it mounts.
fn run_entry(entry: Entry) -> (String, Scope) {
    let mut scope = Scope::default();
    let path = match entry {
        Entry::Server(kind, name) => {
            let cfg = WorkloadConfig {
                message_bytes: 4096,
                connections: 16,
                requests: 64,
                ulp: UlpKind::Tls,
                llc: Some(CacheConfig::mb(2, 16)),
                ..WorkloadConfig::default()
            };
            run_server_with_telemetry(kind, &cfg, &mut scope);
            format!("server.{name}")
        }
        Entry::KtlsFlow => {
            let tcp = TcpConfig {
                loss_prob: 0.01,
                seed: 11,
                ..TcpConfig::default()
            };
            let report = run_encrypted_flow(1 << 20, &tcp, TlsPlacement::smartnic_default());
            report.export_telemetry(&mut scope);
            "netsim.ktls_smartnic".to_string()
        }
    };
    (path, scope)
}

/// Builds the same registry shape `run_report` uses, at a reduced scale:
/// the entries fan out over `workers` threads through
/// `simkit::par::run_indexed` and mount in input order.
fn build_registry(workers: usize) -> Registry {
    let entries = vec![
        Entry::Server(PlatformKind::Cpu, "https_cpu"),
        Entry::Server(PlatformKind::SmartDimm, "https_smartdimm"),
        Entry::KtlsFlow,
    ];
    let (scopes, _) = simkit::par::run_indexed(workers, entries, |_, e| run_entry(e));
    let mut reg = Registry::new();
    for (path, scope) in scopes {
        *reg.scope(&path) = scope;
    }
    reg
}

#[test]
fn same_seed_runs_snapshot_byte_identically() {
    // `run_report` fans its entries out over every available worker, so
    // the committed report also relies on the worker count never
    // reaching the snapshot.
    let a = build_registry(1).snapshot();
    for workers in [1, 2] {
        let b = build_registry(workers).snapshot();
        assert_eq!(
            a, b,
            "telemetry/v1 snapshots diverged between same-seed runs at 1 and {workers} worker(s)"
        );
    }
    assert!(a.contains("\"schema\": \"telemetry/v1\""));
    // The snapshot must never embed wall-clock metadata.
    assert!(!a.contains("generated_at_unix"));
}

#[test]
fn different_seed_changes_the_snapshot() {
    // Sanity check that the byte-compare above is not vacuous: perturbing
    // the TCP seed must actually move at least one rendered metric.
    let base = build_registry(1).snapshot();
    let mut reg = Registry::new();
    let tcp = TcpConfig {
        loss_prob: 0.01,
        seed: 12,
        ..TcpConfig::default()
    };
    let report = run_encrypted_flow(1 << 20, &tcp, TlsPlacement::smartnic_default());
    report.export_telemetry(reg.scope("netsim.ktls_smartnic"));
    let perturbed = reg.snapshot();
    let base_netsim = base
        .split("\"netsim\"")
        .nth(1)
        .expect("base snapshot has a netsim scope");
    assert!(!base_netsim.is_empty());
    assert_ne!(base, perturbed);
}
