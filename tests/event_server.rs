//! The event-driven harness's contract: deterministic tail-latency
//! simulation at high concurrency, admission control that fires only
//! above its pressure watermark, and goodput that degrades monotonically
//! with connection churn.

use cache::CacheConfig;
use platforms::{
    run_event_server, run_event_server_with_telemetry, AdmissionConfig, AdmissionPolicy,
    EventWorkloadConfig, PlatformKind, UlpKind,
};
use simkit::telemetry::Registry;

fn base(conns: usize, reqs: usize) -> EventWorkloadConfig {
    EventWorkloadConfig {
        connections: conns,
        requests: reqs,
        workers: 16,
        ulp: UlpKind::Tls,
        min_object_bytes: 2048,
        max_object_bytes: 8192,
        llc: Some(CacheConfig::mb(2, 16)),
        ..EventWorkloadConfig::default()
    }
}

/// A scratchpad-starved SmartDIMM config whose device pressure reliably
/// crosses mid-range watermarks.
fn pressured(policy: AdmissionPolicy, watermark: f64) -> EventWorkloadConfig {
    EventWorkloadConfig {
        scratchpad_pages: Some(48),
        admission: AdmissionConfig { policy, watermark },
        ..base(512, 700)
    }
}

#[test]
fn same_seed_snapshots_are_byte_identical() {
    let cfg = EventWorkloadConfig {
        churn_permille: 100,
        slow_client_permille: 50,
        ..base(2048, 900)
    };
    let render = || {
        let mut reg = Registry::new();
        run_event_server_with_telemetry(
            PlatformKind::SmartDimm,
            &cfg,
            reg.scope("eventsim.tls_smartdimm"),
        );
        reg.snapshot()
    };
    assert_eq!(render(), render());
}

#[test]
fn rejects_fire_only_above_the_watermark() {
    // Policy None never rejects, whatever the pressure.
    let none = run_event_server(
        PlatformKind::SmartDimm,
        &pressured(AdmissionPolicy::None, 0.0),
    );
    assert_eq!(none.admission_rejects, 0);
    assert_eq!(none.shed_requests, 0);
    assert!(
        none.max_pressure > 0.5,
        "starved scratchpad must pressure the device (saw {})",
        none.max_pressure
    );

    // An unreachable watermark (the scalar is capped at 1.0) never fires.
    let high = run_event_server(
        PlatformKind::SmartDimm,
        &pressured(AdmissionPolicy::Shed, 1.5),
    );
    assert_eq!(high.admission_rejects, 0);

    // A seeded sweep across watermarks: every reject's sampled pressure
    // exceeds the watermark it was judged against, and shedding conserves
    // requests.
    for watermark in [0.2, 0.5, 0.8] {
        let m = run_event_server(
            PlatformKind::SmartDimm,
            &pressured(AdmissionPolicy::Shed, watermark),
        );
        assert!(
            m.admission_rejects > 0,
            "watermark {watermark}: pressured device must reject"
        );
        assert_eq!(m.admission_rejects, m.shed_requests);
        assert!(
            m.min_pressure_at_reject > watermark,
            "watermark {watermark}: reject at pressure {}",
            m.min_pressure_at_reject
        );
        assert_eq!(m.issued_requests, m.completed_requests + m.shed_requests);
    }
}

#[test]
fn cpu_fallback_serves_instead_of_shedding() {
    let m = run_event_server(
        PlatformKind::SmartDimm,
        &pressured(AdmissionPolicy::CpuFallback, 0.5),
    );
    assert!(
        m.fallback_under_pressure > 0,
        "pressure must trigger fallback"
    );
    assert_eq!(m.admission_rejects, m.fallback_under_pressure);
    assert_eq!(m.shed_requests, 0);
    // Every issued request still completes — fallback trades latency for
    // availability.
    assert_eq!(m.issued_requests, m.completed_requests);
}

#[test]
fn goodput_is_monotone_non_increasing_in_churn() {
    // Per-connection request budgets fix the issued set, and churn coins
    // are hash-derived per (connection, request), so raising the churn
    // rate delays a superset of requests: delivered bytes stay constant
    // while the makespan stretches.
    let mut prev: Option<(u64, f64)> = None;
    for churn in [0u64, 150, 400, 800] {
        let cfg = EventWorkloadConfig {
            churn_permille: churn,
            think_time_ns: 10_000,
            ..base(256, 800)
        };
        let m = run_event_server(PlatformKind::Cpu, &cfg);
        assert_eq!(m.completed_requests, 800);
        if let Some((bytes, goodput)) = prev {
            assert_eq!(
                m.delivered_bytes, bytes,
                "churn must not change which bytes are served"
            );
            assert!(
                m.goodput_gbps <= goodput,
                "churn {churn}: goodput rose {} -> {}",
                goodput,
                m.goodput_gbps
            );
        }
        prev = Some((m.delivered_bytes, m.goodput_gbps));
    }
}

#[test]
fn fault_injected_fallback_run_holds_invariants() {
    // Faults on the device path plus admission fallback: the run must
    // stay deterministic, conserve requests, and actually exercise both
    // the fault oracle and the fallback path.
    let cfg = EventWorkloadConfig {
        fault_seed: Some(11),
        churn_permille: 100,
        ..pressured(AdmissionPolicy::CpuFallback, 0.5)
    };
    let a = run_event_server(PlatformKind::SmartDimm, &cfg);
    let b = run_event_server(PlatformKind::SmartDimm, &cfg);
    assert_eq!(a, b, "fault-injected run diverged across same-seed runs");
    assert!(a.fallback_under_pressure > 0);
    assert_eq!(a.issued_requests, a.completed_requests + a.shed_requests);
    assert!(a.completed_requests > 0);
    assert!(a.goodput_gbps > 0.0 && a.goodput_gbps.is_finite());
}

#[test]
fn ten_thousand_connections_resolve_p999_on_the_fast_backend() {
    // The acceptance-scale workload: >10k logical zipfian connections on
    // the tier-1 backend, enough completions to resolve p999.
    let cfg = EventWorkloadConfig {
        connections: 10_240,
        requests: 1100,
        workers: 64,
        ..base(0, 0)
    };
    let m = run_event_server(PlatformKind::SmartDimm, &cfg);
    assert_eq!(m.completed_requests, 1100);
    assert!(m.p999_resolvable, "1100 samples resolve p999");
    assert!(m.p50_ns > 0);
    assert!(m.p999_ns >= m.p99_ns && m.p99_ns >= m.p50_ns);
}
