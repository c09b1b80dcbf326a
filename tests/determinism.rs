//! Reproducibility: every simulator in the workspace must be exactly
//! deterministic given its seeds — the property that makes the
//! experiment results in `results/` reproducible.

use cache::CacheConfig;
use netsim::tcp::{simulate_transfer, TcpConfig};
use platforms::{
    run_event_server_with_telemetry, run_server, run_server_with_telemetry, EventWorkloadConfig,
    PlatformKind, UlpKind, WorkloadConfig,
};
use simkit::par::with_helper_budget;
use simkit::telemetry::Registry;
use smartdimm::{CompCpyHost, HostConfig, OffloadOp};

/// Four channels at 1-line interleave: every TLS record stripes across
/// all shards, so each runs a partial engine the host combines.
fn tls_fine4() -> WorkloadConfig {
    WorkloadConfig {
        message_bytes: 4096,
        connections: 16,
        requests: 64,
        ulp: UlpKind::Tls,
        llc: Some(CacheConfig::mb(2, 16)),
        channels: 4,
        channel_interleave_lines: 1,
        ..WorkloadConfig::default()
    }
}

/// One SmartDIMM server run: its metrics and its rendered snapshot.
fn smartdimm_run(cfg: &WorkloadConfig) -> (platforms::ServerMetrics, String) {
    let mut reg = Registry::new();
    let m = run_server_with_telemetry(PlatformKind::SmartDimm, cfg, reg.scope("server"));
    (m, reg.snapshot())
}

#[test]
fn compcpy_stack_is_deterministic() {
    let run = || {
        let mut host = CompCpyHost::new(HostConfig::default());
        let key = [1u8; 16];
        let mut trace = Vec::new();
        for i in 0..8u64 {
            let src = host.alloc_pages(1);
            let dst = host.alloc_pages(1);
            host.mem_mut()
                .store(src, &ulp_compress::corpus::html(4096, i), 0);
            let iv = [i as u8; 12];
            let handle = host
                .comp_cpy(dst, src, 4096, OffloadOp::TlsEncrypt { key, iv }, false, 0)
                .unwrap();
            let out = host.use_buffer(&handle);
            trace.push((host.mem().now().raw(), out[0], out[4095]));
        }
        (trace, host.device_stats())
    };
    assert_eq!(run(), run());
}

/// The deflate DSA's page kernel runs ahead on a helper thread when
/// one is allowed; the devices take its output only for byte-identical
/// pages, so both harnesses' snapshots match the inline runs exactly.
#[test]
fn deflate_snapshots_match_with_and_without_the_page_lookahead() {
    for seed in 1..=3 {
        let lock_step = WorkloadConfig {
            message_bytes: 8192,
            connections: 16,
            requests: 64,
            ulp: UlpKind::Compression,
            llc: Some(CacheConfig::mb(2, 16)),
            channels: 2,
            channel_interleave_lines: 64,
            seed,
            ..WorkloadConfig::default()
        };
        let run = |budget| with_helper_budget(budget, || smartdimm_run(&lock_step).1);
        assert_eq!(run(1), run(0), "lock-step, seed {seed}");

        let event = EventWorkloadConfig {
            connections: 64,
            requests: 160,
            ulp: UlpKind::Compression,
            min_object_bytes: 1024,
            max_object_bytes: 8192,
            llc: Some(CacheConfig::mb(2, 16)),
            seed,
            ..EventWorkloadConfig::default()
        };
        let run = |budget| {
            with_helper_budget(budget, || {
                let mut reg = Registry::new();
                run_event_server_with_telemetry(PlatformKind::SmartDimm, &event, reg.scope("e"));
                reg.snapshot()
            })
        };
        assert_eq!(run(1), run(0), "event, seed {seed}");
    }
}

#[test]
fn tcp_flows_are_deterministic() {
    let cfg = TcpConfig {
        loss_prob: 0.01,
        seed: 123,
        ..TcpConfig::default()
    };
    let a = simulate_transfer(2 << 20, &cfg, |_| 0);
    let b = simulate_transfer(2 << 20, &cfg, |_| 0);
    assert_eq!(a, b);
}

#[test]
fn server_harness_is_deterministic() {
    let one_channel = WorkloadConfig {
        message_bytes: 4096,
        connections: 64,
        requests: 150,
        ulp: UlpKind::Compression,
        llc: Some(CacheConfig::mb(1, 16)),
        ..WorkloadConfig::default()
    };
    // Coarse interleave pins whole deflate pages to one of 4 channels.
    let deflate_coarse4 = WorkloadConfig {
        ulp: UlpKind::Compression,
        channel_interleave_lines: 64,
        ..tls_fine4()
    };
    for cfg in [one_channel, tls_fine4(), deflate_coarse4] {
        let (a, snap_a) = smartdimm_run(&cfg);
        let (b, snap_b) = smartdimm_run(&cfg);
        assert_eq!(a, b);
        assert_eq!(
            snap_a, snap_b,
            "{:?} on {} channels: snapshots diverged",
            cfg.ulp, cfg.channels
        );
    }
}

#[test]
fn fault_injected_server_runs_are_deterministic() {
    // The fault-injection subsystem must not cost reproducibility: the
    // same fault seed yields the identical metrics, for both ULPs.
    for ulp in [UlpKind::Tls, UlpKind::Compression] {
        let cfg = WorkloadConfig {
            message_bytes: 4096,
            connections: 32,
            requests: 80,
            ulp,
            llc: Some(CacheConfig::mb(1, 16)),
            fault_seed: Some(29),
            ..WorkloadConfig::default()
        };
        let a = run_server(PlatformKind::SmartDimm, &cfg);
        let b = run_server(PlatformKind::SmartDimm, &cfg);
        assert_eq!(a, b, "fault-injected {ulp:?} run diverged between replays");
    }
}

#[test]
fn fault_injected_oracle_traces_are_deterministic() {
    use simkit::FaultPlan;
    use smartdimm::FaultOracle;
    let run = |seed: u64| {
        let plan = FaultPlan::generate(seed, 4);
        let mut oracle = FaultOracle::new(HostConfig::default(), plan);
        let key = [9u8; 16];
        for i in 0..4u64 {
            let msg = ulp_compress::corpus::text(3000 + i as usize * 100, seed ^ i);
            let iv = [i as u8; 12];
            oracle.check(OffloadOp::TlsEncrypt { key, iv }, &msg, b"rec");
        }
        let mut trace = oracle.fired_log();
        trace.extend(oracle.recoveries().iter().map(|r| format!("{r:?}")));
        trace.push(format!("{:?}", oracle.host().device_stats()));
        trace
    };
    for seed in [3u64, 21, 58] {
        assert_eq!(
            run(seed),
            run(seed),
            "oracle trace diverged for seed {seed}"
        );
    }
}

#[test]
fn seeds_actually_matter() {
    let base = TcpConfig {
        loss_prob: 0.02,
        seed: 1,
        ..TcpConfig::default()
    };
    let other = TcpConfig { seed: 2, ..base };
    let a = simulate_transfer(2 << 20, &base, |_| 0);
    let b = simulate_transfer(2 << 20, &other, |_| 0);
    assert_ne!(a, b, "different seeds must give different loss patterns");
    // The server harness too: a different connection-scheduling seed
    // must move the 4-channel snapshot, or the repeat checks above
    // would be vacuous.
    let perturbed = WorkloadConfig {
        seed: 2,
        ..tls_fine4()
    };
    assert_ne!(
        smartdimm_run(&tls_fine4()).1,
        smartdimm_run(&perturbed).1,
        "seed perturbation left the snapshot unchanged"
    );
}
