//! An HTTPS web-server scenario: compare the four accelerator placements
//! of the paper on the same TLS workload and print a Fig. 11-style
//! summary.
//!
//! Run with: `cargo run --release --example https_server`

use cache::CacheConfig;
use platforms::{run_server, PlatformKind, UlpKind, WorkloadConfig};

fn main() {
    // The paper's comparison: where should the TLS work run?
    let cfg = WorkloadConfig {
        message_bytes: 4096,
        connections: 512,
        requests: 800,
        ulp: UlpKind::Tls,
        llc: Some(CacheConfig::mb(2, 16)), // contended-LLC regime
        ..WorkloadConfig::default()
    };
    println!("HTTPS server, 4KB responses, 512 connections, contended LLC:");
    println!(
        "{:>12} {:>12} {:>10} {:>14}",
        "platform", "RPS", "CPU ns/req", "DRAM bytes/req"
    );
    for kind in [
        PlatformKind::Cpu,
        PlatformKind::SmartNic,
        PlatformKind::QuickAssist,
        PlatformKind::SmartDimm,
    ] {
        let m = run_server(kind, &cfg);
        println!(
            "{:>12} {:>12.0} {:>10.0} {:>14.0}",
            format!("{kind:?}"),
            m.rps,
            m.cpu_ns_per_req,
            m.dram_bytes_per_req
        );
    }
}
