//! The paper's headline claims, asserted as integration tests at
//! test-friendly scales. Each claim is the shape predicate the `figures
//! check` registry judges at full size (`bench::figures`), applied to
//! rows the same artifact functions build here on smaller sweeps.

use bench::figures::{model, net, offload, server};
use cache::CacheConfig;
use platforms::{PlatformKind, UlpKind, WorkloadConfig};
use smartdimm::{CompCpyHost, HostConfig};

/// CPU and SmartDIMM at 4 KB: 512 connections, 400 requests, 2 MB LLC.
fn contended(ulp: UlpKind) -> Vec<server::ServerRow> {
    let base = WorkloadConfig {
        connections: 512,
        requests: 400,
        ulp,
        llc: Some(CacheConfig::mb(2, 16)),
        ..WorkloadConfig::default()
    };
    server::sweep(
        &base,
        &[4096],
        &[PlatformKind::Cpu, PlatformKind::SmartDimm],
    )
}

/// §I: "SmartDIMM achieves 21.0% to 10.28× higher requests per second"
/// — SmartDIMM must beat the CPU for both ULPs, and compression gains
/// must dwarf TLS gains (AES-NI makes software crypto cheap).
#[test]
fn headline_rps_claims() {
    let tls = contended(UlpKind::Tls);
    let compression = contended(UlpKind::Compression);
    server::smartdimm_wins_tls(&tls).unwrap();
    server::smartdimm_wins_compression(&compression).unwrap();
    server::dwarfs_tls(&tls, &compression).unwrap();
}

/// §I: "36.3% to 88.9% lower memory bandwidth utilization" — SmartDIMM
/// moves less DRAM data per request than the CPU configuration.
#[test]
fn headline_memory_claims() {
    let tls = contended(UlpKind::Tls);
    let compression = contended(UlpKind::Compression);
    server::smartdimm_cuts_tls_dram(&tls).unwrap();
    server::saves_more_dram(&tls, &compression).unwrap();
}

/// Observation 1 / Figs. 2 and 13: the SmartNIC's benefit disappears
/// under packet drops.
#[test]
fn smartnic_benefit_fades_under_loss() {
    net::smartnic_loses_edge(&net::loss_check()).unwrap();
}

/// Observation 3 / Fig. 3: HTTPS inflates DRAM traffic vs HTTP as
/// connections scale.
#[test]
fn https_membw_amplification() {
    server::https_amplifies_dram(&server::membw_sweep(&[512], 400)).unwrap();
}

/// §VII-A: with the paper's 2048-page Scratchpad, Force-Recycle is never
/// needed; with a tiny Scratchpad it is — and correctness holds anyway.
#[test]
fn scratchpad_sizing_claim() {
    offload::only_below_2048(&offload::scratchpad_sweep(&[2048, 4], 12)).unwrap();
}

/// §IV-D: the rdCAS→wrCAS slack exceeds 1 µs (1600 DDR command cycles),
/// which is why the DSA needs no completion notification.
#[test]
fn slack_exceeds_one_microsecond() {
    offload::slack_exceeds_1us(&offload::slack(10)).unwrap();
}

/// §IV-C: at the paper's 3× over-provisioning, translation-table inserts
/// effectively never fail and rarely displace.
#[test]
fn cuckoo_sizing_claim() {
    model::cuckoo_sound_at_3x(&model::cuckoo_sweep(&[4096])).unwrap();
}

/// §IV-A: flushing a 4 KB buffer that is already in DRAM is ~50% faster
/// than flushing it out of the cache.
#[test]
fn flush_cost_asymmetry() {
    let mut host = CompCpyHost::new(HostConfig::default());
    let buf = host.alloc_pages(1);
    host.mem_mut().store(buf, &[1u8; 4096], 0);
    let cached = host.mem_mut().flush(buf, 4096);
    let uncached = host.mem_mut().flush(buf, 4096);
    assert!(uncached.cycles * 2 <= cached.cycles + uncached.cycles);
    assert!((uncached.cycles as f64) < 0.6 * cached.cycles as f64);
}
