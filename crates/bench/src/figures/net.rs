//! The kTLS flow artifacts: Fig. 2 (SmartNIC vs CPU under drops and
//! reordering, §III Observation 1) and Fig. 13 (the design-space matrix
//! with its loss cross-check).

use netsim::ktls::{run_encrypted_flow, EncryptedFlowReport, TlsPlacement};
use netsim::tcp::TcpConfig;
use platforms::PlatformKind::{Cpu, QuickAssist, SmartDimm, SmartNic};
use platforms::{designspace, UlpKind};

use super::{all, Run, Verdict};

/// One impairment rate of a Fig. 2 sweep: `(rate, CPU, SmartNIC)`.
pub type FlowRow = (f64, EncryptedFlowReport, EncryptedFlowReport);

/// Fig. 2's two sweeps: packet drops, and reordering without loss.
#[derive(Debug, Clone)]
pub struct Fig02 {
    pub drops: Vec<FlowRow>,
    pub reorder: Vec<FlowRow>,
}

/// The CPU and SmartNIC flows at each rate; `impair` sets one rate.
fn flows(rates: &[f64], impair: fn(f64) -> TcpConfig) -> Vec<FlowRow> {
    let flow = |rate, at| run_encrypted_flow(32 << 20, &impair(rate), at);
    let both = |&r: &f64| {
        (
            r,
            flow(r, TlsPlacement::cpu_default()),
            flow(r, TlsPlacement::smartnic_default()),
        )
    };
    rates.iter().map(both).collect()
}

/// Fig. 2: 32 MiB encrypted flows vs drops (seed 7) and vs reordering
/// (seed 8).
pub fn fig02() -> Run {
    let rows = Fig02 {
        drops: flows(
            &[0.0, 0.0005, 0.001, 0.002, 0.005, 0.01, 0.02],
            |loss_prob| TcpConfig {
                loss_prob,
                seed: 7,
                ..TcpConfig::default()
            },
        ),
        reorder: flows(&[0.0, 0.001, 0.005, 0.01, 0.02], |reorder_prob| TcpConfig {
            reorder_prob,
            seed: 8,
            ..TcpConfig::default()
        }),
    };
    let line = |(rate, cpu, nic): &FlowRow, last: String| {
        let (c, n, resyncs) = (cpu.goodput_gbps(), nic.goodput_gbps(), nic.resyncs);
        format!("{rate},{c:.4},{n:.4},{resyncs},{last}")
    };
    let fallback = |r: &FlowRow| line(r, format!("{:.4}", r.2.cpu_crypto_fraction()));
    let mut run = Run::csv(
        "Fig. 2 — encrypted-flow bandwidth vs packet drops (32 MiB transfer)",
        "fig02_smartnic_drops.csv",
        "drop_rate,cpu_gbps,smartnic_gbps,resyncs,nic_cpu_fraction",
        rows.drops.iter().map(fallback).collect(),
        (),
    );
    let reordered = |r: &FlowRow| line(r, r.2.tcp.reordered.to_string());
    let reorder = Run::csv(
        "Fig. 2 companion — bandwidth vs packet reordering (no loss)",
        "fig02b_smartnic_reorder.csv",
        "reorder_rate,cpu_gbps,smartnic_gbps,resyncs,reordered_segments",
        rows.reorder.iter().map(reordered).collect(),
        (),
    );
    run.table += &reorder.table;
    run.files.extend(reorder.files);
    run.rows = Box::new(rows);
    run
}

/// Observation 1: parity (within 5 %) at zero impairment, and the
/// SmartNIC strictly below the CPU at every nonzero drop or reorder rate.
pub fn smartnic_fades(rows: &Fig02) -> Verdict {
    all(
        rows.drops.iter().chain(&rows.reorder),
        |(rate, cpu, nic)| {
            let (c, n) = (cpu.goodput_gbps(), nic.goodput_gbps());
            if *rate == 0.0 {
                n >= 0.95 * c
            } else {
                n < c
            }
        },
    )
}

/// Fig. 13's cross-check of the matrix against the flow model: Gbps of
/// 8 MiB flows with and without 1 % loss.
#[derive(Debug, Clone)]
pub struct LossCheck {
    pub cpu_clean: f64,
    pub nic_clean: f64,
    pub cpu_lossy: f64,
    pub nic_lossy: f64,
    pub nic_takes_compression: bool,
}

/// Runs the CPU and SmartNIC flows with and without 1 % loss.
pub fn loss_check() -> LossCheck {
    let clean = TcpConfig::default();
    let lossy = TcpConfig {
        loss_prob: 0.01,
        ..clean
    };
    let gbps = |tcp: &TcpConfig, at| run_encrypted_flow(8 << 20, tcp, at).goodput_gbps();
    LossCheck {
        cpu_clean: gbps(&clean, TlsPlacement::cpu_default()),
        nic_clean: gbps(&clean, TlsPlacement::smartnic_default()),
        cpu_lossy: gbps(&lossy, TlsPlacement::cpu_default()),
        nic_lossy: gbps(&lossy, TlsPlacement::smartnic_default()),
        nic_takes_compression: SmartNic.supports(UlpKind::Compression),
    }
}

/// Fig. 13: the scored design-space matrix, cross-checked by
/// [`loss_check`].
pub fn fig13() -> Run {
    let scores = designspace::Criterion::ALL.iter().map(|&c| {
        let [cpu, nic, qat, dimm] =
            [Cpu, SmartNic, QuickAssist, SmartDimm].map(|k| designspace::score(k, c));
        format!("{},{cpu},{nic},{qat},{dimm}", c.label())
    });
    let check = loss_check();
    let mut run = Run::csv(
        "Fig. 13 — design-space scores (2 strong, 1 partial, 0 poor)",
        "fig13_design_space.csv",
        "criterion,cpu,smartnic,quickassist,smartdimm",
        scores.collect(),
        (),
    );
    run.table += &format!("check: {check:?}\n");
    run.rows = Box::new(check);
    run
}

/// The matrix's loss-resilience and diverse-ULP scores: the SmartNIC
/// keeps up (within 5 %) on a clean link, falls below the CPU under 1 %
/// loss, and rejects compression.
pub fn smartnic_loses_edge(c: &LossCheck) -> Verdict {
    let edge = |c: &&LossCheck| c.nic_clean >= 0.95 * c.cpu_clean && c.nic_lossy < c.cpu_lossy;
    all([c], |c| edge(c) && !c.nic_takes_compression)
}
