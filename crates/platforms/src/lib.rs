//! `platforms` assembles the full evaluation testbed of the SmartDIMM
//! paper: an Nginx-like web server whose per-request memory traffic runs
//! through the real cache + DRAM simulators, with the ULP (TLS or
//! compression) executed on one of the four evaluated placements:
//!
//! * **CPU** — AES-NI / zlib software on the host cores,
//! * **SmartNIC** — autonomous inline kTLS (TLS only: non-size-preserving
//!   ULPs cannot be offloaded autonomously, §III Obs. 1),
//! * **QuickAssist** — a PCIe lookaside accelerator with per-call setup,
//!   DMA descriptor and notification costs,
//! * **SmartDIMM** — the CompCpy near-memory path from the `smartdimm`
//!   crate.
//!
//! [`server::run_server`] produces the requests-per-second, CPU
//! utilization and memory-bandwidth numbers behind Fig. 3, Fig. 11 and
//! Fig. 12; [`corun`] reproduces Table I; [`designspace`] renders the
//! qualitative Fig. 13 comparison.

//!
//! [`eventsim`] replaces the lock-step batches with a central event-queue
//! simulation for tail-latency studies: tens of thousands of closed-loop
//! connections with zipfian object popularity, connection churn, slow
//! clients, and pressure-aware admission control on the offload path.

pub mod corun;
pub mod designspace;
pub mod eventsim;
pub mod params;
pub mod server;

pub use dram::BackendKind;
pub use eventsim::{
    run_event_server, run_event_server_with_telemetry, AdmissionConfig, AdmissionPolicy,
    EventServerMetrics, EventWorkloadConfig,
};
pub use params::CostParams;
pub use server::{
    run_server, run_server_with_telemetry, ConfigError, PlatformKind, ServerMetrics, UlpKind,
    WorkloadConfig,
};
