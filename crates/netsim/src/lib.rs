//! `netsim` models the network path of the SmartDIMM evaluation: a
//! discrete-event TCP sender/receiver with configurable segment loss and
//! the autonomous-SmartNIC kTLS offload state machine of Pismenny et al.
//! (which the paper's Observation 1 and Fig. 2 are built on). Encryption is
//! billed as a cost per byte; no payload bytes are modelled.
//!
//! # Example
//!
//! ```
//! use netsim::tcp::{TcpConfig, simulate_transfer};
//!
//! let cfg = TcpConfig::default();           // lossless 100 GbE flow
//! let run = simulate_transfer(16 << 20, &cfg, |_ev| 0);
//! assert_eq!(run.delivered_bytes, 16 << 20);
//! assert!(run.goodput_gbps() > 1.0);
//! ```

#![forbid(unsafe_code)]

pub mod ktls;
pub mod tcp;
