//! `dram` models a DDR4 memory subsystem at command granularity:
//! address mapping (with [`AddressMapper`] the one owner of the channel
//! split), per-bank state machines with DDR4-3200 timing
//! ([`Timing::DDR4_3200`]), an open-page memory controller that issues
//! every access in arrival order — no request queue, no FR-FCFS
//! reordering, no write batching, no tCCD — and, the piece SmartDIMM
//! needs, a [`BufferDevice`] hook on every DIMM through which on-module
//! logic observes ACT/PRE commands and *intercepts* rdCAS/wrCAS data.
//!
//! The SmartDIMM paper's entire mechanism lives in that interception
//! point: the buffer device substitutes Scratchpad data into write CAS
//! commands (Self-Recycle), substitutes computed results into read CAS
//! responses, ignores premature writebacks, and raises `ALERT_N` to make
//! the controller retry a read whose computation has not finished. The
//! default [`Passthrough`] buffer device does none of that, turning the
//! DIMM into a plain JEDEC module — requirement R2 of the paper.
//!
//! # Example
//!
//! ```
//! use dram::{MemorySystemConfig, DramSystem, PhysAddr};
//!
//! let mut sys = DramSystem::new(MemorySystemConfig::default());
//! let addr = PhysAddr(0x4000);
//! sys.write64(addr, &[7u8; 64]);
//! let (data, latency) = sys.read64(addr);
//! assert_eq!(data, [7u8; 64]);
//! assert!(latency > 0);
//! ```

#![forbid(unsafe_code)]

pub mod addr;
pub mod backend;
pub mod bank;
pub mod controller;
pub mod dimm;
pub mod timing;

pub use addr::{AddressMapper, DramTopology, Loc, PhysAddr, DSA_SLOT};
pub use backend::BackendKind;
pub use controller::{DramStats, DramSystem, MemorySystemConfig};
pub use dimm::{BufferDevice, CasInfo, Dimm, Passthrough, RdResult, WrResult};
pub use timing::Timing;

/// Bytes per DRAM burst / CPU cacheline.
pub const CACHELINE: usize = 64;
/// Bytes per OS page — the granularity of SmartDIMM registration.
pub const PAGE: usize = 4096;
