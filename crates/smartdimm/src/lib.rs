//! `smartdimm` implements the paper's contribution: a near-memory
//! processing architecture on the buffer device of a DIMM, plus the
//! CompCpy software API that drives it.
//!
//! The hardware side ([`SmartDimmDevice`]) plugs into a simulated DIMM
//! (`dram::BufferDevice`) and implements the arbiter flowchart of Fig. 6:
//!
//! * a **Bank Table** tracking the active row per bank (updated by
//!   RAS/PRE commands),
//! * an **Addr Remap** step reconstructing physical addresses from
//!   `(row, BG, BA, col)`,
//! * a **Translation Table** — a 3-ary cuckoo hash sized 3× (12 K
//!   entries, < 33 % occupancy) with an 8-entry CAM stash — mapping
//!   physical pages to Scratchpad / Config Memory state,
//! * a **Scratchpad** (8 MB, 2048 × 4 KB pages) holding DSA results until
//!   LLC writebacks recycle them (**Self-Recycle**) or software forces
//!   them out (**Force-Recycle**),
//! * **Config Memory** holding per-offload contexts and result slots,
//!   mapped into every channel's physical address space by the one
//!   [`configmem::ConfigWindow`] that host and device share,
//! * two **DSAs**: AES-GCM TLS (out-of-order cachelines via precomputed
//!   powers of H) and Deflate compression (the `ulp-compress` hardware
//!   model).
//!
//! The software side ([`CompCpyHost`]) implements Algorithm 2: scratchpad
//! space tracking under a lock, lazy `freePages` refresh over MMIO,
//! Force-Recycle (Algorithm 1), source-buffer flush, page registration,
//! the ordered/unordered copy loop, and the `USE` step.
//!
//! # Example
//!
//! ```
//! use smartdimm::{CompCpyHost, HostConfig, OffloadOp};
//!
//! let mut host = CompCpyHost::new(HostConfig::default());
//! let src = host.alloc_pages(1);
//! let dst = host.alloc_pages(1);
//!
//! // Put a plaintext page in memory.
//! let msg = vec![0x5A; 4096];
//! host.mem_mut().store(src, &msg, 0);
//!
//! // Offload TLS encryption to the DIMM.
//! let key = [7u8; 16];
//! let iv = [9u8; 12];
//! let handle = host
//!     .comp_cpy(dst, src, msg.len(), OffloadOp::TlsEncrypt { key, iv }, false, 0)
//!     .expect("offload accepted");
//! let ciphertext = host.use_buffer(&handle);
//!
//! // The DIMM produced exactly what software AES-GCM would.
//! let gcm = ulp_crypto::gcm::AesGcm::new_128(&key);
//! let (want, tag) = gcm.seal(&iv, b"", &msg);
//! assert_eq!(ciphertext, want);
//! assert_eq!(host.tag(&handle), Some(tag));
//! ```

#![forbid(unsafe_code)]

pub mod areapower;
pub mod banktable;
pub mod compcpy;
pub mod configmem;
pub mod device;
pub mod dsa;
pub mod oracle;
pub mod policy;
pub mod sched;
pub mod scratchpad;
pub mod xlat;

pub use compcpy::{CompCpyError, CompCpyHost, HostConfig, OffloadHandle, QueuePressure};
pub use device::{DeviceStats, SmartDimmConfig, SmartDimmDevice};
pub use dsa::OffloadOp;
pub use oracle::{FaultOracle, Recovery, ScenarioOutcome};
pub use policy::{AdaptivePolicy, Placement};
pub use sched::{PlacementPolicy, SchedConfig, SchedStats};

/// OS page size — the registration granularity (§IV-A).
pub const PAGE: usize = 4096;
/// Cachelines per page.
pub const LINES_PER_PAGE: usize = PAGE / 64;
