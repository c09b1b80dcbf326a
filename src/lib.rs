//! `smartdimm-suite` is the workspace umbrella crate: it hosts the
//! runnable examples (`examples/`) and the cross-crate integration tests
//! (`tests/`) for the SmartDIMM reproduction.
//!
//! The library surface re-exports the workspace's entry points so the
//! examples and downstream users need a single dependency:
//!
//! ```
//! use smartdimm_suite::prelude::*;
//!
//! let mut host = CompCpyHost::new(HostConfig::default());
//! let src = host.alloc_pages(1);
//! let dst = host.alloc_pages(1);
//! host.mem_mut().store(src, &[0x5A; 4096], 0);
//! let handle = host
//!     .comp_cpy(dst, src, 4096, OffloadOp::Compress, true, 0)
//!     .expect("offload accepted");
//! let compressed = host.use_buffer(&handle);
//! assert!(ulp_compress::inflate::decompress(&compressed).is_ok());
//! ```

#![forbid(unsafe_code)]

/// One-stop imports for examples and integration tests.
pub mod prelude {
    pub use platforms::{run_server, PlatformKind, ServerMetrics, UlpKind, WorkloadConfig};
    pub use smartdimm::{
        AdaptivePolicy, CompCpyHost, HostConfig, OffloadHandle, OffloadOp, Placement,
    };
}
