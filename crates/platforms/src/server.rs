//! The Nginx-like server harness (§VI).
//!
//! Reproduces the paper's testbed: a web server with `workers` threads
//! serving `message_bytes` responses over `connections` persistent
//! connections, with the ULP executed on one of the four placements.
//!
//! Every request's memory traffic — page-cache reads, record-buffer
//! writes, socket copies, DMA — runs through the real LLC + DDR4
//! simulators, so cache thrashing with rising connection counts (Fig. 3)
//! and the memory-bandwidth differences between placements (Fig. 11/12)
//! *emerge* from the model rather than being assumed. Pure compute
//! (AES-NI, zlib, PCIe latencies) is charged from [`CostParams`].
//!
//! **Why phases are batched.** An event-driven server multiplexes many
//! connections per worker: between producing a response (ULP) and writing
//! it to the socket, the worker handles other connections' events, and
//! between the socket write and the NIC's DMA the data sits in the send
//! queue. That *asynchrony* is what pushes buffers out of the LLC — the
//! paper's "ping-pong access pattern" (Fig. 1). The harness models it by
//! running each pipeline stage over a batch of in-flight requests before
//! moving to the next stage, giving buffers realistic reuse distances.
//! Aggregate throughput is then scaled to the worker pool:
//! `RPS = min(workers/avg_latency, link, accelerator)`.

use cache::CacheConfig;
use dram::{BackendKind, PhysAddr};
use memsys::MemSystem;
use simkit::DetRng;
use smartdimm::{CompCpyHost, HostConfig, OffloadHandle, OffloadOp};
use ulp_compress::corpus;
use ulp_crypto::gcm::AesGcm;

use crate::params::CostParams;

/// Which ULP the server applies to each response.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum UlpKind {
    /// Plain HTTP (sendfile): no transformation — the Fig. 3 baseline.
    None,
    /// TLS AES-128-GCM encryption (HTTPS).
    Tls,
    /// Deflate compression (Content-Encoding: deflate).
    Compression,
}

/// Accelerator placement under test.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PlatformKind {
    /// ULP in software on the host cores.
    Cpu,
    /// Autonomous inline NIC offload (TLS only).
    SmartNic,
    /// PCIe lookaside accelerator.
    QuickAssist,
    /// Near-memory CompCpy offload.
    SmartDimm,
}

impl PlatformKind {
    /// Whether this placement can run the given ULP (§III Obs. 1: the
    /// SmartNIC cannot offload non-size-preserving transforms).
    pub fn supports(&self, ulp: UlpKind) -> bool {
        !(matches!(self, PlatformKind::SmartNic) && matches!(ulp, UlpKind::Compression))
    }
}

/// Workload description.
#[derive(Debug, Clone)]
pub struct WorkloadConfig {
    /// Response size in bytes (the paper sweeps 4 KB / 16 KB / 64 KB).
    pub message_bytes: usize,
    /// Concurrent persistent connections (wrk uses 1024; max 2048).
    pub connections: usize,
    /// Server worker threads (the paper uses 10).
    pub workers: usize,
    /// The ULP under test.
    pub ulp: UlpKind,
    /// Measured requests (after an automatic warmup).
    pub requests: usize,
    /// Content generator for response bodies.
    pub corpus: corpus::Kind,
    /// LLC geometry override (default 16 MB / 16-way).
    pub llc: Option<CacheConfig>,
    /// Cost constants.
    pub costs: CostParams,
    /// RNG seed (connection scheduling).
    pub seed: u64,
    /// When set, a deterministic [`simkit::FaultPlan`] generated from this
    /// seed is installed on the SmartDIMM host (tests only).
    pub fault_seed: Option<u64>,
    /// Memory channels, each backed by its own SmartDIMM shard (§V-D).
    /// The connection arenas spread across channels by address, so
    /// workers shard naturally: with coarse interleave each connection's
    /// buffers pin to one shard, with fine interleave every offload
    /// stripes across all of them.
    pub channels: usize,
    /// Consecutive cachelines per channel before the mapping switches
    /// (§V-D interleave granularity; 64 = page-granular/coarse).
    pub channel_interleave_lines: usize,
    /// DIMMs per channel (scale-out topology). Only slot 0 of each
    /// channel carries the buffer device; sources landing on the
    /// capacity DIMMs are re-homed by the offload scheduler.
    pub dimms_per_channel: usize,
    /// CPU sockets; `channels` must split evenly across them. Channels
    /// on non-home sockets pay the interconnect penalty per CAS.
    pub sockets: usize,
    /// Extra cycles a CAS to a remote-socket channel pays.
    pub interconnect_penalty_cycles: u64,
    /// Offload placement policy (see [`smartdimm::sched`]).
    pub placement: smartdimm::PlacementPolicy,
    /// Memory-backend fidelity tier (default cycle-accurate). The fast
    /// queue model is functionally identical by contract — the
    /// differential harness pins it — and trades timing fidelity for
    /// wall-clock speed on long sweeps.
    pub backend: BackendKind,
    /// No effect: DSA feeds compute inline at CAS time, so there is no
    /// shard-settle pool to size. Kept for existing callers.
    pub threads: usize,
}

/// A degenerate harness configuration, caught by
/// [`WorkloadConfig::validate`] or
/// [`EventWorkloadConfig::validate`](crate::eventsim::EventWorkloadConfig::validate).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ConfigError {
    /// `workers == 0`: the per-worker batch split would divide by zero.
    ZeroWorkers,
    /// `connections == 0`: nothing to serve.
    ZeroConnections,
    /// `connections` exceeds the lock-step harness's arena limit (the
    /// staggered buffer regions overlap past 1024 connections; the
    /// event-driven harness in [`crate::eventsim`] multiplexes larger
    /// connection counts over a bounded arena pool instead).
    TooManyConnections(usize),
    /// `requests == 0`: nothing to measure.
    ZeroRequests,
    /// `message_bytes` is zero or exceeds the 64 KB record limit.
    BadMessageSize(usize),
    /// `objects == 0`.
    ZeroObjects,
    /// Object size range empty, zero, or above the 64 KB record limit.
    BadObjectSizes(usize, usize),
    /// `channels == 0`: at least one memory channel is required.
    ZeroChannels,
    /// `dimms_per_channel == 0`.
    ZeroDimms,
    /// `sockets` is zero or does not divide `channels` evenly.
    BadSockets(usize, usize),
    /// `channel_interleave_lines` is not a power of two (0 included).
    BadInterleave(usize),
    /// `churn_permille` or `slow_client_permille` above 1000.
    BadPermille(u64),
    /// `inflight_window == 0`.
    ZeroWindow,
    /// `scratchpad_pages == Some(0)`: a Scratchpad needs at least one
    /// page.
    ZeroScratchpad,
    /// `llc` geometry that [`cache::Llc::new`] would reject; carries the
    /// rule [`CacheConfig::validate`] names.
    BadLlc(&'static str),
}

impl std::fmt::Display for ConfigError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ConfigError::ZeroWorkers => {
                write!(
                    f,
                    "workers must be >= 1 (a zero-worker pool serves nothing)"
                )
            }
            ConfigError::ZeroConnections => write!(f, "connections must be >= 1"),
            ConfigError::TooManyConnections(n) => {
                write!(
                    f,
                    "{n} connections exceeds the lock-step arena limit of 1024; \
                     use the event-driven harness (eventsim) for larger counts"
                )
            }
            ConfigError::ZeroRequests => write!(f, "requests must be >= 1"),
            ConfigError::BadMessageSize(n) => {
                write!(f, "message_bytes {n} outside 1..=65536")
            }
            ConfigError::ZeroObjects => write!(f, "objects must be >= 1"),
            ConfigError::BadObjectSizes(lo, hi) => {
                write!(f, "object sizes {lo}..={hi} outside 1..=65536 or empty")
            }
            ConfigError::ZeroChannels => write!(f, "at least one memory channel"),
            ConfigError::ZeroDimms => write!(f, "at least one DIMM per channel"),
            ConfigError::BadSockets(ch, so) => {
                write!(f, "{ch} channels cannot split evenly across {so} sockets")
            }
            ConfigError::BadInterleave(n) => {
                write!(f, "channel interleave of {n} lines is not a power of two")
            }
            ConfigError::BadPermille(v) => write!(f, "permille {v} above 1000"),
            ConfigError::ZeroWindow => write!(f, "inflight_window must be >= 1"),
            ConfigError::ZeroScratchpad => write!(f, "scratchpad_pages must be >= 1"),
            ConfigError::BadLlc(why) => write!(f, "bad LLC config: {why}"),
        }
    }
}

impl std::error::Error for ConfigError {}

/// The topology checks both harnesses share.
pub(crate) fn validate_topology(
    channels: usize,
    dimms_per_channel: usize,
    sockets: usize,
    channel_interleave_lines: usize,
) -> Result<(), ConfigError> {
    if channels == 0 {
        return Err(ConfigError::ZeroChannels);
    }
    if dimms_per_channel == 0 {
        return Err(ConfigError::ZeroDimms);
    }
    if sockets == 0 || !channels.is_multiple_of(sockets) {
        return Err(ConfigError::BadSockets(channels, sockets));
    }
    if !channel_interleave_lines.is_power_of_two() {
        return Err(ConfigError::BadInterleave(channel_interleave_lines));
    }
    Ok(())
}

impl WorkloadConfig {
    /// Validates the configuration, returning the first degeneracy found.
    /// [`run_server`] calls this up front and panics with the rendered
    /// error, so a `workers: 0` misconfiguration fails with a message
    /// instead of a divide-by-zero deep inside the batch split.
    pub fn validate(&self) -> Result<(), ConfigError> {
        if self.message_bytes == 0 || self.message_bytes > 65536 {
            return Err(ConfigError::BadMessageSize(self.message_bytes));
        }
        if self.workers == 0 {
            return Err(ConfigError::ZeroWorkers);
        }
        if self.connections == 0 {
            return Err(ConfigError::ZeroConnections);
        }
        if self.connections > 1024 {
            return Err(ConfigError::TooManyConnections(self.connections));
        }
        if self.requests == 0 {
            return Err(ConfigError::ZeroRequests);
        }
        if let Some(llc) = self.llc {
            llc.validate().map_err(ConfigError::BadLlc)?;
        }
        validate_topology(
            self.channels,
            self.dimms_per_channel,
            self.sockets,
            self.channel_interleave_lines,
        )
    }

    /// The simulated machine this workload runs on: LLC, DRAM backend,
    /// topology and placement policy mapped onto a [`HostConfig`].
    pub(crate) fn host_config(&self) -> HostConfig {
        let mut host_cfg = HostConfig::default();
        host_cfg.mem.llc = self.llc;
        host_cfg.mem.backend = self.backend;
        let topo = &mut host_cfg.mem.dram.topology;
        topo.channels = self.channels;
        topo.channel_interleave_lines = self.channel_interleave_lines;
        topo.dimms_per_channel = self.dimms_per_channel;
        topo.sockets = self.sockets;
        host_cfg.mem.dram.interconnect_penalty_cycles = self.interconnect_penalty_cycles;
        host_cfg.sched.policy = self.placement;
        host_cfg
    }

    /// Builds the host from `host_cfg` and installs this workload's
    /// fault plan, if it has one.
    pub(crate) fn build_host(&self, host_cfg: HostConfig) -> CompCpyHost {
        let mut host = CompCpyHost::new(host_cfg);
        if let Some(fault_seed) = self.fault_seed {
            let plan = simkit::FaultPlan::generate(fault_seed, self.requests as u64);
            host.set_fault_handle(simkit::FaultHandle::new(plan));
        }
        host
    }
}

impl Default for WorkloadConfig {
    fn default() -> Self {
        WorkloadConfig {
            message_bytes: 4096,
            connections: 1024,
            workers: 10,
            ulp: UlpKind::Tls,
            requests: 2000,
            corpus: corpus::Kind::Html,
            llc: None,
            costs: CostParams::default(),
            seed: 1,
            fault_seed: None,
            channels: 1,
            channel_interleave_lines: 1,
            dimms_per_channel: 1,
            sockets: 1,
            interconnect_penalty_cycles: 0,
            placement: smartdimm::PlacementPolicy::Static,
            backend: BackendKind::default(),
            threads: 0,
        }
    }
}

/// Measured server metrics.
#[derive(Debug, Clone, PartialEq)]
pub struct ServerMetrics {
    /// Requests per second across all workers.
    pub rps: f64,
    /// CPU utilization (0–1 across the worker pool).
    pub cpu_utilization: f64,
    /// DRAM bandwidth in bytes/second.
    pub mem_bw_bytes: f64,
    /// DRAM bytes moved per request.
    pub dram_bytes_per_req: f64,
    /// Mean request service latency (ns).
    pub avg_request_ns: f64,
    /// CPU busy time per request (ns).
    pub cpu_ns_per_req: f64,
    /// Bytes put on the wire per request.
    pub wire_bytes_per_req: f64,
    /// LLC miss rate over the measurement window.
    pub llc_miss_rate: f64,
    /// Force-Recycle invocations during the measurement (SmartDIMM).
    pub force_recycles: u64,
}

impl ServerMetrics {
    /// Memory bandwidth in GB/s.
    pub fn mem_bw_gbs(&self) -> f64 {
        self.mem_bw_bytes / 1e9
    }

    /// Registers the harness metrics under `scope` for a `telemetry/v1`
    /// snapshot.
    pub fn export_telemetry(&self, scope: &mut simkit::telemetry::Scope) {
        scope.set_gauge("rps", self.rps);
        scope.set_gauge("cpu_utilization", self.cpu_utilization);
        scope.set_gauge("mem_bw_bytes", self.mem_bw_bytes);
        scope.set_gauge("dram_bytes_per_req", self.dram_bytes_per_req);
        scope.set_gauge("avg_request_ns", self.avg_request_ns);
        scope.set_gauge("cpu_ns_per_req", self.cpu_ns_per_req);
        scope.set_gauge("wire_bytes_per_req", self.wire_bytes_per_req);
        scope.set_gauge("llc_miss_rate", self.llc_miss_rate);
        scope.set_counter("force_recycles", self.force_recycles);
    }
}

// Buffer arenas. The per-connection stride is an *odd* number of pages
// and the three regions are staggered, so buffers spread across LLC sets
// the way a real page allocator's scattered physical pages would — a
// power-of-two layout would alias every buffer into the same few sets.
const FILE_BASE: u64 = 0x0200_0000;
const UBUF_BASE: u64 = 0x0C00_3000;
const REC_BASE: u64 = 0x1600_5000;
const SKB_BASE: u64 = 0x2A00_A000;
const CONN_STRIDE: u64 = 0x0002_1000; // 33 pages per connection per region
const PAGE: usize = 4096;

// Software-deflate working state (zlib level 6): a 32 KB sliding window
// plus hash head/prev tables — ~160 KB of irregularly accessed state per
// stream. This state is what makes on-CPU compression so cache-hostile;
// the Deflate DSA keeps the equivalent state in on-DIMM Config Memory.
const CTX_BASE: u64 = 0x5000_0000;
const CTX_STRIDE: u64 = 0x0002_9000; // 41 pages per connection
const CTX_BYTES: u64 = 160 * 1024;

/// Physical address of `conn`'s page-cache content (used by the co-run
/// harness to preload bodies).
pub fn conn_file_addr(conn: usize) -> PhysAddr {
    PhysAddr(FILE_BASE + conn as u64 * CONN_STRIDE)
}

fn ubuf_addr(conn: usize) -> PhysAddr {
    PhysAddr(UBUF_BASE + conn as u64 * CONN_STRIDE)
}

fn rec_addr(conn: usize) -> PhysAddr {
    PhysAddr(REC_BASE + conn as u64 * CONN_STRIDE)
}

fn skb_addr(conn: usize) -> PhysAddr {
    PhysAddr(SKB_BASE + conn as u64 * CONN_STRIDE)
}

/// Touches the per-stream deflate working state the way zlib's hash-chain
/// matcher does: scattered reads over the hash tables, sequential writes
/// into the window — per 4 KB of input, roughly 16 KB read + 8 KB written.
fn touch_deflate_state(host: &mut CompCpyHost, conn: usize, seed: u64, pages: usize) {
    let base = CTX_BASE + conn as u64 * CTX_STRIDE;
    let lines = CTX_BYTES / 64;
    let mut x = seed.wrapping_mul(0x9E37_79B9_7F4A_7C15) | 1;
    for _ in 0..pages {
        for i in 0..384u64 {
            x = x
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            let line = (x >> 33) % lines;
            let addr = PhysAddr(base + line * 64);
            if i % 3 == 2 {
                let data = host.mem_mut().load_line(addr, 0);
                host.mem_mut().store_line(addr, data, 0);
            } else {
                let _ = host.mem_mut().load_line(addr, 0);
            }
        }
    }
}

/// DDR command-clock cycles per nanosecond (1600 MHz → 1.6 cyc/ns).
/// Live code converts via the exact rational forms below; the float
/// constant remains as the committed ratio the equivalence tests pin.
#[cfg_attr(not(test), allow(dead_code))]
const CYC_PER_NS: f64 = 1.6;

/// Nanoseconds → command-clock cycles, rounded to nearest.
///
/// 1.6 cyc/ns is the rational 8/5, so the conversion is computed in exact
/// integer arithmetic as `(ns * 8 + 2) / 5`. The fractional part of
/// `8·ns/5` is always one of {0, .2, .4, .6, .8} — never .5 — so adding 2
/// before the floor division rounds to nearest with no tie ambiguity, and
/// the result is byte-identical to the previous
/// `(ns as f64 * 1.6).round()` for every `ns` a run can produce (the
/// float path only diverges once `ns` approaches 2^50, far beyond any
/// simulated duration; `exact_conversion_matches_float_path` pins this).
pub(crate) fn ns_to_cycles(ns: u64) -> u64 {
    (ns * 8 + 2) / 5
}

pub(crate) fn advance_ns(mem: &mut MemSystem, ns: u64) {
    mem.advance(ns_to_cycles(ns));
}

/// Command-clock cycles → nanoseconds.
///
/// `1/1.6 = 0.625` is a dyadic rational (5/8), exactly representable in
/// binary floating point, so the multiplication is exact up to the one
/// final rounding of the product — unlike the previous `cycles / 1.6`,
/// whose divisor 1.6 is itself inexact in binary. Round-tripping
/// `ns → cycles → ns` is therefore within 0.25 ns: `ns_to_cycles` rounds
/// to nearest with a worst-case error of 0.4 cycles (fractional parts of
/// 8·ns/5 step by 0.2), and 0.4 · 0.625 = 0.25 ns — pinned by
/// `round_trip_error_is_bounded`.
pub(crate) fn cycles_to_ns(cycles: u64) -> f64 {
    cycles as f64 * 0.625
}

fn conn_key(conn: usize) -> [u8; 16] {
    let mut k = [0u8; 16];
    k[..8].copy_from_slice(&(conn as u64).to_le_bytes());
    k[8] = 0x5A;
    k
}

fn req_iv(req: u64) -> [u8; 12] {
    let mut iv = [0u8; 12];
    iv[..8].copy_from_slice(&req.to_le_bytes());
    iv
}

/// One in-flight request between pipeline stages.
#[derive(Debug)]
pub(crate) struct Inflight {
    pub(crate) conn: usize,
    pub(crate) req: u64,
    /// Body length for this request. The lock-step harness always uses
    /// `cfg.message_bytes`; the event-driven harness draws per-object
    /// zipfian sizes.
    pub(crate) len: usize,
    /// SmartDIMM offload handles (one per page for compression).
    pub(crate) handles: Vec<OffloadHandle>,
    /// Output length (compressed size once known; message size for TLS).
    pub(crate) out_len: usize,
}

/// Accumulated cost over a measurement window.
#[derive(Debug, Default, Clone, Copy)]
pub(crate) struct WindowCost {
    pub(crate) cpu_ns: u64,
    pub(crate) accel_ns: u64,
    pub(crate) wire_bytes: u64,
}

/// The batched-pipeline server engine, shared by the throughput harness
/// and the co-run harness.
pub(crate) struct Engine<'a> {
    kind: PlatformKind,
    cfg: &'a WorkloadConfig,
    pub(crate) cost: WindowCost,
    req_counter: u64,
}

impl<'a> Engine<'a> {
    pub(crate) fn new(kind: PlatformKind, cfg: &'a WorkloadConfig) -> Engine<'a> {
        assert!(
            kind.supports(cfg.ulp),
            "{kind:?} cannot offload {:?}",
            cfg.ulp
        );
        Engine {
            kind,
            cfg,
            cost: WindowCost::default(),
            req_counter: 0,
        }
    }

    pub(crate) fn reset_window(&mut self) {
        self.cost = WindowCost::default();
    }

    /// Preloads every connection's page-cache content.
    pub(crate) fn preload(&self, host: &mut CompCpyHost) {
        for conn in 0..self.cfg.connections {
            let body = self
                .cfg
                .corpus
                .generate(self.cfg.message_bytes, self.cfg.seed ^ conn as u64);
            host.mem_mut().dma_write(conn_file_addr(conn), &body);
        }
    }

    /// Serves one batch of requests through the staged pipeline.
    pub(crate) fn run_batch(&mut self, host: &mut CompCpyHost, conns: &[usize]) {
        // Stage 1: produce (content read + ULP).
        let mut inflight: Vec<Inflight> = Vec::with_capacity(conns.len());
        for &conn in conns {
            let req = self.req_counter;
            self.req_counter += 1;
            let len = self.cfg.message_bytes;
            inflight.push(self.produce_stage(host, conn, req, len));
        }
        // Stage 2: socket write.
        for fl in &mut inflight {
            self.socket_write(host, fl);
        }
        // Stage 3: NIC TX DMA.
        for fl in &inflight {
            self.nic_tx(host, fl);
        }
    }

    fn charge_cpu_ns(&mut self, host: &mut CompCpyHost, ns: u64) {
        advance_ns(host.mem_mut(), ns);
        self.cost.cpu_ns += ns;
    }

    /// Runs `f` and charges its elapsed simulated time to the CPU.
    fn timed_cpu(&mut self, host: &mut CompCpyHost, f: impl FnOnce(&mut CompCpyHost)) {
        let t0 = host.mem().now();
        f(host);
        self.cost.cpu_ns += cycles_to_ns(host.mem().now() - t0) as u64;
    }

    pub(crate) fn produce_stage(
        &mut self,
        host: &mut CompCpyHost,
        conn: usize,
        req: u64,
        len: usize,
    ) -> Inflight {
        let m = len;
        let p = self.cfg.costs;
        let file = conn_file_addr(conn);
        let rec = rec_addr(conn);
        let mut fl = Inflight {
            conn,
            req,
            len,
            handles: Vec::new(),
            out_len: m,
        };
        // Request parsing / socket / scheduling overhead.
        self.charge_cpu_ns(host, p.request_overhead_ns);

        match (self.cfg.ulp, self.kind) {
            (UlpKind::None, _) => {} // sendfile: nothing to produce
            (UlpKind::Tls, PlatformKind::Cpu) => {
                // nginx + OpenSSL (no sendfile with TLS): read() copies
                // the page cache into the user buffer, AES-NI reads it
                // and writes the ciphertext record.
                let ubuf = ubuf_addr(conn);
                let mut body = vec![0u8; m];
                self.timed_cpu(host, |h| {
                    h.mem_mut().memcpy(ubuf, file, m, 0, false); // read()
                    h.mem_mut().load(ubuf, &mut body, 0); // encrypt pass
                });
                self.charge_cpu_ns(host, p.cpu_ns(p.aesni_cpb, m));
                let gcm = AesGcm::new_128(&conn_key(conn));
                let (ct, _tag) = gcm.seal(&req_iv(req), b"", &body);
                self.timed_cpu(host, |h| h.mem_mut().store(rec, &ct, 0));
            }
            (UlpKind::Tls, PlatformKind::SmartNic) => {
                // Autonomous offload (Pismenny et al.): *unmodified*
                // software stack — the TLS library skips the cipher and
                // passes the plaintext record down; the NIC encrypts
                // inline at TX. CPU pays the per-record offload init.
                self.charge_cpu_ns(host, p.nic_record_init_ns);
                let ubuf = ubuf_addr(conn);
                let mut body = vec![0u8; m];
                self.timed_cpu(host, |h| {
                    h.mem_mut().memcpy(ubuf, file, m, 0, false); // read()
                    h.mem_mut().load(ubuf, &mut body, 0); // record build
                    h.mem_mut().store(rec, &body, 0);
                });
            }
            (UlpKind::Tls, PlatformKind::QuickAssist) => {
                // read() into the user buffer, then stage into the
                // DMA-safe buffer and submit the descriptor.
                let ubuf = ubuf_addr(conn);
                let mut body = vec![0u8; m];
                self.timed_cpu(host, |h| {
                    h.mem_mut().memcpy(ubuf, file, m, 0, false); // read()
                    h.mem_mut().load(ubuf, &mut body, 0);
                    h.mem_mut().store(rec, &body, 0); // DMA staging copy
                });
                self.charge_cpu_ns(host, p.qat_call_cpu_ns);
            }
            (UlpKind::Tls, PlatformKind::SmartDimm) => {
                // CompCpy is both the ULP and the socket-buffer copy.
                self.charge_cpu_ns(host, p.compcpy_sw_overhead_ns);
                let key = conn_key(conn);
                let iv = req_iv(req);
                let mut handle = None;
                self.timed_cpu(host, |h| {
                    handle = Some(
                        h.comp_cpy(rec, file, m, OffloadOp::TlsEncrypt { key, iv }, false, 0)
                            .expect("offload accepted"),
                    );
                });
                fl.handles.push(handle.expect("created"));
            }
            (UlpKind::Compression, PlatformKind::Cpu) => {
                // nginx gzip filter: read() into the user buffer, deflate
                // it (touching the per-stream zlib window + hash tables),
                // write the encoded output buffer.
                let ubuf = ubuf_addr(conn);
                let mut body = vec![0u8; m];
                self.timed_cpu(host, |h| {
                    h.mem_mut().memcpy(ubuf, file, m, 0, false); // read()
                    h.mem_mut().load(ubuf, &mut body, 0);
                    touch_deflate_state(h, conn, req, m.div_ceil(PAGE));
                });
                self.charge_cpu_ns(host, p.cpu_ns(p.deflate_cpb, m));
                let out = ulp_compress::deflate::compress(&body);
                fl.out_len = out.len();
                self.timed_cpu(host, |h| h.mem_mut().store(rec, &out, 0));
            }
            (UlpKind::Compression, PlatformKind::QuickAssist) => {
                let ubuf = ubuf_addr(conn);
                let mut body = vec![0u8; m];
                self.timed_cpu(host, |h| {
                    h.mem_mut().memcpy(ubuf, file, m, 0, false); // read()
                    h.mem_mut().load(ubuf, &mut body, 0);
                    h.mem_mut().store(rec, &body, 0); // DMA staging copy
                });
                self.charge_cpu_ns(host, p.qat_call_cpu_ns);
            }
            (UlpKind::Compression, PlatformKind::SmartDimm) => {
                // §V-C: one CompCpy per 4 KB page.
                for pg in 0..m.div_ceil(PAGE) {
                    let len = (m - pg * PAGE).min(PAGE);
                    let src = PhysAddr(file.0 + (pg * PAGE) as u64);
                    let dst = PhysAddr(rec.0 + (pg * PAGE) as u64);
                    self.charge_cpu_ns(host, p.compcpy_sw_overhead_ns);
                    let mut handle = None;
                    self.timed_cpu(host, |h| {
                        handle = Some(
                            h.comp_cpy(dst, src, len, OffloadOp::Compress, true, 0)
                                .expect("offload accepted"),
                        );
                    });
                    fl.handles.push(handle.expect("created"));
                }
            }
            (UlpKind::Compression, PlatformKind::SmartNic) => {
                unreachable!("guarded by PlatformKind::supports")
            }
        }
        fl
    }

    pub(crate) fn socket_write(&mut self, host: &mut CompCpyHost, fl: &mut Inflight) {
        let m = fl.len;
        let p = self.cfg.costs;
        let rec = rec_addr(fl.conn);
        let skb = skb_addr(fl.conn);

        match (self.cfg.ulp, self.kind) {
            (UlpKind::None, _) => {} // sendfile: no socket copy
            (UlpKind::Tls, PlatformKind::Cpu | PlatformKind::SmartNic) => {
                // write(): kernel copies the record into the skb.
                self.timed_cpu(host, |h| h.mem_mut().memcpy(skb, rec, m, 0, false));
            }
            (UlpKind::Tls, PlatformKind::QuickAssist) => {
                // Device executes now: DMA in, encrypt, DMA the
                // ciphertext into the skb. CPU polls the completion.
                let accel = p.qat_latency_ns + p.accel_ns(p.qat_gbps, m);
                advance_ns(host.mem_mut(), accel);
                self.cost.accel_ns += accel;
                let staged = host.mem_mut().dma_read(rec, m);
                let gcm = AesGcm::new_128(&conn_key(fl.conn));
                let (ct, _tag) = gcm.seal(&req_iv(fl.req), b"", &staged);
                host.mem_mut().dma_write(skb, &ct);
            }
            (UlpKind::Tls, PlatformKind::SmartDimm) => {
                // Under fault injection, starved offloads' staged lines
                // would NACK the NIC's reads past the retry limit.
                for handle in &fl.handles {
                    host.settle(handle);
                }
                // USE: flush the record so the NIC reads ciphertext.
                self.timed_cpu(host, |h| {
                    h.mem_mut().flush(rec, m.div_ceil(64) * 64);
                });
            }
            (UlpKind::Compression, PlatformKind::Cpu) => {
                let out = fl.out_len;
                self.timed_cpu(host, |h| {
                    h.mem_mut()
                        .memcpy(skb, rec, out.div_ceil(64) * 64, 0, false)
                });
            }
            (UlpKind::Compression, PlatformKind::QuickAssist) => {
                let accel = p.qat_latency_ns + p.accel_ns(p.qat_gbps, m);
                advance_ns(host.mem_mut(), accel);
                self.cost.accel_ns += accel;
                let staged = host.mem_mut().dma_read(rec, m);
                let out = ulp_compress::deflate::compress(&staged);
                fl.out_len = out.len();
                host.mem_mut().dma_write(skb, &out);
            }
            (UlpKind::Compression, PlatformKind::SmartDimm) => {
                for handle in &fl.handles {
                    host.settle(handle);
                }
                // USE each page and collect the compressed sizes.
                let mut total = 0usize;
                let handles = fl.handles.clone();
                self.timed_cpu(host, |h| {
                    for handle in &handles {
                        h.mem_mut()
                            .flush(handle.dbuf, handle.size.div_ceil(64) * 64);
                        total += h.read_result(handle).out_len as usize;
                    }
                });
                fl.out_len = total;
            }
            (UlpKind::Compression, PlatformKind::SmartNic) => unreachable!(),
        }
    }

    pub(crate) fn nic_tx(&mut self, host: &mut CompCpyHost, fl: &Inflight) {
        let m = fl.len;
        let conn = fl.conn;
        let (addr, len) = match (self.cfg.ulp, self.kind) {
            (UlpKind::None, _) => (conn_file_addr(conn), m),
            (UlpKind::Tls, PlatformKind::SmartDimm) => (rec_addr(conn), m),
            (UlpKind::Tls, _) => (skb_addr(conn), m),
            (UlpKind::Compression, PlatformKind::SmartDimm) => (rec_addr(conn), fl.out_len),
            (UlpKind::Compression, _) => (skb_addr(conn), fl.out_len),
        };
        let _ = host.mem_mut().dma_read(addr, len);
        self.cost.wire_bytes += len as u64;
    }
}

/// In-flight responses across the worker pool at saturation: each worker
/// multiplexes `connections/workers` sockets.
pub(crate) fn batch_size(cfg: &WorkloadConfig) -> usize {
    (cfg.connections / cfg.workers).clamp(1, 64) * cfg.workers.min(16)
}

/// Runs the workload on the given platform and reports steady-state
/// metrics.
///
/// # Panics
///
/// Panics if the platform cannot run the ULP
/// ([`PlatformKind::supports`]) or the configuration is degenerate.
pub fn run_server(kind: PlatformKind, cfg: &WorkloadConfig) -> ServerMetrics {
    run_server_instrumented(kind, cfg).0
}

/// [`run_server`], additionally exporting the full post-run state of the
/// simulated machine — harness metrics plus the memory hierarchy and (for
/// the SmartDIMM placement) every channel's device counters — under
/// `scope` for a `telemetry/v1` snapshot.
pub fn run_server_with_telemetry(
    kind: PlatformKind,
    cfg: &WorkloadConfig,
    scope: &mut simkit::telemetry::Scope,
) -> ServerMetrics {
    let (metrics, mut host) = run_server_instrumented(kind, cfg);
    metrics.export_telemetry(scope);
    // Every placement runs on the simulated machine (SmartDIMM devices are
    // installed on all channels regardless of which placement executes the
    // ULP), so the full hierarchy is always exportable.
    host.export_telemetry(scope.scope("host"));
    metrics
}

fn run_server_instrumented(
    kind: PlatformKind,
    cfg: &WorkloadConfig,
) -> (ServerMetrics, CompCpyHost) {
    if let Err(e) = cfg.validate() {
        panic!("invalid WorkloadConfig: {e}");
    }
    let mut host = cfg.build_host(cfg.host_config());
    let mut rng = DetRng::new(cfg.seed);
    let mut engine = Engine::new(kind, cfg);
    engine.preload(&mut host);

    let batch = batch_size(cfg);
    let warmup_batches = ((cfg.requests / 4).max(cfg.connections)).div_ceil(batch);
    let measure_batches = cfg.requests.div_ceil(batch);

    let draw = |rng: &mut DetRng| -> Vec<usize> {
        (0..batch)
            .map(|_| rng.gen_range(0..cfg.connections as u64) as usize)
            .collect()
    };

    for _ in 0..warmup_batches {
        let conns = draw(&mut rng);
        engine.run_batch(&mut host, &conns);
    }
    host.mem_mut().dram_mut().reset_stats();
    host.mem_mut().llc_mut().reset_stats();
    engine.reset_window();
    let t_start = host.mem().now();
    let force_start = host.force_recycle_count();

    for _ in 0..measure_batches {
        let conns = draw(&mut rng);
        engine.run_batch(&mut host, &conns);
    }

    let measured = (measure_batches * batch) as f64;
    let elapsed_cycles = host.mem().now() - t_start;
    let avg_request_ns = cycles_to_ns(elapsed_cycles) / measured;
    let cpu_ns_per_req = engine.cost.cpu_ns as f64 / measured;
    let accel_ns_per_req = engine.cost.accel_ns as f64 / measured;
    let wire_bytes_per_req = engine.cost.wire_bytes as f64 / measured;
    let dram_bytes_per_req = host.mem().dram().stats().bytes_transferred() as f64 / measured;
    let llc_miss_rate = host.mem().llc().stats().miss_rate();
    let force_recycles = host.force_recycle_count() - force_start;

    let worker_rps = cfg.workers as f64 * 1e9 / avg_request_ns;
    let link_rps = cfg.costs.link_gbps * 1e9 / 8.0 / wire_bytes_per_req.max(1.0);
    let accel_rps = if accel_ns_per_req > 0.0 {
        // Lookaside devices pipeline across several engines.
        8.0 * 1e9 / accel_ns_per_req
    } else {
        f64::INFINITY
    };
    let rps = worker_rps.min(link_rps).min(accel_rps);
    let cpu_utilization = (rps * cpu_ns_per_req / (cfg.workers as f64 * 1e9)).min(1.0);
    let mem_bw_bytes = rps * dram_bytes_per_req;

    let metrics = ServerMetrics {
        rps,
        cpu_utilization,
        mem_bw_bytes,
        dram_bytes_per_req,
        avg_request_ns,
        cpu_ns_per_req,
        wire_bytes_per_req,
        llc_miss_rate,
        force_recycles,
    };
    (metrics, host)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn quick(ulp: UlpKind, message: usize, conns: usize) -> WorkloadConfig {
        WorkloadConfig {
            message_bytes: message,
            connections: conns,
            requests: 600,
            ulp,
            llc: Some(CacheConfig::mb(2, 16)), // small LLC: fast + contended
            ..WorkloadConfig::default()
        }
    }

    #[test]
    fn platform_support_matrix() {
        assert!(PlatformKind::SmartNic.supports(UlpKind::Tls));
        assert!(!PlatformKind::SmartNic.supports(UlpKind::Compression));
        assert!(PlatformKind::SmartDimm.supports(UlpKind::Compression));
        assert!(PlatformKind::Cpu.supports(UlpKind::None));
    }

    #[test]
    fn https_uses_more_memory_bandwidth_than_http() {
        // Fig. 3's effect: TLS adds buffer copies and cache pressure.
        let http = run_server(PlatformKind::Cpu, &quick(UlpKind::None, 4096, 512));
        let https = run_server(PlatformKind::Cpu, &quick(UlpKind::Tls, 4096, 512));
        assert!(
            https.dram_bytes_per_req > 1.5 * http.dram_bytes_per_req,
            "https {} vs http {}",
            https.dram_bytes_per_req,
            http.dram_bytes_per_req
        );
    }

    #[test]
    fn smartdimm_tls_beats_cpu_under_contention() {
        let cfg = quick(UlpKind::Tls, 4096, 512);
        let cpu = run_server(PlatformKind::Cpu, &cfg);
        let sd = run_server(PlatformKind::SmartDimm, &cfg);
        assert!(
            sd.rps > cpu.rps,
            "smartdimm {} vs cpu {} rps",
            sd.rps,
            cpu.rps
        );
        assert!(
            sd.dram_bytes_per_req < cpu.dram_bytes_per_req,
            "smartdimm {} vs cpu {} bytes/req",
            sd.dram_bytes_per_req,
            cpu.dram_bytes_per_req
        );
    }

    #[test]
    fn quickassist_loses_at_small_messages() {
        let cfg = quick(UlpKind::Tls, 4096, 256);
        let cpu = run_server(PlatformKind::Cpu, &cfg);
        let qat = run_server(PlatformKind::QuickAssist, &cfg);
        assert!(
            qat.rps < cpu.rps,
            "qat {} vs cpu {} at 4KB",
            qat.rps,
            cpu.rps
        );
    }

    #[test]
    fn compression_offload_gains_are_large() {
        // Fig. 12: software deflate is so slow that SmartDIMM wins by
        // integer factors.
        let cfg = quick(UlpKind::Compression, 4096, 256);
        let cpu = run_server(PlatformKind::Cpu, &cfg);
        let sd = run_server(PlatformKind::SmartDimm, &cfg);
        assert!(
            sd.rps > 3.0 * cpu.rps,
            "smartdimm {} vs cpu {} rps",
            sd.rps,
            cpu.rps
        );
    }

    #[test]
    fn compressed_responses_shrink_the_wire() {
        let cfg = quick(UlpKind::Compression, 4096, 128);
        let m = run_server(PlatformKind::Cpu, &cfg);
        assert!(m.wire_bytes_per_req < 4096.0 * 0.8);
    }

    #[test]
    fn more_connections_mean_more_llc_misses() {
        let small = run_server(PlatformKind::Cpu, &quick(UlpKind::Tls, 4096, 16));
        let large = run_server(PlatformKind::Cpu, &quick(UlpKind::Tls, 4096, 1024));
        assert!(
            large.llc_miss_rate > small.llc_miss_rate,
            "1024conn {} vs 16conn {}",
            large.llc_miss_rate,
            small.llc_miss_rate
        );
        assert!(large.dram_bytes_per_req > small.dram_bytes_per_req);
    }

    #[test]
    fn metrics_are_deterministic() {
        let cfg = quick(UlpKind::Tls, 4096, 64);
        let a = run_server(PlatformKind::SmartDimm, &cfg);
        let b = run_server(PlatformKind::SmartDimm, &cfg);
        assert_eq!(a, b);
    }

    #[test]
    fn multi_channel_smartdimm_server_works_and_is_deterministic() {
        // Two shards under coarse interleave: the connection arenas sit
        // at odd page strides, so most record→skb offloads cross
        // channels and take the driver's bounce path. The run must stay
        // deterministic and produce sane metrics.
        for (channels, interleave) in [(2, 64), (4, 1)] {
            let cfg = WorkloadConfig {
                channels,
                channel_interleave_lines: interleave,
                ..quick(UlpKind::Tls, 4096, 64)
            };
            let a = run_server(PlatformKind::SmartDimm, &cfg);
            let b = run_server(PlatformKind::SmartDimm, &cfg);
            assert_eq!(a, b, "{channels}ch/{interleave} diverged across runs");
            assert!(a.rps > 0.0);
        }
    }

    #[test]
    fn multi_channel_compression_server_works() {
        let cfg = WorkloadConfig {
            channels: 2,
            channel_interleave_lines: 64,
            ..quick(UlpKind::Compression, 4096, 64)
        };
        let m = run_server(PlatformKind::SmartDimm, &cfg);
        assert!(m.rps > 0.0);
        assert!(m.wire_bytes_per_req < 4096.0);
    }

    #[test]
    #[should_panic(expected = "cannot offload")]
    fn smartnic_compression_rejected() {
        let _ = run_server(
            PlatformKind::SmartNic,
            &quick(UlpKind::Compression, 4096, 16),
        );
    }

    #[test]
    fn validate_catches_degenerate_configs() {
        let ok = WorkloadConfig::default();
        assert_eq!(ok.validate(), Ok(()));

        let cases: &[(WorkloadConfig, ConfigError)] = &[
            (
                WorkloadConfig {
                    workers: 0,
                    ..WorkloadConfig::default()
                },
                ConfigError::ZeroWorkers,
            ),
            (
                WorkloadConfig {
                    connections: 0,
                    ..WorkloadConfig::default()
                },
                ConfigError::ZeroConnections,
            ),
            (
                WorkloadConfig {
                    connections: 1025,
                    ..WorkloadConfig::default()
                },
                ConfigError::TooManyConnections(1025),
            ),
            (
                WorkloadConfig {
                    requests: 0,
                    ..WorkloadConfig::default()
                },
                ConfigError::ZeroRequests,
            ),
            (
                WorkloadConfig {
                    message_bytes: 0,
                    ..WorkloadConfig::default()
                },
                ConfigError::BadMessageSize(0),
            ),
            (
                WorkloadConfig {
                    message_bytes: 65537,
                    ..WorkloadConfig::default()
                },
                ConfigError::BadMessageSize(65537),
            ),
            (
                WorkloadConfig {
                    channels: 0,
                    ..WorkloadConfig::default()
                },
                ConfigError::ZeroChannels,
            ),
            (
                WorkloadConfig {
                    channels: 2,
                    channel_interleave_lines: 3,
                    ..WorkloadConfig::default()
                },
                ConfigError::BadInterleave(3),
            ),
            (
                WorkloadConfig {
                    channel_interleave_lines: 0,
                    ..WorkloadConfig::default()
                },
                ConfigError::BadInterleave(0),
            ),
        ];
        for (cfg, want) in cases {
            assert_eq!(cfg.validate(), Err(*want));
            // Every variant renders a non-empty human-readable message.
            assert!(!want.to_string().is_empty());
        }
    }

    #[test]
    fn validate_rejects_llc_geometry_the_cache_would_panic_on() {
        let llc = CacheConfig::mb(2, 16);
        for (bad, why) in [
            (CacheConfig { ways: 0, ..llc }, "1..=64 ways"),
            (CacheConfig { ways: 65, ..llc }, "1..=64 ways"),
            (
                CacheConfig {
                    ddio_ways: 0,
                    ..llc
                },
                "ddio_ways outside 1..=ways",
            ),
            (
                CacheConfig {
                    ddio_ways: 17,
                    ..llc
                },
                "ddio_ways outside 1..=ways",
            ),
        ] {
            let cfg = WorkloadConfig {
                llc: Some(bad),
                ..WorkloadConfig::default()
            };
            assert_eq!(cfg.validate(), Err(ConfigError::BadLlc(why)));
        }
    }

    #[test]
    #[should_panic(expected = "workers must be >= 1")]
    fn zero_workers_panics_with_message_not_divide_by_zero() {
        // Before validate() this hit `connections / workers` and died with
        // an anonymous "attempt to divide by zero".
        let cfg = WorkloadConfig {
            workers: 0,
            ..quick(UlpKind::None, 4096, 16)
        };
        let _ = run_server(PlatformKind::Cpu, &cfg);
    }

    #[test]
    fn boundary_configs_run() {
        // workers=1 must serve a sane single-threaded pipeline, and
        // connections < workers must not produce an empty batch.
        let one_worker = WorkloadConfig {
            workers: 1,
            requests: 50,
            ..quick(UlpKind::None, 4096, 4)
        };
        let m = run_server(PlatformKind::Cpu, &one_worker);
        assert!(m.rps > 0.0 && m.rps.is_finite());

        let few_conns = WorkloadConfig {
            workers: 10,
            requests: 50,
            ..quick(UlpKind::None, 4096, 2)
        };
        assert!(batch_size(&few_conns) >= 1);
        let m = run_server(PlatformKind::Cpu, &few_conns);
        assert!(m.rps > 0.0 && m.rps.is_finite());
    }

    #[test]
    fn exact_conversion_matches_float_path() {
        // ns_to_cycles must be byte-identical to the float expression it
        // replaced for every duration a run can produce.
        let mut rng = DetRng::new(7);
        for _ in 0..10_000 {
            let ns = rng.gen_range(0..1_000_000_000_000);
            assert_eq!(
                ns_to_cycles(ns),
                (ns as f64 * CYC_PER_NS).round() as u64,
                "diverged at ns={ns}"
            );
        }
        for ns in 0..2048u64 {
            assert_eq!(ns_to_cycles(ns), (ns as f64 * CYC_PER_NS).round() as u64);
        }
    }

    #[test]
    fn round_trip_error_is_bounded() {
        // ns → cycles → ns is exact to within 0.25 ns (the nearest-rounding
        // error of ns_to_cycles scaled by 0.625 ns/cycle).
        for ns in 0..100_000u64 {
            let back = cycles_to_ns(ns_to_cycles(ns));
            assert!(
                (back - ns as f64).abs() <= 0.25,
                "ns={ns} round-tripped to {back}"
            );
        }
        // cycles → ns is exact for multiples of 8 cycles (5 ns each).
        assert_eq!(cycles_to_ns(8), 5.0);
        assert_eq!(cycles_to_ns(1600), 1000.0);
    }
}
