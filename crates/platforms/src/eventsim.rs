//! The event-driven high-concurrency server harness (tail latency).
//!
//! [`crate::server`] runs a *lock-step* pipeline: every in-flight request
//! marches through produce → socket-write → NIC-TX in batches, which is
//! enough for steady-state throughput and bandwidth numbers but says
//! nothing about *tail latency* — the paper's serving scenario (§VI) is a
//! wrk-style load generator with thousands of persistent connections,
//! where p99/p999 is dominated by queueing, connection churn, and slow
//! clients rather than by mean service time.
//!
//! This module replaces the batch loop with a central
//! [`simkit::EventQueue`] simulation:
//!
//! * **Closed-loop connections.** Each logical connection issues its next
//!   request an exponential think time after the previous response
//!   finishes draining. Tens of thousands of logical connections
//!   multiplex over the bounded buffer arenas of the lock-step harness
//!   (`conn % 1024` slots), exactly the way a real server's buffer pools
//!   and page cache recycle physical pages under high connection counts.
//! * **Two clocks.** The memory simulator's clock serializes every
//!   request's cache/DRAM traffic (so contention *emerges* from the
//!   model, as in the lock-step harness) and yields per-request service
//!   times; a separate virtual clock orders arrivals, think times,
//!   reconnects and drains, and drives a G/G/k worker queue. Request
//!   latency = queue wait + measured service time.
//! * **Zipfian object mix.** Requests draw from an object catalog with
//!   zipfian popularity and per-object deterministic sizes, so response
//!   lengths vary per request (the lock-step harness serves one fixed
//!   size).
//! * **Churn and slow clients.** Per-request hash-derived coin flips tear
//!   connections down (reconnect after 1 ms) or mark a response
//!   as draining to a slow client. Hash-derived decisions — rather than a
//!   shared RNG stream — keep every other connection's schedule
//!   untouched when a knob changes, so raising `churn_permille` delays a
//!   *superset* of requests.
//! * **Admission control.** On the SmartDIMM placement the harness
//!   samples device queueing pressure ([`smartdimm::QueuePressure`]) and,
//!   above a configurable watermark, either sheds the request
//!   (`admission_rejects`) or serves it on the CPU instead
//!   (`fallback_under_pressure`) — the driver policy a production
//!   deployment needs when scratchpad or translation-table pressure
//!   rises.
//!
//! Everything is deterministic: same seed → byte-identical telemetry
//! snapshots.

use std::cmp::Reverse;
use std::collections::BinaryHeap;

use cache::CacheConfig;
use dram::BackendKind;
use simkit::{Cycle, DetRng, EventQueue, Histogram};
use smartdimm::CompCpyHost;
use ulp_compress::corpus;

use crate::params::CostParams;
use crate::server::{
    advance_ns, conn_file_addr, cycles_to_ns, ns_to_cycles, validate_topology, ConfigError, Engine,
    PlatformKind, UlpKind, WorkloadConfig, PAGE,
};

/// Buffer-arena slots shared by all logical connections. Matches the
/// lock-step harness's 1024-connection arena limit: logical connection
/// `c` uses slot `c % ARENA_SLOTS`, modeling a bounded buffer pool.
const ARENA_SLOTS: usize = 1024;

/// Completions between device queue-pressure samples. Sampling visits
/// every channel shard, so a fixed cadence bounds that cost while
/// keeping the admission decision deterministic.
const PRESSURE_SAMPLE_EVERY: u64 = 16;

/// Extra drain time a slow client adds before its next request (ns).
const SLOW_DRAIN_NS: u64 = 200_000;

/// Reconnect penalty of a churned connection (ns).
const RECONNECT_NS: u64 = 1_000_000;

/// Object catalog size (zipfian popularity).
const OBJECTS: usize = 2048;

/// Responses parked in the send queue between produce and
/// socket-write/NIC-TX, holding device resources: what turns load into
/// queue pressure.
const INFLIGHT_WINDOW: usize = 64;

/// What to do with a request admitted while the device is saturated.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum AdmissionPolicy {
    /// No admission control: every request takes the offload path.
    #[default]
    None,
    /// Shed the request (count it, serve nothing) — load shedding.
    Shed,
    /// Serve the request on the CPU instead of the device.
    CpuFallback,
}

/// Admission-control configuration for the SmartDIMM placement.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct AdmissionConfig {
    /// Policy applied when pressure exceeds the watermark.
    pub policy: AdmissionPolicy,
    /// Pressure watermark in `[0, 1]` ([`smartdimm::QueuePressure::scalar`]).
    pub watermark: f64,
}

impl Default for AdmissionConfig {
    fn default() -> Self {
        AdmissionConfig {
            policy: AdmissionPolicy::None,
            watermark: 0.85,
        }
    }
}

/// Workload description for the event-driven harness.
#[derive(Debug, Clone)]
pub struct EventWorkloadConfig {
    /// Logical concurrent connections (tens of thousands are fine — they
    /// multiplex over `ARENA_SLOTS` (1024) buffer arenas).
    pub connections: usize,
    /// Total requests to issue across all connections.
    pub requests: usize,
    /// Worker threads draining the request queue (G/G/k servers).
    pub workers: usize,
    /// The ULP under test.
    pub ulp: UlpKind,
    /// Content generator for response bodies.
    pub corpus: corpus::Kind,
    /// LLC geometry override (default 16 MB / 16-way).
    pub llc: Option<CacheConfig>,
    /// Cost constants.
    pub costs: CostParams,
    /// RNG seed (schedules, object draws, churn coins).
    pub seed: u64,
    /// When set, installs a deterministic fault plan (tests only).
    pub fault_seed: Option<u64>,
    /// Memory channels (§V-D sharding).
    pub channels: usize,
    /// Interleave granularity in cachelines.
    pub channel_interleave_lines: usize,
    /// DIMMs per channel; only slot 0 carries the buffer device, the
    /// rest are plain capacity DIMMs (scale-out topology).
    pub dimms_per_channel: usize,
    /// CPU sockets; `channels` must split evenly across them.
    pub sockets: usize,
    /// Extra cycles a CAS to a remote-socket channel pays.
    pub interconnect_penalty_cycles: u64,
    /// Offload placement policy (see [`smartdimm::sched`]).
    pub placement: smartdimm::PlacementPolicy,
    /// Memory-backend fidelity tier. Defaults to the tier-1 fast queue
    /// model: the event harness exists for high-concurrency sweeps where
    /// cycle-accurate DRAM would dominate wall-clock. Cycle-accurate runs
    /// stay valid at small connection counts.
    pub backend: BackendKind,
    /// No effect: DSA feeds compute inline at CAS time, so there is no
    /// shard-settle pool to size. Its one caller is simbench
    /// (`Harness::with_threads`, `topology_into!`); the simbench change in
    /// ROADMAP's "Benchmark v2" item deletes it.
    pub threads: usize,
    /// Mean exponential think time between a connection's requests (ns).
    pub think_time_ns: u64,
    /// Per-request probability (‰) that the connection tears down after
    /// the response and reconnects 1 ms later.
    pub churn_permille: u64,
    /// Per-request probability (‰) that the client drains the response
    /// slowly, delaying its next request by an extra 200 µs.
    pub slow_client_permille: u64,
    /// Zipf exponent `s` over 2048 objects (`weight ∝ 1/rank^s`; 0 = uniform).
    pub zipf_s: f64,
    /// Smallest object size in bytes.
    pub min_object_bytes: usize,
    /// Largest object size in bytes (≤ 64 KB record limit).
    pub max_object_bytes: usize,
    /// Scratchpad-pages override for the SmartDIMM devices (pressure
    /// tests shrink it to force admission decisions, down to the largest
    /// offload's reservation: [`ConfigError::ScratchpadTooSmall`]).
    pub scratchpad_pages: Option<usize>,
    /// Admission control (SmartDIMM placement only).
    pub admission: AdmissionConfig,
}

impl Default for EventWorkloadConfig {
    fn default() -> Self {
        EventWorkloadConfig {
            connections: 4096,
            requests: 4000,
            workers: 64,
            ulp: UlpKind::Tls,
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
            backend: BackendKind::FastQueue,
            threads: 0,
            think_time_ns: 50_000,
            churn_permille: 0,
            slow_client_permille: 0,
            zipf_s: 1.0,
            min_object_bytes: 1024,
            max_object_bytes: 16384,
            scratchpad_pages: None,
            admission: AdmissionConfig::default(),
        }
    }
}

impl EventWorkloadConfig {
    /// Validates the configuration, returning the first degeneracy found.
    pub fn validate(&self) -> Result<(), ConfigError> {
        if self.workers == 0 {
            return Err(ConfigError::ZeroWorkers);
        }
        if self.connections == 0 {
            return Err(ConfigError::ZeroConnections);
        }
        if self.requests == 0 {
            return Err(ConfigError::ZeroRequests);
        }
        if self.min_object_bytes == 0
            || self.max_object_bytes > 65536
            || self.min_object_bytes > self.max_object_bytes
        {
            return Err(ConfigError::BadObjectSizes(
                self.min_object_bytes,
                self.max_object_bytes,
            ));
        }
        validate_topology(
            self.channels,
            self.dimms_per_channel,
            self.sockets,
            self.channel_interleave_lines,
        )?;
        for p in [self.churn_permille, self.slow_client_permille] {
            if p > 1000 {
                return Err(ConfigError::BadPermille(p));
            }
        }
        // Algorithm 2 line 16 reserves `1 + bytes/4096` pages per
        // `comp_cpy`: the largest object for TLS, a page for compression.
        let largest = match self.ulp {
            UlpKind::Tls => self.max_object_bytes,
            UlpKind::Compression => self.max_object_bytes.min(PAGE),
            UlpKind::None => 0,
        };
        let needed = 1 + largest / PAGE;
        if let Some(pages) = self.scratchpad_pages.filter(|&p| p < needed) {
            return Err(ConfigError::ScratchpadTooSmall { pages, needed });
        }
        if let Some(llc) = self.llc {
            llc.validate().map_err(ConfigError::BadLlc)?;
        }
        Ok(())
    }
}

/// Measured event-harness metrics.
#[derive(Debug, Clone, PartialEq)]
pub struct EventServerMetrics {
    /// Requests issued by the load generator.
    pub issued_requests: u64,
    /// Requests served to completion.
    pub completed_requests: u64,
    /// Requests shed by admission control (never served).
    pub shed_requests: u64,
    /// Admission decisions that fired (shed + fallback).
    pub admission_rejects: u64,
    /// Requests served on the CPU because the device was saturated.
    pub fallback_under_pressure: u64,
    /// Connection teardown/reconnect events.
    pub reconnects: u64,
    /// Responses drained by slow clients.
    pub slow_drains: u64,
    /// Application payload bytes delivered.
    pub delivered_bytes: u64,
    /// Virtual time from first arrival to last completion (ns).
    pub makespan_ns: f64,
    /// Delivered payload over makespan, in Gb/s.
    pub goodput_gbps: f64,
    /// Mean request latency (queue wait + service, ns).
    pub mean_latency_ns: f64,
    /// Median request latency (ns; 0 when nothing completed).
    pub p50_ns: u64,
    /// 99th-percentile request latency (ns).
    pub p99_ns: u64,
    /// 99.9th-percentile request latency (ns).
    pub p999_ns: u64,
    /// Whether the sample count can resolve p999
    /// ([`simkit::QuantileEstimate::resolvable`]).
    pub p999_resolvable: bool,
    /// Highest queue-pressure scalar sampled during the run.
    pub max_pressure: f64,
    /// Lowest pressure observed at an admission rejection (0 when none
    /// fired) — always above the watermark when rejects exist.
    pub min_pressure_at_reject: f64,
    /// Full latency distribution (ns).
    pub latency: Histogram,
}

impl EventServerMetrics {
    /// Registers the harness metrics under `scope` for a `telemetry/v1`
    /// snapshot.
    pub fn export_telemetry(&self, scope: &mut simkit::telemetry::Scope) {
        scope.set_counter("issued_requests", self.issued_requests);
        scope.set_counter("completed_requests", self.completed_requests);
        scope.set_counter("shed_requests", self.shed_requests);
        scope.set_counter("admission_rejects", self.admission_rejects);
        scope.set_counter("fallback_under_pressure", self.fallback_under_pressure);
        scope.set_counter("reconnects", self.reconnects);
        scope.set_counter("slow_drains", self.slow_drains);
        scope.set_counter("delivered_bytes", self.delivered_bytes);
        scope.set_gauge("makespan_ns", self.makespan_ns);
        scope.set_gauge("goodput_gbps", self.goodput_gbps);
        scope.set_gauge("mean_latency_ns", self.mean_latency_ns);
        scope.set_gauge("max_pressure", self.max_pressure);
        scope.set_gauge("min_pressure_at_reject", self.min_pressure_at_reject);
        scope.set_histogram("latency_ns", &self.latency);
    }
}

/// A per-(connection, request) deterministic RNG. Derived by hashing
/// rather than drawn from a shared stream, so changing one knob (churn,
/// slow clients) never perturbs any other request's draws.
fn req_rng(seed: u64, conn: usize, req: u64, salt: u64) -> DetRng {
    let mix = seed
        ^ (conn as u64).wrapping_mul(0xA24B_AED4_963E_E407)
        ^ req.wrapping_mul(0x9FB2_1C65_1E98_DF25)
        ^ salt.wrapping_mul(0xD6E8_FEB8_6659_FD93);
    DetRng::new(mix)
}

/// Deterministic permille coin: true with probability `permille/1000`,
/// and monotone — the true-set for a higher permille is a superset of
/// the true-set for a lower one (same hash, higher threshold).
fn permille_coin(seed: u64, conn: usize, req: u64, salt: u64, permille: u64) -> bool {
    req_rng(seed, conn, req, salt).gen_range(0..1000) < permille
}

/// Zipfian popularity CDF over `objects` ranks (`weight ∝ 1/rank^s`).
///
/// The terminal bucket is pinned to exactly `1.0` so every popularity
/// draw in `[0, 1)` lands in-catalog. Normalizing by the accumulated
/// total usually gets there on its own (IEEE `x / x == 1.0`), but an
/// extreme exponent can overflow the accumulator to `+inf`, turning
/// earlier quotients into `0.0` and later ones into NaN — and a NaN
/// bucket breaks `partition_point`'s sorted-prefix contract, aliasing
/// draws onto the wrong object. Non-finite quotients are therefore
/// sanitized to `0.0` and the pinned terminal bucket absorbs the tail.
fn zipf_cdf(objects: usize, s: f64) -> Vec<f64> {
    let mut cdf = Vec::with_capacity(objects);
    let mut acc = 0.0f64;
    for rank in 0..objects {
        acc += 1.0 / ((rank + 1) as f64).powf(s);
        cdf.push(acc);
    }
    let total = acc;
    for c in &mut cdf {
        *c /= total;
        if !c.is_finite() {
            *c = 0.0;
        }
    }
    if let Some(last) = cdf.last_mut() {
        *last = 1.0;
    }
    cdf
}

/// Per-object deterministic body size in `[min, max]`.
fn object_len(cfg: &EventWorkloadConfig, object: u64) -> usize {
    let span = (cfg.max_object_bytes - cfg.min_object_bytes + 1) as u64;
    let off = req_rng(cfg.seed, 0, object, 0xB0D1).gen_range(0..span);
    cfg.min_object_bytes + off as usize
}

/// One scheduled request arrival.
#[derive(Debug, Clone, Copy)]
struct Arrival {
    conn: usize,
    /// Per-connection request ordinal (drives the hash coins).
    req_no: u64,
}

/// A produced response parked in the send queue between the worker's
/// produce stage and the deferred socket-write/NIC-TX. Parked offloads
/// keep their scratchpad pages and translation-table entries live — the
/// asynchrony that turns load into device queue pressure.
struct Parked {
    fl: crate::server::Inflight,
    conn: usize,
    req_no: u64,
    /// Arrival virtual time (cycles).
    arrival: u64,
    /// Virtual time the worker finished producing (cycles).
    vdone: u64,
    /// Payload bytes.
    len: usize,
    /// Served on the CPU fallback engine.
    cpu: bool,
}

/// Runs the event-driven workload on the given platform.
///
/// # Panics
///
/// Panics if the platform cannot run the ULP
/// ([`PlatformKind::supports`]) or the configuration is degenerate
/// ([`EventWorkloadConfig::validate`]).
pub fn run_event_server(kind: PlatformKind, cfg: &EventWorkloadConfig) -> EventServerMetrics {
    run_event_server_instrumented(kind, cfg).0
}

/// [`run_event_server`], additionally exporting the harness metrics and
/// the post-run memory-hierarchy state under `scope`.
pub fn run_event_server_with_telemetry(
    kind: PlatformKind,
    cfg: &EventWorkloadConfig,
    scope: &mut simkit::telemetry::Scope,
) -> EventServerMetrics {
    let (metrics, mut host) = run_event_server_instrumented(kind, cfg);
    metrics.export_telemetry(scope);
    host.export_telemetry(scope.scope("host"));
    metrics
}

fn run_event_server_instrumented(
    kind: PlatformKind,
    cfg: &EventWorkloadConfig,
) -> (EventServerMetrics, CompCpyHost) {
    if let Err(e) = cfg.validate() {
        panic!("invalid EventWorkloadConfig: {e}");
    }

    // The Engine only reads ulp/costs/corpus/seed from its config (stage
    // lengths are per-request); connections is clamped to the arena pool.
    // The host is built from the same config, plus the scratchpad override.
    let engine_cfg = WorkloadConfig {
        message_bytes: cfg.max_object_bytes,
        connections: cfg.connections.min(ARENA_SLOTS),
        ulp: cfg.ulp,
        requests: cfg.requests,
        corpus: cfg.corpus,
        llc: cfg.llc,
        costs: cfg.costs,
        seed: cfg.seed,
        fault_seed: cfg.fault_seed,
        channels: cfg.channels,
        channel_interleave_lines: cfg.channel_interleave_lines,
        dimms_per_channel: cfg.dimms_per_channel,
        sockets: cfg.sockets,
        interconnect_penalty_cycles: cfg.interconnect_penalty_cycles,
        placement: cfg.placement,
        backend: cfg.backend,
        threads: cfg.threads,
    };
    let mut host_cfg = engine_cfg.host_config();
    if let Some(pages) = cfg.scratchpad_pages {
        host_cfg.dimm.scratchpad_pages = pages;
    }
    let mut host = engine_cfg.build_host(host_cfg);
    let mut engine = Engine::new(kind, &engine_cfg);
    // CPU fallback path for admission control (always constructible).
    let mut cpu_engine = Engine::new(PlatformKind::Cpu, &engine_cfg);

    let cdf = zipf_cdf(OBJECTS, cfg.zipf_s);
    // Which object's body currently occupies each arena slot's page-cache
    // region (a miss costs a DMA refill, like a page-cache eviction).
    let mut slot_object: Vec<Option<u64>> = vec![None; ARENA_SLOTS];

    // G/G/k workers: earliest-free virtual times.
    let mut workers: BinaryHeap<Reverse<u64>> = (0..cfg.workers).map(|_| Reverse(0u64)).collect();

    let mut q: EventQueue<Arrival> = EventQueue::new();

    // Fixed per-connection request budgets (first `requests % connections`
    // connections get one extra). The issued set of (connection, request)
    // pairs is therefore independent of event ordering, so knobs like
    // churn change *when* requests run, never *which* requests run — the
    // property behind the goodput-vs-churn monotonicity tests.
    let per_conn_budget = |conn: usize| -> u64 {
        let base = (cfg.requests / cfg.connections) as u64;
        base + u64::from(conn < cfg.requests % cfg.connections)
    };
    let mut issued = 0u64;

    // Stagger initial arrivals over one mean think time.
    for conn in 0..cfg.connections {
        if per_conn_budget(conn) == 0 {
            break;
        }
        let t0 = req_rng(cfg.seed, conn, 0, 0xA001).gen_range(0..cfg.think_time_ns.max(1));
        q.push(Cycle(ns_to_cycles(t0)), Arrival { conn, req_no: 0 });
        issued += 1;
    }

    let mut latency = Histogram::new("latency_ns", 1_000, 32_768);
    let mut completed = 0u64;
    let mut shed = 0u64;
    let mut rejects = 0u64;
    let mut fallbacks = 0u64;
    let mut reconnects = 0u64;
    let mut slow_drains = 0u64;
    let mut delivered_bytes = 0u64;
    let mut latency_sum_ns = 0.0f64;
    let mut first_arrival: Option<u64> = None;
    let mut last_completion = 0u64;
    let mut max_pressure = 0.0f64;
    let mut min_pressure_at_reject = f64::INFINITY;
    let mut pressure = 0.0f64;
    let mut processed = 0u64;
    let mut req_id = 0u64;

    let admission_active =
        kind == PlatformKind::SmartDimm && cfg.admission.policy != AdmissionPolicy::None;

    let mut parked: std::collections::VecDeque<Parked> = std::collections::VecDeque::new();
    let mut vnow = 0u64;
    // Shared NIC link: responses serialize onto the wire FIFO at
    // `costs.link_gbps`, so goodput saturates at the link rather than at
    // whatever the memory model can stream.
    let mut link_free = 0u64;

    // Slow-client drain and churn delays before a connection's next
    // request. Hash-derived per (connection, request): changing a knob
    // never perturbs any other request's draws.
    let mut next_gap_ns = |conn: usize, req_no: u64| -> u64 {
        let mut gap =
            req_rng(cfg.seed, conn, req_no, 0xE0E0).gen_exp(cfg.think_time_ns.max(1) as f64) as u64;
        if permille_coin(cfg.seed, conn, req_no, 0x510C, cfg.slow_client_permille) {
            slow_drains += 1;
            gap += SLOW_DRAIN_NS;
        }
        if permille_coin(cfg.seed, conn, req_no, 0xC4A2, cfg.churn_permille) {
            reconnects += 1;
            gap += RECONNECT_NS;
        }
        gap
    };

    while !q.is_empty() || !parked.is_empty() {
        // Drain the oldest parked response when the send-queue window is
        // full (or nothing more arrives): deferred socket-write + NIC-TX
        // release the offload's device resources and complete the request.
        if parked.len() > INFLIGHT_WINDOW || q.is_empty() {
            if let Some(mut p) = parked.pop_front() {
                let serve_engine = if p.cpu { &mut cpu_engine } else { &mut engine };
                let m0 = host.mem().now();
                serve_engine.socket_write(&mut host, &mut p.fl);
                serve_engine.nic_tx(&mut host, &p.fl);
                let fin = host.mem().now() - m0;
                let wire_ns = (p.fl.out_len as f64 * 8.0 / cfg.costs.link_gbps).ceil() as u64;
                let tx_start = (p.vdone.max(vnow) + fin).max(link_free);
                let done = tx_start + ns_to_cycles(wire_ns);
                link_free = done;
                let latency_ns = cycles_to_ns(done - p.arrival);
                latency.record(latency_ns as u64);
                latency_sum_ns += latency_ns;
                completed += 1;
                delivered_bytes += p.len as u64;
                last_completion = last_completion.max(done);
                if p.req_no + 1 < per_conn_budget(p.conn) {
                    let gap = next_gap_ns(p.conn, p.req_no);
                    q.push(
                        Cycle(done + ns_to_cycles(gap)),
                        Arrival {
                            conn: p.conn,
                            req_no: p.req_no + 1,
                        },
                    );
                    issued += 1;
                }
            }
            continue;
        }

        let Some((Cycle(t), ev)) = q.pop() else {
            continue;
        };
        let Arrival { conn, req_no } = ev;
        vnow = vnow.max(t);
        first_arrival.get_or_insert(t);

        // Refresh the device-pressure sample on a fixed cadence.
        if kind == PlatformKind::SmartDimm && processed.is_multiple_of(PRESSURE_SAMPLE_EVERY) {
            pressure = host.queue_pressure().scalar();
            max_pressure = max_pressure.max(pressure);
        }
        processed += 1;

        let rejected = admission_active && pressure > cfg.admission.watermark;
        if rejected {
            rejects += 1;
            min_pressure_at_reject = min_pressure_at_reject.min(pressure);
        }

        if rejected && cfg.admission.policy == AdmissionPolicy::Shed {
            shed += 1;
            // The client retries after its usual gap from the rejection
            // instant.
            if req_no + 1 < per_conn_budget(conn) {
                let gap = next_gap_ns(conn, req_no);
                q.push(
                    Cycle(t + ns_to_cycles(gap)),
                    Arrival {
                        conn,
                        req_no: req_no + 1,
                    },
                );
                issued += 1;
            }
            continue;
        }

        // Object draw, page-cache fill on slot miss.
        let u = req_rng(cfg.seed, conn, req_no, 0xC0DE).gen_f64();
        let object = cdf.partition_point(|&c| c < u).min(OBJECTS - 1) as u64;
        let len = object_len(cfg, object);
        let slot = conn % ARENA_SLOTS;
        if slot_object[slot] != Some(object) {
            let body = cfg.corpus.generate(len, cfg.seed ^ object);
            host.mem_mut().dma_write(conn_file_addr(slot), &body);
            slot_object[slot] = Some(object);
        }

        // Worker queue: earliest-free worker, FIFO by arrival. The
        // worker is busy for the produce stage only; the response then
        // parks in the send queue.
        let Reverse(free_at) = workers.pop().unwrap_or(Reverse(0));
        let start = t.max(free_at);
        let serve_engine = if rejected {
            &mut cpu_engine
        } else {
            &mut engine
        };
        if rejected {
            fallbacks += 1;
        }
        let m0 = host.mem().now();
        let fl = serve_engine.produce_stage(&mut host, slot, req_id, len);
        let produce = host.mem().now() - m0;
        req_id += 1;
        let vdone = start + produce;
        workers.push(Reverse(vdone));
        parked.push_back(Parked {
            fl,
            conn,
            req_no,
            arrival: t,
            vdone,
            len,
            cpu: rejected,
        });
    }

    // Keep the memory clock caught up with virtual time so exported
    // host telemetry reflects the full run window.
    let vnow_ns = cycles_to_ns(last_completion) as u64;
    let mnow_ns = cycles_to_ns(host.mem().now().0) as u64;
    if vnow_ns > mnow_ns {
        advance_ns(host.mem_mut(), vnow_ns - mnow_ns);
    }

    let makespan_cycles = last_completion.saturating_sub(first_arrival.unwrap_or(0));
    let makespan_ns = cycles_to_ns(makespan_cycles).max(1.0);
    let goodput_gbps = delivered_bytes as f64 * 8.0 / makespan_ns;
    let p999 = latency.quantile_est(0.999);
    let metrics = EventServerMetrics {
        issued_requests: issued,
        completed_requests: completed,
        shed_requests: shed,
        admission_rejects: rejects,
        fallback_under_pressure: fallbacks,
        reconnects,
        slow_drains,
        delivered_bytes,
        makespan_ns,
        goodput_gbps,
        mean_latency_ns: if completed > 0 {
            latency_sum_ns / completed as f64
        } else {
            0.0
        },
        p50_ns: latency.quantile(0.5).unwrap_or(0),
        p99_ns: latency.quantile(0.99).unwrap_or(0),
        p999_ns: p999.map(|e| e.value).unwrap_or(0),
        p999_resolvable: p999.is_some_and(|e| e.resolvable),
        max_pressure,
        min_pressure_at_reject: if min_pressure_at_reject.is_finite() {
            min_pressure_at_reject
        } else {
            0.0
        },
        latency,
    };
    (metrics, host)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn quick(ulp: UlpKind, conns: usize, reqs: usize) -> EventWorkloadConfig {
        EventWorkloadConfig {
            connections: conns,
            requests: reqs,
            workers: 16,
            ulp,
            min_object_bytes: 1024,
            max_object_bytes: 8192,
            llc: Some(CacheConfig::mb(2, 16)),
            ..EventWorkloadConfig::default()
        }
    }

    #[test]
    fn validate_catches_degenerate_event_configs() {
        assert_eq!(EventWorkloadConfig::default().validate(), Ok(()));
        let bad = EventWorkloadConfig {
            workers: 0,
            ..EventWorkloadConfig::default()
        };
        assert_eq!(bad.validate(), Err(ConfigError::ZeroWorkers));
        let bad = EventWorkloadConfig {
            min_object_bytes: 8192,
            max_object_bytes: 4096,
            ..EventWorkloadConfig::default()
        };
        assert_eq!(bad.validate(), Err(ConfigError::BadObjectSizes(8192, 4096)));
        let bad = EventWorkloadConfig {
            churn_permille: 1001,
            ..EventWorkloadConfig::default()
        };
        assert_eq!(bad.validate(), Err(ConfigError::BadPermille(1001)));
        // Accepted here, the run would panic building the Scratchpad.
        let bad = EventWorkloadConfig {
            scratchpad_pages: Some(0),
            ..EventWorkloadConfig::default()
        };
        assert_eq!(
            bad.validate(),
            Err(ConfigError::ScratchpadTooSmall {
                pages: 0,
                needed: 5
            })
        );
    }

    /// TLS objects of `bytes` on a `pages`-page scratchpad.
    fn starved(bytes: usize, pages: usize) -> EventWorkloadConfig {
        EventWorkloadConfig {
            min_object_bytes: bytes,
            max_object_bytes: bytes,
            scratchpad_pages: Some(pages),
            ..quick(UlpKind::Tls, 64, 200)
        }
    }

    #[test]
    fn validate_rejects_a_scratchpad_below_the_largest_reservation() {
        // A 16 KB record reserves 1 + 16384/4096 = 5 pages at once, which
        // no Force-Recycle can supply from 4: the run would panic at the
        // first offload.
        assert_eq!(
            starved(16384, 4).validate(),
            Err(ConfigError::ScratchpadTooSmall {
                pages: 4,
                needed: 5
            })
        );
        assert_eq!(starved(16384, 5).validate(), Ok(()));
        // Compression reserves per page, plain HTTP reserves nothing.
        for (ulp, needed) in [(UlpKind::Compression, 2), (UlpKind::None, 1)] {
            let cfg = EventWorkloadConfig {
                ulp,
                scratchpad_pages: Some(needed - 1),
                ..starved(16384, 0)
            };
            let err = ConfigError::ScratchpadTooSmall {
                pages: needed - 1,
                needed,
            };
            assert_eq!(cfg.validate(), Err(err), "{ulp:?}");
        }
    }

    #[test]
    fn smallest_accepted_scratchpad_serves_every_request() {
        for policy in [AdmissionPolicy::None, AdmissionPolicy::CpuFallback] {
            let cfg = EventWorkloadConfig {
                admission: AdmissionConfig {
                    policy,
                    watermark: 0.5,
                },
                ..starved(16384, 5)
            };
            let m = run_event_server(PlatformKind::SmartDimm, &cfg);
            assert_eq!(m.completed_requests, 200, "{policy:?}");
        }
    }

    #[test]
    fn event_validate_rejects_llc_geometry_the_cache_would_panic_on() {
        let llc = CacheConfig::mb(2, 16);
        for (bad, why) in [
            (CacheConfig { ways: 0, ..llc }, "1..=64 ways"),
            (CacheConfig { ways: 65, ..llc }, "1..=64 ways"),
            (
                CacheConfig { ways: 1, ..llc },
                "fewer ways than the 2 DDIO ways",
            ),
        ] {
            let cfg = EventWorkloadConfig {
                llc: Some(bad),
                ..EventWorkloadConfig::default()
            };
            assert_eq!(cfg.validate(), Err(ConfigError::BadLlc(why)));
        }
    }

    #[test]
    fn zipf_cdf_terminal_bucket_is_pinned() {
        // The normalized CDF must cover the whole unit interval for any
        // exponent: a draw at `1.0 - ε` on a small catalog must land
        // in-catalog. Extreme exponents overflow the accumulator to
        // `+inf` — pre-fix, the quotients came out `0.0`/NaN, and a NaN
        // bucket breaks `partition_point`'s sorted-prefix contract.
        for s in [0.0, 1.0, 50.0, 700.0, 5000.0, -700.0, -5000.0] {
            let cdf = zipf_cdf(4, s);
            assert!(
                cdf.iter().all(|c| c.is_finite()),
                "s={s}: non-finite bucket in {cdf:?}"
            );
            assert!(
                cdf.windows(2).all(|w| w[0] <= w[1]),
                "s={s}: CDF not monotone: {cdf:?}"
            );
            assert_eq!(*cdf.last().unwrap(), 1.0, "s={s}: terminal bucket");
            let u = 1.0 - f64::EPSILON;
            let idx = cdf.partition_point(|&c| c < u);
            assert!(idx < 4, "s={s}: draw at 1-eps indexed past the catalog");
        }
    }

    #[test]
    fn zipf_negative_exponent_weights_the_tail() {
        // weight ∝ rank^|s| for negative s: the heaviest object is the
        // *last* rank. Pre-fix, the overflowed CDF aliased a mid-range
        // draw onto rank 1 instead of the dominant terminal rank.
        let cdf = zipf_cdf(4, -5000.0);
        assert_eq!(cdf.partition_point(|&c| c < 0.5), 3);
    }

    #[test]
    fn event_validate_catches_bad_topology() {
        let bad = EventWorkloadConfig {
            dimms_per_channel: 0,
            ..EventWorkloadConfig::default()
        };
        assert_eq!(bad.validate(), Err(ConfigError::ZeroDimms));
        let bad = EventWorkloadConfig {
            channels: 2,
            sockets: 3,
            ..EventWorkloadConfig::default()
        };
        assert_eq!(bad.validate(), Err(ConfigError::BadSockets(2, 3)));
        for lines in [3, 0] {
            let bad = EventWorkloadConfig {
                channels: 2,
                channel_interleave_lines: lines,
                ..EventWorkloadConfig::default()
            };
            assert_eq!(bad.validate(), Err(ConfigError::BadInterleave(lines)));
        }
    }

    #[test]
    fn serves_every_issued_request_without_admission() {
        let cfg = quick(UlpKind::Tls, 512, 800);
        let m = run_event_server(PlatformKind::SmartDimm, &cfg);
        assert_eq!(m.issued_requests, 800);
        assert_eq!(m.completed_requests, 800);
        assert_eq!(m.shed_requests, 0);
        assert_eq!(m.admission_rejects, 0);
        assert!(m.goodput_gbps > 0.0);
        assert!(m.p50_ns > 0 && m.p99_ns >= m.p50_ns);
    }

    #[test]
    fn high_concurrency_run_is_deterministic() {
        let cfg = EventWorkloadConfig {
            connections: 10_240,
            requests: 1500,
            churn_permille: 100,
            slow_client_permille: 50,
            ..quick(UlpKind::Tls, 0, 0)
        };
        let a = run_event_server(PlatformKind::SmartDimm, &cfg);
        let b = run_event_server(PlatformKind::SmartDimm, &cfg);
        assert_eq!(a, b);
        assert_eq!(a.completed_requests, 1500);
    }

    #[test]
    fn churn_and_slow_clients_fire_on_multi_request_connections() {
        // Churn/drain coins gate the *next* request, so connections need
        // budgets above one request for the knobs to bite.
        let cfg = EventWorkloadConfig {
            churn_permille: 150,
            slow_client_permille: 100,
            ..quick(UlpKind::Tls, 256, 1200)
        };
        let m = run_event_server(PlatformKind::SmartDimm, &cfg);
        assert!(m.reconnects > 0, "150\u{2030} churn over ~4 reqs/conn");
        assert!(m.slow_drains > 0, "100\u{2030} slow clients");
        assert_eq!(m.completed_requests, 1200);
    }

    #[test]
    fn queueing_dominates_tail_when_workers_are_scarce() {
        // Same offered load, 2 workers vs 64: the scarce pool's latency
        // is queue wait, the plentiful pool's is mostly service time.
        let scarce = EventWorkloadConfig {
            workers: 2,
            think_time_ns: 1_000,
            ..quick(UlpKind::Tls, 512, 1200)
        };
        let plentiful = EventWorkloadConfig {
            workers: 64,
            ..scarce.clone()
        };
        let s = run_event_server(PlatformKind::Cpu, &scarce);
        let p = run_event_server(PlatformKind::Cpu, &plentiful);
        assert!(s.p999_resolvable, "1200 samples resolve p999");
        assert!(
            s.p99_ns > 4 * p.p99_ns,
            "scarce p99 {} vs plentiful p99 {}",
            s.p99_ns,
            p.p99_ns
        );
        assert!(s.p999_ns >= s.p99_ns && s.p99_ns >= s.p50_ns);
    }
}
