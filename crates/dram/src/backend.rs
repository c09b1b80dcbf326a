//! Pluggable-fidelity memory backends.
//!
//! [`MemoryBackend`] abstracts the surface the host memory system
//! (`memsys`) and the SmartDIMM driver actually use from the DDR model:
//! host-driven time, tagged cacheline reads/writes, the batched page
//! read, DIMM installation (the buffer-device interception point) and
//! the statistics/trace surface. Two implementations exist:
//!
//! * [`DramSystem`] — the cycle-accurate FR-FCFS controller with
//!   per-bank state machines, bus turnaround and tREFI refresh
//!   (fidelity tier 0, the reference).
//! * [`FastDramSystem`] — a fixed-latency + per-channel-FIFO queue
//!   model (fidelity tier 1): service times are derived from the same
//!   [`Timing`] parameters (tRCD/tCL/tCWL/tBURST), contention is a
//!   single FIFO per channel, and there is **no** per-burst bank state
//!   machine, bus-turnaround or refresh modeling.
//!
//! Both backends drive the *same* functional storage and buffer-device
//! interception ([`Dimm`]), so payload bytes and device-visible CAS
//! semantics — data substitution, Self-Recycle, `ALERT_N` retries — are
//! identical by construction. The fast model still *replays* the
//! open-row protocol (PRE/ACT shadow commands at zero cost) so the
//! on-DIMM Bank Table decodes every CAS to the same physical address it
//! would under the accurate controller; skipping that replay would
//! desynchronize the device's Addr Remap state (§IV-C).
//!
//! What the fast tier is allowed to get wrong is *timing only*, and the
//! differential harness (`tests/backend_differential.rs`) pins how
//! wrong: byte-identical payloads and functional statistics, timing
//! statistics within a committed tolerance band. See DESIGN.md
//! ("Memory backend fidelity tiers").
#![deny(missing_docs)]

use simkit::{Cycle, TraceSink};

use crate::addr::{AddressMapper, PhysAddr};
use crate::controller::{DramStats, DramSystem, MemorySystemConfig};
use crate::dimm::{CasInfo, Dimm, RdResult};
use crate::timing::Timing;

/// Which memory backend a configuration selects. The default is the
/// cycle-accurate reference model.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum BackendKind {
    /// Cycle-accurate FR-FCFS controller ([`DramSystem`]), tier 0.
    #[default]
    CycleAccurate,
    /// Fixed-latency + per-channel FIFO model ([`FastDramSystem`]),
    /// tier 1.
    FastQueue,
}

impl BackendKind {
    /// Stable identity string (used as a telemetry metric name, so it
    /// must stay snake_case and never change for a given tier).
    pub fn as_str(&self) -> &'static str {
        match self {
            BackendKind::CycleAccurate => "cycle_accurate",
            BackendKind::FastQueue => "fast_queue",
        }
    }

    /// Numeric fidelity tier: 0 = cycle-accurate reference, higher =
    /// faster/lower-fidelity.
    pub fn fidelity_tier(&self) -> u64 {
        match self {
            BackendKind::CycleAccurate => 0,
            BackendKind::FastQueue => 1,
        }
    }

    /// Builds the selected backend for `config`.
    pub fn build(&self, config: MemorySystemConfig) -> Box<dyn MemoryBackend> {
        match self {
            BackendKind::CycleAccurate => Box::new(DramSystem::new(config)),
            BackendKind::FastQueue => Box::new(FastDramSystem::new(config)),
        }
    }
}

impl std::fmt::Display for BackendKind {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.as_str())
    }
}

/// The memory-system surface the host model consumes, independent of
/// timing fidelity. See the module docs for the contract; the short
/// version: functional behaviour (stored bytes, buffer-device
/// interception, retry protocol) must be exact, timing may be
/// approximated within the tolerance the differential harness pins.
pub trait MemoryBackend {
    /// Which fidelity tier this backend implements.
    fn fidelity(&self) -> BackendKind;

    /// Replaces the DIMM on `channel` with one using the given buffer
    /// device — how SmartDIMM is installed.
    fn install_dimm(&mut self, channel: usize, dimm: Dimm);

    /// Mutable access to the DIMM on `channel` (buffer-device state
    /// inspection via [`crate::BufferDevice::as_any_mut`]).
    fn dimm_mut(&mut self, channel: usize) -> &mut Dimm;

    /// The address mapper in use.
    fn mapper(&self) -> &AddressMapper;

    /// The timing parameters in use.
    fn timing(&self) -> &Timing;

    /// Current controller time.
    fn now(&self) -> Cycle;

    /// Advances the controller clock by `cycles` (host-driven time).
    fn advance(&mut self, cycles: u64);

    /// Advances the controller clock to at least `t`.
    fn advance_to(&mut self, t: Cycle);

    /// Accumulated statistics.
    fn stats(&self) -> &DramStats;

    /// Resets statistics and per-channel busy counters.
    fn reset_stats(&mut self);

    /// The CAS trace (empty unless tracing was enabled in the config).
    fn trace(&self) -> &TraceSink;

    /// Clears the collected trace.
    fn clear_trace(&mut self);

    /// Data-bus / service busy cycles on `channel` since the last stats
    /// reset.
    fn channel_busy_cycles(&self, channel: usize) -> u64;

    /// Average bus/service utilization across channels over `elapsed`
    /// cycles (0.0–1.0).
    fn bus_utilization(&self, elapsed: u64) -> f64;

    /// Registers every DRAM statistic under `scope` for a
    /// `telemetry/v1` snapshot.
    fn export_telemetry(&self, scope: &mut simkit::telemetry::Scope);

    /// Reads one cacheline, retrying transparently on `ALERT_N`.
    /// Returns the data and the access latency in cycles.
    fn read64_tagged(&mut self, addr: PhysAddr, tag: u64) -> ([u8; 64], u64);

    /// Writes one cacheline (posted). Returns the cycle at which the
    /// data burst reaches the DIMM.
    fn write64_tagged(&mut self, addr: PhysAddr, data: &[u8; 64], tag: u64) -> Cycle;

    /// Batched whole-page read with a single buffer-device
    /// interception; `None` when batching does not apply (see
    /// [`DramSystem::read_page`] — same contract).
    fn read_page_tagged(&mut self, base: PhysAddr, tag: u64) -> Option<(Box<[[u8; 64]; 64]>, u64)>;

    /// [`MemoryBackend::read64_tagged`] with tag 0.
    fn read64(&mut self, addr: PhysAddr) -> ([u8; 64], u64) {
        self.read64_tagged(addr, 0)
    }

    /// [`MemoryBackend::write64_tagged`] with tag 0.
    fn write64(&mut self, addr: PhysAddr, data: &[u8; 64]) -> Cycle {
        self.write64_tagged(addr, data, 0)
    }

    /// [`MemoryBackend::read_page_tagged`] with tag 0.
    fn read_page(&mut self, base: PhysAddr) -> Option<(Box<[[u8; 64]; 64]>, u64)> {
        self.read_page_tagged(base, 0)
    }

    /// Functional convenience: reads a byte range spanning cachelines.
    fn read_bytes(&mut self, addr: PhysAddr, len: usize) -> Vec<u8> {
        let mut out = Vec::with_capacity(len);
        let mut cur = addr.0;
        let end = addr.0 + len as u64;
        while cur < end {
            let line = PhysAddr(cur).cacheline();
            let (data, _) = self.read64(line);
            let start = (cur - line.0) as usize;
            let take = ((end - cur) as usize).min(64 - start);
            out.extend_from_slice(&data[start..start + take]);
            cur += take as u64;
        }
        out
    }

    /// Functional convenience: writes a byte range spanning cachelines
    /// using read-modify-write for partial lines.
    fn write_bytes(&mut self, addr: PhysAddr, bytes: &[u8]) {
        let mut cur = addr.0;
        let mut off = 0usize;
        while off < bytes.len() {
            let line = PhysAddr(cur).cacheline();
            let start = (cur - line.0) as usize;
            let take = (bytes.len() - off).min(64 - start);
            let mut data = if start == 0 && take == 64 {
                [0u8; 64]
            } else {
                self.read64(line).0
            };
            data[start..start + take].copy_from_slice(&bytes[off..off + take]);
            self.write64(line, &data);
            cur += take as u64;
            off += take;
        }
    }
}

impl MemoryBackend for DramSystem {
    fn fidelity(&self) -> BackendKind {
        BackendKind::CycleAccurate
    }
    fn install_dimm(&mut self, channel: usize, dimm: Dimm) {
        DramSystem::install_dimm(self, channel, dimm);
    }
    fn dimm_mut(&mut self, channel: usize) -> &mut Dimm {
        DramSystem::dimm_mut(self, channel)
    }
    fn mapper(&self) -> &AddressMapper {
        DramSystem::mapper(self)
    }
    fn timing(&self) -> &Timing {
        DramSystem::timing(self)
    }
    fn now(&self) -> Cycle {
        DramSystem::now(self)
    }
    fn advance(&mut self, cycles: u64) {
        DramSystem::advance(self, cycles);
    }
    fn advance_to(&mut self, t: Cycle) {
        DramSystem::advance_to(self, t);
    }
    fn stats(&self) -> &DramStats {
        DramSystem::stats(self)
    }
    fn reset_stats(&mut self) {
        DramSystem::reset_stats(self);
    }
    fn trace(&self) -> &TraceSink {
        DramSystem::trace(self)
    }
    fn clear_trace(&mut self) {
        DramSystem::clear_trace(self);
    }
    fn channel_busy_cycles(&self, channel: usize) -> u64 {
        DramSystem::channel_busy_cycles(self, channel)
    }
    fn bus_utilization(&self, elapsed: u64) -> f64 {
        DramSystem::bus_utilization(self, elapsed)
    }
    fn export_telemetry(&self, scope: &mut simkit::telemetry::Scope) {
        DramSystem::export_telemetry(self, scope);
    }
    fn read64_tagged(&mut self, addr: PhysAddr, tag: u64) -> ([u8; 64], u64) {
        DramSystem::read64_tagged(self, addr, tag)
    }
    fn write64_tagged(&mut self, addr: PhysAddr, data: &[u8; 64], tag: u64) -> Cycle {
        DramSystem::write64_tagged(self, addr, data, tag)
    }
    fn read_page_tagged(&mut self, base: PhysAddr, tag: u64) -> Option<(Box<[[u8; 64]; 64]>, u64)> {
        DramSystem::read_page_tagged(self, base, tag)
    }
    fn read_bytes(&mut self, addr: PhysAddr, len: usize) -> Vec<u8> {
        DramSystem::read_bytes(self, addr, len)
    }
    fn write_bytes(&mut self, addr: PhysAddr, bytes: &[u8]) {
        DramSystem::write_bytes(self, addr, bytes);
    }
}

/// Sentinel for "no row open" in the shadow open-row table.
const ROW_CLOSED: usize = usize::MAX;

struct FastChannel {
    /// DIMM slots on this channel's bus; slot 0 is the DSA-bearing
    /// DIMM (same convention as the accurate controller).
    dimms: Vec<Dimm>,
    /// Cycle at which the channel's FIFO service queue drains; the next
    /// access starts at `max(now, free_at)`.
    free_at: Cycle,
    /// Accumulated service cycles since the last stats reset. In this
    /// tier "busy" is whole service occupancy (not just data-burst
    /// cycles), so under zero contention it equals the sum of the
    /// per-access service times — the invariant the queue-model property
    /// tests pin.
    busy_cycles: u64,
    /// CAS commands on this channel issued from a foreign socket
    /// (crossed the inter-socket link).
    remote_accesses: u64,
    /// Shadow open row per `[rank][bank_index]` (`ROW_CLOSED` = none),
    /// the rank axis spanning every DIMM slot: used only to replay
    /// PRE/ACT to the buffer device at zero cost.
    open_rows: Vec<Vec<usize>>,
}

/// Fixed-latency + per-channel-FIFO memory backend (fidelity tier 1).
///
/// Service times are derived from [`Timing`] and chosen to equal the
/// accurate controller's steady-state issue spacing on a same-channel
/// stream (where `issue = max(ready, bus_free)` and
/// `bus_free = issue + tCL/tCWL + tBURST`):
///
/// * cacheline read: `tCL + tBURST`
/// * cacheline write: `tCWL + tBURST`
/// * batched page read: `tRCD + tCL + 64·tBURST` (one row open, 64
///   back-to-back bursts — matches the accurate pipelined page stream)
///
/// On a row-hit read stream the per-access completion times are
/// therefore *cycle-identical* to [`DramSystem`]; what the fast tier
/// drops is activation/precharge latency (tRCD/tRP), bank-level
/// parallelism, read↔write bus turnaround and tREFI refresh. Every
/// access occupies its channel's FIFO for its full service time, so
/// "busy" here means service occupancy, not data-burst cycles — the
/// differential harness bands `bus_utilization` accordingly. The
/// `ALERT_N` retry protocol is preserved exactly (same `retry_delay`,
/// same retry limit) because the buffer device depends on it.
pub struct FastDramSystem {
    mapper: AddressMapper,
    timing: Timing,
    channels: Vec<FastChannel>,
    now: Cycle,
    stats: DramStats,
    trace: TraceSink,
    max_retries: usize,
    rd_service: u64,
    wr_service: u64,
    page_service: u64,
    interconnect_penalty: u64,
    home_socket: usize,
}

impl std::fmt::Debug for FastDramSystem {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("FastDramSystem")
            .field("now", &self.now)
            .field("channels", &self.channels.len())
            .finish()
    }
}

impl FastDramSystem {
    /// Builds a fast memory system with pass-through DIMMs on every
    /// channel.
    pub fn new(config: MemorySystemConfig) -> FastDramSystem {
        let topo = config.topology;
        let t = config.timing;
        let channels = (0..topo.channels)
            .map(|_| FastChannel {
                dimms: (0..topo.dimms_per_channel)
                    .map(|_| Dimm::passthrough())
                    .collect(),
                free_at: Cycle::ZERO,
                busy_cycles: 0,
                remote_accesses: 0,
                open_rows: vec![vec![ROW_CLOSED; topo.banks_per_rank()]; topo.ranks_per_channel()],
            })
            .collect();
        FastDramSystem {
            mapper: AddressMapper::new(topo),
            timing: t,
            channels,
            now: Cycle::ZERO,
            stats: DramStats::new(),
            trace: if config.trace {
                TraceSink::enabled()
            } else {
                TraceSink::disabled()
            },
            max_retries: 64,
            rd_service: t.t_cl + t.t_burst,
            wr_service: t.t_cwl + t.t_burst,
            page_service: t.t_rcd + t.t_cl + 64 * t.t_burst,
            interconnect_penalty: config.interconnect_penalty_cycles,
            home_socket: config.home_socket,
        }
    }

    /// Service time charged per cacheline read (`tCL + tBURST`).
    pub fn read_service_cycles(&self) -> u64 {
        self.rd_service
    }

    /// Service time charged per cacheline write (`tCWL + tBURST`).
    pub fn write_service_cycles(&self) -> u64 {
        self.wr_service
    }

    /// Service time charged per batched page read
    /// (`tRCD + tCL + 64·tBURST`).
    pub fn page_service_cycles(&self) -> u64 {
        self.page_service
    }

    /// Cycle at which `channel`'s FIFO drains (its last accepted access
    /// completes service).
    pub fn channel_free_at(&self, channel: usize) -> Cycle {
        self.channels[channel].free_at
    }

    /// Replays the open-row protocol to the buffer device at zero cost:
    /// a PRE (if another row is open) and an ACT whenever the shadow row
    /// differs from `row`, a row hit otherwise. Keeps the on-DIMM Bank
    /// Table byte-for-byte coherent with what the accurate controller
    /// would have told it.
    #[inline]
    fn shadow_open_row(
        stats: &mut DramStats,
        ch: &mut FastChannel,
        slot: usize,
        at: Cycle,
        rank: usize,
        bank_index: usize,
        row: usize,
    ) {
        let open = &mut ch.open_rows[rank][bank_index];
        if *open == row {
            stats.row_hits.inc();
            return;
        }
        if *open != ROW_CLOSED {
            stats.precharges.inc();
            ch.dimms[slot].precharge(at, rank, bank_index);
        }
        stats.activates.inc();
        ch.dimms[slot].activate(at, rank, bank_index, row);
        *open = row;
    }

    /// Whether `channel` is owned by a socket other than the home
    /// socket (accesses cross the inter-socket link).
    fn is_remote(&self, channel: usize) -> bool {
        self.mapper.topology().socket_of_channel(channel) != self.home_socket
    }

    /// Charges the inter-socket hop for an access to `channel`: bumps
    /// the remote counters and returns the extra completion latency.
    fn interconnect_charge(&mut self, channel: usize, cas: u64) -> u64 {
        if !self.is_remote(channel) {
            return 0;
        }
        self.stats.remote_accesses.add(cas);
        self.channels[channel].remote_accesses += cas;
        self.interconnect_penalty
    }
}

impl MemoryBackend for FastDramSystem {
    fn fidelity(&self) -> BackendKind {
        BackendKind::FastQueue
    }

    fn install_dimm(&mut self, channel: usize, dimm: Dimm) {
        self.channels[channel].dimms[0] = dimm;
    }

    fn dimm_mut(&mut self, channel: usize) -> &mut Dimm {
        &mut self.channels[channel].dimms[0]
    }

    fn mapper(&self) -> &AddressMapper {
        &self.mapper
    }

    fn timing(&self) -> &Timing {
        &self.timing
    }

    fn now(&self) -> Cycle {
        self.now
    }

    fn advance(&mut self, cycles: u64) {
        self.now += cycles;
    }

    fn advance_to(&mut self, t: Cycle) {
        if t > self.now {
            self.now = t;
        }
    }

    fn stats(&self) -> &DramStats {
        &self.stats
    }

    fn reset_stats(&mut self) {
        self.stats = DramStats::new();
        for ch in &mut self.channels {
            ch.busy_cycles = 0;
            ch.remote_accesses = 0;
        }
    }

    fn trace(&self) -> &TraceSink {
        &self.trace
    }

    fn clear_trace(&mut self) {
        self.trace.clear();
    }

    fn channel_busy_cycles(&self, channel: usize) -> u64 {
        self.channels[channel].busy_cycles
    }

    fn bus_utilization(&self, elapsed: u64) -> f64 {
        if elapsed == 0 {
            return 0.0;
        }
        let busy: u64 = self.channels.iter().map(|c| c.busy_cycles).sum();
        busy as f64 / (elapsed as f64 * self.channels.len() as f64)
    }

    fn export_telemetry(&self, scope: &mut simkit::telemetry::Scope) {
        scope.set_counter("rd_cas", self.stats.rd_cas.value());
        scope.set_counter("wr_cas", self.stats.wr_cas.value());
        scope.set_counter("activates", self.stats.activates.value());
        scope.set_counter("precharges", self.stats.precharges.value());
        scope.set_counter("row_hits", self.stats.row_hits.value());
        scope.set_counter("retries", self.stats.retries.value());
        scope.set_counter("refreshes", self.stats.refreshes.value());
        scope.set_counter("bytes_transferred", self.stats.bytes_transferred());
        scope.set_counter("trace_records", self.trace.records().len() as u64);
        scope.set_counter("trace_dropped_records", self.trace.dropped_records());
        scope.set_counter("remote_accesses", self.stats.remote_accesses.value());
        for (i, ch) in self.channels.iter().enumerate() {
            let s = scope.scope(&format!("channel{i}"));
            s.set_counter("busy_cycles", ch.busy_cycles);
            s.set_counter("remote_accesses", ch.remote_accesses);
        }
        // Per-socket rollups, mirroring the accurate controller's NUMA
        // view so the two tiers export the same scope shape.
        let topo = *self.mapper.topology();
        for sock in 0..topo.sockets {
            let (mut busy, mut remote) = (0u64, 0u64);
            for (i, ch) in self.channels.iter().enumerate() {
                if topo.socket_of_channel(i) == sock {
                    busy += ch.busy_cycles;
                    remote += ch.remote_accesses;
                }
            }
            let s = scope.scope(&format!("socket{sock}"));
            s.set_counter("busy_cycles", busy);
            s.set_counter("remote_accesses", remote);
        }
    }

    fn read64_tagged(&mut self, addr: PhysAddr, tag: u64) -> ([u8; 64], u64) {
        let addr = addr.cacheline();
        let loc = self.mapper.decode(addr);
        let bank_index = loc.bank_index(self.mapper.topology());
        let slot = self.mapper.topology().dimm_slot_of_rank(loc.rank);
        let hop = self.interconnect_charge(loc.channel, 1);
        let service = self.rd_service;
        let retry_delay = self.timing.retry_delay;
        let mut attempt_at = self.now;
        for _ in 0..self.max_retries {
            let ch = &mut self.channels[loc.channel];
            let issue = Cycle(attempt_at.raw().max(ch.free_at.raw()));
            Self::shadow_open_row(
                &mut self.stats,
                ch,
                slot,
                issue,
                loc.rank,
                bank_index,
                loc.row,
            );
            let done = issue + service;
            ch.free_at = done;
            ch.busy_cycles += service;
            self.stats.rd_cas.inc();
            self.trace.record(issue, "rdCAS", addr.0, tag);
            let info = CasInfo {
                loc,
                phys: addr,
                bank_index,
                at: issue,
                tag,
            };
            match self.channels[loc.channel].dimms[slot].rd_cas(&info) {
                RdResult::Data(data) => return (data, done.saturating_since(self.now) + hop),
                RdResult::Retry => {
                    // ALERT_N: same retry protocol as the accurate
                    // controller — the buffer device depends on it.
                    self.stats.retries.inc();
                    attempt_at = issue + retry_delay;
                }
            }
        }
        panic!("buffer device NACKed read at {addr} beyond the retry limit");
    }

    fn write64_tagged(&mut self, addr: PhysAddr, data: &[u8; 64], tag: u64) -> Cycle {
        let addr = addr.cacheline();
        let loc = self.mapper.decode(addr);
        let bank_index = loc.bank_index(self.mapper.topology());
        let slot = self.mapper.topology().dimm_slot_of_rank(loc.rank);
        let hop = self.interconnect_charge(loc.channel, 1);
        let service = self.wr_service;
        let ch = &mut self.channels[loc.channel];
        let issue = Cycle(self.now.raw().max(ch.free_at.raw()));
        Self::shadow_open_row(
            &mut self.stats,
            ch,
            slot,
            issue,
            loc.rank,
            bank_index,
            loc.row,
        );
        let done = issue + service;
        ch.free_at = done;
        ch.busy_cycles += service;
        self.stats.wr_cas.inc();
        self.trace.record(issue, "wrCAS", addr.0, tag);
        let info = CasInfo {
            loc,
            phys: addr,
            bank_index,
            at: issue,
            tag,
        };
        self.channels[loc.channel].dimms[slot].wr_cas(&info, data);
        done + hop
    }

    fn read_page_tagged(&mut self, base: PhysAddr, tag: u64) -> Option<(Box<[[u8; 64]; 64]>, u64)> {
        const LINES: usize = 64;
        let base = PhysAddr(base.0 & !0xFFF);
        let locs: [crate::addr::Loc; LINES] =
            std::array::from_fn(|i| self.mapper.decode(PhysAddr(base.0 + (i as u64) * 64)));
        let channel = locs[0].channel;
        if locs.iter().any(|l| l.channel != channel) {
            return None; // page striped across channels: per-line path
        }
        let topo = *self.mapper.topology();
        let slot = topo.dimm_slot_of_rank(locs[0].rank);
        if locs.iter().any(|l| topo.dimm_slot_of_rank(l.rank) != slot) {
            return None; // page striped across DIMM slots: per-line path
        }
        if !self.channels[channel].dimms[slot].page_read_supported(base) {
            return None;
        }
        let hop = self.interconnect_charge(channel, LINES as u64);
        let service = self.page_service;
        let t_burst = self.timing.t_burst;
        let ch = &mut self.channels[channel];
        let issue = Cycle(self.now.raw().max(ch.free_at.raw()));
        let mut coords = [(0usize, 0usize, 0usize, 0usize); LINES];
        for (i, loc) in locs.iter().enumerate() {
            let bank_index = loc.bank_index(&topo);
            coords[i] = (loc.rank, bank_index, loc.row, loc.col);
            Self::shadow_open_row(
                &mut self.stats,
                ch,
                slot,
                issue,
                loc.rank,
                bank_index,
                loc.row,
            );
        }
        let done = issue + service;
        ch.free_at = done;
        ch.busy_cycles += service;
        self.stats.rd_cas.add(LINES as u64);
        if self.trace.is_enabled() {
            for i in 0..LINES {
                self.trace.record(
                    issue + (i as u64) * t_burst,
                    "rdCAS",
                    base.0 + (i as u64) * 64,
                    tag,
                );
            }
        }
        let data = self.channels[channel].dimms[slot].rd_page(base, issue, t_burst, &coords);
        Some((data, done.saturating_since(self.now) + hop))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::addr::DramTopology;

    fn fast() -> FastDramSystem {
        FastDramSystem::new(MemorySystemConfig::default())
    }

    #[test]
    fn fast_write_then_read_round_trip() {
        let mut s = fast();
        let addr = PhysAddr(0x10000);
        s.write64(addr, &[0x5A; 64]);
        s.advance(1_000); // drain the posted write from the FIFO
        let (data, lat) = s.read64(addr);
        assert_eq!(data, [0x5A; 64]);
        assert_eq!(lat, s.read_service_cycles());
    }

    #[test]
    fn fast_fifo_serializes_a_channel() {
        let mut s = fast();
        // Two back-to-back reads: the second queues behind the first.
        let (_, first) = s.read64(PhysAddr(0));
        let (_, second) = s.read64(PhysAddr(64));
        assert_eq!(first, s.read_service_cycles());
        assert_eq!(second, 2 * s.read_service_cycles());
        assert_eq!(s.channel_busy_cycles(0), 2 * s.read_service_cycles());
    }

    #[test]
    fn fast_idle_gaps_do_not_count_as_busy() {
        let mut s = fast();
        let _ = s.read64(PhysAddr(0));
        s.advance(10_000);
        let _ = s.read64(PhysAddr(0));
        assert_eq!(s.channel_busy_cycles(0), 2 * s.read_service_cycles());
        assert!(s.bus_utilization(20_000) < 0.1);
    }

    #[test]
    fn fast_functional_bytes_match_accurate_backend() {
        let mut fast = fast();
        let mut acc = DramSystem::new(MemorySystemConfig::default());
        let payload: Vec<u8> = (0..900u32).map(|i| (i * 13) as u8).collect();
        MemoryBackend::write_bytes(&mut fast, PhysAddr(0x2010), &payload);
        acc.write_bytes(PhysAddr(0x2010), &payload);
        assert_eq!(
            MemoryBackend::read_bytes(&mut fast, PhysAddr(0x2010), 900),
            acc.read_bytes(PhysAddr(0x2010), 900)
        );
        // Same CAS counts on the straight-line path (no retries here).
        assert_eq!(fast.stats().rd_cas.value(), acc.stats().rd_cas.value());
        assert_eq!(fast.stats().wr_cas.value(), acc.stats().wr_cas.value());
    }

    #[test]
    fn fast_page_read_matches_per_line_reads() {
        let mut a = fast();
        let mut b = fast();
        for i in 0..64u64 {
            let mut line = [0u8; 64];
            line[0] = i as u8;
            a.write64(PhysAddr(0x4000 + i * 64), &line);
            b.write64(PhysAddr(0x4000 + i * 64), &line);
        }
        let (page, lat) = a.read_page(PhysAddr(0x4000)).expect("passthrough pages");
        for i in 0..64usize {
            let (line, _) = b.read64(PhysAddr(0x4000 + (i as u64) * 64));
            assert_eq!(page[i], line, "line {i}");
        }
        assert_eq!(a.stats().rd_cas.value(), b.stats().rd_cas.value());
        assert!(lat >= a.page_service_cycles());
    }

    #[test]
    fn fast_page_read_declines_when_page_spans_channels() {
        let topo = DramTopology {
            channels: 2,
            ..DramTopology::default()
        };
        let mut s = FastDramSystem::new(MemorySystemConfig {
            topology: topo,
            ..MemorySystemConfig::default()
        });
        assert!(s.read_page(PhysAddr(0)).is_none());
        let _ = s.read64(PhysAddr(0));
    }

    #[test]
    fn fast_multi_channel_addresses_route_correctly() {
        let topo = DramTopology {
            channels: 2,
            ..DramTopology::default()
        };
        let mut s = FastDramSystem::new(MemorySystemConfig {
            topology: topo,
            ..MemorySystemConfig::default()
        });
        s.write64(PhysAddr(0), &[1u8; 64]);
        s.write64(PhysAddr(64), &[2u8; 64]);
        assert_eq!(s.read64(PhysAddr(0)).0, [1u8; 64]);
        assert_eq!(s.read64(PhysAddr(64)).0, [2u8; 64]);
        assert!(s.channel_busy_cycles(0) > 0);
        assert!(s.channel_busy_cycles(1) > 0);
    }

    #[test]
    fn fast_remote_socket_access_pays_interconnect_penalty() {
        let topo = DramTopology {
            channels: 2,
            sockets: 2,
            ..DramTopology::default()
        };
        let mut s = FastDramSystem::new(MemorySystemConfig {
            topology: topo,
            interconnect_penalty_cycles: 300,
            home_socket: 0,
            ..MemorySystemConfig::default()
        });
        let (_, local) = s.read64(PhysAddr(0)); // channel 0, socket 0
        let (_, remote) = s.read64(PhysAddr(64)); // channel 1, socket 1
        assert_eq!(local, s.read_service_cycles());
        assert_eq!(remote, s.read_service_cycles() + 300);
        assert_eq!(s.stats().remote_accesses.value(), 1);
    }

    #[test]
    fn fast_multi_dimm_slots_round_trip() {
        let topo = DramTopology {
            dimms_per_channel: 2,
            ..DramTopology::default()
        };
        let mapper = AddressMapper::new(topo);
        let mut s = FastDramSystem::new(MemorySystemConfig {
            topology: topo,
            ..MemorySystemConfig::default()
        });
        let mut per_slot = [None, None];
        for line in 0..1 << 16 {
            let a = PhysAddr(line * 64);
            let slot = topo.dimm_slot_of_rank(mapper.decode(a).rank);
            if per_slot[slot].is_none() {
                per_slot[slot] = Some(a);
            }
        }
        let (a0, a1) = (per_slot[0].unwrap(), per_slot[1].unwrap());
        s.write64(a0, &[0x33u8; 64]);
        s.write64(a1, &[0x44u8; 64]);
        assert_eq!(s.read64(a0).0, [0x33u8; 64]);
        assert_eq!(s.read64(a1).0, [0x44u8; 64]);
    }

    #[test]
    fn backend_kind_builds_the_matching_fidelity() {
        for kind in [BackendKind::CycleAccurate, BackendKind::FastQueue] {
            let b = kind.build(MemorySystemConfig::default());
            assert_eq!(b.fidelity(), kind);
        }
        assert_eq!(BackendKind::default(), BackendKind::CycleAccurate);
        assert_eq!(BackendKind::CycleAccurate.fidelity_tier(), 0);
        assert_eq!(BackendKind::FastQueue.fidelity_tier(), 1);
        assert_eq!(BackendKind::FastQueue.as_str(), "fast_queue");
    }
}
