//! The CPU-side memory controller: [`DramSystem`].
//!
//! The controller owns every bank's row state (SmartDIMM's cardinal
//! constraint: the *host* controller is the only agent that manages DRAM
//! state — the buffer device never issues its own commands), issues
//! every access in arrival order with an open-page policy (no request
//! queue, no reordering, no write batching), runs the `ALERT_N` retry
//! protocol, and exposes
//! per-channel bandwidth statistics plus the rdCAS/wrCAS trace used by
//! Fig. 9.
//!
//! One controller serves both fidelity tiers ([`BackendKind`]). They
//! differ only in the timing rule each channel applies:
//!
//! * cycle-accurate (tier 0, the reference): per-bank state machines
//!   (tRCD/tRP/tRAS/tWR), data-bus occupancy with read↔write turnaround,
//!   and tREFI all-bank refresh;
//! * fast queue (tier 1): one FIFO per channel with fixed service times
//!   derived from the same [`Timing`] — `tCL + tBURST` per read,
//!   `tCWL + tBURST` per write, `tRCD + tCL + 64·tBURST` per batched
//!   page — and no bank timing, turnaround or refresh.
//!
//! Everything else is written once: address mapping, the DIMM slots and
//! their buffer devices, the retry protocol, the inter-socket hop, the
//! batched page read, statistics, trace and telemetry. Every PRE/ACT —
//! including the precharges a refresh implies — goes through one
//! bank-command path that also delivers it to the buffer device, so the
//! on-DIMM Bank Table (§IV-C) follows the controller's row state on
//! either tier. The fast tier keeps a shadow open-row table for exactly
//! that purpose.
//!
//! Time model: the caller (the `memsys` crate's host model) owns the
//! clock and advances it with [`DramSystem::advance`]; each access issues
//! at the earliest cycle its channel's timing rule permits at-or-after
//! "now" and reports its completion cycle, so overlapping accesses from
//! different banks pipeline exactly as the open-bank state allows.

use simkit::{Cycle, TraceSink};

use crate::addr::{AddressMapper, DramTopology, Loc, PhysAddr, BANKS_PER_RANK, DSA_SLOT};
use crate::backend::BackendKind;
use crate::bank::{Bank, RowState};
use crate::dimm::{CasInfo, Dimm, RdResult};
use crate::timing::Timing;

/// The DDR timing every channel applies.
const DDR: Timing = Timing::DDR4_3200;

/// Data-bus direction, for turnaround penalties.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum BusDir {
    Idle,
    Read,
    Write,
}

impl BusDir {
    /// Turnaround a CAS in direction `next` pays after the bus last
    /// carried `self`.
    fn turnaround(self, next: BusDir) -> u64 {
        match (self, next) {
            (BusDir::Write, BusDir::Read) => DDR.t_wtr,
            (BusDir::Read, BusDir::Write) => DDR.t_rtw,
            _ => 0,
        }
    }
}

/// A channel's timing state: the only part of the controller the two
/// fidelity tiers do not share.
enum Tier {
    /// Cycle-accurate: bank state machines, data-bus occupancy and
    /// direction, and the next scheduled tREFI refresh.
    Accurate {
        banks: Vec<Vec<Bank>>, // [rank within channel, spanning slots][bank_index]
        bus_free: Cycle,
        bus_dir: BusDir,
        next_refresh: Cycle,
    },
    /// Fixed-latency FIFO: the next access starts at `max(now, free_at)`.
    /// `open_rows[rank][bank_index]` shadows each bank's open row, used
    /// only to replay PRE/ACT to the buffer device at zero cost.
    Fast {
        free_at: Cycle,
        open_rows: Vec<Vec<Option<usize>>>,
    },
}

struct Channel {
    /// DIMM slots on this channel's bus; [`DSA_SLOT`] is the
    /// DSA-bearing DIMM, the rest are plain capacity DIMMs. The decoded
    /// rank field spans all slots (`rank / ranks` selects the slot).
    dimms: Vec<Dimm>,
    /// Busy cycles since the last stats reset: data-burst cycles on the
    /// accurate tier, whole service occupancy on the fast tier (so under
    /// zero contention it equals the sum of the service times).
    busy_cycles: u64,
    /// CAS commands on this channel issued from a foreign socket
    /// (crossed the inter-socket link).
    remote_accesses: u64,
    tier: Tier,
}

/// Where one cacheline lives: what every CAS to it needs.
#[derive(Clone, Copy)]
struct Target {
    /// The cacheline's address.
    phys: PhysAddr,
    loc: Loc,
    /// Flat bank index within the rank.
    bank_index: usize,
    /// DIMM slot on the channel.
    slot: usize,
}

/// Configuration for a [`DramSystem`].
#[derive(Debug, Clone, Default)]
pub struct MemorySystemConfig {
    /// DRAM organization.
    pub topology: DramTopology,
    /// Whether to collect a rdCAS/wrCAS trace (Fig. 9).
    pub trace: bool,
    /// Extra completion latency (command-clock cycles) charged on every
    /// CAS that targets a remote channel ([`DramTopology::is_remote`]) —
    /// the inter-socket link hop. The penalty rides on the request path,
    /// not the DDR bus, so bank and bus state are unaffected.
    pub interconnect_penalty_cycles: u64,
}

/// Aggregate DRAM statistics.
#[derive(Debug, Clone, Default)]
pub struct DramStats {
    /// Read CAS commands issued.
    pub rd_cas: u64,
    /// Write CAS commands issued.
    pub wr_cas: u64,
    /// Row activations.
    pub activates: u64,
    /// Precharges (row conflicts; refresh precharges are not counted).
    pub precharges: u64,
    /// CAS commands that hit an open row.
    pub row_hits: u64,
    /// `ALERT_N` retries observed (§IV-D).
    pub retries: u64,
    /// All-bank refresh commands issued (tREFI cadence).
    pub refreshes: u64,
    /// CAS commands that crossed the inter-socket link (the target
    /// channel is remote, [`DramTopology::is_remote`]).
    pub remote_accesses: u64,
}

impl DramStats {
    /// Total bytes moved over the DDR buses.
    pub fn bytes_transferred(&self) -> u64 {
        (self.rd_cas + self.wr_cas) * 64
    }
}

/// The DDR memory system: channels of DIMMs behind one controller.
///
/// # Example
///
/// ```
/// use dram::{DramSystem, MemorySystemConfig, PhysAddr};
/// let mut sys = DramSystem::new(MemorySystemConfig::default());
/// sys.write64(PhysAddr(0), &[1u8; 64]);
/// sys.advance(100);
/// let (data, _latency) = sys.read64(PhysAddr(0));
/// assert_eq!(data[0], 1);
/// ```
pub struct DramSystem {
    mapper: AddressMapper,
    fidelity: BackendKind,
    channels: Vec<Channel>,
    now: Cycle,
    stats: DramStats,
    trace: TraceSink,
    max_retries: usize,
    interconnect_penalty: u64,
}

impl std::fmt::Debug for DramSystem {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("DramSystem")
            .field("fidelity", &self.fidelity)
            .field("now", &self.now)
            .field("channels", &self.channels.len())
            .finish()
    }
}

impl DramSystem {
    /// Builds a cycle-accurate memory system with pass-through DIMMs on
    /// every channel ([`BackendKind::build`] selects the tier).
    pub fn new(config: MemorySystemConfig) -> DramSystem {
        DramSystem::with_fidelity(config, BackendKind::CycleAccurate)
    }

    /// Builds a memory system of the given fidelity tier with
    /// pass-through DIMMs on every channel.
    pub(crate) fn with_fidelity(config: MemorySystemConfig, fidelity: BackendKind) -> DramSystem {
        let topo = config.topology;
        let channels = (0..topo.channels)
            .map(|_| Channel {
                dimms: (0..topo.dimms_per_channel)
                    .map(|_| Dimm::passthrough())
                    .collect(),
                busy_cycles: 0,
                remote_accesses: 0,
                tier: match fidelity {
                    BackendKind::CycleAccurate => Tier::Accurate {
                        banks: vec![
                            vec![Bank::default(); BANKS_PER_RANK];
                            topo.ranks_per_channel()
                        ],
                        bus_free: Cycle::ZERO,
                        bus_dir: BusDir::Idle,
                        next_refresh: Cycle(DDR.t_refi),
                    },
                    BackendKind::FastQueue => Tier::Fast {
                        free_at: Cycle::ZERO,
                        open_rows: vec![vec![None; BANKS_PER_RANK]; topo.ranks_per_channel()],
                    },
                },
            })
            .collect();
        DramSystem {
            mapper: AddressMapper::new(topo),
            fidelity,
            channels,
            now: Cycle::ZERO,
            stats: DramStats::default(),
            trace: if config.trace {
                TraceSink::enabled()
            } else {
                TraceSink::disabled()
            },
            max_retries: 64,
            interconnect_penalty: config.interconnect_penalty_cycles,
        }
    }

    /// Which fidelity tier's timing rule the channels apply.
    pub fn fidelity(&self) -> BackendKind {
        self.fidelity
    }

    /// Replaces the [`DSA_SLOT`] DIMM on `channel` with one using the
    /// given buffer device — how SmartDIMM is installed. The remaining
    /// slots stay pass-through capacity DIMMs.
    ///
    /// # Panics
    ///
    /// Panics if `channel` is out of range.
    pub fn install_dimm(&mut self, channel: usize, dimm: Dimm) {
        self.channels[channel].dimms[DSA_SLOT] = dimm;
    }

    /// Mutable access to the [`DSA_SLOT`] DIMM on `channel`
    /// (for buffer-device state inspection via
    /// [`crate::BufferDevice::as_any_mut`]).
    pub fn dimm_mut(&mut self, channel: usize) -> &mut Dimm {
        &mut self.channels[channel].dimms[DSA_SLOT]
    }

    /// Charges the inter-socket hop for `cas` commands to `channel`:
    /// bumps the remote counters and returns the extra completion
    /// latency (zero for a local channel).
    fn interconnect_charge(&mut self, channel: usize, cas: u64) -> u64 {
        if !self.mapper.topology().is_remote(channel) {
            return 0;
        }
        self.stats.remote_accesses += cas;
        self.channels[channel].remote_accesses += cas;
        self.interconnect_penalty
    }

    /// Current controller time.
    pub fn now(&self) -> Cycle {
        self.now
    }

    /// Advances the controller clock by `cycles` (host-driven time).
    pub fn advance(&mut self, cycles: u64) {
        self.now += cycles;
    }

    /// Advances the controller clock to at least `t`.
    pub fn advance_to(&mut self, t: Cycle) {
        if t > self.now {
            self.now = t;
        }
    }

    /// Accumulated statistics.
    pub fn stats(&self) -> &DramStats {
        &self.stats
    }

    /// Resets statistics and per-channel busy counters.
    pub fn reset_stats(&mut self) {
        self.stats = DramStats::default();
        for ch in &mut self.channels {
            ch.busy_cycles = 0;
            ch.remote_accesses = 0;
        }
    }

    /// The CAS trace (empty unless tracing was enabled in the config).
    pub fn trace(&self) -> &TraceSink {
        &self.trace
    }

    /// Busy cycles on `channel` since the last stats reset (data-bus
    /// cycles on the accurate tier, service occupancy on the fast tier).
    pub fn channel_busy_cycles(&self, channel: usize) -> u64 {
        self.channels[channel].busy_cycles
    }

    /// Registers every DRAM statistic (command counters, per-channel
    /// bus-busy cycles, trace retention) under `scope` for a
    /// `telemetry/v1` snapshot.
    pub fn export_telemetry(&self, scope: &mut simkit::telemetry::Scope) {
        scope.set_counter("rd_cas", self.stats.rd_cas);
        scope.set_counter("wr_cas", self.stats.wr_cas);
        scope.set_counter("activates", self.stats.activates);
        scope.set_counter("precharges", self.stats.precharges);
        scope.set_counter("row_hits", self.stats.row_hits);
        scope.set_counter("retries", self.stats.retries);
        scope.set_counter("refreshes", self.stats.refreshes);
        scope.set_counter("bytes_transferred", self.stats.bytes_transferred());
        scope.set_counter("trace_records", self.trace.records().len() as u64);
        scope.set_counter("trace_dropped_records", self.trace.dropped_records());
        scope.set_counter("remote_accesses", self.stats.remote_accesses);
        for (i, ch) in self.channels.iter().enumerate() {
            let s = scope.scope(&format!("channel{i}"));
            s.set_counter("busy_cycles", ch.busy_cycles);
            s.set_counter("remote_accesses", ch.remote_accesses);
        }
        // Per-socket rollups: the NUMA view of the same counters, so a
        // report shows where the traffic landed and how much of it
        // crossed the link.
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

    /// The one bank-command path. `Some(row)` opens `row` in the bank
    /// by the channel's timing rule, issuing PRE/ACT as needed and
    /// counting them (or a row hit), and returns the cycle at which a
    /// CAS may issue. `None` is a refresh precharge: it closes the bank
    /// without counting. Either way the buffer device of the bank's
    /// DIMM slot sees every PRE/ACT, so its Bank Table follows the
    /// controller's row state (§IV-C).
    fn bank_command(
        &mut self,
        channel: usize,
        at: Cycle,
        rank: usize,
        bank_index: usize,
        row: Option<usize>,
    ) -> Cycle {
        let slot = self.mapper.topology().dimm_slot_of_rank(rank);
        let ch = &mut self.channels[channel];
        let (ready, precharged, activated) = match &mut ch.tier {
            Tier::Accurate { banks, .. } => {
                let bank = &mut banks[rank][bank_index];
                match row {
                    Some(row) => {
                        let (ready, activated, precharged) = bank.open_row(at, row, &DDR);
                        (ready, precharged, activated)
                    }
                    None => {
                        let was_open = bank.state() != RowState::Closed;
                        bank.precharge(at, &DDR);
                        (at, was_open, false)
                    }
                }
            }
            // No bank timing: the CAS waits only for the channel's FIFO,
            // and the shadow row changes at zero cost.
            Tier::Fast { free_at, open_rows } => {
                let open = std::mem::replace(&mut open_rows[rank][bank_index], row);
                let changed = open != row;
                (
                    at.max(*free_at),
                    changed && open.is_some(),
                    changed && row.is_some(),
                )
            }
        };
        if precharged {
            ch.dimms[slot].precharge(ready, rank, bank_index);
        }
        let Some(row) = row else {
            return ready;
        };
        if precharged {
            self.stats.precharges += 1;
        }
        if activated {
            self.stats.activates += 1;
            ch.dimms[slot].activate(ready, rank, bank_index, row);
        } else {
            self.stats.row_hits += 1;
        }
        ready
    }

    /// Applies any refresh windows due at-or-before `at` on `channel`:
    /// each due tREFI tick precharges every bank and pushes the command
    /// past the tRFC window. The fast tier models no refresh.
    fn refresh_gate(&mut self, channel: usize, mut at: Cycle) -> Cycle {
        let topo = *self.mapper.topology();
        loop {
            let Tier::Accurate { next_refresh, .. } = &mut self.channels[channel].tier else {
                return at;
            };
            let due = *next_refresh;
            if at < due {
                return at;
            }
            *next_refresh = due + DDR.t_refi;
            self.stats.refreshes += 1;
            for rank in 0..topo.ranks_per_channel() {
                for bank_index in 0..BANKS_PER_RANK {
                    self.bank_command(channel, due, rank, bank_index, None);
                }
            }
            at = at.max(due + DDR.t_rfc);
        }
    }

    /// Where the cacheline holding `addr` lives: its decode, flat bank
    /// index and DIMM slot. Charges nothing.
    // This and the per-CAS helpers below (`route`, `cas`, `issue_cas`)
    // are forced inline: left to the optimizer, the split cost ≈10% of
    // the host time of a simulated CAS on a 2-vCPU x86-64 VM.
    #[inline(always)]
    fn target(&self, addr: PhysAddr) -> Target {
        let phys = addr.cacheline();
        let loc = self.mapper.decode(phys);
        let topo = self.mapper.topology();
        Target {
            phys,
            loc,
            bank_index: loc.bank_index(),
            slot: topo.dimm_slot_of_rank(loc.rank),
        }
    }

    /// The routing prologue of a one-line access: the line's target, the
    /// inter-socket hop it pays, and the earliest cycle past any due
    /// refresh.
    #[inline(always)]
    fn route(&mut self, addr: PhysAddr) -> (Target, u64, Cycle) {
        let t = self.target(addr);
        let hop = self.interconnect_charge(t.loc.channel, 1);
        let at = self.refresh_gate(t.loc.channel, self.now);
        (t, hop, at)
    }

    /// The one CAS step, which every rdCAS and wrCAS passes: counts the
    /// command, records it in the trace and builds the [`CasInfo`] the
    /// DIMM sees for it.
    #[inline(always)]
    fn cas(&mut self, dir: BusDir, t: &Target, at: Cycle, tag: u64) -> CasInfo {
        let kind = if dir == BusDir::Read {
            self.stats.rd_cas += 1;
            "rdCAS"
        } else {
            self.stats.wr_cas += 1;
            "wrCAS"
        };
        self.trace.record(at, kind, t.phys.0, tag);
        CasInfo {
            loc: t.loc,
            phys: t.phys,
            bank_index: t.bank_index,
            at,
            tag,
        }
    }

    /// Issues one CAS in direction `dir` to the target's row, no earlier
    /// than `at`: opens the row, then applies the channel's data-bus
    /// rule. Returns the issue cycle and the cycle the data burst
    /// completes.
    #[inline(always)]
    fn issue_cas(&mut self, t: &Target, at: Cycle, dir: BusDir) -> (Cycle, Cycle) {
        let latency = if dir == BusDir::Read {
            DDR.t_cl
        } else {
            DDR.t_cwl
        };
        let (channel, rank, bank_index) = (t.loc.channel, t.loc.rank, t.bank_index);
        let ready = self.bank_command(channel, at, rank, bank_index, Some(t.loc.row));
        let ch = &mut self.channels[channel];
        let issue = match &mut ch.tier {
            Tier::Accurate {
                banks,
                bus_free,
                bus_dir,
                ..
            } => {
                let issue = ready.max(*bus_free) + bus_dir.turnaround(dir);
                *bus_free = issue + latency + DDR.t_burst;
                *bus_dir = dir;
                ch.busy_cycles += DDR.t_burst;
                let bank = &mut banks[rank][bank_index];
                if dir == BusDir::Read {
                    bank.on_read(issue, &DDR);
                } else {
                    bank.on_write(issue, &DDR);
                }
                issue
            }
            Tier::Fast { free_at, .. } => {
                *free_at = ready + latency + DDR.t_burst;
                ch.busy_cycles += latency + DDR.t_burst;
                ready
            }
        };
        (issue, issue + latency + DDR.t_burst)
    }

    /// Reads one cacheline. Returns the data and the access latency in
    /// cycles (from "now" to data available). Retries transparently when
    /// the buffer device asserts `ALERT_N`.
    ///
    /// # Panics
    ///
    /// Panics if the buffer device keeps NACKing past the retry limit
    /// (indicates a deadlocked near-memory computation).
    pub fn read64(&mut self, addr: PhysAddr) -> ([u8; 64], u64) {
        self.read64_tagged(addr, 0)
    }

    /// [`DramSystem::read64`] with a stream tag recorded in the trace.
    pub fn read64_tagged(&mut self, addr: PhysAddr, tag: u64) -> ([u8; 64], u64) {
        let (t, hop, mut attempt_at) = self.route(addr);
        for _ in 0..self.max_retries {
            let (issue, done) = self.issue_cas(&t, attempt_at, BusDir::Read);
            let info = self.cas(BusDir::Read, &t, issue, tag);
            match self.channels[t.loc.channel].dimms[t.slot].rd_cas(&info) {
                RdResult::Data(data) => return (data, done.saturating_since(self.now) + hop),
                RdResult::Retry => {
                    // ALERT_N: retry after the standard delay.
                    self.stats.retries += 1;
                    attempt_at = issue + DDR.retry_delay;
                }
            }
        }
        panic!(
            "buffer device NACKed read at {} beyond the retry limit",
            t.phys
        );
    }

    /// Writes one cacheline (posted). Returns the cycle at which the data
    /// burst reaches the DIMM.
    pub fn write64(&mut self, addr: PhysAddr, data: &[u8; 64]) -> Cycle {
        self.write64_tagged(addr, data, 0)
    }

    /// [`DramSystem::write64`] with a stream tag recorded in the trace.
    pub fn write64_tagged(&mut self, addr: PhysAddr, data: &[u8; 64], tag: u64) -> Cycle {
        let (t, hop, at) = self.route(addr);
        let (issue, done) = self.issue_cas(&t, at, BusDir::Write);
        let info = self.cas(BusDir::Write, &t, issue, tag);
        self.channels[t.loc.channel].dimms[t.slot].wr_cas(&info, data);
        done + hop
    }

    /// Batched whole-page read: all 64 cachelines of the 4 KB page
    /// containing `base`, with a *single* buffer-device interception.
    /// `tag` is the stream tag recorded in the trace.
    ///
    /// Returns `None` when batching is not applicable — the page spans
    /// multiple channels under fine-grain interleaving, or the buffer
    /// device declines (`page_read_supported` is false, e.g. a SmartDIMM
    /// destination page whose lines may need `ALERT_N` retries). Callers
    /// must then fall back to per-line [`DramSystem::read64`]; nothing
    /// has been mutated when `None` is returned.
    ///
    /// Data, `rd_cas` and activate/row-hit accounting are identical to 64
    /// per-line reads. Timing is modeled as one pipelined stream: every
    /// touched bank opens its row once, then the 64 bursts ship
    /// back-to-back on the data bus (one CAS latency for the whole page
    /// instead of 64 serialized ones) — that is what a page-granular
    /// buffer-device transfer buys, and why the fast path is faster in
    /// simulated time as well as host wall-clock.
    pub fn read_page_tagged(
        &mut self,
        base: PhysAddr,
        tag: u64,
    ) -> Option<(Box<[[u8; 64]; 64]>, u64)> {
        const LINES: usize = 64;
        let base = PhysAddr(base.0 & !0xFFF);
        let first = self.target(base);
        let (channel, slot) = (first.loc.channel, first.slot);
        let mut lines = [first; LINES];
        for (i, t) in lines.iter_mut().enumerate().skip(1) {
            *t = self.target(PhysAddr(base.0 + (i as u64) * 64));
            if t.loc.channel != channel || t.slot != slot {
                return None; // page striped across channels or DIMM slots: per-line path
            }
        }
        if !self.channels[channel].dimms[slot].page_read_supported(base) {
            return None;
        }
        let start = self.refresh_gate(channel, self.now);
        // Every line opens its row at `start`: the first line on a
        // (rank, bank, row) issues the PRE/ACT, the rest are stateless
        // row hits, exactly as the per-line path would count them.
        let mut ready = start;
        for t in &lines {
            ready = ready.max(self.bank_command(
                channel,
                start,
                t.loc.rank,
                t.bank_index,
                Some(t.loc.row),
            ));
        }
        let ch = &mut self.channels[channel];
        let (issue, done) = match &mut ch.tier {
            // One streamed transfer: CAS once all rows are open, then 64
            // back-to-back bursts on the data bus.
            Tier::Accurate {
                banks,
                bus_free,
                bus_dir,
                ..
            } => {
                let issue = ready.max(*bus_free) + bus_dir.turnaround(BusDir::Read);
                let last_issue = issue + (LINES as u64 - 1) * DDR.t_burst;
                let done = last_issue + DDR.t_cl + DDR.t_burst;
                *bus_free = done;
                *bus_dir = BusDir::Read;
                ch.busy_cycles += LINES as u64 * DDR.t_burst;
                for t in &lines {
                    banks[t.loc.rank][t.bank_index].on_read(last_issue, &DDR);
                }
                (issue, done)
            }
            // One row open plus 64 back-to-back bursts.
            Tier::Fast { free_at, .. } => {
                let service = DDR.t_rcd + DDR.t_cl + LINES as u64 * DDR.t_burst;
                *free_at = ready + service;
                ch.busy_cycles += service;
                (ready, ready + service)
            }
        };
        let mut coords = [(0usize, 0usize, 0usize, 0usize); LINES];
        for (i, t) in lines.iter().enumerate() {
            let info = self.cas(BusDir::Read, t, issue + (i as u64) * DDR.t_burst, tag);
            coords[i] = (info.loc.rank, info.bank_index, info.loc.row, info.loc.col);
        }
        let hop = self.interconnect_charge(channel, LINES as u64);
        let data = self.channels[channel].dimms[slot].rd_page(base, issue, DDR.t_burst, &coords);
        Some((data, done.saturating_since(self.now) + hop))
    }

    /// The cells of the cacheline at `addr` as the chips hold them: no
    /// command issued, no time, statistics or trace, and no buffer
    /// device callback.
    pub fn peek(&self, addr: PhysAddr) -> [u8; 64] {
        let t = self.target(addr);
        self.channels[t.loc.channel].dimms[t.slot].peek(
            t.loc.rank,
            t.bank_index,
            t.loc.row,
            t.loc.col,
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sys() -> DramSystem {
        DramSystem::new(MemorySystemConfig::default())
    }

    /// Both fidelity tiers: a test over this array checks one behaviour
    /// on each.
    const TIERS: [BackendKind; 2] = [BackendKind::CycleAccurate, BackendKind::FastQueue];

    /// A memory system of tier `kind` over `topology`.
    fn tier_with(kind: BackendKind, topology: DramTopology, penalty: u64) -> DramSystem {
        kind.build(MemorySystemConfig {
            topology,
            interconnect_penalty_cycles: penalty,
            ..MemorySystemConfig::default()
        })
    }

    /// A CAS to an open row with an idle bus: the data latency.
    const READ_SERVICE: u64 = DDR.t_cl + DDR.t_burst;

    #[test]
    fn write_then_read_round_trip() {
        for kind in TIERS {
            let mut s = tier_with(kind, DramTopology::default(), 0);
            let addr = PhysAddr(0x10000);
            s.write64(addr, &[0x5A; 64]);
            s.advance(1_000); // drain the posted write
            let (data, lat) = s.read64(addr);
            assert_eq!(data, [0x5A; 64], "{kind}");
            // The accurate bus still turns around from the write.
            let want = match kind {
                BackendKind::CycleAccurate => DDR.t_wtr + READ_SERVICE,
                BackendKind::FastQueue => READ_SERVICE,
            };
            assert_eq!(lat, want, "{kind}");
        }
    }

    #[test]
    fn unaligned_addresses_hit_same_line() {
        let mut s = sys();
        s.write64(PhysAddr(0x1000), &[7u8; 64]);
        let (data, _) = s.read64(PhysAddr(0x1020));
        assert_eq!(data, [7u8; 64]);
    }

    #[test]
    fn row_hit_is_faster_than_row_miss() {
        let mut s = sys();
        let a = PhysAddr(0);
        // First access: closed bank (ACT + CAS).
        let (_, miss_lat) = s.read64(a);
        s.advance(200); // drain the bus so the second access is unqueued
                        // Second access to the same line: open row.
        let (_, hit_lat) = s.read64(a);
        assert!(hit_lat < miss_lat, "hit {hit_lat} vs miss {miss_lat}");
    }

    #[test]
    fn row_conflict_costs_precharge() {
        let mut s = sys();
        // Same bank, different row: stride by one full row-buffer worth of
        // bank-interleaved lines (banks * lines per row cachelines).
        let stride = (BANKS_PER_RANK * crate::addr::LINES_PER_ROW * 64) as u64;
        let (_, first) = s.read64(PhysAddr(0));
        s.advance(1000);
        let (_, _hit) = s.read64(PhysAddr(0));
        let before = s.stats().precharges;
        let (_, _conflict) = s.read64(PhysAddr(stride));
        assert_eq!(s.stats().precharges, before + 1);
        assert!(first > 0);
    }

    #[test]
    fn stats_count_cas_commands() {
        let mut s = sys();
        for i in 0..10u64 {
            s.write64(PhysAddr(i * 64), &[0u8; 64]);
        }
        for i in 0..7u64 {
            let _ = s.read64(PhysAddr(i * 64));
        }
        assert_eq!(s.stats().wr_cas, 10);
        assert_eq!(s.stats().rd_cas, 7);
        assert_eq!(s.stats().bytes_transferred(), 17 * 64);
    }

    #[test]
    fn sequential_stream_mostly_row_hits() {
        let mut s = sys();
        for i in 0..256u64 {
            let _ = s.read64(PhysAddr(i * 64));
            s.advance(4);
        }
        let hits = s.stats().row_hits;
        let acts = s.stats().activates;
        // 16 banks activate once; the rest are hits.
        assert_eq!(acts, 16);
        assert_eq!(hits, 240);
    }

    #[test]
    fn trace_records_cas_commands() {
        let cfg = MemorySystemConfig {
            trace: true,
            ..Default::default()
        };
        let mut s = DramSystem::new(cfg);
        s.write64_tagged(PhysAddr(0x40), &[1u8; 64], 3);
        let _ = s.read64_tagged(PhysAddr(0x40), 3);
        let recs = s.trace().records();
        assert_eq!(recs.len(), 2);
        assert_eq!(recs[0].kind, "wrCAS");
        assert_eq!(recs[1].kind, "rdCAS");
        assert_eq!(recs[0].tag, 3);
        assert_eq!(recs[0].value, 0x40);
    }

    #[test]
    fn refresh_fires_on_trefi_cadence() {
        let mut s = sys();
        let trefi = DDR.t_refi;
        // Idle past several refresh intervals, then access: the gate
        // processes every due refresh.
        s.advance(trefi * 4 + 10);
        let _ = s.read64(PhysAddr(0));
        assert_eq!(s.stats().refreshes, 4);
        // Rows were closed by the refresh: the access re-activated.
        assert!(s.stats().activates >= 1);
    }

    #[test]
    fn refresh_closes_open_rows() {
        let mut s = sys();
        let trefi = DDR.t_refi;
        let (_, _) = s.read64(PhysAddr(0));
        s.advance(100);
        let before = s.stats().row_hits;
        let (_, _) = s.read64(PhysAddr(0));
        assert_eq!(s.stats().row_hits, before + 1, "row hit before refresh");
        s.advance(trefi + 100);
        let acts = s.stats().activates;
        let (_, _) = s.read64(PhysAddr(0));
        assert_eq!(s.stats().activates, acts + 1, "row reopened after refresh");
    }

    #[test]
    fn page_read_matches_per_line_reads() {
        for kind in TIERS {
            let mut a = tier_with(kind, DramTopology::default(), 0);
            let mut b = tier_with(kind, DramTopology::default(), 0);
            for i in 0..64u64 {
                let mut line = [0u8; 64];
                line[0] = i as u8;
                line[63] = !i as u8;
                a.write64(PhysAddr(0x4000 + i * 64), &line);
                b.write64(PhysAddr(0x4000 + i * 64), &line);
            }
            a.advance(10_000);
            b.advance(10_000);
            let (page, lat) = a
                .read_page_tagged(PhysAddr(0x4000), 0)
                .expect("passthrough supports pages");
            for i in 0..64usize {
                let (line, _) = b.read64(PhysAddr(0x4000 + (i as u64) * 64));
                assert_eq!(page[i], line, "{kind} line {i}");
            }
            // One streamed transfer: the accurate bus turns around from
            // the writes once, the fast FIFO opens one row.
            let want = match kind {
                BackendKind::CycleAccurate => DDR.t_wtr + DDR.t_cl + 64 * DDR.t_burst,
                BackendKind::FastQueue => DDR.t_rcd + DDR.t_cl + 64 * DDR.t_burst,
            };
            assert_eq!(lat, want, "{kind}");
            // Same CAS count and bank behaviour as 64 per-line reads.
            assert_eq!(a.stats().rd_cas, b.stats().rd_cas, "{kind}");
            assert_eq!(a.stats().activates, b.stats().activates, "{kind}");
        }
    }

    #[test]
    fn page_read_normalizes_unaligned_base() {
        let mut s = sys();
        s.write64(PhysAddr(0x7000), &[0x42u8; 64]);
        let (page, _) = s
            .read_page_tagged(PhysAddr(0x70B0), 0)
            .expect("aligned down");
        assert_eq!(page[0], [0x42u8; 64]);
    }

    #[test]
    fn page_read_declines_when_page_spans_channels() {
        let topo = DramTopology {
            channels: 2,
            ..DramTopology::default()
        };
        for kind in TIERS {
            let mut s = tier_with(kind, topo, 0);
            assert!(s.read_page_tagged(PhysAddr(0), 0).is_none(), "{kind}");
            // The per-line path still works.
            let _ = s.read64(PhysAddr(0));
        }
    }

    #[test]
    fn multi_channel_addresses_route_correctly() {
        let topo = DramTopology {
            channels: 2,
            ..DramTopology::default()
        };
        for kind in TIERS {
            let mut s = tier_with(kind, topo, 0);
            s.write64(PhysAddr(0), &[1u8; 64]);
            s.write64(PhysAddr(64), &[2u8; 64]);
            assert_eq!(s.read64(PhysAddr(0)).0, [1u8; 64], "{kind}");
            assert_eq!(s.read64(PhysAddr(64)).0, [2u8; 64], "{kind}");
            assert!(s.channel_busy_cycles(0) > 0, "{kind}");
            assert!(s.channel_busy_cycles(1) > 0, "{kind}");
        }
    }

    #[test]
    fn multi_dimm_slots_round_trip() {
        let topo = DramTopology {
            dimms_per_channel: 2,
            ..DramTopology::default()
        };
        let mapper = AddressMapper::new(topo);
        // Find one address on each DIMM slot and round-trip both.
        let mut per_slot = [None, None];
        for line in 0..1 << 16 {
            let a = PhysAddr(line * 64);
            let slot = topo.dimm_slot_of_rank(mapper.decode(a).rank);
            if per_slot[slot].is_none() {
                per_slot[slot] = Some(a);
            }
        }
        let (a0, a1) = (per_slot[0].unwrap(), per_slot[1].unwrap());
        for kind in TIERS {
            let mut s = tier_with(kind, topo, 0);
            s.write64(a0, &[0x11u8; 64]);
            s.write64(a1, &[0x22u8; 64]);
            assert_eq!(s.read64(a0).0, [0x11u8; 64], "{kind}");
            assert_eq!(s.read64(a1).0, [0x22u8; 64], "{kind}");
        }
    }

    #[test]
    fn remote_socket_access_pays_interconnect_penalty() {
        let topo = DramTopology {
            channels: 2,
            sockets: 2,
            ..DramTopology::default()
        };
        for kind in TIERS {
            let mut free = tier_with(kind, topo, 0);
            let mut charged = tier_with(kind, topo, 500);
            // Channel 0 is local (socket 0), channel 1 remote (socket 1).
            let local = PhysAddr(0);
            let remote = PhysAddr(64);
            let (_, l_free) = free.read64(local);
            let (_, r_free) = free.read64(remote);
            let (_, l_charged) = charged.read64(local);
            let (_, r_charged) = charged.read64(remote);
            // A first read to a closed bank: the accurate tier pays the
            // activate, the fast tier only its fixed service time.
            let miss = match kind {
                BackendKind::CycleAccurate => DDR.t_rcd + READ_SERVICE,
                BackendKind::FastQueue => READ_SERVICE,
            };
            assert_eq!((l_free, r_free), (miss, miss), "{kind}");
            assert_eq!(l_free, l_charged, "{kind}: local access unaffected");
            assert_eq!(
                r_charged,
                r_free + 500,
                "{kind}: remote access pays the hop"
            );
            assert_eq!(charged.stats().remote_accesses, 1, "{kind}");
            // The remote counter tallies even when the penalty is zero.
            assert_eq!(free.stats().remote_accesses, 1, "{kind}");
        }
    }

    #[test]
    fn socket_scopes_roll_up_channel_counters() {
        let topo = DramTopology {
            channels: 2,
            sockets: 2,
            ..DramTopology::default()
        };
        let mut s = DramSystem::new(MemorySystemConfig {
            topology: topo,
            interconnect_penalty_cycles: 100,
            ..MemorySystemConfig::default()
        });
        let _ = s.read64(PhysAddr(0));
        let _ = s.read64(PhysAddr(64));
        let mut scope = simkit::telemetry::Scope::default();
        s.export_telemetry(&mut scope);
        let snap = {
            let mut reg = simkit::telemetry::Registry::new();
            *reg.scope("dram") = scope;
            reg.snapshot()
        };
        assert!(snap.contains("\"socket0\""));
        assert!(snap.contains("\"socket1\""));
        assert!(snap.contains("\"remote_accesses\""));
    }

    /// A buffer device that records the PRE/ACT stream it is shown.
    #[derive(Default)]
    struct Recorder {
        commands: Vec<(&'static str, usize, usize)>, // (command, rank, bank_index)
    }

    impl crate::BufferDevice for Recorder {
        fn on_activate(&mut self, _at: Cycle, rank: usize, bank_index: usize, _row: usize) {
            self.commands.push(("ACT", rank, bank_index));
        }
        fn on_precharge(&mut self, _at: Cycle, rank: usize, bank_index: usize) {
            self.commands.push(("PRE", rank, bank_index));
        }
        fn on_rd_cas(&mut self, _info: &CasInfo, dram_data: &[u8; 64]) -> RdResult {
            RdResult::Data(*dram_data)
        }
        fn on_wr_cas(&mut self, _info: &CasInfo, host_data: &[u8; 64]) -> crate::WrResult {
            crate::WrResult::Commit(*host_data)
        }
        fn as_any_mut(&mut self) -> &mut dyn std::any::Any {
            self
        }
    }

    #[test]
    fn refresh_precharge_reaches_the_buffer_device() {
        let mut s = sys();
        s.install_dimm(0, Dimm::new(Box::new(Recorder::default())));
        let mapper = AddressMapper::new(MemorySystemConfig::default().topology);
        let loc = mapper.decode(PhysAddr(0));
        let bank = loc.bank_index();
        let _ = s.read64(PhysAddr(0));
        s.advance(DDR.t_refi + 100);
        let _ = s.read64(PhysAddr(0));
        assert_eq!(s.stats().refreshes, 1);
        let recorder = s.dimm_mut(0).buffer_mut().as_any_mut();
        let seen = &recorder.downcast_mut::<Recorder>().unwrap().commands;
        // The refresh closed the open bank: the device must see that PRE
        // before the ACT that reopens the row.
        let want = [
            ("ACT", loc.rank, bank),
            ("PRE", loc.rank, bank),
            ("ACT", loc.rank, bank),
        ];
        assert_eq!(seen.as_slice(), &want);
        // Refresh precharges are not counted as row-conflict precharges.
        assert_eq!(s.stats().precharges, 0);
    }
}
