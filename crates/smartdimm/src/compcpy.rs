//! The CompCpy API (Algorithm 2) and its host-side runtime.
//!
//! [`CompCpyHost`] owns the simulated memory system with a SmartDIMM
//! installed on channel 0, a page allocator standing in for the kernel
//! driver (§V-C), and the software state of Algorithm 2: the `freePages`
//! counter with lazy MMIO refresh, Force-Recycle (Algorithm 1), source
//! flush, page registration and the copy loop.

use dram::{AddressMapper, Dimm, PhysAddr};
use memsys::{MemConfig, MemSystem};
use simkit::par::LookaheadStats;
use std::collections::{BTreeMap, BTreeSet, VecDeque};
use ulp_compress::hwmodel::HwDeflateConfig;

use crate::configmem::{
    unpack_pending, ConfigWindow, ContextChunk, OffloadStatus, Registration, ResultSlot, StatusReg,
    CONFIG_BASE, CONTEXT_OFFSET, PENDING_BASE, REGISTER_OFFSET, RESULT_BASE, STATUS_OFFSET,
};
use crate::device::{SmartDimmConfig, SmartDimmDevice};
use crate::dsa::{page_kernel, OffloadContext, OffloadOp, PageJob, PageLookahead};
use crate::sched::{self, PlacementPolicy, SchedStats};
use crate::{LINES_PER_PAGE, PAGE};

/// Errors surfaced by the CompCpy API.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CompCpyError {
    /// `sbuf` or `dbuf` is not 4 KB page aligned (Algorithm 2 line 4).
    NotAligned,
    /// The requested size is zero or exceeds the registered capability.
    BadSize,
    /// Scratchpad space could not be reclaimed even by Force-Recycle.
    OutOfScratchpad,
    /// The offload finished with a device-side error status.
    DeviceError,
    /// Non-size-preserving ULPs need their buffers mapped to a single
    /// channel (§V-D); this system interleaves across channels.
    SingleChannelOnly,
}

impl std::fmt::Display for CompCpyError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            CompCpyError::NotAligned => write!(f, "buffers must be 4KB page aligned"),
            CompCpyError::BadSize => write!(f, "invalid offload size"),
            CompCpyError::OutOfScratchpad => write!(f, "scratchpad exhausted"),
            CompCpyError::DeviceError => write!(f, "device reported an offload error"),
            CompCpyError::SingleChannelOnly => {
                write!(
                    f,
                    "non-size-preserving offloads require single-channel mapping"
                )
            }
        }
    }
}

impl std::error::Error for CompCpyError {}

/// Host configuration.
#[derive(Debug, Clone, Default)]
pub struct HostConfig {
    /// Memory-system configuration (LLC geometry, DRAM topology).
    pub mem: MemConfig,
    /// SmartDIMM hardware configuration.
    pub dimm: SmartDimmConfig,
    /// No effect: DSA feeds compute inline at CAS time, so there is no
    /// shard-settle pool to size. Its one caller is simbench
    /// (`Harness::with_threads`, `topology_into!`); the simbench change in
    /// ROADMAP's "Benchmark v2" item deletes it.
    pub threads: usize,
    /// Offload placement policy (see [`crate::sched`]). The default
    /// keeps the static per-line decode.
    pub sched: sched::SchedConfig,
}

/// Device-side queueing pressure ([`CompCpyHost::queue_pressure`]).
/// All fields report the *worst* shard, so a single-channel admission
/// decision stays conservative under interleaving.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct QueuePressure {
    /// Fraction of scratchpad pages free on the scarcest channel
    /// (`1.0` = empty scratchpad, `0.0` = exhausted).
    pub scratch_free_fraction: f64,
    /// Translation-table occupancy on the fullest channel (`0.0`–`1.0`;
    /// cuckoo displacement cost rises sharply past ~0.33, §IV-C).
    pub xlat_occupancy: f64,
}

impl QueuePressure {
    /// Collapses the snapshot into one scalar in `[0, 1]`: the worst of
    /// scratchpad usage and translation-table occupancy. Admission
    /// controllers compare this against a watermark.
    pub fn scalar(&self) -> f64 {
        (1.0 - self.scratch_free_fraction).max(self.xlat_occupancy)
    }
}

/// A live offload returned by [`CompCpyHost::comp_cpy`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct OffloadHandle {
    /// The software-assigned offload id.
    pub id: u64,
    /// Destination buffer base.
    pub dbuf: PhysAddr,
    /// Source buffer base.
    pub sbuf: PhysAddr,
    /// Input size in bytes.
    pub size: usize,
    /// The registered context: operation and AEAD additional data are
    /// needed to combine per-channel partial tags host-side under
    /// interleaving (§V-D).
    pub ctx: OffloadContext,
    /// The shard that saw every *effective* source line, when one did
    /// (`None` for an interleaved placement). Recorded at issue time:
    /// the scheduler may have staged the source away from `sbuf`, so
    /// the owning channel can no longer be derived from the caller's
    /// addresses alone.
    pub home: Option<u16>,
}

/// What a staging region must decode to. Every region is also wholly
/// resident on the DSA-bearing DIMM slot of its channels.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
enum Staging {
    /// The same [`AddressMapper::interleave_phase`] as the buffer it
    /// stands in for, so line *i* keeps its channel.
    Phase(u64),
    /// Every covered line on this one channel (single-shard placement).
    Channel(usize),
}

/// Streaming offloads whose source bytes the host keeps on the page
/// lookahead at once, the one being copied included.
const LOOKAHEAD: usize = 3;

/// Announced offloads the host remembers; older ones are forgotten.
const ANNOUNCED_MAX: usize = 4096;

/// A streaming offload announced ahead of its `comp_cpy`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct Announced {
    sbuf: PhysAddr,
    size: usize,
    op: OffloadOp,
    /// Whether its page is already on the lookahead.
    submitted: bool,
}

/// The CompCpy host runtime.
pub struct CompCpyHost {
    mem: MemSystem,
    /// Every channel's Config Memory window.
    window: ConfigWindow,
    /// Algorithm 2's lazy scratchpad-space tracker. The algorithm guards
    /// it with a lock against concurrent callers; this host is
    /// single-threaded, so it is a plain count.
    free_pages: i64,
    next_id: u64,
    alloc_next: u64,
    /// Device-visible staging regions — bounce destinations for
    /// cross-channel pairs and home sources for re-homed or migrated
    /// offloads — pooled for reuse by `(what they decode to, pages)`.
    staging_pool: BTreeMap<(Staging, u64), Vec<PhysAddr>>,
    /// Offloads routed through a bounce buffer because the caller's
    /// sbuf/dbuf pair interleaved across different channels (§V-D).
    bounced_offloads: u64,
    /// Placement-decision counters (see [`crate::sched::SchedStats`]).
    sched_stats: SchedStats,
    /// Offload placement policy.
    policy: PlacementPolicy,
    /// Address mapper mirroring the memory system's topology, for
    /// host-side residency checks.
    mapper: AddressMapper,
    /// Software-side counters.
    force_recycles: u64,
    /// Preparation faults (xlat pressure, scratch hogs) armed and applied.
    injected_faults: u64,
    /// Fault injector (tests only); shared with the devices, the memory
    /// system and — if the caller threads it through — the TCP model.
    fault: Option<simkit::FaultHandle>,
    /// The streaming DSAs' page kernel, run ahead on a helper thread
    /// when the worker budget allows (host time only).
    lookahead: PageLookahead,
    /// The Deflate geometry every channel's DSA runs.
    hw_deflate: HwDeflateConfig,
    /// Streaming offloads announced and not yet copied, oldest first.
    announced: VecDeque<Announced>,
}

impl std::fmt::Debug for CompCpyHost {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("CompCpyHost")
            .field("next_id", &self.next_id)
            .finish()
    }
}

impl CompCpyHost {
    /// Builds the host: memory system + one SmartDIMM per channel +
    /// driver state.
    pub fn new(config: HostConfig) -> CompCpyHost {
        let topo = config.mem.dram.topology;
        let mut mem = MemSystem::new(config.mem);
        let lookahead = PageLookahead::new(page_kernel);
        for channel in 0..topo.channels {
            let device =
                SmartDimmDevice::new(config.dimm, topo, channel).with_lookahead(lookahead.clone());
            mem.dram_mut()
                .install_dimm(channel, Dimm::new(Box::new(device)));
        }
        CompCpyHost {
            mem,
            window: ConfigWindow::new(CONFIG_BASE, topo),
            free_pages: -1, // Algorithm 2 line 1
            next_id: 1,
            alloc_next: 0x0010_0000, // driver pool starts at 1 MB
            staging_pool: BTreeMap::new(),
            bounced_offloads: 0,
            sched_stats: SchedStats::default(),
            policy: config.sched.policy,
            mapper: AddressMapper::new(topo),
            force_recycles: 0,
            injected_faults: 0,
            fault: None,
            lookahead,
            hw_deflate: config.dimm.hw_deflate,
            announced: VecDeque::new(),
        }
    }

    /// Installs a deterministic fault injector on the host, every channel
    /// device and the memory system. Armed events fire as offloads are
    /// issued; see [`simkit::FaultPlan`].
    pub fn set_fault_handle(&mut self, fault: simkit::FaultHandle) {
        self.mem.set_fault_handle(fault.clone());
        for channel in 0..self.channels() {
            self.device_on(channel).set_fault_handle(fault.clone());
        }
        self.fault = Some(fault);
    }

    /// Advances the fault plan by one offload and applies whatever
    /// preparation faults (translation-table pressure, scratchpad hogs)
    /// arm at this index. Called at the top of every offload issue.
    fn apply_armed_faults(&mut self) {
        let Some(fault) = self.fault.clone() else {
            return;
        };
        let preps = fault.begin_offload();
        self.injected_faults += preps.len() as u64;
        for kind in preps {
            match kind {
                simkit::FaultKind::XlatPressure { entries } => {
                    for channel in 0..self.channels() {
                        self.device_on(channel).inject_xlat_pressure(entries);
                    }
                }
                simkit::FaultKind::ScratchHog { pages } => {
                    let at = self.mem.now();
                    for channel in 0..self.channels() {
                        self.device_on(channel).inject_scratch_hog(at, pages);
                    }
                }
                _ => {}
            }
        }
    }

    /// Removes every injected translation-table entry and scratchpad hog
    /// from all channel devices (fault-recovery path).
    pub fn clear_injected_faults(&mut self) {
        let at = self.mem.now();
        for channel in 0..self.channels() {
            self.device_on(channel).clear_injected(at);
        }
    }

    /// Number of memory channels (= SmartDIMMs installed).
    pub fn channels(&self) -> usize {
        self.mapper.topology().channels
    }

    /// The memory system (CAT configuration, statistics, time).
    pub fn mem(&self) -> &MemSystem {
        &self.mem
    }

    /// Mutable memory-system access.
    pub fn mem_mut(&mut self) -> &mut MemSystem {
        &mut self.mem
    }

    /// Times Force-Recycle was invoked (§VII-A expects ~zero).
    pub fn force_recycle_count(&self) -> u64 {
        self.force_recycles
    }

    /// Offloads routed through a phase-matched bounce buffer because the
    /// caller's sbuf/dbuf pair interleaved across different channels.
    pub fn bounced_offload_count(&self) -> u64 {
        self.bounced_offloads
    }

    /// Preparation faults the installed injector armed and this host
    /// applied (zero unless a [`simkit::FaultPlan`] is installed).
    pub fn injected_fault_count(&self) -> u64 {
        self.injected_faults
    }

    /// Placement-decision counters accumulated so far (see
    /// [`crate::sched::SchedStats`]). Deterministic: decisions depend
    /// only on simulated state.
    pub fn sched_stats(&self) -> SchedStats {
        self.sched_stats
    }

    /// A deterministic snapshot of device-side queueing pressure — the
    /// inputs an admission controller needs to decide whether the next
    /// offload should be accepted, shed, or run on the CPU instead.
    ///
    /// Reports the *scarcest* shard: minimum scratchpad-free fraction and
    /// maximum translation-table occupancy across channels. The paper's
    /// Fig. 10 story (scratchpad occupancy under load) and the §IV-C
    /// xlat-occupancy bound are exactly the two resources that degrade
    /// first when offloads queue faster than they are used.
    pub fn queue_pressure(&mut self) -> QueuePressure {
        let mut worst = QueuePressure {
            scratch_free_fraction: 1.0,
            xlat_occupancy: 0.0,
        };
        for ch in 0..self.channels() {
            let p = self.shard_pressure(ch);
            worst.scratch_free_fraction = worst.scratch_free_fraction.min(p.scratch_free_fraction);
            worst.xlat_occupancy = worst.xlat_occupancy.max(p.xlat_occupancy);
        }
        worst
    }

    /// One shard's scratchpad-free fraction and translation-table
    /// occupancy.
    fn shard_pressure(&mut self, channel: usize) -> QueuePressure {
        let dev = self.device_on(channel);
        let cap = dev.config().scratchpad_pages.max(1);
        QueuePressure {
            scratch_free_fraction: dev.free_pages() as f64 / cap as f64,
            xlat_occupancy: dev.xlat().occupancy(),
        }
    }

    /// Device statistics, read through the buffer-device downcast.
    pub fn device_stats(&mut self) -> crate::device::DeviceStats {
        self.device().stats()
    }

    /// Registers host-level counters, the memory hierarchy (under `mem`)
    /// and every channel's shard (under `channelN`, each holding
    /// `device`/`scratchpad`/`xlat` sub-scopes) for a `telemetry/v1`
    /// snapshot. Takes `&mut self` because device access goes through the
    /// buffer-device downcast.
    pub fn export_telemetry(&mut self, scope: &mut simkit::telemetry::Scope) {
        scope.set_counter("force_recycles", self.force_recycles);
        scope.set_counter("injected_faults", self.injected_faults);
        scope.set_counter("bounced_offloads", self.bounced_offloads);
        {
            // Placement-decision counters (see [`crate::sched`]).
            // Decisions depend only on simulated state.
            let sch = scope.scope("sched");
            sch.set_counter("static_placements", self.sched_stats.static_placements);
            sch.set_counter("rehomed_offloads", self.sched_stats.rehomed_offloads);
            sch.set_counter("migrated_offloads", self.sched_stats.migrated_offloads);
            sch.set_counter("remote_placements", self.sched_stats.remote_placements);
            sch.set_counter("local_placements", self.sched_stats.local_placements);
        }
        for ch in 0..self.channels() {
            let mut dev_scope = simkit::telemetry::Scope::default();
            self.device_on(ch).export_telemetry(&mut dev_scope);
            *scope.scope(&format!("channel{ch}")) = dev_scope;
        }
        self.mem.export_telemetry(scope.scope("mem"));
    }

    /// Direct access to the channel-0 device model (inspection only — all
    /// data-path interaction goes through memory commands).
    pub fn device(&mut self) -> &mut SmartDimmDevice {
        self.device_on(0)
    }

    /// Direct access to the device on `channel`.
    pub fn device_on(&mut self, channel: usize) -> &mut SmartDimmDevice {
        self.mem
            .dram_mut()
            .dimm_mut(channel)
            .buffer_mut()
            .as_any_mut()
            .downcast_mut::<SmartDimmDevice>()
            .expect("SmartDIMM installed on this channel")
    }

    /// Allocates `pages` contiguous 4 KB pages from the driver pool.
    pub fn alloc_pages(&mut self, pages: usize) -> PhysAddr {
        assert!(pages > 0);
        let addr = PhysAddr(self.alloc_next);
        self.alloc_next += (pages * PAGE) as u64;
        assert!(
            self.alloc_next <= self.window.start().0,
            "driver pool ran into the MMIO window"
        );
        addr
    }

    /// Writes a 64-byte register on every channel's SmartDIMM — how the
    /// registration step replicates configuration data per DIMM (§V-D).
    fn mmio_broadcast(&mut self, logical: u64, data: &[u8; 64]) {
        for c in 0..self.channels() {
            let addr = self.window.alias(logical, c);
            self.mem.mmio_write64(addr, data);
        }
    }

    /// Reads the SmartDIMM status register. With multiple channels, the
    /// scratchpad-space fields report the *scarcest* DIMM.
    pub fn read_status(&mut self) -> StatusReg {
        let regs: Vec<StatusReg> = (0..self.channels())
            .map(|c| {
                StatusReg::from_bytes(&self.mem.mmio_read64(self.window.alias(STATUS_OFFSET, c)))
            })
            .collect();
        regs.into_iter()
            .reduce(|a, s| StatusReg {
                free_pages: a.free_pages.min(s.free_pages),
                pending_pages: a.pending_pages.max(s.pending_pages),
                self_recycled: a.self_recycled + s.self_recycled,
                ignored_writebacks: a.ignored_writebacks + s.ignored_writebacks,
            })
            .expect("at least one channel")
    }

    /// `Some(channel)` when every covered cacheline of `[base,
    /// base+size)` decodes to a single channel — a "flex mode" placement
    /// (§V-D) that lets one shard run a full (metadata-absorbing) engine.
    fn sole_channel(&self, base: PhysAddr, size: usize) -> Option<usize> {
        let first = self.mapper.channel_of(base);
        self.line_channels(base, size)
            .all(|c| c == first)
            .then_some(first)
    }

    /// The channel of each covered cacheline of `[base, base+size)`.
    fn line_channels(&self, base: PhysAddr, size: usize) -> impl Iterator<Item = usize> + '_ {
        base.line_spans(size)
            .map(|s| self.mapper.channel_of(s.line))
    }

    /// Whether source line *i* and destination line *i* decode to the
    /// same channel for every covered line — the condition for a shard to
    /// see both sides of every page pair it registers. Always true under
    /// fine interleave (the per-line channel pattern repeats within a
    /// page); can fail under coarse interleave when sbuf and dbuf sit at
    /// different phases of the interleave period.
    fn channel_maps_match(&self, sbuf: PhysAddr, dbuf: PhysAddr, size: usize) -> bool {
        self.line_channels(sbuf, size)
            .eq(self.line_channels(dbuf, size))
    }

    /// A pooled staging region of `size` bytes that decodes as `need`
    /// says and lies wholly on the DSA-bearing DIMM slot — a staged line
    /// on a capacity DIMM would keep the memcpy's raw bytes instead of
    /// the device-substituted output. Regions are reused per
    /// `(need, pages)`.
    ///
    /// [`Staging::Channel`] requires the offload to fit one interleave
    /// window (`channel_interleave_lines * 64` bytes);
    /// [`CompCpyHost::place_source`] only requests it for such
    /// ("pinnable") offloads.
    fn acquire_staging(&mut self, need: Staging, size: usize) -> PhysAddr {
        let pages = size.div_ceil(PAGE) as u64;
        if let Some(addr) = self.staging_pool.get_mut(&(need, pages)).and_then(Vec::pop) {
            return addr;
        }
        // Carve a fresh region from the driver pool. `alloc_next` and
        // every phase key come from page-aligned addresses, so page-sized
        // steps cycle through every page-aligned phase and the search
        // terminates within one interleave period.
        loop {
            let cand = PhysAddr(self.alloc_next);
            let end = cand.0 + pages * PAGE as u64;
            assert!(
                end <= self.window.start().0,
                "driver staging pool collides with MMIO space"
            );
            let decodes = match need {
                Staging::Phase(phase) => self.mapper.interleave_phase(cand) == phase,
                Staging::Channel(ch) => self.sole_channel(cand, size) == Some(ch),
            };
            if decodes && self.dsa_resident(cand, (pages as usize) * PAGE) {
                self.alloc_next = end;
                return cand;
            }
            self.alloc_next += PAGE as u64;
        }
    }

    /// Returns a staging region to the pool under the key it was
    /// acquired with.
    fn release_staging(&mut self, need: Staging, region: PhysAddr, size: usize) {
        let pages = size.div_ceil(PAGE) as u64;
        self.staging_pool
            .entry((need, pages))
            .or_default()
            .push(region);
    }

    /// Whether every covered line of `[base, base+size)` decodes to the
    /// DSA-bearing DIMM slot of its channel — the condition for the
    /// buffer devices to see the range's CAS traffic at all. Trivially
    /// true with one DIMM per channel.
    fn dsa_resident(&self, base: PhysAddr, size: usize) -> bool {
        let topo = *self.mapper.topology();
        if topo.dimms_per_channel == 1 {
            return true;
        }
        base.line_spans(size)
            .all(|s| topo.on_dsa_slot(self.mapper.decode(s.line).rank))
    }

    /// Samples every shard's placement inputs — the same scratchpad and
    /// translation-table signals [`CompCpyHost::queue_pressure`]
    /// reports, per channel, plus socket locality.
    fn shard_snapshots(&mut self) -> Vec<sched::ShardSnapshot> {
        let topo = *self.mapper.topology();
        (0..self.channels())
            .map(|ch| sched::ShardSnapshot {
                channel: ch,
                pressure: self.shard_pressure(ch).scalar(),
                remote: topo.is_remote(ch),
            })
            .collect()
    }

    /// The score of an offload's current (static) placement: the worst
    /// [`sched::score`] over the channels its source lines touch.
    fn placement_score(&self, base: PhysAddr, size: usize, snaps: &[sched::ShardSnapshot]) -> f64 {
        self.line_channels(base, size)
            .map(|ch| sched::score(&snaps[ch]))
            .fold(f64::MIN, f64::max)
    }

    /// Counts the offload as remote or local: remote when any effective
    /// source line decodes to a channel on a non-home socket.
    fn note_locality(&mut self, base: PhysAddr, size: usize) {
        let topo = *self.mapper.topology();
        let remote = self.line_channels(base, size).any(|ch| topo.is_remote(ch));
        if remote {
            self.sched_stats.remote_placements += 1;
        } else {
            self.sched_stats.local_placements += 1;
        }
    }

    /// Chooses the effective source buffer for an offload: `sbuf`
    /// itself when the static decode already works, or a device-visible
    /// staging ("home") region the source is copied into first. Returns
    /// the effective source and, when staged, the key to release it with.
    ///
    /// Re-homing is *mandatory* when any source line decodes to a
    /// DSA-less DIMM slot — those CAS never reach a buffer device, so
    /// the offload would starve. A pinnable offload (one that fits a
    /// single channel's contiguous interleave window) re-homes onto one
    /// channel; any other keeps `sbuf`'s interleave phase. Migration is
    /// *optional* and only under [`PlacementPolicy::OccupancyLocality`]:
    /// a pinnable offload moves to the best-scoring shard when that
    /// beats its current placement by more than
    /// [`sched::MIGRATE_MARGIN`].
    ///
    /// The staging copy runs *before* registration, so the devices see
    /// it as plain (unregistered) write traffic.
    fn place_source(
        &mut self,
        sbuf: PhysAddr,
        size: usize,
        class: usize,
    ) -> (PhysAddr, Option<Staging>) {
        let resident = self.dsa_resident(sbuf, size);
        let pinnable =
            self.channels() == 1 || size <= self.mapper.topology().channel_interleave_lines * 64;
        let policy = self.policy;
        if resident {
            if policy == PlacementPolicy::OccupancyLocality && pinnable && self.channels() > 1 {
                let snaps = self.shard_snapshots();
                let best = sched::pick(&snaps);
                let cur = self.placement_score(sbuf, size, &snaps);
                if sched::score(&best) + sched::MIGRATE_MARGIN < cur {
                    self.sched_stats.migrated_offloads += 1;
                    return self.stage_source(Staging::Channel(best.channel), sbuf, size, class);
                }
            }
            self.sched_stats.static_placements += 1;
            self.note_locality(sbuf, size);
            return (sbuf, None);
        }
        // Mandatory re-homing: part of the source sits on a capacity
        // DIMM the DSA cannot see.
        self.sched_stats.rehomed_offloads += 1;
        let need = if pinnable {
            Staging::Channel(match policy {
                PlacementPolicy::Static => self.mapper.channel_of(sbuf),
                PlacementPolicy::OccupancyLocality => {
                    let snaps = self.shard_snapshots();
                    sched::pick(&snaps).channel
                }
            })
        } else {
            Staging::Phase(self.mapper.interleave_phase(sbuf))
        };
        self.stage_source(need, sbuf, size, class)
    }

    /// Copies the source into a staging region acquired as `need`.
    fn stage_source(
        &mut self,
        need: Staging,
        sbuf: PhysAddr,
        size: usize,
        class: usize,
    ) -> (PhysAddr, Option<Staging>) {
        let home = self.acquire_staging(need, size);
        self.mem
            .memcpy(home, sbuf, size.div_ceil(64) * 64, class, false);
        self.note_locality(home, size);
        (home, Some(need))
    }

    /// Walks every channel's result slot of `handle` in channel order: the
    /// first terminal status wins (`Err`), else the per-channel partial
    /// GHASH accumulators and the bytes they cover.
    fn partial_results(
        &mut self,
        handle: &OffloadHandle,
    ) -> Result<(Vec<[u8; 16]>, usize), OffloadStatus> {
        let mut partials = Vec::with_capacity(self.channels());
        let mut bytes = 0;
        for c in 0..self.channels() {
            let r = self.read_result_on(handle, c);
            match r.status {
                OffloadStatus::Partial => {
                    partials.push(r.tag);
                    bytes += r.out_len as usize;
                }
                // A channel that saw no cachelines contributes nothing.
                OffloadStatus::InProgress => {}
                terminal => return Err(terminal),
            }
        }
        Ok((partials, bytes))
    }

    /// Whether `handle` is complete: a terminal status on any channel, or
    /// per-channel partial progress covering the input size (`Done`).
    pub(crate) fn offload_status(&mut self, handle: &OffloadHandle) -> OffloadStatus {
        match self.partial_results(handle) {
            Err(terminal) => terminal,
            Ok((_, bytes)) if bytes >= handle.size => OffloadStatus::Done,
            Ok(_) => OffloadStatus::InProgress,
        }
    }

    /// Fault recovery: while `handle` is in progress (starved DSA, deferred
    /// writebacks), drain writebacks, re-flush and re-read the source, at
    /// most five rounds. Returns the rounds taken and the writeback lines
    /// drained; a no-op without an installed fault injector.
    pub fn settle(&mut self, handle: &OffloadHandle) -> (u32, usize) {
        self.settle_from(handle, handle.sbuf)
    }

    /// [`CompCpyHost::settle`] re-feeding from `src`, the source the
    /// offload actually registered.
    fn settle_from(&mut self, handle: &OffloadHandle, src: PhysAddr) -> (u32, usize) {
        if self.fault.is_none() {
            return (0, 0);
        }
        let (mut rounds, mut drained) = (0, 0);
        let mut reread = vec![0u8; handle.size.div_ceil(64) * 64];
        while rounds < 5 && self.offload_status(handle) == OffloadStatus::InProgress {
            drained += self.mem.drain_writebacks();
            self.mem.flush(src, reread.len());
            self.mem.load(src, &mut reread, 0);
            rounds += 1;
        }
        (rounds, drained)
    }

    /// Reads the result slot of `handle` on `channel`.
    pub fn read_result_on(&mut self, handle: &OffloadHandle, channel: usize) -> ResultSlot {
        let slot = self.window.result_slot(handle.id) as u64;
        let data = self
            .mem
            .mmio_read64(self.window.alias(RESULT_BASE + slot * 64, channel));
        ResultSlot::from_bytes(&data)
    }

    /// Reads the result slot of `handle` on the channel that owns it —
    /// the home shard recorded at issue time when the placement pinned
    /// one (flex-mode, re-homed or migrated offloads run entirely on
    /// that shard), channel 0 otherwise.
    pub fn read_result(&mut self, handle: &OffloadHandle) -> ResultSlot {
        let ch = self.home_channel(handle).unwrap_or(0);
        self.read_result_on(handle, ch)
    }

    /// The one shard that saw every source line of `handle`, if any.
    fn home_channel(&self, handle: &OffloadHandle) -> Option<usize> {
        handle
            .home
            .map(usize::from)
            .or_else(|| self.sole_channel(handle.sbuf, handle.size))
    }

    /// The AES-GCM tag of a completed TLS offload.
    ///
    /// With a single channel the device computed the full tag. Under
    /// channel interleaving each DIMM holds a *partial* GHASH accumulator
    /// over its own cachelines; this combines them with the metadata
    /// contribution and `EIV` host-side (§V-D, the step the paper assigns
    /// to the CPU). Returns `None` until every byte has been processed.
    pub fn tag(&mut self, handle: &OffloadHandle) -> Option<[u8; 16]> {
        if let Some(ch) = self.home_channel(handle) {
            // One shard saw every source line (single-channel mode, or a
            // flex/bounced placement): it absorbed the metadata and
            // computed the full tag itself.
            let r = self.read_result_on(handle, ch);
            return match r.status {
                OffloadStatus::Done => Some(r.tag),
                _ => None,
            };
        }
        let (key, iv) = match handle.ctx.op {
            OffloadOp::TlsEncrypt { key, iv } | OffloadOp::TlsDecrypt { key, iv } => (key, iv),
            _ => return None,
        };
        match self.partial_results(handle) {
            Ok((partials, bytes)) if bytes == handle.size => {
                let gcm = ulp_crypto::gcm::AesGcm::new_128(&key);
                Some(ulp_crypto::gcm::combine_partial_tags(
                    &gcm,
                    &iv,
                    handle.ctx.aad(),
                    handle.size,
                    &partials,
                ))
            }
            _ => None,
        }
    }

    /// Algorithm 1: Force-Recycle. Reads the pending list and reclaims
    /// scratchpad pages until at least `required` are free.
    ///
    /// Two passes per pending page: a `clflush` over the destination
    /// range recycles lines whose dirty copies still sit in the LLC; a
    /// second look at the valid-line bitmap catches lines whose premature
    /// writebacks were ignored (S7) — those are recycled with explicit
    /// write-requests that the device substitutes.
    ///
    /// Every reclaimed page compacts the pending list under the walk, so
    /// a line is re-read until it holds no page visited before; a page
    /// that stays pending is visited once, which bounds the walk.
    pub fn force_recycle(&mut self, required: usize) -> usize {
        self.force_recycles += 1;
        let mut freed = 0usize;
        for channel in 0..self.channels() {
            let mut visited = BTreeSet::new();
            let mut index = 0u64;
            loop {
                let addr = self.window.alias(PENDING_BASE + index * 64, channel);
                let line = self.mem.mmio_read64(addr);
                let records = unpack_pending(&line);
                if records.is_empty() {
                    break;
                }
                let fresh: Vec<_> = (records.into_iter())
                    .filter(|r| visited.insert(r.dst_page_addr))
                    .collect();
                if fresh.is_empty() {
                    index += 1;
                }
                for rec in &fresh {
                    let page = PhysAddr(rec.dst_page_addr);
                    // Pass 1: flush cached dirty lines (Algorithm 1 line 4).
                    self.mem.flush(page, PAGE);
                    // Pass 2: explicit write-requests for lines still staged.
                    let line = self.mem.mmio_read64(addr);
                    let again = unpack_pending(&line);
                    if let Some(rec2) = again.iter().find(|r| r.dst_page_addr == rec.dst_page_addr)
                    {
                        for bit in 0..LINES_PER_PAGE {
                            if rec2.valid_bitmap & (1 << bit) != 0 {
                                let addr = PhysAddr(rec.dst_page_addr + (bit as u64) * 64);
                                // The device substitutes the staged data.
                                self.mem.dram_mut().write64(addr, &[0u8; 64]);
                            }
                        }
                    }
                    freed += 1;
                    if freed >= required {
                        return freed;
                    }
                }
            }
        }
        freed
    }

    /// Announces a coming [`CompCpyHost::comp_cpy`] of `len` bytes from
    /// `sbuf` under `op`, so that the page kernel of a streaming
    /// (de)compression offload can run ahead on a helper thread. Each
    /// streaming `comp_cpy` keeps its own page and the next announced
    /// ones, `LOOKAHEAD` (3) in all, in flight. The helper gets a copy of
    /// the bytes `sbuf` holds when the page is submitted, and a device
    /// uses its output only if the page it absorbs is byte-identical, so
    /// announcing changes host time, never a simulated outcome. TLS
    /// operations are ignored.
    pub fn announce(&mut self, sbuf: PhysAddr, len: usize, op: OffloadOp) {
        if !op.requires_ordered() {
            return;
        }
        if self.announced.len() >= ANNOUNCED_MAX {
            self.announced.pop_front();
        }
        self.announced.push_back(Announced {
            sbuf,
            size: len,
            op,
            submitted: false,
        });
    }

    /// Outcome counts of the page lookahead. They depend on host timing,
    /// so no telemetry snapshot carries them.
    pub fn lookahead_stats(&self) -> LookaheadStats {
        self.lookahead.stats()
    }

    /// Feeds the page lookahead at the start of a streaming `comp_cpy`:
    /// this offload's page first, unless an announcement already put it
    /// in flight, then the next announced pages.
    fn feed_lookahead(&mut self, sbuf: PhysAddr, size: usize, op: OffloadOp) {
        let (mem, hw) = (&self.mem, self.hw_deflate);
        let job = |sbuf: PhysAddr, size: usize, op: OffloadOp| {
            move || {
                let mut bytes = vec![0u8; size];
                mem.peek(sbuf, &mut bytes);
                PageJob {
                    op,
                    config: hw,
                    bytes,
                }
            }
        };
        let current = (self.announced.iter())
            .position(|a| (a.sbuf, a.size, a.op) == (sbuf, size, op))
            .and_then(|at| self.announced.drain(..=at).next_back());
        if !current.is_some_and(|a| a.submitted) && !self.lookahead.submit_with(job(sbuf, size, op))
        {
            // No helper: nothing announced will run ahead.
            self.announced.clear();
            return;
        }
        for a in self.announced.iter_mut().take(LOOKAHEAD - 1) {
            if !a.submitted {
                a.submitted = self.lookahead.submit_with(job(a.sbuf, a.size, a.op));
            }
        }
    }

    /// Algorithm 2: CompCpy. Transforms `size` bytes from `sbuf` into
    /// `dbuf` using the near-memory DSA while copying.
    ///
    /// `class` is the LLC allocation class of the calling core (CAT).
    ///
    /// # Errors
    ///
    /// See [`CompCpyError`]. On success the offload has already consumed
    /// the source data; call [`CompCpyHost::use_buffer`] to obtain the
    /// transformed bytes.
    pub fn comp_cpy(
        &mut self,
        dbuf: PhysAddr,
        sbuf: PhysAddr,
        size: usize,
        op: OffloadOp,
        ordered: bool,
        class: usize,
    ) -> Result<OffloadHandle, CompCpyError> {
        self.comp_cpy_with_aad(dbuf, sbuf, size, op, b"", ordered, class)
    }

    /// [`CompCpyHost::comp_cpy`] with AEAD additional data (the 5-byte
    /// TLS record header).
    #[allow(clippy::too_many_arguments)]
    pub fn comp_cpy_with_aad(
        &mut self,
        dbuf: PhysAddr,
        sbuf: PhysAddr,
        size: usize,
        op: OffloadOp,
        aad: &[u8],
        ordered: bool,
        class: usize,
    ) -> Result<OffloadHandle, CompCpyError> {
        // Lines 3-6: alignment.
        if !dbuf.is_page_aligned() || !sbuf.is_page_aligned() {
            return Err(CompCpyError::NotAligned);
        }
        if size == 0 {
            return Err(CompCpyError::BadSize);
        }
        if !op.size_preserving() && size > PAGE {
            // §V-C: (de)compression offloads are page granular; callers
            // split larger messages into per-page CompCpy calls.
            return Err(CompCpyError::BadSize);
        }
        if !op.size_preserving() && self.channels() > 1 && self.sole_channel(sbuf, size).is_none() {
            // §V-D: non-size-preserving transforms need their *source* on
            // a single channel so one shard's engine sees the whole
            // message (single-channel mode, flex mode, or a coarse
            // interleave that keeps whole pages on one channel). The
            // destination may live anywhere: a mismatched dbuf is routed
            // through a phase-matched bounce buffer below.
            return Err(CompCpyError::SingleChannelOnly);
        }
        let Some(mut ctx) = OffloadContext::new(op, size, aad) else {
            return Err(CompCpyError::BadSize);
        };
        if op.requires_ordered() {
            self.feed_lookahead(sbuf, size, op);
        }
        self.apply_armed_faults();
        self.reserve_scratchpad(size)?;

        // Placement: pick the shard(s) that serve this offload. The
        // static decode keeps a source wherever its lines map; sources
        // touching a DSA-less DIMM slot are staged into a
        // device-visible home region, and the occupancy+locality
        // policy may migrate pinnable offloads to a better shard.
        let (eff_sbuf, src_staging) = self.place_source(sbuf, size, class);

        // §V-D routing: a shard can only serve page pairs whose source
        // and destination lines decode to its own channel and its own
        // DIMM slot. When the caller's dbuf sits at a different phase
        // of the interleave period than the effective source (possible
        // under coarse interleave) or touches a capacity DIMM, stage
        // the offload into a phase-matched bounce buffer and copy out
        // after the device completes.
        let src_sole = self.sole_channel(eff_sbuf, size);
        let direct = self.channel_maps_match(eff_sbuf, dbuf, size) && self.dsa_resident(dbuf, size);
        let bounce = (!direct).then(|| Staging::Phase(self.mapper.interleave_phase(eff_sbuf)));
        let stage_dbuf = match bounce {
            Some(need) => {
                self.bounced_offloads += 1;
                self.acquire_staging(need, size)
            }
            None => dbuf,
        };

        // Line 19: flush the (effective) source to DRAM so the DIMM
        // sees the data.
        self.mem.flush(eff_sbuf, size);

        // When one shard sees every source line it absorbs the
        // AAD/length metadata and computes the full tag; otherwise each
        // DIMM runs a *partial* TLS engine and the host contributes the
        // metadata combining.
        ctx.absorb_metadata = src_sole.is_some();
        let handle = self.issue(dbuf, sbuf, ctx, src_sole, eff_sbuf, stage_dbuf);

        // Lines 24-31: the copy. Ordered mode fences between lines.
        let ordered = ordered || op.requires_ordered();
        self.mem
            .memcpy(stage_dbuf, eff_sbuf, size.div_ceil(64) * 64, class, ordered);

        if let Some(need) = bounce {
            self.finish_bounce(&handle, eff_sbuf, stage_dbuf, class);
            self.release_staging(need, stage_dbuf, size);
        }
        if let Some(need) = src_staging {
            self.release_staging(need, eff_sbuf, size);
        }
        Ok(handle)
    }

    /// Algorithm 2 lines 7-17: reserves the offload's scratchpad pages
    /// against the lock-protected `freePages` count, refreshing it
    /// lazily from channel 0's status register and falling back to
    /// Force-Recycle when even the refreshed count is too low.
    fn reserve_scratchpad(&mut self, size: usize) -> Result<(), CompCpyError> {
        let pages_needed = (1 + size / PAGE) as i64; // line 16's reservation
        if self.free_pages > pages_needed {
            self.free_pages -= pages_needed;
            return Ok(());
        }
        // Lazy refresh from SmartDIMMConfig[0] (line 9).
        let data = self.mem.mmio_read64(self.window.alias(STATUS_OFFSET, 0));
        let mut refreshed = StatusReg::from_bytes(&data).free_pages as i64;
        if refreshed <= pages_needed {
            // Unlikely path (lines 10-13).
            self.force_recycle(pages_needed as usize);
            refreshed = self.read_status().free_pages as i64;
            if refreshed < pages_needed {
                return Err(CompCpyError::OutOfScratchpad);
            }
        }
        self.free_pages = refreshed - pages_needed;
        Ok(())
    }

    /// Issues an offload under the next id: registers `ctx` for the
    /// page pairs of `src` → `dst` (the buffers the devices see) and
    /// returns the handle the caller keeps for `dbuf`/`sbuf`. `home` is
    /// the one shard that sees every source line, if any.
    fn issue(
        &mut self,
        dbuf: PhysAddr,
        sbuf: PhysAddr,
        ctx: OffloadContext,
        home: Option<usize>,
        src: PhysAddr,
        dst: PhysAddr,
    ) -> OffloadHandle {
        let id = self.next_id;
        self.next_id += 1;
        self.register(id, &ctx, src, dst);
        OffloadHandle {
            id,
            dbuf,
            sbuf,
            size: ctx.msg_len,
            ctx,
            home: home.map(|c| c as u16),
        }
    }

    /// Algorithm 2 lines 21-23: registration — the context first, then
    /// the page pairs, replicated to every channel's SmartDIMM (§V-D).
    fn register(&mut self, id: u64, ctx: &OffloadContext, src: PhysAddr, dst: PhysAddr) {
        let chunk = ContextChunk {
            offload_id: id,
            payload: ctx.encode(),
        };
        self.mmio_broadcast(CONTEXT_OFFSET, &chunk.to_bytes());
        for p in 0..ctx.msg_len.div_ceil(PAGE) {
            let reg = Registration {
                offload_id: id,
                src_page_addr: src.0 + (p * PAGE) as u64,
                dst_page_addr: dst.0 + (p * PAGE) as u64,
                msg_offset: (p * PAGE) as u64,
            };
            self.mmio_broadcast(REGISTER_OFFSET, &reg.to_bytes());
        }
    }

    /// Completes a bounced offload: settles injected faults, self-
    /// recycles the staged bounce lines (S9), and copies the transformed
    /// bytes into the caller's real destination buffer. `src` is the
    /// *effective* source the offload registered — the caller's sbuf or
    /// the scheduler's home region.
    fn finish_bounce(
        &mut self,
        handle: &OffloadHandle,
        src: PhysAddr,
        bounce: PhysAddr,
        class: usize,
    ) {
        self.settle_from(handle, src);
        let covered = handle.size.div_ceil(64) * 64;
        // Write the memcpy-dirtied bounce lines back so the device
        // substitutes the staged transformed data (S9), then copy the
        // result into the caller's dbuf — any line whose writeback was
        // deferred is served from the scratchpad on the read (S10).
        self.mem.flush(bounce, covered);
        let out_bytes = if handle.ctx.op.size_preserving() {
            covered
        } else {
            let r = self.read_result(handle);
            match r.status {
                OffloadStatus::Done | OffloadStatus::Incompressible => {
                    (r.out_len as usize).div_ceil(64) * 64
                }
                _ => covered,
            }
        };
        if out_bytes > 0 {
            self.mem
                .memcpy(handle.dbuf, bounce, out_bytes, class, false);
        }
    }

    /// Registers a *Compute DMA* offload (§IV-E): the transformation runs
    /// as an I/O device DMAs the source data into memory, with no CPU
    /// copy at all. After this call, deliver the data with
    /// [`memsys::MemSystem::dma_write_through`] on `sbuf`; the buffer
    /// device feeds each arriving cacheline to the DSA. Read the result
    /// with [`CompCpyHost::read_dma_buffer`].
    ///
    /// Only size-preserving (TLS) operations are supported, and — like
    /// CompCpy itself on the prototype — a single channel.
    ///
    /// # Errors
    ///
    /// See [`CompCpyError`].
    pub fn compute_dma(
        &mut self,
        dbuf: PhysAddr,
        sbuf: PhysAddr,
        size: usize,
        op: OffloadOp,
        aad: &[u8],
    ) -> Result<OffloadHandle, CompCpyError> {
        if !dbuf.is_page_aligned() || !sbuf.is_page_aligned() {
            return Err(CompCpyError::NotAligned);
        }
        let Some(mut ctx) = OffloadContext::new(op, size, aad).filter(|_| size > 0) else {
            return Err(CompCpyError::BadSize);
        };
        if !op.size_preserving() || self.channels() > 1 {
            return Err(CompCpyError::SingleChannelOnly);
        }
        if !self.dsa_resident(sbuf, size) || !self.dsa_resident(dbuf, size) {
            // Compute DMA has no copy loop to stage through: the I/O
            // device's writes land where they land, so both buffers
            // must already be visible to the DSA-bearing DIMM slot.
            return Err(CompCpyError::SingleChannelOnly);
        }
        self.apply_armed_faults();
        self.reserve_scratchpad(size)?;
        ctx.dma_input = true;
        Ok(self.issue(dbuf, sbuf, ctx, Some(0), sbuf, dbuf))
    }

    /// Reads a Compute-DMA result and recycles its Scratchpad pages.
    ///
    /// Unlike CompCpy, no CPU copy dirtied `dbuf`, so there are no LLC
    /// writebacks to self-recycle the staged lines; reads are served from
    /// the Scratchpad (S10) and the host then issues explicit
    /// write-requests (as Force-Recycle's second pass does) to drain the
    /// staging.
    pub fn read_dma_buffer(&mut self, handle: &OffloadHandle) -> Vec<u8> {
        let mut out = vec![0u8; handle.size];
        self.mem.load(handle.dbuf, &mut out, 0);
        // Drop the clean cached copies and recycle the staged lines with
        // explicit write-requests (the device substitutes staged data).
        self.mem.flush(handle.dbuf, handle.size.div_ceil(64) * 64);
        for s in handle.dbuf.line_spans(handle.size) {
            self.mem.dram_mut().write64(s.line, &[0u8; 64]);
        }
        out
    }

    /// The `USE` step (Algorithm 2 lines 32-34): flushes `dbuf` so dirty
    /// plaintext copies write back (self-recycling the scratchpad) and
    /// reads the transformed result.
    ///
    /// For TLS the returned length equals the input; for compression it
    /// is the compressed size from the result slot (raw input if the page
    /// was incompressible).
    pub fn use_buffer(&mut self, handle: &OffloadHandle) -> Vec<u8> {
        self.mem.flush(handle.dbuf, handle.size.div_ceil(64) * 64);
        let result = self.read_result(handle);
        let len = match result.status {
            OffloadStatus::Done | OffloadStatus::Incompressible => result.out_len as usize,
            _ => handle.size,
        };
        let mut out = vec![0u8; len];
        self.mem.load(handle.dbuf, &mut out, 0);
        out
    }

    /// Executes the same transformation on the CPU (the paper's `CPU`
    /// baseline): no registration, no DSA — pure software, same memory
    /// system. Returns the transformed bytes.
    pub fn cpu_transform(
        &mut self,
        dbuf: PhysAddr,
        sbuf: PhysAddr,
        size: usize,
        op: OffloadOp,
        aad: &[u8],
        class: usize,
    ) -> Vec<u8> {
        let mut input = vec![0u8; size];
        self.mem.load(sbuf, &mut input, class);
        let out = match op {
            OffloadOp::TlsEncrypt { key, iv } => {
                let gcm = ulp_crypto::gcm::AesGcm::new_128(&key);
                let (ct, _tag) = gcm.seal(&iv, aad, &input);
                ct
            }
            OffloadOp::TlsDecrypt { key, iv } => {
                let gcm = ulp_crypto::gcm::AesGcm::new_128(&key);
                let mut pt = input.clone();
                gcm.xor_keystream(&iv, 0, &mut pt);
                pt
            }
            OffloadOp::Compress => ulp_compress::deflate::compress(&input),
            // The same one-page bound the Decompress DSA applies: a stream
            // that inflates past 4 KB yields nothing, never an unbounded
            // write at `dbuf`.
            OffloadOp::Decompress => ulp_compress::hwmodel::decompress_page(&input)
                .map(|(page, _)| page)
                .unwrap_or_default(),
        };
        self.mem.store(dbuf, &out, class);
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cache::CacheConfig;

    fn host() -> CompCpyHost {
        CompCpyHost::new(HostConfig::default())
    }

    fn contended_host() -> CompCpyHost {
        // A tiny LLC so writebacks (and thus self-recycles) happen fast.
        let mut cfg = HostConfig::default();
        cfg.mem.llc = Some(CacheConfig::kb(64, 8));
        CompCpyHost::new(cfg)
    }

    #[test]
    fn tls_encrypt_end_to_end() {
        let mut h = host();
        let src = h.alloc_pages(1);
        let dst = h.alloc_pages(1);
        let msg: Vec<u8> = (0..4096u32).map(|i| (i * 7) as u8).collect();
        h.mem_mut().store(src, &msg, 0);
        let key = [0xAA; 16];
        let iv = [0xBB; 12];
        let handle = h
            .comp_cpy(
                dst,
                src,
                msg.len(),
                OffloadOp::TlsEncrypt { key, iv },
                false,
                0,
            )
            .unwrap();
        let ct = h.use_buffer(&handle);
        let gcm = ulp_crypto::gcm::AesGcm::new_128(&key);
        let (want, tag) = gcm.seal(&iv, b"", &msg);
        assert_eq!(ct, want);
        assert_eq!(h.tag(&handle), Some(tag));
    }

    #[test]
    fn tls_multi_page_message() {
        // A stream of 16 KB TLS records, the last one ending mid-block,
        // back to back on one host.
        let mut h = host();
        let pages = 4;
        for (i, len) in [pages * 4096, pages * 4096 - 1].into_iter().enumerate() {
            let src = h.alloc_pages(pages);
            let dst = h.alloc_pages(pages);
            let msg = ulp_compress::corpus::html(len, 1 + i as u64);
            h.mem_mut().store(src, &msg, 0);
            let key = [1u8; 16];
            let iv = [2 + i as u8; 12];
            let handle = h
                .comp_cpy_with_aad(
                    dst,
                    src,
                    msg.len(),
                    OffloadOp::TlsEncrypt { key, iv },
                    b"hdr#1",
                    false,
                    0,
                )
                .unwrap();
            let ct = h.use_buffer(&handle);
            let gcm = ulp_crypto::gcm::AesGcm::new_128(&key);
            let (want, tag) = gcm.seal(&iv, b"hdr#1", &msg);
            assert_eq!(ct, want, "record {i}");
            assert_eq!(h.tag(&handle), Some(tag), "record {i}");
        }
        // The stack stayed healthy: no force recycles, no device errors.
        assert_eq!(h.force_recycle_count(), 0);
        let stats = h.device_stats();
        assert_eq!(stats.alloc_failures, 0);
        assert_eq!(stats.xlat_failures, 0);
    }

    #[test]
    fn tls_decrypt_round_trip() {
        let mut h = host();
        let key = [3u8; 16];
        let iv = [4u8; 12];
        let msg = ulp_compress::corpus::text(5000, 2);
        let gcm = ulp_crypto::gcm::AesGcm::new_128(&key);
        let (ct, _) = gcm.seal(&iv, b"", &msg);

        let src = h.alloc_pages(2);
        let dst = h.alloc_pages(2);
        h.mem_mut().store(src, &ct, 0);
        let handle = h
            .comp_cpy(
                dst,
                src,
                ct.len(),
                OffloadOp::TlsDecrypt { key, iv },
                false,
                0,
            )
            .unwrap();
        let pt = h.use_buffer(&handle);
        assert_eq!(pt, msg);
    }

    #[test]
    fn compress_page_end_to_end() {
        let mut h = host();
        let src = h.alloc_pages(1);
        let dst = h.alloc_pages(1);
        let page = ulp_compress::corpus::json(4096, 3);
        h.mem_mut().store(src, &page, 0);
        let handle = h
            .comp_cpy(dst, src, page.len(), OffloadOp::Compress, true, 0)
            .unwrap();
        let compressed = h.use_buffer(&handle);
        assert!(compressed.len() < page.len());
        assert_eq!(
            ulp_compress::inflate::decompress(&compressed).unwrap(),
            page
        );
        let r = h.read_result(&handle);
        assert_eq!(r.status, OffloadStatus::Done);
        assert_eq!(r.out_len as usize, compressed.len());
    }

    #[test]
    fn compress_incompressible_returns_raw() {
        let mut h = host();
        let src = h.alloc_pages(1);
        let dst = h.alloc_pages(1);
        let page = ulp_compress::corpus::random(4096, 4);
        h.mem_mut().store(src, &page, 0);
        let handle = h
            .comp_cpy(dst, src, page.len(), OffloadOp::Compress, true, 0)
            .unwrap();
        let out = h.use_buffer(&handle);
        assert_eq!(h.read_result(&handle).status, OffloadStatus::Incompressible);
        assert_eq!(out, page);
    }

    #[test]
    fn decompress_page_end_to_end() {
        let mut h = host();
        let page = ulp_compress::corpus::html(4096, 5);
        let compressed = ulp_compress::deflate::compress(&page);
        assert!(compressed.len() <= 4096);
        let src = h.alloc_pages(1);
        let dst = h.alloc_pages(1);
        h.mem_mut().store(src, &compressed, 0);
        let handle = h
            .comp_cpy(dst, src, compressed.len(), OffloadOp::Decompress, true, 0)
            .unwrap();
        let out = h.use_buffer(&handle);
        assert_eq!(out, page);
    }

    #[test]
    fn cpu_decompress_stops_at_one_page() {
        // 1 MB of zeros deflates into one page; the CPU baseline must
        // apply the Decompress DSA's one-page bound, not store 1 MB.
        let mut h = host();
        let stream = ulp_compress::deflate::compress(&vec![0u8; 1 << 20]);
        assert!(stream.len() <= 4096, "{} B stream", stream.len());
        let src = h.alloc_pages(1);
        let dst = h.alloc_pages(1);
        h.mem_mut().store(src, &stream, 0);
        let out = h.cpu_transform(dst, src, stream.len(), OffloadOp::Decompress, b"", 0);
        assert!(out.len() <= 4096, "cpu_transform wrote {} B", out.len());
    }

    #[test]
    fn alignment_and_size_validation() {
        let mut h = host();
        let src = h.alloc_pages(1);
        let dst = h.alloc_pages(1);
        assert_eq!(
            h.comp_cpy(PhysAddr(dst.0 + 64), src, 64, OffloadOp::Compress, true, 0),
            Err(CompCpyError::NotAligned)
        );
        assert_eq!(
            h.comp_cpy(dst, src, 0, OffloadOp::Compress, true, 0),
            Err(CompCpyError::BadSize)
        );
        assert_eq!(
            h.comp_cpy(dst, src, 8192, OffloadOp::Compress, true, 0),
            Err(CompCpyError::BadSize)
        );
    }

    #[test]
    fn many_offloads_self_recycle_without_force() {
        // Back-to-back offloads under LLC pressure: self-recycling via
        // USE-step writebacks must keep the scratchpad from filling.
        let mut h = contended_host();
        let key = [9u8; 16];
        for i in 0..32u64 {
            let src = h.alloc_pages(1);
            let dst = h.alloc_pages(1);
            let msg = ulp_compress::corpus::text(4096, i);
            h.mem_mut().store(src, &msg, 0);
            let iv = [i as u8; 12];
            let handle = h
                .comp_cpy(
                    dst,
                    src,
                    msg.len(),
                    OffloadOp::TlsEncrypt { key, iv },
                    false,
                    0,
                )
                .unwrap();
            let ct = h.use_buffer(&handle);
            let gcm = ulp_crypto::gcm::AesGcm::new_128(&key);
            let (want, _) = gcm.seal(&iv, b"", &msg);
            assert_eq!(ct, want, "offload {i}");
        }
        assert_eq!(h.force_recycle_count(), 0);
        let stats = h.device_stats();
        assert_eq!(stats.offloads_completed, 32);
        assert!(stats.self_recycles > 0);
    }

    #[test]
    fn force_recycle_reclaims_tiny_scratchpad() {
        // A 3-page scratchpad with a huge LLC: writebacks never happen on
        // their own, so CompCpy must invoke Force-Recycle.
        let mut cfg = HostConfig::default();
        cfg.dimm.scratchpad_pages = 3;
        cfg.mem.llc = Some(CacheConfig::mb(8, 16));
        let mut h = CompCpyHost::new(cfg);
        let key = [5u8; 16];
        for i in 0..6u64 {
            let src = h.alloc_pages(1);
            let dst = h.alloc_pages(1);
            let msg = ulp_compress::corpus::text(4096, 100 + i);
            h.mem_mut().store(src, &msg, 0);
            let iv = [i as u8; 12];
            let handle = h
                .comp_cpy(
                    dst,
                    src,
                    msg.len(),
                    OffloadOp::TlsEncrypt { key, iv },
                    false,
                    0,
                )
                .expect("force-recycle must make room");
            // Deliberately do NOT call use_buffer (no flush-driven
            // recycling) so the scratchpad stays occupied.
            let _ = handle;
        }
        assert!(h.force_recycle_count() > 0);
    }

    #[test]
    fn force_recycle_drains_every_pending_page() {
        // Each reclaimed page compacts the pending list under the walk;
        // one call must still reach every page and record every line.
        let mut h = host();
        for i in 0..100u64 {
            let (src, dst) = (h.alloc_pages(1), h.alloc_pages(1));
            let msg = ulp_compress::corpus::text(4096, i);
            h.mem_mut().store(src, &msg, 0);
            let op = OffloadOp::TlsEncrypt {
                key: [7u8; 16],
                iv: [i as u8; 12],
            };
            h.comp_cpy(dst, src, msg.len(), op, false, 0).unwrap();
        }
        let capacity = HostConfig::default().dimm.scratchpad_pages;
        assert_eq!(h.device().free_pages(), capacity - 100);
        h.force_recycle(usize::MAX);
        assert_eq!(h.device().free_pages(), capacity, "pages left pending");
        assert_eq!(h.device().slack_histogram().count(), 100 * 64);
    }

    #[test]
    fn force_recycled_data_is_correct() {
        let mut cfg = HostConfig::default();
        cfg.dimm.scratchpad_pages = 2;
        cfg.mem.llc = Some(CacheConfig::mb(8, 16));
        let mut h = CompCpyHost::new(cfg);
        let key = [6u8; 16];
        let mut handles = Vec::new();
        let mut messages = Vec::new();
        for i in 0..4u64 {
            let src = h.alloc_pages(1);
            let dst = h.alloc_pages(1);
            let msg = ulp_compress::corpus::json(4096, 200 + i);
            h.mem_mut().store(src, &msg, 0);
            let iv = [(i + 1) as u8; 12];
            let handle = h
                .comp_cpy(
                    dst,
                    src,
                    msg.len(),
                    OffloadOp::TlsEncrypt { key, iv },
                    false,
                    0,
                )
                .unwrap();
            handles.push((handle, iv));
            messages.push(msg);
        }
        // Every offload — including the force-recycled ones — must read
        // back the right ciphertext.
        for ((handle, iv), msg) in handles.iter().zip(messages.iter()) {
            let ct = h.use_buffer(handle);
            let gcm = ulp_crypto::gcm::AesGcm::new_128(&key);
            let (want, _) = gcm.seal(iv, b"", msg);
            assert_eq!(&ct, &want);
        }
    }

    #[test]
    fn buffer_reuse_supersedes_stale_offloads() {
        // Persistent connections reuse the same sbuf/dbuf for every
        // response. Back-to-back offloads on the same pages — without
        // consuming the first — must supersede cleanly and the last
        // result must be correct (regression: stale source translations
        // once survived the supersede and starved the DSA).
        let mut cfg = HostConfig::default();
        cfg.mem.llc = Some(cache::CacheConfig::kb(256, 8));
        let mut h = CompCpyHost::new(cfg);
        let src = h.alloc_pages(4);
        let dst = h.alloc_pages(4);
        let key = [7u8; 16];
        let mut last = None;
        for i in 0..6u64 {
            let msg = ulp_compress::corpus::text(16384, 300 + i);
            h.mem_mut().store(src, &msg, 0);
            let iv = [(i + 1) as u8; 12];
            let handle = h
                .comp_cpy(
                    dst,
                    src,
                    msg.len(),
                    OffloadOp::TlsEncrypt { key, iv },
                    false,
                    0,
                )
                .unwrap();
            last = Some((handle, iv, msg));
        }
        let (handle, iv, msg) = last.unwrap();
        let ct = h.use_buffer(&handle);
        let gcm = ulp_crypto::gcm::AesGcm::new_128(&key);
        let (want, tag) = gcm.seal(&iv, b"", &msg);
        assert_eq!(ct, want);
        assert_eq!(h.tag(&handle), Some(tag));
    }

    #[test]
    fn cpu_baseline_matches_offload() {
        let mut h = host();
        let src = h.alloc_pages(1);
        let dst = h.alloc_pages(1);
        let msg = ulp_compress::corpus::text(4096, 7);
        h.mem_mut().store(src, &msg, 0);
        let key = [8u8; 16];
        let iv = [9u8; 12];
        let cpu_out = h.cpu_transform(
            dst,
            src,
            msg.len(),
            OffloadOp::TlsEncrypt { key, iv },
            b"",
            0,
        );

        let mut h2 = host();
        let src2 = h2.alloc_pages(1);
        let dst2 = h2.alloc_pages(1);
        h2.mem_mut().store(src2, &msg, 0);
        let handle = h2
            .comp_cpy(
                dst2,
                src2,
                msg.len(),
                OffloadOp::TlsEncrypt { key, iv },
                false,
                0,
            )
            .unwrap();
        assert_eq!(h2.use_buffer(&handle), cpu_out);
    }

    /// First page-aligned address at or above `from` whose opening line
    /// decodes to DIMM slot 1 (rank blocks are much larger than a page,
    /// so the whole page sits on the capacity DIMM).
    fn slot1_page(topo: &dram::DramTopology, from: u64) -> PhysAddr {
        let m = AddressMapper::new(*topo);
        let mut a = from;
        loop {
            let loc = m.decode(PhysAddr(a));
            if topo.dimm_slot_of_rank(loc.rank) == 1 {
                return PhysAddr(a);
            }
            a += PAGE as u64;
        }
    }

    #[test]
    fn multi_dimm_rehomes_capacity_slot_source() {
        // A source page on the DSA-less DIMM slot must be transparently
        // staged into a device-visible home region — the shard never
        // sees slot-1 CAS, so without re-homing the offload starves.
        let mut cfg = HostConfig::default();
        cfg.mem.dram.topology.dimms_per_channel = 2;
        let topo = cfg.mem.dram.topology;
        let mut h = CompCpyHost::new(cfg);
        // Far above the driver pool so home-region carving can't collide.
        let src = slot1_page(&topo, 0x0100_0000);
        let dst = h.alloc_pages(1);
        let msg = ulp_compress::corpus::text(4096, 11);
        h.mem_mut().store(src, &msg, 0);
        let key = [0x33u8; 16];
        let iv = [0x44u8; 12];
        let handle = h
            .comp_cpy(
                dst,
                src,
                msg.len(),
                OffloadOp::TlsEncrypt { key, iv },
                false,
                0,
            )
            .expect("re-homed offload accepted");
        let ct = h.use_buffer(&handle);
        let gcm = ulp_crypto::gcm::AesGcm::new_128(&key);
        let (want, tag) = gcm.seal(&iv, b"", &msg);
        assert_eq!(ct, want);
        assert_eq!(h.tag(&handle), Some(tag));
        assert_eq!(h.sched_stats().rehomed_offloads, 1);
        assert_eq!(h.sched_stats().static_placements, 0);
    }

    #[test]
    fn rehomed_offloads_reuse_pooled_home_regions() {
        let mut cfg = HostConfig::default();
        cfg.mem.dram.topology.dimms_per_channel = 2;
        let topo = cfg.mem.dram.topology;
        let mut h = CompCpyHost::new(cfg);
        let src = slot1_page(&topo, 0x0100_0000);
        let dst = h.alloc_pages(1);
        let key = [0x55u8; 16];
        for i in 0..4u64 {
            let msg = ulp_compress::corpus::json(4096, 40 + i);
            h.mem_mut().store(src, &msg, 0);
            let iv = [(i + 1) as u8; 12];
            let handle = h
                .comp_cpy(
                    dst,
                    src,
                    msg.len(),
                    OffloadOp::TlsEncrypt { key, iv },
                    false,
                    0,
                )
                .unwrap();
            let ct = h.use_buffer(&handle);
            let gcm = ulp_crypto::gcm::AesGcm::new_128(&key);
            let (want, _) = gcm.seal(&iv, b"", &msg);
            assert_eq!(ct, want, "round {i}");
        }
        assert_eq!(h.sched_stats().rehomed_offloads, 4);
    }

    #[test]
    fn unpinnable_rehomes_keep_the_source_phase() {
        // 4 KB offloads on a 2 KB-per-channel interleave cannot pin to
        // one channel, so a re-homed source must keep its own phase of
        // the 8 KB period. Sources alternate between two phases; every
        // dbuf matches its source's phase, so no offload should need a
        // bounce — unless a pooled home region carved at one phase is
        // reused for a source at the other.
        let mut cfg = HostConfig::default();
        cfg.mem.dram.topology.channels = 4;
        cfg.mem.dram.topology.channel_interleave_lines = 32;
        cfg.mem.dram.topology.dimms_per_channel = 2;
        let topo = cfg.mem.dram.topology;
        let period = 4 * 32 * 64;
        let mut h = CompCpyHost::new(cfg);
        let key = [0x5Au8; 16];
        let gcm = ulp_crypto::gcm::AesGcm::new_128(&key);
        let mut src_from = 0x0100_0000;
        for i in 0..6u64 {
            let phase = (i % 2) * PAGE as u64;
            let mut src = slot1_page(&topo, src_from);
            while src.0 % period != phase {
                src = slot1_page(&topo, src.0 + PAGE as u64);
            }
            src_from = src.0 + PAGE as u64;
            let dst = loop {
                let d = h.alloc_pages(1);
                if d.0 % period == phase && h.dsa_resident(d, PAGE) {
                    break d;
                }
            };
            let msg = ulp_compress::corpus::text(4096, 60 + i);
            h.mem_mut().store(src, &msg, 0);
            let iv = [(i + 1) as u8; 12];
            let handle = h
                .comp_cpy(
                    dst,
                    src,
                    msg.len(),
                    OffloadOp::TlsEncrypt { key, iv },
                    false,
                    0,
                )
                .unwrap();
            let (want, tag) = gcm.seal(&iv, b"", &msg);
            assert_eq!(h.use_buffer(&handle), want, "offload {i}");
            assert_eq!(h.tag(&handle), Some(tag), "offload {i}");
        }
        assert_eq!(h.sched_stats().rehomed_offloads, 6);
        assert_eq!(h.bounced_offload_count(), 0);
    }

    #[test]
    fn one_page_scratchpad_rejects_both_entry_points() {
        // A 4 KB offload reserves two pages (Algorithm 2 line 16); one
        // page cannot hold it even after Force-Recycle.
        let mut cfg = HostConfig::default();
        cfg.dimm.scratchpad_pages = 1;
        let mut h = CompCpyHost::new(cfg);
        let src = h.alloc_pages(1);
        let dst = h.alloc_pages(1);
        let op = OffloadOp::TlsEncrypt {
            key: [1; 16],
            iv: [2; 12],
        };
        assert_eq!(
            h.comp_cpy(dst, src, 4096, op, false, 0),
            Err(CompCpyError::OutOfScratchpad)
        );
        assert_eq!(
            h.compute_dma(dst, src, 4096, op, b""),
            Err(CompCpyError::OutOfScratchpad)
        );
    }

    #[test]
    fn occupancy_locality_migrates_remote_source_home() {
        // Two channels split across two sockets, page-granular
        // interleave: a source page on the remote socket's channel
        // stays put under the static decode but migrates to the local
        // shard under occupancy+locality scheduling.
        let mk = |policy| {
            let mut cfg = HostConfig::default();
            cfg.mem.dram.topology.channels = 2;
            cfg.mem.dram.topology.sockets = 2;
            cfg.mem.dram.topology.channel_interleave_lines = 64;
            cfg.mem.dram.interconnect_penalty_cycles = 200;
            cfg.sched.policy = policy;
            CompCpyHost::new(cfg)
        };
        let src = PhysAddr(0x0100_1000); // decodes to channel 1 (remote socket)
        let dst = PhysAddr(0x0100_0000); // decodes to channel 0 (home socket)
        let msg = ulp_compress::corpus::html(4096, 9);
        let key = [0x66u8; 16];
        let iv = [0x77u8; 12];
        let gcm = ulp_crypto::gcm::AesGcm::new_128(&key);
        let (want, want_tag) = gcm.seal(&iv, b"", &msg);

        let mut h = mk(sched::PlacementPolicy::Static);
        h.mem_mut().store(src, &msg, 0);
        let handle = h
            .comp_cpy(
                dst,
                src,
                msg.len(),
                OffloadOp::TlsEncrypt { key, iv },
                false,
                0,
            )
            .unwrap();
        assert_eq!(h.use_buffer(&handle), want);
        assert_eq!(h.tag(&handle), Some(want_tag));
        let s = h.sched_stats();
        assert_eq!(s.migrated_offloads, 0, "static decode never migrates");
        assert_eq!(s.remote_placements, 1, "source stayed on the remote shard");

        let mut h = mk(sched::PlacementPolicy::OccupancyLocality);
        h.mem_mut().store(src, &msg, 0);
        let handle = h
            .comp_cpy(
                dst,
                src,
                msg.len(),
                OffloadOp::TlsEncrypt { key, iv },
                false,
                0,
            )
            .unwrap();
        assert_eq!(h.use_buffer(&handle), want);
        assert_eq!(h.tag(&handle), Some(want_tag));
        let s = h.sched_stats();
        assert_eq!(s.migrated_offloads, 1, "locality pulled the offload home");
        assert_eq!(s.local_placements, 1);
        assert_eq!(s.remote_placements, 0);
    }

    #[test]
    fn status_register_reflects_activity() {
        let mut h = host();
        let s0 = h.read_status();
        assert_eq!(s0.free_pages, 2048);
        let src = h.alloc_pages(1);
        let dst = h.alloc_pages(1);
        h.mem_mut().store(src, &[1u8; 4096], 0);
        let _ = h
            .comp_cpy(
                dst,
                src,
                4096,
                OffloadOp::TlsEncrypt {
                    key: [0; 16],
                    iv: [0; 12],
                },
                false,
                0,
            )
            .unwrap();
        let s1 = h.read_status();
        assert_eq!(s1.free_pages, 2047);
        assert_eq!(s1.pending_pages, 1);
    }

    fn tls_offload(h: &mut CompCpyHost, msg: &[u8]) -> OffloadHandle {
        let src = h.alloc_pages(1);
        let dst = h.alloc_pages(1);
        h.mem_mut().store(src, msg, 0);
        let op = OffloadOp::TlsEncrypt {
            key: [0x3C; 16],
            iv: [0x5A; 12],
        };
        h.comp_cpy(dst, src, msg.len(), op, false, 0).unwrap()
    }

    #[test]
    fn settle_without_fault_handle_is_free() {
        let mut h = host();
        let handle = tls_offload(&mut h, &[7u8; 4096]);
        let before = h.mem().now();
        assert_eq!(h.settle(&handle), (0, 0));
        assert_eq!(h.mem().now(), before, "settle touched the memory system");
    }

    #[test]
    fn striped_offload_settles_without_refeeds() {
        let mut cfg = HostConfig::default();
        cfg.mem.dram.topology = dram::DramTopology {
            channels: 4,
            channel_interleave_lines: 1,
            ..dram::DramTopology::default()
        };
        let mut h = CompCpyHost::new(cfg);
        h.set_fault_handle(simkit::FaultHandle::new(simkit::FaultPlan::empty()));
        let msg: Vec<u8> = (0..4096u32).map(|i| (i * 13) as u8).collect();
        let handle = tls_offload(&mut h, &msg);
        assert_eq!(h.settle(&handle), (0, 0));
        assert_eq!(h.offload_status(&handle), OffloadStatus::Done);
        let gcm = ulp_crypto::gcm::AesGcm::new_128(&[0x3C; 16]);
        let (_, tag) = gcm.seal(&[0x5A; 12], b"", &msg);
        assert_eq!(h.tag(&handle), Some(tag));
    }
}

#[cfg(test)]
mod compute_dma_tests {
    use super::*;
    use crate::dsa::OffloadOp;

    #[test]
    fn dma_decrypt_end_to_end() {
        // §IV-E: a NIC DMAs a TLS ciphertext payload into SmartDIMM; the
        // DSA decrypts it as the writes stream in; the CPU reads
        // plaintext without ever running the cipher.
        let mut h = CompCpyHost::new(HostConfig::default());
        let key = [0x21u8; 16];
        let iv = [0x42u8; 12];
        let msg = ulp_compress::corpus::json(8192, 77);
        let gcm = ulp_crypto::gcm::AesGcm::new_128(&key);
        let (ct, tag) = gcm.seal(&iv, b"", &msg);

        let sbuf = h.alloc_pages(2);
        let dbuf = h.alloc_pages(2);
        let handle = h
            .compute_dma(dbuf, sbuf, ct.len(), OffloadOp::TlsDecrypt { key, iv }, b"")
            .expect("registered");
        // The device DMAs the ciphertext straight through the LLC.
        h.mem_mut().dma_write_through(sbuf, &ct);
        let pt = h.read_dma_buffer(&handle);
        assert_eq!(pt, msg);
        assert_eq!(h.tag(&handle), Some(tag), "tag verified over DMA input");
        // The source range in DRAM holds the raw ciphertext (normal write).
        let mut raw = vec![0u8; 64];
        h.mem_mut().load(sbuf, &mut raw, 0);
        assert_eq!(&raw[..], &ct[..64]);
    }

    #[test]
    fn dma_encrypt_end_to_end() {
        let mut h = CompCpyHost::new(HostConfig::default());
        let key = [0x09u8; 16];
        let iv = [0x01u8; 12];
        let msg = ulp_compress::corpus::text(4096, 5);
        let sbuf = h.alloc_pages(1);
        let dbuf = h.alloc_pages(1);
        let handle = h
            .compute_dma(
                dbuf,
                sbuf,
                msg.len(),
                OffloadOp::TlsEncrypt { key, iv },
                b"",
            )
            .expect("registered");
        h.mem_mut().dma_write_through(sbuf, &msg);
        let ct = h.read_dma_buffer(&handle);
        let gcm = ulp_crypto::gcm::AesGcm::new_128(&key);
        let (want, want_tag) = gcm.seal(&iv, b"", &msg);
        assert_eq!(ct, want);
        assert_eq!(h.tag(&handle), Some(want_tag));
        // The scratchpad fully drained after the explicit recycle pass.
        assert_eq!(h.read_status().free_pages, 2048);
    }

    #[test]
    fn dma_rejects_compression_and_misalignment() {
        let mut h = CompCpyHost::new(HostConfig::default());
        let sbuf = h.alloc_pages(1);
        let dbuf = h.alloc_pages(1);
        assert_eq!(
            h.compute_dma(dbuf, sbuf, 4096, OffloadOp::Compress, b""),
            Err(CompCpyError::SingleChannelOnly)
        );
        assert_eq!(
            h.compute_dma(
                PhysAddr(dbuf.0 + 64),
                sbuf,
                64,
                OffloadOp::TlsEncrypt {
                    key: [0; 16],
                    iv: [0; 12]
                },
                b""
            ),
            Err(CompCpyError::NotAligned)
        );
    }

    #[test]
    fn unread_dma_offloads_force_recycle_correctly() {
        // A 3-page scratchpad and an 8 MB LLC: nothing reads the staged
        // results, so later reservations must Force-Recycle earlier
        // offloads — and those must still read back the right bytes.
        let mut cfg = HostConfig::default();
        cfg.dimm.scratchpad_pages = 3;
        cfg.mem.llc = Some(cache::CacheConfig::mb(8, 16));
        let mut h = CompCpyHost::new(cfg);
        let key = [0x3Cu8; 16];
        let mut issued = Vec::new();
        for i in 0..6u64 {
            let msg = ulp_compress::corpus::text(4096, 500 + i);
            let iv = [(i + 1) as u8; 12];
            let sbuf = h.alloc_pages(1);
            let dbuf = h.alloc_pages(1);
            let handle = h
                .compute_dma(
                    dbuf,
                    sbuf,
                    msg.len(),
                    OffloadOp::TlsEncrypt { key, iv },
                    b"",
                )
                .expect("force-recycle must make room");
            h.mem_mut().dma_write_through(sbuf, &msg);
            issued.push((handle, iv, msg));
        }
        assert!(h.force_recycle_count() > 0);
        let gcm = ulp_crypto::gcm::AesGcm::new_128(&key);
        for (i, (handle, iv, msg)) in issued.iter().enumerate() {
            let (want, _) = gcm.seal(iv, b"", msg);
            assert_eq!(h.read_dma_buffer(handle), want, "offload {i}");
        }
    }

    #[test]
    fn repeated_dma_offloads_reuse_buffers() {
        let mut h = CompCpyHost::new(HostConfig::default());
        let key = [0x44u8; 16];
        let sbuf = h.alloc_pages(1);
        let dbuf = h.alloc_pages(1);
        for i in 0..5u64 {
            let msg = ulp_compress::corpus::html(4096, i);
            let iv = [(i + 1) as u8; 12];
            let handle = h
                .compute_dma(
                    dbuf,
                    sbuf,
                    msg.len(),
                    OffloadOp::TlsEncrypt { key, iv },
                    b"",
                )
                .expect("registered");
            h.mem_mut().dma_write_through(sbuf, &msg);
            let ct = h.read_dma_buffer(&handle);
            let gcm = ulp_crypto::gcm::AesGcm::new_128(&key);
            let (want, _) = gcm.seal(&iv, b"", &msg);
            assert_eq!(ct, want, "round {i}");
        }
    }
}
