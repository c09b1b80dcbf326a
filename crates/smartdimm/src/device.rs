//! The SmartDIMM buffer device: the arbiter of Fig. 6.
//!
//! Installed on a simulated DIMM as its `dram::BufferDevice`, it
//! implements the complete decision flow for every CAS command:
//!
//! * maintain the Bank Table from RAS/PRE commands and regenerate the
//!   physical address of each CAS from it alone (Addr Remap) — a DDR4
//!   CAS carries no row, so a CAS to a bank the table holds closed
//!   counts a `bank_desync` and passes through untouched;
//! * serve the MMIO config space (status, registration, context, result
//!   slots, pending list) — these accesses never touch the DRAM chips;
//! * on a rdCAS inside a registered *source* range, forward the DRAM
//!   data to the DSA (S6) and stage the results in the Scratchpad, while
//!   returning the unmodified data to the host (CompCpy's copy still
//!   sees the original bytes); a batched page read and, for Compute DMA
//!   (§IV-E), a wrCAS feed the DSA through the same line acceptor;
//! * on a wrCAS to a *destination* line whose result is staged, replace
//!   the write data with the Scratchpad line and invalidate it —
//!   **Self-Recycle** (S9);
//! * ignore premature writebacks of still-pending lines (S7);
//! * on a rdCAS of a destination line, serve the Scratchpad copy if the
//!   line is still staged (S10), or assert `ALERT_N`/retry if the
//!   computation is pending (S13).

use std::any::Any;
use std::collections::BTreeMap;

use dram::{AddressMapper, BufferDevice, CasInfo, DramTopology, PhysAddr, RdResult, WrResult};
use simkit::{Cycle, FaultHandle, Histogram, TimeSeries};
use ulp_compress::hwmodel::HwDeflateConfig;

use crate::banktable::BankTable;
use crate::configmem::{
    pack_pending, ContextChunk, OffloadStatus, PendingRecord, Registration, ResultSlot, StatusReg,
    CONFIG_SPACE_SIZE, CONTEXT_OFFSET, PENDING_BASE, REGISTER_OFFSET, RESULT_BASE, STATUS_OFFSET,
};
use crate::dsa::{DsaInstance, OffloadContext, OffloadOp};
use crate::scratchpad::{LineState, Scratchpad};
use crate::xlat::{Mapping, TranslationTable};
use crate::{LINES_PER_PAGE, PAGE};

/// Hardware configuration of the buffer device (defaults = §VI).
#[derive(Debug, Clone, Copy)]
pub struct SmartDimmConfig {
    /// Scratchpad pages (2048 × 4 KB = 8 MB).
    pub scratchpad_pages: usize,
    /// Translation-table slots (3 × 4096 = 12288).
    pub xlat_entries: usize,
    /// CAM stash entries (8).
    pub cam_entries: usize,
    /// Result slots in Config Memory.
    pub result_slots: usize,
    /// Base physical address of the MMIO config space (page aligned).
    pub config_base: PhysAddr,
    /// DRAM topology (must match the memory system's).
    pub topology: DramTopology,
    /// Which memory channel this device sits on (one SmartDIMM per
    /// channel under interleaving, §V-D).
    pub channel: usize,
    /// Which DIMM slot of the channel carries this device. Slot 0 by
    /// convention — the other slots are plain capacity DIMMs whose CAS
    /// traffic this device never sees, so registrations must only claim
    /// lines that decode to this slot.
    pub dimm_slot: usize,
    /// Deflate DSA geometry.
    pub hw_deflate: HwDeflateConfig,
}

impl Default for SmartDimmConfig {
    fn default() -> Self {
        SmartDimmConfig {
            scratchpad_pages: 2048,
            xlat_entries: 12288,
            cam_entries: 8,
            result_slots: 1024,
            config_base: PhysAddr(0x4000_0000),
            topology: DramTopology::default(),
            channel: 0,
            dimm_slot: 0,
            hw_deflate: HwDeflateConfig::default(),
        }
    }
}

/// Buffer-device statistics (§VII-A).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct DeviceStats {
    /// Page-pair registrations received.
    pub registrations: u64,
    /// Offloads that reached a terminal DSA state.
    pub offloads_completed: u64,
    /// Source cachelines fed to a DSA.
    pub dsa_lines: u64,
    /// Lines self-recycled by intercepted writebacks.
    pub self_recycles: u64,
    /// Premature writebacks ignored (S7).
    pub ignored_writebacks: u64,
    /// Reads NACKed with `ALERT_N` (S13).
    pub alert_retries: u64,
    /// Destination reads served from the Scratchpad (S10).
    pub scratch_reads: u64,
    /// Registrations dropped because the Scratchpad was full (software
    /// should have Force-Recycled first).
    pub alloc_failures: u64,
    /// Translation-table insert failures (expected: zero).
    pub xlat_failures: u64,
    /// MMIO register writes handled.
    pub mmio_writes: u64,
    /// Source feeds the (injected) arbiter fault dropped.
    pub dropped_feeds: u64,
    /// Bank Table desyncs: activates to a bank the table held open, and
    /// CAS commands to a bank it held closed. Such a CAS has no address
    /// to remap, so it passes through to DRAM untouched.
    pub bank_desyncs: u64,
    /// DSA output lines with no registered destination page to stage in.
    pub orphan_lines: u64,
    /// Whole-page source feeds accepted via the batched read protocol
    /// (one Translation Table probe per 4 KB page instead of per line).
    pub page_feeds: u64,
    /// Registrations rejected because the page pair's source and
    /// destination lines decode to different channels — a shard cannot
    /// serve a pair it only half-sees (§V-D); the host must route such
    /// pairs through a channel-aligned bounce buffer instead.
    pub cross_channel_rejects: u64,
}

#[derive(Debug)]
struct Offload {
    ctx: OffloadContext,
    dsa: DsaInstance,
    /// scratch page per destination page index of the message.
    dst_scratch: Vec<Option<usize>>,
    /// physical page address per destination page index.
    dst_phys: Vec<Option<u64>>,
    /// registered source page addresses (for cleanup).
    src_pages: Vec<u64>,
    /// per-source-line processed flags (dedup repeated rdCAS).
    processed: Vec<bool>,
    done: bool,
}

impl Offload {
    /// The `Partial` result slot of a live TLS engine: bytes processed
    /// plus the raw GHASH accumulator, which the host combines across
    /// channels under interleaving (§V-D).
    fn partial_slot(&self) -> Option<[u8; 64]> {
        if self.done {
            return None;
        }
        let (bytes, partial) = self.dsa.partial()?;
        Some(
            ResultSlot {
                status: OffloadStatus::Partial,
                out_len: bytes as u64,
                tag: partial,
            }
            .to_bytes(),
        )
    }

    /// Forgets destination page `page_index` (recycled or superseded);
    /// returns the page number it was registered at.
    fn forget_dst_page(&mut self, page_index: usize) -> Option<u64> {
        if let Some(s) = self.dst_scratch.get_mut(page_index) {
            *s = None;
        }
        self.dst_phys.get_mut(page_index).and_then(Option::take)
    }
}

/// The CAS path a source line arrives on (S6).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum FeedPath {
    /// A rdCAS of the CompCpy copy; the only path a fault handle arbitrates.
    ReadLine,
    /// One line of a batched page read (never runs with a fault handle).
    ReadPage,
    /// A Compute DMA wrCAS (§IV-E).
    DmaWrite,
}

/// The buffer device. See the module docs for the protocol.
pub struct SmartDimmDevice {
    cfg: SmartDimmConfig,
    mapper: AddressMapper,
    bank_table: BankTable,
    xlat: TranslationTable,
    scratchpad: Scratchpad,
    offloads: BTreeMap<u64, Offload>,
    contexts: BTreeMap<u64, [u8; 48]>,
    results: Vec<[u8; 64]>,
    /// Offload currently owning each result slot (for live partial reads).
    slot_owner: Vec<Option<u64>>,
    stats: DeviceStats,
    /// rdCAS(sbuf) → wrCAS(dbuf) slack histogram (cycles, §IV-D).
    slack: Histogram,
    /// Fault injector (tests only; `None` costs nothing).
    fault: Option<FaultHandle>,
    /// Sentinel pages holding injected translation pressure.
    injected_xlat_pages: Vec<u64>,
    /// Sentinel destination pages of injected scratchpad hogs.
    injected_hog_pages: Vec<u64>,
    /// Next free sentinel page number for injections.
    sentinel_next: u64,
}

impl std::fmt::Debug for SmartDimmDevice {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("SmartDimmDevice")
            .field("offloads", &self.offloads.len())
            .field("free_pages", &self.scratchpad.free_pages())
            .finish()
    }
}

impl SmartDimmDevice {
    /// Builds the device.
    ///
    /// # Panics
    ///
    /// Panics if `config_base` is not page aligned.
    pub fn new(cfg: SmartDimmConfig) -> SmartDimmDevice {
        assert!(cfg.config_base.is_page_aligned(), "config base alignment");
        let topo = cfg.topology;
        SmartDimmDevice {
            mapper: AddressMapper::new(topo),
            bank_table: BankTable::new(topo.ranks, topo.banks_per_rank()),
            xlat: TranslationTable::new(cfg.xlat_entries, cfg.cam_entries),
            scratchpad: Scratchpad::new(cfg.scratchpad_pages),
            offloads: BTreeMap::new(),
            contexts: BTreeMap::new(),
            results: vec![ResultSlot::empty().to_bytes(); cfg.result_slots],
            slot_owner: vec![None; cfg.result_slots],
            stats: DeviceStats::default(),
            slack: Histogram::new("smartdimm.slack_cycles", 200, 2000),
            fault: None,
            injected_xlat_pages: Vec::new(),
            injected_hog_pages: Vec::new(),
            // Sentinel pages for injected state: physical 0x3000_0000+,
            // far above the driver pool and below the MMIO window.
            sentinel_next: 0x30000,
            cfg,
        }
    }

    /// The hardware configuration.
    pub fn config(&self) -> &SmartDimmConfig {
        &self.cfg
    }

    /// Statistics snapshot.
    pub fn stats(&self) -> DeviceStats {
        self.stats
    }

    /// Free scratchpad pages right now.
    pub fn free_pages(&self) -> usize {
        self.scratchpad.free_pages()
    }

    /// Scratchpad occupancy time series (Fig. 10).
    pub fn occupancy_series(&self) -> &TimeSeries {
        self.scratchpad.occupancy_series()
    }

    /// Scratchpad statistics.
    pub fn scratchpad_stats(&self) -> crate::scratchpad::ScratchpadStats {
        self.scratchpad.stats()
    }

    /// Translation-table statistics (for the §IV-C ablation).
    pub fn xlat_stats(&self) -> crate::xlat::XlatStats {
        self.xlat.stats()
    }

    /// Read-only view of the translation table (oracle invariants).
    pub fn xlat(&self) -> &crate::xlat::TranslationTable {
        &self.xlat
    }

    /// The rdCAS→wrCAS slack histogram in DDR command-clock cycles
    /// (§IV-D reports the budget exceeds 1 µs = 1600 cycles).
    pub fn slack_histogram(&self) -> &Histogram {
        &self.slack
    }

    /// Registers every device statistic under `scope` as three sibling
    /// sub-scopes — `device` (protocol counters + slack histogram),
    /// `scratchpad`, and `xlat` — so a multi-channel host can mount each
    /// shard under `channel[i]` for a `telemetry/v1` snapshot.
    pub fn export_telemetry(&self, scope: &mut simkit::telemetry::Scope) {
        let s = self.stats;
        let dev_scope = scope.scope("device");
        dev_scope.set_counter("registrations", s.registrations);
        dev_scope.set_counter("offloads_completed", s.offloads_completed);
        dev_scope.set_counter("dsa_lines", s.dsa_lines);
        dev_scope.set_counter("self_recycles", s.self_recycles);
        dev_scope.set_counter("ignored_writebacks", s.ignored_writebacks);
        dev_scope.set_counter("alert_retries", s.alert_retries);
        dev_scope.set_counter("scratch_reads", s.scratch_reads);
        dev_scope.set_counter("alloc_failures", s.alloc_failures);
        dev_scope.set_counter("xlat_failures", s.xlat_failures);
        dev_scope.set_counter("mmio_writes", s.mmio_writes);
        dev_scope.set_counter("dropped_feeds", s.dropped_feeds);
        dev_scope.set_counter("bank_desyncs", s.bank_desyncs);
        dev_scope.set_counter("orphan_lines", s.orphan_lines);
        dev_scope.set_counter("page_feeds", s.page_feeds);
        dev_scope.set_counter("cross_channel_rejects", s.cross_channel_rejects);
        dev_scope.set_histogram("slack_cycles", &self.slack);
        let sp = self.scratchpad.stats();
        let sp_scope = scope.scope("scratchpad");
        sp_scope.set_counter("allocs", sp.allocs);
        sp_scope.set_counter("frees", sp.frees);
        sp_scope.set_counter("self_recycled_lines", sp.self_recycled_lines);
        sp_scope.set_counter("peak_bytes", sp.peak_bytes as u64);
        sp_scope.set_counter("free_pages", self.scratchpad.free_pages() as u64);
        sp_scope.set_time_series("occupancy_bytes", self.scratchpad.occupancy_series());
        let xs = self.xlat.stats();
        let xl_scope = scope.scope("xlat");
        xl_scope.set_counter("inserts", xs.inserts);
        xl_scope.set_counter("first_try", xs.first_try);
        xl_scope.set_counter("displacements", xs.displacements);
        xl_scope.set_counter("stash_spills", xs.stash_spills);
        xl_scope.set_counter("failures", xs.failures);
        xl_scope.set_counter("lookups", xs.lookups);
    }

    /// Installs a fault injector. Device-side hooks (dropped S6
    /// interceptions) consult it; the injection helpers below apply the
    /// preparation faults the CompCpy host arms per offload.
    pub fn set_fault_handle(&mut self, fault: FaultHandle) {
        self.fault = Some(fault);
    }

    /// Fault injection: inserts up to `entries` dummy source
    /// registrations (competing tenants) into the translation table.
    /// Returns how many fit before `TableFull`.
    pub fn inject_xlat_pressure(&mut self, entries: usize) -> usize {
        let mut inserted = 0;
        for _ in 0..entries {
            let page = self.sentinel_next;
            self.sentinel_next += 1;
            let mapping = Mapping::Source {
                offload: u64::MAX,
                msg_offset: 0,
            };
            if self.xlat.insert(page, mapping).is_err() {
                break;
            }
            self.injected_xlat_pages.push(page);
            inserted += 1;
        }
        inserted
    }

    /// Fault injection: stages up to `pages` phantom scratchpad pages
    /// (every line valid, owner never consumes them). They appear in the
    /// pending list, so Force-Recycle can genuinely reclaim them with its
    /// flush + explicit-write passes. Returns how many were staged.
    pub fn inject_scratch_hog(&mut self, at: Cycle, pages: usize) -> usize {
        let mut staged = 0;
        for _ in 0..pages {
            let dst_page = self.sentinel_next;
            self.sentinel_next += 1;
            let mask = crate::scratchpad::prefix_mask(LINES_PER_PAGE);
            let Some(sp) = self.scratchpad.alloc(at, dst_page, mask) else {
                break;
            };
            let mapping = Mapping::Dest {
                offload: u64::MAX,
                msg_offset: 0,
                scratch_page: sp,
            };
            if self.xlat.insert(dst_page, mapping).is_err() {
                self.scratchpad.force_free(at, sp);
                break;
            }
            for line in 0..LINES_PER_PAGE {
                self.scratchpad.produce(sp, line, [0xA5u8; 64], None);
            }
            self.injected_hog_pages.push(dst_page);
            staged += 1;
        }
        staged
    }

    /// Drains injected state that survived the offload: phantom pressure
    /// registrations and any hog pages Force-Recycle did not reclaim
    /// (modeling the competing tenants retiring their offloads).
    pub fn clear_injected(&mut self, at: Cycle) {
        for page in self.injected_xlat_pages.drain(..) {
            self.xlat.remove(page);
        }
        for page in self.injected_hog_pages.drain(..) {
            if let Some(Mapping::Dest { scratch_page, .. }) = self.xlat.peek(page) {
                self.scratchpad.force_free(at, scratch_page);
                self.xlat.remove(page);
            }
        }
    }

    /// Live injected entries (pressure registrations + unreclaimed hogs).
    pub fn injected_entries(&self) -> usize {
        self.injected_xlat_pages.len()
            + self
                .injected_hog_pages
                .iter()
                .filter(|&&p| self.xlat.peek(p).is_some())
                .count()
    }

    fn in_config_space(&self, addr: PhysAddr) -> bool {
        let span = CONFIG_SPACE_SIZE * self.cfg.topology.channels as u64;
        addr.0 >= self.cfg.config_base.0 && addr.0 < self.cfg.config_base.0 + span
    }

    /// Whether `line_addr` decodes to this shard's channel *and* DIMM
    /// slot — the only lines whose CAS traffic this device observes
    /// (capacity DIMMs on the same bus carry no DSA).
    fn line_on_shard(&self, line_addr: PhysAddr) -> bool {
        let loc = self.mapper.decode(line_addr);
        loc.channel == self.cfg.channel
            && self.cfg.topology.dimm_slot_of_rank(loc.rank) == self.cfg.dimm_slot
    }

    /// De-interleaves a physical config-space address into this device's
    /// logical register offset. Fine-grain channel interleaving spreads
    /// consecutive cachelines across channels, so each DIMM's private
    /// register window is the subset of lines that map to its channel;
    /// the logical offset is the line's rank within that subset (§V-D).
    fn mmio_logical_offset(&self, addr: PhysAddr) -> u64 {
        let topo = &self.cfg.topology;
        let ch = topo.channels as u64;
        let g = topo.channel_interleave_lines as u64;
        let li = (addr.0 - self.cfg.config_base.0) / 64;
        let logical_line = (li / (ch * g)) * g + li % g;
        logical_line * 64 + (addr.0 - self.cfg.config_base.0) % 64
    }

    fn handle_mmio_read(&mut self, addr: PhysAddr) -> [u8; 64] {
        let off = self.mmio_logical_offset(addr);
        match off {
            STATUS_OFFSET => StatusReg {
                free_pages: self.scratchpad.free_pages() as u64,
                pending_pages: self.scratchpad.pending_pages().len() as u64,
                self_recycled: self.stats.self_recycles,
                ignored_writebacks: self.stats.ignored_writebacks,
            }
            .to_bytes(),
            o if o >= RESULT_BASE && o < RESULT_BASE + (self.results.len() as u64) * 64 => {
                let slot = ((o - RESULT_BASE) / 64) as usize;
                // Live TLS offloads expose their running partial result.
                let owner = self.slot_owner.get(slot).copied().flatten();
                owner
                    .and_then(|id| self.offloads.get(&id))
                    .and_then(Offload::partial_slot)
                    .or_else(|| self.results.get(slot).copied())
                    .unwrap_or([0u8; 64])
            }
            o if (PENDING_BASE..CONFIG_SPACE_SIZE).contains(&o) => {
                let index = ((o - PENDING_BASE) / 64) as usize * 4;
                let pending = self.scratchpad.pending_pages();
                let records: Vec<PendingRecord> = pending
                    .iter()
                    .skip(index)
                    .take(4)
                    .map(|&(sp, dst_page)| {
                        let mut bitmap = 0u64;
                        for line in self.scratchpad.valid_lines(sp) {
                            bitmap |= 1 << line;
                        }
                        PendingRecord {
                            dst_page_addr: dst_page << 12,
                            valid_bitmap: bitmap,
                        }
                    })
                    .collect();
                pack_pending(&records)
            }
            _ => [0u8; 64],
        }
    }

    fn handle_mmio_write(&mut self, at: Cycle, addr: PhysAddr, data: &[u8; 64]) {
        self.stats.mmio_writes += 1;
        let off = self.mmio_logical_offset(addr);
        match off {
            REGISTER_OFFSET => self.register(at, Registration::from_bytes(data)),
            CONTEXT_OFFSET => {
                let chunk = ContextChunk::from_bytes(data);
                self.contexts.insert(chunk.offload_id, chunk.payload);
                // Hardware context memory is finite: retire the oldest
                // entries once we exceed the result-slot count (ids are
                // monotonic, so first = oldest). Keeps non-participating
                // shards of a multi-channel broadcast from growing the
                // map without bound.
                while self.contexts.len() > self.results.len() {
                    self.contexts.pop_first();
                }
            }
            _ => {}
        }
    }

    fn register(&mut self, at: Cycle, reg: Registration) {
        self.stats.registrations += 1;
        let Some(payload) = self.contexts.get(&reg.offload_id).copied() else {
            // Context must precede registration; drop silently (counts as
            // a software bug surfaced by the xlat_failures stat).
            self.stats.xlat_failures += 1;
            return;
        };
        let Some(ctx) = OffloadContext::decode(&payload) else {
            // Corrupt context payload: reject the registration.
            self.stats.xlat_failures += 1;
            return;
        };
        let (op, msg_len) = (ctx.op, ctx.msg_len);
        let page_index = (reg.msg_offset as usize) / PAGE;
        let num_pages = msg_len.div_ceil(PAGE);
        if page_index >= num_pages {
            // A descriptor whose msg_offset lies beyond the message is a
            // driver bug; the hardware must reject it, not fault on it.
            self.stats.xlat_failures += 1;
            return;
        }

        // Lazily create the offload state on its first page registration.
        if !self.offloads.contains_key(&reg.offload_id) {
            self.offloads.insert(
                reg.offload_id,
                Offload {
                    ctx,
                    dsa: DsaInstance::new(&ctx, self.cfg.hw_deflate),
                    dst_scratch: vec![None; num_pages],
                    dst_phys: vec![None; num_pages],
                    src_pages: Vec::new(),
                    processed: vec![false; msg_len.div_ceil(64)],
                    done: false,
                },
            );
            let slot = self.slot_of(reg.offload_id);
            if let Some(r) = self.results.get_mut(slot) {
                *r = ResultSlot::empty().to_bytes();
            }
            if let Some(owner) = self.slot_owner.get_mut(slot) {
                *owner = Some(reg.offload_id);
            }
        }

        // A destination page may be re-registered before its previous
        // offload fully recycled (e.g. a persistent connection reusing
        // its record buffer while some lines had their writebacks ignored
        // at S7). The new registration supersedes the old staging.
        if let Some(Mapping::Dest {
            offload: old_id,
            msg_offset: old_off,
            scratch_page: old_sp,
        }) = self.xlat.peek(reg.dst_page_addr >> 12)
        {
            self.scratchpad.force_free(at, old_sp);
            self.xlat.remove(reg.dst_page_addr >> 12);
            if let Some(old) = self.offloads.get_mut(&old_id) {
                old.forget_dst_page(old_off / PAGE);
            }
            if old_id != reg.offload_id {
                // Same-id re-registration must not drop the offload we are
                // in the middle of (re)registering: its first page pair has
                // no staging yet, so maybe_drop_offload would reap it here.
                self.maybe_drop_offload(old_id);
            }
        }

        // Bytes of the message covered by this page.
        let covered = (msg_len - reg.msg_offset as usize).min(PAGE);
        let covered_lines = match op {
            // Size-preserving: output lines mirror the input coverage.
            OffloadOp::TlsEncrypt { .. } | OffloadOp::TlsDecrypt { .. } => covered.div_ceil(64),
            // Compression output never exceeds its input (stored/raw
            // fallback), so the input coverage bounds it.
            OffloadOp::Compress => covered.div_ceil(64),
            // Decompression can expand up to the full 4 KB page; the
            // actual count is trimmed at completion (§V-C registers as
            // many destination pages as source pages).
            OffloadOp::Decompress => LINES_PER_PAGE,
        };
        // Under channel interleaving this DIMM stages only the covered
        // lines whose addresses map to its channel (§V-D).
        let mut expected_mask = 0u64;
        for l in 0..covered_lines {
            let line_addr = PhysAddr(reg.dst_page_addr + (l as u64) * 64);
            if self.line_on_shard(line_addr) {
                expected_mask |= 1u64 << l;
            }
        }
        // The source lines this shard will see on its own channel. A
        // shard can only serve a page pair it sees both sides of: the
        // rd-CAS feed (source) and the wr-CAS/rd-CAS staging (dest) are
        // both routed per channel decode, so a pair whose masks disagree
        // would stage destination lines that are never fed (or feed a
        // DSA whose output it cannot stage) and hang at S13.
        let src_lines = covered.div_ceil(64);
        let mut src_mask = 0u64;
        for l in 0..src_lines {
            let line_addr = PhysAddr(reg.src_page_addr + (l as u64) * 64);
            if self.line_on_shard(line_addr) {
                src_mask |= 1u64 << l;
            }
        }
        if expected_mask == 0 && src_mask == 0 {
            // No cacheline of this pair lands on this DIMM; drop the
            // lazily-created record if no earlier page touched us (the
            // context stays: a later page of the offload may land here).
            self.reap_if_untouched(reg.offload_id);
            return;
        }
        let aligned = match op {
            // Size-preserving ops and compression cover the same line
            // count on both sides: the shard must see line i of the
            // source exactly when it stages line i of the destination.
            OffloadOp::TlsEncrypt { .. } | OffloadOp::TlsDecrypt { .. } | OffloadOp::Compress => {
                src_mask == expected_mask
            }
            // Decompression output spans the whole page regardless of
            // input coverage, so both pages must be entirely on this
            // channel (page-granular placement, e.g. coarse interleave).
            OffloadOp::Decompress => {
                src_mask == crate::scratchpad::prefix_mask(src_lines)
                    && expected_mask == crate::scratchpad::prefix_mask(covered_lines)
            }
        };
        if !aligned {
            // Cross-channel page pair: the host driver must bounce it
            // through a channel-aligned buffer. Reject loudly instead of
            // hanging the offload.
            self.stats.cross_channel_rejects += 1;
            self.reap_if_untouched(reg.offload_id);
            return;
        }
        let Some(scratch_page) = self
            .scratchpad
            .alloc(at, reg.dst_page_addr >> 12, expected_mask)
        else {
            self.stats.alloc_failures += 1;
            return;
        };

        let src_ok = self.xlat.insert(
            reg.src_page_addr >> 12,
            Mapping::Source {
                offload: reg.offload_id,
                msg_offset: reg.msg_offset as usize,
            },
        );
        let dst_ok = self.xlat.insert(
            reg.dst_page_addr >> 12,
            Mapping::Dest {
                offload: reg.offload_id,
                msg_offset: reg.msg_offset as usize,
                scratch_page,
            },
        );
        if src_ok.is_err() || dst_ok.is_err() {
            // Roll back: a half-registered page pair must not leak its
            // scratchpad page or leave a dangling translation behind.
            self.stats.xlat_failures += 1;
            self.scratchpad.force_free(at, scratch_page);
            if src_ok.is_ok() {
                self.xlat.remove(reg.src_page_addr >> 12);
            }
            if dst_ok.is_ok() {
                self.xlat.remove(reg.dst_page_addr >> 12);
            }
            return;
        }
        let Some(off) = self.offloads.get_mut(&reg.offload_id) else {
            // The offload record vanished (should be unreachable now that
            // same-id supersede keeps it alive); unwind the registration
            // instead of faulting the device.
            self.stats.xlat_failures += 1;
            self.scratchpad.force_free(at, scratch_page);
            self.xlat.remove(reg.src_page_addr >> 12);
            self.xlat.remove(reg.dst_page_addr >> 12);
            return;
        };
        // `page_index < num_pages` was checked above; the vectors were
        // sized with `num_pages` when the record was created.
        if let Some(s) = off.dst_scratch.get_mut(page_index) {
            *s = Some(scratch_page);
        }
        if let Some(p) = off.dst_phys.get_mut(page_index) {
            *p = Some(reg.dst_page_addr >> 12);
        }
        off.src_pages.push(reg.src_page_addr >> 12);
    }

    /// The one S6 line acceptor. Feeds the source line at message byte
    /// `byte_offset` of `offload` to its DSA, stages the output lines in
    /// the Scratchpad and finalizes the offload on completion — all at
    /// the line's own CAS instant `at`, inside the rdCAS→wrCAS slack
    /// (§IV-D). Read paths feed only copy-fed offloads, the DMA path only
    /// Compute DMA ones. A line already processed (a repeat read) or
    /// dropped by an injected interception miss is skipped.
    ///
    /// Returns `false` when no live offload fed by `path` covers the
    /// line — it is gone, fed by the other path, or the line lies past
    /// the message end.
    fn accept_line(
        &mut self,
        path: FeedPath,
        offload: u64,
        byte_offset: usize,
        data: &[u8; 64],
        at: Cycle,
    ) -> bool {
        let Some(off) = self.offloads.get_mut(&offload) else {
            return false;
        };
        let msg_len = off.ctx.msg_len;
        if off.ctx.dma_input != (path == FeedPath::DmaWrite) || byte_offset >= msg_len {
            return false;
        }
        let line_index = byte_offset / 64;
        let Some(processed) = off.processed.get_mut(line_index) else {
            return false;
        };
        if *processed {
            return true;
        }
        if let (FeedPath::ReadLine, Some(f)) = (path, &self.fault) {
            // Injected interception miss: the arbiter fails to feed this
            // line. `processed` stays clear, so a host re-read of the
            // source range recovers the offload.
            if f.drop_source_feed(line_index) {
                self.stats.dropped_feeds += 1;
                return true;
            }
        }
        *processed = true;
        self.stats.dsa_lines += 1;
        let out = off
            .dsa
            .process_line(byte_offset, data, (msg_len - byte_offset).min(64));
        Self::stage_outputs(
            &mut self.scratchpad,
            &mut self.stats,
            off,
            at,
            &out.produced,
        );
        if let Some(c) = out.completion {
            self.finalize(at, offload, c);
        }
        true
    }

    /// Routes DSA output lines into the scratchpad pages of the offload.
    fn stage_outputs(
        scratchpad: &mut Scratchpad,
        stats: &mut DeviceStats,
        off: &Offload,
        at: Cycle,
        produced: &[(usize, [u8; 64])],
    ) {
        for &(out_line, data) in produced {
            let page_index = out_line / LINES_PER_PAGE;
            let line_in_page = out_line % LINES_PER_PAGE;
            // An output line beyond the registered destination range (or
            // landing on a superseded page) has nowhere to go: count it
            // and drop the data rather than faulting the device.
            let Some(Some(scratch)) = off.dst_scratch.get(page_index).copied() else {
                stats.orphan_lines += 1;
                continue;
            };
            if scratchpad.line_state(scratch, line_in_page) == LineState::Pending {
                scratchpad.produce(scratch, line_in_page, data, Some(at));
            }
        }
    }

    /// The result slot an offload reports through.
    fn slot_of(&self, offload_id: u64) -> usize {
        (offload_id as usize) % self.results.len()
    }

    fn finalize(&mut self, at: Cycle, offload_id: u64, completion: crate::dsa::DsaCompletion) {
        let slot = self.slot_of(offload_id);
        if let Some(r) = self.results.get_mut(slot) {
            *r = ResultSlot {
                status: completion.status,
                out_len: completion.out_len as u64,
                tag: completion.tag.unwrap_or([0u8; 16]),
            }
            .to_bytes();
        }
        self.stats.offloads_completed += 1;
        let Some(off) = self.offloads.get_mut(&offload_id) else {
            return; // completion raced a full supersede; result already stored
        };
        off.done = true;
        if !off.ctx.op.size_preserving() {
            // Trim destination pages to the actual output size.
            let out_lines = completion.out_len.div_ceil(64);
            for (page_index, scratch) in off.dst_scratch.clone().iter().enumerate() {
                let Some(sp) = *scratch else { continue };
                let start_line = page_index * LINES_PER_PAGE;
                let lines_here = out_lines.saturating_sub(start_line).min(LINES_PER_PAGE);
                let freed_before = self.scratchpad.free_pages();
                self.scratchpad
                    .set_expected(at, sp, crate::scratchpad::prefix_mask(lines_here));
                if self.scratchpad.free_pages() > freed_before {
                    // Page freed entirely (no output lines landed here).
                    self.cleanup_dst_page(offload_id, page_index);
                }
            }
        }
        self.maybe_drop_offload(offload_id);
    }

    fn cleanup_dst_page(&mut self, offload_id: u64, page_index: usize) {
        let off = self.offloads.get_mut(&offload_id);
        if let Some(dst_page) = off.and_then(|off| off.forget_dst_page(page_index)) {
            self.xlat.remove(dst_page);
        }
    }

    /// Removes the lazily-created record for `offload_id` if no page
    /// pair has actually landed on this shard. The registration
    /// broadcast reaches every channel, so non-participating shards must
    /// not accumulate empty records. The context entry is kept: a later
    /// page of the same offload may still decode to this channel.
    fn reap_if_untouched(&mut self, offload_id: u64) {
        let untouched = match self.offloads.get(&offload_id) {
            Some(off) => off.src_pages.is_empty() && off.dst_scratch.iter().all(|s| s.is_none()),
            None => false,
        };
        if !untouched {
            return;
        }
        self.offloads.remove(&offload_id);
        self.release_slot(offload_id);
    }

    /// Clears `offload_id`'s claim on its result slot, if it still holds it.
    fn release_slot(&mut self, offload_id: u64) {
        let slot = self.slot_of(offload_id);
        if let Some(owner) = self.slot_owner.get_mut(slot) {
            if *owner == Some(offload_id) {
                *owner = None;
            }
        }
    }

    fn maybe_drop_offload(&mut self, offload_id: u64) {
        // An offload is dead once no destination page stages output for
        // it anymore — either it completed and fully recycled, or every
        // page was superseded by re-registrations.
        let drop_it = match self.offloads.get(&offload_id) {
            Some(off) => off.dst_scratch.iter().all(|s| s.is_none()),
            None => false,
        };
        if !drop_it {
            return;
        }
        let Some(off) = self.offloads.remove(&offload_id) else {
            return;
        };
        // A partial TLS engine (channel interleaving) fully recycled
        // without a device-local completion: persist its partial result
        // for the host-side combine.
        let slot = self.slot_of(offload_id);
        if let (Some(partial), Some(r)) = (off.partial_slot(), self.results.get_mut(slot)) {
            *r = partial;
        }
        self.release_slot(offload_id);
        for src in off.src_pages {
            // A newer offload may have re-registered the same source
            // page (persistent connections reuse buffers): remove the
            // translation only if it still belongs to this offload.
            if let Some(Mapping::Source { offload, .. }) = self.xlat.peek(src) {
                if offload == offload_id {
                    self.xlat.remove(src);
                }
            }
        }
        self.contexts.remove(&offload_id);
    }

    /// Addr Remap (§IV-C): regenerates the physical address of a CAS
    /// from the Bank Table's open row plus the CAS coordinates — a DDR4
    /// CAS carries no row. A CAS to a bank the table holds closed has no
    /// address: it counts a `bank_desync` and yields `None`, and the
    /// caller passes it through untouched.
    fn remap(&mut self, info: &CasInfo) -> Option<PhysAddr> {
        let Some(row) = self.bank_table.active_row(info.loc.rank, info.bank_index) else {
            self.stats.bank_desyncs += 1;
            return None;
        };
        debug_assert_eq!(row, info.loc.row, "bank table out of sync");
        let mut loc = info.loc;
        loc.row = row;
        let phys = self.mapper.encode(&loc);
        debug_assert_eq!(phys, info.phys, "addr remap mismatch");
        Some(phys)
    }
}

impl BufferDevice for SmartDimmDevice {
    fn on_activate(&mut self, _at: Cycle, rank: usize, bank_index: usize, row: usize) {
        // An activate on an already-open bank means we missed the
        // controller's implicit precharge: the shadowed row was stale.
        if self.bank_table.activate(rank, bank_index, row) {
            self.stats.bank_desyncs += 1;
        }
    }

    fn on_precharge(&mut self, _at: Cycle, rank: usize, bank_index: usize) {
        self.bank_table.precharge(rank, bank_index);
    }

    fn on_rd_cas(&mut self, info: &CasInfo, dram_data: &[u8; 64]) -> RdResult {
        let Some(phys) = self.remap(info) else {
            return RdResult::Data(*dram_data);
        };
        if self.in_config_space(phys) {
            return RdResult::Data(self.handle_mmio_read(phys));
        }

        let line_in_page = ((phys.0 & 0xFFF) / 64) as usize;
        match self.xlat.lookup(phys.page()) {
            None => RdResult::Data(*dram_data), // S4: regular DIMM
            Some(Mapping::Source {
                offload,
                msg_offset,
            }) => {
                // S6: feed the DSA, stage results, pass data through.
                let byte_offset = msg_offset + line_in_page * 64;
                self.accept_line(FeedPath::ReadLine, offload, byte_offset, dram_data, info.at);
                RdResult::Data(*dram_data)
            }
            Some(Mapping::Dest { scratch_page, .. }) => {
                match self.scratchpad.line_state(scratch_page, line_in_page) {
                    LineState::Valid => {
                        // S10: serve from the Scratchpad.
                        self.stats.scratch_reads += 1;
                        RdResult::Data(self.scratchpad.read(scratch_page, line_in_page))
                    }
                    LineState::Pending => {
                        // S13: computation unfinished — ALERT_N retry.
                        self.stats.alert_retries += 1;
                        RdResult::Retry
                    }
                    LineState::Done => RdResult::Data(*dram_data),
                }
            }
        }
    }

    fn page_read_supported(&mut self, base: PhysAddr) -> bool {
        // Batched page reads bypass the per-line CAS interception, so they
        // are only safe when nothing on this page needs per-line handling:
        //  * config-space reads must go through the MMIO handler,
        //  * destination pages can hold Pending lines that demand a Retry
        //    (inexpressible in a batch),
        //  * an installed fault handle must see each source feed
        //    individually to decide which ones to drop.
        if self.fault.is_some() {
            return false;
        }
        if self.in_config_space(base) || self.in_config_space(PhysAddr(base.0 + 0xFFF)) {
            return false;
        }
        !matches!(self.xlat.peek(base.page()), Some(Mapping::Dest { .. }))
    }

    fn on_rd_page(
        &mut self,
        base: PhysAddr,
        first_at: Cycle,
        stride: u64,
        // simlint: allow(PANIC-INDEX): fixed-size array type annotation, not an indexing expression
        data: &mut [[u8; 64]; 64],
    ) {
        // S6 for a whole page at once: one Translation Table probe covers
        // all 64 lines (they share a page number). Unmapped pages pass
        // through untouched, exactly like the per-line S4 path.
        let Some(Mapping::Source {
            offload,
            msg_offset,
        }) = self.xlat.lookup(base.page())
        else {
            return;
        };
        self.stats.page_feeds += 1;
        for (line_in_page, line) in data.iter().enumerate() {
            // Line i's burst issues i strides after the first — the same
            // instant the per-line path would stamp in `CasInfo::at`, so
            // scratchpad produce times (and thus the slack histogram)
            // match the serialized command stream. A completion's trim
            // can retire the record mid-page.
            let at = first_at + (line_in_page as u64) * stride;
            let byte_offset = msg_offset + line_in_page * 64;
            if !self.accept_line(FeedPath::ReadPage, offload, byte_offset, line, at) {
                break;
            }
        }
    }

    fn on_wr_cas(&mut self, info: &CasInfo, host_data: &[u8; 64]) -> WrResult {
        let Some(phys) = self.remap(info) else {
            return WrResult::Commit(*host_data);
        };
        if self.in_config_space(phys) {
            self.handle_mmio_write(info.at, phys, host_data);
            return WrResult::Ignore;
        }

        let page = phys.page();
        let line_in_page = ((phys.0 & 0xFFF) / 64) as usize;
        match self.xlat.lookup(page) {
            None => WrResult::Commit(*host_data),
            Some(Mapping::Source {
                offload,
                msg_offset,
            }) => {
                // Compute DMA (§IV-E): a write into a registered source
                // range feeds the DSA as the device DMAs the data in; the
                // data also commits to DRAM as a normal write.
                let byte_offset = msg_offset + line_in_page * 64;
                self.accept_line(FeedPath::DmaWrite, offload, byte_offset, host_data, info.at);
                WrResult::Commit(*host_data)
            }
            Some(Mapping::Dest {
                offload,
                msg_offset,
                scratch_page,
            }) => {
                match self.scratchpad.line_state(scratch_page, line_in_page) {
                    LineState::Valid => {
                        // S9: Self-Recycle — substitute the staged result.
                        let (data, produced_at, freed) =
                            self.scratchpad.recycle(info.at, scratch_page, line_in_page);
                        self.stats.self_recycles += 1;
                        if let Some(t0) = produced_at {
                            self.slack.record(info.at.saturating_since(t0));
                        }
                        if freed {
                            // Remove the translation by page, not through
                            // the offload record: pages staged without a
                            // live offload (injected hogs, races with
                            // supersede) must not orphan their entry.
                            self.xlat.remove(page);
                            if let Some(off) = self.offloads.get_mut(&offload) {
                                off.forget_dst_page(msg_offset / PAGE);
                            }
                            self.maybe_drop_offload(offload);
                        }
                        WrResult::Commit(data)
                    }
                    LineState::Pending => {
                        // S7: premature writeback — ignore, keep pending.
                        self.stats.ignored_writebacks += 1;
                        WrResult::Ignore
                    }
                    LineState::Done => WrResult::Commit(*host_data),
                }
            }
        }
    }

    fn as_any_mut(&mut self) -> &mut dyn Any {
        self
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn mk_info(mapper: &AddressMapper, addr: PhysAddr, at: Cycle) -> CasInfo {
        let loc = mapper.decode(addr);
        CasInfo {
            loc,
            phys: addr.cacheline(),
            bank_index: loc.bank_index(mapper.topology()),
            at,
            tag: 0,
        }
    }

    fn payload(op: OffloadOp, msg_len: usize) -> [u8; 48] {
        OffloadContext::new(op, msg_len, b"").unwrap().encode()
    }

    fn prepare(dev: &mut SmartDimmDevice, addr: PhysAddr) -> CasInfo {
        // Open the row at the device's bank table the way the controller
        // would before any CAS.
        let mapper = AddressMapper::new(dev.cfg.topology);
        let info = mk_info(&mapper, addr, Cycle(0));
        dev.on_activate(Cycle(0), info.loc.rank, info.bank_index, info.loc.row);
        info
    }

    #[test]
    fn mmio_status_read() {
        let mut dev = SmartDimmDevice::new(SmartDimmConfig::default());
        let addr = PhysAddr(dev.cfg.config_base.0 + STATUS_OFFSET);
        let info = prepare(&mut dev, addr);
        match dev.on_rd_cas(&info, &[0u8; 64]) {
            RdResult::Data(d) => {
                let status = StatusReg::from_bytes(&d);
                assert_eq!(status.free_pages, 2048);
                assert_eq!(status.pending_pages, 0);
            }
            RdResult::Retry => panic!("status read must not retry"),
        }
    }

    #[test]
    fn mmio_writes_never_reach_dram() {
        let mut dev = SmartDimmDevice::new(SmartDimmConfig::default());
        let addr = PhysAddr(dev.cfg.config_base.0 + CONTEXT_OFFSET);
        let info = prepare(&mut dev, addr);
        let chunk = ContextChunk {
            offload_id: 1,
            payload: payload(OffloadOp::Compress, 64),
        };
        assert_eq!(dev.on_wr_cas(&info, &chunk.to_bytes()), WrResult::Ignore);
        assert_eq!(dev.stats().mmio_writes, 1);
    }

    #[test]
    fn activate_on_open_bank_counts_desync() {
        // Regression: an activate on an already-open bank (the
        // controller issued an implicit precharge the device never saw)
        // used to overwrite the shadowed row silently. It must bump
        // `bank_desyncs` like the rd-CAS resync path does.
        let mut dev = SmartDimmDevice::new(SmartDimmConfig::default());
        dev.on_activate(Cycle(0), 0, 3, 100);
        assert_eq!(dev.stats().bank_desyncs, 0);
        dev.on_activate(Cycle(1), 0, 3, 200);
        assert_eq!(dev.stats().bank_desyncs, 1);
        // A precharged activate is clean.
        dev.on_precharge(Cycle(2), 0, 3);
        dev.on_activate(Cycle(3), 0, 3, 300);
        assert_eq!(dev.stats().bank_desyncs, 1);
    }

    /// Addr Remap uses the Bank Table alone: a CAS to a bank the table
    /// holds closed has no address, so it counts a desync and passes
    /// through — no DSA feed, no staging, no MMIO handling.
    #[test]
    fn cas_to_precharged_bank_passes_through_untouched() {
        let mut dev = SmartDimmDevice::new(SmartDimmConfig::default());
        let base = dev.cfg.config_base.0;
        let ctx = ContextChunk {
            offload_id: 5,
            payload: payload(
                OffloadOp::TlsEncrypt {
                    key: [1; 16],
                    iv: [2; 12],
                },
                4096,
            ),
        };
        let info = prepare(&mut dev, PhysAddr(base + CONTEXT_OFFSET));
        dev.on_wr_cas(&info, &ctx.to_bytes());
        let reg = Registration {
            offload_id: 5,
            src_page_addr: 0x10000,
            dst_page_addr: 0x20000,
            msg_offset: 0,
        };
        let info = prepare(&mut dev, PhysAddr(base + REGISTER_OFFSET));
        dev.on_wr_cas(&info, &reg.to_bytes());
        let before = dev.stats();
        assert_eq!((before.registrations, before.bank_desyncs), (1, 0));

        let mapper = AddressMapper::new(dev.cfg.topology);
        let another = Registration {
            offload_id: 6,
            src_page_addr: 0x30000,
            dst_page_addr: 0x40000,
            msg_offset: 0,
        }
        .to_bytes();
        let targets = [
            (0x10000, [0x5A; 64]), // registered source line
            (0x20000, [0x5B; 64]), // staged (pending) destination line
            (base + STATUS_OFFSET, [0x5C; 64]),
            (base + REGISTER_OFFSET, another),
        ];
        for (i, (addr, data)) in targets.into_iter().enumerate() {
            let info = mk_info(&mapper, PhysAddr(addr), Cycle(10));
            dev.on_precharge(Cycle(9), info.loc.rank, info.bank_index);
            assert_eq!(
                dev.on_rd_cas(&info, &data),
                RdResult::Data(data),
                "{addr:#x}"
            );
            assert_eq!(
                dev.on_wr_cas(&info, &data),
                WrResult::Commit(data),
                "{addr:#x}"
            );
            assert_eq!(dev.stats().bank_desyncs, 2 * (i as u64 + 1));
        }
        let after = dev.stats();
        assert_eq!(after.dsa_lines, before.dsa_lines);
        assert_eq!(after.registrations, before.registrations);
        assert_eq!(after.mmio_writes, before.mmio_writes);
        assert_eq!(
            (after.alert_retries, after.ignored_writebacks),
            (0, 0),
            "the staged line was never consulted"
        );
    }

    #[test]
    fn unregistered_pages_pass_through() {
        let mut dev = SmartDimmDevice::new(SmartDimmConfig::default());
        let addr = PhysAddr(0x123000);
        let info = prepare(&mut dev, addr);
        assert_eq!(dev.on_rd_cas(&info, &[9u8; 64]), RdResult::Data([9u8; 64]));
        assert_eq!(
            dev.on_wr_cas(&info, &[7u8; 64]),
            WrResult::Commit([7u8; 64])
        );
    }

    /// Drives a complete single-page TLS offload at the raw CAS level.
    #[test]
    fn end_to_end_tls_offload_at_cas_level() {
        let mut dev = SmartDimmDevice::new(SmartDimmConfig::default());
        let base = dev.cfg.config_base.0;
        let key = [1u8; 16];
        let iv = [2u8; 12];
        let msg: Vec<u8> = (0..4096u32).map(|i| (i * 13) as u8).collect();

        // 1. Context + registration.
        let ctx = ContextChunk {
            offload_id: 5,
            payload: payload(OffloadOp::TlsEncrypt { key, iv }, msg.len()),
        };
        let info = prepare(&mut dev, PhysAddr(base + CONTEXT_OFFSET));
        dev.on_wr_cas(&info, &ctx.to_bytes());
        let reg = Registration {
            offload_id: 5,
            src_page_addr: 0x10000,
            dst_page_addr: 0x20000,
            msg_offset: 0,
        };
        let info = prepare(&mut dev, PhysAddr(base + REGISTER_OFFSET));
        dev.on_wr_cas(&info, &reg.to_bytes());
        assert_eq!(dev.free_pages(), 2047);

        // 2. rdCAS every source line (the CompCpy copy loop).
        for line in 0..64usize {
            let addr = PhysAddr(0x10000 + (line as u64) * 64);
            let info = prepare(&mut dev, addr);
            let mut data = [0u8; 64];
            data.copy_from_slice(&msg[line * 64..line * 64 + 64]);
            // Pass-through: the host still sees the plaintext.
            assert_eq!(dev.on_rd_cas(&info, &data), RdResult::Data(data));
        }
        assert_eq!(dev.stats().dsa_lines, 64);
        assert_eq!(dev.stats().offloads_completed, 1);

        // 3. Writebacks of the destination lines self-recycle.
        let gcm = ulp_crypto::gcm::AesGcm::new_128(&key);
        let (want, want_tag) = gcm.seal(&iv, b"", &msg);
        for line in 0..64usize {
            let addr = PhysAddr(0x20000 + (line as u64) * 64);
            let info = prepare(&mut dev, addr);
            let mut plain = [0u8; 64];
            plain.copy_from_slice(&msg[line * 64..line * 64 + 64]);
            match dev.on_wr_cas(&info, &plain) {
                WrResult::Commit(data) => {
                    assert_eq!(&data[..], &want[line * 64..line * 64 + 64], "line {line}");
                }
                WrResult::Ignore => panic!("line {line} should recycle"),
            }
        }
        assert_eq!(dev.stats().self_recycles, 64);
        assert_eq!(dev.free_pages(), 2048, "scratchpad page freed");

        // 4. Result slot carries the tag.
        let info = prepare(&mut dev, PhysAddr(base + RESULT_BASE + 5 * 64));
        match dev.on_rd_cas(&info, &[0u8; 64]) {
            RdResult::Data(d) => {
                let r = ResultSlot::from_bytes(&d);
                assert_eq!(r.status, OffloadStatus::Done);
                assert_eq!(r.tag, want_tag);
                assert_eq!(r.out_len, 4096);
            }
            RdResult::Retry => panic!(),
        }

        // 5. All translation entries cleaned up.
        let info = prepare(&mut dev, PhysAddr(0x10000));
        assert_eq!(dev.on_rd_cas(&info, &[1u8; 64]), RdResult::Data([1u8; 64]));
        assert_eq!(dev.stats().dsa_lines, 64, "no further DSA activity");
    }

    /// DSA compute happens at CAS time: with nothing but the source
    /// reads (half per line, half as one batched page read), every
    /// `&self` view already shows the finished offload.
    #[test]
    fn source_reads_alone_produce_the_staged_output() {
        let mut dev = SmartDimmDevice::new(SmartDimmConfig::default());
        let base = dev.cfg.config_base.0;
        let (key, iv) = ([3u8; 16], [4u8; 12]);
        let msg: Vec<u8> = (0..4096u32).map(|i| (i * 7 + 1) as u8).collect();
        let ctx = ContextChunk {
            offload_id: 6,
            payload: payload(OffloadOp::TlsEncrypt { key, iv }, msg.len()),
        };
        let info = prepare(&mut dev, PhysAddr(base + CONTEXT_OFFSET));
        dev.on_wr_cas(&info, &ctx.to_bytes());
        let reg = Registration {
            offload_id: 6,
            src_page_addr: 0x70000,
            dst_page_addr: 0x80000,
            msg_offset: 0,
        };
        let info = prepare(&mut dev, PhysAddr(base + REGISTER_OFFSET));
        dev.on_wr_cas(&info, &reg.to_bytes());

        let mut page = [[0u8; 64]; 64];
        for (line, chunk) in page.iter_mut().zip(msg.chunks(64)) {
            line.copy_from_slice(chunk);
        }
        for (line, data) in page.iter().enumerate().take(32) {
            let info = prepare(&mut dev, PhysAddr(0x70000 + (line as u64) * 64));
            assert_eq!(dev.on_rd_cas(&info, data), RdResult::Data(*data));
        }
        assert!(dev.page_read_supported(PhysAddr(0x70000)));
        dev.on_rd_page(PhysAddr(0x70000), Cycle(100), 4, &mut page);

        let stats = dev.stats();
        assert_eq!(stats.dsa_lines, 64);
        assert_eq!(stats.page_feeds, 1);
        assert_eq!(stats.offloads_completed, 1);
        let sp = dev.scratchpad_stats();
        assert_eq!((sp.allocs, sp.frees, sp.peak_bytes), (1, 0, 4096));
        let Some(Mapping::Dest { scratch_page, .. }) = dev.xlat().peek(0x80) else {
            panic!("destination page still registered");
        };
        assert_eq!(dev.scratchpad.valid_lines(scratch_page).len(), 64);
        let (want, want_tag) = ulp_crypto::gcm::AesGcm::new_128(&key).seal(&iv, b"", &msg);
        for (line, chunk) in want.chunks(64).enumerate() {
            assert_eq!(
                &dev.scratchpad.read(scratch_page, line)[..],
                chunk,
                "line {line}"
            );
        }
        let slot = ResultSlot::from_bytes(&dev.results[6]);
        assert_eq!((slot.status, slot.tag), (OffloadStatus::Done, want_tag));
    }

    /// Registers a `msg_len`-byte TLS offload `id` over one page pair.
    fn register_tls(dev: &mut SmartDimmDevice, id: u64, msg_len: usize, src: u64, dst: u64) {
        let base = dev.cfg.config_base.0;
        let op = OffloadOp::TlsEncrypt {
            key: [1; 16],
            iv: [2; 12],
        };
        let ctx = ContextChunk {
            offload_id: id,
            payload: payload(op, msg_len),
        };
        let info = prepare(dev, PhysAddr(base + CONTEXT_OFFSET));
        dev.on_wr_cas(&info, &ctx.to_bytes());
        let reg = Registration {
            offload_id: id,
            src_page_addr: src,
            dst_page_addr: dst,
            msg_offset: 0,
        };
        let info = prepare(dev, PhysAddr(base + REGISTER_OFFSET));
        dev.on_wr_cas(&info, &reg.to_bytes());
    }

    /// Produce stamps belong to the Scratchpad page: a superseded page's
    /// stamps leave with it, so a later occupant of the same page (here a
    /// phantom hog, whose lines no DSA produced) records no slack sample.
    #[test]
    fn superseded_page_leaves_no_stale_slack_stamp() {
        let mut dev = SmartDimmDevice::new(SmartDimmConfig::default());

        // Offload A stages two lines on dst page 0x20000; line 0 recycles.
        register_tls(&mut dev, 1, 128, 0x10000, 0x20000);
        let staged = |dev: &SmartDimmDevice, page| match dev.xlat().peek(page) {
            Some(Mapping::Dest { scratch_page, .. }) => scratch_page,
            other => panic!("page {page:#x} not staged: {other:?}"),
        };
        let page_a = staged(&dev, 0x20);
        for l in 0..2 {
            let info = prepare(&mut dev, PhysAddr(0x10000 + l * 64));
            dev.on_rd_cas(&info, &[0x11; 64]);
        }
        let info = prepare(&mut dev, PhysAddr(0x20000));
        assert!(matches!(
            dev.on_wr_cas(&info, &[0; 64]),
            WrResult::Commit(_)
        ));

        // Offload B supersedes the page with one line, produced and
        // recycled: the page frees itself onto the (LIFO) free list.
        register_tls(&mut dev, 2, 64, 0x50000, 0x20000);
        let info = prepare(&mut dev, PhysAddr(0x50000));
        dev.on_rd_cas(&info, &[0x22; 64]);
        let info = prepare(&mut dev, PhysAddr(0x20000));
        assert!(matches!(
            dev.on_wr_cas(&info, &[0; 64]),
            WrResult::Commit(_)
        ));
        assert_eq!(dev.slack_histogram().count(), 2);

        // A hog takes that page; recycling its line 1 (A's unrecycled
        // line) must not sample A's stamp.
        assert_eq!(dev.inject_scratch_hog(Cycle(0), 1), 1);
        let hog = dev.injected_hog_pages[0];
        assert_eq!(staged(&dev, hog), page_a, "hog reuses A's page");
        let info = prepare(&mut dev, PhysAddr((hog << 12) + 64));
        assert_eq!(dev.on_wr_cas(&info, &[0; 64]), WrResult::Commit([0xA5; 64]));
        assert_eq!(dev.stats().self_recycles, 3);
        assert_eq!(dev.slack_histogram().count(), 2, "stale stamp sampled");
    }

    #[test]
    fn premature_writeback_ignored_then_read_retries() {
        // Compression: output pending until the whole page arrives.
        let mut dev = SmartDimmDevice::new(SmartDimmConfig::default());
        let base = dev.cfg.config_base.0;
        let page = ulp_compress::corpus::text(4096, 3);
        let ctx = ContextChunk {
            offload_id: 9,
            payload: payload(OffloadOp::Compress, page.len()),
        };
        let info = prepare(&mut dev, PhysAddr(base + CONTEXT_OFFSET));
        dev.on_wr_cas(&info, &ctx.to_bytes());
        let reg = Registration {
            offload_id: 9,
            src_page_addr: 0x30000,
            dst_page_addr: 0x40000,
            msg_offset: 0,
        };
        let info = prepare(&mut dev, PhysAddr(base + REGISTER_OFFSET));
        dev.on_wr_cas(&info, &reg.to_bytes());

        // Feed half the source page.
        for line in 0..32usize {
            let addr = PhysAddr(0x30000 + (line as u64) * 64);
            let info = prepare(&mut dev, addr);
            let mut data = [0u8; 64];
            data.copy_from_slice(&page[line * 64..line * 64 + 64]);
            dev.on_rd_cas(&info, &data);
        }
        // A writeback of dst line 0 now is premature: S7 ignores it.
        let info = prepare(&mut dev, PhysAddr(0x40000));
        assert_eq!(dev.on_wr_cas(&info, &[0xAA; 64]), WrResult::Ignore);
        assert_eq!(dev.stats().ignored_writebacks, 1);
        // A read of dst line 0 must retry (S13).
        assert_eq!(dev.on_rd_cas(&info, &[0u8; 64]), RdResult::Retry);
        assert_eq!(dev.stats().alert_retries, 1);

        // Feed the rest; compression completes.
        for line in 32..64usize {
            let addr = PhysAddr(0x30000 + (line as u64) * 64);
            let info = prepare(&mut dev, addr);
            let mut data = [0u8; 64];
            data.copy_from_slice(&page[line * 64..line * 64 + 64]);
            dev.on_rd_cas(&info, &data);
        }
        assert_eq!(dev.stats().offloads_completed, 1);
        // Now dst line 0 reads from the scratchpad (S10). The row must be
        // re-activated: the source-page accesses above reused the bank.
        let info = prepare(&mut dev, PhysAddr(0x40000));
        match dev.on_rd_cas(&info, &[0u8; 64]) {
            RdResult::Data(_) => {}
            RdResult::Retry => panic!("computation finished"),
        }
        assert!(dev.stats().scratch_reads >= 1);
    }

    #[test]
    fn alloc_failure_counted_when_scratchpad_full() {
        let cfg = SmartDimmConfig {
            scratchpad_pages: 1,
            ..Default::default()
        };
        let mut dev = SmartDimmDevice::new(cfg);
        let base = dev.cfg.config_base.0;
        for id in 0..2u64 {
            let ctx = ContextChunk {
                offload_id: id,
                payload: payload(
                    OffloadOp::TlsEncrypt {
                        key: [0; 16],
                        iv: [0; 12],
                    },
                    4096,
                ),
            };
            let info = prepare(&mut dev, PhysAddr(base + CONTEXT_OFFSET));
            dev.on_wr_cas(&info, &ctx.to_bytes());
            let reg = Registration {
                offload_id: id,
                src_page_addr: 0x50000 + id * 0x2000,
                dst_page_addr: 0x60000 + id * 0x2000,
                msg_offset: 0,
            };
            let info = prepare(&mut dev, PhysAddr(base + REGISTER_OFFSET));
            dev.on_wr_cas(&info, &reg.to_bytes());
        }
        assert_eq!(dev.stats().alloc_failures, 1);
    }
}
