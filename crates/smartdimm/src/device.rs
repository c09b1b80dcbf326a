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
//!   slots, pending list) at the addresses [`ConfigWindow`] assigns this
//!   channel — these accesses never touch the DRAM chips;
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
    pack_pending, ConfigWindow, ContextChunk, OffloadStatus, PendingRecord, Registration,
    ResultSlot, StatusReg, CONFIG_BASE, CONFIG_SPACE_SIZE, CONTEXT_OFFSET, PENDING_BASE,
    REGISTER_OFFSET, RESULT_BASE, RESULT_SLOTS, STATUS_OFFSET,
};
use crate::dsa::{DsaInstance, OffloadContext, OffloadOp, PageLookahead};
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
    /// Deflate DSA geometry.
    pub hw_deflate: HwDeflateConfig,
}

impl Default for SmartDimmConfig {
    fn default() -> Self {
        SmartDimmConfig {
            scratchpad_pages: 2048,
            xlat_entries: 12288,
            cam_entries: 8,
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

/// One registered page pair of an offload on this shard.
#[derive(Debug, Clone, Copy)]
struct PagePair {
    /// Source page number.
    src: u64,
    /// Destination page number and its Scratchpad page, while staged.
    dst: Option<(u64, usize)>,
}

/// One offload's state on this shard.
#[derive(Debug)]
struct Offload {
    ctx: OffloadContext,
    dsa: DsaInstance,
    /// Per page index of the message: the pair registered here, if any.
    pages: Vec<Option<PagePair>>,
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
}

/// One Config Memory result slot.
#[derive(Debug, Clone, Copy)]
struct Slot {
    /// The 64-byte MMIO view last stored.
    result: [u8; 64],
    /// The live offload whose partial result reads expose instead.
    owner: Option<u64>,
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
    /// The memory channel this device sits on.
    channel: usize,
    mapper: AddressMapper,
    window: ConfigWindow,
    bank_table: BankTable,
    xlat: TranslationTable,
    scratchpad: Scratchpad,
    offloads: BTreeMap<u64, Offload>,
    /// Decoded contexts by offload id, at most one per result slot.
    contexts: BTreeMap<u64, OffloadContext>,
    slots: Vec<Slot>,
    stats: DeviceStats,
    /// rdCAS(sbuf) → wrCAS(dbuf) slack histogram (cycles, §IV-D).
    slack: Histogram,
    /// Fault injector (tests only; `None` costs nothing).
    fault: Option<FaultHandle>,
    /// Where the streaming DSAs may find their page kernel's output
    /// already computed (host-side speed only; see [`PageLookahead`]).
    lookahead: Option<PageLookahead>,
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
    /// Builds the device for memory channel `channel` of a memory system
    /// with DRAM topology `topo` (one SmartDIMM per channel under
    /// interleaving, §V-D).
    pub fn new(cfg: SmartDimmConfig, topo: DramTopology, channel: usize) -> SmartDimmDevice {
        SmartDimmDevice {
            channel,
            mapper: AddressMapper::new(topo),
            window: ConfigWindow::new(CONFIG_BASE, topo),
            bank_table: BankTable::new(topo.ranks, dram::addr::BANKS_PER_RANK),
            xlat: TranslationTable::new(cfg.xlat_entries, cfg.cam_entries),
            scratchpad: Scratchpad::new(cfg.scratchpad_pages),
            offloads: BTreeMap::new(),
            contexts: BTreeMap::new(),
            slots: vec![
                Slot {
                    result: ResultSlot::empty().to_bytes(),
                    owner: None,
                };
                RESULT_SLOTS
            ],
            stats: DeviceStats::default(),
            slack: Histogram::new("smartdimm.slack_cycles", 200, 2000),
            fault: None,
            lookahead: None,
            injected_xlat_pages: Vec::new(),
            injected_hog_pages: Vec::new(),
            // Sentinel pages for injected state: physical 0x3000_0000+,
            // far above the driver pool and below the MMIO window.
            sentinel_next: 0x30000,
            cfg,
        }
    }

    /// The device with its streaming DSAs taking page outputs from
    /// `lookahead` when they match the absorbed page byte for byte. The
    /// lookahead only ever holds copies of page bytes, never device
    /// state, so no simulated outcome depends on it.
    pub fn with_lookahead(mut self, lookahead: PageLookahead) -> SmartDimmDevice {
        self.lookahead = Some(lookahead);
        self
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

    /// Bit `l` set for each of the first `lines` lines of page `page`
    /// that decode to this shard's channel *and* the DSA-bearing DIMM
    /// slot — the only lines whose CAS traffic this device observes
    /// (capacity DIMMs on the same bus carry no DSA). Only this
    /// channel's lines take the full decode, for their rank.
    fn shard_mask(&self, page: u64, lines: usize) -> u64 {
        let on_shard = |addr: PhysAddr| {
            self.mapper.channel_of(addr) == self.channel
                && self
                    .mapper
                    .topology()
                    .on_dsa_slot(self.mapper.decode(addr).rank)
        };
        PhysAddr(page << 12)
            .line_spans(lines * 64)
            .enumerate()
            .filter(|(_, s)| on_shard(s.line))
            .fold(0, |mask, (l, _)| mask | 1 << l)
    }

    /// Serves a read of logical register offset `off`.
    fn handle_mmio_read(&self, off: u64) -> [u8; 64] {
        let slot = off.checked_sub(RESULT_BASE).map(|o| (o / 64) as usize);
        if let Some(slot) = slot.and_then(|i| self.slots.get(i)) {
            // Live TLS offloads expose their running partial result.
            return slot
                .owner
                .and_then(|id| self.offloads.get(&id))
                .and_then(Offload::partial_slot)
                .unwrap_or(slot.result);
        }
        match off {
            STATUS_OFFSET => StatusReg {
                free_pages: self.scratchpad.free_pages() as u64,
                pending_pages: self.scratchpad.pending_pages().len() as u64,
                self_recycled: self.stats.self_recycles,
                ignored_writebacks: self.stats.ignored_writebacks,
            }
            .to_bytes(),
            o if (PENDING_BASE..CONFIG_SPACE_SIZE).contains(&o) => {
                let index = ((o - PENDING_BASE) / 64) as usize * 4;
                let pending = self.scratchpad.pending_pages();
                let records: Vec<PendingRecord> = pending
                    .iter()
                    .skip(index)
                    .take(4)
                    .map(|&(sp, dst_page)| PendingRecord {
                        dst_page_addr: dst_page << 12,
                        valid_bitmap: self
                            .scratchpad
                            .valid_lines(sp)
                            .iter()
                            .fold(0, |b, l| b | 1 << l),
                    })
                    .collect();
                pack_pending(&records)
            }
            _ => [0u8; 64],
        }
    }

    /// Handles a write of logical register offset `off`.
    fn handle_mmio_write(&mut self, at: Cycle, off: u64, data: &[u8; 64]) {
        self.stats.mmio_writes += 1;
        match off {
            REGISTER_OFFSET => self.register(at, Registration::from_bytes(data)),
            CONTEXT_OFFSET => {
                let chunk = ContextChunk::from_bytes(data);
                // Decode once, here. A corrupt payload leaves no context,
                // so each registration of its id is rejected.
                match OffloadContext::decode(&chunk.payload) {
                    Some(ctx) => self.contexts.insert(chunk.offload_id, ctx),
                    None => self.contexts.remove(&chunk.offload_id),
                };
                // Hardware context memory is finite: retire the oldest
                // entries once we exceed the result-slot count (ids are
                // monotonic, so first = oldest). Keeps non-participating
                // shards of a multi-channel broadcast from growing the
                // map without bound.
                while self.contexts.len() > self.slots.len() {
                    self.contexts.pop_first();
                }
            }
            _ => {}
        }
    }

    fn register(&mut self, at: Cycle, reg: Registration) {
        self.stats.registrations += 1;
        // A registration needs its id's context (sent first) and a page
        // inside the message. Anything else is a driver bug the hardware
        // rejects, never faults on (surfaced by the xlat_failures stat).
        let Some(ctx) = self.contexts.get(&reg.offload_id).copied() else {
            self.stats.xlat_failures += 1;
            return;
        };
        let msg_len = ctx.msg_len;
        if reg.msg_offset >= msg_len as u64 {
            self.stats.xlat_failures += 1;
            return;
        }
        let msg_offset = reg.msg_offset as usize;
        let page_index = msg_offset / PAGE;
        let (src_page, dst_page) = (reg.src_page_addr >> 12, reg.dst_page_addr >> 12);

        // Lazily create the offload state on its first page registration.
        if !self.offloads.contains_key(&reg.offload_id) {
            self.offloads.insert(
                reg.offload_id,
                Offload {
                    ctx,
                    dsa: DsaInstance::new(&ctx, self.cfg.hw_deflate)
                        .with_lookahead(self.lookahead.as_ref()),
                    pages: vec![None; msg_len.div_ceil(PAGE)],
                    processed: vec![false; msg_len.div_ceil(64)],
                    done: false,
                },
            );
            let slot = self.window.result_slot(reg.offload_id);
            if let Some(slot) = self.slots.get_mut(slot) {
                *slot = Slot {
                    result: ResultSlot::empty().to_bytes(),
                    owner: Some(reg.offload_id),
                };
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
        }) = self.xlat.peek(dst_page)
        {
            self.scratchpad.force_free(at, old_sp);
            self.unstage(dst_page, old_id, old_off);
            if old_id != reg.offload_id {
                // Not the record being (re)registered: it has no staging yet.
                self.retire(old_id);
            }
        }

        // Bytes of the message covered by this page.
        let covered = (msg_len - msg_offset).min(PAGE);
        let src_lines = covered.div_ceil(64);
        // Output never exceeds the input coverage (compression falls back
        // to stored/raw), except that decompression may fill the whole
        // page; completion trims it (§V-C).
        let decompress = matches!(ctx.op, OffloadOp::Decompress);
        let covered_lines = if decompress {
            LINES_PER_PAGE
        } else {
            src_lines
        };
        // Under channel interleaving this DIMM stages only the covered
        // lines whose addresses map to its channel (§V-D).
        let expected_mask = self.shard_mask(dst_page, covered_lines);
        // A shard can only serve a page pair it sees both sides of: a pair
        // whose masks disagree would stage destination lines that are
        // never fed (or feed output it cannot stage) and hang at S13.
        let src_mask = self.shard_mask(src_page, src_lines);
        if expected_mask == 0 && src_mask == 0 {
            // No cacheline of this pair lands on this DIMM; drop the
            // lazily-created record if no earlier page touched us.
            self.retire(reg.offload_id);
            return;
        }
        // The shard must see source line i exactly when it stages
        // destination line i; decompression needs both pages wholly on
        // this shard (page-granular placement, e.g. coarse interleave).
        let aligned = if decompress {
            src_mask == crate::scratchpad::prefix_mask(src_lines)
                && expected_mask == crate::scratchpad::prefix_mask(covered_lines)
        } else {
            src_mask == expected_mask
        };
        if !aligned {
            // Cross-channel page pair: the host driver must bounce it
            // through a channel-aligned buffer. Reject loudly instead of
            // hanging the offload.
            self.stats.cross_channel_rejects += 1;
            self.retire(reg.offload_id);
            return;
        }
        let Some(scratch_page) = self.scratchpad.alloc(at, dst_page, expected_mask) else {
            self.stats.alloc_failures += 1;
            return;
        };

        let src_ok = self.xlat.insert(
            src_page,
            Mapping::Source {
                offload: reg.offload_id,
                msg_offset,
            },
        );
        let dst_ok = self.xlat.insert(
            dst_page,
            Mapping::Dest {
                offload: reg.offload_id,
                msg_offset,
                scratch_page,
            },
        );
        let pair = PagePair {
            src: src_page,
            dst: Some((dst_page, scratch_page)),
        };
        let entry = self
            .offloads
            .get_mut(&reg.offload_id)
            .and_then(|off| off.pages.get_mut(page_index))
            .filter(|_| src_ok.is_ok() && dst_ok.is_ok());
        let Some(entry) = entry else {
            // Roll back: a half-registered page pair must not leak its
            // scratchpad page or leave a dangling translation behind.
            self.stats.xlat_failures += 1;
            self.scratchpad.force_free(at, scratch_page);
            if src_ok.is_ok() {
                self.xlat.remove(src_page);
            }
            if dst_ok.is_ok() {
                self.xlat.remove(dst_page);
            }
            return;
        };
        // A repeat registration of the page index replaces its earlier
        // pair: release what of that pair the new one does not reuse.
        if let Some(old) = entry.replace(pair) {
            if let Some((page, sp)) = old.dst {
                self.scratchpad.force_free(at, sp);
                self.xlat.remove(page);
            }
            if old.src != src_page {
                self.drop_source(old.src, reg.offload_id);
            }
        }
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
            let staged = off.pages.get(page_index).copied().flatten();
            let Some((_, scratch)) = staged.and_then(|pair| pair.dst) else {
                stats.orphan_lines += 1;
                continue;
            };
            if scratchpad.line_state(scratch, line_in_page) == LineState::Pending {
                scratchpad.produce(scratch, line_in_page, data, Some(at));
            }
        }
    }

    fn finalize(&mut self, at: Cycle, offload_id: u64, completion: crate::dsa::DsaCompletion) {
        let slot = self.window.result_slot(offload_id);
        if let Some(slot) = self.slots.get_mut(slot) {
            slot.result = ResultSlot {
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
            for (page_index, pair) in off.pages.iter_mut().enumerate() {
                let Some(pair) = pair else { continue };
                let Some((dst_page, sp)) = pair.dst else {
                    continue;
                };
                let start_line = page_index * LINES_PER_PAGE;
                let lines_here = out_lines.saturating_sub(start_line).min(LINES_PER_PAGE);
                let freed_before = self.scratchpad.free_pages();
                self.scratchpad
                    .set_expected(at, sp, crate::scratchpad::prefix_mask(lines_here));
                if self.scratchpad.free_pages() > freed_before {
                    // Page freed entirely (no output lines landed here).
                    self.xlat.remove(dst_page);
                    pair.dst = None;
                }
            }
        }
        self.retire(offload_id);
    }

    /// Drops the translation of destination page `page` (recycled or
    /// superseded) and its staging in the record of `offload`, which
    /// registered it at `msg_offset`. The translation goes by page, so a
    /// page staged without a live record (an injected hog) leaves none.
    fn unstage(&mut self, page: u64, offload: u64, msg_offset: usize) {
        self.xlat.remove(page);
        let off = self.offloads.get_mut(&offload);
        if let Some(Some(pair)) = off.and_then(|off| off.pages.get_mut(msg_offset / PAGE)) {
            pair.dst = None;
        }
    }

    /// The one retire path: drops `offload_id`'s record once no page
    /// stages output for it (completed and recycled, superseded, or none
    /// of the broadcast pairs landed here). A record no page landed on
    /// keeps its context, as a later page may still land; any other
    /// persists its partial TLS result for the host-side combine (§V-D)
    /// and drops its context and the source translations it still owns.
    fn retire(&mut self, offload_id: u64) {
        let idle = |off: &Offload| off.pages.iter().flatten().all(|pair| pair.dst.is_none());
        if !self.offloads.get(&offload_id).is_some_and(idle) {
            return;
        }
        let Some(off) = self.offloads.remove(&offload_id) else {
            return;
        };
        let touched = off.pages.iter().any(Option::is_some);
        if let Some(slot) = self.slots.get_mut(self.window.result_slot(offload_id)) {
            if slot.owner == Some(offload_id) {
                slot.owner = None;
            }
            if let Some(partial) = off.partial_slot().filter(|_| touched) {
                slot.result = partial;
            }
        }
        if !touched {
            return;
        }
        for pair in off.pages.iter().flatten() {
            self.drop_source(pair.src, offload_id);
        }
        self.contexts.remove(&offload_id);
    }

    /// Removes the translation of source page `page` if it still belongs
    /// to `offload_id` — a newer offload may have re-registered the page
    /// (persistent connections reuse buffers).
    fn drop_source(&mut self, page: u64, offload_id: u64) {
        if let Some(Mapping::Source { offload, .. }) = self.xlat.peek(page) {
            if offload == offload_id {
                self.xlat.remove(page);
            }
        }
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
        if let Some(off) = self.window.offset_of(phys) {
            return RdResult::Data(self.handle_mmio_read(off));
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
        //  * config-space reads must go through the MMIO handler (window
        //    bounds are page aligned, so the first line decides),
        //  * destination pages can hold Pending lines that demand a Retry
        //    (inexpressible in a batch),
        //  * an installed fault handle must see each source feed
        //    individually to decide which ones to drop.
        if self.fault.is_some() || self.window.offset_of(base).is_some() {
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
        if let Some(off) = self.window.offset_of(phys) {
            self.handle_mmio_write(info.at, off, host_data);
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
                            self.unstage(page, offload, msg_offset);
                            self.retire(offload);
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

    /// A default device on the only channel of the default topology.
    fn device() -> SmartDimmDevice {
        SmartDimmDevice::new(SmartDimmConfig::default(), DramTopology::default(), 0)
    }

    fn mk_info(mapper: &AddressMapper, addr: PhysAddr, at: Cycle) -> CasInfo {
        let loc = mapper.decode(addr);
        CasInfo {
            loc,
            phys: addr.cacheline(),
            bank_index: loc.bank_index(),
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
        let mapper = AddressMapper::new(*dev.mapper.topology());
        let info = mk_info(&mapper, addr, Cycle(0));
        dev.on_activate(Cycle(0), info.loc.rank, info.bank_index, info.loc.row);
        info
    }

    #[test]
    fn mmio_status_read() {
        let mut dev = device();
        let addr = PhysAddr(CONFIG_BASE.0 + STATUS_OFFSET);
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
        let mut dev = device();
        let addr = PhysAddr(CONFIG_BASE.0 + CONTEXT_OFFSET);
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
        let mut dev = device();
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
        let mut dev = device();
        let base = CONFIG_BASE.0;
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

        let mapper = AddressMapper::new(*dev.mapper.topology());
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
        let mut dev = device();
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
        let mut dev = device();
        let base = CONFIG_BASE.0;
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
        let mut dev = device();
        let base = CONFIG_BASE.0;
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
        let slot = ResultSlot::from_bytes(&dev.slots[6].result);
        assert_eq!((slot.status, slot.tag), (OffloadStatus::Done, want_tag));
    }

    /// Writes `data` to logical register `offset` of the device's own
    /// Config Memory window.
    fn mmio_write(dev: &mut SmartDimmDevice, offset: u64, data: [u8; 64]) {
        let addr = dev.window.alias(offset, dev.channel);
        let info = prepare(dev, addr);
        assert_eq!(dev.on_wr_cas(&info, &data), WrResult::Ignore);
    }

    const TLS: OffloadOp = OffloadOp::TlsEncrypt {
        key: [1; 16],
        iv: [2; 12],
    };

    /// Sends offload `id`'s context with `payload`.
    fn send_context(dev: &mut SmartDimmDevice, id: u64, payload: [u8; 48]) {
        let chunk = ContextChunk {
            offload_id: id,
            payload,
        };
        mmio_write(dev, CONTEXT_OFFSET, chunk.to_bytes());
    }

    /// Registers page pair `src` → `dst` at `msg_offset` of offload `id`.
    fn send_pair(dev: &mut SmartDimmDevice, id: u64, src: u64, dst: u64, msg_offset: u64) {
        let reg = Registration {
            offload_id: id,
            src_page_addr: src,
            dst_page_addr: dst,
            msg_offset,
        };
        mmio_write(dev, REGISTER_OFFSET, reg.to_bytes());
    }

    /// Registers a `msg_len`-byte TLS offload `id` over one page pair.
    fn register_tls(dev: &mut SmartDimmDevice, id: u64, msg_len: usize, src: u64, dst: u64) {
        send_context(dev, id, payload(TLS, msg_len));
        send_pair(dev, id, src, dst, 0);
    }

    /// Feeds every line of source page `src` and writes back every line
    /// of destination page `dst` — a one-page offload's copy and `USE`.
    fn copy_and_use(dev: &mut SmartDimmDevice, src: u64, dst: u64) {
        for line in 0..LINES_PER_PAGE as u64 {
            let info = prepare(dev, PhysAddr(src + line * 64));
            dev.on_rd_cas(&info, &[line as u8; 64]);
        }
        for line in 0..LINES_PER_PAGE as u64 {
            let info = prepare(dev, PhysAddr(dst + line * 64));
            dev.on_wr_cas(&info, &[0; 64]);
        }
    }

    /// The device holds no record, Scratchpad page or translation (and,
    /// once a page landed, no context) for offload `id`.
    fn assert_retired(dev: &SmartDimmDevice, id: u64, what: &str) {
        assert!(!dev.offloads.contains_key(&id), "{what}: record");
        assert!(!dev.contexts.contains_key(&id), "{what}: context");
        assert_eq!(
            dev.free_pages(),
            dev.cfg.scratchpad_pages,
            "{what}: scratch"
        );
        assert_eq!(dev.xlat().len(), 0, "{what}: translations");
    }

    /// Malformed registrations are rejected with the same counter as
    /// ever, and leave no state behind: once the offload then runs and
    /// retires, the device holds nothing for it.
    #[test]
    fn hostile_registrations_leave_no_state() {
        type Counter = fn(&DeviceStats) -> u64;
        let xlat_failures: Counter = |s| s.xlat_failures;
        let cases: [(&str, Option<[u8; 48]>, u64, Counter); 3] = [
            ("no context", None, 0, xlat_failures),
            ("corrupt context", Some([0xFF; 48]), 0, xlat_failures),
            (
                "msg_offset past the message",
                Some(payload(TLS, 100)),
                200,
                xlat_failures,
            ),
        ];
        for (what, context, msg_offset, counter) in cases {
            let mut dev = device();
            if let Some(context) = context {
                send_context(&mut dev, 7, context);
            }
            send_pair(&mut dev, 7, 0x10000, 0x20000, msg_offset);
            let stats = dev.stats();
            assert_eq!((stats.registrations, counter(&stats)), (1, 1), "{what}");
            assert!(dev.offloads.is_empty(), "{what}: record");
            assert_eq!(dev.xlat().len(), 0, "{what}: translations");

            register_tls(&mut dev, 7, 4096, 0x10000, 0x20000);
            copy_and_use(&mut dev, 0x10000, 0x20000);
            assert_eq!(dev.stats().offloads_completed, 1, "{what}");
            assert_retired(&dev, 7, what);
        }
    }

    /// A live offload that registers one of its page indices again with
    /// another source page is accepted (it bumps only `registrations`,
    /// as ever); the new pair replaces the old, whose translations and
    /// staging are released, so the offload still retires clean.
    #[test]
    fn repeat_page_registration_replaces_the_pair() {
        for dst in [0x20000, 0x60000] {
            let mut dev = device();
            register_tls(&mut dev, 7, 4096, 0x10000, 0x20000);
            let before = dev.stats();
            send_pair(&mut dev, 7, 0x50000, dst, 0);
            let after = dev.stats();
            assert_eq!(after.registrations, before.registrations + 1);
            assert_eq!(
                (
                    after.xlat_failures,
                    after.alloc_failures,
                    after.cross_channel_rejects
                ),
                (0, 0, 0)
            );
            assert_eq!(dev.free_pages(), dev.cfg.scratchpad_pages - 1);
            assert_eq!(dev.xlat().len(), 2, "one source and one destination page");

            copy_and_use(&mut dev, 0x50000, dst);
            assert_eq!(dev.stats().offloads_completed, 1);
            assert_retired(&dev, 7, "repeat registration");
            // The replaced source page no longer feeds anything.
            copy_and_use(&mut dev, 0x10000, 0x20000);
            assert_eq!(dev.stats().dsa_lines, 64);
        }
    }

    /// A shard that none of the broadcast page pairs land on keeps each
    /// context (a later page might land) but no record, and its context
    /// memory stays bounded by the result-slot count.
    #[test]
    fn contexts_stay_bounded_on_an_idle_shard() {
        let topo = DramTopology {
            channels: 3,
            channel_interleave_lines: 64,
            ..DramTopology::default()
        };
        let mut dev = SmartDimmDevice::new(SmartDimmConfig::default(), topo, 1);
        // Twelve more broadcast contexts than result slots. Pages 0x30
        // and 0x60 both decode to channel 0.
        let ids = RESULT_SLOTS as u64 + 12;
        for id in 1..=ids {
            register_tls(&mut dev, id, 4096, 0x30000, 0x60000);
            assert!(
                dev.contexts.len() <= RESULT_SLOTS,
                "{} contexts",
                dev.contexts.len()
            );
            assert!(dev.offloads.is_empty());
        }
        let stats = dev.stats();
        assert_eq!((stats.registrations, stats.mmio_writes), (ids, 2 * ids));
        assert_eq!((stats.xlat_failures, stats.cross_channel_rejects), (0, 0));
        assert_eq!(
            dev.contexts.keys().copied().collect::<Vec<_>>(),
            (13..=ids).collect::<Vec<_>>()
        );
    }

    /// Produce stamps belong to the Scratchpad page: a superseded page's
    /// stamps leave with it, so a later occupant of the same page (here a
    /// phantom hog, whose lines no DSA produced) records no slack sample.
    #[test]
    fn superseded_page_leaves_no_stale_slack_stamp() {
        let mut dev = device();

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
        let mut dev = device();
        let base = CONFIG_BASE.0;
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
        let mut dev = SmartDimmDevice::new(cfg, DramTopology::default(), 0);
        let base = CONFIG_BASE.0;
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
