//! `memsys` is the host memory system: CPU cores in front of the LLC in
//! front of the memory controller and DIMMs.
//!
//! It provides every memory path the SmartDIMM software stack uses:
//!
//! * cached loads/stores (byte-granular, write-back, write-allocate),
//! * `clflush` with the paper's cost asymmetry — flushing data that is
//!   already in DRAM is ~50 % faster than flushing dirty cached data
//!   (§IV-A),
//! * uncached MMIO reads/writes that bypass the LLC and land directly on
//!   the DDR bus (how CompCpy registers acceleration ranges),
//! * DDIO device DMA in both directions (Observation 3's leak-to-DRAM
//!   behaviour emerges from the cache model),
//! * a `memcpy` primitive with optional per-cacheline memory barriers —
//!   the `ordered` mode of Algorithm 2, lines 24–28.
//!
//! Time is a single clock domain: DDR4-3200 command-clock cycles
//! (1600 MHz, 0.625 ns/cycle). CPU-side costs are expressed in the same
//! unit.
//!
//! # Example
//!
//! ```
//! use memsys::{MemSystem, MemConfig};
//! use dram::PhysAddr;
//!
//! let mut m = MemSystem::new(MemConfig::default());
//! m.store(PhysAddr(0x1000), b"hello", 0);
//! let mut buf = [0u8; 5];
//! m.load(PhysAddr(0x1000), &mut buf, 0);
//! assert_eq!(&buf, b"hello");
//! ```

#![forbid(unsafe_code)]

use cache::{CacheConfig, Flushed, Llc};
use dram::{DramSystem, MemorySystemConfig, PhysAddr};
use simkit::{Cycle, DetRng};

pub use dram::BackendKind;

// CPU-side operation costs, in DDR command-clock cycles.

/// LLC hit latency (~12.5 ns).
const LLC_HIT: u64 = 20;
/// Core-side cost of moving one cacheline during memcpy (2.5 ns/64 B ≈
/// 25 GB/s single-core copy).
const COPY_PER_LINE: u64 = 4;
/// `clflush` of a line that is resident in the cache.
const FLUSH_PRESENT: u64 = 40;
/// `clflush` of a line that is already only in DRAM — the paper measures
/// flushing 4 KB as 50 % faster in this case (§IV-A).
const FLUSH_ABSENT: u64 = 20;
/// A memory fence (`membar`) between ordered copies.
const FENCE: u64 = 16;
/// Extra cycles charged on an LLC miss beyond the raw DDR command
/// latency: controller queueing, on-chip network, refresh shadow.
/// Makes the hit/miss ratio realistic (~12 ns vs ~75 ns).
const MISS_EXTRA: u64 = 96;
/// An uncached MMIO access.
const MMIO: u64 = 60;
/// Store-buffer depth, in cycles of tolerated posted-write backlog: when
/// writebacks outpace DRAM by more than this, the writing core stalls
/// (write-buffer backpressure). Without it, bursty flushes would push
/// their queueing delay onto whoever reads next.
const WRITE_BACKLOG: u64 = 256;

/// Configuration for the host memory system.
#[derive(Debug, Clone)]
pub struct MemConfig {
    /// DRAM topology, interconnect penalty and tracing.
    pub dram: MemorySystemConfig,
    /// Memory-backend fidelity tier: the cycle-accurate in-order
    /// open-page controller (default) or the fixed-latency +
    /// per-channel-FIFO fast model. Functional behaviour is identical by
    /// contract (the differential harness pins it); only timing fidelity
    /// differs.
    pub backend: BackendKind,
    /// LLC geometry. Default: 16 MB, 16-way (a contended slice of a
    /// server LLC).
    pub llc: Option<CacheConfig>,
    /// Use the batched whole-page `memcpy` fast path: one buffer-device
    /// interception (translation probe) per 4 KB page instead of one per
    /// 64 B line. Taken only for unordered, page-aligned, DRAM-resident
    /// spans with no background co-runner; everything else — and any
    /// page the buffer device declines, e.g. a SmartDIMM destination
    /// range — stays on the per-line reference path. Disable to force
    /// per-line behaviour everywhere (the differential oracle does).
    pub batch_page_copy: bool,
}

impl Default for MemConfig {
    fn default() -> Self {
        MemConfig {
            dram: MemorySystemConfig::default(),
            backend: BackendKind::default(),
            llc: None,
            batch_page_copy: true,
        }
    }
}

/// Summary of a range flush.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct FlushReport {
    /// Lines covered by the flushed range.
    pub lines: u64,
    /// Lines that were resident (and invalidated).
    pub resident: u64,
    /// Dirty lines written back to DRAM.
    pub dirty_writebacks: u64,
    /// Dirty lines whose writeback a fault deferred (0 without faults).
    pub deferred: u64,
    /// Total cycles consumed.
    pub cycles: u64,
}

/// A co-runner's memory traffic, injected between the foreground's
/// accesses: it evicts LLC lines and occupies DRAM buses and banks
/// (raising the foreground's miss rate and miss latency) without
/// advancing the foreground's clock — i.e. pure contention, the way a
/// concurrently running workload interferes on real hardware.
#[derive(Debug, Clone)]
pub struct BackgroundTraffic {
    /// Base of the co-runner's arena.
    pub base: PhysAddr,
    /// Frequently re-touched lines (LLC-resident when running alone).
    pub hot_lines: u64,
    /// Streaming/irregular lines (always missing).
    pub cold_lines: u64,
    /// Fraction of accesses that touch the hot region.
    pub hot_fraction: f64,
    /// Background accesses injected per foreground memory operation.
    pub per_op: f64,
    /// LLC allocation class for the background traffic.
    pub class: usize,
    /// RNG seed.
    pub seed: u64,
}

/// The host memory system.
pub struct MemSystem {
    llc: Llc,
    dram: DramSystem,
    bg: Option<(BackgroundTraffic, DetRng)>,
    bg_acc: f64,
    bg_active: bool,
    /// Fault injector (tests only): flush-writeback disturbances.
    fault: Option<simkit::FaultHandle>,
    /// Dirty lines whose writeback a fault deferred; they reach DRAM only
    /// when [`MemSystem::drain_writebacks`] runs.
    deferred_wb: Vec<(PhysAddr, [u8; 64])>,
    /// Flushes the fault injector disturbed (reordered or deferred).
    fault_disturbances: u64,
    /// Whether `memcpy` may take the batched whole-page fast path.
    batch_page_copy: bool,
    /// Pages copied via the batched fast path (for tests/benchmarks).
    page_copies: u64,
}

impl std::fmt::Debug for MemSystem {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("MemSystem")
            .field("now", &self.now())
            .field("llc", &self.llc)
            .finish()
    }
}

impl MemSystem {
    /// Builds the memory system.
    pub fn new(config: MemConfig) -> MemSystem {
        let llc_cfg = config.llc.unwrap_or_else(|| CacheConfig::mb(16, 16));
        MemSystem {
            llc: Llc::new(llc_cfg),
            dram: config.backend.build(config.dram),
            bg: None,
            bg_acc: 0.0,
            bg_active: false,
            fault: None,
            deferred_wb: Vec::new(),
            fault_disturbances: 0,
            batch_page_copy: config.batch_page_copy,
            page_copies: 0,
        }
    }

    /// Pages `memcpy` moved via the batched whole-page fast path.
    pub fn page_copies(&self) -> u64 {
        self.page_copies
    }

    /// Installs a fault injector; `flush` consults it for writeback
    /// delay/reorder disturbances.
    pub fn set_fault_handle(&mut self, fault: simkit::FaultHandle) {
        self.fault = Some(fault);
    }

    /// Delivers every deferred writeback to DRAM. Returns how many were
    /// drained.
    pub fn drain_writebacks(&mut self) -> usize {
        let pending = std::mem::take(&mut self.deferred_wb);
        let n = pending.len();
        for (addr, data) in pending {
            self.write_posted(addr, &data, 0);
            self.dram.advance(FLUSH_PRESENT);
        }
        n
    }

    /// Installs (or removes) a background co-runner whose traffic is
    /// injected between foreground accesses.
    pub fn set_background(&mut self, bg: Option<BackgroundTraffic>) {
        self.bg = bg.map(|b| {
            let rng = DetRng::new(b.seed);
            (b, rng)
        });
        self.bg_acc = 0.0;
    }

    /// Issues any background accesses owed for one foreground operation.
    fn bg_tick(&mut self) {
        if self.bg_active {
            return; // re-entrancy guard: bg accesses don't spawn bg accesses
        }
        let Some((bg, _)) = &self.bg else { return };
        self.bg_acc += bg.per_op;
        let n = self.bg_acc as usize;
        if n == 0 {
            return;
        }
        self.bg_acc -= n as f64;
        self.bg_active = true;
        for _ in 0..n {
            let Some((bg, rng)) = self.bg.as_mut() else {
                break;
            };
            let hot = rng.gen_bool(bg.hot_fraction);
            let line = if hot {
                rng.gen_range(0..bg.hot_lines.max(1))
            } else {
                bg.hot_lines + rng.gen_range(0..bg.cold_lines.max(1))
            };
            let addr = PhysAddr(bg.base.0 + line * 64);
            let class = bg.class;
            // The access perturbs cache/bus/bank state but does not
            // advance the foreground's clock.
            let dram = &mut self.dram;
            let (_, ev) = self
                .llc
                .read_line(addr, class, |a| dram.read64_tagged(a, 63).0);
            if let Some(wb) = ev.writeback {
                self.dram.write64_tagged(wb.addr, &wb.data, 63);
            }
        }
        self.bg_active = false;
    }

    /// Current time (DDR command-clock cycles).
    pub fn now(&self) -> Cycle {
        self.dram.now()
    }

    /// Advances time (e.g. to model CPU compute between memory ops).
    pub fn advance(&mut self, cycles: u64) {
        self.dram.advance(cycles);
    }

    /// The LLC (for CAT configuration and statistics).
    pub fn llc(&self) -> &Llc {
        &self.llc
    }

    /// Mutable LLC access.
    pub fn llc_mut(&mut self) -> &mut Llc {
        &mut self.llc
    }

    /// The memory controller (for statistics, traces and DIMM
    /// installation). Which fidelity tier's timing rule it applies is a
    /// [`MemConfig::backend`] decision.
    pub fn dram(&self) -> &DramSystem {
        &self.dram
    }

    /// Mutable memory-controller access.
    pub fn dram_mut(&mut self) -> &mut DramSystem {
        &mut self.dram
    }

    /// Registers the memory-hierarchy statistics under `scope` for a
    /// `telemetry/v1` snapshot: bandwidth accounting at this level, the
    /// LLC under `llc`, DRAM under `dram`.
    pub fn export_telemetry(&self, scope: &mut simkit::telemetry::Scope) {
        scope.set_counter("page_copies", self.page_copies);
        scope.set_counter("fault_disturbances", self.fault_disturbances);
        scope.set_counter("deferred_writebacks", self.deferred_wb.len() as u64);
        scope.set_counter(
            "dram_bytes_transferred",
            self.dram.stats().bytes_transferred(),
        );
        self.llc.export_telemetry(scope.scope("llc"));
        self.dram.export_telemetry(scope.scope("dram"));
        // Backend identity: which fidelity tier produced this snapshot.
        // Telemetry is numeric-only, so the identity string doubles as a
        // metric name with value 1.
        let backend = scope.scope("backend");
        let kind = self.dram.fidelity();
        backend.set_counter("fidelity_tier", kind.fidelity_tier());
        backend.set_counter(kind.as_str(), 1);
    }

    /// Loads one cacheline through the LLC, advancing time by the hit or
    /// miss latency.
    pub fn load_line(&mut self, addr: PhysAddr, class: usize) -> [u8; 64] {
        self.bg_tick();
        let dram = &mut self.dram;
        let mut miss_latency = 0u64;
        let (data, ev) = self.llc.read_line(addr, class, |a| {
            let (d, lat) = dram.read64_tagged(a, class as u64);
            miss_latency = lat;
            d
        });
        if let Some(wb) = ev.writeback {
            self.write_posted(wb.addr, &wb.data, class as u64);
        }
        if ev.hit {
            self.dram.advance(LLC_HIT);
        } else {
            self.dram.advance(LLC_HIT + miss_latency + MISS_EXTRA);
        }
        data
    }

    /// Posts a write of one line to DRAM, then stalls the writer if the
    /// posted-write backlog exceeds the store buffer depth (write-buffer
    /// backpressure). MMIO, DDIO DMA and background traffic write
    /// without it.
    fn write_posted(&mut self, addr: PhysAddr, data: &[u8; 64], tag: u64) {
        let done = self.dram.write64_tagged(addr, data, tag);
        let now = self.dram.now();
        if done.raw() > now.raw() + WRITE_BACKLOG {
            self.dram.advance_to(Cycle(done.raw() - WRITE_BACKLOG));
        }
    }

    /// Stores one full cacheline through the LLC (write-allocate).
    pub fn store_line(&mut self, addr: PhysAddr, data: [u8; 64], class: usize) {
        self.bg_tick();
        let ev = self.llc.write_line(addr, class, data);
        if let Some(wb) = ev.writeback {
            self.write_posted(wb.addr, &wb.data, class as u64);
        }
        self.dram.advance(LLC_HIT);
    }

    /// Byte-granular load through the cache.
    pub fn load(&mut self, addr: PhysAddr, buf: &mut [u8], class: usize) {
        for s in addr.line_spans(buf.len()) {
            let data = self.load_line(s.line, class);
            buf[s.in_range].copy_from_slice(&data[s.in_line]);
        }
    }

    /// Fills `buf` from `addr` as a load would see it, with no side
    /// effect: each line is the LLC copy if one is cached, else the DRAM
    /// cells. No LRU state, statistics, time or trace moves, and no
    /// buffer device is called.
    pub fn peek(&self, addr: PhysAddr, buf: &mut [u8]) {
        for s in addr.line_spans(buf.len()) {
            let data = (self.llc.peek_line(s.line)).unwrap_or_else(|| self.dram.peek(s.line));
            buf[s.in_range].copy_from_slice(&data[s.in_line]);
        }
    }

    /// Byte-granular store through the cache (read-modify-write on
    /// partial lines).
    pub fn store(&mut self, addr: PhysAddr, bytes: &[u8], class: usize) {
        for s in addr.line_spans(bytes.len()) {
            let mut data = if s.is_whole() {
                [0u8; 64]
            } else {
                self.load_line(s.line, class)
            };
            data[s.in_line].copy_from_slice(&bytes[s.in_range]);
            self.store_line(s.line, data, class);
        }
    }

    /// `memcpy(dst, src, size)` at cacheline granularity: loads from
    /// `src` through the cache and stores to `dst` through the cache —
    /// the access pattern CompCpy piggybacks on. With `ordered`, a fence
    /// is inserted after every line (Algorithm 2 lines 24–28).
    ///
    /// # Panics
    ///
    /// Panics if `src` or `dst` is not cacheline aligned.
    pub fn memcpy(
        &mut self,
        dst: PhysAddr,
        src: PhysAddr,
        size: usize,
        class: usize,
        ordered: bool,
    ) {
        assert!(
            src.is_line_aligned() && dst.is_line_aligned(),
            "memcpy alignment"
        );
        const PAGE_BYTES: usize = 4096;
        let mut off = 0u64;
        // Batched whole-page fast path (unordered copies only — ordered
        // mode's per-line fences are the point of that mode; background
        // co-runners need per-line interleaving to contend realistically).
        if self.batch_page_copy && !ordered && self.bg.is_none() {
            while (off as usize) + PAGE_BYTES <= size
                && (src.0 + off).is_multiple_of(PAGE_BYTES as u64)
                && (dst.0 + off).is_multiple_of(PAGE_BYTES as u64)
                && self.page_copy(PhysAddr(dst.0 + off), PhysAddr(src.0 + off), class)
            {
                off += PAGE_BYTES as u64;
            }
        }
        for s in PhysAddr(src.0 + off).line_spans(size - off as usize) {
            let to = PhysAddr(dst.0 + off + s.in_range.start as u64);
            let mut data = self.load_line(s.line, class);
            if !s.is_whole() {
                // Partial tail line: merge with destination contents.
                let old = self.load_line(to, class);
                data[s.in_line.end..].copy_from_slice(&old[s.in_line.end..]);
            }
            self.store_line(to, data, class);
            self.dram.advance(COPY_PER_LINE);
            if ordered {
                self.dram.advance(FENCE);
            }
        }
    }

    /// Copies one 4 KB page with a single batched DRAM/buffer-device
    /// interception. Returns `false` — with *nothing* mutated — when the
    /// batch does not apply: a source line is LLC-resident (the per-line
    /// path would serve it from cache, not DRAM) or the DRAM system
    /// declines (page spans channels, buffer device wants per-line CAS).
    ///
    /// The source page is *streamed*: it arrives in one batched DRAM
    /// read (same 64 `rd_cas`, one pipelined latency) and is fed to the
    /// destination without being allocated in the LLC, like a
    /// non-temporal copy. Destination lines are still written through
    /// the cache with the same write-allocate, eviction and
    /// backpressure behavior as `store_line`, so copied bytes are
    /// byte-identical to the per-line path.
    fn page_copy(&mut self, dst: PhysAddr, src: PhysAddr, class: usize) -> bool {
        if self.llc.resident_lines_in_page(src.0 >> 12) != 0 {
            return false;
        }
        let Some((page, dram_latency)) = self.dram.read_page_tagged(src, class as u64) else {
            return false;
        };
        for i in 0..64usize {
            let ev = self
                .llc
                .write_line(PhysAddr(dst.0 + (i as u64) * 64), class, page[i]);
            if let Some(wb) = ev.writeback {
                self.write_posted(wb.addr, &wb.data, class as u64);
            }
            self.dram.advance(LLC_HIT + COPY_PER_LINE);
        }
        self.dram.advance(dram_latency);
        self.page_copies += 1;
        true
    }

    /// `clflush` over a byte range: invalidates every covered line,
    /// writing dirty ones back to DRAM. Models the paper's measured cost
    /// asymmetry between cached and uncached data.
    pub fn flush(&mut self, addr: PhysAddr, size: usize) -> FlushReport {
        // A zero-length flush covers no lines and must not consult the
        // fault injector for a flush that never happens.
        if size == 0 {
            return FlushReport::default();
        }
        let end = addr.0 + size as u64;
        let mut report = FlushReport::default();
        // Fault injection may reorder this flush's writebacks or defer
        // the tail of them into a write buffer. Undisturbed writebacks
        // issue inline as each line is flushed; disturbed ones are
        // collected first, then issued (possibly reversed) with the last
        // `delay` of them deferred.
        let (reorder, delay) = match &self.fault {
            Some(f) => f.writeback_faults(),
            None => (false, 0),
        };
        let disturbed = reorder || delay > 0;
        if disturbed {
            self.fault_disturbances += 1;
        }
        let mut held: Vec<(PhysAddr, [u8; 64])> = Vec::new();
        let mut spans = addr.line_spans(size);
        while let Some(span) = spans.next() {
            let line = span.line;
            // Whole page with nothing resident: every line takes the
            // absent branch below, so charge the identical cycles in one
            // step instead of 64 set scans.
            if line.is_page_aligned()
                && line.0 + 4096 <= end
                && self.llc.resident_lines_in_page(line.page()) == 0
            {
                report.lines += 64;
                report.cycles += 64 * FLUSH_ABSENT;
                self.dram.advance(64 * FLUSH_ABSENT);
                spans.nth(62); // the page's other 63 lines
                continue;
            }
            report.lines += 1;
            let flushed = self.llc.flush_line(line);
            if flushed == Flushed::Absent {
                report.cycles += FLUSH_ABSENT;
                self.dram.advance(FLUSH_ABSENT);
            } else {
                report.resident += 1;
                // A clean resident line is just invalidated.
                if let Flushed::Dirty(wb) = flushed {
                    report.dirty_writebacks += 1;
                    if disturbed {
                        held.push((wb.addr, wb.data));
                    } else {
                        self.write_posted(wb.addr, &wb.data, 0);
                    }
                }
                report.cycles += FLUSH_PRESENT;
                self.dram.advance(FLUSH_PRESENT);
            }
        }
        if reorder {
            held.reverse();
        }
        let deliver = held.len().saturating_sub(delay);
        for (addr, data) in held.drain(..deliver) {
            self.write_posted(addr, &data, 0);
        }
        report.deferred = held.len() as u64;
        self.deferred_wb.extend(held);
        report
    }

    /// Uncached MMIO write: 64 bytes straight onto the DDR bus (the
    /// CompCpy registration path, §IV-C).
    pub fn mmio_write64(&mut self, addr: PhysAddr, data: &[u8; 64]) {
        // MMIO must not leave a stale cached copy.
        if let Flushed::Dirty(wb) = self.llc.flush_line(addr) {
            self.dram.write64(wb.addr, &wb.data);
        }
        self.dram.write64(addr, data);
        self.dram.advance(MMIO);
    }

    /// Uncached MMIO read of 64 bytes.
    pub fn mmio_read64(&mut self, addr: PhysAddr) -> [u8; 64] {
        if let Flushed::Dirty(wb) = self.llc.flush_line(addr) {
            self.dram.write64(wb.addr, &wb.data);
        }
        let (data, lat) = self.dram.read64(addr);
        self.dram.advance(MMIO + lat);
        data
    }

    /// Device DMA write (NIC RX or storage read): DDIO allocates the
    /// lines into the DDIO ways; spills go to DRAM.
    pub fn dma_write(&mut self, addr: PhysAddr, bytes: &[u8]) {
        for s in addr.line_spans(bytes.len()) {
            let mut data = if s.is_whole() {
                [0u8; 64]
            } else {
                // Partial line: merge with current contents.
                match self.llc.dev_read_line(s.line) {
                    Some(d) => d,
                    None => self.dram.read64(s.line).0,
                }
            };
            data[s.in_line].copy_from_slice(&bytes[s.in_range]);
            let ev = self.llc.dev_write_line(s.line, data);
            if let Some(wb) = ev.writeback {
                self.dram.write64(wb.addr, &wb.data);
            }
        }
    }

    /// Device DMA write that bypasses the LLC entirely (no DDIO
    /// allocation): cached copies are invalidated and the data lands
    /// straight on the DDR bus. This is the ingress path of the paper's
    /// *Compute DMA* extension (§IV-E): the buffer device observes every
    /// wrCAS and can transform the stream as it arrives.
    ///
    /// # Panics
    ///
    /// Panics unless `addr` is cacheline aligned (device rings are).
    pub fn dma_write_through(&mut self, addr: PhysAddr, bytes: &[u8]) {
        assert!(addr.is_line_aligned(), "DMA writes are line aligned");
        for s in addr.line_spans(bytes.len()) {
            let mut data = [0u8; 64];
            if !s.is_whole() {
                // Partial line: merge with the newest copy, writing a
                // dirty cached one back first (as `mmio_write64` does).
                if let Flushed::Dirty(wb) = self.llc.flush_line(s.line) {
                    self.dram.write64(wb.addr, &wb.data);
                }
                data = self.dram.read64(s.line).0;
            }
            data[s.in_line].copy_from_slice(&bytes[s.in_range]);
            self.llc.invalidate_line(s.line);
            self.write_posted(s.line, &data, 0);
        }
    }

    /// Device DMA read (NIC TX): reads from the LLC when present (DDIO),
    /// otherwise from DRAM without allocating.
    pub fn dma_read(&mut self, addr: PhysAddr, len: usize) -> Vec<u8> {
        let mut out = Vec::with_capacity(len);
        for s in addr.line_spans(len) {
            let data = match self.llc.dev_read_line(s.line) {
                Some(d) => d,
                None => self.dram.read64(s.line).0,
            };
            out.extend_from_slice(&data[s.in_line]);
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn small() -> MemSystem {
        MemSystem::new(MemConfig {
            llc: Some(CacheConfig::kb(16, 4)),
            ..MemConfig::default()
        })
    }

    #[test]
    fn store_load_round_trip() {
        let mut m = small();
        let payload: Vec<u8> = (0..500u32).map(|i| (i * 3) as u8).collect();
        m.store(PhysAddr(0x1234), &payload, 0);
        let mut buf = vec![0u8; 500];
        m.load(PhysAddr(0x1234), &mut buf, 0);
        assert_eq!(buf, payload);
        // A device write with a partial tail line keeps the rest of that
        // line, even when its newest copy is dirty in the cache.
        m.store(PhysAddr(0x4000), &[0xEE; 128], 0);
        m.dma_write_through(PhysAddr(0x4000), &payload[..100]);
        let mut buf = vec![0u8; 128];
        m.load(PhysAddr(0x4000), &mut buf, 0);
        assert_eq!(buf[..100], payload[..100]);
        assert_eq!(buf[100..], [0xEE; 28]);
    }

    #[test]
    fn peek_sees_cached_and_dram_lines_and_moves_nothing() {
        let mut m = small(); // 16 KB cache
        let payload: Vec<u8> = (0..64 * 1024u32).map(|i| (i * 7 + i / 251) as u8).collect();
        m.store(PhysAddr(0), &payload, 0); // early lines evicted to DRAM
        let (now, llc, rd, wr) = (
            m.now(),
            m.llc().stats(),
            m.dram().stats().rd_cas,
            m.dram().stats().wr_cas,
        );
        let mut buf = vec![0u8; payload.len() - 100];
        m.peek(PhysAddr(37), &mut buf);
        assert_eq!(buf, payload[37..payload.len() - 63]);
        assert_eq!(m.now(), now);
        assert_eq!(m.llc().stats(), llc);
        assert_eq!(m.dram().stats().rd_cas, rd);
        assert_eq!(m.dram().stats().wr_cas, wr);
        let mut loaded = vec![0u8; buf.len()];
        m.load(PhysAddr(37), &mut loaded, 0);
        assert_eq!(loaded, buf, "a load sees what the peek saw");
    }

    #[test]
    fn dirty_data_survives_capacity_eviction() {
        let mut m = small(); // 16 KB cache
                             // Write 64 KB: early lines must be evicted and written back.
        for i in 0..1024u64 {
            m.store_line(PhysAddr(i * 64), [(i % 251) as u8; 64], 0);
        }
        // Everything must still read back correctly (from DRAM or cache).
        for i in 0..1024u64 {
            assert_eq!(m.load_line(PhysAddr(i * 64), 0), [(i % 251) as u8; 64]);
        }
        assert!(m.dram().stats().wr_cas > 0, "evictions reached DRAM");
    }

    #[test]
    fn memcpy_copies_and_is_cache_mediated() {
        let mut m = small();
        let src = PhysAddr(0x10000);
        let dst = PhysAddr(0x20000);
        let payload: Vec<u8> = (0..256u32).map(|i| i as u8).collect();
        m.store(src, &payload, 0);
        m.memcpy(dst, src, 256, 0, false);
        let mut buf = vec![0u8; 256];
        m.load(dst, &mut buf, 0);
        assert_eq!(buf, payload);
    }

    #[test]
    fn memcpy_partial_tail() {
        let mut m = small();
        let src = PhysAddr(0x1000);
        let dst = PhysAddr(0x2000);
        m.store(dst, &[0xFFu8; 128], 0);
        m.store(src, &[0x11u8; 100], 0);
        m.memcpy(dst, src, 100, 0, true);
        let mut buf = vec![0u8; 128];
        m.load(dst, &mut buf, 0);
        assert_eq!(&buf[..100], &[0x11u8; 100][..]);
        assert_eq!(&buf[100..128], &[0xFFu8; 28][..]);
    }

    #[test]
    fn batched_page_copy_matches_per_line() {
        let mk = |batch| {
            MemSystem::new(MemConfig {
                llc: Some(CacheConfig::kb(16, 4)),
                batch_page_copy: batch,
                ..MemConfig::default()
            })
        };
        let mut a = mk(true);
        let mut b = mk(false);
        let src = PhysAddr(0x10000);
        let dst = PhysAddr(0x20000);
        let payload: Vec<u8> = (0..8192u32)
            .map(|i| (i.wrapping_mul(2654435761) >> 7) as u8)
            .collect();
        for m in [&mut a, &mut b] {
            m.store(src, &payload, 0);
            // Evict the source so every line misses — the precondition
            // under which the batched path is allowed to engage.
            m.flush(src, 8192);
            m.memcpy(dst, src, 8192, 0, false);
        }
        assert_eq!(a.page_copies(), 2, "both pages took the batched path");
        assert_eq!(b.page_copies(), 0);
        // DRAM read traffic is identical: both paths miss all 128 lines.
        assert_eq!(a.dram().stats().rd_cas, b.dram().stats().rd_cas);
        let mut got_a = vec![0u8; 8192];
        let mut got_b = vec![0u8; 8192];
        a.load(dst, &mut got_a, 0);
        b.load(dst, &mut got_b, 0);
        assert_eq!(got_a, payload);
        assert_eq!(got_a, got_b);
    }

    #[test]
    fn whole_page_absent_flush_matches_per_line_flushes() {
        // A flush over whole non-resident pages settles each page in one
        // step. A one-line flush never covers a whole page, so 128 of
        // them walk the per-line absent branch; the accounting and the
        // clock must come out the same.
        let mk = || {
            let mut m = MemSystem::new(MemConfig {
                llc: Some(CacheConfig::kb(16, 4)),
                ..MemConfig::default()
            });
            m.store(PhysAddr(0x10000), &[0x5Au8; 8192], 0);
            m.flush(PhysAddr(0x10000), 8192);
            m
        };
        let mut paged = mk();
        let mut lined = mk();
        assert_eq!(paged.now(), lined.now(), "identical preparation");
        let whole = paged.flush(PhysAddr(0x10000), 8192);
        let mut sum = FlushReport::default();
        for i in 0..128u64 {
            let r = lined.flush(PhysAddr(0x10000 + i * 64), 64);
            sum.lines += r.lines;
            sum.resident += r.resident;
            sum.dirty_writebacks += r.dirty_writebacks;
            sum.deferred += r.deferred;
            sum.cycles += r.cycles;
        }
        assert_eq!(whole.lines, 128);
        assert_eq!(whole.resident, 0, "the range was flushed beforehand");
        assert_eq!(whole, sum, "flush accounting diverged");
        assert_eq!(paged.now(), lined.now(), "clocks diverged");
    }

    #[test]
    fn page_copy_declines_when_source_is_cached() {
        let mut m = small(); // batch_page_copy defaults to true
        let src = PhysAddr(0x4000);
        m.store(src, &[7u8; 4096], 0); // source lines LLC-resident
        m.memcpy(PhysAddr(0x8000), src, 4096, 0, false);
        assert_eq!(m.page_copies(), 0, "cached source must stay per-line");
        let mut buf = vec![0u8; 4096];
        m.load(PhysAddr(0x8000), &mut buf, 0);
        assert_eq!(buf, vec![7u8; 4096]);
    }

    #[test]
    fn ordered_memcpy_costs_more() {
        let mut a = small();
        let t0 = a.now();
        a.memcpy(PhysAddr(0x8000), PhysAddr(0x4000), 4096, 0, false);
        let unordered = a.now() - t0;

        let mut b = small();
        let t0 = b.now();
        b.memcpy(PhysAddr(0x8000), PhysAddr(0x4000), 4096, 0, true);
        let ordered = b.now() - t0;
        assert!(ordered > unordered);
    }

    #[test]
    fn flush_writes_dirty_lines_to_dram() {
        let mut m = small();
        m.store(PhysAddr(0x3000), &[9u8; 4096], 0);
        let before = m.dram().stats().wr_cas;
        let report = m.flush(PhysAddr(0x3000), 4096);
        assert_eq!(report.lines, 64);
        assert!(report.dirty_writebacks > 0);
        assert_eq!(m.dram().stats().wr_cas, before + report.dirty_writebacks);
        // Data must still be correct after the flush (now from DRAM).
        let mut buf = vec![0u8; 4096];
        m.load(PhysAddr(0x3000), &mut buf, 0);
        assert_eq!(buf, vec![9u8; 4096]);
    }

    #[test]
    fn flush_of_uncached_range_is_cheaper() {
        // §IV-A: flushing 4 KB that is already in DRAM is ~50% faster.
        let mut m = small();
        m.store(PhysAddr(0x5000), &[1u8; 4096], 0);
        let cached = m.flush(PhysAddr(0x5000), 4096);
        // Second flush: nothing resident anymore.
        let uncached = m.flush(PhysAddr(0x5000), 4096);
        assert_eq!(uncached.resident, 0);
        assert!(
            (uncached.cycles as f64) <= 0.55 * cached.cycles as f64,
            "uncached {} vs cached {}",
            uncached.cycles,
            cached.cycles
        );
    }

    #[test]
    fn flush_zero_length_covers_no_lines() {
        // Regression: a zero-length flush at an unaligned address used to
        // report one covered line (`start = cacheline(addr) < end = addr`).
        let mut m = small();
        m.store(PhysAddr(0x5000), &[7u8; 64], 0);
        for addr in [0x5000u64, 0x5007, 0x503F] {
            let r = m.flush(PhysAddr(addr), 0);
            assert_eq!(r.lines, 0, "flush(0x{addr:x}, 0) counted lines");
            assert_eq!(r.resident, 0);
            assert_eq!(r.dirty_writebacks, 0);
            assert_eq!(r.cycles, 0);
        }
        // The line the zero-length flush touched must still be resident.
        assert!(m.llc().contains(PhysAddr(0x5000)));
    }

    #[test]
    fn flush_counts_covering_lines_at_unaligned_boundaries() {
        let mut m = small();
        // End not line-aligned: [0x6000, 0x6041) straddles two lines.
        assert_eq!(m.flush(PhysAddr(0x6000), 0x41).lines, 2);
        // Start and end unaligned but within one line.
        assert_eq!(m.flush(PhysAddr(0x7010), 0x20).lines, 1);
        // Unaligned start, range spilling one byte into the next line.
        assert_eq!(m.flush(PhysAddr(0x8030), 0x11).lines, 2);
        // Exactly one aligned line.
        assert_eq!(m.flush(PhysAddr(0x9000), 64).lines, 1);
    }

    #[test]
    fn mmio_bypasses_cache() {
        let mut m = small();
        let addr = PhysAddr(0xF000);
        m.mmio_write64(addr, &[0xABu8; 64]);
        // The write went straight to DRAM: a device (bypassing the LLC)
        // sees it immediately.
        let (raw, _) = m.dram_mut().read64(addr);
        assert_eq!(raw, [0xABu8; 64]);
        assert_eq!(m.mmio_read64(addr), [0xABu8; 64]);
        assert!(!m.llc().contains(addr));
    }

    #[test]
    fn dma_write_then_cpu_read() {
        let mut m = small();
        let payload: Vec<u8> = (0..1000u32).map(|i| (i * 7) as u8).collect();
        m.dma_write(PhysAddr(0x6000), &payload);
        let mut buf = vec![0u8; 1000];
        m.load(PhysAddr(0x6000), &mut buf, 0);
        assert_eq!(buf, payload);
    }

    #[test]
    fn large_dma_leaks_to_dram_via_ddio() {
        // Observation 3: DMA bursts beyond the DDIO ways leak to DRAM.
        let mut m = small();
        let before = m.dram().stats().wr_cas;
        let payload = vec![0x77u8; 64 * 1024];
        m.dma_write(PhysAddr(0x100000), &payload);
        assert!(
            m.dram().stats().wr_cas > before + 500,
            "DDIO overflow must spill writebacks to DRAM"
        );
        // Functional correctness preserved.
        assert_eq!(m.dma_read(PhysAddr(0x100000), 64 * 1024), payload);
    }

    #[test]
    fn dma_write_through_bypasses_cache() {
        let mut m = small();
        // A stale dirty copy in the cache must not survive the DMA.
        m.store(PhysAddr(0x9000), &[1u8; 256], 0);
        m.dma_write_through(PhysAddr(0x9000), &[7u8; 256]);
        assert!(!m.llc().contains(PhysAddr(0x9000)));
        let (raw, _) = m.dram_mut().read64(PhysAddr(0x9000));
        assert_eq!(raw, [7u8; 64]);
        let mut buf = [0u8; 256];
        m.load(PhysAddr(0x9000), &mut buf, 0);
        assert_eq!(buf, [7u8; 256]);
    }

    #[test]
    fn dma_read_prefers_cache() {
        let mut m = small();
        m.store(PhysAddr(0x7000), &[5u8; 256], 0);
        // Data is dirty in cache, absent in DRAM; TX DMA must see it.
        assert_eq!(m.dma_read(PhysAddr(0x7000), 256), vec![5u8; 256]);
    }

    #[test]
    fn background_traffic_evicts_foreground_lines() {
        let mut m = small(); // 16 KB LLC
                             // Foreground working set: resident without background pressure.
        for i in 0..64u64 {
            m.store_line(PhysAddr(0x4000 + i * 64), [1u8; 64], 0);
        }
        m.llc_mut().reset_stats();
        for i in 0..64u64 {
            let _ = m.load_line(PhysAddr(0x4000 + i * 64), 0);
        }
        assert_eq!(m.llc().stats().misses, 0, "resident when solo");

        // Same reuse pattern with a heavy co-runner injected.
        m.set_background(Some(BackgroundTraffic {
            base: PhysAddr(0x40_0000),
            hot_lines: 16,
            cold_lines: 4096,
            hot_fraction: 0.2,
            per_op: 8.0,
            class: 1,
            seed: 3,
        }));
        for round in 0..4u64 {
            for i in 0..64u64 {
                let _ = m.load_line(PhysAddr(0x4000 + i * 64), 0);
                let _ = round;
            }
        }
        assert!(
            m.llc().stats().misses > 20,
            "co-runner must evict the working set (misses {})",
            m.llc().stats().misses
        );
    }

    #[test]
    fn background_traffic_does_not_advance_foreground_clock_directly() {
        // The injected accesses perturb cache/bus state but must not be
        // billed as foreground time by themselves: time moves only with
        // foreground operations.
        let mut m = small();
        m.set_background(Some(BackgroundTraffic {
            base: PhysAddr(0x40_0000),
            hot_lines: 64,
            cold_lines: 1024,
            hot_fraction: 0.5,
            per_op: 4.0,
            class: 1,
            seed: 1,
        }));
        let t0 = m.now();
        let _ = m.load_line(PhysAddr(0x100), 0);
        let with_bg = m.now() - t0;

        let mut solo = small();
        let t0 = solo.now();
        let _ = solo.load_line(PhysAddr(0x100), 0);
        let without_bg = solo.now() - t0;
        // The single foreground op costs the same order either way; the
        // background shows up as *contention* on later ops, not as a
        // direct time charge here.
        assert!(with_bg < without_bg * 3, "{with_bg} vs {without_bg}");
    }

    #[test]
    fn background_traffic_can_be_removed() {
        let mut m = small();
        m.set_background(Some(BackgroundTraffic {
            base: PhysAddr(0x40_0000),
            hot_lines: 16,
            cold_lines: 256,
            hot_fraction: 0.5,
            per_op: 2.0,
            class: 1,
            seed: 2,
        }));
        let _ = m.load_line(PhysAddr(0), 0);
        m.set_background(None);
        let before = m.llc().stats().accesses;
        let _ = m.load_line(PhysAddr(0), 0);
        // Exactly one access once the background is removed.
        assert_eq!(m.llc().stats().accesses, before + 1);
    }

    #[test]
    fn time_advances_with_activity() {
        let mut m = small();
        let t0 = m.now();
        m.store(PhysAddr(0), &[1u8; 4096], 0);
        assert!(m.now() > t0);
    }
}
