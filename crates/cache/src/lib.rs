//! `cache` models the server's last-level cache — the component whose
//! contention behaviour motivates SmartDIMM.
//!
//! The model is a data-holding, write-back, write-allocate set-associative
//! cache with:
//!
//! * **CAT** (Intel Cache Allocation Technology) per-class way masks,
//!   used by Fig. 10 to shrink the effective LLC and by Table I to model
//!   co-running workloads;
//! * **DDIO** (Data Direct I/O) device-write allocation restricted to a
//!   small group of ways, so DMA data can leak to DRAM under contention
//!   exactly as Observation 3 describes;
//! * a windowed **miss-rate sampler** — the signal SmartDIMM's adaptive
//!   software stack polls to decide between on-CPU and near-memory ULP
//!   execution (§IV, §V-C);
//! * a precise **writeback stream**: every dirty eviction is surfaced to
//!   the caller, because LLC writebacks are what drive SmartDIMM's
//!   Self-Recycle mechanism.
//!
//! # Example
//!
//! ```
//! use cache::{CacheConfig, Llc};
//! use dram::PhysAddr;
//!
//! let mut llc = Llc::new(CacheConfig::kb(64, 8));
//! let (data, ev) = llc.read_line(PhysAddr(0x1000), 0, |_| [7u8; 64]);
//! assert!(!ev.hit);
//! assert_eq!(data, [7u8; 64]);
//! let (_, ev) = llc.read_line(PhysAddr(0x1000), 0, |_| unreachable!());
//! assert!(ev.hit);
//! ```

#![forbid(unsafe_code)]

use dram::PhysAddr;

/// A dirty line leaving the cache; the caller must write it to DRAM.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Writeback {
    /// Cacheline-aligned address.
    pub addr: PhysAddr,
    /// The dirty data.
    pub data: [u8; 64],
}

/// What a `clflush` of one line found ([`Llc::flush_line`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Flushed {
    /// The line was not resident.
    Absent,
    /// The line was resident and clean: invalidated, nothing to write.
    Clean,
    /// The line was resident and dirty: invalidated, and the caller must
    /// write this back to DRAM.
    Dirty(Writeback),
}

/// What happened during a cache access.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct CacheEvent {
    /// Whether the access hit.
    pub hit: bool,
    /// A dirty eviction caused by this access, if any.
    pub writeback: Option<Writeback>,
}

/// LLC geometry and policy parameters.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CacheConfig {
    /// Total capacity in bytes.
    pub size_bytes: usize,
    /// Associativity.
    pub ways: usize,
    /// Ways DDIO device writes may allocate into (Intel default: 2).
    pub ddio_ways: usize,
    /// Miss-rate sampling window, in accesses.
    pub sample_window: usize,
}

impl CacheConfig {
    /// A cache of `kb` kibibytes with the given associativity.
    pub fn kb(kb: usize, ways: usize) -> CacheConfig {
        CacheConfig {
            size_bytes: kb * 1024,
            ways,
            ddio_ways: 2,
            sample_window: 4096,
        }
    }

    /// A cache of `mb` mebibytes with the given associativity (a Xeon
    /// Gold 6242-class LLC would be ~22 MB, 11-way).
    pub fn mb(mb: usize, ways: usize) -> CacheConfig {
        CacheConfig {
            size_bytes: mb * 1024 * 1024,
            ways,
            ddio_ways: 2,
            sample_window: 4096,
        }
    }

    /// Number of sets implied by the geometry.
    pub fn sets(&self) -> usize {
        self.size_bytes / (64 * self.ways)
    }

    /// Checks the geometry [`Llc::new`] requires: 1..=64 ways, at least
    /// one set, `ddio_ways` in 1..=`ways` and a non-empty sampling
    /// window. The error names the first rule broken.
    ///
    /// # Errors
    ///
    /// Returns the broken rule as a static message.
    pub fn validate(&self) -> Result<(), &'static str> {
        if !(1..=64).contains(&self.ways) {
            return Err("1..=64 ways");
        }
        if self.sets() == 0 {
            return Err("cache too small for its ways");
        }
        if !(1..=self.ways).contains(&self.ddio_ways) {
            return Err("ddio_ways outside 1..=ways");
        }
        if self.sample_window == 0 {
            return Err("sample_window must be >= 1");
        }
        Ok(())
    }
}

/// The way mask selecting the first `n` ways (`n` in 1..=64).
fn low_ways(n: usize) -> u64 {
    u64::MAX >> (64 - n)
}

#[derive(Debug, Clone, Copy)]
struct Line {
    tag: u64,
    valid: bool,
    dirty: bool,
    last_use: u64,
    data: [u8; 64],
}

impl Default for Line {
    fn default() -> Self {
        Line {
            tag: 0,
            valid: false,
            dirty: false,
            last_use: 0,
            data: [0u8; 64],
        }
    }
}

/// Cumulative cache statistics.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CacheStats {
    /// Total accesses (all kinds).
    pub accesses: u64,
    /// Hits.
    pub hits: u64,
    /// Misses.
    pub misses: u64,
    /// Dirty evictions (capacity/conflict writebacks).
    pub writebacks: u64,
    /// Lines invalidated by explicit flushes.
    pub flushes: u64,
    /// DDIO device writes that allocated or updated a line.
    pub ddio_writes: u64,
}

impl CacheStats {
    /// Cumulative miss rate over all accesses.
    pub fn miss_rate(&self) -> f64 {
        if self.accesses == 0 {
            0.0
        } else {
            self.misses as f64 / self.accesses as f64
        }
    }
}

// simlint: allow(DET-HASH): fixed hasher, probed by key, never iterated
type PageMap = std::collections::HashMap<u64, u32, simkit::hash::FixedState>;

/// The last-level cache.
pub struct Llc {
    config: CacheConfig,
    sets: Vec<Vec<Line>>,
    use_clock: u64,
    /// Allocation way-mask per class id (CAT); bit i = way i allowed.
    masks: Vec<u64>,
    stats: CacheStats,
    /// Valid-line count per 4 KB page, maintained at every allocate and
    /// invalidate: lets page-granular operations (batched copies, range
    /// flushes) skip 64 per-line set scans with one probe.
    page_lines: PageMap,
    // Windowed miss-rate sampling.
    window_accesses: u64,
    window_misses: u64,
    last_window_rate: f64,
    windows_completed: u64,
}

impl std::fmt::Debug for Llc {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Llc")
            .field("size", &self.config.size_bytes)
            .field("ways", &self.config.ways)
            .field("sets", &self.config.sets())
            .finish()
    }
}

/// The class id used for DDIO device traffic.
pub const DDIO_CLASS: usize = 63;

impl Llc {
    /// Creates an LLC with every class allowed to use all ways and DDIO
    /// restricted to the first `ddio_ways`.
    ///
    /// # Panics
    ///
    /// Panics if [`CacheConfig::validate`] rejects the geometry.
    pub fn new(config: CacheConfig) -> Llc {
        if let Err(why) = config.validate() {
            panic!("{why}");
        }
        let mut masks = vec![low_ways(config.ways); 64];
        masks[DDIO_CLASS] = low_ways(config.ddio_ways);
        Llc {
            sets: vec![vec![Line::default(); config.ways]; config.sets()],
            config,
            use_clock: 0,
            masks,
            stats: CacheStats::default(),
            page_lines: PageMap::default(),
            window_accesses: 0,
            window_misses: 0,
            last_window_rate: 0.0,
            windows_completed: 0,
        }
    }

    /// The cache geometry.
    pub fn config(&self) -> &CacheConfig {
        &self.config
    }

    /// Cumulative statistics.
    pub fn stats(&self) -> CacheStats {
        self.stats
    }

    /// Resets statistics (geometry and contents unchanged).
    pub fn reset_stats(&mut self) {
        self.stats = CacheStats::default();
        self.window_accesses = 0;
        self.window_misses = 0;
        self.last_window_rate = 0.0;
        self.windows_completed = 0;
    }

    /// Sets the CAT allocation way-mask for `class`.
    ///
    /// Hits are unrestricted (as on real hardware); the mask only limits
    /// which ways the class may *allocate* into.
    ///
    /// # Panics
    ///
    /// Panics if the mask is zero or selects ways beyond the geometry.
    pub fn set_way_mask(&mut self, class: usize, mask: u64) {
        assert!(mask != 0, "empty way mask");
        assert!(
            mask & !low_ways(self.config.ways) == 0,
            "mask selects nonexistent ways"
        );
        self.masks[class] = mask;
    }

    /// Convenience: restrict `class` to its first `n` ways.
    pub fn set_ways(&mut self, class: usize, n: usize) {
        assert!(n >= 1 && n <= self.config.ways);
        self.set_way_mask(class, low_ways(n));
    }

    /// The most recently completed sampling-window miss rate — the signal
    /// the adaptive offload policy polls. Falls back to the cumulative
    /// rate until one window completes.
    pub fn sampled_miss_rate(&self) -> f64 {
        if self.windows_completed > 0 {
            self.last_window_rate
        } else {
            self.stats.miss_rate()
        }
    }

    /// Registers every cache statistic (access counters, cumulative and
    /// sampled miss rates) under `scope` for a `telemetry/v1` snapshot.
    pub fn export_telemetry(&self, scope: &mut simkit::telemetry::Scope) {
        scope.set_counter("accesses", self.stats.accesses);
        scope.set_counter("hits", self.stats.hits);
        scope.set_counter("misses", self.stats.misses);
        scope.set_counter("writebacks", self.stats.writebacks);
        scope.set_counter("flushes", self.stats.flushes);
        scope.set_counter("ddio_writes", self.stats.ddio_writes);
        scope.set_counter("sample_windows", self.windows_completed);
        scope.set_gauge("miss_rate", self.stats.miss_rate());
        scope.set_gauge("sampled_miss_rate", self.sampled_miss_rate());
    }

    fn index(&self, addr: PhysAddr) -> (usize, u64) {
        let line = addr.0 >> 6;
        let set = (line % self.sets.len() as u64) as usize;
        let tag = line / self.sets.len() as u64;
        (set, tag)
    }

    fn note_access(&mut self, hit: bool) {
        self.stats.accesses += 1;
        if hit {
            self.stats.hits += 1;
        } else {
            self.stats.misses += 1;
            self.window_misses += 1;
        }
        self.window_accesses += 1;
        if self.window_accesses as usize >= self.config.sample_window {
            self.last_window_rate = self.window_misses as f64 / self.window_accesses as f64;
            self.window_accesses = 0;
            self.window_misses = 0;
            self.windows_completed += 1;
        }
    }

    fn find(&self, set: usize, tag: u64) -> Option<usize> {
        self.sets[set].iter().position(|l| l.valid && l.tag == tag)
    }

    /// One scan of `set` for an access by `class` to `tag`: `Ok(way)` on
    /// a hit, else `Err(way)`, the way the miss fills. The victim is the
    /// least `(valid << 63) | last_use` among the ways `class` may
    /// allocate, the lowest way on ties: an invalid way before any
    /// valid one, else the LRU. This is `victimize`'s pick.
    fn probe(&self, set: usize, tag: u64, class: usize) -> Result<usize, usize> {
        let mask = self.masks[class];
        let (mut victim, mut victim_key) = (0, u64::MAX);
        for (w, line) in self.sets[set].iter().enumerate() {
            if line.valid && line.tag == tag {
                return Ok(w);
            }
            let key = u64::from(line.valid) << 63 | line.last_use;
            if mask >> w & 1 == 1 && key < victim_key {
                (victim, victim_key) = (w, key);
            }
        }
        Err(victim)
    }

    /// Where an access by `class` to `addr` lands, without touching LRU
    /// state or statistics: `Ok(way)` if the line is resident, else
    /// `Err(way)`, the way a miss would fill. One scan of the set, as
    /// [`Llc::read_line`] and [`Llc::write_line`] make.
    pub fn probe_line(&self, addr: PhysAddr, class: usize) -> Result<usize, usize> {
        let (set, tag) = self.index(addr.cacheline());
        self.probe(set, tag, class)
    }

    /// [`Llc::probe_line`] by the two scans it replaced: the tag scan,
    /// then on a miss `victimize`'s pass over the set. Kept as
    /// the probe's oracle and the `before` side of the `llc_miss_probe`
    /// hot-path row.
    pub fn probe_line_two_pass(&self, addr: PhysAddr, class: usize) -> Result<usize, usize> {
        let (set, tag) = self.index(addr.cacheline());
        self.find(set, tag)
            .ok_or_else(|| self.victimize(set, class))
    }

    /// Counts `addr`'s page into the residency index.
    fn page_inc(&mut self, addr: PhysAddr) {
        *self.page_lines.entry(addr.0 >> 12).or_insert(0) += 1;
    }

    /// Removes the line at `(set, tag)` from the residency index.
    fn page_dec(&mut self, set: usize, tag: u64) {
        let page = ((tag * self.sets.len() as u64 + set as u64) << 6) >> 12;
        match self.page_lines.get_mut(&page) {
            Some(1) => {
                self.page_lines.remove(&page);
            }
            Some(n) => *n -= 1,
            None => debug_assert!(false, "valid line missing from page index"),
        }
    }

    /// Replaces `sets[set][w]` with a fresh valid line, keeping the
    /// page-residency index in step (the evicted line, if valid, leaves
    /// its page; the new line joins `addr`'s page).
    fn install(&mut self, set: usize, w: usize, addr: PhysAddr, line: Line) {
        let old = self.sets[set][w];
        if old.valid {
            self.page_dec(set, old.tag);
        }
        self.page_inc(addr);
        self.sets[set][w] = line;
    }

    /// Picks the LRU way among those allowed for `class`, an invalid way
    /// first, by comparing each way with the best so far.
    fn victimize(&self, set: usize, class: usize) -> usize {
        let mask = self.masks[class];
        let mut victim = None;
        for (w, line) in self.sets[set].iter().enumerate() {
            if mask & (1u64 << w) == 0 {
                continue;
            }
            match victim {
                None => victim = Some(w),
                Some(v) => {
                    let vl = &self.sets[set][v];
                    let better = (!line.valid && vl.valid)
                        || (line.valid == vl.valid && line.last_use < vl.last_use);
                    if better {
                        victim = Some(w);
                    }
                }
            }
        }
        victim.expect("way mask is non-empty")
    }

    /// Vacates way `w` of `set` for a fill, returning the writeback its
    /// line needs if it is valid and dirty.
    fn evict_way(&mut self, set: usize, w: usize) -> Option<Writeback> {
        let line = &self.sets[set][w];
        if !(line.valid && line.dirty) {
            return None;
        }
        let wb = Writeback {
            addr: PhysAddr((line.tag * self.sets.len() as u64 + set as u64) << 6),
            data: line.data,
        };
        self.stats.writebacks += 1;
        Some(wb)
    }

    /// CPU load of a full cacheline. On a miss, `fill` supplies the data
    /// from the next level (DRAM).
    pub fn read_line(
        &mut self,
        addr: PhysAddr,
        class: usize,
        fill: impl FnOnce(PhysAddr) -> [u8; 64],
    ) -> ([u8; 64], CacheEvent) {
        let addr = addr.cacheline();
        let (set, tag) = self.index(addr);
        self.use_clock += 1;
        let w = match self.probe(set, tag, class) {
            Ok(w) => {
                self.note_access(true);
                self.sets[set][w].last_use = self.use_clock;
                return (
                    self.sets[set][w].data,
                    CacheEvent {
                        hit: true,
                        writeback: None,
                    },
                );
            }
            Err(w) => w,
        };
        self.note_access(false);
        let data = fill(addr);
        let wb = self.evict_way(set, w);
        self.install(
            set,
            w,
            addr,
            Line {
                tag,
                valid: true,
                dirty: false,
                last_use: self.use_clock,
                data,
            },
        );
        (
            data,
            CacheEvent {
                hit: false,
                writeback: wb,
            },
        )
    }

    /// CPU store of a full cacheline (write-allocate, write-back).
    pub fn write_line(&mut self, addr: PhysAddr, class: usize, data: [u8; 64]) -> CacheEvent {
        let addr = addr.cacheline();
        let (set, tag) = self.index(addr);
        self.use_clock += 1;
        let w = match self.probe(set, tag, class) {
            Ok(w) => {
                self.note_access(true);
                let line = &mut self.sets[set][w];
                line.data = data;
                line.dirty = true;
                line.last_use = self.use_clock;
                return CacheEvent {
                    hit: true,
                    writeback: None,
                };
            }
            Err(w) => w,
        };
        self.note_access(false);
        let wb = self.evict_way(set, w);
        self.install(
            set,
            w,
            addr,
            Line {
                tag,
                valid: true,
                dirty: true,
                last_use: self.use_clock,
                data,
            },
        );
        CacheEvent {
            hit: false,
            writeback: wb,
        }
    }

    /// DDIO device write (NIC RX DMA): allocates only within the DDIO
    /// ways, updating in place on a hit.
    pub fn dev_write_line(&mut self, addr: PhysAddr, data: [u8; 64]) -> CacheEvent {
        self.stats.ddio_writes += 1;
        self.write_line(addr, DDIO_CLASS, data)
    }

    /// DDIO device read (NIC TX DMA): returns cached data without
    /// allocating on a miss (the device reads DRAM directly then).
    pub fn dev_read_line(&mut self, addr: PhysAddr) -> Option<[u8; 64]> {
        let addr = addr.cacheline();
        let (set, tag) = self.index(addr);
        self.use_clock += 1;
        let hit = self.find(set, tag);
        self.note_access(hit.is_some());
        hit.map(|w| {
            self.sets[set][w].last_use = self.use_clock;
            self.sets[set][w].data
        })
    }

    /// `clflush`: invalidates the line and reports what it found, with
    /// the data to write back if it was dirty. One probe of the set.
    pub fn flush_line(&mut self, addr: PhysAddr) -> Flushed {
        let addr = addr.cacheline();
        let (set, tag) = self.index(addr);
        let Some(w) = self.find(set, tag) else {
            return Flushed::Absent;
        };
        self.stats.flushes += 1;
        let line = self.sets[set][w];
        self.sets[set][w].valid = false;
        self.page_dec(set, tag);
        if line.dirty {
            Flushed::Dirty(Writeback {
                addr,
                data: line.data,
            })
        } else {
            Flushed::Clean
        }
    }

    /// Drops the line without writing it back — DMA-overwrite semantics:
    /// a device write-through supersedes any cached copy.
    pub fn invalidate_line(&mut self, addr: PhysAddr) {
        let addr = addr.cacheline();
        let (set, tag) = self.index(addr);
        if let Some(w) = self.find(set, tag) {
            self.sets[set][w].valid = false;
            self.page_dec(set, tag);
        }
    }

    /// Whether the line is present (no LRU update, no stats).
    pub fn contains(&self, addr: PhysAddr) -> bool {
        let (set, tag) = self.index(addr.cacheline());
        self.find(set, tag).is_some()
    }

    /// Whether the line is present and dirty.
    pub fn is_dirty(&self, addr: PhysAddr) -> bool {
        let (set, tag) = self.index(addr.cacheline());
        self.sets[set]
            .iter()
            .any(|l| l.valid && l.dirty && l.tag == tag)
    }

    /// Number of valid lines resident in the 4 KB page numbered `page`
    /// (`addr >> 12`). O(1) — one probe of the residency index instead
    /// of 64 per-line set scans; zero means a page-granular operation
    /// may bypass the cache entirely.
    pub fn resident_lines_in_page(&self, page: u64) -> u32 {
        self.page_lines.get(&page).copied().unwrap_or(0)
    }

    /// Number of valid lines currently resident.
    pub fn resident_lines(&self) -> usize {
        self.sets
            .iter()
            .map(|s| s.iter().filter(|l| l.valid).count())
            .sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    fn tiny() -> Llc {
        // 8 sets x 4 ways x 64 B = 2 KiB.
        Llc::new(CacheConfig {
            size_bytes: 2048,
            ways: 4,
            ddio_ways: 2,
            sample_window: 16,
        })
    }

    #[test]
    fn geometry() {
        let c = tiny();
        assert_eq!(c.config().sets(), 8);
    }

    #[test]
    fn read_miss_then_hit() {
        let mut c = tiny();
        let a = PhysAddr(0x40);
        let (d, ev) = c.read_line(a, 0, |_| [3u8; 64]);
        assert!(!ev.hit);
        assert_eq!(d, [3u8; 64]);
        let (d, ev) = c.read_line(a, 0, |_| panic!("must hit"));
        assert!(ev.hit);
        assert_eq!(d, [3u8; 64]);
        assert_eq!(c.stats().hits, 1);
        assert_eq!(c.stats().misses, 1);
    }

    #[test]
    fn write_marks_dirty_and_evicts_with_writeback() {
        let mut c = tiny();
        // Fill one set: addresses mapping to set 0 stride by sets*64 = 512.
        for i in 0..4u64 {
            c.write_line(PhysAddr(i * 512), 0, [i as u8; 64]);
        }
        assert!(c.is_dirty(PhysAddr(0)));
        // Fifth distinct line in the same set evicts the LRU (addr 0).
        let ev = c.write_line(PhysAddr(4 * 512), 0, [9u8; 64]);
        assert!(!ev.hit);
        let wb = ev.writeback.expect("dirty eviction");
        assert_eq!(wb.addr, PhysAddr(0));
        assert_eq!(wb.data, [0u8; 64]);
        assert!(!c.contains(PhysAddr(0)));
    }

    #[test]
    fn lru_respects_recency() {
        let mut c = tiny();
        for i in 0..4u64 {
            c.write_line(PhysAddr(i * 512), 0, [i as u8; 64]);
        }
        // Touch line 0 so line 1 becomes LRU.
        let _ = c.read_line(PhysAddr(0), 0, |_| panic!());
        let ev = c.write_line(PhysAddr(4 * 512), 0, [9u8; 64]);
        assert_eq!(ev.writeback.expect("eviction").addr, PhysAddr(512));
        assert!(c.contains(PhysAddr(0)));
    }

    #[test]
    fn clean_eviction_has_no_writeback() {
        let mut c = tiny();
        for i in 0..5u64 {
            let (_, ev) = c.read_line(PhysAddr(i * 512), 0, |_| [0u8; 64]);
            assert!(ev.writeback.is_none());
        }
    }

    #[test]
    fn flush_returns_dirty_data_and_invalidates() {
        let mut c = tiny();
        c.write_line(PhysAddr(0x80), 0, [7u8; 64]);
        assert_eq!(
            c.flush_line(PhysAddr(0x80)),
            Flushed::Dirty(Writeback {
                addr: PhysAddr(0x80),
                data: [7u8; 64]
            })
        );
        assert!(!c.contains(PhysAddr(0x80)));
        // Second flush: nothing.
        assert_eq!(c.flush_line(PhysAddr(0x80)), Flushed::Absent);
        // Clean line: invalidated, no writeback.
        let _ = c.read_line(PhysAddr(0xC0), 0, |_| [1u8; 64]);
        assert_eq!(c.flush_line(PhysAddr(0xC0)), Flushed::Clean);
        assert!(!c.contains(PhysAddr(0xC0)));
        assert_eq!(c.stats().flushes, 2, "only resident lines count");
    }

    #[test]
    fn cat_mask_restricts_allocation_footprint() {
        let mut c = tiny();
        c.set_ways(1, 1); // class 1 may only allocate way 0
                          // Fill the whole set with class 1: it keeps evicting itself.
        for i in 0..16u64 {
            c.write_line(PhysAddr(i * 512), 1, [i as u8; 64]);
        }
        // Only one line per set survives for class 1.
        assert_eq!(c.resident_lines(), 1);
    }

    #[test]
    fn cat_hits_are_unrestricted() {
        let mut c = tiny();
        // Class 0 allocates into some way.
        c.write_line(PhysAddr(0), 0, [1u8; 64]);
        c.set_ways(2, 1);
        // Class 2 still *hits* on that line even if outside its mask.
        let (d, ev) = c.read_line(PhysAddr(0), 2, |_| panic!());
        assert!(ev.hit);
        assert_eq!(d, [1u8; 64]);
    }

    #[test]
    fn ddio_writes_confined_to_ddio_ways() {
        let mut c = tiny();
        // 16 distinct lines, all set 0, via DDIO: at most 2 ways occupied.
        for i in 0..16u64 {
            c.dev_write_line(PhysAddr(i * 512), [i as u8; 64]);
        }
        assert!(c.resident_lines() <= 2);
        assert_eq!(c.stats().ddio_writes, 16);
    }

    #[test]
    fn ddio_contention_leaks_to_dram() {
        // Observation 3: DMA bursts larger than the DDIO ways evict each
        // other and dirty data leaks to DRAM before the CPU consumes it.
        let mut c = tiny();
        let mut leaked = 0;
        for i in 0..32u64 {
            if c.dev_write_line(PhysAddr(i * 512), [0xEE; 64])
                .writeback
                .is_some()
            {
                leaked += 1;
            }
        }
        assert!(leaked >= 28, "leaked {leaked}");
    }

    #[test]
    fn dev_read_does_not_allocate() {
        let mut c = tiny();
        assert!(c.dev_read_line(PhysAddr(0x100)).is_none());
        assert_eq!(c.resident_lines(), 0);
        c.write_line(PhysAddr(0x100), 0, [4u8; 64]);
        assert_eq!(c.dev_read_line(PhysAddr(0x100)), Some([4u8; 64]));
    }

    #[test]
    fn invalidate_drops_dirty_data() {
        let mut c = tiny();
        c.write_line(PhysAddr(0x40), 0, [9u8; 64]);
        c.invalidate_line(PhysAddr(0x40));
        assert!(!c.contains(PhysAddr(0x40)));
        // A subsequent read refills from "DRAM" (the fill closure).
        let (d, ev) = c.read_line(PhysAddr(0x40), 0, |_| [1u8; 64]);
        assert!(!ev.hit);
        assert_eq!(d, [1u8; 64]);
    }

    #[test]
    fn miss_rate_sampling_window() {
        let mut c = tiny();
        // 16 accesses (the window): 8 misses, 8 hits.
        for i in 0..8u64 {
            let _ = c.read_line(PhysAddr(i * 64), 0, |_| [0u8; 64]);
        }
        for i in 0..8u64 {
            let _ = c.read_line(PhysAddr(i * 64), 0, |_| panic!());
        }
        assert!((c.sampled_miss_rate() - 0.5).abs() < 1e-9);
        assert!((c.stats().miss_rate() - 0.5).abs() < 1e-9);
    }

    #[test]
    #[should_panic(expected = "empty way mask")]
    fn zero_mask_rejected() {
        tiny().set_way_mask(0, 0);
    }

    #[test]
    fn validate_names_each_degenerate_geometry() {
        let ok = CacheConfig::kb(64, 8);
        assert_eq!(ok.validate(), Ok(()));
        let cases = [
            (CacheConfig { ways: 0, ..ok }, "1..=64 ways"),
            (CacheConfig { ways: 65, ..ok }, "1..=64 ways"),
            (CacheConfig::kb(1, 32), "cache too small for its ways"),
            (
                CacheConfig { ddio_ways: 0, ..ok },
                "ddio_ways outside 1..=ways",
            ),
            (
                CacheConfig { ddio_ways: 9, ..ok },
                "ddio_ways outside 1..=ways",
            ),
            (
                CacheConfig {
                    sample_window: 0,
                    ..ok
                },
                "sample_window must be >= 1",
            ),
        ];
        for (cfg, why) in cases {
            assert_eq!(cfg.validate(), Err(why), "{cfg:?}");
        }
        // The widest geometry builds: all 64 ways open to DDIO too.
        let wide = Llc::new(CacheConfig {
            ddio_ways: 64,
            ..CacheConfig::kb(64, 64)
        });
        assert_eq!(wide.config().ways, 64);
    }

    #[test]
    fn page_residency_index_tracks_contents() {
        let mut c = tiny();
        let check = |c: &Llc| {
            // The index must agree with a brute-force per-line count for
            // every page the 2 KiB geometry can hold (tags wrap quickly,
            // so scan a generous window of pages).
            for page in 0u64..64 {
                let naive = (0..64u64)
                    .filter(|i| c.contains(PhysAddr((page << 12) + i * 64)))
                    .count() as u32;
                assert_eq!(
                    c.resident_lines_in_page(page),
                    naive,
                    "page {page} index vs scan"
                );
            }
        };
        check(&c);
        // Fill far beyond capacity to force evictions of both kinds.
        for i in 0..200u64 {
            if i % 3 == 0 {
                c.write_line(PhysAddr(i * 64), 0, [i as u8; 64]);
            } else {
                c.read_line(PhysAddr(i * 64), 0, |_| [0u8; 64]);
            }
        }
        check(&c);
        // Explicit flushes and invalidates.
        for i in (0..200u64).step_by(2) {
            c.flush_line(PhysAddr(i * 64));
        }
        for i in (1..200u64).step_by(7) {
            c.invalidate_line(PhysAddr(i * 64));
        }
        check(&c);
        assert_eq!(
            c.resident_lines() as u32,
            (0u64..64).map(|p| c.resident_lines_in_page(p)).sum::<u32>(),
            "index totals must match global resident count"
        );
    }

    proptest! {
        #[test]
        fn prop_probe_matches_find_then_victimize(
            ops in proptest::collection::vec((0u64..48, 0u8..5, 0usize..3), 1..200),
        ) {
            // Reads, writes, DDIO writes, flushes and invalidates over 48
            // lines of an 8-set, 4-way cache (6 tags per set), by class 0
            // (all ways), class 1 (way 2 only) and the DDIO class (ways 0
            // and 1). Flushed and invalidated ways keep a stale
            // `last_use`. After every op, every line and class must probe
            // alike both ways.
            let classes = [0, 1, DDIO_CLASS];
            let mut c = tiny();
            c.set_way_mask(1, 0b0100);
            for (line, op, class) in ops {
                let addr = PhysAddr(line * 64);
                let class = classes[class];
                match op {
                    0 => {
                        c.read_line(addr, class, |_| [line as u8; 64]);
                    }
                    1 => {
                        c.write_line(addr, class, [op; 64]);
                    }
                    2 => {
                        c.dev_write_line(addr, [op; 64]);
                    }
                    3 => {
                        c.flush_line(addr);
                    }
                    _ => c.invalidate_line(addr),
                }
                for probe in (0..48u64).map(|l| PhysAddr(l * 64)) {
                    for class in classes {
                        prop_assert_eq!(
                            c.probe_line(probe, class),
                            c.probe_line_two_pass(probe, class)
                        );
                    }
                }
            }
        }

        #[test]
        fn prop_cache_is_coherent_with_memory_oracle(
            ops in proptest::collection::vec((0u64..64, any::<bool>(), any::<u8>()), 1..300),
        ) {
            // Oracle: a flat memory array. The cache + writeback protocol
            // must always return what the oracle holds.
            let mut oracle = vec![[0u8; 64]; 64];
            let mut backing = vec![[0u8; 64]; 64]; // "DRAM"
            let mut c = tiny();
            for (line, is_write, val) in ops {
                let addr = PhysAddr(line * 64);
                if is_write {
                    oracle[line as usize] = [val; 64];
                    let ev = c.write_line(addr, 0, [val; 64]);
                    if let Some(wb) = ev.writeback {
                        backing[(wb.addr.0 / 64) as usize] = wb.data;
                    }
                } else {
                    let (data, ev) = c.read_line(addr, 0, |a| backing[(a.0 / 64) as usize]);
                    if let Some(wb) = ev.writeback {
                        backing[(wb.addr.0 / 64) as usize] = wb.data;
                    }
                    prop_assert_eq!(data, oracle[line as usize]);
                }
            }
        }
    }
}
