//! The Scratchpad (§IV-B, §IV-C): on-buffer-device SRAM that stages DSA
//! results until they are recycled into DRAM.
//!
//! The CPU memory controller owns SmartDIMM's DRAM, so the DSA can never
//! write DRAM directly; results wait in the Scratchpad. Each 4 KB page is
//! allocated to one destination page of an offload; individual 64-byte
//! lines become *valid* as the DSA computes them and are *invalidated*
//! when a wrCAS to the corresponding DRAM address is intercepted and the
//! staged line substituted (Self-Recycle). When every valid line of a
//! page has been recycled, the page frees itself.

use simkit::{Cycle, TimeSeries};

use crate::LINES_PER_PAGE;

/// Per-line state within an allocated Scratchpad page.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum LineState {
    /// The DSA has not produced this line yet (read → ALERT_N retry,
    /// writeback → ignored).
    Pending,
    /// The DSA result is staged and waiting to be recycled.
    Valid,
    /// The line was recycled to DRAM (or was never part of the output).
    Done,
}

/// One staged line: its data and the cycle it was produced at, for
/// the rdCAS→wrCAS slack (`None` for lines staged without a DSA, e.g.
/// injected hogs).
type Staged = ([u8; 64], Option<Cycle>);

#[derive(Debug, Clone)]
struct Page {
    /// Destination physical page this allocation serves.
    dst_page: u64,
    lines: [LineState; LINES_PER_PAGE],
    /// The lines `alloc` expected; the `k`-th of them, in line order,
    /// is staged at `staged[k]`.
    alloc_mask: u64,
    /// The staged lines: only those of `alloc_mask` (a quarter of the
    /// page per shard under 4-way fine interleave), and only up to the
    /// last one produced (a compressed page fills a prefix). The
    /// buffer belongs to the page slot: it comes from
    /// `Scratchpad::spare` and goes back there when the page frees, so
    /// a slot allocates only when a page stages further into it than
    /// any before. A line is read only after `produce` wrote its data
    /// and stamp, so nothing in it is ever reset.
    staged: Vec<Staged>,
    /// Bitmask of lines that must eventually be produced and recycled.
    /// Under memory-channel interleaving this is a strided subset of the
    /// page — each DIMM stages only its own channel's cachelines (§V-D).
    expected_mask: u64,
    recycled: usize,
}

impl Page {
    /// Where `line` sits in `staged`: how many allocated lines precede it.
    fn slot(&self, line: usize) -> usize {
        let below = 1u64
            .checked_shl(line as u32)
            .map_or(u64::MAX, |bit| bit - 1);
        (self.alloc_mask & below).count_ones() as usize
    }

    /// The data and stamp `produce` staged for `line`. It accepts only
    /// expected lines, a subset of `alloc_mask`, so the entry exists.
    fn staged(&self, line: usize) -> Staged {
        let slot = self.slot(line);
        self.staged.get(slot).copied().unwrap_or(([0u8; 64], None))
    }

    fn expected_count(&self) -> usize {
        self.expected_mask.count_ones() as usize
    }

    fn expects(&self, line: usize) -> bool {
        self.expected_mask & (1u64 << line) != 0
    }
}

/// Bitmask covering the first `n` lines of a page.
pub fn prefix_mask(n: usize) -> u64 {
    assert!(n <= LINES_PER_PAGE);
    if n == LINES_PER_PAGE {
        u64::MAX
    } else {
        (1u64 << n) - 1
    }
}

/// Scratchpad statistics.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ScratchpadStats {
    /// Pages allocated over the lifetime.
    pub allocs: u64,
    /// Pages freed after full recycling.
    pub frees: u64,
    /// Lines recycled by LLC writebacks (Self-Recycle).
    pub self_recycled_lines: u64,
    /// Peak occupancy in bytes.
    pub peak_bytes: usize,
}

/// The Scratchpad SRAM.
pub struct Scratchpad {
    pages: Vec<Option<Page>>,
    /// The parked `staged` buffer of each free page slot, indexed by
    /// slot and only as long as the highest slot ever freed: the free
    /// list hands out low slots first, so a scratchpad of 2048 pages
    /// that never holds more than a few at once keeps a few entries.
    spare: Vec<Vec<Staged>>,
    free_list: Vec<usize>,
    stats: ScratchpadStats,
    occupancy: TimeSeries,
    in_use_lines: usize,
}

impl std::fmt::Debug for Scratchpad {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Scratchpad")
            .field("pages", &self.pages.len())
            .field("free", &self.free_list.len())
            .finish()
    }
}

impl Scratchpad {
    /// Creates a scratchpad of `pages` 4 KB pages (paper: 2048 = 8 MB).
    ///
    /// # Panics
    ///
    /// Panics if `pages` is zero.
    pub fn new(pages: usize) -> Scratchpad {
        assert!(pages > 0, "scratchpad needs at least one page");
        Scratchpad {
            pages: (0..pages).map(|_| None).collect(),
            spare: Vec::new(),
            free_list: (0..pages).rev().collect(),
            stats: ScratchpadStats::default(),
            occupancy: TimeSeries::new("scratchpad.bytes"),
            in_use_lines: 0,
        }
    }

    /// Currently free pages — the value `SmartDIMMConfig[0]` reports to
    /// CompCpy's lazy `freePages` refresh.
    pub fn free_pages(&self) -> usize {
        self.free_list.len()
    }

    /// Pages currently allocated (pending recycling) with their
    /// destination physical pages — Algorithm 1's pending list.
    pub fn pending_pages(&self) -> Vec<(usize, u64)> {
        self.pages
            .iter()
            .enumerate()
            .filter_map(|(i, p)| p.as_ref().map(|p| (i, p.dst_page)))
            .collect()
    }

    /// Statistics snapshot.
    pub fn stats(&self) -> ScratchpadStats {
        self.stats
    }

    /// Occupancy time series (bytes in use), for Fig. 10.
    pub fn occupancy_series(&self) -> &TimeSeries {
        &self.occupancy
    }

    /// Current occupancy in bytes (valid + pending lines).
    pub fn occupied_bytes(&self) -> usize {
        self.in_use_lines * 64
    }

    fn sample(&mut self, at: Cycle) {
        let bytes = self.occupied_bytes();
        if bytes > self.stats.peak_bytes {
            self.stats.peak_bytes = bytes;
        }
        // Time may not advance between consecutive events; TimeSeries
        // requires monotonic stamps, which Cycle equality satisfies.
        if self.occupancy.last().map(|(t, _)| t <= at).unwrap_or(true) {
            self.occupancy.record(at, bytes as f64);
        }
    }

    /// Allocates a page for destination physical page `dst_page`,
    /// expecting the lines set in `expected_mask` to eventually be
    /// produced and recycled. Returns the scratchpad page index, or
    /// `None` if full (the condition that triggers Force-Recycle).
    pub fn alloc(&mut self, at: Cycle, dst_page: u64, expected_mask: u64) -> Option<usize> {
        assert!(expected_mask != 0, "allocation with no expected lines");
        let idx = self.free_list.pop()?;
        let mut lines = [LineState::Done; LINES_PER_PAGE];
        for (i, l) in lines.iter_mut().enumerate() {
            if expected_mask & (1u64 << i) != 0 {
                *l = LineState::Pending;
            }
        }
        let staged = self
            .spare
            .get_mut(idx)
            .map(std::mem::take)
            .unwrap_or_default();
        self.pages[idx] = Some(Page {
            dst_page,
            lines,
            alloc_mask: expected_mask,
            staged,
            expected_mask,
            recycled: 0,
        });
        self.in_use_lines += expected_mask.count_ones() as usize;
        self.stats.allocs += 1;
        self.sample(at);
        Some(idx)
    }

    /// Shrinks the set of lines an allocation will produce — used by the
    /// Deflate DSA once the compressed size is known (it registered the
    /// full page because the output size was not predetermined, §V-C).
    /// Lines leaving the mask become `Done` immediately.
    ///
    /// # Panics
    ///
    /// Panics if the page is unallocated, `new_mask` is not a subset of
    /// the current mask, or a trimmed line is already valid.
    pub fn set_expected(&mut self, at: Cycle, page: usize, new_mask: u64) {
        // simlint: allow(PANIC-REACH): documented "# Panics" contract, handles only come from alloc()
        let p = self.pages[page].as_mut().expect("allocated page");
        assert_eq!(
            new_mask & !p.expected_mask,
            0,
            "expected lines can only shrink"
        );
        let trimmed_mask = p.expected_mask & !new_mask;
        for i in 0..LINES_PER_PAGE {
            if trimmed_mask & (1u64 << i) != 0 {
                assert_ne!(p.lines[i], LineState::Valid, "trimming a valid line");
                p.lines[i] = LineState::Done;
            }
        }
        p.expected_mask = new_mask;
        self.in_use_lines -= trimmed_mask.count_ones() as usize;
        self.sample(at);
        if self.maybe_free(page) {
            self.sample(at);
        }
    }

    /// Stores a DSA result line, marking it valid and stamping it with
    /// the cycle it was produced at (`None` for a line no DSA produced).
    ///
    /// # Panics
    ///
    /// Panics if the page is unallocated, the line is out of the expected
    /// range, or the line was already produced.
    pub fn produce(&mut self, page: usize, line: usize, data: [u8; 64], at: Option<Cycle>) {
        // simlint: allow(PANIC-REACH): documented "# Panics" contract, handles only come from alloc()
        let p = self.pages[page].as_mut().expect("allocated page");
        assert!(p.expects(line), "line beyond expected output");
        assert_eq!(p.lines[line], LineState::Pending, "line already produced");
        p.lines[line] = LineState::Valid;
        let slot = p.slot(line);
        if p.staged.len() <= slot {
            p.staged.resize(slot + 1, ([0u8; 64], None));
        }
        if let Some(staged) = p.staged.get_mut(slot) {
            *staged = (data, at);
        }
    }

    /// State of a line in an allocated page.
    pub fn line_state(&self, page: usize, line: usize) -> LineState {
        match &self.pages[page] {
            Some(p) => p.lines[line],
            None => LineState::Done,
        }
    }

    /// Reads a valid line (S10 in Fig. 6: serving a dbuf read from the
    /// Scratchpad).
    ///
    /// # Panics
    ///
    /// Panics if the line is not valid.
    pub fn read(&self, page: usize, line: usize) -> [u8; 64] {
        // simlint: allow(PANIC-REACH): documented "# Panics" contract, handles only come from alloc()
        let p = self.pages[page].as_ref().expect("allocated page");
        assert_eq!(p.lines[line], LineState::Valid, "reading a non-valid line");
        p.staged(line).0
    }

    /// Recycles a valid line and marks it done. Returns the staged data
    /// (to substitute into the wrCAS), the cycle it was produced at, and
    /// whether the whole page was freed.
    ///
    /// # Panics
    ///
    /// Panics if the line is not valid.
    pub fn recycle(
        &mut self,
        at: Cycle,
        page: usize,
        line: usize,
    ) -> ([u8; 64], Option<Cycle>, bool) {
        // simlint: allow(PANIC-REACH): documented "# Panics" contract, handles only come from alloc()
        let p = self.pages[page].as_mut().expect("allocated page");
        assert_eq!(p.lines[line], LineState::Valid, "recycling non-valid line");
        let (data, produced_at) = p.staged(line);
        p.lines[line] = LineState::Done;
        p.recycled += 1;
        self.in_use_lines -= 1;
        self.stats.self_recycled_lines += 1;
        let freed = self.maybe_free(page);
        self.sample(at);
        (data, produced_at, freed)
    }

    fn maybe_free(&mut self, page: usize) -> bool {
        let done = {
            // simlint: allow(PANIC-REACH): documented "# Panics" contract, handles only come from alloc()
            let p = self.pages[page].as_ref().expect("allocated page");
            p.recycled >= p.expected_count()
        };
        if done {
            self.release(page);
        }
        done
    }

    /// Returns an allocated slot to the free list, parking its buffers.
    fn release(&mut self, page: usize) {
        // simlint: allow(PANIC-REACH): documented "# Panics" contract, handles only come from alloc()
        let p = self.pages[page].take().expect("allocated page");
        if self.spare.len() <= page {
            self.spare.resize_with(page + 1, Vec::new);
        }
        if let Some(spare) = self.spare.get_mut(page) {
            *spare = p.staged;
        }
        self.free_list.push(page);
        self.stats.frees += 1;
    }

    /// Unconditionally frees an allocated page, discarding any staged
    /// lines. Used when a destination page is re-registered by a newer
    /// offload before the old one fully recycled (the old staging is
    /// superseded).
    ///
    /// # Panics
    ///
    /// Panics if the page is not allocated.
    pub fn force_free(&mut self, at: Cycle, page: usize) {
        // simlint: allow(PANIC-REACH): documented "# Panics" contract, handles only come from alloc()
        let p = self.pages[page].as_ref().expect("allocated page");
        let live = (0..LINES_PER_PAGE)
            .filter(|&i| p.expects(i) && p.lines[i] != LineState::Done)
            .count();
        self.in_use_lines -= live;
        self.release(page);
        self.sample(at);
    }

    /// Lines of `page` that are still valid (produced but not recycled) —
    /// the addresses Force-Recycle must issue write-requests for.
    pub fn valid_lines(&self, page: usize) -> Vec<usize> {
        match &self.pages[page] {
            Some(p) => (0..LINES_PER_PAGE)
                .filter(|&i| p.lines[i] == LineState::Valid)
                .collect(),
            None => Vec::new(),
        }
    }

    /// Lines of `page` still pending DSA output.
    pub fn pending_lines(&self, page: usize) -> usize {
        match &self.pages[page] {
            Some(p) => (0..LINES_PER_PAGE)
                .filter(|&i| p.lines[i] == LineState::Pending)
                .count(),
            None => 0,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn alloc_produce_recycle_frees_page() {
        let mut sp = Scratchpad::new(4);
        let at = Cycle(0);
        let page = sp.alloc(at, 0x1000, prefix_mask(2)).unwrap();
        assert_eq!(sp.free_pages(), 3);
        sp.produce(page, 0, [1u8; 64], Some(Cycle(3)));
        sp.produce(page, 1, [2u8; 64], None);
        let (d0, t0, freed) = sp.recycle(Cycle(10), page, 0);
        assert_eq!((d0, t0), ([1u8; 64], Some(Cycle(3))));
        assert!(!freed);
        let (d1, _, freed) = sp.recycle(Cycle(20), page, 1);
        assert_eq!(d1, [2u8; 64]);
        assert!(freed);
        assert_eq!(sp.free_pages(), 4);
        assert_eq!(sp.stats().frees, 1);
        assert_eq!(sp.stats().self_recycled_lines, 2);
    }

    #[test]
    fn alloc_exhaustion_returns_none() {
        let mut sp = Scratchpad::new(2);
        assert!(sp.alloc(Cycle(0), 1, prefix_mask(64)).is_some());
        assert!(sp.alloc(Cycle(0), 2, prefix_mask(64)).is_some());
        assert!(sp.alloc(Cycle(0), 3, prefix_mask(64)).is_none());
    }

    #[test]
    fn line_states_progress() {
        let mut sp = Scratchpad::new(1);
        let page = sp.alloc(Cycle(0), 7, prefix_mask(3)).unwrap();
        assert_eq!(sp.line_state(page, 0), LineState::Pending);
        sp.produce(page, 0, [9u8; 64], None);
        assert_eq!(sp.line_state(page, 0), LineState::Valid);
        assert_eq!(sp.read(page, 0), [9u8; 64]);
        let _ = sp.recycle(Cycle(1), page, 0);
        assert_eq!(sp.line_state(page, 0), LineState::Done);
    }

    #[test]
    fn set_expected_trims_and_frees() {
        let mut sp = Scratchpad::new(1);
        let page = sp.alloc(Cycle(0), 7, prefix_mask(64)).unwrap();
        sp.produce(page, 0, [1u8; 64], None);
        sp.produce(page, 1, [2u8; 64], None);
        // Compression finished: only 2 output lines.
        sp.set_expected(Cycle(5), page, prefix_mask(2));
        assert_eq!(sp.occupied_bytes(), 2 * 64);
        let _ = sp.recycle(Cycle(6), page, 0);
        let (_, _, freed) = sp.recycle(Cycle(7), page, 1);
        assert!(freed);
    }

    #[test]
    fn pending_and_valid_tracking() {
        let mut sp = Scratchpad::new(1);
        let page = sp.alloc(Cycle(0), 7, prefix_mask(4)).unwrap();
        assert_eq!(sp.pending_lines(page), 4);
        sp.produce(page, 2, [0u8; 64], None);
        assert_eq!(sp.pending_lines(page), 3);
        assert_eq!(sp.valid_lines(page), vec![2]);
        assert_eq!(sp.pending_pages(), vec![(page, 7)]);
    }

    #[test]
    fn occupancy_series_records_dynamics() {
        let mut sp = Scratchpad::new(8);
        let p = sp.alloc(Cycle(0), 1, prefix_mask(64)).unwrap();
        assert_eq!(sp.occupied_bytes(), 4096);
        for i in 0..64 {
            sp.produce(p, i, [0u8; 64], None);
        }
        for i in 0..64 {
            let _ = sp.recycle(Cycle(100 + i as u64), p, i);
        }
        assert_eq!(sp.occupied_bytes(), 0);
        assert!(sp.occupancy_series().len() >= 2);
        assert_eq!(sp.stats().peak_bytes, 4096);
        assert_eq!(sp.occupancy_series().last().unwrap().1, 0.0);
    }

    #[test]
    fn a_reused_slot_serves_only_what_its_new_page_produced() {
        let mut sp = Scratchpad::new(2);
        let page = sp.alloc(Cycle(0), 1, prefix_mask(2)).unwrap();
        sp.produce(page, 0, [1u8; 64], Some(Cycle(5)));
        sp.produce(page, 1, [2u8; 64], Some(Cycle(6)));
        sp.force_free(Cycle(7), page);
        // The freed slot is the next one handed out, buffers and all.
        let again = sp.alloc(Cycle(8), 2, prefix_mask(2)).unwrap();
        assert_eq!(again, page);
        assert_eq!(sp.pending_lines(again), 2);
        assert!(sp.valid_lines(again).is_empty());
        sp.produce(again, 1, [3u8; 64], None);
        assert_eq!(sp.read(again, 1), [3u8; 64]);
        assert_eq!(sp.recycle(Cycle(9), again, 1), ([3u8; 64], None, false));
        assert_eq!(sp.stats().frees, 1);
    }

    #[test]
    fn sparse_masks_stage_every_line_in_place() {
        // A strided mask (one channel of a fine interleave), the whole
        // page, lone end lines and random masks; lines produced and
        // recycled in random order through slots whose buffers earlier
        // pages sized.
        let mut rng = simkit::DetRng::new(0x5EED);
        let mut sp = Scratchpad::new(2);
        let mut masks = vec![
            0x1111_1111_1111_1111u64 << 2,
            u64::MAX,
            1 << 63,
            0x8000_0000_0000_0001,
        ];
        masks.extend((0..20).map(|_| rng.next_u64() | 1));
        for (n, &mask) in masks.iter().enumerate() {
            let page = sp.alloc(Cycle(n as u64), n as u64, mask).unwrap();
            let mut lines: Vec<usize> = (0..64).filter(|l| mask & 1 << l != 0).collect();
            rng.shuffle(&mut lines);
            let line_data = |l: usize| [(n * 64 + l) as u8; 64];
            for &l in &lines {
                sp.produce(page, l, line_data(l), Some(Cycle(l as u64)));
            }
            rng.shuffle(&mut lines);
            for &l in &lines {
                assert_eq!(sp.read(page, l), line_data(l), "mask {mask:#x} line {l}");
                let (data, at, _) = sp.recycle(Cycle(100), page, l);
                assert_eq!((data, at), (line_data(l), Some(Cycle(l as u64))));
            }
            assert_eq!(sp.free_pages(), 2);
        }
    }

    #[test]
    #[should_panic(expected = "already produced")]
    fn double_produce_rejected() {
        let mut sp = Scratchpad::new(1);
        let page = sp.alloc(Cycle(0), 7, prefix_mask(2)).unwrap();
        sp.produce(page, 0, [0u8; 64], None);
        sp.produce(page, 0, [0u8; 64], None);
    }

    #[test]
    #[should_panic(expected = "non-valid")]
    fn recycle_pending_rejected() {
        let mut sp = Scratchpad::new(1);
        let page = sp.alloc(Cycle(0), 7, prefix_mask(2)).unwrap();
        let _ = sp.recycle(Cycle(0), page, 0);
    }
}
