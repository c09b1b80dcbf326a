//! The Translation Table (§IV-C): physical page number → offload state.
//!
//! A CAM would match page numbers in one cycle but is too power-hungry
//! for a DIMM buffer device, so the paper uses a **3-ary cuckoo hash
//! table** sized 3× the required entries (12 K for 2 × 2048 pages),
//! keeping occupancy below 33 % where insertions almost never displace
//! and effectively never fail. An **8-entry CAM stash** absorbs
//! insertions immediately so cuckoo displacement chains run off the
//! critical path.
//!
//! This module reproduces those structures and exposes displacement /
//! failure statistics for the §IV-C ablation.
//!
//! Host-side only, the table also keeps a count of live entries per
//! low 12 bits of the page number, so the lookup every DDR CAS makes
//! answers an unmapped page, the common case, from one small array
//! without touching the three cold cuckoo slots. The filter is exact
//! (a zero count means absent), costs no simulated time and changes no
//! statistic.

/// What a translated page maps to.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Mapping {
    /// A registered source page: data read from it feeds the DSA of
    /// `offload`, covering message bytes starting at `msg_offset`.
    Source {
        /// Offload this page belongs to.
        offload: u64,
        /// Byte offset of this page within the offload's message.
        msg_offset: usize,
    },
    /// A registered destination page: DSA results for it are staged in
    /// Scratchpad page `scratch_page`.
    Dest {
        /// Offload this page belongs to.
        offload: u64,
        /// Byte offset of this page within the offload's output.
        msg_offset: usize,
        /// Scratchpad page index staging the results.
        scratch_page: usize,
    },
}

#[derive(Debug, Clone, Copy)]
struct Entry {
    page: u64,
    mapping: Mapping,
}

/// Insertion/lookup statistics for the ablation study.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct XlatStats {
    /// Successful insertions.
    pub inserts: u64,
    /// Insertions that landed in an empty slot on the first try.
    pub first_try: u64,
    /// Total cuckoo displacements performed.
    pub displacements: u64,
    /// Insertions that had to sit in the CAM stash.
    pub stash_spills: u64,
    /// Insertions that failed outright (table and stash full).
    pub failures: u64,
    /// Lookups served.
    pub lookups: u64,
}

/// The 3-ary cuckoo translation table with CAM stash.
///
/// # Example
///
/// ```
/// use smartdimm::xlat::{Mapping, TranslationTable};
/// let mut t = TranslationTable::new(12288, 8);
/// t.insert(42, Mapping::Source { offload: 1, msg_offset: 0 }).unwrap();
/// assert!(matches!(t.lookup(42), Some(Mapping::Source { offload: 1, .. })));
/// assert_eq!(t.lookup(43), None);
/// ```
#[derive(Debug, Clone)]
pub struct TranslationTable {
    slots: Vec<Option<Entry>>,
    /// Live count of filled cuckoo slots, so `len`/`occupancy` are O(1).
    occupied: usize,
    stash: Vec<Entry>,
    stash_capacity: usize,
    stats: XlatStats,
    max_kicks: usize,
    /// Live entries (cuckoo + stash) per filter bucket, the page
    /// number's low bits: zero means no entry for any page there.
    live: Box<[u32; FILTER_BUCKETS]>,
}

/// Buckets of the negative filter in front of the cuckoo probe (16 KB
/// of counts per table).
const FILTER_BUCKETS: usize = 1 << 12;

/// The filter bucket of `page`.
fn bucket(page: u64) -> usize {
    (page & (FILTER_BUCKETS as u64 - 1)) as usize
}

/// Error returned when an insertion cannot be placed.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TableFull;

impl std::fmt::Display for TableFull {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "translation table and CAM stash are full")
    }
}

impl std::error::Error for TableFull {}

impl TranslationTable {
    /// Creates a table with `capacity` cuckoo slots (paper: 12288) and a
    /// CAM stash of `stash_capacity` entries (paper: 8).
    ///
    /// # Panics
    ///
    /// Panics if `capacity < 3` (three hash ways need three slots).
    pub fn new(capacity: usize, stash_capacity: usize) -> TranslationTable {
        assert!(capacity >= 3, "cuckoo table needs at least 3 slots");
        TranslationTable {
            slots: vec![None; capacity],
            occupied: 0,
            stash: Vec::with_capacity(stash_capacity),
            stash_capacity,
            stats: XlatStats::default(),
            max_kicks: 32,
            live: Box::new([0; FILTER_BUCKETS]),
        }
    }

    /// Statistics snapshot.
    pub fn stats(&self) -> XlatStats {
        self.stats
    }

    /// Number of live entries (cuckoo + stash).
    pub fn len(&self) -> usize {
        self.occupied + self.stash.len()
    }

    /// Whether the table holds no entries.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Occupancy fraction of the cuckoo array.
    pub fn occupancy(&self) -> f64 {
        self.occupied as f64 / self.slots.len() as f64
    }

    /// Every mapped page number (cuckoo + stash), in unspecified order.
    /// Used by the differential oracle to diagnose leaked entries.
    pub fn pages(&self) -> Vec<u64> {
        self.slots
            .iter()
            .flatten()
            .map(|e| e.page)
            .chain(self.stash.iter().map(|e| e.page))
            .collect()
    }

    fn hash(&self, page: u64, way: usize) -> usize {
        // Three independent mix functions (SplitMix-style finalizers with
        // different constants), reduced onto the slot array.
        const C: [(u64, u64); 3] = [
            (0xBF58_476D_1CE4_E5B9, 0x94D0_49BB_1331_11EB),
            (0xFF51_AFD7_ED55_8CCD, 0xC4CE_B9FE_1A85_EC53),
            (0x9E37_79B9_7F4A_7C15, 0xD6E8_FEB8_6659_FD93),
        ];
        let (c1, c2) = C[way];
        let mut z = page.wrapping_add(c2.rotate_left(way as u32));
        z = (z ^ (z >> 30)).wrapping_mul(c1);
        z = (z ^ (z >> 27)).wrapping_mul(c2);
        z ^= z >> 31;
        (z % self.slots.len() as u64) as usize
    }

    /// Looks up a page (checks the CAM stash first, as hardware would in
    /// parallel).
    pub fn lookup(&mut self, page: u64) -> Option<Mapping> {
        self.stats.lookups += 1;
        self.peek(page)
    }

    /// Read-only lookup (no stats side effects).
    pub fn peek(&self, page: u64) -> Option<Mapping> {
        if self.live.get(bucket(page)).is_some_and(|&n| n == 0) {
            return None;
        }
        self.peek_unfiltered(page)
    }

    /// [`TranslationTable::peek`] without the negative filter: the CAM
    /// stash, then all three cuckoo ways. Kept as the filter's oracle and
    /// the `before` side of the `xlat_unmapped_lookup` hot-path row.
    pub fn peek_unfiltered(&self, page: u64) -> Option<Mapping> {
        if let Some(e) = self.stash.iter().find(|e| e.page == page) {
            return Some(e.mapping);
        }
        for way in 0..3 {
            let idx = self.hash(page, way);
            if let Some(e) = &self.slots[idx] {
                if e.page == page {
                    return Some(e.mapping);
                }
            }
        }
        None
    }

    /// Inserts or replaces the mapping for `page`.
    ///
    /// # Errors
    ///
    /// Returns [`TableFull`] if the displacement budget is exhausted and
    /// the CAM stash is full — effectively impossible below 33 %
    /// occupancy, which the §IV-C ablation demonstrates.
    pub fn insert(&mut self, page: u64, mapping: Mapping) -> Result<(), TableFull> {
        // Replace an existing entry in place.
        if let Some(e) = self.stash.iter_mut().find(|e| e.page == page) {
            e.mapping = mapping;
            self.stats.inserts += 1;
            self.stats.first_try += 1;
            return Ok(());
        }
        for way in 0..3 {
            let idx = self.hash(page, way);
            if let Some(e) = &mut self.slots[idx] {
                if e.page == page {
                    e.mapping = mapping;
                    self.stats.inserts += 1;
                    self.stats.first_try += 1;
                    return Ok(());
                }
            }
        }
        self.place(page, mapping)?;
        if let Some(n) = self.live.get_mut(bucket(page)) {
            *n += 1;
        }
        Ok(())
    }

    /// Places `page`, which has no entry yet: an empty way, else a
    /// cuckoo displacement chain, else the CAM stash.
    fn place(&mut self, page: u64, mapping: Mapping) -> Result<(), TableFull> {
        // Try an empty way.
        for way in 0..3 {
            let idx = self.hash(page, way);
            if self.slots[idx].is_none() {
                self.slots[idx] = Some(Entry { page, mapping });
                self.occupied += 1;
                self.stats.inserts += 1;
                if way == 0 {
                    self.stats.first_try += 1;
                }
                return Ok(());
            }
        }
        // Cuckoo displacement chain. Each step is recorded so a failed
        // insertion can unwind: without the unwind, failure would leave
        // the new entry resident and silently drop the final evicted
        // victim — corrupting the table exactly when it is under the most
        // pressure.
        let mut chain: Vec<(usize, Entry)> = Vec::new();
        let mut cur = Entry { page, mapping };
        let mut way = 0usize;
        for kick in 0..self.max_kicks {
            let idx = self.hash(cur.page, way);
            let Some(evicted) = self.slots[idx].replace(cur) else {
                // The slot was free after all (cannot happen after the
                // empty-way scan above, but an empty slot just absorbed
                // the entry either way): the insert is complete.
                self.occupied += 1;
                self.stats.inserts += 1;
                return Ok(());
            };
            self.stats.displacements += 1;
            chain.push((idx, evicted));
            cur = evicted;
            // Find an empty way for the evicted entry.
            let mut placed = false;
            for w in 0..3 {
                let i = self.hash(cur.page, w);
                if self.slots[i].is_none() {
                    self.slots[i] = Some(cur);
                    self.occupied += 1;
                    placed = true;
                    break;
                }
            }
            if placed {
                self.stats.inserts += 1;
                return Ok(());
            }
            way = (way + 1 + kick) % 3;
        }
        // Displacement budget exhausted: stash in the CAM.
        if self.stash.len() < self.stash_capacity {
            self.stash.push(cur);
            self.stats.inserts += 1;
            self.stats.stash_spills += 1;
            Ok(())
        } else {
            // Unwind the displacement chain so failure is atomic: every
            // pre-existing entry returns to its slot and the would-be new
            // entry is the only one left out. Every chain slot stays
            // filled throughout, so `occupied` is unchanged.
            for (idx, evicted) in chain.into_iter().rev() {
                self.slots[idx] = Some(evicted);
            }
            self.stats.failures += 1;
            Err(TableFull)
        }
    }

    /// Removes the mapping for `page`, returning it if present.
    pub fn remove(&mut self, page: u64) -> Option<Mapping> {
        let mapping = self.take(page)?;
        if let Some(n) = self.live.get_mut(bucket(page)) {
            *n -= 1;
        }
        Some(mapping)
    }

    /// Takes `page`'s entry out of the stash or its cuckoo slot.
    fn take(&mut self, page: u64) -> Option<Mapping> {
        if let Some(pos) = self.stash.iter().position(|e| e.page == page) {
            return Some(self.stash.swap_remove(pos).mapping);
        }
        for way in 0..3 {
            let idx = self.hash(page, way);
            if self.slots[idx].map(|e| e.page) == Some(page) {
                self.occupied -= 1;
                return self.slots[idx].take().map(|e| e.mapping);
            }
        }
        None
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    fn src(o: u64) -> Mapping {
        Mapping::Source {
            offload: o,
            msg_offset: 0,
        }
    }

    /// Checks the O(1) counts and every filter bucket against a full
    /// scan of the slots and the stash.
    fn assert_counts_match_scan(t: &TranslationTable) {
        let filled = t.slots.iter().filter(|s| s.is_some()).count();
        assert_eq!(t.len(), filled + t.stash.len());
        assert_eq!(t.occupancy(), filled as f64 / t.slots.len() as f64);
        assert_eq!(t.is_empty(), filled + t.stash.len() == 0);
        let mut live = [0u32; FILTER_BUCKETS];
        for page in t.pages() {
            live[bucket(page)] += 1;
        }
        assert!(*t.live == live, "filter counts differ from a slot scan");
    }

    /// One table shape per case: (cuckoo slots, stash entries). The
    /// small ones kick, spill and fail.
    const SHAPES: [(usize, usize); 4] = [(3, 0), (12, 2), (24, 1), (1024, 8)];

    #[test]
    fn live_count_survives_kicks_spills_and_unwinds() {
        // Stash-less and tiny tables fill until inserts kick, spill and
        // fail (the unwind path); removals then drain them.
        for (slots, stash) in [(3, 0), (9, 0), (12, 2), (3, 8)] {
            let mut t = TranslationTable::new(slots, stash);
            for page in 0..40u64 {
                let _ = t.insert(page, src(page));
                assert_counts_match_scan(&t);
            }
            let s = t.stats();
            assert!(
                s.failures > 0 && s.displacements > 0,
                "{slots}/{stash}: {s:?}"
            );
            assert_eq!(s.stash_spills > 0, stash > 0, "{slots}/{stash}");
            for page in (0..40u64).rev() {
                t.remove(page);
                assert_counts_match_scan(&t);
            }
            assert!(t.is_empty());
        }
    }

    #[test]
    fn filter_rejects_only_empty_buckets() {
        // Pages 4096 apart share a bucket: the filter passes a miss in a
        // live bucket on to the cuckoo probe, and a removal empties the
        // bucket only with its last entry.
        let mut t = TranslationTable::new(64, 8);
        t.insert(5, src(1)).unwrap();
        t.insert(5 + 4096, src(2)).unwrap();
        assert_eq!(t.lookup(5 + 2 * 4096), None);
        assert_eq!(t.lookup(5 + 4096), Some(src(2)));
        t.remove(5);
        assert_eq!(t.peek(5 + 4096), Some(src(2)));
        t.remove(5 + 4096);
        assert_eq!(t.live[bucket(5)], 0);
        assert_eq!(t.lookup(5), None);
        // Every lookup counts, the filtered ones included.
        assert_eq!(t.stats().lookups, 3);
    }

    #[test]
    fn insert_lookup_remove() {
        let mut t = TranslationTable::new(64, 8);
        t.insert(100, src(1)).unwrap();
        assert_eq!(t.lookup(100), Some(src(1)));
        assert_eq!(t.remove(100), Some(src(1)));
        assert_eq!(t.lookup(100), None);
        assert!(t.is_empty());
    }

    #[test]
    fn replace_in_place() {
        let mut t = TranslationTable::new(64, 8);
        t.insert(7, src(1)).unwrap();
        t.insert(7, src(2)).unwrap();
        assert_eq!(t.lookup(7), Some(src(2)));
        assert_eq!(t.len(), 1);
    }

    #[test]
    fn low_occupancy_insertions_rarely_displace() {
        // Paper's configuration: 12288 slots, fill to 33% (4096 entries).
        let mut t = TranslationTable::new(12288, 8);
        for page in 0..4096u64 {
            t.insert(page, src(page)).unwrap();
        }
        let s = t.stats();
        assert_eq!(s.failures, 0);
        // Below 33% occupancy, the displacement rate is tiny.
        let disp_rate = s.displacements as f64 / s.inserts as f64;
        assert!(disp_rate < 0.05, "displacement rate {disp_rate}");
        assert!(t.occupancy() <= 0.34);
        // Everything is still findable.
        for page in 0..4096u64 {
            assert_eq!(t.peek(page), Some(src(page)), "page {page}");
        }
    }

    #[test]
    fn high_occupancy_eventually_fails() {
        let mut t = TranslationTable::new(12, 2);
        let mut failed = false;
        for page in 0..20u64 {
            if t.insert(page, src(page)).is_err() {
                failed = true;
                break;
            }
        }
        assert!(
            failed,
            "a 12-slot table + 2-entry stash cannot hold 20 entries"
        );
        assert!(t.stats().failures > 0);
    }

    #[test]
    fn stash_absorbs_collisions() {
        let mut t = TranslationTable::new(3, 8);
        // Only 3 slots: the 4th..11th insertions must use the stash.
        for page in 0..10u64 {
            t.insert(page, src(page)).unwrap();
        }
        assert!(t.stats().stash_spills > 0);
        for page in 0..10u64 {
            assert_eq!(t.peek(page), Some(src(page)));
        }
    }

    #[test]
    fn dest_mapping_round_trips() {
        let mut t = TranslationTable::new(64, 8);
        let m = Mapping::Dest {
            offload: 9,
            msg_offset: 4096,
            scratch_page: 17,
        };
        t.insert(55, m).unwrap();
        assert_eq!(t.lookup(55), Some(m));
    }

    proptest! {
        #[test]
        fn prop_live_count_equals_slot_scan(
            shape in 0usize..4,
            ops in proptest::collection::vec((0u64..48, 0u64..3), 1..300),
        ) {
            // Insert (op 0), replace under a new mapping (op 1), remove
            // (op 2); small shapes kick, spill and fail.
            let (slots, stash) = SHAPES[shape];
            let mut t = TranslationTable::new(slots, stash);
            for (page, op) in ops {
                match op {
                    0 => { let _ = t.insert(page, src(page)); }
                    1 => { let _ = t.insert(page, src(page + 1)); }
                    _ => { t.remove(page); }
                }
                assert_counts_match_scan(&t);
            }
        }

        #[test]
        fn prop_model_equivalence(
            shape in 0usize..4,
            ops in proptest::collection::vec((0u64..128, 0u64..3), 1..400),
        ) {
            // Against a HashMap oracle: insert (op 0), remove (op 1),
            // lookup (op 2). Pages 4096 apart share a filter bucket, so
            // every page shares its bucket with one other.
            use std::collections::HashMap;
            let (slots, stash) = SHAPES[shape];
            let mut t = TranslationTable::new(slots, stash);
            let mut oracle: HashMap<u64, Mapping> = HashMap::new();
            for (key, op) in ops {
                let page = (key & 63) + (key >> 6) * 4096;
                match op {
                    0 => {
                        let m = src(page * 3);
                        if t.insert(page, m).is_ok() {
                            oracle.insert(page, m);
                        }
                    }
                    1 => {
                        prop_assert_eq!(t.remove(page), oracle.remove(&page));
                    }
                    _ => {
                        prop_assert_eq!(t.lookup(page), oracle.get(&page).copied());
                    }
                }
                assert_counts_match_scan(&t);
                for probe in (0..128u64).map(|k| (k & 63) + (k >> 6) * 4096) {
                    let want = oracle.get(&probe).copied();
                    prop_assert_eq!(t.peek(probe), want);
                    prop_assert_eq!(t.peek_unfiltered(probe), want);
                }
            }
        }
    }
}
