//! The SmartDIMM Deflate DSA model (§V-B).
//!
//! A specialized adaptation of the fully pipelined FPGA compressor of
//! Fowers et al., with the paper's design choices:
//!
//! * data is consumed in 64-byte cachelines, one per buffer-device clock
//!   cycle, subdivided into *parallelization windows* (default 8 bytes)
//!   for the match-selection logic;
//! * the candidate store is an 8-bank Config-Memory array; when more
//!   lookups map to one bank in a cycle than it has ports, the excess
//!   candidates are *discarded* (best-effort matching);
//! * the hash table covers a 4 KB history window; inserting into an
//!   occupied slot replaces the oldest entry;
//! * match lengths are capped at twice the parallelization window (the
//!   width of the hardware comparator array), so enlarging the window
//!   marginally improves the compression ratio while the comparator and
//!   memory cost grows quadratically — exactly the trade-off §V-B
//!   describes;
//! * output uses fixed-Huffman encoding (no second pass over the data,
//!   deterministic latency) with a stored-block fallback so a page never
//!   expands past `input + 5` bytes;
//! * compression happens at 4 KB page granularity only; larger messages
//!   take one CompCpy call per page (§V-C).
//!
//! Every output page is a valid Deflate stream decodable by
//! [`crate::inflate`].

use crate::deflate::{encode_fixed_reference, encode_tokens, Strategy};
use crate::lz77::{Token, MAX_MATCH, MIN_MATCH};

/// Deflate-DSA configuration. Defaults mirror the paper's prototype.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct HwDeflateConfig {
    /// Parallelization window in bytes (paper: 8).
    pub window: usize,
    /// Number of Config-Memory banks (paper: 8).
    pub banks: usize,
    /// Hash-table slots per bank (paper: sized to cover a 4 KB window).
    pub entries_per_bank: usize,
    /// Read/write port pairs per bank and cycle (paper: 8); accesses
    /// beyond the port count in a cycle are dropped (best-effort).
    pub ports_per_bank: usize,
    /// History window in bytes (paper: 4 KB).
    pub history: usize,
}

impl Default for HwDeflateConfig {
    fn default() -> Self {
        HwDeflateConfig {
            window: 8,
            banks: 8,
            entries_per_bank: 512,
            ports_per_bank: 8,
            history: 4096,
        }
    }
}

impl HwDeflateConfig {
    /// Maximum match length the comparator array can confirm: twice the
    /// parallelization window, clamped to Deflate's limits.
    pub fn max_match(&self) -> usize {
        (self.window * 2).clamp(MIN_MATCH, MAX_MATCH)
    }

    /// Candidate-store size in bits, the §V-B "memory requirement" that
    /// grows with the window (wider comparators need wider candidate
    /// reads). Used by the area/power model and the window ablation.
    pub fn candidate_memory_bits(&self) -> usize {
        // Each slot stores a position tag (16 bits) plus the candidate
        // bytes the comparators need (2 * window bytes).
        self.banks * self.entries_per_bank * (16 + 16 * self.window)
    }
}

/// Counters exposed by the DSA model.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct HwStats {
    /// Cycles spent in the match pipeline (one per 64-byte cacheline).
    pub cycles: u64,
    /// Candidate lookups dropped because a bank ran out of read ports.
    pub lookups_dropped: u64,
    /// Hash-table inserts dropped because a bank ran out of write ports.
    pub inserts_dropped: u64,
    /// Matches emitted.
    pub matches_emitted: u64,
    /// Literals emitted.
    pub literals_emitted: u64,
    /// Pages that fell back to a stored block.
    pub stored_fallbacks: u64,
}

/// Result of compressing one 4 KB page.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PageResult {
    /// The Deflate stream for this page.
    pub data: Vec<u8>,
    /// Whether the fixed-Huffman encoding lost to the stored fallback.
    pub stored: bool,
    /// Buffer-device cycles consumed (deterministic: one per cacheline).
    pub cycles: u64,
}

/// The Deflate DSA: hardware-model compressor.
///
/// # Example
///
/// ```
/// use ulp_compress::hwmodel::HwCompressor;
/// use ulp_compress::inflate;
///
/// let mut dsa = HwCompressor::new(Default::default());
/// let page = b"near-memory processing near-memory processing!!!".repeat(20);
/// let result = dsa.compress_page(&page[..page.len().min(4096)]);
/// assert!(result.data.len() < page.len().min(4096));
/// assert_eq!(inflate::decompress(&result.data).unwrap(), &page[..page.len().min(4096)]);
/// ```
#[derive(Debug, Clone)]
pub struct HwCompressor {
    config: HwDeflateConfig,
    stats: HwStats,
}

const PAGE: usize = 4096;
const CACHELINE: usize = 64;

impl HwCompressor {
    /// Creates a compressor with the given configuration.
    ///
    /// # Panics
    ///
    /// Panics if any configuration field is zero.
    pub fn new(config: HwDeflateConfig) -> HwCompressor {
        assert!(config.window > 0, "window must be positive");
        assert!(config.banks > 0, "banks must be positive");
        assert!(config.entries_per_bank > 0, "entries must be positive");
        assert!(config.ports_per_bank > 0, "ports must be positive");
        assert!(config.history >= config.max_match(), "history too small");
        HwCompressor {
            config,
            stats: HwStats::default(),
        }
    }

    /// The active configuration.
    pub fn config(&self) -> &HwDeflateConfig {
        &self.config
    }

    /// Accumulated statistics.
    pub fn stats(&self) -> HwStats {
        self.stats
    }

    /// Resets the statistics counters.
    pub fn reset_stats(&mut self) {
        self.stats = HwStats::default();
    }

    /// Compresses one page (at most 4 KB) into an independent Deflate
    /// stream, exactly as one CompCpy offload does.
    ///
    /// # Panics
    ///
    /// Panics if `page` is empty or longer than 4 KB.
    pub fn compress_page(&mut self, page: &[u8]) -> PageResult {
        assert_page(page);
        let tokens = self.tokenize_page(page);
        let fixed = encode_tokens(&tokens, page, Strategy::Fixed);
        self.finish_page(page, fixed)
    }

    /// [`HwCompressor::compress_page`] on the kernels it replaced: the
    /// byte-comparing tokenizer and the per-call fixed-Huffman encoder
    /// ([`encode_fixed_reference`]). Same result and statistics; kept
    /// as the oracle and the `before` side of the `hw_compress_page`
    /// hot-path row.
    ///
    /// # Panics
    ///
    /// Panics if `page` is empty or longer than 4 KB.
    pub fn compress_page_reference(&mut self, page: &[u8]) -> PageResult {
        assert_page(page);
        let tokens = self.tokenize_page_reference(page);
        let fixed = encode_fixed_reference(&tokens);
        self.finish_page(page, fixed)
    }

    /// Charges the page's cycles and applies the stored fallback to its
    /// fixed-Huffman encoding.
    fn finish_page(&mut self, page: &[u8], fixed: Vec<u8>) -> PageResult {
        let cycles = page.len().div_ceil(CACHELINE) as u64;
        self.stats.cycles += cycles;
        let (data, stored) = if fixed.len() >= page.len() + 5 {
            // Stored fallback keeps the compressed page within the
            // registered destination pages.
            self.stats.stored_fallbacks += 1;
            (encode_tokens(&[], page, Strategy::Stored), true)
        } else {
            (fixed, false)
        };
        PageResult {
            data,
            stored,
            cycles,
        }
    }

    /// Compresses an arbitrary message as a sequence of independent 4 KB
    /// page streams (the §V-C software-stack contract: each page is
    /// written to the TCP socket separately).
    pub fn compress_message(&mut self, data: &[u8]) -> Vec<PageResult> {
        data.chunks(PAGE).map(|p| self.compress_page(p)).collect()
    }

    /// Best-effort banked-hash-table tokenizer for one page.
    ///
    /// Each cacheline is one cycle: every position with a 3-byte hash
    /// window looks up and inserts its hash slot, as long as the slot's
    /// bank has ports left this cycle. A lookup and its insert take one
    /// read and one write port of the same bank, so the two port counts
    /// are always equal and one counter per bank tracks both (and
    /// `lookups_dropped == inserts_dropped`). Uncovered positions
    /// then compare the table candidate and the adjacent lane (distance
    /// 1, free of ports) eight bytes at a time, and the table candidate
    /// wins only when strictly longer. `tokenize_page_reference` is the
    /// byte-at-a-time original; tokens and statistics are identical.
    fn tokenize_page(&mut self, page: &[u8]) -> Vec<Token> {
        const EMPTY: u32 = u32::MAX;
        let cfg = self.config;
        let max_match = cfg.max_match();
        let slots = cfg.banks * cfg.entries_per_bank;
        let slot_mask = slots.is_power_of_two().then(|| slots - 1);
        let bank_mask = cfg.banks.is_power_of_two().then(|| cfg.banks - 1);
        // slot -> position of the most recent candidate (oldest replaced).
        let mut table = vec![EMPTY; slots];
        let mut tokens = Vec::with_capacity(page.len());
        let mut ports_used = vec![0usize; cfg.banks];
        let (mut literals, mut matches, mut dropped) = (0u64, 0u64, 0u64);
        // Positions from here on have no 3-byte window to hash.
        let hashed_end = page.len().saturating_sub(MIN_MATCH - 1);

        let mut covered_until = 0usize; // positions below this are inside an emitted match
        for line_start in (0..page.len()).step_by(CACHELINE) {
            let line_end = (line_start + CACHELINE).min(page.len());
            ports_used.fill(0);
            for p in line_start..line_end {
                if p >= hashed_end {
                    if p >= covered_until {
                        tokens.push(Token::Literal(page[p]));
                        literals += 1;
                    }
                    continue;
                }
                let h = hash3(page, p);
                let slot = slot_mask.map_or_else(|| h % slots, |m| h & m);
                let bank = bank_mask.map_or_else(|| slot % cfg.banks, |m| slot & m);

                // Read the candidate and insert this position in its place.
                let candidate = if ports_used[bank] < cfg.ports_per_bank {
                    ports_used[bank] += 1;
                    std::mem::replace(&mut table[slot], p as u32)
                } else {
                    dropped += 1;
                    EMPTY
                };
                if p < covered_until {
                    continue;
                }

                // Match lengths below MIN_MATCH count as no match.
                let limit = (page.len() - p).min(max_match);
                let usable = |len: usize| if len >= MIN_MATCH { len } else { 0 };
                let neighbor = if p >= 1 {
                    usable(match_len(page, p - 1, p, limit))
                } else {
                    0
                };
                let cand = candidate as usize;
                let table_len = if candidate != EMPTY && p - cand <= cfg.history {
                    usable(match_len(page, cand, p, limit))
                } else {
                    0
                };
                let matched = if table_len > neighbor {
                    Some((table_len, p - cand))
                } else if neighbor > 0 {
                    Some((neighbor, 1))
                } else {
                    None
                };
                match matched {
                    Some((len, dist)) => {
                        tokens.push(Token::Match {
                            length: len as u16,
                            distance: dist as u16,
                        });
                        matches += 1;
                        covered_until = p + len;
                    }
                    None => {
                        tokens.push(Token::Literal(page[p]));
                        literals += 1;
                    }
                }
            }
        }
        self.stats.literals_emitted += literals;
        self.stats.matches_emitted += matches;
        self.stats.lookups_dropped += dropped;
        self.stats.inserts_dropped += dropped;
        tokens
    }

    /// The tokenizer [`tokenize_page`](Self::tokenize_page) replaced:
    /// byte-at-a-time comparators, `%` reductions, `Option` slots and
    /// separate read and write port counters, two `Vec`s per cacheline.
    /// Kept as its oracle.
    fn tokenize_page_reference(&mut self, page: &[u8]) -> Vec<Token> {
        let cfg = self.config;
        let max_match = cfg.max_match();
        let slots = cfg.banks * cfg.entries_per_bank;
        // slot -> position of the most recent candidate (oldest replaced).
        let mut table: Vec<Option<u32>> = vec![None; slots];
        let mut tokens = Vec::new();

        let hash = |data: &[u8], pos: usize| -> usize { hash3(data, pos) % slots };

        let mut covered_until = 0usize; // positions below this are inside an emitted match
        let mut pos = 0usize;
        while pos < page.len() {
            // One cycle: a 64-byte cacheline.
            let line_end = (pos + CACHELINE).min(page.len());
            // Per-cycle bank port accounting.
            let mut reads_per_bank = vec![0usize; cfg.banks];
            let mut writes_per_bank = vec![0usize; cfg.banks];

            for p in pos..line_end {
                if p + MIN_MATCH > page.len() {
                    if p >= covered_until {
                        tokens.push(Token::Literal(page[p]));
                        self.stats.literals_emitted += 1;
                    }
                    continue;
                }
                let slot = hash(page, p);
                let bank = slot % cfg.banks;

                // Candidate lookup (only needed for uncovered positions,
                // but the hardware looks up every lane).
                let candidate = if reads_per_bank[bank] < cfg.ports_per_bank {
                    reads_per_bank[bank] += 1;
                    table[slot]
                } else {
                    self.stats.lookups_dropped += 1;
                    None
                };

                // Insert this position (replacing the older entry).
                if writes_per_bank[bank] < cfg.ports_per_bank {
                    writes_per_bank[bank] += 1;
                    table[slot] = Some(p as u32);
                } else {
                    self.stats.inserts_dropped += 1;
                }

                if p < covered_until {
                    continue; // inside a previously selected match
                }

                let try_candidate = |cand: usize| -> Option<(usize, usize)> {
                    let dist = p - cand;
                    if dist == 0 || dist > cfg.history {
                        return None;
                    }
                    let limit = (page.len() - p).min(max_match);
                    let mut l = 0;
                    while l < limit && page[cand + l] == page[p + l] {
                        l += 1;
                    }
                    if l >= MIN_MATCH {
                        Some((l, dist))
                    } else {
                        None
                    }
                };
                // The comparator array always sees the adjacent lane, so a
                // distance-1 candidate (run detection) is free — no Config
                // Memory port is consumed. This is how pipelined hardware
                // compressors handle runs.
                let neighbor = if p >= 1 { try_candidate(p - 1) } else { None };
                let table_match = candidate.and_then(|cand| try_candidate(cand as usize));
                let matched = match (neighbor, table_match) {
                    (Some(a), Some(b)) => Some(if b.0 > a.0 { b } else { a }),
                    (a, b) => a.or(b),
                };

                match matched {
                    Some((len, dist)) => {
                        tokens.push(Token::Match {
                            length: len as u16,
                            distance: dist as u16,
                        });
                        self.stats.matches_emitted += 1;
                        covered_until = p + len;
                    }
                    None => {
                        tokens.push(Token::Literal(page[p]));
                        self.stats.literals_emitted += 1;
                    }
                }
            }
            pos = line_end;
        }
        tokens
    }
}

/// Hashes the three bytes at `pos` (before reduction onto the slots).
fn hash3(data: &[u8], pos: usize) -> usize {
    (data[pos] as u32)
        .wrapping_mul(0x1_93)
        .wrapping_add((data[pos + 1] as u32).wrapping_mul(0x61))
        .wrapping_add((data[pos + 2] as u32).wrapping_mul(0x1F)) as usize
}

/// Length of the common prefix of `page[cand..]` and `page[p..]`, at most
/// `limit` (with `cand < p` and `p + limit <= page.len()`), compared
/// eight bytes at a time: the first set bit of the XOR of two
/// little-endian words marks the first differing byte.
fn match_len(page: &[u8], cand: usize, p: usize, limit: usize) -> usize {
    let word = |i: usize| u64::from_le_bytes(page[i..i + 8].try_into().expect("8 bytes"));
    let mut len = 0;
    while len + 8 <= limit {
        let diff = word(cand + len) ^ word(p + len);
        if diff != 0 {
            return len + (diff.trailing_zeros() / 8) as usize;
        }
        len += 8;
    }
    while len < limit && page[cand + len] == page[p + len] {
        len += 1;
    }
    len
}

/// Asserts the DSA's page contract: 1..=4096 bytes.
fn assert_page(page: &[u8]) {
    assert!(!page.is_empty(), "empty page");
    assert!(page.len() <= PAGE, "DSA compresses at 4KB page granularity");
}

/// The decompression DSA: functionally a streaming inflater with the same
/// deterministic cacheline-per-cycle model. Returns the decompressed page
/// and the buffer-device cycles consumed (one per 64 output bytes).
///
/// # Errors
///
/// Propagates [`crate::DecodeError`] from the inflater, which stops with
/// [`crate::DecodeError::OutputTooLarge`] as soon as the output would
/// outgrow one 4 KB page.
pub fn decompress_page(data: &[u8]) -> Result<(Vec<u8>, u64), crate::DecodeError> {
    let out = crate::inflate::decompress_bounded(data, PAGE)?;
    let cycles = out.len().div_ceil(CACHELINE) as u64;
    Ok((out, cycles))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::inflate::decompress;
    use crate::{corpus, deflate};
    use proptest::prelude::*;

    #[test]
    fn round_trip_compressible_page() {
        let page = b"SmartDIMM compresses pages near memory. ".repeat(50);
        let page = &page[..4096.min(page.len())];
        let mut dsa = HwCompressor::new(Default::default());
        let result = dsa.compress_page(page);
        assert!(!result.stored);
        assert!(result.data.len() < page.len());
        assert_eq!(decompress(&result.data).unwrap(), page);
        assert_eq!(result.cycles, (page.len() as u64).div_ceil(64));
    }

    #[test]
    fn incompressible_page_falls_back_to_stored() {
        let mut rng = simkit::DetRng::new(42);
        let mut page = vec![0u8; 4096];
        rng.fill_bytes(&mut page);
        let mut dsa = HwCompressor::new(Default::default());
        let result = dsa.compress_page(&page);
        assert!(result.stored);
        assert!(result.data.len() <= page.len() + 5);
        assert_eq!(decompress(&result.data).unwrap(), page);
        assert_eq!(dsa.stats().stored_fallbacks, 1);
    }

    #[test]
    fn message_splits_into_pages() {
        let msg = corpus::html(10_000, 7);
        let mut dsa = HwCompressor::new(Default::default());
        let pages = dsa.compress_message(&msg);
        assert_eq!(pages.len(), 3); // 4096 + 4096 + 1808
        let mut out = Vec::new();
        for p in &pages {
            out.extend(decompress(&p.data).unwrap());
        }
        assert_eq!(out, msg);
    }

    #[test]
    fn matches_are_capped_by_comparator_width() {
        // A long run: software would emit 258-byte matches, the DSA is
        // capped at 2*window.
        let page = vec![b'x'; 1024];
        let mut dsa = HwCompressor::new(Default::default());
        let result = dsa.compress_page(&page);
        assert_eq!(decompress(&result.data).unwrap(), page);
        let max = dsa.config().max_match();
        assert_eq!(max, 16);
        // Ratio is worse than software's, but still strongly compressed.
        let sw = deflate::compress(&page);
        assert!(result.data.len() >= sw.len());
        assert!(result.data.len() < page.len() / 4);
    }

    #[test]
    fn wider_window_improves_ratio_on_long_runs() {
        let page = corpus::text(4096, 3);
        let small = {
            let mut dsa = HwCompressor::new(HwDeflateConfig {
                window: 4,
                ..Default::default()
            });
            dsa.compress_page(&page).data.len()
        };
        let large = {
            let mut dsa = HwCompressor::new(HwDeflateConfig {
                window: 16,
                ..Default::default()
            });
            dsa.compress_page(&page).data.len()
        };
        assert!(large <= small, "window 16 ({large}) vs window 4 ({small})");
    }

    #[test]
    fn memory_cost_grows_with_window() {
        let a = HwDeflateConfig {
            window: 4,
            ..Default::default()
        };
        let b = HwDeflateConfig {
            window: 16,
            ..Default::default()
        };
        assert!(b.candidate_memory_bits() > 2 * a.candidate_memory_bits());
    }

    #[test]
    fn port_starvation_drops_candidates() {
        // One bank and one port: most parallel lookups in each cacheline
        // are dropped.
        let mut dsa = HwCompressor::new(HwDeflateConfig {
            banks: 1,
            ports_per_bank: 1,
            ..Default::default()
        });
        let page = corpus::text(4096, 5);
        let result = dsa.compress_page(&page);
        assert_eq!(decompress(&result.data).unwrap(), page);
        assert!(dsa.stats().lookups_dropped > 0);
        assert!(dsa.stats().inserts_dropped > 0);
    }

    #[test]
    fn history_window_respected() {
        let mut dsa = HwCompressor::new(HwDeflateConfig {
            history: 64,
            ..Default::default()
        });
        let mut page = corpus::text(600, 9);
        page.truncate(600);
        let result = dsa.compress_page(&page);
        assert_eq!(decompress(&result.data).unwrap(), page);
    }

    #[test]
    #[should_panic(expected = "4KB page granularity")]
    fn oversized_page_rejected() {
        HwCompressor::new(Default::default()).compress_page(&[0u8; 4097]);
    }

    #[test]
    fn decompress_page_stops_at_one_page() {
        // A sub-page stream of 258-byte matches that inflates to 1 MB.
        let bomb = deflate::compress(&vec![0u8; 1 << 20]);
        assert!(bomb.len() <= PAGE, "{} B", bomb.len());
        assert_eq!(
            decompress_page(&bomb),
            Err(crate::DecodeError::OutputTooLarge(PAGE))
        );
        // Exactly one page still decodes.
        let page = deflate::compress(&[0u8; PAGE]);
        assert_eq!(decompress_page(&page).unwrap(), (vec![0u8; PAGE], 64));
    }

    #[test]
    fn decompress_page_cycle_accounting() {
        let page = corpus::json(2048, 1);
        let mut dsa = HwCompressor::new(Default::default());
        let result = dsa.compress_page(&page);
        let (out, cycles) = decompress_page(&result.data).unwrap();
        assert_eq!(out, page);
        assert_eq!(cycles, (page.len() as u64).div_ceil(64));
    }

    /// Runs the fast and reference paths on fresh compressors and checks
    /// tokens, output and every statistic agree.
    fn assert_matches_reference(config: HwDeflateConfig, page: &[u8]) {
        let (mut fast, mut oracle) = (HwCompressor::new(config), HwCompressor::new(config));
        assert_eq!(
            fast.tokenize_page(page),
            oracle.tokenize_page_reference(page),
            "{config:?}"
        );
        assert_eq!(fast.stats(), oracle.stats(), "{config:?}");
        assert_eq!(
            fast.compress_page(page),
            oracle.compress_page_reference(page),
            "{config:?}"
        );
        assert_eq!(fast.stats(), oracle.stats(), "{config:?}");
    }

    #[test]
    fn fast_path_matches_reference_on_corpus_pages() {
        // Port starvation and non-power-of-two geometries included, so
        // the drop counters and the `%` fallbacks are exercised.
        let shapes = [
            HwDeflateConfig::default(),
            HwDeflateConfig {
                banks: 1,
                ports_per_bank: 1,
                ..Default::default()
            },
            HwDeflateConfig {
                banks: 6,
                entries_per_bank: 500,
                ..Default::default()
            },
        ];
        for kind in corpus::Kind::ALL {
            let page = kind.generate(4096, 17);
            for config in shapes {
                assert_matches_reference(config, &page);
            }
        }
        // A tie the neighbour must win: 15 distinct bytes, then a run.
        // The run's line-0 inserts stop when its bank runs out of ports,
        // so at position 64 the table offers position 22, as long a
        // match as the adjacent lane's.
        let mut page: Vec<u8> = (0..15).collect();
        page.resize(200, b'x');
        assert_matches_reference(HwDeflateConfig::default(), &page);
        let mut dsa = HwCompressor::new(HwDeflateConfig::default());
        assert!(dsa.tokenize_page(&page).contains(&Token::Match {
            length: 16,
            distance: 1
        }));
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(256))]

        #[test]
        fn prop_fast_path_matches_reference(
            source in 0u8..5,
            seed in any::<u64>(),
            len in 1usize..=4096,
            word in proptest::collection::vec(any::<u8>(), 1..24),
            window in 2usize..16,
            shape in 0usize..5,
        ) {
            // Runs after a short prefix make table-vs-neighbour ties.
            let page = match source {
                0 => corpus::random(len, seed),
                1 => corpus::html(len, seed),
                2 => corpus::text(len, seed),
                3 => word.iter().cycle().take(len).copied().collect(),
                _ => {
                    let mut page = corpus::random(seed as usize % 64, seed);
                    page.resize(len.max(page.len()), word[0]);
                    page
                }
            };
            let base = HwDeflateConfig { window, ..Default::default() };
            let config = match shape {
                0 => base,
                1 => HwDeflateConfig { history: 64, ..base },
                2 => HwDeflateConfig { banks: 1, ports_per_bank: 1, ..base },
                3 => HwDeflateConfig { banks: 6, entries_per_bank: 500, ..base },
                _ => HwDeflateConfig { entries_per_bank: 300, ports_per_bank: 2, ..base },
            };
            assert_matches_reference(config, &page[..len.min(page.len())]);
        }
    }

    proptest! {

        #[test]
        fn prop_hw_round_trips_any_page(
            data in proptest::collection::vec(any::<u8>(), 1..4096),
        ) {
            let mut dsa = HwCompressor::new(Default::default());
            let result = dsa.compress_page(&data);
            prop_assert_eq!(decompress(&result.data).unwrap(), data);
        }

        #[test]
        fn prop_hw_round_trips_compressible(
            word in proptest::collection::vec(any::<u8>(), 3..12),
            reps in 10usize..300,
            window in 2usize..16,
        ) {
            let data: Vec<u8> = word.iter().cycle().take((word.len() * reps).min(4096)).copied().collect();
            let mut dsa = HwCompressor::new(HwDeflateConfig { window, ..Default::default() });
            let result = dsa.compress_page(&data);
            prop_assert_eq!(decompress(&result.data).unwrap(), data);
        }

        #[test]
        fn prop_output_never_expands_past_stored(
            data in proptest::collection::vec(any::<u8>(), 1..4096),
        ) {
            let mut dsa = HwCompressor::new(Default::default());
            let result = dsa.compress_page(&data);
            prop_assert!(result.data.len() <= data.len() + 5);
        }
    }
}
