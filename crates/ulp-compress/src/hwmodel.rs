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
//!   expands past `input + 5` bytes; the model's kernel writes each
//!   token's bits as it selects the token, with no token buffer;
//! * compression happens at 4 KB page granularity only; larger messages
//!   take one CompCpy call per page (§V-C).
//!
//! Every output page is a valid Deflate stream decodable by
//! [`crate::inflate`].

use crate::bitio::BitWriter;
use crate::deflate::{encode_fixed_reference, encode_stored, fixed_codes};
use crate::lz77::{length_to_symbol, Token, MAX_MATCH, MIN_MATCH};
use std::sync::OnceLock;

/// Deflate-DSA configuration: the parallelization window, the one
/// parameter §V-B trades off. The candidate store is the prototype's:
/// 8 Config-Memory banks of 512 slots, 8 ports per bank, over a 4 KB
/// (one-page) history.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct HwDeflateConfig {
    /// Parallelization window in bytes (paper: 8).
    pub window: usize,
}

impl Default for HwDeflateConfig {
    fn default() -> Self {
        HwDeflateConfig { window: 8 }
    }
}

/// Number of Config-Memory banks.
const BANKS: usize = 8;

/// Hash-table slots per bank, sized to cover the 4 KB history.
const ENTRIES_PER_BANK: usize = 512;

/// Hash-table slots across all banks.
const SLOTS: usize = BANKS * ENTRIES_PER_BANK;

/// Read/write port pairs per bank and cycle; accesses beyond the port
/// count in a cycle are dropped (best-effort).
const PORTS_PER_BANK: u8 = 8;

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
        SLOTS * (16 + 16 * self.window)
    }
}

/// Counters exposed by the DSA model.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct HwStats {
    /// Cycles spent in the match pipeline (one per 64-byte cacheline).
    pub cycles: u64,
    /// Candidate lookups dropped because a bank ran out of read ports.
    /// Each lookup's insert takes a write port of the same bank, so this
    /// also counts the inserts dropped.
    pub lookups_dropped: u64,
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
/// Zero bytes after the page copy, so the kernel's word comparators and
/// 3-byte hashes never run off its end.
const PAD: usize = 8;
/// An empty hash slot: further back than the page, so its distance never
/// passes the in-page test.
const NO_POSITION: i32 = -(1 << 16);

impl HwCompressor {
    /// Creates a compressor with the given configuration.
    ///
    /// # Panics
    ///
    /// Panics if the window is zero.
    pub fn new(config: HwDeflateConfig) -> HwCompressor {
        assert!(config.window > 0, "window must be positive");
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
        let fixed = self.encode_fixed_page(page);
        self.finish_page(page, fixed)
    }

    /// [`HwCompressor::compress_page`] on the kernels it replaced: the
    /// byte-comparing tokenizer, its token `Vec`, and the per-call
    /// fixed-Huffman encoder ([`encode_fixed_reference`]) as a second
    /// pass. Same result and statistics; kept as the oracle and the
    /// `before` side of the `hw_compress_page` hot-path row.
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
            (encode_stored(page), true)
        } else {
            (fixed, false)
        };
        PageResult {
            data,
            stored,
            cycles,
        }
    }

    /// The DSA kernel: one page to its fixed-Huffman stream (before the
    /// stored fallback), one 64-byte line (one cycle) at a time.
    ///
    /// * *Hash/port pass.* Every position of the line with a 3-byte hash
    ///   window looks up and inserts its hash slot, in order, as long as
    ///   the slot's bank has ports left this cycle. A lookup and its
    ///   insert take one read and one write port of the same bank, so one
    ///   counter per bank tracks both (and `lookups_dropped` counts
    ///   both). The port test selects the table write and the candidate
    ///   without a branch; each candidate is kept as a distance.
    /// * *Match walk.* Only uncovered positions are visited: a match
    ///   moves the walk past its last byte, into later lines if it is
    ///   long. Each compares the adjacent lane (distance 1, free of
    ///   ports) and the table candidate eight bytes at a time, and the
    ///   table wins only when strictly longer. Each literal, and each
    ///   match's length code, extra bits, distance code and extra bits
    ///   (at most 31 bits), goes to the bit writer in one write from
    ///   [`FixedCodes`].
    ///
    /// Neither pass depends on the other within a line: every position
    /// is inserted whether or not a match covers it, and a position's
    /// candidate is read before its own insert. So this emits the bytes
    /// and counts of `encode_fixed_reference(&tokenize_page_reference(..))`.
    fn encode_fixed_page(&mut self, page: &[u8]) -> Vec<u8> {
        let codes = FixedCodes::get();
        let n = page.len();
        let max_match = self.config.max_match();
        let mut buf = [0u8; PAGE + PAD];
        buf[..n].copy_from_slice(page);
        // slot -> position of the most recent candidate (oldest replaced).
        let mut table = vec![NO_POSITION; SLOTS];
        let mut ports = [0u8; BANKS];
        // Line lane -> distance to its candidate (`u32::MAX`: none).
        let mut dists = [u32::MAX; CACHELINE];
        let (mut literals, mut matches, mut dropped) = (0u64, 0u64, 0u64);
        // Positions from here on have no 3-byte window to hash.
        let hashed_end = n.saturating_sub(MIN_MATCH - 1);

        // Room for a page of 9-bit literals.
        let mut w = BitWriter::with_capacity(n + n / 8 + 8);
        w.write_bits(1, 1); // BFINAL
        w.write_bits(0b01, 2); // fixed Huffman
        let mut p = 0usize; // the next uncovered position
        for line_start in (0..n).step_by(CACHELINE) {
            let line_end = (line_start + CACHELINE).min(n);
            let hashed = line_end.min(hashed_end).saturating_sub(line_start);
            ports.fill(0);
            let hashes = hash_line(&buf, line_start);
            for (lane, (dist, &h)) in dists[..hashed].iter_mut().zip(&hashes).enumerate() {
                let q = line_start + lane;
                let slot = h as usize % SLOTS;
                let ok = ports[slot % BANKS] < PORTS_PER_BANK;
                ports[slot % BANKS] += u8::from(ok);
                dropped += u64::from(!ok);
                let old = table[slot];
                table[slot] = if ok { q as i32 } else { old };
                *dist = if ok {
                    (q as i32 - old) as u32
                } else {
                    u32::MAX
                };
            }

            while p < line_end {
                let limit = (n - p).min(max_match);
                let (len, dist) = if p == 0 || limit < MIN_MATCH {
                    (0, 0) // nothing behind, or too close to the end
                } else {
                    let neighbor = match_len(&buf, p - 1, p, limit);
                    let dist = dists[p - line_start] as usize;
                    // The table wins only when strictly longer, so a
                    // candidate at distance 1 or a neighbour run of
                    // `limit` settles it. An empty or dropped slot's
                    // distance reaches past the page.
                    if dist < PAGE && dist > 1 && neighbor < limit {
                        let table_len = match_len(&buf, p - dist, p, limit);
                        if table_len > neighbor {
                            (table_len, dist)
                        } else {
                            (neighbor, 1)
                        }
                    } else {
                        (neighbor, 1)
                    }
                };
                if len >= MIN_MATCH {
                    let (lbits, lcount) = codes.length[len];
                    let (dbits, dcount) = codes.distance(dist);
                    w.write_bits(lbits | dbits << lcount, lcount + dcount);
                    matches += 1;
                    p += len;
                } else {
                    let (bits, count) = codes.literal[buf[p] as usize];
                    w.write_bits(bits, count);
                    literals += 1;
                    p += 1;
                }
            }
        }
        let (bits, count) = codes.end_of_block;
        w.write_bits(bits, count);
        self.stats.literals_emitted += literals;
        self.stats.matches_emitted += matches;
        self.stats.lookups_dropped += dropped;
        w.finish()
    }

    /// The tokenizer of the reference path: byte-at-a-time comparators,
    /// `Option` slots and separate read and write port counters per
    /// cacheline. Kept as the kernel's oracle.
    fn tokenize_page_reference(&mut self, page: &[u8]) -> Vec<Token> {
        let max_match = self.config.max_match();
        // slot -> position of the most recent candidate (oldest replaced).
        let mut table: Vec<Option<u32>> = vec![None; SLOTS];
        let mut tokens = Vec::new();

        let slot_of = |data: &[u8], pos: usize| -> usize {
            hash(data[pos], data[pos + 1], data[pos + 2]) as usize % SLOTS
        };

        let (mut lookups_dropped, mut inserts_dropped) = (0u64, 0u64);
        let mut covered_until = 0usize; // positions below this are inside an emitted match
        let mut pos = 0usize;
        while pos < page.len() {
            // One cycle: a 64-byte cacheline.
            let line_end = (pos + CACHELINE).min(page.len());
            // Per-cycle bank port accounting.
            let mut reads_per_bank = [0u8; BANKS];
            let mut writes_per_bank = [0u8; BANKS];

            for p in pos..line_end {
                if p + MIN_MATCH > page.len() {
                    if p >= covered_until {
                        tokens.push(Token::Literal(page[p]));
                        self.stats.literals_emitted += 1;
                    }
                    continue;
                }
                let slot = slot_of(page, p);
                let bank = slot % BANKS;

                // Candidate lookup (only needed for uncovered positions,
                // but the hardware looks up every lane).
                let candidate = if reads_per_bank[bank] < PORTS_PER_BANK {
                    reads_per_bank[bank] += 1;
                    table[slot]
                } else {
                    lookups_dropped += 1;
                    None
                };

                // Insert this position (replacing the older entry).
                if writes_per_bank[bank] < PORTS_PER_BANK {
                    writes_per_bank[bank] += 1;
                    table[slot] = Some(p as u32);
                } else {
                    inserts_dropped += 1;
                }

                if p < covered_until {
                    continue; // inside a previously selected match
                }

                let try_candidate = |cand: usize| -> Option<(usize, usize)> {
                    let dist = p - cand;
                    if dist == 0 {
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
        debug_assert_eq!(
            lookups_dropped, inserts_dropped,
            "a lookup and its insert share one bank's ports"
        );
        self.stats.lookups_dropped += lookups_dropped;
        tokens
    }
}

/// Hashes three bytes (before reduction onto the slots).
#[inline(always)]
fn hash(a: u8, b: u8, c: u8) -> u32 {
    (a as u32)
        .wrapping_mul(0x1_93)
        .wrapping_add((b as u32).wrapping_mul(0x61))
        .wrapping_add((c as u32).wrapping_mul(0x1F))
}

/// The hash of every position of the line at `line_start`, in one loop
/// the compiler vectorizes (on 32-bit lanes: `usize` lanes were slower).
/// Lanes past the page's last 3-byte window hash padding and are never
/// used.
#[inline(always)]
fn hash_line(buf: &[u8; PAGE + PAD], line_start: usize) -> [u32; CACHELINE] {
    let mut hashes = [0; CACHELINE];
    let Some(window) = buf
        .get(line_start..)
        .and_then(<[u8]>::first_chunk::<{ CACHELINE + 2 }>)
    else {
        return hashes; // every line of the page has its window in `buf`
    };
    for (lane, h) in hashes.iter_mut().enumerate() {
        *h = hash(window[lane], window[lane + 1], window[lane + 2]);
    }
    hashes
}

/// Length of the common prefix of `buf[cand..]` and `buf[p..]`, at most
/// `limit` (with `cand < p` and `p + limit` within the page), compared
/// eight bytes at a time: the first set bit of the XOR of two
/// little-endian words marks the first differing byte. A word may read
/// up to seven bytes past the page into the padding; the clamp to
/// `limit` discards what it finds there.
#[inline(always)]
fn match_len(buf: &[u8; PAGE + PAD], cand: usize, p: usize, limit: usize) -> usize {
    let word = |i: usize| {
        let mut w = [0; 8];
        w.copy_from_slice(&buf[i..i + 8]);
        u64::from_le_bytes(w)
    };
    let mut len = 0;
    loop {
        let diff = word(cand + len) ^ word(p + len);
        if diff != 0 {
            return (len + (diff.trailing_zeros() / 8) as usize).min(limit);
        }
        len += 8;
        if len >= limit {
            return limit;
        }
    }
}

/// The fixed-Huffman codes (RFC 1951 §3.2.6) as the kernel writes them:
/// bit-reversed for the LSB-first writer, each length code with its
/// extra bits folded in, built once per process from
/// `deflate::fixed_codes`.
struct FixedCodes {
    /// Literal byte -> `(code, bit count)`: 8 bits below 144, 9 above.
    literal: [(u32, u32); 256],
    /// Match length (3..=258) -> `(code and extra bits, bit count)`.
    length: [(u32, u32); MAX_MATCH + 1],
    /// Distance symbol -> its 5-bit code.
    distance: [u32; 30],
    /// The end-of-block symbol's `(code, bit count)`.
    end_of_block: (u32, u32),
}

impl FixedCodes {
    fn get() -> &'static FixedCodes {
        static CODES: OnceLock<FixedCodes> = OnceLock::new();
        CODES.get_or_init(|| {
            let (lit, dist) = fixed_codes();
            let reversed = |(code, len): (u32, u32)| code.reverse_bits() >> (32 - len);
            let mut codes = FixedCodes {
                literal: [(0, 0); 256],
                length: [(0, 0); MAX_MATCH + 1],
                distance: [0; 30],
                end_of_block: (reversed(lit.code(256)), lit.code(256).1),
            };
            for (b, code) in codes.literal.iter_mut().enumerate() {
                let (c, l) = lit.code(b);
                *code = (reversed((c, l)), l);
            }
            for len in MIN_MATCH..=MAX_MATCH {
                let (sym, extra, val) = length_to_symbol(len as u16);
                let (c, l) = lit.code(sym as usize);
                codes.length[len] = (reversed((c, l)) | u32::from(val) << l, l + u32::from(extra));
            }
            for (sym, code) in codes.distance.iter_mut().enumerate() {
                *code = reversed(dist.code(sym));
            }
            codes
        })
    }

    /// `(code and extra bits, bit count)` for a distance, by the closed
    /// form of `distance_to_symbol`: at most 5 + 13 bits.
    #[inline(always)]
    fn distance(&self, distance: usize) -> (u32, u32) {
        let d0 = distance as u32 - 1;
        if d0 < 4 {
            return (self.distance[d0 as usize], 5);
        }
        let top = 31 - d0.leading_zeros();
        let extra = top - 1;
        let sym = 2 * top + ((d0 >> extra) & 1);
        (
            self.distance[sym as usize] | (d0 & ((1 << extra) - 1)) << 5,
            5 + extra,
        )
    }
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
            let mut dsa = HwCompressor::new(HwDeflateConfig { window: 4 });
            dsa.compress_page(&page).data.len()
        };
        let large = {
            let mut dsa = HwCompressor::new(HwDeflateConfig { window: 16 });
            dsa.compress_page(&page).data.len()
        };
        assert!(large <= small, "window 16 ({large}) vs window 4 ({small})");
    }

    #[test]
    fn memory_cost_grows_with_window() {
        let a = HwDeflateConfig { window: 4 };
        let b = HwDeflateConfig { window: 16 };
        assert!(b.candidate_memory_bits() > 2 * a.candidate_memory_bits());
    }

    #[test]
    fn port_starvation_drops_candidates() {
        // Runs inside text: every position of a run hashes to one slot,
        // so its bank runs out of its 8 ports within the cacheline.
        let page: Vec<u8> = corpus::text(4096, 5)
            .chunks(64)
            .flat_map(|c| [&c[..32], &[b'-'; 32]].concat())
            .collect();
        for window in [8, 32] {
            let mut dsa = HwCompressor::new(HwDeflateConfig { window });
            let result = dsa.compress_page(&page);
            assert_eq!(decompress(&result.data).unwrap(), page);
            assert!(dsa.stats().lookups_dropped > 0, "window {window}");
        }
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

    /// Runs the kernel and the reference path on fresh compressors and
    /// checks the fixed stream before the stored fallback (which would
    /// hide a stored page's tokens), the final result and every
    /// statistic agree.
    fn assert_matches_reference(config: HwDeflateConfig, page: &[u8]) {
        let (mut fast, mut oracle) = (HwCompressor::new(config), HwCompressor::new(config));
        assert_eq!(
            fast.encode_fixed_page(page),
            encode_fixed_reference(&oracle.tokenize_page_reference(page)),
            "{config:?}, {} B",
            page.len()
        );
        assert_eq!(fast.stats(), oracle.stats(), "{config:?}, {} B", page.len());
        assert_eq!(
            fast.compress_page(page),
            oracle.compress_page_reference(page),
            "{config:?}, {} B",
            page.len()
        );
        assert_eq!(fast.stats(), oracle.stats(), "{config:?}, {} B", page.len());
    }

    /// The windows the equality tests run over: the §V-B ablation's
    /// 2..=32, plus windows whose matches reach Deflate's 258-byte cap.
    const WINDOWS: [usize; 7] = [2, 4, 8, 16, 32, 129, 200];

    #[test]
    fn fast_path_matches_reference_on_corpus_pages() {
        for kind in corpus::Kind::ALL {
            let page = kind.generate(4096, 17);
            for window in WINDOWS {
                assert_matches_reference(HwDeflateConfig { window }, &page);
            }
        }
        // A tie the neighbour must win: 15 distinct bytes, then a run.
        // The run's line-0 inserts stop when its bank runs out of ports,
        // so at position 64 the table offers position 22, as long a
        // match as the adjacent lane's.
        let mut page: Vec<u8> = (0..15).collect();
        page.resize(200, b'x');
        assert_matches_reference(HwDeflateConfig::default(), &page);
        let mut oracle = HwCompressor::new(HwDeflateConfig::default());
        assert!(oracle
            .tokenize_page_reference(&page)
            .contains(&Token::Match {
                length: 16,
                distance: 1
            }));
        // The same tie below the limit: the run ends at 75, so at 64
        // both candidates match 11 bytes.
        let mut page: Vec<u8> = (0..15).collect();
        page.resize(75, b'x');
        page.extend(100..130);
        assert_matches_reference(HwDeflateConfig::default(), &page);
        assert!(oracle
            .tokenize_page_reference(&page)
            .contains(&Token::Match {
                length: 11,
                distance: 1
            }));
    }

    #[test]
    fn fast_path_matches_reference_at_edge_page_lengths() {
        for len in [1, 2, 3, 63, 64, 65, 4095, 4096] {
            for kind in corpus::Kind::ALL {
                let page = kind.generate(len, 5);
                for window in WINDOWS {
                    let config = HwDeflateConfig { window };
                    assert_matches_reference(config, &page[..len.min(page.len())]);
                }
            }
        }
    }

    #[test]
    fn fast_path_matches_reference_across_line_boundaries() {
        // A 20-byte word at 40 and again at 60 and 80: the match at 60
        // runs over the line boundary at 64 (and at window 32 and
        // above, past the next line's first uncovered position).
        let mut page = corpus::random(40, 3);
        let word = corpus::random(20, 4);
        for _ in 0..3 {
            page.extend_from_slice(&word);
        }
        page.extend(corpus::random(300, 5));
        let crosses = |tokens: &[Token]| {
            let mut pos = 0;
            tokens.iter().any(|t| {
                let start = pos;
                pos += match *t {
                    Token::Literal(_) => 1,
                    Token::Match { length, .. } => length as usize,
                };
                matches!(t, Token::Match { .. }) && start / 64 != (pos - 1) / 64
            })
        };
        for window in [8, 16, 32, 100, 200] {
            let config = HwDeflateConfig { window };
            let tokens = HwCompressor::new(config).tokenize_page_reference(&page);
            assert!(crosses(&tokens), "window {window}: no match crosses a line");
            assert_matches_reference(config, &page);
        }
        // Long runs: windows past 128 match 258 bytes, skipping whole
        // lines.
        let run = [b"<p>".as_slice(), &[b'-'; 1000], b"</p>"].concat();
        for window in WINDOWS {
            assert_matches_reference(HwDeflateConfig { window }, &run);
        }
    }

    #[test]
    fn fast_path_matches_reference_on_window_ablation_pages() {
        // The pages and windows of the `ablate_window` artifact.
        for kind in [corpus::Kind::Text, corpus::Kind::Html, corpus::Kind::Json] {
            for seed in 0..8 {
                let page = kind.generate(4096, seed);
                for window in [2, 4, 8, 16, 32] {
                    assert_matches_reference(HwDeflateConfig { window }, &page);
                }
            }
        }
    }

    /// Runs of one random byte across line starts, each placed so the
    /// match walk lands on the line start inside it: a literal at the
    /// run's first byte, then whole `limit`-byte neighbour matches. At
    /// least nine run positions before the line start use up the bank's
    /// ports, so the last one's insert is dropped and the table offers an
    /// earlier run position; the run ends 3 to `limit - 1` bytes past the
    /// line start, where that candidate and the adjacent lane tie below
    /// the limit.
    fn runs_across_line_starts(seed: u64, limit: usize) -> Vec<u8> {
        let mut rng = simkit::DetRng::new(seed);
        let mut page = Vec::with_capacity(PAGE);
        for line_start in (CACHELINE..PAGE).step_by(CACHELINE) {
            let steps = 9usize.div_ceil(limit) + rng.gen_range(0..2) as usize;
            let start = (line_start - 1).saturating_sub(steps * limit);
            if start <= page.len() {
                continue;
            }
            page.extend(corpus::random(start - page.len(), rng.next_u64()));
            let end = line_start + 3 + rng.gen_range(0..limit as u64 - 3) as usize;
            page.resize(end.min(PAGE), rng.next_u64() as u8);
        }
        page
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(256))]

        #[test]
        fn prop_fast_path_matches_reference(
            source in 0u8..6,
            seed in any::<u64>(),
            len in 1usize..=4096,
            word in proptest::collection::vec(any::<u8>(), 1..24),
            window in 2usize..=32,
        ) {
            let config = HwDeflateConfig { window };
            let page = match source {
                0 => corpus::random(len, seed),
                1 => corpus::html(len, seed),
                2 => corpus::text(len, seed),
                3 => word.iter().cycle().take(len).copied().collect(),
                4 => runs_across_line_starts(seed, config.max_match()),
                _ => {
                    // A run between random bytes: its bank runs out of
                    // ports, and it may end below the match limit.
                    let mut page = corpus::random(seed as usize % 64, seed);
                    page.resize(page.len() + 1 + (seed >> 8) as usize % 96, word[0]);
                    page.extend(corpus::random(len.saturating_sub(page.len()), !seed));
                    page
                }
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
            let mut dsa = HwCompressor::new(HwDeflateConfig { window });
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
