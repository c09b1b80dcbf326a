//! Physical address mapping: physical address ⇄ (channel, rank, bank
//! group, bank, row, column).
//!
//! The decode order is the common bank-interleaved scheme:
//! `offset(6) | bg | bank | column | rank | row`, with the channel bits
//! taken above the offset at a configurable interleave granularity
//! (§V-D: modern servers map only 1–4 consecutive cachelines to the
//! same DIMM). The paper's prototype ran single-channel; this
//! reproduction scales to N channels, one SmartDIMM shard per channel,
//! with fine interleave striping every page across shards and coarse
//! interleave (`channel_interleave_lines ≥ 64`) pinning whole pages to
//! one channel while consecutive pages rotate.
//!
//! [`AddressMapper`] owns the channel split: all channel math goes
//! through [`AddressMapper::split_line`] and its inverse.

#![deny(missing_docs)]

use std::fmt;
use std::ops::Range;

/// A byte-granular physical address.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct PhysAddr(pub u64);

impl PhysAddr {
    /// The 4 KB page number of this address.
    pub fn page(self) -> u64 {
        self.0 >> 12
    }

    /// The address of the cacheline containing this address.
    pub fn cacheline(self) -> PhysAddr {
        PhysAddr(self.0 & !63)
    }

    /// Whether the address is 64-byte aligned.
    pub fn is_line_aligned(self) -> bool {
        self.0 & 63 == 0
    }

    /// Whether the address is 4 KB aligned.
    pub fn is_page_aligned(self) -> bool {
        self.0 & 4095 == 0
    }

    /// Splits the byte range `[self, self + len)` into its cachelines, in
    /// address order: the one place a byte range meets the 64 B line
    /// grid. A zero `len` yields nothing.
    ///
    /// # Example
    ///
    /// ```
    /// use dram::PhysAddr;
    /// let spans: Vec<_> = PhysAddr(0x30).line_spans(0x20).collect();
    /// assert_eq!(spans.len(), 2);
    /// assert_eq!((spans[0].line, spans[0].in_line.clone()), (PhysAddr(0), 0x30..64));
    /// assert_eq!((spans[1].line, spans[1].in_range.clone()), (PhysAddr(64), 0x10..0x20));
    /// ```
    pub fn line_spans(self, len: usize) -> impl Iterator<Item = LineSpan> {
        let end = self.0 + len as u64;
        let mut cur = self.0;
        std::iter::from_fn(move || {
            (cur < end).then(|| {
                let line = PhysAddr(cur).cacheline();
                let start = (cur - line.0) as usize;
                let take = (end - cur).min(64 - start as u64) as usize;
                let at = (cur - self.0) as usize;
                cur += take as u64;
                LineSpan {
                    line,
                    in_line: start..start + take,
                    in_range: at..at + take,
                }
            })
        })
    }
}

/// One cacheline's share of a byte range ([`PhysAddr::line_spans`]).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct LineSpan {
    /// The cacheline's address.
    pub line: PhysAddr,
    /// The covered bytes, as offsets within the line.
    pub in_line: Range<usize>,
    /// The same bytes, as offsets within the range.
    pub in_range: Range<usize>,
}

impl LineSpan {
    /// Whether the range covers the whole line.
    pub fn is_whole(&self) -> bool {
        self.in_line.len() == 64
    }
}

impl fmt::Display for PhysAddr {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{:#x}", self.0)
    }
}

/// The DIMM slot of every channel that carries the SmartDIMM buffer
/// device; the other slots are plain capacity DIMMs.
pub const DSA_SLOT: usize = 0;

/// Bank groups per rank (DDR4).
const BANK_GROUPS: usize = 4;

/// Banks per bank group (DDR4).
const BANKS_PER_GROUP: usize = 4;

/// Banks per rank: the width of a DIMM cell column and of SmartDIMM's
/// Bank Table.
pub const BANKS_PER_RANK: usize = BANK_GROUPS * BANKS_PER_GROUP;

/// Cachelines per row (an 8 KB row buffer).
pub(crate) const LINES_PER_ROW: usize = 128;

/// Rows per bank.
const ROWS: usize = 1 << 15;

/// DRAM organization parameters. Every rank is DDR4's: 4 bank groups of
/// 4 banks ([`BANKS_PER_RANK`]), 32 Ki rows of 8 KB per bank.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct DramTopology {
    /// Number of memory channels (total, across all sockets).
    pub channels: usize,
    /// Ranks per DIMM.
    pub ranks: usize,
    /// DIMMs per channel. Only the [`DSA_SLOT`] DIMM of each channel
    /// carries the SmartDIMM buffer device; the remaining slots are
    /// plain capacity DIMMs, so offload placement has to care which DIMM
    /// a buffer decodes to.
    pub dimms_per_channel: usize,
    /// CPU sockets. Channels are split evenly across sockets
    /// (`channels % sockets == 0`); the driving host runs on socket 0,
    /// and its accesses to a channel owned by another socket cross the
    /// inter-socket link and pay the configured interconnect penalty.
    pub sockets: usize,
    /// Consecutive cachelines mapped to one channel before switching
    /// (§V-D interleave granularity; 1–4 typical, large = coarse-grain).
    pub channel_interleave_lines: usize,
}

impl Default for DramTopology {
    /// Single-socket, single-channel, single-rank 4 GiB DIMM — the
    /// AxDIMM-class setup scaled down for simulation (16 banks ×
    /// 32 Ki rows × 8 KB rows). `default_geometry` in this module asserts
    /// this figure so the doc and the geometry cannot drift apart.
    fn default() -> Self {
        DramTopology {
            channels: 1,
            ranks: 1,
            dimms_per_channel: 1,
            sockets: 1,
            channel_interleave_lines: 1,
        }
    }
}

impl DramTopology {
    /// Ranks visible on one channel's command bus: `ranks` per DIMM ×
    /// `dimms_per_channel` slots. The address decode's rank field spans
    /// this range; `rank / ranks` recovers the DIMM slot.
    pub fn ranks_per_channel(&self) -> usize {
        self.ranks * self.dimms_per_channel
    }

    /// Channels owned by each socket (`channels / sockets`).
    pub fn channels_per_socket(&self) -> usize {
        self.channels / self.sockets
    }

    /// The socket owning `channel` — channels are split contiguously.
    pub fn socket_of_channel(&self, channel: usize) -> usize {
        channel / self.channels_per_socket()
    }

    /// Whether `channel` belongs to a socket other than socket 0, the
    /// one the driving host runs on: its CAS commands cross the
    /// inter-socket link.
    pub fn is_remote(&self, channel: usize) -> bool {
        self.socket_of_channel(channel) != 0
    }

    /// The DIMM slot within a channel that a decoded (channel-local)
    /// rank index belongs to.
    pub fn dimm_slot_of_rank(&self, rank: usize) -> usize {
        rank / self.ranks
    }

    /// Whether a decoded (channel-local) rank index lies on the
    /// [`DSA_SLOT`] DIMM, the only one whose CAS traffic a buffer
    /// device sees.
    pub fn on_dsa_slot(&self, rank: usize) -> bool {
        self.dimm_slot_of_rank(rank) == DSA_SLOT
    }
}

/// A fully decoded DRAM location.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct Loc {
    /// Channel index.
    pub channel: usize,
    /// Rank within the channel, spanning every DIMM slot on the bus
    /// (`0..ranks_per_channel()`); `rank / ranks` is the DIMM slot and
    /// `rank % ranks` the rank within that DIMM.
    pub rank: usize,
    /// Bank group.
    pub bg: usize,
    /// Bank within the group.
    pub bank: usize,
    /// Row.
    pub row: usize,
    /// Column, in cachelines within the row.
    pub col: usize,
}

impl Loc {
    /// Flat bank index within the rank (`bg * 4 + bank`) — the index
    /// SmartDIMM's Bank Table uses.
    pub fn bank_index(&self) -> usize {
        self.bg * BANKS_PER_GROUP + self.bank
    }
}

/// One runtime field of the address decode: splits `x` into `x % n` and
/// `x / n`, by a mask and a shift when `n` is a power of two and by a
/// divide otherwise (3 or 6 channels, say).
#[derive(Debug, Clone, Copy)]
struct Radix {
    n: u64,
    /// `log2(n)` when `n` is a power of two.
    shift: Option<u32>,
}

impl Radix {
    fn new(n: usize) -> Radix {
        let n = n as u64;
        Radix {
            n,
            shift: n.is_power_of_two().then(|| n.trailing_zeros()),
        }
    }

    /// `(x % n, x / n)`.
    #[inline]
    fn split(self, x: u64) -> (u64, u64) {
        match self.shift {
            Some(s) => (x & (self.n - 1), x >> s),
            None => (x % self.n, x / self.n),
        }
    }
}

/// Bidirectional physical-address ⇄ location mapper.
///
/// # Example
///
/// ```
/// use dram::{AddressMapper, DramTopology, PhysAddr};
/// let mapper = AddressMapper::new(DramTopology::default());
/// let loc = mapper.decode(PhysAddr(0x12340));
/// assert_eq!(mapper.encode(&loc), PhysAddr(0x12340).cacheline());
/// ```
#[derive(Debug, Clone)]
pub struct AddressMapper {
    topo: DramTopology,
    /// The decode's runtime fields in the order they split a line
    /// index: interleave and channels, then (after the constant bank
    /// group, bank and column fields) ranks per channel.
    interleave: Radix,
    channels: Radix,
    ranks: Radix,
}

impl AddressMapper {
    /// Creates a mapper for the given topology.
    ///
    /// # Panics
    ///
    /// Panics if any topology field is zero or the interleave
    /// granularity is not a power of two.
    pub fn new(topo: DramTopology) -> AddressMapper {
        assert!(topo.channels > 0 && topo.ranks > 0, "empty topology");
        assert!(
            topo.dimms_per_channel > 0 && topo.sockets > 0,
            "empty topology"
        );
        assert!(
            topo.channels.is_multiple_of(topo.sockets),
            "channels must split evenly across sockets"
        );
        assert!(
            topo.channel_interleave_lines.is_power_of_two(),
            "interleave granularity must be a power of two"
        );
        AddressMapper {
            topo,
            interleave: Radix::new(topo.channel_interleave_lines),
            channels: Radix::new(topo.channels),
            ranks: Radix::new(topo.ranks_per_channel()),
        }
    }

    /// The topology this mapper serves.
    pub fn topology(&self) -> &DramTopology {
        &self.topo
    }

    /// Splits physical cacheline `line` into its channel and its index
    /// among that channel's lines (the channel-local line).
    pub fn split_line(&self, line: u64) -> (usize, u64) {
        let (within, block) = self.interleave.split(line);
        let (channel, rest) = self.channels.split(block);
        (channel as usize, rest * self.interleave.n + within)
    }

    /// Inverse of [`AddressMapper::split_line`]: the physical cacheline
    /// index of channel-local line `local` on `channel`.
    pub fn merge_line(&self, channel: usize, local: u64) -> u64 {
        let (within, block) = self.interleave.split(local);
        (block * self.channels.n + channel as u64) * self.interleave.n + within
    }

    /// How many of `channel`'s lines lie below physical cacheline
    /// `line`: the local index of its first line at or after `line`.
    pub fn lines_below(&self, channel: usize, line: u64) -> u64 {
        let g = self.topo.channel_interleave_lines as u64;
        let (at, local) = self.split_line(line);
        if channel == at {
            return local;
        }
        local - local % g + if channel < at { g } else { 0 }
    }

    /// The channel `addr` decodes to, without the bank split.
    pub fn channel_of(&self, addr: PhysAddr) -> usize {
        self.split_line(addr.0 >> 6).0
    }

    /// The line offset of `addr` within the interleave period: buffers
    /// at one phase map their line *i* to one channel.
    pub fn interleave_phase(&self, addr: PhysAddr) -> u64 {
        (addr.0 >> 6) % (self.topo.channels * self.topo.channel_interleave_lines) as u64
    }

    /// Decodes a physical address to its DRAM location (cacheline
    /// granularity; the 6 offset bits are dropped).
    pub fn decode(&self, addr: PhysAddr) -> Loc {
        let (channel, line) = self.split_line(addr.0 >> 6);
        let (bg, rest) = split(line, BANK_GROUPS);
        let (bank, rest) = split(rest, BANKS_PER_GROUP);
        let (col, rest) = split(rest, LINES_PER_ROW);
        let (rank, rest) = self.ranks.split(rest);
        let (row, _) = split(rest, ROWS);
        Loc {
            channel,
            rank: rank as usize,
            bg: bg as usize,
            bank: bank as usize,
            row: row as usize,
            col: col as usize,
        }
    }

    /// Re-encodes a location to the (cacheline-aligned) physical address —
    /// SmartDIMM's *Addr Remap* module (§IV-C): the buffer device must
    /// reconstruct physical addresses from `(row, bg, bank, col)` because
    /// acceleration ranges are defined in the physical address space.
    pub fn encode(&self, loc: &Loc) -> PhysAddr {
        let mut line = loc.row as u64;
        line = line * self.ranks.n + loc.rank as u64;
        line = line * LINES_PER_ROW as u64 + loc.col as u64;
        line = line * BANKS_PER_GROUP as u64 + loc.bank as u64;
        line = line * BANK_GROUPS as u64 + loc.bg as u64;
        PhysAddr(self.merge_line(loc.channel, line) << 6)
    }
}

/// `(x % n, x / n)` for a constant power-of-two field of the decode, which
/// the compiler lowers to a mask and a shift.
#[inline(always)]
fn split(x: u64, n: usize) -> (u64, u64) {
    (x % n as u64, x / n as u64)
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn phys_addr_helpers() {
        let a = PhysAddr(0x12345);
        assert_eq!(a.page(), 0x12);
        assert_eq!(a.cacheline(), PhysAddr(0x12340));
        assert!(!a.is_line_aligned());
        assert!(PhysAddr(0x1000).is_page_aligned());
        assert!(!PhysAddr(0x1040).is_page_aligned());
        assert_eq!(format!("{}", a), "0x12345");
    }

    #[test]
    fn decode_encode_round_trip_default() {
        let mapper = AddressMapper::new(DramTopology::default());
        for addr in (0..1_000_000u64).step_by(64 * 7) {
            let a = PhysAddr(addr).cacheline();
            assert_eq!(mapper.encode(&mapper.decode(a)), a, "addr {a}");
        }
    }

    #[test]
    fn consecutive_lines_interleave_across_banks() {
        let mapper = AddressMapper::new(DramTopology::default());
        let l0 = mapper.decode(PhysAddr(0));
        let l1 = mapper.decode(PhysAddr(64));
        // Adjacent cachelines land in different bank groups.
        assert_ne!((l0.bg, l0.bank), (l1.bg, l1.bank));
        assert_eq!(l0.row, l1.row);
    }

    #[test]
    fn channel_interleaving_granularity() {
        let topo = DramTopology {
            channels: 2,
            channel_interleave_lines: 2,
            ..DramTopology::default()
        };
        let mapper = AddressMapper::new(topo);
        let chans: Vec<usize> = (0..8)
            .map(|i| mapper.decode(PhysAddr(i * 64)).channel)
            .collect();
        // Two consecutive lines per channel before switching.
        assert_eq!(chans, vec![0, 0, 1, 1, 0, 0, 1, 1]);
    }

    #[test]
    fn single_channel_keeps_everything_local() {
        let mapper = AddressMapper::new(DramTopology::default());
        for i in 0..256u64 {
            assert_eq!(mapper.decode(PhysAddr(i * 64)).channel, 0);
        }
    }

    #[test]
    fn bank_index_is_flat() {
        let loc = Loc {
            channel: 0,
            rank: 0,
            bg: 2,
            bank: 3,
            row: 0,
            col: 0,
        };
        assert_eq!(loc.bank_index(), 11);
    }

    #[test]
    fn default_geometry() {
        let topo = DramTopology::default();
        // 1 ch * 1 rank * 16 banks * 32768 rows * 8 KB rows = 4 GiB —
        // exactly what `DramTopology::default()`'s rustdoc promises.
        assert_eq!((topo.channels, topo.ranks_per_channel()), (1, 1));
        assert_eq!(BANKS_PER_RANK, 16);
        assert_eq!((ROWS, LINES_PER_ROW * 64), (1 << 15, 8192));
    }

    #[test]
    fn topology_helpers() {
        let topo = DramTopology {
            channels: 4,
            ranks: 2,
            dimms_per_channel: 2,
            sockets: 2,
            ..DramTopology::default()
        };
        assert_eq!(topo.ranks_per_channel(), 4);
        assert_eq!(topo.channels_per_socket(), 2);
        assert_eq!(topo.socket_of_channel(0), 0);
        assert_eq!(topo.socket_of_channel(1), 0);
        assert_eq!(topo.socket_of_channel(2), 1);
        assert_eq!(topo.socket_of_channel(3), 1);
        assert_eq!(topo.dimm_slot_of_rank(0), 0);
        assert_eq!(topo.dimm_slot_of_rank(1), 0);
        assert_eq!(topo.dimm_slot_of_rank(2), 1);
        assert_eq!(topo.dimm_slot_of_rank(3), 1);
    }

    #[test]
    #[should_panic(expected = "split evenly")]
    fn sockets_must_divide_channels() {
        let topo = DramTopology {
            channels: 3,
            sockets: 2,
            ..DramTopology::default()
        };
        AddressMapper::new(topo);
    }

    #[test]
    fn rank_field_spans_dimm_slots() {
        let topo = DramTopology {
            ranks: 1,
            dimms_per_channel: 2,
            ..DramTopology::default()
        };
        let mapper = AddressMapper::new(topo);
        // With one rank per DIMM and two slots, the decoded rank field
        // alternates slots exactly where a 2-rank decode would
        // alternate ranks, and every address round-trips.
        let mut seen_slot1 = false;
        for line in 0..(1u64 << 16) {
            let a = PhysAddr(line * 64);
            let loc = mapper.decode(a);
            assert!(loc.rank < topo.ranks_per_channel());
            seen_slot1 |= topo.dimm_slot_of_rank(loc.rank) == 1;
            assert_eq!(mapper.encode(&loc), a);
        }
        assert!(seen_slot1, "slot-1 DIMM never addressed");
    }

    /// The division form of [`AddressMapper::decode`], the oracle of
    /// its shift-and-mask fields.
    fn decode_by_division(t: &DramTopology, addr: PhysAddr) -> Loc {
        let (g, n) = (t.channel_interleave_lines as u64, t.channels as u64);
        let line = addr.0 >> 6;
        let block = line / g;
        let (channel, line) = ((block % n) as usize, (block / n) * g + line % g);
        let bg = (line % 4) as usize;
        let bank = (line / 4 % 4) as usize;
        let rest = line / 16;
        let col = (rest % 128) as usize;
        let rest = rest / 128;
        let ranks = t.ranks_per_channel() as u64;
        let rank = (rest % ranks) as usize;
        let row = ((rest / ranks) % (1 << 15)) as usize;
        Loc {
            channel,
            rank,
            bg,
            bank,
            row,
            col,
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(512))]

        #[test]
        fn prop_decode_matches_division_form(
            addr in any::<u64>(),
            channels in 1usize..=6,
            ranks in 1usize..=3,
            dimms in 1usize..=2,
            gran_log in 0u32..7,
        ) {
            let topo = DramTopology {
                channels,
                ranks,
                dimms_per_channel: dimms,
                channel_interleave_lines: 1 << gran_log,
                ..DramTopology::default()
            };
            let mapper = AddressMapper::new(topo);
            let a = PhysAddr(addr);
            prop_assert_eq!(mapper.decode(a), decode_by_division(&topo, a));
            prop_assert_eq!(mapper.channel_of(a), mapper.decode(a).channel);
        }
    }

    proptest! {
        #[test]
        fn prop_round_trip_arbitrary_topology(
            addr_line in 0u64..(1 << 24),
            channels in 1usize..=4,
            ranks in 1usize..3,
            dimms in 1usize..3,
            gran_log in 0u32..3,
            two_sockets: bool,
        ) {
            let sockets = if two_sockets && channels.is_multiple_of(2) { 2 } else { 1 };
            let topo = DramTopology {
                channels,
                ranks,
                dimms_per_channel: dimms,
                sockets,
                channel_interleave_lines: 1 << gran_log,
            };
            let mapper = AddressMapper::new(topo);
            let a = PhysAddr(addr_line * 64);
            prop_assert_eq!(mapper.encode(&mapper.decode(a)), a);
            let (channel, local) = mapper.split_line(addr_line);
            prop_assert_eq!(mapper.merge_line(channel, local), addr_line);
            prop_assert_eq!(mapper.channel_of(a), mapper.decode(a).channel);
            prop_assert_eq!(channel, mapper.channel_of(a));
            let loc = mapper.decode(a);
            prop_assert_eq!(topo.on_dsa_slot(loc.rank), loc.rank < ranks);
            for c in 0..channels {
                prop_assert_eq!(topo.is_remote(c), c >= channels / sockets);
                let below = mapper.lines_below(c, addr_line);
                prop_assert!(mapper.merge_line(c, below) >= addr_line);
                prop_assert!(below == 0 || mapper.merge_line(c, below - 1) < addr_line);
            }
        }

        /// The spans tile `[addr, addr + len)` exactly once, in order,
        /// each inside one line; an empty range has no spans.
        #[test]
        fn prop_line_spans_tile_the_range(addr in any::<u32>(), len in 0usize..=3 * 64 + 1) {
            let addr = PhysAddr(u64::from(addr));
            let mut next = addr.0;
            let mut spans = 0;
            for s in addr.line_spans(len) {
                prop_assert!(s.line.is_line_aligned());
                prop_assert!(!s.in_line.is_empty() && s.in_line.end <= 64);
                prop_assert_eq!(s.line.0 + s.in_line.start as u64, next);
                prop_assert_eq!(addr.0 + s.in_range.start as u64, next);
                prop_assert_eq!(s.in_range.len(), s.in_line.len());
                prop_assert_eq!(s.is_whole(), s.in_line.len() == 64);
                next += s.in_line.len() as u64;
                spans += 1;
            }
            prop_assert_eq!(next, addr.0 + len as u64);
            prop_assert_eq!(spans == 0, len == 0);
        }

        #[test]
        fn prop_decode_fields_in_range(addr_line in 0u64..(1 << 26)) {
            let topo = DramTopology { channels: 2, ranks: 2, ..DramTopology::default() };
            let mapper = AddressMapper::new(topo);
            let loc = mapper.decode(PhysAddr(addr_line * 64));
            prop_assert!(loc.channel < 2);
            prop_assert!(loc.rank < 2);
            prop_assert!(loc.bg < 4);
            prop_assert!(loc.bank < 4);
            prop_assert!(loc.col < 128);
            prop_assert!(loc.row < (1 << 15));
        }
    }
}
