//! The DIMM: DRAM chip storage plus the buffer device through which every
//! command and data burst passes.
//!
//! On a real module, the registering clock driver / data buffers sit
//! between the DDR bus and the DRAM chips; SmartDIMM adds its logic
//! there. [`BufferDevice`] is that interception point: it observes
//! ACT/PRE (to maintain a Bank Table), sees every rdCAS/wrCAS with its
//! data burst, and can substitute data, ignore writes, or NACK reads via
//! `ALERT_N` ([`RdResult::Retry`]).
//!
//! The chips' storage is a *column slab*: one `Column` holds the 64 B
//! lines of all 16 banks of a rank at one `(row, col)`, the columns sit
//! in one `Vec`, and a fixed-hasher index maps a packed `(rank, row,
//! col)` key to a column's slot. The address mapper puts bank group and
//! bank in the lowest line bits, so a contiguous physical range fills
//! whole columns, and a CAS costs one hashed probe. Lines never written
//! read as zero.

use std::any::Any;

use simkit::Cycle;

use crate::addr::{Loc, PhysAddr, BANKS_PER_RANK};

/// Decoded information accompanying a CAS command at the buffer device.
#[derive(Debug, Clone, Copy)]
pub struct CasInfo {
    /// DRAM coordinates of the access.
    pub loc: Loc,
    /// The physical cacheline address, as SmartDIMM's Addr Remap module
    /// reconstructs it from `(Bank Table row, BG, BA, Col)`.
    pub phys: PhysAddr,
    /// Flat bank index within the rank, per the active topology.
    pub bank_index: usize,
    /// Cycle at which the CAS issues.
    pub at: Cycle,
    /// Host-assigned stream tag (core id in the Fig. 9 trace).
    pub tag: u64,
}

/// Buffer-device response to a read CAS.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RdResult {
    /// Put these 64 bytes on the DDR bus (pass-through returns the DRAM
    /// data unchanged; SmartDIMM may substitute Scratchpad contents).
    Data([u8; 64]),
    /// Assert `ALERT_N`: the memory controller must retry this read
    /// later (§IV-D, state S13 — computation not yet finished).
    Retry,
}

/// Buffer-device response to a write CAS.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum WrResult {
    /// Write these 64 bytes to the DRAM chips (pass-through writes the
    /// host data; Self-Recycle substitutes the Scratchpad line).
    Commit([u8; 64]),
    /// Drop the write entirely (state S7 — premature writeback of a
    /// line whose computation is pending, or an MMIO config write).
    Ignore,
}

/// On-module logic observing and intercepting the DDR command stream.
///
/// Implementations must be deterministic: the same command sequence must
/// produce the same responses. `Send` is a supertrait so a whole
/// simulated machine (devices included) can move to a `simkit::par`
/// worker; device state is never shared, so `Sync` is not required.
pub trait BufferDevice: Send {
    /// A row was activated in `(rank, bank_index)`.
    fn on_activate(&mut self, at: Cycle, rank: usize, bank_index: usize, row: usize);

    /// A bank was precharged.
    fn on_precharge(&mut self, at: Cycle, rank: usize, bank_index: usize);

    /// A read CAS: `dram_data` is what the DRAM chips return; the result
    /// is what goes on the bus.
    fn on_rd_cas(&mut self, info: &CasInfo, dram_data: &[u8; 64]) -> RdResult;

    /// A write CAS: `host_data` is the burst from the controller; the
    /// result is what (if anything) reaches the DRAM chips.
    fn on_wr_cas(&mut self, info: &CasInfo, host_data: &[u8; 64]) -> WrResult;

    /// Whether the device can service a *batched* read of the whole 4 KB
    /// page at `base` (page aligned) — i.e. it guarantees every line of
    /// the page would answer `RdResult::Data` with no per-line
    /// interception outcome the batch cannot express (no `Retry`, no
    /// MMIO). Default: no; the controller then uses per-line reads.
    fn page_read_supported(&mut self, _base: PhysAddr) -> bool {
        false
    }

    /// Batched read of the 64 cachelines of the page at `base`. `data`
    /// arrives holding the DRAM chips' contents; the device may mutate
    /// lines in place and performs any per-line side effects (e.g. DSA
    /// feeds) with a single translation probe for the whole page. Line
    /// `i`'s burst issues at `first_at + i * stride` — the same instants
    /// the per-line path would present as `CasInfo::at`, so time-stamped
    /// device state (scratchpad produce times, slack) matches. Called
    /// only directly after [`BufferDevice::page_read_supported`]
    /// returned `true` for `base`.
    fn on_rd_page(
        &mut self,
        _base: PhysAddr,
        _first_at: Cycle,
        _stride: u64,
        _data: &mut [[u8; 64]; 64],
    ) {
    }

    /// Downcast support so hosts can reach device-specific state (e.g.
    /// SmartDIMM statistics) after installation.
    fn as_any_mut(&mut self) -> &mut dyn Any;
}

/// The default buffer device: a plain JEDEC DIMM (requirement R2).
#[derive(Debug, Default, Clone)]
pub struct Passthrough;

impl BufferDevice for Passthrough {
    fn on_activate(&mut self, _at: Cycle, _rank: usize, _bank_index: usize, _row: usize) {}
    fn on_precharge(&mut self, _at: Cycle, _rank: usize, _bank_index: usize) {}
    fn on_rd_cas(&mut self, _info: &CasInfo, dram_data: &[u8; 64]) -> RdResult {
        RdResult::Data(*dram_data)
    }
    fn on_wr_cas(&mut self, _info: &CasInfo, host_data: &[u8; 64]) -> WrResult {
        WrResult::Commit(*host_data)
    }
    fn page_read_supported(&mut self, _base: PhysAddr) -> bool {
        // A plain DIMM never retries and never substitutes data.
        true
    }
    fn as_any_mut(&mut self) -> &mut dyn Any {
        self
    }
}

/// A DRAM cell coordinate: `(rank, bank_index, row, col)`.
pub type CellCoord = (usize, usize, usize, usize);

/// The lines of every bank of one rank at one `(row, col)`.
type Column = [[u8; 64]; BANKS_PER_RANK];

// simlint: allow(DET-HASH): fixed hasher, probed by key, never iterated
type ColumnIndex = std::collections::HashMap<u64, u32, simkit::hash::FixedState>;

/// Packs `(rank, row, col)` into a column key: 16 bits of column, 16 of
/// rank, 32 of row. Wider coordinates would alias another column.
fn column_key(rank: usize, row: usize, col: usize) -> u64 {
    assert!(
        col < 1 << 16 && rank < 1 << 16 && row < 1 << 32,
        "cell coordinate out of range"
    );
    (row as u64) << 32 | (rank as u64) << 16 | col as u64
}

/// One DIMM: sparse DRAM storage plus its buffer device.
///
/// Storage is keyed by DRAM coordinates, not physical address — the chips
/// know nothing about the system address map.
pub struct Dimm {
    columns: Vec<Column>,
    index: ColumnIndex,
    buffer: Box<dyn BufferDevice>,
}

impl std::fmt::Debug for Dimm {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Dimm")
            .field("populated_columns", &self.columns.len())
            .finish()
    }
}

impl Dimm {
    /// Creates a DIMM with the given buffer device.
    pub fn new(buffer: Box<dyn BufferDevice>) -> Dimm {
        Dimm {
            columns: Vec::new(),
            index: ColumnIndex::default(),
            buffer,
        }
    }

    /// Creates a plain pass-through DIMM.
    pub fn passthrough() -> Dimm {
        Dimm::new(Box::new(Passthrough))
    }

    /// Mutable access to the buffer device (for host-side inspection).
    pub fn buffer_mut(&mut self) -> &mut dyn BufferDevice {
        self.buffer.as_mut()
    }

    /// Raw DRAM cell read, bypassing the buffer device: what is actually
    /// stored in the chips. Zero if never written.
    pub fn peek(&self, rank: usize, bank_index: usize, row: usize, col: usize) -> [u8; 64] {
        match self.index.get(&column_key(rank, row, col)) {
            Some(&slot) => self.columns[slot as usize][bank_index],
            None => [0u8; 64],
        }
    }

    /// Delivers an ACT to the buffer device.
    pub fn activate(&mut self, at: Cycle, rank: usize, bank_index: usize, row: usize) {
        self.buffer.on_activate(at, rank, bank_index, row);
    }

    /// Delivers a PRE to the buffer device.
    pub fn precharge(&mut self, at: Cycle, rank: usize, bank_index: usize) {
        self.buffer.on_precharge(at, rank, bank_index);
    }

    /// Performs a read CAS: reads the chips, lets the buffer device
    /// intercept, and returns the bus data (or `Retry`).
    pub fn rd_cas(&mut self, info: &CasInfo) -> RdResult {
        let dram = self.peek(info.loc.rank, info.bank_index, info.loc.row, info.loc.col);
        self.buffer.on_rd_cas(info, &dram)
    }

    /// Whether the buffer device supports a batched page read at `base`.
    pub fn page_read_supported(&mut self, base: PhysAddr) -> bool {
        self.buffer.page_read_supported(base)
    }

    /// Performs a batched page read: gathers the 64 DRAM lines at the
    /// given `(rank, bank_index, row, col)` coordinates, then lets the
    /// buffer device intercept the whole page at once.
    pub fn rd_page(
        &mut self,
        base: PhysAddr,
        first_at: Cycle,
        stride: u64,
        coords: &[CellCoord; 64],
    ) -> Box<[[u8; 64]; 64]> {
        let mut data = Box::new([[0u8; 64]; 64]);
        for (line, &(rank, bank_index, row, col)) in data.iter_mut().zip(coords) {
            *line = self.peek(rank, bank_index, row, col);
        }
        self.buffer.on_rd_page(base, first_at, stride, &mut data);
        data
    }

    /// Performs a write CAS: lets the buffer device intercept, then
    /// commits (or drops) the data.
    pub fn wr_cas(&mut self, info: &CasInfo, host_data: &[u8; 64]) {
        if let WrResult::Commit(data) = self.buffer.on_wr_cas(info, host_data) {
            let key = column_key(info.loc.rank, info.loc.row, info.loc.col);
            let columns = &mut self.columns;
            let slot = *self.index.entry(key).or_insert_with(|| {
                columns.push([[0u8; 64]; BANKS_PER_RANK]);
                u32::try_from(columns.len() - 1).expect("fewer than 2^32 columns")
            });
            self.columns[slot as usize][info.bank_index] = data;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{AddressMapper, DramSystem, DramTopology, MemorySystemConfig};
    use proptest::prelude::*;
    use simkit::DetRng;
    use std::collections::BTreeMap;

    fn info(rank: usize, bg: usize, bank: usize, row: usize, col: usize) -> CasInfo {
        CasInfo {
            loc: Loc {
                channel: 0,
                rank,
                bg,
                bank,
                row,
                col,
            },
            phys: PhysAddr(0),
            bank_index: bg * 4 + bank,
            at: Cycle(0),
            tag: 0,
        }
    }

    #[test]
    fn passthrough_round_trip() {
        let mut dimm = Dimm::passthrough();
        let i = info(0, 1, 2, 100, 7);
        dimm.wr_cas(&i, &[9u8; 64]);
        match dimm.rd_cas(&i) {
            RdResult::Data(d) => assert_eq!(d, [9u8; 64]),
            RdResult::Retry => panic!("passthrough never retries"),
        }
    }

    #[test]
    fn unwritten_cells_read_zero() {
        let mut dimm = Dimm::passthrough();
        match dimm.rd_cas(&info(0, 0, 0, 0, 0)) {
            RdResult::Data(d) => assert_eq!(d, [0u8; 64]),
            RdResult::Retry => panic!(),
        }
    }

    /// Commits every write whose stream tag is even and ignores the odd
    /// ones, so one run exercises both `WrResult` arms.
    struct TagGated;

    impl BufferDevice for TagGated {
        fn on_activate(&mut self, _: Cycle, _: usize, _: usize, _: usize) {}
        fn on_precharge(&mut self, _: Cycle, _: usize, _: usize) {}
        fn on_rd_cas(&mut self, _: &CasInfo, dram: &[u8; 64]) -> RdResult {
            RdResult::Data(*dram)
        }
        fn on_wr_cas(&mut self, info: &CasInfo, host: &[u8; 64]) -> WrResult {
            if info.tag.is_multiple_of(2) {
                WrResult::Commit(*host)
            } else {
                WrResult::Ignore
            }
        }
        fn as_any_mut(&mut self) -> &mut dyn Any {
            self
        }
    }

    /// A coordinate over 2 ranks, 4 rows, all 16 bank indices and
    /// columns 0..128.
    fn random_coord(rng: &mut DetRng) -> CellCoord {
        (
            rng.gen_range(0..2) as usize,
            rng.gen_range(0..BANKS_PER_RANK as u64) as usize,
            rng.gen_range(0..4) as usize,
            rng.gen_range(0..128) as usize,
        )
    }

    fn cas_at((rank, bank_index, row, col): CellCoord, tag: u64) -> CasInfo {
        CasInfo {
            tag,
            ..info(rank, bank_index / 4, bank_index % 4, row, col)
        }
    }

    proptest! {
        /// The column slab against a per-line map: every read, batched
        /// read and peek agrees with the model after random committed
        /// and ignored writes.
        #[test]
        fn column_slab_matches_per_line_model(seed in any::<u64>()) {
            let mut rng = DetRng::new(seed);
            let mut dimm = Dimm::new(Box::new(TagGated));
            let mut model: BTreeMap<CellCoord, [u8; 64]> = BTreeMap::new();
            let read = |model: &BTreeMap<CellCoord, [u8; 64]>, c: &CellCoord| {
                model.get(c).copied().unwrap_or([0u8; 64])
            };
            for _ in 0..400 {
                let c = random_coord(&mut rng);
                match rng.gen_range(0..4) {
                    0 => {
                        let mut data = [0u8; 64];
                        rng.fill_bytes(&mut data);
                        let tag = rng.gen_range(0..4);
                        dimm.wr_cas(&cas_at(c, tag), &data);
                        if tag.is_multiple_of(2) {
                            model.insert(c, data);
                        }
                    }
                    1 => prop_assert_eq!(dimm.rd_cas(&cas_at(c, 0)), RdResult::Data(read(&model, &c))),
                    2 => prop_assert_eq!(dimm.peek(c.0, c.1, c.2, c.3), read(&model, &c)),
                    _ => {
                        let coords: [CellCoord; 64] = std::array::from_fn(|_| random_coord(&mut rng));
                        let page = dimm.rd_page(PhysAddr(0), Cycle(0), 1, &coords);
                        for (line, c) in page.iter().zip(&coords) {
                            prop_assert_eq!(*line, read(&model, c));
                        }
                    }
                }
            }
        }
    }

    #[test]
    fn a_write_leaves_its_column_neighbours_untouched() {
        let mut dimm = Dimm::passthrough();
        dimm.wr_cas(&cas_at((1, 5, 3, 127), 0), &[0x5Au8; 64]);
        for bank_index in 0..BANKS_PER_RANK {
            let expect = if bank_index == 5 {
                [0x5Au8; 64]
            } else {
                [0u8; 64]
            };
            assert_eq!(
                dimm.peek(1, bank_index, 3, 127),
                expect,
                "bank {bank_index}"
            );
        }
        // Same bank and column, other rank or row: separate columns.
        assert_eq!(dimm.peek(0, 5, 3, 127), [0u8; 64]);
        assert_eq!(dimm.peek(1, 5, 2, 127), [0u8; 64]);
    }

    #[test]
    fn slot_one_is_isolated_from_slot_zero() {
        let topo = DramTopology {
            dimms_per_channel: 2,
            ..DramTopology::default()
        };
        let mapper = AddressMapper::new(topo);
        let mut sys = DramSystem::new(MemorySystemConfig {
            topology: topo,
            ..Default::default()
        });
        // The same (bg, bank, row, col) on rank 0 (slot 0) and rank 1
        // (slot 1).
        let at_rank = |rank| {
            mapper.encode(&Loc {
                channel: 0,
                rank,
                bg: 2,
                bank: 1,
                row: 7,
                col: 9,
            })
        };
        assert_eq!(topo.dimm_slot_of_rank(1), 1);
        sys.write64(at_rank(0), &[0xA0u8; 64]);
        sys.write64(at_rank(1), &[0xB1u8; 64]);
        assert_eq!(sys.read64(at_rank(0)).0, [0xA0u8; 64]);
        assert_eq!(sys.read64(at_rank(1)).0, [0xB1u8; 64]);
        // Slot 0's chips hold only its own rank's line.
        let slot0 = sys.dimm_mut(0);
        assert_eq!(slot0.peek(0, 9, 7, 9), [0xA0u8; 64]);
        assert_eq!(slot0.peek(1, 9, 7, 9), [0u8; 64]);
    }

    #[test]
    fn distinct_coordinates_are_distinct_cells() {
        let mut dimm = Dimm::passthrough();
        dimm.wr_cas(&info(0, 0, 0, 1, 0), &[1u8; 64]);
        dimm.wr_cas(&info(0, 0, 0, 2, 0), &[2u8; 64]);
        assert_eq!(dimm.peek(0, 0, 1, 0), [1u8; 64]);
        assert_eq!(dimm.peek(0, 0, 2, 0), [2u8; 64]);
    }

    /// A buffer device that substitutes data and ignores writes to row 5 —
    /// exercising the interception contract SmartDIMM relies on.
    struct Interceptor {
        retries_left: usize,
    }

    impl BufferDevice for Interceptor {
        fn on_activate(&mut self, _: Cycle, _: usize, _: usize, _: usize) {}
        fn on_precharge(&mut self, _: Cycle, _: usize, _: usize) {}
        fn on_rd_cas(&mut self, _info: &CasInfo, dram: &[u8; 64]) -> RdResult {
            if self.retries_left > 0 {
                self.retries_left -= 1;
                RdResult::Retry
            } else {
                let mut d = *dram;
                d[0] ^= 0xFF;
                RdResult::Data(d)
            }
        }
        fn on_wr_cas(&mut self, info: &CasInfo, host: &[u8; 64]) -> WrResult {
            if info.loc.row == 5 {
                WrResult::Ignore
            } else {
                WrResult::Commit(*host)
            }
        }
        fn as_any_mut(&mut self) -> &mut dyn Any {
            self
        }
    }

    #[test]
    fn interceptor_can_retry_substitute_and_ignore() {
        let mut dimm = Dimm::new(Box::new(Interceptor { retries_left: 2 }));
        let i = info(0, 0, 0, 1, 0);
        dimm.wr_cas(&i, &[0x10u8; 64]);
        assert_eq!(dimm.rd_cas(&i), RdResult::Retry);
        assert_eq!(dimm.rd_cas(&i), RdResult::Retry);
        match dimm.rd_cas(&i) {
            RdResult::Data(d) => {
                assert_eq!(d[0], 0x10 ^ 0xFF);
                assert_eq!(d[1], 0x10);
            }
            RdResult::Retry => panic!("retries exhausted"),
        }
        // Writes to row 5 are ignored.
        let i5 = info(0, 0, 0, 5, 0);
        dimm.wr_cas(&i5, &[0xAAu8; 64]);
        assert_eq!(dimm.peek(0, 0, 5, 0), [0u8; 64]);
    }

    #[test]
    fn buffer_downcast() {
        let mut dimm = Dimm::new(Box::new(Interceptor { retries_left: 7 }));
        let b = dimm
            .buffer_mut()
            .as_any_mut()
            .downcast_mut::<Interceptor>()
            .expect("downcast");
        assert_eq!(b.retries_left, 7);
    }
}
