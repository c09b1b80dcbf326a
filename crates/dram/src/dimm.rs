//! The DIMM: DRAM chip storage plus the buffer device through which every
//! command and data burst passes.
//!
//! On a real module, the registering clock driver / data buffers sit
//! between the DDR bus and the DRAM chips; SmartDIMM adds its logic
//! there. [`BufferDevice`] is that interception point: it observes
//! ACT/PRE (to maintain a Bank Table), sees every rdCAS/wrCAS with its
//! data burst, and can substitute data, ignore writes, or NACK reads via
//! `ALERT_N` ([`RdResult::Retry`]).

use std::any::Any;
use std::collections::BTreeMap;

use simkit::Cycle;

use crate::addr::{Loc, PhysAddr};

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

/// One DIMM: sparse DRAM storage plus its buffer device.
///
/// Storage is keyed by DRAM coordinates, not physical address — the chips
/// know nothing about the system address map.
pub struct Dimm {
    cells: BTreeMap<CellCoord, [u8; 64]>,
    buffer: Box<dyn BufferDevice>,
}

impl std::fmt::Debug for Dimm {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Dimm")
            .field("populated_lines", &self.cells.len())
            .finish()
    }
}

impl Dimm {
    /// Creates a DIMM with the given buffer device.
    pub fn new(buffer: Box<dyn BufferDevice>) -> Dimm {
        Dimm {
            cells: BTreeMap::new(),
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

    /// Raw DRAM cell read, bypassing the buffer device (test/debug use:
    /// "what is actually stored in the chips").
    pub fn peek(&self, rank: usize, bank_index: usize, row: usize, col: usize) -> [u8; 64] {
        self.cells
            .get(&(rank, bank_index, row, col))
            .copied()
            .unwrap_or([0u8; 64])
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
        let key = (info.loc.rank, info.bank_index, info.loc.row, info.loc.col);
        let dram = self.cells.get(&key).copied().unwrap_or([0u8; 64]);
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
        // Page lines stripe across banks, so sorted by coordinate they
        // form a handful of runs of consecutive columns in one
        // (rank, bank, row). Each run is one ordered range scan of the
        // cell map instead of 64 independent tree descents.
        let mut order: [(&CellCoord, usize); 64] = std::array::from_fn(|i| (&coords[i], i));
        order.sort_unstable_by_key(|&(key, _)| key);
        let mut g = 0;
        while g < order.len() {
            let (lo, _) = order[g];
            let mut h = g + 1;
            while h < order.len() {
                let (k, _) = order[h];
                if (k.0, k.1, k.2) == (lo.0, lo.1, lo.2) && k.3 == order[h - 1].0 .3 + 1 {
                    h += 1;
                } else {
                    break;
                }
            }
            let (hi, _) = order[h - 1];
            for (key, cell) in self.cells.range(*lo..=*hi) {
                data[order[g + (key.3 - lo.3)].1] = *cell;
            }
            g = h;
        }
        self.buffer.on_rd_page(base, first_at, stride, &mut data);
        data
    }

    /// Performs a write CAS: lets the buffer device intercept, then
    /// commits (or drops) the data.
    pub fn wr_cas(&mut self, info: &CasInfo, host_data: &[u8; 64]) {
        match self.buffer.on_wr_cas(info, host_data) {
            WrResult::Commit(data) => {
                let key = (info.loc.rank, info.bank_index, info.loc.row, info.loc.col);
                self.cells.insert(key, data);
            }
            WrResult::Ignore => {}
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

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
