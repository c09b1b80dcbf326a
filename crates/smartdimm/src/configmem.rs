//! Config Memory and the MMIO register map (§IV-C).
//!
//! SmartDIMM is configured entirely through 64-byte MMIO accesses to a
//! reserved physical range that the buffer device intercepts (writes are
//! consumed, never reaching the DRAM chips):
//!
//! | offset | dir | contents |
//! |--------|-----|----------|
//! | [`STATUS_OFFSET`] | read | free scratchpad pages, pending-page count, recycle counters |
//! | [`REGISTER_OFFSET`] | write | a [`Registration`] descriptor (one per 4 KB page pair) |
//! | [`CONTEXT_OFFSET`] | write | a [`ContextChunk`] carrying one 48-byte [`crate::dsa::OffloadContext`] (op, key, IV, AAD, length, engine flags) |
//! | [`RESULT_BASE`]`+ slot*64` | read | a [`ResultSlot`]: status, output length, authentication tag |
//! | [`PENDING_BASE`]`+ i*64` | read | Algorithm 1's pending list: 4 × (dst page addr, valid-line bitmap) |
//!
//! The context for one TLS offload (key, IV, AAD, length) fits one MMIO
//! write, matching the paper's single-64-byte-registration claim; the
//! precomputed powers of H that the paper also stores in Config Memory
//! are generated device-side by the GF multiplier as soon as the
//! registration lands: one power per full cacheline, in strides of `H^4`
//! (see `ulp_crypto::gcm::OooGcm::with_metadata_policy`).
//!
//! [`ConfigWindow`] places these offsets in every channel's physical
//! address space, for the host and the device alike.

#![deny(missing_docs)]

use dram::{AddressMapper, DramTopology, PhysAddr};

/// Read-only status register offset.
pub const STATUS_OFFSET: u64 = 0x000;
/// Registration descriptor write offset.
pub const REGISTER_OFFSET: u64 = 0x040;
/// Context chunk write offset.
pub const CONTEXT_OFFSET: u64 = 0x080;
/// Base of the result-slot array (read-only).
pub const RESULT_BASE: u64 = 0x10000;
/// Base of the pending-pages list (read-only).
pub const PENDING_BASE: u64 = 0x20000;
/// Total size of the MMIO config space in bytes.
pub const CONFIG_SPACE_SIZE: u64 = 0x40000;
/// Base physical address of the MMIO config space (page aligned).
pub const CONFIG_BASE: PhysAddr = PhysAddr(0x4000_0000);
/// Result slots in Config Memory; offload `id` reports through slot
/// `id % RESULT_SLOTS`.
pub const RESULT_SLOTS: usize = 1024;

const _: () = assert!(CONFIG_BASE.0.is_multiple_of(4096), "config base alignment");

/// Every channel's private Config Memory window, and the result slot
/// each offload reports through (§V-D). The window is channel-local:
/// channel `c`'s is its first `CONFIG_SPACE_SIZE / 64` lines at or after
/// the window's base ([`CONFIG_BASE`] on the simulated machine), and
/// logical offset `o` sits in the `o / 64`-th of them, whether or not the
/// base is a multiple of the interleave period.
#[derive(Debug, Clone)]
pub struct ConfigWindow {
    mapper: AddressMapper,
    /// Physical cacheline index of the window's base.
    base_line: u64,
    /// One past the last physical byte of any channel's window.
    end: u64,
}

impl ConfigWindow {
    /// The windows of `topology`'s channels, starting at the
    /// (line-aligned) `base`.
    pub fn new(base: PhysAddr, topology: DramTopology) -> ConfigWindow {
        let mut window = ConfigWindow {
            mapper: AddressMapper::new(topology),
            base_line: base.0 >> 6,
            end: 0,
        };
        window.end = (0..topology.channels)
            .map(|c| window.alias(CONFIG_SPACE_SIZE - 64, c).0 + 64)
            .max()
            .unwrap_or(base.0);
        window
    }

    /// The lowest physical address of any channel's window.
    pub fn start(&self) -> PhysAddr {
        PhysAddr(self.base_line << 6)
    }

    /// The physical address of logical register offset `offset` in
    /// `channel`'s window.
    pub fn alias(&self, offset: u64, channel: usize) -> PhysAddr {
        let first = self.mapper.lines_below(channel, self.base_line);
        let line = self.mapper.merge_line(channel, first + offset / 64);
        PhysAddr((line << 6) + offset % 64)
    }

    /// The logical register offset of `addr` within the window of the
    /// channel it decodes to, or `None` outside every window.
    pub fn offset_of(&self, addr: PhysAddr) -> Option<u64> {
        if addr.0 < self.start().0 || addr.0 >= self.end {
            return None;
        }
        let (channel, local) = self.mapper.split_line(addr.0 >> 6);
        let rel = local.checked_sub(self.mapper.lines_below(channel, self.base_line))?;
        (rel < CONFIG_SPACE_SIZE / 64).then_some(rel * 64 + addr.0 % 64)
    }

    /// The result slot offload `offload_id` reports through.
    pub fn result_slot(&self, offload_id: u64) -> usize {
        (offload_id % RESULT_SLOTS as u64) as usize
    }
}

/// Offload status codes stored in result slots.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum OffloadStatus {
    /// DSA still consuming input.
    InProgress,
    /// Completed successfully.
    Done,
    /// Completed, but the page did not compress below its original size;
    /// the "output" is the raw input (software sends it uncompressed).
    Incompressible,
    /// The DSA hit an error (e.g. a corrupt stream fed to the inflater).
    Error,
    /// A per-channel partial result under memory-channel interleaving
    /// (§V-D): `out_len` is the bytes this DIMM processed and `tag` its
    /// raw GHASH accumulator, to be XOR-combined host-side.
    Partial,
}

impl OffloadStatus {
    fn to_byte(self) -> u8 {
        match self {
            OffloadStatus::InProgress => 0,
            OffloadStatus::Done => 1,
            OffloadStatus::Incompressible => 2,
            OffloadStatus::Error => 3,
            OffloadStatus::Partial => 4,
        }
    }

    fn from_byte(b: u8) -> OffloadStatus {
        match b {
            1 => OffloadStatus::Done,
            2 => OffloadStatus::Incompressible,
            3 => OffloadStatus::Error,
            4 => OffloadStatus::Partial,
            _ => OffloadStatus::InProgress,
        }
    }
}

/// The `N`-byte field at `at` of a 64-byte MMIO line. Every descriptor
/// field lies inside the line, so the zero fallback never fires; it
/// only keeps the MMIO decode path free of panics.
fn field<const N: usize>(b: &[u8; 64], at: usize) -> [u8; N] {
    b.get(at..)
        .and_then(<[u8]>::first_chunk)
        .copied()
        .unwrap_or([0; N])
}

/// The little-endian `u64` at `at` of a 64-byte MMIO line.
fn le_u64(b: &[u8; 64], at: usize) -> u64 {
    u64::from_le_bytes(field(b, at))
}

/// A decoded result slot.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ResultSlot {
    /// Completion status.
    pub status: OffloadStatus,
    /// Output length in bytes (for TLS: the message length; for
    /// compression: the compressed size).
    pub out_len: u64,
    /// AES-GCM authentication tag (TLS offloads only; zero otherwise).
    pub tag: [u8; 16],
}

impl ResultSlot {
    /// An empty in-progress slot.
    pub fn empty() -> ResultSlot {
        ResultSlot {
            status: OffloadStatus::InProgress,
            out_len: 0,
            tag: [0u8; 16],
        }
    }

    /// Serializes to the 64-byte MMIO view.
    pub fn to_bytes(&self) -> [u8; 64] {
        let mut b = [0u8; 64];
        b[0] = self.status.to_byte();
        b[8..16].copy_from_slice(&self.out_len.to_le_bytes());
        b[16..32].copy_from_slice(&self.tag);
        b
    }

    /// Parses the 64-byte MMIO view.
    pub fn from_bytes(b: &[u8; 64]) -> ResultSlot {
        ResultSlot {
            status: OffloadStatus::from_byte(b[0]),
            out_len: le_u64(b, 8),
            tag: field(b, 16),
        }
    }
}

/// A page-pair registration descriptor (one 64-byte MMIO write).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Registration {
    /// Software-assigned offload id (also selects the result slot).
    pub offload_id: u64,
    /// Page-aligned physical address of the source page.
    pub src_page_addr: u64,
    /// Page-aligned physical address of the destination page.
    pub dst_page_addr: u64,
    /// Byte offset of this page within the offload's message.
    pub msg_offset: u64,
}

impl Registration {
    /// Serializes to the 64-byte MMIO payload.
    pub fn to_bytes(&self) -> [u8; 64] {
        let mut b = [0u8; 64];
        b[0..8].copy_from_slice(&self.offload_id.to_le_bytes());
        b[8..16].copy_from_slice(&self.src_page_addr.to_le_bytes());
        b[16..24].copy_from_slice(&self.dst_page_addr.to_le_bytes());
        b[24..32].copy_from_slice(&self.msg_offset.to_le_bytes());
        b
    }

    /// Parses the 64-byte MMIO payload.
    pub fn from_bytes(b: &[u8; 64]) -> Registration {
        Registration {
            offload_id: le_u64(b, 0),
            src_page_addr: le_u64(b, 8),
            dst_page_addr: le_u64(b, 16),
            msg_offset: le_u64(b, 24),
        }
    }
}

/// A per-offload context chunk (one 64-byte MMIO write).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ContextChunk {
    /// Offload this context belongs to.
    pub offload_id: u64,
    /// Context payload ([`crate::dsa::OffloadContext::encode`]).
    pub payload: [u8; 48],
}

impl ContextChunk {
    /// Serializes to the 64-byte MMIO payload.
    pub fn to_bytes(&self) -> [u8; 64] {
        let mut b = [0u8; 64];
        b[0..8].copy_from_slice(&self.offload_id.to_le_bytes());
        b[16..64].copy_from_slice(&self.payload);
        b
    }

    /// Parses the 64-byte MMIO payload.
    pub fn from_bytes(b: &[u8; 64]) -> ContextChunk {
        ContextChunk {
            offload_id: le_u64(b, 0),
            payload: field(b, 16),
        }
    }
}

/// One pending-list record: a destination page still holding valid
/// Scratchpad lines, with the bitmap of those lines. Four records fit one
/// 64-byte MMIO read.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PendingRecord {
    /// Page-aligned physical address of the destination page.
    pub dst_page_addr: u64,
    /// Bit `i` set = line `i` is valid (produced, awaiting recycle).
    pub valid_bitmap: u64,
}

/// Packs up to four pending records into one MMIO line.
pub fn pack_pending(records: &[PendingRecord]) -> [u8; 64] {
    assert!(records.len() <= 4, "four records per MMIO line");
    let mut b = [0u8; 64];
    for (i, r) in records.iter().enumerate() {
        b[i * 16..i * 16 + 8].copy_from_slice(&r.dst_page_addr.to_le_bytes());
        b[i * 16 + 8..i * 16 + 16].copy_from_slice(&r.valid_bitmap.to_le_bytes());
    }
    b
}

/// Unpacks the records of one MMIO line (addresses of 0 terminate).
pub fn unpack_pending(b: &[u8; 64]) -> Vec<PendingRecord> {
    let mut out = Vec::new();
    for i in 0..4 {
        let addr = le_u64(b, i * 16);
        if addr == 0 {
            break;
        }
        let bitmap = le_u64(b, i * 16 + 8);
        out.push(PendingRecord {
            dst_page_addr: addr,
            valid_bitmap: bitmap,
        });
    }
    out
}

/// Decoded status register.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct StatusReg {
    /// Free scratchpad pages (`SmartDIMMConfig[0]` in Algorithm 2).
    pub free_pages: u64,
    /// Allocated (pending) scratchpad pages.
    pub pending_pages: u64,
    /// Total lines self-recycled so far.
    pub self_recycled: u64,
    /// Total premature writebacks ignored (S7 events).
    pub ignored_writebacks: u64,
}

impl StatusReg {
    /// Serializes to the 64-byte MMIO view.
    pub fn to_bytes(&self) -> [u8; 64] {
        let mut b = [0u8; 64];
        b[0..8].copy_from_slice(&self.free_pages.to_le_bytes());
        b[8..16].copy_from_slice(&self.pending_pages.to_le_bytes());
        b[16..24].copy_from_slice(&self.self_recycled.to_le_bytes());
        b[24..32].copy_from_slice(&self.ignored_writebacks.to_le_bytes());
        b
    }

    /// Parses the 64-byte MMIO view.
    pub fn from_bytes(b: &[u8; 64]) -> StatusReg {
        StatusReg {
            free_pages: le_u64(b, 0),
            pending_pages: le_u64(b, 8),
            self_recycled: le_u64(b, 16),
            ignored_writebacks: le_u64(b, 24),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn registration_round_trip() {
        let r = Registration {
            offload_id: 77,
            src_page_addr: 0x1000,
            dst_page_addr: 0x5000,
            msg_offset: 8192,
        };
        assert_eq!(Registration::from_bytes(&r.to_bytes()), r);
    }

    #[test]
    fn context_round_trip() {
        let c = ContextChunk {
            offload_id: 3,
            payload: [0xAB; 48],
        };
        assert_eq!(ContextChunk::from_bytes(&c.to_bytes()), c);
    }

    #[test]
    fn result_round_trip() {
        let r = ResultSlot {
            status: OffloadStatus::Incompressible,
            out_len: 4096,
            tag: [5u8; 16],
        };
        assert_eq!(ResultSlot::from_bytes(&r.to_bytes()), r);
        assert_eq!(ResultSlot::empty().status, OffloadStatus::InProgress);
    }

    #[test]
    fn status_reg_round_trip() {
        let s = StatusReg {
            free_pages: 2048,
            pending_pages: 3,
            self_recycled: 999,
            ignored_writebacks: 7,
        };
        assert_eq!(StatusReg::from_bytes(&s.to_bytes()), s);
    }

    #[test]
    fn pending_pack_unpack() {
        let records = vec![
            PendingRecord {
                dst_page_addr: 0x4000,
                valid_bitmap: 0b1011,
            },
            PendingRecord {
                dst_page_addr: 0x9000,
                valid_bitmap: u64::MAX,
            },
        ];
        let packed = pack_pending(&records);
        assert_eq!(unpack_pending(&packed), records);
        assert!(unpack_pending(&[0u8; 64]).is_empty());
    }

    proptest! {
        /// Every logical offset of every channel's window has an alias
        /// that decodes to that channel and maps back to the offset, for
        /// any channel count and any page-aligned base — also one that is
        /// not a multiple of the interleave period (3 or 6 channels). On
        /// a period-aligned base the alias is the historical layout:
        /// whole periods of `channels × interleave` lines from the base.
        #[test]
        fn prop_window_alias_round_trips(
            channels in 1usize..=6,
            gran_log in 0u32..8,
            base_page in 0x4_0000u64..0x4_0100,
            line in 0..CONFIG_SPACE_SIZE / 64,
            byte in 0u64..64,
            pick in 0usize..6,
        ) {
            let topo = DramTopology {
                channels,
                channel_interleave_lines: 1 << gran_log,
                ..DramTopology::default()
            };
            let base = PhysAddr(base_page << 12);
            let window = ConfigWindow::new(base, topo);
            let mapper = AddressMapper::new(topo);
            let (channel, offset) = (pick % channels, line * 64 + byte);
            let alias = window.alias(offset, channel);
            prop_assert!(alias >= window.start());
            // The window opens at the channel's first line at or after
            // the base: its line before that lies below the base.
            let (c, first) = mapper.split_line(window.alias(0, channel).0 >> 6);
            prop_assert!(window.alias(0, channel) >= base);
            prop_assert!(first == 0 || mapper.merge_line(c, first - 1) < base.0 >> 6);
            prop_assert_eq!(mapper.decode(alias).channel, channel);
            prop_assert_eq!(window.offset_of(alias), Some(offset));
            let period = (channels << gran_log) as u64;
            if (base.0 / 64).is_multiple_of(period) {
                let g = 1u64 << gran_log;
                let phys_line = (line / g) * period + channel as u64 * g + line % g;
                prop_assert_eq!(alias, PhysAddr(base.0 + phys_line * 64 + byte));
            }
        }
    }

    #[test]
    fn window_edges_and_result_slots() {
        let topo = DramTopology {
            channels: 3,
            channel_interleave_lines: 64,
            ..DramTopology::default()
        };
        let window = ConfigWindow::new(CONFIG_BASE, topo);
        assert_eq!(window.offset_of(PhysAddr(CONFIG_BASE.0 - 64)), None);
        for channel in 0..3 {
            assert!(window.alias(0, channel) >= window.start());
            let last = window.alias(CONFIG_SPACE_SIZE - 64, channel);
            assert_eq!(window.offset_of(last), Some(CONFIG_SPACE_SIZE - 64));
            // The line after a window's last belongs to no window.
            let past = window.alias(CONFIG_SPACE_SIZE, channel);
            assert_eq!(window.offset_of(past), None);
        }
        assert_eq!(window.result_slot(RESULT_SLOTS as u64 + 9), 9);
    }

    #[test]
    #[allow(clippy::assertions_on_constants)]
    fn mmio_regions_do_not_overlap() {
        assert!(REGISTER_OFFSET >= STATUS_OFFSET + 64);
        assert!(CONTEXT_OFFSET >= REGISTER_OFFSET + 64);
        assert!(RESULT_BASE >= CONTEXT_OFFSET + 64);
        assert!(PENDING_BASE >= RESULT_BASE + 64 * RESULT_SLOTS as u64);
        assert!(CONFIG_SPACE_SIZE >= PENDING_BASE + 64 * 512);
    }
}
