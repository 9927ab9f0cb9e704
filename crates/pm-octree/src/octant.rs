//! On-media octant layout and the persistent store.
//!
//! Each NVBM-resident octant is a fixed 128-byte record — exactly two
//! cachelines, split **hot/cold** (layout v2): the first line carries
//! *everything a root-to-leaf descent needs* — compact child links, the
//! locational key, the child-presence mask, and the epoch — while the
//! second line holds the solver payload. A tree walk therefore charges
//! exactly one NVBM line per hop: one read ([`OctAccess::nav_line`])
//! answers every question asked of an octant on the way — which child,
//! which key, leaf or not, shared or exclusive; data sweeps touch only
//! the cold line.
//!
//! ```text
//! line 0 (hot / navigation):
//!      0..48   children[8]  8 × 6-byte compact links (see encoding)
//!     48..56   key code     u64 Morton code
//!     56       key level    u8
//!     57       (reserved, zero — the recovery scan rejects anything else)
//!     58       child mask   u8  bit i set ⟺ children[i] non-null
//!     59       (pad)
//!     60..64   epoch        u32 creation epoch (version ownership)
//! line 1 (cold / payload):
//!     64..72   (reserved, zero)
//!     72..104  payload      4 × f64 (CellData)
//!    104..128  (pad)
//! ```
//!
//! **Pointer encoding** (the paper's "special pointers" linking persistent
//! and volatile octants): a 6-byte child link holds 0 (null), an NVBM
//! offset *divided by 64* (octant records are cacheline-aligned, so the
//! low 6 bits are always zero and 48 bits address 2^54 bytes of media),
//! or — with bit 47 set — a *volatile handle*: the id of a DRAM-resident
//! C0 subtree. Volatile handles are meaningless after a crash; that is
//! safe because recovery never follows `V_i` pointers, it returns to the
//! fully-NVBM `V_{i-1}`.

use crate::api::PmError;
use pmoctree_morton::OctKey;
use pmoctree_nvbm::{NvbmArena, POffset, PmemAllocator};

/// Size of one on-media octant record.
pub const OCTANT_SIZE: usize = 128;

/// Fanout of the 3D octree.
pub const FANOUT: usize = 8;

const OFF_LINKS: u64 = 0;
const LINK_SIZE: u64 = 6;
const OFF_CODE: u64 = 48;
const OFF_LEVEL: u64 = 56;
const OFF_RESERVED: u64 = 57;
const OFF_MASK: u64 = 58;
const OFF_EPOCH: u64 = 60;
const OFF_DATA: u64 = 72;

/// Bit 47 of a compact child link marks a volatile (DRAM) handle.
const VOLATILE_BIT: u64 = 1 << 47;

/// A decoded child pointer.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum ChildPtr {
    /// Empty slot.
    Null,
    /// Persistent octant in NVBM.
    Nvbm(POffset),
    /// DRAM-resident C0 subtree with this volatile id.
    Volatile(u32),
}

impl ChildPtr {
    /// Encode to the compact 48-bit link value (fits the 6-byte slot).
    /// NVBM offsets are stored divided by 64: records are
    /// cacheline-aligned and live above the arena header, so the
    /// quotient is non-zero and never collides with null or bit 47.
    #[inline]
    pub fn encode(self) -> u64 {
        match self {
            ChildPtr::Null => 0,
            ChildPtr::Nvbm(p) => {
                // Release-mode guard: an unaligned or null offset here
                // would silently corrupt the link; the crash sweep runs
                // in `--release`, so this must not be a debug_assert.
                assert!(
                    !p.is_null() && p.0 % 64 == 0 && p.0 >> 6 < VOLATILE_BIT,
                    "unencodable NVBM child link: {:#x}",
                    p.0
                );
                p.0 >> 6
            }
            ChildPtr::Volatile(id) => VOLATILE_BIT | id as u64,
        }
    }

    /// Decode from the compact 48-bit link value, rejecting malformed
    /// encodings instead of silently truncating them: a link wider than
    /// 6 bytes, or a volatile handle carrying garbage in bits 32..47, is
    /// a corrupted record, not a pointer. This is the checked entry point
    /// recovery scans use ([`OctAccess::nav_line_checked`]); the hot path
    /// goes through [`ChildPtr::decode`], which asserts instead.
    #[inline]
    pub fn try_decode(raw: u64) -> Result<Self, PmError> {
        if raw >= 1 << 48 {
            return Err(PmError::Corrupt(format!("child link {raw:#x} exceeds 6 bytes")));
        }
        if raw == 0 {
            Ok(ChildPtr::Null)
        } else if raw & VOLATILE_BIT != 0 {
            if raw & !(VOLATILE_BIT | 0xffff_ffff) != 0 {
                return Err(PmError::Corrupt(format!(
                    "volatile child link {raw:#x} has non-zero reserved bits"
                )));
            }
            Ok(ChildPtr::Volatile((raw & 0xffff_ffff) as u32))
        } else {
            Ok(ChildPtr::Nvbm(POffset(raw << 6)))
        }
    }

    /// Decode from the compact 48-bit link value. Panics on a malformed
    /// encoding — in release builds too (see [`ChildPtr::try_decode`]):
    /// following a corrupted link silently is how a bad traversal turns
    /// into bad committed state.
    #[inline]
    pub fn decode(raw: u64) -> Self {
        match Self::try_decode(raw) {
            Ok(c) => c,
            Err(e) => panic!("corrupt child link: {e}"),
        }
    }

    /// Is this an empty slot?
    #[inline]
    pub fn is_null(&self) -> bool {
        matches!(self, ChildPtr::Null)
    }
}

/// Write a 48-bit link value into a 6-byte slot of `buf`.
#[inline]
fn put_link(buf: &mut [u8], i: usize, raw: u64) {
    debug_assert!(raw < 1 << 48);
    buf[i * 6..i * 6 + 6].copy_from_slice(&raw.to_le_bytes()[..6]);
}

/// Read the 48-bit link value from a 6-byte slot of `buf`.
#[inline]
fn get_link(buf: &[u8], i: usize) -> u64 {
    let mut b = [0u8; 8];
    b[..6].copy_from_slice(&buf[i * 6..i * 6 + 6]);
    u64::from_le_bytes(b)
}

/// Per-cell simulation payload: the fields a Gerris-style finite-volume
/// multiphase solver keeps per cell.
#[derive(Clone, Copy, Debug, Default, PartialEq)]
pub struct CellData {
    /// Signed distance to the liquid interface (level-set value).
    pub phi: f64,
    /// Pressure (smoothed by solver sweeps).
    pub pressure: f64,
    /// Volume-of-fluid fraction in `[0, 1]`.
    pub vof: f64,
    /// Accumulated work estimate (used as a partitioning weight).
    pub work: f64,
}

impl CellData {
    fn to_bytes(self) -> [u8; 32] {
        let mut b = [0u8; 32];
        b[0..8].copy_from_slice(&self.phi.to_le_bytes());
        b[8..16].copy_from_slice(&self.pressure.to_le_bytes());
        b[16..24].copy_from_slice(&self.vof.to_le_bytes());
        b[24..32].copy_from_slice(&self.work.to_le_bytes());
        b
    }

    fn from_bytes(b: &[u8; 32]) -> Self {
        let f = |r: std::ops::Range<usize>| f64::from_le_bytes(b[r].try_into().expect("8 bytes"));
        CellData { phi: f(0..8), pressure: f(8..16), vof: f(16..24), work: f(24..32) }
    }
}

/// A decoded navigation line (octant line 0): every hot field of an
/// octant, delivered by one cacheline read ([`OctAccess::nav_line`]).
/// Whatever a walker wants to know about an octant short of its payload
/// — a child link, the key, leaf or not (`mask == 0`), shared or exclusive
/// (`epoch`) — it takes from here, so no octant is charged twice.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct NavLine {
    /// Child pointers in Morton order.
    pub children: [ChildPtr; FANOUT],
    /// Raw Morton code. Unvalidated: `OctKey::from_raw` panics on a
    /// malformed pair, so recovery checks it before decoding.
    pub code: u64,
    /// Raw refinement level (unvalidated).
    pub level: u8,
    /// Child-presence mask: bit `i` set iff `children[i]` is non-null.
    pub mask: u8,
    /// Creation epoch: an octant with `epoch` older than the working
    /// epoch is shared with `V_{i-1}` and must be copied before mutation.
    pub epoch: u32,
}

/// A whole octant record, as [`OctAccess::alloc_octant`] stores it.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Octant {
    /// Child pointers in Morton order.
    pub children: [ChildPtr; FANOUT],
    /// Locational code.
    pub key: OctKey,
    /// Creation epoch.
    pub epoch: u32,
    /// Simulation payload.
    pub data: CellData,
}

impl Octant {
    /// A fresh leaf octant.
    pub fn leaf(key: OctKey, epoch: u32, data: CellData) -> Self {
        Octant { children: [ChildPtr::Null; FANOUT], key, epoch, data }
    }

    /// The 128-byte on-media record (presence mask derived from the
    /// links, reserved bytes zero).
    fn to_bytes(self) -> [u8; OCTANT_SIZE] {
        let mut buf = [0u8; OCTANT_SIZE];
        for (i, c) in self.children.iter().enumerate() {
            put_link(&mut buf, i, c.encode());
            if !c.is_null() {
                buf[OFF_MASK as usize] |= 1 << i;
            }
        }
        buf[OFF_CODE as usize..OFF_CODE as usize + 8]
            .copy_from_slice(&self.key.raw().to_le_bytes());
        buf[OFF_LEVEL as usize] = self.key.level();
        buf[OFF_EPOCH as usize..OFF_EPOCH as usize + 4].copy_from_slice(&self.epoch.to_le_bytes());
        buf[OFF_DATA as usize..OFF_DATA as usize + 32].copy_from_slice(&self.data.to_bytes());
        buf
    }
}

/// The persistent store: an NVBM arena + allocator + the volatile registry
/// of allocated octants (rebuilt from the GC mark set after a crash).
pub struct PmStore {
    /// The emulated NVBM device.
    pub arena: NvbmArena,
    /// Volatile free-space management.
    pub alloc: PmemAllocator,
    /// Every currently-allocated octant offset (sweep set for GC).
    pub registry: Vec<POffset>,
}

impl PmStore {
    /// A store over a fresh arena.
    pub fn new(arena: NvbmArena) -> Self {
        let cap = arena.capacity();
        PmStore { arena, alloc: PmemAllocator::new(cap, OCTANT_SIZE), registry: Vec::new() }
    }

    /// Free an octant's space (GC sweep). The registry entry must be
    /// removed separately (GC rebuilds the registry wholesale).
    pub fn free_octant(&mut self, p: POffset) {
        self.alloc.free(p);
    }

    /// Crash recovery of the volatile state from the address-sorted set
    /// of reachable octants: the allocator is rebuilt around them (every
    /// orphan's space is reclaimed — the paper's "no allocator logging"),
    /// its bump pointer published, and the registry replaced by the live
    /// set.
    pub fn rebuild_from_live(&mut self, live: Vec<POffset>) {
        self.alloc = PmemAllocator::rebuild(
            self.arena.capacity(),
            OCTANT_SIZE,
            self.arena.bump_hint(),
            live.iter().copied(),
        );
        self.arena.publish_bump(self.alloc.bump());
        self.registry = live;
    }
}

impl OctAccess for PmStore {
    fn io_read(&mut self, offset: u64, buf: &mut [u8]) {
        self.arena.read(offset, buf);
    }

    fn io_write(&mut self, offset: u64, data: &[u8]) {
        self.arena.write(offset, data);
    }

    fn alloc_block(&mut self) -> Result<POffset, PmError> {
        self.alloc.set_limit(self.arena.live_rt_floor());
        let p = self
            .alloc
            .alloc()
            .ok_or_else(|| PmError::Full("NVBM arena full allocating an octant".into()))?;
        self.arena.publish_bump(self.alloc.bump());
        self.registry.push(p);
        Ok(p)
    }
}

/// Octant-granular access over any device view that can read bytes,
/// write bytes, and allocate 128-byte records.
///
/// [`PmStore`] implements it over the live arena; the COW mutation code
/// in `c1` is generic over it, so a test can put a counting view between
/// an op and the device.
///
/// The read side is two questions, one per line of the record:
/// [`OctAccess::nav_line`] (checked: [`OctAccess::nav_line_checked`]) and
/// [`OctAccess::data`]. There are no per-field probes — a caller that
/// wants a link, the key, the mask or the epoch decodes the navigation
/// line once and keeps it, which is what makes "one charged line per
/// octant visited" a property of the interface instead of a habit.
pub trait OctAccess {
    /// Read `buf.len()` bytes at `offset` from this view of the device.
    fn io_read(&mut self, offset: u64, buf: &mut [u8]);

    /// Write `data` at `offset` into this view of the device.
    fn io_write(&mut self, offset: u64, data: &[u8]);

    /// Allocate one cacheline-aligned [`OCTANT_SIZE`] record.
    /// [`PmError::Full`] when the device is exhausted.
    fn alloc_block(&mut self) -> Result<POffset, PmError>;

    /// Allocate a new octant and store its whole record (one two-line
    /// write); returns its offset, or [`PmError::Full`] with nothing
    /// mutated when space is exhausted.
    fn alloc_octant(&mut self, o: &Octant) -> Result<POffset, PmError> {
        let p = self.alloc_block()?;
        self.io_write(p.0, &o.to_bytes());
        Ok(p)
    }

    /// Decode the whole navigation line in one 64-byte read: children,
    /// raw key, presence mask, and epoch — exactly one charged line.
    #[inline]
    fn nav_line(&mut self, p: POffset) -> NavLine {
        let mut buf = [0u8; 64];
        self.io_read(p.0, &mut buf);
        let mut children = [ChildPtr::Null; FANOUT];
        for (i, c) in children.iter_mut().enumerate() {
            *c = ChildPtr::decode(get_link(&buf, i));
        }
        decode_nav_tail(&buf, children)
    }

    /// [`OctAccess::nav_line`] with checked decoding: a corrupted child
    /// link or a non-zero reserved byte surfaces as [`PmError::Corrupt`]
    /// instead of a panic (or of going unnoticed). Recovery validation
    /// and `verify` scans use this — they run over media that a crash (or
    /// a poison test) may have mangled, and must report, not abort.
    fn nav_line_checked(&mut self, p: POffset) -> Result<NavLine, PmError> {
        let mut buf = [0u8; 64];
        self.io_read(p.0, &mut buf);
        let mut children = [ChildPtr::Null; FANOUT];
        for (i, c) in children.iter_mut().enumerate() {
            *c = ChildPtr::try_decode(get_link(&buf, i))
                .map_err(|e| PmError::Corrupt(format!("octant {:#x} child {i}: {e}", p.0)))?;
        }
        if buf[OFF_RESERVED as usize] != 0 {
            return Err(PmError::Corrupt(format!(
                "octant {:#x}: reserved byte {OFF_RESERVED} holds {:#04x}, nothing stores there",
                p.0, buf[OFF_RESERVED as usize]
            )));
        }
        Ok(decode_nav_tail(&buf, children))
    }

    /// Read the payload (the cold line).
    #[inline]
    fn data(&mut self, p: POffset) -> CellData {
        let mut b = [0u8; 32];
        self.io_read(p.0 + OFF_DATA, &mut b);
        CellData::from_bytes(&b)
    }

    /// Write the payload.
    #[inline]
    fn set_data(&mut self, p: POffset, d: &CellData) {
        self.io_write(p.0 + OFF_DATA, &d.to_bytes());
    }

    /// Write one child pointer, keeping the presence mask coherent (one
    /// mask read-modify-write; all traffic stays on the navigation line).
    #[inline]
    fn set_child(&mut self, p: POffset, i: usize, c: ChildPtr) {
        debug_assert!(i < FANOUT);
        let raw = c.encode();
        self.io_write(p.0 + OFF_LINKS + LINK_SIZE * i as u64, &raw.to_le_bytes()[..6]);
        let mut m = [0u8; 1];
        self.io_read(p.0 + OFF_MASK, &mut m);
        let nm = if c.is_null() { m[0] & !(1 << i) } else { m[0] | (1 << i) };
        self.io_write(p.0 + OFF_MASK, &[nm]);
    }

    /// Re-point the *occupied* slot `i` at `c` (non-null): the 6-byte link
    /// store alone. A non-null link replacing a non-null link leaves the
    /// presence mask as it is, so there is nothing to read or fix up — a
    /// slot whose nullness changes goes through [`OctAccess::set_child`].
    /// The caller vouches for the old link (it holds the line it came
    /// from); probing it here would cost the read this call saves.
    #[inline]
    fn set_link(&mut self, p: POffset, i: usize, c: ChildPtr) {
        debug_assert!(i < FANOUT);
        debug_assert!(!c.is_null(), "set_link cannot empty a slot");
        self.io_write(p.0 + OFF_LINKS + LINK_SIZE * i as u64, &c.encode().to_le_bytes()[..6]);
    }

    /// Replace all 8 child pointers and the presence mask in two writes
    /// to the navigation line — the bulk form refine/coarsen use instead
    /// of eight `set_child` read-modify-writes.
    #[inline]
    fn set_children(&mut self, p: POffset, cs: &[ChildPtr; FANOUT]) {
        let mut buf = [0u8; 48];
        let mut mask = 0u8;
        for (i, c) in cs.iter().enumerate() {
            put_link(&mut buf, i, c.encode());
            if !c.is_null() {
                mask |= 1 << i;
            }
        }
        self.io_write(p.0 + OFF_LINKS, &buf);
        self.io_write(p.0 + OFF_MASK, &[mask]);
    }
}

/// Decode the non-link fields of a navigation-line buffer.
fn decode_nav_tail(buf: &[u8; 64], children: [ChildPtr; FANOUT]) -> NavLine {
    NavLine {
        children,
        code: u64::from_le_bytes(
            buf[OFF_CODE as usize..OFF_CODE as usize + 8].try_into().expect("8"),
        ),
        level: buf[OFF_LEVEL as usize],
        mask: buf[OFF_MASK as usize],
        epoch: u32::from_le_bytes(
            buf[OFF_EPOCH as usize..OFF_EPOCH as usize + 4].try_into().expect("4"),
        ),
    }
}

/// Test support: the whole-record reader and the per-field probes
/// [`OctAccess`] offered before every question went to one `nav_line`
/// decode, with the single-field reads (and charges) they had. The
/// reference models that stand in for replaced code (`sweep_parity`,
/// `cursor_parity`, the GC census) are written against them.
#[cfg(test)]
pub(crate) trait Probes: OctAccess {
    fn read_octant(&mut self, p: POffset) -> Octant {
        let mut buf = [0u8; OCTANT_SIZE];
        self.io_read(p.0, &mut buf);
        let line0: &[u8; 64] = buf[..64].try_into().expect("64");
        let nav =
            decode_nav_tail(line0, std::array::from_fn(|i| ChildPtr::decode(get_link(&buf, i))));
        let data = buf[OFF_DATA as usize..OFF_DATA as usize + 32].try_into().expect("32");
        Octant {
            children: nav.children,
            key: OctKey::from_raw(nav.code, nav.level),
            epoch: nav.epoch,
            data: CellData::from_bytes(data),
        }
    }

    fn child(&mut self, p: POffset, i: usize) -> ChildPtr {
        let mut b = [0u8; 6];
        self.io_read(p.0 + OFF_LINKS + LINK_SIZE * i as u64, &mut b);
        ChildPtr::decode(get_link(&b, 0))
    }

    fn key(&mut self, p: POffset) -> OctKey {
        let mut b = [0u8; 9];
        self.io_read(p.0 + OFF_CODE, &mut b);
        OctKey::from_raw(u64::from_le_bytes(b[..8].try_into().expect("8 bytes")), b[8])
    }

    fn epoch_of(&mut self, p: POffset) -> u32 {
        let mut b = [0u8; 4];
        self.io_read(p.0 + OFF_EPOCH, &mut b);
        u32::from_le_bytes(b)
    }

    fn is_leaf_octant(&mut self, p: POffset) -> bool {
        let mut m = [0u8; 1];
        self.io_read(p.0 + OFF_MASK, &mut m);
        m[0] == 0
    }
}

#[cfg(test)]
impl<S: OctAccess> Probes for S {}

#[cfg(test)]
#[allow(clippy::unwrap_used)]
mod tests {
    use super::*;
    use pmoctree_nvbm::DeviceModel;

    fn store() -> PmStore {
        PmStore::new(NvbmArena::new(1 << 20, DeviceModel::default()))
    }

    #[test]
    fn octant_roundtrip() {
        let mut s = store();
        let key = OctKey::root().child(3).child(5);
        let mut o =
            Octant::leaf(key, 7, CellData { phi: -0.5, pressure: 101.3, vof: 0.25, work: 2.0 });
        o.children[2] = ChildPtr::Nvbm(POffset(0x1000));
        o.children[5] = ChildPtr::Volatile(17);
        let p = s.alloc_octant(&o).unwrap();
        let r = s.read_octant(p);
        assert_eq!(r, o);
        let nav = s.nav_line(p);
        assert_eq!((nav.children, nav.epoch, nav.mask), (o.children, 7, (1 << 2) | (1 << 5)));
        assert_eq!(OctKey::from_raw(nav.code, nav.level), key);
        assert_eq!(s.data(p), o.data);
        let mut raw = [0xffu8; OCTANT_SIZE];
        s.arena.read(p.0, &mut raw);
        assert_eq!((raw[57], raw[59]), (0, 0), "byte 57 and the pad are reserved-zero");
        assert_eq!(raw[64..72], [0; 8], "bytes 64..72 are reserved-zero");
        assert_eq!(raw[104..], [0; 24]);
    }

    #[test]
    fn field_stores_show_in_both_lines() {
        let mut s = store();
        let key = OctKey::root().child(1);
        let o = Octant::leaf(key, 3, CellData { phi: 1.0, ..Default::default() });
        let p = s.alloc_octant(&o).unwrap();
        assert_eq!(s.nav_line(p).children[0], ChildPtr::Null);
        s.set_child(p, 0, ChildPtr::Nvbm(POffset(512)));
        s.set_data(p, &CellData { vof: 0.75, ..Default::default() });
        let nav = s.nav_line(p);
        assert_eq!((nav.children[0], nav.mask, nav.epoch), (ChildPtr::Nvbm(POffset(512)), 1, 3));
        assert_eq!(s.data(p).vof, 0.75);
        let mut expect = Octant::leaf(key, 3, CellData { vof: 0.75, ..Default::default() });
        expect.children[0] = ChildPtr::Nvbm(POffset(512));
        assert_eq!(s.read_octant(p), expect);
    }

    #[test]
    fn octant_is_two_lines() {
        let mut s = store();
        let o = Octant::leaf(OctKey::root(), 0, CellData::default());
        let before = s.arena.stats.nvbm.write_lines;
        let p = s.alloc_octant(&o).unwrap();
        assert_eq!(s.arena.stats.nvbm.write_lines - before, 2);
        assert_eq!(p.0 % 64, 0, "octants are cacheline aligned");
    }

    #[test]
    fn child_ptr_encoding() {
        assert_eq!(ChildPtr::decode(0), ChildPtr::Null);
        // NVBM offsets are stored divided by 64 (records are aligned).
        let n = ChildPtr::Nvbm(POffset(0x2000));
        assert_eq!(n.encode(), 0x2000 >> 6);
        assert_eq!(ChildPtr::decode(n.encode()), n);
        let v = ChildPtr::Volatile(99);
        assert_eq!(ChildPtr::decode(v.encode()), v);
        // Every encoding fits the 6-byte link slot.
        for c in [n, v, ChildPtr::Null, ChildPtr::Nvbm(POffset(1u64 << 52))] {
            assert!(c.encode() < 1 << 48, "{c:?} does not fit 48 bits");
            assert_eq!(ChildPtr::decode(c.encode()), c);
        }
    }

    #[test]
    fn child_mask_tracks_links() {
        let mut s = store();
        let o = Octant::leaf(OctKey::root(), 0, CellData::default());
        let p = s.alloc_octant(&o).unwrap();
        assert_eq!(s.nav_line(p).mask, 0);
        s.set_child(p, 3, ChildPtr::Nvbm(POffset(0x1000)));
        s.set_child(p, 6, ChildPtr::Volatile(2));
        assert_eq!(s.nav_line(p).mask, (1 << 3) | (1 << 6));
        s.set_child(p, 3, ChildPtr::Null);
        assert_eq!(s.nav_line(p).mask, 1 << 6);
        let mut cs = [ChildPtr::Null; FANOUT];
        cs[0] = ChildPtr::Nvbm(POffset(0x2000));
        s.set_children(p, &cs);
        let nav = s.nav_line(p);
        assert_eq!((nav.mask, nav.children), (1, cs));
        // A stored record derives the mask from its children array.
        let q = s.alloc_octant(&Octant { children: cs, ..o }).unwrap();
        assert_eq!(s.nav_line(q).mask, 1);
    }

    #[test]
    fn set_link_leaves_the_mask_coherent() {
        let mut s = store();
        let leaf = |s: &mut PmStore, k| s.alloc_octant(&Octant::leaf(k, 0, CellData::default()));
        let root = leaf(&mut s, OctKey::root()).unwrap();
        let mut kids = [ChildPtr::Null; FANOUT];
        for i in [2, 5] {
            kids[i] = ChildPtr::Nvbm(leaf(&mut s, OctKey::root().child(i)).unwrap());
        }
        s.set_children(root, &kids);
        let twin = leaf(&mut s, OctKey::root().child(5)).unwrap();
        let (reads, writes) = (s.arena.stats.nvbm.read_lines, s.arena.stats.nvbm.write_lines);
        // Nvbm → Volatile → Nvbm: the slot stays occupied throughout.
        s.set_link(root, 5, ChildPtr::Volatile(7));
        let nav = s.nav_line(root);
        assert_eq!((nav.children[5], nav.mask), (ChildPtr::Volatile(7), (1 << 2) | (1 << 5)));
        s.set_link(root, 5, ChildPtr::Nvbm(twin));
        let stats = &s.arena.stats.nvbm;
        assert_eq!((stats.read_lines - reads, stats.write_lines - writes), (1, 2), "one line each");
        kids[5] = ChildPtr::Nvbm(twin);
        let nav = s.nav_line(root);
        assert_eq!((nav.children, nav.mask), (kids, (1 << 2) | (1 << 5)));
        // The recovery scan checks the mask against the links it reads.
        let scan = crate::verify::scan_tree(&mut s, root).unwrap();
        assert_eq!((scan.live.len(), scan.leaves), (3, 2));
    }

    #[test]
    fn nav_line_single_read_matches_fields() {
        let mut s = store();
        let key = OctKey::root().child(4).child(2);
        let mut o = Octant::leaf(key, 9, CellData::default());
        o.children[5] = ChildPtr::Nvbm(POffset(0x1540));
        let p = s.alloc_octant(&o).unwrap();
        let before = s.arena.stats.nvbm.read_lines;
        let nav = s.nav_line(p);
        assert_eq!(s.arena.stats.nvbm.read_lines - before, 1, "nav_line is one line");
        assert_eq!(nav.children, o.children);
        assert_eq!((nav.code, nav.level), (key.raw(), key.level()));
        assert_eq!(nav.mask, 1 << 5);
        assert_eq!(nav.epoch, 9);
    }

    #[test]
    fn try_decode_rejects_corrupt_links() {
        assert!(ChildPtr::try_decode(1 << 48).is_err(), "wider than 6 bytes");
        // A volatile handle with garbage in the reserved bits 32..47 used
        // to be silently truncated to a (wrong) id.
        assert!(ChildPtr::try_decode(VOLATILE_BIT | (1 << 40) | 7).is_err());
        assert_eq!(ChildPtr::try_decode(VOLATILE_BIT | 7).unwrap(), ChildPtr::Volatile(7));
        assert_eq!(ChildPtr::try_decode(0).unwrap(), ChildPtr::Null);
        assert_eq!(ChildPtr::try_decode(0x2000 >> 6).unwrap(), ChildPtr::Nvbm(POffset(0x2000)));
    }

    #[test]
    #[should_panic(expected = "corrupt child link")]
    fn decode_checks_links_in_release_builds_too() {
        let _ = ChildPtr::decode(VOLATILE_BIT | (1 << 40));
    }

    #[test]
    fn nav_line_checked_reports_corruption() {
        let mut s = store();
        let o = Octant::leaf(OctKey::root(), 0, CellData::default());
        let p = s.alloc_octant(&o).unwrap();
        assert!(s.nav_line_checked(p).is_ok());
        // Poison child slot 0 with a volatile link carrying reserved bits.
        let raw = VOLATILE_BIT | (1 << 40) | 3;
        s.arena.write(p.0, &raw.to_le_bytes()[..6]);
        match s.nav_line_checked(p) {
            Err(PmError::Corrupt(m)) => assert!(m.contains("child 0"), "{m}"),
            other => panic!("expected Corrupt, got {other:?}"),
        }
        // The byte the deleted flag used to live in: nothing stores there.
        let q = s.alloc_octant(&o).unwrap();
        s.arena.write(q.0 + 57, &[1]);
        match s.nav_line_checked(q) {
            Err(PmError::Corrupt(m)) => assert!(m.contains("reserved byte 57"), "{m}"),
            other => panic!("expected Corrupt, got {other:?}"),
        }
    }
}
