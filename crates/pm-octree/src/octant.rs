//! On-media octant layout and the persistent store.
//!
//! Each NVBM-resident octant is a fixed 128-byte record — two cachelines
//! (layout v3). The first is the *navigation line*: everything a
//! root-to-leaf descent needs — the locational key, the child-presence
//! mask, the epoch — and, in bytes 0..48, whichever of two things the
//! octant has: the eight child links of an interior octant, or the
//! payload of a leaf, which has no links to store. The mask is the switch
//! (`mask == 0` ⟺ leaf). So one read ([`PmStore::nav_line`]) answers
//! every question asked of an octant on the way — which child, which key,
//! leaf or not, shared or exclusive — and, for a leaf, what it holds: a
//! leaf (about 7/8 of a tree) is visited with one line read and copied
//! with one line store. The second line holds an interior octant's
//! payload and is unused by a leaf.
//!
//! ```text
//! line 0 (navigation):
//!      0..48   interior (mask ≠ 0): children[8], 8 × 6-byte compact links
//!              leaf (mask = 0):     payload 0..32 (4 × f64, CellData),
//!                                   32..48 reserved, zero — the recovery
//!                                   scan rejects anything else
//!     48..56   key code     u64 Morton code
//!     56       key level    u8
//!     57       (reserved, zero — the recovery scan rejects anything else)
//!     58       child mask   u8  bit i set ⟺ children[i] non-null
//!     59       (pad)
//!     60..64   epoch        u32 creation epoch (version ownership)
//! line 1 (an interior octant's payload; a leaf's is not read):
//!     64..72   (reserved, zero)
//!     72..104  payload      4 × f64 (CellData)
//!    104..128  (pad)
//! ```
//!
//! The record stays 128 bytes because an interior octant keeps a payload
//! too (`get_data` answers for any key), and the bytes its links occupy
//! are taken. A leaf turns interior, or back, only while exclusive to the
//! working version, and only through [`PmStore::set_children`], which
//! moves the payload to the place the new mask names.
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
use pmoctree_nvbm::{NvbmArena, POffset, PmemAllocator, CACHELINE};

/// Size of one on-media octant record.
pub const OCTANT_SIZE: usize = 128;

/// Fanout of the 3D octree.
pub const FANOUT: usize = 8;

const OFF_LINKS: u64 = 0;
const LINK_SIZE: u64 = 6;
/// Bytes 0..48 of the navigation line: an interior octant's links, or a
/// leaf's payload followed by [`LEAF_RESERVED`].
const BODY_SIZE: usize = 48;
/// The bytes of a leaf's body after its payload: reserved, zero.
const LEAF_RESERVED: std::ops::Range<usize> = 32..BODY_SIZE;
const OFF_CODE: u64 = 48;
const OFF_LEVEL: u64 = 56;
const OFF_RESERVED: u64 = 57;
const OFF_MASK: u64 = 58;
const OFF_EPOCH: u64 = 60;
/// Line 1, where an interior octant keeps its payload.
const OFF_LINE1: u64 = 64;
const OFF_DATA: u64 = 72;

/// Bit 47 of a compact child link marks a volatile (DRAM) handle.
const VOLATILE_BIT: u64 = 1 << 47;

/// A decoded child pointer. `P` names a record in the store that holds
/// the link: a media offset in NVBM, a slab id in a C0 tree.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum ChildPtr<P = POffset> {
    /// Empty slot.
    Null,
    /// An octant in the same store.
    Node(P),
    /// DRAM-resident C0 subtree with this volatile id.
    Volatile(u32),
}

impl<P> ChildPtr<P> {
    /// Is this an empty slot?
    #[inline]
    pub fn is_null(&self) -> bool {
        matches!(self, ChildPtr::Null)
    }
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
            ChildPtr::Node(p) => {
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
    /// a corrupted record, not a pointer. The one link decoder: recovery
    /// scans report its error ([`PmStore::nav_line_checked`]), the hot
    /// path panics on it ([`PmStore::nav_line`]) — in release builds too,
    /// because following a corrupted link silently is how a bad traversal
    /// turns into bad committed state.
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
            Ok(ChildPtr::Node(POffset(raw << 6)))
        }
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

/// Fill the body (bytes 0..48) of a navigation line: the links `cs`, or —
/// all of them null — the leaf payload `d` followed by the reserved zeros.
/// Returns the presence mask, which says which of the two was written.
fn put_body(body: &mut [u8; BODY_SIZE], cs: &[ChildPtr; FANOUT], d: &CellData) -> u8 {
    let mut mask = 0u8;
    for (i, c) in cs.iter().enumerate() {
        put_link(body, i, c.encode());
        if !c.is_null() {
            mask |= 1 << i;
        }
    }
    if mask == 0 {
        body[..LEAF_RESERVED.start].copy_from_slice(&d.to_bytes());
    }
    mask
}

/// Line 1 of an interior octant: its payload between reserved zeros.
fn payload_line(d: &CellData) -> [u8; CACHELINE] {
    let mut line = [0u8; CACHELINE];
    let at = (OFF_DATA - OFF_LINE1) as usize;
    line[at..at + 32].copy_from_slice(&d.to_bytes());
    line
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

    /// The restriction operator: a coarsened leaf's payload is the mean of
    /// its children's, each field summed as `d / 8.0` in slot order. Both
    /// tiers (and so every coarsen) call this one function.
    pub(crate) fn restrict<'a>(children: impl IntoIterator<Item = &'a CellData>) -> CellData {
        children.into_iter().fold(CellData::default(), |m, d| CellData {
            phi: m.phi + d.phi / 8.0,
            pressure: m.pressure + d.pressure / 8.0,
            vof: m.vof + d.vof / 8.0,
            work: m.work + d.work / 8.0,
        })
    }
}

/// The payload as the meshing layer's plain array: `[phi, pressure, vof, work]`.
impl From<[f64; 4]> for CellData {
    fn from(c: [f64; 4]) -> Self {
        CellData { phi: c[0], pressure: c[1], vof: c[2], work: c[3] }
    }
}

impl From<CellData> for [f64; 4] {
    fn from(d: CellData) -> Self {
        [d.phi, d.pressure, d.vof, d.work]
    }
}

/// A decoded navigation line (octant line 0): every hot field of an
/// octant, delivered by one cacheline read ([`PmStore::nav_line`]).
/// Whatever a walker wants to know about an octant — a child link, the
/// key, leaf or not (`mask == 0`), shared or exclusive (`epoch`), and a
/// leaf's payload — it takes from here, so no octant is charged twice.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct NavLine<P = POffset> {
    /// Child pointers in Morton order (all null for a leaf).
    pub children: [ChildPtr<P>; FANOUT],
    /// A leaf's payload, which its navigation line carries: `Some`
    /// exactly when `mask == 0`. An interior octant's is on line 1
    /// ([`PmStore::payload`]).
    pub leaf: Option<CellData>,
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

/// A whole octant record, as [`PmStore::alloc_octant`] stores it.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Octant<P = POffset> {
    /// Child pointers in Morton order.
    pub children: [ChildPtr<P>; FANOUT],
    /// Locational code.
    pub key: OctKey,
    /// Creation epoch.
    pub epoch: u32,
    /// Simulation payload.
    pub data: CellData,
}

impl<P: Copy> Octant<P> {
    /// A fresh leaf octant.
    pub fn leaf(key: OctKey, epoch: u32, data: CellData) -> Self {
        Octant { children: [ChildPtr::Null; FANOUT], key, epoch, data }
    }
}

impl Octant {
    /// The on-media record: the navigation line (presence mask derived
    /// from the links, the payload in the body if that mask is zero,
    /// reserved bytes zero), then — for an interior octant only — the
    /// payload line. A leaf's record is its navigation line alone, so
    /// this returns the bytes and how many of them make the record.
    fn to_bytes(self) -> ([u8; OCTANT_SIZE], usize) {
        let mut buf = [0u8; OCTANT_SIZE];
        let body: &mut [u8; BODY_SIZE] = (&mut buf[..BODY_SIZE]).try_into().expect("48");
        let mask = put_body(body, &self.children, &self.data);
        buf[OFF_CODE as usize..OFF_CODE as usize + 8]
            .copy_from_slice(&self.key.raw().to_le_bytes());
        buf[OFF_LEVEL as usize] = self.key.level();
        buf[OFF_MASK as usize] = mask;
        buf[OFF_EPOCH as usize..OFF_EPOCH as usize + 4].copy_from_slice(&self.epoch.to_le_bytes());
        if mask == 0 {
            return (buf, CACHELINE);
        }
        buf[CACHELINE..].copy_from_slice(&payload_line(&self.data));
        (buf, OCTANT_SIZE)
    }
}

/// The persistent store: an NVBM arena + allocator + the volatile registry
/// of allocated octants (rebuilt from the validated reachable set after a
/// crash) and the retirement list of the ones the working version dropped.
pub struct PmStore {
    /// The emulated NVBM device.
    pub arena: NvbmArena,
    /// Volatile free-space management.
    pub alloc: PmemAllocator,
    /// Every currently-allocated octant offset, in allocation order: the
    /// `shared` octants that predate the working epoch first, then the
    /// ones it allocated.
    pub registry: Vec<POffset>,
    /// How many registry entries (a prefix) predate the working epoch.
    pub(crate) shared: usize,
    /// Octants unlinked from the working version and not yet freed
    /// ([`crate::gc`]).
    pub(crate) retired: Vec<Retired>,
}

/// One entry of the retirement list: an octant the working version
/// dropped, with its epoch stamp.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub(crate) struct Retired<P = POffset> {
    /// The octant's epoch stamp (for a `whole` entry, its parent's: an
    /// upper bound).
    pub stamp: u32,
    /// Where it lives.
    pub off: P,
    /// The entry stands for the whole subtree under `off`, stamped before
    /// the working epoch: a shadow subtree a merge dropped unread, walked
    /// when the persist's collection frees it.
    pub whole: bool,
}

impl PmStore {
    /// A store over a fresh arena.
    pub fn new(arena: NvbmArena) -> Self {
        let cap = arena.capacity();
        PmStore {
            arena,
            alloc: PmemAllocator::new(cap, OCTANT_SIZE),
            registry: Vec::new(),
            shared: 0,
            retired: Vec::new(),
        }
    }

    /// Free an octant's space (GC sweep). The registry entry must be
    /// removed separately.
    pub fn free_octant(&mut self, p: POffset) {
        self.alloc.free(p);
    }

    /// Record that the working version dropped the octant at `p`, stamped
    /// `epoch`: nothing of `V_i` links it any more. The list lives in
    /// DRAM; the collection that frees an entry charges it
    /// ([`crate::gc`]).
    pub(crate) fn retire(&mut self, epoch: u32, p: POffset) {
        self.retired.push(Retired { stamp: epoch, off: p, whole: false });
    }

    /// Retire every octant allocated since the registry held `mark`
    /// entries: copies a failed mutation left unlinked, all stamped the
    /// working `epoch`.
    pub(crate) fn retire_since(&mut self, mark: usize, epoch: u32) {
        for i in mark..self.registry.len() {
            self.retire(epoch, self.registry[i]);
        }
    }

    /// Crash recovery of the volatile state from the address-sorted set
    /// of reachable octants: the allocator is rebuilt around them below
    /// the arena's live octree edge (every orphan's space is reclaimed —
    /// the paper's "no allocator logging"), its bump pointer published,
    /// and the registry replaced by the live set, all of it shared with
    /// the working epoch.
    pub fn rebuild_from_live(&mut self, live: Vec<POffset>) {
        self.alloc = PmemAllocator::rebuild(
            self.arena.capacity(),
            OCTANT_SIZE,
            self.arena.live_bump(),
            live.iter().copied(),
        );
        self.arena.publish_bump(self.alloc.bump());
        self.shared = live.len();
        self.retired = Vec::new();
        self.registry = live;
    }
}

/// Octant-granular access to the device.
///
/// The read side is the navigation line — [`PmStore::nav_line_checked`],
/// or [`PmStore::nav_line`] that panics where it reports — which carries
/// a leaf's payload, and, behind an interior octant's, its payload line
/// ([`PmStore::payload`]; [`PmStore::data`] when no line is held).
/// There are no per-field probes — a caller that wants a link, the key,
/// the mask, the epoch or a leaf's payload decodes the navigation line
/// once and keeps it, which is what makes "one charged line per octant
/// visited" a property of the interface instead of a habit.
impl PmStore {
    /// Allocate a new octant and store its record in one write — one line
    /// for a leaf, two for an interior octant; returns its offset, or
    /// [`PmError::Full`] with nothing mutated when space is exhausted.
    pub fn alloc_octant(&mut self, o: &Octant) -> Result<POffset, PmError> {
        let p = self.reserve_octant()?;
        self.store_octant(p, o);
        Ok(p)
    }

    /// The allocation half of [`PmStore::alloc_octant`]: a registered
    /// offset whose record is not stored yet. Its owner stores it
    /// ([`PmStore::store_octant`]) before anything that can reach the
    /// media links it.
    pub(crate) fn reserve_octant(&mut self) -> Result<POffset, PmError> {
        self.alloc.set_limit(self.arena.live_rt_floor());
        let p = self
            .alloc
            .alloc()
            .ok_or_else(|| PmError::Full("NVBM arena full allocating an octant".into()))?;
        self.arena.publish_bump(self.alloc.bump());
        self.registry.push(p);
        Ok(p)
    }

    /// The store half of [`PmStore::alloc_octant`]: the record of `o` at
    /// the reserved `p`, in one write.
    pub(crate) fn store_octant(&mut self, p: POffset, o: &Octant) {
        let (record, len) = o.to_bytes();
        self.arena.write(p.0, &record[..len]);
    }

    /// [`PmStore::nav_line_checked`] on a line the caller trusts: the
    /// whole navigation line in one 64-byte read — children (or a leaf's
    /// payload), raw key, presence mask and epoch, exactly one charged
    /// line. Panics on a corrupt line, in release builds too.
    #[inline]
    pub fn nav_line(&mut self, p: POffset) -> NavLine {
        let mut buf = [0u8; CACHELINE];
        self.arena.read(p.0, &mut buf);
        decode_line(&buf)
            .unwrap_or_else(|| panic!("corrupt navigation line: {}", corrupt_line(p, &buf)))
    }

    /// Decode the navigation line at `p` in one 64-byte read, checked: a
    /// corrupted child link, a leaf's non-zero reserved body byte or a
    /// non-zero reserved byte 57 surfaces as [`PmError::Corrupt`] instead
    /// of going unnoticed. Recovery validation and `verify` scans use this
    /// directly — they run over media that a crash (or a poison test) may
    /// have mangled, and must report, not abort.
    pub fn nav_line_checked(&mut self, p: POffset) -> Result<NavLine, PmError> {
        let mut buf = [0u8; CACHELINE];
        self.arena.read(p.0, &mut buf);
        decode_line(&buf).ok_or_else(|| corrupt_line(p, &buf))
    }

    /// The payload of the octant at `p`, whose navigation line is `nav`: a
    /// leaf's came with the line; an interior octant's is one more line
    /// read.
    #[inline]
    pub fn payload(&mut self, p: POffset, nav: &NavLine) -> CellData {
        nav.leaf.unwrap_or_else(|| line1_payload(self, p))
    }

    /// The payload of the octant at `p` with no line of it held yet: its
    /// navigation line — all a leaf costs — and, for an interior octant,
    /// line 1.
    #[inline]
    pub fn data(&mut self, p: POffset) -> CellData {
        let nav = self.nav_line(p);
        self.payload(p, &nav)
    }

    /// Overwrite the payload of the octant at `p` in place, where its
    /// navigation line `nav` says it lives: one 32-byte store, at offset 0
    /// for a leaf and on line 1 for an interior octant.
    #[inline]
    pub fn set_payload(&mut self, p: POffset, nav: &NavLine, d: &CellData) {
        let at = if nav.mask == 0 { 0 } else { OFF_DATA };
        self.arena.write(p.0 + at, &d.to_bytes());
    }

    /// Re-point the *occupied* slot `i` at `c` (non-null): the 6-byte link
    /// store alone. A non-null link replacing a non-null link leaves the
    /// presence mask as it is, so there is nothing to read or fix up, and
    /// the octant stays interior. The caller vouches for the old link (it
    /// holds the line it came from); probing it here would cost the read
    /// this call saves.
    #[inline]
    pub fn set_link(&mut self, p: POffset, i: usize, c: ChildPtr) {
        debug_assert!(i < FANOUT);
        debug_assert!(!c.is_null(), "set_link cannot empty a slot");
        self.arena.write(p.0 + OFF_LINKS + LINK_SIZE * i as u64, &c.encode().to_le_bytes()[..6]);
    }

    /// Re-point any number of an interior octant's occupied slots at once:
    /// the 48-byte body store of the links `nav` holds, which occupy the
    /// slots its mask names — so the mask, like [`PmStore::set_link`]'s,
    /// stands.
    #[inline]
    pub fn set_links(&mut self, p: POffset, nav: &NavLine) {
        let mut body = [0u8; BODY_SIZE];
        let mask = put_body(&mut body, &nav.children, &CellData::default());
        debug_assert!(mask != 0 && mask == nav.mask, "set_links cannot fill or empty a slot");
        self.arena.write(p.0 + OFF_LINKS, &body);
    }

    /// Replace all 8 child pointers and the presence mask, `d` being the
    /// octant's payload. Besides [`PmStore::alloc_octant`] this is the
    /// only store of the mask, so the only one that turns a leaf interior
    /// (a link in `cs`: `d` to line 1, then the links and the mask) or
    /// back (none: `d` and the reserved zeros over the links, then the
    /// null mask). Refine and coarsen call it on an exclusive octant.
    #[inline]
    pub fn set_children(&mut self, p: POffset, cs: &[ChildPtr; FANOUT], d: &CellData) {
        let mut body = [0u8; BODY_SIZE];
        let mask = put_body(&mut body, cs, d);
        if mask != 0 {
            self.arena.write(p.0 + OFF_LINE1, &payload_line(d));
        }
        self.arena.write(p.0 + OFF_LINKS, &body);
        self.arena.write(p.0 + OFF_MASK, &[mask]);
    }
}

/// An interior octant's payload: one read of line 1.
fn line1_payload(store: &mut PmStore, p: POffset) -> CellData {
    let mut b = [0u8; 32];
    store.arena.read(p.0 + OFF_DATA, &mut b);
    CellData::from_bytes(&b)
}

/// The one navigation-line decoder: children (or a leaf's payload), raw
/// key, presence mask and epoch; `None` for a line that breaks a rule
/// [`corrupt_line`] names. `Option`, not `Result`: every walk decodes
/// each line it visits, and carrying a `PmError` through that path cost
/// about 8 % of `droplet_l9` host throughput, so the error is built only
/// on refusal.
#[inline(always)]
fn decode_line(buf: &[u8; CACHELINE]) -> Option<NavLine> {
    let mut children = [ChildPtr::Null; FANOUT];
    let mask = buf[OFF_MASK as usize];
    if mask == 0 {
        // A zeroed mask over links leaves the high links in these bytes:
        // the torn-line check a leaf's payload cannot give.
        if buf[LEAF_RESERVED] != [0; BODY_SIZE - LEAF_RESERVED.start] {
            return None;
        }
    } else {
        for (i, c) in children.iter_mut().enumerate() {
            *c = ChildPtr::try_decode(get_link(buf, i)).ok()?;
        }
    }
    if buf[OFF_RESERVED as usize] != 0 {
        return None;
    }
    let field = |at: u64, len: usize| &buf[at as usize..at as usize + len];
    Some(NavLine {
        children,
        leaf: (mask == 0)
            .then(|| CellData::from_bytes(buf[..LEAF_RESERVED.start].try_into().expect("32"))),
        code: u64::from_le_bytes(field(OFF_CODE, 8).try_into().expect("8")),
        level: buf[OFF_LEVEL as usize],
        mask,
        epoch: u32::from_le_bytes(field(OFF_EPOCH, 4).try_into().expect("4")),
    })
}

/// What [`PmStore::nav_line_checked`] reports for a line [`decode_line`]
/// refuses at `p`: the first rule it breaks — a leaf's reserved body byte
/// or a child link, then reserved byte 57.
#[cold]
fn corrupt_line(p: POffset, buf: &[u8; CACHELINE]) -> PmError {
    let body = if buf[OFF_MASK as usize] == 0 {
        LEAF_RESERVED.clone().find(|&i| buf[i] != 0).map(|i| {
            format!("octant {:#x}: a leaf (mask 0) holds {:#04x} in reserved byte {i}", p.0, buf[i])
        })
    } else {
        (0..FANOUT).find_map(|i| {
            let e = ChildPtr::try_decode(get_link(buf, i)).err()?;
            Some(format!("octant {:#x} child {i}: {e}", p.0))
        })
    };
    PmError::Corrupt(body.unwrap_or_else(|| {
        format!(
            "octant {:#x}: reserved byte {OFF_RESERVED} holds {:#04x}, nothing stores there",
            p.0, buf[OFF_RESERVED as usize]
        )
    }))
}

/// Test support: the whole record, decoded — the navigation line and
/// the payload where its mask says it lives.
#[cfg(test)]
pub(crate) fn read_octant(store: &mut PmStore, p: POffset) -> Octant {
    let nav = store.nav_line(p);
    let data = store.payload(p, &nav);
    Octant {
        children: nav.children,
        key: OctKey::from_raw(nav.code, nav.level),
        epoch: nav.epoch,
        data,
    }
}

#[cfg(test)]
#[allow(clippy::unwrap_used)]
mod tests {
    use super::*;
    use pmoctree_nvbm::DeviceModel;
    use proptest::prelude::*;

    fn store() -> PmStore {
        PmStore::new(NvbmArena::new(1 << 20, DeviceModel::default()))
    }

    fn raw(s: &mut PmStore, p: POffset) -> [u8; OCTANT_SIZE] {
        let mut raw = [0xffu8; OCTANT_SIZE];
        s.arena.read(p.0, &mut raw);
        raw
    }

    #[test]
    fn octant_roundtrip() {
        let mut s = store();
        let key = OctKey::root().child(3).child(5);
        let data = CellData { phi: -0.5, pressure: 101.3, vof: 0.25, work: 2.0 };
        // A leaf: the payload in the body of its navigation line.
        let o = Octant::leaf(key, 7, data);
        let p = s.alloc_octant(&o).unwrap();
        assert_eq!(read_octant(&mut s, p), o);
        let nav = s.nav_line(p);
        assert_eq!((nav.children, nav.leaf, nav.mask, nav.epoch), (o.children, Some(data), 0, 7));
        assert_eq!(OctKey::from_raw(nav.code, nav.level), key);
        let raw_leaf = raw(&mut s, p);
        assert_eq!(raw_leaf[..32], data.to_bytes());
        assert_eq!(raw_leaf[32..48], [0; 16], "bytes 32..48 of a leaf are reserved-zero");
        // An interior octant: links in the body, the payload on line 1.
        let mut o = o;
        o.children[2] = ChildPtr::Node(POffset(0x1000));
        o.children[5] = ChildPtr::Volatile(17);
        let p = s.alloc_octant(&o).unwrap();
        assert_eq!(read_octant(&mut s, p), o);
        let nav = s.nav_line(p);
        assert_eq!((nav.children, nav.leaf, nav.mask), (o.children, None, (1 << 2) | (1 << 5)));
        assert_eq!(s.data(p), o.data);
        let raw = raw(&mut s, p);
        assert_eq!((raw[57], raw[59]), (0, 0), "byte 57 and the pad are reserved-zero");
        assert_eq!(raw[64..72], [0; 8], "bytes 64..72 are reserved-zero");
        assert_eq!(raw[72..104], data.to_bytes());
        assert_eq!(raw[104..], [0; 24]);
    }

    #[test]
    fn the_mask_says_where_the_payload_lives() {
        let mut s = store();
        let key = OctKey::root().child(1);
        let o = Octant::leaf(key, 3, CellData { phi: 1.0, ..Default::default() });
        let p = s.alloc_octant(&o).unwrap();
        let d = CellData { vof: 0.75, ..Default::default() };
        let nav = s.nav_line(p);
        s.set_payload(p, &nav, &d);
        assert_eq!(read_octant(&mut s, p), Octant::leaf(key, 3, d));
        // Leaf → interior: the payload moves to line 1 under the links.
        let mut cs = [ChildPtr::Null; FANOUT];
        cs[0] = ChildPtr::Node(POffset(512));
        s.set_children(p, &cs, &d);
        let nav = s.nav_line(p);
        assert_eq!((nav.children, nav.mask, nav.leaf, nav.epoch), (cs, 1, None, 3));
        assert_eq!(s.payload(p, &nav), d);
        let d = CellData { work: -2.0, ..d };
        s.set_payload(p, &nav, &d);
        assert_eq!(read_octant(&mut s, p), Octant { children: cs, ..Octant::leaf(key, 3, d) });
        // Interior → leaf: the payload back over the links, line 1 left.
        let mean = CellData { pressure: 4.0, ..Default::default() };
        s.set_children(p, &[ChildPtr::Null; FANOUT], &mean);
        let nav = s.nav_line_checked(p).unwrap();
        assert_eq!((nav.mask, nav.leaf), (0, Some(mean)));
        assert_eq!(read_octant(&mut s, p), Octant::leaf(key, 3, mean));
    }

    #[test]
    fn a_leaf_is_one_line() {
        let mut s = store();
        let lines = |s: &PmStore| (s.arena.stats.nvbm.read_lines, s.arena.stats.nvbm.write_lines);
        let d = CellData { phi: 0.5, ..Default::default() };
        let leaf = Octant::leaf(OctKey::root(), 0, d);
        let mut interior = leaf;
        interior.children[4] = ChildPtr::Node(POffset(0x4000));
        for (o, want) in [(leaf, 1), (interior, 2)] {
            // Stored in `want` lines, and read back — payload included —
            // in as many.
            let (r0, w0) = lines(&s);
            let p = s.alloc_octant(&o).unwrap();
            assert_eq!(p.0 % 64, 0, "octants are cacheline aligned");
            assert_eq!(s.data(p), d);
            let (r1, w1) = lines(&s);
            assert_eq!((r1 - r0, w1 - w0), (want, want), "{o:?}");
            // An in-place payload update is one line either way.
            let nav = s.nav_line(p);
            s.set_payload(p, &nav, &d);
            assert_eq!(lines(&s), (r1 + 1, w1 + 1));
        }
    }

    #[test]
    fn child_ptr_encoding() {
        assert_eq!(ChildPtr::try_decode(0).unwrap(), ChildPtr::Null);
        // NVBM offsets are stored divided by 64 (records are aligned).
        let n = ChildPtr::Node(POffset(0x2000));
        assert_eq!(n.encode(), 0x2000 >> 6);
        assert_eq!(ChildPtr::try_decode(n.encode()).unwrap(), n);
        let v = ChildPtr::Volatile(99);
        assert_eq!(ChildPtr::try_decode(v.encode()).unwrap(), v);
        // Every encoding fits the 6-byte link slot.
        for c in [n, v, ChildPtr::Null, ChildPtr::Node(POffset(1u64 << 52))] {
            assert!(c.encode() < 1 << 48, "{c:?} does not fit 48 bits");
            assert_eq!(ChildPtr::try_decode(c.encode()).unwrap(), c);
        }
    }

    #[test]
    fn child_mask_tracks_links() {
        let mut s = store();
        let o = Octant::leaf(OctKey::root(), 0, CellData::default());
        let p = s.alloc_octant(&o).unwrap();
        assert_eq!(s.nav_line(p).mask, 0);
        let mut cs = [ChildPtr::Null; FANOUT];
        cs[3] = ChildPtr::Node(POffset(0x1000));
        cs[6] = ChildPtr::Volatile(2);
        s.set_children(p, &cs, &o.data);
        assert_eq!(s.nav_line(p).mask, (1 << 3) | (1 << 6));
        cs[3] = ChildPtr::Null;
        s.set_children(p, &cs, &o.data);
        let nav = s.nav_line(p);
        assert_eq!((nav.mask, nav.children), (1 << 6, cs));
        // A stored record derives the mask from its children array.
        let q = s.alloc_octant(&Octant { children: cs, ..o }).unwrap();
        assert_eq!(s.nav_line(q).mask, 1 << 6);
    }

    #[test]
    fn set_link_leaves_the_mask_coherent() {
        let mut s = store();
        let leaf = |s: &mut PmStore, k| s.alloc_octant(&Octant::leaf(k, 0, CellData::default()));
        let root = leaf(&mut s, OctKey::root()).unwrap();
        let mut kids = [ChildPtr::Null; FANOUT];
        for i in [2, 5] {
            kids[i] = ChildPtr::Node(leaf(&mut s, OctKey::root().child(i)).unwrap());
        }
        s.set_children(root, &kids, &CellData::default());
        let twin = leaf(&mut s, OctKey::root().child(5)).unwrap();
        let (reads, writes) = (s.arena.stats.nvbm.read_lines, s.arena.stats.nvbm.write_lines);
        // Nvbm → Volatile → Nvbm: the slot stays occupied throughout.
        s.set_link(root, 5, ChildPtr::Volatile(7));
        let nav = s.nav_line(root);
        assert_eq!((nav.children[5], nav.mask), (ChildPtr::Volatile(7), (1 << 2) | (1 << 5)));
        s.set_link(root, 5, ChildPtr::Node(twin));
        let stats = &s.arena.stats.nvbm;
        assert_eq!((stats.read_lines - reads, stats.write_lines - writes), (1, 2), "one line each");
        kids[5] = ChildPtr::Node(twin);
        let nav = s.nav_line(root);
        assert_eq!((nav.children, nav.mask), (kids, (1 << 2) | (1 << 5)));
        // The recovery scan checks the mask against the links it reads.
        let scan = crate::verify::scan_tree(&mut s, root).unwrap();
        assert_eq!((scan.live.len(), scan.leaves.len()), (3, 2));
    }

    #[test]
    fn nav_line_single_read_matches_fields() {
        let mut s = store();
        let key = OctKey::root().child(4).child(2);
        let mut o = Octant::leaf(key, 9, CellData::default());
        o.children[5] = ChildPtr::Node(POffset(0x1540));
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
        assert_eq!(ChildPtr::try_decode(0x2000 >> 6).unwrap(), ChildPtr::Node(POffset(0x2000)));
    }

    #[test]
    #[should_panic(expected = "corrupt navigation line")]
    fn decode_checks_links_in_release_builds_too() {
        let mut s = store();
        let mut o = Octant::leaf(OctKey::root(), 0, CellData::default());
        o.children[1] = ChildPtr::Node(POffset(0x1000));
        let p = s.alloc_octant(&o).unwrap();
        s.arena.write(p.0, &(VOLATILE_BIT | (1 << 40)).to_le_bytes()[..6]);
        let _ = s.nav_line(p);
    }

    #[test]
    fn nav_line_checked_reports_corruption() {
        let mut s = store();
        let mut o = Octant::leaf(OctKey::root(), 0, CellData::default());
        o.children[1] = ChildPtr::Node(POffset(0x1000));
        let p = s.alloc_octant(&o).unwrap();
        assert!(s.nav_line_checked(p).is_ok());
        // Poison child slot 0 of an interior octant with a volatile link
        // carrying reserved bits.
        let raw = VOLATILE_BIT | (1 << 40) | 3;
        s.arena.write(p.0, &raw.to_le_bytes()[..6]);
        match s.nav_line_checked(p) {
            Err(PmError::Corrupt(m)) => assert!(m.contains("child 0"), "{m}"),
            other => panic!("expected Corrupt, got {other:?}"),
        }
        // A leaf's body after its payload: nothing stores there.
        let leaf =
            Octant::leaf(OctKey::root(), 0, CellData { phi: f64::NAN, ..Default::default() });
        let q = s.alloc_octant(&leaf).unwrap();
        assert!(s.nav_line_checked(q).is_ok(), "a payload is any 32 bytes");
        s.arena.write(q.0 + 40, &[1]);
        match s.nav_line_checked(q) {
            Err(PmError::Corrupt(m)) => {
                assert!(m.contains("mask 0") && m.contains("byte 40"), "{m}")
            }
            other => panic!("expected Corrupt, got {other:?}"),
        }
        // The byte the deleted flag used to live in: nothing stores there.
        let r = s.alloc_octant(&o).unwrap();
        s.arena.write(r.0 + 57, &[1]);
        match s.nav_line_checked(r) {
            Err(PmError::Corrupt(m)) => assert!(m.contains("reserved byte 57"), "{m}"),
            other => panic!("expected Corrupt, got {other:?}"),
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(512))]

        /// Any 64 bytes through the checked decoder: `Ok` or `Corrupt`,
        /// never a panic; and where it accepts a line, it reads the
        /// line's fields off it. The mask byte is drawn
        /// zero half the time, and each other byte a quarter of the
        /// time, so leaves, interior octants and both reserved rules all
        /// occur.
        #[test]
        fn any_navigation_line_decodes_or_is_corrupt(
            bytes in prop::collection::vec(any::<u8>(), CACHELINE),
            zeros in any::<u64>(),
            also in any::<u64>(),
            leaf in any::<bool>(),
        ) {
            let mut line: [u8; CACHELINE] = bytes.try_into().unwrap();
            for (i, b) in line.iter_mut().enumerate() {
                if (zeros & also) >> i & 1 == 1 {
                    *b = 0;
                }
            }
            if leaf {
                line[OFF_MASK as usize] = 0;
            }
            let mut s = store();
            let p = s.alloc_octant(&Octant::leaf(OctKey::root(), 0, CellData::default())).unwrap();
            s.arena.write(p.0, &line);
            match s.nav_line_checked(p) {
                Ok(nav) => {
                    let mask = line[OFF_MASK as usize];
                    prop_assert_eq!(nav.mask, mask);
                    prop_assert_eq!(nav.leaf.is_some(), mask == 0);
                    if let Some(d) = nav.leaf {
                        prop_assert_eq!(d.to_bytes(), line[..32]);
                        prop_assert_eq!(nav.children, [ChildPtr::Null; FANOUT]);
                    } else {
                        let links =
                            std::array::from_fn(|i| ChildPtr::try_decode(get_link(&line, i)).unwrap());
                        prop_assert_eq!(nav.children, links);
                    }
                    prop_assert_eq!(nav.code, u64::from_le_bytes(line[OFF_CODE as usize..][..8].try_into().unwrap()));
                    prop_assert_eq!((nav.level, nav.epoch), (line[OFF_LEVEL as usize],
                        u32::from_le_bytes(line[OFF_EPOCH as usize..][..4].try_into().unwrap())));
                }
                Err(e) => prop_assert!(matches!(e, PmError::Corrupt(_)), "{e}"),
            }
        }
    }
}
