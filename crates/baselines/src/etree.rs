//! The *out-of-core-octree* baseline: an Etree-style linear octree.
//!
//! Octants (leaves only — a linear octree stores no internal nodes and no
//! neighbor pointers) are packed into 4 KiB data pages sorted by Morton
//! anchor; a [`DiskBTree`] maps each page's first anchor to its page
//! number. Every access goes through the file-system interface at page
//! granularity, even when the backing device is NVBM — reproducing the
//! three costs the paper calls out in §5.4: page-granularity I/O, index
//! lookups, and (in the `amr` crate) 26-neighbor searches for balancing.
//!
//! Like the real Etree ("essentially an octant database"), every mutation
//! is written through to the file system, so recovery after a failure is
//! immediate: re-open the metadata, no replay needed.

use pm_octree::{Dram, PmError};
use pmoctree_amr::{Cell, OctreeBackend};
use pmoctree_morton::{anchor, LeafIndex, OctKey};
use pmoctree_nvbm::{DeviceModel, MemStats, Tracer, PAGE};
use pmoctree_simfs::SimFs;

use crate::btree::DiskBTree;
use crate::snapshot::{decode_record, encode_record, OctantRecord, RECORD_SIZE};
use crate::with_fs_traffic;

/// Records per data page: (4096 - 16-byte header) / 48.
pub const RECORDS_PER_PAGE: usize = (PAGE - 16) / RECORD_SIZE;

const DATA_FILE: &str = "etree.dat";
const META_FILE: &str = "etree.meta";
const INDEX_FILE: &str = "etree.idx";

/// Etree-style out-of-core linear octree over a simulated file system.
pub struct EtreeOctree {
    /// The backing file system (owns the virtual clock and I/O stats).
    pub fs: SimFs,
    index: DiskBTree,
    next_page: u32,
    leaves: usize,
    depth: u8,
    /// DRAM-side accounting: leaf-index probe costs and traversal
    /// counters. Page and B-tree I/O stays on `fs`.
    pub stats: MemStats,
    /// Morton-sorted DRAM view of the leaf set, maintained incrementally
    /// by `refine`/`coarsen` and rebuilt lazily after `reopen`.
    leaf_view: LeafIndex<3>,
    /// Tracing journal for the flush phase.
    pub tracer: Tracer,
}

/// Why `key` has no leaf record, from the record its lookup found `at`
/// `key`'s anchor: a descendant there means `key` is refined deeper
/// (interior), anything else that it is absent.
fn no_leaf_at(key: OctKey, at: Option<OctKey>) -> PmError {
    match at {
        Some(at) if key.contains(&at) => PmError::NotALeaf(format!("{key:?}")),
        _ => PmError::NotFound(format!("{key:?}")),
    }
}

fn page_decode(buf: &[u8]) -> Vec<OctantRecord> {
    let n = u16::from_le_bytes(buf[0..2].try_into().expect("2")) as usize;
    (0..n)
        .map(|i| {
            decode_record(&buf[16 + i * RECORD_SIZE..16 + (i + 1) * RECORD_SIZE]).expect("record")
        })
        .collect()
}

fn page_encode(records: &[OctantRecord]) -> Vec<u8> {
    assert!(records.len() <= RECORDS_PER_PAGE);
    let mut buf = vec![0u8; PAGE];
    buf[0..2].copy_from_slice(&(records.len() as u16).to_le_bytes());
    for (i, r) in records.iter().enumerate() {
        encode_record(r, &mut buf[16 + i * RECORD_SIZE..16 + (i + 1) * RECORD_SIZE]);
    }
    buf
}

impl EtreeOctree {
    /// Create a new octree holding the single root leaf, on `fs`.
    pub fn create(mut fs: SimFs) -> Self {
        fs.create(DATA_FILE);
        let mut index = DiskBTree::create(&mut fs, INDEX_FILE);
        let root = OctantRecord { key: OctKey::root(), data: [0.0; 4], is_leaf: true };
        let page0 = page_encode(&[root]);
        fs.write_at(DATA_FILE, 0, &page0).expect("page 0");
        index.insert(&mut fs, anchor::<3>(&OctKey::root()), 0);
        let mut t = EtreeOctree {
            fs,
            index,
            next_page: 1,
            leaves: 1,
            depth: 0,
            stats: MemStats::new(0),
            leaf_view: LeafIndex::new(),
            tracer: Tracer::default(),
        };
        t.save_meta();
        t
    }

    /// Re-open an existing octree after a failure: read the metadata
    /// superblock; no octant data needs to be touched (the paper's
    /// "can immediately access octants" recovery).
    pub fn reopen(mut fs: SimFs, index: DiskBTree) -> Result<Self, String> {
        let meta = fs.read_all(META_FILE)?;
        if meta.len() < 24 {
            return Err("corrupt etree metadata".into());
        }
        let next_page = u32::from_le_bytes(meta[0..4].try_into().expect("4"));
        let leaves = u64::from_le_bytes(meta[8..16].try_into().expect("8")) as usize;
        let depth = meta[16];
        // The leaf view starts invalid after a reopen: the first batched
        // query rebuilds it from a full page sweep.
        Ok(EtreeOctree {
            fs,
            index,
            next_page,
            leaves,
            depth,
            stats: MemStats::new(0),
            leaf_view: LeafIndex::new(),
            tracer: Tracer::default(),
        })
    }

    /// The DRAM the leaf view lives in, charged on the file system's clock
    /// (the tree's one clock).
    fn dram(&mut self) -> impl Dram + '_ {
        (&mut self.fs.clock, &mut self.stats, DeviceModel::default().dram)
    }

    /// Bring the DRAM leaf view up to date before a query: fold the edits
    /// the mutation hooks recorded since the last query, or rebuild it
    /// from a full page sweep (the sweep's page I/O is charged through
    /// `fs` by `read_page`).
    fn ensure_index(&mut self) {
        if self.leaf_view.is_valid() {
            self.leaf_view.settle();
            return;
        }
        let pages: Vec<u32> =
            self.index.items(&mut self.fs).iter().map(|&(_, p)| p as u32).collect();
        let mut entries = Vec::with_capacity(self.leaves);
        for page in pages {
            for r in self.read_page(page) {
                entries.push((r.key, page as u64));
            }
        }
        let n = self.leaf_view.rebuild(entries);
        self.stats.index_rebuild(n as u64);
    }

    fn save_meta(&mut self) {
        let mut meta = vec![0u8; 24];
        meta[0..4].copy_from_slice(&self.next_page.to_le_bytes());
        meta[8..16].copy_from_slice(&(self.leaves as u64).to_le_bytes());
        meta[16] = self.depth;
        self.fs.write_all(META_FILE, &meta);
    }

    /// Decompose into the surviving persistent parts (file system +
    /// index handle) — what a process restart hands to [`Self::reopen`].
    pub fn into_parts(self) -> (SimFs, DiskBTree) {
        (self.fs, self.index)
    }

    /// Persist dirty index pages and metadata (end-of-step flush).
    pub fn flush(&mut self) {
        self.index.flush(&mut self.fs);
        self.save_meta();
    }

    fn read_page(&mut self, page: u32) -> Vec<OctantRecord> {
        let mut buf = vec![0u8; PAGE];
        self.fs.read_at(DATA_FILE, page as usize * PAGE, &mut buf).expect("data page read");
        page_decode(&buf)
    }

    fn write_page(&mut self, page: u32, records: &[OctantRecord]) {
        let buf = page_encode(records);
        self.fs.write_at(DATA_FILE, page as usize * PAGE, &buf).expect("data page write");
    }

    /// Page owning `a` (greatest first-anchor ≤ a, else the first page).
    fn page_for(&mut self, a: u64) -> Option<u32> {
        if let Some((_, p)) = self.index.get_le(&mut self.fs, a) {
            return Some(p as u32);
        }
        // a precedes every page: use the overall first page.
        self.index.items(&mut self.fs).first().map(|&(_, p)| p as u32)
    }

    /// `key`'s page, its slot there and the page's records, or else the
    /// key of the record at `key`'s anchor, if one is: the leaf whose
    /// region starts where `key`'s does. One page read either way; the
    /// records are what [`Self::splice`] edits.
    fn find_record(
        &mut self,
        key: OctKey,
    ) -> Result<(u32, usize, Vec<OctantRecord>), Option<OctKey>> {
        let a = anchor::<3>(&key);
        let page = self.page_for(a).ok_or(None)?;
        let records = self.read_page(page);
        let i = records.partition_point(|r| anchor::<3>(&r.key) < a);
        match records.get(i) {
            Some(r) if r.key == key => Ok((page, i, records)),
            r => Err(r.map(|r| r.key)),
        }
    }

    /// Replace `records[range]` of data `page` (as [`Self::find_record`]
    /// read it) by `with`, and write the page back. The index follows the
    /// page's first anchor: an emptied page leaves the index, and an
    /// overfull one splits in half.
    fn splice(
        &mut self,
        page: u32,
        mut records: Vec<OctantRecord>,
        range: std::ops::Range<usize>,
        with: impl IntoIterator<Item = OctantRecord>,
    ) {
        let old_first = anchor::<3>(&records[0].key);
        records.splice(range, with);
        let Some(first) = records.first().map(|r| anchor::<3>(&r.key)) else {
            // Page dead: it becomes garbage.
            self.index.remove(&mut self.fs, old_first);
            return;
        };
        if first != old_first {
            self.index.remove(&mut self.fs, old_first);
            self.index.insert(&mut self.fs, first, page as u64);
        }
        if records.len() > RECORDS_PER_PAGE {
            let right: Vec<OctantRecord> = records.split_off(records.len() / 2);
            let right_page = self.next_page;
            self.next_page += 1;
            self.index.insert(&mut self.fs, anchor::<3>(&right[0].key), right_page as u64);
            self.write_page(right_page, &right);
        }
        self.write_page(page, &records);
    }

    /// All leaves sorted by Z-order.
    pub fn leaves_sorted(&mut self) -> Vec<(OctKey, Cell)> {
        let mut out = Vec::with_capacity(self.leaves);
        self.for_each_leaf(&mut |k, d| out.push((k, *d)));
        out
    }
}

impl OctreeBackend for EtreeOctree {
    /// Refine the leaf at `key`: replace it with its 8 children. A leaf at
    /// `OctKey::MAX_LEVEL` has no children to make.
    fn refine(&mut self, key: OctKey) -> Result<(), PmError> {
        let (page, i, records) = self.find_record(key).map_err(|at| no_leaf_at(key, at))?;
        if key.level() == OctKey::MAX_LEVEL {
            return Err(PmError::NotALeaf(format!("{key:?} is at the deepest level")));
        }
        let data = records[i].data;
        let children = (0..8).map(|c| OctantRecord { key: key.child(c), data, is_leaf: true });
        self.splice(page, records, i..i + 1, children);
        self.leaves += 7;
        self.depth = self.depth.max(key.level() + 1);
        // Slot is unused for this backend (pages shift on splits); payload
        // batches re-group by page at query time.
        self.leaf_view.on_refine_uniform(key, 0);
        Ok(())
    }

    /// Coarsen: replace the 8 child leaves of `key` by `key` itself, which
    /// takes their mean. Refused unless all 8 are leaves; child 0's anchor
    /// is `key`'s, so the record its lookup finds there names the refusal:
    /// `key` itself (a leaf), a deeper descendant (a child refined deeper),
    /// or anything else (`key` absent). Once child 0 is a leaf, `key` is
    /// interior and a missing sibling is one refined deeper. The family is
    /// Z-consecutive, so it is read a page at a time: one page, or two
    /// when it straddles a page boundary.
    fn coarsen(&mut self, key: OctKey) -> Result<(), PmError> {
        if key.level() == OctKey::MAX_LEVEL {
            return Err(match self.find_record(key) {
                Ok(_) => PmError::NotALeaf(format!("{key:?}")),
                Err(_) => PmError::NotFound(format!("{key:?}")),
            });
        }
        let not_coarsenable = || PmError::NotCoarsenable(format!("{key:?}"));
        // (page, the family's slots on it, the page's records)
        let mut held = Vec::new();
        let mut c = 0;
        while c < 8 {
            let (page, i, records) = self.find_record(key.child(c)).map_err(|at| match at {
                _ if c > 0 => not_coarsenable(),
                Some(at) if at == key => PmError::NotALeaf(format!("{key:?}")),
                Some(at) if key.contains(&at) => not_coarsenable(),
                _ => PmError::NotFound(format!("{key:?}")),
            })?;
            let run = records[i..].iter().zip(c..8).take_while(|(r, c)| r.key == key.child(*c));
            let run = run.count();
            c += run;
            // The record after the run is not the next sibling: that one is
            // refined deeper.
            if c < 8 && i + run < records.len() {
                return Err(not_coarsenable());
            }
            held.push((page, i..i + run, records));
        }
        // Restriction: the new leaf takes the mean of its children.
        let mut data = [0.0f64; 4];
        for (_, run, records) in &held {
            for r in &records[run.clone()] {
                for (m, v) in data.iter_mut().zip(r.data) {
                    *m += v / 8.0;
                }
            }
        }
        let mut parent = Some(OctantRecord { key, data, is_leaf: true });
        for (page, run, records) in held {
            self.splice(page, records, run, parent.take());
        }
        self.leaves -= 7;
        self.leaf_view.on_coarsen(key, 0);
        Ok(())
    }

    /// Does a leaf exist exactly at `key`?
    fn is_leaf(&mut self, key: OctKey) -> Option<bool> {
        match self.containing_leaf(key) {
            Some(k) if k == key => Some(true),
            Some(_) => None,     // a coarser leaf covers it: key itself absent
            None => Some(false), // key region is refined deeper → internal
        }
    }

    /// The leaf record containing `key`'s region: the record with the
    /// greatest anchor ≤ anchor(key) (leaves tile the domain, so it is an
    /// ancestor-or-self of `key` whenever key addresses an existing or
    /// coarser region). Its page I/O is charged on `fs`, so no DRAM or
    /// NVBM line of `stats` is attributed to the descent.
    fn containing_leaf(&mut self, key: OctKey) -> Option<OctKey> {
        // Counted as a root descent: a full B-tree + page lookup, the
        // per-key slow path the batched leaf-view queries avoid.
        self.stats.root_descent();
        let a = anchor::<3>(&key);
        let page = self.page_for(a)?;
        let records = self.read_page(page);
        let i = records.partition_point(|r| anchor::<3>(&r.key) <= a);
        let rec = if i > 0 { &records[i - 1] } else { records.first()? };
        if rec.key.contains(&key) || key.contains(&rec.key) {
            if rec.key.level() <= key.level() {
                Some(rec.key)
            } else {
                None // key names an internal (refined-deeper) region
            }
        } else {
            None
        }
    }

    /// Read a leaf payload.
    fn get_data(&mut self, key: OctKey) -> Option<Cell> {
        self.find_record(key).ok().map(|(_, i, records)| records[i].data)
    }

    /// Write a leaf payload (read-modify-write of its page); a refusal is
    /// named as [`OctreeBackend::refine`] names it.
    fn set_data(&mut self, key: OctKey, data: Cell) -> Result<(), PmError> {
        let (page, i, mut records) = self.find_record(key).map_err(|at| no_leaf_at(key, at))?;
        records[i].data = data;
        self.write_page(page, &records);
        Ok(())
    }

    /// Visit all leaves in Z-order.
    fn for_each_leaf(&mut self, f: &mut dyn FnMut(OctKey, &Cell)) {
        let pages: Vec<u32> =
            self.index.items(&mut self.fs).iter().map(|&(_, p)| p as u32).collect();
        for page in pages {
            for r in self.read_page(page) {
                f(r.key, &r.data);
            }
        }
    }

    /// Solver sweep with read-modify-write page I/O.
    fn update_leaves(&mut self, f: &mut dyn FnMut(OctKey, &Cell) -> Option<Cell>) {
        let pages: Vec<u32> =
            self.index.items(&mut self.fs).iter().map(|&(_, p)| p as u32).collect();
        for page in pages {
            let mut records = self.read_page(page);
            let mut dirty = false;
            for r in &mut records {
                if let Some(nd) = f(r.key, &r.data) {
                    r.data = nd;
                    dirty = true;
                }
            }
            if dirty {
                self.write_page(page, &records);
            }
        }
    }

    /// Number of leaf octants.
    fn leaf_count(&self) -> usize {
        self.leaves
    }

    /// Deepest level seen.
    fn depth(&self) -> u8 {
        self.depth
    }

    fn elapsed_ns(&self) -> u64 {
        self.fs.clock.now_ns()
    }

    fn charge_external(&mut self, ns: u64) {
        self.fs.clock.advance(ns);
    }

    fn barrier_to(&mut self, t_ns: u64) {
        self.fs.clock.advance_to(t_ns);
    }

    fn end_of_step(&mut self, step: usize) {
        self.tracer.begin("flush", self.elapsed_ns(), Some(step as u64));
        self.flush();
        self.tracer.end("flush", self.elapsed_ns());
    }

    fn name(&self) -> &'static str {
        "out-of-core"
    }

    fn as_dyn(&mut self) -> &mut dyn OctreeBackend {
        self
    }

    fn mem_stats(&self) -> MemStats {
        with_fs_traffic(&self.stats, &self.fs)
    }

    fn set_tracer(&mut self, tracer: Tracer) {
        self.tracer = tracer;
    }

    fn tracer(&self) -> Tracer {
        self.tracer.clone()
    }

    /// Z-order-sorted leaf keys from the DRAM leaf view (no page I/O once
    /// the view is built).
    fn leaf_keys_sorted(&mut self) -> Vec<OctKey> {
        self.ensure_index();
        let lines = self.leaf_view.sweep_lines();
        self.dram().charge(lines, 0);
        self.leaf_view.entries().iter().map(|e| e.0).collect()
    }

    /// Resolve a batch of containment queries against the DRAM leaf view
    /// in one merge-scan — no per-key B-tree lookups or page reads.
    /// Input order is arbitrary; results match input order.
    fn containing_leaf_many(&mut self, keys: &[OctKey]) -> Vec<Option<OctKey>> {
        self.ensure_index();
        let (resolved, lines) = self.leaf_view.resolve_batch(keys);
        self.dram().charge(lines, 0);
        self.stats.index_hits(keys.len() as u64);
        resolved.into_iter().map(|r| r.map(|e| self.leaf_view.entries()[e].0)).collect()
    }

    /// Batched leaf payload reads: queries resolve against the DRAM leaf
    /// view, then every data page holding at least one queried leaf is
    /// read exactly once (instead of one B-tree lookup + page read per
    /// key). Keys that are not current leaves fall back to
    /// [`OctreeBackend::get_data`].
    fn get_data_many(&mut self, keys: &[OctKey]) -> Vec<Option<Cell>> {
        self.ensure_index();
        let resolved = self.containing_leaf_many(keys);
        let mut out = vec![None; keys.len()];
        // Exact leaf hits, grouped by anchor for the page merge below.
        let mut wanted: Vec<(u64, usize)> = Vec::new();
        let mut fallbacks = Vec::new();
        for (pos, r) in resolved.iter().enumerate() {
            match r {
                Some(k) if *k == keys[pos] => wanted.push((anchor::<3>(k), pos)),
                _ => fallbacks.push(pos),
            }
        }
        wanted.sort_unstable();
        if !wanted.is_empty() {
            let items = self.index.items(&mut self.fs);
            let mut w = 0usize;
            for (pi, &(first, page)) in items.iter().enumerate() {
                if w >= wanted.len() {
                    break;
                }
                let next_first = items.get(pi + 1).map(|&(a, _)| a).unwrap_or(u64::MAX);
                if wanted[w].0 >= next_first {
                    continue;
                }
                // At least one wanted anchor lives in [first, next_first).
                debug_assert!(wanted[w].0 >= first || pi == 0);
                let records = self.read_page(page as u32);
                while w < wanted.len() && wanted[w].0 < next_first {
                    let (a, pos) = wanted[w];
                    let ri = records.partition_point(|r| anchor::<3>(&r.key) < a);
                    if ri < records.len() && records[ri].key == keys[pos] {
                        out[pos] = Some(records[ri].data);
                    } else {
                        fallbacks.push(pos);
                    }
                    w += 1;
                }
            }
        }
        for pos in fallbacks {
            out[pos] = self.get_data(keys[pos]);
        }
        out
    }
}

#[cfg(test)]
#[allow(clippy::unwrap_used)]
mod tests {
    use super::*;

    fn tree() -> EtreeOctree {
        EtreeOctree::create(SimFs::on_nvbm())
    }

    #[test]
    fn create_single_root() {
        let mut t = tree();
        assert_eq!(t.leaf_count(), 1);
        assert_eq!(t.is_leaf(OctKey::root()), Some(true));
        assert_eq!(t.containing_leaf(OctKey::root().child(3)), Some(OctKey::root()));
    }

    #[test]
    fn refine_replaces_leaf() {
        let mut t = tree();
        t.refine(OctKey::root()).unwrap();
        assert_eq!(t.leaf_count(), 8);
        assert_eq!(t.is_leaf(OctKey::root()), Some(false), "root now internal");
        for c in 0..8 {
            assert_eq!(t.is_leaf(OctKey::root().child(c)), Some(true));
        }
        assert!(matches!(t.refine(OctKey::root()), Err(PmError::NotALeaf(_))), "internal region");
    }

    #[test]
    fn coarsen_restores() {
        let mut t = tree();
        t.refine(OctKey::root()).unwrap();
        t.refine(OctKey::root().child(4)).unwrap();
        assert!(
            matches!(t.coarsen(OctKey::root()), Err(PmError::NotCoarsenable(_))),
            "child 4 deeper"
        );
        t.coarsen(OctKey::root().child(4)).unwrap();
        t.coarsen(OctKey::root()).unwrap();
        assert_eq!(t.leaf_count(), 1);
    }

    #[test]
    fn data_roundtrip() {
        let mut t = tree();
        t.refine(OctKey::root()).unwrap();
        let k = OctKey::root().child(5);
        t.set_data(k, [4.0, 3.0, 2.0, 1.0]).unwrap();
        assert_eq!(t.get_data(k), Some([4.0, 3.0, 2.0, 1.0]));
        assert!(matches!(t.set_data(k.child(1), [0.0; 4]), Err(PmError::NotFound(_))));
        assert!(matches!(t.set_data(OctKey::root(), [0.0; 4]), Err(PmError::NotALeaf(_))));
    }

    #[test]
    fn deep_refinement_spans_pages() {
        let mut t = tree();
        t.refine(OctKey::root()).unwrap();
        // Refine to get > RECORDS_PER_PAGE leaves (1 + 7*n growth).
        let mut frontier = std::collections::VecDeque::from(vec![OctKey::root().child(0)]);
        let mut count = 8;
        let mut refined = Vec::new();
        while count <= 2 * RECORDS_PER_PAGE {
            let k = frontier.pop_front().expect("frontier");
            t.refine(k).unwrap();
            refined.push(k);
            count += 7;
            frontier.extend((0..8).map(|c| k.child(c)));
        }
        assert_eq!(t.leaf_count(), count);
        let leaves = t.leaves_sorted();
        assert_eq!(leaves.len(), count);
        for w in leaves.windows(2) {
            assert!(w[0].0 < w[1].0, "Z-order maintained across pages");
        }
        // Every leaf individually findable through the index.
        for (k, _) in leaves.iter().step_by(17) {
            assert_eq!(t.is_leaf(*k), Some(true));
        }
        // Coarsen everything back, deepest first: a family is read a page
        // at a time, once per page it spans.
        let mut straddled = 0;
        for k in refined.into_iter().rev() {
            let (lo, hi) = (anchor::<3>(&k), anchor::<3>(&k.child(7)));
            let firsts = t.index.items(&mut t.fs);
            let pages = 1 + firsts.iter().filter(|&&(a, _)| lo < a && a <= hi).count() as u64;
            let before = t.fs.stats.bytes_read;
            t.coarsen(k).unwrap();
            assert_eq!((t.fs.stats.bytes_read - before) / PAGE as u64, pages, "coarsen {k:?}");
            straddled += (pages > 1) as usize;
        }
        assert!(straddled > 0, "no family straddled a page boundary");
        t.coarsen(OctKey::root()).unwrap();
        assert_eq!(t.leaves_sorted().iter().map(|l| l.0).collect::<Vec<_>>(), [OctKey::root()]);
    }

    #[test]
    fn mutations_read_the_data_page_once() {
        // The index is one cached node here, so every page read is a data
        // page read.
        let mut t = tree();
        t.refine(OctKey::root()).unwrap();
        t.refine(OctKey::root().child(3)).unwrap();
        let k = OctKey::root().child(5);
        let mut reads = |op: &dyn Fn(&mut EtreeOctree)| {
            let before = t.fs.stats.bytes_read;
            op(&mut t);
            (t.fs.stats.bytes_read - before) / PAGE as u64
        };
        assert_eq!(reads(&|t| t.set_data(k, [2.0; 4]).unwrap()), 1, "set_data");
        assert_eq!(reads(&|t| t.refine(k).unwrap()), 1, "refine");
        assert_eq!(reads(&|t| t.coarsen(k).unwrap()), 1, "coarsen");
        assert_eq!(t.get_data(k), Some([2.0; 4]));
        assert_eq!(t.leaf_count(), 15);
    }

    #[test]
    fn containing_leaf_linear_search() {
        let mut t = tree();
        t.refine(OctKey::root()).unwrap();
        t.refine(OctKey::root().child(2)).unwrap();
        let probe = OctKey::root().child(2).child(3).child(1);
        assert_eq!(t.containing_leaf(probe), Some(OctKey::root().child(2).child(3)));
        let probe2 = OctKey::root().child(6).child(0);
        assert_eq!(t.containing_leaf(probe2), Some(OctKey::root().child(6)));
    }

    #[test]
    fn update_leaves_sweep() {
        let mut t = tree();
        t.refine(OctKey::root()).unwrap();
        t.update_leaves(&mut |_, d| Some([d[0] + 5.0, d[1], d[2], d[3]]));
        t.for_each_leaf(&mut |_, d| assert_eq!(d[0], 5.0));
    }

    #[test]
    fn io_charged_for_everything() {
        let mut t = tree();
        let ops0 = t.fs.stats.ops;
        t.refine(OctKey::root()).unwrap();
        assert!(t.fs.stats.ops > ops0, "refinement must do file I/O");
        let c0 = t.fs.clock.now_ns();
        t.set_data(OctKey::root().child(1), [1.0; 4]).unwrap();
        assert!(t.fs.clock.now_ns() > c0);
    }

    #[test]
    fn reopen_after_flush_preserves_tree() {
        let mut t = tree();
        t.refine(OctKey::root()).unwrap();
        t.refine(OctKey::root().child(7)).unwrap();
        t.set_data(OctKey::root().child(7).child(7), [7.0; 4]).unwrap();
        t.flush();
        let before = t.leaves_sorted();
        let EtreeOctree { fs, index, .. } = t;
        let mut r = EtreeOctree::reopen(fs, index).unwrap();
        assert_eq!(r.leaves_sorted(), before);
        assert_eq!(r.leaf_count(), before.len());
    }

    #[test]
    fn disk_device_is_much_slower() {
        let mut nv = EtreeOctree::create(SimFs::on_nvbm());
        let mut hd = EtreeOctree::create(SimFs::on_disk());
        for t in [&mut nv, &mut hd] {
            t.refine(OctKey::root()).unwrap();
            t.refine(OctKey::root().child(0)).unwrap();
        }
        assert!(hd.fs.clock.now_ns() > 10 * nv.fs.clock.now_ns());
    }
}
