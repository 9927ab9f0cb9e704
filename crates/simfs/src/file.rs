//! The file store: named byte arrays with page-cost accounting.

use std::collections::BTreeMap;

use pmoctree_nvbm::model::{BlockDeviceModel, PAGE};
use pmoctree_nvbm::VirtualClock;

/// I/O counters for the simulated file system.
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
pub struct FsStats {
    /// Number of I/O operations issued (each pays the per-op latency).
    pub ops: u64,
    /// Bytes read through the FS interface.
    pub bytes_read: u64,
    /// Bytes written through the FS interface.
    pub bytes_written: u64,
    /// 4 KiB pages transferred (read + write).
    pub pages: u64,
}

/// A simulated file system: named files on one block device.
///
/// All I/O is charged at page granularity (Etree's "minimum I/O unit is a
/// page (4KB)") plus a fixed per-operation cost, onto [`Self::clock`].
pub struct SimFs {
    files: BTreeMap<String, Vec<u8>>,
    model: BlockDeviceModel,
    /// Virtual clock charged by every operation.
    pub clock: VirtualClock,
    /// I/O statistics.
    pub stats: FsStats,
}

impl SimFs {
    /// A file system on the given device model.
    pub fn new(model: BlockDeviceModel) -> Self {
        SimFs {
            files: BTreeMap::new(),
            model,
            clock: VirtualClock::new(),
            stats: FsStats::default(),
        }
    }

    /// File system on NVBM accessed through the FS software stack.
    pub fn on_nvbm() -> Self {
        Self::new(BlockDeviceModel::nvbm_fs())
    }

    /// File system on a rotating disk.
    pub fn on_disk() -> Self {
        Self::new(BlockDeviceModel::hard_disk())
    }

    fn charge(&mut self, bytes: usize) {
        let pages = (bytes.max(1)).div_ceil(PAGE) as u64;
        self.clock.advance(self.model.io_ns(pages));
        self.stats.ops += 1;
        self.stats.pages += pages;
    }

    /// Does `name` exist?
    pub fn exists(&self, name: &str) -> bool {
        self.files.contains_key(name)
    }

    /// Size of a file, or `None` if absent.
    pub fn len(&self, name: &str) -> Option<usize> {
        self.files.get(name).map(Vec::len)
    }

    /// Create (or truncate) a file.
    pub fn create(&mut self, name: &str) {
        self.charge(0);
        self.files.insert(name.to_string(), Vec::new());
    }

    /// Write `data` at byte `offset`, extending the file as needed.
    /// One I/O operation; cost covers every page touched.
    pub fn write_at(&mut self, name: &str, offset: usize, data: &[u8]) -> Result<(), String> {
        self.charge(data.len());
        self.stats.bytes_written += data.len() as u64;
        let f = self.files.get_mut(name).ok_or_else(|| format!("no such file: {name}"))?;
        if f.len() < offset + data.len() {
            f.resize(offset + data.len(), 0);
        }
        f[offset..offset + data.len()].copy_from_slice(data);
        Ok(())
    }

    /// Read up to `buf.len()` bytes at `offset`; returns bytes read.
    pub fn read_at(&mut self, name: &str, offset: usize, buf: &mut [u8]) -> Result<usize, String> {
        let f = self.files.get(name).ok_or_else(|| format!("no such file: {name}"))?;
        let n = f.len().saturating_sub(offset).min(buf.len());
        buf[..n].copy_from_slice(&f[offset..offset + n]);
        self.charge(n);
        self.stats.bytes_read += n as u64;
        Ok(n)
    }

    /// Replace a file's entire contents (snapshot write).
    pub fn write_all(&mut self, name: &str, data: &[u8]) {
        self.charge(data.len());
        self.stats.bytes_written += data.len() as u64;
        self.files.insert(name.to_string(), data.to_vec());
    }

    /// Read a whole file (snapshot restore).
    pub fn read_all(&mut self, name: &str) -> Result<Vec<u8>, String> {
        let f = self.files.get(name).ok_or_else(|| format!("no such file: {name}"))?.clone();
        self.charge(f.len());
        self.stats.bytes_read += f.len() as u64;
        Ok(f)
    }

    /// Durability barrier (`fsync`): charge the device's cache-flush cost.
    /// Until this returns, a "written" file may still sit in the device
    /// write cache — checkpoint schemes that skip it are not comparable to
    /// an NVBM commit, which is durable by construction.
    pub fn sync(&mut self) {
        self.clock.advance(self.model.sync_ns);
        self.stats.ops += 1;
    }
}

#[cfg(test)]
#[allow(clippy::unwrap_used)]
mod tests {
    use super::*;

    #[test]
    fn create_write_read_roundtrip() {
        let mut fs = SimFs::on_nvbm();
        fs.create("snap.gfs");
        fs.write_at("snap.gfs", 0, b"octants").unwrap();
        let mut buf = [0u8; 7];
        assert_eq!(fs.read_at("snap.gfs", 0, &mut buf).unwrap(), 7);
        assert_eq!(&buf, b"octants");
    }

    #[test]
    fn write_at_offset_extends() {
        let mut fs = SimFs::on_nvbm();
        fs.create("f");
        fs.write_at("f", 100, b"xy").unwrap();
        assert_eq!(fs.len("f"), Some(102));
        let mut buf = [0u8; 2];
        fs.read_at("f", 100, &mut buf).unwrap();
        assert_eq!(&buf, b"xy");
    }

    #[test]
    fn short_read_at_eof() {
        let mut fs = SimFs::on_nvbm();
        fs.write_all("f", b"abc");
        let mut buf = [0u8; 10];
        assert_eq!(fs.read_at("f", 1, &mut buf).unwrap(), 2);
        assert_eq!(&buf[..2], b"bc");
    }

    #[test]
    fn missing_file_errors() {
        let mut fs = SimFs::on_nvbm();
        assert!(fs.read_all("nope").is_err());
        assert!(fs.write_at("nope", 0, b"x").is_err());
    }

    #[test]
    fn io_cost_scales_with_pages() {
        let mut fs = SimFs::on_nvbm();
        fs.create("f");
        let t0 = fs.clock.now_ns();
        fs.write_at("f", 0, &vec![0u8; PAGE]).unwrap();
        let one_page = fs.clock.now_ns() - t0;
        let t1 = fs.clock.now_ns();
        fs.write_at("f", 0, &vec![0u8; 8 * PAGE]).unwrap();
        let eight_pages = fs.clock.now_ns() - t1;
        assert!(eight_pages > one_page);
        assert_eq!(
            fs.stats.pages,
            (1 + 8) /* create charged 1 page min? no: 0-byte op charges 1 page */ + 1
        );
    }

    #[test]
    fn disk_is_slower_than_nvbm_fs() {
        let mut nvbm = SimFs::on_nvbm();
        let mut disk = SimFs::on_disk();
        nvbm.write_all("f", &vec![0u8; 64 * PAGE]);
        disk.write_all("f", &vec![0u8; 64 * PAGE]);
        assert!(disk.clock.now_ns() > 10 * nvbm.clock.now_ns());
    }

    #[test]
    fn sync_charges_barrier_cost() {
        let mut fs = SimFs::on_disk();
        fs.write_all("f", b"checkpoint");
        let t0 = fs.clock.now_ns();
        fs.sync();
        assert_eq!(fs.clock.now_ns() - t0, BlockDeviceModel::hard_disk().sync_ns);
    }

    #[test]
    fn stats_accumulate() {
        let mut fs = SimFs::on_nvbm();
        fs.write_all("f", &[1u8; 100]);
        let mut buf = vec![0u8; 100];
        fs.read_at("f", 0, &mut buf).unwrap();
        assert_eq!(fs.stats.bytes_written, 100);
        assert_eq!(fs.stats.bytes_read, 100);
        assert_eq!(fs.stats.ops, 2);
    }
}
