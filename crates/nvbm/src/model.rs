//! Device timing models.
//!
//! The paper (Table 2) models NVBM with DRAM-like read latency and ~2.5×
//! DRAM write latency, and evaluates against both a DRAM tier and (for the
//! out-of-core baseline) rotating disks. All latencies here are charged per
//! cacheline (or per page for block devices) onto a virtual clock, exactly
//! mirroring the paper's RDTSCP spin-loop emulation but deterministic.

/// Size of one CPU cacheline; NVBM and DRAM accesses are charged at this
/// granularity.
pub const CACHELINE: usize = 64;

/// Size of one block-device page (Etree's minimum I/O unit).
pub const PAGE: usize = 4096;

/// Latency parameters of a byte-addressable memory tier, in nanoseconds
/// per cacheline access.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct MemLatency {
    /// Read latency per cacheline (ns).
    pub read_ns: u64,
    /// Write latency per cacheline (ns).
    pub write_ns: u64,
}

/// Full device model: DRAM tier, NVBM tier, and endurance bound.
///
/// Defaults reproduce the paper's Table 2 (values from Lee et al. ISCA'09,
/// Chen & Gibbons CIDR'11, Venkataraman et al. FAST'11).
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct DeviceModel {
    /// DRAM tier: 60 ns read, 60 ns write.
    pub dram: MemLatency,
    /// NVBM tier: 100 ns read, 150 ns write (2.5× DRAM).
    pub nvbm: MemLatency,
    /// NVBM endurance in writes per bit (lower bound of the 10^6–10^8
    /// range quoted in Table 2); used by wear reporting, not enforced.
    pub endurance_writes_per_bit: u64,
}

impl Default for DeviceModel {
    fn default() -> Self {
        DeviceModel {
            dram: MemLatency { read_ns: 60, write_ns: 60 },
            nvbm: MemLatency { read_ns: 100, write_ns: 150 },
            endurance_writes_per_bit: 1_000_000,
        }
    }
}

impl DeviceModel {
    /// Number of cachelines spanned by a byte range.
    #[inline]
    pub fn lines(offset: u64, len: usize) -> u64 {
        if len == 0 {
            return 0;
        }
        let first = offset / CACHELINE as u64;
        let last = (offset + len as u64 - 1) / CACHELINE as u64;
        last - first + 1
    }
}

/// Latency parameters of a block device behind a file-system interface
/// (used by `simfs` for the snapshot and Etree baselines).
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct BlockDeviceModel {
    /// Fixed per-operation latency (seek/setup), ns.
    pub op_ns: u64,
    /// Transfer time per 4 KiB page, ns.
    pub page_ns: u64,
    /// Durability-barrier cost (`fsync`): flushing the device/OS write
    /// cache so the data is actually on stable media, ns. Checkpoint
    /// baselines must pay this after every checkpoint write or they are
    /// comparing a maybe-durable file against an always-durable NVBM
    /// commit.
    pub sync_ns: u64,
}

impl BlockDeviceModel {
    /// NVBM accessed through a file-system interface: no seek, page
    /// transfer at memory-bus speed (64 lines × 150 ns write / 100 ns read
    /// is charged by the caller per direction; this model approximates
    /// with a symmetric per-page cost plus small software overhead).
    pub fn nvbm_fs() -> Self {
        // Software path (syscall + FS) ~ 2 us per op; page move at NVBM
        // bandwidth ~ 64 lines * 125 ns avg = 8 us.
        // A sync on NVBM-backed storage only drains the small controller
        // buffer: ~5 us.
        BlockDeviceModel { op_ns: 2_000, page_ns: 8_000, sync_ns: 5_000 }
    }

    /// A 7200 RPM hard disk: ~8 ms average seek + rotational latency,
    /// ~150 MB/s streaming (≈27 us per 4 KiB page).
    pub fn hard_disk() -> Self {
        // fsync forces the on-disk write cache out: roughly one further
        // rotation + seek, ~10 ms.
        BlockDeviceModel { op_ns: 8_000_000, page_ns: 27_000, sync_ns: 10_000_000 }
    }

    /// Cost of transferring `pages` pages in one operation.
    #[inline]
    pub fn io_ns(&self, pages: u64) -> u64 {
        self.op_ns + self.page_ns * pages
    }
}

/// Network model for replica transfer and partition exchange:
/// classic α–β (latency–bandwidth) model.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct NetworkModel {
    /// Per-message latency α, ns.
    pub alpha_ns: u64,
    /// Per-byte transfer cost β, picoseconds per byte (to keep integer
    /// math exact: 1 GB/s == 1000 ps/byte).
    pub beta_ps_per_byte: u64,
}

impl NetworkModel {
    /// Cray Gemini-like interconnect (Titan): ~1.5 us latency, ~6 GB/s
    /// per-direction injection bandwidth.
    pub fn gemini() -> Self {
        NetworkModel { alpha_ns: 1_500, beta_ps_per_byte: 167 }
    }

    /// 56 Gb/s InfiniBand (the Kamiak cluster in §5.6): ~1 us latency,
    /// ~7 GB/s.
    pub fn infiniband_fdr() -> Self {
        NetworkModel { alpha_ns: 1_000, beta_ps_per_byte: 143 }
    }

    /// Time to move one message of `bytes` bytes.
    #[inline]
    pub fn transfer_ns(&self, bytes: u64) -> u64 {
        self.alpha_ns + bytes * self.beta_ps_per_byte / 1000
    }
}

#[cfg(test)]
#[allow(clippy::unwrap_used)]
mod tests {
    use super::*;

    #[test]
    fn defaults_match_table2() {
        let m = DeviceModel::default();
        assert_eq!(m.dram.read_ns, 60);
        assert_eq!(m.dram.write_ns, 60);
        assert_eq!(m.nvbm.read_ns, 100);
        assert_eq!(m.nvbm.write_ns, 150);
        assert!(m.nvbm.write_ns as f64 / m.dram.write_ns as f64 == 2.5);
    }

    #[test]
    fn line_counting() {
        assert_eq!(DeviceModel::lines(0, 0), 0);
        assert_eq!(DeviceModel::lines(0, 1), 1);
        assert_eq!(DeviceModel::lines(0, 64), 1);
        assert_eq!(DeviceModel::lines(0, 65), 2);
        assert_eq!(DeviceModel::lines(63, 2), 2);
        assert_eq!(DeviceModel::lines(64, 64), 1);
        assert_eq!(DeviceModel::lines(10, 128), 3);
    }

    #[test]
    fn disk_much_slower_than_nvbm_fs() {
        let disk = BlockDeviceModel::hard_disk();
        let nvbm = BlockDeviceModel::nvbm_fs();
        // Paper: disks are 4-5 orders of magnitude slower than NVBM.
        assert!(disk.io_ns(1) > 100 * nvbm.io_ns(1));
    }

    #[test]
    fn network_transfer_scales() {
        let n = NetworkModel::gemini();
        assert_eq!(n.transfer_ns(0), n.alpha_ns);
        assert!(n.transfer_ns(1 << 20) > n.transfer_ns(1 << 10));
    }
}
