//! POSIX-flavoured handle interface.
//!
//! Gerris accesses snapshots through `gfs_output_file_open` /
//! `gfs_output_file_close` wrappers over POSIX I/O; this module provides
//! the equivalent descriptor-based veneer over [`SimFs`] so the baselines
//! read like the original code paths.

use crate::file::SimFs;

/// File descriptor handed out by [`PosixFs::open`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct Fd(pub usize);

/// Open flags.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum OpenMode {
    /// Read-only; fails if missing.
    Read,
    /// Write; creates or truncates.
    Write,
    /// Read/write; creates if missing, preserves contents.
    ReadWrite,
}

/// Errors from the POSIX veneer.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum PosixError {
    /// Open of a missing file in `Read` mode.
    NotFound(String),
    /// Operation on a closed or invalid descriptor.
    BadFd,
}

impl std::fmt::Display for PosixError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            PosixError::NotFound(n) => write!(f, "no such file: {n}"),
            PosixError::BadFd => write!(f, "bad file descriptor"),
        }
    }
}

impl std::error::Error for PosixError {}

struct OpenFile {
    name: String,
    cursor: usize,
}

/// Descriptor table over a [`SimFs`].
pub struct PosixFs {
    /// The underlying file system (public so cost/statistics are visible).
    pub fs: SimFs,
    table: Vec<Option<OpenFile>>,
}

impl PosixFs {
    /// Wrap a simulated file system.
    pub fn new(fs: SimFs) -> Self {
        PosixFs { fs, table: Vec::new() }
    }

    /// Open `name` with `mode`.
    pub fn open(&mut self, name: &str, mode: OpenMode) -> Result<Fd, PosixError> {
        match mode {
            OpenMode::Read => {
                if !self.fs.exists(name) {
                    return Err(PosixError::NotFound(name.to_string()));
                }
            }
            OpenMode::Write => self.fs.create(name),
            OpenMode::ReadWrite => {
                if !self.fs.exists(name) {
                    self.fs.create(name);
                }
            }
        }
        let of = OpenFile { name: name.to_string(), cursor: 0 };
        for (i, slot) in self.table.iter_mut().enumerate() {
            if slot.is_none() {
                *slot = Some(of);
                return Ok(Fd(i));
            }
        }
        self.table.push(Some(of));
        Ok(Fd(self.table.len() - 1))
    }

    fn entry(&mut self, fd: Fd) -> Result<&mut OpenFile, PosixError> {
        self.table.get_mut(fd.0).and_then(Option::as_mut).ok_or(PosixError::BadFd)
    }

    /// Sequential read at the cursor; returns bytes read (0 at EOF).
    pub fn read(&mut self, fd: Fd, buf: &mut [u8]) -> Result<usize, PosixError> {
        let (name, cursor) = {
            let e = self.entry(fd)?;
            (e.name.clone(), e.cursor)
        };
        let n = self.fs.read_at(&name, cursor, buf).map_err(|_| PosixError::BadFd)?;
        self.entry(fd)?.cursor += n;
        Ok(n)
    }

    /// Sequential write at the cursor.
    pub fn write(&mut self, fd: Fd, data: &[u8]) -> Result<usize, PosixError> {
        let (name, cursor) = {
            let e = self.entry(fd)?;
            (e.name.clone(), e.cursor)
        };
        self.fs.write_at(&name, cursor, data).map_err(|_| PosixError::BadFd)?;
        self.entry(fd)?.cursor += data.len();
        Ok(data.len())
    }

    /// Absolute seek.
    pub fn seek(&mut self, fd: Fd, pos: usize) -> Result<(), PosixError> {
        self.entry(fd)?.cursor = pos;
        Ok(())
    }

    /// Durability barrier on an open descriptor: charges the device's
    /// cache-flush cost (see [`SimFs::sync`]). POSIX `fsync(2)` semantics —
    /// the fd must be valid, and on return the file's written pages are on
    /// stable media.
    pub fn fsync(&mut self, fd: Fd) -> Result<(), PosixError> {
        self.entry(fd)?;
        self.fs.sync();
        Ok(())
    }

    /// Close a descriptor.
    pub fn close(&mut self, fd: Fd) -> Result<(), PosixError> {
        let slot = self.table.get_mut(fd.0).ok_or(PosixError::BadFd)?;
        if slot.take().is_none() {
            return Err(PosixError::BadFd);
        }
        Ok(())
    }
}

#[cfg(test)]
#[allow(clippy::unwrap_used)]
mod tests {
    use super::*;

    fn pfs() -> PosixFs {
        PosixFs::new(SimFs::on_nvbm())
    }

    #[test]
    fn open_write_read_close() {
        let mut p = pfs();
        let fd = p.open("snap", OpenMode::Write).unwrap();
        p.write(fd, b"hello ").unwrap();
        p.write(fd, b"world").unwrap();
        p.close(fd).unwrap();
        let fd = p.open("snap", OpenMode::Read).unwrap();
        let mut buf = [0u8; 11];
        assert_eq!(p.read(fd, &mut buf).unwrap(), 11);
        assert_eq!(&buf, b"hello world");
        assert_eq!(p.read(fd, &mut buf).unwrap(), 0, "EOF");
    }

    #[test]
    fn read_missing_fails() {
        let mut p = pfs();
        assert!(matches!(p.open("nope", OpenMode::Read), Err(PosixError::NotFound(_))));
    }

    #[test]
    fn write_truncates() {
        let mut p = pfs();
        let fd = p.open("f", OpenMode::Write).unwrap();
        p.write(fd, b"long content").unwrap();
        p.close(fd).unwrap();
        let fd = p.open("f", OpenMode::Write).unwrap();
        p.write(fd, b"hi").unwrap();
        p.close(fd).unwrap();
        assert_eq!(p.fs.len("f"), Some(2));
    }

    #[test]
    fn readwrite_preserves() {
        let mut p = pfs();
        p.fs.write_all("f", b"keep");
        let fd = p.open("f", OpenMode::ReadWrite).unwrap();
        let mut buf = [0u8; 4];
        p.read(fd, &mut buf).unwrap();
        assert_eq!(&buf, b"keep");
    }

    #[test]
    fn seek_moves_cursor() {
        let mut p = pfs();
        p.fs.write_all("f", b"0123456789");
        let fd = p.open("f", OpenMode::Read).unwrap();
        p.seek(fd, 5).unwrap();
        let mut buf = [0u8; 3];
        p.read(fd, &mut buf).unwrap();
        assert_eq!(&buf, b"567");
    }

    #[test]
    fn closed_fd_is_invalid() {
        let mut p = pfs();
        let fd = p.open("f", OpenMode::Write).unwrap();
        p.close(fd).unwrap();
        assert_eq!(p.close(fd), Err(PosixError::BadFd));
        let mut buf = [0u8; 1];
        assert_eq!(p.read(fd, &mut buf), Err(PosixError::BadFd));
    }

    #[test]
    fn fsync_charges_and_validates_fd() {
        let mut p = pfs();
        let fd = p.open("f", OpenMode::Write).unwrap();
        p.write(fd, b"data").unwrap();
        let t0 = p.fs.clock.now_ns();
        p.fsync(fd).unwrap();
        assert!(p.fs.clock.now_ns() > t0, "fsync must cost time");
        p.close(fd).unwrap();
        assert_eq!(p.fsync(fd), Err(PosixError::BadFd));
    }

    #[test]
    fn fd_slots_reused() {
        let mut p = pfs();
        let a = p.open("a", OpenMode::Write).unwrap();
        let b = p.open("b", OpenMode::Write).unwrap();
        p.close(a).unwrap();
        let c = p.open("c", OpenMode::Write).unwrap();
        assert_eq!(a, c, "slot reuse");
        assert_ne!(b, c);
    }
}
