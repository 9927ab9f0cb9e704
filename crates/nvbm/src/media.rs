//! The device's persistent bytes, held sparsely.
//!
//! A real NVBM pool is a mapped device that costs what is written to it;
//! the emulated one should too. [`SparseMedia`] is a table of fixed-size
//! chunks, each allocated by the first commit that reaches it, and an
//! absent chunk reads as zeros. An import adopts only the chunks that hold
//! a non-zero byte. What stays proportional to the device is the chunk
//! table itself: one pointer per [`CHUNK`] bytes.
//!
//! Flat `Vec<u8>` images remain the exchange format (the saved file, crash
//! captures, replicas): [`SparseMedia::to_image`] exports one — a lazily
//! zeroed allocation plus copies of the present chunks — and
//! [`SparseMedia::from_image`] adopts one. Readers and committers that
//! serve both kinds are written once against [`Media`].

use std::ops::Range;

use crate::model::CACHELINE;

/// Bytes per media chunk: 1 024 cachelines, 16 wear blocks. Large enough
/// that the table costs 1/8 192 of the device and a bump-allocated region
/// fills its chunks densely; small enough that a scattered touch (the
/// header, the recorder ring at the top) materialises little.
pub(crate) const CHUNK: usize = 64 << 10;

/// Byte-addressed access to on-media bytes, implemented by the live sparse
/// media and by flat images. Every range passed must lie inside
/// `0..size()`.
pub(crate) trait Media {
    /// Size of the device in bytes.
    fn size(&self) -> usize;
    /// Copy the bytes at `[offset, offset + buf.len())` into `buf`.
    fn read_at(&self, offset: usize, buf: &mut [u8]);
    /// Store `data` at `[offset, offset + data.len())`.
    fn write_at(&mut self, offset: usize, data: &[u8]);
}

impl Media for [u8] {
    fn size(&self) -> usize {
        self.len()
    }

    fn read_at(&self, offset: usize, buf: &mut [u8]) {
        buf.copy_from_slice(&self[offset..offset + buf.len()]);
    }

    fn write_at(&mut self, offset: usize, data: &[u8]) {
        self[offset..offset + data.len()].copy_from_slice(data);
    }
}

/// Device media as a table of [`CHUNK`]-byte chunks, allocated on first
/// commit.
pub(crate) struct SparseMedia {
    size: usize,
    chunks: Vec<Option<Box<[u8; CHUNK]>>>,
}

impl SparseMedia {
    /// An all-zero device of `size` bytes; holds no chunk.
    pub(crate) fn zeroed(size: usize) -> Self {
        SparseMedia { size, chunks: vec![None; size.div_ceil(CHUNK)] }
    }

    /// Adopt a flat image: only its chunks holding a non-zero byte are
    /// materialised.
    pub(crate) fn from_image(image: &[u8]) -> Self {
        let mut media = SparseMedia::zeroed(image.len());
        for (slot, bytes) in media.chunks.iter_mut().zip(image.chunks(CHUNK)) {
            if !is_zero(bytes) {
                let mut chunk = new_chunk();
                chunk[..bytes.len()].copy_from_slice(bytes);
                *slot = Some(chunk);
            }
        }
        media
    }

    /// Export a flat image: a lazily zeroed allocation plus a copy of
    /// every present chunk, so the copy costs the touched bytes.
    pub(crate) fn to_image(&self) -> Vec<u8> {
        let mut image = vec![0u8; self.size];
        for (bytes, chunk) in image.chunks_mut(CHUNK).zip(&self.chunks) {
            if let Some(chunk) = chunk {
                bytes.copy_from_slice(&chunk[..bytes.len()]);
            }
        }
        image
    }

    /// Bytes held by materialised chunks.
    pub(crate) fn resident_bytes(&self) -> usize {
        self.chunks.iter().filter(|c| c.is_some()).count() * CHUNK
    }
}

impl Media for SparseMedia {
    fn size(&self) -> usize {
        self.size
    }

    #[inline]
    fn read_at(&self, offset: usize, buf: &mut [u8]) {
        for (c, within, at) in pieces(offset, buf.len()) {
            match &self.chunks[c] {
                Some(chunk) => buf[at].copy_from_slice(&chunk[within]),
                None => buf[at].fill(0),
            }
        }
    }

    #[inline]
    fn write_at(&mut self, offset: usize, data: &[u8]) {
        for (c, within, at) in pieces(offset, data.len()) {
            self.chunks[c].get_or_insert_with(new_chunk)[within].copy_from_slice(&data[at]);
        }
    }
}

/// `[offset, offset + len)` split at chunk boundaries: per piece, the
/// chunk index, the range within that chunk and the range within the
/// caller's buffer.
#[inline]
fn pieces(offset: usize, len: usize) -> impl Iterator<Item = (usize, Range<usize>, Range<usize>)> {
    let mut at = 0;
    std::iter::from_fn(move || {
        (at < len).then(|| {
            let pos = offset + at;
            let within = pos % CHUNK;
            let n = (CHUNK - within).min(len - at);
            let piece = (pos / CHUNK, within..within + n, at..at + n);
            at += n;
            piece
        })
    })
}

/// A zeroed chunk, allocated zeroed rather than built on the stack.
fn new_chunk() -> Box<[u8; CHUNK]> {
    vec![0u8; CHUNK].into_boxed_slice().try_into().expect("CHUNK bytes")
}

/// Does `bytes` hold only zeros? Tested a line at a time so each test
/// vectorises and a non-zero line ends the scan.
fn is_zero(bytes: &[u8]) -> bool {
    bytes.chunks(CACHELINE).all(|line| line.iter().fold(0, |acc, &b| acc | b) == 0)
}
