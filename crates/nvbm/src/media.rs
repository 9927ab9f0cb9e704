//! The device's persistent bytes, held sparsely.
//!
//! A real NVBM pool is a mapped device that costs what is written to it;
//! the emulated one should too. [`SparseMedia`] is a table of fixed-size
//! chunks, each allocated by the first commit that reaches it, and an
//! absent chunk reads as zeros. What stays proportional to the device is
//! the chunk table itself: one pointer per [`CHUNK`] bytes.
//!
//! It is the one media value: the live arena holds one, crash views and
//! captures yield a clone with the crash applied, replicas keep one in
//! sync. A flat image exists only as the file `NvbmArena::save` writes.

use std::ops::Range;

use crate::model::CACHELINE;

/// Bytes per media chunk: 1 024 cachelines, 16 wear blocks. Large enough
/// that the table costs 1/8 192 of the device and a bump-allocated region
/// fills its chunks densely; small enough that a scattered touch (the
/// header, the recorder ring at the top) materialises little.
pub(crate) const CHUNK: usize = 64 << 10;

/// Device media as a table of 64 KiB chunks, allocated on first commit.
/// A clone copies the present chunks only; the default is the empty,
/// size-0 media.
#[derive(Clone, Default)]
pub struct SparseMedia {
    size: usize,
    chunks: Box<[Option<Box<[u8; CHUNK]>>]>,
}

impl SparseMedia {
    /// An all-zero device of `size` bytes; holds no chunk.
    pub(crate) fn zeroed(size: usize) -> Self {
        SparseMedia { size, chunks: vec![None; size.div_ceil(CHUNK)].into_boxed_slice() }
    }

    /// Adopt a flat image (a saved file): only its chunks holding a
    /// non-zero byte are materialised.
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

    /// Export a flat image (the saved file): a lazily zeroed allocation
    /// plus a copy of every present chunk.
    pub(crate) fn to_image(&self) -> Vec<u8> {
        let mut image = vec![0u8; self.size];
        for (bytes, chunk) in image.chunks_mut(CHUNK).zip(&self.chunks) {
            if let Some(chunk) = chunk {
                bytes.copy_from_slice(&chunk[..bytes.len()]);
            }
        }
        image
    }

    /// Size of the device in bytes.
    pub fn size(&self) -> usize {
        self.size
    }

    /// Host bytes held by materialised chunks.
    pub fn resident_bytes(&self) -> usize {
        self.chunks.iter().filter(|c| c.is_some()).count() * CHUNK
    }

    /// Copy the bytes at `[offset, offset + buf.len())` into `buf`. Panics
    /// if the range runs past [`SparseMedia::size`].
    #[inline]
    pub fn read_at(&self, offset: usize, buf: &mut [u8]) {
        for (c, within, at) in pieces(offset, buf.len(), self.size) {
            match &self.chunks[c] {
                Some(chunk) => buf[at].copy_from_slice(&chunk[within]),
                None => buf[at].fill(0),
            }
        }
    }

    /// Store `data` at `[offset, offset + data.len())`, materialising the
    /// chunks it reaches. Panics if the range runs past
    /// [`SparseMedia::size`].
    #[inline]
    pub fn write_at(&mut self, offset: usize, data: &[u8]) {
        for (c, within, at) in pieces(offset, data.len(), self.size) {
            self.chunks[c].get_or_insert_with(new_chunk)[within].copy_from_slice(&data[at]);
        }
    }
}

impl std::fmt::Debug for SparseMedia {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("SparseMedia")
            .field("size", &self.size)
            .field("resident_bytes", &self.resident_bytes())
            .finish()
    }
}

/// `[offset, offset + len)` split at chunk boundaries: per piece, the
/// chunk index, the range within that chunk and the range within the
/// caller's buffer. Panics if the range runs past `size`.
#[inline]
fn pieces(
    offset: usize,
    len: usize,
    size: usize,
) -> impl Iterator<Item = (usize, Range<usize>, Range<usize>)> {
    assert!(offset.checked_add(len).is_some_and(|end| end <= size), "media access out of bounds");
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

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    #[should_panic(expected = "out of bounds")]
    fn an_access_past_the_size_panics() {
        // Inside the last chunk's allocation, past the device.
        SparseMedia::zeroed(CHUNK + 10).write_at(CHUNK + 8, &[1, 2, 3]);
    }
}
