//! Byte codec for persistent objects.
//!
//! The runtime persists anything implementing [`PmData`] — an explicit
//! little-endian byte codec rather than a serde derive, because decode
//! runs against post-crash media: every read must be bounds-checked and
//! return `Err`, never panic. [`ByteWriter`] / [`ByteReader`] make
//! hand-written impls three lines per field.

use pmoctree_nvbm::PmError;

/// A value the runtime can persist: encodes to / decodes from a
/// self-contained byte string. Decoding must tolerate arbitrary
/// (truncated, corrupted) input by returning `Err`.
pub trait PmData {
    /// Append this value's encoding to `out`.
    fn encode(&self, out: &mut Vec<u8>);
    /// Decode a value from exactly the bytes `encode` produced.
    fn decode(r: &mut ByteReader<'_>) -> Result<Self, PmError>
    where
        Self: Sized;

    /// Convenience: encode into a fresh buffer.
    fn to_bytes(&self) -> Vec<u8> {
        let mut out = Vec::new();
        self.encode(&mut out);
        out
    }

    /// Convenience: decode from a whole buffer, requiring that every byte
    /// is consumed (trailing garbage is corruption, not padding).
    fn from_bytes(bytes: &[u8]) -> Result<Self, PmError>
    where
        Self: Sized,
    {
        let mut r = ByteReader::new(bytes);
        let v = Self::decode(&mut r)?;
        if !r.is_empty() {
            return Err(PmError::Corrupt(format!("{} trailing bytes after decode", r.remaining())));
        }
        Ok(v)
    }
}

/// Appends little-endian fields to a byte buffer.
pub struct ByteWriter<'a> {
    out: &'a mut Vec<u8>,
}

impl<'a> ByteWriter<'a> {
    /// Write into `out`.
    pub fn new(out: &'a mut Vec<u8>) -> Self {
        ByteWriter { out }
    }

    /// Append a `u8`.
    pub fn u8(&mut self, v: u8) {
        self.out.push(v);
    }

    /// Append a `u32`.
    pub fn u32(&mut self, v: u32) {
        self.out.extend_from_slice(&v.to_le_bytes());
    }

    /// Append a `u64`.
    pub fn u64(&mut self, v: u64) {
        self.out.extend_from_slice(&v.to_le_bytes());
    }

    /// Append an `f64`.
    pub fn f64(&mut self, v: f64) {
        self.out.extend_from_slice(&v.to_le_bytes());
    }

    /// Append a length-prefixed byte string.
    pub fn bytes(&mut self, v: &[u8]) {
        self.u64(v.len() as u64);
        self.raw(v);
    }

    /// Append bytes as they are, with no length prefix.
    pub(crate) fn raw(&mut self, v: &[u8]) {
        self.out.extend_from_slice(v);
    }

    /// Append a `u64` as an unsigned LEB128 varint: seven bits a byte,
    /// low bits first, the top bit set on every byte but the last.
    pub(crate) fn varint(&mut self, mut v: u64) {
        while v >= 0x80 {
            self.out.push(v as u8 | 0x80);
            v >>= 7;
        }
        self.out.push(v as u8);
    }
}

/// Bytes [`ByteWriter::varint`] takes for `v` (1 to 10).
pub(crate) fn varint_len(v: u64) -> usize {
    (64 - (v | 1).leading_zeros() as usize).div_ceil(7)
}

/// Bounds-checked little-endian reader over a byte slice.
pub struct ByteReader<'a> {
    buf: &'a [u8],
    pos: usize,
}

impl<'a> ByteReader<'a> {
    /// Read from the start of `buf`.
    pub fn new(buf: &'a [u8]) -> Self {
        ByteReader { buf, pos: 0 }
    }

    /// Bytes not yet consumed.
    pub fn remaining(&self) -> usize {
        self.buf.len() - self.pos
    }

    /// Has every byte been consumed?
    pub fn is_empty(&self) -> bool {
        self.remaining() == 0
    }

    fn take(&mut self, n: usize) -> Result<&'a [u8], PmError> {
        if self.remaining() < n {
            return Err(PmError::Corrupt(format!(
                "truncated: need {n} bytes at offset {}, have {}",
                self.pos,
                self.remaining()
            )));
        }
        let s = &self.buf[self.pos..self.pos + n];
        self.pos += n;
        Ok(s)
    }

    /// Read a `u8`.
    pub fn u8(&mut self) -> Result<u8, PmError> {
        Ok(self.take(1)?[0])
    }

    /// Read a `u32`.
    pub fn u32(&mut self) -> Result<u32, PmError> {
        let b = self.take(4)?;
        Ok(u32::from_le_bytes(b.try_into().map_err(|_| PmError::Corrupt("u32".into()))?))
    }

    /// Read a `u64`.
    pub fn u64(&mut self) -> Result<u64, PmError> {
        let b = self.take(8)?;
        Ok(u64::from_le_bytes(b.try_into().map_err(|_| PmError::Corrupt("u64".into()))?))
    }

    /// Read an `f64`.
    pub fn f64(&mut self) -> Result<f64, PmError> {
        let b = self.take(8)?;
        Ok(f64::from_le_bytes(b.try_into().map_err(|_| PmError::Corrupt("f64".into()))?))
    }

    /// Read a length-prefixed byte string (length capped by the buffer
    /// itself, so a corrupt huge length cannot allocate unbounded memory).
    pub fn bytes(&mut self) -> Result<&'a [u8], PmError> {
        let n = self.u64()?;
        self.raw(n)
    }

    /// Read `n` bytes with no length prefix; `n` is checked against the
    /// bytes remaining before anything is taken.
    pub(crate) fn raw(&mut self, n: u64) -> Result<&'a [u8], PmError> {
        if n > self.remaining() as u64 {
            return Err(PmError::Corrupt(format!(
                "byte-string length {n} exceeds {} remaining",
                self.remaining()
            )));
        }
        self.take(n as usize)
    }

    /// Read an unsigned LEB128 varint ([`ByteWriter::varint`]). More than
    /// ten bytes, or bits past the 64th, are corruption.
    pub(crate) fn varint(&mut self) -> Result<u64, PmError> {
        let mut v = 0u64;
        for shift in (0..64).step_by(7) {
            let b = self.u8()?;
            let bits = u64::from(b & 0x7f);
            if shift == 63 && bits > 1 {
                return Err(PmError::Corrupt("varint overflows 64 bits".into()));
            }
            v |= bits << shift;
            if b & 0x80 == 0 {
                return Ok(v);
            }
        }
        Err(PmError::Corrupt("varint longer than 10 bytes".into()))
    }
}

impl PmData for u64 {
    fn encode(&self, out: &mut Vec<u8>) {
        ByteWriter::new(out).u64(*self);
    }
    fn decode(r: &mut ByteReader<'_>) -> Result<Self, PmError> {
        r.u64()
    }
}

impl PmData for u32 {
    fn encode(&self, out: &mut Vec<u8>) {
        ByteWriter::new(out).u32(*self);
    }
    fn decode(r: &mut ByteReader<'_>) -> Result<Self, PmError> {
        r.u32()
    }
}

impl PmData for f64 {
    fn encode(&self, out: &mut Vec<u8>) {
        ByteWriter::new(out).f64(*self);
    }
    fn decode(r: &mut ByteReader<'_>) -> Result<Self, PmError> {
        r.f64()
    }
}

impl PmData for String {
    fn encode(&self, out: &mut Vec<u8>) {
        ByteWriter::new(out).bytes(self.as_bytes());
    }
    fn decode(r: &mut ByteReader<'_>) -> Result<Self, PmError> {
        let b = r.bytes()?;
        String::from_utf8(b.to_vec()).map_err(|e| PmError::Corrupt(format!("utf8: {e}")))
    }
}

impl PmData for Vec<u8> {
    fn encode(&self, out: &mut Vec<u8>) {
        ByteWriter::new(out).bytes(self);
    }
    fn decode(r: &mut ByteReader<'_>) -> Result<Self, PmError> {
        Ok(r.bytes()?.to_vec())
    }
}

impl<T: PmData> PmData for Vec<T> {
    fn encode(&self, out: &mut Vec<u8>) {
        ByteWriter::new(out).u64(self.len() as u64);
        for v in self {
            v.encode(out);
        }
    }
    fn decode(r: &mut ByteReader<'_>) -> Result<Self, PmError> {
        let n = r.u64()?;
        // Each element consumes ≥1 byte, so `n` can never legitimately
        // exceed the remaining input; reject before reserving memory.
        if n > r.remaining() as u64 {
            return Err(PmError::Corrupt(format!("vec length {n} exceeds remaining input")));
        }
        let mut out = Vec::with_capacity(n as usize);
        for _ in 0..n {
            out.push(T::decode(r)?);
        }
        Ok(out)
    }
}

#[cfg(test)]
#[allow(clippy::unwrap_used)]
mod tests {
    use super::*;

    #[test]
    fn primitives_roundtrip() {
        let mut out = Vec::new();
        7u64.encode(&mut out);
        1.5f64.encode(&mut out);
        "droplet".to_string().encode(&mut out);
        vec![1u32, 2, 3].encode(&mut out);
        let mut r = ByteReader::new(&out);
        assert_eq!(u64::decode(&mut r).unwrap(), 7);
        assert_eq!(f64::decode(&mut r).unwrap(), 1.5);
        assert_eq!(String::decode(&mut r).unwrap(), "droplet");
        assert_eq!(Vec::<u32>::decode(&mut r).unwrap(), vec![1, 2, 3]);
        assert!(r.is_empty());
    }

    #[test]
    fn truncation_is_err_not_panic() {
        let full = vec![1u64, 2, 3].to_bytes();
        for cut in 0..full.len() {
            assert!(Vec::<u64>::from_bytes(&full[..cut]).is_err());
        }
    }

    #[test]
    fn huge_length_rejected_without_alloc() {
        let mut bad = Vec::new();
        ByteWriter::new(&mut bad).u64(u64::MAX);
        assert!(Vec::<u64>::from_bytes(&bad).is_err());
        assert!(String::from_bytes(&bad).is_err());
    }

    #[test]
    fn varints_roundtrip_and_reject_overflow() {
        for v in [0, 1, 127, 128, 255, 300, 16_383, 16_384, u32::MAX as u64, u64::MAX - 1, u64::MAX]
        {
            let mut out = Vec::new();
            ByteWriter::new(&mut out).varint(v);
            assert_eq!(out.len(), varint_len(v), "{v}");
            let mut r = ByteReader::new(&out);
            assert_eq!(r.varint().unwrap(), v);
            assert!(r.is_empty());
            for cut in 0..out.len() {
                assert!(ByteReader::new(&out[..cut]).varint().is_err(), "{v} cut at {cut}");
            }
        }
        // Bits past the 64th, and an eleventh byte.
        let mut over = vec![0xFF; 9];
        over.push(0x02);
        assert!(ByteReader::new(&over).varint().is_err());
        assert!(ByteReader::new(&[0x80; 11]).varint().is_err());
    }

    #[test]
    fn trailing_bytes_rejected() {
        let mut b = 9u64.to_bytes();
        b.push(0);
        assert!(u64::from_bytes(&b).is_err());
    }
}
