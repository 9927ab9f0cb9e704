//! Circular-log record codec for the log-structured rt heap.
//!
//! Every byte the runtime appends to the rt region is framed as a
//! **record**: a fixed 24-byte header, the payload, and an FNV-1a-32
//! trailer over header + payload (the same checksum discipline as
//! `nvbm::recorder`'s flight-recorder slots). Records are 8-byte
//! aligned so a torn 8-byte-atomic store can never split a field:
//!
//! ```text
//! off+0   u32  magic      (LOG_MAGIC, "RTLG")
//! off+4   u32  payload_len
//! off+8   u64  seq        (monotone append sequence, debugging aid)
//! off+16  u8   kind       (Blob | Commit | Pad)
//! off+17  [7]  zero pad
//! off+24  ...  payload
//! off+24+len   u32 fnv    (FNV-1a-32 over bytes [0, 24+len))
//! ...     pad to 8-byte boundary
//! ```
//!
//! `Pad` records are header-only (24 bytes on media): `payload_len`
//! holds the number of bytes a scanner must *skip* after the header, so
//! a wrap gap at the top of the ring costs one cacheline-sized header,
//! not a full dummy payload. A torn pad header fails the magic/kind
//! check and cleanly terminates the scan.
//!
//! Recovery of the *table* never scans forward — it chain-walks commit
//! records from the durable root pointer, each validated by checksum —
//! but [`scan`] gives the torn-tail-safe forward reader the property
//! tests (and debugging tools) use: scanning stops at the first record
//! whose header or checksum does not validate, so a crash mid-append
//! truncates to exactly the fully-written prefix.

use pmoctree_nvbm::recorder::fnv32;

/// Record magic: `"RTLG"` little-endian.
pub const LOG_MAGIC: u32 = 0x474c_5452;

/// Fixed record header size (bytes).
pub const REC_HEADER: usize = 24;

/// Checksum trailer size (bytes).
pub const REC_TRAILER: usize = 4;

/// What a record carries.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[repr(u8)]
pub enum RecordKind {
    /// An object blob (`OBJ_MAGIC` framing + payload), referenced by a
    /// table entry.
    Blob = 1,
    /// A commit record: epoch, previous-commit pointer, table delta.
    Commit = 2,
    /// A wrap gap: header-only, `payload_len` bytes of dead space follow.
    Pad = 3,
}

impl RecordKind {
    /// Decode a kind byte; `None` for anything unknown (torn / garbage).
    pub fn from_u8(v: u8) -> Option<RecordKind> {
        match v {
            1 => Some(RecordKind::Blob),
            2 => Some(RecordKind::Commit),
            3 => Some(RecordKind::Pad),
            _ => None,
        }
    }
}

/// Total on-media size of a non-pad record with `payload_len` payload
/// bytes: header + payload + trailer, rounded up to 8-byte alignment.
pub const fn record_size(payload_len: usize) -> usize {
    (REC_HEADER + payload_len + REC_TRAILER + 7) & !7
}

/// Encode a full Blob/Commit record (header + payload + checksum +
/// alignment padding). The returned buffer is exactly
/// [`record_size`]`(payload.len())` bytes.
pub fn encode_record(seq: u64, kind: RecordKind, payload: &[u8]) -> Vec<u8> {
    debug_assert!(kind != RecordKind::Pad, "pads are header-only; use encode_pad");
    let total = record_size(payload.len());
    let mut out = Vec::with_capacity(total);
    out.extend_from_slice(&LOG_MAGIC.to_le_bytes());
    out.extend_from_slice(&(payload.len() as u32).to_le_bytes());
    out.extend_from_slice(&seq.to_le_bytes());
    out.push(kind as u8);
    out.extend_from_slice(&[0u8; 7]);
    out.extend_from_slice(payload);
    let fnv = fnv32(&out);
    out.extend_from_slice(&fnv.to_le_bytes());
    out.resize(total, 0);
    out
}

/// Encode a pad header covering `skip` bytes of dead space after it
/// (total gap consumed = `REC_HEADER + skip`). Header-only on media.
pub fn encode_pad(seq: u64, skip: usize) -> [u8; REC_HEADER] {
    let mut out = [0u8; REC_HEADER];
    out[0..4].copy_from_slice(&LOG_MAGIC.to_le_bytes());
    out[4..8].copy_from_slice(&(skip as u32).to_le_bytes());
    out[8..16].copy_from_slice(&seq.to_le_bytes());
    out[16] = RecordKind::Pad as u8;
    out
}

/// A record decoded from a buffer.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Record {
    /// Offset of the record header within the scanned buffer.
    pub off: usize,
    /// Append sequence number.
    pub seq: u64,
    /// Record kind (never `Pad`; pads are skipped by [`scan`]).
    pub kind: RecordKind,
    /// Payload bytes.
    pub payload: Vec<u8>,
    /// Total on-media footprint including header/trailer/padding.
    pub size: usize,
}

/// The fields of a record header whose magic validated.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Header {
    /// Payload bytes (for a `Pad`: bytes to skip after the header).
    pub len: usize,
    /// Append sequence number.
    pub seq: u64,
    /// `None` for a kind byte no record carries (torn / garbage).
    pub kind: Option<RecordKind>,
}

impl Header {
    /// A non-pad record's bytes through its trailer, without the
    /// alignment padding [`record_size`] adds.
    pub fn unpadded_size(&self) -> usize {
        REC_HEADER + self.len + REC_TRAILER
    }
}

/// Parse a record header: the one reader of the layout in the module
/// docs. `Err` carries the word found where [`LOG_MAGIC`] belongs.
pub fn parse_header(h: &[u8; REC_HEADER]) -> Result<Header, u32> {
    let magic = u32::from_le_bytes([h[0], h[1], h[2], h[3]]);
    if magic != LOG_MAGIC {
        return Err(magic);
    }
    Ok(Header {
        len: u32::from_le_bytes([h[4], h[5], h[6], h[7]]) as usize,
        seq: u64::from_le_bytes([h[8], h[9], h[10], h[11], h[12], h[13], h[14], h[15]]),
        kind: RecordKind::from_u8(h[16]),
    })
}

/// Does `rec` — a record's header, payload and trailer, nothing after —
/// end in the FNV-1a-32 of everything before the trailer?
pub fn checksum_ok(rec: &[u8]) -> bool {
    rec.split_last_chunk::<REC_TRAILER>()
        .is_some_and(|(body, trailer)| fnv32(body).to_le_bytes() == *trailer)
}

/// Decode the record starting at `off`, validating magic, kind, bounds
/// and checksum. Returns `None` for anything that does not validate —
/// including a torn tail and an `off` outside `buf`. For `Pad` records
/// the payload is empty and `size` covers the skipped gap.
pub fn decode_at(buf: &[u8], off: usize) -> Option<Record> {
    let tail = buf.get(off..)?;
    let header = parse_header(tail.first_chunk()?).ok()?;
    let Header { len, seq, .. } = header;
    let kind = header.kind?;
    if kind == RecordKind::Pad {
        let size = REC_HEADER.checked_add(len)?;
        if size > tail.len() {
            return None;
        }
        return Some(Record { off, seq, kind, payload: Vec::new(), size });
    }
    let size = record_size(len);
    let rec = tail.get(..size)?;
    if !checksum_ok(&rec[..header.unpadded_size()]) {
        return None;
    }
    Some(Record { off, seq, kind, payload: rec[REC_HEADER..REC_HEADER + len].to_vec(), size })
}

/// Forward-scan `[start, end)` for records, skipping pads, stopping at
/// the first offset that does not validate (torn tail, garbage, or the
/// end of the window). Returns the fully-written records in order.
pub fn scan(buf: &[u8], start: usize, end: usize) -> Vec<Record> {
    let mut out = Vec::new();
    let mut off = start;
    // A decoded record lies inside `buf`, so its end cannot overflow.
    while let Some(r) = decode_at(buf, off).filter(|r| r.off + r.size <= end) {
        off += r.size;
        if r.kind != RecordKind::Pad {
            out.push(r);
        }
    }
    out
}

#[cfg(test)]
#[allow(clippy::unwrap_used)]
mod tests {
    use super::*;

    #[test]
    fn record_roundtrip_and_alignment() {
        for len in [0usize, 1, 7, 8, 63, 64, 100, 513] {
            let payload: Vec<u8> = (0..len).map(|i| (i * 7 + 3) as u8).collect();
            let rec = encode_record(42, RecordKind::Blob, &payload);
            assert_eq!(rec.len(), record_size(len));
            assert_eq!(rec.len() % 8, 0, "records must stay 8-byte aligned");
            let d = decode_at(&rec, 0).unwrap();
            assert_eq!(d.seq, 42);
            assert_eq!(d.kind, RecordKind::Blob);
            assert_eq!(d.payload, payload);
            assert_eq!(d.size, rec.len());
        }
    }

    /// `decode_at` and `scan` are `pub`: an offset from outside must be
    /// answered, not added to.
    #[test]
    fn offsets_outside_the_buffer_decode_to_nothing() {
        let buf = [0u8; 64];
        for off in [64, 65, usize::MAX - REC_HEADER, usize::MAX - 3, usize::MAX] {
            assert_eq!(decode_at(&buf, off), None, "off {off:#x}");
            assert!(scan(&buf, off, buf.len()).is_empty(), "off {off:#x}");
            assert!(scan(&buf, off, usize::MAX).is_empty(), "off {off:#x}");
        }
    }

    #[test]
    fn corrupt_any_byte_fails_checksum() {
        let payload = b"log structured".to_vec();
        let rec = encode_record(7, RecordKind::Commit, &payload);
        // Flip each byte of header+payload+trailer in turn; every flip
        // must be detected (magic, kind, length, or checksum).
        for i in 0..REC_HEADER + payload.len() + REC_TRAILER {
            let mut bad = rec.clone();
            bad[i] ^= 0xFF;
            let d = decode_at(&bad, 0);
            // A corrupted length can still decode iff the checksum were
            // right — it never is, because the checksum covers the
            // length field.
            assert!(d.is_none(), "flip at {i} must not validate");
        }
    }

    /// Satellite: torn write at every tail byte → clean truncation.
    /// Mirrors `nvbm::recorder`'s torn-slot test shape: build a log of
    /// records, truncate at *every* byte position, and require that the
    /// scan recovers exactly the records fully written before the cut.
    #[test]
    fn torn_tail_at_every_byte_truncates_cleanly() {
        let mut buf = Vec::new();
        // Content end of each record (through the checksum trailer): a
        // cut inside the trailing alignment padding loses only zeros the
        // blank media already holds, so such a record still recovers.
        let mut ends = Vec::new();
        for i in 0..6u64 {
            let payload: Vec<u8> =
                (0..(i as usize * 13 + 5)).map(|j| (j + i as usize) as u8).collect();
            ends.push(buf.len() + REC_HEADER + payload.len() + REC_TRAILER);
            buf.extend_from_slice(&encode_record(i, RecordKind::Blob, &payload));
        }
        for cut in 0..=buf.len() {
            let mut torn = buf[..cut].to_vec();
            // Zero-fill the rest of the window, as unwritten media.
            torn.resize(buf.len(), 0);
            let got = scan(&torn, 0, torn.len());
            let want = ends.iter().filter(|&&e| e <= cut).count();
            assert_eq!(got.len(), want, "cut at byte {cut}");
            for (i, r) in got.iter().enumerate() {
                assert_eq!(r.seq, i as u64, "recovered prefix must be in order");
            }
        }
    }

    /// Satellite: wraparound at arbitrary capacities. Emulate a ring of
    /// every capacity in a range: append records until the head would
    /// pass the top, place a pad over the wrap gap, continue from the
    /// base, and require the scanner to walk the whole lap.
    #[test]
    fn wraparound_at_arbitrary_capacities() {
        for cap in (96..512).step_by(8) {
            let mut buf = vec![0u8; cap];
            let mut head = 0usize;
            let mut appended = Vec::new();
            let mut seq = 0u64;
            // Fill one lap: append until the next record no longer fits
            // before the top, then pad out the wrap gap.
            loop {
                let payload: Vec<u8> = (0..(seq as usize % 40)).map(|j| j as u8).collect();
                let rec = encode_record(seq, RecordKind::Blob, &payload);
                if head + rec.len() > cap {
                    let gap = cap - head;
                    if gap >= REC_HEADER {
                        let pad = encode_pad(seq, gap - REC_HEADER);
                        buf[head..head + REC_HEADER].copy_from_slice(&pad);
                    }
                    break;
                }
                buf[head..head + rec.len()].copy_from_slice(&rec);
                appended.push((head, seq, payload));
                head += rec.len();
                seq += 1;
            }
            let got = scan(&buf, 0, cap);
            assert_eq!(got.len(), appended.len(), "cap {cap}");
            for (r, (off, s, payload)) in got.iter().zip(&appended) {
                assert_eq!(r.off, *off);
                assert_eq!(r.seq, *s);
                assert_eq!(&r.payload, payload);
            }
        }
    }

    #[test]
    fn pad_header_skips_gap_and_scan_continues() {
        let mut buf = Vec::new();
        buf.extend_from_slice(&encode_record(0, RecordKind::Blob, b"a"));
        let pad_off = buf.len();
        buf.extend_from_slice(&encode_pad(1, 40));
        buf.resize(pad_off + REC_HEADER + 40, 0xEE); // dead gap bytes
        buf.extend_from_slice(&encode_record(2, RecordKind::Commit, b"bb"));
        let got = scan(&buf, 0, buf.len());
        assert_eq!(got.len(), 2);
        assert_eq!(got[0].kind, RecordKind::Blob);
        assert_eq!(got[1].kind, RecordKind::Commit);
        assert_eq!(got[1].off, pad_off + REC_HEADER + 40);
    }

    #[test]
    fn torn_pad_header_ends_scan() {
        let mut buf = Vec::new();
        buf.extend_from_slice(&encode_record(0, RecordKind::Blob, b"x"));
        let mut pad = encode_pad(1, 64).to_vec();
        pad[16] = 0; // kind word never reached the media
        buf.extend_from_slice(&pad);
        buf.resize(buf.len() + 64, 0);
        let got = scan(&buf, 0, buf.len());
        assert_eq!(got.len(), 1);
    }
}
