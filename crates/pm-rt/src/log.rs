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
//! holds the number of bytes of dead space after the header, so a wrap
//! gap at the top of the ring costs one cacheline-sized header, not a
//! full dummy payload.
//!
//! Recovery never scans the ring: it chain-walks commit records from the
//! durable root pointer, each read through [`parse_header`] and validated
//! by [`checksum_ok`], so a torn append past the last root swap is never
//! reached.

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

/// Start a Blob/Commit record in `out` (cleared first): the header, with
/// the payload length and sequence number left for [`seal_record`] to
/// stamp once the caller has appended the payload behind it.
pub fn open_record(out: &mut Vec<u8>, kind: RecordKind) {
    debug_assert!(kind != RecordKind::Pad, "pads are header-only; use encode_pad");
    out.clear();
    out.extend_from_slice(&LOG_MAGIC.to_le_bytes());
    out.extend_from_slice(&[0u8; 12]);
    out.push(kind as u8);
    out.extend_from_slice(&[0u8; 7]);
}

/// Finish the record [`open_record`] began in `out`: stamp the payload
/// length and `seq`, append the checksum trailer and pad to exactly
/// [`record_size`] of the payload.
pub fn seal_record(out: &mut Vec<u8>, seq: u64) {
    let len = out.len() - REC_HEADER;
    out[4..8].copy_from_slice(&(len as u32).to_le_bytes());
    out[8..16].copy_from_slice(&seq.to_le_bytes());
    let fnv = fnv32(out);
    out.extend_from_slice(&fnv.to_le_bytes());
    out.resize(record_size(len), 0);
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

#[cfg(test)]
#[allow(clippy::unwrap_used)]
mod tests {
    use super::*;

    /// A whole record of `kind` around `payload`.
    fn encode_record(seq: u64, kind: RecordKind, payload: &[u8]) -> Vec<u8> {
        let mut rec = Vec::new();
        open_record(&mut rec, kind);
        rec.extend_from_slice(payload);
        seal_record(&mut rec, seq);
        rec
    }

    /// The header of an encoded record, parsed back.
    fn header(rec: &[u8]) -> Result<Header, u32> {
        parse_header(rec.first_chunk().unwrap())
    }

    #[test]
    fn record_roundtrip_and_alignment() {
        for len in [0usize, 1, 7, 8, 63, 64, 100, 513] {
            let payload: Vec<u8> = (0..len).map(|i| (i * 7 + 3) as u8).collect();
            let rec = encode_record(42, RecordKind::Blob, &payload);
            assert_eq!(rec.len(), record_size(len));
            assert_eq!(rec.len() % 8, 0, "records must stay 8-byte aligned");
            let h = header(&rec).unwrap();
            assert_eq!(h, Header { len, seq: 42, kind: Some(RecordKind::Blob) });
            assert!(checksum_ok(&rec[..h.unpadded_size()]));
            assert_eq!(&rec[REC_HEADER..REC_HEADER + len], &payload[..]);
        }
        let pad = encode_pad(9, 40);
        assert_eq!(header(&pad), Ok(Header { len: 40, seq: 9, kind: Some(RecordKind::Pad) }));
    }

    #[test]
    fn corrupt_any_byte_fails_checksum() {
        let payload = b"log structured".to_vec();
        let rec = encode_record(7, RecordKind::Commit, &payload);
        // Flip each byte of header+payload+trailer in turn; every flip
        // must be detected (magic, kind, length, or checksum) — the
        // checksum covers the length field, so a corrupted length never
        // validates either.
        for i in 0..REC_HEADER + payload.len() + REC_TRAILER {
            let mut bad = rec.clone();
            bad[i] ^= 0xFF;
            let valid = header(&bad).is_ok_and(|h| {
                h.kind == Some(RecordKind::Commit)
                    && bad.get(..h.unpadded_size()).is_some_and(checksum_ok)
            });
            assert!(!valid, "flip at {i} must not validate");
        }
    }
}
