//! Record codec for the log-structured rt heap.
//!
//! Every byte the runtime appends to the rt region is framed as a
//! **record**: an 8-byte header, the payload, and an FNV-1a-32 trailer
//! over header + payload (the same checksum discipline as
//! `nvbm::recorder`'s flight-recorder slots). Records are 8-byte
//! aligned so a torn 8-byte-atomic store can never split a field:
//!
//! ```text
//! off+0       u32  magic   (the kind: OBJ_MAGIC for a blob, LOG_MAGIC
//!                           for a commit record)
//! off+4       u32  len     (payload bytes)
//! off+8       ...  payload
//! off+8+len   u32  fnv     (FNV-1a-32 over bytes [0, 8+len))
//! ...              zero pad to an 8-byte boundary
//! ```
//!
//! Nothing scans the ring, so nothing frames the space between records:
//! recovery chain-walks commit records from the durable root pointer,
//! and a blob is read only through the table entry or pointer that
//! names its record, so a torn append past the last publication is never
//! reached.

use pmoctree_nvbm::recorder::fnv32;

/// Commit record magic: `"RTLG"` little-endian.
pub const LOG_MAGIC: u32 = 0x474c_5452;

/// Object blob magic: `"PMRT"` little-endian.
pub const OBJ_MAGIC: u32 = 0x504d_5254;

/// Record header size (bytes): magic and payload length.
pub const REC_HEADER: usize = 8;

/// Checksum trailer size (bytes).
pub const REC_TRAILER: usize = 4;

/// Total on-media size of a record with `payload_len` payload bytes:
/// header + payload + trailer, rounded up to 8-byte alignment.
pub const fn record_size(payload_len: usize) -> usize {
    (REC_HEADER + payload_len + REC_TRAILER + 7) & !7
}

/// Start a record of kind `magic` in `out` (cleared first), with the
/// payload length left for [`seal_record`] to stamp once the caller has
/// appended the payload behind the header.
pub fn open_record(out: &mut Vec<u8>, magic: u32) {
    out.clear();
    out.extend_from_slice(&magic.to_le_bytes());
    out.extend_from_slice(&[0u8; 4]);
}

/// Finish the record [`open_record`] began in `out`: stamp the payload
/// length, append the checksum trailer and pad to exactly
/// [`record_size`] of the payload.
pub fn seal_record(out: &mut Vec<u8>) {
    let len = out.len() - REC_HEADER;
    out[4..8].copy_from_slice(&(len as u32).to_le_bytes());
    let fnv = fnv32(out);
    out.extend_from_slice(&fnv.to_le_bytes());
    out.resize(record_size(len), 0);
}

/// Parse a record header: its magic and payload length — the one reader
/// of the layout in the module docs.
pub fn parse_header(h: &[u8; REC_HEADER]) -> (u32, usize) {
    let [m0, m1, m2, m3, l0, l1, l2, l3] = *h;
    (u32::from_le_bytes([m0, m1, m2, m3]), u32::from_le_bytes([l0, l1, l2, l3]) as usize)
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

    /// A whole record of kind `magic` around `payload`.
    fn encode_record(magic: u32, payload: &[u8]) -> Vec<u8> {
        let mut rec = Vec::new();
        open_record(&mut rec, magic);
        rec.extend_from_slice(payload);
        seal_record(&mut rec);
        rec
    }

    #[test]
    fn record_roundtrip_and_alignment() {
        for len in [0usize, 1, 3, 4, 7, 8, 63, 64, 100, 513] {
            let payload: Vec<u8> = (0..len).map(|i| (i * 7 + 3) as u8).collect();
            let rec = encode_record(OBJ_MAGIC, &payload);
            assert_eq!(rec.len(), record_size(len));
            assert_eq!(rec.len() % 8, 0, "records must stay 8-byte aligned");
            assert!(rec.len() >= REC_HEADER + len + REC_TRAILER);
            assert_eq!(parse_header(rec.first_chunk().unwrap()), (OBJ_MAGIC, len));
            assert!(checksum_ok(&rec[..REC_HEADER + len + REC_TRAILER]));
            assert_eq!(&rec[REC_HEADER..REC_HEADER + len], &payload[..]);
        }
    }

    #[test]
    fn corrupt_any_byte_fails_checksum() {
        let payload = b"log structured".to_vec();
        let rec = encode_record(LOG_MAGIC, &payload);
        // Flip each byte of header+payload+trailer in turn; every flip
        // must be detected (magic, length, or checksum) — the checksum
        // covers the length field, so a corrupted length never validates
        // either.
        for i in 0..REC_HEADER + payload.len() + REC_TRAILER {
            let mut bad = rec.clone();
            bad[i] ^= 0xFF;
            let (magic, len) = parse_header(bad.first_chunk().unwrap());
            let valid = magic == LOG_MAGIC
                && bad.get(..REC_HEADER + len + REC_TRAILER).is_some_and(checksum_ok);
            assert!(!valid, "flip at {i} must not validate");
        }
    }
}
