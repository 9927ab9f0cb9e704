//! Snapshot serialization: the on-file format shared by the in-core
//! baseline's snapshot files and the Etree data pages.
//!
//! One record is 48 bytes: locational code (8) + level (1) + leaf flag (1)
//! + padding (6) + four f64 payload fields (32).

use pmoctree_morton::OctKey;

/// Serialized size of one octant record.
pub const RECORD_SIZE: usize = 48;

/// One serialized octant.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct OctantRecord {
    /// Locational code.
    pub key: OctKey,
    /// Payload (phi, pressure, vof, work).
    pub data: [f64; 4],
    /// Is this a leaf octant?
    pub is_leaf: bool,
}

/// Encode a record into its 48-byte wire form.
pub fn encode_record(r: &OctantRecord, out: &mut [u8]) {
    assert!(out.len() >= RECORD_SIZE);
    out[0..8].copy_from_slice(&r.key.raw().to_le_bytes());
    out[8] = r.key.level();
    out[9] = r.is_leaf as u8;
    out[10..16].fill(0);
    for (i, v) in r.data.iter().enumerate() {
        out[16 + i * 8..24 + i * 8].copy_from_slice(&v.to_le_bytes());
    }
}

/// Decode a 48-byte wire record.
pub fn decode_record(b: &[u8]) -> Result<OctantRecord, String> {
    if b.len() < RECORD_SIZE {
        return Err(format!("short record: {} bytes", b.len()));
    }
    let code = u64::from_le_bytes(b[0..8].try_into().expect("8"));
    let level = b[8];
    if level > OctKey::MAX_LEVEL {
        return Err(format!("corrupt record: level {level}"));
    }
    // `OctKey::from_raw` panics on codes with bits above the level; a
    // corrupted record must surface as an error instead.
    let shift = level as u32 * 3;
    if shift < 64 && code >> shift != 0 {
        return Err(format!("corrupt record: code {code:#x} has bits above level {level}"));
    }
    let mut data = [0.0f64; 4];
    for (i, v) in data.iter_mut().enumerate() {
        *v = f64::from_le_bytes(b[16 + i * 8..24 + i * 8].try_into().expect("8"));
    }
    Ok(OctantRecord { key: OctKey::from_raw(code, level), data, is_leaf: b[9] != 0 })
}

/// Encode a whole octant list (8-byte count header + records).
pub fn encode_octants(records: &[OctantRecord]) -> Vec<u8> {
    let mut out = vec![0u8; 8 + records.len() * RECORD_SIZE];
    out[0..8].copy_from_slice(&(records.len() as u64).to_le_bytes());
    for (i, r) in records.iter().enumerate() {
        encode_record(r, &mut out[8 + i * RECORD_SIZE..8 + (i + 1) * RECORD_SIZE]);
    }
    out
}

/// Decode an octant list.
pub fn decode_octants(bytes: &[u8]) -> Result<Vec<OctantRecord>, String> {
    if bytes.len() < 8 {
        return Err("snapshot too short".into());
    }
    let n = u64::from_le_bytes(bytes[0..8].try_into().expect("8")) as usize;
    // Checked arithmetic: a corrupted count must yield an error, not an
    // overflow panic.
    let need = n.checked_mul(RECORD_SIZE).and_then(|b| b.checked_add(8));
    match need {
        Some(need) if bytes.len() >= need => {}
        _ => return Err(format!("snapshot truncated: {n} records claimed")),
    }
    (0..n).map(|i| decode_record(&bytes[8 + i * RECORD_SIZE..8 + (i + 1) * RECORD_SIZE])).collect()
}

#[cfg(test)]
#[allow(clippy::unwrap_used)]
mod tests {
    use super::*;

    #[test]
    fn record_roundtrip() {
        let r = OctantRecord {
            key: OctKey::root().child(3).child(7),
            data: [1.5, -2.0, 0.25, 1e9],
            is_leaf: true,
        };
        let mut buf = [0u8; RECORD_SIZE];
        encode_record(&r, &mut buf);
        assert_eq!(decode_record(&buf).unwrap(), r);
    }

    #[test]
    fn list_roundtrip() {
        let records: Vec<OctantRecord> = (0..8)
            .map(|i| OctantRecord {
                key: OctKey::root().child(i),
                data: [i as f64; 4],
                is_leaf: i % 2 == 0,
            })
            .collect();
        let bytes = encode_octants(&records);
        assert_eq!(decode_octants(&bytes).unwrap(), records);
    }

    #[test]
    fn corrupt_level_rejected() {
        let mut buf = [0u8; RECORD_SIZE];
        buf[8] = 99;
        assert!(decode_record(&buf).is_err());
    }

    #[test]
    fn truncation_detected() {
        let records = vec![OctantRecord { key: OctKey::root(), data: [0.0; 4], is_leaf: true }];
        let mut bytes = encode_octants(&records);
        bytes.truncate(bytes.len() - 1);
        assert!(decode_octants(&bytes).is_err());
    }
}
