//! Crash-surviving flight recorder: a persistent ring of event slots.
//!
//! Every `obsv` journal and metric dies with the process, so a crash used
//! to leave no record of what the device was doing. The recorder fixes
//! that with NVBM's own medicine: a fixed ring region at the **top** of
//! the arena (below the `pm-rt` heap) whose entries are written with the
//! same store → flush-line discipline as real data. After any crash the
//! ring is recovered from the raw media — no volatile state needed
//! — and dumped to explain the last N operations before the failure.
//!
//! ## Slot format
//!
//! One entry is exactly one cacheline (64 bytes), so a torn write-back
//! can only damage a single entry and the platform's 8-byte-atomicity
//! guarantee bounds how it tears:
//!
//! ```text
//! 0..8    seq        monotone sequence number, starts at 1 (0 = empty)
//! 8..16   t_ns       virtual-clock timestamp
//! 16..24  arg        caller argument (epoch, batch size, ...)
//! 24      kind       1=failpoint 2=span_begin 3=span_end 4=note
//! 25      label_len  0..=34
//! 26..60  label      UTF-8 bytes, zero-padded
//! 60..64  checksum   FNV-1a-32 over bytes 0..60
//! ```
//!
//! ## Recovery
//!
//! No head pointer is persisted — sequence numbers encode the order, so
//! appending an entry costs exactly one line write + one flush and the
//! header is never touched. [`recover`] decodes every slot, drops any
//! whose checksum fails or whose `seq` does not map back to its slot
//! index (torn tails, stale generations, garbage), and returns the
//! maximal contiguous run of sequence numbers ending at the newest
//! surviving entry. A crash that tears the tail entry therefore truncates
//! the log by exactly that entry; it can never fabricate a phantom one.

use serde::Serialize;

use crate::arena::HEADER_SIZE;
use crate::media::SparseMedia;
use crate::model::CACHELINE;

/// Byte offset of the persisted ring base pointer in the device header.
pub(crate) const OFF_REC_BASE: u64 = 8;
/// Byte offset of the persisted ring slot count in the device header.
pub(crate) const OFF_REC_SLOTS: u64 = 16;

/// Longest label an entry can carry (longer labels are truncated).
pub const REC_LABEL_MAX: usize = 34;

/// What kind of moment an entry records.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum RecKind {
    /// A labelled crash opportunity (`NvbmArena::failpoint`).
    Failpoint,
    /// A protocol phase began (e.g. a persist).
    SpanBegin,
    /// A protocol phase completed.
    SpanEnd,
    /// A free-form milestone (restore completed, batch flushed, ...).
    Note,
}

impl RecKind {
    /// Stable textual name (used by dumps and JSON).
    pub fn as_str(&self) -> &'static str {
        match self {
            RecKind::Failpoint => "failpoint",
            RecKind::SpanBegin => "span_begin",
            RecKind::SpanEnd => "span_end",
            RecKind::Note => "note",
        }
    }

    fn code(self) -> u8 {
        match self {
            RecKind::Failpoint => 1,
            RecKind::SpanBegin => 2,
            RecKind::SpanEnd => 3,
            RecKind::Note => 4,
        }
    }

    fn from_code(c: u8) -> Option<RecKind> {
        match c {
            1 => Some(RecKind::Failpoint),
            2 => Some(RecKind::SpanBegin),
            3 => Some(RecKind::SpanEnd),
            4 => Some(RecKind::Note),
            _ => None,
        }
    }
}

impl Serialize for RecKind {
    fn json(&self, out: &mut String) {
        serde::ser::string(out, self.as_str());
    }
}

/// One recovered recorder entry.
#[derive(Clone, Debug, PartialEq, Serialize)]
pub struct RecEntry {
    /// Monotone sequence number (starts at 1).
    pub seq: u64,
    /// Virtual-clock timestamp at record time.
    pub t_ns: u64,
    /// Caller argument (epoch, batch size, 0 when unused).
    pub arg: u64,
    /// Entry kind.
    pub kind: RecKind,
    /// Label (possibly truncated to [`REC_LABEL_MAX`] bytes).
    pub label: String,
}

/// The recovered ring: the surviving recent history, oldest first.
#[derive(Clone, Debug, Default, PartialEq, Serialize)]
pub struct RecorderDump {
    /// Whether the header's ring descriptor was present and sane. A dump
    /// with `header_ok == false` has no entries by construction.
    pub header_ok: bool,
    /// Ring capacity in slots (0 = recorder disabled on this device).
    pub slots: usize,
    /// Contiguous run of entries ending at the newest surviving one.
    pub entries: Vec<RecEntry>,
    /// Slots holding nothing decodable: never written, torn by the crash,
    /// or overwritten garbage. A freshly formatted device reports all
    /// slots here.
    pub dropped_slots: usize,
    /// Decodable entries discarded because a sequence gap (a lost or torn
    /// newer entry) cut them off from the surviving tail.
    pub truncated: usize,
}

impl RecorderDump {
    /// The newest surviving entry, if any.
    pub fn last(&self) -> Option<&RecEntry> {
        self.entries.last()
    }
}

/// FNV-1a 32-bit over `bytes` — the checksum of every self-validating
/// on-media record (sealed lines here, `pm-rt` log records).
pub fn fnv32(bytes: &[u8]) -> u32 {
    let mut h: u32 = 0x811c_9dc5;
    for &b in bytes {
        h ^= b as u32;
        h = h.wrapping_mul(0x0100_0193);
    }
    h
}

/// Where a sealed line's checksum starts.
const SEAL_AT: usize = CACHELINE - 4;

/// Seal a one-cacheline record: FNV-1a-32 over bytes 0..60, stored at
/// 60..64. The one checksum layout of nvbm's self-validating lines — the
/// recorder slots and the arena's commit records.
pub(crate) fn seal(line: &mut [u8; CACHELINE]) {
    let c = fnv32(&line[..SEAL_AT]);
    line[SEAL_AT..].copy_from_slice(&c.to_le_bytes());
}

/// Is `line` one whole cacheline carrying a matching seal?
pub(crate) fn is_sealed(line: &[u8]) -> bool {
    line.len() == CACHELINE && fnv32(&line[..SEAL_AT]).to_le_bytes() == line[SEAL_AT..]
}

/// Encode one slot. Labels longer than [`REC_LABEL_MAX`] are truncated at
/// a UTF-8 boundary.
pub(crate) fn encode_slot(
    seq: u64,
    t_ns: u64,
    arg: u64,
    kind: RecKind,
    label: &str,
) -> [u8; CACHELINE] {
    let mut s = [0u8; CACHELINE];
    s[0..8].copy_from_slice(&seq.to_le_bytes());
    s[8..16].copy_from_slice(&t_ns.to_le_bytes());
    s[16..24].copy_from_slice(&arg.to_le_bytes());
    s[24] = kind.code();
    let mut n = label.len().min(REC_LABEL_MAX);
    while n > 0 && !label.is_char_boundary(n) {
        n -= 1;
    }
    s[25] = n as u8;
    s[26..26 + n].copy_from_slice(&label.as_bytes()[..n]);
    seal(&mut s);
    s
}

/// Decode one slot; `None` for empty, torn, or corrupt slots.
pub(crate) fn decode_slot(s: &[u8]) -> Option<RecEntry> {
    if !is_sealed(s) {
        return None;
    }
    let rd = |o: usize| u64::from_le_bytes(s[o..o + 8].try_into().expect("slot bounds checked"));
    let seq = rd(0);
    if seq == 0 {
        return None;
    }
    let kind = RecKind::from_code(s[24])?;
    let n = s[25] as usize;
    if n > REC_LABEL_MAX {
        return None;
    }
    let label = std::str::from_utf8(&s[26..26 + n]).ok()?.to_string();
    Some(RecEntry { seq, t_ns: rd(8), arg: rd(16), kind, label })
}

/// Read the ring descriptor `(base, slots)` from a media header. `None`
/// when the header is too small or the descriptor is insane (out of
/// bounds, unaligned); `Some((_, 0))` when the device has the recorder
/// disabled.
pub(crate) fn region_of(media: &SparseMedia) -> Option<(u64, usize)> {
    let size = media.size() as u64;
    if size < HEADER_SIZE {
        return None;
    }
    let rd = |off: u64| {
        let mut word = [0u8; 8];
        media.read_at(off as usize, &mut word);
        u64::from_le_bytes(word)
    };
    let (base, slots) = (rd(OFF_REC_BASE), rd(OFF_REC_SLOTS));
    if slots == 0 {
        return Some((0, 0));
    }
    let bytes = slots.checked_mul(CACHELINE as u64)?;
    let end = base.checked_add(bytes)?;
    let sane = base >= HEADER_SIZE
        && base % CACHELINE as u64 == 0
        && end <= size
        && slots <= size / CACHELINE as u64;
    if sane {
        Some((base, slots as usize))
    } else {
        None
    }
}

/// Recover the flight recorder from media: a crash snapshot, a replica or
/// a live arena's durable view. Never panics: damaged slots are dropped
/// and counted, a damaged header yields an empty dump with
/// `header_ok == false`.
pub fn recover(media: &SparseMedia) -> RecorderDump {
    let Some((base, slots)) = region_of(media) else {
        return RecorderDump { header_ok: false, ..Default::default() };
    };
    if slots == 0 {
        return RecorderDump { header_ok: true, ..Default::default() };
    }
    let mut found: Vec<RecEntry> = Vec::new();
    let mut dropped = 0usize;
    let mut line = [0u8; CACHELINE];
    for i in 0..slots {
        media.read_at(base as usize + i * CACHELINE, &mut line);
        match decode_slot(&line) {
            // A valid entry must sit in the slot its seq maps to —
            // anything else is a stale copy or corruption.
            Some(e) if (e.seq - 1) % slots as u64 == i as u64 => found.push(e),
            _ => dropped += 1,
        }
    }
    found.sort_by_key(|e| e.seq);
    // Keep only the maximal contiguous seq run ending at the newest
    // entry: a gap means the entries before it were severed from the
    // surviving tail by a lost or torn newer write.
    let mut start = found.len().saturating_sub(1);
    while start > 0 && found[start - 1].seq + 1 == found[start].seq {
        start -= 1;
    }
    let entries = if found.is_empty() { Vec::new() } else { found.split_off(start) };
    RecorderDump { header_ok: true, slots, entries, dropped_slots: dropped, truncated: found.len() }
}

#[cfg(test)]
#[allow(clippy::unwrap_used)]
mod tests {
    use super::*;

    fn media_with_ring(slots: usize) -> (SparseMedia, u64) {
        let cap = 1 << 16;
        let base = (cap - slots * CACHELINE) as u64;
        let mut m = SparseMedia::zeroed(cap);
        m.write_at(OFF_REC_BASE as usize, &base.to_le_bytes());
        m.write_at(OFF_REC_SLOTS as usize, &(slots as u64).to_le_bytes());
        (m, base)
    }

    fn put(m: &mut SparseMedia, base: u64, slots: usize, seq: u64, label: &str) {
        let slot = ((seq - 1) % slots as u64) as usize;
        let off = base as usize + slot * CACHELINE;
        m.write_at(off, &encode_slot(seq, seq * 10, 0, RecKind::Note, label));
    }

    #[test]
    fn slot_roundtrip() {
        let s = encode_slot(7, 123, 42, RecKind::Failpoint, "persist::root_swap");
        let e = decode_slot(&s).expect("decodes");
        assert_eq!(e.seq, 7);
        assert_eq!(e.t_ns, 123);
        assert_eq!(e.arg, 42);
        assert_eq!(e.kind, RecKind::Failpoint);
        assert_eq!(e.label, "persist::root_swap");
    }

    #[test]
    fn empty_and_corrupt_slots_decode_to_none() {
        assert_eq!(decode_slot(&[0u8; CACHELINE]), None);
        let mut s = encode_slot(1, 0, 0, RecKind::Note, "x");
        s[30] ^= 0xFF;
        assert_eq!(decode_slot(&s), None);
    }

    #[test]
    fn long_labels_truncate_at_char_boundary() {
        let long = "é".repeat(40); // 2 bytes per char
        let e = decode_slot(&encode_slot(1, 0, 0, RecKind::Note, &long)).expect("decodes");
        assert!(e.label.len() <= REC_LABEL_MAX);
        assert!(e.label.chars().all(|c| c == 'é'));
    }

    #[test]
    fn recover_orders_and_wraps() {
        let (mut m, base) = media_with_ring(4);
        for seq in 1..=6 {
            put(&mut m, base, 4, seq, "op");
        }
        let d = recover(&m);
        assert!(d.header_ok);
        let seqs: Vec<u64> = d.entries.iter().map(|e| e.seq).collect();
        assert_eq!(seqs, vec![3, 4, 5, 6]);
        assert_eq!(d.truncated, 0);
    }

    #[test]
    fn gap_truncates_older_history() {
        let (mut m, base) = media_with_ring(8);
        for seq in [1u64, 2, 3, 5, 6] {
            put(&mut m, base, 8, seq, "op");
        }
        let d = recover(&m);
        let seqs: Vec<u64> = d.entries.iter().map(|e| e.seq).collect();
        assert_eq!(seqs, vec![5, 6], "gap at 4 severs 1..3");
        assert_eq!(d.truncated, 3);
    }

    #[test]
    fn stale_seq_in_wrong_slot_is_dropped() {
        let (mut m, base) = media_with_ring(4);
        put(&mut m, base, 4, 1, "real");
        // A copy of entry 1 planted in slot 2: valid checksum, wrong slot.
        m.write_at(base as usize + 2 * CACHELINE, &encode_slot(1, 10, 0, RecKind::Note, "real"));
        let d = recover(&m);
        assert_eq!(d.entries.len(), 1);
        assert_eq!(d.dropped_slots, 3);
    }

    #[test]
    fn damaged_header_yields_empty_dump_not_panic() {
        let (mut m, _) = media_with_ring(4);
        // Base pointing past the device.
        m.write_at(OFF_REC_BASE as usize, &u64::MAX.to_le_bytes());
        let d = recover(&m);
        assert!(!d.header_ok);
        assert!(d.entries.is_empty());
        // Too-small image.
        assert!(!recover(&SparseMedia::zeroed(16)).header_ok);
        // A valid base with slot counts whose byte size overflows, that
        // name more slots than the device holds, and that run one slot
        // past its end.
        let device_slots = m.size() as u64 / CACHELINE as u64;
        for slots in [u64::MAX / CACHELINE as u64 + 1, u64::MAX, device_slots + 1, 5] {
            let (mut m, _) = media_with_ring(4);
            m.write_at(OFF_REC_SLOTS as usize, &slots.to_le_bytes());
            assert_eq!(region_of(&m), None, "{slots} slots");
            let d = recover(&m);
            assert!(!d.header_ok, "{slots} slots");
            assert!(d.entries.is_empty());
        }
    }

    #[test]
    fn disabled_recorder_is_ok_and_empty() {
        let d = recover(&SparseMedia::zeroed(4096));
        assert!(d.header_ok);
        assert_eq!(d.slots, 0);
        assert!(d.entries.is_empty());
    }
}
