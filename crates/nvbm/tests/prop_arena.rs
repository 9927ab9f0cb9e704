//! Property tests: the arena behaves like flat memory under arbitrary
//! read/write interleavings, crashes only ever revert *unflushed* state,
//! and the flight recorder recovers a clean suffix of its history from
//! any torn media image.

use pmoctree_nvbm::{
    recorder, CrashMode, DeviceModel, NvbmArena, POffset, PmemAllocator, HEADER_SIZE,
};
use proptest::prelude::*;

const CAP: usize = 1 << 16;

#[derive(Debug, Clone)]
enum Op {
    Write { offset: u64, data: Vec<u8> },
    Flush,
}

fn arb_ops() -> impl Strategy<Value = Vec<Op>> {
    prop::collection::vec(
        prop_oneof![
            (HEADER_SIZE..(CAP as u64 - 300), prop::collection::vec(any::<u8>(), 1..256))
                .prop_map(|(offset, data)| Op::Write { offset, data }),
            Just(Op::Flush),
        ],
        1..60,
    )
}

proptest! {
    /// Reads always observe the most recent write, flushed or not.
    #[test]
    fn arena_is_coherent_memory(ops in arb_ops()) {
        let mut arena = NvbmArena::new(CAP, DeviceModel::default());
        let mut shadow = vec![0u8; CAP];
        for op in &ops {
            match op {
                Op::Write { offset, data } => {
                    arena.write(*offset, data);
                    shadow[*offset as usize..*offset as usize + data.len()].copy_from_slice(data);
                }
                Op::Flush => arena.flush_all(),
            }
        }
        let mut buf = vec![0u8; CAP - HEADER_SIZE as usize];
        arena.read(HEADER_SIZE, &mut buf);
        prop_assert_eq!(&buf[..], &shadow[HEADER_SIZE as usize..]);
    }

    /// After a crash, every byte region that was fully flushed reads back
    /// exactly; unflushed regions revert to pre-write contents or survive
    /// per-line — never garbage.
    #[test]
    fn crash_never_corrupts_flushed_state(ops in arb_ops(), seed in any::<u64>(), p in 0.0f64..=1.0) {
        let mut arena = NvbmArena::new(CAP, DeviceModel::default());
        let mut flushed_shadow = vec![0u8; CAP];
        let mut current = vec![0u8; CAP];
        for op in &ops {
            match op {
                Op::Write { offset, data } => {
                    arena.write(*offset, data);
                    current[*offset as usize..*offset as usize + data.len()].copy_from_slice(data);
                }
                Op::Flush => {
                    arena.flush_all();
                    flushed_shadow.copy_from_slice(&current);
                }
            }
        }
        arena.crash(CrashMode::CommitRandom { p, seed });
        let mut buf = vec![0u8; CAP];
        arena.read(0, &mut buf);
        // Each cacheline equals either the flushed image or the current
        // (would-have-been) image: a committed line is all-new, a dropped
        // line is all-old. No third possibility.
        for line in (HEADER_SIZE as usize / 64)..(CAP / 64) {
            let r = line * 64..(line + 1) * 64;
            let got = &buf[r.clone()];
            prop_assert!(
                got == &flushed_shadow[r.clone()] || got == &current[r.clone()],
                "line {line} is neither old nor new state"
            );
        }
    }

    /// Flight-recorder wraparound: for any ring capacity and any number
    /// of appended marks, recovery returns exactly the newest
    /// `min(n, slots)` entries with contiguous sequence numbers ending
    /// at `n`.
    #[test]
    fn recorder_wraps_to_newest_suffix(slots in 1usize..=32, n in 0u64..200) {
        let mut a = NvbmArena::new_with_recorder(CAP, DeviceModel::default(), slots);
        for i in 1..=n {
            a.rec_mark(pmoctree_nvbm::RecKind::Note, "prop::mark", i);
        }
        let dump = a.recorder_dump();
        prop_assert!(dump.header_ok);
        let want = (n as usize).min(slots);
        prop_assert_eq!(dump.entries.len(), want);
        for (k, e) in dump.entries.iter().enumerate() {
            prop_assert_eq!(e.seq, n - want as u64 + 1 + k as u64);
            prop_assert_eq!(e.arg, e.seq, "arg was recorded as the seq");
        }
    }

    /// Torn write at *every* byte of the tail entry: recovery never
    /// panics, never invents entries, and either keeps the tail intact
    /// (the corruption missed something load-bearing) or truncates
    /// exactly it — the preceding entries always survive.
    #[test]
    fn recorder_survives_tail_corruption(
        slots in 2usize..=16,
        n in 1u64..64,
        delta in 1u8..=255,
    ) {
        let mut a = NvbmArena::new_with_recorder(CAP, DeviceModel::default(), slots);
        for i in 1..=n {
            a.rec_mark(pmoctree_nvbm::RecKind::Note, "prop::tear", i);
        }
        let media = a.clone_media();
        let base = (CAP - slots * 64) & !63;
        let tail_slot = ((n - 1) % slots as u64) as usize;
        let intact = recorder::recover(&media);
        prop_assert_eq!(intact.entries.last().map(|e| e.seq), Some(n));
        for k in 0..64 {
            let (mut torn, at) = (media.clone(), base + tail_slot * 64 + k);
            let mut byte = [0u8];
            torn.read_at(at, &mut byte);
            torn.write_at(at, &[byte[0] ^ delta]);
            let dump = recorder::recover(&torn);
            prop_assert!(dump.header_ok);
            // No phantom entries past what was ever written.
            prop_assert!(dump.entries.iter().all(|e| e.seq <= n), "byte {k}: phantom seq");
            let last = dump.entries.last().map(|e| e.seq);
            if last == Some(n) {
                // Tail decoded despite the flip (e.g. a flip inside the
                // truncated part of the label): it must decode to the
                // right metadata.
                prop_assert_eq!(dump.entries.last().unwrap().arg, n, "byte {k}");
            } else {
                // Tail truncated: the survivors are exactly the intact
                // entries minus the torn one.
                let want = (n as usize).min(slots) - 1;
                prop_assert_eq!(dump.entries.len(), want, "byte {k}: lost more than the tail");
                if want > 0 {
                    prop_assert_eq!(dump.entries.last().map(|e| e.seq), Some(n - 1), "byte {k}");
                }
            }
        }
    }

    /// Slab invariants under arbitrary alloc / free traffic and a moving
    /// ceiling: handed-out blocks never overlap, never leave
    /// `[HEADER_SIZE, limit)`, and `live_bytes` is exactly blocks out ×
    /// block size. The ceiling moves like the rt heap floor it stands
    /// for: anywhere at or above the allocator's published bump pointer.
    #[test]
    fn allocator_blocks_disjoint_and_bounded(
        block in prop::sample::select(vec![64u64, 128, 192]),
        ops in prop::collection::vec((0u8..3, any::<u16>()), 1..200),
    ) {
        let mut a = PmemAllocator::new(CAP, block as usize);
        let mut limit = CAP as u64;
        let mut out: Vec<u64> = Vec::new();
        for (kind, arg) in ops {
            let arg = arg as usize;
            let mut handed: Vec<u64> = Vec::new();
            match kind {
                1 if !out.is_empty() => a.free(POffset(out.swap_remove(arg % out.len()))),
                0 | 1 => handed.extend(a.alloc().map(|p| p.0)),
                _ => {
                    limit = (a.bump() + 37 * (arg as u64 % 512)).min(CAP as u64);
                    a.set_limit(limit);
                }
            }
            for p in handed {
                prop_assert!(p >= HEADER_SIZE && p + block <= limit, "{p} outside [header, {limit})");
                for &q in &out {
                    prop_assert!(p + block <= q || q + block <= p, "overlap: new {p} vs live {q}");
                }
                out.push(p);
            }
            prop_assert_eq!(a.live_bytes(), out.len() as u64 * block);
        }
    }
}
