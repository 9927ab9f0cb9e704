//! The commit record's codec, from the media: random tables round-trip
//! through checkpoint and delta records and a crash, the record holds
//! exactly the documented front-coded layout, and every truncation and
//! single-byte flip of a valid payload — resealed, so the checksum
//! passes it to the decoder — restores or fails with `PmError::Corrupt`,
//! never a panic.
//!
//! Record layout (all integers little-endian): the magic `"RTLG"` as a
//! `u32`, the payload length as a `u32`, the payload, and the FNV-1a-32
//! of all three as a `u32`.
//!
//! Payload layout: `epoch: u64`, `prev: u64`, the upsert and remove
//! counts as `u64`s, then each upsert as a front-coded name, `off: u64`
//! and `len: u32`, then each remove as a front-coded name. A front-coded
//! name is the number of leading bytes it shares with the previous name
//! of its list (`u8`, capped at 255; each list starts from the empty
//! name), the LEB128 length of the rest, and the rest.

use std::collections::BTreeMap;

use pm_rt::{PmError, PmRt, CHECKPOINT_EVERY};
use pmoctree_nvbm::recorder::fnv32;
use pmoctree_nvbm::{CrashMode, DeviceModel, NvbmArena, SparseMedia};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Commit record magic (`"RTLG"`), header bytes, and the payload
/// length's place in the header.
const LOG_MAGIC: u32 = 0x474c_5452;
const REC_HEADER: usize = 8;
const LEN_AT: usize = 4;

type Table = BTreeMap<String, Vec<u8>>;

/// Name → `(off, len)` of every root a runtime registers.
type Entries = BTreeMap<String, (u64, u32)>;

fn entries(rt: &PmRt) -> Entries {
    rt.names()
        .filter_map(|n| rt.resolve::<Vec<u8>>(n).map(|p| (n.to_string(), (p.offset(), p.len()))))
        .collect()
}

/// Names that stress the coder: shared prefixes of every length, a shared
/// prefix past the 255-byte cap, names longer than 255 bytes, prefixes of
/// one another, and multi-byte UTF-8 (including a split inside a
/// character's bytes).
fn names() -> Vec<String> {
    let long = "λ".repeat(150); // 300 bytes
    let mut names: Vec<String> = (0..6).map(|i| format!("tenant{i:04}/r{}", i % 3)).collect();
    names.extend(
        ["", "a", "ab", "abc", "abd", "b", "ü", "üb", "日本", "日本語", "🦀/x"].map(String::from),
    );
    names.extend([format!("{long}1"), format!("{long}2"), format!("{long}Ω"), long.clone()]);
    names.push("z".repeat(700));
    names
}

/// Every root of the runtime on `image` after a reboot.
fn recover(image: SparseMedia) -> Result<Table, PmError> {
    let mut a = NvbmArena::from_media(image, DeviceModel::default());
    let mut rt = PmRt::restore(&mut a)?;
    let names: Vec<String> = rt.names().map(String::from).collect();
    names
        .into_iter()
        .map(|n| Ok((n.clone(), rt.load::<Vec<u8>>(&mut a, &n)?.unwrap_or_default())))
        .collect()
}

#[test]
fn random_tables_round_trip_through_checkpoints_and_deltas() {
    let names = names();
    for seed in [1u64, 2, 3] {
        let mut rng = StdRng::seed_from_u64(seed);
        let mut a = NvbmArena::new(4 << 20, DeviceModel::default());
        let mut rt = PmRt::create(&mut a).unwrap();
        let mut model = Table::new();
        // Enough commits to cross two checkpoints; some windows are empty
        // (both lists empty), some only remove.
        for commit in 0..3 * CHECKPOINT_EVERY {
            for _ in 0..rng.gen_range(0..8usize) {
                let name = &names[rng.gen_range(0..names.len())];
                if rng.gen_range(0..10u32) < 3 {
                    assert_eq!(rt.unregister(name), model.remove(name).is_some());
                } else {
                    let value: Vec<u8> = (0..rng.gen_range(0..40usize))
                        .map(|_| rng.gen_range(0..=u8::MAX))
                        .collect();
                    rt.stage(&mut a, name, &value).unwrap();
                    model.insert(name.clone(), value);
                }
            }
            rt.commit(&mut a).unwrap();
            a.crash(CrashMode::LoseDirty);
            assert_eq!(recover(a.clone_media()).unwrap(), model, "seed {seed} commit {commit}");
        }
    }
}

/// LEB128.
fn varint(out: &mut Vec<u8>, mut v: u64) {
    while v >= 0x80 {
        out.push(v as u8 | 0x80);
        v >>= 7;
    }
    out.push(v as u8);
}

/// One list of names, front-coded.
fn front_coded(names: &[&str], mut entry: impl FnMut(&mut Vec<u8>, usize)) -> Vec<u8> {
    let mut out = Vec::new();
    let mut prev = "";
    for (i, name) in names.iter().enumerate() {
        let shared = prev.bytes().zip(name.bytes()).take(255).take_while(|(a, b)| a == b).count();
        out.push(shared as u8);
        varint(&mut out, (name.len() - shared) as u64);
        out.extend_from_slice(&name.as_bytes()[shared..]);
        entry(&mut out, i);
        prev = name;
    }
    out
}

/// A commit record payload in the documented layout.
fn payload(epoch: u64, prev: u64, upserts: &[(&str, u64, u32)], removes: &[&str]) -> Vec<u8> {
    let mut out = Vec::new();
    for v in [epoch, prev, upserts.len() as u64, removes.len() as u64] {
        out.extend_from_slice(&v.to_le_bytes());
    }
    let names: Vec<&str> = upserts.iter().map(|u| u.0).collect();
    out.extend(front_coded(&names, |out, i| {
        out.extend_from_slice(&upserts[i].1.to_le_bytes());
        out.extend_from_slice(&upserts[i].2.to_le_bytes());
    }));
    out.extend(front_coded(removes, |_, _| {}));
    out
}

/// A device whose newest commit record is the one under test: a
/// checkpoint holding every name, or a delta that upserts some and
/// removes others. Returns the image, the record's offset and payload,
/// and the entries the record's predecessor committed.
fn device(checkpoint: bool) -> (SparseMedia, u64, Vec<u8>, Entries) {
    let mut a = NvbmArena::new(4 << 20, DeviceModel::default());
    let mut rt = PmRt::create(&mut a).unwrap();
    let names = names();
    for (i, n) in names.iter().enumerate() {
        rt.stage(&mut a, n, &vec![i as u8; i % 5]).unwrap();
    }
    rt.commit(&mut a).unwrap();
    let before = entries(&rt);
    if checkpoint {
        while rt.chain_len() != 1 {
            rt.commit(&mut a).unwrap();
        }
    } else {
        for (i, n) in names.iter().enumerate().filter(|(i, _)| i % 3 != 0) {
            if i % 3 == 1 {
                rt.stage(&mut a, n, &vec![0xA5u8; i]).unwrap();
            } else {
                rt.unregister(n);
            }
        }
        rt.commit(&mut a).unwrap();
    }
    let image = a.clone_media();
    let off = a.committed().rt_root.0;
    let mut len = [0u8; 4];
    image.read_at(off as usize + LEN_AT, &mut len);
    let mut body = vec![0u8; u32::from_le_bytes(len) as usize];
    image.read_at(off as usize + REC_HEADER, &mut body);
    (image, off, body, before)
}

/// The commit record around `body`, in the documented layout.
fn record(body: &[u8]) -> Vec<u8> {
    let mut rec = LOG_MAGIC.to_le_bytes().to_vec();
    rec.extend_from_slice(&(body.len() as u32).to_le_bytes());
    rec.extend_from_slice(body);
    let fnv = fnv32(&rec);
    rec.extend_from_slice(&fnv.to_le_bytes());
    rec
}

/// `image` with the record at `off` carrying `body` instead, resealed
/// under a valid checksum.
fn resealed(image: &SparseMedia, off: u64, body: &[u8]) -> SparseMedia {
    let mut image = image.clone();
    image.write_at(off as usize, &record(body));
    image
}

#[test]
fn the_record_is_the_documented_front_coded_layout() {
    for checkpoint in [true, false] {
        let (image, off, body, before) = device(checkpoint);
        let mut rec = vec![0u8; REC_HEADER + body.len() + 4];
        image.read_at(off as usize, &mut rec);
        assert_eq!(rec, record(&body), "checkpoint {checkpoint}: the record's framing");
        let [epoch, prev] =
            [0, 8].map(|at| u64::from_le_bytes(body[at..at + 8].try_into().unwrap()));
        assert_eq!(prev == 0, checkpoint);
        let mut a = NvbmArena::from_media(image.clone(), DeviceModel::default());
        let after = entries(&PmRt::restore(&mut a).unwrap());
        // A checkpoint holds the whole table; a delta what changed since
        // its predecessor (the commit's relocations among it).
        let ups: Vec<(&str, u64, u32)> = after
            .iter()
            .filter(|(n, e)| checkpoint || before.get(*n) != Some(e))
            .map(|(n, e)| (n.as_str(), e.0, e.1))
            .collect();
        let rms: Vec<&str> = match checkpoint {
            true => Vec::new(),
            false => {
                before.keys().filter(|n| !after.contains_key(*n)).map(String::as_str).collect()
            }
        };
        assert!(checkpoint || (ups.len() > 1 && rms.len() > 1));
        let want = payload(epoch, prev, &ups, &rms);
        assert_eq!(body, want, "checkpoint {checkpoint}");
    }
}

#[test]
fn every_truncation_and_byte_flip_restores_or_is_corrupt() {
    for checkpoint in [true, false] {
        let (image, off, body, _) = device(checkpoint);
        assert!(body.len() > 600, "the payload holds the long names");
        for cut in 0..body.len() {
            let got = recover(resealed(&image, off, &body[..cut]));
            assert!(matches!(got, Err(PmError::Corrupt(_))), "cut at {cut}: {got:?}");
        }
        for at in 0..body.len() {
            for mask in [0xFF, 0x01, 0x80] {
                let mut bad = body.clone();
                bad[at] ^= mask;
                let got = recover(resealed(&image, off, &bad));
                assert!(
                    matches!(got, Ok(_) | Err(PmError::Corrupt(_))),
                    "byte {at} ^ {mask:#x}: {got:?}"
                );
            }
        }
    }
}

#[test]
fn hostile_lengths_and_orders_are_corrupt() {
    let (image, off, body, _) = device(true);
    let epoch = u64::from_le_bytes(body[..8].try_into().unwrap());
    let blob = {
        let mut a = NvbmArena::from_media(image.clone(), DeviceModel::default());
        let rt = PmRt::restore(&mut a).unwrap();
        let p = rt.resolve::<Vec<u8>>("a").unwrap();
        (p.offset(), p.len())
    };
    let corrupt = |body: Vec<u8>, why: &str| {
        let got = recover(resealed(&image, off, &body));
        assert!(matches!(got, Err(PmError::Corrupt(_))), "{why}: {got:?}");
    };
    let header = |nup: u64, nrm: u64| {
        let mut out = Vec::new();
        for v in [epoch, 0, nup, nrm] {
            out.extend_from_slice(&v.to_le_bytes());
        }
        out
    };
    // A well-formed one-root record restores: the cases below break it
    // one rule at a time.
    let one = payload(epoch, 0, &[("a", blob.0, blob.1)], &[]);
    assert_eq!(recover(resealed(&image, off, &one)).unwrap().len(), 1);

    corrupt(header(u64::MAX, 0), "upsert count past the payload");
    corrupt(header(0, u64::MAX), "remove count past the payload");
    corrupt(header(1 << 40, 1 << 40), "counts that overflow a byte total");
    // A suffix length far past the payload, in a varint of every width.
    for huge in [200u64, 1 << 20, 1 << 40, u64::MAX] {
        let mut b = header(0, 1);
        b.push(0);
        varint(&mut b, huge);
        b.extend_from_slice(b"abc");
        corrupt(b, "suffix past the payload");
    }
    let mut b = header(0, 1);
    b.push(0);
    b.extend_from_slice(&[0x80; 11]);
    corrupt(b, "an eleven-byte varint");
    let mut b = header(0, 1);
    b.push(0);
    b.extend_from_slice(&[0xFF; 9]);
    b.push(0x7F);
    corrupt(b, "a varint past 64 bits");
    // A first name cannot share bytes with the empty name.
    let mut b = header(0, 1);
    b.extend_from_slice(&[1, 1, b'a']);
    corrupt(b, "shared prefix longer than the previous name");
    corrupt(payload(epoch, 0, &[], &["ab", "a"]), "descending names");
    corrupt(payload(epoch, 0, &[], &["a", "a"]), "a repeated name");
    corrupt(payload(epoch, 0, &[("a", blob.0, blob.1)], &["a"]), "upserted and removed");
    let mut b = header(0, 1);
    b.extend_from_slice(&[0, 2, 0xC3, 0x28]);
    corrupt(b, "invalid UTF-8");
    // "é" is C3 A9: a name sharing only its first byte leaves a split
    // character behind the suffix.
    let mut b = header(0, 2);
    b.extend_from_slice(&[0, 2, 0xC3, 0xA9, 1, 1, b'z']);
    corrupt(b, "a shared prefix that splits a character");
    let mut b = one.clone();
    b.push(0);
    corrupt(b, "trailing bytes");
}
