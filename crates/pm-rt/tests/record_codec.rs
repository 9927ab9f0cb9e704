//! The commit record's codec, from the media: random tables round-trip
//! through checkpoint and delta records and a crash, the record holds
//! exactly the documented front-coded layout, and every truncation and
//! single-byte flip of a valid payload — resealed, so the checksum
//! passes it to the decoder — restores or fails with `PmError::Corrupt`,
//! never a panic.
//!
//! The commit-chain walk, from the media: an image saved after service
//! batches across a checkpoint has its chain records corrupted — magic,
//! length and `prev` bytes flipped, a line zeroed, a line duplicated
//! over its neighbour or over another record, a `prev` resealed to name
//! a blob, the record itself, a newer record or a place past the heap
//! top — and [`PmRt::restore`] ends in `Ok` or
//! `PmError::{Corrupt, Recovery}`, never a panic or an unbounded walk.
//! What bounds the walk's memory is structural: a record's length is
//! checked against the rt region before its buffer is sized, and the
//! counts inside against the bytes the record holds.
//!
//! Record layout (all integers little-endian): the magic `"RTLG"` as a
//! `u32`, the payload length as a `u32`, the payload, and the FNV-1a-32
//! of all three as a `u32`.
//!
//! Payload layout, every integer an unsigned LEB128 varint: `epoch`,
//! `prev`, the upsert and remove counts, then each upsert as a
//! front-coded name, `off` and `len`, then each remove as a front-coded
//! name. A front-coded name is the number of leading bytes it shares
//! with the previous name of its list (`u8`, capped at 255; each list
//! starts from the empty name), the LEB128 length of the rest, and the
//! rest.

use std::collections::BTreeMap;
use std::ops::{Range, RangeInclusive};

use pm_rt::{PmData, PmError, PmRt, ServiceCmd, ServiceConfig, StateService, CHECKPOINT_EVERY};
use pmoctree_nvbm::recorder::fnv32;
use pmoctree_nvbm::{CrashMode, DeviceModel, NvbmArena, SparseMedia, CACHELINE, HEADER_SIZE};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Commit record magic (`"RTLG"`), header bytes, and the payload
/// length's place in the header.
const LOG_MAGIC: u32 = 0x474c_5452;
const REC_HEADER: usize = 8;
const LEN_AT: usize = 4;
const LINE: u64 = CACHELINE as u64;

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

/// Every root of the runtime on `image` after a reboot, as its payload
/// bytes.
fn recover(image: SparseMedia) -> Result<Table, PmError> {
    let mut a = NvbmArena::from_media(image, DeviceModel::default());
    let rt = PmRt::restore(&mut a)?;
    let snap = rt.snapshot(&mut a);
    let names: Vec<String> = snap.names().map(String::from).collect();
    names
        .into_iter()
        .map(|n| Ok((n.clone(), snap.get_bytes(&mut a, &n)?.unwrap_or_default())))
        .collect()
}

/// `len` bytes of `image` at `at`.
fn bytes(image: &SparseMedia, at: u64, len: usize) -> Vec<u8> {
    let mut buf = vec![0u8; len];
    image.read_at(at as usize, &mut buf);
    buf
}

/// A copy of `image` with `data` at `at`.
fn with(image: &SparseMedia, at: u64, data: &[u8]) -> SparseMedia {
    let mut image = image.clone();
    image.write_at(at as usize, data);
    image
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
                    model.insert(name.clone(), value.to_bytes());
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

/// The LEB128 varint at `body[*at..]`, stepping `at` past it.
fn read_varint(body: &[u8], at: &mut usize) -> u64 {
    let mut v = 0;
    for shift in (0..64).step_by(7) {
        let b = body[*at];
        *at += 1;
        v |= u64::from(b & 0x7f) << shift;
        if b & 0x80 == 0 {
            break;
        }
    }
    v
}

/// The epoch and `prev` a payload's header codes.
fn epoch_and_prev(body: &[u8]) -> (u64, u64) {
    let mut at = 0;
    (read_varint(body, &mut at), read_varint(body, &mut at))
}

/// Where a payload's `prev` varint lies: after its `epoch`.
fn prev_span(body: &[u8]) -> Range<usize> {
    let mut at = 0;
    read_varint(body, &mut at);
    let start = at;
    read_varint(body, &mut at);
    start..at
}

/// `body` with its `prev` recoded as `prev`, which may change its length.
fn with_prev(body: &[u8], prev: u64) -> Vec<u8> {
    let span = prev_span(body);
    let mut out = body[..span.start].to_vec();
    varint(&mut out, prev);
    out.extend_from_slice(&body[span.end..]);
    out
}

/// A payload header: `epoch`, `prev` and the two counts.
fn header(epoch: u64, prev: u64, nup: u64, nrm: u64) -> Vec<u8> {
    let mut out = Vec::new();
    for v in [epoch, prev, nup, nrm] {
        varint(&mut out, v);
    }
    out
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
    let mut out = header(epoch, prev, upserts.len() as u64, removes.len() as u64);
    let names: Vec<&str> = upserts.iter().map(|u| u.0).collect();
    out.extend(front_coded(&names, |out, i| {
        varint(out, upserts[i].1);
        varint(out, u64::from(upserts[i].2));
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
    let body = body(&image, off);
    (image, off, body, before)
}

/// The payload of the commit record at `off`.
fn body(image: &SparseMedia, off: u64) -> Vec<u8> {
    let len = bytes(image, off + LEN_AT as u64, 4);
    bytes(image, off + REC_HEADER as u64, u32::from_le_bytes(len.try_into().unwrap()) as usize)
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
    with(image, off, &record(body))
}

#[test]
fn the_record_is_the_documented_front_coded_layout() {
    for checkpoint in [true, false] {
        let (image, off, body, before) = device(checkpoint);
        let rec = bytes(&image, off, REC_HEADER + body.len() + 4);
        assert_eq!(rec, record(&body), "checkpoint {checkpoint}: the record's framing");
        let (epoch, prev) = epoch_and_prev(&body);
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
    let (epoch, _) = epoch_and_prev(&body);
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
    let header = |nup: u64, nrm: u64| header(epoch, 0, nup, nrm);
    // A well-formed one-root record restores: the cases below break it
    // one rule at a time.
    let one = payload(epoch, 0, &[("a", blob.0, blob.1)], &[]);
    assert_eq!(recover(resealed(&image, off, &one)).unwrap().len(), 1);

    corrupt(header(u64::MAX, 0), "upsert count past the payload");
    corrupt(header(0, u64::MAX), "remove count past the payload");
    corrupt(header(1 << 40, 1 << 40), "counts that overflow a byte total");
    // The count bound is 4 bytes an upsert, and `one`'s upsert codes to 8
    // (a 3-byte name, a 4-byte offset, a 1-byte length). A count of 2
    // over those 8 bytes passes the bound and runs out at the second
    // upsert; a count of 3 is refused before anything is sized by it.
    let upsert = &one[header(1, 0).len()..];
    assert_eq!(upsert.len(), 8);
    for (n, why) in [
        (3, "an upsert count past the 4-byte bound"),
        (2, "an upsert count the 4-byte bound admits, past the bytes"),
    ] {
        let mut b = header(n, 0);
        b.extend_from_slice(upsert);
        corrupt(b, why);
    }
    // The entry's integers: an upsert of "a" whose offset and length
    // varints follow.
    let entry = |coded: &[u8]| {
        let mut b = header(1, 0);
        b.extend_from_slice(&[0, 1, b'a']);
        b.extend_from_slice(coded);
        b
    };
    let mut coded = Vec::new();
    varint(&mut coded, blob.0);
    varint(&mut coded, u64::from(blob.1));
    assert_eq!(recover(resealed(&image, off, &entry(&coded))).unwrap().len(), 1);
    // Cut to 32 bits, unchecked, this length is the blob's and restores.
    let mut coded = Vec::new();
    varint(&mut coded, blob.0);
    varint(&mut coded, (1 << 32) + u64::from(blob.1));
    corrupt(entry(&coded), "a length above u32::MAX");
    let mut coded = vec![0x80; 11];
    varint(&mut coded, u64::from(blob.1));
    corrupt(entry(&coded), "an eleven-byte offset varint");
    let mut coded = Vec::new();
    varint(&mut coded, blob.0);
    coded.extend_from_slice(&[0x80; 11]);
    corrupt(entry(&coded), "an eleven-byte length varint");
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

/// Restore `image`, which must end in `Ok` or a corruption report.
fn survives(image: SparseMedia, why: &str) {
    let got = recover(image);
    assert!(
        matches!(got, Ok(_) | Err(PmError::Corrupt(_) | PmError::Recovery(_))),
        "{why}: {got:?}"
    );
}

/// The lines a commit record with payload `body` at `off` touches.
fn lines(off: u64, body: &[u8]) -> RangeInclusive<u64> {
    off / LINE..=(off + (REC_HEADER + body.len() + 4) as u64 - 1) / LINE
}

/// A device saved after service batches.
struct Service {
    image: SparseMedia,
    /// The last value put under each qualified root name.
    puts: Table,
    /// The commit chain, newest record first: each record's offset and
    /// payload.
    chain: Vec<(u64, Vec<u8>)>,
    /// The offsets of the blobs the newest commit names.
    blobs: Vec<u64>,
    /// The rt heap top.
    top: u64,
}

/// A device after Zipf-skewed service batches across a checkpoint.
fn service() -> Service {
    let mut rng = StdRng::seed_from_u64(5);
    let mut a = NvbmArena::new(1 << 20, DeviceModel::default());
    let mut svc = StateService::create(&mut a, ServiceConfig::default()).unwrap();
    let tenants: Vec<String> = (0..4).map(|t| format!("tenant{t:04}")).collect();
    for t in &tenants {
        svc.submit(&mut a, ServiceCmd::Create { tenant: t.clone(), quota: None }).unwrap();
    }
    svc.flush_batch(&mut a).unwrap();
    let mut puts = Table::new();
    for _ in 0..CHECKPOINT_EVERY + 3 {
        for _ in 0..6 {
            // The lower of two draws: low-numbered roots are hot.
            let r = rng.gen_range(0..12u32).min(rng.gen_range(0..12u32));
            let tenant = tenants[rng.gen_range(0..tenants.len())].clone();
            let bytes: Vec<u8> =
                (0..rng.gen_range(8..160usize)).map(|_| rng.gen_range(0..=u8::MAX)).collect();
            puts.insert(format!("{tenant}/r{r}"), bytes.clone());
            svc.submit(&mut a, ServiceCmd::Put { tenant, root: format!("r{r}"), bytes }).unwrap();
        }
        assert!(svc.flush_batch(&mut a).unwrap().committed);
    }
    let image = a.clone_media();
    let (mut chain, mut off) = (Vec::new(), a.committed().rt_root.0);
    while off != 0 {
        let body = body(&image, off);
        let prev = epoch_and_prev(&body).1;
        chain.push((off, body));
        off = prev;
    }
    assert!(chain.len() > 2, "the walk crosses deltas to a checkpoint");
    let rt = PmRt::restore(&mut a).unwrap();
    assert!(rt.epoch() > CHECKPOINT_EVERY as u64, "a checkpoint cut the chain");
    let blobs = rt.names().map(|n| rt.resolve::<Vec<u8>>(n).unwrap().offset()).collect();
    assert!(puts.len() > 10);
    Service { image, puts, chain, blobs, top: a.rt_heap_top() }
}

#[test]
fn the_saved_service_image_restores_every_put() {
    let Service { image, puts, .. } = service();
    let roots = recover(image).unwrap();
    for (name, value) in puts {
        assert_eq!(Vec::<u8>::from_bytes(&roots[&name]).unwrap(), value, "{name}");
    }
}

#[test]
fn flipped_chain_magic_length_and_prev_bytes_survive() {
    let Service { image, chain, .. } = service();
    for (off, body) in &chain {
        let rec = record(body);
        let prev = prev_span(body);
        let prev = REC_HEADER + prev.start..REC_HEADER + prev.end;
        for at in (0..REC_HEADER).chain(prev) {
            for mask in [0x01, 0x80, 0xFF] {
                survives(with(&image, off + at as u64, &[rec[at] ^ mask]), "a flipped byte");
            }
        }
    }
}

#[test]
fn zeroed_and_duplicated_chain_lines_survive() {
    let Service { image, chain, .. } = service();
    let line = |l: u64| bytes(&image, l * LINE, LINE as usize);
    for (i, (off, body)) in chain.iter().enumerate() {
        let other = chain[(i + 1) % chain.len()].0 / LINE * LINE;
        for l in lines(*off, body) {
            let at = l * LINE;
            survives(with(&image, at, &[0u8; CACHELINE]), "a zeroed line");
            survives(with(&image, at, &line(l - 1)), "the line below, duplicated");
            survives(with(&image, at, &line(l + 1)), "the line above, duplicated");
            survives(with(&image, at, &line(other / LINE)), "another record's line");
            survives(with(&image, other, &line(l)), "this line over another's");
        }
    }
}

#[test]
fn a_resealed_prev_pointing_anywhere_survives() {
    let Service { image, chain, blobs, top, .. } = service();
    for (i, (off, body)) in chain.iter().enumerate() {
        let mut targets = vec![*off, top, top - 8, top + 8, HEADER_SIZE, !7];
        targets.extend(chain[..i].iter().map(|newer| newer.0));
        targets.extend(chain.iter().map(|c| c.0 + 8));
        targets.extend(&blobs);
        for prev in targets {
            survives(resealed(&image, *off, &with_prev(body, prev)), "a resealed prev");
        }
    }
    // The newest delta, cut from its chain, reads as a checkpoint of
    // what it changed.
    let (off, body) = &chain[0];
    survives(resealed(&image, *off, &with_prev(body, 0)), "the newest record cut from its chain");
}
