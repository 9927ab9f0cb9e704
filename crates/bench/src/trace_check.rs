//! JSON-level validation of exported Chrome traces (`repro trace-check`).
//!
//! [`pmoctree_obsv::chrome::validate_events`] checks the in-memory
//! journal; this module re-checks the *serialized* artifact, so a bug in
//! the exporter (or a hand-edited file) is caught too: the text must
//! parse as strict JSON, carry a `traceEvents` array, and every per-
//! `(pid, tid)` stream must have monotone timestamps and balanced,
//! name-matched `B`/`E` pairs.

use std::collections::BTreeMap;

use serde_json::Value;

/// What a valid trace file contained.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TraceSummary {
    /// Total events in `traceEvents`.
    pub events: usize,
    /// Distinct `(pid, tid)` streams.
    pub threads: usize,
    /// Complete spans (matched `B`/`E` pairs).
    pub spans: usize,
    /// Counter (`ph:"C"`) events — metric snapshots appended by
    /// [`pmoctree_obsv::chrome::trace_json_with_metrics`].
    pub counters: usize,
}

/// Validate the text of a Chrome trace-event JSON file.
pub fn check_trace(text: &str) -> Result<TraceSummary, String> {
    let doc = serde_json::from_str(text).map_err(|e| format!("not valid JSON: {e}"))?;
    let events = doc
        .get("traceEvents")
        .and_then(Value::as_array)
        .ok_or_else(|| "missing \"traceEvents\" array".to_string())?;
    let mut stacks: BTreeMap<(u64, u64), Vec<String>> = BTreeMap::new();
    let mut last_ts: BTreeMap<(u64, u64), f64> = BTreeMap::new();
    let mut spans = 0usize;
    let mut counters = 0usize;
    for (i, e) in events.iter().enumerate() {
        let name = e
            .get("name")
            .and_then(Value::as_str)
            .ok_or_else(|| format!("event {i}: missing \"name\""))?;
        let ph = e
            .get("ph")
            .and_then(Value::as_str)
            .ok_or_else(|| format!("event {i}: missing \"ph\""))?;
        let ts = e
            .get("ts")
            .and_then(Value::as_f64)
            .ok_or_else(|| format!("event {i}: missing numeric \"ts\""))?;
        if ph == "C" {
            // Counter snapshots are appended at ts 0 after the span
            // stream; they are exempt from the per-tid monotone check
            // but must carry an args payload.
            if e.get("args").is_none() {
                return Err(format!("event {i} ({name}): counter event without \"args\""));
            }
            counters += 1;
            continue;
        }
        let pid = e.get("pid").and_then(Value::as_u64).unwrap_or(0);
        let tid = e.get("tid").and_then(Value::as_u64).unwrap_or(0);
        let key = (pid, tid);
        if let Some(&prev) = last_ts.get(&key) {
            if ts < prev {
                return Err(format!(
                    "event {i} ({name}): ts {ts} goes back in time on tid {tid} (prev {prev})"
                ));
            }
        }
        last_ts.insert(key, ts);
        match ph {
            "B" => stacks.entry(key).or_default().push(name.to_string()),
            "E" => match stacks.entry(key).or_default().pop() {
                Some(top) if top == name => spans += 1,
                Some(top) => {
                    return Err(format!("event {i}: E({name}) closes open span {top} on tid {tid}"))
                }
                None => return Err(format!("event {i}: E({name}) with no open span on tid {tid}")),
            },
            "i" | "I" => {}
            other => return Err(format!("event {i} ({name}): unsupported ph {other:?}")),
        }
    }
    for ((_, tid), stack) in &stacks {
        if let Some(open) = stack.last() {
            return Err(format!("tid {tid}: trace ends with span {open} still open"));
        }
    }
    Ok(TraceSummary { events: events.len(), threads: last_ts.len(), spans, counters })
}

/// Does this text look like a `BENCH_*.json` document rather than a
/// Chrome trace? True when it parses as a JSON object with a top-level
/// `"experiment"` key.
pub fn looks_like_bench_doc(text: &str) -> bool {
    matches!(serde_json::from_str(text), Ok(doc) if doc.get("experiment").is_some())
}

/// The four device regions a wear report must attribute bytes to.
const WEAR_REGIONS: [&str; 4] = ["root_table", "octree", "rt_heap", "recorder"];

fn check_wear_section(wear: &Value, ctx: &str) -> Result<(), String> {
    let regions = wear
        .get("bytes_by_region")
        .and_then(Value::as_array)
        .ok_or_else(|| format!("{ctx}: missing \"bytes_by_region\" array"))?;
    for want in WEAR_REGIONS {
        if !regions.iter().any(|r| r.get("name").and_then(Value::as_str) == Some(want)) {
            return Err(format!("{ctx}: bytes_by_region lacks region {want:?}"));
        }
    }
    let phases = wear
        .get("bytes_by_phase")
        .and_then(Value::as_array)
        .ok_or_else(|| format!("{ctx}: missing \"bytes_by_phase\" array"))?;
    if phases.is_empty() {
        return Err(format!("{ctx}: bytes_by_phase is empty"));
    }
    let hist = wear
        .get("wear_hist")
        .and_then(Value::as_array)
        .ok_or_else(|| format!("{ctx}: missing \"wear_hist\" array"))?;
    if hist.len() != 16 {
        return Err(format!("{ctx}: wear_hist has {} buckets, want 16", hist.len()));
    }
    for field in ["max_wear", "max_wear_offset", "bytes_committed"] {
        if wear.get(field).and_then(Value::as_u64).is_none() {
            return Err(format!("{ctx}: missing numeric \"{field}\""));
        }
    }
    Ok(())
}

/// The `wear-level` driver's entry must additionally carry the wear
/// GC's own counters: the occupancy watermark the compaction pass
/// triggers at (a fraction in `(0, 1]`) plus the relocation totals.
fn check_wear_leveling_section(entry: &Value) -> Result<(), String> {
    let lev = entry
        .get("wear_leveling")
        .filter(|v| v.as_object().is_some())
        .ok_or_else(|| "driver \"wear-level\": missing \"wear_leveling\" section".to_string())?;
    let wm = lev
        .get("occupancy_watermark")
        .and_then(Value::as_f64)
        .ok_or_else(|| "wear_leveling: missing numeric \"occupancy_watermark\"".to_string())?;
    if !(wm > 0.0 && wm <= 1.0) {
        return Err(format!("wear_leveling: occupancy_watermark {wm} outside (0, 1]"));
    }
    for field in ["relocations", "bytes_moved"] {
        if lev.get(field).and_then(Value::as_u64).is_none() {
            return Err(format!("wear_leveling: missing numeric \"{field}\""));
        }
    }
    Ok(())
}

/// Validate a `BENCH_*.json` document's shape. Every document must be
/// strict JSON with an `"experiment"` string; wear and blackbox
/// documents additionally must carry complete wear attribution (all
/// four regions, a non-empty phase breakdown, the 16-bucket histogram)
/// and — for blackbox — a well-formed recovered recorder dump. The
/// `wear-level` driver entry of a wear document must also carry its
/// `wear_leveling` GC-counter section. Returns the experiment name.
pub fn check_bench_doc(text: &str) -> Result<String, String> {
    let doc = serde_json::from_str(text).map_err(|e| format!("not valid JSON: {e}"))?;
    let kind = doc
        .get("experiment")
        .and_then(Value::as_str)
        .ok_or_else(|| "missing \"experiment\" string".to_string())?
        .to_string();
    match kind.as_str() {
        "wear" => {
            let drivers = doc
                .get("drivers")
                .and_then(Value::as_array)
                .ok_or_else(|| "wear: missing \"drivers\" array".to_string())?;
            if drivers.is_empty() {
                return Err("wear: no drivers recorded".to_string());
            }
            for d in drivers {
                let name = d
                    .get("driver")
                    .and_then(Value::as_str)
                    .ok_or_else(|| "wear: driver entry without \"driver\" name".to_string())?;
                let wear =
                    d.get("wear").ok_or_else(|| format!("wear: driver {name:?} lacks \"wear\""))?;
                check_wear_section(wear, &format!("driver {name:?}"))?;
                if name == "wear-level" {
                    check_wear_leveling_section(d)?;
                }
            }
        }
        "blackbox" => {
            let dump = doc.get("dump").ok_or_else(|| "blackbox: missing \"dump\"".to_string())?;
            if dump.get("header_ok").and_then(Value::as_bool) != Some(true) {
                return Err("blackbox: dump.header_ok is not true".to_string());
            }
            let entries = dump
                .get("entries")
                .and_then(Value::as_array)
                .ok_or_else(|| "blackbox: dump lacks \"entries\" array".to_string())?;
            if entries.is_empty() {
                return Err("blackbox: recovered dump has no entries".to_string());
            }
            let wear = doc.get("wear").ok_or_else(|| "blackbox: missing \"wear\"".to_string())?;
            check_wear_section(wear, "blackbox")?;
        }
        _ => {}
    }
    Ok(kind)
}

#[cfg(test)]
#[allow(clippy::unwrap_used)]
mod tests {
    use super::*;
    use pmoctree_nvbm::Tracer;
    use pmoctree_obsv::chrome;

    fn sample_trace() -> String {
        let t = Tracer::enabled(2);
        t.begin("step", 0, Some(0));
        t.begin("step::persist", 100, None);
        t.instant("sampling::decision", 150, Some(3));
        t.end("step::persist", 900);
        t.end("step", 1000);
        chrome::trace_json(&[(2, t.events())])
    }

    #[test]
    fn accepts_exporter_output() {
        let s = check_trace(&sample_trace()).unwrap();
        assert_eq!(s.events, 5);
        assert_eq!(s.threads, 1);
        assert_eq!(s.spans, 2);
    }

    #[test]
    fn rejects_garbage_and_imbalance() {
        assert!(check_trace("not json").is_err());
        assert!(check_trace("{}").is_err());
        // An open span never closed.
        let open = r#"{"traceEvents":[{"name":"a","ph":"B","ts":0,"pid":0,"tid":0}]}"#;
        assert!(check_trace(open).unwrap_err().contains("still open"));
        // Crossed spans.
        let crossed = r#"{"traceEvents":[
            {"name":"a","ph":"B","ts":0,"pid":0,"tid":0},
            {"name":"b","ph":"B","ts":1,"pid":0,"tid":0},
            {"name":"a","ph":"E","ts":2,"pid":0,"tid":0}]}"#;
        assert!(check_trace(crossed).is_err());
        // Time travel within one tid.
        let back = r#"{"traceEvents":[
            {"name":"a","ph":"B","ts":5,"pid":0,"tid":0},
            {"name":"a","ph":"E","ts":4,"pid":0,"tid":0}]}"#;
        assert!(check_trace(back).unwrap_err().contains("back in time"));
    }

    #[test]
    fn accepts_counter_events_from_metrics_exporter() {
        let t = Tracer::enabled(0);
        t.begin("step", 0, None);
        t.end("step", 500);
        let mut m = pmoctree_obsv::Metrics::new();
        m.counter_add("nvbm.flush_lines", 3);
        m.counter_add_labeled("svc.write_bytes", "tenant=\"t0\"", 42);
        let json = chrome::trace_json_with_metrics(&[(0, t.events())], &m);
        let s = check_trace(&json).unwrap();
        assert_eq!(s.spans, 1);
        assert!(s.counters >= 2, "both metric series become counter events: {s:?}");
    }

    #[test]
    fn bench_doc_detection_and_wear_shape() {
        assert!(!looks_like_bench_doc("not json"));
        assert!(!looks_like_bench_doc(r#"{"traceEvents":[]}"#));

        let mut st = pmoctree_nvbm::MemStats::default();
        st.wear_commit(0, 64);
        let wear = st.wear_report();
        let body =
            crate::json::wear_doc_for_tests(&[("droplet", &wear, None), ("service", &wear, None)]);
        assert!(looks_like_bench_doc(&body));
        assert_eq!(check_bench_doc(&body).unwrap(), "wear");

        // A wear doc missing a region must be rejected.
        let truncated = body.replace("root_table", "root_tably");
        assert!(check_bench_doc(&truncated).unwrap_err().contains("root_table"));

        // The wear-level driver's entry must carry the wear_leveling
        // section — absent on other drivers, required on it.
        let bare = crate::json::wear_doc_for_tests(&[("wear-level", &wear, None)]);
        assert!(check_bench_doc(&bare).unwrap_err().contains("wear_leveling"));
        let lev = crate::wear_bench::WearLeveling {
            occupancy_watermark: pm_rt::COMPACT_WATERMARK,
            relocations: 3,
            bytes_moved: 1024,
        };
        let leveled = crate::json::wear_doc_for_tests(&[
            ("droplet", &wear, None),
            ("wear-level", &wear, Some(&lev)),
        ]);
        assert_eq!(check_bench_doc(&leveled).unwrap(), "wear");
        let bad_wm = crate::wear_bench::WearLeveling { occupancy_watermark: 0.0, ..lev };
        let rejected = crate::json::wear_doc_for_tests(&[("wear-level", &wear, Some(&bad_wm))]);
        assert!(check_bench_doc(&rejected).unwrap_err().contains("occupancy_watermark"));

        // Unknown experiments only need the experiment key.
        assert_eq!(check_bench_doc(r#"{"experiment":"fig6","rows":[]}"#).unwrap(), "fig6");
    }

    #[test]
    fn independent_tids_do_not_interfere() {
        let a = Tracer::enabled(0);
        a.begin("x", 0, None);
        a.end("x", 50);
        let b = Tracer::enabled(1);
        b.begin("y", 10, None);
        b.end("y", 20);
        // Thread b's timestamps rewind relative to a's — legal, separate tid.
        let json = chrome::trace_json(&[(0, a.events()), (1, b.events())]);
        let s = check_trace(&json).unwrap();
        assert_eq!(s.threads, 2);
        assert_eq!(s.spans, 2);
    }
}
