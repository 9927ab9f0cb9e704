//! Chrome trace-event JSON exporter.
//!
//! Emits the `{"traceEvents": [...]}` object format understood by
//! `chrome://tracing` and Perfetto. Timestamps are microseconds; the
//! virtual clock is nanoseconds, so `ts` is written as `ns/1000` with
//! exactly three decimals via integer math — no float formatting — which
//! keeps traces byte-identical across runs and platforms.

use crate::trace::{Event, EventKind};

/// Format a nanosecond timestamp as a microsecond JSON number with three
/// decimals (`1234567` → `"1234.567"`).
pub fn ts_us(t_ns: u64) -> String {
    format!("{}.{:03}", t_ns / 1000, t_ns % 1000)
}

fn push_event(out: &mut String, tid: u32, e: &Event) {
    let ph = match e.kind {
        EventKind::Begin => "B",
        EventKind::End => "E",
        EventKind::Instant => "i",
    };
    out.push_str("{\"name\":\"");
    out.push_str(e.name); // labels are static identifiers; nothing to escape
    out.push_str("\",\"cat\":\"pm\",\"ph\":\"");
    out.push_str(ph);
    out.push_str("\",\"ts\":");
    out.push_str(&ts_us(e.t_ns));
    out.push_str(",\"pid\":0,\"tid\":");
    out.push_str(&tid.to_string());
    if e.kind == EventKind::Instant {
        out.push_str(",\"s\":\"t\"");
    }
    if let Some(a) = e.arg {
        out.push_str(",\"args\":{\"v\":");
        out.push_str(&a.to_string());
        out.push('}');
    }
    out.push('}');
}

/// Serialize per-rank journals as one Chrome trace. `threads` pairs each
/// rank id (`tid`) with its event journal in recording order.
pub fn trace_json(threads: &[(u32, Vec<Event>)]) -> String {
    let mut out = String::from("{\"displayTimeUnit\":\"ms\",\"traceEvents\":[");
    let mut first = true;
    for (tid, events) in threads {
        for e in events {
            if !first {
                out.push(',');
            }
            first = false;
            push_event(&mut out, *tid, e);
        }
    }
    out.push_str("]}");
    out
}

/// Check that a journal is well-formed: timestamps monotone nondecreasing
/// and Begin/End properly nested with matching names.
pub fn validate_events(events: &[Event]) -> Result<(), String> {
    let mut stack: Vec<&'static str> = Vec::new();
    let mut last_t = 0u64;
    for (i, e) in events.iter().enumerate() {
        if e.t_ns < last_t {
            return Err(format!(
                "event {i} ({}) goes back in time: {} < {}",
                e.name, e.t_ns, last_t
            ));
        }
        last_t = e.t_ns;
        match e.kind {
            EventKind::Begin => stack.push(e.name),
            EventKind::End => match stack.pop() {
                Some(top) if top == e.name => {}
                Some(top) => {
                    return Err(format!("event {i}: End({}) closes open span {top}", e.name))
                }
                None => return Err(format!("event {i}: End({}) with no open span", e.name)),
            },
            EventKind::Instant => {}
        }
    }
    if let Some(open) = stack.pop() {
        return Err(format!("journal ends with span {open} still open"));
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ev(t: u64, kind: EventKind, name: &'static str) -> Event {
        Event { t_ns: t, kind, name, arg: None }
    }

    #[test]
    fn ts_is_integer_math() {
        assert_eq!(ts_us(0), "0.000");
        assert_eq!(ts_us(1), "0.001");
        assert_eq!(ts_us(1_234_567), "1234.567");
    }

    #[test]
    fn exports_balanced_json() {
        let events = vec![
            ev(0, EventKind::Begin, "persist"),
            ev(150, EventKind::Instant, "sample"),
            ev(300, EventKind::End, "persist"),
        ];
        let json = trace_json(&[(0, events.clone())]);
        assert!(json.starts_with("{\"displayTimeUnit\""));
        assert!(json.contains("\"ph\":\"B\""));
        assert!(json.contains("\"ts\":0.150"));
        assert!(validate_events(&events).is_ok());
    }

    #[test]
    fn validation_catches_imbalance_and_time_travel() {
        let open = vec![ev(0, EventKind::Begin, "a")];
        assert!(validate_events(&open).is_err());
        let crossed = vec![
            ev(0, EventKind::Begin, "a"),
            ev(1, EventKind::Begin, "b"),
            ev(2, EventKind::End, "a"),
        ];
        assert!(validate_events(&crossed).is_err());
        let back = vec![ev(5, EventKind::Begin, "a"), ev(4, EventKind::End, "a")];
        assert!(validate_events(&back).is_err());
    }
}
