//! Trace exporters: JSONL and Chrome `trace_event` JSON.
//!
//! Both exporters are pure functions of an [`ObsReport`] and format numbers
//! with integer arithmetic or Rust's shortest-roundtrip float `Display`, so
//! the output is byte-deterministic — fit for golden-file tests and for the
//! CI differential that diffs traces across thread counts.

use std::collections::BTreeMap;
use std::fmt::Write as _;

use crate::event::{track, Kind};
use crate::report::ObsReport;

/// Escapes a string for embedding in a JSON double-quoted literal.
fn escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out
}

/// Formats an `f64` as a JSON number; non-finite values (which no producer
/// should emit) become `null` rather than invalid JSON.
fn json_num(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "null".to_string()
    }
}

/// Nanoseconds → Chrome's microsecond `ts`, exact to 3 decimals, computed
/// in integer arithmetic.
fn micros(ts_ns: u64) -> String {
    format!("{}.{:03}", ts_ns / 1_000, ts_ns % 1_000)
}

/// Appends one `{"type":"event",...}` JSONL line per event to `out`.
///
/// This is the per-event half of [`to_jsonl`], exposed so live consumers
/// (the serving surface's telemetry drain) can stream batches of drained
/// events incrementally and still produce bytes identical to a one-shot
/// export of the same events.
pub fn write_events_jsonl(out: &mut String, events: &[crate::event::Event]) {
    for ev in events {
        let kind = match ev.kind {
            Kind::SpanBegin => "begin",
            Kind::SpanEnd => "end",
            Kind::Instant => "instant",
            Kind::Counter => "counter",
        };
        let _ = write!(
            out,
            "{{\"type\":\"event\",\"ts_ns\":{},\"track\":\"{}\",\"kind\":\"{kind}\",\"name\":\"{}\"",
            ev.ts_ns,
            escape(track::name(ev.track)),
            escape(ev.name)
        );
        if let Some(id) = ev.id {
            let _ = write!(out, ",\"id\":{id}");
        }
        if ev.value != 0.0 {
            let _ = write!(out, ",\"value\":{}", json_num(ev.value));
        }
        out.push_str("}\n");
    }
}

/// Renders the report as JSON Lines: one `meta` line, then one line per
/// event, per stage-counter row and per detected stall.
#[must_use]
pub fn to_jsonl(report: &ObsReport) -> String {
    let mut out = String::new();
    let _ = writeln!(
        out,
        "{{\"type\":\"meta\",\"enabled\":{},\"events\":{},\"dropped\":{}}}",
        report.enabled,
        report.events.len(),
        report.dropped
    );
    write_events_jsonl(&mut out, &report.events);
    for (name, c) in report.counters.stages() {
        let _ = writeln!(
            out,
            "{{\"type\":\"stage\",\"name\":\"{}\",\"begun\":{},\"completed\":{},\"drops\":{},\"stalls\":{},\"priority_flushes\":{}}}",
            escape(name), c.begun, c.completed, c.drops, c.stalls, c.priority_flushes
        );
    }
    for s in &report.stalls {
        let _ = writeln!(
            out,
            "{{\"type\":\"stall\",\"track\":\"{}\",\"name\":\"{}\",\"start_ns\":{},\"duration_ns\":{},\"median_ns\":{}}}",
            escape(track::name(s.track)),
            escape(s.name),
            s.start_ns,
            s.duration_ns,
            s.median_ns
        );
    }
    out
}

/// Renders the report in Chrome `trace_event` JSON (the "JSON object
/// format"), loadable in Perfetto or `chrome://tracing`.
///
/// Mapping: spans become `B`/`E` duration events, instants become `i` with
/// thread scope, counter samples become `C` events; tracks map to `tid`s
/// named via `thread_name` metadata. Timestamps are microseconds with
/// exactly three decimals. A span still open when the run ended (a stage
/// in flight at the horizon) is closed at the last event's timestamp, so
/// every track's `B`s and `E`s pair up.
#[must_use]
pub fn to_chrome_trace(report: &ObsReport) -> String {
    let mut lines: Vec<String> = Vec::with_capacity(report.events.len() + 8);
    lines.push(
        "{\"name\":\"process_name\",\"ph\":\"M\",\"pid\":0,\"tid\":0,\
         \"args\":{\"name\":\"odr\"}}"
            .to_string(),
    );
    let mut tracks: Vec<u32> = report.events.iter().map(|e| e.track).collect();
    tracks.sort_unstable();
    tracks.dedup();
    for t in &tracks {
        lines.push(format!(
            "{{\"name\":\"thread_name\",\"ph\":\"M\",\"pid\":0,\"tid\":{},\
             \"args\":{{\"name\":\"{}\"}}}}",
            t,
            escape(track::name(*t))
        ));
    }
    let mut open: BTreeMap<u32, Vec<&'static str>> = BTreeMap::new();
    for ev in &report.events {
        match ev.kind {
            Kind::SpanBegin => open.entry(ev.track).or_default().push(ev.name),
            Kind::SpanEnd => {
                open.entry(ev.track).or_default().pop();
            }
            Kind::Instant | Kind::Counter => {}
        }
        let common = format!(
            "\"name\":\"{}\",\"cat\":\"odr\",\"pid\":0,\"tid\":{},\"ts\":{}",
            escape(ev.name),
            ev.track,
            micros(ev.ts_ns)
        );
        let line = match ev.kind {
            Kind::SpanBegin => match ev.id {
                Some(id) => format!("{{{common},\"ph\":\"B\",\"args\":{{\"frame\":{id}}}}}"),
                None => format!("{{{common},\"ph\":\"B\"}}"),
            },
            Kind::SpanEnd => format!("{{{common},\"ph\":\"E\"}}"),
            Kind::Instant => {
                let mut args = String::new();
                if let Some(id) = ev.id {
                    let _ = write!(args, "\"frame\":{id}");
                }
                if ev.value != 0.0 {
                    if !args.is_empty() {
                        args.push(',');
                    }
                    let _ = write!(args, "\"value\":{}", json_num(ev.value));
                }
                if args.is_empty() {
                    format!("{{{common},\"ph\":\"i\",\"s\":\"t\"}}")
                } else {
                    format!("{{{common},\"ph\":\"i\",\"s\":\"t\",\"args\":{{{args}}}}}")
                }
            }
            Kind::Counter => format!(
                "{{{common},\"ph\":\"C\",\"args\":{{\"value\":{}}}}}",
                json_num(ev.value)
            ),
        };
        lines.push(line);
    }
    let last = micros(report.events.last().map_or(0, |e| e.ts_ns));
    for (tid, names) in &open {
        for name in names.iter().rev() {
            lines.push(format!(
                "{{\"name\":\"{}\",\"cat\":\"odr\",\"pid\":0,\"tid\":{tid},\"ts\":{last},\"ph\":\"E\"}}",
                escape(name)
            ));
        }
    }
    let mut out = String::new();
    out.push_str("{\"displayTimeUnit\":\"ms\",\"traceEvents\":[\n");
    out.push_str(&lines.join(",\n"));
    out.push_str("\n]}\n");
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::event::{names, track, Event};
    use crate::recorder::Drained;

    fn tiny_report() -> ObsReport {
        let events = vec![
            Event::begin(0, track::APP, names::RENDER).with_id(0),
            Event::end(5_250, track::APP, names::RENDER),
            Event::instant(6_000, track::APP, names::RENDER_DROP).with_value(2.0),
            Event::counter(7_125, track::REGULATOR, names::REG_ACC_DELAY, -0.5),
        ];
        ObsReport::from_drained(Drained { events, dropped: 1 })
    }

    #[test]
    fn jsonl_lines_are_pinned() {
        let text = to_jsonl(&tiny_report());
        let lines: Vec<&str> = text.lines().collect();
        assert_eq!(
            lines[0],
            "{\"type\":\"meta\",\"enabled\":true,\"events\":4,\"dropped\":1}"
        );
        assert_eq!(
            lines[1],
            "{\"type\":\"event\",\"ts_ns\":0,\"track\":\"app\",\"kind\":\"begin\",\"name\":\"render\",\"id\":0}"
        );
        assert_eq!(
            lines[3],
            "{\"type\":\"event\",\"ts_ns\":6000,\"track\":\"app\",\"kind\":\"instant\",\"name\":\"render.drop\",\"value\":2}"
        );
        assert!(lines[4].contains("\"kind\":\"counter\""));
        assert!(lines[4].contains("\"value\":-0.5"));
        // One stage row per distinct name.
        assert!(lines.iter().any(|l| l
            .starts_with("{\"type\":\"stage\",\"name\":\"render\",\"begun\":1,\"completed\":1")));
        assert!(lines
            .iter()
            .any(|l| l.contains("\"name\":\"render.drop\"") && l.contains("\"drops\":2")));
    }

    #[test]
    fn chrome_trace_shape_is_pinned() {
        let text = to_chrome_trace(&tiny_report());
        assert!(text.starts_with("{\"displayTimeUnit\":\"ms\",\"traceEvents\":[\n"));
        assert!(text.ends_with("\n]}\n"));
        assert!(text.contains(
            "{\"name\":\"thread_name\",\"ph\":\"M\",\"pid\":0,\"tid\":0,\"args\":{\"name\":\"app\"}}"
        ));
        assert!(text.contains(
            "{\"name\":\"render\",\"cat\":\"odr\",\"pid\":0,\"tid\":0,\"ts\":0.000,\"ph\":\"B\",\"args\":{\"frame\":0}}"
        ));
        assert!(text.contains(
            "{\"name\":\"render\",\"cat\":\"odr\",\"pid\":0,\"tid\":0,\"ts\":5.250,\"ph\":\"E\"}"
        ));
        assert!(text.contains("\"ts\":7.125,\"ph\":\"C\",\"args\":{\"value\":-0.5}"));
    }

    #[test]
    fn chrome_trace_closes_spans_open_at_the_horizon() {
        let events = vec![
            Event::begin(1_000, track::PROXY, names::ENCODE).with_id(3),
            Event::instant(4_500, track::APP, names::RENDER_DROP),
        ];
        let report = ObsReport::from_drained(Drained { events, dropped: 0 });
        let text = to_chrome_trace(&report);
        assert!(text.ends_with(
            "{\"name\":\"encode\",\"cat\":\"odr\",\"pid\":0,\"tid\":1,\"ts\":4.500,\"ph\":\"E\"}\n]}\n"
        ));
        // The counters still say the span never completed.
        let (_, encode) = report.counters.stages()[0];
        assert_eq!((encode.begun, encode.completed), (1, 0));
    }

    #[test]
    fn exports_are_deterministic() {
        let a = tiny_report();
        let b = tiny_report();
        assert_eq!(to_jsonl(&a), to_jsonl(&b));
        assert_eq!(to_chrome_trace(&a), to_chrome_trace(&b));
    }

    #[test]
    fn escape_handles_quotes_and_controls() {
        assert_eq!(escape("a\"b\\c"), "a\\\"b\\\\c");
        assert_eq!(escape("x\ny"), "x\\u000ay");
    }

    #[test]
    fn non_finite_values_become_null() {
        assert_eq!(json_num(f64::NAN), "null");
        assert_eq!(json_num(f64::INFINITY), "null");
        assert_eq!(json_num(1.25), "1.25");
    }

    #[test]
    fn micros_is_exact_integer_math() {
        assert_eq!(micros(0), "0.000");
        assert_eq!(micros(999), "0.999");
        assert_eq!(micros(1_000), "1.000");
        assert_eq!(micros(16_666_667), "16666.667");
    }
}
