//! Chrome `trace_event` / Perfetto timeline export.
//!
//! A run becomes a JSON array of trace events: one process per node,
//! two threads per process (host and NI firmware). Spans are `ph:"X"`
//! complete events, instants are `ph:"i"`, and correlated pairs
//! (direct-diff deposit → apply, NI lock grant sent → received) add
//! `ph:"s"`/`ph:"f"` flow events so the cross-node handoffs render as
//! arrows. Open the file at <https://ui.perfetto.dev> or
//! `chrome://tracing`.

use std::fmt::{Arguments, Write};

use crate::json::{write_num, write_str, EventScanner};
use crate::span::{FlowDir, SpanRecord};

/// Upper bounds on the bytes one event takes (the comma after it
/// included): 20 digits per integer, 24 characters per microsecond
/// value. `timeline_json` reserves from them, so the text never
/// reallocates; capacity a trace does not use is never touched.
const META_MAX: usize = 128;
const SPAN_MAX: usize = 224;
const FLOW_MAX: usize = 144;

/// An integer field, in exact decimal: op ids carry their class in the
/// top bits and flow ids are 64-bit hashes, so printing them through
/// `f64` (as [`crate::Json::u64`] does) would round away the low bits
/// that tell two ids apart.
fn write_int(n: u64, out: &mut String) {
    let _infallible = write!(out, "{n}");
}

/// `"name":…,"cat":…,"ph":…,"ts":…,"pid":…,"tid":…` of a span, instant
/// or flow event, after its opening brace.
fn event_head(out: &mut String, name: &str, rec: &SpanRecord, ph: &str) {
    out.push_str("{\"name\":");
    write_str(name, out);
    out.push_str(",\"cat\":");
    write_str(rec.kind.category(), out);
    out.push_str(",\"ph\":");
    write_str(ph, out);
    out.push_str(",\"ts\":");
    write_num(rec.start.as_us(), out);
    out.push_str(",\"pid\":");
    write_int(rec.node as u64, out);
    out.push_str(",\"tid\":");
    write_int(rec.track.tid(), out);
}

/// A `ph:"M"` metadata event naming a node's process (`tid` absent) or
/// one of its threads. `value` needs no JSON escaping.
fn meta_event(out: &mut String, node: usize, name: &str, tid: Option<u64>, value: Arguments) {
    out.push_str("{\"name\":");
    write_str(name, out);
    out.push_str(",\"ph\":\"M\",\"ts\":0,\"pid\":");
    write_int(node as u64, out);
    if let Some(t) = tid {
        out.push_str(",\"tid\":");
        write_int(t, out);
    }
    out.push_str(",\"args\":{\"name\":\"");
    let _infallible = out.write_fmt(value);
    out.push_str("\"}},");
}

/// Renders records as a `trace_event` JSON array (the "JSON array
/// format": a plain array of event objects, which both Perfetto and
/// `chrome://tracing` accept). Events are written straight into one
/// string sized up front: metadata first (a process and two threads per
/// node), then each record followed by its flow endpoint, if any.
pub fn timeline_json(spans: &[SpanRecord]) -> String {
    let nodes = spans.iter().map(|s| s.node + 1).max().unwrap_or(0);
    let flows = spans.iter().filter(|s| s.flow.is_some()).count();
    let mut out =
        String::with_capacity(2 + nodes * 3 * META_MAX + spans.len() * SPAN_MAX + flows * FLOW_MAX);
    out.push('[');
    for node in 0..nodes {
        meta_event(
            &mut out,
            node,
            "process_name",
            None,
            format_args!("node {node}"),
        );
        meta_event(&mut out, node, "thread_name", Some(0), format_args!("host"));
        meta_event(
            &mut out,
            node,
            "thread_name",
            Some(1),
            format_args!("ni-firmware"),
        );
    }
    for rec in spans {
        if rec.kind.is_instant() {
            event_head(&mut out, rec.kind.name(), rec, "i");
            out.push_str(",\"s\":\"t\"");
        } else {
            event_head(&mut out, rec.kind.name(), rec, "X");
            out.push_str(",\"dur\":");
            write_num(rec.dur.as_us(), &mut out);
        }
        out.push_str(",\"args\":{\"arg\":");
        write_int(rec.arg, &mut out);
        if rec.op != 0 {
            out.push_str(",\"op\":");
            write_int(rec.op, &mut out);
        }
        out.push_str("}},");
        if let Some(flow) = rec.flow {
            let ph = match flow.dir {
                FlowDir::Start => "s",
                FlowDir::Finish => "f",
            };
            // Flow names must match at both endpoints for the arrow to
            // bind, so both sides emit the shared name "flow".
            event_head(&mut out, "flow", rec, ph);
            out.push_str(",\"id\":");
            write_int(flow.id, &mut out);
            if flow.dir == FlowDir::Finish {
                out.push_str(",\"bp\":\"e\"");
            }
            out.push_str("},");
        }
    }
    if out.ends_with(',') {
        out.pop();
    }
    out.push(']');
    out
}

/// Summary statistics of a parsed trace, returned by
/// [`validate_trace`].
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct TraceStats {
    /// Total events, including metadata.
    pub events: usize,
    /// `ph:"X"` complete events.
    pub complete: usize,
    /// `ph:"i"` instant events.
    pub instants: usize,
    /// `ph:"s"`/`ph:"f"` flow events.
    pub flows: usize,
    /// `ph:"M"` metadata events.
    pub metadata: usize,
}

/// Checks that `text` is a structurally valid `trace_event` JSON
/// array: every element an object carrying `name`/`ph`/`ts`/`pid`
/// (plus `dur` on complete events). Returns per-phase counts. One pass
/// over the text, building no tree.
pub fn validate_trace(text: &str) -> Result<TraceStats, String> {
    let Some(mut scan) = EventScanner::new(text).map_err(|e| e.to_string())? else {
        return Err("trace is not a JSON array".to_string());
    };
    let mut stats = TraceStats::default();
    while let Some(ev) = scan.next_event().map_err(|e| e.to_string())? {
        let i = stats.events;
        if !ev.object {
            return Err(format!("event {i} is not an object"));
        }
        for key in ["name", "ph", "ts", "pid"] {
            if !ev.has(key) {
                return Err(format!("event {i} is missing {key:?}"));
            }
        }
        let ph = ev
            .ph
            .ok_or_else(|| format!("event {i} has a non-string ph"))?;
        stats.events += 1;
        match ph {
            "X" => {
                if !ev.dur_is_num {
                    return Err(format!("complete event {i} is missing dur"));
                }
                stats.complete += 1;
            }
            "i" => stats.instants += 1,
            "s" | "f" => {
                if !ev.has("id") {
                    return Err(format!("flow event {i} is missing id"));
                }
                stats.flows += 1;
            }
            "M" => stats.metadata += 1,
            other => return Err(format!("event {i} has unknown phase {other:?}")),
        }
    }
    Ok(stats)
}

/// Number of events named `name` (the first `name` key of each
/// element). Returns 0 on malformed input (validate first for
/// diagnostics).
pub fn count_named(text: &str, name: &str) -> usize {
    let Ok(Some(mut scan)) = EventScanner::new(text) else {
        return 0;
    };
    let mut n = 0;
    loop {
        match scan.next_event() {
            Ok(Some(ev)) => n += usize::from(ev.name == Some(name)),
            Ok(None) => return n,
            Err(_malformed) => return 0,
        }
    }
}

/// The tree-based exporter and validator this module replaced, kept
/// verbatim as the oracles the streaming versions are tested against.
#[cfg(test)]
pub(crate) mod reference {
    use super::TraceStats;
    use crate::json::Json;
    use crate::span::{FlowDir, SpanRecord};

    fn base_event(rec: &SpanRecord, ph: &str) -> Json {
        let mut ev = Json::obj();
        ev.set("name", Json::str(rec.kind.name()))
            .set("cat", Json::str(rec.kind.category()))
            .set("ph", Json::str(ph))
            .set("ts", Json::num(rec.start.as_us()))
            .set("pid", Json::u64(rec.node as u64))
            .set("tid", Json::u64(rec.track.tid()));
        ev
    }

    fn meta_event(node: usize, name: &str, tid: Option<u64>, value: &str) -> Json {
        let mut args = Json::obj();
        args.set("name", Json::str(value));
        let mut ev = Json::obj();
        ev.set("name", Json::str(name))
            .set("ph", Json::str("M"))
            .set("ts", Json::num(0.0))
            .set("pid", Json::u64(node as u64));
        if let Some(t) = tid {
            ev.set("tid", Json::u64(t));
        }
        ev.set("args", args);
        ev
    }

    /// Renders records as a `trace_event` JSON array (the "JSON array
    /// format": a plain array of event objects, which both Perfetto and
    /// `chrome://tracing` accept).
    pub(crate) fn timeline_json(spans: &[SpanRecord]) -> String {
        let mut events = Vec::new();
        let nodes = spans.iter().map(|s| s.node + 1).max().unwrap_or(0);
        for node in 0..nodes {
            events.push(meta_event(
                node,
                "process_name",
                None,
                &format!("node {node}"),
            ));
            events.push(meta_event(node, "thread_name", Some(0), "host"));
            events.push(meta_event(node, "thread_name", Some(1), "ni-firmware"));
        }
        for rec in spans {
            if rec.kind.is_instant() {
                let mut ev = base_event(rec, "i");
                ev.set("s", Json::str("t"));
                let mut args = Json::obj();
                args.set("arg", Json::u64(rec.arg));
                if rec.op != 0 {
                    args.set("op", Json::u64(rec.op));
                }
                ev.set("args", args);
                events.push(ev);
            } else {
                let mut ev = base_event(rec, "X");
                ev.set("dur", Json::num(rec.dur.as_us()));
                let mut args = Json::obj();
                args.set("arg", Json::u64(rec.arg));
                if rec.op != 0 {
                    args.set("op", Json::u64(rec.op));
                }
                ev.set("args", args);
                events.push(ev);
            }
            if let Some(flow) = rec.flow {
                let ph = match flow.dir {
                    FlowDir::Start => "s",
                    FlowDir::Finish => "f",
                };
                // Flow names must match at both endpoints for the arrow to
                // bind, so both sides emit the shared name "flow".
                let mut ev = Json::obj();
                ev.set("name", Json::str("flow"))
                    .set("cat", Json::str(rec.kind.category()))
                    .set("ph", Json::str(ph))
                    .set("ts", Json::num(rec.start.as_us()))
                    .set("pid", Json::u64(rec.node as u64))
                    .set("tid", Json::u64(rec.track.tid()))
                    .set("id", Json::u64(flow.id));
                if flow.dir == FlowDir::Finish {
                    ev.set("bp", Json::str("e"));
                }
                events.push(ev);
            }
        }
        Json::Arr(events).dump()
    }

    /// Checks that `text` is a structurally valid `trace_event` JSON
    /// array: every element an object carrying `name`/`ph`/`ts`/`pid`
    /// (plus `dur` on complete events). Returns per-phase counts.
    pub(crate) fn validate_trace(text: &str) -> Result<TraceStats, String> {
        let parsed = Json::parse(text).map_err(|e| e.to_string())?;
        let events = parsed
            .as_arr()
            .ok_or_else(|| "trace is not a JSON array".to_string())?;
        let mut stats = TraceStats::default();
        for (i, ev) in events.iter().enumerate() {
            if ev.as_obj().is_none() {
                return Err(format!("event {i} is not an object"));
            }
            for key in ["name", "ph", "ts", "pid"] {
                if ev.get(key).is_none() {
                    return Err(format!("event {i} is missing {key:?}"));
                }
            }
            let ph = ev
                .get("ph")
                .and_then(|p| p.as_str())
                .ok_or_else(|| format!("event {i} has a non-string ph"))?;
            stats.events += 1;
            match ph {
                "X" => {
                    if ev.get("dur").and_then(|d| d.as_f64()).is_none() {
                        return Err(format!("complete event {i} is missing dur"));
                    }
                    stats.complete += 1;
                }
                "i" => stats.instants += 1,
                "s" | "f" => {
                    if ev.get("id").is_none() {
                        return Err(format!("flow event {i} is missing id"));
                    }
                    stats.flows += 1;
                }
                "M" => stats.metadata += 1,
                other => return Err(format!("event {i} has unknown phase {other:?}")),
            }
        }
        Ok(stats)
    }

    /// Number of events named `name` in a parsed-and-validated trace.
    /// Returns 0 on malformed input (validate first for diagnostics).
    pub(crate) fn count_named(text: &str, name: &str) -> usize {
        match Json::parse(text) {
            Ok(parsed) => parsed
                .as_arr()
                .map(|events| {
                    events
                        .iter()
                        .filter(|ev| ev.get("name").and_then(|n| n.as_str()) == Some(name))
                        .count()
                })
                .unwrap_or(0),
            Err(e) => {
                let _parse_failure = e;
                0
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::json::Json;
    use crate::ring::Recorder;
    use crate::span::{flow_lock_id, Flow, SpanKind, Track};
    use genima_sim::{Dur, Time};
    use proptest::prelude::*;

    fn sample_spans() -> Vec<SpanRecord> {
        let mut r = Recorder::new(2, 64);
        r.span(
            SpanKind::PageFetch,
            0,
            Track::Host,
            Time::from_ns(1000),
            Time::from_ns(21000),
            7,
        );
        r.instant(SpanKind::FetchRetry, 0, Track::Host, Time::from_ns(5000), 7);
        r.span(
            SpanKind::NiLockService,
            1,
            Track::Firmware,
            Time::from_ns(2000),
            Time::from_ns(4000),
            3,
        );
        let id = flow_lock_id(3, 41);
        r.instant_flow(
            SpanKind::NiLockGrant,
            1,
            Track::Firmware,
            Time::from_ns(4000),
            3,
            Flow {
                id,
                dir: FlowDir::Start,
            },
        );
        r.instant_flow(
            SpanKind::NiLockGrant,
            0,
            Track::Firmware,
            Time::from_ns(9000),
            3,
            Flow {
                id,
                dir: FlowDir::Finish,
            },
        );
        r.take().spans
    }

    #[test]
    fn timeline_is_valid_trace_event_array() {
        let text = timeline_json(&sample_spans());
        let stats = validate_trace(&text).expect("valid trace");
        // 2 nodes × 3 metadata, 2 complete, 3 instants, 2 flows.
        assert_eq!(stats.metadata, 6);
        assert_eq!(stats.complete, 2);
        assert_eq!(stats.instants, 3);
        assert_eq!(stats.flows, 2);
        assert_eq!(stats.events, 13);
    }

    #[test]
    fn flow_endpoints_share_id_and_name() {
        let text = timeline_json(&sample_spans());
        let parsed = Json::parse(&text).expect("parse");
        let flows: Vec<&Json> = parsed
            .as_arr()
            .expect("array")
            .iter()
            .filter(|ev| {
                let ph = ev.get("ph").and_then(|p| p.as_str());
                ph == Some("s") || ph == Some("f")
            })
            .collect();
        assert_eq!(flows.len(), 2);
        assert_eq!(
            flows[0].get("id").and_then(|v| v.as_u64()),
            flows[1].get("id").and_then(|v| v.as_u64())
        );
        assert_eq!(flows[0].get("name").and_then(|v| v.as_str()), Some("flow"));
    }

    #[test]
    fn count_named_finds_kinds() {
        let text = timeline_json(&sample_spans());
        assert_eq!(count_named(&text, "page_fetch"), 1);
        assert_eq!(count_named(&text, "interrupt"), 0);
    }

    #[test]
    fn validate_rejects_malformed() {
        assert!(validate_trace("{}").is_err());
        assert!(validate_trace("[{\"name\":\"x\"}]").is_err());
        assert!(
            validate_trace("[{\"name\":\"x\",\"ph\":\"X\",\"ts\":0,\"pid\":0}]").is_err(),
            "complete event without dur must fail"
        );
        assert!(validate_trace("[]").expect("empty array is fine").events == 0);
    }

    #[test]
    fn ts_and_dur_are_microseconds() {
        let text = timeline_json(&sample_spans());
        let parsed = Json::parse(&text).expect("parse");
        let fetch = parsed
            .as_arr()
            .expect("array")
            .iter()
            .find(|ev| ev.get("name").and_then(|n| n.as_str()) == Some("page_fetch"))
            .expect("page_fetch present");
        assert_eq!(fetch.get("ts").and_then(|v| v.as_f64()), Some(1.0));
        assert_eq!(fetch.get("dur").and_then(|v| v.as_f64()), Some(20.0));
    }

    /// An integer drawn below 2^53, at or just above it, or anywhere in
    /// `u64`, as `sel` picks.
    fn wide(x: u64, sel: u64) -> u64 {
        match sel % 3 {
            0 => x % (1 << 53),
            1 => (1 << 53) + x % 4096,
            _ => x,
        }
    }

    /// A record built from four random words: every kind, both tracks,
    /// no flow or either direction, `op` zero or not, and start/duration
    /// magnitudes from nanoseconds to the end of `u64`.
    fn record((a, b, c, d): (u64, u64, u64, u64)) -> SpanRecord {
        let kind = SpanKind::ALL[(a % SpanKind::ALL.len() as u64) as usize];
        SpanRecord {
            kind,
            node: ((a >> 8) % 5) as usize,
            track: if (a >> 16) & 1 == 0 {
                Track::Host
            } else {
                Track::Firmware
            },
            start: Time::from_ns(b >> ((a >> 20) % 64)),
            dur: if kind.is_instant() {
                Dur::ZERO
            } else {
                Dur::from_ns(c >> ((a >> 26) % 64))
            },
            arg: wide(c, d),
            op: if (d >> 2) & 1 == 0 {
                0
            } else {
                wide(b ^ d, d >> 3)
            },
            flow: match (d >> 5) % 3 {
                0 => None,
                dir => Some(Flow {
                    id: wide(a ^ c, d >> 7),
                    dir: if dir == 1 {
                        FlowDir::Start
                    } else {
                        FlowDir::Finish
                    },
                }),
            },
        }
    }

    #[test]
    fn integers_print_exactly() {
        let mut spans = sample_spans();
        spans[0].op = crate::span::op_fetch_id(1);
        spans[1].op = crate::span::op_fetch_id(200);
        spans[2].arg = u64::MAX;
        let text = timeline_json(&spans);
        // Through f64 both fetch ids print as 2305843009213694000.
        for exact in [
            "\"op\":2305843009213693953",
            "\"op\":2305843009213694152",
            "\"arg\":18446744073709551615",
            &format!("\"id\":{}", flow_lock_id(3, 41)),
        ] {
            assert!(text.contains(exact), "{exact} missing");
        }
    }

    #[test]
    fn streaming_export_is_byte_identical_on_the_sample() {
        let mut spans = sample_spans();
        // The reference rounds integers of 2^53 and more; keep the
        // flow id below that so the texts must match byte for byte.
        for rec in &mut spans {
            if let Some(flow) = &mut rec.flow {
                flow.id >>= 11;
            }
        }
        assert_eq!(timeline_json(&spans), reference::timeline_json(&spans));
        assert_eq!(timeline_json(&[]), "[]");
        assert_eq!(reference::timeline_json(&[]), "[]");
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(256))]

        /// The streaming writer renders random records to the same JSON
        /// as the tree-based reference, byte for byte while every
        /// integer is below 2^53.
        #[test]
        fn streaming_export_matches_reference(
            raw in prop::collection::vec((any::<u64>(), any::<u64>(), any::<u64>(), any::<u64>()), 0..40),
        ) {
            let spans: Vec<SpanRecord> = raw.into_iter().map(record).collect();
            let new = timeline_json(&spans);
            let old = reference::timeline_json(&spans);
            prop_assert_eq!(Json::parse(&new), Json::parse(&old));
            let small = spans.iter().all(|s| {
                let id = s.flow.map_or(0, |f| f.id);
                s.arg < 1 << 53 && s.op < 1 << 53 && id < 1 << 53
            });
            if small {
                prop_assert_eq!(&new, &old);
            }
            prop_assert_eq!(validate_trace(&new), reference::validate_trace(&old));
        }
    }

    /// Traces mutated from an exported one: every truncation, key and
    /// value edits around what the validator inspects, bad numbers and
    /// strings, non-objects and trailing bytes.
    fn mutants() -> Vec<String> {
        let base = timeline_json(&sample_spans());
        let mut out: Vec<String> = (0..=base.len())
            .filter(|&i| base.is_char_boundary(i))
            .map(|i| base[..i].to_string())
            .collect();
        let edits: &[(&str, &str)] = &[
            ("\"ph\":\"X\"", "\"ph\":\"X\",\"ph\":\"i\""),
            ("\"ph\":\"X\"", "\"ph\":\"i\",\"ph\":\"X\""),
            ("\"ph\":\"X\"", "\"ph\":1,\"ph\":\"X\""),
            ("\"ph\":\"X\"", "\"ph\":null"),
            ("\"ph\":\"X\"", "\"ph\":\"Q\""),
            ("\"ph\":\"X\"", "\"ph\":\"\\u0058\""),
            ("\"ph\":\"s\"", "\"ph\":\"s\",\"id\":1,\"id\":[]"),
            ("\"ph\":\"M\"", "\"ph\":[\"M\"]"),
            ("\"name\":", "\"\\u006eame\":"),
            ("\"name\":", "\"na\\u006De\":"),
            (
                "\"name\":\"page_fetch\"",
                "\"name\":\"page_fetch\",\"name\":\"x\"",
            ),
            (
                "\"name\":\"page_fetch\"",
                "\"name\":7,\"name\":\"page_fetch\"",
            ),
            ("\"name\":\"page_fetch\"", "\"name\":\"page\\u005ffetch\""),
            ("\"name\":", "\"nam\":"),
            ("\"pid\":", "\"pie\":"),
            ("\"ts\":", "\"t\\u0073\":"),
            ("\"ts\":", "\"tss\":"),
            ("\"id\":", "\"ix\":"),
            ("\"dur\":20", "\"dur\":\"1\""),
            ("\"dur\":20", "\"dur\":20,\"dur\":\"1\""),
            ("\"dur\":20", "\"dur\":\"1\",\"dur\":20"),
            ("\"dur\":20", "\"dur\":null"),
            ("\"dur\":", "\"durr\":"),
            (
                "\"args\":{\"arg\":7}",
                "\"args\":{\"arg\":[1,{\"a\":[true,false,null]}],\"name\":\"x\"}",
            ),
            (
                "\"args\":{\"arg\":7}",
                "\"args\":{\"arg\":[1,{\"a\":[tru]}]}",
            ),
            ("\"args\":{\"arg\":7}", "\"args\":{\"arg\":[1,]}"),
            ("\"args\":{\"arg\":7}", "\"args\":{\"arg\":{\"a\" 1}}"),
            ("\"args\":{\"arg\":7}", "\"args\":{}"),
            ("\"args\":{\"arg\":7}", "\"args\":[]"),
            ("\"args\":{\"arg\":7}", "\"args\":{,}"),
            ("\"cat\":\"proto\"", "\"cat\":\"a\\qb\""),
            ("\"cat\":\"proto\"", "\"cat\":\"\\ud800\""),
            (
                "\"cat\":\"proto\"",
                "\"cat\":\"\\ud83d\\ude00 \\u00e9 \u{3c0}\"",
            ),
            ("\"cat\":\"proto\"", "\"cat\":\"\u{1}\""),
            ("\"cat\":\"proto\"", "\"cat\":\"\\u12\""),
            ("\"cat\":\"proto\"", " \"cat\" :\t\"proto\"\n"),
            ("},{", "} , {"),
            ("},{", "}{"),
            ("},{", "},,{"),
            ("[{", "[1,{"),
            ("[{", "[\"s\",{"),
            ("[{", "[[],{"),
            ("[{", "[null,{"),
            ("[{", "[{},{"),
        ];
        for (from, to) in edits {
            assert!(base.contains(from), "{from} occurs in the base trace");
            out.push(base.replacen(from, to, 1));
        }
        for number in [
            "01",
            "1.",
            "-",
            "1e",
            "-+1",
            "1e5.3",
            "1E+5",
            "-0",
            "1e-3",
            "1e999",
            "--1",
            "0.5.",
            "1-2",
            ".5",
            "+1",
            "1e+",
            "-.5",
            "2.",
            "9007199254740993",
            "1e5e5",
        ] {
            out.push(base.replacen("\"ts\":1", &format!("\"ts\":{number}"), 1));
            out.push(base.replacen("\"dur\":20", &format!("\"dur\":{number}"), 1));
        }
        for tail in [" ", "\n", " x", "]", ",", "[]", "\u{0}"] {
            out.push(format!("{base}{tail}"));
        }
        for text in [
            "{}", "\"x\"", "5", "{} x", "{\"a\":}", "[] ]", " [ ] ", "[", "", "nul",
        ] {
            out.push(text.to_string());
        }
        out
    }

    #[test]
    fn streaming_validator_agrees_with_reference_on_mutants() {
        let mutants = mutants();
        for text in &mutants {
            let new = validate_trace(text);
            let old = reference::validate_trace(text);
            assert_eq!(
                new.is_ok(),
                old.is_ok(),
                "verdicts differ on {text:?}: {new:?} vs {old:?}"
            );
            if Json::parse(text).is_ok() {
                // Without a syntax error the first structural error is
                // the same one, so the message is too.
                assert_eq!(new, old, "on {text:?}");
            }
            for name in ["page_fetch", "flow", "process_name", "x", "name"] {
                assert_eq!(
                    count_named(text, name),
                    reference::count_named(text, name),
                    "count_named({name:?}) on {text:?}"
                );
            }
        }
        let accepted = mutants.iter().filter(|t| validate_trace(t).is_ok()).count();
        assert!(
            accepted > 5 && accepted < mutants.len() / 2,
            "{accepted} accepted"
        );
    }
}
