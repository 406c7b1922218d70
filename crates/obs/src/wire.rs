//! The JSONL wire format for observability events.
//!
//! Every event is one JSON object per line. The encoder and the parser are
//! hand-rolled, with no serialization framework, and always compiled —
//! `obsreport` must be able to read traces regardless of whether the
//! reading binary was built with the `enabled` feature. The escaping and number rules live in the shared
//! [`crate::json`] module (one home for every JSONL format in the
//! workspace, including the `mec-serve` protocol), so the format
//! round-trips exactly: lossless `u64`, shortest round-trip `f64` with
//! `"NaN"`/`"inf"`/`"-inf"` spellings, JSON-escaped Unicode names.
//!
//! Line shapes:
//!
//! ```text
//! {"type":"span","name":"appro.merge","start_ns":12034,"dur_ns":88211}
//! {"type":"counter","name":"core.dynamics.moves_applied","value":4181}
//! {"type":"gauge","name":"core.dynamics.potential","seq":3,"value":10571.25}
//! {"type":"hist","name":"sim.request_latency_us","count":5000,"p50":181,"p95":402,"p99":640,"max":1201}
//! ```

use crate::json;

/// Parse failure for one trace line (shared with every JSONL format in
/// the workspace — see [`crate::json`]).
pub use crate::json::ParseError;

/// One observability event, as written to / read from a JSONL trace.
///
/// # Examples
///
/// ```
/// use mec_obs::wire::{encode, parse, Event};
///
/// let ev = Event::Counter { name: "core.dynamics.moves_applied".into(), value: 4181 };
/// let line = encode(&ev);
/// assert_eq!(line, r#"{"type":"counter","name":"core.dynamics.moves_applied","value":4181}"#);
/// assert_eq!(parse(&line).unwrap(), ev);
/// ```
#[derive(Clone, Debug, PartialEq)]
pub enum Event {
    /// A completed timed section. `start_ns` is relative to an arbitrary
    /// per-process origin; `dur_ns` is the wall-clock duration.
    Span {
        /// Span name, e.g. `appro.gap_solve`.
        name: String,
        /// Start offset in nanoseconds since the process trace origin.
        start_ns: u64,
        /// Duration in nanoseconds.
        dur_ns: u64,
    },
    /// A monotonic counter snapshot (cumulative total at emission time).
    Counter {
        /// Counter name, e.g. `core.dynamics.moves_applied`.
        name: String,
        /// Cumulative value.
        value: u64,
    },
    /// A sampled scalar in a series, e.g. the potential function per round.
    Gauge {
        /// Gauge name, e.g. `core.dynamics.potential`.
        name: String,
        /// Sample index within the series (round number, event count, ...).
        seq: u64,
        /// Sampled value.
        value: f64,
    },
    /// A histogram snapshot (cumulative at emission time). Quantiles carry
    /// the bucketing error of [`crate::Histogram`]; `max` is exact.
    Hist {
        /// Histogram name; by convention the suffix names the unit.
        name: String,
        /// Number of recorded values.
        count: u64,
        /// Median.
        p50: u64,
        /// 95th percentile.
        p95: u64,
        /// 99th percentile.
        p99: u64,
        /// Exact maximum.
        max: u64,
    },
}

/// Encodes an event as one JSON line (no trailing newline).
pub fn encode(ev: &Event) -> String {
    let mut s = String::with_capacity(64);
    match ev {
        Event::Span {
            name,
            start_ns,
            dur_ns,
        } => {
            s.push_str("{\"type\":\"span\",\"name\":");
            json::push_string(&mut s, name);
            s.push_str(&format!(",\"start_ns\":{start_ns},\"dur_ns\":{dur_ns}}}"));
        }
        Event::Counter { name, value } => {
            s.push_str("{\"type\":\"counter\",\"name\":");
            json::push_string(&mut s, name);
            s.push_str(&format!(",\"value\":{value}}}"));
        }
        Event::Gauge { name, seq, value } => {
            s.push_str("{\"type\":\"gauge\",\"name\":");
            json::push_string(&mut s, name);
            s.push_str(&format!(",\"seq\":{seq},\"value\":"));
            json::push_f64(&mut s, *value);
            s.push('}');
        }
        Event::Hist {
            name,
            count,
            p50,
            p95,
            p99,
            max,
        } => {
            s.push_str("{\"type\":\"hist\",\"name\":");
            json::push_string(&mut s, name);
            s.push_str(&format!(
                ",\"count\":{count},\"p50\":{p50},\"p95\":{p95},\"p99\":{p99},\"max\":{max}}}"
            ));
        }
    }
    s
}

/// Parses one JSONL line back into an [`Event`].
pub fn parse(line: &str) -> Result<Event, ParseError> {
    let fields = json::parse_object(line)?;
    let ty = json::get_str(&fields, "type")?;
    let name = json::get_str(&fields, "name")?.to_string();
    match ty {
        "span" => Ok(Event::Span {
            name,
            start_ns: json::get_u64(&fields, "start_ns")?,
            dur_ns: json::get_u64(&fields, "dur_ns")?,
        }),
        "counter" => Ok(Event::Counter {
            name,
            value: json::get_u64(&fields, "value")?,
        }),
        "gauge" => Ok(Event::Gauge {
            name,
            seq: json::get_u64(&fields, "seq")?,
            value: json::get_f64(&fields, "value")?,
        }),
        "hist" => Ok(Event::Hist {
            name,
            count: json::get_u64(&fields, "count")?,
            p50: json::get_u64(&fields, "p50")?,
            p95: json::get_u64(&fields, "p95")?,
            p99: json::get_u64(&fields, "p99")?,
            max: json::get_u64(&fields, "max")?,
        }),
        other => Err(ParseError::new(format!("unknown event type `{other}`"))),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn spans_and_hists_round_trip() {
        let evs = [
            Event::Span {
                name: "a.b".into(),
                start_ns: 0,
                dur_ns: u64::MAX,
            },
            Event::Hist {
                name: "h".into(),
                count: 5,
                p50: 1,
                p95: 2,
                p99: 3,
                max: u64::MAX,
            },
        ];
        for ev in evs {
            assert_eq!(parse(&encode(&ev)).unwrap(), ev);
        }
    }

    #[test]
    fn tricky_names_round_trip() {
        for name in [
            "",
            "q\"uo\\te",
            "new\nline\ttab",
            "\u{1}ctl",
            "uni\u{1F600}€",
        ] {
            let ev = Event::Counter {
                name: name.into(),
                value: 1,
            };
            assert_eq!(parse(&encode(&ev)).unwrap(), ev);
        }
    }

    #[test]
    fn non_finite_gauges_round_trip() {
        for v in [f64::NAN, f64::INFINITY, f64::NEG_INFINITY] {
            let ev = Event::Gauge {
                name: "g".into(),
                seq: 0,
                value: v,
            };
            match parse(&encode(&ev)).unwrap() {
                Event::Gauge { value, .. } => {
                    if v.is_nan() {
                        assert!(value.is_nan());
                    } else {
                        assert_eq!(value.to_bits(), v.to_bits(), "v={v}");
                    }
                }
                other => panic!("wrong variant: {other:?}"),
            }
        }
    }

    #[test]
    fn malformed_lines_error() {
        for line in [
            "",
            "{",
            "not json",
            r#"{"type":"span"}"#,
            r#"{"type":"mystery","name":"x"}"#,
            r#"{"type":"counter","name":"x","value":"oops"}"#,
            r#"{"type":"counter","name":"x","value":1} extra"#,
        ] {
            assert!(parse(line).is_err(), "line `{line}` should not parse");
        }
    }
}
