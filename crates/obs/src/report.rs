//! Folding a JSONL event stream into a human-readable summary.
//!
//! [`Report`] is the aggregation behind the `obsreport` binary: feed it
//! events (parsed with [`crate::wire::parse`]) and render it with
//! `Display`. Aggregation rules per event kind:
//!
//! * **span** — every event is one timed occurrence; durations are folded
//!   into a per-name [`Histogram`] and reported as count / p50 / p95 / p99 /
//!   max / total. Span durations are nanoseconds by convention and are
//!   printed human-scaled (`1.23ms`).
//! * **counter** / **hist** — these lines are *cumulative snapshots*
//!   (emitted by `flush()`), so the last line per name wins. Each
//!   labelled series of a histogram (`serve.publish.ns{shard="0"}`) is a
//!   row of its own: a snapshot carries percentiles, not buckets, so the
//!   rows cannot be merged exactly (the live `/metrics` page renders the
//!   exact merge).
//! * **gauge** — a sampled series; reported as count / first / last /
//!   min / max.

use std::collections::BTreeMap;
use std::fmt;
use std::io::BufRead;

use crate::hist::Histogram;
use crate::split_labels;
use crate::wire::{parse, Event};

/// Snapshot statistics carried by a `hist` wire event.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct HistSnapshot {
    /// Number of recorded values.
    pub count: u64,
    /// Median.
    pub p50: u64,
    /// 95th percentile.
    pub p95: u64,
    /// 99th percentile.
    pub p99: u64,
    /// Exact maximum.
    pub max: u64,
}

/// Summary of one gauge series.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct GaugeSeries {
    /// Number of samples seen.
    pub count: u64,
    /// First sampled value.
    pub first: f64,
    /// Last sampled value.
    pub last: f64,
    /// Smallest sampled value (NaN samples are ignored for min/max).
    pub min: f64,
    /// Largest sampled value.
    pub max: f64,
}

/// Aggregated view of an event stream.
///
/// # Examples
///
/// ```
/// use mec_obs::report::Report;
/// use mec_obs::wire::Event;
///
/// let mut report = Report::new();
/// for dur in [100u64, 200, 900] {
///     report.add(Event::Span { name: "phase".into(), start_ns: 0, dur_ns: dur });
/// }
/// report.add(Event::Counter { name: "moves".into(), value: 42 });
/// assert_eq!(report.counters["moves"], 42);
/// assert_eq!(report.spans["phase"].count(), 3);
/// println!("{report}");
/// ```
#[derive(Clone, Debug, Default)]
pub struct Report {
    /// Per-span duration histograms (nanoseconds).
    pub spans: BTreeMap<String, Histogram>,
    /// Final cumulative value per counter.
    pub counters: BTreeMap<String, u64>,
    /// Per-gauge series summaries.
    pub gauges: BTreeMap<String, GaugeSeries>,
    /// Final snapshot per named histogram.
    pub hists: BTreeMap<String, HistSnapshot>,
    /// Events folded in.
    pub events: usize,
    /// Malformed lines skipped by [`Report::from_lines`].
    pub skipped: usize,
}

impl Report {
    /// Creates an empty report.
    pub fn new() -> Self {
        Report::default()
    }

    /// Folds one event into the report.
    pub fn add(&mut self, ev: Event) {
        self.events += 1;
        match ev {
            Event::Span { name, dur_ns, .. } => {
                self.spans.entry(name).or_default().record(dur_ns);
            }
            Event::Counter { name, value } => {
                self.counters.insert(name, value);
            }
            Event::Gauge { name, value, .. } => {
                let g = self.gauges.entry(name).or_insert(GaugeSeries {
                    count: 0,
                    first: value,
                    last: value,
                    min: f64::INFINITY,
                    max: f64::NEG_INFINITY,
                });
                g.count += 1;
                g.last = value;
                if value < g.min {
                    g.min = value;
                }
                if value > g.max {
                    g.max = value;
                }
            }
            Event::Hist {
                name,
                count,
                p50,
                p95,
                p99,
                max,
            } => {
                self.hists.insert(
                    name,
                    HistSnapshot {
                        count,
                        p50,
                        p95,
                        p99,
                        max,
                    },
                );
            }
        }
    }

    /// Reads a JSONL stream line by line, folding every parsable event and
    /// counting (not failing on) malformed lines. Blank lines are ignored.
    pub fn from_lines(reader: impl BufRead) -> std::io::Result<Report> {
        let mut report = Report::new();
        for line in reader.lines() {
            let line = line?;
            if line.trim().is_empty() {
                continue;
            }
            match parse(&line) {
                Ok(ev) => report.add(ev),
                Err(_) => report.skipped += 1,
            }
        }
        Ok(report)
    }
}

/// Renders a nanosecond quantity with a human-friendly unit.
pub fn fmt_ns(ns: u64) -> String {
    if ns < 1_000 {
        format!("{ns}ns")
    } else if ns < 1_000_000 {
        format!("{:.1}us", ns as f64 / 1e3)
    } else if ns < 1_000_000_000 {
        format!("{:.2}ms", ns as f64 / 1e6)
    } else {
        format!("{:.3}s", ns as f64 / 1e9)
    }
}

fn fmt_f64(v: f64) -> String {
    // lint: allow(float-cmp) — exact-zero display formatting guard.
    if v.is_finite() && v.abs() < 1e7 && (v.abs() >= 1e-3 || v == 0.0) {
        format!("{v:.3}")
    } else {
        format!("{v:.3e}")
    }
}

impl fmt::Display for Report {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(
            f,
            "events: {}{}",
            self.events,
            if self.skipped > 0 {
                format!(" ({} malformed line(s) skipped)", self.skipped)
            } else {
                String::new()
            }
        )?;
        if !self.spans.is_empty() {
            writeln!(
                f,
                "\n{:<32} {:>8} {:>10} {:>10} {:>10} {:>10} {:>10}",
                "span", "count", "p50", "p95", "p99", "max", "total"
            )?;
            for (name, h) in &self.spans {
                writeln!(
                    f,
                    "{:<32} {:>8} {:>10} {:>10} {:>10} {:>10} {:>10}",
                    name,
                    h.count(),
                    fmt_ns(h.percentile(0.50)),
                    fmt_ns(h.percentile(0.95)),
                    fmt_ns(h.percentile(0.99)),
                    fmt_ns(h.max()),
                    fmt_ns(h.sum().min(u64::MAX as u128) as u64),
                )?;
            }
        }
        if !self.counters.is_empty() {
            writeln!(f, "\n{:<32} {:>12}", "counter", "total")?;
            for (name, v) in &self.counters {
                writeln!(f, "{name:<32} {v:>12}")?;
            }
        }
        if !self.gauges.is_empty() {
            writeln!(
                f,
                "\n{:<32} {:>8} {:>12} {:>12} {:>12} {:>12}",
                "gauge", "count", "first", "last", "min", "max"
            )?;
            for (name, g) in &self.gauges {
                writeln!(
                    f,
                    "{:<32} {:>8} {:>12} {:>12} {:>12} {:>12}",
                    name,
                    g.count,
                    fmt_f64(g.first),
                    fmt_f64(g.last),
                    fmt_f64(g.min),
                    fmt_f64(g.max),
                )?;
            }
        }
        // Span durations are re-emitted as cumulative `hist` snapshots at
        // flush time; the span section above already covers those names
        // from the richer per-event data, so only show the rest.
        let hist_rows: Vec<_> = self
            .hists
            .iter()
            .filter(|(name, _)| !self.spans.contains_key(*name))
            .collect();
        if !hist_rows.is_empty() {
            writeln!(
                f,
                "\n{:<32} {:>8} {:>10} {:>10} {:>10} {:>10}",
                "histogram", "count", "p50", "p95", "p99", "max"
            )?;
            for (name, h) in hist_rows {
                // A `.ns` suffix on the probe name marks nanosecond-valued
                // histograms (e.g. `serve.publish.ns{shard="0"}`); scale
                // those like span durations so the summary reads in ms/us,
                // not ten-digit raw counts.
                let ns = split_labels(name).0.ends_with(".ns");
                let cell = |v: u64| {
                    if ns {
                        fmt_ns(v)
                    } else {
                        v.to_string()
                    }
                };
                writeln!(
                    f,
                    "{:<32} {:>8} {:>10} {:>10} {:>10} {:>10}",
                    name,
                    h.count,
                    cell(h.p50),
                    cell(h.p95),
                    cell(h.p99),
                    cell(h.max)
                )?;
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counters_take_last_snapshot() {
        let mut r = Report::new();
        r.add(Event::Counter {
            name: "c".into(),
            value: 10,
        });
        r.add(Event::Counter {
            name: "c".into(),
            value: 25,
        });
        assert_eq!(r.counters["c"], 25);
        assert_eq!(r.events, 2);
    }

    #[test]
    fn gauge_series_tracks_first_last_min_max() {
        let mut r = Report::new();
        for (seq, v) in [(0u64, 5.0f64), (1, -2.0), (2, 3.0)] {
            r.add(Event::Gauge {
                name: "g".into(),
                seq,
                value: v,
            });
        }
        let g = r.gauges["g"];
        assert_eq!(g.count, 3);
        assert!((g.first - 5.0).abs() < 1e-12);
        assert!((g.last - 3.0).abs() < 1e-12);
        assert!((g.min - (-2.0)).abs() < 1e-12);
        assert!((g.max - 5.0).abs() < 1e-12);
    }

    #[test]
    fn from_lines_skips_malformed() {
        let input = "\n{\"type\":\"counter\",\"name\":\"c\",\"value\":1}\nnot json\n";
        let r = Report::from_lines(input.as_bytes()).unwrap();
        assert_eq!(r.events, 1);
        assert_eq!(r.skipped, 1);
    }

    #[test]
    fn display_renders_all_sections() {
        let mut r = Report::new();
        r.add(Event::Span {
            name: "s".into(),
            start_ns: 0,
            dur_ns: 1_500_000,
        });
        r.add(Event::Counter {
            name: "c".into(),
            value: 7,
        });
        r.add(Event::Gauge {
            name: "g".into(),
            seq: 0,
            value: 1.25,
        });
        r.add(Event::Hist {
            name: "h".into(),
            count: 3,
            p50: 1,
            p95: 2,
            p99: 2,
            max: 9,
        });
        let text = format!("{r}");
        for needle in ["span", "counter", "gauge", "histogram", "1.50ms"] {
            assert!(text.contains(needle), "missing `{needle}` in:\n{text}");
        }
    }

    #[test]
    fn ns_suffixed_histograms_render_human_scaled() {
        let mut r = Report::new();
        r.add(Event::Hist {
            name: "serve.publish.ns".into(),
            count: 10,
            p50: 2_500,
            p95: 40_000,
            p99: 1_200_000,
            max: 3_000_000_000,
        });
        r.add(Event::Hist {
            name: "serve.drain.batch".into(),
            count: 10,
            p50: 12,
            p95: 64,
            p99: 128,
            max: 256,
        });
        let text = format!("{r}");
        for needle in ["2.5us", "40.0us", "1.20ms", "3.000s"] {
            assert!(text.contains(needle), "missing `{needle}` in:\n{text}");
        }
        // Unitless histograms stay raw.
        assert!(text.contains("256"), "raw max missing in:\n{text}");
    }

    #[test]
    fn labelled_series_are_one_row_each_scaled_by_their_unit() {
        let mut r = Report::new();
        for (k, p50) in [(0usize, 1_000u64), (1, 5_000)] {
            r.add(Event::Hist {
                name: crate::labelled_name("serve.publish.ns", ("shard", k)),
                count: 10,
                p50,
                p95: p50 * 2,
                p99: p50 * 3,
                max: p50 * 4,
            });
        }
        let text = format!("{r}");
        let rows: Vec<&str> = text
            .lines()
            .filter(|l| l.starts_with("serve.publish.ns"))
            .collect();
        assert_eq!(rows.len(), 2, "one row per shard in:\n{text}");
        assert!(rows[0].starts_with("serve.publish.ns{shard=\"0\"}") && rows[0].contains("1.0us"));
        assert!(rows[1].starts_with("serve.publish.ns{shard=\"1\"}") && rows[1].contains("20.0us"));
    }
}
