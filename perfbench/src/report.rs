//! Metric names, the result line, the results log and the span file.

use std::fmt::Write as _;
use std::io::Write as _;
use std::path::Path;

/// The end-to-end metrics, `(name, unit)`, reported by untraced runs.
/// Write latencies and both p99s are printed by every run too, but on a
/// shared host they follow the host's load (see NOTES.md), so they are
/// traced-run metrics without a bound.
pub const END_TO_END: &[(&str, &str)] = &[
    ("read_p50_ms", "ms"),
    ("hit_ratio", "ratio"),
    ("social_cost", "cost"),
    ("solve_s", "s"),
    ("setup_s", "s"),
    ("peak_rss_mb", "MiB"),
    ("cpu_us_per_op", "us"),
];

/// The per-layer metrics, `(name, unit)`, reported by traced runs. A
/// layer a workload does not reach reads 0.
pub const PER_LAYER: &[(&str, &str)] = &[
    ("gen.late_p99_ms", "ms"),
    ("gen.cpu_s", "s"),
    ("client.encode_us", "us"),
    ("client.write_us", "us"),
    ("client.decode_us", "us"),
    ("proto.parse_request_ns", "ns"),
    ("proto.encode_response_ns", "ns"),
    ("proto.bytes_per_op", "bytes"),
    ("client.wait_ms_p50", "ms"),
    ("client.wait_ms_p99", "ms"),
    ("write_p50_ms", "ms"),
    ("write_p99_ms", "ms"),
    ("read_p99_ms", "ms"),
    ("market.batch_mean", "count"),
    ("market.depth_p99", "count"),
    ("market.publish_us_p50", "us"),
    ("market.publish_us_p99", "us"),
    ("market.publishes_per_write", "ratio"),
    ("market.quanta_per_write", "ratio"),
    ("market.moves_per_quantum", "ratio"),
    ("market.admit_ratio", "ratio"),
    ("market.evictions", "count"),
    ("market.drain_us_per_write", "us"),
    ("shard.routed_ratio", "ratio"),
    ("shard.migrations", "count"),
    ("shard.write_skew", "ratio"),
    ("shard.nash_gap", "cost"),
    ("demand.recaches", "count"),
    ("appro.pricing_ms", "ms"),
    ("appro.repair_ms", "ms"),
    ("appro.polish_ms", "ms"),
    ("core.dynamics_ms", "ms"),
    ("core.local_search.moves", "count"),
    ("gap.lp_relax_s", "s"),
    ("gap.round_ms", "ms"),
    ("gap.rounding_slots", "count"),
    ("setup.market_s", "s"),
    ("setup.boot_s", "s"),
    ("setup.warm_s", "s"),
];

/// One benchmark span: a timed call into a layer, in nanoseconds since
/// the run's origin. `parent` and `request` are 0 when not applicable;
/// request ids start at 1.
#[derive(Debug, Clone, Copy)]
pub struct Span {
    /// What was timed.
    pub name: &'static str,
    /// Start.
    pub start: u64,
    /// End.
    pub end: u64,
    /// Id of the enclosing span (a request's id for its child spans).
    pub parent: u64,
    /// Request the span belongs to.
    pub request: u64,
}

/// Everything a run measured and checked.
#[derive(Debug, Default)]
pub struct Report {
    /// `(name, value, sample count)`; units come from the name tables.
    pub metrics: Vec<(&'static str, f64, Option<usize>)>,
    /// Failed output checks; any entry makes the run incorrect.
    pub failures: Vec<String>,
    /// Requests (or solves) attempted.
    pub attempted: u64,
    /// Of those, failed.
    pub failed: u64,
    /// The benchmark's own spans (traced runs).
    pub spans: Vec<Span>,
    /// Free-form lines printed with the metrics.
    pub notes: Vec<String>,
}

impl Report {
    /// Records a metric.
    pub fn set(&mut self, name: &'static str, value: f64) {
        self.metrics.push((name, value, None));
    }

    /// Records a metric computed from `samples` raw samples.
    pub fn set_n(&mut self, name: &'static str, value: f64, samples: usize) {
        self.metrics.push((name, value, Some(samples)));
    }

    /// Adds a line to print with the metrics.
    pub fn note(&mut self, line: String) {
        self.notes.push(line);
    }

    /// Records a failed check.
    pub fn fail(&mut self, why: String) {
        self.failures.push(why);
    }

    fn value(&self, name: &str) -> Option<f64> {
        self.metrics.iter().rev().find(|m| m.0 == name).map(|m| m.1)
    }

    /// The metrics of `table` with their units; missing ones read 0.
    pub fn table(
        &self,
        table: &[(&'static str, &'static str)],
    ) -> Vec<(&'static str, f64, &'static str)> {
        table
            .iter()
            .map(|&(n, u)| (n, self.value(n).unwrap_or(0.0), u))
            .collect()
    }

    /// Human-readable lines: every recorded metric with unit and sample
    /// count.
    pub fn lines(&self) -> Vec<String> {
        let unit = |n: &str| {
            END_TO_END
                .iter()
                .chain(PER_LAYER)
                .find(|(m, _)| *m == n)
                .map_or("", |(_, u)| *u)
        };
        self.metrics
            .iter()
            .map(|&(n, v, k)| match k {
                Some(k) => format!("  {n:<28} {v:>14.6} {:<6} (n={k})", unit(n)),
                None => format!("  {n:<28} {v:>14.6} {}", unit(n)),
            })
            .collect()
    }
}

/// The result line: `correct`, `attempted`, `failed` and the metrics of
/// `table`.
pub fn result_json(report: &Report, table: &[(&'static str, &'static str)]) -> String {
    let mut s = format!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{",
        report.failures.is_empty(),
        report.attempted.max(1),
        report.failed
    );
    for (k, (name, value, unit)) in report.table(table).iter().enumerate() {
        if k > 0 {
            s.push_str(", ");
        }
        let _ = write!(
            s,
            "\"{name}\": {{\"value\": {}, \"unit\": \"{unit}\"}}",
            num(*value)
        );
    }
    s.push_str("}}");
    s
}

/// A JSON number with all its digits. A non-finite value is written as
/// 0; `main` fails the run on it.
fn num(v: f64) -> String {
    if v.is_finite() {
        format!("{v:?}")
    } else {
        "0".to_string()
    }
}

/// Appends one provenance-stamped row to `<dir>/results.jsonl`.
///
/// # Errors
///
/// File-system errors.
pub fn append_row(dir: &Path, provenance: &[(&str, String)], json: &str) -> std::io::Result<()> {
    std::fs::create_dir_all(dir)?;
    let mut row = String::from("{");
    for (k, v) in provenance {
        let _ = write!(row, "\"{k}\": \"{v}\", ");
    }
    let _ = write!(row, "\"result\": {json}}}");
    let mut f = std::fs::OpenOptions::new()
        .create(true)
        .append(true)
        .open(dir.join("results.jsonl"))?;
    writeln!(f, "{row}")
}

/// Writes the spans as CSV (`name,start_ns,end_ns,parent,request`).
///
/// # Errors
///
/// File-system errors.
pub fn write_spans(path: &Path, spans: &[Span]) -> std::io::Result<()> {
    if let Some(dir) = path.parent() {
        std::fs::create_dir_all(dir)?;
    }
    let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
    writeln!(out, "name,start_ns,end_ns,parent,request")?;
    for s in spans {
        writeln!(
            out,
            "{},{},{},{},{}",
            s.name, s.start, s.end, s.parent, s.request
        )?;
    }
    out.flush()
}
