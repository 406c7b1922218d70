//! Prometheus text-exposition rendering of a live probe [`Summary`].
//!
//! This is the read path behind `mec-serve`'s `GET /metrics` admin
//! endpoint: take one cumulative snapshot of the in-process registry
//! ([`crate::summary`], a single lock acquisition plus bounded clones)
//! and render it in [Prometheus exposition format, version 0.0.4]:
//!
//! * **counters** render as `# TYPE <name> counter` with the cumulative
//!   total;
//! * **histograms** (including span durations, which aggregate under
//!   their span name) render as `# TYPE <name> summary` — quantile
//!   series at 0.5 / 0.95 / 0.99 plus `_sum` and `_count`;
//! * labelled series of one histogram ([`crate::record_labelled`], named
//!   like `serve.publish.ns{shard="0"}`) render as one block under the
//!   probe's name, one series per label value, plus one unlabelled
//!   aggregate series merged *exactly*, bucket by bucket, from all of
//!   them.
//!
//! Every probe registered in [`crate::probes::REGISTRY`] with counter or
//! histogram/span kind appears in the output even before its first
//! emission (counters at 0, summaries with `_count 0`), so a scrape
//! always exposes the full inventory and dashboards can be built before
//! traffic arrives. Gauge-kind probes stream to the JSONL sink only and
//! are not part of the cumulative registry, so they do not appear here
//! (`serve.queue.depth` is available live on the `/shards` endpoint).
//!
//! Metric names are sanitized to the Prometheus grammar (every byte
//! outside `[a-zA-Z0-9_:]` becomes `_`, so `serve.publish.ns` exports
//! as `serve_publish_ns`). A label is rendered as recorded: a literal
//! label name and an integer value, which need no escaping.
//!
//! [Prometheus exposition format, version 0.0.4]:
//!     https://prometheus.io/docs/instrumenting/exposition_formats/

use std::collections::BTreeMap;

use crate::hist::Histogram;
use crate::probes::{self, ProbeKind};
use crate::{split_labels, Summary};

/// Quantiles exported per histogram/span probe.
const QUANTILES: &[(&str, f64)] = &[("0.5", 0.50), ("0.95", 0.95), ("0.99", 0.99)];

/// Renders `summary` as Prometheus exposition text (version 0.0.4).
///
/// Deterministic: output blocks are ordered by exported metric name, and
/// labelled series within a block by their label text. See the module
/// docs for the mapping rules.
///
/// # Examples
///
/// ```
/// let mut summary = mec_obs::Summary::default();
/// summary.counters.push(("serve.join.admitted".into(), 7));
/// let text = mec_obs::prom::render(&summary);
/// assert!(text.contains("# TYPE serve_join_admitted counter"));
/// assert!(text.contains("serve_join_admitted 7"));
/// ```
#[must_use]
pub fn render(summary: &Summary) -> String {
    // Start from the registry inventory (zero-filled), then overlay the
    // live snapshot. Unregistered names that show up live (doc examples)
    // are still exported.
    let mut counters: BTreeMap<String, u64> = BTreeMap::new();
    let mut hists: BTreeMap<String, Histogram> = BTreeMap::new();
    for p in probes::REGISTRY {
        match p.kind {
            ProbeKind::Counter => {
                counters.insert(p.name.to_string(), 0);
            }
            ProbeKind::Histogram | ProbeKind::Span => {
                hists.insert(p.name.to_string(), Histogram::new());
            }
            ProbeKind::Gauge => {} // sink-only; see module docs
        }
    }
    for (name, v) in &summary.counters {
        counters.insert(name.clone(), *v);
    }
    for (name, h) in &summary.hists {
        hists.insert(name.clone(), h.clone());
    }

    let mut out = String::new();
    for (name, v) in &counters {
        let metric = sanitize(name);
        header(&mut out, &metric, help_for(name), "counter");
        out.push_str(&format!("{metric} {v}\n"));
    }

    // Group the labelled series of a histogram under its name (`hists`
    // is sorted, so each block's series come in label order).
    let mut blocks: BTreeMap<&str, Vec<(Option<&str>, &Histogram)>> = BTreeMap::new();
    for (name, h) in &hists {
        let (base, labels) = split_labels(name);
        blocks.entry(base).or_default().push((labels, h));
    }
    for (base, series) in blocks {
        let metric = sanitize(base);
        header(&mut out, &metric, help_for(base), "summary");
        // The unlabelled series is the exact bucket-level merge of every
        // labelled series plus anything recorded under the bare name, so
        // one aggregate covers both without duplicate series.
        let mut merged = Histogram::new();
        for (labels, h) in &series {
            merged.merge(h);
            if labels.is_some() {
                write_summary_series(&mut out, &metric, *labels, h);
            }
        }
        write_summary_series(&mut out, &metric, None, &merged);
    }
    out
}

/// Writes the quantile / `_sum` / `_count` series of one histogram.
fn write_summary_series(out: &mut String, metric: &str, label: Option<&str>, h: &Histogram) {
    let with = |extra: &str| match (label, extra.is_empty()) {
        (None, true) => String::new(),
        (None, false) => format!("{{{extra}}}"),
        (Some(l), true) => format!("{{{l}}}"),
        (Some(l), false) => format!("{{{l},{extra}}}"),
    };
    if !h.is_empty() {
        for (q, v) in QUANTILES {
            out.push_str(&format!(
                "{metric}{} {}\n",
                with(&format!("quantile=\"{q}\"")),
                h.percentile(*v)
            ));
        }
    }
    out.push_str(&format!("{metric}_sum{} {}\n", with(""), h.sum()));
    out.push_str(&format!("{metric}_count{} {}\n", with(""), h.count()));
}

/// Writes the `# HELP` / `# TYPE` preamble of one metric block.
fn header(out: &mut String, metric: &str, help: &str, ty: &str) {
    out.push_str(&format!("# HELP {metric} {}\n", escape_help(help)));
    out.push_str(&format!("# TYPE {metric} {ty}\n"));
}

/// Registered help text for `name`, falling back for unregistered
/// (example-only) names.
fn help_for(name: &str) -> &'static str {
    probes::lookup(name)
        .map(|p| p.help)
        .unwrap_or("Probe not in mec_obs::probes::REGISTRY.")
}

/// Maps a probe name onto the Prometheus metric-name grammar
/// (`[a-zA-Z_:][a-zA-Z0-9_:]*`).
fn sanitize(name: &str) -> String {
    let mut out: String = name
        .chars()
        .map(|c| {
            if c.is_ascii_alphanumeric() || c == '_' || c == ':' {
                c
            } else {
                '_'
            }
        })
        .collect();
    if out
        .chars()
        .next()
        .is_none_or(|c| !(c.is_ascii_alphabetic() || c == '_' || c == ':'))
    {
        out.insert(0, '_');
    }
    out
}

/// Escapes `# HELP` text per the exposition format (`\\`, `\n`).
fn escape_help(text: &str) -> String {
    text.replace('\\', "\\\\").replace('\n', "\\n")
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> Summary {
        let mut s = Summary::default();
        s.counters.push(("serve.join.admitted".into(), 41));
        s.counters.push(("weird name/with chars".into(), 2));
        let mut h = Histogram::new();
        for v in [100u64, 200, 400, 800] {
            h.record(v);
        }
        let shard = |k| crate::labelled_name("serve.publish.ns", ("shard", k));
        s.hists.push((shard(0), h.clone()));
        let mut h1 = Histogram::new();
        h1.record(1_000_000);
        s.hists.push((shard(1), h1));
        s.hists.push(("serve.drain.batch".into(), h));
        s
    }

    #[test]
    fn counters_render_with_help_and_type() {
        let text = render(&sample());
        assert!(text.contains("# HELP serve_join_admitted Join requests admitted"));
        assert!(text.contains("# TYPE serve_join_admitted counter"));
        assert!(text.contains("serve_join_admitted 41"));
    }

    #[test]
    fn registered_probes_are_zero_filled() {
        let text = render(&Summary::default());
        // Never emitted, still inventoried.
        assert!(text.contains("serve_join_rejected 0"));
        assert!(text.contains("appro_total_sum 0"));
        assert!(text.contains("appro_total_count 0"));
        for p in probes::REGISTRY {
            if p.kind != ProbeKind::Gauge {
                let metric = sanitize(p.name);
                assert!(
                    text.contains(&format!("# TYPE {metric} ")),
                    "missing TYPE for {}",
                    p.name
                );
            }
        }
    }

    #[test]
    fn labelled_series_share_a_block_with_their_exact_aggregate() {
        let text = render(&sample());
        assert!(text.contains("serve_publish_ns_count{shard=\"0\"} 4"));
        assert!(text.contains("serve_publish_ns_count{shard=\"1\"} 1"));
        assert!(text.contains("serve_publish_ns{shard=\"0\",quantile=\"0.5\"}"));
        // Unlabelled aggregate merges every shard exactly: 4 + 1 samples.
        assert!(text.contains("serve_publish_ns_count 5"));
        assert!(text.contains(&format!(
            "serve_publish_ns_sum {}",
            100 + 200 + 400 + 800 + 1_000_000
        )));
    }

    #[test]
    fn empty_histograms_skip_quantiles_but_keep_sum_count() {
        let text = render(&Summary::default());
        assert!(text.contains("serve_drain_batch_count 0"));
        assert!(!text.contains("serve_drain_batch{quantile"));
    }

    #[test]
    fn names_are_sanitized_and_unregistered_names_still_export() {
        let text = render(&sample());
        assert!(text.contains("weird_name_with_chars 2"));
        assert!(text.contains("# HELP weird_name_with_chars Probe not in"));
    }

    #[test]
    fn every_line_is_well_formed() {
        let text = render(&sample());
        assert!(!text.is_empty());
        for line in text.lines() {
            assert!(
                line.starts_with("# HELP ")
                    || line.starts_with("# TYPE ")
                    || line
                        .split_whitespace()
                        .nth(1)
                        .is_some_and(|v| v.parse::<f64>().is_ok()),
                "malformed exposition line: {line}"
            );
        }
    }

    #[test]
    fn help_and_type_precede_samples_once_per_metric() {
        let text = render(&sample());
        let mut seen_type: Vec<&str> = Vec::new();
        for line in text.lines() {
            if let Some(rest) = line.strip_prefix("# TYPE ") {
                let name = rest.split_whitespace().next().unwrap();
                assert!(!seen_type.contains(&name), "duplicate TYPE for {name}");
                seen_type.push(name);
            }
        }
        assert!(seen_type.len() > 10);
    }

    #[test]
    fn sanitize_prefixes_names_that_cannot_start_a_metric() {
        assert_eq!(sanitize("9lives"), "_9lives");
        assert_eq!(sanitize(""), "_");
    }
}
