//! Zero-cost-when-disabled observability for the MEC service-caching
//! workspace: monotonic counters, HDR-style histograms, RAII span timers
//! and a structured JSONL event sink.
//!
//! The crate has **no dependencies** and two personalities selected by the
//! `enabled` cargo feature:
//!
//! * **off (default)** — every probe ([`counter_add`], [`span`], [`gauge`],
//!   [`record`], [`record_labelled`], ...) is an empty inlineable
//!   function, [`Span`] is a zero-sized type and no global state is
//!   linked. Instrumented code calls the probes unconditionally; the
//!   optimizer removes them.
//! * **on** — probes aggregate into a process-wide registry (counters and
//!   [`Histogram`]s) and, when a sink is installed with [`install_file`] or
//!   [`install_writer`], stream [`wire::Event`]s as JSON lines. [`flush`]
//!   emits cumulative counter/histogram snapshots and flushes the sink.
//!
//! Downstream crates depend on `mec-obs` unconditionally and forward an
//! `obs` feature to `mec-obs/enabled` (the same pattern as the workspace's
//! `verify` chain), so a single `--features obs` at the top level arms
//! every layer at once.
//!
//! The [`wire`] (JSONL encode/parse), [`hist`], [`report`] and [`prom`]
//! (Prometheus exposition) modules are always compiled regardless of the
//! feature, so the `obsreport` binary can summarize traces no matter how
//! it was built. [`probes`] carries the authoritative probe registry with
//! per-probe descriptions; `docs/METRICS.md` is generated from it.
//!
//! # Examples
//!
//! Instrumenting code (identical source for both feature states):
//!
//! ```
//! // Count work as it happens; time a section with an RAII guard.
//! mec_obs::counter_add("demo.items", 3);
//! {
//!     let _timer = mec_obs::span("demo.phase");
//!     // ... the timed section ...
//! } // guard drop records the duration
//! mec_obs::gauge("demo.progress", 0, 0.5);
//! ```
//!
//! The [`obs_span!`] / [`obs_counter!`] macros are shorthand for the same
//! calls:
//!
//! ```
//! use mec_obs::{obs_counter, obs_span};
//!
//! fn solve() -> u64 {
//!     obs_span!("demo.solve"); // times the rest of this scope
//!     obs_counter!("demo.solves", 1);
//!     42
//! }
//! assert_eq!(solve(), 42);
//! ```
//!
//! Capturing a trace (only does anything when built with `enabled`):
//!
//! ```no_run
//! mec_obs::install_file(std::path::Path::new("trace.jsonl")).unwrap();
//! // ... run the instrumented workload ...
//! mec_obs::flush(); // emit counter/histogram snapshots, flush the file
//! ```
//!
//! and summarize it with `obsreport trace.jsonl`.

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod hist;
pub mod json;
pub mod probes;
pub mod prom;
pub mod report;
pub mod wire;

pub use hist::Histogram;
pub use report::Report;
pub use wire::Event;

/// Snapshot of the in-process registry: cumulative counters and
/// histograms, sorted by name. Always empty when the `enabled` feature is
/// off.
#[derive(Clone, Debug, Default)]
pub struct Summary {
    /// `(name, cumulative value)` per counter.
    pub counters: Vec<(String, u64)>,
    /// `(name, histogram)` per recorded distribution (includes span
    /// durations under their span name). A labelled series is named by
    /// [`labelled_name`], e.g. `serve.publish.ns{shard="0"}`.
    pub hists: Vec<(String, Histogram)>,
}

impl Summary {
    /// Looks up a counter total by name.
    pub fn counter(&self, name: &str) -> Option<u64> {
        self.counters
            .iter()
            .find(|(n, _)| n == name)
            .map(|&(_, v)| v)
    }

    /// Looks up a histogram by name.
    pub fn hist(&self, name: &str) -> Option<&Histogram> {
        self.hists.iter().find(|(n, _)| n == name).map(|(_, h)| h)
    }
}

/// The name of the histogram series `base` labelled `key="value"` (see
/// [`record_labelled`]): `base{key="value"}`, the label written the way
/// Prometheus writes it.
///
/// ```
/// assert_eq!(
///     mec_obs::labelled_name("serve.publish.ns", ("shard", 1)),
///     r#"serve.publish.ns{shard="1"}"#
/// );
/// ```
#[must_use]
pub fn labelled_name(base: &str, (key, value): (&str, usize)) -> String {
    format!("{base}{{{key}=\"{value}\"}}")
}

/// Splits a series name into its probe name and its label text, the
/// inverse of [`labelled_name`]: `serve.publish.ns{shard="1"}` →
/// `("serve.publish.ns", Some("shard=\"1\""))`; an unlabelled name has
/// no label text.
#[must_use]
pub fn split_labels(name: &str) -> (&str, Option<&str>) {
    match name.split_once('{') {
        Some((base, rest)) => (base, Some(rest.strip_suffix('}').unwrap_or(rest))),
        None => (name, None),
    }
}

/// Times the rest of the enclosing scope under `$name`.
///
/// Expands to a `let` binding of a [`Span`] guard, so the duration runs to
/// the end of the current block.
#[macro_export]
macro_rules! obs_span {
    ($name:expr) => {
        let _obs_span_guard = $crate::span($name);
    };
}

/// Adds `$delta` to the monotonic counter `$name`.
#[macro_export]
macro_rules! obs_counter {
    ($name:expr, $delta:expr) => {
        $crate::counter_add($name, $delta)
    };
}

#[cfg(feature = "enabled")]
mod active;
#[cfg(feature = "enabled")]
pub use active::{
    counter_add, enabled, flush, gauge, install_file, install_writer, record, record_labelled,
    record_many, reset, reset_histograms, shutdown, sink_installed, span, summary, Span,
};

#[cfg(not(feature = "enabled"))]
mod noop;
#[cfg(not(feature = "enabled"))]
pub use noop::{
    counter_add, enabled, flush, gauge, install_file, install_writer, record, record_labelled,
    record_many, reset, reset_histograms, shutdown, sink_installed, span, summary, Span,
};
