//! Live probe implementations compiled when the `enabled` feature is on.
//!
//! All state lives in one process-wide registry behind a `Mutex`: counters,
//! histograms (span durations are recorded under their span name; a
//! labelled series is keyed by its name and its one `(label, value)` pair,
//! so recording into it formats nothing) and the optional JSONL sink.
//! Probes take the lock once per call; hot loops should batch with
//! [`record_many`] / one [`counter_add`] per phase, which is how the
//! workspace's instrumentation sites are written.

use std::collections::BTreeMap;
use std::fs::File;
use std::io::{self, BufWriter, Write};
use std::path::Path;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Mutex, MutexGuard, OnceLock};
use std::time::Instant;

use crate::hist::Histogram;
use crate::wire::{encode, Event};
use crate::{labelled_name, Summary};

/// A histogram series: its probe name and, for a labelled series, its
/// `(label, value)` pair.
type Series = (&'static str, Option<(&'static str, usize)>);

/// The name a series carries in a [`Summary`] and on the wire.
fn series_name(&(name, label): &Series) -> String {
    label.map_or_else(|| name.to_string(), |l| labelled_name(name, l))
}

struct Registry {
    counters: BTreeMap<&'static str, u64>,
    hists: BTreeMap<Series, Histogram>,
    sink: Option<Box<dyn Write + Send>>,
}

/// Fast path for "is anyone listening" checks; mirrors `sink.is_some()`.
static SINK_ON: AtomicBool = AtomicBool::new(false);

fn registry() -> MutexGuard<'static, Registry> {
    static REGISTRY: OnceLock<Mutex<Registry>> = OnceLock::new();
    REGISTRY
        .get_or_init(|| {
            Mutex::new(Registry {
                counters: BTreeMap::new(),
                hists: BTreeMap::new(),
                sink: None,
            })
        })
        .lock()
        // A probe that panicked mid-update can at worst leave a partially
        // bumped counter; keep observing rather than poisoning all probes.
        .unwrap_or_else(|poisoned| poisoned.into_inner())
}

/// Trace time origin; all span `start_ns` offsets are relative to this.
fn origin() -> Instant {
    static ORIGIN: OnceLock<Instant> = OnceLock::new();
    *ORIGIN.get_or_init(Instant::now)
}

fn emit(reg: &mut Registry, ev: &Event) {
    if let Some(sink) = reg.sink.as_mut() {
        let mut line = encode(ev);
        line.push('\n');
        if sink.write_all(line.as_bytes()).is_err() {
            // A broken sink (full disk, closed pipe) must not take the
            // workload down; drop it and keep aggregating in-process.
            reg.sink = None;
            SINK_ON.store(false, Ordering::Release);
        }
    }
}

/// Whether this build carries live instrumentation. Always `true` here;
/// `const` so call sites can be folded away at compile time.
#[inline(always)]
pub const fn enabled() -> bool {
    true
}

/// Whether a JSONL sink is currently installed. Cheap (one atomic load);
/// use it to gate instrumentation whose *inputs* are expensive to compute,
/// e.g. evaluating the potential function once per round.
#[inline]
pub fn sink_installed() -> bool {
    SINK_ON.load(Ordering::Acquire)
}

/// Installs a JSONL sink writing to the file at `path` (truncating it).
/// Replaces any previously installed sink without flushing it.
pub fn install_file(path: &Path) -> io::Result<()> {
    let file = File::create(path)?;
    install_writer(Box::new(BufWriter::new(file)));
    Ok(())
}

/// Installs a JSONL sink writing to an arbitrary writer (tests use an
/// in-memory buffer). Replaces any previously installed sink.
pub fn install_writer(writer: Box<dyn Write + Send>) {
    origin(); // pin the trace time origin no later than the first event
    let mut reg = registry();
    reg.sink = Some(writer);
    SINK_ON.store(true, Ordering::Release);
}

/// Flushes snapshots ([`flush`]) and removes the sink.
pub fn shutdown() {
    let mut reg = registry();
    flush_locked(&mut reg);
    reg.sink = None;
    SINK_ON.store(false, Ordering::Release);
}

/// Adds `delta` to the monotonic counter `name`.
pub fn counter_add(name: &'static str, delta: u64) {
    let mut reg = registry();
    *reg.counters.entry(name).or_insert(0) += delta;
}

/// Samples the gauge series `name` at index `seq`. Gauges stream straight
/// to the sink (no in-process aggregation); without a sink this is a cheap
/// no-op, so callers computing expensive values should gate on
/// [`sink_installed`].
pub fn gauge(name: &'static str, seq: u64, value: f64) {
    if !sink_installed() {
        return;
    }
    let mut reg = registry();
    emit(
        &mut reg,
        &Event::Gauge {
            name: name.to_string(),
            seq,
            value,
        },
    );
}

/// Records one value into the histogram `name`.
pub fn record(name: &'static str, value: u64) {
    let mut reg = registry();
    reg.hists.entry((name, None)).or_default().record(value);
}

/// Records one value into the series of histogram `name` labelled
/// `label` (`("shard", 2)` is the series `name{shard="2"}`). Each label
/// value is a series of its own; `/metrics` also renders their merge.
pub fn record_labelled(name: &'static str, label: (&'static str, usize), value: u64) {
    let mut reg = registry();
    reg.hists
        .entry((name, Some(label)))
        .or_default()
        .record(value);
}

/// Records a batch of values into the histogram `name`, taking the
/// registry lock once.
pub fn record_many(name: &'static str, values: &[u64]) {
    if values.is_empty() {
        return;
    }
    let mut reg = registry();
    let h = reg.hists.entry((name, None)).or_default();
    for &v in values {
        h.record(v);
    }
}

/// Emits cumulative snapshots of every counter and histogram to the sink
/// (as `counter` / `hist` events) and flushes it. Snapshots are cumulative,
/// so a reader keeps the *last* line per name; flushing twice is harmless.
pub fn flush() {
    let mut reg = registry();
    flush_locked(&mut reg);
}

fn flush_locked(reg: &mut Registry) {
    if reg.sink.is_none() {
        return;
    }
    let counters: Vec<Event> = reg
        .counters
        .iter()
        .map(|(&name, &value)| Event::Counter {
            name: name.to_string(),
            value,
        })
        .collect();
    let hists: Vec<Event> = reg
        .hists
        .iter()
        .map(|(series, h)| Event::Hist {
            name: series_name(series),
            count: h.count(),
            p50: h.percentile(0.50),
            p95: h.percentile(0.95),
            p99: h.percentile(0.99),
            max: h.max(),
        })
        .collect();
    for ev in counters.iter().chain(hists.iter()) {
        emit(reg, ev);
    }
    if let Some(sink) = reg.sink.as_mut() {
        let _ = sink.flush();
    }
}

/// Snapshot of the registry: cumulative counters and histograms, sorted by
/// name. Does not reset anything.
pub fn summary() -> Summary {
    let reg = registry();
    Summary {
        counters: reg
            .counters
            .iter()
            .map(|(&n, &v)| (n.to_string(), v))
            .collect(),
        hists: reg
            .hists
            .iter()
            .map(|(series, h)| (series_name(series), h.clone()))
            .collect(),
    }
}

/// Clears all counters and histograms and drops any installed sink without
/// flushing it. Intended for tests that need a clean slate.
pub fn reset() {
    let mut reg = registry();
    reg.counters.clear();
    reg.hists.clear();
    reg.sink = None;
    SINK_ON.store(false, Ordering::Release);
}

/// Clears only the histograms (latency distributions), leaving counters
/// monotonic and any installed sink in place. Long-lived daemons expose
/// this through `POST /reset/histograms` so operators can re-baseline
/// tail latencies after a deploy or an incident without breaking
/// Prometheus counter semantics. Returns how many histograms were
/// dropped.
pub fn reset_histograms() -> usize {
    let mut reg = registry();
    let n = reg.hists.len();
    reg.hists.clear();
    n
}

/// RAII timer guard for a named span: created by [`span`], records the
/// elapsed time on drop (into the histogram `name` and, when a sink is
/// installed, as a `span` event).
#[derive(Debug)]
#[must_use = "a span measures until it is dropped; binding it to `_` drops immediately"]
pub struct Span {
    name: &'static str,
    start: Instant,
}

/// Starts timing a span; the returned guard records on drop.
#[inline]
pub fn span(name: &'static str) -> Span {
    origin(); // make sure the origin predates `start`
    Span {
        name,
        start: Instant::now(),
    }
}

impl Drop for Span {
    fn drop(&mut self) {
        let dur_ns = clamp_ns(self.start.elapsed().as_nanos());
        let start_ns = clamp_ns(
            self.start
                .checked_duration_since(origin())
                .unwrap_or_default()
                .as_nanos(),
        );
        let mut reg = registry();
        reg.hists
            .entry((self.name, None))
            .or_default()
            .record(dur_ns);
        if reg.sink.is_some() {
            emit(
                &mut reg,
                &Event::Span {
                    name: self.name.to_string(),
                    start_ns,
                    dur_ns,
                },
            );
        }
    }
}

fn clamp_ns(ns: u128) -> u64 {
    ns.min(u64::MAX as u128) as u64
}
