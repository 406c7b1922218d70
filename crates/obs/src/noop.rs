//! No-op probe implementations compiled when the `enabled` feature is off.
//!
//! Every function here is `#[inline(always)]` and empty, and [`Span`] is a
//! zero-sized type, so instrumented call sites cost nothing — the
//! `tests/noop.rs` integration test pins this down with a size assertion
//! and a "no events written" check.

use std::io::{self, Write};
use std::path::Path;

use crate::Summary;

/// Whether this build carries live instrumentation. Always `false` here;
/// `const` so call sites can be folded away at compile time.
#[inline(always)]
pub const fn enabled() -> bool {
    false
}

/// Whether an event sink is installed. Always `false` in no-op builds.
#[inline(always)]
pub fn sink_installed() -> bool {
    false
}

/// Would install a JSONL sink writing to `path`; does nothing here (the
/// file is not even created).
#[inline(always)]
pub fn install_file(_path: &Path) -> io::Result<()> {
    Ok(())
}

/// Would install a JSONL sink writing to `writer`; drops it unused here.
#[inline(always)]
pub fn install_writer(_writer: Box<dyn Write + Send>) {}

/// Would flush snapshots and remove the sink; does nothing here.
#[inline(always)]
pub fn shutdown() {}

/// Would add `delta` to the counter `name`; does nothing here.
#[inline(always)]
pub fn counter_add(_name: &'static str, _delta: u64) {}

/// Would sample a gauge series; does nothing here.
#[inline(always)]
pub fn gauge(_name: &'static str, _seq: u64, _value: f64) {}

/// Would record one value into the histogram `name`; does nothing here.
#[inline(always)]
pub fn record(_name: &'static str, _value: u64) {}

/// Would record one value into the series of histogram `name` labelled
/// `label`; does nothing here.
#[inline(always)]
pub fn record_labelled(_name: &'static str, _label: (&'static str, usize), _value: u64) {}

/// Would record a batch of values into the histogram `name`; does nothing
/// here (the iterator is not consumed).
#[inline(always)]
pub fn record_many(_name: &'static str, _values: &[u64]) {}

/// Would emit cumulative counter/histogram snapshots to the sink and flush
/// it; does nothing here.
#[inline(always)]
pub fn flush() {}

/// Snapshot of the registry. Always empty in no-op builds.
#[inline(always)]
pub fn summary() -> Summary {
    Summary::default()
}

/// Would clear the registry and drop the sink; does nothing here.
#[inline(always)]
pub fn reset() {}

/// Would clear only the histograms; nothing to clear here (0 dropped).
#[inline(always)]
pub fn reset_histograms() -> usize {
    0
}

/// RAII timer guard for a named span. A zero-sized type in no-op builds —
/// constructing and dropping it compiles to nothing.
#[derive(Debug)]
#[must_use = "a span measures until it is dropped; binding it to `_` drops immediately"]
pub struct Span;

/// Would start timing a span; returns the zero-sized guard here.
#[inline(always)]
pub fn span(_name: &'static str) -> Span {
    Span
}
