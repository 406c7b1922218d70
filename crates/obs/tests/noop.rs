//! Pins down the zero-cost contract of the default (obs-off) build: the
//! span guard is a ZST, `enabled()` is a compile-time `false`, and no
//! probe produces any event or registry state.

#![cfg(not(feature = "enabled"))]

use std::io::Write;
use std::sync::{Arc, Mutex};

/// `enabled()` must be const-evaluable so branches on it fold away.
const COMPILED_IN: bool = mec_obs::enabled();

#[derive(Clone, Default)]
struct SharedBuf(Arc<Mutex<Vec<u8>>>);

impl Write for SharedBuf {
    fn write(&mut self, buf: &[u8]) -> std::io::Result<usize> {
        self.0.lock().unwrap().extend_from_slice(buf);
        Ok(buf.len())
    }
    fn flush(&mut self) -> std::io::Result<()> {
        Ok(())
    }
}

#[test]
fn span_guard_is_zero_sized() {
    assert_eq!(std::mem::size_of::<mec_obs::Span>(), 0);
    const { assert!(!COMPILED_IN) };
    assert!(!mec_obs::sink_installed());
}

#[test]
fn probes_produce_no_events_and_no_state() {
    let buf = SharedBuf::default();
    mec_obs::install_writer(Box::new(buf.clone()));
    assert!(!mec_obs::sink_installed());

    mec_obs::counter_add("noop.counter", 42);
    mec_obs::record("noop.hist", 7);
    mec_obs::record_many("noop.hist", &[1, 2, 3]);
    mec_obs::record_labelled("noop.hist", ("shard", 0), 7);
    mec_obs::gauge("noop.gauge", 0, 1.5);
    {
        let _span = mec_obs::span("noop.span");
    }
    mec_obs::flush();
    mec_obs::shutdown();

    assert!(
        buf.0.lock().unwrap().is_empty(),
        "obs-off build wrote events to the sink"
    );
    let summary = mec_obs::summary();
    assert!(summary.counters.is_empty());
    assert!(summary.hists.is_empty());
}

#[test]
fn install_file_creates_nothing() {
    let path = std::env::temp_dir().join("mec-obs-noop-test-should-not-exist.jsonl");
    let _ = std::fs::remove_file(&path);
    mec_obs::install_file(&path).unwrap();
    assert!(
        !path.exists(),
        "obs-off install_file must not touch the filesystem"
    );
}
