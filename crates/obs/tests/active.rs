//! Behavior of the live (obs-on) build: counters accumulate, spans record
//! and stream, flush emits cumulative snapshots.
//!
//! The registry is process-global, so every test serializes on one lock
//! and resets the registry before touching it.

#![cfg(feature = "enabled")]

use std::io::Write;
use std::sync::{Arc, Mutex, OnceLock};

use mec_obs::{Event, Report};

fn test_lock() -> std::sync::MutexGuard<'static, ()> {
    static LOCK: OnceLock<Mutex<()>> = OnceLock::new();
    LOCK.get_or_init(|| Mutex::new(()))
        .lock()
        .unwrap_or_else(|e| e.into_inner())
}

#[derive(Clone, Default)]
struct SharedBuf(Arc<Mutex<Vec<u8>>>);

impl SharedBuf {
    fn contents(&self) -> String {
        String::from_utf8(self.0.lock().unwrap().clone()).unwrap()
    }
}

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
fn counters_accumulate_and_summary_reads_them() {
    let _guard = test_lock();
    mec_obs::reset();
    assert!(mec_obs::enabled());

    mec_obs::counter_add("t.counter", 2);
    mec_obs::counter_add("t.counter", 3);
    let summary = mec_obs::summary();
    assert_eq!(summary.counter("t.counter"), Some(5));
}

#[test]
fn spans_record_into_histogram_and_stream_to_sink() {
    let _guard = test_lock();
    mec_obs::reset();
    let buf = SharedBuf::default();
    mec_obs::install_writer(Box::new(buf.clone()));
    assert!(mec_obs::sink_installed());

    {
        let _span = mec_obs::span("t.span");
        std::thread::sleep(std::time::Duration::from_millis(1));
    }
    let summary = mec_obs::summary();
    let h = summary.hist("t.span").expect("span histogram missing");
    assert_eq!(h.count(), 1);
    assert!(h.max() >= 1_000_000, "1ms sleep measured {}ns", h.max());

    let line = buf.contents();
    match mec_obs::wire::parse(line.lines().next().unwrap()).unwrap() {
        Event::Span { name, dur_ns, .. } => {
            assert_eq!(name, "t.span");
            assert!(dur_ns >= 1_000_000);
        }
        other => panic!("expected span event, got {other:?}"),
    }
    mec_obs::reset();
}

#[test]
fn flush_emits_cumulative_snapshots() {
    let _guard = test_lock();
    mec_obs::reset();
    let buf = SharedBuf::default();
    mec_obs::install_writer(Box::new(buf.clone()));

    mec_obs::counter_add("t.flush_counter", 10);
    mec_obs::record_many("t.flush_hist", &[5, 6, 7]);
    mec_obs::flush();
    mec_obs::counter_add("t.flush_counter", 1);
    mec_obs::gauge("t.flush_gauge", 3, 2.5);
    mec_obs::shutdown();

    let report = Report::from_lines(buf.contents().as_bytes()).unwrap();
    assert_eq!(report.skipped, 0);
    // Two snapshots were emitted; the reader keeps the last (cumulative).
    assert_eq!(report.counters["t.flush_counter"], 11);
    let h = report.hists["t.flush_hist"];
    assert_eq!(h.count, 3);
    assert_eq!(h.max, 7);
    let g = report.gauges["t.flush_gauge"];
    assert_eq!(g.count, 1);
    assert!((g.last - 2.5).abs() < 1e-12);
    mec_obs::reset();
}

#[test]
fn gauges_without_sink_are_dropped() {
    let _guard = test_lock();
    mec_obs::reset();
    assert!(!mec_obs::sink_installed());
    mec_obs::gauge("t.orphan_gauge", 0, 1.0);
    // Nothing to assert beyond "did not panic": gauges are sink-only.
    let summary = mec_obs::summary();
    assert!(summary.counters.is_empty());
}

#[test]
fn labelled_series_are_separate_and_keep_their_label_on_the_wire() {
    let _guard = test_lock();
    mec_obs::reset();
    let buf = SharedBuf::default();
    mec_obs::install_writer(Box::new(buf.clone()));

    mec_obs::record("t.lab.ns", 1);
    for (shard, v) in [(0, 10), (1, 20), (1, 30)] {
        mec_obs::record_labelled("t.lab.ns", ("shard", shard), v);
    }
    let summary = mec_obs::summary();
    let names: Vec<&str> = summary.hists.iter().map(|(n, _)| n.as_str()).collect();
    assert_eq!(
        names,
        [
            "t.lab.ns",
            r#"t.lab.ns{shard="0"}"#,
            r#"t.lab.ns{shard="1"}"#
        ]
    );
    assert_eq!(summary.hist(r#"t.lab.ns{shard="1"}"#).unwrap().count(), 2);

    mec_obs::flush();
    let report = Report::from_lines(buf.contents().as_bytes()).unwrap();
    assert_eq!(report.hists[r#"t.lab.ns{shard="0"}"#].max, 10);
    assert_eq!(report.hists[r#"t.lab.ns{shard="1"}"#].count, 2);
    assert_eq!(
        mec_obs::reset_histograms(),
        3,
        "each series is one histogram"
    );
    mec_obs::reset();
}
