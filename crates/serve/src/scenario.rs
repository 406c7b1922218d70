//! Replaying a [`mec_scenario::Trace`] against a live market writer:
//! the socket-free bridge between the dynamic-popularity trace engine
//! and the daemon's demand-driven re-caching.
//!
//! [`run_scenario`] boots a one-shard writer through the same `ShardSet`
//! the daemon uses, then walks the trace epoch by epoch:
//!
//! 1. every request in the epoch is noted into the shared
//!    [`DemandTracker`] — exactly what the I/O threads do when they
//!    answer queries;
//! 2. services that drew requests this epoch join the market (if not
//!    already admitted) and services that drew none leave — the
//!    membership churn of the paper's dynamic service market;
//! 3. the driver waits for the maintenance quanta to restore
//!    equilibrium, then scores the epoch's requests against the
//!    published view (a request is a **hit** when its service is cached
//!    at some cloudlet) and counts the **re-cache moves** — admitted
//!    services whose placement changed purely through maintenance.
//!
//! Because every quantum folds the tracker into the hot-first scan
//! order, a flash crowd observed in epoch `e` reshapes which services
//! win scarce capacity from epoch `e+1` on — the demand loop the
//! `scenarios` bench and the CI smoke cell exercise end to end.

use std::sync::Arc;
use std::time::{Duration, Instant};

use mec_core::model::Market;
use mec_core::Placement;
use mec_scenario::Trace;

use crate::chan::{self, Sender};
use crate::demand::DemandTracker;
use crate::market::{Command, Reply};
use crate::proto::Response;
use crate::shard::{fresh, ShardSet};
use crate::view::{MarketView, SharedView};

/// How long [`run_scenario`] waits for the writer to reach equilibrium
/// after an epoch's membership churn before scoring anyway. Generously
/// sized: the dynamics are potential-game-terminating, so this only
/// fires if the writer thread is starved.
const EPOCH_SETTLE_MAX: Duration = Duration::from_secs(10);

/// What one trace replay measured.
#[derive(Debug, Clone)]
pub struct ScenarioReport {
    /// Trace label (`zipf_diurnal`, `flash_crowd`, ...).
    pub label: String,
    /// Epochs replayed.
    pub epochs: usize,
    /// Requests scored.
    pub requests: u64,
    /// Requests whose service was cached at a cloudlet when scored.
    pub hits: u64,
    /// Maintenance-driven placement changes of admitted services
    /// (re-caches observed across epoch boundaries).
    pub recaches: u64,
    /// Join commands admitted.
    pub joins: u64,
    /// Join commands rejected for capacity.
    pub rejected: u64,
    /// Leave commands settled.
    pub leaves: u64,
    /// Social cost of the final published view.
    pub final_social_cost: f64,
    /// `true` if the drained placement was a Nash equilibrium.
    pub equilibrium: bool,
    /// Exit-certification violations (non-empty only under `verify`).
    pub violations: Vec<String>,
}

impl ScenarioReport {
    /// Fraction of requests served from a cloudlet cache.
    pub fn hit_rate(&self) -> f64 {
        if self.requests == 0 {
            0.0
        } else {
            self.hits as f64 / self.requests as f64
        }
    }
}

/// Sends `cmd`-built command for `provider` and returns the reply.
fn roundtrip(tx: &Sender<Command>, build: impl FnOnce(Reply) -> Command) -> Response {
    let (otx, orx) = chan::oneshot();
    assert!(
        tx.send(build(Reply::Oneshot(otx))).is_ok(),
        "market thread exited mid-scenario"
    );
    // lint: allow(panics) — a dead writer mid-replay is unrecoverable.
    orx.recv().expect("market thread dropped a reply")
}

/// Replays `trace` against `market` on a single live writer thread.
///
/// Service `k` of the trace is provider `k` of the market, so the trace
/// must not name more services than the market has providers.
pub fn run_scenario(market: Market, trace: &Trace) -> ScenarioReport {
    let n = market.provider_count();
    assert!(
        trace.services <= n,
        "trace names {} services, market has {} providers",
        trace.services,
        n
    );

    let demand = Arc::new(DemandTracker::new(n));
    // Queue sized for one epoch's worth of churn plus the shutdown.
    let mut set = ShardSet::boot(fresh(market), 1, None, n + 8, None, demand.clone())
        // lint: allow(panics) — one shard needs no region map, so boot cannot fail.
        .expect("one-shard boot has no region map to reject");
    let tx = set.txs[0].clone();
    let view = set.views[0].clone();
    set.start(|| {})
        // lint: allow(panics) — a replay without its writer thread has nothing to score.
        .expect("starting the replay's writer thread");

    let mut report = ScenarioReport {
        label: trace.label.clone(),
        epochs: trace.epoch_count(),
        requests: 0,
        hits: 0,
        recaches: 0,
        joins: 0,
        rejected: 0,
        leaves: 0,
        final_social_cost: 0.0,
        equilibrium: false,
        violations: Vec::new(),
    };
    let mut joined = vec![false; n];
    // Membership and placement as of the previous epoch's settled view:
    // the baseline re-cache moves are measured against.
    let mut prev_joined = vec![false; n];
    let mut prev_placements: Vec<Placement> = vec![Placement::Remote; n];

    for e in 0..trace.epoch_count() {
        // 1. The epoch's requests become demand observations, exactly as
        //    the I/O threads would note them at query-answer time.
        for &s in trace.requests_in(e) {
            demand.note(s as usize);
        }
        let counts = trace.counts(e);

        // 2. Membership churn: cold services leave first (freeing
        //    capacity), then warm services join. Each command breaks
        //    equilibrium, so the writer's next idle gap runs quanta —
        //    which is where the demand fold and hot-first re-caching
        //    happen.
        for (s, &c) in counts.iter().enumerate() {
            if c == 0 && joined[s] {
                let resp = roundtrip(&tx, |reply| Command::Leave { provider: s, reply });
                if matches!(resp, Response::Left) {
                    joined[s] = false;
                    report.leaves += 1;
                }
            }
        }
        for (s, &c) in counts.iter().enumerate() {
            if c > 0 && !joined[s] {
                let resp = roundtrip(&tx, |reply| Command::Join {
                    provider: s,
                    cloudlet: None,
                    reply,
                });
                match resp {
                    Response::Admitted { .. } => {
                        joined[s] = true;
                        report.joins += 1;
                    }
                    Response::Rejected { .. } => report.rejected += 1,
                    // lint: allow(panics) — protocol breach, not a data error.
                    other => panic!("unexpected join reply: {other:?}"),
                }
            }
        }

        // 3. Wait out the maintenance quanta, then score the epoch.
        let settled = wait_equilibrium(&view);
        for (s, was) in prev_placements.iter_mut().enumerate() {
            let now = settled.placements[s];
            // A service admitted at *both* epoch boundaries whose
            // placement moved onto a cloudlet can only have been moved by
            // maintenance — a demand-driven re-cache (a re-home between
            // cloudlets, or a rescue from a remote eviction). Fresh joins
            // place directly and are excluded by `prev_joined`.
            if prev_joined[s] && joined[s] && now != *was && matches!(now, Placement::Cloudlet(_)) {
                report.recaches += 1;
            }
            *was = now;
        }
        prev_joined.copy_from_slice(&joined);
        for &s in trace.requests_in(e) {
            report.requests += 1;
            let s = s as usize;
            if settled.active[s] && matches!(settled.placements[s], Placement::Cloudlet(_)) {
                report.hits += 1;
            }
        }
    }

    let resp = set.shutdown().recv();
    assert!(
        matches!(resp, Some(Response::Draining)),
        "shutdown not honored"
    );
    let outcome = set.join();
    report.final_social_cost = view.load().social_cost;
    report.equilibrium = outcome.equilibrium;
    report.violations = outcome.violations;
    report
}

/// Polls the published view until the writer reports equilibrium (or the
/// settle backstop fires) and returns the settled snapshot.
fn wait_equilibrium(view: &SharedView) -> Arc<MarketView> {
    let started = Instant::now();
    loop {
        let v = view.load();
        if v.equilibrium || started.elapsed() > EPOCH_SETTLE_MAX {
            return v;
        }
        std::thread::sleep(Duration::from_micros(200));
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mec_scenario::{standard_traces, TraceConfig};
    use mec_workload::{gtitm_scenario, Params};

    fn market(providers: usize) -> Market {
        gtitm_scenario(100, &Params::paper().with_providers(providers), 11)
            .generated
            .market
    }

    #[test]
    fn replay_scores_every_request() {
        let trace = TraceConfig::new("unit", 12, 6, 40, 5).generate();
        let r = run_scenario(market(12), &trace);
        assert_eq!(r.requests, trace.total_requests());
        assert_eq!(r.epochs, 6);
        assert!(r.equilibrium, "writer must drain at equilibrium");
        assert!(r.violations.is_empty(), "{:?}", r.violations);
        assert!(r.hits <= r.requests);
    }

    #[test]
    fn warm_services_get_cached() {
        // Plenty of capacity: everything that joins should be cached, so
        // the hit rate is high (cold epochs aside).
        let trace = TraceConfig::new("warm", 8, 5, 80, 3).generate();
        let r = run_scenario(market(8), &trace);
        assert!(
            r.hit_rate() > 0.5,
            "expected mostly hits with ample capacity, got {}",
            r.hit_rate()
        );
        assert!(r.joins > 0);
    }

    #[test]
    fn flash_crowd_trace_replays_cleanly() {
        let traces = standard_traces(16, 9, 60, 42);
        let flash = traces
            .iter()
            .find(|t| t.label == "flash_crowd")
            .expect("standard flash trace");
        let r = run_scenario(market(16), flash);
        assert_eq!(r.label, "flash_crowd");
        assert!(r.equilibrium);
        assert!(r.requests > 0);
    }
}
