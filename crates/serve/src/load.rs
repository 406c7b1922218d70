//! The `marketload` engine: concurrent provider sessions driving a
//! daemon, with per-op latency histograms.
//!
//! The provider universe is split into disjoint slices, one per session.
//! Each session opens its own connection and replays a
//! [`mec_workload::churn`] script over its slice — arrivals become
//! `join`s, departures `leave`s — interleaved with `query` reads and
//! periodic `update` demand changes. Each epoch's requests go out as one
//! *pipelined batch* ([`Client::pipeline`]): one write syscall carries
//! the whole epoch, and the daemon's event loop streams the responses
//! back in order. Latency is measured per op from the start of the batch
//! write to that op's response — the pipelined analogue of round-trip
//! time, so queueing delay inside the daemon still shows up in the tail.
//!
//! Session starts are *staggered* by a small per-session delay: with
//! hundreds of sessions, connecting all at once turns the accept queue
//! into a thundering herd whose connection-setup spike pollutes the
//! first epoch's latencies.
//!
//! Latencies are recorded per op type into always-compiled
//! [`mec_obs::Histogram`]s (nanosecond unit), so the report carries the
//! exact per-op distributions without any cargo feature.

use std::time::{Duration, Instant};

use mec_obs::{json, Histogram};
use mec_workload::churn::{generate_script, ChurnConfig};
use rand::rngs::StdRng;
use rand::{RngExt, SeedableRng};

use crate::client::Client;
use crate::proto::{Request, Response, StatsReport};

/// Shape of one load run.
#[derive(Debug, Clone)]
pub struct LoadConfig {
    /// Concurrent sessions (connections); the provider universe is split
    /// evenly across them.
    pub sessions: usize,
    /// Churn epochs each session replays.
    pub epochs: usize,
    /// Queries issued per session per epoch.
    pub queries_per_epoch: usize,
    /// Issue one demand `update` every this many epochs (0 disables).
    pub update_every: usize,
    /// Delay between consecutive session starts (stagger); session `s`
    /// connects `s * stagger` after the run begins.
    pub stagger: Duration,
    /// Base RNG seed; session `s` uses `seed + s`.
    pub seed: u64,
}

impl Default for LoadConfig {
    fn default() -> Self {
        LoadConfig {
            sessions: 8,
            epochs: 20,
            queries_per_epoch: 4,
            update_every: 5,
            stagger: Duration::from_micros(500),
            seed: 1,
        }
    }
}

/// Latency histogram plus outcome counters for one op type.
#[derive(Debug, Clone, Default)]
pub struct OpStats {
    /// Latency distribution in nanoseconds.
    pub latency: Histogram,
    /// Requests answered with `{"ok":0,...}`.
    pub errors: u64,
}

impl OpStats {
    fn record(&mut self, latency: Duration, resp: &Response) {
        let nanos = u64::try_from(latency.as_nanos()).unwrap_or(u64::MAX);
        self.latency.record(nanos);
        if matches!(resp, Response::Error { .. }) {
            self.errors += 1;
        }
    }

    fn merge(&mut self, other: &OpStats) {
        self.latency.merge(&other.latency);
        self.errors += other.errors;
    }

    /// Tail amplification: p99 over p50 (0 when the histogram is empty).
    pub fn tail_ratio(&self) -> f64 {
        let p50 = self.latency.percentile(0.50);
        if p50 == 0 {
            return 0.0;
        }
        self.latency.percentile(0.99) as f64 / p50 as f64
    }
}

/// Aggregated outcome of a load run.
#[derive(Debug, Clone)]
pub struct LoadReport {
    /// Sessions that ran.
    pub sessions: usize,
    /// Size of the provider universe.
    pub providers: usize,
    /// Churn epochs replayed per session.
    pub epochs: usize,
    /// Wall-clock duration of the run.
    pub elapsed: Duration,
    /// `join` latencies/outcomes.
    pub join: OpStats,
    /// `leave` latencies/outcomes.
    pub leave: OpStats,
    /// `update` latencies/outcomes.
    pub update: OpStats,
    /// `query` latencies/outcomes.
    pub query: OpStats,
    /// Joins answered `rejected` (admission control, not errors).
    pub rejected: u64,
    /// Daemon stats sampled right after the run.
    pub server: StatsReport,
}

impl LoadReport {
    /// Total requests issued.
    pub fn ops(&self) -> u64 {
        self.write_ops() + self.query.latency.count()
    }

    /// Mutating requests issued (`join` + `leave` + `update`) — the ops
    /// that round-trip through the market thread, as opposed to queries
    /// answered from the published view.
    pub fn write_ops(&self) -> u64 {
        self.join.latency.count() + self.leave.latency.count() + self.update.latency.count()
    }

    /// Aggregate throughput over the whole run.
    pub fn ops_per_sec(&self) -> f64 {
        per_sec(self.ops(), self.elapsed)
    }

    /// Mutating-request throughput — the market thread's write rate,
    /// reported next to the blended number so a query-heavy mix cannot
    /// flatter the daemon.
    pub fn write_ops_per_sec(&self) -> f64 {
        per_sec(self.write_ops(), self.elapsed)
    }

    /// Serializes the report as one flat JSON object (the
    /// `BENCH_serve.json` format), parseable by [`mec_obs::json`].
    pub fn to_json(&self) -> String {
        let mut s = String::from("{\"benchmark\":\"serve\"");
        for (k, v) in [
            ("sessions", self.sessions as u64),
            ("providers", self.providers as u64),
            ("epochs", self.epochs as u64),
            ("ops", self.ops()),
            ("write_ops", self.write_ops()),
            ("rejected", self.rejected),
            ("server_seq", self.server.seq),
            ("server_epochs", self.server.epochs),
            ("server_moves", self.server.moves),
            ("server_active", self.server.active as u64),
            ("server_cached", self.server.cached as u64),
            ("server_equilibrium", u64::from(self.server.equilibrium)),
        ] {
            s.push_str(&format!(",\"{k}\":{v}"));
        }
        s.push_str(",\"elapsed_s\":");
        json::push_f64(&mut s, self.elapsed.as_secs_f64());
        s.push_str(",\"ops_per_sec\":");
        json::push_f64(&mut s, self.ops_per_sec());
        s.push_str(",\"write_ops_per_sec\":");
        json::push_f64(&mut s, self.write_ops_per_sec());
        s.push_str(",\"server_social_cost\":");
        json::push_f64(&mut s, self.server.social_cost);
        // Per-shard breakdown (sharded daemons only): lifetime writes,
        // last-drain queue depth, and each shard's write throughput over
        // the run, so a skewed partition shows up as one hot shard.
        if !self.server.shards.is_empty() {
            s.push_str(&format!(",\"shards\":{}", self.server.shards.len()));
            for (k, sh) in self.server.shards.iter().enumerate() {
                s.push_str(&format!(
                    ",\"s{k}_writes\":{},\"s{k}_depth\":{},\"s{k}_write_ops_per_sec\":",
                    sh.writes, sh.depth
                ));
                json::push_f64(&mut s, per_sec(sh.writes, self.elapsed));
            }
        }
        for (name, op) in [
            ("join", &self.join),
            ("leave", &self.leave),
            ("update", &self.update),
            ("query", &self.query),
        ] {
            s.push_str(&format!(
                ",\"{name}_count\":{},\"{name}_errors\":{}",
                op.latency.count(),
                op.errors
            ));
            for (tag, q) in [("p50", 0.50), ("p95", 0.95), ("p99", 0.99)] {
                s.push_str(&format!(
                    ",\"{name}_{tag}_ns\":{}",
                    op.latency.percentile(q)
                ));
            }
            s.push_str(&format!(",\"{name}_max_ns\":{}", op.latency.max()));
            s.push_str(&format!(",\"{name}_mean_ns\":", name = name));
            json::push_f64(&mut s, op.latency.mean());
            s.push_str(&format!(",\"{name}_p99_p50\":", name = name));
            json::push_f64(&mut s, op.tail_ratio());
        }
        s.push('}');
        s
    }
}

fn per_sec(count: u64, elapsed: Duration) -> f64 {
    let secs = elapsed.as_secs_f64();
    if secs > 0.0 {
        count as f64 / secs
    } else {
        0.0
    }
}

/// What one session thread brings home.
struct SessionResult {
    join: OpStats,
    leave: OpStats,
    update: OpStats,
    query: OpStats,
    rejected: u64,
}

/// Which [`OpStats`] bucket a pipelined request settles into, plus the
/// state bookkeeping its response triggers.
enum OpKind {
    Join(usize),
    Leave,
    Update,
    Query,
}

/// Runs the load against a daemon at `addr` whose provider universe has
/// `providers` entries.
///
/// # Errors
///
/// Fails on connection errors or if any session hits a transport error.
///
/// # Panics
///
/// Panics if `sessions == 0`, `providers < sessions`, or a session
/// thread panics.
pub fn run_load(addr: &str, providers: usize, cfg: &LoadConfig) -> std::io::Result<LoadReport> {
    assert!(cfg.sessions > 0, "need at least one session");
    assert!(
        providers >= cfg.sessions,
        "cannot split {providers} providers across {} sessions",
        cfg.sessions
    );
    let started = Instant::now();
    let results: Vec<std::io::Result<SessionResult>> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..cfg.sessions)
            .map(|s| {
                // Split [0, providers) into near-equal contiguous slices.
                let lo = s * providers / cfg.sessions;
                let hi = (s + 1) * providers / cfg.sessions;
                scope.spawn(move || {
                    // Staggered start: spread the connection setup so the
                    // accept queue never sees the whole fleet at once.
                    let offset = cfg.stagger * s as u32;
                    if !offset.is_zero() {
                        std::thread::sleep(offset);
                    }
                    run_session(addr, lo, hi, cfg, cfg.seed + s as u64)
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| match h.join() {
                Ok(r) => r,
                Err(e) => std::panic::resume_unwind(e),
            })
            .collect()
    });

    let elapsed = started.elapsed();
    let mut report = LoadReport {
        sessions: cfg.sessions,
        providers,
        epochs: cfg.epochs,
        elapsed,
        join: OpStats::default(),
        leave: OpStats::default(),
        update: OpStats::default(),
        query: OpStats::default(),
        rejected: 0,
        server: Client::connect(addr)?.stats()?,
    };
    for r in results {
        let r = r?;
        report.join.merge(&r.join);
        report.leave.merge(&r.leave);
        report.update.merge(&r.update);
        report.query.merge(&r.query);
        report.rejected += r.rejected;
    }
    Ok(report)
}

/// One session: replay a churn script over the providers `[lo, hi)`, one
/// pipelined batch per epoch.
fn run_session(
    addr: &str,
    lo: usize,
    hi: usize,
    cfg: &LoadConfig,
    seed: u64,
) -> std::io::Result<SessionResult> {
    let slice = hi - lo;
    let mut rng = StdRng::seed_from_u64(seed);
    let script = generate_script(slice, &session_churn(slice, cfg, seed));
    let mut client = Client::connect(addr)?;
    let mut out = SessionResult {
        join: OpStats::default(),
        leave: OpStats::default(),
        update: OpStats::default(),
        query: OpStats::default(),
        rejected: 0,
    };
    let mut joined: Vec<usize> = Vec::with_capacity(slice);
    let mut reqs: Vec<Request> = Vec::new();
    let mut kinds: Vec<OpKind> = Vec::new();
    for (epoch, event) in script.iter().enumerate() {
        reqs.clear();
        kinds.clear();
        for d in &event.departures {
            let global = lo + d.index();
            // The script may depart a provider whose join was rejected;
            // only providers actually admitted get a `leave`.
            if !joined.contains(&global) {
                continue;
            }
            reqs.push(Request::Leave { provider: global });
            kinds.push(OpKind::Leave);
            joined.retain(|&g| g != global);
        }
        for a in &event.arrivals {
            let global = lo + a.index();
            reqs.push(Request::Join {
                provider: global,
                cloudlet: None,
            });
            kinds.push(OpKind::Join(global));
        }
        for _ in 0..cfg.queries_per_epoch {
            let global = lo + rng.random_range(0..slice);
            reqs.push(Request::Query { provider: global });
            kinds.push(OpKind::Query);
        }
        if cfg.update_every > 0 && epoch % cfg.update_every == cfg.update_every - 1 {
            if let Some(&global) = joined.first() {
                // Jitter the demand vector within the workload's typical
                // range; the daemon evicts if the new demand no longer fits.
                let compute = 0.5 + rng.random_range(0..150) as f64 / 100.0;
                let bandwidth = 2.0 + rng.random_range(0..600) as f64 / 100.0;
                reqs.push(Request::UpdateDemand {
                    provider: global,
                    compute,
                    bandwidth,
                });
                kinds.push(OpKind::Update);
            }
        }
        if reqs.is_empty() {
            continue;
        }
        // The whole epoch rides one write; responses come back in request
        // order with per-op latencies from the batch start.
        for (kind, (resp, latency)) in kinds.iter().zip(client.pipeline(&reqs)?) {
            match kind {
                OpKind::Join(global) => {
                    out.join.record(latency, &resp);
                    match resp {
                        Response::Admitted { .. } => joined.push(*global),
                        Response::Rejected { .. } => out.rejected += 1,
                        _ => {}
                    }
                }
                OpKind::Leave => out.leave.record(latency, &resp),
                OpKind::Update => out.update.record(latency, &resp),
                OpKind::Query => out.query.record(latency, &resp),
            }
        }
    }
    Ok(out)
}

/// Scales the default churn shape to a session's slice so the script's
/// ramp never overflows the slice universe.
fn session_churn(slice: usize, cfg: &LoadConfig, seed: u64) -> ChurnConfig {
    let ramp_epochs = (cfg.epochs / 4).clamp(1, slice);
    let ramp_arrivals = (slice / ramp_epochs).max(1).min(slice);
    ChurnConfig {
        epochs: cfg.epochs,
        ramp_epochs,
        ramp_arrivals,
        steady_turnover: (slice / 8).max(1),
        diurnal_period: Some((cfg.epochs / 2).max(2)),
        seed,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn churn_shape_fits_every_slice_size() {
        let cfg = LoadConfig::default();
        for slice in 1..40 {
            let c = session_churn(slice, &cfg, 0);
            assert!(
                c.ramp_epochs * c.ramp_arrivals <= slice,
                "slice {slice}: ramp {}x{} overflows",
                c.ramp_epochs,
                c.ramp_arrivals
            );
            // generate_script panics on an invalid shape; run it to be sure.
            let script = generate_script(slice, &c);
            assert_eq!(script.len(), cfg.epochs);
        }
    }

    #[test]
    fn report_json_is_flat_and_parseable() {
        let mut join = OpStats::default();
        join.record(Duration::from_micros(10), &Response::Left);
        join.record(Duration::from_micros(40), &Response::Left);
        let report = LoadReport {
            sessions: 2,
            providers: 10,
            epochs: 5,
            elapsed: Duration::from_millis(1500),
            join,
            leave: OpStats::default(),
            update: OpStats::default(),
            query: OpStats::default(),
            rejected: 3,
            server: StatsReport {
                seq: 9,
                providers: 10,
                active: 4,
                cached: 4,
                social_cost: 12.5,
                epochs: 2,
                moves: 6,
                equilibrium: true,
                shards: vec![
                    crate::proto::ShardStat {
                        seq: 5,
                        depth: 1,
                        writes: 30,
                    },
                    crate::proto::ShardStat {
                        seq: 4,
                        depth: 0,
                        writes: 12,
                    },
                ],
            },
        };
        let text = report.to_json();
        let fields = json::parse_object(&text).unwrap();
        assert_eq!(json::get_str(&fields, "benchmark").unwrap(), "serve");
        assert_eq!(json::get_u64(&fields, "rejected").unwrap(), 3);
        assert_eq!(json::get_u64(&fields, "server_equilibrium").unwrap(), 1);
        assert!(json::get_f64(&fields, "ops_per_sec").unwrap() >= 0.0);
        assert_eq!(json::get_u64(&fields, "write_ops").unwrap(), 2);
        assert!(json::get_f64(&fields, "write_ops_per_sec").unwrap() > 0.0);
        assert!(json::get_f64(&fields, "join_p99_p50").unwrap() >= 1.0);
        assert!(json::get_u64(&fields, "join_p99_ns").unwrap() > 0);
        // Empty histogram: the ratio is exactly the 0.0 sentinel.
        // lint: allow(float-cmp)
        assert_eq!(json::get_f64(&fields, "query_p99_p50").unwrap(), 0.0);
        // Per-shard breakdown rides along when the daemon is sharded.
        assert_eq!(json::get_u64(&fields, "shards").unwrap(), 2);
        assert_eq!(json::get_u64(&fields, "s0_writes").unwrap(), 30);
        assert_eq!(json::get_u64(&fields, "s1_depth").unwrap(), 0);
        assert!(json::get_f64(&fields, "s0_write_ops_per_sec").unwrap() > 0.0);
    }

    #[test]
    fn op_stats_count_errors_and_merge() {
        let mut a = OpStats::default();
        a.record(Duration::from_micros(5), &Response::Left);
        a.record(
            Duration::from_micros(5),
            &Response::Error {
                msg: "x".to_string(),
            },
        );
        let mut b = OpStats::default();
        b.record(Duration::from_micros(5), &Response::Left);
        a.merge(&b);
        assert_eq!(a.latency.count(), 3);
        assert_eq!(a.errors, 1);
    }

    #[test]
    fn tail_ratio_is_p99_over_p50() {
        let mut op = OpStats::default();
        for _ in 0..99 {
            op.record(Duration::from_nanos(1000), &Response::Left);
        }
        op.record(Duration::from_nanos(5000), &Response::Left);
        let r = op.tail_ratio();
        assert!(r >= 1.0, "ratio {r} must be at least 1");
        // Empty histogram: the ratio is exactly the 0.0 sentinel.
        // lint: allow(float-cmp)
        assert_eq!(OpStats::default().tail_ratio(), 0.0);
    }
}
