//! One run's pooled raw samples, and the per-layer table read from them.
//!
//! Every sub-run adds its requests to one [`Pool`]. Latency percentiles
//! are exact (nearest rank) over all of the run's samples, with the
//! sample count beside each. The probe registry snapshots of the run's
//! traced windows are merged into the pool too. [`Pool::record_layers`]
//! reads every probe and client metric of the per-layer table from the
//! pool, on every workload, so a layer reads 0 only when its probes did
//! not fire.

use std::time::Instant;

use mec_obs::{Histogram, Summary};
use mec_serve::proto::{self, Response};

use crate::loadgen::{Outcome, KEEP_FRAMES, WRITE};
use crate::measure::quantile;
use crate::report::Report;
use crate::schedule::Op;
use crate::serve::{nash_gap, Served};

/// Raw samples and layer counts of a run's timed phases.
#[derive(Debug, Default)]
pub struct Pool {
    write: Vec<u64>,
    read: Vec<u64>,
    late: Vec<u64>,
    hits: usize,
    queries: usize,
    wait: Vec<u64>,
    encode: Vec<u64>,
    socket_write: Vec<u64>,
    decode: Vec<u64>,
    requests: Vec<String>,
    replies: Vec<String>,
    bytes: u64,
    answered: u64,
    attempted: u64,
    writes: u64,
    joins: u64,
    admitted: u64,
    gen_cpu_ns: u64,
    daemon_cpu_ns: u64,
    shard_writes: Vec<u64>,
    nash_gap: f64,
    summary: Summary,
    solves: u64,
}

impl Pool {
    /// Adds one timed phase. The client span samples, the recorded frames
    /// and the Nash gap (a full best-response scan) are kept in traced
    /// builds only.
    pub fn add(&mut self, served: &Served, ops: &[Op]) {
        let run = &served.run;
        for (c, log) in run.conns.iter().enumerate() {
            for s in &log.sent {
                let b = log.batches[s.batch as usize];
                self.late
                    .push(b.t0.saturating_sub(ops[s.op as usize].at_ns));
            }
            for (s, r) in log.sent.iter().zip(&log.recv) {
                if r.outcome.failed() {
                    continue;
                }
                self.answered += 1;
                let latency = r.t_recv.saturating_sub(ops[s.op as usize].at_ns);
                if c == WRITE {
                    self.write.push(latency);
                    self.writes += 1;
                } else {
                    self.read.push(latency);
                }
                match r.outcome {
                    Outcome::Placement(hit) => {
                        self.queries += 1;
                        self.hits += usize::from(hit);
                    }
                    Outcome::Admitted => {
                        self.joins += 1;
                        self.admitted += 1;
                    }
                    Outcome::Rejected => self.joins += 1,
                    _ => {}
                }
            }
            self.bytes += log.bytes_out + log.bytes_in;
        }
        self.attempted += run.attempted();
        self.gen_cpu_ns += run.gen_cpu_ns;
        self.daemon_cpu_ns += served.daemon_cpu_ns;
        if self.shard_writes.len() < served.shard_writes.len() {
            self.shard_writes.resize(served.shard_writes.len(), 0);
        }
        for (total, w) in self.shard_writes.iter_mut().zip(&served.shard_writes) {
            *total += w;
        }
        self.add_summary(served.summary.clone());
        if !crate::TRACED {
            return;
        }
        for log in &run.conns {
            self.encode
                .extend(log.sent.iter().map(|s| u64::from(s.encode_ns)));
            self.socket_write
                .extend(log.batches.iter().map(|b| b.t1 - b.t0));
            for (s, r) in log.sent.iter().zip(&log.recv) {
                self.decode.push(u64::from(r.decode_ns));
                if !r.outcome.failed() {
                    self.wait
                        .push(r.t_recv.saturating_sub(log.batches[s.batch as usize].t1));
                }
            }
            let room = KEEP_FRAMES.saturating_sub(self.requests.len());
            self.requests
                .extend(log.requests.iter().take(room).cloned());
            let room = KEEP_FRAMES.saturating_sub(self.replies.len());
            self.replies.extend(log.replies.iter().take(room).cloned());
        }
        self.nash_gap = self.nash_gap.max(nash_gap(&served.market, &served.outcome));
    }

    /// Merges a probe registry snapshot taken around `solves` calls to
    /// `lcf()`.
    pub fn add_solves(&mut self, summary: Summary, solves: u64) {
        self.add_summary(summary);
        self.solves += solves;
    }

    fn add_summary(&mut self, from: Summary) {
        for (name, v) in from.counters {
            match self.summary.counters.iter_mut().find(|(n, _)| *n == name) {
                Some((_, total)) => *total += v,
                None => self.summary.counters.push((name, v)),
            }
        }
        for (name, h) in from.hists {
            match self.summary.hists.iter_mut().find(|(n, _)| *n == name) {
                Some((_, total)) => total.merge(&h),
                None => self.summary.hists.push((name, h)),
            }
        }
    }

    /// Folds another pool in.
    pub fn absorb(&mut self, other: Pool) {
        self.write.extend(other.write);
        self.read.extend(other.read);
        self.late.extend(other.late);
        self.hits += other.hits;
        self.queries += other.queries;
        self.wait.extend(other.wait);
        self.encode.extend(other.encode);
        self.socket_write.extend(other.socket_write);
        self.decode.extend(other.decode);
        let room = KEEP_FRAMES.saturating_sub(self.requests.len());
        self.requests.extend(other.requests.into_iter().take(room));
        let room = KEEP_FRAMES.saturating_sub(self.replies.len());
        self.replies.extend(other.replies.into_iter().take(room));
        self.bytes += other.bytes;
        self.answered += other.answered;
        self.attempted += other.attempted;
        self.writes += other.writes;
        self.joins += other.joins;
        self.admitted += other.admitted;
        self.gen_cpu_ns += other.gen_cpu_ns;
        self.daemon_cpu_ns += other.daemon_cpu_ns;
        if self.shard_writes.len() < other.shard_writes.len() {
            self.shard_writes.resize(other.shard_writes.len(), 0);
        }
        for (total, w) in self.shard_writes.iter_mut().zip(&other.shard_writes) {
            *total += w;
        }
        self.nash_gap = self.nash_gap.max(other.nash_gap);
        self.add_solves(other.summary, other.solves);
    }

    /// Records the latency percentiles and the edge hit ratio, each with
    /// its sample count, and the generator's p99 lateness beside them: a
    /// late generator means the latencies measure the generator, not the
    /// daemon.
    pub fn record(&mut self, rep: &mut Report) {
        for (v, p50, p99) in [
            (&mut self.write, "write_p50_ms", "write_p99_ms"),
            (&mut self.read, "read_p50_ms", "read_p99_ms"),
        ] {
            let n = v.len();
            rep.set_n(p50, pct(v, 0.50, 1e6), n);
            rep.set_n(p99, pct(v, 0.99, 1e6), n);
        }
        rep.set_n(
            "hit_ratio",
            self.hits as f64 / self.queries.max(1) as f64,
            self.queries,
        );
        let n = self.late.len();
        rep.set_n("gen.late_p99_ms", pct(&mut self.late, 0.99, 1e6), n);
        rep.set_n(
            "cpu_us_per_op",
            self.daemon_cpu_ns as f64 / 1e3 / self.attempted.max(1) as f64,
            self.attempted as usize,
        );
    }

    /// Records every per-layer metric that the client and the probes
    /// give: generator, client codec and socket, daemon CPU, market,
    /// shard, demand, and the mechanism (`appro`, `core`, `gap`, per
    /// `lcf()` call). Counts are totals over the run's traced windows.
    pub fn record_layers(&mut self, rep: &mut Report) {
        rep.set("gen.cpu_s", self.gen_cpu_ns as f64 / 1e9);
        let n = self.wait.len();
        rep.set_n("client.wait_ms_p50", pct(&mut self.wait, 0.50, 1e6), n);
        rep.set_n("client.wait_ms_p99", pct(&mut self.wait, 0.99, 1e6), n);
        for (name, v) in [
            ("client.encode_us", &mut self.encode),
            ("client.write_us", &mut self.socket_write),
            ("client.decode_us", &mut self.decode),
        ] {
            let n = v.len();
            rep.set_n(name, pct(v, 0.50, 1e3), n);
        }
        rep.set(
            "proto.bytes_per_op",
            self.bytes as f64 / self.answered.max(1) as f64,
        );
        let (parse_ns, encode_ns) = codec_timings(&self.requests, &self.replies);
        rep.set_n("proto.parse_request_ns", parse_ns, self.requests.len());
        rep.set_n("proto.encode_response_ns", encode_ns, self.replies.len());

        let s = &self.summary;
        let counter = |name: &str| s.counter(name).unwrap_or(0) as f64;
        let writes = self.writes.max(1) as f64;
        let batch = hist_of(s, "serve.drain.batch");
        let depth = hist_of(s, "serve.drain.depth");
        let publish = hist_of(s, "serve.publish.");
        rep.set_n("market.batch_mean", batch.mean(), batch.count() as usize);
        rep.set_n(
            "market.depth_p99",
            depth.percentile(0.99) as f64,
            depth.count() as usize,
        );
        let pn = publish.count() as usize;
        rep.set_n(
            "market.publish_us_p50",
            publish.percentile(0.50) as f64 / 1e3,
            pn,
        );
        rep.set_n(
            "market.publish_us_p99",
            publish.percentile(0.99) as f64 / 1e3,
            pn,
        );
        rep.set(
            "market.publishes_per_write",
            publish.count() as f64 / writes,
        );
        let quanta = counter("serve.epoch");
        rep.set("market.quanta_per_write", quanta / writes);
        rep.set(
            "market.moves_per_quantum",
            counter("serve.epoch.moves") / quanta.max(1.0),
        );
        rep.set_n(
            "market.admit_ratio",
            self.admitted as f64 / self.joins.max(1) as f64,
            self.joins as usize,
        );
        rep.set("market.evictions", counter("serve.update.evicted"));
        rep.set("shard.routed_ratio", counter("serve.shard.route") / writes);
        rep.set("shard.migrations", counter("serve.shard.migrate"));
        let skew = match (
            self.shard_writes.iter().max(),
            self.shard_writes.iter().min(),
        ) {
            (Some(&hi), Some(&lo)) if self.shard_writes.len() > 1 => hi as f64 / lo.max(1) as f64,
            _ => 1.0,
        };
        rep.set("shard.write_skew", skew);
        rep.set("shard.nash_gap", self.nash_gap);
        rep.set("demand.recaches", counter("serve.recache"));

        let solves = self.solves.max(1) as f64;
        let per_solve = |name: &str, scale: f64| {
            s.hist(name)
                .map_or(0.0, |h| h.sum() as f64 / scale / solves)
        };
        rep.set("appro.pricing_ms", per_solve("appro.pricing", 1e6));
        rep.set("appro.repair_ms", per_solve("appro.repair", 1e6));
        rep.set("appro.polish_ms", per_solve("appro.polish", 1e6));
        rep.set("core.dynamics_ms", per_solve("core.dynamics.run", 1e6));
        rep.set(
            "core.local_search.moves",
            counter("core.local_search.moves") / solves,
        );
        rep.set("gap.lp_relax_s", per_solve("gap.lp_relax", 1e9));
        rep.set("gap.round_ms", per_solve("gap.round", 1e6));
        rep.set("gap.rounding_slots", counter("gap.rounding_slots") / solves);
    }
}

fn pct(v: &mut [u64], q: f64, scale: f64) -> f64 {
    quantile(v, q).map_or(0.0, |x| x as f64 / scale)
}

fn hist_of(summary: &Summary, prefix: &str) -> Histogram {
    let mut h = Histogram::new();
    for (name, hist) in &summary.hists {
        if name.starts_with(prefix) {
            h.merge(hist);
        }
    }
    h
}

/// Mean time of the daemon's `parse_request` and `encode_response` over
/// the run's recorded frames.
fn codec_timings(requests: &[String], replies: &[String]) -> (f64, f64) {
    let replies: Vec<Response> = replies
        .iter()
        .filter_map(|f| proto::parse_response(f).ok())
        .collect();
    let t0 = Instant::now();
    let parsed = requests
        .iter()
        .filter(|r| proto::parse_request(std::hint::black_box(r)).is_ok())
        .count();
    let t1 = Instant::now();
    let bytes: usize = replies
        .iter()
        .map(|r| proto::encode_response(std::hint::black_box(r)).len())
        .sum();
    let t2 = Instant::now();
    std::hint::black_box((parsed, bytes));
    (
        (t1 - t0).as_nanos() as f64 / requests.len().max(1) as f64,
        (t2 - t1).as_nanos() as f64 / replies.len().max(1) as f64,
    )
}
