//! The serve workload: an in-process daemon driven over loopback TCP.

use std::time::{Duration, Instant};

use mec_core::game::IMPROVEMENT_TOL;
use mec_core::model::Market;
use mec_core::{check_capacity, check_nash, GameState, ProviderId, Violation};
use mec_obs::Summary;
use mec_serve::market::MarketOutcome;
use mec_serve::proto::{Request, Response};
use mec_serve::{drain_bench, serve, Client, DrainConfig, ServerConfig, ServerHandle};
use mec_workload::{gtitm_scenario, Params};

use crate::loadgen::{self, LoadRun, Sent};
use crate::measure::{cpu_delta_ns, median, other_threads_cpu_ns, peak_rss_mb, HostSpeed};
use crate::pool::Pool;
use crate::report::{Report, Span};
use crate::schedule::{self, Op, Schedule, SUBRUN_SECONDS};

/// GT-ITM network size of the serve market.
pub const SIZE: usize = 200;
/// Providers in the serve market.
pub const PROVIDERS: usize = 1000;
/// Seed of the serve market. The market is part of the workload; the
/// run's seed draws the traffic, so run-to-run spread measures the
/// system rather than the market draw.
pub const MARKET_SEED: u64 = 1;
/// Commands of the socket-free drain bench in traced runs.
const DRAIN_COMMANDS: usize = 20_000;

/// Market shards (writer threads) of `serve_churn`.
pub const SHARDS: usize = 2;
/// Offered requests per second of `serve_churn`. At 30k req/s the daemon
/// and the generator kept about 1.7 of the 2 cores busy, and latency
/// near saturation follows the shared host's speed: its medians moved by
/// half between sets of runs.
pub const RATE: u64 = 10_000;

/// Set-up phase timings.
#[derive(Debug, Clone, Copy)]
pub struct SetupTimes {
    /// Market (topology + providers) generation.
    pub market: Duration,
    /// Daemon boot and control connection.
    pub boot: Duration,
    /// Warm-up joins through equilibrium.
    pub warm: Duration,
}

impl SetupTimes {
    /// Whole set-up.
    pub fn total(&self) -> Duration {
        self.market + self.boot + self.warm
    }
}

/// A booted, warmed-up daemon.
pub struct Live {
    /// The market the daemon was booted with.
    pub market: Market,
    /// The daemon.
    pub handle: ServerHandle,
    /// The control connection (stats and shutdown).
    pub control: Client,
    /// Providers admitted at the end of warm-up.
    pub admitted: Vec<bool>,
    /// How long each part took.
    pub times: SetupTimes,
}

/// Generates the market, boots the daemon and joins `warm`, then waits
/// for equilibrium.
///
/// # Errors
///
/// Boot, transport or protocol failures.
pub fn boot(warm: &[u32]) -> Result<Live, String> {
    let t0 = Instant::now();
    let scenario = gtitm_scenario(
        SIZE,
        &Params::paper().with_providers(PROVIDERS),
        MARKET_SEED,
    );
    let regions = Some(scenario.net.regions(SHARDS));
    let market = scenario.generated.market;
    let t1 = Instant::now();
    let cfg = ServerConfig {
        shards: SHARDS,
        regions,
        ..ServerConfig::default()
    };
    let mut live = start(market, &cfg, warm)?;
    live.times.market = t1 - t0;
    Ok(live)
}

/// Boots a daemon on `market` with `cfg`, joins `warm` and waits for
/// equilibrium (market generation time left at 0).
///
/// # Errors
///
/// Boot, transport or protocol failures.
pub fn start(market: Market, cfg: &ServerConfig, warm: &[u32]) -> Result<Live, String> {
    let n = market.provider_count();
    let t1 = Instant::now();
    let handle = serve(market.clone(), cfg).map_err(|e| format!("daemon boot: {e}"))?;
    let mut control =
        Client::connect(handle.addr()).map_err(|e| format!("control connect: {e}"))?;
    control
        .set_timeout(Some(Duration::from_secs(30)))
        .map_err(|e| e.to_string())?;
    let t2 = Instant::now();
    let mut admitted = vec![false; n];
    for chunk in warm.chunks(256) {
        let reqs: Vec<Request> = chunk
            .iter()
            .map(|&p| Request::Join {
                provider: p as usize,
                cloudlet: None,
            })
            .collect();
        let replies = control
            .pipeline(&reqs)
            .map_err(|e| format!("warm-up: {e}"))?;
        for ((resp, _), &p) in replies.iter().zip(chunk) {
            match resp {
                Response::Admitted { .. } => admitted[p as usize] = true,
                Response::Rejected { .. } => {}
                other => return Err(format!("warm-up join of {p}: {other:?}")),
            }
        }
    }
    wait_for_equilibrium(&mut control)?;
    let t3 = Instant::now();
    Ok(Live {
        market,
        handle,
        control,
        admitted,
        times: SetupTimes {
            market: Duration::ZERO,
            boot: t2 - t1,
            warm: t3 - t2,
        },
    })
}

impl Live {
    /// Shuts the daemon down without a timed phase.
    ///
    /// # Errors
    ///
    /// A failed shutdown request.
    pub fn stop(mut self) -> Result<(), String> {
        self.control
            .shutdown()
            .map_err(|e| format!("shutdown: {e}"))?;
        drop(self.control);
        self.handle.join();
        Ok(())
    }
}

fn wait_for_equilibrium(control: &mut Client) -> Result<(), String> {
    let give_up = Instant::now() + Duration::from_secs(60);
    loop {
        let st = control.stats().map_err(|e| format!("stats: {e}"))?;
        if st.equilibrium {
            return Ok(());
        }
        if Instant::now() > give_up {
            return Err("daemon did not reach equilibrium within 60 s".to_string());
        }
        std::thread::sleep(Duration::from_micros(200));
    }
}

/// What a timed phase left behind.
pub struct Served {
    /// The generator's records.
    pub run: LoadRun,
    /// The drained daemon's placement.
    pub outcome: MarketOutcome,
    /// The boot market with every acknowledged demand update applied.
    pub market: Market,
    /// Probe registry over the timed phase (empty when untraced).
    pub summary: Summary,
    /// Writes each shard settled during the timed phase.
    pub shard_writes: Vec<u64>,
    /// CPU of the daemon's threads during the timed phase.
    pub daemon_cpu_ns: u64,
}

/// Runs `schedule` against a warmed-up daemon, then drains it.
///
/// # Errors
///
/// Connection or control failures (request failures are recorded, not
/// returned).
pub fn timed_phase(live: Live, schedule: &Schedule) -> Result<Served, String> {
    let Live {
        market,
        handle,
        mut control,
        admitted,
        ..
    } = live;
    let base: Vec<(f64, f64)> = market
        .providers()
        .map(|l| {
            let p = market.provider(l);
            (p.compute_demand, p.bandwidth_demand)
        })
        .collect();
    let before = control.stats().map_err(|e| format!("stats: {e}"))?;
    mec_obs::reset();
    let cpu0 = other_threads_cpu_ns();
    let run = loadgen::run(handle.addr(), schedule, &base, &admitted, crate::TRACED)
        .map_err(|e| format!("load connections: {e}"))?;
    let cpu1 = other_threads_cpu_ns();
    let summary = mec_obs::summary();
    let after = control.stats().map_err(|e| format!("stats: {e}"))?;
    control.shutdown().map_err(|e| format!("shutdown: {e}"))?;
    drop(control);
    let outcome = handle.join();

    let mut final_market = market;
    for (p, compute, bandwidth) in run.acked_updates(&schedule.ops, &base) {
        final_market.set_provider_demand(ProviderId(p), compute, bandwidth);
    }
    let shard_writes = after
        .shards
        .iter()
        .zip(&before.shards)
        .map(|(a, b)| a.writes.saturating_sub(b.writes))
        .collect();
    Ok(Served {
        run,
        outcome,
        market: final_market,
        summary,
        shard_writes,
        daemon_cpu_ns: cpu_delta_ns(&cpu0, &cpu1),
    })
}

/// Output checks of a serve phase: every request answered without a
/// transport or protocol error, an equilibrium drain, and a drained
/// placement within capacity under the updated demands.
pub fn check(served: &Served, rep: &mut Report) {
    let run = &served.run;
    for e in &run.transport_errors {
        rep.fail(format!("transport: {e}"));
    }
    if run.failed() > 0 {
        rep.fail(format!(
            "{} of {} requests failed (errors, missing replies or never sent)",
            run.failed(),
            run.attempted()
        ));
    }
    if !served.outcome.equilibrium {
        rep.fail("the drained daemon is not at equilibrium".to_string());
    }
    for v in check_capacity(&served.market, &served.outcome.profile) {
        rep.fail(format!("drained placement: {v}"));
    }
    for v in &served.outcome.violations {
        rep.fail(format!("drain certificate: {v}"));
    }
    rep.attempted += run.attempted();
    rep.failed += run.failed();
}

/// The largest cost any active provider would save by a unilateral move
/// anywhere in the whole market (0 at a global Nash equilibrium).
pub fn nash_gap(market: &Market, outcome: &MarketOutcome) -> f64 {
    check_nash(market, &outcome.profile, &outcome.active, IMPROVEMENT_TOL)
        .iter()
        .filter_map(|v| match v {
            Violation::ProfitableDeviation {
                current_cost,
                deviation_cost,
                ..
            } => Some(current_cost - deviation_cost),
            _ => None,
        })
        .fold(0.0, f64::max)
}

/// Eq. 6 over the active providers of the drained placement.
pub fn social_cost(market: &Market, outcome: &MarketOutcome) -> f64 {
    GameState::new(market, outcome.profile.clone())
        .subset_cost(market.providers().filter(|l| outcome.active[l.index()]))
}

/// Request spans of a traced phase: `request` (scheduled send → reply)
/// with children `encode`, `socket_write`, `wait` and `decode`.
pub fn request_spans(run: &LoadRun, ops: &[Op], origin: Instant) -> Vec<Span> {
    let off = run.clock.0.saturating_duration_since(origin).as_nanos() as u64;
    let mut spans = Vec::new();
    let mut id = 0u64;
    for log in &run.conns {
        for (s, r) in log.sent.iter().zip(&log.recv) {
            id += 1;
            let b = log.batches[s.batch as usize];
            let at = ops[s.op as usize].at_ns;
            let child = |name, start: u64, end: u64| Span {
                name,
                start: start + off,
                end: end + off,
                parent: id,
                request: id,
            };
            spans.push(Span {
                name: match s.kind {
                    Sent::Query => "request.query",
                    _ => "request.write",
                },
                start: at + off,
                end: r.t_recv + off,
                parent: 0,
                request: id,
            });
            spans.push(child(
                "encode",
                s.encode_at,
                s.encode_at + u64::from(s.encode_ns),
            ));
            spans.push(child("socket_write", b.t0, b.t1));
            spans.push(child("wait", b.t1, r.t_recv));
            spans.push(child(
                "decode",
                r.decode_at,
                r.decode_at + u64::from(r.decode_ns),
            ));
        }
    }
    spans
}

/// Set-up spans of one repetition, ending at `end`.
pub fn setup_spans(times: &SetupTimes, end: Instant, origin: Instant) -> Vec<Span> {
    let end_ns = end.saturating_duration_since(origin).as_nanos() as u64;
    let warm0 = end_ns - times.warm.as_nanos() as u64;
    let boot0 = warm0 - times.boot.as_nanos() as u64;
    let market0 = boot0 - times.market.as_nanos() as u64;
    let span = |name, start, end| Span {
        name,
        start,
        end,
        parent: 0,
        request: 0,
    };
    vec![
        span("setup.market", market0, boot0),
        span("setup.boot", boot0, warm0),
        span("setup.warm", warm0, end_ns),
    ]
}

/// Records the set-up medians over `setups`, normalized to the reference
/// host: generating the market and warming the daemon up are CPU-bound.
pub fn record_setup(setups: &[SetupTimes], host: &HostSpeed, rep: &mut Report) {
    let med = |f: fn(&SetupTimes) -> Duration| {
        median(
            &setups
                .iter()
                .map(|t| f(t).as_secs_f64())
                .collect::<Vec<_>>(),
        )
    };
    let n = setups.len();
    host.record(rep, "setup_s", med(SetupTimes::total), n);
    rep.set_n("setup.market_s", med(|t| t.market) * host.factor(), n);
    rep.set_n("setup.boot_s", med(|t| t.boot) * host.factor(), n);
    rep.set_n("setup.warm_s", med(|t| t.warm) * host.factor(), n);
}

/// Sub-runs in a run of `seconds` (one per [`SUBRUN_SECONDS`], at least
/// one). Each boots its own daemon and replays its own schedule of
/// [`SUBRUN_SECONDS`], so the shape of a sub-run never depends on the run
/// length; the run pools their samples.
pub fn subrun_count(seconds: f64) -> usize {
    ((seconds / SUBRUN_SECONDS).round() as usize).max(1)
}

/// Seed of sub-run `k` of a run seeded `seed`.
pub fn sub_seed(seed: u64, k: usize) -> u64 {
    seed.wrapping_mul(1 << 16).wrapping_add(k as u64)
}

/// Set-ups per sub-run: all but the last are timed and shut down again,
/// so a run's set-up medians rest on twice as many samples as it has
/// sub-runs.
const SETUPS: usize = 2;

/// What one sub-run leaves for the run.
pub struct Part {
    /// Its samples.
    pub pool: Pool,
    /// Its set-ups.
    pub setups: Vec<SetupTimes>,
    /// Eq. 6 cost of its drained placement.
    pub social_cost: f64,
}

/// Runs a serve workload: [`subrun_count`] sub-runs, latencies pooled
/// over them, set-up and cost the median over them. A reference pass
/// before each sub-run gauges the host's speed.
///
/// # Errors
///
/// Boot or control-connection failures.
pub fn run(seed: u64, seconds: f64, origin: Instant, rep: &mut Report) -> Result<(), String> {
    let mut host = HostSpeed::default();
    let mut pool = Pool::default();
    let mut setups = Vec::new();
    let mut costs = Vec::new();
    for k in 0..subrun_count(seconds) {
        host.sample();
        let part = sub_run(sub_seed(seed, k), origin, k == 0, rep)?;
        pool.absorb(part.pool);
        setups.extend(part.setups);
        costs.push(part.social_cost);
    }
    pool.record(rep);
    rep.set_n("social_cost", median(&costs), costs.len());
    host.note(rep);
    record_setup(&setups, &host, rep);
    // The daemon's solve: admitting the warm-up set from an empty market
    // through to equilibrium.
    let solves: Vec<f64> = setups.iter().map(|t| t.warm.as_secs_f64()).collect();
    host.record(rep, "solve_s", median(&solves), solves.len());
    rep.set("peak_rss_mb", peak_rss_mb());
    if crate::TRACED {
        pool.record_layers(rep);
        let scenario = gtitm_scenario(
            SIZE,
            &Params::paper().with_providers(PROVIDERS),
            MARKET_SEED,
        );
        let regions = Some(scenario.net.regions(SHARDS));
        record_drain(scenario.generated.market, regions, SHARDS, seed, rep)?;
    }
    Ok(())
}

/// `market.drain_us_per_write`: the socket-free drain bench on a
/// workload's market and shard count.
///
/// # Errors
///
/// A drain bench failure.
pub fn record_drain(
    market: Market,
    regions: Option<Vec<usize>>,
    shards: usize,
    seed: u64,
    rep: &mut Report,
) -> Result<(), String> {
    let drain = drain_bench(
        market,
        regions,
        &DrainConfig {
            shards,
            commands: DRAIN_COMMANDS,
            seed,
            ..DrainConfig::default()
        },
    )
    .map_err(|e| format!("drain bench: {e}"))?;
    rep.set(
        "market.drain_us_per_write",
        drain.elapsed.as_secs_f64() * 1e6 / drain.commands.max(1) as f64,
    );
    Ok(())
}

/// One sub-run; `spans` keeps its request spans (traced builds), which
/// the first sub-run of a run does.
fn sub_run(seed: u64, origin: Instant, spans: bool, rep: &mut Report) -> Result<Part, String> {
    let schedule = schedule::churn(seed, PROVIDERS, RATE, SUBRUN_SECONDS);
    rep.note(format!(
        "schedule {seed}: {} ops ({} writes), {} warm-up joins, fingerprint {:016x}",
        schedule.ops.len(),
        schedule.writes(),
        schedule.warm.len(),
        schedule.fingerprint()
    ));
    let mut setups = Vec::with_capacity(SETUPS);
    for _ in 1..SETUPS {
        let live = boot(&schedule.warm)?;
        setups.push(live.times);
        rep.spans
            .extend(setup_spans(&live.times, Instant::now(), origin));
        live.stop()?;
    }
    let live = boot(&schedule.warm)?;
    setups.push(live.times);
    rep.spans
        .extend(setup_spans(&live.times, Instant::now(), origin));
    let served = timed_phase(live, &schedule)?;
    check(&served, rep);
    if crate::TRACED && spans {
        rep.spans
            .extend(request_spans(&served.run, &schedule.ops, origin));
    }
    let mut pool = Pool::default();
    pool.add(&served, &schedule.ops);
    Ok(Part {
        pool,
        setups,
        social_cost: social_cost(&served.market, &served.outcome),
    })
}
