//! `lcf_solve`: the mechanism (`mec-core` LCF on top of `mec-gap`),
//! called directly and solved repeatedly.
//!
//! Each repeat generates the market and solves it. The LCF placement is
//! also deployed: a 1-shard daemon boots from a snapshot of it and serves
//! an open-loop churn probe, so the run also reports the read and write
//! latencies and the edge hit ratio that providers see of the mechanism's
//! market. Slices of solves alternate with the probe's sub-runs, so the
//! solves sample the host over the whole run, and a reference pass
//! before each solve and each sub-run gauges the host's speed: on a
//! shared host one solve's time moves by a third with a neighbour's
//! load, for seconds at a time. The per-layer (traced) windows are the `lcf()` calls and the
//! probe's timed phases.

use std::path::Path;
use std::time::{Duration, Instant};

use mec_core::game::IMPROVEMENT_TOL;
use mec_core::model::Market;
use mec_core::{
    check_capacity, check_cost_reconstruction, check_nash, lcf, save_snapshot, LcfConfig,
    LcfOutcome,
};
use mec_serve::ServerConfig;
use mec_workload::{gtitm_scenario, Params};

use crate::measure::{median, peak_rss_mb, HostSpeed};
use crate::pool::Pool;
use crate::report::{Report, Span};
use crate::schedule::{self, SUBRUN_SECONDS};
use crate::serve::{self, MARKET_SEED};

/// GT-ITM network size of the LCF market.
pub const SIZE: usize = 250;
/// Providers in the LCF market.
pub const PROVIDERS: usize = 300;
/// Coordinated share ξ.
pub const XI: f64 = 0.7;
/// Offered rate of the deploy probe.
pub const PROBE_RATE: u64 = 10_000;
/// Share of the run spent solving (about 22 solves in a 45 s run); the
/// deploy probe gets the rest.
const SOLVE_SHARE: f64 = 0.5;

fn span(name: &'static str, start: Instant, end: Instant, origin: Instant) -> Span {
    let ns = |t: Instant| t.saturating_duration_since(origin).as_nanos() as u64;
    Span {
        name,
        start: ns(start),
        end: ns(end),
        parent: 0,
        request: 0,
    }
}

/// The solves of a run and what they measured.
struct Solves {
    cfg: LcfConfig,
    origin: Instant,
    pool: Pool,
    /// Market generation time of each repeat.
    setups: Vec<f64>,
    times: Vec<f64>,
    host: HostSpeed,
    costs: Vec<f64>,
    first: Option<(Market, LcfOutcome)>,
}

impl Solves {
    /// Generates the market and solves it, repeatedly, until the solves
    /// of the run have taken `budget` in all (the first call solves at
    /// least once).
    fn solve_until(&mut self, budget: Duration, rep: &mut Report) -> Result<(), String> {
        while self.first.is_none() || self.times.iter().sum::<f64>() < budget.as_secs_f64() {
            self.host.sample();
            let t0 = Instant::now();
            let market = gtitm_scenario(
                SIZE,
                &Params::paper().with_providers(PROVIDERS),
                MARKET_SEED,
            )
            .generated
            .market;
            let t1 = Instant::now();
            self.setups.push((t1 - t0).as_secs_f64());
            rep.spans.push(span("setup.market", t0, t1, self.origin));
            // The traced window: the lcf() call.
            mec_obs::reset();
            let t2 = Instant::now();
            let out = lcf(&market, &self.cfg).map_err(|e| format!("lcf: {e}"))?;
            let t3 = Instant::now();
            self.pool.add_solves(mec_obs::summary(), 1);
            self.times.push((t3 - t2).as_secs_f64());
            rep.spans.push(span("lcf", t2, t3, self.origin));
            rep.attempted += 1;
            self.costs.push(out.social_cost);
            self.first.get_or_insert((market, out));
        }
        Ok(())
    }
}

/// Runs `lcf_solve`.
///
/// # Errors
///
/// A failed solve, or a deploy-probe boot or connection failure.
pub fn run(
    seed: u64,
    seconds: f64,
    origin: Instant,
    out_dir: &Path,
    rep: &mut Report,
) -> Result<(), String> {
    let count = serve::subrun_count(seconds * (1.0 - SOLVE_SHARE));
    // Solving time allowed up to the probe's k-th sub-run.
    let budget = |k: usize| {
        Duration::from_secs_f64(seconds * SOLVE_SHARE * (k + 1) as f64 / (count + 1) as f64)
    };
    let mut solves = Solves {
        cfg: LcfConfig::new(XI),
        origin,
        pool: Pool::default(),
        setups: Vec::new(),
        times: Vec::new(),
        host: HostSpeed::default(),
        costs: Vec::new(),
        first: None,
    };
    solves.solve_until(budget(0), rep)?;
    let (market, out) = solves.first.clone().expect("solve_until solves");

    for v in check_capacity(&market, &out.profile) {
        rep.fail(format!("LCF placement: {v}"));
    }
    let mut selfish = vec![true; market.provider_count()];
    for l in &out.coordinated {
        selfish[l.index()] = false;
    }
    for v in check_nash(&market, &out.profile, &selfish, IMPROVEMENT_TOL) {
        rep.fail(format!("LCF selfish providers: {v}"));
    }
    for v in check_cost_reconstruction(&market, &out.profile, out.social_cost, 1e-9) {
        rep.fail(format!("LCF cost: {v}"));
    }

    // Each probe sub-run follows solves that keep the solving share; its
    // timed phase is a traced window too.
    let mut probe = Pool::default();
    let mut boots = Vec::new();
    let mut warms = Vec::new();
    for k in 0..count {
        solves.solve_until(budget(k + 1), rep)?;
        solves.host.sample();
        let part = deploy(&market, &out, serve::sub_seed(seed, k), out_dir, rep)?;
        for t in &part.setups {
            boots.push(t.boot.as_secs_f64());
            warms.push(t.warm.as_secs_f64());
        }
        probe.absorb(part.pool);
    }
    let mut pool = solves.pool;
    pool.absorb(probe);
    if solves
        .costs
        .iter()
        .any(|c| c.to_bits() != out.social_cost.to_bits())
    {
        rep.fail(format!(
            "repeated solves disagree on social cost: {:?}",
            solves.costs
        ));
    }
    let host = &solves.host;
    host.note(rep);
    host.record(rep, "solve_s", median(&solves.times), solves.times.len());
    rep.set("social_cost", out.social_cost);
    host.record(rep, "setup_s", median(&solves.setups), solves.setups.len());
    rep.set_n(
        "setup.market_s",
        median(&solves.setups) * host.factor(),
        solves.setups.len(),
    );
    pool.record(rep);
    rep.set_n("setup.boot_s", median(&boots) * host.factor(), boots.len());
    rep.set_n("setup.warm_s", median(&warms) * host.factor(), warms.len());
    rep.set("peak_rss_mb", peak_rss_mb());
    if crate::TRACED {
        pool.record_layers(rep);
        serve::record_drain(market, None, 1, seed, rep)?;
    }
    Ok(())
}

/// Boots a 1-shard daemon from a snapshot of LCF's placement (every
/// provider active) and drives the churn mix at [`PROBE_RATE`] for one
/// sub-run.
fn deploy(
    market: &Market,
    out: &LcfOutcome,
    seed: u64,
    out_dir: &Path,
    rep: &mut Report,
) -> Result<serve::Part, String> {
    let n = market.provider_count();
    std::fs::create_dir_all(out_dir).map_err(|e| format!("{}: {e}", out_dir.display()))?;
    let path = out_dir.join("lcf_solve.snapshot");
    save_snapshot(&path, 0, market, &out.profile, &vec![true; n])
        .map_err(|e| format!("snapshot: {e}"))?;
    let cfg = ServerConfig {
        snapshot_path: Some(path.clone()),
        ..ServerConfig::default()
    };
    let mut live = serve::start(market.clone(), &cfg, &[])?;
    live.admitted = vec![true; n];
    let setup = live.times;
    let schedule = schedule::churn(seed, n, PROBE_RATE, SUBRUN_SECONDS);
    let served = serve::timed_phase(live, &schedule)?;
    let _ = std::fs::remove_file(&path);
    serve::check(&served, rep);
    let mut pool = Pool::default();
    pool.add(&served, &schedule.ops);
    Ok(serve::Part {
        pool,
        setups: vec![setup],
        social_cost: serve::social_cost(&served.market, &served.outcome),
    })
}
