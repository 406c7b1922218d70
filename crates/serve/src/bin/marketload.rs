//! `marketload` — load generator for the `mec-serve` daemon.
//!
//! ```text
//! marketload <addr> [flags]        drive an already-running daemon
//! marketload --smoke [flags]       boot an in-process daemon on an
//!                                  ephemeral port, drive it, drain it
//! marketload --direct [flags]      socket-free data-plane drain bench:
//!                                  feed a seeded churn stream straight
//!                                  into the shard queues and time the
//!                                  drain (the CI shard-scaling gate)
//! marketload --direct --scenario K replay a generated dynamic-popularity
//!                                  trace (K = diurnal|flash|drift) against
//!                                  one live writer and report hit rate /
//!                                  re-caches (the CI scenario smoke cell)
//!
//! flags:
//!   --sessions N    concurrent sessions           (default 8)
//!   --epochs N      churn epochs per session      (default 20)
//!   --queries N     queries per session per epoch (default 4)
//!   --seed S        base RNG seed                 (default 1)
//!   --out PATH      write the JSON report here    (default BENCH_serve.json;
//!                   debug and --obs runs divert to BENCH_serve.local.json —
//!                   the checked-in artifact records release timings only)
//!   --obs PATH      capture an observability trace (needs --features obs)
//!   --providers N   provider universe, smoke only (default 100)
//!   --size N        network size, smoke only      (default 100)
//!   --snapshot P    daemon snapshot file, smoke only
//!   --shards N      market shards, smoke/direct   (default 1); regions
//!                   derive from the scenario topology
//!   --commands N    churn commands, direct only   (default 100000)
//!   --scenario K    direct only: replay trace K (diurnal|flash|drift)
//!                   instead of the churn drain; --epochs and --queries
//!                   become trace epochs / requests per epoch
//!   --admin-port P  HTTP admin surface, smoke only (default off; 0 with
//!                   --scrape picks an ephemeral port)
//!   --scrape        scrape GET /metrics at 1 Hz during the smoke load and
//!                   report how many scrapes returned well-formed
//!                   Prometheus text (implies an admin listener)
//! ```
//!
//! In `--smoke` mode the exit code reflects the full acceptance check:
//! non-zero if any session hit a transport error, any drained-placement
//! certificate failed (with `--features verify`), or the final state was
//! not an equilibrium of the active providers.

#![forbid(unsafe_code)]

use std::path::PathBuf;
use std::process::exit;

use mec_serve::{
    drain_bench, run_load, run_scenario, serve, Client, DrainConfig, LoadConfig, ServerConfig,
};
use mec_workload::{gtitm_scenario, Params};

fn flag_value(args: &[String], name: &str) -> Option<String> {
    args.iter()
        .position(|a| a == name)
        .and_then(|i| args.get(i + 1))
        .cloned()
}

fn parse_flag<T: std::str::FromStr>(args: &[String], name: &str, default: T) -> T {
    match flag_value(args, name) {
        None => default,
        Some(raw) => raw.parse().unwrap_or_else(|_| {
            eprintln!("invalid {name} '{raw}' (expected a number)");
            exit(2);
        }),
    }
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let smoke = args.iter().any(|a| a == "--smoke");
    let direct = args.iter().any(|a| a == "--direct");
    let addr = args.first().filter(|a| !a.starts_with("--")).cloned();
    if addr.is_none() && !smoke && !direct {
        eprintln!("usage: marketload <addr|--smoke|--direct> [--sessions N] [--epochs N]");
        eprintln!("                  [--seed S] [--out PATH] [--obs PATH] [--providers N]");
        eprintln!("                  [--size N] [--snapshot PATH] [--shards N] [--commands N]");
        exit(2);
    }
    if direct {
        exit(run_direct(&args));
    }
    let defaults = LoadConfig::default();
    let cfg = LoadConfig {
        sessions: parse_flag(&args, "--sessions", 8),
        epochs: parse_flag(&args, "--epochs", 20),
        queries_per_epoch: parse_flag(&args, "--queries", defaults.queries_per_epoch),
        seed: parse_flag(&args, "--seed", 1),
        ..defaults
    };
    let mut out_path = flag_value(&args, "--out").unwrap_or_else(|| "BENCH_serve.json".to_string());
    let obs_trace = flag_value(&args, "--obs");
    // BENCH_serve.json is a release-timing artifact; debug builds and
    // armed obs probes both sit inside the timed request loops, so such
    // runs must not overwrite it (same guard as sweepbench).
    if out_path == "BENCH_serve.json" && (cfg!(debug_assertions) || obs_trace.is_some()) {
        eprintln!(
            "note: debug/--obs run; writing BENCH_serve.local.json instead of BENCH_serve.json"
        );
        out_path = "BENCH_serve.local.json".to_string();
    }
    if let Some(trace) = obs_trace {
        if let Err(e) = mec_obs::install_file(std::path::Path::new(&trace)) {
            eprintln!("cannot open obs trace {trace}: {e}");
            exit(1);
        }
    }

    let status = if smoke {
        run_smoke(&args, &cfg, &out_path)
    } else {
        run_remote(&addr.unwrap_or_default(), &cfg, &out_path)
    };
    mec_obs::flush();
    exit(status);
}

/// The socket-free data-plane drain bench (see `mec_serve::drain`):
/// writes the flat JSON row the `cargo xtask tailgate scale` gate
/// compares across shard counts.
fn run_direct(args: &[String]) -> i32 {
    if let Some(kind) = flag_value(args, "--scenario") {
        return run_scenario_mode(args, &kind);
    }
    let providers: usize = parse_flag(args, "--providers", 2000);
    let size: usize = parse_flag(args, "--size", 2000);
    let seed: u64 = parse_flag(args, "--seed", 1);
    let scenario = gtitm_scenario(size, &Params::paper().with_providers(providers), seed);
    let cloudlets = scenario.generated.market.cloudlet_count();
    let shards: usize = parse_flag(args, "--shards", 1).clamp(1, cloudlets.max(1));
    let regions = (shards > 1).then(|| scenario.net.regions(shards));
    let cfg = DrainConfig {
        shards,
        commands: parse_flag(args, "--commands", 100_000),
        seed,
    };
    let report = match drain_bench(scenario.generated.market, regions, &cfg) {
        Ok(r) => r,
        Err(e) => {
            eprintln!("drain bench failed: {e}");
            return 1;
        }
    };
    println!(
        "{} commands drained in {:.3}s  ({:.0} write ops/s, {} shard{}, {} epochs, {} moves)",
        report.commands,
        report.elapsed.as_secs_f64(),
        report.write_ops_per_sec(),
        report.shards,
        if report.shards == 1 { "" } else { "s" },
        report.epochs,
        report.moves,
    );
    let out_path =
        flag_value(args, "--out").unwrap_or_else(|| format!("BENCH_drain_{shards}.local.json"));
    if let Err(e) = std::fs::write(&out_path, format!("{}\n", report.to_json())) {
        eprintln!("cannot write {out_path}: {e}");
        return 1;
    }
    println!("report written to {out_path}");
    let mut status = 0;
    if !report.equilibrium {
        eprintln!("FAIL: drained placement is not an active-player equilibrium");
        status = 1;
    }
    for v in &report.violations {
        eprintln!("FAIL: certificate violation: {v}");
        status = 1;
    }
    status
}

/// Replays one generated dynamic-popularity trace against a single live
/// writer thread (socket-free, like the drain bench) and prints the
/// [`mec_serve::ScenarioReport`]. The CI scenario smoke cell runs this
/// with a short flash trace; exit status reflects the drain certificate.
fn run_scenario_mode(args: &[String], kind: &str) -> i32 {
    let label = match kind {
        "diurnal" => "zipf_diurnal",
        "flash" => "flash_crowd",
        "drift" => "popularity_drift",
        other => {
            eprintln!("unknown --scenario '{other}' (expected diurnal|flash|drift)");
            return 2;
        }
    };
    let providers: usize = parse_flag(args, "--providers", 40);
    let size: usize = parse_flag(args, "--size", 100);
    let seed: u64 = parse_flag(args, "--seed", 42);
    let epochs: usize = parse_flag(args, "--epochs", 12);
    let requests: usize = parse_flag(args, "--queries", 80);
    let trace = mec_scenario::standard_traces(providers, epochs, requests, seed)
        .into_iter()
        .find(|t| t.label == label)
        .expect("standard trace set always contains every kind"); // lint: allow(panics)
    let market = gtitm_scenario(size, &Params::paper().with_providers(providers), seed)
        .generated
        .market;
    let report = run_scenario(market, &trace);
    println!(
        "{}: {} requests over {} epochs  hit rate {:.3}  ({} re-caches, \
         {} joins, {} rejected, {} leaves, social cost {:.3})",
        report.label,
        report.requests,
        report.epochs,
        report.hit_rate(),
        report.recaches,
        report.joins,
        report.rejected,
        report.leaves,
        report.final_social_cost,
    );
    let mut status = 0;
    if !report.equilibrium {
        eprintln!("FAIL: trace drained off-equilibrium");
        status = 1;
    }
    for v in &report.violations {
        eprintln!("FAIL: certificate violation: {v}");
        status = 1;
    }
    if report.requests > 0 && report.hits == 0 {
        eprintln!("FAIL: no request was ever served from cache");
        status = 1;
    }
    status
}

/// Drives an external daemon (never shuts it down).
fn run_remote(addr: &str, cfg: &LoadConfig, out_path: &str) -> i32 {
    let providers = match Client::connect(addr).and_then(|mut c| c.stats()) {
        Ok(stats) => stats.providers,
        Err(e) => {
            eprintln!("cannot reach daemon at {addr}: {e}");
            return 1;
        }
    };
    match run_load(addr, providers, cfg) {
        Ok(report) => finish(&report, out_path, false),
        Err(e) => {
            eprintln!("load run failed: {e}");
            1
        }
    }
}

/// Boots an in-process daemon on an ephemeral port, drives it, drains it,
/// and checks the drain certificates.
fn run_smoke(args: &[String], cfg: &LoadConfig, out_path: &str) -> i32 {
    let providers: usize = parse_flag(args, "--providers", 100);
    let size: usize = parse_flag(args, "--size", 100);
    let scenario = gtitm_scenario(size, &Params::paper().with_providers(providers), cfg.seed);
    let cloudlets = scenario.generated.market.cloudlet_count();
    let shards: usize = parse_flag(args, "--shards", 1).clamp(1, cloudlets.max(1));
    // Spatial regions from the scenario topology: the same proximity
    // clusters the paper's cloudlet placement implies, so cross-shard
    // traffic maps to genuinely distant cloudlets.
    let regions = (shards > 1).then(|| scenario.net.regions(shards));
    let admin_port: u16 = parse_flag(args, "--admin-port", 0);
    let scrape = args.iter().any(|a| a == "--scrape");
    let server_cfg = ServerConfig {
        snapshot_path: flag_value(args, "--snapshot").map(PathBuf::from),
        shards,
        regions,
        admin_addr: (admin_port != 0 || scrape).then(|| format!("127.0.0.1:{admin_port}")),
        ..ServerConfig::default()
    };
    let handle = match serve(scenario.generated.market, &server_cfg) {
        Ok(h) => h,
        Err(e) => {
            eprintln!("cannot boot daemon: {e}");
            return 1;
        }
    };
    let addr = handle.addr().to_string();
    println!(
        "smoke daemon on {addr} ({providers} providers, size-{size} network, {shards} shard{})",
        if shards == 1 { "" } else { "s" }
    );
    if let Some(admin) = handle.admin_addr() {
        println!("admin surface on http://{admin}");
    }
    let scraper = match (scrape, handle.admin_addr()) {
        (true, Some(admin)) => Some(spawn_scraper(admin)),
        _ => None,
    };

    let load_result = run_load(&addr, providers, cfg);
    let scrape_status = scraper.map_or(0, Scraper::finish);
    let report = match load_result {
        Ok(r) => r,
        Err(e) => {
            eprintln!("load run failed: {e}");
            // Still drain the daemon so the process exits cleanly.
            let _ = Client::connect(&addr).and_then(|mut c| c.shutdown());
            let _ = handle.join();
            return 1;
        }
    };
    if let Err(e) = Client::connect(&addr).and_then(|mut c| c.shutdown()) {
        eprintln!("shutdown request failed: {e}");
        return 1;
    }
    let outcome = handle.join();
    let mut status = finish(&report, out_path, true).max(scrape_status);
    println!(
        "drained at seq {} after {} epochs / {} moves (equilibrium: {})",
        outcome.seq, outcome.epochs, outcome.moves, outcome.equilibrium
    );
    if !outcome.equilibrium {
        eprintln!("FAIL: drained placement is not an active-player equilibrium");
        status = 1;
    }
    for v in &outcome.violations {
        eprintln!("FAIL: certificate violation: {v}");
        status = 1;
    }
    status
}

/// A 1 Hz `GET /metrics` scraper running alongside the smoke load — the
/// realistic Prometheus-attached deployment the admin surface is sized
/// for (and the setup `EXPERIMENTS.md` uses to bound scrape overhead).
struct Scraper {
    stop: std::sync::Arc<std::sync::atomic::AtomicBool>,
    thread: std::thread::JoinHandle<(u64, u64)>,
}

/// Starts the scraper against the daemon's admin address.
fn spawn_scraper(admin: std::net::SocketAddr) -> Scraper {
    use std::sync::atomic::{AtomicBool, Ordering};
    let stop = std::sync::Arc::new(AtomicBool::new(false));
    let stop_t = stop.clone();
    // Joined via Scraper::finish before the smoke run reports.
    // lint: allow(thread-spawn)
    let thread = std::thread::spawn(move || {
        let target = admin.to_string();
        let mut attempts = 0u64;
        let mut ok = 0u64;
        loop {
            attempts += 1;
            if scrape_metrics(&target) {
                ok += 1;
            }
            // 1 Hz, slept in slices so the stop lands promptly.
            for _ in 0..20 {
                if stop_t.load(Ordering::SeqCst) {
                    return (attempts, ok);
                }
                std::thread::sleep(std::time::Duration::from_millis(50));
            }
        }
    });
    Scraper { stop, thread }
}

impl Scraper {
    /// Stops the loop and reports; non-zero when any scrape came back
    /// malformed (connection refused, non-200, or no `# TYPE` line).
    fn finish(self) -> i32 {
        self.stop.store(true, std::sync::atomic::Ordering::SeqCst);
        let Ok((attempts, ok)) = self.thread.join() else {
            eprintln!("FAIL: metrics scraper thread panicked");
            return 1;
        };
        println!("scraped /metrics {attempts} times ({ok} well-formed)");
        if ok < attempts {
            eprintln!("FAIL: {} malformed /metrics responses", attempts - ok);
            return 1;
        }
        0
    }
}

/// One `GET /metrics` round trip; true when the reply is a 200 carrying
/// at least one Prometheus `# TYPE` line.
fn scrape_metrics(admin: &str) -> bool {
    use std::io::{Read, Write};
    let Ok(mut s) = std::net::TcpStream::connect(admin) else {
        return false;
    };
    let req = format!("GET /metrics HTTP/1.1\r\nHost: {admin}\r\nConnection: close\r\n\r\n");
    if s.write_all(req.as_bytes()).is_err() {
        return false;
    }
    let mut reply = String::new();
    if s.read_to_string(&mut reply).is_err() {
        return false;
    }
    reply.starts_with("HTTP/1.1 200") && reply.contains("\n# TYPE ")
}

/// Prints the human summary, writes the JSON report, and applies the
/// error-count gate in smoke mode.
fn finish(report: &mec_serve::LoadReport, out_path: &str, smoke: bool) -> i32 {
    println!(
        "{} ops in {:.3}s  ({:.0} ops/s blended, {:.0} write ops/s), {} rejected",
        report.ops(),
        report.elapsed.as_secs_f64(),
        report.ops_per_sec(),
        report.write_ops_per_sec(),
        report.rejected
    );
    for (name, op) in [
        ("join", &report.join),
        ("leave", &report.leave),
        ("update", &report.update),
        ("query", &report.query),
    ] {
        println!(
            "  {name:<7} n={:<6} p50={}us p95={}us p99={}us max={}us p99/p50={:.1} errors={}",
            op.latency.count(),
            op.latency.percentile(0.50) / 1_000,
            op.latency.percentile(0.95) / 1_000,
            op.latency.percentile(0.99) / 1_000,
            op.latency.max() / 1_000,
            op.tail_ratio(),
            op.errors
        );
    }
    if let Err(e) = std::fs::write(out_path, format!("{}\n", report.to_json())) {
        eprintln!("cannot write {out_path}: {e}");
        return 1;
    }
    println!("report written to {out_path}");
    let errors =
        report.join.errors + report.leave.errors + report.update.errors + report.query.errors;
    if smoke && errors > 0 {
        eprintln!("FAIL: {errors} protocol errors during smoke run");
        return 1;
    }
    0
}
