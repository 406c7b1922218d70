//! `mec` — command-line driver for the service-caching reproduction.
//!
//! ```text
//! mec fig <2|3> [--quick]         regenerate a simulation figure
//!                                  (figs 5-7 are testbed figures: use the
//!                                  mec-bench binaries)
//! mec ablations [--quick]         run the DESIGN.md ablations
//! mec run [size] [providers]      one LCF-vs-baselines comparison
//! mec poa [seeds]                 empirical PoA vs Theorem 1
//! mec failure                     testbed switch-failure drill
//! mec stats <gtitm|waxman|as1755> [size]   topology statistics
//! mec dot <gtitm|waxman|as1755> [size]     Graphviz DOT of a placed network
//! mec serve [--port P] [--admin-port P] [--snapshot PATH] [--providers N] [--size N] [--shards N]
//!                                 run the live service-market daemon
//! mec load <addr> [--sessions N] [--epochs N] [--seed S] [--out PATH] [--shutdown]
//!                                 drive a running daemon with marketload
//!                                 (report to BENCH_serve.local.json unless
//!                                 --out is given)
//! ```

#![forbid(unsafe_code)]

use mec_baselines::{jo_offload_cache, offload_cache, JoConfig};
use mec_core::lcf::{lcf, LcfConfig};
use mec_core::{estimate_poa, market_poa_bound};
use mec_testbed::SwitchId;
use mec_testbed::{drill_all, Overlay, Underlay};
use mec_topology::graph_stats;
use mec_topology::gtitm::{generate as gen_ts, GtItmConfig};
use mec_topology::waxman::{generate as gen_wax, WaxmanConfig};
use mec_topology::zoo::as1755;
use mec_workload::{gtitm_scenario, Params};

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let quick = args.iter().any(|a| a == "--quick");
    match args.first().map(String::as_str) {
        Some("fig") => cmd_fig(args.get(1).map(String::as_str), quick),
        Some("ablations") => cmd_ablations(quick),
        Some("run") => cmd_run(&args[1..]),
        Some("poa") => cmd_poa(&args[1..]),
        Some("failure") => cmd_failure(),
        Some("stats") => cmd_stats(&args[1..]),
        Some("dot") => cmd_dot(&args[1..]),
        Some("serve") => cmd_serve(&args[1..]),
        Some("load") => cmd_load(&args[1..]),
        _ => {
            eprintln!(
                "usage: mec <fig N|ablations|run|poa|failure|stats|dot|serve|load> [args] [--quick]"
            );
            std::process::exit(2);
        }
    }
}

fn cmd_fig(which: Option<&str>, quick: bool) {
    let cfg = if quick {
        mec_bench_config_quick()
    } else {
        mec_bench_config_default()
    };
    let tables = match which {
        Some("2") => mec_fig(2, &cfg),
        Some("3") => mec_fig(3, &cfg),
        Some("5") | Some("6") | Some("7") => {
            eprintln!(
                "figs 5-7 are testbed figures; run `cargo run --release -p mec-bench --bin fig{}`",
                which.unwrap()
            );
            std::process::exit(2);
        }
        _ => {
            eprintln!("usage: mec fig <2|3> [--quick] (figs 5-7: mec-bench binaries)");
            std::process::exit(2);
        }
    };
    use std::io::Write;
    let stdout = std::io::stdout();
    let mut out = stdout.lock();
    for t in tables {
        if writeln!(out, "{t}").is_err() {
            return; // reader closed the pipe (e.g. `| head`)
        }
    }
}

// Thin local wrappers so the binary does not depend on mec-bench (which is
// a workspace-internal harness crate): the fig sweeps are re-expressed via
// the public APIs. For the full multi-panel tables use `-p mec-bench`.
struct FigConfig {
    seeds: Vec<u64>,
    providers: usize,
}

fn mec_bench_config_default() -> FigConfig {
    FigConfig {
        seeds: vec![1, 2, 3],
        providers: 100,
    }
}

fn mec_bench_config_quick() -> FigConfig {
    FigConfig {
        seeds: vec![1],
        providers: 40,
    }
}

fn mec_fig(which: u8, cfg: &FigConfig) -> Vec<String> {
    let mut out = Vec::new();
    let sizes: &[usize] = match which {
        2 => &[50, 100, 150, 200, 250, 300, 350, 400],
        _ => &[250],
    };
    let fractions: &[f64] = match which {
        3 | 6 => &[0.0, 0.2, 0.4, 0.6, 0.8, 1.0],
        _ => &[0.3],
    };
    out.push(format!(
        "## Fig. {which} (social cost)\n{:>10}{:>10}{:>12}{:>16}{:>14}",
        "size", "1-xi", "LCF", "JoOffloadCache", "OffloadCache"
    ));
    for &size in sizes {
        for &frac in fractions {
            let mut l = 0.0;
            let mut j = 0.0;
            let mut o = 0.0;
            for &seed in &cfg.seeds {
                let s = gtitm_scenario(size, &Params::paper().with_providers(cfg.providers), seed);
                let k = cfg.seeds.len() as f64;
                l += lcf(&s.generated.market, &LcfConfig::new(1.0 - frac))
                    .expect("lcf")
                    .social_cost
                    / k;
                j += jo_offload_cache(&s.generated, &JoConfig::default()).social_cost / k;
                o += offload_cache(&s.generated).social_cost / k;
            }
            out.push(format!("{size:>10}{frac:>10.2}{l:>12.2}{j:>16.2}{o:>14.2}"));
        }
    }
    out
}

fn cmd_ablations(quick: bool) {
    let seeds: Vec<u64> = if quick { vec![1] } else { vec![1, 2, 3] };
    println!("GAP pricing ablation (Appro social cost, size 150):");
    for &seed in &seeds {
        let s = gtitm_scenario(150, &Params::paper().with_providers(60), seed);
        let m = &s.generated.market;
        let marginal = mec_core::appro::appro(m, &mec_core::appro::ApproConfig::new())
            .expect("appro")
            .social_cost;
        let flat = mec_core::appro::appro(m, &mec_core::appro::ApproConfig::paper_flat())
            .expect("appro")
            .social_cost;
        println!("  seed {seed}: marginal {marginal:.2}  flat {flat:.2}");
    }
}

/// Parses a positional numeric argument, exiting with a clear error on a
/// typo instead of silently falling back to the default.
fn parse_arg<T: std::str::FromStr>(rest: &[String], idx: usize, name: &str, default: T) -> T {
    match rest.get(idx) {
        None => default,
        Some(raw) => raw.parse().unwrap_or_else(|_| {
            eprintln!("invalid {name} '{raw}' (expected a number)");
            std::process::exit(2);
        }),
    }
}

fn cmd_run(rest: &[String]) {
    let size: usize = parse_arg(rest, 0, "network size", 250);
    let providers: usize = parse_arg(rest, 1, "provider count", 100);
    let s = gtitm_scenario(size, &Params::paper().with_providers(providers), 42);
    let m = &s.generated.market;
    let l = lcf(m, &LcfConfig::new(0.7)).expect("lcf");
    let j = jo_offload_cache(&s.generated, &JoConfig::default());
    let o = offload_cache(&s.generated);
    println!("network {size}, providers {providers} ((1-xi)=0.3)");
    println!("  LCF            {:.2}", l.social_cost);
    println!("  JoOffloadCache {:.2}", j.social_cost);
    println!("  OffloadCache   {:.2}", o.social_cost);
}

fn cmd_poa(rest: &[String]) {
    let seeds: u64 = parse_arg(rest, 0, "seed count", 5);
    for seed in 1..=seeds {
        let s = gtitm_scenario(60, &Params::paper().with_providers(8), seed);
        let m = &s.generated.market;
        match estimate_poa(m, 30, seed) {
            Ok(est) => println!(
                "seed {seed}: PoA {:.4} PoS {:.4} (Theorem 1 bound {:.1})",
                est.poa,
                est.pos,
                market_poa_bound(m, 0.0)
            ),
            Err(e) => println!("seed {seed}: {e}"),
        }
    }
}

fn cmd_failure() {
    let u = Underlay::paper_testbed();
    let o = Overlay::build(&u);
    for rep in drill_all(&u, &o) {
        println!(
            "fail {:<30} survives={} migrated={} rerouted={} latency {:.3} -> {:.3} ms",
            u.switch(SwitchId(rep.failed.0)).label(),
            rep.fabric_survives,
            rep.migrated_nodes,
            rep.rerouted_tunnels,
            rep.mean_tunnel_ms_before,
            rep.mean_tunnel_ms_after,
        );
    }
}

fn cmd_dot(rest: &[String]) {
    let kind = rest.first().map(String::as_str).unwrap_or("gtitm");
    let size: usize = parse_arg(rest, 1, "size", 100);
    let topo = match kind {
        "gtitm" => gen_ts(&GtItmConfig::for_size(size, 42)),
        "waxman" => gen_wax(&WaxmanConfig::for_size(size, 42)),
        "as1755" => as1755(),
        other => {
            eprintln!("unknown topology '{other}' (use gtitm|waxman|as1755)");
            std::process::exit(2);
        }
    };
    let net = mec_topology::MecNetwork::place(topo, &mec_topology::PlacementConfig::default());
    use std::io::Write;
    let _ = write!(std::io::stdout(), "{}", mec_topology::network_dot(&net));
}

/// Looks up the value following a `--flag`.
fn flag_value(rest: &[String], name: &str) -> Option<String> {
    rest.iter()
        .position(|a| a == name)
        .and_then(|i| rest.get(i + 1))
        .cloned()
}

/// Parses a `--flag value` numeric option, exiting with a clear error on
/// a typo instead of silently falling back to the default.
fn parse_flag<T: std::str::FromStr>(rest: &[String], name: &str, default: T) -> T {
    match flag_value(rest, name) {
        None => default,
        Some(raw) => raw.parse().unwrap_or_else(|_| {
            eprintln!("invalid {name} '{raw}' (expected a number)");
            std::process::exit(2);
        }),
    }
}

fn cmd_serve(rest: &[String]) {
    let port: u16 = parse_flag(rest, "--port", 7690);
    let admin_port: u16 = parse_flag(rest, "--admin-port", 0);
    let providers: usize = parse_flag(rest, "--providers", 100);
    let size: usize = parse_flag(rest, "--size", 100);
    let seed: u64 = parse_flag(rest, "--seed", 42);
    let snapshot = flag_value(rest, "--snapshot").map(std::path::PathBuf::from);

    let scenario = gtitm_scenario(size, &Params::paper().with_providers(providers), seed);
    let cloudlets = scenario.generated.market.cloudlet_count();
    let shards: usize = parse_flag(rest, "--shards", 1).clamp(1, cloudlets.max(1));
    let regions = (shards > 1).then(|| scenario.net.regions(shards));
    let cfg = mec_serve::ServerConfig {
        addr: format!("127.0.0.1:{port}"),
        snapshot_path: snapshot.clone(),
        shards,
        regions,
        admin_addr: (admin_port != 0).then(|| format!("127.0.0.1:{admin_port}")),
        ..mec_serve::ServerConfig::default()
    };
    let handle = match mec_serve::serve(scenario.generated.market, &cfg) {
        Ok(h) => h,
        Err(e) => {
            eprintln!("cannot boot daemon: {e}");
            std::process::exit(1);
        }
    };
    println!(
        "service market on {} ({providers} providers, size-{size} network, {shards} shard{}{})",
        handle.addr(),
        if shards == 1 { "" } else { "s" },
        match &snapshot {
            Some(p) => format!(", snapshot {}", p.display()),
            None => String::new(),
        }
    );
    if let Some(admin) = handle.admin_addr() {
        println!("admin surface on http://{admin} (/metrics /placement /residuals /shards)");
    }
    println!(
        "drain with: mec load {} --shutdown  (or any client's shutdown op)",
        handle.addr()
    );
    let outcome = handle.join();
    println!(
        "drained at seq {} after {} epochs / {} moves (equilibrium: {})",
        outcome.seq, outcome.epochs, outcome.moves, outcome.equilibrium
    );
    if !outcome.violations.is_empty() {
        for v in &outcome.violations {
            eprintln!("certificate violation: {v}");
        }
        std::process::exit(1);
    }
}

fn cmd_load(rest: &[String]) {
    let Some(addr) = rest.first().filter(|a| !a.starts_with("--")).cloned() else {
        eprintln!(
            "usage: mec load <addr> [--sessions N] [--epochs N] [--seed S] [--out PATH] [--shutdown]\n\
             (--out defaults to BENCH_serve.local.json)"
        );
        std::process::exit(2);
    };
    let cfg = mec_serve::LoadConfig {
        sessions: parse_flag(rest, "--sessions", 8),
        epochs: parse_flag(rest, "--epochs", 20),
        seed: parse_flag(rest, "--seed", 1),
        ..mec_serve::LoadConfig::default()
    };
    let providers = match mec_serve::Client::connect(&addr).and_then(|mut c| c.stats()) {
        Ok(stats) => stats.providers,
        Err(e) => {
            eprintln!("cannot reach daemon at {addr}: {e}");
            std::process::exit(1);
        }
    };
    let report = match mec_serve::run_load(&addr, providers, &cfg) {
        Ok(r) => r,
        Err(e) => {
            eprintln!("load run failed: {e}");
            std::process::exit(1);
        }
    };
    println!(
        "{} ops in {:.3}s ({:.0} ops/s), {} rejected",
        report.ops(),
        report.elapsed.as_secs_f64(),
        report.ops_per_sec(),
        report.rejected
    );
    // The tracked BENCH_serve.json is `marketload`'s release artifact; a
    // one-off load run writes beside it, to a git-ignored file.
    let out = flag_value(rest, "--out").unwrap_or_else(|| "BENCH_serve.local.json".to_string());
    if let Err(e) = std::fs::write(&out, format!("{}\n", report.to_json())) {
        eprintln!("cannot write {out}: {e}");
        std::process::exit(1);
    }
    println!("report written to {out}");
    if rest.iter().any(|a| a == "--shutdown") {
        match mec_serve::Client::connect(&addr).and_then(|mut c| c.shutdown()) {
            Ok(_) => println!("daemon draining"),
            Err(e) => {
                eprintln!("shutdown request failed: {e}");
                std::process::exit(1);
            }
        }
    }
}

fn cmd_stats(rest: &[String]) {
    let kind = rest.first().map(String::as_str).unwrap_or("gtitm");
    let size: usize = parse_arg(rest, 1, "size", 200);
    let topo = match kind {
        "gtitm" => gen_ts(&GtItmConfig::for_size(size, 42)),
        "waxman" => gen_wax(&WaxmanConfig::for_size(size, 42)),
        "as1755" => as1755(),
        other => {
            eprintln!("unknown topology '{other}' (use gtitm|waxman|as1755)");
            std::process::exit(2);
        }
    };
    println!("{} —", topo.name);
    println!("{}", graph_stats(&topo.graph));
}
