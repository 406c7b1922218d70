//! `verify-run` — replay the paper's pipeline under the invariant checkers.
//!
//! ```text
//! verify-run [size] [providers] [seed] [--obs <path>]
//! ```
//!
//! Builds a GT-ITM scenario (default 250 switches, 100 providers, seed 42),
//! runs every algorithm entry point — `appro`, `lcf`, the best-response
//! dynamics from all-remote, and the social local search — and certifies
//! each output with the `mec_core::verify` checkers: capacity (Eq. 4–5),
//! congestion recount, Eq. 1–3 cost reconstruction, and the exhaustive Nash
//! certificate. Prints one certificate per stage and exits non-zero if any
//! violation is found.
//!
//! The checkers run unconditionally here; compile with
//! `--features verify` to additionally arm the in-algorithm
//! self-certification hooks, including the GAP layer underneath: every
//! relaxation Appro solves is certified optimal by its duals
//! (`mec_gap::check_relaxation`) and every rounding by
//! `mec_gap::check_assignment`.
//!
//! `--obs <path>` streams mec-obs events (Appro phase spans, GAP
//! relaxation and rounding spans, dynamics move counts, per-round
//! potential) to `<path>` as JSONL; summarize with `obsreport <path>`.
//! Requires `--features obs`, otherwise the flag warns and is ignored.

#![forbid(unsafe_code)]

use mec_core::appro::{appro, ApproConfig};
use mec_core::game::{BestResponseDynamics, MoveOrder, IMPROVEMENT_TOL};
use mec_core::lcf::{lcf, LcfConfig};
use mec_core::verify::{
    check_capacity, check_congestion, check_cost_reconstruction, check_nash, Certificate,
};
use mec_core::{social_local_search, Market, Profile};
use mec_workload::{gtitm_scenario, Params};

fn main() {
    let mut args: Vec<String> = std::env::args().skip(1).collect();
    let usage = "usage: verify-run [size] [providers] [seed] [--obs <path>]";
    install_obs(&mut args, usage);
    let size = parse_arg(&args, 0, 250, usage);
    let providers = parse_arg(&args, 1, 100, usage);
    let seed = parse_arg(&args, 2, 42, usage);

    let params = Params {
        providers,
        ..Params::default()
    };
    let scenario = gtitm_scenario(size, &params, seed as u64);
    let market = &scenario.generated.market;
    println!(
        "scenario {}: {} cloudlets, {} providers (seed {seed})",
        scenario.label,
        market.cloudlet_count(),
        market.provider_count()
    );

    let mut failed = false;
    failed |= !certify_appro(market);
    failed |= !certify_lcf(market);
    failed |= !certify_dynamics(market);
    failed |= !certify_local_search(market);

    mec_obs::shutdown();
    if failed {
        eprintln!("verify-run: FAILED — at least one certificate has violations");
        std::process::exit(1);
    }
    println!("verify-run: all certificates valid");
}

/// Strips `--obs <path>` out of `args` and installs the JSONL trace sink.
fn install_obs(args: &mut Vec<String>, usage: &str) {
    let Some(pos) = args.iter().position(|a| a == "--obs") else {
        return;
    };
    if pos + 1 >= args.len() {
        eprintln!("verify-run: --obs requires a path argument\n{usage}");
        std::process::exit(2);
    }
    let path = args.remove(pos + 1);
    args.remove(pos);
    if !mec_obs::enabled() {
        eprintln!("verify-run: --obs ignored — rebuild with `--features obs` to capture a trace");
        return;
    }
    if let Err(e) = mec_obs::install_file(std::path::Path::new(&path)) {
        eprintln!("verify-run: cannot open obs trace `{path}`: {e}");
        std::process::exit(1);
    }
    eprintln!("verify-run: streaming observability events to {path}");
}

fn parse_arg(args: &[String], idx: usize, default: usize, usage: &str) -> usize {
    match args.get(idx) {
        None => default,
        Some(s) => s.parse().unwrap_or_else(|_| {
            // lint: allow(panics) — CLI argument error, not a library path.
            eprintln!("verify-run: bad argument `{s}`\n{usage}");
            std::process::exit(2);
        }),
    }
}

fn report(cert: &Certificate) -> bool {
    println!("{cert}");
    cert.is_valid()
}

fn certify_appro(market: &Market) -> bool {
    match appro(market, &ApproConfig::default()) {
        Ok(sol) => {
            let mut cert = Certificate::new("appro");
            cert.extend(check_capacity(market, &sol.profile))
                .extend(check_congestion(
                    market,
                    &sol.profile,
                    &sol.profile.congestion(market),
                ))
                .extend(check_cost_reconstruction(
                    market,
                    &sol.profile,
                    sol.social_cost,
                    1e-9,
                ));
            report(&cert)
        }
        Err(e) => {
            eprintln!("appro failed: {e}");
            false
        }
    }
}

fn certify_lcf(market: &Market) -> bool {
    match lcf(market, &LcfConfig::new(0.7)) {
        Ok(out) => {
            let mut movable = vec![true; market.provider_count()];
            for l in &out.coordinated {
                movable[l.index()] = false;
            }
            let mut cert = Certificate::new("lcf");
            cert.extend(check_capacity(market, &out.profile))
                .extend(check_cost_reconstruction(
                    market,
                    &out.profile,
                    out.social_cost,
                    1e-9,
                ));
            if out.convergence.converged {
                cert.extend(check_nash(market, &out.profile, &movable, IMPROVEMENT_TOL));
            }
            report(&cert)
        }
        Err(e) => {
            eprintln!("lcf failed: {e}");
            false
        }
    }
}

fn certify_dynamics(market: &Market) -> bool {
    let movable = vec![true; market.provider_count()];
    let mut profile = Profile::all_remote(market.provider_count());
    let conv = BestResponseDynamics::new(MoveOrder::RoundRobin).run(market, &mut profile, &movable);
    let mut cert = Certificate::new("best-response dynamics");
    cert.extend(check_capacity(market, &profile));
    if conv.converged {
        cert.extend(check_nash(market, &profile, &movable, IMPROVEMENT_TOL));
    } else {
        eprintln!("dynamics did not converge within the round budget");
    }
    report(&cert) && conv.converged
}

fn certify_local_search(market: &Market) -> bool {
    let movable = vec![true; market.provider_count()];
    let mut profile = Profile::all_remote(market.provider_count());
    let before = profile.social_cost(market);
    let n = market.provider_count();
    social_local_search(market, &mut profile, &movable, 10 * n);
    let after = profile.social_cost(market);
    let mut cert = Certificate::new("social local search");
    cert.extend(check_capacity(market, &profile));
    if after > before + 1e-9 {
        eprintln!("local search increased social cost: {before} -> {after}");
        return false;
    }
    report(&cert)
}
