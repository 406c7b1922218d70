//! Sweep benchmarks behind the checked-in `BENCH_*.json` artifacts.
//!
//! Two modes:
//!
//! * **dynamics** (default) — best-response sweeps: seed recompute path vs
//!   incremental `GameState` path, written to `BENCH_dynamics.json`. Runs
//!   round-robin best-response dynamics from the all-remote profile on
//!   GT-ITM markets and reports, per market size: wall-clock sweep time of
//!   both implementations, moves per second, the speedup, and an
//!   allocations-avoided proxy (the recompute path pays three heap
//!   allocations per best-response query — congestion, loads, residual —
//!   plus one profile clone per round; the incremental path pays none).
//!
//! * **appro** (`sweepbench appro`) — the end-to-end `appro` pipeline over
//!   a providers × cloudlets grid, written to `BENCH_appro.json`: per cell
//!   the best wall clock of its reps, the LP lower bound and the rounded
//!   assignment cost, each row stamped with its build profile, core count
//!   and commit. Every rep must reproduce the first one's bound and cost.
//!   `--smoke` runs one tiny cell once — the CI bit-rot guard, valid in
//!   debug builds because it never writes.
//!
//! * **scenarios** (`sweepbench scenarios`) — no timing: replays the
//!   standard dynamic-popularity traces (diurnal Zipf, flash crowd,
//!   popularity drift; `mec-scenario`, seed 42) under the game placement
//!   and the LRU / LFU / GDSF eviction baselines on one GT-ITM market,
//!   written to `BENCH_scenarios.json`. Deterministic — no wall-clock in
//!   the artifact — so any build may regenerate it, but debug/`--obs`
//!   runs still refuse to overwrite (artifact hygiene: one canonical
//!   regeneration command). `cargo xtask tailgate scenarios` gates on it.
//!
//! * **table** (`sweepbench table`) — no timing: renders the checked-in
//!   `BENCH_appro.json` as the canonical markdown performance table that
//!   README.md embeds (kept in sync by `tests/readme_table.rs`).
//!
//! Both timing modes check their results before recording a time, and
//! both refuse to overwrite their checked-in artifact from a debug build.
//!
//! `--obs <path>` (either mode) streams mec-obs events — phase spans,
//! rounding slot counts, per-round potential, move counters — to `<path>` as JSONL;
//! summarize with `obsreport <path>`. Requires building with `--features
//! obs` (otherwise the flag warns and is ignored). Because the probes add
//! overhead inside the timed loops, an `--obs` run also refuses to
//! overwrite the checked-in artifacts.

#![forbid(unsafe_code)]

use std::time::Instant;

use mec_core::appro::{appro, ApproConfig};
use mec_core::game::{BestResponseDynamics, Convergence, MoveOrder};
use mec_core::model::{CloudletSpec, Market, ProviderSpec};
use mec_core::Profile;
use mec_workload::{gtitm_scenario, Params, Scenario};

struct Measured {
    seconds: f64,
    convergence: Convergence,
}

fn time_run(f: impl Fn() -> Convergence, reps: usize) -> Measured {
    let mut best = f64::INFINITY;
    let mut convergence = f();
    for _ in 0..reps {
        let start = Instant::now();
        convergence = f();
        best = best.min(start.elapsed().as_secs_f64());
    }
    Measured {
        seconds: best,
        convergence,
    }
}

struct Row {
    providers: usize,
    cloudlets: usize,
    reference: Measured,
    incremental: Measured,
    allocations_avoided: usize,
}

fn measure(scenario: &Scenario, reps: usize) -> Row {
    let market = &scenario.generated.market;
    let n = market.provider_count();
    let movable = vec![true; n];

    // Sanity: both paths must agree before timing means anything.
    let mut p_ref = Profile::all_remote(n);
    let mut p_inc = Profile::all_remote(n);
    let driver = BestResponseDynamics::new(MoveOrder::RoundRobin);
    let c_ref = driver.run_reference(market, &mut p_ref, &movable);
    let c_inc = driver.run(market, &mut p_inc, &movable);
    assert_eq!(c_ref, c_inc, "convergence stats diverged");
    assert_eq!(p_ref, p_inc, "equilibria diverged");

    let reference = time_run(
        || {
            let mut profile = Profile::all_remote(n);
            driver.run_reference(market, &mut profile, &movable)
        },
        reps,
    );
    let incremental = time_run(
        || {
            let mut profile = Profile::all_remote(n);
            driver.run(market, &mut profile, &movable)
        },
        reps,
    );

    // The reference round-robin sweep calls best_response once per movable
    // provider per round (3 allocations each) and clones the profile once
    // per round; the incremental sweep allocates nothing per round.
    let rounds = incremental.convergence.rounds;
    let allocations_avoided = 3 * rounds * n + rounds;

    Row {
        providers: n,
        cloudlets: market.cloudlet_count(),
        reference,
        incremental,
        allocations_avoided,
    }
}

fn json_row(r: &Row) -> String {
    let speedup = r.reference.seconds / r.incremental.seconds;
    let moves = r.incremental.convergence.moves as f64;
    format!(
        concat!(
            "    {{\n",
            "      \"providers\": {},\n",
            "      \"cloudlets\": {},\n",
            "      \"rounds\": {},\n",
            "      \"moves\": {},\n",
            "      \"reference_seconds\": {:.6},\n",
            "      \"incremental_seconds\": {:.6},\n",
            "      \"reference_moves_per_sec\": {:.1},\n",
            "      \"incremental_moves_per_sec\": {:.1},\n",
            "      \"speedup\": {:.2},\n",
            "      \"allocations_avoided\": {}\n",
            "    }}"
        ),
        r.providers,
        r.cloudlets,
        r.incremental.convergence.rounds,
        r.incremental.convergence.moves,
        r.reference.seconds,
        r.incremental.seconds,
        moves / r.reference.seconds,
        moves / r.incremental.seconds,
        speedup,
        r.allocations_avoided,
    )
}

/// A synthetic market with exactly `providers` providers and `cloudlets`
/// cloudlets, shaped like the paper's workloads: heterogeneous demands and
/// congestion prices, capacities sized so roughly 80% of the providers fit
/// on cloudlets (the rest compete or stay remote — keeps every capacity row
/// of the relaxation meaningful).
fn appro_market(providers: usize, cloudlets: usize) -> Market {
    // a_max = 3, b_max = 11 below; one slot = one largest service.
    let slots_per = ((providers * 4) / (5 * cloudlets)).max(2);
    let mut b = Market::builder();
    for k in 0..cloudlets {
        b = b.cloudlet(CloudletSpec::new(
            3.0 * slots_per as f64,
            11.0 * slots_per as f64,
            0.2 + 0.1 * (k % 7) as f64,
            0.3 + 0.05 * (k % 5) as f64,
        ));
    }
    // Continuous (hash-jittered) demands: discrete demand classes would let
    // equal-weight providers swap bins at tight capacity rows for free,
    // creating families of optimal LP vertices separated by less than a
    // solver's tolerance — and which vertex a solver lands on, hence the
    // recorded assignment cost, would depend on its tie-breaking. With no
    // two providers sharing a weight, those swap directions are
    // capacity-infeasible and the optimum is isolated.
    for k in 0..providers {
        b = b.provider(ProviderSpec::new(
            1.0 + 2.0 * pair_jitter(k, usize::MAX - 1),
            5.0 + 6.0 * pair_jitter(k, usize::MAX - 2),
            1.0 + 1e-4 * k as f64,
            40.0 + 2e-4 * k as f64,
        ));
    }
    // Per-pair update-cost jitter makes the LP optimum generically unique:
    // a separable cost (provider term + cloudlet term) admits equal-cost
    // provider swaps between bins, whose optimal vertices round to
    // different assignments.
    // A *linear* jitter (a*l + b*i mod p) stays separable wherever the mod
    // doesn't wrap and leaves exact tie cycles, so the jitter must be a
    // hash: alternating sums over any swap cycle are then nonzero except
    // with probability ~2^-53 per cycle.
    let update: Vec<f64> = (0..providers)
        .flat_map(|l| (0..cloudlets).map(move |i| 0.2 + 0.8 * pair_jitter(l, i)))
        .collect();
    b.update_cost_matrix(update).build()
}

/// Deterministic hash of a (provider, cloudlet) pair to a uniform-looking
/// value in [0, 1) with full 53-bit resolution (splitmix64 finalizer).
fn pair_jitter(l: usize, i: usize) -> f64 {
    let mut z = (l as u64)
        .wrapping_mul(0x9E37_79B9_7F4A_7C15)
        .wrapping_add((i as u64).wrapping_mul(0xBF58_476D_1CE4_E5B9))
        .wrapping_add(0x2545_F491_4F6C_DD1D);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^= z >> 31;
    (z >> 11) as f64 / (1u64 << 53) as f64
}

struct ApproCell {
    providers: usize,
    cloudlets: usize,
    slots_per_cloudlet: usize,
    lp_lower_bound: f64,
    flat_cost: f64,
    /// Best wall clock over `reps` timed runs.
    seconds: f64,
    reps: usize,
}

/// Times `appro` on one grid cell. Every timed rep must reproduce the
/// untimed first run's LP lower bound and rounded-assignment cost.
fn measure_appro(providers: usize, cloudlets: usize, reps: usize) -> ApproCell {
    let market = appro_market(providers, cloudlets);
    // MergedSlots + Flat + repair, no polish: the GAP solve dominates the
    // pipeline.
    let config = ApproConfig::paper_flat();
    let reference = appro(&market, &config).expect("appro failed");
    let mut best = f64::INFINITY;
    for _ in 0..reps {
        let start = Instant::now();
        let sol = appro(&market, &config).expect("appro failed");
        best = best.min(start.elapsed().as_secs_f64());
        assert!(
            sol.lp_lower_bound.to_bits() == reference.lp_lower_bound.to_bits()
                && sol.flat_cost.to_bits() == reference.flat_cost.to_bits(),
            "appro is not deterministic: bound {} / cost {} vs {} / {}",
            sol.lp_lower_bound,
            sol.flat_cost,
            reference.lp_lower_bound,
            reference.flat_cost
        );
    }
    eprintln!("  providers {providers:5} cloudlets {cloudlets:3}: {best:.4}s (min of {reps})");
    ApproCell {
        providers,
        cloudlets,
        slots_per_cloudlet: ((providers * 4) / (5 * cloudlets)).max(2),
        lp_lower_bound: reference.lp_lower_bound,
        flat_cost: reference.flat_cost,
        seconds: best,
        reps,
    }
}

/// The checked-out commit, read from `.git` in the working directory
/// (`unknown` outside a checkout), marked `-dirty` when tracked files
/// differ from it (see [`stamp_commit`]).
fn git_commit() -> String {
    let status = std::process::Command::new("git")
        .args(["status", "--porcelain", "--untracked-files=no"])
        .output()
        .ok()
        .filter(|out| out.status.success())
        .map(|out| String::from_utf8_lossy(&out.stdout).into_owned());
    stamp_commit(head_commit(), status.as_deref())
}

/// `commit`, suffixed `-dirty` when `status` — the output of
/// `git status --porcelain --untracked-files=no` — lists a change, so a
/// row measured on an uncommitted tree does not pass for its parent's.
/// Without git (`None`) the plain commit is all there is to say.
fn stamp_commit(commit: String, status: Option<&str>) -> String {
    match status {
        Some(changes) if !changes.trim().is_empty() => format!("{commit}-dirty"),
        _ => commit,
    }
}

/// The commit `.git/HEAD` names, `unknown` outside a checkout.
fn head_commit() -> String {
    let read = |path: &str| std::fs::read_to_string(path).ok();
    let Some(head) = read(".git/HEAD") else {
        return "unknown".into();
    };
    let head = head.trim();
    let Some(reference) = head.strip_prefix("ref: ") else {
        return head.to_string();
    };
    if let Some(id) = read(&format!(".git/{reference}")) {
        return id.trim().to_string();
    }
    read(".git/packed-refs")
        .and_then(|packed| {
            packed
                .lines()
                .find(|l| l.ends_with(&format!(" {reference}")))
                .and_then(|l| l.split_whitespace().next().map(str::to_string))
        })
        .unwrap_or_else(|| "unknown".into())
}

fn appro_json_row(c: &ApproCell, provenance: &str) -> String {
    format!(
        concat!(
            "    {{\n",
            "      \"providers\": {},\n",
            "      \"cloudlets\": {},\n",
            "      \"slots_per_cloudlet\": {},\n",
            "      \"lp_lower_bound\": {:.6},\n",
            "      \"assignment_flat_cost\": {:.6},\n",
            "      \"seconds\": {:.6},\n",
            "      \"reps\": {},\n",
            "{}\n",
            "    }}"
        ),
        c.providers,
        c.cloudlets,
        c.slots_per_cloudlet,
        c.lp_lower_bound,
        c.flat_cost,
        c.seconds,
        c.reps,
        provenance,
    )
}

fn run_appro_sweep(quick: bool, smoke: bool) {
    // (providers, cloudlets); the largest cell is the headline.
    let grid: &[(usize, usize)] = if smoke {
        &[(30, 5)]
    } else if quick {
        &[(100, 10)]
    } else {
        &[(100, 10), (300, 30), (1000, 80)]
    };
    let reps = if smoke { 1 } else { 5 };
    let profile = if cfg!(debug_assertions) {
        "debug"
    } else {
        "release"
    };
    let provenance = format!(
        "      \"profile\": \"{profile}\",\n      \"cores\": {},\n      \"commit\": \"{}\"",
        std::thread::available_parallelism().map_or(1, |n| n.get()),
        git_commit(),
    );

    let body: Vec<String> = grid
        .iter()
        .map(|&(providers, cloudlets)| {
            appro_json_row(&measure_appro(providers, cloudlets, reps), &provenance)
        })
        .collect();
    let json = format!(
        concat!(
            "{{\n",
            "  \"benchmark\": \"appro_pipeline_sweep\",\n",
            "  \"config\": \"merged_slots, flat pricing, repair on, polish off\",\n",
            "  \"note\": \"end-to-end appro() wall clock, min of the recorded reps per cell; ",
            "every rep reproduced the LP bound and the rounded assignment cost\",\n",
            "  \"results\": [\n{}\n  ]\n",
            "}}\n"
        ),
        body.join(",\n"),
    );
    // Like BENCH_dynamics.json: the checked-in artifact is release-only,
    // and an --obs run times the probes too, so it may not overwrite.
    if smoke || cfg!(debug_assertions) || mec_obs::sink_installed() {
        eprintln!(
            "sweepbench: {} — not overwriting BENCH_appro.json \
             (regenerate with `cargo run --release -p mec-bench --bin sweepbench -- appro`)",
            if smoke {
                "smoke mode"
            } else if cfg!(debug_assertions) {
                "debug build"
            } else {
                "obs trace active"
            }
        );
    } else {
        std::fs::write("BENCH_appro.json", &json).expect("write BENCH_appro.json");
    }
    println!("{json}");
}

/// The scenario comparison grid: the standard dynamic traces replayed
/// under every placement policy on one paper-shaped GT-ITM market.
/// Everything here is deterministic (trace generation, demand factors,
/// best-response dynamics, eviction simulation), so the artifact is
/// reproducible bit-for-bit from the recorded seed.
fn run_scenario_sweep() {
    use mec_baselines::eviction::{evaluate_trace, TracePolicy};

    const SEED: u64 = 42;
    const SIZE: usize = 100;
    const PROVIDERS: usize = 200;
    const EPOCHS: usize = 60;
    const REQUESTS_PER_EPOCH: usize = 400;

    let scenario = gtitm_scenario(SIZE, &Params::paper().with_providers(PROVIDERS), SEED);
    let market = &scenario.generated.market;
    let traces = mec_scenario::standard_traces(PROVIDERS, EPOCHS, REQUESTS_PER_EPOCH, SEED);

    let mut rows = Vec::new();
    for trace in &traces {
        for policy in TracePolicy::all() {
            let outcome = evaluate_trace(market, trace, policy);
            eprintln!(
                "  {:>16} {:>5}: hit rate {:.3}  social cost {:.3}  ({} re-caches)",
                trace.label,
                outcome.policy,
                outcome.hit_rate(),
                outcome.mean_social_cost,
                outcome.recaches,
            );
            rows.push(format!(
                concat!(
                    "    {{\n",
                    "      \"trace\": \"{}\",\n",
                    "      \"policy\": \"{}\",\n",
                    "      \"requests\": {},\n",
                    "      \"hits\": {},\n",
                    "      \"hit_rate\": {:.6},\n",
                    "      \"social_cost\": {:.6},\n",
                    "      \"recaches\": {}\n",
                    "    }}"
                ),
                trace.label,
                outcome.policy,
                outcome.requests,
                outcome.hits,
                outcome.hit_rate(),
                outcome.mean_social_cost,
                outcome.recaches,
            ));
        }
    }

    let json = format!(
        concat!(
            "{{\n",
            "  \"benchmark\": \"scenario_policy_sweep\",\n",
            "  \"seed\": {},\n",
            "  \"network_size\": {},\n",
            "  \"providers\": {},\n",
            "  \"epochs\": {},\n",
            "  \"requests_per_epoch\": {},\n",
            "  \"note\": \"standard mec-scenario traces replayed under the game placement and ",
            "the LRU/LFU/GDSF eviction baselines on one GT-ITM market; social_cost is the ",
            "per-epoch demand-scaled Eq. 6 cost averaged over epochs; fully deterministic\",\n",
            "  \"results\": [\n{}\n  ]\n",
            "}}\n"
        ),
        SEED,
        SIZE,
        PROVIDERS,
        EPOCHS,
        REQUESTS_PER_EPOCH,
        rows.join(",\n"),
    );
    // Deterministic, but keep the same single-regeneration-command hygiene
    // as the timing artifacts: debug/--obs runs print without writing.
    if cfg!(debug_assertions) || mec_obs::sink_installed() {
        eprintln!(
            "sweepbench: {} — not overwriting BENCH_scenarios.json \
             (regenerate with `cargo run --release -p mec-bench --bin sweepbench -- scenarios`)",
            if cfg!(debug_assertions) {
                "debug build"
            } else {
                "obs trace active"
            }
        );
    } else {
        std::fs::write("BENCH_scenarios.json", &json).expect("write BENCH_scenarios.json");
    }
    println!("{json}");
}

/// Strips `--obs <path>` out of `args` and installs the JSONL trace sink
/// (check `mec_obs::sink_installed()` for whether capture is live).
fn install_obs(args: &mut Vec<String>) {
    let Some(pos) = args.iter().position(|a| a == "--obs") else {
        return;
    };
    if pos + 1 >= args.len() {
        eprintln!("sweepbench: --obs requires a path argument");
        std::process::exit(2);
    }
    let path = args.remove(pos + 1);
    args.remove(pos);
    if !mec_obs::enabled() {
        eprintln!(
            "sweepbench: --obs ignored — rebuild with `--features obs` \
             (e.g. `cargo run --release -p mec-bench --features obs --bin sweepbench`)"
        );
        return;
    }
    if let Err(e) = mec_obs::install_file(std::path::Path::new(&path)) {
        eprintln!("sweepbench: cannot open obs trace `{path}`: {e}");
        std::process::exit(1);
    }
    eprintln!("sweepbench: streaming observability events to {path}");
}

fn main() {
    let mut args: Vec<String> = std::env::args().skip(1).collect();
    install_obs(&mut args);
    if args.iter().any(|a| a == "table") {
        // Canonical markdown rendering of the checked-in artifact — the
        // exact text README.md §Performance must contain (enforced by
        // crates/bench/tests/readme_table.rs).
        let json = std::fs::read_to_string("BENCH_appro.json")
            .expect("read BENCH_appro.json (run from the workspace root)");
        let rows = mec_bench::table::parse_appro_bench(&json);
        print!("{}", mec_bench::table::appro_perf_markdown(&rows));
        return;
    }
    if args.iter().any(|a| a == "scenarios") {
        run_scenario_sweep();
        mec_obs::shutdown();
        return;
    }
    let quick = args.iter().any(|a| a == "--quick");
    if args.iter().any(|a| a == "appro") {
        let smoke = args.iter().any(|a| a == "--smoke");
        run_appro_sweep(quick, smoke);
        mec_obs::shutdown();
        return;
    }
    // (network size, providers): cloudlets are ~10% of network nodes, so
    // the headline config is ≥500 providers on ≥50 cloudlets.
    let configs: &[(usize, usize)] = if quick {
        &[(200, 100)]
    } else {
        &[(200, 100), (500, 500), (800, 1000)]
    };
    let reps = if quick { 2 } else { 5 };

    let mut rows = Vec::new();
    for &(size, providers) in configs {
        let s = gtitm_scenario(size, &Params::paper().with_providers(providers), 42);
        let row = measure(&s, reps);
        eprintln!(
            "providers {:4} cloudlets {:3}: reference {:.4}s incremental {:.4}s speedup {:.2}x",
            row.providers,
            row.cloudlets,
            row.reference.seconds,
            row.incremental.seconds,
            row.reference.seconds / row.incremental.seconds,
        );
        rows.push(row);
    }

    let body: Vec<String> = rows.iter().map(json_row).collect();
    let json = format!(
        concat!(
            "{{\n",
            "  \"benchmark\": \"best_response_dynamics_sweep\",\n",
            "  \"order\": \"round_robin\",\n",
            "  \"build\": \"{}\",\n",
            "  \"note\": \"min of {} reps per cell; reference = seed recompute path, ",
            "incremental = GameState path; allocations_avoided = 3*rounds*providers + rounds\",\n",
            "  \"results\": [\n{}\n  ]\n",
            "}}\n"
        ),
        if cfg!(debug_assertions) {
            "debug"
        } else {
            "release"
        },
        reps,
        body.join(",\n"),
    );
    // The checked-in BENCH_dynamics.json is a release-build artifact; a
    // debug run times the differential debug_assert in apply_move — and an
    // --obs run times the probes too — not the algorithm, so neither may
    // overwrite the recorded numbers.
    if cfg!(debug_assertions) || mec_obs::sink_installed() {
        eprintln!(
            "sweepbench: {} — refusing to overwrite BENCH_dynamics.json \
             (regenerate with `cargo run --release -p mec-bench --bin sweepbench`)",
            if cfg!(debug_assertions) {
                "debug build"
            } else {
                "obs trace active"
            }
        );
    } else {
        std::fs::write("BENCH_dynamics.json", &json).expect("write BENCH_dynamics.json");
    }
    println!("{json}");
    mec_obs::shutdown();
}

#[cfg(test)]
mod tests {
    use super::stamp_commit;

    #[test]
    fn dirty_tree_marks_its_commit() {
        let sha = || "664f8f2".to_string();
        assert_eq!(stamp_commit(sha(), Some("")), "664f8f2");
        assert_eq!(
            stamp_commit(sha(), Some(" M src/lib.rs\n")),
            "664f8f2-dirty"
        );
        // git unavailable: nothing says the tree is dirty.
        assert_eq!(stamp_commit(sha(), None), "664f8f2");
    }
}
