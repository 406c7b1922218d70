//! `cargo xtask` — repository automation.
//!
//! ```text
//! cargo xtask analyze               token-aware analysis: concurrency,
//!                                   unsafe audit, growth, probe registry and
//!                                   the panics/float-cmp/thread-spawn rules
//! cargo xtask analyze --self-test   run every rule against its seeded fixtures
//! cargo xtask tailgate <report.json> [--op join] [--max-ratio 20]
//!                                   fail if an op's p99/p50 exceeds the bound
//! cargo xtask tailgate scale <base.json> <sharded.json> [--min-ratio 2]
//!                                   fail if the sharded drain bench is not
//!                                   at least min-ratio times the base
//! cargo xtask tailgate scenarios <bench.json>
//!                                   fail if the game placement's social cost
//!                                   exceeds any eviction baseline's on any
//!                                   trace of the scenarios bench artifact
//! cargo xtask metrics-doc           regenerate docs/METRICS.md from the
//!                                   probe registry (mec-obs)
//! ```
//!
//! See [`analyze`] for the engine, the rule registry and the
//! `// lint: allow(<rule>)` escape hatch, and [`tailgate`] for the
//! tail-latency gate CI applies to the marketload smoke report.
//!
//! xtask's one dependency is the workspace's `mec-obs`, which has none of
//! its own: `tailgate` reads reports with its JSON reader and
//! `metrics-doc` renders its probe registry.

#![forbid(unsafe_code)]

mod analyze;
mod tailgate;

use std::path::PathBuf;

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match args.first().map(String::as_str) {
        Some("analyze") => cmd_analyze(args.iter().any(|a| a == "--self-test")),
        Some("tailgate") => cmd_tailgate(&args[1..]),
        Some("metrics-doc") => cmd_metrics_doc(),
        _ => {
            eprintln!(
                "usage: cargo xtask <analyze [--self-test] | tailgate <report.json> [--op OP] [--max-ratio N] | metrics-doc>"
            );
            std::process::exit(2);
        }
    }
}

fn cmd_tailgate(args: &[String]) {
    if args.first().map(String::as_str) == Some("scale") {
        return cmd_tailgate_scale(&args[1..]);
    }
    if args.first().map(String::as_str) == Some("scenarios") {
        let Some(path) = args.get(1).filter(|a| !a.starts_with("--")) else {
            eprintln!("usage: cargo xtask tailgate scenarios <bench.json>");
            std::process::exit(2);
        };
        std::process::exit(tailgate::run_scenarios(&PathBuf::from(path)));
    }
    let Some(path) = args.first().filter(|a| !a.starts_with("--")) else {
        eprintln!("usage: cargo xtask tailgate <report.json> [--op OP] [--max-ratio N]");
        eprintln!("       cargo xtask tailgate scale <base.json> <sharded.json> [--min-ratio N]");
        eprintln!("       cargo xtask tailgate scenarios <bench.json>");
        std::process::exit(2);
    };
    let flag = |name: &str| {
        args.iter()
            .position(|a| a == name)
            .and_then(|i| args.get(i + 1))
            .cloned()
    };
    let op = flag("--op").unwrap_or_else(|| "join".to_string());
    let max_ratio: f64 = match flag("--max-ratio").as_deref().unwrap_or("20").parse() {
        Ok(v) => v,
        Err(_) => {
            eprintln!("invalid --max-ratio (expected a number)");
            std::process::exit(2);
        }
    };
    std::process::exit(tailgate::run(&PathBuf::from(path), &op, max_ratio));
}

fn cmd_tailgate_scale(args: &[String]) {
    let mut paths = args.iter().filter(|a| !a.starts_with("--"));
    let (Some(base), Some(sharded)) = (paths.next(), paths.next()) else {
        eprintln!("usage: cargo xtask tailgate scale <base.json> <sharded.json> [--min-ratio N]");
        std::process::exit(2);
    };
    let min_ratio: f64 = match args
        .iter()
        .position(|a| a == "--min-ratio")
        .and_then(|i| args.get(i + 1))
        .map_or("2", String::as_str)
        .parse()
    {
        Ok(v) => v,
        Err(_) => {
            eprintln!("invalid --min-ratio (expected a number)");
            std::process::exit(2);
        }
    };
    std::process::exit(tailgate::run_scale(
        &PathBuf::from(base),
        &PathBuf::from(sharded),
        min_ratio,
    ));
}

/// Regenerates `docs/METRICS.md` from `mec_obs::probes::REGISTRY`.
fn cmd_metrics_doc() {
    let out = mec_obs::probes::catalog_markdown();
    let path = repo_root().join("docs/METRICS.md");
    if let Err(e) = std::fs::write(&path, &out) {
        eprintln!("xtask metrics-doc: cannot write {}: {e}", path.display());
        std::process::exit(1);
    }
    println!(
        "xtask metrics-doc: wrote {} ({} bytes)",
        path.display(),
        out.len()
    );
}

fn repo_root() -> PathBuf {
    // xtask lives at <repo>/xtask, so the parent of its manifest dir is
    // the repository root.
    PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .parent()
        .expect("xtask sits one level below the repo root")
        .to_path_buf()
}

fn cmd_analyze(self_test: bool) {
    if self_test {
        match analyze::self_test() {
            Ok(()) => {
                println!("xtask analyze self-test: every rule fires on its seeded fixtures")
            }
            Err(e) => {
                eprintln!("xtask analyze self-test FAILED: {e}");
                std::process::exit(1);
            }
        }
        return;
    }
    let root = repo_root();
    let ws = match analyze::Workspace::load(&root) {
        Ok(ws) => ws,
        Err(e) => {
            eprintln!("xtask analyze: I/O error loading workspace: {e}");
            std::process::exit(1);
        }
    };
    let findings = analyze::run_all(&ws);
    if findings.is_empty() {
        println!(
            "xtask analyze: clean ({} files, {} rules)",
            ws.files.len(),
            analyze::registry().len()
        );
        return;
    }
    for f in &findings {
        eprintln!("{f}");
    }
    eprintln!(
        "xtask analyze: {} finding(s). Fix them or suppress a justified \
         site with `// lint: allow(<rule>)`.",
        findings.len()
    );
    std::process::exit(1);
}
