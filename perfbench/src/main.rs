//! `perfbench` — the repository's benchmark of the live service market
//! (`mec-serve`, driven over loopback TCP) and of the mechanism
//! (`mec-core` LCF on `mec-gap`, called directly).
//!
//! ```text
//! perfbench --workload <serve_churn|lcf_solve> --seed N
//!           --seconds S --trace <0|1> [--out-dir DIR] [--commit SHA]
//! ```
//!
//! `--trace 0` prints the end-to-end metrics and needs the untraced
//! release build; `--trace 1` prints the per-layer metrics and needs the
//! `traced` build (the program's `mec_obs` probes armed). The last line
//! of standard output is the result object; every run also appends a
//! provenance-stamped row to `DIR/results.jsonl`, and a traced run writes
//! its spans to `DIR/<workload>.spans.csv`. `run.py` beside this crate
//! builds both variants and passes the arguments through.

#![forbid(unsafe_code)]

mod loadgen;
mod measure;
mod pool;
mod report;
mod schedule;
mod serve;
mod solve;

use std::path::PathBuf;
use std::process::exit;
use std::time::Instant;

use report::{Report, END_TO_END, PER_LAYER};

/// `true` in the build with the program's probes armed.
pub const TRACED: bool = cfg!(feature = "traced");

const USAGE: &str = "usage: perfbench --workload <serve_churn|lcf_solve> --seed N \
                     --seconds S --trace <0|1> [--out-dir DIR] [--commit SHA]";

struct Args {
    workload: String,
    seed: u64,
    seconds: u64,
    trace: bool,
    out_dir: PathBuf,
    commit: String,
}

fn parse_args() -> Result<Args, String> {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let get = |name: &str| -> Option<&str> {
        argv.iter()
            .position(|a| a == name)
            .and_then(|i| argv.get(i + 1))
            .map(String::as_str)
    };
    let num = |name: &str| -> Result<u64, String> {
        let raw = get(name).ok_or(format!("missing {name}"))?;
        raw.parse()
            .map_err(|_| format!("invalid {name} '{raw}' (expected a number)"))
    };
    let workload = get("--workload").ok_or("missing --workload")?.to_string();
    if !["serve_churn", "lcf_solve"].contains(&workload.as_str()) {
        return Err(format!("unknown workload '{workload}'"));
    }
    let seconds = num("--seconds")?;
    if seconds == 0 {
        return Err("--seconds must be at least 1".to_string());
    }
    let trace = match num("--trace")? {
        0 => false,
        1 => true,
        t => return Err(format!("invalid --trace {t} (expected 0 or 1)")),
    };
    Ok(Args {
        workload,
        seed: num("--seed")?,
        seconds,
        trace,
        out_dir: PathBuf::from(get("--out-dir").unwrap_or("perfbench-out")),
        commit: get("--commit").unwrap_or("unknown").to_string(),
    })
}

fn main() {
    let origin = Instant::now();
    let args = parse_args().unwrap_or_else(|e| {
        eprintln!("{e}\n{USAGE}");
        exit(2);
    });
    let profile = if cfg!(debug_assertions) {
        "debug"
    } else {
        "release"
    };
    if !args.trace && cfg!(debug_assertions) {
        eprintln!("refusing to record end-to-end numbers from a debug build");
        exit(2);
    }
    if args.trace != TRACED {
        eprintln!(
            "--trace {} needs the {} build (this is the {} build)",
            u8::from(args.trace),
            if args.trace { "traced" } else { "untraced" },
            if TRACED { "traced" } else { "untraced" },
        );
        exit(2);
    }
    let (rate, shards) = match args.workload.as_str() {
        "serve_churn" => (serve::RATE, serve::SHARDS),
        _ => (solve::PROBE_RATE, 1),
    };
    let nproc = std::thread::available_parallelism().map_or(1, |n| n.get());
    let provenance = [
        ("workload", args.workload.clone()),
        ("seed", args.seed.to_string()),
        ("seconds", args.seconds.to_string()),
        ("trace", u8::from(args.trace).to_string()),
        ("profile", profile.to_string()),
        ("nproc", nproc.to_string()),
        ("commit", args.commit.clone()),
        ("rate_per_s", rate.to_string()),
        ("shards", shards.to_string()),
    ];
    let stamp: Vec<String> = provenance.iter().map(|(k, v)| format!("{k}={v}")).collect();
    println!("perfbench {}", stamp.join(" "));

    let mut rep = Report::default();
    let steal = measure::StealMark::now();
    let seconds = args.seconds as f64;
    let outcome = match args.workload.as_str() {
        "serve_churn" => serve::run(args.seed, seconds, origin, &mut rep),
        _ => solve::run(args.seed, seconds, origin, &args.out_dir, &mut rep),
    };
    if let Err(e) = outcome {
        eprintln!("{}: {e}", args.workload);
        exit(1);
    }

    rep.note(format!(
        "host steal during the run: {:.2} % of the CPU",
        steal.share() * 100.0
    ));

    let table = if args.trace { PER_LAYER } else { END_TO_END };
    for (name, value, _) in rep.table(table) {
        if !value.is_finite() {
            rep.fail(format!("{name} is not a finite number"));
        }
    }
    for line in rep.notes.iter().chain(&rep.lines()) {
        println!("{line}");
    }
    for f in &rep.failures {
        println!("CHECK FAILED: {f}");
    }
    let json = report::result_json(&rep, table);
    if let Err(e) = report::append_row(&args.out_dir, &provenance, &json) {
        eprintln!(
            "cannot record the result in {}: {e}",
            args.out_dir.display()
        );
    }
    if args.trace {
        let path = args.out_dir.join(format!("{}.spans.csv", args.workload));
        if let Err(e) = report::write_spans(&path, &rep.spans) {
            eprintln!("cannot write {}: {e}", path.display());
        }
    }
    println!("{json}");
    exit(if rep.failures.is_empty() { 0 } else { 1 });
}
