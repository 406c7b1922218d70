//! `obsreport` — fold a JSONL observability trace into a summary table.
//!
//! ```text
//! obsreport <trace.jsonl | ->
//! ```
//!
//! Reads the trace produced by a `--obs <path>` run (sweepbench,
//! verify-run) — or standard input when the argument is `-` — and prints
//! per-span count/p50/p95/p99/max/total, final counter totals, gauge series
//! summaries and histogram snapshots (one row per labelled series).
//! Malformed lines are counted and skipped, never fatal. Works regardless
//! of whether this binary was built with the `enabled` feature: parsing
//! and folding are always compiled.

#![forbid(unsafe_code)]

use std::fs::File;
use std::io::{self, BufReader, Read};

use mec_obs::Report;

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let path = match args.as_slice() {
        [p] if p != "--help" && p != "-h" => p.clone(),
        _ => {
            eprintln!("usage: obsreport <trace.jsonl | ->");
            std::process::exit(2);
        }
    };

    let reader: Box<dyn Read> = if path == "-" {
        Box::new(io::stdin())
    } else {
        match File::open(&path) {
            Ok(f) => Box::new(f),
            Err(e) => {
                eprintln!("obsreport: cannot open `{path}`: {e}");
                std::process::exit(1);
            }
        }
    };

    match Report::from_lines(BufReader::new(reader)) {
        Ok(report) => print!("{report}"),
        Err(e) => {
            eprintln!("obsreport: read error: {e}");
            std::process::exit(1);
        }
    }
}
