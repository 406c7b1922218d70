//! Keeps README.md's performance table in lockstep with the checked-in
//! `BENCH_appro.json` artifact: the README text must contain, verbatim,
//! the markdown that `mec_bench::table::appro_perf_markdown` renders
//! from the artifact. Regenerate the README block with
//! `cargo run -p mec-bench --bin sweepbench -- table`.

use mec_bench::table::{appro_perf_markdown, parse_appro_bench};

const BENCH_APPRO: &str = include_str!("../../../BENCH_appro.json");
const README: &str = include_str!("../../../README.md");

#[test]
fn readme_perf_table_matches_bench_artifact() {
    let rows = parse_appro_bench(BENCH_APPRO);
    assert!(
        rows.len() >= 3,
        "BENCH_appro.json lost its grid: {} row(s) parsed",
        rows.len()
    );
    let table = appro_perf_markdown(&rows);
    assert!(
        README.contains(&table),
        "README.md performance table is out of sync with BENCH_appro.json.\n\
         Replace the README table with this canonical rendering\n\
         (`cargo run -p mec-bench --bin sweepbench -- table`):\n\n{table}"
    );
}

#[test]
fn artifact_rows_carry_their_provenance() {
    for r in parse_appro_bench(BENCH_APPRO) {
        assert!(
            r.seconds > 0.0 && r.profile == "release" && r.cores > 0 && !r.commit.is_empty(),
            "row {} × {} lacks a release timing or its provenance: {r:?}",
            r.providers,
            r.cloudlets
        );
    }
}
