//! `cargo xtask tailgate` — performance gates over marketload reports.
//!
//! Three modes:
//!
//! * **tail gate** (default): reads the JSONL report emitted by
//!   `marketload --out` (one flat object per line, one line per run) and
//!   fails when an op's tail amplification (`<op>_p99_p50`, i.e. p99
//!   latency over p50) exceeds a bound on any row. CI
//!   runs this against the smoke run's report so a regression that
//!   re-introduces a convoy — one slow client or one long maintenance
//!   sweep stalling everyone's tail — fails the build instead of only
//!   skewing a checked-in benchmark number months later.
//! * **scale gate** (`tailgate scale <base.json> <sharded.json>`):
//!   compares two `marketload --direct` drain reports and fails when
//!   the sharded run's `write_ops_per_sec` is less than `--min-ratio`
//!   (default 2.0) times the base run's. CI runs this on the 1-shard vs
//!   4-shard drain bench, so a change that silently serializes the
//!   shards — a global lock, a chatty cross-shard protocol — fails the
//!   build even on a single-core runner.
//! * **scenario gate** (`tailgate scenarios <bench.json>`): reads the
//!   checked-in `BENCH_scenarios.json` (the `sweepbench scenarios`
//!   artifact) and fails unless, on every dynamic trace, the game
//!   placement's social cost is ≤ each eviction baseline's (LRU, LFU,
//!   GDSF). A vacuous comparison — missing traces, missing policies,
//!   zero-request rows — fails loudly, matching the scale gate.
//!
//! Every report row is one flat JSON object (`LoadReport::to_json`,
//! `DrainReport::to_json`, a `sweepbench scenarios` result), read with
//! the workspace's one JSON reader, [`mec_obs::json::parse_object`], and
//! its typed getters. `mec-obs` has no dependencies, so xtask still
//! builds from the workspace alone.

use std::path::Path;

use mec_obs::json::{self, Token};

/// The fields of one parsed report row.
type Row = Vec<(String, Token)>;

/// Parses one flat JSON object.
fn parse_row(text: &str) -> Result<Row, String> {
    json::parse_object(text).map_err(|e| e.to_string())
}

/// A numeric field of a parsed row.
fn number(row: &Row, key: &str) -> Result<f64, String> {
    json::get_f64(row, key).map_err(|e| e.to_string())
}

/// An integer field of a parsed row.
fn count(row: &Row, key: &str) -> Result<u64, String> {
    json::get_u64(row, key).map_err(|e| e.to_string())
}

/// The gate verdict for one op on one row of a report.
#[derive(Debug)]
pub struct Verdict {
    /// 1-based row (non-empty line) of the report.
    pub row: usize,
    /// Which op was gated (`join`, `leave`, `update`, `query`).
    pub op: String,
    /// Measured p99/p50 amplification.
    pub ratio: f64,
    /// Requests of this op in the run (a gate over 0 ops is vacuous and
    /// fails loudly instead of passing silently).
    pub count: u64,
    /// Bound the ratio was checked against.
    pub max_ratio: f64,
}

impl Verdict {
    /// Whether the run passes this gate.
    pub fn pass(&self) -> bool {
        self.count > 0 && self.ratio <= self.max_ratio
    }
}

/// Evaluates the gate for `op` on every row (non-empty line) of a
/// report's text.
///
/// # Errors
///
/// Fails when the report has no rows, or some row lacks the op's fields
/// or they do not parse.
pub fn check(json: &str, op: &str, max_ratio: f64) -> Result<Vec<Verdict>, String> {
    let rows: Vec<&str> = json.lines().filter(|l| !l.trim().is_empty()).collect();
    if rows.is_empty() {
        return Err("report has no rows".into());
    }
    rows.iter()
        .enumerate()
        .map(|(k, line)| {
            let verdict = |row: Row| -> Result<Verdict, String> {
                Ok(Verdict {
                    row: k + 1,
                    op: op.to_string(),
                    ratio: number(&row, &format!("{op}_p99_p50"))?,
                    count: count(&row, &format!("{op}_count"))?,
                    max_ratio,
                })
            };
            parse_row(line)
                .and_then(verdict)
                .map_err(|e| format!("row {}: {e}", k + 1))
        })
        .collect()
}

/// Runs the gate against a report file; returns the process exit code.
pub fn run(path: &Path, op: &str, max_ratio: f64) -> i32 {
    let json = match std::fs::read_to_string(path) {
        Ok(s) => s,
        Err(e) => {
            eprintln!("tailgate: cannot read {}: {e}", path.display());
            return 1;
        }
    };
    let verdicts = match check(&json, op, max_ratio) {
        Ok(v) => v,
        Err(e) => {
            eprintln!("tailgate: {e}");
            return 1;
        }
    };
    let mut code = 0;
    for v in verdicts {
        println!(
            "tailgate: row {}: {} p99/p50 = {:.2} over {} ops (bound {:.1})",
            v.row, v.op, v.ratio, v.count, v.max_ratio
        );
        if v.pass() {
            continue;
        }
        code = 1;
        if v.count == 0 {
            eprintln!(
                "tailgate: FAIL — row {}: no {} ops, gate is vacuous",
                v.row, v.op
            );
        } else {
            eprintln!(
                "tailgate: FAIL — row {}: {} tail amplification {:.2} exceeds {:.1}",
                v.row, v.op, v.ratio, v.max_ratio
            );
        }
    }
    code
}

/// The scale-gate verdict comparing two drain reports.
pub struct ScaleVerdict {
    /// Shard counts of the (base, sharded) reports.
    pub shards: (u64, u64),
    /// Write throughputs of the (base, sharded) reports.
    pub ops: (f64, f64),
    /// Required sharded/base throughput ratio.
    pub min_ratio: f64,
}

impl ScaleVerdict {
    /// Measured sharded/base throughput ratio.
    pub fn ratio(&self) -> f64 {
        if self.ops.0 > 0.0 {
            self.ops.1 / self.ops.0
        } else {
            0.0
        }
    }

    /// Whether the pair passes the gate. A degenerate comparison — zero
    /// base throughput, or a "sharded" report with no more shards than
    /// the base — fails loudly instead of passing vacuously.
    pub fn pass(&self) -> bool {
        self.ops.0 > 0.0 && self.shards.1 > self.shards.0 && self.ratio() >= self.min_ratio
    }
}

/// Evaluates the scale gate over two drain-report JSON texts.
///
/// # Errors
///
/// Fails when either report lacks `shards`/`write_ops_per_sec` or they
/// do not parse.
pub fn check_scale(base: &str, sharded: &str, min_ratio: f64) -> Result<ScaleVerdict, String> {
    let (base, sharded) = (parse_row(base)?, parse_row(sharded)?);
    Ok(ScaleVerdict {
        shards: (count(&base, "shards")?, count(&sharded, "shards")?),
        ops: (
            number(&base, "write_ops_per_sec")?,
            number(&sharded, "write_ops_per_sec")?,
        ),
        min_ratio,
    })
}

/// Runs the scale gate against two report files; returns the exit code.
pub fn run_scale(base: &Path, sharded: &Path, min_ratio: f64) -> i32 {
    let read = |p: &Path| {
        std::fs::read_to_string(p).map_err(|e| format!("cannot read {}: {e}", p.display()))
    };
    let verdict = read(base)
        .and_then(|b| read(sharded).map(|s| (b, s)))
        .and_then(|(b, s)| check_scale(&b, &s, min_ratio));
    match verdict {
        Ok(v) => {
            println!(
                "tailgate scale: {} shard(s) at {:.0} ops/s vs {} shard(s) at {:.0} ops/s — {:.2}x (need {:.1}x)",
                v.shards.0,
                v.ops.0,
                v.shards.1,
                v.ops.1,
                v.ratio(),
                v.min_ratio
            );
            if v.pass() {
                0
            } else if v.shards.1 <= v.shards.0 {
                eprintln!(
                    "tailgate scale: FAIL — sharded report has {} shard(s), base has {}; gate is vacuous",
                    v.shards.1, v.shards.0
                );
                1
            } else {
                eprintln!(
                    "tailgate scale: FAIL — sharded throughput is only {:.2}x the base (need {:.1}x)",
                    v.ratio(),
                    v.min_ratio
                );
                1
            }
        }
        Err(e) => {
            eprintln!("tailgate scale: {e}");
            1
        }
    }
}

/// One parsed row of the `sweepbench scenarios` artifact.
#[derive(Debug, Clone)]
pub struct ScenarioRow {
    /// Trace label (`zipf_diurnal`, `flash_crowd`, ...).
    pub trace: String,
    /// Policy name (`game`, `lru`, `lfu`, `gdsf`).
    pub policy: String,
    /// Requests replayed in this cell.
    pub requests: u64,
    /// Mean per-epoch social cost (Eq. 6) of this cell.
    pub social_cost: f64,
}

/// Splits the artifact's `"results": [ {...}, {...} ]` array into its
/// row objects and parses each. Rows are flat (no nested braces), so
/// scanning brace pairs after the `"results"` key is exact, matching the
/// shape `sweepbench scenarios` writes.
fn scenario_rows(json: &str) -> Result<Vec<ScenarioRow>, String> {
    let at = json
        .find("\"results\"")
        .ok_or("no \"results\" array in bench file")?;
    let mut rest = &json[at..];
    let mut rows = Vec::new();
    while let Some(open) = rest.find('{') {
        let close = open + rest[open..].find('}').ok_or("unterminated row object")?;
        let row = parse_row(&rest[open..=close])?;
        let text = |key: &str| json::get_str(&row, key).map_err(|e| e.to_string());
        rows.push(ScenarioRow {
            trace: text("trace")?.to_string(),
            policy: text("policy")?.to_string(),
            requests: count(&row, "requests")?,
            social_cost: number(&row, "social_cost")?,
        });
        rest = &rest[close + 1..];
    }
    Ok(rows)
}

/// The eviction baselines every trace must be compared against.
const SCENARIO_BASELINES: [&str; 3] = ["lru", "lfu", "gdsf"];

/// Evaluates the scenario gate over the bench-file JSON text. Returns
/// the list of human-readable verdict lines (one per trace × baseline)
/// on success.
///
/// # Errors
///
/// Fails — loudly, never vacuously — when the file has fewer than 3
/// traces, any trace lacks the `game` row or a baseline row, any row
/// replayed zero requests, or the game's social cost exceeds any
/// baseline's on any trace.
pub fn check_scenarios(json: &str) -> Result<Vec<String>, String> {
    let rows = scenario_rows(json)?;
    let mut traces: Vec<&str> = Vec::new();
    for r in &rows {
        if !traces.contains(&r.trace.as_str()) {
            traces.push(&r.trace);
        }
        if r.requests == 0 {
            return Err(format!(
                "row {}/{} replayed 0 requests — comparison is vacuous",
                r.trace, r.policy
            ));
        }
    }
    if traces.len() < 3 {
        return Err(format!(
            "only {} trace(s) in the bench file, need >= 3 dynamic traces",
            traces.len()
        ));
    }
    let cell = |trace: &str, policy: &str| {
        rows.iter()
            .find(|r| r.trace == trace && r.policy == policy)
            .ok_or_else(|| format!("trace {trace} has no \"{policy}\" row"))
    };
    let mut lines = Vec::new();
    for trace in &traces {
        let game = cell(trace, "game")?;
        for baseline in SCENARIO_BASELINES {
            let b = cell(trace, baseline)?;
            if game.social_cost > b.social_cost {
                return Err(format!(
                    "trace {trace}: game social cost {:.3} exceeds {baseline}'s {:.3}",
                    game.social_cost, b.social_cost
                ));
            }
            lines.push(format!(
                "tailgate scenarios: {trace}: game {:.3} <= {baseline} {:.3}",
                game.social_cost, b.social_cost
            ));
        }
    }
    Ok(lines)
}

/// Runs the scenario gate against a bench file; returns the exit code.
pub fn run_scenarios(path: &Path) -> i32 {
    let json = match std::fs::read_to_string(path) {
        Ok(s) => s,
        Err(e) => {
            eprintln!("tailgate scenarios: cannot read {}: {e}", path.display());
            return 1;
        }
    };
    match check_scenarios(&json) {
        Ok(lines) => {
            for line in lines {
                println!("{line}");
            }
            0
        }
        Err(e) => {
            eprintln!("tailgate scenarios: FAIL — {e}");
            1
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const REPORT: &str = r#"{"benchmark":"serve","join_count":100,"join_p99_p50":2.5,"query_count":0,"query_p99_p50":0}"#;

    const DRAIN_1: &str = r#"{"benchmark":"serve-drain","shards":1,"commands":100000,"write_ops_per_sec":300000,"s0_writes":100000}"#;
    const DRAIN_4: &str = r#"{"benchmark":"serve-drain","shards":4,"commands":100000,"write_ops_per_sec":750000,"s0_writes":25000}"#;

    #[test]
    fn passes_under_bound_fails_over() {
        let v = check(REPORT, "join", 5.0).unwrap();
        assert!(v.len() == 1 && v[0].pass());
        let v = check(REPORT, "join", 2.0).unwrap();
        assert!(!v[0].pass());
    }

    #[test]
    fn zero_ops_is_a_vacuous_gate_and_fails() {
        let v = check(REPORT, "query", 5.0).unwrap();
        assert!(!v[0].pass());
    }

    #[test]
    fn missing_field_is_an_error() {
        assert!(check(REPORT, "leave", 5.0).is_err());
        assert!(number(&parse_row(REPORT).unwrap(), "nope").is_err());
        assert!(check("\n\n", "join", 5.0).is_err());
    }

    #[test]
    fn every_row_of_a_multi_row_report_is_gated() {
        // The checked-in serve report has one row per shard count; a
        // bound broken only on the last row must fail the gate.
        let rows = |last: f64| {
            format!(
                "{{\"shards\":1,\"join_count\":10,\"join_p99_p50\":2.1}}\n\
                 {{\"shards\":2,\"join_count\":10,\"join_p99_p50\":1.9}}\n\
                 {{\"shards\":4,\"join_count\":10,\"join_p99_p50\":{last}}}\n"
            )
        };
        let v = check(&rows(1.5), "join", 5.0).unwrap();
        assert_eq!(v.len(), 3);
        assert!(v.iter().all(Verdict::pass));
        let v = check(&rows(50.0), "join", 5.0).unwrap();
        assert!(v[0].pass() && v[1].pass() && !v[2].pass());
        assert_eq!(v[2].row, 3);
        // A row without the op's fields is an error, not a skipped row.
        let torn = format!("{}{{\"shards\":8}}\n", rows(1.5));
        assert!(check(&torn, "join", 5.0).unwrap_err().contains("row 4"));
    }

    #[test]
    fn reads_the_trailing_field_before_the_brace() {
        let row = parse_row(r#"{"a":1,"b_p99_p50":3.25}"#).unwrap();
        let x = number(&row, "b_p99_p50").unwrap();
        assert!((x - 3.25).abs() < 1e-12);
    }

    #[test]
    fn scale_gate_passes_at_ratio_and_fails_below() {
        let v = check_scale(DRAIN_1, DRAIN_4, 2.0).unwrap();
        assert!((v.ratio() - 2.5).abs() < 1e-12);
        assert!(v.pass());
        let v = check_scale(DRAIN_1, DRAIN_4, 3.0).unwrap();
        assert!(!v.pass(), "2.5x must not pass a 3x bound");
    }

    /// Builds a minimal scenarios artifact from (trace, policy, requests,
    /// social_cost) rows.
    fn scenarios_json(rows: &[(&str, &str, u64, f64)]) -> String {
        let body: Vec<String> = rows
            .iter()
            .map(|(t, p, req, cost)| {
                format!(
                    "    {{ \"trace\": \"{t}\", \"policy\": \"{p}\", \"requests\": {req}, \
                     \"hits\": 1, \"hit_rate\": 0.5, \"social_cost\": {cost:.6}, \"recaches\": 1 }}"
                )
            })
            .collect();
        format!(
            "{{\n  \"benchmark\": \"scenario_policy_sweep\",\n  \"seed\": 42,\n  \"results\": [\n{}\n  ]\n}}\n",
            body.join(",\n")
        )
    }

    /// A full 3-trace × 4-policy grid where game dominates everywhere.
    fn winning_grid() -> String {
        let mut rows = Vec::new();
        for t in ["zipf_diurnal", "flash_crowd", "popularity_drift"] {
            rows.push((t, "game", 1000, 100.0));
            rows.push((t, "lru", 1000, 300.0));
            rows.push((t, "lfu", 1000, 250.0));
            rows.push((t, "gdsf", 1000, 200.0));
        }
        scenarios_json(&rows)
    }

    #[test]
    fn scenario_gate_passes_when_game_dominates() {
        let lines = check_scenarios(&winning_grid()).unwrap();
        // One verdict line per trace × baseline.
        assert_eq!(lines.len(), 9);
    }

    #[test]
    fn scenario_gate_fails_when_a_baseline_beats_the_game() {
        let json = winning_grid().replace("100.000000", "400.000000");
        let err = check_scenarios(&json).unwrap_err();
        assert!(err.contains("exceeds"), "{err}");
    }

    #[test]
    fn scenario_gate_fails_loudly_on_vacuous_comparisons() {
        // Fewer than 3 traces.
        let json = scenarios_json(&[
            ("a", "game", 10, 1.0),
            ("a", "lru", 10, 2.0),
            ("a", "lfu", 10, 2.0),
            ("a", "gdsf", 10, 2.0),
        ]);
        assert!(check_scenarios(&json).unwrap_err().contains(">= 3"));
        // A missing baseline row.
        let json = winning_grid().replace("\"policy\": \"gdsf\"", "\"policy\": \"fifo\"");
        assert!(check_scenarios(&json)
            .unwrap_err()
            .contains("no \"gdsf\" row"));
        // A zero-request row.
        let json = winning_grid().replace("\"requests\": 1000", "\"requests\": 0");
        assert!(check_scenarios(&json).unwrap_err().contains("0 requests"));
        // A missing game row.
        let json = winning_grid().replace("\"policy\": \"game\"", "\"policy\": \"lcf\"");
        assert!(check_scenarios(&json)
            .unwrap_err()
            .contains("no \"game\" row"));
        // No results array at all.
        assert!(check_scenarios("{}").is_err());
    }

    #[test]
    fn scale_gate_rejects_degenerate_comparisons() {
        // Same shard count on both sides: vacuous, fails.
        let v = check_scale(DRAIN_1, DRAIN_1, 0.5).unwrap();
        assert!(!v.pass());
        // Zero base throughput: fails rather than dividing to infinity.
        let zero = r#"{"shards":1,"write_ops_per_sec":0}"#;
        let v = check_scale(zero, DRAIN_4, 2.0).unwrap();
        assert!(!v.pass());
        // Missing fields are errors, not passes.
        assert!(check_scale(REPORT, DRAIN_4, 2.0).is_err());
    }
}
