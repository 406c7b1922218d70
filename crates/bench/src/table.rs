//! Plain-text result tables, one per figure panel — plus the canonical
//! markdown rendering of the checked-in `BENCH_appro.json` sweep
//! ([`appro_perf_markdown`]), which README.md's performance table is
//! generated from.

use std::fmt;

/// A result table: an x-axis column plus one column per algorithm/series.
///
/// # Examples
///
/// ```
/// use mec_bench::table::Table;
///
/// let mut t = Table::new("Fig. X", "network size", &["LCF", "OffloadCache"]);
/// t.row(50.0, &[1.0, 2.0]);
/// let s = t.to_string();
/// assert!(s.contains("LCF"));
/// assert!(s.contains("50"));
/// ```
#[derive(Debug, Clone)]
pub struct Table {
    title: String,
    x_label: String,
    columns: Vec<String>,
    rows: Vec<(f64, Vec<f64>)>,
}

impl Table {
    /// Creates an empty table.
    pub fn new(title: &str, x_label: &str, columns: &[&str]) -> Self {
        Table {
            title: title.to_string(),
            x_label: x_label.to_string(),
            columns: columns.iter().map(|s| s.to_string()).collect(),
            rows: Vec::new(),
        }
    }

    /// Appends a row.
    ///
    /// # Panics
    ///
    /// Panics if `values.len()` differs from the column count.
    pub fn row(&mut self, x: f64, values: &[f64]) -> &mut Self {
        assert_eq!(
            values.len(),
            self.columns.len(),
            "row width mismatches columns"
        );
        self.rows.push((x, values.to_vec()));
        self
    }

    /// The table title.
    pub fn title(&self) -> &str {
        &self.title
    }

    /// Column labels (excluding the x column).
    pub fn columns(&self) -> &[String] {
        &self.columns
    }

    /// Raw rows.
    pub fn rows(&self) -> &[(f64, Vec<f64>)] {
        &self.rows
    }

    /// Value at `(row, col)`.
    ///
    /// # Panics
    ///
    /// Panics if out of range.
    pub fn value(&self, row: usize, col: usize) -> f64 {
        self.rows[row].1[col]
    }

    /// `true` if column `col` is non-decreasing down the rows (within
    /// `tol` slack) — used by shape assertions in EXPERIMENTS.md tests.
    pub fn column_non_decreasing(&self, col: usize, tol: f64) -> bool {
        self.rows
            .windows(2)
            .all(|w| w[1].1[col] >= w[0].1[col] - tol)
    }

    /// `true` if column `a` is pointwise ≤ column `b` (within `tol`).
    pub fn column_dominates(&self, a: usize, b: usize, tol: f64) -> bool {
        self.rows.iter().all(|(_, v)| v[a] <= v[b] + tol)
    }
}

impl fmt::Display for Table {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(f, "## {}", self.title)?;
        write!(f, "{:>14}", self.x_label)?;
        for c in &self.columns {
            write!(f, "{c:>16}")?;
        }
        writeln!(f)?;
        for (x, values) in &self.rows {
            write!(f, "{x:>14.2}")?;
            for v in values {
                write!(f, "{v:>16.3}")?;
            }
            writeln!(f)?;
        }
        Ok(())
    }
}

/// One grid cell of the Appro pipeline sweep (`BENCH_appro.json`).
#[derive(Debug, Clone, PartialEq)]
pub struct ApproPerfRow {
    /// Provider count of the cell.
    pub providers: u64,
    /// Cloudlet count of the cell.
    pub cloudlets: u64,
    /// End-to-end `appro` wall clock, best of the cell's reps.
    pub seconds: f64,
    /// Build profile the row was measured on (`release` or `debug`).
    pub profile: String,
    /// Cores available to the measuring process.
    pub cores: u64,
    /// Commit the row was measured on.
    pub commit: String,
}

/// Extracts the per-cell timings from the pretty-printed
/// `BENCH_appro.json` artifact (one `"key": value` pair per line, as
/// `sweepbench -- appro` writes it). Unknown keys are ignored; a row is
/// emitted at each new `"providers"` key.
///
/// # Examples
///
/// ```
/// let json = include_str!("../../../BENCH_appro.json");
/// let rows = mec_bench::table::parse_appro_bench(json);
/// assert_eq!(rows.len(), 3);
/// assert!(rows.iter().all(|r| r.seconds > 0.0 && r.profile == "release"));
/// ```
pub fn parse_appro_bench(json: &str) -> Vec<ApproPerfRow> {
    let mut rows: Vec<ApproPerfRow> = Vec::new();
    for line in json.lines() {
        let line = line.trim();
        let Some((key, value)) = line.split_once(':') else {
            continue;
        };
        let key = key.trim().trim_matches('"');
        let value = value.trim().trim_end_matches(',');
        if key == "providers" {
            rows.push(ApproPerfRow {
                providers: value.parse().unwrap_or(0),
                cloudlets: 0,
                seconds: 0.0,
                profile: String::new(),
                cores: 0,
                commit: String::new(),
            });
            continue;
        }
        let Some(row) = rows.last_mut() else {
            continue;
        };
        match key {
            "cloudlets" => row.cloudlets = value.parse().unwrap_or(0),
            "seconds" => row.seconds = value.parse().unwrap_or(0.0),
            "profile" => row.profile = value.trim_matches('"').to_string(),
            "cores" => row.cores = value.parse().unwrap_or(0),
            "commit" => row.commit = value.trim_matches('"').to_string(),
            _ => {}
        }
    }
    rows
}

/// Wall-clock cell formatting of the canonical performance table:
/// precision tapers with magnitude so every cell carries two-to-three
/// significant digits.
fn fmt_secs(v: f64) -> String {
    if v < 0.1 {
        format!("{v:.3} s")
    } else if v < 10.0 {
        format!("{v:.2} s")
    } else if v < 100.0 {
        format!("{v:.1} s")
    } else {
        format!("{v:.0} s")
    }
}

/// Renders the canonical markdown performance table from parsed
/// `BENCH_appro.json` rows — the exact text of README.md §Performance
/// (a test in `tests/` asserts they stay in sync). Print it with
/// `cargo run -p mec-bench --bin sweepbench -- table`.
pub fn appro_perf_markdown(rows: &[ApproPerfRow]) -> String {
    const HEADERS: [&str; 2] = ["providers × cloudlets", "appro() wall clock"];
    let widths: Vec<usize> = HEADERS.iter().map(|h| h.chars().count()).collect();
    let mut out = String::new();
    out.push('|');
    for (h, w) in HEADERS.iter().zip(&widths) {
        // Manual pad: `{:>w$}` counts `×` as one char but README columns
        // are byte-aligned only when headers themselves set the width.
        out.push(' ');
        for _ in h.chars().count()..*w {
            out.push(' ');
        }
        out.push_str(h);
        out.push_str(" |");
    }
    out.push('\n');
    out.push('|');
    for w in &widths {
        for _ in 0..w + 1 {
            out.push('-');
        }
        out.push_str(":|");
    }
    out.push('\n');
    for r in rows {
        let cells = [
            format!("{} × {}", r.providers, r.cloudlets),
            fmt_secs(r.seconds),
        ];
        out.push('|');
        for (cell, w) in cells.iter().zip(&widths) {
            out.push(' ');
            for _ in cell.chars().count()..*w {
                out.push(' ');
            }
            out.push_str(cell);
            out.push_str(" |");
        }
        out.push('\n');
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn t() -> Table {
        let mut t = Table::new("test", "x", &["a", "b"]);
        t.row(1.0, &[1.0, 2.0]);
        t.row(2.0, &[1.5, 2.5]);
        t.row(3.0, &[2.0, 3.0]);
        t
    }

    #[test]
    fn display_contains_everything() {
        let s = t().to_string();
        assert!(s.contains("## test"));
        assert!(s.contains('a') && s.contains('b'));
        assert!(s.contains("1.00") && s.contains("3.000"));
    }

    #[test]
    fn shape_helpers() {
        let t = t();
        assert!(t.column_non_decreasing(0, 0.0));
        assert!(t.column_non_decreasing(1, 0.0));
        assert!(t.column_dominates(0, 1, 0.0));
        assert!(!t.column_dominates(1, 0, 0.0));
    }

    #[test]
    #[should_panic(expected = "row width")]
    fn row_width_checked() {
        Table::new("x", "x", &["a"]).row(0.0, &[1.0, 2.0]);
    }

    #[test]
    fn parse_appro_bench_extracts_rows() {
        let json = r#"{
  "results": [
    {
      "providers": 100,
      "cloudlets": 10,
      "lp_lower_bound": 248.840770,
      "seconds": 0.008674,
      "reps": 5,
      "profile": "release",
      "cores": 2,
      "commit": "664f8f2"
    }
  ]
}"#;
        let rows = parse_appro_bench(json);
        assert_eq!(rows.len(), 1);
        assert_eq!(rows[0].providers, 100);
        assert_eq!(rows[0].cloudlets, 10);
        assert!((rows[0].seconds - 0.008674).abs() < 1e-12);
        assert_eq!(rows[0].profile, "release");
        assert_eq!(rows[0].cores, 2);
        assert_eq!(rows[0].commit, "664f8f2");
    }

    #[test]
    fn markdown_formats_cells_by_magnitude() {
        let row = |providers, seconds| ApproPerfRow {
            providers,
            cloudlets: 80,
            seconds,
            profile: "release".into(),
            cores: 2,
            commit: String::new(),
        };
        let md = appro_perf_markdown(&[row(100, 0.008674), row(1000, 23.172053)]);
        let lines: Vec<&str> = md.lines().collect();
        assert_eq!(lines.len(), 4);
        for line in &lines[1..] {
            assert_eq!(line.chars().count(), lines[0].chars().count());
        }
        for (line, cells) in [
            (lines[2], ["100 × 80", "0.009 s"]),
            (lines[3], ["1000 × 80", "23.2 s"]),
        ] {
            for cell in cells {
                assert!(line.contains(cell), "missing `{cell}` in `{line}`");
            }
        }
    }
}
