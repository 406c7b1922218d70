//! Token-aware static-analysis engine (`cargo xtask analyze`).
//!
//! The engine loads every `.rs` file in the repository into a
//! [`Workspace`]: raw text, the lossless token stream from [`lexer`],
//! and the brace-matched item model from [`items`]. A registry of
//! [`Rule`]s then runs over the workspace; each rule returns
//! [`Finding`]s, and the engine filters out findings suppressed by the
//! `// lint: allow(<rule>)` marker contract (inline on the offending
//! line, or anywhere in the contiguous `//` comment block directly
//! above it).
//!
//! Rules (see [`rules`] for each one's full story):
//!
//! * `io-blocking` — nothing that blocks (sleeps, lock waits,
//!   blocking reads, channel receives) reachable from the event-loop
//!   entry point `run_io` in `crates/serve/src/eventloop.rs`.
//! * `lock-order` — the workspace-wide acquired-while-held graph over
//!   `Mutex` lock sites must be acyclic.
//! * `unsafe-audit` — every `unsafe` in `vendor/polling` carries a
//!   `// SAFETY:` justification, and every first-party crate root
//!   declares `#![forbid(unsafe_code)]`.
//! * `growth` — pushes into connection-scoped buffers in the serve
//!   data plane must sit in functions that visibly check a capacity.
//! * `probes` — obs probe names at instrumentation sites must appear
//!   in the registry `crates/obs/src/probes.rs` declares.
//! * `panics`, `float-cmp`, `thread-spawn` — the original lint rules,
//!   ported onto the token model (no more string-literal false
//!   positives, and `#[cfg(test)]` exemption scoped to the gated
//!   item's brace extent instead of running to end of file).
//!
//! Every rule has seeded self-test fixtures ([`self_test`]) proving it
//! both fires on a violation and stays quiet on the compliant twin.

pub mod items;
pub mod lexer;
pub mod rules;

use std::collections::BTreeMap;
use std::path::Path;

use items::FileItems;
use lexer::Tok;

/// One rule violation at a specific source line.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Finding {
    /// Repo-relative path (`/`-separated) of the offending file.
    pub file: String,
    /// 1-based line number.
    pub line: usize,
    /// Which rule fired.
    pub rule: &'static str,
    /// The offending line (trimmed), or a rule-specific description.
    pub excerpt: String,
}

impl std::fmt::Display for Finding {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "{}:{}: [{}] {}",
            self.file, self.line, self.rule, self.excerpt
        )
    }
}

/// One loaded source file: text, tokens, significant-token index, item
/// model, and the split lines the allow-marker check runs against.
pub struct SrcFile {
    /// Repo-relative path, `/`-separated.
    pub path: String,
    /// Full file contents.
    pub text: String,
    /// Lossless token stream.
    pub toks: Vec<Tok>,
    /// Indices into `toks` of the significant tokens, in order.
    pub sig: Vec<usize>,
    /// Brace-matched item model with test-extent resolution.
    pub items: FileItems,
}

impl SrcFile {
    /// Lexes and models `text` as the file at workspace-relative `path`.
    pub fn new(path: String, text: String) -> SrcFile {
        let toks = lexer::lex(&text);
        let sig = lexer::significant(&toks);
        let items = items::build(&text, &toks);
        SrcFile {
            path,
            text,
            toks,
            sig,
            items,
        }
    }

    /// The significant token at `sig[k]`.
    pub fn tok(&self, k: usize) -> &Tok {
        &self.toks[self.sig[k]]
    }

    /// Text of the significant token at `sig[k]`.
    pub fn txt(&self, k: usize) -> &str {
        self.tok(k).text(&self.text)
    }

    /// Trimmed source line `line` (1-based), for excerpts.
    pub fn line_text(&self, line: usize) -> String {
        self.text
            .lines()
            .nth(line.saturating_sub(1))
            .unwrap_or("")
            .trim()
            .to_string()
    }

    /// A finding at significant-token `k` in this file.
    pub fn finding_at(&self, k: usize, rule: &'static str) -> Finding {
        let line = self.tok(k).line as usize;
        Finding {
            file: self.path.clone(),
            line,
            rule,
            excerpt: self.line_text(line),
        }
    }

    /// `true` if line `line` (1-based) carries `// lint: allow(<rule>)`
    /// inline or in the contiguous `//` comment block directly above.
    pub fn allowed(&self, line: usize, rule: &str) -> bool {
        let marker = format!("lint: allow({rule})");
        let lines: Vec<&str> = self.text.lines().collect();
        let idx = line.saturating_sub(1);
        if lines.get(idx).is_some_and(|l| l.contains(&marker)) {
            return true;
        }
        let mut k = idx;
        while k > 0 && lines[k - 1].trim_start().starts_with("//") {
            k -= 1;
            if lines[k].contains(&marker) {
                return true;
            }
        }
        false
    }
}

/// Every `.rs` file in the repository, loaded and modeled. Rules pick
/// the subset they apply to by path.
pub struct Workspace {
    /// Loaded files, sorted by path.
    pub files: Vec<SrcFile>,
}

impl Workspace {
    /// Loads the repository at `root` (skips `target/` and `.git/`;
    /// vendored code IS loaded — the unsafe audit needs it).
    ///
    /// # Errors
    ///
    /// Returns any I/O error from walking or reading.
    pub fn load(root: &Path) -> std::io::Result<Workspace> {
        let mut rels = Vec::new();
        collect_rs(root, root, &mut rels)?;
        rels.sort();
        let mut files = Vec::new();
        for rel in rels {
            let text = std::fs::read_to_string(root.join(&rel))?;
            files.push(SrcFile::new(rel, text));
        }
        Ok(Workspace { files })
    }

    /// Builds an in-memory workspace from `(path, contents)` pairs — the
    /// self-test fixture constructor.
    pub fn from_fixtures(fixtures: &[(&str, &str)]) -> Workspace {
        let files = fixtures
            .iter()
            .map(|(p, s)| SrcFile::new((*p).to_string(), (*s).to_string()))
            .collect();
        Workspace { files }
    }

    /// The file at exactly `path`, if loaded.
    pub fn file(&self, path: &str) -> Option<&SrcFile> {
        self.files.iter().find(|f| f.path == path)
    }
}

fn collect_rs(root: &Path, dir: &Path, out: &mut Vec<String>) -> std::io::Result<()> {
    for entry in std::fs::read_dir(dir)? {
        let entry = entry?;
        let path = entry.path();
        let name = entry.file_name();
        let name = name.to_string_lossy().to_string();
        if path.is_dir() {
            if name == "target" || name == ".git" {
                continue;
            }
            collect_rs(root, &path, out)?;
        } else if name.ends_with(".rs") {
            let rel = path
                .strip_prefix(root)
                .unwrap_or(&path)
                .to_string_lossy()
                .replace('\\', "/");
            out.push(rel);
        }
    }
    Ok(())
}

/// One analysis rule: a name (the allow-marker key) and its pass.
pub struct Rule {
    /// Rule name as used in `// lint: allow(<name>)`.
    pub name: &'static str,
    /// The pass. Returns raw findings; the engine applies suppression.
    pub run: fn(&Workspace) -> Vec<Finding>,
}

/// The full rule registry, in report order.
pub fn registry() -> Vec<Rule> {
    vec![
        Rule {
            name: "io-blocking",
            run: rules::blocking::run,
        },
        Rule {
            name: "lock-order",
            run: rules::locks::run,
        },
        Rule {
            name: "unsafe-audit",
            run: rules::unsafe_audit::run,
        },
        Rule {
            name: "growth",
            run: rules::growth::run,
        },
        Rule {
            name: "probes",
            run: rules::probes::run,
        },
        Rule {
            name: "panics",
            run: rules::legacy::run_panics,
        },
        Rule {
            name: "float-cmp",
            run: rules::legacy::run_float_cmp,
        },
        Rule {
            name: "thread-spawn",
            run: rules::legacy::run_thread_spawn,
        },
    ]
}

/// Runs every registry rule over `ws`, applying allow-marker
/// suppression, and returns the surviving findings sorted by location.
pub fn run_all(ws: &Workspace) -> Vec<Finding> {
    let mut out = Vec::new();
    for rule in registry() {
        for f in (rule.run)(ws) {
            let suppressed = ws
                .file(&f.file)
                .is_some_and(|file| file.allowed(f.line, f.rule));
            if !suppressed {
                out.push(f);
            }
        }
    }
    out.sort_by(|a, b| (&a.file, a.line, a.rule).cmp(&(&b.file, b.line, b.rule)));
    out
}

/// Seeded per-rule fixtures: every rule must fire on its violation
/// fixture and stay quiet on the compliant twin. This is the proof the
/// pass bites — CI runs it next to the workspace pass.
///
/// # Errors
///
/// Returns a description of the first fixture whose finding count is
/// wrong.
pub fn self_test() -> Result<(), String> {
    let mut per_rule: BTreeMap<&str, (usize, usize)> = BTreeMap::new();
    for (k, case) in rules::fixtures::ALL.iter().enumerate() {
        let ws = Workspace::from_fixtures(case.files);
        let findings = run_all(&ws);
        let hits = findings.iter().filter(|f| f.rule == case.rule).count();
        if hits != case.expect {
            return Err(format!(
                "fixture {k} ({}: {}): expected {} finding(s) for rule {}, got {hits}: {findings:?}",
                case.rule, case.title, case.expect, case.rule
            ));
        }
        let e = per_rule.entry(case.rule).or_insert((0, 0));
        if case.expect > 0 {
            e.0 += 1;
        } else {
            e.1 += 1;
        }
    }
    // Every registry rule needs at least one firing fixture and one
    // clean/suppressed fixture — a rule without both is unproven.
    for rule in registry() {
        let (fire, quiet) = per_rule.get(rule.name).copied().unwrap_or((0, 0));
        if fire == 0 || quiet == 0 {
            return Err(format!(
                "rule {} lacks fixtures (firing: {fire}, quiet: {quiet})",
                rule.name
            ));
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_test_passes() {
        if let Err(e) = self_test() {
            panic!("{e}");
        }
    }

    #[test]
    fn vendor_num_and_build_output_are_exempt() {
        use rules::lintable;
        assert!(!lintable("vendor/rand/src/lib.rs"));
        assert!(!lintable("crates/num/src/lib.rs"));
        assert!(!lintable("target/debug/build.rs"));
        assert!(lintable("crates/core/src/game.rs"));
        assert!(lintable("src/bin/mec.rs"));
    }

    #[test]
    fn findings_render_with_location() {
        let ws =
            Workspace::from_fixtures(&[("crates/core/src/x.rs", "fn f() { panic!(\"x\") }\n")]);
        let f = run_all(&ws);
        assert_eq!(f.len(), 1);
        let s = f[0].to_string();
        assert!(s.contains("crates/core/src/x.rs:1"), "{s}");
        assert!(s.contains("[panics]"), "{s}");
    }

    #[test]
    fn allow_marker_contract() {
        let f = SrcFile::new(
            "x.rs".into(),
            "fn f() {\n    // rationale\n    // lint: allow(demo)\n    bad();\n    worse();\n}\n"
                .into(),
        );
        assert!(f.allowed(4, "demo"), "comment block above suppresses");
        assert!(!f.allowed(5, "demo"), "non-comment line breaks the block");
        assert!(!f.allowed(4, "other"), "marker is per-rule");
    }

    #[test]
    fn workspace_loads_real_repo_and_roundtrips() {
        // Lossless re-lex of every workspace file: the foundation every
        // rule stands on, checked against the real tree.
        let root = crate::repo_root();
        let ws = Workspace::load(&root).expect("workspace loads");
        assert!(ws.files.len() > 50, "repo has many .rs files");
        for f in &ws.files {
            let rebuilt: String = f.toks.iter().map(|t| t.text(&f.text)).collect();
            assert_eq!(rebuilt, f.text, "lossless lexing failed for {}", f.path);
            // Token line numbers agree with an independent newline scan —
            // the property every finding's reported location rests on.
            let mut line = 1u32;
            let mut at = 0usize;
            for t in &f.toks {
                line += f.text[at..t.start].bytes().filter(|&b| b == b'\n').count() as u32;
                at = t.start;
                assert_eq!(t.line, line, "line drift at byte {at} of {}", f.path);
            }
        }
    }

    #[test]
    fn workspace_is_clean_under_all_rules() {
        let root = crate::repo_root();
        let ws = Workspace::load(&root).expect("workspace loads");
        let findings = run_all(&ws);
        assert!(
            findings.is_empty(),
            "workspace must be analyze-clean:\n{}",
            findings
                .iter()
                .map(|f| f.to_string())
                .collect::<Vec<_>>()
                .join("\n")
        );
    }
}
