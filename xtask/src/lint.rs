//! `cargo xtask lint` — the original three-rule lint pass, now running
//! on the token-aware engine in [`crate::analyze`].
//!
//! The rules (`panics`, `float-cmp`, `thread-spawn`) and the
//! `// lint: allow(<rule>)` suppression contract are unchanged; see
//! [`crate::analyze::rules::legacy`] for their exact semantics and for
//! what the port fixed (string/comment false positives, `#[cfg(test)]`
//! exemption scoped to the gated item instead of running to end of
//! file, `panics` coverage extended to `mec-serve`).
//!
//! `cargo xtask analyze` runs these three plus the concurrency, unsafe,
//! growth, and probe-registry rules; `lint` stays as the fast
//! three-rule subset and the stable entry point CI has always called.

use std::path::Path;

use crate::analyze::rules::legacy;
use crate::analyze::{SrcFile, Workspace};

pub use crate::analyze::Finding;

/// Lints one file's contents; `path` must be repo-relative with `/`
/// separators. Returns every finding not suppressed by an allow marker.
pub fn lint_file(path: &str, contents: &str) -> Vec<Finding> {
    let f = SrcFile::new(path.to_string(), contents.to_string());
    findings_for(&f)
}

fn findings_for(f: &SrcFile) -> Vec<Finding> {
    let mut out = legacy::panics_in_file(f);
    out.extend(legacy::float_cmp_in_file(f));
    out.extend(legacy::thread_spawn_in_file(f));
    out.retain(|fd| !f.allowed(fd.line, fd.rule));
    out.sort_by_key(|fd| (fd.line, fd.rule));
    out
}

/// Lints every lintable `.rs` file under `root` (the repo checkout).
///
/// # Errors
///
/// Returns any I/O error encountered while walking or reading.
pub fn lint_tree(root: &Path) -> std::io::Result<Vec<Finding>> {
    let ws = Workspace::load(root)?;
    let mut out = Vec::new();
    for f in &ws.files {
        out.extend(findings_for(f));
    }
    Ok(out)
}

/// Seeded-violation snippets for the self-test: each MUST be flagged, and
/// each suppressed twin MUST NOT. Proves the pass actually bites.
///
/// # Errors
///
/// Returns a description of the first case with a wrong finding count.
pub fn self_test() -> Result<(), String> {
    let cases: &[(&str, &str, &str, usize)] = &[
        (
            "panics",
            "crates/core/src/seeded.rs",
            "pub fn f(x: Option<u32>) -> u32 {\n    x.unwrap()\n}\n",
            1,
        ),
        (
            "panics",
            "crates/core/src/seeded.rs",
            "pub fn f() {\n    panic!(\"boom\");\n}\n",
            1,
        ),
        (
            "panics",
            "crates/core/src/seeded.rs",
            // Suppressed by an inline marker.
            "pub fn f(x: Option<u32>) -> u32 {\n    x.unwrap() // lint: allow(panics)\n}\n",
            0,
        ),
        (
            "panics",
            "crates/core/src/seeded.rs",
            // Test code is exempt.
            "#[cfg(test)]\nmod tests {\n    fn f(x: Option<u32>) -> u32 { x.unwrap() }\n}\n",
            0,
        ),
        (
            "panics",
            "crates/core/src/seeded.rs",
            // The scoping fix: non-test code AFTER an inline test module
            // is NOT exempt (the old line scanner let this through).
            "#[cfg(test)]\nmod tests {\n    fn t() {}\n}\npub fn f(x: Option<u32>) -> u32 {\n    x.unwrap()\n}\n",
            1,
        ),
        (
            "panics",
            "crates/serve/src/seeded.rs",
            // The serve daemon is in scope now: connection/market paths
            // must surface errors, not abort their thread.
            "pub fn f(x: Option<u32>) -> u32 {\n    x.unwrap()\n}\n",
            1,
        ),
        (
            "panics",
            "crates/core/src/seeded.rs",
            // A multiline string literal is not code (the old per-line
            // stripper could not see this).
            "pub fn help() -> &'static str {\n    \"never panic!(\n     or .unwrap() anything\"\n}\n",
            0,
        ),
        (
            "float-cmp",
            "crates/core/src/seeded.rs",
            "fn f(x: f64) -> bool {\n    x == 0.0\n}\n",
            1,
        ),
        (
            "float-cmp",
            "crates/lp/src/seeded.rs",
            "fn f(x: f64) {\n    assert_eq!(x, 1.5);\n}\n",
            1,
        ),
        (
            "float-cmp",
            "crates/lp/src/seeded.rs",
            // Comment block above suppresses.
            "fn f(x: f64) -> bool {\n    // exact-zero guard is intended here\n    // lint: allow(float-cmp)\n    x != 0.0\n}\n",
            0,
        ),
        (
            "float-cmp",
            "crates/lp/src/revised.rs",
            // The sparse revised-simplex module is NOT exempt: a raw
            // float compare in a fresh pivot routine must be flagged.
            "fn skip_zero(v: f64) -> bool {\n    v != 0.0\n}\n",
            1,
        ),
        (
            "float-cmp",
            "crates/lp/src/revised.rs",
            // ... but the intentional pivot-tolerance style comparison
            // carries the marker, exactly as the real module does.
            "fn skip_zero(v: f64) -> bool {\n    // Exact zero-skip while gathering the CSC columns.\n    // lint: allow(float-cmp)\n    v != 0.0\n}\n",
            0,
        ),
        (
            "thread-spawn",
            "crates/lp/src/revised.rs",
            // Ad-hoc threads in the LP layer bypass the bounded pool.
            "fn f() {\n    std::thread::spawn(|| {});\n}\n",
            1,
        ),
        (
            "thread-spawn",
            "crates/sim/src/seeded.rs",
            "fn f() {\n    std::thread::spawn(|| {});\n}\n",
            1,
        ),
        (
            "thread-spawn",
            "crates/bench/src/parallel.rs",
            // The one blessed home for the worker pool.
            "fn f() {\n    std::thread::spawn(|| {});\n}\n",
            0,
        ),
        (
            "thread-spawn",
            "crates/serve/src/server.rs",
            // The daemon's long-lived threads (market, acceptor,
            // per-connection) are intentional and carry the marker in the
            // comment block above the spawn — the style server.rs uses.
            "fn f() {\n    // Acceptor thread: owns the listener.\n    // lint: allow(thread-spawn)\n    std::thread::spawn(|| {});\n}\n",
            0,
        ),
        (
            "thread-spawn",
            "crates/serve/src/server.rs",
            // A marker inside the spawned closure does NOT suppress: it
            // must sit on the spawn line or in the block above it.
            "fn f() {\n    std::thread::spawn(|| {\n        // lint: allow(thread-spawn)\n    });\n}\n",
            1,
        ),
        (
            "thread-spawn",
            "crates/serve/src/chan.rs",
            // Inline marker on the spawn line itself (the style the
            // channel tests use).
            "fn f() {\n    let t = std::thread::spawn(move || 1); // lint: allow(thread-spawn)\n}\n",
            0,
        ),
        (
            "thread-spawn",
            "crates/serve/src/shard.rs",
            // A named thread through `thread::Builder` is a spawn too.
            "fn f() {\n    let h = std::thread::Builder::new().name(\"shard-0\".into()).spawn(|| {});\n}\n",
            1,
        ),
        (
            "thread-spawn",
            "crates/serve/src/shard.rs",
            // ... and the marker above it suppresses, as for a plain spawn.
            "fn f() {\n    // Writer thread, joined through the set.\n    // lint: allow(thread-spawn)\n    let h = std::thread::Builder::new().name(\"shard-0\".into()).spawn(|| {});\n}\n",
            0,
        ),
    ];
    for (k, &(rule, path, src, want)) in cases.iter().enumerate() {
        let found = lint_file(path, src);
        let hits = found.iter().filter(|f| f.rule == rule).count();
        if hits != want {
            return Err(format!(
                "self-test case {k} ({rule} in {path}): expected {want} finding(s), got {hits}: {found:?}"
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
    fn operators_that_are_not_eq_are_ignored() {
        for body in [
            "if x <= 1.0 { g(); }",
            "if x >= 0.5 { g(); }",
            "let y = x * 2.0;",
            "let z = match n { 1 => 2.0, _ => 3.0 };",
            "for i in 0..2 { g(); }",
        ] {
            let src = format!("fn f(x: f64, n: u32) {{\n    {body}\n}}\n");
            let found = lint_file("crates/core/src/x.rs", &src);
            assert!(
                !found.iter().any(|f| f.rule == "float-cmp"),
                "false positive on: {body}: {found:?}"
            );
        }
    }

    #[test]
    fn eq_against_identifiers_is_fine() {
        let src = "fn f(a: f64, b: f64, out: Vec<u32>) {\n    let _ = a == b;\n    assert_eq!(a, b);\n    assert_eq!(out.len(), 3);\n}\n";
        assert_eq!(lint_file("crates/core/src/x.rs", src), vec![]);
    }

    #[test]
    fn eq_against_literals_is_flagged_either_side() {
        for body in [
            "let _ = 0.0 == x;",
            "let _ = x != 1e-9;",
            "assert_eq!(cost, 2.5 + 0.5);",
            "assert_ne!(cost, -1.0);",
        ] {
            let src = format!("fn f(x: f64, cost: f64) {{\n    {body}\n}}\n");
            let found = lint_file("crates/sim/src/x.rs", &src);
            assert_eq!(
                found.iter().filter(|f| f.rule == "float-cmp").count(),
                1,
                "missed: {body}"
            );
        }
    }

    #[test]
    fn strings_and_comments_do_not_trip_rules() {
        let f = lint_file(
            "crates/core/src/x.rs",
            "fn f() {\n    let s = \"a == 1.0 and panic!(\";\n    // x.unwrap() == 2.0\n    let _ = s;\n}\n",
        );
        assert_eq!(f, vec![]);
    }

    #[test]
    fn block_comments_do_not_trip_rules() {
        let f = lint_file(
            "crates/core/src/x.rs",
            "fn f() {\n    /* x.unwrap() == 2.0\n       panic!(\"no\") */\n}\n",
        );
        assert_eq!(f, vec![]);
    }

    #[test]
    fn vendor_and_num_are_exempt() {
        use crate::analyze::rules::lintable;
        assert!(!lintable("vendor/rand/src/lib.rs"));
        assert!(!lintable("crates/num/src/lib.rs"));
        assert!(!lintable("target/debug/build.rs"));
        assert!(lintable("crates/core/src/game.rs"));
        assert!(lintable("src/bin/mec.rs"));
    }

    #[test]
    fn findings_render_with_location() {
        let f = lint_file("crates/core/src/x.rs", "fn f() { panic!(\"x\") }\n");
        assert_eq!(f.len(), 1);
        let s = f[0].to_string();
        assert!(s.contains("crates/core/src/x.rs:1"), "{s}");
        assert!(s.contains("[panics]"), "{s}");
    }
}
