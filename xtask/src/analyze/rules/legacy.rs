//! The original three lint rules (`panics`, `float-cmp`,
//! `thread-spawn`), ported from line scanning onto the token model.
//!
//! Semantics are unchanged except where the old implementation was
//! wrong and the token model fixes it:
//!
//! * string literals and block comments can no longer trip a rule
//!   (the old per-line stripper missed multiline strings and `/* */`);
//! * `#[cfg(test)]` exemption is scoped to the gated item's
//!   brace-matched extent (the old scanner exempted everything from
//!   the first marker to end of file, silently skipping non-test code
//!   after an inline test module);
//! * `panics` now also covers `crates/serve/src/` non-test code —
//!   daemon paths must surface protocol/`CacheError` failures instead
//!   of aborting a connection or market thread.
//!
//! The rules themselves:
//!
//! * `panics` — no `.unwrap(` / `.expect(` / `panic!(` in
//!   `crates/core/src/` or `crates/serve/src/` non-test code.
//! * `float-cmp` — no raw `==` / `!=` against float literals, and no
//!   `assert_eq!`/`assert_ne!` with a top-level float-literal operand,
//!   anywhere in first-party code (`crates/num` stays the one blessed
//!   home for exact float comparison).
//! * `thread-spawn` — no `thread::spawn` or `thread::Builder` outside
//!   `crates/bench/src/parallel.rs` (ad-hoc threads bypass the
//!   bounded, panic-propagating pool) without a marker.

use super::super::lexer::{is_float_literal, Kind};
use super::super::{Finding, SrcFile, Workspace};
use super::{lintable, method_call, touching};

/// `panics` over the workspace.
pub fn run_panics(ws: &Workspace) -> Vec<Finding> {
    ws.files.iter().flat_map(panics_in_file).collect()
}

/// `float-cmp` over the workspace.
pub fn run_float_cmp(ws: &Workspace) -> Vec<Finding> {
    ws.files.iter().flat_map(float_cmp_in_file).collect()
}

/// `thread-spawn` over the workspace.
pub fn run_thread_spawn(ws: &Workspace) -> Vec<Finding> {
    ws.files.iter().flat_map(thread_spawn_in_file).collect()
}

/// `panics` findings for one file (unsuppressed).
pub fn panics_in_file(f: &SrcFile) -> Vec<Finding> {
    let in_scope = lintable(&f.path)
        && (f.path.starts_with("crates/core/src/") || f.path.starts_with("crates/serve/src/"));
    if !in_scope {
        return Vec::new();
    }
    let mut out = Vec::new();
    for k in 0..f.sig.len() {
        let site = match method_call(f, k) {
            Some((name_k, "unwrap" | "expect")) => Some(name_k),
            _ => {
                // `panic!(`
                let t = f.tok(k);
                (t.kind == Kind::Ident
                    && t.text(&f.text) == "panic"
                    && k + 2 < f.sig.len()
                    && f.txt(k + 1) == "!"
                    && f.txt(k + 2) == "(")
                    .then_some(k)
            }
        };
        if let Some(s) = site {
            if !f.items.in_test_code(f.tok(s).start) {
                out.push(f.finding_at(s, "panics"));
            }
        }
    }
    out
}

/// `float-cmp` findings for one file (unsuppressed). Applies in test
/// code too — approximate assertions belong everywhere.
pub fn float_cmp_in_file(f: &SrcFile) -> Vec<Finding> {
    if !lintable(&f.path) {
        return Vec::new();
    }
    let mut out = Vec::new();
    for k in 0..f.sig.len() {
        if eq_op_at(f, k) && float_operand_around(f, k) {
            out.push(f.finding_at(k, "float-cmp"));
        }
        if assert_eq_with_float(f, k) {
            out.push(f.finding_at(k, "float-cmp"));
        }
    }
    out.dedup_by(|a, b| a.line == b.line);
    out
}

/// `thread-spawn` findings for one file (unsuppressed).
pub fn thread_spawn_in_file(f: &SrcFile) -> Vec<Finding> {
    if !lintable(&f.path) || f.path == "crates/bench/src/parallel.rs" {
        return Vec::new();
    }
    let mut out = Vec::new();
    for k in 3..f.sig.len() {
        let t = f.tok(k);
        if t.kind == Kind::Ident
            && matches!(t.text(&f.text), "spawn" | "Builder")
            && f.txt(k - 1) == ":"
            && f.txt(k - 2) == ":"
            && f.txt(k - 3) == "thread"
        {
            out.push(f.finding_at(k, "thread-spawn"));
        }
    }
    out
}

/// A raw `==` or `!=` operator with the `=`/`!` at sig index `k`.
fn eq_op_at(f: &SrcFile, k: usize) -> bool {
    let two =
        |a: &str| f.txt(k) == a && k + 1 < f.sig.len() && f.txt(k + 1) == "=" && touching(f, k);
    if !(two("=") || two("!")) {
        return false;
    }
    // Not part of a longer operator run (`<=`, `>=`, `..=`, `===`).
    if k > 0 && touching(f, k - 1) && matches!(f.txt(k - 1), "=" | "<" | ">" | "!" | ".") {
        return false;
    }
    if k + 2 < f.sig.len() && touching(f, k + 1) && f.txt(k + 2) == "=" {
        return false;
    }
    true
}

/// Float literal directly on either side of the operator at `k`
/// (allowing a unary `-` on the right).
fn float_operand_around(f: &SrcFile, k: usize) -> bool {
    if k > 0 && bare_float_at(f, k - 1) {
        return true;
    }
    let mut rhs = k + 2; // past `==`/`!=`
    if rhs < f.sig.len() && f.txt(rhs) == "-" {
        rhs += 1;
    }
    rhs < f.sig.len() && bare_float_at(f, rhs)
}

/// A float literal at sig index `j` that is itself the compared value —
/// not the receiver of a method call (`0.4f64.to_bits()` compares the
/// bit pattern exactly; the float never reaches the operator).
fn bare_float_at(f: &SrcFile, j: usize) -> bool {
    let t = f.tok(j);
    if t.kind != Kind::Num || !is_float_literal(t.text(&f.text)) {
        return false;
    }
    !(j + 2 < f.sig.len() && f.txt(j + 1) == "." && f.tok(j + 2).kind == Kind::Ident)
}

/// `assert_eq!(…)` / `assert_ne!(…)` at `k` with a float literal as a
/// *top-level* operand (depth 1 inside the macro parens — tolerance
/// args like `check(x, 1e-9)` sit deeper and are left alone).
fn assert_eq_with_float(f: &SrcFile, k: usize) -> bool {
    let t = f.tok(k);
    if t.kind != Kind::Ident
        || !matches!(t.text(&f.text), "assert_eq" | "assert_ne")
        || k + 2 >= f.sig.len()
        || f.txt(k + 1) != "!"
        || f.txt(k + 2) != "("
    {
        return false;
    }
    let mut depth = 0i64;
    let mut j = k + 2;
    while j < f.sig.len() {
        match f.txt(j) {
            "(" | "[" => depth += 1,
            ")" | "]" => {
                depth -= 1;
                if depth == 0 {
                    return false;
                }
            }
            _ => {
                if depth == 1 && bare_float_at(f, j) {
                    return true;
                }
            }
        }
        j += 1;
    }
    false
}
