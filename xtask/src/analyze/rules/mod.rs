//! The rule implementations behind [`super::registry`], plus shared
//! token-pattern helpers and the seeded self-test fixtures.

pub mod blocking;
pub mod fixtures;
pub mod growth;
pub mod legacy;
pub mod locks;
pub mod probes;
pub mod unsafe_audit;

use super::items::{Item, ItemKind};
use super::SrcFile;

/// `true` if the workspace path is first-party source the general rules
/// apply to (not vendored stand-ins, build output, or the blessed
/// float-helper crate).
pub fn lintable(path: &str) -> bool {
    if !path.ends_with(".rs") {
        return false;
    }
    !(path.starts_with("vendor/") || path.starts_with("target/") || path.starts_with("crates/num/"))
}

/// `true` if significant tokens `k` and `k + 1` touch byte-to-byte
/// (needed to tell `==` from `= =` and `a.b` from `a . b` — in practice
/// to keep multi-char operators honest).
pub fn touching(f: &SrcFile, k: usize) -> bool {
    k + 1 < f.sig.len() && f.tok(k).end == f.tok(k + 1).start
}

/// Matches a method call `.name(` at significant index `k` (pointing at
/// the `.`): returns the method name token index when
/// `f.txt(k) == "."`, `f.tok(k+1)` is an ident, and `f.txt(k+2) == "("`.
pub fn method_call(f: &SrcFile, k: usize) -> Option<(usize, &str)> {
    if f.txt(k) != "." {
        return None;
    }
    let name_k = k + 1;
    if name_k + 1 >= f.sig.len() {
        return None;
    }
    if f.tok(name_k).kind != super::lexer::Kind::Ident || f.txt(name_k + 1) != "(" {
        return None;
    }
    Some((name_k, f.txt(name_k)))
}

/// Matches a path call `a::b(` ending at ident index `k`: returns `true`
/// when `f.txt(k)` is `last` preceded by `::` preceded by ident `first`,
/// and followed by `(`. Catches `thread::sleep(`, `mec_obs::record(`,
/// whatever the leading path prefix (`std::thread::sleep` still ends in
/// `thread :: sleep`).
pub fn path_call(f: &SrcFile, k: usize, first: &str, last: &str) -> bool {
    if f.txt(k) != last || f.tok(k).kind != super::lexer::Kind::Ident {
        return false;
    }
    if k + 1 >= f.sig.len() || f.txt(k + 1) != "(" {
        return false;
    }
    k >= 3 && f.txt(k - 1) == ":" && f.txt(k - 2) == ":" && f.txt(k - 3) == first
}

/// The innermost `fn` item whose byte-range contains `at`.
pub fn enclosing_fn(items: &[Item], at: usize) -> Option<&Item> {
    let mut best: Option<&Item> = None;
    fn rec<'a>(items: &'a [Item], at: usize, best: &mut Option<&'a Item>) {
        for it in items {
            if at >= it.bytes.0 && at < it.bytes.1 {
                if it.kind == ItemKind::Fn {
                    *best = Some(it);
                }
                rec(&it.children, at, best);
            }
        }
    }
    rec(items, at, &mut best);
    best
}
