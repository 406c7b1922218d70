//! `probes` — obs probe names must come from the declared registry, and
//! each call must match its probe's kind.
//!
//! mec-obs keys every counter, histogram, and span by a string name.
//! A typo'd name at an instrumentation site doesn't fail anything — it
//! silently forks a second series (`serve.join.admited`) that no
//! dashboard, no `obsreport` reader, and no tailgate bound is looking
//! at. Recording a counter's name as a histogram forks it just as
//! silently, and `/metrics` then renders two `# TYPE` lines for one
//! family, which Prometheus rejects. This rule closes both holes:
//! `crates/obs/src/probes.rs` declares the registry of blessed probe
//! names with their kinds, and every call site must name a registered
//! probe with a literal and call it the way its kind is recorded.
//!
//! Checked call shapes (first argument a string literal):
//!
//! * `mec_obs::counter_add("…", …)` and `obs_counter!("…", …)` need a
//!   counter;
//! * `mec_obs::record("…", …)`, `mec_obs::record_many("…", …)` and
//!   `mec_obs::record_labelled("…", ("label", …), …)` need a histogram;
//!   the labelled call's label is a `(literal, value)` pair;
//! * `mec_obs::span("…")` and `obs_span!("…")` need a span;
//! * `mec_obs::gauge("…", …)` needs a gauge.
//!
//! A name computed at runtime (a variable, a `format!`) is out of
//! static reach, so outside the obs crate it is a finding: a
//! per-instance breakdown is one registered probe recorded with a label
//! instead. The obs crate itself and vendored code are exempt (the
//! registry file would otherwise flag its own doc examples).
//!
//! Registry shape: `crates/obs/src/probes.rs` declares
//! `pub const REGISTRY: &[Probe]` where each entry is a
//! `Probe { name: "…", kind: ProbeKind::…, help: "…" }` literal. A
//! declared name is exactly a string literal in non-test code sitting in
//! `name:` field position — which keeps the `help` text (free prose that
//! may mention probe-like words) out of the extracted set — and its kind
//! is the last identifier of the `kind:` field that follows it.

use super::super::lexer::Kind;
use super::super::{Finding, SrcFile, Workspace};
use std::collections::BTreeMap;

const REGISTRY_FILE: &str = "crates/obs/src/probes.rs";

/// Each probe function with the `ProbeKind` variant its name must have.
const FNS: &[(&str, &str)] = &[
    ("counter_add", "Counter"),
    ("record", "Histogram"),
    ("record_many", "Histogram"),
    ("record_labelled", "Histogram"),
    ("span", "Span"),
    ("gauge", "Gauge"),
];
/// Each probe macro with the kind its name must have.
const MACROS: &[(&str, &str)] = &[("obs_counter", "Counter"), ("obs_span", "Span")];

/// Runs the rule over the workspace. See the module docs.
pub fn run(ws: &Workspace) -> Vec<Finding> {
    let Some(reg_file) = ws.files.iter().find(|f| f.path.ends_with(REGISTRY_FILE)) else {
        // No registry declared — nothing to check against. The workspace
        // ships one; fixtures that omit it opt out of this rule.
        return Vec::new();
    };
    let registry = declared(reg_file);

    let mut out = Vec::new();
    for f in &ws.files {
        if f.path.starts_with("vendor/")
            || f.path.starts_with("target/")
            || f.path.starts_with("crates/obs/")
        {
            continue;
        }
        for k in 0..f.sig.len() {
            let t = f.tok(k);
            if t.kind != Kind::Ident {
                continue;
            }
            let txt = t.text(&f.text);
            let lookup = |table: &[(&str, &'static str)]| {
                table.iter().find(|(n, _)| *n == txt).map(|&(_, kind)| kind)
            };
            // `mec_obs::<fn>("name"` — k at the fn ident.
            let fn_site = k >= 3
                && f.txt(k - 1) == ":"
                && f.txt(k - 2) == ":"
                && f.txt(k - 3) == "mec_obs"
                && k + 2 < f.sig.len()
                && f.txt(k + 1) == "(";
            // `obs_counter!("name"` / `obs_span!("name"`.
            let macro_site = k + 3 < f.sig.len() && f.txt(k + 1) == "!" && f.txt(k + 2) == "(";
            let (arg_k, want) = match (lookup(FNS), lookup(MACROS)) {
                (Some(kind), _) if fn_site => (k + 2, kind),
                (_, Some(kind)) if macro_site => (k + 3, kind),
                _ => continue,
            };
            let arg = f.tok(arg_k);
            let line = arg.line as usize;
            let mut finding = |what: String| {
                out.push(Finding {
                    file: f.path.clone(),
                    line,
                    rule: "probes",
                    excerpt: format!("{what}: {}", f.line_text(line)),
                });
            };
            let Some(name) = (arg.kind == Kind::Str)
                .then(|| unquote(arg.text(&f.text)))
                .flatten()
            else {
                finding(format!(
                    "computed probe name in `{txt}`; record a registered literal (with a label)"
                ));
                continue;
            };
            match registry.get(name) {
                None => finding(format!(
                    "probe name \"{name}\" not in {REGISTRY_FILE} registry"
                )),
                Some(kind) if kind != want => finding(format!(
                    "probe \"{name}\" is registered as {kind}, but `{txt}` records a {want}"
                )),
                Some(_) => {}
            }
            // `record_labelled("name", ("label", value), sample)`.
            let labelled_shape = arg_k + 4 < f.sig.len()
                && f.txt(arg_k + 1) == ","
                && f.txt(arg_k + 2) == "("
                && f.tok(arg_k + 3).kind == Kind::Str
                && f.txt(arg_k + 4) == ",";
            if txt == "record_labelled" && !labelled_shape {
                finding(format!(
                    "labelled probe \"{name}\" needs a `(\"label\", value)` pair as its label"
                ));
            }
        }
    }
    out
}

/// Every registered probe name with the `ProbeKind` variant of its entry.
fn declared(reg: &SrcFile) -> BTreeMap<String, String> {
    let mut registry = BTreeMap::new();
    for k in 0..reg.sig.len() {
        let t = reg.tok(k);
        // Only literals in `name: "…"` field position declare a probe;
        // `help:` strings and doc examples stay out of the set.
        let named = t.kind == Kind::Str
            && k >= 2
            && reg.txt(k - 1) == ":"
            && reg.txt(k - 2) == "name"
            && !reg.items.in_test_code(t.start);
        let Some(name) = named.then(|| unquote(t.text(&reg.text))).flatten() else {
            continue;
        };
        // The entry's `kind: ProbeKind::<Variant>` follows its name.
        let kind = (k + 1..reg.sig.len())
            .take_while(|&j| reg.txt(j) != "name")
            .find(|&j| reg.txt(j) == "kind" && j + 1 < reg.sig.len() && reg.txt(j + 1) == ":")
            .map(|j| {
                let mut last = "";
                for i in j + 2..reg.sig.len() {
                    match reg.txt(i) {
                        ":" => {}
                        word if reg.tok(i).kind == Kind::Ident => last = word,
                        _ => break,
                    }
                }
                last.to_string()
            })
            .unwrap_or_default();
        registry.insert(name.to_string(), kind);
    }
    registry
}

/// Strips the quotes off a plain string literal token (`"x"` → `x`);
/// `None` for byte strings or literals with escapes (those are never
/// valid probe names anyway).
fn unquote(lit: &str) -> Option<&str> {
    let inner = lit.strip_prefix('"')?.strip_suffix('"')?;
    (!inner.contains('\\')).then_some(inner)
}
