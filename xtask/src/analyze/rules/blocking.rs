//! `io-blocking` — the event-loop I/O threads must never block.
//!
//! The serve data plane's tail-latency story (DESIGN.md §3g) rests on
//! one invariant: an I/O thread parked on *anything* — a sleep, a lock
//! held across a market batch, a channel receive — stalls every
//! connection multiplexed onto it. An I/O thread does run market work
//! itself: when its push claims an idle shard's queue, it applies one
//! batch of client writes inline (a bounded turn). It still never waits
//! on another thread — the claim makes the one shard lock it takes
//! uncontended, and that site carries an allow marker saying so, like
//! the mailbox and inbox locks. This rule makes the invariant
//! checkable: starting from the event-loop entry point `run_io` in
//! `crates/serve/src/eventloop.rs`, it builds the file-local call graph
//! (an ident followed by `(` that names another function in the file is
//! an edge — a deliberately syntactic approximation) and scans every
//! reachable function body for blocking calls:
//!
//! * `thread::sleep(` — any path spelling ending in `thread::sleep`;
//! * `.lock(` and `lock_ok(` — mutex acquisition (the brief
//!   completion-mailbox and inbox locks and the claimed shard's lock
//!   the design *does* allow carry `// lint: allow(io-blocking)`
//!   markers with their justification);
//! * `.recv(` / `.recv_timeout(` / `.claim_batch(` — channel receives
//!   (the shard's writer thread owns those; I/O threads get completions
//!   pushed to them);
//! * `.wait(` / `.wait_timeout(` — condvar waits;
//! * `.read_exact(` / `.read_to_end(` / `.read_to_string(` /
//!   `.write_all(` — the read/write shapes that loop until satisfied
//!   and therefore block even on a nonblocking socket's EWOULDBLOCK
//!   only by spinning; the event loop must use plain `read`/`write`
//!   and handle partial progress.
//!
//! Test code in the file is exempt (tests drive the loop from the
//! outside and may block freely).

use super::super::{Finding, Workspace};
use super::{method_call, path_call};
use std::collections::{HashMap, HashSet, VecDeque};

const FILE: &str = "crates/serve/src/eventloop.rs";
const ROOT_FN: &str = "run_io";

const BLOCKING_METHODS: &[&str] = &[
    "lock",
    "recv",
    "recv_timeout",
    "claim_batch",
    "wait",
    "wait_timeout",
    "read_exact",
    "read_to_end",
    "read_to_string",
    "write_all",
];

/// Runs the rule over the workspace. See the module docs.
pub fn run(ws: &Workspace) -> Vec<Finding> {
    let mut out = Vec::new();
    for f in &ws.files {
        if !f.path.ends_with(FILE) {
            continue;
        }
        // All functions in the file, with their body sig-ranges.
        let fns: Vec<(&str, (usize, usize), bool)> = f
            .items
            .fns()
            .into_iter()
            .map(|it| (it.name.as_str(), it.body_toks, it.in_test))
            .collect();
        let names: HashSet<&str> = fns.iter().map(|(n, _, _)| *n).collect();

        // File-local call graph: fn -> fns it names in call position.
        let mut calls: HashMap<&str, HashSet<&str>> = HashMap::new();
        for (name, (lo, hi), _) in &fns {
            let callees = calls.entry(*name).or_default();
            for k in *lo..*hi {
                let t = f.tok(k);
                if t.kind == super::super::lexer::Kind::Ident
                    && k + 1 < f.sig.len()
                    && f.txt(k + 1) == "("
                {
                    let callee = f.txt(k);
                    if callee != *name && names.contains(callee) {
                        callees.insert(callee);
                    }
                }
            }
        }

        // Reachability from the event-loop roots.
        let mut reach: HashSet<&str> = HashSet::new();
        let mut queue: VecDeque<&str> = fns
            .iter()
            .filter(|(n, _, _)| *n == ROOT_FN)
            .map(|(n, _, _)| *n)
            .collect();
        while let Some(n) = queue.pop_front() {
            if !reach.insert(n) {
                continue;
            }
            if let Some(cs) = calls.get(n) {
                queue.extend(cs.iter().copied());
            }
        }

        for (name, (lo, hi), in_test) in &fns {
            if *in_test || !reach.contains(name) {
                continue;
            }
            for k in *lo..*hi {
                let hit = method_call(f, k)
                    .filter(|(_, m)| BLOCKING_METHODS.contains(m))
                    .map(|(name_k, _)| name_k)
                    .or_else(|| {
                        (path_call(f, k, "thread", "sleep")
                            || (f.txt(k) == "lock_ok"
                                && k + 1 < f.sig.len()
                                && f.txt(k + 1) == "("))
                            .then_some(k)
                    });
                if let Some(site) = hit {
                    out.push(f.finding_at(site, "io-blocking"));
                }
            }
        }
    }
    out
}
