//! Seeded self-test fixtures: one tiny in-memory workspace per case,
//! each proving a rule fires on a violation or stays quiet on the
//! compliant twin. `cargo xtask analyze --self-test` (and the unit
//! tests) run every case through the full engine — registry, rule,
//! and suppression — so a regression in any layer shows up here.

/// One self-test case.
pub struct Fixture {
    /// Rule under test (finding counts for other rules are ignored).
    pub rule: &'static str,
    /// Human-readable case name for failure messages.
    pub title: &'static str,
    /// `(repo-relative path, contents)` pairs forming the workspace.
    pub files: &'static [(&'static str, &'static str)],
    /// Expected number of findings for `rule` after suppression.
    pub expect: usize,
}

/// Every seeded case. Each registry rule must appear with at least one
/// firing (`expect > 0`) and one quiet (`expect == 0`) case — enforced
/// by [`super::super::self_test`].
pub const ALL: &[Fixture] = &[
    // ---------------------------------------------------------- io-blocking
    Fixture {
        rule: "io-blocking",
        title: "lock + sleep reachable from run_io fire; unreachable fn is quiet",
        files: &[(
            "crates/serve/src/eventloop.rs",
            r#"
pub fn run_io(s: &Shared) {
    loop { poll_once(s); }
}
fn poll_once(s: &Shared) {
    let queue = s.inbox.lock();
    std::thread::sleep(s.tick);
    drop(queue);
}
fn market_only(s: &Shared) {
    let g = s.state.lock();
    drop(g);
}
"#,
        )],
        expect: 2,
    },
    Fixture {
        rule: "io-blocking",
        title: "marker suppresses a justified brief lock",
        files: &[(
            "crates/serve/src/eventloop.rs",
            r#"
pub fn run_io(s: &Shared) {
    // The inbox lock covers a two-element pointer swap only; the
    // acceptor never holds it across a syscall.
    // lint: allow(io-blocking)
    let queue = s.inbox.lock();
    drop(queue);
}
"#,
        )],
        expect: 0,
    },
    Fixture {
        rule: "io-blocking",
        title: "blocking calls in fns unreachable from run_io are quiet",
        files: &[(
            "crates/serve/src/eventloop.rs",
            r#"
pub fn run_io(s: &Shared) {
    loop { poll_once(s); }
}
fn poll_once(_s: &Shared) {}
fn market_only(s: &Shared) {
    let g = s.state.lock();
    s.cv.wait(g);
}
"#,
        )],
        expect: 0,
    },
    // ----------------------------------------------------------- lock-order
    Fixture {
        rule: "lock-order",
        title: "opposite acquisition orders in two fns form a cycle",
        files: &[(
            "crates/serve/src/demo.rs",
            r#"
fn ab(s: &S) {
    let a = s.alpha.lock().expect("a"); // lint: allow(panics)
    let b = s.beta.lock().expect("b"); // lint: allow(panics)
    drop(b);
    drop(a);
}
fn ba(s: &S) {
    let b = s.beta.lock().expect("b"); // lint: allow(panics)
    let a = s.alpha.lock().expect("a"); // lint: allow(panics)
    drop(a);
    drop(b);
}
"#,
        )],
        expect: 1,
    },
    Fixture {
        rule: "lock-order",
        title: "consistent order everywhere is acyclic",
        files: &[(
            "crates/serve/src/demo.rs",
            r#"
fn ab(s: &S) {
    let a = s.alpha.lock().expect("a"); // lint: allow(panics)
    let b = s.beta.lock().expect("b"); // lint: allow(panics)
    drop(b);
    drop(a);
}
fn ab_again(s: &S) {
    let a = s.alpha.lock().expect("a"); // lint: allow(panics)
    let b = s.beta.lock().expect("b"); // lint: allow(panics)
    drop(b);
    drop(a);
}
"#,
        )],
        expect: 0,
    },
    Fixture {
        rule: "lock-order",
        title: "two shards taking each other's reply locks in opposite order cycle",
        files: &[(
            "crates/serve/src/handoff.rs",
            r#"
fn migrate_east(a: &Shard, b: &Shard) {
    let src = a.east.reply.lock().expect("east"); // lint: allow(panics)
    let dst = b.west.reply.lock().expect("west"); // lint: allow(panics)
    drop(dst);
    drop(src);
}
fn migrate_west(a: &Shard, b: &Shard) {
    let dst = b.west.reply.lock().expect("west"); // lint: allow(panics)
    let src = a.east.reply.lock().expect("east"); // lint: allow(panics)
    drop(src);
    drop(dst);
}
"#,
        )],
        expect: 1,
    },
    Fixture {
        rule: "lock-order",
        title: "reply locks ranked by shard id acquire in one global order",
        files: &[(
            "crates/serve/src/handoff.rs",
            r#"
fn migrate_east(a: &Shard, b: &Shard) {
    let src = a.east.reply.lock().expect("east"); // lint: allow(panics)
    let dst = b.west.reply.lock().expect("west"); // lint: allow(panics)
    drop(dst);
    drop(src);
}
fn migrate_west(a: &Shard, b: &Shard) {
    let src = a.east.reply.lock().expect("east"); // lint: allow(panics)
    let dst = b.west.reply.lock().expect("west"); // lint: allow(panics)
    drop(dst);
    drop(src);
}
"#,
        )],
        expect: 0,
    },
    Fixture {
        rule: "lock-order",
        title: "drop() before the second acquisition breaks the edge",
        files: &[(
            "crates/serve/src/demo.rs",
            r#"
fn ab(s: &S) {
    let a = s.alpha.lock().expect("a"); // lint: allow(panics)
    drop(a);
    let b = s.beta.lock().expect("b"); // lint: allow(panics)
    drop(b);
}
fn ba(s: &S) {
    let b = s.beta.lock().expect("b"); // lint: allow(panics)
    let a = s.alpha.lock().expect("a"); // lint: allow(panics)
    drop(a);
    drop(b);
}
"#,
        )],
        expect: 0,
    },
    Fixture {
        rule: "lock-order",
        title: "temporary guard dies at its statement; no edge to later locks",
        files: &[(
            "crates/serve/src/demo.rs",
            r#"
fn ab(s: &S) {
    s.alpha.lock().expect("a").step(); // lint: allow(panics)
    let b = s.beta.lock().expect("b"); // lint: allow(panics)
    drop(b);
}
fn ba(s: &S) {
    s.beta.lock().expect("b").step(); // lint: allow(panics)
    let a = s.alpha.lock().expect("a"); // lint: allow(panics)
    drop(a);
}
"#,
        )],
        expect: 0,
    },
    // --------------------------------------------------------- unsafe-audit
    Fixture {
        rule: "unsafe-audit",
        title: "unsafe in vendor/polling without SAFETY comment fires",
        files: &[(
            "vendor/polling/src/lib.rs",
            r#"
pub fn poll_once(fds: &mut [PollFd]) -> i32 {
    unsafe { sys_poll(fds.as_mut_ptr(), fds.len() as u64, 0) }
}
"#,
        )],
        expect: 1,
    },
    Fixture {
        rule: "unsafe-audit",
        title: "SAFETY comment block above the unsafe satisfies the audit",
        files: &[(
            "vendor/polling/src/lib.rs",
            r#"
pub fn poll_once(fds: &mut [PollFd]) -> i32 {
    // SAFETY: `fds` is a live, exclusively borrowed slice; the kernel
    // writes only within its length for the duration of the call.
    unsafe { sys_poll(fds.as_mut_ptr(), fds.len() as u64, 0) }
}
"#,
        )],
        expect: 0,
    },
    Fixture {
        rule: "unsafe-audit",
        title: "first-party crate root missing forbid(unsafe_code) fires",
        files: &[(
            "crates/demo/src/lib.rs",
            "//! Demo crate.\npub fn f() {}\n",
        )],
        expect: 1,
    },
    Fixture {
        rule: "unsafe-audit",
        title: "crate root declaring forbid(unsafe_code) is compliant",
        files: &[(
            "crates/demo/src/lib.rs",
            "//! Demo crate.\n#![forbid(unsafe_code)]\npub fn f() {}\n",
        )],
        expect: 0,
    },
    // --------------------------------------------------------------- growth
    Fixture {
        rule: "growth",
        title: "extend_from_slice with no capacity in scope fires",
        files: &[(
            "crates/serve/src/proto.rs",
            r#"
pub struct Dec { buf: Vec<u8> }
impl Dec {
    pub fn extend(&mut self, bytes: &[u8]) {
        self.buf.extend_from_slice(bytes);
    }
}
"#,
        )],
        expect: 1,
    },
    Fixture {
        rule: "growth",
        title: "a named capacity bound in the enclosing fn satisfies the rule",
        files: &[(
            "crates/serve/src/proto.rs",
            r#"
pub struct Dec { buf: Vec<u8> }
impl Dec {
    pub fn extend(&mut self, bytes: &[u8]) -> bool {
        if self.buf.len() + bytes.len() > MAX_FRAME {
            return false;
        }
        self.buf.extend_from_slice(bytes);
        true
    }
}
"#,
        )],
        expect: 0,
    },
    Fixture {
        rule: "growth",
        title: "literal pushes, markers, and test code are all exempt",
        files: &[(
            "crates/serve/src/chan.rs",
            r#"
pub struct Q { buf: Vec<u8> }
impl Q {
    pub fn tag(&mut self) {
        self.buf.push(7);
    }
    pub fn carry(&mut self, b: u8) {
        // Bounded by the sender's checked queue depth (cap enforced in
        // Sender::send before the value ever reaches this buffer).
        // lint: allow(growth)
        self.buf.push(b);
    }
}
#[cfg(test)]
mod tests {
    fn grow(v: &mut Vec<u8>, b: u8) { v.push(b); }
}
"#,
        )],
        expect: 0,
    },
    // --------------------------------------------------------------- probes
    Fixture {
        rule: "probes",
        title: "typo'd probe name not in the registry fires",
        files: &[
            (
                "crates/obs/src/probes.rs",
                "//! Probe registry.\npub const REGISTRY: &[Probe] = &[Probe {\n    name: \"serve.join.admitted\",\n    kind: ProbeKind::Counter,\n    help: \"Admitted joins; mentions serve.join.admited on purpose.\",\n}];\n",
            ),
            (
                "crates/serve/src/market.rs",
                "pub fn admit() {\n    mec_obs::counter_add(\"serve.join.admited\", 1);\n}\n",
            ),
        ],
        expect: 1,
    },
    Fixture {
        rule: "probes",
        title: "a registered name fits; a computed name beside it fires",
        files: &[
            (
                "crates/obs/src/probes.rs",
                "//! Probe registry.\npub const REGISTRY: &[Probe] = &[Probe {\n    name: \"serve.join.admitted\",\n    kind: ProbeKind::Counter,\n    help: \"Admitted joins.\",\n}];\n",
            ),
            (
                "crates/serve/src/market.rs",
                "pub fn admit(name: &str) {\n    mec_obs::counter_add(\"serve.join.admitted\", 1);\n    mec_obs::record(name, 1);\n    obs_counter!(\"serve.join.admitted\", 1);\n}\n",
            ),
        ],
        expect: 1,
    },
    Fixture {
        rule: "probes",
        title: "every call at its probe's kind, the labelled one with a literal label, is quiet",
        files: &[
            ("crates/obs/src/probes.rs", "//! Probe registry.\npub const REGISTRY: &[Probe] = &[\n    Probe {\n        name: \"serve.join.admitted\",\n        kind: ProbeKind::Counter,\n        help: \"Admitted joins.\",\n    },\n    Probe {\n        name: \"serve.publish.ns\",\n        kind: ProbeKind::Histogram,\n        help: \"Publish latency (label `shard`).\",\n    },\n    Probe {\n        name: \"serve.turn\",\n        kind: ProbeKind::Span,\n        help: \"One turn.\",\n    },\n];\n"),
            (
                "crates/serve/src/market.rs",
                "pub fn turn(k: usize, ns: u64) {\n    obs_span!(\"serve.turn\");\n    mec_obs::counter_add(\"serve.join.admitted\", 1);\n    mec_obs::record(\"serve.publish.ns\", ns);\n    mec_obs::record_labelled(\"serve.publish.ns\", (\"shard\", k), ns);\n}\n",
            ),
        ],
        expect: 0,
    },
    Fixture {
        rule: "probes",
        title: "a counter recorded as a histogram and a histogram timed as a span fire",
        files: &[
            ("crates/obs/src/probes.rs", "//! Probe registry.\npub const REGISTRY: &[Probe] = &[\n    Probe {\n        name: \"serve.join.admitted\",\n        kind: ProbeKind::Counter,\n        help: \"Admitted joins.\",\n    },\n    Probe {\n        name: \"serve.publish.ns\",\n        kind: ProbeKind::Histogram,\n        help: \"Publish latency (label `shard`).\",\n    },\n    Probe {\n        name: \"serve.turn\",\n        kind: ProbeKind::Span,\n        help: \"One turn.\",\n    },\n];\n"),
            (
                "crates/serve/src/market.rs",
                "pub fn admit(ns: u64) {\n    mec_obs::record(\"serve.join.admitted\", ns);\n    mec_obs::counter_add(\"serve.join.admitted\", 1);\n    let _t = mec_obs::span(\"serve.publish.ns\");\n}\n",
            ),
        ],
        expect: 2,
    },
    Fixture {
        rule: "probes",
        title: "a per-shard name held in a field fires, as does a computed label name",
        files: &[
            ("crates/obs/src/probes.rs", "//! Probe registry.\npub const REGISTRY: &[Probe] = &[\n    Probe {\n        name: \"serve.join.admitted\",\n        kind: ProbeKind::Counter,\n        help: \"Admitted joins.\",\n    },\n    Probe {\n        name: \"serve.publish.ns\",\n        kind: ProbeKind::Histogram,\n        help: \"Publish latency (label `shard`).\",\n    },\n    Probe {\n        name: \"serve.turn\",\n        kind: ProbeKind::Span,\n        help: \"One turn.\",\n    },\n];\n"),
            (
                "crates/serve/src/market.rs",
                "impl Shard {\n    pub fn publish(&self, key: &'static str, ns: u64) {\n        mec_obs::record(self.probe_name, ns);\n        mec_obs::record_labelled(\"serve.publish.ns\", (key, self.index), ns);\n    }\n}\n",
            ),
        ],
        expect: 2,
    },
    // --------------------------------------------------------------- panics
    Fixture {
        rule: "panics",
        title: "unwrap AFTER an inline #[cfg(test)] module is flagged (scoping fix)",
        files: &[(
            "crates/core/src/seeded.rs",
            r#"
fn before() -> u32 { 1 }
#[cfg(test)]
mod tests {
    #[test]
    fn t() {
        assert_eq!(super::before(), 1);
    }
}
pub fn after(x: Option<u32>) -> u32 {
    x.unwrap()
}
"#,
        )],
        expect: 1,
    },
    Fixture {
        rule: "panics",
        title: "panic! in library code fires",
        files: &[(
            "crates/core/src/seeded.rs",
            "pub fn f() {\n    panic!(\"boom\");\n}\n",
        )],
        expect: 1,
    },
    Fixture {
        rule: "panics",
        title: "unwrap inside an inline #[cfg(test)] module is exempt",
        files: &[(
            "crates/core/src/seeded.rs",
            "#[cfg(test)]\nmod tests {\n    fn f(x: Option<u32>) -> u32 { x.unwrap() }\n}\n",
        )],
        expect: 0,
    },
    Fixture {
        rule: "panics",
        title: "mec-serve non-test code is now in scope",
        files: &[(
            "crates/serve/src/market.rs",
            "pub fn f(x: Option<u32>) -> u32 {\n    x.unwrap()\n}\n",
        )],
        expect: 1,
    },
    Fixture {
        rule: "panics",
        title: "panic-looking text inside a multiline string is not code",
        files: &[(
            "crates/core/src/seeded.rs",
            "pub fn help() -> &'static str {\n    \"do not panic!(\n     or .unwrap() or .expect( anything\"\n}\n",
        )],
        expect: 0,
    },
    Fixture {
        rule: "panics",
        title: "unwrap_or_else is not unwrap; markers still suppress",
        files: &[(
            "crates/serve/src/chan.rs",
            r#"
pub fn a(m: &std::sync::Mutex<u32>) -> u32 {
    *m.lock().unwrap_or_else(|e| e.into_inner())
}
pub fn b(x: Option<u32>) -> u32 {
    x.unwrap() // lint: allow(panics)
}
"#,
        )],
        expect: 0,
    },
    // ------------------------------------------------------------ float-cmp
    Fixture {
        rule: "float-cmp",
        title: "raw == against a float literal fires",
        files: &[(
            "crates/core/src/x.rs",
            "fn f(x: f64) -> bool {\n    x == 0.0\n}\n",
        )],
        expect: 1,
    },
    Fixture {
        rule: "float-cmp",
        title: "float literals on either side of ==, != and assert_eq!/assert_ne! fire",
        files: &[(
            "crates/sim/src/x.rs",
            "fn f(x: f64, cost: f64) {\n    let _ = 0.0 == x;\n    let _ = x != 1e-9;\n    assert_eq!(cost, 2.5 + 0.5);\n    assert_ne!(cost, -1.0);\n}\n",
        )],
        expect: 4,
    },
    Fixture {
        rule: "float-cmp",
        title: "a comment-block marker suppresses; other operators and identifiers are fine",
        files: &[
            (
                "crates/lp/src/revised.rs",
                "fn skip_zero(v: f64) -> bool {\n    // Exact zero-skip while gathering the CSC columns.\n    // lint: allow(float-cmp)\n    v != 0.0\n}\n",
            ),
            (
                "crates/core/src/x.rs",
                "fn f(x: f64, a: f64, b: f64, n: u32) {\n    if x <= 1.0 { g(); }\n    if x >= 0.5 { g(); }\n    let y = x * 2.0;\n    let z = match n { 1 => 2.0, _ => 3.0 };\n    for i in 0..2 { g(); }\n    let _ = a == b;\n    assert_eq!(a, b);\n}\n",
            ),
            (
                "crates/core/src/y.rs",
                "fn f() {\n    let s = \"a == 1.0\";\n    // x.unwrap() == 2.0\n    /* x == 2.0\n       panic!(\"no\") */\n}\n",
            ),
        ],
        expect: 0,
    },
    Fixture {
        rule: "float-cmp",
        title: "assert_eq! with a top-level float operand fires even in tests",
        files: &[(
            "crates/lp/src/x.rs",
            "#[cfg(test)]\nmod tests {\n    #[test]\n    fn t(x: f64) {\n        assert_eq!(x, 1.5);\n    }\n}\n",
        )],
        expect: 1,
    },
    Fixture {
        rule: "float-cmp",
        title: "nested tolerance args, strings, and crates/num are all exempt",
        files: &[
            (
                "crates/lp/src/x.rs",
                "fn f(x: f64) {\n    assert!(approx_eq(x, 1.0, 1e-9));\n    let s = \"x == 1.0\";\n    assert_eq!(check(x, 1e-9), true);\n}\n",
            ),
            (
                "crates/num/src/approx.rs",
                "pub fn exact(x: f64) -> bool {\n    x == 0.0\n}\n",
            ),
            (
                "crates/core/src/bits.rs",
                "fn f(x: f64) {\n    assert_eq!(x.to_bits(), 0.4f64.to_bits());\n    let b = x.to_bits() == 0.25f64.to_bits();\n    assert!(b);\n}\n",
            ),
        ],
        expect: 0,
    },
    // --------------------------------------------------------- thread-spawn
    Fixture {
        rule: "thread-spawn",
        title: "ad-hoc std::thread::spawn fires",
        files: &[(
            "crates/sim/src/x.rs",
            "fn f() {\n    std::thread::spawn(|| {});\n}\n",
        )],
        expect: 1,
    },
    Fixture {
        rule: "thread-spawn",
        title: "a named std::thread::Builder spawn fires",
        files: &[(
            "crates/serve/src/x.rs",
            "fn f() {\n    let h = std::thread::Builder::new().name(\"io-0\".into()).spawn(|| {});\n}\n",
        )],
        expect: 1,
    },
    Fixture {
        rule: "thread-spawn",
        title: "a marked std::thread::Builder spawn is exempt",
        files: &[(
            "crates/serve/src/server.rs",
            "fn f() {\n    // Daemon thread, joined via the handle.\n    // lint: allow(thread-spawn)\n    let h = std::thread::Builder::new().name(\"io-0\".into()).spawn(|| {});\n}\n",
        )],
        expect: 0,
    },
    Fixture {
        rule: "thread-spawn",
        title: "a marker inside the spawned closure does not suppress",
        files: &[(
            "crates/serve/src/server.rs",
            "fn f() {\n    std::thread::spawn(|| {\n        // lint: allow(thread-spawn)\n    });\n}\n",
        )],
        expect: 1,
    },
    Fixture {
        rule: "thread-spawn",
        title: "a marker on the spawn line itself suppresses",
        files: &[(
            "crates/serve/src/chan.rs",
            "fn f() {\n    let t = std::thread::spawn(move || 1); // lint: allow(thread-spawn)\n}\n",
        )],
        expect: 0,
    },
    Fixture {
        rule: "thread-spawn",
        title: "the bench pool home and marked daemon threads are exempt",
        files: &[
            (
                "crates/bench/src/parallel.rs",
                "fn f() {\n    std::thread::spawn(|| {});\n}\n",
            ),
            (
                "crates/serve/src/server.rs",
                "fn f() {\n    // Daemon thread, joined via the handle.\n    // lint: allow(thread-spawn)\n    std::thread::spawn(|| {});\n}\n",
            ),
        ],
        expect: 0,
    },
];
