//! End-to-end tests of the HTTP admin surface over real sockets.
//!
//! Each test boots an in-process daemon with an ephemeral admin port
//! ([`ServerConfig::admin_addr`] = `127.0.0.1:0`), talks HTTP/1.1 to it
//! with a hand-rolled client (the same discipline as the surface under
//! test), and drains through the regular wire protocol. Covered:
//! Prometheus conformance and registry coverage of `GET /metrics`
//! (including counter monotonicity across scrapes), `GET /placement`
//! agreement with the `stats` verb, the one-provider drill-down,
//! robustness against malformed and oversized requests, and the
//! histogram reset.

use std::collections::HashMap;
use std::io::{Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::time::Duration;

use mec_core::model::{CloudletSpec, Market, ProviderSpec};
use mec_obs::probes::{ProbeKind, REGISTRY};
use mec_serve::{serve, Client, Response, ServerConfig, ServerHandle};

/// Two cloudlets, each with room for exactly two of the identical
/// providers (same fixture as the wire-protocol integration tests).
fn two_slot_market(providers: usize) -> Market {
    let mut b = Market::builder()
        .cloudlet(CloudletSpec::new(4.0, 20.0, 0.5, 0.5))
        .cloudlet(CloudletSpec::new(4.0, 20.0, 0.3, 0.2));
    for _ in 0..providers {
        b = b.provider(ProviderSpec::new(2.0, 8.0, 1.0, 30.0));
    }
    b.uniform_update_cost(0.2).build()
}

fn boot(market: Market, shards: usize) -> (ServerHandle, Client, SocketAddr) {
    let cfg = ServerConfig {
        shards,
        admin_addr: Some("127.0.0.1:0".to_string()),
        ..ServerConfig::default()
    };
    let handle = serve(market, &cfg).expect("boot");
    let admin = handle.admin_addr().expect("admin listener bound");
    let client = Client::connect(handle.addr()).expect("connect");
    client
        .set_timeout(Some(Duration::from_secs(30)))
        .expect("timeout");
    (handle, client, admin)
}

fn drain(handle: ServerHandle, client: &mut Client) {
    assert_eq!(client.shutdown().expect("shutdown"), Response::Draining);
    handle.join();
}

/// Sends raw bytes, returns `(status, body)` of the one-shot response.
fn raw(admin: SocketAddr, request: &[u8]) -> (u16, String) {
    let mut s = TcpStream::connect(admin).expect("connect admin");
    s.set_read_timeout(Some(Duration::from_secs(10)))
        .expect("read timeout");
    s.write_all(request).expect("write request");
    let mut reply = String::new();
    s.read_to_string(&mut reply).expect("read reply");
    let status = reply
        .split_whitespace()
        .nth(1)
        .and_then(|t| t.parse().ok())
        .unwrap_or_else(|| panic!("no status line in reply: {reply:.60}"));
    let body = reply
        .split_once("\r\n\r\n")
        .map(|(_, b)| b.to_string())
        .unwrap_or_default();
    (status, body)
}

fn get(admin: SocketAddr, path: &str) -> (u16, String) {
    raw(
        admin,
        format!("GET {path} HTTP/1.1\r\nHost: t\r\nConnection: close\r\n\r\n").as_bytes(),
    )
}

fn post(admin: SocketAddr, path: &str, body: &str) -> (u16, String) {
    raw(
        admin,
        format!(
            "POST {path} HTTP/1.1\r\nHost: t\r\nContent-Length: {}\r\n\
             Connection: close\r\n\r\n{body}",
            body.len()
        )
        .as_bytes(),
    )
}

/// Pulls `"field":<integer>` out of a flat JSON body.
fn json_u64(body: &str, field: &str) -> u64 {
    let key = format!("\"{field}\":");
    let at = body
        .find(&key)
        .unwrap_or_else(|| panic!("no {key} in {body:.120}"));
    body[at + key.len()..]
        .chars()
        .take_while(char::is_ascii_digit)
        .collect::<String>()
        .parse()
        .unwrap_or_else(|_| panic!("non-numeric {key} in {body:.120}"))
}

/// The admin surface's metric-name sanitization (mirrors
/// `mec_obs::prom`): every char outside `[a-zA-Z0-9_:]` becomes `_`.
fn sanitized(name: &str) -> String {
    name.chars()
        .map(|c| {
            if c.is_ascii_alphanumeric() || c == '_' || c == ':' {
                c
            } else {
                '_'
            }
        })
        .collect()
}

/// Parses exposition text into (`# TYPE` map, per-series sample values).
fn parse_prometheus(body: &str) -> (HashMap<String, String>, HashMap<String, f64>) {
    let mut types = HashMap::new();
    let mut samples = HashMap::new();
    for line in body.lines() {
        if line.is_empty() {
            continue;
        }
        if let Some(rest) = line.strip_prefix("# TYPE ") {
            let mut it = rest.split_whitespace();
            let (Some(name), Some(kind)) = (it.next(), it.next()) else {
                panic!("malformed TYPE line: {line}");
            };
            assert!(
                types.insert(name.to_string(), kind.to_string()).is_none(),
                "duplicate # TYPE for {name}"
            );
            continue;
        }
        if line.starts_with('#') {
            assert!(line.starts_with("# HELP "), "unknown comment line: {line}");
            continue;
        }
        // A sample: `series value` where series is `name` or `name{...}`.
        let (series, value) = line.rsplit_once(' ').expect("sample line has a value");
        let v: f64 = value.parse().unwrap_or_else(|_| {
            panic!("non-numeric sample value in line: {line}");
        });
        let metric = series.split('{').next().expect("series name");
        assert!(
            metric
                .chars()
                .all(|c| c.is_ascii_alphanumeric() || c == '_' || c == ':'),
            "invalid metric name char in line: {line}"
        );
        samples.insert(series.to_string(), v);
    }
    (types, samples)
}

#[test]
fn metrics_covers_registry_and_counters_are_monotonic() {
    let (handle, mut client, admin) = boot(two_slot_market(4), 2);
    for p in 0..3 {
        client.join(p).expect("join");
    }

    let (status, first) = get(admin, "/metrics");
    assert_eq!(status, 200);
    let (types, samples1) = parse_prometheus(&first);

    // Every registered probe that /metrics promises (gauges stream to
    // the JSONL sink only) appears with the right exposition type, even
    // before its first emission.
    for p in REGISTRY {
        let metric = sanitized(p.name);
        match p.kind {
            ProbeKind::Gauge => assert!(
                !types.contains_key(&metric),
                "gauge {} leaked into /metrics",
                p.name
            ),
            ProbeKind::Counter => assert_eq!(
                types.get(&metric).map(String::as_str),
                Some("counter"),
                "missing/mistyped counter {}",
                p.name
            ),
            ProbeKind::Histogram | ProbeKind::Span => assert_eq!(
                types.get(&metric).map(String::as_str),
                Some("summary"),
                "missing/mistyped summary {}",
                p.name
            ),
        }
    }
    // Per-shard publish latency is one family with a `shard` label, plus
    // the unlabelled aggregate. Every shard has published (its boot view
    // at least), but another test's histogram reset may have cleared that
    // since, so both shards publish again until a scrape shows them.
    assert!(first.contains("\nserve_publish_ns_count "));
    if mec_obs::enabled() {
        let both = |page: &str| {
            page.contains("serve_publish_ns_count{shard=\"0\"}")
                && page.contains("serve_publish_ns_count{shard=\"1\"}")
        };
        let mut page = first.clone();
        for _ in 0..3 {
            if both(&page) {
                break;
            }
            // Providers 0 and 1 are homed on shards 0 and 1.
            for p in 0..2 {
                client.leave(p).expect("leave");
                client.join(p).expect("join");
            }
            page = get(admin, "/metrics").1;
        }
        assert!(
            both(&page),
            "expected shard-labelled publish series in:\n{page:.400}"
        );
    }

    // More traffic, then a second scrape: counters never move backwards.
    for p in 0..3 {
        client.query(p).expect("query");
    }
    client.join(3).expect("join");
    let (status, second) = get(admin, "/metrics");
    assert_eq!(status, 200);
    let (_, samples2) = parse_prometheus(&second);
    for (series, &v1) in &samples1 {
        let metric = series.split('{').next().expect("name");
        if types.get(metric).map(String::as_str) != Some("counter") {
            continue;
        }
        let v2 = samples2
            .get(series)
            .unwrap_or_else(|| panic!("counter series {series} vanished on rescrape"));
        assert!(*v2 >= v1, "counter {series} went backwards: {v1} -> {v2}");
    }

    drain(handle, &mut client);
}

#[test]
fn placement_agrees_with_the_stats_verb() {
    let (handle, mut client, admin) = boot(two_slot_market(4), 2);
    for p in 0..3 {
        assert!(matches!(
            client.join(p).expect("join"),
            Response::Admitted { .. }
        ));
    }

    // Maintenance epochs may still be applying improving moves right
    // after the joins; poll until one scrape and one stats call observe
    // the same quiesced state.
    let deadline = std::time::Instant::now() + Duration::from_secs(30);
    loop {
        let stats = client.stats().expect("stats");
        let (status, body) = get(admin, "/placement");
        assert_eq!(status, 200);
        let agree = json_u64(&body, "seq") == stats.seq
            && json_u64(&body, "active") as usize == stats.active
            && body.matches("\"provider\":").count() == stats.active;
        if agree {
            break;
        }
        assert!(
            std::time::Instant::now() < deadline,
            "placement never agreed with stats: {stats:?} vs {body}"
        );
        std::thread::sleep(Duration::from_millis(10));
    }

    drain(handle, &mut client);
}

#[test]
fn malformed_and_oversized_requests_do_not_wedge_the_listener() {
    let (handle, mut client, admin) = boot(two_slot_market(2), 1);

    let (status, _) = raw(admin, b"GARBAGE NONSENSE\r\n\r\n");
    assert_eq!(status, 400, "non-HTTP bytes");

    let huge_header = format!(
        "GET /metrics HTTP/1.1\r\nX-Filler: {}\r\n\r\n",
        "x".repeat(16 * 1024)
    );
    let (status, _) = raw(admin, huge_header.as_bytes());
    assert_eq!(status, 431, "oversized head");

    let (status, _) = raw(
        admin,
        b"POST /reset/histograms HTTP/1.1\r\nContent-Length: 2000000\r\n\r\n",
    );
    assert_eq!(status, 413, "oversized body");

    let (status, _) = raw(admin, b"DELETE /metrics HTTP/1.1\r\n\r\n");
    assert_eq!(status, 405, "unsupported method");

    let (status, _) = get(admin, "/nope");
    assert_eq!(status, 404, "unknown path");

    // The path decides first: an unknown path is 404 for every method,
    // the removed topology reload included; a known path asked with the
    // wrong method is 405.
    for (request, want) in [
        (&b"POST /nope HTTP/1.1\r\n\r\n"[..], 404),
        (b"POST /reload/topology HTTP/1.1\r\n\r\n", 404),
        (b"DELETE /nope HTTP/1.1\r\n\r\n", 404),
        (b"POST /placement/0 HTTP/1.1\r\n\r\n", 405),
        (b"GET /reset/histograms HTTP/1.1\r\n\r\n", 405),
    ] {
        let (status, _) = raw(admin, request);
        assert_eq!(status, want, "{}", String::from_utf8_lossy(request).trim());
    }

    // A client that sends nothing and hangs up mid-head.
    drop(TcpStream::connect(admin).expect("connect"));

    // The listener survived all of it.
    let (status, body) = get(admin, "/shards");
    assert_eq!(status, 200);
    assert_eq!(json_u64(&body, "shard"), 0);

    drain(handle, &mut client);
}

#[test]
fn placement_drilldown_reports_one_provider() {
    let (handle, mut client, admin) = boot(two_slot_market(4), 2);
    assert!(matches!(
        client.join(1).expect("join"),
        Response::Admitted { .. }
    ));
    // Queries feed the demand tracker the drill-down's EWMA comes from.
    for _ in 0..5 {
        client.query(1).expect("query");
    }

    // Poll: the drill-down reads the owning shard's published view,
    // which covers the join once its batch is published.
    let deadline = std::time::Instant::now() + Duration::from_secs(30);
    let body = loop {
        let (status, body) = get(admin, "/placement/1");
        assert_eq!(status, 200, "{body}");
        if body.contains("\"active\":true") {
            break body;
        }
        assert!(
            std::time::Instant::now() < deadline,
            "drill-down never saw the join: {body}"
        );
        std::thread::sleep(Duration::from_millis(10));
    };
    assert_eq!(json_u64(&body, "provider"), 1);
    assert!(json_u64(&body, "shard") < 2);
    assert!(
        json_u64(&body, "cloudlet") < 2,
        "admitted provider must be cached: {body}"
    );
    // The fixture's demand vector rides along for capacity triage.
    assert_eq!(json_u64(&body, "compute_demand"), 2);
    assert_eq!(json_u64(&body, "bandwidth_demand"), 8);
    for field in [
        "demand_ewma",
        "residual_compute",
        "residual_bandwidth",
        "cost",
    ] {
        assert!(
            body.contains(&format!("\"{field}\":")),
            "{field} missing: {body}"
        );
    }

    // An admitted-but-unknown id is 404, a non-numeric one 400.
    let (status, body) = get(admin, "/placement/99");
    assert_eq!(status, 404, "{body}");
    let (status, body) = get(admin, "/placement/one");
    assert_eq!(status, 400, "{body}");

    drain(handle, &mut client);
}

#[test]
fn reset_histograms_keeps_counters_monotonic() {
    let (handle, mut client, admin) = boot(two_slot_market(4), 1);
    for p in 0..3 {
        client.join(p).expect("join");
        client.query(p).expect("query");
    }

    let (status, first) = get(admin, "/metrics");
    assert_eq!(status, 200);
    let (types, before) = parse_prometheus(&first);

    let (status, reply) = post(admin, "/reset/histograms", "");
    assert_eq!(status, 200, "{reply}");
    assert!(reply.contains("\"ok\":true"), "{reply}");
    // `cleared` reports how many distributions were dropped (0 in
    // builds without --features obs, where nothing ever records).
    let _ = json_u64(&reply, "cleared");

    // Histograms may re-baseline, counters must not move backwards.
    let (status, second) = get(admin, "/metrics");
    assert_eq!(status, 200);
    let (_, after) = parse_prometheus(&second);
    for (series, &v1) in &before {
        let metric = series.split('{').next().expect("name");
        if types.get(metric).map(String::as_str) != Some("counter") {
            continue;
        }
        let v2 = after
            .get(series)
            .unwrap_or_else(|| panic!("counter series {series} vanished after reset"));
        assert!(
            *v2 >= v1,
            "counter {series} went backwards across the reset: {v1} -> {v2}"
        );
    }
    // The reset endpoint answers POST only.
    let (status, _) = get(admin, "/reset/histograms");
    assert_eq!(status, 405);

    drain(handle, &mut client);
}
