//! HTTP/1.1 admin surface: live metrics and market inspection.
//!
//! A daemon booted with an admin address ([`crate::ServerConfig::admin_addr`])
//! runs one extra thread serving a hand-rolled, std-only HTTP/1.1
//! listener — no new dependencies, the same discipline as the JSONL
//! wire protocol in [`crate::proto`]. Endpoints (see `PROTOCOL.md` for
//! example requests/responses):
//!
//! * `GET /metrics` — every registered `mec-obs` counter and histogram
//!   in Prometheus exposition format ([`mec_obs::prom::render`] over a
//!   live [`mec_obs::summary`] snapshot: one registry lock, bounded
//!   clones). Per-shard publish series carry `shard="k"` labels plus an
//!   exactly merged aggregate. Builds without `--features obs` export
//!   the registered inventory pinned at zero.
//! * `GET /placement` — the admitted providers' placements, costs and
//!   owning shards, read lock-free from the arc-swapped per-shard
//!   [`crate::view::MarketView`]s (the same source the `query`/`stats`
//!   verbs answer from; `seq` is the shard-summed stats seq).
//! * `GET /placement/<provider-id>` — one provider's drill-down:
//!   assignment, cost, demand vector, observed request-rate EWMA, and
//!   the residual capacity of its cloudlet (when cached). `400` for a
//!   non-numeric id, `404` for an id outside the booted universe.
//! * `POST /reset/histograms` — clear every `mec-obs` latency histogram
//!   (counters stay monotonic, Prometheus-safe) so operators can
//!   re-baseline tails after a deploy or an incident; answers with how
//!   many were dropped.
//! * `GET /residuals` — Eq. 4–5 residual capacities and congestion per
//!   cloudlet, each read from its owning shard's published view.
//! * `GET /shards` — per-shard queue depth, settled writes, published
//!   seq, and cross-shard migration counts from [`crate::shard::ShardGauges`].
//! * `POST /reload/topology` — swap the cloudlet→shard region map used
//!   for pinned-join forwarding and rebalance targeting. The body is
//!   whitespace/comma-separated shard indices, one per cloudlet, and is
//!   validated (every cloudlet mapped, every shard non-empty, no shard
//!   out of range) *before* the swap; an invalid body changes nothing.
//!   Capacity ownership is fixed at boot, so a reload can re-steer
//!   routing but never oversubscribe — joins pinned to a cloudlet whose
//!   map entry disagrees with its boot owner are refused cleanly.
//!
//! The listener is deliberately sequential: admin traffic is one
//! scraper, not a fleet. Robustness against a wedged or malicious
//! client comes from hard caps ([`MAX_HEADER`], [`MAX_BODY`]) and
//! per-connection read/write timeouts (`IO_TIMEOUT`, 2 s) — a stalled
//! request costs at most one timeout, never a stuck thread — and every
//! response closes the connection (`Connection: close`).

use std::io::{ErrorKind, Read, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::Duration;

use mec_core::Placement;

use crate::shard::{Coordinator, Router, ShardGauges};
use crate::view::SharedView;

/// Hard cap on the request line + headers.
pub const MAX_HEADER: usize = 8 * 1024;
/// Hard cap on a request body (the topology map), matching the wire
/// protocol's frame cap.
pub const MAX_BODY: usize = 1 << 20;
/// Per-connection read/write timeout.
const IO_TIMEOUT: Duration = Duration::from_secs(2);
/// Accept-poll interval while idle (bounds shutdown latency).
const ACCEPT_POLL: Duration = Duration::from_millis(25);

/// Read-only daemon state shared with the admin thread.
pub struct AdminShared {
    /// Published per-shard views (lock-free reads, same as the data path).
    pub views: Vec<Arc<SharedView>>,
    /// Provider→shard ownership map.
    pub router: Arc<Router>,
    /// Per-shard depth/write/migration gauges.
    pub gauges: Arc<ShardGauges>,
    /// Region map + epochs (the reload endpoint swaps the map here).
    pub coord: Arc<Coordinator>,
    /// Daemon stop flag; the admin loop exits when it flips.
    pub stop: Arc<AtomicBool>,
    /// Cloudlet count of the booted market (validates reload bodies).
    pub cloudlets: usize,
    /// Provider count of the booted market.
    pub providers: usize,
}

/// Binds the admin listener. Separate from [`spawn_admin`] so boot can
/// fail fast on a bad address before any thread starts.
pub fn bind_admin(addr: &str) -> std::io::Result<(TcpListener, SocketAddr)> {
    let listener = TcpListener::bind(addr)?;
    let local = listener.local_addr()?;
    listener.set_nonblocking(true)?;
    Ok((listener, local))
}

/// Spawns the admin thread: a sequential accept loop that polls the
/// daemon stop flag between accepts.
pub fn spawn_admin(listener: TcpListener, shared: Arc<AdminShared>) -> JoinHandle<()> {
    // One long-lived service thread joined through the ServerHandle,
    // like the acceptor. lint: allow(thread-spawn)
    std::thread::spawn(move || admin_loop(&listener, &shared))
}

fn admin_loop(listener: &TcpListener, shared: &AdminShared) {
    loop {
        match listener.accept() {
            Ok((stream, _)) => handle_connection(stream, shared),
            Err(e) if e.kind() == ErrorKind::WouldBlock => {
                if shared.stop.load(Ordering::SeqCst) {
                    return;
                }
                std::thread::sleep(ACCEPT_POLL);
            }
            Err(_) => {
                // Transient accept error (EMFILE, aborted handshake):
                // back off and keep serving.
                if shared.stop.load(Ordering::SeqCst) {
                    return;
                }
                std::thread::sleep(ACCEPT_POLL);
            }
        }
    }
}

/// One request per connection, then close. Any parse failure answers
/// with the matching 4xx; any I/O failure just drops the socket.
fn handle_connection(stream: TcpStream, shared: &AdminShared) {
    let mut stream = stream;
    let _ = stream.set_nonblocking(false);
    let _ = stream.set_read_timeout(Some(IO_TIMEOUT));
    let _ = stream.set_write_timeout(Some(IO_TIMEOUT));
    let request = read_request(&mut stream);
    let rejected = request.is_err();
    let (status, content_type, body) = match request {
        Ok(req) => dispatch(&req, shared),
        Err(e) => (e.status(), "application/json", e.body()),
    };
    write_response(&mut stream, status, content_type, &body);
    if rejected {
        // A rejected request can leave unread bytes in the socket;
        // closing on top of them makes the kernel RST the connection,
        // which can destroy the error reply before the client reads it.
        // Briefly drain so the 4xx survives the close.
        let _ = stream.set_read_timeout(Some(Duration::from_millis(100)));
        let mut sink = [0u8; 1024];
        while matches!(stream.read(&mut sink), Ok(n) if n > 0) {}
    }
}

/// A parsed admin request.
struct HttpRequest {
    method: String,
    path: String,
    body: Vec<u8>,
}

/// Why a request could not be served; maps onto an HTTP status.
enum HttpError {
    /// Not parseable as HTTP/1.x.
    Malformed(&'static str),
    /// Request line + headers exceed [`MAX_HEADER`].
    HeaderTooLarge,
    /// Declared body exceeds [`MAX_BODY`].
    BodyTooLarge,
    /// Socket error / timeout mid-request.
    Io,
}

impl HttpError {
    fn status(&self) -> u16 {
        match self {
            HttpError::Malformed(_) => 400,
            HttpError::HeaderTooLarge => 431,
            HttpError::BodyTooLarge => 413,
            HttpError::Io => 408,
        }
    }

    fn body(&self) -> String {
        let msg = match self {
            HttpError::Malformed(m) => m,
            HttpError::HeaderTooLarge => "request head exceeds cap",
            HttpError::BodyTooLarge => "request body exceeds cap",
            HttpError::Io => "request timed out",
        };
        format!("{{\"ok\":false,\"error\":\"{msg}\"}}\n")
    }
}

/// Reads one HTTP/1.x request with hard caps on head and body size.
fn read_request(stream: &mut TcpStream) -> Result<HttpRequest, HttpError> {
    let mut buf: Vec<u8> = Vec::new();
    let mut chunk = [0u8; 1024];
    let head_end = loop {
        if let Some(i) = find_head_end(&buf) {
            break i;
        }
        if buf.len() >= MAX_HEADER {
            return Err(HttpError::HeaderTooLarge);
        }
        let n = stream.read(&mut chunk).map_err(|_| HttpError::Io)?;
        if n == 0 {
            return Err(HttpError::Malformed("truncated request head"));
        }
        // Bounded by the MAX_HEADER check above (and MAX_BODY below once
        // the head is complete). lint: allow(growth)
        buf.extend_from_slice(&chunk[..n]);
    };
    let head = String::from_utf8_lossy(&buf[..head_end]).into_owned();
    let mut lines = head.split("\r\n");
    let request_line = lines.next().unwrap_or("");
    let mut parts = request_line.split_whitespace();
    let (method, path, version) = match (parts.next(), parts.next(), parts.next()) {
        (Some(m), Some(p), Some(v)) if v.starts_with("HTTP/1.") => (m, p, v),
        _ => return Err(HttpError::Malformed("bad request line")),
    };
    let _ = version;
    let mut content_length = 0usize;
    for line in lines {
        let Some((name, value)) = line.split_once(':') else {
            continue;
        };
        if name.eq_ignore_ascii_case("content-length") {
            content_length = value
                .trim()
                .parse()
                .map_err(|_| HttpError::Malformed("bad content-length"))?;
        }
    }
    if content_length > MAX_BODY {
        return Err(HttpError::BodyTooLarge);
    }
    let mut body: Vec<u8> = buf[head_end + 4..].to_vec();
    if body.len() > content_length {
        body.truncate(content_length);
    }
    while body.len() < content_length {
        let want = (content_length - body.len()).min(chunk.len());
        let n = stream.read(&mut chunk[..want]).map_err(|_| HttpError::Io)?;
        if n == 0 {
            return Err(HttpError::Malformed("truncated request body"));
        }
        // Bounded by content_length, itself capped at MAX_BODY above.
        // lint: allow(growth)
        body.extend_from_slice(&chunk[..n]);
    }
    Ok(HttpRequest {
        method: method.to_string(),
        path: path.to_string(),
        body,
    })
}

/// Index of `\r\n\r\n` terminating the request head, if complete.
fn find_head_end(buf: &[u8]) -> Option<usize> {
    buf.windows(4).position(|w| w == b"\r\n\r\n")
}

/// Routes a parsed request to its endpoint.
fn dispatch(req: &HttpRequest, shared: &AdminShared) -> (u16, &'static str, String) {
    let path = req.path.split('?').next().unwrap_or("");
    match (req.method.as_str(), path) {
        ("GET", "/metrics") => (
            200,
            "text/plain; version=0.0.4; charset=utf-8",
            mec_obs::prom::render(&mec_obs::summary()),
        ),
        ("GET", "/placement") => (200, "application/json", placement_json(shared)),
        ("GET", p) if p.starts_with("/placement/") => {
            placement_detail(&p["/placement/".len()..], shared)
        }
        ("GET", "/residuals") => (200, "application/json", residuals_json(shared)),
        ("GET", "/shards") => (200, "application/json", shards_json(shared)),
        ("POST", "/reload/topology") => reload_topology(&req.body, shared),
        ("POST", "/reset/histograms") => {
            let cleared = mec_obs::reset_histograms();
            (
                200,
                "application/json",
                format!("{{\"ok\":true,\"cleared\":{cleared}}}\n"),
            )
        }
        ("GET", _) => (
            404,
            "application/json",
            "{\"ok\":false,\"error\":\"no such endpoint\"}\n".to_string(),
        ),
        _ => (
            405,
            "application/json",
            "{\"ok\":false,\"error\":\"method not allowed\"}\n".to_string(),
        ),
    }
}

/// Renders a finite f64 for JSON (`null` for NaN/inf, which JSON lacks).
fn json_f64(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "null".to_string()
    }
}

/// `GET /placement`: active providers with shard, cloudlet, and cost.
///
/// Reads every shard's published view once (one `Arc` clone each) and
/// reports each provider from its *owning* shard's view, so the figures
/// agree with the `stats` wire verb: `seq` sums the shard seqs,
/// `equilibrium` ANDs.
fn placement_json(shared: &AdminShared) -> String {
    let views: Vec<_> = shared.views.iter().map(|v| v.load()).collect();
    let mut seq = 0u64;
    let mut social_cost = 0.0f64;
    let mut equilibrium = true;
    for v in &views {
        seq += v.seq;
        social_cost += v.social_cost;
        equilibrium &= v.equilibrium;
    }
    let mut rows = Vec::new();
    for p in 0..shared.providers {
        let k = shared.router.owner(p);
        let Some(v) = views.get(k) else { continue };
        if !v.active.get(p).copied().unwrap_or(false) {
            continue;
        }
        let cloudlet = match v.placements.get(p) {
            Some(Placement::Cloudlet(c)) => c.index().to_string(),
            _ => "null".to_string(),
        };
        // One row per admitted provider: bounded by the booted market,
        // not by anything a client sends. lint: allow(growth)
        rows.push(format!(
            "{{\"provider\":{p},\"shard\":{k},\"cloudlet\":{cloudlet},\"cost\":{}}}",
            json_f64(v.costs.get(p).copied().unwrap_or(0.0))
        ));
    }
    format!(
        "{{\"seq\":{seq},\"providers\":{},\"active\":{},\"social_cost\":{},\
         \"equilibrium\":{equilibrium},\"placements\":[{}]}}\n",
        shared.providers,
        rows.len(),
        json_f64(social_cost),
        rows.join(",")
    )
}

/// `GET /placement/<id>`: one provider's drill-down, read from its
/// owning shard's view: assignment and cost, the market's demand vector
/// for it, the request-rate EWMA the maintenance quanta saw last, and —
/// when cached — the residual capacity left at its cloudlet.
fn placement_detail(id: &str, shared: &AdminShared) -> (u16, &'static str, String) {
    let Ok(p) = id.parse::<usize>() else {
        return (
            400,
            "application/json",
            format!(
                "{{\"ok\":false,\"error\":\"bad provider id '{}'\"}}\n",
                id.replace('"', "'")
            ),
        );
    };
    if p >= shared.providers {
        return (
            404,
            "application/json",
            format!(
                "{{\"ok\":false,\"error\":\"unknown provider {p} (universe is {})\"}}\n",
                shared.providers
            ),
        );
    }
    let k = shared.router.owner(p).min(shared.views.len() - 1);
    let v = shared.views[k].load();
    let active = v.active.get(p).copied().unwrap_or(false);
    let cloudlet = match v.placements.get(p) {
        Some(Placement::Cloudlet(c)) => Some(c.index()),
        _ => None,
    };
    let (compute, bandwidth) = v.demands.get(p).copied().unwrap_or((0.0, 0.0));
    let ewma = v.demand_ewma.get(p).copied().unwrap_or(0.0);
    let (cloudlet_s, res_a, res_b) = match cloudlet {
        Some(c) => {
            let (a, b) = v.residual.get(c).copied().unwrap_or((f64::NAN, f64::NAN));
            (c.to_string(), json_f64(a), json_f64(b))
        }
        None => ("null".to_string(), "null".into(), "null".into()),
    };
    (
        200,
        "application/json",
        format!(
            "{{\"provider\":{p},\"shard\":{k},\"active\":{active},\"cloudlet\":{cloudlet_s},\
             \"cost\":{},\"compute_demand\":{},\"bandwidth_demand\":{},\"demand_ewma\":{},\
             \"residual_compute\":{res_a},\"residual_bandwidth\":{res_b},\"seq\":{}}}\n",
            json_f64(v.costs.get(p).copied().unwrap_or(0.0)),
            json_f64(compute),
            json_f64(bandwidth),
            json_f64(ewma),
            v.seq
        ),
    )
}

/// `GET /residuals`: per-cloudlet residual capacity and congestion, each
/// read from the owning shard's view (`null` before that shard's first
/// publish).
fn residuals_json(shared: &AdminShared) -> String {
    let views: Vec<_> = shared.views.iter().map(|v| v.load()).collect();
    let region_of = shared.coord.region_map();
    let mut rows = Vec::new();
    for c in 0..shared.cloudlets {
        let k = region_of.get(c).copied().unwrap_or(0);
        let (ra, rb, cong) = match views.get(k) {
            Some(v) => match (v.residual.get(c), v.congestion.get(c)) {
                (Some(&(a, b)), Some(&g)) => (json_f64(a), json_f64(b), g.to_string()),
                _ => ("null".into(), "null".into(), "null".into()),
            },
            None => ("null".into(), "null".into(), "null".into()),
        };
        // One row per cloudlet: bounded by the booted market.
        // lint: allow(growth)
        rows.push(format!(
            "{{\"cloudlet\":{c},\"shard\":{k},\"residual_compute\":{ra},\
             \"residual_bandwidth\":{rb},\"congestion\":{cong}}}"
        ));
    }
    format!(
        "{{\"cloudlets\":{},\"region_version\":{},\"residuals\":[{}]}}\n",
        shared.cloudlets,
        shared.coord.region_version(),
        rows.join(",")
    )
}

/// `GET /shards`: per-shard live gauges and published view counters.
fn shards_json(shared: &AdminShared) -> String {
    let mut rows = Vec::new();
    for (k, view) in shared.views.iter().enumerate() {
        let v = view.load();
        // One row per shard: bounded by the boot shard count.
        // lint: allow(growth)
        rows.push(format!(
            "{{\"shard\":{k},\"seq\":{},\"depth\":{},\"writes\":{},\"migrations\":{},\
             \"active\":{},\"cached\":{},\"epochs\":{},\"equilibrium\":{}}}",
            v.seq,
            shared.gauges.depth(k),
            shared.gauges.writes(k),
            shared.gauges.migrations(k),
            v.active_count(),
            v.cached_count(),
            v.epochs,
            v.equilibrium
        ));
    }
    format!(
        "{{\"shards\":[{}],\"region_version\":{}}}\n",
        rows.join(","),
        shared.coord.region_version()
    )
}

/// `POST /reload/topology`: validate, then swap the region map.
fn reload_topology(body: &[u8], shared: &AdminShared) -> (u16, &'static str, String) {
    let reject = |msg: String| {
        (
            400,
            "application/json",
            format!("{{\"ok\":false,\"error\":\"{}\"}}\n", msg.replace('"', "'")),
        )
    };
    let text = match std::str::from_utf8(body) {
        Ok(t) => t,
        Err(_) => return reject("topology body is not UTF-8".to_string()),
    };
    let mut map = Vec::new();
    for tok in text.split(|ch: char| ch.is_whitespace() || ch == ',') {
        if tok.is_empty() {
            continue;
        }
        match tok.parse::<usize>() {
            // At most one entry per body byte; the body itself is
            // already capped at MAX_BODY. lint: allow(growth)
            Ok(s) => map.push(s),
            Err(_) => return reject(format!("bad shard index '{tok}'")),
        }
    }
    // Same validation boot applies to --regions, against the *live*
    // cloudlet and shard counts; nothing is swapped on failure.
    let validated =
        match crate::shard::region_map(Some(&map), shared.cloudlets, shared.coord.shards) {
            Ok(v) => v,
            Err(e) => return reject(e.to_string()),
        };
    let version = shared.coord.swap_region_map(validated);
    (
        200,
        "application/json",
        format!(
            "{{\"ok\":true,\"region_version\":{version},\"cloudlets\":{}}}\n",
            shared.cloudlets
        ),
    )
}

/// Writes one response and closes (Connection: close on every reply).
fn write_response(stream: &mut TcpStream, status: u16, content_type: &str, body: &str) {
    let reason = match status {
        200 => "OK",
        400 => "Bad Request",
        404 => "Not Found",
        405 => "Method Not Allowed",
        408 => "Request Timeout",
        413 => "Payload Too Large",
        431 => "Request Header Fields Too Large",
        _ => "Error",
    };
    let head = format!(
        "HTTP/1.1 {status} {reason}\r\nContent-Type: {content_type}\r\n\
         Content-Length: {}\r\nConnection: close\r\n\r\n",
        body.len()
    );
    if stream.write_all(head.as_bytes()).is_ok() {
        let _ = stream.write_all(body.as_bytes());
    }
    let _ = stream.flush();
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn head_end_detection() {
        assert_eq!(find_head_end(b"GET / HTTP/1.1\r\n\r\nbody"), Some(14));
        assert_eq!(find_head_end(b"GET / HTTP/1.1\r\n"), None);
        assert_eq!(find_head_end(b""), None);
    }

    #[test]
    fn json_f64_is_null_for_non_finite() {
        assert_eq!(json_f64(1.5), "1.5");
        assert_eq!(json_f64(f64::NAN), "null");
        assert_eq!(json_f64(f64::INFINITY), "null");
    }

    #[test]
    fn http_errors_map_to_statuses() {
        assert_eq!(HttpError::Malformed("x").status(), 400);
        assert_eq!(HttpError::HeaderTooLarge.status(), 431);
        assert_eq!(HttpError::BodyTooLarge.status(), 413);
        assert!(HttpError::BodyTooLarge.body().contains("\"ok\":false"));
    }
}
