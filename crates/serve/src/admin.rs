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
//!   cloudlet, each read from the published view of the shard whose
//!   region (fixed at boot) holds it.
//! * `GET /shards` — per-shard queue depth, settled writes, published
//!   seq, and cross-shard migration counts from [`crate::shard::ShardGauges`].
//!
//! The listener is deliberately sequential: admin traffic is one
//! scraper, not a fleet. Robustness against a wedged or malicious
//! client comes from hard caps ([`MAX_HEADER`], [`MAX_BODY`]) and
//! per-connection read/write timeouts (`IO_TIMEOUT`, 2 s) — a stalled
//! request costs at most one timeout, never a stuck thread — and every
//! response closes the connection (`Connection: close`). The request
//! head is parsed from bytes alone (`parse_head`), apart from the socket
//! loop that feeds it, so the parser is fuzzed without a socket.

use std::io::{ErrorKind, Read, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::Duration;

use mec_core::Placement;

use crate::shard::{Coordinator, Router, ShardGauges};
use crate::view::SharedView;

/// Hard cap on the request line + headers, terminator included.
pub const MAX_HEADER: usize = 8 * 1024;
/// Hard cap on a declared request body, matching the wire protocol's
/// frame cap. No endpoint reads a body; the listener only drains it.
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
    /// The fixed cloudlet→shard region map.
    pub coord: Arc<Coordinator>,
    /// Daemon stop flag; the admin loop exits when it flips.
    pub stop: Arc<AtomicBool>,
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

/// Spawns the admin thread, named `admin`: a sequential accept loop that
/// polls the daemon stop flag between accepts.
///
/// # Errors
///
/// Returns a failed thread spawn.
pub fn spawn_admin(
    listener: TcpListener,
    shared: Arc<AdminShared>,
) -> std::io::Result<JoinHandle<()>> {
    // One long-lived service thread joined through the ServerHandle,
    // like the acceptor. lint: allow(thread-spawn)
    std::thread::Builder::new()
        .name("admin".to_string())
        .spawn(move || admin_loop(&listener, &shared))
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

/// A parsed request head: the request line and the declared body
/// length.
#[derive(Debug, PartialEq, Eq)]
struct RequestHead {
    method: String,
    path: String,
    /// Declared `Content-Length` (0 when absent), at most [`MAX_BODY`].
    content_length: usize,
    /// Bytes the head took, terminator included: where the body starts.
    len: usize,
}

/// Why a request could not be served; maps onto an HTTP status.
#[derive(Debug)]
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

/// Parses the request head at the front of `buf` from its bytes alone:
/// `Ok(None)` while the head is incomplete, `Ok(Some(head))` once its
/// `\r\n\r\n` terminator arrives within [`MAX_HEADER`] bytes. A head
/// that does not end within the cap, a request line that is not
/// HTTP/1.x, an unparseable `Content-Length` or one above [`MAX_BODY`]
/// is an error. The last `Content-Length` header wins.
fn parse_head(buf: &[u8]) -> Result<Option<RequestHead>, HttpError> {
    let Some(head_end) = find_head_end(&buf[..buf.len().min(MAX_HEADER)]) else {
        return if buf.len() >= MAX_HEADER {
            Err(HttpError::HeaderTooLarge)
        } else {
            Ok(None)
        };
    };
    let head = String::from_utf8_lossy(&buf[..head_end]);
    let mut lines = head.split("\r\n");
    let request_line = lines.next().unwrap_or("");
    let mut parts = request_line.split_whitespace();
    let (method, path) = match (parts.next(), parts.next(), parts.next()) {
        (Some(m), Some(p), Some(v)) if v.starts_with("HTTP/1.") => (m, p),
        _ => return Err(HttpError::Malformed("bad request line")),
    };
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
    Ok(Some(RequestHead {
        method: method.to_string(),
        path: path.to_string(),
        content_length,
        len: head_end + 4,
    }))
}

/// Reads one HTTP/1.x request: bytes until [`parse_head`] completes the
/// head, then drains the declared body.
fn read_request(stream: &mut impl Read) -> Result<RequestHead, HttpError> {
    let mut buf: Vec<u8> = Vec::new();
    let mut chunk = [0u8; 1024];
    let head = loop {
        if let Some(head) = parse_head(&buf)? {
            break head;
        }
        let n = stream.read(&mut chunk).map_err(|_| HttpError::Io)?;
        if n == 0 {
            return Err(HttpError::Malformed("truncated request head"));
        }
        // Bounded: `parse_head` refuses MAX_HEADER bytes without a head.
        // lint: allow(growth)
        buf.extend_from_slice(&chunk[..n]);
    };
    let mut left = head.content_length.saturating_sub(buf.len() - head.len);
    while left > 0 {
        let want = left.min(chunk.len());
        let n = stream.read(&mut chunk[..want]).map_err(|_| HttpError::Io)?;
        if n == 0 {
            return Err(HttpError::Malformed("truncated request body"));
        }
        left -= n;
    }
    Ok(head)
}

/// Index of `\r\n\r\n` terminating the request head, if complete.
fn find_head_end(buf: &[u8]) -> Option<usize> {
    buf.windows(4).position(|w| w == b"\r\n\r\n")
}

/// Routes a parsed request to its endpoint. The path is matched first:
/// an unknown path is 404 whatever the method, and a known path asked
/// with a method it does not answer is 405.
fn dispatch(req: &RequestHead, shared: &AdminShared) -> (u16, &'static str, String) {
    let path = req.path.split('?').next().unwrap_or("");
    let method = match path {
        "/metrics" | "/placement" | "/residuals" | "/shards" => "GET",
        p if p.starts_with("/placement/") => "GET",
        "/reset/histograms" => "POST",
        _ => {
            return (
                404,
                "application/json",
                "{\"ok\":false,\"error\":\"no such endpoint\"}\n".to_string(),
            )
        }
    };
    if req.method != method {
        return (
            405,
            "application/json",
            "{\"ok\":false,\"error\":\"method not allowed\"}\n".to_string(),
        );
    }
    match path {
        "/metrics" => (
            200,
            "text/plain; version=0.0.4; charset=utf-8",
            mec_obs::prom::render(&mec_obs::summary()),
        ),
        "/placement" => (200, "application/json", placement_json(shared)),
        "/residuals" => (200, "application/json", residuals_json(shared)),
        "/shards" => (200, "application/json", shards_json(shared)),
        "/reset/histograms" => {
            let cleared = mec_obs::reset_histograms();
            (
                200,
                "application/json",
                format!("{{\"ok\":true,\"cleared\":{cleared}}}\n"),
            )
        }
        p => placement_detail(&p["/placement/".len()..], shared),
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
    let ewma = v.demand_ewma(p);
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
    let regions = shared.coord.regions();
    let mut rows = Vec::new();
    for (c, &k) in regions.iter().enumerate() {
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
        "{{\"cloudlets\":{},\"residuals\":[{}]}}\n",
        regions.len(),
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
    format!("{{\"shards\":[{}]}}\n", rows.join(","))
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
    use proptest::prelude::*;

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

    /// Bytes biased towards what request heads are made of (methods,
    /// versions, CRLFs, the length header) so the soup reaches past the
    /// request line.
    fn soup_byte() -> impl Strategy<Value = u8> {
        const ALPHABET: &[u8] = b"GETPOS /HTP1.0\r\n\r\n\r\n::Content-Length 0123456789";
        (0u8..4, 0usize..ALPHABET.len(), 0u8..=255).prop_map(|(mode, k, raw)| {
            if mode == 0 {
                raw
            } else {
                ALPHABET[k]
            }
        })
    }

    /// Strings of 1.. `len` bytes drawn from `alphabet`.
    fn token(
        alphabet: &'static [u8],
        len: std::ops::Range<usize>,
    ) -> impl Strategy<Value = String> {
        proptest::collection::vec(0..alphabet.len(), len)
            .prop_map(move |ks| ks.into_iter().map(|k| char::from(alphabet[k])).collect())
    }

    const UPPER: &[u8] = b"ABCDEFGHIJKLMNOPQRSTUVWXYZ";
    const PATH: &[u8] = b"abcdefghijklmnopqrstuvwxyz0123456789/_.?=-";
    const NAME: &[u8] = b"ABCDEFGHIJKLMNOPQRSTUVWXYZabcdefghijklmnopqrstuvwxyz-";
    /// Printable ASCII: header values hold no CR or LF.
    const VALUE: &[u8] = b" !\"#$%&'()*+,-./0123456789:;<=>?@ABCXYZ[\\]^_`abcxyz{|}~";

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(4096))]

        /// Arbitrary bytes, some runs past the head cap: the parser never
        /// panics, waits only on a head shorter than the cap, and accepts
        /// only a head that ends within it and declares a body within its
        /// own cap.
        #[test]
        fn byte_soup_parses_or_refuses(
            lead in proptest::bool::ANY,
            bytes in proptest::collection::vec(soup_byte(), 0..512),
            pad in (proptest::bool::ANY, 0usize..2 * MAX_HEADER),
        ) {
            let mut buf = Vec::new();
            if lead {
                buf.extend_from_slice(b"GET /x HTTP/1.1\r\n");
            }
            buf.extend_from_slice(&bytes);
            if pad.0 {
                buf.resize(buf.len() + pad.1, b'x');
            }
            match parse_head(&buf) {
                Ok(None) => prop_assert!(buf.len() < MAX_HEADER && find_head_end(&buf).is_none()),
                Ok(Some(head)) => {
                    prop_assert!(head.len <= MAX_HEADER.min(buf.len()));
                    prop_assert_eq!(&buf[head.len - 4..head.len], b"\r\n\r\n");
                    prop_assert!(head.content_length <= MAX_BODY);
                }
                Err(HttpError::HeaderTooLarge) => prop_assert!(buf.len() >= MAX_HEADER),
                Err(_) => {}
            }
        }

        /// A well-formed head parses back to its request line and declared
        /// length whatever body bytes follow it, every proper prefix of it
        /// is incomplete, and the socket loop reads it through its body.
        #[test]
        fn well_formed_head_round_trips(
            method in token(UPPER, 1..8),
            path in token(PATH, 0..41),
            minor in 0u8..2,
            headers in proptest::collection::vec((token(NAME, 1..13), token(VALUE, 0..31)), 0..6),
            declared in (proptest::bool::ANY, 0usize..3, 0usize..4, 0usize..2048, 0usize..=MAX_BODY),
            body in proptest::collection::vec(0u8..=255, 0..64),
            cut in 0usize..4096,
        ) {
            let path = format!("/{path}");
            let mut head = format!("{method} {path} HTTP/1.{minor}\r\n");
            for (name, value) in &headers {
                head.push_str(&format!("{name}:{value}\r\n"));
            }
            // Mostly short bodies the socket loop can drain, sometimes
            // any length up to the cap.
            let (declares, case, pick, short, any) = declared;
            let n = if pick == 0 { any } else { short };
            if declares {
                let name = ["Content-Length", "content-length", "CONTENT-LENGTH"][case];
                head.push_str(&format!("{name}: {n}\r\n"));
            }
            head.push_str("\r\n");
            let want = RequestHead {
                method,
                path,
                content_length: if declares { n } else { 0 },
                len: head.len(),
            };
            let mut buf = head.clone().into_bytes();
            buf.extend_from_slice(&body);
            prop_assert_eq!(parse_head(&buf).ok().flatten().as_ref(), Some(&want));
            prop_assert!(matches!(parse_head(&buf[..cut % head.len()]), Ok(None)));
            // The socket loop over the head plus exactly its body, and
            // over a body one byte short.
            if want.content_length > 2048 {
                return;
            }
            let mut stream = head.into_bytes();
            stream.resize(stream.len() + want.content_length, b'b');
            prop_assert_eq!(read_request(&mut stream.as_slice()).ok().as_ref(), Some(&want));
            if want.content_length > 0 {
                let short = &stream[..stream.len() - 1];
                prop_assert!(matches!(
                    read_request(&mut &short[..]),
                    Err(HttpError::Malformed("truncated request body"))
                ));
            }
        }

        /// A head that does not end within MAX_HEADER, with or without its
        /// terminator, is refused (431), and so is a declared body past
        /// MAX_BODY (413).
        #[test]
        fn oversized_heads_and_bodies_are_refused(
            filler in MAX_HEADER - 32..2 * MAX_HEADER,
            terminated in proptest::bool::ANY,
            over in MAX_BODY + 1..usize::MAX / 2,
        ) {
            let mut head = format!("GET /metrics HTTP/1.1\r\nX-Filler: {}\r\n", "x".repeat(filler));
            if terminated {
                head.push_str("\r\n");
            }
            prop_assert!(matches!(parse_head(head.as_bytes()), Err(HttpError::HeaderTooLarge)));
            let body = format!("POST /reset/histograms HTTP/1.1\r\nContent-Length: {over}\r\n\r\n");
            prop_assert!(matches!(parse_head(body.as_bytes()), Err(HttpError::BodyTooLarge)));
        }
    }
}
