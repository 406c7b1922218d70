//! The poll-based I/O event loop: nonblocking sockets, per-connection
//! buffers, and ordered reply delivery.
//!
//! PR 5's server spent one OS thread per connection; at 100+ sessions the
//! scheduler — not the market — set the latency floor, and a single slow
//! client could park a thread indefinitely. This module replaces that
//! fleet with a small, fixed set of I/O threads, each running a
//! level-triggered readiness loop over the vendored [`polling`] shim
//! (`poll(2)`; the one facility `std` lacks):
//!
//! ```text
//! acceptor ──inbox+wake──► io thread(s) ──Command──► market thread
//!                           │    ▲                        │
//!          reads from view ─┘    └── Completions ◄── batched replies
//! ```
//!
//! Per connection the loop keeps a [`FrameDecoder`] (reassembling frames
//! from whatever bytes the kernel delivers), an output buffer (frames for
//! many responses coalesce into one `write` syscall), and an ordered
//! `pending` queue that guarantees responses leave in request order even
//! when reads (answered locally from the published view) and writes
//! (round-tripping through the market thread) interleave on a pipelined
//! connection. A read that arrives behind an in-flight write is
//! *deferred* and evaluated only once the write's reply has been
//! serialized — by which point the market thread has published a view
//! covering the write, so read-your-writes holds even within a pipeline.
//!
//! Wakeups (new connections from the acceptor, completed commands from
//! the market thread) arrive through a [`Waker`] — a self-connected UDP
//! socket whose fd sits in the poll set, `std`-only and cheap: the wake
//! side is one `send`, deduplicated by an atomic flag so a batch of
//! completions costs one syscall, not one per reply.

use std::collections::{HashMap, VecDeque};
use std::io::{Read, Write};
use std::net::{SocketAddr, TcpStream, UdpSocket};
use std::os::fd::AsRawFd;
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

// Under `--features loom-model` the wake-dedup flag runs on the loom
// stand-in's AtomicBool, so the interleaving model below can perturb the
// push/swap ordering against store/drain. `stop` and the live-connection
// counter stay on std atomics — they cross the crate API.
#[cfg(feature = "loom-model")]
use loom::sync::atomic::AtomicBool as WakeFlag;
#[cfg(not(feature = "loom-model"))]
use std::sync::atomic::AtomicBool as WakeFlag;

use polling::{poll, PollFd, POLLIN, POLLOUT};

use crate::chan::{Sender, TrySendError};
use crate::demand::DemandTracker;
use crate::market::{self, composite_stats, Command};
use crate::proto::{self, FrameDecoder, Request, Response};
use crate::shard::{CoordKind, CoordOp, Coordinator, DrainOp, Router, ShardGauges};
use crate::view::SharedView;

/// Stop reading from a connection whose unsent output exceeds this
/// (bytes); resumes when the client drains. Protects the daemon from a
/// peer that writes requests but never reads responses.
const OUT_HIGH_WATER: usize = 1 << 20;

/// Hold at most this many commands in the local backlog when the market
/// queue is full before pausing reads entirely.
const BACKLOG_PAUSE: usize = 1024;

/// Read chunk size per `read` call.
const READ_CHUNK: usize = 16 * 1024;

/// A `std`-only poll-set wakeup: a UDP socket connected to itself. The
/// waking side `send`s a byte; the polling side keeps the fd in its poll
/// set with `POLLIN` and drains it on wake.
#[derive(Debug)]
pub struct Waker {
    sock: UdpSocket,
}

impl Waker {
    /// Creates the socket pair-of-one on an ephemeral loopback port.
    ///
    /// # Errors
    ///
    /// Propagates bind/connect/setsockopt failures.
    pub fn new() -> std::io::Result<Waker> {
        let sock = UdpSocket::bind(("127.0.0.1", 0))?;
        sock.connect(sock.local_addr()?)?;
        sock.set_nonblocking(true)?;
        Ok(Waker { sock })
    }

    /// Makes the owning poll loop's next `poll` return immediately.
    pub fn wake(&self) {
        // A full socket buffer means wakes are already pending — the
        // loop will run regardless, so the error is ignorable.
        let _ = self.sock.send(&[1]);
    }

    /// Consumes all pending wake bytes (polling side).
    fn drain(&self) {
        let mut buf = [0u8; 64];
        // Nonblocking UDP socket: recv returns WouldBlock when empty,
        // never parks the thread.
        // lint: allow(io-blocking)
        while self.sock.recv(&mut buf).is_ok() {}
    }

    fn fd(&self) -> std::os::fd::RawFd {
        self.sock.as_raw_fd()
    }
}

/// The reply mailbox of one I/O thread: the market thread pushes
/// completed `(conn, req, response)` triples here and wakes the loop.
/// One wake is amortized over a whole batch of completions by the
/// `wake_armed` flag.
#[derive(Debug)]
pub struct Completions {
    queue: Mutex<Vec<(u64, u64, Response)>>,
    wake_armed: WakeFlag,
    waker: Waker,
}

impl Completions {
    /// Creates an empty mailbox with its own waker.
    ///
    /// # Errors
    ///
    /// Propagates waker-socket creation failures.
    pub fn new() -> std::io::Result<Completions> {
        Ok(Completions {
            queue: Mutex::new(Vec::new()),
            wake_armed: WakeFlag::new(false),
            waker: Waker::new()?,
        })
    }

    /// Delivers one completed response (market-thread side).
    pub fn push(&self, conn: u64, req: u64, resp: Response) {
        {
            // Mailbox lock held only for one Vec push; the I/O-thread
            // side holds it only for a swap. Never blocks meaningfully.
            // lint: allow(io-blocking)
            let mut q = self.queue.lock().unwrap_or_else(|e| e.into_inner());
            // One entry per in-flight market command, and in-flight
            // commands are bounded by the market channel capacity plus
            // the BACKLOG_PAUSE read-pause threshold.
            // lint: allow(growth)
            q.push((conn, req, resp));
        }
        if !self.wake_armed.swap(true, Ordering::AcqRel) {
            self.waker.wake();
        }
    }

    /// Wakes the owning loop without delivering a completion — used for
    /// inbox handoffs from the acceptor and stop-flag changes. Skips the
    /// dedup flag: these events are rare and must never be coalesced away.
    pub fn wake(&self) {
        self.waker.wake();
    }

    /// Takes everything delivered so far (I/O-thread side). Clears the
    /// wake flag *before* draining so a concurrent push re-arms the wake.
    fn drain_into(&self, out: &mut Vec<(u64, u64, Response)>) {
        self.wake_armed.store(false, Ordering::Release);
        // Mailbox lock held only for the append; the market-thread side
        // holds it only for one push. Never blocks meaningfully.
        // lint: allow(io-blocking)
        let mut q = self.queue.lock().unwrap_or_else(|e| e.into_inner());
        out.append(&mut q);
    }
}

/// Everything one I/O thread shares with the acceptor, the market
/// thread, and the boot code.
pub(crate) struct IoShared {
    /// Reply mailbox (market thread pushes, loop drains).
    pub completions: Arc<Completions>,
    /// Freshly accepted connections (acceptor pushes, loop adopts).
    pub inbox: Mutex<Vec<TcpStream>>,
    /// Daemon-wide stop flag.
    pub stop: Arc<AtomicBool>,
    /// Live-connection count (shared with the acceptor's admission cap).
    pub live: Arc<AtomicUsize>,
    /// Command queues into the shard writer threads (one per shard; a
    /// single-shard daemon has exactly one entry).
    pub txs: Vec<Sender<Command>>,
    /// Published market views, one per shard. Reads are answered from the
    /// owning shard's view.
    pub views: Vec<Arc<SharedView>>,
    /// Provider→shard ownership map; routes writes and queries.
    pub router: Arc<Router>,
    /// Per-shard queue-depth/write gauges folded into composite stats.
    pub gauges: Arc<ShardGauges>,
    /// Shared epoch allocator for coordinated snapshot/restore fan-outs.
    pub coord: Arc<Coordinator>,
    /// Per-provider query counters: every answered query is noted here,
    /// and the shard writers fold the counts into demand EWMAs at each
    /// maintenance quantum (demand-driven re-caching).
    pub demand: Arc<DemandTracker>,
    /// The daemon's own address, for poking the acceptor at shutdown.
    pub addr: SocketAddr,
}

impl IoShared {
    /// Number of market shards behind this I/O thread.
    fn shards(&self) -> usize {
        self.txs.len()
    }

    /// The shard whose writer thread must settle a write for `provider`
    /// (clamped: the router may cover more providers than live shards
    /// only transiently, never the other way around).
    fn shard_of(&self, provider: usize) -> usize {
        self.router.owner(provider).min(self.txs.len() - 1)
    }
}

/// One response slot in a connection's ordered pipeline.
enum Slot {
    /// A write in flight to the market thread, keyed by request id.
    Waiting(u64),
    /// A completed response not yet serialized (out of order behind a
    /// `Waiting` slot).
    Done(Response),
    /// A read that arrived behind an in-flight write; evaluated against
    /// the view only when it reaches the queue head, preserving
    /// read-your-writes under pipelining.
    DeferredRead(Request),
}

/// Per-connection state.
struct Conn {
    stream: TcpStream,
    decoder: FrameDecoder,
    /// Serialized frames awaiting the socket; `out_pos` is the sent
    /// prefix.
    out: Vec<u8>,
    out_pos: usize,
    /// Response pipeline, strictly in request order.
    pending: VecDeque<Slot>,
    /// Next request id for `Waiting` slots.
    next_req: u64,
    /// Close once `out` drains (set by a `Draining` response).
    close_after_flush: bool,
    dead: bool,
}

impl Conn {
    fn new(stream: TcpStream) -> Conn {
        Conn {
            stream,
            decoder: FrameDecoder::new(),
            out: Vec::new(),
            out_pos: 0,
            pending: VecDeque::new(),
            next_req: 0,
            close_after_flush: false,
            dead: false,
        }
    }

    fn out_backlog(&self) -> usize {
        self.out.len() - self.out_pos
    }
}

/// Answers a read-only request from the published views (never touches
/// a market thread). Shared by the fast path and deferred evaluation.
/// Queries read the *owning* shard's view — the shard whose writer
/// settled the provider's last write, so read-your-writes survives
/// sharding; stats fold every shard's view into one composite record.
fn answer_read(req: &Request, shared: &IoShared) -> Response {
    match req {
        Request::Query { provider } => {
            let view = shared.views[shared.shard_of(*provider)].load();
            match (view.placements.get(*provider), view.costs.get(*provider)) {
                (Some(p), Some(&cost)) => {
                    // The demand signal: queries are the requests of the
                    // paper's users, so each one is noted for the owning
                    // writer's next EWMA fold. Hit = answered by a cached
                    // replica; miss = served from the remote cloud.
                    shared.demand.note(*provider);
                    let cached =
                        view.active[*provider] && matches!(p, mec_core::Placement::Cloudlet(_));
                    if cached {
                        mec_obs::counter_add("serve.cache.hit", 1);
                    } else {
                        mec_obs::counter_add("serve.cache.miss", 1);
                    }
                    Response::Placement {
                        at: match p {
                            mec_core::Placement::Remote => None,
                            mec_core::Placement::Cloudlet(c) => Some(c.index()),
                        },
                        cost,
                        active: view.active[*provider],
                        seq: view.seq,
                    }
                }
                _ => Response::Error {
                    msg: format!("unknown provider {provider}"),
                },
            }
        }
        Request::Stats => Response::Stats(composite_stats(&shared.views, &shared.gauges)),
        _ => Response::Error {
            msg: "not a read".to_string(),
        },
    }
}

fn is_read(req: &Request) -> bool {
    matches!(req, Request::Query { .. } | Request::Stats)
}

/// Runs one I/O thread to completion (until the stop flag flips).
pub(crate) fn run_io(shared: &IoShared) {
    let mut conns: HashMap<u64, Conn> = HashMap::new();
    let mut next_conn: u64 = 0;
    let mut completions: Vec<(u64, u64, Response)> = Vec::new();
    let mut backlog: VecDeque<(usize, Command)> = VecDeque::new();
    let mut fds: Vec<PollFd> = Vec::new();
    let mut fd_conn: Vec<u64> = Vec::new();

    loop {
        // (Re)build the poll set: waker first, then every live conn.
        fds.clear();
        fd_conn.clear();
        fds.push(PollFd::new(shared.completions.waker.fd(), POLLIN));
        let paused = backlog.len() >= BACKLOG_PAUSE;
        for (&id, conn) in &conns {
            let mut events = 0i16;
            if !paused && conn.out_backlog() < OUT_HIGH_WATER && !conn.close_after_flush {
                events |= POLLIN;
            }
            if conn.out_backlog() > 0 {
                events |= POLLOUT;
            }
            fds.push(PollFd::new(conn.stream.as_raw_fd(), events));
            fd_conn.push(id);
        }
        // Wakes cover every event source; the timeout is a safety net
        // (and the backlog-retry tick when the market queue was full).
        let timeout = if backlog.is_empty() {
            Duration::from_millis(1000)
        } else {
            Duration::from_millis(5)
        };
        let _ = poll(&mut fds, Some(timeout));
        if fds[0].readable() {
            shared.completions.waker.drain();
        }

        // Completed commands from the market thread: slot them into their
        // connection's pipeline.
        shared.completions.drain_into(&mut completions);
        for (conn_id, req_id, resp) in completions.drain(..) {
            let Some(conn) = conns.get_mut(&conn_id) else {
                continue; // connection died while the command was in flight
            };
            if matches!(resp, Response::Draining) {
                conn.close_after_flush = true;
                // Stop accepting immediately (the market thread repeats
                // this when it finishes draining, but doing it here closes
                // the window where a new client connects mid-drain).
                shared.stop.store(true, Ordering::SeqCst);
                let _ = TcpStream::connect(shared.addr);
            }
            for slot in conn.pending.iter_mut() {
                if let Slot::Waiting(id) = slot {
                    if *id == req_id {
                        *slot = Slot::Done(resp);
                        break;
                    }
                }
            }
        }

        // Adopt freshly accepted connections.
        {
            // Inbox lock held only to drain the handoff Vec; the
            // acceptor holds it only for one push per accept.
            // lint: allow(io-blocking)
            let mut inbox = shared.inbox.lock().unwrap_or_else(|e| e.into_inner());
            for stream in inbox.drain(..) {
                if stream.set_nonblocking(true).is_err() {
                    shared.live.fetch_sub(1, Ordering::SeqCst);
                    continue;
                }
                conns.insert(next_conn, Conn::new(stream));
                next_conn += 1;
            }
        }

        // Retry the backlog before reading more requests, so FIFO order
        // into the market thread is preserved.
        flush_backlog(&mut backlog, shared);

        // Service readiness: read + decode + dispatch, then advance each
        // connection's pipeline and flush its output buffer.
        for (k, fd) in fds.iter().enumerate().skip(1) {
            let id = fd_conn[k - 1];
            let Some(conn) = conns.get_mut(&id) else {
                continue;
            };
            if fd.readable() {
                read_ready(id, conn, shared, &mut backlog);
            }
        }
        flush_backlog(&mut backlog, shared);
        for conn in conns.values_mut() {
            if !conn.dead {
                advance(conn, shared);
                flush_out(conn);
            }
        }
        conns.retain(|_, c| {
            if c.dead {
                shared.live.fetch_sub(1, Ordering::SeqCst);
            }
            !c.dead
        });

        if shared.stop.load(Ordering::SeqCst) {
            final_flush(&mut conns, shared);
            return;
        }
    }
}

/// Pushes backlog commands into their shard queues until one fills. The
/// backlog is drained strictly FIFO — stopping at the first full queue
/// rather than skipping ahead to another shard's entries — so commands
/// from one connection reach each shard in request order. A `Closed`
/// queue means that shard's writer is gone — the command is refused with
/// the draining error, through the normal completion path so reply order
/// per connection is preserved.
fn flush_backlog(backlog: &mut VecDeque<(usize, Command)>, shared: &IoShared) {
    while let Some((shard, cmd)) = backlog.pop_front() {
        match shared.txs[shard].try_send(cmd) {
            Ok(()) => {}
            Err(TrySendError::Full(cmd)) => {
                backlog.push_front((shard, cmd)); // lint: allow(growth) — re-queues the element just popped; no net growth
                return;
            }
            Err(TrySendError::Closed(cmd)) => {
                market::refuse(cmd);
            }
        }
    }
}

/// Drains the socket, reassembles frames, and dispatches each request.
fn read_ready(
    conn_id: u64,
    conn: &mut Conn,
    shared: &IoShared,
    backlog: &mut VecDeque<(usize, Command)>,
) {
    let mut chunk = [0u8; READ_CHUNK];
    loop {
        match conn.stream.read(&mut chunk) {
            Ok(0) => {
                // EOF. Mid-frame it is a protocol cut; either way the
                // peer is gone, so the connection is done.
                conn.dead = true;
                return;
            }
            Ok(n) => {
                // Reassembly buffer is bounded by proto::MAX_FRAME: the
                // decoder errors (and we kill the connection) as soon as
                // a length line announces an oversized frame, so the
                // buffer never holds more than one max frame plus one
                // read chunk.
                // lint: allow(growth)
                conn.decoder.extend(&chunk[..n]);
                if n < chunk.len() {
                    break; // kernel buffer drained
                }
            }
            Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => break,
            Err(e) if e.kind() == std::io::ErrorKind::Interrupted => continue,
            Err(_) => {
                conn.dead = true;
                return;
            }
        }
    }
    loop {
        match conn.decoder.next_frame() {
            Ok(Some(payload)) => dispatch(conn_id, conn, &payload, shared, backlog),
            Ok(None) => break,
            Err(_) => {
                // Framing lost: nothing sensible can be parsed out of the
                // stream anymore. Same policy as the threaded server:
                // drop the connection.
                conn.dead = true;
                return;
            }
        }
    }
}

/// Routes one decoded request: reads answer from the view (immediately
/// or deferred behind in-flight writes), writes enqueue a market command
/// whose reply is routed back through the completions mailbox.
fn dispatch(
    conn_id: u64,
    conn: &mut Conn,
    payload: &str,
    shared: &IoShared,
    backlog: &mut VecDeque<(usize, Command)>,
) {
    let req = match proto::parse_request(payload) {
        Ok(req) => req,
        Err(e) => {
            // Malformed JSON in a well-framed payload: answer the error
            // in order and keep the connection alive. The pending
            // pipeline is bounded by the read-pause backpressure: reads
            // (its only producer) stop while the backlog or out-buffer
            // is over its high-water mark.
            conn.pending
                .push_back(Slot::Done(Response::Error { msg: e.to_string() })); // lint: allow(growth)
            return;
        }
    };
    if is_read(&req) {
        if conn.pending.is_empty() {
            // Fast path: nothing in flight, answer straight from the view
            // into the output buffer.
            let resp = answer_read(&req, shared);
            proto::push_frame(&mut conn.out, &proto::encode_response(&resp));
        } else {
            // Bounded by the read-pause backpressure (see above).
            // lint: allow(growth)
            conn.pending.push_back(Slot::DeferredRead(req));
        }
        return;
    }
    // Writes are routed to the shard that owns the provider (a stale
    // route is chased by the receiving shard, so freshness is advisory);
    // admin requests without a provider run on shard 0 or fan out.
    let shard = match &req {
        Request::Join { provider, .. }
        | Request::Leave { provider }
        | Request::UpdateDemand { provider, .. } => shared.shard_of(*provider),
        _ => 0,
    };
    let req_id = conn.next_req;
    conn.next_req += 1;
    let reply = market::Reply::Conn {
        mailbox: shared.completions.clone(),
        conn: conn_id,
        req: req_id,
    };
    if matches!(req, Request::Shutdown)
        || (shared.shards() > 1 && matches!(req, Request::Snapshot | Request::Restore))
    {
        fan_out_admin(conn, req_id, &req, reply, shared, backlog);
        return;
    }
    let cmd = match market::command_for(req, reply) {
        Ok(cmd) => cmd,
        Err(resp) => {
            // Bounded by the read-pause backpressure (see above).
            // lint: allow(growth)
            conn.pending.push_back(Slot::Done(resp));
            return;
        }
    };
    // Both bounded by the read-pause backpressure: reads stop while
    // backlog.len() >= BACKLOG_PAUSE or the out-buffer is over its
    // high-water mark, so neither queue can outgrow one poll round's
    // overshoot past those thresholds.
    // lint: allow(growth)
    conn.pending.push_back(Slot::Waiting(req_id));
    backlog.push_back((shard, cmd)); // lint: allow(growth) — same BACKLOG_PAUSE bound as above
}

/// Fans an admin request out to every shard queue: `shutdown` becomes a
/// drain barrier (one member per shard, at any shard count), and on a
/// sharded daemon `snapshot` and `restore` become a coordinated two-phase
/// op (prepare now; the last prepare-acker enqueues the apply fan-out).
/// The single client reply travels inside the shared op and the last
/// shard to complete answers it, so the connection sees exactly one
/// response in request order.
fn fan_out_admin(
    conn: &mut Conn,
    req_id: u64,
    req: &Request,
    reply: market::Reply,
    shared: &IoShared,
    backlog: &mut VecDeque<(usize, Command)>,
) {
    // Bounded by the read-pause backpressure, like every slot push.
    // lint: allow(growth)
    conn.pending.push_back(Slot::Waiting(req_id));
    if matches!(req, Request::Shutdown) {
        let op = Arc::new(DrainOp::new(shared.shards(), reply));
        for k in 0..shared.shards() {
            backlog.push_back((k, Command::DrainAll { op: op.clone() })); // lint: allow(growth) — BACKLOG_PAUSE bound
        }
        return;
    }
    let kind = if matches!(req, Request::Snapshot) {
        CoordKind::Snapshot
    } else {
        CoordKind::Restore
    };
    let op = Arc::new(CoordOp::new(
        kind,
        shared.coord.next_epoch(),
        shared.shards(),
        reply,
    ));
    for k in 0..shared.shards() {
        backlog.push_back((k, Command::Prepare { op: op.clone() })); // lint: allow(growth) — BACKLOG_PAUSE bound
    }
}

/// Serializes the completed prefix of the pipeline into the output
/// buffer, evaluating deferred reads as they reach the head.
fn advance(conn: &mut Conn, shared: &IoShared) {
    while let Some(front) = conn.pending.front() {
        match front {
            Slot::Waiting(_) => break,
            Slot::Done(_) => {
                let Some(Slot::Done(resp)) = conn.pending.pop_front() else {
                    unreachable!("front() said Done"); // lint: allow(panics)
                };
                proto::push_frame(&mut conn.out, &proto::encode_response(&resp));
            }
            Slot::DeferredRead(_) => {
                let Some(Slot::DeferredRead(req)) = conn.pending.pop_front() else {
                    unreachable!("front() said DeferredRead"); // lint: allow(panics)
                };
                // Every earlier write has been acknowledged, and each
                // shard publishes before acknowledging — the owning
                // shard's view read here covers those writes.
                let resp = answer_read(&req, shared);
                proto::push_frame(&mut conn.out, &proto::encode_response(&resp));
            }
        }
    }
}

/// Writes as much of the output buffer as the socket accepts.
fn flush_out(conn: &mut Conn) {
    while conn.out_pos < conn.out.len() {
        match conn.stream.write(&conn.out[conn.out_pos..]) {
            Ok(0) => {
                conn.dead = true;
                return;
            }
            Ok(n) => conn.out_pos += n,
            Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => return,
            Err(e) if e.kind() == std::io::ErrorKind::Interrupted => continue,
            Err(_) => {
                conn.dead = true;
                return;
            }
        }
    }
    conn.out.clear();
    conn.out_pos = 0;
    // Close only once every in-order response (the Draining frame
    // included) has been serialized *and* written.
    if conn.close_after_flush && conn.pending.is_empty() {
        conn.dead = true;
    }
}

/// Best-effort flush of every remaining output buffer at shutdown, under
/// a short deadline, so final responses (`draining`, late errors) reach
/// their clients before the sockets close.
fn final_flush(conns: &mut HashMap<u64, Conn>, shared: &IoShared) {
    // Late completions (e.g. the drain refusals) may still be arriving.
    let mut completions = Vec::new();
    shared.completions.drain_into(&mut completions);
    for (conn_id, req_id, resp) in completions {
        if let Some(conn) = conns.get_mut(&conn_id) {
            for slot in conn.pending.iter_mut() {
                if let Slot::Waiting(id) = slot {
                    if *id == req_id {
                        *slot = Slot::Done(resp);
                        break;
                    }
                }
            }
        }
    }
    for conn in conns.values_mut() {
        advance(conn, shared);
    }
    let deadline = Instant::now() + Duration::from_millis(250);
    while Instant::now() < deadline {
        let mut remaining = false;
        for conn in conns.values_mut() {
            if !conn.dead && conn.out_backlog() > 0 {
                flush_out(conn);
                remaining |= !conn.dead && conn.out_backlog() > 0;
            }
        }
        if !remaining {
            break;
        }
        // Shutdown-only flush: the loop has already stopped serving, and
        // the whole drain is capped by the 250ms deadline above.
        // lint: allow(io-blocking)
        std::thread::sleep(Duration::from_millis(2));
    }
    for (_, c) in conns.drain() {
        drop(c);
        shared.live.fetch_sub(1, Ordering::SeqCst);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn waker_wakes_poll_and_drains() {
        let w = Waker::new().unwrap();
        let mut fds = [PollFd::new(w.fd(), POLLIN)];
        // Nothing pending: poll times out.
        assert_eq!(poll(&mut fds, Some(Duration::from_millis(5))).unwrap(), 0);
        w.wake();
        w.wake(); // coalesces, never blocks
        let n = poll(&mut fds, Some(Duration::from_secs(5))).unwrap();
        assert_eq!(n, 1);
        assert!(fds[0].readable());
        w.drain();
        assert_eq!(poll(&mut fds, Some(Duration::from_millis(5))).unwrap(), 0);
    }

    #[test]
    fn completions_arm_one_wake_per_batch() {
        let c = Completions::new().unwrap();
        c.push(0, 0, Response::Left);
        c.push(0, 1, Response::Left);
        let mut out = Vec::new();
        c.drain_into(&mut out);
        assert_eq!(out.len(), 2);
        assert!(!c.wake_armed.load(Ordering::Acquire));
        // A push after the drain re-arms the wake.
        c.push(1, 0, Response::Left);
        assert!(c.wake_armed.load(Ordering::Acquire));
    }
}

/// Interleaving model of the wake-dedup protocol, run under the loom
/// stand-in's schedule perturbation (`--features loom-model`; the TSan
/// CI cell watches the same test for data races).
///
/// The hazard this pins down: `drain_into` MUST clear `wake_armed`
/// *before* draining the queue. If it cleared afterwards, a producer
/// could push between the drain and the clear, observe the still-armed
/// flag, skip its wake — and then the clear lands: item queued, flag
/// down, no datagram in flight. The consumer, which only drains when the
/// waker fires, would never pick it up.
#[cfg(all(test, feature = "loom-model"))]
mod loom_model_tests {
    use super::*;

    /// Every completion pushed concurrently is delivered to a consumer
    /// that drains ONLY on a waker datagram — no wake is ever lost.
    #[test]
    fn no_lost_wake_under_perturbed_schedules() {
        loom::model(|| {
            const PRODUCERS: u64 = 3;
            let mail = Arc::new(Completions::new().unwrap());
            let handles: Vec<_> = (0..PRODUCERS)
                .map(|p| {
                    let m = Arc::clone(&mail);
                    // Model threads stand in for the market thread.
                    // lint: allow(thread-spawn)
                    loom::thread::spawn(move || {
                        loom::fuzz_yield();
                        m.push(p, 0, Response::Left);
                    })
                })
                .collect();

            // The consumer plays the I/O loop: it touches the mailbox
            // only after observing a wake datagram, exactly like `poll`
            // reporting the waker fd readable.
            let mut got = 0u64;
            let mut out = Vec::new();
            let deadline = Instant::now() + Duration::from_secs(5);
            while got < PRODUCERS {
                assert!(
                    Instant::now() < deadline,
                    "lost wake: {got}/{PRODUCERS} delivered, queue stuck with no datagram"
                );
                let mut buf = [0u8; 8];
                if mail.waker.sock.recv(&mut buf).is_ok() {
                    mail.waker.drain();
                    mail.drain_into(&mut out);
                    got += out.len() as u64;
                    out.clear();
                } else {
                    std::thread::yield_now();
                }
            }
            for h in handles {
                h.join().unwrap();
            }
            // Quiescence: nothing left behind in the mailbox.
            mail.drain_into(&mut out);
            assert!(
                out.is_empty(),
                "completions delivered without a wake: {out:?}"
            );
        });
    }
}
