//! The open-loop load generator: two threads, two connections.
//!
//! The sender thread sleeps until each operation's scheduled time and
//! writes it on the write connection (join, leave, update) or the query
//! connection; operations due together leave in one `write` per
//! connection. The receiver thread waits in `poll(2)` on both
//! connections and matches replies to requests in order (the daemon
//! answers each connection in request order).
//!
//! Two rules make an error reply a real failure rather than a
//! generator artefact: a provider's next write is held back until the
//! reply to its previous write has arrived (it is sent as soon as it
//! has, and its latency still counts from its scheduled time), and a
//! leave goes out only for a provider whose join was admitted.

use std::collections::VecDeque;
use std::io::{Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::os::fd::AsRawFd;
use std::sync::atomic::{AtomicBool, AtomicU32, AtomicU8, AtomicUsize, Ordering};
use std::time::{Duration, Instant};

use mec_serve::proto::{self, FrameDecoder, Request, Response};
use polling::{PollFd, POLLIN};

use crate::measure::{thread_cpu_ns, Clock};
use crate::schedule::{Kind, Op, Schedule};

/// Provider state bit: the provider's last join was admitted and it has
/// not left since.
const ADMITTED: u8 = 1;
/// Provider state bit: a write for the provider awaits its reply.
const IN_FLIGHT: u8 = 2;

/// Connection index of the write connection.
pub const WRITE: usize = 0;
/// Connection index of the query connection.
pub const QUERY: usize = 1;

/// How long after the last scheduled send the run waits for replies;
/// anything still unanswered then counts as failed.
const GRACE: Duration = Duration::from_secs(3);
/// Most request and response payloads kept for the codec timings.
pub const KEEP_FRAMES: usize = 1 << 16;

/// A request as it went on the wire.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[repr(u32)]
pub enum Sent {
    /// `join`.
    Join,
    /// `leave`.
    Leave,
    /// `update`.
    Update,
    /// `query`.
    Query,
}

/// What a reply said.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Outcome {
    /// Join admitted.
    Admitted,
    /// Join refused for lack of capacity (a correct answer).
    Rejected,
    /// Leave done.
    Left,
    /// Demand updated (`true` if the provider was evicted to the cloud).
    Updated(bool),
    /// Query answered; `true` if the provider is cached at a cloudlet.
    Placement(bool),
    /// `{"ok":0,...}`.
    Error,
    /// A reply that does not match its request, or does not parse.
    Unexpected,
}

impl Outcome {
    /// `true` for errors and mismatched replies.
    pub fn failed(self) -> bool {
        matches!(self, Outcome::Error | Outcome::Unexpected)
    }
}

/// One sent request.
#[derive(Debug, Clone, Copy)]
pub struct SentRec {
    /// Index into the schedule.
    pub op: u32,
    /// What was sent.
    pub kind: Sent,
    /// Index of the socket write that carried it.
    pub batch: u32,
    /// Encode start, traced builds only.
    pub encode_at: u64,
    /// Encode time (`encode_request` + `push_frame`), traced builds only.
    pub encode_ns: u32,
}

/// One socket write.
#[derive(Debug, Clone, Copy)]
pub struct Batch {
    /// Start of the `write` call.
    pub t0: u64,
    /// Its end.
    pub t1: u64,
}

/// One received reply (the n-th reply answers the n-th request).
#[derive(Debug, Clone, Copy)]
pub struct RecvRec {
    /// When the `read` that completed the reply returned.
    pub t_recv: u64,
    /// Decode start, traced builds only.
    pub decode_at: u64,
    /// Frame extraction + `parse_response`, traced builds only.
    pub decode_ns: u32,
    /// What the reply said.
    pub outcome: Outcome,
}

/// Everything one connection saw.
#[derive(Debug, Default)]
pub struct ConnLog {
    /// Requests in send order.
    pub sent: Vec<SentRec>,
    /// Socket writes in order.
    pub batches: Vec<Batch>,
    /// Replies in arrival order.
    pub recv: Vec<RecvRec>,
    /// Bytes written.
    pub bytes_out: u64,
    /// Bytes read.
    pub bytes_in: u64,
    /// Request payloads (traced builds, first [`KEEP_FRAMES`]).
    pub requests: Vec<String>,
    /// Reply payloads (traced builds, first [`KEEP_FRAMES`]).
    pub replies: Vec<String>,
}

/// The result of one timed phase.
#[derive(Debug)]
pub struct LoadRun {
    /// `[write connection, query connection]`.
    pub conns: [ConnLog; 2],
    /// Writes still held back behind an unanswered write at the deadline.
    pub unsent: usize,
    /// Transport and framing errors.
    pub transport_errors: Vec<String>,
    /// CPU the two generator threads used.
    pub gen_cpu_ns: u64,
    /// The run's time origin (`at_ns` 0 of the schedule).
    pub clock: Clock,
}

impl LoadRun {
    /// Requests the generator attempted: sent plus held back.
    pub fn attempted(&self) -> u64 {
        (self.conns[WRITE].sent.len() + self.conns[QUERY].sent.len() + self.unsent) as u64
    }

    /// Requests that failed: error replies, mismatched replies, replies
    /// missing at the deadline, and writes never sent.
    pub fn failed(&self) -> u64 {
        let mut failed = self.unsent as u64;
        for c in &self.conns {
            failed += c.recv.iter().filter(|r| r.outcome.failed()).count() as u64;
            failed += c.sent.len().saturating_sub(c.recv.len()) as u64;
        }
        failed
    }

    /// Acknowledged demand updates as `(provider, compute, bandwidth)`,
    /// in the order the daemon applied them.
    pub fn acked_updates(&self, ops: &[Op], base: &[(f64, f64)]) -> Vec<(usize, f64, f64)> {
        let w = &self.conns[WRITE];
        w.sent
            .iter()
            .zip(&w.recv)
            .filter(|(_, r)| matches!(r.outcome, Outcome::Updated(_)))
            .filter_map(|(s, _)| {
                let op = ops[s.op as usize];
                match op.kind {
                    Kind::Update { compute, bandwidth } => {
                        let p = op.provider as usize;
                        Some((p, base[p].0 * compute, base[p].1 * bandwidth))
                    }
                    _ => None,
                }
            })
            .collect()
    }
}

struct Shared {
    state: Vec<AtomicU8>,
    /// Per connection: the n-th request sent, as `schedule index << 2 |`
    /// its [`Sent`] code.
    pending: [Vec<AtomicU32>; 2],
    /// Per connection: requests whose `pending` entry is written.
    published: [AtomicUsize; 2],
    sender_done: AtomicBool,
}

/// Drives `schedule` against the daemon at `addr`. `admitted` lists the
/// providers admitted before the timed phase; `base` holds each
/// provider's generated `(compute, bandwidth)` demand, which scheduled
/// updates scale.
///
/// # Errors
///
/// Connection set-up failures.
pub fn run(
    addr: SocketAddr,
    schedule: &Schedule,
    base: &[(f64, f64)],
    admitted: &[bool],
    traced: bool,
) -> std::io::Result<LoadRun> {
    let ops = &schedule.ops;
    let streams = [TcpStream::connect(addr)?, TcpStream::connect(addr)?];
    for s in &streams {
        s.set_nodelay(true)?;
    }
    let readers = [streams[0].try_clone()?, streams[1].try_clone()?];
    let writes = schedule.writes();
    let shared = Shared {
        state: admitted
            .iter()
            .map(|&a| AtomicU8::new(if a { ADMITTED } else { 0 }))
            .collect(),
        pending: [
            (0..writes).map(|_| AtomicU32::new(0)).collect(),
            (0..ops.len() - writes).map(|_| AtomicU32::new(0)).collect(),
        ],
        published: [AtomicUsize::new(0), AtomicUsize::new(0)],
        sender_done: AtomicBool::new(false),
    };
    // A short lead so the first operations are not late by set-up time.
    let clock = Clock(Instant::now() + Duration::from_millis(20));
    let end = ops.last().map_or(0, |o| o.at_ns);
    let deadline = end + GRACE.as_nanos() as u64;

    let (sender, receiver) = std::thread::scope(|s| {
        let shared = &shared;
        // Generator thread 1 of 2: paces and writes the requests.
        // lint: allow(thread-spawn)
        let snd = s.spawn(move || send(ops, base, shared, &streams, clock, deadline, traced));
        // Generator thread 2 of 2: reads and matches the replies.
        // lint: allow(thread-spawn)
        let rcv = s.spawn(move || receive(ops, shared, readers, clock, deadline, traced));
        (
            snd.join().expect("sender thread panicked"),
            rcv.join().expect("receiver thread panicked"),
        )
    });
    let mut sender = sender;
    let mut conns = receiver.conns;
    for (log, sent) in conns.iter_mut().zip(&mut sender.conns) {
        log.sent = std::mem::take(&mut sent.sent);
        log.batches = std::mem::take(&mut sent.batches);
        log.bytes_out = sent.bytes_out;
        log.requests = std::mem::take(&mut sent.requests);
    }
    Ok(LoadRun {
        conns,
        unsent: sender.unsent,
        transport_errors: [sender.errors, receiver.errors].concat(),
        gen_cpu_ns: sender.cpu_ns + receiver.cpu_ns,
        clock,
    })
}

struct SenderOut {
    conns: [ConnLog; 2],
    unsent: usize,
    errors: Vec<String>,
    cpu_ns: u64,
}

fn send(
    ops: &[Op],
    base: &[(f64, f64)],
    sh: &Shared,
    streams: &[TcpStream; 2],
    clock: Clock,
    deadline: u64,
    traced: bool,
) -> SenderOut {
    let cpu0 = thread_cpu_ns();
    // Nothing goes out before the origin: `clock.now()` reads 0 until
    // then, which would send every operation scheduled at 0 early.
    std::thread::sleep(clock.0.saturating_duration_since(Instant::now()));
    let mut out = SenderOut {
        conns: Default::default(),
        unsent: 0,
        errors: Vec::new(),
        cpu_ns: 0,
    };
    let mut bufs: [Vec<u8>; 2] = Default::default();
    let mut next = 0;
    let mut held: VecDeque<usize> = VecDeque::new();
    let mut dead = [false; 2];

    // Encodes one operation into its connection's buffer, or holds it
    // back behind the provider's unanswered write.
    let handle =
        |idx: usize, out: &mut SenderOut, bufs: &mut [Vec<u8>; 2], held: &mut VecDeque<usize>| {
            let op = ops[idx];
            let p = op.provider as usize;
            let (conn, req, kind) = if op.kind == Kind::Query {
                (QUERY, Request::Query { provider: p }, Sent::Query)
            } else {
                let st = sh.state[p].load(Ordering::Acquire);
                if st & IN_FLIGHT != 0 {
                    held.push_back(idx);
                    return;
                }
                let (req, kind) = match op.kind {
                    Kind::Update { compute, bandwidth } => (
                        Request::UpdateDemand {
                            provider: p,
                            compute: base[p].0 * compute,
                            bandwidth: base[p].1 * bandwidth,
                        },
                        Sent::Update,
                    ),
                    _ if st & ADMITTED != 0 => (Request::Leave { provider: p }, Sent::Leave),
                    _ => (
                        Request::Join {
                            provider: p,
                            cloudlet: None,
                        },
                        Sent::Join,
                    ),
                };
                sh.state[p].store(st | IN_FLIGHT, Ordering::Relaxed);
                (WRITE, req, kind)
            };
            let t0 = if traced { clock.now() } else { 0 };
            let payload = proto::encode_request(&req);
            proto::push_frame(&mut bufs[conn], &payload);
            let encode_ns = if traced { (clock.now() - t0) as u32 } else { 0 };
            let log = &mut out.conns[conn];
            let seq = log.sent.len();
            sh.pending[conn][seq].store((idx as u32) << 2 | kind as u32, Ordering::Relaxed);
            log.sent.push(SentRec {
                op: idx as u32,
                kind,
                batch: log.batches.len() as u32,
                encode_at: t0,
                encode_ns,
            });
            if traced && log.requests.len() < KEEP_FRAMES {
                log.requests.push(payload);
            }
        };

    loop {
        let now = clock.now();
        for _ in 0..held.len() {
            let Some(idx) = held.pop_front() else { break };
            handle(idx, &mut out, &mut bufs, &mut held);
        }
        while next < ops.len() && ops[next].at_ns <= now {
            handle(next, &mut out, &mut bufs, &mut held);
            next += 1;
        }
        for c in 0..2 {
            if bufs[c].is_empty() {
                continue;
            }
            let log = &mut out.conns[c];
            sh.published[c].store(log.sent.len(), Ordering::Release);
            let t0 = clock.now();
            if !dead[c] {
                if let Err(e) = (&streams[c]).write_all(&bufs[c]) {
                    out.errors.push(format!("write on connection {c}: {e}"));
                    dead[c] = true;
                }
            }
            let t1 = clock.now();
            log.batches.push(Batch { t0, t1 });
            log.bytes_out += bufs[c].len() as u64;
            bufs[c].clear();
        }
        if next == ops.len() && held.is_empty() {
            break;
        }
        let now = clock.now();
        if now >= deadline {
            break;
        }
        let mut wake = ops.get(next).map_or(deadline, |o| o.at_ns);
        if !held.is_empty() {
            wake = wake.min(now + 50_000);
        }
        if wake > now {
            std::thread::sleep(Duration::from_nanos(wake - now));
        }
    }
    out.unsent = held.len();
    out.cpu_ns = thread_cpu_ns().saturating_sub(cpu0);
    sh.sender_done.store(true, Ordering::Release);
    out
}

struct ReceiverOut {
    conns: [ConnLog; 2],
    errors: Vec<String>,
    cpu_ns: u64,
}

fn classify(sent: Sent, resp: &Response) -> Outcome {
    match (sent, resp) {
        (_, Response::Error { .. }) => Outcome::Error,
        (Sent::Join, Response::Admitted { .. }) => Outcome::Admitted,
        (Sent::Join, Response::Rejected { .. }) => Outcome::Rejected,
        (Sent::Leave, Response::Left) => Outcome::Left,
        (Sent::Update, Response::Updated { evicted, .. }) => Outcome::Updated(*evicted),
        (Sent::Query, Response::Placement { at, active, .. }) => {
            Outcome::Placement(*active && at.is_some())
        }
        _ => Outcome::Unexpected,
    }
}

fn receive(
    ops: &[Op],
    sh: &Shared,
    mut streams: [TcpStream; 2],
    clock: Clock,
    deadline: u64,
    traced: bool,
) -> ReceiverOut {
    let cpu0 = thread_cpu_ns();
    let mut out = ReceiverOut {
        conns: Default::default(),
        errors: Vec::new(),
        cpu_ns: 0,
    };
    let mut decoders = [FrameDecoder::new(), FrameDecoder::new()];
    let mut buf = vec![0u8; 256 * 1024];
    let mut dead = [false; 2];
    let fds = [streams[0].as_raw_fd(), streams[1].as_raw_fd()];
    loop {
        let done = sh.sender_done.load(Ordering::Acquire);
        let caught_up = (0..2)
            .all(|c| dead[c] || out.conns[c].recv.len() >= sh.published[c].load(Ordering::Acquire));
        let now = clock.now();
        if (done && caught_up) || now >= deadline {
            break;
        }
        // A negative fd is ignored by poll(2): a dead connection must not
        // keep reporting POLLHUP.
        let fd = |c: usize| if dead[c] { -1 } else { fds[c] };
        let mut pfds = [PollFd::new(fd(0), POLLIN), PollFd::new(fd(1), POLLIN)];
        let wait = Duration::from_nanos((deadline - now).min(5_000_000));
        if let Err(e) = polling::poll(&mut pfds, Some(wait)) {
            out.errors.push(format!("poll: {e}"));
            break;
        }
        for c in 0..2 {
            if dead[c] || pfds[c].revents() == 0 {
                continue;
            }
            let n = match streams[c].read(&mut buf) {
                Ok(0) => {
                    out.errors
                        .push(format!("connection {c} closed by the daemon"));
                    dead[c] = true;
                    continue;
                }
                Ok(n) => n,
                Err(e) if e.kind() == std::io::ErrorKind::Interrupted => continue,
                Err(e) => {
                    out.errors.push(format!("read on connection {c}: {e}"));
                    dead[c] = true;
                    continue;
                }
            };
            let t_recv = clock.now();
            let log = &mut out.conns[c];
            log.bytes_in += n as u64;
            decoders[c].extend(&buf[..n]);
            loop {
                let t0 = if traced { clock.now() } else { 0 };
                let frame = match decoders[c].next_frame() {
                    Ok(Some(f)) => f,
                    Ok(None) => break,
                    Err(e) => {
                        out.errors.push(format!("framing on connection {c}: {e}"));
                        dead[c] = true;
                        break;
                    }
                };
                let seq = log.recv.len();
                if seq >= sh.published[c].load(Ordering::Acquire) {
                    out.errors
                        .push(format!("unsolicited reply on connection {c}"));
                    dead[c] = true;
                    break;
                }
                let code = sh.pending[c][seq].load(Ordering::Relaxed);
                let op = ops[(code >> 2) as usize];
                let sent =
                    [Sent::Join, Sent::Leave, Sent::Update, Sent::Query][(code & 3) as usize];
                let outcome = proto::parse_response(&frame)
                    .map_or(Outcome::Unexpected, |r| classify(sent, &r));
                let decode_ns = if traced { (clock.now() - t0) as u32 } else { 0 };
                if c == WRITE {
                    let state = &sh.state[op.provider as usize];
                    match outcome {
                        Outcome::Admitted => state.store(ADMITTED, Ordering::Release),
                        Outcome::Rejected | Outcome::Left => state.store(0, Ordering::Release),
                        _ => {
                            state.fetch_and(!IN_FLIGHT, Ordering::Release);
                        }
                    }
                }
                log.recv.push(RecvRec {
                    t_recv,
                    decode_at: t0,
                    decode_ns,
                    outcome,
                });
                if traced && log.replies.len() < KEEP_FRAMES {
                    log.replies.push(frame);
                }
            }
        }
    }
    out.cpu_ns = thread_cpu_ns().saturating_sub(cpu0);
    out
}
