//! The TCP front half of the daemon: acceptor, event-loop I/O threads,
//! boot and drain plumbing.
//!
//! Threading model (single-writer *per region* / multi-reader):
//!
//! ```text
//! acceptor ──inbox+wake──► io threads ──Command batch──► shard threads (×N)
//!                           │    ▲                           │   ▲
//!         reads from views ─┘    └──── Completions ◄──── publishes+acks
//!                                                            └── peer queues
//! ```
//!
//! The acceptor owns the listener and hands each accepted socket to one
//! of a small, fixed set of I/O threads (round-robin), which run the
//! poll-based event loop in [`crate::eventloop`]: nonblocking reads into
//! per-connection frame decoders, reads answered from the owning shard's
//! published [`crate::view::MarketView`], writes routed by the
//! provider→shard router as [`crate::market::Command`]s whose replies
//! come back through a completion mailbox and leave in request order. No
//! thread is ever parked on one client.
//!
//! The writers boot through one `ShardSet` at every shard count: each
//! region gets its own writer thread, every shard's first view is
//! published before the listener accepts, and `shutdown` is a coordinated
//! drain with one member per shard. Teardown is signalled by the
//! `io_live` counter of I/O threads (each writer holds its own and its
//! peers' senders, so its queue never disconnects). With `shards == 1`
//! `snapshot`/`restore` act on one whole-market file; with `shards > 1`
//! they fan out as coordinated two-phase ops (see [`crate::shard`]) over
//! per-shard slice sets behind a manifest.

use std::net::{SocketAddr, TcpListener, TcpStream};
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::{Arc, Mutex};
use std::thread::JoinHandle;

use mec_core::model::Market;

use crate::demand::DemandTracker;
use crate::eventloop::{run_io, Completions, IoShared};
use crate::market::MarketOutcome;
use crate::proto::{self, Response};
use crate::shard::{BootState, ShardSet};

/// Boot configuration of [`serve`].
#[derive(Debug, Clone)]
pub struct ServerConfig {
    /// Address to bind, e.g. `127.0.0.1:7690`; port 0 picks an ephemeral
    /// port (read it back from [`ServerHandle::addr`]).
    pub addr: String,
    /// Snapshot file. If it exists at boot, the daemon restores market,
    /// placements and admission state from it (crash recovery) instead of
    /// using the market passed to [`serve`]. A sharded daemon writes a
    /// manifest here pointing at per-shard slice files; boot understands
    /// both formats regardless of the configured shard count.
    pub snapshot_path: Option<PathBuf>,
    /// Bound of each shard's command queue (backpressure for writers).
    pub queue_cap: usize,
    /// Event-loop I/O threads; 0 sizes the fleet from the machine
    /// (`available_parallelism`, capped at 4 — the shard threads are the
    /// write bottleneck, extra I/O threads past that just add contention).
    pub io_threads: usize,
    /// Maximum simultaneous client connections.
    pub max_connections: usize,
    /// Market shards (writer threads), each owning one topology region.
    /// 1 (the default) runs one writer over the whole market; clamped to
    /// the cloudlet count.
    pub shards: usize,
    /// Cloudlet→shard region map (`regions[c]` is the owning shard of
    /// cloudlet `c`). `None` derives a contiguous index split; callers
    /// with topology metadata pass `MecNetwork::regions(shards)` for a
    /// spatial partition.
    pub regions: Option<Vec<usize>>,
    /// Address of the HTTP admin surface ([`crate::admin`]), e.g.
    /// `127.0.0.1:9640`; port 0 picks an ephemeral port (read it back
    /// from [`ServerHandle::admin_addr`]). `None` (the default) runs no
    /// admin listener.
    pub admin_addr: Option<String>,
}

impl Default for ServerConfig {
    fn default() -> Self {
        ServerConfig {
            addr: "127.0.0.1:0".to_string(),
            snapshot_path: None,
            queue_cap: 1024,
            io_threads: 0,
            max_connections: 512,
            shards: 1,
            regions: None,
            admin_addr: None,
        }
    }
}

impl ServerConfig {
    fn io_thread_count(&self) -> usize {
        if self.io_threads > 0 {
            return self.io_threads;
        }
        let cores = std::thread::available_parallelism()
            .map(|n| n.get())
            .unwrap_or(1);
        // On a single core one I/O thread is strictly better: the market
        // thread needs the core more than a second poll loop does.
        cores.saturating_sub(1).clamp(1, 4)
    }
}

/// A running daemon. Dropping the handle does **not** stop the daemon;
/// send a `shutdown` request and [`ServerHandle::join`] it.
pub struct ServerHandle {
    addr: SocketAddr,
    admin_addr: Option<SocketAddr>,
    shards: ShardSet,
    acceptor: JoinHandle<()>,
    io: Vec<JoinHandle<()>>,
    admin: Option<JoinHandle<()>>,
}

impl ServerHandle {
    /// The bound address (resolves port 0 to the actual ephemeral port).
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// The bound admin address, when [`ServerConfig::admin_addr`] asked
    /// for one (resolves port 0 to the actual ephemeral port).
    pub fn admin_addr(&self) -> Option<SocketAddr> {
        self.admin_addr
    }

    /// Blocks until the daemon drains and returns the merged market
    /// outcome (totals summed across shards, placements merged by the
    /// final admission mask — after a drain every provider is active on
    /// at most one shard).
    ///
    /// # Panics
    ///
    /// Panics if a shard, the acceptor, or an I/O thread itself panicked.
    pub fn join(self) -> MarketOutcome {
        let outcome = self.shards.join();
        if let Err(e) = self.acceptor.join() {
            std::panic::resume_unwind(e);
        }
        for h in self.io {
            if let Err(e) = h.join() {
                std::panic::resume_unwind(e);
            }
        }
        if let Some(h) = self.admin {
            if let Err(e) = h.join() {
                std::panic::resume_unwind(e);
            }
        }
        outcome
    }
}

/// Boots the daemon: restores the snapshot if one exists, binds the
/// listener, and starts the shard, acceptor, and I/O threads.
///
/// # Errors
///
/// Propagates bind errors, waker-socket errors, invalid region maps, and
/// snapshot-restore I/O or corruption errors.
pub fn serve(market: Market, cfg: &ServerConfig) -> std::io::Result<ServerHandle> {
    let boot = BootState::load(market, cfg.snapshot_path.as_deref())?;
    let n = boot.market.provider_count();
    let m = boot.market.cloudlet_count();
    let io_count = cfg.io_thread_count();
    // One demand tracker daemon-wide: every I/O thread notes queries into
    // it, each writer folds (only) its owned providers' counts.
    let demand = Arc::new(DemandTracker::new(n));
    // Every shard publishes its boot view here, before the listener
    // exists: a client that connects can never read a pre-boot view.
    let mut shards = ShardSet::boot(
        boot,
        cfg.shards,
        cfg.regions.as_ref(),
        cfg.queue_cap,
        cfg.snapshot_path.clone(),
        demand.clone(),
        io_count,
    )?;

    let listener = TcpListener::bind(&cfg.addr)?;
    let addr = listener.local_addr()?;
    let stop = Arc::new(AtomicBool::new(false));
    // Bind the admin listener before any thread starts so a bad admin
    // address fails the boot instead of leaking a half-started daemon.
    let admin_listener = match cfg.admin_addr.as_deref() {
        Some(a) => Some(crate::admin::bind_admin(a)?),
        None => None,
    };
    let live = Arc::new(AtomicUsize::new(0));

    // One IoShared per event-loop thread: its own completion mailbox and
    // accepted-connection inbox, everything else shared daemon-wide.
    let mut io_shared: Vec<Arc<IoShared>> = Vec::with_capacity(io_count);
    for _ in 0..io_count {
        io_shared.push(Arc::new(IoShared {
            completions: Arc::new(Completions::new()?),
            inbox: Mutex::new(Vec::new()),
            stop: stop.clone(),
            live: live.clone(),
            txs: shards.txs.clone(),
            views: shards.views.clone(),
            router: shards.router.clone(),
            gauges: shards.gauges.clone(),
            coord: shards.coord.clone(),
            demand: demand.clone(),
            addr,
        }));
    }

    let wakers: Vec<Arc<Completions>> = io_shared.iter().map(|s| s.completions.clone()).collect();
    let stop_w = stop.clone();
    shards.start(move || {
        // This shard is done (drained): stop the acceptor, poke it out of
        // `accept()` with a throwaway connection, and wake every I/O
        // thread so it observes the flag and flushes out. Idempotent
        // across shards.
        stop_w.store(true, Ordering::SeqCst);
        let _ = TcpStream::connect(addr);
        for c in &wakers {
            c.wake();
        }
    });

    let mut io = Vec::with_capacity(io_count);
    for shared in &io_shared {
        let shared = shared.clone();
        let io_live = shards.io_live.clone();
        // One poll loop per I/O thread, joined through the ServerHandle.
        // lint: allow(thread-spawn)
        io.push(std::thread::spawn(move || {
            run_io(&shared);
            // Signal the shard threads: one fewer I/O-side sender. At zero
            // every writer self-drains.
            io_live.fetch_sub(1, Ordering::AcqRel);
        }));
    }

    let mut admin_addr = None;
    let mut admin = None;
    if let Some((admin_l, bound)) = admin_listener {
        admin_addr = Some(bound);
        let shared = Arc::new(crate::admin::AdminShared {
            views: shards.views.clone(),
            router: shards.router.clone(),
            gauges: shards.gauges.clone(),
            coord: shards.coord.clone(),
            stop: stop.clone(),
            cloudlets: m,
            providers: n,
        });
        admin = Some(crate::admin::spawn_admin(admin_l, shared));
    }

    let max_connections = cfg.max_connections;
    // Acceptor: owns the listener; exits when the stop flag flips.
    // lint: allow(thread-spawn)
    let acceptor = std::thread::spawn(move || {
        accept_loop(&listener, &io_shared, &stop, &live, max_connections);
    });

    Ok(ServerHandle {
        addr,
        admin_addr,
        shards,
        acceptor,
        io,
        admin,
    })
}

/// Accepts connections and deals them round-robin to the I/O threads.
fn accept_loop(
    listener: &TcpListener,
    io_shared: &[Arc<IoShared>],
    stop: &AtomicBool,
    live: &AtomicUsize,
    max_connections: usize,
) {
    let mut next = 0usize;
    for stream in listener.incoming() {
        if stop.load(Ordering::SeqCst) {
            return;
        }
        let Ok(stream) = stream else { continue };
        // Frames are small request/response pairs; never batch them.
        let _ = stream.set_nodelay(true);
        if live.load(Ordering::SeqCst) >= max_connections {
            let mut s = stream;
            let payload = proto::encode_response(&Response::Error {
                msg: "server at connection capacity".to_string(),
            });
            let _ = proto::write_frame(&mut s, &payload);
            continue;
        }
        live.fetch_add(1, Ordering::SeqCst);
        let target = &io_shared[next % io_shared.len()];
        next = next.wrapping_add(1);
        {
            let mut inbox = target.inbox.lock().unwrap_or_else(|e| e.into_inner());
            inbox.push(stream);
        }
        target.completions.wake();
    }
}
