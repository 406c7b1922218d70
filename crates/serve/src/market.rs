//! The shard writer: batched admission control, preemptible equilibrium
//! maintenance, snapshots, and graceful drain.
//!
//! Each region's writer thread owns one shard: a [`GameState`] that
//! owns the shard's copy of the [`Market`](mec_core::model::Market), plus the book-keeping of
//! admissions, migrations and coordinated snapshots. I/O threads enqueue
//! [`Command`]s on a bounded channel; the writer drains the queue in
//! *batches* — everything queued is taken in one lock, applied in one
//! pass over the state (`Shard::step`), and covered by a single
//! published [`MarketView`]. Publishing is the expensive step (`O(N)`
//! placement/cost vectors per view), so amortizing one publish over a
//! whole batch is where the daemon's write throughput comes from.
//!
//! Read-your-writes is preserved batch-wide: the view covering a batch
//! is published *before* any command in the batch is acknowledged, so a
//! client holding a reply can immediately observe its write through
//! `query`/`stats` — whichever thread answers the read.
//!
//! Whenever a drain comes back empty and the active players are not yet
//! at equilibrium, the writer spends the gap on one *maintenance
//! quantum*: a bounded best-response sweep applying at most
//! [`EPOCH_MOVES`] improving moves (Lemma 3 dynamics). Quanta interleave
//! with queue drains, so maintenance is preemptible — a request burst
//! waits for at most one quantum, never a full convergence run — while
//! the exact-potential argument still guarantees the dynamics terminate
//! once the queue goes quiet. At equilibrium with an empty queue the
//! writer sleeps in idle ticks, waking only to rebalance across shards
//! and to notice that the I/O side has gone.
//!
//! Because the state owns its market, commands that change the market
//! itself apply in place: a demand update moves one provider's load in
//! `O(1)` ([`GameState::set_provider_demand`]) and a restore swaps in the
//! snapshot's state, both in the middle of a batch like any other write.

use std::collections::VecDeque;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use mec_core::game::IMPROVEMENT_TOL;
use mec_core::{
    load_snapshot, save_snapshot, save_snapshot_sharded, GameState, MarketSnapshot, Placement,
    Profile, ProviderId, ShardMeta,
};
use mec_topology::CloudletId;

use crate::chan::{OneSender, Receiver, Sender, TrySendError};
use crate::demand::{demand_order, DemandTracker, DEMAND_EWMA_ALPHA};
use crate::eventloop::Completions;
use crate::proto::{Request, Response, StatsReport};
use crate::shard::{
    parse_manifest, shard_snapshot_path, write_manifest, CoordKind, CoordOp, Coordinator, DrainOp,
    Manifest, Router, ShardGauges,
};
use crate::view::{MarketView, SharedView};

/// Improving moves allowed per maintenance quantum.
pub const EPOCH_MOVES: usize = 32;

/// Most commands taken from the queue per drain (one published view
/// covers the whole batch).
pub const BATCH_MAX: usize = 256;

/// How long an idle writer sleeps between housekeeping ticks (rebalance
/// scans, noticing the I/O side went away).
const IDLE_TICK: Duration = Duration::from_millis(10);

/// Same slack as [`mec_core::model::Market::fits`], used when debiting
/// reservations.
const CAP_SLACK: f64 = 1e-9;

/// Housekeeping ticks between cross-shard rebalance scans.
const REBALANCE_TICKS: u64 = 8;

/// Minimum relative cost improvement before a cross-shard migration is
/// worth the handoff (on top of [`IMPROVEMENT_TOL`]).
const MIGRATION_MARGIN: f64 = 0.01;

/// Backstop for the drain linger: if a peer shard wedges, stop waiting
/// for the quiesce barrier after this long and finish anyway.
const DRAIN_LINGER_MAX: Duration = Duration::from_secs(5);

const NO_SNAPSHOT: &str = "daemon was started without --snapshot";

/// Where a command's response goes once the market thread settles it.
pub enum Reply {
    /// A blocking oneshot slot (in-process drivers, unit tests).
    Oneshot(OneSender<Response>),
    /// An event-loop route: the response is pushed into the owning I/O
    /// thread's completion mailbox, keyed by connection and request id,
    /// and the loop serializes it in request order.
    Conn {
        /// The owning I/O thread's completion mailbox.
        mailbox: Arc<Completions>,
        /// Connection id within that thread.
        conn: u64,
        /// Request id within that connection.
        req: u64,
    },
}

impl Reply {
    /// Delivers the response to whoever is waiting.
    pub fn send(self, resp: Response) {
        match self {
            Reply::Oneshot(tx) => tx.send(resp),
            Reply::Conn { mailbox, conn, req } => mailbox.push(conn, req, resp),
        }
    }
}

impl From<OneSender<Response>> for Reply {
    fn from(tx: OneSender<Response>) -> Reply {
        Reply::Oneshot(tx)
    }
}

/// A mutating request, carried from an I/O thread to the market thread
/// with its reply route. Reads (`query`/`stats`) never become commands —
/// they are answered from the published [`MarketView`].
pub enum Command {
    /// Admit a provider (optionally at a specific cloudlet).
    Join {
        /// Provider id.
        provider: usize,
        /// Requested cloudlet, if any.
        cloudlet: Option<usize>,
        /// Reply route.
        reply: Reply,
    },
    /// Deactivate a provider.
    Leave {
        /// Provider id.
        provider: usize,
        /// Reply route.
        reply: Reply,
    },
    /// Replace a provider's demand vector.
    Update {
        /// Provider id.
        provider: usize,
        /// New compute demand.
        compute: f64,
        /// New bandwidth demand.
        bandwidth: f64,
        /// Reply route.
        reply: Reply,
    },
    /// Write the snapshot file now.
    Snapshot {
        /// Reply route.
        reply: Reply,
    },
    /// Reload state from the snapshot file.
    Restore {
        /// Reply route.
        reply: Reply,
    },
    /// (cross-shard) A join handed over from another shard. Ownership has
    /// already transferred to the receiver; the provider's authoritative
    /// demands ride along so the receiver can sync its market copy.
    JoinForward {
        /// Provider id.
        provider: usize,
        /// Requested cloudlet, if any.
        cloudlet: Option<usize>,
        /// Authoritative compute demand.
        compute: f64,
        /// Authoritative bandwidth demand.
        bandwidth: f64,
        /// Shards tried so far (a generic join gives up after a full lap).
        hop: usize,
        /// Reply route.
        reply: Reply,
    },
    /// (cross-shard) Phase 1 of a migration handoff: reserve capacity at
    /// `cloudlet` on the receiving shard.
    MigrateReserve {
        /// Provider id.
        provider: usize,
        /// Target cloudlet (in the receiver's region).
        cloudlet: usize,
        /// Compute demand to reserve.
        compute: f64,
        /// Bandwidth demand to reserve.
        bandwidth: f64,
        /// Source shard awaiting the grant.
        from: usize,
    },
    /// (cross-shard) The target's answer to a reservation.
    MigrateGrant {
        /// Provider id.
        provider: usize,
        /// `true` if capacity was reserved.
        granted: bool,
    },
    /// (cross-shard) Phase 2: the source released the provider; place it.
    MigrateCommit {
        /// Provider id.
        provider: usize,
        /// Reserved cloudlet.
        cloudlet: usize,
        /// Authoritative compute demand.
        compute: f64,
        /// Authoritative bandwidth demand.
        bandwidth: f64,
    },
    /// (cross-shard) Cancel a granted reservation.
    MigrateAbort {
        /// Provider id.
        provider: usize,
    },
    /// (coordinated) Phase 1 of a multi-shard snapshot/restore: pause
    /// migrations and ack once in-flight handoffs have resolved.
    Prepare {
        /// The coordinated operation.
        op: Arc<CoordOp>,
    },
    /// (coordinated) Phase 2: write/load this shard's slice.
    Apply {
        /// The coordinated operation.
        op: Arc<CoordOp>,
    },
    /// (coordinated) Graceful drain, one member per shard (a `shutdown`
    /// request at any shard count).
    DrainAll {
        /// The shared drain barrier.
        op: Arc<DrainOp>,
    },
}

/// Builds the market command for a single-shard request. Reads are
/// answered from the view and `shutdown` fans out as a [`DrainOp`], so
/// neither reaches this point; asking for a command for one returns the
/// error response to send instead.
pub fn command_for(req: Request, reply: Reply) -> Result<Command, Response> {
    Ok(match req {
        Request::Join { provider, cloudlet } => Command::Join {
            provider,
            cloudlet,
            reply,
        },
        Request::Leave { provider } => Command::Leave { provider, reply },
        Request::UpdateDemand {
            provider,
            compute,
            bandwidth,
        } => Command::Update {
            provider,
            compute,
            bandwidth,
            reply,
        },
        Request::Snapshot => Command::Snapshot { reply },
        Request::Restore => Command::Restore { reply },
        Request::Query { .. } | Request::Stats | Request::Shutdown => {
            return Err(Response::Error {
                msg: "reads are answered from the view and shutdown fans out as a drain"
                    .to_string(),
            })
        }
    })
}

/// Everything one shard's writer shares with the rest of the daemon: its
/// region, the ownership router, peer queues and views, the coordination
/// barriers and the I/O-side liveness counter. Only
/// [`crate::shard::ShardSet`] builds one.
pub(crate) struct ShardCtx {
    /// This shard's index.
    pub(crate) index: usize,
    /// Total shard count.
    pub(crate) shards: usize,
    /// Cloudlet→"belongs to this shard" mask over the full topology.
    pub(crate) mine: Vec<bool>,
    /// Provider→shard ownership map (shared with the I/O threads).
    pub(crate) router: Arc<Router>,
    /// Command senders to every shard, self included. Because each
    /// writer holds its own sender, its queue never disconnects: teardown
    /// is signalled by [`ShardCtx::io_live`] instead.
    pub(crate) peers: Vec<Sender<Command>>,
    /// Published views of every shard, self included: this shard
    /// publishes into its own and reads its peers' for cross-shard
    /// rebalance estimates.
    pub(crate) views: Vec<Arc<SharedView>>,
    /// Shared epochs and drain/quiesce barriers.
    pub(crate) coord: Arc<Coordinator>,
    /// Per-shard depth/write gauges read by `stats`.
    pub(crate) gauges: Arc<ShardGauges>,
    /// Live I/O-side senders (the I/O threads, or one in-process driver);
    /// at zero the shard self-drains.
    pub(crate) io_live: Arc<AtomicUsize>,
    /// Per-provider query counters noted by the I/O side; folded into
    /// demand EWMAs at quantum start.
    pub(crate) demand: Arc<DemandTracker>,
    /// Snapshot file; `None` disables `snapshot`/`restore` and the final
    /// drain snapshot.
    pub(crate) snapshot_path: Option<PathBuf>,
    /// Interned probe name for this shard's publish latency.
    pub(crate) publish_probe: &'static str,
}

/// Literal per-shard publish probes (the common shard counts); higher
/// indices intern a leaked name once per shard thread.
const PUBLISH_PROBES: [&str; 4] = [
    "serve.publish.s0.ns",
    "serve.publish.s1.ns",
    "serve.publish.s2.ns",
    "serve.publish.s3.ns",
];

/// The publish-latency probe of shard `index` of `shards`: the plain
/// `serve.publish.ns` at one shard, `serve.publish.s<k>.ns` otherwise.
pub(crate) fn publish_probe(index: usize, shards: usize) -> &'static str {
    if shards == 1 {
        "serve.publish.ns"
    } else if let Some(name) = PUBLISH_PROBES.get(index).copied() {
        name
    } else {
        Box::leak(format!("serve.publish.s{index}.ns").into_boxed_str())
    }
}

impl ShardCtx {
    /// `true` if cloudlet `c` belongs to this shard's region.
    fn owns_cloudlet(&self, c: usize) -> bool {
        self.mine.get(c).copied().unwrap_or(false)
    }

    /// `true` if this shard currently owns provider `p`.
    fn owns(&self, p: usize) -> bool {
        self.shards == 1 || self.router.owner(p) == self.index
    }

    /// `true` once every I/O-side sender has exited.
    fn io_gone(&self) -> bool {
        self.io_live.load(Ordering::Acquire) == 0
    }
}

/// What the market thread hands back when it drains.
#[derive(Debug)]
pub struct MarketOutcome {
    /// Final state version.
    pub seq: u64,
    /// Final placement profile.
    pub profile: Profile,
    /// Final admission mask.
    pub active: Vec<bool>,
    /// Maintenance quanta run over the daemon's lifetime.
    pub epochs: u64,
    /// Improving moves those quanta applied.
    pub moves: u64,
    /// `true` if the drained placement is a Nash equilibrium of the
    /// active providers.
    pub equilibrium: bool,
    /// Violations found by the exit certification (always empty unless
    /// the `verify` feature is on and something is wrong).
    pub violations: Vec<String>,
}

/// Capacity debited at a cloudlet for an in-flight incoming migration.
struct Reservation {
    provider: usize,
    cloudlet: usize,
    compute: f64,
    bandwidth: f64,
}

/// This shard's at-most-one outgoing migration handoff.
struct Outgoing {
    provider: usize,
    target: usize,
    cloudlet: usize,
    /// Set by a drain: answer the pending grant with an abort.
    cancelled: bool,
}

/// The writer's mutable book-keeping beside its game state.
struct Book {
    active: Vec<bool>,
    seq: u64,
    epochs: u64,
    moves: u64,
    equilibrium: bool,
    /// Round-robin scan position for maintenance quanta (the fallback
    /// order when no demand has been observed).
    cursor: usize,
    /// Per-provider request-rate EWMAs ([`DEMAND_EWMA_ALPHA`]), folded
    /// from the shared [`DemandTracker`] at every quantum start. Drives
    /// the hot-first maintenance scan and is published in the view.
    demand_ewma: Vec<f64>,
    /// Replies settled in the current batch, sent only after the
    /// covering view is published.
    acks: Vec<(Reply, Response)>,
    /// Coordinated applies settled in the current batch; their barrier
    /// is acked after the covering view is published.
    applied: Vec<Arc<CoordOp>>,
    /// Cross-shard sends that hit a full peer queue, drained FIFO so
    /// per-target ordering is preserved. The writer never blocks on a
    /// peer queue — that is what makes shard-to-shard cycles safe.
    outbound: VecDeque<(usize, Command)>,
    /// Capacity debits granted to in-flight incoming migrations.
    reserved: Vec<Reservation>,
    /// The at-most-one outgoing migration handoff.
    outgoing: Option<Outgoing>,
    /// Providers whose client left between reserve-grant and commit; the
    /// commit is dropped instead of resurrecting them.
    tombstones: Vec<usize>,
    /// `true` between a coordinated prepare and its apply: no new
    /// migrations originate and no reservations are granted.
    paused: bool,
    /// Prepare fan-outs deferred until the outgoing handoff resolves.
    parked_preps: Vec<Arc<CoordOp>>,
    /// Idle housekeeping ticks (throttles rebalance scans).
    ticks: u64,
}

/// One shard's writer: the game state over its market copy, its
/// book-keeping, and its context. [`Shard::step`] applies one command;
/// [`Shard::run`] is the writer thread's loop around it.
pub(crate) struct Shard {
    state: GameState<'static>,
    book: Book,
    ctx: ShardCtx,
}

impl Shard {
    /// A writer booted at `state` with admission mask `active` and state
    /// version `seq`.
    pub(crate) fn new(
        state: GameState<'static>,
        active: Vec<bool>,
        seq: u64,
        ctx: ShardCtx,
    ) -> Shard {
        let n = active.len();
        Shard {
            state,
            book: Book {
                active,
                seq,
                epochs: 0,
                moves: 0,
                equilibrium: false,
                cursor: 0,
                demand_ewma: vec![0.0; n],
                acks: Vec::new(),
                applied: Vec::new(),
                outbound: VecDeque::new(),
                reserved: Vec::new(),
                outgoing: None,
                tombstones: Vec::new(),
                paused: false,
                parked_preps: Vec::new(),
                ticks: 0,
            },
            ctx,
        }
    }

    /// Runs the writer thread to completion: drain a batch, apply it, and
    /// settle it; spend empty gaps on maintenance quanta (or, at
    /// equilibrium, on idle ticks). Returns when a drain command or the
    /// exit of every I/O-side sender has drained the shard.
    pub(crate) fn run(mut self, rx: &Receiver<Command>) -> MarketOutcome {
        let mut batch: Vec<Command> = Vec::new();
        loop {
            self.drain_outbound();
            // Poll nonblockingly while maintenance is pending; at
            // equilibrium wake every idle tick to rebalance and to notice
            // the I/O side has gone (the queue itself never disconnects).
            let timeout = if self.book.equilibrium {
                IDLE_TICK
            } else {
                Duration::ZERO
            };
            let Ok((taken, depth)) = rx.recv_batch(&mut batch, BATCH_MAX, Some(timeout)) else {
                if self.book.equilibrium {
                    self.maybe_rebalance();
                } else {
                    self.run_quantum(EPOCH_MOVES);
                    self.publish();
                }
                if self.ctx.io_gone() {
                    return self.drain_and_finish(rx, Vec::new());
                }
                continue;
            };
            mec_obs::record("serve.drain.batch", taken as u64);
            mec_obs::record("serve.drain.depth", depth as u64);
            mec_obs::gauge("serve.queue.depth", self.book.seq, depth as f64);
            self.ctx.gauges.set_depth(self.ctx.index, depth);
            let mut cmds = batch.drain(..);
            let drain = cmds.by_ref().find_map(|cmd| self.step(cmd));
            let rest: Vec<Command> = cmds.collect();
            self.settle_batch();
            if let Some(op) = drain {
                if op.ack() {
                    if let Some(reply) = op.take_reply() {
                        reply.send(Response::Draining);
                    }
                }
                return self.drain_and_finish(rx, rest);
            }
        }
    }

    /// Ends a batch: one publish covering it, then its acks, then the
    /// coordinated applies it settled.
    fn settle_batch(&mut self) {
        self.publish();
        for (reply, resp) in self.book.acks.drain(..) {
            reply.send(resp);
        }
        for op in std::mem::take(&mut self.book.applied) {
            complete_apply(&op, self.ctx.snapshot_path.as_deref());
        }
    }

    /// Applies one command. Client replies wait in the book until the
    /// batch's view is published; a drain command is handed back for the
    /// caller to run once the batch is settled.
    fn step(&mut self, cmd: Command) -> Option<Arc<DrainOp>> {
        match cmd {
            Command::Join {
                provider,
                cloudlet,
                reply,
            } => {
                if self.ctx.owns(provider) {
                    self.join(provider, cloudlet, 0, reply);
                } else {
                    self.chase_owner(
                        provider,
                        Command::Join {
                            provider,
                            cloudlet,
                            reply,
                        },
                    );
                }
            }
            Command::Leave { provider, reply } => {
                if self.ctx.owns(provider) {
                    let resp = self.handle_leave(provider);
                    self.ack_write(reply, resp);
                } else {
                    self.chase_owner(provider, Command::Leave { provider, reply });
                }
            }
            Command::Update {
                provider,
                compute,
                bandwidth,
                reply,
            } => {
                if self.ctx.owns(provider) {
                    let resp = self.handle_update(provider, compute, bandwidth);
                    self.ack_write(reply, resp);
                } else {
                    self.chase_owner(
                        provider,
                        Command::Update {
                            provider,
                            compute,
                            bandwidth,
                            reply,
                        },
                    );
                }
            }
            Command::JoinForward {
                provider,
                cloudlet,
                compute,
                bandwidth,
                hop,
                reply,
            } => {
                if provider >= self.state.len() {
                    self.book.acks.push((reply, unknown_provider(provider)));
                } else {
                    self.sync_demand(provider, compute, bandwidth);
                    self.join(provider, cloudlet, hop, reply);
                }
            }
            Command::MigrateReserve {
                provider,
                cloudlet,
                compute,
                bandwidth,
                from,
            } => {
                // Authoritative Eq. 4–5 admission on the target's own
                // thread; never granted while a coordinated snapshot is
                // between prepare and apply (a commit admitted then could
                // land behind the apply and vanish from every slice).
                let granted = !self.book.paused
                    && provider < self.state.len()
                    && self.ctx.owns_cloudlet(cloudlet)
                    && !self.book.active[provider]
                    && {
                        let (a, b) = self.free_at(CloudletId(cloudlet));
                        compute <= a + CAP_SLACK && bandwidth <= b + CAP_SLACK
                    };
                if granted {
                    self.book.reserved.push(Reservation {
                        provider,
                        cloudlet,
                        compute,
                        bandwidth,
                    });
                }
                self.send_peer(from, Command::MigrateGrant { provider, granted });
            }
            Command::MigrateGrant { provider, granted } => self.handle_grant(provider, granted),
            Command::MigrateCommit {
                provider,
                cloudlet,
                compute,
                bandwidth,
            } => self.commit(provider, cloudlet, compute, bandwidth),
            Command::MigrateAbort { provider } => self.abort(provider),
            Command::Prepare { op } => {
                self.book.paused = true;
                if self.book.outgoing.is_some() {
                    // Ack only once the in-flight handoff has sent commit
                    // or abort — that FIFO-orders any commit ahead of the
                    // apply fan-out on the target.
                    self.book.parked_preps.push(op);
                } else {
                    self.complete_prepare(&op);
                }
            }
            Command::Apply { op } => {
                self.book.paused = false;
                let done = match op.kind {
                    CoordKind::Snapshot => self.write_shard_slice(op.epoch),
                    CoordKind::Restore => self.load_my_slice().map(|snap| {
                        if let Some(meta) = &snap.shard {
                            for (p, owned) in meta.owned.iter().enumerate() {
                                if *owned {
                                    self.ctx.router.set_owner(p, self.ctx.index);
                                }
                            }
                        }
                        self.restore(snap);
                        op.fold_seq(self.book.seq);
                    }),
                };
                if let Err(msg) = done {
                    op.push_error(msg);
                }
                self.book.applied.push(op);
            }
            Command::DrainAll { op } => return Some(op),
            Command::Restore { reply } => {
                let resp = if self.ctx.shards > 1 {
                    // Sharded daemons restore through the coordinated
                    // Prepare/Apply fan-out.
                    error("sharded restore must go through the coordinator")
                } else {
                    match self.ctx.snapshot_path.as_deref().map(load_snapshot) {
                        None => error(NO_SNAPSHOT),
                        Some(Ok(snap)) => {
                            let seq = snap.seq;
                            self.restore(snap);
                            Response::Restored { seq }
                        }
                        Some(Err(e)) => error(&format!("restore failed: {e}")),
                    }
                };
                self.book.acks.push((reply, resp));
            }
            Command::Snapshot { reply } => {
                let resp = if self.ctx.shards > 1 {
                    error("sharded snapshot must go through the coordinator")
                } else {
                    self.write_snapshot()
                };
                self.book.acks.push((reply, resp));
            }
        }
        None
    }

    /// Queues the reply to a settled client write and counts it.
    fn ack_write(&mut self, reply: Reply, resp: Response) {
        self.ctx.gauges.add_writes(self.ctx.index, 1);
        self.book.acks.push((reply, resp));
    }

    /// Settles a join here, or forwards it with the provider's ownership
    /// to the shard that answers it.
    fn join(&mut self, provider: usize, cloudlet: Option<usize>, hop: usize, reply: Reply) {
        if let Some((reply, resp)) = self.handle_join(provider, cloudlet, hop, reply) {
            self.ack_write(reply, resp);
        }
    }

    /// Rewinds the shard to a loaded snapshot (or slice): state, admission
    /// mask and seq are replaced in place; the demand EWMAs carry over.
    fn restore(&mut self, snap: MarketSnapshot) {
        self.state = GameState::owned(snap.market, snap.profile);
        self.book.active = snap.active;
        self.book.seq = snap.seq;
        self.book.equilibrium = false;
        self.book.cursor = 0;
        self.book.reserved.clear();
        self.book.tombstones.clear();
    }

    /// Adopts the authoritative demands a cross-shard handoff carries,
    /// when they differ (bit-exact) from this shard's market copy.
    fn sync_demand(&mut self, provider: usize, compute: f64, bandwidth: f64) {
        let l = ProviderId(provider);
        let spec = self.state.market().provider(l);
        if spec.compute_demand.to_bits() != compute.to_bits()
            || spec.bandwidth_demand.to_bits() != bandwidth.to_bits()
        {
            self.state.set_provider_demand(l, compute, bandwidth);
            self.book.seq += 1;
            self.book.equilibrium = false;
        }
    }

    /// Residual capacity at `i` net of migration reservations — the free
    /// space admission and best responses are allowed to see.
    fn free_at(&self, i: CloudletId) -> (f64, f64) {
        let (mut a, mut b) = self.state.residual(i);
        for r in &self.book.reserved {
            if r.cloudlet == i.index() {
                a -= r.compute;
                b -= r.bandwidth;
            }
        }
        (a, b)
    }

    /// Re-routes a command for a provider this shard no longer owns (the
    /// router moved it after the I/O thread picked a queue) to the current
    /// owner. The chase converges because ownership only changes when the
    /// new owner actually processes work for the provider.
    fn chase_owner(&mut self, provider: usize, cmd: Command) {
        mec_obs::counter_add("serve.shard.route", 1);
        let owner = self.ctx.router.owner(provider);
        self.send_peer(owner, cmd);
    }

    /// Enqueues a cross-shard command, never blocking: anything that does
    /// not fit the peer queue right now waits in `book.outbound` (global
    /// FIFO, so per-target ordering is preserved) and is retried every
    /// loop iteration.
    fn send_peer(&mut self, target: usize, cmd: Command) {
        self.book.outbound.push_back((target, cmd));
        self.drain_outbound();
    }

    fn drain_outbound(&mut self) {
        while let Some((target, cmd)) = self.book.outbound.pop_front() {
            match self.ctx.peers[target].try_send(cmd) {
                Ok(()) => {}
                Err(TrySendError::Full(cmd)) => {
                    // Stop at the first full queue: draining past it could
                    // reorder two sends to the same target.
                    self.book.outbound.push_front((target, cmd));
                    break;
                }
                // Peer thread already exited (teardown): drop the message.
                Err(TrySendError::Closed(_)) => {}
            }
        }
    }

    /// Hands a join (and the provider's ownership) to `target`.
    fn forward_join(
        &mut self,
        provider: usize,
        cloudlet: Option<usize>,
        hop: usize,
        reply: Reply,
        target: usize,
    ) {
        let spec = self.state.market().provider(ProviderId(provider));
        let (compute, bandwidth) = (spec.compute_demand, spec.bandwidth_demand);
        self.ctx.router.set_owner(provider, target);
        mec_obs::counter_add("serve.shard.route", 1);
        self.send_peer(
            target,
            Command::JoinForward {
                provider,
                cloudlet,
                compute,
                bandwidth,
                hop,
                reply,
            },
        );
    }

    /// Settles the target's answer to this shard's outgoing reservation:
    /// on a usable grant, release the provider locally, transfer
    /// ownership, and commit on the target; otherwise abort any reserved
    /// capacity.
    fn handle_grant(&mut self, provider: usize, granted: bool) {
        let Some(out) = self.book.outgoing.take() else {
            return; // stale grant: nothing in flight
        };
        if out.provider != provider {
            self.book.outgoing = Some(out);
            return;
        }
        let usable = !out.cancelled
            && self.book.active.get(provider).copied().unwrap_or(false)
            && self.ctx.router.owner(provider) == self.ctx.index;
        if granted && usable {
            let l = ProviderId(provider);
            let spec = self.state.market().provider(l);
            let (compute, bandwidth) = (spec.compute_demand, spec.bandwidth_demand);
            self.state.apply_move(l, Placement::Remote);
            self.book.active[provider] = false;
            self.book.seq += 1;
            self.book.equilibrium = false;
            self.ctx.router.set_owner(provider, out.target);
            mec_obs::counter_add("serve.shard.migrate", 1);
            self.ctx.gauges.add_migrations(out.target, 1);
            self.send_peer(
                out.target,
                Command::MigrateCommit {
                    provider,
                    cloudlet: out.cloudlet,
                    compute,
                    bandwidth,
                },
            );
        } else if granted {
            self.send_peer(out.target, Command::MigrateAbort { provider });
        }
        self.resolve_parked();
    }

    /// Lands a migration commit on the receiving shard: drop its
    /// reservation, then either honour a leave that overtook the handoff
    /// or sync the provider's demands and place it.
    fn commit(&mut self, provider: usize, cloudlet: usize, compute: f64, bandwidth: f64) {
        self.book.reserved.retain(|r| r.provider != provider);
        if let Some(ix) = self.book.tombstones.iter().position(|p| *p == provider) {
            // The client left while the handoff was in flight; we own an
            // inactive remote provider.
            self.book.tombstones.swap_remove(ix);
        } else if provider < self.state.len() && !self.book.active[provider] {
            self.sync_demand(provider, compute, bandwidth);
            self.place_commit(provider, cloudlet);
            self.ctx.gauges.add_writes(self.ctx.index, 1);
        }
    }

    /// Cancels a granted reservation.
    fn abort(&mut self, provider: usize) {
        self.book.reserved.retain(|r| r.provider != provider);
        self.book.tombstones.retain(|p| *p != provider);
    }

    /// Activates a committed provider. Capacity was reserved at grant
    /// time, but demands may have moved underneath the reservation —
    /// re-check and fall back to remote (still active; the maintenance
    /// quanta re-place it when capacity frees up).
    fn place_commit(&mut self, provider: usize, cloudlet: usize) {
        let l = ProviderId(provider);
        let market = self.state.market();
        let placement = if cloudlet < market.cloudlet_count()
            && self.ctx.owns_cloudlet(cloudlet)
            && market.fits(l, self.free_at(CloudletId(cloudlet)))
        {
            Placement::Cloudlet(CloudletId(cloudlet))
        } else {
            Placement::Remote
        };
        self.state.apply_move(l, placement);
        self.book.active[provider] = true;
        self.book.seq += 1;
        self.book.equilibrium = false;
    }

    /// Acks a prepare; the last shard to ack fans the apply out to
    /// everyone (through its outbound, so per-target FIFO holds).
    fn complete_prepare(&mut self, op: &Arc<CoordOp>) {
        if op.ack_prepare() {
            for k in 0..self.ctx.shards {
                self.send_peer(k, Command::Apply { op: op.clone() });
            }
        }
    }

    /// Fires deferred prepare-acks once the outgoing handoff has resolved.
    fn resolve_parked(&mut self) {
        if self.book.outgoing.is_some() {
            return;
        }
        for op in std::mem::take(&mut self.book.parked_preps) {
            self.complete_prepare(&op);
        }
    }

    fn snapshot_base(&self) -> Result<&Path, String> {
        self.ctx
            .snapshot_path
            .as_deref()
            .ok_or_else(|| NO_SNAPSHOT.to_string())
    }

    /// Writes this shard's slice of the epoch-`epoch` snapshot set.
    fn write_shard_slice(&self, epoch: u64) -> Result<(), String> {
        let base = self.snapshot_base()?;
        let meta = ShardMeta {
            epoch,
            index: self.ctx.index,
            count: self.ctx.shards,
            owned: (0..self.state.len())
                .map(|p| self.ctx.router.owner(p) == self.ctx.index)
                .collect(),
        };
        save_snapshot_sharded(
            &shard_snapshot_path(base, epoch, self.ctx.index),
            self.book.seq,
            self.state.market(),
            self.state.profile(),
            &self.book.active,
            &meta,
        )
        .map_err(|e| format!("shard {} snapshot failed: {e}", self.ctx.index))
    }

    /// Loads this shard's slice of the newest manifest-complete snapshot
    /// set.
    fn load_my_slice(&self) -> Result<MarketSnapshot, String> {
        let base = self.snapshot_base()?;
        let text =
            std::fs::read_to_string(base).map_err(|e| format!("restore failed: {base:?}: {e}"))?;
        let manifest = parse_manifest(&text)
            .ok_or_else(|| "snapshot path holds no shard manifest".to_string())?;
        if manifest.shards != self.ctx.shards {
            return Err(format!(
                "snapshot set has {} shards, daemon runs {}; restart to re-partition",
                manifest.shards, self.ctx.shards
            ));
        }
        load_snapshot(&shard_snapshot_path(base, manifest.epoch, self.ctx.index))
            .map_err(|e| format!("shard {} restore failed: {e}", self.ctx.index))
    }

    /// Periodic cross-shard rebalance, piggybacked on idle housekeeping
    /// ticks: find the owned active provider with the largest estimated
    /// gain from moving into a peer region (advisory congestion/residuals
    /// read from the peer's published view) and start a reserve→commit
    /// handoff. At most one outgoing handoff is in flight per shard.
    fn maybe_rebalance(&mut self) {
        if self.ctx.shards == 1 || self.book.paused || self.book.outgoing.is_some() {
            return;
        }
        self.book.ticks += 1;
        if !self.book.ticks.is_multiple_of(REBALANCE_TICKS) {
            return;
        }
        let ctx = &self.ctx;
        let views: Vec<Arc<MarketView>> = ctx.views.iter().map(|v| v.load()).collect();
        // One map load per pass: a concurrent admin reload swaps the Arc,
        // and this pass keeps targeting under the map it started with.
        let region_of = ctx.coord.region_map();
        let market = self.state.market();
        let mut best: Option<(usize, usize, f64)> = None;
        for l in market.providers() {
            let p = l.index();
            if !self.book.active[p] || !ctx.owns(p) {
                continue;
            }
            let current = self.state.provider_cost(l);
            let spec = market.provider(l);
            for i in market.cloudlets() {
                let c = i.index();
                if ctx.owns_cloudlet(c) {
                    continue;
                }
                let r = region_of.get(c).copied().unwrap_or(0);
                if r == ctx.index {
                    // A reloaded map can point an unowned cloudlet back at
                    // this shard; capacity ownership is fixed at boot, so a
                    // handoff to ourselves could never be granted.
                    continue;
                }
                let Some(v) = views.get(r) else {
                    continue;
                };
                let (Some(&cong), Some(&(ra, rb))) = (v.congestion.get(c), v.residual.get(c))
                else {
                    continue;
                };
                if spec.compute_demand > ra + CAP_SLACK || spec.bandwidth_demand > rb + CAP_SLACK {
                    continue;
                }
                let est = market.caching_cost(l, i, cong + 1);
                let gain = current - est;
                if est + IMPROVEMENT_TOL < current * (1.0 - MIGRATION_MARGIN)
                    && best.is_none_or(|(_, _, g)| gain > g)
                {
                    best = Some((p, c, gain));
                }
            }
        }
        let Some((provider, cloudlet, _)) = best else {
            return;
        };
        let spec = market.provider(ProviderId(provider));
        let (compute, bandwidth) = (spec.compute_demand, spec.bandwidth_demand);
        let target = region_of.get(cloudlet).copied().unwrap_or(0);
        self.book.outgoing = Some(Outgoing {
            provider,
            target,
            cloudlet,
            cancelled: false,
        });
        mec_obs::record("serve.shard.rebalance.moves", 1);
        let from = self.ctx.index;
        self.send_peer(
            target,
            Command::MigrateReserve {
                provider,
                cloudlet,
                compute,
                bandwidth,
                from,
            },
        );
    }

    /// [`GameState::best_response`] restricted to this shard's region,
    /// with migration reservations debited from the residuals. Falls
    /// through to the exact core implementation when nothing restricts
    /// the view.
    fn region_best_response(&self, l: ProviderId) -> Option<(Placement, f64)> {
        if self.ctx.shards == 1 && self.book.reserved.is_empty() {
            return self.state.best_response(l);
        }
        let market = self.state.market();
        let current = self.state.placement(l);
        let spec = market.provider(l);
        let mut best: Option<(Placement, f64)> = None;
        let mut consider = |p: Placement, cost: f64| {
            let better = match best {
                None => true,
                Some((bp, bc)) => {
                    cost < bc - IMPROVEMENT_TOL
                        || ((cost - bc).abs() <= IMPROVEMENT_TOL && p == current && bp != current)
                }
            };
            if better {
                best = Some((p, cost));
            }
        };
        if spec.can_stay_remote() {
            consider(Placement::Remote, spec.remote_cost);
        }
        for i in market.cloudlets() {
            if !self.ctx.owns_cloudlet(i.index()) {
                continue;
            }
            let (mut free_a, mut free_b) = self.free_at(i);
            let mut others = self.state.congestion(i);
            if current == Placement::Cloudlet(i) {
                free_a += spec.compute_demand;
                free_b += spec.bandwidth_demand;
                others -= 1;
            }
            if market.fits(l, (free_a, free_b)) {
                consider(
                    Placement::Cloudlet(i),
                    market.caching_cost(l, i, others + 1),
                );
            }
        }
        best
    }

    /// Admission control (Eq. 4–5 against the maintained residuals, net
    /// of migration reservations): place at the requested cloudlet if it
    /// fits, else — with no explicit request — at the cheapest fitting
    /// cloudlet of this shard's region by Eq. 3. A pinned join for a
    /// foreign region is handed to that region's shard; a generic join
    /// that does not fit here tries the next shard, giving up after a
    /// full lap. Returns the ack to send, or `None` when the join (and
    /// the provider's ownership) was forwarded — the receiving shard
    /// answers.
    fn handle_join(
        &mut self,
        provider: usize,
        cloudlet: Option<usize>,
        hop: usize,
        reply: Reply,
    ) -> Option<(Reply, Response)> {
        if provider >= self.state.len() {
            return Some((reply, unknown_provider(provider)));
        }
        let l = ProviderId(provider);
        if self.book.active[provider] {
            return Some((reply, error(&format!("provider {provider} already joined"))));
        }
        let shards = self.ctx.shards;
        let market = self.state.market();
        if let Some(c) = cloudlet {
            if c >= market.cloudlet_count() {
                return Some((reply, error(&format!("unknown cloudlet {c}"))));
            }
            if !self.ctx.owns_cloudlet(c) {
                let target = self.ctx.coord.region_of(c);
                // Under the boot map the owner is one direct hop away.
                // After an admin topology reload the map can disagree with
                // the boot-time ownership masks (capacity ownership never
                // moves at runtime): a map that points back at this shard,
                // or a forward chain that has done a full lap without
                // finding the mask owner, must reject cleanly instead of
                // bouncing the command between shards forever.
                if target == self.ctx.index || hop >= shards {
                    mec_obs::counter_add("serve.join.rejected", 1);
                    return Some((
                        reply,
                        Response::Rejected {
                            reason: format!(
                                "cloudlet {c} is not owned by any shard under the current \
                                 region map (reload moved it off its boot owner; restart \
                                 to re-partition)"
                            ),
                        },
                    ));
                }
                self.forward_join(provider, cloudlet, hop + 1, reply, target);
                return None;
            }
        }
        let chosen = match cloudlet {
            Some(c) => {
                let i = CloudletId(c);
                market.fits(l, self.free_at(i)).then_some(i)
            }
            None => market
                .cloudlets()
                .filter(|&i| self.ctx.owns_cloudlet(i.index()) && market.fits(l, self.free_at(i)))
                .min_by(|&a, &b| {
                    let ca = market.caching_cost(l, a, self.state.congestion(a) + 1);
                    let cb = market.caching_cost(l, b, self.state.congestion(b) + 1);
                    ca.total_cmp(&cb)
                }),
        };
        match chosen {
            Some(i) => {
                self.state.apply_move(l, Placement::Cloudlet(i));
                self.book.active[provider] = true;
                self.book.seq += 1;
                self.book.equilibrium = false;
                mec_obs::counter_add("serve.join.admitted", 1);
                Some((
                    reply,
                    Response::Admitted {
                        cloudlet: i.index(),
                        cost: self.state.provider_cost(l),
                    },
                ))
            }
            None => {
                if cloudlet.is_none() && shards > 1 && hop + 1 < shards {
                    let target = (self.ctx.index + 1) % shards;
                    self.forward_join(provider, None, hop + 1, reply, target);
                    return None;
                }
                mec_obs::counter_add("serve.join.rejected", 1);
                Some((
                    reply,
                    Response::Rejected {
                        reason: match cloudlet {
                            Some(c) => {
                                format!("cloudlet {c} lacks capacity for provider {provider}")
                            }
                            None => format!("no cloudlet has capacity for provider {provider}"),
                        },
                    },
                ))
            }
        }
    }

    fn handle_leave(&mut self, provider: usize) -> Response {
        if provider >= self.state.len() {
            return unknown_provider(provider);
        }
        if !self.book.active[provider] {
            // An incoming migration commit may be about to land (the
            // client's leave overtook it): honor the leave by tombstoning
            // the handoff.
            if self.book.reserved.iter().any(|r| r.provider == provider) {
                self.book.reserved.retain(|r| r.provider != provider);
                if !self.book.tombstones.contains(&provider) {
                    self.book.tombstones.push(provider);
                }
                mec_obs::counter_add("serve.leave", 1);
                return Response::Left;
            }
            return error(&format!("provider {provider} is not joined"));
        }
        self.state
            .apply_move(ProviderId(provider), Placement::Remote);
        self.book.active[provider] = false;
        self.book.seq += 1;
        self.book.equilibrium = false;
        mec_obs::counter_add("serve.leave", 1);
        Response::Left
    }

    /// `update_demand`: validate, move the provider's load in place, and
    /// if the new demand no longer fits its current cloudlet, evict to
    /// the remote cloud (still active — maintenance quanta will re-place
    /// it when capacity frees up).
    fn handle_update(&mut self, provider: usize, compute: f64, bandwidth: f64) -> Response {
        if provider >= self.state.len() {
            return unknown_provider(provider);
        }
        if [compute, bandwidth]
            .iter()
            .any(|v| !v.is_finite() || *v < 0.0)
        {
            return error(&format!(
                "demands must be finite and non-negative, got ({compute}, {bandwidth})"
            ));
        }
        let l = ProviderId(provider);
        self.state.set_provider_demand(l, compute, bandwidth);
        self.book.seq += 1;
        self.book.equilibrium = false;
        let mut evicted = false;
        if let Placement::Cloudlet(i) = self.state.placement(l) {
            let (a, b) = self.state.residual(i);
            if a < -1e-9 || b < -1e-9 {
                self.state.apply_move(l, Placement::Remote);
                self.book.seq += 1;
                evicted = true;
            }
        }
        mec_obs::counter_add("serve.update", 1);
        if evicted {
            mec_obs::counter_add("serve.update.evicted", 1);
        }
        Response::Updated {
            cost: self.state.provider_cost(l),
            evicted,
        }
    }

    fn write_snapshot(&self) -> Response {
        let Ok(path) = self.snapshot_base() else {
            return error(NO_SNAPSHOT);
        };
        match save_snapshot(
            path,
            self.book.seq,
            self.state.market(),
            self.state.profile(),
            &self.book.active,
        ) {
            Ok(()) => Response::Snapshotted { seq: self.book.seq },
            Err(e) => error(&format!("snapshot failed: {e}")),
        }
    }

    /// Folds the query counts the I/O side accumulated since the last
    /// quantum into this shard's per-provider demand EWMAs. Counts for
    /// providers owned by other shards are left in the tracker for their
    /// owner's next fold; owned EWMAs decay toward zero through quiet
    /// quanta (the same update with a zero count).
    fn fold_demand(&mut self) {
        let demand = &self.ctx.demand;
        if demand.is_empty() {
            return;
        }
        let n = self.book.demand_ewma.len().min(demand.len());
        for p in 0..n {
            if !self.ctx.owns(p) {
                continue;
            }
            let count = demand.take(p) as f64;
            let e = &mut self.book.demand_ewma[p];
            *e = (1.0 - DEMAND_EWMA_ALPHA) * *e + DEMAND_EWMA_ALPHA * count;
        }
    }

    /// One bounded maintenance quantum: scan the providers **hottest
    /// first** (by the demand EWMAs just folded from the I/O side;
    /// round-robin from the saved cursor when no demand has ever been
    /// observed), applying best responses of *active* providers until
    /// `max_moves` improvements land or a full quiet sweep proves the
    /// active players are at equilibrium. Demand biases only the order —
    /// every move is still an exact best response, so the fixed points
    /// stay Nash equilibria; under a bounded quantum the hot services
    /// simply get first claim on scarce capacity. Bounding the moves is
    /// what makes maintenance preemptible — the serving loop re-checks
    /// the queue after every quantum, so a request burst waits for one
    /// quantum at most.
    fn run_quantum(&mut self, max_moves: usize) {
        let n = self.state.len();
        self.book.epochs += 1;
        mec_obs::counter_add("serve.epoch", 1);
        self.fold_demand();
        let order = demand_order(n, &self.book.demand_ewma, self.book.cursor);
        let mut pos = 0usize;
        let mut applied = 0usize;
        let mut recached = 0u64;
        let mut quiet_streak = 0usize;
        while applied < max_moves && quiet_streak < n {
            let l = ProviderId(order[pos % n]);
            pos += 1;
            if !self.book.active[l.index()] || !self.ctx.owns(l.index()) {
                quiet_streak += 1;
                continue;
            }
            let current = self.state.provider_cost(l);
            match self.region_best_response(l) {
                Some((p, cost))
                    if p != self.state.placement(l) && cost < current - IMPROVEMENT_TOL =>
                {
                    self.state.apply_move(l, p);
                    if matches!(p, Placement::Cloudlet(_)) {
                        recached += 1;
                    }
                    applied += 1;
                    quiet_streak = 0;
                }
                _ => quiet_streak += 1,
            }
        }
        // Advance the fallback rotation exactly as the legacy per-step
        // cursor bump did: one examined provider per iteration.
        self.book.cursor = (self.book.cursor + pos) % n.max(1);
        mec_obs::record("serve.quantum.moves", applied as u64);
        if applied > 0 {
            self.book.moves += applied as u64;
            self.book.seq += 1;
            mec_obs::counter_add("serve.epoch.moves", applied as u64);
        }
        if recached > 0 {
            mec_obs::counter_add("serve.recache", recached);
        }
        // A full pass with no improving move is exactly the Nash condition
        // restricted to the active players (Lemma 3 terminates the
        // dynamics).
        self.book.equilibrium = quiet_streak >= n;
    }

    fn view(&self) -> MarketView {
        let (state, book) = (&self.state, &self.book);
        let market = state.market();
        let placements: Vec<Placement> = market.providers().map(|l| state.placement(l)).collect();
        let costs: Vec<f64> = market.providers().map(|l| state.provider_cost(l)).collect();
        let social_cost = state.subset_cost(market.providers().filter(|l| book.active[l.index()]));
        let congestion = state.congestion_counts().to_vec();
        // Peers read the residuals to estimate migrations: show them the
        // free space net of already-granted reservations so they never
        // over-target.
        let mut residual: Vec<(f64, f64)> = market.cloudlets().map(|i| state.residual(i)).collect();
        for r in &book.reserved {
            residual[r.cloudlet].0 -= r.compute;
            residual[r.cloudlet].1 -= r.bandwidth;
        }
        let demands: Vec<(f64, f64)> = market
            .providers()
            .map(|l| {
                let spec = market.provider(l);
                (spec.compute_demand, spec.bandwidth_demand)
            })
            .collect();
        MarketView {
            seq: book.seq,
            placements,
            costs,
            active: book.active.clone(),
            social_cost,
            congestion,
            residual,
            demands,
            demand_ewma: book.demand_ewma.clone(),
            epochs: book.epochs,
            moves: book.moves,
            equilibrium: book.equilibrium,
        }
    }

    /// Publishes this shard's view, recording the view-build latency when
    /// the probes are armed (`enabled()` is `const`, so the timer folds
    /// away in no-op builds). Sharded daemons record per-shard probes
    /// (`serve.publish.s<k>.ns`); `obsreport` folds them back together.
    pub(crate) fn publish(&self) {
        let t0 = mec_obs::enabled().then(Instant::now);
        self.ctx.views[self.ctx.index].store(self.view());
        if let Some(t0) = t0 {
            mec_obs::record(self.ctx.publish_probe, t0.elapsed().as_nanos() as u64);
        }
    }

    /// Coordinated drain of one shard: announce quiesce (or cancel the
    /// in-flight outgoing handoff first), keep servicing migration
    /// traffic until every shard has quiesced, then finish independently.
    /// `rest` is whatever was batched behind the drain command.
    fn drain_and_finish(mut self, rx: &Receiver<Command>, rest: Vec<Command>) -> MarketOutcome {
        // Quiesce: this shard originates no further migrations. An
        // in-flight outgoing handoff must resolve first (the pending grant
        // is answered with an abort), so commits are never stranded.
        if let Some(out) = self.book.outgoing.as_mut() {
            out.cancelled = true;
        } else {
            self.ctx.coord.arrive_quiesced();
        }
        // Coordinated snapshots parked behind the handoff fail with the
        // drain error — their barriers still complete so no client is
        // stranded.
        for op in std::mem::take(&mut self.book.parked_preps) {
            op.push_error("daemon is draining".to_string());
            self.complete_prepare(&op);
        }
        // Whatever was already batched rides through the drain handler so
        // in-flight commits still land.
        for cmd in rest {
            self.drain_cmd(cmd);
        }
        // Linger until every shard has quiesced, servicing migration
        // traffic (reservation requests are refused, commits/aborts
        // applied). The deadline is a backstop against a wedged peer.
        let deadline = Instant::now() + DRAIN_LINGER_MAX;
        loop {
            self.drain_outbound();
            if self.book.outgoing.is_none() && self.ctx.coord.all_quiesced() {
                break;
            }
            if Instant::now() >= deadline {
                break;
            }
            if let Ok(cmd) = rx.recv_timeout(Duration::from_millis(1)) {
                self.drain_cmd(cmd);
            }
        }
        self.drain_outbound();
        for cmd in rx.try_drain() {
            self.drain_cmd(cmd);
        }
        // Any reservation left now belongs to a handoff that died with its
        // source; drop them so the final equilibrium is unconstrained.
        self.book.reserved.clear();
        self.finish()
    }

    /// Command handling during a drain: client traffic is refused,
    /// migration traffic is settled so no provider is lost mid-handoff.
    fn drain_cmd(&mut self, cmd: Command) {
        match cmd {
            Command::MigrateReserve { provider, from, .. } => {
                self.send_peer(
                    from,
                    Command::MigrateGrant {
                        provider,
                        granted: false,
                    },
                );
            }
            Command::MigrateGrant { provider, granted } => {
                let resolved = self
                    .book
                    .outgoing
                    .as_ref()
                    .is_some_and(|out| out.provider == provider);
                if resolved {
                    // `resolved` just witnessed `outgoing` is Some for this
                    // provider; nothing between the check and the take.
                    // lint: allow(panics)
                    let out = self.book.outgoing.take().expect("outgoing checked above");
                    if granted {
                        self.send_peer(out.target, Command::MigrateAbort { provider });
                    }
                    self.ctx.coord.arrive_quiesced();
                }
            }
            Command::MigrateCommit {
                provider,
                cloudlet,
                compute,
                bandwidth,
            } => self.commit(provider, cloudlet, compute, bandwidth),
            Command::MigrateAbort { provider } => self.abort(provider),
            other => refuse(other),
        }
    }

    /// Drain: run maintenance quanta until the active players reach
    /// equilibrium, write the final snapshot, and (with the `verify`
    /// feature) re-certify the placement from first principles.
    fn finish(mut self) -> MarketOutcome {
        // Equilibrium is guaranteed to be reached: best-response dynamics
        // on the exact-potential game terminate (Lemma 3). The cap is a
        // backstop against a cost-model bug turning the drain into a hot
        // loop.
        let mut guard = 0usize;
        while !self.book.equilibrium && guard < 100_000 {
            self.run_quantum(usize::MAX);
            guard += 1;
        }
        // A failed write must not abort the drain; the error goes into
        // the outcome for the caller to report.
        let violations = match self.write_final_snapshot() {
            Ok(()) => self.certify(),
            Err(msg) => vec![msg],
        };
        MarketOutcome {
            seq: self.book.seq,
            profile: self.state.into_profile(),
            active: self.book.active,
            epochs: self.book.epochs,
            moves: self.book.moves,
            equilibrium: self.book.equilibrium,
            violations,
        }
    }

    /// The drain snapshot: one shard writes the whole-market file; a
    /// sharded writer writes its slice of the drain-epoch set, and the
    /// last shard to finish writes the manifest.
    fn write_final_snapshot(&self) -> Result<(), String> {
        let Some(path) = self.ctx.snapshot_path.as_deref() else {
            return Ok(());
        };
        if self.ctx.shards == 1 {
            return save_snapshot(
                path,
                self.book.seq,
                self.state.market(),
                self.state.profile(),
                &self.book.active,
            )
            .map_err(|e| format!("final snapshot failed: {e}"));
        }
        let coord = &self.ctx.coord;
        let epoch = coord.drain_epoch();
        let wrote = self.write_shard_slice(epoch);
        if wrote.is_err() {
            coord.mark_drain_failed();
        }
        if coord.arrive_finished() && !coord.drain_failed() {
            let manifest = Manifest {
                epoch,
                shards: self.ctx.shards,
            };
            write_manifest(path, &manifest).map_err(|e| format!("final manifest failed: {e}"))?;
        }
        wrote.map_err(|msg| format!("final snapshot failed: {msg}"))
    }

    #[cfg(feature = "verify")]
    fn certify(&self) -> Vec<String> {
        let market = self.state.market();
        let mut out: Vec<String> = Vec::new();
        out.extend(
            mec_core::check_capacity(market, self.state.profile())
                .into_iter()
                .map(|v| v.to_string()),
        );
        out.extend(
            mec_core::check_state(&self.state, 1e-6)
                .into_iter()
                .map(|v| v.to_string()),
        );
        if self.ctx.shards == 1 {
            out.extend(
                mec_core::check_nash(
                    market,
                    self.state.profile(),
                    &self.book.active,
                    IMPROVEMENT_TOL,
                )
                .into_iter()
                .map(|v| v.to_string()),
            );
        } else {
            out.extend(self.certify_region_nash());
        }
        out
    }

    /// Nash certification restricted to this shard's region. The shard's
    /// market copy sees foreign cloudlets as empty (their load lives on
    /// other shards), so a whole-market `check_nash` would report phantom
    /// improving moves into them. Rebuild a sub-market of just the
    /// region's cloudlets, re-index the owned placements into it, and
    /// certify that.
    #[cfg(feature = "verify")]
    fn certify_region_nash(&self) -> Vec<String> {
        let ctx = &self.ctx;
        let market = self.state.market();
        let keep: Vec<usize> = (0..market.cloudlet_count())
            .filter(|&c| ctx.owns_cloudlet(c))
            .collect();
        let mut local_of = vec![None; market.cloudlet_count()];
        for (j, &c) in keep.iter().enumerate() {
            local_of[c] = Some(j);
        }
        let mut b = mec_core::model::Market::builder();
        for &c in &keep {
            b = b.cloudlet(market.cloudlet(CloudletId(c)).clone());
        }
        for l in market.providers() {
            b = b.provider(market.provider(l).clone());
        }
        let mut update_cost = Vec::with_capacity(market.provider_count() * keep.len());
        for l in market.providers() {
            for &c in &keep {
                update_cost.push(market.update_cost(l, CloudletId(c)));
            }
        }
        let sub = b.update_cost_matrix(update_cost).build();
        let mut violations = Vec::new();
        let mut placements = Vec::with_capacity(market.provider_count());
        let mut mask = vec![false; market.provider_count()];
        for l in market.providers() {
            let p = l.index();
            let owned = ctx.router.owner(p) == ctx.index;
            let place = match self.state.placement(l) {
                Placement::Cloudlet(i) if owned => match local_of[i.index()] {
                    Some(j) => Placement::Cloudlet(CloudletId(j)),
                    None => {
                        violations.push(format!(
                            "shard {}: owned provider {p} placed outside its region",
                            ctx.index
                        ));
                        Placement::Remote
                    }
                },
                _ => Placement::Remote,
            };
            placements.push(place);
            mask[p] = owned && self.book.active[p];
        }
        let profile = Profile::new(placements);
        violations.extend(
            mec_core::check_nash(&sub, &profile, &mask, IMPROVEMENT_TOL)
                .into_iter()
                .map(|v| format!("shard {}: {v}", ctx.index)),
        );
        violations
    }

    #[cfg(not(feature = "verify"))]
    fn certify(&self) -> Vec<String> {
        Vec::new()
    }
}

fn error(msg: &str) -> Response {
    Response::Error {
        msg: msg.to_string(),
    }
}

fn unknown_provider(provider: usize) -> Response {
    error(&format!("unknown provider {provider}"))
}

/// Acks an apply; the last shard answers the client — and, for a clean
/// snapshot, writes the manifest first (manifest last on disk, so a crash
/// leaves either the previous complete set or the new one).
fn complete_apply(op: &Arc<CoordOp>, snapshot_path: Option<&Path>) {
    if !op.ack_apply() {
        return;
    }
    let errors = op.take_errors();
    let Some(reply) = op.take_reply() else { return };
    let resp = if !errors.is_empty() {
        error(&errors.join("; "))
    } else {
        match op.kind {
            CoordKind::Snapshot => match snapshot_path {
                Some(base) => match write_manifest(
                    base,
                    &Manifest {
                        epoch: op.epoch,
                        shards: op.shards,
                    },
                ) {
                    Ok(()) => Response::Snapshotted { seq: op.epoch },
                    Err(e) => error(&format!("manifest write failed: {e}")),
                },
                None => error(NO_SNAPSHOT),
            },
            CoordKind::Restore => Response::Restored { seq: op.seq() },
        }
    };
    reply.send(resp);
}

/// Builds the wire stats record from a published view.
pub fn stats_of(view: &MarketView) -> StatsReport {
    StatsReport {
        seq: view.seq,
        providers: view.placements.len(),
        active: view.active_count(),
        cached: view.cached_count(),
        social_cost: view.social_cost,
        epochs: view.epochs,
        moves: view.moves,
        equilibrium: view.equilibrium,
        shards: Vec::new(),
    }
}

/// Folds every shard's published view (plus the shared gauges) into one
/// daemon-wide stats record: totals summed, equilibrium ANDed, and a
/// per-shard breakdown appended. With one shard this is exactly
/// [`stats_of`] — the wire encoding stays byte-identical to the
/// pre-sharding protocol.
pub fn composite_stats(views: &[Arc<SharedView>], gauges: &ShardGauges) -> StatsReport {
    if views.len() == 1 {
        return stats_of(&views[0].load());
    }
    let mut st = StatsReport {
        seq: 0,
        providers: 0,
        active: 0,
        cached: 0,
        social_cost: 0.0,
        epochs: 0,
        moves: 0,
        equilibrium: true,
        shards: Vec::with_capacity(views.len()),
    };
    for (k, view) in views.iter().enumerate() {
        let v = view.load();
        st.seq += v.seq;
        st.providers = v.placements.len();
        st.active += v.active_count();
        st.cached += v.cached_count();
        st.social_cost += v.social_cost;
        st.epochs += v.epochs;
        st.moves += v.moves;
        st.equilibrium &= v.equilibrium;
        st.shards.push(crate::proto::ShardStat {
            seq: v.seq,
            depth: gauges.depth(k) as u64,
            writes: gauges.writes(k),
        });
    }
    st
}

/// Answers a command with the draining error (used for everything queued
/// behind a drain, and by I/O threads whose queue closed under them).
pub(crate) fn refuse(cmd: Command) {
    let draining = || error("daemon is draining");
    match cmd {
        Command::Join { reply, .. }
        | Command::Leave { reply, .. }
        | Command::Update { reply, .. }
        | Command::Snapshot { reply }
        | Command::Restore { reply }
        | Command::JoinForward { reply, .. } => reply.send(draining()),
        // Cross-shard bookkeeping has no client waiting on it.
        Command::MigrateReserve { .. }
        | Command::MigrateGrant { .. }
        | Command::MigrateCommit { .. }
        | Command::MigrateAbort { .. } => {}
        // Coordinated ops: fail this shard's share of the barrier so the
        // last arriver answers the client with the drain error.
        Command::Prepare { op } => {
            op.push_error("daemon is draining".to_string());
            let _ = op.ack_prepare();
        }
        Command::Apply { op } => {
            op.push_error("daemon is draining".to_string());
            if op.ack_apply() {
                if let Some(reply) = op.take_reply() {
                    reply.send(draining());
                }
            }
        }
        Command::DrainAll { op } => {
            if op.ack() {
                if let Some(reply) = op.take_reply() {
                    reply.send(Response::Draining);
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::chan;
    use crate::shard::{BootState, ShardSet};
    use mec_core::model::{CloudletSpec, Market, ProviderSpec};

    fn tiny_market(providers: usize) -> Market {
        let mut b = Market::builder()
            .cloudlet(CloudletSpec::new(4.0, 20.0, 0.5, 0.5))
            .cloudlet(CloudletSpec::new(4.0, 20.0, 0.3, 0.2));
        for _ in 0..providers {
            b = b.provider(ProviderSpec::new(2.0, 8.0, 1.0, 30.0));
        }
        b.uniform_update_cost(0.2).build()
    }

    /// A one-shard set over a fresh `market`, its queue sized for `queue`
    /// commands plus the drain.
    fn one_shard(market: Market, queue: usize, demand: Arc<DemandTracker>) -> ShardSet {
        ShardSet::boot(
            BootState::fresh(market),
            1,
            None,
            queue + 1,
            None,
            demand,
            1,
        )
        .unwrap()
    }

    /// Drives a one-shard writer: every command is enqueued before the
    /// thread starts, followed by the drain.
    fn drive(market: Market, cmds: Vec<Command>) -> (Vec<Option<Response>>, MarketOutcome) {
        let mut set = one_shard(market, cmds.len(), Arc::new(DemandTracker::disabled()));
        let mut receivers = Vec::new();
        for cmd in cmds {
            set.txs[0].send(cmd).map_err(|_| ()).unwrap();
        }
        let sd_rx = set.shutdown();
        set.start(|| {});
        let outcome = set.join();
        receivers.push(sd_rx.recv());
        (receivers, outcome)
    }

    fn join(provider: usize) -> (Command, chan::OneReceiver<Response>) {
        let (tx, rx) = chan::oneshot();
        (
            Command::Join {
                provider,
                cloudlet: None,
                reply: tx.into(),
            },
            rx,
        )
    }

    #[test]
    fn join_to_capacity_then_reject_then_leave_readmits() {
        // Each cloudlet fits exactly 2 of these providers (4.0 / 2.0).
        let mut set = one_shard(tiny_market(5), 16, Arc::new(DemandTracker::disabled()));
        let tx = &set.txs[0];

        let mut replies = Vec::new();
        for p in 0..5 {
            let (cmd, r) = join(p);
            tx.send(cmd).map_err(|_| ()).unwrap();
            replies.push(r);
        }
        let (leave_tx, leave_rx) = chan::oneshot();
        tx.send(Command::Leave {
            provider: 0,
            reply: leave_tx.into(),
        })
        .map_err(|_| ())
        .unwrap();
        let (rejoin, rejoin_rx) = join(4);
        tx.send(rejoin).map_err(|_| ()).unwrap();
        let sd_rx = set.shutdown();
        set.start(|| {});
        let outcome = set.join();

        let admitted = replies
            .drain(..4)
            .map(|r| matches!(r.recv(), Some(Response::Admitted { .. })))
            .filter(|x| *x)
            .count();
        assert_eq!(admitted, 4, "four providers fit two 2-slot cloudlets");
        assert!(matches!(
            replies.pop().unwrap().recv(),
            Some(Response::Rejected { .. })
        ));
        assert_eq!(leave_rx.recv(), Some(Response::Left));
        assert!(matches!(rejoin_rx.recv(), Some(Response::Admitted { .. })));
        assert_eq!(sd_rx.recv(), Some(Response::Draining));
        assert_eq!(outcome.active.iter().filter(|a| **a).count(), 4);
        assert!(outcome.equilibrium);
        assert!(outcome.violations.is_empty(), "{:?}", outcome.violations);
    }

    /// The demand signal must change *which* provider wins scarce
    /// capacity. One cloudlet, two providers: grow both past capacity
    /// (evicting both), shrink both back to a size where exactly one
    /// fits, and let the drain's maintenance quanta re-cache one of
    /// them. With no observations the round-robin cursor picks provider
    /// 0; with provider 1 hot, hot-first must pick provider 1.
    #[test]
    fn observed_demand_biases_recaching_toward_hot_providers() {
        fn run(notes: &[(usize, u64)]) -> (Placement, Placement) {
            let market = Market::builder()
                .cloudlet(CloudletSpec::new(4.0, 20.0, 0.5, 0.5))
                .provider(ProviderSpec::new(2.0, 8.0, 1.0, 30.0))
                .provider(ProviderSpec::new(2.0, 8.0, 1.0, 30.0))
                .uniform_update_cost(0.2)
                .build();
            let demand = Arc::new(DemandTracker::new(2));
            for &(p, c) in notes {
                for _ in 0..c {
                    demand.note(p);
                }
            }
            let mut set = one_shard(market, 16, demand);
            let tx = &set.txs[0];
            let mut receivers = Vec::new();
            for p in 0..2 {
                let (cmd, r) = join(p);
                tx.send(cmd).map_err(|_| ()).unwrap();
                receivers.push(r);
            }
            // Grow past capacity (each eviction), then shrink to a size
            // where one — and only one — fits the cloudlet again.
            for &(compute, bandwidth) in &[(5.0, 8.0), (3.0, 8.0)] {
                for p in 0..2 {
                    let (otx, orx) = chan::oneshot();
                    tx.send(Command::Update {
                        provider: p,
                        compute,
                        bandwidth,
                        reply: otx.into(),
                    })
                    .map_err(|_| ())
                    .unwrap();
                    receivers.push(orx);
                }
            }
            let sd_rx = set.shutdown();
            set.start(|| {});
            let outcome = set.join();
            assert_eq!(sd_rx.recv(), Some(Response::Draining));
            assert!(outcome.equilibrium);
            assert!(outcome.violations.is_empty(), "{:?}", outcome.violations);
            (
                outcome.profile.placement(ProviderId(0)),
                outcome.profile.placement(ProviderId(1)),
            )
        }

        let (p0, p1) = run(&[]);
        assert!(
            matches!(p0, Placement::Cloudlet(_)),
            "without demand the round-robin cursor re-caches provider 0, got {p0:?}/{p1:?}"
        );
        assert_eq!(p1, Placement::Remote);

        let (p0, p1) = run(&[(1, 50), (0, 2)]);
        assert_eq!(p0, Placement::Remote);
        assert!(
            matches!(p1, Placement::Cloudlet(_)),
            "hot provider 1 must win the slot under demand-driven ordering, got {p0:?}/{p1:?}"
        );
    }

    #[test]
    fn double_join_and_unknown_ids_error() {
        let market = tiny_market(2);
        let (j0, r0) = join(0);
        let (j0_again, r0_again) = join(0);
        let (j_bad, r_bad) = join(99);
        let (replies, _outcome) = drive(market, vec![j0, j0_again, j_bad]);
        assert!(matches!(r0.recv(), Some(Response::Admitted { .. })));
        assert!(matches!(r0_again.recv(), Some(Response::Error { .. })));
        assert!(matches!(r_bad.recv(), Some(Response::Error { .. })));
        assert_eq!(replies[0], Some(Response::Draining));
    }

    #[test]
    fn update_evicts_when_demand_outgrows_cloudlet() {
        let market = tiny_market(1);
        let (j, jr) = join(0);
        let (u_tx, u_rx) = chan::oneshot();
        let grow = Command::Update {
            provider: 0,
            compute: 100.0,
            bandwidth: 8.0,
            reply: u_tx.into(),
        };
        let (_, outcome) = drive(market, vec![j, grow]);
        assert!(matches!(jr.recv(), Some(Response::Admitted { .. })));
        match u_rx.recv() {
            Some(Response::Updated { evicted, .. }) => assert!(evicted),
            other => panic!("expected Updated, got {other:?}"),
        }
        // Still active, parked remotely; no cloudlet fits 100 compute.
        assert!(outcome.active[0]);
        assert_eq!(outcome.profile.placement(ProviderId(0)), Placement::Remote);
        assert!(outcome.violations.is_empty(), "{:?}", outcome.violations);
    }

    #[test]
    fn snapshot_without_path_is_an_error() {
        let market = tiny_market(1);
        let (s_tx, s_rx) = chan::oneshot();
        let (_, _) = drive(market, vec![Command::Snapshot { reply: s_tx.into() }]);
        assert!(matches!(s_rx.recv(), Some(Response::Error { .. })));
    }

    #[test]
    fn drain_reaches_equilibrium_of_active_players() {
        // Asymmetric cloudlets: join picks greedily, the drain quanta then
        // settle any provider that could improve.
        let mut b = Market::builder()
            .cloudlet(CloudletSpec::new(10.0, 50.0, 1.5, 1.5))
            .cloudlet(CloudletSpec::new(10.0, 50.0, 0.1, 0.1));
        for _ in 0..6 {
            b = b.provider(ProviderSpec::new(1.0, 4.0, 0.5, 40.0));
        }
        let market = b.uniform_update_cost(0.1).build();
        let mut cmds = Vec::new();
        let mut joins = Vec::new();
        for p in 0..6 {
            let (c, r) = join(p);
            cmds.push(c);
            joins.push(r);
        }
        let (_, outcome) = drive(market, cmds);
        for r in joins {
            assert!(matches!(r.recv(), Some(Response::Admitted { .. })));
        }
        assert!(outcome.equilibrium);
        assert!(outcome.violations.is_empty(), "{:?}", outcome.violations);
    }

    #[test]
    fn mid_batch_update_settles_the_remainder() {
        // A batch of join → update (changes the market in place) → join →
        // leave must settle every command against the right state: the
        // second join and the leave see the updated demand.
        let market = tiny_market(3);
        let (j0, r0) = join(0);
        let (u_tx, u_rx) = chan::oneshot();
        let update = Command::Update {
            provider: 0,
            compute: 1.0,
            bandwidth: 4.0,
            reply: u_tx.into(),
        };
        let (j1, r1) = join(1);
        let (l_tx, l_rx) = chan::oneshot();
        let leave = Command::Leave {
            provider: 0,
            reply: l_tx.into(),
        };
        let (_, outcome) = drive(market, vec![j0, update, j1, leave]);
        assert!(matches!(r0.recv(), Some(Response::Admitted { .. })));
        assert!(matches!(
            u_rx.recv(),
            Some(Response::Updated { evicted: false, .. })
        ));
        assert!(matches!(r1.recv(), Some(Response::Admitted { .. })));
        assert_eq!(l_rx.recv(), Some(Response::Left));
        assert!(!outcome.active[0]);
        assert!(outcome.active[1]);
        assert!(outcome.violations.is_empty(), "{:?}", outcome.violations);
    }
}
