//! The shard writer: batched admission control, preemptible equilibrium
//! maintenance, snapshots, and the shutdown drain.
//!
//! Each region has one shard: a [`GameState`] that owns the shard's copy
//! of the [`Market`](mec_core::model::Market), plus the book-keeping of
//! admissions, migrations and coordinated snapshots. Commands reach it
//! on a bounded channel, and whoever holds the channel's *claim*
//! applies them (see [`crate::chan`]):
//!
//! ```text
//! io thread ──push, queue unclaimed: claim──► inline turn (client writes)
//!     │                                          │ release: anything left,
//!     └──push, queue claimed: no notify          ▼ or maintenance? wake
//! peer / driver ──push, wake if parked──► writer thread turn (everything)
//! ```
//!
//! Both run the same *turn* (`Shard::turn`): take a batch — everything
//! queued, in one lock — apply it in one pass over the state
//! (`Shard::step`), run the one maintenance quantum a queue-emptying
//! batch earns, publish a single [`MarketView`], then ack. An I/O
//! thread's inline turn takes only the client writes (join, leave,
//! update) at the head of the queue; every other command — the
//! coordinated ops among them — the prepares an outbound retry
//! unblocked, maintenance the quantum left and idle rebalance ticks stay
//! on the writer thread, which the releasing I/O thread wakes only when
//! one of them is pending.
//!
//! Read-your-writes is preserved batch-wide: the view covering a batch
//! is published *before* any command in the batch is acknowledged, so a
//! client holding a reply can immediately observe its write through
//! `query`/`stats` — whichever thread answers the read.
//!
//! Every state change — a join, leave, update or eviction, a migration's
//! grant, commit or abort, a reservation drop, a maintenance move, a
//! restore — goes through one move/admission/demand/release path that
//! records its *dirt*: the cloudlets whose congestion rose, the cloudlets
//! that freed room, the providers whose own demand or admission changed
//! (`Dirt`). The follower game is an affine congestion game (Lemma 3),
//! so only providers the dirt touches can have gained an improving move;
//! a clean record is the equilibrium the writer publishes.
//!
//! Maintenance runs in bounded *quanta*: passes of best responses over
//! just those candidates, applying at most [`EPOCH_MOVES`] improving
//! moves (Lemma 3 dynamics), each pass re-checking only what the previous
//! pass's moves disturbed. Each is a [`GameState::best_response_in`]
//! over the shard's region — its cloudlets under the region map fixed at
//! boot — against the free space net of migration reservations; the
//! drain certificate checks Nash under the same mask. A batch that
//! empties the queue runs its quantum before it publishes, so one
//! publish covers the write and the maintenance it triggered; behind a
//! deeper queue, maintenance waits for the next empty drain. Quanta
//! interleave with queue drains, so maintenance is preemptible — a
//! request burst waits for at most one quantum, never a full convergence
//! run — while the exact-potential argument still guarantees the
//! dynamics terminate once the queue goes quiet. At equilibrium with
//! nothing queued the writer thread sleeps; a whole idle tick with no
//! claim taken by anyone wakes it to rebalance across shards and to
//! notice an abandoned set.
//!
//! A `shutdown` is the third coordinated op beside `snapshot` and
//! `restore` (see [`crate::shard`]). From its prepare on, the shard
//! refuses client writes, forwarded joins and the prepares of other
//! coordinated ops (`daemon is draining`), still settles the migration
//! traffic that resolves a handoff and the applies of the ops it acked
//! before, and runs no maintenance until the apply, which runs it to
//! equilibrium, certifies the result and finishes the writer with its
//! [`MarketOutcome`].
//!
//! Because the state owns its market, commands that change the market
//! itself apply in place: a demand update moves one provider's load in
//! `O(1)` ([`GameState::set_provider_demand`]) and a restore swaps in the
//! snapshot's state, both in the middle of a batch like any other write.
//!
//! A write costs what it touched, publish and demand fold included. The
//! same four paths also record which view entries changed (`Touched`):
//! the providers whose placement, admission, demand or EWMA moved, and
//! the cloudlets whose congestion moved — Eq. 3 prices congestion, so
//! only those cloudlets' occupants changed cost. A publish patches those
//! entries, over the last two publish intervals, into the view the last
//! publish replaced, and a quantum folds only the providers the I/O side
//! noted ([`DemandTracker::drain`]).

use std::collections::VecDeque;
use std::path::{Path, PathBuf};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

use mec_core::game::IMPROVEMENT_TOL;
use mec_core::{
    load_snapshot, save_snapshot, GameState, MarketSnapshot, Placement, Profile, ProviderId,
};
use mec_topology::CloudletId;

use crate::chan::{lock_ok, Claimed, OneSender, Receiver, Sender, TrySendError};
use crate::demand::{demand_order, DemandEwma, DemandTracker};
use crate::eventloop::Completions;
use crate::proto::{Request, Response, StatsReport};
use crate::shard::{CoordKind, CoordOp, Coordinator, Router, ShardGauges};
use crate::view::{MarketView, SharedView};

/// Improving moves allowed per maintenance quantum.
pub const EPOCH_MOVES: usize = 32;

/// Most commands taken from the queue per drain (one published view
/// covers the whole batch).
pub const BATCH_MAX: usize = 256;

/// How long an idle writer sleeps between housekeeping ticks (rebalance
/// scans, noticing an abandoned set).
const IDLE_TICK: Duration = Duration::from_millis(10);

/// Same slack as [`mec_core::model::Market::fits`], used when debiting
/// reservations.
const CAP_SLACK: f64 = 1e-9;

/// Housekeeping ticks between cross-shard rebalance scans.
const REBALANCE_TICKS: u64 = 8;

/// Minimum relative cost improvement before a cross-shard migration is
/// worth the handoff (on top of [`IMPROVEMENT_TOL`]).
const MIGRATION_MARGIN: f64 = 0.01;

const NO_SNAPSHOT: &str = "daemon was started without --snapshot";

/// What a draining shard answers the work it refuses.
const DRAINING: &str = "daemon is draining";

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
    /// (coordinated) Phase 1 of a snapshot, restore or shutdown, one
    /// member per shard: pause migrations and ack once the in-flight
    /// handoff has resolved and the sends it made have left the outbound.
    Prepare {
        /// The coordinated operation.
        op: Arc<CoordOp>,
    },
    /// (coordinated) Phase 2: add this shard's part to the cut, take its
    /// part of the loaded file, or drain and finish.
    Apply {
        /// The coordinated operation.
        op: Arc<CoordOp>,
    },
}

impl Command {
    /// `true` for a client write — a join, leave or demand update as a
    /// client sent it — the only commands an I/O thread applies inline.
    pub(crate) fn is_client_write(&self) -> bool {
        matches!(
            self,
            Command::Join { .. } | Command::Leave { .. } | Command::Update { .. }
        )
    }
}

/// Builds the market command for a client write. Reads are answered
/// from the view, and `snapshot`, `restore` and `shutdown` fan out to
/// every shard, so none of them reaches this point; asking for a command
/// for one returns the error response to send instead.
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
        Request::Query { .. }
        | Request::Stats
        | Request::Snapshot
        | Request::Restore
        | Request::Shutdown => {
            return Err(Response::Error {
                msg: "reads are answered from the view and admin requests fan out".to_string(),
            })
        }
    })
}

/// Everything one shard's writer shares with the rest of the daemon: its
/// region, the ownership router, peer queues and views, and the
/// coordinator. Only [`crate::shard::ShardSet`] builds one.
pub(crate) struct ShardCtx {
    /// This shard's index.
    pub(crate) index: usize,
    /// Total shard count.
    pub(crate) shards: usize,
    /// Provider→shard ownership map (shared with the I/O threads).
    pub(crate) router: Arc<Router>,
    /// Command senders to every shard, self included.
    pub(crate) peers: Vec<Sender<Command>>,
    /// Published views of every shard, self included: this shard
    /// publishes into its own and reads its peers' for cross-shard
    /// rebalance estimates.
    pub(crate) views: Vec<Arc<SharedView>>,
    /// The fixed region map and the teardown flags.
    pub(crate) coord: Arc<Coordinator>,
    /// Per-shard depth/write gauges read by `stats`.
    pub(crate) gauges: Arc<ShardGauges>,
    /// Per-provider query counters noted by the I/O side; folded into
    /// demand EWMAs at quantum start.
    pub(crate) demand: Arc<DemandTracker>,
    /// Snapshot file; `None` disables `snapshot`/`restore` and the
    /// shutdown's snapshot, and no shard builds a cut.
    pub(crate) snapshot_path: Option<PathBuf>,
}

impl ShardCtx {
    /// `true` if cloudlet `c` belongs to this shard's region.
    fn owns_cloudlet(&self, c: usize) -> bool {
        self.coord.regions().get(c) == Some(&self.index)
    }

    /// `true` if this shard currently owns provider `p`.
    fn owns(&self, p: usize) -> bool {
        self.shards == 1 || self.router.owner(p) == self.index
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
}

/// A set of indices below a fixed bound: a membership mask plus the
/// members in insertion order, so clearing and iterating cost the
/// members, not the bound.
struct Marks {
    mask: Vec<bool>,
    list: Vec<usize>,
}

impl Marks {
    fn new(bound: usize) -> Marks {
        Marks {
            mask: vec![false; bound],
            list: Vec::new(),
        }
    }

    fn insert(&mut self, k: usize) {
        if let Some(slot) = self.mask.get_mut(k) {
            if !*slot {
                *slot = true;
                self.list.push(k);
            }
        }
    }

    fn is_empty(&self) -> bool {
        self.list.is_empty()
    }

    fn clear(&mut self) {
        for &k in &self.list {
            self.mask[k] = false;
        }
        self.list.clear();
    }
}

/// What changed since the last maintenance pass that found no improving
/// move: the writer's record of which providers could have one now.
///
/// The follower game is an affine congestion game (Lemma 3): a provider's
/// cost depends only on the congestion at its own cloudlet, and its
/// options only on the congestion and free space at the others. So a
/// provider that had no improving move can gain one only if its own
/// cloudlet's congestion rose, if some cloudlet's congestion or load fell
/// (a leave, a move away, a demand shrink, a released reservation), or if
/// its own demand or admission changed. Every other change only raises
/// prices or shrinks free space, and a granted reservation only shrinks
/// free space, so neither marks anything.
struct Dirt {
    /// Everything is suspect: boot and restore.
    all: bool,
    /// Cloudlets whose congestion rose: their occupants may want to
    /// leave.
    rose: Marks,
    /// Cloudlets whose congestion or load fell, or whose reservations
    /// were released: anyone may want to move in.
    fell: Marks,
    /// Providers whose own demand or admission changed.
    providers: Marks,
}

impl Dirt {
    /// Nothing dirty, over `m` cloudlets and `n` providers.
    fn clean(m: usize, n: usize) -> Dirt {
        Dirt {
            all: false,
            rose: Marks::new(m),
            fell: Marks::new(m),
            providers: Marks::new(n),
        }
    }

    fn is_clean(&self) -> bool {
        !self.all && self.rose.is_empty() && self.fell.is_empty() && self.providers.is_empty()
    }
}

/// The view entries one publish interval changed. A provider's entries
/// are its placement, cost, admission flag, demand and EWMA; its cost
/// also moves with the congestion at its cloudlet (Eq. 3), so a cloudlet
/// whose congestion changed stands for all its occupants.
struct Touched {
    /// Every entry: boot, restore, an EWMA renormalisation.
    all: bool,
    /// Providers whose placement, admission, demand or EWMA changed.
    providers: Marks,
    /// Cloudlets whose congestion changed.
    cloudlets: Marks,
}

impl Touched {
    /// Nothing touched, over `m` cloudlets and `n` providers.
    fn clean(m: usize, n: usize) -> Touched {
        Touched {
            all: false,
            providers: Marks::new(n),
            cloudlets: Marks::new(m),
        }
    }

    fn clear(&mut self) {
        self.all = false;
        self.providers.clear();
        self.cloudlets.clear();
    }
}

/// The active providers grouped by placement — one bucket per cloudlet,
/// the last for the remote cloud — so a maintenance pass visits the
/// providers its dirt names instead of scanning every id.
struct Members {
    buckets: Vec<Vec<usize>>,
    /// Inactive providers a boot or restore snapshot left cached. They
    /// count in their cloudlet's congestion, so their published cost
    /// moves with it, yet no bucket holds them; no write can park a
    /// provider, so the list only shrinks ([`Shard::publish`] prunes it).
    parked: Vec<usize>,
}

impl Members {
    fn new(state: &GameState<'_>, active: &[bool]) -> Members {
        let mut members = Members {
            buckets: vec![Vec::new(); state.market().cloudlet_count() + 1],
            parked: Vec::new(),
        };
        for (p, &on) in active.iter().enumerate() {
            let at = state.placement(ProviderId(p));
            if on {
                members.insert(p, at);
            } else if at != Placement::Remote {
                members.parked.push(p);
            }
        }
        members
    }

    fn bucket(&mut self, at: Placement) -> &mut Vec<usize> {
        let k = match at {
            Placement::Cloudlet(c) => c.index(),
            Placement::Remote => self.buckets.len() - 1,
        };
        &mut self.buckets[k]
    }

    fn insert(&mut self, p: usize, at: Placement) {
        self.bucket(at).push(p);
    }

    fn remove(&mut self, p: usize, at: Placement) {
        let bucket = self.bucket(at);
        if let Some(k) = bucket.iter().position(|&q| q == p) {
            bucket.swap_remove(k);
        }
    }

    /// The active providers cached at cloudlet `c`.
    fn at(&self, c: usize) -> &[usize] {
        &self.buckets[c]
    }

    fn all(&self) -> impl Iterator<Item = usize> + '_ {
        self.buckets.iter().flatten().copied()
    }
}

/// The writer's mutable book-keeping beside its game state.
struct Book {
    active: Vec<bool>,
    seq: u64,
    epochs: u64,
    moves: u64,
    /// What changed since the last pass that found no improving move;
    /// clean means the active owned providers are at equilibrium.
    dirt: Dirt,
    /// The active providers by placement.
    members: Members,
    /// Round-robin scan position for maintenance quanta (the fallback
    /// order when no demand has been observed): one past the provider
    /// that made the last improving move.
    cursor: usize,
    /// Per-provider request-rate EWMAs, folded from the shared
    /// [`DemandTracker`] at every quantum start. Drives the hot-first
    /// maintenance scan and is published in the view.
    demand: DemandEwma,
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
    /// `true` from a shutdown's prepare on: new work is refused and no
    /// maintenance runs until the apply.
    draining: bool,
    /// Prepares awaiting their ack, oldest first: until the batch that
    /// brought them has settled, the outgoing handoff has resolved and
    /// the outbound has emptied.
    parked_preps: VecDeque<Arc<CoordOp>>,
    /// Set by the shutdown's apply: the writer returns it.
    outcome: Option<MarketOutcome>,
    /// Idle housekeeping ticks (throttles rebalance scans).
    ticks: u64,
    /// The view the last publish replaced: two publishes old, it is the
    /// next publish's base.
    replaced: Option<Arc<MarketView>>,
    /// The view entries changed since the last publish (`[0]`) and in
    /// the interval before it (`[1]`): together, what `replaced` lacks.
    touched: [Touched; 2],
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
        let (m, n) = (state.market().cloudlet_count(), active.len());
        let dirt = Dirt {
            all: true,
            ..Dirt::clean(m, n)
        };
        let touched = Touched {
            all: true,
            ..Touched::clean(m, n)
        };
        let members = Members::new(&state, &active);
        Shard {
            state,
            book: Book {
                active,
                seq,
                epochs: 0,
                moves: 0,
                dirt,
                members,
                cursor: 0,
                demand: DemandEwma::new(n),
                acks: Vec::new(),
                applied: Vec::new(),
                outbound: VecDeque::new(),
                reserved: Vec::new(),
                outgoing: None,
                tombstones: Vec::new(),
                paused: false,
                draining: false,
                parked_preps: VecDeque::new(),
                outcome: None,
                ticks: 0,
                replaced: None,
                touched: [touched, Touched::clean(m, n)],
            },
            ctx,
        }
    }

    /// Runs the writer thread to completion. Each claim of the queue
    /// brings a batch — possibly empty, when an I/O thread's inline turn
    /// left work behind — which runs as one [`Shard::turn`]; a claim that
    /// comes after a whole idle tick retries the outbound and runs a
    /// rebalance scan instead. Either way the writer then acks the parked
    /// prepares nothing holds back any more ([`Shard::resolve_parked`]).
    /// Returns at the shutdown's apply, or at an idle tick once the set
    /// is abandoned; the claim is then held until the thread exits, so
    /// no I/O thread applies a command to a finished shard, and whatever
    /// is still queued is refused.
    pub(crate) fn run(slot: &Mutex<Shard>, rx: &Receiver<Command>) -> MarketOutcome {
        let mut batch: Vec<Command> = Vec::new();
        loop {
            let claimed = rx.claim_batch(&mut batch, BATCH_MAX, IDLE_TICK);
            // A claimant that panics never gives the claim back, so no
            // one ever locks a poisoned shard.
            let mut shard = lock_ok(slot);
            match claimed {
                Claimed::Batch { taken, depth } => {
                    if taken > 0 {
                        mec_obs::counter_add("serve.turn.writer", 1);
                    }
                    shard.turn(&mut batch, depth, EPOCH_MOVES);
                }
                Claimed::Idle if shard.ctx.coord.abandoned() => {
                    shard.book.outcome = Some(shard.finish());
                }
                Claimed::Idle => {
                    shard.drain_outbound();
                    shard.maybe_rebalance();
                }
            }
            if let Some(outcome) = shard.book.outcome.take() {
                rx.try_drain().into_iter().for_each(refuse);
                return outcome;
            }
            shard.resolve_parked();
            let wanted = shard.wants_writer();
            drop(shard);
            rx.release(wanted);
        }
    }

    /// An I/O thread's inline turn, under the claim its push took on
    /// `tx`'s queue: one batch of the client writes at the head of the
    /// queue, stopping before any other command, run as one
    /// [`Shard::turn`]. Returns whether work only the writer thread does
    /// is left ([`Shard::wants_writer`]); the caller passes that on when
    /// it releases the claim, which also hands the writer whatever is
    /// still queued.
    pub(crate) fn turn_inline(&mut self, tx: &Sender<Command>, batch: &mut Vec<Command>) -> bool {
        let (taken, depth) = tx.take_claimed(batch, BATCH_MAX, Command::is_client_write);
        if taken > 0 {
            mec_obs::counter_add("serve.turn.inline", 1);
            self.turn(batch, depth, EPOCH_MOVES);
        }
        self.wants_writer()
    }

    /// One turn, the same on either thread: retry the peer sends a full
    /// queue held back; apply `batch` (taken from a queue `depth` deep);
    /// if it emptied the queue and left dirt, run a quantum of at most
    /// `moves` moves (none at 0, nor while draining); publish once; then
    /// ack. Prepares are acked after the turn, by the writer thread only
    /// ([`Shard::wants_writer`] asks for it when the retry unblocked
    /// one): a restore's last ack loads the snapshot file.
    pub(crate) fn turn(&mut self, batch: &mut Vec<Command>, depth: usize, moves: usize) {
        self.drain_outbound();
        let taken = batch.len();
        if taken > 0 {
            mec_obs::record("serve.drain.batch", taken as u64);
            mec_obs::record("serve.drain.depth", depth as u64);
            mec_obs::gauge("serve.queue.depth", self.book.seq, depth as f64);
            self.ctx.gauges.set_depth(self.ctx.index, depth);
        }
        for cmd in batch.drain(..) {
            self.step(cmd);
        }
        // A batch that emptied the queue folds its maintenance quantum
        // into its one publish; behind a deeper queue, maintenance
        // waits until the queue empties.
        if moves > 0 && !self.book.draining && taken == depth && !self.book.dirt.is_clean() {
            self.run_quantum(moves);
        }
        self.settle_batch();
    }

    /// `true` while work only the writer thread does is left: a parked
    /// prepare that nothing holds back any more, or maintenance the last
    /// quantum did not finish — never while draining, which runs none.
    /// Peer sends a full queue held back are not: every turn and every
    /// idle tick retries them, so a saturated peer does not spin the
    /// writer.
    fn wants_writer(&self) -> bool {
        let book = &self.book;
        let unblocked = book.outgoing.is_none() && book.outbound.is_empty();
        (unblocked && !book.parked_preps.is_empty()) || (!book.draining && !book.dirt.is_clean())
    }

    /// Ends a batch: one publish covering it, then its acks, then the
    /// coordinated applies it settled. A failed write of the shutdown's
    /// cut goes into this shard's outcome.
    fn settle_batch(&mut self) {
        self.publish();
        for (reply, resp) in self.book.acks.drain(..) {
            reply.send(resp);
        }
        for op in std::mem::take(&mut self.book.applied) {
            let done = complete_apply(&op, self.ctx.snapshot_path.as_deref());
            if let (Err(msg), Some(outcome)) = (done, self.book.outcome.as_mut()) {
                outcome.violations.push(msg);
            }
        }
    }

    /// Applies one command. Client replies wait in the book until the
    /// batch's view is published. A draining shard refuses new work.
    fn step(&mut self, cmd: Command) {
        let refused = self.book.draining
            && (cmd.is_client_write()
                || matches!(cmd, Command::Prepare { .. } | Command::JoinForward { .. }));
        if refused {
            refuse(cmd);
            return;
        }
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
                // thread; never granted between a coordinated prepare and
                // its apply (a commit admitted then could land behind the
                // apply and be missing from the cut).
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
                self.book.draining |= op.kind == CoordKind::Shutdown;
                self.book.parked_preps.push_back(op);
            }
            Command::Apply { op } => {
                self.book.paused = self.book.draining;
                match op.kind {
                    CoordKind::Shutdown => {
                        debug_assert!(self.book.outbound.is_empty(), "a send outlives the shard");
                        let outcome = self.finish();
                        if self.ctx.snapshot_path.is_some() {
                            self.add_to_cut(&op.cut);
                        }
                        self.book.outcome = Some(outcome);
                    }
                    // A failed op changes no shard: the file did not load,
                    // or a shard refused the prepare because it was
                    // draining. An op every shard acked before the
                    // shutdown applies everywhere, a draining shard too:
                    // its apply is queued ahead of the shutdown's.
                    _ if op.failed() => {}
                    CoordKind::Snapshot => self.add_to_cut(&op.cut),
                    CoordKind::Restore => {
                        if let Some(snap) = lock_ok(&op.cut).as_ref() {
                            self.restore(snap);
                        }
                    }
                }
                self.book.applied.push(op);
            }
        }
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

    /// Rewinds the shard to its part of a whole-market snapshot, by the
    /// ownership rule boot uses ([`Coordinator::part_of`]). In the router
    /// it takes the providers the snapshot assigns to it and hands each
    /// other provider it owns to its snapshot owner, so a shard still to
    /// apply never sees a command for a provider restored elsewhere. Its
    /// state, admission mask and seq are replaced in place; the demand
    /// EWMAs carry over.
    fn restore(&mut self, snap: &MarketSnapshot) {
        let (k, coord, router) = (self.ctx.index, &self.ctx.coord, &self.ctx.router);
        for p in 0..snap.active.len() {
            let owner = coord.owner_in(snap, p);
            if owner == k || router.owner(p) == k {
                router.set_owner(p, owner);
            }
        }
        let (profile, active, seq) = coord.part_of(snap, k);
        self.release(None);
        self.state = GameState::owned(snap.market.clone(), profile);
        self.book.active = active;
        self.book.members = Members::new(&self.state, &self.book.active);
        self.book.seq = seq;
        self.book.dirt.all = true;
        self.book.touched[0].all = true;
        self.book.cursor = 0;
        self.book.tombstones.clear();
    }

    /// Moves `l` to `to`. Every placement change takes this path, which
    /// records the congestion it moved as dirt and as touched view
    /// entries.
    fn relocate(&mut self, l: ProviderId, to: Placement) {
        let from = self.state.apply_move(l, to);
        if from != to {
            let book = &mut self.book;
            if book.active[l.index()] {
                book.members.remove(l.index(), from);
                book.members.insert(l.index(), to);
            }
            book.touched[0].providers.insert(l.index());
            if let Placement::Cloudlet(a) = from {
                book.dirt.fell.insert(a.index());
                book.touched[0].cloudlets.insert(a.index());
            }
            if let Placement::Cloudlet(b) = to {
                book.dirt.rose.insert(b.index());
                book.touched[0].cloudlets.insert(b.index());
            }
        }
    }

    /// Sets `provider`'s admission flag, marking the provider dirty.
    fn set_active(&mut self, provider: usize, on: bool) {
        if self.book.active[provider] != on {
            let at = self.state.placement(ProviderId(provider));
            if on {
                self.book.members.insert(provider, at);
            } else {
                self.book.members.remove(provider, at);
            }
        }
        self.book.active[provider] = on;
        self.book.dirt.providers.insert(provider);
        self.book.touched[0].providers.insert(provider);
    }

    /// Replaces `l`'s demand vector in place, marking the provider dirty.
    /// Eq. 3 prices congestion, not load, so a demand change moves no
    /// other provider's cost; only a shrink, which frees room at the
    /// provider's cloudlet, also marks that cloudlet.
    fn set_demand(&mut self, l: ProviderId, compute: f64, bandwidth: f64) {
        let spec = self.state.market().provider(l);
        let shrank = compute < spec.compute_demand || bandwidth < spec.bandwidth_demand;
        self.state.set_provider_demand(l, compute, bandwidth);
        self.book.dirt.providers.insert(l.index());
        self.book.touched[0].providers.insert(l.index());
        if let (true, Placement::Cloudlet(c)) = (shrank, self.state.placement(l)) {
            self.book.dirt.fell.insert(c.index());
        }
    }

    /// Drops the reservations held for `provider` (every reservation with
    /// `None`), marking the cloudlets they free.
    fn release(&mut self, provider: Option<usize>) {
        let Book { reserved, dirt, .. } = &mut self.book;
        reserved.retain(|r| {
            let keep = provider.is_some_and(|p| r.provider != p);
            if !keep {
                dirt.fell.insert(r.cloudlet);
            }
            keep
        });
    }

    /// Adopts the authoritative demands a cross-shard handoff carries,
    /// when they differ (bit-exact) from this shard's market copy.
    fn sync_demand(&mut self, provider: usize, compute: f64, bandwidth: f64) {
        let l = ProviderId(provider);
        let spec = self.state.market().provider(l);
        if spec.compute_demand.to_bits() != compute.to_bits()
            || spec.bandwidth_demand.to_bits() != bandwidth.to_bits()
        {
            self.set_demand(l, compute, bandwidth);
            self.book.seq += 1;
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
    /// FIFO, so per-target ordering is preserved) and is retried at every
    /// turn and idle tick ([`Shard::drain_outbound`]).
    fn send_peer(&mut self, target: usize, cmd: Command) {
        self.book.outbound.push_back((target, cmd));
        self.drain_outbound();
    }

    /// Retries the peer sends a full queue held back, oldest first.
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
        let l = ProviderId(provider);
        // A provider a snapshot left parked here gives its slot back
        // before another shard owns it.
        self.relocate(l, Placement::Remote);
        let spec = self.state.market().provider(l);
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
        let usable = self.book.active.get(provider).copied().unwrap_or(false)
            && self.ctx.router.owner(provider) == self.ctx.index;
        if granted && usable {
            let l = ProviderId(provider);
            let spec = self.state.market().provider(l);
            let (compute, bandwidth) = (spec.compute_demand, spec.bandwidth_demand);
            self.relocate(l, Placement::Remote);
            self.set_active(provider, false);
            self.book.seq += 1;
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
    }

    /// Lands a migration commit on the receiving shard: drop its
    /// reservation, then either honour a leave that overtook the handoff
    /// or sync the provider's demands and place it.
    fn commit(&mut self, provider: usize, cloudlet: usize, compute: f64, bandwidth: f64) {
        self.release(Some(provider));
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
        self.release(Some(provider));
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
        self.relocate(l, placement);
        self.set_active(provider, true);
        self.book.seq += 1;
    }

    /// Acks a prepare; the last shard to ack loads the file a restore
    /// needs, once for every shard, or answers a shutdown's clients, then
    /// fans the apply out to everyone through its outbound, its own
    /// last: per-target FIFO holds, and a shard that finishes at a
    /// shutdown's apply leaves no send behind.
    fn complete_prepare(&mut self, op: &Arc<CoordOp>) {
        if !op.ack_prepare() {
            return;
        }
        match (self.ctx.snapshot_path.as_deref(), op.kind) {
            (_, CoordKind::Shutdown) => {
                if let Some(reply) = op.take_reply() {
                    reply.send(Response::Draining);
                }
                self.ctx.coord.shutdown_prepared();
            }
            (None, _) => op.push_error(NO_SNAPSHOT.to_string()),
            (Some(path), CoordKind::Restore) => match self.load_restorable(path) {
                Ok(snap) => *lock_ok(&op.cut) = Some(snap),
                Err(msg) => op.push_error(format!("restore failed: {msg}")),
            },
            (Some(_), CoordKind::Snapshot) => {}
        }
        let me = self.ctx.index;
        for k in (0..self.ctx.shards).filter(|&k| k != me).chain([me]) {
            self.send_peer(k, Command::Apply { op: op.clone() });
        }
    }

    /// Loads the snapshot at `path` for a live restore: it must cover
    /// this daemon's cloudlets and providers, whose router, region map
    /// and demand counters are sized at boot.
    fn load_restorable(&self, path: &Path) -> Result<MarketSnapshot, String> {
        let snap = load_snapshot(path).map_err(|e| e.to_string())?;
        let (m, n) = (self.ctx.coord.regions().len(), self.state.len());
        let market = &snap.market;
        if (market.cloudlet_count(), market.provider_count()) != (m, n) {
            return Err(format!(
                "snapshot covers {} cloudlets and {} providers, daemon runs {m} and {n}",
                market.cloudlet_count(),
                market.provider_count()
            ));
        }
        Ok(snap)
    }

    /// Acks the parked prepares, oldest first, while no handoff is in
    /// flight and no send waits in the outbound: every message this
    /// shard sent before an ack — a commit included — is then on its
    /// target's queue, ahead of the apply the last shard to ack enqueues.
    /// Only the writer thread calls it, after a turn has settled its
    /// batch, so the replies to the writes queued ahead of a shutdown
    /// are sent before its `draining`, which stops the I/O threads.
    fn resolve_parked(&mut self) {
        while self.book.outgoing.is_none() && self.book.outbound.is_empty() {
            let Some(op) = self.book.parked_preps.pop_front() else {
                return;
            };
            self.complete_prepare(&op);
        }
    }

    /// Adds this shard's part to a whole-market cut: its seq, and each
    /// owned provider's placement, admission flag and demand (each shard's
    /// market copy tracks updates only for its own providers). The first
    /// shard to add starts the cut from its market copy, every provider
    /// remote and inactive; at one shard the cut is the shard's state.
    fn add_to_cut(&self, cut: &Mutex<Option<MarketSnapshot>>) {
        let market = self.state.market();
        let n = self.state.len();
        let mut cut = lock_ok(cut);
        let cut = cut.get_or_insert_with(|| MarketSnapshot {
            seq: 0,
            market: market.clone(),
            profile: Profile::all_remote(n),
            active: vec![false; n],
        });
        cut.seq += self.book.seq;
        for p in (0..n).filter(|&p| self.ctx.owns(p)) {
            let l = ProviderId(p);
            let spec = market.provider(l);
            cut.market
                .set_provider_demand(l, spec.compute_demand, spec.bandwidth_demand);
            cut.profile.set(l, self.state.placement(l));
            cut.active[p] = self.book.active[p];
        }
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
        let regions = ctx.coord.regions();
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
                let r = regions[c];
                if r == ctx.index {
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
        let target = self.ctx.coord.regions()[cloudlet];
        self.book.outgoing = Some(Outgoing {
            provider,
            target,
            cloudlet,
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
        let market = self.state.market();
        if let Some(c) = cloudlet {
            if c >= market.cloudlet_count() {
                return Some((reply, error(&format!("unknown cloudlet {c}"))));
            }
            if !self.ctx.owns_cloudlet(c) {
                // The region's owner is one direct hop away.
                let target = self.ctx.coord.regions()[c];
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
                self.relocate(l, Placement::Cloudlet(i));
                self.set_active(provider, true);
                self.book.seq += 1;
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
                let shards = self.ctx.shards;
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
                self.release(Some(provider));
                if !self.book.tombstones.contains(&provider) {
                    self.book.tombstones.push(provider);
                }
                mec_obs::counter_add("serve.leave", 1);
                return Response::Left;
            }
            return error(&format!("provider {provider} is not joined"));
        }
        self.relocate(ProviderId(provider), Placement::Remote);
        self.set_active(provider, false);
        self.book.seq += 1;
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
        self.set_demand(l, compute, bandwidth);
        self.book.seq += 1;
        let mut evicted = false;
        if let Placement::Cloudlet(i) = self.state.placement(l) {
            let (a, b) = self.state.residual(i);
            if a < -1e-9 || b < -1e-9 {
                self.relocate(l, Placement::Remote);
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

    /// Folds the query counts the I/O side noted since the last quantum
    /// into this shard's per-provider demand EWMAs: every EWMA decays in
    /// `O(1)`, then each noted owned provider adds its count. Counts for
    /// providers owned by other shards are left in the tracker for their
    /// owner's next fold.
    fn fold_demand(&mut self) {
        let Shard { ctx, book, .. } = self;
        if ctx.demand.is_empty() {
            return;
        }
        if book.demand.decay() {
            book.touched[0].all = true;
        }
        let (ewma, touched) = (&mut book.demand, &mut book.touched[0]);
        ctx.demand.drain(
            |p| ctx.owns(p),
            |p, count| {
                ewma.add(p, count);
                touched.providers.insert(p);
            },
        );
    }

    /// The active owned providers that `dirt` says could have an improving
    /// move, in ascending id order (see [`Dirt`]): everyone after boot or
    /// restore; the dirty providers; the occupants of a cloudlet whose
    /// congestion rose; and anyone who fits a cloudlet that freed room at
    /// a cost no higher than its own plus [`IMPROVEMENT_TOL`] —
    /// deliberately loose, so near-ties still get a full best response.
    fn candidates(&self, dirt: &Dirt) -> Vec<usize> {
        let members = &self.book.members;
        let mut out: Vec<usize> = if dirt.all {
            members.all().collect()
        } else {
            let mut out: Vec<usize> = dirt
                .providers
                .list
                .iter()
                .copied()
                .filter(|&p| self.book.active[p])
                .collect();
            for &c in &dirt.rose.list {
                out.extend_from_slice(members.at(c));
            }
            // Each fallen cloudlet of this region, with its free space and
            // the congestion a newcomer would see.
            let open: Vec<(CloudletId, (f64, f64), usize)> = dirt
                .fell
                .list
                .iter()
                .filter(|&&c| self.ctx.owns_cloudlet(c))
                .map(|&c| {
                    let i = CloudletId(c);
                    (i, self.free_at(i), self.state.congestion(i) + 1)
                })
                .collect();
            if !open.is_empty() {
                let market = self.state.market();
                out.extend(members.all().filter(|&p| {
                    let l = ProviderId(p);
                    let at = self.state.placement(l);
                    let current = self.state.provider_cost(l);
                    open.iter().any(|&(i, free, congestion)| {
                        at != Placement::Cloudlet(i)
                            && market.fits(l, free)
                            && market.caching_cost(l, i, congestion) <= current + IMPROVEMENT_TOL
                    })
                }));
            }
            out
        };
        out.sort_unstable();
        out.dedup();
        out.retain(|&p| self.ctx.owns(p));
        out
    }

    /// One bounded maintenance quantum: passes of best responses over the
    /// dirt's candidates, **hottest first** (by the demand EWMAs just
    /// folded from the I/O side; round-robin from the saved cursor when
    /// no candidate has been observed), until a pass applies no move —
    /// the dirt is then clean and the active players are at equilibrium
    /// — or `max_moves` moves land. Each pass takes the dirt its
    /// predecessor's moves left. Demand biases only the order — every
    /// move is still an exact best response, so the fixed points stay
    /// Nash equilibria; under a bounded quantum the hot services simply
    /// get first claim on scarce capacity. Bounding the moves is what
    /// makes maintenance preemptible — the serving loop re-checks the
    /// queue after every quantum, so a request burst waits for one
    /// quantum at most.
    fn run_quantum(&mut self, max_moves: usize) {
        let (m, n) = (self.state.market().cloudlet_count(), self.state.len());
        self.book.epochs += 1;
        mec_obs::counter_add("serve.epoch", 1);
        self.fold_demand();
        let mut applied = 0usize;
        let mut recached = 0u64;
        while applied < max_moves && !self.book.dirt.is_clean() {
            let pass = std::mem::replace(&mut self.book.dirt, Dirt::clean(m, n));
            let mut order = self.candidates(&pass);
            demand_order(&mut order, self.book.demand.raw(), self.book.cursor);
            for (k, &p) in order.iter().enumerate() {
                if applied == max_moves {
                    // Preempted: the candidates not yet checked stay dirty.
                    for &q in &order[k..] {
                        self.book.dirt.providers.insert(q);
                    }
                    break;
                }
                let l = ProviderId(p);
                let current = self.state.provider_cost(l);
                let region =
                    |i: CloudletId| self.ctx.owns_cloudlet(i.index()).then(|| self.free_at(i));
                match self.state.best_response_in(l, region) {
                    Some((to, cost))
                        if to != self.state.placement(l) && cost < current - IMPROVEMENT_TOL =>
                    {
                        self.relocate(l, to);
                        if matches!(to, Placement::Cloudlet(_)) {
                            recached += 1;
                        }
                        applied += 1;
                        self.book.cursor = (p + 1) % n;
                    }
                    _ => {}
                }
            }
        }
        mec_obs::record("serve.quantum.moves", applied as u64);
        if applied > 0 {
            self.book.moves += applied as u64;
            self.book.seq += 1;
            mec_obs::counter_add("serve.epoch.moves", applied as u64);
        }
        if recached > 0 {
            mec_obs::counter_add("serve.recache", recached);
        }
    }

    /// This shard's view, written over `v`. With `all`, every entry is
    /// rewritten, so any `v` will do; otherwise `v` must be the view
    /// published two publishes ago, and only the entries the two
    /// intervals since then touched ([`Book::touched`]) are rewritten,
    /// plus the parked providers. The social cost is re-summed over the
    /// whole cost vector in provider order, so it stays bit-identical to
    /// [`GameState::subset_cost`] over the active providers.
    fn view(&self, mut v: MarketView, all: bool) -> MarketView {
        let (state, book) = (&self.state, &self.book);
        let market = state.market();
        let n = state.len();
        if all {
            v.placements.resize(n, Placement::Remote);
            v.costs.resize(n, 0.0);
            v.active.resize(n, false);
            v.demands.resize(n, (0.0, 0.0));
            v.demand_raw.resize(n, 0.0);
        }
        let mut write = |p: usize| {
            let l = ProviderId(p);
            let spec = market.provider(l);
            let at = state.placement(l);
            v.placements[p] = at;
            // `GameState::provider_cost`, inlined to share the spec read.
            v.costs[p] = match at {
                Placement::Remote => spec.remote_cost,
                Placement::Cloudlet(c) => market.caching_cost(l, c, state.congestion(c)),
            };
            v.active[p] = book.active[p];
            v.demands[p] = (spec.compute_demand, spec.bandwidth_demand);
            v.demand_raw[p] = book.demand.raw()[p];
        };
        if all {
            (0..n).for_each(&mut write);
        } else {
            for touched in &book.touched {
                touched.providers.list.iter().copied().for_each(&mut write);
                for &c in &touched.cloudlets.list {
                    book.members.at(c).iter().copied().for_each(&mut write);
                }
            }
            book.members.parked.iter().copied().for_each(&mut write);
        }
        v.social_cost = v
            .costs
            .iter()
            .zip(&v.active)
            .filter(|(_, &on)| on)
            .map(|(&c, _)| c)
            .sum();
        v.demand_scale = book.demand.scale();
        v.congestion.clear();
        v.congestion.extend_from_slice(state.congestion_counts());
        // Peers read the residuals to estimate migrations: show them the
        // free space net of already-granted reservations so they never
        // over-target.
        v.residual.clear();
        v.residual
            .extend(market.cloudlets().map(|i| self.free_at(i)));
        v.seq = book.seq;
        v.epochs = book.epochs;
        v.moves = book.moves;
        v.equilibrium = book.dirt.is_clean();
        v
    }

    /// Publishes this shard's view, recording the view-build latency when
    /// the probes are armed (`enabled()` is `const`, so the timer folds
    /// away in no-op builds), as one `serve.publish.ns` histogram with a
    /// `shard` label at every shard count.
    ///
    /// The view the last publish replaced is two publishes old; once no
    /// reader holds it any more, it is patched with what the two
    /// intervals since touched. After a boot, a restore or an EWMA
    /// renormalisation — or while a reader still holds that view — every
    /// entry is rewritten instead, into fresh buffers in the last case.
    pub(crate) fn publish(&mut self) {
        let t0 = mec_obs::enabled().then(Instant::now);
        let (state, book) = (&self.state, &mut self.book);
        book.members
            .parked
            .retain(|&p| !book.active[p] && state.placement(ProviderId(p)) != Placement::Remote);
        let base = book
            .replaced
            .take()
            .and_then(|old| Arc::try_unwrap(old).ok());
        let all = base.is_none() || book.touched.iter().any(|t| t.all);
        let view = self.view(base.unwrap_or_else(|| MarketView::empty(0)), all);
        let book = &mut self.book;
        book.replaced = Some(self.ctx.views[self.ctx.index].store(view));
        book.touched.swap(0, 1);
        book.touched[0].clear();
        if let Some(t0) = t0 {
            let ns = t0.elapsed().as_nanos() as u64;
            mec_obs::record_labelled("serve.publish.ns", ("shard", self.ctx.index), ns);
        }
    }

    /// Finishes the shard: drops the reservations left (each handoff has
    /// resolved at a shutdown's apply; an abandoned set's may have died
    /// with its source), runs maintenance quanta until the active players
    /// reach equilibrium, and (with the `verify` feature) re-certifies
    /// the placement from first principles.
    fn finish(&mut self) -> MarketOutcome {
        self.release(None);
        // Equilibrium is guaranteed to be reached: best-response dynamics
        // on the exact-potential game terminate (Lemma 3). The cap is a
        // backstop against a cost-model bug turning the drain into a hot
        // loop.
        let mut guard = 0usize;
        while !self.book.dirt.is_clean() && guard < 100_000 {
            self.run_quantum(usize::MAX);
            guard += 1;
        }
        MarketOutcome {
            seq: self.book.seq,
            profile: self.state.profile().clone(),
            active: self.book.active.clone(),
            epochs: self.book.epochs,
            moves: self.book.moves,
            equilibrium: self.book.dirt.is_clean(),
            violations: self.certify(),
        }
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
        out.extend(self.certify_region_nash());
        out
    }

    /// Nash certification of this shard's region: every active owned
    /// provider, against deviations to the remote cloud and to the
    /// region's cloudlets. The shard's market copy sees foreign cloudlets
    /// as empty (their load lives on other shards), so a whole-market
    /// check would report phantom improving moves into them. An owned
    /// provider placed outside the region is a violation of its own.
    #[cfg(any(test, feature = "verify"))]
    fn certify_region_nash(&self) -> Vec<String> {
        let ctx = &self.ctx;
        let market = self.state.market();
        let region: Vec<bool> = (0..market.cloudlet_count())
            .map(|c| ctx.owns_cloudlet(c))
            .collect();
        let movable: Vec<bool> = (0..self.state.len())
            .map(|p| self.book.active[p] && ctx.owns(p))
            .collect();
        let mut violations: Vec<String> = market
            .providers()
            .filter(|&l| match self.state.placement(l) {
                Placement::Cloudlet(i) => ctx.owns(l.index()) && !region[i.index()],
                Placement::Remote => false,
            })
            .map(|l| {
                format!(
                    "shard {}: owned provider {l} placed outside its region",
                    ctx.index
                )
            })
            .collect();
        violations.extend(
            mec_core::check_nash_in(
                market,
                self.state.profile(),
                &movable,
                &region,
                IMPROVEMENT_TOL,
            )
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

/// Writes a whole-market cut to `path` (tmp + fsync + rename).
fn save_cut(path: &Path, cut: &MarketSnapshot) -> Result<(), mec_core::SnapshotError> {
    save_snapshot(path, cut.seq, &cut.market, &cut.profile, &cut.active)
}

/// Acks an apply; the last shard completes the op: it writes a
/// snapshot's or a shutdown's cut, and answers the client. A shutdown
/// answered its client at prepare, so its failed write comes back
/// instead, for the shard's outcome.
fn complete_apply(op: &CoordOp, snapshot_path: Option<&Path>) -> Result<(), String> {
    if !op.ack_apply() {
        return Ok(());
    }
    let errors = op.take_errors();
    let cut = lock_ok(&op.cut).take();
    let done = match (op.kind, cut, snapshot_path) {
        _ if !errors.is_empty() => Err(errors.join("; ")),
        (CoordKind::Restore, Some(snap), _) => Ok(Response::Restored { seq: snap.seq }),
        (_, Some(cut), Some(path)) => save_cut(path, &cut)
            .map(|()| Response::Snapshotted { seq: cut.seq })
            .map_err(|e| format!("snapshot failed: {e}")),
        (CoordKind::Shutdown, _, None) => Ok(Response::Draining),
        _ => Err(NO_SNAPSHOT.to_string()),
    };
    match op.take_reply() {
        Some(reply) => {
            reply.send(done.unwrap_or_else(|msg| error(&msg)));
            Ok(())
        }
        None => done.map(drop),
    }
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

/// Answers a command with the draining error (used for the work a
/// draining shard refuses, and by I/O threads whose queue closed under
/// them).
pub(crate) fn refuse(cmd: Command) {
    let draining = || error(DRAINING);
    match cmd {
        Command::Join { reply, .. }
        | Command::Leave { reply, .. }
        | Command::Update { reply, .. }
        | Command::JoinForward { reply, .. } => reply.send(draining()),
        // Cross-shard bookkeeping has no client waiting on it.
        Command::MigrateReserve { .. }
        | Command::MigrateGrant { .. }
        | Command::MigrateCommit { .. }
        | Command::MigrateAbort { .. } => {}
        // Coordinated ops: fail this shard's share of the barrier so the
        // last arriver answers the client with the drain error.
        Command::Prepare { op } => {
            op.push_error(DRAINING.to_string());
            if op.ack_prepare() {
                if let Some(reply) = op.take_reply() {
                    reply.send(draining());
                }
            }
        }
        Command::Apply { op } => {
            op.push_error(DRAINING.to_string());
            if op.ack_apply() {
                if let Some(reply) = op.take_reply() {
                    reply.send(draining());
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::chan;
    use crate::demand::DEMAND_EWMA_ALPHA;
    use crate::shard::{fresh, ShardSet};
    use mec_core::model::{CloudletSpec, Market, ProviderSpec};
    use std::sync::atomic::{AtomicUsize, Ordering};

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
    /// commands plus the shutdown.
    fn one_shard(market: Market, queue: usize, demand: Arc<DemandTracker>) -> ShardSet {
        ShardSet::boot(fresh(market), 1, None, queue + 1, None, demand).unwrap()
    }

    /// Drives a one-shard writer: every command is enqueued before the
    /// thread starts, followed by the shutdown.
    fn drive(market: Market, cmds: Vec<Command>) -> (Vec<Option<Response>>, MarketOutcome) {
        let mut set = one_shard(market, cmds.len(), Arc::new(DemandTracker::disabled()));
        let mut receivers = Vec::new();
        for cmd in cmds {
            set.txs[0].send(cmd).map_err(|_| ()).unwrap();
        }
        let sd_rx = set.shutdown();
        set.start(|| {}).unwrap();
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
        set.start(|| {}).unwrap();
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
            set.start(|| {}).unwrap();
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
        for kind in [CoordKind::Snapshot, CoordKind::Restore] {
            let mut set = one_shard(tiny_market(1), 1, Arc::new(DemandTracker::disabled()));
            let (tx, rx) = chan::oneshot();
            let op = Arc::new(CoordOp::new(kind, 1, tx.into()));
            set.txs[0]
                .send(Command::Prepare { op })
                .map_err(|_| ())
                .unwrap();
            set.start(|| {}).unwrap();
            assert_eq!(rx.recv(), Some(error(NO_SNAPSHOT)), "{kind:?}");
            let sd = set.shutdown();
            set.join();
            assert_eq!(sd.recv(), Some(Response::Draining));
        }
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

    /// Releasing a migration reservation frees room, so it must re-open
    /// maintenance. Cloudlet 0 is cheap with room for one provider;
    /// cloudlet 1 is expensive with room for many. Provider 1's
    /// reservation holds cloudlet 0, so provider 0 joins cloudlet 1 and
    /// the writer settles there. Each input then frees the reservation a
    /// different way — an abort, a leave whose commit lands on the
    /// tombstone, or the drain's drop of leftover reservations — and the
    /// drained placement must be Nash: provider 0 moves to cloudlet 0.
    #[test]
    fn released_reservation_reopens_maintenance() {
        fn market() -> Market {
            Market::builder()
                .cloudlet(CloudletSpec::new(2.0, 8.0, 0.1, 0.1))
                .cloudlet(CloudletSpec::new(20.0, 80.0, 3.0, 3.0))
                .provider(ProviderSpec::new(2.0, 8.0, 1.0, 30.0))
                .provider(ProviderSpec::new(2.0, 8.0, 1.0, 30.0))
                .uniform_update_cost(0.2)
                .build()
        }
        let abort = || vec![Command::MigrateAbort { provider: 1 }];
        let tombstoned_commit = || {
            let (tx, _rx) = chan::oneshot();
            vec![
                Command::Leave {
                    provider: 1,
                    reply: tx.into(),
                },
                Command::MigrateCommit {
                    provider: 1,
                    cloudlet: 0,
                    compute: 2.0,
                    bandwidth: 8.0,
                },
            ]
        };
        let drain_drop = Vec::new;
        let inputs: [(&str, &dyn Fn() -> Vec<Command>); 3] = [
            ("abort", &abort),
            ("tombstoned commit", &tombstoned_commit),
            ("drain", &drain_drop),
        ];
        for (name, release) in inputs {
            let mut set = one_shard(market(), 8, Arc::new(DemandTracker::disabled()));
            let tx = set.txs[0].clone();
            tx.send(Command::MigrateReserve {
                provider: 1,
                cloudlet: 0,
                compute: 2.0,
                bandwidth: 8.0,
                from: 0,
            })
            .map_err(|_| ())
            .unwrap();
            let (j, jr) = join(0);
            tx.send(j).map_err(|_| ()).unwrap();
            set.start(|| {}).unwrap();
            assert!(
                matches!(jr.recv(), Some(Response::Admitted { cloudlet: 1, .. })),
                "{name}: the reservation holds cloudlet 0"
            );
            let view = set.views[0].clone();
            while !view.load().equilibrium {
                std::thread::yield_now();
            }
            for cmd in release() {
                tx.send(cmd).map_err(|_| ()).unwrap();
            }
            let sd = set.shutdown();
            let outcome = set.join();
            assert_eq!(sd.recv(), Some(Response::Draining));
            let nash = mec_core::check_nash(
                &market(),
                &outcome.profile,
                &outcome.active,
                IMPROVEMENT_TOL,
            );
            assert!(nash.is_empty(), "{name}: {nash:?}");
            assert_eq!(
                outcome.profile.placement(ProviderId(0)),
                Placement::Cloudlet(CloudletId(0)),
                "{name}"
            );
        }
    }

    /// A shutdown applies the writes queued ahead of it and refuses the
    /// writes queued behind it, on every shard, with the draining error.
    #[test]
    fn shutdown_refuses_the_writes_queued_behind_it() {
        for shards in [1, 2] {
            let demand = Arc::new(DemandTracker::disabled());
            let mut set =
                ShardSet::boot(fresh(tiny_market(4)), shards, None, 8, None, demand).unwrap();
            // Providers 0 and 2 home to shard 0, 1 and 3 to the last shard.
            let send = |set: &ShardSet, p: usize| {
                let (cmd, rx) = join(p);
                set.txs[set.router.owner(p)]
                    .send(cmd)
                    .map_err(|_| ())
                    .unwrap();
                rx
            };
            let ahead: Vec<_> = (0..2).map(|p| send(&set, p)).collect();
            let sd = set.shutdown();
            let behind: Vec<_> = (2..4).map(|p| send(&set, p)).collect();
            set.start(|| {}).unwrap();
            let outcome = set.join();
            assert_eq!(sd.recv(), Some(Response::Draining), "{shards} shards");
            for r in ahead {
                assert!(
                    matches!(r.recv(), Some(Response::Admitted { .. })),
                    "{shards} shards"
                );
            }
            for r in behind {
                assert_eq!(
                    r.recv(),
                    Some(error("daemon is draining")),
                    "{shards} shards"
                );
            }
            assert_eq!(
                outcome.active,
                [true, true, false, false],
                "{shards} shards"
            );
        }
    }

    /// A shard set stepped by hand on the test thread: queued commands
    /// are applied shard by shard until every queue is empty, so a run is
    /// a pure function of its inputs.
    struct Sim {
        shards: Vec<(Shard, Receiver<Command>)>,
        txs: Vec<Sender<Command>>,
        router: Arc<Router>,
        /// The booted market: each provider's demand to shrink back to.
        base: Market,
        /// This run's snapshot file.
        path: PathBuf,
        /// The cut the file at `path` holds, while it holds one.
        saved: Option<MarketSnapshot>,
        /// The I/O side's query counters, shared with every shard.
        demand: Arc<DemandTracker>,
        /// Queries noted per provider and not yet folded.
        pending: Vec<u64>,
        /// Per shard, every provider's EWMA by the plain per-provider
        /// recurrence, folded wherever that shard folds.
        ewma: Vec<Vec<f64>>,
        /// A view a reader holds across one step: the publish that would
        /// patch it must rebuild into fresh buffers instead.
        held: Option<Arc<MarketView>>,
    }

    impl Sim {
        /// Boots `shards` writers at `profile` and `active`, each behind a
        /// queue of `queue` commands.
        fn boot(
            market: Market,
            profile: Profile,
            active: Vec<bool>,
            shards: usize,
            queue: usize,
        ) -> Sim {
            static RUNS: AtomicUsize = AtomicUsize::new(0);
            let base = market.clone();
            let n = market.provider_count();
            let demand = Arc::new(DemandTracker::new(n));
            let path = std::env::temp_dir().join(format!(
                "mec-sim-{}-{}.snap",
                std::process::id(),
                RUNS.fetch_add(1, Ordering::Relaxed)
            ));
            let _ = std::fs::remove_file(&path);
            let boot = MarketSnapshot {
                seq: 0,
                market,
                profile,
                active,
            };
            let mut set = ShardSet::boot(
                boot,
                shards,
                None,
                queue,
                Some(path.clone()),
                demand.clone(),
            )
            .unwrap();
            let shards = set.take_idle();
            Sim {
                ewma: vec![vec![0.0; n]; shards.len()],
                shards,
                txs: set.txs.clone(),
                router: set.router.clone(),
                base,
                path,
                saved: None,
                demand,
                pending: vec![0; n],
                held: None,
            }
        }

        /// Notes `count` queries for provider `p`, as the I/O side does.
        fn note(&mut self, p: usize, count: u64) {
            for _ in 0..count {
                self.demand.note(p);
            }
            self.pending[p] += count;
        }

        /// One quantum of at most `max_moves` moves on shard `k`, with the
        /// reference fold beside it.
        fn run_quantum(&mut self, k: usize, max_moves: usize) {
            self.fold(k);
            self.shards[k].0.run_quantum(max_moves);
        }

        /// The reference fold of a quantum on shard `k`: every provider
        /// decays, and the pending queries of the providers `k` owns
        /// land.
        fn fold(&mut self, k: usize) {
            for (p, e) in self.ewma[k].iter_mut().enumerate() {
                let count = if self.router.owner(p) == k {
                    std::mem::take(&mut self.pending[p])
                } else {
                    0
                };
                *e = (1.0 - DEMAND_EWMA_ALPHA) * *e + DEMAND_EWMA_ALPHA * count as f64;
            }
        }

        /// Shard `k`'s published EWMAs match the reference recurrence.
        fn assert_ewma(&self, k: usize) {
            let view = self.shards[k].0.ctx.views[k].load();
            for (p, &want) in self.ewma[k].iter().enumerate() {
                let got = view.demand_ewma(p);
                assert!(
                    (got - want).abs() <= 1e-9 * want,
                    "shard {k} provider {p}: published EWMA {got}, recurrence {want}"
                );
            }
        }

        fn send(&self, k: usize, cmd: Command) {
            self.txs[k].send(cmd).map_err(|_| ()).unwrap();
        }

        /// The shard whose region holds cloudlet `c`.
        fn region(&self, c: usize) -> usize {
            self.shards
                .iter()
                .position(|(s, _)| s.ctx.owns_cloudlet(c))
                .unwrap()
        }

        /// Provider `p`'s demand in its owner's market copy.
        fn demand(&self, p: usize) -> (f64, f64) {
            let shard = &self.shards[self.router.owner(p)].0;
            let spec = shard.state.market().provider(ProviderId(p));
            (spec.compute_demand, spec.bandwidth_demand)
        }

        /// Runs a writer thread's claim on everything queued for shard
        /// `k`: [`Shard::turn`], with quanta of at most `moves` moves,
        /// then the acks of the parked prepares nothing holds back. Each
        /// quantum gets its reference fold, and one that leaves the dirt
        /// clean must leave the shard at equilibrium. A shard the
        /// shutdown finished takes no command, as its writer has
        /// returned. Returns whether the shard had anything queued or
        /// held back in its outbound.
        fn turn(&mut self, k: usize, moves: usize) -> bool {
            let (shard, rx) = &mut self.shards[k];
            let mut batch = rx.try_drain();
            if shard.book.outcome.is_some() {
                assert!(
                    batch.is_empty(),
                    "shard {k} was sent work after it finished"
                );
                return false;
            }
            let busy = !batch.is_empty() || !shard.book.outbound.is_empty();
            let (depth, epochs) = (batch.len(), shard.book.epochs);
            shard.turn(&mut batch, depth, moves);
            if shard.book.outcome.is_none() {
                shard.resolve_parked();
            }
            if shard.book.epochs > epochs && shard.book.dirt.is_clean() {
                assert_settled(shard);
            }
            for _ in epochs..shard.book.epochs {
                self.fold(k);
            }
            busy
        }

        /// Turns the shards round-robin until no command is queued or held
        /// back anywhere; the last round's empty turns run the quanta that
        /// dirt left behind.
        fn pump(&mut self, moves: usize) {
            while (0..self.shards.len()).fold(false, |busy, k| self.turn(k, moves) | busy) {}
        }

        /// The whole-market cut the shards hold now: each provider's
        /// placement, admission flag and demand from the shard the router
        /// names, and the sum of the shard seqs (the `stats` seq).
        fn cut(&self) -> MarketSnapshot {
            let n = self.base.provider_count();
            let mut cut = MarketSnapshot {
                seq: self.shards.iter().map(|(s, _)| s.book.seq).sum(),
                market: self.base.clone(),
                profile: Profile::all_remote(n),
                active: vec![false; n],
            };
            for p in 0..n {
                let l = ProviderId(p);
                let shard = &self.shards[self.router.owner(p)].0;
                let (compute, bandwidth) = self.demand(p);
                cut.market.set_provider_demand(l, compute, bandwidth);
                cut.profile.set(l, shard.state.placement(l));
                cut.active[p] = shard.book.active[p];
            }
            cut
        }

        /// Everything a failed restore must leave as it was: the router,
        /// and each shard's seq, placements, admission flags and demands.
        fn capture(&self) -> String {
            let owners: Vec<usize> = (0..self.router.len())
                .map(|p| self.router.owner(p))
                .collect();
            let shards: Vec<String> = self
                .shards
                .iter()
                .map(|(s, _)| {
                    let demands: Vec<_> = s
                        .state
                        .market()
                        .providers()
                        .map(|l| s.state.market().provider(l).clone())
                        .collect();
                    format!(
                        "{} {:?} {:?} {demands:?}",
                        s.book.seq,
                        s.state.profile(),
                        s.book.active
                    )
                })
                .collect();
            format!("{owners:?} {shards:?}")
        }

        /// Fans a coordinated op out as a prepare on every shard's queue;
        /// the returned slot receives the op's reply.
        fn fan_out(&self, kind: CoordKind) -> chan::OneReceiver<Response> {
            let (tx, rx) = chan::oneshot();
            let op = Arc::new(CoordOp::new(kind, self.txs.len(), tx.into()));
            for k in 0..self.txs.len() {
                self.send(k, Command::Prepare { op: op.clone() });
            }
            rx
        }

        /// Sends a coordinated op through every shard's queue, runs it to
        /// its reply with no quantum, and returns the reply.
        fn coordinated(&mut self, kind: CoordKind) -> Response {
            let rx = self.fan_out(kind);
            self.pump(0);
            rx.recv().expect("the op answers its client")
        }

        /// A restore: from the saved cut, every provider's placement,
        /// admission flag and demand, and the seq, equal the cut's; with
        /// no file to load, it fails and changes nothing.
        fn restore(&mut self) {
            let before = self.capture();
            let resp = self.coordinated(CoordKind::Restore);
            match self.saved.clone() {
                Some(saved) => {
                    assert_eq!(resp, Response::Restored { seq: saved.seq });
                    assert_same_cut(&self.cut(), &saved);
                }
                None => {
                    assert!(matches!(resp, Response::Error { .. }), "{resp:?}");
                    assert_eq!(
                        self.capture(),
                        before,
                        "a failed restore changed the shards"
                    );
                }
            }
        }

        /// One random step: `(kind, provider, cloudlet, budget)`. The
        /// budget picks the move bound of the turns' quanta; 0 skips
        /// them, so dirt piles up across steps.
        fn apply(&mut self, (kind, p, c, budget): (u8, usize, usize, u8)) {
            let (n, m) = (self.base.provider_count(), self.base.cloudlet_count());
            let (p, c) = (p % n, c % m);
            let owner = self.router.owner(p);
            let (tx, _rx) = chan::oneshot();
            let reply: Reply = tx.into();
            // A view held since the last step is released when this one
            // ends.
            let _released = self.held.take();
            match kind % 15 {
                0 => self.send(
                    owner,
                    Command::Join {
                        provider: p,
                        cloudlet: None,
                        reply,
                    },
                ),
                1 => self.send(
                    owner,
                    Command::Join {
                        provider: p,
                        cloudlet: Some(c),
                        reply,
                    },
                ),
                2 => self.send(owner, Command::Leave { provider: p, reply }),
                // Grow past every capacity (an eviction when cached), or
                // by one unit (an eviction only when the cloudlet
                // overflows) ...
                3 | 4 => {
                    let spec = self.base.provider(ProviderId(p));
                    let grow = if kind % 15 == 3 { 100.0 } else { 1.0 };
                    self.send(
                        owner,
                        Command::Update {
                            provider: p,
                            compute: spec.compute_demand + grow,
                            bandwidth: spec.bandwidth_demand + 4.0 * grow,
                            reply,
                        },
                    );
                }
                // ... and shrink back to the booted demand.
                5 => {
                    let spec = self.base.provider(ProviderId(p));
                    let (compute, bandwidth) = (spec.compute_demand, spec.bandwidth_demand);
                    self.send(
                        owner,
                        Command::Update {
                            provider: p,
                            compute,
                            bandwidth,
                            reply,
                        },
                    );
                }
                // Reserve room at `c` for `p`; the grant goes to a peer
                // with no handoff in flight, which ignores it.
                6 => {
                    let k = self.region(c);
                    let (compute, bandwidth) = self.demand(p);
                    let from = (k + 1) % self.txs.len();
                    self.send(
                        k,
                        Command::MigrateReserve {
                            provider: p,
                            cloudlet: c,
                            compute,
                            bandwidth,
                            from,
                        },
                    );
                }
                7 => {
                    for k in 0..self.txs.len() {
                        self.send(k, Command::MigrateAbort { provider: p });
                    }
                }
                // Land an inactive `p` at `c` as a finished handoff would:
                // ownership moves first, then the commit. The source has
                // released `p` to the remote cloud by then, so a provider
                // parked at a cloudlet cannot be handed off this way.
                8 => {
                    let source = &self.shards[owner].0;
                    let l = ProviderId(p);
                    if !source.book.active[p] && source.state.placement(l) == Placement::Remote {
                        let k = self.region(c);
                        let (compute, bandwidth) = self.demand(p);
                        self.router.set_owner(p, k);
                        self.send(
                            k,
                            Command::MigrateCommit {
                                provider: p,
                                cloudlet: c,
                                compute,
                                bandwidth,
                            },
                        );
                    }
                }
                // A snapshot writes the shards' cut, at the `stats` seq.
                9 => {
                    let cut = self.cut();
                    let resp = self.coordinated(CoordKind::Snapshot);
                    assert_eq!(resp, Response::Snapshotted { seq: cut.seq });
                    assert_same_cut(&load_snapshot(&self.path).unwrap(), &cut);
                    self.saved = Some(cut);
                }
                10 => self.restore(),
                // A restore after the file is gone fails.
                13 => {
                    let _ = std::fs::remove_file(&self.path);
                    self.saved = None;
                    self.restore();
                }
                // `c + 1` queries for `p`, folded by whichever shard owns
                // `p` at its next quantum ...
                11 => self.note(p, c as u64 + 1),
                // ... and a reader holding the owner's view until the
                // next step ends.
                12 => self.held = Some(self.shards[owner].0.ctx.views[owner].load()),
                // The owner's rebalance scan, its tick throttle met, then a
                // snapshot fanned out before any shard runs: a handoff the
                // scan starts parks the owner's prepare, and the cut is
                // the state after the handoff resolves.
                _ => {
                    let source = &mut self.shards[owner].0;
                    source.book.ticks = REBALANCE_TICKS - 1;
                    source.maybe_rebalance();
                    let handoff = source.book.outgoing.is_some();
                    let rx = self.fan_out(CoordKind::Snapshot);
                    self.turn(owner, 0);
                    let parked = !self.shards[owner].0.book.parked_preps.is_empty();
                    assert_eq!(parked, handoff, "the prepare parks behind the handoff");
                    self.pump(0);
                    let cut = self.cut();
                    assert_eq!(rx.recv(), Some(Response::Snapshotted { seq: cut.seq }));
                    assert_same_cut(&load_snapshot(&self.path).unwrap(), &cut);
                    self.saved = Some(cut);
                }
            }
            self.pump(match budget % 4 {
                3 => EPOCH_MOVES,
                b => usize::from(b),
            });
            for (k, (shard, _)) in self.shards.iter().enumerate() {
                assert_members(shard);
                assert_view(shard);
                self.assert_ewma(k);
                let capacity =
                    mec_core::check_capacity(shard.state.market(), shard.state.profile());
                assert!(capacity.is_empty(), "shard {k}: {capacity:?}");
            }
            self.assert_one_owner();
        }

        /// The router names each provider's one owner: no other shard
        /// holds it active or cached, and the owner caches it only in its
        /// own region.
        fn assert_one_owner(&self) {
            for p in 0..self.base.provider_count() {
                let owner = self.router.owner(p);
                for (k, (shard, _)) in self.shards.iter().enumerate() {
                    let at = shard.state.placement(ProviderId(p));
                    if k != owner {
                        assert!(
                            !shard.book.active[p] && at == Placement::Remote,
                            "provider {p} is owned by shard {owner} but held by shard {k}"
                        );
                    } else if let Placement::Cloudlet(c) = at {
                        assert_eq!(
                            self.region(c.index()),
                            k,
                            "provider {p} cached outside its owner's region"
                        );
                    }
                }
            }
        }

        /// Shuts the set down through the real op: every shard's apply
        /// drops its leftover reservations and runs quanta to
        /// equilibrium, and the file the last one writes is the shards'
        /// cut. Each shard's outcome is its final state: an equilibrium,
        /// capacity-feasible and Nash over its region.
        fn finish(mut self) {
            assert_eq!(self.coordinated(CoordKind::Shutdown), Response::Draining);
            assert_same_cut(&load_snapshot(&self.path).unwrap(), &self.cut());
            for (k, (shard, _)) in self.shards.iter().enumerate() {
                let outcome = shard.book.outcome.as_ref().expect("every shard finished");
                assert!(outcome.equilibrium, "shard {k}");
                assert!(outcome.violations.is_empty(), "{:?}", outcome.violations);
                assert_eq!(outcome.seq, shard.book.seq);
                assert_eq!(&outcome.profile, shard.state.profile());
                assert_eq!(outcome.active, shard.book.active);
                assert_settled(shard);
                let market = shard.state.market();
                let capacity = mec_core::check_capacity(market, &outcome.profile);
                assert!(capacity.is_empty(), "shard {k}: {capacity:?}");
                let nash = shard.certify_region_nash();
                assert!(nash.is_empty(), "{nash:?}");
            }
        }
    }

    impl Drop for Sim {
        fn drop(&mut self) {
            let _ = std::fs::remove_file(&self.path);
        }
    }

    /// `got` holds `want`'s seq, and each provider's placement, admission
    /// flag and demand, bit for bit.
    fn assert_same_cut(got: &MarketSnapshot, want: &MarketSnapshot) {
        assert_eq!(got.seq, want.seq, "seq");
        assert_eq!(got.profile, want.profile, "placements");
        assert_eq!(got.active, want.active, "admission flags");
        for l in want.market.providers() {
            let (a, b) = (got.market.provider(l), want.market.provider(l));
            assert_eq!(
                (a.compute_demand.to_bits(), a.bandwidth_demand.to_bits()),
                (b.compute_demand.to_bits(), b.bandwidth_demand.to_bits()),
                "demand of {l}"
            );
        }
    }

    /// The placement index holds exactly the active providers, each in
    /// the bucket of its placement.
    fn assert_members(shard: &Shard) {
        let mut indexed: Vec<usize> = shard.book.members.all().collect();
        indexed.sort_unstable();
        let active: Vec<usize> = (0..shard.state.len())
            .filter(|&p| shard.book.active[p])
            .collect();
        assert_eq!(indexed, active);
        for c in 0..shard.state.market().cloudlet_count() {
            for &p in shard.book.members.at(c) {
                assert_eq!(
                    shard.state.placement(ProviderId(p)),
                    Placement::Cloudlet(CloudletId(c))
                );
            }
        }
    }

    /// The published view, patched into a replaced view or rebuilt,
    /// matches a fresh build; its costs are each provider's
    /// `provider_cost` and its social cost their sum over the active
    /// providers, bit for bit.
    fn assert_view(shard: &Shard) {
        let view = shard.view(MarketView::empty(0), true);
        let published = shard.ctx.views[shard.ctx.index].load();
        assert_eq!(format!("{published:?}"), format!("{view:?}"));
        let state = &shard.state;
        for l in state.market().providers() {
            assert_eq!(
                view.costs[l.index()].to_bits(),
                state.provider_cost(l).to_bits()
            );
        }
        let active = (0..state.len())
            .filter(|&p| shard.book.active[p])
            .map(ProviderId);
        assert_eq!(
            view.social_cost.to_bits(),
            state.subset_cost(active).to_bits()
        );
    }

    /// A full best-response sweep of every active owned provider over the
    /// shard's region finds no improving move.
    fn assert_settled(shard: &Shard) {
        let improving: Vec<usize> = (0..shard.state.len())
            .filter(|&p| shard.book.active[p] && shard.ctx.owns(p))
            .filter(|&p| {
                let l = ProviderId(p);
                let current = shard.state.provider_cost(l);
                let region =
                    |i: CloudletId| shard.ctx.owns_cloudlet(i.index()).then(|| shard.free_at(i));
                matches!(
                    shard.state.best_response_in(l, region),
                    Some((to, cost)) if to != shard.state.placement(l) && cost < current - IMPROVEMENT_TOL
                )
            })
            .collect();
        assert!(
            improving.is_empty(),
            "shard {} reports equilibrium, but providers {improving:?} can improve",
            shard.ctx.index
        );
    }

    /// A shard that has applied a restore hands the router entries it
    /// holds for providers the file gives another shard to that shard,
    /// so until the other shard applies, their commands go there and
    /// not to a shard that no longer holds them.
    #[test]
    fn a_restored_shard_hands_its_other_providers_to_their_owners() {
        // Provider 0 homes to shard 0; the file caches it at cloudlet 1,
        // in shard 1's region.
        let mut sim = Sim::boot(tiny_market(2), Profile::all_remote(2), vec![false; 2], 2, 4);
        let mut file = sim.cut();
        file.profile
            .set(ProviderId(0), Placement::Cloudlet(CloudletId(1)));
        file.active[0] = true;
        let (tx, _rx) = chan::oneshot();
        let op = Arc::new(CoordOp::new(CoordKind::Restore, 2, tx.into()));
        *lock_ok(&op.cut) = Some(file);
        assert_eq!(sim.router.owner(0), 0);
        sim.shards[0].0.step(Command::Apply { op });
        assert_eq!(sim.router.owner(0), 1);
    }

    /// A prepare acks only once the sends its shard made have left the
    /// outbound. Two shards behind queues of one command: shard 0's
    /// rebalance hands provider 0 to shard 1's cheap cloudlet, the op's
    /// prepare parks behind the handoff, and shard 1's own prepare fills
    /// its queue, so the commit waits in shard 0's outbound when the
    /// grant resolves the handoff. Were shard 0 to ack then, shard 1 —
    /// the last to ack — would apply ahead of the commit and write the
    /// admitted provider inactive. A shutdown parks the same way, so the
    /// handoff it meets completes and the drained file holds the
    /// provider at its target.
    #[test]
    fn a_prepare_waits_for_the_commit_in_its_outbound() {
        for kind in [CoordKind::Snapshot, CoordKind::Shutdown] {
            let market = Market::builder()
                .cloudlet(CloudletSpec::new(4.0, 20.0, 3.0, 3.0))
                .cloudlet(CloudletSpec::new(4.0, 20.0, 0.1, 0.1))
                .provider(ProviderSpec::new(2.0, 8.0, 1.0, 30.0))
                .uniform_update_cost(0.2)
                .build();
            let mut profile = Profile::all_remote(1);
            profile.set(ProviderId(0), Placement::Cloudlet(CloudletId(0)));
            let mut sim = Sim::boot(market, profile, vec![true], 2, 1);
            let source = &mut sim.shards[0].0;
            source.book.ticks = REBALANCE_TICKS - 1;
            source.maybe_rebalance();
            assert!(source.book.outgoing.is_some(), "the scan starts a handoff");
            let (tx, rx) = chan::oneshot();
            let op = Arc::new(CoordOp::new(kind, 2, tx.into()));
            sim.send(0, Command::Prepare { op: op.clone() });
            sim.turn(0, 0);
            sim.turn(1, 0);
            sim.send(1, Command::Prepare { op });
            sim.turn(0, 0);
            assert_eq!(sim.shards[0].0.book.outbound.len(), 1, "the commit waits");
            // Shard 1 takes its prepare; an I/O thread's inline turn on
            // shard 0 then sends the commit, and leaves the prepare it
            // unblocked to the writer thread.
            sim.turn(1, 0);
            let source = &mut sim.shards[0].0;
            source.turn(&mut Vec::new(), 0, 0);
            assert!(source.book.outbound.is_empty(), "the commit is sent");
            assert_eq!(source.book.parked_preps.len(), 1, "{kind:?}");
            assert!(source.wants_writer(), "the prepare asks for the writer");
            sim.pump(0);
            let cut = sim.cut();
            let reply = match kind {
                CoordKind::Shutdown => Response::Draining,
                _ => Response::Snapshotted { seq: cut.seq },
            };
            assert_eq!(rx.recv(), Some(reply));
            let file = load_snapshot(&sim.path).unwrap();
            assert!(
                file.active[0],
                "{kind:?}: the migrated provider is admitted"
            );
            assert_eq!(
                file.profile.placement(ProviderId(0)),
                Placement::Cloudlet(CloudletId(1)),
                "{kind:?}"
            );
            assert_same_cut(&file, &cut);
        }
    }

    /// A coordinated op queued behind the shutdown fails with the
    /// draining error, which the last shard to refuse it answers.
    #[test]
    fn an_op_queued_behind_the_shutdown_is_refused() {
        for shards in [1, 2] {
            let demand = Arc::new(DemandTracker::disabled());
            let mut set =
                ShardSet::boot(fresh(tiny_market(2)), shards, None, 4, None, demand).unwrap();
            let sd = set.shutdown();
            let (tx, rx) = chan::oneshot();
            let op = Arc::new(CoordOp::new(CoordKind::Snapshot, shards, tx.into()));
            for q in &set.txs {
                q.send(Command::Prepare { op: op.clone() })
                    .map_err(|_| ())
                    .unwrap();
            }
            set.start(|| {}).unwrap();
            set.join();
            assert_eq!(sd.recv(), Some(Response::Draining));
            assert_eq!(rx.recv(), Some(error(DRAINING)), "{shards} shards");
        }
    }

    /// One drain per daemon: a second shutdown fans out nothing, and it
    /// is answered `draining` only once every shard has acked the first
    /// one's prepare. Until then a copy of that prepare may still wait
    /// in an I/O thread's backlog for room in a full queue, and a
    /// `draining` reply stops the I/O threads, which drop their
    /// backlogs.
    #[test]
    fn a_second_shutdown_joins_the_first() {
        let mut sim = Sim::boot(tiny_market(2), Profile::all_remote(2), vec![false; 2], 2, 4);
        let coord = sim.shards[0].0.ctx.coord.clone();
        let (tx, first) = chan::oneshot();
        let op = coord
            .shutdown_op(tx.into())
            .expect("the first shutdown fans out");
        sim.send(0, Command::Prepare { op: op.clone() });
        sim.pump(0);
        let (tx, second) = chan::oneshot();
        assert!(
            coord.shutdown_op(tx.into()).is_none(),
            "one drain per daemon"
        );
        assert_eq!(second.try_recv(), None, "shard 1 has not acked the prepare");
        sim.send(1, Command::Prepare { op });
        sim.pump(0);
        assert_eq!(first.recv(), Some(Response::Draining));
        assert_eq!(second.recv(), Some(Response::Draining));
        let (tx, third) = chan::oneshot();
        assert!(coord.shutdown_op(tx.into()).is_none());
        assert_eq!(third.recv(), Some(Response::Draining), "every shard acked");
        assert!(sim.shards.iter().all(|(s, _)| s.book.outcome.is_some()));
    }

    /// A restore every shard acked before the shutdown's prepare rewinds
    /// every shard, a draining one too. Shard 0 acks the restore and
    /// then takes the shutdown's prepare; shard 1, the last to ack,
    /// restores while its copy of the shutdown's prepare is still on the
    /// way, and the restore's apply reaches shard 0 behind that prepare.
    #[test]
    fn a_restore_acked_before_the_shutdown_rewinds_every_shard() {
        let mut sim = Sim::boot(tiny_market(4), Profile::all_remote(4), vec![false; 4], 2, 4);
        for p in 0..4 {
            let (cmd, _rx) = join(p);
            sim.send(sim.router.owner(p), cmd);
        }
        sim.pump(EPOCH_MOVES);
        let saved = sim.cut();
        assert!(matches!(
            sim.coordinated(CoordKind::Snapshot),
            Response::Snapshotted { .. }
        ));
        for p in 0..4 {
            let (tx, _rx) = chan::oneshot();
            sim.send(
                sim.router.owner(p),
                Command::Leave {
                    provider: p,
                    reply: tx.into(),
                },
            );
        }
        sim.pump(0);
        let (tx, restored) = chan::oneshot();
        let restore = Arc::new(CoordOp::new(CoordKind::Restore, 2, tx.into()));
        let (tx, drained) = chan::oneshot();
        let shutdown = Arc::new(CoordOp::new(CoordKind::Shutdown, 2, tx.into()));
        for k in 0..2 {
            sim.send(
                k,
                Command::Prepare {
                    op: restore.clone(),
                },
            );
        }
        sim.turn(0, 0);
        sim.send(
            0,
            Command::Prepare {
                op: shutdown.clone(),
            },
        );
        sim.turn(1, 0);
        sim.turn(1, 0);
        sim.turn(0, 0);
        assert_eq!(restored.recv(), Some(Response::Restored { seq: saved.seq }));
        assert_same_cut(&sim.cut(), &saved);
        sim.send(1, Command::Prepare { op: shutdown });
        sim.pump(0);
        assert_eq!(drained.recv(), Some(Response::Draining));
        assert!(sim.shards.iter().all(|(s, _)| s.book.outcome.is_some()));
    }

    /// A set abandoned without a shutdown finishes each writer alone at
    /// its next idle tick and writes no cut.
    #[test]
    fn an_abandoned_set_finishes_without_a_cut() {
        let path = std::env::temp_dir().join(format!("mec-abandoned-{}.snap", std::process::id()));
        let _ = std::fs::remove_file(&path);
        let demand = Arc::new(DemandTracker::disabled());
        let boot = fresh(tiny_market(2));
        let mut set = ShardSet::boot(boot, 2, None, 4, Some(path.clone()), demand).unwrap();
        let (j, jr) = join(0);
        set.txs[0].send(j).map_err(|_| ()).unwrap();
        set.start(|| {}).unwrap();
        assert!(matches!(jr.recv(), Some(Response::Admitted { .. })));
        set.coord.abandon();
        let outcome = set.join();
        assert!(outcome.equilibrium);
        assert!(outcome.active[0]);
        assert!(!path.exists(), "an abandoned set writes no snapshot");
    }

    /// Renormalising the EWMAs' shared scale rewrites every entry, so the
    /// publishes after it must rewrite every view entry too.
    #[test]
    fn ewma_renormalisation_republishes_every_entry() {
        let mut sim = Sim::boot(tiny_market(3), Profile::all_remote(3), vec![true; 3], 1, 4);
        sim.note(1, 3);
        // ~800 quanta take the scale across its floor.
        for _ in 0..1000 {
            sim.run_quantum(0, 1);
            sim.shards[0].0.settle_batch();
            assert_view(&sim.shards[0].0);
            sim.assert_ewma(0);
        }
    }

    proptest::proptest! {
        #![proptest_config(proptest::prelude::ProptestConfig::with_cases(1024))]

        /// Differential check of the dirt rules and of the patched
        /// publish: on small tight markets at one to four shards (at most
        /// one per cloudlet), random joins (pinned and not), leaves,
        /// evicting updates and their undoing, reservations and aborts,
        /// landed handoffs, noted queries, views held by a reader, and
        /// snapshots and restores through the real queues and file —
        /// including a restore after the file is deleted — with quanta of
        /// 1, 2 or [`EPOCH_MOVES`] moves between them. After every step
        /// each published view must equal a fresh build and carry the
        /// reference EWMAs, every shard must be capacity-feasible, and
        /// the router must name the one shard holding each provider; a
        /// snapshot must write the shards' cut at the `stats` seq, a
        /// restore must reproduce it, and a failed restore must change
        /// nothing. Every quantum that leaves the dirt clean must survive
        /// a full best-response sweep over its region, and the drained
        /// shards must be capacity-feasible and Nash over their regions.
        #[test]
        fn clean_dirt_is_always_an_equilibrium(
            shards in 1usize..5,
            cloudlets in proptest::collection::vec((1u8..4, 1u8..10), 2..5),
            providers in proptest::collection::vec((1u8..3, 0u8..6, 2u8..12, 0u8..7), 3..9),
            ops in proptest::collection::vec((0u8..15, 0usize..16, 0usize..8, 0u8..4), 1..60),
        ) {
            let mut b = Market::builder();
            for &(slots, price) in &cloudlets {
                let (slots, half) = (f64::from(slots), f64::from(price) / 2.0);
                b = b.cloudlet(CloudletSpec::new(2.0 * slots, 8.0 * slots, half, half));
            }
            for &(units, inst, remote, _) in &providers {
                let units = f64::from(units);
                b = b.provider(ProviderSpec::new(units, 4.0 * units, f64::from(inst) / 2.0, f64::from(remote)));
            }
            let market = b.uniform_update_cost(0.2).build();
            // Boot from an arbitrary feasible profile, so the boot itself
            // must be maintained: `init` picks a cloudlet (cached when it
            // fits), active at the remote cloud, inactive, or inactive but
            // parked at a cloudlet, as a snapshot can leave a provider.
            let m = market.cloudlet_count();
            let mut state = GameState::all_remote(&market);
            let mut active = vec![false; providers.len()];
            for (p, &(_, _, _, init)) in providers.iter().enumerate() {
                let pick = usize::from(init) % (m + 3);
                active[p] = pick <= m;
                let at = match pick {
                    _ if pick < m => Some(pick),
                    _ if pick == m + 2 => Some(p % m),
                    _ => None,
                };
                let l = ProviderId(p);
                if let Some(c) = at.filter(|&c| market.fits(l, state.residual(CloudletId(c)))) {
                    state.apply_move(l, Placement::Cloudlet(CloudletId(c)));
                }
            }
            let profile = state.into_profile();
            let mut sim = Sim::boot(market, profile, active, shards, 4096);
            for op in ops {
                sim.apply(op);
            }
            sim.finish();
        }
    }
}
