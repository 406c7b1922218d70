//! Shard plumbing for the partitioned market: the `ShardSet` every
//! caller boots its writers through, provider→shard routing, the
//! coordinated snapshot/restore/shutdown state, and per-shard gauges.
//!
//! The market is partitioned by *topology region*: each shard owns a
//! disjoint set of cloudlets (a spatial cluster from
//! `mec_topology::MecNetwork::regions`, or a contiguous split for bare
//! markets) plus the providers currently placed in — or homed to — that
//! region. The cloudlet→shard map is validated once at boot and never
//! changes; to re-partition, drain and restart with new regions. A
//! provider's congestion cost (Eq. 1–3) depends only on the load at its
//! own cloudlet, so best-response epochs are shard-local and the shards
//! never share mutable game state: every cross-shard effect travels as a
//! [`crate::market::Command`] on the owning shard's queue.
//!
//! # Ownership
//!
//! The [`Router`] maps every provider to its owning shard. The single
//! consistency rule that keeps admission single-writer per region:
//! **ownership changes only on the current owner's thread.** I/O threads
//! read the router to pick a queue; a shard that receives a command for a
//! provider it no longer owns forwards it along. Because each shard is
//! the only writer for its region's capacity, Eq. 4–5 admission needs no
//! cross-shard locking — a reservation granted by the target shard (the
//! two-phase reserve→commit migration handoff) is debited on the target's
//! own thread, so concurrent admissions can never oversubscribe.
//!
//! # Snapshot, restore and shutdown
//!
//! A snapshot is one whole-market [`MarketSnapshot`] file at every shard
//! count, and boot and a live `restore` split it among the shards by one
//! rule: a cached provider belongs to its cloudlet's region, any other
//! to its home shard `p % N`. `snapshot`, `restore` and `shutdown` are
//! one two-phase op ([`CoordOp`]): a *prepare* fan-out pauses new
//! migrations, then an *apply* fan-out has every shard act. A shard acks
//! its prepare on its writer thread, after the batch that brought it has
//! settled, and only once its outgoing handoff has resolved and no send
//! waits in its outbound for room in a full peer queue, so every message
//! it sent before the ack — a migration commit included — is already on
//! its target's FIFO queue; the last shard to ack enqueues the apply
//! fan-out after every ack, so each target applies after those
//! messages, and every migrated provider lands in the cut exactly once.
//! For a snapshot, each shard adds its owned providers and its seq to
//! one cut the op carries, and the last to apply writes the cut with
//! tmp + fsync + rename. For a restore, the shard that completes prepare
//! loads the file once, and each shard takes its part at apply. A
//! shutdown's prepare also starts the drain: the shard refuses new work,
//! and the last to ack answers `draining`, to any later `shutdown` too.
//! At its apply each shard runs maintenance to equilibrium, certifies,
//! adds its part to the cut when a snapshot file is set, and finishes;
//! the last to apply writes the cut.

use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Mutex};
use std::thread::JoinHandle;

use mec_core::model::Market;
use mec_core::{load_snapshot, GameState, MarketSnapshot, Placement, Profile, ProviderId};

use crate::chan::{self, lock_ok, OneReceiver, Receiver, Sender};
use crate::demand::DemandTracker;
use crate::market::{Command, MarketOutcome, Reply, Shard, ShardCtx};
use crate::proto::Response;
use crate::view::{MarketView, SharedView};

/// Lock-free provider→shard ownership map.
///
/// I/O threads read it to route writes and queries; shard threads write
/// it, but only for providers they currently own (or, during a restore,
/// for providers the snapshot file assigns to them). Relaxed ordering
/// is enough: a stale read routes a command to the previous owner, which
/// forwards it — correctness never depends on routing freshness.
pub struct Router {
    owner: Vec<AtomicUsize>,
}

impl Router {
    /// A fresh router over `providers` providers: provider `p` starts on
    /// its *home shard* `p % shards`.
    pub fn new(providers: usize, shards: usize) -> Router {
        assert!(shards > 0, "need at least one shard");
        Router {
            owner: (0..providers)
                .map(|p| AtomicUsize::new(p % shards))
                .collect(),
        }
    }

    /// Number of routed providers.
    pub fn len(&self) -> usize {
        self.owner.len()
    }

    /// `true` if the router covers no providers.
    pub fn is_empty(&self) -> bool {
        self.owner.is_empty()
    }

    /// Current owning shard of provider `p` (clamped routing: unknown
    /// providers go to shard 0, whose handler answers the error).
    pub fn owner(&self, p: usize) -> usize {
        self.owner.get(p).map_or(0, |a| a.load(Ordering::Relaxed))
    }

    /// Reassigns provider `p` to shard `s`. Call only from the thread of
    /// the shard that currently owns `p` (or during a restore, from the
    /// shard the snapshot assigns `p` to).
    pub fn set_owner(&self, p: usize, s: usize) {
        if let Some(a) = self.owner.get(p) {
            a.store(s, Ordering::Relaxed);
        }
    }
}

/// Per-shard gauges shared between shard threads (writers) and I/O /
/// admin threads (readers answering `stats` and `GET /shards`).
pub struct ShardGauges {
    depth: Vec<AtomicUsize>,
    writes: Vec<AtomicU64>,
    migrations: Vec<AtomicU64>,
}

impl ShardGauges {
    /// Gauges for `shards` shards, all zero.
    pub fn new(shards: usize) -> ShardGauges {
        ShardGauges {
            depth: (0..shards).map(|_| AtomicUsize::new(0)).collect(),
            writes: (0..shards).map(|_| AtomicU64::new(0)).collect(),
            migrations: (0..shards).map(|_| AtomicU64::new(0)).collect(),
        }
    }

    /// Records the queue depth shard `k` saw at its latest drain.
    pub fn set_depth(&self, k: usize, depth: usize) {
        self.depth[k].store(depth, Ordering::Relaxed);
    }

    /// Adds settled write commands to shard `k`'s lifetime counter.
    pub fn add_writes(&self, k: usize, n: u64) {
        self.writes[k].fetch_add(n, Ordering::Relaxed);
    }

    /// Counts a cross-shard migration granted *into* shard `k`.
    pub fn add_migrations(&self, k: usize, n: u64) {
        self.migrations[k].fetch_add(n, Ordering::Relaxed);
    }

    /// Latest drain depth of shard `k`.
    pub fn depth(&self, k: usize) -> usize {
        self.depth[k].load(Ordering::Relaxed)
    }

    /// Lifetime write commands settled by shard `k`.
    pub fn writes(&self, k: usize) -> u64 {
        self.writes[k].load(Ordering::Relaxed)
    }

    /// Lifetime cross-shard migrations granted into shard `k`.
    pub fn migrations(&self, k: usize) -> u64 {
        self.migrations[k].load(Ordering::Relaxed)
    }
}

/// Shared coordination state of one sharded daemon.
pub struct Coordinator {
    /// Shard count.
    pub shards: usize,
    /// Cloudlet→shard region map, fixed at boot ([`Self::regions`]).
    regions: Vec<usize>,
    /// Where the daemon's one shutdown stands ([`Self::shutdown_op`]).
    drain: Mutex<Drain>,
    /// Set by a teardown that is not a shutdown ([`Self::abandon`]).
    abandoned: AtomicBool,
}

/// Where the daemon's one shutdown stands.
enum Drain {
    /// No shutdown has fanned out.
    Serving,
    /// The shutdown's prepare is fanning out; the replies of later
    /// shutdowns wait for its last ack.
    Preparing(Vec<Reply>),
    /// Every shard has acked the shutdown's prepare.
    Draining,
}

impl Coordinator {
    /// A coordinator for `shards` shards over the given region map.
    pub fn new(shards: usize, regions: Vec<usize>) -> Coordinator {
        Coordinator {
            shards,
            regions,
            drain: Mutex::new(Drain::Serving),
            abandoned: AtomicBool::new(false),
        }
    }

    /// The cloudlet→shard region map, fixed at boot: shard `regions()[c]`
    /// owns cloudlet `c`'s capacity, takes the joins pinned to it and is
    /// the target of a migration into it. To re-partition, drain and
    /// restart with new regions.
    pub fn regions(&self) -> &[usize] {
        &self.regions
    }

    /// The shard that owns provider `p` of the whole-market state `snap`,
    /// by the one rule boot and restore share: a cached provider belongs
    /// to its cloudlet's region, where its capacity is accounted; any
    /// other provider to its home shard `p % shards`.
    pub(crate) fn owner_in(&self, snap: &MarketSnapshot, p: usize) -> usize {
        match snap.profile.placement(ProviderId(p)) {
            Placement::Cloudlet(c) => self.regions[c.index()],
            Placement::Remote => p % self.shards,
        }
    }

    /// Shard `k`'s part of `snap`: the placement and admission flag of
    /// each provider it owns ([`Self::owner_in`]), every other provider
    /// remote and inactive, and its seq. Shard 0 takes the state's seq
    /// and the others start at 0, so the shard seqs sum to it.
    pub(crate) fn part_of(&self, snap: &MarketSnapshot, k: usize) -> (Profile, Vec<bool>, u64) {
        let n = snap.active.len();
        let mut profile = Profile::all_remote(n);
        let mut active = vec![false; n];
        for p in (0..n).filter(|&p| self.owner_in(snap, p) == k) {
            profile.set(ProviderId(p), snap.profile.placement(ProviderId(p)));
            active[p] = snap.active[p];
        }
        (profile, active, if k == 0 { snap.seq } else { 0 })
    }

    /// The daemon's one shutdown op, for the caller to fan out as a
    /// prepare to every shard. A later call returns `None`, and its
    /// client is answered `draining` once every shard has acked the
    /// op's prepare ([`Self::shutdown_prepared`]): a second op could
    /// split the shards between two drains, and an earlier `draining`
    /// stops the I/O threads, which would drop a copy of the prepare
    /// still waiting in one's backlog for room in a full queue.
    pub(crate) fn shutdown_op(&self, reply: Reply) -> Option<Arc<CoordOp>> {
        let mut drain = lock_ok(&self.drain);
        match &mut *drain {
            Drain::Serving => *drain = Drain::Preparing(Vec::new()),
            Drain::Preparing(later) => {
                later.push(reply);
                return None;
            }
            Drain::Draining => {
                reply.send(Response::Draining);
                return None;
            }
        }
        Some(Arc::new(CoordOp::new(
            CoordKind::Shutdown,
            self.shards,
            reply,
        )))
    }

    /// Called by the shard that completes the shutdown's prepare: answers
    /// the later shutdowns `draining`.
    pub(crate) fn shutdown_prepared(&self) {
        let drain = std::mem::replace(&mut *lock_ok(&self.drain), Drain::Draining);
        if let Drain::Preparing(later) = drain {
            for reply in later {
                reply.send(Response::Draining);
            }
        }
    }

    /// Tears the set down without a shutdown (a thread that failed to
    /// spawn): each writer finishes alone at its next idle tick, with no
    /// cut.
    pub(crate) fn abandon(&self) {
        self.abandoned.store(true, Ordering::Release);
    }

    /// `true` once [`Self::abandon`] was called.
    pub(crate) fn abandoned(&self) -> bool {
        self.abandoned.load(Ordering::Acquire)
    }
}

/// What a two-phase coordinated operation does in its apply phase.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CoordKind {
    /// Write the shards' cut to the snapshot file.
    Snapshot,
    /// Rewind every shard to its part of the snapshot file.
    Restore,
    /// Drain every shard to equilibrium and finish it, writing the
    /// shards' cut to the snapshot file when one is set.
    Shutdown,
}

/// One in-flight coordinated snapshot, restore or shutdown: prepare
/// fan-out, apply fan-out, the whole-market state it carries, and the
/// single client reply.
///
/// Shards interact through [`CoordOp::ack_prepare`] /
/// [`CoordOp::ack_apply`]; whichever shard arrives last at each barrier
/// drives the next step (load the file, or answer a shutdown, and
/// enqueue the apply fan-out; write the cut and answer the client).
pub struct CoordOp {
    /// Snapshot, restore or shutdown.
    pub kind: CoordKind,
    prepare_left: AtomicUsize,
    apply_left: AtomicUsize,
    /// The cut the applying shards build (snapshot, shutdown), or the
    /// file the shard completing prepare loaded (restore).
    pub(crate) cut: Mutex<Option<MarketSnapshot>>,
    /// Client reply, taken by the shard that completes the apply phase
    /// (a shutdown's by the shard that completes prepare).
    reply: Mutex<Option<Reply>>,
    /// Errors collected across shards; a non-empty set fails the op.
    errors: Mutex<Vec<String>>,
}

impl CoordOp {
    /// A fresh op awaiting `shards` prepare-acks and apply-acks.
    pub fn new(kind: CoordKind, shards: usize, reply: Reply) -> CoordOp {
        CoordOp {
            kind,
            prepare_left: AtomicUsize::new(shards),
            apply_left: AtomicUsize::new(shards),
            cut: Mutex::new(None),
            reply: Mutex::new(Some(reply)),
            errors: Mutex::new(Vec::new()),
        }
    }

    /// Acks the prepare phase; `true` for the last shard, which must
    /// enqueue the apply fan-out to every shard.
    pub fn ack_prepare(&self) -> bool {
        self.prepare_left.fetch_sub(1, Ordering::AcqRel) == 1
    }

    /// Acks the apply phase; `true` for the last shard, which writes the
    /// cut (snapshot, shutdown) and answers the client.
    pub fn ack_apply(&self) -> bool {
        self.apply_left.fetch_sub(1, Ordering::AcqRel) == 1
    }

    /// Records a shard-local failure of this op.
    pub fn push_error(&self, msg: String) {
        lock_ok(&self.errors).push(msg);
    }

    /// `true` once any shard has failed the op: the shards still to
    /// apply then leave their state as it is.
    pub fn failed(&self) -> bool {
        !lock_ok(&self.errors).is_empty()
    }

    /// Takes the accumulated errors (empty means success).
    pub fn take_errors(&self) -> Vec<String> {
        std::mem::take(&mut *lock_ok(&self.errors))
    }

    /// Takes the client reply (present exactly once).
    pub fn take_reply(&self) -> Option<Reply> {
        lock_ok(&self.reply).take()
    }
}

/// Contiguous fallback region map for markets without topology metadata:
/// cloudlet `c` goes to shard `c * shards / cloudlets` (every shard gets
/// a non-empty, contiguous range).
pub fn contiguous_regions(cloudlets: usize, shards: usize) -> Vec<usize> {
    assert!(
        shards > 0 && shards <= cloudlets,
        "need 1..=cloudlets shards"
    );
    (0..cloudlets).map(|c| c * shards / cloudlets).collect()
}

/// Validates a caller-supplied region map (or derives the contiguous
/// fallback): every cloudlet mapped, every shard non-empty.
pub(crate) fn region_map(
    regions: Option<&Vec<usize>>,
    cloudlets: usize,
    shards: usize,
) -> std::io::Result<Vec<usize>> {
    let Some(r) = regions else {
        return Ok(contiguous_regions(cloudlets, shards));
    };
    let bad = |msg: String| std::io::Error::new(std::io::ErrorKind::InvalidInput, msg);
    if r.len() != cloudlets {
        return Err(bad(format!(
            "region map covers {} cloudlets, market has {cloudlets}",
            r.len()
        )));
    }
    for k in 0..shards {
        if !r.contains(&k) {
            return Err(bad(format!(
                "region map leaves shard {k} without cloudlets"
            )));
        }
    }
    if let Some(&r_max) = r.iter().max() {
        if r_max >= shards {
            return Err(bad(format!(
                "region map names shard {r_max}, daemon has {shards}"
            )));
        }
    }
    Ok(r.clone())
}

/// A fresh boot state over `market`: every provider remote and
/// inactive, at seq 0.
pub(crate) fn fresh(market: Market) -> MarketSnapshot {
    let n = market.provider_count();
    MarketSnapshot {
        seq: 0,
        market,
        profile: Profile::all_remote(n),
        active: vec![false; n],
    }
}

/// The boot state: the snapshot at `path` if one exists there, else a
/// fresh boot from the caller's market.
///
/// # Errors
///
/// Returns an unreadable or corrupt snapshot as `InvalidData`.
pub(crate) fn boot_state(market: Market, path: Option<&Path>) -> std::io::Result<MarketSnapshot> {
    let Some(path) = path.filter(|p| p.exists()) else {
        return Ok(fresh(market));
    };
    load_snapshot(path).map_err(|e| {
        std::io::Error::new(
            std::io::ErrorKind::InvalidData,
            format!("restoring {}: {e}", path.display()),
        )
    })
}

/// One booted set of shard writers and everything they share with the
/// I/O side: the command queues, the shards themselves (an I/O thread
/// whose push claims a queue applies its client writes inline), the
/// router, the published views, the gauges and the coordinator. The
/// daemon, the drain bench and the trace replay all boot their writers
/// here.
///
/// Every shard's first view is published before [`ShardSet::boot`]
/// returns, so a reader never sees a pre-boot view. The writers start
/// only on [`ShardSet::start`], so a caller can preload their queues
/// first.
pub(crate) struct ShardSet {
    /// Command queue of each shard.
    pub(crate) txs: Vec<Sender<Command>>,
    /// Each shard, locked by whoever holds its queue's claim: the writer
    /// thread, or an I/O thread running an inline turn.
    pub(crate) slots: Vec<Arc<Mutex<Shard>>>,
    /// Published view of each shard.
    pub(crate) views: Vec<Arc<SharedView>>,
    /// Provider→shard ownership map.
    pub(crate) router: Arc<Router>,
    /// Per-shard depth/write/migration gauges.
    pub(crate) gauges: Arc<ShardGauges>,
    /// Region map and teardown flags.
    pub(crate) coord: Arc<Coordinator>,
    /// The receiving ends of the queues, until the writers start.
    idle: Vec<Receiver<Command>>,
    /// Started writer threads.
    running: Vec<JoinHandle<MarketOutcome>>,
}

impl ShardSet {
    /// Boots `shards` writers (clamped to the cloudlet count) over
    /// `boot`, each behind a command queue of `queue_len` messages.
    /// `regions` is the cloudlet→shard map (`None` derives a
    /// contiguous split).
    ///
    /// # Errors
    ///
    /// Returns an invalid region map as `InvalidInput`.
    pub(crate) fn boot(
        boot: MarketSnapshot,
        shards: usize,
        regions: Option<&Vec<usize>>,
        queue_len: usize,
        snapshot_path: Option<PathBuf>,
        demand: Arc<DemandTracker>,
    ) -> std::io::Result<ShardSet> {
        let n = boot.market.provider_count();
        let m = boot.market.cloudlet_count();
        let shards = shards.clamp(1, m.max(1));
        let coord = Arc::new(Coordinator::new(shards, region_map(regions, m, shards)?));
        let router = Arc::new(Router::new(n, shards));
        for p in 0..n {
            router.set_owner(p, coord.owner_in(&boot, p));
        }
        let views: Vec<Arc<SharedView>> = (0..shards)
            .map(|_| Arc::new(SharedView::new(MarketView::empty(n))))
            .collect();
        let gauges = Arc::new(ShardGauges::new(shards));
        let (txs, rxs): (Vec<_>, Vec<_>) = (0..shards).map(|_| chan::bounded(queue_len)).unzip();
        let mut slots = Vec::with_capacity(shards);
        for k in 0..shards {
            let ctx = ShardCtx {
                index: k,
                shards,
                router: router.clone(),
                peers: txs.clone(),
                views: views.clone(),
                coord: coord.clone(),
                gauges: gauges.clone(),
                demand: demand.clone(),
                snapshot_path: snapshot_path.clone(),
            };
            let (profile, active, seq) = coord.part_of(&boot, k);
            let state = GameState::owned(boot.market.clone(), profile);
            let mut shard = Shard::new(state, active, seq, ctx);
            shard.publish();
            slots.push(Arc::new(Mutex::new(shard)));
        }
        Ok(ShardSet {
            txs,
            views,
            router,
            gauges,
            coord,
            slots,
            idle: rxs,
            running: Vec::new(),
        })
    }

    /// Starts one writer thread per shard, named `shard-<k>`; each runs
    /// `on_exit` on its own thread once it has finished.
    ///
    /// # Errors
    ///
    /// Returns a failed thread spawn. The set is then abandoned
    /// ([`Coordinator::abandon`]): the writers already started finish at
    /// their next idle tick.
    pub(crate) fn start(
        &mut self,
        on_exit: impl Fn() + Clone + Send + 'static,
    ) -> std::io::Result<()> {
        for (k, rx) in self.idle.drain(..).enumerate() {
            let on_exit = on_exit.clone();
            let slot = self.slots[k].clone();
            // The shard's writer thread: serves its region for the
            // daemon's whole life. Intentionally a raw thread, not the
            // bench pool — it outlives any scope and is joined through
            // `join`.
            // lint: allow(thread-spawn)
            let spawned = std::thread::Builder::new()
                .name(format!("shard-{k}"))
                .spawn(move || {
                    let outcome = Shard::run(&slot, &rx);
                    on_exit();
                    outcome
                });
            match spawned {
                Ok(handle) => self.running.push(handle),
                Err(e) => {
                    self.coord.abandon();
                    return Err(e);
                }
            }
        }
        Ok(())
    }

    /// The booted writers with their queues, for a test that steps them
    /// by hand instead of starting them.
    #[cfg(test)]
    pub(crate) fn take_idle(&mut self) -> Vec<(Shard, Receiver<Command>)> {
        let slots = std::mem::take(&mut self.slots).into_iter().map(|slot| {
            let Ok(shard) = Arc::try_unwrap(slot) else {
                panic!("a shard slot was shared before its writer started");
            };
            shard.into_inner().unwrap_or_else(|e| e.into_inner())
        });
        slots.zip(std::mem::take(&mut self.idle)).collect()
    }

    /// Shuts the set down on behalf of an in-process driver: the shutdown
    /// op's prepare at the back of every queue. The returned slot
    /// receives the `draining` reply.
    pub(crate) fn shutdown(&self) -> OneReceiver<Response> {
        let (tx, rx) = chan::oneshot();
        if let Some(op) = self.coord.shutdown_op(tx.into()) {
            for q in &self.txs {
                // A writer that already exited answers nothing; its
                // dropped share releases the reply slot instead.
                let _ = q.send(Command::Prepare { op: op.clone() });
            }
        }
        rx
    }

    /// Waits for every writer and folds their outcomes into one. Counters
    /// sum, equilibrium ANDs, violations concatenate; a provider's
    /// placement and admission flag come from whichever shard holds it
    /// active (unique after a shutdown — no handoff is in flight at its
    /// apply).
    ///
    /// # Panics
    ///
    /// Re-raises a writer thread's panic, and panics if the set was never
    /// started.
    pub(crate) fn join(self) -> MarketOutcome {
        let mut outcomes = self
            .running
            .into_iter()
            .map(|h| h.join().unwrap_or_else(|e| std::panic::resume_unwind(e)));
        // lint: allow(panics) — joining a set that never started is a bug.
        let mut merged = outcomes.next().expect("shard set was started");
        for o in outcomes {
            merged.seq += o.seq;
            merged.epochs += o.epochs;
            merged.moves += o.moves;
            merged.equilibrium &= o.equilibrium;
            merged.violations.extend(o.violations);
            for p in 0..o.active.len() {
                if o.active[p] {
                    merged.active[p] = true;
                    merged
                        .profile
                        .set(ProviderId(p), o.profile.placement(ProviderId(p)));
                }
            }
        }
        merged
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn router_homes_and_reassigns() {
        let r = Router::new(10, 4);
        assert_eq!(r.len(), 10);
        assert_eq!(r.owner(6), 2);
        assert_eq!(r.owner(999), 0, "unknown providers route to shard 0");
        r.set_owner(6, 3);
        assert_eq!(r.owner(6), 3);
        r.set_owner(999, 1); // out of range: ignored, not a panic
    }

    #[test]
    fn contiguous_regions_are_nonempty_and_ordered() {
        for (m, s) in [(10, 4), (7, 3), (4, 4), (40, 2)] {
            let r = contiguous_regions(m, s);
            assert_eq!(r.len(), m);
            assert!(r.windows(2).all(|w| w[0] <= w[1]));
            for k in 0..s {
                assert!(r.contains(&k), "shard {k} of {s} over {m} cloudlets empty");
            }
        }
    }

    #[test]
    fn coord_op_barriers_fire_exactly_once() {
        let (tx, _rx) = crate::chan::oneshot();
        let op = CoordOp::new(CoordKind::Snapshot, 3, tx.into());
        assert!(!op.ack_prepare());
        assert!(!op.ack_prepare());
        assert!(op.ack_prepare(), "third ack completes the barrier");
        assert!(!op.ack_apply());
        assert!(!op.ack_apply());
        assert!(op.ack_apply());
        assert!(op.take_reply().is_some());
        assert!(op.take_reply().is_none(), "reply is taken exactly once");
    }

    #[test]
    fn gauges_track_migrations_per_shard() {
        let g = ShardGauges::new(2);
        assert_eq!(g.migrations(0), 0);
        g.add_migrations(1, 2);
        g.add_migrations(1, 1);
        assert_eq!(g.migrations(1), 3);
        assert_eq!(g.migrations(0), 0);
    }
}

/// Interleaving model of the two-phase cross-shard migration handoff
/// (`--features loom-model`; the TSan CI cell watches the same test for
/// data races).
///
/// The safety argument under test is the one in the module docs: the
/// target shard is the *single writer* for its region's capacity, and a
/// reservation granted at reserve time is debited on the target's own
/// thread — so a join admitted between the grant and the commit can
/// never oversubscribe the cloudlet. The model races a migrating source
/// shard (reserve → await grant → commit) against a client admission
/// stream into a capacity-1 cloudlet, over the real [`crate::chan`]
/// queues (whose `fuzz()` points give each iteration a different
/// delivery interleaving), and asserts `placed + reserved <= capacity`
/// after every command the target settles.
#[cfg(all(test, feature = "loom-model"))]
mod loom_model_tests {
    use crate::chan::{self, Claimed};
    use std::time::Duration;

    /// Takes the next message off `rx`; a whole 5 s tick with none fails
    /// the model.
    fn recv<T>(rx: &chan::Receiver<T>, what: &str) -> T {
        let mut buf = Vec::new();
        let got = rx.claim_batch(&mut buf, 1, Duration::from_secs(5));
        rx.release(false);
        assert!(
            matches!(got, Claimed::Batch { taken: 1, .. }),
            "{what} must arrive"
        );
        buf.pop().expect("one message taken")
    }

    /// Messages of the modelled protocol, one queue per shard — a
    /// stripped-down `Command` with only the capacity-relevant variants.
    #[derive(Debug)]
    enum Msg {
        /// Source shard asks the target to reserve the provider's demand.
        Reserve { provider: usize },
        /// A client join routed straight to the target (Eq. 4–5
        /// admission against residual capacity *including* reservations).
        Join { provider: usize },
        /// Source commits the granted handoff; the reservation converts
        /// into a placement.
        Commit { provider: usize },
    }

    #[test]
    fn loom_model_handoff_never_oversubscribes() {
        loom::model(|| {
            const CAP: usize = 1;
            let (target_tx, target_rx) = chan::bounded::<Msg>(4);
            let (grant_tx, grant_rx) = chan::bounded::<bool>(1);

            // Source shard: reserve, await the grant, commit if granted.
            // (Abort sends nothing capacity-relevant, so the model omits
            // it — the reservation is dropped by the target on grant
            // denial, which the target models locally.)
            let src_tx = target_tx.clone();
            // Model thread stands in for the source shard thread.
            // lint: allow(thread-spawn)
            let source = loom::thread::spawn(move || {
                loom::fuzz_yield();
                src_tx.send(Msg::Reserve { provider: 0 }).unwrap();
                let granted = recv(&grant_rx, "the grant");
                if granted {
                    loom::fuzz_yield();
                    src_tx.send(Msg::Commit { provider: 0 }).unwrap();
                }
                granted
            });

            // Client: one concurrent join racing the reserve for the
            // last capacity slot.
            // lint: allow(thread-spawn)
            let client = loom::thread::spawn(move || {
                loom::fuzz_yield();
                target_tx.send(Msg::Join { provider: 1 }).unwrap();
            });

            // Target shard thread: the single writer for the cloudlet.
            let mut placed: Vec<usize> = Vec::new();
            let mut reserved: Vec<usize> = Vec::new();
            let mut admitted = 0usize;
            let mut granted_at_target = None;
            // Expected messages: Reserve + Join, plus Commit iff granted.
            let mut expect = 2usize;
            let mut seen = 0usize;
            while seen < expect {
                let msg = recv(&target_rx, "every protocol message");
                seen += 1;
                match msg {
                    Msg::Reserve { provider } => {
                        let free = CAP - placed.len() - reserved.len();
                        let ok = free >= 1;
                        if ok {
                            reserved.push(provider);
                            expect += 1; // the commit is now coming
                        }
                        granted_at_target = Some(ok);
                        grant_tx.send(ok).unwrap();
                    }
                    Msg::Join { provider } => {
                        // Admission counts reservations as used
                        // capacity — the invariant under test.
                        if CAP - placed.len() - reserved.len() >= 1 {
                            placed.push(provider);
                            admitted += 1;
                        }
                    }
                    Msg::Commit { provider } => {
                        reserved.retain(|p| *p != provider);
                        placed.push(provider);
                    }
                }
                assert!(
                    placed.len() + reserved.len() <= CAP,
                    "cloudlet oversubscribed: {} placed + {} reserved > {CAP}",
                    placed.len(),
                    reserved.len()
                );
            }

            let granted = source.join().unwrap();
            client.join().unwrap();
            assert_eq!(Some(granted), granted_at_target);
            assert!(reserved.is_empty(), "no reservation may outlive the run");
            assert_eq!(placed.len(), CAP, "the single slot ends occupied");
            // Exactly one contender wins the slot, whichever arrived
            // first at the single writer.
            assert!(
                (granted && admitted == 0 && placed == [0])
                    || (!granted && admitted == 1 && placed == [1]),
                "inconsistent outcome: granted={granted} admitted={admitted} placed={placed:?}"
            );
        });
    }
}
