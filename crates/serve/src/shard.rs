//! Shard plumbing for the partitioned market: the `ShardSet` every
//! caller boots its writers through, provider→shard routing, coordinated
//! multi-shard snapshot/restore/drain state, per-shard gauges, and the
//! manifest codec.
//!
//! The market is partitioned by *topology region*: each shard owns a
//! disjoint set of cloudlets (a spatial cluster from
//! `mec_topology::MecNetwork::regions`, or a contiguous split for bare
//! markets) plus the providers currently placed in — or homed to — that
//! region. A provider's congestion cost (Eq. 1–3) depends only on the
//! load at its own cloudlet, so best-response epochs are shard-local and
//! the shards never share mutable game state: every cross-shard effect
//! travels as a [`crate::market::Command`] on the owning shard's queue.
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
//! # Coordinated snapshots
//!
//! A multi-shard snapshot is two-phase: a *prepare* fan-out pauses new
//! migrations and waits for every in-flight handoff to resolve (each
//! shard defers its prepare-ack until its outgoing migration has sent
//! `commit` or `abort`), then an *apply* fan-out has every shard write
//! `<path>.e<E>.s<k>` stamped with a shared coordinator epoch. The shard
//! that completes last writes the manifest at `<path>` — manifest last,
//! so a crash leaves either the previous complete set or the new one.
//! Because a commit is enqueued on the target's FIFO queue *before* the
//! source acks prepare, and the apply command is enqueued *after* every
//! ack, every migrated provider lands in exactly one shard file.

use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Mutex};
use std::thread::JoinHandle;

use mec_core::model::Market;
use mec_core::{load_snapshot, GameState, MarketSnapshot, Placement, Profile, ProviderId};
use mec_obs::json;

use crate::chan::{self, lock_ok, OneReceiver, Receiver, Sender};
use crate::demand::DemandTracker;
use crate::market::{publish_probe, Command, MarketOutcome, Shard, ShardCtx};
use crate::proto::Response;
use crate::view::{MarketView, SharedView};

/// Sentinel for "no drain epoch assigned yet" (see [`Coordinator`]).
const NO_EPOCH: u64 = u64::MAX;

/// Lock-free provider→shard ownership map.
///
/// I/O threads read it to route writes and queries; shard threads write
/// it, but only for providers they currently own (or, during a restore,
/// for providers their snapshot slice assigns to them). Relaxed ordering
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
    /// the shard that currently owns `p` (or during a coordinated
    /// restore, from the shard whose slice owns `p`).
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
    /// Cloudlet→shard region assignment, swappable at runtime (admin
    /// topology reload). Readers clone the `Arc` out ([`Self::region_map`])
    /// or index one cloudlet ([`Self::region_of`]); the swap
    /// ([`Self::swap_region_map`]) is validated by the caller first.
    ///
    /// The map only steers *routing* decisions — which shard a pinned
    /// join is forwarded to, which region a rebalance pass targets. The
    /// per-shard capacity ownership masks (`ShardCtx::mine`) are fixed
    /// at boot, and every capacity-mutating path re-checks ownership on
    /// the executing shard, so a concurrent swap can misroute (the
    /// receiving shard forwards or refuses) but never oversubscribe.
    region_of: Mutex<std::sync::Arc<Vec<usize>>>,
    /// Bumped on every successful [`Self::swap_region_map`].
    region_version: AtomicU64,
    /// Next snapshot epoch (monotonic; assigned at dispatch time).
    epoch: AtomicU64,
    /// Epoch of the final drain snapshot set, assigned once by whichever
    /// thread initiates the drain ([`NO_EPOCH`] until then).
    drain_epoch: AtomicU64,
    /// Shards past their last cross-shard send during a drain.
    quiesced: AtomicUsize,
    /// Shards that have not yet written their final drain snapshot.
    unfinished: AtomicUsize,
    /// Set when any shard fails to write its final slice; the last shard
    /// then skips the manifest so the previous complete set stays live.
    drain_failed: std::sync::atomic::AtomicBool,
}

impl Coordinator {
    /// A coordinator for `shards` shards over the given region map.
    pub fn new(shards: usize, region_of: Vec<usize>, epoch0: u64) -> Coordinator {
        Coordinator {
            shards,
            region_of: Mutex::new(std::sync::Arc::new(region_of)),
            region_version: AtomicU64::new(0),
            epoch: AtomicU64::new(epoch0),
            drain_epoch: AtomicU64::new(NO_EPOCH),
            quiesced: AtomicUsize::new(0),
            unfinished: AtomicUsize::new(shards),
            drain_failed: std::sync::atomic::AtomicBool::new(false),
        }
    }

    /// The current cloudlet→shard region map (cheap: one lock + `Arc`
    /// clone). Loops should call this once and index the returned map.
    pub fn region_map(&self) -> std::sync::Arc<Vec<usize>> {
        lock_ok(&self.region_of).clone()
    }

    /// Region (owning shard at boot) of cloudlet `c` under the current
    /// map; unknown cloudlets report region 0 (panic-free, mirroring
    /// [`Router::owner`] clamping).
    pub fn region_of(&self, c: usize) -> usize {
        self.region_map().get(c).copied().unwrap_or(0)
    }

    /// Monotonic version of the region map (0 at boot, +1 per swap).
    pub fn region_version(&self) -> u64 {
        self.region_version.load(Ordering::Acquire)
    }

    /// Installs a new region map and returns the new version. The caller
    /// must have validated `map` (length = cloudlets, every shard
    /// `0..self.shards` non-empty) — see `region_map`.
    pub fn swap_region_map(&self, map: Vec<usize>) -> u64 {
        *lock_ok(&self.region_of) = std::sync::Arc::new(map);
        self.region_version.fetch_add(1, Ordering::AcqRel) + 1
    }

    /// Allocates the next snapshot epoch.
    pub fn next_epoch(&self) -> u64 {
        self.epoch.fetch_add(1, Ordering::Relaxed) + 1
    }

    /// The drain epoch, assigning it on first call (any thread may race;
    /// exactly one allocation wins and everyone sees it).
    pub fn drain_epoch(&self) -> u64 {
        let cur = self.drain_epoch.load(Ordering::Acquire);
        if cur != NO_EPOCH {
            return cur;
        }
        let fresh = self.next_epoch();
        match self.drain_epoch.compare_exchange(
            NO_EPOCH,
            fresh,
            Ordering::AcqRel,
            Ordering::Acquire,
        ) {
            Ok(_) => fresh,
            Err(winner) => winner,
        }
    }

    /// Marks the calling shard as quiesced (no further cross-shard sends
    /// will originate from it during the drain).
    pub fn arrive_quiesced(&self) {
        self.quiesced.fetch_add(1, Ordering::AcqRel);
    }

    /// `true` once every shard has quiesced.
    pub fn all_quiesced(&self) -> bool {
        self.quiesced.load(Ordering::Acquire) >= self.shards
    }

    /// Marks the calling shard's final snapshot as written; returns
    /// `true` for the last shard (which writes the manifest).
    pub fn arrive_finished(&self) -> bool {
        self.unfinished.fetch_sub(1, Ordering::AcqRel) == 1
    }

    /// Records that some shard failed to write its final slice.
    pub fn mark_drain_failed(&self) {
        self.drain_failed.store(true, Ordering::Release);
    }

    /// `true` if any shard failed its final slice (no manifest then).
    pub fn drain_failed(&self) -> bool {
        self.drain_failed.load(Ordering::Acquire)
    }
}

/// What a two-phase coordinated operation does in its apply phase.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CoordKind {
    /// Write a consistent multi-shard snapshot set.
    Snapshot,
    /// Rewind every shard to the newest consistent snapshot set.
    Restore,
}

/// One in-flight coordinated snapshot/restore: prepare fan-out, apply
/// fan-out, and the single client reply.
///
/// Shards interact through [`CoordOp::ack_prepare`] /
/// [`CoordOp::ack_apply`]; whichever shard arrives last at each barrier
/// drives the next step (enqueue the apply fan-out; write the manifest
/// and answer the client).
pub struct CoordOp {
    /// Snapshot vs. restore.
    pub kind: CoordKind,
    /// Coordinator epoch stamped on every file of the set (snapshot), or
    /// a dispatch stamp (restore).
    pub epoch: u64,
    /// Number of participating shards (recorded in the manifest).
    pub shards: usize,
    prepare_left: AtomicUsize,
    apply_left: AtomicUsize,
    /// Client reply, taken by the shard that completes the apply phase.
    reply: Mutex<Option<crate::market::Reply>>,
    /// Errors collected across shards; a non-empty set fails the op.
    errors: Mutex<Vec<String>>,
    /// Restored seq, maxed across shards (restore only).
    seq: AtomicU64,
}

impl CoordOp {
    /// A fresh op awaiting `shards` prepare-acks and apply-acks.
    pub fn new(kind: CoordKind, epoch: u64, shards: usize, reply: crate::market::Reply) -> CoordOp {
        CoordOp {
            kind,
            epoch,
            shards,
            prepare_left: AtomicUsize::new(shards),
            apply_left: AtomicUsize::new(shards),
            reply: Mutex::new(Some(reply)),
            errors: Mutex::new(Vec::new()),
            seq: AtomicU64::new(0),
        }
    }

    /// Acks the prepare phase; `true` for the last shard, which must
    /// enqueue the apply fan-out to every shard.
    pub fn ack_prepare(&self) -> bool {
        self.prepare_left.fetch_sub(1, Ordering::AcqRel) == 1
    }

    /// Acks the apply phase; `true` for the last shard, which writes the
    /// manifest (snapshot) and answers the client.
    pub fn ack_apply(&self) -> bool {
        self.apply_left.fetch_sub(1, Ordering::AcqRel) == 1
    }

    /// Records a shard-local failure of this op.
    pub fn push_error(&self, msg: String) {
        lock_ok(&self.errors).push(msg);
    }

    /// Folds a restored shard seq into the op (client sees the max).
    pub fn fold_seq(&self, seq: u64) {
        self.seq.fetch_max(seq, Ordering::AcqRel);
    }

    /// The folded restore seq.
    pub fn seq(&self) -> u64 {
        self.seq.load(Ordering::Acquire)
    }

    /// Takes the accumulated errors (empty means success).
    pub fn take_errors(&self) -> Vec<String> {
        std::mem::take(&mut *lock_ok(&self.errors))
    }

    /// Takes the client reply (present exactly once).
    pub fn take_reply(&self) -> Option<crate::market::Reply> {
        lock_ok(&self.reply).take()
    }
}

/// Coordinated shutdown: every shard acks the drain announcement, then
/// quiesces cross-shard traffic, then finishes independently.
pub struct DrainOp {
    ack_left: AtomicUsize,
    reply: Mutex<Option<crate::market::Reply>>,
}

impl DrainOp {
    /// A drain op awaiting `shards` acks before announcing `Draining`.
    pub fn new(shards: usize, reply: crate::market::Reply) -> DrainOp {
        DrainOp {
            ack_left: AtomicUsize::new(shards),
            reply: Mutex::new(Some(reply)),
        }
    }

    /// Acks the drain; `true` for the last shard, which sends the single
    /// `Draining` response (the event loop stops accepting on it).
    pub fn ack(&self) -> bool {
        self.ack_left.fetch_sub(1, Ordering::AcqRel) == 1
    }

    /// Takes the client reply.
    pub fn take_reply(&self) -> Option<crate::market::Reply> {
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

/// Boot state recovered from disk (or a fresh market): the merged global
/// market, placements, admission mask, the seq of each restored slice,
/// the epoch to seed the snapshot coordinator with, and any per-provider
/// ownership claims a sharded snapshot set recorded.
pub(crate) struct BootState {
    pub(crate) market: Market,
    profile: Profile,
    active: Vec<bool>,
    /// Seq of each slice of a restored set, in shard order; one entry for
    /// a fresh boot or a whole-market file.
    seqs: Vec<u64>,
    epoch0: u64,
    claim: Vec<Option<usize>>,
}

impl BootState {
    /// A fresh all-remote boot from `market`.
    pub(crate) fn fresh(market: Market) -> BootState {
        let n = market.provider_count();
        BootState::whole(market, Profile::all_remote(n), vec![false; n], 0)
    }

    fn whole(market: Market, profile: Profile, active: Vec<bool>, seq: u64) -> BootState {
        let n = market.provider_count();
        BootState {
            market,
            profile,
            active,
            seqs: vec![seq],
            epoch0: 0,
            claim: vec![None; n],
        }
    }

    /// Restores boot state from `path` if a snapshot exists there: either
    /// a sharded manifest (merge every slice of the newest consistent set)
    /// or a whole-market file. No snapshot means a fresh all-remote boot
    /// from the caller's market.
    pub(crate) fn load(market: Market, path: Option<&Path>) -> std::io::Result<BootState> {
        let Some(path) = path.filter(|p| p.exists()) else {
            return Ok(BootState::fresh(market));
        };
        let text = std::fs::read_to_string(path)?;
        let Some(manifest) = parse_manifest(&text) else {
            // Whole-market snapshot: the file *is* the market state.
            let snap = load_snapshot(path).map_err(|e| restore_err(path, &e))?;
            return Ok(BootState::whole(
                snap.market,
                snap.profile,
                snap.active,
                snap.seq,
            ));
        };
        let mut slices = Vec::with_capacity(manifest.shards);
        for k in 0..manifest.shards {
            let slice_path = shard_snapshot_path(path, manifest.epoch, k);
            slices.push(load_snapshot(&slice_path).map_err(|e| restore_err(&slice_path, &e))?);
        }
        Ok(BootState::merge_slices(slices, manifest.epoch))
    }

    /// Merges the slices of one coordinated snapshot set into a global
    /// boot state. Each slice is authoritative for the providers its
    /// ownership mask claims: their placement, admission flag, and demand
    /// vector come from the owning slice (each shard's market copy tracks
    /// `update`s only for its own providers). Claim conflicts — possible
    /// when a crash lands between a join-forward's ownership transfer and
    /// the peer's slice write — resolve in favor of an *active* claim: the
    /// claimant actually holding the provider in its game state is
    /// unique, because migrations are quiesced while slices are written.
    fn merge_slices(slices: Vec<MarketSnapshot>, epoch: u64) -> BootState {
        let mut slices = slices.into_iter();
        // The manifest loader rejects empty snapshot sets before this call.
        // lint: allow(panics)
        let first = slices.next().expect("manifest guarantees >= 1 shard");
        let n = first.market.provider_count();
        let mut out = BootState {
            seqs: Vec::new(),
            epoch0: epoch,
            ..BootState::fresh(first.market.clone())
        };
        let mut fold = |k: usize, snap: &MarketSnapshot| {
            out.seqs.push(snap.seq);
            let Some(meta) = snap.shard.as_ref() else {
                return;
            };
            for p in 0..n {
                if !meta.owned.get(p).copied().unwrap_or(false) {
                    continue;
                }
                if out.claim[p].is_some() && (out.active[p] || !snap.active[p]) {
                    // Keep an active claim; an inactive double-claim is a
                    // converged Remote/inactive copy on both sides.
                    continue;
                }
                out.claim[p] = Some(k);
                out.active[p] = snap.active[p];
                out.profile
                    .set(ProviderId(p), snap.profile.placement(ProviderId(p)));
                let spec = snap.market.provider(ProviderId(p));
                out.market.set_provider_demand(
                    ProviderId(p),
                    spec.compute_demand,
                    spec.bandwidth_demand,
                );
            }
        };
        fold(0, &first);
        for (k, snap) in slices.enumerate() {
            fold(k + 1, &snap);
        }
        out
    }
}

fn restore_err(path: &Path, e: &dyn std::fmt::Display) -> std::io::Error {
    std::io::Error::new(
        std::io::ErrorKind::InvalidData,
        format!("restoring {}: {e}", path.display()),
    )
}

/// One booted set of shard writers and everything they share with the
/// I/O side: the command queues, the router, the published views, the
/// gauges, the coordinator and the I/O-liveness counter. The daemon, the
/// drain bench and the trace replay all boot their writers here.
///
/// Every shard's first view is published before [`ShardSet::boot`]
/// returns, so a reader never sees a pre-boot view. The writers start
/// only on [`ShardSet::start`], so a caller can preload their queues
/// first.
pub(crate) struct ShardSet {
    /// Command queue of each shard.
    pub(crate) txs: Vec<Sender<Command>>,
    /// Published view of each shard.
    pub(crate) views: Vec<Arc<SharedView>>,
    /// Provider→shard ownership map.
    pub(crate) router: Arc<Router>,
    /// Per-shard depth/write/migration gauges.
    pub(crate) gauges: Arc<ShardGauges>,
    /// Region map, epochs and drain barriers.
    pub(crate) coord: Arc<Coordinator>,
    /// Live I/O-side senders; every writer drains once it reaches zero.
    pub(crate) io_live: Arc<AtomicUsize>,
    /// Writers not yet started, each with its queue.
    idle: Vec<(Shard, Receiver<Command>)>,
    /// Started writer threads.
    running: Vec<JoinHandle<MarketOutcome>>,
}

impl ShardSet {
    /// Boots `shards` writers (clamped to the cloudlet count) over
    /// `boot`. `regions` is the cloudlet→shard map (`None` derives a
    /// contiguous split); `io_senders` counts the I/O-side senders whose
    /// exit drains the set (an in-process driver counts as one until it
    /// calls [`ShardSet::shutdown`]).
    ///
    /// # Errors
    ///
    /// Returns an invalid region map as `InvalidInput`.
    pub(crate) fn boot(
        boot: BootState,
        shards: usize,
        regions: Option<&Vec<usize>>,
        queue_cap: usize,
        snapshot_path: Option<PathBuf>,
        demand: Arc<DemandTracker>,
        io_senders: usize,
    ) -> std::io::Result<ShardSet> {
        let BootState {
            market,
            profile,
            active,
            seqs,
            epoch0,
            claim,
        } = boot;
        let n = market.provider_count();
        let m = market.cloudlet_count();
        let shards = shards.clamp(1, m.max(1));
        let region_of = region_map(regions, m, shards)?;
        let router = Arc::new(Router::new(n, shards));
        for (p, &claimed) in claim.iter().enumerate() {
            // Restored/derived ownership: a cached provider belongs to its
            // cloudlet's region (capacity is accounted there); a remote
            // one keeps its snapshot claim when still valid, else its home
            // shard.
            let owner = match profile.placement(ProviderId(p)) {
                Placement::Cloudlet(c) => region_of[c.index()],
                Placement::Remote => claimed.filter(|&k| k < shards).unwrap_or(p % shards),
            };
            router.set_owner(p, owner);
        }
        let views: Vec<Arc<SharedView>> = (0..shards)
            .map(|_| Arc::new(SharedView::new(MarketView::empty(n))))
            .collect();
        let gauges = Arc::new(ShardGauges::new(shards));
        let coord = Arc::new(Coordinator::new(shards, region_of.clone(), epoch0));
        let io_live = Arc::new(AtomicUsize::new(io_senders));
        let (txs, rxs): (Vec<_>, Vec<_>) = (0..shards).map(|_| chan::bounded(queue_cap)).unzip();
        let newest = seqs.iter().copied().max().unwrap_or(0);
        let mut idle = Vec::with_capacity(shards);
        for (k, rx) in rxs.into_iter().enumerate() {
            // This shard's slice of the boot state: owned providers carry
            // their restored placement and admission flag, everyone else
            // is Remote/inactive (their owner's slice carries them).
            let mut shard_profile = Profile::all_remote(n);
            let mut shard_active = vec![false; n];
            for p in (0..n).filter(|&p| router.owner(p) == k) {
                shard_active[p] = active[p];
                shard_profile.set(ProviderId(p), profile.placement(ProviderId(p)));
            }
            // A set restored at this shard count resumes each shard at its
            // own slice's seq, as a live restore does; a whole-market file
            // or a re-partitioned set starts every shard at the newest.
            let seq = if seqs.len() == shards {
                seqs[k]
            } else {
                newest
            };
            let ctx = ShardCtx {
                index: k,
                shards,
                mine: region_of.iter().map(|&r| r == k).collect(),
                router: router.clone(),
                peers: txs.clone(),
                views: views.clone(),
                coord: coord.clone(),
                gauges: gauges.clone(),
                io_live: io_live.clone(),
                demand: demand.clone(),
                snapshot_path: snapshot_path.clone(),
                publish_probe: publish_probe(k, shards),
            };
            let state = GameState::owned(market.clone(), shard_profile);
            let shard = Shard::new(state, shard_active, seq, ctx);
            shard.publish();
            idle.push((shard, rx));
        }
        Ok(ShardSet {
            txs,
            views,
            router,
            gauges,
            coord,
            io_live,
            idle,
            running: Vec::new(),
        })
    }

    /// Starts one writer thread per shard; each runs `on_exit` on its own
    /// thread once it has drained.
    pub(crate) fn start(&mut self, on_exit: impl Fn() + Clone + Send + 'static) {
        for (shard, rx) in self.idle.drain(..) {
            let on_exit = on_exit.clone();
            // The shard's writer thread: owns its region for its whole
            // life. Intentionally a raw thread, not the bench pool — it
            // outlives any scope and is joined through `join`.
            // lint: allow(thread-spawn)
            self.running.push(std::thread::spawn(move || {
                let outcome = shard.run(&rx);
                on_exit();
                outcome
            }));
        }
    }

    /// Drains the set on behalf of an in-process driver: one `DrainAll`
    /// member per queue, after which the driver no longer counts as an
    /// I/O sender. The returned slot receives the `draining` reply.
    pub(crate) fn shutdown(&self) -> OneReceiver<Response> {
        let (tx, rx) = chan::oneshot();
        let op = Arc::new(DrainOp::new(self.txs.len(), tx.into()));
        for q in &self.txs {
            // A writer that already exited answers nothing; its dropped
            // share releases the reply slot instead.
            let _ = q.send(Command::DrainAll { op: op.clone() });
        }
        self.io_live.fetch_sub(1, Ordering::AcqRel);
        rx
    }

    /// Waits for every writer and folds their outcomes into one. Counters
    /// sum, equilibrium ANDs, violations concatenate; a provider's
    /// placement and admission flag come from whichever shard holds it
    /// active (unique after a drain — migrations are quiesced before
    /// shards finish).
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

/// Path of shard `k`'s slice in the epoch-`epoch` snapshot set.
pub fn shard_snapshot_path(base: &Path, epoch: u64, k: usize) -> PathBuf {
    let mut os = base.as_os_str().to_os_string();
    os.push(format!(".e{epoch}.s{k}"));
    PathBuf::from(os)
}

/// A parsed snapshot-set manifest: the epoch and shard count of the
/// newest complete set.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Manifest {
    /// Epoch of the set the manifest points at.
    pub epoch: u64,
    /// Number of shard files in the set.
    pub shards: usize,
}

/// Encodes a manifest as one JSON line.
pub fn encode_manifest(m: &Manifest) -> String {
    format!(
        "{{\"type\":\"mec-manifest\",\"epoch\":{},\"shards\":{}}}\n",
        m.epoch, m.shards
    )
}

/// Parses manifest text; `None` if it is not a manifest (e.g. a plain
/// whole-market snapshot lives at the same path in 1-shard deployments).
pub fn parse_manifest(text: &str) -> Option<Manifest> {
    let first = text.lines().next()?;
    let fields = json::parse_object(first).ok()?;
    if json::get_str(&fields, "type").ok()? != "mec-manifest" {
        return None;
    }
    let epoch = json::get_u64(&fields, "epoch").ok()?;
    let shards = json::get_usize(&fields, "shards").ok()?;
    (shards > 0).then_some(Manifest { epoch, shards })
}

/// Atomically writes the manifest at `base` (tmp + fsync + rename, the
/// same discipline as the snapshot files it points at), then garbage
/// collects shard files from older epochs.
///
/// # Errors
///
/// Returns the I/O error if the write fails; GC failures are ignored
/// (stale files are harmless, the manifest is authoritative).
pub fn write_manifest(base: &Path, m: &Manifest) -> std::io::Result<()> {
    use std::io::Write;
    let mut tmp = base.as_os_str().to_os_string();
    tmp.push(".tmp");
    let tmp = PathBuf::from(tmp);
    {
        let mut f = std::fs::File::create(&tmp)?;
        f.write_all(encode_manifest(m).as_bytes())?;
        f.sync_all()?;
    }
    std::fs::rename(&tmp, base)?;
    gc_older_epochs(base, m.epoch);
    Ok(())
}

/// Removes `<base>.e<E>.s<k>` files with `E < keep_epoch`.
fn gc_older_epochs(base: &Path, keep_epoch: u64) {
    let Some(dir) = base.parent() else { return };
    let dir = if dir.as_os_str().is_empty() {
        Path::new(".")
    } else {
        dir
    };
    let Some(stem) = base.file_name().and_then(|s| s.to_str()) else {
        return;
    };
    let Ok(entries) = std::fs::read_dir(dir) else {
        return;
    };
    for entry in entries.flatten() {
        let name = entry.file_name();
        let Some(name) = name.to_str() else { continue };
        let Some(rest) = name.strip_prefix(stem).and_then(|r| r.strip_prefix(".e")) else {
            continue;
        };
        // `<epoch>.s<k>` — parse the epoch, ignore anything else.
        let Some((epoch, _)) = rest.split_once(".s") else {
            continue;
        };
        if epoch.parse::<u64>().is_ok_and(|e| e < keep_epoch) {
            let _ = std::fs::remove_file(entry.path());
        }
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
    fn manifest_round_trip_and_plain_snapshot_rejection() {
        let m = Manifest {
            epoch: 12,
            shards: 4,
        };
        assert_eq!(parse_manifest(&encode_manifest(&m)), Some(m));
        assert_eq!(
            parse_manifest("{\"type\":\"mec-snapshot\",\"version\":1}"),
            None
        );
        assert_eq!(parse_manifest(""), None);
        assert_eq!(
            parse_manifest("{\"type\":\"mec-manifest\",\"epoch\":1,\"shards\":0}"),
            None
        );
    }

    #[test]
    fn manifest_write_gcs_older_epochs_only() {
        let dir = std::env::temp_dir().join(format!("mec-shard-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let base = dir.join("state.snap");
        for (e, k) in [(1u64, 0usize), (1, 1), (2, 0), (2, 1)] {
            std::fs::write(shard_snapshot_path(&base, e, k), "x").unwrap();
        }
        write_manifest(
            &base,
            &Manifest {
                epoch: 2,
                shards: 2,
            },
        )
        .unwrap();
        assert!(!shard_snapshot_path(&base, 1, 0).exists());
        assert!(!shard_snapshot_path(&base, 1, 1).exists());
        assert!(shard_snapshot_path(&base, 2, 0).exists());
        assert!(shard_snapshot_path(&base, 2, 1).exists());
        assert_eq!(
            parse_manifest(&std::fs::read_to_string(&base).unwrap()),
            Some(Manifest {
                epoch: 2,
                shards: 2
            })
        );
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn coord_op_barriers_fire_exactly_once() {
        let (tx, _rx) = crate::chan::oneshot();
        let op = CoordOp::new(CoordKind::Snapshot, 3, 3, tx.into());
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
    fn region_map_swaps_bump_version_and_reroute() {
        let c = Coordinator::new(2, vec![0, 1], 0);
        assert_eq!(c.region_version(), 0);
        assert_eq!(c.region_of(0), 0);
        assert_eq!(c.region_of(1), 1);
        assert_eq!(c.region_of(99), 0, "unknown cloudlets clamp to region 0");
        assert_eq!(c.swap_region_map(vec![1, 0]), 1);
        assert_eq!(c.region_version(), 1);
        assert_eq!(c.region_of(0), 1);
        assert_eq!(*c.region_map(), vec![1, 0]);
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

    #[test]
    fn drain_epoch_is_assigned_once() {
        let c = Coordinator::new(2, vec![0, 1], 5);
        let e = c.drain_epoch();
        assert_eq!(e, 6);
        assert_eq!(c.drain_epoch(), e, "second caller sees the same epoch");
        assert!(c.next_epoch() > e);
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
    use crate::chan;
    use std::time::Duration;

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
                let mut buf = Vec::new();
                grant_rx
                    .recv_batch(&mut buf, 1, Some(Duration::from_secs(5)))
                    .expect("grant must arrive");
                let granted = buf[0];
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
            let mut buf = Vec::new();
            // Expected messages: Reserve + Join, plus Commit iff granted.
            let mut expect = 2usize;
            let mut seen = 0usize;
            while seen < expect {
                let (n, _depth) = target_rx
                    .recv_batch(&mut buf, 4, Some(Duration::from_secs(5)))
                    .expect("all protocol messages must arrive");
                seen += n;
                for msg in buf.drain(..) {
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
