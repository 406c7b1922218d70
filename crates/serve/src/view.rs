//! Immutable market snapshots for reader threads.
//!
//! The market thread is the only writer; readers (connection threads
//! answering `query`/`stats`) never touch it. The market thread publishes
//! a fresh [`MarketView`] into a [`SharedView`] — a hand-rolled arc-swap
//! built from `Mutex<Arc<_>>` — once per drained batch (including the
//! maintenance quantum a batch that empties the queue runs before it
//! publishes) and once per quantum run in an idle gap. Readers take the lock only long enough to clone
//! the `Arc` (two reference-count bumps), then answer any number of
//! requests from the immutable snapshot without contending with the
//! writer.
//!
//! A publish does not build its view from scratch: it rewrites the view
//! the previous publish replaced (two publishes old, and by then
//! normally released by every reader), patching only the entries the
//! writes of those two intervals touched. Every view a reader loads is
//! still complete and immutable; the patching happens before the swap.

use std::sync::{Arc, Mutex};

use mec_core::Placement;

/// One immutable published state of the market: everything a reader
/// needs to answer `query` and `stats` without the market thread.
#[derive(Debug, Clone)]
pub struct MarketView {
    /// State version; bumped by the market thread on every mutation.
    pub seq: u64,
    /// Placement per provider (the full universe).
    pub placements: Vec<Placement>,
    /// Current cost per provider (Eq. 3 when cached, remote cost
    /// otherwise). Meaningful only while the provider is active.
    pub costs: Vec<f64>,
    /// Admission flag per provider.
    pub active: Vec<bool>,
    /// Social cost (Eq. 6) summed over the *active* providers.
    pub social_cost: f64,
    /// Congestion count per cloudlet (cached providers at each). In a
    /// sharded daemon only the publishing shard's own region carries
    /// real load; foreign regions read zero here.
    pub congestion: Vec<usize>,
    /// Residual `(compute, bandwidth)` capacity per cloudlet. Peer
    /// shards read this (plus [`MarketView::congestion`]) to estimate
    /// whether migrating a provider into the region could pay off; the
    /// estimate is advisory — admission re-checks on the owning thread.
    pub residual: Vec<(f64, f64)>,
    /// `(compute, bandwidth)` demand per provider, from the publishing
    /// shard's market copy. Feeds the admin placement drill-down.
    pub demands: Vec<(f64, f64)>,
    /// Observed request-rate EWMA per provider before the shared decay
    /// [`MarketView::demand_scale`]: provider `p`'s EWMA is
    /// `demand_raw[p] * demand_scale` ([`MarketView::demand_ewma`]). Folded
    /// from I/O-side query counts once per maintenance quantum; zero when
    /// the daemon runs without a demand tracker. In a sharded daemon only
    /// the publishing shard's own providers carry a live signal.
    pub demand_raw: Vec<f64>,
    /// The shared decay factor of [`MarketView::demand_raw`].
    pub demand_scale: f64,
    /// Equilibrium-maintenance epochs run so far.
    pub epochs: u64,
    /// Improving moves applied by those epochs.
    pub moves: u64,
    /// `true` when nothing has changed since the last maintenance pass
    /// that found no improving move: the publishing shard's active
    /// providers are at equilibrium.
    pub equilibrium: bool,
}

impl MarketView {
    /// An empty pre-boot view over `providers` providers (all remote,
    /// all inactive).
    pub fn empty(providers: usize) -> Self {
        MarketView {
            seq: 0,
            placements: vec![Placement::Remote; providers],
            costs: vec![0.0; providers],
            active: vec![false; providers],
            social_cost: 0.0,
            congestion: Vec::new(),
            residual: Vec::new(),
            demands: vec![(0.0, 0.0); providers],
            demand_raw: vec![0.0; providers],
            demand_scale: 1.0,
            epochs: 0,
            moves: 0,
            equilibrium: false,
        }
    }

    /// Provider `p`'s observed request-rate EWMA (zero for an unknown
    /// id).
    pub fn demand_ewma(&self, p: usize) -> f64 {
        self.demand_raw
            .get(p)
            .map_or(0.0, |r| r * self.demand_scale)
    }

    /// Providers currently admitted.
    pub fn active_count(&self) -> usize {
        self.active.iter().filter(|a| **a).count()
    }

    /// Providers currently cached at some cloudlet.
    pub fn cached_count(&self) -> usize {
        self.placements
            .iter()
            .filter(|p| matches!(p, Placement::Cloudlet(_)))
            .count()
    }
}

/// A swappable `Arc<MarketView>`: single writer, many readers.
///
/// The vendored tree has no lock-free arc-swap, so this is the simplest
/// correct substitute: readers hold the mutex for an `Arc::clone` only,
/// never across their actual work.
#[derive(Debug)]
pub struct SharedView {
    inner: Mutex<Arc<MarketView>>,
}

impl SharedView {
    /// Creates a shared view seeded with `view`.
    pub fn new(view: MarketView) -> Self {
        SharedView {
            inner: Mutex::new(Arc::new(view)),
        }
    }

    /// Snapshot the current view (cheap: one `Arc` clone under the lock).
    pub fn load(&self) -> Arc<MarketView> {
        // A poisoned lock still guards a structurally valid Arc: the
        // writer replaces the whole Arc atomically under the lock.
        self.inner.lock().unwrap_or_else(|e| e.into_inner()).clone()
    }

    /// Publishes a new view (writer side) and hands back the one it
    /// replaced, so the writer can drop it — or reuse its buffers — outside
    /// the lock.
    pub fn store(&self, view: MarketView) -> Arc<MarketView> {
        let view = Arc::new(view);
        std::mem::replace(
            &mut *self.inner.lock().unwrap_or_else(|e| e.into_inner()),
            view,
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn load_sees_latest_store() {
        let shared = SharedView::new(MarketView::empty(3));
        assert_eq!(shared.load().seq, 0);
        let mut v = MarketView::empty(3);
        v.seq = 7;
        v.active[1] = true;
        shared.store(v);
        let got = shared.load();
        assert_eq!(got.seq, 7);
        assert_eq!(got.active_count(), 1);
    }

    #[test]
    fn old_snapshots_stay_valid_after_swap() {
        let shared = SharedView::new(MarketView::empty(2));
        let old = shared.load();
        let mut v = MarketView::empty(2);
        v.seq = 1;
        shared.store(v);
        // The reader that grabbed the old Arc still sees a coherent state.
        assert_eq!(old.seq, 0);
        assert_eq!(shared.load().seq, 1);
    }

    #[test]
    fn counts_distinguish_cached_from_active() {
        use mec_topology::CloudletId;
        let mut v = MarketView::empty(3);
        v.active = vec![true, true, false];
        v.placements[0] = Placement::Cloudlet(CloudletId(0));
        // Provider 1 is active but parked remotely (evicted).
        assert_eq!(v.active_count(), 2);
        assert_eq!(v.cached_count(), 1);
    }
}
