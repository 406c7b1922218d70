//! Demand observation: the bridge between the I/O side (which sees
//! queries) and the shard writers (which decide placement).
//!
//! Queries never reach a market thread — they are answered from the
//! published [`crate::view::MarketView`] — so the writers would be blind
//! to *where the requests actually go*. A [`DemandTracker`] closes the
//! loop: the I/O threads [`DemandTracker::note`] every query at
//! answer time (one relaxed atomic increment), and each writer folds the
//! accumulated counts into per-provider EWMAs at the start of every
//! maintenance quantum, then re-checks its *candidates* — the providers
//! the quantum's dirt says could have an improving move — **hottest
//! first**.
//!
//! The scan order is the only thing demand influences. Best responses
//! stay exact (Eq. 3 against the true residuals), so every placement the
//! dynamics settle on is still a Nash equilibrium of the caching game —
//! demand just picks *which* equilibrium the bounded quanta reach first,
//! biasing scarce cloudlet capacity toward the services that are
//! actually being asked for. When no candidate has been observed the
//! order degrades to a round-robin rotation from the writer's cursor,
//! so demand-free deployments are scanned fairly.

use std::sync::atomic::{AtomicU64, Ordering};

/// Smoothing factor for the per-provider request-rate EWMAs folded once
/// per maintenance quantum: `ewma ← (1 − α)·ewma + α·count`. At 0.25 a
/// flash crowd dominates the ordering within ~3 quanta and fades within
/// ~8 quiet ones.
pub const DEMAND_EWMA_ALPHA: f64 = 0.25;

/// Lock-free per-provider query counters, shared by every I/O thread and
/// every shard writer. Writers drain counts with [`DemandTracker::take`]
/// (swap-to-zero), so each observation is folded exactly once even
/// though readers and writers race freely.
#[derive(Debug)]
pub struct DemandTracker {
    counts: Vec<AtomicU64>,
}

impl DemandTracker {
    /// A tracker covering `providers` services, all counts zero.
    pub fn new(providers: usize) -> DemandTracker {
        DemandTracker {
            counts: (0..providers).map(|_| AtomicU64::new(0)).collect(),
        }
    }

    /// An empty tracker: every [`DemandTracker::note`] is ignored and
    /// every [`DemandTracker::take`] returns zero. The drain benchmark,
    /// which has no I/O side to note queries, boots its writers with this
    /// so the hot-first ordering stays inert.
    pub fn disabled() -> DemandTracker {
        DemandTracker::new(0)
    }

    /// Number of tracked providers.
    pub fn len(&self) -> usize {
        self.counts.len()
    }

    /// `true` when the tracker covers no providers (see
    /// [`DemandTracker::disabled`]).
    pub fn is_empty(&self) -> bool {
        self.counts.is_empty()
    }

    /// Records one observed request for `provider`. Out-of-range ids are
    /// ignored (queries for unknown providers carry no demand signal).
    #[inline]
    pub fn note(&self, provider: usize) {
        if let Some(c) = self.counts.get(provider) {
            c.fetch_add(1, Ordering::Relaxed);
        }
    }

    /// Drains and returns the count accumulated for `provider` since the
    /// last take. Zero for out-of-range ids. A zero counter is only read:
    /// the swap (a locked write) is paid only when there is a count to
    /// drain.
    #[inline]
    pub fn take(&self, provider: usize) -> u64 {
        self.counts.get(provider).map_or(0, |c| {
            if c.load(Ordering::Relaxed) == 0 {
                0
            } else {
                c.swap(0, Ordering::Relaxed)
            }
        })
    }
}

/// Sorts `order` — a maintenance pass's candidate providers, in
/// ascending id order — into its scan order: hottest first by EWMA (ties
/// broken by id, so the order is total and deterministic), or, when no
/// candidate has been observed at all, the round-robin rotation that
/// starts at the first candidate at or after `cursor`. Passing every id
/// `0..n` gives the full-sweep order.
pub fn demand_order(order: &mut [usize], ewma: &[f64], cursor: usize) {
    let heat = |p: usize| ewma.get(p).copied().unwrap_or(0.0);
    if order.iter().any(|&p| heat(p) > 0.0) {
        // Descending by EWMA; missing entries sort as cold.
        order.sort_by(|&a, &b| heat(b).total_cmp(&heat(a)).then(a.cmp(&b)));
    } else {
        let start = order.partition_point(|&p| p < cursor);
        order.rotate_left(start);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn note_take_roundtrip() {
        let t = DemandTracker::new(3);
        t.note(1);
        t.note(1);
        t.note(2);
        t.note(99); // ignored
        assert_eq!(t.take(0), 0);
        assert_eq!(t.take(1), 2);
        assert_eq!(t.take(1), 0, "take drains");
        assert_eq!(t.take(2), 1);
        assert_eq!(t.take(99), 0);
    }

    #[test]
    fn disabled_tracker_is_inert() {
        let t = DemandTracker::disabled();
        assert!(t.is_empty());
        t.note(0);
        assert_eq!(t.take(0), 0);
    }

    fn order(n: usize, ewma: &[f64], cursor: usize) -> Vec<usize> {
        let mut order: Vec<usize> = (0..n).collect();
        demand_order(&mut order, ewma, cursor);
        order
    }

    #[test]
    fn order_without_demand_is_cursor_rotation() {
        assert_eq!(order(4, &[0.0; 4], 0), vec![0, 1, 2, 3]);
        assert_eq!(order(4, &[0.0; 4], 2), vec![2, 3, 0, 1]);
        // A cursor past every candidate wraps to the first.
        assert_eq!(order(4, &[0.0; 4], 6), vec![0, 1, 2, 3]);
        assert!(order(0, &[], 3).is_empty());
        // A candidate subset rotates at the first id at or after the
        // cursor.
        let mut subset = vec![0, 2, 3];
        demand_order(&mut subset, &[0.0; 4], 1);
        assert_eq!(subset, vec![2, 3, 0]);
    }

    #[test]
    fn order_with_demand_is_hottest_first() {
        let ewma = [0.5, 4.0, 0.0, 4.0];
        // Ties (1 vs 3) break by index; cold providers trail.
        assert_eq!(order(4, &ewma, 2), vec![1, 3, 0, 2]);
        // Only the candidates' heat counts: a cold subset rotates.
        let mut cold = vec![0, 2];
        demand_order(&mut cold, &[0.0, 4.0, 0.0], 1);
        assert_eq!(cold, vec![2, 0]);
    }

    #[test]
    fn order_tolerates_short_ewma_slice() {
        // A rebuilt book may briefly carry fewer entries than providers.
        assert_eq!(order(3, &[2.0], 0), vec![0, 1, 2]);
    }

    #[test]
    fn tracker_is_shared_across_threads() {
        use std::sync::Arc;
        let t = Arc::new(DemandTracker::new(1));
        let mut handles = Vec::new();
        for _ in 0..4 {
            let t = t.clone();
            // Short-lived probe threads, joined below. lint: allow(thread-spawn)
            handles.push(std::thread::spawn(move || {
                for _ in 0..1000 {
                    t.note(0);
                }
            }));
        }
        for h in handles {
            h.join().unwrap();
        }
        assert_eq!(t.take(0), 4000);
    }
}
