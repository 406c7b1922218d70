//! Demand observation: the bridge between the I/O side (which sees
//! queries) and the shard writers (which decide placement).
//!
//! Queries never reach a market thread — they are answered from the
//! published [`crate::view::MarketView`] — so the writers would be blind
//! to *where the requests actually go*. A [`DemandTracker`] closes the
//! loop: the I/O threads [`DemandTracker::note`] every query at
//! answer time (one relaxed atomic increment), and each writer folds the
//! accumulated counts into per-provider EWMAs at the start of every
//! maintenance quantum, then scans providers **hottest first**.
//!
//! The scan order is the only thing demand influences. Best responses
//! stay exact (Eq. 3 against the true residuals), so every placement the
//! dynamics settle on is still a Nash equilibrium of the caching game —
//! demand just picks *which* equilibrium the bounded quanta reach first,
//! biasing scarce cloudlet capacity toward the services that are
//! actually being asked for. When no demand has been observed the order
//! degrades to the legacy round-robin rotation, so demand-free
//! deployments behave exactly as before.

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
    /// last take. Zero for out-of-range ids.
    #[inline]
    pub fn take(&self, provider: usize) -> u64 {
        self.counts
            .get(provider)
            .map_or(0, |c| c.swap(0, Ordering::Relaxed))
    }
}

/// The provider scan order for one maintenance quantum over `n`
/// providers: hottest first by EWMA (ties broken by index, so the order
/// is total and deterministic), or — when nothing has been observed at
/// all — the legacy round-robin rotation starting at `cursor`.
pub fn demand_order(n: usize, ewma: &[f64], cursor: usize) -> Vec<usize> {
    let any_demand = ewma.iter().take(n).any(|&e| e > 0.0);
    if any_demand {
        let mut order: Vec<usize> = (0..n).collect();
        // Descending by EWMA; missing entries sort as cold.
        order.sort_by(|&a, &b| {
            let ea = ewma.get(a).copied().unwrap_or(0.0);
            let eb = ewma.get(b).copied().unwrap_or(0.0);
            eb.total_cmp(&ea).then(a.cmp(&b))
        });
        order
    } else {
        let start = if n == 0 { 0 } else { cursor % n };
        (start..n).chain(0..start).collect()
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

    #[test]
    fn order_without_demand_is_cursor_rotation() {
        assert_eq!(demand_order(4, &[0.0; 4], 0), vec![0, 1, 2, 3]);
        assert_eq!(demand_order(4, &[0.0; 4], 2), vec![2, 3, 0, 1]);
        assert_eq!(demand_order(4, &[0.0; 4], 6), vec![2, 3, 0, 1]);
        assert!(demand_order(0, &[], 3).is_empty());
    }

    #[test]
    fn order_with_demand_is_hottest_first() {
        let ewma = [0.5, 4.0, 0.0, 4.0];
        // Ties (1 vs 3) break by index; cold providers trail.
        assert_eq!(demand_order(4, &ewma, 2), vec![1, 3, 0, 2]);
    }

    #[test]
    fn order_tolerates_short_ewma_slice() {
        // A rebuilt book may briefly carry fewer entries than providers.
        assert_eq!(demand_order(3, &[2.0], 0), vec![0, 1, 2]);
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
