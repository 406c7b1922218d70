//! Demand observation: the bridge between the I/O side (which sees
//! queries) and the shard writers (which decide placement).
//!
//! Queries never reach a market thread — they are answered from the
//! published [`crate::view::MarketView`] — so the writers would be blind
//! to *where the requests actually go*. A [`DemandTracker`] closes the
//! loop: the I/O threads [`DemandTracker::note`] every query at
//! answer time (one relaxed atomic increment, plus one bit set in a
//! summary bitmap when the provider's counter leaves zero), and each
//! writer [`DemandTracker::drain`]s the providers the bitmap names into
//! its per-provider EWMAs (`DemandEwma`) at the start of every
//! maintenance quantum, then re-checks its *candidates* — the providers
//! the quantum's dirt says could have an improving move — **hottest
//! first**.
//!
//! A fold costs what was noted, not the provider count: the drain reads
//! one bitmap word per 64 providers and touches only the noted counters,
//! and the EWMAs share one decay factor, so the quiet majority decays in
//! `O(1)` per quantum.
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

use crate::chan::fuzz;

/// Smoothing factor for the per-provider request-rate EWMAs folded once
/// per maintenance quantum: `ewma ← (1 − α)·ewma + α·count`. At 0.25 a
/// flash crowd dominates the ordering within ~3 quanta and fades within
/// ~8 quiet ones.
pub const DEMAND_EWMA_ALPHA: f64 = 0.25;

/// Providers per summary-bitmap word.
const WORD: usize = u64::BITS as usize;

/// Lock-free per-provider query counters, shared by every I/O thread and
/// every shard writer, with a summary bitmap of the providers whose
/// counter is non-zero. Writers drain counts with
/// [`DemandTracker::drain`] (swap-to-zero), so each observation is folded
/// exactly once, by the provider's owner, even though readers and
/// writers race freely.
#[derive(Debug)]
pub struct DemandTracker {
    counts: Vec<AtomicU64>,
    /// One bit per provider, set by the note that lifts its counter off
    /// zero and cleared by the writer that takes the bit to drain it. A
    /// non-zero counter always has its bit set, a note about to set it,
    /// or a writer holding it.
    noted: Vec<AtomicU64>,
}

impl DemandTracker {
    /// A tracker covering `providers` services, all counts zero.
    pub fn new(providers: usize) -> DemandTracker {
        DemandTracker {
            counts: (0..providers).map(|_| AtomicU64::new(0)).collect(),
            noted: (0..providers.div_ceil(WORD))
                .map(|_| AtomicU64::new(0))
                .collect(),
        }
    }

    /// An empty tracker: every [`DemandTracker::note`] is ignored and
    /// every [`DemandTracker::drain`] folds nothing. The drain benchmark,
    /// which has no I/O side to note queries, boots its writers with this
    /// so the hot-first ordering stays inert.
    pub fn disabled() -> DemandTracker {
        DemandTracker::new(0)
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
        let Some(c) = self.counts.get(provider) else {
            return;
        };
        if c.fetch_add(1, Ordering::Relaxed) == 0 {
            fuzz();
            // Release pairs with the Acquire of the drain's word swap:
            // the writer that takes this bit sees the increment above.
            self.noted[provider / WORD].fetch_or(1 << (provider % WORD), Ordering::Release);
        }
    }

    /// Drains the counts of every noted provider that `owns` accepts,
    /// calling `fold(provider, count)` for each; noted providers it
    /// rejects stay noted for their owner's drain. Costs one load per 64
    /// providers plus one swap per noted provider.
    pub fn drain(&self, owns: impl Fn(usize) -> bool, mut fold: impl FnMut(usize, u64)) {
        for (w, word) in self.noted.iter().enumerate() {
            // A zero word is only read: the swap (a locked write that the
            // noting I/O threads would contend on) is paid only when there
            // is something to drain.
            if word.load(Ordering::Relaxed) == 0 {
                continue;
            }
            // AcqRel: acquires the notes' increments (see `note`) and
            // releases them on to the owner that takes a put-back bit.
            let mut bits = word.swap(0, Ordering::AcqRel);
            fuzz();
            let mut foreign = 0u64;
            while bits != 0 {
                let b = bits.trailing_zeros() as usize;
                bits &= bits - 1;
                let p = w * WORD + b;
                if owns(p) {
                    fold(p, self.counts[p].swap(0, Ordering::Relaxed));
                } else {
                    foreign |= 1 << b;
                }
            }
            if foreign != 0 {
                word.fetch_or(foreign, Ordering::Release);
            }
        }
    }
}

/// Below this the shared decay factor is folded back into the entries.
/// Far above underflow, so `α·count / scale` stays finite for any count.
const SCALE_FLOOR: f64 = 1e-100;

/// Per-provider request-rate EWMAs ([`DEMAND_EWMA_ALPHA`]) stored under
/// one shared decay factor: provider `p`'s EWMA is `raw[p] * scale`. A
/// quantum's decay multiplies `scale` alone, so it costs `O(1)` however
/// many providers there are; a noted count adds `α·count / scale` to its
/// provider's entry. Scaling by a common positive factor keeps the
/// order, so the hot-first scan sorts the raw entries directly. When
/// `scale` falls below [`SCALE_FLOOR`] it is folded back into every
/// entry (one `O(N)` pass per ~800 quanta).
#[derive(Debug, Clone)]
pub(crate) struct DemandEwma {
    raw: Vec<f64>,
    scale: f64,
}

impl DemandEwma {
    /// `providers` EWMAs, all zero.
    pub(crate) fn new(providers: usize) -> DemandEwma {
        DemandEwma {
            raw: vec![0.0; providers],
            scale: 1.0,
        }
    }

    /// Starts a quantum: every EWMA decays by `1 − α`. Returns `true`
    /// when that renormalised the scale, which rewrote every entry.
    pub(crate) fn decay(&mut self) -> bool {
        self.scale *= 1.0 - DEMAND_EWMA_ALPHA;
        if self.scale >= SCALE_FLOOR {
            return false;
        }
        for r in &mut self.raw {
            *r *= self.scale;
        }
        self.scale = 1.0;
        true
    }

    /// Adds `count` requests observed for `provider` to the quantum just
    /// decayed. Out-of-range ids are ignored.
    pub(crate) fn add(&mut self, provider: usize, count: u64) {
        if let Some(r) = self.raw.get_mut(provider) {
            *r += DEMAND_EWMA_ALPHA * count as f64 / self.scale;
        }
    }

    /// The entries before the shared scale: in the same order as the
    /// EWMAs themselves.
    pub(crate) fn raw(&self) -> &[f64] {
        &self.raw
    }

    /// The shared decay factor.
    pub(crate) fn scale(&self) -> f64 {
        self.scale
    }
}

/// Sorts `order` — a maintenance pass's candidate providers, in
/// ascending id order — into its scan order: hottest first by `heat`
/// (ties broken by id, so the order is total and deterministic), or,
/// when no candidate has been observed at all, the round-robin rotation
/// that starts at the first candidate at or after `cursor`. `heat` is any
/// order-preserving image of the EWMAs, such as the shard's unscaled
/// entries.
/// Passing every id `0..n` gives the full-sweep order.
pub fn demand_order(order: &mut [usize], heat: &[f64], cursor: usize) {
    let heat = |p: usize| heat.get(p).copied().unwrap_or(0.0);
    if order.iter().any(|&p| heat(p) > 0.0) {
        // Descending by heat; missing entries sort as cold.
        order.sort_by(|&a, &b| heat(b).total_cmp(&heat(a)).then(a.cmp(&b)));
    } else {
        let start = order.partition_point(|&p| p < cursor);
        order.rotate_left(start);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Every noted count of the providers `owns` accepts, drained.
    fn drained(t: &DemandTracker, owns: impl Fn(usize) -> bool) -> Vec<(usize, u64)> {
        let mut out = Vec::new();
        t.drain(owns, |p, c| out.push((p, c)));
        out
    }

    #[test]
    fn note_drain_roundtrip() {
        let t = DemandTracker::new(130);
        t.note(1);
        t.note(1);
        t.note(2);
        t.note(129);
        t.note(130); // ignored
        assert_eq!(drained(&t, |_| true), vec![(1, 2), (2, 1), (129, 1)]);
        assert!(drained(&t, |_| true).is_empty(), "drain empties");
        t.note(2);
        assert_eq!(drained(&t, |_| true), vec![(2, 1)]);
    }

    #[test]
    fn foreign_notes_wait_for_their_owner() {
        let t = DemandTracker::new(70);
        for p in [3, 4, 68, 69] {
            t.note(p);
        }
        let even = |p: usize| p.is_multiple_of(2);
        assert_eq!(drained(&t, even), vec![(4, 1), (68, 1)]);
        // The odd providers' notes are still there, and still counted
        // once however often another owner passes over them.
        t.note(3);
        assert!(drained(&t, even).is_empty());
        assert_eq!(drained(&t, |p| !even(p)), vec![(3, 2), (69, 1)]);
        assert!(drained(&t, |_| true).is_empty());
    }

    #[test]
    fn disabled_tracker_is_inert() {
        let t = DemandTracker::disabled();
        assert!(t.is_empty());
        t.note(0);
        assert!(drained(&t, |_| true).is_empty());
    }

    /// The shared scale gives the per-provider recurrence
    /// `e ← (1 − α)·e + α·count` up to rounding, through renormalisation;
    /// a provider never noted stays exactly zero.
    #[test]
    fn ewma_matches_the_per_provider_recurrence() {
        let mut ewma = DemandEwma::new(3);
        let mut direct = [0.0f64; 3];
        let mut renormalised = false;
        for q in 0..2000u64 {
            renormalised |= ewma.decay();
            let counts = [q % 7, u64::from(q < 5) * 40, 0];
            for (p, &c) in counts.iter().enumerate() {
                direct[p] = (1.0 - DEMAND_EWMA_ALPHA) * direct[p] + DEMAND_EWMA_ALPHA * c as f64;
                if c > 0 {
                    ewma.add(p, c);
                }
            }
            for (p, &d) in direct.iter().enumerate() {
                let got = ewma.raw()[p] * ewma.scale();
                assert!(
                    (got - d).abs() <= 1e-11 * d.abs(),
                    "quantum {q} provider {p}: {got} vs {d}"
                );
            }
        }
        assert!(renormalised, "2000 quanta cross the scale floor");
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
        assert_eq!(drained(&t, |_| true), vec![(0, 4000)]);
    }
}

/// Interleaving model of the note/drain protocol, run under the loom
/// stand-in's schedule perturbation (`--features loom-model`; the TSan
/// CI cell watches the same test for data races). The `fuzz()` points
/// sit between a note's increment and its bit set, and between a drain's
/// word swap and its count takes — the windows where a lost bit would
/// strand a count or a stale one would fold it twice.
#[cfg(all(test, feature = "loom-model"))]
mod loom_model_tests {
    use super::*;
    use std::sync::atomic::AtomicBool;
    use std::sync::Arc;

    /// Two noters against two drainers that split ownership by parity:
    /// every note is folded exactly once, and by its owner.
    #[test]
    fn loom_model_every_note_folds_once_by_its_owner() {
        loom::model(|| {
            const PROVIDERS: usize = 70; // two bitmap words
            const NOTES: usize = 200;
            let tracker = Arc::new(DemandTracker::new(PROVIDERS));
            let done = Arc::new(AtomicBool::new(false));
            // Noter `t` notes providers on a stride that crosses both
            // words and both owners; the totals are known up front.
            let pick = |t: usize, i: usize| (i * (3 + 2 * t) + t) % PROVIDERS;
            let mut expect = [0u64; PROVIDERS];
            for t in 0..2 {
                for i in 0..NOTES {
                    expect[pick(t, i)] += 1;
                }
            }
            let noters: Vec<_> = (0..2)
                .map(|t| {
                    let tracker = tracker.clone();
                    // Model threads stand in for I/O threads.
                    // lint: allow(thread-spawn)
                    loom::thread::spawn(move || {
                        for i in 0..NOTES {
                            loom::fuzz_yield();
                            tracker.note(pick(t, i));
                        }
                    })
                })
                .collect();
            let drainers: Vec<_> = (0..2)
                .map(|k| {
                    let (tracker, done) = (tracker.clone(), done.clone());
                    // Model threads stand in for shard writers.
                    // lint: allow(thread-spawn)
                    loom::thread::spawn(move || {
                        let mut folded = [0u64; PROVIDERS];
                        loop {
                            let last = done.load(Ordering::Acquire);
                            tracker.drain(
                                |p| p % 2 == k,
                                |p, c| {
                                    assert_eq!(p % 2, k, "provider {p} folded by shard {k}");
                                    folded[p] += c;
                                },
                            );
                            if last {
                                return folded;
                            }
                            loom::fuzz_yield();
                        }
                    })
                })
                .collect();
            for h in noters {
                h.join().unwrap();
            }
            done.store(true, Ordering::Release);
            let mut folded = [0u64; PROVIDERS];
            for h in drainers {
                for (f, c) in folded.iter_mut().zip(h.join().unwrap()) {
                    *f += c;
                }
            }
            // A drainer's last pass may have put its peer's bits back
            // after the peer finished: each owner drains once more, now
            // alone.
            for k in 0..2 {
                tracker.drain(
                    |p| p % 2 == k,
                    |p, c| {
                        assert_eq!(p % 2, k);
                        folded[p] += c;
                    },
                );
            }
            assert_eq!(folded, expect, "a note was lost or folded twice");
        });
    }
}
