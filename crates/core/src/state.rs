//! Incremental game state: the profile plus maintained congestion counts,
//! aggregate loads and residual capacities.
//!
//! Every hot path of the mechanism — best-response sweeps, LCF, the
//! social-cost local search, churn replanning — repeatedly asks the same
//! three questions about a profile: *how congested is cloudlet `i`*
//! (`|σ_i|`), *how much capacity is left there*, and *what does provider
//! `l` currently pay*. [`Profile`] answers each by scanning all `N`
//! providers and allocating fresh vectors; at `N` providers and `M`
//! cloudlets a single best-response sweep built that way costs
//! `O(N·(N+M))` time and `~3N` heap allocations.
//!
//! [`GameState`] answers all three in `O(1)` by carrying the aggregates
//! alongside the profile and updating them in [`GameState::apply_move`]:
//!
//! | operation            | `Profile` (recompute) | `GameState` |
//! |----------------------|-----------------------|-------------|
//! | congestion lookup    | `O(N)` + alloc        | `O(1)`      |
//! | residual lookup      | `O(N+M)` + alloc      | `O(1)`      |
//! | provider cost        | `O(N)`                | `O(1)`      |
//! | apply one move       | —                     | `O(1)`      |
//! | best response        | `O(N+M)` + 2 allocs   | `O(M)`, allocation-free |
//! | full sweep           | `O(N·(N+M))`          | `O(N·M)`    |
//!
//! The maintained invariant — checked by a `debug_assert!` after every
//! move and by randomized differential tests — is exact agreement with
//! recomputation from scratch:
//!
//! ```text
//! sigma[i] == |{l : σ(l) = CL_i}|                  (exactly)
//! loads[i] == Σ_{σ(l)=CL_i} (A_l, B_l)             (within 1e-9)
//! ```
//!
//! Congestion counts are integers, so every cost derived from them is
//! *bit-identical* to the recompute path; loads accumulate floating-point
//! increments and may drift by ULPs relative to a fresh summation, which
//! only matters at capacity boundaries already blurred by the `1e-9`
//! feasibility slack in [`Market::fits`].
//!
//! A state either borrows its market ([`GameState::new`], the offline
//! mechanism) or owns it ([`GameState::owned`], the serving daemon's
//! writer). Either way [`GameState::set_provider_demand`] moves one
//! provider's load in `O(1)`; a borrowed market is cloned on the first
//! such change.

use std::borrow::Cow;

use mec_topology::CloudletId;

use crate::game::IMPROVEMENT_TOL;
use crate::model::{Market, ProviderId};
use crate::strategy::{Placement, Profile};

/// A strategy profile together with incrementally-maintained congestion
/// counts, aggregate `(compute, bandwidth)` loads and residual capacities.
///
/// # Examples
///
/// ```
/// use mec_core::model::{CloudletSpec, Market, ProviderSpec};
/// use mec_core::state::GameState;
/// use mec_core::{Placement, Profile, ProviderId};
/// use mec_topology::CloudletId;
///
/// let market = Market::builder()
///     .cloudlet(CloudletSpec::new(10.0, 50.0, 0.5, 0.5))
///     .provider(ProviderSpec::new(2.0, 10.0, 1.0, 8.0))
///     .provider(ProviderSpec::new(2.0, 10.0, 1.0, 8.0))
///     .uniform_update_cost(0.1)
///     .build();
/// let mut state = GameState::new(&market, Profile::all_remote(2));
/// let old = state.apply_move(ProviderId(0), Placement::Cloudlet(CloudletId(0)));
/// assert_eq!(old, Placement::Remote);
/// assert_eq!(state.congestion(CloudletId(0)), 1);
/// assert_eq!(state.residual(CloudletId(0)), (8.0, 40.0));
/// ```
#[derive(Debug, Clone)]
pub struct GameState<'m> {
    market: Cow<'m, Market>,
    profile: Profile,
    /// Congestion `|σ_i|` per cloudlet.
    sigma: Vec<usize>,
    /// Aggregate `(compute, bandwidth)` demand cached at each cloudlet.
    loads: Vec<(f64, f64)>,
}

impl<'m> GameState<'m> {
    /// Builds the state from a profile in `O(N + M)`.
    ///
    /// # Panics
    ///
    /// Panics if `profile` does not cover exactly the market's providers.
    pub fn new(market: &'m Market, profile: Profile) -> Self {
        GameState::with_market(Cow::Borrowed(market), profile)
    }

    /// Builds a state that owns its market, in `O(N + M)`. The serving
    /// daemon's writers hold one for their whole life and change demands
    /// through [`GameState::set_provider_demand`].
    ///
    /// # Panics
    ///
    /// Panics if `profile` does not cover exactly the market's providers.
    pub fn owned(market: Market, profile: Profile) -> GameState<'static> {
        GameState::with_market(Cow::Owned(market), profile)
    }

    fn with_market(market: Cow<'m, Market>, profile: Profile) -> Self {
        assert_eq!(
            profile.len(),
            market.provider_count(),
            "profile/provider count mismatch"
        );
        let sigma = profile.congestion(&market);
        let loads = profile.loads(&market);
        GameState {
            market,
            profile,
            sigma,
            loads,
        }
    }

    /// All-remote starting state (the pre-caching status quo).
    pub fn all_remote(market: &'m Market) -> Self {
        GameState::new(market, Profile::all_remote(market.provider_count()))
    }

    /// Replaces provider `l`'s `(compute, bandwidth)` demands and moves
    /// its load at its current cloudlet by the difference — `O(1)`, no
    /// rebuild. The state may then overload that cloudlet; the caller
    /// decides whether to evict. A borrowed market is cloned first.
    ///
    /// # Panics
    ///
    /// Panics if `l` is out of range or a demand is negative/non-finite.
    pub fn set_provider_demand(&mut self, l: ProviderId, compute: f64, bandwidth: f64) {
        let old = self.market.provider(l);
        let (da, db) = (
            compute - old.compute_demand,
            bandwidth - old.bandwidth_demand,
        );
        self.market
            .to_mut()
            .set_provider_demand(l, compute, bandwidth);
        if let Placement::Cloudlet(c) = self.profile.placement(l) {
            let load = &mut self.loads[c.index()];
            load.0 += da;
            load.1 += db;
        }
    }

    /// The underlying market.
    #[inline]
    pub fn market(&self) -> &Market {
        &self.market
    }

    /// Read-only view of the profile.
    #[inline]
    pub fn profile(&self) -> &Profile {
        &self.profile
    }

    /// Consumes the state, returning the profile.
    pub fn into_profile(self) -> Profile {
        self.profile
    }

    /// Number of providers covered.
    #[inline]
    pub fn len(&self) -> usize {
        self.profile.len()
    }

    /// `false`: markets always have at least one provider.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.profile.is_empty()
    }

    /// Placement of provider `l` — `O(1)`.
    #[inline]
    pub fn placement(&self, l: ProviderId) -> Placement {
        self.profile.placement(l)
    }

    /// Congestion `|σ_i|` of cloudlet `i` — `O(1)`.
    #[inline]
    pub fn congestion(&self, i: CloudletId) -> usize {
        self.sigma[i.index()]
    }

    /// Maintained congestion counts, indexed by cloudlet.
    #[inline]
    pub fn congestion_counts(&self) -> &[usize] {
        &self.sigma
    }

    /// Aggregate `(compute, bandwidth)` load at cloudlet `i` — `O(1)`.
    #[inline]
    pub fn load(&self, i: CloudletId) -> (f64, f64) {
        self.loads[i.index()]
    }

    /// Residual `(compute, bandwidth)` capacity at cloudlet `i` — `O(1)`.
    /// Negative components mean the profile overloads the cloudlet.
    #[inline]
    pub fn residual(&self, i: CloudletId) -> (f64, f64) {
        let spec = self.market.cloudlet(i);
        let (a, b) = self.loads[i.index()];
        (spec.compute_capacity - a, spec.bandwidth_capacity - b)
    }

    /// `true` if every cloudlet's capacities hold — `O(M)`.
    pub fn is_feasible(&self) -> bool {
        self.market.cloudlets().all(|i| {
            let (a, b) = self.residual(i);
            a >= -1e-9 && b >= -1e-9
        })
    }

    /// Moves provider `l` to `placement`, updating every aggregate in
    /// `O(1)`, and returns the previous placement (pass it back to undo).
    ///
    /// # Panics
    ///
    /// Panics if `l` is out of range.
    ///
    /// # Examples
    ///
    /// ```
    /// use mec_core::model::{CloudletSpec, Market, ProviderSpec};
    /// use mec_core::{GameState, Placement};
    ///
    /// let market = Market::builder()
    ///     .cloudlet(CloudletSpec::new(20.0, 100.0, 0.5, 0.5))
    ///     .provider(ProviderSpec::new(2.0, 10.0, 1.0, 30.0))
    ///     .uniform_update_cost(0.3)
    ///     .build();
    /// let i = market.cloudlets().next().unwrap();
    /// let l = market.providers().next().unwrap();
    ///
    /// let mut state = GameState::all_remote(&market);
    /// let prev = state.apply_move(l, Placement::Cloudlet(i));
    /// assert_eq!(prev, Placement::Remote);
    /// assert_eq!(state.congestion(i), 1);
    ///
    /// state.apply_move(l, prev); // pass the old placement back to undo
    /// assert_eq!(state.congestion(i), 0);
    /// ```
    pub fn apply_move(&mut self, l: ProviderId, placement: Placement) -> Placement {
        let old = self.profile.placement(l);
        if old == placement {
            return old;
        }
        let spec = self.market.provider(l);
        if let Placement::Cloudlet(c) = old {
            let k = c.index();
            self.sigma[k] -= 1;
            self.loads[k].0 -= spec.compute_demand;
            self.loads[k].1 -= spec.bandwidth_demand;
        }
        if let Placement::Cloudlet(c) = placement {
            let k = c.index();
            self.sigma[k] += 1;
            self.loads[k].0 += spec.compute_demand;
            self.loads[k].1 += spec.bandwidth_demand;
        }
        self.profile.set(l, placement);
        debug_assert!(
            self.agrees_with_recompute(1e-9),
            "incremental state diverged from recompute after moving {l} to {placement}"
        );
        old
    }

    /// Cost provider `l` pays under the current profile — `O(1)`
    /// (Eq. (3)/(5), or the remote cost when not cached).
    pub fn provider_cost(&self, l: ProviderId) -> f64 {
        match self.profile.placement(l) {
            Placement::Remote => self.market.provider(l).remote_cost,
            Placement::Cloudlet(c) => self.market.caching_cost(l, c, self.sigma[c.index()]),
        }
    }

    /// Social cost — Eq. (6) — in `O(N)`.
    pub fn social_cost(&self) -> f64 {
        self.market.providers().map(|l| self.provider_cost(l)).sum()
    }

    /// Sum of provider costs over a subset in `O(|subset|)`.
    pub fn subset_cost<I: IntoIterator<Item = ProviderId>>(&self, subset: I) -> f64 {
        subset.into_iter().map(|l| self.provider_cost(l)).sum()
    }

    /// The best response of provider `l` against the rest of the profile,
    /// evaluated against the maintained aggregates: `O(M)` and
    /// allocation-free. Candidate set, costs and tie-breaking are identical
    /// to the recompute path [`crate::game::best_response`].
    ///
    /// Returns `None` when no candidate at all is available.
    pub fn best_response(&self, l: ProviderId) -> Option<(Placement, f64)> {
        let market = self.market();
        let current = self.profile.placement(l);
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
            // Candidates see the "others only" state: remove l from its own
            // cloudlet before checking fit and congestion.
            let (mut free_a, mut free_b) = self.residual(i);
            let mut others = self.sigma[i.index()];
            if current == Placement::Cloudlet(i) {
                free_a += spec.compute_demand;
                free_b += spec.bandwidth_demand;
                others -= 1;
            }
            if market.fits(l, (free_a, free_b)) {
                let cost = market.caching_cost(l, i, others + 1);
                consider(Placement::Cloudlet(i), cost);
            }
        }
        best
    }

    /// `true` if the maintained aggregates match a from-scratch
    /// recomputation: congestion exactly, loads within `tol` per component.
    /// This is the invariant the incremental path guarantees; it is
    /// `debug_assert!`ed after every [`GameState::apply_move`] and pounded
    /// by the randomized differential tests.
    pub fn agrees_with_recompute(&self, tol: f64) -> bool {
        let sigma = self.profile.congestion(&self.market);
        if sigma != self.sigma {
            return false;
        }
        let loads = self.profile.loads(&self.market);
        loads
            .iter()
            .zip(&self.loads)
            .all(|(a, b)| (a.0 - b.0).abs() <= tol && (a.1 - b.1).abs() <= tol)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::game::best_response;
    use crate::model::{CloudletSpec, ProviderSpec};

    fn market(n: usize) -> Market {
        let mut b = Market::builder()
            .cloudlet(CloudletSpec::new(20.0, 100.0, 0.5, 0.5))
            .cloudlet(CloudletSpec::new(15.0, 80.0, 0.3, 0.2))
            .cloudlet(CloudletSpec::new(10.0, 60.0, 0.8, 0.1));
        for k in 0..n {
            b = b.provider(ProviderSpec::new(
                1.0 + (k % 3) as f64,
                4.0 + (k % 5) as f64,
                0.5 + 0.25 * (k % 4) as f64,
                12.0 + k as f64,
            ));
        }
        b.uniform_update_cost(0.2).build()
    }

    #[test]
    fn new_matches_profile_aggregates() {
        let m = market(7);
        let mut p = Profile::all_remote(7);
        p.set(ProviderId(0), Placement::Cloudlet(CloudletId(0)));
        p.set(ProviderId(3), Placement::Cloudlet(CloudletId(0)));
        p.set(ProviderId(5), Placement::Cloudlet(CloudletId(2)));
        let s = GameState::new(&m, p.clone());
        assert_eq!(s.congestion_counts(), p.congestion(&m).as_slice());
        for (i, want) in m.cloudlets().zip(p.residual(&m)) {
            let got = s.residual(i);
            assert!((got.0 - want.0).abs() < 1e-12 && (got.1 - want.1).abs() < 1e-12);
        }
    }

    #[test]
    fn apply_move_updates_and_returns_old() {
        let m = market(4);
        let mut s = GameState::all_remote(&m);
        let old = s.apply_move(ProviderId(1), Placement::Cloudlet(CloudletId(1)));
        assert_eq!(old, Placement::Remote);
        assert_eq!(s.congestion(CloudletId(1)), 1);
        // Move again: cloudlet 1 -> cloudlet 0.
        let old = s.apply_move(ProviderId(1), Placement::Cloudlet(CloudletId(0)));
        assert_eq!(old, Placement::Cloudlet(CloudletId(1)));
        assert_eq!(s.congestion(CloudletId(1)), 0);
        assert_eq!(s.congestion(CloudletId(0)), 1);
        // Undo with the returned placement.
        s.apply_move(ProviderId(1), old);
        assert_eq!(s.congestion(CloudletId(1)), 1);
        assert!(s.agrees_with_recompute(1e-12));
    }

    #[test]
    fn apply_move_to_same_place_is_noop() {
        let m = market(3);
        let mut s = GameState::all_remote(&m);
        s.apply_move(ProviderId(0), Placement::Cloudlet(CloudletId(0)));
        let before = s.congestion_counts().to_vec();
        let old = s.apply_move(ProviderId(0), Placement::Cloudlet(CloudletId(0)));
        assert_eq!(old, Placement::Cloudlet(CloudletId(0)));
        assert_eq!(s.congestion_counts(), before.as_slice());
    }

    #[test]
    fn provider_and_social_costs_match_profile() {
        let m = market(6);
        let mut s = GameState::all_remote(&m);
        for k in 0..5 {
            s.apply_move(ProviderId(k), Placement::Cloudlet(CloudletId(k % 3)));
        }
        for l in m.providers() {
            assert_eq!(s.provider_cost(l), s.profile().provider_cost(&m, l));
        }
        assert!((s.social_cost() - s.profile().social_cost(&m)).abs() < 1e-12);
        let subset = [ProviderId(0), ProviderId(4), ProviderId(5)];
        assert!(
            (s.subset_cost(subset.iter().copied())
                - s.profile().subset_cost(&m, subset.iter().copied()))
            .abs()
                < 1e-12
        );
    }

    #[test]
    fn best_response_matches_recompute_path() {
        let m = market(8);
        let mut s = GameState::all_remote(&m);
        for k in 0..6 {
            s.apply_move(ProviderId(k), Placement::Cloudlet(CloudletId(k % 3)));
        }
        for l in m.providers() {
            assert_eq!(s.best_response(l), best_response(&m, s.profile(), l), "{l}");
        }
    }

    #[test]
    fn feasibility_matches_profile() {
        let m = Market::builder()
            .cloudlet(CloudletSpec::new(2.0, 10.0, 0.1, 0.1))
            .provider(ProviderSpec::new(2.0, 5.0, 1.0, 3.0))
            .provider(ProviderSpec::new(2.0, 5.0, 1.0, 3.0))
            .uniform_update_cost(0.0)
            .build();
        let mut s = GameState::all_remote(&m);
        assert!(s.is_feasible());
        s.apply_move(ProviderId(0), Placement::Cloudlet(CloudletId(0)));
        assert!(s.is_feasible());
        s.apply_move(ProviderId(1), Placement::Cloudlet(CloudletId(0)));
        assert!(!s.is_feasible());
        assert_eq!(s.is_feasible(), s.profile().is_feasible(&m));
    }

    #[test]
    #[should_panic(expected = "mismatch")]
    fn rejects_wrong_profile_size() {
        let m = market(3);
        let _ = GameState::new(&m, Profile::all_remote(2));
    }
}
