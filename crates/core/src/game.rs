//! The congestion game played by selfish providers (paper Section II-E).
//!
//! Costs are affine in the congestion level, so the game is an exact
//! potential game (Rosenthal): every unilateral improvement strictly
//! decreases the potential
//!
//! ```text
//! Φ(σ) = Σ_i [ (α_i+β_i) · |σ_i|(|σ_i|+1)/2  +  Σ_{l ∈ σ_i} (c_l_ins + c_{l,i}_bdw) ]
//!        + Σ_{l remote} remote_l
//! ```
//!
//! and best-response dynamics therefore converge to a pure Nash equilibrium
//! (Lemma 3). Capacity constraints restrict the strategy sets (a player may
//! only move into a cloudlet with room) — improvements still strictly
//! decrease `Φ`, so convergence is unaffected.
//!
//! The dynamics run on an incremental [`GameState`] (see [`crate::state`]):
//! moves update congestion and loads in `O(1)`, a full sweep costs `O(N·M)`
//! with zero allocations instead of the `O(N·(N+M))` + `~3N` allocations of
//! recomputing per candidate. The recompute path is retained as
//! [`best_response`] / [`BestResponseDynamics::run_reference`] for
//! differential tests and benchmarks. `MaxGain` candidate scans and Nash
//! verification fan out across threads when the market is large enough to
//! amortize thread startup; the chunked merge reproduces the sequential
//! tie-breaking exactly, so results are identical at any worker count.

use mec_topology::CloudletId;

use crate::model::{Market, ProviderId};
use crate::state::GameState;
use crate::strategy::{Placement, Profile};

/// Order in which players are offered deviations.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum MoveOrder {
    /// Sweep providers in id order repeatedly (fast, the default).
    #[default]
    RoundRobin,
    /// Always move the player with the largest cost improvement
    /// (slower; ablation `ablation_br`).
    MaxGain,
}

/// Result of running best-response dynamics.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Convergence {
    /// Full sweeps over the player set that were executed.
    pub rounds: usize,
    /// Number of improving moves applied.
    pub moves: usize,
    /// `true` if a Nash equilibrium was reached within the round budget.
    pub converged: bool,
}

/// Minimum cost improvement that counts as a profitable deviation.
pub const IMPROVEMENT_TOL: f64 = 1e-9;

/// Provider×cloudlet cells below which scans stay sequential: thread
/// startup (~tens of µs) dwarfs the scan itself on small markets.
const PAR_MIN_CELLS: usize = 1 << 15;

/// Worker count for a scan over `cells` provider×cloudlet cells split
/// into at most `items` chunks; `1` means "stay sequential".
pub(crate) fn par_workers(cells: usize, items: usize) -> usize {
    if cells < PAR_MIN_CELLS || items < 2 {
        return 1;
    }
    std::thread::available_parallelism()
        .map_or(1, usize::from)
        .min(16)
        .min(items)
}

/// Samples the Rosenthal potential into the `core.dynamics.potential`
/// gauge series, one point per round. The potential recount is `O(N+M)`,
/// so it only runs when a trace sink is actually listening.
fn emit_potential_gauge(state: &GameState<'_>, round: usize) {
    if mec_obs::sink_installed() {
        mec_obs::gauge(
            "core.dynamics.potential",
            round as u64,
            rosenthal_potential(state.market(), state.profile()),
        );
    }
}

/// Computes the Rosenthal potential of `profile`.
pub fn rosenthal_potential(market: &Market, profile: &Profile) -> f64 {
    let sigma = profile.congestion(market);
    let mut phi = 0.0;
    for i in market.cloudlets() {
        let s = sigma[i.index()] as f64;
        phi += market.cloudlet(i).congestion_price() * s * (s + 1.0) / 2.0;
    }
    for (l, p) in profile.iter() {
        match p {
            Placement::Remote => phi += market.provider(l).remote_cost,
            Placement::Cloudlet(i) => {
                phi += market.provider(l).instantiation_cost + market.update_cost(l, i);
            }
        }
    }
    phi
}

/// The one candidate order and tie-break of every best response in the
/// crate: the remote cloud first (when `l` may stay remote), then each
/// cloudlet in id order that `cost_at` prices (`None` means "not a
/// candidate"). A later candidate wins only if it is cheaper by more than
/// [`IMPROVEMENT_TOL`]; within the tolerance the tie goes to `l`'s
/// `current` placement, else to the earlier candidate, so dynamics are
/// deterministic.
#[inline]
pub(crate) fn choose(
    market: &Market,
    l: ProviderId,
    current: Placement,
    mut cost_at: impl FnMut(CloudletId) -> Option<f64>,
) -> Option<(Placement, f64)> {
    let spec = market.provider(l);
    let mut best = spec
        .can_stay_remote()
        .then_some((Placement::Remote, spec.remote_cost));
    for i in market.cloudlets() {
        let Some(cost) = cost_at(i) else {
            continue;
        };
        let p = Placement::Cloudlet(i);
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
    }
    best
}

/// The best response of provider `l` against the rest of `profile`,
/// recomputing congestion and residuals from scratch.
///
/// This is the *reference* path — `O(N+M)` and two allocations per call.
/// Hot loops use the allocation-free [`GameState::best_response`] instead,
/// which is differentially tested to return identical results.
///
/// Only capacity-feasible cloudlets (after removing `l` from its current
/// placement) and — if the provider allows it — the remote option are
/// candidates. Returns the placement and the cost `l` would pay there.
/// Ties are broken toward the current placement, then the smallest cloudlet
/// id, so dynamics are deterministic.
///
/// Returns `None` when no candidate at all is available (every cloudlet is
/// full and the remote option is forbidden); the caller should keep the
/// current placement.
pub fn best_response(
    market: &Market,
    profile: &Profile,
    l: ProviderId,
) -> Option<(Placement, f64)> {
    let current = profile.placement(l);
    let mut residual = profile.residual(market);
    let mut sigma = profile.congestion(market);
    // Remove l from its current cloudlet so candidates see the "others only"
    // state.
    if let Placement::Cloudlet(c) = current {
        let spec = market.provider(l);
        residual[c.index()].0 += spec.compute_demand;
        residual[c.index()].1 += spec.bandwidth_demand;
        sigma[c.index()] -= 1;
    }
    choose(market, l, current, |i| {
        market
            .fits(l, residual[i.index()])
            .then(|| market.caching_cost(l, i, sigma[i.index()] + 1))
    })
}

/// `true` if `l` has a profitable unilateral deviation — `O(M)`.
fn has_improving_move(state: &GameState<'_>, l: ProviderId) -> bool {
    let current_cost = state.provider_cost(l);
    match state.best_response(l) {
        Some((p, cost)) => p != state.placement(l) && cost < current_cost - IMPROVEMENT_TOL,
        None => false,
    }
}

/// `true` if no provider in `movable` has a profitable unilateral deviation.
pub fn is_nash(market: &Market, profile: &Profile, movable: &[bool]) -> bool {
    assert_eq!(movable.len(), profile.len(), "movable mask length mismatch");
    let state = GameState::new(market, profile.clone());
    is_nash_state(&state, movable)
}

/// [`is_nash`] evaluated against maintained aggregates: `O(N·M)` total,
/// fanning out across threads on large markets.
pub fn is_nash_state(state: &GameState<'_>, movable: &[bool]) -> bool {
    assert_eq!(movable.len(), state.len(), "movable mask length mismatch");
    let n = state.len();
    let workers = par_workers(n * state.market().cloudlet_count(), n);
    is_nash_with(state, movable, workers)
}

/// [`is_nash_state`] with an explicit worker count — test/bench hook for
/// exercising the parallel fan-out regardless of market size.
#[doc(hidden)]
pub fn is_nash_state_workers(state: &GameState<'_>, movable: &[bool], workers: usize) -> bool {
    assert_eq!(movable.len(), state.len(), "movable mask length mismatch");
    is_nash_with(state, movable, workers)
}

/// [`scan_best_move`]'s merge with an explicit worker count — test/bench
/// hook for exercising the parallel fan-out regardless of market size.
#[doc(hidden)]
pub fn scan_best_move_workers(
    state: &GameState<'_>,
    movable: &[bool],
    workers: usize,
) -> Option<(ProviderId, Placement, f64)> {
    assert_eq!(movable.len(), state.len(), "movable mask length mismatch");
    scan_best_move_with(state, movable, workers)
}

fn is_nash_with(state: &GameState<'_>, movable: &[bool], workers: usize) -> bool {
    let n = state.len();
    let check_range = |lo: usize, hi: usize| {
        (lo..hi).all(|k| !movable[k] || !has_improving_move(state, ProviderId(k)))
    };
    if workers <= 1 {
        return check_range(0, n);
    }
    let chunk = n.div_ceil(workers);
    std::thread::scope(|s| {
        let handles: Vec<_> = (0..workers)
            .map(|w| {
                let check_range = &check_range;
                s.spawn(move || check_range(w * chunk, ((w + 1) * chunk).min(n)))
            })
            .collect();
        handles
            .into_iter()
            // lint: allow(panics) — a worker panic is already fatal; joining
            // re-raises it on the caller rather than deadlocking the scope.
            .all(|h| h.join().expect("nash verification worker panicked"))
    })
}

/// Scans `lo..hi` for the movable provider with the largest improving gain.
/// Ties keep the earliest (smallest id) candidate, matching a sequential
/// first-max scan.
fn scan_range(
    state: &GameState<'_>,
    movable: &[bool],
    lo: usize,
    hi: usize,
) -> Option<(ProviderId, Placement, f64)> {
    let mut best_move: Option<(ProviderId, Placement, f64)> = None;
    for (k, &mv) in movable.iter().enumerate().take(hi).skip(lo) {
        if !mv {
            continue;
        }
        let l = ProviderId(k);
        let cur_cost = state.provider_cost(l);
        if let Some((p, cost)) = state.best_response(l) {
            if p != state.placement(l) && cost < cur_cost - IMPROVEMENT_TOL {
                let gain = cur_cost - cost;
                if best_move.is_none_or(|(_, _, g)| gain > g) {
                    best_move = Some((l, p, gain));
                }
            }
        }
    }
    best_move
}

/// Full `MaxGain` candidate scan, parallel when the market is large.
fn scan_best_move(state: &GameState<'_>, movable: &[bool]) -> Option<(ProviderId, Placement, f64)> {
    let n = state.len();
    let workers = par_workers(n * state.market().cloudlet_count(), n);
    scan_best_move_with(state, movable, workers)
}

fn scan_best_move_with(
    state: &GameState<'_>,
    movable: &[bool],
    workers: usize,
) -> Option<(ProviderId, Placement, f64)> {
    let n = state.len();
    if workers <= 1 {
        return scan_range(state, movable, 0, n);
    }
    let chunk = n.div_ceil(workers);
    let partials = std::thread::scope(|s| {
        let handles: Vec<_> = (0..workers)
            .map(|w| {
                s.spawn(move || scan_range(state, movable, w * chunk, ((w + 1) * chunk).min(n)))
            })
            .collect();
        handles
            .into_iter()
            // lint: allow(panics) — a worker panic is already fatal; joining
            // re-raises it on the caller rather than deadlocking the scope.
            .map(|h| h.join().expect("max-gain scan worker panicked"))
            .collect::<Vec<_>>()
    });
    // Merging chunk partials in ascending id order with a strict `>` keeps
    // the earliest maximum — exactly what the sequential scan picks — so the
    // dynamics are deterministic regardless of worker count.
    partials
        .into_iter()
        .flatten()
        .fold(None, |acc, cand| match acc {
            Some((_, _, g)) if cand.2 <= g => acc,
            _ => Some(cand),
        })
}

/// Best-response dynamics driver.
///
/// # Examples
///
/// ```
/// use mec_core::game::{BestResponseDynamics, MoveOrder};
/// use mec_core::model::{CloudletSpec, Market, ProviderSpec};
/// use mec_core::strategy::Profile;
///
/// let market = Market::builder()
///     .cloudlet(CloudletSpec::new(10.0, 50.0, 0.5, 0.5))
///     .provider(ProviderSpec::new(1.0, 5.0, 1.0, 100.0))
///     .provider(ProviderSpec::new(1.0, 5.0, 1.0, 100.0))
///     .uniform_update_cost(0.1)
///     .build();
/// let mut profile = Profile::all_remote(2);
/// let movable = vec![true, true];
/// let result = BestResponseDynamics::new(MoveOrder::RoundRobin)
///     .run(&market, &mut profile, &movable);
/// assert!(result.converged);
/// ```
#[derive(Debug, Clone)]
pub struct BestResponseDynamics {
    order: MoveOrder,
    max_rounds: usize,
}

impl BestResponseDynamics {
    /// Creates a driver with the given move order and a generous default
    /// round budget.
    pub fn new(order: MoveOrder) -> Self {
        BestResponseDynamics {
            order,
            max_rounds: 10_000,
        }
    }

    /// Overrides the maximum number of sweeps before giving up.
    pub fn max_rounds(mut self, rounds: usize) -> Self {
        self.max_rounds = rounds;
        self
    }

    /// Runs the dynamics until no movable player can improve.
    ///
    /// The potential strictly decreases with every applied move, so on any
    /// finite market this terminates at a Nash equilibrium of the movable
    /// subgame (the fixed players act as environment).
    ///
    /// Builds a [`GameState`] once and delegates to
    /// [`BestResponseDynamics::run_state`]; callers already holding a state
    /// should call that directly and skip the profile round-trip.
    ///
    /// # Panics
    ///
    /// Panics if `movable.len() != profile.len()`.
    pub fn run(&self, market: &Market, profile: &mut Profile, movable: &[bool]) -> Convergence {
        // Move the profile into the state (empty profiles are forbidden, so
        // park a 1-slot placeholder) and move it back out when converged.
        let taken = std::mem::replace(profile, Profile::all_remote(1));
        let mut state = GameState::new(market, taken);
        let convergence = self.run_state(&mut state, movable);
        *profile = state.into_profile();
        convergence
    }

    /// Runs the dynamics on an incremental state: each sweep is `O(N·M)`
    /// and allocation-free (the reference recompute path is `O(N·(N+M))`
    /// with `~3N` allocations per sweep). Visits providers in id order
    /// (`RoundRobin`) or applies the single largest improvement per round
    /// (`MaxGain`, scanned in parallel on large markets); both orders make
    /// exactly the moves the reference implementation makes.
    ///
    /// # Panics
    ///
    /// Panics if `movable.len() != state.len()`.
    pub fn run_state(&self, state: &mut GameState<'_>, movable: &[bool]) -> Convergence {
        let convergence = self.run_state_inner(state, movable);
        #[cfg(feature = "verify")]
        if convergence.converged {
            let mut cert = crate::verify::Certificate::new("best-response equilibrium");
            cert.extend(crate::verify::check_state(state, 1e-6))
                .extend(crate::verify::check_nash(
                    state.market(),
                    state.profile(),
                    movable,
                    IMPROVEMENT_TOL,
                ));
            cert.assert_valid();
        }
        convergence
    }

    /// Wraps the dynamics loop in the observability probes: the whole run
    /// is one `core.dynamics.run` span (time-to-Nash when it converges) and
    /// the applied-move / round totals are published as counters. Both are
    /// no-ops unless the `obs` feature is armed.
    fn run_state_inner(&self, state: &mut GameState<'_>, movable: &[bool]) -> Convergence {
        let _span = mec_obs::span("core.dynamics.run");
        let convergence = self.run_state_loop(state, movable);
        mec_obs::counter_add("core.dynamics.moves_applied", convergence.moves as u64);
        mec_obs::counter_add("core.dynamics.rounds", convergence.rounds as u64);
        convergence
    }

    fn run_state_loop(&self, state: &mut GameState<'_>, movable: &[bool]) -> Convergence {
        assert_eq!(movable.len(), state.len(), "movable mask length mismatch");
        let mut moves = 0;
        match self.order {
            MoveOrder::RoundRobin => {
                for round in 0..self.max_rounds {
                    let mut improved = false;
                    let mut attempts = 0u64;
                    for (k, &mv) in movable.iter().enumerate() {
                        if !mv {
                            continue;
                        }
                        let l = ProviderId(k);
                        let cur_cost = state.provider_cost(l);
                        attempts += 1;
                        if let Some((p, cost)) = state.best_response(l) {
                            if p != state.placement(l) && cost < cur_cost - IMPROVEMENT_TOL {
                                state.apply_move(l, p);
                                moves += 1;
                                improved = true;
                            }
                        }
                    }
                    mec_obs::counter_add("core.dynamics.moves_attempted", attempts);
                    emit_potential_gauge(state, round);
                    if !improved {
                        return Convergence {
                            rounds: round + 1,
                            moves,
                            converged: true,
                        };
                    }
                }
            }
            MoveOrder::MaxGain => {
                let n_movable = movable.iter().filter(|&&m| m).count() as u64;
                for round in 0..self.max_rounds {
                    let step = scan_best_move(state, movable);
                    mec_obs::counter_add("core.dynamics.moves_attempted", n_movable);
                    match step {
                        Some((l, p, _)) => {
                            state.apply_move(l, p);
                            moves += 1;
                            emit_potential_gauge(state, round);
                        }
                        None => {
                            return Convergence {
                                rounds: round + 1,
                                moves,
                                converged: true,
                            };
                        }
                    }
                }
            }
        }
        Convergence {
            rounds: self.max_rounds,
            moves,
            converged: false,
        }
    }

    /// The seed implementation, recomputing congestion and residuals from
    /// scratch for every candidate evaluation and cloning the profile once
    /// per `RoundRobin` round.
    ///
    /// Retained verbatim as the baseline for the differential equivalence
    /// tests and the `recompute vs incremental` benchmark
    /// (`benches/bench_dynamics.rs`, `mec-bench`'s `sweepbench`). Use
    /// [`BestResponseDynamics::run`] everywhere else.
    ///
    /// # Panics
    ///
    /// Panics if `movable.len() != profile.len()`.
    pub fn run_reference(
        &self,
        market: &Market,
        profile: &mut Profile,
        movable: &[bool],
    ) -> Convergence {
        assert_eq!(movable.len(), profile.len(), "movable mask length mismatch");
        let mut moves = 0;
        match self.order {
            MoveOrder::RoundRobin => {
                for round in 0..self.max_rounds {
                    let mut improved = false;
                    for (l, _) in profile.clone().iter() {
                        if !movable[l.index()] {
                            continue;
                        }
                        let cur_cost = profile.provider_cost(market, l);
                        if let Some((p, cost)) = best_response(market, profile, l) {
                            if p != profile.placement(l) && cost < cur_cost - IMPROVEMENT_TOL {
                                profile.set(l, p);
                                moves += 1;
                                improved = true;
                            }
                        }
                    }
                    if !improved {
                        return Convergence {
                            rounds: round + 1,
                            moves,
                            converged: true,
                        };
                    }
                }
            }
            MoveOrder::MaxGain => {
                for round in 0..self.max_rounds {
                    let mut best_move: Option<(ProviderId, Placement, f64)> = None;
                    for (l, _) in profile.iter() {
                        if !movable[l.index()] {
                            continue;
                        }
                        let cur_cost = profile.provider_cost(market, l);
                        if let Some((p, cost)) = best_response(market, profile, l) {
                            if p != profile.placement(l) && cost < cur_cost - IMPROVEMENT_TOL {
                                let gain = cur_cost - cost;
                                if best_move.is_none_or(|(_, _, g)| gain > g) {
                                    best_move = Some((l, p, gain));
                                }
                            }
                        }
                    }
                    match best_move {
                        Some((l, p, _)) => {
                            profile.set(l, p);
                            moves += 1;
                        }
                        None => {
                            return Convergence {
                                rounds: round + 1,
                                moves,
                                converged: true,
                            };
                        }
                    }
                }
            }
        }
        Convergence {
            rounds: self.max_rounds,
            moves,
            converged: false,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::model::{CloudletSpec, ProviderSpec};

    fn market(n_providers: usize) -> Market {
        let mut b = Market::builder()
            .cloudlet(CloudletSpec::new(20.0, 100.0, 0.5, 0.5))
            .cloudlet(CloudletSpec::new(20.0, 100.0, 0.3, 0.2));
        for _ in 0..n_providers {
            b = b.provider(ProviderSpec::new(2.0, 10.0, 1.0, 50.0));
        }
        b.uniform_update_cost(0.2).build()
    }

    /// Heterogeneous market so MaxGain scans see distinct gains.
    fn varied_market(n_providers: usize) -> Market {
        let mut b = Market::builder()
            .cloudlet(CloudletSpec::new(30.0, 120.0, 0.5, 0.5))
            .cloudlet(CloudletSpec::new(18.0, 90.0, 0.3, 0.2))
            .cloudlet(CloudletSpec::new(12.0, 70.0, 0.7, 0.4));
        for k in 0..n_providers {
            b = b.provider(ProviderSpec::new(
                1.0 + (k % 4) as f64 * 0.5,
                5.0 + (k % 3) as f64 * 2.0,
                0.5 + (k % 5) as f64 * 0.3,
                20.0 + (k % 7) as f64 * 4.0,
            ));
        }
        b.uniform_update_cost(0.2).build()
    }

    /// Every best response shares this rule, so the differential tests
    /// between them cannot see it break; it is pinned here instead.
    #[test]
    fn chooser_breaks_ties_to_the_current_placement_then_the_earlier_candidate() {
        let m = market(1);
        let l = ProviderId(0);
        let remote = m.provider(l).remote_cost;
        let (cl0, cl1) = (
            Placement::Cloudlet(CloudletId(0)),
            Placement::Cloudlet(CloudletId(1)),
        );
        let within = remote - 0.5 * IMPROVEMENT_TOL;
        // Within the tolerance nothing beats the remote cloud, which
        // comes first, unless the tie is with the current placement.
        assert_eq!(
            choose(&m, l, Placement::Remote, |_| Some(within)),
            Some((Placement::Remote, remote))
        );
        assert_eq!(choose(&m, l, cl1, |_| Some(within)), Some((cl1, within)));
        assert_eq!(
            choose(&m, l, cl1, |i| (i.index() == 0).then_some(within)),
            Some((Placement::Remote, remote))
        );
        // Beyond it the cheaper candidate wins, and of two equal ones
        // the earlier id.
        let cheaper = remote - 2.0 * IMPROVEMENT_TOL;
        assert_eq!(
            choose(&m, l, Placement::Remote, |_| Some(cheaper)),
            Some((cl0, cheaper))
        );
        // A provider that must cache has no answer without a candidate.
        let must_cache = Market::builder()
            .cloudlet(CloudletSpec::new(20.0, 100.0, 0.5, 0.5))
            .provider(ProviderSpec::new(2.0, 10.0, 1.0, f64::INFINITY))
            .uniform_update_cost(0.2)
            .build();
        assert_eq!(choose(&must_cache, l, Placement::Remote, |_| None), None);
    }

    #[test]
    fn best_response_prefers_cheapest_cloudlet() {
        let m = market(1);
        let p = Profile::all_remote(1);
        let (placement, cost) = best_response(&m, &p, ProviderId(0)).unwrap();
        // CL1 has price 0.5 vs CL0's 1.0; flat cost 0.5+1.0+0.2=1.7.
        assert_eq!(placement, Placement::Cloudlet(CloudletId(1)));
        assert!((cost - 1.7).abs() < 1e-12);
    }

    #[test]
    fn dynamics_converge_and_reach_nash() {
        let m = market(8);
        let mut p = Profile::all_remote(8);
        let movable = vec![true; 8];
        let res = BestResponseDynamics::new(MoveOrder::RoundRobin).run(&m, &mut p, &movable);
        assert!(res.converged);
        assert!(is_nash(&m, &p, &movable));
        assert!(p.is_feasible(&m));
    }

    #[test]
    fn players_balance_across_cloudlets() {
        // With symmetric providers, equilibrium congestion differs by at
        // most ~price ratio; assert both cloudlets are used.
        let m = market(10);
        let mut p = Profile::all_remote(10);
        let movable = vec![true; 10];
        BestResponseDynamics::new(MoveOrder::RoundRobin).run(&m, &mut p, &movable);
        let sigma = p.congestion(&m);
        assert!(sigma[0] > 0 && sigma[1] > 0, "sigma {sigma:?}");
    }

    #[test]
    fn potential_decreases_along_improving_moves() {
        let m = market(6);
        let mut p = Profile::all_remote(6);
        let mut phi = rosenthal_potential(&m, &p);
        for _ in 0..50 {
            let mut moved = false;
            for (l, _) in p.clone().iter() {
                let cur = p.provider_cost(&m, l);
                if let Some((np, cost)) = best_response(&m, &p, l) {
                    if np != p.placement(l) && cost < cur - IMPROVEMENT_TOL {
                        p.set(l, np);
                        let nphi = rosenthal_potential(&m, &p);
                        assert!(
                            nphi < phi - IMPROVEMENT_TOL / 2.0,
                            "potential did not decrease: {phi} -> {nphi}"
                        );
                        // Potential change equals the mover's cost change.
                        assert!(((phi - nphi) - (cur - cost)).abs() < 1e-9);
                        phi = nphi;
                        moved = true;
                    }
                }
            }
            if !moved {
                break;
            }
        }
    }

    #[test]
    fn fixed_players_do_not_move() {
        let m = market(4);
        let mut p = Profile::all_remote(4);
        let movable = vec![false, true, true, true];
        BestResponseDynamics::new(MoveOrder::RoundRobin).run(&m, &mut p, &movable);
        assert_eq!(p.placement(ProviderId(0)), Placement::Remote);
    }

    #[test]
    fn max_gain_reaches_nash_too() {
        let m = market(8);
        let mut p = Profile::all_remote(8);
        let movable = vec![true; 8];
        let res = BestResponseDynamics::new(MoveOrder::MaxGain).run(&m, &mut p, &movable);
        assert!(res.converged);
        assert!(is_nash(&m, &p, &movable));
    }

    #[test]
    fn capacity_limits_moves() {
        // Cloudlet fits only one provider; the other must go remote or CL1.
        let m = Market::builder()
            .cloudlet(CloudletSpec::new(2.0, 10.0, 0.1, 0.1))
            .provider(ProviderSpec::new(2.0, 5.0, 1.0, 3.0))
            .provider(ProviderSpec::new(2.0, 5.0, 1.0, 3.0))
            .uniform_update_cost(0.0)
            .build();
        let mut p = Profile::all_remote(2);
        let movable = vec![true; 2];
        BestResponseDynamics::new(MoveOrder::RoundRobin).run(&m, &mut p, &movable);
        assert!(p.is_feasible(&m));
        let cached = p
            .iter()
            .filter(|(_, pl)| matches!(pl, Placement::Cloudlet(_)))
            .count();
        assert_eq!(cached, 1);
    }

    #[test]
    fn no_candidates_keeps_current() {
        // Remote forbidden and cloudlet full of the OTHER provider: best
        // response for p1 is None only if even its own current placement
        // does not fit. Construct: p0 occupies CL0 fully; p1 remote
        // forbidden... then p1 must already be somewhere; give p1 a distinct
        // cloudlet CL1 it fully occupies. Its best response is CL1 itself.
        let m = Market::builder()
            .cloudlet(CloudletSpec::new(2.0, 10.0, 0.1, 0.1))
            .cloudlet(CloudletSpec::new(2.0, 10.0, 0.9, 0.9))
            .provider(ProviderSpec::new(2.0, 5.0, 1.0, f64::INFINITY))
            .provider(ProviderSpec::new(2.0, 5.0, 1.0, f64::INFINITY))
            .uniform_update_cost(0.0)
            .build();
        let mut p = Profile::new(vec![
            Placement::Cloudlet(CloudletId(0)),
            Placement::Cloudlet(CloudletId(1)),
        ]);
        let movable = vec![true; 2];
        let res = BestResponseDynamics::new(MoveOrder::RoundRobin).run(&m, &mut p, &movable);
        assert!(res.converged);
        // p1 cannot move to CL0 (full); stays at CL1.
        assert_eq!(
            p.placement(ProviderId(1)),
            Placement::Cloudlet(CloudletId(1))
        );
    }

    #[test]
    fn remote_attractive_when_congested() {
        // Tiny remote cost: equilibrium leaves everyone remote.
        let m = Market::builder()
            .cloudlet(CloudletSpec::new(100.0, 100.0, 5.0, 5.0))
            .provider(ProviderSpec::new(1.0, 1.0, 1.0, 0.5))
            .provider(ProviderSpec::new(1.0, 1.0, 1.0, 0.5))
            .uniform_update_cost(0.0)
            .build();
        let mut p = Profile::all_remote(2);
        let movable = vec![true; 2];
        BestResponseDynamics::new(MoveOrder::RoundRobin).run(&m, &mut p, &movable);
        for (_, pl) in p.iter() {
            assert_eq!(pl, Placement::Remote);
        }
    }

    #[test]
    fn incremental_run_matches_reference_round_robin() {
        let m = varied_market(40);
        let movable: Vec<bool> = (0..40).map(|k| k % 6 != 0).collect();
        let mut p_inc = Profile::all_remote(40);
        let mut p_ref = Profile::all_remote(40);
        let driver = BestResponseDynamics::new(MoveOrder::RoundRobin);
        let c_inc = driver.run(&m, &mut p_inc, &movable);
        let c_ref = driver.run_reference(&m, &mut p_ref, &movable);
        assert_eq!(c_inc, c_ref);
        assert_eq!(p_inc, p_ref);
    }

    #[test]
    fn incremental_run_matches_reference_max_gain() {
        let m = varied_market(30);
        let movable = vec![true; 30];
        let mut p_inc = Profile::all_remote(30);
        let mut p_ref = Profile::all_remote(30);
        let driver = BestResponseDynamics::new(MoveOrder::MaxGain);
        let c_inc = driver.run(&m, &mut p_inc, &movable);
        let c_ref = driver.run_reference(&m, &mut p_ref, &movable);
        assert_eq!(c_inc, c_ref);
        assert_eq!(p_inc, p_ref);
    }

    #[test]
    fn parallel_scan_matches_sequential_at_any_worker_count() {
        let m = varied_market(23);
        // A mid-dynamics state: run a few round-robin sweeps first.
        let mut state = GameState::all_remote(&m);
        let movable: Vec<bool> = (0..23).map(|k| k % 5 != 1).collect();
        BestResponseDynamics::new(MoveOrder::RoundRobin)
            .max_rounds(1)
            .run_state(&mut state, &movable);
        let sequential = scan_best_move_with(&state, &movable, 1);
        for workers in 2..=7 {
            assert_eq!(
                scan_best_move_with(&state, &movable, workers),
                sequential,
                "worker count {workers} changed the scan result"
            );
        }
    }

    #[test]
    fn parallel_nash_check_matches_sequential() {
        let m = varied_market(17);
        let movable = vec![true; 17];
        let mut state = GameState::all_remote(&m);
        // Mid-dynamics (not an equilibrium) and post-convergence states.
        BestResponseDynamics::new(MoveOrder::RoundRobin)
            .max_rounds(1)
            .run_state(&mut state, &movable);
        for workers in [1, 2, 3, 5] {
            assert_eq!(
                is_nash_with(&state, &movable, workers),
                is_nash_with(&state, &movable, 1)
            );
        }
        BestResponseDynamics::new(MoveOrder::RoundRobin).run_state(&mut state, &movable);
        for workers in [1, 2, 3, 5] {
            assert!(is_nash_with(&state, &movable, workers));
        }
    }

    #[test]
    fn run_preserves_profile_on_entry_and_exit() {
        // `run` takes the profile by `&mut` and must leave the converged
        // profile in place (it is moved through a GameState internally).
        let m = market(5);
        let mut p = Profile::all_remote(5);
        let movable = vec![true; 5];
        BestResponseDynamics::new(MoveOrder::RoundRobin).run(&m, &mut p, &movable);
        assert_eq!(p.len(), 5);
        assert!(is_nash(&m, &p, &movable));
    }
}
