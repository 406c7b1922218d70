//! Generalized congestion cost models.
//!
//! The paper adopts the proportional model `(α_i + β_i)·|σ_i|` "for
//! simplicity", noting that the derivation "relies only on the
//! non-decreasing of cost with congestion levels" and "can be easily
//! extended to consider other complicated non-decreasing cost models"
//! (Section II-C). This module delivers that extension: a family of
//! non-decreasing congestion price curves plus a generalized congestion
//! game over them. Every model keeps the game an exact potential game
//! (Rosenthal's potential sums the price curve), so best-response dynamics
//! still converge to a pure Nash equilibrium.

use crate::game::{choose, IMPROVEMENT_TOL};
use crate::model::{Market, ProviderId};
use crate::strategy::{Placement, Profile};

/// A non-decreasing congestion price curve.
///
/// `price(base, k)` is what **one** provider pays at a cloudlet whose
/// congestion coefficient sum is `base = α_i + β_i` when `k` providers
/// (including itself) are cached there.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub enum CongestionModel {
    /// The paper's proportional model: `base · k`.
    #[default]
    Linear,
    /// Polynomial: `base · k^degree` (degree ≥ 1 keeps it convex).
    Polynomial {
        /// Exponent of the congestion level.
        degree: u32,
    },
    /// M/M/1-style delay pricing: `base · k / (capacity − k)` while
    /// `k < capacity`, and a hard wall (very large price) at or beyond it.
    /// Models processing-delay blowup as a cloudlet saturates.
    Mm1 {
        /// Effective service capacity (providers) of a cloudlet.
        capacity: usize,
    },
}

/// Price one provider pays under this model at congestion `k ≥ 1`.
///
/// # Panics
///
/// Panics if `k == 0` (a cached provider always counts itself).
impl CongestionModel {
    /// Evaluates the price curve.
    pub fn price(&self, base: f64, k: usize) -> f64 {
        assert!(k >= 1, "congestion includes the provider itself");
        match self {
            CongestionModel::Linear => base * k as f64,
            CongestionModel::Polynomial { degree } => base * (k as f64).powi(*degree as i32),
            CongestionModel::Mm1 { capacity } => {
                if k < *capacity {
                    base * k as f64 / (*capacity - k) as f64
                } else {
                    // Saturated: effectively forbidden.
                    1e12
                }
            }
        }
    }

    /// Rosenthal potential contribution of a cloudlet with congestion `s`:
    /// `Σ_{k=1..s} price(base, k)`.
    pub fn potential_term(&self, base: f64, s: usize) -> f64 {
        (1..=s).map(|k| self.price(base, k)).sum()
    }

    /// `true` if the curve is non-decreasing over `1..=max_k` (sanity
    /// check used by tests and debug assertions).
    pub fn is_non_decreasing(&self, base: f64, max_k: usize) -> bool {
        (1..max_k).all(|k| self.price(base, k + 1) >= self.price(base, k) - 1e-12)
    }
}

/// The congestion game of Section II-E generalized over a
/// [`CongestionModel`]. With [`CongestionModel::Linear`] it coincides with
/// [`crate::game`].
#[derive(Debug, Clone)]
pub struct GeneralizedGame<'a> {
    market: &'a Market,
    model: CongestionModel,
}

impl<'a> GeneralizedGame<'a> {
    /// Wraps a market with a congestion model.
    pub fn new(market: &'a Market, model: CongestionModel) -> Self {
        GeneralizedGame { market, model }
    }

    /// The wrapped market.
    pub fn market(&self) -> &Market {
        self.market
    }

    /// The congestion model.
    pub fn model(&self) -> CongestionModel {
        self.model
    }

    /// Cost of provider `l` under `profile` (generalized Eq. 3/5).
    pub fn provider_cost(&self, profile: &Profile, l: ProviderId) -> f64 {
        match profile.placement(l) {
            Placement::Remote => self.market.provider(l).remote_cost,
            Placement::Cloudlet(i) => {
                let sigma = profile.congestion(self.market)[i.index()];
                self.model
                    .price(self.market.cloudlet(i).congestion_price(), sigma)
                    + self.market.provider(l).instantiation_cost
                    + self.market.update_cost(l, i)
            }
        }
    }

    /// Social cost under `profile` (generalized Eq. 6).
    pub fn social_cost(&self, profile: &Profile) -> f64 {
        let sigma = profile.congestion(self.market);
        profile
            .iter()
            .map(|(l, p)| match p {
                Placement::Remote => self.market.provider(l).remote_cost,
                Placement::Cloudlet(i) => {
                    self.model
                        .price(self.market.cloudlet(i).congestion_price(), sigma[i.index()])
                        + self.market.provider(l).instantiation_cost
                        + self.market.update_cost(l, i)
                }
            })
            .sum()
    }

    /// Rosenthal potential of `profile` under this model.
    pub fn potential(&self, profile: &Profile) -> f64 {
        let sigma = profile.congestion(self.market);
        let mut phi = 0.0;
        for i in self.market.cloudlets() {
            phi += self
                .model
                .potential_term(self.market.cloudlet(i).congestion_price(), sigma[i.index()]);
        }
        for (l, p) in profile.iter() {
            match p {
                Placement::Remote => phi += self.market.provider(l).remote_cost,
                Placement::Cloudlet(i) => {
                    phi +=
                        self.market.provider(l).instantiation_cost + self.market.update_cost(l, i);
                }
            }
        }
        phi
    }

    /// Best response of `l` against the rest of `profile` (capacity-aware).
    pub fn best_response(&self, profile: &Profile, l: ProviderId) -> Option<(Placement, f64)> {
        let market = self.market;
        let current = profile.placement(l);
        let mut residual = profile.residual(market);
        let mut sigma = profile.congestion(market);
        if let Placement::Cloudlet(c) = current {
            let spec = market.provider(l);
            residual[c.index()].0 += spec.compute_demand;
            residual[c.index()].1 += spec.bandwidth_demand;
            sigma[c.index()] -= 1;
        }
        choose(market, l, current, |i| {
            market.fits(l, residual[i.index()]).then(|| {
                self.model
                    .price(market.cloudlet(i).congestion_price(), sigma[i.index()] + 1)
                    + market.provider(l).instantiation_cost
                    + market.update_cost(l, i)
            })
        })
    }

    /// Round-robin best-response dynamics to a Nash equilibrium.
    ///
    /// Returns the number of improving moves, or `None` if the round budget
    /// was exhausted (cannot happen for finite non-decreasing models — the
    /// potential strictly decreases per move).
    pub fn run_dynamics(&self, profile: &mut Profile, max_rounds: usize) -> Option<usize> {
        let mut moves = 0;
        for _ in 0..max_rounds {
            let mut improved = false;
            for (l, _) in profile.clone().iter() {
                let cur = self.provider_cost(profile, l);
                if let Some((p, cost)) = self.best_response(profile, l) {
                    if p != profile.placement(l) && cost < cur - IMPROVEMENT_TOL {
                        profile.set(l, p);
                        moves += 1;
                        improved = true;
                    }
                }
            }
            if !improved {
                return Some(moves);
            }
        }
        None
    }

    /// `true` if no provider has a profitable unilateral deviation.
    pub fn is_nash(&self, profile: &Profile) -> bool {
        for (l, _) in profile.iter() {
            let cur = self.provider_cost(profile, l);
            if let Some((p, cost)) = self.best_response(profile, l) {
                if p != profile.placement(l) && cost < cur - IMPROVEMENT_TOL {
                    return false;
                }
            }
        }
        true
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::game;
    use crate::model::{CloudletSpec, ProviderSpec};

    fn market(n: usize) -> Market {
        let mut b = Market::builder()
            .cloudlet(CloudletSpec::new(20.0, 100.0, 0.5, 0.5))
            .cloudlet(CloudletSpec::new(20.0, 100.0, 0.3, 0.2));
        for _ in 0..n {
            b = b.provider(ProviderSpec::new(2.0, 10.0, 1.0, 50.0));
        }
        b.uniform_update_cost(0.2).build()
    }

    #[test]
    fn all_models_non_decreasing() {
        for model in [
            CongestionModel::Linear,
            CongestionModel::Polynomial { degree: 2 },
            CongestionModel::Polynomial { degree: 3 },
            CongestionModel::Mm1 { capacity: 10 },
        ] {
            assert!(model.is_non_decreasing(0.7, 20), "{model:?}");
        }
    }

    #[test]
    fn linear_matches_base_game() {
        let m = market(6);
        let g = GeneralizedGame::new(&m, CongestionModel::Linear);
        let mut p = Profile::all_remote(6);
        let movable = vec![true; 6];
        game::BestResponseDynamics::new(game::MoveOrder::RoundRobin).run(&m, &mut p, &movable);
        // Same profile evaluated by both machineries agrees.
        for (l, _) in p.iter() {
            assert!((g.provider_cost(&p, l) - p.provider_cost(&m, l)).abs() < 1e-12);
        }
        assert!((g.social_cost(&p) - p.social_cost(&m)).abs() < 1e-9);
        assert!((g.potential(&p) - game::rosenthal_potential(&m, &p)).abs() < 1e-9);
        assert!(g.is_nash(&p));
    }

    #[test]
    fn dynamics_converge_for_every_model() {
        for model in [
            CongestionModel::Linear,
            CongestionModel::Polynomial { degree: 2 },
            CongestionModel::Mm1 { capacity: 8 },
        ] {
            let m = market(8);
            let g = GeneralizedGame::new(&m, model);
            let mut p = Profile::all_remote(8);
            let moves = g.run_dynamics(&mut p, 10_000);
            assert!(moves.is_some(), "{model:?} did not converge");
            assert!(g.is_nash(&p), "{model:?} not at NE");
            assert!(p.is_feasible(&m));
        }
    }

    #[test]
    fn potential_decreases_with_each_improving_move() {
        let m = market(6);
        let g = GeneralizedGame::new(&m, CongestionModel::Polynomial { degree: 2 });
        let mut p = Profile::all_remote(6);
        let mut phi = g.potential(&p);
        for _ in 0..100 {
            let mut moved = false;
            for (l, _) in p.clone().iter() {
                let cur = g.provider_cost(&p, l);
                if let Some((np, cost)) = g.best_response(&p, l) {
                    if np != p.placement(l) && cost < cur - IMPROVEMENT_TOL {
                        p.set(l, np);
                        let nphi = g.potential(&p);
                        assert!(nphi < phi, "potential rose under polynomial model");
                        // Exact potential: ΔΦ equals the mover's Δcost.
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
    fn convex_models_spread_harder() {
        // Quadratic pricing penalizes pile-ups more than linear, so the
        // max congestion under quadratic is never larger.
        let m = market(10);
        let run = |model| {
            let g = GeneralizedGame::new(&m, model);
            let mut p = Profile::all_remote(10);
            g.run_dynamics(&mut p, 10_000).unwrap();
            *p.congestion(&m).iter().max().unwrap()
        };
        let lin = run(CongestionModel::Linear);
        let quad = run(CongestionModel::Polynomial { degree: 2 });
        assert!(quad <= lin, "quadratic {quad} > linear {lin}");
    }

    #[test]
    fn mm1_respects_capacity_wall() {
        let m = market(10);
        let g = GeneralizedGame::new(&m, CongestionModel::Mm1 { capacity: 3 });
        let mut p = Profile::all_remote(10);
        g.run_dynamics(&mut p, 10_000).unwrap();
        for s in p.congestion(&m) {
            assert!(s < 3, "M/M/1 wall breached: {s}");
        }
    }

    #[test]
    #[should_panic(expected = "congestion includes the provider")]
    fn zero_congestion_rejected() {
        CongestionModel::Linear.price(1.0, 0);
    }
}
