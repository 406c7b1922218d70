//! Weighted congestion game: congestion measured by resource *load*.
//!
//! The paper counts congestion as the number of cached instances `|σ_i|`
//! (every service weighs the same). A natural refinement weighs each
//! service by its resource footprint — a VR renderer occupying 4 VMs
//! congests a cloudlet more than a 1-VM thumbnailer. This module implements
//! that *weighted affine congestion game*: provider `l` cached at `CL_i`
//! pays
//!
//! ```text
//! (α_i + β_i) · W_i + c_l_ins + c_{l,i}_bdw,     W_i = Σ_{k ∈ σ_i} w_k
//! ```
//!
//! with `w_k` the normalized load of provider `k`. Affine weighted
//! congestion games admit a *weighted* potential
//! (Fotakis–Kontogiannis–Spirakis):
//!
//! ```text
//! Φ(σ) = Σ_i (α_i+β_i)/2 · [ W_i² + Σ_{k ∈ σ_i} w_k² ] + Σ_l w_l · fixed_l
//! ```
//!
//! satisfying `ΔΦ = w_l · Δcost_l` for every unilateral move — so every
//! improving move by a positive-weight player strictly decreases `Φ` and
//! best-response dynamics converge here too (zero-weight players do not
//! affect anyone else, so they settle after one sweep). The tests verify
//! the weighted-potential identity move by move.

use crate::game::{choose, IMPROVEMENT_TOL};
use crate::model::{Market, ProviderId};
use crate::strategy::{Placement, Profile};

/// The weighted congestion game over a market.
///
/// Weights default to each provider's normalized compute+bandwidth
/// footprint; [`WeightedGame::with_weights`] overrides them.
#[derive(Debug, Clone)]
pub struct WeightedGame<'a> {
    market: &'a Market,
    weights: Vec<f64>,
}

impl<'a> WeightedGame<'a> {
    /// Builds the game with footprint weights
    /// `w_l = max(A_l/a_max, B_l/b_max)` (same normalization as `Appro`).
    pub fn new(market: &'a Market) -> Self {
        let a_max = market.max_compute_demand().max(1e-12);
        let b_max = market.max_bandwidth_demand().max(1e-12);
        let weights = market
            .providers()
            .map(|l| {
                let p = market.provider(l);
                (p.compute_demand / a_max).max(p.bandwidth_demand / b_max)
            })
            .collect();
        WeightedGame { market, weights }
    }

    /// Overrides the provider weights.
    ///
    /// # Panics
    ///
    /// Panics if the length mismatches or any weight is negative/non-finite.
    pub fn with_weights(market: &'a Market, weights: Vec<f64>) -> Self {
        assert_eq!(
            weights.len(),
            market.provider_count(),
            "one weight per provider"
        );
        assert!(
            weights.iter().all(|w| w.is_finite() && *w >= 0.0),
            "weights must be finite and >= 0"
        );
        WeightedGame { market, weights }
    }

    /// Weight of provider `l`.
    pub fn weight(&self, l: ProviderId) -> f64 {
        self.weights[l.index()]
    }

    /// Total cached load per cloudlet.
    pub fn loads(&self, profile: &Profile) -> Vec<f64> {
        let mut w = vec![0.0; self.market.cloudlet_count()];
        for (l, p) in profile.iter() {
            if let Placement::Cloudlet(i) = p {
                w[i.index()] += self.weights[l.index()];
            }
        }
        w
    }

    /// Cost of provider `l` under `profile`.
    pub fn provider_cost(&self, profile: &Profile, l: ProviderId) -> f64 {
        match profile.placement(l) {
            Placement::Remote => self.market.provider(l).remote_cost,
            Placement::Cloudlet(i) => {
                let load = self.loads(profile)[i.index()];
                self.market.cloudlet(i).congestion_price() * load
                    + self.market.provider(l).instantiation_cost
                    + self.market.update_cost(l, i)
            }
        }
    }

    /// Social cost: sum of all provider costs.
    pub fn social_cost(&self, profile: &Profile) -> f64 {
        self.market
            .providers()
            .map(|l| self.provider_cost(profile, l))
            .sum()
    }

    /// The weighted potential of the affine game
    /// (`ΔΦ = w_l · Δcost_l` for any unilateral move of `l`).
    pub fn potential(&self, profile: &Profile) -> f64 {
        let mut phi = 0.0;
        let mut load = vec![0.0; self.market.cloudlet_count()];
        let mut sq = vec![0.0; self.market.cloudlet_count()];
        for (l, p) in profile.iter() {
            let w = self.weights[l.index()];
            match p {
                Placement::Remote => phi += w * self.market.provider(l).remote_cost,
                Placement::Cloudlet(i) => {
                    load[i.index()] += w;
                    sq[i.index()] += w * w;
                    phi += w
                        * (self.market.provider(l).instantiation_cost
                            + self.market.update_cost(l, i));
                }
            }
        }
        for i in self.market.cloudlets() {
            let p = self.market.cloudlet(i).congestion_price();
            phi += p / 2.0 * (load[i.index()] * load[i.index()] + sq[i.index()]);
        }
        phi
    }

    /// Best response of `l` (capacity-aware).
    pub fn best_response(&self, profile: &Profile, l: ProviderId) -> Option<(Placement, f64)> {
        let market = self.market;
        let current = profile.placement(l);
        let mut residual = profile.residual(market);
        let mut load = self.loads(profile);
        if let Placement::Cloudlet(c) = current {
            let spec = market.provider(l);
            residual[c.index()].0 += spec.compute_demand;
            residual[c.index()].1 += spec.bandwidth_demand;
            load[c.index()] -= self.weights[l.index()];
        }
        choose(market, l, current, |i| {
            market.fits(l, residual[i.index()]).then(|| {
                market.cloudlet(i).congestion_price() * (load[i.index()] + self.weights[l.index()])
                    + market.provider(l).instantiation_cost
                    + market.update_cost(l, i)
            })
        })
    }

    /// Round-robin best-response dynamics; returns moves on convergence.
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

    /// `true` if no provider can unilaterally improve.
    pub fn is_nash(&self, profile: &Profile) -> bool {
        self.market.providers().all(|l| {
            let cur = self.provider_cost(profile, l);
            match self.best_response(profile, l) {
                Some((p, cost)) => p == profile.placement(l) || cost >= cur - IMPROVEMENT_TOL,
                None => true,
            }
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::model::{CloudletSpec, ProviderSpec};
    use mec_topology::CloudletId;

    fn market(demands: &[(f64, f64)]) -> Market {
        let mut b = Market::builder()
            .cloudlet(CloudletSpec::new(30.0, 150.0, 0.5, 0.5))
            .cloudlet(CloudletSpec::new(30.0, 150.0, 0.4, 0.4));
        for &(a, bd) in demands {
            b = b.provider(ProviderSpec::new(a, bd, 0.8, 25.0));
        }
        b.uniform_update_cost(0.2).build()
    }

    #[test]
    fn weights_follow_footprints() {
        let m = market(&[(4.0, 10.0), (1.0, 5.0), (2.0, 20.0)]);
        let g = WeightedGame::new(&m);
        assert!((g.weight(ProviderId(0)) - 1.0).abs() < 1e-12); // a-max
        assert!((g.weight(ProviderId(2)) - 1.0).abs() < 1e-12); // b-max
        assert!(g.weight(ProviderId(1)) < 1.0);
    }

    #[test]
    fn dynamics_converge_to_nash() {
        let m = market(&[
            (4.0, 10.0),
            (1.0, 5.0),
            (2.0, 20.0),
            (3.0, 8.0),
            (1.5, 12.0),
        ]);
        let g = WeightedGame::new(&m);
        let mut p = Profile::all_remote(5);
        let moves = g.run_dynamics(&mut p, 10_000);
        assert!(moves.is_some());
        assert!(g.is_nash(&p));
        assert!(p.is_feasible(&m));
    }

    #[test]
    fn potential_is_exact() {
        // Every improving move decreases Φ by exactly the mover's gain.
        let m = market(&[(4.0, 10.0), (1.0, 5.0), (2.0, 20.0), (3.0, 8.0)]);
        let g = WeightedGame::new(&m);
        let mut p = Profile::all_remote(4);
        let mut phi = g.potential(&p);
        for _ in 0..50 {
            let mut moved = false;
            for (l, _) in p.clone().iter() {
                let cur = g.provider_cost(&p, l);
                if let Some((np, cost)) = g.best_response(&p, l) {
                    if np != p.placement(l) && cost < cur - IMPROVEMENT_TOL {
                        p.set(l, np);
                        let nphi = g.potential(&p);
                        let w = g.weight(l);
                        assert!(
                            ((phi - nphi) - w * (cur - cost)).abs() < 1e-9,
                            "weighted potential identity broken: dPhi {} vs w*dCost {}",
                            phi - nphi,
                            w * (cur - cost)
                        );
                        assert!(nphi < phi, "potential did not decrease");
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
    fn heavy_players_congest_more() {
        // One heavy + one light on the same cloudlet: the heavy provider's
        // presence raises the light one's cost more than vice versa.
        let m = market(&[(4.0, 40.0), (1.0, 5.0)]);
        let g = WeightedGame::new(&m);
        let both = Profile::new(vec![
            Placement::Cloudlet(CloudletId(0)),
            Placement::Cloudlet(CloudletId(0)),
        ]);
        let mut only_light = both.clone();
        only_light.set(ProviderId(0), Placement::Remote);
        let mut only_heavy = both.clone();
        only_heavy.set(ProviderId(1), Placement::Remote);
        let light_with_heavy = g.provider_cost(&both, ProviderId(1));
        let light_alone = g.provider_cost(&only_light, ProviderId(1));
        let heavy_with_light = g.provider_cost(&both, ProviderId(0));
        let heavy_alone = g.provider_cost(&only_heavy, ProviderId(0));
        assert!(light_with_heavy - light_alone > heavy_with_light - heavy_alone);
    }

    #[test]
    fn uniform_weights_recover_unweighted_game() {
        let m = market(&[(2.0, 10.0), (2.0, 10.0), (2.0, 10.0)]);
        let g = WeightedGame::with_weights(&m, vec![1.0; 3]);
        let p = Profile::new(vec![
            Placement::Cloudlet(CloudletId(0)),
            Placement::Cloudlet(CloudletId(0)),
            Placement::Remote,
        ]);
        for l in m.providers() {
            assert!((g.provider_cost(&p, l) - p.provider_cost(&m, l)).abs() < 1e-12);
        }
        assert!((g.social_cost(&p) - p.social_cost(&m)).abs() < 1e-9);
    }

    #[test]
    #[should_panic(expected = "one weight per provider")]
    fn weight_length_checked() {
        let m = market(&[(1.0, 5.0)]);
        let _ = WeightedGame::with_weights(&m, vec![1.0, 2.0]);
    }
}
