//! Outcome diagnostics: where does the social cost come from?
//!
//! The figures report a single social-cost number; understanding *why* an
//! algorithm wins needs the decomposition — congestion charges vs fixed
//! instantiation/update charges vs remote serving — plus how evenly the
//! load spreads across cloudlets. The examples and EXPERIMENTS.md use this
//! module to explain results rather than just report them.

use crate::model::Market;
use crate::strategy::{Placement, Profile};

/// Additive decomposition of the social cost (Eq. 6).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CostBreakdown {
    /// Total congestion charges `Σ_i (α_i+β_i)·σ_i²`.
    pub congestion: f64,
    /// Total instantiation + processing charges of cached services.
    pub instantiation: f64,
    /// Total bandwidth/update charges of cached services.
    pub update: f64,
    /// Total remote-serving charges.
    pub remote: f64,
}

impl CostBreakdown {
    /// The full social cost (sums the components).
    pub fn total(&self) -> f64 {
        self.congestion + self.instantiation + self.update + self.remote
    }
}

/// Decomposes the social cost of `profile`.
pub fn cost_breakdown(market: &Market, profile: &Profile) -> CostBreakdown {
    let sigma = profile.congestion(market);
    let mut b = CostBreakdown {
        congestion: 0.0,
        instantiation: 0.0,
        update: 0.0,
        remote: 0.0,
    };
    for (l, p) in profile.iter() {
        match p {
            Placement::Remote => b.remote += market.provider(l).remote_cost,
            Placement::Cloudlet(i) => {
                b.congestion += market.cloudlet(i).congestion_price() * sigma[i.index()] as f64;
                b.instantiation += market.provider(l).instantiation_cost;
                b.update += market.update_cost(l, i);
            }
        }
    }
    b
}

/// Load-balance diagnostics of a placement.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct LoadBalance {
    /// Cloudlets hosting at least one cached service.
    pub used_cloudlets: usize,
    /// Largest congestion level `max_i σ_i`.
    pub max_congestion: usize,
    /// Mean congestion over *used* cloudlets.
    pub mean_congestion: f64,
    /// Jain's fairness index of the congestion vector
    /// (`1` = perfectly even, `1/n` = everything on one cloudlet).
    pub jain_index: f64,
    /// Fraction of providers cached (vs serving remotely).
    pub cached_fraction: f64,
}

/// Computes [`LoadBalance`] for `profile`.
///
/// Jain's index is computed over all cloudlets (empty ones included), so a
/// profile that piles everything onto one of many cloudlets scores near
/// `1/m`.
pub fn load_balance(market: &Market, profile: &Profile) -> LoadBalance {
    let sigma = profile.congestion(market);
    let used = sigma.iter().filter(|s| **s > 0).count();
    let max = sigma.iter().copied().max().unwrap_or(0);
    let cached: usize = sigma.iter().sum();
    let sum: f64 = sigma.iter().map(|&s| s as f64).sum();
    let sumsq: f64 = sigma.iter().map(|&s| (s as f64) * (s as f64)).sum();
    let jain = if sumsq > 0.0 {
        sum * sum / (sigma.len() as f64 * sumsq)
    } else {
        1.0
    };
    LoadBalance {
        used_cloudlets: used,
        max_congestion: max,
        mean_congestion: if used > 0 { sum / used as f64 } else { 0.0 },
        jain_index: jain,
        cached_fraction: cached as f64 / profile.len() as f64,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::model::{CloudletSpec, ProviderSpec};
    use mec_num::assert_approx_eq;
    use mec_topology::CloudletId;

    fn market() -> Market {
        Market::builder()
            .cloudlet(CloudletSpec::new(20.0, 100.0, 0.5, 0.5))
            .cloudlet(CloudletSpec::new(20.0, 100.0, 0.3, 0.3))
            .provider(ProviderSpec::new(2.0, 10.0, 1.0, 7.0))
            .provider(ProviderSpec::new(2.0, 10.0, 1.5, 8.0))
            .provider(ProviderSpec::new(2.0, 10.0, 2.0, 9.0))
            .uniform_update_cost(0.4)
            .build()
    }

    #[test]
    fn breakdown_sums_to_social_cost() {
        let m = market();
        for placements in [
            vec![
                Placement::Cloudlet(CloudletId(0)),
                Placement::Cloudlet(CloudletId(0)),
                Placement::Remote,
            ],
            vec![
                Placement::Cloudlet(CloudletId(0)),
                Placement::Cloudlet(CloudletId(1)),
                Placement::Cloudlet(CloudletId(1)),
            ],
            vec![Placement::Remote; 3],
        ] {
            let p = Profile::new(placements);
            let b = cost_breakdown(&m, &p);
            assert!(
                (b.total() - p.social_cost(&m)).abs() < 1e-9,
                "breakdown {b:?} != social {}",
                p.social_cost(&m)
            );
        }
    }

    #[test]
    fn remote_only_has_remote_component() {
        let m = market();
        let p = Profile::all_remote(3);
        let b = cost_breakdown(&m, &p);
        assert_approx_eq!(b.congestion, 0.0, 1e-12);
        assert_approx_eq!(b.instantiation, 0.0, 1e-12);
        assert_approx_eq!(b.update, 0.0, 1e-12);
        assert!((b.remote - 24.0).abs() < 1e-9);
    }

    #[test]
    fn congestion_component_is_quadratic() {
        let m = market();
        let p = Profile::new(vec![
            Placement::Cloudlet(CloudletId(0)),
            Placement::Cloudlet(CloudletId(0)),
            Placement::Cloudlet(CloudletId(0)),
        ]);
        let b = cost_breakdown(&m, &p);
        // price 1.0, sigma 3 => each pays 3, total 9 = sigma^2 * price.
        assert!((b.congestion - 9.0).abs() < 1e-9);
    }

    #[test]
    fn jain_index_extremes() {
        let m = market();
        let piled = Profile::new(vec![
            Placement::Cloudlet(CloudletId(0)),
            Placement::Cloudlet(CloudletId(0)),
            Placement::Cloudlet(CloudletId(0)),
        ]);
        let lb = load_balance(&m, &piled);
        assert!((lb.jain_index - 0.5).abs() < 1e-9); // 1/m with m=2
        assert_eq!(lb.max_congestion, 3);
        assert_eq!(lb.used_cloudlets, 1);
        assert!((lb.cached_fraction - 1.0).abs() < 1e-12);

        let spread = Profile::new(vec![
            Placement::Cloudlet(CloudletId(0)),
            Placement::Cloudlet(CloudletId(1)),
            Placement::Remote,
        ]);
        let lb2 = load_balance(&m, &spread);
        assert!((lb2.jain_index - 1.0).abs() < 1e-9);
        assert!((lb2.cached_fraction - 2.0 / 3.0).abs() < 1e-12);
    }

    #[test]
    fn all_remote_balance() {
        let m = market();
        let lb = load_balance(&m, &Profile::all_remote(3));
        assert_eq!(lb.used_cloudlets, 0);
        assert_eq!(lb.max_congestion, 0);
        assert_approx_eq!(lb.cached_fraction, 0.0, 1e-12);
        assert_approx_eq!(lb.jain_index, 1.0, 1e-12);
    }
}
