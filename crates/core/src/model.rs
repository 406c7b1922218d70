//! The service-caching market model (paper Section II).
//!
//! A [`Market`] couples a set of capacitated cloudlets with a set of network
//! service providers, each wanting to cache one service. The cost of caching
//! service `l` in cloudlet `i` is the congestion-aware expression of Eq. (3):
//!
//! ```text
//! c_{l,i} = (α_i + β_i) · |σ_i| + c_l_ins + c_{l,i}_bdw
//! ```
//!
//! where `|σ_i|` is the number of providers cached at `i`. The paper indexes
//! the bandwidth/update term by cloudlet only (`c_i_bdw`); we allow it to be
//! per-(provider, cloudlet) — set it uniformly per cloudlet to recover the
//! paper's exact model, or derive it from update volumes and DC distances as
//! the experiment harness does.
//!
//! Each provider may also *not* cache ("to cache or not to cache") and keep
//! serving from its remote data center at a congestion-free
//! [`ProviderSpec::remote_cost`]; set that to `f64::INFINITY` to forbid it.

use mec_num::approx_zero;
use mec_topology::CloudletId;

/// Identifier of a network service provider (dense index into the market).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct ProviderId(pub usize);

impl ProviderId {
    /// Returns the underlying index.
    #[inline]
    pub fn index(self) -> usize {
        self.0
    }
}

impl std::fmt::Display for ProviderId {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "sp{}", self.0)
    }
}

/// Static description of one cloudlet (resources and congestion pricing).
#[derive(Debug, Clone, PartialEq)]
pub struct CloudletSpec {
    /// Computing capacity `C(CL_i)` (VM units).
    pub compute_capacity: f64,
    /// Bandwidth capacity `B(CL_i)` (Mbps).
    pub bandwidth_capacity: f64,
    /// Computing-congestion price coefficient `α_i`.
    pub alpha: f64,
    /// Bandwidth-congestion price coefficient `β_i`.
    pub beta: f64,
}

impl CloudletSpec {
    /// Validates and builds a cloudlet spec.
    ///
    /// # Panics
    ///
    /// Panics if any value is non-finite or negative.
    pub fn new(compute_capacity: f64, bandwidth_capacity: f64, alpha: f64, beta: f64) -> Self {
        for (name, v) in [
            ("compute_capacity", compute_capacity),
            ("bandwidth_capacity", bandwidth_capacity),
            ("alpha", alpha),
            ("beta", beta),
        ] {
            assert!(v.is_finite() && v >= 0.0, "{name} must be >= 0, got {v}");
        }
        CloudletSpec {
            compute_capacity,
            bandwidth_capacity,
            alpha,
            beta,
        }
    }

    /// Congestion price per cached service, `α_i + β_i`.
    #[inline]
    pub fn congestion_price(&self) -> f64 {
        self.alpha + self.beta
    }
}

/// Static description of one provider's service (demands and base costs).
#[derive(Debug, Clone, PartialEq)]
pub struct ProviderSpec {
    /// Total computing demand `a_l · r_l` (VM units).
    pub compute_demand: f64,
    /// Total bandwidth demand `b_l · r_l` (Mbps).
    pub bandwidth_demand: f64,
    /// Instantiation + processing cost `c_l_ins` (dollars).
    pub instantiation_cost: f64,
    /// Cost of serving from the remote data center instead of caching
    /// (`f64::INFINITY` forbids the remote option).
    pub remote_cost: f64,
}

impl ProviderSpec {
    /// Validates and builds a provider spec.
    ///
    /// # Panics
    ///
    /// Panics if demands/costs are negative or NaN (remote cost may be
    /// `INFINITY`).
    pub fn new(
        compute_demand: f64,
        bandwidth_demand: f64,
        instantiation_cost: f64,
        remote_cost: f64,
    ) -> Self {
        for (name, v) in [
            ("compute_demand", compute_demand),
            ("bandwidth_demand", bandwidth_demand),
            ("instantiation_cost", instantiation_cost),
        ] {
            assert!(v.is_finite() && v >= 0.0, "{name} must be >= 0, got {v}");
        }
        assert!(
            !remote_cost.is_nan() && remote_cost >= 0.0,
            "remote_cost must be >= 0 or INFINITY"
        );
        ProviderSpec {
            compute_demand,
            bandwidth_demand,
            instantiation_cost,
            remote_cost,
        }
    }

    /// `true` if the provider is allowed to keep serving remotely.
    #[inline]
    pub fn can_stay_remote(&self) -> bool {
        self.remote_cost.is_finite()
    }
}

/// A service-caching market: cloudlets, providers, and the fixed
/// bandwidth/update cost of every (provider, cloudlet) pair.
#[derive(Debug, Clone)]
pub struct Market {
    cloudlets: Vec<CloudletSpec>,
    providers: Vec<ProviderSpec>,
    /// `providers × cloudlets`: `c_{l,i}_bdw`.
    update_cost: Vec<f64>,
}

impl Market {
    /// Starts building a market. See [`MarketBuilder`].
    pub fn builder() -> MarketBuilder {
        MarketBuilder::default()
    }

    /// Number of cloudlets.
    pub fn cloudlet_count(&self) -> usize {
        self.cloudlets.len()
    }

    /// Number of providers (`|N|`).
    pub fn provider_count(&self) -> usize {
        self.providers.len()
    }

    /// Iterates over cloudlet ids.
    pub fn cloudlets(&self) -> impl Iterator<Item = CloudletId> + '_ {
        (0..self.cloudlets.len()).map(CloudletId)
    }

    /// Iterates over provider ids.
    pub fn providers(&self) -> impl Iterator<Item = ProviderId> + '_ {
        (0..self.providers.len()).map(ProviderId)
    }

    /// Spec of cloudlet `i`.
    ///
    /// # Panics
    ///
    /// Panics if `i` is out of range.
    pub fn cloudlet(&self, i: CloudletId) -> &CloudletSpec {
        &self.cloudlets[i.index()]
    }

    /// Spec of provider `l`.
    ///
    /// # Panics
    ///
    /// Panics if `l` is out of range.
    pub fn provider(&self, l: ProviderId) -> &ProviderSpec {
        &self.providers[l.index()]
    }

    /// Fixed bandwidth/update cost `c_{l,i}_bdw`.
    #[inline]
    pub fn update_cost(&self, l: ProviderId, i: CloudletId) -> f64 {
        self.update_cost[l.index() * self.cloudlets.len() + i.index()]
    }

    /// Congestion-free ("flat") cost of caching `l` at `i`:
    /// `α_i + β_i + c_l_ins + c_{l,i}_bdw` — the GAP cost of Eq. (9).
    pub fn flat_cost(&self, l: ProviderId, i: CloudletId) -> f64 {
        let cl = self.cloudlet(i);
        cl.alpha + cl.beta + self.provider(l).instantiation_cost + self.update_cost(l, i)
    }

    /// Cost of caching `l` at `i` when `congestion` providers (including `l`
    /// itself) are cached there — Eq. (3).
    pub fn caching_cost(&self, l: ProviderId, i: CloudletId, congestion: usize) -> f64 {
        let cl = self.cloudlet(i);
        cl.congestion_price() * congestion as f64
            + self.provider(l).instantiation_cost
            + self.update_cost(l, i)
    }

    /// Maximum computing demand `a_max` over providers.
    pub fn max_compute_demand(&self) -> f64 {
        self.providers
            .iter()
            .map(|p| p.compute_demand)
            .fold(0.0, f64::max)
    }

    /// Maximum bandwidth demand `b_max` over providers.
    pub fn max_bandwidth_demand(&self) -> f64 {
        self.providers
            .iter()
            .map(|p| p.bandwidth_demand)
            .fold(0.0, f64::max)
    }

    /// `true` if provider `l` fits in cloudlet `i` given residual capacity
    /// `(compute_left, bandwidth_left)`.
    pub fn fits(&self, l: ProviderId, free: (f64, f64)) -> bool {
        let p = self.provider(l);
        p.compute_demand <= free.0 + 1e-9 && p.bandwidth_demand <= free.1 + 1e-9
    }

    /// The paper's `δ = max_i C(CL_i)/a_max` (Lemma 2).
    pub fn delta(&self) -> f64 {
        let a_max = self.max_compute_demand();
        if approx_zero(a_max, 0.0) {
            return 1.0;
        }
        self.cloudlets
            .iter()
            .map(|c| c.compute_capacity / a_max)
            .fold(0.0, f64::max)
    }

    /// Replaces provider `l`'s `(compute, bandwidth)` demands in place —
    /// the serving layer's `UpdateDemand` operation. Aggregates derived
    /// from the old demands are not notified: to change a demand under a
    /// live [`crate::state::GameState`], call
    /// [`crate::state::GameState::set_provider_demand`] instead.
    ///
    /// # Panics
    ///
    /// Panics if `l` is out of range or a demand is negative/non-finite.
    pub fn set_provider_demand(&mut self, l: ProviderId, compute: f64, bandwidth: f64) {
        for (name, v) in [("compute_demand", compute), ("bandwidth_demand", bandwidth)] {
            assert!(v.is_finite() && v >= 0.0, "{name} must be >= 0, got {v}");
        }
        let p = &mut self.providers[l.index()];
        p.compute_demand = compute;
        p.bandwidth_demand = bandwidth;
    }

    /// Builds a sub-market containing only `keep` (in the given order),
    /// with the same cloudlets and update costs. Used by the churn
    /// simulation ([`crate::dynamics`]) to replan for the active providers.
    ///
    /// # Panics
    ///
    /// Panics if `keep` is empty or contains an out-of-range id.
    pub fn restrict(&self, keep: &[ProviderId]) -> Market {
        assert!(!keep.is_empty(), "sub-market needs providers");
        let m = self.cloudlets.len();
        let providers: Vec<ProviderSpec> = keep
            .iter()
            .map(|l| self.providers[l.index()].clone())
            .collect();
        let mut update_cost = Vec::with_capacity(keep.len() * m);
        for l in keep {
            let row = &self.update_cost[l.index() * m..(l.index() + 1) * m];
            update_cost.extend_from_slice(row);
        }
        Market {
            cloudlets: self.cloudlets.clone(),
            providers,
            update_cost,
        }
    }

    /// The paper's `κ = max_i B(CL_i)/b_max` (Lemma 2).
    pub fn kappa(&self) -> f64 {
        let b_max = self.max_bandwidth_demand();
        if approx_zero(b_max, 0.0) {
            return 1.0;
        }
        self.cloudlets
            .iter()
            .map(|c| c.bandwidth_capacity / b_max)
            .fold(0.0, f64::max)
    }
}

/// Builder for [`Market`].
///
/// # Examples
///
/// ```
/// use mec_core::model::{CloudletSpec, Market, ProviderSpec};
///
/// let market = Market::builder()
///     .cloudlet(CloudletSpec::new(20.0, 100.0, 0.5, 0.5))
///     .cloudlet(CloudletSpec::new(25.0, 120.0, 0.3, 0.4))
///     .provider(ProviderSpec::new(2.0, 10.0, 1.0, 8.0))
///     .provider(ProviderSpec::new(3.0, 15.0, 1.5, 9.0))
///     .uniform_update_cost(0.5)
///     .build();
/// assert_eq!(market.cloudlet_count(), 2);
/// assert_eq!(market.provider_count(), 2);
/// ```
#[derive(Debug, Default)]
pub struct MarketBuilder {
    cloudlets: Vec<CloudletSpec>,
    providers: Vec<ProviderSpec>,
    update_cost: Option<Vec<f64>>,
    uniform_update: f64,
}

impl MarketBuilder {
    /// Adds a cloudlet.
    pub fn cloudlet(mut self, spec: CloudletSpec) -> Self {
        self.cloudlets.push(spec);
        self
    }

    /// Adds a provider.
    pub fn provider(mut self, spec: ProviderSpec) -> Self {
        self.providers.push(spec);
        self
    }

    /// Sets a single update cost for every (provider, cloudlet) pair —
    /// the paper's `c_i_bdw` made uniform.
    pub fn uniform_update_cost(mut self, cost: f64) -> Self {
        assert!(cost.is_finite() && cost >= 0.0, "update cost must be >= 0");
        self.uniform_update = cost;
        self.update_cost = None;
        self
    }

    /// Sets the full `providers × cloudlets` update-cost matrix (row-major
    /// by provider). Call after all cloudlets/providers are added.
    ///
    /// # Panics
    ///
    /// Panics at [`MarketBuilder::build`] if the dimensions do not match.
    pub fn update_cost_matrix(mut self, matrix: Vec<f64>) -> Self {
        self.update_cost = Some(matrix);
        self
    }

    /// Finalizes the market.
    ///
    /// # Panics
    ///
    /// Panics if there are no cloudlets or no providers, or if a supplied
    /// update-cost matrix has the wrong size or invalid entries.
    pub fn build(self) -> Market {
        assert!(!self.cloudlets.is_empty(), "market needs cloudlets");
        assert!(!self.providers.is_empty(), "market needs providers");
        let want = self.providers.len() * self.cloudlets.len();
        let update_cost = match self.update_cost {
            Some(m) => {
                assert_eq!(m.len(), want, "update-cost matrix has the wrong size");
                assert!(
                    m.iter().all(|v| v.is_finite() && *v >= 0.0),
                    "update costs must be finite and >= 0"
                );
                m
            }
            None => vec![self.uniform_update; want],
        };
        Market {
            cloudlets: self.cloudlets,
            providers: self.providers,
            update_cost,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mec_num::assert_approx_eq;

    pub(crate) fn toy_market() -> Market {
        Market::builder()
            .cloudlet(CloudletSpec::new(10.0, 50.0, 0.5, 0.5))
            .cloudlet(CloudletSpec::new(8.0, 40.0, 0.2, 0.3))
            .provider(ProviderSpec::new(2.0, 10.0, 1.0, 10.0))
            .provider(ProviderSpec::new(3.0, 12.0, 1.5, 12.0))
            .provider(ProviderSpec::new(1.0, 8.0, 0.5, 6.0))
            .uniform_update_cost(0.4)
            .build()
    }

    #[test]
    fn builder_roundtrip() {
        let m = toy_market();
        assert_eq!(m.cloudlet_count(), 2);
        assert_eq!(m.provider_count(), 3);
        assert_approx_eq!(m.cloudlet(CloudletId(0)).compute_capacity, 10.0, 1e-12);
        assert_approx_eq!(m.provider(ProviderId(1)).bandwidth_demand, 12.0, 1e-12);
        assert_approx_eq!(m.update_cost(ProviderId(2), CloudletId(1)), 0.4, 0.0);
    }

    #[test]
    fn flat_cost_is_eq9() {
        let m = toy_market();
        // α0 + β0 + c_ins(p1) + update = 0.5+0.5+1.5+0.4
        let c = m.flat_cost(ProviderId(1), CloudletId(0));
        assert!((c - 2.9).abs() < 1e-12);
    }

    #[test]
    fn caching_cost_grows_with_congestion() {
        let m = toy_market();
        let c1 = m.caching_cost(ProviderId(0), CloudletId(0), 1);
        let c3 = m.caching_cost(ProviderId(0), CloudletId(0), 3);
        assert!((c3 - c1 - 2.0 * m.cloudlet(CloudletId(0)).congestion_price()).abs() < 1e-12);
    }

    #[test]
    fn flat_cost_equals_caching_cost_at_congestion_one() {
        let m = toy_market();
        for l in m.providers() {
            for i in m.cloudlets() {
                assert!((m.flat_cost(l, i) - m.caching_cost(l, i, 1)).abs() < 1e-12);
            }
        }
    }

    #[test]
    fn demand_maxima() {
        let m = toy_market();
        assert_approx_eq!(m.max_compute_demand(), 3.0, 1e-12);
        assert_approx_eq!(m.max_bandwidth_demand(), 12.0, 1e-12);
    }

    #[test]
    fn delta_kappa() {
        let m = toy_market();
        assert!((m.delta() - 10.0 / 3.0).abs() < 1e-12);
        assert!((m.kappa() - 50.0 / 12.0).abs() < 1e-12);
    }

    #[test]
    fn fits_checks_both_dimensions() {
        let m = toy_market();
        assert!(m.fits(ProviderId(0), (2.0, 10.0)));
        assert!(!m.fits(ProviderId(0), (1.9, 10.0)));
        assert!(!m.fits(ProviderId(0), (2.0, 9.0)));
    }

    #[test]
    fn remote_option_flag() {
        let p = ProviderSpec::new(1.0, 1.0, 1.0, f64::INFINITY);
        assert!(!p.can_stay_remote());
        let q = ProviderSpec::new(1.0, 1.0, 1.0, 5.0);
        assert!(q.can_stay_remote());
    }

    #[test]
    #[should_panic(expected = "market needs cloudlets")]
    fn build_requires_cloudlets() {
        let _ = Market::builder()
            .provider(ProviderSpec::new(1.0, 1.0, 1.0, 1.0))
            .build();
    }

    #[test]
    #[should_panic(expected = "wrong size")]
    fn update_matrix_size_checked() {
        let _ = Market::builder()
            .cloudlet(CloudletSpec::new(1.0, 1.0, 0.1, 0.1))
            .provider(ProviderSpec::new(1.0, 1.0, 1.0, 1.0))
            .update_cost_matrix(vec![0.1, 0.2])
            .build();
    }

    #[test]
    fn display_provider_id() {
        assert_eq!(ProviderId(4).to_string(), "sp4");
    }
}
