//! The paper's experiment parameters (Section IV-A), as a config type.
//!
//! > "The number of VMs provided by each cloudlet/data center is randomly
//! > generated from [15, 30]. The bandwidth capacity of each VM is drawn
//! > from the range of [10Mbps, 100Mbps]. The costs of transmitting and
//! > processing 1 GB of data are set within [$0.05, $0.12] and
//! > [$0.15, $0.22], respectively. The traffic volume of each request is
//! > randomly drawn from [10, 200] Megabytes. The data volume of each
//! > service caching request is varied from 1 GB to 5 GB. The values for
//! > α_i and β_i of each cloudlet are randomly drawn in the range of [0, 1].
//! > The data volume of consistency updating ... is set to 10 % of the
//! > service's data volume."

/// An inclusive uniform sampling range.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Range {
    /// Lower bound.
    pub lo: f64,
    /// Upper bound.
    pub hi: f64,
}

impl Range {
    /// Creates a range.
    ///
    /// # Panics
    ///
    /// Panics if `lo > hi` or either bound is non-finite.
    pub fn new(lo: f64, hi: f64) -> Self {
        assert!(
            lo.is_finite() && hi.is_finite() && lo <= hi,
            "bad range [{lo}, {hi}]"
        );
        Range { lo, hi }
    }

    /// Midpoint of the range.
    pub fn mid(&self) -> f64 {
        (self.lo + self.hi) / 2.0
    }

    /// Samples uniformly from the range with the given RNG.
    pub fn sample<R: rand::Rng + ?Sized>(&self, rng: &mut R) -> f64 {
        if self.lo == self.hi {
            self.lo
        } else {
            rand::RngExt::random_range(rng, self.lo..self.hi)
        }
    }
}

/// Full parameter set for generating a market from a topology.
///
/// Defaults reproduce Section IV-A. Every figure's sweep mutates exactly one
/// field of this struct.
#[derive(Debug, Clone)]
pub struct Params {
    /// Number of network service providers `|N|` (paper: 100).
    pub providers: usize,
    /// VMs per cloudlet — the computing capacity `C(CL_i)` (paper: [15, 30]).
    pub vms_per_cloudlet: Range,
    /// Per-VM bandwidth in Mbps; cloudlet bandwidth capacity `B(CL_i)` is
    /// `VMs × per-VM bandwidth` (paper: [10, 100] Mbps).
    pub vm_bandwidth_mbps: Range,
    /// Cost of transmitting 1 GB, dollars (paper: [0.05, 0.12]).
    pub tx_cost_per_gb: Range,
    /// Cost of processing 1 GB, dollars (paper: [0.15, 0.22]).
    pub proc_cost_per_gb: Range,
    /// Traffic volume per request, MB (paper: [10, 200]).
    pub traffic_per_request_mb: Range,
    /// Requests per service `r_l` (paper does not pin this down; sized so
    /// that capacities comfortably exceed single-service demands — Lemma 1's
    /// standing assumption).
    pub requests_per_service: Range,
    /// Service data volume, GB (paper: [1, 5]).
    pub service_data_gb: Range,
    /// Computing demand of one service in VM units `a_l · r_l`
    /// (scaled so `C_i ≫ a_l`; see Lemma 1).
    pub service_vms: Range,
    /// Congestion coefficients `α_i` (paper: [0, 1]).
    pub alpha: Range,
    /// Congestion coefficients `β_i` (paper: [0, 1]).
    pub beta: Range,
    /// Update volume as a fraction of the service data volume (paper: 0.10).
    pub update_ratio: f64,
    /// Bandwidth each service reserves per request, Mbps (`b_l`).
    pub bandwidth_per_request_mbps: Range,
    /// VM instantiation fee per *VM unit* of the cached service, dollars —
    /// cloud pricing is resource-proportional ("the costs of using VMs are
    /// due to the usage of both computing and bandwidth resources").
    pub instantiation_fee: Range,
    /// Bandwidth-reservation price per Mbps reserved at a cloudlet,
    /// dollars (part of `c_{l,i}_bdw`).
    pub bandwidth_price_per_mbps: f64,
    /// Multiplier converting a physical-path latency (ms) into a relative
    /// distance factor for wide-area transfer pricing.
    pub distance_factor_per_ms: f64,
    /// Extra delay-penalty factor applied to remote (data-center) serving,
    /// reflecting the "hundreds of milliseconds" core-network detour the
    /// introduction motivates.
    pub remote_penalty: f64,
    /// Whether providers may refuse to cache and stay remote.
    pub allow_remote: bool,
}

impl Default for Params {
    fn default() -> Self {
        Params {
            providers: 100,
            vms_per_cloudlet: Range::new(15.0, 30.0),
            vm_bandwidth_mbps: Range::new(10.0, 100.0),
            tx_cost_per_gb: Range::new(0.05, 0.12),
            proc_cost_per_gb: Range::new(0.15, 0.22),
            traffic_per_request_mb: Range::new(10.0, 200.0),
            requests_per_service: Range::new(20.0, 60.0),
            service_data_gb: Range::new(1.0, 5.0),
            service_vms: Range::new(1.0, 4.0),
            alpha: Range::new(0.0, 1.0),
            beta: Range::new(0.0, 1.0),
            update_ratio: 0.10,
            bandwidth_per_request_mbps: Range::new(0.2, 0.8),
            instantiation_fee: Range::new(0.35, 0.7),
            bandwidth_price_per_mbps: 0.02,
            distance_factor_per_ms: 0.05,
            remote_penalty: 10.0,
            allow_remote: true,
        }
    }
}

impl Params {
    /// Paper defaults (Section IV-A).
    pub fn paper() -> Self {
        Params::default()
    }

    /// Returns a copy with a different provider count.
    pub fn with_providers(mut self, n: usize) -> Self {
        assert!(n > 0, "need at least one provider");
        self.providers = n;
        self
    }

    /// Returns a copy with the update ratio replaced (Fig. 6d sweep).
    pub fn with_update_ratio(mut self, ratio: f64) -> Self {
        assert!((0.0..=1.0).contains(&ratio), "ratio must be in [0, 1]");
        self.update_ratio = ratio;
        self
    }

    /// Returns a copy with the service compute-demand range scaled so its
    /// maximum is `a_max` VM units (Fig. 7a sweep).
    pub fn with_max_service_vms(mut self, a_max: f64) -> Self {
        assert!(a_max > 0.0, "a_max must be positive");
        self.service_vms = Range::new((a_max / 4.0).min(1.0), a_max);
        self
    }

    /// Returns a copy with the per-request bandwidth range scaled so the
    /// maximum total bandwidth demand grows with `factor` (Fig. 7b sweep).
    pub fn with_bandwidth_scale(mut self, factor: f64) -> Self {
        assert!(factor > 0.0, "factor must be positive");
        self.bandwidth_per_request_mbps = Range::new(
            self.bandwidth_per_request_mbps.lo * factor,
            self.bandwidth_per_request_mbps.hi * factor,
        );
        self
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mec_num::assert_approx_eq;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn defaults_match_paper() {
        let p = Params::paper();
        assert_eq!(p.providers, 100);
        assert_eq!(p.vms_per_cloudlet, Range::new(15.0, 30.0));
        assert_eq!(p.tx_cost_per_gb, Range::new(0.05, 0.12));
        assert_eq!(p.proc_cost_per_gb, Range::new(0.15, 0.22));
        assert_eq!(p.traffic_per_request_mb, Range::new(10.0, 200.0));
        assert_eq!(p.service_data_gb, Range::new(1.0, 5.0));
        assert_approx_eq!(p.update_ratio, 0.10, 1e-12);
    }

    #[test]
    fn range_sampling_within_bounds() {
        let r = Range::new(2.0, 5.0);
        let mut rng = StdRng::seed_from_u64(1);
        for _ in 0..100 {
            let v = r.sample(&mut rng);
            assert!((2.0..5.0).contains(&v));
        }
    }

    #[test]
    fn degenerate_range_returns_constant() {
        let r = Range::new(3.0, 3.0);
        let mut rng = StdRng::seed_from_u64(1);
        assert_approx_eq!(r.sample(&mut rng), 3.0, 1e-12);
        assert_approx_eq!(r.mid(), 3.0, 1e-12);
    }

    #[test]
    fn sweep_helpers() {
        let p = Params::paper().with_providers(50);
        assert_eq!(p.providers, 50);
        let p = p.with_update_ratio(0.4);
        assert_approx_eq!(p.update_ratio, 0.4, 1e-12);
        let p = p.with_max_service_vms(8.0);
        assert_approx_eq!(p.service_vms.hi, 8.0, 1e-12);
        let p = p.with_bandwidth_scale(2.0);
        assert!((p.bandwidth_per_request_mbps.lo - 0.4).abs() < 1e-12);
    }

    #[test]
    #[should_panic(expected = "bad range")]
    fn rejects_inverted_range() {
        let _ = Range::new(5.0, 2.0);
    }
}
