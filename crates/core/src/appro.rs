//! Algorithm 1 — `Appro`: the approximation algorithm for non-selfish
//! players (paper Section III-B).
//!
//! Steps:
//! 1. Split each cloudlet `CL_i` into `n_i = min(⌊C_i/a_max⌋, ⌊B_i/b_max⌋)`
//!    virtual cloudlets, each able to host any single service (Eq. 7).
//! 2. Treat virtual cloudlets as GAP knapsacks with the congestion-free cost
//!    `α_i + β_i + c_l_ins + c_{l,i}_bdw` (Eq. 9).
//! 3. Solve the GAP with the Shmoys–Tardos approximation \[34\].
//! 4. Merge: every service assigned to a virtual cloudlet of `CL_i` is
//!    cached at `CL_i`.
//!
//! Weights are normalized so a slot has capacity 1 and service `l` weighs
//! `max(A_l/a_max, B_l/b_max) ≤ 1` — this folds the two resource dimensions
//! into the single GAP dimension exactly as the paper's
//! `max{a_max, b_max}` slot capacity does, but without mixing units.
//!
//! Two slot-pricing modes are provided:
//! * [`SlotPricing::MarginalCongestion`] (default) — the `k`-th virtual
//!   cloudlet of `CL_i` is priced at `(α_i+β_i)·(2k−1) + c_l_ins +
//!   c_{l,i}_bdw`. Since `Σ_{k=1..σ}(2k−1) = σ²`, filling `σ` slots of a
//!   cloudlet costs exactly the true congestion charge `(α_i+β_i)·σ²` —
//!   the GAP objective *internalizes* congestion while each individual
//!   knapsack stays congestion-free, so the Shmoys–Tardos machinery still
//!   applies verbatim.
//! * [`SlotPricing::Flat`] — the paper-literal Eq. (9) cost
//!   `α_i + β_i + c_l_ins + c_{l,i}_bdw` for every slot. Congestion is
//!   ignored during assignment (it only appears in the `2δκ` analysis);
//!   kept as the `ablation_gap_pricing` baseline.
//!
//! Two bin layouts are provided for the flat pricing:
//! * [`SplitMode::MergedSlots`] — one GAP bin per cloudlet with capacity
//!   `n_i` normalized units (equivalent after the merge step, faster);
//! * [`SplitMode::PerSlot`] — literal virtual-cloudlet bins.
//!
//! Marginal pricing always uses per-slot bins (slot identity carries the
//! price).

use mec_gap::{lp_relax, shmoys_tardos, GapInstance, FORBIDDEN};
use mec_topology::CloudletId;

use crate::error::CoreError;
use crate::model::{Market, ProviderId};
use crate::strategy::{Placement, Profile};

/// How cloudlets are split into GAP bins (only meaningful with
/// [`SlotPricing::Flat`]; marginal pricing always uses per-slot bins).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum SplitMode {
    /// One bin per cloudlet with capacity `n_i` (equivalent after merging).
    #[default]
    MergedSlots,
    /// One bin per virtual cloudlet with capacity 1 (paper-literal).
    PerSlot,
}

/// How virtual-cloudlet slots are priced in the GAP reduction.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum SlotPricing {
    /// Price slot `k` of `CL_i` at `(α_i+β_i)·(2k−1)` so the GAP objective
    /// equals the true social cost when slots hold one service each.
    #[default]
    MarginalCongestion,
    /// The paper-literal flat Eq. (9) cost (congestion-blind).
    Flat,
}

/// Configuration of [`appro`].
#[derive(Debug, Clone, Default)]
pub struct ApproConfig {
    /// Bin construction mode (flat pricing only).
    pub split: SplitMode,
    /// Slot pricing mode.
    pub pricing: SlotPricing,
    /// Repair real-capacity violations introduced by the rounding by moving
    /// the cheapest-to-move services out of overloaded cloudlets.
    /// Lemma 1 assumes capacities far exceed demands; with tight capacities
    /// the Shmoys–Tardos augmentation can overflow, and the repair restores
    /// strict feasibility. Enabled by default.
    pub repair_capacity: bool,
    /// Polish the rounded assignment with a social-cost local search
    /// ([`crate::local_search`]) so the leader's restricted strategy is as
    /// close to the social optimum as single-provider moves allow. Enabled
    /// by default; disable to study the raw Shmoys–Tardos output.
    pub polish: bool,
}

impl ApproConfig {
    /// Default configuration (marginal-congestion pricing, repair on).
    pub fn new() -> Self {
        ApproConfig {
            split: SplitMode::MergedSlots,
            pricing: SlotPricing::MarginalCongestion,
            repair_capacity: true,
            polish: true,
        }
    }

    /// The paper-literal configuration: flat Eq. (9) pricing, no polish.
    pub fn paper_flat() -> Self {
        ApproConfig {
            split: SplitMode::MergedSlots,
            pricing: SlotPricing::Flat,
            repair_capacity: true,
            polish: false,
        }
    }
}

/// Output of [`appro`].
#[derive(Debug, Clone)]
pub struct ApproSolution {
    /// The computed placement of every provider.
    pub profile: Profile,
    /// LP optimum of the GAP relaxation under the configured slot pricing.
    /// With [`SlotPricing::Flat`] this is Lemma 2's `C'` lower bound; with
    /// marginal pricing it is the relaxation of the social-cost surrogate.
    pub lp_lower_bound: f64,
    /// Congestion-free (flat) cost of the assignment — `C'` in Lemma 2.
    pub flat_cost: f64,
    /// True social cost (with congestion) of the profile — `C` in Lemma 2.
    pub social_cost: f64,
    /// Per-cloudlet virtual-cloudlet counts `n_i` (Eq. 7).
    pub virtual_counts: Vec<usize>,
}

/// Computes `n_i` for every cloudlet (Eq. 7). Cloudlets too small to host
/// even the largest service get `n_i = 0` and are excluded from the GAP.
pub fn virtual_cloudlet_counts(market: &Market) -> Vec<usize> {
    let a_max = market.max_compute_demand();
    let b_max = market.max_bandwidth_demand();
    market
        .cloudlets()
        .map(|i| {
            let c = market.cloudlet(i);
            let by_compute = if a_max > 0.0 {
                (c.compute_capacity / a_max).floor() as usize
            } else {
                usize::MAX
            };
            let by_bandwidth = if b_max > 0.0 {
                (c.bandwidth_capacity / b_max).floor() as usize
            } else {
                usize::MAX
            };
            by_compute.min(by_bandwidth)
        })
        .collect()
}

/// Normalized single-dimension weight of provider `l`:
/// `max(A_l/a_max, B_l/b_max)`.
fn normalized_weight(market: &Market, l: ProviderId, a_max: f64, b_max: f64) -> f64 {
    let p = market.provider(l);
    let wa = if a_max > 0.0 {
        p.compute_demand / a_max
    } else {
        0.0
    };
    let wb = if b_max > 0.0 {
        p.bandwidth_demand / b_max
    } else {
        0.0
    };
    wa.max(wb)
}

/// The paper's approximation-ratio bound `2·δ·κ` (Lemma 2).
pub fn approximation_ratio_bound(market: &Market) -> f64 {
    2.0 * market.delta() * market.kappa()
}

/// Shadow price of each cloudlet's (virtual) capacity at the optimum of
/// the flat GAP relaxation: the marginal social-cost saving per additional
/// virtual-cloudlet slot. Zero for cloudlets whose capacity is slack —
/// the infrastructure provider's signal for *where* expanding a cloudlet
/// is worth money. The prices are the relaxation's optimal duals, read
/// off the transportation solver that also serves [`appro`]
/// ([`mec_gap::lp_relax`]).
///
/// # Errors
///
/// Propagates [`CoreError`] from the GAP relaxation.
pub fn cloudlet_capacity_values(market: &Market) -> Result<Vec<f64>, CoreError> {
    let n = market.provider_count();
    let a_max = market.max_compute_demand();
    let b_max = market.max_bandwidth_demand();
    let counts = virtual_cloudlet_counts(market);

    // Merged-flat bins: one per usable cloudlet, plus remote.
    let mut bin_cloudlet = Vec::new();
    for i in market.cloudlets() {
        if counts[i.index()] >= 1 {
            bin_cloudlet.push(i);
        }
    }
    let any_remote = market
        .providers()
        .any(|l| market.provider(l).can_stay_remote());
    let bins = bin_cloudlet.len() + usize::from(any_remote);
    if bins == 0 {
        return Err(CoreError::Infeasible);
    }
    let mut inst = GapInstance::new(n, bins);
    let mut total_weight = 0.0;
    for l in market.providers() {
        let w = normalized_weight(market, l, a_max, b_max);
        total_weight += w;
        inst.set_item_weight(l.index(), w);
        for (bi, &i) in bin_cloudlet.iter().enumerate() {
            inst.set_cost(l.index(), bi, market.flat_cost(l, i));
        }
        if any_remote {
            let r = market.provider(l).remote_cost;
            inst.set_cost(
                l.index(),
                bins - 1,
                if r.is_finite() { r } else { FORBIDDEN },
            );
        }
    }
    for (bi, &i) in bin_cloudlet.iter().enumerate() {
        inst.set_capacity(bi, counts[i.index()] as f64);
    }
    if any_remote {
        inst.set_capacity(bins - 1, total_weight + 1.0);
    }

    let prices = lp_relax::solve_relaxation(&inst)?.capacity_prices;
    let mut out = vec![0.0; market.cloudlet_count()];
    for (bi, &i) in bin_cloudlet.iter().enumerate() {
        out[i.index()] = prices[bi];
    }
    Ok(out)
}

/// Runs Algorithm 1 on `market`.
///
/// # Errors
///
/// * [`CoreError::NoFeasiblePlacement`] — a provider fits nowhere and may
///   not stay remote.
/// * [`CoreError::Infeasible`] — total demand exceeds what the virtual
///   cloudlets plus remote options can hold.
///
/// # Examples
///
/// ```
/// use mec_core::appro::{appro, ApproConfig};
/// use mec_core::model::{CloudletSpec, Market, ProviderSpec};
///
/// let market = Market::builder()
///     .cloudlet(CloudletSpec::new(20.0, 100.0, 0.5, 0.5))
///     .provider(ProviderSpec::new(2.0, 10.0, 1.0, 50.0))
///     .uniform_update_cost(0.2)
///     .build();
/// let sol = appro(&market, &ApproConfig::new())?;
/// assert!(sol.profile.is_feasible(&market));
/// # Ok::<(), mec_core::CoreError>(())
/// ```
pub fn appro(market: &Market, config: &ApproConfig) -> Result<ApproSolution, CoreError> {
    let _span_total = mec_obs::span("appro.total");
    mec_obs::counter_add("appro.runs", 1);
    let n = market.provider_count();
    let a_max = market.max_compute_demand();
    let b_max = market.max_bandwidth_demand();
    let counts = {
        let _span = mec_obs::span("appro.split");
        virtual_cloudlet_counts(market)
    };
    mec_obs::counter_add("appro.virtual_slots", counts.iter().sum::<usize>() as u64);

    // Bin layout. Each bin is a virtual cloudlet (or the remote sink).
    #[derive(Debug, Clone, Copy)]
    struct Bin {
        cloudlet: Option<CloudletId>,
        /// 1-based slot index within its cloudlet (prices congestion).
        slot: usize,
        cap: f64,
    }
    let per_slot =
        config.pricing == SlotPricing::MarginalCongestion || config.split == SplitMode::PerSlot;
    let mut bins: Vec<Bin> = Vec::new();
    for i in market.cloudlets() {
        let n_i = counts[i.index()];
        if n_i == 0 {
            continue;
        }
        if per_slot {
            for k in 1..=n_i {
                bins.push(Bin {
                    cloudlet: Some(i),
                    slot: k,
                    cap: 1.0,
                });
            }
        } else {
            bins.push(Bin {
                cloudlet: Some(i),
                slot: 1,
                cap: n_i as f64,
            });
        }
    }
    let total_weight: f64 = market
        .providers()
        .map(|l| normalized_weight(market, l, a_max, b_max))
        .sum();
    let any_remote = market
        .providers()
        .any(|l| market.provider(l).can_stay_remote());
    if any_remote {
        bins.push(Bin {
            cloudlet: None,
            slot: 1,
            cap: total_weight + 1.0,
        });
    }
    if bins.is_empty() {
        return Err(CoreError::Infeasible);
    }

    let nbins = bins.len();
    let mut inst = GapInstance::new(n, nbins);
    for (bi, b) in bins.iter().enumerate() {
        inst.set_capacity(bi, b.cap);
    }

    // Pricing: fill one cost row per provider. Rows are independent, so on
    // large markets they fan out across the bounded worker pool over
    // disjoint `chunks_mut` slices; the result is positional, hence
    // identical at any worker count.
    let bins_ref = &bins;
    let price_row = |l_index: usize, row: &mut [f64]| {
        let l = ProviderId(l_index);
        for (bi, b) in bins_ref.iter().enumerate() {
            row[bi] = match b.cloudlet {
                Some(i) => {
                    let congestion_units = match config.pricing {
                        SlotPricing::MarginalCongestion => (2 * b.slot - 1) as f64,
                        SlotPricing::Flat => 1.0,
                    };
                    let cl = market.cloudlet(i);
                    cl.congestion_price() * congestion_units
                        + market.provider(l).instantiation_cost
                        + market.update_cost(l, i)
                }
                None => {
                    let r = market.provider(l).remote_cost;
                    if r.is_finite() {
                        r
                    } else {
                        FORBIDDEN
                    }
                }
            };
        }
    };
    let span_pricing = mec_obs::span("appro.pricing");
    let mut cost_matrix = vec![0.0; n * nbins];
    let workers = crate::game::par_workers(n * nbins, n);
    if workers <= 1 {
        for (l_index, row) in cost_matrix.chunks_mut(nbins).enumerate() {
            price_row(l_index, row);
        }
    } else {
        let rows_per = n.div_ceil(workers);
        // A pricing worker's panic propagates when the scope joins it.
        std::thread::scope(|s| {
            for (w, chunk) in cost_matrix.chunks_mut(rows_per * nbins).enumerate() {
                let price_row = &price_row;
                s.spawn(move || {
                    for (k, row) in chunk.chunks_mut(nbins).enumerate() {
                        price_row(w * rows_per + k, row);
                    }
                });
            }
        });
    }
    for l in market.providers() {
        let w = normalized_weight(market, l, a_max, b_max);
        inst.set_item_weight(l.index(), w);
        for bi in 0..nbins {
            inst.set_cost(l.index(), bi, cost_matrix[l.index() * nbins + bi]);
        }
    }

    drop(span_pricing);

    let st = {
        let _span = mec_obs::span("appro.gap_solve");
        shmoys_tardos::solve(&inst)?
    };

    // Merge virtual cloudlets back to physical cloudlets (Algorithm 1 step 4).
    let span_merge = mec_obs::span("appro.merge");
    let mut placements = Vec::with_capacity(n);
    for l in market.providers() {
        let bin = st.assignment.bin_of(l.index());
        placements.push(match bins[bin].cloudlet {
            Some(i) => Placement::Cloudlet(i),
            None => Placement::Remote,
        });
    }
    let mut profile = Profile::new(placements);
    drop(span_merge);

    if config.repair_capacity {
        let _span = mec_obs::span("appro.repair");
        repair(market, &mut profile)?;
    }
    if config.polish {
        let _span = mec_obs::span("appro.polish");
        let movable = vec![true; n];
        crate::local_search::social_local_search(market, &mut profile, &movable, 10 * n);
    }

    let flat_cost = profile
        .iter()
        .map(|(l, p)| match p {
            Placement::Cloudlet(i) => market.flat_cost(l, i),
            Placement::Remote => market.provider(l).remote_cost,
        })
        .sum();
    let social_cost = profile.social_cost(market);
    // Appro's output is feasible and correctly priced, but deliberately NOT
    // an equilibrium — the Nash certificate only applies after dynamics.
    #[cfg(feature = "verify")]
    {
        let mut cert = crate::verify::Certificate::new("appro solution");
        cert.extend(crate::verify::check_capacity(market, &profile))
            .extend(crate::verify::check_cost_reconstruction(
                market,
                &profile,
                social_cost,
                1e-9,
            ));
        cert.assert_valid();
    }
    Ok(ApproSolution {
        profile,
        lp_lower_bound: st.lp_objective,
        flat_cost,
        social_cost,
        virtual_counts: counts,
    })
}

/// Moves services out of real-capacity-violating cloudlets, cheapest move
/// first, until the profile is feasible.
fn repair(market: &Market, profile: &mut Profile) -> Result<(), CoreError> {
    loop {
        let residual = profile.residual(market);
        let Some(overloaded) = market
            .cloudlets()
            .find(|i| residual[i.index()].0 < -1e-9 || residual[i.index()].1 < -1e-9)
        else {
            return Ok(());
        };
        // Providers cached at the overloaded cloudlet.
        let victims: Vec<ProviderId> = profile
            .iter()
            .filter(|(_, p)| *p == Placement::Cloudlet(overloaded))
            .map(|(l, _)| l)
            .collect();
        // Cheapest relocation across all victims and all destinations.
        let sigma = profile.congestion(market);
        let mut best: Option<(ProviderId, Placement, f64)> = None;
        for &l in &victims {
            let old = market.caching_cost(l, overloaded, sigma[overloaded.index()]);
            if market.provider(l).can_stay_remote() {
                let delta = market.provider(l).remote_cost - old;
                if best.is_none_or(|(_, _, d)| delta < d) {
                    best = Some((l, Placement::Remote, delta));
                }
            }
            for i in market.cloudlets() {
                if i == overloaded {
                    continue;
                }
                if market.fits(l, residual[i.index()]) {
                    let new = market.caching_cost(l, i, sigma[i.index()] + 1);
                    let delta = new - old;
                    if best.is_none_or(|(_, _, d)| delta < d) {
                        best = Some((l, Placement::Cloudlet(i), delta));
                    }
                }
            }
        }
        match best {
            Some((l, p, _)) => profile.set(l, p),
            None => return Err(CoreError::Infeasible),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::model::{CloudletSpec, ProviderSpec};

    fn market(providers: usize, cloudlets: usize) -> Market {
        let mut b = Market::builder();
        for k in 0..cloudlets {
            b = b.cloudlet(CloudletSpec::new(20.0, 100.0, 0.2 + 0.1 * k as f64, 0.3));
        }
        for k in 0..providers {
            b = b.provider(ProviderSpec::new(
                1.0 + (k % 3) as f64,
                5.0 + (k % 4) as f64 * 2.0,
                1.0,
                40.0,
            ));
        }
        b.uniform_update_cost(0.2).build()
    }

    #[test]
    fn virtual_counts_follow_eq7() {
        let m = market(6, 2);
        // a_max = 3, b_max = 11; n_i = min(floor(20/3), floor(100/11)) = 6.
        assert_eq!(virtual_cloudlet_counts(&m), vec![6, 6]);
    }

    #[test]
    fn produces_feasible_profile() {
        let m = market(10, 3);
        let sol = appro(&m, &ApproConfig::new()).unwrap();
        assert!(sol.profile.is_feasible(&m));
        assert_eq!(sol.profile.len(), 10);
    }

    #[test]
    fn flat_cost_at_most_lp_bound_without_repair() {
        // Shmoys–Tardos guarantee under flat pricing: the rounded
        // assignment's flat cost never exceeds the LP optimum.
        let m = market(8, 2);
        let sol = appro(
            &m,
            &ApproConfig {
                split: SplitMode::MergedSlots,
                pricing: SlotPricing::Flat,
                repair_capacity: false,
                polish: false,
            },
        )
        .unwrap();
        assert!(sol.flat_cost <= sol.lp_lower_bound + 1e-6);
    }

    #[test]
    fn per_slot_mode_agrees_on_small_markets() {
        let m = market(5, 2);
        let merged = appro(&m, &ApproConfig::paper_flat()).unwrap();
        let per_slot = appro(
            &m,
            &ApproConfig {
                split: SplitMode::PerSlot,
                pricing: SlotPricing::Flat,
                repair_capacity: true,
                polish: false,
            },
        )
        .unwrap();
        // Same LP bound (the relaxations are equivalent up to slot symmetry).
        assert!((merged.lp_lower_bound - per_slot.lp_lower_bound).abs() < 1e-6);
    }

    #[test]
    fn marginal_pricing_spreads_congestion() {
        // Two identical cloudlets, several identical providers: marginal
        // pricing must balance them, flat pricing may pile everyone up.
        let mut b = Market::builder()
            .cloudlet(CloudletSpec::new(50.0, 200.0, 0.5, 0.5))
            .cloudlet(CloudletSpec::new(50.0, 200.0, 0.5, 0.5));
        for _ in 0..8 {
            b = b.provider(ProviderSpec::new(1.0, 5.0, 1.0, 100.0));
        }
        let m = b.uniform_update_cost(0.1).build();
        let sol = appro(&m, &ApproConfig::new()).unwrap();
        let sigma = sol.profile.congestion(&m);
        assert_eq!(sigma, vec![4, 4], "marginal pricing should balance");
    }

    #[test]
    fn marginal_beats_flat_on_social_cost() {
        let m = market(12, 3);
        let marginal = appro(&m, &ApproConfig::new()).unwrap();
        let flat = appro(&m, &ApproConfig::paper_flat()).unwrap();
        assert!(
            marginal.social_cost <= flat.social_cost + 1e-9,
            "marginal {} > flat {}",
            marginal.social_cost,
            flat.social_cost
        );
    }

    #[test]
    fn social_cost_dominates_flat_cost() {
        // Every cached provider pays congestion >= 1 unit, so the true
        // social cost can never fall below the congestion-free flat cost.
        let m = market(6, 2);
        let sol = appro(&m, &ApproConfig::new()).unwrap();
        assert!(sol.social_cost + 1e-9 >= sol.flat_cost);
    }

    #[test]
    fn prefers_cheap_cloudlets() {
        // One cheap cloudlet with room for everyone: all go there.
        let m = Market::builder()
            .cloudlet(CloudletSpec::new(100.0, 1000.0, 0.01, 0.01))
            .cloudlet(CloudletSpec::new(100.0, 1000.0, 5.0, 5.0))
            .provider(ProviderSpec::new(1.0, 5.0, 1.0, 50.0))
            .provider(ProviderSpec::new(1.0, 5.0, 1.0, 50.0))
            .uniform_update_cost(0.1)
            .build();
        let sol = appro(&m, &ApproConfig::new()).unwrap();
        for (_, p) in sol.profile.iter() {
            assert_eq!(p, Placement::Cloudlet(CloudletId(0)));
        }
    }

    #[test]
    fn remote_used_when_cloudlets_tiny() {
        // Cloudlet can host nothing (n_i = 0): everyone must stay remote.
        let m = Market::builder()
            .cloudlet(CloudletSpec::new(0.5, 1.0, 0.1, 0.1))
            .provider(ProviderSpec::new(1.0, 5.0, 1.0, 7.0))
            .uniform_update_cost(0.1)
            .build();
        let sol = appro(&m, &ApproConfig::new()).unwrap();
        assert_eq!(sol.profile.placement(ProviderId(0)), Placement::Remote);
        assert!((sol.social_cost - 7.0).abs() < 1e-9);
    }

    #[test]
    fn error_when_nothing_fits_and_remote_forbidden() {
        let m = Market::builder()
            .cloudlet(CloudletSpec::new(0.5, 1.0, 0.1, 0.1))
            .provider(ProviderSpec::new(1.0, 5.0, 1.0, f64::INFINITY))
            .uniform_update_cost(0.1)
            .build();
        let err = appro(&m, &ApproConfig::new()).unwrap_err();
        assert!(matches!(
            err,
            CoreError::NoFeasiblePlacement { .. } | CoreError::Infeasible
        ));
    }

    #[test]
    fn ratio_bound_positive() {
        let m = market(6, 2);
        let bound = approximation_ratio_bound(&m);
        assert!(bound > 0.0 && bound.is_finite());
        assert!((bound - 2.0 * m.delta() * m.kappa()).abs() < 1e-12);
    }

    #[test]
    fn social_cost_consistent_with_profile() {
        let m = market(9, 3);
        let sol = appro(&m, &ApproConfig::new()).unwrap();
        assert!((sol.social_cost - sol.profile.social_cost(&m)).abs() < 1e-9);
    }

    #[test]
    fn capacity_values_positive_only_under_pressure() {
        // Loose market: capacities are slack, every value ~0.
        let loose = market(4, 3);
        let v = cloudlet_capacity_values(&loose).unwrap();
        assert!(v.iter().all(|p| *p < 1e-6), "loose {v:?}");

        // Tight market: one small cheap cloudlet everyone wants.
        let mut b = Market::builder()
            .cloudlet(CloudletSpec::new(4.0, 20.0, 0.01, 0.01))
            .cloudlet(CloudletSpec::new(50.0, 250.0, 0.9, 0.9));
        for _ in 0..8 {
            b = b.provider(ProviderSpec::new(2.0, 10.0, 1.0, 50.0));
        }
        let tight = b.uniform_update_cost(0.1).build();
        let v = cloudlet_capacity_values(&tight).unwrap();
        assert!(
            v[0] > 1e-6,
            "cheap tight cloudlet should be valuable: {v:?}"
        );
    }

    #[test]
    fn repair_restores_feasibility_under_tight_capacity() {
        // Capacities barely above one service: rounding overflow possible.
        let mut b = Market::builder();
        for _ in 0..3 {
            b = b.cloudlet(CloudletSpec::new(2.5, 12.0, 0.1, 0.1));
        }
        for _ in 0..6 {
            b = b.provider(ProviderSpec::new(2.0, 10.0, 1.0, 20.0));
        }
        let m = b.uniform_update_cost(0.1).build();
        let sol = appro(&m, &ApproConfig::new()).unwrap();
        assert!(sol.profile.is_feasible(&m));
    }
}
