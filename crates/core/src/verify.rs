//! Invariant certificates for market solutions.
//!
//! Every checker here recomputes the claimed property **from first
//! principles** — raw specs, raw placements, the Eq. (1)–(3) arithmetic
//! written out — sharing no code with the algorithm whose output it
//! certifies. A [`Certificate`] bundles the violations found (hopefully
//! none) with the source location that requested the check, so a failed
//! certification names the call site, not this module.
//!
//! Checkers:
//!
//! * [`check_capacity`] — Eq. (4)–(5): no cloudlet's compute or bandwidth
//!   capacity is exceeded (with the model's `1e-9` slack);
//! * [`check_congestion`] — claimed `|σ_i|` counts match a recount of the
//!   profile;
//! * [`check_cost_reconstruction`] — a reported social cost matches a
//!   ground-up re-evaluation of Eq. (1)–(3) summed over providers;
//! * [`check_state`] — a [`GameState`]'s maintained congestion counts and
//!   loads agree with a recount of its profile;
//! * [`check_nash`] — a Nash certificate: every unilateral deviation of
//!   every movable provider is enumerated and priced; any strictly
//!   improving one (beyond `tol`) is reported. Independent of
//!   [`crate::game::is_nash`], which runs on the incremental
//!   [`GameState`]. [`check_nash_in`] restricts the deviations to a
//!   cloudlet mask.
//!
//! With the `verify` cargo feature enabled, the algorithm entry points
//! ([`crate::appro::appro`], [`crate::lcf::lcf`], the best-response
//! dynamics, [`crate::local_search::social_local_search`]) self-certify
//! their outputs and panic with a full report on any violation. The
//! GAP layer underneath does the same: `mec-gap/verify` certifies every
//! relaxation with its duals (`mec_gap::check_relaxation`) and every
//! Shmoys–Tardos assignment.

use mec_topology::CloudletId;

use crate::model::{Market, ProviderId};
use crate::state::GameState;
use crate::strategy::{Placement, Profile};

/// Capacity slack used throughout the model (matches
/// [`Profile::is_feasible`] and [`Market::fits`]).
const CAP_SLACK: f64 = 1e-9;

/// A single broken invariant found in a profile, state, or solution.
#[derive(Debug, Clone, PartialEq)]
pub enum Violation {
    /// A cloudlet's computing capacity (Eq. 4) is exceeded.
    ComputeOverload {
        /// The overloaded cloudlet.
        cloudlet: CloudletId,
        /// Aggregate compute demand placed on it.
        load: f64,
        /// Its computing capacity `C(CL_i)`.
        capacity: f64,
    },
    /// A cloudlet's bandwidth capacity (Eq. 5) is exceeded.
    BandwidthOverload {
        /// The overloaded cloudlet.
        cloudlet: CloudletId,
        /// Aggregate bandwidth demand placed on it.
        load: f64,
        /// Its bandwidth capacity `B(CL_i)`.
        capacity: f64,
    },
    /// A claimed congestion count `|σ_i|` disagrees with a recount.
    CongestionMismatch {
        /// The cloudlet.
        cloudlet: CloudletId,
        /// The count as claimed (or maintained incrementally).
        claimed: usize,
        /// The count obtained by re-scanning the profile.
        counted: usize,
    },
    /// A [`GameState`]'s maintained load drifted from its profile.
    LoadDrift {
        /// The cloudlet.
        cloudlet: CloudletId,
        /// `"compute"` or `"bandwidth"`.
        resource: &'static str,
        /// The incrementally maintained value.
        maintained: f64,
        /// The value recomputed from the profile.
        recomputed: f64,
    },
    /// A reported social cost disagrees with Eq. (1)–(3) re-evaluated
    /// from raw market data.
    SocialCostMismatch {
        /// The cost as reported by the algorithm.
        reported: f64,
        /// The cost recomputed from first principles.
        recomputed: f64,
    },
    /// A provider has a strictly improving unilateral deviation, so the
    /// profile is **not** a Nash equilibrium.
    ProfitableDeviation {
        /// The provider that can improve.
        provider: ProviderId,
        /// Its current placement.
        from: Placement,
        /// The feasible placement it would rather take.
        to: Placement,
        /// Its cost under the current profile.
        current_cost: f64,
        /// Its cost after deviating (congestion of the target adjusted).
        deviation_cost: f64,
    },
    /// A violation reported by the GAP layer (`mec-gap`).
    Gap(mec_gap::GapViolation),
}

impl std::fmt::Display for Violation {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Violation::ComputeOverload {
                cloudlet,
                load,
                capacity,
            } => write!(
                f,
                "{cloudlet}: compute load {load} exceeds capacity {capacity}"
            ),
            Violation::BandwidthOverload {
                cloudlet,
                load,
                capacity,
            } => write!(
                f,
                "{cloudlet}: bandwidth load {load} exceeds capacity {capacity}"
            ),
            Violation::CongestionMismatch {
                cloudlet,
                claimed,
                counted,
            } => write!(
                f,
                "{cloudlet}: claimed congestion {claimed}, recount gives {counted}"
            ),
            Violation::LoadDrift {
                cloudlet,
                resource,
                maintained,
                recomputed,
            } => write!(
                f,
                "{cloudlet}: maintained {resource} load {maintained} drifted from recomputed {recomputed}"
            ),
            Violation::SocialCostMismatch {
                reported,
                recomputed,
            } => write!(
                f,
                "reported social cost {reported} != recomputed {recomputed}"
            ),
            Violation::ProfitableDeviation {
                provider,
                from,
                to,
                current_cost,
                deviation_cost,
            } => write!(
                f,
                "{provider} can deviate {from} -> {to}, cutting cost {current_cost} -> {deviation_cost}"
            ),
            Violation::Gap(v) => write!(f, "gap: {v}"),
        }
    }
}

impl From<mec_gap::GapViolation> for Violation {
    fn from(v: mec_gap::GapViolation) -> Self {
        Violation::Gap(v)
    }
}

/// The outcome of certifying one subject: the violations found, tagged
/// with the source location that requested the check.
#[derive(Debug, Clone)]
pub struct Certificate {
    subject: &'static str,
    location: &'static std::panic::Location<'static>,
    violations: Vec<Violation>,
}

impl Certificate {
    /// Starts an empty (valid) certificate for `subject`. The caller's
    /// source location is captured for error reports.
    #[track_caller]
    pub fn new(subject: &'static str) -> Self {
        Certificate {
            subject,
            location: std::panic::Location::caller(),
            violations: Vec::new(),
        }
    }

    /// What is being certified.
    pub fn subject(&self) -> &'static str {
        self.subject
    }

    /// Source location of the [`Certificate::new`] call.
    pub fn location(&self) -> &'static std::panic::Location<'static> {
        self.location
    }

    /// Adds violations (from any checker, or the lower-layer types via
    /// `From`).
    pub fn extend<V: Into<Violation>, I: IntoIterator<Item = V>>(&mut self, vs: I) -> &mut Self {
        self.violations.extend(vs.into_iter().map(Into::into));
        self
    }

    /// The violations recorded so far.
    pub fn violations(&self) -> &[Violation] {
        &self.violations
    }

    /// `true` if no violation was recorded.
    pub fn is_valid(&self) -> bool {
        self.violations.is_empty()
    }

    /// Panics with the full report if any violation was recorded.
    ///
    /// # Panics
    ///
    /// Panics when [`Certificate::is_valid`] is `false`.
    pub fn assert_valid(&self) {
        assert!(self.is_valid(), "{self}"); // lint: allow(panics)
    }
}

impl std::fmt::Display for Certificate {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        if self.violations.is_empty() {
            return write!(
                f,
                "certificate `{}` ({}): valid",
                self.subject, self.location
            );
        }
        writeln!(
            f,
            "certificate `{}` ({}): {} violation(s)",
            self.subject,
            self.location,
            self.violations.len()
        )?;
        for v in &self.violations {
            writeln!(f, "  - {v}")?;
        }
        Ok(())
    }
}

/// Recounts `|σ_i|` and `(compute, bandwidth)` loads directly from raw
/// placements and provider specs.
fn recount(market: &Market, profile: &Profile) -> (Vec<usize>, Vec<(f64, f64)>) {
    let m = market.cloudlet_count();
    let mut sigma = vec![0usize; m];
    let mut loads = vec![(0.0f64, 0.0f64); m];
    for (l, p) in profile.iter() {
        if let Placement::Cloudlet(c) = p {
            let spec = market.provider(l);
            sigma[c.index()] += 1;
            loads[c.index()].0 += spec.compute_demand;
            loads[c.index()].1 += spec.bandwidth_demand;
        }
    }
    (sigma, loads)
}

/// Eq. (3) written out from raw specs: the cost of caching `l` at `c`
/// with `sigma` providers (including `l`) cached there.
fn eq3_cost(market: &Market, l: ProviderId, c: CloudletId, sigma: usize) -> f64 {
    let cl = market.cloudlet(c);
    (cl.alpha + cl.beta) * sigma as f64
        + market.provider(l).instantiation_cost
        + market.update_cost(l, c)
}

/// Certifies Eq. (4)–(5): no cloudlet's compute or bandwidth capacity
/// is exceeded by `profile` (beyond the model's `1e-9` slack).
pub fn check_capacity(market: &Market, profile: &Profile) -> Vec<Violation> {
    let (_, loads) = recount(market, profile);
    let mut out = Vec::new();
    for i in market.cloudlets() {
        let spec = market.cloudlet(i);
        let (a, b) = loads[i.index()];
        if a > spec.compute_capacity + CAP_SLACK {
            out.push(Violation::ComputeOverload {
                cloudlet: i,
                load: a,
                capacity: spec.compute_capacity,
            });
        }
        if b > spec.bandwidth_capacity + CAP_SLACK {
            out.push(Violation::BandwidthOverload {
                cloudlet: i,
                load: b,
                capacity: spec.bandwidth_capacity,
            });
        }
    }
    out
}

/// Certifies that `claimed` congestion counts match a recount of the
/// profile's placements.
///
/// # Panics
///
/// Panics if `claimed` does not cover every cloudlet (caller bug, not a
/// certified property).
pub fn check_congestion(market: &Market, profile: &Profile, claimed: &[usize]) -> Vec<Violation> {
    assert_eq!(
        claimed.len(),
        market.cloudlet_count(),
        "claimed congestion must cover every cloudlet"
    );
    let (sigma, _) = recount(market, profile);
    market
        .cloudlets()
        .filter(|i| claimed[i.index()] != sigma[i.index()])
        .map(|i| Violation::CongestionMismatch {
            cloudlet: i,
            claimed: claimed[i.index()],
            counted: sigma[i.index()],
        })
        .collect()
}

/// Certifies a reported social cost against a ground-up re-evaluation of
/// Eq. (1)–(3) (congestion term, instantiation, update cost, remote
/// cost) summed over all providers. `tol` is scaled by the magnitude of
/// the recomputed value.
pub fn check_cost_reconstruction(
    market: &Market,
    profile: &Profile,
    reported: f64,
    tol: f64,
) -> Vec<Violation> {
    let (sigma, _) = recount(market, profile);
    let mut recomputed = 0.0;
    for (l, p) in profile.iter() {
        recomputed += match p {
            Placement::Remote => market.provider(l).remote_cost,
            Placement::Cloudlet(c) => eq3_cost(market, l, c, sigma[c.index()]),
        };
    }
    if mec_num::approx_eq(reported, recomputed, tol * (1.0 + recomputed.abs())) {
        Vec::new()
    } else {
        vec![Violation::SocialCostMismatch {
            reported,
            recomputed,
        }]
    }
}

/// Certifies a [`GameState`]'s incrementally maintained congestion
/// counts and loads against a recount of its profile. `tol` bounds the
/// tolerated floating-point drift on loads; counts must match exactly.
pub fn check_state(state: &GameState<'_>, tol: f64) -> Vec<Violation> {
    let market = state.market();
    let (sigma, loads) = recount(market, state.profile());
    let mut out = Vec::new();
    for i in market.cloudlets() {
        let maintained = state.congestion(i);
        if maintained != sigma[i.index()] {
            out.push(Violation::CongestionMismatch {
                cloudlet: i,
                claimed: maintained,
                counted: sigma[i.index()],
            });
        }
        let (ma, mb) = state.load(i);
        let (ra, rb) = loads[i.index()];
        if !mec_num::approx_eq(ma, ra, tol) {
            out.push(Violation::LoadDrift {
                cloudlet: i,
                resource: "compute",
                maintained: ma,
                recomputed: ra,
            });
        }
        if !mec_num::approx_eq(mb, rb, tol) {
            out.push(Violation::LoadDrift {
                cloudlet: i,
                resource: "bandwidth",
                maintained: mb,
                recomputed: rb,
            });
        }
    }
    out
}

/// Nash certificate: enumerates **every** unilateral deviation of every
/// movable provider from first principles and reports any that strictly
/// improves the deviator's cost by more than `tol`.
///
/// A deviation of provider `l` to cloudlet `i` is admissible when `l`'s
/// demands fit `i`'s residual capacity computed over the *other*
/// providers, and costs `(α_i + β_i)(|σ_i| + 1) + c_l_ins + c_{l,i}_bdw`
/// (Eq. 3 with `l` joining). A deviation to the remote cloud is
/// admissible when the provider's remote cost is finite. With
/// `tol = `[`crate::game::IMPROVEMENT_TOL`], an empty result is exactly
/// the condition [`crate::game::is_nash`] tests — but computed here by
/// exhaustive enumeration over the raw profile, independent of the
/// incremental [`GameState`] machinery.
///
/// # Panics
///
/// Panics if `movable` does not cover every provider.
pub fn check_nash(
    market: &Market,
    profile: &Profile,
    movable: &[bool],
    tol: f64,
) -> Vec<Violation> {
    check_nash_in(
        market,
        profile,
        movable,
        &vec![true; market.cloudlet_count()],
        tol,
    )
}

/// [`check_nash`] over a restricted strategy set: only deviations to the
/// remote cloud and to the cloudlets `allowed` marks are enumerated —
/// the Nash condition of [`crate::GameState::best_response_in`] under
/// the same mask. A movable provider placed outside the mask is priced
/// at its actual cost; reporting it as misplaced is the caller's
/// business. A region-sharded writer certifies its region this way.
///
/// # Panics
///
/// Panics if `movable` does not cover every provider or `allowed` every
/// cloudlet.
pub fn check_nash_in(
    market: &Market,
    profile: &Profile,
    movable: &[bool],
    allowed: &[bool],
    tol: f64,
) -> Vec<Violation> {
    assert_eq!(
        movable.len(),
        market.provider_count(),
        "movable mask must cover every provider"
    );
    assert_eq!(
        allowed.len(),
        market.cloudlet_count(),
        "cloudlet mask must cover every cloudlet"
    );
    let (sigma, loads) = recount(market, profile);
    let mut out = Vec::new();
    for (l, current) in profile.iter() {
        if !movable[l.index()] {
            continue;
        }
        let spec = market.provider(l);
        let current_cost = match current {
            Placement::Remote => spec.remote_cost,
            Placement::Cloudlet(c) => eq3_cost(market, l, c, sigma[c.index()]),
        };
        // Deviation to the remote cloud.
        if current != Placement::Remote
            && spec.can_stay_remote()
            && spec.remote_cost < current_cost - tol
        {
            out.push(Violation::ProfitableDeviation {
                provider: l,
                from: current,
                to: Placement::Remote,
                current_cost,
                deviation_cost: spec.remote_cost,
            });
        }
        // Deviation to every other allowed cloudlet with room for `l`.
        for i in market.cloudlets() {
            if !allowed[i.index()] || current == Placement::Cloudlet(i) {
                continue;
            }
            // `l` is not cached at `i`, so the recounted load is already
            // the others-only load.
            let cl = market.cloudlet(i);
            let (a, b) = loads[i.index()];
            let free = (cl.compute_capacity - a, cl.bandwidth_capacity - b);
            if !market.fits(l, free) {
                continue;
            }
            let cost = eq3_cost(market, l, i, sigma[i.index()] + 1);
            if cost < current_cost - tol {
                out.push(Violation::ProfitableDeviation {
                    provider: l,
                    from: current,
                    to: Placement::Cloudlet(i),
                    current_cost,
                    deviation_cost: cost,
                });
            }
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::game::{is_nash, BestResponseDynamics, MoveOrder, IMPROVEMENT_TOL};
    use crate::model::{CloudletSpec, ProviderSpec};

    fn market() -> Market {
        Market::builder()
            .cloudlet(CloudletSpec::new(10.0, 50.0, 0.5, 0.5))
            .cloudlet(CloudletSpec::new(8.0, 40.0, 0.2, 0.3))
            .provider(ProviderSpec::new(2.0, 10.0, 1.0, 10.0))
            .provider(ProviderSpec::new(3.0, 12.0, 1.5, 12.0))
            .provider(ProviderSpec::new(1.0, 8.0, 0.5, 6.0))
            .uniform_update_cost(0.4)
            .build()
    }

    fn cl(i: usize) -> Placement {
        Placement::Cloudlet(CloudletId(i))
    }

    #[test]
    fn feasible_profile_passes_capacity() {
        let m = market();
        let p = Profile::new(vec![cl(0), cl(1), Placement::Remote]);
        assert_eq!(check_capacity(&m, &p), vec![]);
    }

    #[test]
    fn overload_is_reported_per_resource() {
        let m = Market::builder()
            .cloudlet(CloudletSpec::new(2.0, 100.0, 0.1, 0.1))
            .provider(ProviderSpec::new(2.0, 60.0, 1.0, 5.0))
            .provider(ProviderSpec::new(2.0, 60.0, 1.0, 5.0))
            .uniform_update_cost(0.0)
            .build();
        let p = Profile::new(vec![cl(0), cl(0)]);
        let v = check_capacity(&m, &p);
        assert!(v.iter().any(
            |v| matches!(v, Violation::ComputeOverload { cloudlet, .. } if cloudlet.index() == 0)
        ));
        assert!(v.iter().any(
            |v| matches!(v, Violation::BandwidthOverload { cloudlet, .. } if cloudlet.index() == 0)
        ));
    }

    #[test]
    fn congestion_recount_agrees_and_disagrees() {
        let m = market();
        let p = Profile::new(vec![cl(0), cl(0), Placement::Remote]);
        assert_eq!(check_congestion(&m, &p, &[2, 0]), vec![]);
        let v = check_congestion(&m, &p, &[1, 1]);
        assert_eq!(v.len(), 2);
        assert!(matches!(
            v[0],
            Violation::CongestionMismatch {
                claimed: 1,
                counted: 2,
                ..
            }
        ));
    }

    #[test]
    fn cost_reconstruction_matches_social_cost() {
        let m = market();
        let p = Profile::new(vec![cl(0), cl(1), Placement::Remote]);
        let reported = p.social_cost(&m);
        assert_eq!(check_cost_reconstruction(&m, &p, reported, 1e-9), vec![]);
        let v = check_cost_reconstruction(&m, &p, reported + 1.0, 1e-9);
        assert_eq!(v.len(), 1);
        assert!(matches!(v[0], Violation::SocialCostMismatch { .. }));
    }

    #[test]
    fn state_certifies_after_moves() {
        let m = market();
        let mut s = GameState::new(&m, Profile::all_remote(3));
        s.apply_move(ProviderId(0), cl(0));
        s.apply_move(ProviderId(1), cl(1));
        s.apply_move(ProviderId(0), cl(1));
        assert_eq!(check_state(&s, 1e-9), vec![]);
    }

    // Acceptance criterion: the Nash certificate verifier rejects a
    // hand-built non-equilibrium profile.
    #[test]
    fn rejects_hand_built_non_equilibrium() {
        // CL0 price 1.0/service, CL1 price 0.5/service, same update cost.
        // Both providers crowd CL0 (cost 2.0+ins each) while CL1 is empty
        // (deviation cost 0.5+ins): blatantly unstable.
        let m = Market::builder()
            .cloudlet(CloudletSpec::new(10.0, 50.0, 0.5, 0.5))
            .cloudlet(CloudletSpec::new(10.0, 50.0, 0.25, 0.25))
            .provider(ProviderSpec::new(1.0, 5.0, 1.0, 100.0))
            .provider(ProviderSpec::new(1.0, 5.0, 1.0, 100.0))
            .uniform_update_cost(0.0)
            .build();
        let p = Profile::new(vec![cl(0), cl(0)]);
        let v = check_nash(&m, &p, &[true, true], IMPROVEMENT_TOL);
        assert!(
            v.iter().any(|v| matches!(
                v,
                Violation::ProfitableDeviation {
                    to: Placement::Cloudlet(c),
                    ..
                } if c.index() == 1
            )),
            "expected a profitable deviation to CL1, got {v:?}"
        );
        // And `is_nash` agrees the profile is unstable.
        assert!(!is_nash(&m, &p, &[true, true]));
    }

    #[test]
    fn converged_dynamics_pass_the_nash_certificate() {
        let m = market();
        let mut profile = Profile::all_remote(3);
        let conv = BestResponseDynamics::new(MoveOrder::RoundRobin).run(
            &m,
            &mut profile,
            &[true, true, true],
        );
        assert!(conv.converged);
        assert_eq!(
            check_nash(&m, &profile, &[true, true, true], IMPROVEMENT_TOL),
            vec![]
        );
    }

    #[test]
    fn pinned_providers_are_not_probed() {
        // Provider 0 is pinned at expensive CL0; with it immovable the
        // certificate must ignore its obvious deviation.
        let m = Market::builder()
            .cloudlet(CloudletSpec::new(10.0, 50.0, 2.0, 2.0))
            .cloudlet(CloudletSpec::new(10.0, 50.0, 0.1, 0.1))
            .provider(ProviderSpec::new(1.0, 5.0, 1.0, 100.0))
            .uniform_update_cost(0.0)
            .build();
        let p = Profile::new(vec![cl(0)]);
        assert!(!check_nash(&m, &p, &[true], IMPROVEMENT_TOL).is_empty());
        assert_eq!(check_nash(&m, &p, &[false], IMPROVEMENT_TOL), vec![]);
    }

    #[test]
    fn full_cloudlet_is_not_a_deviation_target() {
        // CL1 is cheaper but already full: no admissible deviation.
        let m = Market::builder()
            .cloudlet(CloudletSpec::new(10.0, 50.0, 0.5, 0.5))
            .cloudlet(CloudletSpec::new(1.0, 5.0, 0.1, 0.1))
            .provider(ProviderSpec::new(1.0, 5.0, 1.0, 100.0))
            .provider(ProviderSpec::new(1.0, 5.0, 1.0, 100.0))
            .uniform_update_cost(0.0)
            .build();
        let p = Profile::new(vec![cl(0), cl(1)]);
        let v = check_nash(&m, &p, &[true, true], IMPROVEMENT_TOL);
        assert!(
            !v.iter().any(|v| matches!(
                v,
                Violation::ProfitableDeviation { provider, .. } if provider.index() == 0
            )),
            "provider 0 must not be offered the full CL1: {v:?}"
        );
    }

    #[test]
    fn certificate_collects_and_asserts() {
        let m = market();
        let p = Profile::new(vec![cl(0), cl(0), Placement::Remote]);
        let mut cert = Certificate::new("test-profile");
        cert.extend(check_capacity(&m, &p))
            .extend(check_congestion(&m, &p, &[2, 0]));
        assert!(cert.is_valid());
        cert.assert_valid(); // must not panic
        assert_eq!(cert.subject(), "test-profile");
        assert!(cert.to_string().contains("valid"));
    }

    #[test]
    #[should_panic(expected = "certificate `bad-profile`")]
    fn invalid_certificate_panics_with_report() {
        let m = market();
        let p = Profile::new(vec![cl(0), cl(0), Placement::Remote]);
        let mut cert = Certificate::new("bad-profile");
        cert.extend(check_congestion(&m, &p, &[0, 2]));
        assert!(!cert.is_valid());
        cert.assert_valid();
    }

    #[test]
    fn lower_layer_violations_wrap() {
        let g: Violation = mec_gap::GapViolation::BinOutOfRange { item: 1, bin: 9 }.into();
        assert!(g.to_string().starts_with("gap:"));
    }

    #[test]
    fn certificate_records_location() {
        let cert = Certificate::new("here");
        assert!(cert.location().file().ends_with("verify.rs"));
    }

    #[test]
    fn violations_render() {
        let m = market();
        let p = Profile::new(vec![cl(0), cl(0), cl(0)]);
        for v in check_congestion(&m, &p, &[0, 1])
            .into_iter()
            .chain(check_cost_reconstruction(&m, &p, -1.0, 1e-9))
        {
            assert!(!v.to_string().is_empty());
        }
    }
}
