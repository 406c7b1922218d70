//! Differential property tests: the incremental `GameState` must stay in
//! exact agreement with recomputation from scratch under arbitrary move
//! sequences, and every query answered from its maintained aggregates must
//! match the reference `Profile` path. The restricted best response and
//! Nash certificate must match the unrestricted ones on the sub-market of
//! the cloudlets they allow.

use mec_core::game::{best_response, BestResponseDynamics, MoveOrder, IMPROVEMENT_TOL};
use mec_core::model::{CloudletSpec, Market, ProviderSpec};
use mec_core::state::GameState;
use mec_core::verify::{check_nash, check_nash_in, Violation};
use mec_core::{Placement, Profile, ProviderId};
use mec_topology::CloudletId;
use proptest::prelude::*;

#[derive(Debug, Clone)]
struct RandMarket {
    cloudlets: Vec<(f64, f64, f64, f64)>,
    providers: Vec<(f64, f64, f64, f64)>,
    update: f64,
}

fn rand_market() -> impl Strategy<Value = RandMarket> {
    let cloudlet = (10.0..40.0f64, 50.0..200.0f64, 0.0..1.0f64, 0.0..1.0f64);
    let provider = (0.5..4.0f64, 2.0..15.0f64, 0.2..1.5f64, 3.0..25.0f64);
    (
        proptest::collection::vec(cloudlet, 2..5),
        proptest::collection::vec(provider, 3..12),
        0.0..0.5f64,
    )
        .prop_map(|(cloudlets, providers, update)| RandMarket {
            cloudlets,
            providers,
            update,
        })
}

fn build(r: &RandMarket) -> Market {
    let mut b = Market::builder();
    for &(c, bw, a, be) in &r.cloudlets {
        b = b.cloudlet(CloudletSpec::new(c, bw, a, be));
    }
    for &(cd, bd, ic, rc) in &r.providers {
        b = b.provider(ProviderSpec::new(cd, bd, ic, rc));
    }
    b.uniform_update_cost(r.update).build()
}

/// Decodes `(provider pick, cloudlet pick)` pairs into a move sequence:
/// pick == cloudlet count means Remote. Moves may be infeasible or no-ops —
/// the state must track bookkeeping regardless.
fn apply_script(state: &mut GameState<'_>, script: &[(usize, usize)]) {
    let n = state.len();
    let m = state.market().cloudlet_count();
    for &(lp, cp) in script {
        let l = ProviderId(lp % n);
        let to = match cp % (m + 1) {
            k if k == m => Placement::Remote,
            k => Placement::Cloudlet(CloudletId(k)),
        };
        let old = state.apply_move(l, to);
        let _ = old;
    }
}

/// The sub-market of the cloudlets `allowed` marks, each with its
/// capacities reduced by its `held` amounts (possibly below zero), and the
/// sub-market id of every allowed cloudlet. `None` when nothing is allowed.
fn sub_market(
    market: &Market,
    allowed: &[bool],
    held: &[(f64, f64)],
) -> Option<(Market, Vec<Option<usize>>)> {
    let keep: Vec<CloudletId> = market.cloudlets().filter(|i| allowed[i.index()]).collect();
    if keep.is_empty() {
        return None;
    }
    let mut local = vec![None; market.cloudlet_count()];
    let mut b = Market::builder();
    for (j, &i) in keep.iter().enumerate() {
        local[i.index()] = Some(j);
        let spec = market.cloudlet(i);
        let (ha, hb) = held[i.index()];
        b = b.cloudlet(CloudletSpec {
            compute_capacity: spec.compute_capacity - ha,
            bandwidth_capacity: spec.bandwidth_capacity - hb,
            ..spec.clone()
        });
    }
    let mut update = Vec::new();
    for l in market.providers() {
        b = b.provider(market.provider(l).clone());
        update.extend(keep.iter().map(|&i| market.update_cost(l, i)));
    }
    Some((b.update_cost_matrix(update).build(), local))
}

/// `profile` re-indexed into a sub-market: a provider placed outside it
/// goes remote.
fn sub_profile(profile: &Profile, local: &[Option<usize>]) -> Profile {
    Profile::new(
        profile
            .iter()
            .map(|(_, p)| match p {
                Placement::Cloudlet(i) => local[i.index()]
                    .map_or(Placement::Remote, |j| Placement::Cloudlet(CloudletId(j))),
                Placement::Remote => Placement::Remote,
            })
            .collect(),
    )
}

/// A sub-market placement back in the whole market's ids.
fn global(p: Placement, local: &[Option<usize>]) -> Placement {
    match p {
        Placement::Cloudlet(CloudletId(j)) => Placement::Cloudlet(CloudletId(
            local
                .iter()
                .position(|&k| k == Some(j))
                .expect("sub-market cloudlet"),
        )),
        Placement::Remote => Placement::Remote,
    }
}

/// A market on a half-unit grid: capacities, demands and held amounts
/// are small integers, so a residual net of held capacity is exact in
/// either subtraction order, and prices repeat often enough to exercise
/// the tie-break.
fn grid_market(
    cloudlets: &[(u8, u8, u8, u8, bool)],
    providers: &[(u8, u8, u8, bool)],
    update: &[u8],
) -> (Market, Vec<bool>, Vec<(f64, f64)>) {
    let mut b = Market::builder();
    for &(slots, alpha, beta, _, _) in cloudlets {
        let slots = f64::from(slots);
        b = b.cloudlet(CloudletSpec::new(
            2.0 * slots,
            8.0 * slots,
            f64::from(alpha) / 2.0,
            f64::from(beta) / 2.0,
        ));
    }
    for &(units, inst, remote, remote_ok) in providers {
        let units = f64::from(units);
        let remote = if remote_ok {
            f64::from(remote)
        } else {
            f64::INFINITY
        };
        b = b.provider(ProviderSpec::new(
            units,
            4.0 * units,
            f64::from(inst) / 2.0,
            remote,
        ));
    }
    let cells = cloudlets.len() * providers.len();
    let matrix = (0..cells)
        .map(|k| f64::from(update[k % update.len()]) / 5.0)
        .collect();
    let allowed = cloudlets.iter().map(|c| c.4).collect();
    let held = cloudlets
        .iter()
        .map(|c| (f64::from(c.3), 4.0 * f64::from(c.3)))
        .collect();
    (b.update_cost_matrix(matrix).build(), allowed, held)
}

/// A violation's placements back in the whole market's ids.
fn global_violation(v: Violation, local: &[Option<usize>]) -> Violation {
    match v {
        Violation::ProfitableDeviation {
            provider,
            from,
            to,
            current_cost,
            deviation_cost,
        } => Violation::ProfitableDeviation {
            provider,
            from: global(from, local),
            to: global(to, local),
            current_cost,
            deviation_cost,
        },
        other => other,
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// After any mix of apply_move and in-place demand changes on a state
    /// that owns its market, the maintained congestion, loads and
    /// residuals equal a from-scratch recomputation on the updated market.
    #[test]
    fn state_matches_recompute_after_any_move_sequence(
        r in rand_market(),
        script in proptest::collection::vec(
            (0usize..64, 0usize..8, proptest::bool::ANY, 0.0..5.0f64, 0.0..20.0f64),
            0..40,
        ),
    ) {
        let initial = build(&r);
        let n = initial.provider_count();
        let mut state = GameState::owned(initial, Profile::all_remote(n));
        for &(lp, cp, change_demand, compute, bandwidth) in &script {
            if change_demand {
                state.set_provider_demand(ProviderId(lp % n), compute, bandwidth);
            } else {
                apply_script(&mut state, &[(lp, cp)]);
            }
        }
        let market = state.market().clone();
        let fresh = GameState::new(&market, state.profile().clone());
        prop_assert_eq!(state.congestion_counts(), fresh.congestion_counts());
        for i in market.cloudlets() {
            let (got, want) = (state.load(i), fresh.load(i));
            prop_assert!((got.0 - want.0).abs() <= 1e-9 && (got.1 - want.1).abs() <= 1e-9,
                "load mismatch at {}: {:?} vs {:?}", i, got, want);
        }
        prop_assert!(state.agrees_with_recompute(1e-9));

        let profile = state.profile().clone();
        let sigma = profile.congestion(&market);
        prop_assert_eq!(state.congestion_counts(), sigma.as_slice());
        for (i, want) in market.cloudlets().zip(profile.residual(&market)) {
            let got = state.residual(i);
            prop_assert!((got.0 - want.0).abs() <= 1e-9 && (got.1 - want.1).abs() <= 1e-9,
                "residual mismatch at {}: {:?} vs {:?}", i, got, want);
        }
    }

    /// Undoing a move with the returned old placement restores the exact
    /// previous aggregates (congestion is integral, so equality is exact).
    #[test]
    fn apply_move_undo_roundtrip(
        r in rand_market(),
        script in proptest::collection::vec((0usize..64, 0usize..8), 1..30),
        probe in (0usize..64, 0usize..8),
    ) {
        let market = build(&r);
        let mut state = GameState::all_remote(&market);
        apply_script(&mut state, &script);
        let l = ProviderId(probe.0 % state.len());
        let to = match probe.1 % (market.cloudlet_count() + 1) {
            k if k == market.cloudlet_count() => Placement::Remote,
            k => Placement::Cloudlet(CloudletId(k)),
        };
        let sigma_before = state.congestion_counts().to_vec();
        let profile_before = state.profile().clone();
        let old = state.apply_move(l, to);
        state.apply_move(l, old);
        prop_assert_eq!(state.congestion_counts(), sigma_before.as_slice());
        prop_assert_eq!(state.profile(), &profile_before);
    }

    /// Every per-provider and aggregate cost answered from the maintained
    /// counts equals the Profile recompute path. Congestion is integral, so
    /// costs are bit-identical, not merely close.
    #[test]
    fn costs_identical_via_both_paths(
        r in rand_market(),
        script in proptest::collection::vec((0usize..64, 0usize..8), 0..40),
    ) {
        let market = build(&r);
        let mut state = GameState::all_remote(&market);
        apply_script(&mut state, &script);
        let profile = state.profile().clone();
        for l in market.providers() {
            prop_assert_eq!(state.provider_cost(l), profile.provider_cost(&market, l));
        }
        prop_assert_eq!(state.social_cost(), profile.social_cost(&market));
        let evens: Vec<ProviderId> = market.providers().filter(|l| l.index() % 2 == 0).collect();
        prop_assert_eq!(
            state.subset_cost(evens.iter().copied()),
            profile.subset_cost(&market, evens.iter().copied())
        );
        prop_assert_eq!(state.is_feasible(), profile.is_feasible(&market));
    }

    /// best_response answered from the maintained aggregates is identical —
    /// same placement, same cost, same tie-breaks — to the recompute path.
    #[test]
    fn best_response_identical_via_both_paths(
        r in rand_market(),
        script in proptest::collection::vec((0usize..64, 0usize..8), 0..40),
    ) {
        let market = build(&r);
        let mut state = GameState::all_remote(&market);
        apply_script(&mut state, &script);
        let profile = state.profile().clone();
        for l in market.providers() {
            prop_assert_eq!(
                state.best_response(l),
                best_response(&market, &profile, l),
                "best response diverged for {}", l
            );
        }
    }

    /// The incremental dynamics make exactly the moves the seed recompute
    /// implementation makes: identical final profile and convergence stats,
    /// for both move orders.
    #[test]
    fn dynamics_match_reference_implementation(
        r in rand_market(),
        max_gain in proptest::bool::ANY,
        mask in proptest::collection::vec(proptest::bool::ANY, 12),
    ) {
        let market = build(&r);
        let n = market.provider_count();
        let movable: Vec<bool> = (0..n).map(|k| mask[k % mask.len()]).collect();
        let order = if max_gain { MoveOrder::MaxGain } else { MoveOrder::RoundRobin };
        let driver = BestResponseDynamics::new(order);
        let mut p_inc = Profile::all_remote(n);
        let mut p_ref = Profile::all_remote(n);
        let c_inc = driver.run(&market, &mut p_inc, &movable);
        let c_ref = driver.run_reference(&market, &mut p_ref, &movable);
        prop_assert_eq!(c_inc, c_ref);
        prop_assert_eq!(p_inc, p_ref);
        prop_assert_eq!(
            p_inc.social_cost(&market),
            p_ref.social_cost(&market)
        );
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(1024))]

    /// The restricted best response over a cloudlet mask with held
    /// capacity equals the reference best response on the sub-market of
    /// the allowed cloudlets with those capacities held back; the masked
    /// Nash certificate equals the whole certificate on that sub-market.
    /// A movable provider the mask leaves outside its strategy set is out
    /// of scope for the certificate comparison (the caller reports it).
    #[test]
    fn restricted_best_response_and_certificate_match_the_sub_market(
        cloudlets in proptest::collection::vec((1u8..6, 0u8..4, 0u8..4, 0u8..3, proptest::bool::ANY), 1..6),
        providers in proptest::collection::vec((1u8..3, 0u8..6, 2u8..12, 0u8..6), 2..10),
        update in proptest::collection::vec(0u8..3, 1..12),
        script in proptest::collection::vec((0usize..64, 0usize..8), 0..40),
        movable in proptest::collection::vec(proptest::bool::ANY, 1..12),
    ) {
        let providers: Vec<(u8, u8, u8, bool)> =
            providers.into_iter().map(|(u, i, r, ok)| (u, i, r, ok > 0)).collect();
        let (market, allowed, held) = grid_market(&cloudlets, &providers, &update);
        let mut state = GameState::all_remote(&market);
        apply_script(&mut state, &script);
        let profile = state.profile().clone();

        let restricted = |l: ProviderId| {
            state.best_response_in(l, |i| {
                let (a, b) = state.residual(i);
                let (ha, hb) = held[i.index()];
                allowed[i.index()].then_some((a - ha, b - hb))
            })
        };
        match sub_market(&market, &allowed, &held) {
            Some((sub, local)) => {
                let sub_prof = sub_profile(&profile, &local);
                for l in market.providers() {
                    let want = best_response(&sub, &sub_prof, l).map(|(p, c)| (global(p, &local), c));
                    prop_assert_eq!(restricted(l), want, "best response of {}", l);
                }
            }
            None => {
                for l in market.providers() {
                    let spec = market.provider(l);
                    let want = spec.can_stay_remote().then_some((Placement::Remote, spec.remote_cost));
                    prop_assert_eq!(restricted(l), want, "best response of {}", l);
                }
            }
        }

        let movable: Vec<bool> = market
            .providers()
            .map(|l| {
                movable[l.index() % movable.len()]
                    && match profile.placement(l) {
                        Placement::Cloudlet(i) => allowed[i.index()],
                        Placement::Remote => true,
                    }
            })
            .collect();
        let got = check_nash_in(&market, &profile, &movable, &allowed, IMPROVEMENT_TOL);
        let none = vec![(0.0, 0.0); market.cloudlet_count()];
        let want = match sub_market(&market, &allowed, &none) {
            Some((sub, local)) => check_nash(&sub, &sub_profile(&profile, &local), &movable, IMPROVEMENT_TOL)
                .into_iter()
                .map(|v| global_violation(v, &local))
                .collect(),
            // Only the remote cloud is allowed, and every movable
            // provider is already there.
            None => Vec::new(),
        };
        prop_assert_eq!(got, want);
    }
}
