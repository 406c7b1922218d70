//! Property tests for the GAP pipeline.
//!
//! Invariants checked on random small instances:
//! * the Shmoys–Tardos assignment costs no more than the LP optimum;
//! * the LP optimum lower-bounds the exact integral optimum;
//! * rounding never overflows a bin by more than the largest item weight;
//! * the transportation relaxation reaches the optimum of the general
//!   assignment LP solved by the simplex oracle ([`oracle`]), also on
//!   Appro-shaped instances (unit slots priced by marginal congestion, a
//!   large remote bin some items may not use), and its potential-derived
//!   duals pass the `verify::check_relaxation` certificate (with
//!   `--features mec-lp/verify` every oracle solve is itself certified
//!   optimal);
//! * the `verify::check_assignment` certifier accepts every rounded output;
//! * the relaxation does not depend on the order of the items: a permuted
//!   instance reaches the same objective and passes the certificate, and
//!   where the optimum is a vertex (Appro-shaped, distinct weights) the
//!   same support with the same fractions; the transportation flow's cost
//!   does not depend on the order its sources are added either;
//! * the transportation flow's final potentials keep the invariants its
//!   cost-ordered scan relies on: every bin with room bit-equal to the
//!   sink, no bin above it, every forward arc's reduced cost non-negative
//!   and every arc carrying flow tight.

mod oracle;

use mec_gap::flow::Transportation;
use mec_gap::{
    check_assignment, check_relaxation, exact, greedy, lp_relax, shmoys_tardos, GapInstance,
    FORBIDDEN,
};
use proptest::prelude::*;

#[derive(Debug, Clone)]
struct RandInst {
    items: usize,
    bins: usize,
    costs: Vec<f64>,
    weights: Vec<f64>,
    cap_slack: f64,
}

fn rand_inst() -> impl Strategy<Value = RandInst> {
    (2usize..6, 2usize..4).prop_flat_map(|(items, bins)| {
        let costs = proptest::collection::vec(0.1..10.0f64, items * bins);
        let weights = proptest::collection::vec(0.5..2.0f64, items);
        (Just(items), Just(bins), costs, weights, 1.1..3.0f64).prop_map(
            |(items, bins, costs, weights, cap_slack)| RandInst {
                items,
                bins,
                costs,
                weights,
                cap_slack,
            },
        )
    })
}

fn build(r: &RandInst) -> GapInstance {
    let mut inst = GapInstance::new(r.items, r.bins);
    for i in 0..r.items {
        for j in 0..r.bins {
            inst.set_cost(i, j, r.costs[i * r.bins + j]);
        }
        inst.set_item_weight(i, r.weights[i]);
    }
    // Capacity sized so the instance is always feasible: the total weight
    // split across bins with some slack.
    let total: f64 = r.weights.iter().sum();
    let per_bin = total / r.bins as f64 * r.cap_slack + 2.0;
    for j in 0..r.bins {
        inst.set_capacity(j, per_bin);
    }
    inst
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    #[test]
    fn st_cost_at_most_lp(r in rand_inst()) {
        let inst = build(&r);
        let sol = shmoys_tardos::solve(&inst).unwrap();
        prop_assert!(sol.assignment_cost <= sol.lp_objective + 1e-6,
            "rounded {} > LP {}", sol.assignment_cost, sol.lp_objective);
    }

    #[test]
    fn lp_lower_bounds_exact(r in rand_inst()) {
        let inst = build(&r);
        let sol = shmoys_tardos::solve(&inst).unwrap();
        let opt = exact::solve(&inst).unwrap();
        prop_assert!(sol.lp_objective <= opt.total_cost(&inst) + 1e-6,
            "LP {} > OPT {}", sol.lp_objective, opt.total_cost(&inst));
    }

    #[test]
    fn rounding_overflow_bounded(r in rand_inst()) {
        let inst = build(&r);
        let sol = shmoys_tardos::solve(&inst).unwrap();
        let max_w = r.weights.iter().cloned().fold(0.0, f64::max);
        prop_assert!(sol.assignment.max_overflow(&inst) <= max_w + 1e-9);
    }

    #[test]
    fn transportation_agrees_with_lp(r in rand_inst()) {
        let inst = build(&r);
        let lp = oracle::lp_objective(&inst).unwrap();
        let tp = lp_relax::solve_relaxation(&inst).unwrap();
        prop_assert!((lp - tp.objective).abs() < 1e-5,
            "LP {} vs transportation {}", lp, tp.objective);
        let violations = check_relaxation(&inst, &tp, 1e-9);
        prop_assert!(violations.is_empty(), "certificate: {violations:?}");
    }

    #[test]
    fn greedy_feasible_when_it_succeeds(r in rand_inst()) {
        let inst = build(&r);
        if let Ok(a) = greedy::solve(&inst) {
            prop_assert!(a.is_capacity_feasible(&inst));
            let opt = exact::solve(&inst).unwrap();
            prop_assert!(a.total_cost(&inst) >= opt.total_cost(&inst) - 1e-9);
        }
    }

    /// The independent validity certifier (`verify::check_assignment`)
    /// accepts every Shmoys–Tardos output: in-range bins, no forbidden
    /// pairs, loads within the augmented capacities.
    #[test]
    fn st_output_passes_validity_certificate(r in rand_inst()) {
        let inst = build(&r);
        let sol = shmoys_tardos::solve(&inst).unwrap();
        let violations = check_assignment(&inst, &sol.assignment, 1e-9);
        prop_assert!(violations.is_empty(), "certifier rejected ST output: {violations:?}");
    }

    /// FORBIDDEN arcs leave the relaxation a transportation problem over
    /// the admissible arcs, and its optimum matches the general LP there.
    /// Bin 0 is never forbidden, so every item fits somewhere.
    #[test]
    fn transportation_agrees_with_forbidden_arcs(
        r in rand_inst(),
        forbidden in proptest::collection::vec(proptest::bool::ANY, 5 * 3),
    ) {
        let mut inst = build(&r);
        for i in 0..r.items {
            for j in 1..r.bins {
                if forbidden[(i * r.bins + j) % forbidden.len()] {
                    inst.set_cost(i, j, FORBIDDEN);
                }
            }
        }
        // Forbidding arcs can push every item onto one bin; size capacities
        // so the instance stays feasible no matter how arcs were removed.
        let total: f64 = r.weights.iter().sum();
        for j in 0..r.bins {
            inst.set_capacity(j, total + 2.0);
        }
        let lp = oracle::lp_objective(&inst).unwrap();
        let tp = lp_relax::solve_relaxation(&inst).unwrap();
        prop_assert!((lp - tp.objective).abs() < 1e-5 * (1.0 + lp.abs()),
            "LP {} vs transportation {}", lp, tp.objective);
    }
}

/// An instance shaped like Appro's marginal-pricing reduction: cloudlets
/// split into unit slots, slot `k` of cloudlet `c` priced
/// `base_ic + p_c·(2k−1)`, plus one large remote bin. In a third of the
/// cases every item weighs the same, and any item may be weightless (a
/// service with no demand), which the relaxation assigns outside the flow.
#[derive(Debug, Clone)]
struct ApproShaped {
    weights: Vec<f64>,
    /// Unit slots per cloudlet.
    slots: Vec<usize>,
    /// Congestion price `p_c` per cloudlet.
    price: Vec<f64>,
    /// `base_ic`, item-major.
    base: Vec<f64>,
    remote: Vec<f64>,
    /// Items that may not stay remote (capped at the slot count, so the
    /// relaxation stays feasible: every weight is at most one slot).
    pinned: Vec<bool>,
}

fn appro_shaped() -> impl Strategy<Value = ApproShaped> {
    (20usize..=60, 3usize..=8).prop_flat_map(|(items, cloudlets)| {
        use proptest::collection::vec;
        (
            vec(0.0..0.95f64, items),
            vec(1usize..=6, cloudlets),
            vec(0.1..2.0f64, cloudlets),
            vec(1.0..10.0f64, items * cloudlets),
            vec(5.0..40.0f64, items),
            vec(proptest::bool::ANY, items),
            vec(0u8..10, items),
            0u8..3,
        )
            .prop_map(
                |(w, slots, price, base, remote, pinned, weightless, uniform)| {
                    // Weights in (0.05, 1], all equal to the first in the
                    // uniform variant; about one item in ten weightless.
                    let first = 1.0 - w[0];
                    let weights = w
                        .into_iter()
                        .zip(weightless)
                        .map(|(x, z)| match (z, uniform) {
                            (0, _) => 0.0,
                            (_, 0) => first,
                            _ => 1.0 - x,
                        })
                        .collect();
                    ApproShaped {
                        weights,
                        slots,
                        price,
                        base,
                        remote,
                        pinned,
                    }
                },
            )
    })
}

fn build_appro_shaped(r: &ApproShaped) -> GapInstance {
    let items = r.weights.len();
    let cloudlets = r.slots.len();
    let total_slots: usize = r.slots.iter().sum();
    let remote = total_slots;
    let mut inst = GapInstance::new(items, total_slots + 1);
    let mut pinned = 0;
    for (i, &w) in r.weights.iter().enumerate() {
        inst.set_item_weight(i, w);
        let mut bin = 0;
        for c in 0..cloudlets {
            for k in 1..=r.slots[c] {
                let cost = r.base[i * cloudlets + c] + r.price[c] * (2 * k - 1) as f64;
                inst.set_cost(i, bin, cost);
                bin += 1;
            }
        }
        if r.pinned[i] && pinned < total_slots {
            pinned += 1;
            inst.set_cost(i, remote, FORBIDDEN);
        } else {
            inst.set_cost(i, remote, r.remote[i]);
        }
    }
    for j in 0..total_slots {
        inst.set_capacity(j, 1.0);
    }
    inst.set_capacity(remote, r.weights.iter().sum::<f64>() + 1.0);
    inst
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// On Appro-shaped instances — large enough for the multi-bin
    /// displacement chains of the real reductions — the transportation
    /// solver reaches the simplex oracle's optimum, and its solution with
    /// the potential-derived duals passes the relaxation certificate:
    /// every item covered, every capacity respected, the duals feasible
    /// and the duality gap closed.
    #[test]
    fn transportation_agrees_on_appro_shaped(r in appro_shaped()) {
        let inst = build_appro_shaped(&r);
        let lp = oracle::lp_objective(&inst).unwrap();
        let tp = lp_relax::solve_relaxation(&inst).unwrap();
        prop_assert!((lp - tp.objective).abs() < 1e-6 * (1.0 + lp.abs()),
            "simplex {} vs transportation {}", lp, tp.objective);
        let violations = check_relaxation(&inst, &tp, 1e-9);
        prop_assert!(violations.is_empty(), "certificate: {violations:?}");
    }
}

/// A permutation of `0..n` drawn from sort keys (`keys.len() >= n`).
fn permutation(keys: &[u32], n: usize) -> Vec<usize> {
    let mut perm: Vec<usize> = (0..n).collect();
    perm.sort_by_key(|&i| keys[i]);
    perm
}

/// `inst` with its items reordered: item `k` of the result is item
/// `perm[k]` of `inst`.
fn permuted(inst: &GapInstance, perm: &[usize]) -> GapInstance {
    let mut out = GapInstance::new(inst.items(), inst.bins());
    for (k, &i) in perm.iter().enumerate() {
        out.set_item_weight(k, inst.weight(i));
        for j in 0..inst.bins() {
            out.set_cost(k, j, inst.cost(i, j));
        }
    }
    for j in 0..inst.bins() {
        out.set_capacity(j, inst.capacity(j));
    }
    out
}

/// `(item, bin, fraction)` triples sorted by item, then bin.
type Support = Vec<(usize, usize, f64)>;

/// Relaxes `inst` and its permutation by `perm`, and checks what holds in
/// any order: the objectives agree within 1e-9 relative, and the permuted
/// solution passes the relaxation certificate at 1e-9. Returns both
/// supports, the permuted one mapped back to `inst`'s items.
fn relax_in_both_orders(inst: &GapInstance, perm: &[usize]) -> (Support, Support) {
    let base = lp_relax::solve_relaxation(inst).unwrap();
    let shuffled_inst = permuted(inst, perm);
    let shuffled = lp_relax::solve_relaxation(&shuffled_inst).unwrap();
    let tol = 1e-9 * base.objective.abs().max(1.0);
    assert!(
        (base.objective - shuffled.objective).abs() <= tol,
        "objective {} in index order, {} permuted",
        base.objective,
        shuffled.objective
    );
    let violations = check_relaxation(&shuffled_inst, &shuffled, 1e-9);
    assert!(
        violations.is_empty(),
        "permuted certificate: {violations:?}"
    );
    let mut a = base.fractions;
    let mut b: Support = shuffled
        .fractions
        .into_iter()
        .map(|(k, j, f)| (perm[k], j, f))
        .collect();
    a.sort_by_key(|&(i, j, _)| (i, j));
    b.sort_by_key(|&(i, j, _)| (i, j));
    (a, b)
}

/// Whether the items that enter the flow (positive weight) all weigh
/// differently. Two items of one weight can trade slots of one cloudlet at
/// no cost (each pays `base + p_c·(2k−1)` for its slot either way), so
/// their optimum is a face, not a vertex, and its support is not unique.
fn distinct_positive_weights(weights: &[f64]) -> bool {
    let mut w: Vec<f64> = weights.iter().copied().filter(|&w| w > 0.0).collect();
    w.sort_by(f64::total_cmp);
    w.windows(2).all(|p| p[0] < p[1])
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    /// Permuting the items moves neither the objective nor the
    /// certificate.
    #[test]
    fn relaxation_is_independent_of_item_order(
        r in rand_inst(),
        keys in proptest::collection::vec(0u32..1 << 20, 8),
    ) {
        let inst = build(&r);
        relax_in_both_orders(&inst, &permutation(&keys, r.items));
    }

    /// Sources added in any order route the same supply at the same cost
    /// (capacity covers the supply, so the min-cost flow is unique in
    /// cost).
    #[test]
    fn transportation_cost_is_independent_of_source_order(
        r in rand_inst(),
        keys in proptest::collection::vec(0u32..1 << 20, 8),
    ) {
        let inst = build(&r);
        let solve = |order: &[usize]| {
            let mut t = Transportation::new((0..r.bins).map(|j| inst.capacity(j)).collect());
            for &i in order {
                let w = r.weights[i];
                t.add_item(w, (0..r.bins).map(|j| (j, r.costs[i * r.bins + j] / w)));
            }
            t.solve()
        };
        let a = solve(&(0..r.items).collect::<Vec<_>>());
        let b = solve(&permutation(&keys, r.items));
        let total: f64 = r.weights.iter().sum();
        prop_assert!((a.routed - total).abs() < 1e-9 && (b.routed - total).abs() < 1e-9);
        prop_assert!((a.cost - b.cost).abs() <= 1e-9 * a.cost.abs().max(1.0),
            "cost {} in index order, {} shuffled", a.cost, b.cost);
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// On Appro-shaped instances the relaxation's optimum is a vertex
    /// when the weights differ: a permuted instance then returns the same
    /// support, mapped back through the permutation, with fractions within
    /// 1e-9. With equal weights (the uniform variant) only the objective
    /// and the certificate are order-free.
    #[test]
    fn relaxation_support_is_independent_of_item_order_on_appro_shaped(
        r in appro_shaped(),
        keys in proptest::collection::vec(0u32..1 << 20, 60),
    ) {
        let inst = build_appro_shaped(&r);
        let (a, b) = relax_in_both_orders(&inst, &permutation(&keys, r.weights.len()));
        if distinct_positive_weights(&r.weights) {
            prop_assert_eq!(a.len(), b.len(), "support sizes differ: {:?} vs {:?}", a, b);
            for (x, y) in a.iter().zip(&b) {
                prop_assert!(x.0 == y.0 && x.1 == y.1 && (x.2 - y.2).abs() <= 1e-9,
                    "index order {:?}, permuted {:?}", x, y);
            }
        }
    }
}

/// The transportation network of `inst`'s relaxation, as
/// [`lp_relax::solve_relaxation`] builds it (weightless items left out, a
/// unit of `y_ij` costing `c_ij / w_i`), sources in index order. Also
/// returns the number of sources and every arc as `(source, bin, cost)`,
/// in arc order.
fn relaxation_network(inst: &GapInstance) -> (Transportation, usize, Vec<(usize, usize, f64)>) {
    let mut net = Transportation::new((0..inst.bins()).map(|j| inst.capacity(j)).collect());
    let mut arcs = Vec::new();
    let mut sources = 0;
    for i in (0..inst.items()).filter(|&i| inst.weight(i) > 1e-12) {
        let w = inst.weight(i);
        let own: Vec<(usize, f64)> = (0..inst.bins())
            .filter(|&j| inst.is_allowed(i, j))
            .map(|j| (j, inst.cost(i, j) / w))
            .collect();
        arcs.extend(own.iter().map(|&(j, c)| (sources, j, c)));
        net.add_item(w, own);
        sources += 1;
    }
    (net, sources, arcs)
}

/// Solves `inst`'s relaxation network and checks the invariants of its
/// final potentials that the flow's cost-ordered scan relies on (the
/// `mec_gap::flow` module docs): every bin with room sits bit-equal to the
/// sink, no bin above it, every forward arc keeps a reduced cost
/// `>= -1e-9`, and every arc carrying flow is tight within 1e-9.
fn check_flow_potentials(inst: &GapInstance) {
    let (net, n, arcs) = relaxation_network(inst);
    let m = inst.bins();
    let res = net.solve();
    let pi = &res.potential;
    let sink = pi[n + m];
    let mut load = vec![0.0; m];
    for (a, &(i, j, c)) in arcs.iter().enumerate() {
        let rc = c + pi[i] - pi[n + j];
        assert!(rc >= -1e-9, "arc {a} ({i} -> {j}): reduced cost {rc}");
        if res.flow[a] > 1e-12 {
            assert!(
                rc.abs() <= 1e-9,
                "arc {a} ({i} -> {j}) carries flow at reduced cost {rc}"
            );
        }
        load[j] += res.flow[a];
    }
    for (j, &l) in load.iter().enumerate() {
        assert!(
            pi[n + j] <= sink,
            "bin {j} at {} above the sink at {sink}",
            pi[n + j]
        );
        if inst.capacity(j) - l > 1e-9 {
            assert!(
                pi[n + j].to_bits() == sink.to_bits(),
                "bin {j} has room at {} but the sink is at {sink}",
                pi[n + j]
            );
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// The flow's potential invariants hold on random instances, where
    /// most bins keep room.
    #[test]
    fn flow_potentials_hold_on_random_instances(r in rand_inst()) {
        check_flow_potentials(&build(&r));
    }

    /// The flow's potential invariants hold on Appro-shaped instances,
    /// where unit slots fill and displacement chains run through them.
    #[test]
    fn flow_potentials_hold_on_appro_shaped(r in appro_shaped()) {
        check_flow_potentials(&build_appro_shaped(&r));
    }
}
