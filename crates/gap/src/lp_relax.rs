//! LP relaxation of the Generalized Assignment Problem.
//!
//! The Shmoys–Tardos algorithm starts from an optimal *fractional* solution
//! of the GAP relaxation:
//!
//! ```text
//! minimize   Σ_ij c_ij x_ij
//! subject to Σ_j x_ij = 1            for every item i
//!            Σ_i w_i x_ij ≤ CAP_j    for every bin j
//!            x_ij ≥ 0, and x_ij = 0 whenever (i, j) is not admissible
//! ```
//!
//! Every item weighs the same in every bin, so the substitution
//! `y_ij = w_i · x_ij` makes this a transportation problem: item `i`
//! supplies `w_i` units, bin `j` absorbs at most `CAP_j`, and a unit of
//! `y_ij` costs `c_ij / w_i`. [`solve_relaxation`] solves it with
//! [`crate::flow::Transportation`] and reads an optimal dual solution off
//! the flow's final potentials (`π`, with the sink at `π_t`):
//!
//! ```text
//! maximize   Σ_i u_i − Σ_j CAP_j p_j
//! subject to c_ij − u_i + w_i p_j ≥ 0   for every admissible (i, j)
//!            p_j ≥ 0
//!
//! u_i = w_i (π_t − π_i)        (u_i = min_j c_ij for a weightless item)
//! p_j = max(0, π_t − π_bin j)
//! ```
//!
//! Dual feasibility is the flow's non-negative reduced cost on every
//! forward arc: `c_ij / w_i + π_i − π_j ≥ 0` gives
//! `c_ij − u_i + w_i (π_t − π_j) ≥ 0`, and `p_j` is at least `π_t − π_j`.
//! The duality gap is zero: arcs carrying flow are tight; a bin with room
//! left has `π_j = π_t`, so its price is 0; and no bin sits above the
//! sink, so the clamp only absorbs rounding (see the [`crate::flow`]
//! module docs). [`crate::verify::check_relaxation`] re-checks all of
//! this from the raw instance data.
//!
//! The flow serves its sources in the order they are added, and the
//! optimum does not depend on that order, but the work does. So the
//! sources go in decreasing order of *regret*, the spread of an item's
//! cost per unit weight, `(max_j c_ij − min_j c_ij) / w_i` over its
//! admissible bins, with ties in index order. This is Vogel's rule for
//! transportation problems: the items with the most to lose claim their
//! cheap bins first, so later searches displace fewer of them. On the
//! `lcf_solve` benchmark market it cuts the searches by 30 %, the settled
//! nodes by 41 % and the relaxed arcs by 45 %, on top of the flow's own
//! exact stop and cost-ordered scan (DESIGN.md §3d).

use crate::flow::Transportation;
use crate::instance::GapInstance;

/// Errors produced while relaxing/rounding a GAP instance.
#[derive(Debug, Clone, PartialEq)]
pub enum GapError {
    /// `item` does not fit in any bin (weight exceeds every capacity or all
    /// its costs are forbidden).
    ItemDoesNotFit {
        /// The offending item.
        item: usize,
    },
    /// The relaxation itself is infeasible (total weight exceeds total
    /// capacity in every fractional split).
    Infeasible,
}

impl std::fmt::Display for GapError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            GapError::ItemDoesNotFit { item } => {
                write!(f, "item {item} fits in no bin")
            }
            GapError::Infeasible => write!(f, "GAP relaxation is infeasible"),
        }
    }
}

impl std::error::Error for GapError {}

/// An optimal solution of the GAP relaxation together with an optimal
/// dual: sparse `(item, bin, frac)` triples with `Σ_j frac(i, j) = 1` per
/// item, one dual `u_i` per item and one capacity price `p_j` per bin.
#[derive(Debug, Clone)]
pub struct FractionalSolution {
    /// Sparse nonzero fractions.
    pub fractions: Vec<(usize, usize, f64)>,
    /// Objective value `Σ c_ij x_ij` (a lower bound on the integral optimum).
    pub objective: f64,
    /// Dual `u_i` of every item's assignment row.
    pub item_duals: Vec<f64>,
    /// Shadow price `p_j ≥ 0` of every bin's capacity: the marginal
    /// *reduction* of the optimal assignment cost per extra unit of
    /// capacity (zero when the bin's capacity is slack).
    pub capacity_prices: Vec<f64>,
}

impl FractionalSolution {
    /// Fractions grouped per bin: `result[j]` lists `(item, frac)`.
    pub fn per_bin(&self, bins: usize) -> Vec<Vec<(usize, f64)>> {
        let mut out = vec![Vec::new(); bins];
        for &(i, j, f) in &self.fractions {
            out[j].push((i, f));
        }
        out
    }
}

/// Solves the GAP relaxation and its dual (see the module docs).
///
/// A weightless item is assigned integrally to its cheapest admissible
/// bin up front; every other item becomes a source of the transportation
/// flow, highest regret first. With the `verify` cargo feature enabled,
/// the solution is certified by [`crate::verify::check_relaxation`]
/// before it is returned.
///
/// # Errors
///
/// * [`GapError::ItemDoesNotFit`] — some item is inadmissible everywhere.
/// * [`GapError::Infeasible`] — the flow cannot route the full supply.
pub fn solve_relaxation(inst: &GapInstance) -> Result<FractionalSolution, GapError> {
    let n = inst.items();
    let m = inst.bins();
    for i in 0..n {
        if !(0..m).any(|j| inst.is_allowed(i, j)) {
            return Err(GapError::ItemDoesNotFit { item: i });
        }
    }
    let mut fractions = Vec::new();
    let mut objective = 0.0;
    let mut item_duals = vec![0.0; n];

    // The items that become flow sources, with their regret.
    let mut regret = Vec::new();
    for (i, dual) in item_duals.iter_mut().enumerate() {
        let w = inst.weight(i);
        let bins = (0..m).filter(|&j| inst.is_allowed(i, j));
        if w <= 1e-12 {
            // Weightless item: integral assignment to its cheapest bin,
            // which is also its dual.
            let best = bins
                .min_by(|&a, &b| {
                    inst.cost(i, a)
                        .partial_cmp(&inst.cost(i, b))
                        .unwrap_or(std::cmp::Ordering::Equal)
                })
                .expect("checked above: every item has an admissible bin");
            fractions.push((i, best, 1.0));
            objective += inst.cost(i, best);
            *dual = inst.cost(i, best);
            continue;
        }
        let (lo, hi) = bins
            .map(|j| inst.cost(i, j))
            .fold((f64::INFINITY, f64::NEG_INFINITY), |(lo, hi), c| {
                (lo.min(c), hi.max(c))
            });
        regret.push(((hi - lo) / w, i));
    }
    // Highest regret first; the sort is stable, so ties keep index order.
    regret.sort_by(|a, b| b.0.total_cmp(&a.0));

    let mut net = Transportation::new((0..m).map(|j| inst.capacity(j)).collect());
    // The instance item behind every flow source, in source order, and the
    // item, bin and weight behind every arc, in arc order.
    let sources: Vec<usize> = regret.into_iter().map(|(_, i)| i).collect();
    let mut arc_pairs = Vec::new();
    let mut total_supply = 0.0;
    for &i in &sources {
        let w = inst.weight(i);
        let bins = (0..m).filter(|&j| inst.is_allowed(i, j));
        total_supply += w;
        arc_pairs.extend(bins.clone().map(|j| (i, j, w)));
        net.add_item(w, bins.map(|j| (j, inst.cost(i, j) / w)));
    }

    let mut capacity_prices = vec![0.0; m];
    if !sources.is_empty() {
        let res = net.solve();
        if res.routed + 1e-6 < total_supply {
            return Err(GapError::Infeasible);
        }
        objective += res.cost;
        for ((i, j, w), y) in arc_pairs.into_iter().zip(res.flow) {
            if y > 1e-9 {
                fractions.push((i, j, (y / w).min(1.0)));
            }
        }
        let pi = &res.potential;
        let sink = pi[sources.len() + m];
        for (k, &i) in sources.iter().enumerate() {
            item_duals[i] = inst.weight(i) * (sink - pi[k]);
        }
        for (j, p) in capacity_prices.iter_mut().enumerate() {
            *p = (sink - pi[sources.len() + j]).max(0.0);
        }
    }

    let sol = FractionalSolution {
        fractions,
        objective,
        item_duals,
        capacity_prices,
    };
    #[cfg(feature = "verify")]
    {
        let violations = crate::verify::check_relaxation(inst, &sol, 1e-6);
        assert!(
            violations.is_empty(),
            "GAP relaxation self-certification failed:\n{}",
            violations
                .iter()
                .map(|v| format!("  - {v}"))
                .collect::<Vec<_>>()
                .join("\n")
        );
    }
    Ok(sol)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::instance::{Assignment, FORBIDDEN};

    fn tight() -> GapInstance {
        // 2 items of weight 1, 2 bins of capacity 1; diagonal is cheap.
        let mut inst = GapInstance::new(2, 2);
        inst.set_cost(0, 0, 1.0).set_cost(0, 1, 3.0);
        inst.set_cost(1, 0, 2.0).set_cost(1, 1, 1.0);
        inst.set_uniform_weights(1.0);
        inst.set_capacity(0, 1.0);
        inst.set_capacity(1, 1.0);
        inst
    }

    #[test]
    fn matches_known_optimum() {
        let inst = tight();
        let sol = solve_relaxation(&inst).unwrap();
        assert!((sol.objective - 2.0).abs() < 1e-6);
        assert!(crate::verify::check_relaxation(&inst, &sol, 1e-9).is_empty());
    }

    #[test]
    fn infeasible_when_capacity_is_short() {
        // One bin with capacity 1, two items of weight 1.
        let mut inst = GapInstance::new(2, 1);
        inst.set_cost(0, 0, 1.0).set_cost(1, 0, 1.0);
        inst.set_uniform_weights(1.0);
        inst.set_capacity(0, 1.0);
        assert_eq!(solve_relaxation(&inst).unwrap_err(), GapError::Infeasible);
    }

    #[test]
    fn item_too_big_everywhere() {
        let mut inst = GapInstance::new(1, 2);
        inst.set_cost(0, 0, 1.0).set_cost(0, 1, 1.0);
        inst.set_uniform_weights(5.0);
        inst.set_capacity(0, 1.0);
        inst.set_capacity(1, 1.0);
        assert_eq!(
            solve_relaxation(&inst).unwrap_err(),
            GapError::ItemDoesNotFit { item: 0 }
        );
    }

    #[test]
    fn zero_weight_items_assigned_cheapest() {
        let mut inst = GapInstance::new(2, 2);
        inst.set_cost(0, 0, 5.0).set_cost(0, 1, 1.0);
        inst.set_cost(1, 0, 1.0).set_cost(1, 1, 5.0);
        inst.set_uniform_weights(0.0);
        inst.set_capacity(0, 0.0);
        inst.set_capacity(1, 0.0);
        let sol = solve_relaxation(&inst).unwrap();
        assert!((sol.objective - 2.0).abs() < 1e-9);
        assert_eq!(sol.item_duals, vec![1.0, 1.0]);
        assert_eq!(sol.capacity_prices, vec![0.0, 0.0]);
    }

    #[test]
    fn fits_whole_in_the_cheapest_bin() {
        // 1 item of weight 2; both bins hold it, bin 0 is cheaper.
        let mut inst = GapInstance::new(1, 2);
        inst.set_cost(0, 0, 2.0).set_cost(0, 1, 4.0);
        inst.set_uniform_weights(2.0);
        inst.set_capacity(0, 2.0);
        inst.set_capacity(1, 2.0);
        let sol = solve_relaxation(&inst).unwrap();
        assert!((sol.objective - 2.0).abs() < 1e-6);
    }

    #[test]
    fn respects_forbidden_pairs() {
        let mut inst = tight();
        inst.set_cost(0, 0, FORBIDDEN);
        let sol = solve_relaxation(&inst).unwrap();
        // Item 0 must go to bin 1, pushing item 1 to bin 0: cost 3 + 2.
        assert!((sol.objective - 5.0).abs() < 1e-6);
    }

    #[test]
    fn relaxation_lower_bounds_any_integral_assignment() {
        let inst = tight();
        let sol = solve_relaxation(&inst).unwrap();
        for assign in [vec![0, 1], vec![1, 0]] {
            let a = Assignment::new(assign);
            if a.is_capacity_feasible(&inst) {
                assert!(sol.objective <= a.total_cost(&inst) + 1e-6);
            }
        }
    }

    #[test]
    fn shadow_prices_zero_when_capacity_slack() {
        // Huge capacities: no bin constraint binds, every price is 0.
        let mut inst = tight();
        inst.set_capacity(0, 100.0);
        inst.set_capacity(1, 100.0);
        let prices = solve_relaxation(&inst).unwrap().capacity_prices;
        assert!(prices.iter().all(|p| *p < 1e-9), "{prices:?}");
    }

    #[test]
    fn shadow_prices_positive_when_capacity_binds() {
        // Bin 0 is cheap for both items but only fits one: its capacity is
        // worth exactly the detour cost the second item pays elsewhere.
        let mut inst = GapInstance::new(2, 2);
        inst.set_cost(0, 0, 1.0).set_cost(0, 1, 4.0);
        inst.set_cost(1, 0, 1.0).set_cost(1, 1, 4.0);
        inst.set_uniform_weights(1.0);
        inst.set_capacity(0, 1.0);
        inst.set_capacity(1, 2.0);
        let base = solve_relaxation(&inst).unwrap();
        let prices = &base.capacity_prices;
        assert!(prices[0] > 1.0, "bin 0 price {prices:?}");
        assert!(prices[1] < 1e-9, "bin 1 should be free, {prices:?}");
        // Marginal check: adding a unit of capacity to bin 0 reduces the
        // optimum by its shadow price.
        let mut relaxed = inst.clone();
        relaxed.set_capacity(0, 2.0);
        let better = solve_relaxation(&relaxed).unwrap().objective;
        assert!(
            (base.objective - better - prices[0]).abs() < 1e-6,
            "price {} vs realized saving {}",
            prices[0],
            base.objective - better
        );
    }

    #[test]
    fn duals_close_the_gap_on_a_split_item() {
        // Bin 0 holds one and a half items. Item 0 saves more there, so it
        // takes a whole slot and item 1 splits; bin 0's price is item 1's
        // saving per unit, 2, and the dual objective equals the primal.
        let mut inst = GapInstance::new(2, 2);
        inst.set_cost(0, 0, 2.0).set_cost(0, 1, 6.0);
        inst.set_cost(1, 0, 1.0).set_cost(1, 1, 3.0);
        inst.set_uniform_weights(1.0);
        inst.set_capacity(0, 1.5).set_capacity(1, 5.0);
        let sol = solve_relaxation(&inst).unwrap();
        assert!((sol.objective - 4.0).abs() < 1e-9, "{}", sol.objective);
        assert!((sol.capacity_prices[0] - 2.0).abs() < 1e-9);
        assert!(sol.capacity_prices[1].abs() < 1e-9);
        let dual = sol.item_duals.iter().sum::<f64>()
            - (0..2)
                .map(|j| inst.capacity(j) * sol.capacity_prices[j])
                .sum::<f64>();
        assert!((dual - sol.objective).abs() < 1e-9, "dual {dual}");
        assert!(crate::verify::check_relaxation(&inst, &sol, 1e-9).is_empty());
    }
}
