//! Exact branch-and-bound GAP solver for small instances.
//!
//! Used by tests and the PoA study to certify optima against which the
//! Shmoys–Tardos solution and game equilibria are compared. Exponential in
//! the number of items; intended for `items ≤ ~14`.

use crate::instance::{Assignment, GapInstance};
use crate::lp_relax::GapError;

/// Maximum item count accepted by [`solve`] (guards accidental blowups).
pub const MAX_ITEMS: usize = 16;

/// Finds a minimum-cost capacity-feasible assignment by branch and bound.
///
/// # Errors
///
/// * [`GapError::Infeasible`] — no feasible assignment exists.
/// * [`GapError::ItemDoesNotFit`] — some item is inadmissible everywhere.
///
/// # Panics
///
/// Panics if `inst.items() > MAX_ITEMS`.
pub fn solve(inst: &GapInstance) -> Result<Assignment, GapError> {
    let n = inst.items();
    let m = inst.bins();
    assert!(
        n <= MAX_ITEMS,
        "exact solver limited to {MAX_ITEMS} items, got {n}"
    );

    for i in 0..n {
        if !(0..m).any(|j| inst.is_allowed(i, j)) {
            return Err(GapError::ItemDoesNotFit { item: i });
        }
    }

    // Per-item cheapest admissible cost for the lower bound.
    let min_cost: Vec<f64> = (0..n)
        .map(|i| {
            (0..m)
                .map(|j| inst.cost(i, j))
                .fold(f64::INFINITY, f64::min)
        })
        .collect();
    // Suffix sums of min_cost.
    let mut suffix = vec![0.0; n + 1];
    for i in (0..n).rev() {
        suffix[i] = suffix[i + 1] + min_cost[i];
    }

    struct Search<'a> {
        inst: &'a GapInstance,
        suffix: Vec<f64>,
        best_cost: f64,
        best: Option<Vec<usize>>,
        current: Vec<usize>,
        remaining: Vec<f64>,
    }

    impl Search<'_> {
        fn dfs(&mut self, item: usize, cost_so_far: f64) {
            let n = self.inst.items();
            if cost_so_far + self.suffix[item] >= self.best_cost - 1e-12 {
                return;
            }
            if item == n {
                self.best_cost = cost_so_far;
                self.best = Some(self.current.clone());
                return;
            }
            // Try bins in increasing cost order for better pruning.
            let m = self.inst.bins();
            let mut bins: Vec<usize> = (0..m)
                .filter(|&j| self.inst.cost(item, j).is_finite())
                .collect();
            bins.sort_by(|&a, &b| {
                self.inst
                    .cost(item, a)
                    .partial_cmp(&self.inst.cost(item, b))
                    .unwrap_or(std::cmp::Ordering::Equal)
            });
            for j in bins {
                let w = self.inst.weight(item);
                if w <= self.remaining[j] + 1e-12 {
                    self.remaining[j] -= w;
                    self.current[item] = j;
                    self.dfs(item + 1, cost_so_far + self.inst.cost(item, j));
                    self.remaining[j] += w;
                }
            }
        }
    }

    let mut s = Search {
        inst,
        suffix,
        best_cost: f64::INFINITY,
        best: None,
        current: vec![0; n],
        remaining: (0..m).map(|j| inst.capacity(j)).collect(),
    };
    s.dfs(0, 0.0);
    s.best.map(Assignment::new).ok_or(GapError::Infeasible)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn finds_optimum() {
        let mut inst = GapInstance::new(3, 2);
        inst.set_cost(0, 0, 1.0).set_cost(0, 1, 4.0);
        inst.set_cost(1, 0, 2.0).set_cost(1, 1, 1.0);
        inst.set_cost(2, 0, 3.0).set_cost(2, 1, 2.0);
        inst.set_uniform_weights(1.0);
        inst.set_capacity(0, 2.0);
        inst.set_capacity(1, 2.0);
        let a = solve(&inst).unwrap();
        assert!((a.total_cost(&inst) - 4.0).abs() < 1e-9); // 1 + 1 + 2
        assert!(a.is_capacity_feasible(&inst));
    }

    #[test]
    fn capacity_forces_expensive_choice() {
        let mut inst = GapInstance::new(2, 2);
        inst.set_cost(0, 0, 1.0).set_cost(0, 1, 10.0);
        inst.set_cost(1, 0, 1.0).set_cost(1, 1, 10.0);
        inst.set_uniform_weights(1.0);
        inst.set_capacity(0, 1.0);
        inst.set_capacity(1, 1.0);
        let a = solve(&inst).unwrap();
        assert!((a.total_cost(&inst) - 11.0).abs() < 1e-9);
    }

    #[test]
    fn infeasible_reported() {
        let mut inst = GapInstance::new(2, 1);
        inst.set_cost(0, 0, 1.0).set_cost(1, 0, 1.0);
        inst.set_uniform_weights(1.0);
        inst.set_capacity(0, 1.0);
        assert_eq!(solve(&inst).unwrap_err(), GapError::Infeasible);
    }

    #[test]
    #[should_panic(expected = "limited to")]
    fn rejects_large_instances() {
        let inst = GapInstance::new(MAX_ITEMS + 1, 2);
        let _ = solve(&inst);
    }

    #[test]
    fn matches_brute_force_small() {
        // 4 items, 3 bins, random-ish fixed costs; brute force 3^4 = 81.
        let mut inst = GapInstance::new(4, 3);
        let costs = [
            [3.0, 1.0, 4.0],
            [1.0, 5.0, 9.0],
            [2.0, 6.0, 5.0],
            [3.0, 5.0, 8.0],
        ];
        for (i, row) in costs.iter().enumerate() {
            for (j, &c) in row.iter().enumerate() {
                inst.set_cost(i, j, c);
            }
            inst.set_item_weight(i, 1.0);
        }
        for j in 0..3 {
            inst.set_capacity(j, 2.0);
        }
        let a = solve(&inst).unwrap();

        let mut best = f64::INFINITY;
        for mask in 0..81usize {
            let mut x = mask;
            let mut of = Vec::new();
            for _ in 0..4 {
                of.push(x % 3);
                x /= 3;
            }
            let cand = Assignment::new(of);
            if cand.is_capacity_feasible(&inst) {
                best = best.min(cand.total_cost(&inst));
            }
        }
        assert!((a.total_cost(&inst) - best).abs() < 1e-9);
    }
}
