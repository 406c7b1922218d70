//! Greedy regret heuristic for GAP (ablation baseline for Shmoys–Tardos).
//!
//! Items are processed in decreasing *regret* order (cheapest vs
//! second-cheapest admissible bin); each item goes to its cheapest bin that
//! still has room. No quality guarantee — used by the `ablation_gap` bench
//! to quantify what the LP rounding buys.

use crate::instance::{Assignment, GapInstance};
use crate::lp_relax::GapError;

/// Solves `inst` greedily.
///
/// # Errors
///
/// Returns [`GapError::Infeasible`] when some item finds no bin with
/// remaining capacity (the greedy order may paint itself into a corner even
/// on feasible instances), and [`GapError::ItemDoesNotFit`] when an item is
/// inadmissible everywhere.
pub fn solve(inst: &GapInstance) -> Result<Assignment, GapError> {
    let n = inst.items();
    let m = inst.bins();

    for i in 0..n {
        if !(0..m).any(|j| inst.is_allowed(i, j)) {
            return Err(GapError::ItemDoesNotFit { item: i });
        }
    }

    // Regret = cost(second-best) - cost(best); large regret first.
    let mut order: Vec<usize> = (0..n).collect();
    let regret = |i: usize| -> f64 {
        let mut best = f64::INFINITY;
        let mut second = f64::INFINITY;
        for j in 0..m {
            let c = inst.cost(i, j);
            if c < best {
                second = best;
                best = c;
            } else if c < second {
                second = c;
            }
        }
        if second.is_finite() {
            second - best
        } else {
            f64::MAX
        }
    };
    order.sort_by(|&a, &b| {
        regret(b)
            .partial_cmp(&regret(a))
            .unwrap_or(std::cmp::Ordering::Equal)
            .then(a.cmp(&b))
    });

    let mut remaining: Vec<f64> = (0..m).map(|j| inst.capacity(j)).collect();
    let mut of = vec![usize::MAX; n];
    for &i in &order {
        let mut best: Option<usize> = None;
        #[allow(clippy::needless_range_loop)] // j is a bin id
        for j in 0..m {
            if inst.cost(i, j).is_finite()
                && inst.weight(i) <= remaining[j] + 1e-12
                && best.is_none_or(|b| inst.cost(i, j) < inst.cost(i, b))
            {
                best = Some(j);
            }
        }
        let Some(j) = best else {
            return Err(GapError::Infeasible);
        };
        of[i] = j;
        remaining[j] -= inst.weight(i);
    }
    Ok(Assignment::new(of))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn simple_instance() {
        let mut inst = GapInstance::new(2, 2);
        inst.set_cost(0, 0, 1.0).set_cost(0, 1, 5.0);
        inst.set_cost(1, 0, 5.0).set_cost(1, 1, 1.0);
        inst.set_uniform_weights(1.0);
        inst.set_capacity(0, 1.0);
        inst.set_capacity(1, 1.0);
        let a = solve(&inst).unwrap();
        assert_eq!(a.bin_of(0), 0);
        assert_eq!(a.bin_of(1), 1);
        assert!(a.is_capacity_feasible(&inst));
    }

    #[test]
    fn respects_capacity() {
        let mut inst = GapInstance::new(3, 2);
        for i in 0..3 {
            inst.set_cost(i, 0, 1.0).set_cost(i, 1, 2.0);
        }
        inst.set_uniform_weights(1.0);
        inst.set_capacity(0, 1.0);
        inst.set_capacity(1, 2.0);
        let a = solve(&inst).unwrap();
        assert!(a.is_capacity_feasible(&inst));
    }

    #[test]
    fn reports_infeasible() {
        let mut inst = GapInstance::new(2, 1);
        inst.set_cost(0, 0, 1.0).set_cost(1, 0, 1.0);
        inst.set_uniform_weights(1.0);
        inst.set_capacity(0, 1.0);
        assert_eq!(solve(&inst).unwrap_err(), GapError::Infeasible);
    }

    #[test]
    fn item_does_not_fit() {
        let mut inst = GapInstance::new(1, 1);
        inst.set_cost(0, 0, 1.0);
        inst.set_uniform_weights(2.0);
        inst.set_capacity(0, 1.0);
        assert_eq!(
            solve(&inst).unwrap_err(),
            GapError::ItemDoesNotFit { item: 0 }
        );
    }

    #[test]
    fn high_regret_items_first() {
        // Item 1 has huge regret; it must claim the shared cheap bin.
        let mut inst = GapInstance::new(2, 2);
        inst.set_cost(0, 0, 1.0).set_cost(0, 1, 2.0);
        inst.set_cost(1, 0, 1.0).set_cost(1, 1, 100.0);
        inst.set_uniform_weights(1.0);
        inst.set_capacity(0, 1.0);
        inst.set_capacity(1, 1.0);
        let a = solve(&inst).unwrap();
        assert_eq!(a.bin_of(1), 0);
        assert_eq!(a.bin_of(0), 1);
    }
}
