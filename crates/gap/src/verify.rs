//! Certificates for GAP relaxations and assignments.
//!
//! Both checkers read only the raw instance data and share no code with
//! the solver whose output they certify.
//!
//! * [`check_relaxation`] certifies that a [`FractionalSolution`] is an
//!   optimal solution of the LP relaxation: the fractions cover every item
//!   on admissible pairs and respect every capacity; the item duals `u_i`
//!   and capacity prices `p_j ≥ 0` are dual-feasible,
//!   `c_ij − u_i + w_i·p_j ≥ 0` on every admissible pair; and the primal
//!   objective `Σ c_ij x_ij`, the reported objective and the dual
//!   objective `Σ u_i − Σ CAP_j p_j` agree. By weak duality that last
//!   check proves optimality.
//! * [`check_assignment`] certifies the Shmoys–Tardos guarantee: every
//!   item is assigned to an in-range bin that is admissible for it
//!   ([`GapInstance::is_allowed`]: finite cost, and the item fits the bin
//!   on its own), and no bin's load exceeds its *augmented* capacity
//!   `CAP_j + max_i w_i` over the items admissible there — the rounding's
//!   Lemma-2 bound.
//!
//! With the `verify` cargo feature enabled,
//! [`crate::lp_relax::solve_relaxation`] and
//! [`crate::shmoys_tardos::solve`] certify their own output before
//! returning and panic with a full report on any violation.

use crate::instance::{Assignment, GapInstance};
use crate::lp_relax::FractionalSolution;
use crate::shmoys_tardos::augmented_capacity;
use mec_num::{approx_eq, approx_ge, approx_le};

/// A single broken invariant found in a GAP [`Assignment`] or relaxation.
#[derive(Debug, Clone, PartialEq)]
pub enum GapViolation {
    /// An item points at a bin index `>= inst.bins()`.
    BinOutOfRange {
        /// The item.
        item: usize,
        /// The out-of-range bin index.
        bin: usize,
    },
    /// An item was assigned to a bin that is inadmissible for it: the
    /// pair's cost is forbidden or the item alone exceeds the bin's
    /// capacity ([`GapInstance::is_allowed`]).
    ForbiddenAssignment {
        /// The item.
        item: usize,
        /// The inadmissible bin.
        bin: usize,
    },
    /// A bin's load exceeds its augmented capacity.
    BinOverloaded {
        /// The bin.
        bin: usize,
        /// Load the assignment puts on it.
        load: f64,
        /// `CAP_j + max_i w_ij`, the Shmoys–Tardos bound.
        augmented_capacity: f64,
    },
    /// The assignment covers a different number of items than the instance.
    ItemCountMismatch {
        /// Items in the assignment.
        assigned: usize,
        /// Items in the instance.
        expected: usize,
    },
    /// A relaxation's fractions for an item do not sum to 1.
    ItemNotCovered {
        /// The item.
        item: usize,
        /// `Σ_j x_ij` over its fractions.
        total: f64,
    },
    /// A relaxation puts a fraction on an out-of-range or inadmissible
    /// pair, or a negative fraction anywhere.
    InadmissibleFraction {
        /// The item.
        item: usize,
        /// The bin.
        bin: usize,
        /// The fraction.
        frac: f64,
    },
    /// A relaxation's fractional load exceeds a bin's capacity.
    CapacityExceeded {
        /// The bin.
        bin: usize,
        /// `Σ_i w_i x_ij`.
        load: f64,
        /// `CAP_j`.
        capacity: f64,
    },
    /// A capacity price is negative (or not a number).
    NegativePrice {
        /// The bin.
        bin: usize,
        /// Its price `p_j`.
        price: f64,
    },
    /// The duals violate an admissible pair's dual constraint:
    /// `c_ij − u_i + w_i·p_j < 0`.
    NegativeReducedCost {
        /// The item.
        item: usize,
        /// The bin.
        bin: usize,
        /// `c_ij − u_i + w_i·p_j`.
        reduced_cost: f64,
    },
    /// The reported relaxation objective is not `Σ c_ij x_ij`.
    ObjectiveMismatch {
        /// Objective the solver reported.
        reported: f64,
        /// `Σ c_ij x_ij` recomputed from the fractions.
        recomputed: f64,
    },
    /// The primal objective `Σ c_ij x_ij` and the dual objective
    /// `Σ u_i − Σ CAP_j p_j` differ: the pair is not optimal.
    DualityGap {
        /// Primal objective.
        primal: f64,
        /// Dual objective.
        dual: f64,
    },
}

impl std::fmt::Display for GapViolation {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            GapViolation::BinOutOfRange { item, bin } => {
                write!(f, "item {item} assigned to out-of-range bin {bin}")
            }
            GapViolation::ForbiddenAssignment { item, bin } => {
                write!(f, "item {item} assigned to inadmissible bin {bin}")
            }
            GapViolation::BinOverloaded {
                bin,
                load,
                augmented_capacity,
            } => write!(
                f,
                "bin {bin} load {load} exceeds augmented capacity {augmented_capacity}"
            ),
            GapViolation::ItemCountMismatch { assigned, expected } => {
                write!(
                    f,
                    "assignment covers {assigned} items, instance has {expected}"
                )
            }
            GapViolation::ItemNotCovered { item, total } => {
                write!(f, "item {item} fractions sum to {total}, not 1")
            }
            GapViolation::InadmissibleFraction { item, bin, frac } => {
                write!(
                    f,
                    "fraction {frac} of item {item} on inadmissible bin {bin}"
                )
            }
            GapViolation::CapacityExceeded {
                bin,
                load,
                capacity,
            } => write!(
                f,
                "bin {bin} fractional load {load} exceeds capacity {capacity}"
            ),
            GapViolation::NegativePrice { bin, price } => {
                write!(f, "bin {bin} capacity price {price} is negative")
            }
            GapViolation::NegativeReducedCost {
                item,
                bin,
                reduced_cost,
            } => write!(
                f,
                "item {item} in bin {bin} has reduced cost {reduced_cost} < 0"
            ),
            GapViolation::ObjectiveMismatch {
                reported,
                recomputed,
            } => write!(
                f,
                "reported relaxation objective {reported} != recomputed {recomputed}"
            ),
            GapViolation::DualityGap { primal, dual } => {
                write!(f, "primal objective {primal} != dual objective {dual}")
            }
        }
    }
}

/// Certifies `assignment` against `inst`; returns every violation found
/// (empty = valid under the Shmoys–Tardos augmented-capacity guarantee).
///
/// `tol` is the absolute slack allowed on each bin's augmented capacity.
pub fn check_assignment(
    inst: &GapInstance,
    assignment: &Assignment,
    tol: f64,
) -> Vec<GapViolation> {
    let mut out = Vec::new();
    if assignment.len() != inst.items() {
        out.push(GapViolation::ItemCountMismatch {
            assigned: assignment.len(),
            expected: inst.items(),
        });
        return out; // Loads below would index out of bounds.
    }

    let mut loads = vec![0.0; inst.bins()];
    for (item, bin) in assignment.iter() {
        if bin >= inst.bins() {
            out.push(GapViolation::BinOutOfRange { item, bin });
            continue;
        }
        if !inst.is_allowed(item, bin) {
            out.push(GapViolation::ForbiddenAssignment { item, bin });
        }
        loads[bin] += inst.weight(item);
    }

    for (bin, &load) in loads.iter().enumerate() {
        let cap = augmented_capacity(inst, bin);
        if !approx_le(load, cap, tol) {
            out.push(GapViolation::BinOverloaded {
                bin,
                load,
                augmented_capacity: cap,
            });
        }
    }
    out
}

/// Certifies that `frac` with its duals is an optimal solution of the
/// relaxation of `inst` (see the module docs); returns every violation
/// found (empty = certified).
///
/// `tol` is the absolute tolerance on each item's coverage; capacities,
/// reduced costs and objectives scale it by the magnitudes involved, so
/// large instances are not flagged for benign round-off.
///
/// # Panics
///
/// Panics if the dual vectors do not have one entry per item and per bin
/// (a caller bug, not a numerical violation).
pub fn check_relaxation(
    inst: &GapInstance,
    frac: &FractionalSolution,
    tol: f64,
) -> Vec<GapViolation> {
    let (n, m) = (inst.items(), inst.bins());
    assert_eq!(frac.item_duals.len(), n, "one dual per item");
    assert_eq!(frac.capacity_prices.len(), m, "one price per bin");
    let mut out = Vec::new();

    let mut covered = vec![0.0; n];
    let mut loads = vec![0.0; m];
    let mut primal = 0.0;
    for &(item, bin, x) in &frac.fractions {
        if item >= n || bin >= m || !inst.is_allowed(item, bin) || !approx_ge(x, 0.0, 0.0) {
            out.push(GapViolation::InadmissibleFraction { item, bin, frac: x });
            continue;
        }
        covered[item] += x;
        loads[bin] += inst.weight(item) * x;
        primal += inst.cost(item, bin) * x;
    }
    for (item, &total) in covered.iter().enumerate() {
        if !approx_eq(total, 1.0, tol) {
            out.push(GapViolation::ItemNotCovered { item, total });
        }
    }
    for (bin, &load) in loads.iter().enumerate() {
        let capacity = inst.capacity(bin);
        if !approx_le(load, capacity, tol * (1.0 + capacity)) {
            out.push(GapViolation::CapacityExceeded {
                bin,
                load,
                capacity,
            });
        }
    }

    for (bin, &price) in frac.capacity_prices.iter().enumerate() {
        if !approx_ge(price, 0.0, 0.0) {
            out.push(GapViolation::NegativePrice { bin, price });
        }
    }
    for (item, &u) in frac.item_duals.iter().enumerate() {
        for (bin, &p) in frac.capacity_prices.iter().enumerate() {
            if !inst.is_allowed(item, bin) {
                continue;
            }
            let c = inst.cost(item, bin);
            let reduced_cost = c - u + inst.weight(item) * p;
            if !approx_ge(reduced_cost, 0.0, tol * (1.0 + c.abs() + u.abs())) {
                out.push(GapViolation::NegativeReducedCost {
                    item,
                    bin,
                    reduced_cost,
                });
            }
        }
    }

    let scale = 1.0 + primal.abs();
    if !approx_eq(frac.objective, primal, tol * scale) {
        out.push(GapViolation::ObjectiveMismatch {
            reported: frac.objective,
            recomputed: primal,
        });
    }
    let dual = frac.item_duals.iter().sum::<f64>()
        - frac
            .capacity_prices
            .iter()
            .enumerate()
            .map(|(bin, p)| inst.capacity(bin) * p)
            .sum::<f64>();
    if !approx_eq(primal, dual, tol * (scale + dual.abs())) {
        out.push(GapViolation::DualityGap { primal, dual });
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::instance::FORBIDDEN;
    use mec_num::assert_approx_eq;

    fn inst() -> GapInstance {
        let mut inst = GapInstance::new(3, 2);
        inst.set_cost(0, 0, 1.0).set_cost(0, 1, 2.0);
        inst.set_cost(1, 0, 2.0).set_cost(1, 1, 1.0);
        inst.set_cost(2, 0, 3.0).set_cost(2, 1, FORBIDDEN);
        inst.set_uniform_weights(1.0);
        inst.set_capacity(0, 2.0);
        inst.set_capacity(1, 1.0);
        inst
    }

    #[test]
    fn valid_assignment_is_clean() {
        let i = inst();
        let a = Assignment::new(vec![0, 1, 0]);
        assert_eq!(check_assignment(&i, &a, 1e-9), vec![]);
    }

    #[test]
    fn flags_forbidden_pair() {
        let i = inst();
        let a = Assignment::new(vec![0, 1, 1]);
        let v = check_assignment(&i, &a, 1e-9);
        assert!(v
            .iter()
            .any(|v| matches!(v, GapViolation::ForbiddenAssignment { item: 2, bin: 1 })));
    }

    #[test]
    fn flags_overload_beyond_augmentation() {
        // Bin 1: capacity 1, max allowed weight 1 -> augmented cap 2.
        // Three unit items overflow even the augmented bound.
        let mut i = inst();
        i.set_cost(2, 1, 5.0); // make it allowed so overload is the only issue
        let a = Assignment::new(vec![1, 1, 1]);
        let v = check_assignment(&i, &a, 1e-9);
        assert!(v
            .iter()
            .any(|v| matches!(v, GapViolation::BinOverloaded { bin: 1, .. })));
    }

    #[test]
    fn allows_overflow_within_augmentation() {
        // Two unit items in bin 1 (cap 1, augmented 2): exactly the
        // Shmoys–Tardos worst case, which must certify as valid.
        let mut i = inst();
        i.set_cost(2, 1, 5.0);
        let a = Assignment::new(vec![0, 1, 1]);
        assert_eq!(check_assignment(&i, &a, 1e-9), vec![]);
    }

    #[test]
    fn oversized_item_neither_admissible_nor_augments_capacity() {
        // Bin 1 (capacity 1) holds a 0.5 item and a 5.0 item whose cost
        // there is finite. The big item does not fit the bin on its own,
        // so the pair is inadmissible, and the Shmoys–Tardos bound stays
        // 1 + 0.5 rather than 1 + 5.
        let mut i = GapInstance::new(2, 2);
        i.set_cost(0, 0, 1.0).set_cost(0, 1, 1.0);
        i.set_cost(1, 0, 1.0).set_cost(1, 1, 1.0);
        i.set_item_weight(0, 0.5).set_item_weight(1, 5.0);
        i.set_capacity(0, 10.0).set_capacity(1, 1.0);
        assert_approx_eq!(augmented_capacity(&i, 1), 1.5, 1e-12);
        let v = check_assignment(&i, &Assignment::new(vec![1, 1]), 1e-9);
        assert!(v
            .iter()
            .any(|v| matches!(v, GapViolation::ForbiddenAssignment { item: 1, bin: 1 })));
        assert!(v
            .iter()
            .any(|v| matches!(v, GapViolation::BinOverloaded { bin: 1, .. })));
    }

    #[test]
    fn flags_out_of_range_bin_and_count_mismatch() {
        let i = inst();
        let a = Assignment::new(vec![0, 1, 7]);
        let v = check_assignment(&i, &a, 1e-9);
        assert!(v
            .iter()
            .any(|v| matches!(v, GapViolation::BinOutOfRange { item: 2, bin: 7 })));
        let short = Assignment::new(vec![0]);
        let v = check_assignment(&i, &short, 1e-9);
        assert_eq!(
            v,
            vec![GapViolation::ItemCountMismatch {
                assigned: 1,
                expected: 3
            }]
        );
    }

    #[test]
    fn violations_render() {
        let i = inst();
        let a = Assignment::new(vec![0, 1, 1]);
        for v in check_assignment(&i, &a, 1e-9) {
            assert!(!v.to_string().is_empty());
        }
        let (i, sol) = priced();
        let mut bad = sol.clone();
        bad.capacity_prices[0] = -bad.capacity_prices[0];
        bad.fractions.push((1, 0, -0.5));
        for v in check_relaxation(&i, &bad, 1e-9) {
            assert!(!v.to_string().is_empty());
        }
    }

    /// Bin 0 holds one and a half unit items and both want it; the
    /// optimum puts item 0 there whole and splits item 1, so bin 0 is
    /// priced at item 1's saving per unit, 2.
    fn priced() -> (GapInstance, FractionalSolution) {
        let mut i = GapInstance::new(2, 2);
        i.set_cost(0, 0, 2.0).set_cost(0, 1, 6.0);
        i.set_cost(1, 0, 1.0).set_cost(1, 1, 3.0);
        i.set_uniform_weights(1.0);
        i.set_capacity(0, 1.5).set_capacity(1, 5.0);
        let sol = crate::lp_relax::solve_relaxation(&i).unwrap();
        assert_approx_eq!(sol.capacity_prices[0], 2.0, 1e-12);
        (i, sol)
    }

    #[test]
    fn optimal_relaxation_is_clean() {
        let (i, sol) = priced();
        assert_eq!(check_relaxation(&i, &sol, 1e-9), vec![]);
    }

    #[test]
    fn flags_flipped_capacity_price() {
        let (i, mut sol) = priced();
        sol.capacity_prices[0] = -sol.capacity_prices[0];
        let v = check_relaxation(&i, &sol, 1e-9);
        assert!(v
            .iter()
            .any(|v| matches!(v, GapViolation::NegativePrice { bin: 0, .. })));
        assert!(v
            .iter()
            .any(|v| matches!(v, GapViolation::NegativeReducedCost { bin: 0, .. })));
    }

    #[test]
    fn flags_primal_over_capacity() {
        // Item 1 moved whole into bin 0: load 2 against capacity 1.5.
        let (i, mut sol) = priced();
        sol.fractions.retain(|&(item, _, _)| item != 1);
        sol.fractions.push((1, 0, 1.0));
        let v = check_relaxation(&i, &sol, 1e-9);
        assert!(v
            .iter()
            .any(|v| matches!(v, GapViolation::CapacityExceeded { bin: 0, .. })));
    }

    #[test]
    fn flags_perturbed_objective_and_duals() {
        let (i, sol) = priced();
        let mut bad = sol.clone();
        bad.objective += 1e-3;
        assert_eq!(
            check_relaxation(&i, &bad, 1e-9),
            vec![GapViolation::ObjectiveMismatch {
                reported: sol.objective + 1e-3,
                recomputed: sol.objective,
            }]
        );
        // A lower item dual stays feasible but no longer proves optimality.
        let mut weak = sol.clone();
        weak.item_duals[0] -= 1e-3;
        let v = check_relaxation(&i, &weak, 1e-9);
        assert!(
            matches!(v.as_slice(), [GapViolation::DualityGap { .. }]),
            "{v:?}"
        );
    }

    #[test]
    fn flags_uncovered_item_and_inadmissible_fraction() {
        let (mut i, mut sol) = priced();
        i.set_cost(0, 1, FORBIDDEN);
        sol.fractions.push((0, 1, 0.25));
        sol.fractions.push((7, 0, 1.0));
        let v = check_relaxation(&i, &sol, 1e-9);
        assert!(v.iter().any(|v| matches!(
            v,
            GapViolation::InadmissibleFraction {
                item: 0,
                bin: 1,
                ..
            }
        )));
        assert!(v.iter().any(|v| matches!(
            v,
            GapViolation::InadmissibleFraction {
                item: 7,
                bin: 0,
                ..
            }
        )));
        sol.fractions.retain(|&(item, _, _)| item != 1);
        let v = check_relaxation(&i, &sol, 1e-9);
        assert!(v
            .iter()
            .any(|v| matches!(v, GapViolation::ItemNotCovered { item: 1, .. })));
    }
}
