//! Validity checking for GAP assignments.
//!
//! [`check_assignment`] certifies the Shmoys–Tardos guarantee from first
//! principles: every item is assigned to an in-range bin that is
//! admissible for it ([`GapInstance::is_allowed`]: finite cost, and the
//! item fits the bin on its own), and no bin's load exceeds its
//! *augmented* capacity `CAP_j + max_i w_ij` over the items admissible
//! there — the rounding's Lemma-2 bound. It reads only the raw instance
//! data, sharing no code with the rounding itself.
//!
//! With the `verify` cargo feature enabled,
//! [`crate::shmoys_tardos::solve`] certifies its own output before
//! returning and panics with a full report on any violation.

use crate::instance::{Assignment, GapInstance};
use crate::shmoys_tardos::augmented_capacity;
use mec_num::approx_le;

/// A single broken invariant found in a GAP [`Assignment`].
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
        loads[bin] += inst.weight(item, bin);
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
    }
}
