//! 2-opt local improvement for GAP assignments.
//!
//! Post-processes any feasible assignment with single-item *shifts* and
//! pairwise *swaps* while respecting capacities. Used as an ablation on the
//! Shmoys–Tardos output and to strengthen the greedy heuristic.

use crate::instance::{Assignment, GapInstance};

/// Result of [`improve`].
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SwapResult {
    /// Cost before improvement.
    pub before: f64,
    /// Cost after improvement.
    pub after: f64,
    /// Shifts applied (item moved to another bin).
    pub shifts: usize,
    /// Swaps applied (two items exchanged bins).
    pub swaps: usize,
}

/// Improves `assignment` in place with best-improvement shifts and swaps
/// until a local optimum or `max_moves` moves.
///
/// Only capacity-feasible moves are considered; if the input is feasible,
/// the output is too.
///
/// # Panics
///
/// Panics if the assignment does not match the instance dimensions.
pub fn improve(inst: &GapInstance, assignment: &mut Assignment, max_moves: usize) -> SwapResult {
    assert_eq!(
        assignment.len(),
        inst.items(),
        "assignment/instance mismatch"
    );
    let before = assignment.total_cost(inst);
    let mut shifts = 0;
    let mut swaps = 0;

    let mut loads = assignment.loads(inst);
    let mut of: Vec<usize> = (0..inst.items()).map(|i| assignment.bin_of(i)).collect();

    for _ in 0..max_moves {
        let mut best_delta = -1e-9;
        // (kind, i, j-or-item2, target-bin-for-shift)
        let mut best_move: Option<(bool, usize, usize)> = None;

        // Shifts: move item i to bin j.
        #[allow(clippy::needless_range_loop)] // i, j are item/bin ids
        for i in 0..inst.items() {
            let from = of[i];
            for j in 0..inst.bins() {
                if j == from || !inst.cost(i, j).is_finite() {
                    continue;
                }
                if loads[j] + inst.weight(i) > inst.capacity(j) + 1e-12 {
                    continue;
                }
                let delta = inst.cost(i, j) - inst.cost(i, from);
                if delta < best_delta {
                    best_delta = delta;
                    best_move = Some((false, i, j));
                }
            }
        }
        // Swaps: exchange the bins of items a and b.
        for a in 0..inst.items() {
            for b in (a + 1)..inst.items() {
                let (ba, bb) = (of[a], of[b]);
                if ba == bb {
                    continue;
                }
                if !inst.cost(a, bb).is_finite() || !inst.cost(b, ba).is_finite() {
                    continue;
                }
                let la = loads[ba] - inst.weight(a) + inst.weight(b);
                let lb = loads[bb] - inst.weight(b) + inst.weight(a);
                if la > inst.capacity(ba) + 1e-12 || lb > inst.capacity(bb) + 1e-12 {
                    continue;
                }
                let delta =
                    inst.cost(a, bb) + inst.cost(b, ba) - inst.cost(a, ba) - inst.cost(b, bb);
                if delta < best_delta {
                    best_delta = delta;
                    best_move = Some((true, a, b));
                }
            }
        }

        match best_move {
            Some((false, i, j)) => {
                let from = of[i];
                loads[from] -= inst.weight(i);
                loads[j] += inst.weight(i);
                of[i] = j;
                shifts += 1;
            }
            Some((true, a, b)) => {
                let (ba, bb) = (of[a], of[b]);
                loads[ba] = loads[ba] - inst.weight(a) + inst.weight(b);
                loads[bb] = loads[bb] - inst.weight(b) + inst.weight(a);
                of.swap(a, b);
                swaps += 1;
            }
            None => break,
        }
    }

    *assignment = Assignment::new(of);
    SwapResult {
        before,
        after: assignment.total_cost(inst),
        shifts,
        swaps,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn crossed() -> (GapInstance, Assignment) {
        // Two items assigned "crossed" — swapping them is strictly better.
        let mut inst = GapInstance::new(2, 2);
        inst.set_cost(0, 0, 1.0).set_cost(0, 1, 5.0);
        inst.set_cost(1, 0, 5.0).set_cost(1, 1, 1.0);
        inst.set_uniform_weights(1.0);
        inst.set_capacity(0, 1.0);
        inst.set_capacity(1, 1.0);
        (inst, Assignment::new(vec![1, 0]))
    }

    #[test]
    fn swap_fixes_crossed_assignment() {
        let (inst, mut a) = crossed();
        let res = improve(&inst, &mut a, 100);
        assert_eq!(res.swaps, 1);
        assert!((res.after - 2.0).abs() < 1e-9);
        assert!(res.after < res.before);
        assert!(a.is_capacity_feasible(&inst));
    }

    #[test]
    fn shift_moves_to_cheaper_open_bin() {
        let mut inst = GapInstance::new(1, 2);
        inst.set_cost(0, 0, 9.0).set_cost(0, 1, 1.0);
        inst.set_uniform_weights(1.0);
        inst.set_capacity(0, 1.0);
        inst.set_capacity(1, 1.0);
        let mut a = Assignment::new(vec![0]);
        let res = improve(&inst, &mut a, 100);
        assert_eq!(res.shifts, 1);
        assert_eq!(a.bin_of(0), 1);
    }

    #[test]
    fn respects_capacity() {
        // Cheaper bin is full: no move possible.
        let mut inst = GapInstance::new(2, 2);
        inst.set_cost(0, 0, 1.0).set_cost(0, 1, 9.0);
        inst.set_cost(1, 0, 1.0).set_cost(1, 1, 9.0);
        inst.set_uniform_weights(1.0);
        inst.set_capacity(0, 1.0);
        inst.set_capacity(1, 1.0);
        let mut a = Assignment::new(vec![0, 1]);
        let res = improve(&inst, &mut a, 100);
        assert_eq!(res.shifts + res.swaps, 0);
        assert_eq!(res.before, res.after);
    }

    #[test]
    fn never_worsens() {
        // Random-ish instance: improvement is monotone.
        let mut inst = GapInstance::new(5, 3);
        let costs = [
            [3.0, 1.0, 4.0],
            [1.0, 5.0, 9.0],
            [2.0, 6.0, 5.0],
            [3.0, 5.0, 8.0],
            [9.0, 7.0, 9.0],
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
        let mut a = Assignment::new(vec![0, 0, 1, 1, 2]);
        let res = improve(&inst, &mut a, 100);
        assert!(res.after <= res.before + 1e-12);
        assert!(a.is_capacity_feasible(&inst));
    }

    #[test]
    fn move_budget_respected() {
        let (inst, mut a) = crossed();
        let res = improve(&inst, &mut a, 0);
        assert_eq!(res.shifts + res.swaps, 0);
        assert_eq!(res.before, res.after);
    }
}
