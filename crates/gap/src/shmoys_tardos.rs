//! Shmoys–Tardos rounding for the Generalized Assignment Problem.
//!
//! Given an optimal fractional solution of the GAP relaxation, the rounding
//! of Shmoys & Tardos (Math. Programming 62, 1993) produces an integral
//! assignment whose cost is **no more than the LP optimum** and whose bin
//! loads exceed capacity by **at most the largest item weight in that bin**
//! (the "2-approximation with capacity augmentation" guarantee the paper's
//! Lemma 2 builds on).
//!
//! Procedure:
//! 1. For each bin `j`, sort its fractionally assigned items by
//!    non-increasing weight and pour their fractions into unit-size *slots*
//!    (`⌈Σ_i x_ij⌉` of them). An item's fraction may straddle two
//!    consecutive slots.
//! 2. The items and slots form a bipartite graph in which the fractional
//!    solution is a fractional perfect matching on the item side; a
//!    minimum-cost integral matching therefore exists and costs no more.
//!    We extract it as a unit-supply, unit-capacity transportation
//!    problem ([`crate::flow`]).

use crate::flow::Transportation;
use crate::instance::{Assignment, GapInstance};
use crate::lp_relax::{solve_relaxation, FractionalSolution, GapError};

/// Result of [`solve`]: the rounded assignment plus the LP lower bound used
/// to certify its quality.
#[derive(Debug, Clone)]
pub struct StSolution {
    /// The integral assignment (cost ≤ `lp_objective`).
    pub assignment: Assignment,
    /// Optimal value of the LP relaxation (lower bound on integral OPT).
    pub lp_objective: f64,
    /// Cost of `assignment` on the instance.
    pub assignment_cost: f64,
}

#[derive(Debug)]
struct SlotEdge {
    item: usize,
    bin: usize,
}

/// Step 1 of the rounding for a single bin: sort its fractional entries by
/// non-increasing weight (ties by item id for determinism) and pour them
/// into `⌈Σ_i x_ij⌉` unit slots, recording each (item, slot) edge once.
fn bin_slots(inst: &GapInstance, j: usize, mut entries: Vec<(usize, f64)>) -> Vec<Vec<SlotEdge>> {
    entries.sort_by(|a, b| {
        inst.weight(b.0)
            .partial_cmp(&inst.weight(a.0))
            .unwrap_or(std::cmp::Ordering::Equal)
            .then(a.0.cmp(&b.0))
    });
    let total: f64 = entries.iter().map(|(_, f)| f).sum();
    let slots = (total - 1e-9).ceil().max(1.0) as usize;
    let mut out: Vec<Vec<SlotEdge>> = (0..slots).map(|_| Vec::new()).collect();
    let mut current = 0usize;
    let mut filled = 0.0f64; // mass in the current slot
    for (item, mut f) in entries {
        while f > 1e-12 {
            if filled >= 1.0 - 1e-12 {
                current += 1;
                filled = 0.0;
            }
            debug_assert!(current < out.len(), "slot overflow in bin {j}");
            let take = f.min(1.0 - filled);
            // Record the edge once per (item, slot).
            if out[current]
                .last()
                .is_none_or(|e: &SlotEdge| e.item != item)
            {
                out[current].push(SlotEdge { item, bin: j });
            }
            filled += take;
            f -= take;
        }
    }
    out
}

/// Rounds a fractional solution to an integral assignment.
///
/// # Errors
///
/// Returns [`GapError::Infeasible`] if the matching cannot saturate every
/// item (cannot happen for a valid fractional solution; guards against
/// numerically corrupt inputs).
///
/// # Panics
///
/// Panics if `frac` references items/bins outside the instance.
pub fn round(inst: &GapInstance, frac: &FractionalSolution) -> Result<Assignment, GapError> {
    let _span = mec_obs::span("gap.round");
    let n = inst.items();
    let m = inst.bins();

    // 1. Build the slots of every bin, in bin order.
    let mut slot_edges: Vec<Vec<SlotEdge>> = Vec::new(); // per slot: candidate items
    for (j, entries) in frac.per_bin(m).into_iter().enumerate() {
        if !entries.is_empty() {
            slot_edges.extend(bin_slots(inst, j, entries));
        }
    }

    // 2. Min-cost perfect matching on the item side: every item supplies
    //    one unit, every slot absorbs one.
    let s_count = slot_edges.len();
    mec_obs::counter_add("gap.rounding_slots", s_count as u64);
    let mut item_slots: Vec<Vec<(usize, usize)>> = vec![Vec::new(); n];
    for (s, edges) in slot_edges.iter().enumerate() {
        for e in edges {
            item_slots[e.item].push((s, e.bin));
        }
    }
    let mut net = Transportation::new(vec![1.0; s_count]);
    // The item and bin behind every arc, in arc order.
    let mut arc_pairs = Vec::new();
    for (i, slots) in item_slots.iter().enumerate() {
        arc_pairs.extend(slots.iter().map(|&(_, j)| (i, j)));
        net.add_item(1.0, slots.iter().map(|&(s, j)| (s, inst.cost(i, j))));
    }
    let res = net.solve();
    if res.routed + 1e-6 < n as f64 {
        return Err(GapError::Infeasible);
    }

    let mut of = vec![usize::MAX; n];
    for ((item, bin), y) in arc_pairs.into_iter().zip(res.flow) {
        if y > 0.5 {
            of[item] = bin;
        }
    }
    debug_assert!(of.iter().all(|&b| b != usize::MAX));
    Ok(Assignment::new(of))
}

/// Solves a GAP instance end to end: relaxation + Shmoys–Tardos rounding.
///
/// # Errors
///
/// Propagates [`GapError`] from the relaxation ([`solve_relaxation`]) or
/// the rounding ([`round`]).
///
/// # Examples
///
/// ```
/// use mec_gap::{GapInstance, shmoys_tardos};
///
/// let mut inst = GapInstance::new(2, 2);
/// inst.set_cost(0, 0, 1.0).set_cost(0, 1, 3.0);
/// inst.set_cost(1, 0, 2.0).set_cost(1, 1, 1.0);
/// inst.set_uniform_weights(1.0);
/// inst.set_capacity(0, 1.0);
/// inst.set_capacity(1, 1.0);
/// let sol = shmoys_tardos::solve(&inst).unwrap();
/// assert!(sol.assignment_cost <= sol.lp_objective + 1e-6);
/// ```
pub fn solve(inst: &GapInstance) -> Result<StSolution, GapError> {
    let frac = {
        let _span = mec_obs::span("gap.lp_relax");
        solve_relaxation(inst)?
    };
    let assignment = round(inst, &frac)?;
    let assignment_cost = assignment.total_cost(inst);
    #[cfg(feature = "verify")]
    {
        let violations = crate::verify::check_assignment(inst, &assignment, 1e-9);
        assert!(
            violations.is_empty(),
            "Shmoys-Tardos self-certification failed:\n{}",
            violations
                .iter()
                .map(|v| format!("  - {v}"))
                .collect::<Vec<_>>()
                .join("\n")
        );
    }
    Ok(StSolution {
        assignment,
        lp_objective: frac.objective,
        assignment_cost,
    })
}

/// The per-bin augmented-capacity bound the rounding guarantees:
/// `load(j) ≤ CAP_j + max_i w_i` over the items admissible in `j`
/// ([`GapInstance::is_allowed`]).
pub fn augmented_capacity(inst: &GapInstance, bin: usize) -> f64 {
    let max_w = (0..inst.items())
        .filter(|&i| inst.is_allowed(i, bin))
        .map(|i| inst.weight(i))
        .fold(0.0, f64::max);
    inst.capacity(bin) + max_w
}

#[cfg(test)]
mod tests {
    use super::*;

    fn diag(n: usize) -> GapInstance {
        let mut inst = GapInstance::new(n, n);
        for i in 0..n {
            for j in 0..n {
                inst.set_cost(i, j, if i == j { 1.0 } else { 10.0 });
            }
        }
        inst.set_uniform_weights(1.0);
        for j in 0..n {
            inst.set_capacity(j, 1.0);
        }
        inst
    }

    #[test]
    fn diagonal_optimum() {
        let inst = diag(4);
        let sol = solve(&inst).unwrap();
        assert!((sol.assignment_cost - 4.0).abs() < 1e-6);
        for i in 0..4 {
            assert_eq!(sol.assignment.bin_of(i), i);
        }
    }

    #[test]
    fn cost_never_exceeds_lp() {
        let inst = diag(5);
        let sol = solve(&inst).unwrap();
        assert!(sol.assignment_cost <= sol.lp_objective + 1e-6);
    }

    #[test]
    fn load_within_augmented_capacity() {
        // Capacities force fractional splits; rounding may overflow by at
        // most one item weight.
        let mut inst = GapInstance::new(4, 2);
        for i in 0..4 {
            inst.set_cost(i, 0, 1.0).set_cost(i, 1, 2.0);
            inst.set_item_weight(i, 1.0);
        }
        inst.set_capacity(0, 2.0);
        inst.set_capacity(1, 2.0);
        let sol = solve(&inst).unwrap();
        let loads = sol.assignment.loads(&inst);
        #[allow(clippy::needless_range_loop)] // j is a bin id
        for j in 0..2 {
            assert!(loads[j] <= augmented_capacity(&inst, j) + 1e-9);
        }
    }

    #[test]
    fn heterogeneous_weights() {
        let mut inst = GapInstance::new(3, 2);
        inst.set_cost(0, 0, 1.0).set_cost(0, 1, 2.0);
        inst.set_cost(1, 0, 1.0).set_cost(1, 1, 2.0);
        inst.set_cost(2, 0, 5.0).set_cost(2, 1, 1.0);
        inst.set_item_weight(0, 2.0);
        inst.set_item_weight(1, 1.0);
        inst.set_item_weight(2, 1.5);
        inst.set_capacity(0, 3.0);
        inst.set_capacity(1, 2.0);
        let sol = solve(&inst).unwrap();
        assert!(sol.assignment_cost <= sol.lp_objective + 1e-6);
        assert!(sol.assignment.max_overflow(&inst) <= 2.0 + 1e-9); // max item weight
    }

    #[test]
    fn single_bin_all_fit() {
        let mut inst = GapInstance::new(3, 1);
        for i in 0..3 {
            inst.set_cost(i, 0, 1.0);
            inst.set_item_weight(i, 1.0);
        }
        inst.set_capacity(0, 3.0);
        let sol = solve(&inst).unwrap();
        assert!((sol.assignment_cost - 3.0).abs() < 1e-9);
    }

    #[test]
    fn infeasible_item_propagates() {
        let mut inst = GapInstance::new(1, 1);
        inst.set_cost(0, 0, 1.0);
        inst.set_item_weight(0, 9.0);
        inst.set_capacity(0, 1.0);
        assert_eq!(
            solve(&inst).unwrap_err(),
            GapError::ItemDoesNotFit { item: 0 }
        );
    }
}
