//! LP relaxation of the Generalized Assignment Problem.
//!
//! The Shmoys–Tardos algorithm starts from an optimal *fractional* solution
//! of the GAP relaxation:
//!
//! ```text
//! minimize   Σ_ij c_ij x_ij
//! subject to Σ_j x_ij = 1            for every item i
//!            Σ_i w_ij x_ij ≤ CAP_j   for every bin j
//!            x_ij ≥ 0, and x_ij = 0 whenever w_ij > CAP_j
//! ```
//!
//! Three solution paths are provided, selected by [`LpBackend`]:
//! * [`solve_lp`] — the general relaxation via the [`mec_lp`] simplex
//!   (sparse revised by default, dense tableau as the reference oracle);
//!   works for arbitrary bin-dependent weights.
//! * [`solve_transportation`] — a transportation fast path
//!   ([`crate::flow`]) for the *uniform-allowed-weight* case (`w_ij = w_i`
//!   across every admissible bin,
//!   [`GapInstance::has_uniform_allowed_weights`]), which is exactly the
//!   class produced by the paper's virtual-cloudlet reduction — uniform
//!   slot demand with per-item [`FORBIDDEN`] arcs. The relaxation is then
//!   a transportation LP whose optimal vertex the flow computes.
//!
//! [`FORBIDDEN`]: crate::instance::FORBIDDEN

use mec_lp::{LpBuilder, LpError, Relation, SolverBackend};

use crate::flow::Transportation;
use crate::instance::GapInstance;

/// Which relaxation path [`solve_relaxation_with`] takes.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum LpBackend {
    /// Dispatch automatically: the transportation fast path whenever
    /// [`GapInstance::has_uniform_allowed_weights`] holds, the revised
    /// simplex otherwise.
    #[default]
    Auto,
    /// Force the transportation fast path (panics when the instance is
    /// outside its applicability class).
    Transportation,
    /// Force the general LP on the sparse revised simplex.
    Revised,
    /// Force the general LP on the dense tableau (reference oracle).
    Dense,
}

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
    /// The underlying LP solver failed.
    Lp(LpError),
}

impl std::fmt::Display for GapError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            GapError::ItemDoesNotFit { item } => {
                write!(f, "item {item} fits in no bin")
            }
            GapError::Infeasible => write!(f, "GAP relaxation is infeasible"),
            GapError::Lp(e) => write!(f, "LP solver failed: {e}"),
        }
    }
}

impl std::error::Error for GapError {}

impl From<LpError> for GapError {
    fn from(e: LpError) -> Self {
        match e {
            LpError::Infeasible => GapError::Infeasible,
            other => GapError::Lp(other),
        }
    }
}

/// A fractional solution of the GAP relaxation: sparse `(item, bin, frac)`
/// triples with `Σ_j frac(i, j) = 1` per item.
#[derive(Debug, Clone)]
pub struct FractionalSolution {
    /// Sparse nonzero fractions.
    pub fractions: Vec<(usize, usize, f64)>,
    /// Objective value `Σ c_ij x_ij` (a lower bound on the integral optimum).
    pub objective: f64,
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

    /// Checks `Σ_j x_ij ≈ 1` for every item in `0..items`.
    pub fn covers_all_items(&self, items: usize) -> bool {
        let mut sums = vec![0.0; items];
        for &(i, _, f) in &self.fractions {
            sums[i] += f;
        }
        sums.iter().all(|s| (s - 1.0).abs() < 1e-6)
    }
}

/// Returns whether `(item, bin)` is an admissible pair.
fn allowed(inst: &GapInstance, i: usize, j: usize) -> bool {
    inst.is_allowed(i, j)
}

fn check_items_fit(inst: &GapInstance) -> Result<(), GapError> {
    for i in 0..inst.items() {
        if !(0..inst.bins()).any(|j| allowed(inst, i, j)) {
            return Err(GapError::ItemDoesNotFit { item: i });
        }
    }
    Ok(())
}

/// The assignment LP of `inst`, plus the variable and row layout needed to
/// interpret its solution: one variable per admissible `(item, bin)` pair
/// (in `pairs` order), item `Eq` rows first (one per item, in item order),
/// then one `Le` capacity row per bin that admits any item (`bin_row[j]`
/// maps a bin to its row index, `None` when the bin admits nothing).
///
/// This is the **single** construction shared by [`solve_lp`] and
/// [`capacity_shadow_prices`], so the row layout the duals are read from
/// cannot drift out of sync with the LP being solved.
struct AssignmentLp {
    lp: LpBuilder,
    pairs: Vec<(usize, usize)>,
    bin_row: Vec<Option<usize>>,
}

fn build_assignment_lp(inst: &GapInstance) -> AssignmentLp {
    let n = inst.items();
    let m = inst.bins();
    // Variable layout: dense over allowed pairs.
    let mut var_of = vec![usize::MAX; n * m];
    let mut pairs = Vec::new();
    for i in 0..n {
        for j in 0..m {
            if allowed(inst, i, j) {
                var_of[i * m + j] = pairs.len();
                pairs.push((i, j));
            }
        }
    }
    let nv = pairs.len();
    let mut lp = LpBuilder::new(nv);
    let costs: Vec<f64> = pairs.iter().map(|&(i, j)| inst.cost(i, j)).collect();
    lp.objective(&costs);
    // Item rows.
    for i in 0..n {
        let mut row = vec![0.0; nv];
        for j in 0..m {
            let v = var_of[i * m + j];
            if v != usize::MAX {
                row[v] = 1.0;
            }
        }
        lp.constraint(&row, Relation::Eq, 1.0);
    }
    // Bin rows.
    let mut bin_row = vec![None; m];
    for j in 0..m {
        let mut row = vec![0.0; nv];
        let mut any = false;
        for i in 0..n {
            let v = var_of[i * m + j];
            if v != usize::MAX {
                row[v] = inst.weight(i, j);
                any = true;
            }
        }
        if any {
            bin_row[j] = Some(lp.constraint_count());
            lp.constraint(&row, Relation::Le, inst.capacity(j));
        }
    }
    AssignmentLp { lp, pairs, bin_row }
}

/// Solves the GAP relaxation with the default simplex backend (the sparse
/// revised simplex).
///
/// # Errors
///
/// * [`GapError::ItemDoesNotFit`] — some item is inadmissible everywhere.
/// * [`GapError::Infeasible`] — the relaxation has no solution.
/// * [`GapError::Lp`] — numerical trouble in the simplex.
pub fn solve_lp(inst: &GapInstance) -> Result<FractionalSolution, GapError> {
    solve_lp_with(inst, SolverBackend::default())
}

/// Solves the GAP relaxation with an explicit [`mec_lp`] backend.
///
/// # Errors
///
/// Same as [`solve_lp`].
pub fn solve_lp_with(
    inst: &GapInstance,
    backend: SolverBackend,
) -> Result<FractionalSolution, GapError> {
    check_items_fit(inst)?;
    let built = build_assignment_lp(inst);
    let sol = built.lp.solve_with(backend)?;
    let mut fractions = Vec::new();
    for (v, &(i, j)) in built.pairs.iter().enumerate() {
        if sol.x[v] > 1e-9 {
            fractions.push((i, j, sol.x[v].min(1.0)));
        }
    }
    Ok(FractionalSolution {
        fractions,
        objective: sol.objective,
    })
}

/// Solves the relaxation as a transportation problem ([`crate::flow`])
/// when every item's weight is uniform across its admissible bins.
///
/// The substitution `y_ij = w_i · x_ij` turns the relaxation into a
/// transportation problem: item `i` supplies `w_i` units, bin `j` absorbs at
/// most `CAP_j`, and a unit of `y_ij` costs `c_ij / w_i`. Zero-weight items
/// are assigned integrally to their cheapest admissible bin up front.
/// `w_i` is read at the item's first admissible bin, so [`FORBIDDEN`] pairs
/// (or bins the item does not fit) may carry arbitrary weights — this is
/// the whole instance class Appro's virtual-cloudlet split produces.
///
/// [`FORBIDDEN`]: crate::instance::FORBIDDEN
///
/// # Errors
///
/// Same as [`solve_lp`]; additionally returns [`GapError::Infeasible`] if
/// the flow cannot route the full supply.
///
/// # Panics
///
/// Panics if some item's weight differs between two of its admissible bins
/// (checked via [`GapInstance::has_uniform_allowed_weights`]).
pub fn solve_transportation(inst: &GapInstance) -> Result<FractionalSolution, GapError> {
    assert!(
        inst.has_uniform_allowed_weights(),
        "transportation fast path requires per-item uniform weights over admissible bins"
    );
    check_items_fit(inst)?;
    let n = inst.items();
    let m = inst.bins();
    let mut fractions = Vec::new();
    let mut objective = 0.0;

    let mut net = Transportation::new((0..m).map(|j| inst.capacity(j)).collect());
    // The instance item, bin and weight behind every arc, in arc order.
    let mut arc_pairs = Vec::new();
    let mut total_supply = 0.0;

    for i in 0..n {
        // The item's uniform weight, read at its first admissible bin
        // (check_items_fit guarantees one exists).
        let w = (0..m)
            .find(|&j| allowed(inst, i, j))
            .map(|j| inst.weight(i, j))
            .expect("checked by check_items_fit");
        if w <= 1e-12 {
            // Weightless item: integral assignment to its cheapest bin.
            let best = (0..m)
                .filter(|&j| allowed(inst, i, j))
                .min_by(|&a, &b| {
                    inst.cost(i, a)
                        .partial_cmp(&inst.cost(i, b))
                        .unwrap_or(std::cmp::Ordering::Equal)
                })
                .expect("checked by check_items_fit");
            fractions.push((i, best, 1.0));
            objective += inst.cost(i, best);
            continue;
        }
        total_supply += w;
        let bins = (0..m).filter(|&j| allowed(inst, i, j));
        arc_pairs.extend(bins.clone().map(|j| (i, j, w)));
        net.add_item(w, bins.map(|j| (j, inst.cost(i, j) / w)));
    }

    if total_supply > 0.0 {
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
    }

    Ok(FractionalSolution {
        fractions,
        objective,
    })
}

/// Solves the relaxation with the best available method: the transportation
/// fast path when every item's weight is uniform over its admissible bins,
/// the general LP (revised simplex) otherwise.
///
/// # Errors
///
/// See [`solve_lp`].
pub fn solve_relaxation(inst: &GapInstance) -> Result<FractionalSolution, GapError> {
    solve_relaxation_with(inst, LpBackend::Auto)
}

/// Solves the relaxation through an explicit [`LpBackend`].
///
/// # Errors
///
/// See [`solve_lp`].
///
/// # Panics
///
/// [`LpBackend::Transportation`] panics when the instance is outside the
/// fast path's applicability class (see [`solve_transportation`]).
pub fn solve_relaxation_with(
    inst: &GapInstance,
    backend: LpBackend,
) -> Result<FractionalSolution, GapError> {
    match backend {
        LpBackend::Auto => {
            if inst.has_uniform_allowed_weights() {
                solve_transportation(inst)
            } else {
                solve_lp_with(inst, SolverBackend::Revised)
            }
        }
        LpBackend::Transportation => solve_transportation(inst),
        LpBackend::Revised => solve_lp_with(inst, SolverBackend::Revised),
        LpBackend::Dense => solve_lp_with(inst, SolverBackend::Dense),
    }
}

/// Shadow price of every bin's capacity at the LP optimum: the marginal
/// *reduction* of the optimal assignment cost per extra unit of capacity
/// (non-negative; zero when the bin's capacity is slack).
///
/// Solves the general LP (the transportation fast path does not produce
/// duals) and negates the `≤`-row duals of the capacity constraints.
///
/// # Errors
///
/// Same conditions as [`solve_lp`].
pub fn capacity_shadow_prices(inst: &GapInstance) -> Result<Vec<f64>, GapError> {
    check_items_fit(inst)?;
    let built = build_assignment_lp(inst);
    let sol = built.lp.solve()?;
    Ok(built
        .bin_row
        .iter()
        .map(|row| match row {
            Some(r) => (-sol.duals[*r]).max(0.0),
            None => 0.0,
        })
        .collect())
}

#[cfg(test)]
mod tests {
    use super::*;

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
    fn lp_matches_known_optimum() {
        let sol = solve_lp(&tight()).unwrap();
        assert!((sol.objective - 2.0).abs() < 1e-6);
        assert!(sol.covers_all_items(2));
    }

    #[test]
    fn transportation_matches_lp() {
        let inst = tight();
        let a = solve_lp(&inst).unwrap();
        let b = solve_transportation(&inst).unwrap();
        assert!((a.objective - b.objective).abs() < 1e-6);
        assert!(b.covers_all_items(2));
    }

    #[test]
    fn fractional_split_when_forced() {
        // One bin with capacity 1, two items of weight 1: infeasible.
        let mut inst = GapInstance::new(2, 1);
        inst.set_cost(0, 0, 1.0).set_cost(1, 0, 1.0);
        inst.set_uniform_weights(1.0);
        inst.set_capacity(0, 1.0);
        assert_eq!(solve_lp(&inst).unwrap_err(), GapError::Infeasible);
        assert_eq!(
            solve_transportation(&inst).unwrap_err(),
            GapError::Infeasible
        );
    }

    #[test]
    fn item_too_big_everywhere() {
        let mut inst = GapInstance::new(1, 2);
        inst.set_cost(0, 0, 1.0).set_cost(0, 1, 1.0);
        inst.set_uniform_weights(5.0);
        inst.set_capacity(0, 1.0);
        inst.set_capacity(1, 1.0);
        assert_eq!(
            solve_lp(&inst).unwrap_err(),
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
        let sol = solve_transportation(&inst).unwrap();
        assert!((sol.objective - 2.0).abs() < 1e-9);
    }

    #[test]
    fn fractional_when_capacity_forces_split() {
        // 1 item weight 2; two bins capacity 1 each: x must split 0.5/0.5.
        let mut inst = GapInstance::new(1, 2);
        inst.set_cost(0, 0, 2.0).set_cost(0, 1, 4.0);
        inst.set_uniform_weights(2.0);
        inst.set_capacity(0, 2.0);
        inst.set_capacity(1, 2.0);
        let sol = solve_transportation(&inst).unwrap();
        // Fits entirely in bin 0 (cheapest).
        assert!((sol.objective - 2.0).abs() < 1e-6);
    }

    #[test]
    fn respects_forbidden_pairs() {
        let mut inst = tight();
        inst.set_cost(0, 0, crate::instance::FORBIDDEN);
        let sol = solve_relaxation(&inst).unwrap();
        // Item 0 must go to bin 1, pushing item 1 to bin 0: cost 3 + 2.
        assert!((sol.objective - 5.0).abs() < 1e-6);
    }

    #[test]
    fn relaxation_lower_bounds_any_integral_assignment() {
        let inst = tight();
        let sol = solve_relaxation(&inst).unwrap();
        use crate::instance::Assignment;
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
        let prices = capacity_shadow_prices(&inst).unwrap();
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
        let prices = capacity_shadow_prices(&inst).unwrap();
        assert!(prices[0] > 1.0, "bin 0 price {:?}", prices);
        assert!(prices[1] < 1e-9, "bin 1 should be free, {prices:?}");
        // Marginal check: adding a unit of capacity to bin 0 reduces the
        // optimum by (close to) its shadow price.
        let base = solve_lp(&inst).unwrap().objective;
        let mut relaxed = inst.clone();
        relaxed.set_capacity(0, 2.0);
        let better = solve_lp(&relaxed).unwrap().objective;
        assert!(
            (base - better - prices[0]).abs() < 1e-6,
            "price {} vs realized saving {}",
            prices[0],
            base - better
        );
    }

    #[test]
    fn bin_dependent_weights_use_lp() {
        let mut inst = GapInstance::new(2, 2);
        inst.set_cost(0, 0, 1.0).set_cost(0, 1, 2.0);
        inst.set_cost(1, 0, 2.0).set_cost(1, 1, 1.0);
        inst.set_weight(0, 0, 1.0).set_weight(0, 1, 2.0);
        inst.set_weight(1, 0, 2.0).set_weight(1, 1, 1.0);
        inst.set_capacity(0, 2.0);
        inst.set_capacity(1, 2.0);
        let sol = solve_relaxation(&inst).unwrap();
        assert!((sol.objective - 2.0).abs() < 1e-6);
    }
}
