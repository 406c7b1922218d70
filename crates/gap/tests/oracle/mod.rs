//! The general assignment LP, solved by `mec-lp`'s simplex: the
//! independent oracle the transportation relaxation is tested against.
//!
//! One variable per admissible `(item, bin)` pair, one `Eq` row per item
//! (`Σ_j x_ij = 1`) and one `Le` row per bin that admits any item
//! (`Σ_i w_i x_ij ≤ CAP_j`). It shares no code with `mec_gap::lp_relax`.
//! Built with `--features mec-lp/verify`, every solve is certified
//! optimal (primal and dual feasibility, closed duality gap) before its
//! objective is used.

use mec_gap::{GapError, GapInstance};
use mec_lp::{LpBuilder, LpError, Relation};

/// Optimal objective of the assignment LP of `inst`.
pub fn lp_objective(inst: &GapInstance) -> Result<f64, GapError> {
    let (n, m) = (inst.items(), inst.bins());
    let pairs: Vec<(usize, usize)> = (0..n)
        .flat_map(|i| (0..m).map(move |j| (i, j)))
        .filter(|&(i, j)| inst.is_allowed(i, j))
        .collect();
    if let Some(item) = (0..n).find(|&i| pairs.iter().all(|&(k, _)| k != i)) {
        return Err(GapError::ItemDoesNotFit { item });
    }
    let mut lp = LpBuilder::new(pairs.len());
    let costs: Vec<f64> = pairs.iter().map(|&(i, j)| inst.cost(i, j)).collect();
    lp.objective(&costs);
    for i in 0..n {
        let row: Vec<f64> = pairs
            .iter()
            .map(|&(k, _)| if k == i { 1.0 } else { 0.0 })
            .collect();
        lp.constraint(&row, Relation::Eq, 1.0);
    }
    for j in 0..m {
        let row: Vec<f64> = pairs
            .iter()
            .map(|&(i, b)| if b == j { inst.weight(i) } else { 0.0 })
            .collect();
        if pairs.iter().any(|&(_, b)| b == j) {
            lp.constraint(&row, Relation::Le, inst.capacity(j));
        }
    }
    match lp.solve() {
        Ok(sol) => Ok(sol.objective),
        Err(LpError::Infeasible) => Err(GapError::Infeasible),
        Err(e) => panic!("simplex oracle failed: {e}"),
    }
}
