//! First-principles verification of simplex solutions.
//!
//! [`check_solution`] re-evaluates an [`LpSolution`] against the original
//! [`LpBuilder`] data — it shares **no** code with the simplex machinery,
//! so a pivoting bug cannot hide from it. It certifies:
//!
//! * every structural variable is non-negative,
//! * every constraint row holds within tolerance (primal feasibility),
//! * the duals are feasible for the dual LP: each row's dual has the sign
//!   its relation needs in a minimization (≤ 0 for `Le`, ≥ 0 for `Ge`,
//!   free for `Eq`) and every structural reduced cost `c_j − A_j · y` is
//!   non-negative,
//! * the reported objective equals `c · x`,
//! * the duality gap `|c · x − b · y|` is bounded.
//!
//! Primal feasibility, dual feasibility and a zero gap together prove `x`
//! optimal (weak duality bounds every feasible objective below by `b · y`).
//! The gap alone proves nothing: the simplex's basis duals
//! `y = c_B B⁻¹` satisfy `b · y = c · x` at *every* basic solution, so a
//! solver that stopped pivoting early would still close it. Dual
//! feasibility is what fails then.
//!
//! With the `verify` cargo feature enabled, [`LpBuilder::solve`] runs these
//! checks on every solution before returning it and panics with a full
//! report on any violation.

use crate::simplex::{LpBuilder, LpSolution, Relation};
use mec_num::{approx_eq, approx_ge, approx_le};

/// A single broken invariant found in an [`LpSolution`].
#[derive(Debug, Clone, PartialEq)]
pub enum LpViolation {
    /// A structural variable is negative beyond tolerance.
    NegativeVariable {
        /// Variable index.
        index: usize,
        /// Its value.
        value: f64,
    },
    /// A constraint row is violated.
    PrimalInfeasible {
        /// Constraint row index (insertion order).
        row: usize,
        /// `A_i · x` as recomputed.
        lhs: f64,
        /// The row's right-hand side.
        rhs: f64,
        /// How far past the relation the row is.
        violation: f64,
    },
    /// The reported objective does not equal `c · x`.
    ObjectiveMismatch {
        /// Objective reported by the solver.
        reported: f64,
        /// `c · x` recomputed from the solution vector.
        recomputed: f64,
    },
    /// A row's dual has the wrong sign for its relation.
    DualSign {
        /// Constraint row index (insertion order).
        row: usize,
        /// The row's relation.
        rel: Relation,
        /// The reported dual.
        dual: f64,
    },
    /// A structural variable's reduced cost `c_j − A_j · y` is negative:
    /// entering it would still lower the objective.
    NegativeReducedCost {
        /// Variable index.
        index: usize,
        /// The reduced cost.
        reduced: f64,
    },
    /// `|c · x − b · y|` exceeds the allowed duality gap.
    DualityGap {
        /// Primal objective `c · x`.
        primal: f64,
        /// Dual objective `b · y`.
        dual: f64,
        /// `|primal − dual|`.
        gap: f64,
    },
}

impl std::fmt::Display for LpViolation {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            LpViolation::NegativeVariable { index, value } => {
                write!(f, "variable x[{index}] = {value} is negative")
            }
            LpViolation::PrimalInfeasible {
                row,
                lhs,
                rhs,
                violation,
            } => write!(
                f,
                "constraint row {row} violated by {violation} (lhs {lhs}, rhs {rhs})"
            ),
            LpViolation::ObjectiveMismatch {
                reported,
                recomputed,
            } => write!(
                f,
                "objective mismatch: solver reported {reported}, c·x is {recomputed}"
            ),
            LpViolation::DualSign { row, rel, dual } => {
                write!(f, "dual of {rel:?} row {row} is {dual}, wrong sign")
            }
            LpViolation::NegativeReducedCost { index, reduced } => write!(
                f,
                "reduced cost of x[{index}] is {reduced} < 0: the solution is not optimal"
            ),
            LpViolation::DualityGap { primal, dual, gap } => write!(
                f,
                "duality gap {gap} (primal {primal}, dual {dual}) exceeds tolerance"
            ),
        }
    }
}

/// Checks `sol` against `lp` from first principles; returns every violation
/// found (empty = certified).
///
/// `tol` is the absolute feasibility tolerance per row/variable, scaled
/// per row (and per column for reduced costs) by the magnitude of its
/// data; objective and duality-gap comparisons scale it by the
/// objective's magnitude so large instances are not flagged for benign
/// round-off.
///
/// # Panics
///
/// Panics if `sol.x` or `sol.duals` do not match the builder's dimensions
/// (that is a caller bug, not a numerical violation).
pub fn check_solution(lp: &LpBuilder, sol: &LpSolution, tol: f64) -> Vec<LpViolation> {
    assert_eq!(sol.x.len(), lp.var_count(), "solution/variable mismatch");
    assert_eq!(
        sol.duals.len(),
        lp.constraint_count(),
        "dual/constraint mismatch"
    );
    let mut out = Vec::new();

    for (index, &value) in sol.x.iter().enumerate() {
        if !approx_ge(value, 0.0, tol) {
            out.push(LpViolation::NegativeVariable { index, value });
        }
    }

    let c = lp.objective_coeffs();
    // Reduced costs `c_j − A_j · y` and each column's largest coefficient
    // (its tolerance scale), accumulated row by row.
    let mut reduced = c.to_vec();
    let mut col_scale: Vec<f64> = c.iter().map(|cj| 1.0 + cj.abs()).collect();
    let mut dual_obj = 0.0;
    for row in 0..lp.constraint_count() {
        let (coeffs, rel, rhs) = lp.constraint_row(row);
        let lhs: f64 = coeffs.iter().zip(&sol.x).map(|(a, x)| a * x).sum();
        // Row-scaled tolerance: a row with large coefficients accumulates
        // proportionally more round-off.
        let scale = 1.0 + rhs.abs() + coeffs.iter().map(|a| a.abs()).fold(0.0, f64::max);
        let row_tol = tol * scale;
        let violation = match rel {
            Relation::Le => (lhs - rhs).max(0.0),
            Relation::Ge => (rhs - lhs).max(0.0),
            Relation::Eq => (lhs - rhs).abs(),
        };
        let ok = match rel {
            Relation::Le => approx_le(lhs, rhs, row_tol),
            Relation::Ge => approx_ge(lhs, rhs, row_tol),
            Relation::Eq => approx_eq(lhs, rhs, row_tol),
        };
        if !ok {
            out.push(LpViolation::PrimalInfeasible {
                row,
                lhs,
                rhs,
                violation,
            });
        }
        let dual = sol.duals[row];
        let sign_ok = match rel {
            Relation::Le => dual <= row_tol,
            Relation::Ge => dual >= -row_tol,
            Relation::Eq => true,
        };
        if !sign_ok {
            out.push(LpViolation::DualSign { row, rel, dual });
        }
        for (j, &a) in coeffs.iter().enumerate() {
            reduced[j] -= a * dual;
            col_scale[j] = col_scale[j].max(1.0 + c[j].abs() + a.abs());
        }
        dual_obj += rhs * dual;
    }
    for (index, (&reduced, &scale)) in reduced.iter().zip(&col_scale).enumerate() {
        if reduced < -tol * scale {
            out.push(LpViolation::NegativeReducedCost { index, reduced });
        }
    }

    let recomputed: f64 = c.iter().zip(&sol.x).map(|(c, x)| c * x).sum();
    let obj_tol = tol * (1.0 + recomputed.abs());
    if !approx_eq(sol.objective, recomputed, obj_tol) {
        out.push(LpViolation::ObjectiveMismatch {
            reported: sol.objective,
            recomputed,
        });
    }

    let gap = (recomputed - dual_obj).abs();
    // Strong duality is exact in theory; allow round-off proportional to the
    // magnitudes involved.
    let gap_tol = tol * (1.0 + recomputed.abs() + dual_obj.abs()) * 10.0;
    if gap > gap_tol {
        out.push(LpViolation::DualityGap {
            primal: recomputed,
            dual: dual_obj,
            gap,
        });
    }

    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_lp() -> LpBuilder {
        // minimize -x - 2y  s.t.  x + y <= 4,  y <= 3
        let mut lp = LpBuilder::new(2);
        lp.objective(&[-1.0, -2.0]);
        lp.constraint(&[1.0, 1.0], Relation::Le, 4.0);
        lp.constraint(&[0.0, 1.0], Relation::Le, 3.0);
        lp
    }

    #[test]
    fn optimal_solution_certifies_clean() {
        let lp = sample_lp();
        let sol = lp.solve().unwrap();
        assert_eq!(check_solution(&lp, &sol, 1e-7), vec![]);
    }

    #[test]
    fn detects_negative_variable() {
        let lp = sample_lp();
        let mut sol = lp.solve().unwrap();
        sol.x[0] = -0.5;
        let v = check_solution(&lp, &sol, 1e-7);
        assert!(v
            .iter()
            .any(|v| matches!(v, LpViolation::NegativeVariable { index: 0, .. })));
    }

    #[test]
    fn detects_primal_infeasibility() {
        let lp = sample_lp();
        let mut sol = lp.solve().unwrap();
        sol.x = vec![10.0, 10.0]; // breaks both rows
        let v = check_solution(&lp, &sol, 1e-7);
        assert!(v
            .iter()
            .any(|v| matches!(v, LpViolation::PrimalInfeasible { row: 0, .. })));
        assert!(v
            .iter()
            .any(|v| matches!(v, LpViolation::PrimalInfeasible { row: 1, .. })));
    }

    #[test]
    fn detects_objective_mismatch() {
        let lp = sample_lp();
        let mut sol = lp.solve().unwrap();
        sol.objective += 1.0;
        let v = check_solution(&lp, &sol, 1e-7);
        assert!(v
            .iter()
            .any(|v| matches!(v, LpViolation::ObjectiveMismatch { .. })));
    }

    #[test]
    fn detects_duality_gap() {
        let lp = sample_lp();
        let mut sol = lp.solve().unwrap();
        sol.duals = vec![5.0, 5.0]; // bogus shadow prices
        let v = check_solution(&lp, &sol, 1e-7);
        assert!(v
            .iter()
            .any(|v| matches!(v, LpViolation::DualityGap { .. })));
    }

    /// min −x − y − z s.t. x ≤ 2, y ≤ 3, z ≤ 4 has optimum −9. The basis
    /// that holds only y at its bound is primal feasible with objective
    /// −3, and its basis duals `y = c_B B⁻¹ = (0, −1, 0)` close the gap
    /// (`b · y = −3`): only the reduced costs of x and z show that
    /// pivoting stopped early.
    #[test]
    fn a_feasible_basis_short_of_the_optimum_is_rejected() {
        let mut lp = LpBuilder::new(3);
        lp.objective(&[-1.0, -1.0, -1.0]);
        lp.constraint(&[1.0, 0.0, 0.0], Relation::Le, 2.0);
        lp.constraint(&[0.0, 1.0, 0.0], Relation::Le, 3.0);
        lp.constraint(&[0.0, 0.0, 1.0], Relation::Le, 4.0);
        let sol = lp.solve().unwrap();
        assert!((sol.objective + 9.0).abs() < 1e-9, "{}", sol.objective);
        assert_eq!(check_solution(&lp, &sol, 1e-7), vec![]);

        let early = LpSolution {
            x: vec![0.0, 3.0, 0.0],
            objective: -3.0,
            duals: vec![0.0, -1.0, 0.0],
        };
        assert_eq!(
            check_solution(&lp, &early, 1e-7),
            vec![
                LpViolation::NegativeReducedCost {
                    index: 0,
                    reduced: -1.0
                },
                LpViolation::NegativeReducedCost {
                    index: 2,
                    reduced: -1.0
                },
            ]
        );
    }

    #[test]
    fn detects_wrong_dual_signs() {
        // minimize x + y  s.t.  x + y >= 1,  x <= 5,  x - y = 0
        let mut lp = LpBuilder::new(2);
        lp.objective(&[1.0, 1.0]);
        lp.constraint(&[1.0, 1.0], Relation::Ge, 1.0);
        lp.constraint(&[1.0, 0.0], Relation::Le, 5.0);
        lp.constraint(&[1.0, -1.0], Relation::Eq, 0.0);
        let sol = lp.solve().unwrap();
        assert_eq!(check_solution(&lp, &sol, 1e-7), vec![]);
        let mut bad = sol.clone();
        bad.duals = vec![-1.0, 1.0, -7.0];
        let v = check_solution(&lp, &bad, 1e-7);
        let signs: Vec<usize> = v
            .iter()
            .filter_map(|v| match v {
                LpViolation::DualSign { row, .. } => Some(*row),
                _ => None,
            })
            .collect();
        assert_eq!(signs, vec![0, 1], "an Eq row's dual is free: {v:?}");
    }

    #[test]
    fn equality_and_ge_rows_checked() {
        // minimize x + y  s.t.  x + y = 2,  x >= 0.5
        let mut lp = LpBuilder::new(2);
        lp.objective(&[1.0, 1.0]);
        lp.constraint(&[1.0, 1.0], Relation::Eq, 2.0);
        lp.constraint(&[1.0, 0.0], Relation::Ge, 0.5);
        let sol = lp.solve().unwrap();
        assert_eq!(check_solution(&lp, &sol, 1e-7), vec![]);
        let mut bad = sol.clone();
        bad.x = vec![0.0, 0.0];
        let v = check_solution(&lp, &bad, 1e-7);
        assert!(v
            .iter()
            .any(|v| matches!(v, LpViolation::PrimalInfeasible { .. })));
    }

    #[test]
    fn violations_render() {
        let lp = sample_lp();
        let mut sol = lp.solve().unwrap();
        sol.x[1] = -1.0;
        for v in check_solution(&lp, &sol, 1e-7) {
            assert!(!v.to_string().is_empty());
        }
    }
}
