//! The LP problem builder, its solution and error types.
//!
//! [`LpBuilder`] collects a minimization over non-negative variables;
//! [`LpBuilder::solve`] runs the sparse revised simplex
//! (`crate::revised`) and, under the `verify` feature, certifies the
//! answer with [`crate::verify::check_solution`].

use std::fmt;

/// Relation of a linear constraint row.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Relation {
    /// `A_i · x ≤ b_i`
    Le,
    /// `A_i · x = b_i`
    Eq,
    /// `A_i · x ≥ b_i`
    Ge,
}

/// Errors returned by [`LpBuilder::solve`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum LpError {
    /// The feasible region is empty.
    Infeasible,
    /// The objective is unbounded below on the feasible region.
    Unbounded,
    /// A coefficient slice had the wrong length.
    DimensionMismatch {
        /// Number of structural variables the builder was created with.
        expected: usize,
        /// Length of the offending slice.
        got: usize,
    },
    /// The iteration budget was exhausted (numerical trouble).
    IterationLimit,
}

impl fmt::Display for LpError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            LpError::Infeasible => write!(f, "linear program is infeasible"),
            LpError::Unbounded => write!(f, "linear program is unbounded"),
            LpError::DimensionMismatch { expected, got } => {
                write!(f, "coefficient slice has length {got}, expected {expected}")
            }
            LpError::IterationLimit => write!(f, "simplex iteration limit exceeded"),
        }
    }
}

impl std::error::Error for LpError {}

/// An optimal solution of a linear program.
#[derive(Debug, Clone)]
pub struct LpSolution {
    /// Optimal values of the structural variables.
    pub x: Vec<f64>,
    /// Optimal objective value `c · x`.
    pub objective: f64,
    /// Dual values (shadow prices), one per constraint row in insertion
    /// order. For a minimization, `duals[i]` is the marginal change of the
    /// optimal objective per unit increase of `b_i`; strong duality
    /// (`b · y = c · x`) holds at the optimum.
    pub duals: Vec<f64>,
}

/// Builder for a minimization LP over non-negative variables.
///
/// See the [crate-level docs](crate) for the problem form and an example.
#[derive(Debug, Clone)]
pub struct LpBuilder {
    n: usize,
    c: Vec<f64>,
    rows: Vec<Row>,
}

#[derive(Debug, Clone)]
struct Row {
    coeffs: Vec<f64>,
    rel: Relation,
    rhs: f64,
}

impl LpBuilder {
    /// Creates a builder for an LP with `n` structural variables, all with a
    /// zero objective coefficient until [`LpBuilder::objective`] is called.
    pub fn new(n: usize) -> Self {
        LpBuilder {
            n,
            c: vec![0.0; n],
            rows: Vec::new(),
        }
    }

    /// Number of structural variables.
    pub fn var_count(&self) -> usize {
        self.n
    }

    /// Number of constraint rows added so far.
    pub fn constraint_count(&self) -> usize {
        self.rows.len()
    }

    /// Coefficients, relation and right-hand side of constraint row `i`
    /// (insertion order). Used by [`crate::verify`] to re-check solutions
    /// from first principles.
    ///
    /// # Panics
    ///
    /// Panics if `i >= constraint_count()`.
    pub fn constraint_row(&self, i: usize) -> (&[f64], Relation, f64) {
        let r = &self.rows[i];
        (&r.coeffs, r.rel, r.rhs)
    }

    /// The objective coefficients (zeros until [`LpBuilder::objective`]).
    pub fn objective_coeffs(&self) -> &[f64] {
        &self.c
    }

    /// Sets the objective coefficients (minimization).
    ///
    /// # Errors
    ///
    /// Returns [`LpError::DimensionMismatch`] if `coeffs.len() != n`.
    pub fn objective(&mut self, coeffs: &[f64]) -> &mut Self {
        assert_eq!(
            coeffs.len(),
            self.n,
            "objective has {} coefficients, LP has {} variables",
            coeffs.len(),
            self.n
        );
        self.c.copy_from_slice(coeffs);
        self
    }

    /// Adds the constraint `coeffs · x (rel) rhs`.
    ///
    /// # Panics
    ///
    /// Panics if `coeffs.len() != n` or if any value is non-finite.
    pub fn constraint(&mut self, coeffs: &[f64], rel: Relation, rhs: f64) -> &mut Self {
        assert_eq!(
            coeffs.len(),
            self.n,
            "constraint has {} coefficients, LP has {} variables",
            coeffs.len(),
            self.n
        );
        assert!(
            coeffs.iter().all(|v| v.is_finite()) && rhs.is_finite(),
            "constraint contains non-finite values"
        );
        self.rows.push(Row {
            coeffs: coeffs.to_vec(),
            rel,
            rhs,
        });
        self
    }

    /// Solves the LP with the two-phase sparse revised simplex.
    ///
    /// With the `verify` cargo feature enabled, the solution is re-checked
    /// against the original problem data ([`crate::verify::check_solution`]:
    /// primal and dual feasibility, `c · x` and the duality gap, which
    /// together prove optimality) before being returned; a violation
    /// panics with a full report.
    ///
    /// # Errors
    ///
    /// * [`LpError::Infeasible`] — no point satisfies all constraints.
    /// * [`LpError::Unbounded`] — the objective decreases without bound.
    /// * [`LpError::IterationLimit`] — the pivot budget was exhausted.
    pub fn solve(&self) -> Result<LpSolution, LpError> {
        let sol = crate::revised::solve_revised(self)?;
        #[cfg(feature = "verify")]
        {
            let violations = crate::verify::check_solution(self, &sol, 1e-6);
            assert!(
                violations.is_empty(),
                "simplex self-certification failed:\n{}",
                violations
                    .iter()
                    .map(|v| format!("  - {v}"))
                    .collect::<Vec<_>>()
                    .join("\n")
            );
        }
        Ok(sol)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn assert_close(a: f64, b: f64) {
        assert!((a - b).abs() < 1e-6, "{a} != {b}");
    }

    #[test]
    fn basic_maximization_as_minimization() {
        // max x + 2y s.t. x+y<=4, y<=3 -> min -x-2y, opt at (1,3): -7.
        let mut lp = LpBuilder::new(2);
        lp.objective(&[-1.0, -2.0]);
        lp.constraint(&[1.0, 1.0], Relation::Le, 4.0);
        lp.constraint(&[0.0, 1.0], Relation::Le, 3.0);
        let s = lp.solve().unwrap();
        assert_close(s.objective, -7.0);
        assert_close(s.x[0], 1.0);
        assert_close(s.x[1], 3.0);
    }

    #[test]
    fn equality_constraints() {
        // min x+y s.t. x+2y = 4, x,y >= 0 -> y=2, x=0, obj 2.
        let mut lp = LpBuilder::new(2);
        lp.objective(&[1.0, 1.0]);
        lp.constraint(&[1.0, 2.0], Relation::Eq, 4.0);
        let s = lp.solve().unwrap();
        assert_close(s.objective, 2.0);
        assert_close(s.x[1], 2.0);
    }

    #[test]
    fn ge_constraints() {
        // min 2x+3y s.t. x+y >= 5, x <= 3 -> x=3, y=2, obj 12.
        let mut lp = LpBuilder::new(2);
        lp.objective(&[2.0, 3.0]);
        lp.constraint(&[1.0, 1.0], Relation::Ge, 5.0);
        lp.constraint(&[1.0, 0.0], Relation::Le, 3.0);
        let s = lp.solve().unwrap();
        assert_close(s.objective, 12.0);
    }

    #[test]
    fn negative_rhs_normalized() {
        // min x s.t. -x <= -3  (i.e. x >= 3) -> x=3.
        let mut lp = LpBuilder::new(1);
        lp.objective(&[1.0]);
        lp.constraint(&[-1.0], Relation::Le, -3.0);
        let s = lp.solve().unwrap();
        assert_close(s.x[0], 3.0);
    }

    #[test]
    fn infeasible_detected() {
        let mut lp = LpBuilder::new(1);
        lp.objective(&[1.0]);
        lp.constraint(&[1.0], Relation::Le, 1.0);
        lp.constraint(&[1.0], Relation::Ge, 2.0);
        assert_eq!(lp.solve().unwrap_err(), LpError::Infeasible);
    }

    #[test]
    fn unbounded_detected() {
        let mut lp = LpBuilder::new(1);
        lp.objective(&[-1.0]);
        lp.constraint(&[-1.0], Relation::Le, 0.0); // x >= 0, minimize -x
        assert_eq!(lp.solve().unwrap_err(), LpError::Unbounded);
    }

    #[test]
    fn zero_objective_returns_feasible_point() {
        let mut lp = LpBuilder::new(2);
        lp.constraint(&[1.0, 1.0], Relation::Eq, 1.0);
        let s = lp.solve().unwrap();
        assert_close(s.x[0] + s.x[1], 1.0);
        assert_close(s.objective, 0.0);
    }

    #[test]
    fn degenerate_lp_terminates() {
        // Classic degenerate example (multiple identical corners).
        let mut lp = LpBuilder::new(3);
        lp.objective(&[-0.75, 150.0, -0.02]);
        lp.constraint(&[0.25, -60.0, -0.04], Relation::Le, 0.0);
        lp.constraint(&[0.5, -90.0, -0.02], Relation::Le, 0.0);
        lp.constraint(&[0.0, 0.0, 1.0], Relation::Le, 1.0);
        let s = lp.solve().unwrap();
        assert!(s.objective.is_finite());
    }

    #[test]
    fn transportation_like_lp() {
        // 2 items to 2 bins, assignment rows Eq, capacity rows Le.
        // Vars: x00 x01 x10 x11; costs 1,3,2,1.
        let mut lp = LpBuilder::new(4);
        lp.objective(&[1.0, 3.0, 2.0, 1.0]);
        lp.constraint(&[1.0, 1.0, 0.0, 0.0], Relation::Eq, 1.0);
        lp.constraint(&[0.0, 0.0, 1.0, 1.0], Relation::Eq, 1.0);
        lp.constraint(&[1.0, 0.0, 1.0, 0.0], Relation::Le, 1.0);
        lp.constraint(&[0.0, 1.0, 0.0, 1.0], Relation::Le, 1.0);
        let s = lp.solve().unwrap();
        // Optimal: item0->bin0 (1), item1->bin1 (1) => 2.
        assert_close(s.objective, 2.0);
    }

    #[test]
    fn redundant_equalities_ok() {
        let mut lp = LpBuilder::new(2);
        lp.objective(&[1.0, 2.0]);
        lp.constraint(&[1.0, 1.0], Relation::Eq, 2.0);
        lp.constraint(&[2.0, 2.0], Relation::Eq, 4.0); // redundant copy
        let s = lp.solve().unwrap();
        assert_close(s.objective, 2.0); // x=2, y=0
    }

    #[test]
    fn solution_within_bounds() {
        let mut lp = LpBuilder::new(3);
        lp.objective(&[-1.0, -1.0, -1.0]);
        lp.constraint(&[1.0, 0.0, 0.0], Relation::Le, 2.0);
        lp.constraint(&[0.0, 1.0, 0.0], Relation::Le, 3.0);
        lp.constraint(&[0.0, 0.0, 1.0], Relation::Le, 4.0);
        let s = lp.solve().unwrap();
        assert_close(s.objective, -9.0);
        for v in &s.x {
            assert!(*v >= -1e-9);
        }
    }

    #[test]
    #[should_panic(expected = "variables")]
    fn dimension_mismatch_panics() {
        let mut lp = LpBuilder::new(2);
        lp.constraint(&[1.0], Relation::Le, 1.0);
    }

    #[test]
    fn duals_satisfy_strong_duality() {
        // max x + 2y s.t. x+y<=4, y<=3  (min -x-2y): y* = (-1, -1),
        // b·y = 4(-1) + 3(-1) = -7 = objective.
        let mut lp = LpBuilder::new(2);
        lp.objective(&[-1.0, -2.0]);
        lp.constraint(&[1.0, 1.0], Relation::Le, 4.0);
        lp.constraint(&[0.0, 1.0], Relation::Le, 3.0);
        let s = lp.solve().unwrap();
        let by: f64 = 4.0 * s.duals[0] + 3.0 * s.duals[1];
        assert_close(by, s.objective);
        assert_close(s.duals[0], -1.0);
        assert_close(s.duals[1], -1.0);
    }

    #[test]
    fn duals_for_ge_and_eq_rows() {
        // min 2x+3y s.t. x+y >= 5, x <= 3: x=3, y=2, obj 12.
        // Duals: y_ge = 3 (marginal unit of demand costs 3 via y),
        // y_le = -1 (one more unit of x-capacity saves 3-2=1).
        let mut lp = LpBuilder::new(2);
        lp.objective(&[2.0, 3.0]);
        lp.constraint(&[1.0, 1.0], Relation::Ge, 5.0);
        lp.constraint(&[1.0, 0.0], Relation::Le, 3.0);
        let s = lp.solve().unwrap();
        assert_close(5.0 * s.duals[0] + 3.0 * s.duals[1], s.objective);
        assert_close(s.duals[0], 3.0);
        assert_close(s.duals[1], -1.0);

        // Equality version: min x+y s.t. x+2y = 4 -> y=2 obj 2; dual 0.5.
        let mut lp2 = LpBuilder::new(2);
        lp2.objective(&[1.0, 1.0]);
        lp2.constraint(&[1.0, 2.0], Relation::Eq, 4.0);
        let s2 = lp2.solve().unwrap();
        assert_close(s2.duals[0], 0.5);
        assert_close(4.0 * s2.duals[0], s2.objective);
    }

    #[test]
    fn complementary_slackness() {
        // Slack constraint (y <= 3 not tight when y* < 3) has dual 0.
        let mut lp = LpBuilder::new(2);
        lp.objective(&[-1.0, -2.0]);
        lp.constraint(&[1.0, 1.0], Relation::Le, 4.0);
        lp.constraint(&[0.0, 1.0], Relation::Le, 30.0); // never tight
        let s = lp.solve().unwrap();
        assert_close(s.duals[1], 0.0);
    }

    #[test]
    fn error_display() {
        assert_eq!(
            LpError::Infeasible.to_string(),
            "linear program is infeasible"
        );
        assert_eq!(
            LpError::Unbounded.to_string(),
            "linear program is unbounded"
        );
    }
}
