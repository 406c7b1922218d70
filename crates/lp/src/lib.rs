//! A two-phase primal-simplex linear-programming solver with a
//! certificate of optimality.
//!
//! The Shmoys–Tardos approximation algorithm for the Generalized Assignment
//! Problem (used by the paper's `Appro` algorithm) needs the optimal solution
//! of an LP relaxation. Appro's relaxation is a transportation problem, and
//! `mec-gap` solves it, duals included, with a flow; this crate is the
//! independent general LP solver that flow is tested against. It is a
//! dev-dependency of `mec-gap` (the oracle of its relaxation proptests) and
//! of `mec-bench` (a substrate bench), and no library or binary of the
//! workspace links it.
//!
//! [`LpBuilder::solve`] runs a deterministic **sparse revised simplex**
//! (column-wise sparse storage, product-form basis updates, Bland's rule
//! as an anti-cycling fallback), built for large, very sparse assignment
//! LPs. Its answer carries its own proof: [`check_solution`] re-checks
//! primal feasibility, dual feasibility (row signs and reduced costs) and
//! the duality gap from the problem data alone, which together certify
//! that the solution is optimal. The `verify` feature runs that check on
//! every solve.
//!
//! The solver handles problems of the form
//!
//! ```text
//! minimize    c · x
//! subject to  A_i · x  (≤ | = | ≥)  b_i     for every row i
//!             x ≥ 0
//! ```
//!
//! # Examples
//!
//! ```
//! use mec_lp::{LpBuilder, Relation};
//!
//! // minimize  -x - 2y   s.t.  x + y <= 4,  y <= 3,  x,y >= 0
//! let mut lp = LpBuilder::new(2);
//! lp.objective(&[-1.0, -2.0]);
//! lp.constraint(&[1.0, 1.0], Relation::Le, 4.0);
//! lp.constraint(&[0.0, 1.0], Relation::Le, 3.0);
//! let sol = lp.solve().unwrap();
//! assert!((sol.objective - (-7.0)).abs() < 1e-9); // x=1, y=3
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub(crate) mod revised;
pub mod simplex;
pub mod verify;

pub use simplex::{LpBuilder, LpError, LpSolution, Relation};
pub use verify::{check_solution, LpViolation};
