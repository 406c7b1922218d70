//! Generalized Assignment Problem solvers.
//!
//! The paper's `Appro` algorithm reduces service caching to GAP and invokes
//! the Shmoys–Tardos approximation \[34\]. This crate implements:
//!
//! * [`instance`] — GAP instances (one weight per item, the same in every
//!   bin) and assignments,
//! * [`flow`] — the bipartite transportation solver (successive shortest
//!   paths from one item at a time) behind both the relaxation and the
//!   rounding's matching,
//! * [`lp_relax`] — the LP relaxation, solved as a transportation problem,
//!   with its optimal duals (capacity shadow prices) read off the flow's
//!   final potentials,
//! * [`shmoys_tardos`] — the LP rounding with its cost / augmented-capacity
//!   guarantees,
//! * [`verify`] — first-principles certificates for relaxations (duality)
//!   and rounded assignments,
//! * [`greedy`] — a regret heuristic (ablation baseline),
//! * [`exact`] — branch-and-bound optimum for small instances (testing).
//!
//! The relaxation is differential-tested against the general simplex of
//! `mec-lp` (a dev-dependency only); `cargo test -p mec-gap --features
//! mec-lp/verify` certifies every one of those oracle solves optimal.
//!
//! # Examples
//!
//! ```
//! use mec_gap::{GapInstance, shmoys_tardos};
//!
//! let mut inst = GapInstance::new(3, 2);
//! for i in 0..3 {
//!     inst.set_cost(i, 0, 1.0 + i as f64);
//!     inst.set_cost(i, 1, 2.0);
//!     inst.set_item_weight(i, 1.0);
//! }
//! inst.set_capacity(0, 2.0);
//! inst.set_capacity(1, 2.0);
//! let sol = shmoys_tardos::solve(&inst)?;
//! assert!(sol.assignment_cost <= sol.lp_objective + 1e-6);
//! # Ok::<(), mec_gap::GapError>(())
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod exact;
pub mod flow;
pub mod greedy;
pub mod instance;
pub mod lp_relax;
pub mod shmoys_tardos;
pub mod swap;
pub mod verify;

pub use instance::{Assignment, GapInstance, FORBIDDEN};
pub use lp_relax::{FractionalSolution, GapError};
pub use shmoys_tardos::StSolution;
pub use swap::{improve, SwapResult};
pub use verify::{check_assignment, check_relaxation, GapViolation};
