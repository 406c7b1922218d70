//! Stable service caching in mobile edge-clouds of a service market —
//! the paper's primary contribution.
//!
//! This crate implements the market model and both halves of the
//! approximation-restricted Stackelberg framework:
//!
//! * [`model`] — cloudlets, providers, and the congestion cost model
//!   (Eq. 1–3);
//! * [`strategy`] — placements, profiles, social cost (Eq. 5–6);
//! * [`game`] — the affine congestion game, Rosenthal potential, and
//!   best-response dynamics (Lemma 3);
//! * [`state`] — incremental game state: `O(1)` move application with
//!   maintained congestion, loads, and residuals (what the dynamics and
//!   every other hot path run on);
//! * [`appro`](mod@appro) — Algorithm 1, the GAP-based approximation for non-selfish
//!   players with its `2δκ` ratio (Lemma 2);
//! * [`lcf`](mod@lcf) — Algorithm 2, the Largest-Cost-First Stackelberg strategy;
//! * [`poa`] — Theorem 1's Price-of-Anarchy bound and an empirical
//!   estimator;
//! * [`opt`] — exact social optimum for small markets (validation).
//!
//! Extensions beyond the paper's minimum (see DESIGN.md):
//! [`congestion`] (non-linear cost models), [`weighted`] (load-weighted
//! game), [`dynamics`] (market churn), [`incentives`] (bulk-lease
//! viability), [`local_search`] (social-cost polish), and [`analysis`]
//! (cost breakdown / load balance).
//!
//! # Examples
//!
//! ```
//! use mec_core::lcf::{lcf, LcfConfig};
//! use mec_core::model::{CloudletSpec, Market, ProviderSpec};
//!
//! let mut builder = Market::builder()
//!     .cloudlet(CloudletSpec::new(20.0, 100.0, 0.5, 0.5))
//!     .cloudlet(CloudletSpec::new(25.0, 120.0, 0.3, 0.4));
//! for _ in 0..10 {
//!     builder = builder.provider(ProviderSpec::new(2.0, 10.0, 1.0, 30.0));
//! }
//! let market = builder.uniform_update_cost(0.3).build();
//!
//! // Coordinate 70 % of the providers, let the rest play selfishly.
//! let outcome = lcf(&market, &LcfConfig::new(0.7))?;
//! assert!(outcome.convergence.converged);
//! assert!(outcome.profile.is_feasible(&market));
//! # Ok::<(), mec_core::CoreError>(())
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod analysis;
pub mod appro;
pub mod congestion;
pub mod dynamics;
pub mod error;
pub mod game;
pub mod incentives;
pub mod lcf;
pub mod local_search;
pub mod model;
pub mod opt;
pub mod poa;
pub mod snapshot;
pub mod state;
pub mod strategy;
pub mod verify;
pub mod weighted;

pub use analysis::{cost_breakdown, load_balance, CostBreakdown, LoadBalance};
pub use appro::{
    appro, approximation_ratio_bound, cloudlet_capacity_values, ApproConfig, ApproSolution,
    SlotPricing, SplitMode,
};
pub use congestion::{CongestionModel, GeneralizedGame};
pub use dynamics::{ChurnEvent, ChurnSimulation, ReplanStrategy, StepReport};
pub use error::{CacheError, CoreError};
pub use game::{
    best_response, is_nash, is_nash_state, BestResponseDynamics, Convergence, MoveOrder,
};
pub use incentives::{incentive_report, IncentiveReport};
pub use lcf::{lcf, LcfConfig, LcfOutcome, SelectionRule};
pub use local_search::{social_local_search, LocalSearchResult};
pub use model::{CloudletSpec, Market, MarketBuilder, ProviderId, ProviderSpec};
pub use poa::{best_poa_bound, estimate_poa, market_poa_bound, poa_bound, PoaEstimate};
pub use snapshot::{
    encode_snapshot, load_snapshot, parse_snapshot, save_snapshot, MarketSnapshot, SnapshotError,
};
pub use state::GameState;
pub use strategy::{Placement, Profile};
pub use verify::{
    check_capacity, check_congestion, check_cost_reconstruction, check_nash, check_nash_in,
    check_state, Certificate, Violation,
};
pub use weighted::WeightedGame;

// Re-export the shared float-comparison helpers so downstream crates can
// `use mec_core::{approx_eq, ...}` without depending on `mec-num` directly.
pub use mec_num::{approx_eq, approx_ge, approx_le, approx_zero};
