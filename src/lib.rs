//! Umbrella crate for the MEC service-caching reproduction.
//!
//! Re-exports every subsystem crate under a short path. See the workspace
//! README for the architecture overview and `examples/` for runnable
//! demonstrations of the public API.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub use mec_baselines as baselines;
pub use mec_core as core;
pub use mec_gap as gap;
pub use mec_sim as sim;
pub use mec_testbed as testbed;
pub use mec_topology as topology;
pub use mec_workload as workload;
