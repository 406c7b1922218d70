//! A live service-market daemon for the MEC caching game.
//!
//! Everything else in the workspace evaluates the mechanism offline: fix
//! a market, run the dynamics, measure the equilibrium. This crate turns
//! the same machinery into an online system — a TCP daemon where service
//! providers join, leave, and reshape their demand while the market stays
//! stable:
//!
//! * [`proto`] — the length-prefixed JSONL wire protocol (shares its JSON
//!   escaping/number rules with the observability traces via
//!   [`mec_obs::json`]);
//! * [`chan`] — hand-rolled bounded MPSC + oneshot channels (std-only; the
//!   vendored tree has no channel crate);
//! * [`view`] — immutable published snapshots for reader threads;
//! * [`demand`] — the demand-observation layer: I/O threads note every
//!   answered query into a shared tracker, shard writers fold the counts
//!   into per-service EWMAs each maintenance quantum and scan providers
//!   hottest-first (demand-driven re-caching);
//! * [`scenario`] — replays a [`mec_scenario::Trace`] (Zipf popularity,
//!   diurnal cycles, flash crowds, drift) against a live writer thread,
//!   scoring cache hits and observed re-cache moves;
//! * [`eventloop`] — the poll-based I/O loop (vendored `poll(2)` shim,
//!   nonblocking sockets, per-connection buffers, ordered completions);
//! * [`market`] — the shard writer: batched admission control against
//!   the incremental [`mec_core::GameState`] residuals (Eq. 4–5),
//!   preemptible best-response *maintenance quanta* between queue drains
//!   (Lemma 3), versioned crash-recovery snapshots;
//! * [`shard`] — region-keyed market sharding: the one boot path for a
//!   set of shard writers, the provider→shard router, cross-shard
//!   migration bookkeeping, and coordinated multi-shard snapshot
//!   manifests;
//! * [`admin`] — the std-only HTTP/1.1 admin surface: Prometheus
//!   `/metrics`, live placement/residual/shard inspection, and
//!   validated topology hot-reload;
//! * [`server`] — acceptor + event-loop I/O threads over `std::net`;
//! * [`client`] — a blocking protocol client;
//! * [`load`] — the `marketload` engine: concurrent churn-scripted
//!   sessions with per-op latency histograms;
//! * [`drain`] — the socket-free data-plane drain benchmark behind the
//!   CI shard-scaling gate.
//!
//! Build with `--features verify` to re-certify the drained placement
//! (capacity + Nash certificates) on shutdown, and `--features obs` to
//! arm the observability probes.

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod admin;
pub mod chan;
pub mod client;
pub mod demand;
pub mod drain;
pub mod eventloop;
pub mod load;
pub mod market;
pub mod proto;
pub mod scenario;
pub mod server;
pub mod shard;
pub mod view;

pub use client::Client;
pub use demand::{DemandTracker, DEMAND_EWMA_ALPHA};
pub use drain::{drain_bench, DrainConfig, DrainReport};
pub use load::{run_load, LoadConfig, LoadReport};
pub use market::MarketOutcome;
pub use proto::{Request, Response, StatsReport};
pub use scenario::{run_scenario, ScenarioReport};
pub use server::{serve, ServerConfig, ServerHandle};
pub use view::{MarketView, SharedView};
