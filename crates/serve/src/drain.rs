//! Socket-free data-plane drain benchmark.
//!
//! The live `marketload` smoke numbers measure the whole daemon — client
//! syscalls, the poll loop, and the writer threads together — which on a
//! small host is dominated by per-request wakeups and says little about
//! the market data plane itself. This bench isolates the writer path: it
//! boots the same `ShardSet` the daemon does, routes a seeded
//! join/leave churn stream straight into the per-shard command queues
//! (exactly how the I/O threads route, owner lookup through the router)
//! *before* the writers start, and queues the drain behind it; the clock
//! then runs from writer start to the end of the coordinated drain —
//! final equilibrium convergence included, since shrinking those
//! maintenance sweeps is half the point of region sharding.
//!
//! Preloading makes this a saturation measurement: every queue stays
//! deep for the whole run, channel wakeups amortize across maximal
//! batches, and no shard burns idle-gap quanta merely because the OS
//! descheduled the producer. What remains is the real per-command work —
//! the Eq. 4–5 admission scan over the owning shard's region (1/N of
//! the cloudlets at N shards) and the Lemma 3 best-response convergence
//! over the shard's own providers. This is the workload behind the CI
//! shard-scaling gate (`cargo xtask tailgate scale`).

use std::sync::Arc;
use std::time::{Duration, Instant};

use mec_core::model::Market;

use crate::chan;
use crate::demand::DemandTracker;
use crate::market::{Command, Reply};
use crate::shard::{BootState, ShardSet};

/// Knobs of [`drain_bench`].
#[derive(Debug, Clone)]
pub struct DrainConfig {
    /// Market shards (writer threads); clamped to the cloudlet count.
    pub shards: usize,
    /// Join/leave commands to push through the data plane.
    pub commands: usize,
    /// RNG seed for the churn stream.
    pub seed: u64,
}

impl Default for DrainConfig {
    fn default() -> Self {
        DrainConfig {
            shards: 1,
            commands: 100_000,
            seed: 1,
        }
    }
}

/// What [`drain_bench`] measured.
#[derive(Debug)]
pub struct DrainReport {
    /// Shards the market ran with.
    pub shards: usize,
    /// Commands pushed (joins + leaves).
    pub commands: usize,
    /// Writer start to last shard joined — includes the final
    /// equilibrium convergence and the coordinated drain.
    pub elapsed: Duration,
    /// Commands settled per shard (from the write gauges; forwarded
    /// joins count at the shard that settled them).
    pub per_shard: Vec<u64>,
    /// Total best-response epochs across shards.
    pub epochs: u64,
    /// Total improving moves across shards.
    pub moves: u64,
    /// Whether every shard drained at an active-player equilibrium.
    pub equilibrium: bool,
    /// Drain certificate violations (non-empty only with `verify`).
    pub violations: Vec<String>,
}

impl DrainReport {
    /// Write commands per second of wall time.
    pub fn write_ops_per_sec(&self) -> f64 {
        let s = self.elapsed.as_secs_f64();
        if s > 0.0 {
            self.commands as f64 / s
        } else {
            0.0
        }
    }

    /// The flat JSON row consumed by `cargo xtask tailgate scale`.
    pub fn to_json(&self) -> String {
        use std::fmt::Write;
        let mut out = String::with_capacity(256);
        let _ = write!(
            out,
            "{{\"benchmark\":\"serve-drain\",\"shards\":{},\"commands\":{},\
             \"elapsed_s\":{},\"write_ops_per_sec\":{},\"epochs\":{},\"moves\":{},\
             \"equilibrium\":{}",
            self.shards,
            self.commands,
            self.elapsed.as_secs_f64(),
            self.write_ops_per_sec(),
            self.epochs,
            self.moves,
            u8::from(self.equilibrium),
        );
        for (k, w) in self.per_shard.iter().enumerate() {
            let _ = write!(out, ",\"s{k}_writes\":{w}");
        }
        out.push('}');
        out
    }
}

/// `splitmix64` — the stream must be identical across shard counts so
/// the scaling ratio compares like with like.
fn next_rand(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Runs the drain benchmark over `market`.
///
/// `regions` is the cloudlet→shard map (`None` derives a contiguous
/// split); pass `MecNetwork::regions(shards)` for the spatial partition
/// the daemon uses.
///
/// # Errors
///
/// Propagates an invalid region map.
pub fn drain_bench(
    market: Market,
    regions: Option<Vec<usize>>,
    cfg: &DrainConfig,
) -> std::io::Result<DrainReport> {
    let n = market.provider_count();
    // Queues sized to the stream: the preload never blocks, and every
    // writer sees saturation depth from its first batch to its last. No
    // I/O side notes queries, so the demand tracker stays inert.
    let mut set = ShardSet::boot(
        BootState::fresh(market),
        cfg.shards,
        regions.as_ref(),
        cfg.commands + 2,
        None,
        Arc::new(DemandTracker::disabled()),
        1,
    )?;
    let shards = set.txs.len();

    // Preload: route by owner lookup, exactly like an I/O thread. The
    // stream is identical across shard counts (same seed, same order);
    // only the routing differs. Ownership that moves mid-drain (a
    // forwarded join) is chased by the receiving shard — the normal
    // stale-route path.
    let mut rng = cfg.seed;
    let mut joined = vec![false; n];
    for _ in 0..cfg.commands {
        let p = (next_rand(&mut rng) % n as u64) as usize;
        let (tx, _rx) = chan::oneshot();
        let cmd = if joined[p] {
            joined[p] = false;
            Command::Leave {
                provider: p,
                reply: Reply::Oneshot(tx),
            }
        } else {
            joined[p] = true;
            Command::Join {
                provider: p,
                cloudlet: None,
                reply: Reply::Oneshot(tx),
            }
        };
        let k = set.router.owner(p).min(shards - 1);
        let _ = set.txs[k].send(cmd);
    }
    // The coordinated drain rides at the back of every queue.
    set.shutdown();

    let started = Instant::now();
    set.start(|| {});
    let gauges = set.gauges.clone();
    let outcome = set.join();
    Ok(DrainReport {
        shards,
        commands: cfg.commands,
        elapsed: started.elapsed(),
        per_shard: (0..shards).map(|k| gauges.writes(k)).collect(),
        epochs: outcome.epochs,
        moves: outcome.moves,
        equilibrium: outcome.equilibrium,
        violations: outcome.violations,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use mec_workload::{gtitm_scenario, Params};

    fn small_market() -> Market {
        gtitm_scenario(60, &Params::paper().with_providers(24), 7)
            .generated
            .market
    }

    #[test]
    fn drains_all_commands_single_shard() {
        let r = drain_bench(
            small_market(),
            None,
            &DrainConfig {
                commands: 400,
                ..DrainConfig::default()
            },
        )
        .unwrap();
        assert_eq!(r.shards, 1);
        assert_eq!(r.per_shard.iter().sum::<u64>(), 400);
        assert!((r.write_ops_per_sec() - 400.0 / r.elapsed.as_secs_f64()).abs() < 1e-6);
        assert!(r.equilibrium, "drain must end at equilibrium");
        assert!(r.violations.is_empty(), "{:?}", r.violations);
    }

    #[test]
    fn drains_all_commands_sharded() {
        let r = drain_bench(
            small_market(),
            None,
            &DrainConfig {
                shards: 3,
                commands: 400,
                ..DrainConfig::default()
            },
        )
        .unwrap();
        assert_eq!(r.shards, 3);
        // Forwarded joins settle on a peer, but nothing is lost; an idle
        // rebalance migration can settle extra writes on top.
        assert!(r.per_shard.iter().sum::<u64>() >= 400);
        assert!(r.equilibrium, "drain must end at equilibrium");
        assert!(r.violations.is_empty(), "{:?}", r.violations);
    }

    #[test]
    fn json_row_is_flat_and_parseable() {
        let r = DrainReport {
            shards: 2,
            commands: 10,
            elapsed: Duration::from_millis(5),
            per_shard: vec![6, 4],
            epochs: 3,
            moves: 2,
            equilibrium: true,
            violations: Vec::new(),
        };
        let j = r.to_json();
        assert!(j.contains("\"benchmark\":\"serve-drain\""));
        assert!(j.contains("\"shards\":2"));
        assert!(j.contains("\"write_ops_per_sec\":2000"));
        assert!(j.contains("\"s1_writes\":4"));
    }
}
