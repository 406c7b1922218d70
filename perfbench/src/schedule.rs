//! Seeded request schedules for the serve workloads.
//!
//! A schedule is fixed before the daemon boots: the warm-up join set and
//! an open-loop list of timed operations. It depends only on the seed,
//! the rate and the run length, never on replies, so one seed always
//! yields byte-identical schedules ([`Schedule::to_bytes`]). Whether a
//! toggle goes on the wire as a join or a leave is decided at send time
//! from the replies received so far; see `loadgen`.

use mec_scenario::Mix;

/// Share of `serve_churn` requests that are writes.
pub const CHURN_WRITE_SHARE: f64 = 0.70;
/// Share of `serve_churn` writes that are `update_demand`.
pub const CHURN_UPDATE_SHARE: f64 = 0.05;
/// Length of one sub-run's timed phase, in seconds. It is fixed, so a
/// schedule's shape never depends on the run length; it is short, so a
/// run replays many independently seeded schedules, each against its own
/// warmed-up market.
pub const SUBRUN_SECONDS: f64 = 1.0;

/// What one scheduled operation asks for.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Kind {
    /// Read the provider's placement.
    Query,
    /// Join if the provider is not admitted, leave if it is.
    Toggle,
    /// Re-declare demand as these multiples of the generated demand.
    Update {
        /// Compute-demand multiplier.
        compute: f64,
        /// Bandwidth-demand multiplier.
        bandwidth: f64,
    },
}

impl Kind {
    /// `true` for every kind that goes on the write connection.
    pub fn is_write(self) -> bool {
        !matches!(self, Kind::Query)
    }
}

/// One timed operation.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Op {
    /// Scheduled send time, nanoseconds after the timed phase starts.
    pub at_ns: u64,
    /// Target provider.
    pub provider: u32,
    /// What to send.
    pub kind: Kind,
}

/// Warm-up joins plus the timed operation list.
#[derive(Debug, Clone, PartialEq)]
pub struct Schedule {
    /// Providers joined (closed loop) before the timed phase.
    pub warm: Vec<u32>,
    /// Timed operations, sorted by `at_ns`.
    pub ops: Vec<Op>,
}

impl Schedule {
    /// Canonical little-endian encoding; equal schedules have equal bytes.
    pub fn to_bytes(&self) -> Vec<u8> {
        let mut out = Vec::with_capacity(8 + 4 * self.warm.len() + 29 * self.ops.len());
        out.extend_from_slice(&(self.warm.len() as u64).to_le_bytes());
        for p in &self.warm {
            out.extend_from_slice(&p.to_le_bytes());
        }
        for op in &self.ops {
            out.extend_from_slice(&op.at_ns.to_le_bytes());
            out.extend_from_slice(&op.provider.to_le_bytes());
            let (tag, a, b) = match op.kind {
                Kind::Query => (0u8, 0.0, 0.0),
                Kind::Toggle => (1, 0.0, 0.0),
                Kind::Update { compute, bandwidth } => (2, compute, bandwidth),
            };
            out.push(tag);
            out.extend_from_slice(&f64::to_bits(a).to_le_bytes());
            out.extend_from_slice(&f64::to_bits(b).to_le_bytes());
        }
        out
    }

    /// FNV-1a hash of [`Schedule::to_bytes`], printed so two runs can
    /// show they replayed the same inputs.
    pub fn fingerprint(&self) -> u64 {
        self.to_bytes().iter().fold(0xcbf2_9ce4_8422_2325, |h, &b| {
            (h ^ u64::from(b)).wrapping_mul(0x0100_0000_01b3)
        })
    }

    /// Number of scheduled writes.
    pub fn writes(&self) -> usize {
        self.ops.iter().filter(|o| o.kind.is_write()).count()
    }
}

fn slot_ns(k: u64, rate: u64) -> u64 {
    (u128::from(k) * 1_000_000_000 / u128::from(rate)) as u64
}

fn below(mix: &mut Mix, n: usize) -> usize {
    (mix.next_u64() % n as u64) as usize
}

/// `serve_churn`: `rate` requests per second for `seconds`, evenly spaced;
/// 70 % writes (5 % of them `update_demand`, the rest join/leave
/// toggles) and 30 % queries over uniformly drawn providers. Half the
/// providers, drawn from the seed, join during warm-up.
///
/// A provider gets no second write within `providers / 2` write slots of
/// its last one, so independent providers do not queue behind their own
/// previous write unless the daemon stalls for that long.
pub fn churn(seed: u64, providers: usize, rate: u64, seconds: f64) -> Schedule {
    let mut mix = Mix::new(seed ^ 0xC4_07A1);
    let mut order: Vec<u32> = (0..providers as u32).collect();
    for i in (1..order.len()).rev() {
        order.swap(i, below(&mut mix, i + 1));
    }
    let warm = order[..providers / 2].to_vec();

    let total = (rate as f64 * seconds).round() as u64;
    let spacing = (providers / 2) as u64;
    let mut last_write = vec![None::<u64>; providers];
    let mut writes = 0u64;
    let mut ops = Vec::with_capacity(total as usize);
    for k in 0..total {
        let at_ns = slot_ns(k, rate);
        if mix.next_f64() >= CHURN_WRITE_SHARE {
            ops.push(Op {
                at_ns,
                provider: below(&mut mix, providers) as u32,
                kind: Kind::Query,
            });
            continue;
        }
        let provider = loop {
            let p = below(&mut mix, providers);
            if last_write[p].is_none_or(|w| writes - w >= spacing) {
                break p;
            }
        };
        last_write[provider] = Some(writes);
        writes += 1;
        let kind = if mix.next_f64() < CHURN_UPDATE_SHARE {
            Kind::Update {
                compute: 0.5 + mix.next_f64(),
                bandwidth: 0.5 + mix.next_f64(),
            }
        } else {
            Kind::Toggle
        };
        ops.push(Op {
            at_ns,
            provider: provider as u32,
            kind,
        });
    }
    Schedule { warm, ops }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn one_seed_gives_byte_identical_schedules() {
        let a = churn(7, 1000, 10_000, SUBRUN_SECONDS).to_bytes();
        let b = churn(7, 1000, 10_000, SUBRUN_SECONDS).to_bytes();
        assert_eq!(a, b);
        assert_ne!(a, churn(8, 1000, 10_000, SUBRUN_SECONDS).to_bytes());
    }

    #[test]
    fn churn_mix_and_spacing_hold() {
        let s = churn(3, 1000, 30_000, 1.0);
        assert_eq!(s.ops.len(), 30_000);
        assert_eq!(s.warm.len(), 500);
        let share = s.writes() as f64 / s.ops.len() as f64;
        assert!(
            (share - CHURN_WRITE_SHARE).abs() < 0.02,
            "write share {share}"
        );
        let mut last = vec![None::<usize>; 1000];
        for (w, op) in s.ops.iter().filter(|o| o.kind.is_write()).enumerate() {
            let p = op.provider as usize;
            assert!(
                last[p].is_none_or(|l| w - l >= 500),
                "provider {p} rewritten too soon"
            );
            last[p] = Some(w);
        }
    }
}
