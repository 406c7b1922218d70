//! Exact order statistics, the host-speed reference, and the `/proc`
//! readers for CPU time, host steal and resident memory (no FFI: the
//! crate forbids unsafe code).

use std::time::Instant;

use crate::report::Report;

/// Nearest-rank quantile of raw samples (`q` in `[0, 1]`), with the
/// sample count. Sorts in place. `None` when there are no samples.
pub fn quantile(samples: &mut [u64], q: f64) -> Option<u64> {
    if samples.is_empty() {
        return None;
    }
    samples.sort_unstable();
    let rank = (q * samples.len() as f64).ceil().max(1.0) as usize;
    Some(samples[rank.min(samples.len()) - 1])
}

/// Median of floating-point values (mean of the middle pair when even).
pub fn median(values: &[f64]) -> f64 {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    match v.len() {
        0 => 0.0,
        n if n % 2 == 1 => v[n / 2],
        n => (v[n / 2 - 1] + v[n / 2]) / 2.0,
    }
}

/// Nanoseconds since a run's origin.
#[derive(Debug, Clone, Copy)]
pub struct Clock(pub Instant);

impl Clock {
    /// Nanoseconds elapsed since the origin (0 before it).
    pub fn now(&self) -> u64 {
        Instant::now()
            .checked_duration_since(self.0)
            .map_or(0, |d| d.as_nanos() as u64)
    }
}

/// CPU time the calling thread has run, in nanoseconds
/// (`/proc/thread-self/schedstat`).
pub fn thread_cpu_ns() -> u64 {
    read_schedstat("/proc/thread-self/schedstat").unwrap_or(0)
}

fn read_schedstat(path: &str) -> Option<u64> {
    std::fs::read_to_string(path)
        .ok()?
        .split_whitespace()
        .next()?
        .parse()
        .ok()
}

/// CPU nanoseconds of every thread of this process except the main one,
/// keyed by thread id.
pub fn other_threads_cpu_ns() -> Vec<(u32, u64)> {
    let main = std::process::id();
    let Ok(dir) = std::fs::read_dir("/proc/self/task") else {
        return Vec::new();
    };
    let mut out = Vec::new();
    for entry in dir.flatten() {
        let Some(tid) = entry
            .file_name()
            .to_str()
            .and_then(|s| s.parse::<u32>().ok())
        else {
            continue;
        };
        if tid == main {
            continue;
        }
        if let Some(ns) = read_schedstat(&format!("/proc/self/task/{tid}/schedstat")) {
            out.push((tid, ns));
        }
    }
    out
}

/// CPU the threads in `before` ran between the two snapshots.
pub fn cpu_delta_ns(before: &[(u32, u64)], after: &[(u32, u64)]) -> u64 {
    before
        .iter()
        .filter_map(|&(tid, b)| {
            after
                .iter()
                .find(|&&(t, _)| t == tid)
                .map(|&(_, a)| a.saturating_sub(b))
        })
        .sum()
}

/// The machine's host-steal and total CPU ticks at one instant
/// (`/proc/stat`).
#[derive(Debug, Clone, Copy)]
pub struct StealMark(u64, u64);

impl StealMark {
    /// Reads the counters now.
    pub fn now() -> StealMark {
        let stat = std::fs::read_to_string("/proc/stat").unwrap_or_default();
        let fields: Vec<u64> = stat
            .lines()
            .next()
            .unwrap_or("")
            .split_whitespace()
            .skip(1)
            .filter_map(|f| f.parse().ok())
            .collect();
        StealMark(fields.get(7).copied().unwrap_or(0), fields.iter().sum())
    }

    /// Share of the CPU time since the mark that the host stole.
    pub fn share(&self) -> f64 {
        let now = StealMark::now();
        now.0.saturating_sub(self.0) as f64 / now.1.saturating_sub(self.1).max(1) as f64
    }
}

/// Wall time of one [`reference_s`] pass on a quiet reference host (the
/// 2-vCPU Xeon VM the benchmark was tuned on). Normalized timings are
/// in seconds of that host.
pub const REFERENCE_NOMINAL_S: f64 = 0.020;

/// Elements of the reference loop's buffer: 1 MiB of `u64`, about the
/// size of the LCF solver's cost matrix.
const REFERENCE_LEN: usize = 1 << 17;

/// Times one pass of the reference loop: eight rounds of filling `buf`
/// with pseudo-random `u64` and sorting it. With a 1 MiB buffer a busy
/// host slows the loop about as much as it slows the solver; an 8 MiB
/// version slowed half as much again as the solves did. The loop is the
/// benchmark's own code, which no change to the program touches, so its
/// time tracks only how fast the host runs this process at the moment.
pub fn reference_s(buf: &mut [u64]) -> f64 {
    let t0 = Instant::now();
    let mut x: u64 = 0x9E37_79B9_7F4A_7C15;
    for _ in 0..8 {
        for e in buf.iter_mut() {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            *e = x;
        }
        buf.sort_unstable();
        std::hint::black_box(&buf);
    }
    t0.elapsed().as_secs_f64()
}

/// How fast the host ran a run, from [`reference_s`] passes spread over
/// it. On a shared host the speed of a CPU-bound computation drifts by
/// tens of percent over minutes, with neighbours' load; a timing of such
/// a computation multiplied by [`HostSpeed::factor`] is in seconds of
/// the reference host, and moves only when the program's work does.
#[derive(Debug, Default)]
pub struct HostSpeed {
    passes: Vec<f64>,
    /// The reference loop's buffer, allocated once so that the loop adds
    /// a constant 1 MiB to the run's peak memory.
    buf: Vec<u64>,
}

impl HostSpeed {
    /// Times one reference pass.
    pub fn sample(&mut self) {
        self.buf.resize(REFERENCE_LEN, 0);
        self.passes.push(reference_s(&mut self.buf));
    }

    /// [`REFERENCE_NOMINAL_S`] over the median pass (1 before any pass).
    pub fn factor(&self) -> f64 {
        if self.passes.is_empty() {
            return 1.0;
        }
        REFERENCE_NOMINAL_S / median(&self.passes)
    }

    /// Records `name` as `raw` seconds normalized to the reference host,
    /// and notes the raw value beside it.
    pub fn record(&self, rep: &mut Report, name: &'static str, raw: f64, samples: usize) {
        rep.set_n(name, raw * self.factor(), samples);
        rep.note(format!("{name}: {raw:.6} s as measured"));
    }

    /// Notes the factor and what it rests on.
    pub fn note(&self, rep: &mut Report) {
        rep.note(format!(
            "host speed: reference loop median {:.3} ms over {} passes (nominal {:.1} ms), factor {:.4}",
            median(&self.passes) * 1e3,
            self.passes.len(),
            REFERENCE_NOMINAL_S * 1e3,
            self.factor()
        ));
    }
}

/// Peak resident set size of this process in MiB (`VmHWM`).
pub fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find_map(|l| l.strip_prefix("VmHWM:"))
                .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nearest_rank_quantiles() {
        let mut v: Vec<u64> = (1..=100).rev().collect();
        assert_eq!(quantile(&mut v, 0.5), Some(50));
        assert_eq!(quantile(&mut v, 0.99), Some(99));
        assert_eq!(quantile(&mut v, 1.0), Some(100));
        assert_eq!(quantile(&mut [], 0.5), None);
        assert!((median(&[3.0, 1.0, 2.0, 10.0]) - 2.5).abs() < 1e-12);
    }
}
