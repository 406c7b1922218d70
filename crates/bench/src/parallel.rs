//! Scoped-thread fan-out for the figure sweeps.
//!
//! Every point of a sweep (a network size, a `(1−ξ)` value, a seed) is an
//! independent deterministic computation, so the runners fan them out over
//! a bounded pool of scoped worker threads. Sweeps stay reproducible:
//! results are returned in input order regardless of completion order.

// Under `--features loom-model` the shared counter runs on the loom
// stand-in's schedule-perturbing atomics, so the concurrency stress tests
// (tests/loom_pool.rs) push the workers through many interleavings.
#[cfg(feature = "loom-model")]
use loom::sync::atomic::{AtomicUsize, Ordering};
#[cfg(not(feature = "loom-model"))]
use std::sync::atomic::{AtomicUsize, Ordering};

/// Maps `f` over `items` in parallel and returns the results in input order.
///
/// Spawns `min(items.len(), available_parallelism())` scoped workers that
/// pull item indices from a shared counter — large sweeps no longer spawn
/// one thread per item, and uneven work units balance automatically.
///
/// Intended for coarse work units (hundreds of milliseconds each).
///
/// # Panics
///
/// Propagates a panic from any worker thread.
pub fn parallel_map<T, R, F>(items: &[T], f: F) -> Vec<R>
where
    T: Sync,
    R: Send,
    F: Fn(&T) -> R + Sync,
{
    if items.is_empty() {
        return Vec::new();
    }
    let workers = std::thread::available_parallelism()
        .map_or(1, usize::from)
        .min(items.len());
    let next = AtomicUsize::new(0);
    let f = &f;
    let next = &next;
    let mut results: Vec<Option<R>> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..workers)
            .map(|_| {
                scope.spawn(move || {
                    // Each worker claims the next unprocessed index until the
                    // items run out, returning (index, result) pairs.
                    let mut out = Vec::new();
                    loop {
                        let k = next.fetch_add(1, Ordering::Relaxed);
                        if k >= items.len() {
                            return out;
                        }
                        out.push((k, f(&items[k])));
                    }
                })
            })
            .collect();
        let mut results: Vec<Option<R>> = (0..items.len()).map(|_| None).collect();
        for h in handles {
            for (k, r) in h.join().expect("sweep worker panicked") {
                results[k] = Some(r);
            }
        }
        results
    });
    results
        .iter_mut()
        .map(|slot| slot.take().expect("sweep item not processed"))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn preserves_input_order() {
        let items: Vec<u64> = (0..16).collect();
        let out = parallel_map(&items, |&x| {
            // Stagger completion so order would scramble without joins.
            std::thread::sleep(std::time::Duration::from_millis(16 - x));
            x * 2
        });
        assert_eq!(out, (0..16).map(|x| x * 2).collect::<Vec<_>>());
    }

    #[test]
    fn empty_input() {
        let out: Vec<u32> = parallel_map(&Vec::<u32>::new(), |&x| x);
        assert!(out.is_empty());
    }

    #[test]
    #[should_panic(expected = "sweep worker panicked")]
    fn worker_panic_propagates() {
        let _ = parallel_map(&[1u8], |_| panic!("boom"));
    }

    #[test]
    #[should_panic(expected = "sweep worker panicked")]
    fn late_panic_propagates_with_many_items() {
        // The panicking item sits deep in the queue, past the first batch
        // any worker claims.
        let items: Vec<u32> = (0..500).collect();
        let _ = parallel_map(&items, |&x| {
            assert!(x != 437, "boom");
            x
        });
    }

    #[test]
    fn items_far_exceeding_cores() {
        // Far more items than any machine has cores: the pool must stay
        // bounded while every item is still processed exactly once, in order.
        let items: Vec<u64> = (0..10_000).collect();
        let out = parallel_map(&items, |&x| x * x);
        assert_eq!(out.len(), items.len());
        for (k, v) in out.iter().enumerate() {
            assert_eq!(*v, (k * k) as u64);
        }
    }

    #[test]
    fn uneven_work_units_balance() {
        // A few heavy items mixed into many light ones; order still holds.
        let items: Vec<u64> = (0..64).collect();
        let out = parallel_map(&items, |&x| {
            if x % 13 == 0 {
                std::thread::sleep(std::time::Duration::from_millis(5));
            }
            x + 1
        });
        assert_eq!(out, (1..=64).collect::<Vec<_>>());
    }

    #[test]
    fn single_item() {
        let out = parallel_map(&[41u32], |&x| x + 1);
        assert_eq!(out, vec![42]);
    }
}
