//! Criterion benchmarks of the GAP substrate: the LP relaxation (a
//! transportation flow with its duals) and the full Shmoys–Tardos
//! pipeline against the greedy heuristic.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use std::hint::black_box;

use mec_gap::{greedy, lp_relax, shmoys_tardos, GapInstance};
use rand::rngs::StdRng;
use rand::{RngExt, SeedableRng};

fn random_instance(items: usize, bins: usize, seed: u64) -> GapInstance {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut inst = GapInstance::new(items, bins);
    for i in 0..items {
        inst.set_item_weight(i, rng.random_range(0.3..1.0));
        for j in 0..bins {
            inst.set_cost(i, j, rng.random_range(0.5..10.0));
        }
    }
    // Feasible with slack ~1.6x.
    let per_bin = items as f64 * 0.65 / bins as f64 * 1.6 + 1.0;
    for j in 0..bins {
        inst.set_capacity(j, per_bin);
    }
    inst
}

fn bench_relaxations(c: &mut Criterion) {
    let mut g = c.benchmark_group("gap_relaxation");
    g.sample_size(10);
    for (items, bins) in [(20usize, 8usize), (40, 16), (80, 32)] {
        let inst = random_instance(items, bins, 7);
        g.bench_with_input(
            BenchmarkId::new("transportation", format!("{items}x{bins}")),
            &inst,
            |b, inst| b.iter(|| lp_relax::solve_relaxation(black_box(inst)).unwrap()),
        );
    }
    g.finish();
}

fn bench_full_pipeline(c: &mut Criterion) {
    let mut g = c.benchmark_group("gap_solvers");
    g.sample_size(10);
    for (items, bins) in [(40usize, 16usize), (100, 40)] {
        let inst = random_instance(items, bins, 11);
        g.bench_with_input(
            BenchmarkId::new("shmoys_tardos", format!("{items}x{bins}")),
            &inst,
            |b, inst| b.iter(|| shmoys_tardos::solve(black_box(inst)).unwrap()),
        );
        g.bench_with_input(
            BenchmarkId::new("greedy", format!("{items}x{bins}")),
            &inst,
            |b, inst| b.iter(|| greedy::solve(black_box(inst))),
        );
    }
    g.finish();
}

criterion_group!(benches, bench_relaxations, bench_full_pipeline);
criterion_main!(benches);
