//! Criterion benchmarks of the substrates: shortest paths, the bipartite
//! transportation solver, the simplex, topology generation and the
//! discrete-event simulator.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use std::hint::black_box;

use mec_gap::flow::Transportation;
use mec_lp::{LpBuilder, Relation};
use mec_sim::{nearest_cloudlet_profile, simulate, SimConfig};
use mec_topology::gtitm::{generate as gen_ts, GtItmConfig};
use mec_topology::shortest_path::DistanceMatrix;
use mec_workload::{gtitm_scenario, Params};

fn bench_topology(c: &mut Criterion) {
    let mut g = c.benchmark_group("topology");
    g.sample_size(10);
    for size in [100usize, 250, 400] {
        g.bench_with_input(
            BenchmarkId::new("gtitm_generate", size),
            &size,
            |b, &size| b.iter(|| gen_ts(&GtItmConfig::for_size(black_box(size), 42))),
        );
        let topo = gen_ts(&GtItmConfig::for_size(size, 42));
        g.bench_with_input(
            BenchmarkId::new("all_pairs_dijkstra", size),
            &topo,
            |b, topo| b.iter(|| DistanceMatrix::new(black_box(&topo.graph))),
        );
    }
    g.finish();
}

fn bench_flow(c: &mut Criterion) {
    let mut g = c.benchmark_group("transportation");
    g.sample_size(10);
    for n in [20usize, 60, 120] {
        g.bench_with_input(BenchmarkId::new("bipartite_assignment", n), &n, |b, &n| {
            b.iter(|| {
                let mut t = Transportation::new(vec![1.0; n]);
                for i in 0..n {
                    t.add_item(
                        1.0,
                        (0..n).map(|j| (j, ((i * 31 + j * 17) % 97) as f64 + 1.0)),
                    );
                }
                t.solve()
            })
        });
    }
    g.finish();
}

fn bench_simplex(c: &mut Criterion) {
    let mut g = c.benchmark_group("simplex");
    g.sample_size(10);
    for n in [10usize, 30, 60] {
        g.bench_with_input(BenchmarkId::new("box_lp", n), &n, |b, &n| {
            b.iter(|| {
                let mut lp = LpBuilder::new(n);
                let c: Vec<f64> = (0..n).map(|k| -((k % 7) as f64 + 1.0)).collect();
                lp.objective(&c);
                // A dense packing row plus unit boxes.
                let row: Vec<f64> = (0..n).map(|k| 1.0 + (k % 3) as f64).collect();
                lp.constraint(&row, Relation::Le, n as f64);
                for k in 0..n {
                    let mut e = vec![0.0; n];
                    e[k] = 1.0;
                    lp.constraint(&e, Relation::Le, 1.0);
                }
                lp.solve().unwrap()
            })
        });
    }
    g.finish();
}

fn bench_simulator(c: &mut Criterion) {
    let s = gtitm_scenario(150, &Params::paper().with_providers(40), 42);
    let profile = nearest_cloudlet_profile(&s.net, &s.generated);
    let mut g = c.benchmark_group("simulator");
    g.sample_size(10);
    g.bench_function("replay_40_providers", |b| {
        b.iter(|| {
            simulate(
                black_box(&s.net),
                &s.generated,
                &profile,
                &SimConfig::default(),
            )
        })
    });
    g.bench_function("replay_with_contention", |b| {
        b.iter(|| {
            simulate(
                black_box(&s.net),
                &s.generated,
                &profile,
                &SimConfig {
                    access_link_contention: true,
                    ..SimConfig::default()
                },
            )
        })
    });
    g.finish();
}

criterion_group!(
    benches,
    bench_topology,
    bench_flow,
    bench_simplex,
    bench_simulator
);
criterion_main!(benches);
