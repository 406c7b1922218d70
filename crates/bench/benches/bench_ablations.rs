//! Criterion benchmarks for the DESIGN.md ablations: what each design
//! choice costs in wall-clock time (their quality impact is measured by
//! the `ablations` binary).

use criterion::{criterion_group, criterion_main, Criterion};
use std::hint::black_box;

use mec_core::appro::{appro, ApproConfig, SlotPricing, SplitMode};
use mec_core::game::MoveOrder;
use mec_core::lcf::{lcf, LcfConfig, SelectionRule};
use mec_workload::{gtitm_scenario, Params, Scenario};

fn scenario() -> Scenario {
    gtitm_scenario(150, &Params::paper().with_providers(60), 42)
}

fn bench_pricing(c: &mut Criterion) {
    let s = scenario();
    let m = &s.generated.market;
    let mut g = c.benchmark_group("appro_pricing");
    g.sample_size(10);
    g.bench_function("marginal", |b| {
        b.iter(|| appro(black_box(m), &ApproConfig::new()).unwrap())
    });
    g.bench_function("flat_merged", |b| {
        b.iter(|| appro(black_box(m), &ApproConfig::paper_flat()).unwrap())
    });
    g.bench_function("flat_per_slot", |b| {
        b.iter(|| {
            appro(
                black_box(m),
                &ApproConfig {
                    split: SplitMode::PerSlot,
                    pricing: SlotPricing::Flat,
                    repair_capacity: true,
                    polish: false,
                },
            )
            .unwrap()
        })
    });
    g.finish();
}

fn bench_orders(c: &mut Criterion) {
    let s = scenario();
    let m = &s.generated.market;
    let mut g = c.benchmark_group("br_order");
    g.sample_size(10);
    g.bench_function("round_robin", |b| {
        b.iter(|| {
            lcf(
                black_box(m),
                &LcfConfig {
                    order: MoveOrder::RoundRobin,
                    ..LcfConfig::new(0.3)
                },
            )
            .unwrap()
        })
    });
    g.bench_function("max_gain", |b| {
        b.iter(|| {
            lcf(
                black_box(m),
                &LcfConfig {
                    order: MoveOrder::MaxGain,
                    ..LcfConfig::new(0.3)
                },
            )
            .unwrap()
        })
    });
    g.finish();
}

fn bench_selection(c: &mut Criterion) {
    let s = scenario();
    let m = &s.generated.market;
    let mut g = c.benchmark_group("selection_rule");
    g.sample_size(10);
    for (name, rule) in [
        ("largest_cost_first", SelectionRule::LargestCostFirst),
        ("smallest_cost_first", SelectionRule::SmallestCostFirst),
        ("random", SelectionRule::Random(7)),
    ] {
        g.bench_function(name, |b| {
            b.iter(|| {
                lcf(
                    black_box(m),
                    &LcfConfig {
                        selection: rule,
                        ..LcfConfig::new(0.7)
                    },
                )
                .unwrap()
            })
        });
    }
    g.finish();
}

fn bench_extensions(c: &mut Criterion) {
    use mec_core::congestion::{CongestionModel, GeneralizedGame};
    use mec_core::weighted::WeightedGame;
    use mec_core::Profile;
    let s = scenario();
    let m = &s.generated.market;
    let mut g = c.benchmark_group("extension_games");
    g.sample_size(10);
    g.bench_function("generalized_mm1_dynamics", |b| {
        b.iter(|| {
            let game = GeneralizedGame::new(black_box(m), CongestionModel::Mm1 { capacity: 12 });
            let mut p = Profile::all_remote(m.provider_count());
            game.run_dynamics(&mut p, 10_000)
        })
    });
    g.bench_function("weighted_dynamics", |b| {
        b.iter(|| {
            let game = WeightedGame::new(black_box(m));
            let mut p = Profile::all_remote(m.provider_count());
            game.run_dynamics(&mut p, 10_000)
        })
    });
    g.finish();
}

criterion_group!(
    benches,
    bench_pricing,
    bench_orders,
    bench_selection,
    bench_extensions
);
criterion_main!(benches);
