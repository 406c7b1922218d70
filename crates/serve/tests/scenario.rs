//! End-to-end demand loop: a flash-crowd trace replayed against a live
//! writer thread must produce *observed* re-cache moves.
//!
//! The market has one expensive and one cheap cloudlet, two slots each.
//! Epoch 0 admits three services — two land on the cheap cloudlet, the
//! third is forced onto the expensive one. Then a flash crowd: one of
//! the cheap-cloudlet services goes cold (leaves, freeing a cheap slot)
//! while the surge service keeps hammering. The maintenance quanta —
//! scanning hottest-first from the folded demand EWMAs — must re-home
//! the displaced service into the freed cheap slot: a re-cache the
//! replay observes across the epoch boundary.

use mec_core::model::{CloudletSpec, Market, ProviderSpec};
use mec_scenario::{standard_traces, Trace};
use mec_serve::run_scenario;

/// Cloudlet 0 expensive (high congestion coefficients), cloudlet 1
/// cheap; each fits exactly two of the identical providers.
fn two_tier_market(providers: usize) -> Market {
    let mut b = Market::builder()
        .cloudlet(CloudletSpec::new(4.0, 20.0, 0.9, 0.9))
        .cloudlet(CloudletSpec::new(4.0, 20.0, 0.1, 0.1));
    for _ in 0..providers {
        b = b.provider(ProviderSpec::new(2.0, 8.0, 1.0, 30.0));
    }
    b.uniform_update_cost(0.2).build()
}

#[test]
fn flash_crowd_trace_triggers_observed_recache() {
    // Hand-authored flash schedule (the canonical replayable form):
    // epoch 0 warms services 0..3; from epoch 1 service 2 surges while
    // service 1 dies, freeing the cheap slot the displaced service
    // should be re-homed into.
    let text = "mec-scenario v1 label=flash_burst services=3 seed=7 epochs=3 flash=2\n\
                0 1 2 0 1 2\n\
                2 2 2 2 2 0\n\
                2 2 2 2 2 0\n";
    let trace = Trace::parse_schedule(text).expect("schedule parses");
    let report = run_scenario(two_tier_market(3), &trace);

    assert_eq!(report.label, "flash_burst");
    assert_eq!(report.requests, trace.total_requests());
    assert!(
        report.recaches >= 1,
        "flash crowd freed a cheap slot but no re-cache was observed: {report:?}"
    );
    assert!(report.leaves >= 1, "cold service never left: {report:?}");
    assert!(report.hits > 0);
    assert!(report.equilibrium, "drain must end at equilibrium");
    assert!(report.violations.is_empty(), "{:?}", report.violations);
}

#[test]
fn generated_flash_trace_replays_with_high_hit_rate() {
    // The standard generated flash trace on a market with ample room:
    // every warm service gets cached, so hits dominate.
    let trace = standard_traces(6, 8, 40, 42)
        .into_iter()
        .find(|t| t.label == "flash_crowd")
        .expect("standard flash trace");
    let mut b = Market::builder();
    for _ in 0..3 {
        b = b.cloudlet(CloudletSpec::new(8.0, 40.0, 0.2, 0.2));
    }
    for _ in 0..6 {
        b = b.provider(ProviderSpec::new(2.0, 8.0, 1.0, 30.0));
    }
    let report = run_scenario(b.uniform_update_cost(0.2).build(), &trace);
    assert!(!trace.flash_targets.is_empty(), "flash trace names targets");
    assert!(
        report.hit_rate() > 0.6,
        "ample capacity should cache the warm set: {report:?}"
    );
    assert!(report.equilibrium);
}
