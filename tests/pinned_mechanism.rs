//! Pinned mechanism output: Appro's placement and LCF's (ξ = 0.7) social
//! cost on fixed GT-ITM markets, bit for bit.
//!
//! The GAP relaxation under Appro has an isolated optimum on these
//! markets, so a solver change that keeps the relaxation exact (another
//! search order, an earlier stop) leaves every value here unchanged. A
//! change that moves the LP vertex fails here instead of only shifting a
//! benchmark median. Change a row only with a deliberate change of the
//! mechanism's output, and say why where the change is recorded.
//!
//! The `lcf_solve` benchmark market runs in the default debug run too
//! (about half a second), so every arc the flow relaxes and every offer
//! it makes to the sink passes its negative-reduced-cost
//! `debug_assert`. CI also runs the file in release, self-certified:
//!
//! ```text
//! cargo test --release --features verify --test pinned_mechanism -- --include-ignored
//! ```

use mec_core::lcf::{lcf, LcfConfig};
use mec_core::strategy::{Placement, Profile};
use mec_workload::{gtitm_scenario, Params};

/// One pinned market (`gtitm_scenario(size, providers, seed)`) and what
/// the mechanism returns on it.
struct Pin {
    size: usize,
    providers: usize,
    seed: u64,
    /// [`placement_hash`] of Appro's placement.
    appro: u64,
    /// LCF's social cost, compared bit for bit.
    social_cost: f64,
}

/// FNV-1a over every provider's placement (remote as `u64::MAX`).
fn placement_hash(profile: &Profile) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for (_, p) in profile.iter() {
        let v = match p {
            Placement::Cloudlet(c) => c.index() as u64,
            Placement::Remote => u64::MAX,
        };
        for byte in v.to_le_bytes() {
            h ^= u64::from(byte);
            h = h.wrapping_mul(0x0100_0000_01b3);
        }
    }
    h
}

/// Solves the pinned market; on a mismatch, returns the row as the
/// mechanism reads now.
fn mismatch(pin: &Pin) -> Option<String> {
    let market = gtitm_scenario(
        pin.size,
        &Params::paper().with_providers(pin.providers),
        pin.seed,
    )
    .generated
    .market;
    let out = lcf(&market, &LcfConfig::new(0.7)).expect("lcf solves the pinned market");
    let appro = placement_hash(&out.appro.profile);
    (appro != pin.appro || out.social_cost.to_bits() != pin.social_cost.to_bits()).then(|| {
        format!(
            "Pin {{ size: {}, providers: {}, seed: {}, appro: {appro:#018x}, social_cost: {:?} }},",
            pin.size, pin.providers, pin.seed, out.social_cost
        )
    })
}

#[rustfmt::skip]
const GTITM: &[Pin] = &[
    Pin { size: 100, providers: 60, seed: 1, appro: 0x69a8b4088abd2efd, social_cost: 205.3056043031206 },
    Pin { size: 100, providers: 60, seed: 2, appro: 0x6ed2a7744c9e9bcc, social_cost: 230.97862208117473 },
    Pin { size: 100, providers: 60, seed: 3, appro: 0x119fb6c11a43730f, social_cost: 217.46454418487681 },
    Pin { size: 100, providers: 60, seed: 4, appro: 0x87c338fc9e04e702, social_cost: 216.56775354857498 },
    Pin { size: 100, providers: 120, seed: 1, appro: 0x5a4207ac092d35cb, social_cost: 471.86528053807325 },
    Pin { size: 100, providers: 120, seed: 2, appro: 0x075c74fecdb5c347, social_cost: 491.1397172305665 },
    Pin { size: 100, providers: 120, seed: 3, appro: 0xddb8fc0c9e138ba6, social_cost: 454.1414404406238 },
    Pin { size: 100, providers: 120, seed: 4, appro: 0xcdd2bcb9242dfb3d, social_cost: 474.7828680248695 },
    Pin { size: 150, providers: 60, seed: 1, appro: 0xb2706bf72aaf159b, social_cost: 204.722705411754 },
    Pin { size: 150, providers: 60, seed: 2, appro: 0xc6325330c1d80452, social_cost: 213.6031124200352 },
    Pin { size: 150, providers: 60, seed: 3, appro: 0xc322f40fdb601c7b, social_cost: 201.66963842785546 },
    Pin { size: 150, providers: 60, seed: 4, appro: 0xc411a3ce7b0fd6ae, social_cost: 212.93583796106154 },
    Pin { size: 150, providers: 120, seed: 1, appro: 0xbaa794909c37ca9f, social_cost: 444.63436759173146 },
    Pin { size: 150, providers: 120, seed: 2, appro: 0x14e6a53dab5ca442, social_cost: 479.17908300115096 },
    Pin { size: 150, providers: 120, seed: 3, appro: 0xc83c4cb378ad2c63, social_cost: 436.3261619540784 },
    Pin { size: 150, providers: 120, seed: 4, appro: 0xe99ba0db62f40f34, social_cost: 466.59517966553557 },
];

#[test]
fn appro_and_lcf_are_pinned_on_gtitm_markets() {
    let moved: Vec<String> = GTITM.iter().filter_map(mismatch).collect();
    assert!(
        moved.is_empty(),
        "{} of {} pinned markets moved; they now read:\n{}",
        moved.len(),
        GTITM.len(),
        moved.join("\n")
    );
}

/// The `lcf_solve` benchmark market (`perfbench`: GT-ITM 250, 300
/// providers, seed 1).
#[test]
fn appro_and_lcf_are_pinned_on_the_lcf_solve_market() {
    let pin = Pin {
        size: 250,
        providers: 300,
        seed: 1,
        appro: 0xb18314397d6cf421,
        social_cost: 1363.3238897974682,
    };
    if let Some(row) = mismatch(&pin) {
        panic!("the lcf_solve market moved; it now reads:\n{row}");
    }
}
