//! Snapshot round-trip property: `GameState` → snapshot text → restore
//! must reproduce the original market, profile and active mask exactly,
//! with congestion/loads/residuals recounted on the restored side. A
//! snapshot file is input from outside the program, so seeded random
//! mutations of a valid one must parse or fail with a `SnapshotError`,
//! never panic.

use mec_core::model::{CloudletSpec, Market, ProviderSpec};
use mec_core::snapshot::{encode_snapshot, parse_snapshot, SnapshotError};
use mec_core::state::GameState;
use mec_core::{Placement, Profile, ProviderId};
use mec_topology::CloudletId;
use proptest::prelude::*;

#[derive(Debug, Clone)]
struct RandMarket {
    cloudlets: Vec<(f64, f64, f64, f64)>,
    providers: Vec<(f64, f64, f64, f64)>,
    update: f64,
}

fn rand_market() -> impl Strategy<Value = RandMarket> {
    let cloudlet = (10.0..40.0f64, 50.0..200.0f64, 0.0..1.0f64, 0.0..1.0f64);
    let provider = (0.5..4.0f64, 2.0..15.0f64, 0.2..1.5f64, 3.0..25.0f64);
    (
        proptest::collection::vec(cloudlet, 2..5),
        proptest::collection::vec(provider, 3..12),
        0.0..0.5f64,
    )
        .prop_map(|(cloudlets, providers, update)| RandMarket {
            cloudlets,
            providers,
            update,
        })
}

fn build(r: &RandMarket) -> Market {
    let mut b = Market::builder();
    for &(c, bw, a, be) in &r.cloudlets {
        b = b.cloudlet(CloudletSpec::new(c, bw, a, be));
    }
    for (k, &(cd, bd, ic, rc)) in r.providers.iter().enumerate() {
        // Sprinkle in remote-forbidden providers: INFINITY must survive
        // the trip through the file format.
        let rc = if k % 5 == 4 { f64::INFINITY } else { rc };
        b = b.provider(ProviderSpec::new(cd, bd, ic, rc));
    }
    b.uniform_update_cost(r.update).build()
}

fn decode_profile(market: &Market, picks: &[usize]) -> (Profile, Vec<bool>) {
    let n = market.provider_count();
    let m = market.cloudlet_count();
    let mut profile = Profile::all_remote(n);
    let mut active = vec![false; n];
    for (l, slot) in active.iter_mut().enumerate() {
        let pick = picks.get(l).copied().unwrap_or(0) % (m + 2);
        // pick == m → remote-but-active; pick == m+1 → inactive.
        if pick < m {
            profile.set(ProviderId(l), Placement::Cloudlet(CloudletId(pick)));
            *slot = true;
        } else {
            *slot = pick == m;
        }
    }
    (profile, active)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// encode → parse reproduces the market bit-for-bit (every spec field,
    /// every update cost), the profile, the active mask and the sequence
    /// number; a `GameState` rebuilt on the restored market recounts the
    /// same congestion and loads as the original.
    #[test]
    fn snapshot_round_trips_and_recounts(
        r in rand_market(),
        picks in proptest::collection::vec(0usize..16, 3..12),
        seq in 0u64..1_000_000,
    ) {
        let market = build(&r);
        let (profile, active) = decode_profile(&market, &picks);
        let text = encode_snapshot(seq, &market, &profile, &active);
        let snap = parse_snapshot(&text).unwrap();

        prop_assert_eq!(snap.seq, seq);
        prop_assert_eq!(&snap.profile, &profile);
        prop_assert_eq!(&snap.active, &active);
        prop_assert_eq!(snap.market.cloudlet_count(), market.cloudlet_count());
        prop_assert_eq!(snap.market.provider_count(), market.provider_count());
        for i in market.cloudlets() {
            let (a, b) = (market.cloudlet(i), snap.market.cloudlet(i));
            prop_assert_eq!(a.compute_capacity.to_bits(), b.compute_capacity.to_bits());
            prop_assert_eq!(a.bandwidth_capacity.to_bits(), b.bandwidth_capacity.to_bits());
            prop_assert_eq!(a.alpha.to_bits(), b.alpha.to_bits());
            prop_assert_eq!(a.beta.to_bits(), b.beta.to_bits());
        }
        for l in market.providers() {
            let (a, b) = (market.provider(l), snap.market.provider(l));
            prop_assert_eq!(a.compute_demand.to_bits(), b.compute_demand.to_bits());
            prop_assert_eq!(a.bandwidth_demand.to_bits(), b.bandwidth_demand.to_bits());
            prop_assert_eq!(a.instantiation_cost.to_bits(), b.instantiation_cost.to_bits());
            prop_assert_eq!(a.remote_cost.to_bits(), b.remote_cost.to_bits());
            for i in market.cloudlets() {
                prop_assert_eq!(
                    market.update_cost(l, i).to_bits(),
                    snap.market.update_cost(l, i).to_bits()
                );
            }
        }

        // The restored state's recounted aggregates agree with the
        // original's maintained ones.
        let original = GameState::new(&market, profile.clone());
        let restored = GameState::new(&snap.market, snap.profile.clone());
        prop_assert!(restored.agrees_with_recompute(0.0));
        for i in market.cloudlets() {
            prop_assert_eq!(original.congestion(i), restored.congestion(i));
            let (oa, ob) = original.load(i);
            let (ra, rb) = restored.load(i);
            prop_assert_eq!(oa.to_bits(), ra.to_bits());
            prop_assert_eq!(ob.to_bits(), rb.to_bits());
        }
    }

    /// A snapshot cut anywhere mid-file never parses successfully — the
    /// end-marker record count makes truncation visible.
    #[test]
    fn truncated_snapshots_are_rejected(
        r in rand_market(),
        picks in proptest::collection::vec(0usize..16, 3..12),
        frac in 0.0f64..1.0,
    ) {
        let market = build(&r);
        let (profile, active) = decode_profile(&market, &picks);
        let text = encode_snapshot(9, &market, &profile, &active);
        let lines: Vec<&str> = text.lines().collect();
        let keep = ((lines.len() as f64) * frac) as usize;
        if keep < lines.len() {
            let cut: String = lines[..keep].iter().map(|l| format!("{l}\n")).collect();
            prop_assert!(parse_snapshot(&cut).is_err());
        }
    }
}

/// Applies one mutation to snapshot text: `kind` picks what, `at` and
/// `to` pick where (taken modulo the text's size), `byte` what to write.
fn mutate(text: &str, kind: u8, at: usize, to: usize, byte: u8) -> String {
    const ALPHABET: &[u8] = b"0123456789-.,:{}\"\n eEinfremotyp_\\";
    let ch = ALPHABET[byte as usize % ALPHABET.len()] as char;
    let mut lines: Vec<String> = text.lines().map(str::to_string).collect();
    let (line, other) = (at % lines.len(), to % lines.len());
    match kind {
        // Overwrite, insert or delete one character.
        0..=2 => {
            let mut bytes: Vec<char> = text.chars().collect();
            let k = at % (bytes.len() + 1);
            match kind {
                0 if k < bytes.len() => bytes[k] = ch,
                1 => bytes.insert(k, ch),
                _ if k < bytes.len() => {
                    bytes.remove(k);
                }
                _ => {}
            }
            return bytes.into_iter().collect();
        }
        // Duplicate, drop or swap whole records.
        3 => {
            let copy = lines[line].clone();
            lines.insert(other, copy);
        }
        4 => {
            lines.remove(line);
        }
        5 => lines.swap(line, other),
        // Replace one of the line's numbers with an extreme one.
        _ => {
            let extreme = [
                "0",
                "-1",
                "18446744073709551615",
                "4611686018427387904",
                "1e308",
                "nan",
            ][byte as usize % 6];
            let l = &lines[line];
            let starts: Vec<usize> = l
                .char_indices()
                .filter(|&(k, c)| {
                    c.is_ascii_digit()
                        && !l[..k].ends_with(|p: char| p.is_ascii_digit() || p == '.')
                })
                .map(|(k, _)| k)
                .collect();
            if !starts.is_empty() {
                let start = starts[to % starts.len()];
                let end = l[start..]
                    .find(|c: char| !c.is_ascii_digit() && c != '.')
                    .map_or(l.len(), |e| start + e);
                lines[line] = format!("{}{extreme}{}", &l[..start], &l[end..]);
            }
        }
    }
    lines.iter().map(|l| format!("{l}\n")).collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(1024))]

    /// Up to four random mutations of a valid snapshot: the parser
    /// returns a snapshot or a `SnapshotError`, and never panics.
    #[test]
    fn mutated_snapshots_parse_or_error(
        r in rand_market(),
        picks in proptest::collection::vec(0usize..16, 3..12),
        edits in proptest::collection::vec((0u8..7, 0usize..100_000, 0usize..100_000, 0u8..=255), 1..5),
    ) {
        let market = build(&r);
        let (profile, active) = decode_profile(&market, &picks);
        let mut text = encode_snapshot(5, &market, &profile, &active);
        for &(kind, at, to, byte) in &edits {
            if text.is_empty() {
                break;
            }
            text = mutate(&text, kind, at, to, byte);
        }
        match parse_snapshot(&text) {
            Ok(snap) => prop_assert_eq!(snap.profile.len(), snap.market.provider_count()),
            Err(SnapshotError::Corrupt(msg)) => prop_assert!(!msg.is_empty()),
            Err(SnapshotError::Io(e)) => prop_assert!(false, "parsing text did I/O: {e}"),
        }
    }
}
