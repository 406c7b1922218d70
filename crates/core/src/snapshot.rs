//! Versioned market snapshots: serialize a market + profile + active set
//! to a JSONL file and restore it with recounted aggregates.
//!
//! The serving layer (`mec-serve`) persists its live [`GameState`](crate::state::GameState)
//! through this module: a snapshot captures everything needed to rebuild
//! the state from scratch — cloudlet and provider specs, the
//! provider×cloudlet update-cost matrix, every placement, and the
//! active-provider mask — so congestion counts, loads, and residuals are
//! *recounted* on restore ([`GameState::new`](crate::state::GameState::new)) rather than trusted from
//! the file. A snapshot of a state that drifted (impossible while the
//! `debug_assert` invariant holds, but snapshots outlive processes)
//! therefore heals itself on load.
//!
//! Format: one flat JSON object per line, using the shared escaping and
//! number rules of [`mec_obs::json`] (lossless `u64`, shortest
//! round-trip `f64`, `"inf"` for the remote-forbidden sentinel):
//!
//! ```text
//! {"type":"mec-snapshot","version":1,"seq":42,"cloudlets":2,"providers":3}
//! {"type":"cloudlet","id":0,"compute":10,"bandwidth":50,"alpha":0.5,"beta":0.5}
//! {"type":"provider","id":0,"compute":2,"bandwidth":10,"ins":1,"remote":10}
//! {"type":"updates","provider":0,"row":"0.4,0.4"}
//! {"type":"placement","provider":0,"at":0,"active":1}        // cached at cl0
//! {"type":"placement","provider":1,"at":"remote","active":0} // inactive
//! {"type":"end","records":7}
//! ```
//!
//! The `end` record counts every line including itself, so a torn write
//! (power loss between lines) is detected as corruption. Durable writes
//! go through [`save_snapshot`]: write to `<path>.tmp`, fsync, rename —
//! a crash leaves either the old snapshot or the new one, never a mix.

use std::path::Path;

use mec_obs::json::{self, Token};
use mec_topology::CloudletId;

use crate::model::{CloudletSpec, Market, ProviderId, ProviderSpec};
use crate::strategy::{Placement, Profile};

/// Snapshot format version written by [`encode_snapshot`]; [`parse_snapshot`]
/// rejects anything else.
pub const SNAPSHOT_VERSION: u64 = 1;

/// A parsed snapshot: the full market, the profile, and the active mask.
#[derive(Debug, Clone)]
pub struct MarketSnapshot {
    /// Monotonic sequence number of the snapshot (the serving layer bumps
    /// it per write, so "which file is newer" never depends on mtimes).
    pub seq: u64,
    /// The reconstructed market (specs + update-cost matrix).
    pub market: Market,
    /// Placement of every provider at snapshot time.
    pub profile: Profile,
    /// Which providers were active (admitted) at snapshot time.
    pub active: Vec<bool>,
}

/// Why a snapshot failed to load or save.
#[derive(Debug)]
pub enum SnapshotError {
    /// Reading or writing the file failed.
    Io(std::io::Error),
    /// The file's contents are not a valid snapshot.
    Corrupt(String),
}

impl std::fmt::Display for SnapshotError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            SnapshotError::Io(e) => write!(f, "snapshot I/O failed: {e}"),
            SnapshotError::Corrupt(msg) => write!(f, "snapshot corrupt: {msg}"),
        }
    }
}

impl std::error::Error for SnapshotError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            SnapshotError::Io(e) => Some(e),
            SnapshotError::Corrupt(_) => None,
        }
    }
}

impl From<std::io::Error> for SnapshotError {
    fn from(e: std::io::Error) -> Self {
        SnapshotError::Io(e)
    }
}

fn corrupt(msg: impl Into<String>) -> SnapshotError {
    SnapshotError::Corrupt(msg.into())
}

impl From<json::ParseError> for SnapshotError {
    fn from(e: json::ParseError) -> Self {
        corrupt(e.to_string())
    }
}

/// Encodes a snapshot as JSONL text (ends with a newline).
pub fn encode_snapshot(seq: u64, market: &Market, profile: &Profile, active: &[bool]) -> String {
    let n = market.provider_count();
    let m = market.cloudlet_count();
    let mut out = String::with_capacity(64 * (2 * n + m + 2));
    let mut records = 1u64; // the header itself
    out.push_str(&format!(
        "{{\"type\":\"mec-snapshot\",\"version\":{SNAPSHOT_VERSION},\"seq\":{seq},\
         \"cloudlets\":{m},\"providers\":{n}}}\n"
    ));
    for i in market.cloudlets() {
        let c = market.cloudlet(i);
        out.push_str(&format!(
            "{{\"type\":\"cloudlet\",\"id\":{},\"compute\":",
            i.index()
        ));
        json::push_f64(&mut out, c.compute_capacity);
        out.push_str(",\"bandwidth\":");
        json::push_f64(&mut out, c.bandwidth_capacity);
        out.push_str(",\"alpha\":");
        json::push_f64(&mut out, c.alpha);
        out.push_str(",\"beta\":");
        json::push_f64(&mut out, c.beta);
        out.push_str("}\n");
        records += 1;
    }
    for l in market.providers() {
        let p = market.provider(l);
        out.push_str(&format!(
            "{{\"type\":\"provider\",\"id\":{},\"compute\":",
            l.index()
        ));
        json::push_f64(&mut out, p.compute_demand);
        out.push_str(",\"bandwidth\":");
        json::push_f64(&mut out, p.bandwidth_demand);
        out.push_str(",\"ins\":");
        json::push_f64(&mut out, p.instantiation_cost);
        out.push_str(",\"remote\":");
        json::push_f64(&mut out, p.remote_cost);
        out.push_str("}\n");
        records += 1;
        // Update costs are builder-validated finite, so the comma-joined
        // row never needs the quoted non-finite spellings.
        let row: Vec<String> = market
            .cloudlets()
            .map(|i| format!("{}", market.update_cost(l, i)))
            .collect();
        out.push_str(&format!(
            "{{\"type\":\"updates\",\"provider\":{},\"row\":\"{}\"}}\n",
            l.index(),
            row.join(",")
        ));
        records += 1;
    }
    for (l, p) in profile.iter() {
        let at = match p {
            Placement::Cloudlet(c) => format!("{}", c.index()),
            Placement::Remote => "\"remote\"".to_string(),
        };
        let is_active = active.get(l.index()).copied().unwrap_or(false);
        out.push_str(&format!(
            "{{\"type\":\"placement\",\"provider\":{},\"at\":{at},\"active\":{}}}\n",
            l.index(),
            u64::from(is_active)
        ));
        records += 1;
    }
    out.push_str(&format!(
        "{{\"type\":\"end\",\"records\":{}}}\n",
        records + 1
    ));
    out
}

/// Parses JSONL snapshot text back into a [`MarketSnapshot`].
///
/// Congestion counts, loads, and residuals are **not** stored in the
/// file; rebuild them with [`GameState::new`](crate::state::GameState::new) on the returned market and
/// profile (they are recounted from the placements).
///
/// # Errors
///
/// Returns [`SnapshotError::Corrupt`] on a bad version, missing or
/// duplicate records, a truncated file (no/bad `end` record), or any
/// malformed line.
pub fn parse_snapshot(text: &str) -> Result<MarketSnapshot, SnapshotError> {
    let mut lines = text.lines().filter(|l| !l.trim().is_empty());
    let present = lines.clone().count();
    let header = json::parse_object(lines.next().ok_or_else(|| corrupt("empty file"))?)?;
    if json::get_str(&header, "type")? != "mec-snapshot" {
        return Err(corrupt("first record is not a mec-snapshot header"));
    }
    let version = json::get_u64(&header, "version")?;
    if version != SNAPSHOT_VERSION {
        return Err(corrupt(format!(
            "unsupported version {version} (supported: {SNAPSHOT_VERSION})"
        )));
    }
    let seq = json::get_u64(&header, "seq")?;
    let m = json::get_usize(&header, "cloudlets")?;
    let n = json::get_usize(&header, "providers")?;
    if m == 0 || n == 0 {
        return Err(corrupt(
            "snapshot must cover at least one cloudlet and provider",
        ));
    }
    // Bound the header's counts by the file before allocating for them:
    // a cloudlet takes one record and a provider three, after the header.
    // The end marker is not counted, so a file that lost only its end
    // marker is reported as truncated below.
    let needed = n
        .checked_mul(3)
        .and_then(|r| r.checked_add(m))
        .and_then(|r| r.checked_add(1));
    if needed.is_none_or(|needed| needed > present) {
        return Err(corrupt(format!(
            "header claims {m} cloudlets and {n} providers, file has {present} records"
        )));
    }

    let mut cloudlets: Vec<Option<CloudletSpec>> = vec![None; m];
    let mut providers: Vec<Option<ProviderSpec>> = vec![None; n];
    let mut updates: Vec<Option<Vec<f64>>> = vec![None; n];
    let mut placements: Vec<Option<(Placement, bool)>> = vec![None; n];
    let mut records = 1u64;
    let mut saw_end = false;

    for line in lines {
        if saw_end {
            return Err(corrupt("records after the end marker"));
        }
        records += 1;
        let fields = json::parse_object(line)?;
        match json::get_str(&fields, "type")? {
            "cloudlet" => {
                let id = json::get_usize(&fields, "id")?;
                let slot = cloudlets
                    .get_mut(id)
                    .ok_or_else(|| corrupt(format!("cloudlet id {id} out of range")))?;
                if slot.is_some() {
                    return Err(corrupt(format!("duplicate cloudlet {id}")));
                }
                *slot = Some(checked_cloudlet(&fields)?);
            }
            "provider" => {
                let id = json::get_usize(&fields, "id")?;
                let slot = providers
                    .get_mut(id)
                    .ok_or_else(|| corrupt(format!("provider id {id} out of range")))?;
                if slot.is_some() {
                    return Err(corrupt(format!("duplicate provider {id}")));
                }
                *slot = Some(checked_provider(&fields)?);
            }
            "updates" => {
                let id = json::get_usize(&fields, "provider")?;
                let slot = updates
                    .get_mut(id)
                    .ok_or_else(|| corrupt(format!("updates row {id} out of range")))?;
                if slot.is_some() {
                    return Err(corrupt(format!("duplicate updates row {id}")));
                }
                let row = parse_update_row(json::get_str(&fields, "row")?, m)?;
                *slot = Some(row);
            }
            "placement" => {
                let id = json::get_usize(&fields, "provider")?;
                let slot = placements
                    .get_mut(id)
                    .ok_or_else(|| corrupt(format!("placement of provider {id} out of range")))?;
                if slot.is_some() {
                    return Err(corrupt(format!("duplicate placement of provider {id}")));
                }
                let at = match json::get(&fields, "at")? {
                    Token::Str(s) if s == "remote" => Placement::Remote,
                    Token::Str(s) => return Err(corrupt(format!("bad placement `{s}`"))),
                    Token::Num(_) => {
                        let k = json::get_usize(&fields, "at")?;
                        if k >= m {
                            return Err(corrupt(format!("placement cloudlet {k} out of range")));
                        }
                        Placement::Cloudlet(CloudletId(k))
                    }
                };
                let active = json::get_u64(&fields, "active")? != 0;
                *slot = Some((at, active));
            }
            "end" => {
                let claimed = json::get_u64(&fields, "records")?;
                if claimed != records {
                    return Err(corrupt(format!(
                        "end marker claims {claimed} records, counted {records}"
                    )));
                }
                saw_end = true;
            }
            other => return Err(corrupt(format!("unknown record type `{other}`"))),
        }
    }
    if !saw_end {
        return Err(corrupt("truncated: no end marker"));
    }

    let mut builder = Market::builder();
    for (id, c) in cloudlets.into_iter().enumerate() {
        builder = builder.cloudlet(c.ok_or_else(|| corrupt(format!("missing cloudlet {id}")))?);
    }
    let mut matrix = Vec::with_capacity(n * m);
    for (id, (p, row)) in providers.into_iter().zip(updates).enumerate() {
        builder = builder.provider(p.ok_or_else(|| corrupt(format!("missing provider {id}")))?);
        matrix.extend(row.ok_or_else(|| corrupt(format!("missing updates row {id}")))?);
    }
    let market = builder.update_cost_matrix(matrix).build();

    let mut profile = Profile::all_remote(n);
    let mut active = vec![false; n];
    for (id, slot) in placements.into_iter().enumerate() {
        let (at, is_active) =
            slot.ok_or_else(|| corrupt(format!("missing placement of provider {id}")))?;
        profile.set(ProviderId(id), at);
        active[id] = is_active;
    }

    Ok(MarketSnapshot {
        seq,
        market,
        profile,
        active,
    })
}

/// Validates spec fields before handing them to the panicking
/// constructors — corrupt files must surface [`SnapshotError`], not abort.
fn checked_cloudlet(fields: &[(String, Token)]) -> Result<CloudletSpec, SnapshotError> {
    let compute = json::get_f64(fields, "compute")?;
    let bandwidth = json::get_f64(fields, "bandwidth")?;
    let alpha = json::get_f64(fields, "alpha")?;
    let beta = json::get_f64(fields, "beta")?;
    for v in [compute, bandwidth, alpha, beta] {
        if !v.is_finite() || v < 0.0 {
            return Err(corrupt(format!("cloudlet field out of domain: {v}")));
        }
    }
    Ok(CloudletSpec::new(compute, bandwidth, alpha, beta))
}

fn checked_provider(fields: &[(String, Token)]) -> Result<ProviderSpec, SnapshotError> {
    let compute = json::get_f64(fields, "compute")?;
    let bandwidth = json::get_f64(fields, "bandwidth")?;
    let ins = json::get_f64(fields, "ins")?;
    let remote = json::get_f64(fields, "remote")?;
    for v in [compute, bandwidth, ins] {
        if !v.is_finite() || v < 0.0 {
            return Err(corrupt(format!("provider field out of domain: {v}")));
        }
    }
    if remote.is_nan() || remote < 0.0 {
        return Err(corrupt("provider remote cost out of domain"));
    }
    Ok(ProviderSpec::new(compute, bandwidth, ins, remote))
}

fn parse_update_row(row: &str, m: usize) -> Result<Vec<f64>, SnapshotError> {
    let vals: Result<Vec<f64>, _> = row.split(',').map(str::parse::<f64>).collect();
    let vals = vals.map_err(|_| corrupt(format!("bad updates row `{row}`")))?;
    if vals.len() != m {
        return Err(corrupt(format!(
            "updates row has {} entries, expected {m}",
            vals.len()
        )));
    }
    if vals.iter().any(|v| !v.is_finite() || *v < 0.0) {
        return Err(corrupt("update cost out of domain"));
    }
    Ok(vals)
}

/// Atomically writes a snapshot to `path`: encode, write `<path>.tmp`,
/// fsync, rename over `path`. A crash at any point leaves either the old
/// file or the complete new one.
///
/// # Errors
///
/// Returns [`SnapshotError::Io`] if any filesystem step fails.
pub fn save_snapshot(
    path: &Path,
    seq: u64,
    market: &Market,
    profile: &Profile,
    active: &[bool],
) -> Result<(), SnapshotError> {
    use std::io::Write;
    let text = encode_snapshot(seq, market, profile, active);
    let tmp = tmp_path(path);
    {
        let mut f = std::fs::File::create(&tmp)?;
        f.write_all(text.as_bytes())?;
        f.sync_all()?;
    }
    std::fs::rename(&tmp, path)?;
    Ok(())
}

fn tmp_path(path: &Path) -> std::path::PathBuf {
    let mut os = path.as_os_str().to_os_string();
    os.push(".tmp");
    std::path::PathBuf::from(os)
}

/// Reads and parses a snapshot file.
///
/// # Errors
///
/// Returns [`SnapshotError::Io`] if the file cannot be read, or
/// [`SnapshotError::Corrupt`] if its contents do not parse.
pub fn load_snapshot(path: &Path) -> Result<MarketSnapshot, SnapshotError> {
    parse_snapshot(&std::fs::read_to_string(path)?)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::model::{CloudletSpec, ProviderSpec};
    use crate::state::GameState;

    fn market() -> Market {
        Market::builder()
            .cloudlet(CloudletSpec::new(10.0, 50.0, 0.5, 0.5))
            .cloudlet(CloudletSpec::new(8.0, 40.0, 0.2, 0.3))
            .provider(ProviderSpec::new(2.0, 10.0, 1.0, 10.0))
            .provider(ProviderSpec::new(3.0, 12.0, 1.5, f64::INFINITY))
            .provider(ProviderSpec::new(1.0, 8.0, 0.5, 6.0))
            .uniform_update_cost(0.4)
            .build()
    }

    fn profile() -> Profile {
        let mut p = Profile::all_remote(3);
        p.set(ProviderId(0), Placement::Cloudlet(CloudletId(0)));
        p.set(ProviderId(1), Placement::Cloudlet(CloudletId(1)));
        p
    }

    #[test]
    fn round_trip_preserves_everything() {
        let m = market();
        let p = profile();
        let active = vec![true, true, false];
        let snap = parse_snapshot(&encode_snapshot(7, &m, &p, &active)).unwrap();
        assert_eq!(snap.seq, 7);
        assert_eq!(snap.active, active);
        assert_eq!(snap.profile, p);
        assert_eq!(snap.market.cloudlet_count(), 2);
        assert_eq!(snap.market.provider_count(), 3);
        for i in m.cloudlets() {
            assert_eq!(snap.market.cloudlet(i), m.cloudlet(i));
        }
        for l in m.providers() {
            assert_eq!(snap.market.provider(l), m.provider(l));
            for i in m.cloudlets() {
                assert_eq!(snap.market.update_cost(l, i).to_bits(), 0.4f64.to_bits());
            }
        }
    }

    #[test]
    fn restore_recounts_aggregates() {
        let m = market();
        let p = profile();
        let snap = parse_snapshot(&encode_snapshot(0, &m, &p, &[true; 3])).unwrap();
        let state = GameState::new(&snap.market, snap.profile.clone());
        assert!(state.agrees_with_recompute(1e-12));
        assert_eq!(state.congestion(CloudletId(0)), 1);
        assert_eq!(state.congestion(CloudletId(1)), 1);
    }

    #[test]
    fn save_and_load_via_temp_rename() {
        let dir = std::env::temp_dir().join(format!("mec-snap-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("state.snap");
        let m = market();
        save_snapshot(&path, 3, &m, &profile(), &[true, false, true]).unwrap();
        // The temp staging file must be gone after the rename.
        assert!(!tmp_path(&path).exists());
        let snap = load_snapshot(&path).unwrap();
        assert_eq!(snap.seq, 3);
        assert_eq!(snap.active, vec![true, false, true]);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn truncation_is_detected() {
        let text = encode_snapshot(1, &market(), &profile(), &[true; 3]);
        // Drop the end marker line.
        let cut = text.lines().count() - 1;
        let truncated: String = text.lines().take(cut).map(|l| format!("{l}\n")).collect();
        match parse_snapshot(&truncated) {
            Err(SnapshotError::Corrupt(msg)) => assert!(msg.contains("end marker"), "{msg}"),
            other => panic!("expected corruption error, got {other:?}"),
        }
        // Drop a mid-file record: the end marker's count no longer matches.
        let holed: String = text
            .lines()
            .enumerate()
            .filter(|(k, _)| *k != 3)
            .map(|(_, l)| format!("{l}\n"))
            .collect();
        assert!(parse_snapshot(&holed).is_err());
    }

    #[test]
    fn corrupt_fields_error_instead_of_panicking() {
        for bad in [
            "{\"type\":\"mec-snapshot\",\"version\":99,\"seq\":0,\"cloudlets\":1,\"providers\":1}\n",
            "{\"type\":\"mec-snapshot\",\"version\":1,\"seq\":0,\"cloudlets\":0,\"providers\":1}\n",
            "not json\n",
            "",
        ] {
            assert!(parse_snapshot(bad).is_err(), "`{bad}` should not parse");
        }
        // Negative capacity must surface as Corrupt, not a panicking
        // CloudletSpec::new.
        let text = encode_snapshot(0, &market(), &profile(), &[true; 3])
            .replace("\"compute\":10,", "\"compute\":-10,");
        assert!(matches!(
            parse_snapshot(&text),
            Err(SnapshotError::Corrupt(_))
        ));
    }

    #[test]
    fn header_counts_beyond_the_file_are_rejected_before_allocating() {
        // The file holds 2 cloudlets and 3 providers (13 records). A
        // header claiming more than that must be refused before the
        // parser allocates for the claim: 2^62 would abort on capacity
        // overflow, and (2, 4) needs 15 records besides the end marker.
        let text = encode_snapshot(3, &market(), &profile(), &[true, true, false]);
        let body = &text[text.find('\n').unwrap()..];
        for (m, n) in [
            (1usize << 62, 3usize),
            (2, 1 << 62),
            (usize::MAX, usize::MAX),
            (2, 4),
        ] {
            let forged = format!(
                "{{\"type\":\"mec-snapshot\",\"version\":1,\"seq\":3,\
                 \"cloudlets\":{m},\"providers\":{n}}}{body}"
            );
            match parse_snapshot(&forged) {
                Err(SnapshotError::Corrupt(msg)) => {
                    assert!(msg.contains("file has 13 records"), "{m} x {n}: {msg}")
                }
                other => panic!("{m} x {n}: expected Corrupt, got {other:?}"),
            }
        }
    }

    #[test]
    fn infinity_remote_cost_survives() {
        let snap = parse_snapshot(&encode_snapshot(0, &market(), &profile(), &[true; 3])).unwrap();
        assert!(snap
            .market
            .provider(ProviderId(1))
            .remote_cost
            .is_infinite());
        assert!(!snap.market.provider(ProviderId(1)).can_stay_remote());
    }
}
