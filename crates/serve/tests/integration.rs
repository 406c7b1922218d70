//! End-to-end daemon tests over real sockets on ephemeral ports.
//!
//! Each test boots an in-process daemon (`serve` with port 0), talks to
//! it through [`Client`], and drains it with a `shutdown` request. The
//! admission arc — join to capacity, rejection, leave, re-admission —
//! and the snapshot/restore crash-recovery path both run against the
//! full TCP stack, not the market thread in isolation.

use std::time::Duration;

use mec_core::model::{CloudletSpec, Market, ProviderSpec};
use mec_serve::{serve, Client, Response, ServerConfig, ServerHandle};

/// Two cloudlets, each with room for exactly two of the identical
/// providers (compute 4.0 / demand 2.0, bandwidth 20.0 / demand 8.0).
fn two_slot_market(providers: usize) -> Market {
    let mut b = Market::builder()
        .cloudlet(CloudletSpec::new(4.0, 20.0, 0.5, 0.5))
        .cloudlet(CloudletSpec::new(4.0, 20.0, 0.3, 0.2));
    for _ in 0..providers {
        b = b.provider(ProviderSpec::new(2.0, 8.0, 1.0, 30.0));
    }
    b.uniform_update_cost(0.2).build()
}

fn boot(market: Market, snapshot: Option<&std::path::Path>) -> (ServerHandle, Client) {
    let cfg = ServerConfig {
        snapshot_path: snapshot.map(|p| p.to_path_buf()),
        ..ServerConfig::default()
    };
    let handle = serve(market, &cfg).expect("boot");
    let client = Client::connect(handle.addr()).expect("connect");
    client
        .set_timeout(Some(Duration::from_secs(30)))
        .expect("timeout");
    (handle, client)
}

fn drain(handle: ServerHandle, client: &mut Client) -> mec_serve::MarketOutcome {
    assert_eq!(client.shutdown().expect("shutdown"), Response::Draining);
    handle.join()
}

#[test]
fn join_to_capacity_rejection_leave_readmission() {
    let (handle, mut client) = boot(two_slot_market(5), None);

    // Four providers fill both cloudlets.
    for p in 0..4 {
        match client.join(p).expect("join") {
            Response::Admitted { cloudlet, cost } => {
                assert!(cost.is_finite());
                assert!(cloudlet < 2);
            }
            other => panic!("provider {p}: expected admission, got {other:?}"),
        }
    }
    // The fifth finds no capacity anywhere: rejected, not errored.
    assert!(matches!(
        client.join(4).expect("join"),
        Response::Rejected { .. }
    ));
    // Rejected providers stay inactive and remote.
    match client.query(4).expect("query") {
        Response::Placement { at, active, .. } => {
            assert_eq!(at, None);
            assert!(!active);
        }
        other => panic!("expected placement, got {other:?}"),
    }

    // A departure frees a slot; the rejected provider now gets in.
    // (Which cloudlet has the free slot depends on the maintenance epochs
    // that may have rebalanced providers in the meantime.)
    assert_eq!(client.leave(0).expect("leave"), Response::Left);
    assert!(matches!(
        client.join(4).expect("rejoin"),
        Response::Admitted { .. }
    ));

    let stats = client.stats().expect("stats");
    assert_eq!(stats.providers, 5);
    assert_eq!(stats.active, 4);
    assert_eq!(stats.cached, 4);

    let outcome = drain(handle, &mut client);
    assert_eq!(outcome.active.iter().filter(|a| **a).count(), 4);
    assert!(outcome.equilibrium);
    assert!(outcome.violations.is_empty(), "{:?}", outcome.violations);
}

#[test]
fn protocol_errors_do_not_kill_the_connection() {
    let (handle, mut client) = boot(two_slot_market(2), None);
    // Unknown provider, double join, leave-without-join: all errors, all
    // on the same connection, which stays usable throughout.
    assert!(matches!(
        client.join(99).expect("join oob"),
        Response::Error { .. }
    ));
    assert!(matches!(
        client.join(0).expect("join"),
        Response::Admitted { .. }
    ));
    assert!(matches!(
        client.join(0).expect("double join"),
        Response::Error { .. }
    ));
    assert!(matches!(
        client.leave(1).expect("leave inactive"),
        Response::Error { .. }
    ));
    assert!(matches!(
        client.update(0, f64::NAN, 1.0).expect("bad update"),
        Response::Error { .. }
    ));
    // Still alive.
    assert_eq!(client.stats().expect("stats").active, 1);
    drain(handle, &mut client);
}

#[test]
fn update_demand_round_trips_and_evicts() {
    let (handle, mut client) = boot(two_slot_market(2), None);
    assert!(matches!(
        client.join(0).expect("join"),
        Response::Admitted { .. }
    ));
    // Shrink: still fits, not evicted.
    match client.update(0, 1.0, 4.0).expect("shrink") {
        Response::Updated { evicted, .. } => assert!(!evicted),
        other => panic!("expected update, got {other:?}"),
    }
    // Outgrow every cloudlet: evicted to remote but still active.
    match client.update(0, 100.0, 4.0).expect("grow") {
        Response::Updated { evicted, cost } => {
            assert!(evicted);
            assert!((cost - 30.0).abs() < 1e-9, "remote cost, got {cost}");
        }
        other => panic!("expected update, got {other:?}"),
    }
    match client.query(0).expect("query") {
        Response::Placement { at, active, .. } => {
            assert_eq!(at, None);
            assert!(active);
        }
        other => panic!("expected placement, got {other:?}"),
    }
    let outcome = drain(handle, &mut client);
    assert!(outcome.active[0]);
    assert!(outcome.violations.is_empty(), "{:?}", outcome.violations);
}

#[test]
fn snapshot_restore_recovers_market_state() {
    let dir = std::env::temp_dir().join(format!("mec-serve-it-{}-{}", std::process::id(), line!()));
    std::fs::create_dir_all(&dir).expect("tmpdir");
    let snap = dir.join("market.snap");

    // Daemon #1: admit three providers, snapshot, then crash (kill the
    // process from the daemon's point of view: just abandon it after the
    // snapshot lands — the file must carry the whole state).
    let (handle, mut client) = boot(two_slot_market(5), Some(&snap));
    for p in 0..3 {
        assert!(matches!(
            client.join(p).expect("join"),
            Response::Admitted { .. }
        ));
    }
    let seq_at_snapshot = match client.snapshot().expect("snapshot") {
        Response::Snapshotted { seq } => seq,
        other => panic!("expected snapshot ack, got {other:?}"),
    };
    let pre: Vec<Response> = (0..5).map(|p| client.query(p).expect("query")).collect();
    // "kill -9": drop the connection and drain via a throwaway client so
    // the port is released, but restore from the mid-run snapshot, not
    // the drain-time one.
    let saved = std::fs::read(&snap).expect("snapshot bytes");
    let mut admin = Client::connect(handle.addr()).expect("admin");
    admin.shutdown().expect("shutdown");
    handle.join();
    std::fs::write(&snap, &saved).expect("rewind snapshot");

    // Daemon #2 boots from the snapshot: same placements, same seq.
    let (handle2, mut client2) = boot(two_slot_market(5), Some(&snap));
    let stats = client2.stats().expect("stats");
    assert_eq!(stats.seq, seq_at_snapshot);
    assert_eq!(stats.active, 3);
    assert_eq!(stats.cached, 3);
    for (p, before) in pre.iter().enumerate() {
        let after = client2.query(p).expect("query");
        let (
            Response::Placement {
                at: a0,
                active: x0,
                cost: c0,
                ..
            },
            Response::Placement {
                at: a1,
                active: x1,
                cost: c1,
                ..
            },
        ) = (before, &after)
        else {
            panic!("expected placements, got {before:?} / {after:?}");
        };
        assert_eq!(a0, a1, "provider {p} placement");
        assert_eq!(x0, x1, "provider {p} active flag");
        assert!((c0 - c1).abs() < 1e-12, "provider {p} cost");
    }

    // The restored daemon is fully operational: fill the market.
    assert!(matches!(
        client2.join(3).expect("join"),
        Response::Admitted { .. }
    ));
    assert!(matches!(
        client2.join(4).expect("join"),
        Response::Rejected { .. }
    ));
    let outcome = drain(handle2, &mut client2);
    assert_eq!(outcome.active.iter().filter(|a| **a).count(), 4);
    assert!(outcome.violations.is_empty(), "{:?}", outcome.violations);

    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn restore_request_rewinds_live_state() {
    let dir = std::env::temp_dir().join(format!("mec-serve-it-{}-{}", std::process::id(), line!()));
    std::fs::create_dir_all(&dir).expect("tmpdir");
    let snap = dir.join("market.snap");

    let (handle, mut client) = boot(two_slot_market(4), Some(&snap));
    assert!(matches!(
        client.join(0).expect("join"),
        Response::Admitted { .. }
    ));
    let seq = match client.snapshot().expect("snapshot") {
        Response::Snapshotted { seq } => seq,
        other => panic!("expected snapshot ack, got {other:?}"),
    };
    // Mutate past the snapshot, then rewind to it.
    assert!(matches!(
        client.join(1).expect("join"),
        Response::Admitted { .. }
    ));
    match client.restore().expect("restore") {
        Response::Restored { seq: restored } => assert_eq!(restored, seq),
        other => panic!("expected restore ack, got {other:?}"),
    }
    let stats = client.stats().expect("stats");
    assert_eq!(stats.seq, seq);
    assert_eq!(stats.active, 1, "join(1) must be rewound");
    drain(handle, &mut client);
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn kill9_mid_migration_restores_from_shard_slices() {
    let dir = std::env::temp_dir().join(format!("mec-serve-it-{}-{}", std::process::id(), line!()));
    std::fs::create_dir_all(&dir).expect("tmpdir");
    let snap = dir.join("market.snap");

    // Two shards over the two-cloudlet market: the contiguous region map
    // gives shard 0 cloudlet 0 and shard 1 cloudlet 1. Providers home to
    // shard `p % 2`.
    let boot_sharded = |market: Market| {
        let cfg = ServerConfig {
            snapshot_path: Some(snap.clone()),
            shards: 2,
            ..ServerConfig::default()
        };
        let handle = serve(market, &cfg).expect("boot");
        let client = Client::connect(handle.addr()).expect("connect");
        client
            .set_timeout(Some(Duration::from_secs(30)))
            .expect("timeout");
        (handle, client)
    };

    let (handle, mut client) = boot_sharded(two_slot_market(6));
    // Providers 0 and 2 (home shard 0) fill shard 0's cloudlet; provider
    // 4 (also home shard 0) then finds its region full and forwards
    // cross-shard — a live ownership handoff to shard 1 that the crash
    // must not lose or duplicate. Provider 1 fills shard 1's last slot.
    for p in [0, 2] {
        match client.join(p).expect("join") {
            Response::Admitted { cloudlet, .. } => assert_eq!(cloudlet, 0, "provider {p}"),
            other => panic!("provider {p}: expected admission, got {other:?}"),
        }
    }
    match client.join(4).expect("forwarded join") {
        Response::Admitted { cloudlet, .. } => {
            assert_eq!(cloudlet, 1, "forwarded join must land cross-shard")
        }
        other => panic!("expected cross-shard admission, got {other:?}"),
    }
    assert!(matches!(
        client.join(1).expect("join"),
        Response::Admitted { .. }
    ));

    // Coordinated snapshot: prepare quiesces in-flight handoffs before
    // any slice is written, so the set on disk is consistent even though
    // a migration was just in flight. (The coordinated ack carries the
    // set's coordinator epoch, not a state seq.)
    let epoch_at_snapshot = match client.snapshot().expect("snapshot") {
        Response::Snapshotted { seq } => seq,
        other => panic!("expected snapshot ack, got {other:?}"),
    };
    let pre: Vec<Response> = (0..6).map(|p| client.query(p).expect("query")).collect();

    // "kill -9": stash the whole snapshot set (manifest + slices), drain
    // via a throwaway client to free the port (which writes a *newer*
    // set and garbage-collects ours), then put the mid-run set back.
    let manifest_bytes = std::fs::read(&snap).expect("manifest bytes");
    let manifest = mec_serve::shard::parse_manifest(
        std::str::from_utf8(&manifest_bytes).expect("manifest utf8"),
    )
    .expect("manifest parses");
    assert_eq!(manifest.shards, 2);
    assert_eq!(manifest.epoch, epoch_at_snapshot);
    let slice_paths: Vec<_> = (0..manifest.shards)
        .map(|k| mec_serve::shard::shard_snapshot_path(&snap, manifest.epoch, k))
        .collect();
    let slice_bytes: Vec<_> = slice_paths
        .iter()
        .map(|p| std::fs::read(p).expect("slice bytes"))
        .collect();
    let mut admin = Client::connect(handle.addr()).expect("admin");
    admin.shutdown().expect("shutdown");
    handle.join();
    std::fs::remove_dir_all(&dir).expect("wipe");
    std::fs::create_dir_all(&dir).expect("tmpdir");
    std::fs::write(&snap, &manifest_bytes).expect("rewind manifest");
    for (p, bytes) in slice_paths.iter().zip(&slice_bytes) {
        std::fs::write(p, bytes).expect("rewind slice");
    }

    // The set itself: every provider is claimed by exactly one shard's
    // ownership mask, and the forwarded provider 4 moved to shard 1.
    let slices: Vec<_> = slice_paths
        .iter()
        .map(|p| mec_core::load_snapshot(p).expect("slice parses"))
        .collect();
    let masks: Vec<&Vec<bool>> = slices
        .iter()
        .map(|s| &s.shard.as_ref().expect("slice has shard meta").owned)
        .collect();
    for p in 0..6 {
        let claims = masks.iter().filter(|m| m[p]).count();
        assert_eq!(claims, 1, "provider {p} claimed by {claims} shards");
    }
    assert!(masks[1][4], "forwarded provider must be owned by shard 1");
    for s in &slices {
        let meta = s.shard.as_ref().expect("meta");
        assert_eq!(meta.epoch, manifest.epoch, "mixed-epoch set");
        assert_eq!(meta.count, 2);
    }

    // Daemon #2 boots from the per-shard slices: same seq, same
    // placements, and fully operational — including fresh cross-shard
    // forwarding after a slot frees up.
    let slice_seq_sum: u64 = slices.iter().map(|s| s.seq).sum();
    let (handle2, mut client2) = boot_sharded(two_slot_market(6));
    let stats = client2.stats().expect("stats");
    // Composite stats sum the per-shard seqs; each restored shard starts
    // at its slice's seq.
    assert_eq!(stats.seq, slice_seq_sum);
    assert_eq!(stats.active, 4);
    assert_eq!(stats.shards.len(), 2, "restored daemon reports both shards");
    for (p, before) in pre.iter().enumerate() {
        let after = client2.query(p).expect("query");
        let (
            Response::Placement {
                at: a0, active: x0, ..
            },
            Response::Placement {
                at: a1, active: x1, ..
            },
        ) = (before, &after)
        else {
            panic!("expected placements, got {before:?} / {after:?}");
        };
        assert_eq!(a0, a1, "provider {p} placement");
        assert_eq!(x0, x1, "provider {p} active flag");
    }
    assert_eq!(client2.leave(0).expect("leave"), Response::Left);
    // Provider 5 homes to shard 1, whose cloudlet is still full; the
    // restored router must forward it to the slot shard 0 just freed.
    match client2.join(5).expect("post-restore forwarded join") {
        Response::Admitted { cloudlet, .. } => assert_eq!(cloudlet, 0),
        other => panic!("expected cross-shard admission, got {other:?}"),
    }
    let outcome = drain(handle2, &mut client2);
    assert_eq!(outcome.active.iter().filter(|a| **a).count(), 4);
    assert!(outcome.equilibrium);
    assert!(outcome.violations.is_empty(), "{:?}", outcome.violations);

    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn pipelined_reads_observe_preceding_writes() {
    // Read-your-writes across a batched drain: a query pipelined behind
    // writes on the same connection must see a view at least as new as
    // those writes, even though the market thread applies the whole
    // batch in one pass, publishes once, and only then acknowledges.
    // The pipelined reads sit behind in-flight commands, forcing the
    // event loop through its deferred-read path — a stale pre-write view
    // here is exactly the regression batching could introduce.
    use mec_serve::Request;
    let (handle, mut client) = boot(two_slot_market(4), None);
    let batch = [
        Request::Join {
            provider: 0,
            cloudlet: None,
        },
        Request::Query { provider: 0 }, // deferred behind the join
    ];
    let resps: Vec<Response> = client
        .pipeline(&batch)
        .expect("pipeline")
        .into_iter()
        .map(|(r, _)| r)
        .collect();
    assert!(matches!(resps[0], Response::Admitted { .. }));
    match &resps[1] {
        Response::Placement { at, active, .. } => {
            assert!(active, "query pipelined after join must see the join");
            assert!(at.is_some());
        }
        other => panic!("expected placement, got {other:?}"),
    }
    // A batch whose writes supersede each other: the trailing reads must
    // reflect the final state of the batch (join(1) + leave(0) both
    // applied), never a pre-write view.
    let batch = [
        Request::Join {
            provider: 1,
            cloudlet: None,
        },
        Request::Leave { provider: 0 },
        Request::Query { provider: 0 }, // must see the leave applied
        Request::Query { provider: 1 }, // must see the join applied
        Request::Stats,                 // must count exactly provider 1
    ];
    let resps: Vec<Response> = client
        .pipeline(&batch)
        .expect("pipeline")
        .into_iter()
        .map(|(r, _)| r)
        .collect();
    assert!(matches!(resps[0], Response::Admitted { .. }));
    assert_eq!(resps[1], Response::Left);
    match &resps[2] {
        Response::Placement { at, active, .. } => {
            assert!(!active, "query pipelined after leave must see the leave");
            assert_eq!(*at, None);
        }
        other => panic!("expected placement, got {other:?}"),
    }
    assert!(matches!(
        &resps[3],
        Response::Placement { active: true, .. }
    ));
    match &resps[4] {
        Response::Stats(s) => assert_eq!(s.active, 1),
        other => panic!("expected stats, got {other:?}"),
    }
    drain(handle, &mut client);
}

#[test]
fn slow_reader_does_not_stall_other_clients() {
    // One client writes a request but never reads the response; with the
    // event loop this parks a buffer, not a thread, and other clients
    // keep getting served.
    use std::io::Write;
    let (handle, mut client) = boot(two_slot_market(4), None);
    let mut lazy = std::net::TcpStream::connect(handle.addr()).expect("connect");
    lazy.write_all(b"24\n{\"op\":\"stats\",\"seq\":100}\n")
        .expect("write");
    // Never read from `lazy`; the daemon must still answer everyone else.
    for p in 0..2 {
        assert!(matches!(
            client.join(p).expect("join"),
            Response::Admitted { .. }
        ));
    }
    assert_eq!(client.stats().expect("stats").active, 2);
    drop(lazy);
    drain(handle, &mut client);
}

#[test]
fn concurrent_clients_admit_exactly_to_capacity() {
    // 8 providers race for 4 slots from 8 connections; admissions must
    // total exactly 4 with the rest rejected, and the daemon must drain
    // to a feasible equilibrium.
    let (handle, mut client) = boot(two_slot_market(8), None);
    let addr = handle.addr();
    let results: Vec<Response> = crossbeam::thread::scope(|scope| {
        let handles: Vec<_> = (0..8)
            .map(|p| {
                scope.spawn(move |_| {
                    let mut c = Client::connect(addr).expect("connect");
                    c.join(p).expect("join")
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("thread"))
            .collect()
    })
    .expect("scope");
    let admitted = results
        .iter()
        .filter(|r| matches!(r, Response::Admitted { .. }))
        .count();
    let rejected = results
        .iter()
        .filter(|r| matches!(r, Response::Rejected { .. }))
        .count();
    assert_eq!(admitted, 4, "{results:?}");
    assert_eq!(rejected, 4, "{results:?}");
    let outcome = drain(handle, &mut client);
    assert!(outcome.equilibrium);
    assert!(outcome.violations.is_empty(), "{:?}", outcome.violations);
}

/// Boots a `shards`-shard daemon persisting to `snapshot`.
fn boot_shards(
    market: Market,
    snapshot: &std::path::Path,
    shards: usize,
) -> (ServerHandle, Client) {
    let cfg = ServerConfig {
        snapshot_path: Some(snapshot.to_path_buf()),
        shards,
        ..ServerConfig::default()
    };
    let handle = serve(market, &cfg).expect("boot");
    let client = Client::connect(handle.addr()).expect("connect");
    client
        .set_timeout(Some(Duration::from_secs(30)))
        .expect("timeout");
    (handle, client)
}

#[test]
fn restored_daemon_serves_its_snapshot_from_the_first_read() {
    // A restored daemon must publish every shard's restored view before
    // it accepts: a `stats` sent the moment `serve` returns reads the
    // snapshot's state, never an empty pre-boot view.
    for shards in [1, 2] {
        let dir = std::env::temp_dir().join(format!(
            "mec-serve-it-{}-{}-{shards}",
            std::process::id(),
            line!()
        ));
        std::fs::create_dir_all(&dir).expect("tmpdir");
        let snap = dir.join("market.snap");

        // Fill both cloudlets, wait for equilibrium, and drain: the drain
        // writes the snapshot every later boot restores.
        let (handle, mut client) = boot_shards(two_slot_market(4), &snap, shards);
        for p in 0..4 {
            assert!(matches!(
                client.join(p).expect("join"),
                Response::Admitted { .. }
            ));
        }
        let want = loop {
            let stats = client.stats().expect("stats");
            if stats.equilibrium {
                break stats;
            }
            std::thread::sleep(Duration::from_millis(2));
        };
        drain(handle, &mut client);

        for round in 0..5 {
            let (handle, mut client) = boot_shards(two_slot_market(4), &snap, shards);
            let got = client.stats().expect("stats");
            assert_eq!(got.seq, want.seq, "{shards} shards, boot {round}: seq");
            assert_eq!(got.active, 4, "{shards} shards, boot {round}: active");
            assert_eq!(got.cached, 4, "{shards} shards, boot {round}: cached");
            drain(handle, &mut client);
        }
        let _ = std::fs::remove_dir_all(&dir);
    }
}

#[test]
fn sharded_boot_resumes_each_shard_at_its_slice_seq() {
    // Two shards over the two-cloudlet market: even providers home to
    // shard 0 (cloudlet 0), odd ones to shard 1 (cloudlet 1). Shard 0
    // settles two extra writes, so the slices carry different seqs; both
    // cloudlets end full, so no maintenance move or migration can change
    // a seq afterwards.
    let dir = std::env::temp_dir().join(format!("mec-serve-it-{}-{}", std::process::id(), line!()));
    std::fs::create_dir_all(&dir).expect("tmpdir");
    let snap = dir.join("market.snap");
    let (handle, mut client) = boot_shards(two_slot_market(4), &snap, 2);
    for p in [0, 2] {
        assert!(matches!(
            client.join(p).expect("join"),
            Response::Admitted { .. }
        ));
    }
    assert_eq!(client.leave(2).expect("leave"), Response::Left);
    for p in [2, 1, 3] {
        assert!(matches!(
            client.join(p).expect("join"),
            Response::Admitted { .. }
        ));
    }
    let epoch = match client.snapshot().expect("snapshot") {
        Response::Snapshotted { seq } => seq,
        other => panic!("expected snapshot ack, got {other:?}"),
    };
    let slice_paths: Vec<_> = (0..2)
        .map(|k| mec_serve::shard::shard_snapshot_path(&snap, epoch, k))
        .collect();
    let slice_seqs: Vec<u64> = slice_paths
        .iter()
        .map(|p| mec_core::load_snapshot(p).expect("slice parses").seq)
        .collect();
    assert_ne!(slice_seqs[0], slice_seqs[1], "slices must differ in seq");

    // A live restore resumes each shard at its own slice's seq.
    assert!(matches!(
        client.restore().expect("restore"),
        Response::Restored { .. }
    ));
    let live = client.stats().expect("stats");
    assert_eq!(live.seq, slice_seqs.iter().sum::<u64>());

    // Booting from the same set must agree with the live restore. Stash
    // the set first: the drain writes a newer one and collects this one.
    let manifest_bytes = std::fs::read(&snap).expect("manifest bytes");
    let slice_bytes: Vec<_> = slice_paths
        .iter()
        .map(|p| std::fs::read(p).expect("slice bytes"))
        .collect();
    drain(handle, &mut client);
    std::fs::write(&snap, &manifest_bytes).expect("rewind manifest");
    for (p, bytes) in slice_paths.iter().zip(&slice_bytes) {
        std::fs::write(p, bytes).expect("rewind slice");
    }
    let (handle, mut client) = boot_shards(two_slot_market(4), &snap, 2);
    let booted = client.stats().expect("stats");
    assert_eq!(booted.seq, live.seq, "boot and live restore disagree");
    let per_shard: Vec<u64> = booted.shards.iter().map(|s| s.seq).collect();
    assert_eq!(per_shard, slice_seqs);
    drain(handle, &mut client);
    let _ = std::fs::remove_dir_all(&dir);
}
