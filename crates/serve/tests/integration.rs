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
fn kill9_mid_migration_restores_from_the_snapshot_file() {
    let dir = std::env::temp_dir().join(format!("mec-serve-it-{}-{}", std::process::id(), line!()));
    std::fs::create_dir_all(&dir).expect("tmpdir");
    let snap = dir.join("market.snap");

    // Two shards over the two-cloudlet market: the contiguous region map
    // gives shard 0 cloudlet 0 and shard 1 cloudlet 1. Providers home to
    // shard `p % 2`.
    let boot_sharded = |market: Market| boot_shards(market, &snap, 2);

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
    // any shard adds its part, so the cut on disk is consistent even
    // though a migration was just in flight.
    let seq_at_snapshot = match client.snapshot().expect("snapshot") {
        Response::Snapshotted { seq } => seq,
        other => panic!("expected snapshot ack, got {other:?}"),
    };
    let pre: Vec<Response> = (0..6).map(|p| client.query(p).expect("query")).collect();

    // "kill -9": stash the file, drain via a throwaway client to free the
    // port (which writes a *newer* file), then put the mid-run file back.
    let saved = std::fs::read(&snap).expect("snapshot bytes");
    let mut admin = Client::connect(handle.addr()).expect("admin");
    admin.shutdown().expect("shutdown");
    handle.join();
    std::fs::write(&snap, &saved).expect("rewind snapshot");

    // The file itself: one whole market at the snapshot's seq, with the
    // forwarded provider 4 active at shard 1's cloudlet.
    let file = mec_core::load_snapshot(&snap).expect("snapshot parses");
    assert_eq!(file.seq, seq_at_snapshot);
    assert_eq!(file.active.iter().filter(|a| **a).count(), 4);
    assert!(file.active[4], "forwarded provider must be in the cut");
    assert_eq!(
        file.profile.placement(mec_core::ProviderId(4)),
        mec_core::Placement::Cloudlet(mec_topology::CloudletId(1))
    );

    // Daemon #2 boots from the file: same seq, same placements, and fully
    // operational — including fresh cross-shard forwarding after a slot
    // frees up.
    let (handle2, mut client2) = boot_sharded(two_slot_market(6));
    let stats = client2.stats().expect("stats");
    assert_eq!(stats.seq, seq_at_snapshot);
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
    let results: Vec<Response> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..8)
            .map(|p| {
                scope.spawn(move || {
                    let mut c = Client::connect(addr).expect("connect");
                    c.join(p).expect("join")
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("thread"))
            .collect()
    });
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

/// The region map is fixed at boot, so a bad one fails the boot: a map
/// of the wrong length, one that leaves a shard without cloudlets, and
/// one that names a shard the daemon does not run are each refused as
/// `InvalidInput` before any thread starts.
#[test]
fn bad_region_maps_fail_the_boot() {
    let market = Market::builder()
        .cloudlet(CloudletSpec::new(4.0, 20.0, 0.5, 0.5))
        .cloudlet(CloudletSpec::new(4.0, 20.0, 0.3, 0.2))
        .cloudlet(CloudletSpec::new(4.0, 20.0, 0.4, 0.1))
        .provider(ProviderSpec::new(2.0, 8.0, 1.0, 30.0))
        .uniform_update_cost(0.2)
        .build();
    let cases: [(Vec<usize>, &str); 3] = [
        (vec![0, 1], "covers 2 cloudlets, market has 3"),
        (vec![0, 0, 0], "leaves shard 1 without cloudlets"),
        (vec![0, 1, 2], "names shard 2, daemon has 2"),
    ];
    for (regions, why) in cases {
        let cfg = ServerConfig {
            shards: 2,
            regions: Some(regions.clone()),
            ..ServerConfig::default()
        };
        match serve(market.clone(), &cfg) {
            Ok(_) => panic!("region map {regions:?} booted"),
            Err(e) => {
                assert_eq!(
                    e.kind(),
                    std::io::ErrorKind::InvalidInput,
                    "{regions:?}: {e}"
                );
                assert!(e.to_string().contains(why), "{regions:?}: {e}");
            }
        }
    }
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
fn sharded_boot_and_live_restore_agree_on_the_file() {
    // Two shards over the two-cloudlet market: even providers home to
    // shard 0 (cloudlet 0), odd ones to shard 1 (cloudlet 1). Shard 0
    // settles two extra writes, so the shards' seqs differ; both
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
    let seq = match client.snapshot().expect("snapshot") {
        Response::Snapshotted { seq } => seq,
        other => panic!("expected snapshot ack, got {other:?}"),
    };
    assert_eq!(mec_core::load_snapshot(&snap).expect("parses").seq, seq);

    // A live restore resumes the daemon at the file's seq: shard 0 takes
    // it and shard 1 starts at 0.
    assert_eq!(
        client.restore().expect("restore"),
        Response::Restored { seq }
    );
    let live = client.stats().expect("stats");
    assert_eq!(live.seq, seq);
    assert_eq!(
        live.shards.iter().map(|s| s.seq).collect::<Vec<_>>(),
        [seq, 0]
    );

    // Booting from the same file must agree with the live restore. Stash
    // the file first: the drain writes a newer one.
    let saved = std::fs::read(&snap).expect("snapshot bytes");
    drain(handle, &mut client);
    std::fs::write(&snap, &saved).expect("rewind snapshot");
    let (handle, mut client) = boot_shards(two_slot_market(4), &snap, 2);
    let booted = client.stats().expect("stats");
    assert_eq!(booted.seq, live.seq, "boot and live restore disagree");
    let per_shard: Vec<u64> = booted.shards.iter().map(|s| s.seq).collect();
    assert_eq!(per_shard, [seq, 0]);
    drain(handle, &mut client);
    let _ = std::fs::remove_dir_all(&dir);
}

/// `cloudlets` identical cloudlets with room for two of the identical
/// `providers` each. A provider's cost depends only on its cloudlet's
/// congestion, so no migration or maintenance move ever gains: every
/// seq below comes from the client's own writes.
fn even_market(cloudlets: usize, providers: usize) -> Market {
    let mut b = Market::builder();
    for _ in 0..cloudlets {
        b = b.cloudlet(CloudletSpec::new(4.0, 20.0, 0.5, 0.5));
    }
    for _ in 0..providers {
        b = b.provider(ProviderSpec::new(2.0, 8.0, 1.0, 30.0));
    }
    b.uniform_update_cost(0.2).build()
}

/// A fresh snapshot path under its own temp directory.
fn snap_path(tag: &str) -> (std::path::PathBuf, std::path::PathBuf) {
    let dir = std::env::temp_dir().join(format!("mec-serve-it-{}-{tag}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("tmpdir");
    let snap = dir.join("market.snap");
    (dir, snap)
}

fn admit(client: &mut Client, p: usize) {
    match client.join(p).expect("join") {
        Response::Admitted { .. } => {}
        other => panic!("provider {p}: expected admission, got {other:?}"),
    }
}

fn placements(client: &mut Client, providers: usize) -> Vec<Response> {
    (0..providers)
        .map(|p| client.query(p).expect("query"))
        .collect()
}

/// A restore whose file does not load, or covers another market's size,
/// fails as a whole: every shard keeps its state, its seq and its
/// placements.
#[test]
fn failed_restore_changes_no_shard() {
    let (dir, snap) = snap_path("failed-restore");
    let (handle, mut client) = boot_shards(even_market(2, 4), &snap, 2);
    for p in [0, 1] {
        admit(&mut client, p);
    }
    assert!(matches!(
        client.snapshot().expect("snapshot"),
        Response::Snapshotted { .. }
    ));
    // Provider 2 homes to shard 0 and provider 3 to shard 1.
    for p in [2, 3] {
        admit(&mut client, p);
    }
    let before = client.stats().expect("stats");
    let placed = placements(&mut client, 4);
    let seqs = |st: &mec_serve::StatsReport| st.shards.iter().map(|s| s.seq).collect::<Vec<_>>();
    let spoilers: [(&str, &dyn Fn()); 2] = [
        ("corrupt", &|| {
            std::fs::write(&snap, "not a snapshot\n").expect("spoil the file")
        }),
        ("covers 2 cloudlets and 5 providers", &|| {
            let other = even_market(2, 5);
            let profile = mec_core::Profile::all_remote(5);
            mec_core::save_snapshot(&snap, 9, &other, &profile, &[false; 5]).expect("save")
        }),
    ];
    for (why, spoil) in spoilers {
        spoil();
        match client.restore().expect("restore") {
            Response::Error { msg } => {
                assert!(msg.contains("restore failed") && msg.contains(why), "{msg}")
            }
            other => panic!("{why}: expected a restore error, got {other:?}"),
        }
        let after = client.stats().expect("stats");
        assert_eq!(after.seq, before.seq, "{why}");
        assert_eq!(after.active, 4, "{why}");
        assert_eq!(seqs(&after), seqs(&before), "{why}");
        assert_eq!(placements(&mut client, 4), placed, "{why}");
    }
    drain(handle, &mut client);
    let _ = std::fs::remove_dir_all(&dir);
}

/// A `writer`-shard daemon admits two providers and drains, writing its
/// snapshot; a `reader`-shard daemon then boots from the file and
/// restores it live: boot, restore and `stats` must all read the seq the
/// writer reported and its two admissions.
fn restore_across_shard_counts(writer: usize, reader: usize) {
    let (dir, snap) = snap_path(&format!("across-{writer}-{reader}"));
    let (handle, mut client) = boot_shards(even_market(2, 4), &snap, writer);
    for p in [0, 1] {
        admit(&mut client, p);
    }
    let seq = client.stats().expect("stats").seq;
    drain(handle, &mut client);

    let (handle, mut client) = boot_shards(even_market(2, 4), &snap, reader);
    let booted = client.stats().expect("stats");
    assert_eq!(
        booted.active, 2,
        "{reader}-shard boot of a {writer}-shard file"
    );
    admit(&mut client, 2);
    assert_eq!(
        client.restore().expect("restore"),
        Response::Restored { seq },
        "{reader}-shard restore of a {writer}-shard file"
    );
    let live = client.stats().expect("stats");
    assert_eq!((live.seq, live.active), (seq, 2));
    assert_eq!(
        booted.seq, seq,
        "{reader}-shard boot of a {writer}-shard file"
    );
    drain(handle, &mut client);
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn one_shard_daemon_restores_a_two_shard_file() {
    restore_across_shard_counts(2, 1);
}

#[test]
fn two_shard_daemon_restores_a_one_shard_file() {
    restore_across_shard_counts(1, 2);
}

/// `snapshotted` reports the `stats` seq just before it and `restored`
/// the `stats` seq just after it, at every shard count.
#[test]
fn snapshot_restore_and_stats_agree_on_seq() {
    for shards in [1, 2, 4] {
        let (dir, snap) = snap_path(&format!("seq-{shards}"));
        // Four cloudlets with two slots each: providers 0..8 fill them,
        // the leave frees one of shard 0's slots and provider 8 (home
        // shard 0) takes it back.
        let (handle, mut client) = boot_shards(even_market(4, 9), &snap, shards);
        for p in 0..8 {
            admit(&mut client, p);
        }
        assert_eq!(client.leave(0).expect("leave"), Response::Left);
        admit(&mut client, 8);
        let before = loop {
            let stats = client.stats().expect("stats");
            if stats.equilibrium {
                break stats;
            }
            std::thread::sleep(Duration::from_millis(2));
        };
        let snapshotted = match client.snapshot().expect("snapshot") {
            Response::Snapshotted { seq } => seq,
            other => panic!("expected snapshot ack, got {other:?}"),
        };
        assert_eq!(snapshotted, before.seq, "{shards} shards: snapshotted");
        assert_eq!(client.leave(1).expect("leave"), Response::Left);
        let restored = match client.restore().expect("restore") {
            Response::Restored { seq } => seq,
            other => panic!("expected restore ack, got {other:?}"),
        };
        let after = client.stats().expect("stats");
        assert_eq!(restored, after.seq, "{shards} shards: restored");
        assert_eq!(restored, snapshotted, "{shards} shards: one state, one seq");
        assert_eq!(after.active, 8, "{shards} shards: the leave is rewound");
        drain(handle, &mut client);
        let _ = std::fs::remove_dir_all(&dir);
    }
}

/// Several I/O threads in front of two shards, each I/O thread applying
/// the client writes it claims inline: six clients pipeline a seeded mix
/// of joins, leaves, demand updates, queries and stats over providers
/// they all share. Every reply must come back in request order, and
/// every `stats` pipelined behind a write that changed the market must
/// see it (`pipelined_reads_observe_preceding_writes`, under
/// contention): each pipeline opens with a `stats` answered before its
/// writes are read, and a later `stats` behind a successful join or
/// update must read a higher composite seq. The drain must then pass
/// the capacity and Nash certificates (checked under `--features
/// verify`).
#[test]
fn pipelined_clients_on_shared_providers_across_io_threads() {
    use mec_serve::Request;
    const CLIENTS: u64 = 6;
    const PROVIDERS: usize = 12;
    let mut b = Market::builder();
    for k in 0..4 {
        b = b.cloudlet(CloudletSpec::new(8.0, 40.0, 0.3 + 0.1 * k as f64, 0.2));
    }
    for _ in 0..PROVIDERS {
        b = b.provider(ProviderSpec::new(2.0, 8.0, 1.0, 30.0));
    }
    let cfg = ServerConfig {
        shards: 2,
        io_threads: 3,
        ..ServerConfig::default()
    };
    let handle = serve(b.uniform_update_cost(0.2).build(), &cfg).expect("boot");
    let addr = handle.addr();
    std::thread::scope(|scope| {
        for c in 0..CLIENTS {
            scope.spawn(move || {
                let mut client = Client::connect(addr).expect("connect");
                client
                    .set_timeout(Some(Duration::from_secs(30)))
                    .expect("timeout");
                let mut rng = 0x9E37_79B9_7F4A_7C15u64.wrapping_mul(c + 1);
                let mut next = move |n: u64| {
                    rng ^= rng << 13;
                    rng ^= rng >> 7;
                    rng ^= rng << 17;
                    rng % n
                };
                // The seq of the pipeline's opening `stats`, the last seq
                // read, and whether a join or update succeeded since the
                // opening `stats`.
                let (mut base, mut last, mut wrote) = (0u64, 0u64, false);
                for _ in 0..40 {
                    let mut reqs = vec![Request::Stats];
                    for _ in 0..8 {
                        let provider = next(PROVIDERS as u64) as usize;
                        reqs.push(match next(5) {
                            0 => Request::Join {
                                provider,
                                cloudlet: None,
                            },
                            1 => Request::Leave { provider },
                            2 => Request::UpdateDemand {
                                provider,
                                compute: 1.0 + next(3) as f64,
                                bandwidth: 8.0,
                            },
                            3 => Request::Query { provider },
                            _ => Request::Stats,
                        });
                    }
                    let resps = client.pipeline(&reqs).expect("pipeline");
                    assert_eq!(resps.len(), reqs.len());
                    for (k, (req, (resp, _))) in reqs.iter().zip(&resps).enumerate() {
                        match (req, resp) {
                            (Request::Stats, Response::Stats(s)) => {
                                assert!(s.seq >= last, "client {c}: seq {} after {last}", s.seq);
                                assert!(
                                    !wrote || s.seq > base,
                                    "client {c}: seq {} misses a write made after seq {base}",
                                    s.seq
                                );
                                last = s.seq;
                                if k == 0 {
                                    (base, wrote) = (s.seq, false);
                                }
                            }
                            // A successful join or update raises its
                            // shard's seq before it is acknowledged.
                            (Request::Join { .. }, Response::Admitted { .. })
                            | (Request::UpdateDemand { .. }, Response::Updated { .. }) => {
                                wrote = true;
                            }
                            (
                                Request::Join { .. },
                                Response::Rejected { .. } | Response::Error { .. },
                            )
                            | (Request::Leave { .. }, Response::Left | Response::Error { .. })
                            | (Request::UpdateDemand { .. }, Response::Error { .. })
                            | (Request::Query { .. }, Response::Placement { .. }) => {}
                            other => panic!("client {c}: reply out of order: {other:?}"),
                        }
                    }
                }
            });
        }
    });
    let mut client = Client::connect(addr).expect("connect");
    let outcome = drain(handle, &mut client);
    assert!(outcome.equilibrium);
    assert!(outcome.violations.is_empty(), "{:?}", outcome.violations);
}

/// Two `shutdown`s pipelined behind more writes than a shard queue
/// holds: the first one's prepare waits in the I/O thread's backlog for
/// room in the full queue, and the second is answered only once every
/// shard has acked that prepare. Any `draining` reply stops the I/O
/// threads, which drop their backlogs: answered earlier, the second
/// would drop the first one's prepare, and the daemon would never
/// drain.
#[test]
fn two_shutdowns_behind_a_full_queue_drain_once() {
    use mec_serve::Request;
    for shards in [1, 2] {
        let cfg = ServerConfig {
            shards,
            ..ServerConfig::default()
        };
        let handle = serve(two_slot_market(1), &cfg).expect("boot");
        let mut client = Client::connect(handle.addr()).expect("connect");
        client
            .set_timeout(Some(Duration::from_secs(30)))
            .expect("timeout");
        let churn = [
            Request::Join {
                provider: 0,
                cloudlet: None,
            },
            Request::Leave { provider: 0 },
        ];
        let mut reqs: Vec<Request> = (0..1500).flat_map(|_| churn.clone()).collect();
        reqs.extend([Request::Shutdown, Request::Shutdown]);
        let resps = client.pipeline(&reqs).expect("every request is answered");
        let (writes, shutdowns) = resps.split_at(2 * 1500);
        for pair in writes.chunks(2) {
            assert!(
                matches!(pair[0].0, Response::Admitted { .. }),
                "{shards} shards: {:?}",
                pair[0].0
            );
            assert_eq!(pair[1].0, Response::Left, "{shards} shards");
        }
        for (resp, _) in shutdowns {
            assert_eq!(*resp, Response::Draining, "{shards} shards");
        }
        let (tx, rx) = std::sync::mpsc::channel();
        // Joins the daemon off the test thread, so a drain that never
        // finishes fails the test instead of hanging it.
        // lint: allow(thread-spawn)
        std::thread::spawn(move || tx.send(handle.join()));
        let outcome = rx
            .recv_timeout(Duration::from_secs(30))
            .expect("the daemon drains");
        assert!(outcome.equilibrium, "{shards} shards");
        assert!(outcome.violations.is_empty(), "{:?}", outcome.violations);
    }
}
