//! Loom model tests for the serving layer's three load-bearing races.
//!
//! Compiled only under `RUSTFLAGS="--cfg loom"` (the `loom` CI job);
//! the whole serving crate then builds against `loom::sync` through the
//! `crate::sync` shim, so these tests exercise the *real*
//! `ShardedEpochDb` / `RouteCache` / `RouteService` code under perturbed
//! schedules — not test doubles. The vendored loom stand-in explores
//! bounded randomized interleavings (see `vendor/loom`); upstream loom
//! would explore exhaustively with the same test source.
#![cfg(loom)]

use atis_algorithms::Database;
use atis_graph::{CostModel, Grid, NodeId, Path, QueryKind};
use atis_serve::{
    Admission, BreakerConfig, BreakerState, CachedRoute, CircuitBreaker, EpochVector, ProbeGuard,
    RouteCache, RouteService, ServeConfig, ServeError, ShardMap, ShardedEpochDb,
};
use std::sync::Arc;

fn small_db() -> (Database, NodeId, NodeId) {
    let grid = Grid::new(4, CostModel::TWENTY_PERCENT, 7).expect("grid");
    let (s, d) = grid.query_pair(QueryKind::Diagonal);
    (Database::open(grid.graph()).expect("open"), s, d)
}

/// A one-shard store: the degenerate case of the epoch vector.
fn single_store(db: Database) -> ShardedEpochDb {
    let map = ShardMap::single(db.graph().node_count());
    ShardedEpochDb::new(db, map)
}

/// Race: `update_edge_cost` installing epoch 1 on a one-shard store
/// while readers snapshot.
///
/// Invariants checked under every interleaving:
/// * a snapshot is never torn — epoch 0 always carries the pre-update
///   cost, epoch 1 always carries the post-update cost;
/// * epochs observed by one reader never go backwards.
#[test]
fn epoch_install_vs_snapshot_race() {
    let (base, _, _) = small_db();
    // Any real edge works; take the first arc out of node 0.
    let u = NodeId(0);
    let v = base.graph().neighbors(u)[0].to;
    let old_cost = base.graph().edge_cost(u, v).expect("edge");
    let new_cost = old_cost + 50.0;

    loom::model(move || {
        let db = Arc::new(single_store(base.clone()));

        let writer = {
            let db = db.clone();
            loom::thread::spawn(move || {
                db.update_edge_cost(u, v, new_cost).expect("update");
            })
        };
        let reader = {
            let db = db.clone();
            loom::thread::spawn(move || {
                let mut last_epoch = 0;
                for _ in 0..4 {
                    let snap = db.snapshot();
                    let epoch = snap.install();
                    let seen = snap.db.graph().edge_cost(u, v).expect("edge");
                    let expect = if epoch == 0 { old_cost } else { new_cost };
                    assert_eq!(
                        seen.to_bits(),
                        expect.to_bits(),
                        "torn snapshot: epoch {epoch} with cost {seen}"
                    );
                    assert_eq!(snap.epochs.versions(), &[epoch], "shard 0 tracks installs");
                    assert!(epoch >= last_epoch, "epoch went backwards");
                    last_epoch = epoch;
                }
            })
        };
        writer.join().expect("writer");
        reader.join().expect("reader");
        assert_eq!(db.install(), 1);
    });
}

/// Race: concurrent submitters against a 1-worker, capacity-1 queue.
///
/// Invariants: every admitted ticket resolves (no lost wakeup, no
/// deadlocked `Ticket::wait`), every rejection is a typed `Shed`, and
/// the admitted + rejected counts add up — no request vanishes.
#[test]
fn admission_queue_reject_path() {
    let (base, s, d) = small_db();

    loom::model(move || {
        let service = Arc::new(RouteService::new(
            base.clone(),
            ServeConfig::default()
                .with_workers(1)
                .with_queue_capacity(1)
                .with_cache_capacity(0),
        ));

        let submitters: Vec<_> = (0..3)
            .map(|_| {
                let service = service.clone();
                loom::thread::spawn(move || match service.submit(s, d) {
                    Ok(ticket) => {
                        let answer = ticket.wait().expect("admitted request must resolve");
                        assert!(answer.path.is_some(), "grid pair is reachable");
                        assert_eq!(answer.epoch, 0);
                        1u32
                    }
                    Err(e) => {
                        assert!(matches!(e, ServeError::Shed { .. }), "unexpected: {e}");
                        0u32
                    }
                })
            })
            .collect();

        let admitted: u32 = submitters
            .into_iter()
            .map(|h| h.join().expect("join"))
            .sum();
        // At least one request always fits an empty queue; the rest is
        // schedule-dependent, but nothing may be lost.
        assert!((1..=3).contains(&admitted));
    });
}

fn route(nodes: &[u32], cost: f64, epoch: u64) -> CachedRoute {
    CachedRoute {
        path: Path {
            nodes: nodes.iter().map(|&n| NodeId(n)).collect(),
            cost,
        },
        epoch,
        iterations: 3,
        cost_units: 10.0,
    }
}

/// Race: a one-shard update sweep promoting/dropping entries while
/// readers look up at both the old and the new install.
///
/// Invariants: a hit at install `e` always carries `route.epoch == e`;
/// the entry whose path uses the updated edge is never served at the
/// new install; the off-path entry survives the sweep (re-stamped, same
/// bits).
#[test]
fn cache_promote_or_drop_sweep() {
    // The install-1 vector of a real one-shard store: shard 0 at 1.
    let (base, _, _) = small_db();
    let u = NodeId(0);
    let v = base.graph().neighbors(u)[0].to;
    let v1: EpochVector = (*single_store(base)
        .update_edge_cost(u, v, 99.0)
        .expect("update")
        .epochs)
        .clone();
    assert_eq!(v1.versions(), &[1]);
    loom::model(move || {
        let cache = Arc::new(RouteCache::new(8));
        cache.insert_stamped(
            NodeId(1),
            NodeId(3),
            route(&[1, 2, 3], 4.0, 0),
            vec![(0, 0)],
        );
        cache.insert_stamped(NodeId(4), NodeId(5), route(&[4, 5], 2.0, 0), vec![(0, 0)]);

        let sweeper = {
            let cache = cache.clone();
            let v1 = v1.clone();
            loom::thread::spawn(move || {
                // Congestion on (1,2): drops the through route, re-stamps
                // the off-path one.
                cache.apply_shard_update(NodeId(1), NodeId(2), 1.0, 99.0, &[0], &v1)
            })
        };
        let reader = {
            let cache = cache.clone();
            let v1 = v1.clone();
            loom::thread::spawn(move || {
                for _ in 0..4 {
                    if let Some(hit) = cache.lookup_vec(NodeId(1), NodeId(3), &v1) {
                        panic!("stale through-route served at install 1: {hit:?}");
                    }
                    if let Some(hit) = cache.lookup_vec(NodeId(4), NodeId(5), &v1) {
                        assert_eq!(hit.epoch, 1);
                        assert_eq!(hit.path.cost.to_bits(), 2.0f64.to_bits());
                    }
                }
            })
        };

        let (invalidated, promoted) = sweeper.join().expect("sweeper");
        reader.join().expect("reader");
        assert_eq!((invalidated, promoted), (1, 1));
        assert!(cache.lookup_vec(NodeId(1), NodeId(3), &v1).is_none());
        assert!(cache.lookup_vec(NodeId(4), NodeId(5), &v1).is_some());
    });
}

/// The cost of walking `nodes` on `db`'s current edge costs.
fn path_cost(db: &Database, nodes: &[NodeId]) -> f64 {
    nodes
        .windows(2)
        .map(|hop| db.graph().edge_cost(hop[0], hop[1]).expect("grid edge"))
        .sum()
}

/// Race: two updaters install and sweep concurrently on a one-shard
/// store, so their sweeps may run out of install order, while a reader
/// looks a cached route up against fresh snapshots.
///
/// Invariant under every interleaving: a hit's cached cost is the
/// path's cost on the snapshot it hit against — a sweep never re-stamps
/// an entry past an install whose jam it has not seen.
#[test]
fn racing_update_sweeps_never_serve_a_route_past_an_unseen_jam() {
    let (base, _, _) = small_db();
    let path = [NodeId(0), NodeId(1), NodeId(2)];
    let cached_cost = path_cost(&base, &path);
    loom::model(move || {
        let store = Arc::new(single_store(base.clone()));
        let cache = Arc::new(RouteCache::new(8));
        cache.insert_stamped(
            path[0],
            path[2],
            CachedRoute {
                path: Path {
                    nodes: path.to_vec(),
                    cost: cached_cost,
                },
                epoch: 0,
                iterations: 3,
                cost_units: 10.0,
            },
            vec![(0, 0)],
        );
        // One jam on the cached path, one off it.
        let updaters: Vec<_> = [(NodeId(0), NodeId(1)), (NodeId(5), NodeId(6))]
            .into_iter()
            .map(|(u, v)| {
                let (store, cache) = (store.clone(), cache.clone());
                loom::thread::spawn(move || {
                    let up = store.update_edge_cost(u, v, 99.0).expect("update");
                    cache.apply_shard_update(
                        u,
                        v,
                        up.old_cost,
                        up.new_cost,
                        &up.shards,
                        &up.epochs,
                    );
                })
            })
            .collect();
        let reader = {
            let (store, cache) = (store.clone(), cache.clone());
            loom::thread::spawn(move || {
                for _ in 0..4 {
                    let snap = store.snapshot();
                    if let Some(hit) = cache.lookup_vec(path[0], path[2], &snap.epochs) {
                        let actual = path_cost(&snap.db, &path);
                        assert!(
                            (hit.path.cost - actual).abs() < 1e-9,
                            "install {}: cached {} but the path costs {actual}",
                            snap.install(),
                            hit.path.cost
                        );
                    }
                }
            })
        };
        for updater in updaters {
            updater.join().expect("updater");
        }
        reader.join().expect("reader");
        let snap = store.snapshot();
        assert_eq!(snap.install(), 2);
        assert!(cache.lookup_vec(path[0], path[2], &snap.epochs).is_none());
    });
}

/// Race: concurrent typed failures and a success racing an epoch
/// install against one circuit breaker.
///
/// Invariants under every interleaving:
/// * at most one of the racing failures reports the `closed → open`
///   transition (the trip fires exactly once, never twice);
/// * the machine is never corrupted — after the race it can always be
///   driven deterministically through trip → probe → re-close;
/// * the epoch install is independent of breaker state (the update
///   lands regardless of how the race resolved).
#[test]
fn breaker_trip_probe_reclose_vs_epoch_install() {
    let (base, _, _) = small_db();
    let u = NodeId(0);
    let v = base.graph().neighbors(u)[0].to;

    loom::model(move || {
        let breaker = Arc::new(CircuitBreaker::new(BreakerConfig {
            failure_threshold: 2,
            open_ticks: 10,
            probes: 1,
        }));
        let epochs = Arc::new(single_store(base.clone()));

        let failers: Vec<_> = (0..2)
            .map(|_| {
                let breaker = breaker.clone();
                loom::thread::spawn(move || breaker.on_failure(5).is_some())
            })
            .collect();
        let closer = {
            let breaker = breaker.clone();
            loom::thread::spawn(move || breaker.on_success())
        };
        let installer = {
            let epochs = epochs.clone();
            loom::thread::spawn(move || {
                epochs.update_edge_cost(u, v, 123.0).expect("update");
            })
        };

        let trips: usize = failers
            .into_iter()
            .map(|h| usize::from(h.join().expect("failer")))
            .sum();
        closer.join().expect("closer");
        installer.join().expect("installer");
        assert!(trips <= 1, "the trip transition fired {trips} times");
        assert_eq!(epochs.install(), 1, "the update must land regardless");

        // Deterministic tail: whatever the race left behind, the machine
        // must still trip, probe, and re-close cleanly.
        let mut tripped = matches!(breaker.state(), BreakerState::Open { .. });
        for now in 0..4 {
            if tripped {
                break;
            }
            tripped = breaker.on_failure(now).is_some();
        }
        assert!(tripped, "bounded failures must trip the breaker");
        let until = match breaker.state() {
            BreakerState::Open { until } => until,
            other => panic!("expected open, got {other:?}"),
        };
        let (admission, transition) = breaker.admit(until);
        assert_eq!(admission, Admission::Probe);
        assert_eq!(
            transition.expect("open -> half-open").to,
            BreakerState::HalfOpen
        );
        let reclose = breaker.on_success().expect("half-open -> closed");
        assert_eq!(reclose.to, BreakerState::Closed);
        assert_eq!(breaker.state(), BreakerState::Closed);
    });
}

/// Race: an aborted half-open probe (guard dropped without a verdict)
/// against an unrelated failure report landing on the same breaker.
///
/// Invariants under every interleaving:
/// * the machine never wedges — after the race a probe slot is always
///   available again (either the breaker re-opened, whose window then
///   elapses into a fresh probe, or the released slot is re-admitted);
/// * the aborted probe never *closes* the breaker — only a success
///   verdict may do that.
#[test]
fn aborted_probe_release_vs_concurrent_failure() {
    loom::model(|| {
        let breaker = Arc::new(CircuitBreaker::new(BreakerConfig {
            failure_threshold: 1,
            open_ticks: 10,
            probes: 1,
        }));
        // Trip and half-open: tick 0 failure opens until 10; the admit
        // at 10 takes the probe slot.
        breaker.on_failure(0);
        let (admission, _) = breaker.admit(10);
        assert_eq!(admission, Admission::Probe);

        let aborter = {
            let breaker = breaker.clone();
            loom::thread::spawn(move || {
                // The probe run is shed on its deadline: no verdict.
                drop(ProbeGuard::new(&*breaker, Admission::Probe));
            })
        };
        let failer = {
            let breaker = breaker.clone();
            loom::thread::spawn(move || breaker.on_failure(11))
        };

        aborter.join().expect("aborter");
        failer.join().expect("failer");

        match breaker.state() {
            // The failure won while half-open: re-opened; the window
            // elapsing must yield a fresh probe.
            BreakerState::Open { until } => {
                assert_eq!(breaker.admit(until).0, Admission::Probe);
            }
            // The release won and the failure saw half-open too — or
            // raced to a no-op; either way the freed slot must be
            // re-admittable, never denied forever.
            BreakerState::HalfOpen => {
                assert_eq!(breaker.admit(12).0, Admission::Probe);
            }
            BreakerState::Closed => panic!("an aborted probe must never close the breaker"),
        }
    });
}

/// Race: a sharded install (`ShardedEpochDb::update_edge_cost`) against
/// a batched worker's snapshot-then-read sequence.
///
/// The batched path pins ONE `ShardSnapshot` per dequeued batch and
/// serves every member from it; the hazard is a torn install — the new
/// database observed with the old epoch vector (or vice versa), which
/// would let a stale-stamped cache hit survive a sweep it should not
/// have. Invariants under every interleaving:
///
/// * database and vector always agree: install 0 ⇔ pre-update cost and
///   untouched endpoint-shard versions; install 1 ⇔ post-update cost
///   and both endpoint shards bumped;
/// * a shard the update never touched stays at version 0 throughout;
/// * the install counter observed by one reader never goes backwards.
#[test]
fn shard_install_vs_batched_read_race() {
    // A grid big enough that the region partitioner yields at least two
    // shards (regions target 256 nodes): 24x24 = 576 nodes.
    let grid = Grid::new(24, CostModel::TWENTY_PERCENT, 7).expect("grid");
    let base = Database::open(grid.graph()).expect("open");
    let map = ShardMap::build(base.graph(), 4);
    assert!(
        map.shard_count() >= 2,
        "model needs a real multi-shard map, got {}",
        map.shard_count()
    );
    let u = NodeId(0);
    let v = base.graph().neighbors(u)[0].to;
    let shard_u = map.shard_of(u);
    let shard_v = map.shard_of(v);
    // A node guaranteed to live in a shard the update does not touch.
    let far = (0..base.graph().node_count() as u32)
        .map(NodeId)
        .find(|&n| map.shard_of(n) != shard_u && map.shard_of(n) != shard_v)
        .expect("multi-shard map has an untouched shard");
    let far_shard = map.shard_of(far);
    let old_cost = base.graph().edge_cost(u, v).expect("edge");
    let new_cost = old_cost + 50.0;

    loom::model(move || {
        let db = Arc::new(ShardedEpochDb::new(base.clone(), map.clone()));

        let writer = {
            let db = db.clone();
            loom::thread::spawn(move || {
                let installed = db.update_edge_cost(u, v, new_cost).expect("install");
                assert_eq!(installed.epoch, 1);
                assert!(installed.shards.contains(&shard_u));
            })
        };
        let reader = {
            let db = db.clone();
            loom::thread::spawn(move || {
                let mut last_install = 0;
                for _ in 0..3 {
                    // One snapshot per batch: db + vector under one
                    // lock acquisition (the consistency rule).
                    let snap = db.snapshot();
                    let seen = snap.db.graph().edge_cost(u, v).expect("edge");
                    let install = snap.install();
                    let (want_cost, want_version) = if install == 0 {
                        (old_cost, 0)
                    } else {
                        (new_cost, 1)
                    };
                    assert_eq!(
                        seen.to_bits(),
                        want_cost.to_bits(),
                        "torn install: install {install} with cost {seen}"
                    );
                    assert_eq!(
                        snap.epochs.version(shard_u),
                        want_version,
                        "vector behind the database at install {install}"
                    );
                    assert_eq!(
                        snap.epochs.version(shard_v),
                        want_version,
                        "endpoint shard missed its bump at install {install}"
                    );
                    assert_eq!(
                        snap.epochs.version(far_shard),
                        0,
                        "an untouched shard was bumped"
                    );
                    assert!(install >= last_install, "install counter went backwards");
                    last_install = install;
                }
            })
        };
        writer.join().expect("writer");
        reader.join().expect("reader");
        assert_eq!(db.install(), 1);
    });
}
