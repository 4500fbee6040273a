//! Concurrency correctness of the serving layer (`atis-serve`).
//!
//! The two guarantees under test:
//!
//! 1. **Oracle bit-identity** — every answer a pooled server returns is
//!    bit-identical (same node sequence, same `f64` cost bits) to a
//!    single-threaded run of the same algorithm against the database
//!    state *at the answer's epoch*. Concurrency must be invisible in
//!    the answers.
//! 2. **No torn answers** — an `UPDATE` arriving while `ROUTE` queries
//!    are in flight must never produce an answer that mixes pre- and
//!    post-update edge costs: each answer validates, cost-exactly,
//!    against exactly the epoch it claims.
//!
//! Both guarantees are re-asserted for the **sharded** configuration
//! (epochs per region group, batched expansion): an answer pinned to an
//! epoch vector must still price cost-exactly against the install
//! counter it claims, even while installs land on other shards
//! mid-query.
//!
//! The suite is sized to finish quickly in debug builds; the `chaos`
//! CI job reruns it in `--release` with unconstrained test threads.

use atis::algorithms::Database;
use atis::serve::{RouteService, ServeConfig, ServeError};
use atis::{CostModel, Graph, Grid, NodeId, QueryKind};
use std::collections::HashMap;
use std::sync::Arc;
use std::time::Duration;

/// Routes with bounded retry on `SHED` — the client-side half of the
/// admission-control contract.
fn route_with_backoff(
    service: &RouteService,
    from: NodeId,
    to: NodeId,
) -> atis::serve::RouteAnswer {
    loop {
        match service.route(from, to) {
            Ok(answer) => return answer,
            Err(ServeError::Shed { .. }) => std::thread::sleep(Duration::from_micros(200)),
            Err(e) => panic!("unexpected serve error: {e}"),
        }
    }
}

/// Rebuilds the graph as it stood at `epoch`, given the initial graph and
/// the ordered update log.
fn graph_at_epoch(initial: &Graph, updates: &[(u64, NodeId, NodeId, f64)], epoch: u64) -> Graph {
    let mut g = initial.clone();
    for &(e, u, v, c) in updates {
        if e <= epoch {
            g.set_edge_cost(u, v, c).expect("replaying a valid update");
        }
    }
    g
}

#[test]
fn concurrent_answers_are_bit_identical_to_the_single_threaded_oracle() {
    const CLIENTS: usize = 8;
    const REQUESTS_PER_CLIENT: usize = 24;
    const UPDATES: usize = 6;

    let grid = Grid::new(10, CostModel::TWENTY_PERCENT, 11).unwrap();
    let initial = grid.graph().clone();
    let service = Arc::new(RouteService::new(
        Database::open(grid.graph()).unwrap(),
        ServeConfig::default()
            .with_workers(4)
            .with_queue_capacity(64)
            .with_cache_capacity(128),
    ));

    // A fixed set of query pairs, so the cache sees repeats.
    let pairs: Vec<(NodeId, NodeId)> = vec![
        grid.query_pair(QueryKind::Diagonal),
        grid.query_pair(QueryKind::SemiDiagonal),
        grid.query_pair(QueryKind::Horizontal),
        (grid.node_at(0, 0), grid.node_at(9, 3)),
        (grid.node_at(2, 7), grid.node_at(8, 1)),
        (grid.node_at(5, 5), grid.node_at(0, 9)),
    ];

    // Writer: jam a different edge every few milliseconds, recording the
    // exact update log (epoch, u, v, cost).
    let writer = {
        let service = service.clone();
        let grid_edges: Vec<(NodeId, NodeId)> = (0..UPDATES)
            .map(|i| {
                let u = grid.node_at(i, i);
                let v = grid.node_at(i, i + 1);
                (u, v)
            })
            .collect();
        std::thread::spawn(move || {
            let mut log = Vec::new();
            for (i, (u, v)) in grid_edges.into_iter().enumerate() {
                std::thread::sleep(Duration::from_millis(3));
                let cost = 40.0 + i as f64;
                let update = service.update_edge_cost(u, v, cost).unwrap();
                log.push((update.epoch, u, v, cost));
            }
            log
        })
    };

    // Clients: hammer the fixed pairs, collecting every answer.
    let clients: Vec<_> = (0..CLIENTS)
        .map(|c| {
            let service = service.clone();
            let pairs = pairs.clone();
            std::thread::spawn(move || {
                let mut answers = Vec::new();
                for r in 0..REQUESTS_PER_CLIENT {
                    let (from, to) = pairs[(c + r) % pairs.len()];
                    let answer = route_with_backoff(&service, from, to);
                    answers.push((from, to, answer));
                }
                answers
            })
        })
        .collect();

    let updates = writer.join().unwrap();
    let answers: Vec<_> = clients
        .into_iter()
        .flat_map(|c| c.join().unwrap())
        .collect();
    assert_eq!(answers.len(), CLIENTS * REQUESTS_PER_CLIENT);

    // Single-threaded oracle, one database per observed epoch.
    let mut oracles: HashMap<u64, Database> = HashMap::new();
    let algorithm = service.algorithm();
    let mut cached_answers = 0usize;
    for (from, to, answer) in &answers {
        let oracle = oracles.entry(answer.epoch).or_insert_with(|| {
            Database::open(&graph_at_epoch(&initial, &updates, answer.epoch)).unwrap()
        });
        let expected = oracle.run(algorithm, *from, *to).unwrap();
        let got = answer.path.as_ref().expect("grid queries are connected");
        let want = expected.path.as_ref().expect("oracle finds the same route");
        assert_eq!(
            got.nodes, want.nodes,
            "path mismatch at epoch {}",
            answer.epoch
        );
        assert_eq!(
            got.cost.to_bits(),
            want.cost.to_bits(),
            "cost bits mismatch at epoch {}: {} vs {}",
            answer.epoch,
            got.cost,
            want.cost
        );
        if answer.cached {
            cached_answers += 1;
        }
    }
    // The fixed query pairs repeat across clients, so the cache must have
    // served a real share of the load.
    assert!(
        cached_answers > 0,
        "expected at least one cache-served answer"
    );
}

#[test]
fn no_answer_ever_mixes_pre_and_post_update_costs() {
    // Regression for the seed route server, which mutated the live
    // database mid-stream: flip one heavily used edge between two known
    // costs while routing concurrently, then check every answer validates
    // cost-exactly against the graph at its own epoch. A torn answer —
    // some hops priced pre-update, some post — fails the exact recompute.
    let grid = Grid::new(8, CostModel::Uniform, 5).unwrap();
    let initial = grid.graph().clone();
    let (s, d) = grid.query_pair(QueryKind::Diagonal);
    let (u, v) = (grid.node_at(0, 0), grid.node_at(0, 1));

    let service = Arc::new(RouteService::new(
        Database::open(grid.graph()).unwrap(),
        // No cache: every answer is a fresh run, maximising the window
        // for the historic bug to reproduce.
        ServeConfig::default()
            .with_workers(4)
            .with_cache_capacity(0),
    ));

    let writer = {
        let service = service.clone();
        std::thread::spawn(move || {
            let mut log = Vec::new();
            for i in 0..10u64 {
                std::thread::sleep(Duration::from_millis(1));
                let cost = if i % 2 == 0 { 77.0 } else { 1.0 };
                let update = service.update_edge_cost(u, v, cost).unwrap();
                log.push((update.epoch, u, v, cost));
            }
            log
        })
    };

    let clients: Vec<_> = (0..6)
        .map(|_| {
            let service = service.clone();
            std::thread::spawn(move || {
                (0..20)
                    .map(|_| route_with_backoff(&service, s, d))
                    .collect::<Vec<_>>()
            })
        })
        .collect();

    let updates = writer.join().unwrap();
    for client in clients {
        for answer in client.join().unwrap() {
            let graph = graph_at_epoch(&initial, &updates, answer.epoch);
            let path = answer.path.expect("grid is connected");
            let recomputed = path
                .validate(&graph)
                .unwrap_or_else(|e| panic!("torn answer at epoch {}: {e}", answer.epoch));
            assert!(
                (recomputed - path.cost).abs() <= 1e-6 * recomputed.abs().max(1.0),
                "epoch {} answer does not price against its own snapshot",
                answer.epoch
            );
        }
    }
}

#[test]
fn a_sharded_install_is_never_observed_torn() {
    // The sharded variant of the torn-answer guarantee. An UPDATE under
    // sharded epochs installs a new database *and* bumps the touched
    // shards' versions behind one lock; a torn install — a worker
    // reading the new database against the old epoch vector, or an
    // answer whose claimed install mixes pre- and post-update costs —
    // would fail the exact recompute at its claimed epoch. Cross-shard
    // diagonals plus a writer sweeping jams across the whole grid
    // maximise the shard-boundary traffic; batching and the cache stay
    // ON because both are epoch-vector consumers (a stale-stamped cache
    // hit that survived a sweep it should not have also shows up as a
    // pricing failure at its claimed epoch). Side 18: a 16×16 grid or
    // smaller fits one 256-node region and so runs a single shard.
    let k = 18;
    let grid = Grid::new(k, CostModel::TWENTY_PERCENT, 23).unwrap();
    let initial = grid.graph().clone();
    let pairs = [
        (grid.node_at(0, 0), grid.node_at(k - 1, k - 1)),
        (grid.node_at(k - 1, 0), grid.node_at(0, k - 1)),
        (grid.node_at(0, k / 2 - 1), grid.node_at(k - 1, k / 2)),
        (grid.node_at(k / 2 - 1, 0), grid.node_at(k / 2, k - 1)),
    ];

    let service = Arc::new(RouteService::new(
        Database::open(grid.graph()).unwrap(),
        ServeConfig::default()
            .with_workers(4)
            .with_queue_capacity(64)
            .with_cache_capacity(128)
            .with_shards(4)
            .with_batch_max(4),
    ));
    assert!(
        service.shards() > 1,
        "the side-{k} grid must split into shards"
    );

    let writer = {
        let service = service.clone();
        let edges: Vec<(NodeId, NodeId)> = (0..16)
            .map(|i| {
                let x = (i * 3) % (k - 1);
                let y = (i * 7) % k;
                (grid.node_at(x, y), grid.node_at(x + 1, y))
            })
            .collect();
        std::thread::spawn(move || {
            let mut log = Vec::new();
            for (i, (u, v)) in edges.into_iter().enumerate() {
                std::thread::sleep(Duration::from_millis(1));
                let cost = 30.0 + i as f64;
                let update = service.update_edge_cost(u, v, cost).unwrap();
                log.push((update.epoch, u, v, cost));
            }
            log
        })
    };

    let clients: Vec<_> = (0..6)
        .map(|c| {
            let service = service.clone();
            std::thread::spawn(move || {
                (0..24)
                    .map(|r| {
                        let (from, to) = pairs[(c + r) % pairs.len()];
                        route_with_backoff(&service, from, to)
                    })
                    .collect::<Vec<_>>()
            })
        })
        .collect();

    let updates = writer.join().unwrap();
    let mut cached_answers = 0usize;
    for client in clients {
        for answer in client.join().unwrap() {
            let graph = graph_at_epoch(&initial, &updates, answer.epoch);
            let path = answer.path.expect("grid is connected");
            let recomputed = path
                .validate(&graph)
                .unwrap_or_else(|e| panic!("torn sharded answer at install {}: {e}", answer.epoch));
            assert!(
                (recomputed - path.cost).abs() <= 1e-6 * recomputed.abs().max(1.0),
                "install {} answer does not price against its own snapshot",
                answer.epoch
            );
            if answer.cached {
                cached_answers += 1;
            }
        }
    }
    // The fixed pairs repeat, so the shard-stamped cache must have
    // carried part of the load — otherwise this test stopped covering
    // the stamped-hit path.
    assert!(
        cached_answers > 0,
        "expected at least one stamped cache hit under sharded installs"
    );
}

#[test]
fn pooled_throughput_is_not_serialized() {
    // Not a benchmark — a sanity check that 4 workers actually run in
    // parallel: with the cache off, 4 workers must clear a fixed batch
    // no slower than 1 worker does (generously margined for CI noise).
    let grid = Grid::new(10, CostModel::TWENTY_PERCENT, 3).unwrap();
    let pairs: Vec<(NodeId, NodeId)> = (0..4)
        .map(|i| (grid.node_at(0, i), grid.node_at(9, 9 - i)))
        .collect();

    let elapsed_with = |workers: usize| {
        let service = Arc::new(RouteService::new(
            Database::open(grid.graph()).unwrap(),
            ServeConfig::default()
                .with_workers(workers)
                .with_queue_capacity(256)
                .with_cache_capacity(0),
        ));
        let started = std::time::Instant::now();
        let threads: Vec<_> = (0..4)
            .map(|t| {
                let service = service.clone();
                let pairs = pairs.clone();
                std::thread::spawn(move || {
                    for _ in 0..8 {
                        let (from, to) = pairs[t];
                        route_with_backoff(&service, from, to);
                    }
                })
            })
            .collect();
        for t in threads {
            t.join().unwrap();
        }
        started.elapsed()
    };

    let one = elapsed_with(1);
    let four = elapsed_with(4);
    assert!(
        four <= one * 2,
        "4 workers ({four:?}) should not be slower than 2x a single worker ({one:?})"
    );
}
