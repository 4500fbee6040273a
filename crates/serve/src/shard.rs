//! The epoch store: concurrent reads, serialized copy-on-write updates,
//! versioned per shard so an `UPDATE` does not stop the world.
//!
//! The paper's serving scenario has many in-vehicle clients reading one
//! central map while live traffic updates trickle in. Funnelling both
//! through a single `Mutex<Database>` lets one slow A\* run block the
//! fleet *and* lets an `UPDATE` land between two storage reads of a
//! running query, mixing pre- and post-update edge costs in one answer.
//! [`ShardedEpochDb`] fixes both with the classic snapshot scheme:
//!
//! * The current database lives behind an `Arc`. Readers grab a
//!   [`ShardSnapshot`] in one cheap lock acquisition and then run
//!   entirely against that immutable snapshot — queries at the same
//!   install run in parallel, and no later write can reach them.
//! * A writer clones the current database, applies the cost update to
//!   the clone, and installs it. Writers are serialized by the same
//!   lock; readers never wait on a running query, only on the (small)
//!   clone-and-swap window.
//!
//! Installs are versioned along the storage engine's own
//! [`PartitionMap`] region groups ([`ShardMap`]): each shard carries its
//! own version counter, and an update bumps only the shards whose
//! blocks it touches — the endpoints' shards — plus one global
//! *install* counter that totally orders installs. One shard is the
//! degenerate case: every update bumps shard 0, so its version is the
//! install counter.
//!
//! ## The epoch-vector consistency rule
//!
//! A query pins one [`ShardSnapshot`]: the `Arc<Database>` plus the
//! whole [`EpochVector`] it was installed with, taken under one lock
//! acquisition. Because the database and the vector are replaced
//! together atomically, every cross-shard route runs against *one*
//! consistent vector — it can never observe shard 3 at version 5 and
//! shard 4 at version 4 from two different installs. Answers carry the
//! snapshot's install counter as their epoch: a total order on what the
//! answer reflects.
//!
//! Cached routes are then validated per shard: an entry stamped with
//! the versions of the shards its path crosses is still exact at a
//! later snapshot as long as those per-shard versions are unchanged —
//! updates elsewhere provably cannot have touched it (see `cache.rs`
//! for the invalidation rule).
//!
//! The database itself stays whole-graph (one `Arc<Database>` per
//! install): sharding versions the *validity* of derived state, it does
//! not split the storage engine. Landmark tables and the contraction
//! hierarchy remain whole-graph epoch artifacts
//! (`maintain_artifacts`).

use crate::sync::{self, Arc, Mutex, MutexGuard};
use atis_algorithms::{AlgorithmError, Database};
use atis_graph::{Graph, NodeId, PartitionMap};

/// Region size the partitioner targets when building shard maps — the
/// workspace convention (storage blocks, hierarchy ordering, scaling
/// bench all partition at 256).
const REGION_TARGET: usize = 256;

/// Maps every node to a serving shard: a contiguous group of
/// [`PartitionMap`] regions.
///
/// Shards follow the storage layout on purpose: regions are
/// block-aligned (PR 7's class-aware BFS partitioning), so the shards
/// whose versions an update bumps are exactly the region groups whose
/// blocks it dirtied.
#[derive(Debug, Clone)]
pub struct ShardMap {
    shard_of: Vec<u32>,
    shards: u32,
}

impl ShardMap {
    /// The trivial one-shard map (every node in shard 0): every update
    /// bumps the one shard, so every install touches every cached route.
    pub fn single(nodes: usize) -> Self {
        ShardMap {
            shard_of: vec![0; nodes],
            shards: 1,
        }
    }

    /// Partitions `graph` into (at most) `shards` region groups: the
    /// storage partitioner grows block-aligned regions, which are then
    /// grouped contiguously. Deterministic for a given graph.
    pub fn build(graph: &Graph, shards: usize) -> Self {
        if shards <= 1 || graph.node_count() == 0 {
            return Self::single(graph.node_count());
        }
        let partition = PartitionMap::build(graph, REGION_TARGET);
        let regions = partition.region_count().max(1);
        let shards = shards.min(regions) as u32;
        let shard_of = (0..graph.node_count())
            .map(|id| {
                let region = partition.region_of(NodeId(id as u32)) as u64;
                (region * shards as u64 / regions as u64) as u32
            })
            .collect();
        ShardMap { shard_of, shards }
    }

    /// The shard owning `node` (unknown ids map to shard 0, matching
    /// the engine's treatment of out-of-range keys as errors upstream).
    pub fn shard_of(&self, node: NodeId) -> u32 {
        self.shard_of.get(node.0 as usize).copied().unwrap_or(0)
    }

    /// Number of shards (≥ 1).
    pub fn shard_count(&self) -> usize {
        self.shards as usize
    }

    /// The sorted, deduplicated set of shards a node sequence (a path)
    /// crosses.
    pub fn path_shards(&self, nodes: &[NodeId]) -> Vec<u32> {
        let mut shards: Vec<u32> = nodes.iter().map(|&n| self.shard_of(n)).collect();
        shards.sort_unstable();
        shards.dedup();
        shards
    }
}

/// Per-shard versions plus the global install counter, frozen at one
/// install. Immutable once published (readers share it by `Arc`).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct EpochVector {
    install: u64,
    versions: Vec<u64>,
}

impl EpochVector {
    fn new(shards: usize) -> Self {
        EpochVector {
            install: 0,
            versions: vec![0; shards.max(1)],
        }
    }

    /// Direct constructor for in-crate tests of the stamped cache.
    #[cfg(test)]
    pub(crate) fn with_versions(install: u64, versions: Vec<u64>) -> Self {
        EpochVector { install, versions }
    }

    /// The global install counter: a total order on installs, and the
    /// number every answer reports as its epoch.
    pub fn install(&self) -> u64 {
        self.install
    }

    /// The version of one shard (unknown shards read 0).
    pub fn version(&self, shard: u32) -> u64 {
        self.versions.get(shard as usize).copied().unwrap_or(0)
    }

    /// All per-shard versions, indexed by shard id.
    pub fn versions(&self) -> &[u64] {
        &self.versions
    }

    /// Number of shards in the vector.
    pub fn shard_count(&self) -> usize {
        self.versions.len()
    }
}

/// An immutable view of the sharded serving state at one install: the
/// database plus the epoch vector it was installed with, taken together
/// under one lock acquisition (the consistency rule).
#[derive(Debug, Clone)]
pub struct ShardSnapshot {
    /// The database frozen at this install.
    pub db: Arc<Database>,
    /// The per-shard versions this database reflects.
    pub epochs: Arc<EpochVector>,
}

impl ShardSnapshot {
    /// The snapshot's global install counter (the answer epoch).
    pub fn install(&self) -> u64 {
        self.epochs.install()
    }
}

/// How an update maintained the snapshot's landmark (ALT) tables.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum LandmarkRefresh {
    /// The database carries no landmark tables (or the update touched no
    /// edge), so there was nothing to maintain.
    None,
    /// Cost increase: the old tables stay admissible (old bounds
    /// under-estimate distances that only grew), so they were re-stamped
    /// for the new epoch without recomputation — degraded but sound.
    Patched,
    /// Cost decrease: stale bounds could overestimate, so the tables were
    /// rebuilt from scratch (2·k SSSP sweeps) before the epoch installed.
    Rebuilt,
    /// A required rebuild failed: the stale tables were left in place
    /// (marked not-current, so v4 fails typed and the degrade ladder
    /// serves v3 instead of wrong answers). The serving layer counts
    /// this against the landmark circuit breaker.
    RebuildFailed,
}

/// How an update maintained the snapshot's contraction hierarchy.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum HierarchyRefresh {
    /// The database carries no hierarchy (or the update touched no
    /// edge), so there was nothing to maintain.
    None,
    /// Cost increase: the overlay topology stays valid and a
    /// customization pass re-priced every shortcut for the new metric —
    /// exact but degraded (witness dormancy cleared, so v5 expands
    /// more arcs until the next re-contraction).
    Customized,
    /// Cost decrease: witness dormancy computed at the old metric could
    /// hide the now-cheaper shortcuts, so the hierarchy was
    /// re-contracted from scratch before the epoch installed.
    Recontracted,
    /// A required re-contraction failed: the stale hierarchy was left
    /// in place (marked not-current, so v5 fails typed and the degrade
    /// ladder serves v4/v3 instead of stale-priced shortcuts). Counted
    /// against the hierarchy circuit breaker.
    RebuildFailed,
}

/// The result of installing one traffic update.
#[derive(Debug, Clone, PartialEq)]
pub struct EpochUpdate {
    /// The new global install counter (the epoch answers report).
    pub epoch: u64,
    /// Directed edge tuples the update touched.
    pub updated: usize,
    /// The edge's cost before the update (minimum over parallel edges).
    pub old_cost: f64,
    /// The edge's cost after the update.
    pub new_cost: f64,
    /// How the epoch's landmark tables were kept current.
    pub landmarks: LandmarkRefresh,
    /// How the epoch's contraction hierarchy was kept current.
    pub hierarchy: HierarchyRefresh,
    /// The shards whose versions this install bumped (sorted, deduped).
    pub shards: Vec<u32>,
    /// The epoch vector after the install.
    pub epochs: Arc<EpochVector>,
}

/// Maintains a cloned snapshot's landmark (ALT) tables and contraction
/// hierarchy for an edge-cost change from `old_cost` to `new_cost`:
/// increases patch/customize (cheap, degraded-but-sound), decreases
/// rebuild/re-contract (a failure leaves the stale artifact in place,
/// marked not-current, so the degrade ladder serves a lower rung).
/// Artifacts are whole-graph, so their refresh is keyed to the install,
/// never to a shard.
fn maintain_artifacts(
    mut next: Database,
    old_cost: f64,
    new_cost: f64,
) -> (Database, LandmarkRefresh, HierarchyRefresh) {
    let mut landmarks = LandmarkRefresh::None;
    let mut hierarchy = HierarchyRefresh::None;
    if let Some(overlay) = next.hierarchy().cloned() {
        if new_cost >= old_cost {
            // Congestion: the overlay topology is metric-independent,
            // so a customization pass re-prices every shortcut
            // exactly — no re-contraction needed.
            let customized = overlay.customized_for(next.graph());
            next = next.with_hierarchy(customized);
            hierarchy = HierarchyRefresh::Customized;
        } else {
            match overlay.rebuild_for(next.graph()) {
                Ok(fresh) => {
                    next = next.with_hierarchy(fresh);
                    hierarchy = HierarchyRefresh::Recontracted;
                }
                // Leave the stale hierarchy in place — v5 then
                // fails typed and the ladder serves v4/v3:
                // degraded service, never a stale-priced
                // shortcut.
                Err(_) => hierarchy = HierarchyRefresh::RebuildFailed,
            }
        }
    }
    if let Some(tables) = next.landmarks().cloned() {
        if new_cost >= old_cost {
            let patched = tables.patched_for(next.graph());
            next = next.with_landmarks(patched);
            landmarks = LandmarkRefresh::Patched;
        } else {
            match tables.rebuild_for(next.graph()) {
                Ok(fresh) => {
                    next = next.with_landmarks(fresh);
                    landmarks = LandmarkRefresh::Rebuilt;
                }
                // Leave the stale tables in place — v4 then
                // fails typed and the degrade ladder serves v3:
                // degraded service, not wrong answers. Reported
                // so the serving layer can trip its landmark
                // breaker instead of re-attempting the rebuild
                // on every subsequent update.
                Err(_) => landmarks = LandmarkRefresh::RebuildFailed,
            }
        }
    }
    (next, landmarks, hierarchy)
}

/// A database versioned by a per-shard epoch vector: lock-briefly
/// reads, copy-on-write updates that bump only the touched shards.
#[derive(Debug)]
pub struct ShardedEpochDb {
    map: Arc<ShardMap>,
    current: Mutex<ShardSnapshot>,
}

impl ShardedEpochDb {
    /// Wraps a freshly loaded database as install 0 with every shard at
    /// version 0.
    pub fn new(db: Database, map: ShardMap) -> Self {
        let shards = map.shard_count();
        ShardedEpochDb {
            map: Arc::new(map),
            current: Mutex::new(ShardSnapshot {
                db: Arc::new(db),
                epochs: Arc::new(EpochVector::new(shards)),
            }),
        }
    }

    /// Designated acquirer for the epoch slot (rank 2 in the declared
    /// lock order — see `sync.rs` and `atis-analyze rules`).
    fn lock_current(&self) -> MutexGuard<'_, ShardSnapshot> {
        sync::lock(&self.current)
    }

    /// The node-to-shard map this store versions by.
    pub fn map(&self) -> &Arc<ShardMap> {
        &self.map
    }

    /// The current `(database, epoch vector)` pair. Queries must use
    /// the returned snapshot for *all* their reads — re-fetching
    /// mid-query is exactly the torn-answer bug snapshots prevent, and
    /// mixing two snapshots' vectors breaks the consistency rule.
    pub fn snapshot(&self) -> ShardSnapshot {
        self.lock_current().clone()
    }

    /// The current global install counter.
    pub fn install(&self) -> u64 {
        self.lock_current().epochs.install()
    }

    /// Applies a traffic update copy-on-write: clones the current
    /// database, updates edge `(u, v)` on the clone, and installs it
    /// with the endpoint shards' versions (and the install counter)
    /// bumped. Running queries keep their old snapshots; untouched
    /// shards keep their versions, which is what lets the cache carry
    /// their routes across the install without a sweep.
    ///
    /// When the database carries landmark (ALT) tables they are part of
    /// the epoch artifact: a cost *increase* (congestion, the common
    /// case) keeps the old tables admissible, so they are cheaply
    /// re-stamped for the new fingerprint; a cost *decrease* rebuilds
    /// them before the install, so A\* version 4 never sees a snapshot
    /// whose tables could overestimate. A contraction hierarchy follows
    /// the same contract with cheaper repairs: an increase re-prices the
    /// metric-independent overlay via a customization pass, a decrease
    /// re-contracts from scratch — either way A\* version 5 never
    /// unpacks a stale-priced shortcut.
    ///
    /// # Errors
    /// Fails for unknown endpoints or invalid costs; the current
    /// install is left untouched.
    pub fn update_edge_cost(
        &self,
        u: NodeId,
        v: NodeId,
        cost: f64,
    ) -> Result<EpochUpdate, AlgorithmError> {
        let mut current = self.lock_current();
        if !current.db.graph().contains(u) {
            return Err(AlgorithmError::UnknownSource(u));
        }
        if !current.db.graph().contains(v) {
            return Err(AlgorithmError::UnknownDestination(v));
        }
        let old_cost = current.db.graph().edge_cost(u, v).unwrap_or(f64::INFINITY);
        let mut next: Database = (*current.db).clone();
        let updated = next.update_edge_cost(u, v, cost)?;
        let mut landmarks = LandmarkRefresh::None;
        let mut hierarchy = HierarchyRefresh::None;
        if updated > 0 {
            (next, landmarks, hierarchy) = maintain_artifacts(next, old_cost, cost);
        }
        let shards = self.map.path_shards(&[u, v]);
        let mut epochs: EpochVector = (*current.epochs).clone();
        epochs.install += 1;
        for &s in &shards {
            if let Some(version) = epochs.versions.get_mut(s as usize) {
                *version += 1;
            }
        }
        let epochs: Arc<EpochVector> = Arc::new(epochs);
        *current = ShardSnapshot {
            db: Arc::new(next),
            epochs: epochs.clone(),
        };
        drop(current);
        Ok(EpochUpdate {
            epoch: epochs.install(),
            updated,
            old_cost,
            new_cost: cost,
            landmarks,
            hierarchy,
            shards,
            epochs,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use atis_algorithms::Algorithm;
    use atis_graph::{CostModel, Grid, QueryKind};

    // 32×32 = 1024 nodes: four-plus regions at the 256 target, so a
    // 4-shard map is genuinely multi-shard.
    fn grid_store(shards: usize) -> (ShardedEpochDb, Grid) {
        let grid = Grid::new(32, CostModel::TWENTY_PERCENT, 7).unwrap();
        let map = ShardMap::build(grid.graph(), shards);
        let db = Database::open(grid.graph()).unwrap();
        (ShardedEpochDb::new(db, map), grid)
    }

    #[test]
    fn shard_map_covers_every_node_and_respects_the_bound() {
        let grid = Grid::new(32, CostModel::TWENTY_PERCENT, 7).unwrap();
        let map = ShardMap::build(grid.graph(), 4);
        assert!(map.shard_count() >= 1 && map.shard_count() <= 4);
        let mut seen = vec![false; map.shard_count()];
        for id in 0..grid.graph().node_count() {
            let s = map.shard_of(NodeId(id as u32));
            assert!((s as usize) < map.shard_count());
            seen[s as usize] = true;
        }
        assert!(
            seen.iter().all(|&s| s),
            "every shard must own at least one node"
        );
    }

    #[test]
    fn single_map_puts_every_node_in_shard_zero() {
        let map = ShardMap::single(16);
        assert_eq!(map.shard_count(), 1);
        assert_eq!(map.shard_of(NodeId(7)), 0);
        assert_eq!(map.path_shards(&[NodeId(1), NodeId(9)]), vec![0]);
    }

    #[test]
    fn small_graphs_collapse_to_one_shard() {
        // One 256-node region holds the whole 16×16 grid; at 17×17 the
        // partitioner needs a second.
        let grid = Grid::new(16, CostModel::TWENTY_PERCENT, 7).unwrap();
        assert_eq!(ShardMap::build(grid.graph(), 8).shard_count(), 1);
        let grid = Grid::new(17, CostModel::TWENTY_PERCENT, 7).unwrap();
        assert!(ShardMap::build(grid.graph(), 8).shard_count() > 1);
    }

    #[test]
    fn updates_bump_only_the_touched_shards() {
        let (store, grid) = grid_store(4);
        let map = store.map().clone();
        let u = grid.node_at(0, 0);
        let v = grid.node_at(0, 1);
        let before = store.snapshot();
        let upd = store.update_edge_cost(u, v, 9.0).unwrap();
        assert_eq!(upd.epoch, 1);
        assert_eq!(upd.shards, map.path_shards(&[u, v]));
        let after = store.snapshot();
        assert_eq!(after.install(), 1);
        for s in 0..map.shard_count() as u32 {
            let expect = if upd.shards.contains(&s) {
                before.epochs.version(s) + 1
            } else {
                before.epochs.version(s)
            };
            assert_eq!(after.epochs.version(s), expect, "shard {s}");
        }
        // At least one shard must be untouched on a 4-shard grid for a
        // corner-local update.
        assert!(upd.shards.len() < map.shard_count());
    }

    #[test]
    fn snapshots_pin_database_and_vector_together() {
        let (store, grid) = grid_store(4);
        let (s, d) = grid.query_pair(QueryKind::Diagonal);
        let before = store.snapshot();
        let path = before
            .db
            .run(Algorithm::Dijkstra, s, d)
            .unwrap()
            .path
            .unwrap();
        let (u, v) = path.hops().next().unwrap();
        store.update_edge_cost(u, v, 500.0).unwrap();
        // The pinned snapshot still answers with pre-update costs and
        // its own vector — never a mix.
        assert_eq!(before.install(), 0);
        let replay = before.db.run(Algorithm::Dijkstra, s, d).unwrap();
        assert_eq!(replay.path.unwrap().nodes, path.nodes);
        let after = store.snapshot();
        assert_eq!(after.install(), 1);
        assert_ne!(
            after.db.graph().edge_cost(u, v),
            before.db.graph().edge_cost(u, v)
        );
    }

    #[test]
    fn failed_updates_do_not_advance_the_install() {
        let (store, _) = grid_store(4);
        assert!(store
            .update_edge_cost(NodeId(0), NodeId(1), f64::NAN)
            .is_err());
        assert!(store
            .update_edge_cost(NodeId(60000), NodeId(1), 1.0)
            .is_err());
        assert_eq!(store.install(), 0);
    }

    /// A one-shard store: the degenerate case, where every install bumps
    /// shard 0 in step with the install counter.
    fn single_store(db: Database) -> ShardedEpochDb {
        let map = ShardMap::single(db.graph().node_count());
        ShardedEpochDb::new(db, map)
    }

    fn two_route_store() -> ShardedEpochDb {
        // 0 -> 1 -> 3 (cost 2) versus 0 -> 2 -> 3 (cost 4).
        let g = atis_graph::graph::graph_from_arcs(
            4,
            &[(0, 1, 1.0), (1, 3, 1.0), (0, 2, 2.0), (2, 3, 2.0)],
        )
        .unwrap();
        single_store(Database::open(&g).unwrap())
    }

    #[test]
    fn snapshots_are_immutable_across_updates() {
        let store = two_route_store();
        let before = store.snapshot();
        assert_eq!(before.install(), 0);

        let upd = store.update_edge_cost(NodeId(0), NodeId(1), 50.0).unwrap();
        assert_eq!(upd.epoch, 1);
        assert_eq!(upd.updated, 1);
        assert_eq!(upd.old_cost, 1.0);
        assert_eq!(upd.shards, vec![0]);
        assert_eq!(upd.epochs.versions(), &[1]);

        // The old snapshot still answers with the pre-update costs …
        let old = before
            .db
            .run(Algorithm::Dijkstra, NodeId(0), NodeId(3))
            .unwrap();
        assert_eq!(old.path.as_ref().unwrap().cost, 2.0);
        // … while the new install routes around the jam.
        let new = store.snapshot();
        assert_eq!(new.install(), 1);
        let fresh = new
            .db
            .run(Algorithm::Dijkstra, NodeId(0), NodeId(3))
            .unwrap();
        assert_eq!(fresh.path.as_ref().unwrap().cost, 4.0);
    }

    #[test]
    fn cost_increase_patches_tables_cost_decrease_rebuilds() {
        use atis_algorithms::AStarVersion;
        use atis_preprocess::{LandmarkTables, PreprocessConfig};

        let grid = Grid::new(6, CostModel::TWENTY_PERCENT, 8).unwrap();
        let tables = LandmarkTables::build(grid.graph(), PreprocessConfig::grid_default()).unwrap();
        let store = single_store(Database::open(grid.graph()).unwrap().with_landmarks(tables));
        let (s, d) = grid.query_pair(QueryKind::Diagonal);
        let (a, b) = (grid.node_at(2, 2), grid.node_at(2, 3));

        // Congestion: patched, degraded, and v4 still answers optimally
        // at the new install.
        let up = store.update_edge_cost(a, b, 9.0).unwrap();
        assert_eq!(up.landmarks, LandmarkRefresh::Patched);
        let snap = store.snapshot();
        let lm = snap.db.landmarks().unwrap();
        assert!(lm.is_current_for(snap.db.graph()) && lm.is_degraded());
        let t = snap
            .db
            .run(Algorithm::AStar(AStarVersion::V4), s, d)
            .unwrap();
        let oracle = atis_algorithms::memory::dijkstra_pair(snap.db.graph(), s, d).unwrap();
        assert!((t.path_cost() - oracle.cost).abs() < 1e-3);

        // The jam clears: a cost decrease forces a rebuild, clearing the
        // degraded flag.
        let down = store.update_edge_cost(a, b, 1.0).unwrap();
        assert_eq!(down.landmarks, LandmarkRefresh::Rebuilt);
        let snap = store.snapshot();
        let lm = snap.db.landmarks().unwrap();
        assert!(lm.is_current_for(snap.db.graph()) && !lm.is_degraded());
        assert!(snap
            .db
            .run(Algorithm::AStar(AStarVersion::V4), s, d)
            .is_ok());
    }

    #[test]
    fn cost_increase_customizes_the_hierarchy_cost_decrease_recontracts() {
        use atis_algorithms::AStarVersion;
        use atis_hierarchy::{Hierarchy, HierarchyConfig};

        let grid = Grid::new(6, CostModel::TWENTY_PERCENT, 8).unwrap();
        let overlay = Hierarchy::build(grid.graph(), HierarchyConfig::paper()).unwrap();
        let store = single_store(
            Database::open(grid.graph())
                .unwrap()
                .with_hierarchy(overlay),
        );
        let (s, d) = grid.query_pair(QueryKind::Diagonal);
        let (a, b) = (grid.node_at(2, 2), grid.node_at(2, 3));

        // Congestion: a customization pass re-prices the overlay — v5
        // answers exactly at the new install, never from stale shortcuts.
        let up = store.update_edge_cost(a, b, 9.0).unwrap();
        assert_eq!(up.hierarchy, HierarchyRefresh::Customized);
        let snap = store.snapshot();
        let h = snap.db.hierarchy().unwrap();
        assert!(h.is_current_for(snap.db.graph()) && h.is_degraded());
        let t = snap
            .db
            .run(Algorithm::AStar(AStarVersion::V5), s, d)
            .unwrap();
        let oracle = atis_algorithms::memory::dijkstra_pair(snap.db.graph(), s, d).unwrap();
        assert!((t.path_cost() - oracle.cost).abs() < 1e-9);

        // The jam clears: a decrease re-contracts, restoring witness
        // dormancy (the degraded flag drops).
        let down = store.update_edge_cost(a, b, 1.0).unwrap();
        assert_eq!(down.hierarchy, HierarchyRefresh::Recontracted);
        let snap = store.snapshot();
        let h = snap.db.hierarchy().unwrap();
        assert!(h.is_current_for(snap.db.graph()) && !h.is_degraded());
        let t = snap
            .db
            .run(Algorithm::AStar(AStarVersion::V5), s, d)
            .unwrap();
        let oracle = atis_algorithms::memory::dijkstra_pair(snap.db.graph(), s, d).unwrap();
        assert!((t.path_cost() - oracle.cost).abs() < 1e-9);
    }

    #[test]
    fn updates_without_artifacts_report_no_refresh() {
        let store = two_route_store();
        let up = store.update_edge_cost(NodeId(0), NodeId(1), 3.0).unwrap();
        assert_eq!(up.landmarks, LandmarkRefresh::None);
        assert_eq!(up.hierarchy, HierarchyRefresh::None);
    }

    #[test]
    fn scaled_stores_answer_like_paper_stores_across_installs() {
        use atis_graph::{Metro, MetroQuery, MetroSpec};
        use atis_storage::StorageProfile;

        let metro = Metro::new(MetroSpec::new(2, 2, 7)).unwrap();
        let profile = StorageProfile::for_nodes(metro.graph().node_count());
        let scaled = single_store(Database::open_with_profile(metro.graph(), profile).unwrap());
        assert!(scaled.snapshot().db.profile().is_segmented());
        let paper = single_store(Database::open(metro.graph()).unwrap());
        let (s, d) = metro.query_pair(MetroQuery::AdjacentCity);

        for store in [&scaled, &paper] {
            // Congest a street on the intra-city route, then run at the
            // new install.
            store
                .update_edge_cost(metro.node_at(0, 0, 8, 8), metro.node_at(0, 0, 8, 9), 40.0)
                .unwrap();
        }
        let a = scaled.snapshot();
        let b = paper.snapshot();
        assert_eq!(a.install(), b.install());
        let ra = a.db.run(Algorithm::Dijkstra, s, d).unwrap();
        let rb = b.db.run(Algorithm::Dijkstra, s, d).unwrap();
        // Same answer — the layouts differ only in physical-read
        // patterns.
        assert_eq!(
            ra.path.as_ref().unwrap().cost,
            rb.path.as_ref().unwrap().cost
        );
        assert_eq!(
            ra.path.as_ref().unwrap().nodes,
            rb.path.as_ref().unwrap().nodes
        );
    }

    #[test]
    fn updates_serialize_into_consecutive_installs() {
        let store = two_route_store();
        for i in 1..=5u64 {
            let upd = store
                .update_edge_cost(NodeId(0), NodeId(1), i as f64)
                .unwrap();
            assert_eq!(upd.epoch, i);
            assert_eq!(
                upd.epochs.versions(),
                &[i],
                "shard 0 moves with every install"
            );
        }
        assert_eq!(store.install(), 5);
        assert_eq!(
            store.snapshot().db.graph().edge_cost(NodeId(0), NodeId(1)),
            Some(5.0)
        );
    }
}
