//! The three workloads: how each one's service is set up, and the
//! seeded traffic (route pairs and edge-cost installs) it is driven
//! with.
//!
//! The road networks are fixed (generated from [`NETWORK_SEED`]). On
//! grid-hot the pair pools and the jam stream are fixed with the network
//! and the run seed draws the request order; on the metro workloads the
//! seed draws the commute pairs, the fresh pairs and the jammed edges.
//! Every input is a pure function of the seed.

use atis_algorithms::{AStarVersion, Algorithm, Database};
use atis_graph::metro::CORE;
use atis_graph::{CostModel, Graph, Grid, Metro, MetroSpec, NodeId, PartitionMap, SplitMix64};
use atis_hierarchy::{Hierarchy, HierarchyConfig};
use atis_obs::{MetricsRegistry, SharedRegistry};
use atis_preprocess::{LandmarkSelection, LandmarkTables, PreprocessConfig};
use atis_serve::{RouteService, ServeConfig};
use atis_storage::{FaultPlan, JoinPolicy, StorageProfile};
use std::collections::{HashMap, HashSet, VecDeque};
use std::time::{Duration, Instant};

/// Seed of every generated road network (the paper's year).
pub const NETWORK_SEED: u64 = 1993;
/// Serve workers: one per core of the two-core reference machine.
const WORKERS: usize = 2;
const SHARDS: usize = 8;
const CACHE_CAPACITY: usize = 4096;
/// Queue capacity on every workload; the closed loop's window stays
/// below it.
const QUEUE_CAPACITY: usize = 256;
/// Requests the closed loop keeps in flight: 3/4 of the queue, deep
/// enough that the cache-hit virtual-clock charge sheds requests.
pub const WINDOW: usize = 192;
const GRID_K: usize = 30;
const METRO_NODES: usize = 10_000;
/// Storage region size: one block of `R` (the workspace convention).
const REGION_TARGET: usize = 256;
const LANDMARKS: usize = 8;
/// Distinct commute pairs that carry 80% of metro-churn's reads.
const COMMUTE_PAIRS: usize = 64;

/// A named workload.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Kind {
    /// grid30, Dijkstra, warm cache, a jam off the served routes every
    /// 20 ms: the cache-hit path. Runnable, but not in `BENCHMARK.json`:
    /// on a two-vCPU VM its sub-millisecond tails (route p99, quiet
    /// clears) follow scheduler hiccups and vary several-fold run to run.
    GridHot,
    /// metro-10k, A* v4, every request a fresh pair: the algorithm and
    /// buffer-pool path.
    MetroMiss,
    /// metro-10k, A* v5, commute traffic beside scheduled jams, then
    /// clears: the install path.
    MetroChurn,
}

impl Kind {
    /// Parses a workload name as `BENCHMARK.json` spells it.
    pub fn parse(name: &str) -> Option<Kind> {
        match name {
            "grid-hot" => Some(Kind::GridHot),
            "metro-miss" => Some(Kind::MetroMiss),
            "metro-churn" => Some(Kind::MetroChurn),
            _ => None,
        }
    }

    /// The workload's name.
    pub fn name(self) -> &'static str {
        match self {
            Kind::GridHot => "grid-hot",
            Kind::MetroMiss => "metro-miss",
            Kind::MetroChurn => "metro-churn",
        }
    }

    /// Open-loop arrivals per second.
    pub fn rate(self) -> f64 {
        match self {
            // The serve_throughput bench's offered rate.
            Kind::GridHot => 2000.0,
            // About a third of the ~300 req/s capacity. At half of it,
            // queueing turned the host's swings in two-core throughput
            // into a p50 that spread by a third from run to run.
            Kind::MetroMiss => 100.0,
            // Three quarters of reads are cheap cache hits; 400 per
            // second give each 6 s window 24 samples beyond its p99 and
            // put that p99 deep in the blocked reads' range (at 200 it
            // sat at half the jam time and moved twice as far as it).
            Kind::MetroChurn => 400.0,
        }
    }

    /// Length of the windows route percentiles are taken over (the
    /// reported value is the median window's): each holds at least 2000
    /// arrivals, so twenty samples beyond the p99. metro-miss has too few
    /// arrivals for three such windows and pools the run.
    pub fn route_window(self) -> Option<Duration> {
        match self {
            Kind::GridHot | Kind::MetroChurn => Some(Duration::from_secs(6)),
            Kind::MetroMiss => None,
        }
    }

    /// The same for install percentiles, where installs are numerous
    /// enough: grid-hot's 3 s windows hold 150 jams each.
    pub fn install_window(self) -> Option<Duration> {
        match self {
            Kind::GridHot => Some(Duration::from_secs(3)),
            Kind::MetroMiss | Kind::MetroChurn => None,
        }
    }

    /// The interval between live jams, if the workload has them.
    /// metro-churn's jam holds the install lock for 20 to 25 ms, so at
    /// 4 per second about a tenth of reads wait on one: the median read
    /// stays an unblocked cache hit while the p99 read waited behind
    /// most of a hold. At 8 per second a slower host pushed the median
    /// read into the blocked mode.
    fn jam_every(self) -> Option<Duration> {
        match self {
            Kind::GridHot => Some(Duration::from_millis(20)),
            Kind::MetroMiss => None,
            Kind::MetroChurn => Some(Duration::from_millis(250)),
        }
    }

    /// Multiplier a jam applies to an edge's current cost.
    fn jam_factor(self) -> f64 {
        match self {
            Kind::GridHot => 1.1,
            Kind::MetroMiss | Kind::MetroChurn => 1.5,
        }
    }
}

/// Wall time of each set-up stage, in seconds (0 for a stage the
/// workload does not have).
#[derive(Debug, Clone, Copy, Default)]
pub struct Stages {
    pub generate: f64,
    pub partition: f64,
    pub landmarks: f64,
    pub hierarchy: f64,
    pub open: f64,
    pub warm: f64,
}

impl Stages {
    pub fn total(&self) -> f64 {
        self.generate + self.partition + self.landmarks + self.hierarchy + self.open + self.warm
    }

    /// Every stage and the total, by name.
    pub fn named(&self) -> [(&'static str, f64); 7] {
        [
            ("generate", self.generate),
            ("partition", self.partition),
            ("landmarks", self.landmarks),
            ("hierarchy", self.hierarchy),
            ("open", self.open),
            ("warm", self.warm),
            ("total", self.total()),
        ]
    }
}

/// A started, warmed service plus the traffic that drives it.
pub struct Setup {
    pub service: RouteService,
    pub algorithm: Algorithm,
    pub stages: Stages,
    pub traffic: Traffic,
    /// Keeps the service's registry alive for the whole run, as in
    /// production.
    _registry: SharedRegistry,
}

/// Sets `kind` up from scratch.
pub fn setup(kind: Kind, seed: u64) -> Setup {
    match kind {
        Kind::GridHot => grid_hot(seed),
        Kind::MetroMiss | Kind::MetroChurn => metro(kind, seed),
    }
}

fn serve_config(algorithm: Algorithm, batch: usize) -> ServeConfig {
    ServeConfig::default()
        .with_workers(WORKERS)
        .with_queue_capacity(QUEUE_CAPACITY)
        .with_cache_capacity(CACHE_CAPACITY)
        .with_algorithm(algorithm)
        .with_shards(SHARDS)
        .with_batch_max(batch)
}

fn start(db: Database, config: ServeConfig) -> (RouteService, SharedRegistry) {
    let registry = MetricsRegistry::shared();
    let service = RouteService::with_observability(db, config, Some(registry.clone()), None);
    (service, registry)
}

/// Routes every pair once and returns the answers' paths.
fn warm(service: &RouteService, pairs: &[(NodeId, NodeId)]) -> Vec<Vec<NodeId>> {
    let tickets: Vec<_> = pairs
        .iter()
        .map(|&(s, d)| service.submit(s, d).expect("warm-up submit is admitted"))
        .collect();
    tickets
        .into_iter()
        .map(|t| {
            let answer = t.wait().expect("warm-up route is answered");
            answer.path.map(|p| p.nodes).unwrap_or_default()
        })
        .collect()
}

fn grid_hot(seed: u64) -> Setup {
    let mut stages = Stages::default();
    let t = Instant::now();
    let grid = Grid::new(GRID_K, CostModel::TWENTY_PERCENT, NETWORK_SEED).expect("grid30");
    stages.generate = t.elapsed().as_secs_f64();

    let t = Instant::now();
    let db = Database::open(grid.graph())
        .expect("grid30 fits the engine")
        .with_fault_plan(
            FaultPlan::inert(NETWORK_SEED).with_read_latency(Duration::from_micros(1)),
        );
    let (service, registry) = start(db, serve_config(Algorithm::Dijkstra, 8));
    stages.open = t.elapsed().as_secs_f64();

    let mut traffic = Traffic::grid(&grid, seed);
    let t = Instant::now();
    let pairs: Vec<_> = traffic.hot.iter().chain(&traffic.pool).copied().collect();
    let served: HashSet<(NodeId, NodeId)> = warm(&service, &pairs)
        .iter()
        .flat_map(|p| p.windows(2).map(|w| (w[0], w[1])))
        .collect();
    stages.warm = t.elapsed().as_secs_f64();
    // Jams land off the served routes: each one re-stamps the cache
    // (promotions, no recompute), so the hit path does the work.
    traffic.edges.retain(|e| !served.contains(e));
    Setup {
        service,
        algorithm: Algorithm::Dijkstra,
        stages,
        traffic,
        _registry: registry,
    }
}

fn metro(kind: Kind, seed: u64) -> Setup {
    let mut stages = Stages::default();
    let t = Instant::now();
    let metro = Metro::new(MetroSpec::with_nodes(METRO_NODES, NETWORK_SEED)).expect("metro-10k");
    stages.generate = t.elapsed().as_secs_f64();

    let t = Instant::now();
    let partition = PartitionMap::build(metro.graph(), REGION_TARGET);
    let cut_edges = partition.cut_edges(metro.graph());
    let regions = partition.region_count();
    let (graph, new_of) = partition
        .apply(metro.graph())
        .expect("partition is a permutation");
    stages.partition = t.elapsed().as_secs_f64();

    let t = Instant::now();
    let tables = LandmarkTables::build(
        &graph,
        PreprocessConfig::new(
            LandmarkSelection::PartitionSpread {
                region_target: REGION_TARGET,
            },
            LANDMARKS,
        ),
    )
    .expect("metro graphs are non-empty");
    stages.landmarks = t.elapsed().as_secs_f64();

    let hierarchy = (kind == Kind::MetroChurn).then(|| {
        let t = Instant::now();
        let h =
            Hierarchy::build(&graph, HierarchyConfig::paper()).expect("metro graphs are non-empty");
        stages.hierarchy = t.elapsed().as_secs_f64();
        h
    });

    let t = Instant::now();
    let mut db = Database::open_with_profile(&graph, StorageProfile::for_nodes(graph.node_count()))
        .expect("metro-10k fits the engine")
        .with_join_policy(JoinPolicy::CostBased)
        .with_partition_stats(regions as u64, REGION_TARGET as u64, cut_edges as u64)
        .with_landmarks(tables);
    let algorithm = match hierarchy {
        Some(h) => {
            db = db.with_hierarchy(h);
            Algorithm::AStar(AStarVersion::V5)
        }
        None => Algorithm::AStar(AStarVersion::V4),
    };
    // Batching folds only same-key and same-source Dijkstra misses; the
    // metro workloads run A*, so batch 1.
    let (service, registry) = start(db, serve_config(algorithm, 1));
    stages.open = t.elapsed().as_secs_f64();

    let mut traffic = Traffic::metro(kind, metro, new_of, &graph, seed);
    let t = Instant::now();
    if kind == Kind::MetroChurn {
        let paths = warm(&service, &traffic.hot.clone());
        traffic.hot_edges = paths
            .iter()
            .flat_map(|p| p.windows(2).map(|w| (w[0], w[1])))
            .collect();
    } else {
        // Fills the buffer pool with pairs drawn apart from the
        // measured stream.
        let mut rng = SplitMix64::new(seed ^ 0x77a2_9c41_d3e5_0b6f);
        let (m, new_of) = traffic.metro.as_ref().expect("metro traffic");
        let pairs: Vec<_> = (0..32).map(|_| fresh_pair(m, new_of, &mut rng)).collect();
        warm(&service, &pairs);
    }
    stages.warm = t.elapsed().as_secs_f64();
    Setup {
        service,
        algorithm,
        stages,
        traffic,
        _registry: registry,
    }
}

/// Whether an install raises or restores a cost.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Op {
    /// A cost increase.
    Jam,
    /// An earlier jam undone: a cost decrease.
    Clear,
}

impl Op {
    pub fn name(self) -> &'static str {
        match self {
            Op::Jam => "jam",
            Op::Clear => "clear",
        }
    }
}

/// One scheduled edge-cost install.
#[derive(Debug, Clone, Copy)]
pub struct Install {
    /// Offset from the start of its phase.
    pub at: Duration,
    pub op: Op,
    pub u: NodeId,
    pub v: NodeId,
    pub cost: f64,
}

/// The seeded request and install stream of one workload.
pub struct Traffic {
    kind: Kind,
    rng: SplitMix64,
    /// Draws jammed edges.
    jam_rng: SplitMix64,
    /// Repeated pairs: grid-hot's hot set, metro-churn's commute pairs.
    hot: Vec<(NodeId, NodeId)>,
    /// grid-hot's pool of less frequent pairs.
    pool: Vec<(NodeId, NodeId)>,
    /// The metro generator and its region-layout renumbering, for fresh
    /// pairs.
    metro: Option<(Metro, Vec<u32>)>,
    /// Directed edges on the commute pairs' warm-up routes.
    hot_edges: Vec<(NodeId, NodeId)>,
    /// Directed edges any other jam may land on.
    edges: Vec<(NodeId, NodeId)>,
    /// Current cost of every edge an install has touched.
    costs: HashMap<(NodeId, NodeId), f64>,
    /// Jammed edges in jam order, with their cost before the first jam.
    jammed: VecDeque<((NodeId, NodeId), f64)>,
    /// Every edge's cost as generated.
    base: HashMap<(NodeId, NodeId), f64>,
}

impl Traffic {
    fn new(kind: Kind, graph: &Graph, seed: u64) -> Traffic {
        let edges = graph.edges().map(|e| (e.from, e.to)).collect();
        let base = graph.edges().map(|e| ((e.from, e.to), e.cost)).collect();
        Traffic {
            kind,
            rng: SplitMix64::new(seed),
            jam_rng: SplitMix64::new(if kind == Kind::GridHot {
                NETWORK_SEED
            } else {
                seed ^ 0x6a09_e667_f3bc_c908
            }),
            hot: Vec::new(),
            pool: Vec::new(),
            metro: None,
            hot_edges: Vec::new(),
            edges,
            costs: HashMap::new(),
            jammed: VecDeque::new(),
            base,
        }
    }

    /// serve_throughput's local-trip mix: a hot set of eight
    /// shared-source pairs (one source per quadrant) and a pool of
    /// sixteen within-quadrant pairs. Both, and the jam stream, are
    /// fixed with the network, as in serve_throughput; the seed draws
    /// the request order.
    fn grid(grid: &Grid, seed: u64) -> Traffic {
        let mut t = Traffic::new(Kind::GridHot, grid.graph(), seed);
        let half = GRID_K / 2;
        let quadrants = [(0, 0), (0, half), (half, 0), (half, half)];
        for &(qx, qy) in &quadrants {
            let source = grid.node_at(qx + half / 2, qy + half / 2);
            for &(dx, dy) in &[(1, 1), (half - 2, half - 2)] {
                t.hot.push((source, grid.node_at(qx + dx, qy + dy)));
            }
        }
        let mut rng = SplitMix64::new(NETWORK_SEED);
        let mut below = |n: usize| rng.next_below(n as u64) as usize;
        while t.pool.len() < 16 {
            let (qx, qy) = quadrants[below(4)];
            let s = grid.node_at(qx + below(half), qy + below(half));
            let d = grid.node_at(qx + below(half), qy + below(half));
            if s != d {
                t.pool.push((s, d));
            }
        }
        t
    }

    fn metro(kind: Kind, metro: Metro, new_of: Vec<u32>, graph: &Graph, seed: u64) -> Traffic {
        let mut t = Traffic::new(kind, graph, seed);
        t.metro = Some((metro, new_of));
        if kind == Kind::MetroChurn {
            t.hot = (0..COMMUTE_PAIRS).map(|_| t.fresh()).collect();
        }
        t
    }

    fn below(&mut self, n: usize) -> usize {
        self.rng.next_below(n as u64) as usize
    }

    fn pick<T: Copy>(rng: &mut SplitMix64, items: &[T]) -> T {
        items[rng.next_below(items.len() as u64) as usize]
    }

    /// The next request's `(from, to)`.
    pub fn next_pair(&mut self) -> (NodeId, NodeId) {
        let roll = self.below(100);
        match self.kind {
            Kind::GridHot if roll < 75 => Self::pick(&mut self.rng, &self.hot),
            Kind::GridHot => Self::pick(&mut self.rng, &self.pool),
            Kind::MetroChurn if roll < 80 => Self::pick(&mut self.rng, &self.hot),
            Kind::MetroChurn | Kind::MetroMiss => self.fresh(),
        }
    }

    fn fresh(&mut self) -> (NodeId, NodeId) {
        let (metro, new_of) = self
            .metro
            .as_ref()
            .expect("fresh pairs need a metro network");
        fresh_pair(metro, new_of, &mut self.rng)
    }

    fn current(&self, edge: (NodeId, NodeId)) -> f64 {
        self.costs.get(&edge).copied().unwrap_or(self.base[&edge])
    }

    /// A jam: metro-churn puts half of its jams on edges of commute
    /// routes; every other jam hits a uniformly drawn edge.
    pub fn jam(&mut self, at: Duration) -> Install {
        let on_route = self.kind == Kind::MetroChurn
            && !self.hot_edges.is_empty()
            && self.jam_rng.next_below(2) == 0;
        let edge = if on_route {
            Self::pick(&mut self.jam_rng, &self.hot_edges)
        } else {
            Self::pick(&mut self.jam_rng, &self.edges)
        };
        let before = self.current(edge);
        if !self.jammed.iter().any(|(e, _)| *e == edge) {
            self.jammed.push_back((edge, before));
        }
        let cost = before * self.kind.jam_factor();
        self.costs.insert(edge, cost);
        Install {
            at,
            op: Op::Jam,
            u: edge.0,
            v: edge.1,
            cost,
        }
    }

    /// Restores the oldest jammed edge to its cost before the jam, if
    /// any edge is jammed.
    pub fn clear(&mut self, at: Duration) -> Option<Install> {
        let (edge, cost) = self.jammed.pop_front()?;
        self.costs.insert(edge, cost);
        Some(Install {
            at,
            op: Op::Clear,
            u: edge.0,
            v: edge.1,
            cost,
        })
    }

    /// The live jams for a phase of length `phase`, in time order.
    pub fn live_installs(&mut self, phase: Duration) -> Vec<Install> {
        let Some(every) = self.kind.jam_every() else {
            return Vec::new();
        };
        (1..)
            .map(|i| every * i)
            .take_while(|at| *at < phase)
            .map(|at| self.jam(at))
            .collect()
    }

    /// The quiet installs issued after the route phases: clears of the
    /// earliest jams, and on metro-miss, which has no live jams, jams
    /// first. The gap after an install is wider than its kind takes, so
    /// none waits behind another; metro-miss's 50 clears span 5 s. A
    /// clear re-contracts metro-churn's hierarchy for about
    /// half a second; issued live, its lock hold set the run's p99
    /// read, and three per run left that unsteady.
    pub fn tail_installs(&mut self) -> Vec<Install> {
        // (jams, clears, ms after a jam, ms after a clear)
        let (jams, clears, jam_gap, clear_gap) = match self.kind {
            // Short gaps keep the core awake: a grid30 clear takes
            // about 0.1 ms, as long as waking from a deep idle.
            Kind::GridHot => (0, 32, 2, 2),
            Kind::MetroMiss => (100, 50, 10, 100),
            Kind::MetroChurn => (0, 10, 700, 700),
        };
        let ops = std::iter::repeat_n(Op::Jam, jams).chain(std::iter::repeat_n(Op::Clear, clears));
        // Each install is due one gap, sized for its own kind, after
        // the one before it.
        let mut at = Duration::from_millis(clear_gap);
        ops.filter_map(|op| {
            let (install, gap) = match op {
                Op::Jam => (Some(self.jam(at)), jam_gap),
                Op::Clear => (self.clear(at), clear_gap),
            };
            at += Duration::from_millis(gap);
            install
        })
        .collect()
    }
}

/// A random regional pair: both ends in one city core, or in two
/// adjacent ones, with equal probability. `new_of` maps generator ids to
/// the region layout's ids.
fn fresh_pair(metro: &Metro, new_of: &[u32], rng: &mut SplitMix64) -> (NodeId, NodeId) {
    let spec = *metro.spec();
    let mut pick = |n: usize| rng.next_below(n as u64) as usize;
    loop {
        let (cx, cy) = (pick(spec.cities_x), pick(spec.cities_y));
        let s = metro.node_at(cx, cy, pick(CORE), pick(CORE));
        let (dx, dy) = if pick(2) == 0 {
            (cx, cy)
        } else {
            let mut near = Vec::with_capacity(4);
            if cx > 0 {
                near.push((cx - 1, cy));
            }
            if cx + 1 < spec.cities_x {
                near.push((cx + 1, cy));
            }
            if cy > 0 {
                near.push((cx, cy - 1));
            }
            if cy + 1 < spec.cities_y {
                near.push((cx, cy + 1));
            }
            near[pick(near.len())]
        };
        let d = metro.node_at(dx, dy, pick(CORE), pick(CORE));
        if s != d {
            return (NodeId(new_of[s.index()]), NodeId(new_of[d.index()]));
        }
    }
}
