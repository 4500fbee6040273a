//! The load generators: the open-loop arrival schedule, the closed-loop
//! window, and the install schedule, each timed from outside the
//! service through its public calls.

use crate::stats::ms;
use crate::workload::{Install, Op, Traffic};
use atis_graph::{Graph, NodeId};
use atis_serve::{
    CacheStats, RouteAnswer, RouteOutcome, RouteService, ServeError, ShardSnapshot, ShedReason,
    Ticket,
};
use std::collections::{BTreeMap, VecDeque};
use std::time::{Duration, Instant};

/// What happened to the requests of one phase. Sheds and errors are
/// the phase's failures.
#[derive(Debug, Default, Clone, Copy)]
pub struct Counts {
    pub attempted: u64,
    pub answered: u64,
    pub queue_full: u64,
    pub deadline: u64,
    pub displaced: u64,
    pub breaker: u64,
    pub errored: u64,
    pub computed: u64,
    pub cache_hit: u64,
    pub degraded: u64,
    pub stale: u64,
}

impl Counts {
    /// Counts one attempted request by its result.
    pub fn record(&mut self, result: &Result<RouteAnswer, ServeError>) {
        self.attempted += 1;
        match result {
            Ok(answer) => {
                self.answered += 1;
                match answer.outcome {
                    RouteOutcome::Computed => self.computed += 1,
                    RouteOutcome::CacheHit => self.cache_hit += 1,
                    RouteOutcome::Degraded { .. } => self.degraded += 1,
                    RouteOutcome::Stale { .. } => self.stale += 1,
                    _ => {}
                }
            }
            Err(ServeError::Shed { reason, .. }) => match reason {
                ShedReason::QueueFull => self.queue_full += 1,
                ShedReason::DeadlineExpired => self.deadline += 1,
                ShedReason::Displaced => self.displaced += 1,
                ShedReason::BreakerOpen => self.breaker += 1,
                _ => self.errored += 1,
            },
            Err(_) => self.errored += 1,
        }
    }

    pub fn shed(&self) -> u64 {
        self.queue_full + self.deadline + self.displaced + self.breaker
    }

    pub fn failed(&self) -> u64 {
        self.shed() + self.errored
    }

    pub fn add(&mut self, o: &Counts) {
        self.attempted += o.attempted;
        self.answered += o.answered;
        self.queue_full += o.queue_full;
        self.deadline += o.deadline;
        self.displaced += o.displaced;
        self.breaker += o.breaker;
        self.errored += o.errored;
        self.computed += o.computed;
        self.cache_hit += o.cache_hit;
        self.degraded += o.degraded;
        self.stale += o.stale;
    }

    /// One line of per-phase accounting.
    pub fn line(&self, phase: &str) -> String {
        format!(
            "phase {phase}: attempted {} answered {} shed queue_full={} deadline={} displaced={} \
             breaker={} errored {} | computed {} cache_hit {} degraded {} stale {}",
            self.attempted,
            self.answered,
            self.queue_full,
            self.deadline,
            self.displaced,
            self.breaker,
            self.errored,
            self.computed,
            self.cache_hit,
            self.degraded,
            self.stale
        )
    }
}

/// Route-cache counter deltas over one phase.
#[derive(Debug, Default, Clone, Copy)]
pub struct CacheDelta {
    pub hits: u64,
    pub misses: u64,
    pub invalidations: u64,
    pub promotions: u64,
    pub evictions: u64,
    pub stale_hits: u64,
}

impl CacheDelta {
    fn between(a: CacheStats, b: CacheStats) -> CacheDelta {
        CacheDelta {
            hits: b.hits - a.hits,
            misses: b.misses - a.misses,
            invalidations: b.invalidations - a.invalidations,
            promotions: b.promotions - a.promotions,
            evictions: b.evictions - a.evictions,
            stale_hits: b.stale_hits - a.stale_hits,
        }
    }

    pub fn hit_ratio(&self) -> f64 {
        crate::stats::ratio(self.hits as f64, (self.hits + self.misses) as f64)
    }

    pub fn line(&self, phase: &str) -> String {
        format!(
            "cache {phase}: hit_ratio {:.4} hits {} misses {} invalidations {} promotions {} \
             evictions {} stale_hits {}",
            self.hit_ratio(),
            self.hits,
            self.misses,
            self.invalidations,
            self.promotions,
            self.evictions,
            self.stale_hits
        )
    }
}

/// The shard snapshot a traced request pinned just before its submit.
pub struct SnapshotWait {
    /// When the `shard_snapshot()` call started, from the pass origin.
    pub start: Duration,
    pub wait: Duration,
    pub install: u64,
}

/// One open-loop request.
pub struct RouteRecord {
    pub id: Option<u64>,
    pub from: NodeId,
    pub to: NodeId,
    /// When the request was due, from the pass origin.
    pub due: Duration,
    pub lateness: Duration,
    pub snapshot: Option<SnapshotWait>,
    pub submit_start: Duration,
    pub submit: Duration,
    pub result: Result<RouteAnswer, ServeError>,
}

impl RouteRecord {
    /// The end-to-end sample, from the due time to the answer: submit
    /// lateness + queue wait + service time.
    pub fn latency(&self) -> Option<Duration> {
        self.result
            .as_ref()
            .ok()
            .map(|a| self.lateness + a.queue_wait + a.service_time)
    }
}

/// Snapshots a traced pass keeps for replay: every `stride`-th install
/// (at most `cap` of them), so replays cover the whole phase.
pub struct Pinned {
    pub snapshots: BTreeMap<u64, ShardSnapshot>,
    stride: u64,
    cap: usize,
}

impl Pinned {
    pub fn new(expected_installs: usize, cap: usize) -> Pinned {
        Pinned {
            snapshots: BTreeMap::new(),
            stride: (expected_installs / cap).max(1) as u64,
            cap,
        }
    }

    fn offer(&mut self, snap: ShardSnapshot) {
        let install = snap.install();
        if install.is_multiple_of(self.stride) && self.snapshots.len() < self.cap {
            self.snapshots.entry(install).or_insert(snap);
        }
    }
}

/// One install issued by the updater.
pub struct InstallRecord {
    pub install: Install,
    /// When the install call started, from the pass origin.
    pub start: Duration,
    pub lateness: Duration,
    pub took: Duration,
    pub ok: bool,
    /// The snapshot the install cloned (traced passes, a capped
    /// number per kind).
    pub pre: Option<ShardSnapshot>,
}

impl InstallRecord {
    /// The install's latency from its due time, in ms.
    pub fn latency_ms(&self) -> f64 {
        ms(self.lateness + self.took)
    }
}

/// Issues `schedule` on time from `start` (installs are at most 50 per
/// second, so each wait spins its last [`SPIN`]). Keeps the pre-install
/// snapshot of the first `keep` installs of each kind.
pub fn run_installs(
    service: &RouteService,
    schedule: &[Install],
    start: Instant,
    origin: Instant,
    keep: usize,
) -> Vec<InstallRecord> {
    let mut kept = [0usize; 2];
    schedule
        .iter()
        .map(|&install| {
            let due = start + install.at;
            wait_until(due, SPIN);
            let slot = &mut kept[(install.op == Op::Clear) as usize];
            let pre = (*slot < keep).then(|| {
                *slot += 1;
                service.shard_snapshot()
            });
            let began = Instant::now();
            let ok = service
                .update_edge_cost(install.u, install.v, install.cost)
                .is_ok();
            InstallRecord {
                install,
                start: began - origin,
                lateness: began.saturating_duration_since(due),
                took: began.elapsed(),
                ok,
                pre,
            }
        })
        .collect()
}

/// The result of the open-loop phase.
pub struct OpenLoop {
    pub records: Vec<RouteRecord>,
    pub counts: Counts,
    pub cache: CacheDelta,
    pub installs: Vec<InstallRecord>,
}

/// Submits `pairs` at `rate` requests per second, at fixed due times,
/// never waiting for answers, while the updater issues the workload's
/// live install schedule. Tickets are waited on after the phase: each
/// answer carries its own queue wait and service time.
///
/// A traced pass (`pinned` set) times `shard_snapshot()` before every
/// submit — the install-lock wait a worker would see — and keeps
/// pre-install snapshots for replay.
pub fn open_loop(
    service: &RouteService,
    pairs: &[(NodeId, NodeId)],
    schedule: &[Install],
    rate: f64,
    origin: Instant,
    mut pinned: Option<&mut Pinned>,
    keep_installs: usize,
) -> OpenLoop {
    let requests = pairs.len();
    let spin = if SPIN.as_secs_f64() * rate <= 0.2 {
        SPIN
    } else {
        Duration::ZERO
    };
    let before = service.cache().stats();
    let start = Instant::now();
    let (pending, installs) = std::thread::scope(|scope| {
        let updater = scope.spawn(|| run_installs(service, schedule, start, origin, keep_installs));
        let mut pending: Vec<(RouteRecord, Result<Ticket, ServeError>)> =
            Vec::with_capacity(requests);
        for (i, &(from, to)) in pairs.iter().enumerate() {
            let due = start + Duration::from_secs_f64(i as f64 / rate);
            wait_until(due, spin);
            let lateness = Instant::now().saturating_duration_since(due);
            let snapshot = pinned.as_deref_mut().map(|p| {
                let t = Instant::now();
                let snap = service.shard_snapshot();
                let wait = t.elapsed();
                let install = snap.install();
                p.offer(snap);
                SnapshotWait {
                    start: t - origin,
                    wait,
                    install,
                }
            });
            let t = Instant::now();
            let submitted = service.submit(from, to);
            let submit = t.elapsed();
            let record = RouteRecord {
                id: submitted.as_ref().ok().map(Ticket::id),
                from,
                to,
                due: due - origin,
                lateness,
                snapshot,
                submit_start: t - origin,
                submit,
                // Replaced by the ticket's answer once the phase ends.
                result: Err(ServeError::ShuttingDown),
            };
            pending.push((record, submitted));
        }
        let installs = updater.join().expect("updater thread");
        (pending, installs)
    });
    let mut counts = Counts::default();
    let records = pending
        .into_iter()
        .map(|(mut record, submitted)| {
            record.result = submitted.and_then(Ticket::wait);
            counts.record(&record.result);
            record
        })
        .collect();
    OpenLoop {
        records,
        counts,
        cache: CacheDelta::between(before, service.cache().stats()),
        installs,
    }
}

/// A sleep overshoots its deadline by about 0.1 ms on a two-vCPU VM,
/// which would add generator lateness to every sample, so a wait spins
/// its last 0.2 ms wherever that costs at most a fifth of a core.
const SPIN: Duration = Duration::from_micros(200);

/// Sleeps until `spin` before `due`, then spins to it.
fn wait_until(due: Instant, spin: Duration) {
    let now = Instant::now();
    if now + spin < due {
        std::thread::sleep(due - now - spin);
    }
    while Instant::now() < due {
        std::hint::spin_loop();
    }
}

/// The result of the closed-loop phase.
pub struct ClosedLoop {
    pub counts: Counts,
    pub cache: CacheDelta,
    pub answered_per_s: f64,
    pub invalid: Vec<String>,
}

/// Keeps `window` requests in flight from one thread for `phase`,
/// waiting on the oldest before each new submit, and checks every
/// answer's path. No installs run: the phase measures read capacity.
pub fn closed_loop(
    service: &RouteService,
    traffic: &mut Traffic,
    window: usize,
    phase: Duration,
    graph: &Graph,
) -> ClosedLoop {
    let before = service.cache().stats();
    let mut counts = Counts::default();
    let mut invalid = Vec::new();
    let mut inflight: VecDeque<(NodeId, NodeId, Ticket)> = VecDeque::with_capacity(window);
    let mut settle = |(from, to, ticket): (NodeId, NodeId, Ticket), counts: &mut Counts| {
        let result = ticket.wait();
        if let Ok(answer) = &result {
            if let Err(e) = check_path(graph, from, to, answer) {
                invalid.push(e);
            }
        }
        counts.record(&result);
    };
    let start = Instant::now();
    while start.elapsed() < phase {
        if inflight.len() < window {
            let (from, to) = traffic.next_pair();
            match service.submit(from, to) {
                Ok(ticket) => inflight.push_back((from, to, ticket)),
                Err(e) => counts.record(&Err(e)),
            }
        } else if let Some(oldest) = inflight.pop_front() {
            settle(oldest, &mut counts);
        }
    }
    while let Some(oldest) = inflight.pop_front() {
        settle(oldest, &mut counts);
    }
    let elapsed = start.elapsed();
    ClosedLoop {
        answered_per_s: counts.answered as f64 / elapsed.as_secs_f64(),
        counts,
        cache: CacheDelta::between(before, service.cache().stats()),
        invalid,
    }
}

/// Checks that an answer is a route from `from` to `to` over edges of
/// `graph` (traffic updates change costs, never topology).
pub fn check_path(
    graph: &Graph,
    from: NodeId,
    to: NodeId,
    answer: &RouteAnswer,
) -> Result<(), String> {
    let Some(path) = &answer.path else {
        return Err(format!("{}->{}: no route returned", from.0, to.0));
    };
    if path.nodes.first() != Some(&from) || path.nodes.last() != Some(&to) {
        return Err(format!(
            "{}->{}: path runs {:?}->{:?}",
            from.0,
            to.0,
            path.nodes.first().map(|n| n.0),
            path.nodes.last().map(|n| n.0)
        ));
    }
    match path
        .nodes
        .windows(2)
        .find(|w| graph.edge_cost(w[0], w[1]).is_none())
    {
        Some(w) => Err(format!(
            "{}->{}: hop {}->{} is not an edge",
            from.0, to.0, w[0].0, w[1].0
        )),
        None => Ok(()),
    }
}
