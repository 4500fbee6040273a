//! Serving benchmark for the atis stack.
//!
//! ```sh
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload metro-miss --seed 1 --seconds 30 --trace 0
//! ```
//!
//! One run sets the workload's service up several times (the median is
//! `setup_s`), then drives the last one through three phases: an
//! open-loop phase at the workload's fixed arrival rate (4/5 of
//! `--seconds`), a closed-loop phase with a fixed window in flight (the
//! last 1/5), and a short tail of quiet installs. Every answer is
//! checked; metro-miss answers are also compared with a Dijkstra
//! oracle. The last line of standard output is the JSON result; the
//! process exits non-zero when a check fails.
//!
//! `--trace 1` repeats the run on a fresh service with per-layer
//! instruments on, writes the spans to
//! `.bench_out/spans-<workload>-<seed>.jsonl`, and reports the
//! per-layer metrics plus the traced pass's overhead over the untraced
//! one. `perfbench/README.md` explains the workloads and metrics.

mod drive;
mod stats;
mod trace;
mod workload;

use atis_algorithms::Algorithm;
use atis_graph::SplitMix64;
use atis_serve::{RouteOutcome, ServeError};
use drive::{
    closed_loop, open_loop, run_installs, ClosedLoop, Counts, InstallRecord, OpenLoop, Pinned,
};
use stats::{mean, median, ms, percentile, ratio, trimmed_mean, us, windowed};
use std::fmt::Write as _;
use std::process::ExitCode;
use std::time::{Duration, Instant};
use trace::{replay_install, replay_routes, InstallReplay, RouteReplay, Spans};
use workload::{Kind, Op, Setup, Stages};

/// A run sets up at least `MIN_SETUPS` times and until `SETUP_BUDGET`
/// of set-up time has passed (at most `MAX_SETUPS`); `setup_s` is the
/// median.
const MIN_SETUPS: usize = 3;
const MAX_SETUPS: usize = 15;
const SETUP_BUDGET: f64 = 2.0;
/// Computed routes a traced pass replays.
const REPLAY_CAP: usize = 200;
/// Distinct snapshots a traced pass keeps for those replays.
const PINNED_CAP: usize = 16;
/// Installs of each kind per phase a traced pass re-does step by step.
const KEEP_INSTALLS: usize = 8;
/// metro-miss answers compared with the Dijkstra oracle per pass.
const ORACLE_SAMPLE: usize = 48;
/// Share of clears cut from each end before `install_clear_mean_ms`
/// averages them. Clear times are bimodal on a shared two-vCPU host
/// (about 17 and 22 ms on metro-miss, in runs of a second or so), so
/// a median jumps between the modes as their shares shift; a trimmed
/// mean moves with the shares.
const TRIM: f64 = 0.1;

struct Args {
    kind: Kind,
    seed: u64,
    seconds: u64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let (mut kind, mut seed, mut seconds, mut trace) = (None, None, None, None);
    for pair in argv.chunks(2) {
        let [flag, value] = pair else {
            return Err(format!("flag {} has no value", pair[0]));
        };
        let bad = || format!("bad value {value:?} for {flag}");
        match flag.as_str() {
            "--workload" => {
                kind =
                    Some(Kind::parse(value).ok_or_else(|| format!("unknown workload {value:?}"))?)
            }
            "--seed" => seed = Some(value.parse::<u64>().map_err(|_| bad())?),
            "--seconds" => {
                seconds = Some(
                    value
                        .parse::<u64>()
                        .ok()
                        .filter(|s| *s > 0)
                        .ok_or_else(bad)?,
                )
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad()),
                })
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    Ok(Args {
        kind: kind.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        trace: trace.unwrap_or(false),
    })
}

/// Everything one pass over a set-up service measured.
struct Pass {
    open: OpenLoop,
    closed: ClosedLoop,
    tail: Vec<InstallRecord>,
    /// Answers checked against topology, and oracle comparisons made.
    path_checks: usize,
    oracle_checks: usize,
    invalid: Vec<String>,
    replays: Vec<RouteReplay>,
    install_replays: Vec<(usize, InstallReplay)>,
    spans: Spans,
}

impl Pass {
    fn installs(&self) -> impl Iterator<Item = &InstallRecord> {
        self.open.installs.iter().chain(&self.tail)
    }

    /// `(due time, latency in ms)` of every successful install of kind
    /// `op`.
    fn install_samples(&self, op: Op) -> Vec<(Duration, f64)> {
        self.installs()
            .filter(|i| i.ok && i.install.op == op)
            .map(|i| (i.start - i.lateness, i.latency_ms()))
            .collect()
    }

    /// `(due time, latency in ms)` of every answered open-loop route.
    fn route_samples(&self) -> Vec<(Duration, f64)> {
        self.open
            .records
            .iter()
            .filter_map(|r| r.latency().map(|l| (r.due, ms(l))))
            .collect()
    }

    fn counts(&self) -> Counts {
        let mut c = self.open.counts;
        c.add(&self.closed.counts);
        c
    }

    fn install_failures(&self) -> u64 {
        self.installs().filter(|i| !i.ok).count() as u64
    }

    fn attempted(&self) -> u64 {
        self.counts().attempted + self.installs().count() as u64
    }

    fn failed(&self) -> u64 {
        self.counts().failed() + self.install_failures()
    }
}

/// Drives one set-up service through the open-loop, closed-loop and
/// tail phases and checks every answer. A traced pass also pins
/// snapshots, replays routes and installs, and records spans.
fn run_pass(setup: &mut Setup, kind: Kind, seed: u64, seconds: u64, traced: bool) -> Pass {
    let origin = Instant::now();
    let service = &setup.service;
    let traffic = &mut setup.traffic;
    let graph = service.shard_snapshot().db.graph().clone();
    let total = Duration::from_secs(seconds);
    let open_phase = total * 4 / 5;
    let closed_phase = total - open_phase;

    let requests = (kind.rate() * open_phase.as_secs_f64()) as usize;
    let pairs: Vec<_> = (0..requests).map(|_| traffic.next_pair()).collect();
    let schedule = traffic.live_installs(open_phase);
    let mut pinned = traced.then(|| Pinned::new(schedule.len(), PINNED_CAP));
    let keep = if traced { KEEP_INSTALLS } else { 0 };
    let open = open_loop(
        service,
        &pairs,
        &schedule,
        kind.rate(),
        origin,
        pinned.as_mut(),
        keep,
    );

    let closed = closed_loop(service, traffic, workload::WINDOW, closed_phase, &graph);

    let before_tail = service.shard_snapshot();
    let schedule = traffic.tail_installs();
    let tail = run_installs(service, &schedule, Instant::now(), origin, keep);

    let mut invalid = closed.invalid.clone();
    let mut path_checks = closed.counts.answered as usize;
    for r in &open.records {
        if let Ok(answer) = &r.result {
            path_checks += 1;
            if let Err(e) = drive::check_path(&graph, r.from, r.to, answer) {
                invalid.push(e);
            }
        }
    }

    // metro-miss serves no installs during its route phases, so every
    // answer there must equal a Dijkstra run on the same database.
    let mut oracle_checks = 0;
    if kind == Kind::MetroMiss {
        let answered: Vec<_> = open.records.iter().filter(|r| r.result.is_ok()).collect();
        let mut rng = SplitMix64::new(seed ^ 0x5eed_0a1c_1e00);
        for _ in 0..ORACLE_SAMPLE.min(answered.len()) {
            let r = answered[rng.next_below(answered.len() as u64) as usize];
            let Ok(answer) = &r.result else { continue };
            let oracle = before_tail
                .db
                .run(Algorithm::Dijkstra, r.from, r.to)
                .map(|t| t.path);
            oracle_checks += 1;
            let same = match (&oracle, &answer.path) {
                (Ok(Some(o)), Some(a)) => {
                    o.nodes == a.nodes && o.cost.to_bits() == a.cost.to_bits()
                }
                _ => false,
            };
            if !same {
                invalid.push(format!(
                    "{}->{}: answer {:?} differs from the Dijkstra oracle {:?}",
                    r.from.0,
                    r.to.0,
                    answer.path.as_ref().map(|p| p.cost),
                    oracle.map(|p| p.map(|p| p.cost))
                ));
            }
        }
    }

    let mut pass = Pass {
        open,
        closed,
        tail,
        path_checks,
        oracle_checks,
        invalid,
        replays: Vec::new(),
        install_replays: Vec::new(),
        spans: Spans::default(),
    };
    if let Some(pinned) = &pinned {
        pass.replays = replay_routes(
            &pass.open.records,
            pinned,
            setup.algorithm,
            origin,
            REPLAY_CAP,
        );
        for rp in pass.replays.iter().filter(|rp| !rp.matches) {
            let r = &pass.open.records[rp.record];
            pass.invalid.push(format!(
                "{}->{}: replay on the answer's snapshot found another path",
                r.from.0, r.to.0
            ));
        }
        pass.install_replays = pass
            .installs()
            .enumerate()
            .filter_map(|(i, rec)| replay_install(rec, origin).map(|r| (i, r)))
            .collect();
        pass.spans = record_spans(&pass);
    }
    pass
}

fn outcome_label(result: &Result<atis_serve::RouteAnswer, ServeError>) -> String {
    match result {
        Ok(a) => a.outcome.label().to_string(),
        Err(ServeError::Shed { reason, .. }) => format!("shed-{}", reason.label()),
        Err(_) => "error".to_string(),
    }
}

/// One span tree per open-loop route (route → snapshot, submit, queue,
/// service, replayed algorithms run) and per install (install → the
/// `update_edge_cost` call and the replayed clone, edge update,
/// hierarchy and landmark steps). Replayed spans run after the phase
/// and say so.
fn record_spans(pass: &Pass) -> Spans {
    let mut spans = Spans::default();
    let replay_of: std::collections::HashMap<usize, &RouteReplay> =
        pass.replays.iter().map(|r| (r.record, r)).collect();
    for (i, r) in pass.open.records.iter().enumerate() {
        let key = match r.id {
            Some(id) => format!("route-{id}"),
            None => format!("route-refused-{i}"),
        };
        let submit_end = r.submit_start + r.submit;
        let end = r.latency().map_or(submit_end, |l| r.due + l);
        let attrs = format!(
            r#""from":{},"to":{},"outcome":"{}""#,
            r.from.0,
            r.to.0,
            outcome_label(&r.result)
        );
        let root = spans.push(&key, None, "route", r.due, end, &attrs);
        if let Some(s) = &r.snapshot {
            let attrs = format!(r#""install":{}"#, s.install);
            spans.push(
                &key,
                Some(root),
                "shard_snapshot",
                s.start,
                s.start + s.wait,
                &attrs,
            );
        }
        spans.push(&key, Some(root), "submit", r.submit_start, submit_end, "");
        if let Ok(a) = &r.result {
            let queued = submit_end + a.queue_wait;
            spans.push(&key, Some(root), "queue", submit_end, queued, "");
            let attrs = format!(r#""worker":{},"epoch":{}"#, a.worker, a.epoch);
            spans.push(
                &key,
                Some(root),
                "service",
                queued,
                queued + a.service_time,
                &attrs,
            );
        }
        if let Some(rp) = replay_of.get(&i) {
            let s = &rp.trace.steps;
            let attrs = format!(
                r#""replayed":true,"iterations":{},"frontier_peak":{},"cost_units":{},"physical_reads":{},"io_init":{},"io_select":{},"io_join":{},"io_update":{},"io_bookkeeping":{}"#,
                rp.trace.iterations,
                rp.trace.frontier_peak,
                rp.cost_units,
                rp.physical,
                charged_ops(&s.init),
                charged_ops(&s.select),
                charged_ops(&s.join),
                charged_ops(&s.update),
                charged_ops(&s.bookkeeping),
            );
            spans.push(
                &key,
                Some(root),
                "algorithms",
                rp.start,
                rp.start + rp.wall,
                &attrs,
            );
        }
    }
    let replays: std::collections::HashMap<usize, &InstallReplay> =
        pass.install_replays.iter().map(|(i, r)| (*i, r)).collect();
    for (i, rec) in pass.installs().enumerate() {
        let key = format!("install-{i}");
        let attrs = format!(
            r#""op":"{}","u":{},"v":{},"cost":{},"ok":{}"#,
            rec.install.op.name(),
            rec.install.u.0,
            rec.install.v.0,
            rec.install.cost,
            rec.ok
        );
        let due = rec.start - rec.lateness;
        let root = spans.push(&key, None, "install", due, rec.start + rec.took, &attrs);
        spans.push(
            &key,
            Some(root),
            "update_edge_cost",
            rec.start,
            rec.start + rec.took,
            "",
        );
        if let Some(rp) = replays.get(&i) {
            for &(name, start, took) in &rp.steps {
                spans.push(
                    &key,
                    Some(root),
                    name,
                    start,
                    start + took,
                    r#""replayed":true"#,
                );
            }
        }
    }
    spans
}

/// The median of each set-up stage, and of the total, over `stages`.
fn stage_medians(stages: &[Stages]) -> [(&'static str, f64); 7] {
    let named: Vec<_> = stages.iter().map(Stages::named).collect();
    let mut out = Stages::default().named();
    for (i, slot) in out.iter_mut().enumerate() {
        slot.1 = median(&mut named.iter().map(|n| n[i].1).collect::<Vec<_>>());
    }
    out
}

/// Charged operations in one step's I/O: block reads and writes, tuple
/// updates, relations created and dropped.
fn charged_ops(io: &atis_storage::IoStats) -> u64 {
    io.block_reads
        + io.block_writes
        + io.tuple_updates
        + io.relations_created
        + io.relations_deleted
}

type Metric = (String, f64, &'static str);

fn metric(name: &str, value: f64, unit: &'static str) -> Metric {
    (name.to_string(), value, unit)
}

/// The end-to-end metrics of an untraced pass.
fn end_to_end(pass: &Pass, kind: Kind, setup_s: f64, rss_mb: f64) -> Vec<Metric> {
    let routes = pass.route_samples();
    let jams = pass.install_samples(Op::Jam);
    let clears = pass.install_samples(Op::Clear);
    let (rw, iw) = (kind.route_window(), kind.install_window());
    vec![
        metric("setup_s", setup_s, "s"),
        metric("route_p50_ms", windowed(&routes, rw, 0.5), "ms"),
        metric("route_p99_ms", windowed(&routes, rw, 0.99), "ms"),
        metric("saturated_rps", pass.closed.answered_per_s, "1/s"),
        metric("install_jam_p50_ms", windowed(&jams, iw, 0.5), "ms"),
        metric("install_jam_p90_ms", windowed(&jams, iw, 0.9), "ms"),
        metric(
            "install_clear_mean_ms",
            trimmed_mean(&mut clears.iter().map(|s| s.1).collect::<Vec<_>>(), TRIM),
            "ms",
        ),
        metric("peak_rss_mb", rss_mb, "MB"),
    ]
}

/// One number per replayed run, averaged into a per-layer metric.
type ReplayStat = fn(&RouteReplay) -> f64;

/// Pushes `<name>_p50` and `<name>_p99` of `values`.
fn push_p50_p99(m: &mut Vec<Metric>, name: &str, mut values: Vec<f64>, unit: &'static str) {
    m.push(metric(
        &format!("{name}_p50"),
        percentile(&mut values, 0.5),
        unit,
    ));
    m.push(metric(
        &format!("{name}_p99"),
        percentile(&mut values, 0.99),
        unit,
    ));
}

/// The per-layer metrics of a traced pass, plus the traced pass's
/// overhead over the untraced one for every end-to-end metric.
fn per_layer(pass: &Pass, setups: &[Stages], plain: &[Metric], traced: &[Metric]) -> Vec<Metric> {
    let mut m = Vec::new();
    let records = &pass.open.records;
    let answers = || records.iter().filter_map(|r| r.result.as_ref().ok());
    let service_of = |o: RouteOutcome| {
        answers()
            .filter(move |a| a.outcome == o)
            .map(|a| a.service_time)
    };
    let submit = records.iter().map(|r| us(r.submit)).collect();
    push_p50_p99(&mut m, "service.submit_us", submit, "us");
    let queue = answers().map(|a| ms(a.queue_wait)).collect();
    push_p50_p99(&mut m, "service.queue_wait_ms", queue, "ms");
    let hit = service_of(RouteOutcome::CacheHit).map(us).collect();
    push_p50_p99(&mut m, "service.hit_us", hit, "us");
    let computed = service_of(RouteOutcome::Computed).map(ms).collect();
    push_p50_p99(&mut m, "service.computed_ms", computed, "ms");
    let mut self_ms: Vec<f64> = pass
        .replays
        .iter()
        .filter_map(|rp| {
            let answer = records[rp.record].result.as_ref().ok()?;
            Some(ms(answer.service_time) - ms(rp.wall))
        })
        .collect();
    m.push(metric("service.self_ms_p50", median(&mut self_ms), "ms"));
    let mut lateness: Vec<f64> = records.iter().map(|r| ms(r.lateness)).collect();
    let lateness_p99 = percentile(&mut lateness, 0.99);
    m.push(metric("service.lateness_ms_p99", lateness_p99, "ms"));
    let c = pass.counts();
    let cache = pass.open.cache;
    for (name, v) in [
        ("service.computed", c.computed),
        ("service.cache_hit", c.cache_hit),
        ("service.degraded", c.degraded),
        ("service.stale", c.stale),
        ("service.shed_queue_full", c.queue_full),
        ("service.shed_deadline", c.deadline),
        ("service.shed_breaker", c.breaker),
        ("service.errored", c.errored),
    ] {
        m.push(metric(name, v as f64, "count"));
    }
    m.push(metric("cache.hit_ratio", cache.hit_ratio(), "ratio"));
    for (name, v) in [
        ("cache.invalidations", cache.invalidations),
        ("cache.promotions", cache.promotions),
        ("cache.evictions", cache.evictions),
        ("cache.stale_hits", cache.stale_hits),
    ] {
        m.push(metric(name, v as f64, "count"));
    }

    let snapshot = records
        .iter()
        .filter_map(|r| r.snapshot.as_ref())
        .map(|s| us(s.wait))
        .collect();
    push_p50_p99(&mut m, "shard.snapshot_us", snapshot, "us");
    for (name, step) in [
        ("shard.clone_ms_p50", "clone"),
        ("shard.edge_update_ms_p50", "edge_update"),
        ("preprocess.patch_ms_p50", "patch"),
        ("preprocess.rebuild_ms_p50", "rebuild"),
        ("hierarchy.customize_ms_p50", "customize"),
        ("hierarchy.recontract_ms_p50", "recontract"),
    ] {
        let mut v: Vec<f64> = pass
            .install_replays
            .iter()
            .filter_map(|(_, r)| r.step(step))
            .map(ms)
            .collect();
        m.push(metric(name, median(&mut v), "ms"));
    }

    let rp = &pass.replays;
    let avg = |f: &dyn Fn(&RouteReplay) -> f64| mean(&rp.iter().map(f).collect::<Vec<_>>());
    let mut run_ms: Vec<f64> = rp.iter().map(|r| ms(r.wall)).collect();
    m.push(metric("algorithms.replays", rp.len() as f64, "count"));
    m.push(metric("algorithms.run_ms_p50", median(&mut run_ms), "ms"));
    let per_run: [(&str, ReplayStat, &'static str); 10] = [
        (
            "algorithms.iterations_mean",
            |r| r.trace.iterations as f64,
            "count",
        ),
        (
            "algorithms.frontier_peak_mean",
            |r| r.trace.frontier_peak as f64,
            "count",
        ),
        ("algorithms.cost_units_mean", |r| r.cost_units, "units"),
        (
            "algorithms.io.init",
            |r| charged_ops(&r.trace.steps.init) as f64,
            "count",
        ),
        (
            "algorithms.io.select",
            |r| charged_ops(&r.trace.steps.select) as f64,
            "count",
        ),
        (
            "algorithms.io.join",
            |r| charged_ops(&r.trace.steps.join) as f64,
            "count",
        ),
        (
            "algorithms.io.update",
            |r| charged_ops(&r.trace.steps.update) as f64,
            "count",
        ),
        (
            "algorithms.io.bookkeeping",
            |r| charged_ops(&r.trace.steps.bookkeeping) as f64,
            "count",
        ),
        (
            "storage.logical_reads_mean",
            |r| r.trace.io.block_reads as f64,
            "count",
        ),
        (
            "storage.physical_reads_mean",
            |r| r.physical as f64,
            "count",
        ),
    ];
    for (name, f, unit) in per_run {
        m.push(metric(name, avg(&f), unit));
    }
    let pool_hits: u64 = rp.iter().map(|r| r.pool_hits).sum();
    let physical: u64 = rp.iter().map(|r| r.physical).sum();
    let pool_hit_ratio = ratio(pool_hits as f64, (pool_hits + physical) as f64);
    m.push(metric("storage.pool_hit_ratio", pool_hit_ratio, "ratio"));

    for (name, value) in stage_medians(setups) {
        if name != "total" {
            m.push(metric(&format!("setup.{name}_s"), value, "s"));
        }
    }
    for (name, op) in [
        ("install.jam_count", Op::Jam),
        ("install.clear_count", Op::Clear),
    ] {
        m.push(metric(name, pass.install_samples(op).len() as f64, "count"));
    }
    for ((name, base, _), (_, with, _)) in plain.iter().zip(traced) {
        m.push(metric(
            &format!("overhead.{name}"),
            ratio(with - base, *base),
            "ratio",
        ));
    }
    m
}

fn report_pass(label: &str, pass: &Pass) {
    println!("{}", pass.open.counts.line(&format!("{label}/open")));
    println!("{}", pass.open.cache.line(&format!("{label}/open")));
    println!("{}", pass.closed.counts.line(&format!("{label}/closed")));
    println!("{}", pass.closed.cache.line(&format!("{label}/closed")));
    for (phase, installs) in [("open", &pass.open.installs), ("tail", &pass.tail)] {
        let n = |op: Op| installs.iter().filter(|i| i.install.op == op).count();
        let failed = installs.iter().filter(|i| !i.ok).count();
        println!(
            "installs {label}/{phase}: attempted {} (jams {}, clears {}) answered {} errored {failed}",
            installs.len(),
            n(Op::Jam),
            n(Op::Clear),
            installs.len() - failed
        );
    }
    println!(
        "checks {label}: {} paths, {} oracle comparisons, {} replays, {} mismatches",
        pass.path_checks,
        pass.oracle_checks,
        pass.replays.len(),
        pass.invalid.len()
    );
    for e in pass.invalid.iter().take(10) {
        println!("  mismatch: {e}");
    }
}

fn json(correct: bool, attempted: u64, failed: u64, metrics: &[Metric]) -> String {
    let mut out =
        format!(r#"{{"correct":{correct},"attempted":{attempted},"failed":{failed},"metrics":{{"#);
    for (i, (name, value, unit)) in metrics.iter().enumerate() {
        let value = if value.is_finite() { *value } else { 0.0 };
        let sep = if i == 0 { "" } else { "," };
        let _ = write!(out, r#"{sep}"{name}":{{"value":{value},"unit":"{unit}"}}"#);
    }
    out.push_str("}}");
    out
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("{e}\nusage: perfbench --workload <grid-hot|metro-miss|metro-churn> --seed <n> --seconds <n> --trace <0|1>");
            return ExitCode::from(2);
        }
    };
    let Args {
        kind,
        seed,
        seconds,
        trace,
    } = args;
    println!(
        "workload {} seed {seed} seconds {seconds} trace {} (available parallelism {})",
        kind.name(),
        trace as u8,
        std::thread::available_parallelism().map_or(0, |n| n.get())
    );

    let mut stages: Vec<Stages> = Vec::new();
    let mut setup = None;
    while stages.len() < MIN_SETUPS
        || (stages.len() < MAX_SETUPS
            && stages.iter().map(Stages::total).sum::<f64>() < SETUP_BUDGET)
    {
        drop(setup.take());
        let s = workload::setup(kind, seed);
        stages.push(s.stages);
        setup = Some(s);
    }
    for (name, value) in stage_medians(&stages) {
        println!(
            "setup {name}: median {value:.4}s over {} set-ups",
            stages.len()
        );
    }
    let mut setup = setup.expect("at least one set-up");
    let setup_s = median(&mut stages.iter().map(Stages::total).collect::<Vec<_>>());

    let plain = run_pass(&mut setup, kind, seed, seconds, false);
    report_pass("untraced", &plain);
    let rss = stats::peak_rss_mb().unwrap_or(0.0);
    let e2e = end_to_end(&plain, kind, setup_s, rss);
    let mut route: Vec<f64> = plain.route_samples().into_iter().map(|s| s.1).collect();
    let mut tail = |p: f64| percentile(&mut route, p);
    println!(
        "pooled route ms: p50 {:.4} p90 {:.4} p99 {:.4} p99.9 {:.4} max {:.4}",
        tail(0.5),
        tail(0.9),
        tail(0.99),
        tail(0.999),
        tail(1.0)
    );
    println!(
        "samples: route {}, jam {}, clear {}",
        route.len(),
        plain.install_samples(Op::Jam).len(),
        plain.install_samples(Op::Clear).len()
    );
    for (name, value, unit) in &e2e {
        println!("metric {name} {value:.4} {unit}");
    }
    let mut correct = plain.invalid.is_empty();
    let mut attempted = plain.attempted();
    let mut failed = plain.failed();

    let metrics = if trace {
        drop(setup);
        let mut traced_setup = workload::setup(kind, seed);
        let traced_setup_s = traced_setup.stages.total();
        let traced = run_pass(&mut traced_setup, kind, seed, seconds, true);
        report_pass("traced", &traced);
        let traced_e2e = end_to_end(
            &traced,
            kind,
            traced_setup_s,
            stats::peak_rss_mb().unwrap_or(0.0),
        );
        for ((name, base, unit), (_, with, _)) in e2e.iter().zip(&traced_e2e) {
            println!(
                "overhead {name}: untraced {base:.4} {unit}, traced {with:.4} {unit} ({:+.1}%)",
                ratio(with - base, *base) * 100.0
            );
        }
        let path =
            std::path::PathBuf::from(format!(".bench_out/spans-{}-{seed}.jsonl", kind.name()));
        match traced.spans.write(&path) {
            Ok(()) => println!(
                "spans: {} written to {}",
                traced.spans.len(),
                path.display()
            ),
            Err(e) => {
                eprintln!("writing {}: {e}", path.display());
                correct = false;
            }
        }
        correct &= traced.invalid.is_empty();
        attempted += traced.attempted();
        failed += traced.failed();
        per_layer(&traced, &stages, &e2e, &traced_e2e)
    } else {
        e2e
    };
    println!("{}", json(correct, attempted, failed, &metrics));
    if correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
