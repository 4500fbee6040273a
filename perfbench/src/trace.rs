//! The traced pass's instruments: an in-memory span log written as
//! JSONL at the end, and single-threaded replays of computed routes and
//! installs through the layers' public calls.

use crate::drive::{InstallRecord, Pinned, RouteRecord};
use atis_algorithms::{Algorithm, Database, RunTrace};
use atis_serve::RouteOutcome;
use std::fmt::Write as _;
use std::hint::black_box;
use std::time::{Duration, Instant};

/// Spans kept in memory: name, start, end and parent, grouped by a
/// trace key (`route-<ticket id>`, `install-<n>`).
#[derive(Default)]
pub struct Spans {
    lines: Vec<String>,
    next: u64,
}

impl Spans {
    /// Records a span (times from the pass origin) and returns its id.
    /// `attrs` is a JSON fragment of extra fields, possibly empty.
    pub fn push(
        &mut self,
        trace: &str,
        parent: Option<u64>,
        name: &str,
        start: Duration,
        end: Duration,
        attrs: &str,
    ) -> u64 {
        self.next += 1;
        let mut line = format!(
            r#"{{"trace":"{trace}","span":{},"parent":{},"name":"{name}","start_us":{:.1},"end_us":{:.1}"#,
            self.next,
            parent.map_or("null".to_string(), |p| p.to_string()),
            start.as_secs_f64() * 1e6,
            end.as_secs_f64() * 1e6,
        );
        if !attrs.is_empty() {
            line.push(',');
            line.push_str(attrs);
        }
        line.push('}');
        self.lines.push(line);
        self.next
    }

    pub fn len(&self) -> usize {
        self.lines.len()
    }

    pub fn write(&self, path: &std::path::Path) -> std::io::Result<()> {
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        let mut out = String::new();
        for line in &self.lines {
            let _ = writeln!(out, "{line}");
        }
        std::fs::write(path, out)
    }
}

/// One computed route re-run on the snapshot it was answered from.
pub struct RouteReplay {
    /// Index of the replayed request among the open-loop records.
    pub record: usize,
    pub start: Duration,
    pub wall: Duration,
    pub trace: RunTrace,
    pub cost_units: f64,
    /// Buffer-pool misses during the run (every logical read without a
    /// pool).
    pub physical: u64,
    /// Buffer-pool hits during the run.
    pub pool_hits: u64,
    /// Whether the replay found the answer's path, bit for bit.
    pub matches: bool,
}

fn pool_counters(db: &Database) -> Option<(u64, u64)> {
    db.buffer().map(|b| {
        let pool = b.lock().expect("buffer pool lock");
        (pool.hits, pool.misses)
    })
}

/// Replays up to `cap` computed open-loop answers (evenly spread over
/// the eligible ones) with `algorithm` on the snapshot each pinned, on
/// this thread, through `Database::run`.
pub fn replay_routes(
    records: &[RouteRecord],
    pinned: &Pinned,
    algorithm: Algorithm,
    origin: Instant,
    cap: usize,
) -> Vec<RouteReplay> {
    let eligible: Vec<usize> = records
        .iter()
        .enumerate()
        .filter(|(_, r)| match (&r.result, &r.snapshot) {
            (Ok(a), Some(s)) => {
                a.outcome == RouteOutcome::Computed
                    && a.epoch == s.install
                    && pinned.snapshots.contains_key(&s.install)
            }
            _ => false,
        })
        .map(|(i, _)| i)
        .collect();
    let step = eligible.len().div_ceil(cap).max(1);
    eligible
        .into_iter()
        .step_by(step)
        .filter_map(|i| {
            let r = &records[i];
            let answer = r.result.as_ref().ok()?;
            let db = &pinned.snapshots[&answer.epoch].db;
            let pool_before = pool_counters(db);
            let began = Instant::now();
            let trace = db.run(algorithm, r.from, r.to).ok()?;
            let wall = began.elapsed();
            let (pool_hits, physical) = match (pool_before, pool_counters(db)) {
                (Some((h0, m0)), Some((h1, m1))) => (h1 - h0, m1 - m0),
                _ => (0, trace.io.block_reads),
            };
            let matches = match (&trace.path, &answer.path) {
                (Some(a), Some(b)) => a.nodes == b.nodes && a.cost.to_bits() == b.cost.to_bits(),
                (None, None) => true,
                _ => false,
            };
            Some(RouteReplay {
                record: i,
                start: began - origin,
                cost_units: trace.cost_units(db.params()),
                wall,
                trace,
                physical,
                pool_hits,
                matches,
            })
        })
        .collect()
}

/// One install re-done step by step on a private clone of the snapshot
/// it started from.
pub struct InstallReplay {
    /// `(name, start, duration)` per step, in order: clone, edge
    /// update, then hierarchy and landmark maintenance where the
    /// database carries them.
    pub steps: Vec<(&'static str, Duration, Duration)>,
}

impl InstallReplay {
    pub fn step(&self, name: &str) -> Option<Duration> {
        self.steps.iter().find(|s| s.0 == name).map(|s| s.2)
    }
}

/// Repeats an install through `Database::clone`,
/// `Database::update_edge_cost`, `Hierarchy::customized_for` /
/// `rebuild_for` and `LandmarkTables::patched_for` / `rebuild_for`, in
/// the order the epoch store applies them.
pub fn replay_install(record: &InstallRecord, origin: Instant) -> Option<InstallReplay> {
    let pre = record.pre.as_ref()?;
    let i = record.install;
    let mut steps = Vec::new();
    let mut timed = |name: &'static str, f: &mut dyn FnMut()| {
        let began = Instant::now();
        f();
        steps.push((name, began - origin, began.elapsed()));
    };
    let mut next: Option<Database> = None;
    timed("clone", &mut || next = Some((*pre.db).clone()));
    let mut next = next?;
    let old = next.graph().edge_cost(i.u, i.v).unwrap_or(f64::INFINITY);
    let increase = i.cost >= old;
    let mut updated = Ok(0);
    timed("edge_update", &mut || {
        updated = next.update_edge_cost(i.u, i.v, i.cost)
    });
    updated.ok()?;
    if let Some(h) = next.hierarchy() {
        let name = if increase { "customize" } else { "recontract" };
        timed(name, &mut || {
            if increase {
                black_box(h.customized_for(next.graph()));
            } else {
                let _ = black_box(h.rebuild_for(next.graph()));
            }
        });
    }
    if let Some(l) = next.landmarks() {
        let name = if increase { "patch" } else { "rebuild" };
        timed(name, &mut || {
            if increase {
                black_box(l.patched_for(next.graph()));
            } else {
                let _ = black_box(l.rebuild_for(next.graph()));
            }
        });
    }
    Some(InstallReplay { steps })
}
