//! What the two simulated workloads share: one served pass's outputs,
//! its end-to-end summary and its per-layer table.

use std::sync::Arc;

use hpu_model::{MachineParams, ScheduleSpec};
use hpu_obs::{FleetReport, JobOutcome, JobRecord, MetricValue, MetricsRegistry};
use hpu_serve::ServeOutput;

use crate::job::JobSpec;
use crate::model;
use crate::out::Metrics;
use crate::stats::{mean, median, percentile, ratio, Pct};
use crate::trace::{self, Span, Tracer};

/// One served pass of a simulated workload.
pub struct SimRun {
    /// Host wall time of the public calls that served the pass.
    pub host_s: f64,
    pub nodes: Vec<ServeOutput>,
    pub fleet: Option<FleetReport>,
    /// Per job id: whether its output checked out.
    pub ok: Vec<bool>,
}

impl SimRun {
    pub fn records(&self) -> impl Iterator<Item = &JobRecord> {
        self.nodes.iter().flat_map(|o| o.report.jobs.iter())
    }

    /// Completed records, in job-id order.
    pub fn completed(&self) -> Vec<&JobRecord> {
        let mut v: Vec<&JobRecord> = self
            .records()
            .filter(|r| r.outcome == JobOutcome::Completed)
            .collect();
        v.sort_by_key(|r| r.id);
        v
    }

    /// Rejected, cancelled or failed jobs.
    pub fn lost(&self) -> u64 {
        self.records()
            .filter(|r| r.outcome != JobOutcome::Completed)
            .count() as u64
    }

    /// Completed jobs whose output was wrong.
    pub fn wrong(&self) -> u64 {
        self.completed()
            .iter()
            .filter(|r| !self.ok.get(r.id as usize).copied().unwrap_or(false))
            .count() as u64
    }

    pub fn latencies(&self) -> Vec<f64> {
        self.completed().iter().map(|r| r.latency()).collect()
    }

    /// Every record's observable schedule, for determinism checks.
    pub fn schedule(&self) -> Vec<(u64, f64, f64, f64, bool)> {
        let mut v: Vec<_> = self
            .records()
            .map(|r| (r.id, r.arrival, r.start, r.end, r.fallback))
            .collect();
        v.sort_by_key(|x| x.0);
        v
    }

    /// Whether the pass meets both capacity limits: nearest-rank p99
    /// latency within 10 load units, and no growing backlog — the last
    /// quarter's mean queue wait (by arrival) within twice the first
    /// quarter's. A refused or failed job misses the limits. The
    /// first-quarter wait is floored at 5% of a load unit so an idle
    /// start does not turn any nonzero wait into "growth".
    pub fn meets_limits(&self, unit: f64) -> bool {
        if self.lost() > 0 {
            return false;
        }
        let Some(p99) = percentile(&self.latencies(), 99.0) else {
            return false;
        };
        let waits: Vec<f64> = self.completed().iter().map(|r| r.wait()).collect();
        let q = waits.len() / 4;
        let first = mean(&waits[..q]);
        let last = mean(&waits[waits.len() - q..]);
        p99.value <= 10.0 * unit && last <= 2.0 * first.max(0.05 * unit)
    }
}

/// Mean solo latency over a stream: each distinct (algorithm, size,
/// schedule) shape is served alone once — simulated solo time depends on
/// the keys only in the sixth significant digit — and weighted by how
/// often the stream uses it.
pub fn mix_mean_solo(jobs: &[&JobSpec], mut solo: impl FnMut(&JobSpec) -> f64) -> f64 {
    let mut memo: std::collections::HashMap<String, f64> = std::collections::HashMap::new();
    let total: f64 = jobs
        .iter()
        .map(|j| {
            let key = format!("{:?}/{}/{:?}", j.algo, j.n, j.spec);
            *memo.entry(key).or_insert_with(|| solo(j))
        })
        .sum();
    total / jobs.len().max(1) as f64
}

/// Arrival times at offered load `rate` (jobs per `unit`) from unit-mean
/// gaps.
pub fn arrivals(gaps: &[f64], unit: f64, rate: f64) -> Vec<f64> {
    let mut t = 0.0;
    gaps.iter()
        .map(|g| {
            t += g * unit / rate;
            t
        })
        .collect()
}

/// Mean arrival rate actually generated, in jobs per `unit`.
pub fn achieved_rate(arrivals: &[f64], unit: f64) -> f64 {
    match (arrivals.first(), arrivals.last()) {
        (Some(a), Some(b)) if b > a => (arrivals.len() - 1) as f64 / (b - a) * unit,
        _ => 0.0,
    }
}

/// The host-time row of a sim workload's table.
pub fn host_line(nominal: &[f64], raw: &[f64]) -> String {
    format!(
        "{:<28} {:>14.4} ms at nominal speed ({:.4} ms as measured, {} passes)",
        "sim_host_ms_per_job",
        median(nominal),
        median(raw),
        nominal.len()
    )
}

pub fn pct_line(name: &str, p: Option<Pct>, unit: f64) -> String {
    match p {
        Some(p) => format!(
            "{name:<28} {:>14.1} vt  ({:.3} x load unit, n={})",
            p.value,
            p.value / unit,
            p.samples
        ),
        None => format!("{name:<28} {:>14} (fewer than 10 samples beyond it)", "-"),
    }
}

fn hist_sum(reg: &MetricsRegistry, name: &str) -> f64 {
    match reg.snapshot().get(name) {
        Some(MetricValue::Histogram(h)) => h.sum,
        _ => 0.0,
    }
}

fn hist_pct(reg: &MetricsRegistry, name: &str, q: f64) -> f64 {
    reg.histogram(name).quantile(q)
}

/// Size class of a sim job, for the interpreter timing rows.
fn size_class(n: usize) -> &'static str {
    match n {
        0..=2048 => "small",
        2049..=32768 => "mid",
        _ => "large",
    }
}

/// The per-layer table of one traced sim pass. `parents` name the call
/// spans the program's host time is spent under. `fleet.routing_quality`
/// and `fleet.vt_max_rate` come from other passes and are set by the caller.
#[allow(clippy::too_many_arguments)]
pub fn layers(
    m: &mut Metrics,
    run: &SimRun,
    jobs: &[&JobSpec],
    tracer: &Tracer,
    registry: &MetricsRegistry,
    parents: &[&str],
    params: &MachineParams,
    specs: &[ScheduleSpec],
) {
    let spans: Vec<Span> = tracer.spans();
    let completed = run.completed();
    let done = completed.len() as f64;
    let submitted = jobs.len();

    // hpu-serve: scheduler self time per job by stream quarter.
    let (q1, q4) = trace::quarter_self_us(&spans, parents, submitted);
    m.set("serve.self_us_per_job.q1", q1, "us");
    m.set("serve.self_us_per_job.q4", q4, "us");
    let runs: Vec<&Span> = spans.iter().filter(|s| s.name == "run_plan").collect();
    m.set(
        "serve.runs_per_completed",
        ratio(runs.len() as f64, done),
        "ratio",
    );
    let waits: Vec<f64> = completed.iter().map(|r| r.wait()).collect();
    // 0 when the pass is too short to resolve a p99.
    m.set(
        "serve.wait_vt_p99",
        percentile(&waits, 99.0).map_or(0.0, |p| p.value),
        "vt",
    );
    let fallbacks = completed.iter().filter(|r| r.fallback).count() as f64;
    m.set("serve.fallback_frac", ratio(fallbacks, done), "ratio");

    // hpu-fleet.
    if let Some(f) = &run.fleet {
        m.set("fleet.steals", f.steals as f64, "count");
        m.set("fleet.migrations", f.migrations as f64, "count");
        let max_routed = f.nodes.iter().map(|n| n.routed).max().unwrap_or(0);
        m.set(
            "fleet.max_node_share",
            ratio(max_routed as f64, submitted as f64),
            "ratio",
        );
    }

    // hpu-model: counters of the pass, then replays of the public calls.
    let (hits, misses) = run
        .nodes
        .iter()
        .filter_map(|o| o.plan_cache)
        .fold((0, 0), |(h, mi), s| (h + s.hits, mi + s.misses));
    m.set(
        "model.cache_hit_ratio",
        ratio(hits as f64, (hits + misses) as f64),
        "ratio",
    );
    m.set(
        "model.compiles_per_job",
        ratio(misses as f64, submitted as f64),
        "ratio",
    );
    m.set(
        "model.replans",
        run.nodes.iter().map(|o| o.replans).sum::<u64>() as f64,
        "count",
    );
    m.set(
        "model.compile_ns.p50",
        hist_pct(registry, "model.compile_ns", 50.0),
        "ns",
    );
    m.set(
        "model.compile_ns.p99",
        hist_pct(registry, "model.compile_ns", 99.0),
        "ns",
    );
    let drift: f64 = run
        .nodes
        .iter()
        .map(|o| o.report.mean_abs_drift * o.report.completed as f64)
        .sum();
    m.set("model.abs_drift_mean", ratio(drift, done), "ratio");
    model::replay(m, jobs, params, specs);

    // hpu-core: interpreter runs by size class, and their share of host time.
    let n_of = |s: &Span| s.job.and_then(|j| jobs.get(j as usize)).map_or(0, |j| j.n);
    for class in ["small", "mid", "large"] {
        let us: Vec<f64> = runs
            .iter()
            .filter(|s| size_class(n_of(s)) == class)
            .map(|s| s.dur_ns() as f64 / 1e3)
            .collect();
        for p in [50.0, 90.0] {
            let v = percentile(&us, p).map_or(0.0, |p| p.value);
            m.set(format!("core.sim_run_us.{class}.p{p}"), v, "us");
        }
    }
    let run_ns: u64 = runs.iter().map(|s| s.dur_ns()).sum();
    m.set(
        "core.sim_run_share",
        ratio(run_ns as f64, run.host_s * 1e9),
        "ratio",
    );

    // hpu-machine: device occupancy and where interpreted segment time goes.
    let nodes = run.nodes.len().max(1) as f64;
    let util = |f: fn(&ServeOutput) -> f64| run.nodes.iter().map(f).sum::<f64>() / nodes;
    m.set(
        "machine.gpu_util",
        util(|o| o.report.gpu_utilization),
        "ratio",
    );
    m.set(
        "machine.cpu_util",
        util(|o| o.report.cpu_utilization),
        "ratio",
    );
    let seg = hist_sum(registry, "interpret.segment_time");
    for (name, hist) in [
        ("machine.launch_share", "interpret.launch_overhead"),
        ("machine.transfer_share", "interpret.transfer_time"),
        ("machine.kernel_share", "interpret.kernel_time"),
    ] {
        m.set(name, ratio(hist_sum(registry, hist), seg), "ratio");
    }
    let leases: usize = run.nodes.iter().map(|o| o.gpu_leases.len()).sum();
    m.set(
        "machine.gpu_leases_per_job",
        ratio(leases as f64, done),
        "ratio",
    );
}

/// A fresh tracer and registry for one traced pass.
pub fn traced() -> (Arc<Tracer>, Arc<MetricsRegistry>) {
    (
        Arc::new(Tracer::default()),
        Arc::new(MetricsRegistry::new()),
    )
}
