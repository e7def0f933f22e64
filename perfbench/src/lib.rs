//! End-to-end and per-layer benchmark of the hpu workspace.
//!
//! Drives the workspace only through its public APIs — `fleet_sim`,
//! `NodeSim`, `serve_native`, `compile`/`plan_cost`/`PlanCache` and
//! `LevelPool`/`exec` — over seeded workloads (`fleet-small`,
//! `hybrid-replan`, and `native-sort` in two pass configurations), checks
//! every output, and reports the metrics listed in `METRICS.md`.

pub mod fleet;
pub mod hybrid;
pub mod job;
pub mod model;
pub mod native;
pub mod out;
pub mod rng;
pub mod sim;
pub mod speed;
pub mod stats;
pub mod trace;

use std::path::Path;
use std::time::{Duration, Instant};

use out::Outcome;
use trace::Tracer;

/// Workload names the benchmark answers to, in the order `all` runs
/// them. `native-sort` is one stream served in two pass configurations;
/// each configuration is its own name so each pass's throughput is gated
/// on its own (`--workload native-sort` runs both).
pub const WORKLOADS: [&str; 4] = [
    "fleet-small",
    "hybrid-replan",
    "native-sort.w1t2",
    "native-sort.w2t1",
];

/// The gated end-to-end metrics, `(name, unit)`: every untraced run of
/// every workload reports each of them (see `METRICS.md` for what each
/// means on each workload).
pub const E2E_METRICS: [(&str, &str); 5] = [
    ("setup_s", "s"),
    ("peak_rss_mb", "MiB"),
    ("host_ms_per_job", "ms"),
    ("latency_p50_rel", "x_mean_service"),
    ("latency_tail_rel", "x_mean_service"),
];

/// The per-layer table, `(name, unit)`: every traced run prints every
/// row, with 0 where the workload leaves the layer idle.
pub const LAYER_METRICS: [(&str, &str); 44] = [
    ("serve.self_us_per_job.q1", "us"),
    ("serve.self_us_per_job.q4", "us"),
    ("serve.runs_per_completed", "ratio"),
    ("serve.wait_vt_p99", "vt"),
    ("serve.fallback_frac", "ratio"),
    ("serve.native_busy_frac", "ratio"),
    ("fleet.steals", "count"),
    ("fleet.migrations", "count"),
    ("fleet.max_node_share", "ratio"),
    ("fleet.routing_quality", "ratio"),
    ("fleet.vt_max_rate", "jobs/unit"),
    ("model.compile_us.AdvancedAuto", "us"),
    ("model.compile_us.Basic", "us"),
    ("model.compile_us.GpuOnly", "us"),
    ("model.compile_us.CpuParallel", "us"),
    ("model.plan_cost_us", "us"),
    ("model.cache_hit_us", "us"),
    ("model.cache_hit_ratio", "ratio"),
    ("model.compiles_per_job", "ratio"),
    ("model.replans", "count"),
    ("model.compile_ns.p50", "ns"),
    ("model.compile_ns.p99", "ns"),
    ("model.abs_drift_mean", "ratio"),
    ("core.sim_run_us.small.p50", "us"),
    ("core.sim_run_us.small.p90", "us"),
    ("core.sim_run_us.mid.p50", "us"),
    ("core.sim_run_us.mid.p90", "us"),
    ("core.sim_run_us.large.p50", "us"),
    ("core.sim_run_us.large.p90", "us"),
    ("core.sim_run_share", "ratio"),
    ("core.native_run_ms.n12", "ms"),
    ("core.native_run_ms.n16", "ms"),
    ("core.native_run_ms.n20", "ms"),
    ("core.pool_level_us.small", "us"),
    ("core.pool_level_us.large", "us"),
    ("core.pool_speedup_2t.n20", "ratio"),
    ("core.vs_std_sort.n20", "ratio"),
    ("machine.gpu_util", "ratio"),
    ("machine.cpu_util", "ratio"),
    ("machine.launch_share", "ratio"),
    ("machine.transfer_share", "ratio"),
    ("machine.kernel_share", "ratio"),
    ("machine.gpu_leases_per_job", "ratio"),
    ("obs.trace_overhead", "ratio"),
];

/// Set-up repetitions per run; `setup_s` is their median.
pub const SETUPS: usize = 7;

/// The workloads a `--workload` argument selects, or `None` if unknown.
pub fn select(arg: &str) -> Option<Vec<&'static str>> {
    match arg {
        "all" => Some(WORKLOADS.to_vec()),
        "native-sort" => Some(WORKLOADS[2..].to_vec()),
        w => WORKLOADS.iter().find(|&&k| k == w).map(|&k| vec![k]),
    }
}

/// Runs one workload by its exact name.
pub fn run(workload: &str, seed: u64, seconds: f64, trace: bool) -> Option<Outcome> {
    let mut o = match workload {
        "fleet-small" => fleet::run(seed, seconds, trace),
        "hybrid-replan" => hybrid::run(seed, seconds, trace),
        "native-sort.w1t2" => native::run(seed, seconds, trace, native::W1T2),
        "native-sort.w2t1" => native::run(seed, seconds, trace, native::W2T1),
        _ => return None,
    };
    for (name, unit) in E2E_METRICS {
        // peak_rss_mb is the whole process's, added by the caller.
        let found = o.e2e.iter().any(|(k, v)| k == name && v.1 == unit);
        assert!(found || name == "peak_rss_mb", "{workload} lacks {name}");
    }
    if trace {
        for (name, unit) in LAYER_METRICS {
            if o.layers.get(name).is_none() {
                o.layers.set(name, 0.0, unit);
            }
        }
    }
    Some(o)
}

/// Builds the set-up [`SETUPS`] times, returning the last result and the
/// median wall time of one set-up in seconds, as measured. Callers report
/// it at nominal speed, scaled by the median factor of their timed passes
/// (see [`speed`]): one bracket around the set-ups would carry a single
/// reference run's noise.
pub fn repeat_setup<T>(mut f: impl FnMut() -> T) -> (T, f64) {
    let mut secs = Vec::new();
    let mut last = None;
    for _ in 0..SETUPS {
        drop(last.take());
        let t0 = Instant::now();
        last = Some(f());
        secs.push(t0.elapsed().as_secs_f64());
    }
    (last.expect("SETUPS >= 1"), stats::median(&secs))
}

/// A point in time a measuring loop runs until.
pub struct Deadline(Instant);

impl Deadline {
    pub fn after(seconds: f64) -> Self {
        Deadline(Instant::now() + Duration::from_secs_f64(seconds.max(0.0)))
    }

    pub fn passed(&self) -> bool {
        Instant::now() >= self.0
    }
}

/// Writes a traced pass's spans under `perfbench/traces/`, best effort: a
/// read-only checkout loses the file, not the run.
pub fn write_spans(tracer: &Tracer, workload: &str) {
    let path = Path::new("perfbench/traces").join(format!("{workload}.spans.tsv"));
    if let Err(e) = tracer.write_tsv(&path) {
        eprintln!("perfbench: could not write {}: {e}", path.display());
    }
}
