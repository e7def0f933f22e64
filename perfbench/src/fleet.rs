//! `fleet-small`: a long open-loop Poisson stream of small mergesort and
//! dc-sum jobs over a 4-node heterogeneous fleet (2×HPU1, 2×HPU2) with the
//! default router and stealing, calibration off.
//!
//! Plan acquisition is almost all `PlanCache` hits here, so host time
//! splits between the interpreter on tiny buffers and scheduler/router
//! bookkeeping; routing and placement changes show in vt latency.

use std::sync::Arc;
use std::time::Instant;

use hpu_fleet::{fleet_sim, FleetConfig, FleetJobRequest, NodeSpec};
use hpu_machine::{MachineConfig, SimMachineParams};
use hpu_model::{MachineParams, ScheduleSpec};
use hpu_obs::MetricsRegistry;
use hpu_serve::ServeConfig;

use crate::job::{Algo, JobSpec, Outbox};
use crate::out::{set_latencies, Metrics, Outcome};
use crate::rng::Rng;
use crate::sim::{self, achieved_rate, arrivals, pct_line, SimRun};
use crate::stats::{median, percentile};
use crate::trace::Tracer;
use crate::{repeat_setup, speed, Deadline};

/// Jobs per pass (125 blocks of the 24 shapes): enough for a nearest-rank
/// p99 with 10+ samples beyond it, and long enough for bookkeeping that
/// grows with the run to show.
pub const JOBS: usize = 3000;
/// Per-node admission queue.
const QUEUE: usize = 64;
/// The load unit (vt): the mix's mean solo latency on an idle fleet as
/// measured when the benchmark was defined. It is fixed rather than
/// re-measured because it sets both the arrival rate and the divisor of
/// the gated latencies: a program change that shortened solo times would
/// otherwise densify the arrivals and shrink the divisor, and read as a
/// latency regression. Runs print the live mix mean beside it.
pub const LOAD_UNIT_VT: f64 = 86_350.0;
/// Offered load of the timed passes, in jobs per load unit.
pub const OPERATING_RATE: f64 = 16.0;
/// Jobs per ladder rung: the stream's prefix, still enough for a p99.
const LADDER_JOBS: usize = 1500;
/// Offered loads probed for `vt_max_rate`, underload to past saturation.
pub const LADDER: [f64; 7] = [8.0, 16.0, 32.0, 48.0, 64.0, 96.0, 128.0];

pub const SPECS: [ScheduleSpec; 3] = [
    ScheduleSpec::Basic { crossover: Some(4) },
    ScheduleSpec::GpuOnly,
    ScheduleSpec::CpuParallel,
];

/// Inputs and unit-mean arrival gaps of one seed.
pub struct Setup {
    pub jobs: Vec<JobSpec>,
    gaps: Vec<f64>,
    /// Mean solo latency of the mix on an idle fleet (vt), as the program
    /// now serves it.
    pub solo_mean: f64,
}

pub fn config(oracle: bool, metrics: Option<Arc<MetricsRegistry>>) -> FleetConfig {
    let nodes = (0..4)
        .map(|i| {
            let (tag, machine) = if i % 2 == 0 {
                ("hpu1", MachineConfig::hpu1_sim())
            } else {
                ("hpu2", MachineConfig::hpu2_sim())
            };
            let serve = ServeConfig {
                queue_capacity: QUEUE,
                metrics: metrics.clone(),
                ..ServeConfig::default()
            };
            NodeSpec::new(format!("n{i}-{tag}"), machine).with_serve(serve)
        })
        .collect();
    let mut cfg = FleetConfig::new(nodes);
    cfg.oracle = oracle;
    cfg.metrics = metrics;
    cfg
}

/// The job stream of `seed`: every (algorithm, size, schedule) shape
/// equally often, in seeded order, with seeded keys and gaps.
pub fn stream(seed: u64, jobs: usize) -> (Vec<JobSpec>, Vec<f64>) {
    let mut root = Rng::new(seed);
    let mut shapes = Vec::new();
    for algo in [Algo::Sort, Algo::Sum] {
        for log in 8..12 {
            for spec in &SPECS {
                shapes.push((algo, 1usize << log, spec.clone()));
            }
        }
    }
    let order = root.fork(1).blocks(&shapes, jobs);
    let mut data = root.fork(2);
    let specs = order
        .into_iter()
        .map(|(algo, n, spec)| JobSpec::generate(algo, n, spec, &mut data))
        .collect();
    (specs, root.fork(3).exp_gaps(jobs))
}

/// Serves `jobs` arriving at `at` through one `fleet_sim` call.
pub fn serve(
    jobs: &[&JobSpec],
    at: &[f64],
    oracle: bool,
    traced: Option<(&Arc<Tracer>, &Arc<MetricsRegistry>)>,
) -> SimRun {
    let outbox = Arc::new(Outbox::default());
    let tracer = traced.map(|t| t.0);
    let reqs: Vec<FleetJobRequest> = jobs
        .iter()
        .zip(at)
        .enumerate()
        .map(|(i, (j, &t))| {
            FleetJobRequest::new(
                j.name(i),
                j.spec.clone(),
                t,
                j.checked(i as u64, &outbox, tracer),
            )
        })
        .collect();
    let cfg = config(oracle, traced.map(|t| Arc::clone(t.1)));
    let t0 = Instant::now();
    let out = match tracer {
        Some(t) => t.scope("fleet_sim", None, || fleet_sim(&cfg, reqs)),
        None => fleet_sim(&cfg, reqs),
    };
    let host_s = t0.elapsed().as_secs_f64();
    let expect: Vec<_> = jobs.iter().map(|j| j.expect).collect();
    SimRun {
        host_s,
        nodes: out.nodes,
        fleet: Some(out.report),
        ok: outbox.verify(&expect),
    }
}

fn setup(seed: u64) -> Setup {
    let (jobs, gaps) = stream(seed, JOBS);
    let view: Vec<&JobSpec> = jobs.iter().collect();
    let solo_mean = sim::mix_mean_solo(&view, |j| {
        let run = serve(&[j], &[0.0], false, None);
        run.latencies()
            .first()
            .copied()
            .expect("a lone job completes")
    });
    // Warm-up: a short pass at the operating rate.
    let warm = JOBS / 8;
    let at = arrivals(&gaps[..warm], LOAD_UNIT_VT, OPERATING_RATE);
    serve(&view[..warm], &at, false, None);
    Setup {
        jobs,
        gaps,
        solo_mean,
    }
}

pub fn run(seed: u64, seconds: f64, trace: bool) -> Outcome {
    let (s, setup_raw_s) = repeat_setup(|| setup(seed));
    let mut o = Outcome::default();
    let unit = LOAD_UNIT_VT;
    let at = arrivals(&s.gaps, unit, OPERATING_RATE);
    let jobs: Vec<&JobSpec> = s.jobs.iter().collect();
    o.line(format!(
        "fleet-small: {JOBS} jobs/pass, load unit {unit:.1} vt (fixed; mix mean solo \
         now {:.1} vt), offered {OPERATING_RATE} / achieved {:.3} jobs per unit",
        s.solo_mean,
        achieved_rate(&at, unit)
    ));
    let deadline = Deadline::after(if trace { seconds * 0.5 } else { seconds });
    let mut correct = true;

    // The load ladder, once: vt is deterministic per seed, so one pass
    // per rung decides it.
    let mut max_rate = 0.0f64;
    let mut rungs = Vec::new();
    for rate in LADDER {
        let at = arrivals(&s.gaps[..LADDER_JOBS], unit, rate);
        let run = serve(&jobs[..LADDER_JOBS], &at, false, None);
        correct &= run.wrong() == 0;
        let ok = run.meets_limits(unit);
        if ok {
            max_rate = rate;
        }
        rungs.push(format!("{rate}{}", if ok { "" } else { "x" }));
    }
    o.line(format!(
        "  ladder (x = misses a limit): {}",
        rungs.join(" ")
    ));

    // Timed passes at the operating rate; every repeat must reproduce the
    // first pass's schedule exactly.
    let mut host_ms = Vec::new();
    let mut first: Option<SimRun> = None;
    let mut raw_ms = Vec::new();
    let mut scales = Vec::new();
    loop {
        let (run, scale) = speed::bracket(1, || serve(&jobs, &at, false, None));
        o.attempted += JOBS as u64;
        o.failed += run.lost() + run.wrong();
        correct &= run.wrong() == 0;
        raw_ms.push(run.host_s * 1e3 / JOBS as f64);
        scales.push(scale);
        host_ms.push(run.host_s * 1e3 / JOBS as f64 * scale);
        match &first {
            None => first = Some(run),
            Some(f) => correct &= f.schedule() == run.schedule(),
        }
        if deadline.passed() && host_ms.len() >= 3 {
            break;
        }
    }
    let base = first.expect("at least one pass ran");
    let lat = base.latencies();
    let p50 = percentile(&lat, 50.0);
    let p99 = percentile(&lat, 99.0);
    let host = median(&host_ms);
    o.line(pct_line("vt_latency_p50", p50, unit));
    o.line(pct_line("vt_latency_p99", p99, unit));
    o.line(format!(
        "{:<28} {max_rate:>14} jobs per load unit",
        "vt_max_rate"
    ));
    o.line(sim::host_line(&host_ms, &raw_ms));

    let mut e = Metrics::default();
    e.set("setup_s", setup_raw_s * median(&scales), "s");
    e.set("host_ms_per_job", host, "ms");
    correct &= set_latencies(&mut e, p50, p99, unit);
    o.e2e = e;

    if trace {
        let (tracer, registry) = sim::traced();
        let (run, scale) =
            speed::bracket(1, || serve(&jobs, &at, false, Some((&tracer, &registry))));
        correct &= run.wrong() == 0 && run.schedule() == base.schedule();
        let params = MachineParams::from_config(&MachineConfig::hpu1_sim());
        let mut m = Metrics::default();
        sim::layers(
            &mut m,
            &run,
            &jobs,
            &tracer,
            &registry,
            &["fleet_sim"],
            &params,
            &SPECS,
        );
        m.set(
            "obs.trace_overhead",
            run.host_s * scale / (host * 1e-3 * JOBS as f64) - 1.0,
            "ratio",
        );
        // Routing quality needs the oracle, which only this pass runs.
        let oracle = serve(&jobs, &at, true, None);
        let quality = oracle.fleet.as_ref().map_or(0.0, |f| f.routing_quality);
        m.set("fleet.routing_quality", quality, "ratio");
        m.set("fleet.vt_max_rate", max_rate, "jobs/unit");
        crate::write_spans(&tracer, "fleet-small");
        o.layers = m;
    }
    o.correct = correct;
    o
}
