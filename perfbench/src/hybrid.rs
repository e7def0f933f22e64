//! `hybrid-replan`: one HPU1 node driven event by event through
//! `NodeSim::submit/step/finish`, serving mergesort jobs of n = 2^12–2^18
//! (the regime where the paper's hybrid schedules win) under AdvancedAuto,
//! Basic, GpuOnly and CpuParallel. The closed calibration loop is on and
//! the scheduler's assumed γ is mis-set 2×, so drift replans bump the plan
//! cache generation and re-price the queue.
//!
//! Host time goes to the interpreter on large buffers and to the model
//! layer (AdvancedAuto compiles cost milliseconds); the plan cache takes
//! writes and invalidations rather than hits.

use std::sync::Arc;
use std::time::Instant;

use hpu_machine::{MachineConfig, SimMachineParams};
use hpu_model::{CalibratorConfig, MachineParams, ScheduleSpec};
use hpu_obs::MetricsRegistry;
use hpu_serve::{JobRequest, NodeSim, ServeConfig};

use crate::job::{Algo, JobSpec, Outbox};
use crate::out::{set_latencies, Metrics, Outcome};
use crate::rng::Rng;
use crate::sim::{self, achieved_rate, arrivals, pct_line, SimRun};
use crate::stats::{median, percentile};
use crate::trace::Tracer;
use crate::{repeat_setup, speed, Deadline};

/// Job sizes, as powers of two.
const LOG_SIZES: std::ops::Range<u32> = 12..19;
/// Jobs per pass: 4 blocks of the 28 shapes.
pub const JOBS: usize = 112;
/// Arrival orders of the same jobs, served in turn. vt metrics pool all
/// of them (448 latencies), which keeps the nearest-rank p50 and p90 from
/// jumping between the few service times around them from seed to seed;
/// a run serves every order at least once.
const ORDERS: usize = 4;
/// The load unit (vt): the mix's mean solo latency as measured when the
/// benchmark was defined, fixed for the reason given at
/// [`crate::fleet::LOAD_UNIT_VT`]. GpuOnly solo runs dominate it today.
pub const LOAD_UNIT_VT: f64 = 18_784_350.0;
/// Offered load of the timed passes, in jobs per load unit.
pub const OPERATING_RATE: f64 = 4.0;

pub const SPECS: [ScheduleSpec; 4] = [
    ScheduleSpec::AdvancedAuto,
    ScheduleSpec::Basic { crossover: None },
    ScheduleSpec::GpuOnly,
    ScheduleSpec::CpuParallel,
];

/// The machine the scheduler believes it serves: HPU1 with γ doubled.
pub fn assumed() -> MachineParams {
    let mut p = MachineParams::from_config(&MachineConfig::hpu1_sim());
    p.gamma *= 2.0;
    p
}

pub fn config(metrics: Option<Arc<MetricsRegistry>>) -> ServeConfig {
    ServeConfig {
        queue_capacity: JOBS,
        assumed: Some(assumed()),
        calibration: Some(CalibratorConfig::default()),
        metrics,
        ..ServeConfig::default()
    }
}

/// The seed's jobs plus [`ORDERS`] arrival orders of them.
pub struct Setup {
    pub jobs: Vec<JobSpec>,
    /// Per order: a permutation of `jobs` and its unit-mean gaps.
    orders: Vec<(Vec<usize>, Vec<f64>)>,
    /// Mean solo latency of the mix (vt), as the program now serves it.
    pub solo_mean: f64,
}

impl Setup {
    fn view(&self, k: usize) -> (Vec<&JobSpec>, &[f64]) {
        let (perm, gaps) = &self.orders[k % ORDERS];
        (perm.iter().map(|&i| &self.jobs[i]).collect(), gaps)
    }
}

/// The job stream of `seed`: every (size, schedule) shape equally often,
/// in seeded order, with seeded keys and gaps.
pub fn stream(seed: u64, jobs: usize) -> (Vec<JobSpec>, Vec<f64>) {
    let mut root = Rng::new(seed);
    let mut shapes = Vec::new();
    for log in LOG_SIZES {
        for spec in &SPECS {
            shapes.push((1usize << log, spec.clone()));
        }
    }
    let order = root.fork(11).blocks(&shapes, jobs);
    let mut data = root.fork(12);
    let specs = order
        .into_iter()
        .map(|(n, spec)| JobSpec::generate(Algo::Sort, n, spec, &mut data))
        .collect();
    (specs, root.fork(13).exp_gaps(jobs))
}

/// Serves `jobs` arriving at `at` on one node, one `step` at a time.
pub fn serve(
    jobs: &[&JobSpec],
    at: &[f64],
    traced: Option<(&Arc<Tracer>, &Arc<MetricsRegistry>)>,
) -> SimRun {
    let outbox = Arc::new(Outbox::default());
    let tracer = traced.map(|t| t.0);
    let reqs: Vec<JobRequest> = jobs
        .iter()
        .zip(at)
        .enumerate()
        .map(|(i, (j, &t))| {
            JobRequest::new(
                j.name(i),
                j.spec.clone(),
                t,
                j.checked(i as u64, &outbox, tracer),
            )
        })
        .collect();
    let machine = MachineConfig::hpu1_sim();
    let cfg = config(traced.map(|t| Arc::clone(t.1)));
    let t0 = Instant::now();
    let out = match tracer {
        None => {
            let mut node = NodeSim::new(&machine, &cfg);
            for (i, r) in reqs.into_iter().enumerate() {
                node.submit(i as u64, r);
            }
            while node.step().is_some() {}
            node.finish()
        }
        Some(t) => {
            let mut node = t.scope("new", None, || NodeSim::new(&machine, &cfg));
            for (i, r) in reqs.into_iter().enumerate() {
                t.scope("submit", Some(i as u64), || node.submit(i as u64, r));
            }
            while t.scope("step", None, || node.step()).is_some() {}
            t.scope("finish", None, || node.finish())
        }
    };
    let host_s = t0.elapsed().as_secs_f64();
    let expect: Vec<_> = jobs.iter().map(|j| j.expect).collect();
    SimRun {
        host_s,
        nodes: vec![out],
        fleet: None,
        ok: outbox.verify(&expect),
    }
}

fn setup(seed: u64) -> Setup {
    let (jobs, gaps) = stream(seed, JOBS);
    let view: Vec<&JobSpec> = jobs.iter().collect();
    let solo_mean = sim::mix_mean_solo(&view, |j| {
        let run = serve(&[j], &[0.0], None);
        run.latencies()
            .first()
            .copied()
            .expect("a lone job completes")
    });
    let warm = JOBS / 8;
    serve(
        &view[..warm],
        &arrivals(&gaps[..warm], LOAD_UNIT_VT, OPERATING_RATE),
        None,
    );
    // Further orders re-shuffle within each block of the stratified order.
    let mut rng = Rng::new(seed).fork(14);
    let mut orders = vec![((0..JOBS).collect::<Vec<usize>>(), gaps)];
    for _ in 1..ORDERS {
        let mut perm: Vec<usize> = (0..JOBS).collect();
        for block in perm.chunks_mut(SPECS.len() * LOG_SIZES.len()) {
            rng.shuffle(block);
        }
        orders.push((perm, rng.exp_gaps(JOBS)));
    }
    Setup {
        jobs,
        orders,
        solo_mean,
    }
}

pub fn run(seed: u64, seconds: f64, trace: bool) -> Outcome {
    let (s, setup_raw_s) = repeat_setup(|| setup(seed));
    let mut o = Outcome::default();
    let unit = LOAD_UNIT_VT;
    let offered: Vec<f64> = (0..ORDERS)
        .map(|k| achieved_rate(&arrivals(s.view(k).1, unit, OPERATING_RATE), unit))
        .collect();
    o.line(format!(
        "hybrid-replan: {JOBS} jobs/pass in {ORDERS} arrival orders, \
         load unit {unit:.1} vt (fixed; mix mean solo now {:.1} vt), \
         offered {OPERATING_RATE} / achieved {:.3} jobs per unit",
        s.solo_mean,
        crate::stats::mean(&offered)
    ));
    let mut correct = true;
    let mut host_ms = Vec::new();
    let mut runs: Vec<SimRun> = Vec::new();
    let mut raw_ms = Vec::new();
    let mut scales = Vec::new();
    let deadline = Deadline::after(if trace { seconds * 0.5 } else { seconds });
    for k in 0.. {
        let (jobs, gaps) = s.view(k);
        let at = arrivals(gaps, unit, OPERATING_RATE);
        let (run, scale) = speed::bracket(1, || serve(&jobs, &at, None));
        o.attempted += JOBS as u64;
        o.failed += run.lost() + run.wrong();
        correct &= run.wrong() == 0;
        raw_ms.push(run.host_s * 1e3 / JOBS as f64);
        scales.push(scale);
        host_ms.push(run.host_s * 1e3 / JOBS as f64 * scale);
        // vt is deterministic: a repeated order must repeat its schedule.
        match runs.get(k % ORDERS) {
            Some(first) => correct &= first.schedule() == run.schedule(),
            None => runs.push(run),
        }
        if deadline.passed() && k + 1 >= ORDERS {
            break;
        }
    }
    let lat: Vec<f64> = runs.iter().flat_map(|r| r.latencies()).collect();
    let p50 = percentile(&lat, 50.0);
    let p90 = percentile(&lat, 90.0);
    let host = median(&host_ms);
    o.line(pct_line("vt_latency_p50", p50, unit));
    o.line(pct_line("vt_latency_p90", p90, unit));
    o.line(sim::host_line(&host_ms, &raw_ms));
    o.line(format!(
        "  first order: replans {} (cache generation bumps), fallbacks {}",
        runs[0].nodes[0].replans,
        runs[0].completed().iter().filter(|r| r.fallback).count()
    ));

    let mut e = Metrics::default();
    e.set("setup_s", setup_raw_s * median(&scales), "s");
    e.set("host_ms_per_job", host, "ms");
    correct &= set_latencies(&mut e, p50, p90, unit);
    o.e2e = e;

    if trace {
        let (tracer, registry) = sim::traced();
        let (jobs, gaps) = s.view(0);
        let at = arrivals(gaps, unit, OPERATING_RATE);
        let (run, scale) = speed::bracket(1, || serve(&jobs, &at, Some((&tracer, &registry))));
        correct &= run.wrong() == 0 && run.schedule() == runs[0].schedule();
        let mut m = Metrics::default();
        sim::layers(
            &mut m,
            &run,
            &jobs,
            &tracer,
            &registry,
            &["new", "submit", "step", "finish"],
            &assumed(),
            &SPECS,
        );
        m.set(
            "obs.trace_overhead",
            run.host_s * scale / (host * 1e-3 * JOBS as f64) - 1.0,
            "ratio",
        );
        crate::write_spans(&tracer, "hybrid-replan");
        o.layers = m;
    }
    o.correct = correct;
    o
}
