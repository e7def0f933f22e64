//! `native-sort`: `serve_native` at saturation — every job arrives at
//! t = 0 into a queue that holds them all — over mergesort jobs with n
//! cycling 2^12–2^20, in two pass configurations over the same stream:
//! `w1t2` (1 worker × a 2-thread `LevelPool`, so the pool does all the
//! work) and `w2t1` (2 workers × 1 thread, so the pool takes its inline
//! path). A pool change must move one and leave the other.

use std::sync::Arc;
use std::time::Instant;

use hpu_algos::MergeSort;
use hpu_core::exec::run_native_report;
use hpu_core::LevelPool;
use hpu_model::ScheduleSpec;
use hpu_obs::JobOutcome;
use hpu_serve::{serve_native, NativeJobRequest, NativeServeOutput, ServeConfig};

use crate::job::{Algo, Input, JobSpec, Outbox};
use crate::out::{set_latencies, Metrics, Outcome};
use crate::rng::Rng;
use crate::stats::{median, percentile, ratio};
use crate::trace::{self, Tracer};
use crate::{repeat_setup, speed, Deadline};

/// Jobs per pass: three cycles through the nine sizes.
pub const JOBS: usize = 27;
/// Pooled latency samples needed before a run may stop: enough for a
/// nearest-rank p90 with 10 samples beyond it.
const MIN_SAMPLES: usize = 100;
const SIZES: u32 = 9;

/// A pass configuration: workers × threads per worker.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Pass {
    pub name: &'static str,
    pub workers: usize,
    pub threads: usize,
}

pub const W1T2: Pass = Pass {
    name: "w1t2",
    workers: 1,
    threads: 2,
};
pub const W2T1: Pass = Pass {
    name: "w2t1",
    workers: 2,
    threads: 1,
};

pub fn stream(seed: u64) -> Vec<JobSpec> {
    let mut data = Rng::new(seed).fork(21);
    (0..JOBS)
        .map(|i| {
            let n = 1usize << (12 + i as u32 % SIZES);
            JobSpec::generate(Algo::Sort, n, ScheduleSpec::CpuParallel, &mut data)
        })
        .collect()
}

/// One served pass and its wall time.
pub struct NativeRun {
    pub wall_s: f64,
    pub out: NativeServeOutput,
    pub ok: Vec<bool>,
}

impl NativeRun {
    pub fn completed(&self) -> usize {
        self.out.report.completed
    }

    pub fn lost(&self) -> u64 {
        (self.out.report.jobs.len() - self.completed()) as u64
    }

    pub fn wrong(&self) -> u64 {
        self.out
            .report
            .jobs
            .iter()
            .filter(|r| r.outcome == JobOutcome::Completed && !self.ok[r.id as usize])
            .count() as u64
    }

    /// Completed-job latencies in multiples of the pass's mean service
    /// time (the time a job spends running once dispatched): at
    /// saturation this is the queueing the dispatch order imposes.
    pub fn latencies_x_service(&self) -> Vec<f64> {
        let done: Vec<_> = self
            .out
            .report
            .jobs
            .iter()
            .filter(|r| r.outcome == JobOutcome::Completed)
            .collect();
        let service = done.iter().map(|r| r.end - r.start).sum::<f64>() / done.len().max(1) as f64;
        done.iter().map(|r| ratio(r.latency(), service)).collect()
    }
}

pub fn serve(jobs: &[JobSpec], pass: Pass, tracer: Option<&Arc<Tracer>>) -> NativeRun {
    let outbox = Arc::new(Outbox::default());
    let reqs: Vec<NativeJobRequest> = jobs
        .iter()
        .enumerate()
        .map(|(i, j)| NativeJobRequest::new(j.name(i), 0, j.checked(i as u64, &outbox, tracer)))
        .collect();
    let cfg = ServeConfig {
        queue_capacity: jobs.len(),
        ..ServeConfig::default()
    };
    let t0 = Instant::now();
    let out = match tracer {
        Some(t) => t.scope("serve_native", None, || {
            serve_native(&cfg, pass.workers, pass.threads, reqs)
        }),
        None => serve_native(&cfg, pass.workers, pass.threads, reqs),
    };
    let wall_s = t0.elapsed().as_secs_f64();
    let expect: Vec<_> = jobs.iter().map(|j| j.expect).collect();
    NativeRun {
        wall_s,
        out,
        ok: outbox.verify(&expect),
    }
}

/// Inputs, plus a warm-up pass over the smallest sizes.
fn setup(seed: u64, pass: Pass) -> Vec<JobSpec> {
    let jobs = stream(seed);
    serve(&jobs[..5], pass, None);
    jobs
}

/// Median wall ms of `f` over three calls.
fn median_ms(mut f: impl FnMut()) -> f64 {
    let v: Vec<f64> = (0..3)
        .map(|_| {
            let t0 = Instant::now();
            f();
            t0.elapsed().as_secs_f64() * 1e3
        })
        .collect();
    median(&v)
}

/// The stream's keys of size `n` (every size of the cycle occurs).
fn keys_of(jobs: &[JobSpec], n: usize) -> Vec<u32> {
    match jobs.iter().find(|j| j.n == n).map(|j| &j.input) {
        Some(Input::Sort(v)) => v.clone(),
        _ => panic!("the stream has no sort job of size {n}"),
    }
}

/// Standalone core-layer rows: native runs per size, the pool's levels,
/// its 2-thread speed-up and its standing against `sort_unstable`.
fn core_rows(m: &mut Metrics, jobs: &[JobSpec], pass: Pass) {
    let algo = MergeSort::new();
    let pool = LevelPool::new(pass.threads);
    for log in [12, 16, 20] {
        let keys = keys_of(jobs, 1 << log);
        let ms = median_ms(|| {
            let mut d = keys.clone();
            run_native_report(&algo, &mut d, &pool).expect("valid size");
        });
        m.set(format!("core.native_run_ms.n{log}"), ms, "ms");
    }
    let keys = keys_of(jobs, 1 << 20);
    let mut d = keys.clone();
    let report = run_native_report(&algo, &mut d, &pool).expect("valid size");
    let level_us = |small: bool| {
        let v: Vec<f64> = report
            .levels
            .iter()
            .filter(|l| {
                if small {
                    l.chunk <= 1 << 10
                } else {
                    l.chunk >= 1 << 16
                }
            })
            .map(|l| l.time)
            .collect();
        median(&v)
    };
    m.set("core.pool_level_us.small", level_us(true), "us");
    m.set("core.pool_level_us.large", level_us(false), "us");
    let run_on = |threads: usize| {
        let pool = LevelPool::new(threads);
        median_ms(|| {
            let mut d = keys.clone();
            run_native_report(&algo, &mut d, &pool).expect("valid size");
        })
    };
    let (t1, t2) = (run_on(1), run_on(2));
    m.set("core.pool_speedup_2t.n20", t1 / t2, "ratio");
    let std_ms = median_ms(|| {
        let mut d = keys.clone();
        d.sort_unstable();
        std::hint::black_box(&d);
    });
    m.set("core.vs_std_sort.n20", std_ms / t2, "ratio");
}

/// Runs the named pass configurations of `native-sort`.
pub fn run(seed: u64, seconds: f64, trace: bool, pass: Pass) -> Outcome {
    let (jobs, setup_raw_s) = repeat_setup(|| setup(seed, pass));
    let mut o = Outcome::default();
    o.line(format!(
        "native-sort.{}: {JOBS} jobs/pass at saturation, {} worker(s) x {}-thread pool",
        pass.name, pass.workers, pass.threads
    ));
    let deadline = Deadline::after(if trace { seconds * 0.5 } else { seconds });
    let mut correct = true;
    let mut ms_per_job = Vec::new();
    let mut lat = Vec::new();
    let mut raw_ms = Vec::new();
    let mut scales = Vec::new();
    loop {
        let (run, scale) = speed::bracket(pass.workers * pass.threads, || serve(&jobs, pass, None));
        o.attempted += JOBS as u64;
        o.failed += run.lost() + run.wrong();
        correct &= run.wrong() == 0;
        raw_ms.push(run.wall_s * 1e3 / JOBS as f64);
        scales.push(scale);
        ms_per_job.push(run.wall_s * 1e3 / JOBS as f64 * scale);
        lat.extend(run.latencies_x_service());
        if deadline.passed() && lat.len() >= MIN_SAMPLES {
            break;
        }
    }
    let host = median(&ms_per_job);
    let p50 = percentile(&lat, 50.0);
    let p90 = percentile(&lat, 90.0);
    let line = |name: &str, p: Option<crate::stats::Pct>| match p {
        Some(p) => format!(
            "{name:<28} {:>14.3} x mean service  (n={})",
            p.value, p.samples
        ),
        None => format!("{name:<28} {:>14}", "-"),
    };
    o.line(format!(
        "{:<28} {:>14.3} jobs/s at nominal speed ({:.3} as measured, {} passes)",
        format!("native_jobs_per_s.{}", pass.name),
        1e3 / host,
        1e3 / median(&raw_ms),
        ms_per_job.len()
    ));
    o.line(line("wall_latency_p50", p50));
    o.line(line("wall_latency_p90", p90));

    let mut e = Metrics::default();
    e.set("setup_s", setup_raw_s * median(&scales), "s");
    e.set("host_ms_per_job", host, "ms");
    correct &= set_latencies(&mut e, p50, p90, 1.0);
    o.e2e = e;

    if trace {
        let tracer = Arc::new(Tracer::default());
        let (run, scale) = speed::bracket(pass.workers * pass.threads, || {
            serve(&jobs, pass, Some(&tracer))
        });
        correct &= run.wrong() == 0;
        let spans = tracer.spans();
        let mut m = Metrics::default();
        let done = run.completed() as f64;
        let (q1, q4) = trace::quarter_self_us(&spans, &["serve_native"], JOBS);
        m.set("serve.self_us_per_job.q1", q1, "us");
        m.set("serve.self_us_per_job.q4", q4, "us");
        let runs: u64 = spans
            .iter()
            .filter(|s| s.name == "run_native")
            .map(|s| s.dur_ns())
            .sum();
        let n_runs = spans.iter().filter(|s| s.name == "run_native").count();
        m.set(
            "serve.runs_per_completed",
            ratio(n_runs as f64, done),
            "ratio",
        );
        let busy = ratio(runs as f64, pass.workers as f64 * run.wall_s * 1e9);
        m.set("serve.native_busy_frac", busy, "ratio");
        core_rows(&mut m, &jobs, pass);
        m.set(
            "obs.trace_overhead",
            run.wall_s * scale / (host * 1e-3 * JOBS as f64) - 1.0,
            "ratio",
        );
        crate::write_spans(&tracer, &format!("native-sort.{}", pass.name));
        o.layers = m;
    }
    o.correct = correct;
    o
}
