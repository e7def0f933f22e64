//! Native (real-thread) backend of the plan interpreter.
//!
//! This is the executor a downstream user runs on an actual multicore: the
//! same [`BfAlgorithm`] code, levels fork-joined on a [`LevelPool`],
//! wall-clock timed. Native runs execute the same way simulated ones do —
//! a host-only [`Plan`](hpu_model::Plan) fed to [`interpret_recover`] — with
//! [`NativeBackend`] as the substrate. The backend times every level
//! itself: each becomes a structured wall-clock span (µs) and a row of the
//! same per-level metrics the simulator produces, so native runs appear in
//! the same Chrome traces and CSV reports as simulated ones.
//! [`run_native`] returns just the duration; [`run_native_report`] returns
//! the spans and metrics too.

use std::sync::Arc;
use std::time::Duration;

use hpu_model::{Plan, ScheduleSpec, Transfer};
use hpu_obs::{
    EventKind, LevelBook, LevelMetrics, LevelPhase, Recorder, TraceEvent, Track, WallRecorder,
};

use crate::bf::{num_levels, BfAlgorithm, Element};
use crate::charge::NullCharge;
use crate::error::CoreError;
use crate::exec::backend::{interpret_recover, Backend, BandStats, LevelBand, Share, NO_RETRIES};
use crate::pool::LevelPool;

/// Wall-clock accounting of one native run.
#[derive(Debug)]
pub struct NativeReport {
    /// End-to-end wall-clock time.
    pub wall: Duration,
    /// Per-level metrics (bottom-up; times in µs of wall clock; ops/mem
    /// are zero — native runs don't charge abstract costs).
    pub levels: Vec<LevelMetrics>,
    /// The structured spans recorded during the run (µs since run start).
    pub trace: Vec<TraceEvent>,
}

/// Plan-interpreter backend over a real thread pool.
///
/// Executes CPU placements only: native machines in this codebase have no
/// device, so plans with GPU or split segments are rejected as malformed
/// rather than silently run on the host.
pub struct NativeBackend<'a, T: Element> {
    pool: LevelPool,
    data: &'a mut [T],
    scratch: Vec<T>,
    book: LevelBook,
    clock: WallRecorder,
    metrics: Option<Arc<hpu_obs::MetricsRegistry>>,
}

impl<'a, T: Element> NativeBackend<'a, T> {
    /// Creates a backend over `data`, fork-joining levels on `pool` and
    /// booking metrics into `book`. The wall clock starts now.
    pub fn new(pool: LevelPool, data: &'a mut [T], book: LevelBook) -> Self {
        let n = data.len();
        NativeBackend {
            pool,
            data,
            scratch: vec![T::default(); n],
            book,
            clock: WallRecorder::new(),
            metrics: None,
        }
    }

    /// Attaches a live metrics registry the interpreter samples
    /// per-segment wall timings (µs) into.
    pub fn with_metrics(mut self, metrics: Arc<hpu_obs::MetricsRegistry>) -> Self {
        self.metrics = Some(metrics);
        self
    }

    /// Consumes the backend and returns the filled metrics book and the
    /// level spans (µs since the backend was created).
    pub fn into_parts(self) -> (LevelBook, Vec<TraceEvent>) {
        (self.book, self.clock.into_events())
    }

    /// Wall-clock time since the backend was created.
    pub fn wall(&self) -> Duration {
        Duration::from_secs_f64(self.wall_us() * 1e-6)
    }

    /// Wall-clock µs since the backend was created (the backend's clock).
    fn wall_us(&self) -> f64 {
        self.clock.now_us()
    }
}

impl<T: Element, A: BfAlgorithm<T>> Backend<T, A> for NativeBackend<'_, T> {
    fn run_level_band(
        &mut self,
        algo: &A,
        band: &LevelBand,
        share: &Share,
    ) -> Result<BandStats, CoreError> {
        let Share::Cpu { .. } = share else {
            return Err(CoreError::MalformedPlan {
                reason: "the native backend executes CPU placements only",
            });
        };
        let n = self.data.len();
        let a = algo.branching();
        let base = algo.base_chunk();
        let pool = &self.pool;
        let mut src_is_data = true;
        let mut chunk = if band.first == 0 {
            let base_tasks = n.div_ceil(base) as u64;
            let data = &mut *self.data;
            let (s, e) = timed(
                &mut self.clock,
                EventKind::Level {
                    name: algo.name().to_string(),
                    phase: LevelPhase::Base,
                    chunk: base as u64,
                    tasks: base_tasks,
                    ops: 0,
                    mem: 0,
                },
                || pool.for_each_mut(data, base, |c| algo.base_case(c, &mut NullCharge)),
            );
            self.book.cpu(base as u64, base_tasks, 0, 0, s, e);
            base.saturating_mul(a)
        } else {
            base.saturating_mul(a.saturating_pow(band.first))
        };
        let top_chunk = base.saturating_mul(a.saturating_pow(band.last));
        while chunk <= top_chunk && chunk <= n {
            let (src, dst): (&[T], &mut [T]) = if src_is_data {
                (self.data, &mut self.scratch)
            } else {
                (&self.scratch, self.data)
            };
            let tasks = n.div_ceil(chunk) as u64;
            let (s, e) = timed(
                &mut self.clock,
                EventKind::Level {
                    name: algo.name().to_string(),
                    phase: LevelPhase::Combine,
                    chunk: chunk as u64,
                    tasks,
                    ops: 0,
                    mem: 0,
                },
                || pool.for_each_pair(src, dst, chunk, |s, d| algo.combine(s, d, &mut NullCharge)),
            );
            self.book.cpu(chunk as u64, tasks, 0, 0, s, e);
            src_is_data = !src_is_data;
            chunk = chunk.saturating_mul(a);
        }
        if !src_is_data {
            let (data, scratch) = (&mut *self.data, &self.scratch);
            let (s, e) = timed(
                &mut self.clock,
                EventKind::Level {
                    name: "copy back".to_string(),
                    phase: LevelPhase::CopyBack,
                    chunk: n as u64,
                    tasks: 1,
                    ops: 0,
                    mem: 0,
                },
                || data.copy_from_slice(scratch),
            );
            self.book.cpu(n as u64, 0, 0, 0, s, e);
        }
        Ok(BandStats::default())
    }

    fn transfer(&mut self, _algo: &A, _edge: &Transfer) -> Result<(), CoreError> {
        Err(CoreError::MalformedPlan {
            reason: "the native backend has no device to transfer to",
        })
    }

    fn sync(&mut self) {}

    fn now(&self) -> f64 {
        self.wall_us()
    }

    fn cpu_clock(&self) -> f64 {
        self.wall_us()
    }

    fn gpu_clock(&self) -> f64 {
        self.wall_us()
    }

    fn recorder(&mut self) -> &mut LevelBook {
        &mut self.book
    }

    fn wait(&mut self, dur: f64) {
        // Clock unit is microseconds of wall time.
        std::thread::sleep(std::time::Duration::from_micros(dur.max(0.0) as u64));
    }

    fn metrics(&self) -> Option<&hpu_obs::MetricsRegistry> {
        self.metrics.as_deref()
    }
}

/// Runs `algo` over `data` on real threads; returns the wall-clock time.
/// On success `data` holds the result.
pub fn run_native<T: Element, A: BfAlgorithm<T>>(
    algo: &A,
    data: &mut [T],
    pool: &LevelPool,
) -> Result<Duration, CoreError> {
    Ok(run_native_report(algo, data, pool)?.wall)
}

/// Runs `algo` over `data` on real threads with structured tracing: a
/// host-only plan is compiled for the pool's core count and interpreted on
/// a [`NativeBackend`], so every level becomes a wall-clock span and a row
/// of per-level metrics. On success `data` holds the result.
pub fn run_native_report<T: Element, A: BfAlgorithm<T>>(
    algo: &A,
    data: &mut [T],
    pool: &LevelPool,
) -> Result<NativeReport, CoreError> {
    let levels = num_levels(algo, data.len())?;
    let n = data.len();
    let plan = Plan::host_only(n as u64, levels, pool.threads(), ScheduleSpec::CpuParallel);
    let book = LevelBook::new(algo.base_chunk() as u64, algo.branching() as u64);
    let mut backend = NativeBackend::new(pool.clone(), data, book);
    interpret_recover(&plan, algo, &mut backend, &NO_RETRIES).0?;
    let wall = backend.wall();
    let (book, trace) = backend.into_parts();
    Ok(NativeReport {
        wall,
        levels: book.finish(),
        trace,
    })
}

/// Runs one level's `work` and records it on `clock` as a CPU span of
/// `kind`; returns the span's interval in µs of the clock.
fn timed(clock: &mut WallRecorder, kind: EventKind, work: impl FnOnce()) -> (f64, f64) {
    let start = clock.now_us();
    work();
    let end = clock.now_us();
    clock.record_event(Track::Cpu, start, end, kind);
    (start, end)
}
