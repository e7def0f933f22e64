//! The simulated-time multi-job scheduler.
//!
//! [`serve_sim`] runs a fleet of D&C jobs over **one** shared simulated
//! machine. Each job is compiled to a [`Plan`] at admission, priced with
//! [`plan_cost`], and solo-executed on a private virtual clock to measure
//! its exact per-segment device demands; dispatch then replays those
//! demands through the [`DeviceArbiter`]'s reservation calendars in fleet
//! virtual time. The GPU is an exclusive lease, so GPU segments of
//! different jobs serialize while their CPU segments overlap; the CPU pool
//! partitions by core count (see [`ServeConfig::cores_per_job`]).
//!
//! Scheduling is event-driven and fully deterministic: events are job
//! arrivals and reservation releases, and at each event the dispatcher
//! offers resources to queued jobs in [`Policy`] order. Backpressure is a
//! bounded queue ([`ServeError::QueueFull`]); deadlines cancel jobs whose
//! projected completion falls past them ([`ServeError::Cancelled`] — the
//! projection only ever tightens as reservations accumulate, so an early
//! cancel is never wrong). When the GPU lease is contended, a job with a
//! compiled CPU-only fallback takes it instead of waiting, if that
//! finishes sooner.
//!
//! # Closed-loop calibration
//!
//! With [`ServeConfig::calibration`] set, the scheduler closes the loop
//! between prediction and observation: each completed job's measured
//! CPU/GPU/bus times are folded into a [`Calibrator`] **at the job's
//! completion time** (evidence never arrives early), and when a completed
//! job's relative drift exceeds the configured threshold, every
//! still-queued job is re-priced and re-compiled under the corrected
//! parameters — admission cost, `ShortestCost` ordering, and the plan's
//! crossover levels all improve as evidence accumulates. Pricing can start
//! from deliberately wrong numbers via [`ServeConfig::assumed`].
//! Everything stays deterministic: observations drain in completion order
//! at event boundaries.
//!
//! # Driving a node one event at a time
//!
//! [`serve_sim`] is a thin wrapper over [`NodeSim`], the resumable form
//! of the same scheduler: construct one, [`NodeSim::submit`] jobs (before
//! or between events), [`NodeSim::step`] single events, and
//! [`NodeSim::finish`] for the [`ServeOutput`]. A fleet layer
//! (`hpu-fleet`) interleaves many nodes in one global virtual time by
//! always stepping the node with the earliest
//! [`NodeSim::next_event_time`], and migrates queued jobs between nodes
//! with [`NodeSim::steal`] / [`NodeSim::inject`] at event boundaries —
//! the stolen job is re-priced from scratch under the receiving node's
//! beliefs and plan cache.
//!
//! # Layout
//!
//! This module holds the [`NodeSim`] event loop, its fleet-facing
//! surface and the state the submodules share; `config` has the public
//! configuration and result types, `admit` admission, pricing and
//! replanning, `dispatch` the per-event dispatch round, and `batch`
//! cross-job coalescing.

mod admit;
mod batch;
mod config;
mod dispatch;

use std::cmp::Reverse;
use std::collections::BinaryHeap;
use std::sync::{Arc, Mutex, PoisonError};

use hpu_core::exec::{Checkpoint, RecoveryPolicy, RunReport};
use hpu_machine::{FaultInjector, MachineConfig, SimMachineParams};
use hpu_model::{Calibrator, MachineParams, Observation, Plan, PlanCache, ScheduleSpec};
use hpu_obs::{JobOutcome, JobRecord, ServeReport, SpanSet};

use crate::arbiter::{DeviceArbiter, EPS};
use crate::error::ServeError;
use crate::queue::{dispatch_order, Rank};

pub use config::{
    BatchPolicy, BatchRecord, CheckpointPolicy, CrashReport, FaultConfig, JobRequest, JobRun,
    QueuedShape, ServeConfig, ServeOutput, StolenJob,
};

/// Live fault-handling state of one serving run.
struct FaultState {
    injector: Arc<Mutex<FaultInjector>>,
    recovery: RecoveryPolicy,
    breaker_threshold: u32,
    consecutive: u32,
    open: bool,
    trips: u64,
    /// A trip happened since the event loop last degraded the queue.
    pending_trip: bool,
}

impl FaultState {
    fn new(cfg: &FaultConfig) -> Self {
        FaultState {
            injector: FaultInjector::shared(cfg.plan.clone()),
            recovery: cfg.recovery,
            breaker_threshold: cfg.breaker_threshold.max(1),
            consecutive: 0,
            open: false,
            trips: 0,
            pending_trip: false,
        }
    }

    /// Folds the outcome of one GPU-using solo execution into the
    /// breaker: failures count consecutively, success resets, device
    /// loss trips immediately.
    fn on_gpu_result(&mut self, failed: bool, lost: bool) {
        if !failed {
            self.consecutive = 0;
            return;
        }
        self.consecutive += 1;
        if (lost || self.consecutive >= self.breaker_threshold) && !self.open {
            self.open = true;
            self.trips += 1;
            self.pending_trip = true;
        }
    }
}

/// Where one plan segment runs, from the arbiter's point of view.
#[derive(Debug, Clone, Copy)]
enum SegKind {
    Cpu { cores: usize },
    Gpu,
    Split { cores: usize },
}

/// Measured device demand of one plan segment.
#[derive(Debug, Clone, Copy)]
struct SegDemand {
    kind: SegKind,
    cpu: f64,
    gpu: f64,
}

impl SegDemand {
    fn len(&self) -> f64 {
        match self.kind {
            SegKind::Cpu { .. } => self.cpu,
            SegKind::Gpu => self.gpu,
            SegKind::Split { .. } => self.cpu.max(self.gpu),
        }
    }
}

/// One executable shape of a job: a plan's measured demands plus its
/// predicted cost, the solo run's report, and the predicted-vs-observed
/// per-unit evidence for the calibration loop.
struct Variant {
    cost: f64,
    /// The compiled plan the demands were measured under — shared with
    /// the plan cache, and compared on replan so an unchanged plan keeps
    /// its measured demands instead of re-running solo.
    plan: Arc<Plan>,
    demands: Vec<SegDemand>,
    report: RunReport,
    obs: Observation,
    /// Segment retries the solo run needed (0 without faults).
    retries: u32,
    /// Whether this shape is a CPU-only degradation of a GPU schedule.
    degraded: bool,
    /// Per-segment *fixed* device cost on the true machine (transfer
    /// latencies + launch overheads; 0 for CPU bands) — what cross-job
    /// batching amortizes. Aligned index for index with `demands`.
    fixed: Vec<f64>,
}

impl Variant {
    /// Virtual time of the solo run not covered by per-segment device
    /// demands: sync waits and retry backoff. The reservation calendars
    /// only hold the demands, so a job's true completion is its last
    /// reservation end plus this overhang.
    fn overhang(&self) -> f64 {
        let demand: f64 = self.demands.iter().map(|d| d.len()).sum();
        (self.report.virtual_time - demand).max(0.0)
    }

    fn uses_gpu(&self) -> bool {
        self.demands
            .iter()
            .any(|d| matches!(d.kind, SegKind::Gpu | SegKind::Split { .. }))
    }
}

/// Whether a schedule spec asks for the device at all (before compilation
/// possibly degrades it).
fn spec_wants_gpu(spec: &ScheduleSpec) -> bool {
    !matches!(spec, ScheduleSpec::Sequential | ScheduleSpec::CpuParallel)
}

/// An admitted job waiting for dispatch. `job` is what a migration hands
/// to another node; its `arrival` is the time the record spans from.
struct Queued {
    job: StolenJob,
    primary: Variant,
    fallback: Option<Variant>,
    /// Calibration generation the job was last priced under.
    generation: u64,
}

/// Evidence of a dispatched job, released at its completion time.
#[derive(Clone, Copy)]
struct PendingObs {
    end: f64,
    job: u64,
    obs: Observation,
    drift: f64,
}

/// Total order on event times (f64 `total_cmp`).
#[derive(Debug, Clone, Copy, PartialEq)]
struct Time(f64);

impl Eq for Time {}

impl PartialOrd for Time {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}

impl Ord for Time {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        self.0.total_cmp(&other.0)
    }
}

#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
enum Ev {
    Arrive(usize),
    Tick,
}

/// Tick events draw sequence numbers from a band strictly above every
/// arrival sequence number, so at equal times arrivals always pop before
/// reservation-release ticks — regardless of *when* the arrival was
/// submitted. (The batch scheduler got this for free by numbering ticks
/// after the last arrival; incremental submission needs the bands.)
const TICK_SEQ_BASE: u64 = 1 << 32;

/// The node's event heap: arrivals and reservation-release ticks, popped
/// in time order with arrivals first at equal times.
#[derive(Default)]
struct Events {
    heap: BinaryHeap<Reverse<(Time, u64, Ev)>>,
    arrival_seq: u64,
    ticks: u64,
}

impl Events {
    fn arrive(&mut self, at: f64, slot: usize) {
        self.heap
            .push(Reverse((Time(at), self.arrival_seq, Ev::Arrive(slot))));
        self.arrival_seq += 1;
    }

    /// Schedules a dispatch retry at a reservation release.
    fn tick(&mut self, at: f64) {
        self.ticks += 1;
        let seq = TICK_SEQ_BASE + self.ticks;
        self.heap.push(Reverse((Time(at), seq, Ev::Tick)));
    }
}

/// An accepted submission waiting for its arrival event to fire.
struct Pending {
    job: StolenJob,
    /// A migrated job keeps its original fleet-time arrival in its record
    /// and latency; a fresh submission's record spans from its event.
    migrated: bool,
}

/// A dispatched job's registry entry, kept until its completion time so a
/// node crash can tell finished work from lost work — and recover the
/// lost jobs from their last level-boundary checkpoint. `job.checkpoint`
/// is the checkpoint it was dispatched from, if it was itself a resumed
/// job: a second crash resumes from at least there.
struct RunningJob {
    job: StolenJob,
    /// Last reservation end: the completion time its record claims.
    end: f64,
    /// Admitted checkpoint boundaries `(time, resume_level)`, ascending;
    /// empty under [`CheckpointPolicy::Off`].
    boundaries: Vec<(f64, u32)>,
    /// Boundaries already counted into the `recovery.checkpoints` metric.
    next_boundary: usize,
    /// Calendar entries to hand back if the node crashes mid-run (empty
    /// for batch members: a merged lease is not reclaimed per member).
    resvs: Vec<Resv>,
}

/// One committed calendar entry, kept so a cancelled or crashed job's
/// slots can be released back to the arbiter.
#[derive(Debug, Clone, Copy)]
enum Resv {
    Gpu(f64, f64),
    Cpu(f64, f64, usize),
}

/// The resumable form of [`serve_sim`]: one node's scheduler driven one
/// event at a time, with jobs submitted incrementally and queued jobs
/// stealable at event boundaries.
///
/// Equivalence contract: constructing a `NodeSim`, submitting every job
/// up front in order (ids `0..n`), and calling [`NodeSim::finish`] is
/// bit-for-bit identical to [`serve_sim`] — same records, same leases,
/// same event interleaving.
pub struct NodeSim {
    job_cfg: MachineConfig,
    serve: ServeConfig,
    arb: DeviceArbiter,
    queue: Vec<Queued>,
    records: Vec<JobRecord>,
    runs: Vec<JobRun>,
    errors: Vec<ServeError>,
    calibrator: Option<Calibrator>,
    pending: Vec<PendingObs>,
    replans: u64,
    fault_state: Option<FaultState>,
    spans: SpanSet,
    plan_cache: Option<PlanCache>,
    batches: Vec<BatchRecord>,
    events: Events,
    slots: Vec<Option<Pending>>,
    now: f64,
    /// Dispatched jobs whose completion time is still in the future —
    /// what a crash loses. Entries are pruned as the clock passes their
    /// completion, so the registry never changes any observable output.
    running: Vec<RunningJob>,
}

impl NodeSim {
    /// A fresh node scheduler over the simulated machine `cfg` under the
    /// scheduler configuration `serve`. No events exist until
    /// [`NodeSim::submit`].
    pub fn new(cfg: &MachineConfig, serve: &ServeConfig) -> NodeSim {
        let mut errors: Vec<ServeError> = Vec::new();
        let mut job_cfg = cfg.clone();
        if let Some(k) = serve.cores_per_job {
            job_cfg.cpu.cores = k.clamp(1, cfg.cpu.cores);
        }
        let calibrator = serve.calibration.clone().map(Calibrator::new);
        let calibrator = calibrator.transpose().unwrap_or_else(|source| {
            errors.push(ServeError::Calibration { job: None, source });
            None
        });
        NodeSim {
            arb: DeviceArbiter::new(cfg.cpu.cores),
            job_cfg,
            queue: Vec::new(),
            records: Vec::new(),
            runs: Vec::new(),
            errors,
            calibrator,
            pending: Vec::new(),
            replans: 0,
            fault_state: serve.faults.as_ref().map(FaultState::new),
            spans: SpanSet::new(),
            plan_cache: serve.plan_cache.map(PlanCache::new),
            batches: Vec::new(),
            events: Events::default(),
            slots: Vec::new(),
            now: 0.0,
            running: Vec::new(),
            serve: serve.clone(),
        }
    }

    /// Schedules the arrival of `job` under the caller-assigned id.
    /// Submission order is the arrival tie-break at equal arrival times.
    pub fn submit(&mut self, id: u64, job: JobRequest) {
        let at = job.arrival.max(0.0);
        let job = StolenJob {
            id,
            name: job.name,
            spec: job.spec,
            arrival: job.arrival,
            deadline: job.deadline,
            skips: 0,
            checkpoint: None,
            workload: job.workload,
        };
        self.schedule_arrival(
            at,
            Pending {
                job,
                migrated: false,
            },
        );
    }

    /// Re-submits a job stolen from another node, arriving here at `now`
    /// (clamped to this node's clock — a reservation calendar must never
    /// be offered a slot in its past). The job is re-priced from scratch
    /// under this node's beliefs, plan cache, and breaker state; its
    /// record keeps the original fleet-time arrival.
    pub fn inject(&mut self, stolen: StolenJob, now: f64) {
        let at = now.max(self.now).max(0.0);
        self.schedule_arrival(
            at,
            Pending {
                job: stolen,
                migrated: true,
            },
        );
    }

    fn schedule_arrival(&mut self, at: f64, pending: Pending) {
        self.events.arrive(at, self.slots.len());
        self.slots.push(Some(pending));
    }

    /// Virtual time of the next unprocessed event, if any.
    pub fn next_event_time(&self) -> Option<f64> {
        self.events.heap.peek().map(|Reverse((t, _, _))| t.0)
    }

    /// Virtual time of the last processed event.
    pub fn now(&self) -> f64 {
        self.now
    }

    /// Processes exactly one event — calibration-evidence drain, possible
    /// replan, the arrival itself (if one), breaker degradation, and a
    /// full dispatch round — and returns its time. `None` when no events
    /// remain.
    pub fn step(&mut self) -> Option<f64> {
        let Reverse((t, _, ev)) = self.events.heap.pop()?;
        let now = t.0;
        self.now = now;
        // Checkpoint boundaries the clock just passed become durable:
        // count them, then retire registry entries of completed jobs.
        for r in self.running.iter_mut() {
            let passed = r.boundaries[r.next_boundary..]
                .iter()
                .take_while(|b| b.0 <= now + EPS)
                .count();
            r.next_boundary += passed;
            if let Some(m) = self.serve.metrics.as_ref().filter(|_| passed > 0) {
                m.inc("recovery.checkpoints", passed as u64);
            }
        }
        self.running.retain(|r| r.end > now + EPS);
        // Fold the evidence of every job that has completed by now; a
        // large enough drift triggers a re-price of the queue.
        if self.drain_evidence(now) {
            self.replans += 1;
            if let Some(m) = &self.serve.metrics {
                m.inc("serve.replans", 1);
                m.set_gauge("calibration.generation", self.replans as f64);
            }
            self.replan();
        }
        if let Ev::Arrive(i) = ev {
            // Poison-free by construction: each arrival event fires once,
            // but a double fire must not panic the scheduler.
            if let Some(p) = self.slots[i].take() {
                let arrival = if p.migrated { p.job.arrival } else { now };
                self.admit(p.job, arrival);
            }
        }
        // A breaker trip during admission or replanning degrades every
        // still-queued GPU job to its CPU-only shape before dispatch —
        // the device is off limits until (in this model) forever.
        if let Some(f) = self.fault_state.as_mut().filter(|f| f.pending_trip) {
            f.pending_trip = false;
            self.degrade_queue();
        }
        self.dispatch_all();
        if let Some(m) = &self.serve.metrics {
            m.set_gauge("serve.queue_depth", self.queue.len() as f64);
        }
        Some(now)
    }

    /// Folds the calibration evidence of every job completed by `now`,
    /// in completion order, and returns whether any of it drifted far
    /// enough to re-price the queue.
    fn drain_evidence(&mut self, now: f64) -> bool {
        let Some(cal) = self.calibrator.as_mut() else {
            return false;
        };
        let mut ready: Vec<PendingObs> = Vec::new();
        self.pending.retain(|p| {
            let done = p.end <= now + EPS;
            if done {
                ready.push(*p);
            }
            !done
        });
        ready.sort_by(|a, b| a.end.total_cmp(&b.end).then(a.job.cmp(&b.job)));
        let mut trigger = false;
        for p in &ready {
            if let Some(m) = &self.serve.metrics {
                m.observe("calibration.abs_drift", p.drift.abs());
            }
            if let Err(e) = cal.observe(&p.obs) {
                self.errors.push(ServeError::Calibration {
                    job: Some(p.job),
                    source: e,
                });
            }
            trigger |= cal.should_replan(p.drift);
        }
        trigger
    }

    /// Drains every remaining event and closes the run into its
    /// [`ServeOutput`].
    pub fn finish(mut self) -> ServeOutput {
        while self.step().is_some() {}
        debug_assert!(
            self.queue.is_empty(),
            "every queued job reaches a terminal state"
        );

        if let Some(m) = &self.serve.metrics {
            m.set_gauge("arbiter.cpu_busy", self.arb.cpu_busy());
            m.set_gauge("arbiter.gpu_busy", self.arb.gpu_busy());
            m.set_gauge("arbiter.gpu_leases", self.arb.gpu_leases().len() as f64);
            m.set_gauge(
                "arbiter.cpu_reservations",
                self.arb.cpu_reservations().len() as f64,
            );
            m.set_gauge("serve.makespan", self.arb.makespan());
        }
        let mut report = ServeReport::new(self.records, self.arb.cpu_busy(), self.arb.gpu_busy());
        if let Some(f) = &self.fault_state {
            let injector = f.injector.lock().unwrap_or_else(PoisonError::into_inner);
            report = report.with_fault_counts(injector.fault_events(), f.trips);
        }
        let cache_stats = self.plan_cache.as_ref().map(|c| c.stats());
        if let Some(s) = cache_stats {
            report = report.with_plan_cache(s.hits, s.misses);
        }
        ServeOutput {
            report,
            runs: self.runs,
            errors: self.errors,
            gpu_leases: self.arb.gpu_leases().to_vec(),
            cpu_reservations: self.arb.cpu_reservations().to_vec(),
            replans: self.replans,
            plan_cache: cache_stats,
            calibration: self.calibrator.map(|c| c.calibration().clone()),
            spans: self.spans.into_events(),
            batches: self.batches,
        }
    }

    // --- Fleet-facing observers and steal surface -------------------------

    /// Number of jobs waiting in the admission queue.
    pub fn queue_len(&self) -> usize {
        self.queue.len()
    }

    /// The configured admission-queue capacity.
    pub fn queue_capacity(&self) -> usize {
        self.serve.queue_capacity
    }

    /// Sum of predicted costs over every queued job: the node's believed
    /// backlog, in its own cost units.
    ///
    /// With [`BatchPolicy::Coalesce`] on, same-shaped batchable GPU jobs
    /// in the queue will share launches, so the backlog is discounted by
    /// the fixed costs batching will amortize — a batching node looks
    /// cheaper to a fleet router than an identically-loaded unbatched
    /// one, steering same-shaped work toward it.
    pub fn queued_cost(&self) -> f64 {
        let base: f64 = self.queue.iter().map(|q| q.primary.cost).sum();
        match self.serve.batch.bound() {
            Some(bound) => (base - batch::discount(&self.queue, bound)).max(0.0),
            None => base,
        }
    }

    /// Cross-job batched launches committed so far.
    pub fn batches_formed(&self) -> u64 {
        self.batches.len() as u64
    }

    /// End of the last committed reservation — how far ahead of `now` the
    /// node's calendars already stretch.
    pub fn horizon(&self) -> f64 {
        self.arb.makespan()
    }

    /// Whether the GPU circuit breaker is open (the device is off limits
    /// and GPU jobs compile straight to their CPU-only degradation).
    pub fn breaker_open(&self) -> bool {
        self.fault_state.as_ref().is_some_and(|f| f.open)
    }

    /// Times the GPU circuit breaker has tripped.
    pub fn breaker_trips(&self) -> u64 {
        self.fault_state.as_ref().map_or(0, |f| f.trips)
    }

    /// Drift-triggered calibration replans performed so far — this node's
    /// pricing generation. A peer's drift never changes it.
    pub fn replans(&self) -> u64 {
        self.replans
    }

    /// Current plan-cache generation, when caching is on.
    pub fn cache_generation(&self) -> Option<u64> {
        self.plan_cache.as_ref().map(|c| c.generation())
    }

    /// Ids of every queued job, queue order.
    pub fn queued_ids(&self) -> Vec<u64> {
        self.queue.iter().map(|q| q.job.id).collect()
    }

    /// The dispatch order of the queue under the node's policy, and the
    /// length of its rigid prefix (see [`dispatch_order`]).
    fn dispatch_order(&self) -> (Vec<usize>, usize) {
        let ranks: Vec<Rank> = self
            .queue
            .iter()
            .map(|q| Rank {
                seq: q.job.id,
                cost: q.primary.cost,
                skips: q.job.skips,
            })
            .collect();
        dispatch_order(&self.serve.policy, &ranks)
    }

    /// Ids of the queued jobs a thief may take, lowest dispatch priority
    /// first: the backfillable suffix beyond the policy's rigid prefix.
    /// A rigid (FIFO or starvation-overdue) entry is this node's promise
    /// to run next — stealing it would re-order what the policy already
    /// guaranteed.
    pub fn steal_candidates(&self) -> Vec<u64> {
        let (order, rigid) = self.dispatch_order();
        order
            .get(rigid..)
            .unwrap_or(&[])
            .iter()
            .rev()
            .map(|&qi| self.queue[qi].job.id)
            .collect()
    }

    /// Pricing inputs of the queued job `id`, for a prospective thief to
    /// price under its own beliefs. `None` if the job is gone (or its
    /// level count no longer computes).
    pub fn queued_shape(&self, id: u64) -> Option<QueuedShape> {
        let q = self.queue.iter().find(|q| q.job.id == id)?;
        QueuedShape::of(&q.job).ok()
    }

    /// Removes the queued job `id` for migration. The job keeps its
    /// original spec, arrival, starvation credit and (for a recovered
    /// job) checkpoint; its compiled variants stay behind (the receiving
    /// node re-prices from scratch).
    pub fn steal(&mut self, id: u64) -> Option<StolenJob> {
        let qi = self.queue.iter().position(|q| q.job.id == id)?;
        let q = self.queue.remove(qi);
        if let Some(m) = &self.serve.metrics {
            m.inc("serve.stolen", 1);
        }
        Some(q.job)
    }

    /// Starvation credit of the queued job `id`, if it is queued here.
    pub fn queued_skips(&self, id: u64) -> Option<usize> {
        self.queue
            .iter()
            .find(|q| q.job.id == id)
            .map(|q| q.job.skips)
    }

    /// Ids of the dispatched jobs whose completion is still ahead of the
    /// node's clock — what [`NodeSim::crash`] would lose right now.
    pub fn running_ids(&self) -> Vec<u64> {
        self.running.iter().map(|r| r.job.id).collect()
    }

    /// Kills the node at time `at`: every queued, not-yet-arrived and
    /// still-executing job is evicted, and the in-flight jobs' completion
    /// records (written optimistically at dispatch) are revoked — a crash
    /// must never count lost work as done. In-flight jobs carry their
    /// last level-boundary checkpoint admitted **before** `at` (work past
    /// the crash instant was never captured), falling back to the
    /// checkpoint they were dispatched from, if any. Their calendar
    /// reservations are released so a later [`NodeSim::rejoin`] starts
    /// with clean calendars (merged batch leases stay: a batch member's
    /// share of one lease is not separable). Spans of revoked jobs remain
    /// in the trace — a trace records what was attempted, not what
    /// survived.
    pub fn crash(&mut self, at: f64) -> CrashReport {
        self.now = self.now.max(at);
        let mut queued: Vec<StolenJob> = self.queue.drain(..).map(|q| q.job).collect();
        // Submissions whose arrival event had not fired yet die with the
        // event heap; they lose nothing but their place in time.
        queued.extend(
            self.slots
                .iter_mut()
                .filter_map(Option::take)
                .map(|p| p.job),
        );
        self.events.heap.clear();
        let mut in_flight: Vec<StolenJob> = Vec::new();
        let mut lost: Vec<u64> = Vec::new();
        for r in std::mem::take(&mut self.running) {
            if r.end <= at + EPS {
                continue; // finished before the crash — its record stands
            }
            lost.push(r.job.id);
            dispatch::release_all(&mut self.arb, &r.resvs);
            let checkpoint = r
                .boundaries
                .iter()
                .rev()
                .find(|&&(t, _)| t <= at + EPS)
                .map(|&(_, level)| Checkpoint {
                    level,
                    resident_words: r.job.workload.input_len() as u64,
                    generation: self.replans,
                })
                .or(r.job.checkpoint);
            in_flight.push(StolenJob {
                checkpoint,
                ..r.job
            });
        }
        self.records.retain(|rec| {
            !(matches!(rec.outcome, JobOutcome::Completed) && lost.contains(&rec.id))
        });
        self.runs.retain(|run| !lost.contains(&run.id));
        self.pending.retain(|p| !lost.contains(&p.job));
        CrashReport { queued, in_flight }
    }

    /// Rejoins a crashed node to service at time `now`, cold: the plan
    /// cache's generation is bumped (cached demands priced before the
    /// crash are not trusted across it) and the pricing generation
    /// advances with it, so post-rejoin admissions never batch with
    /// pre-crash shapes. Completed records, calibration knowledge and
    /// breaker state survive — the crash lost the machine, not the ledger.
    pub fn rejoin(&mut self, now: f64) {
        self.now = self.now.max(now);
        if let Some(c) = self.plan_cache.as_mut() {
            c.bump_generation();
        }
        self.replans += 1;
        if let Some(m) = &self.serve.metrics {
            m.set_gauge("calibration.generation", self.replans as f64);
        }
    }

    /// Prices one job shape under this node's current beliefs: assumed
    /// or configured machine parameters, corrected by calibration, with
    /// an open breaker substituting the CPU-only degradation for any
    /// GPU-using spec. Served by this node's [`PlanCache`] when one is
    /// attached, so repeated router probes of hot shapes are lookups.
    /// `None` when the shape fails to compile.
    pub fn price(&mut self, shape: &QueuedShape) -> Option<f64> {
        let params = self.params().ok()?;
        let p = self.pricing(params, shape, self.breaker_open());
        self.compile(&p, &p.spec).ok().map(|(_, cost)| cost.total)
    }

    /// This node's believed host↔device transfer time for `words` words,
    /// under current calibration — the router's data-affinity discount:
    /// what routing a non-resident input here would cost.
    pub fn believed_transfer_time(&self, words: u64) -> f64 {
        match self.params() {
            Ok(p) => p.transfer_time(words),
            Err(_) => MachineParams::from_config(&self.job_cfg).transfer_time(words),
        }
    }
}

/// Serves `jobs` over one shared simulated machine `cfg` under the
/// scheduler configuration `serve`. Deterministic: equal inputs give
/// equal outputs, event for event.
pub fn serve_sim(cfg: &MachineConfig, serve: &ServeConfig, jobs: Vec<JobRequest>) -> ServeOutput {
    let mut node = NodeSim::new(cfg, serve);
    for (i, job) in jobs.into_iter().enumerate() {
        node.submit(i as u64, job);
    }
    node.finish()
}
