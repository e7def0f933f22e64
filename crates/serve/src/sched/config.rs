//! Serving configuration and policies, and the public types a serving
//! run takes in and hands out.

use std::sync::Arc;

use hpu_core::exec::{Checkpoint, RecoveryPolicy, RunReport};
use hpu_machine::FaultPlan;
use hpu_model::{
    CacheStats, Calibration, CalibratorConfig, MachineParams, Recurrence, ScheduleSpec,
    DEFAULT_PLAN_CACHE_CAPACITY,
};
use hpu_obs::{MetricsRegistry, ServeReport, TraceEvent};

use crate::error::ServeError;
use crate::job::Workload;
use crate::queue::Policy;

#[cfg(doc)]
use {
    super::serve_sim, super::NodeSim, hpu_machine::SimMachineParams, hpu_model::PlanCache,
    hpu_obs::SpanKind,
};

/// Scheduler configuration.
#[derive(Debug, Clone)]
pub struct ServeConfig {
    /// Maximum number of jobs waiting in the admission queue; arrivals
    /// beyond it are rejected with [`ServeError::QueueFull`].
    pub queue_capacity: usize,
    /// Dispatch policy.
    pub policy: Policy,
    /// Whether a GPU-using job may fall back to its CPU-only plan when
    /// the device lease is contended and the fallback finishes sooner.
    pub cpu_fallback: bool,
    /// Compile each job for this many cores instead of the whole CPU,
    /// letting several jobs' CPU segments run side by side in the pool
    /// (clamped to the machine's core count).
    pub cores_per_job: Option<usize>,
    /// Machine parameters to price and compile with, when they should
    /// differ from the served machine's own
    /// ([`MachineParams::from_config`]). This is the mis-specification
    /// knob for calibration experiments: the scheduler *believes* these
    /// numbers until the calibration loop corrects them. `p` always
    /// follows the served machine (and [`ServeConfig::cores_per_job`]).
    pub assumed: Option<MachineParams>,
    /// Closed-loop calibration (see the module docs). `None` — the
    /// default — keeps the open-loop behavior bit for bit.
    pub calibration: Option<CalibratorConfig>,
    /// Seeded device-fault injection plus the recovery knobs (see
    /// [`FaultConfig`]). `None` — the default — serves fault-free.
    pub faults: Option<FaultConfig>,
    /// Live metrics registry the scheduler samples into: admission and
    /// queueing counters, wait/latency/service histograms, calibration
    /// drift, arbiter occupancy, plan-compile time and — through the
    /// solo runs — the interpreter's per-segment timings. `None` — the
    /// default — serves unmetered with zero overhead.
    pub metrics: Option<Arc<MetricsRegistry>>,
    /// Capacity of the per-fleet [`PlanCache`]: admission looks plans up
    /// by canonical [`hpu_model::PlanKey`] instead of recompiling, and a
    /// drift-triggered calibration replan becomes a generation bump plus
    /// lazy re-fill. The default holds
    /// [`DEFAULT_PLAN_CACHE_CAPACITY`] plans; `None` disables caching
    /// and recompiles every admission (the pre-cache behavior).
    pub plan_cache: Option<usize>,
    /// Cross-job GPU kernel batching (see [`BatchPolicy`]). The default,
    /// [`BatchPolicy::Off`], keeps the unbatched scheduler bit for bit.
    pub batch: BatchPolicy,
    /// Level-boundary checkpointing of running jobs (see
    /// [`CheckpointPolicy`]). The default, [`CheckpointPolicy::Off`],
    /// records nothing and keeps the scheduler bit for bit; any other
    /// policy lets a fleet-level crash recover in-flight jobs from their
    /// last completed level instead of restarting them from scratch.
    pub checkpoint: CheckpointPolicy,
}

/// When a running job's state is captured at level boundaries.
///
/// Every segment boundary of a compiled plan is a consistent cut of the
/// breadth-first execution — levels below it are completely done, levels
/// above it untouched — so a checkpoint taken there resumes exactly (see
/// [`hpu_core::exec::run_sim_plan_resume`]). The policy decides *which*
/// boundaries are worth the capture cost.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub enum CheckpointPolicy {
    /// No checkpoints: crash recovery restarts in-flight jobs from
    /// scratch. Byte-identical to the pre-checkpointing scheduler.
    #[default]
    Off,
    /// Capture at every level boundary — maximal re-execution savings,
    /// maximal capture traffic.
    EveryLevel,
    /// Capture at every `k`-th level boundary (`k` clamped to ≥ 1, so
    /// `EveryKLevels(1)` is [`CheckpointPolicy::EveryLevel`]).
    EveryKLevels(u32),
}

impl CheckpointPolicy {
    /// Whether a checkpoint at resume-level `level` (levels `0..level`
    /// complete) is admitted by this policy.
    pub fn admits(&self, level: u32) -> bool {
        match *self {
            CheckpointPolicy::Off => false,
            CheckpointPolicy::EveryLevel => level > 0,
            CheckpointPolicy::EveryKLevels(k) => level > 0 && level.is_multiple_of(k.max(1)),
        }
    }

    /// Prices a checkpoint interval against re-execution: with capture
    /// cost `c` per checkpoint and mean per-level cost `l`, checkpointing
    /// every `k` levels pays `c/k` per level while a crash re-executes
    /// `k/2` levels on average — total `c/k + l·k/2` per level, minimized
    /// at `k = √(2c/l)`. A ratio at or below 1 means capture is cheap
    /// enough to take every boundary.
    pub fn every_k_priced(checkpoint_cost: f64, mean_level_cost: f64) -> CheckpointPolicy {
        if checkpoint_cost <= 0.0
            || mean_level_cost <= 0.0
            || !checkpoint_cost.is_finite()
            || !mean_level_cost.is_finite()
        {
            return CheckpointPolicy::EveryLevel;
        }
        let k = (2.0 * checkpoint_cost / mean_level_cost).sqrt().ceil();
        if k <= 1.0 {
            CheckpointPolicy::EveryLevel
        } else {
            CheckpointPolicy::EveryKLevels(k as u32)
        }
    }
}

/// Cross-job GPU kernel batching policy.
///
/// At each dispatch event, when the job the policy would dispatch next
/// is GPU-using, the scheduler may *coalesce* other queued jobs with the
/// **same shape** — same algorithm kind, same calibration generation,
/// structurally identical compiled plan — into one batched kernel launch
/// per GPU segment: one merged upload, one launch, one download, so the
/// batch pays the fixed costs (`λ` per transfer edge, launch overhead
/// per level) **once** while every member still pays its own `δ·w`
/// payload and kernel waves (Kothapalli-style amortization).
///
/// Fairness invariants, enforced before any batch commits:
///
/// * The policy's dispatch-order winner always leads the batch — a batch
///   never runs ahead of a job the queue policy promised to serve first,
///   and the starvation (`skips`) accounting is identical to solo
///   dispatch.
/// * A batch must still start at the current event time; if coalescing
///   pushes the merged window later, the leader dispatches solo instead.
/// * A member whose projected completion (including its solo run's
///   overhang) would miss its deadline is dropped from the batch — a
///   lone job is never delayed past its deadline to benefit a batch.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub enum BatchPolicy {
    /// No coalescing: byte-identical to the pre-batching scheduler.
    #[default]
    Off,
    /// Coalesce up to `max_batch` same-shaped jobs per launch. A bound
    /// below 2 can never form a batch and behaves exactly like
    /// [`BatchPolicy::Off`].
    Coalesce {
        /// Largest number of jobs one launch may serve.
        max_batch: usize,
    },
}

impl BatchPolicy {
    /// The effective batch bound: `None` when batching is off (or the
    /// bound cannot fit two members).
    pub(super) fn bound(&self) -> Option<usize> {
        match *self {
            BatchPolicy::Off => None,
            BatchPolicy::Coalesce { max_batch } => (max_batch >= 2).then_some(max_batch),
        }
    }
}

impl Default for ServeConfig {
    fn default() -> Self {
        ServeConfig {
            queue_capacity: 32,
            policy: Policy::default(),
            cpu_fallback: true,
            cores_per_job: None,
            assumed: None,
            calibration: None,
            faults: None,
            metrics: None,
            plan_cache: Some(DEFAULT_PLAN_CACHE_CAPACITY),
            batch: BatchPolicy::Off,
            checkpoint: CheckpointPolicy::Off,
        }
    }
}

/// Fault injection and recovery configuration for [`serve_sim`].
#[derive(Debug, Clone)]
pub struct FaultConfig {
    /// The seeded fault plan shared by every job's device traffic.
    pub plan: FaultPlan,
    /// Per-segment retry/backoff policy for transient faults.
    pub recovery: RecoveryPolicy,
    /// Consecutive failed GPU executions (retries exhausted) after which
    /// the GPU circuit breaker trips: queued GPU jobs degrade to their
    /// CPU-only shape and new arrivals compile CPU-only. Permanent
    /// device loss trips the breaker immediately.
    pub breaker_threshold: u32,
}

impl FaultConfig {
    /// A fault configuration with default recovery (3 retries, 16-unit
    /// doubling backoff) and a breaker tripping after 3 consecutive
    /// failed GPU executions.
    pub fn new(plan: FaultPlan) -> Self {
        FaultConfig {
            plan,
            recovery: RecoveryPolicy::default(),
            breaker_threshold: 3,
        }
    }
}

/// One job submission.
pub struct JobRequest {
    /// Human-readable label, carried into the records.
    pub name: String,
    /// The schedule to compile the job's plan from.
    pub spec: ScheduleSpec,
    /// Submission time (fleet virtual time).
    pub arrival: f64,
    /// Latest acceptable completion time, if any.
    pub deadline: Option<f64>,
    /// The work itself.
    pub workload: Box<dyn Workload>,
}

impl JobRequest {
    /// A deadline-free job submission.
    pub fn new(
        name: impl Into<String>,
        spec: ScheduleSpec,
        arrival: f64,
        workload: Box<dyn Workload>,
    ) -> Self {
        JobRequest {
            name: name.into(),
            spec,
            arrival,
            deadline: None,
            workload,
        }
    }

    /// Attaches a completion deadline (fleet virtual time).
    pub fn with_deadline(mut self, deadline: f64) -> Self {
        self.deadline = Some(deadline);
        self
    }
}

/// The full execution report of one completed job.
pub struct JobRun {
    /// Scheduler-assigned job id (submission order).
    pub id: u64,
    /// The job's label.
    pub name: String,
    /// Whether the CPU-only fallback plan ran instead of the primary.
    pub fallback: bool,
    /// The per-job run report (virtual time, per-level metrics, drift).
    pub report: RunReport,
}

/// Everything a serving run produces.
pub struct ServeOutput {
    /// Fleet-level metrics over every submitted job.
    pub report: ServeReport,
    /// Per-job [`RunReport`]s of the jobs that completed.
    pub runs: Vec<JobRun>,
    /// Typed rejection/cancellation/failure errors, in occurrence order.
    pub errors: Vec<ServeError>,
    /// Every GPU lease granted, ascending by start.
    pub gpu_leases: Vec<(f64, f64)>,
    /// Every CPU reservation granted `(start, end, cores)`.
    pub cpu_reservations: Vec<(f64, f64, usize)>,
    /// Drift-triggered replans performed (0 without calibration).
    pub replans: u64,
    /// Plan-cache counters, when [`ServeConfig::plan_cache`] was on:
    /// hits are admissions (or replan re-pricings) served by lookup,
    /// misses are fresh compiles.
    pub plan_cache: Option<CacheStats>,
    /// Final calibration state, when the loop was enabled.
    pub calibration: Option<Calibration>,
    /// Causal span tree of every dispatched job — a
    /// [`SpanKind::Job`] span per completion, parenting its
    /// [`SpanKind::Segment`] spans (the committed reservation windows),
    /// which parent [`SpanKind::Level`] spans (the solo run's level rows
    /// laid proportionally inside the segment window) and a
    /// [`SpanKind::Retry`] marker when recovery retried. Feed these to a
    /// [`hpu_obs::ChromeTrace`] process to see the tree as flow arrows.
    pub spans: Vec<TraceEvent>,
    /// Every cross-job batched launch formed, in commit order (empty
    /// under [`BatchPolicy::Off`]).
    pub batches: Vec<BatchRecord>,
}

/// One committed cross-job batched launch.
#[derive(Debug, Clone, PartialEq)]
pub struct BatchRecord {
    /// Dispatch event time the batch formed at.
    pub at: f64,
    /// Member job ids, dispatch order (the policy's winner first).
    pub members: Vec<u64>,
    /// The merged GPU windows reserved, one `(start, end)` per batched
    /// GPU segment, plan order.
    pub windows: Vec<(f64, f64)>,
    /// Device time saved versus committing every member solo (the
    /// amortized launch overheads and transfer latencies).
    pub saved: f64,
}

/// A queued job removed from one node's scheduler for migration to
/// another ([`NodeSim::steal`] → [`NodeSim::inject`]).
///
/// Carries the *originally requested* schedule spec — not any degraded
/// CPU-only shape — so a healthy receiving node compiles the full hybrid
/// plan again, and the original arrival time, so latency keeps spanning
/// the fleet-level submission.
pub struct StolenJob {
    /// Fleet-assigned job id.
    pub id: u64,
    /// The job's label.
    pub name: String,
    /// The schedule the job was originally submitted with.
    pub spec: ScheduleSpec,
    /// Original submission time (fleet virtual time).
    pub arrival: f64,
    /// Latest acceptable completion time, if any.
    pub deadline: Option<f64>,
    /// Starvation credit (dispatch rounds skipped in favor of younger
    /// jobs) the job earned before migration. The receiving node's
    /// starvation bound counts from here, so migration never resets a
    /// senior job's place in line.
    pub skips: usize,
    /// The level-boundary checkpoint a crash-recovered job resumes from;
    /// `None` re-runs the job from scratch.
    pub checkpoint: Option<Checkpoint>,
    /// The work itself.
    pub workload: Box<dyn Workload>,
}

/// Everything [`NodeSim::crash`] evicts from a crashed node, for the
/// fleet layer to re-place on healthy peers.
pub struct CrashReport {
    /// Jobs that were still queued (or not yet arrived) at the crash:
    /// nothing of theirs ran here, so they carry at most the checkpoint
    /// they arrived with.
    pub queued: Vec<StolenJob>,
    /// Jobs that were executing at the crash, their completion records
    /// revoked. Each carries its last admitted level-boundary checkpoint
    /// when the node's [`CheckpointPolicy`] recorded one in time.
    pub in_flight: Vec<StolenJob>,
}

/// Pricing inputs of one queued job, as a prospective thief needs them:
/// the originally requested spec plus the workload's recurrence, input
/// length, and executor level count.
pub struct QueuedShape {
    /// The schedule the job was originally submitted with.
    pub spec: ScheduleSpec,
    /// The workload's cost recurrence.
    pub rec: Recurrence,
    /// Input length in elements.
    pub n: u64,
    /// The executor's combine-level count.
    pub levels: u32,
}
