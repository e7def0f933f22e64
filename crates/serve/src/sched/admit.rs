//! Admission and pricing: every job shape is compiled (or looked up in
//! the plan cache) under the node's current beliefs, priced, and
//! solo-run on the true machine to measure its per-segment demands. A
//! calibration replan and a breaker trip re-price the queue through the
//! same routines.

use std::sync::Arc;

use hpu_core::exec::Checkpoint;
use hpu_core::CoreError;
use hpu_machine::{MachineError, SimHpu, SimMachineParams};
use hpu_model::{
    compile, compile_timed, plan_cost, CalibrationError, LevelProfile, MachineParams, ModelError,
    Observation, Placement, Plan, PlanCost, Recurrence, ScheduleSpec,
};
use hpu_obs::{FaultTag, JobOutcome};

use super::{spec_wants_gpu, NodeSim, Queued, QueuedShape, SegDemand, SegKind, StolenJob, Variant};
use crate::error::ServeError;
use crate::job::Workload;

/// What one job shape compiles and prices under on this node: the
/// believed machine, the calibrated recurrence, and the spec — the
/// CPU-only degradation while the GPU breaker is open and the requested
/// spec wants the device.
pub(super) struct Pricing {
    pub(super) spec: ScheduleSpec,
    /// Whether `spec` is that degradation rather than the request.
    degraded: bool,
    params: MachineParams,
    rec: Recurrence,
    n: u64,
    levels: u32,
}

/// Which executable shape of a job to build.
#[derive(Clone, Copy)]
enum Build<'a> {
    /// The priced spec, solo-run through the fault injector when its plan
    /// uses the GPU.
    Primary,
    /// The priced spec clipped to a checkpoint's resume suffix: only the
    /// remaining levels are priced, measured and reserved. The injector
    /// is bypassed — a resume replays saved state rather than driving
    /// fresh traffic through the injector's deterministic stream.
    Resume(&'a Checkpoint),
    /// The CPU-only shape: the fallback of a GPU job, or its
    /// degradation. It never touches the device, so it is structurally
    /// immune to injected faults.
    CpuOnly,
}

/// Why one pricing attempt failed (mapped onto [`ServeError`] with the
/// job id by the caller).
pub(super) enum VariantError {
    Compile(ModelError),
    Run {
        source: CoreError,
        /// Segment retries spent before the run was given up on.
        retries: u32,
    },
}

impl VariantError {
    fn into_serve(self, job: u64) -> ServeError {
        match self {
            VariantError::Compile(source) => ServeError::Compile { job, source },
            VariantError::Run { source, .. } => ServeError::Run { job, source },
        }
    }

    /// The machine fault behind this failure, if it was one.
    fn machine_fault(&self) -> Option<&MachineError> {
        match self {
            VariantError::Run {
                source: CoreError::Machine(m),
                ..
            } => Some(m),
            _ => None,
        }
    }

    fn retries(&self) -> u32 {
        match self {
            VariantError::Run { retries, .. } => *retries,
            VariantError::Compile(_) => 0,
        }
    }
}

/// The [`FaultTag`] a machine error surfaces as in a job record.
fn tag_of(e: &MachineError) -> FaultTag {
    if e.is_transient() {
        FaultTag::Transient
    } else if matches!(e, MachineError::DeviceLost) {
        FaultTag::DeviceLost
    } else {
        FaultTag::Error
    }
}

impl QueuedShape {
    /// The pricing inputs of `job`'s originally requested spec.
    pub(super) fn of(job: &StolenJob) -> Result<QueuedShape, CoreError> {
        Ok(QueuedShape {
            spec: job.spec.clone(),
            rec: job.workload.recurrence(),
            n: job.workload.input_len() as u64,
            levels: job.workload.exec_levels()?,
        })
    }
}

impl Variant {
    /// Re-prices a variant whose recompiled plan came out identical: the
    /// admission cost and predicted evidence follow the corrected
    /// parameters, while the measured demands and report — deterministic
    /// replays on the *true* machine, which calibration never changes —
    /// are kept, skipping the redundant solo run.
    fn reprice(&mut self, plan: Arc<Plan>, cost: &PlanCost, params: &MachineParams) {
        let predicted_bus = predicted_bus(&plan, params);
        self.obs.predicted_cpu = cost.cpu;
        self.obs.predicted_gpu = (cost.gpu - predicted_bus).max(0.0);
        self.obs.predicted_bus = predicted_bus;
        self.cost = cost.total;
        self.plan = plan;
    }
}

/// The bus time `params` predicts for every transfer edge of `plan`.
fn predicted_bus(plan: &Plan, params: &MachineParams) -> f64 {
    plan.segments
        .iter()
        .flat_map(|s| &s.transfers)
        .map(|t| params.transfer_time(t.words))
        .sum()
}

impl NodeSim {
    /// The parameters jobs are priced and compiled with: the configured
    /// or assumed machine, under the current calibration corrections. The
    /// CPU core count always follows the per-job machine slice —
    /// calibration corrects speeds and costs, never the structure.
    pub(super) fn params(&self) -> Result<MachineParams, CalibrationError> {
        let mut params = self
            .serve
            .assumed
            .clone()
            .unwrap_or_else(|| MachineParams::from_config(&self.job_cfg));
        params.p = self.job_cfg.cpu.cores;
        match &self.calibrator {
            Some(c) => params.recalibrated(c.calibration()),
            None => Ok(params),
        }
    }

    /// The compile inputs of `shape` under `params`: the recurrence
    /// scaled by the current calibration and, with the breaker open, the
    /// CPU-only spec for a GPU-wanting one.
    pub(super) fn pricing(
        &self,
        params: MachineParams,
        shape: &QueuedShape,
        breaker_open: bool,
    ) -> Pricing {
        let degraded = breaker_open && spec_wants_gpu(&shape.spec);
        let spec = if degraded {
            ScheduleSpec::CpuParallel
        } else {
            shape.spec.clone()
        };
        let rec = match &self.calibrator {
            Some(c) => c.calibration().scale_recurrence(&shape.rec),
            None => shape.rec.clone(),
        };
        Pricing {
            spec,
            degraded,
            params,
            rec,
            n: shape.n,
            levels: shape.levels,
        }
    }

    /// Compiles and prices `spec` under `p`: a [`hpu_model::PlanCache`]
    /// lookup when a cache is attached (only misses compile), a fresh
    /// compile otherwise — timed through [`compile_timed`] when a metrics
    /// registry is attached.
    pub(super) fn compile(
        &mut self,
        p: &Pricing,
        spec: &ScheduleSpec,
    ) -> Result<(Arc<Plan>, Arc<PlanCost>), VariantError> {
        let metrics = self.serve.metrics.as_deref();
        if let Some(c) = self.plan_cache.as_mut() {
            return c
                .lookup_or_compile(spec, &p.params, &p.rec, p.n, p.levels, metrics)
                .map_err(VariantError::Compile);
        }
        let plan = match metrics {
            Some(m) => compile_timed(spec, &p.params, &p.rec, p.n, p.levels, m),
            None => compile(spec, &p.params, &p.rec, p.n, p.levels),
        }
        .map_err(VariantError::Compile)?;
        let profile = LevelProfile::new(&p.params, &p.rec, p.n);
        let cost = plan_cost(&profile, &plan).map_err(VariantError::Compile)?;
        Ok((Arc::new(plan), Arc::new(cost)))
    }

    /// Compiles, prices and solo-runs one shape of a job (see [`Build`]).
    /// A resumed shape compiles the **full** plan through the cache —
    /// sharing compiles with fresh admissions of the same shape — and
    /// clips it to the resume suffix.
    fn build_variant(
        &mut self,
        w: &mut dyn Workload,
        p: &Pricing,
        build: Build,
    ) -> Result<Variant, VariantError> {
        let spec = match build {
            Build::CpuOnly => &ScheduleSpec::CpuParallel,
            Build::Primary | Build::Resume(_) => &p.spec,
        };
        let (plan, cost) = self.compile(p, spec)?;
        let (plan, cost) = match build {
            Build::Resume(ck) => {
                let suffix = plan
                    .resume_from_level(ck.level)
                    .map_err(VariantError::Compile)?;
                let profile = LevelProfile::new(&p.params, &p.rec, p.n);
                let cost = plan_cost(&profile, &suffix).map_err(VariantError::Compile)?;
                (Arc::new(suffix), Arc::new(cost))
            }
            Build::Primary | Build::CpuOnly => (plan, cost),
        };
        self.solo(w, plan, &cost, &p.params, build)
    }

    /// Solo-runs the job's plan on a private virtual clock and folds the
    /// per-level metrics into per-segment device demands plus the
    /// per-unit predicted-vs-observed evidence. With a metrics registry
    /// attached, the run samples the interpreter's per-segment timings.
    fn solo(
        &self,
        w: &mut dyn Workload,
        plan: Arc<Plan>,
        cost: &PlanCost,
        params: &MachineParams,
        build: Build,
    ) -> Result<Variant, VariantError> {
        let faults = match build {
            Build::Primary if plan.uses_gpu() => self.fault_state.as_ref(),
            _ => None,
        };
        let mut hpu = match faults {
            Some(f) => SimHpu::new(self.job_cfg.clone()).with_faults(f.injector.clone()),
            None => SimHpu::new(self.job_cfg.clone()),
        };
        let (result, retries) = match (build, faults) {
            (Build::Resume(ck), _) => (w.run_plan_resume(&mut hpu, &plan, ck), 0),
            (_, Some(f)) => {
                let (r, rs) = w.run_plan_recover(&mut hpu, &plan, &f.recovery);
                (r, rs.retries)
            }
            (_, None) => match &self.serve.metrics {
                Some(m) => (w.run_plan_metered(&mut hpu, &plan, m.clone()), 0),
                None => (w.run_plan(&mut hpu, &plan), 0),
            },
        };
        let report = result.map_err(|source| VariantError::Run { source, retries })?;
        let mut demands: Vec<SegDemand> = plan
            .segments
            .iter()
            .map(|seg| SegDemand {
                kind: match seg.placement {
                    Placement::Cpu { cores } => SegKind::Cpu { cores },
                    Placement::Gpu => SegKind::Gpu,
                    Placement::Split { .. } => SegKind::Split {
                        cores: self.job_cfg.cpu.cores,
                    },
                },
                cpu: 0.0,
                gpu: 0.0,
            })
            .collect();
        let last = demands.len().saturating_sub(1);
        for row in &report.levels {
            // `run_sim_plan` rejects empty plans before this point, so
            // there is a segment; the saturating clamp keeps the index total
            // even if that invariant ever moves.
            let si = row
                .segment
                .map(|s| s as usize)
                .or_else(|| plan.segment_of(row.level).map(|(i, _)| i))
                .unwrap_or(0)
                .min(last);
            demands[si].cpu += row.cpu_time;
            // The bus is only ever driven for the device: transfers extend
            // the segment's GPU lease.
            demands[si].gpu += row.gpu_time + row.bus_time;
        }
        let predicted_bus = predicted_bus(&plan, params);
        let obs = Observation {
            predicted_cpu: cost.cpu,
            predicted_gpu: (cost.gpu - predicted_bus).max(0.0),
            predicted_bus,
            observed_cpu: report.levels.iter().map(|r| r.cpu_time).sum(),
            observed_gpu: report.levels.iter().map(|r| r.gpu_time).sum(),
            observed_bus: report.levels.iter().map(|r| r.bus_time).sum(),
        };
        // The fixed costs batching can amortize are properties of the *true*
        // machine the demands were measured on — the bus latency actually
        // paid per transfer edge and the launch overhead actually paid per
        // level — never of the believed (assumed/calibrated) parameters.
        let (lambda, launch) = (self.job_cfg.bus.lambda, self.job_cfg.gpu.launch_overhead);
        let fixed = (0..demands.len())
            .map(|i| plan.segment_fixed_cost(i, lambda, launch))
            .collect();
        Ok(Variant {
            cost: cost.total,
            plan,
            demands,
            report,
            obs,
            retries,
            degraded: false,
            fixed,
        })
    }

    /// Builds a job's primary shape and its CPU-only fallback, feeding the
    /// GPU breaker on the way: a GPU-using success resets it, a device
    /// fault that survived the retry budget counts against it (device
    /// loss trips it at once). A primary priced as a breaker degradation
    /// is flagged so; a GPU-using one also carries its CPU-only shape, so
    /// dispatch can route around a contended device lease.
    fn build_shapes(
        &mut self,
        w: &mut dyn Workload,
        p: &Pricing,
    ) -> Result<(Variant, Option<Variant>), VariantError> {
        let mut primary = match self.build_variant(w, p, Build::Primary) {
            Ok(v) => v,
            Err(e) => {
                if let (Some(m), Some(f)) = (e.machine_fault(), self.fault_state.as_mut()) {
                    f.on_gpu_result(true, matches!(m, MachineError::DeviceLost));
                }
                return Err(e);
            }
        };
        if primary.uses_gpu() {
            if let Some(f) = self.fault_state.as_mut() {
                f.on_gpu_result(false, false);
            }
        } else if p.degraded {
            primary.degraded = true;
        }
        let fallback = if self.serve.cpu_fallback && primary.uses_gpu() {
            self.build_variant(w, p, Build::CpuOnly).ok()
        } else {
            None
        };
        Ok((primary, fallback))
    }

    /// The segment-granular CPU-only degradation of a GPU job, carrying
    /// the segment retries its GPU attempts already spent.
    fn degraded(
        &mut self,
        w: &mut dyn Workload,
        p: &Pricing,
        retries: u32,
    ) -> Result<Variant, VariantError> {
        let mut v = self.build_variant(w, p, Build::CpuOnly)?;
        v.degraded = true;
        v.retries = retries;
        Ok(v)
    }

    /// Admits one arrival: price, compile, solo-measure, queue. `arrival`
    /// is the time the job's record (and latency) spans from — the
    /// admission event's time, or the original fleet-time submission of a
    /// migrated job.
    pub(super) fn admit(&mut self, mut job: StolenJob, arrival: f64) {
        if let Some(m) = &self.serve.metrics {
            m.inc("serve.submitted", 1);
        }
        let capacity = self.serve.queue_capacity;
        let measured = if self.queue.len() >= capacity {
            self.errors.push(ServeError::QueueFull {
                job: job.id,
                capacity,
            });
            Err(JobOutcome::QueueFull)
        } else {
            self.measure(&mut job)
        };
        match measured {
            Ok((primary, fallback)) => self.queue.push(Queued {
                job: StolenJob { arrival, ..job },
                primary,
                fallback,
                generation: self.replans,
            }),
            Err(outcome) => self.end_unrun(&job, self.now, outcome, None, self.replans),
        }
    }

    /// Prices and solo-measures an arriving job's shapes. A job carrying
    /// a checkpoint is a crash recovery: it resumes from there and
    /// compiles no CPU-only fallback (a fallback would re-run from
    /// scratch, forfeiting the saved levels); if its resume shape fails
    /// to build it is admitted as a restart. On failure the errors are
    /// recorded and the job's terminal outcome returned.
    fn measure(&mut self, job: &mut StolenJob) -> Result<(Variant, Option<Variant>), JobOutcome> {
        let id = job.id;
        let failed = |fault: FaultTag, retries: u32| JobOutcome::Failed { fault, retries };
        let params = self.params().map_err(|source| {
            let job = Some(id);
            self.errors.push(ServeError::Calibration { job, source });
            failed(FaultTag::Error, 0)
        })?;
        let shape = QueuedShape::of(job).map_err(|source| {
            self.errors.push(ServeError::Run { job: id, source });
            failed(FaultTag::Error, 0)
        })?;
        let p = self.pricing(params, &shape, self.breaker_open());
        if let Some(ck) = job.checkpoint.take().filter(|c| c.level > 0) {
            match self.build_variant(job.workload.as_mut(), &p, Build::Resume(&ck)) {
                Ok(v) => {
                    if let Some(m) = &self.serve.metrics {
                        m.inc("recovery.resumed", 1);
                    }
                    job.checkpoint = Some(ck);
                    return Ok((v, None));
                }
                Err(e) => self.errors.push(e.into_serve(id)),
            }
        }
        self.build_shapes(job.workload.as_mut(), &p).or_else(|e| {
            let retries = e.retries();
            let tag = e.machine_fault().map(tag_of);
            self.errors.push(e.into_serve(id));
            let tag = tag.ok_or(failed(FaultTag::Error, retries))?;
            // A device fault that survived the retry budget: re-compile
            // this job segment-granularly to its CPU-only shape instead of
            // failing it.
            match self.degraded(job.workload.as_mut(), &p, retries) {
                Ok(v) => Ok((v, None)),
                Err(e2) => {
                    self.errors.push(e2.into_serve(id));
                    Err(failed(tag, retries))
                }
            }
        })
    }

    /// Re-prices every still-queued job under the corrected parameters. A
    /// job whose re-pricing fails keeps its previous variants — replanning
    /// improves estimates, it must never kill a job.
    ///
    /// With a [`hpu_model::PlanCache`] attached (and no fault injection
    /// in play), a replan is a generation bump plus lazy re-fill: each
    /// queued job's spec recompiles through the cache — shared shapes
    /// compile once — and a job whose plan came out *identical* merely
    /// re-prices in place, skipping the redundant solo run (its measured
    /// demands replay the true machine, which calibration never changes).
    /// Only jobs whose plan structurally changed under the corrected
    /// parameters re-measure. Fault injection forces that slow path for
    /// every job, so the injector's event stream (fed by solo runs) stays
    /// exactly as before.
    ///
    /// With the GPU circuit breaker open, GPU specs re-compile straight to
    /// their CPU-only degradation: a replan racing a breaker trip must not
    /// compile (and solo-run) the doomed GPU shape a second time. Only jobs
    /// still in the queue are touched — a cancelled or dispatched job is
    /// already gone and can never be re-admitted by a replan.
    pub(super) fn replan(&mut self) {
        if let Some(c) = self.plan_cache.as_mut() {
            c.bump_generation();
        }
        let params = self.params();
        // Pricing sees the breaker as it stood when the replan began, even
        // if one of its solo runs trips it.
        let breaker_open = self.breaker_open();
        let lazy = self.fault_state.is_none() && self.plan_cache.is_some();
        let mut queue = std::mem::take(&mut self.queue);
        for q in queue.iter_mut() {
            // A crash-recovered job's variants cover only its resume
            // suffix; re-pricing the full shape here would silently turn
            // the resume into a restart. It keeps its pre-replan price
            // (and generation, so it never batches with re-priced shapes).
            if q.job.checkpoint.is_some() {
                continue;
            }
            let params = match &params {
                Ok(p) => p.clone(),
                Err(e) => {
                    self.errors.push(ServeError::Calibration {
                        job: Some(q.job.id),
                        source: e.clone(),
                    });
                    continue;
                }
            };
            let Ok(shape) = QueuedShape::of(&q.job) else {
                continue;
            };
            let p = self.pricing(params, &shape, breaker_open);
            if lazy && self.reprice_in_place(q, &p) {
                q.generation = self.replans;
                continue;
            }
            match self.build_shapes(q.job.workload.as_mut(), &p) {
                Ok((mut primary, fallback)) => {
                    primary.retries += q.primary.retries;
                    q.primary = primary;
                    q.fallback = fallback;
                    q.generation = self.replans;
                }
                Err(e) => {
                    if e.machine_fault().is_some() {
                        q.primary.retries += e.retries();
                    }
                }
            }
        }
        self.queue = queue;
    }

    /// The lazy replan path: when `q`'s spec recompiles to the plan it was
    /// measured under, re-price its variants in place (re-measuring only
    /// a fallback whose plan changed) and return `true`.
    fn reprice_in_place(&mut self, q: &mut Queued, p: &Pricing) -> bool {
        let Ok((plan, cost)) = self.compile(p, &p.spec) else {
            return false;
        };
        if *plan != *q.primary.plan {
            return false;
        }
        q.primary.reprice(plan, &cost, &p.params);
        if let Some(fb) = q.fallback.as_mut() {
            match self.compile(p, &ScheduleSpec::CpuParallel) {
                Ok((fp, fc)) if *fp == *fb.plan => fb.reprice(fp, &fc, &p.params),
                _ => {
                    q.fallback = self
                        .build_variant(q.job.workload.as_mut(), p, Build::CpuOnly)
                        .ok()
                }
            }
        }
        true
    }

    /// Trips the queue onto CPU-only shapes after the GPU circuit breaker
    /// opens: every queued GPU job swaps to its already-measured fallback
    /// variant when it has one (no re-compile — a trip racing a
    /// calibration replan must not price the same job twice) or
    /// re-compiles segment-granularly to `CpuParallel` otherwise.
    pub(super) fn degrade_queue(&mut self) {
        let params = self.params();
        let mut queue = std::mem::take(&mut self.queue);
        for q in queue.iter_mut() {
            // A resumed job keeps its measured suffix shape even with the
            // breaker open: recompiling a from-scratch CPU-only variant
            // would forfeit its saved levels, and its measured demands
            // replay deterministically through the calendars either way.
            if !q.primary.uses_gpu() || q.job.checkpoint.is_some() {
                continue;
            }
            let retries = q.primary.retries;
            if let Some(mut f) = q.fallback.take() {
                f.degraded = true;
                f.retries += retries;
                q.primary = f;
                continue;
            }
            let (Ok(params), Ok(shape)) = (&params, QueuedShape::of(&q.job)) else {
                continue;
            };
            let p = self.pricing(params.clone(), &shape, self.breaker_open());
            match self.degraded(q.job.workload.as_mut(), &p, retries) {
                Ok(v) => q.primary = v,
                // The CPU-only shape failing to build is not a device
                // problem; record it and leave the job as-is — its
                // measured demands still replay deterministically.
                Err(e) => self.errors.push(e.into_serve(q.job.id)),
            }
        }
        self.queue = queue;
    }
}
