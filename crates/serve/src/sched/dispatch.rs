//! The dispatch round: at every event, queued jobs are offered the
//! calendars in policy order. Each job's segment chain is probed against
//! the reservation calendars, then committed — or the job is cancelled on
//! its deadline — and a dispatched job's records, spans and crash
//! registry entry are written in one place for solo and batched jobs
//! alike.

use hpu_model::Plan;
use hpu_obs::{JobOutcome, JobRecord, SpanKind, SpanSet, Track};

use super::{
    CheckpointPolicy, JobRun, NodeSim, PendingObs, Queued, Resv, RunningJob, SegDemand, SegKind,
    StolenJob, Variant,
};
use crate::arbiter::{DeviceArbiter, EPS};
use crate::error::ServeError;

/// The calendar grant of one dispatched job.
pub(super) struct Granted {
    /// First granted window start (the event time if nothing was granted).
    pub(super) start: f64,
    /// Last granted window end: the completion time the record claims.
    pub(super) end: f64,
    /// The granted `(start, end)` window of each demand, aligned index for
    /// index with the variant's `demands`; zero-length demands get the
    /// empty window `(t, t)`.
    pub(super) windows: Vec<(f64, f64)>,
    /// Every calendar entry made, for release on cancellation or crash
    /// (empty for batch members: a merged lease is not separable).
    pub(super) resvs: Vec<Resv>,
}

/// Lays `v`'s segment chain at or after `t0`, one demand after the
/// previous one ends (a job's segments occupy disjoint windows, so
/// placing earlier segments never moves later ones): `place(t, d)` grants
/// a non-empty demand its `(start, end)` at or after `t`, and `granted`
/// sees every demand's window, `(t, t)` for an empty one. Returns the
/// chain's `(start, end)`, `(t0, t0)` when every demand is empty.
fn walk_chain(
    v: &Variant,
    t0: f64,
    mut place: impl FnMut(f64, &SegDemand) -> (f64, f64),
    mut granted: impl FnMut((f64, f64)),
) -> (f64, f64) {
    let mut t = t0;
    let mut start = None;
    for d in &v.demands {
        if d.len() <= EPS {
            granted((t, t));
            continue;
        }
        let (s, e) = place(t, d);
        start.get_or_insert(s);
        granted((s, e));
        t = e;
    }
    (start.unwrap_or(t0), t)
}

/// Releases every calendar entry of a cancelled or crashed job back to
/// the arbiter, so later arrivals can reuse its slots.
pub(super) fn release_all(arb: &mut DeviceArbiter, resvs: &[Resv]) {
    for &r in resvs {
        match r {
            Resv::Gpu(s, e) => arb.release_gpu(s, e),
            Resv::Cpu(s, e, k) => arb.release_cpu(s, e, k),
        };
    }
}

/// The admitted checkpoint boundaries of one committed dispatch:
/// `(window_end, resume_level)` per granted plan segment except the last
/// (whose boundary is the job's completion, not a checkpoint), filtered
/// by the policy, ascending in time. Levels are absolute executor levels
/// even for a resume suffix.
fn checkpoint_boundaries(
    policy: CheckpointPolicy,
    plan: &Plan,
    windows: &[(f64, f64)],
) -> Vec<(f64, u32)> {
    if policy == CheckpointPolicy::Off {
        return Vec::new();
    }
    let last = plan.segments.len().saturating_sub(1);
    plan.segments
        .iter()
        .zip(windows.iter())
        .take(last)
        .filter_map(|(seg, &(_, we))| {
            let level = seg.last_level + 1;
            policy.admits(level).then_some((we, level))
        })
        .collect()
}

impl NodeSim {
    /// Earliest `(start, end)` the variant's segment chain can run at or
    /// after the current event against the calendars, without reserving
    /// anything.
    fn probe(&self, v: &Variant) -> (f64, f64) {
        let arb = &self.arb;
        let place = |t: f64, d: &SegDemand| {
            let s = match d.kind {
                SegKind::Cpu { cores } => arb.cpu_slot(t, d.cpu, cores),
                SegKind::Gpu => arb.gpu_slot(t, d.gpu),
                SegKind::Split { cores } => arb.pair_slot(t, d.cpu, cores, d.gpu),
            };
            (s, s + d.len())
        };
        walk_chain(v, self.now, place, |_| {})
    }

    /// Reserves the variant's segment chain exactly where [`Self::probe`]
    /// places it, and schedules a dispatch retry at every reservation
    /// release.
    fn commit(&mut self, v: &Variant) -> Granted {
        let mut resvs = Vec::new();
        let mut windows = Vec::with_capacity(v.demands.len());
        let (arb, events) = (&mut self.arb, &mut self.events);
        let place = |t: f64, d: &SegDemand| {
            let (s, e) = match d.kind {
                SegKind::Cpu { cores } => {
                    let (s, e) = arb.reserve_cpu(t, d.cpu, cores);
                    resvs.push(Resv::Cpu(s, e, cores));
                    (s, e)
                }
                SegKind::Gpu => {
                    let (s, e) = arb.reserve_gpu(t, d.gpu);
                    resvs.push(Resv::Gpu(s, e));
                    (s, e)
                }
                SegKind::Split { cores } => {
                    let (s, e) = arb.reserve_pair(t, d.cpu, cores, d.gpu);
                    if d.gpu > EPS {
                        resvs.push(Resv::Gpu(s, s + d.gpu));
                    }
                    if d.cpu > EPS {
                        resvs.push(Resv::Cpu(s, s + d.cpu, cores));
                    }
                    (s, e)
                }
            };
            events.tick(e);
            (s, e)
        };
        let (start, end) = walk_chain(v, self.now, place, |w| windows.push(w));
        Granted {
            start,
            end,
            windows,
            resvs,
        }
    }

    /// Offers the calendars to queued jobs in policy order until nothing
    /// more can start at the current event.
    pub(super) fn dispatch_all(&mut self) {
        let now = self.now;
        while !self.queue.is_empty() {
            let (order, rigid) = self.dispatch_order();
            let mut chosen: Option<(usize, bool)> = None;
            let mut cancels: Vec<usize> = Vec::new();
            for (pos, &qi) in order.iter().enumerate() {
                let q = &self.queue[qi];
                let (ps, pe) = self.probe(&q.primary);
                let (mut s, mut e, mut fb) = (ps, pe, false);
                if ps > now + EPS {
                    // Sampled at every dispatch round: how far away the
                    // earliest feasible start is for a job the calendars
                    // cannot place right now (GPU jobs: lease contention).
                    if let Some(m) = &self.serve.metrics {
                        if q.primary.uses_gpu() {
                            m.observe("arbiter.gpu_lease_wait", ps - now);
                        }
                    }
                    // Device lease contended: take the CPU-only shape if it
                    // starts now and finishes no later.
                    if let Some(f) = &q.fallback {
                        let (fs, fe) = self.probe(f);
                        if fs <= now + EPS && fe <= pe + EPS {
                            (s, e, fb) = (fs, fe, true);
                        }
                    }
                }
                if let Some(dl) = q.job.deadline {
                    // Projections only grow as reservations accumulate, so a
                    // completion past the deadline is already unmeetable.
                    if e > dl + EPS {
                        cancels.push(qi);
                        continue;
                    }
                }
                if s <= now + EPS {
                    chosen = Some((qi, fb));
                    break;
                }
                if pos < rigid {
                    // No backfilling past a rigid (FIFO or overdue) entry.
                    break;
                }
            }
            if !cancels.is_empty() {
                cancels.sort_unstable();
                for qi in cancels.into_iter().rev() {
                    let q = self.queue.remove(qi);
                    let arrival = q.job.arrival;
                    let shape = Some((&q.primary, false));
                    self.end_unrun(&q.job, arrival, JobOutcome::Cancelled, shape, q.generation);
                }
                continue;
            }
            let Some((qi, fb)) = chosen else {
                return;
            };
            // Cross-job coalescing: the policy's winner may share its launch
            // with other same-shaped queued jobs. Behind the `bound()` gate,
            // [`BatchPolicy::Off`] never reaches this call.
            if let Some(bound) = self.serve.batch.bound().filter(|_| !fb) {
                if self.try_batch(&order, qi, bound) {
                    continue;
                }
            }
            let Queued {
                job,
                primary,
                fallback,
                generation,
            } = self.queue.remove(qi);
            // A chosen fallback that vanished (it cannot, but never panic the
            // scheduler over it) degrades gracefully to the primary shape.
            let (v, fb) = match fallback.filter(|_| fb) {
                Some(f) => (f, true),
                None => (primary, false),
            };
            let granted = self.commit(&v);
            // Deadline-aware straggler cancellation (fault mode only): the
            // calendars only hold per-segment device demands, so a job whose
            // solo run carried overhang (retry backoff, straggler slowdown
            // waits) really finishes later than its last reservation. If that
            // true completion misses the deadline, cancel now and hand the
            // slots back.
            if let Some(dl) = job.deadline.filter(|_| self.fault_state.is_some()) {
                if granted.end + v.overhang() > dl + EPS {
                    release_all(&mut self.arb, &granted.resvs);
                    let arrival = job.arrival;
                    self.end_unrun(
                        &job,
                        arrival,
                        JobOutcome::Cancelled,
                        Some((&v, fb)),
                        generation,
                    );
                    continue;
                }
            }
            self.start_job(job, v, fb, generation, granted);
        }
    }

    /// Records a job that ends at the current event without running:
    /// rejected or failed at admission (`ran` is `None`; the record spans
    /// from `arrival`, the admission event), or cancelled on its deadline
    /// with the shape it would have run and whether that was its
    /// fallback.
    pub(super) fn end_unrun(
        &mut self,
        job: &StolenJob,
        arrival: f64,
        outcome: JobOutcome,
        ran: Option<(&Variant, bool)>,
        generation: u64,
    ) {
        let counter = match outcome {
            JobOutcome::QueueFull => Some("serve.rejected"),
            JobOutcome::Failed { .. } => Some("serve.failed"),
            JobOutcome::Cancelled => Some("serve.cancelled"),
            JobOutcome::Completed => None,
        };
        if let (Some(m), Some(c)) = (&self.serve.metrics, counter) {
            m.inc(c, 1);
        }
        if outcome == JobOutcome::Cancelled {
            self.errors.push(ServeError::Cancelled {
                job: job.id,
                deadline: job.deadline.unwrap_or(f64::NAN),
            });
        }
        let retries = match (ran, outcome) {
            (Some((v, _)), _) => v.retries,
            (None, JobOutcome::Failed { retries, .. }) => retries,
            (None, _) => 0,
        };
        self.records.push(JobRecord {
            id: job.id,
            name: job.name.clone(),
            outcome,
            arrival,
            start: self.now,
            end: self.now,
            predicted: ran.map_or(0.0, |(v, _)| v.cost),
            service: 0.0,
            fallback: ran.is_some_and(|(_, fb)| fb),
            retries,
            degraded: ran.is_some_and(|(v, _)| v.degraded),
            calibration_generation: generation,
        });
    }

    /// Books one dispatched job — solo or a batch member — at its granted
    /// windows: starvation credit for every older job it overtook, its
    /// calibration evidence (released at completion), metrics, its span
    /// tree, the completion record written optimistically now, its run
    /// report, and its crash-registry entry.
    pub(super) fn start_job(
        &mut self,
        job: StolenJob,
        v: Variant,
        fallback: bool,
        generation: u64,
        g: Granted,
    ) {
        let id = job.id;
        for other in self.queue.iter_mut() {
            if other.job.id < id {
                other.job.skips += 1;
            }
        }
        if self.calibrator.is_some() {
            let drift = if v.cost > 0.0 {
                (v.report.virtual_time - v.cost) / v.cost
            } else {
                0.0
            };
            self.pending.push(PendingObs {
                end: g.end,
                job: id,
                obs: v.obs,
                drift,
            });
        }
        if let Some(m) = &self.serve.metrics {
            m.inc("serve.completed", 1);
            m.observe("serve.admission_wait", g.start - job.arrival);
            m.observe("serve.latency", g.end - job.arrival);
            m.observe("serve.service", v.report.virtual_time);
        }
        push_job_spans(&mut self.spans, &job, &g, &v);
        self.records.push(JobRecord {
            id,
            name: job.name.clone(),
            outcome: JobOutcome::Completed,
            arrival: job.arrival,
            start: g.start,
            end: g.end,
            predicted: v.cost,
            service: v.report.virtual_time,
            fallback,
            retries: v.retries,
            degraded: v.degraded,
            calibration_generation: generation,
        });
        let boundaries = checkpoint_boundaries(self.serve.checkpoint, &v.plan, &g.windows);
        self.runs.push(JobRun {
            id,
            name: job.name.clone(),
            fallback,
            report: v.report,
        });
        self.running.push(RunningJob {
            job,
            end: g.end,
            boundaries,
            next_boundary: 0,
            resvs: g.resvs,
        });
    }
}

/// Records the causal span tree of one dispatched job: the job span over
/// its committed window, a segment span per granted reservation window,
/// the solo run's level rows laid *proportionally* inside their segment's
/// window (the calendars replay measured demands, not per-level
/// sub-schedules, so the level layout is causal but approximate), and a
/// zero-width retry marker when recovery retried.
fn push_job_spans(spans: &mut SpanSet, job: &StolenJob, g: &Granted, v: &Variant) {
    let (start, end) = (g.start, g.end);
    let job_span = spans.push(
        Track::Cpu,
        start,
        end,
        SpanKind::Job {
            job: job.id,
            name: job.name.clone(),
        },
        None,
    );
    if v.retries > 0 {
        spans.push(
            Track::Cpu,
            start,
            start,
            SpanKind::Retry { attempt: v.retries },
            Some(job_span),
        );
    }
    let last = v.demands.len().saturating_sub(1);
    for (i, (d, &(ws, we))) in v.demands.iter().zip(g.windows.iter()).enumerate() {
        if d.len() <= EPS {
            continue;
        }
        let (track, placement) = match d.kind {
            SegKind::Cpu { .. } => (Track::Cpu, "cpu"),
            SegKind::Gpu => (Track::Gpu, "gpu"),
            SegKind::Split { .. } => (Track::Gpu, "split"),
        };
        let seg_span = spans.push(
            track,
            ws,
            we,
            SpanKind::Segment {
                index: i as u32,
                placement: placement.to_string(),
            },
            Some(job_span),
        );
        let rows: Vec<_> = v
            .report
            .levels
            .iter()
            .filter(|r| r.segment.map(|s| s as usize).unwrap_or(0).min(last) == i)
            .collect();
        let total: f64 = rows.iter().map(|r| r.time.max(0.0)).sum();
        if total <= 0.0 {
            continue;
        }
        let mut t = ws;
        for row in rows {
            let dur = (we - ws) * row.time.max(0.0) / total;
            spans.push(
                track,
                t,
                t + dur,
                SpanKind::Level { level: row.level },
                Some(seg_span),
            );
            t += dur;
        }
    }
}
