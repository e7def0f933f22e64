//! Cross-job GPU batching (see [`BatchPolicy`]): the dispatch-order
//! winner may share each GPU launch with other queued jobs of the same
//! shape.

use hpu_model::batched_segment_time;
use hpu_obs::{SpanKind, Track};

use super::dispatch::Granted;
use super::{BatchRecord, NodeSim, Queued, SegKind, Variant};
use crate::arbiter::{DeviceArbiter, EPS};

#[cfg(doc)]
use super::BatchPolicy;

/// Whether a variant's shape can join a cross-job batch: it must drive
/// the device through at least one exclusive GPU band and carry no
/// concurrent split (a split's CPU half is already pinned to its own
/// GPU half — merging the device side would break the pairing).
fn batchable(v: &Variant) -> bool {
    let mut has_gpu = false;
    for d in &v.demands {
        match d.kind {
            SegKind::Split { .. } => return false,
            SegKind::Gpu => has_gpu |= d.gpu > EPS,
            SegKind::Cpu { .. } => {}
        }
    }
    has_gpu
}

/// Whether `b` may share a batched launch with `a`: same algorithm kind,
/// same calibration generation, and a structurally identical compiled
/// plan (same bands, placements and transfer edges — the definition of
/// "same-shaped kernels").
fn same_batch_shape(a: &Queued, b: &Queued) -> bool {
    batchable(&b.primary)
        && a.job.workload.kind() == b.job.workload.kind()
        && a.generation == b.generation
        && *a.primary.plan == *b.primary.plan
}

/// The fixed device cost batching will amortize across `queue` under a
/// batch bound of `bound`: each group of same-shaped batchable jobs runs
/// in ⌈k / bound⌉ launches, so the other copies of the group's shared
/// fixed cost go away.
pub(super) fn discount(queue: &[Queued], bound: usize) -> f64 {
    let mut grouped = vec![false; queue.len()];
    let mut discount = 0.0;
    for i in 0..queue.len() {
        if grouped[i] || !batchable(&queue[i].primary) {
            continue;
        }
        grouped[i] = true;
        let mut size = 1usize;
        let mut shared: f64 = queue[i].primary.fixed.iter().sum();
        // Indexes two slices (`grouped` and the queue) in lockstep.
        #[allow(clippy::needless_range_loop)]
        for j in (i + 1)..queue.len() {
            if grouped[j] || !same_batch_shape(&queue[i], &queue[j]) {
                continue;
            }
            grouped[j] = true;
            size += 1;
            shared = shared.min(queue[j].primary.fixed.iter().sum());
        }
        let amortized = size - size.div_ceil(bound);
        discount += amortized as f64 * shared;
    }
    discount
}

/// The committed (or probed) reservation layout of one batch.
struct BatchTimeline {
    /// Each member's grant, in the order the members were passed to
    /// [`lay_batch`]; it holds no calendar entries of its own, since a
    /// merged lease is not separable per member.
    granted: Vec<Granted>,
    /// The merged GPU windows, one per batched GPU segment, plan order.
    gpu_windows: Vec<(f64, f64)>,
    /// Total device time amortized away versus solo commits.
    saved: f64,
}

/// First granted (non-empty) window start, `fallback` if none.
fn window_start(windows: &[(f64, f64)], fallback: f64) -> f64 {
    windows
        .iter()
        .find(|w| w.1 - w.0 > EPS)
        .map_or(fallback, |w| w.0)
}

/// Last granted (non-empty) window end, `fallback` if none.
fn window_end(windows: &[(f64, f64)], fallback: f64) -> f64 {
    windows
        .iter()
        .rev()
        .find(|w| w.1 - w.0 > EPS)
        .map_or(fallback, |w| w.1)
}

/// Lays one batch's reservations on `arb` starting at `t0`: every GPU
/// segment becomes **one** merged lease held by all members jointly
/// (duration per [`batched_segment_time`] — one copy of the shared fixed
/// cost, everyone's payload), while CPU bands reserve per member from
/// the shared core pool. Segments are barriers: the batch moves to
/// segment `i + 1` only when every member finished segment `i` — the
/// price of sharing a launch.
///
/// `tick` sees every reservation's release time. The real commit
/// schedules a dispatch retry there; probing the same layout on a
/// *clone* of the arbiter, ignoring the ticks, answers "what would this
/// batch look like" without committing anything.
fn lay_batch(
    arb: &mut DeviceArbiter,
    t0: f64,
    members: &[&Variant],
    mut tick: impl FnMut(f64),
) -> BatchTimeline {
    let m = members.len();
    let segs = members[0].demands.len();
    let mut windows = vec![Vec::with_capacity(segs); m];
    let mut gpu_windows = Vec::new();
    let mut saved = 0.0;
    let mut t = t0;
    for si in 0..segs {
        match members[0].demands[si].kind {
            SegKind::Gpu => {
                let durs: Vec<f64> = members.iter().map(|v| v.demands[si].gpu).collect();
                let shared = members
                    .iter()
                    .map(|v| v.fixed.get(si).copied().unwrap_or(0.0))
                    .fold(f64::INFINITY, f64::min);
                let merged = batched_segment_time(&durs, shared);
                if merged.time <= EPS {
                    for w in windows.iter_mut() {
                        w.push((t, t));
                    }
                    continue;
                }
                let (s, e) = arb.reserve_gpu_batch(t, merged.time, m);
                tick(e);
                for w in windows.iter_mut() {
                    w.push((s, e));
                }
                gpu_windows.push((s, e));
                saved += merged.saved;
                t = e;
            }
            // Split never reaches here (`batchable` rejects it); the arm
            // keeps the match total and treats it like a CPU band.
            SegKind::Cpu { .. } | SegKind::Split { .. } => {
                let mut barrier = t;
                for (mi, v) in members.iter().enumerate() {
                    let d = &v.demands[si];
                    if d.len() <= EPS {
                        windows[mi].push((t, t));
                        continue;
                    }
                    let cores = match d.kind {
                        SegKind::Cpu { cores } | SegKind::Split { cores } => cores,
                        SegKind::Gpu => 1,
                    };
                    let (s, e) = arb.reserve_cpu(t, d.cpu, cores);
                    tick(e);
                    windows[mi].push((s, e));
                    barrier = barrier.max(e);
                }
                t = barrier;
            }
        }
    }
    let granted = windows
        .into_iter()
        .map(|windows| Granted {
            start: window_start(&windows, t0),
            end: window_end(&windows, t0),
            windows,
            resvs: Vec::new(),
        })
        .collect();
    BatchTimeline {
        granted,
        gpu_windows,
        saved,
    }
}

impl NodeSim {
    /// Tries to coalesce the dispatch-order winner `leader` with other
    /// same-shaped queued jobs into one batched launch. Returns whether a
    /// batch committed (the members are gone from the queue); `false`
    /// means the caller dispatches the leader solo, exactly as without
    /// batching.
    pub(super) fn try_batch(&mut self, order: &[usize], leader: usize, bound: usize) -> bool {
        let now = self.now;
        if !batchable(&self.queue[leader].primary) {
            return false;
        }
        // Companions in dispatch order — the policy's own ranking decides
        // who shares the launch, never an id or arrival re-sort.
        let mut member_qis: Vec<usize> = vec![leader];
        for &qi in order {
            if member_qis.len() >= bound {
                break;
            }
            if qi != leader && same_batch_shape(&self.queue[leader], &self.queue[qi]) {
                member_qis.push(qi);
            }
        }
        // Fairness guard: lay the batch on a scratch copy of the calendars
        // first. A member the merged windows would push past its deadline
        // is dropped (re-probing, since dropping changes the merge); a
        // batch that cannot start at this event, or that would make the
        // *leader* miss a deadline it meets solo, is abandoned entirely.
        loop {
            if member_qis.len() < 2 {
                return false;
            }
            let members: Vec<&Variant> = member_qis
                .iter()
                .map(|&qi| &self.queue[qi].primary)
                .collect();
            let lay = lay_batch(&mut self.arb.clone(), now, &members, |_| {});
            let batch_start = lay
                .granted
                .iter()
                .map(|g| g.start)
                .fold(f64::INFINITY, f64::min);
            if batch_start > now + EPS {
                return false;
            }
            let mut dropped = None;
            for (mi, &qi) in member_qis.iter().enumerate() {
                let q = &self.queue[qi];
                let Some(dl) = q.job.deadline else { continue };
                if lay.granted[mi].end + q.primary.overhang() > dl + EPS {
                    if qi == leader {
                        return false;
                    }
                    dropped = Some(mi);
                    break;
                }
            }
            match dropped {
                Some(mi) => {
                    member_qis.remove(mi);
                }
                None => break,
            }
        }
        // Commit the real calendars and pull the members off the queue,
        // keeping the dispatch-order pairing of member and windows.
        let members: Vec<&Variant> = member_qis
            .iter()
            .map(|&qi| &self.queue[qi].primary)
            .collect();
        let size = members.len();
        let events = &mut self.events;
        let lay = lay_batch(&mut self.arb, now, &members, |e| events.tick(e));
        let mut order_ix: Vec<usize> = (0..size).collect();
        order_ix.sort_by(|&a, &b| member_qis[b].cmp(&member_qis[a]));
        let mut taken: Vec<Option<Queued>> = (0..size).map(|_| None).collect();
        for ix in order_ix {
            taken[ix] = Some(self.queue.remove(member_qis[ix]));
        }
        // One launch span, attributed to every member: the merged device
        // window on the GPU track, parenting nothing — each member's own
        // GPU segment spans share its window, which is the attribution.
        let bs = lay
            .gpu_windows
            .iter()
            .map(|w| w.0)
            .fold(f64::INFINITY, f64::min)
            .min(now);
        let be = lay.gpu_windows.iter().map(|w| w.1).fold(now, f64::max);
        self.spans.push(
            Track::Gpu,
            bs,
            be,
            SpanKind::Batch {
                size: size as u32,
                saved: lay.saved,
            },
            None,
        );
        if let Some(m) = &self.serve.metrics {
            m.inc("batch.formed", 1);
            m.observe("batch.size", size as f64);
            m.observe("batch.amortized_savings", lay.saved);
        }
        let mut member_ids = Vec::with_capacity(size);
        for (q, granted) in taken.into_iter().zip(lay.granted) {
            let q = q.expect("every batch member was taken exactly once");
            member_ids.push(q.job.id);
            self.start_job(q.job, q.primary, false, q.generation, granted);
        }
        self.batches.push(BatchRecord {
            at: now,
            members: member_ids,
            windows: lay.gpu_windows,
            saved: lay.saved,
        });
        true
    }
}
