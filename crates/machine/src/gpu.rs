//! The simulated GPU device (OpenCL-style, paper §3.1).
//!
//! A [`SimGpu`] owns device-resident [`DeviceBuffer`]s and executes *kernel
//! launches*: `N` work-items, each receiving its global id, run in waves of
//! `g` lanes (`⌈N/g⌉` waves per launch), every lane `γ⁻¹` times slower than
//! a CPU core. Work-items perform real work on the buffer and report their
//! cost to a [`GpuCtx`] as scalar operations; their memory traffic is
//! declared once for the whole launch as [`Stream`]s.
//!
//! ## Coalescing model
//!
//! A memory stream is a strided sequence of element accesses. It is
//! declared once per launch: work-item `i` touches `count` elements at
//! `base + i·advance`, `+step`, `+2·step`, …. Within a wave, a stream is
//! **coalesced** when adjacent work-items' bases differ by exactly 1,
//! i.e. when its per-item `advance` is 1: the lanes then access
//! consecutive words at each step, which the hardware serves in one
//! transaction. A single-item wave has no cross-lane conflicts and counts
//! as coalesced. Coalesced accesses cost 1 unit; uncoalesced ones cost
//! [`crate::GpuConfig::uncoalesced_penalty`]. This makes the paper's §6.3
//! permutation optimization directly measurable: the permuted layout turns
//! the merge's streams from advance-`2m` bases into consecutive bases.
//!
//! Two kinds of access are reported per work-item instead:
//!
//! - *Scatter* accesses ([`GpuCtx::scatter`]) go to data-dependent
//!   addresses and never coalesce.
//! - A [`Stream::ragged`] stream takes its element count from each item
//!   ([`GpuCtx::set_count`]). An item with count 0 does not use the
//!   stream, so its wave's streams no longer line up across lanes. Such a
//!   wave, in which some items use the ragged streams and others do not,
//!   is served wholly uncoalesced.
//!
//! A work-item costs its operations plus `count × unit` summed over its
//! streams, and a wave costs its dearest item. The fixed-count streams
//! cost every item of a wave the same amount, so a launch prices them
//! once per wave shape. With an integer-valued penalty (every shipped
//! configuration) every cost is an exact integer and the order of the
//! sums does not matter.
//!
//! ## Fidelity caveat
//!
//! Work-items execute sequentially (in id order) on the host; a data race
//! between items would not behave as on real SIMD hardware. In
//! [`crate::GpuConfig::strict`] mode the device rejects launches whose
//! declared write ranges overlap across items.

use std::sync::{Arc, Mutex};

use hpu_obs::EventKind;

use crate::config::GpuConfig;
use crate::error::MachineError;
use crate::fault::{FaultInjector, FaultKind};
use crate::timeline::{Timeline, Unit};

/// A typed buffer resident in the device's global memory.
///
/// Created by [`SimGpu::alloc`]; filled via `SimHpu::upload` or by kernels.
#[derive(Debug)]
pub struct DeviceBuffer<T> {
    pub(crate) data: Vec<T>,
    id: u64,
}

impl<T> DeviceBuffer<T> {
    /// Number of elements.
    pub fn len(&self) -> usize {
        self.data.len()
    }

    /// Whether the buffer holds no elements.
    pub fn is_empty(&self) -> bool {
        self.data.is_empty()
    }

    /// Device-unique buffer id.
    pub fn id(&self) -> u64 {
        self.id
    }

    /// Host-side debugging view of the device contents. Free of (virtual)
    /// charge — use [`crate::SimHpu::download`] for an accounted transfer.
    pub fn debug_view(&self) -> &[T] {
        &self.data
    }

    /// Host-side initialization of the device contents, free of (virtual)
    /// charge — for tests and probe setup where the transfer itself must
    /// not appear on any timeline. Use [`crate::SimHpu::upload_into`] for
    /// an accounted transfer.
    ///
    /// # Panics
    /// Panics if `data` is longer than the buffer.
    pub fn debug_fill(&mut self, data: &[T])
    where
        T: Clone,
    {
        self.data[..data.len()].clone_from_slice(data);
    }
}

/// A memory stream declared once per launch.
///
/// Work-item `i` accesses `count` elements of buffer `buf` (tag `0` or `1`,
/// see [`SimGpu::launch2`]) at `base + i·advance + k·step` for
/// `k = 0, 1, …, count−1`. A [`Stream::ragged`] stream takes its count
/// from each work-item instead ([`GpuCtx::set_count`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Stream {
    buf: u8,
    base: usize,
    advance: usize,
    count: usize,
    step: usize,
    write: bool,
    ragged: bool,
}

impl Stream {
    /// A read stream: work-item `i` reads `count` elements of `buf` at
    /// `base + i·advance`, then every `step` elements.
    pub const fn read(buf: u8, base: usize, advance: usize, count: usize, step: usize) -> Self {
        Stream {
            buf,
            base,
            advance,
            count,
            step,
            write: false,
            ragged: false,
        }
    }

    /// A write stream, laid out as in [`Stream::read`].
    pub const fn write(buf: u8, base: usize, advance: usize, count: usize, step: usize) -> Self {
        Stream {
            write: true,
            ..Stream::read(buf, base, advance, count, step)
        }
    }

    /// Makes the element count per-item: every work-item reports it with
    /// [`GpuCtx::set_count`] (0 when it reports none), and the declared
    /// count is ignored.
    pub const fn ragged(self) -> Self {
        Stream {
            ragged: true,
            ..self
        }
    }

    /// First and last address work-item `id` touches with `count ≥ 1`
    /// elements (saturating, so an overflow reads as out of bounds).
    fn span(&self, id: usize, count: usize) -> (usize, usize) {
        let base = self.base.saturating_add(id.saturating_mul(self.advance));
        let last = base.saturating_add((count - 1).saturating_mul(self.step));
        (base, last)
    }

    /// The first work-item below `n_items` whose accesses leave a buffer
    /// of `len` elements, or `n_items` if none does. Fixed counts only.
    fn first_out_of_bounds(&self, len: usize, n_items: usize) -> usize {
        let (_, last) = self.span(0, self.count);
        if last >= len {
            0
        } else if self.advance == 0 {
            n_items
        } else {
            (len - last).div_ceil(self.advance).min(n_items)
        }
    }
}

/// Cost-accounting context handed to every GPU work-item: its scalar
/// operations, its data-dependent accesses and the element count of the
/// launch's ragged streams. Strided accesses are declared per launch as
/// [`Stream`]s.
#[derive(Debug, Default)]
pub struct GpuCtx {
    ops: u64,
    scatter: u64,
    count: usize,
}

impl GpuCtx {
    /// Charges `n` scalar operations.
    #[inline]
    pub fn charge_ops(&mut self, n: u64) {
        self.ops += n;
    }

    /// Charges `n` reads or writes at data-dependent addresses (never
    /// coalesced; exempt from the strict overlap check).
    #[inline]
    pub fn scatter(&mut self, n: u64) {
        self.scatter += n;
    }

    /// Sets this work-item's element count on every ragged stream of the
    /// launch.
    #[inline]
    pub fn set_count(&mut self, n: usize) {
        self.count = n;
    }
}

/// Per-item memory cost of some strided streams, and the accesses among
/// it served coalesced and uncoalesced.
#[derive(Debug, Default, Clone, Copy)]
struct StreamCost {
    cost: f64,
    co: u64,
    un: u64,
}

/// The memory charge of a launch's streams under one wave shape: `fixed`
/// per item for the fixed-count streams, `ragged` per element of an
/// item's ragged count.
#[derive(Debug, Default, Clone, Copy)]
struct Rate {
    fixed: StreamCost,
    ragged: StreamCost,
}

impl Rate {
    /// Sums the streams in declaration order, each served coalesced iff
    /// `coalesces` says so.
    fn of(streams: &[Stream], penalty: f64, coalesces: impl Fn(&Stream) -> bool) -> Rate {
        let mut r = Rate::default();
        for s in streams {
            let (c, n) = if s.ragged {
                (&mut r.ragged, 1)
            } else {
                (&mut r.fixed, s.count)
            };
            if coalesces(s) {
                c.cost += n as f64;
                c.co += n as u64;
            } else {
                c.cost += n as f64 * penalty;
                c.un += n as u64;
            }
        }
        r
    }
}

/// Statistics of one kernel launch.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct LaunchStats {
    /// Number of work-items.
    pub items: usize,
    /// Number of waves (`⌈items/g⌉`).
    pub waves: usize,
    /// Virtual duration of the launch.
    pub time: f64,
    /// Memory accesses served coalesced.
    pub coalesced: u64,
    /// Memory accesses served uncoalesced.
    pub uncoalesced: u64,
}

/// Cumulative device statistics.
#[derive(Debug, Default, Clone, Copy, PartialEq)]
pub struct GpuStats {
    /// Kernel launches executed.
    pub launches: u64,
    /// Total waves executed.
    pub waves: u64,
    /// Total work-items executed.
    pub items: u64,
    /// Total busy time of the device.
    pub busy: f64,
}

/// The simulated GPU device with its own virtual clock.
#[derive(Debug)]
pub struct SimGpu {
    cfg: GpuConfig,
    clock: f64,
    allocated: usize,
    next_id: u64,
    stats: GpuStats,
    timeline: Option<Arc<Mutex<Timeline>>>,
    faults: Option<Arc<Mutex<FaultInjector>>>,
}

impl SimGpu {
    /// Creates a device from its configuration.
    pub fn new(cfg: GpuConfig) -> Self {
        SimGpu {
            cfg,
            clock: 0.0,
            allocated: 0,
            next_id: 0,
            stats: GpuStats::default(),
            timeline: None,
            faults: None,
        }
    }

    /// Attaches a shared timeline for event logging.
    pub fn with_timeline(mut self, t: Arc<Mutex<Timeline>>) -> Self {
        self.timeline = Some(t);
        self
    }

    /// Attaches a shared fault injector: every launch consults it.
    pub fn attach_faults(&mut self, inj: Arc<Mutex<FaultInjector>>) {
        self.faults = Some(inj);
    }

    /// Device configuration.
    pub fn config(&self) -> &GpuConfig {
        &self.cfg
    }

    /// Current virtual time of this unit.
    pub fn clock(&self) -> f64 {
        self.clock
    }

    /// Advances the clock to `t` if it is behind.
    pub fn advance_to(&mut self, t: f64) {
        if t > self.clock {
            self.clock = t;
        }
    }

    /// Cumulative statistics.
    pub fn stats(&self) -> GpuStats {
        self.stats
    }

    /// Bytes currently allocated in global memory.
    pub fn allocated_bytes(&self) -> usize {
        self.allocated
    }

    /// Allocates a zero-initialized buffer of `len` elements.
    pub fn alloc<T: Default + Clone>(
        &mut self,
        len: usize,
    ) -> Result<DeviceBuffer<T>, MachineError> {
        let bytes = len * std::mem::size_of::<T>();
        let available = self.cfg.global_mem_bytes.saturating_sub(self.allocated);
        if bytes > available {
            return Err(MachineError::OutOfDeviceMemory {
                requested: bytes,
                available,
            });
        }
        self.allocated += bytes;
        self.next_id += 1;
        Ok(DeviceBuffer {
            data: vec![T::default(); len],
            id: self.next_id,
        })
    }

    /// Frees a buffer, returning its memory to the device.
    pub fn free<T>(&mut self, buf: DeviceBuffer<T>) {
        self.allocated = self
            .allocated
            .saturating_sub(buf.data.len() * std::mem::size_of::<T>());
    }

    /// Launches a kernel over one buffer: `n_items` work-items execute
    /// `kernel(global_id, ctx, data)` in waves of `g` lanes, accessing
    /// memory as `streams` declare (buffer tag `0`).
    pub fn launch<T>(
        &mut self,
        label: &str,
        n_items: usize,
        streams: &[Stream],
        buf: &mut DeviceBuffer<T>,
        mut kernel: impl FnMut(usize, &mut GpuCtx, &mut [T]),
    ) -> Result<LaunchStats, MachineError> {
        let lens = [buf.data.len(), 0];
        let data = &mut buf.data;
        self.launch_impl(label, n_items, streams, lens, |id, ctx| {
            kernel(id, ctx, data)
        })
    }

    /// Launches a kernel over two buffers (e.g. a permutation with distinct
    /// source and destination). Buffer tags in [`Stream`]s: `0` for `a`,
    /// `1` for `b`.
    pub fn launch2<T, U>(
        &mut self,
        label: &str,
        n_items: usize,
        streams: &[Stream],
        a: &mut DeviceBuffer<T>,
        b: &mut DeviceBuffer<U>,
        mut kernel: impl FnMut(usize, &mut GpuCtx, &mut [T], &mut [U]),
    ) -> Result<LaunchStats, MachineError> {
        let lens = [a.data.len(), b.data.len()];
        let da = &mut a.data;
        let db = &mut b.data;
        self.launch_impl(label, n_items, streams, lens, |id, ctx| {
            kernel(id, ctx, da, db)
        })
    }

    fn launch_impl(
        &mut self,
        label: &str,
        n_items: usize,
        streams: &[Stream],
        lens: [usize; 2],
        mut run: impl FnMut(usize, &mut GpuCtx),
    ) -> Result<LaunchStats, MachineError> {
        if n_items == 0 {
            return Err(MachineError::EmptyLaunch);
        }
        // Fault injection decides before any work-item runs, so a faulted
        // launch never mutates device data and a whole-segment retry is
        // safe. A transient fault still burns the launch overhead; device
        // loss fails instantly.
        let mut slowdown = 1.0;
        if let Some(inj) = &self.faults {
            let (ordinal, fault) = inj.lock().unwrap().on_launch();
            match fault {
                Some(FaultKind::DeviceLost) => {
                    self.record_fault(label, self.clock, self.clock, false);
                    return Err(MachineError::DeviceLost);
                }
                Some(FaultKind::TransientKernel) => {
                    let t0 = self.clock;
                    self.clock += self.cfg.launch_overhead;
                    self.record_fault(label, t0, self.clock, true);
                    return Err(MachineError::DeviceFault { launch: ordinal });
                }
                Some(FaultKind::Slowdown { factor }) => slowdown = factor.max(1.0),
                Some(FaultKind::TransferError) | None => {}
            }
        }
        let lanes = self.cfg.lanes.max(1);
        let penalty = self.cfg.uncoalesced_penalty;
        let ragged = streams.iter().any(|s| s.ragged);
        // Items from here on may leave a buffer through a fixed stream;
        // ragged streams are checked on every item.
        let oob_from = streams
            .iter()
            .filter(|s| !s.ragged && s.count > 0)
            .map(|s| s.first_out_of_bounds(lens[s.buf as usize], n_items))
            .min()
            .unwrap_or(n_items);
        // The three wave shapes: one item (nothing to conflict with), many
        // items (a slot coalesces iff adjacent bases are 1 apart), and
        // many items whose ragged counts are zero on some items only
        // (the slots no longer line up: everything uncoalesced).
        let single = Rate::of(streams, penalty, |_| true);
        let multi = Rate::of(streams, penalty, |s| s.advance == 1);
        let diverged = Rate::of(streams, penalty, |_| false);

        let mut time = self.cfg.launch_overhead;
        let mut waves = 0usize;
        let mut coalesced = 0u64;
        let mut uncoalesced = 0u64;
        // Strict mode: declared write progressions over the whole launch,
        // as (step, residue, base, last, item).
        let mut write_ranges: Vec<(usize, usize, usize, usize, usize)> = Vec::new();

        let mut start = 0usize;
        while start < n_items {
            let end = (start + lanes).min(n_items);
            let rate = if end - start == 1 { &single } else { &multi };
            // Per-item cost excluding the fixed streams, which cost every
            // item the same: the wave maximum, also under the diverged
            // rate, and the wave's scatter and ragged element totals.
            let mut var_max = 0.0_f64;
            let mut var_max_diverged = 0.0_f64;
            let (mut scatter, mut elems) = (0u64, 0u64);
            let (mut any_empty, mut any_full) = (false, false);
            for id in start..end {
                let mut ctx = GpuCtx::default();
                run(id, &mut ctx);
                if id >= oob_from || ragged {
                    check_bounds(streams, lens, id, ctx.count)?;
                }
                if self.cfg.strict {
                    for s in streams.iter().filter(|s| s.write) {
                        let count = if s.ragged { ctx.count } else { s.count };
                        if count > 0 {
                            // Key by (step, residue class): two arithmetic
                            // progressions with the same step intersect iff
                            // they share a residue and their spans overlap.
                            // Progressions of different shapes are skipped
                            // (best-effort detection, no false positives on
                            // interleaved column writes).
                            let step = s.step.max(1);
                            let (base, _) = s.span(id, 1);
                            let hi = base + (count - 1) * step;
                            write_ranges.push((step, base % step, base, hi, id));
                        }
                    }
                }
                let var = ctx.ops as f64 + ctx.scatter as f64 * penalty;
                let n = ctx.count as f64;
                var_max = var_max.max(var + n * rate.ragged.cost);
                var_max_diverged = var_max_diverged.max(var + n * diverged.ragged.cost);
                scatter += ctx.scatter;
                elems += ctx.count as u64;
                any_empty |= ctx.count == 0;
                any_full |= ctx.count > 0;
            }
            let (rate, var_max) = if ragged && any_empty && any_full {
                (&diverged, var_max_diverged)
            } else {
                (rate, var_max)
            };
            // Rounding is monotone, so adding the items' common fixed cost
            // after the maximum gives the same bits as adding it per item.
            time += (var_max + rate.fixed.cost) * self.cfg.gamma_inv;
            let items = (end - start) as u64;
            coalesced += items * rate.fixed.co + elems * rate.ragged.co;
            uncoalesced += items * rate.fixed.un + elems * rate.ragged.un + scatter;
            waves += 1;
            start = end;
        }

        if self.cfg.strict && write_ranges.len() > 1 {
            write_ranges.sort_unstable();
            for w in write_ranges.windows(2) {
                let (step_a, res_a, _lo_a, hi_a, ia) = w[0];
                let (step_b, res_b, lo_b, _hi_b, ib) = w[1];
                if step_a == step_b && res_a == res_b && ia != ib && lo_b <= hi_a {
                    return Err(MachineError::WriteOverlap { a: ia, b: ib });
                }
            }
        }

        time *= slowdown;
        let t0 = self.clock;
        self.clock += time;
        self.stats.launches += 1;
        self.stats.waves += waves as u64;
        self.stats.items += n_items as u64;
        self.stats.busy += time;
        if let Some(t) = &self.timeline {
            t.lock().unwrap().record_kind(
                Unit::Gpu,
                t0,
                self.clock,
                EventKind::Kernel {
                    name: label.to_string(),
                    items: n_items as u64,
                    waves: waves as u64,
                    coalesced,
                    uncoalesced,
                },
            );
        }
        Ok(LaunchStats {
            items: n_items,
            waves,
            time,
            coalesced,
            uncoalesced,
        })
    }

    fn record_fault(&self, label: &str, t0: f64, t1: f64, transient: bool) {
        if let Some(t) = &self.timeline {
            t.lock().unwrap().record_kind(
                Unit::Gpu,
                t0,
                t1,
                EventKind::Fault {
                    label: label.to_string(),
                    transient,
                },
            );
        }
    }
}

/// Fails with the first stream, in declaration order, that takes
/// work-item `id` (with ragged count `count`) outside its buffer.
fn check_bounds(
    streams: &[Stream],
    lens: [usize; 2],
    id: usize,
    count: usize,
) -> Result<(), MachineError> {
    for s in streams {
        let count = if s.ragged { count } else { s.count };
        if count == 0 {
            continue;
        }
        let len = lens[s.buf as usize];
        let (_, last) = s.span(id, count);
        if last >= len {
            return Err(MachineError::OutOfBounds {
                item: id,
                addr: last,
                len,
            });
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::MachineConfig;

    fn gpu() -> SimGpu {
        SimGpu::new(MachineConfig::tiny().gpu) // 8 lanes, γ⁻¹=4, U=4, strict
    }

    #[test]
    fn alloc_and_free_track_memory() {
        let mut g = gpu();
        let buf = g.alloc::<u32>(100).unwrap();
        assert_eq!(g.allocated_bytes(), 400);
        assert_eq!(buf.len(), 100);
        g.free(buf);
        assert_eq!(g.allocated_bytes(), 0);
    }

    #[test]
    fn alloc_beyond_capacity_fails() {
        let mut g = gpu(); // 1 MiB
        let err = g.alloc::<u64>(1 << 20).unwrap_err();
        assert!(matches!(err, MachineError::OutOfDeviceMemory { .. }));
    }

    #[test]
    fn empty_launch_rejected() {
        let mut g = gpu();
        let mut buf = g.alloc::<u32>(8).unwrap();
        let err = g.launch("k", 0, &[], &mut buf, |_, _, _| {}).unwrap_err();
        assert_eq!(err, MachineError::EmptyLaunch);
    }

    #[test]
    fn wave_count_is_ceiling() {
        let mut g = gpu(); // 8 lanes
        let mut buf = g.alloc::<u32>(64).unwrap();
        let st = g
            .launch(
                "k",
                20,
                &[Stream::write(0, 0, 1, 1, 1)],
                &mut buf,
                |id, ctx, data| {
                    data[id] = id as u32;
                    ctx.charge_ops(1);
                },
            )
            .unwrap();
        assert_eq!(st.waves, 3); // ceil(20/8)
        assert_eq!(st.items, 20);
    }

    #[test]
    fn kernel_actually_computes() {
        let mut g = gpu();
        let mut buf = g.alloc::<u32>(16).unwrap();
        g.launch(
            "fill",
            16,
            &[Stream::write(0, 0, 1, 1, 1)],
            &mut buf,
            |id, ctx, data| {
                data[id] = (id * id) as u32;
                ctx.charge_ops(1);
            },
        )
        .unwrap();
        assert_eq!(buf.debug_view()[5], 25);
    }

    #[test]
    fn coalesced_bases_cost_less() {
        let mut g = gpu();
        let mut buf = g.alloc::<u32>(64).unwrap();
        // Consecutive bases across the 8 lanes: coalesced.
        let st_co = g
            .launch(
                "co",
                8,
                &[Stream::read(0, 0, 1, 4, 8)],
                &mut buf,
                |_, _, _| {},
            )
            .unwrap();
        // Bases 8 apart: uncoalesced.
        let st_un = g
            .launch(
                "un",
                8,
                &[Stream::read(0, 0, 8, 4, 1)],
                &mut buf,
                |_, _, _| {},
            )
            .unwrap();
        assert_eq!(st_co.coalesced, 32);
        assert_eq!(st_co.uncoalesced, 0);
        assert_eq!(st_un.coalesced, 0);
        assert_eq!(st_un.uncoalesced, 32);
        // 4 accesses * U=4 vs 4 accesses * 1, γ⁻¹ = 4.
        assert_eq!(st_co.time, 4.0 * 4.0);
        assert_eq!(st_un.time, 16.0 * 4.0);
    }

    #[test]
    fn single_item_wave_counts_as_coalesced() {
        let mut g = gpu();
        let mut buf = g.alloc::<u32>(64).unwrap();
        let st = g
            .launch(
                "solo",
                1,
                &[Stream::read(0, 17, 0, 4, 3)],
                &mut buf,
                |_, ctx, _| {
                    ctx.charge_ops(2);
                },
            )
            .unwrap();
        assert_eq!(st.coalesced, 4);
        assert_eq!(st.time, (2.0 + 4.0) * 4.0);
    }

    #[test]
    fn scatter_never_coalesces() {
        let mut g = gpu();
        let mut buf = g.alloc::<u32>(64).unwrap();
        let st = g
            .launch("sc", 1, &[], &mut buf, |_, ctx, _| ctx.scatter(10))
            .unwrap();
        assert_eq!(st.uncoalesced, 10);
    }

    #[test]
    fn wave_time_is_max_item_cost() {
        let mut g = gpu();
        let mut buf = g.alloc::<u32>(64).unwrap();
        let st = g
            .launch("k", 8, &[], &mut buf, |id, ctx, _| {
                ctx.charge_ops(if id == 3 { 100 } else { 1 });
            })
            .unwrap();
        assert_eq!(st.time, 100.0 * 4.0);
    }

    #[test]
    fn out_of_bounds_stream_detected() {
        let mut g = gpu();
        let mut buf = g.alloc::<u32>(8).unwrap();
        let err = g
            .launch(
                "oob",
                1,
                &[Stream::read(0, 4, 0, 8, 1)],
                &mut buf,
                |_, _, _| {},
            )
            .unwrap_err();
        assert!(matches!(err, MachineError::OutOfBounds { len: 8, .. }));
    }

    #[test]
    fn strict_mode_rejects_overlapping_writes() {
        let mut g = gpu();
        let mut buf = g.alloc::<u32>(64).unwrap();
        let err = g
            // Every item writes [0..4): a race.
            .launch(
                "racy",
                4,
                &[Stream::write(0, 0, 0, 4, 1)],
                &mut buf,
                |_, _, _| {},
            )
            .unwrap_err();
        assert!(matches!(err, MachineError::WriteOverlap { .. }));
    }

    #[test]
    fn disjoint_writes_pass_strict_mode() {
        let mut g = gpu();
        let mut buf = g.alloc::<u32>(64).unwrap();
        assert!(g
            .launch(
                "ok",
                4,
                &[Stream::write(0, 0, 4, 4, 1)],
                &mut buf,
                |id, _, data| {
                    for k in 0..4 {
                        data[id * 4 + k] = 1;
                    }
                }
            )
            .is_ok());
    }

    #[test]
    fn launch2_addresses_both_buffers() {
        let mut g = gpu();
        let mut a = g.alloc::<u32>(16).unwrap();
        let mut b = g.alloc::<u32>(16).unwrap();
        // Copy a -> b reversed.
        g.launch(
            "init",
            16,
            &[Stream::write(0, 0, 1, 1, 1)],
            &mut a,
            |id, _, d| {
                d[id] = id as u32;
            },
        )
        .unwrap();
        g.launch2(
            "rev",
            16,
            &[Stream::read(0, 0, 1, 1, 1)],
            &mut a,
            &mut b,
            |id, ctx, a, b| {
                b[15 - id] = a[id];
                ctx.scatter(1);
            },
        )
        .unwrap();
        assert_eq!(b.debug_view()[0], 15);
        assert_eq!(b.debug_view()[15], 0);
    }

    #[test]
    fn launch2_validates_second_buffer_bounds() {
        let mut g = gpu();
        let mut a = g.alloc::<u32>(16).unwrap();
        let mut b = g.alloc::<u32>(4).unwrap();
        let err = g
            .launch2(
                "oob",
                1,
                &[Stream::write(1, 0, 0, 8, 1)],
                &mut a,
                &mut b,
                |_, _, _, _| {},
            )
            .unwrap_err();
        assert!(matches!(err, MachineError::OutOfBounds { len: 4, .. }));
    }

    #[test]
    fn saturation_knee_at_lane_count() {
        // Fixed total work split across N items: time falls as 1/N until
        // N = lanes, then flattens — the Figure 5 shape.
        let mut g = SimGpu::new(GpuConfig {
            lanes: 8,
            gamma_inv: 2.0,
            uncoalesced_penalty: 1.0,
            global_mem_bytes: 1 << 20,
            launch_overhead: 0.0,
            strict: false,
        });
        let mut buf = g.alloc::<u32>(1024).unwrap();
        let total = 1024u64;
        let t = |g: &mut SimGpu, buf: &mut DeviceBuffer<u32>, n: usize| {
            g.launch("sum", n, &[], buf, |_, ctx, _| {
                ctx.charge_ops(total / n as u64);
            })
            .unwrap()
            .time
        };
        let t4 = t(&mut g, &mut buf, 4);
        let t8 = t(&mut g, &mut buf, 8);
        let t16 = t(&mut g, &mut buf, 16);
        let t32 = t(&mut g, &mut buf, 32);
        assert!(t4 > t8, "time should fall until saturation");
        // Past the knee the time stays flat.
        assert!((t16 - t8).abs() < 1e-9);
        assert!((t32 - t8).abs() < 1e-9);
    }

    #[test]
    fn clock_and_stats_accumulate() {
        let mut g = gpu();
        let mut buf = g.alloc::<u32>(64).unwrap();
        g.launch("a", 8, &[], &mut buf, |_, ctx, _| ctx.charge_ops(10))
            .unwrap();
        g.launch("b", 16, &[], &mut buf, |_, ctx, _| ctx.charge_ops(10))
            .unwrap();
        assert_eq!(g.stats().launches, 2);
        assert_eq!(g.stats().items, 24);
        assert_eq!(g.stats().waves, 3);
        assert_eq!(g.clock(), 40.0 + 80.0);
    }

    /// The per-item rule that per-launch declarations replaced, kept as
    /// the reference: every work-item lists its own streams, and each wave
    /// resolves coalescing slot by slot across its items.
    mod per_item {
        use crate::config::GpuConfig;
        use crate::error::MachineError;

        /// One stream call of a work-item, in call order.
        #[derive(Debug, Clone, Copy)]
        pub enum Call {
            Strided {
                buf: u8,
                base: usize,
                count: usize,
                step: usize,
                write: bool,
            },
            Scatter {
                count: usize,
            },
        }

        #[derive(Debug, Clone, Copy)]
        struct Listed {
            buf: u8,
            base: usize,
            count: usize,
            scatter: bool,
        }

        /// `(time, waves, coalesced, uncoalesced)` of a launch whose item
        /// `id` charges `items(id).0` operations and makes the calls
        /// `items(id).1`.
        pub fn launch(
            cfg: &GpuConfig,
            n_items: usize,
            lens: [usize; 2],
            items: impl Fn(usize) -> (u64, Vec<Call>),
        ) -> Result<(f64, usize, u64, u64), MachineError> {
            let lanes = cfg.lanes.max(1);
            let penalty = cfg.uncoalesced_penalty;
            let mut time = cfg.launch_overhead;
            let (mut waves, mut coalesced, mut uncoalesced) = (0usize, 0u64, 0u64);
            let mut write_ranges = Vec::new();
            let mut start = 0usize;
            while start < n_items {
                let end = (start + lanes).min(n_items);
                let mut wave: Vec<(u64, Vec<Listed>)> = Vec::new();
                for id in start..end {
                    let (ops, calls) = items(id);
                    let mut listed = Vec::new();
                    for call in calls {
                        match call {
                            Call::Strided { count: 0, .. } => {}
                            Call::Strided {
                                buf,
                                base,
                                count,
                                step,
                                write,
                            } => {
                                let len = lens[buf as usize];
                                let last = base + (count - 1) * step;
                                if base >= len || last >= len {
                                    return Err(MachineError::OutOfBounds {
                                        item: id,
                                        addr: last.max(base),
                                        len,
                                    });
                                }
                                if write && cfg.strict {
                                    let step = step.max(1);
                                    let hi = base + (count - 1) * step;
                                    write_ranges.push((step, base % step, base, hi, id));
                                }
                                listed.push(Listed {
                                    buf,
                                    base,
                                    count,
                                    scatter: false,
                                });
                            }
                            Call::Scatter { count } => listed.push(Listed {
                                buf: 0,
                                base: 0,
                                count,
                                scatter: true,
                            }),
                        }
                    }
                    wave.push((ops, listed));
                }
                let slots = wave[0].1.len();
                let uniform = wave.iter().all(|(_, l)| l.len() == slots);
                let slot_coalesced: Vec<bool> = (0..slots)
                    .map(|k| {
                        uniform
                            && wave.windows(2).all(|w| {
                                let (prev, cur) = (w[0].1[k], w[1].1[k]);
                                !prev.scatter
                                    && !cur.scatter
                                    && cur.buf == prev.buf
                                    && cur.base == prev.base + 1
                            })
                    })
                    .collect();
                let mut wave_max = 0.0_f64;
                for (ops, listed) in &wave {
                    let mut mem = 0.0;
                    for (k, l) in listed.iter().enumerate() {
                        let co =
                            !l.scatter && (wave.len() == 1 || slot_coalesced.get(k) == Some(&true));
                        mem += l.count as f64 * if co { 1.0 } else { penalty };
                        *(if co { &mut coalesced } else { &mut uncoalesced }) += l.count as u64;
                    }
                    wave_max = wave_max.max(*ops as f64 + mem);
                }
                time += wave_max * cfg.gamma_inv;
                waves += 1;
                start = end;
            }
            write_ranges.sort_unstable();
            for w in write_ranges.windows(2) {
                let (step_a, res_a, _, hi_a, ia) = w[0];
                let (step_b, res_b, lo_b, _, ib) = w[1];
                if step_a == step_b && res_a == res_b && ia != ib && lo_b <= hi_a {
                    return Err(MachineError::WriteOverlap { a: ia, b: ib });
                }
            }
            Ok((time, waves, coalesced, uncoalesced))
        }
    }

    #[test]
    fn declared_streams_charge_like_the_per_item_rule() {
        use per_item::Call;
        let mut draws = 0u64;
        let mut rand = |m: usize| {
            draws += 1;
            (crate::fault::mix(0x5EED_0000 + draws) % m as u64) as usize
        };
        let mut seen = [0usize; 8];
        for case in 0..4000 {
            let mut cfg = MachineConfig::tiny().gpu;
            cfg.lanes = 1 + rand(8);
            cfg.uncoalesced_penalty = (1 + rand(5)) as f64;
            cfg.strict = rand(2) == 0;
            let n_items = 1 + rand(30);
            let lens = [rand(160), rand(160)];
            let streams: Vec<Stream> = (0..rand(5))
                .map(|_| {
                    let (buf, base) = (rand(2) as u8, rand(40));
                    let advance = [0, 1, 2 + rand(5)][rand(3)];
                    let (count, step) = (rand(6), rand(4));
                    let s = if rand(2) == 0 {
                        Stream::read(buf, base, advance, count, step)
                    } else {
                        Stream::write(buf, base, advance, count, step)
                    };
                    if rand(4) == 0 {
                        s.ragged()
                    } else {
                        s
                    }
                })
                .collect();
            // Per item: ops, ragged count, and the counts of up to two
            // scatter calls made after the first `scatter_at` streams.
            let scatter_calls = rand(3);
            let scatter_at = rand(streams.len() + 1);
            let items: Vec<(u64, usize, [usize; 2])> = (0..n_items)
                .map(|_| (rand(40) as u64, rand(5), [rand(4), rand(4)]))
                .collect();
            let calls = |id: usize| {
                let (ops, count, scatter) = items[id];
                let mut calls: Vec<Call> = streams
                    .iter()
                    .map(|s| Call::Strided {
                        buf: s.buf,
                        base: s.base + id * s.advance,
                        count: if s.ragged { count } else { s.count },
                        step: s.step,
                        write: s.write,
                    })
                    .collect();
                for &c in &scatter[..scatter_calls] {
                    calls.insert(scatter_at, Call::Scatter { count: c });
                }
                (ops, calls)
            };
            let want = per_item::launch(&cfg, n_items, lens, calls);

            let mut g = SimGpu::new(cfg.clone());
            let mut a = g.alloc::<u32>(lens[0]).unwrap();
            let mut b = g.alloc::<u32>(lens[1]).unwrap();
            let got = g
                .launch2("eq", n_items, &streams, &mut a, &mut b, |id, ctx, _, _| {
                    let (ops, count, scatter) = items[id];
                    ctx.charge_ops(ops);
                    ctx.set_count(count);
                    for &c in &scatter[..scatter_calls] {
                        ctx.scatter(c as u64);
                    }
                })
                .map(|st| (st.time, st.waves, st.coalesced, st.uncoalesced));
            match (&want, &got) {
                (Ok(w), Ok(g)) => {
                    assert_eq!(w.0.to_bits(), g.0.to_bits(), "case {case}: {w:?} vs {g:?}");
                    assert_eq!((w.1, w.2, w.3), (g.1, g.2, g.3), "case {case}");
                }
                _ => assert_eq!(want, got, "case {case}"),
            }

            // Coverage of the shapes the rule distinguishes.
            let ragged = streams.iter().any(|s| s.ragged);
            seen[0] += usize::from(n_items % cfg.lanes != 0 && n_items > cfg.lanes);
            seen[1] += usize::from(n_items % cfg.lanes == 1);
            for adv in [0, 1, 2] {
                seen[2 + adv] += usize::from(streams.iter().any(|s| s.advance.min(2) == adv));
            }
            seen[5] += usize::from(scatter_calls > 0 && want.is_ok());
            seen[6] += usize::from(
                ragged && want.is_ok() && items.iter().any(|i| i.1 == 0) && n_items > cfg.lanes,
            );
            seen[7] += usize::from(matches!(want, Err(MachineError::OutOfBounds { .. })));
        }
        assert!(seen.iter().all(|&n| n >= 50), "coverage {seen:?}");
    }
}
