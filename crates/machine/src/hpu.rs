//! The assembled Hybrid Processing Unit: CPU + GPU + bus on one set of
//! virtual timelines.
//!
//! Concurrency model: [`crate::SimCpu`] and [`crate::SimGpu`] each own a
//! virtual clock. Work advances only the clock of the unit it ran on, so a
//! *concurrent phase* is expressed by running both units' work from a common
//! start time (call [`SimHpu::sync`] first) and joining with another
//! [`SimHpu::sync`] — the joint clock becomes the `max` of the two
//! timelines, exactly the fork/join semantics of the paper's advanced
//! schedule.
//!
//! Transfers: [`SimHpu::upload`] blocks the host (both clocks advance past
//! the transfer); [`SimHpu::download`] completes on the device timeline
//! only — a CPU task that *depends* on the downloaded data must be ordered
//! after it via [`SimHpu::sync`] (or `cpu.advance_to(gpu.clock())`), while
//! independent CPU work may keep running, which is what lets the advanced
//! schedule overlap the GPU's transfer with CPU work.

use std::sync::{Arc, Mutex};

use hpu_obs::EventKind;

use crate::bus::{Bus, Direction};
use crate::config::MachineConfig;
use crate::cpu::SimCpu;
use crate::error::MachineError;
use crate::fault::FaultInjector;
use crate::gpu::{DeviceBuffer, SimGpu};
use crate::timeline::Timeline;

/// A simulated hybrid CPU-GPU machine.
#[derive(Debug)]
pub struct SimHpu {
    /// The multi-core CPU.
    pub cpu: SimCpu,
    /// The GPU device.
    pub gpu: SimGpu,
    /// The CPU↔GPU link.
    pub bus: Bus,
    cfg: MachineConfig,
    timeline: Arc<Mutex<Timeline>>,
}

impl SimHpu {
    /// Assembles a machine from a configuration.
    pub fn new(cfg: MachineConfig) -> Self {
        let timeline = Arc::new(Mutex::new(Timeline::new()));
        SimHpu {
            cpu: SimCpu::new(cfg.cpu.clone()).with_timeline(timeline.clone()),
            gpu: SimGpu::new(cfg.gpu.clone()).with_timeline(timeline.clone()),
            bus: Bus::new(cfg.bus.clone()).with_timeline(timeline.clone()),
            cfg,
            timeline,
        }
    }

    /// Attaches a shared fault injector to the GPU and bus. Shared so that
    /// permanent injector state (a lost device) survives across the many
    /// short-lived machines a serving scheduler builds.
    pub fn with_faults(mut self, inj: Arc<Mutex<FaultInjector>>) -> Self {
        self.gpu.attach_faults(inj.clone());
        self.bus.attach_faults(inj);
        self
    }

    /// The machine's configuration.
    pub fn config(&self) -> &MachineConfig {
        &self.cfg
    }

    /// A snapshot of the event log.
    pub fn timeline(&self) -> Timeline {
        self.timeline.lock().unwrap().clone()
    }

    /// Records an annotation span on a unit's timeline — used by recovery
    /// layers to mark retries and degradations the units themselves don't
    /// know about.
    pub fn annotate(&self, unit: crate::timeline::Unit, start: f64, end: f64, kind: EventKind) {
        self.timeline
            .lock()
            .unwrap()
            .record_kind(unit, start, end, kind);
    }

    /// Charges `dur` idle time on both unit clocks starting from the joint
    /// clock (recovery backoff between retries of a faulted segment).
    pub fn wait(&mut self, dur: f64) {
        let t = self.elapsed() + dur.max(0.0);
        self.cpu.advance_to(t);
        self.gpu.advance_to(t);
    }

    /// Overall virtual time: the later of the two unit clocks.
    pub fn elapsed(&self) -> f64 {
        self.cpu.clock().max(self.gpu.clock())
    }

    /// Joins the two timelines: both clocks advance to the maximum. Call
    /// before forking concurrent CPU/GPU phases and after joining them.
    ///
    /// The unit that actually waited gets a [`EventKind::Sync`] barrier span
    /// on the timeline covering its idle interval.
    pub fn sync(&mut self) {
        let t = self.elapsed();
        let (cpu0, gpu0) = (self.cpu.clock(), self.gpu.clock());
        self.cpu.advance_to(t);
        self.gpu.advance_to(t);
        let mut tl = self.timeline.lock().unwrap();
        if cpu0 < t {
            tl.record_kind(crate::timeline::Unit::Cpu, cpu0, t, EventKind::Sync);
        }
        if gpu0 < t {
            tl.record_kind(crate::timeline::Unit::Gpu, gpu0, t, EventKind::Sync);
        }
    }

    /// Allocates a device buffer and uploads `data` into it, blocking the
    /// host: both clocks advance past the transfer.
    pub fn upload<T: Clone + Default>(
        &mut self,
        data: &[T],
    ) -> Result<DeviceBuffer<T>, MachineError> {
        let mut buf = self.gpu.alloc::<T>(data.len())?;
        self.upload_into(&mut buf, data);
        Ok(buf)
    }

    /// Uploads `data` into an existing buffer (prefix of the buffer if
    /// shorter), blocking the host.
    ///
    /// # Panics
    /// Panics if `data` is longer than the buffer.
    pub fn upload_into<T: Clone>(&mut self, buf: &mut DeviceBuffer<T>, data: &[T]) {
        buf.data[..data.len()].clone_from_slice(data);
        let start = self.elapsed();
        let end = self
            .bus
            .transfer(Direction::ToGpu, data.len() as u64, start);
        self.cpu.advance_to(end);
        self.gpu.advance_to(end);
    }

    /// Fallible upload into an existing buffer: like
    /// [`SimHpu::upload_into`], but consults the fault injector. On a
    /// fault the device buffer is untouched (the data never left the
    /// host) and, for a transient fault, both clocks still advance past
    /// the failed handshake.
    ///
    /// # Panics
    /// Panics if `data` is longer than the buffer.
    pub fn try_upload_into<T: Clone>(
        &mut self,
        buf: &mut DeviceBuffer<T>,
        data: &[T],
    ) -> Result<(), MachineError> {
        let start = self.elapsed();
        match self
            .bus
            .try_transfer(Direction::ToGpu, data.len() as u64, start)
        {
            Ok(end) => {
                buf.data[..data.len()].clone_from_slice(data);
                self.cpu.advance_to(end);
                self.gpu.advance_to(end);
                Ok(())
            }
            Err(e) => {
                if e.is_transient() {
                    let end = start + self.bus.cost(0);
                    self.cpu.advance_to(end);
                    self.gpu.advance_to(end);
                }
                Err(e)
            }
        }
    }

    /// Fallible ranged download: like [`SimHpu::download_range`], but
    /// consults the fault injector. On a fault `out` is untouched (the
    /// data never reached the host) and, for a transient fault, the
    /// device clock still advances past the failed handshake.
    ///
    /// # Panics
    /// Panics if `offset + out.len()` exceeds the buffer length.
    pub fn try_download_range<T: Clone>(
        &mut self,
        buf: &DeviceBuffer<T>,
        offset: usize,
        out: &mut [T],
    ) -> Result<(), MachineError> {
        let start = self.gpu.clock();
        match self
            .bus
            .try_transfer(Direction::ToCpu, out.len() as u64, start)
        {
            Ok(end) => {
                out.clone_from_slice(&buf.data[offset..offset + out.len()]);
                self.gpu.advance_to(end);
                Ok(())
            }
            Err(e) => {
                if e.is_transient() {
                    self.gpu.advance_to(start + self.bus.cost(0));
                }
                Err(e)
            }
        }
    }

    /// Downloads the buffer contents. The transfer runs on the *device*
    /// timeline (starting at the GPU clock); the CPU clock is untouched so
    /// independent CPU work can overlap. Order dependent CPU work after it
    /// with [`SimHpu::sync`].
    pub fn download<T: Clone>(&mut self, buf: &DeviceBuffer<T>) -> Vec<T> {
        let start = self.gpu.clock();
        let end = self.bus.transfer(Direction::ToCpu, buf.len() as u64, start);
        self.gpu.advance_to(end);
        buf.data.clone()
    }

    /// Downloads a sub-range of the buffer into `out` (device timeline, like
    /// [`SimHpu::download`]).
    ///
    /// # Panics
    /// Panics if `offset + out.len()` exceeds the buffer length.
    pub fn download_range<T: Clone>(
        &mut self,
        buf: &DeviceBuffer<T>,
        offset: usize,
        out: &mut [T],
    ) {
        out.clone_from_slice(&buf.data[offset..offset + out.len()]);
        let start = self.gpu.clock();
        let end = self.bus.transfer(Direction::ToCpu, out.len() as u64, start);
        self.gpu.advance_to(end);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn hpu() -> SimHpu {
        SimHpu::new(MachineConfig::tiny())
    }

    #[test]
    fn upload_download_round_trip() {
        let mut h = hpu();
        let data: Vec<u32> = (0..64).collect();
        let buf = h.upload(&data).unwrap();
        let back = h.download(&buf);
        assert_eq!(back, data);
        assert_eq!(h.bus.transfers(), 2);
        assert_eq!(h.bus.words(), 128);
    }

    #[test]
    fn transfer_costs_show_on_clocks() {
        let mut h = SimHpu::new(MachineConfig {
            bus: crate::config::BusConfig {
                lambda: 100.0,
                delta: 1.0,
            },
            ..MachineConfig::tiny()
        });
        let buf = h.upload(&[0u32; 50]).unwrap();
        // Upload blocks the host: both clocks at λ + δ·50 = 150.
        assert_eq!(h.cpu.clock(), 150.0);
        assert_eq!(h.gpu.clock(), 150.0);
        let _ = h.download(&buf);
        // Download runs on the device timeline only.
        assert_eq!(h.gpu.clock(), 300.0);
        assert_eq!(h.cpu.clock(), 150.0);
        assert_eq!(h.elapsed(), 300.0);
        h.sync();
        assert_eq!(h.cpu.clock(), 300.0);
    }

    #[test]
    fn concurrent_phase_takes_max_of_timelines() {
        let mut h = hpu();
        h.sync();
        // Fork: CPU does 100 units, GPU does 10 cost units at γ⁻¹=4.
        h.cpu.run_serial("cpu work", |ctx| ctx.charge_ops(100));
        let mut buf = h.gpu.alloc::<u32>(8).unwrap();
        h.gpu
            .launch("gpu work", 8, &[], &mut buf, |_, ctx, _| ctx.charge_ops(10))
            .unwrap();
        assert_eq!(h.cpu.clock(), 100.0);
        assert_eq!(h.gpu.clock(), 40.0);
        h.sync();
        assert_eq!(h.elapsed(), 100.0);
        assert_eq!(h.gpu.clock(), 100.0);
    }

    #[test]
    fn download_overlaps_with_cpu_work() {
        let mut h = SimHpu::new(MachineConfig {
            bus: crate::config::BusConfig {
                lambda: 1000.0,
                delta: 0.0,
            },
            ..MachineConfig::tiny()
        });
        let buf = h.upload(&[0u32; 8]).unwrap();
        let t0 = h.elapsed();
        // CPU works while the download is in flight.
        let _ = h.download(&buf);
        h.cpu.run_serial("overlap", |ctx| ctx.charge_ops(500));
        assert_eq!(h.gpu.clock(), t0 + 1000.0);
        assert_eq!(h.cpu.clock(), t0 + 500.0);
        // Total is the max, not the sum.
        assert_eq!(h.elapsed(), t0 + 1000.0);
    }

    #[test]
    fn download_range_moves_partial_data() {
        let mut h = hpu();
        let data: Vec<u32> = (0..64).collect();
        let buf = h.upload(&data).unwrap();
        let mut out = vec![0u32; 16];
        h.download_range(&buf, 8, &mut out);
        assert_eq!(out, (8..24).collect::<Vec<u32>>());
        assert_eq!(h.bus.words(), 64 + 16);
    }

    #[test]
    fn timeline_collects_all_units() {
        let mut h = hpu();
        let mut buf = h.upload(&[0u32; 8]).unwrap();
        h.cpu.run_serial("c", |ctx| ctx.charge_ops(1));
        h.gpu
            .launch("g", 8, &[], &mut buf, |_, ctx, _| ctx.charge_ops(1))
            .unwrap();
        let tl = h.timeline();
        let units: Vec<_> = tl.events().iter().map(|e| e.unit).collect();
        use crate::timeline::Unit;
        assert!(units.contains(&Unit::Cpu));
        assert!(units.contains(&Unit::Gpu));
        assert!(units.contains(&Unit::Bus));
    }

    #[test]
    fn upload_oom_propagates() {
        let mut h = hpu(); // 1 MiB device
        assert!(matches!(
            h.upload(&vec![0u64; 1 << 20]),
            Err(MachineError::OutOfDeviceMemory { .. })
        ));
    }
}
