//! # hpu-machine — a simulated Hybrid Processing Unit
//!
//! This crate is the hardware substrate for the HPU reproduction: a
//! deterministic, virtual-clock simulation of the heterogeneous platform the
//! paper runs on (a multi-core CPU plus an OpenCL GPU device).
//!
//! The simulator executes *real* work — kernels and tasks operate on real
//! buffers and produce real results — while time is accounted in abstract
//! *cost units* charged by the running code:
//!
//! * [`cpu::SimCpu`] — a `p`-core CPU. A *level* of independent tasks is
//!   executed in rounds of `p`; a shared last-level-cache model makes memory
//!   operations dearer once the active working set outgrows the LLC
//!   (reproducing the speedup decay the paper observes past `n = 2^20`).
//! * [`gpu::SimGpu`] — an OpenCL-style device: a kernel launch of `N`
//!   work-items runs in waves of `g` lanes, each lane `1/γ` times slower
//!   than a CPU core; a per-wave **coalescing detector** charges less for
//!   memory streams (declared once per launch) whose addresses are
//!   consecutive across adjacent work-items (which makes the paper's §6.3
//!   optimization measurable).
//! * [`bus::Bus`] — the CPU↔GPU link: moving `w` words costs `λ + δ·w` and
//!   every transfer is counted (the schedules' "only two transfers" claims
//!   are testable).
//! * [`hpu::SimHpu`] — glues the three together, tracks one virtual timeline
//!   per unit, provides fork/join (concurrent phases take the `max` of the
//!   two timelines) and a [`timeline::Timeline`] event log.
//!
//! ```
//! use hpu_machine::{SimHpu, MachineConfig};
//!
//! let mut hpu = SimHpu::new(MachineConfig::hpu1_sim());
//! let data: Vec<u32> = (0..1024u32).rev().collect();
//! let buf = hpu.upload(&data).expect("fits in device memory");
//! // ... launch kernels, run CPU levels ...
//! let back = hpu.download(&buf);
//! assert_eq!(back.len(), 1024);
//! assert_eq!(hpu.bus.transfers(), 2);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod bridge;
pub mod bus;
pub mod config;
pub mod cpu;
pub mod error;
pub mod fault;
pub mod gpu;
pub mod hpu;
pub mod timeline;

pub use bridge::SimMachineParams;
pub use bus::Bus;
pub use config::{BusConfig, CpuConfig, GpuConfig, MachineConfig};
pub use cpu::{CpuCtx, LevelRun, SimCpu};
pub use error::MachineError;
pub use fault::{FaultInjector, FaultKind, FaultPlan, NodeFault, NodeFaultKind, NodeFaultPlan};
pub use gpu::{DeviceBuffer, GpuCtx, LaunchStats, SimGpu, Stream};
pub use hpu::SimHpu;
pub use hpu_obs::{EventKind, LevelPhase};
pub use timeline::{Timeline, TimelineEvent, Unit};
