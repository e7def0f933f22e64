//! Failure-injection tests: the stack must degrade with structured errors
//! (never panics or corruption) when the machine or the parameters are
//! hostile.

use hpu::prelude::*;
use hpu_core::exec::Strategy;
use hpu_machine::{GpuConfig, MachineError};

fn tiny_device(mem_bytes: usize) -> MachineConfig {
    let mut cfg = MachineConfig::tiny();
    cfg.gpu = GpuConfig {
        global_mem_bytes: mem_bytes,
        ..cfg.gpu
    };
    cfg
}

#[test]
fn gpu_only_on_undersized_device_reports_oom() {
    // GPU-only needs 2n elements of device memory (ping-pong); give it
    // room for barely one buffer.
    let n = 1 << 10;
    let cfg = tiny_device(n * 4 + 64);
    let mut data: Vec<u32> = (0..n as u32).rev().collect();
    let before = data.clone();
    let mut hpu = SimHpu::new(cfg);
    let err = run_sim(&MergeSort::new(), &mut data, &mut hpu, &Strategy::GpuOnly).unwrap_err();
    assert!(matches!(
        err,
        CoreError::Machine(MachineError::OutOfDeviceMemory { .. })
    ));
    // Input untouched, device memory fully released.
    assert_eq!(data, before);
    assert_eq!(hpu.gpu.allocated_bytes(), 0);
}

#[test]
fn advanced_on_undersized_device_releases_buffers() {
    let n = 1 << 10;
    let cfg = tiny_device(n * 4 + 64);
    let mut data: Vec<u32> = (0..n as u32).rev().collect();
    let mut hpu = SimHpu::new(cfg);
    let err = run_sim(
        &MergeSort::new(),
        &mut data,
        &mut hpu,
        &Strategy::Advanced {
            alpha: 0.1,
            transfer_level: 2,
        },
    )
    .unwrap_err();
    assert!(matches!(
        err,
        CoreError::Machine(MachineError::OutOfDeviceMemory { .. })
    ));
    assert_eq!(hpu.gpu.allocated_bytes(), 0);
    // The machine stays usable: a CPU-only run succeeds afterwards.
    run_sim(&MergeSort::new(), &mut data, &mut hpu, &Strategy::CpuOnly).unwrap();
    assert!(data.windows(2).all(|w| w[0] <= w[1]));
}

#[test]
fn lying_kernel_is_caught_by_bounds_validation() {
    use hpu_core::{BfAlgorithm, Charge, LevelInfo};
    use hpu_machine::{DeviceBuffer, LaunchStats, SimGpu, Stream};
    use hpu_model::Recurrence;

    /// An algorithm whose GPU kernel declares an out-of-bounds stream.
    struct Liar;
    impl BfAlgorithm<u32> for Liar {
        fn name(&self) -> &'static str {
            "liar"
        }
        fn base_case(&self, _c: &mut [u32], ch: &mut dyn Charge) {
            ch.ops(1);
        }
        fn combine(&self, _s: &[u32], _d: &mut [u32], ch: &mut dyn Charge) {
            ch.ops(1);
        }
        fn recurrence(&self) -> Recurrence {
            Recurrence::dc_sum()
        }
        fn gpu_level(
            &self,
            gpu: &mut SimGpu,
            src: &mut DeviceBuffer<u32>,
            dst: &mut DeviceBuffer<u32>,
            level: &LevelInfo,
        ) -> Result<LaunchStats, MachineError> {
            let len = src.len();
            // Past the end.
            let streams = [Stream::read(0, len, 0, 4, 1)];
            gpu.launch2("liar", level.tasks, &streams, src, dst, |_, _, _, _| {})
        }
    }

    let mut data: Vec<u32> = (0..64).collect();
    let mut hpu = SimHpu::new(MachineConfig::tiny());
    let err = run_sim(&Liar, &mut data, &mut hpu, &Strategy::GpuOnly).unwrap_err();
    assert!(matches!(
        err,
        CoreError::Machine(MachineError::OutOfBounds { .. })
    ));
}

#[test]
fn racy_kernel_is_caught_in_strict_mode() {
    use hpu_core::{BfAlgorithm, Charge, LevelInfo};
    use hpu_machine::{DeviceBuffer, LaunchStats, SimGpu, Stream};
    use hpu_model::Recurrence;

    /// An algorithm whose GPU work-items all write the same location.
    struct Racy;
    impl BfAlgorithm<u32> for Racy {
        fn name(&self) -> &'static str {
            "racy"
        }
        fn base_case(&self, _c: &mut [u32], ch: &mut dyn Charge) {
            ch.ops(1);
        }
        fn combine(&self, _s: &[u32], _d: &mut [u32], ch: &mut dyn Charge) {
            ch.ops(1);
        }
        fn recurrence(&self) -> Recurrence {
            Recurrence::dc_sum()
        }
        fn gpu_level(
            &self,
            gpu: &mut SimGpu,
            src: &mut DeviceBuffer<u32>,
            dst: &mut DeviceBuffer<u32>,
            level: &LevelInfo,
        ) -> Result<LaunchStats, MachineError> {
            let streams = [Stream::write(1, 0, 0, 1, 1)];
            gpu.launch2("racy", level.tasks, &streams, src, dst, |_, _, _, d| {
                d[0] = 1;
            })
        }
    }

    // MachineConfig::tiny() has strict mode on.
    let mut data: Vec<u32> = (0..64).collect();
    let mut hpu = SimHpu::new(MachineConfig::tiny());
    let err = run_sim(&Racy, &mut data, &mut hpu, &Strategy::GpuOnly).unwrap_err();
    assert!(matches!(
        err,
        CoreError::Machine(MachineError::WriteOverlap { .. })
    ));
}

#[test]
fn alpha_extremes_are_clamped_not_crashed() {
    // α = 0 and α = 1 cannot leave a side empty: the executor clamps the
    // task split to at least one task per side.
    for alpha in [0.0, 1.0] {
        let mut data: Vec<u32> = (0..256u32).rev().collect();
        let mut hpu = SimHpu::new(MachineConfig::tiny());
        let report = run_sim(
            &MergeSort::new(),
            &mut data,
            &mut hpu,
            &Strategy::Advanced {
                alpha,
                transfer_level: 4,
            },
        )
        .unwrap();
        assert!(data.windows(2).all(|w| w[0] <= w[1]), "alpha = {alpha}");
        assert_eq!(report.transfers, 2);
    }
}

#[test]
fn out_of_range_alpha_is_rejected() {
    for alpha in [-0.5, 1.5, f64::INFINITY] {
        let mut data: Vec<u32> = (0..256u32).rev().collect();
        let mut hpu = SimHpu::new(MachineConfig::tiny());
        let err = run_sim(
            &MergeSort::new(),
            &mut data,
            &mut hpu,
            &Strategy::Advanced {
                alpha,
                transfer_level: 4,
            },
        )
        .unwrap_err();
        assert!(
            matches!(err, CoreError::InvalidAlpha { .. }),
            "alpha = {alpha}"
        );
    }
}
