//! Divide-and-conquer sum (paper Algorithms 4 & 5).
//!
//! The paper's introductory example: recursively sum an array, combining
//! with a single addition. The GPU path implements Algorithm 5 literally —
//! at a level with `b` remaining partial sums, work-item `i` computes
//! `array[i] += array[i + b]` — which is also the natural *coalesced*
//! layout: partial sums stay in the array prefix, so adjacent work-items
//! touch adjacent words.

use hpu_core::charge::Charge;
use hpu_core::{BfAlgorithm, LevelInfo};
use hpu_machine::{DeviceBuffer, LaunchStats, MachineError, SimGpu, Stream};
use hpu_model::Recurrence;

/// Plain sequential reference (paper Algorithm 4).
pub fn sum_recursive(data: &[u64]) -> u64 {
    match data.len() {
        0 => 0,
        1 => data[0],
        n => sum_recursive(&data[..n / 2]) + sum_recursive(&data[n / 2..]),
    }
}

/// Breadth-first D&C sum. After a run, the total is in `data[0]`.
///
/// Representation: a solved chunk stores its partial sum in its first
/// element; combining two chunks adds the two partials.
#[derive(Debug, Clone, Copy, Default)]
pub struct DcSum;

impl BfAlgorithm<u64> for DcSum {
    fn name(&self) -> &'static str {
        "dc-sum"
    }

    fn base_case(&self, _chunk: &mut [u64], charge: &mut dyn Charge) {
        charge.ops(1);
    }

    fn combine(&self, src: &[u64], dst: &mut [u64], charge: &mut dyn Charge) {
        let half = src.len() / 2;
        dst[0] = src[0].wrapping_add(src[half]);
        // The rest of the chunk is dead weight for this algorithm, but the
        // ping-pong buffers must stay consistent: carry the partials.
        charge.ops(1);
        charge.mem(3);
    }

    fn recurrence(&self) -> Recurrence {
        Recurrence::dc_sum()
    }

    /// Algorithm 5: `array[id] += array[id + numSubProblems]`, in place on
    /// `src` — partial sums live in the array prefix, all accesses
    /// coalesced. `dst` mirrors the prefix so the executor's ping-pong
    /// convention (result in `dst`) holds.
    fn gpu_level(
        &self,
        gpu: &mut SimGpu,
        src: &mut DeviceBuffer<u64>,
        dst: &mut DeviceBuffer<u64>,
        level: &LevelInfo,
    ) -> Result<LaunchStats, MachineError> {
        let b = level.tasks; // numSubProblems after this level
        let chunk = level.chunk;
        // Partials sit at chunk starts, so the bases advance by `chunk`
        // per item: declare the true addresses and let the device decide.
        let streams = [
            Stream::read(0, 0, chunk, 1, 1),
            Stream::read(0, chunk / 2, chunk, 1, 1),
            Stream::write(1, 0, chunk, 1, 1),
        ];
        gpu.launch2(
            &format!("sum level (b = {b})"),
            b,
            &streams,
            src,
            dst,
            move |id, ctx, s, d| {
                d[id * chunk] = s[id * chunk].wrapping_add(s[id * chunk + chunk / 2]);
                ctx.charge_ops(1);
            },
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hpu_core::exec::{run_sim, Strategy};
    use hpu_machine::{MachineConfig, SimHpu};

    fn input(n: usize) -> Vec<u64> {
        (0..n as u64).map(|i| i * 7 + 1).collect()
    }

    #[test]
    fn reference_sums() {
        assert_eq!(sum_recursive(&[]), 0);
        assert_eq!(sum_recursive(&[5]), 5);
        assert_eq!(sum_recursive(&input(100)), input(100).iter().sum());
    }

    #[test]
    fn all_strategies_sum_correctly() {
        let n = 1 << 10;
        let expect: u64 = input(n).iter().sum();
        for strategy in [
            Strategy::Sequential,
            Strategy::CpuOnly,
            Strategy::GpuOnly,
            Strategy::Basic { crossover: Some(2) },
            Strategy::Advanced {
                alpha: 0.25,
                transfer_level: 4,
            },
        ] {
            let mut data = input(n);
            let mut hpu = SimHpu::new(MachineConfig::tiny());
            run_sim(&DcSum, &mut data, &mut hpu, &strategy).unwrap();
            assert_eq!(data[0], expect, "strategy {strategy:?}");
        }
    }

    #[test]
    fn constant_combine_makes_gpu_only_competitive() {
        // With f(n) = Θ(1), levels are tiny: the whole tree is dominated by
        // leaves, which the GPU chews through g at a time.
        let n = 1 << 14;
        let mut hpu_g = SimHpu::new(MachineConfig::hpu1_sim());
        let mut d1 = input(n);
        let g = run_sim(&DcSum, &mut d1, &mut hpu_g, &Strategy::GpuOnly).unwrap();
        let mut hpu_s = SimHpu::new(MachineConfig::hpu1_sim());
        let mut d2 = input(n);
        let s = run_sim(&DcSum, &mut d2, &mut hpu_s, &Strategy::Sequential).unwrap();
        assert!(
            g.virtual_time < s.virtual_time,
            "GPU-only {} should beat sequential {} on a sum",
            g.virtual_time,
            s.virtual_time
        );
    }
}
