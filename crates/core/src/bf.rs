//! The regular, in-place breadth-first form of a divide-and-conquer
//! algorithm (the shape of the paper's mergesort case study, Algorithm 7).
//!
//! A [`BfAlgorithm`] works over one contiguous buffer. Its recursion tree
//! is *regular*: a division splits a chunk into `a` equal sub-chunks
//! (`a = b` in the recurrence), so level `k` from the bottom consists of
//! all chunks of size `base_chunk · a^k` and the division step is implicit
//! (pure index arithmetic) — exactly the simplification the paper exploits
//! for mergesort (§6). The executors in [`crate::exec`] run such
//! algorithms bottom-up level by level, ping-ponging between the buffer
//! and a scratch buffer of the same length.
//!
//! The GPU path mirrors Algorithm 3: one work-item per chunk, addressing
//! derived from the global id. The default [`BfAlgorithm::gpu_level`] is
//! the *generic translation* — it reuses the CPU `combine` and charges its
//! memory traffic as uncoalesced scatter. Algorithms may override it with
//! an explicitly laid-out kernel (the paper's §6.3 coalescing
//! optimization) without touching any executor.

use hpu_machine::{DeviceBuffer, LaunchStats, MachineError, SimGpu};
use hpu_model::Recurrence;

use crate::charge::{Charge, GpuCharge};

/// Element type requirements for in-place breadth-first execution.
pub trait Element: Copy + Default + Send + Sync + 'static {}
impl<T: Copy + Default + Send + Sync + 'static> Element for T {}

/// Description of one level handed to GPU level implementations.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct LevelInfo {
    /// Output chunk size at this level (the `a` sub-chunks of size
    /// `chunk / a` are combined into one chunk of this size).
    pub chunk: usize,
    /// Number of chunks (work-items) at this level.
    pub tasks: usize,
}

/// A regular divide-and-conquer algorithm in breadth-first, in-place form.
pub trait BfAlgorithm<T: Element>: Sync {
    /// Short name used in timeline labels and reports.
    fn name(&self) -> &'static str;

    /// Branching factor `a` (= shrink factor `b`); chunks combine `a` at a
    /// time. Must be ≥ 2.
    fn branching(&self) -> usize {
        2
    }

    /// Chunk size at which the recursion bottoms out.
    fn base_chunk(&self) -> usize {
        1
    }

    /// Solves one base-case chunk in place.
    fn base_case(&self, chunk: &mut [T], charge: &mut dyn Charge);

    /// Combines the `a` consecutive solved sub-chunks of `src` into `dst`
    /// (both of length [`LevelInfo::chunk`]).
    fn combine(&self, src: &[T], dst: &mut [T], charge: &mut dyn Charge);

    /// The algorithm's recurrence, used by schedulers to derive crossover
    /// levels and optimal `(α, y)` parameters from the analytic model. The
    /// cost constants should match what [`BfAlgorithm::combine`] charges.
    fn recurrence(&self) -> Recurrence;

    /// Runs the base-case level on the device: one work-item per base
    /// chunk, executing [`BfAlgorithm::base_case`] with scatter charging.
    fn gpu_base_level(
        &self,
        gpu: &mut SimGpu,
        buf: &mut DeviceBuffer<T>,
        tasks: usize,
    ) -> Result<LaunchStats, MachineError> {
        let base = self.base_chunk();
        gpu.launch("base cases", tasks, &[], buf, |id, ctx, data| {
            let lo = id * base;
            self.base_case(&mut data[lo..lo + base], &mut GpuCharge(ctx));
        })
    }

    /// Finalizes the device-side result after the last combine level and
    /// before download. The default does nothing (`Ok(None)`: the result
    /// stays in `cur`, laid out as contiguous chunks). Implementations
    /// that maintain a different device layout (e.g. the column-major
    /// layout of the paper's §6.3 coalescing optimization) restore the
    /// contiguous layout here by writing `cur` into `other` and returning
    /// the launch stats (`Some(..)`: the result is now in `other`).
    fn gpu_finalize(
        &self,
        _gpu: &mut SimGpu,
        _cur: &mut DeviceBuffer<T>,
        _other: &mut DeviceBuffer<T>,
        _level: &LevelInfo,
    ) -> Result<Option<LaunchStats>, MachineError> {
        Ok(None)
    }

    /// Runs one combine level on the device (src → dst). The default is
    /// the generic Algorithm-3 translation: each work-item calls the CPU
    /// [`BfAlgorithm::combine`] on its chunk, charging memory as
    /// uncoalesced scatter. Override to provide a coalesced layout
    /// (paper §6.3).
    fn gpu_level(
        &self,
        gpu: &mut SimGpu,
        src: &mut DeviceBuffer<T>,
        dst: &mut DeviceBuffer<T>,
        level: &LevelInfo,
    ) -> Result<LaunchStats, MachineError> {
        let chunk = level.chunk;
        gpu.launch2(
            &format!("{} combine (chunk {chunk})", self.name()),
            level.tasks,
            &[],
            src,
            dst,
            |id, ctx, s, d| {
                let lo = id * chunk;
                self.combine(
                    &s[lo..lo + chunk],
                    &mut d[lo..lo + chunk],
                    &mut GpuCharge(ctx),
                );
            },
        )
    }
}

/// Validates that `len = base_chunk · a^k` and returns the number of
/// combine levels `k`.
pub fn num_levels<T: Element>(
    algo: &impl BfAlgorithm<T>,
    len: usize,
) -> Result<u32, crate::CoreError> {
    let a = algo.branching();
    let base = algo.base_chunk();
    if len == 0 {
        return Err(crate::CoreError::EmptyInput);
    }
    if !len.is_multiple_of(base) {
        return Err(crate::CoreError::InvalidSize {
            len,
            branching: a,
            base_chunk: base,
        });
    }
    let mut m = len / base;
    let mut k = 0u32;
    while m > 1 {
        if !m.is_multiple_of(a) {
            return Err(crate::CoreError::InvalidSize {
                len,
                branching: a,
                base_chunk: base,
            });
        }
        m /= a;
        k += 1;
    }
    Ok(k)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::charge::CountingCharge;

    /// Toy algorithm: each chunk's "solution" is the sum of its elements,
    /// stored in its first slot.
    struct SumAlgo;

    impl BfAlgorithm<u64> for SumAlgo {
        fn name(&self) -> &'static str {
            "sum"
        }
        fn base_case(&self, chunk: &mut [u64], charge: &mut dyn Charge) {
            charge.ops(1);
            let _ = chunk;
        }
        fn combine(&self, src: &[u64], dst: &mut [u64], charge: &mut dyn Charge) {
            let half = src.len() / 2;
            dst[0] = src[0] + src[half];
            charge.ops(1);
            charge.mem(3);
        }
        fn recurrence(&self) -> Recurrence {
            Recurrence::dc_sum()
        }
    }

    #[test]
    fn num_levels_powers() {
        assert_eq!(num_levels(&SumAlgo, 1).unwrap(), 0);
        assert_eq!(num_levels(&SumAlgo, 2).unwrap(), 1);
        assert_eq!(num_levels(&SumAlgo, 1024).unwrap(), 10);
        assert!(num_levels(&SumAlgo, 0).is_err());
        assert!(num_levels(&SumAlgo, 3).is_err());
        assert!(num_levels(&SumAlgo, 12).is_err());
    }

    #[test]
    fn combine_contract() {
        let algo = SumAlgo;
        let src = vec![3u64, 0, 4, 0];
        let mut dst = vec![0u64; 4];
        let mut ch = CountingCharge::default();
        algo.combine(&src, &mut dst, &mut ch);
        assert_eq!(dst[0], 7);
        assert_eq!(ch.ops, 1);
        assert_eq!(ch.mem, 3);
    }

    #[test]
    fn default_gpu_level_runs_combine() {
        use hpu_machine::{MachineConfig, Stream};
        let mut gpu = SimGpu::new(MachineConfig::tiny().gpu);
        let algo = SumAlgo;
        let mut src = gpu.alloc::<u64>(8).unwrap();
        let mut dst = gpu.alloc::<u64>(8).unwrap();
        // src holds 4 solved chunks of size 2 with sums in slots 0,2,4,6.
        gpu.launch(
            "init",
            8,
            &[Stream::write(0, 0, 1, 1, 1)],
            &mut src,
            |id, _, d| {
                d[id] = id as u64;
            },
        )
        .unwrap();
        let st = algo
            .gpu_level(
                &mut gpu,
                &mut src,
                &mut dst,
                &LevelInfo { chunk: 2, tasks: 4 },
            )
            .unwrap();
        assert_eq!(st.items, 4);
        // Chunk k combines src[2k] + src[2k+1].
        assert_eq!(dst.debug_view()[0], 1);
        assert_eq!(dst.debug_view()[6], 6 + 7);
        // Generic translation scatters: nothing coalesces.
        assert_eq!(st.coalesced, 0);
        assert!(st.uncoalesced > 0);
    }

    #[test]
    fn default_gpu_base_level_charges_leaves() {
        use hpu_machine::MachineConfig;
        let mut gpu = SimGpu::new(MachineConfig::tiny().gpu);
        let algo = SumAlgo;
        let mut buf = gpu.alloc::<u64>(16).unwrap();
        let st = algo.gpu_base_level(&mut gpu, &mut buf, 16).unwrap();
        assert_eq!(st.items, 16);
        assert_eq!(st.waves, 2); // 16 items / 8 lanes
    }
}
