//! Mergesort — the paper's case study (§6).
//!
//! * [`sort_recursive`] — the classic recursive implementation
//!   (Algorithm 6), the paper's 1-core baseline.
//! * [`MergeSort`] — the breadth-first framework form (Algorithm 7) with
//!   two GPU paths:
//!   - *generic* ([`MergeSort::generic`]): the untouched Algorithm-3
//!     translation — every work-item runs the CPU merge, memory traffic is
//!     uncoalesced;
//!   - *coalesced* ([`MergeSort::new`], default): the §6.3 optimization.
//!     The device keeps runs in a **column-major** layout (element `j` of
//!     run `i` of `R` runs lives at `j·R + i`), so adjacent work-items
//!     touch adjacent addresses at every merge step. Work-item `i` merges
//!     runs `i` and `i + R/2`, writing column `i` of the `R/2`-column
//!     layout — all streams have inter-item stride 1 and coalesce. A
//!     single un-permute kernel restores the contiguous layout before
//!     download.
//! * [`gpu_parallel_mergesort`] — the fully parallel GPU sort of Figure 9:
//!   every level merges run pairs with one work-item *per element*, each
//!   finding its output position by binary search in the sibling run.

use hpu_core::charge::{Charge, GpuCharge};
use hpu_core::{BfAlgorithm, CoreError, Element, LevelInfo};
use hpu_machine::{DeviceBuffer, LaunchStats, MachineError, SimGpu, SimHpu, Stream};
use hpu_model::{CostFn, Recurrence};

/// Elements sortable by the HPU mergesort.
pub trait SortKey: Element + Ord {}
impl<T: Element + Ord> SortKey for T {}

/// Classic recursive mergesort (paper Algorithm 6). Sorts in place using a
/// scratch buffer; returns the number of comparisons performed.
pub fn sort_recursive<T: SortKey>(data: &mut [T]) -> u64 {
    let mut scratch = data.to_vec();
    recurse(data, &mut scratch)
}

fn recurse<T: SortKey>(data: &mut [T], scratch: &mut [T]) -> u64 {
    let n = data.len();
    if n <= 1 {
        return 0;
    }
    let mid = n / 2;
    let mut compares = recurse(&mut data[..mid], &mut scratch[..mid]);
    compares += recurse(&mut data[mid..], &mut scratch[mid..]);
    scratch[..n].copy_from_slice(data);
    let (a, b) = scratch[..n].split_at(mid);
    compares + merge_into(a, b, data)
}

/// Merges sorted `a` and `b` into `dst` (`dst.len() == a.len() + b.len()`),
/// returning the number of comparisons.
///
/// One comparison fills one slot while both runs are non-empty; the rest
/// of whichever run is left over is then copied in bulk.
pub fn merge_into<T: SortKey>(a: &[T], b: &[T], dst: &mut [T]) -> u64 {
    debug_assert_eq!(dst.len(), a.len() + b.len(), "merge destination length");
    let (mut i, mut j, mut k) = (0usize, 0usize, 0usize);
    for slot in dst.iter_mut() {
        let (Some(&x), Some(&y)) = (a.get(i), b.get(j)) else {
            break;
        };
        let take_a = x <= y;
        *slot = if take_a { x } else { y };
        i += usize::from(take_a);
        j += usize::from(!take_a);
        k += 1;
    }
    let (from_a, from_b) = dst[k..].split_at_mut(a.len() - i);
    from_a.copy_from_slice(&a[i..]);
    from_b.copy_from_slice(&b[j..]);
    k as u64
}

/// [`merge_into`] over strided runs: merges the sorted runs of `run`
/// elements at `src[a0]`, `src[a0 + step]`, … and `src[b0]`, … into
/// `dst[d0]`, `dst[d0 + d_step]`, …, returning the number of comparisons.
/// The device kernels use it on column-major layouts.
fn merge_strided<T: SortKey>(
    src: &[T],
    (a0, b0, step): (usize, usize, usize),
    run: usize,
    dst: &mut [T],
    (d0, d_step): (usize, usize),
) -> u64 {
    let (a_end, b_end) = (a0 + run * step, b0 + run * step);
    let (mut ia, mut ib, mut k) = (a0, b0, d0);
    let mut compares = 0u64;
    while ia < a_end && ib < b_end {
        let (x, y) = (src[ia], src[ib]);
        let take_a = x <= y;
        dst[k] = if take_a { x } else { y };
        // Masks instead of a branch: the outcome is data-dependent, and
        // the next loads wait on these offsets.
        let step_a = step & usize::from(take_a).wrapping_neg();
        ia += step_a;
        ib += step - step_a;
        k += d_step;
        compares += 1;
    }
    let rest = |from: usize, end: usize| (from..end).step_by(step).map(|p| src[p]);
    for (slot, v) in dst[k..]
        .iter_mut()
        .step_by(d_step)
        .zip(rest(ia, a_end).chain(rest(ib, b_end)))
    {
        *slot = v;
    }
    compares
}

/// Breadth-first mergesort over the HPU framework (Algorithm 7).
#[derive(Debug, Clone)]
pub struct MergeSort {
    coalesced: bool,
    base_chunk: usize,
}

impl Default for MergeSort {
    fn default() -> Self {
        MergeSort::new()
    }
}

impl MergeSort {
    /// Mergesort with the §6.3 coalescing optimization on the GPU path.
    pub fn new() -> Self {
        MergeSort {
            coalesced: true,
            base_chunk: 1,
        }
    }

    /// Mergesort with the untouched generic GPU translation (uncoalesced) —
    /// the ablation baseline for the §6.3 optimization.
    pub fn generic() -> Self {
        MergeSort {
            coalesced: false,
            base_chunk: 1,
        }
    }

    /// Stops the recursion at chunks of `k` elements and sorts them with a
    /// sequential insertion sort — the paper's §7 "switch to non-recursive
    /// sequential versions at the lowest levels" extension. `k` must be a
    /// power of two.
    pub fn with_leaf_cutoff(mut self, k: usize) -> Self {
        assert!(k.is_power_of_two(), "cutoff must be a power of two");
        self.base_chunk = k;
        self
    }

    /// Whether the coalesced GPU path is enabled.
    pub fn is_coalesced(&self) -> bool {
        self.coalesced
    }
}

/// In-place insertion sort returning (comparisons, moves) — the cutoff
/// base case.
fn insertion_sort<T: SortKey>(chunk: &mut [T]) -> (u64, u64) {
    let mut compares = 0u64;
    let mut moves = 0u64;
    for i in 1..chunk.len() {
        let v = chunk[i];
        let mut j = i;
        while j > 0 {
            compares += 1;
            if chunk[j - 1] <= v {
                break;
            }
            chunk[j] = chunk[j - 1];
            moves += 1;
            j -= 1;
        }
        chunk[j] = v;
        moves += 1;
    }
    (compares, moves)
}

impl<T: SortKey> BfAlgorithm<T> for MergeSort {
    fn name(&self) -> &'static str {
        "mergesort"
    }

    fn base_chunk(&self) -> usize {
        self.base_chunk
    }

    fn base_case(&self, chunk: &mut [T], charge: &mut dyn Charge) {
        if chunk.len() <= 1 {
            // A single element is sorted; Θ(1) leaf work.
            charge.ops(1);
            return;
        }
        let (compares, moves) = insertion_sort(chunk);
        charge.ops(compares + 1);
        charge.mem(2 * moves);
    }

    fn combine(&self, src: &[T], dst: &mut [T], charge: &mut dyn Charge) {
        let half = src.len() / 2;
        let (a, b) = src.split_at(half);
        let compares = merge_into(a, b, dst);
        charge.ops(compares);
        // One read of every input element, one write of every output.
        charge.mem(2 * dst.len() as u64);
    }

    fn recurrence(&self) -> Recurrence {
        // combine charges ≈ 1 compare + 2 memory ops per element → f(n)=3n.
        Recurrence::new(2, 2, CostFn::Linear(3.0), 1.0).expect("valid recurrence")
    }

    fn gpu_level(
        &self,
        gpu: &mut SimGpu,
        src: &mut DeviceBuffer<T>,
        dst: &mut DeviceBuffer<T>,
        level: &LevelInfo,
    ) -> Result<LaunchStats, MachineError> {
        if !self.coalesced {
            // Generic Algorithm-3 translation (default path).
            let chunk = level.chunk;
            return gpu.launch2(
                &format!("mergesort generic combine (chunk {chunk})"),
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
            );
        }
        let out_cols = level.tasks;
        let in_cols = 2 * out_cols;
        let run = level.chunk / 2;
        // Every work-item writes column `id` of the `out_cols`-column
        // layout: write bases advance by 1 per item and coalesce.
        let column_out = Stream::write(1, 0, 1, level.chunk, out_cols);
        if self.base_chunk > 1 && level.chunk == 2 * self.base_chunk {
            // First combine after a multi-element cutoff: the base level
            // left *row-major* sorted runs. Merge adjacent runs, writing
            // the column-major layout the later levels rely on. The reads
            // advance by a whole run pair per item (uncoalesced) — this is
            // the §6.3 permutation cost surfacing at the cutoff boundary.
            let streams = [
                Stream::read(0, 0, 2 * run, run, 1),
                Stream::read(0, run, 2 * run, run, 1),
                column_out,
            ];
            return gpu.launch2(
                &format!("mergesort row→column combine (chunk {})", level.chunk),
                out_cols,
                &streams,
                src,
                dst,
                move |id, ctx, s, d| {
                    let a0 = 2 * id * run;
                    ctx.charge_ops(merge_strided(s, (a0, a0 + run, 1), run, d, (id, out_cols)));
                },
            );
        }
        // Coalesced path: `src` holds 2·tasks column-major runs of length
        // chunk/2; work-item i merges columns i and i+tasks into column i
        // of the tasks-column layout in `dst`. Every base advances by 1
        // per item: all three streams coalesce.
        let streams = [
            Stream::read(0, 0, 1, run, in_cols),
            Stream::read(0, out_cols, 1, run, in_cols),
            column_out,
        ];
        gpu.launch2(
            &format!("mergesort coalesced combine (chunk {})", level.chunk),
            out_cols,
            &streams,
            src,
            dst,
            move |id, ctx, s, d| {
                let cols = (id, id + out_cols, in_cols);
                ctx.charge_ops(merge_strided(s, cols, run, d, (id, out_cols)));
            },
        )
    }

    fn gpu_finalize(
        &self,
        gpu: &mut SimGpu,
        cur: &mut DeviceBuffer<T>,
        other: &mut DeviceBuffer<T>,
        level: &LevelInfo,
    ) -> Result<Option<LaunchStats>, MachineError> {
        if !self.coalesced || level.tasks <= 1 || level.chunk <= self.base_chunk {
            // Generic layout is already contiguous; a single column is
            // trivially contiguous too; and if no combine level ran the
            // buffer still holds row-major base runs.
            return Ok(None);
        }
        // Un-permute: column-major (tasks columns of length chunk) back to
        // contiguous runs. One work-item per run keeps writes sequential;
        // reads are strided (uncoalesced) — the one-time cost of the
        // layout, analogous to the paper permuting back before the CPU
        // takes over (§6.3).
        let cols = level.tasks;
        let chunk = level.chunk;
        let st = gpu.launch2(
            "mergesort un-permute",
            cols,
            &[Stream::write(1, 0, chunk, chunk, 1)],
            cur,
            other,
            move |id, ctx, s, d| {
                for j in 0..chunk {
                    d[id * chunk + j] = s[j * cols + id];
                }
                ctx.scatter(chunk as u64);
            },
        )?;
        Ok(Some(st))
    }
}

/// Report of a [`gpu_parallel_mergesort`] run (the Figure 9 comparison).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct GpuParallelReport {
    /// Virtual time of the on-device sort only.
    pub sort_time: f64,
    /// Virtual time including the two transfers.
    pub total_time: f64,
    /// Comparisons performed (on-device binary searches).
    pub compares: u64,
}

/// Fully parallel GPU mergesort (paper Figure 9): breadth-first levels, one
/// work-item per *element*; each element binary-searches its rank in the
/// sibling run, making every level `Θ(log n)` parallel time.
pub fn gpu_parallel_mergesort<T: SortKey>(
    hpu: &mut SimHpu,
    data: &mut [T],
) -> Result<GpuParallelReport, CoreError> {
    let n = data.len();
    if n == 0 {
        return Err(CoreError::EmptyInput);
    }
    if !n.is_power_of_two() {
        return Err(CoreError::InvalidSize {
            len: n,
            branching: 2,
            base_chunk: 1,
        });
    }
    hpu.sync();
    let t_start = hpu.elapsed();
    let mut buf_a = hpu.upload(data)?;
    let mut buf_b = match hpu.gpu.alloc::<T>(n) {
        Ok(b) => b,
        Err(e) => {
            hpu.gpu.free(buf_a);
            return Err(e.into());
        }
    };
    let sort_start = hpu.gpu.clock();
    let mut compares = 0u64;

    let mut run = 1usize;
    let mut in_a = true;
    while run < n {
        let pair = 2 * run;
        let counter = std::cell::Cell::new(0u64);
        // Cost model: the binary-search probes mostly hit the top of the
        // sibling run, which neighbouring work-items probe too — the
        // device cache serves them, so they are charged as compute
        // (`probes` comparisons). What hits memory per element: the
        // coalesced read of the element itself, roughly one deep probe,
        // and the data-dependent (scattered) write.
        let own = [Stream::read(0, 0, 1, 1, 1)];
        let kernel = |id: usize, ctx: &mut hpu_machine::GpuCtx, s: &mut [T], d: &mut [T]| {
            let block = id / pair; // which pair of runs
            let off = id % pair; // position within the pair
            let (my_lo, sib_lo, from_first) = if off < run {
                (block * pair, block * pair + run, true)
            } else {
                (block * pair + run, block * pair, false)
            };
            let local = if from_first { off } else { off - run };
            let v = s[my_lo + local];
            // Rank of v in the sibling run; ties broken by run order to
            // keep the merge stable and positions unique.
            let sib = &s[sib_lo..sib_lo + run];
            let (mut lo, mut hi) = (0usize, run);
            let mut probes = 0u64;
            while lo < hi {
                let mid = (lo + hi) / 2;
                probes += 1;
                let go_right = if from_first {
                    sib[mid] < v
                } else {
                    sib[mid] <= v
                };
                if go_right {
                    lo = mid + 1;
                } else {
                    hi = mid;
                }
            }
            d[block * pair + local + lo] = v;
            counter.set(counter.get() + probes);
            ctx.charge_ops(probes + 2);
            // The deepest probe and the output position.
            ctx.scatter(2);
        };
        let res = if in_a {
            hpu.gpu.launch2(
                &format!("parallel merge (run {run})"),
                n,
                &own,
                &mut buf_a,
                &mut buf_b,
                kernel,
            )
        } else {
            hpu.gpu.launch2(
                &format!("parallel merge (run {run})"),
                n,
                &own,
                &mut buf_b,
                &mut buf_a,
                kernel,
            )
        };
        if let Err(e) = res {
            hpu.gpu.free(buf_a);
            hpu.gpu.free(buf_b);
            return Err(e.into());
        }
        compares += counter.get();
        in_a = !in_a;
        run = pair;
    }

    let sort_time = hpu.gpu.clock() - sort_start;
    let result = if in_a { &buf_a } else { &buf_b };
    let out = hpu.download(result);
    data.copy_from_slice(&out);
    hpu.gpu.free(buf_a);
    hpu.gpu.free(buf_b);
    hpu.sync();
    Ok(GpuParallelReport {
        sort_time,
        total_time: hpu.elapsed() - t_start,
        compares,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use hpu_core::exec::{run_sim, Strategy};
    use hpu_machine::MachineConfig;

    fn input(n: usize) -> Vec<u32> {
        (0..n as u32)
            .map(|i| i.wrapping_mul(2654435761) ^ 0x5A5A)
            .collect()
    }

    fn sorted(v: &[u32]) -> Vec<u32> {
        let mut s = v.to_vec();
        s.sort_unstable();
        s
    }

    #[test]
    fn recursive_reference_sorts() {
        for n in [0usize, 1, 2, 3, 17, 100, 1024] {
            let mut v = input(n);
            sort_recursive(&mut v);
            assert_eq!(v, sorted(&input(n)), "n = {n}");
        }
    }

    #[test]
    fn recursive_comparison_count_bounds() {
        let mut v = input(1024);
        let c = sort_recursive(&mut v);
        // n log n upper bound, n/2 lower bound.
        assert!(c <= 1024 * 10);
        assert!(c >= 512);
    }

    #[test]
    fn merge_into_handles_skew() {
        let a = [1u32, 2, 3];
        let b = [10u32];
        let mut d = [0u32; 4];
        merge_into(&a, &b, &mut d);
        assert_eq!(d, [1, 2, 3, 10]);
        let mut d2 = [0u32; 4];
        merge_into(&b, &a, &mut d2);
        assert_eq!(d2, [1, 2, 3, 10]);
        let mut d3 = [0u32; 3];
        merge_into(&[], &a, &mut d3);
        assert_eq!(d3, [1, 2, 3]);
    }

    /// Reference merge that decides every slot by a branch. `merge_into`
    /// must match its outputs and compare counts: simulated charges,
    /// golden plans and pinned CSVs depend on the count.
    fn slotwise_merge(a: &[u32], b: &[u32], dst: &mut [u32]) -> u64 {
        let (mut i, mut j) = (0usize, 0usize);
        let mut compares = 0u64;
        for slot in dst.iter_mut() {
            let take_a = if i < a.len() && j < b.len() {
                compares += 1;
                a[i] <= b[j]
            } else {
                i < a.len()
            };
            *slot = if take_a {
                i += 1;
                a[i - 1]
            } else {
                j += 1;
                b[j - 1]
            };
        }
        compares
    }

    #[test]
    fn merge_into_matches_the_slotwise_merge() {
        let mut state = 0x9E37_79B9_7F4A_7C15u64;
        let mut next = move |m: u32| {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            (state >> 32) as u32 % m
        };
        let run = |len: usize, next: &mut dyn FnMut(u32) -> u32, m: u32| {
            let mut v: Vec<u32> = (0..len).map(|_| next(m)).collect();
            v.sort_unstable();
            v
        };
        let mut cases: Vec<(Vec<u32>, Vec<u32>)> = vec![
            (vec![], vec![]),
            (vec![], vec![1, 2, 3]),
            (vec![4, 5], vec![]),
            // Skewed: one run entirely below / above the other.
            ((0..50).collect(), (100..103).collect()),
            ((100..103).collect(), (0..50).collect()),
            // Equal keys: every comparison is a tie.
            (vec![7; 9], vec![7; 4]),
        ];
        for _ in 0..200 {
            let (la, lb) = (next(40) as usize, next(40) as usize);
            // Small key ranges force ties; large ones interleave freely.
            let m = if next(2) == 0 { 4 } else { u32::MAX };
            cases.push((run(la, &mut next, m), run(lb, &mut next, m)));
        }
        for (a, b) in &cases {
            let mut want = vec![0u32; a.len() + b.len()];
            let want_compares = slotwise_merge(a, b, &mut want);
            let mut got = vec![0u32; a.len() + b.len()];
            let got_compares = merge_into(a, b, &mut got);
            assert_eq!(got, want, "a = {a:?}, b = {b:?}");
            assert_eq!(got_compares, want_compares, "a = {a:?}, b = {b:?}");
        }
    }

    /// The §6.3 kernels' column-major merges against [`slotwise_merge`]:
    /// the coalesced combine merges column pairs `(i, i + tasks)`, the
    /// row→column combine after a leaf cutoff merges row-major run pairs
    /// `(2i, 2i + 1)`; both write column `i` of a `tasks`-column layout.
    #[test]
    fn column_merges_match_the_slotwise_merge() {
        let mut state = 0x2545_F491_4F6C_DD1Du64;
        let mut next = move |m: u32| {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            (state >> 32) as u32 % m
        };
        for kind in ["random", "ties", "skewed", "presorted"] {
            for run in [1usize, 2, 4, 16] {
                for tasks in [1usize, 3, 8, 9, 20] {
                    for row_major in [false, true] {
                        if row_major && run == 1 {
                            continue; // a cutoff of 1 is no cutoff
                        }
                        let pair = |i: usize| {
                            if row_major {
                                (2 * i, 2 * i + 1)
                            } else {
                                (i, i + tasks)
                            }
                        };
                        let mut runs = vec![Vec::new(); 2 * tasks];
                        for i in 0..tasks {
                            let (a, b) = pair(i);
                            for (side, r) in [(0, a), (1, b)] {
                                let mut keys: Vec<u32> = (0..run)
                                    .map(|k| match kind {
                                        "random" => next(u32::MAX),
                                        "ties" => next(3),
                                        // One run of each pair wholly below
                                        // the other, alternating sides.
                                        "skewed" => next(100) + [0, 1000][(side + i) % 2],
                                        _ => (r * run + k) as u32,
                                    })
                                    .collect();
                                keys.sort_unstable();
                                runs[r] = keys;
                            }
                        }
                        let n = 2 * run * tasks;
                        let mut src = vec![0u32; n];
                        for (r, keys) in runs.iter().enumerate() {
                            for (k, &v) in keys.iter().enumerate() {
                                src[if row_major {
                                    r * run + k
                                } else {
                                    k * 2 * tasks + r
                                }] = v;
                            }
                        }
                        let mut want = vec![0u32; n];
                        let mut want_compares = 0;
                        for i in 0..tasks {
                            let (a, b) = pair(i);
                            let mut merged = vec![0u32; 2 * run];
                            want_compares += slotwise_merge(&runs[a], &runs[b], &mut merged);
                            for (k, v) in merged.into_iter().enumerate() {
                                want[k * tasks + i] = v;
                            }
                        }
                        let algo = if row_major {
                            MergeSort::new().with_leaf_cutoff(run)
                        } else {
                            MergeSort::new()
                        };
                        let level = LevelInfo {
                            chunk: 2 * run,
                            tasks,
                        };
                        // Strict mode checks the interleaved column writes
                        // for overlap; one lane per wave makes the launch
                        // time a sum over items, so the compares show in it.
                        for lanes in [8, 1] {
                            let mut cfg = MachineConfig::tiny().gpu;
                            cfg.lanes = lanes;
                            let mut gpu = SimGpu::new(cfg.clone());
                            let mut s = gpu.alloc::<u32>(n).unwrap();
                            let mut d = gpu.alloc::<u32>(n).unwrap();
                            s.debug_fill(&src);
                            let st = algo.gpu_level(&mut gpu, &mut s, &mut d, &level).unwrap();
                            let case =
                                format!("{kind} run {run} tasks {tasks} row-major {row_major}");
                            assert_eq!(d.debug_view(), &want[..], "{case}");
                            if lanes == 1 {
                                // Single-item waves coalesce: 2·run reads and
                                // 2·run writes per item at unit cost.
                                let units = (st.time - cfg.launch_overhead) / cfg.gamma_inv;
                                let got = units as u64 - (tasks * 4 * run) as u64;
                                assert_eq!(got, want_compares, "{case}");
                            }
                        }
                    }
                }
            }
        }
    }

    #[test]
    fn coalesced_and_generic_gpu_paths_sort_identically() {
        let n = 1 << 10;
        for algo in [MergeSort::new(), MergeSort::generic()] {
            let mut data = input(n);
            let mut hpu = SimHpu::new(MachineConfig::tiny());
            run_sim(&algo, &mut data, &mut hpu, &Strategy::GpuOnly).unwrap();
            assert_eq!(data, sorted(&input(n)), "coalesced={}", algo.is_coalesced());
        }
    }

    #[test]
    fn coalesced_path_actually_coalesces() {
        let n = 1 << 10;
        let mut hpu = SimHpu::new(MachineConfig::tiny());
        let mut data = input(n);
        let co = run_sim(&MergeSort::new(), &mut data, &mut hpu, &Strategy::GpuOnly).unwrap();
        let mut hpu = SimHpu::new(MachineConfig::tiny());
        let mut data = input(n);
        let un = run_sim(
            &MergeSort::generic(),
            &mut data,
            &mut hpu,
            &Strategy::GpuOnly,
        )
        .unwrap();
        assert!(
            co.coalesced > 9 * co.uncoalesced / 10,
            "optimized path should be mostly coalesced: {co:?}"
        );
        assert_eq!(un.coalesced, 0, "generic path cannot coalesce");
        assert!(
            co.virtual_time < un.virtual_time,
            "the §6.3 optimization must pay off: {} vs {}",
            co.virtual_time,
            un.virtual_time
        );
    }

    #[test]
    fn hybrid_advanced_sorts_with_two_transfers() {
        let n = 1 << 12;
        let mut data = input(n);
        let mut hpu = SimHpu::new(MachineConfig::hpu1_sim());
        let report = run_sim(
            &MergeSort::new(),
            &mut data,
            &mut hpu,
            &Strategy::Advanced {
                alpha: 0.16,
                transfer_level: 6,
            },
        )
        .unwrap();
        assert_eq!(data, sorted(&input(n)));
        assert_eq!(report.transfers, 2);
    }

    #[test]
    fn gpu_parallel_mergesort_sorts() {
        for n in [1usize, 2, 8, 1 << 10] {
            let mut data = input(n);
            let mut hpu = SimHpu::new(MachineConfig::tiny());
            let rep = gpu_parallel_mergesort(&mut hpu, &mut data).unwrap();
            assert_eq!(data, sorted(&input(n)), "n = {n}");
            assert!(rep.total_time >= rep.sort_time);
        }
    }

    #[test]
    fn gpu_parallel_mergesort_is_stable_under_duplicates() {
        let mut data = vec![3u32, 1, 3, 1, 2, 2, 3, 1];
        let mut hpu = SimHpu::new(MachineConfig::tiny());
        gpu_parallel_mergesort(&mut hpu, &mut data).unwrap();
        assert_eq!(data, vec![1, 1, 1, 2, 2, 3, 3, 3]);
    }

    #[test]
    fn gpu_parallel_mergesort_rejects_bad_sizes() {
        let mut hpu = SimHpu::new(MachineConfig::tiny());
        let mut data = input(100);
        assert!(matches!(
            gpu_parallel_mergesort(&mut hpu, &mut data),
            Err(CoreError::InvalidSize { .. })
        ));
        let mut empty: Vec<u32> = vec![];
        assert!(matches!(
            gpu_parallel_mergesort(&mut hpu, &mut empty),
            Err(CoreError::EmptyInput)
        ));
    }

    #[test]
    fn leaf_cutoff_sorts_and_shortens_the_tree() {
        let n = 1 << 10;
        let algo = MergeSort::new().with_leaf_cutoff(16);
        let mut data = input(n);
        let mut hpu = SimHpu::new(MachineConfig::tiny());
        run_sim(&algo, &mut data, &mut hpu, &Strategy::CpuOnly).unwrap();
        assert!(data == sorted(&input(n)), "cutoff CPU-only run must sort");
        // GPU path too (exercises the row→column boundary kernel).
        let mut data = input(n);
        let mut hpu = SimHpu::new(MachineConfig::tiny());
        run_sim(&algo, &mut data, &mut hpu, &Strategy::GpuOnly).unwrap();
        assert!(data == sorted(&input(n)), "cutoff GPU-only run must sort");
        // Hybrid too.
        let mut data = input(n);
        let mut hpu = SimHpu::new(MachineConfig::tiny());
        run_sim(
            &algo,
            &mut data,
            &mut hpu,
            &Strategy::Advanced {
                alpha: 0.25,
                transfer_level: 3,
            },
        )
        .unwrap();
        assert!(data == sorted(&input(n)), "cutoff hybrid run must sort");
    }

    #[test]
    fn insertion_sort_counts() {
        let mut v = vec![3u32, 1, 2];
        let (c, m) = insertion_sort(&mut v);
        assert_eq!(v, vec![1, 2, 3]);
        assert!(c >= 2 && m >= 2);
        let mut sorted_in = vec![1u32, 2, 3, 4];
        let (c, _) = insertion_sort(&mut sorted_in);
        assert_eq!(c, 3, "already sorted: n-1 comparisons");
    }

    #[test]
    fn all_strategies_agree_on_hpu1() {
        let n = 1 << 10;
        let expect = sorted(&input(n));
        for strategy in [
            Strategy::Sequential,
            Strategy::CpuOnly,
            Strategy::GpuOnly,
            Strategy::Basic { crossover: None },
            Strategy::Advanced {
                alpha: 0.2,
                transfer_level: 5,
            },
        ] {
            let mut data = input(n);
            let mut hpu = SimHpu::new(MachineConfig::hpu1_sim());
            run_sim(&MergeSort::new(), &mut data, &mut hpu, &strategy).unwrap();
            assert_eq!(data, expect, "strategy {strategy:?}");
        }
    }
}
