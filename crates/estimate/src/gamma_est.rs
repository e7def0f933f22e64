//! Estimating `γ`, the GPU:CPU scalar speed ratio (paper §6.4, Figure 6).
//!
//! A single-thread merge of two sorted runs is timed on one CPU core and
//! as a one-work-item kernel on the GPU; the time ratio approximates
//! `γ⁻¹` and is expected to be roughly constant across input sizes (the
//! model's "balanced architecture" assumption, §3.2).

use hpu_machine::{MachineConfig, SimCpu, SimGpu, Stream};

/// Result of a `γ` sweep.
#[derive(Debug, Clone, PartialEq)]
pub struct GammaSweep {
    /// Estimated `γ⁻¹` (median ratio across sizes).
    pub gamma_inv: f64,
    /// All `(size, gpu_time/cpu_time)` samples (Figure 6's data).
    pub samples: Vec<(usize, f64)>,
}

fn merge_workload(size: usize) -> Vec<u64> {
    // Two interleaved sorted runs of `size/2` each.
    let half = size / 2;
    let mut v: Vec<u64> = (0..half as u64).map(|i| 2 * i).collect();
    v.extend((0..half as u64).map(|i| 2 * i + 1));
    v
}

/// Performs the actual merge, returning comparisons.
fn merge(src: &[u64], dst: &mut [u64]) -> u64 {
    let half = src.len() / 2;
    let (a, b) = src.split_at(half);
    let (mut i, mut j) = (0usize, 0usize);
    let mut compares = 0;
    for slot in dst.iter_mut() {
        let take_a = if i < a.len() && j < b.len() {
            compares += 1;
            a[i] <= b[j]
        } else {
            i < a.len()
        };
        *slot = if take_a {
            let v = a[i];
            i += 1;
            v
        } else {
            let v = b[j];
            j += 1;
            v
        };
    }
    compares
}

/// Times a 1-thread merge of `size` elements on both units and returns
/// `(cpu_time, gpu_time)`.
pub fn probe(cfg: &MachineConfig, size: usize) -> (f64, f64) {
    let src = merge_workload(size);

    let mut cpu = SimCpu::new(cfg.cpu.clone());
    let mut dst = vec![0u64; size];
    cpu.run_serial("gamma-probe merge (CPU)", |ctx| {
        let c = merge(&src, &mut dst);
        ctx.charge_ops(c);
        ctx.charge_mem(2 * size as u64);
    });
    let cpu_time = cpu.clock();

    let mut gpu = SimGpu::new(cfg.gpu.clone());
    let mut buf_src = gpu.alloc::<u64>(size).expect("probe fits");
    let mut buf_dst = gpu.alloc::<u64>(size).expect("probe fits");
    // Same workload on both units (the probe measures speed, not the bus,
    // so the setup transfer is kept off the timeline).
    buf_src.debug_fill(&src);
    let stats = gpu
        .launch2(
            "gamma-probe merge (GPU)",
            1,
            &[
                Stream::read(0, 0, 0, size / 2, 1),
                Stream::read(0, size / 2, 0, size / 2, 1),
                Stream::write(1, 0, 0, size, 1),
            ],
            &mut buf_src,
            &mut buf_dst,
            |_, ctx, s, d| ctx.charge_ops(merge(s, d)),
        )
        .expect("probe launch is well-formed");
    gpu.free(buf_src);
    gpu.free(buf_dst);
    (cpu_time, stats.time)
}

/// Sweeps sizes and estimates `γ⁻¹` as the median ratio.
pub fn estimate_gamma(cfg: &MachineConfig, sizes: &[usize]) -> GammaSweep {
    let mut samples = Vec::with_capacity(sizes.len());
    for &size in sizes {
        let (tc, tg) = probe(cfg, size);
        samples.push((size, tg / tc));
    }
    let mut ratios: Vec<f64> = samples.iter().map(|&(_, r)| r).collect();
    ratios.sort_by(f64::total_cmp);
    let gamma_inv = ratios[ratios.len() / 2];
    GammaSweep { gamma_inv, samples }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ratio_recovers_configured_gamma() {
        let cfg = MachineConfig::hpu1_sim();
        let sweep = estimate_gamma(&cfg, &[1 << 10, 1 << 12, 1 << 14]);
        // Upload-free probes on idle units: the ratio is γ⁻¹ exactly
        // (merge charges are identical on both sides, single-item waves
        // coalesce).
        assert!(
            (sweep.gamma_inv - 160.0).abs() < 1.0,
            "γ⁻¹ = {}",
            sweep.gamma_inv
        );
    }

    #[test]
    fn ratio_is_flat_across_sizes() {
        let cfg = MachineConfig::hpu2_sim();
        let sweep = estimate_gamma(&cfg, &[1 << 8, 1 << 10, 1 << 12, 1 << 14]);
        let (min, max) = sweep
            .samples
            .iter()
            .fold((f64::INFINITY, 0.0f64), |(lo, hi), &(_, r)| {
                (lo.min(r), hi.max(r))
            });
        assert!(max / min < 1.05, "Figure 6: the ratio stays ~constant");
    }

    #[test]
    fn workload_is_two_sorted_runs() {
        let w = merge_workload(16);
        assert!(w[..8].windows(2).all(|p| p[0] <= p[1]));
        assert!(w[8..].windows(2).all(|p| p[0] <= p[1]));
        let mut d = vec![0u64; 16];
        merge(&w, &mut d);
        assert!(d.windows(2).all(|p| p[0] <= p[1]));
    }
}
