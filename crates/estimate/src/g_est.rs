//! Estimating `g`, the effective GPU core count (paper §6.4, Figure 5).
//!
//! The probe is an elementwise sum of two arrays `C[i] = A[i] + B[i]`,
//! executed with `N` work-items, each handling an interleaved slice
//! (work-item `t` touches elements `t, t+N, t+2N, …` — the coalesced
//! layout the paper's optimized merge also uses). The running time falls
//! roughly as `1/N` until the device saturates; `g` is set to the thread
//! count after which no further improvement is measured.

use hpu_machine::{MachineConfig, SimGpu, Stream};

/// One probe sample: thread count and the launch's virtual time.
pub type Sample = (usize, f64);

/// Result of a `g` sweep.
#[derive(Debug, Clone, PartialEq)]
pub struct GSweep {
    /// Estimated effective core count.
    pub g: usize,
    /// All `(threads, time)` samples, ascending in threads (Figure 5's
    /// data).
    pub samples: Vec<Sample>,
}

/// Times one elementwise-sum launch with `threads` work-items over arrays
/// of `len` elements.
fn probe(gpu: &mut SimGpu, len: usize, threads: usize) -> f64 {
    let mut input = gpu
        .alloc::<u64>(2 * len)
        .expect("probe arrays fit in device memory");
    let mut out = gpu.alloc::<u64>(len).expect("probe output fits");
    let stats = gpu
        .launch2(
            "g-probe elementwise sum",
            threads,
            // Item `t` touches every `threads`-th element from `t`; the
            // last items get one element fewer when `threads ∤ len`.
            &[
                Stream::read(0, 0, 1, 0, threads).ragged(),
                Stream::read(0, len, 1, 0, threads).ragged(),
                Stream::write(1, 0, 1, 0, threads).ragged(),
            ],
            &mut input,
            &mut out,
            |t, ctx, a, c| {
                let mut count = 0u64;
                let mut i = t;
                while i < len {
                    c[i] = a[i].wrapping_add(a[len + i]);
                    i += threads;
                    count += 1;
                }
                ctx.charge_ops(count);
                ctx.set_count(count as usize);
            },
        )
        .expect("probe launch is well-formed");
    gpu.free(input);
    gpu.free(out);
    stats.time
}

/// Sweeps thread counts and finds the saturation knee.
///
/// Below the knee the device serves all `N` work-items at once, so the
/// time scales as `t(1)/N`; past it, waves serialize and the scaling
/// breaks. `g` is the largest `N` that still scales (the paper's "number
/// of threads that fully saturates the device"): a doubling sweep
/// brackets the knee — which need not be a power of two, the paper's HPU2
/// saturates at 1200 — and a binary search pins it down.
pub fn estimate_g(cfg: &MachineConfig, len: usize) -> GSweep {
    let mut gpu = SimGpu::new(cfg.gpu.clone());
    let mut samples = Vec::new();
    // Measure the fixed launch overhead with a do-nothing kernel, so the
    // scaling test below sees compute time only (the paper's measurement
    // on real hardware implicitly does the same by using large arrays).
    let mut dummy = gpu.alloc::<u64>(1).expect("one element fits");
    let overhead = gpu
        .launch("overhead probe", 1, &[], &mut dummy, |_, _, _| {})
        .expect("empty kernel runs")
        .time;
    gpu.free(dummy);

    let t1_raw = probe(&mut gpu, len, 1);
    samples.push((1, t1_raw));
    let t1 = t1_raw - overhead;
    // Still perfectly scaling at N? (5% tolerance for wave-edge effects.)
    let scales = |t_raw: f64, n: usize| t_raw - overhead <= 1.05 * t1 / n as f64;

    let mut lo = 1usize;
    let mut hi = None;
    let mut n = 2usize;
    while n <= len {
        let t = probe(&mut gpu, len, n);
        samples.push((n, t));
        if scales(t, n) {
            lo = n;
        } else {
            hi = Some(n);
            break;
        }
        n *= 2;
    }
    if let Some(mut hi) = hi {
        while hi - lo > 1 {
            let mid = lo + (hi - lo) / 2;
            let t = probe(&mut gpu, len, mid);
            samples.push((mid, t));
            if scales(t, mid) {
                lo = mid;
            } else {
                hi = mid;
            }
        }
    }
    samples.sort_by_key(|&(n, _)| n);
    GSweep { g: lo, samples }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn knee_matches_configured_lanes_power_of_two() {
        let mut cfg = MachineConfig::tiny(); // 8 lanes
        cfg.gpu.strict = false;
        let sweep = estimate_g(&cfg, 1 << 12);
        assert_eq!(sweep.g, 8, "samples: {:?}", sweep.samples);
    }

    #[test]
    fn knee_matches_non_power_of_two_lanes() {
        let mut cfg = MachineConfig::tiny();
        cfg.gpu.strict = false;
        cfg.gpu.lanes = 48;
        let sweep = estimate_g(&cfg, 1 << 12);
        let rel = (sweep.g as f64 - 48.0).abs() / 48.0;
        assert!(rel < 0.1, "estimated {} for 48 lanes", sweep.g);
    }

    #[test]
    fn times_fall_then_flatten() {
        let mut cfg = MachineConfig::tiny();
        cfg.gpu.strict = false;
        let sweep = estimate_g(&cfg, 1 << 12);
        let t1 = sweep.samples.iter().find(|&&(n, _)| n == 1).unwrap().1;
        let t8 = sweep.samples.iter().find(|&&(n, _)| n == 8).unwrap().1;
        assert!(t1 / t8 > 6.0, "near-linear scaling below the knee");
        if let Some(&(_, t16)) = sweep.samples.iter().find(|&&(n, _)| n == 16) {
            assert!(t16 >= t8 * 0.99, "flat beyond the knee");
        }
    }
}
