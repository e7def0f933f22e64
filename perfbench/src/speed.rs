//! Machine-speed normalization of host times.
//!
//! On a shared machine, memory-side interference from other tenants slows
//! cache- and bandwidth-heavy code by up to ±25% over stretches of seconds,
//! while pure compute stays within ±5%. A run that lands in a slow stretch
//! would read as a regression. So every timed pass is bracketed by a fixed
//! reference workload: a pointer-chasing map build and a DRAM-sized
//! streaming sort, run on as many threads as the pass keeps busy, since
//! two busy threads slow down differently from one. The reference is the
//! benchmark's own code, not the program's, so it never moves with a
//! change to the program. Host times are reported scaled by
//! `NOMINAL_REF_MS / reference time`: milliseconds at the reference's
//! nominal speed.

use std::collections::BTreeMap;
use std::hint::black_box;
use std::time::Instant;

use crate::rng::Rng;

/// The reference's typical wall time on the 2-vCPU Xeon the benchmark was
/// built on. The constant only sets the scale of the reported times.
pub const NOMINAL_REF_MS: f64 = 75.0;

/// Wall ms of `threads` reference runs side by side, one per thread.
pub fn reference_ms(threads: usize) -> f64 {
    let t0 = Instant::now();
    std::thread::scope(|s| {
        for _ in 1..threads {
            s.spawn(reference);
        }
        reference();
    });
    t0.elapsed().as_secs_f64() * 1e3
}

fn reference() {
    let mut rng = Rng::new(0x5EED);
    let keys: Vec<u64> = (0..60_000).map(|_| rng.next_u64()).collect();
    let mut map = BTreeMap::new();
    for &k in &keys {
        map.insert(k, vec![k; 4]);
    }
    let acc = keys
        .iter()
        .step_by(3)
        .fold(0u64, |a, k| a ^ map.get(k).map_or(0, |v| v[1]));
    black_box((acc, map));
    let mut v: Vec<u32> = (0..1 << 20).map(|_| rng.next_u64() as u32).collect();
    v.sort();
    black_box(v);
}

/// Runs `f`, which keeps `threads` threads busy, between two reference
/// runs on as many threads. Returns its result and the factor that scales
/// a host time measured during `f` to nominal speed.
pub fn bracket<R>(threads: usize, f: impl FnOnce() -> R) -> (R, f64) {
    let before = reference_ms(threads);
    let r = f();
    let after = reference_ms(threads);
    (r, 2.0 * NOMINAL_REF_MS / (before + after))
}
