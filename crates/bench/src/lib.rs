//! # hpu-bench — experiment harness for every table and figure
//!
//! One function per table/figure of the paper's evaluation, plus the
//! serving, chaos, fleet, batching and recovery sweeps; the `repro`
//! binary prints their rows as CSV (and, with `--trace DIR`, writes Chrome
//! trace JSON plus per-level drift CSVs). Paper sizes (`n = 2^24`) are
//! available behind the `--full` flag of `repro`; the defaults are scaled
//! down so the whole suite completes in minutes on one host core.
//! Wall-clock performance is measured by the separate `perfbench`
//! package, not here.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod batch;
pub mod chaos;
pub mod experiments;
pub mod fleet;
pub mod recover;
pub mod serving;
pub mod workload;

pub use batch::batch_curve;
pub use chaos::chaos_sweep;
pub use experiments::*;
pub use fleet::fleet_scaling;
pub use recover::recover_sweep;
pub use serving::{calibrate_sweep, serve_fleet, ServeBackend};
pub use workload::{uniform_input, SplitMix64};
