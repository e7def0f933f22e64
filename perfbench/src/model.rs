//! Replays of the model layer's public calls on a workload's own shapes:
//! `compile` per schedule kind, `plan_cost`, and a warm `PlanCache` hit.

use std::hint::black_box;
use std::time::Instant;

use hpu_algos::{DcSum, MergeSort};
use hpu_core::bf::num_levels;
use hpu_core::BfAlgorithm;
use hpu_model::{
    compile, plan_cost, LevelProfile, MachineParams, PlanCache, Recurrence, ScheduleSpec,
};

use crate::job::{Algo, JobSpec};
use crate::out::Metrics;
use crate::stats::median;

/// Schedule kinds, as named in the metric table.
pub const SPEC_KINDS: [&str; 4] = ["AdvancedAuto", "Basic", "GpuOnly", "CpuParallel"];

pub fn spec_kind(spec: &ScheduleSpec) -> &'static str {
    match spec {
        ScheduleSpec::AdvancedAuto => "AdvancedAuto",
        ScheduleSpec::Basic { .. } => "Basic",
        ScheduleSpec::GpuOnly => "GpuOnly",
        ScheduleSpec::CpuParallel => "CpuParallel",
        ScheduleSpec::Sequential => "Sequential",
        ScheduleSpec::Advanced { .. } => "Advanced",
    }
}

/// Distinct `(recurrence, n, levels)` shapes of a stream.
fn shapes(jobs: &[&JobSpec]) -> Vec<(Recurrence, u64, u32)> {
    let mut seen: Vec<(Algo, usize)> = jobs.iter().map(|j| (j.algo, j.n)).collect();
    seen.sort_by_key(|&(a, n)| (a == Algo::Sum, n));
    seen.dedup();
    seen.into_iter()
        .map(|(algo, n)| match algo {
            Algo::Sort => {
                let a = MergeSort::new();
                let levels = num_levels::<u32>(&a, n).expect("stream sizes are valid");
                (BfAlgorithm::<u32>::recurrence(&a), n as u64, levels)
            }
            Algo::Sum => {
                let levels = num_levels::<u64>(&DcSum, n).expect("stream sizes are valid");
                (DcSum.recurrence(), n as u64, levels)
            }
        })
        .collect()
}

/// Mean µs per call of `f`, repeated until at least 2 ms have passed.
fn per_call_us(mut f: impl FnMut()) -> f64 {
    let t0 = Instant::now();
    let mut calls = 0u32;
    while calls < 3 || t0.elapsed().as_micros() < 2_000 {
        f();
        calls += 1;
    }
    t0.elapsed().as_secs_f64() * 1e6 / f64::from(calls)
}

/// Sets the `model.*_us` replay rows: median over the stream's shapes of
/// the per-call time, 0 for a schedule kind the stream does not use.
pub fn replay(m: &mut Metrics, jobs: &[&JobSpec], params: &MachineParams, specs: &[ScheduleSpec]) {
    let shapes = shapes(jobs);
    for kind in SPEC_KINDS {
        let us: Vec<f64> = specs
            .iter()
            .filter(|s| spec_kind(s) == kind)
            .flat_map(|spec| {
                shapes.iter().map(move |(rec, n, lv)| {
                    per_call_us(|| {
                        black_box(
                            compile(spec, params, rec, *n, *lv).expect("stream shapes compile"),
                        );
                    })
                })
            })
            .collect();
        m.set(format!("model.compile_us.{kind}"), median(&us), "us");
    }
    let mut cost_us = Vec::new();
    let mut hit_us = Vec::new();
    let mut cache = PlanCache::default();
    for spec in specs {
        for (rec, n, lv) in &shapes {
            let plan = compile(spec, params, rec, *n, *lv).expect("stream shapes compile");
            cost_us.push(per_call_us(|| {
                let profile = LevelProfile::new(params, rec, *n);
                black_box(plan_cost(&profile, &plan).expect("compiled plans price"));
            }));
            cache
                .lookup_or_compile(spec, params, rec, *n, *lv, None)
                .expect("stream shapes compile");
            hit_us.push(per_call_us(|| {
                black_box(
                    cache
                        .lookup_or_compile(spec, params, rec, *n, *lv, None)
                        .expect("cached"),
                );
            }));
        }
    }
    m.set("model.plan_cost_us", median(&cost_us), "us");
    m.set("model.cache_hit_us", median(&hit_us), "us");
}
