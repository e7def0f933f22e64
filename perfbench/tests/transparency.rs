//! The benchmark measures the program as shipped: serving a stream through
//! the checking wrapper gives exactly the `JobRecord`s that serving the
//! same stream as plain `AlgoJob`s gives — outcome, arrival, start, end,
//! fallback and every other field — with and without tracing.

use std::sync::Arc;

use hpu_fleet::{fleet_sim, FleetJobRequest};
use hpu_machine::MachineConfig;
use hpu_obs::{JobRecord, MetricsRegistry};
use hpu_serve::{JobRequest, NodeSim};
use perfbench::job::JobSpec;
use perfbench::trace::Tracer;
use perfbench::{fleet, hybrid, sim};

fn sorted(mut v: Vec<JobRecord>) -> Vec<JobRecord> {
    v.sort_by_key(|r| r.id);
    v
}

fn arrivals(gaps: &[f64], rate: f64) -> Vec<f64> {
    // Any fixed load unit will do: both paths see the same arrivals.
    sim::arrivals(gaps, 80_000.0, rate)
}

#[test]
fn fleet_small_records_match_algo_jobs() {
    let (jobs, gaps) = fleet::stream(7, 480);
    let jobs: Vec<&JobSpec> = jobs.iter().collect();
    let at = arrivals(&gaps, fleet::OPERATING_RATE);
    for traced in [false, true] {
        let registry = Arc::new(MetricsRegistry::new());
        let tracer = Arc::new(Tracer::default());
        let metrics = traced.then(|| Arc::clone(&registry));
        let reqs = jobs
            .iter()
            .zip(&at)
            .enumerate()
            .map(|(i, (j, &t))| FleetJobRequest::new(j.name(i), j.spec.clone(), t, j.algo_job()))
            .collect();
        let plain = fleet_sim(&fleet::config(false, metrics), reqs);
        let want = sorted(
            plain
                .nodes
                .iter()
                .flat_map(|o| o.report.jobs.clone())
                .collect(),
        );

        let run = fleet::serve(&jobs, &at, false, traced.then_some((&tracer, &registry)));
        let got = sorted(run.records().cloned().collect());
        assert_eq!(got.len(), jobs.len());
        assert_eq!(got, want, "traced = {traced}");
        assert_eq!(run.wrong(), 0);
        assert!(
            got.iter().any(|r| r.fallback),
            "the stream exercises fallback"
        );
    }
}

#[test]
fn hybrid_replan_records_match_algo_jobs() {
    // The stream's shapes up to 2^15, so the test stays quick unoptimized.
    let (all, gaps) = hybrid::stream(7, 112);
    let jobs: Vec<&JobSpec> = all.iter().filter(|j| j.n <= 1 << 15).collect();
    let at = arrivals(&gaps[..jobs.len()], 8.0);
    for traced in [false, true] {
        let registry = Arc::new(MetricsRegistry::new());
        let tracer = Arc::new(Tracer::default());
        let cfg = hybrid::config(traced.then(|| Arc::clone(&registry)));
        let mut node = NodeSim::new(&MachineConfig::hpu1_sim(), &cfg);
        for (i, (j, &t)) in jobs.iter().zip(&at).enumerate() {
            node.submit(
                i as u64,
                JobRequest::new(j.name(i), j.spec.clone(), t, j.algo_job()),
            );
        }
        let plain = node.finish();
        assert!(
            plain.replans > 0,
            "the stream exercises calibration replans"
        );
        let want = sorted(plain.report.jobs.clone());

        let run = hybrid::serve(&jobs, &at, traced.then_some((&tracer, &registry)));
        assert_eq!(run.nodes[0].replans, plain.replans);
        let got = sorted(run.records().cloned().collect());
        assert_eq!(got, want, "traced = {traced}");
        assert_eq!(run.wrong(), 0);
    }
}
