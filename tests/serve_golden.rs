//! Golden scheduler fixture: fixed seeded job streams through `serve_sim`
//! and `fleet_sim` under five setups, rendered exactly (every float via
//! `{:?}`, which round-trips) and compared with
//! `tests/fixtures/serve_golden.txt`.
//!
//! The fixture pins every virtual-time output of the scheduler — job
//! records, GPU leases, CPU reservations, batches, errors, replan
//! counts, plan-cache counters and span events — so a refactor of the
//! scheduler's internals must reproduce it byte for byte. Each setup also
//! asserts that the path it exists to cover is actually reached.
//!
//! Regenerate with `UPDATE_GOLDEN=1 cargo test --test serve_golden` only
//! for a deliberate behaviour change, and record what moved.

use std::fmt::Write as _;
use std::path::PathBuf;

use hpu_algos::MergeSort;
use hpu_fleet::{fleet_sim, FleetConfig, FleetJobRequest, FleetOutput, NodeSpec, StealReason};
use hpu_machine::{FaultPlan, MachineConfig, NodeFaultPlan, SimMachineParams};
use hpu_model::{CalibratorConfig, MachineParams, ScheduleSpec};
use hpu_obs::JobOutcome;
use hpu_serve::{
    serve_sim, AlgoJob, BatchPolicy, CheckpointPolicy, FaultConfig, JobRequest, ServeConfig,
    ServeOutput,
};

/// splitmix64: the stream generator, so the fixture depends on no
/// external PRNG.
struct Rng(u64);

impl Rng {
    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    fn below(&mut self, k: u64) -> u64 {
        self.next() % k
    }
}

/// One job of a seeded stream: its label, spec, size, arrival and
/// optional deadline slack (a multiple of `slack_unit` past arrival).
struct Draw {
    name: String,
    spec: ScheduleSpec,
    n: u64,
    arrival: f64,
    deadline: Option<f64>,
}

/// `jobs` draws from `seed`: sizes 2^8..2^11, specs over the GPU-using
/// and CPU-only shapes, arrivals at seeded gaps of up to `gap`, and —
/// when `slack_unit` is set — a deadline on every other job.
fn stream(seed: u64, jobs: usize, gap: f64, slack_unit: Option<f64>) -> Vec<Draw> {
    let mut rng = Rng(seed);
    let mut t = 0.0;
    (0..jobs)
        .map(|i| {
            t += rng.below(gap as u64 + 1) as f64;
            let n = 256u64 << rng.below(4);
            let spec = match rng.below(4) {
                0 => ScheduleSpec::Basic { crossover: Some(4) },
                1 => ScheduleSpec::GpuOnly,
                2 => ScheduleSpec::CpuParallel,
                _ => ScheduleSpec::Basic { crossover: Some(6) },
            };
            let deadline = slack_unit
                .filter(|_| i % 2 == 1)
                .map(|u| t + u * (1 + rng.below(8)) as f64);
            Draw {
                name: format!("j{i}-n{n}"),
                spec,
                n,
                arrival: t,
                deadline,
            }
        })
        .collect()
}

/// A stream that keeps GPU jobs queued while drift evidence arrives:
/// every even job is a large `CpuParallel` sort that holds the CPU, every
/// odd one a small GPU-using sort that waits for the device lease
/// because its CPU-only fallback cannot start either.
fn contended(seed: u64, jobs: usize, gap: f64, slack_unit: Option<f64>) -> Vec<Draw> {
    let mut draws = stream(seed, jobs, gap, slack_unit);
    for (i, d) in draws.iter_mut().enumerate() {
        if i % 2 == 0 {
            d.spec = ScheduleSpec::CpuParallel;
            d.n = 1 << 14;
        } else {
            d.n = 256;
            if d.spec == ScheduleSpec::CpuParallel {
                d.spec = ScheduleSpec::GpuOnly;
            }
        }
    }
    draws
}

fn data(n: u64) -> Vec<u64> {
    (0..n).map(|i| (i * 7919) % n).collect()
}

fn serve_jobs(draws: &[Draw]) -> Vec<JobRequest> {
    draws
        .iter()
        .map(|d| {
            let job = JobRequest::new(
                d.name.clone(),
                d.spec.clone(),
                d.arrival,
                AlgoJob::boxed(MergeSort::new(), data(d.n)),
            );
            match d.deadline {
                Some(dl) => job.with_deadline(dl),
                None => job,
            }
        })
        .collect()
}

fn fleet_jobs(draws: &[Draw]) -> Vec<FleetJobRequest> {
    draws
        .iter()
        .map(|d| {
            let job = FleetJobRequest::new(
                d.name.clone(),
                d.spec.clone(),
                d.arrival,
                AlgoJob::boxed(MergeSort::new(), data(d.n)),
            );
            match d.deadline {
                Some(dl) => job.with_deadline(dl),
                None => job,
            }
        })
        .collect()
}

/// A scheduler that believes the GPU is twice as fast as it is, with the
/// calibration loop on.
fn miscalibrated(cfg: &MachineConfig, plan_cache: Option<usize>) -> ServeConfig {
    let truth = MachineParams::from_config(cfg);
    let assumed = MachineParams::new(truth.p, truth.g, (truth.gamma * 2.0).min(1.0))
        .unwrap()
        .with_transfer_cost(truth.lambda, truth.delta);
    ServeConfig {
        queue_capacity: 64,
        assumed: Some(assumed),
        calibration: Some(CalibratorConfig::default()),
        plan_cache,
        ..Default::default()
    }
}

/// Renders everything a serving run produces that virtual time decides.
fn render_serve(s: &mut String, out: &ServeOutput) {
    for r in &out.report.jobs {
        writeln!(s, "record {r:?}").unwrap();
    }
    for run in &out.runs {
        writeln!(
            s,
            "run {} {} fallback={} vt={:?} transfers={} words={} levels={}",
            run.id,
            run.name,
            run.fallback,
            run.report.virtual_time,
            run.report.transfers,
            run.report.words,
            run.report.levels.len()
        )
        .unwrap();
    }
    for e in &out.errors {
        writeln!(s, "error {e:?}").unwrap();
    }
    for l in &out.gpu_leases {
        writeln!(s, "lease {l:?}").unwrap();
    }
    for c in &out.cpu_reservations {
        writeln!(s, "cpu {c:?}").unwrap();
    }
    for b in &out.batches {
        writeln!(s, "batch {b:?}").unwrap();
    }
    writeln!(s, "replans {}", out.replans).unwrap();
    writeln!(s, "cache {:?}", out.plan_cache).unwrap();
    writeln!(s, "calibration {:?}", out.calibration).unwrap();
    writeln!(
        s,
        "faults events={} trips={} makespan={:?}",
        out.report.fault_events, out.report.breaker_trips, out.report.makespan
    )
    .unwrap();
    for e in &out.spans {
        writeln!(s, "span {e:?}").unwrap();
    }
}

fn render_fleet(s: &mut String, out: &FleetOutput) {
    for (i, node) in out.nodes.iter().enumerate() {
        writeln!(s, "-- node {i}").unwrap();
        render_serve(s, node);
    }
    writeln!(s, "-- fleet").unwrap();
    for a in &out.assignments {
        writeln!(s, "assign {a:?}").unwrap();
    }
    for e in &out.steals {
        writeln!(s, "steal {e:?}").unwrap();
    }
    for e in &out.errors {
        writeln!(s, "fleet-error {e:?}").unwrap();
    }
    writeln!(s, "recovery {:?}", out.report.recovery).unwrap();
}

fn count(out: &ServeOutput, pred: impl Fn(&hpu_obs::JobRecord) -> bool) -> usize {
    out.report.jobs.iter().filter(|r| pred(r)).count()
}

/// Calibration with a mis-set γ under both cache settings: replans must
/// fire, and with CPU fallback on, a contended GPU sends some jobs to
/// their CPU-only shape.
fn calibration_setup(s: &mut String, plan_cache: Option<usize>) {
    let cfg = MachineConfig::hpu1_sim();
    let draws = contended(11, 24, 100.0, None);
    let out = serve_sim(&cfg, &miscalibrated(&cfg, plan_cache), serve_jobs(&draws));
    assert!(
        out.replans > 0,
        "calibration replans (cache {plan_cache:?})"
    );
    assert!(
        count(&out, |r| r.fallback) >= 1,
        "a fallback record (cache {plan_cache:?})"
    );
    writeln!(s, "== calibration cache={plan_cache:?}").unwrap();
    render_serve(s, &out);
}

/// Transient faults plus a device loss, with deadlines: the breaker
/// trips, queued GPU jobs degrade, some deadlines cancel, and drift
/// replans run while the injector is live.
fn faults_setup(s: &mut String) {
    let cfg = MachineConfig::hpu1_sim();
    let plan = FaultPlan::new(5)
        .with_kernel_rate(0.1)
        .with_transfer_rate(0.05)
        .with_device_loss_at(100);
    // Fallback off: a trip must re-compile queued GPU jobs CPU-only
    // rather than swap in a measured fallback, and a mis-set γ makes
    // replans run under fault injection.
    let serve = ServeConfig {
        cpu_fallback: false,
        faults: Some(FaultConfig::new(plan)),
        ..miscalibrated(&cfg, Some(64))
    };
    let draws = contended(23, 24, 100.0, Some(100_000.0));
    let out = serve_sim(&cfg, &serve, serve_jobs(&draws));
    assert!(out.report.breaker_trips >= 1, "the breaker trips");
    assert!(
        count(&out, |r| r.outcome == JobOutcome::Cancelled) >= 1,
        "a cancelled record"
    );
    assert!(count(&out, |r| r.degraded) >= 1, "a degraded record");
    assert!(out.replans > 0, "replans under fault injection");
    writeln!(s, "== faults").unwrap();
    render_serve(s, &out);
}

/// Cross-job batching with deadlines on a burst of same-sized jobs.
fn batch_setup(s: &mut String) {
    let cfg = MachineConfig::hpu1_sim();
    let serve = ServeConfig {
        queue_capacity: 64,
        cpu_fallback: false,
        batch: BatchPolicy::Coalesce { max_batch: 4 },
        ..Default::default()
    };
    let mut draws = stream(37, 20, 50.0, Some(400_000.0));
    for (i, d) in draws.iter_mut().enumerate() {
        if i % 3 != 2 {
            d.spec = ScheduleSpec::GpuOnly;
            d.n = 512;
        }
    }
    let out = serve_sim(&cfg, &serve, serve_jobs(&draws));
    assert!(!out.batches.is_empty(), "a batch forms");
    writeln!(s, "== batch").unwrap();
    render_serve(s, &out);
}

/// A 4-node fleet with stealing on and `EveryLevel` checkpointing, one
/// node crashing mid-run: queued jobs migrate, in-flight jobs resume.
fn fleet_setup(s: &mut String) {
    const NODES: u64 = 4;
    let serve = ServeConfig {
        queue_capacity: 32,
        cpu_fallback: false,
        checkpoint: CheckpointPolicy::EveryLevel,
        ..Default::default()
    };
    let cfg = FleetConfig::new(
        (0..NODES)
            .map(|i| {
                let machine = if i % 2 == 0 {
                    MachineConfig::hpu1_sim()
                } else {
                    MachineConfig::hpu2_sim()
                };
                NodeSpec::new(format!("n{i}"), machine).with_serve(serve.clone())
            })
            .collect(),
    );
    // The smallest seed whose plan crashes exactly one node.
    let seed = (0..10_000u64)
        .find(|&seed| {
            let plan = NodeFaultPlan::new(seed).with_crash_rate(0.3);
            (0..NODES).filter(|&i| plan.fault_for(i).is_some()).count() == 1
        })
        .expect("some seed crashes exactly one node");
    let cfg = cfg.with_node_faults(
        NodeFaultPlan::new(seed)
            .with_crash_rate(0.3)
            .with_crash_window(80, 80),
    );
    let mut draws = stream(53, 32, 30.0, None);
    for d in draws.iter_mut() {
        d.spec = ScheduleSpec::Basic { crossover: Some(4) };
        d.n = 1 << 12;
    }
    let out = fleet_sim(&cfg, fleet_jobs(&draws));
    assert!(out.report.recovery.crashes >= 1, "a node crashes");
    assert!(
        out.report.recovery.jobs_recovered >= 1,
        "an in-flight job resumes from its checkpoint"
    );
    assert!(
        out.steals.iter().any(|e| e.reason == StealReason::Load),
        "a load steal"
    );
    writeln!(s, "== fleet").unwrap();
    render_fleet(s, &out);
}

fn fixture_path() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("tests/fixtures/serve_golden.txt")
}

#[test]
fn scheduler_outputs_match_the_golden_fixture() {
    let mut got = String::new();
    calibration_setup(&mut got, Some(64));
    calibration_setup(&mut got, None);
    faults_setup(&mut got);
    batch_setup(&mut got);
    fleet_setup(&mut got);

    let path = fixture_path();
    if std::env::var_os("UPDATE_GOLDEN").is_some() {
        std::fs::create_dir_all(path.parent().unwrap()).unwrap();
        std::fs::write(&path, &got).unwrap();
        return;
    }
    let want = std::fs::read_to_string(&path)
        .unwrap_or_else(|e| panic!("missing fixture {}: {e}", path.display()));
    if got != want {
        let line = got
            .lines()
            .zip(want.lines())
            .position(|(g, w)| g != w)
            .unwrap_or_else(|| got.lines().count().min(want.lines().count()));
        panic!(
            "scheduler output diverged from {} at line {}:\n  got:  {}\n  want: {}",
            path.display(),
            line + 1,
            got.lines().nth(line).unwrap_or("<eof>"),
            want.lines().nth(line).unwrap_or("<eof>"),
        );
    }
}
