//! The benchmark's `Workload` wrapper: serves exactly what `AlgoJob`
//! serves — it delegates every method to the same `hpu_core::exec`
//! function `AlgoJob` calls — and additionally records spans and hands
//! its output back for checking.
//!
//! Checking happens after the timed call returns: a job captures its
//! first dc-sum total (repeat runs operate on the previous output, so
//! only the first total is meaningful) and, when the scheduler drops it,
//! moves its buffer into an [`Outbox`]. No output check runs inside any
//! timed region.

use std::sync::{Arc, Mutex, PoisonError};
use std::time::Duration;

use hpu_algos::{DcSum, MergeSort};
use hpu_core::bf::num_levels;
use hpu_core::exec::{
    run_native, run_sim_plan, run_sim_plan_metered, run_sim_plan_recover, run_sim_plan_resume,
    Checkpoint, RecoveryPolicy, RecoveryStats, RunReport,
};
use hpu_core::{BfAlgorithm, CoreError, LevelPool};
use hpu_machine::SimHpu;
use hpu_model::{Plan, Recurrence, ScheduleSpec};
use hpu_obs::MetricsRegistry;
use hpu_serve::{AlgoJob, Workload};

use crate::rng::{mix64, sort_keys, summands, Rng};
use crate::trace::Tracer;

/// The algorithm a job runs.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Algo {
    Sort,
    Sum,
}

/// A job's input buffer.
#[derive(Debug, Clone)]
pub enum Input {
    Sort(Vec<u32>),
    Sum(Vec<u64>),
}

/// What a correct run must produce, fixed when the input is generated.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Expect {
    /// Sorted, with the input's length and multiset checksum.
    Sorted { len: usize, checksum: (u64, u64) },
    /// The exact total.
    Total(u64),
}

/// Order-independent multiset fingerprint: two independent hash sums.
pub fn checksum(keys: &[u32]) -> (u64, u64) {
    keys.iter().fold((0u64, 0u64), |(a, b), &k| {
        let h = mix64(u64::from(k) ^ 0xA076_1D64_78BD_642F);
        (a.wrapping_add(h), b.wrapping_add(mix64(h)))
    })
}

/// One job of a workload stream.
#[derive(Debug, Clone)]
pub struct JobSpec {
    pub algo: Algo,
    pub n: usize,
    pub spec: ScheduleSpec,
    pub input: Input,
    pub expect: Expect,
}

impl JobSpec {
    /// Generates the input of one job and what it must produce.
    pub fn generate(algo: Algo, n: usize, spec: ScheduleSpec, rng: &mut Rng) -> Self {
        let (input, expect) = match algo {
            Algo::Sort => {
                let keys = sort_keys(rng, n);
                let expect = Expect::Sorted {
                    len: n,
                    checksum: checksum(&keys),
                };
                (Input::Sort(keys), expect)
            }
            Algo::Sum => {
                let v = summands(rng, n);
                let expect = Expect::Total(v.iter().sum());
                (Input::Sum(v), expect)
            }
        };
        JobSpec {
            algo,
            n,
            spec,
            input,
            expect,
        }
    }

    pub fn name(&self, id: usize) -> String {
        let kind = match self.algo {
            Algo::Sort => "sort",
            Algo::Sum => "sum",
        };
        format!("{kind}-{id}-n{}", self.n)
    }

    /// The same job as the program ships it: a plain `AlgoJob`.
    pub fn algo_job(&self) -> Box<dyn Workload> {
        match &self.input {
            Input::Sort(v) => AlgoJob::boxed(MergeSort::new(), v.clone()),
            Input::Sum(v) => AlgoJob::boxed(DcSum, v.clone()),
        }
    }

    /// The job wrapped for checking (and, with a tracer, for spans).
    pub fn checked(
        &self,
        id: u64,
        outbox: &Arc<Outbox>,
        tracer: Option<&Arc<Tracer>>,
    ) -> Box<dyn Workload> {
        Box::new(CheckedJob {
            id,
            payload: match &self.input {
                Input::Sort(v) => Payload::Sort(MergeSort::new(), v.clone()),
                Input::Sum(v) => Payload::Sum(DcSum, v.clone()),
            },
            first_total: None,
            runs: 0,
            outbox: Arc::clone(outbox),
            tracer: tracer.cloned(),
        })
    }
}

/// A job's output as handed back when the scheduler drops it.
pub enum Output {
    Sorted(Vec<u32>),
    Total(Option<u64>),
}

/// Outputs of every dropped job of one pass, collected for checking.
#[derive(Default)]
pub struct Outbox(Mutex<Vec<(u64, u32, Output)>>);

impl Outbox {
    fn push(&self, id: u64, runs: u32, out: Output) {
        self.0
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
            .push((id, runs, out));
    }

    /// Checks every returned output against `expect` (indexed by job id).
    /// Returns, per job id, whether it ran at least once and produced the
    /// right output; jobs never returned stay `false`.
    pub fn verify(&self, expect: &[Expect]) -> Vec<bool> {
        let returned = std::mem::take(&mut *self.0.lock().unwrap_or_else(PoisonError::into_inner));
        let mut ok = vec![false; expect.len()];
        for (id, runs, out) in returned {
            let Some(e) = expect.get(id as usize) else {
                continue;
            };
            ok[id as usize] = runs > 0
                && match (e, out) {
                    (Expect::Sorted { len, checksum: c }, Output::Sorted(v)) => {
                        v.len() == *len && v.windows(2).all(|w| w[0] <= w[1]) && checksum(&v) == *c
                    }
                    (Expect::Total(t), Output::Total(got)) => got == Some(*t),
                    _ => false,
                };
        }
        ok
    }
}

enum Payload {
    Sort(MergeSort, Vec<u32>),
    Sum(DcSum, Vec<u64>),
}

/// Applies `$f(algo, data)` to whichever algorithm the payload holds.
macro_rules! with_algo {
    ($payload:expr, |$a:ident, $d:ident| $body:expr) => {
        match $payload {
            Payload::Sort($a, $d) => $body,
            Payload::Sum($a, $d) => $body,
        }
    };
}

/// Times `$body` as a span named `$name` when the job carries a tracer.
macro_rules! span {
    ($self:ident, $name:literal, $body:expr) => {{
        let start = $self.tracer.as_ref().map(|t| t.now_ns());
        let r = $body;
        if let (Some(t), Some(s)) = ($self.tracer.as_ref(), start) {
            t.record($name, Some($self.id), s, t.now_ns());
        }
        r
    }};
}

/// See the module docs.
pub struct CheckedJob {
    id: u64,
    payload: Payload,
    first_total: Option<u64>,
    runs: u32,
    outbox: Arc<Outbox>,
    tracer: Option<Arc<Tracer>>,
}

impl CheckedJob {
    /// Counts a finished run and captures the first dc-sum total.
    fn ran(&mut self, ok: bool) {
        self.runs += 1;
        if let (Payload::Sum(_, d), None, true) = (&self.payload, self.first_total, ok) {
            self.first_total = d.first().copied();
        }
    }
}

impl Drop for CheckedJob {
    fn drop(&mut self) {
        let out = match &mut self.payload {
            Payload::Sort(_, d) => Output::Sorted(std::mem::take(d)),
            Payload::Sum(..) => Output::Total(self.first_total),
        };
        self.outbox.push(self.id, self.runs, out);
    }
}

impl Workload for CheckedJob {
    fn kind(&self) -> &'static str {
        span!(
            self,
            "kind",
            match &self.payload {
                Payload::Sort(a, _) => BfAlgorithm::<u32>::name(a),
                Payload::Sum(a, _) => BfAlgorithm::<u64>::name(a),
            }
        )
    }

    fn input_len(&self) -> usize {
        span!(
            self,
            "input_len",
            with_algo!(&self.payload, |_a, d| d.len())
        )
    }

    fn recurrence(&self) -> Recurrence {
        span!(
            self,
            "recurrence",
            match &self.payload {
                Payload::Sort(a, _) => BfAlgorithm::<u32>::recurrence(a),
                Payload::Sum(a, _) => BfAlgorithm::<u64>::recurrence(a),
            }
        )
    }

    fn exec_levels(&self) -> Result<u32, CoreError> {
        span!(
            self,
            "exec_levels",
            match &self.payload {
                Payload::Sort(a, d) => num_levels::<u32>(a, d.len()),
                Payload::Sum(a, d) => num_levels::<u64>(a, d.len()),
            }
        )
    }

    fn run_plan(&mut self, hpu: &mut SimHpu, plan: &Plan) -> Result<RunReport, CoreError> {
        let r = span!(
            self,
            "run_plan",
            with_algo!(&mut self.payload, |a, d| run_sim_plan(a, d, hpu, plan))
        );
        self.ran(r.is_ok());
        r
    }

    fn run_plan_metered(
        &mut self,
        hpu: &mut SimHpu,
        plan: &Plan,
        metrics: Arc<MetricsRegistry>,
    ) -> Result<RunReport, CoreError> {
        let r = span!(
            self,
            "run_plan",
            with_algo!(&mut self.payload, |a, d| run_sim_plan_metered(
                a,
                d,
                hpu,
                plan,
                Some(metrics)
            ))
        );
        self.ran(r.is_ok());
        r
    }

    fn run_plan_recover(
        &mut self,
        hpu: &mut SimHpu,
        plan: &Plan,
        policy: &RecoveryPolicy,
    ) -> (Result<RunReport, CoreError>, RecoveryStats) {
        let r = span!(
            self,
            "run_plan",
            with_algo!(&mut self.payload, |a, d| run_sim_plan_recover(
                a, d, hpu, plan, policy
            ))
        );
        self.ran(r.0.is_ok());
        r
    }

    fn run_plan_resume(
        &mut self,
        hpu: &mut SimHpu,
        plan: &Plan,
        ckpt: &Checkpoint,
    ) -> Result<RunReport, CoreError> {
        let r = span!(
            self,
            "run_plan",
            with_algo!(&mut self.payload, |a, d| run_sim_plan_resume(
                a, d, hpu, plan, ckpt
            ))
        );
        self.ran(r.is_ok());
        r
    }

    fn run_native(&mut self, pool: &LevelPool) -> Result<Duration, CoreError> {
        let r = span!(
            self,
            "run_native",
            with_algo!(&mut self.payload, |a, d| run_native(a, d, pool))
        );
        self.ran(r.is_ok());
        r
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn verify_catches_unsorted_and_foreign_outputs() {
        let keys = vec![3u32, 1, 2];
        let expect = vec![
            Expect::Sorted {
                len: 3,
                checksum: checksum(&keys),
            },
            Expect::Sorted {
                len: 3,
                checksum: checksum(&keys),
            },
            Expect::Sorted {
                len: 3,
                checksum: checksum(&keys),
            },
            Expect::Total(6),
        ];
        let ob = Outbox::default();
        ob.push(0, 1, Output::Sorted(vec![1, 2, 3]));
        ob.push(1, 1, Output::Sorted(vec![1, 3, 2]));
        ob.push(2, 1, Output::Sorted(vec![1, 2, 4]));
        ob.push(3, 2, Output::Total(Some(6)));
        assert_eq!(ob.verify(&expect), vec![true, false, false, true]);
    }
}
