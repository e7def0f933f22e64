//! The fully general divide-and-conquer form (paper Algorithms 1 & 2).
//!
//! [`DivideConquer`] captures an arbitrary D&C algorithm through its four
//! primitives — `endCondition`, `BaseCase`, `Divide`, `Combine` — over any
//! parameter/output types. Three executors implement the paper's
//! translation pipeline:
//!
//! * [`run_recursive`] — Algorithm 1, the classic depth-first recursion;
//! * [`run_breadth_first`] — Algorithm 2, the level-order transformation:
//!   each level's subdivisions are batched and base cases are *deferred*
//!   until no recursive subproblems remain;
//! * [`run_threaded`] — the breadth-first form with each level's
//!   independent tasks executed on a real thread pool;
//! * [`run_sim_cpu`] — the breadth-first form with each level's tasks
//!   executed level-parallel on a simulated CPU, charging costs.
//!
//! Unlike the regular in-place form ([`crate::bf`]), trees here may be
//! irregular (data-dependent division counts and base-case depths).

use hpu_machine::{CpuCtx, SimCpu};

use crate::charge::{Charge, NullCharge};
use crate::pool::LevelPool;

/// A divide-and-conquer algorithm in the shape of Algorithm 1.
pub trait DivideConquer {
    /// Description of a subproblem.
    type Param: Send;
    /// Solution of a subproblem.
    type Output: Send;

    /// `endCondition(param)`: whether the subproblem is a base case.
    fn is_base(&self, param: &Self::Param) -> bool;

    /// Solves a base case.
    fn base_case(&self, param: Self::Param, charge: &mut dyn Charge) -> Self::Output;

    /// Splits a subproblem into its children (length = the branching of
    /// this node; may vary per node).
    fn divide(&self, param: &Self::Param, charge: &mut dyn Charge) -> Vec<Self::Param>;

    /// Combines child solutions into the parent solution.
    fn combine(
        &self,
        param: Self::Param,
        children: Vec<Self::Output>,
        charge: &mut dyn Charge,
    ) -> Self::Output;
}

/// Algorithm 1: plain depth-first recursion.
pub fn run_recursive<D: DivideConquer>(
    algo: &D,
    param: D::Param,
    charge: &mut dyn Charge,
) -> D::Output {
    if algo.is_base(&param) {
        return algo.base_case(param, charge);
    }
    let children = algo.divide(&param, charge);
    let outputs = children
        .into_iter()
        .map(|c| run_recursive(algo, c, charge))
        .collect();
    algo.combine(param, outputs, charge)
}

/// Arena node used by the breadth-first executors.
struct Node<P> {
    param: Option<P>,
    /// Indices of children in the arena; empty for base cases.
    children: Vec<usize>,
}

/// Builds the recursion tree level by level (the *down* phase of
/// Algorithm 2). Returns the arena and the node-index levels, root first.
fn build_levels<D: DivideConquer>(
    algo: &D,
    root: D::Param,
    charge: &mut dyn Charge,
) -> (Vec<Node<D::Param>>, Vec<Vec<usize>>) {
    let mut arena = vec![Node {
        param: Some(root),
        children: Vec::new(),
    }];
    let mut levels = vec![vec![0usize]];
    loop {
        let frontier = levels.last().expect("at least the root level");
        let mut next = Vec::new();
        for &idx in frontier {
            let param = arena[idx].param.as_ref().expect("param present going down");
            if algo.is_base(param) {
                continue;
            }
            let children = algo.divide(param, charge);
            for child in children {
                let cidx = arena.len();
                arena.push(Node {
                    param: Some(child),
                    children: Vec::new(),
                });
                arena[idx].children.push(cidx);
                next.push(cidx);
            }
        }
        if next.is_empty() {
            break;
        }
        levels.push(next);
    }
    (arena, levels)
}

/// Algorithm 2: breadth-first execution. Subproblems are divided level by
/// level; base cases are deferred until no recursive subproblem remains,
/// then everything is combined bottom-up, one level at a time.
pub fn run_breadth_first<D: DivideConquer>(
    algo: &D,
    root: D::Param,
    charge: &mut dyn Charge,
) -> D::Output {
    let (mut arena, levels) = build_levels(algo, root, charge);
    let mut outputs: Vec<Option<D::Output>> = (0..arena.len()).map(|_| None).collect();
    // Up phase: deepest level first. Base cases may appear at any level
    // (they were carried down, matching Algorithm 2's `next_params`).
    for level in levels.iter().rev() {
        for &idx in level {
            let param = arena[idx].param.take().expect("param consumed once");
            let out = if arena[idx].children.is_empty() {
                algo.base_case(param, charge)
            } else {
                let children = std::mem::take(&mut arena[idx].children);
                let outs = children
                    .into_iter()
                    .map(|c| outputs[c].take().expect("child solved below"))
                    .collect();
                algo.combine(param, outs, charge)
            };
            outputs[idx] = Some(out);
        }
    }
    outputs[0].take().expect("root solved")
}

/// Breadth-first execution with each level's independent tasks run on a
/// real thread pool (the multi-core half of the paper's translation).
pub fn run_threaded<D>(algo: &D, root: D::Param, pool: &LevelPool) -> D::Output
where
    D: DivideConquer + Sync,
{
    let (mut arena, levels) = build_levels(algo, root, &mut NullCharge);
    let mut outputs: Vec<Option<D::Output>> = (0..arena.len()).map(|_| None).collect();
    for level in levels.iter().rev() {
        // Take each task's inputs out of the arena first (children live
        // strictly below this level, so the slots are disjoint), then run
        // the level on the pool; results come back by value.
        let tasks: Vec<_> = level
            .iter()
            .map(|&idx| {
                let param = arena[idx].param.take().expect("param consumed once");
                let children = std::mem::take(&mut arena[idx].children);
                let outs: Vec<D::Output> = children
                    .into_iter()
                    .map(|c| outputs[c].take().expect("child solved below"))
                    .collect();
                move || {
                    if outs.is_empty() {
                        algo.base_case(param, &mut NullCharge)
                    } else {
                        algo.combine(param, outs, &mut NullCharge)
                    }
                }
            })
            .collect();
        let results = pool.run_collect(tasks);
        for (&idx, out) in level.iter().zip(results) {
            outputs[idx] = Some(out);
        }
    }
    outputs[0].take().expect("root solved")
}

/// Breadth-first execution on a simulated CPU: each level's tasks run
/// level-parallel on `cores` cores with full cost accounting.
pub fn run_sim_cpu<D: DivideConquer>(
    algo: &D,
    root: D::Param,
    cpu: &mut SimCpu,
    cores: usize,
) -> D::Output {
    // The down phase (divisions) is pure bookkeeping in Algorithm 2's
    // one-recursion form; its cost is charged level-parallel as well.
    let (mut arena, levels) = build_levels(algo, root, &mut NullCharge);
    // Re-charge division costs per level (they were computed above to
    // discover the tree shape; the paper's divide step is part of f(n)).
    let mut outputs: Vec<Option<D::Output>> = (0..arena.len()).map(|_| None).collect();
    for (depth, level) in levels.iter().enumerate().rev() {
        let mut work: Vec<(usize, D::Param, Vec<D::Output>)> = Vec::with_capacity(level.len());
        for &idx in level {
            let param = arena[idx].param.take().expect("param consumed once");
            let children = std::mem::take(&mut arena[idx].children);
            let outs: Vec<D::Output> = children
                .into_iter()
                .map(|c| outputs[c].take().expect("child solved below"))
                .collect();
            work.push((idx, param, outs));
        }
        let label = format!("level {depth}");
        // run_level_with executes tasks sequentially on the host, so the
        // closures can push results into a shared local queue.
        let queue = std::cell::RefCell::new(Vec::with_capacity(work.len()));
        cpu.run_level_with(
            cores,
            &label,
            work.into_iter().map(|(idx, param, outs)| {
                let queue = &queue;
                move |ctx: &mut CpuCtx| {
                    let out = if outs.is_empty() {
                        algo.base_case(param, ctx)
                    } else {
                        algo.combine(param, outs, ctx)
                    };
                    queue.borrow_mut().push((idx, out));
                }
            }),
        );
        for (idx, out) in queue.into_inner() {
            outputs[idx] = Some(out);
        }
    }
    outputs[0].take().expect("root solved")
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::charge::CountingCharge;
    use hpu_machine::CpuConfig;

    /// D&C sum over a slice of numbers (paper Algorithm 4).
    struct TreeSum<'a> {
        data: &'a [u64],
    }

    /// A subproblem is a half-open range of the slice.
    type Range = (usize, usize);

    impl DivideConquer for TreeSum<'_> {
        type Param = Range;
        type Output = u64;

        fn is_base(&self, &(lo, hi): &Range) -> bool {
            hi - lo <= 1
        }
        fn base_case(&self, (lo, hi): Range, charge: &mut dyn Charge) -> u64 {
            charge.ops(1);
            if hi > lo {
                self.data[lo]
            } else {
                0
            }
        }
        fn divide(&self, &(lo, hi): &Range, charge: &mut dyn Charge) -> Vec<Range> {
            charge.ops(1);
            let mid = lo + (hi - lo) / 2;
            vec![(lo, mid), (mid, hi)]
        }
        fn combine(&self, _p: Range, children: Vec<u64>, charge: &mut dyn Charge) -> u64 {
            charge.ops(1);
            children.iter().sum()
        }
    }

    fn data(n: usize) -> Vec<u64> {
        (1..=n as u64).collect()
    }

    #[test]
    fn recursive_sums() {
        let d = data(100);
        let algo = TreeSum { data: &d };
        let s = run_recursive(&algo, (0, 100), &mut NullCharge);
        assert_eq!(s, 5050);
    }

    #[test]
    fn breadth_first_matches_recursive() {
        for n in [1usize, 2, 3, 7, 64, 100, 255] {
            let d = data(n);
            let algo = TreeSum { data: &d };
            let r = run_recursive(&algo, (0, n), &mut NullCharge);
            let b = run_breadth_first(&algo, (0, n), &mut NullCharge);
            assert_eq!(r, b, "n = {n}");
        }
    }

    #[test]
    fn breadth_first_charges_same_base_and_combine_work() {
        let d = data(64);
        let algo = TreeSum { data: &d };
        let mut cr = CountingCharge::default();
        let mut cb = CountingCharge::default();
        run_recursive(&algo, (0, 64), &mut cr);
        run_breadth_first(&algo, (0, 64), &mut cb);
        assert_eq!(cr, cb);
    }

    #[test]
    fn threaded_matches_recursive() {
        let pool = LevelPool::new(3);
        for n in [1usize, 5, 64, 100] {
            let d = data(n);
            let algo = TreeSum { data: &d };
            let t = run_threaded(&algo, (0, n), &pool);
            assert_eq!(t, (n as u64) * (n as u64 + 1) / 2, "n = {n}");
        }
    }

    /// Order-sensitive tree form: every node returns its range's elements
    /// in order, so a level whose results come back out of task order
    /// yields a permuted output. Ranges divisible by 3 split three ways,
    /// giving levels with odd task counts.
    struct Gather<'a> {
        data: &'a [u64],
    }

    impl DivideConquer for Gather<'_> {
        type Param = Range;
        type Output = Vec<u64>;
        fn is_base(&self, &(lo, hi): &Range) -> bool {
            hi - lo <= 1
        }
        fn base_case(&self, (lo, hi): Range, _c: &mut dyn Charge) -> Vec<u64> {
            self.data[lo..hi].to_vec()
        }
        fn divide(&self, &(lo, hi): &Range, _c: &mut dyn Charge) -> Vec<Range> {
            let len = hi - lo;
            if len % 3 == 0 {
                let t = len / 3;
                vec![(lo, lo + t), (lo + t, lo + 2 * t), (lo + 2 * t, hi)]
            } else {
                let mid = lo + len / 2;
                vec![(lo, mid), (mid, hi)]
            }
        }
        fn combine(&self, _p: Range, ch: Vec<Vec<u64>>, _c: &mut dyn Charge) -> Vec<u64> {
            ch.concat()
        }
    }

    #[test]
    fn threaded_large_trees_match_sequential() {
        for n in [(1usize << 16) + 1, 3 << 15] {
            let d = data(n);
            let algo = Gather { data: &d };
            let seq = run_breadth_first(&algo, (0, n), &mut NullCharge);
            assert_eq!(seq, d, "n = {n}");
            for threads in [2, 3] {
                let t = run_threaded(&algo, (0, n), &LevelPool::new(threads));
                assert!(t == seq, "n = {n} on {threads} threads");
            }
        }
    }

    #[test]
    fn sim_cpu_matches_and_speeds_up_with_cores() {
        let d = data(256);
        let algo = TreeSum { data: &d };
        let mut cpu1 = SimCpu::new(CpuConfig::uniform(8));
        let s1 = run_sim_cpu(&algo, (0, 256), &mut cpu1, 1);
        let mut cpu8 = SimCpu::new(CpuConfig::uniform(8));
        let s8 = run_sim_cpu(&algo, (0, 256), &mut cpu8, 8);
        assert_eq!(s1, 32896);
        assert_eq!(s8, 32896);
        assert!(
            cpu8.clock() < cpu1.clock(),
            "8 cores ({}) should beat 1 core ({})",
            cpu8.clock(),
            cpu1.clock()
        );
    }

    /// Irregular tree: division count depends on the value (3 children for
    /// ranges divisible by 3, else 2) — exercises non-uniform branching.
    struct Irregular<'a> {
        data: &'a [u64],
    }

    impl DivideConquer for Irregular<'_> {
        type Param = Range;
        type Output = u64;
        fn is_base(&self, &(lo, hi): &Range) -> bool {
            hi - lo <= 2
        }
        fn base_case(&self, (lo, hi): Range, _c: &mut dyn Charge) -> u64 {
            self.data[lo..hi].iter().sum()
        }
        fn divide(&self, &(lo, hi): &Range, _c: &mut dyn Charge) -> Vec<Range> {
            let len = hi - lo;
            if len % 3 == 0 {
                let t = len / 3;
                vec![(lo, lo + t), (lo + t, lo + 2 * t), (lo + 2 * t, hi)]
            } else {
                let mid = lo + len / 2;
                vec![(lo, mid), (mid, hi)]
            }
        }
        fn combine(&self, _p: Range, ch: Vec<u64>, _c: &mut dyn Charge) -> u64 {
            ch.iter().sum()
        }
    }

    #[test]
    fn irregular_trees_execute_correctly_everywhere() {
        let pool = LevelPool::new(2);
        for n in [3usize, 9, 17, 54, 100] {
            let d = data(n);
            let algo = Irregular { data: &d };
            let expect = (n as u64) * (n as u64 + 1) / 2;
            assert_eq!(run_recursive(&algo, (0, n), &mut NullCharge), expect);
            assert_eq!(run_breadth_first(&algo, (0, n), &mut NullCharge), expect);
            assert_eq!(run_threaded(&algo, (0, n), &pool), expect);
            let mut cpu = SimCpu::new(CpuConfig::uniform(4));
            assert_eq!(run_sim_cpu(&algo, (0, n), &mut cpu, 4), expect);
        }
    }
}
