//! A from-scratch level-synchronous thread pool for native execution.
//!
//! The breadth-first translation turns a D&C algorithm into a sequence of
//! *levels* of independent tasks, so the only primitive the native executor
//! needs is "run this level on `k` threads and wait" — a fork-join per
//! level, mirroring how the paper's implementation launches CPU threads per
//! recursion level (§6.1).
//!
//! A level is split into one contiguous block of whole tasks per thread:
//! block 0 runs on the caller, the others on scoped threads that borrow
//! the caller's data without `'static` bounds. There is no per-task
//! allocation, lock or shared counter. The slice primitives
//! ([`LevelPool::for_each_mut`], [`LevelPool::for_each_pair`]) run a level
//! inline when it has one task or fewer than `SPAWN_MIN_ELEMS` elements,
//! below which a thread spawn costs more than the work it would take over.

use std::panic::resume_unwind;

/// Levels smaller than this many elements run inline on the caller. A
/// scoped spawn and join costs tens of µs; a mergesort level of 2^15
/// `u32`s costs about as much, so only larger levels gain from a split.
const SPAWN_MIN_ELEMS: usize = 1 << 15;

/// A fork-join executor running each submitted level on up to `threads`
/// OS threads.
#[derive(Debug, Clone)]
pub struct LevelPool {
    threads: usize,
}

impl LevelPool {
    /// Creates a pool using `threads` worker threads (minimum 1).
    pub fn new(threads: usize) -> Self {
        LevelPool {
            threads: threads.max(1),
        }
    }

    /// Creates a pool sized to the machine's available parallelism.
    pub fn host_sized() -> Self {
        let n = std::thread::available_parallelism()
            .map(|n| n.get())
            .unwrap_or(1);
        LevelPool::new(n)
    }

    /// Number of worker threads.
    pub fn threads(&self) -> usize {
        self.threads
    }

    /// Runs `f` on every `chunk`-sized piece of `data` (the last piece may
    /// be shorter) — one level of in-place tasks such as a base case.
    pub fn for_each_mut<T, F>(&self, data: &mut [T], chunk: usize, f: F)
    where
        T: Send,
        F: Fn(&mut [T]) + Sync,
    {
        let chunk = chunk.max(1);
        let mut rest = data;
        let blocks: Vec<&mut [T]> = self
            .block_lens(rest.len(), chunk)
            .map(|len| {
                let (block, tail) = std::mem::take(&mut rest).split_at_mut(len);
                rest = tail;
                block
            })
            .collect();
        fork_join(blocks, |block| block.chunks_mut(chunk).for_each(&f));
    }

    /// Runs `f` on every pair of matching `chunk`-sized pieces of `src` and
    /// `dst` — one level of out-of-place tasks such as a combine.
    ///
    /// # Panics
    /// If `src` and `dst` differ in length.
    pub fn for_each_pair<T, F>(&self, src: &[T], dst: &mut [T], chunk: usize, f: F)
    where
        T: Send + Sync,
        F: Fn(&[T], &mut [T]) + Sync,
    {
        assert_eq!(src.len(), dst.len(), "source and destination lengths");
        let chunk = chunk.max(1);
        let (mut src_rest, mut dst_rest) = (src, dst);
        let blocks: Vec<(&[T], &mut [T])> = self
            .block_lens(src.len(), chunk)
            .map(|len| {
                let (s, s_tail) = src_rest.split_at(len);
                let (d, d_tail) = std::mem::take(&mut dst_rest).split_at_mut(len);
                (src_rest, dst_rest) = (s_tail, d_tail);
                (s, d)
            })
            .collect();
        fork_join(blocks, |(s, d)| {
            s.chunks(chunk)
                .zip(d.chunks_mut(chunk))
                .for_each(|(s, d)| f(s, d))
        });
    }

    /// Runs a level of independent tasks, returning their results in task
    /// order. Each thread runs one contiguous block of the task list; a
    /// level of two or more tasks always forks, as tasks carry no size to
    /// weigh against the spawn cost.
    pub fn run_collect<F, R>(&self, mut tasks: Vec<F>) -> Vec<R>
    where
        F: FnOnce() -> R + Send,
        R: Send,
    {
        let lens: Vec<usize> = split_evenly(tasks.len(), self.threads).collect();
        // Split from the back so every block is an owned, in-order run.
        let mut blocks: Vec<Vec<F>> = lens
            .iter()
            .rev()
            .map(|&len| tasks.split_off(tasks.len() - len))
            .collect();
        blocks.reverse();
        fork_join(blocks, |block| {
            block.into_iter().map(|t| t()).collect::<Vec<R>>()
        })
        .into_iter()
        .flatten()
        .collect()
    }

    /// Element lengths of the contiguous blocks a level of `len` elements
    /// in `chunk`-sized tasks splits into: whole tasks only, as even as
    /// possible, one block when the level is too small to pay for a spawn.
    fn block_lens(&self, len: usize, chunk: usize) -> impl Iterator<Item = usize> {
        let tasks = len.div_ceil(chunk);
        let threads = if len < SPAWN_MIN_ELEMS {
            1
        } else {
            self.threads
        };
        let mut left = len;
        split_evenly(tasks, threads).map(move |k| {
            let take = (k * chunk).min(left);
            left -= take;
            take
        })
    }
}

/// Splits `tasks` into `min(parts, tasks)` non-empty runs whose lengths
/// differ by at most one (a single empty run when `tasks` is 0).
fn split_evenly(tasks: usize, parts: usize) -> impl Iterator<Item = usize> {
    let parts = parts.clamp(1, tasks.max(1));
    (0..parts).map(move |k| tasks / parts + usize::from(k < tasks % parts))
}

/// Runs `f` on every block, block 0 on the calling thread and each other
/// block on its own scoped thread, and returns the results in block order.
/// A panic in any block resurfaces here, with its own payload, once every
/// block has finished.
fn fork_join<B, R, F>(blocks: Vec<B>, f: F) -> Vec<R>
where
    B: Send,
    R: Send,
    F: Fn(B) -> R + Sync,
{
    let mut blocks = blocks.into_iter();
    let Some(first) = blocks.next() else {
        return Vec::new();
    };
    if blocks.len() == 0 {
        return vec![f(first)];
    }
    let f = &f;
    std::thread::scope(|scope| {
        let handles: Vec<_> = blocks.map(|b| scope.spawn(move || f(b))).collect();
        let mut out = Vec::with_capacity(handles.len() + 1);
        out.push(f(first));
        for h in handles {
            out.push(h.join().unwrap_or_else(|payload| resume_unwind(payload)));
        }
        out
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicU64, Ordering};

    #[test]
    fn runs_all_tasks() {
        let pool = LevelPool::new(4);
        let counter = AtomicU64::new(0);
        let tasks: Vec<_> = (0..100)
            .map(|_| {
                let c = &counter;
                move || {
                    c.fetch_add(1, Ordering::Relaxed);
                }
            })
            .collect();
        let _: Vec<()> = pool.run_collect(tasks);
        assert_eq!(counter.load(Ordering::Relaxed), 100);
    }

    #[test]
    fn collect_preserves_order() {
        for threads in 1..=5 {
            let pool = LevelPool::new(threads);
            for n in [1usize, 2, 3, 7, 50] {
                let tasks: Vec<_> = (0..n).map(|i| move || i * i).collect();
                let out = pool.run_collect(tasks);
                assert_eq!(out, (0..n).map(|i| i * i).collect::<Vec<_>>());
            }
        }
    }

    #[test]
    fn empty_level_is_fine() {
        let pool = LevelPool::new(2);
        let out: Vec<u8> = pool.run_collect(Vec::<fn() -> u8>::new());
        assert!(out.is_empty());
        pool.for_each_mut(&mut [0u8; 0], 4, |_| panic!("no tasks"));
        pool.for_each_pair(&[0u8; 0], &mut [], 4, |_, _| panic!("no tasks"));
    }

    #[test]
    fn single_thread_runs_inline() {
        let pool = LevelPool::new(1);
        let out = pool.run_collect((0..5usize).map(|i| move || i).collect::<Vec<_>>());
        assert_eq!(out, vec![0, 1, 2, 3, 4]);
    }

    #[test]
    fn zero_threads_clamped_to_one() {
        assert_eq!(LevelPool::new(0).threads(), 1);
    }

    #[test]
    fn tasks_can_borrow_caller_data() {
        let pool = LevelPool::new(2);
        let mut data = [0u32; 16];
        {
            let tasks: Vec<_> = data
                .chunks_mut(4)
                .enumerate()
                .map(|(k, chunk)| {
                    move || {
                        for x in chunk.iter_mut() {
                            *x = k as u32;
                        }
                    }
                })
                .collect();
            let _: Vec<()> = pool.run_collect(tasks);
        }
        assert_eq!(data[0], 0);
        assert_eq!(data[5], 1);
        assert_eq!(data[15], 3);
    }

    #[test]
    fn blocks_hold_whole_tasks_and_cover_the_level() {
        for threads in 1..=4 {
            let pool = LevelPool::new(threads);
            for (len, chunk) in [
                (0, 4),
                (5, 8),
                (SPAWN_MIN_ELEMS - 1, 2),
                (SPAWN_MIN_ELEMS, 1),
            ]
            .into_iter()
            .chain([(1 << 16, 1 << 16), (3 << 15, 1 << 10), ((1 << 16) + 3, 7)])
            {
                let lens: Vec<usize> = pool.block_lens(len, chunk).collect();
                assert_eq!(lens.iter().sum::<usize>(), len, "{len}/{chunk}");
                let tasks = len.div_ceil(chunk);
                let want = if len < SPAWN_MIN_ELEMS {
                    1
                } else {
                    threads.min(tasks)
                };
                assert_eq!(lens.len(), want, "{len}/{chunk} on {threads}");
                // Every block but the last is whole tasks.
                for l in &lens[..lens.len() - 1] {
                    assert_eq!(l % chunk, 0, "{len}/{chunk}: {lens:?}");
                }
            }
        }
    }

    #[test]
    fn slice_levels_visit_every_chunk_once() {
        let len = (SPAWN_MIN_ELEMS * 2) + 5;
        for threads in [1, 2, 3] {
            let pool = LevelPool::new(threads);
            let mut data = vec![0u32; len];
            pool.for_each_mut(&mut data, 3, |c| c.iter_mut().for_each(|x| *x += 1));
            assert!(data.iter().all(|&x| x == 1));
            let src: Vec<u32> = (0..len as u32).collect();
            let mut dst = vec![0u32; len];
            pool.for_each_pair(&src, &mut dst, 6, |s, d| {
                d.iter_mut().zip(s.iter().rev()).for_each(|(d, &s)| *d = s)
            });
            let expect: Vec<u32> = src
                .chunks(6)
                .flat_map(|c| c.iter().rev().copied())
                .collect();
            assert_eq!(dst, expect, "{threads} threads");
        }
    }

    #[test]
    fn large_levels_really_fork() {
        let pool = LevelPool::new(2);
        let caller = std::thread::current().id();
        let off_caller = AtomicU64::new(0);
        pool.for_each_mut(&mut vec![0u8; SPAWN_MIN_ELEMS], 1, |_| {
            if std::thread::current().id() != caller {
                off_caller.fetch_add(1, Ordering::Relaxed);
            }
        });
        assert_eq!(
            off_caller.load(Ordering::Relaxed),
            SPAWN_MIN_ELEMS as u64 / 2
        );
    }

    #[test]
    fn a_block_panic_resurfaces_with_its_payload() {
        let pool = LevelPool::new(2);
        let src: Vec<usize> = (0..SPAWN_MIN_ELEMS).collect();
        let mut dst = vec![0usize; SPAWN_MIN_ELEMS];
        let err = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            pool.for_each_pair(&src, &mut dst, 1, |s, _| {
                if s[0] == SPAWN_MIN_ELEMS - 1 {
                    panic!("boom in the last block");
                }
            });
        }))
        .expect_err("the panic crosses the join");
        assert_eq!(err.downcast_ref::<&str>(), Some(&"boom in the last block"));
    }

    #[test]
    fn uneven_tasks_complete() {
        let pool = LevelPool::new(4);
        let out = pool.run_collect(
            (0..20usize)
                .map(|i| {
                    move || {
                        let mut acc = 0u64;
                        for k in 0..(i * 1000) {
                            acc = acc.wrapping_add(k as u64);
                        }
                        acc
                    }
                })
                .collect::<Vec<_>>(),
        );
        assert_eq!(out.len(), 20);
    }
}
