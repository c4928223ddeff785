//! The shard executor: parallel map / map-reduce over logical shards and
//! in-place updates over owned pieces, deterministic for any worker
//! count.

use crate::shards::ShardSpec;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;

/// A claim-once slot handing a work item to whichever worker claims its
/// index.
type Slot<T> = Mutex<Option<T>>;

/// Degree of parallelism for an [`Executor`].
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Parallelism {
    /// Run everything on the calling thread.
    Sequential,
    /// Use exactly this many worker threads (values are clamped to ≥ 1).
    Threads(usize),
    /// Use `std::thread::available_parallelism()`, resolved once per
    /// [`Executor`].
    Auto,
}

impl Parallelism {
    /// Resolves to a concrete worker count (≥ 1).
    pub fn workers(&self) -> usize {
        match self {
            Parallelism::Sequential => 1,
            Parallelism::Threads(t) => (*t).max(1),
            Parallelism::Auto => std::thread::available_parallelism()
                .map(|n| n.get())
                .unwrap_or(1),
        }
    }
}

/// Runs shard-parallel jobs with deterministic results.
///
/// ```
/// use kmeans_par::{Executor, Parallelism};
/// let exec = Executor::new(Parallelism::Threads(4));
/// // Sum of squares of 0..10_000, computed shard by shard.
/// let total = exec.map_reduce(
///     10_000,
///     |_, range| range.map(|i| (i * i) as u64).sum::<u64>(),
///     |a, b| a + b,
/// ).unwrap_or(0);
/// assert_eq!(total, (0..10_000u64).map(|i| i * i).sum());
/// ```
#[derive(Clone, Debug)]
pub struct Executor {
    parallelism: Parallelism,
    /// `parallelism` resolved once, at construction: `Auto` asks the OS
    /// (which reads cgroup files) here rather than on every call.
    workers: usize,
    spec: ShardSpec,
}

impl Executor {
    /// Creates an executor with the default shard size, resolving the
    /// worker count once.
    pub fn new(parallelism: Parallelism) -> Self {
        Executor {
            parallelism,
            workers: parallelism.workers(),
            spec: ShardSpec::default(),
        }
    }

    /// A single-threaded executor (useful as a baseline and in tests).
    pub fn sequential() -> Self {
        Executor::new(Parallelism::Sequential)
    }

    /// Overrides the logical shard size.
    ///
    /// Note: results of *randomized* shard jobs depend on the shard layout,
    /// so the shard size is part of an experiment's reproducibility key
    /// (the worker count is not).
    pub fn with_shard_size(mut self, shard_size: usize) -> Self {
        self.spec = ShardSpec::new(shard_size);
        self
    }

    /// The shard layout.
    pub fn shard_spec(&self) -> ShardSpec {
        self.spec
    }

    /// The configured parallelism.
    pub fn parallelism(&self) -> Parallelism {
        self.parallelism
    }

    /// Worker count, as resolved by [`Executor::new`].
    pub fn workers(&self) -> usize {
        self.workers
    }

    /// Maps every shard of `[0, n)` through `f`, returning results in shard
    /// order. `f` receives `(shard_index, index_range)`:
    /// [`Executor::map_pieces`] over the shard ranges.
    pub fn map_shards<T, F>(&self, n: usize, f: F) -> Vec<T>
    where
        T: Send,
        F: Fn(usize, std::ops::Range<usize>) -> T + Sync,
    {
        self.map_pieces(self.spec.ranges(n).collect(), f)
    }

    /// Maps every shard and folds the results **in shard order** with
    /// `combine`. Returns `None` when `n == 0`.
    ///
    /// In-order folding matters: floating-point reduction order changes
    /// low-order bits, and determinism across worker counts is a guarantee
    /// of this crate.
    pub fn map_reduce<T, F, C>(&self, n: usize, f: F, combine: C) -> Option<T>
    where
        T: Send,
        F: Fn(usize, std::ops::Range<usize>) -> T + Sync,
        C: Fn(T, T) -> T,
    {
        self.map_shards(n, f).into_iter().reduce(combine)
    }

    /// Runs `f` over owned work items — typically disjoint mutable chunks
    /// of per-row state, cut wherever the caller needs — collecting one
    /// result per item, returned **in item order**. `f` receives
    /// `(item_index, item)`.
    ///
    /// This is the executor's claim-once loop: workers claim items by
    /// index, so which thread runs an item never changes a result. It is
    /// the update-and-aggregate shape of the passes that mutate per-point
    /// state in place while per-piece partials come back for a
    /// deterministic fold.
    pub fn map_pieces<P, T, F>(&self, pieces: Vec<P>, f: F) -> Vec<T>
    where
        P: Send,
        T: Send,
        F: Fn(usize, P) -> T + Sync,
    {
        let count = pieces.len();
        let workers = self.workers().min(count.max(1));
        if workers <= 1 || count <= 1 {
            return pieces
                .into_iter()
                .enumerate()
                .map(|(i, p)| f(i, p))
                .collect();
        }
        let slots: Vec<Slot<P>> = pieces.into_iter().map(|p| Mutex::new(Some(p))).collect();
        let next = AtomicUsize::new(0);
        let mut results: Vec<Option<T>> = (0..count).map(|_| None).collect();
        std::thread::scope(|scope| {
            let handles: Vec<_> = (0..workers)
                .map(|_| {
                    scope.spawn(|| {
                        let mut local: Vec<(usize, T)> = Vec::new();
                        loop {
                            let i = next.fetch_add(1, Ordering::Relaxed);
                            if i >= count {
                                break;
                            }
                            let piece = slots[i]
                                .lock()
                                .expect("piece slot poisoned")
                                .take()
                                .expect("piece claimed twice");
                            local.push((i, f(i, piece)));
                        }
                        local
                    })
                })
                .collect();
            for handle in handles {
                for (i, value) in handle.join().expect("shard worker panicked") {
                    results[i] = Some(value);
                }
            }
        });
        results
            .into_iter()
            .map(|r| r.expect("piece result missing"))
            .collect()
    }

    /// Runs `f` over shard-aligned mutable chunks of two equal-length
    /// slices while collecting one result per shard, returned **in shard
    /// order** (the shape of a batched assignment pass: labels and `d²`
    /// mutated in place, per-shard results coming back for a
    /// deterministic fold) — [`Executor::map_pieces`] over the shard
    /// grid.
    ///
    /// `f` receives `(shard_index, start_offset, chunk_a, chunk_b)`.
    ///
    /// # Panics
    ///
    /// Panics if the slices have different lengths.
    pub fn update_map_shards2<A, B, T, F>(&self, a: &mut [A], b: &mut [B], f: F) -> Vec<T>
    where
        A: Send,
        B: Send,
        T: Send,
        F: Fn(usize, usize, &mut [A], &mut [B]) -> T + Sync,
    {
        assert_eq!(a.len(), b.len(), "update_map_shards2: length mismatch");
        let size = self.spec.shard_size();
        let pieces: Vec<(usize, &mut [A], &mut [B])> = self
            .spec
            .ranges(a.len())
            .zip(a.chunks_mut(size).zip(b.chunks_mut(size)))
            .map(|(range, (ca, cb))| (range.start, ca, cb))
            .collect();
        self.map_pieces(pieces, |s, (start, ca, cb)| f(s, start, ca, cb))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn executors() -> Vec<Executor> {
        vec![
            Executor::sequential().with_shard_size(64),
            Executor::new(Parallelism::Threads(2)).with_shard_size(64),
            Executor::new(Parallelism::Threads(7)).with_shard_size(64),
            Executor::new(Parallelism::Auto).with_shard_size(64),
        ]
    }

    #[test]
    fn workers_resolution() {
        assert_eq!(Parallelism::Sequential.workers(), 1);
        assert_eq!(Parallelism::Threads(0).workers(), 1);
        assert_eq!(Parallelism::Threads(3).workers(), 3);
        assert!(Parallelism::Auto.workers() >= 1);
    }

    #[test]
    fn auto_resolves_once_and_copies_keep_it() {
        let want = Parallelism::Auto.workers();
        let exec = Executor::new(Parallelism::Auto);
        let resized = exec.clone().with_shard_size(7);
        for e in [&exec, &exec.clone(), &resized, &resized.clone()] {
            assert_eq!(e.workers(), want);
            assert_eq!(e.parallelism(), Parallelism::Auto);
        }
        assert_eq!(resized.shard_spec().shard_size(), 7);
    }

    #[test]
    fn map_shards_order_and_coverage() {
        for exec in executors() {
            let ranges = exec.map_shards(1000, |s, r| (s, r));
            assert_eq!(ranges.len(), 16); // ceil(1000/64)
            for (i, (s, r)) in ranges.iter().enumerate() {
                assert_eq!(*s, i);
                assert_eq!(r.start, i * 64);
            }
            assert_eq!(ranges.last().unwrap().1.end, 1000);
        }
    }

    #[test]
    fn map_reduce_identical_across_worker_counts() {
        let reference: Vec<f64> =
            Executor::sequential()
                .with_shard_size(64)
                .map_shards(10_000, |s, r| {
                    // A float computation whose result depends on shard identity.
                    r.map(|i| ((i as f64) * 1.37 + s as f64).sqrt())
                        .sum::<f64>()
                });
        for exec in executors() {
            let got = exec.map_shards(10_000, |s, r| {
                r.map(|i| ((i as f64) * 1.37 + s as f64).sqrt())
                    .sum::<f64>()
            });
            assert_eq!(got, reference, "divergence for {:?}", exec.parallelism());
        }
    }

    #[test]
    fn map_reduce_empty_input() {
        for exec in executors() {
            assert_eq!(exec.map_reduce(0, |_, _| 1u32, |a, b| a + b), None);
        }
    }

    #[test]
    fn map_reduce_single_shard() {
        let exec = Executor::new(Parallelism::Threads(4)).with_shard_size(1024);
        let total = exec
            .map_reduce(10, |_, r| r.sum::<usize>(), |a, b| a + b)
            .unwrap();
        assert_eq!(total, 45);
    }

    #[test]
    fn update_map_shards2_mutates_both_and_collects_in_order() {
        for exec in executors() {
            let mut a = vec![0u32; 500];
            let mut b = vec![0.0f64; 500];
            let out = exec.update_map_shards2(&mut a, &mut b, |s, start, ca, cb| {
                for (i, (x, y)) in ca.iter_mut().zip(cb.iter_mut()).enumerate() {
                    *x = (start + i) as u32;
                    *y = (start + i) as f64 * 0.5;
                }
                (s, ca.len())
            });
            assert_eq!(out.len(), 8); // ceil(500/64)
            for (i, (s, _)) in out.iter().enumerate() {
                assert_eq!(*s, i, "out of order");
            }
            assert_eq!(out.iter().map(|(_, l)| l).sum::<usize>(), 500);
            for (i, (&x, &y)) in a.iter().zip(&b).enumerate() {
                assert_eq!(x, i as u32);
                assert_eq!(y, i as f64 * 0.5);
            }
        }
    }

    #[test]
    fn map_pieces_runs_uneven_pieces_in_item_order() {
        for exec in executors() {
            let mut data = vec![0u32; 100];
            let (head, tail) = data.split_at_mut(3);
            let (mid, last) = tail.split_at_mut(90);
            let out = exec.map_pieces(vec![head, mid, last], |i, chunk| {
                chunk.iter_mut().for_each(|v| *v = i as u32 + 1);
                (i, chunk.len())
            });
            assert_eq!(out, vec![(0, 3), (1, 90), (2, 7)]);
            assert_eq!(data[2], 1);
            assert_eq!(data[3], 2);
            assert_eq!(data[99], 3);
        }
        let none: Vec<u32> =
            Executor::new(Parallelism::Threads(3)).map_pieces(Vec::<u8>::new(), |_, _| 1);
        assert!(none.is_empty());
    }

    #[test]
    #[should_panic(expected = "length mismatch")]
    fn update_map_shards2_length_mismatch_panics() {
        let mut a = vec![0u8; 3];
        let mut b = vec![0u8; 4];
        Executor::sequential().update_map_shards2(&mut a, &mut b, |_, _, _, _| {});
    }

    #[test]
    fn deterministic_rng_per_shard_is_thread_count_invariant() {
        use kmeans_util::Rng;
        let job = |exec: &Executor| -> Vec<u64> {
            exec.map_shards(100_000, |s, r| {
                let mut rng = Rng::derive(42, &[7, s as u64]);
                r.map(|_| rng.next_u64()).fold(0u64, u64::wrapping_add)
            })
        };
        let reference = job(&Executor::sequential().with_shard_size(1024));
        for threads in [2, 3, 8] {
            let exec = Executor::new(Parallelism::Threads(threads)).with_shard_size(1024);
            assert_eq!(job(&exec), reference, "threads={threads}");
        }
    }
}
