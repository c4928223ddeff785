//! The shard executor: one claim-once loop ([`Executor::map_pieces`])
//! that maps owned work items in parallel and returns their results in
//! item order, so results are deterministic for any worker count.
//! [`Executor::map_shards`] runs it over the shards of an index range;
//! callers that fold results fold them in that order.

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
/// // Sum of squares of 0..10_000, computed shard by shard and folded
/// // in shard order.
/// let shards = exec.map_shards(10_000, |_, range| range.map(|i| (i * i) as u64).sum::<u64>());
/// assert_eq!(shards.into_iter().sum::<u64>(), (0..10_000u64).map(|i| i * i).sum());
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
    fn map_shards_identical_across_worker_counts() {
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
