//! The shard executor: parallel map / map-reduce / in-place update over
//! logical shards, deterministic for any worker count.

use crate::shards::ShardSpec;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;

/// A claim-once slot handing a shard's mutable chunk(s) to whichever worker
/// claims the shard index.
type Slot<T> = Mutex<Option<T>>;

/// Slot payload for [`Executor::update_shards2`]: start offset plus the two
/// shard-aligned chunks.
type Chunk2<'s, A, B> = (usize, &'s mut [A], &'s mut [B]);

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
    /// order. `f` receives `(shard_index, index_range)`.
    pub fn map_shards<T, F>(&self, n: usize, f: F) -> Vec<T>
    where
        T: Send,
        F: Fn(usize, std::ops::Range<usize>) -> T + Sync,
    {
        let count = self.spec.count(n);
        let workers = self.workers().min(count.max(1));
        if workers <= 1 || count <= 1 {
            return (0..count).map(|s| f(s, self.spec.range(n, s))).collect();
        }
        let next = AtomicUsize::new(0);
        let mut results: Vec<Option<T>> = (0..count).map(|_| None).collect();
        std::thread::scope(|scope| {
            let handles: Vec<_> = (0..workers)
                .map(|_| {
                    scope.spawn(|| {
                        let mut local: Vec<(usize, T)> = Vec::new();
                        loop {
                            let s = next.fetch_add(1, Ordering::Relaxed);
                            if s >= count {
                                break;
                            }
                            local.push((s, f(s, self.spec.range(n, s))));
                        }
                        local
                    })
                })
                .collect();
            for handle in handles {
                for (s, value) in handle.join().expect("shard worker panicked") {
                    results[s] = Some(value);
                }
            }
        });
        results
            .into_iter()
            .map(|r| r.expect("shard result missing"))
            .collect()
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

    /// Runs `f` over shard-aligned mutable chunks of `out`.
    ///
    /// `f` receives `(shard_index, start_offset, chunk)` where `chunk` is
    /// `out[start_offset .. start_offset + chunk.len()]`.
    pub fn update_shards<A, F>(&self, out: &mut [A], f: F)
    where
        A: Send,
        F: Fn(usize, usize, &mut [A]) + Sync,
    {
        let n = out.len();
        let count = self.spec.count(n);
        let workers = self.workers().min(count.max(1));
        if workers <= 1 || count <= 1 {
            for (s, range) in self.spec.ranges(n).enumerate() {
                let start = range.start;
                f(s, start, &mut out[range]);
            }
            return;
        }
        let slots: Vec<Slot<(usize, &mut [A])>> = self
            .spec
            .ranges(n)
            .zip(out.chunks_mut(self.spec.shard_size()))
            .map(|(range, chunk)| Mutex::new(Some((range.start, chunk))))
            .collect();
        let next = AtomicUsize::new(0);
        std::thread::scope(|scope| {
            for _ in 0..workers {
                scope.spawn(|| loop {
                    let s = next.fetch_add(1, Ordering::Relaxed);
                    if s >= count {
                        break;
                    }
                    let (start, chunk) = slots[s]
                        .lock()
                        .expect("shard slot poisoned")
                        .take()
                        .expect("shard claimed twice");
                    f(s, start, chunk);
                });
            }
        });
    }

    /// Runs `f` over shard-aligned mutable chunks of `out` while
    /// collecting one result per shard, returned **in shard order**.
    ///
    /// This is the update-and-aggregate shape of bounds-based Lloyd
    /// variants (per-point state is mutated in place, per-shard partial
    /// sums come back for a deterministic fold). `f` receives
    /// `(shard_index, start_offset, chunk)`.
    pub fn update_map_shards<A, T, F>(&self, out: &mut [A], f: F) -> Vec<T>
    where
        A: Send,
        T: Send,
        F: Fn(usize, usize, &mut [A]) -> T + Sync,
    {
        let n = out.len();
        let count = self.spec.count(n);
        let workers = self.workers().min(count.max(1));
        if workers <= 1 || count <= 1 {
            return self
                .spec
                .ranges(n)
                .enumerate()
                .map(|(s, range)| {
                    let start = range.start;
                    f(s, start, &mut out[range])
                })
                .collect();
        }
        let slots: Vec<Slot<(usize, &mut [A])>> = self
            .spec
            .ranges(n)
            .zip(out.chunks_mut(self.spec.shard_size()))
            .map(|(range, chunk)| Mutex::new(Some((range.start, chunk))))
            .collect();
        let next = AtomicUsize::new(0);
        let mut results: Vec<Option<T>> = (0..count).map(|_| None).collect();
        std::thread::scope(|scope| {
            let handles: Vec<_> = (0..workers)
                .map(|_| {
                    scope.spawn(|| {
                        let mut local: Vec<(usize, T)> = Vec::new();
                        loop {
                            let s = next.fetch_add(1, Ordering::Relaxed);
                            if s >= count {
                                break;
                            }
                            let (start, chunk) = slots[s]
                                .lock()
                                .expect("shard slot poisoned")
                                .take()
                                .expect("shard claimed twice");
                            local.push((s, f(s, start, chunk)));
                        }
                        local
                    })
                })
                .collect();
            for handle in handles {
                for (s, value) in handle.join().expect("shard worker panicked") {
                    results[s] = Some(value);
                }
            }
        });
        results
            .into_iter()
            .map(|r| r.expect("shard result missing"))
            .collect()
    }

    /// Runs `f` over shard-aligned mutable chunks of two equal-length
    /// slices while collecting one result per shard, returned **in shard
    /// order** — the two-array sibling of [`Executor::update_map_shards`]
    /// (the shape of a batched assignment pass: labels and `d²` mutated
    /// in place, per-shard kernel statistics coming back for a
    /// deterministic fold).
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
        let n = a.len();
        let count = self.spec.count(n);
        let workers = self.workers().min(count.max(1));
        if workers <= 1 || count <= 1 {
            return self
                .spec
                .ranges(n)
                .enumerate()
                .map(|(s, range)| {
                    let start = range.start;
                    f(s, start, &mut a[range.clone()], &mut b[range])
                })
                .collect();
        }
        let size = self.spec.shard_size();
        let slots: Vec<Slot<Chunk2<'_, A, B>>> = self
            .spec
            .ranges(n)
            .zip(a.chunks_mut(size).zip(b.chunks_mut(size)))
            .map(|(range, (ca, cb))| Mutex::new(Some((range.start, ca, cb))))
            .collect();
        let next = AtomicUsize::new(0);
        let mut results: Vec<Option<T>> = (0..count).map(|_| None).collect();
        std::thread::scope(|scope| {
            let handles: Vec<_> = (0..workers)
                .map(|_| {
                    scope.spawn(|| {
                        let mut local: Vec<(usize, T)> = Vec::new();
                        loop {
                            let s = next.fetch_add(1, Ordering::Relaxed);
                            if s >= count {
                                break;
                            }
                            let (start, ca, cb) = slots[s]
                                .lock()
                                .expect("shard slot poisoned")
                                .take()
                                .expect("shard claimed twice");
                            local.push((s, f(s, start, ca, cb)));
                        }
                        local
                    })
                })
                .collect();
            for handle in handles {
                for (s, value) in handle.join().expect("shard worker panicked") {
                    results[s] = Some(value);
                }
            }
        });
        results
            .into_iter()
            .map(|r| r.expect("shard result missing"))
            .collect()
    }

    /// Runs `f` over shard-aligned mutable chunks of two equal-length
    /// slices (e.g. the `d²` and nearest-center arrays of k-means||).
    ///
    /// `f` receives `(shard_index, start_offset, chunk_a, chunk_b)`.
    ///
    /// # Panics
    ///
    /// Panics if the slices have different lengths.
    pub fn update_shards2<A, B, F>(&self, a: &mut [A], b: &mut [B], f: F)
    where
        A: Send,
        B: Send,
        F: Fn(usize, usize, &mut [A], &mut [B]) + Sync,
    {
        assert_eq!(a.len(), b.len(), "update_shards2: length mismatch");
        let n = a.len();
        let count = self.spec.count(n);
        let workers = self.workers().min(count.max(1));
        if workers <= 1 || count <= 1 {
            for (s, range) in self.spec.ranges(n).enumerate() {
                let start = range.start;
                f(s, start, &mut a[range.clone()], &mut b[range]);
            }
            return;
        }
        let size = self.spec.shard_size();
        let slots: Vec<Slot<Chunk2<'_, A, B>>> = self
            .spec
            .ranges(n)
            .zip(a.chunks_mut(size).zip(b.chunks_mut(size)))
            .map(|(range, (ca, cb))| Mutex::new(Some((range.start, ca, cb))))
            .collect();
        let next = AtomicUsize::new(0);
        std::thread::scope(|scope| {
            for _ in 0..workers {
                scope.spawn(|| loop {
                    let s = next.fetch_add(1, Ordering::Relaxed);
                    if s >= count {
                        break;
                    }
                    let (start, ca, cb) = slots[s]
                        .lock()
                        .expect("shard slot poisoned")
                        .take()
                        .expect("shard claimed twice");
                    f(s, start, ca, cb);
                });
            }
        });
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
    fn update_shards_touches_every_element_once() {
        for exec in executors() {
            let mut data = vec![0u32; 1000];
            exec.update_shards(&mut data, |s, start, chunk| {
                for (i, v) in chunk.iter_mut().enumerate() {
                    *v += (start + i) as u32 + s as u32 * 1_000_000;
                }
            });
            for (i, &v) in data.iter().enumerate() {
                let shard = i / 64;
                assert_eq!(v, i as u32 + shard as u32 * 1_000_000, "index {i}");
            }
        }
    }

    #[test]
    fn update_shards2_aligned_chunks() {
        for exec in executors() {
            let mut a = vec![0usize; 500];
            let mut b = vec![0usize; 500];
            exec.update_shards2(&mut a, &mut b, |s, start, ca, cb| {
                assert_eq!(ca.len(), cb.len());
                for i in 0..ca.len() {
                    ca[i] = start + i;
                    cb[i] = s;
                }
            });
            for (i, (&x, &y)) in a.iter().zip(&b).enumerate() {
                assert_eq!(x, i);
                assert_eq!(y, i / 64);
            }
        }
    }

    #[test]
    fn update_map_shards_mutates_and_collects_in_order() {
        for exec in executors() {
            let mut data = vec![1u64; 1000];
            let sums = exec.update_map_shards(&mut data, |s, start, chunk| {
                for (i, v) in chunk.iter_mut().enumerate() {
                    *v = (start + i) as u64;
                }
                (s, chunk.iter().sum::<u64>())
            });
            assert_eq!(sums.len(), 16); // ceil(1000/64)
            for (i, (s, _)) in sums.iter().enumerate() {
                assert_eq!(*s, i, "out of order");
            }
            let total: u64 = sums.iter().map(|(_, t)| t).sum();
            assert_eq!(total, (0..1000u64).sum::<u64>());
            assert_eq!(data[999], 999);
        }
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
    fn update_map_shards_empty() {
        let mut empty: Vec<u8> = vec![];
        let out: Vec<u32> =
            Executor::new(Parallelism::Threads(3)).update_map_shards(&mut empty, |_, _, _| 1);
        assert!(out.is_empty());
    }

    #[test]
    #[should_panic(expected = "length mismatch")]
    fn update_shards2_length_mismatch_panics() {
        let mut a = vec![0u8; 3];
        let mut b = vec![0u8; 4];
        Executor::sequential().update_shards2(&mut a, &mut b, |_, _, _, _| {});
    }

    #[test]
    fn update_shards_empty_is_noop() {
        let mut empty: Vec<u8> = vec![];
        Executor::new(Parallelism::Threads(4)).update_shards(&mut empty, |_, _, _| {
            panic!("should not be called");
        });
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
