//! Offline stand-in for the `criterion` benchmark harness.
//!
//! The build environment for this workspace has no network access, so the
//! real `criterion` crate cannot be vendored. This shim implements the
//! subset of its API the workspace benches use — `Criterion`,
//! `benchmark_group`, `bench_function` / `bench_with_input`,
//! [`BenchmarkId`], [`black_box`], and the `criterion_group!` /
//! `criterion_main!` macros — with a simple median-of-samples timer, so
//! `cargo bench` runs everywhere and prints comparable numbers. Swap the
//! path dependency back to crates.io `criterion` for statistically rigorous
//! results.

#![forbid(unsafe_code)]

use std::time::{Duration, Instant};

/// Re-implementation of `std::hint::black_box` passthrough used by benches.
pub fn black_box<T>(x: T) -> T {
    std::hint::black_box(x)
}

/// Identifier for a parameterized benchmark (`group/function/parameter`).
#[derive(Clone, Debug)]
pub struct BenchmarkId {
    name: String,
}

impl BenchmarkId {
    /// Creates an id rendered as `function/parameter`.
    pub fn new(function: impl Into<String>, parameter: impl std::fmt::Display) -> Self {
        BenchmarkId {
            name: format!("{}/{}", function.into(), parameter),
        }
    }
}

impl std::fmt::Display for BenchmarkId {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{}", self.name)
    }
}

/// The timing driver handed to each benchmark closure.
pub struct Bencher {
    samples: usize,
    measurement: Duration,
    warm_up: Duration,
    results: Vec<Duration>,
}

impl Bencher {
    /// Runs `f` repeatedly: a warm-up window, then `samples` timed samples
    /// (each sample iterates until the per-sample time slice is spent).
    pub fn iter<T, F: FnMut() -> T>(&mut self, mut f: F) {
        let warm_end = Instant::now() + self.warm_up;
        let mut iters_per_sample = 1u64;
        while Instant::now() < warm_end {
            black_box(f());
            iters_per_sample += 1;
        }
        let slice = self.measurement.div_f64(self.samples.max(1) as f64);
        for _ in 0..self.samples {
            let start = Instant::now();
            let mut iters = 0u64;
            loop {
                black_box(f());
                iters += 1;
                if start.elapsed() >= slice || iters >= iters_per_sample.max(1) {
                    break;
                }
            }
            self.results.push(start.elapsed().div_f64(iters as f64));
        }
    }
}

/// One completed benchmark's summary, collected on the [`Criterion`]
/// driver so harnesses can post-process results (e.g. the machine-
/// readable `BENCH_driver.json` / `BENCH_kernels.json` artifacts
/// emitted by `benches/driver.rs` and `benches/assign_kernel.rs`).
#[derive(Clone, Debug)]
pub struct BenchRecord {
    /// `group/id` of the benchmark.
    pub id: String,
    /// Median over the timed samples.
    pub median: Duration,
    /// Number of timed samples.
    pub samples: usize,
    /// Free-form numeric annotations attached by the bench harness after
    /// the run (work counters, configuration axes) via
    /// [`Criterion::annotate_last`] — real criterion has no equivalent,
    /// but machine-readable perf artifacts need the counters next to the
    /// timings.
    pub metrics: Vec<(String, f64)>,
}

impl BenchRecord {
    /// Looks up an annotation by key.
    pub fn metric(&self, key: &str) -> Option<f64> {
        self.metrics.iter().find(|(k, _)| k == key).map(|&(_, v)| v)
    }
}

/// A named group of related benchmarks.
pub struct BenchmarkGroup<'c> {
    name: String,
    sample_size: usize,
    warm_up: Duration,
    measurement: Duration,
    criterion: &'c mut Criterion,
}

impl BenchmarkGroup<'_> {
    /// Number of timed samples per benchmark.
    pub fn sample_size(&mut self, n: usize) -> &mut Self {
        self.sample_size = n;
        self
    }

    /// Warm-up duration before sampling begins.
    pub fn warm_up_time(&mut self, d: Duration) -> &mut Self {
        self.warm_up = d;
        self
    }

    /// Total measurement budget per benchmark.
    pub fn measurement_time(&mut self, d: Duration) -> &mut Self {
        self.measurement = d;
        self
    }

    fn run(&mut self, id: &str, f: &mut dyn FnMut(&mut Bencher)) {
        let mut bencher = Bencher {
            samples: self.sample_size,
            measurement: self.measurement,
            warm_up: self.warm_up,
            results: Vec::new(),
        };
        f(&mut bencher);
        let mut sorted = bencher.results.clone();
        sorted.sort();
        let median = sorted
            .get(sorted.len() / 2)
            .copied()
            .unwrap_or(Duration::ZERO);
        println!(
            "{}/{}: median {:?} over {} samples",
            self.name,
            id,
            median,
            sorted.len()
        );
        self.criterion.records.push(BenchRecord {
            id: format!("{}/{}", self.name, id),
            median,
            samples: sorted.len(),
            metrics: Vec::new(),
        });
    }

    /// Benchmarks `f` under `id` within this group.
    pub fn bench_function<F>(&mut self, id: impl ToString, mut f: F) -> &mut Self
    where
        F: FnMut(&mut Bencher),
    {
        self.run(&id.to_string(), &mut f);
        self
    }

    /// Benchmarks `f` with a borrowed input value.
    pub fn bench_with_input<I: ?Sized, F>(
        &mut self,
        id: BenchmarkId,
        input: &I,
        mut f: F,
    ) -> &mut Self
    where
        F: FnMut(&mut Bencher, &I),
    {
        self.run(&id.to_string(), &mut |b| f(b, input));
        self
    }

    /// Attaches a numeric annotation to the most recently completed
    /// benchmark of this run (see [`Criterion::annotate_last`]); chains
    /// after `bench_function` so counters land on the record they
    /// describe.
    pub fn annotate_last(&mut self, key: impl Into<String>, value: f64) -> &mut Self {
        self.criterion.annotate_last(key, value);
        self
    }

    /// Ends the group (no-op; kept for API compatibility).
    pub fn finish(&mut self) {}
}

/// Top-level benchmark driver.
#[derive(Default)]
pub struct Criterion {
    records: Vec<BenchRecord>,
}

impl Criterion {
    /// Starts a new benchmark group.
    pub fn benchmark_group(&mut self, name: impl Into<String>) -> BenchmarkGroup<'_> {
        BenchmarkGroup {
            name: name.into(),
            sample_size: 10,
            warm_up: Duration::from_millis(200),
            measurement: Duration::from_secs(1),
            criterion: self,
        }
    }

    /// Every benchmark completed so far, in run order.
    pub fn records(&self) -> &[BenchRecord] {
        &self.records
    }

    /// Attaches a numeric annotation to the most recently completed
    /// benchmark (no-op before the first one) — how harnesses thread
    /// work counters and configuration axes into their JSON artifacts.
    pub fn annotate_last(&mut self, key: impl Into<String>, value: f64) -> &mut Self {
        if let Some(last) = self.records.last_mut() {
            last.metrics.push((key.into(), value));
        }
        self
    }

    /// Benchmarks `f` outside any group.
    pub fn bench_function<F>(&mut self, id: impl ToString, f: F) -> &mut Self
    where
        F: FnMut(&mut Bencher),
    {
        self.benchmark_group("bench")
            .bench_function(id.to_string(), f);
        self
    }
}

/// Collects benchmark functions into a runnable group, mirroring
/// criterion's macro of the same name.
#[macro_export]
macro_rules! criterion_group {
    ($name:ident, $($fun:path),+ $(,)?) => {
        pub fn $name() {
            let mut c = $crate::Criterion::default();
            $($fun(&mut c);)+
        }
    };
}

/// Entry point: runs every `criterion_group!`.
#[macro_export]
macro_rules! criterion_main {
    ($($group:path),+ $(,)?) => {
        fn main() {
            $($group();)+
        }
    };
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn group_runs_and_reports() {
        let mut c = Criterion::default();
        let mut g = c.benchmark_group("shim");
        g.sample_size(3)
            .warm_up_time(Duration::from_millis(1))
            .measurement_time(Duration::from_millis(5));
        let mut calls = 0u64;
        g.bench_function("count", |b| b.iter(|| calls += 1));
        g.finish();
        assert!(calls > 0);
    }

    #[test]
    fn benchmark_id_formats() {
        assert_eq!(BenchmarkId::new("f", 42).to_string(), "f/42");
    }

    #[test]
    fn records_are_collected_for_post_processing() {
        let mut c = Criterion::default();
        {
            let mut g = c.benchmark_group("grp");
            g.sample_size(2)
                .warm_up_time(Duration::from_millis(1))
                .measurement_time(Duration::from_millis(4));
            g.bench_function("a", |b| b.iter(|| black_box(1 + 1)));
            g.bench_function("b", |b| b.iter(|| black_box(2 + 2)));
            g.finish();
        }
        let records = c.records();
        assert_eq!(records.len(), 2);
        assert_eq!(records[0].id, "grp/a");
        assert_eq!(records[1].id, "grp/b");
        assert!(records.iter().all(|r| r.samples == 2));
    }

    #[test]
    fn annotations_attach_to_the_last_record() {
        let mut c = Criterion::default();
        c.annotate_last("before_any", 1.0); // no-op, nothing recorded yet
        {
            let mut g = c.benchmark_group("grp");
            g.sample_size(1)
                .warm_up_time(Duration::from_millis(1))
                .measurement_time(Duration::from_millis(2));
            g.bench_function("a", |b| b.iter(|| black_box(1)));
            g.finish();
        }
        c.annotate_last("n", 42.0).annotate_last("pruned", 7.0);
        let r = &c.records()[0];
        assert_eq!(r.metric("n"), Some(42.0));
        assert_eq!(r.metric("pruned"), Some(7.0));
        assert_eq!(r.metric("missing"), None);
        assert_eq!(r.metric("before_any"), None);
    }
}
