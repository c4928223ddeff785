//! Micro-bench: one Lloyd iteration (assignment + centroid update),
//! sequential vs parallel shards — ablation A4's speedup curve.

use criterion::{criterion_group, criterion_main, Criterion};
use kmeans_core::lloyd::{lloyd, LloydConfig};
use kmeans_data::synth::GaussMixture;
use kmeans_par::{Executor, Parallelism};
use std::time::Duration;

fn bench_lloyd_iteration(c: &mut Criterion) {
    let k = 50;
    let synth = GaussMixture::new(k)
        .points(16_384)
        .center_variance(10.0)
        .generate(3)
        .unwrap();
    let points = synth.dataset.points();
    // A fixed, deterministic starting set: the ground-truth centers.
    let init = synth.true_centers.clone();
    let config = LloydConfig {
        max_iterations: 1,
        tol: 0.0,
    };

    let mut group = c.benchmark_group("lloyd_one_iteration_n16384_k50");
    group
        .sample_size(10)
        .warm_up_time(Duration::from_millis(300))
        .measurement_time(Duration::from_secs(2));
    group.bench_function("sequential", |b| {
        let exec = Executor::sequential();
        b.iter(|| lloyd(points, &init, &config, &exec).unwrap())
    });
    let cores = std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1);
    let mut thread_counts = vec![2usize];
    if cores > 2 {
        thread_counts.push(cores);
    }
    for threads in thread_counts {
        group.bench_function(format!("threads_{threads}"), |b| {
            let exec = Executor::new(Parallelism::Threads(threads));
            b.iter(|| lloyd(points, &init, &config, &exec).unwrap())
        });
    }
    group.finish();

    // Full convergence runs: plain Lloyd's warm passes amortize across
    // iterations. The refiner-trait entries measure the same algorithm
    // through the pipeline API (labels + cost + accounting included),
    // alongside the mini-batch and seed-only refiners for the full
    // refinement axis.
    let mut group = c.benchmark_group("refine_to_convergence_n16384_k50");
    group
        .sample_size(10)
        .warm_up_time(Duration::from_millis(300))
        .measurement_time(Duration::from_secs(3));
    let full = LloydConfig::default();
    group.bench_function("plain", |b| {
        let exec = Executor::sequential();
        b.iter(|| lloyd(points, &init, &full, &exec).unwrap())
    });
    use kmeans_core::minibatch::MiniBatchConfig;
    use kmeans_core::pipeline::{Lloyd, MiniBatch, NoRefine, Refiner};
    let refiners: Vec<(&str, Box<dyn Refiner>)> = vec![
        ("refiner_lloyd", Box::new(Lloyd(full))),
        (
            "refiner_minibatch",
            Box::new(MiniBatch(MiniBatchConfig {
                batch_size: 1_024,
                iterations: 100,
            })),
        ),
        ("refiner_none", Box::new(NoRefine)),
    ];
    for (name, refiner) in refiners {
        group.bench_function(name, |b| {
            let exec = Executor::sequential();
            b.iter(|| refiner.refine(points, None, &init, 1, &exec).unwrap())
        });
    }
    group.finish();
}

criterion_group!(benches, bench_lloyd_iteration);
criterion_main!(benches);
