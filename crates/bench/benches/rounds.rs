//! Micro-bench: per-round cost of k-means|| vs the oversampling factor ℓ,
//! and ablation A3 — the "free Step 7" (tracked nearest ids) vs a naive
//! full weighting pass over all candidates.

use criterion::{criterion_group, criterion_main, Criterion};
use kmeans_core::cost::CostTracker;
use kmeans_core::distance::nearest;
use kmeans_core::init::{kmeans_parallel, KMeansParallelConfig};
use kmeans_data::synth::GaussMixture;
use kmeans_data::PointMatrix;
use kmeans_par::Executor;
use std::time::Duration;

fn bench_oversampling(c: &mut Criterion) {
    let k = 32;
    let synth = GaussMixture::new(k)
        .points(8_192)
        .center_variance(10.0)
        .generate(5)
        .unwrap();
    let points = synth.dataset.points();
    let exec = Executor::sequential();

    let mut group = c.benchmark_group("kmeans_par_full_run_n8192_k32");
    group
        .sample_size(10)
        .warm_up_time(Duration::from_millis(300))
        .measurement_time(Duration::from_secs(2));
    let mut seed = 0u64;
    for factor in [0.5, 2.0, 8.0] {
        group.bench_function(format!("l_{factor}k"), |b| {
            let config = KMeansParallelConfig::default().oversampling_factor(factor);
            b.iter(|| {
                seed += 1;
                kmeans_parallel(points, k, &config, seed, &exec).unwrap()
            })
        });
    }
    group.finish();
}

/// Ablation A3: computing Step 7 weights from the tracked nearest ids is an
/// O(n) histogram; the naive alternative re-scans every candidate center
/// for every point (O(n·|C|·d)).
fn bench_step7(c: &mut Criterion) {
    let synth = GaussMixture::new(32)
        .points(8_192)
        .center_variance(10.0)
        .generate(6)
        .unwrap();
    let points = synth.dataset.points();
    let exec = Executor::sequential();
    // A realistic candidate set: ~2k·r + 1 = 321 candidates.
    let mut candidates = PointMatrix::new(points.dim());
    let mut rng = kmeans_util::Rng::new(9);
    for _ in 0..321 {
        candidates
            .push(points.row(rng.range_usize(points.len())))
            .unwrap();
    }
    let tracker = CostTracker::new(points, &candidates, &exec).unwrap();

    let mut group = c.benchmark_group("step7_weights_n8192_c321");
    group
        .sample_size(10)
        .warm_up_time(Duration::from_millis(300))
        .measurement_time(Duration::from_secs(2));
    group.bench_function("tracked_histogram", |b| {
        b.iter(|| tracker.weights(candidates.len()))
    });
    group.bench_function("naive_full_pass", |b| {
        b.iter(|| {
            let mut w = vec![0.0f64; candidates.len()];
            for row in points.rows() {
                w[nearest(row, &candidates).0] += 1.0;
            }
            w
        })
    });
    group.finish();
}

criterion_group!(benches, bench_oversampling, bench_step7);
criterion_main!(benches);
