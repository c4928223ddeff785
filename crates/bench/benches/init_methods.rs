//! Micro-bench: seeding wall time — the Table 4 story in miniature.
//! k-means++ pays k sequential passes; k-means|| pays `1 + r` passes;
//! Random pays one. The second group sweeps the full Initializer×Refiner
//! grid through the `KMeans` builder — the composition axis the pipeline
//! API opened.

use criterion::{criterion_group, criterion_main, Criterion};
use kmeans_core::init::{InitMethod, KMeansParallelConfig};
use kmeans_core::minibatch::MiniBatchConfig;
use kmeans_core::model::KMeans;
use kmeans_core::pipeline::{Initializer, Lloyd, MiniBatch, NoRefine, Refiner};
use kmeans_data::synth::GaussMixture;
use kmeans_par::{Executor, Parallelism};
use kmeans_streaming::{Coreset, Partition};
use std::sync::Arc;
use std::time::Duration;

fn bench_init_methods(c: &mut Criterion) {
    let synth = GaussMixture::new(32)
        .points(4_096)
        .center_variance(10.0)
        .generate(1)
        .unwrap();
    let points = synth.dataset.points();
    let exec = Executor::sequential();
    let k = 32;

    let mut group = c.benchmark_group("seeding_n4096_k32");
    group
        .sample_size(10)
        .warm_up_time(Duration::from_millis(300))
        .measurement_time(Duration::from_secs(2));
    let mut seed = 0u64;
    group.bench_function("random", |b| {
        b.iter(|| {
            seed += 1;
            InitMethod::Random.run(points, k, seed, &exec).unwrap()
        })
    });
    group.bench_function("kmeans_pp", |b| {
        b.iter(|| {
            seed += 1;
            InitMethod::KMeansPlusPlus
                .run(points, k, seed, &exec)
                .unwrap()
        })
    });
    for factor in [0.5, 2.0] {
        group.bench_function(format!("kmeans_par_l{factor}k_r5"), |b| {
            let init = InitMethod::KMeansParallel(
                KMeansParallelConfig::default().oversampling_factor(factor),
            );
            b.iter(|| {
                seed += 1;
                init.run(points, k, seed, &exec).unwrap()
            })
        });
    }
    group.finish();
}

/// The init×refine grid: every seeder × every refiner, one builder fit
/// each, on a mixture small enough that the full grid stays quick.
fn bench_init_refine_grid(c: &mut Criterion) {
    let synth = GaussMixture::new(16)
        .points(2_048)
        .center_variance(25.0)
        .generate(2)
        .unwrap();
    let points = synth.dataset.points();
    let k = 16;

    let inits: Vec<(&str, Arc<dyn Initializer>)> = vec![
        ("random", Arc::new(kmeans_core::pipeline::Random)),
        ("kmeans_pp", Arc::new(kmeans_core::pipeline::KMeansPlusPlus)),
        (
            "kmeans_par",
            Arc::new(kmeans_core::pipeline::KMeansParallel::default()),
        ),
        (
            "afk_mc2",
            Arc::new(kmeans_core::pipeline::AfkMc2 { chain_length: 100 }),
        ),
        ("partition", Arc::new(Partition::default())),
        ("coreset", Arc::new(Coreset { coreset_size: 128 })),
    ];
    let refiners: Vec<(&str, Arc<dyn Refiner>)> = vec![
        ("lloyd", Arc::new(Lloyd::default())),
        (
            "minibatch",
            Arc::new(MiniBatch(MiniBatchConfig {
                batch_size: 256,
                iterations: 50,
            })),
        ),
        ("none", Arc::new(NoRefine)),
    ];

    let mut group = c.benchmark_group("init_x_refine_n2048_k16");
    group
        .sample_size(10)
        .warm_up_time(Duration::from_millis(200))
        .measurement_time(Duration::from_millis(800));
    let exec = Executor::sequential();
    let mut seed = 0u64;
    for (init_name, init) in &inits {
        for (refine_name, refiner) in &refiners {
            let init = Arc::clone(init);
            let refiner = Arc::clone(refiner);
            group.bench_function(format!("{init_name}+{refine_name}"), |b| {
                b.iter(|| {
                    seed += 1;
                    let seeded = init.init(points, None, k, seed, &exec).unwrap();
                    refiner
                        .refine(points, None, &seeded.centers, seed, &exec)
                        .unwrap()
                })
            });
        }
    }
    group.finish();

    // One end-to-end builder fit per seeder, as applications run it.
    let mut group = c.benchmark_group("builder_fit_n2048_k16");
    group
        .sample_size(10)
        .warm_up_time(Duration::from_millis(200))
        .measurement_time(Duration::from_millis(800));
    group.bench_function("kmeans_par+lloyd", |b| {
        b.iter(|| {
            seed += 1;
            KMeans::params(k)
                .seed(seed)
                .parallelism(Parallelism::Sequential)
                .fit(points)
                .unwrap()
        })
    });
    group.bench_function("coreset+lloyd", |b| {
        b.iter(|| {
            seed += 1;
            KMeans::params(k)
                .init(Coreset { coreset_size: 128 })
                .refine(Lloyd::default())
                .seed(seed)
                .parallelism(Parallelism::Sequential)
                .fit(points)
                .unwrap()
        })
    });
    group.finish();
}

criterion_group!(benches, bench_init_methods, bench_init_refine_grid);
criterion_main!(benches);
