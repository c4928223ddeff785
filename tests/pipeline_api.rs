//! Pipeline-API contract tests: per-algorithm parity against the
//! pre-refactor entry points (bit-for-bit per seed), plus the full
//! Initializer×Refiner grid through the `KMeans` builder — including
//! weighted fits and thread-count invariance.

use scalable_kmeans::core::pipeline;
use scalable_kmeans::prelude::*;
use scalable_kmeans::streaming::CoresetTree;

fn mixture(k: usize, n: usize, seed: u64) -> PointMatrix {
    GaussMixture::new(k)
        .points(n)
        .center_variance(40.0)
        .generate(seed)
        .unwrap()
        .dataset
        .into_parts()
        .1
}

// ---------------------------------------------------------------------------
// Parity: every Initializer matches its legacy free-function entry point
// bit-for-bit for a fixed seed.
// ---------------------------------------------------------------------------

#[test]
fn random_initializer_parity() {
    use scalable_kmeans::core::init::random_init;
    let points = mixture(6, 800, 1);
    let exec = Executor::new(Parallelism::Sequential);
    for seed in 0..5u64 {
        let via_trait = pipeline::Random
            .init(&points, None, 6, seed, &exec)
            .unwrap();
        let mut rng = Rng::derive(seed, &[20]);
        let direct = random_init(&points, 6, &mut rng).unwrap();
        assert_eq!(via_trait.centers, direct, "seed {seed}");
        // And the legacy enum path routes through the same impl.
        let via_enum = InitMethod::Random.run(&points, 6, seed, &exec).unwrap();
        assert_eq!(via_enum.centers, direct, "seed {seed}");
    }
}

#[test]
fn kmeanspp_initializer_parity() {
    use scalable_kmeans::core::init::kmeanspp;
    let points = mixture(6, 800, 2);
    let exec = Executor::new(Parallelism::Sequential);
    for seed in 0..5u64 {
        let via_trait = pipeline::KMeansPlusPlus
            .init(&points, None, 6, seed, &exec)
            .unwrap();
        let mut rng = Rng::derive(seed, &[21]);
        let direct = kmeanspp(&points, 6, &mut rng, &exec).unwrap();
        assert_eq!(via_trait.centers, direct, "seed {seed}");
        let via_enum = InitMethod::KMeansPlusPlus
            .run(&points, 6, seed, &exec)
            .unwrap();
        assert_eq!(via_enum.centers, direct, "seed {seed}");
    }
}

#[test]
fn kmeans_parallel_initializer_parity() {
    use scalable_kmeans::core::init::kmeans_parallel;
    let points = mixture(8, 1_200, 3);
    let exec = Executor::new(Parallelism::Sequential);
    let config = KMeansParallelConfig::default();
    for seed in 0..5u64 {
        let via_trait = pipeline::KMeansParallel(config)
            .init(&points, None, 8, seed, &exec)
            .unwrap();
        let (direct, direct_stats) = kmeans_parallel(&points, 8, &config, seed, &exec).unwrap();
        assert_eq!(via_trait.centers, direct, "seed {seed}");
        assert_eq!(via_trait.stats.candidates, direct_stats.candidates);
        assert_eq!(via_trait.stats.passes, direct_stats.passes);
        let via_enum = InitMethod::KMeansParallel(config)
            .run(&points, 8, seed, &exec)
            .unwrap();
        assert_eq!(via_enum.centers, direct, "seed {seed}");
    }
}

#[test]
fn afk_mc2_initializer_parity() {
    use scalable_kmeans::core::init::afk_mc2;
    let points = mixture(5, 700, 4);
    let exec = Executor::new(Parallelism::Sequential);
    for seed in 0..5u64 {
        let via_trait = AfkMc2 { chain_length: 50 }
            .init(&points, None, 5, seed, &exec)
            .unwrap();
        let mut rng = Rng::derive(seed, &[22]);
        let direct = afk_mc2(&points, 5, 50, &mut rng, &exec).unwrap();
        assert_eq!(via_trait.centers, direct, "seed {seed}");
    }
}

#[test]
fn partition_initializer_parity() {
    let points = mixture(6, 1_500, 5);
    let exec = Executor::new(Parallelism::Sequential);
    for seed in 0..3u64 {
        let via_trait = Partition::default()
            .init(&points, None, 6, seed, &exec)
            .unwrap();
        let direct = partition_init(&points, 6, &PartitionConfig::default(), seed, &exec).unwrap();
        assert_eq!(via_trait.centers, direct.centers, "seed {seed}");
        assert_eq!(via_trait.stats.candidates, direct.intermediate_centers);
    }
}

#[test]
fn coreset_initializer_parity() {
    let points = mixture(4, 900, 6);
    let exec = Executor::new(Parallelism::Sequential);
    for seed in 0..3u64 {
        let via_trait = Coreset { coreset_size: 64 }
            .init(&points, None, 4, seed, &exec)
            .unwrap();
        let mut tree = CoresetTree::new(points.dim(), 64, seed).unwrap();
        for row in points.rows() {
            tree.insert(row).unwrap();
        }
        let direct = tree.cluster(4).unwrap();
        assert_eq!(via_trait.centers, direct, "seed {seed}");
    }
}

// ---------------------------------------------------------------------------
// Parity: every Refiner matches its legacy free-function entry point.
// ---------------------------------------------------------------------------

#[test]
fn lloyd_refiner_parity() {
    use scalable_kmeans::core::lloyd::lloyd;
    let points = mixture(6, 1_000, 7);
    let exec = Executor::new(Parallelism::Sequential);
    for seed in 0..3u64 {
        let init = InitMethod::KMeansPlusPlus
            .run(&points, 6, seed, &exec)
            .unwrap();
        let config = LloydConfig::default();
        let via_trait = Lloyd(config)
            .refine(&points, None, &init.centers, seed, &exec)
            .unwrap();
        let direct = lloyd(&points, &init.centers, &config, &exec).unwrap();
        assert_eq!(via_trait.centers, direct.centers, "seed {seed}");
        assert_eq!(via_trait.labels, direct.labels);
        assert_eq!(via_trait.cost.to_bits(), direct.cost.to_bits());
        assert_eq!(via_trait.iterations, direct.iterations);
        assert_eq!(via_trait.converged, direct.converged);
    }
}

#[test]
fn minibatch_refiner_parity() {
    use scalable_kmeans::core::minibatch::minibatch_kmeans;
    let points = mixture(5, 900, 9);
    let exec = Executor::new(Parallelism::Sequential);
    let config = MiniBatchConfig {
        batch_size: 128,
        iterations: 60,
    };
    for seed in 0..3u64 {
        let init = InitMethod::Random.run(&points, 5, seed, &exec).unwrap();
        let via_trait = MiniBatch(config)
            .refine(&points, None, &init.centers, seed, &exec)
            .unwrap();
        let direct = minibatch_kmeans(&points, &init.centers, &config, seed).unwrap();
        assert_eq!(via_trait.centers, direct, "seed {seed}");
    }
}

#[test]
fn weighted_stage_parity() {
    use scalable_kmeans::core::init::weighted_kmeanspp;
    use scalable_kmeans::core::lloyd::weighted_lloyd;
    let points = mixture(4, 500, 10);
    let weights: Vec<f64> = (0..points.len()).map(|i| 1.0 + (i % 7) as f64).collect();
    let exec = Executor::new(Parallelism::Sequential);
    for seed in 0..3u64 {
        // Weighted k-means++ through the trait == the free function.
        let via_trait = pipeline::KMeansPlusPlus
            .init(&points, Some(&weights), 4, seed, &exec)
            .unwrap();
        let mut rng = Rng::derive(seed, &[21]);
        let direct = weighted_kmeanspp(&points, &weights, 4, &mut rng).unwrap();
        assert_eq!(via_trait.centers, direct, "seed {seed}");
        // Weighted Lloyd through the trait == the free function.
        let refined = Lloyd(LloydConfig::default())
            .refine(&points, Some(&weights), &direct, seed, &exec)
            .unwrap();
        let direct_centers = weighted_lloyd(&points, &weights, direct.clone(), 300);
        assert_eq!(refined.centers, direct_centers, "seed {seed}");
        assert!(refined.cost.is_finite());
    }
}

// ---------------------------------------------------------------------------
// The full Initializer × Refiner grid through the builder.
// ---------------------------------------------------------------------------

fn all_initializers() -> Vec<(&'static str, Box<dyn Initializer>)> {
    vec![
        ("random", Box::new(pipeline::Random)),
        ("kmeans++", Box::new(pipeline::KMeansPlusPlus)),
        (
            "kmeans-par",
            Box::new(pipeline::KMeansParallel(KMeansParallelConfig::default())),
        ),
        ("afk-mc2", Box::new(AfkMc2 { chain_length: 40 })),
        ("partition", Box::new(Partition::default())),
        ("coreset", Box::new(Coreset { coreset_size: 64 })),
    ]
}

fn fit_grid_cell(
    points: &PointMatrix,
    k: usize,
    init_name: &str,
    refine_name: &str,
    par: Parallelism,
) -> KMeansModel {
    let builder = KMeans::params(k).seed(17).parallelism(par).shard_size(256);
    let builder = match init_name {
        "random" => builder.init(pipeline::Random),
        "kmeans++" => builder.init(pipeline::KMeansPlusPlus),
        "kmeans-par" => builder.init(pipeline::KMeansParallel(KMeansParallelConfig::default())),
        "afk-mc2" => builder.init(AfkMc2 { chain_length: 40 }),
        "partition" => builder.init(Partition::default()),
        "coreset" => builder.init(Coreset { coreset_size: 64 }),
        other => panic!("unknown init {other}"),
    };
    let builder = match refine_name {
        "lloyd" => builder.refine(Lloyd(LloydConfig::default())),
        "minibatch" => builder.refine(MiniBatch(MiniBatchConfig {
            batch_size: 128,
            iterations: 50,
        })),
        "none" => builder.refine(NoRefine),
        other => panic!("unknown refiner {other}"),
    };
    builder.fit(points).unwrap()
}

#[test]
fn every_initializer_composes_with_every_refiner() {
    let points = mixture(6, 1_200, 11);
    let refiners = ["lloyd", "minibatch", "none"];
    for (init_name, _) in all_initializers() {
        for refine_name in refiners {
            let model = fit_grid_cell(&points, 6, init_name, refine_name, Parallelism::Sequential);
            assert_eq!(model.k(), 6, "{init_name}+{refine_name}");
            assert_eq!(model.labels().len(), points.len());
            assert!(model.cost().is_finite() && model.cost() >= 0.0);
            assert!(model.distance_computations() > 0);
            assert_eq!(model.init_name(), init_name);
            assert_eq!(model.refiner_name(), refine_name);
            // A refined model never reports a cost above its seed cost
            // (mini-batch at this budget included, on separated data).
            if refine_name != "none" {
                assert!(
                    model.cost() <= model.init_stats().seed_cost * 1.001 + 1e-9,
                    "{init_name}+{refine_name}: {} vs seed {}",
                    model.cost(),
                    model.init_stats().seed_cost
                );
            }
        }
    }
}

#[test]
fn grid_is_thread_count_invariant() {
    let points = mixture(5, 900, 12);
    for (init_name, _) in all_initializers() {
        for refine_name in ["lloyd", "none"] {
            let seq = fit_grid_cell(&points, 5, init_name, refine_name, Parallelism::Sequential);
            let par = fit_grid_cell(&points, 5, init_name, refine_name, Parallelism::Threads(4));
            assert_eq!(seq.labels(), par.labels(), "{init_name}+{refine_name}");
            assert_eq!(seq.centers(), par.centers(), "{init_name}+{refine_name}");
            assert_eq!(
                seq.cost().to_bits(),
                par.cost().to_bits(),
                "{init_name}+{refine_name}"
            );
        }
    }
}

#[test]
fn weighted_grid_through_builder() {
    let points = mixture(4, 600, 13);
    let weights: Vec<f64> = (0..points.len()).map(|i| 0.5 + (i % 5) as f64).collect();
    // The weight-capable grid: {random, kmeans++} × {lloyd, none}.
    for init_name in ["random", "kmeans++"] {
        for refine_name in ["lloyd", "none"] {
            let builder = KMeans::params(4)
                .weights(&weights)
                .seed(23)
                .parallelism(Parallelism::Sequential);
            let builder = match init_name {
                "random" => builder.init(pipeline::Random),
                _ => builder.init(pipeline::KMeansPlusPlus),
            };
            let builder = match refine_name {
                "lloyd" => builder.refine(Lloyd(LloydConfig::default())),
                _ => builder.refine(NoRefine),
            };
            let model = builder.fit(&points).unwrap();
            assert_eq!(model.k(), 4, "{init_name}+{refine_name}");
            assert!(model.cost().is_finite());
            // Weighted cost of the final centers recomputes identically.
            let direct =
                scalable_kmeans::core::cost::weighted_potential(&points, &weights, model.centers());
            assert!(
                (model.cost() - direct).abs() <= 1e-9 * (1.0 + direct),
                "{init_name}+{refine_name}: {} vs {}",
                model.cost(),
                direct
            );
        }
    }
    // Weight-incapable stages reject the same builder configuration.
    let err = KMeans::params(4)
        .weights(&weights)
        .parallelism(Parallelism::Sequential)
        .fit(&points)
        .unwrap_err();
    assert!(matches!(err, KMeansError::InvalidConfig(_)));
}

#[test]
fn seed_only_refiner_reports_seed_cost() {
    let points = mixture(5, 800, 14);
    for (init_name, _) in all_initializers() {
        let model = fit_grid_cell(&points, 5, init_name, "none", Parallelism::Sequential);
        assert_eq!(model.iterations(), 0, "{init_name}");
        assert!(model.converged());
        assert!(
            (model.cost() - model.init_stats().seed_cost).abs() <= 1e-9 * (1.0 + model.cost()),
            "{init_name}: {} vs seed {}",
            model.cost(),
            model.init_stats().seed_cost
        );
    }
}

#[test]
fn init_method_converts_into_boxed_initializer() {
    let points = mixture(3, 300, 16);
    let exec = Executor::new(Parallelism::Sequential);
    let boxed: Box<dyn Initializer> = InitMethod::KMeansPlusPlus.into();
    let via_box = boxed.init(&points, None, 3, 5, &exec).unwrap();
    let via_enum = InitMethod::KMeansPlusPlus
        .run(&points, 3, 5, &exec)
        .unwrap();
    assert_eq!(via_box.centers, via_enum.centers);
}
