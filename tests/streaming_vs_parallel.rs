//! Cross-crate comparisons: k-means|| vs the streaming baselines
//! (the Table 5 shape at test scale) and the coreset-tree extension.

use scalable_kmeans::prelude::*;
use scalable_kmeans::streaming::CoresetTree;

#[test]
fn intermediate_set_sizes_follow_table_5_ordering() {
    // Partition's coreset must be far larger than k-means||'s candidate
    // set at the same (n, k) — the mechanism behind its slower Table 4
    // times.
    let synth = KddLike::new(20_000).generate(4).unwrap();
    let points = synth.dataset.points();
    let k = 30;
    let exec = Executor::new(Parallelism::Auto);

    let partition = partition_init(points, k, &PartitionConfig::default(), 1, &exec).unwrap();
    let parallel = InitMethod::default().run(points, k, 1, &exec).unwrap();
    assert!(
        partition.intermediate_centers > 10 * parallel.stats.candidates,
        "Partition {} vs k-means|| {} intermediate centers",
        partition.intermediate_centers,
        parallel.stats.candidates
    );
}

#[test]
fn both_methods_beat_random_on_kdd_shape() {
    let synth = KddLike::new(10_000).generate(6).unwrap();
    let points = synth.dataset.points();
    let k = 25;
    let exec = Executor::new(Parallelism::Auto);
    let seed_cost =
        |centers: &PointMatrix| scalable_kmeans::core::cost::potential(points, centers, &exec);

    let partition = partition_init(points, k, &PartitionConfig::default(), 2, &exec).unwrap();
    let parallel = InitMethod::default().run(points, k, 2, &exec).unwrap();
    let random = InitMethod::Random.run(points, k, 2, &exec).unwrap();
    let partition_cost = seed_cost(&partition.centers);
    assert!(partition_cost < random.stats.seed_cost / 10.0);
    assert!(parallel.stats.seed_cost < random.stats.seed_cost / 10.0);
}

#[test]
fn coreset_tree_single_pass_is_competitive() {
    // Stream a mixture through the coreset tree; its k centers should be
    // within a small factor of the batch k-means|| result.
    let synth = GaussMixture::new(10)
        .points(20_000)
        .center_variance(100.0)
        .generate(8)
        .unwrap();
    let points = synth.dataset.points();
    let exec = Executor::new(Parallelism::Auto);

    let mut tree = CoresetTree::new(points.dim(), 200, 3).unwrap();
    for row in points.rows() {
        tree.insert(row).unwrap();
    }
    let stream_centers = tree.cluster(10).unwrap();
    let stream_cost = scalable_kmeans::core::cost::potential(points, &stream_centers, &exec);

    let batch = KMeans::params(10).seed(3).fit(points).unwrap();
    assert!(
        stream_cost < 3.0 * batch.cost(),
        "coreset clustering {stream_cost:.3e} vs batch {:.3e}",
        batch.cost()
    );
    // Memory held stayed sublinear.
    assert!(tree.representatives() < 2_000);
}
