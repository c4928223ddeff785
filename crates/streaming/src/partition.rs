//! The **Partition** baseline (§4.2.1 of the paper; Ailon, Jaiswal &
//! Monteleoni, NIPS 2009).
//!
//! > "it divides the input into m equal-sized groups. In each group, it
//! > runs a variant of k-means++ that selects 3 log k points in each
//! > iteration [k-means#]. At the end of this, similar to our reclustering
//! > step, it runs (vanilla) k-means++ on the weighted set of these
//! > clusters to reduce the number of centers to k. Choosing m = √(n/k)
//! > minimizes the amount of memory used by the streaming algorithm."
//!
//! The defining performance property (Tables 4–5): its intermediate set is
//! `≈ m · (1 + 3k·⌈ln k⌉)` centers — for the paper's KDD runs close to a
//! *million*, three orders of magnitude above k-means||'s `r·ℓ` — and the
//! final sequential k-means++ over that set is the bottleneck that extra
//! machines cannot shrink.

use crate::kmeans_sharp::kmeans_sharp;
use kmeans_core::distance::nearest;
use kmeans_core::init::weighted_kmeanspp;
use kmeans_core::KMeansError;
use kmeans_data::PointMatrix;
use kmeans_par::Executor;
use kmeans_util::timing::Stopwatch;
use kmeans_util::Rng;
use std::time::Duration;

/// Configuration for the Partition baseline.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct PartitionConfig {
    /// Number of groups; `None` uses the paper's `m = round(√(n/k))`.
    pub groups: Option<usize>,
}

/// Output of a Partition run.
#[derive(Clone, Debug)]
pub struct PartitionResult {
    /// The final `k` centers.
    pub centers: PointMatrix,
    /// Number of groups used (`m`).
    pub groups: usize,
    /// Total intermediate centers before the final recluster — the Table 5
    /// quantity.
    pub intermediate_centers: usize,
    /// Wall time of the (parallel) per-group phase.
    pub group_phase: Duration,
    /// Wall time of the (sequential) final k-means++ recluster — the term
    /// that does not shrink with more machines.
    pub recluster_phase: Duration,
}

/// The paper's memory-optimal group count `m = round(√(n/k))`, at least 1.
pub fn optimal_groups(n: usize, k: usize) -> usize {
    ((n as f64 / k as f64).sqrt().round() as usize).max(1)
}

/// Runs the Partition algorithm.
///
/// Groups are processed in parallel on `exec` (one task per group, exactly
/// as the paper's first MapReduce round); the weighted recluster is
/// sequential (the paper's second round runs "k-means++ ... sequentially").
pub fn partition_init(
    points: &PointMatrix,
    k: usize,
    config: &PartitionConfig,
    seed: u64,
    exec: &Executor,
) -> Result<PartitionResult, KMeansError> {
    if points.is_empty() {
        return Err(KMeansError::EmptyInput);
    }
    let n = points.len();
    if k == 0 || k > n {
        return Err(KMeansError::InvalidK { k, n });
    }
    let m = config.groups.unwrap_or_else(|| optimal_groups(n, k)).max(1);
    let m = m.min(n); // never more groups than points

    // Random equal-size partition of the indices.
    let mut order: Vec<usize> = (0..n).collect();
    let mut rng = Rng::derive(seed, &[60]);
    rng.shuffle(&mut order);

    // Group boundaries: sizes differ by at most one.
    let bounds: Vec<(usize, usize)> = (0..m)
        .map(|g| {
            let start = g * n / m;
            let end = (g + 1) * n / m;
            (start, end)
        })
        .collect();

    // Per-group k-means# plus local weighting, one parallel task per group.
    let sw = Stopwatch::start();
    let group_exec = exec.clone().with_shard_size(1);
    let group_outputs: Vec<Result<(PointMatrix, Vec<f64>), KMeansError>> =
        group_exec.map_shards(m, |g, _| {
            let (start, end) = bounds[g];
            let group_points = points.select(&order[start..end]);
            let mut group_rng = Rng::derive(seed, &[61, g as u64]);
            let centers = kmeans_sharp(&group_points, k, &mut group_rng)?;
            // Local weights: how many group points each center serves.
            let mut weights = vec![0.0f64; centers.len()];
            for row in group_points.rows() {
                weights[nearest(row, &centers).0] += 1.0;
            }
            Ok((centers, weights))
        });
    let group_phase = sw.elapsed();

    // Union the weighted coreset.
    let mut coreset = PointMatrix::new(points.dim());
    let mut weights: Vec<f64> = Vec::new();
    for out in group_outputs {
        let (centers, w) = out?;
        coreset.extend_from(&centers).expect("dims match");
        weights.extend_from_slice(&w);
    }
    let intermediate = coreset.len();

    // Final sequential weighted k-means++ down to k. If the coreset came up
    // short (extremely duplicate-heavy data), fall back to reclustering the
    // raw points.
    let sw = Stopwatch::start();
    let centers = if intermediate >= k {
        weighted_kmeanspp(&coreset, &weights, k, &mut rng)?
    } else {
        let uniform = vec![1.0; n];
        weighted_kmeanspp(points, &uniform, k, &mut rng)?
    };
    let recluster_phase = sw.elapsed();

    Ok(PartitionResult {
        centers,
        groups: m,
        intermediate_centers: intermediate,
        group_phase,
        recluster_phase,
    })
}

/// Runs Partition over a [`ChunkedSource`](kmeans_data::ChunkedSource) as
/// the **true streaming algorithm** it was published as: groups are
/// consecutive chunks of the stream (Ailon et al.'s one-pass setting),
/// processed as their rows arrive — one scan total, with only one group
/// (`≈ n/m = √(n·k)` rows, the paper's memory-optimal point) plus one
/// block resident at a time.
///
/// This deliberately differs from [`partition_init`], which simulates the
/// streaming setting in memory by *shuffling* the input into random groups
/// — a global permutation an out-of-core pass cannot afford. Results are
/// therefore deterministic per seed but not bit-identical to the in-memory
/// entry point (every other chunked seeder in the workspace is; see
/// `kmeans_core::chunked`).
pub fn partition_init_chunked(
    source: &dyn kmeans_data::ChunkedSource,
    k: usize,
    config: &PartitionConfig,
    seed: u64,
    exec: &Executor,
) -> Result<PartitionResult, KMeansError> {
    use kmeans_core::chunked::{check_block_finite, LocalData};

    let data = LocalData::Blocks(source);
    data.validate(k)?;
    let n = source.len();
    let m = config.groups.unwrap_or_else(|| optimal_groups(n, k)).max(1);
    let m = m.min(n);
    let mut rng = Rng::derive(seed, &[60]);

    // Group boundaries: contiguous stream chunks, sizes differing by ≤ 1.
    let bounds: Vec<(usize, usize)> = (0..m).map(|g| (g * n / m, (g + 1) * n / m)).collect();

    let sw = Stopwatch::start();
    let mut coreset = PointMatrix::new(source.dim());
    let mut weights: Vec<f64> = Vec::new();
    let mut group = PointMatrix::with_capacity(source.dim(), bounds[0].1);
    let mut g = 0usize;
    data.for_each_block(|start, block| {
        check_block_finite(block, start)?;
        for (off, row) in block.rows().enumerate() {
            group.push(row).expect("row dim matches source dim");
            if start + off + 1 == bounds[g].1 {
                // Group complete: run k-means# locally, weight, discard.
                let mut group_rng = Rng::derive(seed, &[61, g as u64]);
                let centers = kmeans_sharp(&group, k, &mut group_rng)?;
                let mut w = vec![0.0f64; centers.len()];
                for row in group.rows() {
                    w[nearest(row, &centers).0] += 1.0;
                }
                coreset.extend_from(&centers).expect("dims match");
                weights.extend_from_slice(&w);
                group.clear();
                g += 1;
            }
        }
        Ok(())
    })?;
    let group_phase = sw.elapsed();
    let intermediate = coreset.len();

    // Final sequential weighted k-means++ down to k; on degenerate
    // duplicate-heavy coresets fall back to D² seeding over the stream.
    let sw = Stopwatch::start();
    let centers = if intermediate >= k {
        weighted_kmeanspp(&coreset, &weights, k, &mut rng)?
    } else {
        kmeans_core::init::kmeanspp(data, k, &mut rng, exec)?
    };
    let recluster_phase = sw.elapsed();

    Ok(PartitionResult {
        centers,
        groups: m,
        intermediate_centers: intermediate,
        group_phase,
        recluster_phase,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::kmeans_sharp::draws_per_round;
    use kmeans_core::cost::potential;
    use kmeans_par::Parallelism;

    fn blobs(n_per: usize, centers: &[f64]) -> PointMatrix {
        let mut m = PointMatrix::new(1);
        for &c in centers {
            for i in 0..n_per {
                m.push(&[c + i as f64 * 1e-3]).unwrap();
            }
        }
        m
    }

    #[test]
    fn optimal_groups_formula() {
        assert_eq!(optimal_groups(4_800_000, 500), 98); // √9600 ≈ 97.98
        assert_eq!(optimal_groups(100, 100), 1);
        assert_eq!(optimal_groups(10, 1000), 1); // clamped up to 1
    }

    #[test]
    fn returns_k_centers_and_counts_intermediate() {
        let points = blobs(250, &[0.0, 1e4, 2e4, 3e4]);
        let exec = Executor::sequential();
        let result = partition_init(&points, 4, &PartitionConfig::default(), 1, &exec).unwrap();
        assert_eq!(result.centers.len(), 4);
        // m = √(1000/4) ≈ 16 groups; each yields ≤ 1 + k·3lnk centers.
        assert_eq!(result.groups, 16);
        let per_group_max = 1 + 4 * draws_per_round(4);
        assert!(result.intermediate_centers <= result.groups * per_group_max);
        assert!(
            result.intermediate_centers > 4,
            "intermediate {} should exceed k",
            result.intermediate_centers
        );
    }

    #[test]
    fn covers_separated_blobs() {
        let points = blobs(250, &[0.0, 1e4, 2e4, 3e4]);
        let exec = Executor::sequential();
        let mut good = 0;
        for seed in 0..10 {
            let result =
                partition_init(&points, 4, &PartitionConfig::default(), seed, &exec).unwrap();
            if potential(&points, &result.centers, &exec) < 100.0 {
                good += 1;
            }
        }
        assert!(good >= 9, "coverage failed in {}/10 runs", 10 - good);
    }

    #[test]
    fn deterministic_and_thread_invariant() {
        let points = blobs(100, &[0.0, 50.0, 100.0]);
        let run = |par: Parallelism| {
            let exec = Executor::new(par);
            partition_init(&points, 3, &PartitionConfig::default(), 42, &exec).unwrap()
        };
        let a = run(Parallelism::Sequential);
        let b = run(Parallelism::Threads(3));
        assert_eq!(a.centers, b.centers);
        assert_eq!(a.intermediate_centers, b.intermediate_centers);
        assert_eq!(a.groups, b.groups);
    }

    #[test]
    fn explicit_group_count_is_respected() {
        let points = blobs(100, &[0.0, 10.0]);
        let exec = Executor::sequential();
        let result =
            partition_init(&points, 2, &PartitionConfig { groups: Some(5) }, 3, &exec).unwrap();
        assert_eq!(result.groups, 5);
    }

    #[test]
    fn duplicate_heavy_data_falls_back() {
        // 30 copies of one value: coreset has 1 center < k = 3.
        let points = PointMatrix::from_flat(vec![5.0; 30], 1).unwrap();
        let exec = Executor::sequential();
        let result = partition_init(&points, 3, &PartitionConfig::default(), 2, &exec).unwrap();
        assert_eq!(result.centers.len(), 3);
    }

    #[test]
    fn rejects_bad_inputs() {
        let exec = Executor::sequential();
        assert!(partition_init(
            &PointMatrix::new(1),
            1,
            &PartitionConfig::default(),
            0,
            &exec
        )
        .is_err());
        let points = blobs(5, &[0.0]);
        assert!(partition_init(&points, 0, &PartitionConfig::default(), 0, &exec).is_err());
        assert!(partition_init(&points, 6, &PartitionConfig::default(), 0, &exec).is_err());
    }
}
