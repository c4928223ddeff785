//! Point-to-center assignment and per-cluster accumulation — the inner step
//! of Lloyd's iteration: the accumulation layout, the folded
//! [`ClusterSums`], and the sequential weighted form.
//!
//! The pass itself is [`crate::chunked::assign_partials`], written once
//! over [`LocalData`](crate::chunked::LocalData) for resident rows,
//! chunked sources and distributed workers alike. It mirrors the
//! MapReduce sketch of §3.5: each accumulation shard computes partial
//! sums/counts/cost ("mapper"), and the partials are folded **in shard
//! order** ([`crate::chunked::fold_accum_shards`], the "reducer") so the
//! result is bit-identical for any worker count and block size.
//!
//! Memory note: a partial holds `k·d` floats. To keep `shards × k·d` bounded
//! on big runs (the paper's k = 1000, d = 42), accumulation uses at most
//! [`MAX_SUM_SHARDS`] shards regardless of the executor's shard size —
//! a fixed number, so determinism across worker counts is preserved.

use crate::distance::nearest;
use crate::kernel::KernelStats;
use kmeans_data::PointMatrix;
use kmeans_par::Executor;

/// Upper bound on the number of accumulation shards (fixed, so results do
/// not depend on the worker count; comfortably more than any realistic
/// core count on one machine).
pub const MAX_SUM_SHARDS: usize = 64;

/// Per-cluster accumulation produced by one assignment pass.
#[derive(Clone, Debug)]
pub struct ClusterSums {
    /// `k × d` per-cluster coordinate sums (row-major).
    pub sums: Vec<f64>,
    /// Points per cluster.
    pub counts: Vec<u64>,
    /// Total potential under the given centers.
    pub cost: f64,
    /// Globally farthest point from its center in each accumulation shard:
    /// `(point_index, d²)` — used for deterministic empty-cluster reseeding.
    pub farthest: Vec<(usize, f64)>,
    /// Kernel work accounting for the pass (distance evaluations actually
    /// performed and candidates skipped by the norm bound). Deterministic
    /// across thread counts, block sizes, and worker counts — distributed
    /// workers ship their counters in the partials frames and the
    /// coordinator sums them, so the fold equals the single-node value.
    pub stats: KernelStats,
}

impl ClusterSums {
    /// Number of clusters.
    pub fn k(&self) -> usize {
        self.counts.len()
    }

    /// The centroid of cluster `c`, or `None` if the cluster is empty.
    pub fn centroid(&self, c: usize, dim: usize) -> Option<Vec<f64>> {
        if self.counts[c] == 0 {
            return None;
        }
        let inv = 1.0 / self.counts[c] as f64;
        Some(
            self.sums[c * dim..(c + 1) * dim]
                .iter()
                .map(|&s| s * inv)
                .collect(),
        )
    }
}

/// Accumulation shard size of the assignment pass
/// ([`crate::chunked::assign_partials`]) over `n` rows. Public because
/// the distributed coordinator plans its workers' row ranges to start on
/// these boundaries.
pub fn sum_shard_size(exec: &Executor, n: usize) -> usize {
    sum_shard_size_for(exec.shard_spec().shard_size(), n)
}

/// [`sum_shard_size`] from a bare base shard size — for callers (the
/// distributed coordinator) that know the executor's shard size but not
/// the executor itself.
///
/// The result is always a **multiple of the base shard size** (and at
/// least one base shard, at most [`MAX_SUM_SHARDS`] shards over `n`):
/// the accumulation grid nests on the executor grid, so a distributed
/// worker boundary aligned to this one value is automatically aligned to
/// both grids — and the value stays O(n/64 + base), always reachable by
/// `skm shard --align`.
pub fn sum_shard_size_for(base_shard_size: usize, n: usize) -> usize {
    let base = base_shard_size.max(1);
    n.div_ceil(MAX_SUM_SHARDS).div_ceil(base).max(1) * base
}

/// Weighted assignment over a (small) weighted point set — sequential.
///
/// Returns labels and weighted cluster sums (counts become weight totals).
pub fn assign_weighted(
    points: &PointMatrix,
    weights: &[f64],
    centers: &PointMatrix,
) -> (Vec<u32>, Vec<f64>, Vec<f64>, f64) {
    assert_eq!(points.len(), weights.len(), "assign_weighted: lengths");
    assert!(!centers.is_empty(), "assign_weighted: no centers");
    let k = centers.len();
    let d = points.dim();
    let mut labels = Vec::with_capacity(points.len());
    let mut sums = vec![0.0f64; k * d];
    let mut wsum = vec![0.0f64; k];
    let mut cost = 0.0;
    for (i, row) in points.rows().enumerate() {
        let (c, d2) = nearest(row, centers);
        labels.push(c as u32);
        let w = weights[i];
        wsum[c] += w;
        cost += w * d2;
        let dst = &mut sums[c * d..(c + 1) * d];
        for (acc, &v) in dst.iter_mut().zip(row) {
            *acc += w * v;
        }
    }
    (labels, sums, wsum, cost)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::chunked::{assign_partials, fold_accum_shards};
    use kmeans_par::Parallelism;

    /// One assignment pass over resident rows, folded.
    fn assign_and_fold(
        points: &PointMatrix,
        centers: &PointMatrix,
        exec: &Executor,
    ) -> (Vec<u32>, ClusterSums) {
        let n = points.len();
        let (labels, partials, stats) =
            assign_partials(points.into(), centers, exec, 0, n, None).unwrap();
        let mut sums = fold_accum_shards(centers.len(), points.dim(), &partials);
        sums.stats = stats;
        (labels, sums)
    }

    fn two_blob_points() -> PointMatrix {
        let mut m = PointMatrix::new(2);
        for i in 0..10 {
            m.push(&[i as f64 * 0.1, 0.0]).unwrap();
        }
        for i in 0..10 {
            m.push(&[100.0 + i as f64 * 0.1, 0.0]).unwrap();
        }
        m
    }

    #[test]
    fn labels_and_counts_are_correct() {
        let points = two_blob_points();
        let centers = PointMatrix::from_flat(vec![0.0, 0.0, 100.0, 0.0], 2).unwrap();
        let (labels, sums) = assign_and_fold(&points, &centers, &Executor::sequential());
        assert_eq!(labels.len(), 20);
        assert!(labels[..10].iter().all(|&l| l == 0));
        assert!(labels[10..].iter().all(|&l| l == 1));
        assert_eq!(sums.counts, vec![10, 10]);
        assert_eq!(sums.k(), 2);
        // Centroid of the first blob: x = mean(0.0..0.9) = 0.45.
        let c0 = sums.centroid(0, 2).unwrap();
        assert!((c0[0] - 0.45).abs() < 1e-12);
        assert_eq!(c0[1], 0.0);
    }

    #[test]
    fn empty_cluster_centroid_is_none() {
        let points = two_blob_points();
        // Third center attracts nothing.
        let centers = PointMatrix::from_flat(vec![0.0, 0.0, 100.0, 0.0, 1e9, 1e9], 2).unwrap();
        let (_, sums) = assign_and_fold(&points, &centers, &Executor::sequential());
        assert_eq!(sums.counts[2], 0);
        assert!(sums.centroid(2, 2).is_none());
    }

    #[test]
    fn cost_matches_potential() {
        use crate::cost::potential;
        let points = two_blob_points();
        let centers = PointMatrix::from_flat(vec![0.45, 0.0, 100.45, 0.0], 2).unwrap();
        let exec = Executor::sequential();
        let (_, sums) = assign_and_fold(&points, &centers, &exec);
        let phi = potential(&points, &centers, &exec);
        assert!((sums.cost - phi).abs() < 1e-9);
    }

    #[test]
    fn identical_across_thread_counts() {
        let points = two_blob_points();
        let centers = PointMatrix::from_flat(vec![1.0, 0.0, 99.0, 0.0], 2).unwrap();
        let run = |exec: Executor| assign_and_fold(&points, &centers, &exec.with_shard_size(4));
        let (ref_labels, ref_sums) = run(Executor::sequential());
        for threads in [2, 3] {
            let (labels, sums) = run(Executor::new(Parallelism::Threads(threads)));
            assert_eq!(labels, ref_labels);
            assert_eq!(sums.counts, ref_sums.counts);
            assert_eq!(sums.cost.to_bits(), ref_sums.cost.to_bits());
            let a: Vec<u64> = sums.sums.iter().map(|f| f.to_bits()).collect();
            let b: Vec<u64> = ref_sums.sums.iter().map(|f| f.to_bits()).collect();
            assert_eq!(a, b);
        }
    }

    #[test]
    fn farthest_identifies_the_outlier() {
        let mut points = two_blob_points();
        points.push(&[500.0, 0.0]).unwrap();
        let centers = PointMatrix::from_flat(vec![0.0, 0.0, 100.0, 0.0], 2).unwrap();
        let (_, sums) = assign_and_fold(&points, &centers, &Executor::sequential());
        let best = sums
            .farthest
            .iter()
            .max_by(|a, b| a.1.partial_cmp(&b.1).unwrap())
            .unwrap();
        assert_eq!(best.0, 20, "outlier index");
        assert!((best.1 - 400.0 * 400.0).abs() < 1e-9);
    }

    #[test]
    fn weighted_assignment_weights_cost_and_sums() {
        let points = PointMatrix::from_flat(vec![0.0, 4.0, 10.0], 1).unwrap();
        let centers = PointMatrix::from_flat(vec![0.0, 10.0], 1).unwrap();
        let (labels, sums, wsum, cost) = assign_weighted(&points, &[1.0, 2.0, 3.0], &centers);
        assert_eq!(labels, vec![0, 0, 1]);
        assert_eq!(wsum, vec![3.0, 3.0]);
        // cost = 1·0 + 2·16 + 3·0 = 32.
        assert!((cost - 32.0).abs() < 1e-12);
        // Weighted sum of cluster 0: 1·0 + 2·4 = 8.
        assert!((sums[0] - 8.0).abs() < 1e-12);
        assert!((sums[1] - 30.0).abs() < 1e-12);
    }

    #[test]
    fn sum_shards_are_bounded() {
        // With a tiny executor shard size and many points, the accumulation
        // pass must still produce at most MAX_SUM_SHARDS partials.
        let n = 10_000;
        let points = PointMatrix::from_flat((0..n).map(|i| i as f64).collect(), 1).unwrap();
        let centers = PointMatrix::from_flat(vec![0.0], 1).unwrap();
        let exec = Executor::sequential().with_shard_size(16);
        let (_, sums) = assign_and_fold(&points, &centers, &exec);
        assert!(sums.farthest.len() <= MAX_SUM_SHARDS);
        assert_eq!(sums.counts[0], n as u64);
    }
}
