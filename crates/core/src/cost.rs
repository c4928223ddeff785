//! The clustering potential `φ_X(C)` and its incremental maintenance.
//!
//! Both seeding algorithms repeatedly need, for every point `x`, the
//! quantity `d²(x, C)` under a center set `C` that only ever *grows*.
//! [`CostTracker`] maintains the `d²` array (and the identity of each
//! point's nearest center) across center additions:
//!
//! * adding `m` new centers costs `O(n · m · d)` — only the new centers are
//!   scanned, with partial-distance pruning against the current `d²`;
//! * the potential `φ_X(C) = Σ d²(x, C)` is re-summed in `O(n)`;
//! * Step 7 of Algorithm 2 (candidate weights = how many points are closest
//!   to each candidate) becomes a free `O(n)` histogram, because the
//!   nearest-center ids were tracked all along — this is the "free Step 7"
//!   design decision in DESIGN.md §4.
//!
//! All passes run on the deterministic shard executor.

use crate::distance::nearest;
use crate::kernel::AssignKernel;
use kmeans_data::PointMatrix;
use kmeans_par::Executor;

/// Computes the k-means potential `φ_X(C) = Σ_x d²(x, C)` in one parallel
/// pass.
///
/// # Panics
///
/// Panics if `centers` is empty or dimensionalities differ.
pub fn potential(points: &PointMatrix, centers: &PointMatrix, exec: &Executor) -> f64 {
    assert!(!centers.is_empty(), "potential: no centers");
    assert_eq!(points.dim(), centers.dim(), "potential: dim mismatch");
    let kernel = AssignKernel::new(centers);
    exec.map_reduce(
        points.len(),
        |_, range| {
            // Kernel pass per shard; the d² values (and the sum order)
            // are bit-identical to the old per-point scalar loop.
            let mut labels = vec![0u32; range.len()];
            let mut d2 = vec![0.0f64; range.len()];
            kernel.assign(points, range, &mut labels, &mut d2);
            d2.iter().sum::<f64>()
        },
        |a, b| a + b,
    )
    .unwrap_or(0.0)
}

/// Weighted potential `Σ_x w_x · d²(x, C)` (sequential; used on candidate
/// sets, which are small).
///
/// # Panics
///
/// Panics if lengths or dimensionalities disagree, or `centers` is empty.
pub fn weighted_potential(points: &PointMatrix, weights: &[f64], centers: &PointMatrix) -> f64 {
    assert_eq!(points.len(), weights.len(), "weighted_potential: lengths");
    assert!(!centers.is_empty(), "weighted_potential: no centers");
    let mut sum = 0.0;
    for (i, row) in points.rows().enumerate() {
        sum += weights[i] * nearest(row, centers).1;
    }
    sum
}

/// Maintains `d²(x, C)` and `argmin_c ‖x−c‖` for a growing center set `C`.
pub struct CostTracker<'a> {
    points: &'a PointMatrix,
    d2: Vec<f64>,
    nearest_id: Vec<u32>,
    total: f64,
}

impl<'a> CostTracker<'a> {
    /// Builds the tracker for an initial (non-empty) center set.
    ///
    /// # Panics
    ///
    /// Panics if `centers` is empty or dimensionalities differ.
    pub fn new(points: &'a PointMatrix, centers: &PointMatrix, exec: &Executor) -> Self {
        assert!(!centers.is_empty(), "CostTracker: no centers");
        assert_eq!(points.dim(), centers.dim(), "CostTracker: dim mismatch");
        let n = points.len();
        let mut d2 = vec![0.0f64; n];
        let mut nearest_id = vec![0u32; n];
        let kernel = AssignKernel::new(centers);
        exec.update_shards2(&mut d2, &mut nearest_id, |_, start, cd, cn| {
            kernel.assign(points, start..start + cd.len(), cn, cd);
        });
        let mut tracker = CostTracker {
            points,
            d2,
            nearest_id,
            total: 0.0,
        };
        tracker.resum(exec);
        tracker
    }

    /// Incorporates centers `centers[from..]` (those at index ≥ `from` are
    /// treated as new; earlier ones are assumed already incorporated).
    ///
    /// Point `i`'s entry changes only if some new center is strictly closer,
    /// in which case `nearest_id[i]` becomes the new center's index.
    pub fn update(&mut self, centers: &PointMatrix, from: usize, exec: &Executor) {
        assert_eq!(
            self.points.dim(),
            centers.dim(),
            "CostTracker::update: dim mismatch"
        );
        if from >= centers.len() {
            return;
        }
        let points = self.points;
        // Scan only the new suffix, pruned by the carried best — same bits
        // as the scalar suffix scan. The nearest ids ride along as the
        // kernel's carried labels: `d2[i]` is always the canonical
        // distance to `nearest_id[i]` (the kernel's carried-state
        // contract), so most points finish from that center's separation
        // list into the suffix.
        let kernel = AssignKernel::suffix(centers, from);
        exec.update_shards2(&mut self.d2, &mut self.nearest_id, |_, start, cd, cn| {
            kernel.update(points, start..start + cd.len(), cn, cd);
        });
        self.resum(exec);
    }

    /// Recomputes the cached potential (shard-ordered sum).
    fn resum(&mut self, exec: &Executor) {
        let d2 = &self.d2;
        self.total = exec
            .map_reduce(
                d2.len(),
                |_, range| range.map(|i| d2[i]).sum::<f64>(),
                |a, b| a + b,
            )
            .unwrap_or(0.0);
    }

    /// The current potential `φ_X(C)`.
    pub fn potential(&self) -> f64 {
        self.total
    }

    /// Per-point squared distances to the nearest center.
    pub fn d2(&self) -> &[f64] {
        &self.d2
    }

    /// Per-point nearest-center indices.
    pub fn nearest_ids(&self) -> &[u32] {
        &self.nearest_id
    }

    /// Number of points covered (distance exactly zero).
    pub fn covered(&self) -> usize {
        self.d2.iter().filter(|&&d| d == 0.0).count()
    }

    /// Step 7 of Algorithm 2: for each of the `m` centers, the number of
    /// points whose nearest center it is. An `O(n)` histogram — no extra
    /// pass over the feature vectors.
    pub fn weights(&self, m: usize) -> Vec<f64> {
        let mut w = vec![0.0f64; m];
        for &id in &self.nearest_id {
            w[id as usize] += 1.0;
        }
        w
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use kmeans_par::Parallelism;

    fn grid_points() -> PointMatrix {
        // 100 points on a line: 0, 1, ..., 99 (1-D).
        PointMatrix::from_flat((0..100).map(|i| i as f64).collect(), 1).unwrap()
    }

    #[test]
    fn potential_matches_manual_sum() {
        let points = grid_points();
        let centers = PointMatrix::from_flat(vec![0.0, 99.0], 1).unwrap();
        let exec = Executor::sequential().with_shard_size(16);
        let phi = potential(&points, &centers, &exec);
        let manual: f64 = (0..100)
            .map(|i| {
                let d0 = i as f64;
                let d1 = 99.0 - i as f64;
                d0.min(d1).powi(2)
            })
            .sum();
        assert!((phi - manual).abs() < 1e-9);
    }

    #[test]
    fn potential_parallel_matches_sequential_bitwise() {
        let points = grid_points();
        let centers = PointMatrix::from_flat(vec![10.0, 60.0], 1).unwrap();
        let seq = potential(
            &points,
            &centers,
            &Executor::sequential().with_shard_size(8),
        );
        for threads in [2, 5] {
            let par = potential(
                &points,
                &centers,
                &Executor::new(Parallelism::Threads(threads)).with_shard_size(8),
            );
            assert_eq!(seq.to_bits(), par.to_bits(), "threads={threads}");
        }
    }

    #[test]
    fn weighted_potential_scales_with_weights() {
        let points = PointMatrix::from_flat(vec![0.0, 2.0], 1).unwrap();
        let centers = PointMatrix::from_flat(vec![0.0], 1).unwrap();
        let w1 = weighted_potential(&points, &[1.0, 1.0], &centers);
        assert!((w1 - 4.0).abs() < 1e-12);
        let w2 = weighted_potential(&points, &[1.0, 10.0], &centers);
        assert!((w2 - 40.0).abs() < 1e-12);
    }

    #[test]
    fn tracker_matches_full_recompute_after_updates() {
        let points = grid_points();
        let exec = Executor::sequential().with_shard_size(32);
        let mut all_centers = PointMatrix::from_flat(vec![0.0], 1).unwrap();
        let mut tracker = CostTracker::new(&points, &all_centers, &exec);
        assert!((tracker.potential() - potential(&points, &all_centers, &exec)).abs() < 1e-9);

        // Add centers in two batches; tracker must agree with recompute.
        for batch in [vec![50.0, 80.0], vec![99.0]] {
            let from = all_centers.len();
            for v in batch {
                all_centers.push(&[v]).unwrap();
            }
            tracker.update(&all_centers, from, &exec);
            let expected = potential(&points, &all_centers, &exec);
            assert!(
                (tracker.potential() - expected).abs() < 1e-9,
                "tracker {} vs recompute {}",
                tracker.potential(),
                expected
            );
        }
        // nearest ids must be globally correct, not just suffix-correct.
        for (i, row) in points.rows().enumerate() {
            let (expect_id, expect_d2) = nearest(row, &all_centers);
            assert_eq!(tracker.nearest_ids()[i], expect_id as u32, "point {i}");
            assert!((tracker.d2()[i] - expect_d2).abs() < 1e-12);
        }
    }

    #[test]
    fn tracker_weights_histogram() {
        let points = PointMatrix::from_flat(vec![0.0, 1.0, 2.0, 10.0, 11.0], 1).unwrap();
        let centers = PointMatrix::from_flat(vec![1.0, 10.5], 1).unwrap();
        let exec = Executor::sequential();
        let tracker = CostTracker::new(&points, &centers, &exec);
        let w = tracker.weights(2);
        assert_eq!(w, vec![3.0, 2.0]);
        assert!((w.iter().sum::<f64>() - points.len() as f64).abs() < 1e-12);
    }

    #[test]
    fn tracker_covered_counts_zero_distance() {
        let points = PointMatrix::from_flat(vec![0.0, 5.0, 5.0, 7.0], 1).unwrap();
        let centers = PointMatrix::from_flat(vec![5.0], 1).unwrap();
        let tracker = CostTracker::new(&points, &centers, &Executor::sequential());
        assert_eq!(tracker.covered(), 2);
    }

    #[test]
    fn update_with_no_new_centers_is_noop() {
        let points = grid_points();
        let centers = PointMatrix::from_flat(vec![3.0], 1).unwrap();
        let exec = Executor::sequential();
        let mut tracker = CostTracker::new(&points, &centers, &exec);
        let before = tracker.potential();
        tracker.update(&centers, 1, &exec);
        tracker.update(&centers, 99, &exec);
        assert_eq!(tracker.potential(), before);
    }

    #[test]
    fn tracker_identical_across_thread_counts() {
        let points = grid_points();
        let mut centers = PointMatrix::from_flat(vec![0.0], 1).unwrap();
        let build = |exec: &Executor| {
            let mut c = PointMatrix::from_flat(vec![0.0], 1).unwrap();
            let mut t = CostTracker::new(&points, &c, exec);
            c.push(&[42.0]).unwrap();
            t.update(&c, 1, exec);
            (t.d2().to_vec(), t.nearest_ids().to_vec(), t.potential())
        };
        centers.push(&[42.0]).unwrap();
        let reference = build(&Executor::sequential().with_shard_size(8));
        for threads in [2, 4] {
            let got = build(&Executor::new(Parallelism::Threads(threads)).with_shard_size(8));
            assert_eq!(got.0, reference.0);
            assert_eq!(got.1, reference.1);
            assert_eq!(got.2.to_bits(), reference.2.to_bits());
        }
    }
}
