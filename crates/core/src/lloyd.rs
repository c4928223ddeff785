//! Lloyd's iteration — the local-search phase run on top of every
//! initialization (§3.1), with the iteration accounting Table 6 reports.
//!
//! Each iteration is one parallel assignment pass
//! ([`crate::chunked::assign_partials`]; bounded after the first,
//! sweeping only the rows that can have changed) followed by a centroid
//! update, and every run closes with one full pass at the final centers.
//! Convergence is declared when no point changes cluster
//! (the paper's "stable set of centers") or when the relative cost
//! improvement drops below `tol` (useful to emulate the paper's capped
//! parallel `Random` baseline, which it bounded at 20 iterations).
//!
//! Empty clusters (possible with duplicate seeds or adversarial data) are
//! repaired deterministically by moving the empty center onto the point
//! currently farthest from its assigned center — the standard
//! "split the worst cluster" heuristic.

use crate::assign::assign_weighted;
use crate::error::KMeansError;
use kmeans_data::PointMatrix;
use kmeans_par::Executor;

/// Configuration of the Lloyd loop.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct LloydConfig {
    /// Hard iteration cap (paper's parallel Random baseline: 20; this
    /// workspace's default: 300, effectively "to convergence" on the
    /// paper's datasets).
    pub max_iterations: usize,
    /// Stop when `(cost_prev − cost) ≤ tol · cost_prev`. `0.0` means run to
    /// assignment stability. The costs compared are the history costs,
    /// tracked on bounded passes ([`IterationStats::cost`]), so a run whose
    /// relative improvement lies within about `1e-15` of `tol` may stop
    /// a pass apart from one that compared measured potentials.
    pub tol: f64,
}

impl Default for LloydConfig {
    fn default() -> Self {
        LloydConfig {
            max_iterations: 300,
            tol: 0.0,
        }
    }
}

impl LloydConfig {
    /// Validates the configuration. Public so distributed frontends
    /// enforce the same contract before the first broadcast.
    pub fn validate(&self) -> Result<(), KMeansError> {
        if self.max_iterations == 0 {
            return Err(KMeansError::InvalidConfig(
                "max_iterations must be at least 1".into(),
            ));
        }
        if !self.tol.is_finite() || self.tol < 0.0 {
            return Err(KMeansError::InvalidConfig(format!(
                "tol must be finite and non-negative, got {}",
                self.tol
            )));
        }
        Ok(())
    }
}

/// Per-iteration record (cost is taken *under the centers entering the
/// iteration*, i.e. before the centroid update).
#[derive(Clone, Copy, Debug)]
pub struct IterationStats {
    /// Potential at assignment time: measured on a full pass (the first,
    /// one after a pass that left a cluster empty, and one that repeats a
    /// pass to reseed an emptied cluster), tracked by the Lloyd identity
    /// on a bounded one
    /// ([`drive_lloyd`](crate::driver::drive_lloyd)) — within about
    /// `1e-15` relative of the measured value, and never rising.
    pub cost: f64,
    /// Points that changed cluster relative to the previous iteration.
    pub reassigned: u64,
    /// Clusters that came up empty and were reseeded.
    pub reseeded: usize,
}

/// Outcome of a Lloyd run.
#[derive(Clone, Debug)]
pub struct LloydResult {
    /// Final centers.
    pub centers: PointMatrix,
    /// Final assignment (consistent with `centers`).
    pub labels: Vec<u32>,
    /// Final potential (consistent with `centers` and `labels`).
    pub cost: f64,
    /// Iterations executed — the Table 6 quantity.
    pub iterations: usize,
    /// Whether the run converged before hitting `max_iterations`.
    pub converged: bool,
    /// Per-iteration history.
    pub history: Vec<IterationStats>,
    /// Assignment passes executed: one per iteration (bounded after the
    /// first), a full repeat of any bounded pass that emptied a cluster,
    /// and the closing labels-and-cost pass every fit ends with —
    /// `iterations + 1` when no cluster empties after the first pass. Distance
    /// evaluations *offered* = `n · k · assign_passes`; of those,
    /// `pruned_by_norm_bound` were skipped without touching coordinates.
    pub assign_passes: usize,
    /// Point–center pairs the assignment kernel skipped via its `O(1)`
    /// lower bounds — the norm bound `(‖x‖−‖c‖)²` and the coordinate
    /// gaps, wholesale sorted-sweep stops included, plus the pairs a
    /// seed's separation list certifies farther, plus `k` for every row a
    /// bounded pass settled on its carried bounds — summed over every
    /// pass (the closing one included).
    /// Deterministic across thread counts, block sizes, *and* worker
    /// counts: distributed workers ship their kernel counters in the
    /// partials frames, so the fold equals the single-node value.
    pub pruned_by_norm_bound: u64,
}

/// Runs Lloyd's iteration from the given initial centers.
///
/// Thin wrapper over the backend-generic
/// [`drive_lloyd`](crate::driver::drive_lloyd) on an
/// [`LocalBackend`](crate::driver::LocalBackend) over resident rows: the
/// assignment/update round loop exists once, shared bit-for-bit with the
/// chunked and distributed execution modes.
///
/// # Errors
///
/// Fails on empty input, dimension mismatch, or invalid configuration.
pub fn lloyd(
    points: &PointMatrix,
    initial_centers: &PointMatrix,
    config: &LloydConfig,
    exec: &Executor,
) -> Result<LloydResult, KMeansError> {
    let mut backend = crate::driver::LocalBackend::in_memory(points, None, exec);
    crate::driver::drive_lloyd(&mut backend, initial_centers, config)
}

/// Weighted Lloyd iterations on a (small) weighted point set — used to
/// refine the Step 8 reclustering of k-means|| and by the streaming
/// baselines. Sequential; stops early on assignment stability. Empty
/// clusters keep their previous center.
pub fn weighted_lloyd(
    points: &PointMatrix,
    weights: &[f64],
    centers: PointMatrix,
    iterations: usize,
) -> PointMatrix {
    weighted_lloyd_traced(points, weights, centers, iterations, 0.0).centers
}

/// Accounting returned by [`weighted_lloyd_traced`].
#[derive(Clone, Debug)]
pub struct WeightedLloydTrace {
    /// Refined centers.
    pub centers: PointMatrix,
    /// Centroid updates applied.
    pub iterations: usize,
    /// Whether assignment stability (or the `tol` criterion) was reached
    /// within the iteration budget.
    pub converged: bool,
    /// Full weighted assignment passes executed (the stability-detecting
    /// pass included). Distance evaluations = `n · k · assign_passes`.
    pub assign_passes: usize,
    /// `(labels, cost)` consistent with `centers`, available when the
    /// loop ended on a stable assignment (no centroid update after the
    /// last pass) — callers then need no closing relabel pass.
    pub stable: Option<(Vec<u32>, f64)>,
}

/// [`weighted_lloyd`] with a stopping tolerance and accounting.
/// `tol = 0` stops on assignment stability only and reproduces
/// [`weighted_lloyd`]'s center trajectory bit-for-bit (the plain
/// function is a thin wrapper); `tol > 0` additionally stops once the
/// relative weighted-cost improvement drops below `tol`.
pub fn weighted_lloyd_traced(
    points: &PointMatrix,
    weights: &[f64],
    mut centers: PointMatrix,
    iterations: usize,
    tol: f64,
) -> WeightedLloydTrace {
    let d = points.dim();
    let mut prev_labels: Option<Vec<u32>> = None;
    let mut prev_cost = f64::INFINITY;
    let mut updates = 0usize;
    let mut passes = 0usize;
    let mut converged = false;
    let mut stable = None;
    for _ in 0..iterations {
        let (labels, sums, wsum, cost) = assign_weighted(points, weights, &centers);
        passes += 1;
        if prev_labels.as_ref() == Some(&labels) {
            converged = true;
            stable = Some((labels, cost));
            break;
        }
        for c in 0..centers.len() {
            if wsum[c] > 0.0 {
                let inv = 1.0 / wsum[c];
                let dst = centers.row_mut(c);
                for (j, slot) in dst.iter_mut().enumerate() {
                    *slot = sums[c * d + j] * inv;
                }
            }
        }
        updates += 1;
        prev_labels = Some(labels);
        if tol > 0.0 && prev_cost.is_finite() && prev_cost - cost <= tol * prev_cost {
            converged = true;
            break;
        }
        prev_cost = cost;
    }
    WeightedLloydTrace {
        centers,
        iterations: updates,
        converged,
        assign_passes: passes,
        stable,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use kmeans_par::Parallelism;

    fn blobs_2d() -> PointMatrix {
        // Two 2-D blobs around (0,0) and (10,10), 16 points each.
        let mut m = PointMatrix::new(2);
        for i in 0..16 {
            let dx = (i % 4) as f64 * 0.1;
            let dy = (i / 4) as f64 * 0.1;
            m.push(&[dx, dy]).unwrap();
        }
        for i in 0..16 {
            let dx = (i % 4) as f64 * 0.1;
            let dy = (i / 4) as f64 * 0.1;
            m.push(&[10.0 + dx, 10.0 + dy]).unwrap();
        }
        m
    }

    #[test]
    fn converges_to_blob_centroids() {
        let points = blobs_2d();
        let init = PointMatrix::from_flat(vec![1.0, 1.0, 9.0, 9.0], 2).unwrap();
        let result = lloyd(
            &points,
            &init,
            &LloydConfig::default(),
            &Executor::sequential(),
        )
        .unwrap();
        assert!(result.converged);
        assert!(result.iterations <= 3);
        // Centroid of each blob is (0.15, 0.15) offset.
        let mut xs: Vec<f64> = result.centers.rows().map(|r| r[0]).collect();
        xs.sort_by(|a, b| a.partial_cmp(b).unwrap());
        assert!((xs[0] - 0.15).abs() < 1e-9);
        assert!((xs[1] - 10.15).abs() < 1e-9);
        // Labels and cost are self-consistent.
        let expected_cost: f64 = {
            let exec = Executor::sequential();
            let mut backend = crate::driver::LocalBackend::in_memory(&points, None, &exec);
            let (_, cost, _) =
                crate::driver::drive_label_pass(&mut backend, &result.centers).unwrap();
            cost
        };
        assert!((result.cost - expected_cost).abs() < 1e-9);
        assert_eq!(result.labels.len(), 32);
    }

    #[test]
    fn cost_is_monotone_nonincreasing() {
        let points = blobs_2d();
        // Bad init: both centers in one blob.
        let init = PointMatrix::from_flat(vec![0.0, 0.0, 0.3, 0.3], 2).unwrap();
        let result = lloyd(
            &points,
            &init,
            &LloydConfig::default(),
            &Executor::sequential(),
        )
        .unwrap();
        for w in result.history.windows(2) {
            assert!(
                w[1].cost <= w[0].cost + 1e-9,
                "cost increased: {} → {}",
                w[0].cost,
                w[1].cost
            );
        }
        assert!(result.converged);
    }

    #[test]
    fn max_iterations_caps_the_run() {
        let points = blobs_2d();
        let init = PointMatrix::from_flat(vec![0.0, 0.0, 0.3, 0.3], 2).unwrap();
        let config = LloydConfig {
            max_iterations: 1,
            tol: 0.0,
        };
        let result = lloyd(&points, &init, &config, &Executor::sequential()).unwrap();
        assert_eq!(result.iterations, 1);
        assert!(!result.converged);
    }

    #[test]
    fn tolerance_stops_early() {
        let points = blobs_2d();
        let init = PointMatrix::from_flat(vec![1.0, 1.0, 9.0, 9.0], 2).unwrap();
        let config = LloydConfig {
            max_iterations: 100,
            tol: 0.5, // huge tolerance: stop after the first update
        };
        let result = lloyd(&points, &init, &config, &Executor::sequential()).unwrap();
        assert!(result.converged);
        assert!(result.iterations <= 2);
    }

    #[test]
    fn tol_stop_reports_cost_of_the_returned_centers() {
        // Regression: a tol-based stop applies the centroid update before
        // breaking, so the reported (labels, cost) must be recomputed
        // against the *final* centers — not the pre-update assignment.
        let points = blobs_2d();
        let init = PointMatrix::from_flat(vec![0.0, 0.0, 0.3, 0.3], 2).unwrap();
        let config = LloydConfig {
            max_iterations: 100,
            tol: 1.0, // always triggers after the first update
        };
        let exec = Executor::sequential();
        let result = lloyd(&points, &init, &config, &exec).unwrap();
        assert!(result.converged);
        let mut backend = crate::driver::LocalBackend::in_memory(&points, None, &exec);
        let (expected_labels, cost, _) =
            crate::driver::drive_label_pass(&mut backend, &result.centers).unwrap();
        assert_eq!(result.labels, expected_labels);
        assert!(
            (result.cost - cost).abs() <= 1e-12 * (1.0 + cost),
            "reported {} vs recomputed {}",
            result.cost,
            cost
        );
        // Pass accounting includes the closing relabel.
        assert_eq!(result.assign_passes, result.iterations + 1);
    }

    #[test]
    fn every_fit_closes_with_one_full_pass() {
        // A stable exit closes with one full pass too: the stable pass is
        // bounded, so it has no measured cost for the final centers.
        let points = blobs_2d();
        let init = PointMatrix::from_flat(vec![1.0, 1.0, 9.0, 9.0], 2).unwrap();
        let result = lloyd(
            &points,
            &init,
            &LloydConfig::default(),
            &Executor::sequential(),
        )
        .unwrap();
        assert!(result.converged);
        assert_eq!(result.assign_passes, result.iterations + 1);
    }

    #[test]
    fn a_pass_after_an_empty_cluster_is_full() {
        // One accumulation shard gives one farthest point per pass, so of
        // seven far centers one is reseeded per pass and the rest stay
        // empty. A bounded pass there would empty them again and need a
        // full repeat; a full pass needs none, so the fit makes one pass
        // per iteration and its closing pass.
        let mut points = PointMatrix::new(2);
        for i in 0..60 {
            points
                .push(&[(i % 10) as f64, (i / 10) as f64 * 0.5])
                .unwrap();
        }
        let mut init = PointMatrix::new(2);
        init.push(&[4.0, 1.0]).unwrap();
        for c in 0..7 {
            init.push(&[1000.0 + c as f64, 1000.0]).unwrap();
        }
        let result = lloyd(
            &points,
            &init,
            &LloydConfig::default(),
            &Executor::sequential(),
        )
        .unwrap();
        let reseeds: Vec<usize> = result.history.iter().map(|h| h.reseeded).collect();
        assert!(reseeds[..4].iter().all(|&r| r == 1), "{reseeds:?}");
        assert_eq!(result.assign_passes, result.iterations + 1);
    }

    #[test]
    fn weighted_traced_honors_tol_and_counts_passes() {
        // Two far blobs, bad init: with tol = 1.0 the loop stops after one
        // update; with tol = 0 it runs to stability.
        let points = PointMatrix::from_flat(vec![0.0, 1.0, 10.0, 11.0], 1).unwrap();
        let w = [1.0, 1.0, 1.0, 1.0];
        let init = PointMatrix::from_flat(vec![0.0, 2.0], 1).unwrap();
        let eager = weighted_lloyd_traced(&points, &w, init.clone(), 50, 1.0);
        assert!(eager.converged);
        assert!(eager.iterations <= 2);
        let full = weighted_lloyd_traced(&points, &w, init.clone(), 50, 0.0);
        assert!(full.converged);
        // Stability costs one extra detecting pass beyond the updates.
        assert_eq!(full.assign_passes, full.iterations + 1);
        // And tol = 0 matches the plain wrapper bit-for-bit.
        assert_eq!(full.centers, weighted_lloyd(&points, &w, init, 50));
    }

    #[test]
    fn empty_cluster_is_reseeded_to_far_point() {
        let points = blobs_2d();
        // Three centers, two glued together far from everything: at least
        // one will be empty initially.
        let init =
            PointMatrix::from_flat(vec![0.0, 0.0, -500.0, -500.0, -500.0, -500.0], 2).unwrap();
        let result = lloyd(
            &points,
            &init,
            &LloydConfig::default(),
            &Executor::sequential(),
        )
        .unwrap();
        assert!(result.history[0].reseeded >= 1, "no reseed recorded");
        assert!(result.converged);
        // After repair every cluster should be non-empty.
        let mut counts = [0u32; 3];
        for &l in &result.labels {
            counts[l as usize] += 1;
        }
        assert!(counts.iter().all(|&c| c > 0), "counts {counts:?}");
    }

    #[test]
    fn identical_across_thread_counts() {
        let points = blobs_2d();
        let init = PointMatrix::from_flat(vec![0.0, 0.0, 0.3, 0.3], 2).unwrap();
        let run = |par: Parallelism| {
            lloyd(
                &points,
                &init,
                &LloydConfig::default(),
                &Executor::new(par).with_shard_size(8),
            )
            .unwrap()
        };
        let reference = run(Parallelism::Sequential);
        for t in [2, 4] {
            let got = run(Parallelism::Threads(t));
            assert_eq!(got.labels, reference.labels);
            assert_eq!(got.iterations, reference.iterations);
            assert_eq!(got.cost.to_bits(), reference.cost.to_bits());
            assert_eq!(got.centers, reference.centers);
        }
    }

    #[test]
    fn invalid_inputs_rejected() {
        let points = blobs_2d();
        let init = PointMatrix::from_flat(vec![0.0, 0.0], 2).unwrap();
        let exec = Executor::sequential();
        assert!(matches!(
            lloyd(&PointMatrix::new(2), &init, &LloydConfig::default(), &exec),
            Err(KMeansError::EmptyInput)
        ));
        let bad_dim = PointMatrix::from_flat(vec![0.0], 1).unwrap();
        assert!(matches!(
            lloyd(&points, &bad_dim, &LloydConfig::default(), &exec),
            Err(KMeansError::DimensionMismatch { .. })
        ));
        let bad_config = LloydConfig {
            max_iterations: 0,
            tol: 0.0,
        };
        assert!(lloyd(&points, &init, &bad_config, &exec).is_err());
        let bad_tol = LloydConfig {
            max_iterations: 1,
            tol: -1.0,
        };
        assert!(lloyd(&points, &init, &bad_tol, &exec).is_err());
    }

    #[test]
    fn weighted_lloyd_moves_to_weighted_centroid() {
        let points = PointMatrix::from_flat(vec![0.0, 10.0], 1).unwrap();
        let centers = PointMatrix::from_flat(vec![4.0], 1).unwrap();
        let out = weighted_lloyd(&points, &[1.0, 3.0], centers, 10);
        // Weighted centroid: (0·1 + 10·3) / 4 = 7.5.
        assert!((out.row(0)[0] - 7.5).abs() < 1e-12);
    }

    #[test]
    fn weighted_lloyd_zero_iterations_is_identity() {
        let points = PointMatrix::from_flat(vec![0.0, 10.0], 1).unwrap();
        let centers = PointMatrix::from_flat(vec![4.0], 1).unwrap();
        let out = weighted_lloyd(&points, &[1.0, 1.0], centers.clone(), 0);
        assert_eq!(out, centers);
    }

    #[test]
    fn weighted_lloyd_empty_cluster_keeps_center() {
        let points = PointMatrix::from_flat(vec![0.0, 1.0], 1).unwrap();
        let centers = PointMatrix::from_flat(vec![0.5, 100.0], 1).unwrap();
        let out = weighted_lloyd(&points, &[1.0, 1.0], centers, 5);
        assert_eq!(out.row(1)[0], 100.0, "empty cluster center moved");
    }
}
