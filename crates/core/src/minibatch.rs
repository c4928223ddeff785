//! Mini-batch k-means (Sculley, WWW 2010 — reference \[31] of the paper).
//!
//! The paper's related-work section cites Sculley's web-scale k-means as a
//! batch-oriented modification of Lloyd's iteration; its conclusion asks
//! whether "such modifications can also be efficiently parallelized". This
//! module provides the algorithm as an extension: each step samples a small
//! uniform batch, assigns it to the current centers, and moves each center
//! toward the batch members assigned to it with a per-center learning rate
//! `1 / (total points seen by that center)`.
//!
//! It pairs naturally with k-means|| seeding: the seeding pays a handful of
//! full passes to place the centers well, after which mini-batch steps
//! refine them touching only `O(batch · iters)` points.

use crate::error::KMeansError;
use crate::kernel::KernelStats;
use kmeans_data::PointMatrix;

/// Configuration for mini-batch refinement.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct MiniBatchConfig {
    /// Points sampled (with replacement) per step.
    pub batch_size: usize,
    /// Number of steps.
    pub iterations: usize,
}

impl Default for MiniBatchConfig {
    fn default() -> Self {
        MiniBatchConfig {
            batch_size: 1_024,
            iterations: 100,
        }
    }
}

/// Runs mini-batch k-means from the given initial centers.
///
/// Returns the refined centers. Deterministic per seed.
///
/// # Errors
///
/// Fails on empty input, mismatched dimensions, or a zero batch/iteration
/// configuration.
pub fn minibatch_kmeans(
    points: &PointMatrix,
    initial_centers: &PointMatrix,
    config: &MiniBatchConfig,
    seed: u64,
) -> Result<PointMatrix, KMeansError> {
    Ok(minibatch_kmeans_traced(points, initial_centers, config, seed)?.0)
}

/// [`minibatch_kmeans`] with kernel work accounting: also returns the
/// batch-assignment [`KernelStats`] accumulated across all steps (the
/// centers are bit-identical to the plain entry point's).
///
/// Thin wrapper over the backend-generic
/// [`drive_minibatch`](crate::driver::drive_minibatch) on an
/// [`LocalBackend`](crate::driver::LocalBackend) over resident rows: the step loop
/// exists once, shared bit-for-bit with the chunked and distributed
/// execution modes. (The executor is irrelevant here — mini-batch work
/// is batch-sized and sequential by design.)
pub fn minibatch_kmeans_traced(
    points: &PointMatrix,
    initial_centers: &PointMatrix,
    config: &MiniBatchConfig,
    seed: u64,
) -> Result<(PointMatrix, KernelStats), KMeansError> {
    let exec = kmeans_par::Executor::sequential();
    let mut backend = crate::driver::LocalBackend::in_memory(points, None, &exec);
    crate::driver::drive_minibatch(&mut backend, initial_centers, config, seed)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cost::potential;
    use kmeans_par::Executor;
    use kmeans_util::Rng;

    fn blobs() -> PointMatrix {
        let mut m = PointMatrix::new(1);
        let mut rng = Rng::new(99);
        for c in [0.0, 100.0, 200.0] {
            for _ in 0..300 {
                m.push(&[c + rng.normal()]).unwrap();
            }
        }
        m
    }

    #[test]
    fn improves_a_poor_initialization() {
        let points = blobs();
        let init = PointMatrix::from_flat(vec![40.0, 50.0, 60.0], 1).unwrap();
        let exec = Executor::sequential();
        let before = potential(&points, &init, &exec);
        let refined = minibatch_kmeans(
            &points,
            &init,
            &MiniBatchConfig {
                batch_size: 128,
                iterations: 200,
            },
            7,
        )
        .unwrap();
        let after = potential(&points, &refined, &exec);
        assert!(
            after < before / 10.0,
            "mini-batch did not improve: {before} → {after}"
        );
    }

    #[test]
    fn approaches_true_centers_on_separated_blobs() {
        let points = blobs();
        let init = PointMatrix::from_flat(vec![10.0, 110.0, 190.0], 1).unwrap();
        let refined = minibatch_kmeans(&points, &init, &MiniBatchConfig::default(), 3).unwrap();
        let mut got: Vec<f64> = refined.rows().map(|r| r[0]).collect();
        got.sort_by(|a, b| a.partial_cmp(b).unwrap());
        for (g, t) in got.iter().zip([0.0, 100.0, 200.0]) {
            assert!((g - t).abs() < 2.0, "center {g} vs true {t}");
        }
    }

    #[test]
    fn deterministic_per_seed() {
        let points = blobs();
        let init = PointMatrix::from_flat(vec![0.0, 100.0, 200.0], 1).unwrap();
        let a = minibatch_kmeans(&points, &init, &MiniBatchConfig::default(), 5).unwrap();
        let b = minibatch_kmeans(&points, &init, &MiniBatchConfig::default(), 5).unwrap();
        assert_eq!(a, b);
        let c = minibatch_kmeans(&points, &init, &MiniBatchConfig::default(), 6).unwrap();
        assert_ne!(a, c);
    }

    #[test]
    fn rejects_invalid_inputs() {
        let points = blobs();
        let init = PointMatrix::from_flat(vec![0.0], 1).unwrap();
        assert!(
            minibatch_kmeans(&PointMatrix::new(1), &init, &MiniBatchConfig::default(), 0).is_err()
        );
        let bad = MiniBatchConfig {
            batch_size: 0,
            iterations: 1,
        };
        assert!(minibatch_kmeans(&points, &init, &bad, 0).is_err());
        let wrong_dim = PointMatrix::from_flat(vec![0.0, 0.0], 2).unwrap();
        assert!(minibatch_kmeans(&points, &wrong_dim, &MiniBatchConfig::default(), 0).is_err());
        assert!(minibatch_kmeans(
            &points,
            &PointMatrix::new(1),
            &MiniBatchConfig::default(),
            0
        )
        .is_err());
    }
}
