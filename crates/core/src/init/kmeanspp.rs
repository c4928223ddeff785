//! k-means++ seeding (Algorithm 1 of the paper; Arthur & Vassilvitskii,
//! SODA 2007), plain and weighted.
//!
//! The plain form is the paper's "true baseline": it gives an
//! `O(log k)`-approximation in expectation but needs `k` sequential passes
//! because each draw conditions on all previous centers. The weighted form
//! is Step 8 of Algorithm 2 — the paper reclusters the `O(ℓ·r)` weighted
//! candidates with exactly this procedure ("we use k-means++ for
//! reclustering in Step 8 of k-means||", §4.2) — and is also the final
//! stage of the `Partition` baseline.

use crate::chunked::LocalData;
use crate::cost::CostTracker;
use crate::error::KMeansError;
use kmeans_data::PointMatrix;
use kmeans_par::Executor;
use kmeans_util::sampling::weighted_pick;
use kmeans_util::Rng;

/// Algorithm 1: D²-weighted sequential seeding over resident rows or a
/// chunked source — the same draws, bit for bit, for any block size.
///
/// The first center is uniform; each subsequent center is drawn with
/// probability `d²(x, C) / φ_X(C)`. The `d²` array is maintained
/// incrementally (one `O(n·d)` update pass per center — the run is
/// `O(n·k·d)` total, matching the paper's complexity discussion, and the
/// paper's reason to replace this algorithm with k-means||), with the
/// distance passes executed on the shard executor. Every draw reads only
/// the resident `d²` array; each accepted center costs one row gather
/// plus one update pass. The first pass checks finiteness (with `k = 1`,
/// a pass of its own).
///
/// If the dataset has fewer than `k` *distinct* points, the remaining
/// centers are drawn uniformly from the not-yet-chosen indices (duplicate
/// center values; Lloyd's empty-cluster repair resolves them downstream).
pub fn kmeanspp<'a>(
    data: impl Into<LocalData<'a>>,
    k: usize,
    rng: &mut Rng,
    exec: &Executor,
) -> Result<PointMatrix, KMeansError> {
    let data = data.into();
    data.validate(k)?;
    let n = data.len();
    let first = rng.range_usize(n);
    let mut chosen: Vec<usize> = Vec::with_capacity(k);
    chosen.push(first);
    let mut buf = data.block_buffer();
    let mut centers = data.gather_rows(&chosen, &mut buf)?;
    if k == 1 {
        data.check_finite()?;
        return Ok(centers);
    }
    let mut tracker = CostTracker::new(data, &centers, exec)?;
    while centers.len() < k {
        let next = match weighted_pick(tracker.d2(), tracker.potential(), rng) {
            Some(idx) => idx,
            // Degenerate: every remaining point coincides with a chosen
            // center. Fall back to uniform among unchosen indices.
            None => match uniform_unchosen(n, &chosen, rng) {
                Some(idx) => idx,
                None => break, // k > number of points: impossible post-validate
            },
        };
        chosen.push(next);
        let from = centers.len();
        let row = data.gather_rows(&[next], &mut buf)?;
        centers.extend_from(&row).expect("center dim matches");
        tracker.update(data, &centers, from, exec)?;
    }
    Ok(centers)
}

/// Weighted k-means++: draws the first center with probability `∝ w_x` and
/// each subsequent one with probability `∝ w_x · d²(x, C)`.
///
/// Sequential by design — in this workspace it only ever runs on candidate
/// sets (size `O(ℓ·r)`), never on the full data, mirroring the paper's
/// observation that "since the number of centers is small they can all be
/// assigned to a single machine" (§3.3).
///
/// Zero-weight points are never selected (unless *all* weights are zero,
/// in which case selection degenerates to uniform).
pub fn weighted_kmeanspp(
    points: &PointMatrix,
    weights: &[f64],
    k: usize,
    rng: &mut Rng,
) -> Result<PointMatrix, KMeansError> {
    super::validate(points, k)?;
    crate::pipeline::validate_weights(points, Some(weights))?;
    let n = points.len();
    let total_w: f64 = weights.iter().sum();
    let first = match weighted_pick(weights, total_w, rng) {
        Some(idx) => idx,
        None => rng.range_usize(n), // all-zero weights: uniform
    };
    let mut chosen = vec![first];
    let mut centers = points.select(&chosen);
    if k == 1 {
        return Ok(centers);
    }
    // Sequential d² maintenance (candidate sets are small).
    let mut d2: Vec<f64> = points
        .rows()
        .map(|row| crate::distance::sq_dist(row, centers.row(0)))
        .collect();
    let mut scores: Vec<f64> = d2.iter().zip(weights).map(|(d, w)| d * w).collect();
    while centers.len() < k {
        let total: f64 = scores.iter().sum();
        let next = match weighted_pick(&scores, total, rng) {
            Some(idx) => idx,
            None => match uniform_unchosen(n, &chosen, rng) {
                Some(idx) => idx,
                None => break,
            },
        };
        chosen.push(next);
        centers
            .push(points.row(next))
            .expect("center dim matches points dim");
        let new_center = points.row(next).to_vec();
        for (i, row) in points.rows().enumerate() {
            let d = crate::distance::sq_dist_bounded(row, &new_center, d2[i]);
            if d < d2[i] {
                d2[i] = d;
                scores[i] = d * weights[i];
            }
        }
    }
    Ok(centers)
}

/// Uniform draw among indices not in `chosen` (linear scan; only reached in
/// degenerate duplicate-heavy inputs). Returns `None` if all indices are
/// already chosen.
fn uniform_unchosen(n: usize, chosen: &[usize], rng: &mut Rng) -> Option<usize> {
    let remaining = n - chosen.len();
    if remaining == 0 {
        return None;
    }
    let mut target = rng.range_usize(remaining);
    let mut taken: Vec<usize> = chosen.to_vec();
    taken.sort_unstable();
    for i in 0..n {
        if taken.binary_search(&i).is_ok() {
            continue;
        }
        if target == 0 {
            return Some(i);
        }
        target -= 1;
    }
    None
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cost::potential;

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
    fn covers_well_separated_blobs() {
        let points = blobs(40, &[0.0, 1e4, 2e4, 3e4]);
        let exec = Executor::sequential();
        // With D² seeding, all 4 blobs must be hit in nearly every run.
        let mut hits = 0;
        for seed in 0..20 {
            let centers = kmeanspp(&points, 4, &mut Rng::new(seed), &exec).unwrap();
            let phi = potential(&points, &centers, &exec);
            if phi < 1.0 {
                hits += 1;
            }
        }
        assert!(hits >= 19, "blob coverage failed in {}/20 runs", 20 - hits);
    }

    #[test]
    fn k_equals_one_is_a_uniform_draw() {
        let points = blobs(10, &[0.0, 100.0]);
        let exec = Executor::sequential();
        let centers = kmeanspp(&points, 1, &mut Rng::new(1), &exec).unwrap();
        assert_eq!(centers.len(), 1);
    }

    #[test]
    fn k_equals_n_selects_everything() {
        let points = blobs(3, &[0.0, 10.0]); // 6 distinct points
        let exec = Executor::sequential();
        let centers = kmeanspp(&points, 6, &mut Rng::new(2), &exec).unwrap();
        assert_eq!(centers.len(), 6);
        let phi = potential(&points, &centers, &exec);
        assert_eq!(phi, 0.0);
    }

    #[test]
    fn duplicate_points_fall_back_to_uniform() {
        // 5 copies of the same point; k = 3 must still return 3 centers.
        let points = PointMatrix::from_flat(vec![7.0; 5], 1).unwrap();
        let exec = Executor::sequential();
        let centers = kmeanspp(&points, 3, &mut Rng::new(3), &exec).unwrap();
        assert_eq!(centers.len(), 3);
        for c in centers.rows() {
            assert_eq!(c[0], 7.0);
        }
    }

    #[test]
    fn deterministic_per_seed() {
        let points = blobs(30, &[0.0, 50.0, 100.0]);
        let exec = Executor::sequential();
        let a = kmeanspp(&points, 3, &mut Rng::new(11), &exec).unwrap();
        let b = kmeanspp(&points, 3, &mut Rng::new(11), &exec).unwrap();
        assert_eq!(a, b);
    }

    #[test]
    fn weighted_first_draw_respects_weights() {
        // Two points; weight 0 must never be the (only) center.
        let points = PointMatrix::from_flat(vec![0.0, 1.0], 1).unwrap();
        for seed in 0..20 {
            let c = weighted_kmeanspp(&points, &[0.0, 5.0], 1, &mut Rng::new(seed)).unwrap();
            assert_eq!(c.row(0)[0], 1.0, "zero-weight point selected");
        }
    }

    #[test]
    fn weighted_recluster_recovers_heavy_candidates() {
        // Candidate-set shape: many low-weight noise points plus 3 heavy
        // ones; the heavy ones should be chosen as centers nearly always.
        let mut m = PointMatrix::new(1);
        let mut w = Vec::new();
        for heavy in [0.0, 1000.0, 2000.0] {
            m.push(&[heavy]).unwrap();
            w.push(500.0);
        }
        for i in 0..30 {
            m.push(&[i as f64 * 66.0 + 13.0]).unwrap();
            w.push(0.01);
        }
        let mut recovered = 0;
        for seed in 0..20 {
            let centers = weighted_kmeanspp(&m, &w, 3, &mut Rng::new(seed)).unwrap();
            let mut got: Vec<f64> = centers.rows().map(|r| r[0]).collect();
            got.sort_by(|a, b| a.partial_cmp(b).unwrap());
            // Each heavy point must have a center within 70 units.
            if [0.0, 1000.0, 2000.0]
                .iter()
                .all(|h| got.iter().any(|g| (g - h).abs() < 70.0))
            {
                recovered += 1;
            }
        }
        assert!(recovered >= 18, "heavy candidates recovered {recovered}/20");
    }

    #[test]
    fn weighted_rejects_bad_weights() {
        let points = PointMatrix::from_flat(vec![0.0, 1.0], 1).unwrap();
        assert!(weighted_kmeanspp(&points, &[1.0], 1, &mut Rng::new(0)).is_err());
        assert!(weighted_kmeanspp(&points, &[-1.0, 1.0], 1, &mut Rng::new(0)).is_err());
        assert!(weighted_kmeanspp(&points, &[f64::NAN, 1.0], 1, &mut Rng::new(0)).is_err());
    }

    #[test]
    fn all_zero_weights_degenerate_to_uniform() {
        let points = PointMatrix::from_flat(vec![0.0, 1.0, 2.0], 1).unwrap();
        let centers = weighted_kmeanspp(&points, &[0.0; 3], 2, &mut Rng::new(4)).unwrap();
        assert_eq!(centers.len(), 2);
    }

    #[test]
    fn uniform_unchosen_skips_taken() {
        let mut rng = Rng::new(5);
        for _ in 0..50 {
            let got = uniform_unchosen(5, &[0, 2, 4], &mut rng).unwrap();
            assert!(got == 1 || got == 3);
        }
        assert_eq!(uniform_unchosen(2, &[0, 1], &mut rng), None);
    }
}
