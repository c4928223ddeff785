//! AFK-MC² seeding (Bachem, Lucic, Hassani & Krause, NIPS 2016) —
//! an extension situating k-means|| in the later literature.
//!
//! k-means|| attacks k-means++'s `k` passes by *parallelizing* them; AFK-
//! MC² attacks them by *approximating* the D² distribution with a Markov
//! chain. After one preprocessing pass (building the proposal distribution
//! `q(x) = ½·d²(x, c₁)/φ + ½·1/n` around a uniformly chosen first center),
//! each subsequent center is drawn by running an `m`-step
//! Metropolis-Hastings chain whose stationary distribution is exactly the
//! k-means++ distribution — no further passes over the data.
//!
//! With chain length `m = O(log n)` the seeding quality provably
//! approaches k-means++'s. The integration tests compare all three
//! regimes: Random (no passes, poor quality), AFK-MC² (one pass, near-
//! k-means++ quality), k-means++ (k passes), k-means|| (r passes, parallel).

use crate::cost::CostTracker;
use crate::distance::{nearest, sq_dist_bounded};
use crate::error::KMeansError;
use kmeans_data::PointMatrix;
use kmeans_par::Executor;
use kmeans_util::sampling::AliasSampler;
use kmeans_util::Rng;

/// Runs AFK-MC² seeding with the given Markov-chain length.
///
/// `chain_length = 1` degenerates to sampling from the proposal (roughly
/// one D² step); the authors recommend `m` in the low hundreds. The run
/// costs one full pass (the proposal) plus `O(k²·m·d)` work — independent
/// of `n` beyond the first pass.
///
/// # Errors
///
/// Same input contract as the other initializers, plus `chain_length ≥ 1`.
pub fn afk_mc2(
    points: &PointMatrix,
    k: usize,
    chain_length: usize,
    rng: &mut Rng,
    exec: &Executor,
) -> Result<PointMatrix, KMeansError> {
    super::validate(points, k)?;
    if chain_length == 0 {
        return Err(KMeansError::InvalidConfig(
            "chain_length must be at least 1".into(),
        ));
    }
    let n = points.len();

    // First center: uniform.
    let first = rng.range_usize(n);
    let mut centers = points.select(&[first]);
    if k == 1 {
        return Ok(centers);
    }

    // One pass: d²(x, c₁) for the proposal distribution
    // q(x) = ½·d²/φ + ½/n  (the regularization makes the chain mix from
    // any start, even for adversarial data).
    let tracker = CostTracker::new(points, &centers, exec)?;
    let phi = tracker.potential();
    let q: Vec<f64> = if phi > 0.0 {
        tracker
            .d2()
            .iter()
            .map(|&d2| 0.5 * d2 / phi + 0.5 / n as f64)
            .collect()
    } else {
        vec![1.0 / n as f64; n]
    };
    let proposal = AliasSampler::new(&q).expect("proposal has positive mass by construction");

    // d²(x, C) against the *current* centers, evaluated lazily per chain
    // state (the chain touches O(k·m) points, not n).
    let dist_to_centers =
        |idx: usize, centers: &PointMatrix| -> f64 { nearest(points.row(idx), centers).1 };

    while centers.len() < k {
        // Initialize the chain from the proposal.
        let mut x = proposal.sample(rng);
        let mut dx = dist_to_centers(x, &centers);
        for _ in 1..chain_length {
            let y = proposal.sample(rng);
            // Cheap bound: accept immediately if y strictly dominates.
            let dy = {
                let row = points.row(y);
                let mut best = f64::INFINITY;
                for c in centers.rows() {
                    best = best.min(sq_dist_bounded(row, c, best));
                }
                best
            };
            // Metropolis–Hastings acceptance for stationary π(x) ∝ d²(x,C).
            let accept = if dx <= 0.0 {
                true // current state is a duplicate of a center: move anywhere
            } else {
                let ratio = (dy * q[x]) / (dx * q[y]);
                ratio >= 1.0 || rng.next_f64() < ratio
            };
            if accept {
                x = y;
                dx = dy;
            }
        }
        // Degenerate guard: if the chain settled on a covered point
        // (duplicate data), fall back to any uncovered point.
        if dx <= 0.0 {
            if let Some(fallback) = (0..n).find(|&i| dist_to_centers(i, &centers) > 0.0) {
                x = fallback;
            }
        }
        centers.push(points.row(x)).expect("dims match");
    }
    Ok(centers)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cost::potential;
    use crate::init::{kmeanspp, random_init};

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
    fn returns_k_centers() {
        let points = blobs(100, &[0.0, 50.0, 100.0]);
        let exec = Executor::sequential();
        let centers = afk_mc2(&points, 3, 50, &mut Rng::new(1), &exec).unwrap();
        assert_eq!(centers.len(), 3);
        assert_eq!(centers.dim(), 1);
    }

    #[test]
    fn quality_between_random_and_kmeanspp() {
        // Well-separated blobs: median seed cost of AFK-MC² with a decent
        // chain should land near k-means++, far below Random.
        let points = blobs(80, &[0.0, 1e4, 2e4, 3e4, 4e4]);
        let exec = Executor::sequential();
        let med = |f: &dyn Fn(u64) -> PointMatrix| {
            let costs: Vec<f64> = (0..15).map(|s| potential(&points, &f(s), &exec)).collect();
            kmeans_util::stats::median(&costs).unwrap()
        };
        let rand_cost = med(&|s| random_init(&points, 5, &mut Rng::new(s)).unwrap());
        let mc2_cost = med(&|s| afk_mc2(&points, 5, 100, &mut Rng::new(s), &exec).unwrap());
        let pp_cost = med(&|s| kmeanspp(&points, 5, &mut Rng::new(s), &exec).unwrap());
        assert!(
            mc2_cost < rand_cost / 100.0,
            "AFK-MC² {mc2_cost:.3e} not ≪ Random {rand_cost:.3e}"
        );
        assert!(
            mc2_cost < 100.0 * pp_cost.max(1.0),
            "AFK-MC² {mc2_cost:.3e} far from k-means++ {pp_cost:.3e}"
        );
    }

    #[test]
    fn longer_chains_do_not_hurt() {
        let points = blobs(60, &[0.0, 1e3, 2e3, 3e3]);
        let exec = Executor::sequential();
        let med = |m: usize| {
            let costs: Vec<f64> = (0..15)
                .map(|s| {
                    potential(
                        &points,
                        &afk_mc2(&points, 4, m, &mut Rng::new(s), &exec).unwrap(),
                        &exec,
                    )
                })
                .collect();
            kmeans_util::stats::median(&costs).unwrap()
        };
        let short = med(1);
        let long = med(200);
        assert!(
            long <= short * 1.5 + 1.0,
            "m=200 ({long:.3e}) much worse than m=1 ({short:.3e})"
        );
    }

    #[test]
    fn deterministic_per_seed() {
        let points = blobs(50, &[0.0, 10.0]);
        let exec = Executor::sequential();
        let a = afk_mc2(&points, 4, 20, &mut Rng::new(9), &exec).unwrap();
        let b = afk_mc2(&points, 4, 20, &mut Rng::new(9), &exec).unwrap();
        assert_eq!(a, b);
    }

    #[test]
    fn duplicate_heavy_data_does_not_loop() {
        let points = PointMatrix::from_flat(vec![5.0; 30], 1).unwrap();
        let exec = Executor::sequential();
        let centers = afk_mc2(&points, 3, 10, &mut Rng::new(2), &exec).unwrap();
        assert_eq!(centers.len(), 3);
    }

    #[test]
    fn rejects_bad_parameters() {
        let points = blobs(10, &[0.0]);
        let exec = Executor::sequential();
        assert!(afk_mc2(&points, 2, 0, &mut Rng::new(0), &exec).is_err());
        assert!(afk_mc2(&points, 0, 10, &mut Rng::new(0), &exec).is_err());
        assert!(afk_mc2(&points, 11, 10, &mut Rng::new(0), &exec).is_err());
        assert!(afk_mc2(&PointMatrix::new(1), 1, 10, &mut Rng::new(0), &exec).is_err());
    }

    #[test]
    fn k_equals_one_is_uniform() {
        let points = blobs(20, &[0.0, 9.0]);
        let exec = Executor::sequential();
        let centers = afk_mc2(&points, 1, 5, &mut Rng::new(3), &exec).unwrap();
        assert_eq!(centers.len(), 1);
    }
}
