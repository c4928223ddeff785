//! Hamerly's bounds-accelerated Lloyd iteration (Hamerly, SDM 2010) —
//! an *exact* drop-in for [`lloyd`](crate::lloyd::lloyd) that skips most
//! distance computations.
//!
//! This is an extension beyond the paper (its §7 asks which k-means
//! "modifications can also be efficiently parallelized"): per point it
//! keeps one **upper bound** `ub ≥ d(x, c_a)` on the distance to its
//! assigned center and one **lower bound** `lb ≤ min_{j≠a} d(x, c_j)` on
//! the distance to every other center. If
//! `ub ≤ max(lb, ½·min_{j≠a} d(c_a, c_j))`, the assignment provably cannot
//! change and the point is skipped without touching its coordinates. After
//! each centroid update the bounds are repaired with the center movement:
//! `ub += δ(a)`, `lb −= max_j δ(j)`.
//!
//! The algorithm computes the same assignments as plain Lloyd (it only
//! skips provably redundant work), so the result is identical up to
//! floating-point tie-breaking; `tests` verify label equality against
//! [`lloyd`](crate::lloyd::lloyd). The return value reports how many
//! distance evaluations were actually spent — the criterion bench
//! `lloyd.rs` and the integration tests use it to verify real pruning.

use crate::assign::MAX_SUM_SHARDS;
use crate::distance::sq_dist;
use crate::error::KMeansError;
use crate::lloyd::LloydConfig;
use kmeans_data::PointMatrix;
use kmeans_par::Executor;

/// Per-point state carried across iterations.
#[derive(Clone, Copy, Debug)]
struct PointState {
    /// Current assignment.
    label: u32,
    /// Upper bound on the distance (not squared) to the assigned center.
    ub: f64,
    /// Lower bound on the distance to the second-closest center.
    lb: f64,
}

/// Outcome of a Hamerly-accelerated Lloyd run.
#[derive(Clone, Debug)]
pub struct HamerlyResult {
    /// Final centers.
    pub centers: PointMatrix,
    /// Final assignment (consistent with `centers`).
    pub labels: Vec<u32>,
    /// Final potential, computed exactly with one closing pass.
    pub cost: f64,
    /// Iterations executed.
    pub iterations: usize,
    /// Whether assignment stability was reached before the cap.
    pub converged: bool,
    /// Total point-to-center distance evaluations spent. Plain Lloyd
    /// spends `n·k` per iteration; the ratio of the two is the pruning
    /// factor.
    pub distance_computations: u64,
}

/// Per-shard accumulation for one iteration.
struct Partial {
    sums: Vec<f64>,
    counts: Vec<u64>,
    reassigned: u64,
    dist_comps: u64,
    /// Farthest point by upper bound (reseed candidate).
    farthest: (usize, f64),
}

/// Runs Hamerly-accelerated Lloyd from the given initial centers.
///
/// Accepts the same configuration as [`lloyd`](crate::lloyd::lloyd),
/// except `tol` must be 0: the exact potential is not available
/// per-iteration without forfeiting the speedup, so this algorithm stops
/// on assignment stability only and rejects a tolerance rather than
/// silently ignoring it (a lloyd-vs-hamerly comparison at equal `tol`
/// would otherwise compare different stopping rules).
pub fn hamerly_lloyd(
    points: &PointMatrix,
    initial_centers: &PointMatrix,
    config: &LloydConfig,
    exec: &Executor,
) -> Result<HamerlyResult, KMeansError> {
    crate::lloyd::validate_refine_inputs(points, initial_centers)?;
    config.validate()?;
    if config.tol != 0.0 {
        return Err(KMeansError::InvalidConfig(
            "hamerly_lloyd stops on assignment stability only; tol is not supported \
             (use lloyd for tolerance-based stopping)"
                .into(),
        ));
    }

    let n = points.len();
    let d = points.dim();
    let k = initial_centers.len();
    let mut centers = initial_centers.clone();
    // Bound per-shard partial memory the same way assign_and_sum does.
    let exec = {
        let base = exec.shard_spec().shard_size();
        let bounded = n.div_ceil(MAX_SUM_SHARDS).max(base).max(1);
        exec.clone().with_shard_size(bounded)
    };

    let mut state = vec![
        PointState {
            label: 0,
            ub: f64::INFINITY,
            lb: 0.0,
        };
        n
    ];
    let mut total_dist_comps = 0u64;
    let mut iterations = 0usize;
    let mut converged = false;
    let mut first_iteration = true;

    while iterations < config.max_iterations {
        iterations += 1;
        // Half-distance from each center to its closest other center:
        // a point with ub ≤ s(a) cannot be closer to any other center.
        let s: Vec<f64> = (0..k)
            .map(|j| {
                let mut best = f64::INFINITY;
                for j2 in 0..k {
                    if j2 != j {
                        best = best.min(sq_dist(centers.row(j), centers.row(j2)));
                    }
                }
                0.5 * best.sqrt()
            })
            .collect();
        total_dist_comps += (k * k.saturating_sub(1)) as u64;

        let init_pass = first_iteration;
        first_iteration = false;
        let centers_ref = &centers;
        let s_ref = &s;
        let partials: Vec<Partial> = exec.update_map_shards(&mut state, |_, start, chunk| {
            let mut partial = Partial {
                sums: vec![0.0; k * d],
                counts: vec![0; k],
                reassigned: 0,
                dist_comps: 0,
                farthest: (usize::MAX, f64::NEG_INFINITY),
            };
            for (off, st) in chunk.iter_mut().enumerate() {
                let idx = start + off;
                let row = points.row(idx);
                if init_pass {
                    let (label, d1, d2) = two_nearest(row, centers_ref);
                    partial.dist_comps += k as u64;
                    partial.reassigned += 1;
                    *st = PointState {
                        label: label as u32,
                        ub: d1,
                        lb: d2,
                    };
                } else {
                    let a = st.label as usize;
                    let threshold = s_ref[a].max(st.lb);
                    if st.ub > threshold {
                        // Tighten the upper bound with one exact distance.
                        st.ub = sq_dist(row, centers_ref.row(a)).sqrt();
                        partial.dist_comps += 1;
                        if st.ub > threshold {
                            // Bounds can no longer certify: full scan.
                            let (label, d1, d2) = two_nearest(row, centers_ref);
                            partial.dist_comps += k as u64;
                            if label as u32 != st.label {
                                partial.reassigned += 1;
                            }
                            *st = PointState {
                                label: label as u32,
                                ub: d1,
                                lb: d2,
                            };
                        }
                    }
                }
                let label = st.label as usize;
                partial.counts[label] += 1;
                let dst = &mut partial.sums[label * d..(label + 1) * d];
                for (acc, &v) in dst.iter_mut().zip(row) {
                    *acc += v;
                }
                if st.ub > partial.farthest.1 {
                    partial.farthest = (idx, st.ub);
                }
            }
            partial
        });

        // Deterministic shard-order fold.
        let mut sums = vec![0.0f64; k * d];
        let mut counts = vec![0u64; k];
        let mut reassigned = 0u64;
        let mut farthest: Vec<(usize, f64)> = Vec::new();
        for p in partials {
            for (acc, v) in sums.iter_mut().zip(p.sums) {
                *acc += v;
            }
            for (acc, v) in counts.iter_mut().zip(p.counts) {
                *acc += v;
            }
            reassigned += p.reassigned;
            total_dist_comps += p.dist_comps;
            if p.farthest.0 != usize::MAX {
                farthest.push(p.farthest);
            }
        }

        if reassigned == 0 {
            converged = true;
            break;
        }

        // Centroid update with the same deterministic empty-cluster repair
        // as plain Lloyd (farthest available point; here farthest by ub).
        farthest.sort_by(|a, b| {
            b.1.partial_cmp(&a.1)
                .unwrap_or(std::cmp::Ordering::Equal)
                .then_with(|| a.0.cmp(&b.0))
        });
        let mut next_far = farthest.into_iter();
        let mut delta = vec![0.0f64; k];
        let mut max_delta = 0.0f64;
        for c in 0..k {
            let new_center: Vec<f64> = if counts[c] > 0 {
                let inv = 1.0 / counts[c] as f64;
                sums[c * d..(c + 1) * d].iter().map(|&x| x * inv).collect()
            } else {
                match next_far.next() {
                    Some((idx, _)) => points.row(idx).to_vec(),
                    None => centers.row(c).to_vec(),
                }
            };
            delta[c] = sq_dist(centers.row(c), &new_center).sqrt();
            max_delta = max_delta.max(delta[c]);
            centers.row_mut(c).copy_from_slice(&new_center);
        }
        total_dist_comps += k as u64;

        // Bound repair: the triangle inequality keeps both bounds valid
        // after every center moved by at most its δ.
        exec.update_shards(&mut state, |_, _, chunk| {
            for st in chunk {
                st.ub += delta[st.label as usize];
                st.lb = (st.lb - max_delta).max(0.0);
            }
        });
    }

    // One exact closing pass for the final (labels, cost): bounds certify
    // assignments, but the reported potential must be exact.
    let (labels, sums) = crate::assign::assign_and_sum(points, &centers, &exec, None);
    Ok(HamerlyResult {
        centers,
        labels,
        cost: sums.cost,
        iterations,
        converged,
        distance_computations: total_dist_comps,
    })
}

/// Nearest and second-nearest center distances (not squared).
///
/// Returns `(argmin, d_min, d_second)`; with a single center the second
/// distance is `+∞`. Ties break toward the lower index, matching
/// [`nearest`](crate::distance::nearest).
fn two_nearest(row: &[f64], centers: &PointMatrix) -> (usize, f64, f64) {
    let mut best = 0usize;
    let mut d1 = f64::INFINITY;
    let mut d2 = f64::INFINITY;
    for (j, c) in centers.rows().enumerate() {
        let dist = sq_dist(row, c);
        if dist < d1 {
            d2 = d1;
            d1 = dist;
            best = j;
        } else if dist < d2 {
            d2 = dist;
        }
    }
    (best, d1.sqrt(), d2.sqrt())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::init::InitMethod;
    use crate::lloyd::lloyd;
    use kmeans_data::synth::GaussMixture;
    use kmeans_par::Parallelism;

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

    #[test]
    fn matches_plain_lloyd_labels_and_cost() {
        for seed in 0..4 {
            let points = mixture(8, 1_200, seed);
            let exec = Executor::sequential();
            let init = InitMethod::KMeansPlusPlus
                .run(&points, 8, seed, &exec)
                .unwrap();
            let config = LloydConfig::default();
            let plain = lloyd(&points, &init.centers, &config, &exec).unwrap();
            let fast = hamerly_lloyd(&points, &init.centers, &config, &exec).unwrap();
            assert_eq!(fast.labels, plain.labels, "seed {seed}");
            assert!(
                (fast.cost - plain.cost).abs() <= 1e-6 * (1.0 + plain.cost),
                "seed {seed}: {} vs {}",
                fast.cost,
                plain.cost
            );
            assert!(fast.converged);
        }
    }

    #[test]
    fn actually_prunes_distance_computations() {
        let points = mixture(16, 4_000, 9);
        let exec = Executor::sequential();
        let init = InitMethod::KMeansPlusPlus
            .run(&points, 16, 3, &exec)
            .unwrap();
        let result = hamerly_lloyd(&points, &init.centers, &LloydConfig::default(), &exec).unwrap();
        // Plain Lloyd would spend n·k per iteration.
        let plain_budget = 4_000u64 * 16 * result.iterations as u64;
        assert!(
            result.distance_computations < plain_budget / 2,
            "no pruning: {} vs plain {}",
            result.distance_computations,
            plain_budget
        );
    }

    #[test]
    fn identical_across_thread_counts() {
        let points = mixture(6, 900, 4);
        let init = InitMethod::KMeansPlusPlus
            .run(&points, 6, 1, &Executor::sequential())
            .unwrap();
        let run = |par: Parallelism| {
            let exec = Executor::new(par).with_shard_size(128);
            hamerly_lloyd(&points, &init.centers, &LloydConfig::default(), &exec).unwrap()
        };
        let reference = run(Parallelism::Sequential);
        for t in [2, 4] {
            let got = run(Parallelism::Threads(t));
            assert_eq!(got.labels, reference.labels);
            assert_eq!(got.centers, reference.centers);
            assert_eq!(got.iterations, reference.iterations);
        }
    }

    #[test]
    fn handles_empty_clusters() {
        // Duplicate seeds force an empty cluster on the first update.
        let points = mixture(4, 400, 7);
        let mut init = PointMatrix::new(points.dim());
        let row = points.row(0).to_vec();
        for _ in 0..3 {
            init.push(&row).unwrap();
        }
        init.push(points.row(1)).unwrap();
        let exec = Executor::sequential();
        let result = hamerly_lloyd(&points, &init, &LloydConfig::default(), &exec).unwrap();
        let mut counts = vec![0u32; 4];
        for &l in &result.labels {
            counts[l as usize] += 1;
        }
        assert!(
            counts.iter().all(|&c| c > 0),
            "empty cluster survived: {counts:?}"
        );
    }

    #[test]
    fn respects_iteration_cap() {
        let points = mixture(8, 1_000, 2);
        let init = InitMethod::Random
            .run(&points, 8, 5, &Executor::sequential())
            .unwrap();
        let config = LloydConfig {
            max_iterations: 2,
            tol: 0.0,
        };
        let result =
            hamerly_lloyd(&points, &init.centers, &config, &Executor::sequential()).unwrap();
        assert_eq!(result.iterations, 2);
        assert!(!result.converged);
    }

    #[test]
    fn k_equals_one_trivially_converges() {
        let points = mixture(2, 100, 3);
        let init = points.select(&[0]);
        let result = hamerly_lloyd(
            &points,
            &init,
            &LloydConfig::default(),
            &Executor::sequential(),
        )
        .unwrap();
        assert!(result.converged);
        assert!(result.labels.iter().all(|&l| l == 0));
        // Center is the global centroid.
        let centroid = points.centroid().unwrap();
        for (a, b) in result.centers.row(0).iter().zip(&centroid) {
            assert!((a - b).abs() < 1e-9);
        }
    }

    #[test]
    fn rejects_invalid_inputs() {
        let points = mixture(2, 50, 1);
        let exec = Executor::sequential();
        let init = points.select(&[0]);
        assert!(hamerly_lloyd(
            &PointMatrix::new(points.dim()),
            &init,
            &LloydConfig::default(),
            &exec
        )
        .is_err());
        let wrong_dim = PointMatrix::from_flat(vec![0.0], 1).unwrap();
        assert!(hamerly_lloyd(&points, &wrong_dim, &LloydConfig::default(), &exec).is_err());
        let bad = LloydConfig {
            max_iterations: 0,
            tol: 0.0,
        };
        assert!(hamerly_lloyd(&points, &init, &bad, &exec).is_err());
    }

    #[test]
    fn two_nearest_orders_and_breaks_ties() {
        let centers = PointMatrix::from_flat(vec![0.0, 10.0, 10.0, 3.0], 1).unwrap();
        let (j, d1, d2) = two_nearest(&[1.0], &centers);
        assert_eq!(j, 0);
        assert!((d1 - 1.0).abs() < 1e-12);
        assert!((d2 - 2.0).abs() < 1e-12);
        // Tie between identical centers 1 and 2: lower index wins.
        let (j, _, _) = two_nearest(&[10.0], &centers);
        assert_eq!(j, 1);
        // Single center: second distance is infinite.
        let single = PointMatrix::from_flat(vec![5.0], 1).unwrap();
        let (_, _, d2) = two_nearest(&[0.0], &single);
        assert!(d2.is_infinite());
    }
}
