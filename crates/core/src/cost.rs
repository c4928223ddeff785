//! The clustering potential `φ_X(C)` and its incremental maintenance —
//! both written once over [`LocalData`], so resident rows (one lent
//! block) and chunked sources run the same passes.
//!
//! Both seeding algorithms repeatedly need, for every point `x`, the
//! quantity `d²(x, C)` under a center set `C` that only ever *grows*.
//! [`CostTracker`] maintains the `d²` array (and the identity of each
//! point's nearest center) across center additions:
//!
//! * adding `m` new centers costs `O(n · m · d)` — only the new centers are
//!   scanned, with partial-distance pruning against the current `d²`;
//! * the potential `φ_X(C) = Σ d²(x, C)` is summed by the same pass that
//!   writes `d²`, so a round reads the array once;
//! * Step 7 of Algorithm 2 (candidate weights = how many points are closest
//!   to each candidate) becomes a free `O(n)` histogram, because the
//!   nearest-center ids were tracked all along — this is the "free Step 7"
//!   design decision in DESIGN.md §4.
//!
//! The tracker owns only the `O(n)` scalar state and takes the data on
//! each call; it lives in a [`LocalBackend`](crate::driver::LocalBackend)
//! part, which is what a local fit and a distributed worker both run.
//!
//! **One `d²` pass.** The tracker's build and update, the potential pass
//! and the serving predictor ([`PreparedPredictor`](crate::model::PreparedPredictor))
//! all run one pass, `d2_pass`: the piece loop of [`crate::chunked`]
//! cuts the rows at the executor's shard grid, the kernel writes each
//! row's label and `d²` (kept, or dropped into piece-sized scratch), and
//! each grid cell sums its rows' `d²` left to right — carrying the
//! partial across block edges — into one `Σ d²` per executor shard.
//! [`fold_shard_sums`] is the one fold that turns those partials into a
//! potential, on every backend. (The assignment pass of Lloyd's
//! iteration is the other pass shape: the same piece loop on the
//! accumulation grid, [`crate::chunked::assign_partials`].)
//!
//! **Finiteness for free.** A row with a NaN or infinite coordinate has no
//! finite distance to any center, so its `d²` is `∞` (the kernel's
//! `(0, ∞)` convention). A finite potential therefore proves every row
//! finite, and the first full pass — the tracker's first pass or the
//! potential pass — needs no scan of its own: only when its sum is
//! infinite does [`LocalData::check_finite`] run, to report the first
//! non-finite coordinate in row order (or find none, when finite values
//! overflowed).

use crate::chunked::{fold_pieces, Hints, LocalData, Piece};
use crate::distance::nearest;
use crate::error::KMeansError;
use crate::kernel::{AssignKernel, KernelStats};
use kmeans_data::PointMatrix;
use kmeans_par::Executor;

/// Computes the k-means potential `φ_X(C) = Σ_x d²(x, C)` of resident
/// rows in one parallel pass — [`potential_shard_sums`] folded, without
/// the finiteness check (a non-finite row makes the potential `∞`).
///
/// # Panics
///
/// Panics if `centers` is empty or dimensionalities differ.
pub fn potential(points: &PointMatrix, centers: &PointMatrix, exec: &Executor) -> f64 {
    assert!(!centers.is_empty(), "potential: no centers");
    assert_eq!(points.dim(), centers.dim(), "potential: dim mismatch");
    let kernel = AssignKernel::new(centers);
    let (sums, _) = d2_pass(points.into(), exec, None, None, |p, l, d| {
        kernel.assign(p.block, p.rows, l, d)
    })
    .expect("resident rows read without error");
    fold_shard_sums(sums)
}

/// The potential pass's shape contract for `centers` on rows of `dim`
/// columns, `n` of them in the whole fit: at least one center, of the
/// rows' dimensionality. More centers than rows is no error here.
pub(crate) fn check_potential_centers(
    n: usize,
    dim: usize,
    centers: &PointMatrix,
) -> Result<(), KMeansError> {
    if centers.is_empty() {
        return Err(KMeansError::InvalidK { k: 0, n });
    }
    if dim != centers.dim() {
        return Err(KMeansError::DimensionMismatch {
            expected: dim,
            got: centers.dim(),
        });
    }
    Ok(())
}

/// The shard-ordered left fold of per-shard `Σ d²` partials — the one
/// fold behind every potential: the tracker's φ, the potential pass, a
/// part's own prescreen threshold and the fold of parts across workers.
/// Partials are non-negative, so the fold of a prefix of the grid never
/// exceeds the fold of the whole grid.
pub fn fold_shard_sums(sums: impl IntoIterator<Item = f64>) -> f64 {
    sums.into_iter().reduce(|a, b| a + b).unwrap_or(0.0)
}

/// The potential pass: one sequential `Σ d²` per shard of the executor
/// grid, in shard order, rejecting the first non-finite coordinate in
/// row order (see the module docs: only an infinite sum costs a check
/// pass). The shard-ordered left fold of the returned values is the
/// potential, bit for bit, for any block size.
///
/// Every backend folds these partials with [`fold_shard_sums`]: a
/// distributed worker's part ships them, and the coordinator folds the
/// concatenation in worker order (= global shard order, given
/// shard-aligned worker boundaries), which keeps the distributed
/// potential bit-identical to the single-node one.
pub fn potential_shard_sums(
    data: LocalData<'_>,
    centers: &PointMatrix,
    exec: &Executor,
) -> Result<Vec<f64>, KMeansError> {
    check_potential_centers(data.len(), data.dim(), centers)?;
    seeded_shard_sums(data, centers, exec, None, |_| Hints::Cold)
}

/// [`potential_shard_sums`] without the shape checks, seeded by `hints`,
/// which picks the pass's [`Hints`] given the pass's one kernel. `labels`,
/// when given (one entry per row), is a label buffer the hints read —
/// the live seeding tracker's nearest ids, which [`Hints::Tracker`] maps
/// — and the pass writes each row's label over its entry. The hints move
/// only the time: the sums and labels are the same bits for any hints.
pub(crate) fn seeded_shard_sums<'h>(
    data: LocalData<'_>,
    centers: &PointMatrix,
    exec: &Executor,
    labels: Option<&mut [u32]>,
    hints: impl FnOnce(&AssignKernel) -> Hints<'h>,
) -> Result<Vec<f64>, KMeansError> {
    let kernel = AssignKernel::new(centers);
    let hints = hints(&kernel);
    let (sums, _) = d2_pass(data, exec, labels, None, |p, labels, d2| {
        let mut stats = KernelStats::default();
        hints.sweep(&kernel, centers, &p, labels, d2, &mut stats);
        stats
    })?;
    if sums.iter().any(|s| !s.is_finite()) {
        data.check_finite()?;
    }
    Ok(sums)
}

/// The executor-grid `d²` pass — the one pass behind the potential, the
/// [`CostTracker`] and the serving predictor. [`fold_pieces`] cuts
/// `data` at the executor's shard grid; `sweep` runs the kernel on each
/// piece's rows with their labels and `d²`, and each grid cell folds its
/// rows' `d²` left to right. The per-row outputs a caller keeps (`labels`,
/// `d2`: one entry per row of `data`) are written in place, and dropped
/// ones live in piece-sized scratch. Returns the per-cell `Σ d²` in cell
/// order and the pass's kernel counters.
pub(crate) fn d2_pass<F>(
    data: LocalData<'_>,
    exec: &Executor,
    labels: Option<&mut [u32]>,
    d2: Option<&mut [f64]>,
    sweep: F,
) -> Result<(Vec<f64>, KernelStats), KMeansError>
where
    F: Fn(Piece<'_>, &mut [u32], &mut [f64]) -> KernelStats + Sync,
{
    let grid = exec.shard_spec().shard_size();
    let cells = fold_pieces(data, exec, grid, 0, (labels, d2), |p, kept, carry| {
        let rows = p.rows.len();
        let (mut own_labels, mut own_d2) = (Vec::new(), Vec::new());
        let labels = kept.0.unwrap_or_else(|| scratch(&mut own_labels, rows));
        let d2 = kept.1.unwrap_or_else(|| scratch(&mut own_d2, rows));
        let (sum, mut stats): (f64, KernelStats) = carry.unwrap_or_default();
        stats.absorb(sweep(p, labels, d2));
        Ok((fold_cell(sum, d2), stats))
    })?;
    let mut stats = KernelStats::default();
    let sums = cells
        .into_iter()
        .map(|(sum, cell_stats)| {
            stats.absorb(cell_stats);
            sum
        })
        .collect();
    Ok((sums, stats))
}

/// One grid cell's `Σ d²`: its rows' `d²` added left to right onto `acc`
/// (zero, or the partial carried over a block edge) — the cell fold of
/// [`d2_pass`] and of
/// [`PreparedPredictor::cost_from_d2`](crate::model::PreparedPredictor::cost_from_d2).
pub(crate) fn fold_cell(acc: f64, d2: &[f64]) -> f64 {
    d2.iter().fold(acc, |acc, &v| acc + v)
}

/// `len` zeroed entries of `buf`: a piece's scratch for an output its
/// pass drops.
fn scratch<T: Clone + Default>(buf: &mut Vec<T>, len: usize) -> &mut [T] {
    buf.resize(len, T::default());
    buf
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

/// Maintains `d²(x, C)` and `argmin_c ‖x−c‖` for a growing center set `C`
/// over the rows of a [`LocalData`], which every call takes: the tracker
/// owns only the per-point scalar state and the per-shard `Σ d²` partials
/// of its last pass.
pub struct CostTracker {
    d2: Vec<f64>,
    nearest_id: Vec<u32>,
    shard_sums: Vec<f64>,
}

impl CostTracker {
    /// Builds the tracker for an initial (non-empty) center set — one full
    /// pass, which doubles as the finiteness check (module docs: the first
    /// non-finite coordinate in row order is reported).
    ///
    /// # Panics
    ///
    /// Panics if `centers` is empty or dimensionalities differ.
    pub fn new<'a>(
        data: impl Into<LocalData<'a>>,
        centers: &PointMatrix,
        exec: &Executor,
    ) -> Result<Self, KMeansError> {
        let data = data.into();
        assert!(!centers.is_empty(), "CostTracker: no centers");
        assert_eq!(data.dim(), centers.dim(), "CostTracker: dim mismatch");
        let n = data.len();
        let (mut d2, mut nearest_id) = (vec![0.0f64; n], vec![0u32; n]);
        let kernel = AssignKernel::new(centers);
        let ids = Some(&mut nearest_id[..]);
        let (shard_sums, _) = d2_pass(data, exec, ids, Some(&mut d2), |p, l, d| {
            kernel.assign(p.block, p.rows, l, d)
        })?;
        let tracker = CostTracker {
            d2,
            nearest_id,
            shard_sums,
        };
        if !tracker.potential().is_finite() {
            data.check_finite()?;
        }
        Ok(tracker)
    }

    /// Incorporates centers `centers[from..]` (those at index ≥ `from` are
    /// treated as new; earlier ones are assumed already incorporated) in
    /// one pass over `data`, which must be the rows the tracker was built
    /// on.
    ///
    /// Point `i`'s entry changes only if some new center is strictly closer,
    /// in which case `nearest_id[i]` becomes the new center's index.
    ///
    /// # Panics
    ///
    /// Panics if dimensionalities differ.
    pub fn update<'a>(
        &mut self,
        data: impl Into<LocalData<'a>>,
        centers: &PointMatrix,
        from: usize,
        exec: &Executor,
    ) -> Result<(), KMeansError> {
        let data = data.into();
        assert_eq!(
            data.dim(),
            centers.dim(),
            "CostTracker::update: dim mismatch"
        );
        if from >= centers.len() {
            return Ok(());
        }
        // Scan only the new suffix, pruned by the carried best — same bits
        // as the scalar suffix scan. The nearest ids ride along as the
        // kernel's carried labels: `d2[i]` is always the canonical
        // distance to `nearest_id[i]` (the kernel's carried-state
        // contract), so most points finish from that center's separation
        // list into the suffix.
        let kernel = AssignKernel::suffix(centers, from);
        let (ids, d2) = (Some(&mut self.nearest_id[..]), Some(&mut self.d2[..]));
        (self.shard_sums, _) = d2_pass(data, exec, ids, d2, |p, l, d| {
            kernel.update(p.block, p.rows, l, d)
        })?;
        Ok(())
    }

    /// The current potential `φ_X(C)`: the [`fold_shard_sums`] of
    /// [`CostTracker::shard_sums`].
    pub fn potential(&self) -> f64 {
        fold_shard_sums(self.shard_sums.iter().copied())
    }

    /// The per-executor-shard `Σ d²` partials, in shard order — what a
    /// part of a distributed fit ships for the global fold.
    pub fn shard_sums(&self) -> &[f64] {
        &self.shard_sums
    }

    /// Per-point squared distances to the nearest center.
    pub fn d2(&self) -> &[f64] {
        &self.d2
    }

    /// Per-point nearest-center indices.
    pub fn nearest_ids(&self) -> &[u32] {
        &self.nearest_id
    }

    /// The nearest-center indices alone, freeing the `d²` array.
    pub fn into_nearest_ids(self) -> Vec<u32> {
        self.nearest_id
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
    use kmeans_data::InMemorySource;
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
        let mut tracker = CostTracker::new(&points, &all_centers, &exec).unwrap();
        assert!((tracker.potential() - potential(&points, &all_centers, &exec)).abs() < 1e-9);

        // Add centers in two batches; tracker must agree with recompute.
        for batch in [vec![50.0, 80.0], vec![99.0]] {
            let from = all_centers.len();
            for v in batch {
                all_centers.push(&[v]).unwrap();
            }
            tracker.update(&points, &all_centers, from, &exec).unwrap();
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
        let tracker = CostTracker::new(&points, &centers, &exec).unwrap();
        let w = tracker.weights(2);
        assert_eq!(w, vec![3.0, 2.0]);
        assert!((w.iter().sum::<f64>() - points.len() as f64).abs() < 1e-12);
    }

    #[test]
    fn tracker_covered_counts_zero_distance() {
        let points = PointMatrix::from_flat(vec![0.0, 5.0, 5.0, 7.0], 1).unwrap();
        let centers = PointMatrix::from_flat(vec![5.0], 1).unwrap();
        let tracker = CostTracker::new(&points, &centers, &Executor::sequential()).unwrap();
        assert_eq!(tracker.covered(), 2);
    }

    #[test]
    fn update_with_no_new_centers_is_noop() {
        let points = grid_points();
        let centers = PointMatrix::from_flat(vec![3.0], 1).unwrap();
        let exec = Executor::sequential();
        let mut tracker = CostTracker::new(&points, &centers, &exec).unwrap();
        let before = tracker.potential();
        tracker.update(&points, &centers, 1, &exec).unwrap();
        tracker.update(&points, &centers, 99, &exec).unwrap();
        assert_eq!(tracker.potential(), before);
    }

    #[test]
    fn tracker_identical_across_thread_counts() {
        let points = grid_points();
        let mut centers = PointMatrix::from_flat(vec![0.0], 1).unwrap();
        let build = |exec: &Executor| {
            let mut c = PointMatrix::from_flat(vec![0.0], 1).unwrap();
            let mut t = CostTracker::new(&points, &c, exec).unwrap();
            c.push(&[42.0]).unwrap();
            t.update(&points, &c, 1, exec).unwrap();
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

    fn blobs(n: usize) -> PointMatrix {
        let mut m = PointMatrix::new(2);
        let mut rng = kmeans_util::Rng::new(7);
        for i in 0..n {
            let c = (i % 3) as f64 * 40.0;
            m.push(&[c + rng.normal(), c * 0.5 + rng.normal()]).unwrap();
        }
        m
    }

    #[test]
    fn potential_pass_is_bit_identical_for_every_block_size() {
        let m = blobs(500);
        let centers = PointMatrix::from_flat(vec![0.0, 0.0, 40.0, 20.0, 80.0, 40.0], 2).unwrap();
        for threads in [Parallelism::Sequential, Parallelism::Threads(3)] {
            let exec = Executor::new(threads).with_shard_size(64);
            let resident = potential_shard_sums(LocalData::from(&m), &centers, &exec).unwrap();
            let phi = resident.iter().copied().reduce(|a, b| a + b).unwrap();
            assert_eq!(phi.to_bits(), potential(&m, &centers, &exec).to_bits());
            for block_rows in [1, 13, 64, 100, 500, 1000] {
                let src = InMemorySource::new(m.clone(), block_rows).unwrap();
                let got = potential_shard_sums(LocalData::Blocks(&src), &centers, &exec).unwrap();
                let a: Vec<u64> = got.iter().map(|v| v.to_bits()).collect();
                let b: Vec<u64> = resident.iter().map(|v| v.to_bits()).collect();
                assert_eq!(a, b, "block_rows {block_rows}");
            }
        }
    }

    #[test]
    fn potential_pass_rejects_non_finite_and_bad_shapes() {
        let m = PointMatrix::from_flat(vec![0.0, 1.0, f64::NAN, 3.0], 2).unwrap();
        let centers = PointMatrix::from_flat(vec![0.0, 0.0], 2).unwrap();
        let exec = Executor::sequential();
        let src = InMemorySource::new(m.clone(), 1).unwrap();
        for data in [LocalData::from(&m), LocalData::Blocks(&src)] {
            assert_eq!(
                potential_shard_sums(data, &centers, &exec).unwrap_err(),
                KMeansError::NonFiniteData { point: 1, dim: 0 }
            );
            let wrong = PointMatrix::from_flat(vec![0.0], 1).unwrap();
            assert!(matches!(
                potential_shard_sums(data, &wrong, &exec),
                Err(KMeansError::DimensionMismatch { .. })
            ));
        }
    }

    #[test]
    fn first_pass_reports_non_finite_rows_but_not_overflow() {
        let exec = Executor::new(Parallelism::Threads(2)).with_shard_size(2);
        let centers = PointMatrix::from_flat(vec![0.0, 0.0], 2).unwrap();
        let mut flat: Vec<f64> = (0..20).map(f64::from).collect();
        flat[13] = f64::NEG_INFINITY;
        flat[17] = f64::NAN;
        let bad = PointMatrix::from_flat(flat, 2).unwrap();
        // Finite rows whose squared distances overflow to ∞.
        let huge = PointMatrix::from_flat(vec![1e200, 0.0, 0.0, 1e200], 2).unwrap();
        for block_rows in [1, 3, 10] {
            let src = InMemorySource::new(bad.clone(), block_rows).unwrap();
            for data in [LocalData::from(&bad), LocalData::Blocks(&src)] {
                let want = KMeansError::NonFiniteData { point: 6, dim: 1 };
                assert_eq!(
                    CostTracker::new(data, &centers, &exec).err(),
                    Some(want.clone())
                );
                assert_eq!(
                    potential_shard_sums(data, &centers, &exec).err(),
                    Some(want)
                );
            }
            let src = InMemorySource::new(huge.clone(), block_rows).unwrap();
            for data in [LocalData::from(&huge), LocalData::Blocks(&src)] {
                let tracker = CostTracker::new(data, &centers, &exec).unwrap();
                assert_eq!(tracker.potential(), f64::INFINITY);
                let sums = potential_shard_sums(data, &centers, &exec).unwrap();
                assert!(sums.iter().all(|s| s.is_infinite()));
            }
        }
    }

    #[test]
    fn tracker_is_bit_identical_for_every_block_size() {
        let m = blobs(300);
        let exec = Executor::new(Parallelism::Threads(2)).with_shard_size(32);
        let first = PointMatrix::from_flat(vec![1.0, 1.0], 2).unwrap();
        let mut all = first.clone();
        all.push(&[40.0, 20.0]).unwrap();
        all.push(&[80.0, 40.0]).unwrap();
        let mut resident = CostTracker::new(&m, &first, &exec).unwrap();
        let initial = (resident.potential(), resident.d2().to_vec());
        resident.update(&m, &all, 1, &exec).unwrap();
        for block_rows in [1, 37, 300, 512] {
            let src = InMemorySource::new(m.clone(), block_rows).unwrap();
            let data = LocalData::Blocks(&src);
            let mut blocks = CostTracker::new(data, &first, &exec).unwrap();
            assert_eq!(blocks.potential().to_bits(), initial.0.to_bits());
            assert_eq!(blocks.d2(), &initial.1[..], "block_rows {block_rows}");
            blocks.update(data, &all, 1, &exec).unwrap();
            assert_eq!(blocks.potential().to_bits(), resident.potential().to_bits());
            assert_eq!(blocks.d2(), resident.d2(), "block_rows {block_rows}");
            assert_eq!(blocks.nearest_ids(), resident.nearest_ids());
            assert_eq!(blocks.weights(3), resident.weights(3));
        }
    }
}
