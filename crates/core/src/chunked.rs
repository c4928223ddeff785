//! Out-of-core kernels: the per-pass building blocks that let the
//! backend-generic drivers in [`crate::driver`] run every algorithm of
//! this crate over a [`ChunkedSource`] instead of a resident
//! [`PointMatrix`].
//!
//! The algorithm round loops themselves live in [`crate::driver`]
//! (`drive_kmeans_parallel`, `drive_lloyd`, `drive_minibatch`) — this
//! module provides the primitives their
//! [`ChunkedBackend`](crate::driver::ChunkedBackend) is built from, and
//! the same primitives are what distributed workers run on their local
//! shards.
//!
//! This is the "data does not fit in main memory" premise of the paper's
//! §1 made executable: each k-means|| round (Algorithm 2), each Lloyd
//! iteration (§3.1), and each assignment pass is **one scan** over the
//! blocks of the source, with per-block parallelism on the existing shard
//! [`Executor`]. Only `O(n)` *scalar* working state (the `d²` array, the
//! nearest-center ids, the labels) stays resident — never the `O(n·d)`
//! feature payload, which is the part that outgrows RAM at the paper's
//! scales (KDDCup1999: 4.8 M × 42 doubles).
//!
//! **Bit-parity contract.** Every kernel here produces results
//! bit-identical to its in-memory counterpart on the same data, seed, and
//! executor — for *any* block size (`tests/chunked_parity.rs`). Two
//! mechanisms make that hold:
//!
//! 1. Per-point arithmetic (distances, bound-pruned scans, centroid
//!    contributions) is order-independent across points, so blocks can be
//!    visited in any grouping.
//! 2. Everything order-*sensitive* — the per-shard sampling RNG streams of
//!    Algorithm 2 and the shard-ordered floating-point folds — either
//!    operates on resident scalar state (and literally shares the
//!    in-memory code), or is reproduced by an internal shard-ordered
//!    folder and [`assign_and_sum_chunked`], which re-create the
//!    executor's exact shard boundaries across block edges.

use crate::assign::{sum_shard_size, ClusterSums};
use crate::error::KMeansError;
use crate::kernel::{AssignKernel, KernelStats};
use kmeans_data::{ChunkedSource, DataError, PointMatrix};
use kmeans_par::Executor;

/// Converts a data-layer block failure into the typed clustering error.
pub(crate) fn source_err(e: DataError) -> KMeansError {
    KMeansError::Data(e.to_string())
}

/// Shape validation shared by every chunked initializer (the chunked
/// analogue of [`crate::init::validate`]; finiteness is checked during the
/// first streaming pass via [`check_block_finite`] instead of an upfront
/// scan, so it still costs no extra pass).
pub fn validate_source(source: &dyn ChunkedSource, k: usize) -> Result<(), KMeansError> {
    if source.is_empty() {
        return Err(KMeansError::EmptyInput);
    }
    if k == 0 || k > source.len() {
        return Err(KMeansError::InvalidK { k, n: source.len() });
    }
    Ok(())
}

/// Rejects NaN/∞ coordinates in one block, reporting the *global* point
/// index (`row_offset` is the block's first global row). Chunked
/// initializers call this on their first full pass — the same contract as
/// [`crate::init::validate`], paid as part of a scan that happens anyway.
pub fn check_block_finite(block: &PointMatrix, row_offset: usize) -> Result<(), KMeansError> {
    if let Some(flat) = block.as_slice().iter().position(|v| !v.is_finite()) {
        return Err(KMeansError::NonFiniteData {
            point: row_offset + flat / block.dim(),
            dim: flat % block.dim(),
        });
    }
    Ok(())
}

/// Drives one full pass: reads every block in order into `buf` and hands
/// `(block_index, first_global_row, block)` to `f`. Public so out-of-crate
/// chunked stages (the streaming seeders) share the same pass loop and
/// error mapping.
pub fn for_each_block<F>(
    source: &dyn ChunkedSource,
    buf: &mut PointMatrix,
    mut f: F,
) -> Result<(), KMeansError>
where
    F: FnMut(usize, usize, &PointMatrix) -> Result<(), KMeansError>,
{
    for b in 0..source.num_blocks() {
        source.read_block(b, buf).map_err(source_err)?;
        f(b, b * source.block_rows(), buf)?;
    }
    Ok(())
}

/// Reproduces `Executor::map_reduce`'s shard-ordered left fold for a
/// row-ordered value stream that arrives block by block: values are summed
/// sequentially within each executor shard and the per-shard sums are
/// folded left-to-right, bit-identically to the in-memory pass — shard
/// boundaries need not align with block boundaries.
///
/// Public because distributed workers use the same splitter to produce
/// per-shard partial sums ([`ShardSum::into_sums`]) that the coordinator
/// folds globally; [`ShardSum::finish`] is that fold done locally.
pub struct ShardSum {
    shard_size: usize,
    boundary: usize,
    next: usize,
    acc: f64,
    sums: Vec<f64>,
}

impl ShardSum {
    /// Starts a splitter with the executor's shard size.
    pub fn new(shard_size: usize) -> Self {
        ShardSum {
            shard_size,
            boundary: shard_size,
            next: 0,
            acc: 0.0,
            sums: Vec::new(),
        }
    }

    fn flush(&mut self) {
        self.sums.push(self.acc);
        self.acc = 0.0;
        self.boundary += self.shard_size;
    }

    /// Feeds the next value of the row-ordered stream.
    pub fn push(&mut self, value: f64) {
        if self.next == self.boundary {
            self.flush();
        }
        self.acc += value;
        self.next += 1;
    }

    /// One partial sum per executor shard, in shard order.
    pub fn into_sums(mut self) -> Vec<f64> {
        if self.next > self.boundary - self.shard_size {
            self.flush();
        }
        self.sums
    }

    /// The shard-ordered left fold of the per-shard sums — bit-identical
    /// to `Executor::map_reduce` with `+` on the same stream.
    pub fn finish(self) -> f64 {
        self.into_sums()
            .into_iter()
            .reduce(|a, b| a + b)
            .unwrap_or(0.0)
    }
}

/// One-scan potential `φ_X(C)` over a chunked source — bit-identical to
/// [`crate::cost::potential`] on the same data and executor. Also enforces
/// the finiteness contract (this is the pass chunked seeders without a
/// cost tracker rely on for input validation).
pub fn potential_chunked(
    source: &dyn ChunkedSource,
    centers: &PointMatrix,
    exec: &Executor,
) -> Result<f64, KMeansError> {
    let sums = potential_shard_sums(source, centers, exec)?;
    Ok(sums.into_iter().reduce(|a, b| a + b).unwrap_or(0.0))
}

/// The per-executor-shard partial sums behind [`potential_chunked`]: one
/// sequential `Σ d²` per shard of the executor grid, in shard order, with
/// the same finiteness enforcement. The shard-ordered left fold of the
/// returned values *is* `potential_chunked` (and thus
/// [`crate::cost::potential`]) bit for bit.
///
/// Distributed workers call this on their local row range and ship the
/// partials; the coordinator concatenates them in worker order (= global
/// shard order, given shard-aligned worker boundaries) and performs the
/// fold, which is what keeps the distributed potential bit-identical to
/// the single-node one.
pub fn potential_shard_sums(
    source: &dyn ChunkedSource,
    centers: &PointMatrix,
    exec: &Executor,
) -> Result<Vec<f64>, KMeansError> {
    if centers.is_empty() {
        return Err(KMeansError::InvalidK {
            k: 0,
            n: source.len(),
        });
    }
    if source.dim() != centers.dim() {
        return Err(KMeansError::DimensionMismatch {
            expected: source.dim(),
            got: centers.dim(),
        });
    }
    let mut buf = source.block_buffer();
    let mut d2 = vec![0.0f64; source.block_rows()];
    let mut labels = vec![0u32; source.block_rows()];
    let mut folder = ShardSum::new(exec.shard_spec().shard_size());
    let kernel = AssignKernel::new(centers);
    for_each_block(source, &mut buf, |_b, start, block| {
        check_block_finite(block, start)?;
        let end = block.len();
        // One reused label scratch per pass (shard-aligned chunks of it),
        // not one allocation per shard per block.
        exec.update_shards2(&mut labels[..end], &mut d2[..end], |_, local, cl, cd| {
            kernel.assign(block, local..local + cl.len(), cl, cd);
        });
        for &v in d2[..end].iter() {
            folder.push(v);
        }
        Ok(())
    })?;
    Ok(folder.into_sums())
}

/// [`crate::cost::CostTracker`] for chunked sources: maintains the
/// per-point `d²` and nearest-candidate-id arrays (resident `O(n)` scalar
/// state) across center additions, re-reading the feature blocks on each
/// update pass. Values and the cached potential are bit-identical to the
/// in-memory tracker's.
pub struct ChunkedCostTracker {
    d2: Vec<f64>,
    nearest_id: Vec<u32>,
    total: f64,
}

impl ChunkedCostTracker {
    /// Builds the tracker for an initial non-empty center set — one full
    /// scan, which doubles as the finiteness validation pass.
    pub fn new(
        source: &dyn ChunkedSource,
        centers: &PointMatrix,
        exec: &Executor,
    ) -> Result<Self, KMeansError> {
        assert!(!centers.is_empty(), "ChunkedCostTracker: no centers");
        assert_eq!(
            source.dim(),
            centers.dim(),
            "ChunkedCostTracker: dim mismatch"
        );
        let n = source.len();
        let mut d2 = vec![0.0f64; n];
        let mut nearest_id = vec![0u32; n];
        let mut buf = source.block_buffer();
        let kernel = AssignKernel::new(centers);
        for_each_block(source, &mut buf, |_b, start, block| {
            check_block_finite(block, start)?;
            let end = start + block.len();
            exec.update_shards2(
                &mut d2[start..end],
                &mut nearest_id[start..end],
                |_, local, cd, cn| {
                    kernel.assign(block, local..local + cd.len(), cn, cd);
                },
            );
            Ok(())
        })?;
        let mut tracker = ChunkedCostTracker {
            d2,
            nearest_id,
            total: 0.0,
        };
        tracker.resum(exec);
        Ok(tracker)
    }

    /// Incorporates centers `centers[from..]` in one scan, scanning only
    /// the new suffix per point with partial-distance pruning (the exact
    /// arithmetic of the in-memory tracker).
    pub fn update(
        &mut self,
        source: &dyn ChunkedSource,
        centers: &PointMatrix,
        from: usize,
        exec: &Executor,
    ) -> Result<(), KMeansError> {
        assert_eq!(
            source.dim(),
            centers.dim(),
            "ChunkedCostTracker::update: dim mismatch"
        );
        if from >= centers.len() {
            return Ok(());
        }
        let mut buf = source.block_buffer();
        let d2 = &mut self.d2;
        let nearest_id = &mut self.nearest_id;
        // Suffix scan pruned by the carried best, seeded by the carried
        // nearest ids — the exact arithmetic of the in-memory tracker, via
        // the same kernel and its carried-state contract.
        let kernel = AssignKernel::suffix(centers, from);
        for_each_block(source, &mut buf, |_b, start, block| {
            let end = start + block.len();
            exec.update_shards2(
                &mut d2[start..end],
                &mut nearest_id[start..end],
                |_, local, cd, cn| {
                    kernel.update(block, local..local + cd.len(), cn, cd);
                },
            );
            Ok(())
        })?;
        self.resum(exec);
        Ok(())
    }

    /// Recomputes the cached potential — the `d²` array is resident, so
    /// this is literally the in-memory tracker's shard-ordered fold.
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

    /// Per-point squared distances to the nearest candidate.
    pub fn d2(&self) -> &[f64] {
        &self.d2
    }

    /// Per-point index of the nearest candidate.
    pub fn nearest_ids(&self) -> &[u32] {
        &self.nearest_id
    }

    /// Step 7 of Algorithm 2: candidate weights as an `O(n)` histogram
    /// over the tracked nearest ids — no feature pass.
    pub fn weights(&self, m: usize) -> Vec<f64> {
        let mut w = vec![0.0f64; m];
        for &id in &self.nearest_id {
            w[id as usize] += 1.0;
        }
        w
    }
}

/// Fetches the rows at `indices` (any order, duplicates allowed) from a
/// chunked source, preserving the given order in the result. Needed blocks
/// are read once each, in ascending order — a budgeted source's cache
/// absorbs repeats. Public so distributed workers serve row-gather
/// requests through the same code path as the chunked seeders.
pub fn gather_rows(
    source: &dyn ChunkedSource,
    indices: &[usize],
    buf: &mut PointMatrix,
) -> Result<PointMatrix, KMeansError> {
    let mut out = PointMatrix::with_capacity(source.dim(), indices.len());
    gather_rows_into(source, indices, buf, &mut out)?;
    Ok(out)
}

/// [`gather_rows`] into a caller-provided matrix (cleared first, must
/// match the source's dimensionality) — allocation-free in steady state
/// when `out` is reused across calls, which is what keeps repeated
/// mini-batch gathers off the allocator.
pub fn gather_rows_into(
    source: &dyn ChunkedSource,
    indices: &[usize],
    buf: &mut PointMatrix,
    out: &mut PointMatrix,
) -> Result<(), KMeansError> {
    let dim = source.dim();
    if out.dim() != dim {
        return Err(KMeansError::DimensionMismatch {
            expected: dim,
            got: out.dim(),
        });
    }
    // Pre-size with zero rows (reusing the buffer's capacity) so the
    // block-ordered reads below can fill the request-ordered slots.
    out.clear();
    let zero = vec![0.0f64; dim];
    for _ in 0..indices.len() {
        out.push(&zero).expect("dim checked above");
    }
    let mut order: Vec<(usize, usize)> = indices.iter().copied().zip(0..).collect();
    order.sort_unstable();
    let block_rows = source.block_rows();
    let mut i = 0;
    while i < order.len() {
        let block = order[i].0 / block_rows;
        source.read_block(block, buf).map_err(source_err)?;
        let start = block * block_rows;
        while i < order.len() && order[i].0 / block_rows == block {
            let (idx, slot) = order[i];
            out.row_mut(slot).copy_from_slice(buf.row(idx - start));
            i += 1;
        }
    }
    Ok(())
}

/// Chunked analogue of [`crate::lloyd::validate_refine_inputs`].
pub(crate) fn validate_refine_inputs_chunked(
    source: &dyn ChunkedSource,
    centers: &PointMatrix,
) -> Result<(), KMeansError> {
    if source.is_empty() {
        return Err(KMeansError::EmptyInput);
    }
    if centers.is_empty() || centers.len() > source.len() {
        return Err(KMeansError::InvalidK {
            k: centers.len(),
            n: source.len(),
        });
    }
    if source.dim() != centers.dim() {
        return Err(KMeansError::DimensionMismatch {
            expected: source.dim(),
            got: centers.dim(),
        });
    }
    Ok(())
}

/// One-scan assignment + per-cluster accumulation over a chunked source —
/// bit-identical to [`crate::assign::assign_and_sum`] (labels, sums,
/// counts, cost, farthest-point records) on the same data and executor.
///
/// The in-memory pass folds one partial per *accumulation shard* (a
/// fixed-count layout — see [`crate::assign::MAX_SUM_SHARDS`]) in shard
/// order. Accumulation shards are usually much larger than blocks, so this
/// pass carries the open partial across block boundaries and flushes it
/// exactly where the in-memory layout would. Per-row distance evaluation
/// is still block-parallel on `exec`; only the cheap `O(d)` accumulation
/// per row is sequential.
pub fn assign_and_sum_chunked(
    source: &dyn ChunkedSource,
    centers: &PointMatrix,
    exec: &Executor,
) -> Result<(Vec<u32>, ClusterSums), KMeansError> {
    // assign_partials_chunked with offset 0 / global_n = len performs
    // exactly the validate_refine_inputs_chunked checks.
    let (labels, partials, stats) =
        assign_partials_chunked(source, centers, exec, 0, source.len(), None)?;
    let mut sums = fold_accum_shards(centers.len(), source.dim(), &partials);
    sums.stats = stats;
    Ok((labels, sums))
}

/// One accumulation shard's partial from an assignment pass: per-cluster
/// coordinate sums and counts, the shard's cost contribution, and its
/// farthest point (`(usize::MAX, -∞)` when the shard saw no rows — never
/// produced by [`assign_partials_chunked`], but representable on the wire).
#[derive(Clone, Debug, PartialEq)]
pub struct AccumShard {
    /// `k × d` per-cluster coordinate sums (row-major).
    pub sums: Vec<f64>,
    /// Points per cluster within this shard.
    pub counts: Vec<u64>,
    /// Cost contribution of this shard.
    pub cost: f64,
    /// `(global point index, d²)` of the shard's farthest point.
    pub farthest: (usize, f64),
}

impl AccumShard {
    fn new(k: usize, d: usize) -> Self {
        AccumShard {
            sums: vec![0.0; k * d],
            counts: vec![0; k],
            cost: 0.0,
            farthest: (usize::MAX, f64::NEG_INFINITY),
        }
    }
}

/// The per-accumulation-shard partials behind [`assign_and_sum_chunked`]:
/// labels for the source's rows plus one [`AccumShard`] per accumulation
/// shard of the **global** layout (`sum_shard_size` of `global_n`), in
/// shard order. `row_offset` is the global index of the source's first row;
/// farthest-point records carry global indices.
///
/// Distributed workers call this on their local shard of the data (their
/// `row_offset` is validated to sit on an accumulation-shard boundary) and
/// ship the partials; the coordinator concatenates them in worker order
/// and folds with [`fold_accum_shards`] — reproducing the in-memory
/// [`crate::assign::assign_and_sum`] fold bit for bit.
///
/// The returned [`KernelStats`] account for this pass's local kernel work
/// (distance evaluations performed / norm-bound prunes). Distributed
/// workers ship them as the trailing stats field of their partials frame
/// (the [`AccumShard`] wire format itself does not carry them).
///
/// `hints` are the labels of a previous pass over the same rows: they
/// seed the kernel's warm sweep ([`AssignKernel::assign_warm`]), which
/// changes only the counters and the time. Hints of the wrong length are
/// ignored.
pub fn assign_partials_chunked(
    source: &dyn ChunkedSource,
    centers: &PointMatrix,
    exec: &Executor,
    row_offset: usize,
    global_n: usize,
    hints: Option<&[u32]>,
) -> Result<(Vec<u32>, Vec<AccumShard>, KernelStats), KMeansError> {
    if source.is_empty() {
        return Err(KMeansError::EmptyInput);
    }
    if centers.is_empty() || centers.len() > global_n {
        return Err(KMeansError::InvalidK {
            k: centers.len(),
            n: global_n,
        });
    }
    if source.dim() != centers.dim() {
        return Err(KMeansError::DimensionMismatch {
            expected: source.dim(),
            got: centers.dim(),
        });
    }
    let n = source.len();
    let k = centers.len();
    let d = source.dim();
    let sum_size = sum_shard_size(exec, global_n);
    let hints = hints.filter(|h| h.len() == n);

    let mut labels = vec![0u32; n];
    let mut d2 = vec![0.0f64; source.block_rows()];
    let mut partials: Vec<AccumShard> = Vec::new();
    let mut partial = AccumShard::new(k, d);
    // First boundary in local coordinates: the next global multiple of
    // `sum_size` after `row_offset` (aligned offsets make this `sum_size`).
    let mut shard_end = sum_size - row_offset % sum_size;
    let mut buf = source.block_buffer();
    let kernel = AssignKernel::new(centers);
    let mut stats = KernelStats::default();
    for_each_block(source, &mut buf, |_b, start, block| {
        let end = start + block.len();
        let chunk = &mut d2[..block.len()];
        let block_hints = hints.map(|h| &h[start..end]);
        let shard_stats =
            exec.update_map_shards2(&mut labels[start..end], chunk, |_, local, cl, cd| {
                let rows = local..local + cl.len();
                let shard_hints = block_hints.map(|h| &h[rows.clone()]);
                kernel.assign_warm(block, rows, shard_hints, cl, cd)
            });
        for s in shard_stats {
            stats.absorb(s);
        }
        for (off, &dist) in d2[..block.len()].iter().enumerate() {
            let gi = start + off;
            if gi == shard_end {
                partials.push(std::mem::replace(&mut partial, AccumShard::new(k, d)));
                shard_end += sum_size;
            }
            let c = labels[gi] as usize;
            partial.counts[c] += 1;
            partial.cost += dist;
            if dist > partial.farthest.1 {
                partial.farthest = (row_offset + gi, dist);
            }
            let dst = &mut partial.sums[c * d..(c + 1) * d];
            for (acc, &v) in dst.iter_mut().zip(block.row(off)) {
                *acc += v;
            }
        }
        Ok(())
    })?;
    partials.push(partial);
    Ok((labels, partials, stats))
}

/// Folds accumulation-shard partials (in shard order) into one
/// [`ClusterSums`] — the exact reducer of the in-memory
/// [`crate::assign::assign_and_sum`] pass. [`AccumShard`]s carry no
/// kernel counters (those travel separately, summed order-free), so the
/// folded `stats` start at zero; callers that have them
/// ([`assign_and_sum_chunked`], the distributed coordinator) stamp them
/// afterwards.
pub fn fold_accum_shards(k: usize, d: usize, shards: &[AccumShard]) -> ClusterSums {
    let mut out = ClusterSums {
        sums: vec![0.0; k * d],
        counts: vec![0; k],
        cost: 0.0,
        farthest: Vec::new(),
        stats: KernelStats::default(),
    };
    for p in shards {
        for (acc, v) in out.sums.iter_mut().zip(&p.sums) {
            *acc += v;
        }
        for (acc, v) in out.counts.iter_mut().zip(&p.counts) {
            *acc += v;
        }
        out.cost += p.cost;
        if p.farthest.0 != usize::MAX {
            out.farthest.push(p.farthest);
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::assign::assign_and_sum;
    use crate::cost::{potential, CostTracker};
    use kmeans_data::InMemorySource;
    use kmeans_par::Parallelism;
    use kmeans_util::Rng;

    fn blobs(n: usize) -> PointMatrix {
        let mut m = PointMatrix::new(2);
        let mut rng = Rng::new(7);
        for i in 0..n {
            let c = (i % 3) as f64 * 40.0;
            m.push(&[c + rng.normal(), c * 0.5 + rng.normal()]).unwrap();
        }
        m
    }

    fn source(m: &PointMatrix, block_rows: usize) -> InMemorySource {
        InMemorySource::new(m.clone(), block_rows).unwrap()
    }

    #[test]
    fn shard_sum_matches_map_reduce_for_any_block_split() {
        let values: Vec<f64> = (0..1000).map(|i| ((i as f64) * 1.37).sqrt()).collect();
        for shard_size in [1, 7, 64, 1000, 2048] {
            let exec = Executor::sequential().with_shard_size(shard_size);
            let expected = exec
                .map_reduce(
                    values.len(),
                    |_, r| r.map(|i| values[i]).sum::<f64>(),
                    |a, b| a + b,
                )
                .unwrap();
            // Push in arbitrary chunk groupings; result must not change.
            for chunk in [1usize, 3, 100, 1000] {
                let mut folder = ShardSum::new(shard_size);
                for piece in values.chunks(chunk) {
                    for &v in piece {
                        folder.push(v);
                    }
                }
                assert_eq!(
                    folder.finish().to_bits(),
                    expected.to_bits(),
                    "shard {shard_size}, chunk {chunk}"
                );
            }
        }
    }

    #[test]
    fn potential_chunked_is_bit_identical() {
        let m = blobs(500);
        let centers = PointMatrix::from_flat(vec![0.0, 0.0, 40.0, 20.0, 80.0, 40.0], 2).unwrap();
        for threads in [Parallelism::Sequential, Parallelism::Threads(3)] {
            let exec = Executor::new(threads).with_shard_size(64);
            let expected = potential(&m, &centers, &exec);
            for block_rows in [1, 13, 64, 100, 500, 1000] {
                let got = potential_chunked(&source(&m, block_rows), &centers, &exec).unwrap();
                assert_eq!(got.to_bits(), expected.to_bits(), "block_rows {block_rows}");
            }
        }
    }

    #[test]
    fn potential_chunked_rejects_non_finite_and_bad_shapes() {
        let m = PointMatrix::from_flat(vec![0.0, 1.0, f64::NAN, 3.0], 2).unwrap();
        let centers = PointMatrix::from_flat(vec![0.0, 0.0], 2).unwrap();
        let exec = Executor::sequential();
        assert_eq!(
            potential_chunked(&source(&m, 1), &centers, &exec).unwrap_err(),
            KMeansError::NonFiniteData { point: 1, dim: 0 }
        );
        let wrong = PointMatrix::from_flat(vec![0.0], 1).unwrap();
        assert!(matches!(
            potential_chunked(&source(&blobs(10), 4), &wrong, &exec),
            Err(KMeansError::DimensionMismatch { .. })
        ));
    }

    #[test]
    fn chunked_tracker_matches_in_memory_tracker() {
        let m = blobs(300);
        let exec = Executor::sequential().with_shard_size(32);
        let mut centers = PointMatrix::from_flat(vec![1.0, 1.0], 2).unwrap();
        let mut mem = CostTracker::new(&m, &centers, &exec);
        let mut chunked = ChunkedCostTracker::new(&source(&m, 37), &centers, &exec).unwrap();
        assert_eq!(chunked.potential().to_bits(), mem.potential().to_bits());
        assert_eq!(chunked.d2(), mem.d2());

        centers.push(&[40.0, 20.0]).unwrap();
        centers.push(&[80.0, 40.0]).unwrap();
        mem.update(&centers, 1, &exec);
        chunked.update(&source(&m, 37), &centers, 1, &exec).unwrap();
        assert_eq!(chunked.potential().to_bits(), mem.potential().to_bits());
        assert_eq!(chunked.d2(), mem.d2());
        assert_eq!(chunked.weights(3), mem.weights(3));
    }

    #[test]
    fn gather_preserves_request_order_and_duplicates() {
        let m = blobs(50);
        let src = source(&m, 8);
        let mut buf = src.block_buffer();
        let indices = [49, 0, 17, 0, 33, 49];
        let rows = gather_rows(&src, &indices, &mut buf).unwrap();
        assert_eq!(rows.len(), indices.len());
        for (j, &i) in indices.iter().enumerate() {
            assert_eq!(rows.row(j), m.row(i), "slot {j} (point {i})");
        }
    }

    #[test]
    fn assign_and_sum_chunked_is_bit_identical() {
        let m = blobs(700);
        let centers = PointMatrix::from_flat(vec![0.0, 0.0, 40.0, 20.0, 80.0, 40.0], 2).unwrap();
        for threads in [Parallelism::Sequential, Parallelism::Threads(4)] {
            let exec = Executor::new(threads).with_shard_size(16);
            let (ref_labels, ref_sums) = assign_and_sum(&m, &centers, &exec, None);
            for block_rows in [1, 9, 64, 350, 700, 4096] {
                let (labels, sums) =
                    assign_and_sum_chunked(&source(&m, block_rows), &centers, &exec).unwrap();
                assert_eq!(labels, ref_labels, "block_rows {block_rows}");
                assert_eq!(sums.counts, ref_sums.counts);
                assert_eq!(sums.cost.to_bits(), ref_sums.cost.to_bits());
                assert_eq!(sums.farthest, ref_sums.farthest);
                let a: Vec<u64> = sums.sums.iter().map(|f| f.to_bits()).collect();
                let b: Vec<u64> = ref_sums.sums.iter().map(|f| f.to_bits()).collect();
                assert_eq!(a, b, "block_rows {block_rows}");
            }
        }
    }

    #[test]
    fn chunked_validation_rejects_bad_shapes() {
        let m = blobs(10);
        let src = source(&m, 4);
        assert!(matches!(
            validate_source(&src, 0),
            Err(KMeansError::InvalidK { .. })
        ));
        assert!(matches!(
            validate_source(&src, 11),
            Err(KMeansError::InvalidK { .. })
        ));
        let wrong = PointMatrix::from_flat(vec![0.0], 1).unwrap();
        assert!(matches!(
            validate_refine_inputs_chunked(&src, &wrong),
            Err(KMeansError::DimensionMismatch { .. })
        ));
    }
}
