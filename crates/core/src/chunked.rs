//! Local passes: the one implementation of every per-pass building block
//! a local fit runs — the data view ([`LocalData`]) and its block
//! visitor, row gathers, the input contract, the piece loop
//! (`fold_pieces`) behind every kernel pass over rows, and the
//! assignment pass ([`assign_partials`]) with its accumulation-shard
//! partials, in its full form and its bounded one (`refine_pass`). The
//! other pass on the piece loop is the executor-grid `d²` pass of
//! [`crate::cost`], behind the potential, the cost tracker and the
//! serving predictor.
//!
//! **Bounded passes.** Lloyd's passes after the first sweep only the
//! rows that can have changed. A part keeps, beside its labels, two `f32`
//! bounds per row (`Bounds`: 8 bytes, so labels and bounds take the 12
//! bytes per row the seeding tracker held), the centers of its last pass,
//! each accumulation shard's per-cluster sums, and the fold state at
//! every block edge inside a shard (`inner_edges`). At new centers the
//! bounds move by the centers' drift, and a row they — or its center's
//! separation certificate — prove still nearest its center keeps its
//! label unread; the warm kernel sweeps the rest. Each shard then
//! re-folds, in row order, only the clusters whose membership changed in
//! it — piece by piece when block edges split it, each piece starting
//! from the state carried over its edge and taking the clean clusters'
//! state at its end from the one kept there — so labels, sums and counts
//! are the full pass's bits. A bounded pass still reads every block: it
//! saves kernel work and re-summing, not I/O. Its cost comes back as the
//! moved rows' `d²` deltas, from which the driver tracks the potential.
//!
//! **Passes that keep only what the fit needs.** Every full pass takes
//! a label buffer its hints read (`Hints`) — the labels a pass found at
//! bit-equal centers, evaluated once per row instead of searched; labels
//! at other centers or the tracker's nearest ids, as seeds — and writes
//! its labels over it. What it folds beside them is its `Keep`: a
//! labels-and-cost pass (Lloyd's closing pass, a relabel) folds only each
//! shard's cost, settling rows on the last pass's bounds where it can,
//! and builds neither sums nor bounds.
//!
//! This is the "data does not fit in main memory" premise of the paper's
//! §1 made executable: each k-means|| round (Algorithm 2), each Lloyd
//! iteration (§3.1), and each assignment pass is **one scan** over the
//! blocks of the data, with per-block parallelism on the existing shard
//! [`Executor`]. A [`ChunkedSource`] is visited block by block, each block
//! lent when the source holds it resident ([`ChunkedSource::lend_block`])
//! and otherwise read into a reused buffer; resident rows are **one block
//! at row 0, lent by reference** — never copied — so a resident fit runs
//! the very same passes. Besides `O(n)` *scalar* working state (the `d²`
//! array and the nearest-center ids while seeding, the labels and bounds
//! after), a chunked fit keeps no more of the `O(n·d)` feature payload
//! resident than its source's budget holds — the payload is the part that outgrows RAM at the
//! paper's scales (KDDCup1999: 4.8 M × 42 doubles).
//!
//! These passes run inside a [`crate::driver::LocalBackend`] part: the
//! local backend is one part over every row, and a distributed worker in
//! `kmeans-cluster` serves one part over its range, so a local fit and a
//! worker's share of a distributed one run the same code.
//!
//! **Bit-parity contract.** Every pass produces the same bits for any
//! block size, resident data included (`tests/chunked_parity.rs`). Two
//! mechanisms make that hold:
//!
//! 1. Per-point arithmetic (distances, bound-pruned scans, centroid
//!    contributions) is order-independent across points, so blocks can be
//!    visited in any grouping.
//! 2. Everything order-*sensitive* — the per-shard sampling RNG streams of
//!    Algorithm 2 and the shard-ordered floating-point folds — either
//!    operates on resident scalar state, or runs on *pieces*: each block
//!    is cut at the boundaries of the **global** shard grid, the pieces
//!    run in parallel, and each folds its own rows left to right from
//!    zero — except a block's first piece, which continues the partial
//!    carried over the block edge. A grid cell therefore folds exactly
//!    the rows it would fold in one sequential scan. The per-row outputs
//!    a pass keeps (labels, `d²`, bounds) are cut at the same rows, so
//!    each piece writes only its own.

use crate::assign::sum_shard_size;
use crate::distance::sq_dist_bounded;
use crate::error::KMeansError;
use crate::kernel::{AssignKernel, KernelStats, BOUND_FLOOR};
use kmeans_data::{ChunkedSource, DataError, PointMatrix};
use kmeans_par::Executor;
use std::ops::Range;

/// Converts a data-layer block failure into the typed clustering error.
fn source_err(e: DataError) -> KMeansError {
    KMeansError::Data(e.to_string())
}

/// The data a local pass runs over: resident rows or a block-resident
/// source. Both are visited as blocks ([`LocalData::for_each_block`]), so
/// every local pass has one implementation. What
/// [`RoundBackend::local`](crate::driver::RoundBackend::local) returns.
#[derive(Clone, Copy, Debug)]
pub enum LocalData<'a> {
    /// A resident matrix — one block at row 0, lent by reference — plus
    /// the per-point weights of a weighted fit.
    Resident {
        /// The rows.
        points: &'a PointMatrix,
        /// Per-point weights, when the fit is weighted.
        weights: Option<&'a [f64]>,
    },
    /// A block-resident source, read block by block.
    Blocks(&'a dyn ChunkedSource),
}

impl<'a> From<&'a PointMatrix> for LocalData<'a> {
    /// Unweighted resident rows.
    fn from(points: &'a PointMatrix) -> Self {
        LocalData::Resident {
            points,
            weights: None,
        }
    }
}

impl<'a> LocalData<'a> {
    /// Total number of rows.
    pub fn len(&self) -> usize {
        match self {
            LocalData::Resident { points, .. } => points.len(),
            LocalData::Blocks(source) => source.len(),
        }
    }

    /// Whether there are no rows.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Row dimensionality.
    pub fn dim(&self) -> usize {
        match self {
            LocalData::Resident { points, .. } => points.dim(),
            LocalData::Blocks(source) => source.dim(),
        }
    }

    /// The per-point weights of a weighted fit (resident data only).
    pub fn weights(&self) -> Option<&'a [f64]> {
        match self {
            LocalData::Resident { weights, .. } => *weights,
            LocalData::Blocks(_) => None,
        }
    }

    /// Rows per visited block — all of them for resident data.
    fn block_rows(&self) -> usize {
        match self {
            LocalData::Resident { points, .. } => points.len().max(1),
            LocalData::Blocks(source) => source.block_rows(),
        }
    }

    /// A reusable read buffer for [`LocalData::gather_rows_into`]: a
    /// source's block buffer, or an empty matrix for resident rows, which
    /// are lent instead of read.
    pub fn block_buffer(&self) -> PointMatrix {
        match self {
            LocalData::Resident { points, .. } => PointMatrix::new(points.dim()),
            LocalData::Blocks(source) => source.block_buffer(),
        }
    }

    /// Block `b`: the resident rows themselves, or the source's block —
    /// lent if the source holds it resident, otherwise read into `buf`
    /// ([`ChunkedSource::lend_block`]).
    fn block<'b>(&self, b: usize, buf: &'b mut PointMatrix) -> Result<&'b PointMatrix, KMeansError>
    where
        'a: 'b,
    {
        match *self {
            LocalData::Resident { points, .. } => Ok(points),
            LocalData::Blocks(source) => source.lend_block(b, buf).map_err(source_err),
        }
    }

    /// Drives one full pass: hands every block, in row order, to
    /// `f(first_row, block)`. Resident rows are one block, lent; a
    /// source's blocks are lent or read into one reused buffer
    /// ([`ChunkedSource::lend_block`]). Public so out-of-crate stages (the
    /// streaming seeders) share the same pass loop and error mapping.
    pub fn for_each_block<F>(&self, mut f: F) -> Result<(), KMeansError>
    where
        F: FnMut(usize, &PointMatrix) -> Result<(), KMeansError>,
    {
        let mut buf = self.block_buffer();
        let rows = self.block_rows();
        for b in 0..self.len().div_ceil(rows) {
            f(b * rows, self.block(b, &mut buf)?)?;
        }
        Ok(())
    }

    /// Shape checks of the seeding contract for `k` clusters: non-empty
    /// data and `1 ≤ k ≤ n` ([`validate_shape`]). Finiteness is checked by
    /// the first full pass instead, so it costs no pass of its own (see
    /// [`crate::cost`]).
    pub fn validate(&self, k: usize) -> Result<(), KMeansError> {
        validate_shape(self.len(), self.dim(), k, self.dim())
    }

    /// The refinement contract: non-empty data, `1 ≤ |centers| ≤ n`,
    /// matching dimensionality ([`validate_shape`]).
    pub fn validate_refine(&self, centers: &PointMatrix) -> Result<(), KMeansError> {
        validate_shape(self.len(), self.dim(), centers.len(), centers.dim())
    }

    /// One sequential pass rejecting the first non-finite coordinate in
    /// row order — run when a pass's sum came out infinite, and by stages
    /// whose first pass runs no kernel (k-means++ with `k = 1`).
    pub fn check_finite(&self) -> Result<(), KMeansError> {
        self.for_each_block(|start, block| check_block_finite(block, start))
    }

    /// Fetches the rows at `indices` (any order, duplicates allowed) into
    /// `out` (cleared first; its dimensionality must match), preserving
    /// the request order. Resident rows are copied straight out; a
    /// source's are read by [`ChunkedSource::read_rows`], with `buf` (from
    /// [`LocalData::block_buffer`]) as the buffer of any block it reads
    /// whole, so repeated mini-batch gathers that reuse `buf` and `out`
    /// read no block into a fresh allocation.
    pub fn gather_rows_into(
        &self,
        indices: &[usize],
        buf: &mut PointMatrix,
        out: &mut PointMatrix,
    ) -> Result<(), KMeansError> {
        let dim = self.dim();
        if out.dim() != dim {
            return Err(KMeansError::DimensionMismatch {
                expected: dim,
                got: out.dim(),
            });
        }
        match *self {
            LocalData::Resident { points, .. } => {
                out.clear();
                for &i in indices {
                    out.push(points.row(i)).map_err(source_err)?;
                }
                Ok(())
            }
            LocalData::Blocks(source) => source.read_rows(indices, buf, out).map_err(source_err),
        }
    }

    /// [`LocalData::gather_rows_into`] into a fresh matrix.
    pub fn gather_rows(
        &self,
        indices: &[usize],
        buf: &mut PointMatrix,
    ) -> Result<PointMatrix, KMeansError> {
        let mut out = PointMatrix::with_capacity(self.dim(), indices.len());
        self.gather_rows_into(indices, buf, &mut out)?;
        Ok(out)
    }
}

/// The input contract on data of `n` rows × `dim` columns, for `k`
/// centers of `center_dim` columns: non-empty data, `1 ≤ k ≤ n`, matching
/// dimensionality. One function behind every backend's seeding check
/// (`center_dim = dim`) and refinement check, local or distributed.
pub fn validate_shape(
    n: usize,
    dim: usize,
    k: usize,
    center_dim: usize,
) -> Result<(), KMeansError> {
    if n == 0 {
        return Err(KMeansError::EmptyInput);
    }
    if k == 0 || k > n {
        return Err(KMeansError::InvalidK { k, n });
    }
    if dim != center_dim {
        return Err(KMeansError::DimensionMismatch {
            expected: dim,
            got: center_dim,
        });
    }
    Ok(())
}

/// Rejects NaN/∞ coordinates in one block, reporting the first in row
/// order with its data-level point index (`row_offset` is the block's
/// first row).
pub fn check_block_finite(block: &PointMatrix, row_offset: usize) -> Result<(), KMeansError> {
    if let Some(at) = block.as_slice().iter().position(|v| !v.is_finite()) {
        return Err(KMeansError::NonFiniteData {
            point: row_offset + at / block.dim(),
            dim: at % block.dim(),
        });
    }
    Ok(())
}

/// One piece of a visited block (see the module docs).
pub(crate) struct Piece<'p> {
    /// The visited block.
    pub block: &'p PointMatrix,
    /// The piece's rows, as block row indices.
    pub rows: Range<usize>,
    /// The block's first row, as a data row index.
    pub start: usize,
}

/// The per-row outputs a pass keeps, which [`fold_pieces`] cuts at the
/// same rows as the data: a slice, an output the pass drops (`None`), or
/// a pair of them.
pub(crate) trait RowOutputs: Default + Send {
    /// The outputs of the first `rows` rows, and of the rest.
    fn split_rows(self, rows: usize) -> (Self, Self);
}

impl<T: Send> RowOutputs for &mut [T] {
    fn split_rows(self, rows: usize) -> (Self, Self) {
        self.split_at_mut(rows)
    }
}

impl<O: RowOutputs> RowOutputs for Option<O> {
    fn split_rows(self, rows: usize) -> (Self, Self) {
        match self {
            Some(out) => {
                let (head, tail) = out.split_rows(rows);
                (Some(head), Some(tail))
            }
            None => (None, None),
        }
    }
}

impl<A: RowOutputs, B: RowOutputs> RowOutputs for (A, B) {
    fn split_rows(self, rows: usize) -> (Self, Self) {
        let (a, a_tail) = self.0.split_rows(rows);
        let (b, b_tail) = self.1.split_rows(rows);
        ((a, b), (a_tail, b_tail))
    }
}

/// The piece loop behind every pass over rows: visits `data`'s blocks in
/// order, cuts each at the cells of the global grid of `grid` rows (data
/// row `r` sits at global row `row_offset + r`), and runs `piece` on
/// every piece in parallel on `exec` with the piece's cut of the per-row
/// outputs `out` (one entry per data row). A piece folds from `None`
/// (zero), except a block's first piece, which receives the partial
/// carried over the block edge. Returns one fold per grid cell the data
/// touches, in order.
pub(crate) fn fold_pieces<O, S, F>(
    data: LocalData<'_>,
    exec: &Executor,
    grid: usize,
    row_offset: usize,
    out: O,
    piece: F,
) -> Result<Vec<S>, KMeansError>
where
    O: RowOutputs,
    S: Send,
    F: Fn(Piece<'_>, O, Option<S>) -> Result<S, KMeansError> + Sync,
{
    let mut folds = Vec::new();
    let mut carried: Option<S> = None;
    let mut unvisited = out;
    data.for_each_block(|start, block| {
        let end = start + block.len();
        let (mut rest, tail) = std::mem::take(&mut unvisited).split_rows(block.len());
        unvisited = tail;
        let mut carry = carried.take();
        let mut cut = start;
        let mut items = Vec::new();
        while cut < end {
            let next = (cut + grid - (row_offset + cut) % grid).min(end);
            let (chunk, tail) = std::mem::take(&mut rest).split_rows(next - cut);
            rest = tail;
            items.push((cut - start..next - start, chunk, carry.take()));
            cut = next;
        }
        let results = exec.map_pieces(items, |_, (rows, chunk, carry)| {
            piece(Piece { block, rows, start }, chunk, carry)
        });
        // A block's last piece stays open unless it ends a grid cell.
        let closes = (row_offset + end).is_multiple_of(grid);
        let count = results.len();
        for (i, result) in results.into_iter().enumerate() {
            let fold = result?;
            if i + 1 < count || closes {
                folds.push(fold);
            } else {
                carried = Some(fold);
            }
        }
        Ok(())
    })?;
    folds.extend(carried);
    Ok(folds)
}

/// What a pass at a new center set knows of each row's nearest center,
/// and so how it finds it. Every kind gives the same labels and `d²`
/// bits; they move only the kernel counters and the time. Most kinds
/// read the pass's label buffer, which the pass then writes each row's
/// label over. A [`LocalBackend`](crate::driver::LocalBackend) part picks
/// them by its one hint rule.
pub(crate) enum Hints<'h> {
    /// Nothing: the kernel's cold seed search.
    Cold,
    /// The buffer holds a center per row — labels at other centers — to
    /// seed the warm sweep ([`AssignKernel::assign_warm`]) from.
    Seeds,
    /// The buffer holds the seeding tracker's nearest candidate per row,
    /// mapped to a seed by this table: the center nearest each candidate.
    Tracker(Vec<u32>),
    /// The buffer holds each row's nearest center already: labels a pass
    /// found at bit-equal centers. Each row is evaluated once, at its
    /// label, and counts `k − 1` pruned pairs.
    Exact,
    /// The buffer holds the labels of the pass that left these bounds. A
    /// row the bounds, moved by the settler's drift, prove still nearest
    /// its center keeps its label and is evaluated once, as
    /// [`Hints::Exact`]; the warm kernel sweeps the rest from their
    /// labels.
    Settle(Settler, &'h [Bounds]),
}

impl Hints<'_> {
    /// The search seeds of the rows whose buffer entries are `buffer`:
    /// the entries, mapped through the tracker's table, copied into
    /// `scratch` before the pass writes over them.
    fn seeds<'s>(&self, buffer: &[u32], scratch: &'s mut Vec<u32>) -> Option<&'s [u32]> {
        scratch.clear();
        match self {
            Hints::Seeds => scratch.extend_from_slice(buffer),
            Hints::Tracker(table) => scratch.extend(buffer.iter().map(|&id| table[id as usize])),
            Hints::Cold | Hints::Exact | Hints::Settle(..) => return None,
        }
        Some(scratch)
    }

    /// Labels and `d²` of piece `p`'s rows at `kernel`'s centers
    /// (`centers`), written over the piece's buffer entries `labels`, with
    /// the kernel work in `stats`. Returns the rows whose label differs
    /// from their buffer entry.
    pub(crate) fn sweep(
        &self,
        kernel: &AssignKernel,
        centers: &PointMatrix,
        p: &Piece<'_>,
        labels: &mut [u32],
        d2: &mut [f64],
        stats: &mut KernelStats,
    ) -> u64 {
        let first = p.start + p.rows.start;
        let row = |off: usize| p.block.row(p.rows.start + off);
        let at_label = |off: usize, label: u32, stats: &mut KernelStats| {
            stats.distance_computations += 1;
            stats.pruned_by_norm_bound += centers.len() as u64 - 1;
            sq_dist_bounded(row(off), centers.row(label as usize), f64::INFINITY)
        };
        let mut moved = 0;
        match self {
            Hints::Exact => {
                for (off, (&label, d)) in labels.iter().zip(d2).enumerate() {
                    *d = at_label(off, label, stats);
                }
            }
            Hints::Settle(settler, bounds) => {
                for (off, (label, d)) in labels.iter_mut().zip(d2).enumerate() {
                    let old = *label;
                    if settler.settle(old, bounds[first + off]).is_some() {
                        *d = at_label(off, old, stats);
                        continue;
                    }
                    (*label, *d) = kernel.nearest_warm(row(off), old, stats);
                    moved += u64::from(*label != old);
                }
            }
            _ => {
                let mut scratch = Vec::new();
                let hints = self.seeds(labels, &mut scratch);
                stats.absorb(kernel.assign_warm(p.block, p.rows.clone(), hints, labels, d2));
                if let Hints::Seeds = self {
                    moved = labels.iter().zip(&scratch).filter(|(a, b)| a != b).count() as u64;
                }
            }
        }
        moved
    }
}

/// One accumulation shard's partial from an assignment pass: per-cluster
/// coordinate sums and counts, the shard's cost contribution, and its
/// farthest point (`(usize::MAX, -∞)` when the shard saw no rows — never
/// produced by [`assign_partials`], but representable on the wire).
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

    /// Adds `row` to cluster `c`'s sum and count.
    fn add(&mut self, c: usize, row: &[f64]) {
        self.counts[c] += 1;
        let d = row.len();
        for (acc, &v) in self.sums[c * d..(c + 1) * d].iter_mut().zip(row) {
            *acc += v;
        }
    }
}

/// The assignment pass — the inner step of Lloyd's iteration and of
/// every labeling pass: labels for `data`'s rows plus one
/// [`AccumShard`] per accumulation shard of the **global** layout
/// (`sum_shard_size` of `global_n`, a fixed-count layout — see
/// [`crate::assign::MAX_SUM_SHARDS`]), in shard order. `row_offset` is
/// the global index of `data`'s first row; farthest-point records carry
/// global indices. [`fold_accum_shards`] folds the partials into one
/// [`ClusterSums`](crate::assign::ClusterSums).
///
/// Every piece (module docs) runs the kernel sweep over its rows, then
/// its left fold over the same, still-warm rows; the pieces of a block
/// run in parallel on `exec`. On resident data the pieces are the
/// accumulation shards themselves. Scratch is sized per piece, so the
/// pass allocates nothing row-sized beyond the labels it returns.
///
/// A [`LocalBackend`](crate::driver::LocalBackend) part calls this on
/// its rows: the local backend's one part with `row_offset = 0` and
/// `global_n = n`, a distributed worker's part with its own range (its
/// `row_offset` is validated to sit on an accumulation-shard boundary).
/// The driver's fold ([`crate::driver::fold_assign`]) concatenates the
/// parts' partials in row order and folds them with
/// [`fold_accum_shards`] — the single-node fold bit for bit.
///
/// The returned [`KernelStats`] account for this pass's kernel work
/// (distance evaluations performed / bound prunes); workers ship them as
/// the trailing stats field of their partials frame.
///
/// `hints` are the labels of a previous pass over the same rows: they
/// seed the kernel's warm sweep ([`AssignKernel::assign_warm`]), which
/// changes only the counters and the time. Hints of the wrong length are
/// ignored.
pub fn assign_partials(
    data: LocalData<'_>,
    centers: &PointMatrix,
    exec: &Executor,
    row_offset: usize,
    global_n: usize,
    hints: Option<&[u32]>,
) -> Result<(Vec<u32>, Vec<AccumShard>, KernelStats), KMeansError> {
    let hints = hints.filter(|h| h.len() == data.len());
    let buffer = hints.map_or_else(|| vec![0; data.len()], <[u32]>::to_vec);
    let pass = assign_pass(
        data,
        centers,
        exec,
        row_offset,
        global_n,
        buffer,
        |_| hints.map_or(Hints::Cold, |_| Hints::Seeds),
        Keep::Sums,
    )?;
    Ok((pass.labels, pass.shards, pass.stats))
}

/// What a full assignment pass keeps beside its labels.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub(crate) enum Keep {
    /// Each accumulation shard's cost alone: a labels-and-cost pass. Its
    /// partials carry no sums, counts or farthest point.
    Cost,
    /// Each shard's sums, counts, cost and farthest point
    /// ([`assign_partials`]).
    Sums,
    /// Those, and the [`Refinement`] the bounded passes that follow start
    /// from ([`refine_pass`]).
    Refinement,
}

/// What a full assignment pass returns.
pub(crate) struct FullPass {
    /// Every row's label.
    pub labels: Vec<u32>,
    /// One partial per accumulation shard, in shard order, as [`Keep`]
    /// asks.
    pub shards: Vec<AccumShard>,
    /// The pass's kernel counters.
    pub stats: KernelStats,
    /// Rows whose label differs from their entry in the label buffer.
    pub moved: u64,
    /// With [`Keep::Refinement`], what the next bounded pass starts from.
    pub refinement: Option<Refinement>,
}

/// [`assign_partials`] seeded by `hints`, which picks the pass's
/// [`Hints`] given the pass's one kernel once the shape checks passed.
/// `labels` is the pass's label buffer, one entry per row: the hints read
/// it (a previous pass's labels, the seeding tracker's nearest ids), and
/// each piece writes its rows' labels over their entries, so the pass
/// allocates nothing row-sized for its labels. What it keeps beside them
/// is `keep`'s.
#[allow(clippy::too_many_arguments)]
pub(crate) fn assign_pass<'h>(
    data: LocalData<'_>,
    centers: &PointMatrix,
    exec: &Executor,
    row_offset: usize,
    global_n: usize,
    mut labels: Vec<u32>,
    hints: impl FnOnce(&AssignKernel) -> Hints<'h>,
    keep: Keep,
) -> Result<FullPass, KMeansError> {
    if data.is_empty() {
        return Err(KMeansError::EmptyInput);
    }
    if centers.is_empty() || centers.len() > global_n {
        return Err(KMeansError::InvalidK {
            k: centers.len(),
            n: global_n,
        });
    }
    if data.dim() != centers.dim() {
        return Err(KMeansError::DimensionMismatch {
            expected: data.dim(),
            got: centers.dim(),
        });
    }
    let (n, k, d) = (data.len(), centers.len(), data.dim());
    let kernel = AssignKernel::new(centers);
    let hints = hints(&kernel);
    let grid = sum_shard_size(exec, global_n);
    let refine = keep == Keep::Refinement;
    let mut bounds = refine.then(|| vec![Bounds::default(); n]);
    let mut edges = match refine {
        true => inner_edges(data, grid, row_offset, k, d),
        false => Vec::new(),
    };
    let (kept_k, kept_d) = match keep {
        Keep::Cost => (0, 0),
        Keep::Sums | Keep::Refinement => (k, d),
    };
    let out = (
        &mut labels[..],
        (bounds.as_deref_mut(), EdgeStates::new(&mut edges)),
    );
    let folds = fold_pieces(
        data,
        exec,
        grid,
        row_offset,
        out,
        |p, (labels, (bounds, edge)), carry| {
            let first = p.start + p.rows.start;
            let mut d2 = vec![0.0f64; p.rows.len()];
            let (mut shard, mut stats, mut moved) = carry
                .unwrap_or_else(|| (AccumShard::new(kept_k, kept_d), KernelStats::default(), 0));
            moved += hints.sweep(&kernel, centers, &p, labels, &mut d2, &mut stats);
            for (off, b) in bounds.into_iter().flatten().enumerate() {
                let row = p.block.row(p.rows.start + off);
                *b = Bounds::swept(&kernel, row, labels[off], d2[off], &mut stats);
            }
            for (off, &dist) in d2.iter().enumerate() {
                shard.cost += dist;
                if keep != Keep::Cost {
                    if dist > shard.farthest.1 {
                        shard.farthest = (row_offset + first + off, dist);
                    }
                    shard.add(labels[off] as usize, p.block.row(p.rows.start + off));
                }
            }
            edge.record(&shard);
            Ok((shard, stats, moved))
        },
    )?;
    let (mut stats, mut moved) = (KernelStats::default(), 0);
    let shards: Vec<AccumShard> = folds
        .into_iter()
        .map(|(shard, shard_stats, shard_moved)| {
            stats.absorb(shard_stats);
            moved += shard_moved;
            shard
        })
        .collect();
    let refinement = bounds.map(|bounds| Refinement {
        bounds,
        centers: centers.clone(),
        shards: shards.clone(),
        edges,
    });
    Ok(FullPass {
        labels,
        shards,
        stats,
        moved,
        refinement,
    })
}

/// A zeroed fold state — `k` clusters' sums and counts in `d`
/// dimensions, `k·(d+1)` values — at every block edge inside an
/// accumulation shard of `grid` rows (a data row where a block of `data`
/// ends and its shard goes on): where a pass that leaves a [`Refinement`]
/// keeps its fold state. They are kept only while a state fits in its
/// block's bounds (`k·(d+1)` at most the block's rows, 8 B each), so they
/// never take more than the bounds do; otherwise there are none, and a
/// bounded pass folds a split shard in full. Resident rows are one block,
/// and have none.
fn inner_edges(
    data: LocalData<'_>,
    grid: usize,
    row_offset: usize,
    k: usize,
    d: usize,
) -> Vec<(usize, AccumShard)> {
    let rows = data.block_rows();
    if k * (d + 1) > rows {
        return Vec::new();
    }
    (rows..data.len())
        .step_by(rows)
        .filter(|&at| !(row_offset + at).is_multiple_of(grid))
        .map(|at| (at, AccumShard::new(k, d)))
        .collect()
}

/// The fold states a part keeps at the block edges inside its
/// accumulation shards ([`inner_edges`]), as a per-row output of the
/// piece loop: the state at an edge belongs to the rows that end there,
/// so the one piece that ends at the edge holds it.
#[derive(Default)]
struct EdgeStates<'e> {
    /// The data row of the first row this view covers.
    start: usize,
    /// `(edge row, fold state)` pairs, by ascending edge row.
    slots: &'e mut [(usize, AccumShard)],
}

impl<'e> EdgeStates<'e> {
    fn new(slots: &'e mut [(usize, AccumShard)]) -> Self {
        EdgeStates { start: 0, slots }
    }

    /// The fold state kept at the edge this piece ends at, if any.
    fn state(&self) -> Option<&AccumShard> {
        self.slots.first().map(|(_, state)| state)
    }

    /// Keeps `fold`'s sums and counts as the state at the edge this piece
    /// ends at, if any.
    fn record(self, fold: &AccumShard) {
        for (_, state) in self.slots {
            state.sums.copy_from_slice(&fold.sums);
            state.counts.copy_from_slice(&fold.counts);
        }
    }
}

impl RowOutputs for EdgeStates<'_> {
    fn split_rows(self, rows: usize) -> (Self, Self) {
        let end = self.start + rows;
        let cut = self.slots.partition_point(|&(at, _)| at <= end);
        let (head, tail) = self.slots.split_at_mut(cut);
        let head = EdgeStates {
            start: self.start,
            slots: head,
        };
        (
            head,
            EdgeStates {
                start: end,
                slots: tail,
            },
        )
    }
}

/// One row's carried bounds between Lloyd passes, on *true* (not
/// squared) distances, each kept as an `f32` rounded outward: `upper` is
/// at least the distance to the row's own center, `lower` at most the
/// distance to every other center. 8 bytes per row.
#[derive(Clone, Copy, Debug, Default, PartialEq)]
pub(crate) struct Bounds {
    upper: f32,
    lower: f32,
}

impl Bounds {
    /// The bounds of a row the kernel just swept to `label` at canonical
    /// squared distance `dist`: the distance itself, inflated by the
    /// kernel's slack, above, and the winner's own-list bound
    /// ([`AssignKernel::other_bound`]) below — so a row's bounds depend on
    /// the row and the centers alone, never on the seed of its search.
    fn swept(
        kernel: &AssignKernel,
        row: &[f64],
        label: u32,
        dist: f64,
        stats: &mut KernelStats,
    ) -> Self {
        Bounds {
            upper: up32(dist.sqrt() * (1.0 + kernel.guard()) + BOUND_FLOOR),
            lower: down32(kernel.other_bound(row, label, dist, stats)),
        }
    }
}

/// A non-negative `x` as an `f32` no smaller than `x` (`NaN` stays
/// `NaN`, values above `f32::MAX` become `∞`), without a branch.
fn up32(x: f64) -> f32 {
    debug_assert!(x.is_nan() || x >= 0.0, "up32({x})");
    let y = x as f32;
    f32::from_bits(y.to_bits() + u32::from(f64::from(y) < x))
}

/// A non-negative `x` as an `f32` no larger than `x` (`NaN` stays
/// `NaN`, finite values above `f32::MAX` become `f32::MAX`), without a
/// branch.
fn down32(x: f64) -> f32 {
    debug_assert!(x.is_nan() || x >= 0.0, "down32({x})");
    let y = x as f32;
    f32::from_bits(y.to_bits() - u32::from(f64::from(y) > x))
}

/// What a part carries from one Lloyd pass to the next, beside its
/// labels: every row's [`Bounds`], the pass's centers, its partial of
/// every accumulation shard it covers (the sums and counts the next pass
/// re-folds only where membership changed), and the fold state at every
/// block edge inside such a shard ([`inner_edges`]).
pub(crate) struct Refinement {
    bounds: Vec<Bounds>,
    centers: PointMatrix,
    shards: Vec<AccumShard>,
    edges: Vec<(usize, AccumShard)>,
}

impl Refinement {
    /// Whether a pass at `centers` can start from this state: the same
    /// number of centers, of the same dimensionality.
    pub(crate) fn carries(&self, centers: &PointMatrix) -> bool {
        self.centers.len() == centers.len() && self.centers.dim() == centers.dim()
    }

    /// The hints of a labels-and-cost pass at `centers` (`kernel`'s) over
    /// the labels this state's pass left: each row settles on its bounds,
    /// moved by the drift of the centers since that pass.
    pub(crate) fn settle(&self, kernel: &AssignKernel, centers: &PointMatrix) -> Hints<'_> {
        Hints::Settle(Settler::new(kernel, centers, &self.centers), &self.bounds)
    }
}

/// One piece's fold in a bounded pass: its shard partial, the clusters
/// whose membership changed in its shard so far, counters, and moved and
/// settled rows.
struct RefineFold {
    shard: AccumShard,
    dirty: Vec<bool>,
    stats: KernelStats,
    moved: u64,
    settled: u64,
}

/// The bounded assignment pass: [`assign_partials`] at `centers` for rows
/// whose previous pass left `labels` and `state`, sweeping only the rows
/// that can have changed. Returns the rows that changed label, one
/// partial per accumulation shard, and the counters; `labels` and
/// `state` move to these centers.
///
/// 1. Every row's bounds move by the drift of the centers since
///    `state`'s pass ([`Settler`]). A row whose upper bound stays below
///    its lower bound, or inside its center's separation certificate,
///    keeps its label, proven: its center is its unique nearest. A
///    settled row counts `k` pruned pairs.
/// 2. The warm kernel sweeps the other rows, seeded at their labels, and
///    gives each fresh [`Bounds`].
/// 3. Each piece re-folds, in row order, only the clusters whose
///    membership changed in its accumulation shard so far, starting from
///    the fold state at the piece's start: zero at the shard's start,
///    otherwise the state carried over the block edge. Every other
///    cluster's state at the piece's end is the previous pass's: the
///    shard's previous partial at the shard's end, the state kept at a
///    block edge inside the shard ([`inner_edges`]) otherwise — which the
///    piece then replaces with its own. The same bits as a full fold,
///    since each cluster's sum is its own left fold. Where no state is
///    kept at an edge, the shard folds every row from there on, as the
///    full pass does.
///
/// Labels, sums and counts are [`assign_partials`]' bits. Each partial's
/// `cost` is instead the row-ordered sum, over the rows that moved, of
/// `d²(new label) − d²(old label)` at `centers`, and it has no farthest
/// point: the driver tracks the potential from these deltas and repeats a
/// pass in full when it needs farthest points.
pub(crate) fn refine_pass(
    data: LocalData<'_>,
    centers: &PointMatrix,
    exec: &Executor,
    row_offset: usize,
    global_n: usize,
    labels: &mut [u32],
    state: &mut Refinement,
) -> Result<(u64, Vec<AccumShard>, KernelStats), KMeansError> {
    let (n, k, d) = (data.len(), centers.len(), data.dim());
    let Refinement {
        bounds,
        centers: prev_centers,
        shards: prev_shards,
        edges,
    } = state;
    let kernel = AssignKernel::new(centers);
    let settler = Settler::new(&kernel, centers, prev_centers);
    let grid = sum_shard_size(exec, global_n);
    let closes = |r: usize| r == n || (row_offset + r).is_multiple_of(grid);
    let first_cell = row_offset / grid;
    let out = (&mut labels[..], (&mut bounds[..], EdgeStates::new(edges)));
    let folds = fold_pieces(
        data,
        exec,
        grid,
        row_offset,
        out,
        |p, (labels, (bounds, edge)), carry: Option<RefineFold>| {
            let first = p.start + p.rows.start;
            let len = p.rows.len();
            let mut fold = carry.unwrap_or_else(|| RefineFold {
                shard: AccumShard::new(k, d),
                dirty: vec![false; k],
                stats: KernelStats::default(),
                moved: 0,
                settled: 0,
            });
            let row = |off: usize| p.block.row(p.rows.start + off);
            for off in 0..len {
                let old = labels[off];
                if let Some(moved) = settler.settle(old, bounds[off]) {
                    bounds[off] = moved;
                    fold.settled += 1;
                    continue;
                }
                let (label, dist) = kernel.nearest_warm(row(off), old, &mut fold.stats);
                bounds[off] = Bounds::swept(&kernel, row(off), label, dist, &mut fold.stats);
                if label != old {
                    let was = sq_dist_bounded(row(off), centers.row(old as usize), f64::INFINITY);
                    fold.stats.distance_computations += 1;
                    fold.shard.cost += dist - was;
                    fold.moved += 1;
                    labels[off] = label;
                    fold.dirty[old as usize] = true;
                    fold.dirty[label as usize] = true;
                }
            }
            // The clean clusters' state at the piece's end, as the
            // previous pass left it.
            let kept = match closes(first + len) {
                true => Some(&prev_shards[(row_offset + first) / grid - first_cell]),
                false => edge.state(),
            };
            match kept {
                Some(prev) => {
                    for c in (0..k).filter(|&c| !fold.dirty[c]) {
                        let span = c * d..(c + 1) * d;
                        fold.shard.sums[span.clone()].copy_from_slice(&prev.sums[span]);
                        fold.shard.counts[c] = prev.counts[c];
                    }
                }
                None => fold.dirty.fill(true),
            }
            if fold.dirty.contains(&true) {
                for (off, &c) in labels.iter().enumerate() {
                    if fold.dirty[c as usize] {
                        fold.shard.add(c as usize, row(off));
                    }
                }
            }
            edge.record(&fold.shard);
            Ok(fold)
        },
    )?;
    let mut stats = KernelStats::default();
    let mut moved = 0;
    let shards: Vec<AccumShard> = folds
        .into_iter()
        .map(|fold| {
            stats.absorb(fold.stats);
            stats.pruned_by_norm_bound += fold.settled * k as u64;
            moved += fold.moved;
            fold.shard
        })
        .collect();
    prev_shards.clone_from(&shards);
    prev_centers.clone_from(centers);
    Ok((moved, shards, stats))
}

/// What the drift of the centers since the pass that left a row's bounds
/// lets those bounds prove at the new centers (true distances, with the
/// kernel's slack `g`): per center, its drift, the largest drift of any
/// other center, and its settle limit with that limit's `√(4·limit)`.
pub(crate) struct Settler {
    drift: Vec<f64>,
    others: Vec<f64>,
    limits: Vec<(f64, f64)>,
    g: f64,
}

impl Settler {
    fn new(kernel: &AssignKernel, centers: &PointMatrix, prev: &PointMatrix) -> Self {
        let g = kernel.guard();
        let k = centers.len();
        let drift: Vec<f64> = (0..k)
            .map(|c| {
                let s = sq_dist_bounded(centers.row(c), prev.row(c), f64::INFINITY);
                s.sqrt() * (1.0 + g) + BOUND_FLOOR
            })
            .collect();
        let top = (0..k).fold(0, |t, c| if drift[c] > drift[t] { c } else { t });
        let second = (0..k)
            .filter(|&c| c != top)
            .fold(0.0f64, |m, c| m.max(drift[c]));
        let others = (0..k)
            .map(|c| if c == top { second } else { drift[top] })
            .collect();
        let limits = (0..k)
            .map(|c| {
                let limit = kernel.settle_limit(c);
                (limit, (4.0 * limit).sqrt())
            })
            .collect();
        Settler {
            drift,
            others,
            limits,
            g,
        }
    }

    /// The bounds `b` of a row labelled `label`, moved to the new
    /// centers, if they settle it: the upper bound grows by its center's
    /// drift and the lower one shrinks by the largest other drift, or
    /// rises to what the center's certificate gives (every other center
    /// is at least `√S − upper` away, `S` its separation); the row
    /// settles when its upper bound stays below its lower bound or inside
    /// the certificate.
    #[inline]
    fn settle(&self, label: u32, b: Bounds) -> Option<Bounds> {
        // The sum and difference below round by at most half an ulp each.
        const UP: f64 = 1.0 + 4.0 * f64::EPSILON;
        const DOWN: f64 = 1.0 - 4.0 * f64::EPSILON;
        let a = label as usize;
        let (limit, root) = self.limits[a];
        let upper = (f64::from(b.upper) + self.drift[a]) * UP;
        // An upper bound on the root of the canonical `d²` to `a`.
        let reach = upper * (1.0 + self.g) + BOUND_FLOOR;
        let certified = (root - reach) * (1.0 - self.g);
        let lower = ((f64::from(b.lower) - self.others[a]) * DOWN).max(certified);
        (reach < lower * (1.0 - self.g) || reach * reach < limit).then(|| Bounds {
            upper: up32(upper),
            lower: down32(lower),
        })
    }
}

/// Folds accumulation-shard partials (in shard order) into one
/// [`ClusterSums`](crate::assign::ClusterSums) — the assignment pass's
/// reducer. [`AccumShard`]s carry no kernel counters (those travel
/// separately, summed order-free), so the folded `stats` start at zero;
/// the driver's fold ([`crate::driver::fold_assign`]) adds them
/// afterwards.
pub fn fold_accum_shards<'s>(
    k: usize,
    d: usize,
    shards: impl IntoIterator<Item = &'s AccumShard>,
) -> crate::assign::ClusterSums {
    let mut out = crate::assign::ClusterSums {
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
    use crate::assign::ClusterSums;
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

    fn assign_and_fold(
        data: LocalData<'_>,
        centers: &PointMatrix,
        exec: &Executor,
    ) -> (Vec<u32>, ClusterSums) {
        let (labels, partials, stats) =
            assign_partials(data, centers, exec, 0, data.len(), None).unwrap();
        let mut sums = fold_accum_shards(centers.len(), data.dim(), &partials);
        sums.stats = stats;
        (labels, sums)
    }

    #[test]
    fn pieces_fold_each_grid_cell_once_for_any_block_split() {
        let values: Vec<f64> = (0..1000).map(|i| ((i as f64) * 1.37).sqrt()).collect();
        let m = PointMatrix::from_flat(values.clone(), 1).unwrap();
        for grid in [1, 7, 64, 1000, 2048] {
            let expected: Vec<f64> = values.chunks(grid).map(|c| c.iter().sum()).collect();
            for threads in [Parallelism::Sequential, Parallelism::Threads(3)] {
                let exec = Executor::new(threads);
                for block_rows in [1usize, 3, 100, 1000] {
                    let src = source(&m, block_rows);
                    let data = LocalData::Blocks(&src);
                    // Each piece writes its data row indices into the kept
                    // output and nothing into the dropped one.
                    let mut rows_seen = vec![usize::MAX; m.len()];
                    let out = (&mut rows_seen[..], None::<&mut [f64]>);
                    let got = fold_pieces(data, &exec, grid, 0, out, |p, (seen, none), carry| {
                        assert!(none.is_none());
                        for (slot, r) in seen.iter_mut().zip(p.rows.clone()) {
                            *slot = p.start + r;
                        }
                        let rows = p.block.as_slice()[p.rows].iter();
                        Ok(rows.fold(carry.unwrap_or(0.0), |a, &b| a + b))
                    })
                    .unwrap();
                    assert_eq!(got, expected, "grid {grid}, block_rows {block_rows}");
                    assert!(rows_seen.iter().copied().eq(0..m.len()));
                }
            }
        }
    }

    #[test]
    fn first_non_finite_coordinate_wins_in_row_order() {
        let m =
            PointMatrix::from_flat(vec![0.0, 1.0, f64::NAN, 3.0, 4.0, f64::INFINITY], 2).unwrap();
        for block_rows in [1, 2, 3] {
            let src = source(&m, block_rows);
            for data in [LocalData::from(&m), LocalData::Blocks(&src)] {
                assert_eq!(
                    data.check_finite().unwrap_err(),
                    KMeansError::NonFiniteData { point: 1, dim: 0 }
                );
            }
        }
    }

    #[test]
    fn gather_preserves_request_order_and_duplicates() {
        let m = blobs(50);
        let indices = [49, 0, 17, 0, 33, 49];
        for block_rows in [1, 8, 50, 64] {
            let src = source(&m, block_rows);
            for data in [LocalData::from(&m), LocalData::Blocks(&src)] {
                let mut buf = data.block_buffer();
                let rows = data.gather_rows(&indices, &mut buf).unwrap();
                assert_eq!(rows.len(), indices.len());
                for (j, &i) in indices.iter().enumerate() {
                    assert_eq!(rows.row(j), m.row(i), "slot {j} (point {i})");
                }
            }
        }
    }

    #[test]
    fn assignment_pass_is_bit_identical_for_every_block_size() {
        let m = blobs(700);
        let centers = PointMatrix::from_flat(vec![0.0, 0.0, 40.0, 20.0, 80.0, 40.0], 2).unwrap();
        for threads in [Parallelism::Sequential, Parallelism::Threads(4)] {
            let exec = Executor::new(threads).with_shard_size(16);
            let (ref_labels, ref_sums) = assign_and_fold(LocalData::from(&m), &centers, &exec);
            for block_rows in [1, 9, 64, 350, 700, 4096] {
                let src = source(&m, block_rows);
                let (labels, sums) = assign_and_fold(LocalData::Blocks(&src), &centers, &exec);
                assert_eq!(labels, ref_labels, "block_rows {block_rows}");
                assert_eq!(sums.counts, ref_sums.counts);
                assert_eq!(sums.cost.to_bits(), ref_sums.cost.to_bits());
                assert_eq!(sums.farthest, ref_sums.farthest);
                assert_eq!(sums.stats, ref_sums.stats);
                let a: Vec<u64> = sums.sums.iter().map(|f| f.to_bits()).collect();
                let b: Vec<u64> = ref_sums.sums.iter().map(|f| f.to_bits()).collect();
                assert_eq!(a, b, "block_rows {block_rows}");
            }
        }
    }

    #[test]
    fn validation_rejects_bad_shapes() {
        let m = blobs(10);
        let src = source(&m, 4);
        for data in [LocalData::from(&m), LocalData::Blocks(&src)] {
            assert!(matches!(
                data.validate(0),
                Err(KMeansError::InvalidK { .. })
            ));
            assert!(matches!(
                data.validate(11),
                Err(KMeansError::InvalidK { .. })
            ));
            let wrong = PointMatrix::from_flat(vec![0.0], 1).unwrap();
            assert!(matches!(
                data.validate_refine(&wrong),
                Err(KMeansError::DimensionMismatch { .. })
            ));
        }
    }
}
