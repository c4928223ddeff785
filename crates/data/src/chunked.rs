//! Out-of-core datasets: the [`ChunkedSource`] abstraction.
//!
//! The whole point of k-means|| (Algorithm 2 of the paper) is that seeding
//! needs only `O(log n)` *full passes* over data that does not fit in one
//! machine's memory — each round of the algorithm is one scan. Everything
//! upstream of this module nevertheless required the dataset as an
//! in-memory [`PointMatrix`]. A [`ChunkedSource`] removes that assumption:
//! it yields the dataset as a sequence of aligned row *blocks*, so the
//! multi-pass algorithms in `kmeans-core` / `kmeans-streaming` can stream
//! block-resident data with a bounded memory footprint while keeping the
//! workspace's bit-reproducibility guarantees (see
//! `docs/ARCHITECTURE.md`).
//!
//! Implementations in this crate:
//!
//! * [`InMemorySource`] — adapter over a [`PointMatrix`]; the parity
//!   baseline (everything is "resident").
//! * [`CsvSource`] — block reader over a CSV file, indexed by byte offset
//!   at open time; exactly one block of parsed floats is resident at a
//!   time.
//! * [`BlockFileSource`](crate::blockfile::BlockFileSource) — binary block
//!   file reader with a configurable memory budget: it keeps the leading
//!   blocks its budget holds resident and lends them, and decodes every
//!   other block straight into the caller's buffer (see
//!   [`crate::blockfile`]).
//!
//! Residency accounting: every source reports a [`Residency`] snapshot —
//! the peak number of feature bytes it ever materialized at once — which
//! is what the out-of-core tests assert against the configured budget.

use crate::error::DataError;
use crate::io::LabelColumn;
use crate::matrix::PointMatrix;
use std::fmt;
use std::fs::File;
use std::io::{BufRead, BufReader, Seek, SeekFrom};
use std::ops::Range;
use std::path::Path;
use std::sync::Mutex;

/// A dataset exposed as a sequence of row-aligned blocks.
///
/// Blocks partition the row index space `[0, len)`: block `b` covers rows
/// `[b · block_rows, min((b+1) · block_rows, len))` — every block holds
/// exactly `block_rows` rows except possibly the last. Callers drive full
/// passes by reading blocks `0..num_blocks()` in order into a reused
/// buffer, so at most one block of feature data is materialized per pass
/// on the caller's side.
///
/// Implementations must be `Send + Sync` (the `KMeans` builder stores a
/// shared handle); internal reader state uses interior mutability.
///
/// ```
/// use kmeans_data::{ChunkedSource, InMemorySource, PointMatrix};
/// let m = PointMatrix::from_flat((0..10).map(f64::from).collect(), 2).unwrap();
/// let source = InMemorySource::new(m, 2).unwrap();
/// assert_eq!(source.len(), 5);
/// assert_eq!(source.num_blocks(), 3);
/// assert_eq!(source.block_range(2), 4..5); // the short tail block
/// let mut buf = source.block_buffer();
/// source.read_block(1, &mut buf).unwrap();
/// assert_eq!(buf.row(0), &[4.0, 5.0]);
/// ```
pub trait ChunkedSource: fmt::Debug + Send + Sync {
    /// Total number of rows.
    fn len(&self) -> usize;

    /// Whether the source holds no rows.
    fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Dimensionality of each row.
    fn dim(&self) -> usize;

    /// Rows per block (every block except possibly the last).
    fn block_rows(&self) -> usize;

    /// Number of blocks covering all rows.
    fn num_blocks(&self) -> usize {
        self.len().div_ceil(self.block_rows())
    }

    /// The global row range of block `block`.
    ///
    /// # Panics
    ///
    /// Panics if `block >= num_blocks()`.
    fn block_range(&self, block: usize) -> Range<usize> {
        let start = block * self.block_rows();
        assert!(start < self.len(), "block {block} out of range");
        start..(start + self.block_rows()).min(self.len())
    }

    /// Reads block `block` into `out`, replacing its previous contents.
    ///
    /// `out` must have the source's dimensionality (create it with
    /// [`ChunkedSource::block_buffer`]); on success it holds exactly
    /// `block_range(block).len()` rows.
    fn read_block(&self, block: usize, out: &mut PointMatrix) -> Result<(), DataError>;

    /// Block `block`, lent when the source holds it resident, otherwise
    /// read into `buf` (as [`ChunkedSource::read_block`]) and returned.
    ///
    /// The default always reads into `buf`. A source that keeps blocks
    /// resident overrides it so a pass visits them without a copy; the
    /// rows are the same either way.
    fn lend_block<'s>(
        &'s self,
        block: usize,
        buf: &'s mut PointMatrix,
    ) -> Result<&'s PointMatrix, DataError> {
        self.read_block(block, buf)?;
        Ok(buf)
    }

    /// A correctly-dimensioned, block-sized reusable read buffer.
    fn block_buffer(&self) -> PointMatrix {
        PointMatrix::with_capacity(self.dim(), self.block_rows())
    }

    /// Reads the rows at `indices` (any order, duplicates allowed) into
    /// `out`, replacing its contents, in request order. `out` must have the
    /// source's dimensionality; an index past the last row is an error.
    ///
    /// The default visits every block that holds a requested row once, in
    /// ascending order, through [`ChunkedSource::lend_block`] with `buf`
    /// (from [`ChunkedSource::block_buffer`]) as the read buffer, and
    /// copies the rows out. A source that can read single rows overrides
    /// it, so that a sparse gather reads only the rows it asks for; the
    /// rows are the same either way.
    fn read_rows(
        &self,
        indices: &[usize],
        buf: &mut PointMatrix,
        out: &mut PointMatrix,
    ) -> Result<(), DataError> {
        let order = gather_slots(self.len(), self.dim(), indices, out)?;
        let rows = self.block_rows();
        for run in order.chunk_by(|a, b| a.0 / rows == b.0 / rows) {
            let start = run[0].0 - run[0].0 % rows;
            let block = self.lend_block(start / rows, buf)?;
            for &(i, slot) in run {
                out.row_mut(slot).copy_from_slice(block.row(i - start));
            }
        }
        Ok(())
    }

    /// Memory-residency accounting snapshot (see [`Residency`]).
    fn residency(&self) -> Residency {
        Residency::default()
    }
}

/// Memory-residency accounting for a [`ChunkedSource`].
///
/// `peak_bytes` is the invariant the out-of-core tests assert: for a
/// budgeted reader it never exceeds `budget_bytes`, while the total
/// dataset size may be far larger.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct Residency {
    /// Maximum feature bytes the source ever materialized at once: the
    /// blocks it holds resident, plus the block it is filling into the
    /// caller's buffer, if any.
    pub peak_bytes: u64,
    /// Reads from the backing store: blocks decoded, and the runs of
    /// rows a gather read ([`ChunkedSource::read_rows`]).
    pub loads: u64,
    /// Block reads served from blocks the source already held resident,
    /// whether lent or copied out.
    pub hits: u64,
    /// The configured memory budget, if the source enforces one.
    pub budget_bytes: Option<u64>,
}

/// Sets `out` — which must have `dim` columns — to one zero row per
/// index, and returns the `(index, slot)` pairs by ascending index: the
/// order in which [`ChunkedSource::read_rows`] fills the slots. An index
/// of `len` rows or more is an error.
pub(crate) fn gather_slots(
    len: usize,
    dim: usize,
    indices: &[usize],
    out: &mut PointMatrix,
) -> Result<Vec<(usize, usize)>, DataError> {
    check_block_buffer(dim, out)?;
    if let Some(i) = indices.iter().find(|&&i| i >= len) {
        return Err(DataError::InvalidParam(format!(
            "row {i} is out of range for {len} rows"
        )));
    }
    out.clear();
    let zero = vec![0.0; dim];
    for _ in indices {
        out.push(&zero)?;
    }
    let mut order: Vec<(usize, usize)> = indices.iter().copied().zip(0..).collect();
    order.sort_unstable();
    Ok(order)
}

/// Checks the shared `read_block` buffer contract.
pub(crate) fn check_block_buffer(dim: usize, out: &PointMatrix) -> Result<(), DataError> {
    if out.dim() != dim {
        return Err(DataError::DimensionMismatch {
            expected: dim,
            got: out.dim(),
        });
    }
    Ok(())
}

/// [`ChunkedSource`] adapter over an in-memory [`PointMatrix`].
///
/// The parity baseline: chunked algorithms running on an `InMemorySource`
/// must produce bit-identical results to the in-memory entry points on the
/// wrapped matrix (asserted in `tests/chunked_parity.rs`), for *any* block
/// size. Its [`Residency`] reports the full matrix as permanently
/// resident, which is exactly what the abstraction exists to avoid.
#[derive(Clone, Debug)]
pub struct InMemorySource {
    matrix: PointMatrix,
    block_rows: usize,
}

impl InMemorySource {
    /// Wraps a matrix, serving it in blocks of `block_rows` rows.
    ///
    /// Fails with [`DataError::InvalidParam`] if `block_rows == 0` or the
    /// matrix is empty.
    pub fn new(matrix: PointMatrix, block_rows: usize) -> Result<Self, DataError> {
        if block_rows == 0 {
            return Err(DataError::InvalidParam(
                "block_rows must be positive".into(),
            ));
        }
        if matrix.is_empty() {
            return Err(DataError::Empty);
        }
        Ok(InMemorySource { matrix, block_rows })
    }

    /// The wrapped matrix.
    pub fn matrix(&self) -> &PointMatrix {
        &self.matrix
    }
}

impl ChunkedSource for InMemorySource {
    fn len(&self) -> usize {
        self.matrix.len()
    }

    fn dim(&self) -> usize {
        self.matrix.dim()
    }

    fn block_rows(&self) -> usize {
        self.block_rows
    }

    fn read_block(&self, block: usize, out: &mut PointMatrix) -> Result<(), DataError> {
        check_block_buffer(self.dim(), out)?;
        let range = self.block_range(block);
        out.clear();
        let dim = self.dim();
        out.extend_from_flat(&self.matrix.as_slice()[range.start * dim..range.end * dim])
    }

    fn residency(&self) -> Residency {
        let bytes = (self.matrix.len() * self.matrix.dim() * std::mem::size_of::<f64>()) as u64;
        Residency {
            peak_bytes: bytes,
            loads: 0,
            hits: 0,
            budget_bytes: None,
        }
    }
}

/// Block reader over a CSV file (the `kmeans-data` CSV conventions: plain
/// comma-separated floats, optional auto-detected header row, optional
/// integer label in the last column which is *dropped* — chunked fits
/// consume features only).
///
/// Opening performs one streaming pass that counts data rows, fixes the
/// dimensionality, and records the byte offset of each block's first row;
/// `read_block` then seeks and parses exactly one block. Only one block of
/// parsed floats is ever resident, so `peak_bytes ≈ block_rows · dim · 8`
/// regardless of file size.
pub struct CsvSource {
    file: Mutex<File>,
    stats: Mutex<Residency>,
    /// Byte offset and 1-based line number of each block's first data row.
    offsets: Vec<(u64, usize)>,
    rows: usize,
    dim: usize,
    block_rows: usize,
    labels: LabelColumn,
}

impl fmt::Debug for CsvSource {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("CsvSource")
            .field("rows", &self.rows)
            .field("dim", &self.dim)
            .field("block_rows", &self.block_rows)
            .finish()
    }
}

impl CsvSource {
    /// Opens a CSV file as a chunked source with `block_rows` rows per
    /// block. With [`LabelColumn::Last`] the final column is parsed and
    /// discarded (validated as numeric, not returned).
    pub fn open(
        path: impl AsRef<Path>,
        block_rows: usize,
        labels: LabelColumn,
    ) -> Result<Self, DataError> {
        if block_rows == 0 {
            return Err(DataError::InvalidParam(
                "block_rows must be positive".into(),
            ));
        }
        let mut reader = BufReader::new(File::open(&path)?);
        let mut line = String::new();
        let mut byte_pos = 0u64;
        let mut line_no = 0usize;
        let mut rows = 0usize;
        let mut dim: Option<usize> = None;
        let mut offsets: Vec<(u64, usize)> = Vec::new();
        let mut scratch: Vec<f64> = Vec::new();
        loop {
            line.clear();
            let read = reader.read_line(&mut line)?;
            if read == 0 {
                break;
            }
            line_no += 1;
            let line_start = byte_pos;
            byte_pos += read as u64;
            let trimmed = line.trim();
            if trimmed.is_empty() {
                continue;
            }
            if !parse_cells(trimmed, &mut scratch) {
                // Only the first data-bearing line may be non-numeric
                // (header); label/shape violations are never headers.
                if rows == 0 && dim.is_none() {
                    continue;
                }
                return Err(DataError::Parse {
                    line: line_no,
                    message: format!("unparseable numeric row: {trimmed:.40}"),
                });
            }
            let d = validate_row(&scratch, labels, line_no, dim)?;
            if rows.is_multiple_of(block_rows) {
                offsets.push((line_start, line_no));
            }
            dim = Some(d);
            rows += 1;
        }
        let dim = dim.ok_or(DataError::Empty)?;
        Ok(CsvSource {
            file: Mutex::new(File::open(&path)?),
            stats: Mutex::new(Residency::default()),
            offsets,
            rows,
            dim,
            block_rows,
            labels,
        })
    }
}

/// Parses one CSV row's cells into the reused `scratch` buffer (cleared
/// first; no per-row allocation on the streaming hot path). Returns
/// `false` when any cell is not a float — the only condition that makes
/// the first line a header candidate, exactly like [`crate::io::read_csv`].
pub(crate) fn parse_cells(trimmed: &str, scratch: &mut Vec<f64>) -> bool {
    scratch.clear();
    for cell in trimmed.split(',') {
        match cell.trim().parse::<f64>() {
            Ok(v) => scratch.push(v),
            Err(_) => return false,
        }
    }
    true
}

/// Validates one parsed row: feature count against `expect`, and — with
/// [`LabelColumn::Last`] — the trailing label under the same contract as
/// [`crate::io::read_csv`] (the chunked and in-memory readers must agree
/// on which files are valid). Returns the feature dimensionality;
/// `scratch[..features]` excludes the label.
pub(crate) fn validate_row(
    scratch: &[f64],
    labels: LabelColumn,
    line_no: usize,
    expect: Option<usize>,
) -> Result<usize, DataError> {
    let features = match labels {
        LabelColumn::None => scratch.len(),
        LabelColumn::Last => scratch.len().saturating_sub(1),
    };
    if features == 0 {
        return Err(DataError::Parse {
            line: line_no,
            message: "row has no feature columns".into(),
        });
    }
    if labels == LabelColumn::Last {
        let lab = scratch[features];
        if lab < 0.0 || lab.fract() != 0.0 || lab > u32::MAX as f64 {
            return Err(DataError::Parse {
                line: line_no,
                message: format!("label {lab} is not a non-negative integer"),
            });
        }
    }
    if let Some(d) = expect {
        if features != d {
            return Err(DataError::Parse {
                line: line_no,
                message: format!("row has {features} features, expected {d}"),
            });
        }
    }
    Ok(features)
}

impl ChunkedSource for CsvSource {
    fn len(&self) -> usize {
        self.rows
    }

    fn dim(&self) -> usize {
        self.dim
    }

    fn block_rows(&self) -> usize {
        self.block_rows
    }

    fn read_block(&self, block: usize, out: &mut PointMatrix) -> Result<(), DataError> {
        check_block_buffer(self.dim, out)?;
        let range = self.block_range(block);
        let (byte_offset, first_line) = self.offsets[block];
        let mut file = self.file.lock().expect("CsvSource reader poisoned");
        file.seek(SeekFrom::Start(byte_offset))?;
        let mut reader = BufReader::new(&mut *file);
        let mut line = String::new();
        let mut row = Vec::with_capacity(self.dim);
        out.clear();
        let mut remaining = range.len();
        // Real file line numbers for error reports, indexed from the
        // block's recorded first data row (blank lines counted like open).
        let mut line_no = first_line - 1;
        while remaining > 0 {
            line.clear();
            if reader.read_line(&mut line)? == 0 {
                return Err(DataError::Format(format!(
                    "csv block {block} truncated: {remaining} rows missing"
                )));
            }
            line_no += 1;
            let trimmed = line.trim();
            if trimmed.is_empty() {
                continue;
            }
            if !parse_cells(trimmed, &mut row) {
                return Err(DataError::Parse {
                    line: line_no,
                    message: format!("unparseable numeric row: {trimmed:.40}"),
                });
            }
            let features = validate_row(&row, self.labels, line_no, Some(self.dim))?;
            out.extend_from_flat(&row[..features])?;
            remaining -= 1;
        }
        let mut stats = self.stats.lock().expect("CsvSource stats poisoned");
        stats.loads += 1;
        let resident = (out.len() * self.dim * std::mem::size_of::<f64>()) as u64;
        stats.peak_bytes = stats.peak_bytes.max(resident);
        Ok(())
    }

    fn residency(&self) -> Residency {
        *self.stats.lock().expect("CsvSource stats poisoned")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn matrix(n: usize, dim: usize) -> PointMatrix {
        PointMatrix::from_flat((0..n * dim).map(|i| i as f64 * 0.5).collect(), dim).unwrap()
    }

    #[test]
    fn in_memory_blocks_partition_the_rows() {
        let m = matrix(10, 3);
        let source = InMemorySource::new(m.clone(), 4).unwrap();
        assert_eq!(source.num_blocks(), 3);
        let mut buf = source.block_buffer();
        let mut seen = 0usize;
        for b in 0..source.num_blocks() {
            source.read_block(b, &mut buf).unwrap();
            let range = source.block_range(b);
            assert_eq!(buf.len(), range.len());
            for (off, row) in buf.rows().enumerate() {
                assert_eq!(row, m.row(range.start + off));
                seen += 1;
            }
        }
        assert_eq!(seen, 10);
    }

    #[test]
    fn in_memory_rejects_bad_construction() {
        assert!(InMemorySource::new(matrix(3, 2), 0).is_err());
        assert!(InMemorySource::new(PointMatrix::new(2), 4).is_err());
    }

    #[test]
    fn read_block_checks_buffer_dim() {
        let source = InMemorySource::new(matrix(4, 2), 2).unwrap();
        let mut wrong = PointMatrix::new(3);
        assert!(matches!(
            source.read_block(0, &mut wrong),
            Err(DataError::DimensionMismatch {
                expected: 2,
                got: 3
            })
        ));
    }

    #[test]
    fn in_memory_residency_reports_full_matrix() {
        let source = InMemorySource::new(matrix(10, 3), 4).unwrap();
        assert_eq!(source.residency().peak_bytes, 10 * 3 * 8);
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn block_range_out_of_bounds_panics() {
        let source = InMemorySource::new(matrix(4, 1), 2).unwrap();
        source.block_range(2);
    }

    fn temp_csv(name: &str, contents: &str) -> std::path::PathBuf {
        let dir = std::env::temp_dir().join("kmeans_chunked_tests");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join(name);
        std::fs::write(&path, contents).unwrap();
        path
    }

    #[test]
    fn csv_source_round_trips_blocks() {
        let path = temp_csv("basic.csv", "a,b\n1,2\n\n3,4\n5,6\n7,8\n9,10\n");
        let source = CsvSource::open(&path, 2, LabelColumn::None).unwrap();
        assert_eq!(source.len(), 5);
        assert_eq!(source.dim(), 2);
        assert_eq!(source.num_blocks(), 3);
        let mut buf = source.block_buffer();
        source.read_block(1, &mut buf).unwrap();
        assert_eq!(buf.row(0), &[5.0, 6.0]);
        assert_eq!(buf.row(1), &[7.0, 8.0]);
        source.read_block(2, &mut buf).unwrap();
        assert_eq!(buf.len(), 1);
        assert_eq!(buf.row(0), &[9.0, 10.0]);
        // Residency: at most one block of floats, plus accounting.
        let r = source.residency();
        assert_eq!(r.loads, 2);
        assert!(r.peak_bytes <= (2 * 2 * 8) as u64);
    }

    #[test]
    fn csv_source_drops_label_column() {
        let path = temp_csv("labeled.csv", "1,2,0\n3,4,1\n");
        let source = CsvSource::open(&path, 8, LabelColumn::Last).unwrap();
        assert_eq!(source.dim(), 2);
        let mut buf = source.block_buffer();
        source.read_block(0, &mut buf).unwrap();
        assert_eq!(buf.row(1), &[3.0, 4.0]);
    }

    #[test]
    fn csv_source_validates_labels_like_read_csv() {
        // The chunked and in-memory readers must agree on which files are
        // valid: labels that read_csv rejects are rejected here too.
        for bad in ["1,2,1.5\n", "1,2,-1\n", "1,2,nan\n"] {
            let path = temp_csv("bad_label.csv", bad);
            assert!(
                matches!(
                    CsvSource::open(&path, 4, LabelColumn::Last),
                    Err(DataError::Parse { line: 1, .. })
                ),
                "accepted {bad:?}"
            );
        }
    }

    #[test]
    fn csv_source_rejects_garbage() {
        let path = temp_csv("ragged.csv", "1,2\n3,4,5\n");
        assert!(matches!(
            CsvSource::open(&path, 4, LabelColumn::None),
            Err(DataError::Parse { line: 2, .. })
        ));
        let path = temp_csv("empty.csv", "header,only\n");
        assert!(matches!(
            CsvSource::open(&path, 4, LabelColumn::None),
            Err(DataError::Empty)
        ));
        let path = temp_csv("ok.csv", "1,2\n");
        assert!(CsvSource::open(&path, 0, LabelColumn::None).is_err());
    }
}
