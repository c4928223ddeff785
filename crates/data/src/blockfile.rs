//! The `skmb` binary block file: the on-disk format behind out-of-core
//! clustering, plus its budgeted reader.
//!
//! Layout (all integers little-endian):
//!
//! ```text
//! offset  size  field
//! 0       8     magic  b"SKMBLK01"
//! 8       4     dim        (u32, > 0)
//! 12      4     block_rows (u32, > 0)
//! 16      8     rows       (u64)
//! 24      —     payload: rows × dim f64 values, row-major
//! ```
//!
//! Rows are stored contiguously; block `b` starts at byte
//! `24 + b · block_rows · dim · 8`, so any block is one seek + one read.
//! Write files with [`BlockFileWriter`] (streaming, one row at a time —
//! the `skm convert` subcommand never materializes the dataset) or
//! [`write_block_file`] (from an in-memory matrix); read them with
//! [`BlockFileSource`], which enforces a caller-configured memory budget
//! and reports peak residency for the out-of-core assertions in
//! `tests/chunked_parity.rs`.
//!
//! The reader's residency is scan-resistant: it pins the leading blocks
//! its budget holds — decoded once, never evicted, lent to passes without
//! a copy — and decodes every other block straight into the caller's
//! buffer through one staging buffer, through which a gather also reads
//! its rows where they lie. A pass over the file (every k-means||
//! round and Lloyd iteration is one) then pays only for the blocks past
//! the pinned prefix, where an LRU cache smaller than the file would pay
//! for every block (see [`BlockFileSource`]).

use crate::chunked::{check_block_buffer, gather_slots, ChunkedSource, Residency};
use crate::error::DataError;
use crate::matrix::PointMatrix;
use std::fmt;
use std::fs::File;
use std::io::{BufWriter, Read, Seek, SeekFrom, Write};
use std::path::Path;
use std::sync::{Mutex, MutexGuard, OnceLock};

/// File magic identifying the format (see module docs).
pub const BLOCK_FILE_MAGIC: [u8; 8] = *b"SKMBLK01";
/// Header size in bytes; the payload starts here.
const HEADER_BYTES: u64 = 24;

/// Streaming writer for the binary block format.
///
/// ```
/// use kmeans_data::{BlockFileWriter, BlockFileSource, ChunkedSource};
/// let path = std::env::temp_dir().join("kmeans_blockfile_doc.skmb");
/// let mut writer = BlockFileWriter::create(&path, 2, 4).unwrap();
/// for i in 0..10 {
///     writer.push_row(&[i as f64, -(i as f64)]).unwrap();
/// }
/// assert_eq!(writer.finish().unwrap(), 10);
/// let source = BlockFileSource::open(&path, 1 << 20).unwrap();
/// assert_eq!((source.len(), source.dim(), source.num_blocks()), (10, 2, 3));
/// # std::fs::remove_file(path).unwrap();
/// ```
pub struct BlockFileWriter {
    out: BufWriter<File>,
    dim: usize,
    rows: u64,
}

impl fmt::Debug for BlockFileWriter {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("BlockFileWriter")
            .field("dim", &self.dim)
            .field("rows", &self.rows)
            .finish()
    }
}

impl BlockFileWriter {
    /// Creates a block file, writing a header with a zero row count that
    /// [`BlockFileWriter::finish`] patches.
    pub fn create(
        path: impl AsRef<Path>,
        dim: usize,
        block_rows: usize,
    ) -> Result<Self, DataError> {
        if dim == 0 {
            return Err(DataError::InvalidParam("dim must be positive".into()));
        }
        if block_rows == 0 {
            return Err(DataError::InvalidParam(
                "block_rows must be positive".into(),
            ));
        }
        let dim_u32 = u32::try_from(dim)
            .map_err(|_| DataError::InvalidParam(format!("dim {dim} exceeds u32")))?;
        let block_u32 = u32::try_from(block_rows)
            .map_err(|_| DataError::InvalidParam(format!("block_rows {block_rows} exceeds u32")))?;
        let mut out = BufWriter::new(File::create(path)?);
        out.write_all(&BLOCK_FILE_MAGIC)?;
        out.write_all(&dim_u32.to_le_bytes())?;
        out.write_all(&block_u32.to_le_bytes())?;
        out.write_all(&0u64.to_le_bytes())?;
        Ok(BlockFileWriter { out, dim, rows: 0 })
    }

    /// Appends one row.
    pub fn push_row(&mut self, row: &[f64]) -> Result<(), DataError> {
        if row.len() != self.dim {
            return Err(DataError::DimensionMismatch {
                expected: self.dim,
                got: row.len(),
            });
        }
        for &v in row {
            self.out.write_all(&v.to_le_bytes())?;
        }
        self.rows += 1;
        Ok(())
    }

    /// Appends every row of a matrix.
    pub fn write_matrix(&mut self, matrix: &PointMatrix) -> Result<(), DataError> {
        for row in matrix.rows() {
            self.push_row(row)?;
        }
        Ok(())
    }

    /// Patches the header row count and flushes; returns the rows written.
    pub fn finish(mut self) -> Result<u64, DataError> {
        self.out.flush()?;
        let mut file = self.out.into_inner().map_err(|e| e.into_error())?;
        file.seek(SeekFrom::Start(16))?;
        file.write_all(&self.rows.to_le_bytes())?;
        file.sync_data()?;
        Ok(self.rows)
    }
}

/// Writes an in-memory matrix as a block file (convenience wrapper over
/// [`BlockFileWriter`]).
pub fn write_block_file(
    path: impl AsRef<Path>,
    matrix: &PointMatrix,
    block_rows: usize,
) -> Result<(), DataError> {
    let mut writer = BlockFileWriter::create(path, matrix.dim(), block_rows)?;
    writer.write_matrix(matrix)?;
    writer.finish()?;
    Ok(())
}

/// Converts a CSV file to a block file in one streaming pass — each line
/// is parsed exactly once and written straight through; the dataset is
/// never materialized (this is what `skm convert` runs). Returns
/// `(rows, dim)`. With [`LabelColumn::Last`](crate::io::LabelColumn::Last)
/// the final column is validated and dropped, under the same contract as
/// [`crate::io::read_csv`].
pub fn csv_to_block_file(
    csv_path: impl AsRef<Path>,
    out_path: impl AsRef<Path>,
    block_rows: usize,
    labels: crate::io::LabelColumn,
) -> Result<(usize, usize), DataError> {
    let out_path = out_path.as_ref();
    let result = csv_to_block_file_inner(csv_path.as_ref(), out_path, block_rows, labels);
    if result.is_err() {
        // Never leave a half-written block file behind: its valid magic
        // and zero-row header would auto-detect as an "empty" dataset on
        // the next chunked fit, masking the real conversion failure.
        let _ = std::fs::remove_file(out_path);
    }
    result
}

fn csv_to_block_file_inner(
    csv_path: &Path,
    out_path: &Path,
    block_rows: usize,
    labels: crate::io::LabelColumn,
) -> Result<(usize, usize), DataError> {
    use crate::chunked::{parse_cells, validate_row};
    use std::io::BufRead;

    if block_rows == 0 {
        return Err(DataError::InvalidParam(
            "block_rows must be positive".into(),
        ));
    }
    let mut reader = std::io::BufReader::new(File::open(csv_path)?);
    let mut line = String::new();
    let mut scratch: Vec<f64> = Vec::new();
    let mut line_no = 0usize;
    let mut rows = 0usize;
    let mut dim: Option<usize> = None;
    // The writer needs the dimensionality, which the first data row fixes.
    let mut writer: Option<BlockFileWriter> = None;
    loop {
        line.clear();
        if reader.read_line(&mut line)? == 0 {
            break;
        }
        line_no += 1;
        let trimmed = line.trim();
        if trimmed.is_empty() {
            continue;
        }
        if !parse_cells(trimmed, &mut scratch) {
            // Only the first data-bearing line may be non-numeric (header).
            if rows == 0 && dim.is_none() {
                continue;
            }
            return Err(DataError::Parse {
                line: line_no,
                message: format!("unparseable numeric row: {trimmed:.40}"),
            });
        }
        let d = validate_row(&scratch, labels, line_no, dim)?;
        let writer = match &mut writer {
            Some(w) => w,
            None => writer.insert(BlockFileWriter::create(out_path, d, block_rows)?),
        };
        writer.push_row(&scratch[..d])?;
        dim = Some(d);
        rows += 1;
    }
    let (Some(writer), Some(dim)) = (writer, dim) else {
        return Err(DataError::Empty);
    };
    writer.finish()?;
    Ok((rows, dim))
}

/// Returns whether `path` starts with the block-file magic (used by the
/// CLI to auto-detect the input format).
pub fn is_block_file(path: impl AsRef<Path>) -> bool {
    let Ok(mut file) = File::open(path) else {
        return false;
    };
    let mut magic = [0u8; 8];
    file.read_exact(&mut magic).is_ok() && magic == BLOCK_FILE_MAGIC
}

/// Bytes of the staging buffer every block decode goes through, rounded
/// down to whole rows (at least one).
const STAGE_BYTES: usize = 64 * 1024;

/// The file, the staging buffer and the accounting, behind the reader's
/// mutex.
struct ReaderState {
    file: File,
    /// Raw bytes of whole rows — at least one if the file has a row —
    /// allocated once, at open.
    stage: Vec<u8>,
    /// Bytes of the pinned blocks loaded so far.
    pinned_bytes: u64,
    stats: Residency,
}

impl ReaderState {
    /// Decodes `count` rows from data row `first` into `out`, one staged
    /// read at a time: no per-block allocation, no intermediate copy.
    fn decode(
        &mut self,
        first: usize,
        count: usize,
        out: &mut PointMatrix,
    ) -> Result<(), DataError> {
        let row_bytes = out.dim() * 8;
        let offset = HEADER_BYTES + first as u64 * row_bytes as u64;
        self.file.seek(SeekFrom::Start(offset))?;
        let mut remaining = count * row_bytes;
        while remaining > 0 {
            let take = remaining.min(self.stage.len());
            self.file.read_exact(&mut self.stage[..take])?;
            out.extend_from_le_bytes(&self.stage[..take])?;
            remaining -= take;
        }
        self.stats.loads += 1;
        Ok(())
    }

    /// Reads the `count` rows from data row `first` — at most the stage's
    /// rows — into the staging buffer with one seek and one read, and
    /// returns their raw bytes.
    fn stage_rows(&mut self, first: usize, count: usize, dim: usize) -> Result<&[u8], DataError> {
        let row_bytes = dim * 8;
        self.file.seek(SeekFrom::Start(
            HEADER_BYTES + first as u64 * row_bytes as u64,
        ))?;
        let staged = &mut self.stage[..count * row_bytes];
        self.file.read_exact(staged)?;
        self.stats.loads += 1;
        Ok(staged)
    }

    /// Records one read's residency: the pinned blocks plus the `filled`
    /// bytes it decoded or copied into the caller's buffer.
    fn settle(&mut self, filled: u64, budget_bytes: u64) {
        let resident = self.pinned_bytes + filled;
        self.stats.peak_bytes = self.stats.peak_bytes.max(resident);
        debug_assert!(self.stats.peak_bytes <= budget_bytes);
    }
}

/// Budgeted [`ChunkedSource`] over a binary block file.
///
/// The memory budget covers every decoded feature block the source
/// materializes. One block of it is the caller's buffer; the rest holds
/// the **pinned prefix**, blocks `0..P`: every block if the rest holds
/// the payload, else `P = ⌊(budget − block_bytes) / block_bytes⌋`. A
/// pinned block is decoded on first use and never evicted:
/// [`ChunkedSource::lend_block`] lends it, `read_block` copies it out.
/// Every other block is read with one seek and decoded straight into the
/// caller's buffer through a staging buffer of at most 64 KiB (one row,
/// if a row is larger), allocated at open and kept outside the budget:
/// constant regardless of block or dataset size.
///
/// A prefix, not an LRU cache: every pass visits blocks in ascending
/// order, and an LRU smaller than the file evicts each block just before
/// the scan comes back to it, so it never hits. Pinned blocks stay, so
/// each pass hits the pinned fraction; a scan and a uniform gather hit
/// any fixed set at the same rate, and a prefix needs no bookkeeping.
///
/// [`ChunkedSource::residency`] reports the peak, and
/// `peak_bytes ≤ budget` is an invariant — a dataset larger than the
/// budget streams, it is never fully resident. A budget that holds the
/// whole file pins every block, so a pass that only borrows blocks peaks
/// at exactly the payload.
pub struct BlockFileSource {
    state: Mutex<ReaderState>,
    /// Slot `b` holds block `b` of the pinned prefix once it was used.
    pinned: Vec<OnceLock<PointMatrix>>,
    rows: usize,
    dim: usize,
    block_rows: usize,
    budget_bytes: u64,
}

impl fmt::Debug for BlockFileSource {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("BlockFileSource")
            .field("rows", &self.rows)
            .field("dim", &self.dim)
            .field("block_rows", &self.block_rows)
            .field("budget_bytes", &self.budget_bytes)
            .finish()
    }
}

impl BlockFileSource {
    /// Opens a block file with a memory budget in bytes.
    ///
    /// Fails with [`DataError::InvalidParam`] if the budget does not fit
    /// one block (`block_rows · dim · 8` bytes), and with
    /// [`DataError::Format`] on a malformed or truncated file.
    pub fn open(path: impl AsRef<Path>, budget_bytes: u64) -> Result<Self, DataError> {
        let mut file = File::open(&path)?;
        let mut header = [0u8; HEADER_BYTES as usize];
        file.read_exact(&mut header)
            .map_err(|_| DataError::Format("file shorter than the 24-byte header".into()))?;
        if header[..8] != BLOCK_FILE_MAGIC {
            return Err(DataError::Format("bad magic (expected SKMBLK01)".into()));
        }
        let dim = u32::from_le_bytes(header[8..12].try_into().expect("4 bytes")) as usize;
        let block_rows = u32::from_le_bytes(header[12..16].try_into().expect("4 bytes")) as usize;
        let rows = u64::from_le_bytes(header[16..24].try_into().expect("8 bytes"));
        if dim == 0 || block_rows == 0 {
            return Err(DataError::Format(format!(
                "header declares dim={dim}, block_rows={block_rows} (both must be positive)"
            )));
        }
        let rows = usize::try_from(rows)
            .map_err(|_| DataError::Format(format!("row count {rows} exceeds usize")))?;
        // All header fields are untrusted: size arithmetic must be checked,
        // or a corrupt header panics (debug) / defeats the truncation check
        // via wraparound (release).
        let checked_bytes = |count: u64, what: &str| {
            count
                .checked_mul(dim as u64)
                .and_then(|v| v.checked_mul(8))
                .ok_or_else(|| {
                    DataError::Format(format!("header implies an impossibly large {what} size"))
                })
        };
        let payload_bytes = checked_bytes(rows as u64, "payload")?;
        let expected = HEADER_BYTES
            .checked_add(payload_bytes)
            .ok_or_else(|| DataError::Format("header implies an impossibly large file".into()))?;
        let actual = file.metadata()?.len();
        if actual < expected {
            return Err(DataError::Format(format!(
                "payload truncated: {actual} bytes on disk, header implies {expected}"
            )));
        }
        let block_bytes = checked_bytes(block_rows as u64, "block")?;
        if budget_bytes < block_bytes {
            return Err(DataError::InvalidParam(format!(
                "memory budget {budget_bytes} B cannot hold one {block_bytes} B block \
                 ({block_rows} rows x {dim} dims)"
            )));
        }
        // One block of the budget is the caller's buffer; the rest pins
        // the leading blocks it holds — every block, if it holds the
        // payload (the last block may be short).
        let room = budget_bytes - block_bytes;
        let pinned = if room >= payload_bytes {
            rows.div_ceil(block_rows) as u64
        } else {
            room / block_bytes
        };
        // Whole rows, and no more than the file holds (a zero-row file
        // gets an empty stage it never reads through).
        let row_bytes = dim * 8;
        let stage_rows = (STAGE_BYTES / row_bytes).clamp(1, block_rows).min(rows);
        Ok(BlockFileSource {
            state: Mutex::new(ReaderState {
                file,
                stage: vec![0; stage_rows * row_bytes],
                pinned_bytes: 0,
                stats: Residency {
                    budget_bytes: Some(budget_bytes),
                    ..Residency::default()
                },
            }),
            pinned: (0..pinned).map(|_| OnceLock::new()).collect(),
            rows,
            dim,
            block_rows,
            budget_bytes,
        })
    }

    /// The configured memory budget in bytes.
    pub fn budget_bytes(&self) -> u64 {
        self.budget_bytes
    }

    /// Total feature payload on disk in bytes (`rows · dim · 8`).
    pub fn payload_bytes(&self) -> u64 {
        (self.rows as u64) * (self.dim as u64) * 8
    }

    fn lock(&self) -> MutexGuard<'_, ReaderState> {
        self.state.lock().expect("BlockFileSource state poisoned")
    }

    /// Block `block` if it is in the pinned prefix, decoded into its slot
    /// on first use under the reader's lock, so it loads once. `copied`
    /// says whether the caller copies it into its own buffer, which the
    /// residency accounting counts.
    fn pinned_block(&self, block: usize, copied: bool) -> Result<Option<&PointMatrix>, DataError> {
        let Some(slot) = self.pinned.get(block) else {
            return Ok(None);
        };
        let range = self.block_range(block);
        let bytes = (range.len() * self.dim * 8) as u64;
        let mut state = self.lock();
        let pinned = match slot.get() {
            Some(pinned) => {
                state.stats.hits += 1;
                pinned
            }
            None => {
                let mut fresh = PointMatrix::with_capacity(self.dim, range.len());
                state.decode(range.start, range.len(), &mut fresh)?;
                state.pinned_bytes += bytes;
                slot.get_or_init(|| fresh)
            }
        };
        state.settle(if copied { bytes } else { 0 }, self.budget_bytes);
        Ok(Some(pinned))
    }
}

impl ChunkedSource for BlockFileSource {
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
        out.clear();
        if let Some(pinned) = self.pinned_block(block, true)? {
            return out.extend_from(pinned);
        }
        let range = self.block_range(block);
        let mut state = self.lock();
        state.decode(range.start, range.len(), out)?;
        state.settle((range.len() * self.dim * 8) as u64, self.budget_bytes);
        Ok(())
    }

    fn lend_block<'s>(
        &'s self,
        block: usize,
        buf: &'s mut PointMatrix,
    ) -> Result<&'s PointMatrix, DataError> {
        if let Some(pinned) = self.pinned_block(block, false)? {
            return Ok(pinned);
        }
        self.read_block(block, buf)?;
        Ok(buf)
    }

    /// Copies the requested rows of the pinned prefix out of their blocks,
    /// and reads every other one where it lies in the file, with
    /// positioned reads through the staging buffer: one read per run of
    /// requested rows that fits in the stage. A sparse gather — a
    /// k-means|| sample, an empty cluster's reseed — so reads its rows
    /// alone instead of decoding every block that holds one, and each
    /// read counts as a load with its bytes inside the budget.
    fn read_rows(
        &self,
        indices: &[usize],
        _buf: &mut PointMatrix,
        out: &mut PointMatrix,
    ) -> Result<(), DataError> {
        let order = gather_slots(self.rows, self.dim, indices, out)?;
        let rows = self.block_rows;
        let split = order.partition_point(|&(i, _)| i < self.pinned.len() * rows);
        let (pinned, streamed) = order.split_at(split);
        for run in pinned.chunk_by(|a, b| a.0 / rows == b.0 / rows) {
            let start = run[0].0 - run[0].0 % rows;
            let block = self
                .pinned_block(start / rows, false)?
                .expect("a pinned block");
            for &(i, slot) in run {
                out.row_mut(slot).copy_from_slice(block.row(i - start));
            }
        }
        let mut state = self.lock();
        let row_bytes = self.dim * 8;
        let stage_rows = state.stage.len() / row_bytes;
        let mut rest = streamed;
        while let Some(&(first, _)) = rest.first() {
            let run = rest.partition_point(|&(i, _)| i < first + stage_rows);
            let count = rest[run - 1].0 + 1 - first;
            let staged = state.stage_rows(first, count, self.dim)?;
            for &(i, slot) in &rest[..run] {
                let bytes = &staged[(i - first) * row_bytes..(i - first + 1) * row_bytes];
                let (values, _) = bytes.as_chunks::<8>();
                for (v, b) in out.row_mut(slot).iter_mut().zip(values) {
                    *v = f64::from_le_bytes(*b);
                }
            }
            state.settle((count * row_bytes) as u64, self.budget_bytes);
            rest = &rest[run..];
        }
        Ok(())
    }

    fn residency(&self) -> Residency {
        self.lock().stats
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::io::LabelColumn;

    fn tmp(name: &str) -> std::path::PathBuf {
        let dir = std::env::temp_dir().join("kmeans_blockfile_tests");
        std::fs::create_dir_all(&dir).unwrap();
        dir.join(name)
    }

    fn matrix(n: usize, dim: usize) -> PointMatrix {
        PointMatrix::from_flat((0..n * dim).map(|i| (i as f64).sin()).collect(), dim).unwrap()
    }

    #[test]
    fn write_then_read_round_trips_bitwise() {
        let path = tmp("roundtrip.skmb");
        let m = matrix(23, 5);
        write_block_file(&path, &m, 4).unwrap();
        assert!(is_block_file(&path));
        let source = BlockFileSource::open(&path, 1 << 20).unwrap();
        assert_eq!(source.len(), 23);
        assert_eq!(source.dim(), 5);
        assert_eq!(source.num_blocks(), 6);
        let mut buf = source.block_buffer();
        for b in 0..source.num_blocks() {
            source.read_block(b, &mut buf).unwrap();
            let range = source.block_range(b);
            for (off, row) in buf.rows().enumerate() {
                assert_eq!(row, m.row(range.start + off), "row {}", range.start + off);
            }
        }
        std::fs::remove_file(path).unwrap();
    }

    #[test]
    fn budget_bounds_peak_residency() {
        let path = tmp("budget.skmb");
        let m = matrix(64, 4); // 2048 B payload
        write_block_file(&path, &m, 8).unwrap(); // 256 B per block
                                                 // Budget of two blocks: one working copy + one cached.
        let source = BlockFileSource::open(&path, 512).unwrap();
        let mut buf = source.block_buffer();
        for pass in 0..3 {
            for b in 0..source.num_blocks() {
                source.read_block(b, &mut buf).unwrap();
            }
            let r = source.residency();
            assert!(
                r.peak_bytes <= 512,
                "pass {pass}: peak {} exceeds budget",
                r.peak_bytes
            );
        }
        let r = source.residency();
        assert!(r.peak_bytes < source.payload_bytes());
        assert_eq!(r.budget_bytes, Some(512));
        assert!(r.loads > 0);
        std::fs::remove_file(path).unwrap();
    }

    #[test]
    fn cache_serves_repeated_reads() {
        let path = tmp("cache.skmb");
        let m = matrix(16, 2);
        write_block_file(&path, &m, 4).unwrap(); // 64 B per block
                                                 // Room for the working copy plus all four blocks.
        let source = BlockFileSource::open(&path, 64 * 5).unwrap();
        let mut buf = source.block_buffer();
        for _ in 0..3 {
            for b in 0..source.num_blocks() {
                source.read_block(b, &mut buf).unwrap();
            }
        }
        let r = source.residency();
        assert_eq!(r.loads, 4, "each block decoded once");
        assert_eq!(r.hits, 8, "subsequent passes served from cache");
        std::fs::remove_file(path).unwrap();
    }

    #[test]
    fn cyclic_scan_hits_the_pinned_prefix() {
        let path = tmp("cyclic.skmb");
        let m = matrix(64, 2);
        write_block_file(&path, &m, 4).unwrap(); // 16 blocks of 64 B
        let budget = 6 * 64; // one working block + 5 pinned
        let source = BlockFileSource::open(&path, budget).unwrap();
        let mut buf = source.block_buffer();
        for _ in 0..4 {
            for b in 0..source.num_blocks() {
                source.read_block(b, &mut buf).unwrap();
                let first = source.block_range(b).start;
                assert_eq!(buf.as_slice(), &m.as_slice()[first * 2..(first + 4) * 2]);
            }
        }
        let r = source.residency();
        // Pass one loads all 16 blocks; each later pass hits the 5 pinned
        // and decodes the other 11 (an LRU of 5 blocks would hit none).
        assert_eq!(r.loads, 5 + 4 * 11);
        assert_eq!(r.hits, 3 * 5);
        assert!(r.peak_bytes <= budget, "peak {}", r.peak_bytes);
        std::fs::remove_file(path).unwrap();
    }

    #[test]
    fn pinned_blocks_are_lent_and_the_rest_read_into_the_buffer() {
        let path = tmp("lend.skmb");
        write_block_file(&path, &matrix(38, 3), 4).unwrap(); // 10 blocks, 96 B full
        let budget = 4 * 96; // one working block + 3 pinned
        let source = BlockFileSource::open(&path, budget).unwrap();
        let (mut a, mut b, mut copy) = (
            PointMatrix::new(3),
            PointMatrix::new(3),
            source.block_buffer(),
        );
        let first = source.lend_block(1, &mut a).unwrap();
        let again = source.lend_block(1, &mut b).unwrap();
        assert!(
            std::ptr::eq(first, again),
            "a pinned block is lent, not copied"
        );
        source.read_block(1, &mut copy).unwrap();
        assert_eq!(first, &copy);

        let mut buf = source.block_buffer();
        let buf_at: *const PointMatrix = &buf;
        let streamed = source.lend_block(7, &mut buf).unwrap();
        assert!(
            std::ptr::eq(streamed, buf_at),
            "past the prefix: the caller's buffer"
        );
        source.read_block(7, &mut copy).unwrap();
        assert_eq!(streamed, &copy);

        for pass in 0..2 {
            for blk in 0..source.num_blocks() {
                if (blk + pass) % 2 == 0 {
                    source.lend_block(blk, &mut buf).unwrap();
                } else {
                    source.read_block(blk, &mut buf).unwrap();
                }
                let peak = source.residency().peak_bytes;
                assert!(peak <= budget, "block {blk}: peak {peak}");
            }
        }

        // A budget holding the file pins every block, the short last one
        // included; a pass that only borrows peaks at the payload.
        let whole = BlockFileSource::open(&path, source.payload_bytes() + 96).unwrap();
        for _ in 0..2 {
            for blk in 0..whole.num_blocks() {
                whole.lend_block(blk, &mut buf).unwrap();
            }
        }
        let r = whole.residency();
        assert_eq!((r.loads, r.hits), (10, 10));
        assert_eq!(r.peak_bytes, whole.payload_bytes());
        std::fs::remove_file(path).unwrap();
    }

    /// A gather reads the pinned prefix's rows out of their blocks and the
    /// rest where they lie, one positioned read per run of rows the stage
    /// holds: the rows the block path returns, in request order, inside
    /// the budget, without decoding a streamed block.
    #[test]
    fn gathered_rows_are_read_where_they_lie() {
        let path = tmp("gather.skmb");
        let m = matrix(38, 3);
        write_block_file(&path, &m, 4).unwrap(); // 10 blocks, 96 B full
        let budget = 4 * 96; // one working block + 3 pinned
        let source = BlockFileSource::open(&path, budget).unwrap();
        let indices = [37, 0, 21, 5, 21, 36, 13, 37, 11];
        let (mut buf, mut out) = (source.block_buffer(), PointMatrix::new(3));
        source.read_rows(&indices, &mut buf, &mut out).unwrap();
        assert_eq!(out.len(), indices.len());
        for (slot, &i) in indices.iter().enumerate() {
            assert_eq!(out.row(slot), m.row(i), "slot {slot} (row {i})");
        }
        let r = source.residency();
        // Blocks 0, 1 and 2 are pinned (rows 0, 5, 11) and load once
        // each; the stage holds a block's 4 rows, so rows 13, 21 and
        // 36–37 take one read each.
        assert_eq!(r.loads, 3 + 3, "{r:?}");
        assert!(r.peak_bytes <= budget, "peak {}", r.peak_bytes);
        // A pinned row is a hit, a streamed one a read.
        let far = [2, 30];
        let before = source.residency().loads;
        source.read_rows(&far, &mut buf, &mut out).unwrap();
        assert_eq!((out.row(0), out.row(1)), (m.row(2), m.row(30)));
        assert_eq!(source.residency().loads, before + 1);
        let err = source.read_rows(&[38], &mut buf, &mut out).unwrap_err();
        assert!(err.to_string().contains("out of range"), "{err}");
        std::fs::remove_file(path).unwrap();
    }

    #[test]
    fn budget_smaller_than_a_block_is_rejected() {
        let path = tmp("tiny_budget.skmb");
        write_block_file(&path, &matrix(8, 2), 4).unwrap();
        assert!(matches!(
            BlockFileSource::open(&path, 63),
            Err(DataError::InvalidParam(_))
        ));
        std::fs::remove_file(path).unwrap();
    }

    #[test]
    fn malformed_files_are_rejected() {
        let path = tmp("bad_magic.skmb");
        std::fs::write(&path, b"NOTMAGIC________________").unwrap();
        assert!(matches!(
            BlockFileSource::open(&path, 1 << 20),
            Err(DataError::Format(_))
        ));
        assert!(!is_block_file(&path));

        let path = tmp("truncated.skmb");
        let m = matrix(8, 2);
        write_block_file(&path, &m, 4).unwrap();
        let bytes = std::fs::read(&path).unwrap();
        std::fs::write(&path, &bytes[..bytes.len() - 8]).unwrap();
        assert!(matches!(
            BlockFileSource::open(&path, 1 << 20),
            Err(DataError::Format(_))
        ));

        let path = tmp("short.skmb");
        std::fs::write(&path, b"SKMB").unwrap();
        assert!(matches!(
            BlockFileSource::open(&path, 1 << 20),
            Err(DataError::Format(_))
        ));

        // Regression: adversarial header sizes must be rejected with a
        // typed error, never overflow (debug panic / wrapped truncation
        // check in release).
        let path = tmp("overflow.skmb");
        let mut header = Vec::new();
        header.extend_from_slice(&BLOCK_FILE_MAGIC);
        header.extend_from_slice(&8u32.to_le_bytes()); // dim
        header.extend_from_slice(&u32::MAX.to_le_bytes()); // block_rows
        header.extend_from_slice(&(1u64 << 61).to_le_bytes()); // rows
        std::fs::write(&path, &header).unwrap();
        assert!(matches!(
            BlockFileSource::open(&path, u64::MAX),
            Err(DataError::Format(_))
        ));
    }

    #[test]
    fn failed_conversion_leaves_no_stale_output() {
        let csv = tmp("stale.csv");
        std::fs::write(&csv, "1,2\n3,4\nbroken,row\n").unwrap();
        let out = tmp("stale.skmb");
        assert!(matches!(
            csv_to_block_file(&csv, &out, 2, LabelColumn::None),
            Err(DataError::Parse { line: 3, .. })
        ));
        assert!(
            !out.exists(),
            "half-written block file left behind after a failed conversion"
        );
        std::fs::remove_file(csv).unwrap();
    }

    #[test]
    fn writer_rejects_bad_rows_and_params() {
        assert!(BlockFileWriter::create(tmp("bad.skmb"), 0, 4).is_err());
        assert!(BlockFileWriter::create(tmp("bad.skmb"), 2, 0).is_err());
        let mut w = BlockFileWriter::create(tmp("dims.skmb"), 2, 4).unwrap();
        assert!(matches!(
            w.push_row(&[1.0]),
            Err(DataError::DimensionMismatch {
                expected: 2,
                got: 1
            })
        ));
    }

    #[test]
    fn csv_conversion_streams_and_round_trips() {
        let csv = tmp("convert.csv");
        std::fs::write(&csv, "x,y,label\n1,2,0\n3,4,1\n5,6,0\n").unwrap();
        let out = tmp("convert.skmb");
        let (rows, dim) = csv_to_block_file(&csv, &out, 2, LabelColumn::Last).unwrap();
        assert_eq!((rows, dim), (3, 2));
        let source = BlockFileSource::open(&out, 1 << 20).unwrap();
        assert_eq!(source.len(), 3);
        let mut buf = source.block_buffer();
        source.read_block(1, &mut buf).unwrap();
        assert_eq!(buf.row(0), &[5.0, 6.0]);
        std::fs::remove_file(csv).unwrap();
        std::fs::remove_file(out).unwrap();
    }
}
