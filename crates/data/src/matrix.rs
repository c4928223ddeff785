//! Flat row-major point storage.
//!
//! All algorithms in the workspace operate on a [`PointMatrix`]: `n` points
//! of fixed dimension `d` stored contiguously (`data[i*d .. (i+1)*d]` is
//! point `i`). A flat `Vec<f64>` keeps rows cache-adjacent for the distance
//! kernels and makes shard boundaries trivial for the parallel executor.

use crate::error::DataError;

/// A dense matrix of `n` points × `d` dimensions, row-major.
///
/// ```
/// use kmeans_data::PointMatrix;
/// let mut m = PointMatrix::new(2);
/// m.push(&[1.0, 2.0]).unwrap();
/// m.push(&[3.0, 4.0]).unwrap();
/// assert_eq!(m.len(), 2);
/// assert_eq!(m.row(1), &[3.0, 4.0]);
/// ```
#[derive(Clone, Debug, PartialEq)]
pub struct PointMatrix {
    data: Vec<f64>,
    dim: usize,
}

impl PointMatrix {
    /// Creates an empty matrix of the given dimensionality.
    ///
    /// # Panics
    ///
    /// Panics if `dim == 0`.
    pub fn new(dim: usize) -> Self {
        assert!(dim > 0, "PointMatrix dimension must be positive");
        PointMatrix {
            data: Vec::new(),
            dim,
        }
    }

    /// Creates an empty matrix with room for `n` points.
    ///
    /// # Panics
    ///
    /// Panics if `dim == 0`.
    pub fn with_capacity(dim: usize, n: usize) -> Self {
        assert!(dim > 0, "PointMatrix dimension must be positive");
        PointMatrix {
            data: Vec::with_capacity(dim * n),
            dim,
        }
    }

    /// Builds a matrix from a flat row-major buffer.
    ///
    /// Fails with [`DataError::RaggedBuffer`] if `data.len()` is not a
    /// multiple of `dim`.
    pub fn from_flat(data: Vec<f64>, dim: usize) -> Result<Self, DataError> {
        if dim == 0 {
            return Err(DataError::InvalidParam("dim must be positive".into()));
        }
        if !data.len().is_multiple_of(dim) {
            return Err(DataError::RaggedBuffer {
                len: data.len(),
                dim,
            });
        }
        Ok(PointMatrix { data, dim })
    }

    /// Builds a matrix from row slices, checking that all rows agree on
    /// dimensionality.
    pub fn from_rows<R: AsRef<[f64]>>(rows: &[R]) -> Result<Self, DataError> {
        let first = rows.first().ok_or(DataError::Empty)?;
        let dim = first.as_ref().len();
        if dim == 0 {
            return Err(DataError::InvalidParam("rows must be non-empty".into()));
        }
        let mut m = PointMatrix::with_capacity(dim, rows.len());
        for row in rows {
            m.push(row.as_ref())?;
        }
        Ok(m)
    }

    /// Appends one point.
    pub fn push(&mut self, row: &[f64]) -> Result<(), DataError> {
        if row.len() != self.dim {
            return Err(DataError::DimensionMismatch {
                expected: self.dim,
                got: row.len(),
            });
        }
        self.data.extend_from_slice(row);
        Ok(())
    }

    /// Number of points.
    pub fn len(&self) -> usize {
        self.data.len() / self.dim
    }

    /// Whether the matrix holds no points.
    pub fn is_empty(&self) -> bool {
        self.data.is_empty()
    }

    /// Dimensionality of each point.
    pub fn dim(&self) -> usize {
        self.dim
    }

    /// Borrows point `i`.
    ///
    /// # Panics
    ///
    /// Panics if `i >= len()`.
    #[inline]
    pub fn row(&self, i: usize) -> &[f64] {
        &self.data[i * self.dim..(i + 1) * self.dim]
    }

    /// Mutably borrows point `i`.
    ///
    /// # Panics
    ///
    /// Panics if `i >= len()`.
    #[inline]
    pub fn row_mut(&mut self, i: usize) -> &mut [f64] {
        &mut self.data[i * self.dim..(i + 1) * self.dim]
    }

    /// Iterates over all points in order.
    pub fn rows(&self) -> impl ExactSizeIterator<Item = &[f64]> + '_ {
        self.data.chunks_exact(self.dim)
    }

    /// The underlying flat buffer.
    pub fn as_slice(&self) -> &[f64] {
        &self.data
    }

    /// Consumes the matrix, returning the flat buffer.
    pub fn into_flat(self) -> Vec<f64> {
        self.data
    }

    /// Builds a new matrix containing the rows at `indices` (in the given
    /// order; duplicates allowed).
    ///
    /// # Panics
    ///
    /// Panics if any index is out of bounds.
    pub fn select(&self, indices: &[usize]) -> PointMatrix {
        let mut out = PointMatrix::with_capacity(self.dim, indices.len());
        for &i in indices {
            out.data.extend_from_slice(self.row(i));
        }
        out
    }

    /// Removes all points, keeping the allocation and dimensionality.
    ///
    /// Block readers reuse one matrix as their per-block buffer; `clear`
    /// plus [`PointMatrix::extend_from_flat`] refills it without
    /// reallocating.
    pub fn clear(&mut self) {
        self.data.clear();
    }

    /// Appends rows from a flat row-major buffer.
    ///
    /// Fails with [`DataError::RaggedBuffer`] if `data.len()` is not a
    /// multiple of the matrix dimensionality.
    pub fn extend_from_flat(&mut self, data: &[f64]) -> Result<(), DataError> {
        if !data.len().is_multiple_of(self.dim) {
            return Err(DataError::RaggedBuffer {
                len: data.len(),
                dim: self.dim,
            });
        }
        self.data.extend_from_slice(data);
        Ok(())
    }

    /// Appends rows decoded from little-endian `f64` bytes (the block
    /// file's payload form), straight into the matrix with no intermediate
    /// buffer.
    ///
    /// Fails with [`DataError::RaggedBuffer`] — its `len` the byte count,
    /// its `dim` the row width in bytes — if `bytes` does not hold whole
    /// rows; nothing is appended then.
    pub(crate) fn extend_from_le_bytes(&mut self, bytes: &[u8]) -> Result<(), DataError> {
        let row_bytes = self.dim * 8;
        if !bytes.len().is_multiple_of(row_bytes) {
            return Err(DataError::RaggedBuffer {
                len: bytes.len(),
                dim: row_bytes,
            });
        }
        let (values, _) = bytes.as_chunks::<8>();
        self.data
            .extend(values.iter().map(|&v| f64::from_le_bytes(v)));
        Ok(())
    }

    /// Appends all rows of `other`.
    pub fn extend_from(&mut self, other: &PointMatrix) -> Result<(), DataError> {
        if other.dim != self.dim {
            return Err(DataError::DimensionMismatch {
                expected: self.dim,
                got: other.dim,
            });
        }
        self.data.extend_from_slice(&other.data);
        Ok(())
    }

    /// Centroid (arithmetic mean) of all points, or `None` if empty.
    pub fn centroid(&self) -> Option<Vec<f64>> {
        if self.is_empty() {
            return None;
        }
        let mut c = vec![0.0; self.dim];
        for row in self.rows() {
            for (acc, &v) in c.iter_mut().zip(row) {
                *acc += v;
            }
        }
        let inv = 1.0 / self.len() as f64;
        for v in &mut c {
            *v *= inv;
        }
        Some(c)
    }

    /// Returns per-dimension `(min, max)` bounds, or `None` if empty.
    pub fn bounds(&self) -> Option<(Vec<f64>, Vec<f64>)> {
        if self.is_empty() {
            return None;
        }
        let mut lo = vec![f64::INFINITY; self.dim];
        let mut hi = vec![f64::NEG_INFINITY; self.dim];
        for row in self.rows() {
            for j in 0..self.dim {
                lo[j] = lo[j].min(row[j]);
                hi[j] = hi[j].max(row[j]);
            }
        }
        Some((lo, hi))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn push_and_access() {
        let mut m = PointMatrix::new(3);
        assert!(m.is_empty());
        m.push(&[1.0, 2.0, 3.0]).unwrap();
        m.push(&[4.0, 5.0, 6.0]).unwrap();
        assert_eq!(m.len(), 2);
        assert_eq!(m.dim(), 3);
        assert_eq!(m.row(0), &[1.0, 2.0, 3.0]);
        assert_eq!(m.row(1), &[4.0, 5.0, 6.0]);
        assert_eq!(m.rows().count(), 2);
        assert_eq!(m.as_slice().len(), 6);
    }

    #[test]
    fn push_wrong_dim_fails() {
        let mut m = PointMatrix::new(2);
        let err = m.push(&[1.0]).unwrap_err();
        assert!(matches!(
            err,
            DataError::DimensionMismatch {
                expected: 2,
                got: 1
            }
        ));
    }

    #[test]
    fn from_flat_checks_divisibility() {
        assert!(PointMatrix::from_flat(vec![1.0, 2.0, 3.0], 2).is_err());
        let m = PointMatrix::from_flat(vec![1.0, 2.0, 3.0, 4.0], 2).unwrap();
        assert_eq!(m.len(), 2);
        assert!(PointMatrix::from_flat(vec![], 3).unwrap().is_empty());
        assert!(PointMatrix::from_flat(vec![1.0], 0).is_err());
    }

    #[test]
    fn from_rows_checks_consistency() {
        let m = PointMatrix::from_rows(&[vec![1.0, 2.0], vec![3.0, 4.0]]).unwrap();
        assert_eq!(m.len(), 2);
        assert!(PointMatrix::from_rows(&[vec![1.0], vec![2.0, 3.0]]).is_err());
        let empty: Vec<Vec<f64>> = vec![];
        assert!(matches!(
            PointMatrix::from_rows(&empty),
            Err(DataError::Empty)
        ));
    }

    #[test]
    fn row_mut_modifies_in_place() {
        let mut m = PointMatrix::from_flat(vec![1.0, 2.0, 3.0, 4.0], 2).unwrap();
        m.row_mut(0)[1] = 9.0;
        assert_eq!(m.row(0), &[1.0, 9.0]);
    }

    #[test]
    fn select_gathers_rows_in_order() {
        let m = PointMatrix::from_flat(vec![0.0, 1.0, 2.0, 3.0, 4.0, 5.0], 2).unwrap();
        let s = m.select(&[2, 0, 2]);
        assert_eq!(s.len(), 3);
        assert_eq!(s.row(0), &[4.0, 5.0]);
        assert_eq!(s.row(1), &[0.0, 1.0]);
        assert_eq!(s.row(2), &[4.0, 5.0]);
        assert!(m.select(&[]).is_empty());
    }

    #[test]
    fn extend_from_checks_dim() {
        let mut a = PointMatrix::from_flat(vec![1.0, 2.0], 2).unwrap();
        let b = PointMatrix::from_flat(vec![3.0, 4.0], 2).unwrap();
        a.extend_from(&b).unwrap();
        assert_eq!(a.len(), 2);
        let c = PointMatrix::from_flat(vec![1.0, 2.0, 3.0], 3).unwrap();
        assert!(a.extend_from(&c).is_err());
    }

    #[test]
    fn centroid_and_bounds() {
        let m = PointMatrix::from_flat(vec![0.0, 10.0, 2.0, 20.0, 4.0, 30.0], 2).unwrap();
        assert_eq!(m.centroid().unwrap(), vec![2.0, 20.0]);
        let (lo, hi) = m.bounds().unwrap();
        assert_eq!(lo, vec![0.0, 10.0]);
        assert_eq!(hi, vec![4.0, 30.0]);
        assert!(PointMatrix::new(2).centroid().is_none());
        assert!(PointMatrix::new(2).bounds().is_none());
    }

    #[test]
    #[should_panic(expected = "dimension must be positive")]
    fn zero_dim_panics() {
        PointMatrix::new(0);
    }

    #[test]
    fn clear_and_extend_from_flat_reuse_the_buffer() {
        let mut m = PointMatrix::from_flat(vec![1.0, 2.0, 3.0, 4.0], 2).unwrap();
        m.clear();
        assert!(m.is_empty());
        assert_eq!(m.dim(), 2);
        m.extend_from_flat(&[5.0, 6.0]).unwrap();
        assert_eq!(m.len(), 1);
        assert_eq!(m.row(0), &[5.0, 6.0]);
        assert!(matches!(
            m.extend_from_flat(&[1.0]),
            Err(DataError::RaggedBuffer { len: 1, dim: 2 })
        ));
    }

    #[test]
    fn le_bytes_decode_whole_rows_bit_for_bit() {
        let values = [
            -0.0,
            f64::from_bits(1), // smallest subnormal
            f64::MIN_POSITIVE / 3.0,
            f64::from_bits(0x7ff8_dead_beef_0001), // NaN with a payload
            f64::from_bits(0xfff8_0000_0000_0001), // NaN, sign set
            f64::INFINITY,
        ];
        let bytes: Vec<u8> = values.iter().flat_map(|v| v.to_le_bytes()).collect();
        let mut m = PointMatrix::from_flat(vec![7.0, 8.0], 2).unwrap();
        m.extend_from_le_bytes(&bytes).unwrap();
        assert_eq!(m.len(), 4);
        let got: Vec<u64> = m.as_slice()[2..].iter().map(|v| v.to_bits()).collect();
        let want: Vec<u64> = values.iter().map(|v| v.to_bits()).collect();
        assert_eq!(got, want);
        // Not whole 16-byte rows: 20 bytes are not even whole values.
        for len in [20, 8, 24] {
            assert!(
                matches!(
                    m.extend_from_le_bytes(&bytes[..len]),
                    Err(DataError::RaggedBuffer { len: l, dim: 16 }) if l == len
                ),
                "{len} bytes"
            );
        }
        assert_eq!(m.len(), 4, "a ragged decode appends nothing");
    }

    #[test]
    fn into_flat_round_trip() {
        let m = PointMatrix::from_flat(vec![1.0, 2.0], 1).unwrap();
        assert_eq!(m.clone().into_flat(), vec![1.0, 2.0]);
    }
}
