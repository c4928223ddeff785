//! The `SKMMDL01` binary model file: persisted k-means fit results
//! (centers plus summary accounting), the on-disk half of the serving
//! story — `skm fit --save-model` writes one, `skm serve`/`skm predict`
//! load it.
//!
//! Layout (all integers little-endian):
//!
//! ```text
//! offset  size     field
//! 0       8        magic  b"SKMMDL01"
//! 8       4        dim                    (u32, > 0)
//! 12      4        k                      (u32, > 0)
//! 16      8        cost                   (f64)
//! 24      8        seed_cost              (f64)
//! 32      8        distance_computations  (u64)
//! 40      8        pruned_by_norm_bound   (u64)
//! 48      8        iterations             (u64)
//! 56      4        init rounds            (u32)
//! 60      4        init passes            (u32)
//! 64      8        init candidates        (u64)
//! 72      1        converged              (u8, 0 or 1)
//! 73      1        init_name length  li   (u8)
//! 74      1        refiner_name length lr (u8)
//! 75      5        reserved (must be 0)
//! 80      li       init_name (UTF-8)
//! 80+li   lr       refiner_name (UTF-8)
//! …       k·dim·8  centers, row-major f64
//! end−8   8        FNV-1a 64 checksum over bytes [8, end−8)
//!                  (`kmeans_util::checksum::fnv1a`)
//! ```
//!
//! Deliberately **not** persisted: training labels and per-iteration
//! history (both are `O(n)` training artifacts, useless to a serving
//! tier) and the executor configuration (an execution-environment
//! choice, not a property of the model).
//!
//! Decoding follows the same defensive discipline as `SKMBLK01` and the
//! `SKW` wire protocol: every header field is untrusted, size arithmetic
//! is checked, the trailing checksum covers everything after the magic,
//! and every malformed input maps to a typed [`DataError::Format`] —
//! never a panic and never an allocation from a forged count.

use crate::error::DataError;
use crate::matrix::PointMatrix;
use kmeans_util::checksum::{fnv1a, FNV1A_BASIS};
use std::fs::File;
use std::io::Read;
use std::path::Path;

/// File magic identifying the format (see module docs).
pub const MODEL_FILE_MAGIC: [u8; 8] = *b"SKMMDL01";
/// Fixed-size header length; the variable tail (names, centers,
/// checksum) starts here.
const HEADER_BYTES: usize = 80;

/// The raw, storage-level view of a fitted model — what `SKMMDL01`
/// round-trips. `kmeans-core` converts between this and its
/// `KMeansModel` (which layers the executor and `'static` stage names on
/// top).
#[derive(Clone, Debug, PartialEq)]
pub struct ModelRecord {
    /// Final centers (`k × dim`, both positive).
    pub centers: PointMatrix,
    /// Final training potential.
    pub cost: f64,
    /// Potential of the seed centers before refinement.
    pub seed_cost: f64,
    /// Distance evaluations spent by the refiner.
    pub distance_computations: u64,
    /// Candidates pruned by the assignment kernel's bounds.
    pub pruned_by_norm_bound: u64,
    /// Refinement iterations executed.
    pub iterations: u64,
    /// Seeding rounds executed.
    pub init_rounds: u32,
    /// Seeding passes over the data.
    pub init_passes: u32,
    /// Intermediate candidates the seeding produced.
    pub init_candidates: u64,
    /// Whether the refiner converged.
    pub converged: bool,
    /// Stable name of the initializer (≤ 255 bytes of UTF-8).
    pub init_name: String,
    /// Stable name of the refiner (≤ 255 bytes of UTF-8).
    pub refiner_name: String,
}

/// Encodes a model record as one complete `SKMMDL01` byte image — the
/// exact bytes [`save_model_file`] writes and the `SwapModel` control
/// frame ships.
///
/// # Errors
///
/// Rejects empty center sets, `dim`/`k` beyond `u32`, and stage names
/// longer than 255 bytes.
pub fn encode_model(record: &ModelRecord) -> Result<Vec<u8>, DataError> {
    let k = record.centers.len();
    let dim = record.centers.dim();
    if k == 0 || dim == 0 {
        return Err(DataError::Empty);
    }
    let k_u32 =
        u32::try_from(k).map_err(|_| DataError::InvalidParam(format!("k {k} exceeds u32")))?;
    let dim_u32 = u32::try_from(dim)
        .map_err(|_| DataError::InvalidParam(format!("dim {dim} exceeds u32")))?;
    let name_len = |name: &str, what: &str| -> Result<u8, DataError> {
        u8::try_from(name.len())
            .map_err(|_| DataError::InvalidParam(format!("{what} name exceeds 255 bytes")))
    };
    let li = name_len(&record.init_name, "initializer")?;
    let lr = name_len(&record.refiner_name, "refiner")?;
    let mut out = Vec::with_capacity(HEADER_BYTES + li as usize + lr as usize + k * dim * 8 + 8);
    out.extend_from_slice(&MODEL_FILE_MAGIC);
    out.extend_from_slice(&dim_u32.to_le_bytes());
    out.extend_from_slice(&k_u32.to_le_bytes());
    out.extend_from_slice(&record.cost.to_le_bytes());
    out.extend_from_slice(&record.seed_cost.to_le_bytes());
    out.extend_from_slice(&record.distance_computations.to_le_bytes());
    out.extend_from_slice(&record.pruned_by_norm_bound.to_le_bytes());
    out.extend_from_slice(&record.iterations.to_le_bytes());
    out.extend_from_slice(&record.init_rounds.to_le_bytes());
    out.extend_from_slice(&record.init_passes.to_le_bytes());
    out.extend_from_slice(&record.init_candidates.to_le_bytes());
    out.push(record.converged as u8);
    out.push(li);
    out.push(lr);
    out.extend_from_slice(&[0u8; 5]);
    debug_assert_eq!(out.len(), HEADER_BYTES);
    out.extend_from_slice(record.init_name.as_bytes());
    out.extend_from_slice(record.refiner_name.as_bytes());
    for &v in record.centers.as_slice() {
        out.extend_from_slice(&v.to_le_bytes());
    }
    let checksum = fnv1a(FNV1A_BASIS, &out[8..]);
    out.extend_from_slice(&checksum.to_le_bytes());
    Ok(out)
}

/// Decodes a complete `SKMMDL01` byte image (inverse of
/// [`encode_model`]). Every field is validated before any
/// length-dependent allocation.
pub fn decode_model(bytes: &[u8]) -> Result<ModelRecord, DataError> {
    if bytes.len() < 8 || bytes[..8] != MODEL_FILE_MAGIC {
        return Err(DataError::Format("bad magic (expected SKMMDL01)".into()));
    }
    if bytes.len() < HEADER_BYTES + 8 {
        return Err(DataError::Format(format!(
            "model image of {} bytes is shorter than the {}-byte minimum",
            bytes.len(),
            HEADER_BYTES + 8
        )));
    }
    let u32_at = |off: usize| u32::from_le_bytes(bytes[off..off + 4].try_into().expect("4"));
    let u64_at = |off: usize| u64::from_le_bytes(bytes[off..off + 8].try_into().expect("8"));
    let f64_at = |off: usize| f64::from_le_bytes(bytes[off..off + 8].try_into().expect("8"));
    let dim = u32_at(8) as usize;
    let k = u32_at(12) as usize;
    if dim == 0 || k == 0 {
        return Err(DataError::Format(format!(
            "header declares dim={dim}, k={k} (both must be positive)"
        )));
    }
    let converged = match bytes[72] {
        0 => false,
        1 => true,
        other => {
            return Err(DataError::Format(format!(
                "converged flag must be 0 or 1, got {other}"
            )))
        }
    };
    let li = bytes[73] as usize;
    let lr = bytes[74] as usize;
    if bytes[75..80].iter().any(|&b| b != 0) {
        return Err(DataError::Format(
            "reserved header bytes must be zero".into(),
        ));
    }
    // Untrusted sizes: checked arithmetic, exact-length match (a model
    // image has no legitimate trailing bytes).
    let center_bytes = (k as u64)
        .checked_mul(dim as u64)
        .and_then(|v| v.checked_mul(8))
        .ok_or_else(|| DataError::Format("header implies an impossibly large center set".into()))?;
    let expected = (HEADER_BYTES as u64)
        .checked_add(li as u64 + lr as u64)
        .and_then(|v| v.checked_add(center_bytes))
        .and_then(|v| v.checked_add(8))
        .ok_or_else(|| DataError::Format("header implies an impossibly large image".into()))?;
    if bytes.len() as u64 != expected {
        return Err(DataError::Format(format!(
            "model image is {} bytes, header implies {expected}",
            bytes.len()
        )));
    }
    let declared = u64_at(bytes.len() - 8);
    let computed = fnv1a(FNV1A_BASIS, &bytes[8..bytes.len() - 8]);
    if declared != computed {
        return Err(DataError::Format(format!(
            "checksum mismatch: declared {declared:#x}, computed {computed:#x}"
        )));
    }
    let names_at = HEADER_BYTES;
    let text = |range: std::ops::Range<usize>, what: &str| -> Result<String, DataError> {
        String::from_utf8(bytes[range].to_vec())
            .map_err(|_| DataError::Format(format!("{what} name is not UTF-8")))
    };
    let init_name = text(names_at..names_at + li, "initializer")?;
    let refiner_name = text(names_at + li..names_at + li + lr, "refiner")?;
    let centers_at = names_at + li + lr;
    let flat: Vec<f64> = bytes[centers_at..bytes.len() - 8]
        .chunks_exact(8)
        .map(|c| f64::from_le_bytes(c.try_into().expect("8")))
        .collect();
    let centers = PointMatrix::from_flat(flat, dim)
        .map_err(|_| DataError::Format("ragged center payload".into()))?;
    debug_assert_eq!(centers.len(), k);
    Ok(ModelRecord {
        centers,
        cost: f64_at(16),
        seed_cost: f64_at(24),
        distance_computations: u64_at(32),
        pruned_by_norm_bound: u64_at(40),
        iterations: u64_at(48),
        init_rounds: u32_at(56),
        init_passes: u32_at(60),
        init_candidates: u64_at(64),
        converged,
        init_name,
        refiner_name,
    })
}

/// Writes a model record to `path` as one `SKMMDL01` file.
pub fn save_model_file(path: impl AsRef<Path>, record: &ModelRecord) -> Result<(), DataError> {
    let bytes = encode_model(record)?;
    std::fs::write(path, bytes)?;
    Ok(())
}

/// Loads a `SKMMDL01` file. Model images are small (`k·dim·8` bytes plus
/// a fixed header — centers, not data), so the file is read whole.
pub fn load_model_file(path: impl AsRef<Path>) -> Result<ModelRecord, DataError> {
    let mut bytes = Vec::new();
    File::open(path)?.read_to_end(&mut bytes)?;
    decode_model(&bytes)
}

/// Returns whether `path` starts with the model-file magic (used by the
/// CLI to auto-detect centers-CSV vs. model-file inputs, like
/// [`crate::blockfile::is_block_file`] for block files).
pub fn is_model_file(path: impl AsRef<Path>) -> bool {
    let Ok(mut file) = File::open(path) else {
        return false;
    };
    let mut magic = [0u8; 8];
    file.read_exact(&mut magic).is_ok() && magic == MODEL_FILE_MAGIC
}

#[cfg(test)]
mod tests {
    use super::*;

    fn record() -> ModelRecord {
        ModelRecord {
            centers: PointMatrix::from_flat(vec![1.0, 2.0, -3.5, 0.25, 1e300, -0.0], 3).unwrap(),
            cost: 123.456,
            seed_cost: 234.5,
            distance_computations: 42,
            pruned_by_norm_bound: 17,
            iterations: 9,
            init_rounds: 5,
            init_passes: 6,
            init_candidates: 11,
            converged: true,
            init_name: "kmeans-par".into(),
            refiner_name: "lloyd".into(),
        }
    }

    #[test]
    fn round_trips_bitwise() {
        let r = record();
        let bytes = encode_model(&r).unwrap();
        let back = decode_model(&bytes).unwrap();
        assert_eq!(back, r);
        assert_eq!(
            back.centers
                .as_slice()
                .iter()
                .map(|v| v.to_bits())
                .collect::<Vec<_>>(),
            r.centers
                .as_slice()
                .iter()
                .map(|v| v.to_bits())
                .collect::<Vec<_>>()
        );
    }

    #[test]
    fn file_round_trip_and_magic_detection() {
        let dir = std::env::temp_dir().join("kmeans_modelfile_tests");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("roundtrip.skmm");
        let r = record();
        save_model_file(&path, &r).unwrap();
        assert!(is_model_file(&path));
        assert!(!crate::blockfile::is_block_file(&path));
        assert_eq!(load_model_file(&path).unwrap(), r);
        std::fs::remove_file(path).unwrap();
    }

    #[test]
    fn corrupted_images_are_typed_errors() {
        let bytes = encode_model(&record()).unwrap();
        // Bad magic.
        let mut bad = bytes.clone();
        bad[0] = b'X';
        assert!(matches!(decode_model(&bad), Err(DataError::Format(_))));
        // Truncation at every prefix length.
        for cut in 0..bytes.len() {
            assert!(
                matches!(decode_model(&bytes[..cut]), Err(DataError::Format(_))),
                "cut {cut}"
            );
        }
        // Any flipped payload byte fails the checksum (or a field check).
        for pos in 8..bytes.len() {
            let mut flipped = bytes.clone();
            flipped[pos] ^= 0xff;
            assert!(
                matches!(decode_model(&flipped), Err(DataError::Format(_))),
                "flip at {pos} accepted"
            );
        }
        // Trailing garbage is rejected (exact-length contract).
        let mut padded = bytes.clone();
        padded.push(0);
        assert!(matches!(decode_model(&padded), Err(DataError::Format(_))));
    }

    #[test]
    fn adversarial_header_sizes_cannot_over_allocate() {
        // A header promising 2^61 center rows in a tiny image must be
        // rejected by checked arithmetic, not absorbed into a Vec.
        let mut bytes = encode_model(&record()).unwrap();
        bytes[8..12].copy_from_slice(&u32::MAX.to_le_bytes()); // dim
        bytes[12..16].copy_from_slice(&u32::MAX.to_le_bytes()); // k
        assert!(matches!(decode_model(&bytes), Err(DataError::Format(_))));
    }

    #[test]
    fn zero_k_and_zero_dim_are_rejected() {
        let bytes = encode_model(&record()).unwrap();
        for off in [8usize, 12] {
            let mut bad = bytes.clone();
            bad[off..off + 4].copy_from_slice(&0u32.to_le_bytes());
            assert!(matches!(decode_model(&bad), Err(DataError::Format(_))));
        }
        let empty = ModelRecord {
            centers: PointMatrix::new(2),
            ..record()
        };
        assert!(matches!(encode_model(&empty), Err(DataError::Empty)));
    }
}
