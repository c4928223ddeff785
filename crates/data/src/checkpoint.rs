//! The `SKMCKPT1` binary checkpoint file: a journal of distributed-round
//! results written by the coordinator after every `RoundBackend` round,
//! so an interrupted `skm fit --distributed --checkpoint FILE` job can be
//! restarted and resumed bit-identically.
//!
//! This crate stores the *container*: a fixed job header (the fingerprint
//! of the fit configuration) followed by opaque journal records. The
//! semantic encoding of each record payload — what a sampling round or an
//! assignment round returned — lives in `kmeans-cluster`, which owns the
//! round vocabulary. The split keeps `kmeans-data` free of any dependency
//! on the driver layer while reusing its file-format discipline.
//!
//! Layout (all integers little-endian):
//!
//! ```text
//! offset  size   field
//! 0       8      magic  b"SKMCKPT1"
//! 8       8      seed          (u64)  — the fit's configured seed
//! 16      8      k             (u64)
//! 24      8      global_n      (u64)
//! 32      8      shard_size    (u64)
//! 40      4      dim           (u32)
//! 44      4      reserved (must be 0)
//! 48      8      record count R (u64)
//! 56      …      R records, each:
//!                  kind        (u8)   — round kind, assigned by kmeans-cluster
//!                  fingerprint (u64)  — FNV-1a of the round's arguments
//!                  len         (u64)  — payload byte length
//!                  payload     (len bytes, opaque)
//! end−8   8      FNV-1a 64 checksum over bytes [8, end−8)
//!                (`kmeans_util::checksum::fnv1a`)
//! ```
//!
//! Decoding follows the same defensive discipline as `SKMBLK01` and
//! `SKMMDL01`: every field is untrusted, size arithmetic is checked,
//! record lengths are validated against the remaining bytes *before* any
//! allocation, the trailing checksum covers everything after the magic,
//! and every malformed input maps to a typed [`DataError::Format`] —
//! never a panic and never an allocation from a forged count.

use crate::error::DataError;
use kmeans_util::checksum::{fnv1a, FNV1A_BASIS};
use std::fs::File;
use std::io::{Read, Write};
use std::path::Path;

/// File magic identifying the format (see module docs).
pub const CHECKPOINT_FILE_MAGIC: [u8; 8] = *b"SKMCKPT1";
/// Fixed-size header length; journal records start here.
const HEADER_BYTES: usize = 56;
/// Per-record fixed overhead: kind (1) + fingerprint (8) + len (8).
const RECORD_OVERHEAD: usize = 17;

/// The job identity a checkpoint belongs to. Resume refuses a journal
/// whose meta does not match the restarted fit exactly — replaying
/// another job's round results would silently corrupt the output.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct CheckpointMeta {
    /// The fit's configured RNG seed.
    pub seed: u64,
    /// Number of clusters.
    pub k: u64,
    /// Total rows across all workers.
    pub global_n: u64,
    /// The executor shard size the fit ran with, which sets both fold
    /// grids (the accumulation grid derives from it).
    pub shard_size: u64,
    /// Point dimensionality.
    pub dim: u32,
}

/// One journaled round result: an opaque payload plus the round `kind`
/// and an argument `fingerprint`, both assigned by the layer that owns
/// the round vocabulary. On resume the driver recomputes the fingerprint
/// of the round it is about to run and refuses a mismatch.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct CheckpointRecord {
    /// Round kind discriminant.
    pub kind: u8,
    /// FNV-1a fingerprint of the round's arguments.
    pub fingerprint: u64,
    /// Encoded round result.
    pub payload: Vec<u8>,
}

/// Encodes a checkpoint as one complete `SKMCKPT1` byte image — the
/// exact bytes [`save_checkpoint_file`] writes.
///
/// # Errors
///
/// Rejects record counts or payload lengths beyond what the checked
/// size arithmetic can express (practically unreachable).
pub fn encode_checkpoint(
    meta: &CheckpointMeta,
    records: &[CheckpointRecord],
) -> Result<Vec<u8>, DataError> {
    let mut body = HEADER_BYTES
        .checked_add(8)
        .ok_or_else(|| DataError::Format("checkpoint size overflow".into()))?;
    for rec in records {
        body = body
            .checked_add(RECORD_OVERHEAD)
            .and_then(|b| b.checked_add(rec.payload.len()))
            .ok_or_else(|| DataError::Format("checkpoint size overflow".into()))?;
    }
    let count = u64::try_from(records.len())
        .map_err(|_| DataError::Format("checkpoint record count exceeds u64".into()))?;
    let mut out = Vec::with_capacity(body);
    out.extend_from_slice(&CHECKPOINT_FILE_MAGIC);
    out.extend_from_slice(&meta.seed.to_le_bytes());
    out.extend_from_slice(&meta.k.to_le_bytes());
    out.extend_from_slice(&meta.global_n.to_le_bytes());
    out.extend_from_slice(&meta.shard_size.to_le_bytes());
    out.extend_from_slice(&meta.dim.to_le_bytes());
    out.extend_from_slice(&[0u8; 4]);
    out.extend_from_slice(&count.to_le_bytes());
    debug_assert_eq!(out.len(), HEADER_BYTES);
    for rec in records {
        let len = u64::try_from(rec.payload.len())
            .map_err(|_| DataError::Format("checkpoint record exceeds u64".into()))?;
        out.push(rec.kind);
        out.extend_from_slice(&rec.fingerprint.to_le_bytes());
        out.extend_from_slice(&len.to_le_bytes());
        out.extend_from_slice(&rec.payload);
    }
    let checksum = fnv1a(FNV1A_BASIS, &out[8..]);
    out.extend_from_slice(&checksum.to_le_bytes());
    Ok(out)
}

/// Decodes a complete `SKMCKPT1` byte image.
///
/// # Errors
///
/// Every malformed input — wrong magic, truncation, checksum mismatch,
/// nonzero reserved bytes, forged record count or length, trailing
/// garbage — is a typed [`DataError::Format`].
pub fn decode_checkpoint(
    bytes: &[u8],
) -> Result<(CheckpointMeta, Vec<CheckpointRecord>), DataError> {
    let fail = |what: &str| DataError::Format(format!("checkpoint file: {what}"));
    if bytes.len() < HEADER_BYTES + 8 {
        return Err(fail("shorter than header"));
    }
    if bytes[..8] != CHECKPOINT_FILE_MAGIC {
        return Err(fail("bad magic"));
    }
    let end = bytes.len() - 8;
    let stored = u64::from_le_bytes(bytes[end..].try_into().expect("8 bytes"));
    let computed = fnv1a(FNV1A_BASIS, &bytes[8..end]);
    if stored != computed {
        return Err(fail("checksum mismatch"));
    }
    let u64_at = |off: usize| u64::from_le_bytes(bytes[off..off + 8].try_into().expect("8 bytes"));
    let meta = CheckpointMeta {
        seed: u64_at(8),
        k: u64_at(16),
        global_n: u64_at(24),
        shard_size: u64_at(32),
        dim: u32::from_le_bytes(bytes[40..44].try_into().expect("4 bytes")),
    };
    if bytes[44..48] != [0u8; 4] {
        return Err(fail("nonzero reserved bytes"));
    }
    let count = u64_at(48);
    let count = usize::try_from(count).map_err(|_| fail("record count exceeds usize"))?;
    let mut records = Vec::new();
    let mut cursor = HEADER_BYTES;
    for _ in 0..count {
        if end - cursor < RECORD_OVERHEAD {
            return Err(fail("truncated record header"));
        }
        let kind = bytes[cursor];
        let fingerprint = u64_at(cursor + 1);
        let len = u64_at(cursor + 9);
        let len = usize::try_from(len).map_err(|_| fail("record length exceeds usize"))?;
        cursor += RECORD_OVERHEAD;
        if end - cursor < len {
            return Err(fail("record length exceeds file"));
        }
        records.push(CheckpointRecord {
            kind,
            fingerprint,
            payload: bytes[cursor..cursor + len].to_vec(),
        });
        cursor += len;
    }
    if cursor != end {
        return Err(fail("trailing bytes after records"));
    }
    Ok((meta, records))
}

/// Writes a checkpoint file atomically: the image goes to `<path>.tmp`
/// first and is renamed over `path`, so a crash mid-write leaves either
/// the previous complete checkpoint or none — never a torn file.
pub fn save_checkpoint_file(
    path: impl AsRef<Path>,
    meta: &CheckpointMeta,
    records: &[CheckpointRecord],
) -> Result<(), DataError> {
    let path = path.as_ref();
    let bytes = encode_checkpoint(meta, records)?;
    let mut tmp = path.as_os_str().to_owned();
    tmp.push(".tmp");
    let tmp = std::path::PathBuf::from(tmp);
    {
        let mut file = File::create(&tmp)?;
        file.write_all(&bytes)?;
        file.sync_all()?;
    }
    std::fs::rename(&tmp, path)?;
    Ok(())
}

/// Reads and decodes a checkpoint file.
pub fn load_checkpoint_file(
    path: impl AsRef<Path>,
) -> Result<(CheckpointMeta, Vec<CheckpointRecord>), DataError> {
    let mut bytes = Vec::new();
    File::open(path.as_ref())?.read_to_end(&mut bytes)?;
    decode_checkpoint(&bytes)
}

/// Cheap sniff: does this file start with the `SKMCKPT1` magic?
pub fn is_checkpoint_file(path: impl AsRef<Path>) -> bool {
    let mut magic = [0u8; 8];
    match File::open(path.as_ref()) {
        Ok(mut f) => f.read_exact(&mut magic).is_ok() && magic == CHECKPOINT_FILE_MAGIC,
        Err(_) => false,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> (CheckpointMeta, Vec<CheckpointRecord>) {
        let meta = CheckpointMeta {
            seed: 42,
            k: 6,
            global_n: 192,
            shard_size: 16,
            dim: 3,
        };
        let records = vec![
            CheckpointRecord {
                kind: 1,
                fingerprint: 0xdead_beef,
                payload: vec![1, 2, 3, 4, 5],
            },
            CheckpointRecord {
                kind: 2,
                fingerprint: 7,
                payload: vec![],
            },
            CheckpointRecord {
                kind: 9,
                fingerprint: u64::MAX,
                payload: (0..=255u8).collect(),
            },
        ];
        (meta, records)
    }

    #[test]
    fn round_trips() {
        let (meta, records) = sample();
        let bytes = encode_checkpoint(&meta, &records).unwrap();
        let (got_meta, got_records) = decode_checkpoint(&bytes).unwrap();
        assert_eq!(got_meta, meta);
        assert_eq!(got_records, records);
    }

    #[test]
    fn empty_journal_round_trips() {
        let (meta, _) = sample();
        let bytes = encode_checkpoint(&meta, &[]).unwrap();
        let (got_meta, got_records) = decode_checkpoint(&bytes).unwrap();
        assert_eq!(got_meta, meta);
        assert!(got_records.is_empty());
    }

    #[test]
    fn every_truncation_is_rejected() {
        let (meta, records) = sample();
        let bytes = encode_checkpoint(&meta, &records).unwrap();
        for len in 0..bytes.len() {
            assert!(
                decode_checkpoint(&bytes[..len]).is_err(),
                "prefix of {len} bytes decoded"
            );
        }
    }

    #[test]
    fn every_bit_flip_is_rejected_or_detected() {
        let (meta, records) = sample();
        let bytes = encode_checkpoint(&meta, &records).unwrap();
        for i in 0..bytes.len() {
            let mut bad = bytes.clone();
            bad[i] ^= 0x01;
            let decoded = decode_checkpoint(&bad);
            assert!(decoded.is_err(), "flip at byte {i} decoded");
        }
    }

    #[test]
    fn trailing_garbage_is_rejected() {
        let (meta, records) = sample();
        let mut bytes = encode_checkpoint(&meta, &records).unwrap();
        bytes.push(0);
        assert!(decode_checkpoint(&bytes).is_err());
    }

    #[test]
    fn forged_record_length_is_rejected_without_allocation() {
        let (meta, records) = sample();
        let mut bytes = encode_checkpoint(&meta, &records).unwrap();
        // Forge the first record's length to a huge value and re-seal the
        // checksum so only the length check can catch it.
        let off = HEADER_BYTES + 9;
        bytes[off..off + 8].copy_from_slice(&u64::MAX.to_le_bytes());
        let end = bytes.len() - 8;
        let checksum = fnv1a(FNV1A_BASIS, &bytes[8..end]);
        bytes[end..].copy_from_slice(&checksum.to_le_bytes());
        assert!(decode_checkpoint(&bytes).is_err());
    }

    #[test]
    fn file_round_trip_and_sniff() {
        let dir = std::env::temp_dir().join(format!("skm-ckpt-test-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("job.ckpt");
        let (meta, records) = sample();
        save_checkpoint_file(&path, &meta, &records).unwrap();
        assert!(is_checkpoint_file(&path));
        let (got_meta, got_records) = load_checkpoint_file(&path).unwrap();
        assert_eq!(got_meta, meta);
        assert_eq!(got_records, records);
        std::fs::remove_dir_all(&dir).unwrap();
    }
}
