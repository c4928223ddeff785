//! Property tests for the `SKMCKPT1` round-checkpoint file and the
//! resume machinery on top of it: random journals round-trip bitwise;
//! adversarial bytes — flips, truncations, forged record lengths,
//! garbage — draw typed errors, never panics, never a forged-count
//! allocation (the `SKMMDL01`/`SKW1` defensive discipline); and a fit
//! resumed from a journal truncated at *any* round finishes
//! bit-identically to the uninterrupted fit — including the end-to-end
//! story of a fit crashing mid-job and being re-run against the
//! persisted checkpoint file.

use proptest::collection::vec;
use proptest::prelude::*;
use scalable_kmeans::cluster::fault::tag;
use scalable_kmeans::cluster::{
    spawn_loopback_worker, spawn_loopback_worker_with_faults, Cluster, ClusterError, FaultAction,
    FitDistributed, RoundCheckpoint, Transport,
};
use scalable_kmeans::core::model::{KMeans, KMeansModel};
use scalable_kmeans::core::KMeansError;
use scalable_kmeans::data::synth::GaussMixture;
use scalable_kmeans::data::{
    decode_checkpoint, encode_checkpoint, is_checkpoint_file, load_checkpoint_file,
    save_checkpoint_file, CheckpointMeta, CheckpointRecord, InMemorySource, PointMatrix,
};
use scalable_kmeans::par::Parallelism;

// --- codec fuzzing --------------------------------------------------------

fn meta_from(ints: &[u64]) -> CheckpointMeta {
    let get = |i: usize| ints.get(i).copied().unwrap_or(3);
    CheckpointMeta {
        seed: get(0),
        k: get(1),
        global_n: get(2),
        shard_size: get(3),
        dim: get(4) as u32,
    }
}

fn records_from(raw: &[(u8, u64, Vec<u8>)]) -> Vec<CheckpointRecord> {
    raw.iter()
        .map(|(kind, fingerprint, payload)| CheckpointRecord {
            kind: *kind,
            fingerprint: *fingerprint,
            payload: payload.clone(),
        })
        .collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn random_journals_round_trip_bitwise(
        ints in vec(any::<u64>(), 1..6),
        raw in vec((any::<u8>(), any::<u64>(), vec(any::<u8>(), 0..80)), 0..12),
    ) {
        let meta = meta_from(&ints);
        let records = records_from(&raw);
        let image = encode_checkpoint(&meta, &records).unwrap();
        let (back_meta, back_records) = decode_checkpoint(&image).unwrap();
        prop_assert_eq!(back_meta, meta);
        prop_assert_eq!(back_records, records);
    }

    #[test]
    fn any_byte_flip_is_detected(
        ints in vec(any::<u64>(), 1..6),
        raw in vec((any::<u8>(), any::<u64>(), vec(any::<u8>(), 0..40)), 0..8),
        pos_frac in 0.0f64..1.0,
        flip in 1u64..256,
    ) {
        // The trailing checksum covers everything after the magic, and
        // the magic itself is pinned — a real flip anywhere must reject.
        let meta = meta_from(&ints);
        let records = records_from(&raw);
        let mut image = encode_checkpoint(&meta, &records).unwrap();
        let pos = ((image.len() as f64) * pos_frac) as usize % image.len();
        image[pos] ^= flip as u8;
        prop_assert!(decode_checkpoint(&image).is_err(), "flip at {} accepted", pos);
    }

    #[test]
    fn truncations_are_typed_errors(
        ints in vec(any::<u64>(), 1..6),
        raw in vec((any::<u8>(), any::<u64>(), vec(any::<u8>(), 0..40)), 1..8),
        cut_frac in 0.0f64..1.0,
    ) {
        let meta = meta_from(&ints);
        let records = records_from(&raw);
        let image = encode_checkpoint(&meta, &records).unwrap();
        let cut = ((image.len() as f64) * cut_frac) as usize;
        prop_assert!(decode_checkpoint(&image[..cut.min(image.len() - 1)]).is_err());
    }

    #[test]
    fn forged_record_lengths_never_over_allocate(
        ints in vec(any::<u64>(), 1..6),
        payload in vec(any::<u8>(), 1..40),
        forged in any::<u64>(),
    ) {
        // The first record's length field sits right after the header
        // (kind u8 + fingerprint u64). Forging it to promise more bytes
        // than the file holds must fail checked arithmetic before any
        // allocation; if the forgery happens to restore the original
        // bytes the checksum still has the final say.
        let meta = meta_from(&ints);
        let records = records_from(&[(8, 0xfeed, payload)]);
        let mut image = encode_checkpoint(&meta, &records).unwrap();
        let len_at = 56 + 1 + 8;
        image[len_at..len_at + 8].copy_from_slice(&forged.to_le_bytes());
        match decode_checkpoint(&image) {
            Err(_) => {}
            Ok((m, r)) => {
                prop_assert_eq!(m, meta);
                prop_assert_eq!(r, records);
            }
        }
    }

    #[test]
    fn garbage_never_panics(bytes in vec(any::<u64>(), 0..64)) {
        let garbage: Vec<u8> = bytes.iter().flat_map(|b| b.to_le_bytes()).collect();
        let _ = decode_checkpoint(&garbage);
        let mut with_magic = b"SKMCKPT1".to_vec();
        with_magic.extend_from_slice(&garbage);
        let _ = decode_checkpoint(&with_magic);
    }
}

// --- resume parity --------------------------------------------------------

const N: usize = 192;
/// At least `PRUNE_MIN_CANDIDATES` (8), so the recovered and resumed
/// fits run the pruned kernel — cold and warm sweeps — and the kernel
/// counters below are pinned through every failure point.
const K: usize = 12;
const SHARD: usize = 16;

fn gauss() -> PointMatrix {
    GaussMixture::new(K)
        .points(N)
        .center_variance(50.0)
        .generate(11)
        .unwrap()
        .dataset
        .into_parts()
        .1
}

fn slice_rows(points: &PointMatrix, start: usize, rows: usize) -> PointMatrix {
    let dim = points.dim();
    PointMatrix::from_flat(
        points.as_slice()[start * dim..(start + rows) * dim].to_vec(),
        dim,
    )
    .unwrap()
}

type WorkerHandle = std::thread::JoinHandle<Result<(), ClusterError>>;

fn loopback_cluster(points: &PointMatrix, workers: usize) -> (Cluster, Vec<WorkerHandle>) {
    let per = points.len() / workers;
    let mut transports: Vec<Box<dyn Transport>> = Vec::new();
    let mut handles = Vec::new();
    for w in 0..workers {
        let rows = if w + 1 == workers {
            points.len() - w * per
        } else {
            per
        };
        let source = InMemorySource::new(slice_rows(points, w * per, rows), 3).unwrap();
        let (t, h) = spawn_loopback_worker(source, Parallelism::Sequential);
        transports.push(Box::new(t));
        handles.push(h);
    }
    (Cluster::new(transports).unwrap(), handles)
}

fn meta_for(points: &PointMatrix, seed: u64) -> CheckpointMeta {
    CheckpointMeta {
        seed,
        k: K as u64,
        global_n: points.len() as u64,
        shard_size: SHARD as u64,
        dim: points.dim() as u32,
    }
}

fn assert_same_fit(a: &KMeansModel, b: &KMeansModel, what: &str) {
    assert_eq!(a.centers(), b.centers(), "{what}: centers");
    assert_eq!(a.labels(), b.labels(), "{what}: labels");
    assert_eq!(a.cost().to_bits(), b.cost().to_bits(), "{what}: cost");
    assert_eq!(a.iterations(), b.iterations(), "{what}: iterations");
    assert_eq!(
        a.init_stats().seed_cost.to_bits(),
        b.init_stats().seed_cost.to_bits(),
        "{what}: seed cost"
    );
    assert_eq!(
        a.pruned_by_norm_bound(),
        b.pruned_by_norm_bound(),
        "{what}: kernel prune counter"
    );
}

/// Resuming from the journal truncated at *every* possible round — the
/// deterministic superset of "random r" — reproduces the uninterrupted
/// fit bit for bit and re-fills the journal to the same length.
#[test]
fn resume_from_every_truncation_point_is_bit_identical() {
    let points = gauss();
    let builder = KMeans::params(K).seed(42).shard_size(SHARD);
    let reference = builder.clone().fit(&points).unwrap();

    let mut full = RoundCheckpoint::new(meta_for(&points, 42));
    let (mut cluster, handles) = loopback_cluster(&points, 2);
    let uninterrupted = builder
        .clone()
        .fit_distributed_resumable(&mut cluster, &mut full)
        .unwrap();
    cluster.shutdown();
    for h in handles {
        h.join().unwrap().unwrap();
    }
    assert_same_fit(&reference, &uninterrupted, "journaled fit vs in-memory");
    // Fused rounds: one journal record per compound round, so the floor
    // is lower than the old one-record-per-primitive journal (first
    // gather + init+sample + 4 update+sample + update+weights + potential
    // = 8 before any Lloyd assignment).
    assert!(
        full.len() > 8,
        "expected a multi-round journal, got {}",
        full.len()
    );

    for r in 0..=full.len() {
        let mut partial = full.clone();
        partial.truncate(r);
        let (mut cluster, handles) = loopback_cluster(&points, 2);
        let resumed = builder
            .clone()
            .fit_distributed_resumable(&mut cluster, &mut partial)
            .unwrap_or_else(|e| panic!("resume at round {r}: {e}"));
        // Every live record is one round trip, and going live costs one
        // more: the catch-up compound (the tracker segments during
        // seeding, the last assign's centers from the first assignment
        // on), whenever the replayed prefix holds a tracker round
        // (record 0 is the first-center gather) — also when the resume
        // goes live during Lloyd, with one assignment to replay.
        let live = (full.len() - r) as u64;
        let catch_up = u64::from(r >= 2 && live > 0);
        assert_eq!(
            cluster.round_trips(),
            live + catch_up,
            "resume at round {r}: round trips"
        );
        cluster.shutdown();
        for h in handles {
            h.join().unwrap().unwrap();
        }
        assert_same_fit(&reference, &resumed, &format!("resume at round {r}"));
        assert_eq!(
            partial.len(),
            full.len(),
            "resume at round {r} must re-fill the journal"
        );
    }
}

/// A journal bound to a different job (wrong seed) is rejected with a
/// typed error before any round runs.
#[test]
fn foreign_journal_is_rejected() {
    let points = gauss();
    let (mut cluster, handles) = loopback_cluster(&points, 2);
    let mut wrong_seed = RoundCheckpoint::new(meta_for(&points, 43));
    let err = KMeans::params(K)
        .seed(42)
        .shard_size(SHARD)
        .fit_distributed_resumable(&mut cluster, &mut wrong_seed)
        .unwrap_err();
    assert!(err.to_string().contains("different job"), "{err}");
    cluster.shutdown();
    for h in handles {
        h.join().unwrap().unwrap();
    }
}

/// A checkpoint *file* written under another seed is refused by the
/// file-backed fit with the typed mismatch error, which names the file,
/// and the file is left as it was.
#[test]
fn foreign_checkpoint_file_is_refused_and_kept() {
    let points = gauss();
    let dir = std::env::temp_dir().join("kmeans_ckpt_foreign");
    std::fs::create_dir_all(&dir).unwrap();
    let path = dir.join("seed43.skmc");
    let records = vec![CheckpointRecord {
        kind: 15,
        fingerprint: 7,
        payload: vec![1, 2, 3],
    }];
    save_checkpoint_file(&path, &meta_for(&points, 43), &records).unwrap();
    let (mut cluster, handles) = loopback_cluster(&points, 2);
    let err = KMeans::params(K)
        .seed(42)
        .shard_size(SHARD)
        .fit_distributed_checkpointed(&mut cluster, &path)
        .unwrap_err();
    assert!(matches!(err, KMeansError::InvalidConfig(_)), "{err:?}");
    let message = err.to_string();
    assert!(message.contains("different job"), "{message}");
    assert!(message.contains(&path.display().to_string()), "{message}");
    cluster.shutdown();
    for h in handles {
        h.join().unwrap().unwrap();
    }
    assert_eq!(
        load_checkpoint_file(&path).unwrap(),
        (meta_for(&points, 43), records)
    );
    std::fs::remove_file(&path).unwrap();
}

/// The crash-resume story end to end, through the *file*: a checkpointed
/// fit dies mid-job (scripted worker death, no recovery armed), leaving
/// an `SKMCKPT1` file of the completed rounds; re-running the same fit
/// against a healthy cluster resumes from the file, finishes
/// bit-identically, and cleans the file up. A tampered copy of the
/// crash file (one fingerprint bit flipped) is rejected as a typed
/// error.
#[test]
fn crashed_fit_resumes_from_its_checkpoint_file() {
    let points = gauss();
    let builder = KMeans::params(K).seed(42).shard_size(SHARD);
    let reference = builder.clone().fit(&points).unwrap();
    let dir = std::env::temp_dir().join("kmeans_ckpt_resume");
    std::fs::create_dir_all(&dir).unwrap();
    let path = dir.join("fit.skmc");
    let _ = std::fs::remove_file(&path);

    // Run 1: worker 1 dies at the first Lloyd assignment; no recovery is
    // armed, so the fit fails — after journaling every completed round.
    let per = points.len() / 2;
    let mut transports: Vec<Box<dyn Transport>> = Vec::new();
    let mut handles = Vec::new();
    for (w, (start, rows)) in [(0, per), (per, points.len() - per)]
        .into_iter()
        .enumerate()
    {
        let source = InMemorySource::new(slice_rows(&points, start, rows), 3).unwrap();
        let script = if w == 1 {
            vec![FaultAction::KillOnRecv {
                tag: tag::ASSIGN,
                occurrence: 1,
            }]
        } else {
            vec![]
        };
        let (t, h) = spawn_loopback_worker_with_faults(source, Parallelism::Sequential, script);
        transports.push(Box::new(t));
        handles.push(h);
    }
    let mut cluster = Cluster::new(transports).unwrap();
    let err = builder
        .clone()
        .fit_distributed_checkpointed(&mut cluster, &path)
        .unwrap_err();
    assert!(err.to_string().contains("disconnected"), "{err}");
    drop(cluster);
    for h in handles {
        let _ = h.join().unwrap();
    }
    assert!(path.exists(), "the crash must leave a checkpoint behind");
    assert!(is_checkpoint_file(&path));
    let (meta, records) = load_checkpoint_file(&path).unwrap();
    assert_eq!(meta, meta_for(&points, 42));
    assert!(!records.is_empty());

    // A tampered copy — one flipped fingerprint bit mid-journal — is a
    // typed mismatch error on resume, not silent divergence.
    let tampered_path = dir.join("tampered.skmc");
    let mut tampered = records.clone();
    let mid = tampered.len() / 2;
    tampered[mid].fingerprint ^= 1;
    save_checkpoint_file(&tampered_path, &meta, &tampered).unwrap();
    let (mut cluster, handles) = loopback_cluster(&points, 2);
    let err = builder
        .clone()
        .fit_distributed_checkpointed(&mut cluster, &tampered_path)
        .unwrap_err();
    assert!(err.to_string().contains("does not match"), "{err}");
    cluster.shutdown();
    for h in handles {
        h.join().unwrap().unwrap();
    }
    let _ = std::fs::remove_file(&tampered_path);

    // Run 2: same command, healthy cluster — resumes from the file,
    // matches the never-crashed fit, and removes the checkpoint.
    let (mut cluster, handles) = loopback_cluster(&points, 2);
    let resumed = builder
        .fit_distributed_checkpointed(&mut cluster, &path)
        .unwrap();
    cluster.shutdown();
    for h in handles {
        h.join().unwrap().unwrap();
    }
    assert_same_fit(&reference, &resumed, "file-backed resume");
    assert!(
        !path.exists(),
        "a completed fit must clean up its checkpoint"
    );
}
