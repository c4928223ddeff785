//! Round checkpoints for distributed fits: a journal of `RoundBackend`
//! round *results*, persisted as an `SKMCKPT1` file
//! (`kmeans_data::checkpoint`), so a killed coordinator job restarted
//! with `skm fit --distributed --checkpoint FILE` resumes where it died
//! and finishes bit-identically.
//!
//! **The journal is the cursor.** The backend-generic drivers are
//! deterministic functions of (config, seed, round results): every
//! scalar RNG decision is derived from the seed and advanced by
//! in-process computation, never by wall-clock or worker state. So a
//! checkpoint does not need to snapshot RNG internals or tracker arrays
//! — on resume the driver simply re-runs from the start, and
//! [`CheckpointingBackend`] feeds it the journaled result for each
//! already-completed round instead of going to the wire. The driver's
//! RNG re-advances through the exact same sequence, and at the first
//! un-journaled round the backend *catches the cluster up* — one
//! [`Cluster::catch_up`](crate::Cluster::catch_up) round trip replaying
//! the [`SessionMirror`] its replayed rounds recorded (the tracker
//! broadcast sequence, the seed-cost potential and every assignment
//! pass, by the same rules the cluster's own mirror follows), in the same catch-up frame worker
//! recovery sends — and goes live.
//!
//! One record per round-level call, so a job killed mid-round resumes at
//! the whole round's boundary. Four record kinds: `gather_rows` (1),
//! `potential` (10), `assign` (14) and `tracker_round` (15). Kinds 2–9
//! and 11–13 belonged to retired round primitives; a journal holding one
//! is refused with the typed mismatch error, never misread.
//!
//! Every journal record carries a fingerprint of the round's *arguments*:
//! FNV-1a (`kmeans_util::checksum::fnv1a`) over the round kind byte and
//! the encoded arguments, which for a gather, a potential and an
//! assignment pass are the payload of the `GatherRows`, `Cost` and
//! `Assign` request that carries them. On replay the fingerprint of the
//! round the driver is about to run must match the record; a mismatch —
//! wrong seed, changed config, different data layout — is a typed error,
//! never silent corruption. The journal additionally pins
//! seed/k/n/dim/shard-size (the file header), which the fit checks before
//! any round runs.

use crate::coordinator::{Cluster, SessionMirror};
use crate::protocol::{encode_assign, Message};
use crate::wire::{Dec, Enc, FrameError, WireMessage};
use kmeans_core::assign::ClusterSums;
use kmeans_core::driver::{
    BackendKind, Broadcast, LabelFetch, RoundBackend, SampleSpec, TrackerOut, TrackerRead,
};
use kmeans_core::kernel::KernelStats;
use kmeans_core::KMeansError;
use kmeans_data::checkpoint::{load_checkpoint_file, save_checkpoint_file, CheckpointMeta};
use kmeans_data::{CheckpointRecord, PointMatrix};
use kmeans_util::checksum::{fnv1a, FNV1A_BASIS};
use std::path::{Path, PathBuf};

// Round-kind discriminants for journal records (the `kind` byte of
// `CheckpointRecord`). Distinct per round-level call so a resume with a
// diverging round *sequence* — not just diverging arguments — is caught.
const K_GATHER_ROWS: u8 = 1;
const K_POTENTIAL: u8 = 10;
const K_ASSIGN: u8 = 14;
const K_TRACKER_ROUND: u8 = 15;

fn corrupt(what: &str) -> KMeansError {
    KMeansError::Data(format!("checkpoint journal: {what}"))
}

fn mismatch(round: usize, what: &str) -> KMeansError {
    KMeansError::InvalidConfig(format!(
        "checkpoint does not match this job at round {round}: {what} — the checkpoint was \
         written by a fit with a different configuration, seed, or data; delete the file or \
         restart with the original parameters"
    ))
}

/// A resumable round journal bound to one fit configuration
/// ([`CheckpointMeta`]), optionally persisted to an `SKMCKPT1` file
/// after every completed round (atomic rename — a crash leaves the
/// previous complete checkpoint, never a torn one).
pub struct RoundCheckpoint {
    meta: CheckpointMeta,
    records: Vec<CheckpointRecord>,
    cursor: usize,
    path: Option<PathBuf>,
}

impl RoundCheckpoint {
    /// An empty, in-memory journal for `meta` (tests, programmatic use).
    pub fn new(meta: CheckpointMeta) -> Self {
        RoundCheckpoint {
            meta,
            records: Vec::new(),
            cursor: 0,
            path: None,
        }
    }

    /// Loads the journal at `path` if the file exists — bound to the job
    /// identity its header records, which
    /// [`fit_distributed_resumable`](crate::FitDistributed::fit_distributed_resumable)
    /// checks against the fit — or starts an empty journal for `meta`
    /// that will be persisted there. The CLI entry point.
    pub fn load_or_new(path: impl AsRef<Path>, meta: CheckpointMeta) -> Result<Self, KMeansError> {
        let path = path.as_ref().to_path_buf();
        let (meta, records) = if path.exists() {
            load_checkpoint_file(&path)
                .map_err(|e| corrupt(&format!("failed to load {}: {e}", path.display())))?
        } else {
            (meta, Vec::new())
        };
        Ok(RoundCheckpoint {
            meta,
            records,
            cursor: 0,
            path: Some(path),
        })
    }

    /// The job identity this journal is bound to.
    pub fn meta(&self) -> &CheckpointMeta {
        &self.meta
    }

    /// The file the journal persists to, if it is file-backed.
    pub(crate) fn path(&self) -> Option<&Path> {
        self.path.as_deref()
    }

    /// Journaled rounds.
    pub fn len(&self) -> usize {
        self.records.len()
    }

    /// Whether the journal holds no rounds yet.
    pub fn is_empty(&self) -> bool {
        self.records.is_empty()
    }

    /// Resets the replay cursor to the start — required before reusing
    /// the same journal for another (resumed) fit.
    pub fn rewind(&mut self) {
        self.cursor = 0;
    }

    /// Drops every journal entry past the first `n` — simulating a job
    /// that was killed after round `n` (resume-parity tests).
    pub fn truncate(&mut self, n: usize) {
        self.records.truncate(n);
        self.cursor = self.cursor.min(n);
    }

    fn persist(&self) -> Result<(), KMeansError> {
        if let Some(path) = &self.path {
            save_checkpoint_file(path, &self.meta, &self.records)
                .map_err(|e| corrupt(&format!("failed to write {}: {e}", path.display())))?;
        }
        Ok(())
    }
}

impl Clone for RoundCheckpoint {
    /// Clones the journal contents (cursor rewound, path dropped) — an
    /// in-memory snapshot for resume tests.
    fn clone(&self) -> Self {
        RoundCheckpoint {
            meta: self.meta,
            records: self.records.clone(),
            cursor: 0,
            path: None,
        }
    }
}

// --- per-kind argument fingerprints and result codecs ---------------------

fn fp(kind: u8, args: Enc) -> u64 {
    fnv1a(fnv1a(FNV1A_BASIS, &[kind]), &args.into_bytes())
}

/// Maps a payload decode failure to the journal's corruption error.
fn ok<T>(r: Result<T, FrameError>) -> Result<T, KMeansError> {
    r.map_err(|e| corrupt(&e.to_string()))
}

/// Decodes a whole record payload with `body`, rejecting trailing bytes.
fn decode_with<T>(
    payload: &[u8],
    body: impl FnOnce(&mut Dec<'_>) -> Result<T, KMeansError>,
) -> Result<T, KMeansError> {
    let mut d = Dec::new(payload);
    let value = body(&mut d)?;
    ok(d.finish())?;
    Ok(value)
}

fn gather_rows_fingerprint(indices: &[usize]) -> u64 {
    let mut args = Enc::new();
    let indices = indices.iter().map(|&i| i as u64).collect();
    Message::GatherRows { indices }.encode_payload_into(&mut args);
    fp(K_GATHER_ROWS, args)
}

/// A `Cost` request's payload is its centers alone.
fn potential_fingerprint(centers: &PointMatrix) -> u64 {
    let mut args = Enc::new();
    args.matrix(centers);
    fp(K_POTENTIAL, args)
}

fn assign_fingerprint(centers: &PointMatrix, fetch: LabelFetch) -> u64 {
    let mut args = Enc::new();
    encode_assign(&mut args, centers, fetch);
    fp(K_ASSIGN, args)
}

fn tracker_round_fingerprint(broadcast: Broadcast<'_>, read: TrackerRead) -> u64 {
    let mut args = Enc::new();
    match broadcast {
        Broadcast::Init(centers) => {
            args.u8(0);
            args.matrix(centers);
        }
        Broadcast::Update { from, rows } => {
            args.u8(1);
            args.u64(from as u64);
            args.matrix(rows);
        }
    }
    match read {
        TrackerRead::Nothing => args.u8(0),
        TrackerRead::Sample { round, seed, spec } => {
            args.u8(1);
            args.u64(round as u64);
            args.u64(seed);
            match spec {
                SampleSpec::Bernoulli { l } => {
                    args.u8(1);
                    args.f64(l);
                }
                SampleSpec::ExactKeys { m } => {
                    args.u8(2);
                    args.u64(m as u64);
                }
            }
        }
        TrackerRead::Weights { m } => {
            args.u8(2);
            args.u64(m as u64);
        }
        TrackerRead::D2 => args.u8(3),
    }
    fp(K_TRACKER_ROUND, args)
}

fn encode_rows_result(rows: &PointMatrix) -> Vec<u8> {
    let mut e = Enc::new();
    e.matrix(rows);
    e.into_bytes()
}

fn decode_rows_result(payload: &[u8]) -> Result<PointMatrix, KMeansError> {
    decode_with(payload, |d| ok(d.matrix()))
}

fn encode_f64_result(v: f64) -> Vec<u8> {
    let mut e = Enc::new();
    e.f64(v);
    e.into_bytes()
}

fn decode_f64_result(payload: &[u8]) -> Result<f64, KMeansError> {
    decode_with(payload, |d| ok(d.f64()))
}

fn encode_assign_result(reassigned: u64, sums: &ClusterSums, labels: &Option<Vec<u32>>) -> Vec<u8> {
    let mut e = Enc::new();
    e.u64(reassigned);
    e.f64(sums.cost);
    e.f64s(&sums.sums);
    e.u64s(&sums.counts);
    e.u64(sums.farthest.len() as u64);
    for &(idx, d2) in &sums.farthest {
        e.u64(if idx == usize::MAX {
            u64::MAX
        } else {
            idx as u64
        });
        e.f64(d2);
    }
    e.u64(sums.stats.distance_computations);
    e.u64(sums.stats.pruned_by_norm_bound);
    match labels {
        None => e.u8(0),
        Some(l) => {
            e.u8(1);
            e.u32s(l);
        }
    }
    e.into_bytes()
}

type AssignResult = (u64, ClusterSums, Option<Vec<u32>>);

fn decode_assign_result(payload: &[u8]) -> Result<AssignResult, KMeansError> {
    decode_with(payload, |d| {
        let reassigned = ok(d.u64())?;
        let cost = ok(d.f64())?;
        let sums = ok(d.f64s())?;
        let counts = ok(d.u64s())?;
        let n_far = ok(d.count(16))?;
        let mut farthest = Vec::with_capacity(n_far);
        for _ in 0..n_far {
            let idx = ok(d.u64())?;
            let d2 = ok(d.f64())?;
            let idx = if idx == u64::MAX {
                usize::MAX
            } else {
                idx as usize
            };
            farthest.push((idx, d2));
        }
        let stats = KernelStats {
            distance_computations: ok(d.u64())?,
            pruned_by_norm_bound: ok(d.u64())?,
        };
        let labels = match ok(d.u8())? {
            0 => None,
            1 => Some(ok(d.u32s())?),
            other => return Err(corrupt(&format!("unknown labels flag {other}"))),
        };
        let sums = ClusterSums {
            sums,
            counts,
            cost,
            farthest,
            stats,
        };
        Ok((reassigned, sums, labels))
    })
}

fn encode_tracker_result(phi: f64, out: &TrackerOut) -> Vec<u8> {
    let mut e = Enc::new();
    e.f64(phi);
    match out {
        TrackerOut::Nothing => e.u8(0),
        TrackerOut::Picked { indices, rows } => {
            e.u8(1);
            let idx: Vec<u64> = indices.iter().map(|&i| i as u64).collect();
            e.u64s(&idx);
            e.matrix(rows);
        }
        TrackerOut::Keys(entries) => {
            e.u8(2);
            e.u64(entries.len() as u64);
            for &(key, idx) in entries {
                e.f64(key);
                e.u64(idx as u64);
            }
        }
        TrackerOut::Weights(weights) => {
            e.u8(3);
            e.f64s(weights);
        }
        TrackerOut::D2(d2) => {
            e.u8(4);
            e.f64s(d2);
        }
    }
    e.into_bytes()
}

fn decode_tracker_result(payload: &[u8]) -> Result<(f64, TrackerOut), KMeansError> {
    decode_with(payload, |d| {
        let phi = ok(d.f64())?;
        let out = match ok(d.u8())? {
            0 => TrackerOut::Nothing,
            1 => {
                let idx = ok(d.u64s())?;
                TrackerOut::Picked {
                    indices: idx.into_iter().map(|i| i as usize).collect(),
                    rows: ok(d.matrix())?,
                }
            }
            2 => {
                let n = ok(d.count(16))?;
                let mut entries = Vec::with_capacity(n);
                for _ in 0..n {
                    let key = ok(d.f64())?;
                    entries.push((key, ok(d.u64())? as usize));
                }
                TrackerOut::Keys(entries)
            }
            3 => TrackerOut::Weights(ok(d.f64s())?),
            4 => TrackerOut::D2(ok(d.f64s())?),
            other => return Err(corrupt(&format!("unknown tracker read {other}"))),
        };
        Ok((phi, out))
    })
}

/// A [`RoundBackend`] that journals every round result into a
/// [`RoundCheckpoint`] — and, while the journal still holds entries,
/// *replays* them instead of touching the cluster. See the module docs
/// for the resume model.
pub struct CheckpointingBackend<'a, 'c> {
    inner: &'a mut Cluster,
    ckpt: &'c mut RoundCheckpoint,
    /// Whether the cluster has been materialized to the journal's
    /// frontier (true once live).
    caught_up: bool,
    /// The session state the replayed rounds built, handed to the
    /// cluster once at the replay→live transition.
    mirror: SessionMirror,
}

impl<'a, 'c> CheckpointingBackend<'a, 'c> {
    /// Wraps a planned [`Cluster`]. The journal must be rewound
    /// ([`RoundCheckpoint::rewind`]) if it was used by a previous fit.
    pub fn new(inner: &'a mut Cluster, ckpt: &'c mut RoundCheckpoint) -> Self {
        CheckpointingBackend {
            inner,
            ckpt,
            caught_up: false,
            mirror: SessionMirror::default(),
        }
    }

    /// If the next journal entry matches (kind, fingerprint), consume it
    /// and return its payload; `None` once the journal is exhausted — at
    /// which point the cluster is caught up, once, before the caller
    /// goes live. A mismatched entry is a typed error.
    fn replay(&mut self, kind: u8, fingerprint: u64) -> Result<Option<&[u8]>, KMeansError> {
        if self.ckpt.cursor >= self.ckpt.records.len() {
            if !self.caught_up {
                self.caught_up = true;
                self.inner.catch_up(std::mem::take(&mut self.mirror))?;
            }
            return Ok(None);
        }
        let round = self.ckpt.cursor;
        let rec = &self.ckpt.records[round];
        if rec.kind != kind {
            return Err(mismatch(
                round,
                &format!(
                    "journal has round kind {}, this fit runs kind {kind}",
                    rec.kind
                ),
            ));
        }
        if rec.fingerprint != fingerprint {
            return Err(mismatch(round, "round arguments differ"));
        }
        self.ckpt.cursor += 1;
        Ok(Some(&self.ckpt.records[round].payload))
    }

    fn append(&mut self, kind: u8, fingerprint: u64, payload: Vec<u8>) -> Result<(), KMeansError> {
        self.ckpt.records.push(CheckpointRecord {
            kind,
            fingerprint,
            payload,
        });
        self.ckpt.cursor = self.ckpt.records.len();
        self.ckpt.persist()
    }
}

impl RoundBackend for CheckpointingBackend<'_, '_> {
    fn kind(&self) -> BackendKind {
        BackendKind::Distributed
    }

    fn len(&self) -> usize {
        self.inner.len()
    }

    fn dim(&self) -> usize {
        self.inner.dim()
    }

    fn wire_bytes(&self) -> Option<u64> {
        // Replayed (journal-served) rounds move no wire bytes, so a
        // resumed fit's trace shows zero-byte spans for them — the
        // counter itself stays the inner cluster's monotonic total.
        self.inner.wire_bytes()
    }

    fn gather_rows(&mut self, indices: &[usize], out: &mut PointMatrix) -> Result<(), KMeansError> {
        let fingerprint = gather_rows_fingerprint(indices);
        if let Some(payload) = self.replay(K_GATHER_ROWS, fingerprint)? {
            *out = decode_rows_result(payload)?;
            return Ok(());
        }
        self.inner.gather_rows(indices, out)?;
        self.append(K_GATHER_ROWS, fingerprint, encode_rows_result(out))
    }

    // `preload_rows` deliberately stays the trait's no-op default:
    // checkpointed mini-batch keeps its per-batch journaled gathers —
    // durability at round granularity over collapsing the gathers.

    fn tracker_round(
        &mut self,
        broadcast: Broadcast<'_>,
        read: TrackerRead,
    ) -> Result<(f64, TrackerOut), KMeansError> {
        let fingerprint = tracker_round_fingerprint(broadcast, read);
        if let Some(payload) = self.replay(K_TRACKER_ROUND, fingerprint)? {
            let result = decode_tracker_result(payload)?;
            self.mirror.record_tracker(broadcast);
            return Ok(result);
        }
        let (phi, out) = self.inner.tracker_round(broadcast, read)?;
        self.append(
            K_TRACKER_ROUND,
            fingerprint,
            encode_tracker_result(phi, &out),
        )?;
        Ok((phi, out))
    }

    fn assign(
        &mut self,
        centers: &PointMatrix,
        fetch: LabelFetch,
    ) -> Result<AssignResult, KMeansError> {
        let fingerprint = assign_fingerprint(centers, fetch);
        if let Some(payload) = self.replay(K_ASSIGN, fingerprint)? {
            let result = decode_assign_result(payload)?;
            self.mirror.record_assign(centers, fetch);
            return Ok(result);
        }
        let (reassigned, sums, labels) = self.inner.assign(centers, fetch)?;
        self.append(
            K_ASSIGN,
            fingerprint,
            encode_assign_result(reassigned, &sums, &labels),
        )?;
        Ok((reassigned, sums, labels))
    }

    fn potential(&mut self, centers: &PointMatrix) -> Result<f64, KMeansError> {
        let fingerprint = potential_fingerprint(centers);
        if let Some(payload) = self.replay(K_POTENTIAL, fingerprint)? {
            let result = decode_f64_result(payload)?;
            self.mirror.record_potential(centers);
            return Ok(result);
        }
        let cost = self.inner.potential(centers)?;
        self.append(K_POTENTIAL, fingerprint, encode_f64_result(cost))?;
        Ok(cost)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn assign_result_round_trips() {
        let sums = ClusterSums {
            sums: vec![1.0, 2.0, 3.0, 4.0],
            counts: vec![3, 1],
            cost: 0.625,
            farthest: vec![(7, 0.5), (usize::MAX, f64::NEG_INFINITY)],
            stats: KernelStats {
                distance_computations: 42,
                pruned_by_norm_bound: 9,
            },
        };
        for labels in [None, Some(vec![1, 0, 1])] {
            let bytes = encode_assign_result(11, &sums, &labels);
            let (reassigned, got, got_labels) = decode_assign_result(&bytes).unwrap();
            assert_eq!(reassigned, 11);
            assert_eq!(got.sums, sums.sums);
            assert_eq!(got.counts, sums.counts);
            assert_eq!(got.cost.to_bits(), sums.cost.to_bits());
            assert_eq!(got.farthest.len(), sums.farthest.len());
            assert_eq!(got.farthest[0], sums.farthest[0]);
            assert_eq!(got.farthest[1].0, usize::MAX);
            assert_eq!(got.stats.distance_computations, 42);
            assert_eq!(got.stats.pruned_by_norm_bound, 9);
            assert_eq!(got_labels, labels);
        }
    }

    #[test]
    fn truncated_assign_payload_is_a_typed_error() {
        let sums = ClusterSums {
            sums: vec![1.0],
            counts: vec![1],
            cost: 0.0,
            farthest: vec![(0, 0.0)],
            stats: KernelStats::default(),
        };
        let bytes = encode_assign_result(1, &sums, &Some(vec![0]));
        for cut in 0..bytes.len() {
            assert!(decode_assign_result(&bytes[..cut]).is_err(), "cut {cut}");
        }
    }

    /// A journal written before the round-level calls holds retired kinds
    /// (e.g. 11, the fused init+sample record). Resume refuses it with the
    /// typed mismatch error instead of decoding its payload as a tracker
    /// round.
    #[test]
    fn retired_record_kinds_are_refused() {
        use crate::fit::FitDistributed;
        use crate::transport::Transport;
        use crate::worker::spawn_loopback_worker;
        use kmeans_core::model::KMeans;
        use kmeans_data::InMemorySource;
        use kmeans_par::Parallelism;

        let points =
            PointMatrix::from_flat((0..64).map(|i| ((i * 37) % 64) as f64).collect(), 1).unwrap();
        let builder = KMeans::params(3).seed(5).shard_size(16);
        let meta = CheckpointMeta {
            seed: 5,
            k: 3,
            global_n: 64,
            shard_size: 16,
            dim: 1,
        };
        let fit = |ckpt: &mut RoundCheckpoint| {
            let source = InMemorySource::new(points.clone(), 8).unwrap();
            let (t, h) = spawn_loopback_worker(source, Parallelism::Sequential);
            let transports: Vec<Box<dyn Transport>> = vec![Box::new(t)];
            let mut cluster = crate::Cluster::new(transports).unwrap();
            let result = builder.fit_distributed_resumable(&mut cluster, ckpt);
            cluster.shutdown();
            h.join().unwrap().unwrap();
            result
        };
        let mut ckpt = RoundCheckpoint::new(meta);
        fit(&mut ckpt).unwrap();
        assert_eq!(ckpt.records[1].kind, K_TRACKER_ROUND);
        ckpt.records[1].kind = 11;
        let err = fit(&mut ckpt).unwrap_err();
        assert!(
            err.to_string().contains("journal has round kind 11"),
            "{err}"
        );
    }

    /// A journal written by an earlier build must still resume, so every
    /// fingerprint kind keeps its bits on one fixed input.
    #[test]
    fn fingerprints_are_pinned() {
        let centers = PointMatrix::from_flat(vec![1.5, -2.0, 0.25, 3.0, 7.0, -0.5], 3).unwrap();
        assert_eq!(
            gather_rows_fingerprint(&[0, 5, 17, 4096]),
            0x5fde_fd11_3f88_712c
        );
        assert_eq!(potential_fingerprint(&centers), 0x741e_3f99_fc83_6fed);
        for (fetch, pinned) in [
            (LabelFetch::Skip, 0x303b_def0_8116_e4f3),
            (LabelFetch::Always, 0x303b_e0f0_8116_e859),
            (LabelFetch::Bounded, 0x303b_dff0_8116_e6a6),
        ] {
            assert_eq!(assign_fingerprint(&centers, fetch), pinned, "{fetch:?}");
        }
        let update = Broadcast::Update {
            from: 3,
            rows: &centers,
        };
        let sample = TrackerRead::Sample {
            round: 2,
            seed: 9,
            spec: SampleSpec::Bernoulli { l: 4.5 },
        };
        assert_eq!(
            tracker_round_fingerprint(update, sample),
            0x4d6b_a443_9735_b913
        );
        assert_eq!(
            tracker_round_fingerprint(Broadcast::Init(&centers), TrackerRead::D2),
            0xc480_cbf1_c031_67bf
        );
    }

    #[test]
    fn tracker_results_round_trip() {
        let mut rows = PointMatrix::new(2);
        rows.push(&[1.0, -2.0]).unwrap();
        let outs = [
            TrackerOut::Nothing,
            TrackerOut::Picked {
                indices: vec![5],
                rows,
            },
            TrackerOut::Keys(vec![(-0.5, 3), (-1.25, 77)]),
            TrackerOut::Weights(vec![2.0, 0.0, 1.0]),
            TrackerOut::D2(vec![0.25, 4.0]),
        ];
        for out in outs {
            let bytes = encode_tracker_result(12.5, &out);
            let (phi, got) = decode_tracker_result(&bytes).unwrap();
            assert_eq!(phi.to_bits(), 12.5f64.to_bits());
            assert_eq!(format!("{got:?}"), format!("{out:?}"));
            for cut in 0..bytes.len() {
                assert!(decode_tracker_result(&bytes[..cut]).is_err(), "cut {cut}");
            }
        }
    }
}
