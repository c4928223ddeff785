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
//! un-journaled round the backend *catches the cluster up* (replays the
//! tracker broadcast sequence and the last assignment's centers —
//! mirrored from the replayed arguments) and goes live.
//!
//! Every journal record carries a fingerprint of the round's *arguments*
//! (FNV-1a over the round kind and encoded inputs). On replay the
//! fingerprint of the round the driver is about to run must match the
//! record; a mismatch — wrong seed, changed config, different data
//! layout — is a typed error, never silent corruption. The file header
//! additionally pins seed/k/n/dim/shard-size, checked at load.

use crate::backend::ClusterBackend;
use crate::wire::{fnv1a, Dec, Enc};
use kmeans_core::assign::ClusterSums;
use kmeans_core::driver::{BackendKind, LabelFetch, RoundBackend, SampleOut, SampleSpec};
use kmeans_core::kernel::KernelStats;
use kmeans_core::KMeansError;
use kmeans_data::checkpoint::{load_checkpoint_file, save_checkpoint_file, CheckpointMeta};
use kmeans_data::{CheckpointRecord, PointMatrix};
use std::path::{Path, PathBuf};

// Round-kind discriminants for journal records (the `kind` byte of
// `CheckpointRecord`). Distinct per primitive so a resume with a
// diverging round *sequence* — not just diverging arguments — is caught.
const K_GATHER_ROWS: u8 = 1;
const K_TRACKER_INIT: u8 = 2;
const K_TRACKER_UPDATE: u8 = 3;
const K_SAMPLE_BERNOULLI: u8 = 4;
const K_SAMPLE_EXACT: u8 = 5;
const K_GATHER_D2: u8 = 6;
const K_CANDIDATE_WEIGHTS: u8 = 7;
const K_ASSIGN: u8 = 8;
const K_FETCH_LABELS: u8 = 9;
const K_POTENTIAL: u8 = 10;
// Fused rounds: one compound wire round = one committed journal unit, so
// a job killed mid-compound resumes at the whole round's boundary.
const K_INIT_SAMPLED: u8 = 11;
const K_UPDATE_SAMPLED: u8 = 12;
const K_UPDATE_WEIGHTED: u8 = 13;
const K_ASSIGN_FUSED: u8 = 14;

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

    /// Loads the journal at `path` if the file exists — verifying its
    /// header matches `meta` exactly — or starts an empty journal that
    /// will be persisted there. The CLI entry point.
    pub fn load_or_new(path: impl AsRef<Path>, meta: CheckpointMeta) -> Result<Self, KMeansError> {
        let path = path.as_ref().to_path_buf();
        if path.exists() {
            let (file_meta, records) = load_checkpoint_file(&path)
                .map_err(|e| corrupt(&format!("failed to load {}: {e}", path.display())))?;
            if file_meta != meta {
                return Err(KMeansError::InvalidConfig(format!(
                    "checkpoint {} was written by a different job \
                     (file: seed {} k {} n {} shard {} dim {}; this fit: seed {} k {} n {} \
                     shard {} dim {}) — delete it or restart with the original parameters",
                    path.display(),
                    file_meta.seed,
                    file_meta.k,
                    file_meta.global_n,
                    file_meta.shard_size,
                    file_meta.dim,
                    meta.seed,
                    meta.k,
                    meta.global_n,
                    meta.shard_size,
                    meta.dim,
                )));
            }
            Ok(RoundCheckpoint {
                meta,
                records,
                cursor: 0,
                path: Some(path),
            })
        } else {
            Ok(RoundCheckpoint {
                meta,
                records: Vec::new(),
                cursor: 0,
                path: Some(path),
            })
        }
    }

    /// The job identity this journal is bound to.
    pub fn meta(&self) -> &CheckpointMeta {
        &self.meta
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
    fnv1a(kind, &args.into_bytes())
}

fn fp_matrix(kind: u8, m: &PointMatrix) -> u64 {
    let mut e = Enc::new();
    e.matrix(m);
    fp(kind, e)
}

fn encode_rows_result(rows: &PointMatrix) -> Vec<u8> {
    let mut e = Enc::new();
    e.matrix(rows);
    e.into_bytes()
}

fn decode_rows_result(payload: &[u8]) -> Result<PointMatrix, KMeansError> {
    let mut d = Dec::new(payload);
    let rows = d.matrix().map_err(|e| corrupt(&e.to_string()))?;
    d.finish().map_err(|e| corrupt(&e.to_string()))?;
    Ok(rows)
}

fn encode_f64_result(v: f64) -> Vec<u8> {
    let mut e = Enc::new();
    e.f64(v);
    e.into_bytes()
}

fn decode_f64_result(payload: &[u8]) -> Result<f64, KMeansError> {
    let mut d = Dec::new(payload);
    let v = d.f64().map_err(|e| corrupt(&e.to_string()))?;
    d.finish().map_err(|e| corrupt(&e.to_string()))?;
    Ok(v)
}

fn encode_f64s_result(vs: &[f64]) -> Vec<u8> {
    let mut e = Enc::new();
    e.f64s(vs);
    e.into_bytes()
}

fn decode_f64s_result(payload: &[u8]) -> Result<Vec<f64>, KMeansError> {
    let mut d = Dec::new(payload);
    let vs = d.f64s().map_err(|e| corrupt(&e.to_string()))?;
    d.finish().map_err(|e| corrupt(&e.to_string()))?;
    Ok(vs)
}

fn encode_sampled_result(indices: &[usize], rows: &PointMatrix) -> Vec<u8> {
    let mut e = Enc::new();
    let idx: Vec<u64> = indices.iter().map(|&i| i as u64).collect();
    e.u64s(&idx);
    e.matrix(rows);
    e.into_bytes()
}

fn decode_sampled_result(payload: &[u8]) -> Result<(Vec<usize>, PointMatrix), KMeansError> {
    let mut d = Dec::new(payload);
    let idx = d.u64s().map_err(|e| corrupt(&e.to_string()))?;
    let rows = d.matrix().map_err(|e| corrupt(&e.to_string()))?;
    d.finish().map_err(|e| corrupt(&e.to_string()))?;
    Ok((idx.into_iter().map(|i| i as usize).collect(), rows))
}

fn encode_keys_result(entries: &[(f64, usize)]) -> Vec<u8> {
    let mut e = Enc::new();
    e.u64(entries.len() as u64);
    for &(key, idx) in entries {
        e.f64(key);
        e.u64(idx as u64);
    }
    e.into_bytes()
}

fn decode_keys_result(payload: &[u8]) -> Result<Vec<(f64, usize)>, KMeansError> {
    let mut d = Dec::new(payload);
    let n = d.count(16).map_err(|e| corrupt(&e.to_string()))?;
    let mut entries = Vec::with_capacity(n);
    for _ in 0..n {
        let key = d.f64().map_err(|e| corrupt(&e.to_string()))?;
        let idx = d.u64().map_err(|e| corrupt(&e.to_string()))?;
        entries.push((key, idx as usize));
    }
    d.finish().map_err(|e| corrupt(&e.to_string()))?;
    Ok(entries)
}

fn encode_u32s_result(vs: &[u32]) -> Vec<u8> {
    let mut e = Enc::new();
    e.u32s(vs);
    e.into_bytes()
}

fn decode_u32s_result(payload: &[u8]) -> Result<Vec<u32>, KMeansError> {
    let mut d = Dec::new(payload);
    let vs = d.u32s().map_err(|e| corrupt(&e.to_string()))?;
    d.finish().map_err(|e| corrupt(&e.to_string()))?;
    Ok(vs)
}

fn enc_assign_into(e: &mut Enc, reassigned: u64, sums: &ClusterSums) {
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
}

fn encode_assign_result(reassigned: u64, sums: &ClusterSums) -> Vec<u8> {
    let mut e = Enc::new();
    enc_assign_into(&mut e, reassigned, sums);
    e.into_bytes()
}

fn dec_assign_from(d: &mut Dec) -> Result<(u64, ClusterSums), KMeansError> {
    let step = |r: Result<_, crate::protocol::FrameError>| r.map_err(|e| corrupt(&e.to_string()));
    let reassigned = d.u64().map_err(|e| corrupt(&e.to_string()))?;
    let cost = d.f64().map_err(|e| corrupt(&e.to_string()))?;
    let sums = d.f64s().map_err(|e| corrupt(&e.to_string()))?;
    let counts = d.u64s().map_err(|e| corrupt(&e.to_string()))?;
    let n_far = step(d.count(16))?;
    let mut farthest = Vec::with_capacity(n_far);
    for _ in 0..n_far {
        let idx = d.u64().map_err(|e| corrupt(&e.to_string()))?;
        let d2 = d.f64().map_err(|e| corrupt(&e.to_string()))?;
        farthest.push((
            if idx == u64::MAX {
                usize::MAX
            } else {
                idx as usize
            },
            d2,
        ));
    }
    let distance_computations = d.u64().map_err(|e| corrupt(&e.to_string()))?;
    let pruned_by_norm_bound = d.u64().map_err(|e| corrupt(&e.to_string()))?;
    Ok((
        reassigned,
        ClusterSums {
            sums,
            counts,
            cost,
            farthest,
            stats: KernelStats {
                distance_computations,
                pruned_by_norm_bound,
            },
        },
    ))
}

fn decode_assign_result(payload: &[u8]) -> Result<(u64, ClusterSums), KMeansError> {
    let mut d = Dec::new(payload);
    let result = dec_assign_from(&mut d)?;
    d.finish().map_err(|e| corrupt(&e.to_string()))?;
    Ok(result)
}

fn encode_assign_fused_result(
    reassigned: u64,
    sums: &ClusterSums,
    labels: &Option<Vec<u32>>,
) -> Vec<u8> {
    let mut e = Enc::new();
    enc_assign_into(&mut e, reassigned, sums);
    match labels {
        None => e.u8(0),
        Some(l) => {
            e.u8(1);
            e.u32s(l);
        }
    }
    e.into_bytes()
}

fn decode_assign_fused_result(
    payload: &[u8],
) -> Result<(u64, ClusterSums, Option<Vec<u32>>), KMeansError> {
    let mut d = Dec::new(payload);
    let (reassigned, sums) = dec_assign_from(&mut d)?;
    let labels = match d.u8().map_err(|e| corrupt(&e.to_string()))? {
        0 => None,
        1 => Some(d.u32s().map_err(|e| corrupt(&e.to_string()))?),
        other => return Err(corrupt(&format!("unknown labels flag {other}"))),
    };
    d.finish().map_err(|e| corrupt(&e.to_string()))?;
    Ok((reassigned, sums, labels))
}

/// Fingerprint contribution of a fused round's sampling spec.
fn enc_spec_into(e: &mut Enc, spec: Option<SampleSpec>) {
    match spec {
        None => e.u8(0),
        Some(SampleSpec::Bernoulli { l }) => {
            e.u8(1);
            e.f64(l);
        }
        Some(SampleSpec::ExactKeys { m }) => {
            e.u8(2);
            e.u64(m as u64);
        }
    }
}

fn encode_phi_sample_result(phi: f64, out: &Option<SampleOut>) -> Vec<u8> {
    let mut e = Enc::new();
    e.f64(phi);
    match out {
        None => e.u8(0),
        Some(SampleOut::Picked { indices, rows }) => {
            e.u8(1);
            let idx: Vec<u64> = indices.iter().map(|&i| i as u64).collect();
            e.u64s(&idx);
            e.matrix(rows);
        }
        Some(SampleOut::Keys(entries)) => {
            e.u8(2);
            e.u64(entries.len() as u64);
            for &(key, idx) in entries {
                e.f64(key);
                e.u64(idx as u64);
            }
        }
    }
    e.into_bytes()
}

fn decode_phi_sample_result(payload: &[u8]) -> Result<(f64, Option<SampleOut>), KMeansError> {
    let mut d = Dec::new(payload);
    let step = |r: Result<_, crate::protocol::FrameError>| r.map_err(|e| corrupt(&e.to_string()));
    let phi = d.f64().map_err(|e| corrupt(&e.to_string()))?;
    let out = match d.u8().map_err(|e| corrupt(&e.to_string()))? {
        0 => None,
        1 => {
            let idx = d.u64s().map_err(|e| corrupt(&e.to_string()))?;
            let rows = d.matrix().map_err(|e| corrupt(&e.to_string()))?;
            Some(SampleOut::Picked {
                indices: idx.into_iter().map(|i| i as usize).collect(),
                rows,
            })
        }
        2 => {
            let n = step(d.count(16))?;
            let mut entries = Vec::with_capacity(n);
            for _ in 0..n {
                let key = d.f64().map_err(|e| corrupt(&e.to_string()))?;
                let idx = d.u64().map_err(|e| corrupt(&e.to_string()))?;
                entries.push((key, idx as usize));
            }
            Some(SampleOut::Keys(entries))
        }
        other => return Err(corrupt(&format!("unknown sample flag {other}"))),
    };
    d.finish().map_err(|e| corrupt(&e.to_string()))?;
    Ok((phi, out))
}

/// A [`RoundBackend`] that journals every round result into a
/// [`RoundCheckpoint`] — and, while the journal still holds entries,
/// *replays* them instead of touching the cluster. See the module docs
/// for the resume model.
pub struct CheckpointingBackend<'a, 'c> {
    inner: ClusterBackend<'a>,
    ckpt: &'c mut RoundCheckpoint,
    /// Whether the cluster has been materialized to the journal's
    /// frontier (true once live; trivially true for an empty journal).
    caught_up: bool,
    /// Mirrors of the replayed broadcast arguments, used once at the
    /// replay→live transition to catch the cluster up.
    segments: Vec<PointMatrix>,
    last_assign: Option<PointMatrix>,
}

impl<'a, 'c> CheckpointingBackend<'a, 'c> {
    /// Wraps a (typically deferred-plan) [`ClusterBackend`]. The journal
    /// must be rewound ([`RoundCheckpoint::rewind`]) if it was used by a
    /// previous fit.
    pub fn new(inner: ClusterBackend<'a>, ckpt: &'c mut RoundCheckpoint) -> Self {
        CheckpointingBackend {
            inner,
            ckpt,
            caught_up: false,
            segments: Vec::new(),
            last_assign: None,
        }
    }

    /// If the next journal entry matches (kind, fingerprint), consume it
    /// and return its index for payload decoding; `None` once the
    /// journal is exhausted. A mismatched entry is a typed error.
    fn next_replay(&mut self, kind: u8, fingerprint: u64) -> Result<Option<usize>, KMeansError> {
        if self.ckpt.cursor >= self.ckpt.records.len() {
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
        Ok(Some(round))
    }

    /// Replay → live transition: push the mirrored broadcast state to
    /// the workers so the cluster is in the exact state the journal's
    /// frontier implies. Runs at most once per fit.
    fn catch_up(&mut self) -> Result<(), KMeansError> {
        if self.caught_up {
            return Ok(());
        }
        self.caught_up = true;
        let mut from = 0usize;
        for (i, seg) in std::mem::take(&mut self.segments).into_iter().enumerate() {
            if i == 0 {
                self.inner.tracker_init(&seg)?;
            } else {
                self.inner.tracker_update(from, &seg)?;
            }
            from += seg.len();
        }
        if let Some(centers) = self.last_assign.take() {
            // Re-running the assignment materializes worker labels (and
            // the coordinator's own recovery mirror); the partials are
            // discarded — the journal already holds the folded result.
            self.inner.assign(&centers)?;
        }
        Ok(())
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

    fn validate(&self, k: usize) -> Result<(), KMeansError> {
        self.inner.validate(k)
    }

    fn validate_refine(&self, centers: &PointMatrix) -> Result<(), KMeansError> {
        self.inner.validate_refine(centers)
    }

    fn wire_bytes(&self) -> Option<u64> {
        // Replayed (journal-served) rounds move no wire bytes, so a
        // resumed fit's trace shows zero-byte spans for them — the
        // counter itself stays the inner cluster's monotonic total.
        self.inner.wire_bytes()
    }

    fn gather_rows(&mut self, indices: &[usize]) -> Result<PointMatrix, KMeansError> {
        let mut args = Enc::new();
        let idx: Vec<u64> = indices.iter().map(|&i| i as u64).collect();
        args.u64s(&idx);
        let fingerprint = fp(K_GATHER_ROWS, args);
        if let Some(i) = self.next_replay(K_GATHER_ROWS, fingerprint)? {
            return decode_rows_result(&self.ckpt.records[i].payload);
        }
        self.catch_up()?;
        let rows = self.inner.gather_rows(indices)?;
        self.append(K_GATHER_ROWS, fingerprint, encode_rows_result(&rows))?;
        Ok(rows)
    }

    fn tracker_init(&mut self, centers: &PointMatrix) -> Result<f64, KMeansError> {
        let fingerprint = fp_matrix(K_TRACKER_INIT, centers);
        if let Some(i) = self.next_replay(K_TRACKER_INIT, fingerprint)? {
            let psi = decode_f64_result(&self.ckpt.records[i].payload)?;
            self.segments = vec![centers.clone()];
            return Ok(psi);
        }
        self.catch_up()?;
        let psi = self.inner.tracker_init(centers)?;
        self.append(K_TRACKER_INIT, fingerprint, encode_f64_result(psi))?;
        Ok(psi)
    }

    fn tracker_update(&mut self, from: usize, new_rows: &PointMatrix) -> Result<f64, KMeansError> {
        let mut args = Enc::new();
        args.u64(from as u64);
        args.matrix(new_rows);
        let fingerprint = fp(K_TRACKER_UPDATE, args);
        if let Some(i) = self.next_replay(K_TRACKER_UPDATE, fingerprint)? {
            let phi = decode_f64_result(&self.ckpt.records[i].payload)?;
            self.segments.push(new_rows.clone());
            return Ok(phi);
        }
        self.catch_up()?;
        let phi = self.inner.tracker_update(from, new_rows)?;
        self.append(K_TRACKER_UPDATE, fingerprint, encode_f64_result(phi))?;
        Ok(phi)
    }

    fn sample_bernoulli(
        &mut self,
        round: usize,
        seed: u64,
        l: f64,
        phi: f64,
    ) -> Result<(Vec<usize>, PointMatrix), KMeansError> {
        let mut args = Enc::new();
        args.u64(round as u64);
        args.u64(seed);
        args.f64(l);
        args.f64(phi);
        let fingerprint = fp(K_SAMPLE_BERNOULLI, args);
        if let Some(i) = self.next_replay(K_SAMPLE_BERNOULLI, fingerprint)? {
            return decode_sampled_result(&self.ckpt.records[i].payload);
        }
        self.catch_up()?;
        let (indices, rows) = self.inner.sample_bernoulli(round, seed, l, phi)?;
        self.append(
            K_SAMPLE_BERNOULLI,
            fingerprint,
            encode_sampled_result(&indices, &rows),
        )?;
        Ok((indices, rows))
    }

    fn sample_exact_keys(
        &mut self,
        round: usize,
        seed: u64,
        m: usize,
    ) -> Result<Vec<(f64, usize)>, KMeansError> {
        let mut args = Enc::new();
        args.u64(round as u64);
        args.u64(seed);
        args.u64(m as u64);
        let fingerprint = fp(K_SAMPLE_EXACT, args);
        if let Some(i) = self.next_replay(K_SAMPLE_EXACT, fingerprint)? {
            return decode_keys_result(&self.ckpt.records[i].payload);
        }
        self.catch_up()?;
        let entries = self.inner.sample_exact_keys(round, seed, m)?;
        self.append(K_SAMPLE_EXACT, fingerprint, encode_keys_result(&entries))?;
        Ok(entries)
    }

    fn gather_d2(&mut self) -> Result<Vec<f64>, KMeansError> {
        let fingerprint = fp(K_GATHER_D2, Enc::new());
        if let Some(i) = self.next_replay(K_GATHER_D2, fingerprint)? {
            return decode_f64s_result(&self.ckpt.records[i].payload);
        }
        self.catch_up()?;
        let d2 = self.inner.gather_d2()?;
        self.append(K_GATHER_D2, fingerprint, encode_f64s_result(&d2))?;
        Ok(d2)
    }

    fn candidate_weights(&mut self, m: usize) -> Result<Vec<f64>, KMeansError> {
        let mut args = Enc::new();
        args.u64(m as u64);
        let fingerprint = fp(K_CANDIDATE_WEIGHTS, args);
        if let Some(i) = self.next_replay(K_CANDIDATE_WEIGHTS, fingerprint)? {
            return decode_f64s_result(&self.ckpt.records[i].payload);
        }
        self.catch_up()?;
        let weights = self.inner.candidate_weights(m)?;
        self.append(
            K_CANDIDATE_WEIGHTS,
            fingerprint,
            encode_f64s_result(&weights),
        )?;
        Ok(weights)
    }

    fn assign(&mut self, centers: &PointMatrix) -> Result<(u64, ClusterSums), KMeansError> {
        let fingerprint = fp_matrix(K_ASSIGN, centers);
        if let Some(i) = self.next_replay(K_ASSIGN, fingerprint)? {
            let result = decode_assign_result(&self.ckpt.records[i].payload)?;
            self.last_assign = Some(centers.clone());
            return Ok(result);
        }
        self.catch_up()?;
        let (reassigned, sums) = self.inner.assign(centers)?;
        self.append(
            K_ASSIGN,
            fingerprint,
            encode_assign_result(reassigned, &sums),
        )?;
        Ok((reassigned, sums))
    }

    fn fetch_labels(&mut self) -> Result<Vec<u32>, KMeansError> {
        let fingerprint = fp(K_FETCH_LABELS, Enc::new());
        if let Some(i) = self.next_replay(K_FETCH_LABELS, fingerprint)? {
            return decode_u32s_result(&self.ckpt.records[i].payload);
        }
        self.catch_up()?;
        let labels = self.inner.fetch_labels()?;
        self.append(K_FETCH_LABELS, fingerprint, encode_u32s_result(&labels))?;
        Ok(labels)
    }

    fn potential(&mut self, centers: &PointMatrix) -> Result<f64, KMeansError> {
        let fingerprint = fp_matrix(K_POTENTIAL, centers);
        if let Some(i) = self.next_replay(K_POTENTIAL, fingerprint)? {
            return decode_f64_result(&self.ckpt.records[i].payload);
        }
        self.catch_up()?;
        let cost = self.inner.potential(centers)?;
        self.append(K_POTENTIAL, fingerprint, encode_f64_result(cost))?;
        Ok(cost)
    }

    // Fused rounds: each override journals the *whole* compound round as
    // one record, so a job killed mid-compound resumes at the round
    // boundary — and the replay mirrors (tracker segments, last assign)
    // track exactly what the fused conversation broadcast.

    fn tracker_init_sampled(
        &mut self,
        centers: &PointMatrix,
        round: usize,
        seed: u64,
        spec: Option<SampleSpec>,
    ) -> Result<(f64, Option<SampleOut>), KMeansError> {
        let mut args = Enc::new();
        args.matrix(centers);
        args.u64(round as u64);
        args.u64(seed);
        enc_spec_into(&mut args, spec);
        let fingerprint = fp(K_INIT_SAMPLED, args);
        if let Some(i) = self.next_replay(K_INIT_SAMPLED, fingerprint)? {
            let result = decode_phi_sample_result(&self.ckpt.records[i].payload)?;
            self.segments = vec![centers.clone()];
            return Ok(result);
        }
        self.catch_up()?;
        let (psi, out) = self
            .inner
            .tracker_init_sampled(centers, round, seed, spec)?;
        self.append(
            K_INIT_SAMPLED,
            fingerprint,
            encode_phi_sample_result(psi, &out),
        )?;
        Ok((psi, out))
    }

    fn tracker_update_sampled(
        &mut self,
        from: usize,
        new_rows: &PointMatrix,
        round: usize,
        seed: u64,
        spec: Option<SampleSpec>,
    ) -> Result<(f64, Option<SampleOut>), KMeansError> {
        let mut args = Enc::new();
        args.u64(from as u64);
        args.matrix(new_rows);
        args.u64(round as u64);
        args.u64(seed);
        enc_spec_into(&mut args, spec);
        let fingerprint = fp(K_UPDATE_SAMPLED, args);
        if let Some(i) = self.next_replay(K_UPDATE_SAMPLED, fingerprint)? {
            let result = decode_phi_sample_result(&self.ckpt.records[i].payload)?;
            self.segments.push(new_rows.clone());
            return Ok(result);
        }
        self.catch_up()?;
        let (phi, out) = self
            .inner
            .tracker_update_sampled(from, new_rows, round, seed, spec)?;
        self.append(
            K_UPDATE_SAMPLED,
            fingerprint,
            encode_phi_sample_result(phi, &out),
        )?;
        Ok((phi, out))
    }

    fn tracker_update_weighted(
        &mut self,
        from: usize,
        new_rows: &PointMatrix,
        m: usize,
    ) -> Result<Vec<f64>, KMeansError> {
        let mut args = Enc::new();
        args.u64(from as u64);
        args.matrix(new_rows);
        args.u64(m as u64);
        let fingerprint = fp(K_UPDATE_WEIGHTED, args);
        if let Some(i) = self.next_replay(K_UPDATE_WEIGHTED, fingerprint)? {
            let weights = decode_f64s_result(&self.ckpt.records[i].payload)?;
            self.segments.push(new_rows.clone());
            return Ok(weights);
        }
        self.catch_up()?;
        let weights = self.inner.tracker_update_weighted(from, new_rows, m)?;
        self.append(K_UPDATE_WEIGHTED, fingerprint, encode_f64s_result(&weights))?;
        Ok(weights)
    }

    fn assign_fused(
        &mut self,
        centers: &PointMatrix,
        fetch: LabelFetch,
    ) -> Result<(u64, ClusterSums, Option<Vec<u32>>), KMeansError> {
        let mut args = Enc::new();
        args.matrix(centers);
        args.u8(match fetch {
            LabelFetch::Skip => 0,
            LabelFetch::IfStable => 1,
            LabelFetch::Always => 2,
        });
        let fingerprint = fp(K_ASSIGN_FUSED, args);
        if let Some(i) = self.next_replay(K_ASSIGN_FUSED, fingerprint)? {
            let result = decode_assign_fused_result(&self.ckpt.records[i].payload)?;
            self.last_assign = Some(centers.clone());
            return Ok(result);
        }
        self.catch_up()?;
        let (reassigned, sums, labels) = self.inner.assign_fused(centers, fetch)?;
        self.append(
            K_ASSIGN_FUSED,
            fingerprint,
            encode_assign_fused_result(reassigned, &sums, &labels),
        )?;
        Ok((reassigned, sums, labels))
    }

    // `preload_rows` deliberately stays the trait's no-op default:
    // checkpointed mini-batch keeps its per-batch journaled gathers —
    // durability at round granularity over collapsing the gathers.
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
        let bytes = encode_assign_result(11, &sums);
        let (reassigned, got) = decode_assign_result(&bytes).unwrap();
        assert_eq!(reassigned, 11);
        assert_eq!(got.sums, sums.sums);
        assert_eq!(got.counts, sums.counts);
        assert_eq!(got.cost.to_bits(), sums.cost.to_bits());
        assert_eq!(got.farthest.len(), sums.farthest.len());
        assert_eq!(got.farthest[0], sums.farthest[0]);
        assert_eq!(got.farthest[1].0, usize::MAX);
        assert_eq!(got.stats.distance_computations, 42);
        assert_eq!(got.stats.pruned_by_norm_bound, 9);
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
        let bytes = encode_assign_result(1, &sums);
        for cut in 0..bytes.len() {
            assert!(decode_assign_result(&bytes[..cut]).is_err(), "cut {cut}");
        }
    }

    #[test]
    fn sampled_and_keys_results_round_trip() {
        let mut rows = PointMatrix::new(2);
        rows.push(&[1.0, -2.0]).unwrap();
        let bytes = encode_sampled_result(&[5, 9], &rows);
        let (idx, got) = decode_sampled_result(&bytes).unwrap();
        assert_eq!(idx, vec![5, 9]);
        assert_eq!(got.as_slice(), rows.as_slice());

        let entries = vec![(-0.5, 3usize), (-1.25, 77)];
        let bytes = encode_keys_result(&entries);
        assert_eq!(decode_keys_result(&bytes).unwrap(), entries);
    }
}
