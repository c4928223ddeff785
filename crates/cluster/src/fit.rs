//! Pipeline integration: the [`FitDistributed`] extension that gives the
//! standard [`KMeans`] builder a `fit_distributed` entry point next to
//! `fit` and `fit_chunked`.
//!
//! A distributed fit is the same pipeline as a local one: the builder's
//! configured stages run their `init_backend` / `refine_backend` entry
//! points on the [`Cluster`] itself — the distributed `RoundBackend` —
//! through the one fit engine, [`KMeans::fit_round_backend`], and stages
//! without a distributed formulation (AFK-MC², k-means++, the streaming
//! seeders) reject with the shared typed error — the same fail-loudly
//! contract as the chunked path. `random`/`kmeans-par` seeds and
//! `lloyd`/`minibatch`/`none` refiners work because their round drivers
//! are backend-generic.
//!
//! Every entry point runs the engine's up-front checks
//! ([`KMeans::check_backend`]) before [`Cluster::plan`], so an
//! unsupported stage rejects with its own typed error before any frame
//! reaches a worker — even on a misaligned cluster.

use crate::checkpoint::{CheckpointingBackend, RoundCheckpoint};
use crate::coordinator::Cluster;
use kmeans_core::model::{KMeans, KMeansModel};
use kmeans_core::KMeansError;
use kmeans_data::checkpoint::CheckpointMeta;
use std::path::Path;

/// Extension trait putting `fit_distributed` on the standard
/// [`KMeans`] builder.
///
/// ```no_run
/// use kmeans_cluster::{Cluster, FitDistributed};
/// use kmeans_core::model::KMeans;
///
/// # fn demo(mut cluster: Cluster) -> Result<(), kmeans_core::KMeansError> {
/// // Same builder, same seed, same results as fit()/fit_chunked() —
/// // just executed by the cluster's workers.
/// let model = KMeans::params(16).seed(7).fit_distributed(&mut cluster)?;
/// assert_eq!(model.k(), 16);
/// # Ok(())
/// # }
/// ```
pub trait FitDistributed {
    /// Runs initialization + refinement on a worker cluster. Results are
    /// **bit-identical** to [`KMeans::fit`] / `fit_chunked` on the
    /// concatenated worker data for the same seed and shard size, for any
    /// worker count — stages without a distributed realization (and
    /// weighted fits) reject with a typed error.
    fn fit_distributed(&self, cluster: &mut Cluster) -> Result<KMeansModel, KMeansError>;

    /// [`fit_distributed`](FitDistributed::fit_distributed) with a round
    /// journal: every completed round's result is appended to `ckpt`
    /// (and persisted if the journal is file-backed), and rounds already
    /// in the journal are *replayed* instead of re-run — so a fit
    /// restarted with the journal of an interrupted run resumes at the
    /// first incomplete round and finishes **bit-identically** to an
    /// uninterrupted fit. The journal must belong to this exact job
    /// (seed, k, n, dim, shard size) or the fit rejects with a typed
    /// error.
    fn fit_distributed_resumable(
        &self,
        cluster: &mut Cluster,
        ckpt: &mut RoundCheckpoint,
    ) -> Result<KMeansModel, KMeansError>;

    /// File-backed convenience over
    /// [`fit_distributed_resumable`](FitDistributed::fit_distributed_resumable):
    /// loads (or creates) the `SKMCKPT1` checkpoint at `path`, fits with
    /// journaling, and removes the file once the fit completes — the
    /// checkpoint is a crash artifact, not an output. A file written by
    /// another job is refused with the typed error naming it and left in
    /// place. This is the engine behind `skm fit --distributed
    /// --checkpoint FILE`.
    fn fit_distributed_checkpointed(
        &self,
        cluster: &mut Cluster,
        path: &Path,
    ) -> Result<KMeansModel, KMeansError>;
}

/// The expected journal identity for fitting `kmeans` on `cluster`.
fn checkpoint_meta(kmeans: &KMeans, cluster: &Cluster) -> CheckpointMeta {
    CheckpointMeta {
        seed: kmeans.configured_seed(),
        k: kmeans.k() as u64,
        global_n: cluster.global_n() as u64,
        shard_size: kmeans.executor().shard_spec().shard_size() as u64,
        dim: cluster.dim() as u32,
    }
}

/// The engine's up-front checks, then the plan that opens the fit.
fn check_and_plan(kmeans: &KMeans, cluster: &mut Cluster) -> Result<(), KMeansError> {
    kmeans.check_backend(cluster)?;
    Ok(cluster.plan(kmeans.executor().shard_spec().shard_size())?)
}

impl FitDistributed for KMeans {
    fn fit_distributed(&self, cluster: &mut Cluster) -> Result<KMeansModel, KMeansError> {
        check_and_plan(self, cluster)?;
        self.fit_round_backend(cluster)
    }

    fn fit_distributed_resumable(
        &self,
        cluster: &mut Cluster,
        ckpt: &mut RoundCheckpoint,
    ) -> Result<KMeansModel, KMeansError> {
        let expected = checkpoint_meta(self, cluster);
        let found = *ckpt.meta();
        if found != expected {
            let journal = match ckpt.path() {
                Some(path) => format!("checkpoint {}", path.display()),
                None => "checkpoint journal".to_string(),
            };
            return Err(KMeansError::InvalidConfig(format!(
                "{journal} belongs to a different job (journal: seed {} k {} n {} shard {} \
                 dim {}; this fit: seed {} k {} n {} shard {} dim {}) — delete it or restart \
                 with the original parameters",
                found.seed,
                found.k,
                found.global_n,
                found.shard_size,
                found.dim,
                expected.seed,
                expected.k,
                expected.global_n,
                expected.shard_size,
                expected.dim,
            )));
        }
        check_and_plan(self, cluster)?;
        ckpt.rewind();
        self.fit_round_backend(&mut CheckpointingBackend::new(cluster, ckpt))
    }

    fn fit_distributed_checkpointed(
        &self,
        cluster: &mut Cluster,
        path: &Path,
    ) -> Result<KMeansModel, KMeansError> {
        let meta = checkpoint_meta(self, cluster);
        let mut ckpt = RoundCheckpoint::load_or_new(path, meta)?;
        let model = self.fit_distributed_resumable(cluster, &mut ckpt)?;
        // Completed fits don't leave a stale journal behind: a later run
        // with different parameters would otherwise reject on the
        // leftover file.
        let _ = std::fs::remove_file(path);
        Ok(model)
    }
}
