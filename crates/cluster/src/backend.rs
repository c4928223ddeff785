//! [`ClusterBackend`]: the worker cluster as a
//! [`RoundBackend`], so the backend-generic drivers in
//! `kmeans_core::driver` (one implementation of k-means||, Lloyd,
//! mini-batch, random seeding) execute on a distributed cluster exactly
//! as they do in memory or out of core.
//!
//! Every round-level call maps onto one coordinator conversation
//! ([`Cluster`]'s broadcast/collect methods), one frame per worker. The
//! backend holds no algorithm state of its own: each worker serves one
//! `LocalBackend` part over its rows (tracker slice and labels
//! included), [`Cluster`] folds the parts with the same core fold
//! functions a local fit uses, and every scalar RNG decision stays in the
//! driver. That split is the whole bit-parity argument (see
//! `docs/ARCHITECTURE.md`, "Driver layer"). The input contract is the
//! trait's shape check over the global `(n, dim)`.
//!
//! Errors: typed clustering failures relayed from workers pass through
//! unchanged (a distributed fit reports the *same*
//! `NonFiniteData { point, dim }` a single-node fit would); transport
//! failures surface as `KMeansError::Data` via the standard
//! [`ClusterError`](crate::ClusterError) conversion — a value, never a hang.

use crate::coordinator::{Cluster, SessionMirror};
use kmeans_core::assign::ClusterSums;
use kmeans_core::driver::{
    BackendKind, Broadcast, LabelFetch, RoundBackend, TrackerOut, TrackerRead,
};
use kmeans_core::KMeansError;
use kmeans_data::PointMatrix;
use std::collections::HashMap;

/// A [`RoundBackend`] over a connected worker [`Cluster`].
///
/// Construct with [`ClusterBackend::new`] *after* [`Cluster::plan`] —
/// the plan establishes the global shard layout the per-shard RNG
/// streams and fold grids derive from — or with
/// [`ClusterBackend::deferred`] to plan lazily on the first wire
/// round. Deferral is what lets a stage without a distributed
/// realization reject with its typed error *before* any planning (so an
/// unsupported stage is reported as unsupported even on a misaligned
/// cluster, matching the pre-driver behavior).
pub struct ClusterBackend<'a> {
    cluster: &'a mut Cluster,
    pending_plan: Option<usize>,
    /// Preloaded row cache ([`RoundBackend::preload_rows`]): global row
    /// index → position in the cached matrix. Mini-batch's per-step
    /// gathers are served from here, collapsing its ~`steps` wire
    /// cycles into one.
    preload: Option<(HashMap<usize, usize>, PointMatrix)>,
}

impl<'a> ClusterBackend<'a> {
    /// Wraps an already-planned cluster.
    pub fn new(cluster: &'a mut Cluster) -> Self {
        ClusterBackend {
            cluster,
            pending_plan: None,
            preload: None,
        }
    }

    /// Wraps a cluster, planning it with `shard_size` on the first wire
    /// round (validation and shape queries stay plan-free).
    pub fn deferred(cluster: &'a mut Cluster, shard_size: usize) -> Self {
        ClusterBackend {
            cluster,
            pending_plan: Some(shard_size),
            preload: None,
        }
    }

    fn ensure_planned(&mut self) -> Result<(), KMeansError> {
        if let Some(shard_size) = self.pending_plan.take() {
            self.cluster.plan(shard_size)?;
        }
        Ok(())
    }

    /// Brings the workers to the state a resumed fit's journal replayed
    /// (see [`Cluster::catch_up`]), planning first if deferred.
    pub fn catch_up(&mut self, mirror: SessionMirror) -> Result<(), KMeansError> {
        self.ensure_planned()?;
        Ok(self.cluster.catch_up(mirror)?)
    }

    /// Serves a gather from the preload cache when every requested row
    /// is cached; `None` falls through to the wire.
    fn cached_rows(&self, indices: &[usize]) -> Option<Result<PointMatrix, KMeansError>> {
        let (map, rows) = self.preload.as_ref()?;
        let mut out = PointMatrix::new(rows.dim());
        for g in indices {
            let &pos = map.get(g)?;
            if let Err(e) = out.push(rows.row(pos)) {
                return Some(Err(KMeansError::Data(format!(
                    "preloaded row {g} has the wrong dim: {e}"
                ))));
            }
        }
        Some(Ok(out))
    }
}

impl RoundBackend for ClusterBackend<'_> {
    fn kind(&self) -> BackendKind {
        BackendKind::Distributed
    }

    fn len(&self) -> usize {
        self.cluster.global_n()
    }

    fn dim(&self) -> usize {
        self.cluster.dim()
    }

    fn wire_bytes(&self) -> Option<u64> {
        // Monotonic across worker re-dials: retired transports fold
        // their totals into the per-worker counters on replacement.
        Some(self.cluster.bytes_sent() + self.cluster.bytes_received())
    }

    fn gather_rows(&mut self, indices: &[usize], out: &mut PointMatrix) -> Result<(), KMeansError> {
        *out = match self.cached_rows(indices) {
            Some(cached) => cached?,
            None => {
                self.ensure_planned()?;
                self.cluster.gather_rows(indices)?
            }
        };
        Ok(())
    }

    fn preload_rows(&mut self, indices: &[usize]) -> Result<(), KMeansError> {
        self.ensure_planned()?;
        let mut unique: Vec<usize> = indices.to_vec();
        unique.sort_unstable();
        unique.dedup();
        let rows = self.cluster.gather_rows(&unique)?;
        let map: HashMap<usize, usize> = unique.into_iter().zip(0..).collect();
        self.preload = Some((map, rows));
        Ok(())
    }

    fn tracker_round(
        &mut self,
        broadcast: Broadcast<'_>,
        read: TrackerRead,
    ) -> Result<(f64, TrackerOut), KMeansError> {
        self.ensure_planned()?;
        Ok(self.cluster.tracker_round(broadcast, read)?)
    }

    fn assign(
        &mut self,
        centers: &PointMatrix,
        fetch: LabelFetch,
    ) -> Result<(u64, ClusterSums, Option<Vec<u32>>), KMeansError> {
        self.ensure_planned()?;
        Ok(self.cluster.assign(centers, fetch)?)
    }

    fn potential(&mut self, centers: &PointMatrix) -> Result<f64, KMeansError> {
        self.ensure_planned()?;
        Ok(self.cluster.potential(centers)?)
    }
}
