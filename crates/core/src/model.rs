//! The end-to-end pipeline: a pluggable [`Initializer`] followed by a
//! pluggable [`Refiner`], behind a builder API, and the fitted
//! [`KMeansModel`]. A model answers `predict` and `cost_of` through a
//! [`PreparedPredictor`], whose queries run the executor-grid `d²` pass
//! of [`crate::cost`] — the pass behind the potential and the seeding
//! tracker — so a served or local `cost_of` is the bits of
//! [`cost::potential`](crate::cost::potential) on the same rows.
//!
//! ```
//! use kmeans_core::model::KMeans;
//! use kmeans_data::synth::GaussMixture;
//!
//! let synth = GaussMixture::new(10).points(2_000).generate(1).unwrap();
//! let model = KMeans::params(10)
//!     .seed(42)
//!     .fit(synth.dataset.points())
//!     .unwrap();
//! assert_eq!(model.centers().len(), 10);
//! assert!(model.cost() > 0.0);
//! ```
//!
//! Any seeder composes with any refiner:
//!
//! ```
//! use kmeans_core::model::KMeans;
//! use kmeans_core::pipeline::{AfkMc2, Lloyd};
//! use kmeans_data::synth::GaussMixture;
//!
//! let synth = GaussMixture::new(5).points(500).generate(2).unwrap();
//! let model = KMeans::params(5)
//!     .init(AfkMc2::default())
//!     .refine(Lloyd::default())
//!     .seed(7)
//!     .fit(synth.dataset.points())
//!     .unwrap();
//! assert!(model.converged());
//! assert!(model.distance_computations() > 0);
//! ```

use crate::cost::{d2_pass, fold_cell, fold_shard_sums};
use crate::driver::{LocalBackend, RoundBackend};
use crate::error::KMeansError;
use crate::init::{InitMethod, InitStats};
use crate::kernel::{AssignKernel, KernelStats};
use crate::lloyd::{IterationStats, LloydConfig};
use crate::pipeline::{
    backend_weights, reject_backend, validate_weights, Initializer, Lloyd, Refiner,
};
use crate::record::RecordingBackend;
use kmeans_data::{ChunkedSource, ModelRecord, PointMatrix};
use kmeans_obs::{arg_str, Recorder};
use kmeans_par::{Executor, Parallelism};
use std::path::Path;
use std::sync::Arc;
use std::time::Duration;

/// Builder for a k-means run (defaults follow the paper's recommendation:
/// k-means|| seeding with `ℓ = 2k`, `r = 5`, then Lloyd to stability).
#[derive(Clone, Debug)]
pub struct KMeans {
    k: usize,
    init: Arc<dyn Initializer>,
    refiner: Option<Arc<dyn Refiner>>,
    lloyd: LloydConfig,
    lloyd_tuned: bool,
    weights: Option<Vec<f64>>,
    source: Option<Arc<dyn ChunkedSource>>,
    seed: u64,
    parallelism: Parallelism,
    shard_size: Option<usize>,
    recorder: Recorder,
}

impl KMeans {
    /// Starts a builder for `k` clusters.
    pub fn params(k: usize) -> Self {
        KMeans {
            k,
            init: Arc::new(InitMethod::default()),
            refiner: None,
            lloyd: LloydConfig::default(),
            lloyd_tuned: false,
            weights: None,
            source: None,
            seed: 0,
            parallelism: Parallelism::Auto,
            shard_size: None,
            recorder: Recorder::disabled(),
        }
    }

    /// Selects the initialization stage. Accepts any [`Initializer`] —
    /// the [`InitMethod`] enum variants, the `kmeans_core::pipeline`
    /// seeders, or the streaming adapters from `kmeans-streaming`.
    pub fn init<I: Initializer + 'static>(mut self, init: I) -> Self {
        self.init = Arc::new(init);
        self
    }

    /// Selects the refinement stage (default: Lloyd to stability).
    pub fn refine<R: Refiner + 'static>(mut self, refiner: R) -> Self {
        self.refiner = Some(Arc::new(refiner));
        self
    }

    /// Sets per-point weights, plumbed through both stages. Each point
    /// counts as `w` copies of itself in sampling probabilities, centroid
    /// updates, and the reported cost.
    ///
    /// Note: the weighted kernels currently run sequentially — weighted
    /// workloads in this workspace are candidate-set sized (Step 8 of
    /// k-means||, coreset reclustering), so `parallelism` affects only
    /// the unweighted stages of a weighted fit.
    pub fn weights(mut self, weights: &[f64]) -> Self {
        self.weights = Some(weights.to_vec());
        self
    }

    /// Sets the out-of-core data source consumed by
    /// [`KMeans::fit_chunked`]. The in-memory [`KMeans::fit`] ignores it
    /// (its explicit `points` argument is the data).
    ///
    /// ```
    /// use kmeans_core::model::KMeans;
    /// use kmeans_data::InMemorySource;
    /// use kmeans_data::synth::GaussMixture;
    ///
    /// let synth = GaussMixture::new(8).points(1_000).generate(3).unwrap();
    /// let points = synth.dataset.points().clone();
    /// // In-memory and chunked fits agree bit-for-bit on the same seed.
    /// let mem = KMeans::params(8).seed(5).fit(&points).unwrap();
    /// let chunked = KMeans::params(8)
    ///     .seed(5)
    ///     .data_source(InMemorySource::new(points, 128).unwrap())
    ///     .fit_chunked()
    ///     .unwrap();
    /// assert_eq!(mem.centers(), chunked.centers());
    /// assert_eq!(mem.cost().to_bits(), chunked.cost().to_bits());
    /// ```
    pub fn data_source<S: ChunkedSource + 'static>(mut self, source: S) -> Self {
        self.source = Some(Arc::new(source));
        self
    }

    /// Like [`KMeans::data_source`], but shares an existing handle — for
    /// callers that want to inspect the source after the fit (e.g. the
    /// CLI's peak-residency report).
    pub fn data_source_shared(mut self, source: Arc<dyn ChunkedSource>) -> Self {
        self.source = Some(source);
        self
    }

    /// Caps the number of refinement iterations of the **default Lloyd
    /// refiner**. Combining this with an explicit [`KMeans::refine`] is
    /// rejected at [`KMeans::fit`] time — a custom refiner carries its
    /// own configuration.
    pub fn max_iterations(mut self, max: usize) -> Self {
        self.lloyd.max_iterations = max;
        self.lloyd_tuned = true;
        self
    }

    /// Sets the relative-improvement stopping tolerance of the default
    /// Lloyd refiner (0 = run to assignment stability), compared on the
    /// tracked history costs ([`LloydConfig::tol`]). Same conflict rule as
    /// [`KMeans::max_iterations`].
    pub fn tol(mut self, tol: f64) -> Self {
        self.lloyd.tol = tol;
        self.lloyd_tuned = true;
        self
    }

    /// Sets the random seed. Runs are bit-reproducible per seed (and
    /// independent of the worker count).
    pub fn seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    /// Sets the execution parallelism.
    pub fn parallelism(mut self, parallelism: Parallelism) -> Self {
        self.parallelism = parallelism;
        self
    }

    /// Overrides the logical shard size (part of the reproducibility key).
    pub fn shard_size(mut self, shard_size: usize) -> Self {
        self.shard_size = Some(shard_size);
        self
    }

    /// Attaches a flight recorder. With an enabled recorder every fit —
    /// in-memory, chunked, or distributed — records one span per stage
    /// and per round primitive (round kind, wall time, wire bytes, kernel
    /// counters); with the default disabled recorder the instrumentation
    /// costs one branch per call. The recorder only decides whether the
    /// backend is wrapped in a [`RecordingBackend`], so an instrumented
    /// fit runs the same code and is bit-identical to an uninstrumented
    /// one (pinned by `tests/obs_parity.rs`).
    pub fn recorder(mut self, recorder: Recorder) -> Self {
        self.recorder = recorder;
        self
    }

    /// The configured flight recorder (disabled by default).
    pub fn configured_recorder(&self) -> &Recorder {
        &self.recorder
    }

    /// Builds the executor this configuration implies. Public for
    /// alternative fit frontends (the distributed coordinator), which need
    /// the shard size — part of every run's reproducibility key.
    pub fn executor(&self) -> Executor {
        let exec = Executor::new(self.parallelism);
        match self.shard_size {
            Some(s) => exec.with_shard_size(s),
            None => exec,
        }
    }

    /// The configured number of clusters.
    pub fn k(&self) -> usize {
        self.k
    }

    /// The configured random seed.
    pub fn configured_seed(&self) -> u64 {
        self.seed
    }

    /// Whether per-point weights were configured (weighted fits exist on
    /// the in-memory path only; chunked and distributed frontends reject).
    pub fn has_weights(&self) -> bool {
        self.weights.is_some()
    }

    /// The configured initialization stage.
    pub fn initializer(&self) -> &Arc<dyn Initializer> {
        &self.init
    }

    /// Runs initialization + refinement on `points` (weighted when
    /// [`KMeans::weights`] is set): [`KMeans::fit_round_backend`] on a
    /// [`LocalBackend::in_memory`] that carries the weights.
    pub fn fit(&self, points: &PointMatrix) -> Result<KMeansModel, KMeansError> {
        let weights = self.weights.as_deref();
        validate_weights(points, weights)?;
        let exec = self.executor();
        self.fit_round_backend(&mut LocalBackend::in_memory(points, weights, &exec))
    }

    /// Runs initialization + refinement **out of core** on the configured
    /// [`KMeans::data_source`]: [`KMeans::fit_round_backend`] on a
    /// [`LocalBackend::chunked`], so every stage streams the source block
    /// by block (one scan per k-means|| round / Lloyd iteration) and the
    /// feature payload never has to fit in memory. Results are
    /// bit-identical to [`KMeans::fit`] on the same data, seed, and
    /// executor for every stage with a chunked formulation; stages
    /// without one (AFK-MC²) and weighted fits are rejected with a typed
    /// error.
    pub fn fit_chunked(&self) -> Result<KMeansModel, KMeansError> {
        let source = self.source.clone().ok_or_else(|| {
            KMeansError::InvalidConfig(
                "no data source configured; call .data_source(...) before .fit_chunked()".into(),
            )
        })?;
        let exec = self.executor();
        self.fit_round_backend(&mut LocalBackend::chunked(source.as_ref(), &exec))
    }

    /// The engine's up-front checks on `backend`, run before any round:
    /// configured weights only on a backend that carries them (only
    /// [`KMeans::fit`]'s in-memory backend does), no Lloyd knobs next to
    /// a custom refiner (silently ignoring them would leave e.g. an
    /// "iteration-capped" study uncapped), and both stages formulated for
    /// the backend's [`BackendKind`](crate::driver::BackendKind) — each
    /// failure the mode's typed error. Returns the resolved refiner.
    /// Public for fit frontends that open a session before the engine
    /// runs: the distributed fit checks before its plan, so an
    /// unsupported stage rejects before any frame reaches a worker.
    pub fn check_backend(
        &self,
        backend: &dyn RoundBackend,
    ) -> Result<Arc<dyn Refiner>, KMeansError> {
        let kind = backend.kind();
        if self.weights.is_some() && backend_weights(backend).is_none() {
            return Err(KMeansError::InvalidConfig(format!(
                "{} fits do not support weighted input",
                kind.name()
            )));
        }
        let refiner = match &self.refiner {
            Some(_) if self.lloyd_tuned => {
                return Err(KMeansError::InvalidConfig(
                    "max_iterations/tol configure the default Lloyd refiner; \
                     pass a configured refiner to .refine(...) instead"
                        .into(),
                ))
            }
            Some(r) => Arc::clone(r),
            None => Arc::new(Lloyd(self.lloyd)),
        };
        if !self.init.supports_backend(kind) {
            return Err(reject_backend(self.init.name(), kind));
        }
        if !refiner.supports_backend(kind) {
            return Err(reject_backend(refiner.name(), kind));
        }
        Ok(refiner)
    }

    /// Runs the standard init → refine pipeline over an explicit
    /// [`RoundBackend`] — the one fit engine behind [`KMeans::fit`],
    /// [`KMeans::fit_chunked`], and `kmeans-cluster`'s distributed fit
    /// entry points.
    ///
    /// [`KMeans::check_backend`] runs first, so an unsupported stage or a
    /// weighted fit on a backend without weights rejects before any
    /// round. When the configured [`Recorder`] is enabled the backend is
    /// wrapped in a [`RecordingBackend`] so every round primitive records
    /// a span; the wrapper only observes, so results are bit-identical
    /// either way.
    pub fn fit_round_backend(
        &self,
        backend: &mut dyn RoundBackend,
    ) -> Result<KMeansModel, KMeansError> {
        let refiner = self.check_backend(backend)?;
        let exec = self.executor();
        let mut recorded;
        let backend: &mut dyn RoundBackend = if self.recorder.is_enabled() {
            recorded = RecordingBackend::new(backend, self.recorder.clone());
            &mut recorded
        } else {
            backend
        };
        let start = self.recorder.start();
        let init = self.init.init_backend(backend, self.k, self.seed)?;
        self.recorder.span(start, "stage:init", "fit", || {
            vec![arg_str("stage", self.init.name())]
        });
        let start = self.recorder.start();
        let result = refiner.refine_backend(backend, &init.centers, self.seed)?;
        self.recorder.span(start, "stage:refine", "fit", || {
            vec![arg_str("stage", refiner.name())]
        });
        Ok(KMeansModel {
            centers: result.centers,
            labels: result.labels,
            cost: result.cost,
            init_stats: init.stats,
            iterations: result.iterations,
            converged: result.converged,
            history: result.history,
            distance_computations: result.distance_computations,
            pruned_by_norm_bound: result.pruned_by_norm_bound,
            init_name: self.init.name(),
            refiner_name: refiner.name(),
            executor: exec,
        })
    }
}

/// A fitted k-means model.
#[derive(Clone, Debug)]
pub struct KMeansModel {
    centers: PointMatrix,
    labels: Vec<u32>,
    cost: f64,
    init_stats: InitStats,
    iterations: usize,
    converged: bool,
    history: Vec<IterationStats>,
    distance_computations: u64,
    pruned_by_norm_bound: u64,
    init_name: &'static str,
    refiner_name: &'static str,
    executor: Executor,
}

impl KMeansModel {
    /// The fitted centers (`k × d`).
    pub fn centers(&self) -> &PointMatrix {
        &self.centers
    }

    /// Number of clusters.
    pub fn k(&self) -> usize {
        self.centers.len()
    }

    /// Training-set assignment.
    pub fn labels(&self) -> &[u32] {
        &self.labels
    }

    /// Final training potential (the "final" columns of Tables 1–2).
    pub fn cost(&self) -> f64 {
        self.cost
    }

    /// Seeding accounting (seed cost, candidate count, passes).
    pub fn init_stats(&self) -> &InitStats {
        &self.init_stats
    }

    /// Refinement iterations executed (the Table 6 quantity).
    pub fn iterations(&self) -> usize {
        self.iterations
    }

    /// Whether the refiner converged before its iteration cap.
    pub fn converged(&self) -> bool {
        self.converged
    }

    /// Per-iteration history (where the refiner tracks one).
    pub fn history(&self) -> &[IterationStats] {
        &self.history
    }

    /// Point-to-center distance evaluations the refiner spent (analytic:
    /// `n·k` per assignment pass).
    pub fn distance_computations(&self) -> u64 {
        self.distance_computations
    }

    /// Candidates the batch assignment kernel skipped via its exact
    /// `O(1)` lower bounds during refinement — the norm bound
    /// `(‖x‖−‖c‖)²` plus the coordinate-gap bounds of the sorted sweep —
    /// the second pruning observable next to
    /// [`KMeansModel::distance_computations`]; it also counts the
    /// candidates a seed's separation list certifies farther, which a
    /// warm pass (every Lloyd pass after the first, and the first one
    /// after k-means||, seeded from the tracker) settles most points by,
    /// and `k` for every row a bounded Lloyd pass settles on its carried
    /// bounds without calling the kernel.
    /// Exactly reproducible: thread counts, block sizes, worker counts,
    /// worker recovery and resuming from a checkpoint journal never change
    /// it — every backend seeds and settles a pass alike (from its
    /// previous labels and bounds, or its seeding tracker before it has
    /// any), and recovery and resume rebuild them exactly: the catch-up
    /// replays the last full pass and every bounded pass since, and a
    /// row's bounds depend on the row and the centers, not on how its
    /// full pass was seeded.
    pub fn pruned_by_norm_bound(&self) -> u64 {
        self.pruned_by_norm_bound
    }

    /// Name of the initializer that seeded this model.
    pub fn init_name(&self) -> &'static str {
        self.init_name
    }

    /// Name of the refiner that produced the final centers.
    pub fn refiner_name(&self) -> &'static str {
        self.refiner_name
    }

    /// The executor configuration the model was fitted with; `predict`
    /// and `cost_of` reuse it.
    pub fn executor(&self) -> &Executor {
        &self.executor
    }

    /// Number of training points assigned to each cluster.
    pub fn cluster_sizes(&self) -> Vec<u64> {
        let mut sizes = vec![0u64; self.centers.len()];
        for &l in &self.labels {
            sizes[l as usize] += 1;
        }
        sizes
    }

    /// Assigns new points to the fitted centers, in parallel on the
    /// model's executor (deterministic: shard results concatenate in
    /// shard order).
    ///
    /// Builds a fresh [`PreparedPredictor`] per call; callers issuing
    /// many predict/cost queries against the same model (the serving
    /// tier) should hold a [`KMeansModel::prepared`] engine instead and
    /// amortize the kernel preparation.
    ///
    /// # Errors
    ///
    /// Fails if `points` has a different dimensionality than the model.
    pub fn predict(&self, points: &PointMatrix) -> Result<Vec<u32>, KMeansError> {
        self.prepared().predict(points)
    }

    /// Potential of new points under the fitted centers, in parallel on
    /// the model's executor (shard partials folded in shard order, so the
    /// result is bit-identical for any worker count). Same
    /// prepare-per-call note as [`KMeansModel::predict`].
    ///
    /// # Errors
    ///
    /// Fails if `points` has a different dimensionality than the model.
    pub fn cost_of(&self, points: &PointMatrix) -> Result<f64, KMeansError> {
        self.prepared().cost_of(points)
    }

    /// Builds a long-lived assignment engine over this model's centers
    /// and executor. `predict`/`cost_of` on the returned engine are
    /// bit-identical to the model's own methods (they share one
    /// implementation) while paying the kernel preparation — a sorted
    /// copy of the centers plus one separation-list walk per center, see
    /// [`AssignKernel`] — once instead of per call.
    pub fn prepared(&self) -> PreparedPredictor {
        PreparedPredictor::new(self.centers.clone(), self.executor.clone())
    }

    /// The persistable subset of this model as a [`ModelRecord`]
    /// (`SKMMDL01`). Training-set artifacts that scale with `n` — labels
    /// and per-iteration history — and the executor configuration are
    /// deliberately not part of the record: a serving process supplies
    /// its own executor, and labels can be recomputed by `predict` on
    /// the training data.
    pub fn to_record(&self) -> ModelRecord {
        ModelRecord {
            centers: self.centers.clone(),
            cost: self.cost,
            seed_cost: self.init_stats.seed_cost,
            distance_computations: self.distance_computations,
            pruned_by_norm_bound: self.pruned_by_norm_bound,
            iterations: self.iterations as u64,
            init_rounds: self.init_stats.rounds.min(u32::MAX as usize) as u32,
            init_passes: self.init_stats.passes.min(u32::MAX as usize) as u32,
            init_candidates: self.init_stats.candidates as u64,
            converged: self.converged,
            init_name: self.init_name.to_string(),
            refiner_name: self.refiner_name.to_string(),
        }
    }

    /// Reassembles a model from a persisted [`ModelRecord`] plus the
    /// executor the revived model should run on. The training-set labels
    /// and iteration history are empty (not persisted); stage names are
    /// mapped back to the workspace's stable names, with unknown names
    /// collapsing to `"loaded"`.
    pub fn from_record(record: ModelRecord, executor: Executor) -> KMeansModel {
        KMeansModel {
            init_stats: InitStats {
                rounds: record.init_rounds as usize,
                passes: record.init_passes as usize,
                candidates: record.init_candidates as usize,
                seed_cost: record.seed_cost,
                duration: Duration::ZERO,
            },
            centers: record.centers,
            labels: Vec::new(),
            cost: record.cost,
            iterations: record.iterations as usize,
            converged: record.converged,
            history: Vec::new(),
            distance_computations: record.distance_computations,
            pruned_by_norm_bound: record.pruned_by_norm_bound,
            init_name: static_stage_name(&record.init_name, INIT_NAMES),
            refiner_name: static_stage_name(&record.refiner_name, REFINER_NAMES),
            executor,
        }
    }

    /// Saves this model as an `SKMMDL01` file (see
    /// `kmeans_data::modelfile` for the layout).
    ///
    /// # Errors
    ///
    /// Propagates encoding and I/O failures as [`KMeansError::Data`].
    pub fn save(&self, path: &Path) -> Result<(), KMeansError> {
        kmeans_data::save_model_file(path, &self.to_record())
            .map_err(|e| KMeansError::Data(e.to_string()))
    }

    /// Loads an `SKMMDL01` file saved by [`KMeansModel::save`], running
    /// on a default-shard-size executor with the given parallelism.
    ///
    /// # Errors
    ///
    /// Propagates decoding and I/O failures as [`KMeansError::Data`].
    pub fn load(path: &Path, parallelism: Parallelism) -> Result<KMeansModel, KMeansError> {
        let record =
            kmeans_data::load_model_file(path).map_err(|e| KMeansError::Data(e.to_string()))?;
        Ok(KMeansModel::from_record(record, Executor::new(parallelism)))
    }
}

/// Stage names a persisted record can map back to `&'static str`
/// (`hamerly` names a refiner that no longer exists, so records saved
/// with it still load under their name).
const INIT_NAMES: &[&str] = &[
    "kmeans-par",
    "kmeans++",
    "random",
    "afk-mc2",
    "partition",
    "coreset",
];
const REFINER_NAMES: &[&str] = &["lloyd", "hamerly", "minibatch", "none"];

fn static_stage_name(name: &str, known: &[&'static str]) -> &'static str {
    known
        .iter()
        .find(|&&k| k == name)
        .copied()
        .unwrap_or("loaded")
}

/// A long-lived batch assignment engine: the centers with their
/// [`AssignKernel`] prepared once, plus the executor that shards each
/// query. This is the unit the serving tier holds per model revision —
/// the preparation (`O(k·d + k log k)` for the sorted copy plus the
/// separation lists: `O(k²·d)` at worst, close to `O(17·k·d)` when the
/// centers spread along their sort key) is paid at construction and
/// every subsequent query reuses it, where the one-shot
/// [`KMeansModel::predict`] pays it per call.
///
/// Determinism contract: [`PreparedPredictor::predict`] and
/// [`PreparedPredictor::cost_of`] are bit-identical to the
/// [`KMeansModel`] methods of the model the engine came from (they are
/// the single shared implementation), and
/// [`PreparedPredictor::cost_from_d2`] folds an externally stored `d²`
/// slice on the same shard grid, so a server that batches queries
/// through [`PreparedPredictor::assign`] reproduces `cost_of` bitwise.
#[derive(Debug)]
pub struct PreparedPredictor {
    centers: PointMatrix,
    kernel: AssignKernel,
    executor: Executor,
}

impl PreparedPredictor {
    /// Prepares the assignment kernel over `centers`: `O(k·d + k log k)`
    /// for the sorted copy plus the separation lists, `O(k²·d)` at worst
    /// and close to `O(17·k·d)` when the centers spread along their sort
    /// key (see [`AssignKernel`]).
    ///
    /// # Panics
    ///
    /// Panics if `centers` is empty (no assignment target exists) —
    /// matching [`AssignKernel::new`].
    pub fn new(centers: PointMatrix, executor: Executor) -> Self {
        let kernel = AssignKernel::new(&centers);
        PreparedPredictor {
            centers,
            kernel,
            executor,
        }
    }

    /// The centers the engine assigns against (`k × d`).
    pub fn centers(&self) -> &PointMatrix {
        &self.centers
    }

    /// Number of clusters.
    pub fn k(&self) -> usize {
        self.centers.len()
    }

    /// Dimensionality of the centers.
    pub fn dim(&self) -> usize {
        self.centers.dim()
    }

    /// The executor queries run on.
    pub fn executor(&self) -> &Executor {
        &self.executor
    }

    /// The executor-grid `d²` pass ([`crate::cost`]) over `points`,
    /// keeping the labels and `d²` it is given room for.
    fn pass(
        &self,
        points: &PointMatrix,
        labels: Option<&mut [u32]>,
        d2: Option<&mut [f64]>,
    ) -> Result<(Vec<f64>, KernelStats), KMeansError> {
        if points.dim() != self.centers.dim() {
            return Err(KMeansError::DimensionMismatch {
                expected: self.centers.dim(),
                got: points.dim(),
            });
        }
        d2_pass(points.into(), &self.executor, labels, d2, |p, l, d| {
            self.kernel.assign(p.block, p.rows, l, d)
        })
    }

    /// Nearest-center label for each point (deterministic for any worker
    /// count).
    ///
    /// # Errors
    ///
    /// Fails if `points` has a different dimensionality than the centers.
    pub fn predict(&self, points: &PointMatrix) -> Result<Vec<u32>, KMeansError> {
        let mut labels = vec![0u32; points.len()];
        self.pass(points, Some(&mut labels), None)?;
        Ok(labels)
    }

    /// Potential of `points` under the centers (shard partials folded in
    /// shard order — bit-identical for any worker count, and to
    /// [`cost::potential`](crate::cost::potential)).
    ///
    /// # Errors
    ///
    /// Fails if `points` has a different dimensionality than the centers.
    pub fn cost_of(&self, points: &PointMatrix) -> Result<f64, KMeansError> {
        Ok(fold_shard_sums(self.pass(points, None, None)?.0))
    }

    /// Labels **and** squared distances in one pass, plus the kernel's
    /// pruning counters — the batch shape of the serving tier, which
    /// answers predict and cost queries from the same sweep. Per-point
    /// outputs are pure functions of (point, centers), so slicing the
    /// returned vectors at request boundaries yields exactly what each
    /// request would have gotten alone.
    ///
    /// # Errors
    ///
    /// Fails if `points` has a different dimensionality than the centers.
    #[allow(clippy::type_complexity)]
    pub fn assign(
        &self,
        points: &PointMatrix,
    ) -> Result<(Vec<u32>, Vec<f64>, KernelStats), KMeansError> {
        let (mut labels, mut d2) = (vec![0u32; points.len()], vec![0.0f64; points.len()]);
        let (_, stats) = self.pass(points, Some(&mut labels), Some(&mut d2))?;
        Ok((labels, d2, stats))
    }

    /// Folds a `d²` slice on the engine's shard grid — bit-identical to
    /// [`PreparedPredictor::cost_of`] on the points that produced it
    /// (same per-shard left-to-right sums, same [`fold_shard_sums`]). Lets
    /// a server answer cost queries from stored [`PreparedPredictor::assign`]
    /// outputs without re-sweeping the points.
    pub fn cost_from_d2(&self, d2: &[f64]) -> f64 {
        fold_shard_sums(
            self.executor
                .map_shards(d2.len(), |_, rows| fold_cell(0.0, &d2[rows])),
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::init::KMeansParallelConfig;
    use crate::minibatch::MiniBatchConfig;
    use crate::pipeline::{AfkMc2, MiniBatch, NoRefine};

    fn blobs() -> PointMatrix {
        let mut m = PointMatrix::new(2);
        for (cx, cy) in [(0.0, 0.0), (50.0, 0.0), (0.0, 50.0)] {
            for i in 0..60 {
                m.push(&[cx + (i % 8) as f64 * 0.1, cy + (i / 8) as f64 * 0.1])
                    .unwrap();
            }
        }
        m
    }

    #[test]
    fn fit_produces_consistent_model() {
        let points = blobs();
        let model = KMeans::params(3)
            .seed(1)
            .parallelism(Parallelism::Sequential)
            .fit(&points)
            .unwrap();
        assert_eq!(model.k(), 3);
        assert_eq!(model.labels().len(), points.len());
        assert!(model.converged());
        assert!(model.iterations() >= 1);
        assert!(!model.history().is_empty());
        assert_eq!(model.init_name(), "kmeans-par");
        assert_eq!(model.refiner_name(), "lloyd");
        assert!(model.distance_computations() > 0);
        // Final cost must not exceed the seed cost (Lloyd only improves).
        assert!(model.cost() <= model.init_stats().seed_cost + 1e-9);
        // Each blob in its own cluster → tiny final cost.
        assert!(model.cost() < 100.0, "cost {}", model.cost());
    }

    #[test]
    fn fit_is_deterministic_per_seed_and_parallelism_invariant() {
        let points = blobs();
        let fit = |par: Parallelism| {
            KMeans::params(3)
                .seed(9)
                .parallelism(par)
                .shard_size(32)
                .fit(&points)
                .unwrap()
        };
        let a = fit(Parallelism::Sequential);
        let b = fit(Parallelism::Threads(3));
        assert_eq!(a.labels(), b.labels());
        assert_eq!(a.centers(), b.centers());
        assert_eq!(a.cost().to_bits(), b.cost().to_bits());
    }

    #[test]
    fn all_init_methods_work_through_the_pipeline() {
        let points = blobs();
        for init in [
            InitMethod::Random,
            InitMethod::KMeansPlusPlus,
            InitMethod::KMeansParallel(KMeansParallelConfig::default()),
        ] {
            let model = KMeans::params(3)
                .init(init.clone())
                .seed(11)
                .parallelism(Parallelism::Sequential)
                .fit(&points)
                .unwrap();
            assert_eq!(model.k(), 3, "{init:?}");
        }
    }

    #[test]
    fn refine_stage_is_swappable() {
        let points = blobs();
        let base = KMeans::params(3)
            .init(InitMethod::KMeansPlusPlus)
            .seed(8)
            .parallelism(Parallelism::Sequential);
        let seed_only = base.clone().refine(NoRefine).fit(&points).unwrap();
        assert_eq!(seed_only.iterations(), 0);
        assert!(
            (seed_only.cost() - seed_only.init_stats().seed_cost).abs()
                <= 1e-9 * (1.0 + seed_only.cost())
        );

        let mini = base
            .refine(MiniBatch(MiniBatchConfig {
                batch_size: 64,
                iterations: 100,
            }))
            .fit(&points)
            .unwrap();
        assert!(mini.cost() <= seed_only.cost() + 1e-9);
        assert_eq!(mini.refiner_name(), "minibatch");
    }

    #[test]
    fn afk_mc2_reaches_the_builder() {
        let points = blobs();
        let model = KMeans::params(3)
            .init(AfkMc2 { chain_length: 30 })
            .seed(4)
            .parallelism(Parallelism::Sequential)
            .fit(&points)
            .unwrap();
        assert_eq!(model.k(), 3);
        assert_eq!(model.init_name(), "afk-mc2");
        assert!(model.converged());
    }

    #[test]
    fn weighted_fit_biases_toward_heavy_points() {
        // One heavy point far away: with weights it deserves its own
        // center; unweighted it is outvoted by the dense blob.
        let mut points = PointMatrix::new(1);
        for i in 0..50 {
            points.push(&[i as f64 * 0.01]).unwrap();
        }
        points.push(&[1000.0]).unwrap();
        let mut weights = vec![1.0; 50];
        weights.push(500.0);
        let model = KMeans::params(2)
            .init(InitMethod::KMeansPlusPlus)
            .weights(&weights)
            .seed(3)
            .parallelism(Parallelism::Sequential)
            .fit(&points)
            .unwrap();
        assert!(
            model.centers().rows().any(|r| (r[0] - 1000.0).abs() < 1.0),
            "heavy point has no center: {:?}",
            model.centers()
        );
        // Weighted cost is consistent: the heavy point sits on its own
        // center, leaving only the dense blob's internal spread (≈ 1.04).
        assert!(model.cost() < 2.0, "cost {}", model.cost());
    }

    #[test]
    fn invalid_weights_are_rejected_by_fit() {
        let points = blobs();
        let err = KMeans::params(3)
            .weights(&[1.0, 2.0])
            .fit(&points)
            .unwrap_err();
        assert!(matches!(err, KMeansError::InvalidConfig(_)));
        let bad = vec![f64::NAN; points.len()];
        let err = KMeans::params(3).weights(&bad).fit(&points).unwrap_err();
        assert!(matches!(err, KMeansError::InvalidConfig(_)));
    }

    #[test]
    fn cluster_sizes_sum_to_n() {
        let points = blobs();
        let model = KMeans::params(3)
            .seed(6)
            .parallelism(Parallelism::Sequential)
            .fit(&points)
            .unwrap();
        let sizes = model.cluster_sizes();
        assert_eq!(sizes.len(), 3);
        assert_eq!(sizes.iter().sum::<u64>(), points.len() as u64);
        assert!(sizes.iter().all(|&s| s > 0), "{sizes:?}");
    }

    #[test]
    fn predict_assigns_to_nearest_center() {
        let points = blobs();
        let model = KMeans::params(3)
            .seed(2)
            .parallelism(Parallelism::Sequential)
            .fit(&points)
            .unwrap();
        let queries = PointMatrix::from_flat(vec![1.0, 1.0, 49.0, 1.0], 2).unwrap();
        let labels = model.predict(&queries).unwrap();
        assert_eq!(labels.len(), 2);
        assert_ne!(labels[0], labels[1]);
        let cost = model.cost_of(&queries).unwrap();
        assert!(cost > 0.0 && cost < 50.0);
    }

    #[test]
    fn predict_and_cost_of_are_parallelism_invariant() {
        let points = blobs();
        let fit = |par: Parallelism| {
            KMeans::params(3)
                .seed(2)
                .parallelism(par)
                .shard_size(16)
                .fit(&points)
                .unwrap()
        };
        let seq = fit(Parallelism::Sequential);
        let par = fit(Parallelism::Threads(4));
        assert_eq!(seq.predict(&points).unwrap(), par.predict(&points).unwrap());
        assert_eq!(
            seq.cost_of(&points).unwrap().to_bits(),
            par.cost_of(&points).unwrap().to_bits()
        );
        // Self-prediction reproduces training labels.
        assert_eq!(par.predict(&points).unwrap(), par.labels());
    }

    #[test]
    fn prepared_predictor_matches_model_bitwise() {
        let points = blobs();
        let model = KMeans::params(3)
            .seed(2)
            .parallelism(Parallelism::Threads(3))
            .shard_size(16)
            .fit(&points)
            .unwrap();
        let engine = model.prepared();
        assert_eq!(engine.k(), model.k());
        assert_eq!(engine.dim(), points.dim());
        assert_eq!(engine.predict(&points).unwrap(), model.labels());
        let (labels, d2, stats) = engine.assign(&points).unwrap();
        assert_eq!(labels, model.labels());
        assert!(stats.distance_computations > 0);
        let direct = model.cost_of(&points).unwrap();
        assert_eq!(engine.cost_of(&points).unwrap().to_bits(), direct.to_bits());
        // Folding the stored d² slice reproduces cost_of bitwise — the
        // serving tier's cost path.
        assert_eq!(engine.cost_from_d2(&d2).to_bits(), direct.to_bits());
        assert!(engine.predict(&PointMatrix::new(3)).is_err());
    }

    #[test]
    fn model_save_load_round_trip() {
        let points = blobs();
        let model = KMeans::params(3)
            .seed(5)
            .parallelism(Parallelism::Sequential)
            .fit(&points)
            .unwrap();
        let dir = std::env::temp_dir().join(format!(
            "skm-model-rt-{}-{:?}",
            std::process::id(),
            std::thread::current().id()
        ));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("model.skm");
        model.save(&path).unwrap();
        let revived = KMeansModel::load(&path, Parallelism::Sequential).unwrap();
        std::fs::remove_dir_all(&dir).ok();
        assert_eq!(revived.centers(), model.centers());
        assert_eq!(revived.cost().to_bits(), model.cost().to_bits());
        assert_eq!(
            revived.init_stats().seed_cost.to_bits(),
            model.init_stats().seed_cost.to_bits()
        );
        assert_eq!(revived.iterations(), model.iterations());
        assert_eq!(revived.converged(), model.converged());
        assert_eq!(revived.init_name(), "kmeans-par");
        assert_eq!(revived.refiner_name(), "lloyd");
        assert!(revived.labels().is_empty());
        // The revived model predicts/costs bit-identically to the source.
        assert_eq!(
            revived.predict(&points).unwrap(),
            model.predict(&points).unwrap()
        );
        assert_eq!(
            revived.cost_of(&points).unwrap().to_bits(),
            model.cost_of(&points).unwrap().to_bits()
        );
    }

    #[test]
    fn unknown_stage_names_collapse_to_loaded() {
        let points = blobs();
        let model = KMeans::params(3)
            .seed(5)
            .parallelism(Parallelism::Sequential)
            .fit(&points)
            .unwrap();
        let mut record = model.to_record();
        record.init_name = "mystery".into();
        record.refiner_name = "mystery".into();
        let revived = KMeansModel::from_record(record, Executor::new(Parallelism::Sequential));
        assert_eq!(revived.init_name(), "loaded");
        assert_eq!(revived.refiner_name(), "loaded");
    }

    #[test]
    fn records_saved_by_the_removed_hamerly_refiner_keep_its_name() {
        let points = blobs();
        let model = KMeans::params(3)
            .seed(5)
            .parallelism(Parallelism::Sequential)
            .fit(&points)
            .unwrap();
        let mut record = model.to_record();
        record.refiner_name = "hamerly".into();
        let revived = KMeansModel::from_record(record, Executor::new(Parallelism::Sequential));
        assert_eq!(revived.refiner_name(), "hamerly");
        assert_eq!(revived.centers(), model.centers());
    }

    #[test]
    fn predict_rejects_wrong_dim() {
        let points = blobs();
        let model = KMeans::params(2)
            .seed(3)
            .parallelism(Parallelism::Sequential)
            .fit(&points)
            .unwrap();
        let wrong = PointMatrix::from_flat(vec![1.0], 1).unwrap();
        assert!(model.predict(&wrong).is_err());
        assert!(model.cost_of(&wrong).is_err());
    }

    #[test]
    fn invalid_k_propagates() {
        let points = blobs();
        assert!(matches!(
            KMeans::params(0).fit(&points),
            Err(KMeansError::InvalidK { .. })
        ));
        assert!(matches!(
            KMeans::params(points.len() + 1).fit(&points),
            Err(KMeansError::InvalidK { .. })
        ));
    }

    #[test]
    fn lloyd_knobs_conflict_with_custom_refiner() {
        let points = blobs();
        let err = KMeans::params(3)
            .max_iterations(5)
            .refine(MiniBatch::default())
            .fit(&points)
            .unwrap_err();
        assert!(matches!(err, KMeansError::InvalidConfig(_)), "{err:?}");
        let err = KMeans::params(3)
            .refine(NoRefine)
            .tol(0.1)
            .fit(&points)
            .unwrap_err();
        assert!(matches!(err, KMeansError::InvalidConfig(_)), "{err:?}");
    }

    #[test]
    fn max_iterations_and_tol_are_plumbed() {
        let points = blobs();
        let model = KMeans::params(3)
            .init(InitMethod::Random)
            .max_iterations(1)
            .seed(4)
            .parallelism(Parallelism::Sequential)
            .fit(&points)
            .unwrap();
        assert_eq!(model.iterations(), 1);
        let model = KMeans::params(3)
            .tol(0.9)
            .seed(4)
            .parallelism(Parallelism::Sequential)
            .fit(&points)
            .unwrap();
        assert!(model.converged());
    }
}
