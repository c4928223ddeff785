//! The pluggable seeding/refinement pipeline: [`Initializer`] and
//! [`Refiner`] traits plus the core implementations of both.
//!
//! The paper's central observation is that seeding and refinement are
//! independent, swappable stages: Tables 1–6 mix k-means||, k-means++,
//! Random and Partition seeds with Lloyd refinement, and §7 asks whether
//! refinement modifications (Sculley's mini-batch \[31]) parallelize as
//! well. This module makes that composition a first-class, object-safe
//! API: any `Initializer` can feed any `Refiner` through the
//! [`KMeans`](crate::model::KMeans) builder.
//!
//! Each stage implements **one** stage method over a [`RoundBackend`]
//! ([`Initializer::init_backend`] / [`Refiner::refine_backend`]); every
//! fit — in-memory, chunked, or distributed — calls exactly that method,
//! and the per-mode entry points (`init`, `init_chunked`, `refine`,
//! `refine_chunked`) are provided adapters that build the backend.
//!
//! Core initializers: [`Random`], [`KMeansPlusPlus`], [`KMeansParallel`],
//! [`AfkMc2`]. The streaming seeders (Partition, coreset tree) implement
//! the same trait from the `kmeans-streaming` crate.
//!
//! Refiners: [`Lloyd`], [`MiniBatch`], and [`NoRefine`] (seed-only — the
//! Table 1/2 "seed cost" studies are `NoRefine` runs). Every refiner
//! returns a unified [`RefineResult`] including a distance-evaluation
//! count.
//!
//! Weighted data rides on resident rows
//! ([`LocalBackend::in_memory`]; `KMeans::weights` plumbs it):
//! `Random`, `KMeansPlusPlus`, `Lloyd` and `NoRefine` honor per-point
//! weights; the remaining algorithms reject weighted input with a typed
//! error rather than silently ignoring it.

use crate::assign::assign_weighted;
use crate::driver::{
    drive_kmeans_parallel, drive_label_pass, drive_lloyd, drive_minibatch, drive_random_init,
    finish_init_backend, BackendKind, LocalBackend, LocalData, RoundBackend,
};
use crate::error::KMeansError;
use crate::init::{
    afk_mc2, kmeanspp, validate, weighted_kmeanspp, InitResult, InitStats, KMeansParallelConfig,
};
use crate::lloyd::{weighted_lloyd_traced, IterationStats, LloydConfig};
use crate::minibatch::MiniBatchConfig;
use kmeans_data::{ChunkedSource, PointMatrix};
use kmeans_par::Executor;
use kmeans_util::sampling::{uniform_distinct, weighted_distinct};
use kmeans_util::timing::Stopwatch;
use kmeans_util::Rng;
use std::fmt;

/// A seeding stage: produces exactly `k` centers (plus accounting) from
/// the data behind a [`RoundBackend`] and a seed.
///
/// Object-safe: the [`KMeans`](crate::model::KMeans) builder stores
/// `Arc<dyn Initializer>`, so implementations can live in other crates
/// (the streaming seeders do).
///
/// ```
/// use kmeans_core::pipeline::{Initializer, KMeansParallel};
/// use kmeans_data::{InMemorySource, PointMatrix};
/// use kmeans_par::Executor;
///
/// let points = PointMatrix::from_flat((0..200).map(f64::from).collect(), 2).unwrap();
/// let exec = Executor::sequential();
/// // In-memory and chunked entry points of the same stage agree bitwise.
/// let seeder = KMeansParallel::default();
/// let mem = seeder.init(&points, None, 4, 7, &exec).unwrap();
/// let source = InMemorySource::new(points, 16).unwrap();
/// let chunked = seeder.init_chunked(&source, 4, 7, &exec).unwrap();
/// assert_eq!(mem.centers, chunked.centers);
/// ```
pub trait Initializer: fmt::Debug + Send + Sync {
    /// Stable lower-case name used in reports and CLI output.
    fn name(&self) -> &'static str;

    /// Runs the seeding over any [`RoundBackend`] — the stage's one
    /// entry point, behind [`KMeans::fit`](crate::model::KMeans::fit),
    /// `fit_chunked` and `fit_distributed` alike. The seed fully
    /// determines the outcome given the executor's shard size (worker
    /// count, block size and backend never matter).
    ///
    /// Stages whose round structure is expressible in the backend
    /// primitives (k-means||, random) run on every execution mode; stages
    /// without one read the data through [`RoundBackend::local`] and
    /// reject the backends it does not serve with the mode-specific
    /// typed error ([`reject_backend`]).
    fn init_backend(
        &self,
        backend: &mut dyn RoundBackend,
        k: usize,
        seed: u64,
    ) -> Result<InitResult, KMeansError>;

    /// Whether [`Initializer::init_backend`] has a realization on the
    /// given backend kind (default: in-memory only). Declarative twin of
    /// `init_backend`'s own rejection behavior (must agree with it) —
    /// frontends use it to fail fast with the stage's typed rejection
    /// *before* any stage touches the backend (so an unsupported refiner
    /// is reported before the seeding runs).
    fn supports_backend(&self, kind: BackendKind) -> bool {
        kind == BackendKind::InMemory
    }

    /// Runs the seeding on a resident matrix with optional per-point
    /// weights. Provided: [`Initializer::init_backend`] on
    /// [`LocalBackend::in_memory`].
    fn init(
        &self,
        points: &PointMatrix,
        weights: Option<&[f64]>,
        k: usize,
        seed: u64,
        exec: &Executor,
    ) -> Result<InitResult, KMeansError> {
        let mut backend = LocalBackend::in_memory(points, weights, exec);
        self.init_backend(&mut backend, k, seed)
    }

    /// Runs the seeding over a block-resident [`ChunkedSource`].
    /// Provided: [`Initializer::init_backend`] on
    /// [`LocalBackend::chunked`].
    fn init_chunked(
        &self,
        source: &dyn ChunkedSource,
        k: usize,
        seed: u64,
        exec: &Executor,
    ) -> Result<InitResult, KMeansError> {
        self.init_backend(&mut LocalBackend::chunked(source, exec), k, seed)
    }
}

/// A refinement stage: improves a set of seed centers over the dataset.
pub trait Refiner: fmt::Debug + Send + Sync {
    /// Stable lower-case name used in reports and CLI output.
    fn name(&self) -> &'static str;

    /// Runs the refinement from `centers` over any [`RoundBackend`] —
    /// the stage's one entry point (see [`Initializer::init_backend`]
    /// for the contract).
    fn refine_backend(
        &self,
        backend: &mut dyn RoundBackend,
        centers: &PointMatrix,
        seed: u64,
    ) -> Result<RefineResult, KMeansError>;

    /// Whether [`Refiner::refine_backend`] has a realization on the
    /// given backend kind — see [`Initializer::supports_backend`] for
    /// the contract.
    fn supports_backend(&self, kind: BackendKind) -> bool {
        kind == BackendKind::InMemory
    }

    /// Runs the refinement on a resident matrix with optional per-point
    /// weights. Provided: [`Refiner::refine_backend`] on
    /// [`LocalBackend::in_memory`].
    fn refine(
        &self,
        points: &PointMatrix,
        weights: Option<&[f64]>,
        centers: &PointMatrix,
        seed: u64,
        exec: &Executor,
    ) -> Result<RefineResult, KMeansError> {
        let mut backend = LocalBackend::in_memory(points, weights, exec);
        self.refine_backend(&mut backend, centers, seed)
    }

    /// Runs the refinement over a block-resident [`ChunkedSource`] (one
    /// scan per Lloyd iteration, gathered batches for mini-batch).
    /// Provided: [`Refiner::refine_backend`] on [`LocalBackend::chunked`].
    fn refine_chunked(
        &self,
        source: &dyn ChunkedSource,
        centers: &PointMatrix,
        seed: u64,
        exec: &Executor,
    ) -> Result<RefineResult, KMeansError> {
        self.refine_backend(&mut LocalBackend::chunked(source, exec), centers, seed)
    }
}

/// Typed rejection for stages without an out-of-core formulation (AFK-MC²'s
/// Markov chain wants resident random access) — shared so the error text
/// stays uniform across crates.
pub fn reject_chunked(name: &str) -> KMeansError {
    KMeansError::InvalidConfig(format!("{name} does not support chunked data sources"))
}

/// Typed rejection for stages without a distributed formulation (the same
/// fail-loudly contract as [`reject_chunked`], used when a builder stage
/// has no realization on a worker-cluster backend).
pub fn reject_distributed(name: &str) -> KMeansError {
    KMeansError::InvalidConfig(format!("{name} does not support distributed execution"))
}

/// Typed rejection for a stage without a formulation on the given
/// execution mode — dispatches to that mode's established error text
/// ([`reject_chunked`] / [`reject_distributed`]).
pub fn reject_backend(name: &str, kind: BackendKind) -> KMeansError {
    match kind {
        BackendKind::InMemory => {
            KMeansError::InvalidConfig(format!("{name} does not support in-memory data"))
        }
        BackendKind::Chunked => reject_chunked(name),
        BackendKind::Distributed => reject_distributed(name),
    }
}

/// Unified outcome of any [`Refiner`].
#[derive(Clone, Debug)]
pub struct RefineResult {
    /// Final centers.
    pub centers: PointMatrix,
    /// Final assignment (consistent with `centers`).
    pub labels: Vec<u32>,
    /// Final potential; weighted `Σ wᵢ·d²ᵢ` when weights were given.
    pub cost: f64,
    /// Refinement iterations executed (0 for [`NoRefine`]).
    pub iterations: usize,
    /// Whether the refiner reached its own convergence criterion (always
    /// `true` for [`NoRefine`], always `false` for the fixed-budget
    /// [`MiniBatch`]).
    pub converged: bool,
    /// Per-iteration history where the refiner tracks one (plain Lloyd);
    /// empty otherwise.
    pub history: Vec<IterationStats>,
    /// Point-to-center distance evaluations, analytic: `n·k` per
    /// assignment pass (the closing labeling pass included) plus
    /// `batch·k` per mini-batch step.
    pub distance_computations: u64,
    /// Point–center pairs the batch assignment kernel skipped via its
    /// exact `O(1)` lower bounds (the norm bound `(‖x‖−‖c‖)²` and the
    /// coordinate gaps, wholesale sorted-sweep stops included) — the
    /// pruning observable, next to `distance_computations`. Measured
    /// wherever the refiner runs on the kernel ([`Lloyd`], [`MiniBatch`],
    /// [`NoRefine`] — on every backend, the distributed one included,
    /// whose workers ship their counters in the partials frames); 0 on
    /// the sequential weighted paths.
    pub pruned_by_norm_bound: u64,
}

/// Validates an optional weight vector against the dataset.
pub(crate) fn validate_weights(
    points: &PointMatrix,
    weights: Option<&[f64]>,
) -> Result<(), KMeansError> {
    let Some(w) = weights else { return Ok(()) };
    if w.len() != points.len() {
        return Err(KMeansError::InvalidConfig(format!(
            "{} weights for {} points",
            w.len(),
            points.len()
        )));
    }
    if w.iter().any(|x| !x.is_finite() || *x < 0.0) {
        return Err(KMeansError::InvalidConfig(
            "weights must be finite and non-negative".into(),
        ));
    }
    Ok(())
}

/// The per-point weights a backend carries — `Some` only on a weighted
/// [`LocalBackend::in_memory`].
pub(crate) fn backend_weights(backend: &dyn RoundBackend) -> Option<&[f64]> {
    backend.local().and_then(|(data, _)| data.weights())
}

/// Typed rejection for algorithms without a weighted formulation —
/// shared by every `Initializer`/`Refiner` (the streaming adapters
/// included) so the error text stays uniform.
pub fn reject_weights(name: &str, weights: Option<&[f64]>) -> Result<(), KMeansError> {
    if weights.is_some() {
        return Err(KMeansError::InvalidConfig(format!(
            "{name} does not support weighted input"
        )));
    }
    Ok(())
}

// ---------------------------------------------------------------------------
// Initializers
// ---------------------------------------------------------------------------

/// Uniform seeding: `k` distinct points chosen uniformly at random (or
/// weight-proportionally, without replacement, on weighted data).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct Random;

impl Initializer for Random {
    fn name(&self) -> &'static str {
        "random"
    }

    fn supports_backend(&self, _kind: BackendKind) -> bool {
        true
    }

    fn init_backend(
        &self,
        backend: &mut dyn RoundBackend,
        k: usize,
        seed: u64,
    ) -> Result<InitResult, KMeansError> {
        let sw = Stopwatch::start();
        let (centers, stats) = match backend.local() {
            Some((
                LocalData::Resident {
                    points,
                    weights: Some(w),
                },
                _,
            )) => {
                validate(points, k)?;
                validate_weights(points, Some(w))?;
                let mut rng = Rng::derive(seed, &[20]);
                // Weight-proportional sampling without replacement; if
                // fewer than k points carry positive weight, top up
                // uniformly from the zero-weight remainder.
                let mut sel = weighted_distinct(w, k, &mut rng);
                if sel.len() < k {
                    let taken: std::collections::BTreeSet<usize> = sel.iter().copied().collect();
                    let rest: Vec<usize> =
                        (0..points.len()).filter(|i| !taken.contains(i)).collect();
                    for j in uniform_distinct(rest.len(), k - sel.len(), &mut rng) {
                        sel.push(rest[j]);
                    }
                }
                let stats = InitStats {
                    rounds: 0,
                    passes: 1,
                    candidates: k,
                    ..InitStats::default()
                };
                (points.select(&sel), stats)
            }
            _ => drive_random_init(backend, k, seed)?,
        };
        finish_init_backend(backend, centers, stats, sw)
    }
}

/// Algorithm 1 (Arthur & Vassilvitskii 2007): sequential D²-weighted
/// seeding; the weighted form is Step 8 of Algorithm 2.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct KMeansPlusPlus;

impl Initializer for KMeansPlusPlus {
    fn name(&self) -> &'static str {
        "kmeans++"
    }

    fn supports_backend(&self, kind: BackendKind) -> bool {
        kind != BackendKind::Distributed
    }

    fn init_backend(
        &self,
        backend: &mut dyn RoundBackend,
        k: usize,
        seed: u64,
    ) -> Result<InitResult, KMeansError> {
        // Algorithm 1 draws each center from a global sequential D²
        // distribution — k dependent rounds over the resident d² array.
        // That streams fine block by block, but has no per-round
        // decomposition a remote backend could serve cheaply (the
        // paper's point), so it runs on local data only.
        let sw = Stopwatch::start();
        let mut rng = Rng::derive(seed, &[21]);
        let centers = match backend.local() {
            Some((
                LocalData::Resident {
                    points,
                    weights: Some(w),
                },
                _,
            )) => {
                validate(points, k)?;
                validate_weights(points, Some(w))?;
                weighted_kmeanspp(points, w, k, &mut rng)?
            }
            Some((data, exec)) => kmeanspp(data, k, &mut rng, exec)?,
            None => return Err(reject_backend(self.name(), backend.kind())),
        };
        let stats = InitStats {
            rounds: k.saturating_sub(1),
            passes: k,
            candidates: k,
            ..InitStats::default()
        };
        finish_init_backend(backend, centers, stats, sw)
    }
}

/// Algorithm 2 — **k-means||**: parallel oversampling + reclustering.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct KMeansParallel(pub KMeansParallelConfig);

impl Initializer for KMeansParallel {
    fn name(&self) -> &'static str {
        "kmeans-par"
    }

    fn supports_backend(&self, _kind: BackendKind) -> bool {
        true
    }

    fn init_backend(
        &self,
        backend: &mut dyn RoundBackend,
        k: usize,
        seed: u64,
    ) -> Result<InitResult, KMeansError> {
        if let Some(w) = backend_weights(backend) {
            // k is checked first, as every seeder reports it.
            backend.validate(k)?;
            reject_weights("k-means||", Some(w))?;
        }
        let sw = Stopwatch::start();
        let (centers, stats) = drive_kmeans_parallel(backend, k, &self.0, seed)?;
        finish_init_backend(backend, centers, stats, sw)
    }
}

/// AFK-MC² seeding (Bachem et al., NIPS 2016): Markov-chain approximation
/// of the D² distribution after a single preprocessing pass.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct AfkMc2 {
    /// Markov-chain length `m` per drawn center (authors recommend the
    /// low hundreds).
    pub chain_length: usize,
}

impl Default for AfkMc2 {
    fn default() -> Self {
        AfkMc2 { chain_length: 200 }
    }
}

impl Initializer for AfkMc2 {
    fn name(&self) -> &'static str {
        "afk-mc2"
    }

    fn init_backend(
        &self,
        backend: &mut dyn RoundBackend,
        k: usize,
        seed: u64,
    ) -> Result<InitResult, KMeansError> {
        // The chain wants resident random access to every row.
        let Some((data @ LocalData::Resident { points, weights }, exec)) = backend.local() else {
            return Err(reject_backend(self.name(), backend.kind()));
        };
        // Shapes only: `afk_mc2` scans for non-finite rows itself.
        data.validate(k)?;
        reject_weights("afk-mc2", weights)?;
        let sw = Stopwatch::start();
        let mut rng = Rng::derive(seed, &[22]);
        let centers = afk_mc2(points, k, self.chain_length, &mut rng, exec)?;
        let stats = InitStats {
            rounds: k.saturating_sub(1),
            passes: 1, // one proposal pass; the chain never rescans the data
            candidates: k,
            ..InitStats::default()
        };
        finish_init_backend(backend, centers, stats, sw)
    }
}

// ---------------------------------------------------------------------------
// Refiners
// ---------------------------------------------------------------------------

/// Lloyd's iteration (§3.1), the paper's refinement stage. Honors
/// per-point weights via the weighted centroid update.
///
/// Empty-cluster semantics differ by branch, inherited from the
/// pre-pipeline entry points (parity with which is a test contract):
/// the unweighted branch reseeds an emptied cluster onto the farthest
/// point, while the weighted branch — like
/// [`weighted_lloyd`](crate::lloyd::weighted_lloyd), which it reproduces
/// bit-for-bit — keeps the previous center in place.
#[derive(Clone, Copy, Debug, Default, PartialEq)]
pub struct Lloyd(pub LloydConfig);

impl Refiner for Lloyd {
    fn name(&self) -> &'static str {
        "lloyd"
    }

    fn supports_backend(&self, _kind: BackendKind) -> bool {
        true
    }

    fn refine_backend(
        &self,
        backend: &mut dyn RoundBackend,
        centers: &PointMatrix,
        _seed: u64,
    ) -> Result<RefineResult, KMeansError> {
        let n = backend.len() as u64;
        let k = centers.len() as u64;
        if let Some((
            LocalData::Resident {
                points,
                weights: Some(w),
            },
            _,
        )) = backend.local()
        {
            validate_weights(points, Some(w))?;
            self.0.validate()?;
            LocalData::from(points).validate_refine(centers)?;
            let trace = weighted_lloyd_traced(
                points,
                w,
                centers.clone(),
                self.0.max_iterations,
                self.0.tol,
            );
            // On a stable exit the trace's last pass already produced
            // (labels, cost) for the final centers; otherwise one
            // closing relabel pass is needed (and counted).
            let (labels, cost, closing) = match trace.stable {
                Some((labels, cost)) => (labels, cost, 0),
                None => {
                    let (labels, _sums, _wsum, cost) = assign_weighted(points, w, &trace.centers);
                    (labels, cost, 1)
                }
            };
            return Ok(RefineResult {
                centers: trace.centers,
                labels,
                cost,
                // Match unweighted lloyd()'s convention (history.len()):
                // every in-loop assignment pass counts as an iteration,
                // the stability-detecting no-op pass included.
                iterations: trace.assign_passes,
                converged: trace.converged,
                history: Vec::new(),
                distance_computations: n * k * (trace.assign_passes as u64 + closing),
                // The weighted kernels are sequential scalar code on
                // candidate-set-sized data; no norm pruning there.
                pruned_by_norm_bound: 0,
            });
        }
        let r = drive_lloyd(backend, centers, &self.0)?;
        Ok(RefineResult {
            distance_computations: n * k * r.assign_passes as u64,
            pruned_by_norm_bound: r.pruned_by_norm_bound,
            centers: r.centers,
            labels: r.labels,
            cost: r.cost,
            iterations: r.iterations,
            converged: r.converged,
            history: r.history,
        })
    }
}

/// Sculley's mini-batch k-means (WWW 2010; the paper's reference \[31]) —
/// a fixed budget of small-batch gradient steps.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct MiniBatch(pub MiniBatchConfig);

impl Refiner for MiniBatch {
    fn name(&self) -> &'static str {
        "minibatch"
    }

    fn supports_backend(&self, _kind: BackendKind) -> bool {
        true
    }

    fn refine_backend(
        &self,
        backend: &mut dyn RoundBackend,
        centers: &PointMatrix,
        seed: u64,
    ) -> Result<RefineResult, KMeansError> {
        reject_weights("minibatch", backend_weights(backend))?;
        let n = backend.len() as u64;
        let k = centers.len() as u64;
        let (refined, batch_stats) = drive_minibatch(backend, centers, &self.0, seed)?;
        let (labels, cost, label_stats) = drive_label_pass(backend, &refined)?;
        Ok(RefineResult {
            centers: refined,
            labels,
            cost,
            iterations: self.0.iterations,
            converged: false, // fixed budget; no convergence test
            history: Vec::new(),
            distance_computations: (self.0.batch_size * self.0.iterations) as u64 * k + n * k,
            pruned_by_norm_bound: batch_stats.pruned_by_norm_bound
                + label_stats.pruned_by_norm_bound,
        })
    }
}

/// The identity refiner: keeps the seed centers and only labels the data —
/// the refiner behind seed-cost studies (Tables 1–2 "seed" columns).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct NoRefine;

impl Refiner for NoRefine {
    fn name(&self) -> &'static str {
        "none"
    }

    fn supports_backend(&self, _kind: BackendKind) -> bool {
        true
    }

    fn refine_backend(
        &self,
        backend: &mut dyn RoundBackend,
        centers: &PointMatrix,
        _seed: u64,
    ) -> Result<RefineResult, KMeansError> {
        let n = backend.len() as u64;
        let (labels, cost, pruned) = match backend.local() {
            Some((
                LocalData::Resident {
                    points,
                    weights: Some(w),
                },
                _,
            )) => {
                validate_weights(points, Some(w))?;
                LocalData::from(points).validate_refine(centers)?;
                let (labels, _sums, _wsum, cost) = assign_weighted(points, w, centers);
                (labels, cost, 0)
            }
            _ => {
                let (labels, cost, stats) = drive_label_pass(backend, centers)?;
                (labels, cost, stats.pruned_by_norm_bound)
            }
        };
        Ok(RefineResult {
            centers: centers.clone(),
            labels,
            cost,
            iterations: 0,
            converged: true,
            history: Vec::new(),
            distance_computations: n * centers.len() as u64,
            pruned_by_norm_bound: pruned,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cost::potential;
    use kmeans_par::Parallelism;

    fn blobs() -> PointMatrix {
        let mut m = PointMatrix::new(2);
        for (cx, cy) in [(0.0, 0.0), (30.0, 0.0), (0.0, 30.0)] {
            for i in 0..40 {
                m.push(&[cx + (i % 8) as f64 * 0.1, cy + (i / 8) as f64 * 0.1])
                    .unwrap();
            }
        }
        m
    }

    fn initializers() -> Vec<Box<dyn Initializer>> {
        vec![
            Box::new(Random),
            Box::new(KMeansPlusPlus),
            Box::new(KMeansParallel::default()),
            Box::new(AfkMc2 { chain_length: 20 }),
        ]
    }

    fn refiners() -> Vec<Box<dyn Refiner>> {
        vec![
            Box::new(Lloyd::default()),
            Box::new(MiniBatch(MiniBatchConfig {
                batch_size: 32,
                iterations: 40,
            })),
            Box::new(NoRefine),
        ]
    }

    #[test]
    fn every_initializer_returns_k_centers_with_stats() {
        let points = blobs();
        let exec = Executor::sequential();
        for init in initializers() {
            let r = init.init(&points, None, 3, 7, &exec).unwrap();
            assert_eq!(r.centers.len(), 3, "{init:?}");
            assert!(r.stats.seed_cost >= 0.0);
            assert!(r.stats.passes >= 1, "{init:?}");
        }
    }

    #[test]
    fn every_refiner_is_cost_consistent() {
        let points = blobs();
        let exec = Executor::sequential();
        let seed = KMeansPlusPlus.init(&points, None, 3, 1, &exec).unwrap();
        for refiner in refiners() {
            let r = refiner
                .refine(&points, None, &seed.centers, 1, &exec)
                .unwrap();
            assert_eq!(r.centers.len(), 3, "{refiner:?}");
            assert_eq!(r.labels.len(), points.len());
            assert!(r.cost.is_finite() && r.cost >= 0.0);
            assert!(r.distance_computations > 0, "{refiner:?}");
            // Reported cost matches an exact recomputation.
            let direct = potential(&points, &r.centers, &exec);
            assert!(
                (r.cost - direct).abs() <= 1e-9 * (1.0 + direct),
                "{refiner:?}: {} vs {}",
                r.cost,
                direct
            );
        }
    }

    #[test]
    fn no_refine_keeps_seed_centers_and_cost() {
        let points = blobs();
        let exec = Executor::sequential();
        let seed = Random.init(&points, None, 3, 5, &exec).unwrap();
        let r = NoRefine
            .refine(&points, None, &seed.centers, 5, &exec)
            .unwrap();
        assert_eq!(r.centers, seed.centers);
        assert_eq!(r.iterations, 0);
        assert!(r.converged);
        assert!((r.cost - seed.stats.seed_cost).abs() <= 1e-9 * (1.0 + r.cost));
    }

    #[test]
    fn weighted_support_matrix_is_honest() {
        let points = blobs();
        let w = vec![1.0; points.len()];
        let exec = Executor::sequential();
        // Supported paths succeed.
        assert!(Random.init(&points, Some(&w), 3, 1, &exec).is_ok());
        assert!(KMeansPlusPlus.init(&points, Some(&w), 3, 1, &exec).is_ok());
        let seed = KMeansPlusPlus.init(&points, Some(&w), 3, 1, &exec).unwrap();
        assert!(Lloyd::default()
            .refine(&points, Some(&w), &seed.centers, 1, &exec)
            .is_ok());
        assert!(NoRefine
            .refine(&points, Some(&w), &seed.centers, 1, &exec)
            .is_ok());
        // Unsupported paths reject with a typed error.
        for result in [
            KMeansParallel::default()
                .init(&points, Some(&w), 3, 1, &exec)
                .err(),
            AfkMc2::default().init(&points, Some(&w), 3, 1, &exec).err(),
            MiniBatch::default()
                .refine(&points, Some(&w), &seed.centers, 1, &exec)
                .err(),
        ] {
            assert!(matches!(result, Some(KMeansError::InvalidConfig(_))));
        }
    }

    #[test]
    fn uniform_weights_match_unweighted_potential() {
        // Weighted fit with all-ones weights must report the same cost
        // scale as the unweighted potential.
        let points = blobs();
        let w = vec![1.0; points.len()];
        let exec = Executor::sequential();
        let seed = KMeansPlusPlus.init(&points, Some(&w), 3, 3, &exec).unwrap();
        let direct = potential(&points, &seed.centers, &exec);
        assert!((seed.stats.seed_cost - direct).abs() <= 1e-9 * (1.0 + direct));
    }

    #[test]
    fn weighted_random_top_up_covers_zero_weight_data() {
        // Only 2 positive-weight points but k = 4: top-up must fill in.
        let points = PointMatrix::from_flat((0..12).map(|i| i as f64).collect(), 1).unwrap();
        let mut w = vec![0.0; 12];
        w[3] = 1.0;
        w[8] = 2.0;
        let exec = Executor::sequential();
        let r = Random.init(&points, Some(&w), 4, 9, &exec).unwrap();
        assert_eq!(r.centers.len(), 4);
        // The two positive-weight points are always selected.
        for v in [3.0, 8.0] {
            assert!(r.centers.rows().any(|row| row[0] == v), "missing {v}");
        }
    }

    #[test]
    fn weighted_lloyd_validates_config_like_unweighted() {
        let points = blobs();
        let w = vec![1.0; points.len()];
        let exec = Executor::sequential();
        let seed = KMeansPlusPlus.init(&points, None, 3, 1, &exec).unwrap();
        let bad = Lloyd(LloydConfig {
            max_iterations: 0,
            tol: 0.0,
        });
        for weights in [None, Some(w.as_slice())] {
            assert!(
                matches!(
                    bad.refine(&points, weights, &seed.centers, 1, &exec),
                    Err(KMeansError::InvalidConfig(_))
                ),
                "weights: {weights:?}"
            );
        }
        let bad_tol = Lloyd(LloydConfig {
            max_iterations: 10,
            tol: -1.0,
        });
        assert!(bad_tol
            .refine(&points, Some(&w), &seed.centers, 1, &exec)
            .is_err());
    }

    #[test]
    fn tol_stop_reports_final_center_cost_through_refiner() {
        // Regression: the refiner's reported cost must match an exact
        // recomputation on the returned centers even when `tol` (not
        // assignment stability) ends the run.
        let points = blobs();
        let exec = Executor::sequential();
        let seed = Random.init(&points, None, 3, 2, &exec).unwrap();
        let eager = Lloyd(LloydConfig {
            max_iterations: 100,
            tol: 1.0,
        });
        let w = vec![1.0; points.len()];
        for weights in [None, Some(w.as_slice())] {
            let r = eager
                .refine(&points, weights, &seed.centers, 2, &exec)
                .unwrap();
            assert!(r.converged, "weights: {weights:?}");
            let direct = potential(&points, &r.centers, &exec);
            assert!(
                (r.cost - direct).abs() <= 1e-9 * (1.0 + direct),
                "weights {weights:?}: reported {} vs recomputed {}",
                r.cost,
                direct
            );
        }
    }

    #[test]
    fn bad_weights_are_rejected_everywhere() {
        let points = blobs();
        let exec = Executor::sequential();
        let short = vec![1.0; 3];
        let negative = vec![-1.0; points.len()];
        for w in [&short, &negative] {
            assert!(Random.init(&points, Some(w), 3, 0, &exec).is_err());
            assert!(KMeansPlusPlus.init(&points, Some(w), 3, 0, &exec).is_err());
        }
    }

    #[test]
    fn refiners_are_thread_count_invariant() {
        let points = blobs();
        let seed = KMeansPlusPlus
            .init(&points, None, 3, 4, &Executor::sequential())
            .unwrap();
        for refiner in refiners() {
            let run = |par: Parallelism| {
                let exec = Executor::new(par).with_shard_size(32);
                refiner
                    .refine(&points, None, &seed.centers, 4, &exec)
                    .unwrap()
            };
            let a = run(Parallelism::Sequential);
            let b = run(Parallelism::Threads(3));
            assert_eq!(a.labels, b.labels, "{refiner:?}");
            assert_eq!(a.centers, b.centers, "{refiner:?}");
            assert_eq!(a.cost.to_bits(), b.cost.to_bits(), "{refiner:?}");
        }
    }
}
