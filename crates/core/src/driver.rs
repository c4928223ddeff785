//! The backend-generic round drivers: **one** implementation of each of
//! the paper's data-parallel algorithms, executable on any
//! [`RoundBackend`].
//!
//! The paper's algorithms are defined as sequences of data-parallel
//! rounds — broadcast the new candidates, sample by D², fold partial
//! sums — and before this module the workspace carried three
//! hand-synchronized copies of each: the in-memory originals, their
//! `_chunked` twins, and the coordinator loops in `kmeans-cluster`
//! (which PR 3 documented as mirroring the chunked twins "line for
//! line"). [`RoundBackend`] captures the rounds those three execution
//! modes share as five round-level calls (`gather_rows`, `preload_rows`,
//! `tracker_round`, `assign`, `potential`), in the spirit of the MPC
//! round-primitive formulation of k-means (Jiang et al.), so each
//! algorithm's round logic now exists in exactly one function:
//!
//! * [`drive_kmeans_parallel`] — Algorithm 2 (k-means\|\|),
//! * [`drive_random_init`] — uniform seeding,
//! * [`drive_lloyd`] — Lloyd's iteration (§3.1),
//! * [`drive_minibatch`] — Sculley's mini-batch k-means,
//! * [`drive_label_pass`] — one labeling/cost pass (seed-only studies).
//!
//! Backends:
//!
//! * [`LocalBackend`] — local data: resident rows (optionally with
//!   per-point weights; behind [`KMeans::fit`](crate::model::KMeans::fit)
//!   and the in-memory entry points `kmeans_parallel`, `lloyd`,
//!   `minibatch_kmeans`) or a block-resident [`ChunkedSource`] (behind
//!   [`KMeans::fit_chunked`](crate::model::KMeans::fit_chunked)). Both
//!   kinds run the same local passes ([`crate::chunked`]): resident rows
//!   are one block, lent, so every local pass exists once.
//! * `Cluster` (in `kmeans-cluster`) — a coordinator's worker cluster
//!   speaking the SKW wire protocol; each worker serves one
//!   [`LocalBackend::part`] over its rows.
//!
//! **One part, one fold.** Each round-level call has a *part half* — a
//! [`LocalBackend`] method over one range of rows (`broadcast_part`,
//! `read_part`, `assign_part`, `potential_part`, `gather_part`) that
//! returns exactly the partials a worker ships — and a *fold half* that
//! merges parts in row order ([`fold_tracker_round`], [`fold_assign`],
//! [`fold_shard_sums`]). `LocalBackend`'s rounds are its one part, then
//! the fold; a worker serves its part's halves over the wire, and the
//! coordinator folds the decoded parts with the same functions.
//!
//! **Bit-parity contract.** A driver's outcome is a pure function of
//! `(data, k, config, seed, executor shard size)` — never of the
//! backend. Three clauses make that structural (`tests/driver_parity.rs`
//! pins it over a backend × block-size × worker-count × thread grid):
//!
//! 1. Per-point arithmetic (tracker updates, nearest-center scans,
//!    centroid contributions) is order-insensitive, so each backend
//!    computes it with whatever parallelism and blocking it has.
//! 2. Order-sensitive *scalar* decisions (first center, top-up draws,
//!    the Step 8 recluster, mini-batch index draws) run **here**, on the
//!    driver side, on the same RNG streams for every backend (tags
//!    20/21/30/40; per-shard sampling tags 31/32 are derived from
//!    *global* shard indices inside the parts).
//! 3. Order-sensitive *folds* are the fold functions above, one for every
//!    backend: parts only ever produce per-shard partials of the global
//!    shard grid, and the fold is a shard-ordered left fold over them —
//!    one part's partials locally, the concatenation of every worker's
//!    on a cluster.

use crate::assign::ClusterSums;
use crate::chunked::{
    assign_pass, fold_accum_shards, refine_pass, validate_shape, AccumShard, Hints, Keep,
    Refinement,
};
use crate::cost::{
    check_potential_centers, fold_shard_sums, seeded_shard_sums, weighted_potential, CostTracker,
};
use crate::distance::sq_dist;
use crate::error::KMeansError;
use crate::init::weighted_kmeanspp;
use crate::init::{
    bernoulli_accept, exact_sample_keys, exact_sample_merge, sample_bernoulli_prescreen,
    InitResult, InitStats, KMeansParallelConfig, Recluster, Rounds, SamplingMode, TopUp,
};
use crate::kernel::{AssignKernel, KernelStats};
use crate::lloyd::{IterationStats, LloydConfig, LloydResult};
use crate::minibatch::MiniBatchConfig;
use kmeans_data::{ChunkedSource, PointMatrix};
use kmeans_par::Executor;
use kmeans_util::sampling::uniform_distinct;
use kmeans_util::timing::Stopwatch;
use kmeans_util::Rng;

pub use crate::chunked::LocalData;

/// Which execution mode a [`RoundBackend`] represents — used only for
/// typed rejections (stages without a formulation on that mode) and
/// reporting, never for algorithmic decisions.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum BackendKind {
    /// A resident [`PointMatrix`].
    InMemory,
    /// A single-node block-resident [`ChunkedSource`].
    Chunked,
    /// A coordinator's view of a worker cluster.
    Distributed,
}

impl BackendKind {
    /// Stable lower-case name for reports.
    pub fn name(self) -> &'static str {
        match self {
            BackendKind::InMemory => "in-memory",
            BackendKind::Chunked => "chunked",
            BackendKind::Distributed => "distributed",
        }
    }
}

/// Which Step 4 sample a tracker round reads (see [`TrackerRead::Sample`]).
#[derive(Clone, Copy, Debug, PartialEq)]
pub enum SampleSpec {
    /// Line 4 verbatim: independent Bernoulli draws with
    /// `p = min(1, ℓ·d²/φ)`.
    Bernoulli {
        /// Oversampling ℓ.
        l: f64,
    },
    /// §5.3 exact-ℓ: per-shard Efraimidis–Spirakis top-`m` keys, merged
    /// globally by the driver.
    ExactKeys {
        /// Global sample size `m`.
        m: usize,
    },
}

/// What a tracker round broadcasts (see [`RoundBackend::tracker_round`]).
#[derive(Clone, Copy, Debug)]
pub enum Broadcast<'a> {
    /// An initial candidate set: (re)builds the backend's `d²`/nearest
    /// tracker state.
    Init(&'a PointMatrix),
    /// Newly appended candidates only. May be empty (a dry round, or a
    /// read with nothing new to broadcast): the tracker and φ stay as
    /// they are.
    Update {
        /// Index of the first new candidate.
        from: usize,
        /// The new candidate rows.
        rows: &'a PointMatrix,
    },
}

/// What a tracker round reads from the tracker its broadcast left behind.
#[derive(Clone, Copy, Debug, PartialEq)]
pub enum TrackerRead {
    /// Nothing but φ.
    Nothing,
    /// The Step 4 sample for `round`, drawn against the updated tracker.
    /// Per-shard streams (tags 31/32) are derived per `(seed, round,
    /// shard)` with **global** shard indices, never carried across
    /// rounds, so the driver may discard a sample it speculated on.
    Sample {
        /// Round index (part of the RNG stream derivation).
        round: usize,
        /// Base seed.
        seed: u64,
        /// Bernoulli or exact-ℓ.
        spec: SampleSpec,
    },
    /// Step 7: candidate weights, a histogram over the tracked nearest
    /// ids (`m` = candidate count, cross-checked by remote backends).
    Weights {
        /// Candidate count after the broadcast.
        m: usize,
    },
    /// The full `d²` array in global row order — the one-shot O(n)
    /// transfer behind the D² top-up (taken only when `r·ℓ < k`
    /// under-sampled).
    D2,
}

/// What a tracker round read, matching its [`TrackerRead`].
#[derive(Clone, Debug)]
pub enum TrackerOut {
    /// [`TrackerRead::Nothing`].
    Nothing,
    /// A Bernoulli sample: ascending global indices plus their rows.
    Picked {
        /// Global row indices, ascending.
        indices: Vec<usize>,
        /// The corresponding rows, in the same order.
        rows: PointMatrix,
    },
    /// Exact-ℓ keys `(key, global index)` — the driver merges them with
    /// [`exact_sample_merge`] and gathers the winners' rows.
    Keys(Vec<(f64, usize)>),
    /// Step 7's candidate weights.
    Weights(Vec<f64>),
    /// The `d²` array.
    D2(Vec<f64>),
}

/// Whether an assignment pass ([`RoundBackend::assign`]) also returns
/// the labels it found, and what kind of pass it is: *full* (`Skip`,
/// `Always`) or *bounded* (`Bounded`). Distributed `Assign` requests
/// carry it on the wire too, so a worker runs the same kind of pass and
/// decides with the same [`LabelFetch::owed`].
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub enum LabelFetch {
    /// Labels stay backend-resident. A full pass that leaves the bounds
    /// a `Bounded` pass starts from (Lloyd's first pass, one after a pass
    /// that left a cluster empty, and the repeat of a bounded pass that
    /// emptied one).
    #[default]
    Skip,
    /// Labels stay backend-resident, and the pass is bounded: it starts
    /// from the bounds the backend's last pass left, which must be a
    /// `Skip` or `Bounded` pass at as many centers — a backend without
    /// them refuses the pass (Lloyd's passes after the first).
    Bounded,
    /// A labels-and-cost pass (Lloyd's closing pass, mini-batch's
    /// relabel, seed-only labelling): it returns the labels and the
    /// potential of `centers` alone — no sums, counts or farthest points —
    /// and leaves the backend neither labels nor bounds. It settles rows
    /// on the bounds of the backend's last pass where that pass left them
    /// at as many centers, as a bounded pass does, and evaluates each row
    /// once where the backend's labels were found at bit-equal centers.
    Always,
}

impl LabelFetch {
    /// Whether the pass owes its labels.
    pub fn owed(self) -> bool {
        self == LabelFetch::Always
    }
}

/// The round-level calls shared by the in-memory, chunked, and
/// distributed execution modes: one call is one data-parallel round (one
/// request/reply cycle per worker on a cluster). Every backend computes a
/// call as parts of the global rows folded by the one fold of this module
/// (module docs); every scalar RNG decision lives in the drivers.
///
/// State carried between calls: the D²/nearest tracker built by a
/// [`Broadcast::Init`] round lives until the seed-cost
/// [`RoundBackend::potential`] or the next [`RoundBackend::assign`] pass
/// frees it (a fit's seeding and refinement share one backend). The
/// potential that frees it keeps each row's label at its centers, and
/// so does every `Skip` or `Bounded` pass, with the bounds and shard sums
/// a `Bounded` pass starts from; an [`LabelFetch::Always`] pass hands
/// the labels out and frees them and the bounds. Labels seed the next
/// pass at new centers, and a pass at the centers they were found at
/// needs no search. While the tracker lives, it seeds the passes at new
/// centers — the potential and a first `assign` — at the center nearest
/// each row's tracked candidate. Seeds move only the kernel counters and
/// the time, never a result bit.
pub trait RoundBackend {
    /// Which execution mode this backend is (for typed rejections).
    fn kind(&self) -> BackendKind;

    /// Total number of rows.
    fn len(&self) -> usize;

    /// Whether the backend serves no rows.
    fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Row dimensionality.
    fn dim(&self) -> usize;

    /// The local data (and the executor its passes run on) behind this
    /// backend, when it has any — `None` for remote backends. Stages
    /// without a round formulation (k-means++'s sequential D² draws,
    /// AFK-MC², the streaming Partition/coreset seeders) and the weighted
    /// arms of the stages that honor weights read the data through this
    /// and reject the backends it does not serve with a typed error.
    fn local(&self) -> Option<(LocalData<'_>, &Executor)> {
        None
    }

    /// Validates the shape of the seeding input for `k` clusters
    /// (non-empty data, `1 ≤ k ≤ n`; [`validate_shape`] over
    /// [`RoundBackend::len`] and [`RoundBackend::dim`]). Finiteness is
    /// not checked here: every backend checks it in its first full pass
    /// over the data — resident rows and blocks alike, from the pass's own
    /// sums (see [`crate::cost`]) — and reports the first non-finite
    /// coordinate in row order as the same global `NonFiniteData` index.
    fn validate(&self, k: usize) -> Result<(), KMeansError> {
        validate_shape(self.len(), self.dim(), k, self.dim())
    }

    /// Validates the refinement input contract (non-empty data,
    /// `1 ≤ |centers| ≤ n`, matching dimensionality; [`validate_shape`]).
    fn validate_refine(&self, centers: &PointMatrix) -> Result<(), KMeansError> {
        validate_shape(self.len(), self.dim(), centers.len(), centers.dim())
    }

    /// Cumulative wire traffic (sent + received bytes) this backend has
    /// moved, when it moves any — `None` for local backends. The
    /// recording wrapper ([`crate::record::RecordingBackend`]) diffs
    /// this across each round call to attach per-round wire bytes to its
    /// spans; the counter must therefore be monotonically non-decreasing
    /// and include traffic on retired connections.
    fn wire_bytes(&self) -> Option<u64> {
        None
    }

    /// Fetches the rows at `indices` (any order, duplicates allowed) into
    /// `out` (cleared first; its dimensionality must match), preserving
    /// the request order. Steady-state gather loops — mini-batch draws
    /// one batch per step — reuse one `out` across calls.
    fn gather_rows(&mut self, indices: &[usize], out: &mut PointMatrix) -> Result<(), KMeansError>;

    /// Hint that the rows at `indices` will be gathered (possibly
    /// repeatedly, in arbitrary sub-batches) by upcoming
    /// [`RoundBackend::gather_rows`] calls. Local backends ignore it; a
    /// distributed backend gathers the unique rows once and serves the
    /// sub-batches from that cache, collapsing mini-batch's per-step
    /// gathers into a single wire cycle.
    fn preload_rows(&mut self, _indices: &[usize]) -> Result<(), KMeansError> {
        Ok(())
    }

    /// One k-means|| tracker round: applies `broadcast` to the backend's
    /// resident `d²`/nearest tracker (one scan; none for an empty
    /// update), then serves `read` against the result. Returns the global
    /// potential φ — the shard-ordered fold of per-shard partials — and
    /// what was read.
    fn tracker_round(
        &mut self,
        broadcast: Broadcast<'_>,
        read: TrackerRead,
    ) -> Result<(f64, TrackerOut), KMeansError>;

    /// One assignment pass against `centers`: finds every row's label,
    /// and returns the number of rows whose label changed relative to the
    /// previous pass (first pass: all rows), the accumulation-shard fold
    /// of the pass, its [`KernelStats`] — equal on every backend, since
    /// each seeds and settles a row the same way — and the labels in
    /// global row order for [`LabelFetch::Always`].
    ///
    /// The labels, and the fold's sums and counts where it has them, are
    /// bit-identical to
    /// [`assign_partials`](crate::chunked::assign_partials) over the same
    /// data and executor, folded, for every kind of pass. What
    /// [`ClusterSums`] holds depends on the kind:
    ///
    /// * a `Skip` pass stores the labels and reports the sums and counts,
    ///   the potential of the new labels at `centers` and each shard's
    ///   farthest point;
    /// * a bounded pass ([`LabelFetch::Bounded`]) stores the labels and
    ///   reports the sums and counts and the shard-ordered sum, over the
    ///   rows whose label changed, of `d²(new label) − d²(old label)` at
    ///   `centers`, and no farthest points. The potential follows from the
    ///   previous one by the Lloyd identity ([`drive_lloyd`]). A backend
    ///   whose last pass left no bounds at as many centers refuses it;
    /// * an `Always` pass reports the potential alone, with empty sums,
    ///   counts and farthest points, and returns the labels instead of
    ///   storing them.
    fn assign(
        &mut self,
        centers: &PointMatrix,
        fetch: LabelFetch,
    ) -> Result<(u64, ClusterSums, Option<Vec<u32>>), KMeansError>;

    /// The potential `φ_X(C)` of `centers` (weighted on a weighted
    /// in-memory backend) — the seed-cost pass, with the finiteness
    /// check.
    fn potential(&mut self, centers: &PointMatrix) -> Result<f64, KMeansError>;
}

/// [`RoundBackend::gather_rows`] into a fresh matrix.
fn gather(backend: &mut dyn RoundBackend, indices: &[usize]) -> Result<PointMatrix, KMeansError> {
    let mut rows = PointMatrix::with_capacity(backend.dim(), indices.len());
    backend.gather_rows(indices, &mut rows)?;
    Ok(rows)
}

/// A backend broke its round contract: a tracker round returned
/// something other than what it was asked to read, an assignment pass
/// withheld labels it owed, or a part broke its fold's contract.
fn broken_round(what: &str) -> KMeansError {
    KMeansError::Data(format!("backend round contract broken: {what}"))
}

/// Seeding epilogue shared by every initializer: stamps the duration and
/// the (weighted, on a weighted backend) seed cost — one
/// [`RoundBackend::potential`] pass, excluded from the duration.
pub fn finish_init_backend(
    backend: &mut dyn RoundBackend,
    centers: PointMatrix,
    mut stats: InitStats,
    sw: Stopwatch,
) -> Result<InitResult, KMeansError> {
    stats.duration = sw.elapsed();
    stats.seed_cost = backend.potential(&centers)?;
    Ok(InitResult { centers, stats })
}

// ---------------------------------------------------------------------------
// The drivers
// ---------------------------------------------------------------------------

/// Uniform seeding over any backend (RNG tag 20): `k` distinct rows,
/// gathered from their owners. The seed cost is stamped by the caller
/// (usually [`finish_init_backend`]).
pub fn drive_random_init(
    backend: &mut dyn RoundBackend,
    k: usize,
    seed: u64,
) -> Result<(PointMatrix, InitStats), KMeansError> {
    backend.validate(k)?;
    let mut rng = Rng::derive(seed, &[20]);
    let indices = uniform_distinct(backend.len(), k, &mut rng);
    let centers = gather(backend, &indices)?;
    let stats = InitStats {
        rounds: 0,
        passes: 1,
        candidates: k,
        ..InitStats::default()
    };
    Ok((centers, stats))
}

/// Algorithm 2 — **k-means||** — over any backend; the one and only
/// implementation of the paper's round structure.
///
/// Pass structure per round: the driver broadcasts only the *new*
/// candidates ([`Broadcast::Update`]); the backend folds them into its
/// resident `d²` state (one scan) and serves the next read against it —
/// exactly the §3.5 sketch ("each mapper can sample independently", "the
/// reducer can simply add these values"). Every round broadcasts what it
/// sampled, fused with the next round's sample, or on the last round
/// with the closing read (Step 7's weights, or the `d²` a D² top-up
/// draws from), so a full run pays one backend round per data pass. All
/// O(1)-size decisions (first center, top-up, Step 8 recluster) run here
/// on the sequential tag-30 stream.
pub fn drive_kmeans_parallel(
    backend: &mut dyn RoundBackend,
    k: usize,
    config: &KMeansParallelConfig,
    seed: u64,
) -> Result<(PointMatrix, InitStats), KMeansError> {
    backend.validate(k)?;
    config.validate(k)?;
    let n = backend.len();
    let l = config.oversampling.resolve(k);
    let mut rng = Rng::derive(seed, &[30]);

    // Step 1: one uniform center, fetched from its owner.
    let first = rng.range_usize(n);
    let mut cand_idx: Vec<usize> = vec![first];
    let mut candidates = gather(backend, &cand_idx)?;
    let spec = match config.sampling {
        SamplingMode::Bernoulli => SampleSpec::Bernoulli { l },
        SamplingMode::ExactL => SampleSpec::ExactKeys {
            m: (l.round() as usize).max(1),
        },
    };
    let sample = |round| TrackerRead::Sample { round, seed, spec };
    // The read that closes the round loop: Step 7's weights once `k`
    // candidates are in hand; otherwise the top-up's `d²` (or nothing
    // for a uniform top-up, whose own update reads the weights).
    let closing = |m: usize| {
        if m >= k {
            TrackerRead::Weights { m }
        } else {
            match config.topup {
                TopUp::D2Continue => TrackerRead::D2,
                TopUp::Uniform => TrackerRead::Nothing,
            }
        }
    };

    // Step 2: ψ = φ_X(C) — the backend builds its tracker state (this is
    // pass 1 over the data, doubling as the finiteness check on
    // block-backed backends), fused with the round-0 sample. The sample
    // is speculative: it is discarded if ψ ≤ 0 skips the round loop.
    let (psi, mut out) = backend.tracker_round(Broadcast::Init(&candidates), sample(0))?;
    let mut phi = psi;
    let max_rounds = match config.rounds {
        Rounds::Fixed(r) => r,
        Rounds::LogPsi { cap } => {
            if psi <= 1.0 {
                1
            } else {
                (psi.ln().ceil() as usize).clamp(1, cap)
            }
        }
    };

    // Steps 3–6: each round takes the sample the previous tracker round
    // read, and broadcasts it (empty after a dry Bernoulli round) fused
    // with the next read; sampling reads only the resident d².
    let mut rounds_executed = 0usize;
    for round in 0..max_rounds {
        if phi <= 0.0 {
            break; // every point coincides with a candidate
        }
        rounds_executed += 1;
        let (new_indices, rows) = match std::mem::replace(&mut out, TrackerOut::Nothing) {
            TrackerOut::Picked { indices, rows } => (indices, rows),
            TrackerOut::Keys(keys) => {
                let SampleSpec::ExactKeys { m } = spec else {
                    return Err(broken_round("exact-ℓ keys from a Bernoulli read"));
                };
                let indices = exact_sample_merge(keys, m);
                let rows = gather(backend, &indices)?;
                (indices, rows)
            }
            _ => return Err(broken_round("a sample read returned no sample")),
        };
        let from = candidates.len();
        candidates
            .extend_from(&rows)
            .expect("candidate dim matches");
        cand_idx.extend_from_slice(&new_indices);
        let read = if round + 1 < max_rounds {
            sample(round + 1)
        } else {
            closing(candidates.len())
        };
        (phi, out) = backend.tracker_round(Broadcast::Update { from, rows: &rows }, read)?;
    }
    // The φ = 0 exit leaves a speculated sample unread; the closing read
    // then rides an empty update.
    if matches!(out, TrackerOut::Picked { .. } | TrackerOut::Keys(_)) {
        out = match closing(candidates.len()) {
            TrackerRead::Nothing => TrackerOut::Nothing,
            read => {
                let none = PointMatrix::new(candidates.dim());
                let update = Broadcast::Update {
                    from: candidates.len(),
                    rows: &none,
                };
                backend.tracker_round(update, read)?.1
            }
        };
    }

    // Top-up: the paper notes that with r·ℓ < k "we run the risk of
    // having fewer than k centers" — guarantee k by continuing to draw
    // D²-weighted distinct points (uniform among unchosen once everything
    // is covered). The D² draw needs the full resident d² array, read by
    // the closing round; this is the one O(n)-transfer path, taken only
    // when r·ℓ under-sampled.
    if candidates.len() < k {
        let needed = k - candidates.len();
        let mut extra = match &out {
            TrackerOut::D2(d2) => kmeans_util::sampling::weighted_distinct(d2, needed, &mut rng),
            _ => Vec::new(), // TopUp::Uniform
        };
        if extra.len() < needed {
            let mut taken: Vec<usize> = cand_idx.iter().chain(extra.iter()).copied().collect();
            taken.sort_unstable();
            let mut free: Vec<usize> = (0..n).filter(|i| taken.binary_search(i).is_err()).collect();
            let want = (needed - extra.len()).min(free.len());
            // Partial Fisher–Yates: uniform distinct draw from the free set.
            for j in 0..want {
                let pick = j + rng.range_usize(free.len() - j);
                free.swap(j, pick);
                extra.push(free[j]);
            }
        }
        let from = candidates.len();
        let rows = gather(backend, &extra)?;
        candidates
            .extend_from(&rows)
            .expect("candidate dim matches");
        cand_idx.extend_from_slice(&extra);
        // The update keeps the tracker current for Step 7's weights; the
        // potential itself is no longer needed.
        let read = TrackerRead::Weights {
            m: candidates.len(),
        };
        out = backend
            .tracker_round(Broadcast::Update { from, rows: &rows }, read)?
            .1;
    }

    // Step 7: candidate weights from the tracked nearest ids — an O(|C|)
    // exchange riding the last tracker round, no extra data pass.
    let TrackerOut::Weights(weights) = out else {
        return Err(broken_round("the closing read returned no weights"));
    };
    let stats = InitStats {
        rounds: rounds_executed,
        passes: 1 + rounds_executed,
        candidates: candidates.len(),
        seed_cost: 0.0, // stamped by finish_init_backend
        duration: std::time::Duration::ZERO,
    };

    // Step 8: recluster the (resident, small) weighted candidate set.
    let centers = if candidates.len() == k {
        candidates
    } else {
        match config.recluster {
            Recluster::WeightedKMeansPlusPlus => {
                weighted_kmeanspp(&candidates, &weights, k, &mut rng)?
            }
            Recluster::Refined { lloyd_iterations } => {
                let seeded = weighted_kmeanspp(&candidates, &weights, k, &mut rng)?;
                crate::lloyd::weighted_lloyd(&candidates, &weights, seeded, lloyd_iterations)
            }
            Recluster::Uniform => {
                let picks = uniform_distinct(candidates.len(), k, &mut rng);
                candidates.select(&picks)
            }
        }
    };
    Ok((centers, stats))
}

/// Lloyd's iteration (§3.1) over any backend — the one implementation of
/// the assignment/update round loop, including the per-iteration
/// history, deterministic empty-cluster reseeding (the farthest point is
/// fetched back from its owner), and the closing pass.
///
/// The first in-loop pass is a full [`LabelFetch::Skip`] pass, and every
/// later one a [`LabelFetch::Bounded`] pass ([`RoundBackend::assign`])
/// unless the pass before it left a cluster empty. A bounded pass's cost
/// comes back as the moved rows' `d²` deltas, and the potential is
/// *tracked* by the Lloyd identity — with `n_c` the counts the previous
/// pass left and `μ` the centers,
///
/// ```text
/// cost_t = cost_{t−1} − Σ_c n_c^{t−1}·‖μ_c^t − μ_c^{t−1}‖² + Σ_shards cost
/// ```
///
/// (each centroid is the mean of its members, so moving it drops their
/// cost by `n_c·‖Δμ_c‖²`; the moved rows then add their deltas, none of
/// them positive). A bounded pass whose fold leaves a cluster empty is
/// repeated as a full `Skip` pass at the same centers, so the reseed
/// lands on the same farthest point as a full pass's. The pass after a
/// pass that left a cluster empty is full: data that keeps a cluster
/// empty (more empty clusters than farthest points, or duplicates that
/// tie a reseeded center away) then runs one full pass per iteration,
/// not a bounded pass and its repeat. The tol stop compares these tracked costs, so a
/// fit whose relative improvement lies within their error (about
/// `1e-15` relative) of `tol` may stop a pass apart from a loop of
/// measured costs. Every fit closes with one [`LabelFetch::Always`] pass
/// at the final centers, which gives the labels and the measured final
/// cost — the full pass's bits — and frees the bounds.
pub fn drive_lloyd(
    backend: &mut dyn RoundBackend,
    initial_centers: &PointMatrix,
    config: &LloydConfig,
) -> Result<LloydResult, KMeansError> {
    config.validate()?;
    backend.validate_refine(initial_centers)?;

    let d = backend.dim();
    let mut centers = initial_centers.clone();
    let mut prev_cost = f64::INFINITY;
    let mut history = Vec::new();
    let mut converged = false;
    let mut pruned = 0u64;
    let mut passes = 0usize;
    // The previous pass's centers and counts.
    let mut prev: Option<(PointMatrix, Vec<u64>)> = None;

    for _ in 0..config.max_iterations {
        // A pass is bounded, tracking its cost from the previous pass,
        // unless that pass left a cluster empty: a bounded pass would
        // then likely leave it empty again, and need repeating.
        let carried = prev.as_ref().filter(|(_, counts)| !counts.contains(&0));
        let fetch = match carried {
            Some(_) => LabelFetch::Bounded,
            None => LabelFetch::Skip,
        };
        let (reassigned, mut sums, _) = backend.assign(&centers, fetch)?;
        passes += 1;
        pruned += sums.stats.pruned_by_norm_bound;
        let mut cost = match carried {
            Some((before, counts)) => tracked_cost(prev_cost, before, &centers, counts, sums.cost),
            None => sums.cost,
        };

        // Stability: nothing moved → the centroid update is a no-op.
        if reassigned == 0 {
            converged = true;
            history.push(IterationStats {
                cost,
                reassigned: 0,
                reseeded: 0,
            });
            break;
        }

        // A bounded pass knows no farthest points: an empty cluster's
        // reseed needs the full pass at the same centers.
        if carried.is_some() && sums.counts.contains(&0) {
            let (_, full, _) = backend.assign(&centers, LabelFetch::Skip)?;
            passes += 1;
            pruned += full.stats.pruned_by_norm_bound;
            cost = full.cost;
            sums.farthest = full.farthest;
        }

        // Centroid update, with deterministic empty-cluster repair.
        let before = centers.clone();
        let mut reseeded = 0usize;
        let mut farthest: Vec<(usize, f64)> = std::mem::take(&mut sums.farthest);
        farthest.sort_by(|a, b| {
            b.1.partial_cmp(&a.1)
                .unwrap_or(std::cmp::Ordering::Equal)
                .then_with(|| a.0.cmp(&b.0))
        });
        let mut next_far = farthest.into_iter();
        for c in 0..centers.len() {
            if let Some(centroid) = sums.centroid(c, d) {
                centers.row_mut(c).copy_from_slice(&centroid);
            } else if let Some((idx, _)) = next_far.next() {
                // Empty cluster: land on the farthest available point,
                // fetched back from its owner.
                let row = gather(backend, &[idx])?;
                centers.row_mut(c).copy_from_slice(row.row(0));
                reseeded += 1;
            }
            // More empty clusters than shard maxima (pathological
            // duplicate-heavy data): leave the center in place.
        }
        prev = Some((before, std::mem::take(&mut sums.counts)));

        history.push(IterationStats {
            cost,
            reassigned,
            reseeded,
        });

        // Relative-improvement stop (after at least one update).
        if config.tol > 0.0
            && prev_cost.is_finite()
            && reseeded == 0
            && prev_cost - cost <= config.tol * prev_cost
        {
            converged = true;
            break;
        }
        prev_cost = cost;
    }

    // The closing labels-and-cost pass at the final centers.
    let (_, sums, labels) = backend.assign(&centers, LabelFetch::Always)?;
    pruned += sums.stats.pruned_by_norm_bound;
    let labels = labels.ok_or_else(|| broken_round("an assignment withheld its labels"))?;

    Ok(LloydResult {
        labels,
        cost: sums.cost,
        iterations: history.len(),
        converged,
        assign_passes: passes + 1,
        pruned_by_norm_bound: pruned,
        history,
        centers,
    })
}

/// The potential after a bounded pass at `centers`, tracked by the Lloyd
/// identity from `prev_cost`, the potential at the previous pass's
/// centers `prev` with its counts `counts`, and the pass's folded
/// `d²` deltas `moved` ([`drive_lloyd`]).
fn tracked_cost(
    prev_cost: f64,
    prev: &PointMatrix,
    centers: &PointMatrix,
    counts: &[u64],
    moved: f64,
) -> f64 {
    let drop: f64 = counts
        .iter()
        .enumerate()
        .filter(|(_, &n)| n > 0)
        .map(|(c, &n)| n as f64 * sq_dist(centers.row(c), prev.row(c)))
        .sum();
    prev_cost - drop + moved
}

/// Sculley's mini-batch k-means over any backend — the one
/// implementation of the step loop. Each step draws the same uniform
/// batch indices (RNG tag 40), gathers the rows from their owners, and
/// applies the two-phase gradient step on the driver side; only
/// `O(batch · d)` feature data ever moves per step, which is what makes
/// the distributed realization essentially free.
///
/// The random gather pattern is where backends diverge in *cost*: a
/// budgeted `BlockFileSource` lends the blocks of its pinned prefix (a
/// uniform batch hits them at the pinned fraction of the file) and
/// decodes the rest, `CsvSource` re-parses every touched block per batch
/// (convert large CSVs with `skm convert` first), and a cluster ships
/// each batch over the wire.
///
/// Returns the refined centers plus the batch-assignment [`KernelStats`]
/// accumulated across all steps.
pub fn drive_minibatch(
    backend: &mut dyn RoundBackend,
    initial_centers: &PointMatrix,
    config: &MiniBatchConfig,
    seed: u64,
) -> Result<(PointMatrix, KernelStats), KMeansError> {
    backend.validate_refine(initial_centers)?;
    if config.batch_size == 0 || config.iterations == 0 {
        return Err(KMeansError::InvalidConfig(
            "batch_size and iterations must be positive".into(),
        ));
    }

    let n = backend.len();
    let mut centers = initial_centers.clone();
    let mut seen = vec![0u64; centers.len()];
    let mut rng = Rng::derive(seed, &[40]);
    let mut labels = vec![0u32; config.batch_size];
    let mut d2 = vec![0.0f64; config.batch_size];
    // All batch indices are drawn up front (the loop body consumes no
    // other randomness, so the tag-40 stream is identical to drawing
    // per step) and announced to the backend: a distributed backend
    // gathers the unique rows once instead of paying one wire cycle per
    // step.
    let mut batches: Vec<Vec<usize>> = Vec::with_capacity(config.iterations);
    for _ in 0..config.iterations {
        let mut batch = vec![0usize; config.batch_size];
        for slot in &mut batch {
            *slot = rng.range_usize(n);
        }
        batches.push(batch);
    }
    {
        let mut unique: Vec<usize> = batches.iter().flatten().copied().collect();
        unique.sort_unstable();
        unique.dedup();
        backend.preload_rows(&unique)?;
    }
    // One reused gather buffer across all steps — local backends fill it
    // allocation-free in steady state.
    let mut rows = PointMatrix::with_capacity(backend.dim(), config.batch_size);
    let mut stats = KernelStats::default();
    for batch in &batches {
        backend.gather_rows(batch, &mut rows)?;
        // Assign against frozen centers, then apply the gradient steps in
        // batch order — Sculley's two-phase step avoids order dependence
        // within a batch. The batch is candidate-set sized, so the kernel
        // pass runs on the driver side for every backend, on a kernel
        // without separation lists: one batch cannot repay their build.
        {
            let kernel = AssignKernel::without_lists(&centers);
            stats.absorb(kernel.assign(&rows, 0..rows.len(), &mut labels, &mut d2));
        }
        for (j, &c) in labels.iter().enumerate() {
            let c = c as usize;
            seen[c] += 1;
            let eta = 1.0 / seen[c] as f64;
            let row = rows.row(j);
            let center = centers.row_mut(c);
            for (slot, &x) in center.iter_mut().zip(row) {
                *slot += eta * (x - *slot);
            }
        }
    }
    Ok((centers, stats))
}

/// One labeling pass over any backend: the labels of `centers` and their
/// cost, with the pass's kernel counters, without moving the centers —
/// the driver behind seed-only refinement
/// ([`NoRefine`](crate::pipeline::NoRefine)) and mini-batch's closing
/// relabel. It is one [`LabelFetch::Always`] pass.
pub fn drive_label_pass(
    backend: &mut dyn RoundBackend,
    centers: &PointMatrix,
) -> Result<(Vec<u32>, f64, KernelStats), KMeansError> {
    backend.validate_refine(centers)?;
    let (_, sums, labels) = backend.assign(centers, LabelFetch::Always)?;
    let labels = labels.ok_or_else(|| broken_round("an assignment withheld its labels"))?;
    Ok((labels, sums.cost, sums.stats))
}

// ---------------------------------------------------------------------------
// Parts and folds
// ---------------------------------------------------------------------------

/// One part's answer to a tracker round's read, with global row indices —
/// what a worker ships for it.
#[derive(Clone, Debug)]
pub enum ReadPart {
    /// [`TrackerRead::Nothing`].
    Nothing,
    /// A Bernoulli read: the draws accepted against the part's own φ, as
    /// `(global index, u, d²)` ascending, and their rows in that order.
    Prescreened {
        /// `(global index, u, d²)` triples.
        entries: Vec<(usize, f64, f64)>,
        /// The corresponding rows.
        rows: PointMatrix,
    },
    /// An exact-ℓ read: the part's per-shard top-`m` keys.
    Keys(Vec<(f64, usize)>),
    /// Step 7: per-candidate counts over the part's rows.
    Weights(Vec<f64>),
    /// The part's `d²` slice.
    D2(Vec<f64>),
}

/// One part's answer to a tracker round.
#[derive(Clone, Debug)]
pub struct TrackerPart {
    /// Rows the part covers.
    pub rows: usize,
    /// The per-executor-shard `Σ d²` partials after the broadcast.
    pub sums: Vec<f64>,
    /// The read.
    pub read: ReadPart,
}

/// One part's answer to an assignment pass — a worker's partials.
#[derive(Clone, Debug)]
pub struct AssignPart {
    /// Rows the part covers.
    pub rows: usize,
    /// Rows whose label changed since the part's previous pass (first
    /// pass: all of them).
    pub reassigned: u64,
    /// One partial per accumulation shard of the part's rows.
    pub shards: Vec<AccumShard>,
    /// The pass's kernel counters.
    pub stats: KernelStats,
    /// The part's labels, when [`LabelFetch::owed`].
    pub labels: Option<Vec<u32>>,
}

/// The fold half of [`RoundBackend::tracker_round`]: merges the parts of
/// one round, in row order. φ is the [`fold_shard_sums`] of every part's
/// partials; a Bernoulli read keeps the prescreened entries
/// [`bernoulli_accept`] passes under that φ (all of them for one part
/// over every row, whose prescreen threshold *is* φ); keys and `d²`
/// slices concatenate, and Step 7's integer-valued counts add exactly.
/// `dim` is the row dimensionality. A part that answers another read, or
/// ships lengths that do not match, is an error naming it by its index
/// (the worker, on a cluster).
pub fn fold_tracker_round(
    read: TrackerRead,
    dim: usize,
    parts: Vec<TrackerPart>,
) -> Result<(f64, TrackerOut), KMeansError> {
    let phi = fold_shard_sums(parts.iter().flat_map(|p| p.sums.iter().copied()));
    let (mut out, l) = match read {
        TrackerRead::Nothing => (TrackerOut::Nothing, 0.0),
        TrackerRead::Sample {
            spec: SampleSpec::Bernoulli { l },
            ..
        } => {
            let (indices, rows) = (Vec::new(), PointMatrix::new(dim));
            (TrackerOut::Picked { indices, rows }, l)
        }
        TrackerRead::Sample { .. } => (TrackerOut::Keys(Vec::new()), 0.0),
        TrackerRead::Weights { m } => (TrackerOut::Weights(vec![0.0; m]), 0.0),
        TrackerRead::D2 => (TrackerOut::D2(Vec::new()), 0.0),
    };
    for (i, part) in parts.into_iter().enumerate() {
        match (&mut out, part.read) {
            (TrackerOut::Nothing, ReadPart::Nothing) => {}
            (
                TrackerOut::Picked { indices, rows },
                ReadPart::Prescreened {
                    entries,
                    rows: picked,
                },
            ) => {
                check_len(i, picked.len(), entries.len(), "prescreened rows")?;
                for (j, (g, u, d2)) in entries.into_iter().enumerate() {
                    if bernoulli_accept(u, l, d2, phi) {
                        indices.push(g);
                        rows.push(picked.row(j)).map_err(|e| part_err(i, e))?;
                    }
                }
            }
            (TrackerOut::Keys(keys), ReadPart::Keys(part_keys)) => append(keys, part_keys),
            (TrackerOut::Weights(total), ReadPart::Weights(weights)) => {
                check_len(i, weights.len(), total.len(), "weights")?;
                total.iter_mut().zip(weights).for_each(|(t, w)| *t += w);
            }
            (TrackerOut::D2(all), ReadPart::D2(d2)) => {
                check_len(i, d2.len(), part.rows, "d² values")?;
                append(all, d2);
            }
            _ => return Err(part_err(i, format!("answered {read:?} with another read"))),
        }
    }
    Ok((phi, out))
}

/// The fold half of [`RoundBackend::assign`]: sums the parts' reassigned
/// counts and kernel counters, folds their accumulation-shard partials in
/// row order with [`fold_accum_shards`] (each must have the shape of `k`
/// centers in `d` dimensions, or for a labels-and-cost pass, which
/// [`LabelFetch::owed`] names, no sums and no counts at all), and — when
/// `fetch` owes labels — concatenates every part's labels, moving a
/// single part's.
pub fn fold_assign(
    k: usize,
    d: usize,
    fetch: LabelFetch,
    parts: Vec<AssignPart>,
) -> Result<(u64, ClusterSums, Option<Vec<u32>>), KMeansError> {
    let (k, d) = if fetch.owed() { (0, 0) } else { (k, d) };
    let reassigned = parts.iter().map(|p| p.reassigned).sum();
    let mut sums = fold_accum_shards(k, d, parts.iter().flat_map(|p| &p.shards));
    let mut labels = fetch.owed().then(Vec::new);
    for (i, part) in parts.into_iter().enumerate() {
        if part
            .shards
            .iter()
            .any(|s| s.sums.len() != k * d || s.counts.len() != k)
        {
            return Err(part_err(i, "sent assignment partials of the wrong shape"));
        }
        sums.stats.absorb(part.stats);
        if let Some(all) = &mut labels {
            let owed = part
                .labels
                .ok_or_else(|| part_err(i, "withheld labels it owed"))?;
            check_len(i, owed.len(), part.rows, "labels")?;
            append(all, owed);
        }
    }
    Ok((reassigned, sums, labels))
}

/// A part broke its fold's contract.
fn part_err(part: usize, what: impl std::fmt::Display) -> KMeansError {
    broken_round(&format!("part {part} {what}"))
}

/// A part must ship `want` of `what`.
fn check_len(part: usize, got: usize, want: usize, what: &str) -> Result<(), KMeansError> {
    if got == want {
        return Ok(());
    }
    Err(part_err(part, format!("sent {got} {what} for {want}")))
}

/// Appends a part's vector in row order, moving it when it is the first.
fn append<T>(all: &mut Vec<T>, part: Vec<T>) {
    if all.is_empty() {
        *all = part;
    } else {
        all.extend(part);
    }
}

// ---------------------------------------------------------------------------
// LocalBackend
// ---------------------------------------------------------------------------

/// [`RoundBackend`] over local data — resident rows or a block-resident
/// [`ChunkedSource`] — and, as a [`LocalBackend::part`], one worker's
/// range of a distributed fit's rows. The `*_part` methods (module docs)
/// run the one local pass of [`crate::chunked`] and [`crate::cost`] over
/// the part's rows, resident rows as one lent block, with global row
/// indices in every index and error; the [`RoundBackend`] impl folds its
/// one part with the fold every backend uses, so the drivers return the
/// same bits for either data kind, **any** block size and any worker split.
///
/// **One hint rule.** An assignment pass ([`LocalBackend::assign_part`])
/// at a new center set seeds each row's search at the row's label, if the
/// part has labels. While the seeding tracker lives, the seed-cost
/// potential ([`LocalBackend::potential_part`]) and a first assignment
/// seed it at the center nearest the row's tracked candidate (after
/// k-means\|\|, usually the row's own nearest center). Otherwise a pass
/// runs cold. A table mapping each held candidate to its nearest center,
/// built by one sweep of the candidates through the pass's own kernel,
/// gives the tracker's seeds. The seeds move only the kernel counters and
/// the time, and every part over the same rows picks the same ones, so
/// the counters match across backends too.
///
/// **Passes that reuse labels.** Labels are each row's nearest center
/// among the centers of the pass that found them, so a pass at bit-equal
/// centers needs no search: an assignment pass there evaluates each row
/// once, at its label. While the tracker lives, the seed-cost potential
/// writes its labels over the tracker's nearest ids and frees its `d²`,
/// so the first Lloyd pass, or a seed-only label pass, at the seed
/// centers reads them. They are not a pass's labels: the first
/// assignment still counts every row as reassigned.
pub struct LocalBackend<'a> {
    data: LocalData<'a>,
    exec: Executor,
    /// Global index of the part's first row.
    row_offset: usize,
    /// Rows of the whole fit, across every part.
    global_n: usize,
    tracker: Option<CostTracker>,
    candidates: PointMatrix,
    buf: PointMatrix,
    labels: Option<Labels>,
    /// What a `Skip` or `Bounded` pass carries to the next, beside the
    /// labels.
    refinement: Option<Refinement>,
}

/// A part's labels: each row's nearest center among `at`.
struct Labels {
    rows: Vec<u32>,
    /// The centers of the pass that found them.
    at: PointMatrix,
    /// Whether an assignment pass stored them, so that the next pass
    /// counts the rows that change against them; the seed-cost pass's
    /// labels are not an assignment's.
    assigned: bool,
}

impl Labels {
    /// Whether the labels are each row's nearest center among `centers`:
    /// the centers they were found at, bit for bit.
    fn exact_at(&self, centers: &PointMatrix) -> bool {
        let (at, to) = (self.at.as_slice(), centers.as_slice());
        self.at.dim() == centers.dim()
            && at.len() == to.len()
            && at.iter().zip(to).all(|(a, b)| a.to_bits() == b.to_bits())
    }
}

impl<'a> LocalBackend<'a> {
    /// Wraps resident rows, with the per-point weights of a weighted fit,
    /// and the executor every pass runs on. Only
    /// [`RoundBackend::potential`] honors the weights; the other rounds
    /// stay unweighted, and stages read the weights through
    /// [`RoundBackend::local`] — validating them and running their
    /// weighted arm, or rejecting weighted input with a typed error.
    pub fn in_memory(
        points: &'a PointMatrix,
        weights: Option<&'a [f64]>,
        exec: &'a Executor,
    ) -> Self {
        let data = LocalData::Resident { points, weights };
        Self::new(data, exec.clone(), 0, points.len())
    }

    /// Wraps a block-resident source and the executor every pass runs on.
    pub fn chunked(source: &'a dyn ChunkedSource, exec: &'a Executor) -> Self {
        Self::new(LocalData::Blocks(source), exec.clone(), 0, source.len())
    }

    /// One part of a fit over `global_n` rows: `source` holds global rows
    /// `row_offset..row_offset + source.len()`, and `exec` carries the
    /// fit's shard grid, on which `row_offset` must sit (a cluster's plan
    /// validates it). A distributed worker serves one of these.
    pub fn part(
        source: &'a dyn ChunkedSource,
        exec: Executor,
        row_offset: usize,
        global_n: usize,
    ) -> Self {
        Self::new(LocalData::Blocks(source), exec, row_offset, global_n)
    }

    fn new(data: LocalData<'a>, exec: Executor, row_offset: usize, global_n: usize) -> Self {
        LocalBackend {
            data,
            exec,
            row_offset,
            global_n,
            tracker: None,
            candidates: PointMatrix::new(data.dim().max(1)),
            buf: data.block_buffer(),
            labels: None,
            refinement: None,
        }
    }

    /// Builds (`Init`) or extends (`Update`, whose `from` must equal the
    /// candidates held) the `d²`/nearest tracker; returns its
    /// per-executor-shard `Σ d²`.
    pub fn broadcast_part(&mut self, broadcast: Broadcast<'_>) -> Result<Vec<f64>, KMeansError> {
        let (data, exec) = (self.data, &self.exec);
        let global = globalize(self.row_offset);
        let tracker = match broadcast {
            Broadcast::Init(centers) => {
                validate_shape(self.global_n, data.dim(), centers.len(), centers.dim())?;
                let tracker = CostTracker::new(data, centers, exec).map_err(global)?;
                self.candidates = centers.clone();
                self.tracker.insert(tracker)
            }
            Broadcast::Update { from, rows } => {
                let tracker = self.tracker.as_mut().ok_or_else(no_tracker)?;
                if from != self.candidates.len() {
                    return Err(KMeansError::InvalidConfig(format!(
                        "tracker update from {from} but the tracker holds {} candidates",
                        self.candidates.len()
                    )));
                }
                self.candidates
                    .extend_from(rows)
                    .map_err(|e| KMeansError::Data(e.to_string()))?;
                tracker
                    .update(data, &self.candidates, from, exec)
                    .map_err(global)?;
                tracker
            }
        };
        Ok(tracker.shard_sums().to_vec())
    }

    /// Serves a read against the tracker. A Bernoulli read prescreens
    /// against the part's own φ — a lower bound on the folded global φ,
    /// and φ itself for a part over every row; the fold replays the exact
    /// test. A `Weights` read must name the candidate count held.
    pub fn read_part(&mut self, read: TrackerRead) -> Result<ReadPart, KMeansError> {
        let tracker = self.tracker.as_ref().ok_or_else(no_tracker)?;
        let (d2, offset) = (tracker.d2(), self.row_offset);
        let first_shard = offset / self.exec.shard_spec().shard_size();
        Ok(match read {
            TrackerRead::Nothing => ReadPart::Nothing,
            TrackerRead::Sample {
                round,
                seed,
                spec: SampleSpec::Bernoulli { l },
            } => {
                let phi_lo = tracker.potential();
                let picked =
                    sample_bernoulli_prescreen(d2, l, phi_lo, seed, round, &self.exec, first_shard);
                let local: Vec<usize> = picked.iter().map(|&(i, _)| i).collect();
                let rows = self.data.gather_rows(&local, &mut self.buf)?;
                let entries = picked
                    .into_iter()
                    .map(|(i, u)| (i + offset, u, d2[i]))
                    .collect();
                ReadPart::Prescreened { entries, rows }
            }
            TrackerRead::Sample {
                round,
                seed,
                spec: SampleSpec::ExactKeys { m },
            } => {
                let keys = exact_sample_keys(d2, m, seed, round, &self.exec, first_shard);
                ReadPart::Keys(keys.into_iter().map(|(key, i)| (key, i + offset)).collect())
            }
            TrackerRead::Weights { m } => {
                if m != self.candidates.len() {
                    return Err(KMeansError::InvalidConfig(format!(
                        "weights for {m} candidates requested, the tracker holds {}",
                        self.candidates.len()
                    )));
                }
                ReadPart::Weights(tracker.weights(m))
            }
            TrackerRead::D2 => ReadPart::D2(d2.to_vec()),
        })
    }

    /// Frees the seeding tracker and runs one assignment pass at
    /// `centers`. A [`LabelFetch::Bounded`] pass sweeps only the rows the
    /// bounds of the part's last pass cannot settle and re-folds only the
    /// clusters whose membership changed in each accumulation shard;
    /// without those bounds, at as many centers, the part refuses it. The
    /// other passes are *full*, seeded by the part's hint rule
    /// ([`LocalBackend`]), and evaluate each row once where the part's
    /// labels are exact at `centers`. A [`LabelFetch::Skip`] pass folds
    /// [`assign_partials`](crate::chunked::assign_partials)' partials and
    /// leaves bounds for a bounded pass. A [`LabelFetch::Always`] pass
    /// folds each shard's cost alone, settles rows on the bounds of the
    /// part's last pass where it has them at as many centers, and moves
    /// the labels into the reply, freeing them and the bounds. Every kind
    /// gives the same labels, and the same sums and counts where it folds
    /// them; a bounded pass's shard costs are its moved rows' `d²` deltas
    /// ([`RoundBackend::assign`]). The first assignment counts every row
    /// as reassigned, whatever seeded it.
    pub fn assign_part(
        &mut self,
        centers: &PointMatrix,
        fetch: LabelFetch,
    ) -> Result<AssignPart, KMeansError> {
        let n = self.data.len();
        let carried = self.refinement.take().filter(|r| r.carries(centers));
        if fetch == LabelFetch::Bounded {
            let labels = self.labels.as_mut().filter(|l| l.assigned);
            let (Some(mut state), Some(labels)) = (carried, labels) else {
                return Err(broken_round(
                    "a bounded pass needs the bounds of a pass at as many centers",
                ));
            };
            let (reassigned, shards, stats) = refine_pass(
                self.data,
                centers,
                &self.exec,
                self.row_offset,
                self.global_n,
                &mut labels.rows,
                &mut state,
            )
            .map_err(globalize(self.row_offset))?;
            labels.at.clone_from(centers);
            self.refinement = Some(state);
            return Ok(AssignPart {
                rows: n,
                reassigned,
                shards,
                stats,
                labels: None,
            });
        }
        // Refinement never reads the seeding tracker again: its d² (8 B per
        // row) goes now, and its nearest ids (4 B per row) may seed the
        // pass, which writes its labels over them; the bounds a `Skip`
        // pass keeps (8 B per row) take the d²'s place.
        let tracked = self.tracker.take().map(CostTracker::into_nearest_ids);
        let known = self.labels.take();
        let previous = known.as_ref().is_some_and(|l| l.assigned);
        let exact = known.as_ref().is_some_and(|l| l.exact_at(centers));
        // An `Always` pass settles its rows on the old bounds unless its
        // labels are exact already; every other full pass replaces them,
        // and the old ones go before it allocates its own.
        let settle = carried.filter(|_| fetch.owed() && previous && !exact);
        let seeds = known.is_some();
        let tracking = !seeds && tracked.is_some();
        let buffer = match (known, tracked) {
            (Some(labels), _) => labels.rows,
            (None, Some(ids)) => ids,
            (None, None) => vec![0; n],
        };
        let keep = match fetch {
            LabelFetch::Always => Keep::Cost,
            _ => Keep::Refinement,
        };
        let pass = assign_pass(
            self.data,
            centers,
            &self.exec,
            self.row_offset,
            self.global_n,
            buffer,
            |kernel| match &settle {
                _ if exact => Hints::Exact,
                Some(state) => state.settle(kernel, centers),
                None if seeds => Hints::Seeds,
                None if tracking => Hints::Tracker(self.tracker_table(kernel)),
                None => Hints::Cold,
            },
            keep,
        )
        .map_err(globalize(self.row_offset))?;
        self.refinement = pass.refinement;
        let reassigned = if previous { pass.moved } else { n as u64 };
        let owed = match fetch.owed() {
            true => Some(pass.labels),
            false => {
                self.labels = Some(Labels {
                    rows: pass.labels,
                    at: centers.clone(),
                    assigned: true,
                });
                None
            }
        };
        Ok(AssignPart {
            rows: n,
            reassigned,
            shards: pass.shards,
            stats: pass.stats,
            labels: owed,
        })
    }

    /// The labels the part's last assignment pass stored, in its row
    /// order (`None` before the first, and after a pass that shipped
    /// them).
    pub fn labels(&self) -> Option<&[u32]> {
        let labels = self.labels.as_ref().filter(|l| l.assigned);
        labels.map(|l| &l.rows[..])
    }

    /// The potential pass's per-executor-shard sums
    /// ([`potential_shard_sums`](crate::cost::potential_shard_sums)). While
    /// the seeding tracker lives, the tracker seeds the pass by the part's
    /// hint rule ([`LocalBackend`]), and the pass writes each row's label
    /// over the tracker's nearest ids and frees its `d²`: the part keeps
    /// them as labels at `centers`, which the assignment pass that follows
    /// reads. Otherwise the pass runs cold and keeps nothing. Its shape
    /// checks name the fit's row count, whatever rows the part holds.
    pub fn potential_part(&mut self, centers: &PointMatrix) -> Result<Vec<f64>, KMeansError> {
        self.check_potential(centers)?;
        let (data, exec, global) = (self.data, &self.exec, globalize(self.row_offset));
        let Some(tracker) = self.tracker.take() else {
            return seeded_shard_sums(data, centers, exec, None, |_| Hints::Cold).map_err(global);
        };
        let mut ids = tracker.into_nearest_ids();
        let sums = seeded_shard_sums(data, centers, exec, Some(&mut ids), |kernel| {
            Hints::Tracker(self.tracker_table(kernel))
        })
        .map_err(global)?;
        self.labels = Some(Labels {
            rows: ids,
            at: centers.clone(),
            assigned: false,
        });
        Ok(sums)
    }

    /// The potential's shape contract — at least one center, of the rows'
    /// dimensionality — against the fit's row count, so every backend
    /// rejects the same centers with the same error.
    fn check_potential(&self, centers: &PointMatrix) -> Result<(), KMeansError> {
        check_potential_centers(self.global_n, self.data.dim(), centers)
    }

    /// The hint rule's table for a pass over the seeding tracker's nearest
    /// ids at `kernel`'s centers: the center nearest each held candidate,
    /// by one sweep of the candidates through `kernel`.
    fn tracker_table(&self, kernel: &AssignKernel) -> Vec<u32> {
        let m = self.candidates.len();
        let (mut table, mut d2) = (vec![0u32; m], vec![0.0f64; m]);
        kernel.assign(&self.candidates, 0..m, &mut table, &mut d2);
        table
    }

    /// Gathers the rows at global `indices`, each of which must be the
    /// part's, through the part's reused block buffer.
    pub fn gather_part(
        &mut self,
        indices: &[usize],
        out: &mut PointMatrix,
    ) -> Result<(), KMeansError> {
        let range = self.row_offset..self.row_offset + self.data.len();
        if let Some(g) = indices.iter().find(|g| !range.contains(g)) {
            return Err(KMeansError::InvalidConfig(format!(
                "row {g} outside this part's rows [{}, {})",
                range.start, range.end
            )));
        }
        let local: Vec<usize> = indices.iter().map(|g| g - self.row_offset).collect();
        self.data.gather_rows_into(&local, &mut self.buf, out)
    }
}

fn no_tracker() -> KMeansError {
    KMeansError::InvalidConfig("no tracker initialized".into())
}

/// Maps a pass error's row index to the fit's.
fn globalize(row_offset: usize) -> impl Fn(KMeansError) -> KMeansError {
    move |e| match e {
        KMeansError::NonFiniteData { point, dim } => KMeansError::NonFiniteData {
            point: point + row_offset,
            dim,
        },
        other => other,
    }
}

impl RoundBackend for LocalBackend<'_> {
    fn kind(&self) -> BackendKind {
        match self.data {
            LocalData::Resident { .. } => BackendKind::InMemory,
            LocalData::Blocks(_) => BackendKind::Chunked,
        }
    }

    fn len(&self) -> usize {
        self.data.len()
    }

    fn dim(&self) -> usize {
        self.data.dim()
    }

    fn local(&self) -> Option<(LocalData<'_>, &Executor)> {
        Some((self.data, &self.exec))
    }

    fn gather_rows(&mut self, indices: &[usize], out: &mut PointMatrix) -> Result<(), KMeansError> {
        self.gather_part(indices, out)
    }

    fn tracker_round(
        &mut self,
        broadcast: Broadcast<'_>,
        read: TrackerRead,
    ) -> Result<(f64, TrackerOut), KMeansError> {
        let sums = self.broadcast_part(broadcast)?;
        let part = TrackerPart {
            rows: self.data.len(),
            sums,
            read: self.read_part(read)?,
        };
        fold_tracker_round(read, self.data.dim(), vec![part])
    }

    fn assign(
        &mut self,
        centers: &PointMatrix,
        fetch: LabelFetch,
    ) -> Result<(u64, ClusterSums, Option<Vec<u32>>), KMeansError> {
        let part = self.assign_part(centers, fetch)?;
        fold_assign(centers.len(), self.data.dim(), fetch, vec![part])
    }

    fn potential(&mut self, centers: &PointMatrix) -> Result<f64, KMeansError> {
        if let LocalData::Resident {
            points,
            weights: Some(w),
        } = self.data
        {
            self.check_potential(centers)?;
            return Ok(weighted_potential(points, w, centers));
        }
        Ok(fold_shard_sums(self.potential_part(centers)?))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::init::kmeans_parallel;
    use crate::lloyd::lloyd;
    use crate::minibatch::minibatch_kmeans;
    use kmeans_data::InMemorySource;
    use kmeans_par::Parallelism;

    fn blobs(n: usize) -> PointMatrix {
        let mut m = PointMatrix::new(2);
        let mut rng = Rng::new(7);
        for i in 0..n {
            let c = (i % 3) as f64 * 40.0;
            m.push(&[c + rng.normal(), c * 0.5 + rng.normal()]).unwrap();
        }
        m
    }

    fn source(m: &PointMatrix, block_rows: usize) -> InMemorySource {
        InMemorySource::new(m.clone(), block_rows).unwrap()
    }

    /// The wrappers route through the driver on resident rows, so
    /// comparing blocked rows against the public in-memory entry points
    /// is the full resident ≡ blocks equivalence.
    #[test]
    fn kmeans_parallel_is_bit_identical_across_backends() {
        let m = blobs(500);
        let config = KMeansParallelConfig::default();
        for threads in [Parallelism::Sequential, Parallelism::Threads(3)] {
            let exec = Executor::new(threads).with_shard_size(64);
            let (ref_centers, ref_stats) = kmeans_parallel(&m, 5, &config, 42, &exec).unwrap();
            for block_rows in [1, 13, 64, 500, 1000] {
                let src = source(&m, block_rows);
                let mut backend = LocalBackend::chunked(&src, &exec);
                let (centers, stats) = drive_kmeans_parallel(&mut backend, 5, &config, 42).unwrap();
                assert_eq!(centers, ref_centers, "block_rows {block_rows}");
                assert_eq!(stats.candidates, ref_stats.candidates);
                assert_eq!(stats.rounds, ref_stats.rounds);
            }
        }
    }

    #[test]
    fn exact_l_and_topup_are_bit_identical_across_backends() {
        let m = blobs(400);
        let exec = Executor::sequential().with_shard_size(32);
        for config in [
            KMeansParallelConfig::default().sampling(SamplingMode::ExactL),
            // ℓ = 0.1k, one round: forces the D² top-up path.
            KMeansParallelConfig::default()
                .oversampling_factor(0.1)
                .rounds(1),
        ] {
            let (ref_centers, _) = kmeans_parallel(&m, 20, &config, 9, &exec).unwrap();
            for block_rows in [1, 37, 400] {
                let src = source(&m, block_rows);
                let mut backend = LocalBackend::chunked(&src, &exec);
                let (centers, _) = drive_kmeans_parallel(&mut backend, 20, &config, 9).unwrap();
                assert_eq!(centers, ref_centers, "{config:?}, block_rows {block_rows}");
            }
        }
    }

    #[test]
    fn lloyd_is_bit_identical_across_backends_including_reseeds() {
        let m = blobs(400);
        // Two centers glued far away: forces empty-cluster reseeding.
        let init =
            PointMatrix::from_flat(vec![0.0, 0.0, -900.0, -900.0, -900.0, -900.0], 2).unwrap();
        let exec = Executor::new(Parallelism::Threads(3)).with_shard_size(32);
        let reference = lloyd(&m, &init, &LloydConfig::default(), &exec).unwrap();
        assert!(reference.history[0].reseeded >= 1, "setup must reseed");
        for block_rows in [1, 11, 128, 400] {
            let src = source(&m, block_rows);
            let mut backend = LocalBackend::chunked(&src, &exec);
            let got = drive_lloyd(&mut backend, &init, &LloydConfig::default()).unwrap();
            assert_eq!(got.centers, reference.centers, "block_rows {block_rows}");
            assert_eq!(got.labels, reference.labels);
            assert_eq!(got.cost.to_bits(), reference.cost.to_bits());
            assert_eq!(got.iterations, reference.iterations);
            assert_eq!(got.assign_passes, reference.assign_passes);
            assert_eq!(got.pruned_by_norm_bound, reference.pruned_by_norm_bound);
        }
    }

    #[test]
    fn minibatch_is_bit_identical_across_backends() {
        let m = blobs(600);
        let init = PointMatrix::from_flat(vec![10.0, 0.0, 50.0, 20.0, 70.0, 40.0], 2).unwrap();
        let config = MiniBatchConfig {
            batch_size: 64,
            iterations: 30,
        };
        let reference = minibatch_kmeans(&m, &init, &config, 9).unwrap();
        let exec = Executor::sequential();
        for block_rows in [1, 23, 100, 600] {
            let src = source(&m, block_rows);
            let mut backend = LocalBackend::chunked(&src, &exec);
            let (got, _) = drive_minibatch(&mut backend, &init, &config, 9).unwrap();
            assert_eq!(got, reference, "block_rows {block_rows}");
        }
    }

    #[test]
    fn random_is_bit_identical_across_backends() {
        let m = blobs(200);
        let exec = Executor::sequential();
        let mut mem = LocalBackend::in_memory(&m, None, &exec);
        let (ref_centers, _) = drive_random_init(&mut mem, 7, 3).unwrap();
        for block_rows in [1, 17, 200] {
            let src = source(&m, block_rows);
            let mut chunked = LocalBackend::chunked(&src, &exec);
            let (centers, _) = drive_random_init(&mut chunked, 7, 3).unwrap();
            assert_eq!(centers, ref_centers, "block_rows {block_rows}");
        }
    }

    #[test]
    fn drivers_validate_inputs_per_backend_contract() {
        let m = blobs(10);
        let exec = Executor::sequential();
        let mut mem = LocalBackend::in_memory(&m, None, &exec);
        assert!(matches!(
            drive_random_init(&mut mem, 0, 0),
            Err(KMeansError::InvalidK { .. })
        ));
        assert!(matches!(
            drive_random_init(&mut mem, 11, 0),
            Err(KMeansError::InvalidK { .. })
        ));
        let wrong = PointMatrix::from_flat(vec![0.0], 1).unwrap();
        assert!(matches!(
            drive_lloyd(&mut mem, &wrong, &LloydConfig::default()),
            Err(KMeansError::DimensionMismatch { .. })
        ));
        assert!(drive_minibatch(&mut mem, &wrong, &MiniBatchConfig::default(), 0).is_err());
        let src = source(&m, 4);
        let mut chunked = LocalBackend::chunked(&src, &exec);
        assert!(matches!(
            drive_lloyd(&mut chunked, &wrong, &LloydConfig::default()),
            Err(KMeansError::DimensionMismatch { .. })
        ));
        // Tracker rounds before an Init broadcast are a typed error.
        let none = PointMatrix::new(2);
        let update = Broadcast::Update {
            from: 0,
            rows: &none,
        };
        assert!(chunked.tracker_round(update, TrackerRead::D2).is_err());
        assert!(mem.tracker_round(update, TrackerRead::Nothing).is_err());
    }

    #[test]
    fn label_pass_is_bit_identical_across_block_sizes() {
        let m = blobs(300);
        let centers = PointMatrix::from_flat(vec![0.0, 0.0, 40.0, 20.0, 80.0, 40.0], 2).unwrap();
        let exec = Executor::new(Parallelism::Threads(2)).with_shard_size(16);
        let mut resident = LocalBackend::in_memory(&m, None, &exec);
        let (ref_labels, ref_cost, ref_stats) = drive_label_pass(&mut resident, &centers).unwrap();
        for block_rows in [1, 29, 300] {
            let src = source(&m, block_rows);
            let mut backend = LocalBackend::chunked(&src, &exec);
            let (labels, cost, stats) = drive_label_pass(&mut backend, &centers).unwrap();
            assert_eq!(labels, ref_labels, "block_rows {block_rows}");
            assert_eq!(cost.to_bits(), ref_cost.to_bits());
            assert_eq!(stats, ref_stats);
        }
    }
}
