//! **k-means|| — Algorithm 2 of the paper, the primary contribution.**
//!
//! ```text
//! 1: C ← sample a point uniformly at random from X
//! 2: ψ ← φ_X(C)
//! 3: for O(log ψ) times do
//! 4:     C′ ← sample each point x ∈ X independently with probability
//!            p_x = ℓ·d²(x, C) / φ_X(C)
//! 5:     C ← C ∪ C′
//! 6: end for
//! 7: For x ∈ C, set w_x to be the number of points in X closer to x than
//!    to any other point in C
//! 8: Recluster the weighted points in C into k clusters
//! ```
//!
//! Everything the paper's §5 varies is a configuration knob here:
//!
//! * **Oversampling ℓ** ([`Oversampling`]): the paper sweeps
//!   `ℓ ∈ {0.1k, 0.5k, k, 2k, 10k}`.
//! * **Rounds r** ([`Rounds`]): the paper proves `O(log ψ)` suffices and
//!   shows experimentally that `r = 5` is enough (`r = 15` when
//!   `ℓ = 0.1k`, so that `r·ℓ ≥ k`).
//! * **Sampling mode** ([`SamplingMode`]): line 4's independent Bernoulli
//!   draws, or the exact-ℓ variant of §5.3 ("we begin by sampling exactly
//!   ℓ points from the joint distribution in every round") used for
//!   Figure 5.1.
//! * **Reclustering** ([`Recluster`]): Step 8 — weighted k-means++ (the
//!   paper's choice), optionally refined with weighted Lloyd iterations on
//!   the candidate set (as Spark MLlib later did), or a uniform draw as an
//!   ablation.
//!
//! The implementation maintains `d²(x, C)` *and* each point's nearest
//! candidate id incrementally ([`CostTracker`]), so Step 7 costs one O(n)
//! histogram instead of a full `O(n·|C|·d)` pass — see DESIGN.md §4.

use crate::error::KMeansError;
use crate::init::InitStats;
use kmeans_data::PointMatrix;
use kmeans_par::Executor;
use kmeans_util::Rng;

/// The oversampling factor ℓ of Algorithm 2.
#[derive(Clone, Copy, Debug, PartialEq)]
pub enum Oversampling {
    /// `ℓ = factor · k` (the paper's parametrization; it sweeps factors
    /// 0.1–10 and recommends `Θ(k)`).
    Factor(f64),
    /// An absolute expected sample size per round.
    Absolute(f64),
}

impl Oversampling {
    /// Resolves ℓ for a concrete `k`.
    pub fn resolve(&self, k: usize) -> f64 {
        match *self {
            Oversampling::Factor(f) => f * k as f64,
            Oversampling::Absolute(l) => l,
        }
    }
}

/// The number of sampling rounds `r`.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Rounds {
    /// A fixed round count (the paper's experimental setting; 5 by
    /// default).
    Fixed(usize),
    /// The theoretical `⌈ln ψ⌉` rounds of Theorem 1 (ψ is the potential
    /// after the first center), capped to keep worst cases finite.
    LogPsi {
        /// Upper bound on the number of rounds.
        cap: usize,
    },
}

/// How candidates are drawn each round.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum SamplingMode {
    /// Line 4 verbatim: every point independently with probability
    /// `min(1, ℓ·d²/φ)`. The number of candidates per round is random with
    /// expectation ≤ ℓ.
    Bernoulli,
    /// Exactly `round(ℓ)` distinct points per round, drawn without
    /// replacement with probability proportional to `d²` (§5.3's variance
    /// -reduced variant, used for Figure 5.1).
    ExactL,
}

/// What to do when fewer than `k` candidates were selected after all
/// rounds (the paper: with `r·ℓ < k` "we run the risk of having fewer than
/// k centers in the initial set").
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum TopUp {
    /// Keep drawing D²-weighted distinct points until `k` candidates exist
    /// (sensible engineering default — one extra implicit sampling round).
    D2Continue,
    /// Fill the deficit with uniform random points. This reproduces the
    /// paper's Figures 5.2/5.3, where under-sampled configurations
    /// (`r·ℓ < k`) degrade toward `Random`-initialization quality.
    Uniform,
}

/// Step 8: how the weighted candidate set is reduced to `k` centers.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Recluster {
    /// Weighted k-means++ (the paper's choice).
    WeightedKMeansPlusPlus,
    /// Weighted k-means++ followed by this many weighted Lloyd iterations
    /// on the candidate set (cheap: the candidate set is tiny).
    Refined {
        /// Number of weighted Lloyd iterations.
        lloyd_iterations: usize,
    },
    /// Uniform draw of `k` candidates — ablation A2; demonstrates that the
    /// weighting matters.
    Uniform,
}

/// Full configuration of Algorithm 2.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct KMeansParallelConfig {
    /// Oversampling factor ℓ.
    pub oversampling: Oversampling,
    /// Round count r.
    pub rounds: Rounds,
    /// Candidate sampling mode.
    pub sampling: SamplingMode,
    /// Reclustering method for Step 8.
    pub recluster: Recluster,
    /// Deficit policy when fewer than `k` candidates were sampled.
    pub topup: TopUp,
}

impl Default for KMeansParallelConfig {
    /// The paper's recommended configuration: `ℓ = 2k`, `r = 5`, Bernoulli
    /// sampling, weighted k-means++ reclustering.
    fn default() -> Self {
        KMeansParallelConfig {
            oversampling: Oversampling::Factor(2.0),
            rounds: Rounds::Fixed(5),
            sampling: SamplingMode::Bernoulli,
            recluster: Recluster::WeightedKMeansPlusPlus,
            topup: TopUp::D2Continue,
        }
    }
}

impl KMeansParallelConfig {
    /// Convenience constructor with the paper's defaults.
    pub fn new() -> Self {
        Self::default()
    }

    /// Sets `ℓ = factor · k`.
    pub fn oversampling_factor(mut self, factor: f64) -> Self {
        self.oversampling = Oversampling::Factor(factor);
        self
    }

    /// Sets a fixed round count.
    pub fn rounds(mut self, r: usize) -> Self {
        self.rounds = Rounds::Fixed(r);
        self
    }

    /// Selects the sampling mode.
    pub fn sampling(mut self, mode: SamplingMode) -> Self {
        self.sampling = mode;
        self
    }

    /// Selects the reclustering method.
    pub fn recluster(mut self, method: Recluster) -> Self {
        self.recluster = method;
        self
    }

    /// Selects the candidate-deficit policy.
    pub fn topup(mut self, policy: TopUp) -> Self {
        self.topup = policy;
        self
    }

    /// Validates the configuration for a concrete `k`. Public so
    /// distributed frontends running Algorithm 2 over a worker cluster
    /// enforce the exact same contract before any round starts.
    pub fn validate(&self, k: usize) -> Result<(), KMeansError> {
        let l = self.oversampling.resolve(k);
        if !l.is_finite() || l <= 0.0 {
            return Err(KMeansError::InvalidConfig(format!(
                "oversampling must be positive, got ℓ = {l}"
            )));
        }
        match self.rounds {
            Rounds::Fixed(0) => Err(KMeansError::InvalidConfig(
                "rounds must be at least 1".into(),
            )),
            Rounds::LogPsi { cap: 0 } => Err(KMeansError::InvalidConfig(
                "round cap must be at least 1".into(),
            )),
            _ => Ok(()),
        }
    }
}

/// Runs Algorithm 2, returning `k` centers plus accounting.
///
/// Determinism: the outcome is a pure function of
/// `(points, k, config, seed, executor shard size)` — the worker count
/// never changes the result.
///
/// Thin wrapper over the backend-generic
/// [`drive_kmeans_parallel`](crate::driver::drive_kmeans_parallel) on an
/// [`LocalBackend`](crate::driver::LocalBackend) over resident rows: the round logic
/// exists once, shared bit-for-bit with the chunked and distributed
/// execution modes.
pub fn kmeans_parallel(
    points: &PointMatrix,
    k: usize,
    config: &KMeansParallelConfig,
    seed: u64,
    exec: &Executor,
) -> Result<(PointMatrix, InitStats), KMeansError> {
    let mut backend = crate::driver::LocalBackend::in_memory(points, None, exec);
    crate::driver::drive_kmeans_parallel(&mut backend, k, config, seed)
}

/// The Step 4 acceptance predicate: accept the uniform draw `u` iff
/// `u < ℓ·d²/φ` (with `ℓ·d² > 0` gating whether a draw happens at all).
/// One expression shared by a part's prescreen and the fold's exact
/// replay, so both make bit-identical decisions on the same `(u, d², φ)`.
#[inline]
pub fn bernoulli_accept(u: f64, l: f64, d2: f64, phi: f64) -> bool {
    let num = l * d2;
    num > 0.0 && u < num / phi
}

/// Line 4, the part half: independent Bernoulli draws with
/// `p = min(1, ℓ·d²/φ)`, shard parallel, deterministic per `(seed, round,
/// shard)`, returning `(index, u)` for every accepted point — indices
/// local to `d2`, ascending.
///
/// `first_shard` offsets the shard index used for RNG derivation: a part
/// whose row range starts at global shard `s` passes `s` and draws the
/// exact same per-shard streams a pass over every row would.
///
/// RNG consumption is φ-independent — each point with `ℓ·d² > 0` consumes
/// exactly one draw regardless of φ — which is what lets a part run this
/// against a *lower bound* `φ_lo ≤ φ` (its own potential) as a prescreen:
/// the true accept set under the global φ is always a subset of the
/// prescreen set (division by a positive denominator is monotone
/// non-increasing), and the fold replays [`bernoulli_accept`] on the
/// shipped `(u, d²)` pairs with the folded φ to recover it bit for bit.
/// A part that covers every row has `φ_lo = φ`, so its prescreen set is
/// the sample.
pub fn sample_bernoulli_prescreen(
    d2: &[f64],
    l: f64,
    phi: f64,
    seed: u64,
    round: usize,
    exec: &Executor,
    first_shard: usize,
) -> Vec<(usize, f64)> {
    let shard_lists = exec.map_shards(d2.len(), |shard, range| {
        let mut rng = Rng::derive(seed, &[31, round as u64, (first_shard + shard) as u64]);
        let mut picked = Vec::new();
        for i in range {
            if l * d2[i] > 0.0 {
                let u = rng.next_f64();
                if bernoulli_accept(u, l, d2[i], phi) {
                    picked.push((i, u));
                }
            }
        }
        picked
    });
    shard_lists.into_iter().flatten().collect()
}

/// The per-shard half of §5.3 exact-ℓ sampling: Efraimidis–Spirakis keys
/// (`ln(u)/d²`), truncated to the shard-local top-`m`, concatenated in
/// shard order. Keys are comparable across shards (and across workers), so
/// [`exact_sample_merge`] over any union of these lists equals the global
/// top-`m`. `first_shard` plays the same role as in
/// [`sample_bernoulli_prescreen`]; returned indices are local to `d2`.
pub fn exact_sample_keys(
    d2: &[f64],
    m: usize,
    seed: u64,
    round: usize,
    exec: &Executor,
    first_shard: usize,
) -> Vec<(f64, usize)> {
    let shard_tops: Vec<Vec<(f64, usize)>> = exec.map_shards(d2.len(), |shard, range| {
        let mut rng = Rng::derive(seed, &[32, round as u64, (first_shard + shard) as u64]);
        let mut keyed: Vec<(f64, usize)> = Vec::new();
        for i in range {
            let w = d2[i];
            // Zero-weight points (already candidates) draw no key; the RNG
            // is still advanced so that shard streams stay aligned even if
            // coverage changes (cheap and keeps reasoning simple).
            let u = rng.next_f64_open();
            if w > 0.0 {
                keyed.push((u.ln() / w, i));
            }
        }
        // Keep only the shard-local top-m (largest keys).
        keyed.sort_by(|a, b| b.0.partial_cmp(&a.0).unwrap_or(std::cmp::Ordering::Equal));
        keyed.truncate(m);
        keyed
    });
    shard_tops.into_iter().flatten().collect()
}

/// The merge half of §5.3 exact-ℓ sampling: global top-`m` of keyed
/// candidates (ties broken by ascending index), returned as ascending
/// indices. The driver feeds it the concatenation of every part's
/// [`exact_sample_keys`] (with indices already translated to global row
/// ids).
pub fn exact_sample_merge(mut entries: Vec<(f64, usize)>, m: usize) -> Vec<usize> {
    entries.sort_by(|a, b| {
        b.0.partial_cmp(&a.0)
            .unwrap_or(std::cmp::Ordering::Equal)
            .then_with(|| a.1.cmp(&b.1))
    });
    entries.truncate(m);
    let mut indices: Vec<usize> = entries.into_iter().map(|(_, i)| i).collect();
    indices.sort_unstable();
    indices
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cost::potential;
    use kmeans_par::Parallelism;

    fn blobs(n_per: usize, centers: &[f64]) -> PointMatrix {
        let mut m = PointMatrix::new(1);
        for &c in centers {
            for i in 0..n_per {
                m.push(&[c + i as f64 * 1e-3]).unwrap();
            }
        }
        m
    }

    #[test]
    fn returns_k_centers_with_good_coverage() {
        let points = blobs(50, &[0.0, 1e4, 2e4, 3e4, 4e4]);
        let exec = Executor::sequential().with_shard_size(64);
        let config = KMeansParallelConfig::default();
        let mut good = 0;
        for seed in 0..10 {
            let (centers, stats) = kmeans_parallel(&points, 5, &config, seed, &exec).unwrap();
            assert_eq!(centers.len(), 5);
            assert_eq!(stats.rounds, 5);
            assert_eq!(stats.passes, 6);
            assert!(stats.candidates >= 5);
            if potential(&points, &centers, &exec) < 1.0 {
                good += 1;
            }
        }
        assert!(good >= 9, "coverage failed in {}/10 runs", 10 - good);
    }

    #[test]
    fn expected_candidates_close_to_l_times_r() {
        // ℓ = 2k = 20, r = 5 → ~100 candidates (±statistical slack), plus 1.
        let points = blobs(400, &[0.0, 100.0, 200.0, 300.0, 400.0]);
        let exec = Executor::sequential().with_shard_size(128);
        let config = KMeansParallelConfig::default(); // ℓ = 2k, r = 5
        let (_, stats) = kmeans_parallel(&points, 10, &config, 3, &exec).unwrap();
        assert!(
            stats.candidates > 40 && stats.candidates < 180,
            "candidates {} far from ℓ·r = 100",
            stats.candidates
        );
    }

    #[test]
    fn exact_mode_selects_exactly_l_per_round() {
        let points = blobs(500, &[0.0, 50.0, 100.0, 150.0]);
        let exec = Executor::sequential().with_shard_size(256);
        let config = KMeansParallelConfig::default()
            .sampling(SamplingMode::ExactL)
            .oversampling_factor(2.0)
            .rounds(4);
        let (_, stats) = kmeans_parallel(&points, 5, &config, 7, &exec).unwrap();
        // 1 first center + 4 rounds × exactly 10 = 41 candidates.
        assert_eq!(stats.candidates, 41);
    }

    #[test]
    fn identical_across_thread_counts() {
        let points = blobs(200, &[0.0, 77.0, 154.0]);
        let config = KMeansParallelConfig::default();
        let run = |threads: Parallelism| {
            let exec = Executor::new(threads).with_shard_size(64);
            kmeans_parallel(&points, 6, &config, 42, &exec).unwrap()
        };
        let (ref_centers, ref_stats) = run(Parallelism::Sequential);
        for t in [2, 3, 8] {
            let (centers, stats) = run(Parallelism::Threads(t));
            assert_eq!(centers, ref_centers, "threads={t}");
            assert_eq!(stats.candidates, ref_stats.candidates);
        }
    }

    #[test]
    fn exact_mode_identical_across_thread_counts() {
        let points = blobs(200, &[0.0, 77.0, 154.0]);
        let config = KMeansParallelConfig::default().sampling(SamplingMode::ExactL);
        let run = |threads: Parallelism| {
            let exec = Executor::new(threads).with_shard_size(64);
            kmeans_parallel(&points, 6, &config, 42, &exec).unwrap().0
        };
        let reference = run(Parallelism::Sequential);
        assert_eq!(run(Parallelism::Threads(2)), reference);
        assert_eq!(run(Parallelism::Threads(5)), reference);
    }

    #[test]
    fn top_up_guarantees_k_when_rl_below_k() {
        // ℓ = 0.1k and r = 1: expected candidates ≪ k. The top-up must
        // still deliver k centers (the r·ℓ < k risk the paper flags).
        let points = blobs(100, &[0.0, 10.0, 20.0, 30.0]);
        let exec = Executor::sequential();
        let config = KMeansParallelConfig::default()
            .oversampling_factor(0.1)
            .rounds(1);
        let (centers, stats) = kmeans_parallel(&points, 50, &config, 5, &exec).unwrap();
        assert_eq!(centers.len(), 50);
        assert!(stats.candidates >= 50);
    }

    #[test]
    fn uniform_topup_degrades_toward_random() {
        // Ablation for Figures 5.2/5.3: with r·ℓ ≪ k, uniform top-up fills
        // most centers uniformly, so far-out tiny blobs get missed much
        // more often than with D² top-up.
        let mut m = PointMatrix::new(1);
        for i in 0..900 {
            m.push(&[i as f64 * 1e-3]).unwrap();
        }
        // Ten *mutually far* singletons: covering them needs ten separate
        // D² draws, which uniform top-up will not provide.
        for i in 1..=10 {
            m.push(&[i as f64 * 1e6]).unwrap();
        }
        let exec = Executor::sequential();
        let median_cost = |policy: TopUp| {
            let costs: Vec<f64> = (0..11)
                .map(|s| {
                    let config = KMeansParallelConfig::default()
                        .oversampling_factor(0.05)
                        .rounds(1)
                        .topup(policy);
                    let (c, _) = kmeans_parallel(&m, 20, &config, s, &exec).unwrap();
                    potential(&m, &c, &exec)
                })
                .collect();
            kmeans_util::stats::median(&costs).unwrap()
        };
        let d2 = median_cost(TopUp::D2Continue);
        let uniform = median_cost(TopUp::Uniform);
        assert!(
            uniform > 100.0 * d2,
            "uniform top-up {uniform} not ≫ D² top-up {d2}"
        );
    }

    #[test]
    fn duplicate_only_dataset_still_yields_k() {
        let points = PointMatrix::from_flat(vec![3.0; 40], 1).unwrap();
        let exec = Executor::sequential();
        let (centers, _) =
            kmeans_parallel(&points, 4, &KMeansParallelConfig::default(), 1, &exec).unwrap();
        assert_eq!(centers.len(), 4);
    }

    #[test]
    fn k_equals_one() {
        let points = blobs(20, &[0.0, 5.0]);
        let exec = Executor::sequential();
        let (centers, _) =
            kmeans_parallel(&points, 1, &KMeansParallelConfig::default(), 2, &exec).unwrap();
        assert_eq!(centers.len(), 1);
    }

    #[test]
    fn log_psi_rounds_resolve() {
        let points = blobs(100, &[0.0, 1e6]);
        let exec = Executor::sequential();
        let config = KMeansParallelConfig {
            rounds: Rounds::LogPsi { cap: 8 },
            ..Default::default()
        };
        let (_, stats) = kmeans_parallel(&points, 4, &config, 3, &exec).unwrap();
        // ψ ≈ 50 · (1e6)² = 5·10¹³ → ln ≈ 31.5 → capped at 8.
        assert_eq!(stats.rounds, 8);
    }

    #[test]
    fn zero_potential_stops_early() {
        // Two distinct values; after both are candidates φ = 0, so later
        // rounds must not sample anything.
        let points = PointMatrix::from_flat(vec![0.0, 0.0, 9.0, 9.0], 1).unwrap();
        let exec = Executor::sequential();
        let config = KMeansParallelConfig::default().rounds(50);
        let (centers, stats) = kmeans_parallel(&points, 2, &config, 4, &exec).unwrap();
        assert_eq!(centers.len(), 2);
        assert!(stats.rounds < 50, "did not stop early: {}", stats.rounds);
        assert_eq!(potential(&points, &centers, &exec), 0.0);
    }

    #[test]
    fn recluster_variants_all_work() {
        let points = blobs(100, &[0.0, 1e3, 2e3]);
        let exec = Executor::sequential();
        for recluster in [
            Recluster::WeightedKMeansPlusPlus,
            Recluster::Refined {
                lloyd_iterations: 5,
            },
            Recluster::Uniform,
        ] {
            let config = KMeansParallelConfig::default().recluster(recluster);
            let (centers, _) = kmeans_parallel(&points, 3, &config, 6, &exec).unwrap();
            assert_eq!(centers.len(), 3, "{recluster:?}");
        }
    }

    #[test]
    fn weighted_recluster_beats_uniform_recluster() {
        // Ablation A2: with heavy oversampling on skewed data, the weighted
        // recluster should find the three blobs much more reliably than a
        // uniform draw from the candidate set.
        let mut m = PointMatrix::new(1);
        // One huge blob and two tiny far-away blobs.
        for i in 0..500 {
            m.push(&[i as f64 * 1e-3]).unwrap();
        }
        for i in 0..5 {
            m.push(&[1e5 + i as f64 * 1e-3]).unwrap();
            m.push(&[2e5 + i as f64 * 1e-3]).unwrap();
        }
        let exec = Executor::sequential();
        let median = |recluster: Recluster| {
            let costs: Vec<f64> = (0..11)
                .map(|s| {
                    let config = KMeansParallelConfig::default()
                        .oversampling_factor(5.0)
                        .recluster(recluster);
                    let (c, _) = kmeans_parallel(&m, 3, &config, s, &exec).unwrap();
                    potential(&m, &c, &exec)
                })
                .collect();
            kmeans_util::stats::median(&costs).unwrap()
        };
        let weighted = median(Recluster::WeightedKMeansPlusPlus);
        let uniform = median(Recluster::Uniform);
        assert!(
            weighted < uniform,
            "weighted {weighted} not better than uniform {uniform}"
        );
    }

    #[test]
    fn invalid_configs_rejected() {
        let points = blobs(10, &[0.0]);
        let exec = Executor::sequential();
        let bad_l = KMeansParallelConfig::default().oversampling_factor(0.0);
        assert!(kmeans_parallel(&points, 2, &bad_l, 0, &exec).is_err());
        let bad_r = KMeansParallelConfig::default().rounds(0);
        assert!(kmeans_parallel(&points, 2, &bad_r, 0, &exec).is_err());
        let bad_abs = KMeansParallelConfig {
            oversampling: Oversampling::Absolute(f64::NAN),
            ..Default::default()
        };
        assert!(kmeans_parallel(&points, 2, &bad_abs, 0, &exec).is_err());
    }

    #[test]
    fn oversampling_resolution() {
        assert_eq!(Oversampling::Factor(2.0).resolve(10), 20.0);
        assert_eq!(Oversampling::Absolute(7.5).resolve(10), 7.5);
    }
}
