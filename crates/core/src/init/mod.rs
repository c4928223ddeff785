//! Seeding algorithms: `Random`, `k-means++` (Algorithm 1), and
//! **`k-means||`** (Algorithm 2 — the paper's contribution).
//!
//! Every initializer returns an [`InitResult`]: exactly `k` centers plus
//! [`InitStats`] with the accounting the paper's tables report — the seed
//! cost ("seed" columns of Tables 1–2), the number of intermediate
//! candidates before reclustering (Table 5), and the number of passes over
//! the data (the quantity that separates k-means|| from k-means++ in
//! Table 4).

mod afkmc2;
mod kmeanspp;
mod parallel;
mod random;

pub use afkmc2::afk_mc2;
pub use kmeanspp::{kmeanspp, weighted_kmeanspp};
pub use parallel::{
    bernoulli_accept, exact_sample_keys, exact_sample_merge, kmeans_parallel,
    sample_bernoulli_prescreen, KMeansParallelConfig, Oversampling, Recluster, Rounds,
    SamplingMode, TopUp,
};
pub use random::random_init;

use crate::error::KMeansError;
use kmeans_data::PointMatrix;
use kmeans_par::Executor;
use std::time::Duration;

/// Accounting for one initialization run.
#[derive(Clone, Debug, Default)]
pub struct InitStats {
    /// Sampling rounds executed (k-means||: `r`; k-means++: `k−1`;
    /// Random: 0).
    pub rounds: usize,
    /// Logical full passes over the dataset (the MapReduce-round count of
    /// §3.5): k-means|| uses `1 + r`, k-means++ uses `k`, Random uses 1.
    pub passes: usize,
    /// Intermediate centers selected before any reclustering — the
    /// quantity Table 5 compares against Partition's coreset size. Equals
    /// `k` for methods with no intermediate set.
    pub candidates: usize,
    /// Potential `φ_X(C)` of the returned centers (the "seed" cost of
    /// Tables 1–2). Includes the evaluation pass, not counted in `passes`.
    pub seed_cost: f64,
    /// Wall time of the initialization (excluding seed-cost evaluation).
    pub duration: Duration,
}

/// The outcome of an initialization: exactly `k` centers plus accounting.
#[derive(Clone, Debug)]
pub struct InitResult {
    /// The `k` seed centers.
    pub centers: PointMatrix,
    /// Accounting.
    pub stats: InitStats,
}

/// Initialization method selector for the [`KMeans`](crate::model::KMeans)
/// pipeline.
#[derive(Clone, Debug, PartialEq)]
pub enum InitMethod {
    /// `k` distinct points chosen uniformly at random — the classical
    /// baseline.
    Random,
    /// Algorithm 1 of the paper (Arthur & Vassilvitskii 2007): sequential
    /// D²-weighted seeding, `k` passes over the data.
    KMeansPlusPlus,
    /// Algorithm 2 of the paper: parallel oversampling + reclustering.
    KMeansParallel(KMeansParallelConfig),
}

impl Default for InitMethod {
    /// The paper's recommended setting: k-means|| with `ℓ = 2k`, `r = 5`.
    fn default() -> Self {
        InitMethod::KMeansParallel(KMeansParallelConfig::default())
    }
}

impl InitMethod {
    /// Runs the initializer, producing `k` centers and stats.
    ///
    /// The seed fully determines the outcome given the executor's shard
    /// size (worker count never matters). Thin wrapper over the
    /// [`Initializer`](crate::pipeline::Initializer) implementation, kept
    /// for source compatibility with pre-pipeline call sites.
    pub fn run(
        &self,
        points: &PointMatrix,
        k: usize,
        seed: u64,
        exec: &Executor,
    ) -> Result<InitResult, KMeansError> {
        crate::pipeline::Initializer::init(self, points, None, k, seed, exec)
    }
}

impl crate::pipeline::Initializer for InitMethod {
    fn name(&self) -> &'static str {
        match self {
            InitMethod::Random => "random",
            InitMethod::KMeansPlusPlus => "kmeans++",
            InitMethod::KMeansParallel(_) => "kmeans-par",
        }
    }

    fn init_backend(
        &self,
        backend: &mut dyn crate::driver::RoundBackend,
        k: usize,
        seed: u64,
    ) -> Result<InitResult, KMeansError> {
        match self {
            InitMethod::Random => crate::pipeline::Random.init_backend(backend, k, seed),
            InitMethod::KMeansPlusPlus => {
                crate::pipeline::KMeansPlusPlus.init_backend(backend, k, seed)
            }
            InitMethod::KMeansParallel(config) => {
                crate::pipeline::KMeansParallel(*config).init_backend(backend, k, seed)
            }
        }
    }

    fn supports_backend(&self, kind: crate::driver::BackendKind) -> bool {
        match self {
            InitMethod::Random => {
                crate::pipeline::Initializer::supports_backend(&crate::pipeline::Random, kind)
            }
            InitMethod::KMeansPlusPlus => crate::pipeline::Initializer::supports_backend(
                &crate::pipeline::KMeansPlusPlus,
                kind,
            ),
            InitMethod::KMeansParallel(config) => crate::pipeline::Initializer::supports_backend(
                &crate::pipeline::KMeansParallel(*config),
                kind,
            ),
        }
    }
}

impl From<InitMethod> for Box<dyn crate::pipeline::Initializer> {
    /// The enum stays a thin selector: any variant converts into the
    /// equivalent boxed trait object.
    fn from(method: InitMethod) -> Self {
        Box::new(method)
    }
}

/// Parameter validation for seeders that read resident rows directly
/// (the weighted arms, AFK-MC², Partition): the shape checks of
/// [`LocalData::validate`](crate::chunked::LocalData::validate) plus a
/// full finiteness scan up front (NaN/∞ coordinates would silently poison
/// every distance downstream). Seeding over a backend checks finiteness
/// in its first full pass instead. Public so out-of-crate
/// [`Initializer`](crate::pipeline::Initializer) implementations (the
/// streaming adapters) enforce the same input contract.
pub fn validate(points: &PointMatrix, k: usize) -> Result<(), KMeansError> {
    let data = crate::chunked::LocalData::from(points);
    data.validate(k)?;
    data.check_finite()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn line_points(n: usize) -> PointMatrix {
        PointMatrix::from_flat((0..n).map(|i| i as f64).collect(), 1).unwrap()
    }

    #[test]
    fn all_methods_return_k_centers_and_stats() {
        let points = line_points(300);
        let exec = Executor::sequential().with_shard_size(64);
        for method in [
            InitMethod::Random,
            InitMethod::KMeansPlusPlus,
            InitMethod::KMeansParallel(KMeansParallelConfig::default()),
        ] {
            let result = method.run(&points, 10, 7, &exec).unwrap();
            assert_eq!(result.centers.len(), 10, "{method:?}");
            assert_eq!(result.centers.dim(), 1);
            assert!(result.stats.seed_cost > 0.0, "{method:?}");
            assert!(result.stats.candidates >= 10, "{method:?}");
            assert!(result.stats.passes >= 1);
        }
    }

    #[test]
    fn pass_accounting_matches_paper_narrative() {
        let points = line_points(200);
        let exec = Executor::sequential();
        let r = InitMethod::Random.run(&points, 8, 1, &exec).unwrap();
        assert_eq!(r.stats.passes, 1);
        let pp = InitMethod::KMeansPlusPlus
            .run(&points, 8, 1, &exec)
            .unwrap();
        assert_eq!(pp.stats.passes, 8); // k passes
        let par = InitMethod::default().run(&points, 8, 1, &exec).unwrap();
        // 1 initial pass + r rounds (default 5).
        assert_eq!(par.stats.passes, 6);
        assert!(par.stats.passes < pp.stats.passes);
    }

    #[test]
    fn invalid_k_is_rejected() {
        let points = line_points(5);
        let exec = Executor::sequential();
        for method in [InitMethod::Random, InitMethod::KMeansPlusPlus] {
            assert!(matches!(
                method.run(&points, 0, 0, &exec),
                Err(KMeansError::InvalidK { .. })
            ));
            assert!(matches!(
                method.run(&points, 6, 0, &exec),
                Err(KMeansError::InvalidK { .. })
            ));
        }
        assert!(matches!(
            InitMethod::default().run(&PointMatrix::new(2), 1, 0, &exec),
            Err(KMeansError::EmptyInput)
        ));
    }

    #[test]
    fn non_finite_data_is_rejected() {
        let exec = Executor::sequential();
        for bad in [f64::NAN, f64::INFINITY, f64::NEG_INFINITY] {
            let points = PointMatrix::from_flat(vec![0.0, 1.0, 2.0, bad, 4.0, 5.0], 2).unwrap();
            let err = InitMethod::default().run(&points, 2, 0, &exec).unwrap_err();
            assert_eq!(
                err,
                KMeansError::NonFiniteData { point: 1, dim: 1 },
                "value {bad}"
            );
        }
    }

    #[test]
    fn seeding_quality_ordering_on_separated_data() {
        // Three tight blobs, far apart, k = 3: D²-seeding must place one
        // center in each blob, while Random frequently does not. We check
        // the *median* seed cost over several seeds.
        let mut m = PointMatrix::new(1);
        for blob in 0..3 {
            for i in 0..50 {
                m.push(&[blob as f64 * 1000.0 + i as f64 * 0.01]).unwrap();
            }
        }
        let exec = Executor::sequential();
        let median_cost = |method: &InitMethod| {
            let costs: Vec<f64> = (0..11)
                .map(|s| method.run(&m, 3, s, &exec).unwrap().stats.seed_cost)
                .collect();
            kmeans_util::stats::median(&costs).unwrap()
        };
        let random = median_cost(&InitMethod::Random);
        let pp = median_cost(&InitMethod::KMeansPlusPlus);
        let par = median_cost(&InitMethod::default());
        // A blob missed by Random costs ~50 · 1000² = 5·10⁷; D² methods
        // land all three blobs, leaving only within-blob spread (≤ ~13).
        assert!(pp < 50.0, "k-means++ seed cost {pp}");
        assert!(par < 50.0, "k-means|| seed cost {par}");
        assert!(random > 1e5, "random seed cost {random}");
    }
}
