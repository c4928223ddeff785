//! # scalable-kmeans
//!
//! A from-scratch Rust reproduction of **"Scalable K-Means++"** (Bahmani,
//! Moseley, Vattani, Kumar & Vassilvitskii, PVLDB 5(7), 2012) — the
//! **k-means||** initialization algorithm, its baselines, and the full
//! experimental evaluation.
//!
//! This crate is the facade over the workspace:
//!
//! | Crate | Contents |
//! |-------|----------|
//! | [`cluster`] (`kmeans-cluster`) | coordinator/worker distributed runtime: checksummed wire protocol, TCP + loopback transports, `fit_distributed` |
//! | [`core`] (`kmeans-core`) | k-means\|\|, k-means++, Random seeding, Lloyd's iteration, mini-batch k-means, the backend-generic round drivers, metrics, the [`KMeans`] pipeline |
//! | [`data`] (`kmeans-data`) | `PointMatrix` storage, the GaussMixture / SpamLike / KddLike generators, CSV I/O, the `SKMMDL01` model file |
//! | [`obs`] (`kmeans-obs`) | flight recorder: structured spans + counters behind a `Clock`, log2 latency histograms with exact quantiles, Chrome trace JSON, Prometheus text rendering |
//! | [`par`] (`kmeans-par`) | deterministic shard executor |
//! | [`serve`] (`kmeans-serve`) | online assignment service: micro-batching engine, `SKS` protocol, TCP/loopback server + client, atomic model hot-swap |
//! | [`streaming`] (`kmeans-streaming`) | the Partition baseline (Ailon et al.), k-means#, a coreset tree |
//! | [`util`] (`kmeans-util`) | portable RNG, weighted sampling, statistics |
//!
//! ## Quickstart
//!
//! ```
//! use scalable_kmeans::prelude::*;
//!
//! // The paper's synthetic benchmark: 50 Gaussians in 15 dimensions.
//! let synth = GaussMixture::new(50).center_variance(10.0).generate(42)?;
//!
//! // k-means|| seeding (ℓ = 2k, r = 5) followed by Lloyd's iteration.
//! let model = KMeans::params(50).seed(7).fit(synth.dataset.points())?;
//!
//! println!("final cost      = {:.3e}", model.cost());
//! println!("seed cost       = {:.3e}", model.init_stats().seed_cost);
//! println!("lloyd iterations= {}", model.iterations());
//! # Ok::<(), Box<dyn std::error::Error>>(())
//! ```
//!
//! ## Out of core
//!
//! Datasets larger than memory stream through the
//! [`ChunkedSource`](kmeans_data::ChunkedSource) layer — one scan per
//! k-means|| round or Lloyd iteration, bit-identical to the in-memory
//! fit (see `docs/ARCHITECTURE.md`). This is the README's headline
//! example, compiled here so it cannot rot:
//!
//! ```
//! use scalable_kmeans::prelude::*;
//!
//! let synth = GaussMixture::new(16).points(8_192).generate(1)?;
//! let path = std::env::temp_dir().join("readme_oocore.skmb");
//! write_block_file(&path, synth.dataset.points(), 1_024)?;
//!
//! // 256 KiB budget vs ~1 MiB of features: the data is never fully resident.
//! let source = BlockFileSource::open(&path, 256 * 1024)?;
//! let model = KMeans::params(16).seed(7).data_source(source).fit_chunked()?;
//!
//! // Bit-identical to the in-memory fit on the same seed:
//! let reference = KMeans::params(16).seed(7).fit(synth.dataset.points())?;
//! assert_eq!(model.centers(), reference.centers());
//! std::fs::remove_file(path)?;
//! # Ok::<(), Box<dyn std::error::Error>>(())
//! ```
//!
//! Reproduce the paper's tables and figures with the `kmeans-bench`
//! binaries (`cargo run -p kmeans-bench --release --bin table1`, …); see
//! DESIGN.md for the experiment index and EXPERIMENTS.md for measured
//! results.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub use kmeans_cluster as cluster;
pub use kmeans_core as core;
pub use kmeans_data as data;
pub use kmeans_obs as obs;
pub use kmeans_par as par;
pub use kmeans_serve as serve;
pub use kmeans_streaming as streaming;
pub use kmeans_util as util;

pub use kmeans_core::{
    InitMethod, Initializer, KMeans, KMeansError, KMeansModel, KMeansParallelConfig, LloydConfig,
    RefineResult, Refiner,
};

/// Convenient glob-import surface for applications.
pub mod prelude {
    pub use kmeans_cluster::{Cluster, FitDistributed, Worker as ClusterWorker};
    pub use kmeans_core::driver::{BackendKind, LocalBackend, RoundBackend};
    pub use kmeans_core::init::{
        InitMethod, KMeansParallelConfig, Oversampling, Recluster, Rounds, SamplingMode, TopUp,
    };
    pub use kmeans_core::lloyd::LloydConfig;
    pub use kmeans_core::metrics::{adjusted_rand_index, nmi, purity, silhouette_sampled};
    pub use kmeans_core::minibatch::MiniBatchConfig;
    pub use kmeans_core::model::{KMeans, KMeansModel};
    pub use kmeans_core::pipeline::{
        AfkMc2, Initializer, Lloyd, MiniBatch, NoRefine, RefineResult, Refiner,
    };
    pub use kmeans_core::KMeansError;
    pub use kmeans_data::synth::{GaussMixture, KddLike, SpamLike};
    pub use kmeans_data::{
        write_block_file, BlockFileSource, BlockFileWriter, ChunkedSource, CsvSource, Dataset,
        InMemorySource, PointMatrix, Residency,
    };
    pub use kmeans_obs::{FakeClock, HistogramSummary, LatencyHistogram, MonotonicClock, Recorder};
    pub use kmeans_par::{Executor, Parallelism};
    pub use kmeans_serve::{ServeClient, ServeEngine, TcpServeServer};
    pub use kmeans_streaming::partition::{partition_init, PartitionConfig};
    pub use kmeans_streaming::{Coreset, Partition};
    pub use kmeans_util::Rng;
}
