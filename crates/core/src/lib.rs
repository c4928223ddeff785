//! **Scalable K-Means++ (k-means||)** — the core library of this
//! reproduction of Bahmani, Moseley, Vattani, Kumar & Vassilvitskii,
//! *"Scalable K-Means++"*, PVLDB 5(7), 2012.
//!
//! k-means++ seeding gives provably good initial centers but needs `k`
//! sequential passes over the data. **k-means||** ([`init::kmeans_parallel`])
//! replaces them with `r ≈ 5` rounds that each sample `ℓ = Θ(k)` points in
//! parallel with probability `ℓ·d²(x,C)/φ_X(C)`, then reclusters the
//! weighted `O(ℓ·r)` candidates down to `k` with weighted k-means++
//! (Theorem 1: an O(α)-approximation when an α-approximate reclusterer is
//! used).
//!
//! Module map — the crate is organized around the two-stage **pipeline
//! architecture**: any seeding strategy ([`pipeline::Initializer`]) feeds
//! any refinement strategy ([`pipeline::Refiner`]) through the
//! [`model::KMeans`] builder.
//!
//! * [`distance`], [`cost`], [`assign`] — the `d²`/potential kernels, the
//!   potential pass, and the incremental [`cost::CostTracker`] all seeding
//!   builds on (one type for resident rows, blocks, and the distributed
//!   workers' sessions).
//! * [`kernel`] — the tiled, register-blocked, norm-bound-pruned batch
//!   assignment kernel every consumer above routes through — bit-identical
//!   to the scalar path for any tile size (the hot-path engine of the
//!   whole workspace).
//! * [`chunked`] — the local passes: one data view,
//!   [`chunked::LocalData`], visits resident rows as one lent block or a
//!   block-resident [`kmeans_data::ChunkedSource`] block by block (§1's
//!   "massive data" premise), so each pass — the assignment pass, the
//!   potential, gathers, the finiteness check — exists once, with the
//!   same bits for any block size.
//! * [`driver`] — the backend-generic round drivers: **one**
//!   implementation of each algorithm's round loop (k-means||, Lloyd,
//!   mini-batch, random seeding), executable on any
//!   [`driver::RoundBackend`] — the local backend (resident rows or a
//!   chunked source) or the distributed cluster backend in
//!   `kmeans-cluster`.
//! * [`pipeline`] — the object-safe [`pipeline::Initializer`] /
//!   [`pipeline::Refiner`] traits, the unified [`pipeline::RefineResult`]
//!   (with distance-evaluation accounting), and the core implementations:
//!   `Random`, `KMeansPlusPlus`, `KMeansParallel`, `AfkMc2` seeders and
//!   `Lloyd`, `MiniBatch`, `NoRefine` refiners. Each stage implements one
//!   method over a [`driver::RoundBackend`]. The streaming seeders
//!   (Partition, coreset tree) implement the same traits from
//!   `kmeans-streaming`.
//! * [`init`] — the seeding algorithms themselves: `Random`, `k-means++`
//!   (Algorithm 1), **`k-means||`** (Algorithm 2) with every knob the
//!   paper's §5 sweeps, plus AFK-MC². [`init::InitMethod`] survives as a
//!   thin enum that converts `Into<Box<dyn pipeline::Initializer>>`.
//! * [`lloyd`] — Lloyd's iteration (parallel, with iteration accounting
//!   and empty-cluster repair) and the weighted variant used by Step 8.
//! * [`minibatch`] — Sculley's mini-batch k-means (extension; paper
//!   reference \[31]).
//! * [`metrics`] — purity / NMI against ground-truth labels.
//! * [`model`] — the [`model::KMeans`] builder tying it all together:
//!   `.init(…)`, `.refine(…)`, `.weights(…)`, `.parallelism(…)`; every
//!   fit runs through its one engine, [`model::KMeans::fit_round_backend`].
//! * [`record`] — the flight recorder's span decorator over any
//!   [`driver::RoundBackend`].
//!
//! Determinism: every algorithm is a pure function of its inputs, a 64-bit
//! seed, and the executor's shard size. Worker counts never change results
//! (see `kmeans-par`). The out-of-core paths preserve this bit-for-bit:
//! block size is *not* part of the reproducibility key.
//!
//! Paper-section map of the public modules:
//!
//! | module | paper anchor |
//! |--------|--------------|
//! | [`distance`], [`cost`] | `d²(x, C)`, potential `φ_X(C)` — §2 notation, §3.1 |
//! | [`init`] (`random`) | §4.2 baseline |
//! | [`init`] (`kmeanspp`) | Algorithm 1 (Arthur & Vassilvitskii) |
//! | [`init`] (`parallel`) | **Algorithm 2 — k-means\|\|**, §3.3–§3.5, §5 knobs |
//! | [`init`] (`afkmc2`) | extension (Bachem et al. 2016) |
//! | [`lloyd`] | §3.1 Lloyd iteration; Step 8's weighted variant |
//! | [`minibatch`] | §7's question about Sculley \[31] |
//! | [`assign`] | the §3.5 MapReduce assignment round |
//! | [`kernel`] | the batch nearest-center engine behind all of the above |
//! | [`chunked`] | §1's memory premise: every local pass as one block scan |
//! | [`driver`] | §3.5's round structure as a backend-generic abstraction |
//! | [`metrics`] | §5 evaluation measures |
//! | [`pipeline`], [`model`] | the seeding/refinement split of §1 as an API |

#![forbid(unsafe_code)]
#![deny(missing_docs)]

pub mod assign;
pub mod chunked;
pub mod cost;
pub mod distance;
pub mod driver;
pub mod error;
pub mod init;
pub mod kernel;
pub mod lloyd;
pub mod metrics;
pub mod minibatch;
pub mod model;
pub mod pipeline;
pub mod record;

pub use error::KMeansError;
pub use init::{InitMethod, InitResult, InitStats, KMeansParallelConfig};
pub use lloyd::{LloydConfig, LloydResult};
pub use model::{KMeans, KMeansModel, PreparedPredictor};
pub use pipeline::{Initializer, RefineResult, Refiner};
pub use record::RecordingBackend;
