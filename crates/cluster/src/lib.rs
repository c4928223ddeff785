//! **kmeans-cluster** — a coordinator/worker distributed runtime for
//! k-means|| seeding and Lloyd refinement over sharded block files.
//!
//! The paper's §3.5 observes that every step of Algorithm 2 "is very
//! simple in MapReduce": each mapper samples its partition independently
//! and ships `φ_X′(C)` partials that "the reducer can simply add". This
//! crate makes that realization a real multi-process system:
//!
//! * [`protocol`] — a length-prefixed, checksummed wire protocol
//!   (`std`-only binary frames) carrying centers broadcasts, per-round
//!   sampled candidates, cost partials, and assignment
//!   accumulation-shard partials. The frame machinery it shares with the
//!   serving tier — one frame form, `…2` — lives in [`wire`].
//! * [`transport`] — the [`Transport`] trait with two implementations:
//!   [`TcpTransport`] (real sockets; `skm worker --listen ADDR`) and
//!   [`LoopbackTransport`] (in-process channels moving the *same encoded
//!   frames*, for deterministic tests and CI).
//! * [`worker`] — the per-partition "mapper": owns one contiguous shard
//!   of the data as a `ChunkedSource` (typically an `SKMBLK01` block file
//!   with a residency budget) and computes per-shard partials only.
//! * [`coordinator`] — [`Cluster`]: the fleet conversation, one
//!   scatter/gather exchange for every round, and the distributed
//!   `kmeans_core::driver::RoundBackend`, so the backend-generic round
//!   drivers (the *single* implementation of k-means||, Lloyd,
//!   mini-batch, and random seeding shared with the in-memory and
//!   chunked modes) execute distributed. It folds the decoded worker
//!   parts with kmeans-core's fold functions, the ones a local fit
//!   folds its one part with.
//! * [`fit`] — [`FitDistributed`] puts `fit_distributed` on the standard
//!   [`KMeans`](kmeans_core::model::KMeans) builder, next to `fit` and
//!   `fit_chunked`.
//! * [`fault`] — deterministic fault injection ([`FaultTransport`]):
//!   scripted kills, mid-frame truncations, and delays at exact
//!   `(message tag, occurrence)` triggers, for reproducible chaos tests.
//! * [`checkpoint`] — round checkpoints ([`RoundCheckpoint`],
//!   [`CheckpointingBackend`]): a journal of round results persisted as
//!   an `SKMCKPT1` file so an interrupted distributed fit resumes
//!   bit-identically (`skm fit --distributed --checkpoint FILE`).
//!
//! **The bit-parity contract.** `fit_distributed` returns bit-identical
//! centers, labels, and cost to `fit`/`fit_chunked` on the concatenated
//! worker data, for any worker count, worker-local block size, and
//! worker-local thread count — given the same seed and shard size. Worker
//! row ranges must start on the executor's shard grid (validated by
//! [`Cluster::plan`]; produced by `skm shard --align`), which is what
//! lets per-shard RNG streams and shard-ordered floating-point folds
//! decompose over workers. `tests/distributed_parity.rs` pins the
//! contract across a worker/block-size/thread grid and over both
//! transports.

#![forbid(unsafe_code)]
#![deny(missing_docs)]

pub mod checkpoint;
pub mod coordinator;
pub mod error;
pub mod fault;
pub mod fit;
pub mod protocol;
pub mod retry;
pub mod transport;
pub mod wire;
pub mod worker;

pub use checkpoint::{CheckpointingBackend, RoundCheckpoint};
pub use coordinator::{Cluster, WorkerSummary};
pub use error::ClusterError;
pub use fault::{
    spawn_loopback_worker_with_faults, spawn_tcp_worker_with_faults, FaultAction, FaultTransport,
    Faultable,
};
pub use fit::FitDistributed;
pub use protocol::{FrameError, Message, WorkerStats};
pub use retry::RetryPolicy;
pub use transport::{loopback_pair, LoopbackTransport, TcpTransport, Transport};
pub use wire::{ReadFrameError, WireMessage};
pub use worker::{spawn_loopback_worker, spawn_tcp_worker, TcpWorkerServer, Worker};
