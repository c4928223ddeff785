//! **kmeans-serve** — the online assignment service: a long-lived,
//! std-only TCP server that loads a persisted `SKMMDL01` model,
//! batches concurrent predict/cost queries through one prepared
//! assignment kernel by flat combining on the session threads, and
//! hot-swaps models with zero downtime.
//!
//! Scalable K-Means++ (Bahmani et al., VLDB 2012) motivates clustering
//! at web scale — millions of users whose points must be *assigned*
//! continuously, not just clustered once. This crate is that serving
//! tier. Predict is stateless (a pure function of the model's centers),
//! so servers scale horizontally behind the same frame discipline the
//! distributed runtime already ships; what a long-lived server adds over
//! one-shot CLI predict is **amortization**: the assignment kernel's
//! preparation (key-sorted candidate table, slack constants and the
//! separation lists: `O(k²·d)` at worst, close to `O(17·k·d)` when the
//! centers spread along their sort key) is paid once per model revision
//! and reused by every request, and concurrent requests coalesce into
//! one kernel sweep.
//!
//! * [`protocol`] — the `SKS` wire vocabulary ([`ServeMessage`]):
//!   Hello/ModelInfo, Predict→Labels, Cost→CostReply, FetchStats→Stats,
//!   SwapModel→SwapOk, Shutdown→ShutdownOk, plus typed `Error` replies.
//!   Frames share the cluster runtime's checksummed layout
//!   (`kmeans_cluster::wire`) under a distinct magic.
//! * [`engine`] — [`ServeEngine`]: the flat-combining queue (a
//!   submitter that finds no batch running sweeps the queued requests on
//!   its own thread; the engine owns no thread), the
//!   per-revision [`PreparedPredictor`](kmeans_core::PreparedPredictor),
//!   and the atomic hot-swap (`RwLock<Arc<ModelVersion>>`; in-flight
//!   batches finish on the version they started with, every reply is
//!   revision-tagged), plus the overload-robustness machinery: a
//!   points-bounded admission queue that sheds excess load with typed
//!   errors, request deadline budgets, and graceful drain.
//! * [`server`] — [`TcpServeServer`] (thread per connection, shared
//!   engine), the transport-generic [`session`] loop, and the
//!   loopback/TCP spawn harnesses mirroring the cluster worker's.
//! * [`client`] — [`ServeClient`]: handshake + typed calls; a served
//!   failure surfaces as the same `KMeansError` a local call would.
//!   `connect_any` turns it into a replica-set client: bounded jittered
//!   backoff, transparent re-dial on disconnect/drain/overload, and
//!   chunked streaming of large predict inputs.
//! * [`fault`] — deterministic fault injection for the serve protocol:
//!   the cluster runtime's `FaultTransport` instantiated over `SKS`
//!   frames, with scripted kills/truncations/delays at exact
//!   `(message tag, occurrence)` triggers.
//! * [`metrics`] — the `--metrics-listen` endpoint: a hand-rolled
//!   plain-HTTP server answering `GET /metrics` with Prometheus text
//!   exposition (request/batch latency quantiles, per-revision
//!   counters) straight off the engine — curl-readable mid-load.
//!
//! **The serving parity contract.** Served `predict`/`cost_of` are
//! bit-identical to `KMeansModel::predict`/`cost_of` on the same model —
//! for any batch size, client count, server thread count, and across
//! hot-swaps (each reply consistent with exactly one revision) — because
//! per-point labels/`d²` are pure functions of (point, centers) and
//! per-request costs are re-folded on the request's own shard grid.
//! `tests/serve_parity.rs` pins this over both loopback and real TCP.

#![forbid(unsafe_code)]
#![deny(missing_docs)]

pub mod client;
pub mod engine;
pub mod fault;
pub mod metrics;
pub mod protocol;
pub mod server;

pub use client::{Prediction, ServeClient, ServedModelInfo};
pub use engine::{
    AssignReply, EngineConfig, ModelVersion, PauseGuard, ReplyGuard, ServeEngine,
    DEFAULT_MAX_BATCH_POINTS, DEFAULT_QUEUE_CAP_POINTS,
};
pub use fault::{spawn_loopback_serve_with_faults, spawn_tcp_serve_with_faults};
pub use metrics::{render_metrics, MetricsServer};
pub use protocol::{ServeMessage, ServeStats, SERVE_MAGIC};
pub use server::{session, spawn_loopback_serve, spawn_tcp_serve, TcpServeServer};
