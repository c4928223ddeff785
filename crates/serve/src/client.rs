//! The serve client: handshake, predict/cost/stats/swap/shutdown calls,
//! and the typed-error mapping that makes a served failure surface as
//! the same `KMeansError` a local call would produce.
//!
//! ## Replica-set failover
//!
//! [`ServeClient::connect_any`] turns the client into a replica-set
//! client: it dials the first reachable address from a list, and when a
//! call fails *retryably* — the connection dropped, or the server
//! answered [`WireError::Draining`] / [`WireError::Overloaded`] — it
//! re-dials the next replica under a bounded, jittered
//! [`RetryPolicy`], re-handshakes, and re-sends the request. Only
//! idempotent calls fail over (predict, cost, stats, info refresh):
//! assignment is a pure function of (point, centers), so a replayed
//! request returns the same answer. Mutating calls (`swap_model`,
//! `drain`, `shutdown`) never retry — replaying them against a
//! *different* replica would mutate the wrong server.

use crate::protocol::{ServeMessage, ServeStats};
use kmeans_cluster::protocol::WireError;
use kmeans_cluster::transport::{TcpTransport, Transport};
use kmeans_cluster::{ClusterError, RetryPolicy};
use kmeans_core::KMeansError;
use kmeans_data::{encode_model, ModelRecord, PointMatrix};
use std::net::TcpStream;
use std::time::Duration;

/// The server's model descriptor, captured at handshake (and refreshed
/// by [`ServeClient::refresh_info`]).
#[derive(Debug, Clone, PartialEq)]
pub struct ServedModelInfo {
    /// Monotonic model revision.
    pub revision: u64,
    /// Number of clusters.
    pub k: u64,
    /// Center dimensionality.
    pub dim: u32,
    /// Training cost recorded in the model file.
    pub cost: f64,
    /// Initializer name recorded in the model file.
    pub init_name: String,
    /// Refiner name recorded in the model file.
    pub refiner_name: String,
    /// The server's per-batch point cap — the natural chunk size for
    /// [`ServeClient::predict_chunked`].
    pub batch_cap: u64,
}

/// A predict answer: labels plus the request's potential, all computed
/// under one model revision.
#[derive(Debug, Clone, PartialEq)]
pub struct Prediction {
    /// Revision the request's batch ran on.
    pub revision: u64,
    /// Nearest-center label per query point.
    pub labels: Vec<u32>,
    /// Potential of the query points, bit-identical to a local `cost_of`.
    pub cost: f64,
}

/// Produces a fresh transport for failover attempt `n` (1-based; 0 is
/// the initial connection).
pub type TransportSupplier<T> = Box<dyn FnMut(u32) -> Result<T, ClusterError> + Send>;

struct Failover<T> {
    supplier: TransportSupplier<T>,
    policy: RetryPolicy,
}

/// A call failure, kept typed long enough to classify retryability:
/// `Draining`/`Overloaded` and transport-level failures are worth a
/// different replica; everything else is the request's own fault.
enum CallError {
    Typed(WireError),
    Transport(ClusterError),
}

impl CallError {
    fn retryable(&self) -> bool {
        match self {
            CallError::Typed(WireError::Draining | WireError::Overloaded { .. }) => true,
            CallError::Typed(_) => false,
            CallError::Transport(
                ClusterError::Io(_) | ClusterError::Disconnected | ClusterError::Frame(_),
            ) => true,
            CallError::Transport(_) => false,
        }
    }

    fn into_cluster(self) -> ClusterError {
        match self {
            CallError::Typed(e) => ClusterError::KMeans(e.into()),
            CallError::Transport(e) => e,
        }
    }
}

/// A client session over any transport. Construct with
/// [`ServeClient::connect`] (TCP), [`ServeClient::connect_any`] (TCP
/// replica set with failover), or [`ServeClient::handshake`] (any
/// transport, e.g. loopback).
pub struct ServeClient<T: Transport<ServeMessage> = TcpTransport<ServeMessage>> {
    transport: T,
    info: ServedModelInfo,
    deadline_ms: Option<u64>,
    failover: Option<Failover<T>>,
}

impl<T: Transport<ServeMessage>> std::fmt::Debug for ServeClient<T> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ServeClient")
            .field("info", &self.info)
            .field("deadline_ms", &self.deadline_ms)
            .field("failover", &self.failover.is_some())
            .finish_non_exhaustive()
    }
}

impl ServeClient<TcpTransport<ServeMessage>> {
    /// Dials a serve endpoint and performs the Hello/ModelInfo handshake.
    /// `io_timeout` bounds every socket read/write.
    pub fn connect(addr: &str, io_timeout: Option<Duration>) -> Result<Self, ClusterError> {
        let stream = TcpStream::connect(addr)?;
        Self::handshake(TcpTransport::new(stream, io_timeout)?)
    }

    /// Dials the first reachable replica from `addrs` and enables
    /// failover: a retryable call failure re-dials the replicas (rotating
    /// through the list) under `policy`'s bounded, jittered backoff, then
    /// re-handshakes and re-sends. See the module docs for which calls
    /// fail over.
    pub fn connect_any(
        addrs: &[String],
        io_timeout: Option<Duration>,
        policy: RetryPolicy,
    ) -> Result<Self, ClusterError> {
        if addrs.is_empty() {
            return Err(ClusterError::Protocol("empty replica list".into()));
        }
        let addrs = addrs.to_vec();
        let n = addrs.len();
        let supplier: TransportSupplier<TcpTransport<ServeMessage>> =
            Box::new(move |attempt: u32| {
                // Start at a different replica each attempt so a dead
                // first replica doesn't eat every retry's budget.
                let mut last = None;
                for i in 0..n {
                    let addr = &addrs[(attempt as usize + i) % n];
                    let dialed = TcpStream::connect(addr.as_str())
                        .map_err(ClusterError::from)
                        .and_then(|s| TcpTransport::new(s, io_timeout));
                    match dialed {
                        Ok(t) => return Ok(t),
                        Err(e) => last = Some(e),
                    }
                }
                Err(last.expect("replica list is non-empty"))
            });
        Self::with_failover(supplier, policy)
    }
}

impl<T: Transport<ServeMessage>> ServeClient<T> {
    /// Performs the Hello/ModelInfo handshake over an established
    /// transport.
    pub fn handshake(mut transport: T) -> Result<Self, ClusterError> {
        let info = fetch_info(&mut transport)?;
        Ok(ServeClient {
            transport,
            info,
            deadline_ms: None,
            failover: None,
        })
    }

    /// Enables failover over transports produced by `supplier` (attempt
    /// 0 is the initial connection, made here). The transport-generic
    /// core of [`ServeClient::connect_any`], also used by chaos tests to
    /// fail over across in-process loopback replicas.
    pub fn with_failover(
        mut supplier: TransportSupplier<T>,
        policy: RetryPolicy,
    ) -> Result<Self, ClusterError> {
        let mut last = None;
        for attempt in 0..policy.attempts.max(1) {
            if attempt > 0 {
                std::thread::sleep(policy.delay_for(attempt));
            }
            match supplier(attempt).and_then(|mut t| {
                let info = fetch_info(&mut t)?;
                Ok((t, info))
            }) {
                Ok((transport, info)) => {
                    return Ok(ServeClient {
                        transport,
                        info,
                        deadline_ms: None,
                        failover: Some(Failover { supplier, policy }),
                    })
                }
                Err(e) => last = Some(e),
            }
        }
        Err(last.expect("at least one connection attempt is made"))
    }

    /// The server's model descriptor as of the last handshake/refresh.
    pub fn info(&self) -> &ServedModelInfo {
        &self.info
    }

    /// Sets the deadline budget attached to subsequent predict/cost
    /// requests (`None` = no deadline). A request still queued when its
    /// budget expires draws [`WireError::DeadlineExceeded`] instead of
    /// an answer.
    pub fn set_deadline(&mut self, budget_ms: Option<u64>) {
        self.deadline_ms = budget_ms;
    }

    /// Re-queries the model descriptor (e.g. after a swap elsewhere).
    pub fn refresh_info(&mut self) -> Result<&ServedModelInfo, ClusterError> {
        match self.call(&ServeMessage::Hello, true)? {
            ServeMessage::ModelInfo {
                revision,
                k,
                dim,
                cost,
                init_name,
                refiner_name,
                batch_cap,
            } => {
                self.info = ServedModelInfo {
                    revision,
                    k,
                    dim,
                    cost,
                    init_name,
                    refiner_name,
                    batch_cap,
                };
                Ok(&self.info)
            }
            other => Err(unexpected("ModelInfo", &other)),
        }
    }

    /// Served predict: labels and the request's potential. Bit-identical
    /// to the local `KMeansModel::predict`/`cost_of` on the server's
    /// model (`tests/serve_parity.rs` pins this).
    pub fn predict(&mut self, points: &PointMatrix) -> Result<Prediction, ClusterError> {
        match self.call(
            &ServeMessage::Predict {
                points: points.clone(),
                deadline_ms: self.deadline_ms,
            },
            true,
        )? {
            ServeMessage::Labels {
                revision,
                labels,
                cost,
            } => {
                if labels.len() != points.len() {
                    return Err(ClusterError::Protocol(format!(
                        "predict reply carries {} labels for {} points",
                        labels.len(),
                        points.len()
                    )));
                }
                Ok(Prediction {
                    revision,
                    labels,
                    cost,
                })
            }
            other => Err(unexpected("Labels", &other)),
        }
    }

    /// Served predict of a large input, streamed as bounded chunks of at
    /// most `chunk_points` points so no single request exceeds the
    /// server's batch cap (pass [`ServedModelInfo::batch_cap`]). The concatenated labels are byte-identical
    /// to one unchunked predict — per-point labels are pure functions of
    /// (point, centers) — and every chunk is checked to have run on the
    /// same model revision (a hot-swap mid-stream is a typed error, never
    /// silently mixed labels). The returned cost is the *sum of
    /// per-chunk potentials*: deterministic for a given chunk size, but
    /// folded at chunk boundaries rather than on the whole input's shard
    /// grid.
    pub fn predict_chunked(
        &mut self,
        points: &PointMatrix,
        chunk_points: usize,
    ) -> Result<Prediction, ClusterError> {
        let chunk = chunk_points.max(1);
        if points.len() <= chunk {
            return self.predict(points);
        }
        let dim = points.dim();
        let flat = points.as_slice();
        let mut labels = Vec::with_capacity(points.len());
        let mut cost = 0.0;
        let mut revision = None;
        for start in (0..points.len()).step_by(chunk) {
            let end = (start + chunk).min(points.len());
            let part = PointMatrix::from_flat(flat[start * dim..end * dim].to_vec(), dim)
                .expect("chunk of a valid matrix is a valid matrix");
            let p = self.predict(&part)?;
            match revision {
                None => revision = Some(p.revision),
                Some(rev) if rev != p.revision => {
                    return Err(ClusterError::Protocol(format!(
                        "model revision changed mid-stream ({} -> {}); \
                         chunked labels would mix models",
                        rev, p.revision
                    )));
                }
                Some(_) => {}
            }
            labels.extend_from_slice(&p.labels);
            cost += p.cost;
        }
        Ok(Prediction {
            revision: revision.expect("at least one chunk"),
            labels,
            cost,
        })
    }

    /// Served cost: the potential of `points` under the server's model,
    /// without shipping labels back. Returns `(revision, cost)`.
    pub fn cost_of(&mut self, points: &PointMatrix) -> Result<(u64, f64), ClusterError> {
        let sent = points.len() as u64;
        match self.call(
            &ServeMessage::Cost {
                points: points.clone(),
                deadline_ms: self.deadline_ms,
            },
            true,
        )? {
            ServeMessage::CostReply { revision, n, cost } => {
                if n != sent {
                    return Err(ClusterError::Protocol(format!(
                        "cost reply covers {n} points, sent {sent}"
                    )));
                }
                Ok((revision, cost))
            }
            other => Err(unexpected("CostReply", &other)),
        }
    }

    /// The server's cumulative serving statistics.
    pub fn fetch_stats(&mut self) -> Result<ServeStats, ClusterError> {
        match self.call(&ServeMessage::FetchStats, true)? {
            ServeMessage::Stats(s) => Ok(s),
            other => Err(unexpected("Stats", &other)),
        }
    }

    /// Atomically installs `record` on the server (shipped as an
    /// `SKMMDL01` image, the same bytes `--save-model` writes). Returns
    /// the new revision and refreshes [`ServeClient::info`]. Never fails
    /// over — a replayed swap could land on a different replica.
    pub fn swap_model(&mut self, record: &ModelRecord) -> Result<u64, ClusterError> {
        let image = encode_model(record)
            .map_err(|e| ClusterError::KMeans(KMeansError::Data(e.to_string())))?;
        match self.call(&ServeMessage::SwapModel { model: image }, false)? {
            ServeMessage::SwapOk { revision, .. } => {
                self.refresh_info()?;
                Ok(revision)
            }
            other => Err(unexpected("SwapOk", &other)),
        }
    }

    /// Begins a graceful drain of the *connected* server (never fails
    /// over — draining a different replica than intended would degrade
    /// the wrong server). Returns the points the server still owes
    /// answers for. The server process exits once they are answered.
    pub fn drain(&mut self) -> Result<u64, ClusterError> {
        match self.call(&ServeMessage::Drain, false)? {
            ServeMessage::DrainOk { queued_points } => Ok(queued_points),
            other => Err(unexpected("DrainOk", &other)),
        }
    }

    /// Stops the server (its accept loop exits after acknowledging).
    /// Consumes the client. Never fails over.
    pub fn shutdown(mut self) -> Result<(), ClusterError> {
        match self.call(&ServeMessage::Shutdown, false)? {
            ServeMessage::ShutdownOk => Ok(()),
            other => Err(unexpected("ShutdownOk", &other)),
        }
    }

    /// Hands back the transport (for wire-accounting assertions).
    pub fn into_transport(self) -> T {
        self.transport
    }

    /// One request/reply exchange, with failover when enabled and the
    /// call is idempotent. Non-retryable failures (and every failure
    /// without failover) surface unchanged.
    fn call(&mut self, msg: &ServeMessage, idempotent: bool) -> Result<ServeMessage, ClusterError> {
        let first = match self.raw_roundtrip(msg) {
            Ok(reply) => return Ok(reply),
            Err(e) => e,
        };
        let policy = match &self.failover {
            Some(f) if idempotent && first.retryable() => f.policy,
            _ => return Err(first.into_cluster()),
        };
        let mut last = first;
        for attempt in 1..policy.attempts.max(1) {
            std::thread::sleep(policy.delay_for(attempt));
            match self.redial_and_retry(msg, attempt) {
                Ok(reply) => return Ok(reply),
                Err(e) => {
                    let retryable = e.retryable();
                    last = e;
                    if !retryable {
                        break;
                    }
                }
            }
        }
        Err(last.into_cluster())
    }

    /// Re-dials via the failover supplier, re-handshakes (refreshing
    /// [`ServeClient::info`]), and re-sends `msg`.
    fn redial_and_retry(
        &mut self,
        msg: &ServeMessage,
        attempt: u32,
    ) -> Result<ServeMessage, CallError> {
        let failover = self.failover.as_mut().expect("failover checked by caller");
        let mut transport = (failover.supplier)(attempt).map_err(CallError::Transport)?;
        let info = fetch_info(&mut transport).map_err(CallError::Transport)?;
        self.transport = transport;
        self.info = info;
        self.raw_roundtrip(msg)
    }

    fn raw_roundtrip(&mut self, msg: &ServeMessage) -> Result<ServeMessage, CallError> {
        self.transport.send(msg).map_err(CallError::Transport)?;
        match self.transport.recv().map_err(CallError::Transport)? {
            ServeMessage::Error(e) => Err(CallError::Typed(e)),
            reply => Ok(reply),
        }
    }
}

fn fetch_info<T: Transport<ServeMessage>>(
    transport: &mut T,
) -> Result<ServedModelInfo, ClusterError> {
    transport.send(&ServeMessage::Hello)?;
    match transport.recv()? {
        ServeMessage::ModelInfo {
            revision,
            k,
            dim,
            cost,
            init_name,
            refiner_name,
            batch_cap,
        } => Ok(ServedModelInfo {
            revision,
            k,
            dim,
            cost,
            init_name,
            refiner_name,
            batch_cap,
        }),
        ServeMessage::Error(e) => Err(ClusterError::KMeans(e.into())),
        other => Err(unexpected("ModelInfo", &other)),
    }
}

fn unexpected(wanted: &str, got: &ServeMessage) -> ClusterError {
    ClusterError::Protocol(format!("expected {wanted}, server sent {got:?}"))
}
