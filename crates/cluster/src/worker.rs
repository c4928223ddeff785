//! The worker: owns one contiguous shard of the data (as a
//! [`ChunkedSource`], typically an `SKMBLK01` block file with a residency
//! budget) and executes the per-partition half of every pass — the
//! "mapper" of the paper's §3.5 sketch.
//!
//! All order-sensitive state lives at the coordinator; the worker only
//! ever computes **per-shard** quantities of the *global* shard grid
//! (per-shard `Σ d²` partials, per-accumulation-shard assignment
//! partials, per-shard sampling with globally derived RNG streams), which
//! is what makes the distributed run bit-identical to a single-node one.
//! The worker-local thread count never affects any value it ships.

use crate::error::ClusterError;
use crate::protocol::{Message, WorkerStats};
use crate::transport::{TcpTransport, Transport};
use kmeans_core::chunked::{assign_partials, LocalData};
use kmeans_core::cost::{potential_shard_sums, CostTracker};
use kmeans_core::init::{exact_sample_keys, sample_bernoulli_prescreen};
use kmeans_core::KMeansError;
use kmeans_data::{ChunkedSource, PointMatrix};
use kmeans_obs::{arg_u64, Recorder, SpanEvent};
use kmeans_par::{Executor, Parallelism};
use std::net::{SocketAddr, TcpListener};
use std::time::Duration;

/// Span category for worker-side frame events.
const WORKER_CAT: &str = "worker";

/// Sink for per-frame [`SpanEvent`]s when live frame logging is armed
/// (see [`Worker::set_frame_log`]).
pub type FrameLog = Box<dyn FnMut(&SpanEvent) + Send>;

/// Per-session state established by [`Message::Plan`].
struct Session {
    global_n: usize,
    start_row: usize,
    shard_size: usize,
    exec: Executor,
    tracker: Option<CostTracker>,
    candidates: PointMatrix,
    labels: Option<Vec<u32>>,
}

/// A worker serving one local data shard over any [`Transport`].
pub struct Worker {
    source: Box<dyn ChunkedSource>,
    parallelism: Parallelism,
    recorder: Recorder,
    log: Option<FrameLog>,
}

impl Worker {
    /// Creates a worker over a local data shard. `parallelism` is the
    /// worker's *local* thread count — never part of the result.
    pub fn new(source: impl ChunkedSource + 'static, parallelism: Parallelism) -> Self {
        Worker {
            source: Box::new(source),
            parallelism,
            recorder: Recorder::disabled(),
            log: None,
        }
    }

    /// Boxed-source constructor (for callers that already erased the type).
    pub fn from_boxed(source: Box<dyn ChunkedSource>, parallelism: Parallelism) -> Self {
        Worker {
            source,
            parallelism,
            recorder: Recorder::disabled(),
            log: None,
        }
    }

    /// Arms the worker-side flight recorder: every served frame records
    /// a `frame:<message>` span (cat `worker`) with the rows touched and
    /// the frame bytes moved. Purely observational — replies are
    /// byte-identical with or without a recorder.
    pub fn set_recorder(&mut self, recorder: Recorder) {
        self.recorder = recorder;
    }

    /// Installs a live per-frame sink: after each served frame the
    /// recorder's new events are drained into `log` (so a long-running
    /// `skm worker --log` prints as it serves instead of at session
    /// end). Requires an enabled recorder to see any events.
    pub fn set_frame_log(&mut self, log: impl FnMut(&SpanEvent) + Send + 'static) {
        self.log = Some(Box::new(log));
    }

    /// Rows a frame touches, for the frame log: full local passes report
    /// the shard size, point-addressed requests their index count.
    fn frame_rows(msg: &Message, local_rows: usize) -> u64 {
        match msg {
            Message::GatherRows { indices } => indices.len() as u64,
            Message::InitTracker { .. }
            | Message::UpdateTracker { .. }
            | Message::Assign { .. }
            | Message::Cost { .. }
            | Message::SampleBernoulliLocal { .. }
            | Message::SampleExact { .. }
            | Message::GatherD2 => local_rows as u64,
            Message::Compound(items) => items.iter().map(|m| Self::frame_rows(m, local_rows)).sum(),
            _ => 0,
        }
    }

    /// Closes one frame span and feeds any new events to the live log.
    fn emit_frame(&mut self, span: kmeans_obs::SpanStart, name: &str, rows: u64, bytes: u64) {
        if !self.recorder.is_enabled() {
            return;
        }
        let full = format!("frame:{name}");
        self.recorder.span(span, &full, WORKER_CAT, || {
            vec![arg_u64("rows", rows), arg_u64("bytes", bytes)]
        });
        if let Some(log) = self.log.as_mut() {
            for e in self.recorder.drain() {
                log(&e);
            }
        }
    }

    /// Serves one coordinator session: sends `Hello`, then answers
    /// requests until `Shutdown` or disconnect. Clustering errors are
    /// relayed as typed [`Message::Error`] replies (with point indices
    /// translated to global coordinates) and the session continues;
    /// transport errors end the session.
    pub fn serve(&mut self, transport: &mut dyn Transport) -> Result<(), ClusterError> {
        let rows = self.source.len();
        let dim = self.source.dim();
        transport.send(&Message::Hello {
            rows: rows as u64,
            dim: dim as u32,
        })?;

        let mut session: Option<Session> = None;
        let mut bytes_mark = transport.bytes_sent() + transport.bytes_received();
        loop {
            let msg = match transport.recv() {
                Ok(m) => m,
                Err(ClusterError::Disconnected) => return Ok(()), // coordinator done
                Err(e) => return Err(e),
            };
            // Frame accounting: the span starts after the request is in
            // (receive wait is coordinator-side idle time, not worker
            // work); the byte mark advances across recv + send, so each
            // frame's delta covers its request and reply together.
            let span = self.recorder.start();
            let frame_name = msg.name();
            let frame_rows = Self::frame_rows(&msg, rows);
            let reply = match msg {
                Message::Plan {
                    global_n,
                    start_row,
                    shard_size,
                    dim: plan_dim,
                } => {
                    if plan_dim as usize != dim {
                        Message::Error(
                            KMeansError::DimensionMismatch {
                                expected: plan_dim as usize,
                                got: dim,
                            }
                            .into(),
                        )
                    } else {
                        session = Some(Session {
                            global_n: global_n as usize,
                            start_row: start_row as usize,
                            shard_size: (shard_size as usize).max(1),
                            exec: Executor::new(self.parallelism)
                                .with_shard_size((shard_size as usize).max(1)),
                            tracker: None,
                            candidates: PointMatrix::new(dim),
                            labels: None,
                        });
                        Message::PlanOk
                    }
                }
                Message::Shutdown => {
                    transport.send(&Message::ShutdownOk)?;
                    let total = transport.bytes_sent() + transport.bytes_received();
                    self.emit_frame(span, frame_name, frame_rows, total - bytes_mark);
                    return Ok(());
                }
                other => match &mut session {
                    None => Message::Error(
                        KMeansError::InvalidConfig("worker received a request before Plan".into())
                            .into(),
                    ),
                    Some(s) => self.handle(s, other),
                },
            };
            transport.send(&reply)?;
            if self.recorder.is_enabled() {
                let total = transport.bytes_sent() + transport.bytes_received();
                self.emit_frame(span, frame_name, frame_rows, total - bytes_mark);
                bytes_mark = total;
            }
        }
    }

    /// Handles one post-plan request, producing the reply. A `Compound`
    /// request executes its sub-messages in order against the session
    /// state and returns one `Compound` of the per-item replies; the
    /// first failing item stops execution with its `Error` in place, so
    /// the coordinator sees exactly how far the round got.
    fn handle(&self, s: &mut Session, msg: Message) -> Message {
        match msg {
            Message::Compound(items) => {
                let mut replies = Vec::with_capacity(items.len());
                for item in items {
                    let reply = match self.try_handle(s, item) {
                        Ok(r) => r,
                        Err(e) => Message::Error(e.into()),
                    };
                    let failed = matches!(reply, Message::Error(_));
                    replies.push(reply);
                    if failed {
                        break;
                    }
                }
                Message::Compound(replies)
            }
            other => match self.try_handle(s, other) {
                Ok(reply) => reply,
                Err(e) => Message::Error(e.into()),
            },
        }
    }

    fn try_handle(&self, s: &mut Session, msg: Message) -> Result<Message, KMeansError> {
        let source = self.source.as_ref();
        let data = LocalData::Blocks(source);
        let offset_err = |e: KMeansError| match e {
            // The worker computes with local row indices; the coordinator
            // (and the user) must see global ones.
            KMeansError::NonFiniteData { point, dim } => KMeansError::NonFiniteData {
                point: point + s.start_row,
                dim,
            },
            other => other,
        };
        match msg {
            Message::InitTracker { centers } => {
                s.candidates = centers;
                let tracker = CostTracker::new(data, &s.candidates, &s.exec).map_err(offset_err)?;
                let sums = per_shard_sums(tracker.d2(), &s.exec);
                s.tracker = Some(tracker);
                Ok(Message::ShardSums { sums })
            }
            Message::UpdateTracker { from, centers } => {
                let tracker = s
                    .tracker
                    .as_mut()
                    .ok_or_else(|| KMeansError::InvalidConfig("no tracker initialized".into()))?;
                if from as usize != s.candidates.len() {
                    return Err(KMeansError::InvalidConfig(format!(
                        "tracker update from {from} but worker holds {} candidates",
                        s.candidates.len()
                    )));
                }
                s.candidates
                    .extend_from(&centers)
                    .map_err(|e| KMeansError::Data(e.to_string()))?;
                tracker
                    .update(data, &s.candidates, from as usize, &s.exec)
                    .map_err(offset_err)?;
                Ok(Message::ShardSums {
                    sums: per_shard_sums(tracker.d2(), &s.exec),
                })
            }
            Message::SampleBernoulliLocal { round, seed, l } => {
                let tracker = s
                    .tracker
                    .as_ref()
                    .ok_or_else(|| KMeansError::InvalidConfig("no tracker initialized".into()))?;
                let first_shard = s.start_row / s.shard_size;
                // Prescreen against the *local* potential: the left fold
                // of this worker's own per-shard d² sums. Floating-point
                // addition of non-negatives is monotone, so this is a
                // guaranteed lower bound on the coordinator's global fold
                // (which folds these same shard sums with a non-negative
                // running prefix) — every true pick survives the
                // prescreen, and the coordinator's exact re-filter drops
                // the rest.
                let phi_lo = per_shard_sums(tracker.d2(), &s.exec)
                    .into_iter()
                    .fold(0.0f64, |a, b| a + b);
                let picked = sample_bernoulli_prescreen(
                    tracker.d2(),
                    l,
                    phi_lo,
                    seed,
                    round as usize,
                    &s.exec,
                    first_shard,
                );
                let local: Vec<usize> = picked.iter().map(|&(i, _)| i).collect();
                let rows = data.gather_rows(&local, &mut data.block_buffer())?;
                Ok(Message::Prescreened {
                    entries: picked
                        .iter()
                        .map(|&(i, u)| ((i + s.start_row) as u64, u, tracker.d2()[i]))
                        .collect(),
                    rows,
                })
            }
            Message::SampleExact { round, seed, m } => {
                let tracker = s
                    .tracker
                    .as_ref()
                    .ok_or_else(|| KMeansError::InvalidConfig("no tracker initialized".into()))?;
                let first_shard = s.start_row / s.shard_size;
                let entries = exact_sample_keys(
                    tracker.d2(),
                    m as usize,
                    seed,
                    round as usize,
                    &s.exec,
                    first_shard,
                );
                Ok(Message::ExactKeys {
                    entries: entries
                        .into_iter()
                        .map(|(key, i)| (key, (i + s.start_row) as u64))
                        .collect(),
                })
            }
            Message::CandidateWeights { m } => {
                let tracker = s
                    .tracker
                    .as_ref()
                    .ok_or_else(|| KMeansError::InvalidConfig("no tracker initialized".into()))?;
                if m as usize != s.candidates.len() {
                    return Err(KMeansError::InvalidConfig(format!(
                        "weights for {m} candidates requested, worker holds {}",
                        s.candidates.len()
                    )));
                }
                Ok(Message::Weights {
                    weights: tracker.weights(m as usize),
                })
            }
            Message::GatherRows { indices } => {
                let local: Vec<usize> = indices
                    .iter()
                    .map(|&g| {
                        let g = g as usize;
                        if g < s.start_row || g >= s.start_row + source.len() {
                            return Err(KMeansError::InvalidConfig(format!(
                                "row {g} outside this worker's range [{}, {})",
                                s.start_row,
                                s.start_row + source.len()
                            )));
                        }
                        Ok(g - s.start_row)
                    })
                    .collect::<Result<_, _>>()?;
                Ok(Message::Rows {
                    rows: data.gather_rows(&local, &mut data.block_buffer())?,
                })
            }
            Message::GatherD2 => {
                let tracker = s
                    .tracker
                    .as_ref()
                    .ok_or_else(|| KMeansError::InvalidConfig("no tracker initialized".into()))?;
                Ok(Message::D2 {
                    values: tracker.d2().to_vec(),
                })
            }
            Message::Assign { centers, labels } => {
                // Kernel counters ride along as the trailing stats field,
                // so the coordinator's fold reports the same measured
                // work a single-node pass would: the previous pass's
                // labels seed the warm sweep here exactly as they do in
                // the single-node backends. A fresh session has none and
                // runs cold — the labels a recovery catch-up rebuilds are
                // the ones the lost worker held, so the next warm pass
                // sees the same hints.
                let fetch = labels;
                let (labels, shards, stats) = assign_partials(
                    data,
                    &centers,
                    &s.exec,
                    s.start_row,
                    s.global_n,
                    s.labels.as_deref(),
                )
                .map_err(offset_err)?;
                let reassigned = match &s.labels {
                    None => source.len() as u64,
                    Some(prev) => prev.iter().zip(&labels).filter(|(a, b)| a != b).count() as u64,
                };
                let shipped = fetch.owed(reassigned).then(|| labels.clone());
                s.labels = Some(labels);
                Ok(Message::Partials {
                    reassigned,
                    shards,
                    stats,
                    labels: shipped,
                })
            }
            Message::Cost { centers } => Ok(Message::ShardSums {
                sums: potential_shard_sums(data, &centers, &s.exec).map_err(offset_err)?,
            }),
            Message::FetchStats => {
                let r = source.residency();
                Ok(Message::Stats(WorkerStats {
                    peak_bytes: r.peak_bytes,
                    loads: r.loads,
                    hits: r.hits,
                    budget_bytes: r.budget_bytes.unwrap_or(u64::MAX),
                }))
            }
            other => Err(KMeansError::InvalidConfig(format!(
                "worker cannot handle message {other:?}"
            ))),
        }
    }
}

/// Per-executor-shard sequential sums of a resident value slice, in shard
/// order — the worker-local half of the coordinator's global potential
/// fold (bit-identical to the in-memory tracker's `map_reduce` resum).
fn per_shard_sums(values: &[f64], exec: &Executor) -> Vec<f64> {
    exec.map_shards(values.len(), |_, range| {
        range.map(|i| values[i]).sum::<f64>()
    })
}

/// A bound TCP listener serving worker sessions — split from the serve
/// loop so callers (tests, the CLI) can learn the bound address before
/// blocking.
pub struct TcpWorkerServer {
    listener: TcpListener,
}

impl TcpWorkerServer {
    /// Binds the listener (e.g. `"127.0.0.1:0"` for an ephemeral port).
    pub fn bind(addr: &str) -> std::io::Result<Self> {
        Ok(TcpWorkerServer {
            listener: TcpListener::bind(addr)?,
        })
    }

    /// The bound address.
    pub fn local_addr(&self) -> std::io::Result<SocketAddr> {
        self.listener.local_addr()
    }

    /// Accepts coordinator connections and serves each as one session.
    /// With `once`, returns after the first session ends; otherwise loops
    /// until accept fails. `io_timeout` bounds every socket read/write.
    pub fn serve(
        self,
        mut worker: Worker,
        io_timeout: Option<Duration>,
        once: bool,
    ) -> Result<(), ClusterError> {
        loop {
            let (stream, _) = self.listener.accept()?;
            let mut transport = TcpTransport::new(stream, io_timeout)?;
            // A failed session (coordinator bug, timeout) should not kill
            // a long-running worker; log-and-continue is the daemon mode.
            let result = worker.serve(&mut transport);
            if once {
                return result;
            }
            if let Err(e) = result {
                eprintln!("skm worker: session ended with error: {e}");
            }
        }
    }
}

/// Spawns a TCP worker on an ephemeral localhost port and serves **one**
/// session on a background thread — the smoke-test harness for real
/// sockets. Returns the bound address and the join handle.
pub fn spawn_tcp_worker(
    source: impl ChunkedSource + 'static,
    parallelism: Parallelism,
    io_timeout: Option<Duration>,
) -> std::io::Result<(
    SocketAddr,
    std::thread::JoinHandle<Result<(), ClusterError>>,
)> {
    let server = TcpWorkerServer::bind("127.0.0.1:0")?;
    let addr = server.local_addr()?;
    let handle = std::thread::spawn(move || {
        server.serve(Worker::new(source, parallelism), io_timeout, true)
    });
    Ok((addr, handle))
}

/// Spawns an in-process loopback worker on a background thread, serving
/// one session over a channel-backed transport — the deterministic
/// multi-worker harness behind the parity tests and CI. Returns the
/// coordinator-side transport and the join handle.
pub fn spawn_loopback_worker(
    source: impl ChunkedSource + 'static,
    parallelism: Parallelism,
) -> (
    crate::transport::LoopbackTransport,
    std::thread::JoinHandle<Result<(), ClusterError>>,
) {
    let (coordinator_side, mut worker_side) = crate::transport::loopback_pair();
    let mut worker = Worker::new(source, parallelism);
    let handle = std::thread::spawn(move || worker.serve(&mut worker_side));
    (coordinator_side, handle)
}
