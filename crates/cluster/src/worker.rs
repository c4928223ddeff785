//! The worker: owns one contiguous shard of the data (as a
//! [`ChunkedSource`], typically an `SKMBLK01` block file with a residency
//! budget) and serves it as one [`LocalBackend::part`] behind the SKW
//! codec — the "mapper" of the paper's §3.5 sketch.
//!
//! A `Plan` opens the session: the part over the shard's global row
//! range, on an executor with the plan's shard grid. Every later request
//! maps onto one part half of a round-level call — the methods a local
//! fit runs — and the reply carries what it returned, for the
//! coordinator's fold (the local fold, over every worker's part). The
//! worker-local thread count never affects any value it ships.

use crate::error::ClusterError;
use crate::protocol::{wire_usize, Message, WorkerStats};
use crate::transport::{TcpTransport, Transport};
use kmeans_core::driver::{Broadcast, LocalBackend};
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

/// A worker serving one local data shard over any [`Transport`].
pub struct Worker {
    source: Box<dyn ChunkedSource>,
    parallelism: Parallelism,
    frames: FrameLogger,
}

/// The worker's frame accounting: its flight recorder and live log.
struct FrameLogger {
    recorder: Recorder,
    log: Option<FrameLog>,
}

impl Worker {
    /// Creates a worker over a local data shard. `parallelism` is the
    /// worker's *local* thread count — never part of the result.
    pub fn new(source: impl ChunkedSource + 'static, parallelism: Parallelism) -> Self {
        Self::from_boxed(Box::new(source), parallelism)
    }

    /// Boxed-source constructor (for callers that already erased the type).
    pub fn from_boxed(source: Box<dyn ChunkedSource>, parallelism: Parallelism) -> Self {
        Worker {
            source,
            parallelism,
            frames: FrameLogger {
                recorder: Recorder::disabled(),
                log: None,
            },
        }
    }

    /// Arms the worker-side flight recorder: every served frame records
    /// a `frame:<message>` span (cat `worker`) with the rows touched and
    /// the frame bytes moved. Purely observational — replies are
    /// byte-identical with or without a recorder.
    pub fn set_recorder(&mut self, recorder: Recorder) {
        self.frames.recorder = recorder;
    }

    /// Installs a live per-frame sink: after each served frame the
    /// recorder's new events are drained into `log` (so a long-running
    /// `skm worker --log` prints as it serves instead of at session
    /// end). Requires an enabled recorder to see any events.
    pub fn set_frame_log(&mut self, log: impl FnMut(&SpanEvent) + Send + 'static) {
        self.frames.log = Some(Box::new(log));
    }

    /// Serves one coordinator session: sends `Hello`, then answers
    /// requests until `Shutdown` or disconnect. Clustering errors are
    /// relayed as typed [`Message::Error`] replies (with point indices
    /// in global coordinates) and the session continues; transport errors
    /// end the session.
    pub fn serve(&mut self, transport: &mut dyn Transport) -> Result<(), ClusterError> {
        let source = self.source.as_ref();
        let rows = source.len();
        let dim = source.dim();
        transport.send(&Message::Hello {
            rows: rows as u64,
            dim: dim as u32,
        })?;

        let mut session: Option<LocalBackend<'_>> = None;
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
            let span = self.frames.recorder.start();
            let frame_name = msg.name();
            let frame_rows = frame_rows(&msg, rows);
            let reply = match msg {
                Message::Plan {
                    global_n,
                    start_row,
                    shard_size,
                    dim: plan_dim,
                } => {
                    let (start_row, global_n) = (wire_usize(start_row), wire_usize(global_n));
                    if plan_dim as usize != dim {
                        Message::Error(
                            KMeansError::DimensionMismatch {
                                expected: plan_dim as usize,
                                got: dim,
                            }
                            .into(),
                        )
                    } else if start_row.checked_add(rows).is_none_or(|end| end > global_n) {
                        // The part's global indices must not overflow.
                        Message::Error(
                            KMeansError::InvalidConfig(format!(
                                "plan puts this worker's {rows} rows at row {start_row} of \
                                 {global_n}"
                            ))
                            .into(),
                        )
                    } else {
                        let exec = Executor::new(self.parallelism)
                            .with_shard_size(wire_usize(shard_size).max(1));
                        let part = LocalBackend::part(source, exec, start_row, global_n);
                        session = Some(part);
                        Message::PlanOk
                    }
                }
                Message::Shutdown => {
                    transport.send(&Message::ShutdownOk)?;
                    let total = transport.bytes_sent() + transport.bytes_received();
                    self.frames
                        .emit(span, frame_name, frame_rows, total - bytes_mark);
                    return Ok(());
                }
                other => match &mut session {
                    None => Message::Error(
                        KMeansError::InvalidConfig("worker received a request before Plan".into())
                            .into(),
                    ),
                    Some(part) => handle(source, part, other),
                },
            };
            transport.send(&reply)?;
            if self.frames.recorder.is_enabled() {
                let total = transport.bytes_sent() + transport.bytes_received();
                self.frames
                    .emit(span, frame_name, frame_rows, total - bytes_mark);
                bytes_mark = total;
            }
        }
    }
}

/// Rows a frame touches, for the frame log: full local passes report the
/// shard size, point-addressed requests their index count.
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
        Message::Compound(items) => items.iter().map(|m| frame_rows(m, local_rows)).sum(),
        _ => 0,
    }
}

impl FrameLogger {
    /// Closes one frame span and feeds any new events to the live log.
    fn emit(&mut self, span: kmeans_obs::SpanStart, name: &str, rows: u64, bytes: u64) {
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
}

/// Handles one post-plan request, producing the reply. A `Compound`
/// request executes its sub-messages in order against the part and
/// returns one `Compound` of the per-item replies; the first failing item
/// stops execution with its `Error` in place, so the coordinator sees
/// exactly how far the round got. An `Assign` in a `Compound` replays a
/// pass the coordinator has folded (a catch-up), so its reply drops the
/// shard partials and labels, and the catch-up reply stays a few bytes
/// per replayed pass.
fn handle(source: &dyn ChunkedSource, part: &mut LocalBackend<'_>, msg: Message) -> Message {
    match msg {
        Message::Compound(items) => {
            let mut replies = Vec::with_capacity(items.len());
            for item in items {
                let replay = matches!(item, Message::Assign { .. });
                let reply =
                    try_handle(source, part, item).unwrap_or_else(|e| Message::Error(e.into()));
                let failed = matches!(reply, Message::Error(_));
                replies.push(match reply {
                    Message::Partials {
                        reassigned, stats, ..
                    } if replay => Message::Partials {
                        reassigned,
                        shards: Vec::new(),
                        stats,
                        labels: None,
                    },
                    reply => reply,
                });
                if failed {
                    break;
                }
            }
            Message::Compound(replies)
        }
        other => try_handle(source, part, other).unwrap_or_else(|e| Message::Error(e.into())),
    }
}

/// Translates one request into its part call and the part's answer into
/// the reply.
fn try_handle(
    source: &dyn ChunkedSource,
    part: &mut LocalBackend<'_>,
    msg: Message,
) -> Result<Message, KMeansError> {
    if let Some(read) = msg.tracker_read() {
        return Message::read_reply(part.read_part(read)?)
            .ok_or_else(|| KMeansError::InvalidConfig("a read request read nothing".into()));
    }
    Ok(match msg {
        Message::InitTracker { centers } => Message::ShardSums {
            sums: part.broadcast_part(Broadcast::Init(&centers))?,
        },
        Message::UpdateTracker { from, centers } => Message::ShardSums {
            sums: part.broadcast_part(Broadcast::Update {
                from: wire_usize(from),
                rows: &centers,
            })?,
        },
        Message::GatherRows { indices } => {
            let indices: Vec<usize> = indices.into_iter().map(wire_usize).collect();
            let mut rows = PointMatrix::with_capacity(source.dim(), indices.len());
            part.gather_part(&indices, &mut rows)?;
            Message::Rows { rows }
        }
        // The part's hint rule seeds the sweep here exactly as in a local
        // fit: the previous pass's labels, else the seeding tracker. A
        // catch-up rebuilds the tracker (before the first assignment) or
        // the labels (after it) the lost worker held, so the next pass
        // sees the same hints.
        Message::Assign { centers, labels } => {
            let part = part.assign_part(&centers, labels)?;
            Message::Partials {
                reassigned: part.reassigned,
                shards: part.shards,
                stats: part.stats,
                labels: part.labels,
            }
        }
        Message::Cost { centers } => Message::ShardSums {
            sums: part.potential_part(&centers)?,
        },
        Message::FetchStats => {
            let r = source.residency();
            Message::Stats(WorkerStats {
                peak_bytes: r.peak_bytes,
                loads: r.loads,
                hits: r.hits,
                budget_bytes: r.budget_bytes.unwrap_or(u64::MAX),
            })
        }
        other => {
            return Err(KMeansError::InvalidConfig(format!(
                "worker cannot handle message {}",
                other.name()
            )))
        }
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
