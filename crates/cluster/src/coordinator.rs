//! The coordinator's view of a worker cluster: connection bookkeeping,
//! the broadcast/collect conversation, and the order-sensitive folds.
//!
//! **Bit-parity discipline.** Workers only ever ship *per-shard* partial
//! quantities (per-executor-shard `Σ d²` sums, per-accumulation-shard
//! assignment partials, per-shard samples); every order-sensitive
//! floating-point fold happens here, over the concatenation of worker
//! payloads in worker order — which equals global shard order because
//! worker row ranges are contiguous, in order, and validated to start on
//! the shard grid ([`Cluster::plan`]). That is the whole argument for
//! `fit_distributed` being bit-identical to `fit`/`fit_chunked` for any
//! worker count: the same values are folded in the same order, just
//! computed on more machines.
//!
//! **Fault tolerance.** With a recovery path configured
//! ([`Cluster::set_recovery`]; [`Cluster::connect`] installs one that
//! redials the worker's address), a transport-level failure mid-round —
//! disconnect, I/O error, malformed frame — triggers a bounded
//! re-ask: the coordinator obtains a replacement transport for the dead
//! worker's slot, re-handshakes, replays the session state the lost
//! worker held (the plan, the exact tracker segment sequence, the last
//! assignment's centers via `RestoreLabels`), and re-sends the in-flight
//! round request. Because workers hold no order-sensitive fold state —
//! only deterministic functions of (shard data, replayed broadcasts) —
//! the recovered fit is bit-identical to the zero-failure run. Attempts
//! are bounded by [`RetryPolicy`]; exhaustion is the typed
//! [`ClusterError::RecoveryFailed`], never a hang.

use crate::error::ClusterError;
use crate::protocol::{LabelsWanted, Message, WorkerStats};
use crate::transport::Transport;
use kmeans_core::assign::{sum_shard_size_for, ClusterSums};
use kmeans_core::chunked::fold_accum_shards;
use kmeans_core::driver::{SampleOut, SampleSpec};
use kmeans_core::init::bernoulli_accept;
use kmeans_core::kernel::KernelStats;
use kmeans_data::PointMatrix;
use kmeans_obs::{arg_u64, Recorder};
use std::time::{Duration, Instant};

/// Span category for coordinator-side worker conversations and
/// recovery events.
const CLUSTER_CAT: &str = "cluster";

/// One connected worker.
struct WorkerConn {
    transport: Box<dyn Transport>,
    rows: usize,
    start_row: usize,
    /// Byte counters of transports this slot has already worn out —
    /// replaced during recovery — so job accounting stays monotonic.
    retired_sent: u64,
    retired_received: u64,
}

impl WorkerConn {
    fn bytes_sent(&self) -> u64 {
        self.retired_sent + self.transport.bytes_sent()
    }

    fn bytes_received(&self) -> u64 {
        self.retired_received + self.transport.bytes_received()
    }
}

/// One send + one recv on a single worker's transport — the unit step of
/// the recovery replay (free function so replay can iterate coordinator
/// state while holding the slot mutably).
fn roundtrip(w: &mut WorkerConn, msg: &Message) -> Result<Message, ClusterError> {
    w.transport.send(msg)?;
    w.transport.recv()
}

pub use crate::retry::RetryPolicy;

/// Produces a replacement transport for a worker slot (by index). The
/// returned transport must be a fresh worker session about to send its
/// `Hello` — e.g. a redial of the slot's address, or a freshly spawned
/// in-process worker over the same shard.
pub type TransportSupplier =
    Box<dyn FnMut(usize) -> Result<Box<dyn Transport>, ClusterError> + Send>;

struct Recovery {
    supplier: TransportSupplier,
    policy: RetryPolicy,
}

/// Per-worker connection summary for reports.
#[derive(Clone, Debug)]
pub struct WorkerSummary {
    /// Rows the worker serves.
    pub rows: usize,
    /// Global index of the worker's first row.
    pub start_row: usize,
    /// Frame bytes the coordinator sent to this worker.
    pub bytes_sent: u64,
    /// Frame bytes the coordinator received from this worker.
    pub bytes_received: u64,
}

/// A connected set of workers, jointly serving rows `[0, global_n)` in
/// worker order. Construct with [`Cluster::new`] (any transports, e.g.
/// loopback) or [`Cluster::connect`] (TCP), then call [`Cluster::plan`]
/// before any pass.
pub struct Cluster {
    workers: Vec<WorkerConn>,
    global_n: usize,
    dim: usize,
    shard_size: usize,
    data_passes: u64,
    /// Data-round request/reply cycles driven over the fleet — one per
    /// scatter/gather broadcast ([`Cluster::request_all`]) or row gather.
    /// Session control (`Hello`/`Plan`/`Shutdown`) is excluded: it is
    /// per-connection setup, not part of the algorithm's round budget.
    round_trips: u64,
    blocked_wall: Duration,
    recovery: Option<Recovery>,
    /// Replay mirror: the exact `InitTracker`/`UpdateTracker` candidate
    /// segment sequence broadcast so far (updated only after a round
    /// fully succeeds). A replacement worker replays it verbatim, so its
    /// tracker — including nearest-candidate tie-breaks, which depend on
    /// the segment boundaries — is bit-identical to the lost worker's.
    tracker_segments: Vec<PointMatrix>,
    /// Replay mirror: centers of the last completed assignment pass, so
    /// a replacement can rebuild its labels (`RestoreLabels`) and the
    /// next `Assign` counts reassignments exactly as the lost worker
    /// would have.
    last_assign: Option<PointMatrix>,
    /// Flight recorder for the conversation tier: one span per worker
    /// broadcast, instant events for recovery (re-dial, replay, adopt).
    /// Disabled by default — observes only, never affects results.
    recorder: Recorder,
}

impl Cluster {
    /// Builds a cluster from connected transports, in row order: worker
    /// `i`'s rows precede worker `i+1`'s. Receives each worker's `Hello`
    /// and derives the global layout.
    pub fn new(transports: Vec<Box<dyn Transport>>) -> Result<Self, ClusterError> {
        if transports.is_empty() {
            return Err(ClusterError::Protocol("no workers".into()));
        }
        let mut workers = Vec::with_capacity(transports.len());
        let mut start_row = 0usize;
        let mut dim = None;
        for (i, mut transport) in transports.into_iter().enumerate() {
            let (rows, wdim) = match transport.recv()? {
                Message::Hello { rows, dim } => (rows as usize, dim as usize),
                other => {
                    return Err(ClusterError::Protocol(format!(
                        "worker {i} opened with {other:?} instead of Hello"
                    )))
                }
            };
            if rows == 0 {
                return Err(ClusterError::Protocol(format!("worker {i} serves no rows")));
            }
            match dim {
                None => dim = Some(wdim),
                Some(d) if d != wdim => {
                    return Err(ClusterError::Protocol(format!(
                        "worker {i} serves {wdim}-dimensional rows, worker 0 serves {d}"
                    )))
                }
                Some(_) => {}
            }
            workers.push(WorkerConn {
                transport,
                rows,
                start_row,
                retired_sent: 0,
                retired_received: 0,
            });
            start_row += rows;
        }
        Ok(Cluster {
            workers,
            global_n: start_row,
            dim: dim.expect("at least one worker"),
            shard_size: 0,
            data_passes: 0,
            round_trips: 0,
            blocked_wall: Duration::ZERO,
            recovery: None,
            tracker_segments: Vec::new(),
            last_assign: None,
            recorder: Recorder::disabled(),
        })
    }

    /// Arms the flight recorder for this cluster's conversation tier:
    /// every worker broadcast records a `broadcast:<message>` span (cat
    /// `cluster`, with the worker count), and mid-round recovery records
    /// instant events (`recover:redial`) plus an adoption span
    /// (`recover:adopt`) covering the replacement's handshake and replay.
    pub fn set_recorder(&mut self, recorder: Recorder) {
        self.recorder = recorder;
    }

    fn dial(addr: &str, io_timeout: Option<Duration>) -> Result<Box<dyn Transport>, ClusterError> {
        let stream = std::net::TcpStream::connect(addr)?;
        Ok(Box::new(crate::transport::TcpTransport::new(
            stream, io_timeout,
        )?))
    }

    /// Connects to TCP workers at `addrs` (in row order) with the given
    /// per-socket I/O timeout, the default [`RetryPolicy`] on each dial
    /// (a worker that is still starting up does not kill the job), and a
    /// recovery path that redials a worker's address when it fails
    /// mid-round — so restarting `skm worker` on the same address lets
    /// the job adopt the replacement and finish.
    pub fn connect(addrs: &[String], io_timeout: Option<Duration>) -> Result<Self, ClusterError> {
        Self::connect_with_retry(addrs, io_timeout, RetryPolicy::default())
    }

    /// [`Cluster::connect`] with an explicit retry/backoff schedule,
    /// applied both to the initial dials and to mid-round recovery.
    pub fn connect_with_retry(
        addrs: &[String],
        io_timeout: Option<Duration>,
        policy: RetryPolicy,
    ) -> Result<Self, ClusterError> {
        let attempts = policy.attempts.max(1);
        let mut transports: Vec<Box<dyn Transport>> = Vec::with_capacity(addrs.len());
        for addr in addrs {
            let mut dialed: Result<Box<dyn Transport>, ClusterError> =
                Err(ClusterError::Disconnected);
            for attempt in 0..attempts {
                if attempt > 0 {
                    std::thread::sleep(policy.delay_for(attempt));
                }
                dialed = Self::dial(addr, io_timeout);
                if dialed.is_ok() {
                    break;
                }
            }
            transports.push(dialed?);
        }
        let mut cluster = Cluster::new(transports)?;
        let addrs: Vec<String> = addrs.to_vec();
        cluster.set_recovery(
            Box::new(move |slot| Self::dial(&addrs[slot], io_timeout)),
            policy,
        );
        Ok(cluster)
    }

    /// Arms mid-round worker recovery: on a transport-level failure the
    /// coordinator asks `supplier` for a replacement transport for the
    /// slot, replays the lost worker's session state, and re-asks the
    /// in-flight request — up to `policy.attempts` times with
    /// `policy.backoff` between attempts. Without a recovery path (the
    /// [`Cluster::new`] default) failures stay immediate typed errors.
    pub fn set_recovery(&mut self, supplier: TransportSupplier, policy: RetryPolicy) {
        self.recovery = Some(Recovery { supplier, policy });
    }

    /// Total rows across all workers.
    pub fn global_n(&self) -> usize {
        self.global_n
    }

    /// Row dimensionality.
    pub fn dim(&self) -> usize {
        self.dim
    }

    /// Number of workers.
    pub fn num_workers(&self) -> usize {
        self.workers.len()
    }

    /// The planned executor shard size (0 before [`Cluster::plan`]).
    pub fn shard_size(&self) -> usize {
        self.shard_size
    }

    /// Establishes the fit's global layout on every worker and validates
    /// the boundary contract: every worker's start row must be a multiple
    /// of the accumulation shard size — which is itself a multiple of the
    /// executor shard size ([`sum_shard_size_for`] nests the grids) — so
    /// both the executor-shard grid (per-shard RNG streams, potential
    /// folds) and the accumulation-shard grid (assignment folds) decompose
    /// over workers without crossing a boundary.
    pub fn plan(&mut self, shard_size: usize) -> Result<(), ClusterError> {
        let shard_size = shard_size.max(1);
        let required = sum_shard_size_for(shard_size, self.global_n);
        debug_assert_eq!(required % shard_size, 0, "accumulation grid must nest");
        for (i, w) in self.workers.iter().enumerate() {
            if w.start_row % required != 0 {
                return Err(ClusterError::Misaligned {
                    worker: i,
                    start_row: w.start_row,
                    required,
                });
            }
        }
        self.shard_size = shard_size;
        self.data_passes = 0;
        self.round_trips = 0;
        self.blocked_wall = Duration::ZERO;
        self.tracker_segments.clear();
        self.last_assign = None;
        let dim = self.dim as u32;
        let global_n = self.global_n as u64;
        let plans: Vec<Message> = self
            .workers
            .iter()
            .map(|w| Message::Plan {
                global_n,
                start_row: w.start_row as u64,
                shard_size: shard_size as u64,
                dim,
            })
            .collect();
        let n = self.workers.len();
        let mut early: Vec<Option<Message>> = std::iter::repeat_with(|| None).take(n).collect();
        for i in 0..n {
            if let Err(e) = self.workers[i].transport.send(&plans[i]) {
                early[i] = Some(self.reask(i, &plans[i], e)?);
            }
        }
        let mut replies = Vec::with_capacity(n);
        let mut first_err: Option<ClusterError> = None;
        for (i, slot_early) in early.into_iter().enumerate() {
            let r = match slot_early {
                Some(m) => Ok(m),
                None => self.workers[i].transport.recv(),
            };
            let r = match r {
                Err(e) if first_err.is_none() => self.reask(i, &plans[i], e),
                other => other,
            };
            match r {
                Ok(m) => replies.push(m),
                Err(e) => {
                    first_err.get_or_insert(e);
                    replies.push(Message::ShutdownOk); // placeholder, never read
                }
            }
        }
        if let Some(e) = first_err {
            return Err(e);
        }
        for (i, r) in replies.into_iter().enumerate() {
            if r != Message::PlanOk {
                return Err(ClusterError::Protocol(format!(
                    "worker {i} answered Plan with {r:?}"
                )));
            }
        }
        Ok(())
    }

    /// Whether a failure class is worth a recovery attempt: transport
    /// breakage (disconnects, I/O errors, bad frames) is; a well-formed
    /// remote/protocol error is deterministic and is not.
    fn recoverable(e: &ClusterError) -> bool {
        matches!(
            e,
            ClusterError::Io(_) | ClusterError::Frame(_) | ClusterError::Disconnected
        )
    }

    /// Bounded recovery of worker `slot` after `trigger`: obtain a
    /// replacement transport, rebuild the session, re-send `request`,
    /// and return its reply. Without a recovery path — or for a
    /// non-transport failure — returns `trigger` unchanged; after
    /// exhausting the policy's attempts, [`ClusterError::RecoveryFailed`].
    fn reask(
        &mut self,
        slot: usize,
        request: &Message,
        trigger: ClusterError,
    ) -> Result<Message, ClusterError> {
        let policy = match &self.recovery {
            Some(r) if Self::recoverable(&trigger) => r.policy,
            _ => return Err(trigger),
        };
        let attempts = policy.attempts.max(1);
        let mut last = trigger;
        for attempt in 0..attempts {
            std::thread::sleep(policy.delay_for(attempt + 1));
            self.recorder.instant("recover:redial", CLUSTER_CAT, || {
                vec![
                    arg_u64("worker", slot as u64),
                    arg_u64("attempt", attempt as u64 + 1),
                ]
            });
            match self.try_adopt(slot, request) {
                Ok(reply) => return Ok(reply),
                Err(e) => last = e,
            }
        }
        self.recorder.instant("recover:failed", CLUSTER_CAT, || {
            vec![
                arg_u64("worker", slot as u64),
                arg_u64("attempts", attempts as u64),
            ]
        });
        Err(ClusterError::RecoveryFailed {
            worker: slot,
            attempts,
            last: Box::new(last),
        })
    }

    /// One recovery attempt: replacement transport → `Hello` validation
    /// → adopt into the slot → replay plan + tracker segments + last
    /// assignment labels → re-send the in-flight request.
    fn try_adopt(&mut self, slot: usize, request: &Message) -> Result<Message, ClusterError> {
        let adopt_span = self.recorder.start();
        let recovery = self.recovery.as_mut().expect("recovery configured");
        let mut transport = (recovery.supplier)(slot)?;
        let (rows, wdim) = match transport.recv()? {
            Message::Hello { rows, dim } => (rows as usize, dim as usize),
            other => {
                return Err(ClusterError::Protocol(format!(
                    "replacement worker {slot} opened with {other:?} instead of Hello"
                )))
            }
        };
        if rows != self.workers[slot].rows || wdim != self.dim {
            return Err(ClusterError::Protocol(format!(
                "replacement worker {slot} serves {rows} rows × {wdim} dims, expected {} × {}",
                self.workers[slot].rows, self.dim
            )));
        }
        let old = std::mem::replace(&mut self.workers[slot].transport, transport);
        self.workers[slot].retired_sent += old.bytes_sent();
        self.workers[slot].retired_received += old.bytes_received();
        drop(old);
        if self.shard_size > 0 {
            let plan = Message::Plan {
                global_n: self.global_n as u64,
                start_row: self.workers[slot].start_row as u64,
                shard_size: self.shard_size as u64,
                dim: self.dim as u32,
            };
            match roundtrip(&mut self.workers[slot], &plan)? {
                Message::PlanOk => {}
                other => {
                    return Err(ClusterError::Protocol(format!(
                        "replacement worker {slot} answered Plan with {other:?}"
                    )))
                }
            }
            // Replay the exact broadcast sequence the lost worker saw;
            // the per-segment ShardSums replies were already folded
            // before the failure and are discarded here.
            let mut from = 0u64;
            for (i, seg) in self.tracker_segments.iter().enumerate() {
                let msg = if i == 0 {
                    Message::InitTracker {
                        centers: seg.clone(),
                    }
                } else {
                    Message::UpdateTracker {
                        from,
                        centers: seg.clone(),
                    }
                };
                match roundtrip(&mut self.workers[slot], &msg)? {
                    Message::ShardSums { .. } => {}
                    Message::Error(e) => {
                        return Err(ClusterError::Remote {
                            worker: slot,
                            error: e.into(),
                        })
                    }
                    other => {
                        return Err(ClusterError::Protocol(format!(
                            "replacement worker {slot} answered tracker replay with {other:?}"
                        )))
                    }
                }
                from += seg.len() as u64;
            }
            if let Some(centers) = &self.last_assign {
                let msg = Message::RestoreLabels {
                    centers: centers.clone(),
                };
                match roundtrip(&mut self.workers[slot], &msg)? {
                    Message::RestoreOk => {}
                    Message::Error(e) => {
                        return Err(ClusterError::Remote {
                            worker: slot,
                            error: e.into(),
                        })
                    }
                    other => {
                        return Err(ClusterError::Protocol(format!(
                            "replacement worker {slot} answered RestoreLabels with {other:?}"
                        )))
                    }
                }
            }
        }
        let reply = roundtrip(&mut self.workers[slot], request)?;
        // The adoption span covers handshake + plan + tracker/label
        // replay + the re-asked request, so a recovered round's extra
        // wall time is visible in the trace next to the recover:redial
        // instants.
        let segments = self.tracker_segments.len() as u64;
        let restored = self.last_assign.is_some() as u64;
        self.recorder
            .span(adopt_span, "recover:adopt", CLUSTER_CAT, || {
                vec![
                    arg_u64("worker", slot as u64),
                    arg_u64("replayed_segments", segments),
                    arg_u64("labels_restored", restored),
                ]
            });
        Ok(reply)
    }

    /// Receives exactly one reply from every worker (in worker order) —
    /// `early` carries replies already obtained on the send path —
    /// recovering failed workers along the way when a recovery path is
    /// armed (`request` is re-asked), then surfaces the first error, if
    /// any. Draining all replies before failing keeps every conversation
    /// in sync.
    fn collect_all_with_early(
        &mut self,
        request: &Message,
        mut early: Vec<Option<Message>>,
    ) -> Result<Vec<Message>, ClusterError> {
        let n = self.workers.len();
        early.resize_with(n, || None);
        let mut replies = Vec::with_capacity(n);
        let mut first_err: Option<ClusterError> = None;
        for (i, slot_early) in early.into_iter().enumerate() {
            let r = match slot_early {
                Some(m) => Ok(m),
                None => self.workers[i].transport.recv(),
            };
            let r = match r {
                Err(e) if first_err.is_none() => self.reask(i, request, e),
                other => other,
            };
            match r {
                Ok(m) => replies.push(m),
                Err(e) => {
                    first_err.get_or_insert(e);
                    replies.push(Message::ShutdownOk); // placeholder, never read
                }
            }
        }
        if let Some(e) = first_err {
            return Err(e);
        }
        for (i, r) in replies.iter().enumerate() {
            if let Message::Error(e) = r {
                return Err(ClusterError::Remote {
                    worker: i,
                    error: e.clone().into(),
                });
            }
        }
        Ok(replies)
    }

    /// Broadcasts one message to every worker and collects the replies
    /// (recovering mid-round failures when a recovery path is armed).
    fn request_all(&mut self, msg: &Message) -> Result<Vec<Message>, ClusterError> {
        let t0 = Instant::now();
        let span = self.recorder.start();
        self.round_trips += 1;
        let n = self.workers.len();
        let mut early: Vec<Option<Message>> = std::iter::repeat_with(|| None).take(n).collect();
        for (i, slot) in early.iter_mut().enumerate() {
            if let Err(e) = self.workers[i].transport.send(msg) {
                match self.reask(i, msg, e) {
                    Ok(reply) => *slot = Some(reply),
                    Err(e) => {
                        self.blocked_wall += t0.elapsed();
                        self.finish_broadcast_span(span, msg, n, false);
                        return Err(e);
                    }
                }
            }
        }
        let replies = self.collect_all_with_early(msg, early);
        self.blocked_wall += t0.elapsed();
        self.finish_broadcast_span(span, msg, n, replies.is_ok());
        replies
    }

    /// Closes the conversation span opened at the top of a broadcast.
    fn finish_broadcast_span(
        &self,
        span: kmeans_obs::SpanStart,
        msg: &Message,
        workers: usize,
        ok: bool,
    ) {
        if !self.recorder.is_enabled() {
            return;
        }
        let name = format!("broadcast:{}", msg.name());
        self.recorder.span(span, &name, CLUSTER_CAT, || {
            vec![arg_u64("workers", workers as u64), arg_u64("ok", ok as u64)]
        });
    }

    /// Collects `ShardSums` replies into one global per-shard list (worker
    /// order = shard order) — the input to the potential fold.
    fn request_shard_sums(&mut self, msg: &Message) -> Result<Vec<f64>, ClusterError> {
        let replies = self.request_all(msg)?;
        let mut all = Vec::new();
        for (i, r) in replies.into_iter().enumerate() {
            match r {
                Message::ShardSums { sums } => all.extend(sums),
                other => {
                    return Err(ClusterError::Protocol(format!(
                        "worker {i} answered with {other:?} instead of ShardSums"
                    )))
                }
            }
        }
        self.data_passes += 1;
        Ok(all)
    }

    /// The shard-ordered left fold — bit-identical to the single-node
    /// `map_reduce`/`ShardSum` fold on the same per-shard values.
    fn fold(sums: Vec<f64>) -> f64 {
        sums.into_iter().reduce(|a, b| a + b).unwrap_or(0.0)
    }

    /// Broadcast an initial candidate set; workers build their tracker
    /// slices. Returns the global potential ψ.
    pub fn tracker_init(&mut self, centers: &PointMatrix) -> Result<f64, ClusterError> {
        let sums = self.request_shard_sums(&Message::InitTracker {
            centers: centers.clone(),
        })?;
        // Round succeeded on every worker: this segment is now part of
        // the replay mirror for any later recovery.
        self.tracker_segments = vec![centers.clone()];
        Ok(Self::fold(sums))
    }

    /// Broadcast newly appended candidates (`from` = index of the first
    /// new row). Returns the updated global potential φ.
    pub fn tracker_update(
        &mut self,
        from: usize,
        new_rows: &PointMatrix,
    ) -> Result<f64, ClusterError> {
        let sums = self.request_shard_sums(&Message::UpdateTracker {
            from: from as u64,
            centers: new_rows.clone(),
        })?;
        self.tracker_segments.push(new_rows.clone());
        Ok(Self::fold(sums))
    }

    /// Unpacks one worker's fused-round reply: a `Compound` of exactly
    /// `arity` items. A worker stops a compound at its first failing
    /// sub-message and ships the (shorter) batch ending in `Error`, so a
    /// trailing error item is surfaced as the typed remote error before
    /// the arity check.
    fn unpack_compound(
        worker: usize,
        reply: Message,
        arity: usize,
    ) -> Result<Vec<Message>, ClusterError> {
        match reply {
            Message::Compound(items) => {
                if let Some(Message::Error(e)) =
                    items.iter().find(|m| matches!(m, Message::Error(_)))
                {
                    return Err(ClusterError::Remote {
                        worker,
                        error: e.clone().into(),
                    });
                }
                if items.len() == arity {
                    return Ok(items);
                }
                Err(ClusterError::Protocol(format!(
                    "worker {worker} answered a {arity}-step compound with {} items",
                    items.len()
                )))
            }
            other => Err(ClusterError::Protocol(format!(
                "worker {worker} answered with {other:?} instead of Compound"
            ))),
        }
    }

    /// The shared body of the fused tracker rounds: broadcasts one
    /// `Compound([tracker_msg, sample_msg?])`, folds the global potential
    /// from the `ShardSums` parts (worker order = shard order), and
    /// resolves the piggybacked sample against that *folded* potential.
    ///
    /// Bernoulli parity argument: workers prescreen with their local
    /// left-folded `φ_lo` — a guaranteed lower bound on the global folded
    /// φ (non-negative summands; folding the same segment from a larger
    /// initial accumulator never decreases the result), and acceptance
    /// `u < ℓ·d²/φ` is monotone non-increasing in φ — so the true accept
    /// set is a subset of the prescreen set. The coordinator re-applies
    /// the exact test with the exact per-point draw `u` the worker
    /// consumed, making the fused round bit-identical to the two-round
    /// conversation it replaces.
    fn tracker_round_sampled(
        &mut self,
        tracker_msg: Message,
        segment: &PointMatrix,
        round: usize,
        seed: u64,
        spec: Option<SampleSpec>,
    ) -> Result<(f64, Option<SampleOut>), ClusterError> {
        let sample_msg = spec.map(|s| match s {
            SampleSpec::Bernoulli { l } => Message::SampleBernoulliLocal {
                round: round as u64,
                seed,
                l,
            },
            SampleSpec::ExactKeys { m } => Message::SampleExact {
                round: round as u64,
                seed,
                m: m as u64,
            },
        });
        let arity = 1 + sample_msg.iter().count();
        let mut items = vec![tracker_msg];
        items.extend(sample_msg);
        let replies = self.request_all(&Message::Compound(items))?;
        let mut sums = Vec::new();
        let mut sample_parts = Vec::with_capacity(replies.len());
        for (i, r) in replies.into_iter().enumerate() {
            let mut parts = Self::unpack_compound(i, r, arity)?.into_iter();
            match parts.next() {
                Some(Message::ShardSums { sums: s }) => sums.extend(s),
                other => {
                    return Err(ClusterError::Protocol(format!(
                        "worker {i} answered tracker step with {other:?} instead of ShardSums"
                    )))
                }
            }
            if let Some(part) = parts.next() {
                sample_parts.push((i, part));
            }
        }
        self.data_passes += 1;
        self.tracker_segments.push(segment.clone());
        let phi = Self::fold(sums);
        let out = match spec {
            None => None,
            Some(SampleSpec::Bernoulli { l }) => {
                let mut indices = Vec::new();
                let mut rows = PointMatrix::new(self.dim);
                for (i, part) in sample_parts {
                    let (entries, picked) = match part {
                        Message::Prescreened { entries, rows } => (entries, rows),
                        other => {
                            return Err(ClusterError::Protocol(format!(
                            "worker {i} answered sample step with {other:?} instead of Prescreened"
                        )))
                        }
                    };
                    if entries.len() != picked.len() {
                        return Err(ClusterError::Protocol(format!(
                            "worker {i} prescreened {} entries but shipped {} rows",
                            entries.len(),
                            picked.len()
                        )));
                    }
                    for (j, (g, u, d2)) in entries.into_iter().enumerate() {
                        if bernoulli_accept(u, l, d2, phi) {
                            indices.push(g as usize);
                            rows.push(picked.row(j)).map_err(|e| {
                                ClusterError::Protocol(format!(
                                    "worker {i} prescreened ragged rows: {e}"
                                ))
                            })?;
                        }
                    }
                }
                Some(SampleOut::Picked { indices, rows })
            }
            Some(SampleSpec::ExactKeys { .. }) => {
                let mut entries = Vec::new();
                for (i, part) in sample_parts {
                    match part {
                        Message::ExactKeys { entries: e } => {
                            entries.extend(e.into_iter().map(|(key, g)| (key, g as usize)));
                        }
                        other => {
                            return Err(ClusterError::Protocol(format!(
                            "worker {i} answered sample step with {other:?} instead of ExactKeys"
                        )))
                        }
                    }
                }
                Some(SampleOut::Keys(entries))
            }
        };
        Ok((phi, out))
    }

    /// Fused round 0: `InitTracker` + the round's sampling step in one
    /// wire round trip. Returns the global ψ and the resolved sample.
    pub fn tracker_init_sampled(
        &mut self,
        centers: &PointMatrix,
        round: usize,
        seed: u64,
        spec: Option<SampleSpec>,
    ) -> Result<(f64, Option<SampleOut>), ClusterError> {
        self.tracker_segments.clear();
        self.tracker_round_sampled(
            Message::InitTracker {
                centers: centers.clone(),
            },
            centers,
            round,
            seed,
            spec,
        )
    }

    /// Fused mid round: `UpdateTracker` + the next round's sampling step
    /// in one wire round trip. Returns the global φ and the sample.
    pub fn tracker_update_sampled(
        &mut self,
        from: usize,
        new_rows: &PointMatrix,
        round: usize,
        seed: u64,
        spec: Option<SampleSpec>,
    ) -> Result<(f64, Option<SampleOut>), ClusterError> {
        self.tracker_round_sampled(
            Message::UpdateTracker {
                from: from as u64,
                centers: new_rows.clone(),
            },
            new_rows,
            round,
            seed,
            spec,
        )
    }

    /// Fused closing round: the last `UpdateTracker` + Step 7's
    /// `CandidateWeights` in one wire round trip.
    pub fn tracker_update_weighted(
        &mut self,
        from: usize,
        new_rows: &PointMatrix,
        m: usize,
    ) -> Result<Vec<f64>, ClusterError> {
        let items = vec![
            Message::UpdateTracker {
                from: from as u64,
                centers: new_rows.clone(),
            },
            Message::CandidateWeights { m: m as u64 },
        ];
        let replies = self.request_all(&Message::Compound(items))?;
        let mut total = vec![0.0f64; m];
        for (i, r) in replies.into_iter().enumerate() {
            let mut parts = Self::unpack_compound(i, r, 2)?.into_iter();
            match parts.next() {
                Some(Message::ShardSums { .. }) => {}
                other => {
                    return Err(ClusterError::Protocol(format!(
                        "worker {i} answered tracker step with {other:?} instead of ShardSums"
                    )))
                }
            }
            match parts.next() {
                Some(Message::Weights { weights }) => {
                    if weights.len() != m {
                        return Err(ClusterError::Protocol(format!(
                            "worker {i} sent {} weights for {m} candidates",
                            weights.len()
                        )));
                    }
                    for (acc, w) in total.iter_mut().zip(weights) {
                        // Integer-valued counts: float addition is exact.
                        *acc += w;
                    }
                }
                other => {
                    return Err(ClusterError::Protocol(format!(
                        "worker {i} answered weights step with {other:?} instead of Weights"
                    )))
                }
            }
        }
        self.data_passes += 1;
        self.tracker_segments.push(new_rows.clone());
        Ok(total)
    }

    /// One Bernoulli sampling round (Step 4). Returns the picked global
    /// indices (ascending) and their rows, in the same order.
    pub fn sample_bernoulli_round(
        &mut self,
        round: usize,
        seed: u64,
        l: f64,
        phi: f64,
    ) -> Result<(Vec<usize>, PointMatrix), ClusterError> {
        let replies = self.request_all(&Message::SampleBernoulli {
            round: round as u64,
            seed,
            l,
            phi,
        })?;
        let mut indices = Vec::new();
        let mut rows = PointMatrix::new(self.dim);
        for (i, r) in replies.into_iter().enumerate() {
            match r {
                Message::Sampled {
                    indices: idx,
                    rows: picked,
                } => {
                    indices.extend(idx.into_iter().map(|g| g as usize));
                    rows.extend_from(&picked).map_err(|e| {
                        ClusterError::Protocol(format!("worker {i} sampled ragged rows: {e}"))
                    })?;
                }
                other => {
                    return Err(ClusterError::Protocol(format!(
                        "worker {i} answered with {other:?} instead of Sampled"
                    )))
                }
            }
        }
        Ok((indices, rows))
    }

    /// One exact-ℓ sampling round: collects every worker's keyed
    /// candidates for the coordinator-side global merge.
    pub fn sample_exact_round(
        &mut self,
        round: usize,
        seed: u64,
        m: usize,
    ) -> Result<Vec<(f64, usize)>, ClusterError> {
        let replies = self.request_all(&Message::SampleExact {
            round: round as u64,
            seed,
            m: m as u64,
        })?;
        let mut entries = Vec::new();
        for (i, r) in replies.into_iter().enumerate() {
            match r {
                Message::ExactKeys { entries: e } => {
                    entries.extend(e.into_iter().map(|(key, g)| (key, g as usize)));
                }
                other => {
                    return Err(ClusterError::Protocol(format!(
                        "worker {i} answered with {other:?} instead of ExactKeys"
                    )))
                }
            }
        }
        Ok(entries)
    }

    /// Step 7: elementwise-exact sum of per-worker candidate counts.
    pub fn candidate_weights(&mut self, m: usize) -> Result<Vec<f64>, ClusterError> {
        let replies = self.request_all(&Message::CandidateWeights { m: m as u64 })?;
        let mut total = vec![0.0f64; m];
        for (i, r) in replies.into_iter().enumerate() {
            match r {
                Message::Weights { weights } => {
                    if weights.len() != m {
                        return Err(ClusterError::Protocol(format!(
                            "worker {i} sent {} weights for {m} candidates",
                            weights.len()
                        )));
                    }
                    for (acc, w) in total.iter_mut().zip(weights) {
                        // Integer-valued counts: float addition is exact.
                        *acc += w;
                    }
                }
                other => {
                    return Err(ClusterError::Protocol(format!(
                        "worker {i} answered with {other:?} instead of Weights"
                    )))
                }
            }
        }
        Ok(total)
    }

    /// Fetches rows by global index from their owning workers, preserving
    /// the request order (duplicates allowed).
    pub fn gather_rows(&mut self, indices: &[usize]) -> Result<PointMatrix, ClusterError> {
        let mut out = PointMatrix::new(self.dim);
        if indices.is_empty() {
            return Ok(out);
        }
        // Partition the request by owner, preserving each worker's
        // request-subsequence order.
        let mut per_worker: Vec<Vec<u64>> = vec![Vec::new(); self.workers.len()];
        let mut owners = Vec::with_capacity(indices.len());
        for &g in indices {
            let w = self.owner_of(g)?;
            owners.push(w);
            per_worker[w].push(g as u64);
        }
        let t0 = Instant::now();
        self.round_trips += 1;
        let involved: Vec<usize> = (0..self.workers.len())
            .filter(|&w| !per_worker[w].is_empty())
            .collect();
        let requests: Vec<Message> = (0..self.workers.len())
            .map(|w| Message::GatherRows {
                indices: per_worker[w].clone(),
            })
            .collect();
        let mut early: Vec<Option<Message>> = std::iter::repeat_with(|| None)
            .take(self.workers.len())
            .collect();
        for &w in &involved {
            if let Err(e) = self.workers[w].transport.send(&requests[w]) {
                match self.reask(w, &requests[w], e) {
                    Ok(reply) => early[w] = Some(reply),
                    Err(e) => {
                        self.blocked_wall += t0.elapsed();
                        return Err(e);
                    }
                }
            }
        }
        let mut gathered: Vec<Option<PointMatrix>> = vec![None; self.workers.len()];
        let mut first_err: Option<ClusterError> = None;
        for &w in &involved {
            let r = match early[w].take() {
                Some(m) => Ok(m),
                None => self.workers[w].transport.recv(),
            };
            let r = match r {
                Err(e) if first_err.is_none() => self.reask(w, &requests[w], e),
                other => other,
            };
            match r {
                Ok(Message::Rows { rows }) => gathered[w] = Some(rows),
                Ok(Message::Error(e)) => {
                    first_err.get_or_insert(ClusterError::Remote {
                        worker: w,
                        error: e.into(),
                    });
                }
                Ok(other) => {
                    first_err.get_or_insert(ClusterError::Protocol(format!(
                        "worker {w} answered with {other:?} instead of Rows"
                    )));
                }
                Err(e) => {
                    first_err.get_or_insert(e);
                }
            }
        }
        self.blocked_wall += t0.elapsed();
        if let Some(e) = first_err {
            return Err(e);
        }
        // Reassemble in request order: take each owner's next row.
        let mut cursors = vec![0usize; self.workers.len()];
        for &w in &owners {
            let rows = gathered[w].as_ref().expect("gathered above");
            if cursors[w] >= rows.len() {
                return Err(ClusterError::Protocol(format!(
                    "worker {w} returned too few rows"
                )));
            }
            out.push(rows.row(cursors[w])).map_err(|_| {
                ClusterError::Protocol(format!("worker {w} returned rows of the wrong dim"))
            })?;
            cursors[w] += 1;
        }
        Ok(out)
    }

    /// Gathers the full resident `d²` array (worker order = global row
    /// order). Only the rare top-up path needs this O(n) transfer.
    pub fn gather_d2(&mut self) -> Result<Vec<f64>, ClusterError> {
        let replies = self.request_all(&Message::GatherD2)?;
        let mut d2 = Vec::with_capacity(self.global_n);
        for (i, r) in replies.into_iter().enumerate() {
            match r {
                Message::D2 { values } => d2.extend(values),
                other => {
                    return Err(ClusterError::Protocol(format!(
                        "worker {i} answered with {other:?} instead of D2"
                    )))
                }
            }
        }
        Ok(d2)
    }

    /// One distributed assignment pass: returns the global reassignment
    /// count and the folded [`ClusterSums`] — bit-identical to the
    /// single-node `assign_and_sum` on the same centers, the kernel work
    /// counters included (workers ship them in the partials frames; the
    /// counters are deterministic per point, so their sum over workers
    /// equals the single-node pass's).
    ///
    /// `want` piggybacks label shipping on the same round trip:
    /// `Always` makes every worker append its labels to the partials
    /// frame; `IfStable` makes each *locally* stable worker ship
    /// speculatively — when the global count is 0 every worker was
    /// locally stable, so the full label vector arrived for free and is
    /// returned, eliminating the follow-up `FetchLabels` cycle.
    pub fn assign(
        &mut self,
        centers: &PointMatrix,
        want: LabelsWanted,
    ) -> Result<(u64, ClusterSums, Option<Vec<u32>>), ClusterError> {
        let k = centers.len();
        let d = self.dim;
        let replies = self.request_all(&Message::Assign {
            centers: centers.clone(),
            labels: want,
        })?;
        let mut reassigned = 0u64;
        let mut all_shards = Vec::new();
        let mut stats = KernelStats::default();
        let mut per_worker_labels = Vec::with_capacity(self.workers.len());
        for (i, r) in replies.into_iter().enumerate() {
            match r {
                Message::Partials {
                    reassigned: re,
                    shards,
                    stats: worker_stats,
                    labels,
                } => {
                    reassigned += re;
                    all_shards.extend(shards);
                    stats.absorb(worker_stats);
                    per_worker_labels.push(labels);
                }
                other => {
                    return Err(ClusterError::Protocol(format!(
                        "worker {i} answered with {other:?} instead of Partials"
                    )))
                }
            }
        }
        for s in &all_shards {
            if s.sums.len() != k * d || s.counts.len() != k {
                return Err(ClusterError::Protocol(
                    "assignment partial has the wrong shape".into(),
                ));
            }
        }
        let ship = match want {
            LabelsWanted::Skip => false,
            LabelsWanted::IfStable => reassigned == 0,
            LabelsWanted::Always => true,
        };
        let labels = if ship {
            let mut all = Vec::with_capacity(self.global_n);
            for (i, l) in per_worker_labels.into_iter().enumerate() {
                match l {
                    Some(l) => all.extend(l),
                    None => {
                        return Err(ClusterError::Protocol(format!(
                            "worker {i} omitted labels from an assignment that requires them"
                        )))
                    }
                }
            }
            if all.len() != self.global_n {
                return Err(ClusterError::Protocol(format!(
                    "workers returned {} labels for {} rows",
                    all.len(),
                    self.global_n
                )));
            }
            Some(all)
        } else {
            None
        };
        self.data_passes += 1;
        let mut sums = fold_accum_shards(k, d, &all_shards);
        sums.stats = stats;
        self.last_assign = Some(centers.clone());
        Ok((reassigned, sums, labels))
    }

    /// Global potential of `centers` over all workers' rows (with the
    /// finiteness check) — bit-identical to the single-node potential.
    pub fn potential(&mut self, centers: &PointMatrix) -> Result<f64, ClusterError> {
        let sums = self.request_shard_sums(&Message::Cost {
            centers: centers.clone(),
        })?;
        Ok(Self::fold(sums))
    }

    /// Fetches the labels of the last assignment pass, concatenated in
    /// worker (= global row) order.
    pub fn fetch_labels(&mut self) -> Result<Vec<u32>, ClusterError> {
        let replies = self.request_all(&Message::FetchLabels)?;
        let mut labels = Vec::with_capacity(self.global_n);
        for (i, r) in replies.into_iter().enumerate() {
            match r {
                Message::Labels { labels: l } => labels.extend(l),
                other => {
                    return Err(ClusterError::Protocol(format!(
                        "worker {i} answered with {other:?} instead of Labels"
                    )))
                }
            }
        }
        if labels.len() != self.global_n {
            return Err(ClusterError::Protocol(format!(
                "workers returned {} labels for {} rows",
                labels.len(),
                self.global_n
            )));
        }
        Ok(labels)
    }

    /// Fetches every worker's residency accounting.
    pub fn fetch_stats(&mut self) -> Result<Vec<WorkerStats>, ClusterError> {
        let replies = self.request_all(&Message::FetchStats)?;
        replies
            .into_iter()
            .enumerate()
            .map(|(i, r)| match r {
                Message::Stats(s) => Ok(s),
                other => Err(ClusterError::Protocol(format!(
                    "worker {i} answered with {other:?} instead of Stats"
                ))),
            })
            .collect()
    }

    /// Ends every worker session (best effort — errors are swallowed so a
    /// partially failed shutdown never masks the fit's own result).
    pub fn shutdown(&mut self) {
        for w in &mut self.workers {
            let _ = w.transport.send(&Message::Shutdown);
        }
        for w in &mut self.workers {
            let _ = w.transport.recv();
        }
    }

    /// Per-worker connection summaries (rows, byte counters).
    pub fn worker_summaries(&self) -> Vec<WorkerSummary> {
        self.workers
            .iter()
            .map(|w| WorkerSummary {
                rows: w.rows,
                start_row: w.start_row,
                bytes_sent: w.bytes_sent(),
                bytes_received: w.bytes_received(),
            })
            .collect()
    }

    /// Total frame bytes the coordinator sent (across replaced
    /// transports too).
    pub fn bytes_sent(&self) -> u64 {
        self.workers.iter().map(|w| w.bytes_sent()).sum()
    }

    /// Total frame bytes the coordinator received (across replaced
    /// transports too).
    pub fn bytes_received(&self) -> u64 {
        self.workers.iter().map(|w| w.bytes_received()).sum()
    }

    /// Full data passes driven so far (tracker builds/updates, assignment
    /// and cost passes — the §3.5 round currency).
    pub fn data_passes(&self) -> u64 {
        self.data_passes
    }

    /// Data-round request/reply cycles driven so far: one per fleet
    /// broadcast or row gather. Session control (`Hello`/`Plan`/
    /// `Shutdown`) is excluded. A fused `Compound` round counts once —
    /// this is the latency currency the round-fused driver minimizes.
    pub fn round_trips(&self) -> u64 {
        self.round_trips
    }

    /// Wall time the coordinator has spent blocked on worker replies.
    pub fn blocked_wall(&self) -> Duration {
        self.blocked_wall
    }

    fn owner_of(&self, global_row: usize) -> Result<usize, ClusterError> {
        if global_row >= self.global_n {
            return Err(ClusterError::Protocol(format!(
                "row {global_row} out of range for {} rows",
                self.global_n
            )));
        }
        // Worker ranges are contiguous and ordered: binary search.
        let mut lo = 0usize;
        let mut hi = self.workers.len();
        while lo + 1 < hi {
            let mid = (lo + hi) / 2;
            if self.workers[mid].start_row <= global_row {
                lo = mid;
            } else {
                hi = mid;
            }
        }
        Ok(lo)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn required_alignment_is_always_reachable() {
        // The boundary grid nests and stays O(n/64 + shard): for the
        // paper's 4.8M-point KDD scale with the default shard size the
        // required alignment is a small multiple of 8192 — far below n —
        // so `skm shard --align <required>` can always produce a
        // multi-worker split.
        for (shard, n) in [(8192usize, 4_800_000usize), (8192, 1_000_000), (16, 192)] {
            let required = sum_shard_size_for(shard, n);
            assert_eq!(required % shard, 0, "grid must nest ({shard}, {n})");
            assert!(
                required <= n.div_ceil(64) + shard,
                "alignment {required} not O(n/64 + shard) for ({shard}, {n})"
            );
            assert!(
                2 * required <= n,
                "no 2-worker split possible for ({shard}, {n})"
            );
        }
    }
}
