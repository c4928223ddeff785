//! The batch assignment engine behind every serve session: one prepared
//! kernel per model revision, a micro-batching queue that funnels
//! concurrent requests through it, and the atomic hot-swap path.
//!
//! ## Batching and amortization
//!
//! Each connection handler submits its request to a shared queue and
//! blocks on a private reply channel. A single batcher thread drains the
//! queue, concatenates the pending requests into one matrix, and runs
//! one [`PreparedPredictor::assign`] sweep over the whole batch — the
//! kernel's preparation (the sorted centers and their separation lists,
//! `O(k²·d)` at worst) was paid once at model install, and the
//! per-batch sweep parallelizes across the executor's threads. Per-point labels and `d²` are pure functions of (point,
//! centers), so slicing the batch outputs at request boundaries yields
//! exactly what each request would have gotten alone; per-request cost
//! is re-folded on the request's own shard grid
//! ([`PreparedPredictor::cost_from_d2`]), keeping served costs
//! bit-identical to a local `cost_of`.
//!
//! ## Hot-swap semantics
//!
//! The installed model lives behind `RwLock<Arc<ModelVersion>>`. A swap
//! prepares the replacement kernel *outside* the lock, then replaces the
//! `Arc` under a brief write lock and bumps the revision. The batcher
//! clones the `Arc` once per batch, so an in-flight batch finishes on
//! the version it started with and every reply is tagged with the
//! revision that computed it — no request ever mixes versions.
//!
//! ## Admission control and overload shedding
//!
//! The queue in front of the batcher is bounded in *points* (the unit
//! the kernel's work is linear in): [`EngineConfig::queue_cap`]. A
//! request that would push the admitted-but-unanswered total past the
//! cap is shed *synchronously* at submission with
//! [`WireError::Overloaded`] — it never reaches the queue, never
//! touches the kernel, and never perturbs the batching of admitted
//! requests, so accepted replies stay bit-identical to an unloaded
//! server. One exception keeps the engine live for any request size: a
//! request is always admitted when the queue is empty, even if it alone
//! exceeds the cap. The reservation is released when the reply is
//! handed back, so `queued_points` counts work the server still owes.
//!
//! A request may carry a deadline budget; the batcher checks it at
//! dequeue time and answers [`WireError::DeadlineExceeded`] instead of
//! spending a sweep on an answer the client has already abandoned.
//!
//! ## Graceful drain
//!
//! [`ServeEngine::drain`] flips the engine into drain mode: every
//! *new* submission is rejected with [`WireError::Draining`], while
//! already-admitted work completes and replies normally. Drain-mode
//! rejection double-checks after reserving queue space, so a submission
//! racing the flag flip either lands wholly before the drain (and is
//! honored) or is rejected with its reservation rolled back — admitted
//! work is never lost. [`ServeEngine::is_drained`] reports when the
//! last admitted point has been answered.

use crate::protocol::ServeStats;
use kmeans_cluster::protocol::WireError;
use kmeans_core::{KMeansError, PreparedPredictor};
use kmeans_data::{decode_model, ModelRecord, PointMatrix};
use kmeans_obs::{arg_u64, Clock, LatencyHistogram, MonotonicClock, Recorder};
use kmeans_par::Executor;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::mpsc::{channel, Receiver, Sender};
use std::sync::{Arc, Condvar, Mutex, RwLock};

/// Default cap on the points gathered into one kernel batch. Draining
/// stops at the cap, so a burst of large requests cannot starve later
/// arrivals behind one enormous sweep.
pub const DEFAULT_MAX_BATCH_POINTS: usize = 1 << 16;

/// Default admission cap, in points: four full batches of queued work
/// before new requests are shed.
pub const DEFAULT_QUEUE_CAP_POINTS: usize = 4 * DEFAULT_MAX_BATCH_POINTS;

/// Trace category of the engine's overload/drain instants.
const SERVE_CAT: &str = "serve";

/// Construction knobs for [`ServeEngine::with_config`].
pub struct EngineConfig {
    /// Cap on points gathered into one kernel batch.
    pub batch_cap: usize,
    /// Admission cap: the most points that may be admitted-but-unanswered
    /// before new requests are shed ([`WireError::Overloaded`]). A
    /// request arriving at an empty queue is always admitted.
    pub queue_cap: usize,
    /// Flight recorder for shed/drain/deadline instants
    /// ([`Recorder::disabled`] by default — zero overhead).
    pub recorder: Recorder,
    /// Clock the engine times requests and deadlines with. Swappable so
    /// chaos tests drive deadlines deterministically
    /// (`kmeans_obs::FakeClock`).
    pub clock: Arc<dyn Clock>,
}

impl Default for EngineConfig {
    fn default() -> Self {
        EngineConfig {
            batch_cap: DEFAULT_MAX_BATCH_POINTS,
            queue_cap: DEFAULT_QUEUE_CAP_POINTS,
            recorder: Recorder::disabled(),
            clock: Arc::new(MonotonicClock::new()),
        }
    }
}

/// One installed model: the prepared kernel plus the descriptor fields
/// served by `ModelInfo`.
#[derive(Debug)]
pub struct ModelVersion {
    /// Monotonic revision (1 = the model the engine started with).
    pub revision: u64,
    /// Training cost recorded in the model file.
    pub cost: f64,
    /// Initializer name recorded in the model file.
    pub init_name: String,
    /// Refiner name recorded in the model file.
    pub refiner_name: String,
    predictor: PreparedPredictor,
}

impl ModelVersion {
    fn build(record: ModelRecord, revision: u64, executor: &Executor) -> Result<Self, WireError> {
        if record.centers.is_empty() {
            return Err(KMeansError::EmptyInput.into());
        }
        Ok(ModelVersion {
            revision,
            cost: record.cost,
            init_name: record.init_name,
            refiner_name: record.refiner_name,
            predictor: PreparedPredictor::new(record.centers, executor.clone()),
        })
    }

    /// The prepared assignment engine of this version.
    pub fn predictor(&self) -> &PreparedPredictor {
        &self.predictor
    }
}

/// One request's batch result.
#[derive(Debug, Clone, PartialEq)]
pub struct AssignReply {
    /// Revision of the model that computed this reply.
    pub revision: u64,
    /// Per-point labels (empty when the request asked for cost only).
    pub labels: Vec<u32>,
    /// Potential of the request's points, bit-identical to a local
    /// `cost_of` on the same points.
    pub cost: f64,
}

struct AssignJob {
    points: PointMatrix,
    want_labels: bool,
    /// `(absolute engine-clock ns, original budget in ms)` — checked by
    /// the batcher at dequeue.
    deadline: Option<(u64, u64)>,
    reply: Sender<Result<AssignReply, WireError>>,
}

/// Counter snapshot taken at each swap: the base the current revision's
/// per-revision counters are measured against.
#[derive(Clone, Copy, Default)]
struct RevisionBase {
    requests: u64,
    points: u64,
    batches: u64,
    installed_ns: u64,
}

struct Shared {
    current: RwLock<Arc<ModelVersion>>,
    executor: Executor,
    shutdown: AtomicBool,
    requests: AtomicU64,
    points: AtomicU64,
    batches: AtomicU64,
    max_batch_points: AtomicU64,
    swaps: AtomicU64,
    distance_computations: AtomicU64,
    pruned_by_norm_bound: AtomicU64,
    clock: Arc<dyn Clock>,
    request_hist: Mutex<LatencyHistogram>,
    batch_hist: Mutex<LatencyHistogram>,
    rev_base: Mutex<RevisionBase>,
    // Admission control / drain state.
    batch_cap: u64,
    queue_cap: u64,
    queued_points: AtomicU64,
    draining: AtomicBool,
    shed_requests: AtomicU64,
    shed_points: AtomicU64,
    deadline_exceeded: AtomicU64,
    drain_rejected: AtomicU64,
    recorder: Recorder,
    // Requests a session has received but whose replies are not yet
    // flushed to the peer; drain-exit waits for these to clear so the
    // last admitted reply reaches the socket before the process dies.
    busy_replies: AtomicU64,
    // Chaos-test hook: while true the batcher holds its current batch,
    // letting tests build a full queue deterministically.
    paused: Mutex<bool>,
    unpaused: Condvar,
}

/// Handle to one serving engine. Cheap to clone; every session holds a
/// clone and submits through the shared micro-batch queue.
#[derive(Clone)]
pub struct ServeEngine {
    shared: Arc<Shared>,
    jobs: Sender<AssignJob>,
}

impl ServeEngine {
    /// Installs `record` as revision 1 and starts the batcher thread,
    /// with the default configuration.
    pub fn new(record: ModelRecord, executor: Executor) -> Result<Self, KMeansError> {
        Self::with_config(record, executor, EngineConfig::default())
    }

    /// Like [`ServeEngine::new`] with an explicit cap on points per
    /// kernel batch.
    pub fn with_batch_cap(
        record: ModelRecord,
        executor: Executor,
        max_batch_points: usize,
    ) -> Result<Self, KMeansError> {
        Self::with_config(
            record,
            executor,
            EngineConfig {
                batch_cap: max_batch_points,
                ..EngineConfig::default()
            },
        )
    }

    /// Like [`ServeEngine::new`] with full control over batching,
    /// admission, tracing, and the clock.
    pub fn with_config(
        record: ModelRecord,
        executor: Executor,
        config: EngineConfig,
    ) -> Result<Self, KMeansError> {
        let version = ModelVersion::build(record, 1, &executor).map_err(KMeansError::from)?;
        let batch_cap = config.batch_cap.max(1);
        let shared = Arc::new(Shared {
            current: RwLock::new(Arc::new(version)),
            executor,
            shutdown: AtomicBool::new(false),
            requests: AtomicU64::new(0),
            points: AtomicU64::new(0),
            batches: AtomicU64::new(0),
            max_batch_points: AtomicU64::new(0),
            swaps: AtomicU64::new(0),
            distance_computations: AtomicU64::new(0),
            pruned_by_norm_bound: AtomicU64::new(0),
            clock: config.clock,
            request_hist: Mutex::new(LatencyHistogram::new()),
            batch_hist: Mutex::new(LatencyHistogram::new()),
            rev_base: Mutex::new(RevisionBase::default()),
            batch_cap: batch_cap as u64,
            queue_cap: config.queue_cap.max(1) as u64,
            queued_points: AtomicU64::new(0),
            draining: AtomicBool::new(false),
            shed_requests: AtomicU64::new(0),
            shed_points: AtomicU64::new(0),
            deadline_exceeded: AtomicU64::new(0),
            drain_rejected: AtomicU64::new(0),
            recorder: config.recorder,
            busy_replies: AtomicU64::new(0),
            paused: Mutex::new(false),
            unpaused: Condvar::new(),
        });
        let (tx, rx) = channel::<AssignJob>();
        let batcher_shared = Arc::clone(&shared);
        std::thread::spawn(move || batcher(batcher_shared, rx, batch_cap));
        Ok(ServeEngine { shared, jobs: tx })
    }

    /// The currently installed model version (the batcher may still be
    /// finishing a batch on an older one).
    pub fn current(&self) -> Arc<ModelVersion> {
        Arc::clone(&self.shared.current.read().expect("model lock poisoned"))
    }

    /// Assigns `points` through the batch queue and waits for the reply —
    /// the path every session request takes. With `want_labels` false the
    /// reply's label vector is left empty (cost queries skip the payload).
    pub fn assign(&self, points: PointMatrix, want_labels: bool) -> Result<AssignReply, WireError> {
        self.assign_deadline(points, want_labels, None)
    }

    /// [`ServeEngine::assign`] with an optional deadline budget in
    /// milliseconds, measured from admission: if the request is still
    /// queued when the budget expires, the batcher answers
    /// [`WireError::DeadlineExceeded`] without running the sweep.
    /// Requests that would overflow the admission queue are shed here
    /// with [`WireError::Overloaded`]; during a drain new requests get
    /// [`WireError::Draining`].
    pub fn assign_deadline(
        &self,
        points: PointMatrix,
        want_labels: bool,
        deadline_ms: Option<u64>,
    ) -> Result<AssignReply, WireError> {
        let s = &self.shared;
        let n = points.len() as u64;
        if s.draining.load(Ordering::SeqCst) {
            return Err(self.reject_draining());
        }
        // Admission time is read before the reservation: once the points
        // show in `queued_points` the request is admitted, and its
        // deadline must already be running.
        let t0 = s.clock.now_ns();
        // Reserve queue space, or shed. The reservation is released when
        // the reply is handed back (admitted-but-unanswered accounting).
        // `queued == 0` always admits, so one request larger than the cap
        // cannot wedge an idle server.
        let mut queued = s.queued_points.load(Ordering::SeqCst);
        loop {
            if queued != 0 && queued.saturating_add(n) > s.queue_cap {
                s.shed_requests.fetch_add(1, Ordering::Relaxed);
                s.shed_points.fetch_add(n, Ordering::Relaxed);
                let cap = s.queue_cap;
                s.recorder.instant("serve:shed", SERVE_CAT, || {
                    vec![
                        arg_u64("queued_points", queued),
                        arg_u64("request_points", n),
                        arg_u64("cap", cap),
                    ]
                });
                return Err(WireError::Overloaded {
                    queued_points: queued,
                    cap,
                });
            }
            match s.queued_points.compare_exchange(
                queued,
                queued + n,
                Ordering::SeqCst,
                Ordering::SeqCst,
            ) {
                Ok(_) => break,
                Err(actual) => queued = actual,
            }
        }
        // Double-check after reserving: a drain that raced the
        // reservation must not strand points in the queue counter (the
        // drain watcher waits for it to reach zero).
        if s.draining.load(Ordering::SeqCst) {
            s.queued_points.fetch_sub(n, Ordering::SeqCst);
            return Err(self.reject_draining());
        }
        let deadline = deadline_ms.map(|ms| (t0.saturating_add(ms.saturating_mul(1_000_000)), ms));
        let (tx, rx) = channel();
        if self
            .jobs
            .send(AssignJob {
                points,
                want_labels,
                deadline,
                reply: tx,
            })
            .is_err()
        {
            s.queued_points.fetch_sub(n, Ordering::SeqCst);
            return Err(WireError::Data("assignment engine is gone".into()));
        }
        let reply = match rx.recv() {
            Ok(reply) => reply,
            Err(_) => {
                // The batcher releases the reservation before every
                // reply; a dropped reply sender means it never got there.
                s.queued_points.fetch_sub(n, Ordering::SeqCst);
                return Err(WireError::Data(
                    "assignment engine dropped the request".into(),
                ));
            }
        };
        // Submit → reply covers queue wait plus the batch sweep — the
        // latency a session actually observes.
        let dur = s.clock.now_ns().saturating_sub(t0);
        s.request_hist
            .lock()
            .expect("request histogram lock poisoned")
            .record(dur);
        reply
    }

    fn reject_draining(&self) -> WireError {
        self.shared.drain_rejected.fetch_add(1, Ordering::Relaxed);
        self.shared
            .recorder
            .instant("serve:drain-reject", SERVE_CAT, Vec::new);
        WireError::Draining
    }

    /// Flips the engine into drain mode (idempotent): new submissions are
    /// rejected with [`WireError::Draining`], admitted work completes.
    /// Returns the points admitted-but-unanswered at the flip.
    pub fn drain(&self) -> u64 {
        self.shared.draining.store(true, Ordering::SeqCst);
        let queued = self.shared.queued_points.load(Ordering::SeqCst);
        self.shared.recorder.instant("serve:drain", SERVE_CAT, || {
            vec![arg_u64("queued_points", queued)]
        });
        queued
    }

    /// Whether a drain has begun (readiness should report down).
    pub fn is_draining(&self) -> bool {
        self.shared.draining.load(Ordering::SeqCst)
    }

    /// Whether a drain has begun *and* every admitted request has been
    /// answered *and* every received reply has been flushed to its peer
    /// ([`ServeEngine::reply_guard`]) — the point at which the server
    /// process may exit without losing work.
    pub fn is_drained(&self) -> bool {
        self.is_draining()
            && self.shared.queued_points.load(Ordering::SeqCst) == 0
            && self.shared.busy_replies.load(Ordering::SeqCst) == 0
    }

    /// RAII marker a session holds from receiving a request until its
    /// reply is flushed to the peer; [`ServeEngine::is_drained`] stays
    /// false while any are live, so drain-exit cannot cut off a reply
    /// that the engine has finished but the socket has not.
    pub fn reply_guard(&self) -> ReplyGuard {
        self.shared.busy_replies.fetch_add(1, Ordering::SeqCst);
        ReplyGuard {
            shared: Arc::clone(&self.shared),
        }
    }

    /// Points currently admitted but not yet answered.
    pub fn queued_points(&self) -> u64 {
        self.shared.queued_points.load(Ordering::SeqCst)
    }

    /// The admission cap, in points.
    pub fn queue_cap(&self) -> u64 {
        self.shared.queue_cap
    }

    /// The per-batch point cap — the natural chunk size for a client
    /// streaming a large input (advertised in `ModelInfo`).
    pub fn batch_cap(&self) -> u64 {
        self.shared.batch_cap
    }

    /// Chaos-test hook (in the spirit of `kmeans_cluster::fault`): holds
    /// the batcher before its next batch until the guard drops, so tests
    /// can fill the admission queue deterministically and observe
    /// overload/deadline behavior without timing races.
    pub fn pause(&self) -> PauseGuard {
        *self.shared.paused.lock().expect("pause lock poisoned") = true;
        PauseGuard {
            shared: Arc::clone(&self.shared),
        }
    }

    /// Decodes an `SKMMDL01` image and atomically installs it, returning
    /// `(revision, k, dim)` of the new model. Disk loads and wire swaps
    /// share this validation path.
    pub fn swap_model_bytes(&self, image: &[u8]) -> Result<(u64, u64, u32), WireError> {
        let record = decode_model(image).map_err(|e| WireError::Data(e.to_string()))?;
        self.swap_record(record)
    }

    /// Atomically installs a decoded model record (see module docs for
    /// the swap semantics), returning `(revision, k, dim)`.
    pub fn swap_record(&self, record: ModelRecord) -> Result<(u64, u64, u32), WireError> {
        // Prepare outside the lock: a slow kernel build must not block
        // readers (the batcher's Arc clone) any longer than the pointer
        // swap itself.
        let mut version = ModelVersion::build(record, 0, &self.shared.executor)?;
        let k = version.predictor.k() as u64;
        let dim = version.predictor.dim() as u32;
        let mut current = self.shared.current.write().expect("model lock poisoned");
        version.revision = current.revision + 1;
        let revision = version.revision;
        *current = Arc::new(version);
        drop(current);
        self.shared.swaps.fetch_add(1, Ordering::Relaxed);
        // Rebase the per-revision counters: a swap is a timestamped
        // revision boundary, and everything counted after it belongs to
        // the new revision. (In-flight batches finishing on the old
        // version may land just after the base — the same benign skew
        // the cumulative counters already have.)
        let s = &self.shared;
        *s.rev_base.lock().expect("revision base lock poisoned") = RevisionBase {
            requests: s.requests.load(Ordering::Relaxed),
            points: s.points.load(Ordering::Relaxed),
            batches: s.batches.load(Ordering::Relaxed),
            installed_ns: s.clock.now_ns(),
        };
        Ok((revision, k, dim))
    }

    /// Cumulative serving statistics, plus the current revision's
    /// rebased counters and the request/batch latency summaries.
    pub fn stats(&self) -> ServeStats {
        let s = &self.shared;
        let base = *s.rev_base.lock().expect("revision base lock poisoned");
        let requests = s.requests.load(Ordering::Relaxed);
        let points = s.points.load(Ordering::Relaxed);
        let batches = s.batches.load(Ordering::Relaxed);
        ServeStats {
            revision: self.current().revision,
            requests,
            points,
            batches,
            max_batch_points: s.max_batch_points.load(Ordering::Relaxed),
            swaps: s.swaps.load(Ordering::Relaxed),
            distance_computations: s.distance_computations.load(Ordering::Relaxed),
            pruned_by_norm_bound: s.pruned_by_norm_bound.load(Ordering::Relaxed),
            revision_requests: requests.saturating_sub(base.requests),
            revision_points: points.saturating_sub(base.points),
            revision_batches: batches.saturating_sub(base.batches),
            revision_installed_ns: base.installed_ns,
            request_latency: s
                .request_hist
                .lock()
                .expect("request histogram lock poisoned")
                .summary(),
            batch_latency: s
                .batch_hist
                .lock()
                .expect("batch histogram lock poisoned")
                .summary(),
            shed_requests: s.shed_requests.load(Ordering::Relaxed),
            shed_points: s.shed_points.load(Ordering::Relaxed),
            deadline_exceeded: s.deadline_exceeded.load(Ordering::Relaxed),
            drain_rejected: s.drain_rejected.load(Ordering::Relaxed),
            queued_points: s.queued_points.load(Ordering::SeqCst),
            queue_cap: s.queue_cap,
            draining: s.draining.load(Ordering::SeqCst),
        }
    }

    /// Asks the accept loop to exit (set by a `Shutdown` request).
    pub fn request_shutdown(&self) {
        self.shared.shutdown.store(true, Ordering::SeqCst);
    }

    /// Whether shutdown has been requested.
    pub fn shutdown_requested(&self) -> bool {
        self.shared.shutdown.load(Ordering::SeqCst)
    }
}

/// Marks one in-flight session reply (see [`ServeEngine::reply_guard`]);
/// dropping it records the reply as flushed.
pub struct ReplyGuard {
    shared: Arc<Shared>,
}

impl Drop for ReplyGuard {
    fn drop(&mut self) {
        self.shared.busy_replies.fetch_sub(1, Ordering::SeqCst);
    }
}

/// Holds the batcher paused (see [`ServeEngine::pause`]); dropping it
/// resumes batching.
pub struct PauseGuard {
    shared: Arc<Shared>,
}

impl Drop for PauseGuard {
    fn drop(&mut self) {
        *self.shared.paused.lock().expect("pause lock poisoned") = false;
        self.shared.unpaused.notify_all();
    }
}

/// Releases a job's admission reservation and hands back its reply.
/// Every admitted job leaves the engine through here exactly once.
fn finish(shared: &Shared, job: AssignJob, reply: Result<AssignReply, WireError>) {
    shared
        .queued_points
        .fetch_sub(job.points.len() as u64, Ordering::SeqCst);
    // A client that disconnected mid-request just drops its receiver;
    // the batch carries on for everyone else.
    let _ = job.reply.send(reply);
}

fn batcher(shared: Arc<Shared>, rx: Receiver<AssignJob>, cap: usize) {
    // recv() fails only when every engine handle (and with them all job
    // senders) is gone — the engine's natural end of life.
    while let Ok(first) = rx.recv() {
        // Chaos-test hook: hold the batch here while paused, letting
        // tests fill the queue behind a stalled batcher.
        {
            let mut paused = shared.paused.lock().expect("pause lock poisoned");
            while *paused {
                paused = shared.unpaused.wait(paused).expect("pause lock poisoned");
            }
        }
        let mut jobs = vec![first];
        let mut total = jobs[0].points.len();
        while total < cap {
            match rx.try_recv() {
                Ok(job) => {
                    total += job.points.len();
                    jobs.push(job);
                }
                Err(_) => break,
            }
        }
        let version = Arc::clone(&shared.current.read().expect("model lock poisoned"));
        let dim = version.predictor.dim();
        let now = shared.clock.now_ns();
        let mut valid = Vec::with_capacity(jobs.len());
        for job in jobs {
            if let Some((abs_ns, budget_ms)) = job.deadline {
                if now > abs_ns {
                    // The budget expired while the request sat in the
                    // queue: answer typed, spend no kernel work on it.
                    shared.deadline_exceeded.fetch_add(1, Ordering::Relaxed);
                    shared
                        .recorder
                        .instant("serve:deadline-exceeded", SERVE_CAT, || {
                            vec![arg_u64("budget_ms", budget_ms)]
                        });
                    finish(&shared, job, Err(WireError::DeadlineExceeded { budget_ms }));
                    continue;
                }
            }
            if job.points.dim() != dim {
                let err = KMeansError::DimensionMismatch {
                    expected: dim,
                    got: job.points.dim(),
                };
                finish(&shared, job, Err(err.into()));
            } else {
                valid.push(job);
            }
        }
        if valid.is_empty() {
            continue;
        }
        let mut flat = Vec::with_capacity(valid.iter().map(|j| j.points.as_slice().len()).sum());
        for job in &valid {
            flat.extend_from_slice(job.points.as_slice());
        }
        let batch = PointMatrix::from_flat(flat, dim).expect("concatenation of same-dim matrices");
        let batch_points = batch.len();
        let t0 = shared.clock.now_ns();
        let (labels, d2, kstats) = version
            .predictor
            .assign(&batch)
            .expect("dimensionality checked per job");
        let sweep_ns = shared.clock.now_ns().saturating_sub(t0);
        shared
            .batch_hist
            .lock()
            .expect("batch histogram lock poisoned")
            .record(sweep_ns);
        // Account the batch before any reply goes out: a client that
        // reads its reply and immediately fetches stats must see its own
        // request counted.
        shared.batches.fetch_add(1, Ordering::Relaxed);
        shared
            .max_batch_points
            .fetch_max(batch_points as u64, Ordering::Relaxed);
        shared
            .distance_computations
            .fetch_add(kstats.distance_computations, Ordering::Relaxed);
        shared
            .pruned_by_norm_bound
            .fetch_add(kstats.pruned_by_norm_bound, Ordering::Relaxed);
        let mut offset = 0;
        for job in valid {
            let n = job.points.len();
            let cost = version.predictor.cost_from_d2(&d2[offset..offset + n]);
            let reply = AssignReply {
                revision: version.revision,
                labels: if job.want_labels {
                    labels[offset..offset + n].to_vec()
                } else {
                    Vec::new()
                },
                cost,
            };
            offset += n;
            shared.requests.fetch_add(1, Ordering::Relaxed);
            shared.points.fetch_add(n as u64, Ordering::Relaxed);
            finish(&shared, job, Ok(reply));
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use kmeans_core::model::KMeans;
    use kmeans_par::Parallelism;

    fn fitted_record(seed: u64) -> (PointMatrix, ModelRecord) {
        let mut m = PointMatrix::new(2);
        for (cx, cy) in [(0.0, 0.0), (40.0, 0.0), (0.0, 40.0)] {
            for i in 0..40 {
                m.push(&[cx + (i % 5) as f64 * 0.2, cy + (i / 5) as f64 * 0.2])
                    .unwrap();
            }
        }
        let model = KMeans::params(3)
            .seed(seed)
            .parallelism(Parallelism::Sequential)
            .fit(&m)
            .unwrap();
        (m, model.to_record())
    }

    #[test]
    fn engine_matches_local_predict_bitwise() {
        let (points, record) = fitted_record(1);
        let local = kmeans_core::KMeansModel::from_record(
            record.clone(),
            Executor::new(Parallelism::Sequential),
        );
        let engine = ServeEngine::new(record, Executor::new(Parallelism::Sequential)).unwrap();
        let reply = engine.assign(points.clone(), true).unwrap();
        assert_eq!(reply.revision, 1);
        assert_eq!(reply.labels, local.predict(&points).unwrap());
        assert_eq!(
            reply.cost.to_bits(),
            local.cost_of(&points).unwrap().to_bits()
        );
        let cost_only = engine.assign(points.clone(), false).unwrap();
        assert!(cost_only.labels.is_empty());
        assert_eq!(cost_only.cost.to_bits(), reply.cost.to_bits());
        let stats = engine.stats();
        assert_eq!(stats.requests, 2);
        assert_eq!(stats.points, 2 * points.len() as u64);
        assert!(stats.batches >= 1);
    }

    #[test]
    fn dimension_mismatch_is_typed_and_session_survivable() {
        let (_, record) = fitted_record(2);
        let engine = ServeEngine::new(record, Executor::new(Parallelism::Sequential)).unwrap();
        let wrong = PointMatrix::from_flat(vec![1.0, 2.0, 3.0], 3).unwrap();
        let err = engine.assign(wrong, true).unwrap_err();
        assert!(matches!(err, WireError::DimensionMismatch { .. }));
        // The engine still answers afterwards.
        let ok = PointMatrix::from_flat(vec![1.0, 2.0], 2).unwrap();
        assert!(engine.assign(ok, true).is_ok());
    }

    #[test]
    fn swap_bumps_revision_and_changes_answers() {
        let (points, record) = fitted_record(3);
        let (_, other) = fitted_record(4);
        let engine =
            ServeEngine::new(record.clone(), Executor::new(Parallelism::Sequential)).unwrap();
        assert_eq!(engine.current().revision, 1);
        let before = engine.assign(points.clone(), true).unwrap();
        assert_eq!(before.revision, 1);
        let (rev, k, dim) = engine
            .swap_model_bytes(&kmeans_data::encode_model(&other).unwrap())
            .unwrap();
        assert_eq!(rev, 2);
        assert_eq!(k, 3);
        assert_eq!(dim, 2);
        let after = engine.assign(points, true).unwrap();
        assert_eq!(after.revision, 2);
        assert_eq!(engine.stats().swaps, 1);
        // Garbage image is rejected without disturbing the installed model.
        assert!(matches!(
            engine.swap_model_bytes(b"not a model"),
            Err(WireError::Data(_))
        ));
        assert_eq!(engine.current().revision, 2);
    }

    fn spin_until(deadline: std::time::Duration, mut f: impl FnMut() -> bool) {
        let start = std::time::Instant::now();
        while !f() {
            assert!(start.elapsed() < deadline, "condition not reached in time");
            std::thread::yield_now();
        }
    }

    #[test]
    fn overload_sheds_typed_while_admitted_replies_stay_bit_identical() {
        let (points, record) = fitted_record(5);
        let n = points.len();
        let local = kmeans_core::KMeansModel::from_record(
            record.clone(),
            Executor::new(Parallelism::Sequential),
        );
        let engine = ServeEngine::with_config(
            record,
            Executor::new(Parallelism::Sequential),
            EngineConfig {
                queue_cap: n,
                ..EngineConfig::default()
            },
        )
        .unwrap();
        let guard = engine.pause();
        // Fill the queue exactly to the cap behind the stalled batcher.
        let admitted = {
            let engine = engine.clone();
            let points = points.clone();
            std::thread::spawn(move || engine.assign(points, true))
        };
        spin_until(std::time::Duration::from_secs(10), || {
            engine.queued_points() == n as u64
        });
        // The next request is shed synchronously, typed, without ever
        // touching the queue or the kernel.
        let shed = engine.assign(points.clone(), true).unwrap_err();
        assert_eq!(
            shed,
            WireError::Overloaded {
                queued_points: n as u64,
                cap: n as u64,
            }
        );
        let stats = engine.stats();
        assert_eq!(stats.shed_requests, 1);
        assert_eq!(stats.shed_points, n as u64);
        assert_eq!(stats.queue_cap, n as u64);
        drop(guard);
        // The admitted request completes bit-identically to local predict
        // — shedding never perturbed it.
        let reply = admitted.join().unwrap().unwrap();
        assert_eq!(reply.labels, local.predict(&points).unwrap());
        assert_eq!(
            reply.cost.to_bits(),
            local.cost_of(&points).unwrap().to_bits()
        );
        assert_eq!(engine.queued_points(), 0);
    }

    #[test]
    fn oversized_request_is_admitted_when_queue_is_empty() {
        let (points, record) = fitted_record(6);
        let engine = ServeEngine::with_config(
            record,
            Executor::new(Parallelism::Sequential),
            EngineConfig {
                queue_cap: 1,
                ..EngineConfig::default()
            },
        )
        .unwrap();
        // points.len() >> 1, but the queue is empty: always admitted.
        assert!(engine.assign(points, true).is_ok());
    }

    #[test]
    fn drain_completes_admitted_work_and_rejects_new() {
        let (points, record) = fitted_record(7);
        let engine = ServeEngine::new(record, Executor::new(Parallelism::Sequential)).unwrap();
        let guard = engine.pause();
        let admitted = {
            let engine = engine.clone();
            let points = points.clone();
            std::thread::spawn(move || engine.assign(points, true))
        };
        spin_until(std::time::Duration::from_secs(10), || {
            engine.queued_points() > 0
        });
        let queued = engine.drain();
        assert_eq!(queued, points.len() as u64);
        assert!(engine.is_draining());
        assert!(!engine.is_drained());
        // New work is rejected typed while the drain runs.
        assert_eq!(
            engine.assign(points, true).unwrap_err(),
            WireError::Draining
        );
        // Drain is idempotent.
        assert_eq!(engine.drain(), queued);
        drop(guard);
        assert!(admitted.join().unwrap().is_ok());
        spin_until(std::time::Duration::from_secs(10), || engine.is_drained());
        let stats = engine.stats();
        assert_eq!(stats.drain_rejected, 1);
        assert!(stats.draining);
        assert_eq!(stats.queued_points, 0);
    }

    #[test]
    fn expired_deadline_is_typed_and_skips_the_kernel() {
        let (points, record) = fitted_record(8);
        let clock = kmeans_obs::FakeClock::new(0);
        let engine = ServeEngine::with_config(
            record,
            Executor::new(Parallelism::Sequential),
            EngineConfig {
                clock: Arc::new(clock.clone()),
                ..EngineConfig::default()
            },
        )
        .unwrap();
        // An unexpired budget answers normally.
        let ok = engine
            .assign_deadline(points.clone(), true, Some(1_000))
            .unwrap();
        assert!(!ok.labels.is_empty());
        // Stall the batcher, admit a deadlined request, and expire its
        // budget before the batcher dequeues it.
        let guard = engine.pause();
        let late = {
            let engine = engine.clone();
            let points = points.clone();
            std::thread::spawn(move || engine.assign_deadline(points, true, Some(5)))
        };
        spin_until(std::time::Duration::from_secs(10), || {
            engine.queued_points() > 0
        });
        clock.advance(6_000_000);
        drop(guard);
        assert_eq!(
            late.join().unwrap().unwrap_err(),
            WireError::DeadlineExceeded { budget_ms: 5 }
        );
        let stats = engine.stats();
        assert_eq!(stats.deadline_exceeded, 1);
        // The expired request never ran a sweep or counted as answered.
        assert_eq!(stats.requests, 1);
        assert_eq!(engine.queued_points(), 0);
    }
}
