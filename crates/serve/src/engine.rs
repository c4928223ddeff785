//! The batch assignment engine behind every serve session: one prepared
//! kernel per model revision, a flat-combining queue that funnels
//! concurrent requests through it, and the atomic hot-swap path.
//!
//! ## Flat combining and amortization
//!
//! The engine owns no thread. A session publishes its request on a
//! shared queue and, if no other submitter holds the role, becomes the
//! *combiner* on its own thread (flat combining: Hendler, Incze, Shavit
//! and Tzafrir, SPAA 2010). The combiner takes the queued requests in
//! FIFO order while the batch holds fewer than
//! [`EngineConfig::batch_cap`] points, concatenates them into one matrix
//! (a lone request is swept in place), and runs one
//! [`PreparedPredictor::assign`] sweep over the whole batch. It answers
//! each request through that request's reply slot, waking only the
//! submitters it answered, and repeats until its own request is
//! answered. Then it lets go; if requests are still queued, it wakes the
//! submitter of the oldest to take over. A request that finds the engine
//! idle thus never leaves its session thread (apart from the executor's
//! fan-out on a multi-shard batch), while requests that arrive during a
//! sweep share the next one.
//!
//! The kernel's preparation (the sorted centers and their separation
//! lists, `O(k²·d)` at worst) was paid once at model install, and the
//! per-batch sweep parallelizes across the executor's threads. Per-point
//! labels and `d²` are pure functions of (point, centers), so slicing
//! the batch outputs at request boundaries yields exactly what each
//! request would have gotten alone; per-request cost is re-folded on the
//! request's own shard grid ([`PreparedPredictor::cost_from_d2`]),
//! keeping served costs bit-identical to a local `cost_of`.
//!
//! A combiner that unwinds (a panicking sweep) answers every request it
//! had taken with a typed [`WireError::Data`], releases their
//! reservations and frees the role, so the next submitter combines and
//! no waiter is stranded.
//!
//! ## Hot-swap semantics
//!
//! The installed model lives behind `RwLock<Arc<ModelVersion>>`. A swap
//! prepares the replacement kernel *outside* the lock, then replaces the
//! `Arc` under a brief write lock and bumps the revision. The combiner
//! clones the `Arc` once per batch, so an in-flight batch finishes on
//! the version it started with and every reply is tagged with the
//! revision that computed it — no request ever mixes versions.
//!
//! ## Admission control and overload shedding
//!
//! The queue is bounded in *points* (the unit the kernel's work is
//! linear in): [`EngineConfig::queue_cap`]. A request that would push
//! the admitted-but-unanswered total past the cap is shed
//! *synchronously* at submission with [`WireError::Overloaded`] — it
//! never reaches the queue, never touches the kernel, and never perturbs
//! the batching of admitted requests, so accepted replies stay
//! bit-identical to an unloaded server. One exception keeps the engine
//! live for any request size: a request is always admitted when the
//! queue is empty, even if it alone exceeds the cap. The cap check and
//! the publication on the queue are one critical section, and a
//! request's reservation is released when it is answered, so
//! `queued_points` counts exactly the published, unanswered points.
//!
//! A request may carry a deadline budget; the combiner checks it at
//! dequeue time and answers [`WireError::DeadlineExceeded`] instead of
//! spending a sweep on an answer the client has already abandoned.
//!
//! ## Graceful drain
//!
//! [`ServeEngine::drain`] flips the engine into drain mode: every
//! *new* submission is rejected with [`WireError::Draining`], while
//! already-admitted work completes and replies normally. The flag flips
//! under the lock that admission holds, so a submission racing the drain
//! either lands wholly before it (and is honored) or is rejected —
//! admitted work is never lost. [`ServeEngine::is_drained`] reports when
//! the last admitted point has been answered.

use crate::protocol::ServeStats;
use kmeans_cluster::protocol::WireError;
use kmeans_core::{KMeansError, PreparedPredictor};
use kmeans_data::{decode_model, ModelRecord, PointMatrix};
use kmeans_obs::{arg_u64, Clock, LatencyHistogram, MonotonicClock, Recorder};
use kmeans_par::Executor;
use std::collections::VecDeque;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Condvar, Mutex, MutexGuard, PoisonError, RwLock};
use std::thread::Thread;

/// Default cap on the points gathered into one kernel batch. A combiner
/// stops taking requests at the cap, so a burst of large requests cannot
/// starve later arrivals behind one enormous sweep.
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

type Answer = Result<AssignReply, WireError>;

struct AssignJob {
    points: PointMatrix,
    want_labels: bool,
    /// `(absolute engine-clock ns, original budget in ms)` — checked by
    /// the combiner at dequeue.
    deadline: Option<(u64, u64)>,
    slot: Arc<Slot>,
}

/// Where a job's answer waits for its submitter: filled once by the
/// thread that answers the job, which then unparks the submitter.
struct Slot {
    answer: Mutex<Option<Answer>>,
    submitter: Thread,
}

impl Slot {
    /// The answer lock. Storing or taking the answer cannot leave it
    /// half-written, so a poisoned lock still holds a valid slot; a
    /// combiner unwinding through [`Batch`]'s drop relies on that.
    fn answer(&self) -> MutexGuard<'_, Option<Answer>> {
        self.answer.lock().unwrap_or_else(PoisonError::into_inner)
    }
}

/// The published jobs and the combiner role, under one lock: admission
/// and publication are one step, and so are letting go of the role and
/// choosing whom to wake.
#[derive(Default)]
struct Queue {
    jobs: VecDeque<AssignJob>,
    combining: bool,
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
    // Admission control / drain state. `queued_points` grows and
    // `draining` flips only under the `queue` lock; both are atomics so
    // readers, and the answers that shrink `queued_points`, need not
    // take it.
    queue: Mutex<Queue>,
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
    // Chaos-test hook: while true a combiner holds the role without
    // taking jobs, letting tests build a full queue deterministically.
    paused: Mutex<bool>,
    unpaused: Condvar,
}

/// Handle to one serving engine. Cheap to clone; every session holds a
/// clone and submits through the shared queue.
#[derive(Clone)]
pub struct ServeEngine {
    shared: Arc<Shared>,
}

impl ServeEngine {
    /// Installs `record` as revision 1, with the default configuration.
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
    /// admission, tracing, and the clock. The engine starts no thread:
    /// batches run on the threads that submit requests (module docs), so
    /// dropping the last handle frees it.
    pub fn with_config(
        record: ModelRecord,
        executor: Executor,
        config: EngineConfig,
    ) -> Result<Self, KMeansError> {
        let version = ModelVersion::build(record, 1, &executor).map_err(KMeansError::from)?;
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
            queue: Mutex::new(Queue::default()),
            batch_cap: config.batch_cap.max(1) as u64,
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
        Ok(ServeEngine { shared })
    }

    /// The currently installed model version (a combiner may still be
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
    /// queued when the budget expires, the combiner answers
    /// [`WireError::DeadlineExceeded`] without running the sweep.
    /// Requests that would overflow the admission queue are shed here
    /// with [`WireError::Overloaded`]; during a drain new requests get
    /// [`WireError::Draining`]. The calling thread combines batches —
    /// its own request's and any others queued ahead of or beside it —
    /// whenever no other submitter is combining (module docs).
    pub fn assign_deadline(
        &self,
        points: PointMatrix,
        want_labels: bool,
        deadline_ms: Option<u64>,
    ) -> Result<AssignReply, WireError> {
        let s = &self.shared;
        // Admission time is read before the job is published: once its
        // points show in `queued_points` the request is admitted, and its
        // deadline must already be running.
        let t0 = s.clock.now_ns();
        let slot = Arc::new(Slot {
            answer: Mutex::new(None),
            submitter: std::thread::current(),
        });
        let mut combiner = s.admit(AssignJob {
            points,
            want_labels,
            deadline: deadline_ms.map(|ms| (t0.saturating_add(ms.saturating_mul(1_000_000)), ms)),
            slot: Arc::clone(&slot),
        })?;
        let reply = loop {
            if combiner {
                let _role = Role(s);
                while slot.answer().is_none() {
                    s.run_batch();
                }
            }
            if let Some(reply) = slot.answer().take() {
                break reply;
            }
            // Unparked when a combiner answers the job, or when one lets
            // go with the job still queued and this submitter should take
            // over.
            std::thread::park();
            let answered = slot.answer().is_some();
            combiner = !answered && s.take_role();
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

    /// Flips the engine into drain mode (idempotent): new submissions are
    /// rejected with [`WireError::Draining`], admitted work completes.
    /// Returns the points admitted-but-unanswered at the flip.
    pub fn drain(&self) -> u64 {
        let s = &self.shared;
        let queued = {
            // Under the admission lock, so no submission straddles the flip.
            let _queue = s.queue();
            s.draining.store(true, Ordering::SeqCst);
            s.queued_points.load(Ordering::SeqCst)
        };
        s.recorder.instant("serve:drain", SERVE_CAT, || {
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
    /// the combiner before its next batch until the guard drops. The
    /// first submitter still takes the role and every later one still
    /// queues behind it, so tests can fill the admission queue
    /// deterministically and observe overload/deadline behavior without
    /// timing races.
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
        // readers (a combiner's Arc clone) any longer than the pointer
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

/// Holds the combiner paused (see [`ServeEngine::pause`]); dropping it
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

/// The combiner role, held by one submitter at a time. Dropping it — on
/// return or on unwind — lets go and wakes the submitter of the oldest
/// queued job, if any, to take over.
struct Role<'a>(&'a Shared);

impl Drop for Role<'_> {
    fn drop(&mut self) {
        let mut queue = self.0.queue();
        queue.combining = false;
        let next = queue.jobs.front().map(|job| job.slot.submitter.clone());
        drop(queue);
        if let Some(next) = next {
            next.unpark();
        }
    }
}

/// The jobs a combiner has taken and not yet answered. Answered jobs are
/// taken out of their entry; whatever is left when the batch drops —
/// only after a panic — is answered with a typed error, so no submitter
/// waits forever on a combiner that unwound.
struct Batch<'a> {
    shared: &'a Shared,
    jobs: Vec<Option<AssignJob>>,
}

impl Drop for Batch<'_> {
    fn drop(&mut self) {
        for job in self.jobs.iter_mut().filter_map(Option::take) {
            let err = WireError::Data("the assignment sweep panicked before answering".into());
            self.shared.finish(job, Err(err));
        }
    }
}

impl Shared {
    /// The queue lock. No code that can panic runs under it, so a
    /// poisoned lock (a panic elsewhere on the holding thread) still
    /// guards a consistent queue.
    fn queue(&self) -> MutexGuard<'_, Queue> {
        self.queue.lock().unwrap_or_else(PoisonError::into_inner)
    }

    /// Admits `job` and publishes it in one critical section, or rejects
    /// it: [`WireError::Draining`] during a drain, [`WireError::Overloaded`]
    /// when it would push the queue past its cap (an empty queue always
    /// admits). Returns whether the submitter took the combiner role.
    fn admit(&self, job: AssignJob) -> Result<bool, WireError> {
        let n = job.points.len() as u64;
        let mut queue = self.queue();
        if self.draining.load(Ordering::SeqCst) {
            drop(queue);
            self.drain_rejected.fetch_add(1, Ordering::Relaxed);
            self.recorder
                .instant("serve:drain-reject", SERVE_CAT, Vec::new);
            return Err(WireError::Draining);
        }
        let queued = self.queued_points.load(Ordering::SeqCst);
        if queued != 0 && queued.saturating_add(n) > self.queue_cap {
            drop(queue);
            self.shed_requests.fetch_add(1, Ordering::Relaxed);
            self.shed_points.fetch_add(n, Ordering::Relaxed);
            let cap = self.queue_cap;
            self.recorder.instant("serve:shed", SERVE_CAT, || {
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
        self.queued_points.fetch_add(n, Ordering::SeqCst);
        queue.jobs.push_back(job);
        Ok(!std::mem::replace(&mut queue.combining, true))
    }

    /// Takes the combiner role if no one holds it.
    fn take_role(&self) -> bool {
        !std::mem::replace(&mut self.queue().combining, true)
    }

    /// Releases a job's admission reservation, hands its answer to the
    /// submitter and wakes it. Every admitted job leaves the engine
    /// through here exactly once.
    fn finish(&self, job: AssignJob, answer: Answer) {
        self.queued_points
            .fetch_sub(job.points.len() as u64, Ordering::SeqCst);
        *job.slot.answer() = Some(answer);
        job.slot.submitter.unpark();
    }

    /// One combiner step: takes queued jobs FIFO while the batch holds
    /// fewer than `batch_cap` points, answers the expired and misshapen
    /// ones without a sweep, and the rest from one sweep of the model
    /// version read here.
    fn run_batch(&self) {
        // Chaos-test hook: hold the role here while paused, before any
        // job is taken, letting tests fill the queue behind a stalled
        // combiner.
        {
            let mut paused = self.paused.lock().expect("pause lock poisoned");
            while *paused {
                paused = self.unpaused.wait(paused).expect("pause lock poisoned");
            }
        }
        let mut batch = Batch {
            shared: self,
            jobs: Vec::new(),
        };
        {
            let mut queue = self.queue();
            let mut total = 0;
            while total < self.batch_cap {
                let Some(job) = queue.jobs.pop_front() else {
                    break;
                };
                total += job.points.len() as u64;
                batch.jobs.push(Some(job));
            }
        }
        let version = Arc::clone(&self.current.read().expect("model lock poisoned"));
        let dim = version.predictor.dim();
        let now = self.clock.now_ns();
        for entry in &mut batch.jobs {
            let job = entry.as_ref().expect("every taken job is pending");
            let err = match job.deadline {
                // The budget expired while the request sat in the queue:
                // answer typed, spend no kernel work on it.
                Some((abs_ns, budget_ms)) if now > abs_ns => {
                    self.deadline_exceeded.fetch_add(1, Ordering::Relaxed);
                    self.recorder
                        .instant("serve:deadline-exceeded", SERVE_CAT, || {
                            vec![arg_u64("budget_ms", budget_ms)]
                        });
                    WireError::DeadlineExceeded { budget_ms }
                }
                _ if job.points.dim() != dim => KMeansError::DimensionMismatch {
                    expected: dim,
                    got: job.points.dim(),
                }
                .into(),
                _ => continue,
            };
            self.finish(entry.take().expect("checked above"), Err(err));
        }
        let valid: Vec<&AssignJob> = batch.jobs.iter().flatten().collect();
        if valid.is_empty() {
            return;
        }
        // A lone job is swept in place; several are concatenated.
        let joined;
        let points = match valid[..] {
            [job] => &job.points,
            _ => {
                let mut flat =
                    Vec::with_capacity(valid.iter().map(|j| j.points.as_slice().len()).sum());
                for job in &valid {
                    flat.extend_from_slice(job.points.as_slice());
                }
                joined =
                    PointMatrix::from_flat(flat, dim).expect("concatenation of same-dim matrices");
                &joined
            }
        };
        let (requests, batch_points) = (valid.len(), points.len());
        let t0 = self.clock.now_ns();
        let (mut labels, d2, kstats) = version
            .predictor
            .assign(points)
            .expect("dimensionality checked per job");
        let sweep_ns = self.clock.now_ns().saturating_sub(t0);
        self.batch_hist
            .lock()
            .expect("batch histogram lock poisoned")
            .record(sweep_ns);
        // Account the batch before any reply goes out: a client that
        // reads its reply and immediately fetches stats must see its own
        // request counted.
        self.batches.fetch_add(1, Ordering::Relaxed);
        self.requests.fetch_add(requests as u64, Ordering::Relaxed);
        self.points
            .fetch_add(batch_points as u64, Ordering::Relaxed);
        self.max_batch_points
            .fetch_max(batch_points as u64, Ordering::Relaxed);
        self.distance_computations
            .fetch_add(kstats.distance_computations, Ordering::Relaxed);
        self.pruned_by_norm_bound
            .fetch_add(kstats.pruned_by_norm_bound, Ordering::Relaxed);
        let mut offset = 0;
        for entry in &mut batch.jobs {
            let Some(job) = entry.as_ref() else {
                continue;
            };
            let n = job.points.len();
            let labels = match (job.want_labels, requests) {
                (false, _) => Vec::new(),
                // A lone job's labels are the kernel's whole vector.
                (true, 1) => std::mem::take(&mut labels),
                (true, _) => labels[offset..offset + n].to_vec(),
            };
            let reply = AssignReply {
                revision: version.revision,
                labels,
                cost: version.predictor.cost_from_d2(&d2[offset..offset + n]),
            };
            offset += n;
            self.finish(entry.take().expect("matched above"), Ok(reply));
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
        // Fill the queue exactly to the cap behind the stalled combiner.
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
        // Stall the combiner, admit a deadlined request, and expire its
        // budget before the combiner dequeues it.
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

    /// A clock that logs which thread takes each reading, and panics on
    /// reading `panic_on` (1-based), if set.
    #[derive(Debug, Default)]
    struct ScriptedClock {
        readers: Mutex<Vec<std::thread::ThreadId>>,
        panic_on: Option<usize>,
    }

    impl Clock for ScriptedClock {
        fn now_ns(&self) -> u64 {
            let mut readers = self.readers.lock().unwrap();
            readers.push(std::thread::current().id());
            let reading = readers.len();
            drop(readers);
            if Some(reading) == self.panic_on {
                panic!("scripted clock failure on reading {reading}");
            }
            0
        }
    }

    impl ScriptedClock {
        fn readings_by(&self, thread: std::thread::ThreadId) -> usize {
            let readers = self.readers.lock().unwrap();
            readers.iter().filter(|&&id| id == thread).count()
        }
    }

    #[test]
    fn a_lone_request_is_swept_on_its_submitters_thread() {
        let (points, record) = fitted_record(9);
        let clock = Arc::new(ScriptedClock::default());
        let engine = ServeEngine::with_config(
            record,
            Executor::new(Parallelism::Sequential),
            EngineConfig {
                clock: Arc::clone(&clock) as Arc<dyn Clock>,
                ..EngineConfig::default()
            },
        )
        .unwrap();
        assert_eq!(
            engine.assign(points.clone(), true).unwrap().labels.len(),
            points.len()
        );
        // Admission, dequeue, the sweep's start and end, and the reply:
        // every reading is the submitter's own.
        let readers = clock.readers.lock().unwrap();
        assert_eq!(readers.len(), 5);
        assert!(readers.iter().all(|&id| id == std::thread::current().id()));
    }

    #[test]
    fn published_jobs_coalesce_deterministically() {
        let (points, record) = fitted_record(10);
        let local = kmeans_core::KMeansModel::from_record(
            record.clone(),
            Executor::new(Parallelism::Sequential),
        );
        let jobs: Vec<PointMatrix> = (0..3)
            .map(|j| {
                PointMatrix::from_flat(points.as_slice()[j * 80..(j + 1) * 80].to_vec(), 2).unwrap()
            })
            .collect();
        // Whole batch at the default cap; [j1, j2] then [j3] at 64 points,
        // which j3's submitter combines: five clock readings (admission,
        // dequeue, sweep start and end, reply) against two for a waiter.
        for (batch_cap, batches, max_batch_points, readings) in [
            (DEFAULT_MAX_BATCH_POINTS, 1, 120, [5, 2, 2]),
            (64, 2, 80, [5, 2, 5]),
        ] {
            let clock = Arc::new(ScriptedClock::default());
            let engine = ServeEngine::with_config(
                record.clone(),
                Executor::new(Parallelism::Sequential),
                EngineConfig {
                    batch_cap,
                    clock: Arc::clone(&clock) as Arc<dyn Clock>,
                    ..EngineConfig::default()
                },
            )
            .unwrap();
            let guard = engine.pause();
            let mut submitters = Vec::new();
            for (j, job) in jobs.iter().enumerate() {
                let (submitter, job) = (engine.clone(), job.clone());
                submitters.push(std::thread::spawn(move || submitter.assign(job, true)));
                // Published in order: j1 takes the role and holds it while
                // paused, j2 and j3 queue behind it.
                spin_until(std::time::Duration::from_secs(10), || {
                    engine.queued_points() == 40 * (j as u64 + 1)
                });
            }
            drop(guard);
            for ((job, submitter), readings) in jobs.iter().zip(submitters).zip(readings) {
                let thread = submitter.thread().id();
                let reply = submitter.join().unwrap().unwrap();
                assert_eq!(reply.labels, local.predict(job).unwrap());
                assert_eq!(reply.cost.to_bits(), local.cost_of(job).unwrap().to_bits());
                assert_eq!(clock.readings_by(thread), readings, "batch cap {batch_cap}");
            }
            let stats = engine.stats();
            assert_eq!(stats.requests, 3);
            assert_eq!(stats.points, 120);
            assert_eq!(stats.batches, batches, "batch cap {batch_cap}");
            assert_eq!(stats.max_batch_points, max_batch_points);
            assert_eq!(engine.queued_points(), 0);
        }
    }

    #[test]
    fn a_combiner_that_unwinds_strands_no_one() {
        let (points, record) = fitted_record(11);
        let n = points.len() as u64;
        let local = kmeans_core::KMeansModel::from_record(
            record.clone(),
            Executor::new(Parallelism::Sequential),
        );
        // Readings 1 and 2 admit A and B; reading 3 is the combiner's
        // dequeue.
        let clock = Arc::new(ScriptedClock {
            panic_on: Some(3),
            ..ScriptedClock::default()
        });
        let engine = ServeEngine::with_config(
            record,
            Executor::new(Parallelism::Sequential),
            EngineConfig {
                clock: Arc::clone(&clock) as Arc<dyn Clock>,
                ..EngineConfig::default()
            },
        )
        .unwrap();
        let guard = engine.pause();
        let a = {
            let (engine, points) = (engine.clone(), points.clone());
            std::thread::spawn(move || engine.assign(points, true))
        };
        spin_until(std::time::Duration::from_secs(10), || {
            engine.queued_points() == n
        });
        let (tx, rx) = std::sync::mpsc::channel();
        let b = {
            let (engine, points) = (engine.clone(), points.clone());
            std::thread::spawn(move || tx.send(engine.assign(points, true)).unwrap())
        };
        spin_until(std::time::Duration::from_secs(10), || {
            engine.queued_points() == 2 * n
        });
        drop(guard);
        assert!(a.join().is_err(), "the combiner's thread unwinds");
        let answer = rx
            .recv_timeout(std::time::Duration::from_secs(10))
            .expect("the waiter behind an unwound combiner is answered");
        assert!(matches!(answer, Err(WireError::Data(_))), "{answer:?}");
        b.join().unwrap();
        assert_eq!(engine.queued_points(), 0);
        // The role is free again: the next submitter combines.
        let reply = engine.assign(points.clone(), true).unwrap();
        assert_eq!(reply.labels, local.predict(&points).unwrap());
        assert_eq!(
            reply.cost.to_bits(),
            local.cost_of(&points).unwrap().to_bits()
        );
    }
}
