//! The coordinator's view of a worker cluster: connection bookkeeping,
//! the one scatter/gather exchange every fleet conversation runs, and
//! [`Cluster`] as the distributed [`RoundBackend`], so the
//! backend-generic drivers in `kmeans_core::driver` (k-means||, Lloyd,
//! mini-batch, random seeding) run on the workers exactly as they run in
//! memory or out of core.
//!
//! **Bit-parity discipline.** Each worker serves one
//! [`LocalBackend`](kmeans_core::driver::LocalBackend) part over its rows
//! and ships what the part returns: per-shard partial quantities of the
//! global grid (per-executor-shard `Σ d²` sums, per-accumulation-shard
//! assignment partials, per-shard samples). The coordinator decodes the
//! replies into parts, in worker order, and folds them with the very
//! functions a local fit folds its one part with
//! ([`fold_tracker_round`], [`fold_assign`], [`fold_shard_sums`]). Worker
//! order equals global shard order because worker row ranges are
//! contiguous, in order, and validated to start on the shard grid
//! ([`Cluster::plan`]). Every scalar RNG decision stays in the driver.
//! That is the whole argument for `fit_distributed` being bit-identical
//! to `fit`/`fit_chunked` for any worker count: the same parts' partials
//! are folded by the same code in the same order, just computed on more
//! machines.
//!
//! **One exchange.** Every fleet conversation — the plan, each round,
//! row gathers, the resume catch-up and the stats fetch — is one
//! exchange: one optional request per worker out, one reply per asked
//! worker back. It tries every send, drains the reply of every worker it
//! sent to (re-asking a failed send or the first failed receive while no
//! error is recorded), and only then surfaces the first error, so a
//! failed exchange never leaves a reply behind to answer the next one. A
//! worker's `Error` reply surfaces as [`ClusterError::Remote`]. Every
//! data round is counted ([`Cluster::round_trips`],
//! [`Cluster::blocked_wall`]) and spanned (`broadcast:<message>`) in one
//! place; the plan is session control and is neither.
//!
//! **Fault tolerance.** With a recovery path configured
//! ([`Cluster::set_recovery`]; [`Cluster::connect`] installs one that
//! redials the worker's address), a transport-level failure mid-round —
//! disconnect, I/O error, malformed frame — triggers a bounded
//! re-ask: the coordinator obtains a replacement transport for the dead
//! worker's slot, re-handshakes, re-sends the plan, replays the session
//! state the lost worker held as one catch-up `Compound` (its
//! [`SessionMirror`]: the exact tracker segment sequence and the
//! seed-cost potential before the first assignment, the last full
//! assignment pass and every bounded pass since from it on), and
//! re-sends the in-flight round request. A resumed checkpoint catches
//! the whole fleet up with the same frame ([`Cluster::catch_up`]).
//! Because workers hold no order-sensitive fold state — only
//! deterministic functions of (shard data, replayed broadcasts) — the
//! recovered fit is bit-identical to the zero-failure run. Attempts are
//! bounded by [`RetryPolicy`]; exhaustion is the typed
//! [`ClusterError::RecoveryFailed`], never a hang.
//!
//! Errors: the round methods return [`KMeansError`] through the
//! [`ClusterError`] conversion — typed clustering failures relayed from
//! workers pass through unchanged (a distributed fit reports the *same*
//! `NonFiniteData { point, dim }` a single-node fit would), and transport
//! failures surface as `KMeansError::Data`: a value, never a hang.

use crate::error::ClusterError;
use crate::protocol::{Message, WorkerStats};
use crate::transport::Transport;
use kmeans_core::assign::{sum_shard_size_for, ClusterSums};
use kmeans_core::cost::fold_shard_sums;
use kmeans_core::driver::{
    fold_assign, fold_tracker_round, AssignPart, BackendKind, Broadcast, LabelFetch, ReadPart,
    RoundBackend, TrackerOut, TrackerPart, TrackerRead,
};
use kmeans_core::KMeansError;
use kmeans_data::PointMatrix;
use kmeans_obs::{arg_u64, Recorder};
use std::collections::HashMap;
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

/// Receives worker `slot`'s opening `Hello` and checks the shard it
/// announces: rows of `dim` dimensions (`None`: any; the first worker
/// sets it), and either exactly `rows` of them — a replacement must serve
/// the lost worker's range — or, for `None`, at least one. Returns the
/// announced `(rows, dim)`.
fn hello(
    transport: &mut dyn Transport,
    slot: usize,
    rows: Option<usize>,
    dim: Option<usize>,
) -> Result<(usize, usize), ClusterError> {
    let (got_rows, got_dim) = match transport.recv()? {
        Message::Hello { rows, dim } => (rows as usize, dim as usize),
        other => return Err(unexpected(slot, Some(&other), "Hello")),
    };
    let rows_ok = rows.map_or(got_rows > 0, |r| r == got_rows);
    if !rows_ok || dim.is_some_and(|d| d != got_dim) {
        let want_rows = rows.map_or("at least 1".to_string(), |r| r.to_string());
        return Err(ClusterError::Protocol(format!(
            "worker {slot} serves {got_rows} rows × {got_dim} dims, expected {want_rows} × {}",
            dim.unwrap_or(got_dim)
        )));
    }
    Ok((got_rows, got_dim))
}

/// The broadcasts that rebuild a worker's session state, replayed as one
/// catch-up frame. Before the first assignment that state is the
/// tracker, rebuilt from its candidate segments — and, once the seed-cost
/// potential has run on it, the labels that pass wrote over its nearest
/// ids, rebuilt by replaying that pass. From the first assignment on it
/// is what the assignment passes left — labels, and after a `Skip` or
/// `Bounded` pass the bounds and shard sums a bounded pass starts from —
/// rebuilt by replaying the last full pass and every bounded pass since,
/// in order: the first `Assign` frees the tracker and the seed-cost
/// labels, and each bounded pass starts from the one before. [`Cluster`]
/// keeps one for worker recovery; a resumed checkpoint rebuilds one from
/// its journal and hands it to [`Cluster::catch_up`].
#[derive(Clone, Debug, Default)]
pub struct SessionMirror {
    /// The exact candidate segment sequence: replayed verbatim, it
    /// rebuilds the tracker bit for bit, nearest-candidate tie-breaks
    /// (which depend on the segment boundaries) included.
    segments: Vec<PointMatrix>,
    /// The centers of the seed-cost potential that turned the tracker
    /// into labels, while no assignment has followed it: replayed after
    /// the segments, it rebuilds those labels, so the first assignment
    /// reads them and reports the same kernel counters.
    potential: Option<PointMatrix>,
    /// The last committed full assignment pass and every bounded pass
    /// since, in order, with their modes. The replayed full pass may run
    /// cold where the original was seeded by the tracker or by older
    /// labels; its labels, shard sums and bounds are the same bits, since
    /// they depend on a row and the centers alone, so every later pass
    /// settles and sweeps the same rows.
    assigns: Vec<(PointMatrix, LabelFetch)>,
}

impl SessionMirror {
    /// Records a committed tracker broadcast: `Init` starts the segments
    /// over, a non-empty `Update` appends one.
    pub fn record_tracker(&mut self, broadcast: Broadcast<'_>) {
        match broadcast {
            Broadcast::Init(centers) => {
                self.segments = vec![centers.clone()];
                self.potential = None;
            }
            Broadcast::Update { rows, .. } if !rows.is_empty() => self.segments.push(rows.clone()),
            Broadcast::Update { .. } => {}
        }
    }

    /// Records a committed potential pass. The first one over a live
    /// tracker turns it into labels at `centers`; any other leaves the
    /// session as it was.
    pub fn record_potential(&mut self, centers: &PointMatrix) {
        if !self.segments.is_empty() && self.potential.is_none() {
            self.potential = Some(centers.clone());
        }
    }

    /// Records a committed assignment pass. The pass freed every
    /// worker's tracker and seed-cost labels, so the segments and the
    /// potential go; a full pass rebuilds the state the passes before it
    /// left, so they go too.
    pub fn record_assign(&mut self, centers: &PointMatrix, fetch: LabelFetch) {
        self.segments.clear();
        self.potential = None;
        if fetch != LabelFetch::Bounded {
            self.assigns.clear();
        }
        self.assigns.push((centers.clone(), fetch));
    }

    /// The catch-up frame and its arity (`None`: nothing to catch up):
    /// the segments as `InitTracker`/`UpdateTracker`, the seed-cost
    /// potential as a `Cost`, then every recorded `Assign`, whose replies
    /// carry no partials ([`Message::Compound`]). It holds the candidate
    /// set during seeding, and from the first assignment on one center
    /// set per pass since the last full one.
    fn frame(&self) -> Option<(Message, usize)> {
        let mut items = Vec::with_capacity(self.segments.len() + 1 + self.assigns.len());
        let mut from = 0u64;
        for (i, seg) in self.segments.iter().enumerate() {
            items.push(if i == 0 {
                Message::InitTracker {
                    centers: seg.clone(),
                }
            } else {
                Message::UpdateTracker {
                    from,
                    centers: seg.clone(),
                }
            });
            from += seg.len() as u64;
        }
        items.extend(self.potential.iter().map(|centers| Message::Cost {
            centers: centers.clone(),
        }));
        items.extend(
            self.assigns
                .iter()
                .map(|(centers, labels)| Message::Assign {
                    centers: centers.clone(),
                    labels: *labels,
                }),
        );
        let arity = items.len();
        (arity > 0).then_some((Message::Compound(items), arity))
    }
}

/// A worker answered with the wrong kind of reply (`None`: no reply).
fn unexpected(worker: usize, got: Option<&Message>, want: &str) -> ClusterError {
    let got = got.map_or("nothing", Message::name);
    ClusterError::Protocol(format!(
        "worker {worker} answered with {got} instead of {want}"
    ))
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
/// worker order, and the distributed [`RoundBackend`] over them.
/// Construct with [`Cluster::new`] (any transports, e.g. loopback) or
/// [`Cluster::connect`] (TCP), then call [`Cluster::plan`] before any
/// round; `fit_distributed` plans for you.
pub struct Cluster {
    workers: Vec<WorkerConn>,
    global_n: usize,
    dim: usize,
    shard_size: usize,
    data_passes: u64,
    /// Data-round request/reply cycles driven over the fleet — one per
    /// counted exchange ([`Cluster::round`]), row gathers included.
    /// Session control (`Hello`/`Plan`/`Shutdown`) is excluded: it is
    /// per-connection setup, not part of the algorithm's round budget.
    round_trips: u64,
    blocked_wall: Duration,
    recovery: Option<Recovery>,
    /// The session state the workers hold, for a replacement worker's
    /// catch-up.
    mirror: SessionMirror,
    /// Preloaded rows ([`RoundBackend::preload_rows`]): global row index
    /// → position in the cached matrix. Mini-batch's per-step gathers are
    /// served from here, collapsing its ~`steps` wire cycles into one.
    /// Per fit: [`Cluster::plan`] clears it.
    preload: Option<(HashMap<usize, usize>, PointMatrix)>,
    /// Flight recorder for the conversation tier: one span per counted
    /// exchange, instant events for recovery (re-dial, replay, adopt).
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
            let (rows, wdim) = hello(transport.as_mut(), i, None, dim)?;
            dim = Some(wdim);
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
            mirror: SessionMirror::default(),
            preload: None,
            recorder: Recorder::disabled(),
        })
    }

    /// Arms the flight recorder for this cluster's conversation tier:
    /// every counted exchange records a `broadcast:<message>` span (cat
    /// `cluster`, with the number of workers asked), and mid-round
    /// recovery records instant events (`recover:redial`) plus an
    /// adoption span (`recover:adopt`) covering the replacement's
    /// handshake and replay.
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
    ///
    /// A plan opens a fit: the counters, the session mirror and the
    /// preload cache start over, so no fit's round trips or wire traffic
    /// depend on an earlier fit on the same cluster.
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
        self.mirror = SessionMirror::default();
        self.preload = None;
        let plans: Vec<Message> = (0..self.workers.len())
            .map(|slot| self.plan_for(slot))
            .collect();
        let requests: Vec<Option<&Message>> = plans.iter().map(Some).collect();
        for (i, reply) in self.exchange(&requests)?.into_iter().enumerate() {
            if reply != Some(Message::PlanOk) {
                return Err(unexpected(i, reply.as_ref(), "PlanOk"));
            }
        }
        Ok(())
    }

    /// Worker `slot`'s `Plan` under the planned shard size.
    fn plan_for(&self, slot: usize) -> Message {
        Message::Plan {
            global_n: self.global_n as u64,
            start_row: self.workers[slot].start_row as u64,
            shard_size: self.shard_size as u64,
            dim: self.dim as u32,
        }
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
    /// → adopt into the slot → `Plan` → one catch-up `Compound` (see
    /// [`SessionMirror`]) → re-send the in-flight request.
    fn try_adopt(&mut self, slot: usize, request: &Message) -> Result<Message, ClusterError> {
        let adopt_span = self.recorder.start();
        let recovery = self.recovery.as_mut().expect("recovery configured");
        let mut transport = (recovery.supplier)(slot)?;
        hello(
            transport.as_mut(),
            slot,
            Some(self.workers[slot].rows),
            Some(self.dim),
        )?;
        let old = std::mem::replace(&mut self.workers[slot].transport, transport);
        self.workers[slot].retired_sent += old.bytes_sent();
        self.workers[slot].retired_received += old.bytes_received();
        drop(old);
        if self.shard_size > 0 {
            let plan = self.plan_for(slot);
            match roundtrip(&mut self.workers[slot], &plan)? {
                Message::PlanOk => {}
                other => return Err(unexpected(slot, Some(&other), "PlanOk")),
            }
            // Replay the session state the lost worker held as one
            // frame; the replies were already folded before the failure
            // and are discarded here.
            if let Some((frame, arity)) = self.mirror.frame() {
                let reply = roundtrip(&mut self.workers[slot], &frame)?;
                Self::unpack_compound(slot, reply, arity)?;
            }
        }
        let reply = roundtrip(&mut self.workers[slot], request)?;
        // The adoption span covers handshake + plan + catch-up + the
        // re-asked request, so a recovered round's extra
        // wall time is visible in the trace next to the recover:redial
        // instants.
        let segments = self.mirror.segments.len() as u64;
        let restored = !self.mirror.assigns.is_empty() as u64;
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

    /// The one fleet exchange: sends `requests[i]` to every worker `i`
    /// that has one, then drains the reply of every worker it sent to, in
    /// worker order. A failed send, and the first failed receive, is
    /// re-asked ([`Cluster::reask`]) while no error is recorded. The
    /// first error surfaces only once every sent worker's reply is read,
    /// so a failed exchange leaves no reply behind to answer the next
    /// one; without one, the first `Error` reply surfaces as
    /// [`ClusterError::Remote`]. Returns one reply per request, `None`
    /// where there was no request.
    fn exchange(
        &mut self,
        requests: &[Option<&Message>],
    ) -> Result<Vec<Option<Message>>, ClusterError> {
        let mut replies: Vec<Option<Message>> = requests.iter().map(|_| None).collect();
        let mut sent = vec![false; requests.len()];
        let mut first_err = None;
        for (i, request) in requests.iter().enumerate() {
            let Some(request) = request else { continue };
            match self.workers[i].transport.send(request) {
                Ok(()) => sent[i] = true,
                Err(e) if first_err.is_none() => match self.reask(i, request, e) {
                    Ok(reply) => replies[i] = Some(reply),
                    Err(e) => first_err = Some(e),
                },
                Err(_) => {}
            }
        }
        for (i, request) in requests.iter().enumerate() {
            let (true, Some(request)) = (sent[i], request) else {
                continue;
            };
            let reply = match self.workers[i].transport.recv() {
                Err(e) if first_err.is_none() => self.reask(i, request, e),
                reply => reply,
            };
            match reply {
                Ok(m) => replies[i] = Some(m),
                Err(e) => {
                    first_err.get_or_insert(e);
                }
            }
        }
        if let Some(e) = first_err {
            return Err(e);
        }
        for (worker, reply) in replies.iter().enumerate() {
            if let Some(Message::Error(e)) = reply {
                return Err(ClusterError::Remote {
                    worker,
                    error: e.clone().into(),
                });
            }
        }
        Ok(replies)
    }

    /// One counted data round: an [`exchange`](Cluster::exchange) whose
    /// round trip, blocked wall and `broadcast:<message>` span (cat
    /// `cluster`: the workers asked, whether it succeeded) are taken
    /// here, for broadcasts and row gathers alike.
    fn round(
        &mut self,
        requests: &[Option<&Message>],
    ) -> Result<Vec<Option<Message>>, ClusterError> {
        let t0 = Instant::now();
        let span = self.recorder.start();
        self.round_trips += 1;
        let replies = self.exchange(requests);
        self.blocked_wall += t0.elapsed();
        if self.recorder.is_enabled() {
            let asked: Vec<&Message> = requests.iter().flatten().copied().collect();
            let name = format!(
                "broadcast:{}",
                asked.first().map_or("nothing", |m| m.name())
            );
            let ok = replies.is_ok();
            self.recorder.span(span, &name, CLUSTER_CAT, || {
                vec![
                    arg_u64("workers", asked.len() as u64),
                    arg_u64("ok", ok as u64),
                ]
            });
        }
        replies
    }

    /// A counted round sending `msg` to every worker: one reply each, in
    /// worker order.
    fn broadcast(&mut self, msg: &Message) -> Result<Vec<Message>, ClusterError> {
        let requests = vec![Some(msg); self.workers.len()];
        Ok(self
            .round(&requests)?
            .into_iter()
            .map(|reply| reply.expect("every worker was asked"))
            .collect())
    }

    /// Brings every worker to the session state a resumed fit's journal
    /// replayed, mirrored in `mirror`, with the same catch-up `Compound`
    /// recovery sends a replacement worker: one fleet round trip, none
    /// when there is nothing to catch up. The mirror is installed once
    /// every worker has committed it.
    pub fn catch_up(&mut self, mirror: SessionMirror) -> Result<(), ClusterError> {
        if let Some((frame, arity)) = mirror.frame() {
            let replies = self.broadcast(&frame)?;
            for (i, r) in replies.into_iter().enumerate() {
                Self::unpack_compound(i, r, arity)?;
            }
            self.data_passes += arity as u64;
        }
        self.mirror = mirror;
        Ok(())
    }

    /// Unpacks one worker's compound reply: a `Compound` of exactly
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
            other => Err(unexpected(worker, Some(&other), "Compound")),
        }
    }

    /// Fetches rows by global index from their owning workers, preserving
    /// the request order (duplicates allowed): one counted round that
    /// asks only the owners.
    fn gather(&mut self, indices: &[usize]) -> Result<PointMatrix, ClusterError> {
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
        let requests: Vec<Option<Message>> = per_worker
            .into_iter()
            .map(|indices| (!indices.is_empty()).then_some(Message::GatherRows { indices }))
            .collect();
        let asked: Vec<Option<&Message>> = requests.iter().map(Option::as_ref).collect();
        let mut gathered = Vec::with_capacity(requests.len());
        for (w, reply) in self.round(&asked)?.into_iter().enumerate() {
            gathered.push(match reply {
                None => PointMatrix::new(self.dim),
                Some(Message::Rows { rows }) => rows,
                Some(other) => return Err(unexpected(w, Some(&other), "Rows")),
            });
        }
        // Reassemble in request order: take each owner's next row.
        let mut cursors = vec![0usize; gathered.len()];
        for &w in &owners {
            if cursors[w] >= gathered[w].len() {
                return Err(ClusterError::Protocol(format!(
                    "worker {w} returned too few rows"
                )));
            }
            out.push(gathered[w].row(cursors[w])).map_err(|_| {
                ClusterError::Protocol(format!("worker {w} returned rows of the wrong dim"))
            })?;
            cursors[w] += 1;
        }
        Ok(out)
    }

    /// Serves a gather from the preload cache when every requested row
    /// is cached; `None` falls through to the wire.
    fn cached_rows(&self, indices: &[usize]) -> Option<Result<PointMatrix, KMeansError>> {
        let (map, rows) = self.preload.as_ref()?;
        let mut out = PointMatrix::new(rows.dim());
        for g in indices {
            let &pos = map.get(g)?;
            if let Err(e) = out.push(rows.row(pos)) {
                return Some(Err(KMeansError::Data(format!(
                    "preloaded row {g} has the wrong dim: {e}"
                ))));
            }
        }
        Some(Ok(out))
    }

    /// Fetches every worker's residency accounting.
    pub fn fetch_stats(&mut self) -> Result<Vec<WorkerStats>, ClusterError> {
        let replies = self.broadcast(&Message::FetchStats)?;
        replies
            .into_iter()
            .enumerate()
            .map(|(i, r)| match r {
                Message::Stats(s) => Ok(s),
                other => Err(unexpected(i, Some(&other), "Stats")),
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

    /// Data-round request/reply cycles driven so far: one per counted
    /// exchange — a fleet broadcast or a row gather. Session control
    /// (`Hello`/`Plan`/`Shutdown`) is excluded. A fused `Compound` round
    /// counts once — this is the latency currency the round-fused driver
    /// minimizes.
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

/// Every round-level call is one counted exchange, one frame per worker
/// asked; the input contract is the trait's shape check over the global
/// `(n, dim)`.
impl RoundBackend for Cluster {
    fn kind(&self) -> BackendKind {
        BackendKind::Distributed
    }

    fn len(&self) -> usize {
        self.global_n
    }

    fn dim(&self) -> usize {
        self.dim
    }

    fn wire_bytes(&self) -> Option<u64> {
        // Monotonic across worker re-dials: retired transports fold
        // their totals into the per-worker counters on replacement.
        Some(self.bytes_sent() + self.bytes_received())
    }

    fn gather_rows(&mut self, indices: &[usize], out: &mut PointMatrix) -> Result<(), KMeansError> {
        *out = match self.cached_rows(indices) {
            Some(cached) => cached?,
            None => self.gather(indices)?,
        };
        Ok(())
    }

    fn preload_rows(&mut self, indices: &[usize]) -> Result<(), KMeansError> {
        let mut unique: Vec<usize> = indices.to_vec();
        unique.sort_unstable();
        unique.dedup();
        let rows = self.gather(&unique)?;
        self.preload = Some((unique.into_iter().zip(0..).collect(), rows));
        Ok(())
    }

    /// One k-means|| tracker round as one `Compound` frame per worker:
    /// the broadcast (`InitTracker` or `UpdateTracker`, possibly with no
    /// rows) fused with its read (`SampleBernoulliLocal`, `SampleExact`,
    /// `CandidateWeights`, `GatherD2`, or none). Decodes each worker's
    /// replies into its [`TrackerPart`] and folds the parts, in worker
    /// order, with [`fold_tracker_round`] — the fold a local fit runs on
    /// its one part. A Bernoulli read rides the frame of the update that
    /// changes φ because each part prescreens against its own φ, a lower
    /// bound on the folded one, and the fold replays the exact test
    /// ([`sample_bernoulli_prescreen`](kmeans_core::init::sample_bernoulli_prescreen)).
    fn tracker_round(
        &mut self,
        broadcast: Broadcast<'_>,
        read: TrackerRead,
    ) -> Result<(f64, TrackerOut), KMeansError> {
        let tracker_msg = match broadcast {
            Broadcast::Init(centers) => {
                // A new tracker: the old segments and potential describe
                // nothing the workers will hold once this round commits.
                self.mirror.segments.clear();
                self.mirror.potential = None;
                Message::InitTracker {
                    centers: centers.clone(),
                }
            }
            Broadcast::Update { from, rows } => Message::UpdateTracker {
                from: from as u64,
                centers: rows.clone(),
            },
        };
        let items: Vec<Message> = std::iter::once(tracker_msg)
            .chain(Message::read_request(read))
            .collect();
        let arity = items.len();
        let replies = self.broadcast(&Message::Compound(items))?;
        let mut parts = Vec::with_capacity(replies.len());
        for (i, r) in replies.into_iter().enumerate() {
            let mut items = Self::unpack_compound(i, r, arity)?.into_iter();
            let sums = match items.next() {
                Some(Message::ShardSums { sums }) => sums,
                other => return Err(unexpected(i, other.as_ref(), "ShardSums").into()),
            };
            let read = match items.next().map(Message::into_read_part) {
                None => ReadPart::Nothing,
                Some(Ok(part)) => part,
                Some(Err(other)) => return Err(unexpected(i, Some(&other), "a read").into()),
            };
            let rows = self.workers[i].rows;
            parts.push(TrackerPart { rows, sums, read });
        }
        self.data_passes += 1;
        // The round committed on every worker.
        self.mirror.record_tracker(broadcast);
        fold_tracker_round(read, self.dim, parts)
    }

    /// One distributed assignment pass: decodes each worker's `Partials`
    /// into its [`AssignPart`] and folds the parts with [`fold_assign`] —
    /// bit-identical to the single-node assignment pass on the same
    /// centers, the kernel work counters included (they are
    /// deterministic per point, so their sum over workers equals the
    /// single-node pass's).
    ///
    /// `fetch` names the kind of pass every worker runs, and piggybacks
    /// label shipping on the same round trip: `Always` makes every worker
    /// append its labels to the partials frame. A worker without the
    /// bounds a `Bounded` pass starts from answers with an error.
    fn assign(
        &mut self,
        centers: &PointMatrix,
        fetch: LabelFetch,
    ) -> Result<(u64, ClusterSums, Option<Vec<u32>>), KMeansError> {
        let replies = self.broadcast(&Message::Assign {
            centers: centers.clone(),
            labels: fetch,
        })?;
        let mut parts = Vec::with_capacity(replies.len());
        for (i, r) in replies.into_iter().enumerate() {
            let Message::Partials {
                reassigned,
                shards,
                stats,
                labels,
            } = r
            else {
                return Err(unexpected(i, Some(&r), "Partials").into());
            };
            let rows = self.workers[i].rows;
            parts.push(AssignPart {
                rows,
                reassigned,
                shards,
                stats,
                labels,
            });
        }
        self.data_passes += 1;
        let folded = fold_assign(centers.len(), self.dim, fetch, parts)?;
        self.mirror.record_assign(centers, fetch);
        Ok(folded)
    }

    /// Global potential of `centers` over all workers' rows (with the
    /// finiteness check): the [`fold_shard_sums`] of every worker's
    /// `ShardSums`, in worker order = shard order — bit-identical to the
    /// single-node potential.
    fn potential(&mut self, centers: &PointMatrix) -> Result<f64, KMeansError> {
        let replies = self.broadcast(&Message::Cost {
            centers: centers.clone(),
        })?;
        let mut sums = Vec::new();
        for (i, r) in replies.into_iter().enumerate() {
            let Message::ShardSums { sums: part } = r else {
                return Err(unexpected(i, Some(&r), "ShardSums").into());
            };
            sums.extend(part);
        }
        self.data_passes += 1;
        self.mirror.record_potential(centers);
        Ok(fold_shard_sums(sums))
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

    /// The catch-up replays the last full pass and the bounded passes
    /// since: a `Skip` or `Always` pass rebuilds everything before it.
    #[test]
    fn mirror_replays_the_passes_since_the_last_full_one() {
        let centers = |v: f64| PointMatrix::from_flat(vec![v, -v], 2).unwrap();
        let replayed = |mirror: &SessionMirror| match mirror.frame() {
            Some((Message::Compound(items), arity)) => {
                assert_eq!(items.len(), arity);
                items
                    .into_iter()
                    .map(|item| match item {
                        Message::Assign { centers, labels } => (centers.row(0)[0], labels),
                        other => panic!("replayed {}", other.name()),
                    })
                    .collect::<Vec<_>>()
            }
            other => panic!("no catch-up: {other:?}"),
        };
        let mut mirror = SessionMirror::default();
        mirror.record_tracker(Broadcast::Init(&centers(9.0)));
        mirror.record_assign(&centers(1.0), LabelFetch::Skip);
        mirror.record_assign(&centers(2.0), LabelFetch::Bounded);
        mirror.record_assign(&centers(3.0), LabelFetch::Bounded);
        assert_eq!(
            replayed(&mirror),
            [
                (1.0, LabelFetch::Skip),
                (2.0, LabelFetch::Bounded),
                (3.0, LabelFetch::Bounded)
            ]
        );
        // A repeat at the same centers, then more bounded passes.
        mirror.record_assign(&centers(3.0), LabelFetch::Skip);
        mirror.record_assign(&centers(4.0), LabelFetch::Bounded);
        assert_eq!(
            replayed(&mirror),
            [(3.0, LabelFetch::Skip), (4.0, LabelFetch::Bounded)]
        );
        mirror.record_assign(&centers(4.0), LabelFetch::Always);
        assert_eq!(replayed(&mirror), [(4.0, LabelFetch::Always)]);
    }
}
