//! The wire protocol: length-prefixed, checksummed frames carrying the
//! messages of the distributed k-means|| round structure.
//!
//! Frame layout (all integers little-endian):
//!
//! ```text
//! offset        size  field
//! 0             4     magic  b"SKW2"
//! 4             1     message tag
//! 5             4     payload length `len` (u32)
//! 9             len   payload (tag-specific encoding)
//! 9 + len       8     checksum: lanes64 over bytes [0, 9 + len)
//! ```
//!
//! Everything is hand-rolled `std` binary encoding — no external
//! dependencies, mirroring the repo's `SKMBLK01` block format. Decoding is
//! defensive: a frame is parsed only after its declared length passes the
//! caller's cap (no attacker-controlled allocation), every vector count is
//! checked against the bytes actually present before allocating, and every
//! malformed input maps to a typed [`FrameError`] — never a panic
//! (`tests/protocol_proptests.rs` fuzzes this contract).
//!
//! The frame assembly, the checksum, and the decoder primitives are the
//! shared machinery of [`crate::wire`]; this module supplies the `SKW`
//! vocabulary — the distributed-runtime [`Message`] enum and its per-tag
//! payload codecs — via the [`WireMessage`] impl. The serving tier's
//! `SKS` vocabulary (`kmeans-serve`) is a second instance of the same
//! machinery.

pub use crate::wire::{FrameError, ReadFrameError, MAX_FRAME_PAYLOAD};

use crate::wire::{Dec, Enc, WireMessage};
use kmeans_core::chunked::AccumShard;
use kmeans_core::driver::{LabelFetch, ReadPart, SampleSpec, TrackerRead};
use kmeans_core::kernel::KernelStats;
use kmeans_core::KMeansError;
use kmeans_data::PointMatrix;

/// Frame magic of the `SKW` vocabulary (see module docs).
pub const FRAME_MAGIC: [u8; 4] = *b"SKW2";

/// A typed clustering error crossing the wire (worker → coordinator).
/// Mirrors [`KMeansError`] so the coordinator surfaces the *same* typed
/// error a single-node run would (`NonFiniteData` carries the global point
/// index, translated by the worker).
#[derive(Debug, Clone, PartialEq)]
pub enum WireError {
    /// [`KMeansError::EmptyInput`].
    EmptyInput,
    /// [`KMeansError::InvalidK`].
    InvalidK {
        /// Requested clusters.
        k: u64,
        /// Points available.
        n: u64,
    },
    /// [`KMeansError::DimensionMismatch`].
    DimensionMismatch {
        /// Expected dimensionality.
        expected: u64,
        /// Provided dimensionality.
        got: u64,
    },
    /// [`KMeansError::InvalidConfig`].
    InvalidConfig(String),
    /// [`KMeansError::NonFiniteData`] (global point index).
    NonFiniteData {
        /// Global index of the offending point.
        point: u64,
        /// Offending dimension.
        dim: u64,
    },
    /// [`KMeansError::Data`].
    Data(String),
    /// The serving tier's admission queue is full: the request was shed
    /// *before* touching the kernel. Retriable — another replica (or the
    /// same one, moments later) may have room.
    Overloaded {
        /// Points admitted but not yet answered when the request arrived.
        queued_points: u64,
        /// The server's admission cap (`--queue-cap`), in points.
        cap: u64,
    },
    /// The request's deadline budget expired while it waited in the
    /// admission queue; the server skipped the kernel sweep whose answer
    /// the client had already abandoned.
    DeadlineExceeded {
        /// The budget the request carried, in milliseconds.
        budget_ms: u64,
    },
    /// The server is draining: already-admitted work completes and
    /// replies, new work is rejected. Retriable against another replica.
    Draining,
}

impl From<KMeansError> for WireError {
    fn from(e: KMeansError) -> Self {
        match e {
            KMeansError::EmptyInput => WireError::EmptyInput,
            KMeansError::InvalidK { k, n } => WireError::InvalidK {
                k: k as u64,
                n: n as u64,
            },
            KMeansError::DimensionMismatch { expected, got } => WireError::DimensionMismatch {
                expected: expected as u64,
                got: got as u64,
            },
            KMeansError::InvalidConfig(m) => WireError::InvalidConfig(m),
            KMeansError::NonFiniteData { point, dim } => WireError::NonFiniteData {
                point: point as u64,
                dim: dim as u64,
            },
            KMeansError::Data(m) => WireError::Data(m),
        }
    }
}

impl From<WireError> for KMeansError {
    fn from(e: WireError) -> Self {
        match e {
            WireError::EmptyInput => KMeansError::EmptyInput,
            WireError::InvalidK { k, n } => KMeansError::InvalidK {
                k: k as usize,
                n: n as usize,
            },
            WireError::DimensionMismatch { expected, got } => KMeansError::DimensionMismatch {
                expected: expected as usize,
                got: got as usize,
            },
            WireError::InvalidConfig(m) => KMeansError::InvalidConfig(m),
            WireError::NonFiniteData { point, dim } => KMeansError::NonFiniteData {
                point: point as usize,
                dim: dim as usize,
            },
            WireError::Data(m) => KMeansError::Data(m),
            // The serving tier's typed rejections have no local
            // counterpart (a local predict is never shed); they collapse
            // into the catch-all with the queue state preserved in text.
            WireError::Overloaded { queued_points, cap } => KMeansError::Data(format!(
                "server overloaded: {queued_points} points queued (admission cap {cap}); \
                 request shed"
            )),
            WireError::DeadlineExceeded { budget_ms } => KMeansError::Data(format!(
                "deadline exceeded: the {budget_ms} ms budget expired before the request \
                 was batched"
            )),
            WireError::Draining => {
                KMeansError::Data("server draining: new requests are rejected".into())
            }
        }
    }
}

impl WireError {
    /// Encodes the error as its kind byte and fields: the payload of the
    /// `Error` message in both frame vocabularies, the worker's
    /// [`Message`] and the serving tier's.
    pub fn encode(&self, e: &mut Enc) {
        match self {
            WireError::EmptyInput => e.u8(1),
            WireError::InvalidK { k, n } => {
                e.u8(2);
                e.u64(*k);
                e.u64(*n);
            }
            WireError::DimensionMismatch { expected, got } => {
                e.u8(3);
                e.u64(*expected);
                e.u64(*got);
            }
            WireError::InvalidConfig(m) => {
                e.u8(4);
                e.text(m);
            }
            WireError::NonFiniteData { point, dim } => {
                e.u8(5);
                e.u64(*point);
                e.u64(*dim);
            }
            WireError::Data(m) => {
                e.u8(6);
                e.text(m);
            }
            WireError::Overloaded { queued_points, cap } => {
                e.u8(7);
                e.u64(*queued_points);
                e.u64(*cap);
            }
            WireError::DeadlineExceeded { budget_ms } => {
                e.u8(8);
                e.u64(*budget_ms);
            }
            WireError::Draining => e.u8(9),
        }
    }

    /// Decodes what [`WireError::encode`] wrote; an unknown kind byte is
    /// a malformed frame.
    pub fn decode(d: &mut Dec<'_>) -> Result<Self, FrameError> {
        Ok(match d.u8()? {
            1 => WireError::EmptyInput,
            2 => WireError::InvalidK {
                k: d.u64()?,
                n: d.u64()?,
            },
            3 => WireError::DimensionMismatch {
                expected: d.u64()?,
                got: d.u64()?,
            },
            4 => WireError::InvalidConfig(d.text()?),
            5 => WireError::NonFiniteData {
                point: d.u64()?,
                dim: d.u64()?,
            },
            6 => WireError::Data(d.text()?),
            7 => WireError::Overloaded {
                queued_points: d.u64()?,
                cap: d.u64()?,
            },
            8 => WireError::DeadlineExceeded {
                budget_ms: d.u64()?,
            },
            9 => WireError::Draining,
            _ => return Err(FrameError::Malformed("unknown error kind")),
        })
    }
}

/// A worker's residency/accounting snapshot (reply to
/// [`Message::FetchStats`]), surfaced in the CLI's per-worker report.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct WorkerStats {
    /// Peak feature bytes the worker's source ever materialized at once.
    pub peak_bytes: u64,
    /// Blocks decoded from the worker's backing store.
    pub loads: u64,
    /// Block reads served from blocks the worker's source held resident.
    pub hits: u64,
    /// Configured memory budget (`u64::MAX` when the source enforces
    /// none).
    pub budget_bytes: u64,
}

/// One message of the coordinator/worker conversation. The round
/// structure of Algorithm 2 maps onto these directly: `InitTracker` /
/// `UpdateTracker` are the centers broadcasts (Steps 2 and 5–6),
/// `SampleBernoulliLocal` / `SampleExact` are Step 4, `ShardSums`
/// carries the `φ_X′(C)` cost partials of §3.5, `CandidateWeights` is
/// Step 7, and `Assign`/`Partials` carry the accumulation-shard partials
/// of the distributed Lloyd iteration. A tracker broadcast and its read
/// travel together as one [`Message::Compound`] frame per worker.
///
/// Retired tags, never reused: 7/8 (`SampleBernoulli`/`Sampled`), 20/21
/// (`FetchLabels`/`Labels`), 27/28 (`RestoreLabels`/`RestoreOk`). They
/// decode as [`FrameError::UnknownTag`].
#[derive(Debug, Clone, PartialEq)]
pub enum Message {
    /// Worker → coordinator on connect: local shard shape.
    Hello {
        /// Rows the worker serves.
        rows: u64,
        /// Row dimensionality.
        dim: u32,
    },
    /// Coordinator → worker: the fit's global layout.
    Plan {
        /// Total rows across all workers.
        global_n: u64,
        /// Global index of this worker's first row.
        start_row: u64,
        /// Executor shard size (the reproducibility key's shard grid).
        shard_size: u64,
        /// Expected dimensionality (cross-check).
        dim: u32,
    },
    /// Worker → coordinator: plan accepted.
    PlanOk,
    /// Broadcast of an initial candidate/center set; the worker (re)builds
    /// its local `d²`/nearest tracker state and replies with `ShardSums`.
    InitTracker {
        /// The centers.
        centers: PointMatrix,
    },
    /// Broadcast of newly added candidates only (`from` = index of the
    /// first new row in the worker's candidate set). Replies `ShardSums`.
    UpdateTracker {
        /// Index of the first new candidate.
        from: u64,
        /// The new candidate rows.
        centers: PointMatrix,
    },
    /// Per-executor-shard partial sums, in shard order (reply to
    /// `InitTracker`, `UpdateTracker`, and `Cost`).
    ShardSums {
        /// One partial per executor shard of the worker's range.
        sums: Vec<f64>,
    },
    /// Step 4, exact-ℓ form: per-shard Efraimidis–Spirakis keys. Replies
    /// `ExactKeys`; the coordinator merges globally and gathers rows.
    SampleExact {
        /// Round index.
        round: u64,
        /// Base seed.
        seed: u64,
        /// Global sample size `m`.
        m: u64,
    },
    /// Shard-local top-`m` keyed candidates `(key, global index)`.
    ExactKeys {
        /// The keyed entries, per-shard top-`m` concatenated.
        entries: Vec<(f64, u64)>,
    },
    /// Step 7: candidate weights from the tracked nearest ids. Replies
    /// `Weights`.
    CandidateWeights {
        /// Candidate count (cross-checked against the worker's set).
        m: u64,
    },
    /// Per-candidate local point counts (integer-valued f64, summed
    /// exactly by the coordinator).
    Weights {
        /// `w_x` restricted to the worker's rows.
        weights: Vec<f64>,
    },
    /// Fetch specific rows by global index (within the worker's range).
    GatherRows {
        /// Global row indices, in the order the rows should come back.
        indices: Vec<u64>,
    },
    /// Reply to `GatherRows`.
    Rows {
        /// The gathered rows.
        rows: PointMatrix,
    },
    /// Fetch the worker's resident `d²` slice (top-up path only).
    GatherD2,
    /// Reply to `GatherD2`.
    D2 {
        /// The worker's `d²` values, in local row order.
        values: Vec<f64>,
    },
    /// One distributed assignment pass against these centers. Replies
    /// `Partials`; the worker stores the labels, which seed the next
    /// pass's warm sweep, and after a `Skip` or `Bounded` pass the bounds
    /// and shard sums a `Bounded` pass starts from. A session without
    /// labels seeds the pass from its seeding tracker while it has one,
    /// and runs it cold otherwise — either way the labels and bounds are
    /// the same bits, which is how recovery catch-up rebuilds a lost
    /// worker's state.
    Assign {
        /// The centers.
        centers: PointMatrix,
        /// The kind of pass, and whether the reply should carry the
        /// stored labels — the driver's own [`LabelFetch`], decided by the
        /// worker with [`LabelFetch::owed`]. Encoded as a byte after the
        /// centers (0 `Skip`, 2 `Always`, 3 `Bounded`; 1, the retired
        /// `IfStable`, and any other byte decode as malformed).
        labels: LabelFetch,
    },
    /// Accumulation-shard partials of one assignment pass, in shard
    /// order, plus the reassignment count vs. the previous pass and the
    /// pass's kernel work counters.
    Partials {
        /// Rows whose label changed (local count; first pass = all).
        reassigned: u64,
        /// One partial per accumulation shard of the worker's range.
        shards: Vec<AccumShard>,
        /// The worker's kernel counters for this pass (distance
        /// evaluations performed, candidates pruned by the norm /
        /// coordinate bounds), encoded after the shards.
        stats: KernelStats,
        /// The stored labels (local row order), present when the request
        /// asked per its [`LabelFetch`]. Trailing field after `stats`;
        /// frames without it decode as `None`.
        labels: Option<Vec<u32>>,
    },
    /// Potential partials for these centers (seed-cost pass; includes the
    /// finiteness check). Replies `ShardSums`.
    Cost {
        /// The centers.
        centers: PointMatrix,
    },
    /// Fetch the worker's residency accounting. Replies `Stats`.
    FetchStats,
    /// Reply to `FetchStats`.
    Stats(WorkerStats),
    /// Worker → coordinator: a typed failure (the session stays open).
    Error(WireError),
    /// Coordinator → worker: end the session. Replies `ShutdownOk`.
    Shutdown,
    /// Worker → coordinator: session ended.
    ShutdownOk,
    /// Several messages traveling as **one** frame — the round-fusion
    /// mechanism. A coordinator sends one `Compound` of requests per
    /// worker per tracker round (e.g. `[UpdateTracker, SampleBernoulliLocal]`)
    /// and one per recovery catch-up (`[InitTracker, UpdateTracker…]`
    /// during seeding, `[Assign…]` after it);
    /// the worker executes the sub-messages in order against its session
    /// state and replies with one `Compound` of the per-item replies,
    /// stopping after the first item that produces an `Error` (which
    /// stays in place as the last reply). An `Assign` item replays a pass
    /// the coordinator folded when it first ran, so its `Partials` reply
    /// carries the count and kernel counters but no shards and no labels.
    /// Defensively decoded: per-item length bounds before any allocation,
    /// nested compounds rejected, and an empty compound is a typed error.
    Compound(Vec<Message>),
    /// Step 4, Bernoulli form, *prescreened locally*: the worker draws
    /// the per-shard tag-31 streams and keeps every point accepted
    /// against its **local** potential `φ_lo` (the left fold of its own
    /// per-shard `d²` sums — an FP-guaranteed lower bound on the global
    /// folded φ, so the true accept set is always a subset). Replies
    /// [`Message::Prescreened`]; the coordinator replays the exact
    /// accept predicate with the folded global φ. The request does not
    /// need φ, which is what lets it ride the same compound frame as the
    /// tracker update that changes φ.
    SampleBernoulliLocal {
        /// Round index (part of the RNG stream derivation).
        round: u64,
        /// Base seed.
        seed: u64,
        /// Oversampling ℓ.
        l: f64,
    },
    /// The prescreen survivors: `(global index, uniform draw u, d²)` per
    /// entry (ascending indices), plus their rows in the same order. The
    /// coordinator keeps entry `j` iff `u < ℓ·d²/φ` under the global φ.
    Prescreened {
        /// `(global index, u, d²)` triples, ascending by index.
        entries: Vec<(u64, f64, f64)>,
        /// The corresponding rows, same order as `entries`.
        rows: PointMatrix,
    },
}

// ---------------------------------------------------------------------------
// Encoding
// ---------------------------------------------------------------------------

fn encode_accum_shard(e: &mut Enc, s: &AccumShard) {
    e.f64s(&s.sums);
    e.u64s(&s.counts);
    e.f64(s.cost);
    e.u64(if s.farthest.0 == usize::MAX {
        u64::MAX
    } else {
        s.farthest.0 as u64
    });
    e.f64(s.farthest.1);
}

/// Appends the payload of `Assign { centers, labels }` — the centers, then
/// the label mode byte — from borrowed arguments, so a round checkpoint
/// fingerprints a pass by these bytes without copying its centers.
pub(crate) fn encode_assign(e: &mut Enc, centers: &PointMatrix, labels: LabelFetch) {
    e.matrix(centers);
    e.u8(match labels {
        LabelFetch::Skip => 0,
        LabelFetch::Always => 2,
        LabelFetch::Bounded => 3,
    });
}

fn decode_accum_shard(d: &mut Dec<'_>) -> Result<AccumShard, FrameError> {
    let sums = d.f64s()?;
    let counts = d.u64s()?;
    let cost = d.f64()?;
    let far_idx = d.u64()?;
    let far_d2 = d.f64()?;
    Ok(AccumShard {
        sums,
        counts,
        cost,
        farthest: (
            if far_idx == u64::MAX {
                usize::MAX
            } else {
                far_idx as usize
            },
            far_d2,
        ),
    })
}

impl WireMessage for Message {
    const MAGIC: [u8; 4] = FRAME_MAGIC;

    fn tag(&self) -> u8 {
        match self {
            Message::Hello { .. } => 1,
            Message::Plan { .. } => 2,
            Message::PlanOk => 3,
            Message::InitTracker { .. } => 4,
            Message::UpdateTracker { .. } => 5,
            Message::ShardSums { .. } => 6,
            Message::SampleExact { .. } => 9,
            Message::ExactKeys { .. } => 10,
            Message::CandidateWeights { .. } => 11,
            Message::Weights { .. } => 12,
            Message::GatherRows { .. } => 13,
            Message::Rows { .. } => 14,
            Message::GatherD2 => 15,
            Message::D2 { .. } => 16,
            Message::Assign { .. } => 17,
            Message::Partials { .. } => 18,
            Message::Cost { .. } => 19,
            Message::FetchStats => 22,
            Message::Stats(_) => 23,
            Message::Error(_) => 24,
            Message::Shutdown => 25,
            Message::ShutdownOk => 26,
            Message::Compound(_) => 29,
            Message::SampleBernoulliLocal { .. } => 30,
            Message::Prescreened { .. } => 31,
        }
    }

    fn encode_payload_into(&self, e: &mut Enc) {
        match self {
            Message::Hello { rows, dim } => {
                e.u64(*rows);
                e.u32(*dim);
            }
            Message::Plan {
                global_n,
                start_row,
                shard_size,
                dim,
            } => {
                e.u64(*global_n);
                e.u64(*start_row);
                e.u64(*shard_size);
                e.u32(*dim);
            }
            Message::PlanOk | Message::GatherD2 | Message::FetchStats => {}
            Message::Shutdown | Message::ShutdownOk => {}
            Message::InitTracker { centers } | Message::Cost { centers } => {
                e.matrix(centers);
            }
            Message::Assign { centers, labels } => encode_assign(e, centers, *labels),
            Message::UpdateTracker { from, centers } => {
                e.u64(*from);
                e.matrix(centers);
            }
            Message::ShardSums { sums } => e.f64s(sums),
            Message::SampleExact { round, seed, m } => {
                e.u64(*round);
                e.u64(*seed);
                e.u64(*m);
            }
            Message::ExactKeys { entries } => {
                e.u64(entries.len() as u64);
                for &(key, idx) in entries {
                    e.f64(key);
                    e.u64(idx);
                }
            }
            Message::CandidateWeights { m } => e.u64(*m),
            Message::Weights { weights } => e.f64s(weights),
            Message::GatherRows { indices } => e.u64s(indices),
            Message::Rows { rows } => e.matrix(rows),
            Message::D2 { values } => e.f64s(values),
            Message::Partials {
                reassigned,
                shards,
                stats,
                labels,
            } => {
                e.u64(*reassigned);
                e.u64(shards.len() as u64);
                for s in shards {
                    encode_accum_shard(e, s);
                }
                e.u64(stats.distance_computations);
                e.u64(stats.pruned_by_norm_bound);
                // Trailing labels: encoded only when present.
                if let Some(l) = labels {
                    e.u8(1);
                    e.u32s(l);
                }
            }
            Message::Stats(s) => {
                e.u64(s.peak_bytes);
                e.u64(s.loads);
                e.u64(s.hits);
                e.u64(s.budget_bytes);
            }
            Message::Error(err) => err.encode(e),
            Message::Compound(items) => {
                e.u64(items.len() as u64);
                for item in items {
                    e.u8(WireMessage::tag(item));
                    e.bytes(&item.encode_payload());
                }
            }
            Message::SampleBernoulliLocal { round, seed, l } => {
                e.u64(*round);
                e.u64(*seed);
                e.f64(*l);
            }
            Message::Prescreened { entries, rows } => {
                e.u64(entries.len() as u64);
                for &(idx, u, d2) in entries {
                    e.u64(idx);
                    e.f64(u);
                    e.f64(d2);
                }
                e.matrix(rows);
            }
        }
    }

    fn decode_payload(tag: u8, payload: &[u8]) -> Result<Message, FrameError> {
        let mut d = Dec::new(payload);
        let msg = match tag {
            1 => Message::Hello {
                rows: d.u64()?,
                dim: d.u32()?,
            },
            2 => Message::Plan {
                global_n: d.u64()?,
                start_row: d.u64()?,
                shard_size: d.u64()?,
                dim: d.u32()?,
            },
            3 => Message::PlanOk,
            4 => Message::InitTracker {
                centers: d.matrix()?,
            },
            5 => Message::UpdateTracker {
                from: d.u64()?,
                centers: d.matrix()?,
            },
            6 => Message::ShardSums { sums: d.f64s()? },
            9 => Message::SampleExact {
                round: d.u64()?,
                seed: d.u64()?,
                m: d.u64()?,
            },
            10 => {
                let n = d.count(16)?;
                let entries = (0..n)
                    .map(|_| Ok((d.f64()?, d.u64()?)))
                    .collect::<Result<Vec<_>, FrameError>>()?;
                Message::ExactKeys { entries }
            }
            11 => Message::CandidateWeights { m: d.u64()? },
            12 => Message::Weights { weights: d.f64s()? },
            13 => Message::GatherRows { indices: d.u64s()? },
            14 => Message::Rows { rows: d.matrix()? },
            15 => Message::GatherD2,
            16 => Message::D2 { values: d.f64s()? },
            17 => {
                let centers = d.matrix()?;
                let labels = match d.u8()? {
                    0 => LabelFetch::Skip,
                    2 => LabelFetch::Always,
                    3 => LabelFetch::Bounded,
                    _ => return Err(FrameError::Malformed("unknown labels mode")),
                };
                Message::Assign { centers, labels }
            }
            18 => {
                let reassigned = d.u64()?;
                // One AccumShard is at least 5 fixed u64/f64 fields.
                let n = d.count(40)?;
                let shards = (0..n)
                    .map(|_| decode_accum_shard(&mut d))
                    .collect::<Result<Vec<_>, _>>()?;
                let stats = KernelStats {
                    distance_computations: d.u64()?,
                    pruned_by_norm_bound: d.u64()?,
                };
                // Trailing labels: absent when the request owed none.
                let labels = if d.remaining() == 0 {
                    None
                } else if d.u8()? == 1 {
                    Some(d.u32s()?)
                } else {
                    return Err(FrameError::Malformed("unknown labels flag"));
                };
                Message::Partials {
                    reassigned,
                    shards,
                    stats,
                    labels,
                }
            }
            19 => Message::Cost {
                centers: d.matrix()?,
            },
            22 => Message::FetchStats,
            23 => Message::Stats(WorkerStats {
                peak_bytes: d.u64()?,
                loads: d.u64()?,
                hits: d.u64()?,
                budget_bytes: d.u64()?,
            }),
            24 => Message::Error(WireError::decode(&mut d)?),
            25 => Message::Shutdown,
            26 => Message::ShutdownOk,
            29 => {
                // Each item costs at least a tag byte plus a length
                // prefix; validating the count against that floor bounds
                // the allocation before it happens.
                let n = d.count(9)?;
                if n == 0 {
                    return Err(FrameError::Malformed("empty compound"));
                }
                let mut items = Vec::with_capacity(n);
                for _ in 0..n {
                    let tag = d.u8()?;
                    if tag == 29 {
                        return Err(FrameError::Malformed("nested compound"));
                    }
                    let payload = d.bytes()?;
                    items.push(Message::decode_payload(tag, &payload)?);
                }
                Message::Compound(items)
            }
            30 => Message::SampleBernoulliLocal {
                round: d.u64()?,
                seed: d.u64()?,
                l: d.f64()?,
            },
            31 => {
                let n = d.count(24)?;
                let entries = (0..n)
                    .map(|_| Ok((d.u64()?, d.f64()?, d.f64()?)))
                    .collect::<Result<Vec<_>, FrameError>>()?;
                Message::Prescreened {
                    entries,
                    rows: d.matrix()?,
                }
            }
            other => return Err(FrameError::UnknownTag(other)),
        };
        d.finish()?;
        Ok(msg)
    }
}

impl Message {
    /// Stable lower-snake-case name of the variant — the round tag used
    /// by the flight recorder's coordinator spans and `skm worker
    /// --log` lines.
    pub fn name(&self) -> &'static str {
        match self {
            Message::Hello { .. } => "hello",
            Message::Plan { .. } => "plan",
            Message::PlanOk => "plan_ok",
            Message::InitTracker { .. } => "init_tracker",
            Message::UpdateTracker { .. } => "update_tracker",
            Message::ShardSums { .. } => "shard_sums",
            Message::SampleExact { .. } => "sample_exact",
            Message::ExactKeys { .. } => "exact_keys",
            Message::CandidateWeights { .. } => "candidate_weights",
            Message::Weights { .. } => "weights",
            Message::GatherRows { .. } => "gather_rows",
            Message::Rows { .. } => "rows",
            Message::GatherD2 => "gather_d2",
            Message::D2 { .. } => "d2",
            Message::Assign { .. } => "assign",
            Message::Partials { .. } => "partials",
            Message::Cost { .. } => "cost",
            Message::FetchStats => "fetch_stats",
            Message::Stats(_) => "stats",
            Message::Error(_) => "error",
            Message::Shutdown => "shutdown",
            Message::ShutdownOk => "shutdown_ok",
            Message::Compound(_) => "compound",
            Message::SampleBernoulliLocal { .. } => "sample_bernoulli_local",
            Message::Prescreened { .. } => "prescreened",
        }
    }
}

// ---------------------------------------------------------------------------
// Round parts
// ---------------------------------------------------------------------------

/// A row index or count from the wire as `usize`: one that does not fit
/// saturates, so it fails the range or count check it meets next instead
/// of aliasing a smaller value.
pub(crate) fn wire_usize(v: u64) -> usize {
    usize::try_from(v).unwrap_or(usize::MAX)
}

/// The SKW form of a [`LocalBackend`](kmeans_core::driver::LocalBackend)
/// part's round halves: a worker maps requests to part calls and parts to
/// replies, the coordinator maps reads to requests and replies back to
/// parts for the fold. Indices cross the wire as `u64`.
impl Message {
    /// The request a tracker round's read travels as, beside its
    /// broadcast (none for [`TrackerRead::Nothing`]).
    pub(crate) fn read_request(read: TrackerRead) -> Option<Message> {
        Some(match read {
            TrackerRead::Nothing => return None,
            TrackerRead::Sample {
                round,
                seed,
                spec: SampleSpec::Bernoulli { l },
            } => Message::SampleBernoulliLocal {
                round: round as u64,
                seed,
                l,
            },
            TrackerRead::Sample {
                round,
                seed,
                spec: SampleSpec::ExactKeys { m },
            } => Message::SampleExact {
                round: round as u64,
                seed,
                m: m as u64,
            },
            TrackerRead::Weights { m } => Message::CandidateWeights { m: m as u64 },
            TrackerRead::D2 => Message::GatherD2,
        })
    }

    /// The read a request asks for — the inverse of
    /// [`Message::read_request`]; `None` for every other message.
    pub(crate) fn tracker_read(&self) -> Option<TrackerRead> {
        let sample = |round: u64, seed: u64, spec| TrackerRead::Sample {
            round: wire_usize(round),
            seed,
            spec,
        };
        Some(match *self {
            Message::SampleBernoulliLocal { round, seed, l } => {
                sample(round, seed, SampleSpec::Bernoulli { l })
            }
            Message::SampleExact { round, seed, m } => {
                sample(round, seed, SampleSpec::ExactKeys { m: wire_usize(m) })
            }
            Message::CandidateWeights { m } => TrackerRead::Weights { m: wire_usize(m) },
            Message::GatherD2 => TrackerRead::D2,
            _ => return None,
        })
    }

    /// The reply that carries a part's read (none for
    /// [`ReadPart::Nothing`], which no request asks for).
    pub(crate) fn read_reply(part: ReadPart) -> Option<Message> {
        Some(match part {
            ReadPart::Nothing => return None,
            ReadPart::Prescreened { entries, rows } => Message::Prescreened {
                entries: entries
                    .into_iter()
                    .map(|(g, u, d2)| (g as u64, u, d2))
                    .collect(),
                rows,
            },
            ReadPart::Keys(keys) => Message::ExactKeys {
                entries: keys.into_iter().map(|(key, g)| (key, g as u64)).collect(),
            },
            ReadPart::Weights(weights) => Message::Weights { weights },
            ReadPart::D2(values) => Message::D2 { values },
        })
    }

    /// The part a read reply carries — the inverse of
    /// [`Message::read_reply`]; any other message comes back as the error.
    pub(crate) fn into_read_part(self) -> Result<ReadPart, Message> {
        Ok(match self {
            Message::Prescreened { entries, rows } => ReadPart::Prescreened {
                entries: entries
                    .into_iter()
                    .map(|(g, u, d2)| (wire_usize(g), u, d2))
                    .collect(),
                rows,
            },
            Message::ExactKeys { entries } => ReadPart::Keys(
                entries
                    .into_iter()
                    .map(|(key, g)| (key, wire_usize(g)))
                    .collect(),
            ),
            Message::Weights { weights } => ReadPart::Weights(weights),
            Message::D2 { values } => ReadPart::D2(values),
            other => return Err(other),
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_messages() -> Vec<Message> {
        let m = PointMatrix::from_flat(vec![1.0, 2.0, 3.0, 4.0], 2).unwrap();
        vec![
            Message::Hello { rows: 7, dim: 2 },
            Message::Plan {
                global_n: 100,
                start_row: 32,
                shard_size: 16,
                dim: 2,
            },
            Message::PlanOk,
            Message::InitTracker { centers: m.clone() },
            Message::UpdateTracker {
                from: 3,
                centers: m.clone(),
            },
            Message::ShardSums {
                sums: vec![1.5, -2.5, 0.0],
            },
            Message::SampleExact {
                round: 1,
                seed: 9,
                m: 4,
            },
            Message::ExactKeys {
                entries: vec![(-0.5, 3), (-1.25, 77)],
            },
            Message::CandidateWeights { m: 5 },
            Message::Weights {
                weights: vec![2.0, 0.0, 3.0],
            },
            Message::GatherRows {
                indices: vec![0, 5, 5],
            },
            Message::Rows { rows: m.clone() },
            Message::GatherD2,
            Message::D2 {
                values: vec![0.25; 4],
            },
            Message::Assign {
                centers: m.clone(),
                labels: LabelFetch::Skip,
            },
            Message::Assign {
                centers: m.clone(),
                labels: LabelFetch::Always,
            },
            Message::Assign {
                centers: m.clone(),
                labels: LabelFetch::Bounded,
            },
            Message::Partials {
                reassigned: 11,
                shards: vec![AccumShard {
                    sums: vec![1.0, 2.0, 3.0, 4.0],
                    counts: vec![2, 1],
                    cost: 0.5,
                    farthest: (17, 0.25),
                }],
                stats: KernelStats {
                    distance_computations: 42,
                    pruned_by_norm_bound: 7,
                },
                labels: None,
            },
            Message::Partials {
                reassigned: 0,
                shards: Vec::new(),
                stats: KernelStats::default(),
                labels: Some(vec![2, 0, 1]),
            },
            Message::SampleBernoulliLocal {
                round: 3,
                seed: 42,
                l: 16.0,
            },
            Message::Prescreened {
                entries: vec![(5, 0.25, 1.5), (9, 0.75, 0.125)],
                rows: m.clone(),
            },
            Message::Compound(vec![
                Message::UpdateTracker {
                    from: 3,
                    centers: m.clone(),
                },
                Message::SampleBernoulliLocal {
                    round: 1,
                    seed: 7,
                    l: 4.0,
                },
            ]),
            Message::Compound(vec![
                Message::ShardSums {
                    sums: vec![1.0, 2.0],
                },
                Message::Error(WireError::EmptyInput),
            ]),
            Message::Compound(vec![
                Message::InitTracker { centers: m.clone() },
                Message::UpdateTracker {
                    from: 2,
                    centers: m.clone(),
                },
                Message::Assign {
                    centers: m.clone(),
                    labels: LabelFetch::Skip,
                },
            ]),
            Message::Cost { centers: m },
            Message::FetchStats,
            Message::Stats(WorkerStats {
                peak_bytes: 1,
                loads: 2,
                hits: 3,
                budget_bytes: u64::MAX,
            }),
            Message::Error(WireError::NonFiniteData { point: 40, dim: 1 }),
            Message::Error(WireError::InvalidConfig("bad ℓ".into())),
            Message::Shutdown,
            Message::ShutdownOk,
        ]
    }

    #[test]
    fn every_message_round_trips() {
        for msg in sample_messages() {
            let frame = msg.encode_frame();
            assert_eq!(frame[..4], *b"SKW2");
            let (decoded, used) = Message::decode_frame(&frame, MAX_FRAME_PAYLOAD).unwrap();
            assert_eq!(decoded, msg);
            assert_eq!(used, frame.len());
            // Stream form agrees.
            let mut cursor = std::io::Cursor::new(&frame);
            let (decoded, used) = Message::read_frame(&mut cursor, MAX_FRAME_PAYLOAD).unwrap();
            assert_eq!(decoded, msg);
            assert_eq!(used, frame.len());
        }
    }

    #[test]
    fn corrupted_frames_are_typed_errors() {
        let msg = Message::ShardSums {
            sums: vec![1.0, 2.0],
        };
        let frame = msg.encode_frame();

        // Bad magic, a retired form-1 magic included, on decode and on a
        // stream read.
        for (at, byte) in [(0, b'X'), (3, b'1')] {
            let mut bad = frame.clone();
            bad[at] = byte;
            assert_eq!(
                Message::decode_frame(&bad, MAX_FRAME_PAYLOAD).unwrap_err(),
                FrameError::BadMagic
            );
            let mut cursor = std::io::Cursor::new(&bad);
            assert!(matches!(
                Message::read_frame(&mut cursor, MAX_FRAME_PAYLOAD),
                Err(ReadFrameError::Frame(FrameError::BadMagic))
            ));
        }
        // Truncation at every prefix length.
        for cut in 0..frame.len() {
            let e = Message::decode_frame(&frame[..cut], MAX_FRAME_PAYLOAD).unwrap_err();
            assert_eq!(e, FrameError::Truncated, "cut {cut}");
        }
        // Flipped payload byte → checksum error.
        let mut flipped = frame.clone();
        flipped[12] ^= 0xff;
        assert!(matches!(
            Message::decode_frame(&flipped, MAX_FRAME_PAYLOAD).unwrap_err(),
            FrameError::Checksum { .. } | FrameError::Oversized { .. }
        ));
        // Oversized declared length is rejected before allocation.
        let mut huge = frame.clone();
        huge[5..9].copy_from_slice(&u32::MAX.to_le_bytes());
        assert!(matches!(
            Message::decode_frame(&huge, 1024).unwrap_err(),
            FrameError::Oversized { .. }
        ));
        // Unknown tag, in a frame whose checksum is right.
        assert_eq!(
            Message::decode_frame(&checksummed_frame(200, &[]), MAX_FRAME_PAYLOAD).unwrap_err(),
            FrameError::UnknownTag(200)
        );
    }

    #[test]
    fn retired_tags_decode_as_unknown() {
        // SampleBernoulli/Sampled, FetchLabels/Labels and
        // RestoreLabels/RestoreOk left the vocabulary; their numbers are
        // never reused, so an old peer's frame is a typed error.
        for tag in [7u8, 8, 20, 21, 27, 28] {
            assert_eq!(
                Message::decode_frame(&checksummed_frame(tag, &[]), MAX_FRAME_PAYLOAD).unwrap_err(),
                FrameError::UnknownTag(tag),
                "tag {tag}"
            );
        }
    }

    /// `payload` framed under `tag`, checksum fixed.
    fn checksummed_frame(tag: u8, payload: &[u8]) -> Vec<u8> {
        let mut frame = Vec::new();
        frame.extend_from_slice(&FRAME_MAGIC);
        frame.push(tag);
        frame.extend_from_slice(&(payload.len() as u32).to_le_bytes());
        frame.extend_from_slice(payload);
        let checksum = kmeans_util::checksum::lanes64(&frame);
        frame.extend_from_slice(&checksum.to_le_bytes());
        frame
    }

    #[test]
    fn partials_without_stats_and_assign_without_mode_are_malformed() {
        // A Partials frame without its kernel-counter pair, or with half
        // of it, and an Assign without its mode byte come from no peer
        // that can open a session: each is a malformed frame.
        let msg = Message::Partials {
            reassigned: 3,
            shards: vec![AccumShard {
                sums: vec![1.0, 2.0],
                counts: vec![2],
                cost: 0.5,
                farthest: (4, 0.25),
            }],
            stats: KernelStats {
                distance_computations: 9,
                pruned_by_norm_bound: 1,
            },
            labels: None,
        };
        let payload = msg.encode_payload();
        for cut in [16, 8] {
            let short = checksummed_frame(18, &payload[..payload.len() - cut]);
            assert!(
                matches!(
                    Message::decode_frame(&short, MAX_FRAME_PAYLOAD).unwrap_err(),
                    FrameError::Malformed(_)
                ),
                "Partials short by {cut} bytes"
            );
        }
        let assign = Message::Assign {
            centers: PointMatrix::from_flat(vec![1.0, 2.0], 2).unwrap(),
            labels: LabelFetch::Always,
        };
        let payload = assign.encode_payload();
        let short = checksummed_frame(17, &payload[..payload.len() - 1]);
        assert!(matches!(
            Message::decode_frame(&short, MAX_FRAME_PAYLOAD).unwrap_err(),
            FrameError::Malformed(_)
        ));
    }

    #[test]
    fn retired_and_unknown_label_modes_are_malformed() {
        // Mode 1 was the retired `IfStable`; 4 was never a mode.
        let assign = Message::Assign {
            centers: PointMatrix::from_flat(vec![1.0, 2.0], 2).unwrap(),
            labels: LabelFetch::Always,
        };
        let mut payload = assign.encode_payload();
        for mode in [1u8, 4] {
            *payload.last_mut().unwrap() = mode;
            let frame = checksummed_frame(17, &payload);
            assert_eq!(
                Message::decode_frame(&frame, MAX_FRAME_PAYLOAD).unwrap_err(),
                FrameError::Malformed("unknown labels mode"),
                "mode {mode}"
            );
        }
    }

    #[test]
    fn forged_counts_cannot_over_allocate() {
        // A ShardSums payload declaring 2^60 elements in 16 bytes.
        let mut e = Enc::new();
        e.u64(1u64 << 60);
        e.f64(0.0);
        let frame = checksummed_frame(6, &e.into_bytes());
        assert!(matches!(
            Message::decode_frame(&frame, MAX_FRAME_PAYLOAD).unwrap_err(),
            FrameError::Malformed(_)
        ));
    }

    #[test]
    fn wire_error_round_trips_kmeans_error() {
        let originals = vec![
            KMeansError::EmptyInput,
            KMeansError::InvalidK { k: 5, n: 2 },
            KMeansError::DimensionMismatch {
                expected: 3,
                got: 4,
            },
            KMeansError::InvalidConfig("nope".into()),
            KMeansError::NonFiniteData { point: 9, dim: 0 },
            KMeansError::Data("disk gone".into()),
        ];
        for e in originals {
            let wire: WireError = e.clone().into();
            let back: KMeansError = wire.into();
            assert_eq!(back, e);
        }
    }
}
