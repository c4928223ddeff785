//! The serving wire vocabulary: `SKS` frames carrying predict/cost
//! queries and their model-revision-tagged answers.
//!
//! The frame layout (checksummed word-wide over the whole frame), cap
//! enforcement, and codec primitives are the shared machinery of
//! `kmeans_cluster::wire`; this module only supplies the vocabulary — a
//! distinct magic (`SKS2` vs. the cluster runtime's `SKW2`, so a serve
//! client that dials a worker port fails with `BadMagic` instead of
//! mis-parsing), the tag map, and per-tag payload codecs. A client that
//! opens with any other magic — the retired `SKS1` form included — gets
//! no reply: the server ends the session with `BadMagic`. Typed failures
//! reuse the cluster protocol's [`WireError`], so a served error surfaces
//! as the *same* `KMeansError` a local call would produce.
//!
//! Conversation shape (client drives; one reply per request):
//!
//! | request | reply |
//! |---------|-------|
//! | [`ServeMessage::Hello`] | [`ServeMessage::ModelInfo`] |
//! | [`ServeMessage::Predict`] | [`ServeMessage::Labels`] (labels + request cost) |
//! | [`ServeMessage::Cost`] | [`ServeMessage::CostReply`] |
//! | [`ServeMessage::FetchStats`] | [`ServeMessage::Stats`] |
//! | [`ServeMessage::SwapModel`] | [`ServeMessage::SwapOk`] |
//! | [`ServeMessage::Drain`] | [`ServeMessage::DrainOk`] |
//! | [`ServeMessage::Shutdown`] | [`ServeMessage::ShutdownOk`] |
//!
//! Any request may instead draw an [`ServeMessage::Error`] reply; the
//! session stays open.
//!
//! ## Optional and required fields
//!
//! A `Predict` or `Cost` carries its deadline budget as an optional
//! trailing `u64`: a deadline-free request is just the matrix. Every
//! other field is required — a `ModelInfo` without its batch cap or a
//! `Stats` without either of its later counter groups is a malformed
//! frame.

use kmeans_cluster::protocol::WireError;
use kmeans_cluster::wire::{Dec, Enc, FrameError, WireMessage};
use kmeans_data::PointMatrix;
use kmeans_obs::HistogramSummary;

/// Frame magic of the serving vocabulary.
pub const SERVE_MAGIC: [u8; 4] = *b"SKS2";

/// A server's cumulative accounting, shipped as the reply to
/// [`ServeMessage::FetchStats`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct ServeStats {
    /// Revision of the model currently installed.
    pub revision: u64,
    /// Predict/cost requests answered.
    pub requests: u64,
    /// Points assigned across all requests.
    pub points: u64,
    /// Kernel batches executed (requests ÷ batches = amortization).
    pub batches: u64,
    /// Largest single batch, in points.
    pub max_batch_points: u64,
    /// Model hot-swaps performed.
    pub swaps: u64,
    /// Kernel distance evaluations spent serving.
    pub distance_computations: u64,
    /// Kernel candidates pruned by the norm/coordinate bounds.
    pub pruned_by_norm_bound: u64,
    /// Requests answered under the currently installed revision (the
    /// cumulative counters above never reset; these rebase at each
    /// swap).
    pub revision_requests: u64,
    /// Points assigned under the currently installed revision.
    pub revision_points: u64,
    /// Kernel batches executed under the currently installed revision.
    pub revision_batches: u64,
    /// Engine-monotonic timestamp (ns since engine start) at which the
    /// current revision was installed — 0 for the initial model.
    pub revision_installed_ns: u64,
    /// Request latency (submit → reply) summary, in nanoseconds.
    pub request_latency: HistogramSummary,
    /// Kernel batch sweep latency summary, in nanoseconds.
    pub batch_latency: HistogramSummary,
    /// Requests rejected by admission control (queue full).
    pub shed_requests: u64,
    /// Points carried by shed requests (they never touched the kernel).
    pub shed_points: u64,
    /// Requests whose deadline budget expired before batching.
    pub deadline_exceeded: u64,
    /// Requests rejected because the server was draining.
    pub drain_rejected: u64,
    /// Points currently admitted but not yet answered.
    pub queued_points: u64,
    /// The admission cap, in points (`--queue-cap`).
    pub queue_cap: u64,
    /// Whether the server is draining (readiness is down; admitted work
    /// still completes).
    pub draining: bool,
}

/// One message of the serve conversation (see module docs for the
/// request/reply pairing).
#[derive(Debug, Clone, PartialEq)]
pub enum ServeMessage {
    /// Client → server: request the model descriptor.
    Hello,
    /// Server → client: the currently installed model.
    ModelInfo {
        /// Monotonic model revision (1 = the model the server loaded).
        revision: u64,
        /// Number of clusters.
        k: u64,
        /// Center dimensionality.
        dim: u32,
        /// Training cost recorded in the model file.
        cost: f64,
        /// Initializer name recorded in the model file.
        init_name: String,
        /// Refiner name recorded in the model file.
        refiner_name: String,
        /// The engine's per-batch point cap — the natural chunk size for
        /// a client streaming a large input.
        batch_cap: u64,
    },
    /// Client → server: assign these points. Replies [`ServeMessage::Labels`].
    Predict {
        /// The query points.
        points: PointMatrix,
        /// Optional deadline budget in milliseconds, counted from
        /// admission: if the request is still queued when the budget
        /// expires, the server answers
        /// [`WireError::DeadlineExceeded`] instead of running the sweep.
        /// Optional trailing field: a frame without it decodes as `None`.
        deadline_ms: Option<u64>,
    },
    /// Server → client: labels plus the request's potential, all computed
    /// under one model revision.
    Labels {
        /// Revision the batch ran on.
        revision: u64,
        /// Nearest-center label per query point.
        labels: Vec<u32>,
        /// Potential of the query points (`Σ d²`), bit-identical to a
        /// local `cost_of` on the same points.
        cost: f64,
    },
    /// Client → server: potential only (no label payload back). Replies
    /// [`ServeMessage::CostReply`].
    Cost {
        /// The query points.
        points: PointMatrix,
        /// Optional deadline budget in milliseconds (see
        /// [`ServeMessage::Predict::deadline_ms`]).
        deadline_ms: Option<u64>,
    },
    /// Server → client: the request's potential.
    CostReply {
        /// Revision the batch ran on.
        revision: u64,
        /// Number of points costed.
        n: u64,
        /// Potential of the query points.
        cost: f64,
    },
    /// Client → server: request cumulative serving statistics.
    FetchStats,
    /// Server → client: reply to [`ServeMessage::FetchStats`].
    Stats(ServeStats),
    /// Client → server: atomically install a new model. The payload is a
    /// complete `SKMMDL01` image — the same bytes `skm fit --save-model`
    /// writes — so wire and disk share one validation path.
    SwapModel {
        /// `SKMMDL01` image of the replacement model.
        model: Vec<u8>,
    },
    /// Server → client: the swap landed; later batches run the new model.
    SwapOk {
        /// Revision assigned to the installed model.
        revision: u64,
        /// Its cluster count.
        k: u64,
        /// Its dimensionality.
        dim: u32,
    },
    /// Server → client: a typed failure (the session stays open).
    Error(WireError),
    /// Client → server: stop the server. Replies
    /// [`ServeMessage::ShutdownOk`], then the accept loop exits.
    Shutdown,
    /// Server → client: shutdown acknowledged.
    ShutdownOk,
    /// Client → server: begin a graceful drain. Already-admitted work
    /// completes and replies; new requests draw
    /// [`WireError::Draining`]; readiness flips; the server process
    /// exits once the admission queue is empty. Idempotent.
    Drain,
    /// Server → client: the drain has begun.
    DrainOk {
        /// Points admitted but not yet answered at the moment the drain
        /// was accepted — the work the server will still complete.
        queued_points: u64,
    },
}

fn encode_hist_summary(e: &mut Enc, s: &HistogramSummary) {
    e.u64(s.count);
    e.u64(s.sum_ns);
    e.u64(s.p50_ns);
    e.u64(s.p99_ns);
    e.u64(s.p999_ns);
    e.u64(s.max_ns);
}

fn decode_hist_summary(d: &mut Dec<'_>) -> Result<HistogramSummary, FrameError> {
    Ok(HistogramSummary {
        count: d.u64()?,
        sum_ns: d.u64()?,
        p50_ns: d.u64()?,
        p99_ns: d.u64()?,
        p999_ns: d.u64()?,
        max_ns: d.u64()?,
    })
}

impl WireMessage for ServeMessage {
    const MAGIC: [u8; 4] = SERVE_MAGIC;

    fn tag(&self) -> u8 {
        match self {
            ServeMessage::Hello => 1,
            ServeMessage::ModelInfo { .. } => 2,
            ServeMessage::Predict { .. } => 3,
            ServeMessage::Labels { .. } => 4,
            ServeMessage::Cost { .. } => 5,
            ServeMessage::CostReply { .. } => 6,
            ServeMessage::FetchStats => 7,
            ServeMessage::Stats(_) => 8,
            ServeMessage::SwapModel { .. } => 9,
            ServeMessage::SwapOk { .. } => 10,
            ServeMessage::Error(_) => 11,
            ServeMessage::Shutdown => 12,
            ServeMessage::ShutdownOk => 13,
            ServeMessage::Drain => 14,
            ServeMessage::DrainOk { .. } => 15,
        }
    }

    fn encode_payload_into(&self, e: &mut Enc) {
        match self {
            ServeMessage::Hello
            | ServeMessage::FetchStats
            | ServeMessage::Shutdown
            | ServeMessage::ShutdownOk
            | ServeMessage::Drain => {}
            ServeMessage::ModelInfo {
                revision,
                k,
                dim,
                cost,
                init_name,
                refiner_name,
                batch_cap,
            } => {
                e.u64(*revision);
                e.u64(*k);
                e.u32(*dim);
                e.f64(*cost);
                e.text(init_name);
                e.text(refiner_name);
                e.u64(*batch_cap);
            }
            ServeMessage::Predict {
                points,
                deadline_ms,
            }
            | ServeMessage::Cost {
                points,
                deadline_ms,
            } => {
                e.matrix(points);
                // Trailing field: present only when a deadline is set, so
                // a deadline-free frame is the matrix alone.
                if let Some(ms) = deadline_ms {
                    e.u64(*ms);
                }
            }
            ServeMessage::Labels {
                revision,
                labels,
                cost,
            } => {
                e.u64(*revision);
                e.u32s(labels);
                e.f64(*cost);
            }
            ServeMessage::CostReply { revision, n, cost } => {
                e.u64(*revision);
                e.u64(*n);
                e.f64(*cost);
            }
            ServeMessage::Stats(s) => {
                e.u64(s.revision);
                e.u64(s.requests);
                e.u64(s.points);
                e.u64(s.batches);
                e.u64(s.max_batch_points);
                e.u64(s.swaps);
                e.u64(s.distance_computations);
                e.u64(s.pruned_by_norm_bound);
                e.u64(s.revision_requests);
                e.u64(s.revision_points);
                e.u64(s.revision_batches);
                e.u64(s.revision_installed_ns);
                encode_hist_summary(e, &s.request_latency);
                encode_hist_summary(e, &s.batch_latency);
                e.u64(s.shed_requests);
                e.u64(s.shed_points);
                e.u64(s.deadline_exceeded);
                e.u64(s.drain_rejected);
                e.u64(s.queued_points);
                e.u64(s.queue_cap);
                e.u8(u8::from(s.draining));
            }
            ServeMessage::SwapModel { model } => e.bytes(model),
            ServeMessage::SwapOk { revision, k, dim } => {
                e.u64(*revision);
                e.u64(*k);
                e.u32(*dim);
            }
            ServeMessage::Error(err) => err.encode(e),
            ServeMessage::DrainOk { queued_points } => e.u64(*queued_points),
        }
    }

    fn decode_payload(tag: u8, payload: &[u8]) -> Result<Self, FrameError> {
        let mut d = Dec::new(payload);
        let msg = match tag {
            1 => ServeMessage::Hello,
            2 => ServeMessage::ModelInfo {
                revision: d.u64()?,
                k: d.u64()?,
                dim: d.u32()?,
                cost: d.f64()?,
                init_name: d.text()?,
                refiner_name: d.text()?,
                batch_cap: d.u64()?,
            },
            3 => ServeMessage::Predict {
                points: d.matrix()?,
                deadline_ms: if d.remaining() > 0 {
                    Some(d.u64()?)
                } else {
                    None
                },
            },
            4 => ServeMessage::Labels {
                revision: d.u64()?,
                labels: d.u32s()?,
                cost: d.f64()?,
            },
            5 => ServeMessage::Cost {
                points: d.matrix()?,
                deadline_ms: if d.remaining() > 0 {
                    Some(d.u64()?)
                } else {
                    None
                },
            },
            6 => ServeMessage::CostReply {
                revision: d.u64()?,
                n: d.u64()?,
                cost: d.f64()?,
            },
            7 => ServeMessage::FetchStats,
            8 => ServeMessage::Stats(ServeStats {
                revision: d.u64()?,
                requests: d.u64()?,
                points: d.u64()?,
                batches: d.u64()?,
                max_batch_points: d.u64()?,
                swaps: d.u64()?,
                distance_computations: d.u64()?,
                pruned_by_norm_bound: d.u64()?,
                revision_requests: d.u64()?,
                revision_points: d.u64()?,
                revision_batches: d.u64()?,
                revision_installed_ns: d.u64()?,
                request_latency: decode_hist_summary(&mut d)?,
                batch_latency: decode_hist_summary(&mut d)?,
                shed_requests: d.u64()?,
                shed_points: d.u64()?,
                deadline_exceeded: d.u64()?,
                drain_rejected: d.u64()?,
                queued_points: d.u64()?,
                queue_cap: d.u64()?,
                draining: d.u8()? != 0,
            }),
            9 => ServeMessage::SwapModel { model: d.bytes()? },
            10 => ServeMessage::SwapOk {
                revision: d.u64()?,
                k: d.u64()?,
                dim: d.u32()?,
            },
            11 => ServeMessage::Error(WireError::decode(&mut d)?),
            12 => ServeMessage::Shutdown,
            13 => ServeMessage::ShutdownOk,
            14 => ServeMessage::Drain,
            15 => ServeMessage::DrainOk {
                queued_points: d.u64()?,
            },
            other => return Err(FrameError::UnknownTag(other)),
        };
        d.finish()?;
        Ok(msg)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use kmeans_cluster::protocol::{Message, MAX_FRAME_PAYLOAD};

    fn sample_messages() -> Vec<ServeMessage> {
        let m = PointMatrix::from_flat(vec![1.0, 2.0, 3.0, 4.0], 2).unwrap();
        vec![
            ServeMessage::Hello,
            ServeMessage::ModelInfo {
                revision: 3,
                k: 10,
                dim: 2,
                cost: 12.5,
                init_name: "kmeans-par".into(),
                refiner_name: "lloyd".into(),
                batch_cap: 65536,
            },
            ServeMessage::Predict {
                points: m.clone(),
                deadline_ms: None,
            },
            ServeMessage::Predict {
                points: m.clone(),
                deadline_ms: Some(250),
            },
            ServeMessage::Labels {
                revision: 3,
                labels: vec![0, 7, 7],
                cost: 0.25,
            },
            ServeMessage::Cost {
                points: m.clone(),
                deadline_ms: None,
            },
            ServeMessage::Cost {
                points: m,
                deadline_ms: Some(1),
            },
            ServeMessage::CostReply {
                revision: 4,
                n: 2,
                cost: 1.75,
            },
            ServeMessage::FetchStats,
            ServeMessage::Stats(ServeStats {
                revision: 2,
                requests: 100,
                points: 5000,
                batches: 40,
                max_batch_points: 512,
                swaps: 1,
                distance_computations: 123,
                pruned_by_norm_bound: 456,
                revision_requests: 60,
                revision_points: 3000,
                revision_batches: 25,
                revision_installed_ns: 1_234_567,
                request_latency: HistogramSummary {
                    count: 100,
                    sum_ns: 9_999,
                    p50_ns: 64,
                    p99_ns: 1023,
                    p999_ns: 2047,
                    max_ns: 1999,
                },
                batch_latency: HistogramSummary::default(),
                shed_requests: 7,
                shed_points: 7000,
                deadline_exceeded: 2,
                drain_rejected: 3,
                queued_points: 640,
                queue_cap: 262_144,
                draining: true,
            }),
            ServeMessage::SwapModel {
                model: vec![1, 2, 3, 4, 5],
            },
            ServeMessage::SwapOk {
                revision: 2,
                k: 10,
                dim: 2,
            },
            ServeMessage::Error(WireError::DimensionMismatch {
                expected: 2,
                got: 3,
            }),
            ServeMessage::Error(WireError::Data("model image rejected".into())),
            ServeMessage::Error(WireError::Overloaded {
                queued_points: 70_000,
                cap: 65_536,
            }),
            ServeMessage::Error(WireError::DeadlineExceeded { budget_ms: 250 }),
            ServeMessage::Error(WireError::Draining),
            ServeMessage::Shutdown,
            ServeMessage::ShutdownOk,
            ServeMessage::Drain,
            ServeMessage::DrainOk { queued_points: 640 },
        ]
    }

    #[test]
    fn every_message_round_trips() {
        for msg in sample_messages() {
            let frame = msg.encode_frame();
            let (decoded, used) = ServeMessage::decode_frame(&frame, MAX_FRAME_PAYLOAD).unwrap();
            assert_eq!(decoded, msg);
            assert_eq!(used, frame.len());
            let mut cursor = std::io::Cursor::new(&frame);
            let (decoded, used) = ServeMessage::read_frame(&mut cursor, MAX_FRAME_PAYLOAD).unwrap();
            assert_eq!(decoded, msg);
            assert_eq!(used, frame.len());
        }
    }

    /// `payload` framed under `tag`, checksum fixed.
    fn checksummed_frame(tag: u8, payload: &[u8]) -> Vec<u8> {
        let mut frame = Vec::new();
        frame.extend_from_slice(&SERVE_MAGIC);
        frame.push(tag);
        frame.extend_from_slice(&(payload.len() as u32).to_le_bytes());
        frame.extend_from_slice(payload);
        let checksum = kmeans_util::checksum::lanes64(&frame);
        frame.extend_from_slice(&checksum.to_le_bytes());
        frame
    }

    fn assert_malformed(frame: &[u8]) {
        assert!(matches!(
            ServeMessage::decode_frame(frame, MAX_FRAME_PAYLOAD).unwrap_err(),
            FrameError::Malformed(_)
        ));
    }

    #[test]
    fn stats_frames_with_only_the_first_counters_are_malformed() {
        // A tag-8 frame carrying only the first eight counters.
        let mut e = Enc::new();
        for v in [2u64, 100, 5000, 40, 512, 1, 123, 456] {
            e.u64(v);
        }
        assert_malformed(&checksummed_frame(8, &e.into_bytes()));
    }

    #[test]
    fn stats_frames_without_the_overload_group_are_malformed() {
        // A tag-8 frame carrying the first two groups but not the
        // overload group.
        let mut e = Enc::new();
        for v in [2u64, 100, 5000, 40, 512, 1, 123, 456] {
            e.u64(v);
        }
        for v in [60u64, 3000, 25, 1_234_567] {
            e.u64(v);
        }
        encode_hist_summary(&mut e, &HistogramSummary::default());
        encode_hist_summary(&mut e, &HistogramSummary::default());
        assert_malformed(&checksummed_frame(8, &e.into_bytes()));
    }

    #[test]
    fn deadline_free_requests_decode_and_model_info_needs_its_batch_cap() {
        // Predict/Cost frames that carry only the matrix decode as "no
        // deadline".
        let m = PointMatrix::from_flat(vec![1.0, 2.0, 3.0, 4.0], 2).unwrap();
        for tag in [3u8, 5] {
            let mut e = Enc::new();
            e.matrix(&m);
            let frame = checksummed_frame(tag, &e.into_bytes());
            match ServeMessage::decode_frame(&frame, MAX_FRAME_PAYLOAD)
                .unwrap()
                .0
            {
                ServeMessage::Predict {
                    points,
                    deadline_ms,
                } => {
                    assert_eq!(points, m);
                    assert_eq!(deadline_ms, None);
                }
                ServeMessage::Cost {
                    points,
                    deadline_ms,
                } => {
                    assert_eq!(points, m);
                    assert_eq!(deadline_ms, None);
                }
                other => panic!("decoded {other:?}"),
            }
        }
        // A ModelInfo without its batch cap is malformed.
        let mut e = Enc::new();
        e.u64(3);
        e.u64(10);
        e.u32(2);
        e.f64(12.5);
        e.text("kmeans-par");
        e.text("lloyd");
        assert_malformed(&checksummed_frame(2, &e.into_bytes()));
        // A deadline-free Predict encodes as the matrix alone.
        let modern = ServeMessage::Predict {
            points: m,
            deadline_ms: None,
        };
        let mut e = Enc::new();
        if let ServeMessage::Predict { points, .. } = &modern {
            e.matrix(points);
        }
        assert_eq!(modern.encode_payload(), e.into_bytes());
    }

    #[test]
    fn corrupted_frames_are_typed_errors() {
        let frame = ServeMessage::FetchStats.encode_frame();
        let mut bad = frame.clone();
        bad[0] = b'X';
        assert_eq!(
            ServeMessage::decode_frame(&bad, MAX_FRAME_PAYLOAD).unwrap_err(),
            FrameError::BadMagic
        );
        for cut in 0..frame.len() {
            assert_eq!(
                ServeMessage::decode_frame(&frame[..cut], MAX_FRAME_PAYLOAD).unwrap_err(),
                FrameError::Truncated,
                "cut {cut}"
            );
        }
        let msg = ServeMessage::Labels {
            revision: 1,
            labels: vec![1, 2, 3],
            cost: 0.5,
        };
        let mut flipped = msg.encode_frame();
        let mid = flipped.len() - 10;
        flipped[mid] ^= 0xff;
        assert!(matches!(
            ServeMessage::decode_frame(&flipped, MAX_FRAME_PAYLOAD).unwrap_err(),
            FrameError::Checksum { .. }
        ));
    }

    #[test]
    fn cluster_frames_are_rejected_by_magic() {
        // A serve endpoint that receives a distributed-runtime frame (or
        // vice versa) fails closed on the magic instead of mis-parsing a
        // same-tag message from the other vocabulary.
        let worker_frame = Message::Hello { rows: 5, dim: 2 }.encode_frame();
        assert_eq!(
            ServeMessage::decode_frame(&worker_frame, MAX_FRAME_PAYLOAD).unwrap_err(),
            FrameError::BadMagic
        );
        let serve_frame = ServeMessage::Hello.encode_frame();
        assert_eq!(
            Message::decode_frame(&serve_frame, MAX_FRAME_PAYLOAD).unwrap_err(),
            FrameError::BadMagic
        );
    }
}
