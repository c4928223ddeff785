//! Property tests for the `SKS2` serving protocol, in the style of the
//! cluster runtime's `protocol_proptests`: adversarial bytes —
//! truncations, forged length prefixes, flipped bits, garbage, frames
//! from the *other* protocol — must decode to typed [`FrameError`]s,
//! never panic, and never allocate from a forged length. Valid frames
//! round-trip exactly.

use kmeans_cluster::protocol::{Message, WireError, MAX_FRAME_PAYLOAD};
use kmeans_cluster::{FrameError, WireMessage};
use kmeans_data::PointMatrix;
use kmeans_obs::HistogramSummary;
use kmeans_serve::{ServeMessage, ServeStats};
use proptest::collection::vec;
use proptest::prelude::*;

fn matrix(values: &[f64], dim: usize) -> PointMatrix {
    let rows = values.len() / dim;
    PointMatrix::from_flat(values[..rows * dim].to_vec(), dim)
        .unwrap_or_else(|_| PointMatrix::from_flat(vec![0.0; dim], dim).unwrap())
}

/// Number of distinct payload shapes [`build_message`] produces.
const SHAPES: usize = 14;

/// A strategy-driven random serve message (one of every payload shape).
fn build_message(shape: usize, floats: Vec<f64>, ints: Vec<u64>) -> ServeMessage {
    let f0 = floats.first().copied().unwrap_or(0.5);
    let get = |i: usize| ints.get(i).copied().unwrap_or(3);
    match shape % SHAPES {
        0 => ServeMessage::Hello,
        1 => ServeMessage::ModelInfo {
            revision: get(0),
            k: get(1),
            dim: get(2) as u32,
            cost: f0,
            init_name: "kmeans-par".into(),
            refiner_name: "lloyd".into(),
            batch_cap: get(3),
        },
        2 => ServeMessage::Predict {
            points: matrix(&floats, 3),
            // Exercise both the with- and without-deadline encodings.
            deadline_ms: if get(0) % 2 == 0 { Some(get(1)) } else { None },
        },
        3 => ServeMessage::Labels {
            revision: get(0),
            labels: ints.iter().map(|&i| i as u32).collect(),
            cost: f0,
        },
        4 => ServeMessage::Cost {
            points: matrix(&floats, 2),
            deadline_ms: if get(0) % 2 == 1 { Some(get(1)) } else { None },
        },
        5 => ServeMessage::CostReply {
            revision: get(0),
            n: get(1),
            cost: f0,
        },
        6 => ServeMessage::Stats(ServeStats {
            revision: get(0),
            requests: get(1),
            points: get(2),
            batches: get(3),
            max_batch_points: get(4),
            swaps: get(5),
            distance_computations: get(6),
            pruned_by_norm_bound: get(7),
            revision_requests: get(8),
            revision_points: get(9),
            revision_batches: get(10),
            revision_installed_ns: get(11),
            request_latency: HistogramSummary {
                count: get(12),
                sum_ns: get(13),
                p50_ns: get(14),
                p99_ns: get(15),
                p999_ns: get(16),
                max_ns: get(17),
            },
            batch_latency: HistogramSummary {
                count: get(18),
                sum_ns: get(19),
                p50_ns: get(20),
                p99_ns: get(21),
                p999_ns: get(22),
                max_ns: get(23),
            },
            shed_requests: get(24),
            shed_points: get(25),
            deadline_exceeded: get(26),
            drain_rejected: get(27),
            queued_points: get(28),
            queue_cap: get(29),
            draining: get(30) % 2 == 1,
        }),
        7 => ServeMessage::SwapModel {
            model: ints.iter().flat_map(|i| i.to_le_bytes()).collect(),
        },
        8 => ServeMessage::SwapOk {
            revision: get(0),
            k: get(1),
            dim: get(2) as u32,
        },
        9 => ServeMessage::Drain,
        10 => ServeMessage::DrainOk {
            queued_points: get(0),
        },
        11 => ServeMessage::Error(WireError::Overloaded {
            queued_points: get(0),
            cap: get(1),
        }),
        12 => ServeMessage::Error(if get(0) % 2 == 0 {
            WireError::DeadlineExceeded { budget_ms: get(1) }
        } else {
            WireError::Draining
        }),
        _ => ServeMessage::Error(WireError::DimensionMismatch {
            expected: get(0) % 4096,
            got: get(1) % 4096,
        }),
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn random_serve_messages_round_trip(
        shape in 0usize..14,
        floats in vec(-1e9f64..1e9, 1..40),
        ints in vec(any::<u64>(), 1..40),
    ) {
        let ints: Vec<u64> = ints.into_iter().map(|i| i % (1 << 40)).collect();
        let msg = build_message(shape, floats, ints);
        let frame = msg.encode_frame();
        let (decoded, used) = ServeMessage::decode_frame(&frame, MAX_FRAME_PAYLOAD).unwrap();
        prop_assert_eq!(used, frame.len());
        prop_assert_eq!(decoded, msg);
    }

    #[test]
    fn truncated_serve_frames_never_panic(
        shape in 0usize..14,
        floats in vec(-1e3f64..1e3, 1..20),
        ints in vec(0u64..1000, 1..20),
        cut_frac in 0.0f64..1.0,
    ) {
        let msg = build_message(shape, floats, ints);
        let frame = msg.encode_frame();
        let cut = ((frame.len() as f64) * cut_frac) as usize;
        let result =
            ServeMessage::decode_frame(&frame[..cut.min(frame.len() - 1)], MAX_FRAME_PAYLOAD);
        prop_assert_eq!(result.unwrap_err(), FrameError::Truncated);
    }

    #[test]
    fn flipped_serve_bytes_are_detected(
        shape in 0usize..14,
        floats in vec(-1e3f64..1e3, 1..20),
        ints in vec(0u64..1000, 1..20),
        pos_frac in 0.0f64..1.0,
        flip in 1u64..256,
    ) {
        let msg = build_message(shape, floats, ints);
        let mut frame = msg.encode_frame();
        let pos = ((frame.len() as f64) * pos_frac) as usize % frame.len();
        frame[pos] ^= flip as u8;
        match ServeMessage::decode_frame(&frame, MAX_FRAME_PAYLOAD) {
            Err(_) => {}
            Ok((m, used)) => {
                prop_assert_eq!(used, frame.len());
                prop_assert_eq!(m, msg); // only possible if the flip was a no-op
            }
        }
    }

    #[test]
    fn garbage_never_panics_or_over_allocates(
        bytes in vec(any::<u64>(), 0..64),
    ) {
        let garbage: Vec<u8> = bytes.iter().flat_map(|b| b.to_le_bytes()).collect();
        let _ = ServeMessage::decode_frame(&garbage, 1024);
    }

    #[test]
    fn forged_length_prefixes_are_rejected_before_allocation(
        declared in 1025u64..u32::MAX as u64,
    ) {
        let mut frame = ServeMessage::Shutdown.encode_frame();
        frame[5..9].copy_from_slice(&(declared as u32).to_le_bytes());
        let err = ServeMessage::decode_frame(&frame, 1024).unwrap_err();
        prop_assert_eq!(err, FrameError::Oversized { len: declared, max: 1024 });
    }

    #[test]
    fn cluster_and_serve_vocabularies_never_cross(
        shape in 0usize..14,
        floats in vec(-1e3f64..1e3, 1..20),
        ints in vec(0u64..1000, 1..20),
    ) {
        // An SKS2 frame fed to the SKW2 decoder (and vice versa) is a
        // typed BadMagic, whatever the payload — the magic, not the tag
        // space, separates the protocols.
        let serve = build_message(shape, floats, ints).encode_frame();
        prop_assert_eq!(
            Message::decode_frame(&serve, MAX_FRAME_PAYLOAD).unwrap_err(),
            FrameError::BadMagic
        );
        let cluster = Message::ShutdownOk.encode_frame();
        prop_assert_eq!(
            ServeMessage::decode_frame(&cluster, MAX_FRAME_PAYLOAD).unwrap_err(),
            FrameError::BadMagic
        );
    }
}

#[test]
fn every_wire_error_kind_survives_the_serve_wire() {
    for err in [
        WireError::EmptyInput,
        WireError::InvalidK { k: 3, n: 2 },
        WireError::DimensionMismatch {
            expected: 4,
            got: 7,
        },
        WireError::InvalidConfig("zero rounds".into()),
        WireError::NonFiniteData { point: 9, dim: 1 },
        WireError::Data("swap image rejected".into()),
        WireError::Overloaded {
            queued_points: 300_000,
            cap: 262_144,
        },
        WireError::DeadlineExceeded { budget_ms: 250 },
        WireError::Draining,
    ] {
        let msg = ServeMessage::Error(err);
        let frame = msg.encode_frame();
        let (decoded, _) = ServeMessage::decode_frame(&frame, MAX_FRAME_PAYLOAD).unwrap();
        assert_eq!(decoded, msg);
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn deadline_field_is_revision_tolerant(
        floats in vec(-1e3f64..1e3, 2..40),
        budget in 0u64..1_000_000,
    ) {
        // A deadline-free Predict/Cost must encode byte-identically to a
        // revision-1 frame (the trailing field simply absent), and a
        // revision-1 frame must decode as "no deadline" — both
        // directions of cross-revision traffic keep working.
        let m = matrix(&floats, 2);
        for (with, without) in [
            (
                ServeMessage::Predict { points: m.clone(), deadline_ms: Some(budget) },
                ServeMessage::Predict { points: m.clone(), deadline_ms: None },
            ),
            (
                ServeMessage::Cost { points: m.clone(), deadline_ms: Some(budget) },
                ServeMessage::Cost { points: m.clone(), deadline_ms: None },
            ),
        ] {
            let old_style = without.encode_frame();
            let new_style = with.encode_frame();
            // The deadline is exactly one trailing u64 of payload.
            prop_assert_eq!(new_style.len(), old_style.len() + 8);
            let (decoded, _) =
                ServeMessage::decode_frame(&old_style, MAX_FRAME_PAYLOAD).unwrap();
            prop_assert_eq!(decoded, without);
            let (decoded, _) =
                ServeMessage::decode_frame(&new_style, MAX_FRAME_PAYLOAD).unwrap();
            prop_assert_eq!(decoded, with);
        }
    }

    #[test]
    fn stats_frames_missing_any_tail_are_malformed(
        ints in vec(0u64..1000, 31..40),
        cut in 1usize..50,
    ) {
        // Every counter group is required: a Stats frame missing the
        // whole overload group (49 payload bytes: six u64 counters + one
        // bool) or any part of it is a typed malformed frame, never a
        // misparse.
        let msg = build_message(6, vec![], ints);
        let full = msg.encode_frame();
        // Rebuild the frame with the trailing `cut` payload bytes gone.
        let payload_len = full.len() - 4 - 1 - 4 - 8; // magic+tag+len+checksum
        let payload = &full[9..9 + payload_len];
        let shortened = &payload[..payload_len - cut];
        let mut frame = Vec::new();
        frame.extend_from_slice(&kmeans_serve::SERVE_MAGIC);
        frame.push(8);
        frame.extend_from_slice(&(shortened.len() as u32).to_le_bytes());
        frame.extend_from_slice(shortened);
        let checksum = kmeans_util::checksum::lanes64(&frame);
        frame.extend_from_slice(&checksum.to_le_bytes());
        let result = ServeMessage::decode_frame(&frame, MAX_FRAME_PAYLOAD);
        prop_assert!(
            matches!(result, Err(FrameError::Malformed(_))),
            "short stats frame decoded: cut={}",
            cut
        );
    }
}
