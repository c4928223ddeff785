//! Property tests for the wire protocol: adversarial bytes — truncations,
//! oversized length prefixes, flipped bits, pure garbage — must decode to
//! typed [`FrameError`]s, never panic, and never allocate from a forged
//! length. Valid frames must round-trip exactly.

use kmeans_cluster::protocol::MAX_FRAME_PAYLOAD;
use kmeans_cluster::{FrameError, Message, WireMessage, WorkerStats};
use kmeans_core::chunked::AccumShard;
use kmeans_core::driver::LabelFetch;
use kmeans_data::PointMatrix;
use proptest::collection::vec;
use proptest::prelude::*;

/// A strategy-driven random message (one of several shapes, sized by the
/// case's byte budget).
fn build_message(shape: usize, floats: Vec<f64>, ints: Vec<u64>) -> Message {
    match shape % 9 {
        0 => Message::ShardSums { sums: floats },
        1 => Message::GatherRows { indices: ints },
        // The recovery catch-up frame.
        2 => Message::Compound(vec![
            Message::InitTracker {
                centers: matrix(&floats, 3),
            },
            Message::UpdateTracker {
                from: ints.first().copied().unwrap_or(0),
                centers: matrix(&floats, 3),
            },
            Message::Assign {
                centers: matrix(&floats, 3),
                labels: LabelFetch::Skip,
            },
        ]),
        3 => Message::Partials {
            reassigned: ints.first().copied().unwrap_or(0),
            shards: vec![AccumShard {
                sums: floats.clone(),
                counts: ints.clone(),
                cost: floats.first().copied().unwrap_or(0.0),
                farthest: (ints.last().copied().unwrap_or(0) as usize, 1.25),
            }],
            stats: kmeans_core::kernel::KernelStats {
                distance_computations: ints.first().copied().unwrap_or(0),
                pruned_by_norm_bound: ints.last().copied().unwrap_or(0),
            },
            labels: if ints.first().copied().unwrap_or(0) % 2 == 0 {
                Some(ints.iter().map(|&i| i as u32).collect())
            } else {
                None
            },
        },
        4 => Message::Assign {
            centers: matrix(&floats, 2),
            labels: match ints.first().copied().unwrap_or(0) % 3 {
                0 => LabelFetch::Skip,
                1 => LabelFetch::Bounded,
                _ => LabelFetch::Always,
            },
        },
        // The D² top-up's reply.
        5 => Message::Compound(vec![
            Message::ShardSums {
                sums: floats.clone(),
            },
            Message::D2 { values: floats },
        ]),
        6 => Message::ExactKeys {
            entries: floats.iter().zip(&ints).map(|(&f, &i)| (f, i)).collect(),
        },
        7 => Message::Prescreened {
            entries: floats
                .iter()
                .zip(&ints)
                .map(|(&f, &i)| (i, f, f.abs()))
                .collect(),
            rows: matrix(&floats, 2),
        },
        _ => Message::Compound(vec![
            Message::UpdateTracker {
                from: ints.first().copied().unwrap_or(0),
                centers: matrix(&floats, 2),
            },
            Message::SampleBernoulliLocal {
                round: ints.last().copied().unwrap_or(0),
                seed: ints.first().copied().unwrap_or(0),
                l: floats.first().copied().unwrap_or(1.0),
            },
        ]),
    }
}

fn matrix(values: &[f64], dim: usize) -> PointMatrix {
    let rows = values.len() / dim;
    PointMatrix::from_flat(values[..rows * dim].to_vec(), dim)
        .unwrap_or_else(|_| PointMatrix::from_flat(vec![0.0; dim], dim).unwrap())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn random_messages_round_trip(
        shape in 0usize..9,
        floats in vec(-1e9f64..1e9, 1..40),
        ints in vec(any::<u64>(), 1..40),
    ) {
        let ints: Vec<u64> = ints.into_iter().map(|i| i % (1 << 40)).collect();
        let msg = build_message(shape, floats, ints);
        let frame = msg.encode_frame();
        let (decoded, used) = Message::decode_frame(&frame, MAX_FRAME_PAYLOAD).unwrap();
        prop_assert_eq!(used, frame.len());
        prop_assert_eq!(decoded, msg);
    }

    #[test]
    fn truncated_frames_never_panic(
        shape in 0usize..9,
        floats in vec(-1e3f64..1e3, 1..20),
        ints in vec(0u64..1000, 1..20),
        cut_frac in 0.0f64..1.0,
    ) {
        let msg = build_message(shape, floats, ints);
        let frame = msg.encode_frame();
        let cut = ((frame.len() as f64) * cut_frac) as usize;
        let result = Message::decode_frame(&frame[..cut.min(frame.len() - 1)], MAX_FRAME_PAYLOAD);
        prop_assert_eq!(result.unwrap_err(), FrameError::Truncated);
    }

    #[test]
    fn flipped_bytes_are_detected(
        shape in 0usize..9,
        floats in vec(-1e3f64..1e3, 1..20),
        ints in vec(0u64..1000, 1..20),
        pos_frac in 0.0f64..1.0,
        flip in 1u64..256,
    ) {
        let msg = build_message(shape, floats, ints);
        let mut frame = msg.encode_frame();
        let pos = ((frame.len() as f64) * pos_frac) as usize % frame.len();
        frame[pos] ^= flip as u8;
        // Either detected as a typed error, or (only when the flip landed
        // in the checksum-covered payload and collided — impossible for a
        // single-byte FNV flip — or restored the original) decoded; a
        // decode, if it happens, must round-trip to *some* valid message.
        match Message::decode_frame(&frame, MAX_FRAME_PAYLOAD) {
            Err(_) => {}
            Ok((m, used)) => {
                prop_assert_eq!(used, frame.len());
                prop_assert_eq!(m, msg); // only possible if flip was a no-op
            }
        }
    }

    #[test]
    fn garbage_never_panics_or_over_allocates(
        bytes in vec(any::<u64>(), 0..64),
    ) {
        let garbage: Vec<u8> = bytes.iter().flat_map(|b| b.to_le_bytes()).collect();
        // Must return a typed error (or, vanishingly unlikely, decode) —
        // and never allocate beyond the 1 KiB cap given here.
        let _ = Message::decode_frame(&garbage, 1024);
    }

    #[test]
    fn forged_length_prefixes_are_rejected_before_allocation(
        declared in 1025u64..u32::MAX as u64,
    ) {
        let msg = Message::ShutdownOk;
        let mut frame = msg.encode_frame();
        frame[5..9].copy_from_slice(&(declared as u32).to_le_bytes());
        let err = Message::decode_frame(&frame, 1024).unwrap_err();
        prop_assert_eq!(err, FrameError::Oversized { len: declared, max: 1024 });
    }

    #[test]
    fn forged_element_counts_are_rejected_before_allocation(
        count in 64u64..u64::MAX / 16,
    ) {
        // A ShardSums payload whose count field promises far more floats
        // than the payload holds.
        let mut payload = Vec::new();
        payload.extend_from_slice(&count.to_le_bytes());
        payload.extend_from_slice(&1.0f64.to_le_bytes());
        // Correct checksum so only the count is adversarial.
        let frame = checksummed_frame(6, &payload); // ShardSums
        let err = Message::decode_frame(&frame, MAX_FRAME_PAYLOAD).unwrap_err();
        prop_assert!(matches!(err, FrameError::Malformed(_)));
    }

    #[test]
    fn forged_compound_item_counts_are_rejected_before_allocation(
        count in 64u64..u64::MAX / 16,
    ) {
        // A Compound payload whose item count promises far more
        // sub-messages than the payload could hold (each item costs at
        // least a tag byte plus a length prefix) — must be rejected by
        // the count/size check before any Vec allocation.
        let mut payload = Vec::new();
        payload.extend_from_slice(&count.to_le_bytes());
        payload.push(25); // one Shutdown tag byte, then nothing
        let err = Message::decode_frame(&checksummed_frame(29, &payload), MAX_FRAME_PAYLOAD)
            .unwrap_err();
        prop_assert!(matches!(err, FrameError::Malformed(_)));
    }
}

/// Assembles a well-checksummed `SKW2` frame for `tag` around an
/// arbitrary payload, so decode tests exercise only the payload logic.
fn checksummed_frame(tag: u8, payload: &[u8]) -> Vec<u8> {
    let mut frame = Vec::new();
    frame.extend_from_slice(b"SKW2");
    frame.push(tag);
    frame.extend_from_slice(&(payload.len() as u32).to_le_bytes());
    frame.extend_from_slice(payload);
    let checksum = kmeans_util::checksum::lanes64(&frame);
    frame.extend_from_slice(&checksum.to_le_bytes());
    frame
}

#[test]
fn empty_compound_is_a_typed_error() {
    let payload = 0u64.to_le_bytes().to_vec();
    let err =
        Message::decode_frame(&checksummed_frame(29, &payload), MAX_FRAME_PAYLOAD).unwrap_err();
    assert_eq!(err, FrameError::Malformed("empty compound"));
}

#[test]
fn nested_compound_is_rejected() {
    // A syntactically well-formed Compound whose single item is itself a
    // Compound (tag 29): one item, inner tag 29, inner length-prefixed
    // payload that would itself be a valid one-item compound
    // ([Shutdown]): count 1, tag 25, empty length-prefixed payload.
    let mut inner = Vec::new();
    inner.extend_from_slice(&1u64.to_le_bytes());
    inner.push(25);
    inner.extend_from_slice(&0u64.to_le_bytes());
    let mut payload = Vec::new();
    payload.extend_from_slice(&1u64.to_le_bytes());
    payload.push(29);
    payload.extend_from_slice(&(inner.len() as u64).to_le_bytes());
    payload.extend_from_slice(&inner);
    let err =
        Message::decode_frame(&checksummed_frame(29, &payload), MAX_FRAME_PAYLOAD).unwrap_err();
    assert_eq!(err, FrameError::Malformed("nested compound"));
}

#[test]
fn stats_and_error_messages_survive_the_wire() {
    // Deterministic spot check for the non-fuzzed shapes.
    for msg in [
        Message::Stats(WorkerStats {
            peak_bytes: 123,
            loads: 4,
            hits: 5,
            budget_bytes: u64::MAX,
        }),
        Message::Error(kmeans_core::KMeansError::NonFiniteData { point: 7, dim: 2 }.into()),
    ] {
        let frame = msg.encode_frame();
        let (decoded, _) = Message::decode_frame(&frame, MAX_FRAME_PAYLOAD).unwrap();
        assert_eq!(decoded, msg);
    }
}
