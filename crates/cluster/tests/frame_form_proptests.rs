//! Property tests for the frame form. An `SKW2` frame must catch every
//! change confined to one 8-byte word of the frame. A frame of the
//! retired form 1 (`SKW1`, FNV-1a over tag and payload, built by hand
//! here) is refused by its magic, and its trailer under the `SKW2` magic
//! is a checksum error.

use kmeans_cluster::protocol::MAX_FRAME_PAYLOAD;
use kmeans_cluster::{FrameError, Message, WireMessage};
use kmeans_data::PointMatrix;
use proptest::collection::vec;
use proptest::prelude::*;

fn matrix(values: &[f64], dim: usize) -> PointMatrix {
    let rows = (values.len() / dim).max(1);
    let mut flat = values.to_vec();
    flat.resize(rows * dim, 0.5);
    PointMatrix::from_flat(flat, dim).unwrap()
}

/// One of several payload shapes: runs of each width, a matrix, a
/// compound, and an empty payload.
fn build_message(shape: usize, floats: Vec<f64>, ints: Vec<u64>) -> Message {
    match shape % 6 {
        0 => Message::ShardSums { sums: floats },
        1 => Message::GatherRows { indices: ints },
        2 => Message::Cost {
            centers: matrix(&floats, 3),
        },
        3 => Message::Compound(vec![
            Message::D2 { values: floats },
            Message::Rows {
                rows: PointMatrix::from_flat(vec![1.0, -2.0], 2).unwrap(),
            },
        ]),
        4 => Message::Hello {
            rows: ints[0],
            dim: ints.len() as u32,
        },
        _ => Message::ShutdownOk,
    }
}

/// A form-1 frame built by hand: `SKW1`, tag, length, payload, FNV-1a
/// over tag and payload.
fn v1_frame(tag: u8, payload: &[u8]) -> Vec<u8> {
    let mut frame = b"SKW1".to_vec();
    frame.push(tag);
    frame.extend_from_slice(&(payload.len() as u32).to_le_bytes());
    frame.extend_from_slice(payload);
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    for &b in std::iter::once(&tag).chain(payload) {
        h ^= b as u64;
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    frame.extend_from_slice(&h.to_le_bytes());
    frame
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn every_change_inside_one_word_of_a_v2_frame_is_detected(
        shape in 0usize..6,
        floats in vec(-1e3f64..1e3, 1..20),
        ints in vec(0u64..1000, 1..20),
        word_frac in 0.0f64..1.0,
        delta in 1u64..u64::MAX,
    ) {
        let msg = build_message(shape, floats, ints);
        let frame = msg.encode_frame();
        let start = ((frame.len() as f64 * word_frac) as usize).min(frame.len() - 1) / 8 * 8;
        let mut bad = frame.clone();
        for (b, m) in bad[start..].iter_mut().zip(delta.to_le_bytes()) {
            *b ^= m;
        }
        // The delta may fall wholly past the end of a partial last word.
        prop_assert!(
            bad == frame || Message::decode_frame(&bad, MAX_FRAME_PAYLOAD).is_err(),
            "change {:#x} in the word at byte {} decoded", delta, start
        );
    }

    #[test]
    fn a_trailer_of_the_other_form_is_a_typed_error(
        shape in 0usize..6,
        floats in vec(-1e3f64..1e3, 1..20),
        ints in vec(0u64..1000, 1..20),
    ) {
        let msg = build_message(shape, floats, ints);
        let mut v2_as_v1 = msg.encode_frame();
        v2_as_v1[3] = b'1';
        prop_assert_eq!(
            Message::decode_frame(&v2_as_v1, MAX_FRAME_PAYLOAD).unwrap_err(),
            FrameError::BadMagic
        );
        let mut v1_as_v2 = v1_frame(msg.tag(), &msg.encode_payload());
        v1_as_v2[3] = b'2';
        prop_assert!(matches!(
            Message::decode_frame(&v1_as_v2, MAX_FRAME_PAYLOAD),
            Err(FrameError::Checksum { .. })
        ));
    }
}
