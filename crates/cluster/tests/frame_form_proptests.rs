//! Property tests for the two frame forms. Form 1 (`SKW1`, FNV-1a over
//! tag and payload) is built by hand here, independently of the library's
//! encoder: such frames must round-trip and report their form, and every
//! single-byte flip must be a typed error. Form 2 (`SKW2`) must catch
//! every change confined to one 8-byte word of the frame. A trailer of
//! the other form under either magic is a typed error.

use kmeans_cluster::protocol::MAX_FRAME_PAYLOAD;
use kmeans_cluster::{FrameError, FrameForm, Message, WireMessage};
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
    fn hand_built_v1_frames_round_trip_and_report_their_form(
        shape in 0usize..6,
        floats in vec(-1e9f64..1e9, 1..40),
        ints in vec(any::<u64>(), 1..40),
    ) {
        let msg = build_message(shape, floats, ints);
        let frame = v1_frame(msg.tag(), &msg.encode_payload());
        prop_assert_eq!(&msg.encode_frame_as(FrameForm::V1), &frame);
        let decoded = Message::decode_frame_form(&frame, MAX_FRAME_PAYLOAD).unwrap();
        prop_assert_eq!(decoded, (msg.clone(), frame.len(), FrameForm::V1));
        let mut cursor = std::io::Cursor::new(&frame);
        let read = Message::read_frame_form(&mut cursor, MAX_FRAME_PAYLOAD).unwrap();
        prop_assert_eq!(read, (msg.clone(), frame.len(), FrameForm::V1));
        // The two forms are the same size.
        prop_assert_eq!(msg.encode_frame().len(), frame.len());
    }

    #[test]
    fn every_single_byte_flip_of_a_v1_frame_is_detected(
        shape in 0usize..6,
        floats in vec(-1e3f64..1e3, 1..12),
        ints in vec(0u64..1000, 1..12),
        flip in 1u64..256,
    ) {
        let msg = build_message(shape, floats, ints);
        let frame = v1_frame(msg.tag(), &msg.encode_payload());
        for pos in 0..frame.len() {
            let mut bad = frame.clone();
            bad[pos] ^= flip as u8;
            let result = Message::decode_frame(&bad, MAX_FRAME_PAYLOAD);
            prop_assert!(result.is_err(), "flip {:#x} at byte {} decoded", flip, pos);
        }
    }

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
        let mut v1_as_v2 = v1_frame(msg.tag(), &msg.encode_payload());
        v1_as_v2[3] = b'2';
        for frame in [v2_as_v1, v1_as_v2] {
            prop_assert!(matches!(
                Message::decode_frame(&frame, MAX_FRAME_PAYLOAD),
                Err(FrameError::Checksum { .. })
            ));
        }
    }
}
