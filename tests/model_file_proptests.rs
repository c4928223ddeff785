//! Property tests for the `SKMMDL01` model image (the persistence half
//! of the serving tier): random records round-trip bitwise; adversarial
//! bytes — flips, truncations, forged header sizes, garbage — draw typed
//! `DataError`s, never panics, and never an allocation from a forged
//! count (the same defensive discipline as the `SKW`/`SKS` frames).

use proptest::collection::vec;
use proptest::prelude::*;
use scalable_kmeans::data::{decode_model, encode_model, ModelRecord, PointMatrix};

const NAMES: &[&str] = &["kmeans-par", "kmeans++", "random", "lloyd", "minibatch", ""];

fn record_from(dim: usize, floats: &[f64], ints: &[u64], converged: bool) -> ModelRecord {
    let rows = (floats.len() / dim).max(1);
    let flat: Vec<f64> = (0..rows * dim)
        .map(|i| floats.get(i).copied().unwrap_or(1.5))
        .collect();
    let get = |i: usize| ints.get(i).copied().unwrap_or(7);
    ModelRecord {
        centers: PointMatrix::from_flat(flat, dim).unwrap(),
        cost: floats.first().copied().unwrap_or(0.25),
        seed_cost: floats.last().copied().unwrap_or(0.5),
        distance_computations: get(0),
        pruned_by_norm_bound: get(1),
        iterations: get(2),
        init_rounds: get(3) as u32,
        init_passes: get(4) as u32,
        init_candidates: get(5),
        converged,
        init_name: NAMES[get(6) as usize % NAMES.len()].to_string(),
        refiner_name: NAMES[get(7) as usize % NAMES.len()].to_string(),
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn random_records_round_trip_bitwise(
        dim in 1usize..6,
        floats in vec(-1e12f64..1e12, 1..60),
        ints in vec(any::<u64>(), 1..10),
        converged in any::<u64>(),
    ) {
        let record = record_from(dim, &floats, &ints, converged % 2 == 1);
        let image = encode_model(&record).unwrap();
        let back = decode_model(&image).unwrap();
        prop_assert_eq!(&back, &record);
        let bits = |r: &ModelRecord| -> Vec<u64> {
            r.centers.as_slice().iter().map(|v| v.to_bits()).collect()
        };
        prop_assert_eq!(bits(&back), bits(&record));
    }

    #[test]
    fn any_byte_flip_is_detected(
        dim in 1usize..5,
        floats in vec(-1e6f64..1e6, 1..40),
        ints in vec(0u64..1_000_000, 1..10),
        pos_frac in 0.0f64..1.0,
        flip in 1u64..256,
    ) {
        // The trailing checksum covers everything after the magic, so a
        // real flip anywhere in the image must be rejected.
        let record = record_from(dim, &floats, &ints, false);
        let mut image = encode_model(&record).unwrap();
        let pos = ((image.len() as f64) * pos_frac) as usize % image.len();
        image[pos] ^= flip as u8;
        prop_assert!(decode_model(&image).is_err(), "flip at {} accepted", pos);
    }

    #[test]
    fn truncations_are_typed_errors(
        dim in 1usize..5,
        floats in vec(-1e6f64..1e6, 1..40),
        cut_frac in 0.0f64..1.0,
    ) {
        let record = record_from(dim, &floats, &[], true);
        let image = encode_model(&record).unwrap();
        let cut = ((image.len() as f64) * cut_frac) as usize;
        prop_assert!(decode_model(&image[..cut.min(image.len() - 1)]).is_err());
    }

    #[test]
    fn forged_header_sizes_never_over_allocate(
        dim in 1usize..5,
        floats in vec(-1e6f64..1e6, 1..40),
        forged_dim in any::<u64>(),
        forged_k in any::<u64>(),
    ) {
        // Header sizes are untrusted: promising far more center rows than
        // the image holds must fail checked size arithmetic (before any
        // allocation), not grow a Vec toward the declared product.
        let record = record_from(dim, &floats, &[], false);
        let mut image = encode_model(&record).unwrap();
        image[8..12].copy_from_slice(&((forged_dim % u32::MAX as u64) as u32 + 1).to_le_bytes());
        image[12..16].copy_from_slice(&((forged_k % u32::MAX as u64) as u32 + 1).to_le_bytes());
        match decode_model(&image) {
            Err(_) => {}
            Ok(back) => {
                // Only reachable when the forgery restored the original
                // header (and with it the checksum).
                prop_assert_eq!(back, record);
            }
        }
    }

    #[test]
    fn garbage_never_panics(bytes in vec(any::<u64>(), 0..64)) {
        let garbage: Vec<u8> = bytes.iter().flat_map(|b| b.to_le_bytes()).collect();
        let _ = decode_model(&garbage);
        // With the magic in place the rest is still untrusted.
        let mut with_magic = b"SKMMDL01".to_vec();
        with_magic.extend_from_slice(&garbage);
        let _ = decode_model(&with_magic);
    }
}
