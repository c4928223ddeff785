//! The workspace's two 64-bit checksums, in one place.
//!
//! * [`fnv1a`] — byte-at-a-time FNV-1a. It seals the `SKMMDL01` model
//!   and `SKMCKPT1` checkpoint files and fingerprints journaled round
//!   arguments. Its output is part of those formats, so it never
//!   changes. It checks no wire frame.
//! * [`lanes64`] — four independent lanes over 8-byte words: the one
//!   checksum of the `SKW2`/`SKS2` wire frames. One multiply per word per
//!   lane instead of one per byte, so it runs near memory speed; see its
//!   docs for the detection guarantee.

/// FNV-1a 64's offset basis: the state before any byte is hashed.
pub const FNV1A_BASIS: u64 = 0xcbf2_9ce4_8422_2325;

/// Continues a 64-bit FNV-1a hash from `state` over `bytes`:
/// `fnv1a(FNV1A_BASIS, b)` hashes `b` from scratch, and hashing a message
/// in pieces (`fnv1a(fnv1a(FNV1A_BASIS, a), b)`) equals hashing `a ++ b`.
///
/// ```
/// use kmeans_util::checksum::{fnv1a, FNV1A_BASIS};
/// assert_eq!(fnv1a(FNV1A_BASIS, b"a"), 0xaf63_dc4c_8601_ec8c);
/// assert_eq!(fnv1a(fnv1a(FNV1A_BASIS, b"foo"), b"bar"), fnv1a(FNV1A_BASIS, b"foobar"));
/// ```
pub fn fnv1a(state: u64, bytes: &[u8]) -> u64 {
    bytes.iter().fold(state, |h, &b| {
        (h ^ b as u64).wrapping_mul(0x0000_0100_0000_01b3)
    })
}

const P1: u64 = 0x9e37_79b1_85eb_ca87;
const P2: u64 = 0xc2b2_ae3d_27d4_eb4f;
const P3: u64 = 0x1656_67b1_9e37_79f9;
const P5: u64 = 0x27d4_eb2f_1656_67c5;

/// One lane step, xxh64's round. Both multipliers are odd, so the step is
/// a bijection of `acc` for a fixed `word` and of `word` for a fixed
/// `acc`.
#[inline(always)]
fn round(acc: u64, word: u64) -> u64 {
    acc.wrapping_add(word.wrapping_mul(P2))
        .rotate_left(31)
        .wrapping_mul(P1)
}

/// A 64-bit checksum that reads `bytes` as little-endian 8-byte words.
///
/// Whole 32-byte stripes feed four independent lanes, one word each, so
/// the four multiply chains overlap in the pipeline. The lanes are then
/// folded, in order, into a state seeded with the input length, using the
/// same step with the lane value as the word. The leftover whole words
/// follow one step each, a final partial word is zero-padded into one
/// more step, and an xor-shift-multiply finish mixes the result.
///
/// **Detection.** Any change confined to one 8-byte word (offsets `8i ..
/// 8i + 8` from the start of `bytes`) changes the checksum, always — in
/// particular every single-bit and single-byte flip. Take two inputs of
/// the same length that differ only inside one word:
///
/// * Each step `(acc, w) ↦ rotl(acc + w·P2, 31)·P1` is a bijection of
///   `w` for a fixed `acc` (`P2` is odd, addition and rotation are
///   invertible) and a bijection of `acc` for a fixed `w` (`P1` is odd).
///   The zero-padding of a partial last word is injective for a fixed
///   length.
/// * So the step that reads the differing word leaves different states;
///   every later step on that chain reads equal words and, being a
///   bijection of the state, keeps them different. If the word sits in a
///   stripe, only its lane differs, and the fold step that reads that
///   lane is a bijection of it, so the folded states differ and stay
///   different through the remaining fold, word and tail steps.
/// * The finish — `h ^= h >> 33`, `h *= P2`, `h ^= h >> 29`, `h *= P3`,
///   `h ^= h >> 32` — is a composition of bijections.
///
/// Changes spread over several words, and inputs of different lengths,
/// collide with the probability of a good 64-bit hash, not never; the
/// frame layout puts the payload length inside the hashed bytes.
///
/// ```
/// use kmeans_util::checksum::lanes64;
/// let mut bytes = *b"any change inside one word is caught";
/// let before = lanes64(&bytes);
/// bytes[9] ^= 0x40;
/// assert_ne!(lanes64(&bytes), before);
/// ```
pub fn lanes64(bytes: &[u8]) -> u64 {
    let mut lanes = [P1.wrapping_add(P2), P2, 0, P1.wrapping_neg()];
    let (stripes, rest) = bytes.as_chunks::<32>();
    for stripe in stripes {
        let (w, _) = stripe.as_chunks::<8>();
        lanes[0] = round(lanes[0], u64::from_le_bytes(w[0]));
        lanes[1] = round(lanes[1], u64::from_le_bytes(w[1]));
        lanes[2] = round(lanes[2], u64::from_le_bytes(w[2]));
        lanes[3] = round(lanes[3], u64::from_le_bytes(w[3]));
    }
    let mut h = lanes
        .iter()
        .fold(P5.wrapping_add(bytes.len() as u64), |h, &lane| {
            round(h, lane)
        });
    let (words, tail) = rest.as_chunks::<8>();
    for w in words {
        h = round(h, u64::from_le_bytes(*w));
    }
    if !tail.is_empty() {
        let mut last = [0u8; 8];
        last[..tail.len()].copy_from_slice(tail);
        h = round(h, u64::from_le_bytes(last));
    }
    h ^= h >> 33;
    h = h.wrapping_mul(P2);
    h ^= h >> 29;
    h = h.wrapping_mul(P3);
    h ^ (h >> 32)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fnv1a_matches_the_published_vectors() {
        assert_eq!(fnv1a(FNV1A_BASIS, b""), FNV1A_BASIS);
        assert_eq!(fnv1a(FNV1A_BASIS, b"a"), 0xaf63_dc4c_8601_ec8c);
        assert_eq!(fnv1a(FNV1A_BASIS, b"foobar"), 0x8594_4171_f739_67e8);
    }

    #[test]
    fn lanes64_is_pinned() {
        // Every wire frame carries this function's output between
        // processes: a change here is a wire-format change.
        let bytes: Vec<u8> = (0..100u8).collect();
        let pinned = [
            (0, 0x5492_ca01_b819_3b36_u64),
            (1, 0x5453_f6f6_bf83_53bd),
            (7, 0x740c_f482_a01e_5c11),
            (8, 0x2cbd_74ec_7dfa_8413),
            (31, 0x9f71_3201_fd01_0b05),
            (32, 0xfc64_e3ad_561a_6a03),
            (33, 0x782c_e785_4b58_e00f),
            (100, 0xbb56_cf85_dbb0_7744),
        ];
        for (len, want) in pinned {
            assert_eq!(lanes64(&bytes[..len]), want, "len {len}");
        }
    }

    #[test]
    fn every_change_inside_one_word_is_detected() {
        // Every length through three stripes plus a partial word, every
        // word position (the partial last word included), a spread of
        // xor deltas: single bits, single bytes, and whole-word patterns.
        let base: Vec<u8> = (0..110u32).map(|i| (i * 37 + 11) as u8).collect();
        let deltas: Vec<u64> = (0..64)
            .map(|b| 1u64 << b)
            .chain((0..8).map(|b| 0xffu64 << (8 * b)))
            .chain([u64::MAX, 0x0123_4567_89ab_cdef, 0x8000_0000_0000_0001])
            .collect();
        for len in 0..base.len() {
            let bytes = &base[..len];
            let want = lanes64(bytes);
            for start in (0..len).step_by(8) {
                let end = (start + 8).min(len);
                for &delta in &deltas {
                    let mut changed = bytes.to_vec();
                    let mask = delta.to_le_bytes();
                    for (b, m) in changed[start..end].iter_mut().zip(mask) {
                        *b ^= m;
                    }
                    if changed == bytes {
                        continue; // the delta fell past the partial word
                    }
                    assert_ne!(lanes64(&changed), want, "len {len} word {start} {delta:#x}");
                }
            }
        }
    }

    #[test]
    fn trailing_zeros_change_the_checksum() {
        assert_ne!(lanes64(b"ab"), lanes64(b"ab\0"));
        assert_ne!(lanes64(&[0; 32]), lanes64(&[0; 40]));
    }
}
