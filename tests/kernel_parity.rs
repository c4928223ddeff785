//! Bit-parity of the batch assignment kernel (`kmeans_core::kernel`)
//! against the scalar per-point path, across random shapes, duplicate
//! centers, non-finite inputs, and ulp-adversarial near-ties — for the
//! cold sweep, for the warm sweep under any hints, and for tracker
//! updates over successive rounds under any carried state.
//!
//! These tests are meaningful in **both** build profiles: release-mode
//! FP contraction or vectorization differences are exactly what they
//! would catch, so CI runs them in debug *and* release explicitly.
#![recursion_limit = "256"]

use kmeans_core::assign::ClusterSums;
use kmeans_core::chunked::{assign_partials, fold_accum_shards, LocalData};
use kmeans_core::distance::{nearest, sq_dist_bounded};
use kmeans_core::kernel::{AssignKernel, KernelStats};
use kmeans_data::{InMemorySource, PointMatrix};
use kmeans_par::Executor;
use proptest::prelude::*;

/// One assignment pass over all of `data`, folded: labels, sums and the
/// kernel counters.
fn assign_and_fold(
    data: LocalData<'_>,
    centers: &PointMatrix,
    exec: &Executor,
    hints: Option<&[u32]>,
) -> (Vec<u32>, ClusterSums) {
    let (labels, partials, stats) =
        assign_partials(data, centers, exec, 0, data.len(), hints).unwrap();
    let mut sums = fold_accum_shards(centers.len(), data.dim(), &partials);
    sums.stats = stats;
    (labels, sums)
}

fn scalar_assign(points: &PointMatrix, centers: &PointMatrix) -> (Vec<u32>, Vec<f64>) {
    points
        .rows()
        .map(|row| {
            let (c, d2) = nearest(row, centers);
            (c as u32, d2)
        })
        .unzip()
}

/// The scalar suffix scan of the cost trackers, verbatim.
fn scalar_update(
    points: &PointMatrix,
    centers: &PointMatrix,
    from: usize,
    labels: &mut [u32],
    d2: &mut [f64],
) {
    for (i, row) in points.rows().enumerate() {
        let mut best = d2[i];
        let mut best_id = u32::MAX;
        for c in from..centers.len() {
            let dist = sq_dist_bounded(row, centers.row(c), best);
            if dist < best {
                best = dist;
                best_id = c as u32;
            }
        }
        if best_id != u32::MAX {
            d2[i] = best;
            labels[i] = best_id;
        }
    }
}

fn assert_assign_matches(points: &PointMatrix, centers: &PointMatrix) -> KernelStats {
    let (ref_labels, ref_d2) = scalar_assign(points, centers);
    let kernel = AssignKernel::new(centers);
    let n = points.len();
    let mut labels = vec![u32::MAX; n];
    let mut d2 = vec![-1.0f64; n];
    let stats = kernel.assign(points, 0..n, &mut labels, &mut d2);
    assert_eq!(labels, ref_labels, "labels diverged");
    let bits: Vec<u64> = d2.iter().map(|v| v.to_bits()).collect();
    let ref_bits: Vec<u64> = ref_d2.iter().map(|v| v.to_bits()).collect();
    assert_eq!(bits, ref_bits, "d2 bits diverged");
    assert_eq!(
        stats.distance_computations + stats.pruned_by_norm_bound,
        (n * centers.len()) as u64,
        "every pair must be computed or pruned exactly once"
    );
    stats
}

/// The warm sweep over all rows with the given hints: same labels and
/// `d²` bits as the scalar path, every pair computed or pruned once.
fn assert_warm_matches(points: &PointMatrix, centers: &PointMatrix, hints: &[u32]) -> KernelStats {
    let (ref_labels, ref_d2) = scalar_assign(points, centers);
    let kernel = AssignKernel::new(centers);
    let n = points.len();
    let mut labels = vec![u32::MAX; n];
    let mut d2 = vec![-1.0f64; n];
    let stats = kernel.assign_warm(points, 0..n, Some(hints), &mut labels, &mut d2);
    assert_eq!(labels, ref_labels, "warm labels diverged (hints {hints:?})");
    let bits: Vec<u64> = d2.iter().map(|v| v.to_bits()).collect();
    let ref_bits: Vec<u64> = ref_d2.iter().map(|v| v.to_bits()).collect();
    assert_eq!(bits, ref_bits, "warm d2 bits diverged (hints {hints:?})");
    assert_eq!(
        stats.distance_computations + stats.pruned_by_norm_bound,
        (n * centers.len()) as u64,
        "every pair must be computed or pruned exactly once"
    );
    stats
}

/// Hints drawn four ways — `kind` 0: the true labels, 1: random labels,
/// 2: out-of-range values, 3: `u32::MAX`; 4 mixes all four per row.
fn draw_hints(points: &PointMatrix, centers: &PointMatrix, kind: usize, salt: u64) -> Vec<u32> {
    let (truth, _) = scalar_assign(points, centers);
    let k = centers.len();
    let mut rng = kmeans_util::Rng::new(salt);
    truth
        .iter()
        .map(|&t| {
            let kind = if kind == 4 { rng.range_usize(4) } else { kind };
            match kind {
                0 => t,
                1 => rng.range_usize(k) as u32,
                2 => (k + rng.range_usize(1000)) as u32,
                _ => u32::MAX,
            }
        })
        .collect()
}

/// A dataset plus center set of arbitrary small shape; centers include
/// deliberate duplicates and rows copied from the data (exact-tie bait).
fn workloads() -> impl Strategy<Value = (PointMatrix, PointMatrix)> {
    (1usize..24, 1usize..10, 1usize..24, 0u64..1 << 20).prop_map(|(n, d, k, salt)| {
        let mut rng = kmeans_util::Rng::new(salt);
        let mut points = PointMatrix::new(d);
        for _ in 0..n {
            let row: Vec<f64> = (0..d).map(|_| (rng.normal() * 8.0).round() / 4.0).collect();
            points.push(&row).unwrap();
        }
        let mut centers = PointMatrix::new(d);
        for i in 0..k {
            // A third of the centers are duplicates of data rows or of
            // earlier centers — exact ties with low/high index variants.
            match i % 3 {
                0 if i > 0 => {
                    let src = centers.row(rng.range_usize(i)).to_vec();
                    centers.push(&src).unwrap();
                }
                1 => {
                    let src = points.row(rng.range_usize(n)).to_vec();
                    centers.push(&src).unwrap();
                }
                _ => {
                    let row: Vec<f64> =
                        (0..d).map(|_| (rng.normal() * 8.0).round() / 4.0).collect();
                    centers.push(&row).unwrap();
                }
            }
        }
        (points, centers)
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn assign_is_bit_identical_for_random_shapes((points, centers) in workloads()) {
        assert_assign_matches(&points, &centers);
    }

    #[test]
    fn update_is_bit_identical_for_random_suffixes(
        (points, centers) in workloads(),
        split in 0usize..64,
    ) {
        let from = split % (centers.len() + 1);
        // Carried state from a full assignment over the prefix (or a
        // fresh state when from == 0).
        let n = points.len();
        let (mut labels, mut d2) = if from > 0 {
            scalar_assign(&points, &prefix(&centers, from))
        } else {
            (vec![0u32; n], vec![f64::INFINITY; n])
        };
        assert_update_matches(&points, &centers, from, &mut labels, &mut d2);
    }

    #[test]
    fn non_finite_coordinates_keep_parity(
        (mut points, mut centers) in workloads(),
        poison in 0u64..1 << 16,
    ) {
        // Sprinkle NaN/±∞ into both sides, deterministically per case.
        let specials = [f64::NAN, f64::INFINITY, f64::NEG_INFINITY];
        let pd = points.dim();
        let slot = (poison as usize) % (points.len() * pd);
        points.row_mut(slot / pd)[slot % pd] = specials[(poison as usize) % 3];
        let cd = centers.dim();
        let slot = (poison as usize / 3) % (centers.len() * cd);
        centers.row_mut(slot / cd)[slot % cd] = specials[(poison as usize / 7) % 3];
        assert_assign_matches(&points, &centers);
    }

    #[test]
    fn warm_sweep_is_bit_identical_for_any_hints(
        (points, centers) in workloads(),
        kind in 0usize..5,
        salt in 0u64..1 << 20,
    ) {
        let hints = draw_hints(&points, &centers, kind, salt);
        assert_warm_matches(&points, &centers, &hints);
    }

    #[test]
    fn warm_sweep_keeps_parity_on_non_finite_coordinates(
        (mut points, mut centers) in workloads(),
        poison in 0u64..1 << 16,
        kind in 0usize..5,
    ) {
        // Hints come from the clean data, so they point wherever the
        // poisoned rows used to belong.
        let hints = draw_hints(&points, &centers, kind, poison);
        let specials = [f64::NAN, f64::INFINITY, f64::NEG_INFINITY];
        let pd = points.dim();
        let slot = (poison as usize) % (points.len() * pd);
        points.row_mut(slot / pd)[slot % pd] = specials[(poison as usize) % 3];
        let cd = centers.dim();
        let slot = (poison as usize / 3) % (centers.len() * cd);
        centers.row_mut(slot / cd)[slot % cd] = specials[(poison as usize / 7) % 3];
        assert_warm_matches(&points, &centers, &hints);
    }
}

/// The certificate's boundary, `4·D_a = S_a`: the point sits at distance
/// `r` from its hinted center `a`, and `a`'s nearest other center `b`
/// sits at `2r` scaled by a ladder of factors — a few ulps either side of
/// the exact midpoint tie (where the certificate must refuse) out to
/// `1 ± 1e-12` (where it may fire). `a` and `b` trade index order so an
/// exact tie must go to the lower index, and far centers keep the pruned
/// sweep on.
#[test]
fn warm_certificate_is_exact_around_half_separation() {
    let mut factors = vec![1.0f64];
    let (mut up, mut down) = (1.0f64, 1.0f64);
    for _ in 0..6 {
        up = up.next_up();
        down = down.next_down();
        factors.push(up);
        factors.push(down);
    }
    for rel in [1e-15, 1e-14, 1e-13, 1e-12, 1e-9] {
        factors.push(1.0 + rel);
        factors.push(1.0 - rel);
    }
    let mut certified = 0u64;
    let mut refused = 0u64;
    for d in [1usize, 2, 5] {
        for (case, &r) in [0.75f64, 1.0, 3.1, 1e-3, 4.5e7].iter().enumerate() {
            for &f in &factors {
                for a_first in [true, false] {
                    // Coordinates past the first are shared by all three:
                    // the geometry stays on one line but the distances
                    // run through more coordinates.
                    let shared: Vec<f64> = (0..d).map(|j| 0.25 * j as f64).collect();
                    let (mut a, mut b, mut x) = (shared.clone(), shared.clone(), shared);
                    a[0] = 10.0 * case as f64;
                    b[0] = a[0] + 2.0 * r * f;
                    x[0] = a[0] + r;
                    let mut centers = PointMatrix::new(d);
                    let (ia, ib) = if a_first { (0u32, 1u32) } else { (1, 0) };
                    for c in 0..2 {
                        centers
                            .push(if c == ia as usize { &a } else { &b })
                            .unwrap();
                    }
                    for i in 0..8 {
                        let mut far = vec![0.0; d];
                        far[0] = a[0] - 100.0 * r * (i + 1) as f64;
                        centers.push(&far).unwrap();
                    }
                    let query = PointMatrix::from_flat(x, d).unwrap();
                    for hint in [ia, ib] {
                        let stats = assert_warm_matches(&query, &centers, &[hint]);
                        if stats.distance_computations == 1 {
                            certified += 1;
                        } else {
                            refused += 1;
                        }
                    }
                }
            }
        }
    }
    assert!(
        certified > 0 && refused > 0,
        "the ladder must straddle the certificate: {certified} certified, {refused} refused"
    );
}

/// The same boundary in general position, where every coordinate adds
/// rounding: points on the segment from `a` to its nearest other center
/// `b`, at and a hair either side of the midpoint (where `D_a` and `D_b`
/// tie up to rounding and `4·D_a ≈ S_a`), hinted at either end. Without
/// the certificate's slack, rounding alone certifies `a` for about half
/// of the midpoints whose canonical `D_b` is the smaller one.
#[test]
fn warm_certificate_is_exact_at_midpoints_in_general_position() {
    let mut rng = kmeans_util::Rng::new(29);
    let mut certified = 0u64;
    let mut refused = 0u64;
    for d in [3usize, 16, 42] {
        for _ in 0..40 {
            let a: Vec<f64> = (0..d).map(|_| rng.normal() * 10.0).collect();
            let b: Vec<f64> = a.iter().map(|v| v + rng.normal()).collect();
            let mut centers = PointMatrix::new(d);
            let a_first = rng.range_usize(2) == 0;
            let (ia, ib) = if a_first { (0u32, 1u32) } else { (1, 0) };
            for c in 0..2 {
                centers
                    .push(if c == ia as usize { &a } else { &b })
                    .unwrap();
            }
            for i in 0..8 {
                let far: Vec<f64> = a.iter().map(|v| v + 1e3 * (i + 1) as f64).collect();
                centers.push(&far).unwrap();
            }
            let mut points = PointMatrix::new(d);
            for t in [0.5, 0.5 + 1e-15, 0.5 - 1e-15, 0.5 - 1e-12, 0.45] {
                let row: Vec<f64> = a.iter().zip(&b).map(|(x, y)| x + t * (y - x)).collect();
                points.push(&row).unwrap();
            }
            for hint in [ia, ib] {
                let hints = vec![hint; points.len()];
                for i in 0..points.len() {
                    let one = PointMatrix::from_flat(points.row(i).to_vec(), d).unwrap();
                    let stats = assert_warm_matches(&one, &centers, &hints[i..i + 1]);
                    if stats.distance_computations == 1 {
                        certified += 1;
                    } else {
                        refused += 1;
                    }
                }
            }
        }
    }
    assert!(
        certified > 0 && refused > 0,
        "midpoints must straddle the certificate: {certified} certified, {refused} refused"
    );
}

/// Duplicate centers have zero separation and must never certify: a
/// point hinted at a higher-index copy still ends at the lowest-index
/// copy, whatever the hint.
#[test]
fn warm_sweep_never_certifies_duplicate_centers() {
    let mut rng = kmeans_util::Rng::new(3);
    let d = 3;
    let mut centers = PointMatrix::new(d);
    let mut base = Vec::new();
    for _ in 0..5 {
        let row: Vec<f64> = (0..d).map(|_| rng.normal() * 50.0).collect();
        base.push(row);
    }
    // Every base center three times, interleaved so copies sit at
    // scattered indices.
    for _ in 0..3 {
        for row in &base {
            centers.push(row).unwrap();
        }
    }
    let mut points = PointMatrix::new(d);
    for row in &base {
        points.push(row).unwrap(); // exactly on the copies (d² = 0)
        let near: Vec<f64> = row.iter().map(|v| v + 0.01).collect();
        points.push(&near).unwrap();
    }
    let k = centers.len() as u32;
    for copy in 0..3u32 {
        let hints: Vec<u32> = (0..points.len() as u32)
            .map(|i| (i / 2) + copy * (k / 3))
            .collect();
        let stats = assert_warm_matches(&points, &centers, &hints);
        assert!(
            stats.distance_computations > points.len() as u64,
            "a duplicate center certified: {stats:?}"
        );
    }
}

/// Warm counters are a pure function of each row and its hint: the same
/// whole-range and split-range, and the same in-memory and chunked for
/// every block size and thread count. The hints are a real previous
/// pass's labels (against perturbed centers), so some rows move.
#[test]
fn warm_stats_match_across_groupings_and_backends() {
    let mut rng = kmeans_util::Rng::new(17);
    let d = 6;
    let mut points = PointMatrix::new(d);
    let mut centers = PointMatrix::new(d);
    let mut previous = PointMatrix::new(d);
    for _ in 0..20 {
        let c: Vec<f64> = (0..d).map(|_| rng.normal() * 30.0).collect();
        let p: Vec<f64> = c.iter().map(|v| v + rng.normal() * 8.0).collect();
        centers.push(&c).unwrap();
        previous.push(&p).unwrap();
    }
    for i in 0..400 {
        let c = centers.row(i % 20).to_vec();
        let row: Vec<f64> = c.iter().map(|v| v + rng.normal() * 15.0).collect();
        points.push(&row).unwrap();
    }
    let (hints, _) = scalar_assign(&points, &previous);
    let (now, _) = scalar_assign(&points, &centers);
    assert!(hints != now, "some rows must change cluster");
    assert_warm_matches(&points, &centers, &hints);

    let kernel = AssignKernel::new(&centers);
    let n = points.len();
    let mut labels = vec![0u32; n];
    let mut d2 = vec![0.0f64; n];
    let whole = kernel.assign_warm(&points, 0..n, Some(&hints), &mut labels, &mut d2);
    let mut pieced = KernelStats::default();
    for (start, end) in [(0usize, 1usize), (1, 77), (77, 260), (260, n)] {
        pieced.absorb(kernel.assign_warm(
            &points,
            start..end,
            Some(&hints[start..end]),
            &mut labels[start..end],
            &mut d2[start..end],
        ));
    }
    assert_eq!(whole, pieced, "row grouping changed the warm counters");
    let cold = kernel.assign(&points, 0..n, &mut labels, &mut d2);
    assert!(
        whole.distance_computations < cold.distance_computations,
        "warm {whole:?} vs cold {cold:?}"
    );

    let exec = Executor::sequential().with_shard_size(32);
    let (ref_labels, ref_sums) =
        assign_and_fold(LocalData::from(&points), &centers, &exec, Some(&hints));
    assert_eq!(ref_labels, now);
    assert_eq!(ref_sums.stats, whole);
    for block_rows in [1usize, 7, 64, 400] {
        for threads in [1usize, 3] {
            let exec = if threads == 1 {
                Executor::sequential().with_shard_size(32)
            } else {
                Executor::new(kmeans_par::Parallelism::Threads(threads)).with_shard_size(32)
            };
            let (labels, sums) =
                assign_and_fold(LocalData::from(&points), &centers, &exec, Some(&hints));
            assert_eq!(labels, ref_labels, "threads {threads}");
            assert_eq!(sums.stats, ref_sums.stats, "in-memory threads {threads}");
            let source = InMemorySource::new(points.clone(), block_rows).unwrap();
            let data = LocalData::Blocks(&source);
            let (labels, partials, stats) =
                assign_partials(data, &centers, &exec, 0, n, Some(&hints)).unwrap();
            assert_eq!(
                labels, ref_labels,
                "block_rows {block_rows} threads {threads}"
            );
            assert_eq!(
                stats, ref_sums.stats,
                "warm kernel stats diverged: block_rows {block_rows} threads {threads}"
            );
            let sums = fold_accum_shards(centers.len(), d, &partials);
            assert_eq!(sums.cost.to_bits(), ref_sums.cost.to_bits());
        }
    }
}

/// Adversarial pruning safety: centers placed within a few ulps of the
/// best distance, including exact duplicates at distance 0, in the 1-D
/// and 2-D geometries where the coordinate/norm bounds are *tight* (the
/// bound equals the distance up to rounding, so an unsound margin would
/// flip winners here first).
#[test]
fn pruning_never_skips_ulp_near_winners() {
    let mut rng = kmeans_util::Rng::new(42);
    for d in [1usize, 2] {
        for case in 0..200u64 {
            let a = 1.0 + (case as f64) * 0.125;
            let r = 0.5 + (case as f64 % 7.0) * 0.25;
            let mut centers = PointMatrix::new(d);
            // A ladder of centers at distance r from the query, each a
            // few ulps apart, on both sides, in scrambled index order —
            // plus exact duplicates of the query itself for distance-0
            // ties.
            let mut values = Vec::new();
            for ulps in 0..6 {
                let mut lo = a - r;
                let mut hi = a + r;
                for _ in 0..ulps {
                    lo = lo.next_up();
                    hi = hi.next_down();
                }
                values.push(lo);
                values.push(hi);
            }
            if case % 3 == 0 {
                values.push(a); // exact duplicate (distance 0)
                values.push(a);
            }
            // Scramble so low/high indices interleave across near-ties.
            for i in (1..values.len()).rev() {
                values.swap(i, rng.range_usize(i + 1));
            }
            for &v in &values {
                let mut row = vec![v; d];
                if d > 1 {
                    row[1] = a; // distance concentrated in coordinate 0
                }
                centers.push(&row).unwrap();
            }
            let query = PointMatrix::from_flat(vec![a; d], d).unwrap();
            assert_assign_matches(&query, &centers);
        }
    }
}

/// The kernel's work counters are identical however the rows are grouped
/// — and identical between the in-memory and chunked assignment passes,
/// for any block size and thread count.
#[test]
fn stats_match_across_in_memory_and_chunked_paths() {
    let mut rng = kmeans_util::Rng::new(7);
    let mut points = PointMatrix::new(5);
    for _ in 0..300 {
        let row: Vec<f64> = (0..5).map(|_| rng.normal() * 20.0).collect();
        points.push(&row).unwrap();
    }
    let mut centers = PointMatrix::new(5);
    for _ in 0..24 {
        let row: Vec<f64> = (0..5).map(|_| rng.normal() * 20.0).collect();
        centers.push(&row).unwrap();
    }
    let exec = Executor::sequential().with_shard_size(32);
    let (ref_labels, ref_sums) = assign_and_fold(LocalData::from(&points), &centers, &exec, None);
    assert!(
        ref_sums.stats.pruned_by_norm_bound > 0,
        "workload must exercise pruning: {:?}",
        ref_sums.stats
    );
    for block_rows in [1usize, 7, 64, 300] {
        for threads in [1usize, 3] {
            let exec = if threads == 1 {
                Executor::sequential().with_shard_size(32)
            } else {
                Executor::new(kmeans_par::Parallelism::Threads(threads)).with_shard_size(32)
            };
            let source = InMemorySource::new(points.clone(), block_rows).unwrap();
            let (labels, sums) = assign_and_fold(LocalData::Blocks(&source), &centers, &exec, None);
            assert_eq!(
                labels, ref_labels,
                "block_rows {block_rows} threads {threads}"
            );
            assert_eq!(
                sums.stats, ref_sums.stats,
                "kernel stats diverged: block_rows {block_rows} threads {threads}"
            );
            assert_eq!(sums.cost.to_bits(), ref_sums.cost.to_bits());
        }
    }
}

/// d == 1 exercises the degenerate secondary feature (inert), and the
/// unroll-tail paths of the canonical distance.
#[test]
fn tiny_dimensions_and_counts() {
    for d in 1..5usize {
        for k in 1..12usize {
            let mut rng = kmeans_util::Rng::new((d * 31 + k) as u64);
            let mut points = PointMatrix::new(d);
            for _ in 0..17 {
                let row: Vec<f64> = (0..d).map(|_| rng.normal()).collect();
                points.push(&row).unwrap();
            }
            let mut centers = PointMatrix::new(d);
            for _ in 0..k {
                let row: Vec<f64> = (0..d).map(|_| rng.normal()).collect();
                centers.push(&row).unwrap();
            }
            assert_assign_matches(&points, &centers);
        }
    }
}

/// The update under test against the scalar suffix scan: same labels and
/// `d²` bits, every pair computed or pruned exactly once.
fn assert_update_matches(
    points: &PointMatrix,
    centers: &PointMatrix,
    from: usize,
    labels: &mut [u32],
    d2: &mut [f64],
) -> KernelStats {
    let (mut ref_labels, mut ref_d2) = (labels.to_vec(), d2.to_vec());
    scalar_update(points, centers, from, &mut ref_labels, &mut ref_d2);
    let n = points.len();
    let stats = AssignKernel::suffix(centers, from).update(points, 0..n, labels, d2);
    assert_eq!(
        labels,
        &ref_labels[..],
        "update labels diverged (from {from})"
    );
    let bits: Vec<u64> = d2.iter().map(|v| v.to_bits()).collect();
    let ref_bits: Vec<u64> = ref_d2.iter().map(|v| v.to_bits()).collect();
    assert_eq!(bits, ref_bits, "update d2 bits diverged (from {from})");
    assert_eq!(
        stats.distance_computations + stats.pruned_by_norm_bound,
        (n * (centers.len() - from.min(centers.len()))) as u64,
        "every pair must be computed or pruned exactly once"
    );
    stats
}

/// The first `len` centers as a matrix of their own.
fn prefix(centers: &PointMatrix, len: usize) -> PointMatrix {
    PointMatrix::from_flat(
        centers.as_slice()[..len * centers.dim()].to_vec(),
        centers.dim(),
    )
    .unwrap()
}

/// A k-means||-shaped tracker run: points, the first center set, and 2–5
/// later rounds of new centers. New centers are fresh draws, copies of
/// data rows, copies of earlier centers (a point tracked at the copied
/// center sees an exact tie with its carried best, which must not
/// replace it) and copies within the round (zero separation).
fn tracker_workloads() -> impl Strategy<Value = (PointMatrix, PointMatrix, Vec<usize>)> {
    (1usize..40, 1usize..8, 1usize..12, 0u64..1 << 20).prop_map(|(n, d, first, salt)| {
        let mut rng = kmeans_util::Rng::new(salt);
        let rounds: Vec<usize> = (0..2 + rng.range_usize(4))
            .map(|_| 1 + rng.range_usize(19))
            .collect();
        let draw = |rng: &mut kmeans_util::Rng| -> Vec<f64> {
            (0..d).map(|_| (rng.normal() * 8.0).round() / 4.0).collect()
        };
        let mut points = PointMatrix::new(d);
        for _ in 0..n {
            let row = draw(&mut rng);
            points.push(&row).unwrap();
        }
        let mut centers = PointMatrix::new(d);
        let mut splits = Vec::new();
        for (r, &size) in std::iter::once(&first).chain(&rounds).enumerate() {
            let start = centers.len();
            for _ in 0..size {
                let row = match rng.range_usize(5) {
                    0 if r > 0 => centers.row(rng.range_usize(start)).to_vec(),
                    1 => points.row(rng.range_usize(n)).to_vec(),
                    2 if centers.len() > start => centers
                        .row(start + rng.range_usize(centers.len() - start))
                        .to_vec(),
                    _ => draw(&mut rng),
                };
                centers.push(&row).unwrap();
            }
            splits.push(centers.len());
        }
        (points, centers, splits)
    })
}

/// Runs a tracker over `splits` (prefix assign, then one update per
/// later split) with every update checked against the scalar scan.
fn check_tracker_rounds(points: &PointMatrix, centers: &PointMatrix, splits: &[usize]) {
    let (mut labels, mut d2) = scalar_assign(points, &prefix(centers, splits[0]));
    for w in splits.windows(2) {
        let sub = prefix(centers, w[1]);
        assert_update_matches(points, &sub, w[0], &mut labels, &mut d2);
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn multi_round_updates_are_bit_identical(
        (points, centers, splits) in tracker_workloads(),
    ) {
        check_tracker_rounds(&points, &centers, &splits);
    }

    #[test]
    fn multi_round_updates_keep_parity_on_non_finite_coordinates(
        (mut points, mut centers, splits) in tracker_workloads(),
        poison in 0u64..1 << 16,
    ) {
        // NaN/±∞ in one point and one center — the center in the first
        // set, a later round, or the last one, depending on the case.
        let specials = [f64::NAN, f64::INFINITY, f64::NEG_INFINITY];
        let pd = points.dim();
        let slot = (poison as usize) % (points.len() * pd);
        points.row_mut(slot / pd)[slot % pd] = specials[(poison as usize) % 3];
        let cd = centers.dim();
        let slot = (poison as usize / 3) % (centers.len() * cd);
        centers.row_mut(slot / cd)[slot % cd] = specials[(poison as usize / 7) % 3];
        check_tracker_rounds(&points, &centers, &splits);
    }
}

/// The cross-list certificate's boundary, `4·D_a = S_ac`: a point at
/// distance `r` from its tracked earlier center `a`, with a new center `c`
/// at `2r` scaled by a ladder of factors — a few ulps either side of the
/// exact midpoint tie (where the certificate must refuse) out to
/// `1 ± 1e-12` (where it may fire). `c` sits on either side of `a` along
/// the sort key, and `a` is either earlier center, so both index orders
/// of the sorted walk and of the earlier set are covered; far new centers
/// keep the pruned sweep on.
#[test]
fn cross_certificate_is_exact_around_half_separation() {
    let mut factors = vec![1.0f64];
    let (mut up, mut down) = (1.0f64, 1.0f64);
    for _ in 0..6 {
        up = up.next_up();
        down = down.next_down();
        factors.push(up);
        factors.push(down);
    }
    for rel in [1e-15, 1e-14, 1e-13, 1e-12, 1e-9] {
        factors.push(1.0 + rel);
        factors.push(1.0 - rel);
    }
    let mut certified = 0u64;
    let mut refused = 0u64;
    for d in [1usize, 2, 5] {
        for (case, &r) in [0.75f64, 1.0, 3.1, 1e-3, 4.5e7].iter().enumerate() {
            for &f in &factors {
                for side in [1.0f64, -1.0] {
                    for a_first in [true, false] {
                        let shared: Vec<f64> = (0..d).map(|j| 0.25 * j as f64).collect();
                        let (mut a, mut c, mut x) = (shared.clone(), shared.clone(), shared);
                        a[0] = 10.0 * case as f64;
                        c[0] = a[0] + side * 2.0 * r * f;
                        x[0] = a[0] + side * r;
                        let mut far_earlier = vec![0.0; d];
                        far_earlier[0] = a[0] + 1e4 * r;
                        let mut centers = PointMatrix::new(d);
                        if a_first {
                            centers.push(&a).unwrap();
                            centers.push(&far_earlier).unwrap();
                        } else {
                            centers.push(&far_earlier).unwrap();
                            centers.push(&a).unwrap();
                        }
                        centers.push(&c).unwrap();
                        for i in 0..8 {
                            let mut far = vec![0.0; d];
                            far[0] = a[0] - side * 100.0 * r * (i + 1) as f64;
                            centers.push(&far).unwrap();
                        }
                        let query = PointMatrix::from_flat(x, d).unwrap();
                        let (mut labels, mut d2) = scalar_assign(&query, &prefix(&centers, 2));
                        assert_eq!(labels[0], u32::from(!a_first), "tracked at a");
                        let stats =
                            assert_update_matches(&query, &centers, 2, &mut labels, &mut d2);
                        if stats.distance_computations == 0 {
                            certified += 1;
                        } else {
                            refused += 1;
                        }
                    }
                }
            }
        }
    }
    assert!(
        certified > 0 && refused > 0,
        "the ladder must straddle the certificate: {certified} certified, {refused} refused"
    );
}

/// The same boundary in general position, where every coordinate adds
/// rounding: points on the segment from a tracked earlier center `a` to a
/// new center `c`, at and a hair either side of the midpoint (where
/// `D_a` and `D_c` tie up to rounding and `4·D_a ≈ S_ac`). Without the
/// certificate's slack, rounding alone certifies `a` for some of the
/// midpoints whose canonical `D_c` is the smaller one.
#[test]
fn cross_certificate_is_exact_at_midpoints_in_general_position() {
    let mut rng = kmeans_util::Rng::new(31);
    let mut certified = 0u64;
    let mut refused = 0u64;
    for d in [3usize, 16, 42] {
        for _ in 0..60 {
            let a: Vec<f64> = (0..d).map(|_| rng.normal() * 10.0).collect();
            let c: Vec<f64> = a.iter().map(|v| v + rng.normal()).collect();
            let mut centers = PointMatrix::new(d);
            centers.push(&a).unwrap();
            centers.push(&c).unwrap();
            for i in 0..8 {
                let far: Vec<f64> = a.iter().map(|v| v + 1e3 * (i + 1) as f64).collect();
                centers.push(&far).unwrap();
            }
            for t in [0.5, 0.5 + 1e-15, 0.5 - 1e-15, 0.5 - 1e-12, 0.45] {
                let row: Vec<f64> = a.iter().zip(&c).map(|(x, y)| x + t * (y - x)).collect();
                let query = PointMatrix::from_flat(row, d).unwrap();
                let (mut labels, mut d2) = scalar_assign(&query, &prefix(&centers, 1));
                let stats = assert_update_matches(&query, &centers, 1, &mut labels, &mut d2);
                if stats.distance_computations == 0 {
                    certified += 1;
                } else {
                    refused += 1;
                }
            }
        }
    }
    assert!(
        certified > 0 && refused > 0,
        "midpoints must straddle the certificate: {certified} certified, {refused} refused"
    );
}

/// Carried state that makes no promise — labels `≥ from` (suffix indices
/// and `u32::MAX`) and non-finite carried `d²` — takes the seed search
/// and walk: results match the scalar scan, and an untracked row costs
/// exactly what it costs with a `u32::MAX` label.
#[test]
fn untracked_carried_state_takes_the_walk() {
    // A k-means||-shaped round: the earlier centers already cover every
    // blob, and the new ones are data rows.
    let mut rng = kmeans_util::Rng::new(13);
    let d = 4;
    let mut points = PointMatrix::new(d);
    let mut centers = PointMatrix::new(d);
    for _ in 0..24 {
        let c: Vec<f64> = (0..d).map(|_| rng.normal() * 20.0).collect();
        centers.push(&c).unwrap();
    }
    for i in 0..300 {
        let c = centers.row(i % 24).to_vec();
        let row: Vec<f64> = c.iter().map(|v| v + rng.normal() * 3.0).collect();
        points.push(&row).unwrap();
    }
    for _ in 0..20 {
        centers.push(points.row(rng.range_usize(300))).unwrap();
    }
    let (from, k, n) = (24usize, centers.len(), points.len());
    let (tracked_labels, tracked_d2) = scalar_assign(&points, &prefix(&centers, from));

    let mut labels = tracked_labels.clone();
    let mut d2 = tracked_d2.clone();
    let tracked = assert_update_matches(&points, &centers, from, &mut labels, &mut d2);

    let mut d2 = tracked_d2.clone();
    let mut labels = vec![u32::MAX; n];
    let untracked = assert_update_matches(&points, &centers, from, &mut labels, &mut d2);
    assert!(
        tracked.distance_computations < untracked.distance_computations,
        "tracked {tracked:?} vs untracked {untracked:?}"
    );
    for label in [from as u32, (k - 1) as u32, k as u32, u32::MAX - 1] {
        let mut labels = vec![label; n];
        let mut d2 = tracked_d2.clone();
        let stats = assert_update_matches(&points, &centers, from, &mut labels, &mut d2);
        assert_eq!(stats, untracked, "label {label} must take the walk");
    }
    for carried in [f64::INFINITY, f64::NAN] {
        let fresh = |labels: Vec<u32>| {
            let mut labels = labels;
            let mut d2 = vec![carried; n];
            assert_update_matches(&points, &centers, from, &mut labels, &mut d2)
        };
        assert_eq!(
            fresh(tracked_labels.clone()),
            fresh(vec![u32::MAX; n]),
            "carried d² {carried} must take the walk"
        );
    }
}

/// Update counters are a pure function of each row and its carried
/// state: the same whole-range and split-range; and the in-memory and
/// chunked trackers agree bit for bit on `d²` and nearest ids after
/// every round, for every block size and thread count.
#[test]
fn update_stats_and_trackers_match_across_groupings_and_backends() {
    use kmeans_core::cost::CostTracker;
    let mut rng = kmeans_util::Rng::new(23);
    let d = 5;
    let mut points = PointMatrix::new(d);
    let mut blobs = Vec::new();
    for _ in 0..30 {
        blobs.push((0..d).map(|_| rng.normal() * 25.0).collect::<Vec<f64>>());
    }
    for i in 0..500 {
        let row: Vec<f64> = blobs[i % 30]
            .iter()
            .map(|v| v + rng.normal() * 4.0)
            .collect();
        points.push(&row).unwrap();
    }
    // Rounds of candidates drawn from the data, like k-means||.
    let mut centers = PointMatrix::new(d);
    let mut splits = vec![1usize];
    centers.push(points.row(0)).unwrap();
    for size in [20usize, 25, 3, 30] {
        for _ in 0..size {
            centers
                .push(points.row(rng.range_usize(points.len())))
                .unwrap();
        }
        splits.push(centers.len());
    }
    let n = points.len();

    let (mut labels, mut d2) = scalar_assign(&points, &prefix(&centers, 1));
    for w in splits.windows(2) {
        let sub = prefix(&centers, w[1]);
        let kernel = AssignKernel::suffix(&sub, w[0]);
        let (mut l2, mut dd2) = (labels.clone(), d2.clone());
        let whole = assert_update_matches(&points, &sub, w[0], &mut labels, &mut d2);
        let mut pieced = KernelStats::default();
        for (start, end) in [(0usize, 1usize), (1, 77), (77, 260), (260, n)] {
            pieced.absorb(kernel.update(
                &points,
                start..end,
                &mut l2[start..end],
                &mut dd2[start..end],
            ));
        }
        assert_eq!(whole, pieced, "row grouping changed the update counters");
        assert_eq!(l2, labels);
    }

    let seq = Executor::sequential().with_shard_size(32);
    let mut reference = CostTracker::new(&points, &prefix(&centers, 1), &seq).unwrap();
    for w in splits.windows(2) {
        reference
            .update(&points, &prefix(&centers, w[1]), w[0], &seq)
            .unwrap();
    }
    assert_eq!(reference.nearest_ids(), &labels[..]);
    let ref_bits: Vec<u64> = reference.d2().iter().map(|v| v.to_bits()).collect();
    for block_rows in [1usize, 7, 64] {
        for threads in [1usize, 3] {
            let exec = if threads == 1 {
                Executor::sequential().with_shard_size(32)
            } else {
                Executor::new(kmeans_par::Parallelism::Threads(threads)).with_shard_size(32)
            };
            let what = format!("block_rows {block_rows} threads {threads}");
            let mut mem = CostTracker::new(&points, &prefix(&centers, 1), &exec).unwrap();
            let source = InMemorySource::new(points.clone(), block_rows).unwrap();
            let blocks = LocalData::Blocks(&source);
            let mut chunked = CostTracker::new(blocks, &prefix(&centers, 1), &exec).unwrap();
            for w in splits.windows(2) {
                let sub = prefix(&centers, w[1]);
                mem.update(&points, &sub, w[0], &exec).unwrap();
                chunked.update(blocks, &sub, w[0], &exec).unwrap();
                let mem_bits: Vec<u64> = mem.d2().iter().map(|v| v.to_bits()).collect();
                let chunked_bits: Vec<u64> = chunked.d2().iter().map(|v| v.to_bits()).collect();
                assert_eq!(mem_bits, chunked_bits, "{what}");
                assert_eq!(mem.nearest_ids(), chunked.nearest_ids(), "{what}");
            }
            let bits: Vec<u64> = mem.d2().iter().map(|v| v.to_bits()).collect();
            assert_eq!(bits, ref_bits, "{what}");
            assert_eq!(mem.nearest_ids(), reference.nearest_ids(), "{what}");
        }
    }
}

/// Hundreds of candidates in enough dimensions that the sort key spreads
/// them poorly, so list-building walks reach far: cold, warm and
/// multi-round update sweeps all stay exact, and a kernel without lists
/// (the mini-batch step's) returns the same bits.
#[test]
fn large_candidate_sets_stay_exact() {
    let mut rng = kmeans_util::Rng::new(41);
    let d = 12;
    let draw = |rng: &mut kmeans_util::Rng, scale: f64| -> Vec<f64> {
        (0..d).map(|_| rng.normal() * scale).collect()
    };
    let mut centers = PointMatrix::new(d);
    for _ in 0..300 {
        let row = draw(&mut rng, 1.0);
        centers.push(&row).unwrap();
    }
    let mut points = PointMatrix::new(d);
    for i in 0..600 {
        let base = centers.row(i % 300).to_vec();
        let row: Vec<f64> = base.iter().map(|v| v + rng.normal() * 0.3).collect();
        points.push(&row).unwrap();
    }
    let cold = assert_assign_matches(&points, &centers);
    let n = points.len();
    let (mut labels, mut d2) = (vec![0u32; n], vec![0.0f64; n]);
    AssignKernel::without_lists(&centers).assign(&points, 0..n, &mut labels, &mut d2);
    let (ref_labels, ref_d2) = scalar_assign(&points, &centers);
    assert_eq!(labels, ref_labels, "list-free kernel diverged");
    let bits: Vec<u64> = d2.iter().map(|v| v.to_bits()).collect();
    let ref_bits: Vec<u64> = ref_d2.iter().map(|v| v.to_bits()).collect();
    assert_eq!(bits, ref_bits, "list-free kernel d2 diverged");
    let mut previous = PointMatrix::new(d);
    for c in centers.rows() {
        let row: Vec<f64> = c.iter().map(|v| v + rng.normal() * 0.05).collect();
        previous.push(&row).unwrap();
    }
    let (hints, _) = scalar_assign(&points, &previous);
    let warm = assert_warm_matches(&points, &centers, &hints);
    assert!(warm.distance_computations < cold.distance_computations);
    check_tracker_rounds(&points, &centers, &[1, 100, 180, 300]);
}

/// A run of candidates with near-equal keys that are all far away, and
/// the one close candidate behind them along the key: the list-building
/// walk must pass the whole run to list it, and a tracked point between
/// its center and that candidate must move to it.
#[test]
fn close_candidate_behind_a_run_of_far_ones_wins() {
    let mut centers = PointMatrix::new(2);
    centers.push(&[0.0, 0.0]).unwrap(); // the tracked earlier center
    for i in 0..5 {
        centers.push(&[-1000.0 - i as f64, 100.0]).unwrap();
        centers.push(&[1000.0 + i as f64, 100.0]).unwrap();
    }
    for i in 0..70 {
        centers.push(&[0.01 * i as f64, 100.0]).unwrap(); // far decoys, tiny key gaps
    }
    centers.push(&[1.0, 0.0]).unwrap(); // close, behind the run
    let mut points = PointMatrix::new(2);
    for x in [0.1, 0.4, 0.6, 0.9, 1.2] {
        points.push(&[x, 0.0]).unwrap();
        points.push(&[x, 0.05]).unwrap();
    }
    let (mut labels, mut d2) = scalar_assign(&points, &prefix(&centers, 1));
    assert_update_matches(&points, &centers, 1, &mut labels, &mut d2);
    assert!(
        labels.iter().any(|&l| l as usize == centers.len() - 1),
        "the close candidate must win some points"
    );
    assert_assign_matches(&points, &centers);
}

/// Rows between clusters: `k` centers drawn around the origin, one of
/// them the mean of the first three (so its nearest other centers are
/// close and its rows sit between clusters), and rows around the first
/// three and around the mean at growing spreads, so that many rows reach
/// past the 16-entry prefix of their center's list (and, at k = 40, the
/// widest reach the limits of most other centers, so they walk), plus a
/// few rows far from every center.
fn between_clusters(k: usize, d: usize, salt: u64) -> (PointMatrix, PointMatrix) {
    let mut rng = kmeans_util::Rng::new(salt);
    let mut centers = PointMatrix::new(d);
    for _ in 0..k - 1 {
        let row: Vec<f64> = (0..d).map(|_| rng.normal() * 20.0).collect();
        centers.push(&row).unwrap();
    }
    let mean: Vec<f64> = (0..d)
        .map(|j| (centers.row(0)[j] + centers.row(1)[j] + centers.row(2)[j]) / 3.0)
        .collect();
    centers.push(&mean).unwrap();
    let mut points = PointMatrix::new(d);
    for i in 0..900 {
        let base = match i % 5 {
            0..=2 => centers.row(i % 5).to_vec(),
            _ => mean.clone(),
        };
        let spread = [1.0, 4.0, 9.0, 16.0][i % 4];
        let row: Vec<f64> = base.iter().map(|v| v + rng.normal() * spread).collect();
        points.push(&row).unwrap();
    }
    for i in 0..12 {
        let row: Vec<f64> = (0..d).map(|_| rng.normal() * 400.0 + i as f64).collect();
        points.push(&row).unwrap();
    }
    (points, centers)
}

/// Rows between clusters finish on 64-entry extensions of their center's
/// list, or walk when the extension leaves most candidates to evaluate:
/// cold, warm and update sweeps keep the scalar bits, every pair is
/// computed or pruned once, and the counters are the same across
/// groupings, thread counts, block sizes and backends.
#[test]
fn rows_between_clusters_keep_parity_past_the_eager_lists() {
    for (k, d) in [(40usize, 7usize), (100, 15)] {
        let (points, centers) = between_clusters(k, d, (k * 7 + d) as u64);
        let n = points.len();
        let what = format!("k {k} d {d}");
        let cold = assert_assign_matches(&points, &centers);
        let kernel = AssignKernel::new(&centers);
        let (mut labels, mut d2) = (vec![0u32; n], vec![0.0f64; n]);
        assert_eq!(kernel.assign(&points, 0..n, &mut labels, &mut d2), cold);
        assert!(
            kernel.extended_lists() > 0,
            "{what}: no row reached an extension"
        );
        let (truth, _) = scalar_assign(&points, &centers);
        for kind in 0..5 {
            let hints = draw_hints(&points, &centers, kind, (k + kind) as u64);
            assert_warm_matches(&points, &centers, &hints);
        }
        for from in [1usize, 3, k / 2, k - 1] {
            let (mut labels, mut d2) = scalar_assign(&points, &prefix(&centers, from));
            assert_update_matches(&points, &centers, from, &mut labels, &mut d2);
        }
        check_tracker_rounds(&points, &centers, &[1, 4, k / 3, k - 1, k]);

        // The warm counters of one kernel per row grouping, and of the
        // assignment pass on every backend shape.
        let once = AssignKernel::new(&centers);
        let whole = once.assign_warm(&points, 0..n, Some(&truth), &mut labels, &mut d2);
        let fresh = AssignKernel::new(&centers);
        let mut pieced = KernelStats::default();
        for (start, end) in [(0usize, 1usize), (1, 300), (300, 301), (301, n)] {
            pieced.absorb(fresh.assign_warm(
                &points,
                start..end,
                Some(&truth[start..end]),
                &mut labels[start..end],
                &mut d2[start..end],
            ));
        }
        assert_eq!(whole, pieced, "{what}: row grouping changed the counters");
        assert_eq!(fresh.extended_lists(), once.extended_lists(), "{what}");
        let exec = Executor::sequential().with_shard_size(64);
        let (ref_labels, ref_sums) =
            assign_and_fold(LocalData::from(&points), &centers, &exec, Some(&truth));
        assert_eq!(ref_labels, truth, "{what}");
        assert_eq!(ref_sums.stats, whole, "{what}");
        for block_rows in [1usize, 7, 64, n] {
            for threads in [1usize, 3] {
                let exec = if threads == 1 {
                    Executor::sequential().with_shard_size(64)
                } else {
                    Executor::new(kmeans_par::Parallelism::Threads(threads)).with_shard_size(64)
                };
                let source = InMemorySource::new(points.clone(), block_rows).unwrap();
                for data in [LocalData::from(&points), LocalData::Blocks(&source)] {
                    let (labels, sums) = assign_and_fold(data, &centers, &exec, Some(&truth));
                    let at = format!("{what} block_rows {block_rows} threads {threads}");
                    assert_eq!(labels, ref_labels, "{at}");
                    assert_eq!(sums.stats, ref_sums.stats, "{at}");
                    assert_eq!(sums.cost.to_bits(), ref_sums.cost.to_bits(), "{at}");
                }
            }
        }
    }
}

/// One kernel shared by three threads, each sweeping an interleaved third
/// of the rows, builds the same extensions and counts exactly what a
/// sequential sweep of a fresh kernel counts, with the same bits.
#[test]
fn a_shared_kernel_extends_each_list_once() {
    let (points, centers) = between_clusters(100, 15, 5);
    let n = points.len();
    let (truth, _) = scalar_assign(&points, &centers);
    let sequential = AssignKernel::new(&centers);
    let (mut labels, mut d2) = (vec![0u32; n], vec![0.0f64; n]);
    let mut seq_stats = KernelStats::default();
    for hints in [None, Some(&truth[..])] {
        seq_stats.absorb(sequential.assign_warm(&points, 0..n, hints, &mut labels, &mut d2));
    }
    assert!(
        sequential.extended_lists() > 0,
        "no row reached an extension"
    );

    let shared = AssignKernel::new(&centers);
    let start = std::sync::Barrier::new(3);
    let stats = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..3)
            .map(|t| {
                let (shared, points, truth, start) = (&shared, &points, &truth, &start);
                scope.spawn(move || {
                    // All three race for the first extensions.
                    start.wait();
                    let mut stats = KernelStats::default();
                    for i in (t..n).step_by(3) {
                        let (mut l, mut d) = ([0u32], [0.0f64]);
                        for hints in [None, Some(&truth[i..i + 1])] {
                            stats.absorb(shared.assign_warm(
                                points,
                                i..i + 1,
                                hints,
                                &mut l,
                                &mut d,
                            ));
                            assert_eq!(l[0], truth[i], "row {i}");
                        }
                    }
                    stats
                })
            })
            .collect();
        let mut total = KernelStats::default();
        for h in handles {
            total.absorb(h.join().unwrap());
        }
        total
    });
    assert_eq!(stats, seq_stats, "threads changed the counters");
    assert_eq!(shared.extended_lists(), sequential.extended_lists());
}
