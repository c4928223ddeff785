//! Bounded Lloyd passes against full ones. After its first pass, every
//! Lloyd pass is bounded: it sweeps only the rows its carried bounds
//! cannot settle and re-folds only the clusters whose membership changed
//! in each accumulation shard. This suite drives Lloyd pass by pass
//! beside a reference loop of full passes — `assign_partials` seeded by
//! the previous labels, `fold_accum_shards`, and the driver's centroid
//! update — and requires, on resident rows, on chunked sources whose
//! blocks split accumulation shards or hold several, and on a 2-worker
//! loopback cluster:
//!
//! * every pass's labels, shard sums and counts, and reassigned count to
//!   be the full pass's bits;
//! * `drive_lloyd`'s final centers, labels and cost to be the reference's
//!   bits, with the same iterations and per-pass reassigned and reseeded
//!   counts;
//! * its tracked history costs to stay within 1e-12 relative of the
//!   reference's measured potentials, and never to rise.
//!
//! The grid covers k on both sides of the kernel's 8-candidate list
//! threshold, a trajectory whose second pass empties a cluster (a bounded
//! pass then repeats in full for the reseed), and rows with exact ties,
//! each run to stability and again with a `tol` stop in mid-trajectory,
//! which compares tracked costs where the reference compares measured
//! ones.

use scalable_kmeans::cluster::{spawn_loopback_worker, Cluster, Transport};
use scalable_kmeans::core::assign::ClusterSums;
use scalable_kmeans::core::chunked::{assign_partials, fold_accum_shards, AccumShard, LocalData};
use scalable_kmeans::core::driver::{drive_lloyd, LabelFetch, LocalBackend, RoundBackend};
use scalable_kmeans::core::lloyd::{LloydConfig, LloydResult};
use scalable_kmeans::data::synth::GaussMixture;
use scalable_kmeans::data::{InMemorySource, PointMatrix};
use scalable_kmeans::par::{Executor, Parallelism};

/// Executor shard size: with n ≤ 8,192 the accumulation shards are
/// `n.div_ceil(64)` rounded up to a multiple of 64 rows.
const SHARD: usize = 64;

/// One full pass of the reference loop.
struct FullPass {
    labels: Vec<u32>,
    shards: Vec<AccumShard>,
    reassigned: u64,
    sums: ClusterSums,
}

/// The reference: Lloyd from `init` on full passes alone, with
/// `drive_lloyd`'s stop rules on the measured costs.
struct Reference {
    passes: Vec<FullPass>,
    /// The centers each pass ran at.
    centers: Vec<PointMatrix>,
    reseeded: Vec<usize>,
    result: (PointMatrix, Vec<u32>, f64),
}

/// The driver's centroid update: each non-empty cluster's mean, each
/// empty one the farthest remaining shard maximum (largest `d²` first,
/// ties to the lower row).
fn update(centers: &PointMatrix, sums: &ClusterSums, points: &PointMatrix) -> (PointMatrix, usize) {
    let d = centers.dim();
    let mut next = centers.clone();
    let mut farthest = sums.farthest.clone();
    farthest.sort_by(|a, b| b.1.partial_cmp(&a.1).unwrap().then(a.0.cmp(&b.0)));
    let mut far = farthest.into_iter();
    let mut reseeded = 0;
    for c in 0..centers.len() {
        if let Some(centroid) = sums.centroid(c, d) {
            next.row_mut(c).copy_from_slice(&centroid);
        } else if let Some((i, _)) = far.next() {
            next.row_mut(c).copy_from_slice(points.row(i));
            reseeded += 1;
        }
    }
    (next, reseeded)
}

fn reference(points: &PointMatrix, init: &PointMatrix, exec: &Executor, tol: f64) -> Reference {
    let (n, k, d) = (points.len(), init.len(), points.dim());
    let data = LocalData::from(points);
    let mut centers = init.clone();
    let mut out = Reference {
        passes: Vec::new(),
        centers: Vec::new(),
        reseeded: Vec::new(),
        result: (init.clone(), Vec::new(), 0.0),
    };
    let mut prev_cost = f64::INFINITY;
    for _ in 0..LloydConfig::default().max_iterations {
        let prev = out.passes.last().map(|p| p.labels.as_slice());
        let (labels, shards, _) = assign_partials(data, &centers, exec, 0, n, prev).unwrap();
        let reassigned = match prev {
            None => n as u64,
            Some(prev) => prev.iter().zip(&labels).filter(|(a, b)| a != b).count() as u64,
        };
        let sums = fold_accum_shards(k, d, &shards);
        out.centers.push(centers.clone());
        let mut stop = reassigned == 0;
        if !stop {
            let (next, reseeded) = update(&centers, &sums, points);
            centers = next;
            out.reseeded.push(reseeded);
            stop = tol > 0.0
                && prev_cost.is_finite()
                && reseeded == 0
                && prev_cost - sums.cost <= tol * prev_cost;
        } else {
            out.reseeded.push(0);
        }
        prev_cost = sums.cost;
        out.passes.push(FullPass {
            labels,
            shards,
            reassigned,
            sums,
        });
        if stop {
            break;
        }
    }
    let prev = out.passes.last().map(|p| p.labels.as_slice());
    let (labels, shards, _) = assign_partials(data, &centers, exec, 0, n, prev).unwrap();
    let cost = fold_accum_shards(k, d, &shards).cost;
    out.result = (centers, labels, cost);
    out
}

fn bits(v: &[f64]) -> Vec<u64> {
    v.iter().map(|x| x.to_bits()).collect()
}

/// Lloyd's pass kinds: a full first pass, bounded ones after it.
fn kind(t: usize) -> LabelFetch {
    if t == 0 {
        LabelFetch::Skip
    } else {
        LabelFetch::Bounded
    }
}

/// Runs `part`'s passes at the reference's centers, as Lloyd asks for
/// them, and checks every pass's labels, per-shard sums and counts, and
/// reassigned count against the full pass's.
fn lockstep_part(part: &mut LocalBackend<'_>, reference: &Reference, what: &str) {
    for (t, (full, centers)) in reference.passes.iter().zip(&reference.centers).enumerate() {
        let got = part.assign_part(centers, kind(t)).unwrap();
        assert_eq!(
            got.reassigned, full.reassigned,
            "{what}, pass {t}: reassigned"
        );
        assert_eq!(
            part.labels().unwrap(),
            &full.labels[..],
            "{what}, pass {t}: labels"
        );
        assert_eq!(
            got.shards.len(),
            full.shards.len(),
            "{what}, pass {t}: shards"
        );
        for (s, (a, b)) in got.shards.iter().zip(&full.shards).enumerate() {
            assert_eq!(
                bits(&a.sums),
                bits(&b.sums),
                "{what}, pass {t}, shard {s}: sums"
            );
            assert_eq!(a.counts, b.counts, "{what}, pass {t}, shard {s}: counts");
        }
    }
}

/// The same through [`RoundBackend::assign`]: the folded sums and counts
/// and the reassigned count of every pass.
fn lockstep(backend: &mut dyn RoundBackend, reference: &Reference, what: &str) {
    for (t, (full, centers)) in reference.passes.iter().zip(&reference.centers).enumerate() {
        let (reassigned, sums, labels) = backend.assign(centers, kind(t)).unwrap();
        assert!(labels.is_none(), "{what}, pass {t}: a pass shipped labels");
        assert_eq!(reassigned, full.reassigned, "{what}, pass {t}: reassigned");
        assert_eq!(
            bits(&sums.sums),
            bits(&full.sums.sums),
            "{what}, pass {t}: sums"
        );
        assert_eq!(sums.counts, full.sums.counts, "{what}, pass {t}: counts");
    }
}

/// `drive_lloyd`'s result against the reference.
fn check_fit(got: &LloydResult, reference: &Reference, what: &str) {
    let (centers, labels, cost) = &reference.result;
    assert_eq!(&got.centers, centers, "{what}: centers");
    assert_eq!(&got.labels, labels, "{what}: labels");
    assert_eq!(got.cost.to_bits(), cost.to_bits(), "{what}: cost");
    assert_eq!(got.iterations, reference.passes.len(), "{what}: iterations");
    for (t, (h, full)) in got.history.iter().zip(&reference.passes).enumerate() {
        assert_eq!(
            h.reassigned, full.reassigned,
            "{what}, pass {t}: reassigned"
        );
        assert_eq!(
            h.reseeded, reference.reseeded[t],
            "{what}, pass {t}: reseeded"
        );
        let exact = full.sums.cost;
        assert!(
            (h.cost - exact).abs() <= 1e-12 * exact.abs(),
            "{what}, pass {t}: tracked cost {} vs measured {exact}",
            h.cost
        );
    }
    for (t, w) in got.history.windows(2).enumerate() {
        assert!(
            w[1].cost <= w[0].cost,
            "{what}: cost rose at pass {}: {} → {}",
            t + 1,
            w[0].cost,
            w[1].cost
        );
    }
}

fn slice_rows(points: &PointMatrix, start: usize, rows: usize) -> PointMatrix {
    let dim = points.dim();
    PointMatrix::from_flat(
        points.as_slice()[start * dim..(start + rows) * dim].to_vec(),
        dim,
    )
    .unwrap()
}

type WorkerHandles =
    Vec<std::thread::JoinHandle<Result<(), scalable_kmeans::cluster::ClusterError>>>;

/// Two loopback workers split at an accumulation-shard boundary.
fn two_workers(points: &PointMatrix, exec: &Executor) -> (Cluster, WorkerHandles) {
    two_workers_in_blocks(points, exec, [100, 100])
}

fn shutdown(mut cluster: Cluster, handles: WorkerHandles) {
    cluster.shutdown();
    for h in handles {
        h.join().unwrap().unwrap();
    }
}

/// Every backend shape against the full-pass reference from `init`: run
/// to stability, pass by pass and through `drive_lloyd`, then through
/// `drive_lloyd` with a `tol` that stops the reference in mid-trajectory.
fn check_everywhere(points: &PointMatrix, init: &PointMatrix, what: &str) {
    for parallelism in [Parallelism::Sequential, Parallelism::Threads(3)] {
        let exec = Executor::new(parallelism).with_shard_size(SHARD);
        let stable = reference(points, init, &exec, 0.0);
        assert!(stable.passes.len() >= 2, "{what}: no bounded pass ran");
        check_backends(points, init, &exec, &stable, 0.0, what);
        let tol = mid_trajectory_tol(&stable);
        let stopped = reference(points, init, &exec, tol);
        assert!(
            stopped.passes.len() < stable.passes.len(),
            "{what}: tol {tol:e} stopped nothing early"
        );
        check_backends(
            points,
            init,
            &exec,
            &stopped,
            tol,
            &format!("{what}, tol {tol:e}"),
        );
    }
}

/// A `tol` just above the relative improvement of the middle pass of a
/// stable trajectory: the tol stop then fires at that pass or before,
/// with a margin far wider than the tracked costs' error.
fn mid_trajectory_tol(stable: &Reference) -> f64 {
    let t = (stable.passes.len() / 2).max(1);
    let (before, at) = (stable.passes[t - 1].sums.cost, stable.passes[t].sums.cost);
    (before - at) / before * 1.001
}

/// `drive_lloyd` at `tol` on resident rows, three block shapes and two
/// loopback workers against `reference`; at `tol = 0` also every pass in
/// lockstep.
fn check_backends(
    points: &PointMatrix,
    init: &PointMatrix,
    exec: &Executor,
    reference: &Reference,
    tol: f64,
    what: &str,
) {
    let n = points.len();
    let grid = scalable_kmeans::core::assign::sum_shard_size(exec, n);
    let lockstep_too = tol == 0.0;
    let config = LloydConfig {
        tol,
        ..LloydConfig::default()
    };

    if lockstep_too {
        let mut resident = LocalBackend::in_memory(points, None, exec);
        lockstep_part(&mut resident, reference, &format!("{what}, resident"));
    }
    let got = drive_lloyd(
        &mut LocalBackend::in_memory(points, None, exec),
        init,
        &config,
    );
    check_fit(&got.unwrap(), reference, &format!("{what}, resident"));

    // Blocks that split shards, blocks of whole shards, and blocks
    // holding whole shards and pieces of others.
    for block_rows in [grid / 3 + 1, 4 * grid, 2 * grid + grid / 2] {
        let source = InMemorySource::new(points.clone(), block_rows).unwrap();
        let label = format!("{what}, blocks of {block_rows}");
        if lockstep_too {
            lockstep_part(&mut LocalBackend::chunked(&source, exec), reference, &label);
        }
        let got = drive_lloyd(&mut LocalBackend::chunked(&source, exec), init, &config);
        check_fit(&got.unwrap(), reference, &label);
    }

    let label = format!("{what}, 2 workers");
    if lockstep_too {
        let (mut cluster, handles) = two_workers(points, exec);
        lockstep(&mut cluster, reference, &label);
        shutdown(cluster, handles);
    }
    let (mut cluster, handles) = two_workers(points, exec);
    check_fit(
        &drive_lloyd(&mut cluster, init, &config).unwrap(),
        reference,
        &label,
    );
    shutdown(cluster, handles);
}

/// The first `k` rows of a Gaussian mixture, perturbed, as a start far
/// enough from the fixed point that Lloyd runs several passes.
fn gauss_start(points: &PointMatrix, k: usize) -> PointMatrix {
    let mut init = slice_rows(points, 0, k);
    for c in 0..k {
        for v in init.row_mut(c) {
            *v += 3.0 * ((c % 3) as f64 - 1.0);
        }
    }
    init
}

#[test]
fn bounded_passes_match_full_passes_on_both_sides_of_the_list_threshold() {
    for (k, seed) in [(5usize, 1u64), (12, 2), (40, 3)] {
        let points = GaussMixture::new(k)
            .points(3000)
            .center_variance(20.0)
            .generate(seed)
            .unwrap()
            .dataset
            .into_parts()
            .1;
        check_everywhere(&points, &gauss_start(&points, k), &format!("k = {k}"));
    }
}

/// Rows on a small integer lattice, each twice, from lattice-point
/// centers: many rows sit at exactly equal distances from two centers,
/// so ties decide labels in the first pass and no bound may settle them.
#[test]
fn bounded_passes_match_full_passes_on_exact_ties() {
    let mut points = PointMatrix::new(3);
    for i in 0..1200u32 {
        let row = [(i % 7) as f64, ((i / 7) % 5) as f64, ((i / 35) % 4) as f64];
        points.push(&row).unwrap();
        points.push(&row).unwrap();
    }
    for k in [5usize, 12] {
        let mut init = PointMatrix::new(3);
        for c in 0..k {
            let c = c as f64;
            init.push(&[(c * 3.0) % 7.0, c % 5.0, (c * 2.0) % 4.0])
                .unwrap();
        }
        check_everywhere(&points, &init, &format!("lattice ties, k = {k}"));
    }
}

/// Center 2 first takes the two rows between two blobs; its mean then
/// lands where each blob's center is strictly nearer to them, so the
/// second pass — the first bounded one — leaves it empty, and the driver
/// repeats that pass in full to reseed it at the farthest point. Nine far
/// blobs with a center each put k above the list threshold.
#[test]
fn a_cluster_emptied_by_a_bounded_pass_reseeds_like_a_full_pass() {
    let mut points = PointMatrix::new(2);
    let mut init = PointMatrix::new(2);
    let mut rng = scalable_kmeans::util::Rng::new(9);
    for _ in 0..400 {
        points
            .push(&[0.05 * rng.normal(), 0.05 * rng.normal()])
            .unwrap();
        points
            .push(&[10.0 + 0.05 * rng.normal(), 0.05 * rng.normal()])
            .unwrap();
    }
    points.push(&[2.0, 0.0]).unwrap();
    points.push(&[8.0, 0.0]).unwrap();
    init.push(&[-3.0, 0.0]).unwrap();
    init.push(&[13.0, 0.0]).unwrap();
    init.push(&[5.0, 0.0]).unwrap();
    for b in 0..9 {
        let at = [100.0 * (b + 1) as f64, 50.0];
        for _ in 0..120 {
            points
                .push(&[at[0] + rng.normal(), at[1] + rng.normal()])
                .unwrap();
        }
        init.push(&[at[0] + 2.0, at[1] - 2.0]).unwrap();
    }
    let exec = Executor::sequential().with_shard_size(SHARD);
    let reference = reference(&points, &init, &exec, 0.0);
    assert_eq!(
        reference.passes[1].sums.counts[2], 0,
        "pass 1 must empty center 2"
    );
    assert_eq!(reference.reseeded[1], 1, "pass 1 must reseed");
    check_everywhere(&points, &init, "emptied cluster");
}

/// A bounded pass starts from the bounds of the backend's last pass: a
/// backend with none, or with bounds at another number of centers, or
/// whose last pass was a label-shipping one that freed them, refuses it —
/// locally and on a cluster alike.
#[test]
fn a_bounded_pass_needs_the_bounds_of_a_pass_at_as_many_centers() {
    let points = GaussMixture::new(4)
        .points(600)
        .generate(5)
        .unwrap()
        .dataset
        .into_parts()
        .1;
    let (four, five) = (slice_rows(&points, 0, 4), slice_rows(&points, 0, 5));
    let exec = Executor::sequential().with_shard_size(SHARD);
    let mut part = LocalBackend::in_memory(&points, None, &exec);
    assert!(
        part.assign(&four, LabelFetch::Bounded).is_err(),
        "no pass yet"
    );
    part.assign(&four, LabelFetch::Skip).unwrap();
    assert!(
        part.assign(&five, LabelFetch::Bounded).is_err(),
        "bounds at 4 centers"
    );
    part.assign(&four, LabelFetch::Skip).unwrap();
    part.assign(&four, LabelFetch::Bounded).unwrap();
    part.assign(&four, LabelFetch::Bounded).unwrap();
    part.assign(&four, LabelFetch::Always).unwrap();
    assert!(
        part.assign(&four, LabelFetch::Bounded).is_err(),
        "an Always pass freed the bounds"
    );

    let (mut cluster, handles) = two_workers(&points, &exec);
    assert!(
        cluster.assign(&four, LabelFetch::Bounded).is_err(),
        "no pass yet, 2 workers"
    );
    shutdown(cluster, handles);
}

/// Two loopback workers split at an accumulation-shard boundary, serving
/// their rows in blocks of `blocks[0]` and `blocks[1]` rows.
fn two_workers_in_blocks(
    points: &PointMatrix,
    exec: &Executor,
    blocks: [usize; 2],
) -> (Cluster, WorkerHandles) {
    let grid = scalable_kmeans::core::assign::sum_shard_size(exec, points.len());
    let cut = (points.len() / 2 / grid).max(1) * grid;
    let mut transports: Vec<Box<dyn Transport>> = Vec::new();
    let mut handles = Vec::new();
    for ((start, rows), block_rows) in [(0, cut), (cut, points.len() - cut)]
        .into_iter()
        .zip(blocks)
    {
        let source = InMemorySource::new(slice_rows(points, start, rows), block_rows).unwrap();
        let (transport, handle) = spawn_loopback_worker(source, Parallelism::Sequential);
        transports.push(Box::new(transport));
        handles.push(handle);
    }
    let mut cluster = Cluster::new(transports).unwrap();
    cluster.plan(SHARD).unwrap();
    (cluster, handles)
}

/// Blocks that split accumulation shards, at 1 and 3 threads: every pass
/// in lockstep and `drive_lloyd` from `init`, against the full passes,
/// on blocks of 1 and 7 rows, of half a shard, one row short of a shard
/// and one row past it, on resident rows, and on two loopback workers
/// whose blocks split their shards alike, or differently ("mixed").
/// Where a block edge's fold state — `k·(d+1)` values — fits in the
/// block's rows, a bounded pass re-folds a split shard's dirty clusters
/// from it; otherwise the shard folds in full from that edge on. Both
/// keep the full passes' bits.
fn check_split_shards(points: &PointMatrix, init: &PointMatrix, what: &str) {
    let n = points.len();
    for parallelism in [Parallelism::Sequential, Parallelism::Threads(3)] {
        let exec = Executor::new(parallelism).with_shard_size(SHARD);
        let reference = reference(points, init, &exec, 0.0);
        assert!(reference.passes.len() >= 2, "{what}: no bounded pass ran");
        let grid = scalable_kmeans::core::assign::sum_shard_size(&exec, n);
        let config = LloydConfig::default();
        let label = format!("{what}, {parallelism:?}, resident");
        lockstep_part(
            &mut LocalBackend::in_memory(points, None, &exec),
            &reference,
            &label,
        );
        let sizes = [1, 7, grid / 2, grid - 1, grid + 1];
        for block_rows in sizes {
            let label = format!("{what}, {parallelism:?}, blocks of {block_rows}");
            let source = InMemorySource::new(points.clone(), block_rows).unwrap();
            lockstep_part(
                &mut LocalBackend::chunked(&source, &exec),
                &reference,
                &label,
            );
            let got = drive_lloyd(&mut LocalBackend::chunked(&source, &exec), init, &config);
            check_fit(&got.unwrap(), &reference, &label);
        }
        let mixed = [grid - 1, grid + 1];
        for blocks in sizes.map(|b| [b, b]).into_iter().chain([mixed]) {
            let label = format!("{what}, {parallelism:?}, 2 workers in blocks of {blocks:?}");
            let (mut cluster, handles) = two_workers_in_blocks(points, &exec, blocks);
            lockstep(&mut cluster, &reference, &label);
            shutdown(cluster, handles);
            let (mut cluster, handles) = two_workers_in_blocks(points, &exec, blocks);
            check_fit(
                &drive_lloyd(&mut cluster, init, &config).unwrap(),
                &reference,
                &label,
            );
            shutdown(cluster, handles);
        }
    }
}

/// k = 5 keeps a fold state at every edge of a 32-row or larger block
/// (15 values in 2 dimensions); k = 12 needs 36 rows, so blocks of half
/// a shard fold their split shards in full.
#[test]
fn blocks_that_split_shards_keep_every_pass_bits() {
    for (k, seed) in [(5usize, 4u64), (12, 5)] {
        let points = GaussMixture::new(k)
            .points(1500)
            .center_variance(20.0)
            .generate(seed)
            .unwrap()
            .dataset
            .into_parts()
            .1;
        check_split_shards(&points, &gauss_start(&points, k), &format!("k = {k}"));
    }
}

/// The trajectory of `a_cluster_emptied_by_a_bounded_pass_reseeds_like_a_full_pass`
/// on blocks that split shards: the bounded pass that empties center 2 is
/// repeated in full for the reseed, which records the block edges' fold
/// states anew for the bounded passes after it.
#[test]
fn an_emptied_cluster_repeats_in_full_on_split_shards() {
    let mut points = PointMatrix::new(2);
    let mut init = PointMatrix::new(2);
    let mut rng = scalable_kmeans::util::Rng::new(9);
    for _ in 0..400 {
        points
            .push(&[0.05 * rng.normal(), 0.05 * rng.normal()])
            .unwrap();
        points
            .push(&[10.0 + 0.05 * rng.normal(), 0.05 * rng.normal()])
            .unwrap();
    }
    points.push(&[2.0, 0.0]).unwrap();
    points.push(&[8.0, 0.0]).unwrap();
    init.push(&[-3.0, 0.0]).unwrap();
    init.push(&[13.0, 0.0]).unwrap();
    init.push(&[5.0, 0.0]).unwrap();
    for b in 0..9 {
        let at = [100.0 * (b + 1) as f64, 50.0];
        for _ in 0..120 {
            points
                .push(&[at[0] + rng.normal(), at[1] + rng.normal()])
                .unwrap();
        }
        init.push(&[at[0] + 2.0, at[1] - 2.0]).unwrap();
    }
    let exec = Executor::sequential().with_shard_size(SHARD);
    assert_eq!(
        reference(&points, &init, &exec, 0.0).reseeded[1],
        1,
        "pass 1 must reseed"
    );
    check_split_shards(&points, &init, "emptied cluster");
}

/// Runs the first `count` of `reference`'s passes on `backend`, as Lloyd
/// asks for them.
fn run_passes(backend: &mut dyn RoundBackend, reference: &Reference, count: usize) {
    for (t, centers) in reference.centers.iter().take(count).enumerate() {
        backend.assign(centers, kind(t)).unwrap();
    }
}

/// A closing pass at `centers` on `backend`: its labels and cost must be
/// `full`'s, it ships no sums, counts or farthest points, and it leaves
/// no bounds. Returns its reassigned count.
fn check_closing(
    backend: &mut dyn RoundBackend,
    centers: &PointMatrix,
    full: &(Vec<u32>, f64),
    what: &str,
) -> u64 {
    let (reassigned, sums, labels) = backend.assign(centers, LabelFetch::Always).unwrap();
    assert_eq!(labels.as_deref(), Some(&full.0[..]), "{what}: labels");
    assert_eq!(sums.cost.to_bits(), full.1.to_bits(), "{what}: cost");
    assert!(
        sums.sums.is_empty() && sums.counts.is_empty(),
        "{what}: sums"
    );
    assert!(sums.farthest.is_empty(), "{what}: farthest points");
    assert!(
        backend.assign(centers, LabelFetch::Bounded).is_err(),
        "{what}: the closing pass left bounds"
    );
    reassigned
}

/// The closing pass (`LabelFetch::Always`) is a labels-and-cost pass. At
/// new centers after bounded passes (settling rows on their bounds), at
/// the centers of the last pass (whose labels are final already) and on
/// a backend with no labels, its labels and cost are a full pass's bits —
/// locally, on blocks that split shards, and on two workers.
#[test]
fn the_closing_pass_returns_a_full_pass_labels_and_cost() {
    let k = 12;
    let points = GaussMixture::new(k)
        .points(1500)
        .center_variance(20.0)
        .generate(6)
        .unwrap()
        .dataset
        .into_parts()
        .1;
    let n = points.len();
    let exec = Executor::new(Parallelism::Threads(3)).with_shard_size(SHARD);
    let reference = reference(&points, &gauss_start(&points, k), &exec, 0.0);
    assert!(reference.passes.len() >= 4, "too short a trajectory");
    let full = |centers: &PointMatrix| {
        let data = LocalData::from(&points);
        let (labels, shards, _) = assign_partials(data, centers, &exec, 0, n, None).unwrap();
        (labels, fold_accum_shards(k, points.dim(), &shards).cost)
    };
    let (at3, at1) = (&reference.centers[3], &reference.centers[1]);
    let (full3, full1) = (full(at3), full(at1));
    let check = |backend: &mut dyn RoundBackend, what: &str| {
        run_passes(backend, &reference, 3);
        check_closing(backend, at3, &full3, &format!("{what}, new centers"));
        run_passes(backend, &reference, 4);
        check_closing(
            backend,
            at3,
            &full3,
            &format!("{what}, the last pass's centers"),
        );
        let reassigned = check_closing(backend, at1, &full1, &format!("{what}, no labels"));
        assert_eq!(reassigned, n as u64, "{what}, no labels: reassigned");
    };
    check(
        &mut LocalBackend::in_memory(&points, None, &exec),
        "resident",
    );
    let grid = scalable_kmeans::core::assign::sum_shard_size(&exec, n);
    for block_rows in [7, grid - 1, grid + 1] {
        let source = InMemorySource::new(points.clone(), block_rows).unwrap();
        let what = format!("blocks of {block_rows}");
        check(&mut LocalBackend::chunked(&source, &exec), &what);
    }
    let (mut cluster, handles) = two_workers_in_blocks(&points, &exec, [grid - 1, grid + 1]);
    check(&mut cluster, "2 workers");
    shutdown(cluster, handles);
}
