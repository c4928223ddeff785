//! Backend-equivalence acceptance tests for the round-driver layer: the
//! **same** driver function (`kmeans_core::driver`) executed on a
//! `LocalBackend` over resident rows, one over blocks, and a loopback
//! `Cluster`
//! must produce bit-identical results — over random n/d/k, block sizes,
//! {1, 2, 4} workers, and sequential vs multi-threaded executors —
//! including the newly unlocked distributed mini-batch path and
//! NaN-error parity (the same `NonFiniteData { global point }` from
//! every backend).

use proptest::prelude::*;
use scalable_kmeans::cluster::{spawn_loopback_worker, Cluster, FitDistributed, Transport};
use scalable_kmeans::core::cost::potential;
use scalable_kmeans::core::driver::{
    drive_kmeans_parallel, drive_lloyd, drive_minibatch, drive_random_init, Broadcast, LabelFetch,
    LocalBackend, RoundBackend, TrackerOut, TrackerRead,
};
use scalable_kmeans::core::init::{kmeans_parallel, KMeansParallelConfig, SamplingMode};
use scalable_kmeans::core::lloyd::{lloyd, LloydConfig, LloydResult};
use scalable_kmeans::core::minibatch::{minibatch_kmeans_traced, MiniBatchConfig};
use scalable_kmeans::core::model::KMeans;
use scalable_kmeans::core::pipeline::MiniBatch;
use scalable_kmeans::core::KMeansError;
use scalable_kmeans::data::synth::GaussMixture;
use scalable_kmeans::data::{InMemorySource, PointMatrix};
use scalable_kmeans::par::{Executor, Parallelism};

/// Executor shard size for the whole grid. With n < 1024 the required
/// worker alignment (`sum_shard_size_for`) equals SHARD, so any cut on a
/// 16-row boundary is a valid worker split.
const SHARD: usize = 16;

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

/// Spawns `workers` loopback workers over contiguous, 16-row-aligned
/// slices of `points` and connects them as a cluster.
fn loopback_cluster(
    points: &PointMatrix,
    workers: usize,
    block_rows: usize,
    parallelism: Parallelism,
) -> (Cluster, WorkerHandles) {
    let n = points.len();
    let base = ((n / workers) / SHARD * SHARD).max(SHARD);
    let mut transports: Vec<Box<dyn Transport>> = Vec::new();
    let mut handles = Vec::new();
    for w in 0..workers {
        let start = w * base;
        let rows = if w + 1 == workers { n - start } else { base };
        let source = InMemorySource::new(slice_rows(points, start, rows), block_rows).unwrap();
        let (transport, handle) = spawn_loopback_worker(source, parallelism);
        transports.push(Box::new(transport));
        handles.push(handle);
    }
    (Cluster::new(transports).unwrap(), handles)
}

fn shutdown(mut cluster: Cluster, handles: WorkerHandles) {
    cluster.shutdown();
    for h in handles {
        h.join().unwrap().unwrap();
    }
}

fn gauss(n: usize, d: usize, seed: u64) -> PointMatrix {
    let mut rng = scalable_kmeans::util::Rng::new(seed);
    let mut m = PointMatrix::new(d);
    let mut row = vec![0.0; d];
    for i in 0..n {
        let c = (i % 3) as f64 * 60.0;
        for slot in row.iter_mut() {
            *slot = c + rng.normal() * 2.0;
        }
        m.push(&row).unwrap();
    }
    m
}

fn assert_lloyd_bits(a: &LloydResult, b: &LloydResult, what: &str) {
    assert_eq!(a.centers, b.centers, "{what}: centers");
    assert_eq!(a.labels, b.labels, "{what}: labels");
    assert_eq!(a.cost.to_bits(), b.cost.to_bits(), "{what}: cost");
    assert_eq!(a.iterations, b.iterations, "{what}: iterations");
    assert_eq!(a.assign_passes, b.assign_passes, "{what}: passes");
    assert_eq!(
        a.pruned_by_norm_bound, b.pruned_by_norm_bound,
        "{what}: kernel prune counters"
    );
    for (x, y) in a.history.iter().zip(&b.history) {
        assert_eq!(x.cost.to_bits(), y.cost.to_bits(), "{what}: history cost");
        assert_eq!(x.reassigned, y.reassigned, "{what}: history reassigned");
        assert_eq!(x.reseeded, y.reseeded, "{what}: history reseeded");
    }
}

/// One full seeding + refinement through the drivers on every backend.
fn run_grid_point(
    points: &PointMatrix,
    k: usize,
    seed: u64,
    block_rows: usize,
    parallelism: Parallelism,
    config: &KMeansParallelConfig,
) {
    let exec = Executor::new(parallelism).with_shard_size(SHARD);

    // Reference: the public in-memory entry points (thin wrappers over
    // the drivers on a resident LocalBackend).
    let (ref_centers, ref_stats) = kmeans_parallel(points, k, config, seed, &exec).unwrap();
    let ref_lloyd = lloyd(points, &ref_centers, &LloydConfig::default(), &exec).unwrap();

    // Chunked backend, same drivers.
    let source = InMemorySource::new(points.clone(), block_rows).unwrap();
    let mut chunked = LocalBackend::chunked(&source, &exec);
    let (c_centers, c_stats) = drive_kmeans_parallel(&mut chunked, k, config, seed).unwrap();
    assert_eq!(c_centers, ref_centers, "chunked seeds, blocks {block_rows}");
    assert_eq!(c_stats.candidates, ref_stats.candidates);
    assert_eq!(c_stats.rounds, ref_stats.rounds);
    let c_lloyd = drive_lloyd(&mut chunked, &c_centers, &LloydConfig::default()).unwrap();
    assert_lloyd_bits(
        &c_lloyd,
        &ref_lloyd,
        &format!("chunked, blocks {block_rows}"),
    );

    // Cluster backend over loopback workers, same drivers.
    for workers in [1usize, 2, 4] {
        let (mut cluster, handles) = loopback_cluster(points, workers, block_rows, parallelism);
        cluster.plan(SHARD).unwrap();
        {
            let (d_centers, d_stats) =
                drive_kmeans_parallel(&mut cluster, k, config, seed).unwrap();
            assert_eq!(d_centers, ref_centers, "dist seeds, {workers} workers");
            assert_eq!(d_stats.candidates, ref_stats.candidates);
            let d_lloyd = drive_lloyd(&mut cluster, &d_centers, &LloydConfig::default()).unwrap();
            assert_lloyd_bits(&d_lloyd, &ref_lloyd, &format!("dist, {workers} workers"));
        }
        shutdown(cluster, handles);
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]

    /// The acceptance grid: random n/d/k × block size × worker count ×
    /// executor parallelism, k-means|| (Bernoulli) + Lloyd, all three
    /// backends bit-identical — kernel counters included (the wire now
    /// carries them).
    #[test]
    fn backends_agree_bit_for_bit(
        n in 70usize..150,
        d in 1usize..5,
        k in 2usize..7,
        seed in 0u64..1000,
        block_pick in 0usize..4,
        threaded in any::<bool>(),
    ) {
        let block_rows = [3usize, 16, 37, 128][block_pick];
        let points = gauss(n, d, seed ^ 0x5eed);
        let parallelism = if threaded { Parallelism::Threads(4) } else { Parallelism::Sequential };
        run_grid_point(
            &points, k, seed, block_rows, parallelism,
            &KMeansParallelConfig::default(),
        );
    }

    /// Random seeding and the exact-ℓ sampling mode agree across
    /// backends too (one worker grid point each; the full worker grid is
    /// covered above).
    #[test]
    fn random_and_exact_l_agree(
        n in 70usize..130,
        d in 1usize..4,
        k in 2usize..6,
        seed in 0u64..500,
    ) {
        let points = gauss(n, d, seed ^ 0xab);
        let exec = Executor::sequential().with_shard_size(SHARD);

        let mut mem = LocalBackend::in_memory(&points, None, &exec);
        let (mem_random, _) = drive_random_init(&mut mem, k, seed).unwrap();
        let exact = KMeansParallelConfig::default().sampling(SamplingMode::ExactL);
        let (mem_exact, _) = kmeans_parallel(&points, k, &exact, seed, &exec).unwrap();

        let source = InMemorySource::new(points.clone(), 23).unwrap();
        let mut chunked = LocalBackend::chunked(&source, &exec);
        let (c_random, _) = drive_random_init(&mut chunked, k, seed).unwrap();
        prop_assert_eq!(&c_random, &mem_random);
        let mut chunked = LocalBackend::chunked(&source, &exec);
        let (c_exact, _) = drive_kmeans_parallel(&mut chunked, k, &exact, seed).unwrap();
        prop_assert_eq!(&c_exact, &mem_exact);

        let (mut cluster, handles) = loopback_cluster(&points, 2, 5, Parallelism::Sequential);
        cluster.plan(SHARD).unwrap();
        {
            let (d_random, _) = drive_random_init(&mut cluster, k, seed).unwrap();
            prop_assert_eq!(&d_random, &mem_random);
        }
        {
            let (d_exact, _) = drive_kmeans_parallel(&mut cluster, k, &exact, seed).unwrap();
            prop_assert_eq!(&d_exact, &mem_exact);
        }
        shutdown(cluster, handles);
    }

    /// Mini-batch refinement — previously a typed rejection on the
    /// distributed path — now runs through the same driver on every
    /// backend, bit-identically.
    #[test]
    fn minibatch_agrees_across_backends(
        n in 70usize..150,
        d in 1usize..4,
        k in 2usize..6,
        seed in 0u64..500,
        block_pick in 0usize..3,
    ) {
        let block_rows = [2usize, 19, 64][block_pick];
        let points = gauss(n, d, seed ^ 0xbeef);
        let init = {
            let exec = Executor::sequential().with_shard_size(SHARD);
            let mut mem = LocalBackend::in_memory(&points, None, &exec);
            drive_random_init(&mut mem, k, seed).unwrap().0
        };
        let config = MiniBatchConfig { batch_size: 24, iterations: 15 };
        let (reference, ref_stats) =
            minibatch_kmeans_traced(&points, &init, &config, seed).unwrap();

        let exec = Executor::sequential().with_shard_size(SHARD);
        let source = InMemorySource::new(points.clone(), block_rows).unwrap();
        let mut chunked = LocalBackend::chunked(&source, &exec);
        let (c_centers, c_stats) =
            drive_minibatch(&mut chunked, &init, &config, seed).unwrap();
        prop_assert_eq!(&c_centers, &reference);
        prop_assert_eq!(c_stats, ref_stats);

        for workers in [2usize, 4] {
            let (mut cluster, handles) =
                loopback_cluster(&points, workers, block_rows, Parallelism::Sequential);
            cluster.plan(SHARD).unwrap();
            {
                let (d_centers, d_stats) =
                    drive_minibatch(&mut cluster, &init, &config, seed).unwrap();
                prop_assert_eq!(&d_centers, &reference);
                prop_assert_eq!(d_stats, ref_stats);
            }
            shutdown(cluster, handles);
        }
    }
}

/// The acceptance criterion from the issue, end to end through the
/// builder: `KMeans::params(k).refine(MiniBatch…).fit_distributed(…)`
/// succeeds with bit-parity against the single-node mini-batch path —
/// measured kernel counters included, now that workers ship them.
#[test]
fn builder_distributed_minibatch_matches_single_node() {
    let points = gauss(192, 3, 7);
    let base = KMeans::params(5)
        .refine(MiniBatch(MiniBatchConfig {
            batch_size: 32,
            iterations: 20,
        }))
        .seed(11)
        .shard_size(SHARD)
        .parallelism(Parallelism::Sequential);
    let mem = base.clone().fit(&points).unwrap();
    let chunked = base
        .clone()
        .data_source(InMemorySource::new(points.clone(), 41).unwrap())
        .fit_chunked()
        .unwrap();
    assert_eq!(mem.centers(), chunked.centers());
    assert_eq!(mem.cost().to_bits(), chunked.cost().to_bits());
    for workers in [1usize, 2, 4] {
        let (mut cluster, handles) = loopback_cluster(&points, workers, 7, Parallelism::Threads(2));
        let dist = base.clone().fit_distributed(&mut cluster).unwrap();
        shutdown(cluster, handles);
        let what = format!("{workers} workers");
        assert_eq!(mem.centers(), dist.centers(), "{what}: centers");
        assert_eq!(mem.labels(), dist.labels(), "{what}: labels");
        assert_eq!(mem.cost().to_bits(), dist.cost().to_bits(), "{what}: cost");
        assert_eq!(
            mem.distance_computations(),
            dist.distance_computations(),
            "{what}: distance accounting"
        );
        assert_eq!(
            mem.pruned_by_norm_bound(),
            dist.pruned_by_norm_bound(),
            "{what}: kernel counters over the wire"
        );
        assert_eq!(dist.refiner_name(), "minibatch");
    }
}

/// Lloyd through the builder now reports identical measured kernel
/// counters on all three execution modes (the distributed frontend used
/// to hard-code 0 — workers ship their counters in the partials frames).
#[test]
fn distributed_kernel_counters_match_single_node() {
    // k ≥ 8 so the batch kernel's pruned sweep engages (below 8
    // candidates it scans canonically and the counters stay 0).
    let points = gauss(192, 4, 3);
    let base = KMeans::params(9)
        .seed(5)
        .shard_size(SHARD)
        .parallelism(Parallelism::Sequential);
    let mem = base.clone().fit(&points).unwrap();
    assert!(
        mem.pruned_by_norm_bound() > 0,
        "workload must exercise the kernel's pruning for this test to bite"
    );
    let (mut cluster, handles) = loopback_cluster(&points, 3, 8, Parallelism::Sequential);
    let dist = base.clone().fit_distributed(&mut cluster).unwrap();
    shutdown(cluster, handles);
    assert_eq!(mem.pruned_by_norm_bound(), dist.pruned_by_norm_bound());
    assert_eq!(mem.cost().to_bits(), dist.cost().to_bits());
}

/// NaN-error parity: every backend reports the *same* typed
/// `NonFiniteData` with the global point index, from the same driver.
#[test]
fn non_finite_data_errors_identically_on_every_backend() {
    let mut points = gauss(96, 3, 9);
    points.row_mut(70)[2] = f64::NAN;
    let expected = KMeansError::NonFiniteData { point: 70, dim: 2 };
    let config = KMeansParallelConfig::default();
    let exec = Executor::sequential().with_shard_size(SHARD);

    let mut mem = LocalBackend::in_memory(&points, None, &exec);
    assert_eq!(
        drive_kmeans_parallel(&mut mem, 4, &config, 1).unwrap_err(),
        expected
    );

    let source = InMemorySource::new(points.clone(), 11).unwrap();
    let mut chunked = LocalBackend::chunked(&source, &exec);
    assert_eq!(
        drive_kmeans_parallel(&mut chunked, 4, &config, 1).unwrap_err(),
        expected
    );

    for workers in [2usize, 4] {
        let (mut cluster, handles) = loopback_cluster(&points, workers, 6, Parallelism::Sequential);
        cluster.plan(SHARD).unwrap();
        {
            assert_eq!(
                drive_kmeans_parallel(&mut cluster, 4, &config, 1).unwrap_err(),
                expected,
                "{workers} workers"
            );
        }
        shutdown(cluster, handles);
    }
}

/// A tracker round that breaks the round contract — an update whose
/// `from` is not the candidate count held, a Step-7 read naming the wrong
/// count — is the same typed `InvalidConfig` on every backend, never a
/// panic or a silently untracked row; an `Init` with no centers or centers
/// of the wrong dimension is the same shape error on every backend. Each
/// leaves the tracker as it was.
#[test]
fn round_contract_violations_error_identically_on_every_backend() {
    let points = gauss(96, 3, 4);
    // Two rows of the data: each is its own nearest candidate.
    let candidates = points.select(&[0, 50]);
    let one_row = points.select(&[7]);
    let none = PointMatrix::new(points.dim());
    let narrow = PointMatrix::from_flat(vec![0.0; 4], 2).unwrap();
    let exec = Executor::sequential().with_shard_size(SHARD);
    let check = |backend: &mut dyn RoundBackend, what: &str| {
        let init = Broadcast::Init(&candidates);
        backend.tracker_round(init, TrackerRead::Nothing).unwrap();
        let got = backend.tracker_round(Broadcast::Init(&none), TrackerRead::Nothing);
        assert_eq!(
            got.err(),
            Some(KMeansError::InvalidK { k: 0, n: 96 }),
            "{what}: init with no centers"
        );
        let got = backend.tracker_round(Broadcast::Init(&narrow), TrackerRead::Nothing);
        assert_eq!(
            got.err(),
            Some(KMeansError::DimensionMismatch {
                expected: 3,
                got: 2
            }),
            "{what}: init with 2-d centers"
        );
        // The seed-cost pass has the same shape contract, against the
        // fit's row count on every backend, weighted or not.
        assert_eq!(
            backend.potential(&none).err(),
            Some(KMeansError::InvalidK { k: 0, n: 96 }),
            "{what}: potential with no centers"
        );
        assert_eq!(
            backend.potential(&narrow).err(),
            Some(KMeansError::DimensionMismatch {
                expected: 3,
                got: 2
            }),
            "{what}: potential with 2-d centers"
        );
        let ahead = Broadcast::Update {
            from: 3,
            rows: &one_row,
        };
        let got = backend.tracker_round(ahead, TrackerRead::Nothing);
        assert!(
            matches!(got, Err(KMeansError::InvalidConfig(_))),
            "{what}: update from 3 gave {got:?}"
        );
        let empty = Broadcast::Update {
            from: 2,
            rows: &none,
        };
        let got = backend.tracker_round(empty, TrackerRead::Weights { m: 1 });
        assert!(
            matches!(got, Err(KMeansError::InvalidConfig(_))),
            "{what}: weights for 1 candidate gave {got:?}"
        );
        match backend.tracker_round(empty, TrackerRead::Weights { m: 2 }) {
            Ok((_, TrackerOut::Weights(w))) => w,
            other => panic!("{what}: weights for 2 candidates gave {other:?}"),
        }
    };
    let resident = check(
        &mut LocalBackend::in_memory(&points, None, &exec),
        "in-memory",
    );
    assert_eq!(resident.iter().sum::<f64>(), 96.0);
    let weights = vec![1.0; points.len()];
    let weighted = check(
        &mut LocalBackend::in_memory(&points, Some(&weights), &exec),
        "weighted in-memory",
    );
    assert_eq!(weighted, resident);
    let source = InMemorySource::new(points.clone(), 11).unwrap();
    let blocks = check(&mut LocalBackend::chunked(&source, &exec), "chunked");
    assert_eq!(blocks, resident);
    let (mut cluster, handles) = loopback_cluster(&points, 2, 6, Parallelism::Sequential);
    cluster.plan(SHARD).unwrap();
    let distributed = check(&mut cluster, "2 workers");
    assert_eq!(distributed, resident);
    shutdown(cluster, handles);
}

/// After k-means||, the two passes at the seed centers — the seed-cost
/// potential and the first assignment — start each row from the center
/// nearest its tracked candidate instead of the kernel's cold seed search.
/// The seeds move only the kernel counters: on every backend the seed
/// cost equals the cold potential, and the first assignment equals a
/// fresh backend's cold pass bit for bit, counting every row as
/// reassigned, with fewer distance evaluations — the same number on every
/// backend. k ≥ 8: below 8 centers the kernel scans without seeds.
#[test]
fn passes_after_seeding_start_from_the_tracker_bit_identically() {
    const K: usize = 12;
    let points = GaussMixture::new(K)
        .points(480)
        .center_variance(50.0)
        .generate(11)
        .unwrap()
        .dataset
        .into_parts()
        .1;
    let n = points.len();
    let config = KMeansParallelConfig::default();
    let exec = Executor::sequential().with_shard_size(SHARD);
    let (seeds, _) = kmeans_parallel(&points, K, &config, 3, &exec).unwrap();
    let seed_cost = potential(&points, &seeds, &exec);
    let mut fresh = LocalBackend::in_memory(&points, None, &exec);
    let (_, cold, cold_labels) = fresh.assign(&seeds, LabelFetch::Always).unwrap();
    let bits = |v: &[f64]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
    let check = |backend: &mut dyn RoundBackend, what: &str| {
        let (centers, _) = drive_kmeans_parallel(backend, K, &config, 3).unwrap();
        assert_eq!(centers, seeds, "{what}: seeds");
        let phi = backend.potential(&centers).unwrap();
        assert_eq!(phi.to_bits(), seed_cost.to_bits(), "{what}: seed cost");
        let (reassigned, sums, labels) = backend.assign(&centers, LabelFetch::Always).unwrap();
        assert_eq!(reassigned, n as u64, "{what}: reassigned");
        assert_eq!(labels, cold_labels, "{what}: labels");
        assert_eq!(bits(&sums.sums), bits(&cold.sums), "{what}: sums");
        assert_eq!(sums.counts, cold.counts, "{what}: counts");
        assert_eq!(sums.cost.to_bits(), cold.cost.to_bits(), "{what}: cost");
        assert_eq!(sums.farthest, cold.farthest, "{what}: farthest");
        let evals = sums.stats.distance_computations;
        assert!(
            evals < cold.stats.distance_computations,
            "{what}: {evals} evaluations, the cold pass {}",
            cold.stats.distance_computations
        );
        sums.stats
    };
    let resident = check(
        &mut LocalBackend::in_memory(&points, None, &exec),
        "in-memory",
    );
    for block_rows in [1, 37, n] {
        let source = InMemorySource::new(points.clone(), block_rows).unwrap();
        let blocks = check(&mut LocalBackend::chunked(&source, &exec), "chunked");
        assert_eq!(blocks, resident, "chunked, blocks {block_rows}: counters");
    }
    for workers in [1usize, 2, 4] {
        let (mut cluster, handles) =
            loopback_cluster(&points, workers, 29, Parallelism::Sequential);
        cluster.plan(SHARD).unwrap();
        let what = format!("{workers} workers");
        let distributed = check(&mut cluster, &what);
        assert_eq!(distributed, resident, "{what}: counters");
        shutdown(cluster, handles);
    }
}

/// A remote backend has no local source, so k-means++ (and every other
/// local-only stage) rejects with the distributed typed error even when
/// invoked through the generic entry point.
#[test]
fn local_only_stages_reject_the_cluster_backend() {
    use scalable_kmeans::core::pipeline::{Initializer, KMeansPlusPlus};
    let points = gauss(64, 2, 1);
    let (mut cluster, handles) = loopback_cluster(&points, 2, 8, Parallelism::Sequential);
    cluster.plan(SHARD).unwrap();
    {
        let err = KMeansPlusPlus.init_backend(&mut cluster, 3, 0).unwrap_err();
        assert!(
            err.to_string().contains("does not support distributed"),
            "{err}"
        );
        assert!(!cluster.is_empty());
    }
    shutdown(cluster, handles);
}
