//! Distributed acceptance tests: `fit_distributed` over a worker cluster
//! is **bit-identical** to the single-node `fit` and `fit_chunked` on the
//! concatenated worker data — for a grid of worker counts × worker-local
//! block sizes × executor parallelism, over the loopback transport; the
//! TCP transport (real sockets over 127.0.0.1, block-file shards from
//! `shard_block_file`) passes the same assertion; and a worker vanishing
//! mid-round surfaces as a typed error, never a hang.

use scalable_kmeans::cluster::protocol::WireError;
use scalable_kmeans::cluster::{
    spawn_loopback_worker, spawn_tcp_worker, Cluster, FitDistributed, Message, Transport,
};
use scalable_kmeans::core::driver::{drive_lloyd, RoundBackend};
use scalable_kmeans::core::init::{KMeansParallelConfig, SamplingMode};
use scalable_kmeans::core::lloyd::{lloyd, LloydConfig};
use scalable_kmeans::core::model::{KMeans, KMeansModel};
use scalable_kmeans::core::pipeline::{
    reject_distributed, KMeansParallel, NoRefine, Random, RefineResult, Refiner,
};
use scalable_kmeans::core::KMeansError;
use scalable_kmeans::data::synth::GaussMixture;
use scalable_kmeans::data::{
    shard_block_file, write_block_file, BlockFileSource, InMemorySource, PointMatrix,
};
use scalable_kmeans::par::{Executor, Parallelism};

const N: usize = 192;
const K: usize = 6;
const SHARD: usize = 16;

fn gauss() -> PointMatrix {
    GaussMixture::new(K)
        .points(N)
        .center_variance(50.0)
        .generate(11)
        .unwrap()
        .dataset
        .into_parts()
        .1
}

fn slice_rows(points: &PointMatrix, start: usize, rows: usize) -> PointMatrix {
    let dim = points.dim();
    PointMatrix::from_flat(
        points.as_slice()[start * dim..(start + rows) * dim].to_vec(),
        dim,
    )
    .unwrap()
}

/// Spawns `workers` loopback workers over contiguous even slices of
/// `points` and connects them as a cluster.
fn loopback_cluster(
    points: &PointMatrix,
    workers: usize,
    block_rows: usize,
    parallelism: Parallelism,
) -> (
    Cluster,
    Vec<std::thread::JoinHandle<Result<(), scalable_kmeans::cluster::ClusterError>>>,
) {
    let per = points.len() / workers;
    let mut transports: Vec<Box<dyn Transport>> = Vec::new();
    let mut handles = Vec::new();
    for w in 0..workers {
        let rows = if w + 1 == workers {
            points.len() - w * per
        } else {
            per
        };
        let shard = slice_rows(points, w * per, rows);
        let source = InMemorySource::new(shard, block_rows).unwrap();
        let (transport, handle) = spawn_loopback_worker(source, parallelism);
        transports.push(Box::new(transport));
        handles.push(handle);
    }
    (Cluster::new(transports).unwrap(), handles)
}

fn assert_models_bit_identical(mem: &KMeansModel, dist: &KMeansModel, what: &str) {
    assert_eq!(mem.centers(), dist.centers(), "{what}: centers");
    assert_eq!(mem.labels(), dist.labels(), "{what}: labels");
    assert_eq!(mem.cost().to_bits(), dist.cost().to_bits(), "{what}: cost");
    assert_eq!(
        mem.init_stats().seed_cost.to_bits(),
        dist.init_stats().seed_cost.to_bits(),
        "{what}: seed cost"
    );
    assert_eq!(
        mem.init_stats().candidates,
        dist.init_stats().candidates,
        "{what}: candidates"
    );
    assert_eq!(
        mem.init_stats().passes,
        dist.init_stats().passes,
        "{what}: passes"
    );
    assert_eq!(mem.iterations(), dist.iterations(), "{what}: iterations");
    assert_eq!(
        mem.distance_computations(),
        dist.distance_computations(),
        "{what}: distance accounting"
    );
}

/// The acceptance grid: {1, 2, 4} workers × {2, 3}-row worker blocks ×
/// {sequential, 4-thread} executors, k-means|| + Lloyd, all bit-identical
/// to both single-node paths.
#[test]
fn loopback_grid_matches_fit_and_fit_chunked() {
    let points = gauss();
    for parallelism in [Parallelism::Sequential, Parallelism::Threads(4)] {
        let base = KMeans::params(K)
            .seed(42)
            .shard_size(SHARD)
            .parallelism(parallelism);
        let mem = base.clone().fit(&points).unwrap();
        let chunked = base
            .clone()
            .data_source(InMemorySource::new(points.clone(), 37).unwrap())
            .fit_chunked()
            .unwrap();
        assert_models_bit_identical(&mem, &chunked, "chunked baseline");
        for workers in [1usize, 2, 4] {
            for block_rows in [2usize, 3] {
                let (mut cluster, handles) =
                    loopback_cluster(&points, workers, block_rows, parallelism);
                let dist = base.clone().fit_distributed(&mut cluster).unwrap();
                assert!(cluster.data_passes() > 0);
                assert!(cluster.bytes_sent() > 0 && cluster.bytes_received() > 0);
                cluster.shutdown();
                for h in handles {
                    h.join().unwrap().unwrap();
                }
                let what = format!("{workers} workers, blocks of {block_rows}, {parallelism:?}");
                assert_models_bit_identical(&mem, &dist, &what);
                assert_eq!(dist.init_name(), "kmeans-par");
                assert_eq!(dist.refiner_name(), "lloyd");
            }
        }
    }
}

/// The other distributed stages agree too: random seeding, seed-only
/// refinement, and the exact-ℓ sampling mode.
#[test]
fn other_stages_match_single_node() {
    let points = gauss();
    let cases: Vec<(&str, KMeans)> = vec![
        (
            "random+none",
            KMeans::params(K)
                .init(Random)
                .refine(NoRefine)
                .seed(7)
                .shard_size(SHARD),
        ),
        (
            "exact-l+lloyd",
            KMeans::params(K)
                .init(KMeansParallel(
                    KMeansParallelConfig::default().sampling(SamplingMode::ExactL),
                ))
                .seed(9)
                .shard_size(SHARD),
        ),
        (
            "topup+none",
            // ℓ = 0.1k, one round: forces the D² top-up (the O(n) gather
            // path) to fire and still agree bitwise.
            KMeans::params(K)
                .init(KMeansParallel(
                    KMeansParallelConfig::default()
                        .oversampling_factor(0.1)
                        .rounds(1),
                ))
                .refine(NoRefine)
                .seed(3)
                .shard_size(SHARD),
        ),
    ];
    for (what, base) in cases {
        let base = base.parallelism(Parallelism::Sequential);
        let mem = base.clone().fit(&points).unwrap();
        let (mut cluster, handles) = loopback_cluster(&points, 4, 5, Parallelism::Sequential);
        let dist = base.clone().fit_distributed(&mut cluster).unwrap();
        cluster.shutdown();
        for h in handles {
            h.join().unwrap().unwrap();
        }
        assert_models_bit_identical(&mem, &dist, what);
    }
}

/// The D² top-up conversation (k = 12, ℓ = 0.1k, one round, no
/// refinement, two workers) is bit-identical to `fit` and takes 7 round
/// trips: first-center gather, init+sample, the round's update fused with
/// the d² read, the top-up gather, the top-up update fused with Step 7's
/// weights, the seed cost, and the labeling pass. Seed 2's one round
/// samples; seed 3's is dry and broadcasts an empty update — same count.
#[test]
fn topup_fit_takes_seven_round_trips() {
    let k = 12;
    let points = gauss();
    for seed in [2u64, 3] {
        let base = KMeans::params(k)
            .init(KMeansParallel(
                KMeansParallelConfig::default()
                    .oversampling_factor(0.1)
                    .rounds(1),
            ))
            .refine(NoRefine)
            .seed(seed)
            .shard_size(SHARD);
        let mem = base.clone().fit(&points).unwrap();
        let (mut cluster, handles) = loopback_cluster(&points, 2, 5, Parallelism::Sequential);
        let dist = base.fit_distributed(&mut cluster).unwrap();
        let round_trips = cluster.round_trips();
        cluster.shutdown();
        for h in handles {
            h.join().unwrap().unwrap();
        }
        assert_models_bit_identical(&mem, &dist, &format!("D² top-up, seed {seed}"));
        assert_eq!(round_trips, 7, "seed {seed}");
    }
}

/// Real sockets, real shard files: `skm shard`-style block-file shards
/// served by TCP workers over 127.0.0.1 reproduce the in-memory fit bit
/// for bit (one grid point of the loopback matrix).
#[test]
fn tcp_block_file_workers_match_in_memory() {
    let points = gauss();
    let dir = std::env::temp_dir().join("kmeans_dist_parity");
    std::fs::create_dir_all(&dir).unwrap();
    let input = dir.join("tcp_input.skmb");
    write_block_file(&input, &points, 32).unwrap();
    let prefix = dir.join("tcp_shard").to_string_lossy().into_owned();
    let manifest = shard_block_file(&input, &prefix, 2, 96).unwrap();
    assert_eq!(manifest.shards.len(), 2);

    let timeout = Some(std::time::Duration::from_secs(30));
    let mut addrs = Vec::new();
    let mut handles = Vec::new();
    for entry in &manifest.shards {
        // A 2-block budget: the worker really streams its shard.
        let budget = 2 * (32 * points.dim() * 8) as u64;
        let source = BlockFileSource::open(&entry.path, budget).unwrap();
        let (addr, handle) = spawn_tcp_worker(source, Parallelism::Threads(2), timeout).unwrap();
        addrs.push(addr.to_string());
        handles.push(handle);
    }
    let mut cluster = Cluster::connect(&addrs, timeout).unwrap();

    let base = KMeans::params(K).seed(5).shard_size(SHARD);
    let mem = base.clone().fit(&points).unwrap();
    let dist = base.fit_distributed(&mut cluster).unwrap();
    // Workers really streamed from disk within budget.
    let stats = cluster.fetch_stats().unwrap();
    cluster.shutdown();
    for h in handles {
        h.join().unwrap().unwrap();
    }
    assert_models_bit_identical(&mem, &dist, "tcp block-file workers");
    for (i, s) in stats.iter().enumerate() {
        assert!(s.loads > 0, "worker {i} never touched its block file");
        assert!(
            s.peak_bytes <= s.budget_bytes,
            "worker {i} exceeded its residency budget"
        );
    }
    let _ = std::fs::remove_file(input);
}

/// Distributed Lloyd reproduces the empty-cluster repair (farthest-point
/// reseeding, fetched back from the owning worker) bit for bit.
#[test]
fn dist_lloyd_reseeds_empty_clusters_like_single_node() {
    let points = gauss();
    // Two centers glued far away force empty clusters on pass one.
    let mut init = PointMatrix::new(points.dim());
    init.push(points.row(0)).unwrap();
    init.push(&vec![-9e5; points.dim()]).unwrap();
    init.push(&vec![-9e5; points.dim()]).unwrap();
    let exec = Executor::new(Parallelism::Threads(3)).with_shard_size(SHARD);
    let reference = lloyd(&points, &init, &LloydConfig::default(), &exec).unwrap();
    assert!(reference.history[0].reseeded >= 1, "setup must reseed");

    let (mut cluster, handles) = loopback_cluster(&points, 4, 7, Parallelism::Threads(3));
    cluster.plan(SHARD).unwrap();
    let got = drive_lloyd(&mut cluster, &init, &LloydConfig::default()).unwrap();
    cluster.shutdown();
    for h in handles {
        h.join().unwrap().unwrap();
    }
    assert_eq!(got.centers, reference.centers);
    assert_eq!(got.labels, reference.labels);
    assert_eq!(got.cost.to_bits(), reference.cost.to_bits());
    assert_eq!(got.iterations, reference.iterations);
    assert_eq!(got.assign_passes, reference.assign_passes);
    assert_eq!(got.history.len(), reference.history.len());
    for (a, b) in got.history.iter().zip(&reference.history) {
        assert_eq!(a.reassigned, b.reassigned);
        assert_eq!(a.reseeded, b.reseeded);
        assert_eq!(a.cost.to_bits(), b.cost.to_bits());
    }
}

/// A worker dying mid-round is a typed error, not a hang: the fake worker
/// answers the handshake and then drops its end of the connection.
#[test]
fn worker_disconnect_mid_round_is_a_typed_error() {
    let (coordinator_side, mut worker_side) = scalable_kmeans::cluster::loopback_pair();
    let fake = std::thread::spawn(move || {
        worker_side
            .send(&Message::Hello { rows: 192, dim: 15 })
            .unwrap();
        // Answer the plan, then vanish before the first data pass.
        match worker_side.recv().unwrap() {
            Message::Plan { .. } => worker_side.send(&Message::PlanOk).unwrap(),
            other => panic!("expected Plan, got {other:?}"),
        }
        drop(worker_side);
    });
    let mut cluster = Cluster::new(vec![Box::new(coordinator_side)]).unwrap();
    let err = KMeans::params(K)
        .seed(1)
        .shard_size(SHARD)
        .fit_distributed(&mut cluster)
        .unwrap_err();
    fake.join().unwrap();
    assert!(
        matches!(err, KMeansError::Data(_)),
        "expected a transport error, got {err:?}"
    );
    assert!(err.to_string().contains("disconnected"), "{err}");
}

/// A worker refuses a `Plan` whose range does not fit its rows — one
/// that ends past `global_n`, or whose end overflows — with a typed
/// error, stays unplanned, and then accepts a plan that fits.
#[test]
fn worker_refuses_a_plan_its_rows_do_not_fit() {
    let points = gauss();
    let dim = points.dim() as u32;
    let source = InMemorySource::new(slice_rows(&points, 0, 96), 32).unwrap();
    let (mut coordinator_side, handle) = spawn_loopback_worker(source, Parallelism::Sequential);
    let hello = coordinator_side.recv().unwrap();
    assert!(
        matches!(hello, Message::Hello { rows: 96, .. }),
        "{hello:?}"
    );
    let plan = |start_row: u64, global_n: u64| Message::Plan {
        global_n,
        start_row,
        shard_size: SHARD as u64,
        dim,
    };
    for (start_row, global_n) in [(16, 100), (u64::MAX - 8, u64::MAX)] {
        coordinator_side.send(&plan(start_row, global_n)).unwrap();
        let reply = coordinator_side.recv().unwrap();
        assert!(
            matches!(&reply, Message::Error(WireError::InvalidConfig(m)) if m.contains("96 rows")),
            "plan at row {start_row} of {global_n} gave {reply:?}"
        );
    }
    coordinator_side.send(&Message::GatherD2).unwrap();
    let reply = coordinator_side.recv().unwrap();
    assert!(
        matches!(&reply, Message::Error(WireError::InvalidConfig(m)) if m.contains("before Plan")),
        "a request after refused plans gave {reply:?}"
    );
    coordinator_side.send(&plan(96, 192)).unwrap();
    let reply = coordinator_side.recv().unwrap();
    assert!(matches!(reply, Message::PlanOk), "{reply:?}");
    coordinator_side.send(&Message::Shutdown).unwrap();
    let reply = coordinator_side.recv().unwrap();
    assert!(matches!(reply, Message::ShutdownOk), "{reply:?}");
    handle.join().unwrap().unwrap();
}

/// A refiner with no distributed formulation: `supports_backend` keeps
/// the in-memory-only default.
#[derive(Debug)]
struct InMemoryOnly;

impl Refiner for InMemoryOnly {
    fn name(&self) -> &'static str {
        "in-memory-only"
    }

    fn refine_backend(
        &self,
        backend: &mut dyn RoundBackend,
        centers: &PointMatrix,
        seed: u64,
    ) -> Result<RefineResult, KMeansError> {
        NoRefine.refine_backend(backend, centers, seed)
    }
}

/// Misaligned worker boundaries are rejected with the remedy in the
/// message, and unsupported stages reject with the shared typed error.
#[test]
fn misalignment_and_unsupported_stages_fail_loudly() {
    let points = gauss();
    // 100/92 split: worker 1 starts at row 100, not on the 16-row grid.
    let mut transports: Vec<Box<dyn Transport>> = Vec::new();
    let mut handles = Vec::new();
    for (start, rows) in [(0usize, 100usize), (100, 92)] {
        let source = InMemorySource::new(slice_rows(&points, start, rows), 10).unwrap();
        let (t, h) = spawn_loopback_worker(source, Parallelism::Sequential);
        transports.push(Box::new(t));
        handles.push(h);
    }
    let mut cluster = Cluster::new(transports).unwrap();
    let err = KMeans::params(K)
        .seed(1)
        .shard_size(SHARD)
        .fit_distributed(&mut cluster)
        .unwrap_err();
    assert!(err.to_string().contains("not a multiple"), "{err}");
    // The session is still healthy: an aligned plan after the rejection
    // works (96/96 would be aligned; here just shut down cleanly).
    cluster.shutdown();
    for h in handles {
        h.join().unwrap().unwrap();
    }

    // Stages without a distributed realization reject.
    let (mut cluster, handles) = loopback_cluster(&points, 2, 8, Parallelism::Sequential);
    let err = KMeans::params(K)
        .init(scalable_kmeans::core::pipeline::AfkMc2::default())
        .fit_distributed(&mut cluster)
        .unwrap_err();
    assert!(
        err.to_string().contains("does not support distributed"),
        "{err}"
    );
    // A refiner without one is rejected before the seeding runs.
    let err = KMeans::params(K)
        .refine(InMemoryOnly)
        .fit_distributed(&mut cluster)
        .unwrap_err();
    assert_eq!(err, reject_distributed("in-memory-only"));
    assert_eq!(cluster.round_trips(), 0);
    let err = KMeans::params(K)
        .weights(&vec![1.0; N])
        .fit_distributed(&mut cluster)
        .unwrap_err();
    assert!(err.to_string().contains("weighted"), "{err}");
    cluster.shutdown();
    for h in handles {
        h.join().unwrap().unwrap();
    }
}

/// A NaN coordinate on one worker surfaces as the *same* typed error a
/// single-node fit reports, with the global point index.
#[test]
fn non_finite_data_reports_global_index() {
    let mut points = gauss();
    points.row_mut(100)[1] = f64::NAN;
    let mem_err = KMeans::params(K)
        .seed(1)
        .shard_size(SHARD)
        .fit(&points)
        .unwrap_err();
    assert_eq!(mem_err, KMeansError::NonFiniteData { point: 100, dim: 1 });

    let (mut cluster, handles) = loopback_cluster(&points, 4, 6, Parallelism::Sequential);
    let dist_err = KMeans::params(K)
        .seed(1)
        .shard_size(SHARD)
        .fit_distributed(&mut cluster)
        .unwrap_err();
    cluster.shutdown();
    for h in handles {
        h.join().unwrap().unwrap();
    }
    assert_eq!(dist_err, mem_err);
}
