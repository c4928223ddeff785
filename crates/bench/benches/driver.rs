//! The backend-generic round drivers across all three execution modes —
//! the same `kmeans_core::driver` function on an in-memory backend, a
//! chunked backend, and loopback worker clusters — recorded
//! machine-readably in `BENCH_driver.json` (method / backend / n / d /
//! k / wall_ns / bytes_on_wire / data_passes / round_trips) via the
//! shared merge-by-id writer.
//!
//! Results are bit-identical across backends by contract (asserted up
//! front on every configuration; pinned for real in
//! `tests/driver_parity.rs`), so every delta between rows is pure
//! backend overhead: block streaming for `chunked`, coordination + wire
//! for `distributed-wN`.
//!
//! One extra row, `kmeans-par+lloyd/in-memory-auto`, runs the in-memory
//! fit with `Parallelism::Auto` instead of `Sequential`: the executor
//! resolves its thread count once, from the machine, when it is built.
//!
//! `KMEANS_BENCH_QUICK=1` shrinks the grid and measurement windows for
//! the CI smoke, prints its rows instead of merging them into
//! `BENCH_driver.json`, and additionally asserts two gates: the distributed
//! rows' exact wire counters (bytes, data passes and round trips are
//! deterministic on any machine — see `QUICK_COUNTERS`) and that the
//! in-memory kmeans-par+lloyd fit takes at most 8x the committed
//! `driver_gauss_n4096_k8/kmeans-par+lloyd/in-memory` row of
//! `BENCH_driver.json`. Wall-clock gates across machines are
//! inherently coarse — see the quick-mode block below for what that
//! one is (a runaway-regression backstop) and is not (a precision
//! gate).

use criterion::Criterion;
use kmeans_bench::bench_json::{print_records, read_wall_ns, write_merged, DriverRecord};
use kmeans_cluster::{spawn_loopback_worker, Cluster, FitDistributed, Transport};
use kmeans_core::lloyd::LloydConfig;
use kmeans_core::minibatch::MiniBatchConfig;
use kmeans_core::model::{KMeans, KMeansModel};
use kmeans_core::pipeline::{Lloyd, MiniBatch};
use kmeans_data::synth::GaussMixture;
use kmeans_data::{InMemorySource, PointMatrix};
use kmeans_par::Parallelism;
use std::path::Path;
use std::time::Duration;

const K: usize = 8;
const SHARD: usize = 256;

/// The committed row the quick-mode runaway gate compares against.
const BASELINE_ROW: &str = "driver_gauss_n4096_k8/kmeans-par+lloyd/in-memory";
/// The gate's factor: 8x the committed 4.66 ms is 37.3 ms, no looser than
/// the 38.6 ms (2x 19.3 ms) the gate allowed before it moved here.
const RUNAWAY_FACTOR: u128 = 8;

/// The quick grid's exact distributed counters — (row, bytes on the wire,
/// data passes, wire round trips) — as two quick runs of this bench read
/// them, identically. They are deterministic on any machine, so a drift
/// by one byte or one round fails CI. Both fits close with a
/// labels-and-cost pass, whose replies carry each accumulation shard's
/// cost but no sums or counts.
const QUICK_COUNTERS: [(&str, u64, u64, u64); 2] = [
    ("kmeans-par+lloyd/distributed-w2", 79_556, 10, 11),
    ("kmeans-par+minibatch/distributed-w2", 319_348, 8, 10),
];

fn slice_rows(points: &PointMatrix, start: usize, rows: usize) -> PointMatrix {
    let dim = points.dim();
    PointMatrix::from_flat(
        points.as_slice()[start * dim..(start + rows) * dim].to_vec(),
        dim,
    )
    .unwrap()
}

type WorkerHandles = Vec<std::thread::JoinHandle<Result<(), kmeans_cluster::ClusterError>>>;

fn spawn_cluster(points: &PointMatrix, workers: usize) -> (Cluster, WorkerHandles) {
    let per = points.len() / workers;
    let mut transports: Vec<Box<dyn Transport>> = Vec::new();
    let mut handles = Vec::new();
    for w in 0..workers {
        let rows = if w + 1 == workers {
            points.len() - w * per
        } else {
            per
        };
        let source = InMemorySource::new(slice_rows(points, w * per, rows), 512).unwrap();
        let (transport, handle) = spawn_loopback_worker(source, Parallelism::Sequential);
        transports.push(Box::new(transport));
        handles.push(handle);
    }
    (Cluster::new(transports).unwrap(), handles)
}

fn shutdown(mut cluster: Cluster, handles: WorkerHandles) {
    cluster.shutdown();
    for h in handles {
        h.join()
            .expect("worker thread panicked")
            .expect("worker session failed");
    }
}

struct Method {
    name: &'static str,
    builder: fn() -> KMeans,
}

fn kmeans_par_lloyd() -> KMeans {
    // Lloyd is capped at 5 iterations so this workload has a *fixed
    // round budget* — the quantity this bench gates on. The uncapped
    // fit converges after ~35 iterations on this mixture, which would
    // drown the k-means|| seeding rounds (the paper's subject, and the
    // target of the fused-round optimisation) in Lloyd assignment
    // round trips.
    KMeans::params(K)
        .refine(Lloyd(LloydConfig {
            max_iterations: 5,
            tol: 0.0,
        }))
        .seed(1)
        .shard_size(SHARD)
        .parallelism(Parallelism::Sequential)
}

/// [`kmeans_par_lloyd`] on as many threads as the machine offers.
fn kmeans_par_lloyd_auto() -> KMeans {
    kmeans_par_lloyd().parallelism(Parallelism::Auto)
}

fn kmeans_par_minibatch() -> KMeans {
    KMeans::params(K)
        .refine(MiniBatch(MiniBatchConfig {
            batch_size: 256,
            iterations: 40,
        }))
        .seed(1)
        .shard_size(SHARD)
        .parallelism(Parallelism::Sequential)
}

fn assert_bits_equal(a: &KMeansModel, b: &KMeansModel, what: &str) {
    assert_eq!(a.centers(), b.centers(), "{what}: centers diverged");
    assert_eq!(
        a.cost().to_bits(),
        b.cost().to_bits(),
        "{what}: cost diverged — benchmark numbers would be meaningless"
    );
    assert_eq!(
        a.pruned_by_norm_bound(),
        b.pruned_by_norm_bound(),
        "{what}: kernel counters diverged"
    );
}

fn main() {
    let quick = std::env::var("KMEANS_BENCH_QUICK").is_ok_and(|v| v == "1");
    let n: usize = if quick { 2_048 } else { 4_096 };
    let path = Path::new(concat!(
        env!("CARGO_MANIFEST_DIR"),
        "/../../BENCH_driver.json"
    ));
    // The quick gate's baseline, read before this run merges its rows.
    let recorded_lloyd_wall = read_wall_ns(path, BASELINE_ROW);
    let synth = GaussMixture::new(K)
        .points(n)
        .center_variance(50.0)
        .generate(7)
        .unwrap();
    let points = synth.dataset.points().clone();
    let dim = points.dim();
    let worker_grid: &[usize] = if quick { &[2] } else { &[1, 2, 4] };
    let methods = [
        Method {
            name: "kmeans-par+lloyd",
            builder: kmeans_par_lloyd,
        },
        Method {
            name: "kmeans-par+minibatch",
            builder: kmeans_par_minibatch,
        },
    ];

    // Sanity: the three backends must agree bitwise, or the numbers mean
    // nothing. (Mini-batch distributed is the path the driver layer
    // newly unlocked — it is asserted here too.)
    for method in &methods {
        let reference = (method.builder)().fit(&points).unwrap();
        let chunked = (method.builder)()
            .data_source(InMemorySource::new(points.clone(), 512).unwrap())
            .fit_chunked()
            .unwrap();
        assert_bits_equal(&reference, &chunked, method.name);
        let (mut cluster, handles) = spawn_cluster(&points, 2);
        let dist = (method.builder)().fit_distributed(&mut cluster).unwrap();
        shutdown(cluster, handles);
        assert_bits_equal(&reference, &dist, method.name);
    }
    let auto = kmeans_par_lloyd_auto().fit(&points).unwrap();
    assert_bits_equal(
        &kmeans_par_lloyd().fit(&points).unwrap(),
        &auto,
        "kmeans-par+lloyd on Parallelism::Auto",
    );

    let mut c = Criterion::default();
    {
        let mut group = c.benchmark_group(format!("driver_gauss_n{n}_k{K}"));
        if quick {
            group
                .sample_size(10)
                .warm_up_time(Duration::from_millis(100))
                .measurement_time(Duration::from_millis(500));
        } else {
            group
                .sample_size(10)
                .warm_up_time(Duration::from_millis(300))
                .measurement_time(Duration::from_secs(2));
        }
        for method in &methods {
            group.bench_function(format!("{}/in-memory", method.name), |b| {
                b.iter(|| (method.builder)().fit(&points).unwrap())
            });
            group.bench_function(format!("{}/chunked", method.name), |b| {
                b.iter(|| {
                    (method.builder)()
                        .data_source(InMemorySource::new(points.clone(), 512).unwrap())
                        .fit_chunked()
                        .unwrap()
                })
            });
            for &workers in worker_grid {
                let (mut cluster, handles) = spawn_cluster(&points, workers);
                group.bench_function(format!("{}/distributed-w{workers}", method.name), |b| {
                    b.iter(|| (method.builder)().fit_distributed(&mut cluster).unwrap())
                });
                shutdown(cluster, handles);
            }
        }
        group.bench_function("kmeans-par+lloyd/in-memory-auto", |b| {
            b.iter(|| kmeans_par_lloyd_auto().fit(&points).unwrap())
        });
        group.finish();
    }

    // Wire accounting from one clean fit per (method, worker count) —
    // byte/round counters accumulate across iterations, so measure
    // outside the timing loop.
    let mut wire: Vec<(String, u64, u64, u64)> = Vec::new();
    for method in &methods {
        for &workers in worker_grid {
            let (mut cluster, handles) = spawn_cluster(&points, workers);
            (method.builder)().fit_distributed(&mut cluster).unwrap();
            wire.push((
                format!("{}/distributed-w{workers}", method.name),
                cluster.bytes_sent() + cluster.bytes_received(),
                cluster.data_passes(),
                cluster.round_trips(),
            ));
            shutdown(cluster, handles);
        }
    }

    let mut records: Vec<DriverRecord> = Vec::new();
    let mut in_memory_lloyd_wall: Option<u128> = None;
    for record in c.records() {
        let (method, backend) = record
            .id
            .rsplit_once('/')
            .map(|(head, backend)| {
                let method = head.rsplit('/').next().unwrap_or(head);
                (method.to_string(), backend.to_string())
            })
            .expect("bench ids are group/method/backend");
        let (bytes, passes, trips) = wire
            .iter()
            .find(|(id, _, _, _)| record.id.ends_with(id.as_str()))
            .map(|&(_, b, p, t)| (b, p, t))
            .unwrap_or((0, 0, 0));
        if method == "kmeans-par+lloyd" && backend == "in-memory" {
            in_memory_lloyd_wall = Some(record.median.as_nanos());
        }
        records.push(DriverRecord {
            id: record.id.clone(),
            method,
            backend,
            n,
            d: dim,
            k: K,
            wall_ns: record.median.as_nanos(),
            bytes_on_wire: bytes,
            data_passes: passes,
            round_trips: trips,
        });
    }
    if quick {
        print_records(&records);
    } else {
        write_merged(path, &records);
    }

    if quick {
        // CI smoke, part 1: the wire counters, exactly. Unlike wall clock,
        // bytes, data passes and round trips reproduce on any machine.
        // The fused k-means|| + capped-Lloyd conversation costs 1 initial
        // gather + 5 fused tracker+sample compounds + 1 fused
        // tracker+weights compound + 1 potential round + the Lloyd
        // assignments (at most 5, plus 1 closing label-shipping one): 10
        // here, where Lloyd is stable on its second pass, and never more
        // than 14. Any change that sneaks in a round or a byte fails
        // here deterministically.
        for (row, bytes, passes, trips) in QUICK_COUNTERS {
            let got = wire
                .iter()
                .find(|(id, ..)| id == row)
                .map(|&(_, b, p, t)| (b, p, t));
            assert_eq!(
                got,
                Some((bytes, passes, trips)),
                "{row}: (bytes on the wire, data passes, round trips) drifted from \
                 the pinned ({bytes}, {passes}, {trips})"
            );
            println!("quick smoke: {row} {bytes} B, {passes} passes, {trips} round trips (exact)");
        }

        // CI smoke, part 2: the in-memory path must stay within a
        // runaway bound of the committed trajectory, the same capped fit
        // at n = 4096 in BENCH_driver.json (about 2x this quick run's
        // work, so a same-machine run is expected about 2x faster).
        // Requiring current ≤ 8x recorded still catches a runaway
        // regression (an accidental per-round clone of the dataset, an
        // extra full data pass) while absorbing machine-to-machine
        // variance. It is deliberately NOT a tight gate: absolute wall
        // clock across unknown runners cannot be one; the precise
        // same-machine comparison lives in the committed rows.
        match (in_memory_lloyd_wall, recorded_lloyd_wall) {
            (Some(now), Some(recorded)) => {
                assert!(
                    now <= recorded.saturating_mul(RUNAWAY_FACTOR),
                    "driver in-memory path regressed: {now} ns (n = {n}) vs {recorded} ns \
                     committed at n = 4096 in BENCH_driver.json (bound: {RUNAWAY_FACTOR}x)"
                );
                println!(
                    "quick smoke: in-memory kmeans-par+lloyd {now} ns (n = {n}) vs \
                     {recorded} ns committed (n = 4096) — within {RUNAWAY_FACTOR}x"
                );
            }
            (now, recorded) => println!(
                "quick smoke: no baseline comparison (current: {now:?}, recorded: {recorded:?})"
            ),
        }
    }
}
