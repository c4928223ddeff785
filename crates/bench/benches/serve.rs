//! Load generator for the serving tier: concurrent clients hammer one
//! `skm serve` engine over real TCP with fixed-size predict batches, and
//! the run writes `BENCH_serve.json` (merge-by-id, like the other bench
//! artifacts) with p50/p99 request latency, QPS, and points/s per
//! (batch size × client count) configuration.
//!
//! Served answers are asserted bit-identical to the local
//! `KMeansModel::predict` up front — throughput numbers for a diverging
//! server would be meaningless. `KMEANS_BENCH_QUICK=1` shrinks the grid
//! and the request budget for CI smoke runs, and prints the rows instead
//! of merging them into `BENCH_serve.json`.
//!
//! The grid's engine sweeps on `Parallelism::Threads(2)`; one more row,
//! `auto_b256_c4`, serves the same load from an engine on
//! `Parallelism::Auto`, which resolves its thread count from the machine
//! once, when the executor is built.

use kmeans_bench::bench_json::{print_records, write_merged, ServeRecord};
use kmeans_cluster::ClusterError;
use kmeans_core::model::{KMeans, KMeansModel};
use kmeans_core::KMeansError;
use kmeans_data::synth::GaussMixture;
use kmeans_data::PointMatrix;
use kmeans_obs::percentile_nearest_rank;
use kmeans_par::{Executor, Parallelism};
use kmeans_serve::{spawn_tcp_serve, EngineConfig, ServeClient, ServeEngine};
use std::path::Path;
use std::time::{Duration, Instant};

const N: usize = 4_096;
const K: usize = 8;

type ServerHandle = std::thread::JoinHandle<Result<(), ClusterError>>;

fn slice_rows(points: &PointMatrix, start: usize, rows: usize) -> PointMatrix {
    let dim = points.dim();
    PointMatrix::from_flat(
        points.as_slice()[start * dim..(start + rows) * dim].to_vec(),
        dim,
    )
    .unwrap()
}

/// Whether a served error is an admission-control shed (the overload
/// configuration expects these; anything else is a real failure).
fn is_shed(err: &ClusterError) -> bool {
    matches!(err, ClusterError::KMeans(KMeansError::Data(msg)) if msg.contains("overloaded"))
}

/// One load-generator configuration: `clients` connections, each issuing
/// `requests_per_client` predicts of `batch` points. Returns per-request
/// latencies of *accepted* requests, the shed count, and the measured
/// wall time. Outside the overload configuration the shed count is 0
/// (the queue cap far exceeds the offered in-flight load).
fn run_load(
    addr: &str,
    data: &PointMatrix,
    batch: usize,
    clients: usize,
    requests_per_client: usize,
) -> (Vec<u128>, u64, Duration) {
    let started = Instant::now();
    let mut workers = Vec::new();
    for c in 0..clients {
        let addr = addr.to_string();
        // Each client cycles through its own window of the data so
        // batches are not byte-identical across clients.
        let queries: Vec<PointMatrix> = (0..requests_per_client)
            .map(|i| slice_rows(data, (c * 97 + i * 31) % (data.len() - batch), batch))
            .collect();
        workers.push(std::thread::spawn(move || {
            let mut client = ServeClient::connect(&addr, Some(Duration::from_secs(60))).unwrap();
            let mut latencies = Vec::with_capacity(queries.len());
            let mut shed = 0u64;
            for query in &queries {
                let sent = Instant::now();
                match client.predict(query) {
                    Ok(prediction) => {
                        latencies.push(sent.elapsed().as_nanos());
                        assert_eq!(prediction.labels.len(), query.len());
                    }
                    Err(e) if is_shed(&e) => shed += 1,
                    Err(e) => panic!("load client failed non-shed: {e}"),
                }
            }
            (latencies, shed)
        }));
    }
    let mut all = Vec::with_capacity(clients * requests_per_client);
    let mut shed_total = 0u64;
    for w in workers {
        let (latencies, shed) = w.join().expect("load client panicked");
        all.extend(latencies);
        shed_total += shed;
    }
    (all, shed_total, started.elapsed())
}

/// Sorts the accepted latencies and folds one load run into its record.
fn serve_record(
    id: String,
    batch: usize,
    clients: usize,
    dim: usize,
    mut latencies: Vec<u128>,
    shed: u64,
    wall: Duration,
) -> ServeRecord {
    latencies.sort_unstable();
    let answered = latencies.len() as u64;
    let secs = wall.as_secs_f64().max(1e-9);
    ServeRecord {
        id,
        transport: "tcp".into(),
        batch,
        clients,
        requests: answered,
        d: dim,
        k: K,
        p50_ns: percentile_nearest_rank(&latencies, 0.50),
        p99_ns: percentile_nearest_rank(&latencies, 0.99),
        qps: (answered as f64 / secs) as u64,
        points_per_sec: (answered as f64 * batch as f64 / secs) as u64,
        shed_requests: shed,
        shed_rate: shed as f64 / (answered + shed).max(1) as f64,
    }
}

/// Serves `model` from an engine on `parallelism`, checks one answer
/// against the local model bit for bit, and returns the address and the
/// server thread.
fn serve(
    model: &KMeansModel,
    points: &PointMatrix,
    parallelism: Parallelism,
    config: EngineConfig,
) -> (String, ServerHandle) {
    let engine = ServeEngine::with_config(model.to_record(), Executor::new(parallelism), config)
        .expect("engine from a fitted model");
    let (addr, handle) = spawn_tcp_serve(engine, Some(Duration::from_secs(60))).unwrap();
    let addr = addr.to_string();
    let mut client = ServeClient::connect(&addr, Some(Duration::from_secs(60))).unwrap();
    let probe = slice_rows(points, 11, 64);
    let served = client.predict(&probe).unwrap();
    assert_eq!(served.labels, model.predict(&probe).unwrap());
    assert_eq!(
        served.cost.to_bits(),
        model.cost_of(&probe).unwrap().to_bits(),
        "served cost diverged from the local model"
    );
    (addr, handle)
}

/// Stops a server started by [`serve`].
fn stop(addr: &str, handle: ServerHandle) {
    ServeClient::connect(addr, Some(Duration::from_secs(60)))
        .unwrap()
        .shutdown()
        .unwrap();
    handle.join().unwrap().unwrap();
}

fn main() {
    let quick = std::env::var("KMEANS_BENCH_QUICK").is_ok_and(|v| v == "1");
    let synth = GaussMixture::new(K)
        .points(N)
        .center_variance(50.0)
        .generate(7)
        .unwrap();
    let points = synth.dataset.points().clone();
    let dim = points.dim();
    let model = KMeans::params(K)
        .seed(1)
        .parallelism(Parallelism::Sequential)
        .fit(&points)
        .unwrap();

    let (addr, handle) = serve(
        &model,
        &points,
        Parallelism::Threads(2),
        EngineConfig::default(),
    );

    // batch size × client count grid (two configs in quick mode, whose
    // rows are printed, not committed).
    let grid: &[(usize, usize)] = if quick {
        &[(16, 2), (256, 4)]
    } else {
        &[(1, 1), (16, 1), (16, 4), (256, 2), (256, 8), (1024, 4)]
    };
    let requests_per_client = if quick { 50 } else { 400 };

    let mut records = Vec::new();
    for &(batch, clients) in grid {
        // Warm up connections/kernel, then measure.
        let _ = run_load(&addr, &points, batch, clients, requests_per_client / 10 + 1);
        let (latencies, shed, wall) = run_load(&addr, &points, batch, clients, requests_per_client);
        assert_eq!(shed, 0, "default queue cap shed under the bench grid");
        let id = format!("serve/tcp/b{batch}_c{clients}");
        let record = serve_record(id, batch, clients, dim, latencies, shed, wall);
        println!(
            "{}: p50 {} ns, p99 {} ns, {} req/s, {} points/s",
            record.id, record.p50_ns, record.p99_ns, record.qps, record.points_per_sec
        );
        records.push(record);
    }
    stop(&addr, handle);

    // The same load shape from an engine on `Parallelism::Auto`.
    let (batch, clients) = (256, 4);
    let (addr, handle) = serve(&model, &points, Parallelism::Auto, EngineConfig::default());
    let _ = run_load(&addr, &points, batch, clients, requests_per_client / 10 + 1);
    let (latencies, shed, wall) = run_load(&addr, &points, batch, clients, requests_per_client);
    assert_eq!(shed, 0, "default queue cap shed under the Auto row");
    let id = format!("serve/tcp/auto_b{batch}_c{clients}");
    let record = serve_record(id, batch, clients, dim, latencies, shed, wall);
    println!(
        "{}: p50 {} ns, p99 {} ns, {} req/s, {} points/s",
        record.id, record.p50_ns, record.p99_ns, record.qps, record.points_per_sec
    );
    records.push(record);
    stop(&addr, handle);

    // Overload row: a queue cap of one request's worth of points under
    // many hammering clients — admission control must shed the excess
    // *typed* while the accepted requests keep bounded tails (this is
    // the row that shows overload degrades throughput, not latency).
    let (over_batch, over_clients) = if quick { (256, 4) } else { (256, 8) };
    let config = EngineConfig {
        queue_cap: over_batch,
        ..EngineConfig::default()
    };
    let (addr, handle) = serve(&model, &points, Parallelism::Threads(2), config);
    let _ = run_load(
        &addr,
        &points,
        over_batch,
        over_clients,
        requests_per_client / 10 + 1,
    );
    let (latencies, shed, wall) = run_load(
        &addr,
        &points,
        over_batch,
        over_clients,
        requests_per_client,
    );
    let id = format!("serve/tcp/overload_b{over_batch}_c{over_clients}");
    let record = serve_record(id, over_batch, over_clients, dim, latencies, shed, wall);
    println!(
        "{}: p50 {} ns, p99 {} ns, {} req/s, shed {}/{} ({:.1}%)",
        record.id,
        record.p50_ns,
        record.p99_ns,
        record.qps,
        shed,
        record.requests + shed,
        100.0 * record.shed_rate,
    );
    records.push(record);
    stop(&addr, handle);

    let path = Path::new(concat!(
        env!("CARGO_MANIFEST_DIR"),
        "/../../BENCH_serve.json"
    ));
    if quick {
        print_records(&records);
    } else {
        write_merged(path, &records);
    }
}
