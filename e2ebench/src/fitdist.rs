//! `fit-dist`: `fit_distributed` on the paper's `GaussMixture` (R = 100,
//! n = 1,000,000, d = 15, k = 50) over two single-threaded TCP workers
//! in this process. The data is written as SKMBLK01 and split into two
//! shards on the accumulation grid, as `skm shard` does; each worker
//! streams its shard under a block budget of about a quarter of it.
//! k-means|| defaults, Lloyd capped at 10 iterations: the cap fixes the
//! round budget, so the coordinator, SKW1 wire, worker and block-file
//! layers carry a large share of the wall.

use crate::fits::{self, Fingerprint};
use crate::ledger::Ledger;
use crate::replay;
use crate::report::Report;
use crate::seams::{
    set_tracing, Log, ReadStats, TimedInit, TimedRefine, TimedSource, TimedTransport, WireCall,
};
use crate::stats::fast_decile;
use crate::sys::{self, now_ns, WorkDir};
use crate::Args;
use scalable_kmeans::cluster::{
    Cluster, ClusterError, FitDistributed, Message, TcpTransport, Transport, Worker,
};
use scalable_kmeans::core::assign::sum_shard_size_for;
use scalable_kmeans::core::pipeline::Lloyd;
use scalable_kmeans::data::synth::GaussMixture;
use scalable_kmeans::data::{
    shard_block_file, write_block_file, BlockFileSource, ChunkedSource, PointMatrix,
};
use scalable_kmeans::par::shards::DEFAULT_SHARD_SIZE;
use scalable_kmeans::par::{Executor, Parallelism};
use scalable_kmeans::{InitMethod, KMeans, LloydConfig};
use std::net::{TcpListener, TcpStream};
use std::sync::atomic::Ordering;
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

const N: usize = 1_000_000;
const DIM: usize = 15;
const K: usize = 50;
const CENTER_VARIANCE: f64 = 100.0;
const WORKERS: usize = 2;
const MAX_ITERS: usize = 10;
const BLOCK_ROWS: usize = 8192;
const IO_TIMEOUT: Duration = Duration::from_secs(120);
/// Pinned like fit-kdd's: across seeds 1..=5 the capped fit's cost per
/// point ranged 24.6–46.8 (the mixture's geometry is drawn from the seed).
const DATA_SEED: u64 = 1;
const FIT_SEED: u64 = 1;

fn generate() -> Result<PointMatrix, String> {
    let synth = GaussMixture::new(K)
        .dim(DIM)
        .points(N)
        .center_variance(CENTER_VARIANCE)
        .generate(DATA_SEED)
        .map_err(|e| e.to_string())?;
    Ok(synth.dataset.into_parts().1)
}

fn kmeans() -> KMeans {
    KMeans::params(K).seed(FIT_SEED).max_iterations(MAX_ITERS)
}

/// The coordinator's cluster plus its in-process workers. Dropping it
/// ends the worker sessions and removes the shard files.
struct Fleet {
    cluster: Cluster,
    workers: Vec<JoinHandle<Result<(), ClusterError>>>,
    /// Traced fleets only: the shared sources and their read counters.
    sources: Vec<Arc<BlockFileSource>>,
    reads: Vec<Arc<ReadStats>>,
    /// Both ends' transport calls (recorded only while tracing is on).
    coordinator_calls: Vec<Log<WireCall>>,
    worker_calls: Vec<Log<WireCall>>,
    _dir: WorkDir,
}

impl Fleet {
    /// Generates the data, writes and shards it, and starts the workers;
    /// `traced` wraps both ends of every connection and each worker's
    /// source in the benchmark's decorators.
    fn set_up(traced: bool) -> Result<Fleet, String> {
        let err = |e: &dyn std::fmt::Display| e.to_string();
        let dir = WorkDir::new("fit-dist").map_err(|e| err(&e))?;
        let whole = dir.path("data.skmb");
        write_block_file(&whole, &generate()?, BLOCK_ROWS).map_err(|e| err(&e))?;
        let align = sum_shard_size_for(DEFAULT_SHARD_SIZE, N);
        let prefix = dir.path("shard");
        let manifest = shard_block_file(&whole, &prefix.to_string_lossy(), WORKERS, align)
            .map_err(|e| err(&e))?;
        std::fs::remove_file(&whole).map_err(|e| err(&e))?;

        let mut workers = Vec::new();
        let mut transports: Vec<Box<dyn Transport>> = Vec::new();
        let (mut sources, mut reads) = (Vec::new(), Vec::new());
        let (mut coordinator_calls, mut worker_calls) = (Vec::new(), Vec::new());
        for shard in &manifest.shards {
            // About a quarter of the shard's payload, so every pass streams.
            let budget = (shard.rows * DIM * 8 / 4) as u64;
            let source = BlockFileSource::open(&shard.path, budget).map_err(|e| err(&e))?;
            let (calls, stats) = (Log::default(), Arc::new(ReadStats::default()));
            let boxed: Box<dyn ChunkedSource> = if traced {
                let source = Arc::new(source);
                sources.push(Arc::clone(&source));
                Box::new(TimedSource::new(source, Arc::clone(&stats)))
            } else {
                Box::new(source)
            };
            let listener = TcpListener::bind("127.0.0.1:0").map_err(|e| err(&e))?;
            let addr = listener.local_addr().map_err(|e| err(&e))?;
            let log = traced.then(|| calls.clone());
            workers.push(std::thread::spawn(move || -> Result<(), ClusterError> {
                let (stream, _) = listener.accept()?;
                let tcp = TcpTransport::<Message>::new(stream, Some(IO_TIMEOUT))?;
                let mut transport: Box<dyn Transport> = match log {
                    Some(log) => Box::new(TimedTransport::new(tcp, log)),
                    None => Box::new(tcp),
                };
                Worker::from_boxed(boxed, Parallelism::Sequential).serve(transport.as_mut())
            }));
            let stream = TcpStream::connect(addr).map_err(|e| err(&e))?;
            let tcp =
                TcpTransport::<Message>::new(stream, Some(IO_TIMEOUT)).map_err(|e| err(&e))?;
            let coordinator_log = Log::default();
            let transport: Box<dyn Transport> = if traced {
                Box::new(TimedTransport::new(tcp, coordinator_log.clone()))
            } else {
                Box::new(tcp)
            };
            transports.push(transport);
            reads.push(stats);
            worker_calls.push(calls);
            coordinator_calls.push(coordinator_log);
        }
        Ok(Fleet {
            cluster: Cluster::new(transports).map_err(|e| err(&e))?,
            workers,
            sources,
            reads,
            coordinator_calls,
            worker_calls,
            _dir: dir,
        })
    }

    fn wire_bytes(&self) -> u64 {
        self.cluster.bytes_sent() + self.cluster.bytes_received()
    }

    /// Ends every worker session and joins the worker threads.
    fn close(&mut self) -> Vec<String> {
        if self.workers.is_empty() {
            return Vec::new();
        }
        self.cluster.shutdown();
        self.workers
            .drain(..)
            .enumerate()
            .filter_map(|(i, h)| match h.join() {
                Ok(Ok(())) => None,
                Ok(Err(e)) => Some(format!("worker {i} ended with {e}")),
                Err(_) => Some(format!("worker {i} panicked")),
            })
            .collect()
    }
}

impl Drop for Fleet {
    fn drop(&mut self) {
        for e in self.close() {
            eprintln!("fit-dist teardown: {e}");
        }
    }
}

/// One distributed fit and its exact counters. `Cluster::plan`, which
/// opens every fit, restarts the round-trip count; the byte counters run
/// on across fits.
fn fit_once(fleet: &mut Fleet, kmeans: &KMeans) -> fits::FitOutcome {
    let bytes = fleet.wire_bytes();
    let model = kmeans
        .fit_distributed(&mut fleet.cluster)
        .map_err(|e| e.to_string())?;
    Ok((
        model,
        vec![
            ("coordinator.round_trips", fleet.cluster.round_trips()),
            ("wire.bytes", fleet.wire_bytes() - bytes),
        ],
    ))
}

pub fn run(args: &Args, report: &mut Report) -> Result<(), String> {
    let (setup_s, mut fleet) = fits::timed_setups(args, || Fleet::set_up(args.trace))?;
    if args.trace {
        return traced(args, report, fleet);
    }
    let kmeans = kmeans();
    report.set("setup_s", fast_decile(&setup_s), setup_s.len());
    let model = fits::measure(report, args.seconds, N, || fit_once(&mut fleet, &kmeans))
        .ok_or("no distributed fit succeeded")?;
    for e in fleet.close() {
        report.problem(e);
    }
    drop(fleet);

    // Outside the measured region: the distributed model must equal an
    // in-memory fit of the same data and seed.
    let points = generate()?;
    let local = kmeans.fit(&points).map_err(|e| e.to_string())?;
    Fingerprint::of(&model, &[]).check_against(
        &Fingerprint::of(&local, &[]),
        "the distributed fit (against the in-memory fit)",
        report,
    );
    fits::check_labels(report, &model, &points, args.seed);
    Ok(())
}

/// One request/reply cycle over the fleet: the coordinator's sends and
/// receive waits, and each addressed worker's busy interval (request
/// received to reply sent).
struct Round {
    span: (u64, u64),
    send_ns: u64,
    wait_ns: u64,
    busy: Vec<(usize, u64, u64)>,
}

impl Round {
    fn slowest(&self) -> u64 {
        self.busy.iter().map(|(_, a, b)| b - a).max().unwrap_or(0)
    }

    fn fastest(&self) -> u64 {
        self.busy.iter().map(|(_, a, b)| b - a).min().unwrap_or(0)
    }
}

/// Rebuilds the rounds of a traced fit from both ends' transport calls. A
/// round starts at a coordinator send that follows a receive (the
/// coordinator writes every worker's frame before reading any reply);
/// the j-th request on a connection is the j-th one its worker received.
fn rounds(coordinator: &[Vec<WireCall>], workers: &[Vec<WireCall>]) -> Result<Vec<Round>, String> {
    let mut busy = Vec::new();
    for (w, calls) in workers.iter().enumerate() {
        let recvs: Vec<&WireCall> = calls.iter().filter(|c| !c.send).collect();
        let sends: Vec<&WireCall> = calls.iter().filter(|c| c.send).collect();
        if recvs.len() != sends.len() {
            return Err(format!(
                "worker {w} received {} requests but sent {} replies",
                recvs.len(),
                sends.len()
            ));
        }
        busy.push(
            recvs
                .iter()
                .zip(&sends)
                .map(|(r, s)| (r.end, s.end))
                .collect::<Vec<_>>(),
        );
    }
    let mut calls = Vec::new();
    for (w, log) in coordinator.iter().enumerate() {
        let mut sent = 0;
        for call in log {
            calls.push((w, sent, *call));
            sent += call.send as usize;
        }
        if sent != busy[w].len() {
            return Err(format!(
                "coordinator sent {sent} requests to worker {w}, which received {}",
                busy[w].len()
            ));
        }
    }
    calls.sort_by_key(|(_, _, c)| c.start);
    let mut rounds: Vec<Round> = Vec::new();
    let mut after_recv = true;
    for (w, j, call) in calls {
        if call.send && after_recv {
            rounds.push(Round {
                span: (call.start, call.end),
                send_ns: 0,
                wait_ns: 0,
                busy: Vec::new(),
            });
        }
        let round = rounds
            .last_mut()
            .ok_or("a reply arrived before any request")?;
        round.span.1 = round.span.1.max(call.end);
        if call.send {
            round.send_ns += call.end - call.start;
            let (a, b) = busy[w][j];
            round.busy.push((w, a, b));
        } else {
            round.wait_ns += call.end - call.start;
        }
        after_recv = !call.send;
    }
    Ok(rounds)
}

fn traced(args: &Args, report: &mut Report, mut fleet: Fleet) -> Result<(), String> {
    let t = Instant::now();
    let (plain, counters) = fit_once(&mut fleet, &kmeans())?;
    let untraced = t.elapsed().as_secs_f64();
    report.op(true);
    report.set("fit_s", untraced, 1);

    let stages = Log::default();
    let traced_kmeans = KMeans::params(K)
        .seed(FIT_SEED)
        .init(TimedInit::new(InitMethod::default(), stages.clone()))
        .refine(TimedRefine::new(
            Lloyd(LloydConfig {
                max_iterations: MAX_ITERS,
                ..LloydConfig::default()
            }),
            stages.clone(),
        ));
    set_tracing(true);
    let f0 = now_ns();
    let outcome = fit_once(&mut fleet, &traced_kmeans);
    let f1 = now_ns();
    set_tracing(false);
    let (model, traced_counters) = outcome?;
    report.op(true);
    Fingerprint::of(&model, &traced_counters).check_against(
        &Fingerprint::of(&plain, &counters),
        "the traced fit",
        report,
    );
    for (name, value) in &traced_counters {
        report.set(name, *value as f64, 1);
    }

    let coordinator: Vec<Vec<WireCall>> =
        fleet.coordinator_calls.iter().map(Log::snapshot).collect();
    let reads: u64 = fleet
        .reads
        .iter()
        .map(|r| r.reads.load(Ordering::Relaxed))
        .sum();
    let read_ns: u64 = fleet
        .reads
        .iter()
        .map(|r| r.read_ns.load(Ordering::Relaxed))
        .sum();
    let peak_resident = fleet
        .sources
        .iter()
        .map(|s| s.residency().peak_bytes)
        .max()
        .unwrap_or(0);
    for e in fleet.close() {
        report.problem(e);
    }
    let workers: Vec<Vec<WireCall>> = fleet.worker_calls.iter().map(Log::snapshot).collect();
    drop(fleet);

    let mut ledger = Ledger::default();
    let root = ledger.add("fit", "benchmark", (f0, f1), None, 0);
    fits::stage_spans(report, &mut ledger, root, &stages.snapshot(), &model);
    let rounds = rounds(&coordinator, &workers)?;
    let (mut send, mut wait, mut busy, mut straggle, mut spans) = (0u64, 0u64, 0u64, 0u64, 0u64);
    for (r, round) in rounds.iter().enumerate() {
        send += round.send_ns;
        wait += round.wait_ns;
        busy += round.slowest();
        if round.busy.len() > 1 {
            straggle += round.slowest() - round.fastest();
        }
        spans += round.span.1 - round.span.0;
        let id = ledger.add(
            "round",
            "cluster::coordinator",
            round.span,
            Some(root),
            r as u64,
        );
        for &(w, a, b) in &round.busy {
            ledger.add("worker.busy", "cluster::worker", (a, b), Some(id), w as u64);
        }
    }
    let wire_bytes: u64 = coordinator.iter().flatten().map(|c| c.bytes).sum();
    report.check(
        traced_counters.contains(&("wire.bytes", wire_bytes)),
        || "transport byte counts disagree with the cluster's".into(),
    );
    let ms = |ns: f64| ns / 1e6;
    let wall = (f1 - f0) as f64;
    let residual = wait as f64 - busy as f64;
    let local = wall - spans as f64;
    let n = rounds.len();
    report.set(
        "wire.frames",
        coordinator.iter().map(Vec::len).sum::<usize>() as f64,
        1,
    );
    report.set("coordinator.send_ms", ms(send as f64), n);
    report.set("coordinator.wait_ms", ms(wait as f64), n);
    report.set("worker.busy_ms", ms(busy as f64), n);
    report.set("worker.straggle_ms", ms(straggle as f64), n);
    report.set("wire.residual_ms", ms(residual), n);
    report.set("coordinator.local_ms", ms(local), 1);
    report.set("blockfile.read_ms", ms(read_ns as f64), reads as usize);
    report.set("blockfile.reads", reads as f64, 1);
    report.set(
        "blockfile.peak_resident_mb",
        peak_resident as f64 / (1024.0 * 1024.0),
        1,
    );
    report.set("trace.overhead_frac", wall / 1e9 / untraced - 1.0, 1);
    // Blocking path: coordinator send + slowest worker + residual + local.
    let accounted = send as f64 + busy as f64 + residual + local;
    report.set("ledger.unaccounted_frac", (wall - accounted) / wall, 1);

    // Replays, after the traced workload, on the same data.
    let points = generate()?;
    let exec = Executor::new(Parallelism::Auto);
    replay::kernel_pass(report, &model, &points, &exec);
    report.set("distance.eval_ns", replay::distance_eval_ns(&points), 7);
    report.set("par.dispatch_us", replay::dispatch_us(&exec), 7);
    replay::serving(report, &model, &points);
    fits::check_labels(report, &model, &points, args.seed);
    report.absent(&[
        "client.send_us.small",
        "client.send_us.bulk",
        "client.wait_us.small",
        "client.wait_us.bulk",
        "server.residual_us.small",
        "server.residual_us.bulk",
        "engine.requests_per_batch",
        "engine.swap_us",
        "loadgen.late_p99_us",
        "serve_small_p50_us",
        "serve_small_p99_us",
        "serve_bulk_p50_us",
        "serve_bulk_p99_us",
        "serve_capacity_rps",
    ]);
    sys::write_trace(&ledger, "fit-dist", args.seed, report);
    Ok(())
}
