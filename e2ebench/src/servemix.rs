//! `serve-mix`: a `ServeEngine` with its default config and an `Auto`
//! executor (`skm serve`'s defaults) behind real localhost TCP, serving a
//! `GaussMixture` model (d = 15, k = 8, the shape of the serve bench) to
//! two client connections. An open-loop phase at a fixed offered rate
//! gives latency; a closed-loop phase over the same mix gives capacity.
//! Here the kernel sweep is a small share of a request: socket, codec,
//! engine hand-offs and executor dispatch dominate.

use crate::fits::{self, Fingerprint};
use crate::ledger::Ledger;
use crate::loadgen::{self, Answers, Class, Ctx, Mix, Outcome, Pace, Pool, TracedOp};
use crate::replay::{self, rows};
use crate::report::Report;
use crate::seams::{set_tracing, Log, TimedInit, TimedRefine, TimedTransport, WireCall};
use crate::speed::Speed;
use crate::stats::{fast_decile, median, percentile};
use crate::sys::{self, now_ns};
use crate::Args;
use scalable_kmeans::cluster::{ClusterError, TcpTransport};
use scalable_kmeans::core::pipeline::Lloyd;
use scalable_kmeans::data::synth::GaussMixture;
use scalable_kmeans::data::PointMatrix;
use scalable_kmeans::par::{Executor, Parallelism};
use scalable_kmeans::serve::{
    session, EngineConfig, ServeClient, ServeEngine, ServeMessage, TcpServeServer,
};
use scalable_kmeans::{InitMethod, KMeans, KMeansModel, LloydConfig};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

const TRAIN_N: usize = 400_000;
const DIM: usize = 15;
const K: usize = 8;
const CENTER_VARIANCE: f64 = 50.0;
/// The served models' data and seed are pinned (see fit-kdd); `--seed`
/// picks the queries, the request mix and the arrival times.
const DATA_SEED: u64 = 7;
const FIT_SEED: u64 = 1;
/// Offered rate of the open-loop phase, requests per second over both
/// connections: about half the closed-loop capacity of the unmodified
/// library (~8,000/s on a 2-CPU x86-64 VM). A constant of the workload,
/// never derived at run time.
const OFFERED_RPS: f64 = 4000.0;
/// Share of an untraced run spent in the open-loop phase; the closed loop
/// takes the rest.
const OPEN_SHARE: f64 = 0.2;
/// Length of one closed-loop window: each gives one sample of wall time
/// per request, and `ms_per_op` is their fast decile.
const WINDOW_S: f64 = 0.5;
/// Client connections, one generator thread each: at most the 2 CPUs of
/// that box.
const CONNECTIONS: usize = 2;
const IO_TIMEOUT: Duration = Duration::from_secs(60);

type Client = ServeClient<TimedTransport<TcpTransport<ServeMessage>>>;

/// Two models fitted on the two halves of the training data, the engine
/// serving the first, its TCP front door, and the connected clients.
struct Deployment {
    train: PointMatrix,
    models: [KMeansModel; 2],
    engine: ServeEngine,
    addr: SocketAddr,
    traced: bool,
    server: Option<JoinHandle<Result<(), ClusterError>>>,
    clients: Vec<Client>,
    client_calls: Vec<Log<WireCall>>,
    /// Server-side calls per connection (traced deployments only).
    server_calls: Vec<Log<WireCall>>,
}

fn fit_half(
    train: &PointMatrix,
    half: usize,
    fit_walls: &mut Vec<f64>,
) -> Result<KMeansModel, String> {
    let rows = rows(train, half * TRAIN_N / 2, TRAIN_N / 2);
    let t = Instant::now();
    let model = KMeans::params(K)
        .seed(FIT_SEED)
        .fit(&rows)
        .map_err(|e| e.to_string())?;
    fit_walls.push(t.elapsed().as_secs_f64());
    Ok(model)
}

impl Deployment {
    /// The untraced deployment runs `TcpServeServer`, the front door `skm
    /// serve` uses; the traced one runs the same per-connection `session`
    /// loop over decorated transports.
    fn set_up(traced: bool, fit_walls: &mut Vec<f64>) -> Result<Deployment, String> {
        let err = |e: &dyn std::fmt::Display| e.to_string();
        let train = GaussMixture::new(K)
            .dim(DIM)
            .points(TRAIN_N)
            .center_variance(CENTER_VARIANCE)
            .generate(DATA_SEED)
            .map_err(|e| err(&e))?
            .dataset
            .into_parts()
            .1;
        let models = [
            fit_half(&train, 0, fit_walls)?,
            fit_half(&train, 1, fit_walls)?,
        ];
        let engine = ServeEngine::with_config(
            models[0].to_record(),
            Executor::new(Parallelism::Auto),
            EngineConfig::default(),
        )
        .map_err(|e| err(&e))?;
        let server_calls: Vec<Log<WireCall>> = if traced {
            (0..CONNECTIONS).map(|_| Log::default()).collect()
        } else {
            Vec::new()
        };
        let (addr, server) = if traced {
            spawn_traced_server(&engine, server_calls.clone()).map_err(|e| err(&e))?
        } else {
            let server = TcpServeServer::bind("127.0.0.1:0").map_err(|e| err(&e))?;
            let addr = server.local_addr().map_err(|e| err(&e))?;
            let engine = engine.clone();
            let handle = std::thread::spawn(move || server.serve(engine, Some(IO_TIMEOUT), false));
            (addr, handle)
        };
        let mut d = Deployment {
            train,
            models,
            engine,
            addr,
            traced,
            server: Some(server),
            clients: Vec::new(),
            client_calls: Vec::new(),
            server_calls,
        };
        // One at a time: the server accepts connections in client order.
        for _ in 0..CONNECTIONS {
            let calls = Log::default();
            let stream = TcpStream::connect(addr).map_err(|e| err(&e))?;
            let tcp =
                TcpTransport::<ServeMessage>::new(stream, Some(IO_TIMEOUT)).map_err(|e| err(&e))?;
            let client = ServeClient::handshake(TimedTransport::new(tcp, calls.clone()))
                .map_err(|e| err(&e))?;
            d.clients.push(client);
            d.client_calls.push(calls);
        }
        Ok(d)
    }

    /// Disconnects the clients and stops the server.
    fn close(&mut self) -> Result<(), String> {
        let Some(server) = self.server.take() else {
            return Ok(());
        };
        self.clients.clear();
        if self.traced {
            // The traced server serves exactly CONNECTIONS sessions; stand
            // in for any client that never connected.
            for _ in self.client_calls.len()..CONNECTIONS {
                let _ = TcpStream::connect(self.addr);
            }
        } else {
            // TcpServeServer stops on a client's Shutdown.
            ServeClient::connect(&self.addr.to_string(), Some(IO_TIMEOUT))
                .and_then(|c| c.shutdown())
                .map_err(|e| format!("cannot stop the server: {e}"))?;
        }
        match server.join() {
            Ok(result) => result.map_err(|e| format!("the server ended with {e}")),
            Err(_) => Err("the server thread panicked".into()),
        }
    }
}

impl Drop for Deployment {
    fn drop(&mut self) {
        if let Err(e) = self.close() {
            eprintln!("serve-mix teardown: {e}");
        }
    }
}

/// Accepts `calls.len()` connections and serves each with `session` over
/// a decorated transport; returns once every session has ended.
fn spawn_traced_server(
    engine: &ServeEngine,
    calls: Vec<Log<WireCall>>,
) -> std::io::Result<(SocketAddr, JoinHandle<Result<(), ClusterError>>)> {
    let listener = TcpListener::bind("127.0.0.1:0")?;
    let addr = listener.local_addr()?;
    let engine = engine.clone();
    let handle = std::thread::spawn(move || -> Result<(), ClusterError> {
        let mut sessions = Vec::new();
        for log in calls {
            let (stream, _) = listener.accept()?;
            let tcp = TcpTransport::<ServeMessage>::new(stream, Some(IO_TIMEOUT))?;
            let mut transport = TimedTransport::new(tcp, log);
            let engine = engine.clone();
            sessions.push(std::thread::spawn(move || session(&mut transport, &engine)));
        }
        for s in sessions {
            s.join()
                .map_err(|_| ClusterError::Protocol("a session thread panicked".into()))??;
        }
        Ok(())
    });
    Ok((addr, handle))
}

/// Runs one phase on every connection at once; returns each connection's
/// outcome and the phase's start.
fn phase(
    d: &mut Deployment,
    mixes: &mut [Mix],
    ctx: &Ctx,
    pace: &Pace,
    seconds: f64,
    traced: bool,
) -> (Vec<Outcome>, Instant) {
    let start = Instant::now() + Duration::from_millis(10);
    let end = start + Duration::from_secs_f64(seconds);
    set_tracing(traced);
    let outcomes: Vec<Outcome> = std::thread::scope(|s| {
        let handles: Vec<_> = d
            .clients
            .iter_mut()
            .zip(mixes.iter_mut())
            .zip(&d.client_calls)
            .map(|((client, mix), calls)| {
                let calls = traced.then_some(calls);
                s.spawn(move || loadgen::drive(client, mix, ctx, pace, (start, end), calls))
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("a generator thread panicked"))
            .collect()
    });
    set_tracing(false);
    (outcomes, start)
}

/// Seconds from a phase's start until its last connection finished.
fn phase_wall(outcomes: &[Outcome], start: Instant) -> f64 {
    let end = outcomes
        .iter()
        .filter_map(|o| o.finished)
        .max()
        .expect("a phase ran");
    (end - start).as_secs_f64()
}

fn capacity(outcomes: &[Outcome], start: Instant) -> f64 {
    let ops: u64 = outcomes.iter().map(|o| o.ops).sum();
    ops as f64 / phase_wall(outcomes, start)
}

pub fn run(args: &Args, report: &mut Report) -> Result<(), String> {
    let mut fit_walls = Vec::new();
    let (setup_s, mut d) =
        fits::timed_setups(args, || Deployment::set_up(args.trace, &mut fit_walls))?;
    let pool = Pool::sample(&d.train, args.seed);
    let answers = [
        Answers::of(&d.models[0], &pool),
        Answers::of(&d.models[1], &pool),
    ];
    let records = [d.models[0].to_record(), d.models[1].to_record()];
    let ctx = Ctx {
        pool: &pool,
        answers: &answers,
        models: &records,
    };
    let mut mixes: Vec<Mix> = (0..CONNECTIONS)
        .map(|c| Mix::new(args.seed, c, c == 1))
        .collect();
    if args.trace {
        return traced(args, report, d, &ctx, &mut mixes, &fit_walls);
    }

    report.set("setup_s", fast_decile(&setup_s), setup_s.len());
    report.set(
        "cost_per_point",
        d.models[0].cost() / (TRAIN_N / 2) as f64,
        fit_walls.len(),
    );
    let open = Pace::Open(OFFERED_RPS / CONNECTIONS as f64);
    sys::reset_peak_rss(report);
    let open_s = args.seconds * OPEN_SHARE;
    let (open_out, _) = phase(&mut d, &mut mixes, &ctx, &open, open_s, false);
    let windows = ((args.seconds - open_s) / WINDOW_S).ceil().max(1.0);
    let window_s = (args.seconds - open_s) / windows;
    let (mut ms_per_op, mut closed_out, mut closed_wall) = (Vec::new(), Vec::new(), 0.0);
    let mut speed = Speed::new();
    speed.probe()?;
    for _ in 0..windows as usize {
        let (out, start) = phase(&mut d, &mut mixes, &ctx, &Pace::Closed, window_s, false);
        speed.probe()?;
        let ops: u64 = out.iter().map(|o| o.ops).sum();
        let wall = phase_wall(&out, start);
        ms_per_op.push(wall * 1e3 / ops.max(1) as f64);
        closed_wall += wall;
        closed_out.extend(out);
    }
    sys::report_peak_rss(report);
    let closed_ops: u64 = closed_out.iter().map(|o| o.ops).sum();
    let scaled = speed.scale(fast_decile(&ms_per_op), report);
    report.set("ms_per_op", scaled, ms_per_op.len());
    report.info(
        "serve_capacity_rps",
        closed_ops as f64 / closed_wall,
        "1/s",
        closed_ops as usize,
    );
    let open_all = Outcome::merge(open_out);
    loadgen::report_latencies(report, &open_all);
    report.info(
        "loadgen.late_p99_us",
        percentile(&open_all.late, 0.99),
        "us",
        open_all.late.len(),
    );
    loadgen::tally(report, &open_all);
    loadgen::tally(report, &Outcome::merge(closed_out));
    if let Err(e) = d.close() {
        report.problem(e);
    }
    Ok(())
}

/// One traced operation split at its layer boundaries.
struct OpLayers {
    class: Class,
    span: (u64, u64),
    send: u64,
    wait: u64,
    /// In-situ engine time: server request decoded → reply ready.
    engine: u64,
}

/// Splits each traced operation of one connection: client-side send and
/// receive wait from the client's calls, and the engine time from the
/// server's calls of the same exchanges (the e-th request the client
/// sent is the e-th one the server received).
fn decompose(
    ops: &[TracedOp],
    client: &[WireCall],
    server: &[WireCall],
) -> Result<Vec<OpLayers>, String> {
    let server_recvs: Vec<&WireCall> = server.iter().filter(|c| !c.send).collect();
    let server_sends: Vec<&WireCall> = server.iter().filter(|c| c.send).collect();
    let mut exchange = Vec::with_capacity(client.len());
    let mut sent = 0;
    for call in client {
        exchange.push(sent);
        sent += call.send as usize;
    }
    ops.iter()
        .map(|op| {
            let (from, to) = op.calls;
            let calls = &client[from..to];
            let (Some(first), Some(last)) = (calls.first(), calls.last()) else {
                return Err(format!(
                    "a {:?} operation left no transport calls",
                    op.class
                ));
            };
            let mut layers = OpLayers {
                class: op.class,
                span: (first.start, last.end),
                send: 0,
                wait: 0,
                engine: 0,
            };
            for (i, call) in calls.iter().enumerate() {
                if call.send {
                    layers.send += call.end - call.start;
                    let e = exchange[from + i];
                    let (Some(r), Some(s)) = (server_recvs.get(e), server_sends.get(e)) else {
                        return Err(format!("the server saw no exchange {e}"));
                    };
                    layers.engine += s.start.saturating_sub(r.end);
                } else {
                    layers.wait += call.end - call.start;
                }
            }
            Ok(layers)
        })
        .collect()
}

fn p50_of(layers: &[&OpLayers], f: impl Fn(&OpLayers) -> u64) -> (f64, usize) {
    let v: Vec<f64> = layers.iter().map(|l| f(l) as f64 / 1e3).collect();
    if v.is_empty() {
        (0.0, 0)
    } else {
        (median(&v), v.len())
    }
}

fn traced(
    args: &Args,
    report: &mut Report,
    mut d: Deployment,
    ctx: &Ctx,
    mixes: &mut [Mix],
    fit_walls: &[f64],
) -> Result<(), String> {
    report.set("fit_s", median(fit_walls), fit_walls.len());
    // The served model's fit, through the decorated pipeline stages.
    let half = rows(&d.train, 0, TRAIN_N / 2);
    let stages = Log::default();
    let kmeans = KMeans::params(K)
        .seed(FIT_SEED)
        .init(TimedInit::new(InitMethod::default(), stages.clone()))
        .refine(TimedRefine::new(
            Lloyd(LloydConfig::default()),
            stages.clone(),
        ));
    let f0 = now_ns();
    let model = kmeans.fit(&half).map_err(|e| e.to_string())?;
    let f1 = now_ns();
    report.op(true);
    Fingerprint::of(&model, &[]).check_against(
        &Fingerprint::of(&d.models[0], &[]),
        "the traced fit",
        report,
    );
    let mut ledger = Ledger::default();
    let fit_root = ledger.add("fit", "benchmark", (f0, f1), None, 0);
    fits::stage_spans(report, &mut ledger, fit_root, &stages.snapshot(), &model);

    let open = Pace::Open(OFFERED_RPS / CONNECTIONS as f64);
    let stats0 = d.engine.stats();
    let (open_out, _) = phase(&mut d, mixes, ctx, &open, args.seconds / 2.0, true);
    let (plain_out, plain_start) =
        phase(&mut d, mixes, ctx, &Pace::Closed, args.seconds / 4.0, false);
    let (closed_out, closed_start) =
        phase(&mut d, mixes, ctx, &Pace::Closed, args.seconds / 4.0, true);
    let stats1 = d.engine.stats();
    let client_calls: Vec<Vec<WireCall>> = d.client_calls.iter().map(Log::snapshot).collect();
    if let Err(e) = d.close() {
        report.problem(e);
    }
    let server_calls: Vec<Vec<WireCall>> = d.server_calls.iter().map(Log::snapshot).collect();

    let mut open_layers = Vec::new();
    let mut closed_layers = Vec::new();
    for c in 0..CONNECTIONS {
        open_layers.extend(decompose(
            &open_out[c].traced,
            &client_calls[c],
            &server_calls[c],
        )?);
        closed_layers.extend(decompose(
            &closed_out[c].traced,
            &client_calls[c],
            &server_calls[c],
        )?);
    }
    let codec = replay::serving(report, &model, &d.train);
    for (class, tag, codec_us) in [
        (Class::Small, "small", codec.b16_us),
        (Class::Bulk, "bulk", codec.b1024_us),
    ] {
        let of: Vec<&OpLayers> = open_layers.iter().filter(|l| l.class == class).collect();
        let (send, n) = p50_of(&of, |l| l.send);
        let (wait, _) = p50_of(&of, |l| l.wait);
        let (engine, _) = p50_of(&of, |l| l.engine);
        let (beside_engine, _) = p50_of(&of, |l| l.wait.saturating_sub(l.engine));
        report.set(&format!("client.send_us.{tag}"), send, n);
        report.set(&format!("client.wait_us.{tag}"), wait, n);
        report.set(
            &format!("server.residual_us.{tag}"),
            beside_engine - codec_us,
            n,
        );
        report.info(format!("engine.insitu_us.{tag}"), engine, "us", n);
    }
    let swaps: Vec<f64> = open_out
        .iter()
        .chain(&closed_out)
        .flat_map(|o| o.class(Class::Swap).to_vec())
        .collect();
    let swap_us = if swaps.is_empty() {
        0.0
    } else {
        median(&swaps)
    };
    report.set("engine.swap_us", swap_us, swaps.len());
    let open_all = Outcome::merge(open_out);
    loadgen::report_traced_latencies(report, &open_all);
    let late = &open_all.late;
    report.set("loadgen.late_p99_us", percentile(late, 0.99), late.len());
    let batches = stats1.batches - stats0.batches;
    report.set(
        "engine.requests_per_batch",
        (stats1.requests - stats0.requests) as f64 / batches.max(1) as f64,
        batches as usize,
    );
    let (plain_cap, traced_cap) = (
        capacity(&plain_out, plain_start),
        capacity(&closed_out, closed_start),
    );
    let plain_ops: u64 = plain_out.iter().map(|o| o.ops).sum();
    report.set("serve_capacity_rps", plain_cap, plain_ops as usize);
    report.set("trace.overhead_frac", plain_cap / traced_cap - 1.0, 1);

    // Ledger over the traced closed loop, where every connection is busy
    // for the whole phase: client send + engine + server residual per
    // request, against connections × phase wall.
    let wall: u64 = closed_out
        .iter()
        .map(|o| (o.finished.expect("a phase ran") - closed_start).as_nanos() as u64)
        .sum();
    let (mut send, mut engine, mut residual) = (0u64, 0u64, 0u64);
    let first = closed_layers.iter().map(|l| l.span.0).min().unwrap_or(0);
    let last = closed_layers.iter().map(|l| l.span.1).max().unwrap_or(0);
    let root = ledger.add("closed-loop", "benchmark", (first, last), None, 0);
    for (i, l) in closed_layers.iter().enumerate() {
        send += l.send;
        engine += l.engine;
        residual += l.wait.saturating_sub(l.engine);
        if i < 2000 {
            let request = ledger.add("request", "serve::client", l.span, Some(root), i as u64);
            let e0 = l.span.0 + l.send;
            ledger.add(
                "engine",
                "serve::engine",
                (e0, e0 + l.engine),
                Some(request),
                i as u64,
            );
        }
    }
    let n = closed_layers.len();
    report.info("ledger.client_send_ms", send as f64 / 1e6, "ms", n);
    report.info("ledger.engine_ms", engine as f64 / 1e6, "ms", n);
    report.info("ledger.server_residual_ms", residual as f64 / 1e6, "ms", n);
    report.set(
        "ledger.unaccounted_frac",
        1.0 - (send + engine + residual) as f64 / wall as f64,
        1,
    );

    let exec = Executor::new(Parallelism::Auto);
    replay::kernel_pass(report, &model, &half, &exec);
    report.set("distance.eval_ns", replay::distance_eval_ns(&half), 7);
    report.set("par.dispatch_us", replay::dispatch_us(&exec), 7);
    report.absent(&[
        "coordinator.round_trips",
        "wire.bytes",
        "wire.frames",
        "coordinator.send_ms",
        "coordinator.wait_ms",
        "worker.busy_ms",
        "worker.straggle_ms",
        "wire.residual_ms",
        "coordinator.local_ms",
        "blockfile.read_ms",
        "blockfile.reads",
        "blockfile.peak_resident_mb",
    ]);
    loadgen::tally(report, &open_all);
    for out in plain_out.iter().chain(&closed_out) {
        loadgen::tally(report, out);
    }
    sys::write_trace(&ledger, "serve-mix", args.seed, report);
    Ok(())
}
