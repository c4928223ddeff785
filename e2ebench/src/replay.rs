//! Replays of the inner layers on a workload's own inputs, run after the
//! traced workload finishes: distance, executor dispatch, the assign
//! kernel, the SKS1 codec and the in-process serving engine.

use crate::report::Report;
use crate::stats::{median, time_per_call_us};
use scalable_kmeans::cluster::protocol::MAX_FRAME_PAYLOAD;
use scalable_kmeans::cluster::WireMessage;
use scalable_kmeans::core::distance::sq_dist;
use scalable_kmeans::core::PreparedPredictor;
use scalable_kmeans::data::PointMatrix;
use scalable_kmeans::par::{Executor, Parallelism};
use scalable_kmeans::serve::{EngineConfig, ServeEngine, ServeMessage};
use scalable_kmeans::KMeansModel;
use std::hint::black_box;
use std::time::Instant;

/// `count` rows of `points` starting at row `from`.
pub fn rows(points: &PointMatrix, from: usize, count: usize) -> PointMatrix {
    let d = points.dim();
    PointMatrix::from_flat(points.as_slice()[from * d..(from + count) * d].to_vec(), d)
        .expect("a row range of a valid matrix is valid")
}

/// `distance.eval_ns`: one `sq_dist` between neighbouring workload rows.
pub fn distance_eval_ns(points: &PointMatrix) -> f64 {
    let sample = rows(points, 0, points.len().min(4096));
    let n = sample.len();
    let per_pass_us = time_per_call_us(7, 64, || {
        let mut acc = 0.0;
        for i in 1..n {
            acc += sq_dist(black_box(sample.row(i - 1)), black_box(sample.row(i)));
        }
        black_box(acc);
    });
    per_pass_us * 1e3 / (n - 1) as f64
}

/// `par.dispatch_us`: one `map_shards` over a single trivial shard — the
/// fixed cost every executor call pays before any work.
pub fn dispatch_us(exec: &Executor) -> f64 {
    time_per_call_us(7, 2000, || {
        black_box(exec.map_shards(1, |_, range| range.len()));
    })
}

/// `kernel.pass_ms`, `kernel.evals_per_point`, `kernel.prune_rate`: one
/// `PreparedPredictor::assign` over the whole data at the fitted centers,
/// three times; the counters must repeat exactly.
pub fn kernel_pass(
    report: &mut Report,
    model: &KMeansModel,
    points: &PointMatrix,
    exec: &Executor,
) {
    let predictor = PreparedPredictor::new(model.centers().clone(), exec.clone());
    let want = model.predict(points).expect("dims match");
    let mut walls = Vec::new();
    let mut stats = None;
    for _ in 0..3 {
        let t = Instant::now();
        let (labels, _, s) = predictor.assign(points).expect("dims match");
        walls.push(t.elapsed().as_secs_f64() * 1e3);
        report.check(labels == want, || {
            "the kernel pass disagrees with the model's predict".into()
        });
        if let Some(prev) = stats.replace(s) {
            report.check(prev == s, || {
                "nondeterminism: kernel counters drifted between passes".into()
            });
        }
    }
    let s = stats.expect("three passes ran");
    let n = points.len() as f64;
    report.set("kernel.pass_ms", median(&walls), walls.len());
    report.set(
        "kernel.evals_per_point",
        s.distance_computations as f64 / n,
        1,
    );
    report.set(
        "kernel.prune_rate",
        s.pruned_by_norm_bound as f64 / (n * model.centers().len() as f64),
        1,
    );
}

/// Codec time that lies on a request's receive-wait path: the server's
/// decode of the request and encode of the reply plus the client's
/// decode of the reply, for 16- and 1,024-point predicts.
pub struct Codec {
    pub b16_us: f64,
    pub b1024_us: f64,
}

/// Serving-path replays at the model's shape on rows of `points`: the
/// SKS1 codec, the kernel sweep and refold, and the engine in process.
/// Reports the `protocol.*`, `kernel.sweep_us.*`, `kernel.refold_us.b256`
/// and `engine.assign_us.*` metrics.
pub fn serving(report: &mut Report, model: &KMeansModel, points: &PointMatrix) -> Codec {
    let exec = Executor::new(Parallelism::Auto);
    let predictor = PreparedPredictor::new(model.centers().clone(), exec.clone());
    let engine = ServeEngine::with_config(model.to_record(), exec, EngineConfig::default())
        .expect("a fitted model installs");
    let mut on_wait_path = [0.0; 2];
    for (i, size, reps) in [(0, 16, 2000), (1, 1024, 100)] {
        let batch = rows(points, 0, size);
        let labels = model.predict(&batch).expect("dims match");
        let request = ServeMessage::Predict {
            points: batch.clone(),
            deadline_ms: None,
        };
        let reply = ServeMessage::Labels {
            revision: 1,
            labels: labels.clone(),
            cost: model.cost_of(&batch).expect("dims match"),
        };
        let (request_frame, reply_frame) = (request.encode_frame(), reply.encode_frame());
        let decode = |frame: &[u8]| {
            ServeMessage::decode_frame(frame, MAX_FRAME_PAYLOAD).expect("a valid frame")
        };
        let encode_request = time_per_call_us(7, reps, || {
            black_box(request.encode_frame());
        });
        let encode_reply = time_per_call_us(7, reps, || {
            black_box(reply.encode_frame());
        });
        let decode_request = time_per_call_us(7, reps, || {
            black_box(decode(&request_frame));
        });
        let decode_reply = time_per_call_us(7, reps, || {
            black_box(decode(&reply_frame));
        });
        let sweep = time_per_call_us(7, reps, || {
            black_box(predictor.assign(&batch).expect("dims match"));
        });
        on_wait_path[i] = decode_request + encode_reply + decode_reply;
        let [encode_name, decode_name, sweep_name, engine_name] = if size == 16 {
            [
                "protocol.encode_us.b16",
                "protocol.decode_us.b16",
                "kernel.sweep_us.b16",
                "engine.assign_us.b16",
            ]
        } else {
            [
                "protocol.encode_us.b1024",
                "protocol.decode_us.b1024",
                "kernel.sweep_us.b1024",
                "engine.assign_us.b1024",
            ]
        };
        report.set(encode_name, encode_request + encode_reply, 7);
        report.set(decode_name, decode_request + decode_reply, 7);
        report.set(sweep_name, sweep, 7);

        // The engine in process, with no socket: batcher hand-off, sweep,
        // refold, reply hand-off.
        let mut samples = Vec::with_capacity(reps * 5);
        for _ in 0..reps * 5 {
            let input = batch.clone();
            let t = Instant::now();
            let answer = engine.assign(input, true);
            samples.push(t.elapsed().as_secs_f64() * 1e6);
            match answer {
                Ok(r) => report.check(r.labels == labels, || {
                    format!("{engine_name}: labels differ")
                }),
                Err(e) => report.problem(format!("{engine_name}: the engine failed: {e:?}")),
            }
        }
        report.set(engine_name, median(&samples), samples.len());
    }

    let b256 = rows(points, 0, 256);
    let (_, d2, _) = predictor.assign(&b256).expect("dims match");
    report.check(
        predictor.cost_from_d2(&d2).to_bits()
            == model.cost_of(&b256).expect("dims match").to_bits(),
        || "the cost refold differs from the local cost".into(),
    );
    let refold = time_per_call_us(7, 2000, || {
        black_box(predictor.cost_from_d2(black_box(&d2)));
    });
    report.set("kernel.refold_us.b256", refold, 7);
    Codec {
        b16_us: on_wait_path[0],
        b1024_us: on_wait_path[1],
    }
}
