//! `fit-kdd`: `KMeans::params(100).fit` on `KddLike` (n = 500,000,
//! d = 42) in memory, with the library's defaults: k-means|| (ℓ = 2k,
//! r = 5), Lloyd to assignment stability, `Parallelism::Auto`. The
//! paper's large dataset and "time to a converged model": pruned kernel
//! sweeps carry nearly all of the wall; there is no wire and no socket.

use crate::fits::{self, Fingerprint};
use crate::ledger::Ledger;
use crate::replay;
use crate::report::Report;
use crate::seams::{Log, TimedInit, TimedRefine};
use crate::stats::fast_decile;
use crate::sys::{self, now_ns};
use crate::Args;
use scalable_kmeans::core::pipeline::Lloyd;
use scalable_kmeans::data::synth::KddLike;
use scalable_kmeans::data::PointMatrix;
use scalable_kmeans::par::{Executor, Parallelism};
use scalable_kmeans::{InitMethod, KMeans, LloydConfig};
use std::time::Instant;

const N: usize = 500_000;
const K: usize = 100;
/// The fit's data and seed are part of the workload, not drawn from
/// `--seed`: across data/fit seeds 1..=5 a converged fit took 76–102
/// Lloyd iterations (7.0–10.1 s) and its cost moved by 14%, which would
/// swamp any regression bound. `--seed` picks the rows whose labels are
/// checked against a brute-force nearest center.
const DATA_SEED: u64 = 5;
const FIT_SEED: u64 = 5;

fn generate() -> Result<PointMatrix, String> {
    let synth = KddLike::new(N)
        .generate(DATA_SEED)
        .map_err(|e| e.to_string())?;
    Ok(synth.dataset.into_parts().1)
}

pub fn run(args: &Args, report: &mut Report) -> Result<(), String> {
    let (setup_s, points) = fits::timed_setups(args, generate)?;
    let kmeans = KMeans::params(K).seed(FIT_SEED);
    if !args.trace {
        report.set("setup_s", fast_decile(&setup_s), setup_s.len());
        let model = fits::measure(report, args.seconds, N, || {
            Ok((kmeans.fit(&points).map_err(|e| e.to_string())?, Vec::new()))
        })
        .ok_or("no fit succeeded")?;
        fits::check_labels(report, &model, &points, args.seed);
        return Ok(());
    }

    let t = Instant::now();
    let plain = kmeans.fit(&points).map_err(|e| e.to_string())?;
    let untraced = t.elapsed().as_secs_f64();
    report.op(true);
    report.set("fit_s", untraced, 1);
    fits::check_labels(report, &plain, &points, args.seed);

    let stages = Log::default();
    let traced_kmeans = KMeans::params(K)
        .seed(FIT_SEED)
        .init(TimedInit::new(InitMethod::default(), stages.clone()))
        .refine(TimedRefine::new(
            Lloyd(LloydConfig::default()),
            stages.clone(),
        ));
    let f0 = now_ns();
    let traced = traced_kmeans.fit(&points).map_err(|e| e.to_string())?;
    let f1 = now_ns();
    report.op(true);
    Fingerprint::of(&traced, &[]).check_against(
        &Fingerprint::of(&plain, &[]),
        "the traced fit",
        report,
    );

    let mut ledger = Ledger::default();
    let root = ledger.add("fit", "benchmark", (f0, f1), None, 0);
    fits::stage_spans(report, &mut ledger, root, &stages.snapshot(), &traced);
    let wall = ledger.duration(root) as f64;
    report.set("trace.overhead_frac", wall / 1e9 / untraced - 1.0, 1);
    // Blocking path: init + refine.
    report.set(
        "ledger.unaccounted_frac",
        ledger.self_time(root) as f64 / wall,
        1,
    );

    let exec = Executor::new(Parallelism::Auto);
    replay::kernel_pass(report, &traced, &points, &exec);
    report.set("distance.eval_ns", replay::distance_eval_ns(&points), 7);
    report.set("par.dispatch_us", replay::dispatch_us(&exec), 7);
    replay::serving(report, &traced, &points);
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
    sys::write_trace(&ledger, "fit-kdd", args.seed, report);
    Ok(())
}
