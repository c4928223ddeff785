//! What the fit workloads share: timed set-ups, the measured run of
//! repeated fits with its exact-repeat checks, and the pipeline-stage
//! spans of a traced fit.

use crate::ledger::Ledger;
use crate::report::Report;
use crate::seams::StageCall;
use crate::speed::Speed;
use crate::stats::median;
use crate::sys;
use crate::Args;
use scalable_kmeans::core::distance::sq_dist;
use scalable_kmeans::data::PointMatrix;
use scalable_kmeans::util::Rng;
use scalable_kmeans::KMeansModel;
use std::time::Instant;

/// Set-ups per untraced run; `setup_s` is their fast decile (the
/// fastest).
const SETUPS: usize = 5;

/// Runs `set_up` several times (once when traced) and keeps the last
/// result; the previous one is dropped, and so torn down, before the next
/// starts, outside the timed region. Returns each set-up's wall seconds.
pub fn timed_setups<T>(
    args: &Args,
    mut set_up: impl FnMut() -> Result<T, String>,
) -> Result<(Vec<f64>, T), String> {
    let repeats = if args.trace { 1 } else { SETUPS };
    let mut times = Vec::with_capacity(repeats);
    let mut last = None;
    for _ in 0..repeats {
        drop(last.take());
        let t = Instant::now();
        let value = set_up()?;
        times.push(t.elapsed().as_secs_f64());
        last = Some(value);
    }
    Ok((times, last.expect("at least one set-up ran")))
}

/// Every value of a fit that must repeat exactly between fits of the same
/// inputs, as bits.
#[derive(Clone, Debug, PartialEq)]
pub struct Fingerprint(Vec<(&'static str, Vec<u64>)>);

impl Fingerprint {
    pub fn of(model: &KMeansModel, counters: &[(&'static str, u64)]) -> Self {
        let mut fields = vec![
            (
                "centers",
                model
                    .centers()
                    .as_slice()
                    .iter()
                    .map(|v| v.to_bits())
                    .collect(),
            ),
            ("cost_per_point", vec![model.cost().to_bits()]),
            ("pipeline.lloyd_iters", vec![model.iterations() as u64]),
            (
                "pipeline.candidates",
                vec![model.init_stats().candidates as u64],
            ),
            ("distance_computations", vec![model.distance_computations()]),
            ("pruned_by_norm_bound", vec![model.pruned_by_norm_bound()]),
        ];
        fields.extend(counters.iter().map(|&(name, v)| (name, vec![v])));
        Fingerprint(fields)
    }

    /// Reports, as nondeterminism, every field in which `self` differs
    /// from `first`.
    pub fn check_against(&self, first: &Fingerprint, what: &str, report: &mut Report) {
        let drift: Vec<&str> = self
            .0
            .iter()
            .zip(&first.0)
            .filter(|(a, b)| a != b)
            .map(|(a, _)| a.0)
            .collect();
        report.check(drift.is_empty(), || {
            format!("nondeterminism: {what} differs from the first fit in {drift:?}")
        });
    }
}

/// One fit's result and the exact counters taken around it.
pub type FitOutcome = Result<(KMeansModel, Vec<(&'static str, u64)>), String>;

/// Runs `fit` back to back until `seconds` have passed (at least once),
/// checks that every fit repeats the first exactly, and reports
/// `ms_per_op` (the median wall time of a fit, scaled by the speed probes
/// taken between fits),
/// `cost_per_point` (final potential ÷ `n`) and `peak_rss_mb` (the
/// high-water RSS of the fits, the mark reset after set-up); the median
/// wall time of a fit, `fit_s`, is printed beside them. Returns the first
/// model.
pub fn measure(
    report: &mut Report,
    seconds: f64,
    n: usize,
    mut fit: impl FnMut() -> FitOutcome,
) -> Option<KMeansModel> {
    sys::reset_peak_rss(report);
    let mut speed = Speed::new();
    let start = Instant::now();
    let mut walls = Vec::new();
    let mut first: Option<(KMeansModel, Fingerprint)> = None;
    loop {
        if let Err(e) = speed.probe() {
            report.problem(e);
        }
        let t = Instant::now();
        let outcome = fit();
        let wall = t.elapsed().as_secs_f64();
        report.op(outcome.is_ok());
        match outcome {
            Ok((model, counters)) => {
                walls.push(wall);
                let print = Fingerprint::of(&model, &counters);
                if let Some((_, f0)) = &first {
                    print.check_against(f0, &format!("fit {}", walls.len()), report);
                } else {
                    for (name, v) in &counters {
                        report.info(*name, *v as f64, "count", 1);
                    }
                    first = Some((model, print));
                }
            }
            Err(e) => eprintln!("fit failed: {e}"),
        }
        if start.elapsed().as_secs_f64() >= seconds {
            break;
        }
    }
    sys::report_peak_rss(report);
    let (model, _) = first?;
    if let Err(e) = speed.probe() {
        report.problem(e);
    }
    let fit_s = median(&walls);
    let scaled = speed.scale(fit_s, report);
    report.set("ms_per_op", scaled * 1e3, walls.len());
    report.info("fit_s", fit_s, "s", walls.len());
    report.set("cost_per_point", model.cost() / n as f64, walls.len());
    report.info(
        "pipeline.lloyd_iters",
        model.iterations() as f64,
        "count",
        walls.len(),
    );
    Some(model)
}

/// Rows whose labels [`check_labels`] checks.
const CHECKED_ROWS: usize = 1024;

/// Checks, outside every timed region, the fitted model's labels on rows
/// of `points` drawn by `seed` against a brute-force nearest center: each
/// label's squared distance must be the smallest, up to rounding.
pub fn check_labels(report: &mut Report, model: &KMeansModel, points: &PointMatrix, seed: u64) {
    let mut rng = Rng::derive(seed, &[0xf1, 1]);
    let idx: Vec<usize> = (0..CHECKED_ROWS)
        .map(|_| rng.range_usize(points.len()))
        .collect();
    let sample = points.select(&idx);
    let labels = match model.predict(&sample) {
        Ok(labels) => labels,
        Err(e) => return report.problem(format!("predict on the fitted model failed: {e}")),
    };
    let centers = model.centers();
    let sq_norm = |v: &[f64]| v.iter().map(|x| x * x).sum::<f64>();
    let wrong = labels
        .iter()
        .enumerate()
        .filter(|&(i, &label)| {
            let row = sample.row(i);
            let nearest = (0..centers.len())
                .map(|c| sq_dist(row, centers.row(c)))
                .fold(f64::INFINITY, f64::min);
            let center = centers.row(label as usize);
            sq_dist(row, center) > nearest + 1e-9 * (sq_norm(row) + sq_norm(center))
        })
        .count();
    report.check(wrong == 0, || {
        format!("{wrong} of {CHECKED_ROWS} sampled labels are not the nearest center")
    });
}

/// Adds the traced fit's stage spans under `root` and reports
/// `pipeline.init_s`, `pipeline.refine_s`, `pipeline.lloyd_iters`,
/// `pipeline.candidates` and `pipeline.seed_cost_ratio`.
pub fn stage_spans(
    report: &mut Report,
    ledger: &mut Ledger,
    root: usize,
    stages: &[StageCall],
    model: &KMeansModel,
) {
    for stage in ["pipeline.init", "pipeline.refine"] {
        let calls: Vec<&StageCall> = stages.iter().filter(|s| s.stage == stage).collect();
        report.check(calls.len() == 1, || {
            format!("{stage} ran {} times in one traced fit", calls.len())
        });
        if let Some(call) = calls.first() {
            let span = ledger.add(
                stage,
                "core::pipeline",
                (call.start, call.end),
                Some(root),
                0,
            );
            let secs = ledger.duration(span) as f64 / 1e9;
            if stage == "pipeline.init" {
                report.set("pipeline.init_s", secs, 1);
                report.set("pipeline.candidates", call.candidates as f64, 1);
                report.set("pipeline.seed_cost_ratio", call.seed_cost / model.cost(), 1);
            } else {
                report.set("pipeline.refine_s", secs, 1);
                report.set("pipeline.lloyd_iters", call.iterations as f64, 1);
            }
        }
    }
}
