//! The scalable-kmeans benchmark: three workloads driven through the
//! public API from one process, their outputs checked, and either the
//! end-to-end metrics (untraced run) or the per-layer metrics (traced
//! run) printed.
//!
//! ```text
//! e2ebench --workload <fit-kdd|fit-dist|serve-mix> --seed N --seconds S --trace 0|1
//! ```
//!
//! The last line of standard output is one JSON object with the keys
//! `correct`, `attempted`, `failed` and `metrics`. `WORKLOADS.md` next to
//! this crate's manifest describes the workloads, their inputs, and which
//! end-to-end metric each layer should move.

mod fitdist;
mod fitkdd;
mod fits;
mod ledger;
mod loadgen;
mod replay;
mod report;
mod seams;
mod servemix;
mod speed;
mod stats;
mod sys;

use report::Report;

const USAGE: &str =
    "usage: e2ebench --workload <fit-kdd|fit-dist|serve-mix> --seed N --seconds S --trace 0|1";

pub struct Args {
    pub workload: String,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
}

fn parse() -> Result<Args, String> {
    let mut args = Args {
        workload: String::new(),
        seed: 1,
        seconds: 10.0,
        trace: false,
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = || format!("bad value {value:?} for {flag}");
        match flag.as_str() {
            "--workload" => args.workload = value,
            "--seed" => args.seed = value.parse().map_err(|_| bad())?,
            "--seconds" => {
                args.seconds = value.parse().map_err(|_| bad())?;
                if !(args.seconds > 0.0 && args.seconds.is_finite()) {
                    return Err(bad());
                }
            }
            "--trace" => {
                args.trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad()),
                }
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    Ok(args)
}

fn main() {
    let args = match parse() {
        Ok(args) => args,
        Err(e) => {
            eprintln!("e2ebench: {e}\n{USAGE}");
            std::process::exit(2);
        }
    };
    let run: fn(&Args, &mut Report) -> Result<(), String> = match args.workload.as_str() {
        "fit-kdd" => fitkdd::run,
        "fit-dist" => fitdist::run,
        "serve-mix" => servemix::run,
        other => {
            eprintln!("e2ebench: unknown workload {other:?}\n{USAGE}");
            std::process::exit(2);
        }
    };
    let mut report = Report::default();
    if let Err(e) = run(&args, &mut report) {
        report.problem(format!("{}: {e}", args.workload));
    }
    std::process::exit(report.finish(args.trace));
}
