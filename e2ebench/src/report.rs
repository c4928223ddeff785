//! The run's result: named metrics with units and sample counts, the
//! attempted/failed tally, and failed output checks.
//!
//! `finish` prints a table (every metric with its unit and sample count,
//! plus informational figures) and then, as the last line of standard
//! output, one JSON object with exactly the keys `correct`, `attempted`,
//! `failed` and `metrics`. A failed check never becomes a number: the run
//! then reports `"correct": false` with no metrics and exits non-zero.

use std::collections::BTreeMap;

/// End-to-end metrics, reported by every untraced run (`--trace 0`).
pub const END_TO_END: &[(&str, &str)] = &[
    ("setup_s", "s"),
    ("ms_per_op", "ms"),
    ("cost_per_point", "d2/point"),
    ("peak_rss_mb", "MB"),
];

/// Per-layer metrics, reported by every traced run (`--trace 1`). A layer
/// a workload does not have reads 0 (fit-kdd has no wire, for example).
pub const PER_LAYER: &[(&str, &str)] = &[
    ("pipeline.init_s", "s"),
    ("pipeline.refine_s", "s"),
    ("pipeline.lloyd_iters", "count"),
    ("pipeline.candidates", "count"),
    ("pipeline.seed_cost_ratio", "ratio"),
    ("kernel.pass_ms", "ms"),
    ("kernel.evals_per_point", "count"),
    ("kernel.prune_rate", "ratio"),
    ("distance.eval_ns", "ns"),
    ("par.dispatch_us", "us"),
    ("coordinator.round_trips", "count"),
    ("wire.bytes", "bytes"),
    ("wire.frames", "count"),
    ("coordinator.send_ms", "ms"),
    ("coordinator.wait_ms", "ms"),
    ("worker.busy_ms", "ms"),
    ("worker.straggle_ms", "ms"),
    ("wire.residual_ms", "ms"),
    ("coordinator.local_ms", "ms"),
    ("blockfile.read_ms", "ms"),
    ("blockfile.reads", "count"),
    ("blockfile.peak_resident_mb", "MB"),
    ("client.send_us.small", "us"),
    ("client.send_us.bulk", "us"),
    ("client.wait_us.small", "us"),
    ("client.wait_us.bulk", "us"),
    ("protocol.encode_us.b16", "us"),
    ("protocol.encode_us.b1024", "us"),
    ("protocol.decode_us.b16", "us"),
    ("protocol.decode_us.b1024", "us"),
    ("engine.assign_us.b16", "us"),
    ("engine.assign_us.b1024", "us"),
    ("kernel.sweep_us.b16", "us"),
    ("kernel.sweep_us.b1024", "us"),
    ("kernel.refold_us.b256", "us"),
    ("server.residual_us.small", "us"),
    ("server.residual_us.bulk", "us"),
    ("engine.requests_per_batch", "ratio"),
    ("engine.swap_us", "us"),
    ("loadgen.late_p99_us", "us"),
    ("fit_s", "s"),
    ("serve_small_p50_us", "us"),
    ("serve_small_p99_us", "us"),
    ("serve_bulk_p50_us", "us"),
    ("serve_bulk_p99_us", "us"),
    ("serve_capacity_rps", "1/s"),
    ("trace.overhead_frac", "ratio"),
    ("ledger.unaccounted_frac", "ratio"),
];

fn declared(name: &str) -> Option<(&'static str, &'static str)> {
    END_TO_END
        .iter()
        .chain(PER_LAYER)
        .find(|(n, _)| *n == name)
        .copied()
}

#[derive(Default)]
pub struct Report {
    metrics: BTreeMap<&'static str, (f64, usize)>,
    info: Vec<(String, f64, &'static str, usize)>,
    problems: Vec<String>,
    attempted: u64,
    failed: u64,
}

impl Report {
    /// Records a declared metric measured over `samples` samples.
    pub fn set(&mut self, name: &str, value: f64, samples: usize) {
        let (name, _) = declared(name).unwrap_or_else(|| panic!("metric {name} is not declared"));
        self.metrics.insert(name, (value, samples));
    }

    /// Records 0 for layers the workload does not have.
    pub fn absent(&mut self, names: &[&str]) {
        for name in names {
            self.set(name, 0.0, 0);
        }
    }

    /// Records a figure that is printed in the table but is not a gated
    /// metric (for example `error_rate`, which is 0 on a healthy run and
    /// is carried by `attempted`/`failed`).
    pub fn info(
        &mut self,
        name: impl Into<String>,
        value: f64,
        unit: &'static str,
        samples: usize,
    ) {
        self.info.push((name.into(), value, unit, samples));
    }

    /// Records a failed output check.
    pub fn problem(&mut self, msg: impl Into<String>) {
        self.problems.push(msg.into());
    }

    pub fn check(&mut self, ok: bool, msg: impl FnOnce() -> String) {
        if !ok {
            self.problem(msg());
        }
    }

    /// Tallies one operation (fit, request, swap).
    pub fn op(&mut self, ok: bool) {
        self.attempted += 1;
        if !ok {
            self.failed += 1;
        }
    }

    /// Prints the table and the result line; returns the exit code.
    pub fn finish(mut self, traced: bool) -> i32 {
        let wanted = if traced { PER_LAYER } else { END_TO_END };
        for (name, _) in wanted {
            if !self.metrics.contains_key(name) {
                self.problems
                    .push(format!("metric {name} was not measured"));
            }
        }
        for (name, (value, _)) in &self.metrics {
            if !wanted.iter().any(|(n, _)| n == name) {
                self.problems
                    .push(format!("metric {name} does not belong to this mode"));
            }
            if !value.is_finite() {
                self.problems
                    .push(format!("metric {name} is not finite ({value})"));
            }
        }
        if self.attempted == 0 {
            self.problems.push("no operation was attempted".into());
        }
        let error_rate = self.failed as f64 / self.attempted.max(1) as f64;
        self.info("error_rate", error_rate, "ratio", self.attempted as usize);

        println!("{:<34} {:>16} {:<9} samples", "metric", "value", "unit");
        for (name, (value, n)) in &self.metrics {
            let unit = declared(name).map_or("", |(_, u)| u);
            println!("{name:<34} {value:>16.6} {unit:<9} {n}");
        }
        for (name, value, unit, n) in &self.info {
            println!("{name:<34} {value:>16.6} {unit:<9} {n}  (info)");
        }
        for p in self.problems.iter().take(20) {
            println!("CHECK FAILED: {p}");
        }

        let correct = self.problems.is_empty();
        let metrics = if correct {
            self.metrics
                .iter()
                .map(|(name, (value, _))| {
                    let unit = declared(name).map_or("", |(_, u)| u);
                    // Debug formatting is Rust's shortest round-trip form:
                    // every digit, and valid JSON for finite values.
                    format!("\"{name}\": {{\"value\": {value:?}, \"unit\": \"{unit}\"}}")
                })
                .collect::<Vec<_>>()
                .join(", ")
        } else {
            String::new()
        };
        println!(
            "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{metrics}}}}}",
            self.attempted, self.failed
        );
        if correct {
            0
        } else {
            1
        }
    }
}
