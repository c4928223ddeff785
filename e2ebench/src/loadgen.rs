//! The serving load generator: the request mix, its open- and
//! closed-loop driver over one SKS1 connection (`ServeClient` over TCP),
//! and the reply checks.
//!
//! Mix: 80% predicts of 1–16 points, 15% cost queries of 256 points, 5%
//! predicts of 1,024 points; with swaps on, the connection sends one
//! `SwapModel` per 500 of its operations (one per ~1,000 requests over
//! serve-mix's two connections), alternating between two pre-fitted
//! models. Query points are rows of the workload's data chosen by the
//! seed.

use crate::report::Report;
use crate::seams::{Log, WireCall};
use crate::stats::{median, percentile};
use crate::sys::sleep_until;
use scalable_kmeans::cluster::{ClusterError, Transport};
use scalable_kmeans::data::{ModelRecord, PointMatrix};
use scalable_kmeans::serve::{ServeClient, ServeMessage};
use scalable_kmeans::util::Rng;
use scalable_kmeans::KMeansModel;
use std::time::{Duration, Instant};

const COST_POINTS: usize = 256;
const BULK_POINTS: usize = 1024;
/// A swap every this many operations of the swapping connection.
const SWAP_PERIOD: usize = 500;

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Class {
    Small,
    Cost,
    Bulk,
    Swap,
}

#[derive(Clone, Copy, Debug)]
pub enum Op {
    Small(usize),
    Cost(usize),
    Bulk(usize),
    Swap,
}

impl Op {
    fn class(self) -> Class {
        match self {
            Op::Small(_) => Class::Small,
            Op::Cost(_) => Class::Cost,
            Op::Bulk(_) => Class::Bulk,
            Op::Swap => Class::Swap,
        }
    }
}

/// Query batches, drawn once from the workload's rows.
pub struct Pool {
    small: Vec<PointMatrix>,
    cost: Vec<PointMatrix>,
    bulk: Vec<PointMatrix>,
}

fn sample_rows(points: &PointMatrix, rng: &mut Rng, count: usize) -> PointMatrix {
    let idx: Vec<usize> = (0..count).map(|_| rng.range_usize(points.len())).collect();
    points.select(&idx)
}

impl Pool {
    pub fn sample(points: &PointMatrix, seed: u64) -> Pool {
        let mut rng = Rng::derive(seed, &[0x5e, 1]);
        Pool {
            small: (0..512)
                .map(|_| {
                    let n = 1 + rng.range_usize(16);
                    sample_rows(points, &mut rng, n)
                })
                .collect(),
            cost: (0..32)
                .map(|_| sample_rows(points, &mut rng, COST_POINTS))
                .collect(),
            bulk: (0..16)
                .map(|_| sample_rows(points, &mut rng, BULK_POINTS))
                .collect(),
        }
    }

    fn points(&self, op: Op) -> &PointMatrix {
        match op {
            Op::Small(i) => &self.small[i],
            Op::Cost(i) => &self.cost[i],
            Op::Bulk(i) => &self.bulk[i],
            Op::Swap => unreachable!("a swap carries a model, not points"),
        }
    }
}

/// What the local model answers for every pool batch: labels and the
/// cost's bits.
pub struct Answers {
    small: Vec<(Vec<u32>, u64)>,
    cost: Vec<u64>,
    bulk: Vec<(Vec<u32>, u64)>,
}

impl Answers {
    pub fn of(model: &KMeansModel, pool: &Pool) -> Answers {
        let cost = |p: &PointMatrix| model.cost_of(p).expect("pool dims match").to_bits();
        let predict = |p: &PointMatrix| (model.predict(p).expect("pool dims match"), cost(p));
        Answers {
            small: pool.small.iter().map(predict).collect(),
            cost: pool.cost.iter().map(cost).collect(),
            bulk: pool.bulk.iter().map(predict).collect(),
        }
    }
}

/// A served answer.
pub enum Reply {
    Labels {
        revision: u64,
        labels: Vec<u32>,
        cost: f64,
    },
    Cost {
        revision: u64,
        cost: f64,
    },
    Swapped {
        revision: u64,
    },
}

/// Sends `op` over `client` and returns the served answer.
fn call<T: Transport<ServeMessage>>(
    client: &mut ServeClient<T>,
    op: Op,
    pool: &Pool,
    install: &ModelRecord,
) -> Result<Reply, String> {
    let err = |e: ClusterError| e.to_string();
    Ok(match op {
        Op::Small(_) | Op::Bulk(_) => {
            let p = client.predict(pool.points(op)).map_err(err)?;
            Reply::Labels {
                revision: p.revision,
                labels: p.labels,
                cost: p.cost,
            }
        }
        Op::Cost(_) => {
            let (revision, cost) = client.cost_of(pool.points(op)).map_err(err)?;
            Reply::Cost { revision, cost }
        }
        Op::Swap => Reply::Swapped {
            revision: client.swap_model(install).map_err(err)?,
        },
    })
}

/// One connection's operation stream and swap state. Revision `r` serves
/// model `(r - 1) % 2`: revision 1 is model 0 and each swap installs the
/// other model.
pub struct Mix {
    rng: Rng,
    swaps_on: bool,
    count: usize,
    swaps: u64,
}

impl Mix {
    pub fn new(seed: u64, conn: usize, swaps_on: bool) -> Mix {
        Mix {
            rng: Rng::derive(seed, &[0x5e, 2, conn as u64]),
            swaps_on,
            count: 0,
            swaps: 0,
        }
    }

    fn next(&mut self, pool: &Pool) -> Op {
        self.count += 1;
        if self.swaps_on && self.count.is_multiple_of(SWAP_PERIOD) {
            return Op::Swap;
        }
        let u = self.rng.next_f64();
        if u < 0.80 {
            Op::Small(self.rng.range_usize(pool.small.len()))
        } else if u < 0.95 {
            Op::Cost(self.rng.range_usize(pool.cost.len()))
        } else {
            Op::Bulk(self.rng.range_usize(pool.bulk.len()))
        }
    }
}

/// Shared, read-only inputs of a phase.
pub struct Ctx<'a> {
    pub pool: &'a Pool,
    pub answers: &'a [Answers; 2],
    pub models: &'a [ModelRecord; 2],
}

fn check(reply: &Reply, op: Op, ctx: &Ctx, mix: &Mix) -> Result<(), String> {
    // Only one connection swaps, one swap at a time, so revision parity
    // names the model on every connection.
    let model = |rev: u64| -> Result<&Answers, String> {
        if rev == 0 {
            return Err("reply tagged with revision 0".into());
        }
        Ok(&ctx.answers[((rev - 1) % 2) as usize])
    };
    match (op, reply) {
        (
            Op::Small(i) | Op::Bulk(i),
            Reply::Labels {
                revision,
                labels,
                cost,
            },
        ) => {
            let a = model(*revision)?;
            let (want_labels, want_cost) = match op {
                Op::Small(_) => &a.small[i],
                _ => &a.bulk[i],
            };
            if labels != want_labels || cost.to_bits() != *want_cost {
                return Err(format!(
                    "{op:?} reply (revision {revision}) differs from the local model"
                ));
            }
        }
        (Op::Cost(i), Reply::Cost { revision, cost }) => {
            if cost.to_bits() != model(*revision)?.cost[i] {
                return Err(format!(
                    "cost reply (revision {revision}) differs from the local model"
                ));
            }
        }
        (Op::Swap, Reply::Swapped { revision }) => {
            if *revision != mix.swaps + 2 {
                return Err(format!(
                    "swap installed revision {revision}, expected {}",
                    mix.swaps + 2
                ));
            }
        }
        _ => return Err(format!("{op:?} drew a reply of the wrong kind")),
    }
    Ok(())
}

/// How a phase paces its operations.
pub enum Pace {
    /// Poisson arrivals at this many operations per second per connection.
    Open(f64),
    /// The next operation goes out as soon as the previous one answers.
    Closed,
}

/// One traced operation: its class and its range of client-side
/// transport calls.
#[derive(Clone, Copy, Debug)]
pub struct TracedOp {
    pub class: Class,
    pub calls: (usize, usize),
}

/// What one connection saw in one phase.
#[derive(Default)]
pub struct Outcome {
    /// Latency in µs per class, indexed by `Class as usize`.
    latency: [Vec<f64>; 4],
    /// How late each operation was sent relative to its due time, µs.
    pub late: Vec<f64>,
    pub ops: u64,
    pub failed: u64,
    pub problems: Vec<String>,
    pub finished: Option<Instant>,
    pub traced: Vec<TracedOp>,
}

impl Outcome {
    pub fn merge(outcomes: Vec<Outcome>) -> Outcome {
        let mut all = Outcome::default();
        for o in outcomes {
            for (mine, theirs) in all.latency.iter_mut().zip(o.latency) {
                mine.extend(theirs);
            }
            all.late.extend(o.late);
            all.ops += o.ops;
            all.failed += o.failed;
            all.problems.extend(o.problems);
            all.finished = all.finished.max(o.finished);
        }
        all
    }

    pub fn class(&self, c: Class) -> &[f64] {
        &self.latency[c as usize]
    }
}

/// Drives one connection from `start` until `end`. In an open loop each
/// operation is timed from its due time minus the generator's own wake-up
/// delay: latency = (reply − sent) + (ready − due), where `ready` is the
/// later of the due time and the moment the connection's previous reply
/// arrived. Replies are checked after they are timed.
pub fn drive<T: Transport<ServeMessage>>(
    client: &mut ServeClient<T>,
    mix: &mut Mix,
    ctx: &Ctx,
    pace: &Pace,
    (start, end): (Instant, Instant),
    calls: Option<&Log<WireCall>>,
) -> Outcome {
    let mut out = Outcome::default();
    let mut arrivals = Rng::derive(mix.rng.next_u64(), &[0x5e, 3]);
    let mut due = start;
    let mut free_at = start;
    sleep_until(start);
    loop {
        let ready = match pace {
            Pace::Open(rate) => {
                due += Duration::from_secs_f64(arrivals.exponential(*rate));
                if due >= end {
                    break;
                }
                sleep_until(due);
                due.max(free_at)
            }
            Pace::Closed => {
                due = Instant::now();
                if due >= end {
                    break;
                }
                due
            }
        };
        let op = mix.next(ctx.pool);
        let install = &ctx.models[((mix.swaps + 1) % 2) as usize];
        let mark = calls.map_or(0, |l| l.len());
        let sent = Instant::now();
        let reply = call(client, op, ctx.pool, install);
        let done = Instant::now();
        free_at = done;
        out.ops += 1;
        out.latency[op.class() as usize].push(((done - sent) + (ready - due)).as_secs_f64() * 1e6);
        out.late.push((sent - due).as_secs_f64() * 1e6);
        if let Some(log) = calls {
            out.traced.push(TracedOp {
                class: op.class(),
                calls: (mark, log.len()),
            });
        }
        match reply {
            Ok(reply) => {
                if let Err(p) = check(&reply, op, ctx, mix) {
                    if out.problems.len() < 5 {
                        out.problems.push(p);
                    }
                }
                if let Op::Swap = op {
                    mix.swaps += 1;
                }
            }
            Err(e) => {
                // Counted in `failed` (the error rate), not a wrong answer.
                out.failed += 1;
                if out.failed <= 5 {
                    eprintln!("{op:?} failed: {e}");
                }
            }
        }
    }
    out.finished = Some(Instant::now());
    out
}

/// p50 and p99 of a latency set (0 when the class saw no operation).
pub fn p50_p99(samples: &[f64]) -> (f64, f64) {
    if samples.is_empty() {
        return (0.0, 0.0);
    }
    (median(samples), percentile(samples, 0.99))
}

/// Prints an untraced open loop's p50 and p99 per request class beside
/// the gated metrics; wall-clock latency on a shared host spreads too
/// widely between runs to gate (see `WORKLOADS.md`).
pub fn report_latencies(report: &mut Report, out: &Outcome) {
    for (class, tag) in [
        (Class::Small, "small"),
        (Class::Bulk, "bulk"),
        (Class::Cost, "cost"),
    ] {
        let (p50, p99) = p50_p99(out.class(class));
        let n = out.class(class).len();
        report.info(format!("serve_{tag}_p50_us"), p50, "us", n);
        report.info(format!("serve_{tag}_p99_us"), p99, "us", n);
    }
}

/// Reports a traced open loop's small- and bulk-request p50 and p99.
pub fn report_traced_latencies(report: &mut Report, out: &Outcome) {
    let (small, bulk) = (out.class(Class::Small), out.class(Class::Bulk));
    report.set("serve_small_p50_us", p50_p99(small).0, small.len());
    report.set("serve_small_p99_us", p50_p99(small).1, small.len());
    report.set("serve_bulk_p50_us", p50_p99(bulk).0, bulk.len());
    report.set("serve_bulk_p99_us", p50_p99(bulk).1, bulk.len());
}

/// Folds a phase's operations and failed checks into the report.
pub fn tally(report: &mut Report, out: &Outcome) {
    for i in 0..out.ops {
        report.op(i >= out.failed);
    }
    for p in &out.problems {
        report.problem(p.clone());
    }
}
