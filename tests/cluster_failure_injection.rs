//! Fault-tolerance acceptance tests: scripted worker deaths at every
//! round type of the distributed conversation, injected deterministically
//! with [`FaultTransport`] — and every recovered fit must be
//! **bit-identical** to the zero-failure fit (centers, labels, cost,
//! iteration history, distance accounting). Also pinned here: the
//! elasticity paths (a replacement worker adopted mid-job over TCP, a
//! worker restarted on the *same* address, a worker that starts late) and
//! the bounded-failure contract (a fault during recovery itself is a
//! typed error, never a hang).

use scalable_kmeans::cluster::fault::tag;
use scalable_kmeans::cluster::{
    loopback_pair, spawn_loopback_worker, spawn_loopback_worker_with_faults, spawn_tcp_worker,
    spawn_tcp_worker_with_faults, Cluster, ClusterError, FaultAction, FitDistributed, RetryPolicy,
    TcpTransport, TcpWorkerServer, Transport, Worker,
};
use scalable_kmeans::core::driver::{
    drive_kmeans_parallel, LabelFetch, LocalBackend, RoundBackend,
};
use scalable_kmeans::core::init::KMeansParallelConfig;
use scalable_kmeans::core::minibatch::MiniBatchConfig;
use scalable_kmeans::core::model::{KMeans, KMeansModel};
use scalable_kmeans::core::pipeline::{KMeansParallel, MiniBatch, NoRefine};
use scalable_kmeans::data::synth::GaussMixture;
use scalable_kmeans::data::{InMemorySource, PointMatrix};
use scalable_kmeans::obs::{ArgValue, Recorder};
use scalable_kmeans::par::{Executor, Parallelism};
use std::sync::{Arc, Mutex};
use std::time::Duration;

const N: usize = 192;
/// At least `PRUNE_MIN_CANDIDATES` (8), so the recovered and resumed
/// fits run the pruned kernel — cold and warm sweeps — and the kernel
/// counters below are pinned through every failure point.
const K: usize = 12;
const SHARD: usize = 16;

type WorkerHandle = std::thread::JoinHandle<Result<(), ClusterError>>;
type SharedHandles = Arc<Mutex<Vec<WorkerHandle>>>;

fn gauss() -> PointMatrix {
    GaussMixture::new(K)
        .points(N)
        .center_variance(50.0)
        .generate(11)
        .unwrap()
        .dataset
        .into_parts()
        .1
}

fn slice_rows(points: &PointMatrix, start: usize, rows: usize) -> PointMatrix {
    let dim = points.dim();
    PointMatrix::from_flat(
        points.as_slice()[start * dim..(start + rows) * dim].to_vec(),
        dim,
    )
    .unwrap()
}

fn even_slices(n: usize, workers: usize) -> Vec<(usize, usize)> {
    let per = n / workers;
    (0..workers)
        .map(|w| {
            let rows = if w + 1 == workers { n - w * per } else { per };
            (w * per, rows)
        })
        .collect()
}

fn assert_bit_identical(reference: &KMeansModel, got: &KMeansModel, what: &str) {
    assert_eq!(reference.centers(), got.centers(), "{what}: centers");
    assert_eq!(reference.labels(), got.labels(), "{what}: labels");
    assert_eq!(
        reference.cost().to_bits(),
        got.cost().to_bits(),
        "{what}: cost"
    );
    assert_eq!(
        reference.iterations(),
        got.iterations(),
        "{what}: iterations"
    );
    assert_eq!(
        reference.history().len(),
        got.history().len(),
        "{what}: history length"
    );
    for (i, (a, b)) in reference.history().iter().zip(got.history()).enumerate() {
        assert_eq!(
            a.reassigned, b.reassigned,
            "{what}: history[{i}] reassigned"
        );
        assert_eq!(a.reseeded, b.reseeded, "{what}: history[{i}] reseeded");
        assert_eq!(
            a.cost.to_bits(),
            b.cost.to_bits(),
            "{what}: history[{i}] cost"
        );
    }
    assert_eq!(
        reference.init_stats().seed_cost.to_bits(),
        got.init_stats().seed_cost.to_bits(),
        "{what}: seed cost"
    );
    assert_eq!(
        reference.distance_computations(),
        got.distance_computations(),
        "{what}: distance accounting"
    );
    assert_eq!(
        reference.pruned_by_norm_bound(),
        got.pruned_by_norm_bound(),
        "{what}: kernel prune counter"
    );
}

/// Spawns a loopback cluster over even slices of `points`, wrapping the
/// workers named in `scripts` with fault scripts, and arms recovery with
/// a supplier that respawns a healthy worker over the slot's slice.
/// Returns the cluster, the original worker handles (scripted ones end
/// in `Err` once their fault fires), and the replacement handles the
/// supplier accumulates.
fn recovering_loopback_cluster(
    points: &PointMatrix,
    workers: usize,
    scripts: &[(usize, Vec<FaultAction>)],
) -> (Cluster, Vec<WorkerHandle>, SharedHandles) {
    let slices = even_slices(points.len(), workers);
    let mut transports: Vec<Box<dyn Transport>> = Vec::new();
    let mut originals = Vec::new();
    for (w, &(start, rows)) in slices.iter().enumerate() {
        let source = InMemorySource::new(slice_rows(points, start, rows), 3).unwrap();
        let script = scripts
            .iter()
            .find(|(slot, _)| *slot == w)
            .map(|(_, s)| s.clone())
            .unwrap_or_default();
        let (t, h) = spawn_loopback_worker_with_faults(source, Parallelism::Sequential, script);
        transports.push(Box::new(t));
        originals.push(h);
    }
    let mut cluster = Cluster::new(transports).unwrap();
    let replacements: SharedHandles = Arc::new(Mutex::new(Vec::new()));
    let supplier_handles = Arc::clone(&replacements);
    let supplier_points = points.clone();
    cluster.set_recovery(
        Box::new(move |slot| {
            let (start, rows) = slices[slot];
            let shard = slice_rows(&supplier_points, start, rows);
            let source = InMemorySource::new(shard, 3).unwrap();
            let (t, h) = spawn_loopback_worker(source, Parallelism::Sequential);
            supplier_handles.lock().unwrap().push(h);
            Ok(Box::new(t))
        }),
        RetryPolicy::fixed(3, Duration::from_millis(1)),
    );
    (cluster, originals, replacements)
}

fn drain(replacements: &SharedHandles) {
    for h in replacements.lock().unwrap().drain(..) {
        h.join().unwrap().unwrap();
    }
}

/// The kill grid: workers die at each round type of the default
/// k-means|| + Lloyd conversation — on the request (`KillOnRecv`: the
/// machine crashed before doing the round's work) and on the reply
/// (`KillOnSend`: it crashed after the work, before the reply escaped) —
/// across {2, 4}-worker clusters. Every worker carries the script, so
/// every worker the round touches dies at once (point gathers only reach
/// the rows' owners; broadcasts kill the whole fleet). Every recovered
/// fit is bit-identical to the in-memory fit.
#[test]
fn killing_workers_at_each_round_type_recovers_bit_identically() {
    let points = gauss();
    let reference = KMeans::params(K)
        .seed(42)
        .shard_size(SHARD)
        .fit(&points)
        .unwrap();
    // The fused conversation sends six Compound frames per fit (one
    // init+sample, four update+sample, one update+weights), so the old
    // per-primitive tags never appear on the wire as top-level frames;
    // the grid keys on Compound occurrences instead. The stable pass is
    // ASSIGN occurrence `iterations`, a bounded pass whose replacement
    // must replay every earlier pass to rebuild the bounds; labels ride
    // the closing full pass's reply, the last ASSIGN occurrence.
    let stable_assign = reference.iterations() as u32;
    let closing_assign = stable_assign + 1;
    let grid: Vec<(&str, FaultAction)> = vec![
        (
            "gather-rows request",
            FaultAction::KillOnRecv {
                tag: tag::GATHER_ROWS,
                occurrence: 1,
            },
        ),
        (
            "init+sample compound request",
            FaultAction::KillOnRecv {
                tag: tag::COMPOUND,
                occurrence: 1,
            },
        ),
        (
            "mid update+sample compound request",
            FaultAction::KillOnRecv {
                tag: tag::COMPOUND,
                occurrence: 3,
            },
        ),
        (
            "update+weights compound request",
            FaultAction::KillOnRecv {
                tag: tag::COMPOUND,
                occurrence: 6,
            },
        ),
        // The replacement rebuilds the tracker from the catch-up's
        // segments, so its first assignment seeds every row as the lost
        // worker's would have: the prune counters match too.
        (
            "cost request",
            FaultAction::KillOnRecv {
                tag: tag::COST,
                occurrence: 1,
            },
        ),
        (
            "assign request",
            FaultAction::KillOnRecv {
                tag: tag::ASSIGN,
                occurrence: 1,
            },
        ),
        (
            "stable bounded assign",
            FaultAction::KillOnRecv {
                tag: tag::ASSIGN,
                occurrence: stable_assign,
            },
        ),
        (
            "closing label-shipping assign",
            FaultAction::KillOnRecv {
                tag: tag::ASSIGN,
                occurrence: closing_assign,
            },
        ),
        (
            "compound reply lost",
            FaultAction::KillOnSend {
                tag: tag::COMPOUND,
                occurrence: 2,
            },
        ),
        (
            "potential reply lost",
            FaultAction::KillOnSend {
                tag: tag::SHARD_SUMS,
                occurrence: 1,
            },
        ),
        (
            "partials reply lost",
            FaultAction::KillOnSend {
                tag: tag::PARTIALS,
                occurrence: 1,
            },
        ),
    ];
    for workers in [2usize, 4] {
        for (what, action) in &grid {
            let scripts: Vec<(usize, Vec<FaultAction>)> =
                (0..workers).map(|w| (w, vec![*action])).collect();
            let (mut cluster, originals, replacements) =
                recovering_loopback_cluster(&points, workers, &scripts);
            let got = KMeans::params(K)
                .seed(42)
                .shard_size(SHARD)
                .fit_distributed(&mut cluster)
                .unwrap_or_else(|e| panic!("{workers} workers, {what}: {e}"));
            cluster.shutdown();
            // A recv-path kill looks like a coordinator hang-up to the
            // worker (clean exit); a send-path kill errors its thread.
            // Either way the thread must have ended — join all of them.
            for h in originals {
                let _ = h.join().unwrap();
            }
            assert!(
                !replacements.lock().unwrap().is_empty(),
                "{workers} workers, {what}: the scripted fault never fired (no recovery ran)"
            );
            drain(&replacements);
            assert_bit_identical(&reference, &got, &format!("{workers} workers, {what}"));
        }
    }
}

/// The acceptance pin from the issue: a 4-worker fit survives three
/// scripted deaths at three *distinct* round types (seeding sample,
/// Lloyd assignment, final label fetch) on three different workers, and
/// still reproduces the zero-failure fit bit for bit.
#[test]
fn four_workers_survive_three_deaths_at_distinct_rounds() {
    let points = gauss();
    let reference = KMeans::params(K)
        .seed(42)
        .shard_size(SHARD)
        .fit(&points)
        .unwrap();
    // Deaths at: the seeding round (first fused init+sample compound),
    // the first Lloyd assignment, and the stable (bounded) assignment.
    let scripts = vec![
        (
            1usize,
            vec![FaultAction::KillOnRecv {
                tag: tag::COMPOUND,
                occurrence: 1,
            }],
        ),
        (
            2,
            vec![FaultAction::KillOnRecv {
                tag: tag::ASSIGN,
                occurrence: 1,
            }],
        ),
        (
            3,
            vec![FaultAction::KillOnRecv {
                tag: tag::ASSIGN,
                occurrence: reference.iterations() as u32,
            }],
        ),
    ];
    let (mut cluster, originals, replacements) = recovering_loopback_cluster(&points, 4, &scripts);
    let got = KMeans::params(K)
        .seed(42)
        .shard_size(SHARD)
        .fit_distributed(&mut cluster)
        .unwrap();
    cluster.shutdown();
    for (w, h) in originals.into_iter().enumerate() {
        let outcome = h.join().unwrap();
        if w == 0 {
            outcome.unwrap(); // the untouched worker retires cleanly
        }
    }
    assert_eq!(
        replacements.lock().unwrap().len(),
        3,
        "each scripted death must trigger exactly one adoption"
    );
    drain(&replacements);
    assert_bit_identical(&reference, &got, "three deaths at distinct rounds");
}

/// All but one worker die *simultaneously* (same round, same trigger) —
/// the worst survivable failure short of total loss — and the fit still
/// recovers bit-identically.
#[test]
fn all_but_one_worker_dying_at_once_recovers() {
    let points = gauss();
    let reference = KMeans::params(K)
        .seed(42)
        .shard_size(SHARD)
        .fit(&points)
        .unwrap();
    // The second fused update+sample compound round.
    let die = vec![FaultAction::KillOnRecv {
        tag: tag::COMPOUND,
        occurrence: 2,
    }];
    let scripts: Vec<(usize, Vec<FaultAction>)> = (1..4).map(|w| (w, die.clone())).collect();
    let (mut cluster, originals, replacements) = recovering_loopback_cluster(&points, 4, &scripts);
    let got = KMeans::params(K)
        .seed(42)
        .shard_size(SHARD)
        .fit_distributed(&mut cluster)
        .unwrap();
    cluster.shutdown();
    for (w, h) in originals.into_iter().enumerate() {
        let outcome = h.join().unwrap();
        if w == 0 {
            outcome.unwrap();
        }
    }
    assert_eq!(
        replacements.lock().unwrap().len(),
        3,
        "all three scripted deaths must trigger adoptions"
    );
    drain(&replacements);
    assert_bit_identical(&reference, &got, "w-1 simultaneous deaths");
}

/// The O(n) D² top-up gather (ℓ < k forces it) recovers like every other
/// round, and a slow worker (delayed reply) is *not* treated as dead.
/// The d² read rides the closing round's `Compound` — the second one,
/// after init+sample — so that is where the worker dies.
#[test]
fn topup_gather_death_and_delayed_replies() {
    let points = gauss();
    let base = || {
        KMeans::params(K)
            .init(KMeansParallel(
                KMeansParallelConfig::default()
                    .oversampling_factor(0.1)
                    .rounds(1),
            ))
            .refine(NoRefine)
            .seed(3)
            .shard_size(SHARD)
    };
    let reference = base().fit(&points).unwrap();

    let (mut cluster, originals, replacements) = recovering_loopback_cluster(
        &points,
        2,
        &[(
            1,
            vec![FaultAction::KillOnRecv {
                tag: tag::COMPOUND,
                occurrence: 2,
            }],
        )],
    );
    let got = base().fit_distributed(&mut cluster).unwrap();
    cluster.shutdown();
    for h in originals {
        let _ = h.join().unwrap();
    }
    assert_eq!(
        replacements.lock().unwrap().len(),
        1,
        "the D² gather death must trigger one adoption"
    );
    drain(&replacements);
    assert_bit_identical(&reference, &got, "D² top-up gather death");

    // A delayed reply stalls the round but kills nothing: no recovery
    // runs, the original workers retire cleanly, results are identical.
    // The first top-level ShardSums is the seed-cost `Cost` reply.
    let (mut cluster, originals, replacements) = recovering_loopback_cluster(
        &points,
        2,
        &[(
            1,
            vec![FaultAction::DelayOnSend {
                tag: tag::SHARD_SUMS,
                occurrence: 1,
                delay: Duration::from_millis(50),
            }],
        )],
    );
    let got = base().fit_distributed(&mut cluster).unwrap();
    cluster.shutdown();
    for h in originals {
        h.join().unwrap().unwrap();
    }
    assert!(
        replacements.lock().unwrap().is_empty(),
        "no recovery expected"
    );
    assert_bit_identical(&reference, &got, "delayed reply");
}

/// Adoption during Lloyd is three frames on the replacement: `Plan`, one
/// catch-up `Compound` carrying a single `Assign` against the last
/// completed pass's centers (the first assignment freed the tracker, so
/// no tracker segment is replayed), and the re-asked `Assign`. Counted
/// with the replacement worker's own frame recorder.
#[test]
fn worker_adopted_during_lloyd_receives_plan_catch_up_and_reask() {
    let points = gauss();
    let reference = KMeans::params(K)
        .seed(42)
        .shard_size(SHARD)
        .fit(&points)
        .unwrap();
    assert!(reference.iterations() >= 2, "the death must land mid-Lloyd");
    let slices = even_slices(points.len(), 2);
    let local_rows = slices[1].1 as u64;
    let mut transports: Vec<Box<dyn Transport>> = Vec::new();
    let mut originals = Vec::new();
    for (w, &(start, rows)) in slices.iter().enumerate() {
        let source = InMemorySource::new(slice_rows(&points, start, rows), 3).unwrap();
        let script = if w == 1 {
            vec![FaultAction::KillOnRecv {
                tag: tag::ASSIGN,
                occurrence: 2,
            }]
        } else {
            vec![]
        };
        let (t, h) = spawn_loopback_worker_with_faults(source, Parallelism::Sequential, script);
        transports.push(Box::new(t));
        originals.push(h);
    }
    let mut cluster = Cluster::new(transports).unwrap();
    let recorder = Recorder::monotonic();
    let replacements: SharedHandles = Arc::new(Mutex::new(Vec::new()));
    let supplier_handles = Arc::clone(&replacements);
    let supplier_recorder = recorder.clone();
    let supplier_points = points.clone();
    cluster.set_recovery(
        Box::new(move |slot| {
            let (start, rows) = slices[slot];
            let source = InMemorySource::new(slice_rows(&supplier_points, start, rows), 3).unwrap();
            let mut worker = Worker::new(source, Parallelism::Sequential);
            worker.set_recorder(supplier_recorder.clone());
            let (coordinator_side, mut worker_side) = loopback_pair();
            let h = std::thread::spawn(move || worker.serve(&mut worker_side));
            supplier_handles.lock().unwrap().push(h);
            Ok(Box::new(coordinator_side))
        }),
        RetryPolicy::fixed(3, Duration::from_millis(1)),
    );
    let got = KMeans::params(K)
        .seed(42)
        .shard_size(SHARD)
        .fit_distributed(&mut cluster)
        .unwrap();
    cluster.shutdown();
    for h in originals {
        let _ = h.join().unwrap();
    }
    assert_eq!(replacements.lock().unwrap().len(), 1, "one adoption");
    drain(&replacements);
    assert_bit_identical(&reference, &got, "adoption during Lloyd");

    let frames: Vec<_> = recorder
        .events()
        .into_iter()
        .filter(|e| e.cat == "worker")
        .collect();
    let names: Vec<&str> = frames.iter().map(|e| e.name.as_str()).collect();
    assert_eq!(
        names[..3],
        ["frame:plan", "frame:compound", "frame:assign"],
        "adoption frames: {names:?}"
    );
    // The rest of the fit is Lloyd passes; the catch-up is the only
    // compound the replacement ever sees.
    assert!(
        names[3..]
            .iter()
            .all(|n| *n == "frame:assign" || *n == "frame:shutdown"),
        "{names:?}"
    );
    // Frame rows count one local pass per item: the label-rebuilding
    // assignment alone.
    assert!(
        frames[1]
            .args
            .iter()
            .any(|(n, v)| n == "rows" && *v == ArgValue::U64(local_rows)),
        "catch-up compound: {:?}",
        frames[1].args
    );
}

/// A worker lost late in a long Lloyd run is caught up by replaying every
/// pass since the last full one — the bounded passes' bounds depend on
/// that history — yet the catch-up frame carries one center set per pass
/// and a few bytes of reply for each, never the replayed passes' shard
/// partials: at the paper's KDD shape (k = 1000, d = 42, 2 workers) those
/// were ~11 MB a pass, over the 1 GiB frame limit within about 97 passes,
/// where the replayed center sets stay at 336 kB a pass.
#[test]
fn a_late_catch_up_replays_center_sets_without_partials() {
    const K2: usize = 32;
    const D2: usize = 8;
    let points = GaussMixture::new(K2)
        .dim(D2)
        .points(1600)
        .center_variance(2.0)
        .generate(5)
        .unwrap()
        .dataset
        .into_parts()
        .1;
    let fit = || KMeans::params(K2).seed(42).shard_size(SHARD);
    let reference = fit().fit(&points).unwrap();
    let iterations = reference.iterations();
    assert!(iterations >= 8, "a long run: {iterations} passes");
    let slices = even_slices(points.len(), 2);
    let mut transports: Vec<Box<dyn Transport>> = Vec::new();
    let mut originals = Vec::new();
    for (w, &(start, rows)) in slices.iter().enumerate() {
        let source = InMemorySource::new(slice_rows(&points, start, rows), 3).unwrap();
        // Death at the stable pass: every earlier pass is replayed.
        let script = if w == 1 {
            vec![FaultAction::KillOnRecv {
                tag: tag::ASSIGN,
                occurrence: iterations as u32,
            }]
        } else {
            vec![]
        };
        let (t, h) = spawn_loopback_worker_with_faults(source, Parallelism::Sequential, script);
        transports.push(Box::new(t));
        originals.push(h);
    }
    let mut cluster = Cluster::new(transports).unwrap();
    let recorder = Recorder::monotonic();
    let replacements: SharedHandles = Arc::new(Mutex::new(Vec::new()));
    let supplier_handles = Arc::clone(&replacements);
    let supplier_recorder = recorder.clone();
    let supplier_points = points.clone();
    cluster.set_recovery(
        Box::new(move |slot| {
            let (start, rows) = slices[slot];
            let source = InMemorySource::new(slice_rows(&supplier_points, start, rows), 3).unwrap();
            let mut worker = Worker::new(source, Parallelism::Sequential);
            worker.set_recorder(supplier_recorder.clone());
            let (coordinator_side, mut worker_side) = loopback_pair();
            let h = std::thread::spawn(move || worker.serve(&mut worker_side));
            supplier_handles.lock().unwrap().push(h);
            Ok(Box::new(coordinator_side))
        }),
        RetryPolicy::fixed(3, Duration::from_millis(1)),
    );
    let got = fit().fit_distributed(&mut cluster).unwrap();
    cluster.shutdown();
    for h in originals {
        let _ = h.join().unwrap();
    }
    assert_eq!(replacements.lock().unwrap().len(), 1, "one adoption");
    drain(&replacements);
    assert_bit_identical(&reference, &got, "late catch-up");

    let frames: Vec<_> = recorder
        .events()
        .into_iter()
        .filter(|e| e.cat == "worker")
        .collect();
    assert_eq!(frames[1].name, "frame:compound", "the catch-up");
    let arg = |name: &str| {
        frames[1]
            .args
            .iter()
            .find_map(|(n, v)| match v {
                ArgValue::U64(v) if n == name => Some(*v),
                _ => None,
            })
            .unwrap()
    };
    let replayed = (iterations - 1) as u64;
    let local_rows = (points.len() - points.len() / 2) as u64;
    assert_eq!(
        arg("rows"),
        replayed * local_rows,
        "one pass per replayed item"
    );
    // Each replayed pass: its centers and mode out, a shard-less Partials
    // back, with framing — against 25 shard partials of 2,344 bytes each
    // had the partials come back.
    let per_pass = (K2 * D2 * 8) as u64 + 128;
    assert!(
        arg("bytes") <= replayed * per_pass + 256,
        "catch-up of {replayed} passes took {} bytes",
        arg("bytes")
    );
}

/// A worker dying *during* recovery (every replacement the supplier
/// offers dies the same way) exhausts the bounded retry schedule and
/// surfaces as a typed error — never a hang, never a panic.
#[test]
fn death_during_recovery_is_a_typed_error_not_a_hang() {
    let points = gauss();
    let slices = even_slices(points.len(), 2);
    // The fused init+sample compound. The replacements below key on the
    // same tag: catch-up replays no tracker segments for a death during
    // init (the round had not committed), so the first frame a doomed
    // replacement sees after Plan is the re-asked Compound itself.
    let die_at_init = vec![FaultAction::KillOnRecv {
        tag: tag::COMPOUND,
        occurrence: 1,
    }];
    let mut transports: Vec<Box<dyn Transport>> = Vec::new();
    let mut handles = Vec::new();
    for (w, &(start, rows)) in slices.iter().enumerate() {
        let source = InMemorySource::new(slice_rows(&points, start, rows), 3).unwrap();
        let script = if w == 1 { die_at_init.clone() } else { vec![] };
        let (t, h) = spawn_loopback_worker_with_faults(source, Parallelism::Sequential, script);
        transports.push(Box::new(t));
        handles.push(h);
    }
    let mut cluster = Cluster::new(transports).unwrap();
    let doomed: SharedHandles = Arc::new(Mutex::new(Vec::new()));
    let supplier_handles = Arc::clone(&doomed);
    let supplier_points = points.clone();
    cluster.set_recovery(
        Box::new(move |slot| {
            let (start, rows) = slices[slot];
            let source = InMemorySource::new(slice_rows(&supplier_points, start, rows), 3).unwrap();
            // Every replacement is scripted to die at the same round.
            let (t, h) = spawn_loopback_worker_with_faults(
                source,
                Parallelism::Sequential,
                vec![FaultAction::KillOnRecv {
                    tag: tag::COMPOUND,
                    occurrence: 1,
                }],
            );
            supplier_handles.lock().unwrap().push(h);
            Ok(Box::new(t))
        }),
        RetryPolicy::fixed(3, Duration::from_millis(1)),
    );
    let start = std::time::Instant::now();
    let err = KMeans::params(K)
        .seed(42)
        .shard_size(SHARD)
        .fit_distributed(&mut cluster)
        .unwrap_err();
    assert!(
        start.elapsed() < Duration::from_secs(30),
        "recovery exhaustion must be bounded"
    );
    assert!(
        err.to_string().contains("not recovered"),
        "expected a recovery-exhaustion error, got: {err}"
    );
    // The retry schedule is bounded: exactly `attempts` replacements were
    // tried, each of which died during its own catch-up.
    assert_eq!(doomed.lock().unwrap().len(), 3);
    for h in doomed.lock().unwrap().drain(..) {
        let _ = h.join().unwrap();
    }
}

/// A re-ask that fails still drains every worker the exchange sent to.
/// Worker 1 dies on its first `Cost` and the supplier's first two
/// replacements fail to start: the first potential fails on worker 1's
/// reply, the second on worker 1's send — after worker 0 already holds
/// the request. The next conversation adopts a healthy replacement, and
/// worker 0's reply must answer it, not the failed potential.
#[test]
fn a_failed_reask_leaves_the_other_workers_in_sync() {
    let points = gauss();
    let slices = even_slices(points.len(), 2);
    let mut transports: Vec<Box<dyn Transport>> = Vec::new();
    let mut originals = Vec::new();
    for (w, &(start, rows)) in slices.iter().enumerate() {
        let source = InMemorySource::new(slice_rows(&points, start, rows), 3).unwrap();
        let script = if w == 1 {
            vec![FaultAction::KillOnRecv {
                tag: tag::COST,
                occurrence: 1,
            }]
        } else {
            vec![]
        };
        let (t, h) = spawn_loopback_worker_with_faults(source, Parallelism::Sequential, script);
        transports.push(Box::new(t));
        originals.push(h);
    }
    let mut cluster = Cluster::new(transports).unwrap();
    let replacements: SharedHandles = Arc::new(Mutex::new(Vec::new()));
    let supplier_handles = Arc::clone(&replacements);
    let supplier_points = points.clone();
    let mut offers = 0;
    cluster.set_recovery(
        Box::new(move |slot| {
            offers += 1;
            if offers <= 2 {
                return Err(ClusterError::Disconnected);
            }
            let (start, rows) = slices[slot];
            let source = InMemorySource::new(slice_rows(&supplier_points, start, rows), 3).unwrap();
            let (t, h) = spawn_loopback_worker(source, Parallelism::Sequential);
            supplier_handles.lock().unwrap().push(h);
            Ok(Box::new(t))
        }),
        RetryPolicy::fixed(1, Duration::from_millis(1)),
    );
    cluster.plan(SHARD).unwrap();
    let centers = slice_rows(&points, 0, 2);
    for attempt in 1..=2 {
        let err = cluster.potential(&centers).unwrap_err().to_string();
        assert!(
            err.contains("worker 1 not recovered after 1 attempt(s)"),
            "potential {attempt}: {err}"
        );
    }
    let stats = cluster.fetch_stats().unwrap();
    assert_eq!(stats.len(), 2);
    cluster.shutdown();
    for h in originals {
        let _ = h.join().unwrap();
    }
    assert_eq!(replacements.lock().unwrap().len(), 1, "one adoption");
    drain(&replacements);
}

/// TCP elasticity: a worker ships half a reply frame over a real socket
/// and dies; the coordinator sees a typed frame error, asks the supplier
/// for a replacement (a brand-new `skm worker`-style process on a fresh
/// port), catches it up, and finishes bit-identically. Exercised for
/// both a plain Partials reply and a fused Compound reply (a death in
/// the middle of a multi-message round).
#[test]
fn tcp_worker_truncating_mid_frame_is_replaced_and_caught_up() {
    let points = gauss();
    let reference = KMeans::params(K)
        .seed(5)
        .shard_size(SHARD)
        .fit(&points)
        .unwrap();
    let timeout = Some(Duration::from_secs(30));
    let slices = even_slices(points.len(), 2);

    let truncations: Vec<(&str, FaultAction)> = vec![
        (
            "tcp mid-frame truncation (partials)",
            FaultAction::TruncateOnSend {
                tag: tag::PARTIALS,
                occurrence: 1,
                keep: 10,
            },
        ),
        (
            "tcp mid-frame truncation (compound reply)",
            FaultAction::TruncateOnSend {
                tag: tag::COMPOUND,
                occurrence: 2,
                keep: 10,
            },
        ),
    ];
    for (what, action) in truncations {
        let mut addrs = Vec::new();
        let mut originals = Vec::new();
        for (w, &(start, rows)) in slices.iter().enumerate() {
            let source = InMemorySource::new(slice_rows(&points, start, rows), 5).unwrap();
            let script = if w == 1 { vec![action] } else { vec![] };
            let (addr, h) =
                spawn_tcp_worker_with_faults(source, Parallelism::Sequential, timeout, script)
                    .unwrap();
            addrs.push(addr.to_string());
            originals.push(h);
        }
        let mut cluster = Cluster::connect(&addrs, timeout).unwrap();
        let replacements: SharedHandles = Arc::new(Mutex::new(Vec::new()));
        let supplier_handles = Arc::clone(&replacements);
        let supplier_points = points.clone();
        let supplier_slices = slices.clone();
        cluster.set_recovery(
            Box::new(move |slot| {
                let (start, rows) = supplier_slices[slot];
                let source =
                    InMemorySource::new(slice_rows(&supplier_points, start, rows), 5).unwrap();
                let (addr, h) = spawn_tcp_worker(source, Parallelism::Sequential, timeout)
                    .map_err(ClusterError::Io)?;
                supplier_handles.lock().unwrap().push(h);
                let stream = std::net::TcpStream::connect(addr).map_err(ClusterError::Io)?;
                Ok(Box::new(TcpTransport::new(stream, timeout)?))
            }),
            RetryPolicy::fixed(5, Duration::from_millis(10)),
        );
        let got = KMeans::params(K)
            .seed(5)
            .shard_size(SHARD)
            .fit_distributed(&mut cluster)
            .unwrap_or_else(|e| panic!("{what}: {e}"));
        cluster.shutdown();
        let mut originals = originals;
        assert!(originals.pop().unwrap().join().unwrap().is_err());
        originals.pop().unwrap().join().unwrap().unwrap();
        drain(&replacements);
        assert_bit_identical(&reference, &got, what);
    }
}

/// The operational re-join story end to end: `Cluster::connect`'s default
/// recovery redials the worker's *original address*, so restarting
/// `skm worker` on the same port mid-job is all an operator has to do. A
/// standby thread plays the restarted worker: it waits for the port to
/// free up, rebinds it, and serves the same shard.
#[test]
fn worker_restarted_on_same_address_is_adopted() {
    let points = gauss();
    let reference = KMeans::params(K)
        .seed(7)
        .shard_size(SHARD)
        .fit(&points)
        .unwrap();
    let timeout = Some(Duration::from_secs(30));
    let slices = even_slices(points.len(), 2);

    let mut addrs = Vec::new();
    let mut originals = Vec::new();
    for (w, &(start, rows)) in slices.iter().enumerate() {
        let source = InMemorySource::new(slice_rows(&points, start, rows), 5).unwrap();
        let script = if w == 1 {
            vec![FaultAction::KillOnRecv {
                tag: tag::ASSIGN,
                occurrence: 1,
            }]
        } else {
            vec![]
        };
        let (addr, h) =
            spawn_tcp_worker_with_faults(source, Parallelism::Sequential, timeout, script).unwrap();
        addrs.push(addr.to_string());
        originals.push(h);
    }

    // The "operator": restart the dead worker on its original address as
    // soon as the port frees up.
    let restart_addr = addrs[1].clone();
    let (start, rows) = slices[1];
    let restart_shard = slice_rows(&points, start, rows);
    let standby = std::thread::spawn(move || -> Result<(), ClusterError> {
        let deadline = std::time::Instant::now() + Duration::from_secs(20);
        loop {
            match TcpWorkerServer::bind(&restart_addr) {
                Ok(server) => {
                    let source = InMemorySource::new(restart_shard, 5).unwrap();
                    return server.serve(
                        Worker::new(source, Parallelism::Sequential),
                        timeout,
                        true,
                    );
                }
                Err(e) if std::time::Instant::now() < deadline => {
                    let _ = e;
                    std::thread::sleep(Duration::from_millis(50));
                }
                Err(e) => return Err(ClusterError::Io(e)),
            }
        }
    });

    let mut cluster = Cluster::connect_with_retry(
        &addrs,
        timeout,
        RetryPolicy::fixed(100, Duration::from_millis(100)),
    )
    .unwrap();
    let got = KMeans::params(K)
        .seed(7)
        .shard_size(SHARD)
        .fit_distributed(&mut cluster)
        .unwrap();
    cluster.shutdown();
    for h in originals {
        let _ = h.join().unwrap();
    }
    // The standby only returns Ok if the port freed up (the scripted
    // death fired) and a coordinator session ran against it (adoption).
    standby.join().unwrap().unwrap();
    assert_bit_identical(&reference, &got, "same-address restart");
}

/// A worker that has not even *started* when the coordinator dials is
/// waited for: `connect_with_retry` keeps redialing with backoff instead
/// of failing on the first refused connection.
#[test]
fn late_starting_worker_is_waited_for() {
    let points = gauss();
    let reference = KMeans::params(K)
        .seed(9)
        .shard_size(SHARD)
        .fit(&points)
        .unwrap();
    let timeout = Some(Duration::from_secs(30));
    let slices = even_slices(points.len(), 2);

    // Worker 0 is up immediately.
    let source0 = InMemorySource::new(slice_rows(&points, slices[0].0, slices[0].1), 5).unwrap();
    let (addr0, h0) = spawn_tcp_worker(source0, Parallelism::Sequential, timeout).unwrap();

    // Worker 1's address exists, but nothing listens there yet.
    let probe = std::net::TcpListener::bind("127.0.0.1:0").unwrap();
    let addr1 = probe.local_addr().unwrap().to_string();
    drop(probe);
    let late_shard = slice_rows(&points, slices[1].0, slices[1].1);
    let late_addr = addr1.clone();
    let h1 = std::thread::spawn(move || -> Result<(), ClusterError> {
        std::thread::sleep(Duration::from_millis(400));
        let server = TcpWorkerServer::bind(&late_addr).map_err(ClusterError::Io)?;
        let source = InMemorySource::new(late_shard, 5).unwrap();
        server.serve(Worker::new(source, Parallelism::Sequential), timeout, true)
    });

    let mut cluster = Cluster::connect_with_retry(
        &[addr0.to_string(), addr1],
        timeout,
        RetryPolicy::fixed(100, Duration::from_millis(100)),
    )
    .unwrap();
    let got = KMeans::params(K)
        .seed(9)
        .shard_size(SHARD)
        .fit_distributed(&mut cluster)
        .unwrap();
    cluster.shutdown();
    h0.join().unwrap().unwrap();
    h1.join().unwrap().unwrap();
    assert_bit_identical(&reference, &got, "late-starting worker");
}

/// Kills at the rounds around the seed-cost pass — the seed-cost round
/// itself, the first assignment round and the closing round — of Lloyd,
/// seed-only and mini-batch fits after k-means||, on the request and on
/// the reply, over 2 workers. The seed-cost pass writes its labels over
/// the tracker, and the first assignment at its centers reads them, so
/// the catch-up replays that pass when no assignment has followed it: the
/// replacement holds the same labels, and every recovered model is
/// bit-identical to the in-memory fit, kernel counters included.
#[test]
fn kills_around_the_seed_cost_pass_keep_every_counter() {
    // Overlapping clusters, on which a first pass that searched from the
    // tracker instead of reading the seed-cost labels would count other
    // kernel work than one that reads them.
    let points = GaussMixture::new(K)
        .points(N)
        .center_variance(0.5)
        .generate(13)
        .unwrap()
        .dataset
        .into_parts()
        .1;
    let exec = Executor::sequential().with_shard_size(SHARD);
    let first_pass = |potential: bool| {
        let mut backend = LocalBackend::in_memory(&points, None, &exec);
        let config = KMeansParallelConfig::default();
        let (seeds, _) = drive_kmeans_parallel(&mut backend, K, &config, 42).unwrap();
        if potential {
            backend.potential(&seeds).unwrap();
        }
        backend.assign(&seeds, LabelFetch::Skip).unwrap().1.stats
    };
    assert_ne!(
        first_pass(true),
        first_pass(false),
        "the data must tell the passes apart"
    );
    let minibatch = MiniBatch(MiniBatchConfig {
        batch_size: 32,
        iterations: 10,
    });
    for name in ["lloyd", "none", "minibatch"] {
        let builder = || {
            let base = KMeans::params(K).seed(42).shard_size(SHARD);
            match name {
                "none" => base.refine(NoRefine),
                "minibatch" => base.refine(minibatch),
                _ => base,
            }
        };
        let reference = builder().fit(&points).unwrap();
        // Seed-only and mini-batch fits make one assignment pass, the
        // closing one; Lloyd closes after its `iterations` passes.
        let closing = match name {
            "lloyd" => reference.iterations() as u32 + 1,
            _ => 1,
        };
        let grid = [
            (
                "seed-cost request",
                FaultAction::KillOnRecv {
                    tag: tag::COST,
                    occurrence: 1,
                },
            ),
            (
                "seed-cost reply",
                FaultAction::KillOnSend {
                    tag: tag::SHARD_SUMS,
                    occurrence: 1,
                },
            ),
            (
                "first assignment request",
                FaultAction::KillOnRecv {
                    tag: tag::ASSIGN,
                    occurrence: 1,
                },
            ),
            (
                "first assignment reply",
                FaultAction::KillOnSend {
                    tag: tag::PARTIALS,
                    occurrence: 1,
                },
            ),
            (
                "closing request",
                FaultAction::KillOnRecv {
                    tag: tag::ASSIGN,
                    occurrence: closing,
                },
            ),
            (
                "closing reply",
                FaultAction::KillOnSend {
                    tag: tag::PARTIALS,
                    occurrence: closing,
                },
            ),
        ];
        for (what, action) in grid {
            let what = format!("{name}, {what}");
            let scripts: Vec<(usize, Vec<FaultAction>)> =
                (0..2).map(|w| (w, vec![action])).collect();
            let (mut cluster, originals, replacements) =
                recovering_loopback_cluster(&points, 2, &scripts);
            let got = builder()
                .fit_distributed(&mut cluster)
                .unwrap_or_else(|e| panic!("{what}: {e}"));
            cluster.shutdown();
            for h in originals {
                let _ = h.join().unwrap();
            }
            assert!(
                !replacements.lock().unwrap().is_empty(),
                "{what}: the scripted fault never fired (no recovery ran)"
            );
            drain(&replacements);
            assert_bit_identical(&reference, &got, &what);
        }
    }
}
