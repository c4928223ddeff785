//! Flight-recorder acceptance tests: instrumentation is **observation
//! only**. A fit run with an enabled [`Recorder`] produces bit-identical
//! centers, labels, and cost to the same fit without one — across the
//! in-memory, chunked, and distributed backends — while the recorded
//! timeline actually covers the work (stage spans account for the wall
//! clock, round spans nest inside stages, distributed rounds carry
//! wire-byte deltas).

use scalable_kmeans::cluster::{spawn_loopback_worker, Cluster, FitDistributed, Transport};
use scalable_kmeans::core::minibatch::MiniBatchConfig;
use scalable_kmeans::core::pipeline::{AfkMc2, KMeansPlusPlus, Lloyd, MiniBatch, NoRefine, Random};
use scalable_kmeans::data::synth::GaussMixture;
use scalable_kmeans::data::{InMemorySource, PointMatrix};
use scalable_kmeans::obs::{ArgValue, Recorder, SpanEvent};
use scalable_kmeans::par::Parallelism;
use scalable_kmeans::streaming::{Coreset, Partition};
use scalable_kmeans::KMeans;

const N: usize = 192;
const K: usize = 5;

fn gauss() -> PointMatrix {
    GaussMixture::new(K)
        .points(N)
        .center_variance(50.0)
        .generate(23)
        .unwrap()
        .dataset
        .into_parts()
        .1
}

fn builder() -> KMeans {
    KMeans::params(K)
        .seed(13)
        .parallelism(Parallelism::Sequential)
        .shard_size(32)
}

fn slice_rows(points: &PointMatrix, start: usize, rows: usize) -> PointMatrix {
    let dim = points.dim();
    PointMatrix::from_flat(
        points.as_slice()[start * dim..(start + rows) * dim].to_vec(),
        dim,
    )
    .unwrap()
}

fn assert_identical(
    plain: &scalable_kmeans::KMeansModel,
    traced: &scalable_kmeans::KMeansModel,
    what: &str,
) {
    assert_eq!(plain.centers(), traced.centers(), "{what}: centers");
    assert_eq!(plain.labels(), traced.labels(), "{what}: labels");
    assert_eq!(
        plain.cost().to_bits(),
        traced.cost().to_bits(),
        "{what}: cost"
    );
    assert_eq!(
        plain.distance_computations(),
        traced.distance_computations(),
        "{what}: distance computations"
    );
}

/// Stage spans (`fit` category) must account for nearly the whole
/// timeline, and round spans must nest inside them — otherwise the
/// trace misrepresents where the time went.
fn assert_timeline_covers_the_fit(events: &[SpanEvent], what: &str) {
    assert!(!events.is_empty(), "{what}: empty timeline");
    let first = events.iter().map(|e| e.start_ns).min().unwrap();
    let last = events.iter().map(|e| e.start_ns + e.dur_ns).max().unwrap();
    let wall = last - first;
    let stage_sum: u64 = events
        .iter()
        .filter(|e| e.cat == "fit")
        .map(|e| e.dur_ns)
        .sum();
    let round_sum: u64 = events
        .iter()
        .filter(|e| e.cat == "round")
        .map(|e| e.dur_ns)
        .sum();
    assert!(
        events.iter().filter(|e| e.cat == "fit").count() == 2,
        "{what}: expected exactly stage:init + stage:refine"
    );
    assert!(
        round_sum <= stage_sum,
        "{what}: round spans ({round_sum} ns) exceed the stages that \
         contain them ({stage_sum} ns)"
    );
    // The only un-spanned wall time is the recorder bookkeeping between
    // the two stage spans: a 10%-of-wall (floored at 1 ms) allowance.
    let slack = (wall / 10).max(1_000_000);
    assert!(
        stage_sum + slack >= wall,
        "{what}: stages cover {stage_sum} of {wall} ns (slack {slack})"
    );
    for e in events.iter().filter(|e| e.cat == "round") {
        assert!(
            e.start_ns >= first && e.start_ns + e.dur_ns <= last,
            "{what}: round span '{}' outside the timeline",
            e.name
        );
    }
}

#[test]
fn traced_in_memory_fit_is_bit_identical_and_fully_spanned() {
    let points = gauss();
    let plain = builder().fit(&points).unwrap();
    let recorder = Recorder::monotonic();
    let traced = builder().recorder(recorder.clone()).fit(&points).unwrap();
    assert_identical(&plain, &traced, "in-memory");

    let events = recorder.events();
    assert_timeline_covers_the_fit(&events, "in-memory");
    for name in [
        "tracker_init+sample",
        "tracker_update+sample",
        "tracker_update+weights",
        "assign",
        "potential",
    ] {
        assert!(
            events.iter().any(|e| e.cat == "round" && e.name == name),
            "in-memory: no '{name}' round span"
        );
    }
    // Every round span names its backend.
    assert!(events.iter().filter(|e| e.cat == "round").all(|e| e
        .args
        .iter()
        .any(|(n, v)| n == "backend"
            && matches!(v, scalable_kmeans::obs::ArgValue::Str(s) if s == "in-memory"))));
}

/// Every stage runs through the one fit engine, so the stages without a
/// round form and the weighted fits are traced like any other: the
/// instrumented fit is bit-identical and records in-memory round spans.
#[test]
fn traced_local_stage_and_weighted_fits_run_the_one_engine() {
    let points = gauss();
    let weights: Vec<f64> = (0..N).map(|i| 1.0 + (i % 3) as f64).collect();
    let minibatch = MiniBatch(MiniBatchConfig {
        batch_size: 32,
        iterations: 20,
    });
    let cases = [
        (
            "kmeans++ + lloyd",
            builder().init(KMeansPlusPlus).refine(Lloyd::default()),
        ),
        (
            "afk-mc2 + minibatch",
            builder()
                .init(AfkMc2 { chain_length: 20 })
                .refine(minibatch),
        ),
        (
            "partition + none",
            builder().init(Partition::default()).refine(NoRefine),
        ),
        (
            "coreset + lloyd",
            builder()
                .init(Coreset { coreset_size: 32 })
                .refine(Lloyd::default()),
        ),
        (
            "weighted random + lloyd",
            builder()
                .init(Random)
                .refine(Lloyd::default())
                .weights(&weights),
        ),
        (
            "weighted kmeans++ + none",
            builder()
                .init(KMeansPlusPlus)
                .refine(NoRefine)
                .weights(&weights),
        ),
    ];
    for (what, fit) in cases {
        let plain = fit.fit(&points).unwrap();
        let recorder = Recorder::monotonic();
        let traced = fit.recorder(recorder.clone()).fit(&points).unwrap();
        assert_identical(&plain, &traced, what);
        assert_eq!(
            plain.init_stats().seed_cost.to_bits(),
            traced.init_stats().seed_cost.to_bits(),
            "{what}: seed cost"
        );
        let events = recorder.events();
        assert_timeline_covers_the_fit(&events, what);
        assert!(
            events.iter().any(|e| e.cat == "round"
                && e.args
                    .iter()
                    .any(|(n, v)| n == "backend"
                        && matches!(v, ArgValue::Str(s) if s == "in-memory"))),
            "{what}: no in-memory round span"
        );
    }
}

#[test]
fn traced_chunked_fit_is_bit_identical() {
    let points = gauss();
    let plain = builder().fit(&points).unwrap();
    let recorder = Recorder::monotonic();
    let source = InMemorySource::new(points, 48).unwrap();
    let traced = builder()
        .recorder(recorder.clone())
        .data_source(source)
        .fit_chunked()
        .unwrap();
    assert_identical(&plain, &traced, "chunked");
    let events = recorder.events();
    assert_timeline_covers_the_fit(&events, "chunked");
    assert!(events.iter().any(|e| e.cat == "round"
        && e.name == "assign"
        && e.args.iter().any(|(n, v)| n == "backend"
            && matches!(v, scalable_kmeans::obs::ArgValue::Str(s) if s == "chunked"))));
}

#[test]
fn traced_distributed_fit_is_bit_identical_and_counts_wire_bytes() {
    let points = gauss();
    let plain = builder().fit(&points).unwrap();

    let mut transports: Vec<Box<dyn Transport>> = Vec::new();
    let mut handles = Vec::new();
    for w in 0..3 {
        let shard = slice_rows(&points, w * 64, 64);
        let source = InMemorySource::new(shard, 32).unwrap();
        let (transport, handle) = spawn_loopback_worker(source, Parallelism::Sequential);
        transports.push(Box::new(transport));
        handles.push(handle);
    }
    let mut cluster = Cluster::new(transports).unwrap();
    let recorder = Recorder::monotonic();
    cluster.set_recorder(recorder.clone());
    let traced = builder()
        .recorder(recorder.clone())
        .fit_distributed(&mut cluster)
        .unwrap();
    let wire_total = cluster.bytes_sent() + cluster.bytes_received();
    let round_trips = cluster.round_trips();
    cluster.shutdown();
    for h in handles {
        h.join().unwrap().unwrap();
    }
    assert_identical(&plain, &traced, "distributed");

    let events = recorder.events();
    assert_timeline_covers_the_fit(&events, "distributed");
    // Round spans carry monotone wire-byte deltas that never overshoot
    // the cluster's own totals.
    let wire_sum: u64 = events
        .iter()
        .filter(|e| e.cat == "round")
        .filter_map(|e| {
            e.args.iter().find_map(|(n, v)| match v {
                scalable_kmeans::obs::ArgValue::U64(b) if n == "wire_bytes" => Some(*b),
                _ => None,
            })
        })
        .sum();
    assert!(wire_sum > 0, "no wire bytes attributed to any round");
    assert!(
        wire_sum <= wire_total,
        "round spans claim {wire_sum} wire bytes but the cluster only moved {wire_total}"
    );
    // The fused compound rounds are themselves spanned, and each carries
    // a non-zero share of the wire (a compound request and its compound
    // reply both cross the socket inside the span).
    for name in [
        "tracker_init+sample",
        "tracker_update+sample",
        "tracker_update+weights",
    ] {
        let fused_bytes: u64 = events
            .iter()
            .filter(|e| e.cat == "round" && e.name == name)
            .filter_map(|e| {
                e.args.iter().find_map(|(n, v)| match v {
                    scalable_kmeans::obs::ArgValue::U64(b) if n == "wire_bytes" => Some(*b),
                    _ => None,
                })
            })
            .sum();
        assert!(
            fused_bytes > 0,
            "fused round '{name}' attributed no wire bytes"
        );
    }
    // The coordinator tier interleaves on the same timeline.
    assert!(events
        .iter()
        .any(|e| e.cat == "cluster" && e.name.starts_with("broadcast:")));
    // One coordinator span per counted round trip, row gathers included.
    let exchanges = events
        .iter()
        .filter(|e| e.cat == "cluster" && e.name.starts_with("broadcast:"))
        .count() as u64;
    assert_eq!(exchanges, round_trips, "coordinator spans vs round trips");
}

#[test]
fn disabled_recorder_is_the_default_and_records_nothing() {
    let points = gauss();
    let recorder = Recorder::disabled();
    let model = builder().recorder(recorder.clone()).fit(&points).unwrap();
    assert_identical(&builder().fit(&points).unwrap(), &model, "disabled");
    assert!(recorder.events().is_empty());
    assert!(!builder().configured_recorder().is_enabled());
}
