//! Deterministic fault injection for the serving tier, in the style of
//! `tests/cluster_failure_injection.rs`: every overload, deadline, drain,
//! and replica-death scenario is scripted — no sleeps standing in for
//! load, no real clocks standing in for deadlines — and every client
//! outcome must be a typed error or a bit-identical answer, never a hang,
//! a panic, or a lost admitted request.
//!
//! The levers: [`ServeEngine::pause`] freezes the combiner so queue depth
//! is exact, `FakeClock` drives deadline expiry, and the cluster
//! runtime's `FaultTransport` (instantiated over `SKS1` frames by
//! `kmeans_serve::fault`) kills replicas at exact `(tag, occurrence)`
//! triggers.

use scalable_kmeans::cluster::fault::FaultAction;
use scalable_kmeans::cluster::protocol::WireError;
use scalable_kmeans::cluster::transport::{LoopbackTransport, Transport};
use scalable_kmeans::cluster::{ClusterError, RetryPolicy};
use scalable_kmeans::prelude::*;
use scalable_kmeans::serve::fault::tag;
use scalable_kmeans::serve::{
    spawn_loopback_serve, spawn_loopback_serve_with_faults, spawn_tcp_serve,
    spawn_tcp_serve_with_faults, EngineConfig, ServeClient, ServeEngine, ServeMessage,
};
use std::collections::VecDeque;
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

const IO: Option<Duration> = Some(Duration::from_secs(30));

fn dataset(seed: u64) -> PointMatrix {
    GaussMixture::new(5)
        .points(400)
        .center_variance(60.0)
        .generate(seed)
        .unwrap()
        .dataset
        .points()
        .clone()
}

fn fitted(points: &PointMatrix, seed: u64) -> KMeansModel {
    KMeans::params(5)
        .seed(seed)
        .parallelism(Parallelism::Sequential)
        .fit(points)
        .unwrap()
}

fn rows(points: &PointMatrix, range: std::ops::Range<usize>) -> PointMatrix {
    let d = points.dim();
    PointMatrix::from_flat(
        points.as_slice()[range.start * d..range.end * d].to_vec(),
        d,
    )
    .unwrap()
}

fn engine_with(model: &KMeansModel, config: EngineConfig) -> ServeEngine {
    ServeEngine::with_config(
        model.to_record(),
        Executor::new(Parallelism::Sequential),
        config,
    )
    .unwrap()
}

/// Spins until `cond` holds (bounded; deterministic conditions only).
fn spin_until(what: &str, cond: impl Fn() -> bool) {
    let deadline = Instant::now() + Duration::from_secs(10);
    while !cond() {
        assert!(Instant::now() < deadline, "timed out waiting for {what}");
        std::thread::yield_now();
    }
}

/// A failover supplier over a fixed pool of pre-spawned loopback
/// replicas: each (re)dial consumes the next one; an exhausted pool is a
/// typed `Disconnected`, exactly like a replica list with nothing alive.
fn pooled_supplier(
    replicas: Vec<LoopbackTransport<ServeMessage>>,
) -> Box<dyn FnMut(u32) -> Result<LoopbackTransport<ServeMessage>, ClusterError> + Send> {
    let pool = Arc::new(Mutex::new(replicas.into_iter().collect::<VecDeque<_>>()));
    Box::new(move |_attempt| {
        pool.lock()
            .unwrap()
            .pop_front()
            .ok_or(ClusterError::Disconnected)
    })
}

#[test]
fn overload_is_shed_typed_on_the_wire_and_admitted_work_completes() {
    let data = dataset(7);
    let model = fitted(&data, 3);
    let admitted_query = rows(&data, 0..60);
    let shed_query = rows(&data, 100..110);

    let engine = engine_with(
        &model,
        EngineConfig {
            queue_cap: admitted_query.len(),
            ..EngineConfig::default()
        },
    );
    // Freeze the combiner so "the server is busy" is a scripted state,
    // not a race: the first request is admitted (fills the queue
    // exactly), the second must be shed before it ever reaches a kernel.
    let paused = engine.pause();

    let (admitted_side, admitted_handle) = spawn_loopback_serve(&engine);
    let admitted_expected = model.predict(&admitted_query).unwrap();
    let admitted = std::thread::spawn(move || {
        let mut client = ServeClient::handshake(admitted_side).unwrap();
        client.predict(&admitted_query).unwrap()
    });
    spin_until("the first request to be admitted", || {
        engine.queued_points() == engine.queue_cap()
    });

    // Over the wire, the shed is a typed Error frame carrying the queue
    // telemetry — the client can see *why* and *how far over*.
    let (mut raw, shed_handle) = spawn_loopback_serve(&engine);
    raw.send(&ServeMessage::Predict {
        points: shed_query,
        deadline_ms: None,
    })
    .unwrap();
    match raw.recv().unwrap() {
        ServeMessage::Error(WireError::Overloaded { queued_points, cap }) => {
            assert_eq!(queued_points, engine.queue_cap());
            assert_eq!(cap, engine.queue_cap());
        }
        other => panic!("expected Overloaded, got {other:?}"),
    }

    // Shedding never cancels admitted work: unfreeze and the first
    // request completes bit-identically to the local model.
    drop(paused);
    let prediction = admitted.join().unwrap();
    assert_eq!(prediction.labels, admitted_expected);

    let stats = engine.stats();
    assert_eq!(stats.shed_requests, 1);
    assert_eq!(stats.shed_points, 10);
    assert_eq!(stats.queued_points, 0);

    drop(raw);
    admitted_handle.join().unwrap().unwrap();
    shed_handle.join().unwrap().unwrap();
}

#[test]
fn expired_deadline_is_typed_on_the_wire_and_never_reaches_the_kernel() {
    let data = dataset(11);
    let model = fitted(&data, 5);
    let clock = Arc::new(FakeClock::new(0));
    let engine = engine_with(
        &model,
        EngineConfig {
            clock: Arc::clone(&clock) as Arc<dyn scalable_kmeans::obs::Clock>,
            ..EngineConfig::default()
        },
    );
    let paused = engine.pause();

    let (mut raw, handle) = spawn_loopback_serve(&engine);
    raw.send(&ServeMessage::Predict {
        points: rows(&data, 0..40),
        deadline_ms: Some(5),
    })
    .unwrap();
    spin_until("the deadline request to be admitted", || {
        engine.queued_points() > 0
    });

    // The budget expires while the request is still queued; on dequeue
    // the combiner must answer typed, without running the sweep.
    let sweeps_before = engine.stats().distance_computations;
    clock.advance(6_000_000); // 6 ms > the 5 ms budget
    drop(paused);
    match raw.recv().unwrap() {
        ServeMessage::Error(WireError::DeadlineExceeded { budget_ms }) => {
            assert_eq!(budget_ms, 5)
        }
        other => panic!("expected DeadlineExceeded, got {other:?}"),
    }
    let stats = engine.stats();
    assert_eq!(stats.deadline_exceeded, 1);
    assert_eq!(stats.distance_computations, sweeps_before);

    // An unexpired deadline on the same session still gets real service.
    raw.send(&ServeMessage::Predict {
        points: rows(&data, 0..40),
        deadline_ms: Some(1_000),
    })
    .unwrap();
    match raw.recv().unwrap() {
        ServeMessage::Labels { labels, .. } => {
            assert_eq!(labels, model.predict(&rows(&data, 0..40)).unwrap())
        }
        other => panic!("expected Labels, got {other:?}"),
    }
    drop(raw);
    handle.join().unwrap().unwrap();
}

#[test]
fn drain_answers_every_admitted_request_and_rejects_new_ones_typed() {
    let data = dataset(17);
    let model = fitted(&data, 2);
    let engine = engine_with(&model, EngineConfig::default());
    let paused = engine.pause();

    let admitted_query = rows(&data, 0..80);
    let admitted_expected = model.predict(&admitted_query).unwrap();
    let (admitted_side, admitted_handle) = spawn_loopback_serve(&engine);
    let admitted = std::thread::spawn(move || {
        let mut client = ServeClient::handshake(admitted_side).unwrap();
        client.predict(&admitted_query).unwrap()
    });
    spin_until("the pre-drain request to be admitted", || {
        engine.queued_points() > 0
    });

    // Drain: the wire reply reports the points still owed; readiness and
    // admission flip immediately, but nothing admitted is cancelled.
    let (mut admin, admin_handle) = spawn_loopback_serve(&engine);
    admin.send(&ServeMessage::Drain).unwrap();
    match admin.recv().unwrap() {
        ServeMessage::DrainOk { queued_points } => assert_eq!(queued_points, 80),
        other => panic!("expected DrainOk, got {other:?}"),
    }
    assert!(engine.is_draining());
    assert!(!engine.is_drained(), "drained early: admitted work pending");

    admin
        .send(&ServeMessage::Predict {
            points: rows(&data, 0..5),
            deadline_ms: None,
        })
        .unwrap();
    match admin.recv().unwrap() {
        ServeMessage::Error(WireError::Draining) => {}
        other => panic!("expected Draining, got {other:?}"),
    }

    drop(paused);
    let prediction = admitted.join().unwrap();
    assert_eq!(prediction.labels, admitted_expected, "admitted reply lost");
    spin_until("the drain to complete", || engine.is_drained());

    let stats = engine.stats();
    assert_eq!(stats.drain_rejected, 1);
    assert!(stats.draining);
    assert_eq!(stats.queued_points, 0);

    drop(admin);
    admitted_handle.join().unwrap().unwrap();
    admin_handle.join().unwrap().unwrap();
}

#[test]
fn tcp_drain_exits_the_daemon_with_zero_admitted_loss() {
    let data = dataset(23);
    let model = fitted(&data, 4);
    let engine = engine_with(&model, EngineConfig::default());
    let paused = engine.pause();
    let (addr, handle) = spawn_tcp_serve(engine.clone(), IO).unwrap();

    let admitted_query = rows(&data, 10..90);
    let admitted_expected = model.predict(&admitted_query).unwrap();
    let worker_addr = addr.to_string();
    let admitted = std::thread::spawn(move || {
        let mut client = ServeClient::connect(&worker_addr, IO).unwrap();
        client.predict(&admitted_query).unwrap()
    });
    spin_until("the TCP request to be admitted", || {
        engine.queued_points() > 0
    });

    let mut admin = ServeClient::connect(&addr.to_string(), IO).unwrap();
    assert_eq!(admin.drain().unwrap(), 80);

    // In-flight work finishes bit-identically, then the daemon exits on
    // its own — the rolling-restart contract: drain, wait, replace.
    drop(paused);
    let prediction = admitted.join().unwrap();
    assert_eq!(prediction.labels, admitted_expected);
    handle.join().unwrap().unwrap();
}

#[test]
fn client_fails_over_to_the_next_replica_when_one_dies_mid_reply() {
    let data = dataset(31);
    let model = fitted(&data, 6);
    let query = rows(&data, 0..70);
    let expected = model.predict(&query).unwrap();

    // Replica 1 crashes before its first Labels reply leaves the
    // machine; replica 2 is healthy. Both serve the same model, so the
    // replayed request must return the same bits.
    let engine1 = engine_with(&model, EngineConfig::default());
    let engine2 = engine_with(&model, EngineConfig::default());
    let (faulty_side, faulty_handle) = spawn_loopback_serve_with_faults(
        &engine1,
        vec![FaultAction::KillOnSend {
            tag: tag::LABELS,
            occurrence: 1,
        }],
    );
    let (healthy_side, healthy_handle) = spawn_loopback_serve(&engine2);

    let mut client = ServeClient::with_failover(
        pooled_supplier(vec![faulty_side, healthy_side]),
        RetryPolicy::fixed(3, Duration::from_millis(1)),
    )
    .unwrap();
    let prediction = client.predict(&query).unwrap();
    assert_eq!(prediction.labels, expected, "failover changed the answer");

    // The dead replica did admit the request before crashing; the
    // survivor actually served it.
    assert!(faulty_handle.join().unwrap().is_err(), "fault never fired");
    assert_eq!(engine2.stats().requests, 1);
    drop(client);
    healthy_handle.join().unwrap().unwrap();
}

#[test]
fn client_fails_over_from_a_draining_replica_transparently() {
    let data = dataset(37);
    let model = fitted(&data, 8);
    let query = rows(&data, 5..55);
    let expected = model.predict(&query).unwrap();

    let engine1 = engine_with(&model, EngineConfig::default());
    let engine2 = engine_with(&model, EngineConfig::default());
    engine1.drain();
    let (draining_side, draining_handle) = spawn_loopback_serve(&engine1);
    let (healthy_side, healthy_handle) = spawn_loopback_serve(&engine2);

    // The draining replica still answers the handshake (drain is not
    // death), but sheds the predict typed — which the failover client
    // turns into a transparent re-dial, not a user-visible error.
    let mut client = ServeClient::with_failover(
        pooled_supplier(vec![draining_side, healthy_side]),
        RetryPolicy::fixed(3, Duration::from_millis(1)),
    )
    .unwrap();
    let prediction = client.predict(&query).unwrap();
    assert_eq!(prediction.labels, expected);
    assert_eq!(engine1.stats().drain_rejected, 1);
    assert_eq!(engine2.stats().requests, 1);
    drop(client);
    draining_handle.join().unwrap().unwrap();
    healthy_handle.join().unwrap().unwrap();
}

#[test]
fn replica_exhaustion_is_a_typed_error_never_a_hang() {
    let data = dataset(41);
    let model = fitted(&data, 9);
    let engine = engine_with(&model, EngineConfig::default());

    // The only replica eats the predict request and dies; every redial
    // finds an empty pool. The client must give up after its bounded
    // retry budget with a typed transport error — promptly.
    let (only_side, only_handle) = spawn_loopback_serve_with_faults(
        &engine,
        vec![FaultAction::KillOnRecv {
            tag: tag::PREDICT,
            occurrence: 1,
        }],
    );
    let mut client = ServeClient::with_failover(
        pooled_supplier(vec![only_side]),
        RetryPolicy::fixed(4, Duration::from_millis(5)),
    )
    .unwrap();
    let started = Instant::now();
    let err = client.predict(&rows(&data, 0..30)).unwrap_err();
    assert!(
        matches!(err, ClusterError::Disconnected | ClusterError::Io(_)),
        "{err:?}"
    );
    assert!(
        started.elapsed() < Duration::from_secs(5),
        "retry budget was not bounded: {:?}",
        started.elapsed()
    );
    // The dead replica's session sees the kill as a hangup (clean exit);
    // the point is it never answered and the client still terminated.
    only_handle.join().unwrap().unwrap();
}

#[test]
fn tcp_replica_set_survives_a_mid_frame_crash_bit_identically() {
    let data = dataset(43);
    let model = fitted(&data, 12);
    let query = rows(&data, 20..120);
    let expected = model.predict(&query).unwrap();
    let expected_cost = model.cost_of(&query).unwrap();

    // Replica 1 ships 6 bytes of its first Labels frame and dies — a
    // real mid-frame crash over a real socket. Replica 2 is healthy.
    let engine1 = engine_with(&model, EngineConfig::default());
    let engine2 = engine_with(&model, EngineConfig::default());
    let (addr1, faulty_handle) = spawn_tcp_serve_with_faults(
        &engine1,
        IO,
        vec![FaultAction::TruncateOnSend {
            tag: tag::LABELS,
            occurrence: 1,
            keep: 6,
        }],
    )
    .unwrap();
    let (addr2, healthy_handle) = spawn_tcp_serve(engine2.clone(), IO).unwrap();

    let mut client = ServeClient::connect_any(
        &[addr1.to_string(), addr2.to_string()],
        IO,
        RetryPolicy::fixed(4, Duration::from_millis(10)),
    )
    .unwrap();
    let prediction = client.predict(&query).unwrap();
    assert_eq!(prediction.labels, expected, "failover changed the labels");
    let (_, cost) = client.cost_of(&query).unwrap();
    assert_eq!(cost.to_bits(), expected_cost.to_bits());

    assert!(faulty_handle.join().unwrap().is_err(), "fault never fired");
    client.shutdown().unwrap();
    healthy_handle.join().unwrap().unwrap();
}
