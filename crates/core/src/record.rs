//! The recording decorator over any [`RoundBackend`]: every round-level
//! call wrapped in one span — round kind, wall time, wire bytes, kernel
//! counters — without touching a single result. One span is one round:
//! one wire round trip on a cluster.
//!
//! [`RecordingBackend`] is how the flight recorder threads through all
//! three execution modes with one implementation: the backend-generic
//! drivers see a `RoundBackend` like any other, the wrapped backend
//! answers every call unchanged, and the wrapper only *reads* what
//! flows past it (the observability contract: instrumented fits are
//! bit-identical to uninstrumented ones, pinned by
//! `tests/obs_parity.rs`). Per-round wire traffic comes from diffing
//! the inner backend's monotonic [`RoundBackend::wire_bytes`] counter
//! around each call — local backends report none, the cluster backend
//! reports coordinator-side send+receive totals.

use crate::assign::ClusterSums;
use crate::driver::{
    BackendKind, Broadcast, LabelFetch, LocalData, RoundBackend, TrackerOut, TrackerRead,
};
use crate::error::KMeansError;
use kmeans_data::PointMatrix;
use kmeans_obs::{arg_str, arg_u64, ArgValue, Recorder, SpanStart};
use kmeans_par::Executor;

/// Span category used for round spans.
pub const ROUND_CAT: &str = "round";

/// A [`RoundBackend`] decorator that records one span per round-level
/// call into a [`Recorder`]. With a disabled recorder every call is a
/// plain delegation plus one branch.
pub struct RecordingBackend<'a> {
    inner: &'a mut dyn RoundBackend,
    recorder: Recorder,
}

impl<'a> RecordingBackend<'a> {
    /// Wraps `inner`, recording into `recorder`.
    pub fn new(inner: &'a mut dyn RoundBackend, recorder: Recorder) -> Self {
        RecordingBackend { inner, recorder }
    }

    /// Opens a span: the timer token plus the wire counter baseline.
    fn begin(&self) -> (SpanStart, u64) {
        if self.recorder.is_enabled() {
            (self.recorder.start(), self.inner.wire_bytes().unwrap_or(0))
        } else {
            (self.recorder.start(), 0)
        }
    }

    /// Closes the span opened by [`RecordingBackend::begin`], attaching
    /// the per-call wire-byte delta, the backend kind, and `extra`.
    fn finish(
        &self,
        start: SpanStart,
        wire_before: u64,
        name: &str,
        extra: impl FnOnce() -> Vec<(String, ArgValue)>,
    ) {
        if !self.recorder.is_enabled() {
            return;
        }
        let kind = self.inner.kind();
        let wire_delta = self
            .inner
            .wire_bytes()
            .map(|now| now.saturating_sub(wire_before));
        self.recorder.span(start, name, ROUND_CAT, || {
            let mut args = extra();
            args.push(arg_str("backend", kind.name()));
            if let Some(bytes) = wire_delta {
                args.push(arg_u64("wire_bytes", bytes));
            }
            args
        });
    }
}

impl RoundBackend for RecordingBackend<'_> {
    fn kind(&self) -> BackendKind {
        self.inner.kind()
    }

    fn len(&self) -> usize {
        self.inner.len()
    }

    fn dim(&self) -> usize {
        self.inner.dim()
    }

    fn local(&self) -> Option<(LocalData<'_>, &Executor)> {
        self.inner.local()
    }

    fn wire_bytes(&self) -> Option<u64> {
        self.inner.wire_bytes()
    }

    fn gather_rows(&mut self, indices: &[usize], out: &mut PointMatrix) -> Result<(), KMeansError> {
        let (start, wire) = self.begin();
        let result = self.inner.gather_rows(indices, out);
        let rows = indices.len() as u64;
        self.finish(start, wire, "gather_rows", || vec![arg_u64("rows", rows)]);
        result
    }

    fn preload_rows(&mut self, indices: &[usize]) -> Result<(), KMeansError> {
        let (start, wire) = self.begin();
        let out = self.inner.preload_rows(indices);
        let rows = indices.len() as u64;
        self.finish(start, wire, "preload_rows", || vec![arg_u64("rows", rows)]);
        out
    }

    /// One span per tracker round, named from its broadcast and read:
    /// `tracker_init+sample`, `tracker_update+sample`,
    /// `tracker_update+weights`, `tracker_update+d2`, `tracker_update`.
    fn tracker_round(
        &mut self,
        broadcast: Broadcast<'_>,
        read: TrackerRead,
    ) -> Result<(f64, TrackerOut), KMeansError> {
        let (start, wire) = self.begin();
        let out = self.inner.tracker_round(broadcast, read);
        if !self.recorder.is_enabled() {
            return out;
        }
        let (base, mut args) = match broadcast {
            Broadcast::Init(centers) => (
                "tracker_init",
                vec![arg_u64("centers", centers.len() as u64)],
            ),
            Broadcast::Update { rows, .. } => (
                "tracker_update",
                vec![arg_u64("new_candidates", rows.len() as u64)],
            ),
        };
        let suffix = match read {
            TrackerRead::Nothing => "",
            TrackerRead::Sample { round, .. } => {
                let sampled = match &out {
                    Ok((_, TrackerOut::Picked { indices, .. })) => indices.len(),
                    Ok((_, TrackerOut::Keys(keys))) => keys.len(),
                    _ => 0,
                };
                args.push(arg_u64("round", round as u64));
                args.push(arg_u64("sampled", sampled as u64));
                "+sample"
            }
            TrackerRead::Weights { m } => {
                args.push(arg_u64("candidates", m as u64));
                "+weights"
            }
            TrackerRead::D2 => {
                let rows = match &out {
                    Ok((_, TrackerOut::D2(d2))) => d2.len(),
                    _ => 0,
                };
                args.push(arg_u64("rows", rows as u64));
                "+d2"
            }
        };
        self.finish(start, wire, &format!("{base}{suffix}"), || args);
        out
    }

    fn assign(
        &mut self,
        centers: &PointMatrix,
        fetch: LabelFetch,
    ) -> Result<(u64, ClusterSums, Option<Vec<u32>>), KMeansError> {
        let (start, wire) = self.begin();
        let out = self.inner.assign(centers, fetch);
        let (changed, distance, pruned, labels) = match &out {
            Ok((changed, sums, labels)) => (
                *changed,
                sums.stats.distance_computations,
                sums.stats.pruned_by_norm_bound,
                labels.is_some() as u64,
            ),
            Err(_) => (0, 0, 0, 0),
        };
        let centers_n = centers.len() as u64;
        self.finish(start, wire, "assign", || {
            vec![
                arg_u64("centers", centers_n),
                arg_u64("changed", changed),
                arg_u64("distance_computations", distance),
                arg_u64("pruned_by_norm_bound", pruned),
                arg_u64("labels_shipped", labels),
            ]
        });
        out
    }

    fn potential(&mut self, centers: &PointMatrix) -> Result<f64, KMeansError> {
        let (start, wire) = self.begin();
        let out = self.inner.potential(centers);
        let centers_n = centers.len() as u64;
        self.finish(start, wire, "potential", || {
            vec![arg_u64("centers", centers_n)]
        });
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::driver::LocalBackend;
    use kmeans_obs::FakeClock;
    use kmeans_par::Parallelism;

    fn blobs() -> PointMatrix {
        let mut m = PointMatrix::new(2);
        for (cx, cy) in [(0.0, 0.0), (30.0, 0.0)] {
            for i in 0..30 {
                m.push(&[cx + (i % 5) as f64 * 0.1, cy + (i / 5) as f64 * 0.1])
                    .unwrap();
            }
        }
        m
    }

    #[test]
    fn wrapper_delegates_results_unchanged_and_records_spans() {
        let points = blobs();
        let exec = Executor::new(Parallelism::Sequential);
        let centers = points.select(&[0, 35]);

        let init = Broadcast::Init(&centers);
        let mut plain = LocalBackend::in_memory(&points, None, &exec);
        let (plain_phi, _) = plain.tracker_round(init, TrackerRead::Nothing).unwrap();
        let (plain_changed, plain_sums, _) = plain.assign(&centers, LabelFetch::Skip).unwrap();

        let clock = FakeClock::new(0);
        let recorder = Recorder::with_clock(clock.clone());
        let mut inner = LocalBackend::in_memory(&points, None, &exec);
        let mut recorded = RecordingBackend::new(&mut inner, recorder.clone());
        assert_eq!(recorded.kind(), BackendKind::InMemory);
        assert_eq!(recorded.len(), points.len());
        assert_eq!(recorded.wire_bytes(), None);
        let (phi, _) = recorded.tracker_round(init, TrackerRead::Nothing).unwrap();
        clock.advance(10);
        let (changed, sums, _) = recorded.assign(&centers, LabelFetch::Skip).unwrap();

        assert_eq!(phi.to_bits(), plain_phi.to_bits());
        assert_eq!(changed, plain_changed);
        assert_eq!(sums.cost.to_bits(), plain_sums.cost.to_bits());

        let events = recorder.events();
        assert_eq!(events.len(), 2);
        assert_eq!(events[0].name, "tracker_init");
        assert_eq!(events[0].cat, ROUND_CAT);
        assert_eq!(events[1].name, "assign");
        // Local backends attach no wire bytes; the kernel counters and
        // backend kind ride along.
        assert!(events[1].args.iter().any(|(k, _)| k == "changed"));
        assert!(events[1]
            .args
            .iter()
            .any(|(k, v)| k == "backend" && *v == ArgValue::Str("in-memory".into())));
        assert!(!events[1].args.iter().any(|(k, _)| k == "wire_bytes"));
    }

    #[test]
    fn disabled_recorder_records_nothing() {
        let points = blobs();
        let exec = Executor::new(Parallelism::Sequential);
        let centers = points.select(&[0, 35]);
        let recorder = Recorder::disabled();
        let mut inner = LocalBackend::in_memory(&points, None, &exec);
        let mut recorded = RecordingBackend::new(&mut inner, recorder.clone());
        recorded
            .tracker_round(Broadcast::Init(&centers), TrackerRead::Nothing)
            .unwrap();
        recorded.assign(&centers, LabelFetch::Skip).unwrap();
        assert!(recorder.events().is_empty());
    }
}
