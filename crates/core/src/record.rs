//! The recording decorator over any [`RoundBackend`]: every round
//! primitive wrapped in a span — round kind, wall time, wire bytes,
//! kernel counters — without touching a single result.
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
use crate::driver::{BackendKind, LabelFetch, LocalData, RoundBackend, SampleOut, SampleSpec};
use crate::error::KMeansError;
use kmeans_data::PointMatrix;
use kmeans_obs::{arg_str, arg_u64, ArgValue, Recorder, SpanStart};
use kmeans_par::Executor;

/// Span category used for round-primitive spans.
pub const ROUND_CAT: &str = "round";

/// A [`RoundBackend`] decorator that records one span per round
/// primitive into a [`Recorder`]. With a disabled recorder every call
/// is a plain delegation plus one branch.
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

    fn validate(&self, k: usize) -> Result<(), KMeansError> {
        self.inner.validate(k)
    }

    fn validate_refine(&self, centers: &PointMatrix) -> Result<(), KMeansError> {
        self.inner.validate_refine(centers)
    }

    fn wire_bytes(&self) -> Option<u64> {
        self.inner.wire_bytes()
    }

    fn gather_rows(&mut self, indices: &[usize]) -> Result<PointMatrix, KMeansError> {
        let (start, wire) = self.begin();
        let out = self.inner.gather_rows(indices);
        let rows = indices.len() as u64;
        self.finish(start, wire, "gather_rows", || vec![arg_u64("rows", rows)]);
        out
    }

    fn gather_rows_into(
        &mut self,
        indices: &[usize],
        out: &mut PointMatrix,
    ) -> Result<(), KMeansError> {
        let (start, wire) = self.begin();
        let result = self.inner.gather_rows_into(indices, out);
        let rows = indices.len() as u64;
        self.finish(start, wire, "gather_rows", || vec![arg_u64("rows", rows)]);
        result
    }

    fn tracker_init(&mut self, centers: &PointMatrix) -> Result<f64, KMeansError> {
        let (start, wire) = self.begin();
        let out = self.inner.tracker_init(centers);
        let centers_n = centers.len() as u64;
        self.finish(start, wire, "tracker_init", || {
            vec![arg_u64("centers", centers_n)]
        });
        out
    }

    fn tracker_update(&mut self, from: usize, new_rows: &PointMatrix) -> Result<f64, KMeansError> {
        let (start, wire) = self.begin();
        let out = self.inner.tracker_update(from, new_rows);
        let new_n = new_rows.len() as u64;
        self.finish(start, wire, "tracker_update", || {
            vec![arg_u64("new_candidates", new_n)]
        });
        out
    }

    fn sample_bernoulli(
        &mut self,
        round: usize,
        seed: u64,
        l: f64,
        phi: f64,
    ) -> Result<(Vec<usize>, PointMatrix), KMeansError> {
        let (start, wire) = self.begin();
        let out = self.inner.sample_bernoulli(round, seed, l, phi);
        let sampled = out.as_ref().map(|(idx, _)| idx.len() as u64).unwrap_or(0);
        self.finish(start, wire, "sample_bernoulli", || {
            vec![arg_u64("round", round as u64), arg_u64("sampled", sampled)]
        });
        out
    }

    fn sample_exact_keys(
        &mut self,
        round: usize,
        seed: u64,
        m: usize,
    ) -> Result<Vec<(f64, usize)>, KMeansError> {
        let (start, wire) = self.begin();
        let out = self.inner.sample_exact_keys(round, seed, m);
        let keys = out.as_ref().map(|k| k.len() as u64).unwrap_or(0);
        self.finish(start, wire, "sample_exact", || {
            vec![arg_u64("round", round as u64), arg_u64("keys", keys)]
        });
        out
    }

    fn gather_d2(&mut self) -> Result<Vec<f64>, KMeansError> {
        let (start, wire) = self.begin();
        let out = self.inner.gather_d2();
        let rows = out.as_ref().map(|d| d.len() as u64).unwrap_or(0);
        self.finish(start, wire, "gather_d2", || vec![arg_u64("rows", rows)]);
        out
    }

    fn candidate_weights(&mut self, m: usize) -> Result<Vec<f64>, KMeansError> {
        let (start, wire) = self.begin();
        let out = self.inner.candidate_weights(m);
        self.finish(start, wire, "candidate_weights", || {
            vec![arg_u64("candidates", m as u64)]
        });
        out
    }

    fn assign(&mut self, centers: &PointMatrix) -> Result<(u64, ClusterSums), KMeansError> {
        let (start, wire) = self.begin();
        let out = self.inner.assign(centers);
        let (changed, distance, pruned) = match &out {
            Ok((changed, sums)) => (
                *changed,
                sums.stats.distance_computations,
                sums.stats.pruned_by_norm_bound,
            ),
            Err(_) => (0, 0, 0),
        };
        let centers_n = centers.len() as u64;
        self.finish(start, wire, "assign", || {
            vec![
                arg_u64("centers", centers_n),
                arg_u64("changed", changed),
                arg_u64("distance_computations", distance),
                arg_u64("pruned_by_norm_bound", pruned),
            ]
        });
        out
    }

    fn fetch_labels(&mut self) -> Result<Vec<u32>, KMeansError> {
        let (start, wire) = self.begin();
        let out = self.inner.fetch_labels();
        let rows = out.as_ref().map(|l| l.len() as u64).unwrap_or(0);
        self.finish(start, wire, "fetch_labels", || vec![arg_u64("rows", rows)]);
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

    // Fused rounds must delegate to the inner *fused* methods — falling
    // back to the trait defaults would silently decompose a traced
    // distributed fit back into un-fused wire conversations. Each fused
    // call records one span, matching its one wire round trip.

    fn tracker_init_sampled(
        &mut self,
        centers: &PointMatrix,
        round: usize,
        seed: u64,
        spec: Option<SampleSpec>,
    ) -> Result<(f64, Option<SampleOut>), KMeansError> {
        let (start, wire) = self.begin();
        let out = self.inner.tracker_init_sampled(centers, round, seed, spec);
        let centers_n = centers.len() as u64;
        let sampled = sample_size(&out);
        self.finish(start, wire, "tracker_init+sample", || {
            vec![
                arg_u64("centers", centers_n),
                arg_u64("round", round as u64),
                arg_u64("sampled", sampled),
            ]
        });
        out
    }

    fn tracker_update_sampled(
        &mut self,
        from: usize,
        new_rows: &PointMatrix,
        round: usize,
        seed: u64,
        spec: Option<SampleSpec>,
    ) -> Result<(f64, Option<SampleOut>), KMeansError> {
        let (start, wire) = self.begin();
        let out = self
            .inner
            .tracker_update_sampled(from, new_rows, round, seed, spec);
        let new_n = new_rows.len() as u64;
        let sampled = sample_size(&out);
        self.finish(start, wire, "tracker_update+sample", || {
            vec![
                arg_u64("new_candidates", new_n),
                arg_u64("round", round as u64),
                arg_u64("sampled", sampled),
            ]
        });
        out
    }

    fn tracker_update_weighted(
        &mut self,
        from: usize,
        new_rows: &PointMatrix,
        m: usize,
    ) -> Result<Vec<f64>, KMeansError> {
        let (start, wire) = self.begin();
        let out = self.inner.tracker_update_weighted(from, new_rows, m);
        let new_n = new_rows.len() as u64;
        self.finish(start, wire, "tracker_update+weights", || {
            vec![
                arg_u64("new_candidates", new_n),
                arg_u64("candidates", m as u64),
            ]
        });
        out
    }

    fn assign_fused(
        &mut self,
        centers: &PointMatrix,
        fetch: LabelFetch,
    ) -> Result<(u64, ClusterSums, Option<Vec<u32>>), KMeansError> {
        let (start, wire) = self.begin();
        let out = self.inner.assign_fused(centers, fetch);
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

    fn preload_rows(&mut self, indices: &[usize]) -> Result<(), KMeansError> {
        let (start, wire) = self.begin();
        let out = self.inner.preload_rows(indices);
        let rows = indices.len() as u64;
        self.finish(start, wire, "preload_rows", || vec![arg_u64("rows", rows)]);
        out
    }
}

/// Sample size carried by a fused tracker round's result (for spans).
fn sample_size(out: &Result<(f64, Option<SampleOut>), KMeansError>) -> u64 {
    match out {
        Ok((_, Some(SampleOut::Picked { indices, .. }))) => indices.len() as u64,
        Ok((_, Some(SampleOut::Keys(keys)))) => keys.len() as u64,
        _ => 0,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::driver::InMemoryBackend;
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

        let mut plain = InMemoryBackend::new(&points, &exec);
        let plain_phi = plain.tracker_init(&centers).unwrap();
        let (plain_changed, plain_sums) = plain.assign(&centers).unwrap();

        let clock = FakeClock::new(0);
        let recorder = Recorder::with_clock(clock.clone());
        let mut inner = InMemoryBackend::new(&points, &exec);
        let mut recorded = RecordingBackend::new(&mut inner, recorder.clone());
        assert_eq!(recorded.kind(), BackendKind::InMemory);
        assert_eq!(recorded.len(), points.len());
        assert_eq!(recorded.wire_bytes(), None);
        let phi = recorded.tracker_init(&centers).unwrap();
        clock.advance(10);
        let (changed, sums) = recorded.assign(&centers).unwrap();

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
        let mut inner = InMemoryBackend::new(&points, &exec);
        let mut recorded = RecordingBackend::new(&mut inner, recorder.clone());
        recorded.tracker_init(&centers).unwrap();
        recorded.assign(&centers).unwrap();
        assert!(recorder.events().is_empty());
    }
}
