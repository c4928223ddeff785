//! Benchmark-owned decorators over the library's public seams. Each one
//! delegates every call unchanged and records when the call started and
//! ended on the shared benchmark clock:
//!
//! * [`TimedTransport`] — any `Transport` (SKW1 on both ends of a
//!   distributed fit, SKS1 on both ends of a served connection);
//! * [`TimedSource`] — a worker's `ChunkedSource` (`read_block`);
//! * [`TimedInit`] / [`TimedRefine`] — the two calls `KMeans::fit` makes.
//!
//! One set of decorated connections serves untraced and traced phases, so
//! a transport keeps a send if tracing is on when the send *starts* and a
//! receive if tracing is on when it *returns*: a server-side receive that
//! began waiting in a traced phase but returns a request of the next,
//! untraced phase is dropped together with its reply, which keeps the
//! exchanges seen at both ends of a connection aligned.

use crate::sys::now_ns;
use scalable_kmeans::cluster::{ClusterError, Transport, WireMessage};
use scalable_kmeans::core::driver::{BackendKind, RoundBackend};
use scalable_kmeans::core::InitResult;
use scalable_kmeans::data::{ChunkedSource, DataError, PointMatrix, Residency};
use scalable_kmeans::par::Executor;
use scalable_kmeans::{Initializer, KMeansError, RefineResult, Refiner};
use std::ops::Range;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Mutex};

static TRACING: AtomicBool = AtomicBool::new(false);

/// Turns recording on or off for every transport and source decorator.
pub fn set_tracing(on: bool) {
    TRACING.store(on, Ordering::SeqCst);
}

fn tracing() -> bool {
    TRACING.load(Ordering::SeqCst)
}

/// A shared, append-only event list.
pub struct Log<T>(Arc<Mutex<Vec<T>>>);

impl<T> Clone for Log<T> {
    fn clone(&self) -> Self {
        Log(Arc::clone(&self.0))
    }
}

impl<T> Default for Log<T> {
    fn default() -> Self {
        Log(Arc::new(Mutex::new(Vec::new())))
    }
}

impl<T: Clone> Log<T> {
    pub fn push(&self, item: T) {
        self.0.lock().expect("log lock poisoned").push(item);
    }

    pub fn len(&self) -> usize {
        self.0.lock().expect("log lock poisoned").len()
    }

    pub fn snapshot(&self) -> Vec<T> {
        self.0.lock().expect("log lock poisoned").clone()
    }
}

impl<T> std::fmt::Debug for Log<T> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str("Log")
    }
}

/// One completed transport call.
#[derive(Clone, Copy, Debug)]
pub struct WireCall {
    pub send: bool,
    pub start: u64,
    pub end: u64,
    pub bytes: u64,
}

/// A `Transport` that records successful sends and receives.
pub struct TimedTransport<T> {
    inner: T,
    log: Log<WireCall>,
}

impl<T> TimedTransport<T> {
    pub fn new(inner: T, log: Log<WireCall>) -> Self {
        TimedTransport { inner, log }
    }
}

impl<M: WireMessage, T: Transport<M>> Transport<M> for TimedTransport<T> {
    fn send(&mut self, msg: &M) -> Result<(), ClusterError> {
        let keep = tracing();
        let before = self.inner.bytes_sent();
        let start = now_ns();
        self.inner.send(msg)?;
        if keep {
            self.log.push(WireCall {
                send: true,
                start,
                end: now_ns(),
                bytes: self.inner.bytes_sent() - before,
            });
        }
        Ok(())
    }

    fn recv(&mut self) -> Result<M, ClusterError> {
        let before = self.inner.bytes_received();
        let start = now_ns();
        let msg = self.inner.recv()?;
        if tracing() {
            self.log.push(WireCall {
                send: false,
                start,
                end: now_ns(),
                bytes: self.inner.bytes_received() - before,
            });
        }
        Ok(msg)
    }

    fn bytes_sent(&self) -> u64 {
        self.inner.bytes_sent()
    }

    fn bytes_received(&self) -> u64 {
        self.inner.bytes_received()
    }
}

/// Block reads seen by a [`TimedSource`] while tracing is on.
#[derive(Debug, Default)]
pub struct ReadStats {
    pub reads: AtomicU64,
    pub read_ns: AtomicU64,
}

/// A shared `ChunkedSource` that counts and times `read_block`.
#[derive(Debug)]
pub struct TimedSource<S> {
    inner: Arc<S>,
    stats: Arc<ReadStats>,
}

impl<S> TimedSource<S> {
    pub fn new(inner: Arc<S>, stats: Arc<ReadStats>) -> Self {
        TimedSource { inner, stats }
    }
}

impl<S: ChunkedSource> ChunkedSource for TimedSource<S> {
    fn len(&self) -> usize {
        self.inner.len()
    }

    fn dim(&self) -> usize {
        self.inner.dim()
    }

    fn block_rows(&self) -> usize {
        self.inner.block_rows()
    }

    fn num_blocks(&self) -> usize {
        self.inner.num_blocks()
    }

    fn block_range(&self, block: usize) -> Range<usize> {
        self.inner.block_range(block)
    }

    fn read_block(&self, block: usize, out: &mut PointMatrix) -> Result<(), DataError> {
        if !tracing() {
            return self.inner.read_block(block, out);
        }
        let start = now_ns();
        let result = self.inner.read_block(block, out);
        self.stats
            .read_ns
            .fetch_add(now_ns() - start, Ordering::Relaxed);
        self.stats.reads.fetch_add(1, Ordering::Relaxed);
        result
    }

    fn block_buffer(&self) -> PointMatrix {
        self.inner.block_buffer()
    }

    fn residency(&self) -> Residency {
        self.inner.residency()
    }
}

/// One completed pipeline stage call.
#[derive(Clone, Debug)]
pub struct StageCall {
    pub stage: &'static str,
    pub start: u64,
    pub end: u64,
    pub candidates: usize,
    pub seed_cost: f64,
    pub iterations: usize,
}

/// Records `Initializer::init` / `init_backend`.
#[derive(Debug)]
pub struct TimedInit<I> {
    inner: I,
    log: Log<StageCall>,
}

impl<I> TimedInit<I> {
    pub fn new(inner: I, log: Log<StageCall>) -> Self {
        TimedInit { inner, log }
    }

    fn record(&self, start: u64, result: &Result<InitResult, KMeansError>) {
        if let Ok(r) = result {
            self.log.push(StageCall {
                stage: "pipeline.init",
                start,
                end: now_ns(),
                candidates: r.stats.candidates,
                seed_cost: r.stats.seed_cost,
                iterations: 0,
            });
        }
    }
}

impl<I: Initializer> Initializer for TimedInit<I> {
    fn name(&self) -> &'static str {
        self.inner.name()
    }

    fn init(
        &self,
        points: &PointMatrix,
        weights: Option<&[f64]>,
        k: usize,
        seed: u64,
        exec: &Executor,
    ) -> Result<InitResult, KMeansError> {
        let start = now_ns();
        let result = self.inner.init(points, weights, k, seed, exec);
        self.record(start, &result);
        result
    }

    fn init_backend(
        &self,
        backend: &mut dyn RoundBackend,
        k: usize,
        seed: u64,
    ) -> Result<InitResult, KMeansError> {
        let start = now_ns();
        let result = self.inner.init_backend(backend, k, seed);
        self.record(start, &result);
        result
    }

    fn supports_backend(&self, kind: BackendKind) -> bool {
        self.inner.supports_backend(kind)
    }
}

/// Records `Refiner::refine` / `refine_backend`.
#[derive(Debug)]
pub struct TimedRefine<R> {
    inner: R,
    log: Log<StageCall>,
}

impl<R> TimedRefine<R> {
    pub fn new(inner: R, log: Log<StageCall>) -> Self {
        TimedRefine { inner, log }
    }

    fn record(&self, start: u64, result: &Result<RefineResult, KMeansError>) {
        if let Ok(r) = result {
            self.log.push(StageCall {
                stage: "pipeline.refine",
                start,
                end: now_ns(),
                candidates: 0,
                seed_cost: 0.0,
                iterations: r.iterations,
            });
        }
    }
}

impl<R: Refiner> Refiner for TimedRefine<R> {
    fn name(&self) -> &'static str {
        self.inner.name()
    }

    fn refine(
        &self,
        points: &PointMatrix,
        weights: Option<&[f64]>,
        centers: &PointMatrix,
        seed: u64,
        exec: &Executor,
    ) -> Result<RefineResult, KMeansError> {
        let start = now_ns();
        let result = self.inner.refine(points, weights, centers, seed, exec);
        self.record(start, &result);
        result
    }

    fn refine_backend(
        &self,
        backend: &mut dyn RoundBackend,
        centers: &PointMatrix,
        seed: u64,
    ) -> Result<RefineResult, KMeansError> {
        let start = now_ns();
        let result = self.inner.refine_backend(backend, centers, seed);
        self.record(start, &result);
        result
    }

    fn supports_backend(&self, kind: BackendKind) -> bool {
        self.inner.supports_backend(kind)
    }
}
