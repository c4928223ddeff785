//! A resident fit lends its rows to every pass — it never copies them.
//! Resident data is one block at row 0, visited by reference, so the
//! heap a fit adds is its `O(n)` scalar state (the `d²`/nearest tracker,
//! the labels) plus per-piece scratch, a small fraction of the `n × d`
//! matrix. One copy of the rows would add the whole matrix. A counting
//! global allocator measures the heap, so this binary holds this one
//! test and nothing else allocates while it runs.

use kmeans_core::KMeans;
use kmeans_data::synth::GaussMixture;
use kmeans_par::Parallelism;
use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicUsize, Ordering};

struct Counting;

static LIVE: AtomicUsize = AtomicUsize::new(0);
static PEAK: AtomicUsize = AtomicUsize::new(0);

fn grew(bytes: usize) {
    let live = LIVE.fetch_add(bytes, Ordering::SeqCst) + bytes;
    PEAK.fetch_max(live, Ordering::SeqCst);
}

// SAFETY: every method forwards its caller's layout and pointer to the
// system allocator unchanged, so the system allocator's guarantees hold;
// the counters are plain atomics and touch no allocated memory.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        let p = System.alloc(layout);
        if !p.is_null() {
            grew(layout.size());
        }
        p
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        let p = System.alloc_zeroed(layout);
        if !p.is_null() {
            grew(layout.size());
        }
        p
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout);
        LIVE.fetch_sub(layout.size(), Ordering::SeqCst);
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        let p = System.realloc(ptr, layout, new_size);
        if !p.is_null() {
            if new_size >= layout.size() {
                grew(new_size - layout.size());
            } else {
                LIVE.fetch_sub(layout.size() - new_size, Ordering::SeqCst);
            }
        }
        p
    }
}

#[global_allocator]
static ALLOCATOR: Counting = Counting;

#[test]
fn a_resident_fit_never_copies_its_rows() {
    let synth = GaussMixture::new(20)
        .dim(16)
        .points(200_000)
        .center_variance(10.0)
        .generate(1)
        .unwrap();
    let points = synth.dataset.points();
    let matrix_bytes = points.len() * points.dim() * std::mem::size_of::<f64>();
    assert_eq!(matrix_bytes, 25_600_000);
    for parallelism in [Parallelism::Sequential, Parallelism::Threads(2)] {
        let before = LIVE.load(Ordering::SeqCst);
        PEAK.store(before, Ordering::SeqCst);
        let model = KMeans::params(20)
            .seed(3)
            .parallelism(parallelism)
            .fit(points)
            .unwrap();
        let growth = PEAK.load(Ordering::SeqCst) - before;
        drop(model);
        assert!(
            growth * 4 < matrix_bytes,
            "{parallelism:?}: a fit grew the heap by {growth} B against a \
             {matrix_bytes} B matrix (a copy of the rows adds all of it)"
        );
    }
}
