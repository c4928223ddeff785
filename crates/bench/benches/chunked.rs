//! Out-of-core vs in-memory grid on the synthetic GAUSSMIXTURE workload:
//! what block residency costs. The chunked paths produce bit-identical
//! results (asserted up front here, enforced in `tests/chunked_parity.rs`),
//! so every delta in this grid is pure I/O + orchestration overhead —
//! the price of not holding the `O(n·d)` payload resident.

use criterion::{criterion_group, criterion_main, Criterion};
use kmeans_core::model::KMeans;
use kmeans_data::synth::GaussMixture;
use kmeans_data::{write_block_file, BlockFileSource, ChunkedSource, InMemorySource};
use kmeans_par::Parallelism;
use std::sync::Arc;
use std::time::Duration;

const N: usize = 8_192;
const K: usize = 16;

fn builder() -> KMeans {
    KMeans::params(K)
        .seed(1)
        .shard_size(1_024)
        .parallelism(Parallelism::Sequential)
}

fn bench_out_of_core_grid(c: &mut Criterion) {
    let synth = GaussMixture::new(K)
        .points(N)
        .center_variance(50.0)
        .generate(7)
        .unwrap();
    let points = synth.dataset.points().clone();

    // Sanity: the grid compares equal results, or the numbers mean nothing.
    let reference = builder().fit(&points).unwrap();
    let chunked = builder()
        .data_source(InMemorySource::new(points.clone(), 1_024).unwrap())
        .fit_chunked()
        .unwrap();
    assert_eq!(reference.centers(), chunked.centers());

    let mut group = c.benchmark_group(format!("oocore_gauss_n{N}_k{K}"));
    group
        .sample_size(10)
        .warm_up_time(Duration::from_millis(300))
        .measurement_time(Duration::from_secs(2));

    group.bench_function("in_memory", |b| b.iter(|| builder().fit(&points).unwrap()));

    for block_rows in [256usize, 1_024, 4_096] {
        let source = Arc::new(InMemorySource::new(points.clone(), block_rows).unwrap());
        group.bench_function(format!("chunked_mem_b{block_rows}"), |b| {
            let src: Arc<dyn ChunkedSource> = source.clone();
            b.iter(|| {
                builder()
                    .data_source_shared(src.clone())
                    .fit_chunked()
                    .unwrap()
            })
        });
    }

    // Disk-backed: a budget of 2 blocks (one pinned, the rest streamed)
    // vs the whole file (every block pinned and lent after pass one).
    let path = std::env::temp_dir().join("kmeans_bench_oocore.skmb");
    write_block_file(&path, &points, 1_024).unwrap();
    let block_bytes = (1_024 * points.dim() * 8) as u64;
    for (label, budget) in [
        ("disk_budget_2blocks", 2 * block_bytes),
        ("disk_budget_full", 64 * block_bytes),
    ] {
        let source: Arc<dyn ChunkedSource> =
            Arc::new(BlockFileSource::open(&path, budget).unwrap());
        group.bench_function(label, |b| {
            b.iter(|| {
                builder()
                    .data_source_shared(source.clone())
                    .fit_chunked()
                    .unwrap()
            })
        });
    }
    group.finish();
    let _ = std::fs::remove_file(path);
}

criterion_group!(benches, bench_out_of_core_grid);
criterion_main!(benches);
