//! Out-of-core acceptance tests: chunked fits are **bit-identical** to the
//! in-memory pipeline (same data, seed, executor — any block size), and a
//! dataset larger than the configured memory budget streams within budget,
//! asserted via the block reader's peak-resident accounting.

use kmeans_core::chunked::{assign_partials, fold_accum_shards, LocalData};
use kmeans_core::cost::{potential, potential_shard_sums, CostTracker};
use kmeans_core::driver::{drive_kmeans_parallel, LabelFetch, LocalBackend, RoundBackend};
use kmeans_core::init::KMeansParallelConfig;
use kmeans_core::minibatch::MiniBatchConfig;
use kmeans_core::model::{KMeans, KMeansModel, PreparedPredictor};
use kmeans_core::pipeline::{
    Initializer, KMeansPlusPlus, Lloyd, MiniBatch, NoRefine, Random, Refiner,
};
use kmeans_core::KMeansError;
use kmeans_data::synth::GaussMixture;
use kmeans_data::{
    write_block_file, BlockFileSource, ChunkedSource, CsvSource, InMemorySource, PointMatrix,
};
use kmeans_par::Parallelism;
use std::sync::Arc;

fn gauss(n: usize, k: usize, seed: u64) -> PointMatrix {
    GaussMixture::new(k)
        .points(n)
        .center_variance(50.0)
        .generate(seed)
        .unwrap()
        .dataset
        .into_parts()
        .1
}

fn tmp(name: &str) -> std::path::PathBuf {
    let dir = std::env::temp_dir().join("kmeans_chunked_parity");
    std::fs::create_dir_all(&dir).unwrap();
    dir.join(name)
}

fn assert_models_bit_identical(mem: &KMeansModel, chunked: &KMeansModel, what: &str) {
    assert_eq!(mem.centers(), chunked.centers(), "{what}: centers");
    assert_eq!(mem.labels(), chunked.labels(), "{what}: labels");
    assert_eq!(
        mem.cost().to_bits(),
        chunked.cost().to_bits(),
        "{what}: cost"
    );
    assert_eq!(
        mem.init_stats().seed_cost.to_bits(),
        chunked.init_stats().seed_cost.to_bits(),
        "{what}: seed cost"
    );
    assert_eq!(mem.iterations(), chunked.iterations(), "{what}: iterations");
    assert_eq!(
        mem.distance_computations(),
        chunked.distance_computations(),
        "{what}: distance accounting"
    );
}

/// The acceptance grid: every chunked-capable seeder × refiner, fitted
/// through the builder both ways, must agree bit-for-bit — across block
/// sizes that do *not* divide the shard size, and across thread counts.
#[test]
fn builder_grid_is_bit_identical_across_block_sizes_and_threads() {
    let points = gauss(900, 6, 11);
    let inits: Vec<(&str, Arc<dyn Initializer>)> = vec![
        ("random", Arc::new(Random)),
        ("kmeans++", Arc::new(KMeansPlusPlus)),
        (
            "kmeans-par",
            Arc::new(kmeans_core::pipeline::KMeansParallel::default()),
        ),
        (
            "kmeans-par-exact",
            Arc::new(kmeans_core::pipeline::KMeansParallel(
                KMeansParallelConfig::default().sampling(kmeans_core::init::SamplingMode::ExactL),
            )),
        ),
        (
            "coreset",
            Arc::new(kmeans_streaming::Coreset { coreset_size: 64 }),
        ),
    ];
    let refiners: Vec<(&str, Arc<dyn Refiner>)> = vec![
        ("lloyd", Arc::new(Lloyd::default())),
        (
            "minibatch",
            Arc::new(MiniBatch(MiniBatchConfig {
                batch_size: 64,
                iterations: 25,
            })),
        ),
        ("none", Arc::new(NoRefine)),
    ];
    for (init_name, init) in &inits {
        for (refine_name, refiner) in &refiners {
            let exec = kmeans_par::Executor::new(Parallelism::Threads(3)).with_shard_size(64);
            let mem_init = init.init(&points, None, 6, 42, &exec).unwrap();
            let mem = refiner
                .refine(&points, None, &mem_init.centers, 42, &exec)
                .unwrap();
            for block_rows in [97, 512, 2048] {
                let source = InMemorySource::new(points.clone(), block_rows).unwrap();
                let chunked_init = init.init_chunked(&source, 6, 42, &exec).unwrap();
                assert_eq!(
                    mem_init.centers, chunked_init.centers,
                    "{init_name} seeds, block_rows {block_rows}"
                );
                let chunked = refiner
                    .refine_chunked(&source, &chunked_init.centers, 42, &exec)
                    .unwrap();
                assert_eq!(
                    mem.centers, chunked.centers,
                    "{init_name}+{refine_name}, block_rows {block_rows}"
                );
                assert_eq!(mem.labels, chunked.labels, "{init_name}+{refine_name}");
                assert_eq!(mem.cost.to_bits(), chunked.cost.to_bits());
            }
        }
    }
}

/// End-to-end builder parity: default pipeline (k-means|| + Lloyd).
#[test]
fn fit_chunked_matches_fit_through_the_builder() {
    let points = gauss(1200, 8, 3);
    for threads in [Parallelism::Sequential, Parallelism::Threads(4)] {
        let base = KMeans::params(8)
            .seed(7)
            .shard_size(128)
            .parallelism(threads);
        let mem = base.clone().fit(&points).unwrap();
        for block_rows in [75, 1024] {
            let chunked = base
                .clone()
                .data_source(InMemorySource::new(points.clone(), block_rows).unwrap())
                .fit_chunked()
                .unwrap();
            assert_models_bit_identical(
                &mem,
                &chunked,
                &format!("default pipeline, block_rows {block_rows}"),
            );
        }
    }
}

/// The out-of-core acceptance criterion: a dataset larger than the memory
/// budget completes, never exceeds the budget (peak-resident accounting),
/// and still reproduces the in-memory centers bit-for-bit — whether the
/// budget pins no block, a few, or the whole file.
#[test]
fn block_file_run_stays_within_budget_and_matches_in_memory() {
    let points = gauss(4096, 10, 5); // 4096 × 15 × 8 B = 491 520 B payload
    let path = tmp("oocore.skmb");
    write_block_file(&path, &points, 512).unwrap(); // 8 blocks of 61 440 B
    let block_bytes = 512 * 15 * 8;
    let payload = 4096 * 15 * 8;

    let base = KMeans::params(10).seed(13).shard_size(256);
    let mem = base.clone().fit(&points).unwrap();
    // (budget, blocks it pins): one block is the working buffer.
    for (budget, pinned) in [
        (64 * 1024, 0),             // far below the payload
        (4 * block_bytes, 3),       // streams the other 5 blocks
        (payload + block_bytes, 8), // the whole file
    ] {
        let source = Arc::new(BlockFileSource::open(&path, budget).unwrap());
        assert_eq!(source.payload_bytes(), payload);
        let chunked = base
            .clone()
            .data_source_shared(Arc::clone(&source) as Arc<dyn ChunkedSource>)
            .fit_chunked()
            .unwrap();
        assert_models_bit_identical(&mem, &chunked, &format!("block file, budget {budget}"));
        let r = source.residency();
        assert!(r.loads > 0, "must actually stream blocks");
        assert!(
            r.peak_bytes <= budget,
            "peak resident {} exceeds budget {budget}",
            r.peak_bytes
        );
        assert_eq!(r.hits > 0, pinned > 0, "budget {budget}: hits {}", r.hits);
        if pinned < source.num_blocks() {
            assert!(
                r.peak_bytes < source.payload_bytes(),
                "peak {} not smaller than payload {}",
                r.peak_bytes,
                source.payload_bytes()
            );
            // The pinned blocks plus the one a miss decodes into.
            assert_eq!(r.peak_bytes, (pinned as u64 + 1) * block_bytes);
        } else {
            // Every block decoded once and lent ever after: the fit holds
            // exactly the payload, never a copy of a block besides.
            assert_eq!(r.loads, source.num_blocks() as u64);
            assert_eq!(r.peak_bytes, source.payload_bytes());
        }
    }
    std::fs::remove_file(path).unwrap();
}

/// CSV-backed chunked fits agree with the in-memory fit of the parsed file.
#[test]
fn csv_source_matches_in_memory() {
    let points = gauss(600, 5, 21);
    let path = tmp("oocore.csv");
    let dataset = kmeans_data::Dataset::new("parity", points.clone());
    kmeans_data::io::write_csv(&path, &dataset).unwrap();

    let base = KMeans::params(5).seed(2).shard_size(64);
    let mem = base.clone().fit(&points).unwrap();
    let source = CsvSource::open(&path, 128, kmeans_data::io::LabelColumn::None).unwrap();
    let chunked = base.data_source(source).fit_chunked().unwrap();
    assert_models_bit_identical(&mem, &chunked, "csv source");
    std::fs::remove_file(path).unwrap();
}

/// The streaming Partition seeder is a deliberate exception to bit-parity
/// (no global shuffle out of core): it must still be deterministic per
/// seed, block-size invariant, and produce a sane clustering.
#[test]
fn chunked_partition_is_deterministic_and_covers_blobs() {
    let points = gauss(1000, 4, 8);
    let exec = kmeans_par::Executor::sequential();
    let seeder = kmeans_streaming::Partition::default();
    let a = seeder
        .init_chunked(
            &InMemorySource::new(points.clone(), 100).unwrap(),
            4,
            5,
            &exec,
        )
        .unwrap();
    let b = seeder
        .init_chunked(
            &InMemorySource::new(points.clone(), 333).unwrap(),
            4,
            5,
            &exec,
        )
        .unwrap();
    assert_eq!(a.centers, b.centers, "block size must not change results");
    assert_eq!(a.centers.len(), 4);
    assert!(a.stats.candidates > 4, "intermediate coreset recorded");
    // Refines fine downstream.
    let r = Lloyd::default()
        .refine_chunked(
            &InMemorySource::new(points.clone(), 100).unwrap(),
            &a.centers,
            5,
            &exec,
        )
        .unwrap();
    assert!(r.converged);
    assert!(r.cost <= a.stats.seed_cost + 1e-9);
}

/// Stages without a chunked formulation reject with the shared typed
/// error, as do weighted chunked fits and a missing data source.
#[test]
fn unsupported_chunked_paths_fail_loudly() {
    let points = gauss(200, 3, 1);
    let source = InMemorySource::new(points.clone(), 50).unwrap();
    let exec = kmeans_par::Executor::sequential();

    let err = kmeans_core::pipeline::AfkMc2::default()
        .init_chunked(&source, 3, 0, &exec)
        .unwrap_err();
    assert!(err.to_string().contains("afk-mc2 does not support chunked"));

    let err = KMeans::params(3).fit_chunked().unwrap_err();
    assert!(matches!(err, KMeansError::InvalidConfig(_)), "{err}");
    assert!(err.to_string().contains("no data source"));

    let w = vec![1.0; points.len()];
    let err = KMeans::params(3)
        .weights(&w)
        .data_source(source)
        .fit_chunked()
        .unwrap_err();
    assert!(err.to_string().contains("weighted"), "{err}");
}

/// Chunked sources propagate the same input-contract errors as the
/// in-memory validators: NaN coordinates are reported with their global
/// point index, and k out of range is rejected.
#[test]
fn chunked_input_contract_matches_in_memory() {
    let mut m = PointMatrix::new(2);
    for i in 0..40 {
        m.push(&[i as f64, 0.0]).unwrap();
    }
    m.push(&[f64::NAN, 1.0]).unwrap();
    for i in 0..9 {
        m.push(&[i as f64, 5.0]).unwrap();
    }
    let exec = kmeans_par::Executor::sequential();
    let source = InMemorySource::new(m.clone(), 7).unwrap();
    let mem_err = kmeans_core::pipeline::KMeansParallel::default()
        .init(&m, None, 3, 0, &exec)
        .unwrap_err();
    let chunked_err = kmeans_core::pipeline::KMeansParallel::default()
        .init_chunked(&source, 3, 0, &exec)
        .unwrap_err();
    assert_eq!(mem_err, chunked_err);
    assert_eq!(mem_err, KMeansError::NonFiniteData { point: 40, dim: 0 });
    assert!(matches!(
        KMeansPlusPlus.init_chunked(&source, 0, 0, &exec),
        Err(KMeansError::InvalidK { .. })
    ));
}

/// The one executor-grid `d²` pass: a tracker's per-shard sums after
/// `new` and after an `update` are the bits of the potential pass at the
/// same centers, for every block size and thread count, and the serving
/// predictor's costs — `cost_of`, and `cost_from_d2` of its `assign` —
/// are the bits of `cost::potential`.
#[test]
fn tracker_and_predictor_sums_are_the_potential_pass_bits() {
    let points = gauss(700, 6, 5);
    let n = points.len();
    let pick = |rows: &[usize]| {
        let mut m = PointMatrix::new(points.dim());
        for &r in rows {
            m.push(points.row(r)).unwrap();
        }
        m
    };
    let first = pick(&[3, 250, 611]);
    let all = pick(&[3, 250, 611, 17, 99, 140, 333, 402, 480, 555, 640, 699]);
    let bits = |sums: &[f64]| sums.iter().map(|s| s.to_bits()).collect::<Vec<_>>();
    for threads in [Parallelism::Sequential, Parallelism::Threads(3)] {
        let exec = kmeans_par::Executor::new(threads).with_shard_size(64);
        let phi = potential(&points, &all, &exec);
        for block_rows in [1, 7, 64, n] {
            let source = InMemorySource::new(points.clone(), block_rows).unwrap();
            let data = LocalData::Blocks(&source);
            let mut tracker = CostTracker::new(data, &first, &exec).unwrap();
            let want = potential_shard_sums(data, &first, &exec).unwrap();
            assert_eq!(bits(tracker.shard_sums()), bits(&want), "new, {block_rows}");
            tracker.update(data, &all, first.len(), &exec).unwrap();
            let want = potential_shard_sums(data, &all, &exec).unwrap();
            assert_eq!(
                bits(tracker.shard_sums()),
                bits(&want),
                "update, {block_rows}"
            );
            assert_eq!(tracker.potential().to_bits(), phi.to_bits());
        }
        let predictor = PreparedPredictor::new(all.clone(), exec.clone());
        assert_eq!(predictor.cost_of(&points).unwrap().to_bits(), phi.to_bits());
        let (labels, d2, _) = predictor.assign(&points).unwrap();
        assert_eq!(predictor.cost_from_d2(&d2).to_bits(), phi.to_bits());
        assert_eq!(labels, predictor.predict(&points).unwrap());
    }
}

/// Seed-only and mini-batch fits after k-means||, through the builder,
/// in memory and on blocks that split accumulation shards, at 1 and 3
/// threads: the same models, kernel counters included. The seed-only
/// label pass runs at the seed-cost pass's centers, so it reads that
/// pass's labels and evaluates each row once: `k − 1` pruned pairs per
/// row. Mini-batch relabels at other centers, so its pass still
/// searches, from the same labels.
#[test]
fn seed_only_and_minibatch_fits_after_kmeans_par_keep_their_bits() {
    let (n, k) = (900, 10);
    let points = gauss(n, k, 17);
    let minibatch = MiniBatch(MiniBatchConfig {
        batch_size: 64,
        iterations: 20,
    });
    for name in ["none", "minibatch"] {
        for threads in [Parallelism::Sequential, Parallelism::Threads(3)] {
            let base = KMeans::params(k)
                .seed(23)
                .shard_size(64)
                .parallelism(threads);
            let base = match name {
                "none" => base.refine(NoRefine),
                _ => base.refine(minibatch),
            };
            let mem = base.clone().fit(&points).unwrap();
            let pruned = mem.pruned_by_norm_bound();
            if name == "none" {
                assert_eq!(
                    pruned,
                    (n * (k - 1)) as u64,
                    "{name}: one evaluation per row"
                );
            }
            let grid = kmeans_core::assign::sum_shard_size_for(64, n);
            for block_rows in [1, 7, grid / 2, grid - 1, grid + 1, n] {
                let source = InMemorySource::new(points.clone(), block_rows).unwrap();
                let chunked = base.clone().data_source(source).fit_chunked().unwrap();
                let what = format!("{name}, {threads:?}, block_rows {block_rows}");
                assert_models_bit_identical(&mem, &chunked, &what);
                assert_eq!(chunked.pruned_by_norm_bound(), pruned, "{what}: counters");
            }
        }
    }
}

/// The first assignment after the seed-cost potential: at other centers
/// than the potential's it searches, seeded by the potential's labels —
/// a full pass's labels and sums, and more than one evaluation per row
/// where those labels seed it badly — while at the potential's centers
/// it evaluates each row once.
#[test]
fn a_first_pass_at_other_centers_than_the_seed_cost_pass_still_searches() {
    let (n, k) = (700, 12);
    let points = gauss(n, k, 19);
    let exec = kmeans_par::Executor::new(Parallelism::Threads(3)).with_shard_size(64);
    let config = KMeansParallelConfig::default();
    let mut scratch = LocalBackend::in_memory(&points, None, &exec);
    let (seeds, _) = drive_kmeans_parallel(&mut scratch, k, &config, 5).unwrap();
    // The seeds, each at the next one's place: every seed-cost label now
    // names a center at another cluster, so a pass that trusted them
    // would be wrong, and one that searches from them evaluates more.
    let mut moved = seeds.clone();
    for c in 0..k {
        moved.row_mut(c).copy_from_slice(seeds.row((c + 1) % k));
    }
    let data = LocalData::from(&points);
    let (labels, shards, _) = assign_partials(data, &moved, &exec, 0, n, None).unwrap();
    let full = fold_accum_shards(k, points.dim(), &shards);
    let bits = |v: &[f64]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
    // A pass at `centers` after k-means|| and the seed-cost potential,
    // with the labels it left.
    let after_seeding = |source: &InMemorySource, centers: &PointMatrix, fetch| {
        let mut backend = LocalBackend::chunked(source, &exec);
        drive_kmeans_parallel(&mut backend, k, &config, 5).unwrap();
        backend.potential(&seeds).unwrap();
        let pass = backend.assign(centers, fetch).unwrap();
        (pass, backend.labels().map(<[u32]>::to_vec))
    };
    for block_rows in [7, 63, n] {
        let source = InMemorySource::new(points.clone(), block_rows).unwrap();
        for fetch in [LabelFetch::Skip, LabelFetch::Always] {
            let what = format!("block_rows {block_rows}, {fetch:?}");
            let ((reassigned, sums, got), kept) = after_seeding(&source, &moved, fetch);
            assert_eq!(reassigned, n as u64, "{what}: reassigned");
            assert!(
                sums.stats.distance_computations > n as u64,
                "{what}: {} evaluations",
                sums.stats.distance_computations
            );
            assert_eq!(sums.cost.to_bits(), full.cost.to_bits(), "{what}: cost");
            match fetch {
                LabelFetch::Always => assert_eq!(got.as_deref(), Some(&labels[..]), "{what}"),
                _ => {
                    assert_eq!(bits(&sums.sums), bits(&full.sums), "{what}: sums");
                    assert_eq!(kept.as_deref(), Some(&labels[..]), "{what}: labels");
                }
            }
        }
        let ((_, sums, _), _) = after_seeding(&source, &seeds, LabelFetch::Always);
        let evals = sums.stats.distance_computations;
        assert_eq!(evals, n as u64, "block_rows {block_rows}: at the seeds");
    }
}
