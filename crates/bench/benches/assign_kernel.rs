//! The batch assignment kernel vs the scalar per-point path on
//! GaussMixture workloads — the headline single-node speedup of the
//! kernel PR, recorded machine-readably in `BENCH_kernels.json`
//! (kernel / n / d / k / tile / wall_ns / distance_computations /
//! pruned), merged with the pair-level records from
//! `benches/distance.rs`. (`tile` records the kernel's resident
//! candidate-feature block in bytes — the structure that replaced center
//! tiling; 0 for the untiled scalar path.)
//!
//! Results are bit-identical by contract (asserted up front on every
//! configuration — a diverging kernel would make the numbers
//! meaningless), so every delta is pure bound-based pruning: the sorted
//! sweep's wholesale side stops plus the per-candidate coordinate-gap
//! and norm filters.
//!
//! The `kernel_warm` row is the warm sweep of every Lloyd pass after the
//! first: hinted with the cold pass's labels (a converged pass, where
//! every hint is the point's own center), so most points finish on the
//! zero-length prefix of their center's separation list after one
//! evaluation. The `kernel_update` row is a k-means||-shaped tracker
//! update: the carried state is the assignment to the first half of the
//! centers, and the second half is the new suffix, so points tracked at
//! a nearby earlier center finish from its separation list into the
//! suffix.
//!
//! The `between` rows replace the mixture's last center with the mean of
//! its first three, so the rows of those three clusters sit between
//! centers: many reach past the 16-entry prefix of their center's
//! separation list and finish on its 64-entry extension.
//!
//! `KMEANS_BENCH_QUICK=1` shrinks the grid and measurement windows for
//! the CI smoke, which prints its rows instead of merging them into
//! `BENCH_kernels.json` and relies on the always-on, deterministic
//! assertions: the norm bound actually prunes on the Gaussian-mixture
//! workload; the warm sweep's and the update's outputs equal the scalar
//! paths' bit for bit; the warm sweep evaluates no more distances than
//! the cold one; and the update with its carried labels evaluates no
//! more than the same update with every label untracked (`u32::MAX`),
//! which must return the same `d²` bits. The quick between-clusters row
//! also pins its cold, warm and update counters exactly
//! (`QUICK_BETWEEN`): they are a pure function of the rows and centers.

use criterion::Criterion;
use kmeans_bench::bench_json::{print_records, write_merged, KernelRecord};
use kmeans_core::distance::{nearest, sq_dist_bounded};
use kmeans_core::kernel::AssignKernel;
use kmeans_data::synth::GaussMixture;
use kmeans_data::PointMatrix;
use std::path::Path;
use std::time::Duration;

fn scalar_assign(points: &PointMatrix, centers: &PointMatrix, labels: &mut [u32], d2: &mut [f64]) {
    for (i, row) in points.rows().enumerate() {
        let (c, dist) = nearest(row, centers);
        labels[i] = c as u32;
        d2[i] = dist;
    }
}

/// The cost trackers' scalar suffix scan: a new center replaces the
/// carried state only when strictly closer.
fn scalar_update(
    points: &PointMatrix,
    centers: &PointMatrix,
    from: usize,
    labels: &mut [u32],
    d2: &mut [f64],
) {
    for (i, row) in points.rows().enumerate() {
        for c in from..centers.len() {
            let dist = sq_dist_bounded(row, centers.row(c), d2[i]);
            if dist < d2[i] {
                d2[i] = dist;
                labels[i] = c as u32;
            }
        }
    }
}

/// The quick between-clusters row's exact kernel counters — (sweep,
/// distance computations, pruned pairs) — deterministic on any machine.
const QUICK_BETWEEN: [(&str, u64, u64); 3] = [
    ("cold", 3_592, 78_328),
    ("warm", 2_837, 79_083),
    ("update", 1_428, 39_532),
];

struct Config {
    n: usize,
    d: usize,
    k: usize,
    /// The between-clusters variant: the last center moves to the mean of
    /// the first three.
    between: bool,
}

fn main() {
    let quick = std::env::var("KMEANS_BENCH_QUICK").is_ok_and(|v| v == "1");
    let configs: &[Config] = if quick {
        &[
            Config {
                n: 2_048,
                d: 16,
                k: 64,
                between: false,
            },
            Config {
                n: 2_048,
                d: 15,
                k: 40,
                between: true,
            },
        ]
    } else {
        &[
            Config {
                n: 8_192,
                d: 16,
                k: 64,
                between: false,
            },
            Config {
                n: 8_192,
                d: 16,
                k: 256,
                between: false,
            },
            Config {
                n: 8_192,
                d: 42,
                k: 64,
                between: false,
            },
            Config {
                n: 8_192,
                d: 42,
                k: 256,
                between: false,
            },
            Config {
                n: 8_192,
                d: 15,
                k: 100,
                between: true,
            },
        ]
    };

    let mut c = Criterion::default();
    let mut records: Vec<KernelRecord> = Vec::new();

    for cfg in configs {
        let synth = GaussMixture::new(cfg.k)
            .dim(cfg.d)
            .points(cfg.n)
            .center_variance(100.0) // the paper's hard separation setting
            .generate(7)
            .unwrap();
        let points = synth.dataset.points().clone();
        // Centers as a refinement pass sees them: the true mixture
        // centers (any converging Lloyd run spends most of its passes
        // near them).
        let mut centers = synth.true_centers.clone();
        if cfg.between {
            let mean: Vec<f64> = (0..cfg.d)
                .map(|j| (0..3).map(|c| centers.row(c)[j]).sum::<f64>() / 3.0)
                .collect();
            centers.row_mut(cfg.k - 1).copy_from_slice(&mean);
        }
        // The kernel's resident per-candidate feature block (norm + two
        // coordinates + index), reported as the `tile` axis.
        let feature_bytes = cfg.k * (3 * 8 + 4);

        // Parity gate: the kernel must reproduce the scalar path bitwise.
        let mut ref_labels = vec![0u32; cfg.n];
        let mut ref_d2 = vec![0.0f64; cfg.n];
        scalar_assign(&points, &centers, &mut ref_labels, &mut ref_d2);
        let kernel = AssignKernel::new(&centers);
        let mut labels = vec![0u32; cfg.n];
        let mut d2 = vec![0.0f64; cfg.n];
        let stats = kernel.assign(&points, 0..cfg.n, &mut labels, &mut d2);
        assert_eq!(labels, ref_labels, "kernel diverged");
        let bits: Vec<u64> = d2.iter().map(|v| v.to_bits()).collect();
        let ref_bits: Vec<u64> = ref_d2.iter().map(|v| v.to_bits()).collect();
        assert_eq!(bits, ref_bits, "kernel d2 diverged");
        assert!(
            stats.pruned_by_norm_bound > 0,
            "kernel bounds pruned nothing on GaussMixture n={} d={} k={}",
            cfg.n,
            cfg.d,
            cfg.k
        );
        // The warm sweep, hinted with the cold pass's labels: same bits,
        // and never more distance evaluations than the cold sweep.
        let hints = labels.clone();
        let warm_stats = kernel.assign_warm(&points, 0..cfg.n, Some(&hints), &mut labels, &mut d2);
        assert_eq!(labels, ref_labels, "warm kernel diverged");
        let bits: Vec<u64> = d2.iter().map(|v| v.to_bits()).collect();
        assert_eq!(bits, ref_bits, "warm kernel d2 diverged");
        assert!(
            warm_stats.distance_computations <= stats.distance_computations,
            "warm sweep evaluated more than cold on n={} d={} k={}: {warm_stats:?} vs {stats:?}",
            cfg.n,
            cfg.d,
            cfg.k
        );

        // The k-means||-shaped update: carried state from the first half
        // of the centers, the second half as the suffix. Same bits as the
        // scalar suffix scan, and the carried labels never cost more
        // evaluations than untracked ones.
        let from = cfg.k / 2;
        let head =
            PointMatrix::from_flat(centers.as_slice()[..from * cfg.d].to_vec(), cfg.d).unwrap();
        let mut carried_labels = vec![0u32; cfg.n];
        let mut carried_d2 = vec![0.0f64; cfg.n];
        scalar_assign(&points, &head, &mut carried_labels, &mut carried_d2);
        let (mut ref_up_labels, mut ref_up_d2) = (carried_labels.clone(), carried_d2.clone());
        scalar_update(&points, &centers, from, &mut ref_up_labels, &mut ref_up_d2);
        let suffix = AssignKernel::suffix(&centers, from);
        let (mut up_labels, mut up_d2) = (carried_labels.clone(), carried_d2.clone());
        let update_stats = suffix.update(&points, 0..cfg.n, &mut up_labels, &mut up_d2);
        assert_eq!(up_labels, ref_up_labels, "kernel update diverged");
        let up_bits: Vec<u64> = up_d2.iter().map(|v| v.to_bits()).collect();
        let ref_up_bits: Vec<u64> = ref_up_d2.iter().map(|v| v.to_bits()).collect();
        assert_eq!(up_bits, ref_up_bits, "kernel update d2 diverged");
        let (mut blind_labels, mut blind_d2) = (vec![u32::MAX; cfg.n], carried_d2.clone());
        let blind_stats = suffix.update(&points, 0..cfg.n, &mut blind_labels, &mut blind_d2);
        let blind_bits: Vec<u64> = blind_d2.iter().map(|v| v.to_bits()).collect();
        assert_eq!(blind_bits, ref_up_bits, "untracked update d2 diverged");
        assert!(
            update_stats.distance_computations <= blind_stats.distance_computations,
            "tracked update evaluated more than untracked on n={} d={} k={}: \
             {update_stats:?} vs {blind_stats:?}",
            cfg.n,
            cfg.d,
            cfg.k
        );

        if cfg.between {
            assert!(
                kernel.extended_lists() > 0,
                "no between-clusters row reached a list extension"
            );
        }
        if quick && cfg.between {
            let got = [
                ("cold", stats),
                ("warm", warm_stats),
                ("update", update_stats),
            ];
            for (sweep, s) in got {
                println!(
                    "quick smoke: between-clusters {sweep} {} computed, {} pruned",
                    s.distance_computations, s.pruned_by_norm_bound
                );
            }
            let got =
                got.map(|(sweep, s)| (sweep, s.distance_computations, s.pruned_by_norm_bound));
            assert_eq!(
                got, QUICK_BETWEEN,
                "between-clusters counters drifted from the pinned values"
            );
        }

        // Time scalar vs kernel, annotating each record with its work
        // counters through the shim's BenchRecord plumbing.
        let pairs = (cfg.n * cfg.k) as u64;
        let group_name = format!(
            "assign_n{}_d{}_k{}{}",
            cfg.n,
            cfg.d,
            cfg.k,
            if cfg.between { "_between" } else { "" }
        );
        {
            let mut group = c.benchmark_group(&group_name);
            let (samples, measure) = if quick { (5, 400) } else { (15, 3_000) };
            group
                .sample_size(samples)
                .warm_up_time(Duration::from_millis(if quick { 50 } else { 300 }))
                .measurement_time(Duration::from_millis(measure));

            group
                .bench_function("scalar_per_point", |b| {
                    b.iter(|| scalar_assign(&points, &centers, &mut labels, &mut d2))
                })
                // The scalar path computes/abandons per pair but has no
                // counter plumbing; report the analytic pair count.
                .annotate_last("distance_computations", pairs as f64)
                .annotate_last("pruned", 0.0)
                .annotate_last("tile", 0.0);
            group
                .bench_function("kernel", |b| {
                    b.iter(|| kernel.assign(&points, 0..cfg.n, &mut labels, &mut d2))
                })
                .annotate_last("distance_computations", stats.distance_computations as f64)
                .annotate_last("pruned", stats.pruned_by_norm_bound as f64)
                .annotate_last("tile", feature_bytes as f64);
            group
                .bench_function("kernel_warm", |b| {
                    b.iter(|| {
                        kernel.assign_warm(&points, 0..cfg.n, Some(&hints), &mut labels, &mut d2)
                    })
                })
                .annotate_last(
                    "distance_computations",
                    warm_stats.distance_computations as f64,
                )
                .annotate_last("pruned", warm_stats.pruned_by_norm_bound as f64)
                .annotate_last("tile", feature_bytes as f64);
            group
                .bench_function("kernel_update", |b| {
                    b.iter(|| {
                        up_labels.copy_from_slice(&carried_labels);
                        up_d2.copy_from_slice(&carried_d2);
                        suffix.update(&points, 0..cfg.n, &mut up_labels, &mut up_d2)
                    })
                })
                .annotate_last(
                    "distance_computations",
                    update_stats.distance_computations as f64,
                )
                .annotate_last("pruned", update_stats.pruned_by_norm_bound as f64)
                .annotate_last("tile", feature_bytes as f64);
            group.finish();
        }

        // Collect the annotated records for this group into the artifact.
        let mut scalar_ns = 0u128;
        for record in c.records().iter().filter(|r| r.id.starts_with(&group_name)) {
            let scalar = record.id.ends_with("scalar_per_point");
            if scalar {
                scalar_ns = record.median.as_nanos();
            }
            records.push(KernelRecord {
                id: record.id.clone(),
                kernel: if scalar {
                    "scalar_per_point"
                } else if record.id.ends_with("kernel_warm") {
                    "assign_kernel_warm"
                } else if record.id.ends_with("kernel_update") {
                    "assign_kernel_update"
                } else {
                    "assign_kernel"
                }
                .to_string(),
                n: cfg.n,
                d: cfg.d,
                k: cfg.k,
                tile: record.metric("tile").unwrap_or(0.0) as usize,
                wall_ns: record.median.as_nanos(),
                distance_computations: record
                    .metric("distance_computations")
                    .unwrap_or(pairs as f64) as u64,
                pruned: record.metric("pruned").unwrap_or(0.0) as u64,
            });
            if !scalar && scalar_ns > 0 {
                // Speedup summary for the scrollback (the acceptance
                // observable); an update only pairs points with the
                // suffix.
                let live = if record.id.ends_with("kernel_update") {
                    (cfg.n * (cfg.k - from)) as f64
                } else {
                    pairs as f64
                };
                println!(
                    "{}: speedup {:.2}x over scalar ({:.1}% of pairs bound-pruned)",
                    record.id,
                    scalar_ns as f64 / record.median.as_nanos() as f64,
                    100.0 * record.metric("pruned").unwrap_or(0.0) / live,
                );
            }
        }
    }

    let path = Path::new(concat!(
        env!("CARGO_MANIFEST_DIR"),
        "/../../BENCH_kernels.json"
    ));
    if quick {
        print_records(&records);
    } else {
        write_merged(path, &records);
    }
}
