//! Cross-crate property-based tests: pipeline invariants that must hold
//! for arbitrary data, k, and seeds.

use proptest::prelude::*;
use scalable_kmeans::prelude::*;

/// Strategy: a small random dataset (n points × d dims, values bounded).
fn datasets() -> impl Strategy<Value = PointMatrix> {
    (2usize..40, 1usize..6).prop_flat_map(|(n, d)| {
        proptest::collection::vec(-1e3f64..1e3, n * d)
            .prop_map(move |flat| PointMatrix::from_flat(flat, d).unwrap())
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn fit_always_returns_k_consistent_clusters(
        points in datasets(),
        seed in 0u64..500,
    ) {
        let k = 1 + (seed as usize % points.len().min(8));
        let model = KMeans::params(k)
            .seed(seed)
            .parallelism(Parallelism::Sequential)
            .max_iterations(20)
            .fit(&points)
            .unwrap();
        prop_assert_eq!(model.k(), k);
        prop_assert_eq!(model.labels().len(), points.len());
        prop_assert!(model.labels().iter().all(|&l| (l as usize) < k));
        prop_assert!(model.cost().is_finite());
        prop_assert!(model.cost() >= 0.0);
        // Lloyd never worsens the seed.
        prop_assert!(model.cost() <= model.init_stats().seed_cost + 1e-9);
        // The reported cost matches a recomputation from labels/centers.
        let mut recomputed = 0.0;
        for (i, row) in points.rows().enumerate() {
            let c = model.centers().row(model.labels()[i] as usize);
            recomputed += row.iter().zip(c).map(|(a, b)| (a - b) * (a - b)).sum::<f64>();
        }
        // Labels are nearest-assignments, so recomputed == cost.
        prop_assert!(
            (model.cost() - recomputed).abs() <= 1e-6 * (1.0 + recomputed),
            "cost {} vs recomputed {}", model.cost(), recomputed
        );
    }

    #[test]
    fn every_init_produces_k_in_bounds_centers(
        points in datasets(),
        seed in 0u64..200,
        method_pick in 0usize..3,
    ) {
        let k = 1 + (seed as usize % points.len().min(5));
        let method = match method_pick {
            0 => InitMethod::Random,
            1 => InitMethod::KMeansPlusPlus,
            _ => InitMethod::default(),
        };
        let exec = Executor::new(Parallelism::Sequential);
        let result = method.run(&points, k, seed, &exec).unwrap();
        prop_assert_eq!(result.centers.len(), k);
        prop_assert_eq!(result.centers.dim(), points.dim());
        prop_assert!(result.stats.seed_cost.is_finite());
        prop_assert!(result.stats.seed_cost >= 0.0);
        prop_assert!(result.stats.candidates >= k);
        // Seeds are actual data points for all three methods (before any
        // reclustering they are selected rows; reclustering also selects
        // rows of the candidate set).
        for c in result.centers.rows() {
            let found = points.rows().any(|row| row == c);
            prop_assert!(found, "center not a data point");
        }
    }

    #[test]
    fn seeding_is_deterministic_per_seed(points in datasets(), seed in 0u64..100) {
        let k = 1 + (seed as usize % points.len().min(4));
        let exec = Executor::new(Parallelism::Sequential);
        let a = InitMethod::default().run(&points, k, seed, &exec).unwrap();
        let b = InitMethod::default().run(&points, k, seed, &exec).unwrap();
        prop_assert_eq!(a.centers, b.centers);
    }

    #[test]
    fn lloyd_cost_is_monotone_for_arbitrary_input(
        points in datasets(),
        seed in 0u64..100,
    ) {
        let k = 1 + (seed as usize % points.len().min(4));
        let exec = Executor::new(Parallelism::Sequential);
        let init = InitMethod::Random.run(&points, k, seed, &exec).unwrap();
        let result = scalable_kmeans::core::lloyd::lloyd(
            &points,
            &init.centers,
            &LloydConfig { max_iterations: 25, tol: 0.0 },
            &exec,
        )
        .unwrap();
        for w in result.history.windows(2) {
            // Reseeding may transiently raise cost; skip those steps.
            if w[1].reseeded == 0 && w[0].reseeded == 0 {
                prop_assert!(
                    w[1].cost <= w[0].cost + 1e-9 * (1.0 + w[0].cost),
                    "cost increased {} -> {}", w[0].cost, w[1].cost
                );
            }
        }
    }

    #[test]
    fn generators_are_seed_deterministic(n in 10usize..200, seed in 0u64..50) {
        let a = KddLike::new(n).generate(seed).unwrap();
        let b = KddLike::new(n).generate(seed).unwrap();
        prop_assert_eq!(a.dataset.points(), b.dataset.points());
        let c = SpamLike::new().points(n).generate(seed).unwrap();
        let d = SpamLike::new().points(n).generate(seed).unwrap();
        prop_assert_eq!(c.dataset.points(), d.dataset.points());
    }

    #[test]
    fn csv_round_trip_preserves_generated_data(n in 2usize..60, seed in 0u64..30) {
        use scalable_kmeans::data::io::{read_csv_from, write_csv_to, LabelColumn};
        let synth = GaussMixture::new(2).points(n).dim(3).generate(seed).unwrap();
        let mut buf = Vec::new();
        write_csv_to(&mut buf, &synth.dataset).unwrap();
        let read = read_csv_from(buf.as_slice(), "t", LabelColumn::Last).unwrap();
        prop_assert_eq!(read.labels().unwrap(), synth.dataset.labels().unwrap());
        // f64 `{}` formatting is shortest-round-trip, so values are exact.
        prop_assert_eq!(read.points(), synth.dataset.points());
    }
}
