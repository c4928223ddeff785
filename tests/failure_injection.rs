//! Failure injection: every public entry point must reject malformed
//! input with a typed error (never panic, never return garbage).

use scalable_kmeans::prelude::*;
use scalable_kmeans::KMeansError;

fn valid_points() -> PointMatrix {
    PointMatrix::from_flat((0..60).map(|i| i as f64).collect(), 2).unwrap()
}

#[test]
fn non_finite_coordinates_are_rejected_everywhere() {
    for bad in [f64::NAN, f64::INFINITY, f64::NEG_INFINITY] {
        let points = PointMatrix::from_flat(vec![0.0, 1.0, bad, 3.0, 4.0, 5.0], 2).unwrap();
        let err = KMeans::params(2).fit(&points).unwrap_err();
        assert!(
            matches!(err, KMeansError::NonFiniteData { point: 1, dim: 0 }),
            "{bad}: {err:?}"
        );
        for init in [InitMethod::Random, InitMethod::KMeansPlusPlus] {
            let exec = Executor::new(Parallelism::Sequential);
            assert!(matches!(
                init.run(&points, 2, 0, &exec),
                Err(KMeansError::NonFiniteData { .. })
            ));
        }
    }
}

#[test]
fn k_bounds_are_enforced() {
    let points = valid_points();
    assert!(matches!(
        KMeans::params(0).fit(&points),
        Err(KMeansError::InvalidK { k: 0, .. })
    ));
    assert!(matches!(
        KMeans::params(31).fit(&points),
        Err(KMeansError::InvalidK { k: 31, n: 30 })
    ));
    // Exactly n clusters is legal.
    let model = KMeans::params(30)
        .parallelism(Parallelism::Sequential)
        .fit(&points)
        .unwrap();
    assert_eq!(model.k(), 30);
    assert_eq!(model.cost(), 0.0);
}

#[test]
fn empty_input_is_rejected() {
    let empty = PointMatrix::new(3);
    assert!(matches!(
        KMeans::params(1).fit(&empty),
        Err(KMeansError::EmptyInput)
    ));
    let exec = Executor::new(Parallelism::Sequential);
    assert!(partition_init(&empty, 1, &PartitionConfig::default(), 0, &exec).is_err());
}

#[test]
fn invalid_configurations_are_rejected() {
    let points = valid_points();
    // Zero rounds.
    let err = KMeans::params(3)
        .init(InitMethod::KMeansParallel(
            KMeansParallelConfig::default().rounds(0),
        ))
        .fit(&points)
        .unwrap_err();
    assert!(matches!(err, KMeansError::InvalidConfig(_)));
    // Negative oversampling.
    let err = KMeans::params(3)
        .init(InitMethod::KMeansParallel(
            KMeansParallelConfig::default().oversampling_factor(-1.0),
        ))
        .fit(&points)
        .unwrap_err();
    assert!(matches!(err, KMeansError::InvalidConfig(_)));
    // Zero Lloyd iterations.
    let err = KMeans::params(3)
        .max_iterations(0)
        .fit(&points)
        .unwrap_err();
    assert!(matches!(err, KMeansError::InvalidConfig(_)));
    // Negative tolerance.
    let err = KMeans::params(3).tol(-0.5).fit(&points).unwrap_err();
    assert!(matches!(err, KMeansError::InvalidConfig(_)));
}

#[test]
fn degenerate_data_survives_the_full_pipeline() {
    // All-identical points: every center coincides; cost 0; no panic.
    let points = PointMatrix::from_flat(vec![7.0; 100], 2).unwrap();
    for init in [
        InitMethod::Random,
        InitMethod::KMeansPlusPlus,
        InitMethod::default(),
    ] {
        let model = KMeans::params(5)
            .init(init.clone())
            .parallelism(Parallelism::Sequential)
            .fit(&points)
            .unwrap();
        assert_eq!(model.k(), 5, "{init:?}");
        assert_eq!(model.cost(), 0.0, "{init:?}");
    }
}

#[test]
fn single_point_single_cluster() {
    let points = PointMatrix::from_flat(vec![1.0, 2.0, 3.0], 3).unwrap();
    let model = KMeans::params(1)
        .parallelism(Parallelism::Sequential)
        .fit(&points)
        .unwrap();
    assert_eq!(model.labels(), &[0]);
    assert_eq!(model.cost(), 0.0);
    assert_eq!(model.centers().row(0), points.row(0));
}

#[test]
fn csv_failure_paths_are_typed() {
    use scalable_kmeans::data::io::{read_csv_from, LabelColumn};
    use scalable_kmeans::data::DataError;
    // Garbage mid-file.
    let err = read_csv_from("1,2\nx,y\n".as_bytes(), "t", LabelColumn::None).unwrap_err();
    assert!(matches!(err, DataError::Parse { line: 2, .. }));
    // Ragged row.
    let err = read_csv_from("1,2\n3\n".as_bytes(), "t", LabelColumn::None).unwrap_err();
    assert!(matches!(err, DataError::Parse { line: 2, .. }));
    // Fractional label.
    let err = read_csv_from("1,2,0.5\n".as_bytes(), "t", LabelColumn::Last).unwrap_err();
    assert!(matches!(err, DataError::Parse { .. }));
    // Completely empty.
    let err = read_csv_from("".as_bytes(), "t", LabelColumn::None).unwrap_err();
    assert!(matches!(err, DataError::Empty));
}

#[test]
fn predict_and_cost_of_enforce_dimensions() {
    let model = KMeans::params(2)
        .parallelism(Parallelism::Sequential)
        .fit(&valid_points())
        .unwrap();
    let wrong = PointMatrix::from_flat(vec![1.0, 2.0, 3.0], 3).unwrap();
    assert!(matches!(
        model.predict(&wrong),
        Err(KMeansError::DimensionMismatch {
            expected: 2,
            got: 3
        })
    ));
    assert!(model.cost_of(&wrong).is_err());
}

#[test]
fn generator_parameter_validation() {
    assert!(GaussMixture::new(0).generate(0).is_err());
    assert!(GaussMixture::new(2).points(0).generate(0).is_err());
    assert!(SpamLike::new().points(0).generate(0).is_err());
    assert!(SpamLike::new().spam_fraction(-0.1).generate(0).is_err());
    assert!(KddLike::new(0).generate(0).is_err());
    use scalable_kmeans::data::transform::subsample;
    let d = GaussMixture::new(2).points(10).generate(0).unwrap().dataset;
    assert!(subsample(&d, 2.0, 0).is_err());
}
