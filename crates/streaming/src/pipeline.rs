//! Pipeline adapters: the streaming seeders as
//! [`Initializer`] implementations.
//!
//! The paper benchmarks Partition as a *seeding* method — Tables 3–5 run
//! it head-to-head with k-means|| and hand both to the same Lloyd
//! refinement — so exposing it (and the coreset-tree extension) through
//! the same trait as the core seeders is exactly the composition the
//! experiments exercise: `KMeans::params(k).init(Partition::default())
//! .refine(…)`.
//!
//! Both adapters recluster their intermediate weighted set down to `k`
//! centers internally (Partition's final weighted k-means++ pass,
//! [`CoresetTree::cluster`]), so like every other `Initializer` they
//! return exactly `k` centers. Both read the data through
//! [`RoundBackend::local`], so they run in memory and on chunked
//! sources, and reject the distributed backend with a typed error.

use crate::coreset::CoresetTree;
use crate::partition::{partition_init, partition_init_chunked, PartitionConfig};
use kmeans_core::chunked::check_block_finite;
use kmeans_core::driver::{finish_init_backend, BackendKind, LocalData, RoundBackend};
use kmeans_core::init::{validate, InitResult, InitStats};
use kmeans_core::pipeline::{reject_backend, reject_weights, Initializer};
use kmeans_core::KMeansError;
use kmeans_util::timing::Stopwatch;

/// The Partition streaming baseline (§4.2.1; Ailon et al., NIPS 2009) as
/// a pipeline seeding stage.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct Partition(pub PartitionConfig);

impl Initializer for Partition {
    fn name(&self) -> &'static str {
        "partition"
    }

    fn supports_backend(&self, kind: BackendKind) -> bool {
        kind != BackendKind::Distributed
    }

    fn init_backend(
        &self,
        backend: &mut dyn RoundBackend,
        k: usize,
        seed: u64,
    ) -> Result<InitResult, KMeansError> {
        let sw = Stopwatch::start();
        // Resident data is split into shuffled groups; a chunked source
        // streams its blocks as contiguous groups (the documented
        // non-parity case).
        let result = match backend.local() {
            Some((LocalData::Resident { points, weights }, exec)) => {
                validate(points, k)?;
                reject_weights("partition", weights)?;
                partition_init(points, k, &self.0, seed, exec)?
            }
            Some((LocalData::Blocks(source), exec)) => {
                partition_init_chunked(source, k, &self.0, seed, exec)?
            }
            None => return Err(reject_backend(self.name(), backend.kind())),
        };
        let stats = InitStats {
            rounds: 1,
            // One streaming pass over the groups plus the local weighting
            // pass; the sequential recluster touches only the coreset.
            passes: 2,
            candidates: result.intermediate_centers,
            ..InitStats::default()
        };
        finish_init_backend(backend, result.centers, stats, sw)
    }
}

/// The merge-reduce coreset tree (StreamKM++-style; the paper's reference
/// \[1]) as a pipeline seeding stage: streams every row through a
/// [`CoresetTree`], then reclusters the surviving representatives to `k`.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Coreset {
    /// Per-bucket coreset size (leaf buckets hold twice this).
    pub coreset_size: usize,
}

impl Default for Coreset {
    fn default() -> Self {
        Coreset { coreset_size: 200 }
    }
}

impl Initializer for Coreset {
    fn name(&self) -> &'static str {
        "coreset"
    }

    fn supports_backend(&self, kind: BackendKind) -> bool {
        kind != BackendKind::Distributed
    }

    fn init_backend(
        &self,
        backend: &mut dyn RoundBackend,
        k: usize,
        seed: u64,
    ) -> Result<InitResult, KMeansError> {
        // The tree consumes rows one at a time, so streaming blocks
        // through it inserts in the exact order resident rows do — the
        // resulting centers are bit-identical (`tests/chunked_parity.rs`).
        let sw = Stopwatch::start();
        let Some((data, _)) = backend.local() else {
            return Err(reject_backend(self.name(), backend.kind()));
        };
        data.validate(k)?;
        reject_weights("coreset", data.weights())?;
        let mut tree = CoresetTree::new(data.dim(), self.coreset_size, seed)?;
        data.for_each_block(|start, block| {
            check_block_finite(block, start)?;
            for row in block.rows() {
                tree.insert(row).expect("dims match by construction");
            }
            Ok(())
        })?;
        // The set the final recluster runs on: representatives at every
        // level plus the still-open leaf buffer (the Table 5 quantity).
        let candidates = tree.representatives() + tree.buffered();
        let centers = tree.cluster(k)?;
        let stats = InitStats {
            rounds: 0,
            passes: 1, // single streaming pass
            candidates,
            ..InitStats::default()
        };
        finish_init_backend(backend, centers, stats, sw)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use kmeans_data::PointMatrix;
    use kmeans_par::Executor;

    fn blobs(n_per: usize, centers: &[f64]) -> PointMatrix {
        let mut m = PointMatrix::new(1);
        for &c in centers {
            for i in 0..n_per {
                m.push(&[c + i as f64 * 1e-3]).unwrap();
            }
        }
        m
    }

    #[test]
    fn partition_adapter_matches_free_function() {
        let points = blobs(200, &[0.0, 1e3, 2e3]);
        let exec = Executor::sequential();
        let via_trait = Partition::default()
            .init(&points, None, 3, 7, &exec)
            .unwrap();
        let direct = partition_init(&points, 3, &PartitionConfig::default(), 7, &exec).unwrap();
        assert_eq!(via_trait.centers, direct.centers);
        assert_eq!(via_trait.stats.candidates, direct.intermediate_centers);
        assert!(via_trait.stats.seed_cost > 0.0);
    }

    #[test]
    fn coreset_adapter_matches_manual_tree() {
        let points = blobs(300, &[0.0, 1e4]);
        let exec = Executor::sequential();
        let via_trait = Coreset { coreset_size: 32 }
            .init(&points, None, 2, 5, &exec)
            .unwrap();
        let mut tree = CoresetTree::new(1, 32, 5).unwrap();
        for row in points.rows() {
            tree.insert(row).unwrap();
        }
        let direct = tree.cluster(2).unwrap();
        assert_eq!(via_trait.centers, direct);
        assert_eq!(via_trait.centers.len(), 2);
    }

    #[test]
    fn adapters_reject_weights_and_bad_k() {
        let points = blobs(20, &[0.0]);
        let exec = Executor::sequential();
        let w = vec![1.0; points.len()];
        assert!(Partition::default()
            .init(&points, Some(&w), 2, 0, &exec)
            .is_err());
        assert!(Coreset::default()
            .init(&points, Some(&w), 2, 0, &exec)
            .is_err());
        assert!(Coreset::default().init(&points, None, 0, 0, &exec).is_err());
        assert!(Coreset::default()
            .init(&points, None, 21, 0, &exec)
            .is_err());
        assert!(Partition::default()
            .init(&PointMatrix::new(1), None, 1, 0, &exec)
            .is_err());
        // Non-finite data is rejected with the same typed error as the
        // core seeders (shared kmeans_core::init::validate).
        let bad = PointMatrix::from_flat(vec![0.0, f64::NAN, 2.0], 1).unwrap();
        use kmeans_core::KMeansError;
        for init in [
            Box::new(Partition::default()) as Box<dyn Initializer>,
            Box::new(Coreset::default()),
        ] {
            assert!(
                matches!(
                    init.init(&bad, None, 2, 0, &exec),
                    Err(KMeansError::NonFiniteData { point: 1, dim: 0 })
                ),
                "{init:?}"
            );
        }
    }

    #[test]
    fn adapters_cover_separated_blobs() {
        let points = blobs(250, &[0.0, 1e4, 2e4, 3e4]);
        let exec = Executor::sequential();
        for init in [
            Box::new(Partition::default()) as Box<dyn Initializer>,
            Box::new(Coreset { coreset_size: 64 }),
        ] {
            let mut good = 0;
            for seed in 0..5 {
                let r = init.init(&points, None, 4, seed, &exec).unwrap();
                assert_eq!(r.centers.len(), 4, "{init:?}");
                if r.stats.seed_cost < 100.0 {
                    good += 1;
                }
            }
            assert!(good >= 4, "{init:?} covered blobs only {good}/5 times");
        }
    }
}
