//! Deterministic randomness, sampling, and statistics substrate for the
//! `scalable-kmeans` workspace.
//!
//! The experiments in *Scalable K-Means++* (Bahmani et al., VLDB 2012) are
//! all randomized: every table reports the median over 11 runs and every
//! figure a median over seeds. Reproducing them faithfully requires a random
//! number generator that is
//!
//! 1. **portable** — bit-identical output on every platform, independent of
//!    the standard library's hash seeds or OS entropy, and
//! 2. **splittable** — each logical unit of parallel work (a shard of the
//!    dataset, a round of the algorithm) must be able to derive its own
//!    independent stream from `(seed, tags...)` so that results do not
//!    depend on thread count or scheduling.
//!
//! No off-the-shelf crate is used; the RNG ([`rng::Rng`], Xoshiro256++ seeded
//! through SplitMix64) and all weighted-sampling routines are implemented
//! here from the published algorithms.
//!
//! Modules:
//!
//! * [`rng`] — SplitMix64 / Xoshiro256++, uniform and Gaussian variates,
//!   stream derivation.
//! * [`sampling`] — the weighted-sampling toolkit used by k-means++ and
//!   k-means||: cumulative (binary-search) sampling, the alias method,
//!   Efraimidis–Spirakis weighted sampling *without* replacement, Floyd's
//!   distinct uniform sampling and reservoir sampling.
//! * [`stats`] — Welford online moments, medians and percentiles used by the
//!   experiment harness.
//! * [`timing`] — a small stopwatch utility.
//! * [`cli`] — the minimal `--key value` argument parser shared by the
//!   workspace binaries.
//! * [`checksum`] — the 64-bit checksums of the wire frames and the
//!   `SKM*` file formats: FNV-1a and a word-wide four-lane hash.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod checksum;
pub mod cli;
pub mod rng;
pub mod sampling;
pub mod stats;
pub mod timing;

pub use rng::Rng;
pub use stats::OnlineStats;
