//! Deterministic data-parallel execution substrate.
//!
//! The paper's §3.5 notes that k-means|| "can be implemented in a variety of
//! parallel computational models" because it only needs primitive
//! operations: per-partition sampling, per-partition cost sums, and a global
//! aggregate. This crate provides those primitives for a multi-core machine,
//! with one property the paper's Hadoop deployment does not have:
//! **bit-determinism across thread counts**.
//!
//! The design that achieves it (see DESIGN.md §4):
//!
//! * Work is divided into *logical shards* of fixed size ([`ShardSpec`],
//!   default 8 192 rows), independent of the worker count.
//! * Each shard derives any randomness it needs from `(seed, tags...,
//!   shard_index)` via [`kmeans_util::Rng::derive`].
//! * Worker threads ([`Executor`]) claim shards from an atomic queue, and
//!   shard results are always combined in shard order.
//!
//! Hence `Parallelism::Sequential` and `Parallelism::Threads(t)` produce
//! identical results for every `t` — an invariant the integration test
//! `tests/parallel_consistency.rs` checks end-to-end.
//!
//! The distributed realization of §3.5 lives in `kmeans-cluster`.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod executor;
pub mod shards;

pub use executor::{Executor, Parallelism};
pub use shards::ShardSpec;
