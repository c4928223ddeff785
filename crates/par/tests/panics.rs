//! Failure behavior of the shard executor: a panicking shard job must
//! propagate (never deadlock or silently drop shards).

use kmeans_par::{Executor, Parallelism};

#[test]
fn map_shards_propagates_worker_panic() {
    let exec = Executor::new(Parallelism::Threads(3)).with_shard_size(8);
    let result = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
        exec.map_shards(100, |s, _| {
            if s == 7 {
                panic!("injected shard failure");
            }
            s
        })
    }));
    assert!(result.is_err(), "worker panic was swallowed");
}

#[test]
fn sequential_panic_also_propagates() {
    let exec = Executor::sequential().with_shard_size(8);
    let result = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
        exec.map_shards(100, |s, _| {
            if s == 3 {
                panic!("injected shard failure");
            }
            s
        })
    }));
    assert!(result.is_err());
}

#[test]
fn executor_is_reusable_after_catching_a_panic() {
    // A panicked scope must not poison subsequent jobs on a fresh call.
    let exec = Executor::new(Parallelism::Threads(2)).with_shard_size(8);
    let _ = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
        exec.map_shards(32, |_, _| panic!("boom"))
    }));
    let ok = exec.map_shards(32, |s, _| s);
    assert_eq!(ok, vec![0, 1, 2, 3]);
}
