//! The determinism contract of the multi-core machine: the shared-state
//! fig19 sweep renders byte-identical output at any job count.
//!
//! This file holds exactly one test so `PPA_REPRO_LEN` is never touched
//! concurrently within the process.

use ppa_bench::experiments;
use ppa_pool::ThreadPool;

/// Render `fig19` with per-workload machine simulations fanned out across
/// `workers` pool threads. The experiment body runs as a pool job, so its
/// nested `par_map_ordered` calls pick up this pool through the
/// ambient-pool thread-local instead of the (serial) global default.
fn fig19_with_workers(workers: usize) -> String {
    let pool = ThreadPool::new(workers);
    pool.par_map([()], |()| experiments::fig19().to_string())
        .pop()
        .expect("one job")
        .expect("fig19 does not panic")
}

#[test]
#[ignore = "slow in a debug build (~11 s); ci.sh runs it with --ignored"]
fn fig19_is_byte_identical_at_any_job_count() {
    std::env::set_var("PPA_REPRO_LEN", "800");
    let serial = fig19_with_workers(1);
    let parallel = fig19_with_workers(8);
    std::env::remove_var("PPA_REPRO_LEN");
    assert!(!serial.is_empty());
    assert_eq!(serial, parallel, "parallel fan-out changed rendered output");
}
