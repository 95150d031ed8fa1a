//! Integration tests for the executor: seeded stress loops, panic
//! isolation, nested fan-out, and a lost-wakeup watchdog. These stand in
//! for the property tests an external framework would provide (offline
//! dependency policy — see ROADMAP.md).

use ppa_pool::{JobError, ThreadPool};
use ppa_prng::Prng;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::mpsc;
use std::time::Duration;

/// A tiny deterministic CPU-bound job whose cost scales with `spin`.
fn spin_hash(seed: u64, spin: u64) -> u64 {
    let mut h = seed ^ 0x9e37_79b9_7f4a_7c15;
    for i in 0..spin {
        h = h.wrapping_mul(0x2545_f491_4f6c_dd1d) ^ (h >> 31) ^ i;
    }
    h
}

/// The process-wide `pool.jobs_run` counter, as `export_metrics` reports it.
fn exported_jobs_run() -> u64 {
    ppa_pool::export_metrics();
    match ppa_obs::registry::snapshot().get("pool.jobs_run") {
        Some(ppa_obs::registry::Value::Counter(n)) => *n,
        other => panic!("pool.jobs_run is not a counter: {other:?}"),
    }
}

#[test]
fn seeded_stress_thousands_of_jobs_match_serial() {
    for seed in 1..=3u64 {
        for workers in [1usize, 2, 4, 8] {
            let mut rng = Prng::seed_from_u64(seed);
            // Skewed job costs: a few heavy jobs amid thousands of light
            // ones, so workers finish out of order.
            let jobs: Vec<(u64, u64)> = (0..2_000u64)
                .map(|i| {
                    let spin = if rng.random_bool(0.02) {
                        rng.random_range(20_000..60_000u64)
                    } else {
                        rng.random_range(0..200u64)
                    };
                    (i, spin)
                })
                .collect();
            let expect: Vec<u64> = jobs.iter().map(|&(i, s)| spin_hash(i, s)).collect();

            let pool = ThreadPool::new(workers);
            let got = pool.par_map(jobs, |(i, s)| spin_hash(i, s));
            let got: Vec<u64> = got.into_iter().map(Result::unwrap).collect();
            assert_eq!(got, expect, "seed={seed} workers={workers}");
        }
    }
}

#[test]
fn one_panicking_job_leaves_the_other_99_intact_and_the_pool_reusable() {
    let pool = ThreadPool::new(4);
    let results = pool.par_map(0..100u32, |i| {
        if i == 37 {
            panic!("job 37 exploded");
        }
        i * 2
    });
    for (i, r) in results.iter().enumerate() {
        if i == 37 {
            match r {
                Err(JobError::Panicked(msg)) => assert!(msg.contains("exploded"), "{msg}"),
                other => panic!("expected a panic error, got {other:?}"),
            }
        } else {
            assert_eq!(*r, Ok(i as u32 * 2));
        }
    }

    // The pool is not poisoned: a second batch runs clean.
    let again = pool.par_map(0..50u32, |i| i + 1);
    assert!(again.iter().all(Result::is_ok));
}

#[test]
fn nested_fan_out_does_not_deadlock_even_on_one_worker() {
    for workers in [1usize, 4] {
        let pool = ThreadPool::new(workers);
        // Each outer job fans out again into the same pool; the outer
        // job's wait must help drain the inner jobs.
        let totals = pool.par_map(0..8u64, |i| {
            let inner: u64 = ppa_pool::par_map_ordered((0..16u64).collect(), |j| i * 100 + j)
                .into_iter()
                .sum();
            inner
        });
        for (i, t) in totals.into_iter().enumerate() {
            let i = i as u64;
            assert_eq!(t, Ok(16 * i * 100 + (0..16).sum::<u64>()));
        }
    }
}

/// Every wait sleeps on the condvar with no timeout, so one lost wakeup
/// hangs a run for good. Thousands of tiny nested scopes put workers and
/// helping waiters to sleep and wake them again many thousand times; a
/// watchdog turns a hang into a failure.
#[test]
fn thousands_of_tiny_nested_scopes_finish_without_a_lost_wakeup() {
    // Leaf `j` of outer job `i` in round `r`: a few microseconds of work,
    // so waiters often sleep while another thread finishes their job.
    let leaf = |r: u64, i: u64, j: u64| spin_hash(r * 64 + i * 4 + j, 300);
    let (done, finished) = mpsc::channel();
    let runner = std::thread::spawn(move || {
        for workers in [1usize, 2, 4] {
            let pool = ThreadPool::new(workers);
            for r in 0..200u64 {
                let got = pool.par_map(0..10u64, |i| {
                    ppa_pool::par_map_ordered((0..3u64).collect(), |j| leaf(r, i, j))
                });
                let expect: Vec<_> = (0..10u64)
                    .map(|i| Ok((0..3).map(|j| leaf(r, i, j)).collect()))
                    .collect();
                assert_eq!(got, expect, "workers={workers} round={r}");
            }
        }
        done.send(()).unwrap();
    });
    finished
        .recv_timeout(Duration::from_secs(60))
        .expect("nested scopes hung: a wakeup was lost (or a job panicked)");
    runner.join().expect("the runner thread finished cleanly");
}

#[test]
fn scope_handles_return_values_and_help_join() {
    let pool = ThreadPool::new(2);
    let data = [10u64, 20, 30];
    let sum = pool.scope(|s| {
        let handles: Vec<_> = data.iter().map(|&x| s.spawn(move || x * x)).collect();
        handles.into_iter().map(|h| h.join().unwrap()).sum::<u64>()
    });
    assert_eq!(sum, 100 + 400 + 900);
}

#[test]
fn scope_waits_for_all_jobs_even_when_the_closure_panics() {
    let pool = ThreadPool::new(2);
    let finished = AtomicU64::new(0);
    let result = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
        pool.scope(|s| {
            for _ in 0..8 {
                s.spawn(|| {
                    std::thread::sleep(Duration::from_millis(5));
                    finished.fetch_add(1, Ordering::SeqCst);
                });
            }
            panic!("scope body panics after spawning");
        })
    }));
    assert!(result.is_err());
    // The unwind was delayed until every spawned job completed.
    assert_eq!(finished.load(Ordering::SeqCst), 8);
}

/// A private pool — the grid worker's, say — counts into the same
/// `pool.*` family as the shared one.
#[test]
fn a_private_pool_counts_into_the_exported_metrics() {
    let before = exported_jobs_run();
    let pool = ThreadPool::new(2);
    let out = pool.par_map(0..5u32, |i| i + 1);
    assert!(out.iter().all(Result::is_ok));
    assert!(
        exported_jobs_run() >= before + 5,
        "jobs on a private pool are missing from pool.jobs_run"
    );
}
