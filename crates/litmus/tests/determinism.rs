//! `ppa-litmus run` output must be byte-identical at any job count and
//! across a loopback grid with an injected mid-lease worker death —
//! mirroring `crates/bench/tests/grid_determinism.rs`.

use ppa_grid::coord::GridConfig;
use ppa_grid::loopback;
use ppa_grid::worker::WorkerOptions;
use ppa_grid::Executor;
use ppa_litmus::generator::{self, GenConfig};
use ppa_litmus::gridwork::{self, LitmusKind};
use ppa_litmus::run::{render_batch, run_batch_local, RunConfig};
use ppa_pool::ThreadPool;
use std::sync::Arc;

fn rendered_with_workers(workers: usize) -> String {
    let pool = ThreadPool::new(workers);
    pool.par_map([()], |()| {
        let tests = generator::generate(&GenConfig { seed: 1, tests: 24 });
        let cfg = RunConfig::default();
        let rows = run_batch_local(&tests, &cfg);
        render_batch(&rows, 24, 1, &cfg)
    })
    .pop()
    .expect("one job")
    .expect("litmus batch does not panic")
}

#[test]
fn rendered_batch_is_byte_identical_at_any_job_count() {
    let serial = rendered_with_workers(1);
    let parallel = rendered_with_workers(8);
    assert!(serial.contains("machine-unsound=0"), "{serial}");
    assert_eq!(serial, parallel, "parallel fan-out changed rendered output");
}

#[test]
fn transported_tests_match_local_execution_despite_worker_death() {
    let tests = generator::generate(&GenConfig { seed: 1, tests: 12 });
    let cfg = RunConfig::default();
    let units: Vec<_> = tests
        .iter()
        .enumerate()
        .map(|(i, t)| gridwork::test_unit(i, t, &cfg))
        .collect();
    let expected: Vec<Vec<u8>> = units
        .iter()
        .map(|u| {
            LitmusKind
                .execute(&u.tag, &u.payload)
                .expect("units execute locally")
        })
        .collect();

    // The first worker dies on its first lease. With one job per worker,
    // the first dispatch leases a unit to each of the three, so the death
    // and the re-dispatch happen whatever the units' run times and however
    // the threads are scheduled. (Dying after two units raced: litmus
    // units run 10–50 ms, and the other test in this binary loads every
    // core, so the other workers could drain the batch first.)
    let opts = vec![
        WorkerOptions {
            die_after: Some(0),
            ..WorkerOptions::default()
        },
        WorkerOptions::default(),
        WorkerOptions::default(),
    ];
    let lb = loopback::start(opts, Arc::new(LitmusKind), GridConfig::default())
        .expect("loopback grid starts");
    let results = lb.run_units(units.clone());
    for ((unit, exp), res) in units.iter().zip(&expected).zip(results) {
        let outcome = res.expect("every unit completes despite the death");
        assert_eq!(
            outcome.payload, *exp,
            "unit {} diverged from local execution",
            unit.tag
        );
    }
    let stats = lb.coordinator().stats();
    assert!(stats.workers_lost >= 1, "stats: {stats:?}");
    assert!(stats.redispatched >= 1, "stats: {stats:?}");
    assert!(lb.shutdown().iter().any(|r| r.died));
}
