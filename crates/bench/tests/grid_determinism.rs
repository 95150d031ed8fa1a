//! Distributed runs must be byte-identical to local ones, including
//! when a worker dies mid-lease. These tests drive the real
//! `ppa-bench` unit vocabulary through a real loopback TCP grid.

use ppa_bench::gridwork::{self, BenchExecutor};
use ppa_grid::coord::GridConfig;
use ppa_grid::loopback;
use ppa_grid::worker::WorkerOptions;
use ppa_serve::GridHandle;
use std::sync::Arc;

/// Transport-level equivalence: every fig11 cell unit executed through
/// a loopback grid (with one worker dying mid-lease) returns exactly
/// the bytes local execution produces, in submission order.
#[test]
fn transported_cells_match_local_execution_despite_worker_death() {
    let units = gridwork::units_for("fig11", 2_000).expect("fig11 decomposes");
    let expected: Vec<Vec<u8>> = units
        .iter()
        .map(|u| gridwork::execute(&u.tag, &u.payload).expect("cells execute locally"))
        .collect();

    let opts = vec![
        WorkerOptions {
            die_after: Some(2),
            ..WorkerOptions::default()
        },
        WorkerOptions::default(),
        WorkerOptions::default(),
    ];
    let lb = loopback::start(opts, Arc::new(BenchExecutor), GridConfig::default())
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

/// Rendered-table equivalence: `render_experiment` through an installed
/// loopback grid produces the same string a grid-free render does.
/// (This test owns the process-wide grid handle; keep it the only test
/// in this binary that installs one.)
#[test]
fn rendered_tables_are_byte_identical_across_grid_configurations() {
    ppa_bench::set_experiment_len_override(1_500);
    let registry = ppa_bench::experiments::all_experiments();
    let fig11 = registry
        .iter()
        .find(|(id, _)| *id == "fig11")
        .copied()
        .expect("fig11 is registered");
    let table1 = registry
        .iter()
        .find(|(id, _)| *id == "table1")
        .copied()
        .expect("table1 is registered");

    // Local renders first — render_experiment falls through to a plain
    // call while no grid handle is installed.
    let local_fig11 = gridwork::render_experiment(fig11.0, fig11.1);
    let local_table1 = gridwork::render_experiment(table1.0, table1.1);

    let lb = loopback::start_uniform(2, 2, Arc::new(BenchExecutor), GridConfig::default())
        .expect("loopback grid starts");
    gridwork::install(GridHandle::Loopback(lb));

    // fig11 decomposes into per-app units; table1 ships whole. Both
    // paths must reproduce the local bytes.
    assert_eq!(gridwork::render_experiment(fig11.0, fig11.1), local_fig11);
    assert_eq!(
        gridwork::render_experiment(table1.0, table1.1),
        local_table1
    );
    let Some(GridHandle::Loopback(lb)) = gridwork::active() else {
        panic!("the loopback handle is installed");
    };
    let stats = lb.coordinator().stats();
    assert!(stats.completed >= 42, "stats: {stats:?}");
}
