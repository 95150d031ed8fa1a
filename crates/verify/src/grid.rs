//! Grid integration for the crash-consistency oracle: partitions the
//! (app × failure-point) grid into `ppa-grid` work units.
//!
//! Distribution runs in two waves so the coordinator — not the workers —
//! owns the RNG stream that places failure points:
//!
//! 1. **Plan** (`oracle.plan:{app}`): one unit per workload measuring
//!    the uninterrupted execution's cycle count.
//! 2. **Cell** (`oracle.cell:{app}#{i}`): one unit per injection point,
//!    carrying the exact `fail_cycle`/`mid_flush` the coordinator drew
//!    with [`oracle::fail_points`], the plan [`oracle::run_app`] runs.
//!
//! Each cell returns `(passed, exercised, rendered failure block)`, so
//! assembling rows in (registry, point) order reproduces the local
//! `ppa-verify oracle` output byte for byte. Tags embed the unit's
//! identity, so exhausted retries name the failing app and point.

use crate::oracle::{self, OracleOutcome};
use ppa_grid::coord::{UnitRunner, UnitSpec};
use ppa_grid::proto::{ByteReader, ByteWriter};
use ppa_grid::Executor;
use ppa_workloads::registry;

/// One row of `ppa-verify oracle` output, whether computed locally or
/// returned by a grid cell.
pub struct OracleRow {
    pub passed: bool,
    pub exercised: bool,
    /// Rendered FAIL block; empty when `passed`.
    pub failure: String,
}

impl OracleRow {
    pub fn from_outcome(o: &OracleOutcome) -> OracleRow {
        OracleRow {
            passed: o.passed(),
            exercised: oracle::exercised_recovery(o),
            failure: oracle::render_failure(o),
        }
    }
}

fn plan_unit(app: &'static str, len: usize, seed: u64) -> UnitSpec {
    let mut w = ByteWriter::new();
    w.put_str(app);
    w.put_u64(len as u64);
    w.put_u64(seed);
    UnitSpec {
        tag: format!("oracle.plan:{app}"),
        payload: w.into_bytes(),
    }
}

fn cell_unit(
    app: &'static str,
    idx: usize,
    len: usize,
    seed: u64,
    fail_cycle: u64,
    mid_flush: Option<u64>,
) -> UnitSpec {
    let mut w = ByteWriter::new();
    w.put_str(app);
    w.put_u64(len as u64);
    w.put_u64(seed);
    w.put_u64(fail_cycle);
    w.put_u8(mid_flush.is_some() as u8);
    w.put_u64(mid_flush.unwrap_or(0));
    UnitSpec {
        tag: format!("oracle.cell:{app}#{idx}"),
        payload: w.into_bytes(),
    }
}

/// Runs the full oracle suite through `runner` (a local coordinator or
/// a `ppa-serve` client), reproducing [`oracle::run_suite`]'s row order
/// exactly. Returns `Err` (with the failing unit's tag in the message)
/// when a unit exhausts its retries.
pub fn oracle_rows(
    runner: &dyn UnitRunner,
    len: usize,
    seed: u64,
    points: usize,
) -> Result<Vec<OracleRow>, String> {
    let apps = registry::all();

    // Wave 1: learn each workload's natural cycle count.
    let plans = apps
        .iter()
        .map(|app| plan_unit(app.name, len, seed))
        .collect();
    let mut totals = Vec::with_capacity(apps.len());
    for res in runner.run_units(plans) {
        let outcome = res.map_err(|e| e.to_string())?;
        let mut r = ByteReader::new(&outcome.payload);
        let total = r.u64().map_err(|e| e.to_string())?;
        r.finish().map_err(|e| e.to_string())?;
        totals.push(total);
    }

    // Wave 2: the coordinator draws every failure point with run_app's
    // plan, then fans the (app x point) grid out as cells.
    let mut cells = Vec::with_capacity(apps.len() * points);
    for (app, &total) in apps.iter().zip(&totals) {
        for (i, (fail_cycle, mid_flush)) in oracle::fail_points(app.name, total, seed, points)
            .into_iter()
            .enumerate()
        {
            cells.push(cell_unit(app.name, i, len, seed, fail_cycle, mid_flush));
        }
    }
    let mut rows = Vec::with_capacity(cells.len());
    for res in runner.run_units(cells) {
        let outcome = res.map_err(|e| e.to_string())?;
        let mut r = ByteReader::new(&outcome.payload);
        let passed = r.u8().map_err(|e| e.to_string())? != 0;
        let exercised = r.u8().map_err(|e| e.to_string())? != 0;
        let failure = r.str().map_err(|e| e.to_string())?;
        r.finish().map_err(|e| e.to_string())?;
        rows.push(OracleRow {
            passed,
            exercised,
            failure,
        });
    }
    Ok(rows)
}

/// The `oracle.*` unit kind.
pub struct OracleKind;

impl Executor for OracleKind {
    fn execute(&self, tag: &str, payload: &[u8]) -> Result<Vec<u8>, String> {
        if tag.starts_with("oracle.plan:") {
            let mut r = ByteReader::new(payload);
            let app_name = r.str().map_err(|e| e.to_string())?;
            let len = r.u64().map_err(|e| e.to_string())? as usize;
            let seed = r.u64().map_err(|e| e.to_string())?;
            r.finish().map_err(|e| e.to_string())?;
            let app = registry::by_name(&app_name)
                .ok_or_else(|| format!("unknown application '{app_name}'"))?;
            let total = oracle::total_cycles(&app.generate(len, seed));
            let mut w = ByteWriter::new();
            w.put_u64(total);
            Ok(w.into_bytes())
        } else if tag.starts_with("oracle.cell:") {
            let mut r = ByteReader::new(payload);
            let app_name = r.str().map_err(|e| e.to_string())?;
            let len = r.u64().map_err(|e| e.to_string())? as usize;
            let seed = r.u64().map_err(|e| e.to_string())?;
            let fail_cycle = r.u64().map_err(|e| e.to_string())?;
            let has_mid = r.u8().map_err(|e| e.to_string())? != 0;
            let mid = r.u64().map_err(|e| e.to_string())?;
            r.finish().map_err(|e| e.to_string())?;
            let app = registry::by_name(&app_name)
                .ok_or_else(|| format!("unknown application '{app_name}'"))?;
            let trace = app.generate(len, seed);
            let o = oracle::run_point_with_flush(
                app.name,
                &trace,
                seed,
                fail_cycle,
                has_mid.then_some(mid),
            );
            let row = OracleRow::from_outcome(&o);
            let mut w = ByteWriter::new();
            w.put_u8(row.passed as u8);
            w.put_u8(row.exercised as u8);
            w.put_str(&row.failure);
            Ok(w.into_bytes())
        } else {
            Err(format!("unknown unit tag '{tag}'"))
        }
    }

    fn prefix(&self) -> &'static str {
        "oracle."
    }

    /// A small representative batch (plans plus cells, one of them
    /// mid-flush). Fail cycles are fixed rather than planned: the
    /// self-test checks transport fidelity, not injection coverage.
    fn selftest_units(&self) -> Vec<UnitSpec> {
        let mut units = Vec::new();
        for (i, app) in registry::all().into_iter().take(3).enumerate() {
            units.push(plan_unit(app.name, 800, 1));
            let mid_flush = (i % 3 == 2).then_some(40);
            units.push(cell_unit(
                app.name,
                i,
                800,
                1,
                250 + 50 * i as u64,
                mid_flush,
            ));
        }
        units
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn cell_unit_reproduces_local_outcome() {
        let app = registry::by_name("mcf").expect("mcf is registered");
        let outcomes = oracle::run_app(&app, 800, 7, 3);
        // Run the plan unit, re-draw the points the coordinator would, and
        // check cell execution returns the same row the local path renders.
        let plan = plan_unit(app.name, 800, 7);
        let bytes = OracleKind
            .execute(&plan.tag, &plan.payload)
            .expect("plan executes");
        let total = ByteReader::new(&bytes).u64().expect("plan returns a total");
        let points = oracle::fail_points(app.name, total, 7, 3);
        assert_eq!(points.len(), outcomes.len());
        for (i, (o, &(fail_cycle, mid_flush))) in outcomes.iter().zip(&points).enumerate() {
            assert_eq!(fail_cycle, o.fail_cycle, "planner diverged from run_app");
            assert_eq!(
                mid_flush, o.mid_flush_interrupt,
                "planner diverged from run_app"
            );
            let unit = cell_unit(app.name, i, 800, 7, fail_cycle, mid_flush);
            let bytes = OracleKind
                .execute(&unit.tag, &unit.payload)
                .expect("cell executes");
            let mut r = ByteReader::new(&bytes);
            assert_eq!(r.u8().unwrap() != 0, o.passed());
            assert_eq!(r.u8().unwrap() != 0, oracle::exercised_recovery(o));
            assert_eq!(r.str().unwrap(), oracle::render_failure(o));
        }
    }

    #[test]
    fn unknown_tags_are_errors() {
        let plan = plan_unit("nosuchapp", 100, 1);
        assert!(OracleKind.execute(&plan.tag, &plan.payload).is_err());
        assert!(OracleKind.execute("repro.app:fig1/gcc", &[]).is_err());
        assert!(OracleKind.execute("oracle.cell:mcf#0", b"torn").is_err());
    }
}
