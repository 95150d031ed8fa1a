//! Grid integration for the benchmark harness: partitions experiments
//! into serializable work units and routes them through an installed
//! `ppa-grid` coordinator.
//!
//! Decomposable experiments (those with a cell kernel in
//! [`crate::experiments::app_cells`]) ship one unit per application,
//! tagged `repro.app:{exp}/{app}`; everything else ships as a single
//! whole-experiment unit tagged `repro.exp:{id}`. Tags embed the unit's
//! identity so a coordinator that exhausts its retries can name the
//! failing application. Cell results travel as `f64` bit patterns and
//! whole experiments as their rendered UTF-8 table, which keeps grid
//! output byte-identical to a local run.

use crate::experiments::{self, AppCell};
use ppa_grid::coord::UnitSpec;
use ppa_grid::proto::{ByteReader, ByteWriter};
use ppa_grid::Executor;
use ppa_serve::GridHandle;
use ppa_workloads::{registry, AppDescriptor};
use std::sync::OnceLock;

static GRID: OnceLock<GridHandle> = OnceLock::new();

/// Installs the process-wide grid handle; experiments dispatch through
/// it from then on. Panics if a grid is already installed.
pub fn install(handle: GridHandle) {
    if GRID.set(handle).is_err() {
        panic!("a grid handle is already installed for this process");
    }
}

/// The installed grid handle, if any.
pub fn active() -> Option<&'static GridHandle> {
    GRID.get()
}

fn cell_for(exp: &str) -> Option<AppCell> {
    experiments::app_cells()
        .into_iter()
        .find(|(id, _, _)| *id == exp)
        .map(|(_, _, cell)| cell)
}

fn decomposable(exp: &str) -> bool {
    cell_for(exp).is_some()
}

fn app_unit(exp: &str, app: &AppDescriptor, base_len: usize) -> UnitSpec {
    let mut w = ByteWriter::new();
    w.put_str(exp);
    w.put_str(app.name);
    w.put_u64(base_len as u64);
    UnitSpec {
        tag: format!("repro.app:{exp}/{}", app.name),
        payload: w.into_bytes(),
    }
}

fn exp_unit(exp: &str, base_len: usize) -> UnitSpec {
    let mut w = ByteWriter::new();
    w.put_str(exp);
    w.put_u64(base_len as u64);
    UnitSpec {
        tag: format!("repro.exp:{exp}"),
        payload: w.into_bytes(),
    }
}

fn encode_row(values: &[f64]) -> Vec<u8> {
    let mut w = ByteWriter::new();
    w.put_u32(values.len() as u32);
    for &v in values {
        w.put_f64(v);
    }
    w.into_bytes()
}

fn decode_row(payload: &[u8]) -> Result<Vec<f64>, String> {
    let mut r = ByteReader::new(payload);
    let n = r.u32().map_err(|e| e.to_string())?;
    let mut out = Vec::with_capacity(n as usize);
    for _ in 0..n {
        out.push(r.f64().map_err(|e| e.to_string())?);
    }
    r.finish().map_err(|e| e.to_string())?;
    Ok(out)
}

/// Evaluates `cell` for every application of `exp`, through the grid
/// when one is installed and via the local pool otherwise. Rows come
/// back in `apps` order either way, so rendered tables are
/// byte-identical across grid configurations.
pub(crate) fn app_rows(
    exp: &str,
    apps: Vec<AppDescriptor>,
    cell: AppCell,
) -> Vec<(AppDescriptor, Vec<f64>)> {
    let base = crate::experiment_len();
    let Some(grid) = active() else {
        return ppa_pool::par_map_ordered(apps, move |app| {
            let v = cell(&app, base);
            (app, v)
        });
    };
    let units = apps.iter().map(|app| app_unit(exp, app, base)).collect();
    let results = grid.runner().run_units(units);
    apps.into_iter()
        .zip(results)
        .map(|(app, res)| match res {
            Ok(outcome) => {
                let row = decode_row(&outcome.payload).unwrap_or_else(|e| {
                    panic!("grid: bad result payload for {exp}/{}: {e}", app.name)
                });
                (app, row)
            }
            Err(e) => panic!("grid: app cell {exp}/{} failed: {e}", app.name),
        })
        .collect()
}

/// Renders one experiment: locally when no grid is installed or the
/// experiment decomposes (its per-app cells already went through
/// [`app_rows`]), and as a single remote unit otherwise.
pub fn render_experiment(id: &str, f: crate::experiments::Experiment) -> String {
    let Some(grid) = active() else {
        return f().to_string();
    };
    if decomposable(id) {
        // The table shell renders locally; each row is a grid unit.
        return f().to_string();
    }
    let unit = exp_unit(id, crate::experiment_len());
    let mut results = grid.runner().run_units(vec![unit]);
    match results.remove(0) {
        Ok(outcome) => String::from_utf8(outcome.payload)
            .unwrap_or_else(|_| panic!("grid: non-UTF-8 table for experiment {id}")),
        Err(e) => panic!("grid: experiment {id} failed: {e}"),
    }
}

/// Builds the per-app unit list for a decomposable experiment at an
/// explicit base length, or `None` when `exp` only ships whole.
/// `ppa-grid selftest` uses this to generate representative transport
/// traffic without rendering tables.
pub fn units_for(exp: &str, base_len: usize) -> Option<Vec<UnitSpec>> {
    experiments::app_cells()
        .into_iter()
        .find(|(id, _, _)| *id == exp)
        .map(|(_, apps, _)| {
            apps()
                .iter()
                .map(|app| app_unit(exp, app, base_len))
                .collect()
        })
}

/// Worker-side dispatcher for `repro.*` unit tags.
pub fn execute(tag: &str, payload: &[u8]) -> Result<Vec<u8>, String> {
    if let Some(rest) = tag.strip_prefix("repro.app:") {
        let mut r = ByteReader::new(payload);
        let exp = r.str().map_err(|e| e.to_string())?;
        let app_name = r.str().map_err(|e| e.to_string())?;
        let base_len = r.u64().map_err(|e| e.to_string())? as usize;
        r.finish().map_err(|e| e.to_string())?;
        let cell =
            cell_for(&exp).ok_or_else(|| format!("unknown decomposable experiment '{exp}'"))?;
        let app = registry::by_name(&app_name)
            .ok_or_else(|| format!("unknown application '{app_name}' in unit '{rest}'"))?;
        Ok(encode_row(&cell(&app, base_len)))
    } else if let Some(exp) = tag.strip_prefix("repro.exp:") {
        let mut r = ByteReader::new(payload);
        let payload_exp = r.str().map_err(|e| e.to_string())?;
        let base_len = r.u64().map_err(|e| e.to_string())? as usize;
        r.finish().map_err(|e| e.to_string())?;
        if payload_exp != exp {
            return Err(format!(
                "tag names experiment '{exp}' but payload names '{payload_exp}'"
            ));
        }
        crate::set_experiment_len_override(base_len);
        let f = experiments::all_experiments()
            .into_iter()
            .find(|(id, _)| *id == exp)
            .map(|(_, f)| f)
            .ok_or_else(|| format!("unknown experiment '{exp}'"))?;
        Ok(f().to_string().into_bytes())
    } else {
        Err(format!("unknown unit tag '{tag}'"))
    }
}

/// The `repro.*` unit kind.
pub struct BenchExecutor;

impl Executor for BenchExecutor {
    fn execute(&self, tag: &str, payload: &[u8]) -> Result<Vec<u8>, String> {
        execute(tag, payload)
    }

    fn prefix(&self) -> &'static str {
        "repro."
    }

    /// Every fig11 app cell (one per workload), at a trace length that
    /// keeps the self-test in the seconds range.
    fn selftest_units(&self) -> Vec<UnitSpec> {
        units_for("fig11", 4_000).expect("fig11 decomposes")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn row_payload_round_trips() {
        let vals = [1.0, -0.0, f64::MAX, 1.0 / 3.0];
        assert_eq!(decode_row(&encode_row(&vals)).unwrap(), vals);
    }

    #[test]
    fn app_unit_executes_to_same_row_as_direct_call() {
        let app = registry::by_name("gcc").expect("gcc is registered");
        let cell = cell_for("fig1").expect("fig1 decomposes");
        let unit = app_unit("fig1", &app, 4_000);
        assert_eq!(unit.tag, "repro.app:fig1/gcc");
        let remote = execute(&unit.tag, &unit.payload).expect("unit executes");
        assert_eq!(decode_row(&remote).unwrap(), cell(&app, 4_000));
    }

    #[test]
    fn exp_unit_tag_payload_mismatch_is_an_error() {
        let unit = exp_unit("table1", 4_000);
        let err = execute("repro.exp:table2", &unit.payload).unwrap_err();
        assert!(err.contains("table1") && err.contains("table2"), "{err}");
    }

    #[test]
    fn unknown_tags_are_errors_not_panics() {
        let payload_for = |exp: &str, app: &str| {
            let mut w = ByteWriter::new();
            w.put_str(exp);
            w.put_str(app);
            w.put_u64(100);
            w.into_bytes()
        };
        assert!(execute("oracle.cell:x", &[]).is_err());
        assert!(execute(
            "repro.app:fig1/nosuchapp",
            &payload_for("fig1", "nosuchapp")
        )
        .is_err());
        assert!(execute("repro.app:zzz/gcc", &payload_for("zzz", "gcc")).is_err());
        assert!(execute("repro.app:fig1/gcc", b"torn").is_err());
    }
}
