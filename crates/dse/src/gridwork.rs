//! Grid integration: the `dse.cell:` work-unit kind, the cell kernel,
//! and the local/grid evaluators the explorer runs on.
//!
//! One unit per (configuration × workload) cell. The tag embeds the
//! design point's identity and the workload name; the payload embeds
//! every field of the spec — so a unit is a pure function of its bytes,
//! the property the `ppa-serve` content-addressed cache keys on.
//! Results return in submission order, which keeps the frontier
//! byte-identical at any jobs/worker configuration.

use crate::explore::CellEval;
use crate::objectives::{CellResult, CellSpec};
use crate::space::DesignPoint;
use ppa_core::PersistenceMode;
use ppa_grid::coord::{UnitRunner, UnitSpec};
use ppa_grid::proto::{ByteReader, ByteWriter};
use ppa_grid::Executor;
use ppa_sim::Machine;

fn mode_code(mode: PersistenceMode) -> u8 {
    match mode {
        PersistenceMode::Baseline => 0,
        PersistenceMode::Ppa => 1,
        PersistenceMode::ReplayCache => 2,
        PersistenceMode::Capri => 3,
    }
}

fn mode_decode(code: u8) -> Result<PersistenceMode, String> {
    Ok(match code {
        0 => PersistenceMode::Baseline,
        1 => PersistenceMode::Ppa,
        2 => PersistenceMode::ReplayCache,
        3 => PersistenceMode::Capri,
        other => return Err(format!("unknown persistence mode code {other}")),
    })
}

/// Builds the work unit for one cell.
pub fn cell_unit(spec: &CellSpec) -> UnitSpec {
    let p = &spec.point;
    let mut w = ByteWriter::new();
    for v in [
        p.width, p.rob, p.iq, p.sq, p.lq, p.int_prf, p.fp_prf, p.csq, p.wpq,
    ] {
        w.put_u64(v as u64);
    }
    w.put_u64(p.region.unwrap_or(0));
    w.put_u8(mode_code(p.mode));
    w.put_str(&spec.app);
    w.put_u64(spec.base_len as u64);
    w.put_u64(spec.seed);
    UnitSpec {
        tag: format!("dse.cell:{}/{}", p.id(), spec.app),
        payload: w.into_bytes(),
    }
}

fn decode_spec(payload: &[u8]) -> Result<CellSpec, String> {
    let e = |e: ppa_grid::proto::ProtoError| e.to_string();
    let mut r = ByteReader::new(payload);
    let mut fields = [0u64; 9];
    for f in &mut fields {
        *f = r.u64().map_err(e)?;
    }
    let region = r.u64().map_err(e)?;
    let mode = mode_decode(r.u8().map_err(e)?)?;
    let app = r.str().map_err(e)?;
    let base_len = r.u64().map_err(e)? as usize;
    let seed = r.u64().map_err(e)?;
    r.finish().map_err(e)?;
    let [width, rob, iq, sq, lq, int_prf, fp_prf, csq, wpq] = fields.map(|v| v as usize);
    Ok(CellSpec {
        point: DesignPoint {
            width,
            rob,
            iq,
            sq,
            lq,
            int_prf,
            fp_prf,
            csq,
            region: if region == 0 { None } else { Some(region) },
            mode,
            wpq,
        },
        app,
        base_len,
        seed,
    })
}

fn encode_result(r: &CellResult) -> Vec<u8> {
    let mut w = ByteWriter::new();
    w.put_u64(r.base_cycles);
    w.put_u64(r.mode_cycles);
    w.put_u64(r.nvm_writes);
    w.put_u64(r.committed);
    w.into_bytes()
}

fn decode_result(payload: &[u8]) -> Result<CellResult, String> {
    let e = |e: ppa_grid::proto::ProtoError| e.to_string();
    let mut r = ByteReader::new(payload);
    let base_cycles = r.u64().map_err(e)?;
    let mode_cycles = r.u64().map_err(e)?;
    let nvm_writes = r.u64().map_err(e)?;
    let committed = r.u64().map_err(e)?;
    r.finish().map_err(e)?;
    Ok(CellResult {
        base_cycles,
        mode_cycles,
        nvm_writes,
        committed,
    })
}

/// The cell kernel: runs the scheme and its raw comparator on the same
/// traces and returns both measurements. Deterministic in the spec.
pub fn run_cell(spec: &CellSpec) -> Result<CellResult, String> {
    let app = ppa_workloads::registry::by_name(&spec.app)
        .ok_or_else(|| format!("unknown workload '{}'", spec.app))?;
    let id = spec.point.id();
    let sys = spec
        .point
        .system_config()
        .map_err(|e| format!("invalid design point {id}: {e}"))?;
    let raw = spec
        .point
        .baseline_system()
        .map_err(|e| format!("invalid raw comparator for {id}: {e}"))?;
    let len = ppa_bench::experiments::len_for_base(&app, spec.base_len);
    let b = Machine::new(raw).run_app_parallel(&app, len, spec.seed);
    let m = Machine::new(sys).run_app_parallel(&app, len, spec.seed);
    ppa_obs::registry::counter("dse.cells.executed").inc();
    Ok(CellResult {
        base_cycles: b.cycles,
        mode_cycles: m.cycles,
        nvm_writes: m.mem_stats.nvm.writes,
        committed: m.committed,
    })
}

/// The `dse.*` unit kind.
pub struct DseKind;

impl Executor for DseKind {
    fn execute(&self, tag: &str, payload: &[u8]) -> Result<Vec<u8>, String> {
        if !tag.starts_with("dse.cell:") {
            return Err(format!("unknown unit tag '{tag}'"));
        }
        Ok(encode_result(&run_cell(&decode_spec(payload)?)?))
    }

    fn prefix(&self) -> &'static str {
        "dse."
    }

    fn selftest_units(&self) -> Vec<UnitSpec> {
        let mut capri = DesignPoint::paper_default();
        capri.mode = PersistenceMode::Capri;
        [
            CellSpec {
                point: DesignPoint::paper_default(),
                app: "sjeng".into(),
                base_len: 1_200,
                seed: 1,
            },
            CellSpec {
                point: capri,
                app: "gobmk".into(),
                base_len: 1_200,
                seed: 1,
            },
        ]
        .iter()
        .map(cell_unit)
        .collect()
    }
}

/// Local evaluation: cells fan out across the shared pool (serial
/// unless `PPA_JOBS`/`--jobs` asks otherwise), results in input order.
pub struct LocalEval;

impl CellEval for LocalEval {
    fn eval(&self, cells: Vec<CellSpec>) -> Result<Vec<CellResult>, String> {
        ppa_pool::par_map_ordered(cells, |c| run_cell(&c))
            .into_iter()
            .collect()
    }
}

/// Grid evaluation: cells ship as `dse.cell:` units; results come back
/// in submission order (and, against a daemon, from its result cache
/// when already computed).
pub struct GridEval<'a>(pub &'a dyn UnitRunner);

impl CellEval for GridEval<'_> {
    fn eval(&self, cells: Vec<CellSpec>) -> Result<Vec<CellResult>, String> {
        let units: Vec<UnitSpec> = cells.iter().map(cell_unit).collect();
        let mut out = Vec::with_capacity(units.len());
        for res in self.0.run_units(units) {
            let outcome = res.map_err(|e| e.to_string())?;
            out.push(decode_result(&outcome.payload)?);
        }
        Ok(out)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn cell_round_trips_the_wire_encoding() {
        let mut point = DesignPoint::paper_default();
        point.mode = PersistenceMode::ReplayCache;
        point.region = Some(256);
        point.csq = 10;
        let spec = CellSpec {
            point,
            app: "bzip2".into(),
            base_len: 2_000,
            seed: 7,
        };
        let unit = cell_unit(&spec);
        assert!(unit.tag.starts_with("dse.cell:rc."));
        assert_eq!(decode_spec(&unit.payload).unwrap(), spec);

        let r = CellResult {
            base_cycles: 1,
            mode_cycles: 2,
            nvm_writes: 3,
            committed: 4,
        };
        assert_eq!(decode_result(&encode_result(&r)).unwrap(), r);
    }

    #[test]
    fn grid_unit_reproduces_the_local_cell() {
        for unit in DseKind.selftest_units() {
            let spec = decode_spec(&unit.payload).unwrap();
            let payload = DseKind.execute(&unit.tag, &unit.payload).unwrap();
            assert_eq!(decode_result(&payload).unwrap(), run_cell(&spec).unwrap());
        }
    }

    #[test]
    fn execute_rejects_foreign_tags_and_bad_payloads() {
        assert!(DseKind.execute("litmus.test:x", &[]).is_err());
        assert!(DseKind.execute("dse.cell:x/y", &[1, 2, 3]).is_err());
    }

    #[test]
    fn scheme_run_is_slower_than_its_raw_comparator() {
        let spec = CellSpec {
            point: DesignPoint::paper_default(),
            app: "sjeng".into(),
            base_len: 1_500,
            seed: 1,
        };
        let r = run_cell(&spec).unwrap();
        assert!(r.mode_cycles >= r.base_cycles);
        assert!(r.committed > 0);
        assert!(r.nvm_writes > 0);
    }
}
