//! Grid integration: the `litmus.*` work-unit kind.
//!
//! One unit per litmus test — the (test × failure-point) cells stay local
//! to the unit, so the wire carries programs and summaries, not cells.
//! Results return in submission order and every [`TestRow`] field is a
//! deterministic function of (test, config), so `ppa-litmus run` stdout is
//! byte-identical at any jobs/worker/fault configuration.

use crate::generator::{LitmusOp, LitmusTest};
use crate::run::{run_test, RunConfig, TestRow};
use ppa_grid::coord::{UnitRunner, UnitSpec};
use ppa_grid::proto::{ByteReader, ByteWriter};
use ppa_grid::Executor;

fn op_code(op: LitmusOp) -> (u8, u8) {
    match op {
        LitmusOp::Store(w) => (0, w),
        LitmusOp::Clwb(w) => (1, w),
        LitmusOp::SFence => (2, 0),
        LitmusOp::Sync => (3, 0),
    }
}

fn op_decode(code: u8, w: u8) -> Result<LitmusOp, String> {
    Ok(match code {
        0 => LitmusOp::Store(w),
        1 => LitmusOp::Clwb(w),
        2 => LitmusOp::SFence,
        3 => LitmusOp::Sync,
        other => return Err(format!("unknown litmus opcode {other}")),
    })
}

/// Build the work unit for one litmus test. Runner faults are a local
/// self-test affair and are never shipped to the grid.
pub fn test_unit(idx: usize, test: &LitmusTest, cfg: &RunConfig) -> UnitSpec {
    assert!(
        cfg.fault.is_none(),
        "runner faults are local-only; the grid runs clean configurations"
    );
    let mut w = ByteWriter::new();
    w.put_u64(cfg.tear_stride);
    w.put_u32(test.cores.len() as u32);
    for ops in &test.cores {
        w.put_u32(ops.len() as u32);
        for &op in ops {
            let (code, word) = op_code(op);
            w.put_u8(code);
            w.put_u8(word);
        }
    }
    UnitSpec {
        tag: format!("litmus.test:{}#{idx}", test.name),
        payload: w.into_bytes(),
    }
}

fn encode_row(row: &TestRow) -> Vec<u8> {
    let mut w = ByteWriter::new();
    w.put_str(&row.name);
    w.put_u64(row.cells);
    w.put_u64(row.torn);
    w.put_u64(row.reached);
    w.put_u64(row.allowed);
    w.put_u64(row.unsound_cells);
    for list in [&row.unsound, &row.waived, &row.exercised] {
        w.put_u32(list.len() as u32);
        for s in list {
            w.put_str(s);
        }
    }
    w.into_bytes()
}

fn decode_row(payload: &[u8]) -> Result<TestRow, String> {
    let e = |e: ppa_grid::proto::ProtoError| e.to_string();
    let mut r = ByteReader::new(payload);
    let name = r.str().map_err(e)?;
    let cells = r.u64().map_err(e)?;
    let torn = r.u64().map_err(e)?;
    let reached = r.u64().map_err(e)?;
    let allowed = r.u64().map_err(e)?;
    let unsound_cells = r.u64().map_err(e)?;
    let mut lists: Vec<Vec<String>> = Vec::with_capacity(3);
    for _ in 0..3 {
        let n = r.u32().map_err(e)?;
        // No preallocation from the wire-supplied count: a corrupt length
        // field must fail at the per-element reads, not OOM first.
        let mut list = Vec::new();
        for _ in 0..n {
            list.push(r.str().map_err(e)?);
        }
        lists.push(list);
    }
    r.finish().map_err(e)?;
    let exercised = lists.pop().unwrap();
    let waived = lists.pop().unwrap();
    let unsound = lists.pop().unwrap();
    Ok(TestRow {
        name,
        cells,
        torn,
        reached,
        allowed,
        unsound_cells,
        unsound,
        waived,
        exercised,
    })
}

/// The `litmus.*` unit kind.
pub struct LitmusKind;

impl Executor for LitmusKind {
    fn execute(&self, tag: &str, payload: &[u8]) -> Result<Vec<u8>, String> {
        if !tag.starts_with("litmus.test:") {
            return Err(format!("unknown unit tag '{tag}'"));
        }
        let e = |e: ppa_grid::proto::ProtoError| e.to_string();
        let mut r = ByteReader::new(payload);
        let tear_stride = r.u64().map_err(e)?;
        let n_cores = r.u32().map_err(e)?;
        // Counts come off the wire unvalidated; push without
        // preallocating so a corrupt or truncated payload fails at the
        // per-element reads instead of requesting a multi-gigabyte
        // buffer up front.
        let mut cores = Vec::new();
        for _ in 0..n_cores {
            let n_ops = r.u32().map_err(e)?;
            let mut ops = Vec::new();
            for _ in 0..n_ops {
                let code = r.u8().map_err(e)?;
                let w = r.u8().map_err(e)?;
                ops.push(op_decode(code, w)?);
            }
            cores.push(ops);
        }
        r.finish().map_err(e)?;
        // Canonicalization is deterministic, so rebuilding from canonical
        // cores reproduces the exact test (and its name) the coordinator
        // shipped.
        let test = LitmusTest::from_cores(cores);
        let cfg = RunConfig {
            tear_stride,
            fault: None,
        };
        Ok(encode_row(&run_test(&test, &cfg)))
    }

    fn prefix(&self) -> &'static str {
        "litmus."
    }

    fn selftest_units(&self) -> Vec<UnitSpec> {
        let cfg = RunConfig::default();
        crate::generator::generate(&crate::generator::GenConfig { seed: 1, tests: 4 })
            .iter()
            .enumerate()
            .map(|(i, t)| test_unit(i, t, &cfg))
            .collect()
    }
}

/// Run a batch either on the attached grid or the local pool; row order is
/// submission order either way.
pub fn run_batch(
    tests: &[LitmusTest],
    cfg: &RunConfig,
    grid: Option<&dyn UnitRunner>,
) -> Result<Vec<TestRow>, String> {
    match grid {
        None => Ok(crate::run::run_batch_local(tests, cfg)),
        Some(runner) => {
            let units = tests
                .iter()
                .enumerate()
                .map(|(i, t)| test_unit(i, t, cfg))
                .collect();
            let mut rows = Vec::with_capacity(tests.len());
            for res in runner.run_units(units) {
                let outcome = res.map_err(|e| e.to_string())?;
                rows.push(decode_row(&outcome.payload)?);
            }
            Ok(rows)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn rows_round_trip_the_wire_encoding() {
        let row = TestRow {
            name: "lit[s0s1y.f]".into(),
            cells: 420,
            torn: 60,
            reached: 3,
            allowed: 4,
            unsound_cells: 2,
            unsound: vec!["cycle 9: bad".into()],
            waived: vec!["ppa-x: cycle 2".into()],
            exercised: vec!["ppa-prefix-strength".into()],
        };
        let decoded = decode_row(&encode_row(&row)).unwrap();
        assert_eq!(decoded, row);
    }

    #[test]
    fn grid_unit_reproduces_the_local_row() {
        let tests = crate::generator::generate(&crate::generator::GenConfig { seed: 3, tests: 2 });
        let cfg = RunConfig::default();
        for (i, t) in tests.iter().enumerate() {
            let unit = test_unit(i, t, &cfg);
            let payload = LitmusKind.execute(&unit.tag, &unit.payload).unwrap();
            let row = decode_row(&payload).unwrap();
            assert_eq!(row, run_test(t, &cfg));
        }
    }
}
