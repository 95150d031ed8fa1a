//! Conformance runner: every litmus test × every failure point, on the real
//! machine.
//!
//! One [`SmpSystem::sweep`] per test takes a crash cell
//! ([`SmpSystem::crash_cell`]) at every cycle: the JIT checkpoint,
//! round-tripped through the serialized word stream, with the recovered
//! CSQs replayed into a clone of the live NVM image (power failure never
//! touches NVM, so the clone *is* the post-crash image). The runner judges
//! the resulting memory state against the axiomatic model. A strided
//! subset of cells additionally tears the checkpoint flush mid-stream and
//! requires recovery to reject the torn prefix. After the run the
//! whole-machine validators (`SmpSystem::validate`) get the final word —
//! an arbiter that mis-orders grants is machine-unsound even if every
//! reachable state happens to be model-allowed.

use crate::generator::{word_addr, LitmusTest};
use crate::model::allowed_states;
use crate::{waivers, DivergenceKind, UnsoundClass};
use ppa_sim::SystemConfig;
use ppa_smp::{ArbiterFault, SmpSystem};
use std::collections::BTreeSet;

/// Runner-side fault injections for the mutation self-tests.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RunnerFault {
    /// Inject an arbiter fault into the machine under test.
    Arbiter(ArbiterFault),
    /// Drop the first CSQ entry of core 0's recovered image before replay —
    /// models a recovery controller that loses a committed store. Dropping
    /// the *first* entry matters: it forges a non-prefix state (an early
    /// sealed store lost while a later store survives), which the model
    /// forbids; dropping the last entry would merely rewind one word to an
    /// earlier value the model allows at an earlier crash cut.
    DropReplayEntry,
}

/// Conformance-run configuration.
#[derive(Debug, Clone, Copy)]
pub struct RunConfig {
    /// Tear the checkpoint flush on every `tear_stride`-th cycle.
    pub tear_stride: u64,
    /// Optional fault injection (self-tests only; never shipped to grid).
    pub fault: Option<RunnerFault>,
}

impl Default for RunConfig {
    fn default() -> Self {
        RunConfig {
            tear_stride: 7,
            fault: None,
        }
    }
}

/// Per-test conformance result. All fields are deterministic functions of
/// (test, config), so rows survive grid round-trips byte-identically.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TestRow {
    pub name: String,
    /// Failure points examined (one per cycle, plus the final state).
    pub cells: u64,
    /// Cells that additionally ran the mid-flush tearing probe.
    pub torn: u64,
    /// Distinct post-crash states the machine exposed.
    pub reached: u64,
    /// States the axiomatic model allows.
    pub allowed: u64,
    /// Unwaived machine-unsound cells/violations (count; details capped).
    pub unsound_cells: u64,
    /// Capped human-readable unsound details.
    pub unsound: Vec<String>,
    /// Waived divergences, rendered as `waiver-name: detail`.
    pub waived: Vec<String>,
    /// Waiver names this test exercised.
    pub exercised: Vec<String>,
}

impl TestRow {
    pub fn passed(&self) -> bool {
        self.unsound_cells == 0
    }
}

const MAX_UNSOUND_DETAILS: usize = 4;

fn render_state(state: &[u64]) -> String {
    let cells: Vec<String> = state
        .iter()
        .enumerate()
        .map(|(w, v)| format!("w{w}={v:#x}"))
        .collect();
    format!("({})", cells.join(","))
}

/// Run one litmus test across exhaustive failure points.
pub fn run_test(test: &LitmusTest, cfg: &RunConfig) -> TestRow {
    let model = allowed_states(test);
    let (traces, _) = test.traces();
    let n_cores = traces.len();
    let sys_cfg = SystemConfig::ppa().with_threads(n_cores);
    let mut sys = SmpSystem::new(sys_cfg, traces);
    if let Some(RunnerFault::Arbiter(f)) = cfg.fault {
        sys.inject_arbiter_fault(f);
    }

    let mut reached: BTreeSet<Vec<u64>> = BTreeSet::new();
    // Unsound details carry their failure class so waivers can be scoped:
    // a waiver for one class never masks the others. Details are capped
    // per class; counts are exact.
    let mut raw_unsound: Vec<(UnsoundClass, String)> = Vec::new();
    let mut class_counts = [0u64; UnsoundClass::ALL.len()];
    let mut torn = 0u64;

    let mut record = |class: UnsoundClass, msg: String| {
        class_counts[class as usize] += 1;
        if raw_unsound.iter().filter(|(c, _)| *c == class).count() < MAX_UNSOUND_DETAILS {
            raw_unsound.push((class, msg));
        }
    };

    // Mid-flush tearing probe on a strided subset of cells: interrupt the
    // controller FSM at a cell-dependent word count and require the torn
    // prefix to be rejected (the completion marker lands last).
    let stride = cfg.tear_stride;
    let tear = |cycle: u64| cycle.is_multiple_of(stride).then_some(cycle / stride);
    let cells = sys.sweep(tear, |sys, cycle, cell| {
        if let Some(f) = cell.torn {
            torn += 1;
            if !f.torn_prefix_rejected {
                record(
                    UnsoundClass::TornPrefix,
                    format!(
                        "cycle {cycle}: torn checkpoint prefix ({}/{} words) accepted",
                        f.torn_words, cell.words
                    ),
                );
            }
        }

        // Full round-trip recovery into a clone of the live NVM image.
        match cell.recovered {
            None => record(
                UnsoundClass::Recovery,
                format!("cycle {cycle}: intact checkpoint stream failed to deserialize"),
            ),
            Some((mut images, mut nvm)) => {
                if cfg.fault == Some(RunnerFault::DropReplayEntry) && !images[0].csq.is_empty() {
                    images[0].csq.remove(0);
                    nvm = sys.replayed_nvm(&images);
                }
                let state: Vec<u64> = (0..model.words)
                    .map(|w| nvm.read(word_addr(w)).unwrap_or(0))
                    .collect();
                // Only model-admitted states count toward coverage:
                // `reached` must stay a subset of `allowed` so coverage
                // can never exceed 100% on a failing run. Inadmissible
                // states are reported as unsound instead.
                if model.admits(&state) {
                    reached.insert(state);
                } else {
                    record(
                        UnsoundClass::ModelState,
                        format!(
                            "cycle {cycle}: reachable state {} is outside the model",
                            render_state(&state)
                        ),
                    );
                }
            }
        }
    });

    // Whole-machine validators get the final word.
    for v in sys.validate() {
        record(UnsoundClass::Validator, format!("validator: {v}"));
    }

    // Apply the waiver table. Machine-unsound waivers are scoped per
    // failure class: a waiver covering (test, class) excuses only that
    // class's details, so a documented torn-prefix bug can never mask a
    // model-state violation or validator finding on the same test. The
    // model-incomplete waiver is exercised by a coverage gap instead.
    let mut unsound = Vec::new();
    let mut waived = Vec::new();
    let mut exercised = Vec::new();
    let mut unsound_cells = 0u64;
    for class in UnsoundClass::ALL {
        if class_counts[class as usize] == 0 {
            continue;
        }
        match waivers().iter().find(|w| w.covers(&test.name, class)) {
            Some(w) => {
                if !exercised.iter().any(|e| e == w.name) {
                    exercised.push(w.name.to_string());
                }
            }
            None => unsound_cells += class_counts[class as usize],
        }
    }
    for (class, detail) in raw_unsound {
        match waivers().iter().find(|w| w.covers(&test.name, class)) {
            Some(w) => waived.push(format!("{}: {detail}", w.name)),
            None => unsound.push(detail),
        }
    }
    let allowed = model.count();
    if (reached.len() as u64) < allowed {
        for w in waivers() {
            if w.kind == DivergenceKind::ModelIncomplete && w.applies_to(&test.name) {
                exercised.push(w.name.to_string());
            }
        }
    }

    TestRow {
        name: test.name.clone(),
        cells,
        torn,
        reached: reached.len() as u64,
        allowed,
        unsound_cells,
        unsound,
        waived,
        exercised,
    }
}

/// Run a batch on the local pool (ordered, so output is deterministic).
pub fn run_batch_local(tests: &[LitmusTest], cfg: &RunConfig) -> Vec<TestRow> {
    let cfg = *cfg;
    ppa_pool::par_map_ordered(tests.to_vec(), move |t| run_test(&t, &cfg))
}

/// Aggregate counters for a batch.
#[derive(Debug, Default, Clone, Copy)]
pub struct BatchTotals {
    pub tests: u64,
    pub cells: u64,
    pub torn: u64,
    pub reached: u64,
    pub allowed: u64,
    pub unsound: u64,
    pub waived: u64,
}

impl BatchTotals {
    pub fn from_rows(rows: &[TestRow]) -> Self {
        let mut t = BatchTotals {
            tests: rows.len() as u64,
            ..Default::default()
        };
        for r in rows {
            t.cells += r.cells;
            t.torn += r.torn;
            t.reached += r.reached;
            t.allowed = t.allowed.saturating_add(r.allowed);
            t.unsound += r.unsound_cells;
            t.waived += r.waived.len() as u64;
        }
        t
    }

    pub fn coverage(&self) -> f64 {
        if self.allowed == 0 {
            100.0
        } else {
            self.reached as f64 / self.allowed as f64 * 100.0
        }
    }
}

/// Render the batch report (stdout-stable: byte-identical at any jobs /
/// worker / fault configuration).
pub fn render_batch(rows: &[TestRow], tests: usize, seed: u64, cfg: &RunConfig) -> String {
    let mut out = String::new();
    out.push_str(&format!(
        "== litmus: conformance, {tests} tests, seed={seed}, exhaustive fail points (tear stride {})\n",
        cfg.tear_stride
    ));
    for r in rows {
        let status = if r.passed() { "ok  " } else { "FAIL" };
        out.push_str(&format!(
            "  {status} {:<44} cells={:<6} torn={:<5} reached={}/{}\n",
            r.name, r.cells, r.torn, r.reached, r.allowed
        ));
        for d in &r.unsound {
            out.push_str(&format!("       unsound: {d}\n"));
        }
        if r.unsound_cells as usize > r.unsound.len() {
            out.push_str(&format!(
                "       ... and {} more unsound cells\n",
                r.unsound_cells as usize - r.unsound.len()
            ));
        }
        for d in &r.waived {
            out.push_str(&format!("       waived: {d}\n"));
        }
    }
    let t = BatchTotals::from_rows(rows);
    out.push_str(&format!(
        "  summary: tests={} cells={} torn={} reached={} allowed={} coverage={:.1}% machine-unsound={} waived={}\n",
        t.tests,
        t.cells,
        t.torn,
        t.reached,
        t.allowed,
        t.coverage(),
        t.unsound,
        t.waived
    ));
    for w in waivers() {
        let hits = rows
            .iter()
            .filter(|r| r.exercised.iter().any(|e| e == w.name))
            .count();
        out.push_str(&format!(
            "  waivers: {} ({}): exercised by {hits}/{} tests\n",
            w.name,
            w.kind.label(),
            rows.len()
        ));
    }
    out
}

/// Publish `litmus.*` metrics for a batch (stderr/file surfaces only).
pub fn publish_metrics(rows: &[TestRow]) {
    use ppa_obs::registry;
    let t = BatchTotals::from_rows(rows);
    registry::counter("litmus.tests").set(t.tests);
    registry::counter("litmus.cells").set(t.cells);
    registry::counter("litmus.cells.torn").set(t.torn);
    registry::counter("litmus.states.reached").set(t.reached);
    registry::counter("litmus.states.allowed").set(t.allowed);
    registry::counter("litmus.unsound").set(t.unsound);
    registry::counter("litmus.waived").set(t.waived);
    registry::gauge("litmus.coverage").set(t.coverage());
}
