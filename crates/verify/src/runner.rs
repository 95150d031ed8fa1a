//! Drives workloads through the core with cycle-level validators
//! attached.
//!
//! This is the harness behind `ppa-verify check`: for every workload it
//! builds a PPA-mode core (one per thread for the parallel suites),
//! attaches [`ppa_core::verify::default_validators`], and steps the
//! machine to completion, collecting every [`Violation`] the checks
//! report. A correct pipeline produces none on all 41 workloads.

use ppa_core::verify::Violation;
use ppa_core::{Core, CoreConfig, Lockstep, PersistenceMode};
use ppa_isa::Trace;
use ppa_mem::{MemConfig, MemorySystem};
use ppa_workloads::{registry, AppDescriptor};

/// Result of checking one workload.
#[derive(Debug)]
pub struct CheckReport {
    /// Workload name.
    pub app: &'static str,
    /// Threads (cores) simulated.
    pub threads: usize,
    /// Total cycles until every core finished.
    pub cycles: u64,
    /// Violations reported by the attached validators, across all cores.
    pub violations: Vec<Violation>,
    /// Whether every core drained within the [`Lockstep`] deadlock bound.
    /// A `false` here is itself a failure (pipeline deadlock).
    pub finished: bool,
}

impl CheckReport {
    /// Whether the workload ran to completion with zero violations.
    pub fn is_clean(&self) -> bool {
        self.finished && self.violations.is_empty()
    }
}

/// Runs one workload in `PersistenceMode::Ppa` with the default
/// validator suite attached to every core.
pub fn check_app(app: &AppDescriptor, len: usize, seed: u64) -> CheckReport {
    let traces: Vec<Trace> = (0..app.threads)
        .map(|tid| app.generate_thread(len, seed, tid))
        .collect();
    let mut mem = MemorySystem::new(MemConfig::memory_mode(), app.threads);
    let cfg = CoreConfig::paper_default(PersistenceMode::Ppa);
    let mut cores: Vec<Core> = (0..app.threads)
        .map(|id| {
            let mut c = Core::new(cfg, id);
            c.attach_default_validators();
            c
        })
        .collect();
    let mut machine = Lockstep::new(&mut cores, &traces, &mut mem);
    let finished = machine.run();
    let cycles = machine.now();
    record_check_metrics(&cores, cycles);
    let violations: Vec<Violation> = cores.iter_mut().flat_map(Core::take_violations).collect();
    ppa_obs::registry::counter("verify.check.violations").add(violations.len() as u64);
    CheckReport {
        app: app.name,
        threads: app.threads,
        cycles,
        violations,
        finished,
    }
}

/// Lifts the cores' validator [`ppa_core::prof::Timing`]s into
/// `verify.check.*` metrics: cycles scanned per validator, wall time per
/// validator, and run totals. perfbench's `crash` workload reads the
/// per-validator time as its `verify.validator.*` layers. The timings
/// are mirrored into the cycle-attribution family (`prof.validator.*`)
/// so validator cost shows up in `ppa_obs::prof::collapsed_stacks`
/// alongside the pipeline stages.
fn record_check_metrics(cores: &[Core], cycles: u64) {
    ppa_obs::registry::counter("verify.check.apps").inc();
    ppa_obs::registry::counter("verify.check.cycles_scanned").add(cycles);
    for prefix in ["verify.check.validator", "prof.validator"] {
        let timings = cores.iter().flat_map(Core::validator_timings);
        for (name, value) in ppa_core::prof::counters(prefix, timings) {
            ppa_obs::registry::counter(&name).add(value);
        }
    }
}

/// Runs [`check_app`] over all 41 workloads of the evaluation, fanned
/// out across the shared [`ppa_pool`] worker pool (serial unless
/// `PPA_JOBS`/`--jobs` asks for more). Reports come back in registry
/// order regardless of job count.
pub fn check_all(len: usize, seed: u64) -> Vec<CheckReport> {
    ppa_pool::par_map_ordered(registry::all(), move |app| check_app(&app, len, seed))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn single_threaded_app_is_clean() {
        let app = registry::by_name("mcf").expect("mcf exists");
        let report = check_app(&app, 1_500, 7);
        assert!(report.finished, "mcf must drain");
        assert_eq!(report.violations, vec![], "mcf must run violation-free");
    }

    #[test]
    fn parallel_app_is_clean_on_every_core() {
        let app = registry::multi_threaded()
            .into_iter()
            .next()
            .expect("parallel suites exist");
        let report = check_app(&app, 600, 11);
        assert!(report.finished);
        assert_eq!(report.violations, vec![]);
        assert!(report.threads > 1);
    }
}
