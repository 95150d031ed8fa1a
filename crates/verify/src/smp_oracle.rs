//! The multi-core crash-consistency oracle (§6).
//!
//! Extends the single-core oracle ([`crate::oracle`]) to the shared-memory
//! machine: N cores running a shared-state DRF workload are power-failed
//! at a randomized cycle, the whole machine is JIT-checkpointed through
//! the controller FSM (optionally tearing the flush partway), recovered
//! from the deserialized stream, and diffed against the **union** of each
//! thread's independent golden in-order execution
//! ([`GoldenMemory::from_thread_prefixes`]) — which is only well-defined
//! because DRF single-writer discipline keeps the per-thread images
//! disjoint, the same property that lets §6 replay per-core CSQs in
//! arbitrary order.
//!
//! The machine-level validators themselves are validated by the arbiter
//! **mutation self-tests** ([`run_arbiter_mutations`]): each
//! [`ArbiterFault`] must be caught as a named violation while clean runs
//! stay silent.

use crate::golden::{GoldenMemory, GoldenMismatch};
use ppa_core::verify::{InvariantKind, Violation};
use ppa_core::{deserialize_images, flush, serialize_images};
use ppa_prng::Prng;
use ppa_sim::SystemConfig;
use ppa_smp::{ArbiterFault, SmpSystem};
use ppa_workloads::shared::{self, SharedApp};

/// Outcome of one randomized whole-machine power-failure injection.
#[derive(Debug)]
pub struct SmpOracleOutcome {
    /// Shared workload name.
    pub app: &'static str,
    /// Number of cores (= threads).
    pub cores: usize,
    /// Trace generation seed.
    pub seed: u64,
    /// Cycle at which power was cut.
    pub fail_cycle: u64,
    /// Micro-ops committed across all cores before the failure.
    pub committed: u64,
    /// Stores replayed from the checkpointed CSQs (all cores).
    pub replayed: usize,
    /// Drain certificates the persist arbiter had issued by the failure.
    pub drain_grants: usize,
    /// Controller cycles after which the checkpoint flush was interrupted
    /// by a second power loss; `None` for an uninterrupted flush.
    pub mid_flush_interrupt: Option<u64>,
    /// Words of the serialized machine checkpoint durable at the
    /// interruption.
    pub torn_words: u64,
    /// Whether the torn stream was rejected by deserialization (vacuously
    /// `true` for an uninterrupted flush).
    pub torn_prefix_rejected: bool,
    /// Whether the machine checkpoint round-tripped and recovery consumed
    /// the deserialized images, not the in-memory ones.
    pub stream_recovered: bool,
    /// Machine-level validator findings at the failure point (drain-log
    /// total order, persist-before-dependence, recovery-image coherence).
    pub validator_violations: Vec<Violation>,
    /// Golden-union disagreements remaining after recovery (must be
    /// empty).
    pub recovery_mismatches: Vec<GoldenMismatch>,
    /// Whether every recovered core re-ran its trace to completion.
    pub resumed_to_completion: bool,
    /// Golden full-run disagreements in the final NVM image (must be
    /// empty).
    pub final_mismatches: Vec<GoldenMismatch>,
}

impl SmpOracleOutcome {
    /// Whether this injection point passed every oracle check.
    pub fn passed(&self) -> bool {
        self.validator_violations.is_empty()
            && self.torn_prefix_rejected
            && self.stream_recovered
            && self.recovery_mismatches.is_empty()
            && self.resumed_to_completion
            && self.final_mismatches.is_empty()
    }
}

/// Runs one whole-machine failure injection: `cores` threads of `app` on
/// an [`SmpSystem`], power cut at `fail_cycle` (optionally `mid_flush`
/// controller cycles *into* the checkpoint flush), recovery, resume.
pub fn run_smp_point(
    app: &SharedApp,
    cores: usize,
    len: usize,
    seed: u64,
    fail_cycle: u64,
    mid_flush: Option<u64>,
) -> SmpOracleOutcome {
    let traces = app.generate_threads(len, seed, cores);
    let cfg = SystemConfig::ppa().with_threads(cores);
    let mut sys = SmpSystem::new(cfg, traces.clone());

    // Phase 1: normal execution until the lights go out, then run the
    // machine-level validators over the live state.
    sys.run_to(fail_cycle);
    let validator_violations = sys.validate();
    let drain_grants = sys.drain_log().len();

    // Phase 2: whole-machine JIT checkpoint through the controller FSM.
    // All cores flush in parallel inside the residual-energy window; the
    // serialized stream's completion marker lands last, so a torn prefix
    // is always detectable.
    let images = sys.jit_checkpoint();
    let stream = serialize_images(&images);
    let flushed = flush(&stream, mid_flush);
    sys.power_failure();

    // Phase 3: recovery from the deserialized stream, diffed against the
    // union of every thread's golden prefix execution.
    let recovered = deserialize_images(&stream).expect("a completed flush must deserialize");
    let stream_recovered = recovered == images;
    let committed_per_core: Vec<u64> = recovered.iter().map(|i| i.committed).collect();
    let committed = committed_per_core.iter().sum();
    let golden_prefix = GoldenMemory::from_thread_prefixes(&traces, &committed_per_core)
        .expect("shared workloads are single-writer per word");
    let replayed = sys.recover(&recovered);
    let recovery_mismatches = golden_prefix.diff_nvm(sys.mem().nvm_image());

    // Phase 4: resume every core and finish the program.
    let report = sys.run_in_place();
    let total_uops = (len * cores) as u64;
    let resumed_to_completion = report.committed == total_uops;
    let committed_full: Vec<u64> = traces.iter().map(|t| t.len() as u64).collect();
    let golden_full = GoldenMemory::from_thread_prefixes(&traces, &committed_full)
        .expect("shared workloads are single-writer per word");
    let final_mismatches = golden_full.diff_nvm(sys.mem().nvm_image());

    SmpOracleOutcome {
        app: app.name,
        cores,
        seed,
        fail_cycle,
        committed,
        replayed,
        drain_grants,
        mid_flush_interrupt: mid_flush,
        torn_words: flushed.torn_words,
        torn_prefix_rejected: flushed.torn_prefix_rejected,
        stream_recovered,
        validator_violations,
        recovery_mismatches,
        resumed_to_completion,
        final_mismatches,
    }
}

/// Runs `points` randomized whole-machine injections for one shared
/// workload. Failure cycles are drawn uniformly from the first ~80% of
/// the uninterrupted run; every third point also tears the checkpoint
/// flush partway through.
pub fn run_smp_app(
    app: &SharedApp,
    cores: usize,
    len: usize,
    seed: u64,
    points: usize,
) -> Vec<SmpOracleOutcome> {
    // Clean run to learn the machine's natural cycle count.
    let cfg = SystemConfig::ppa().with_threads(cores);
    let total_cycles = SmpSystem::new(cfg, app.generate_threads(len, seed, cores))
        .run()
        .cycles;

    // Draw every failure point up front so the RNG stream is identical at
    // any job count.
    let mut rng = Prng::seed_from_u64(seed ^ 0x53b9 ^ (app.name.len() as u64) << 8);
    let fail_points: Vec<(u64, Option<u64>)> = (0..points)
        .map(|i| {
            let fail_cycle = rng.random_range(10..total_cycles.saturating_mul(4) / 5);
            let interrupt = rng.random_range(0..240 * cores as u64);
            (fail_cycle, (i % 3 == 2).then_some(interrupt))
        })
        .collect();
    let app = *app;
    ppa_pool::par_map_ordered(fail_points, move |(fail_cycle, mid_flush)| {
        run_smp_point(&app, cores, len, seed, fail_cycle, mid_flush)
    })
}

/// Runs the whole-machine oracle across all shared workloads with
/// `points_per_app` injections each.
pub fn run_smp_suite(
    cores: usize,
    len: usize,
    seed: u64,
    points_per_app: usize,
) -> Vec<SmpOracleOutcome> {
    ppa_pool::par_map_ordered(shared::all(), move |app| {
        run_smp_app(&app, cores, len, seed, points_per_app)
    })
    .into_iter()
    .flatten()
    .collect()
}

/// Outcome of the exhaustive failure-point sweep for one shared workload
/// (`--fail-points all`): a single forward pass that examines **every
/// cycle** as a failure point — a [`SmpSystem::crash_cell`] (checkpoint
/// round-trip through the serialized stream, CSQ replay into a clone of
/// the live NVM image) and a golden-prefix diff — tearing the controller
/// flush on a strided subset of cells, plus a few full recover-and-resume
/// points sampled from the run for phase-4 coverage.
#[derive(Debug)]
pub struct SmpSweepOutcome {
    /// Shared workload name.
    pub app: &'static str,
    /// Number of cores (= threads).
    pub cores: usize,
    /// Trace generation seed.
    pub seed: u64,
    /// Failure points examined (one per cycle of the run).
    pub cells: u64,
    /// Cells that additionally ran the mid-flush tearing probe.
    pub torn_cells: u64,
    /// Torn prefixes recovery failed to reject (must be 0).
    pub torn_accepted: u64,
    /// Cells whose recovered image diverged from the golden prefix union
    /// (must be 0).
    pub mismatch_cells: u64,
    /// First failing cell, for diagnosis.
    pub first_failure: Option<String>,
    /// Sampled full recover-and-resume injections (phase 4 of
    /// [`run_smp_point`]).
    pub resume_points: Vec<SmpOracleOutcome>,
}

impl SmpSweepOutcome {
    /// Whether every cell and every sampled resume point passed.
    pub fn passed(&self) -> bool {
        self.torn_accepted == 0
            && self.mismatch_cells == 0
            && self.resume_points.iter().all(|o| o.passed())
    }
}

/// Runs the exhaustive failure-point sweep for one shared workload. One
/// forward execution; every cycle is a failure point. Deterministic in
/// (app, cores, len, seed) — the tearing stride and interrupts are
/// cell-derived, not drawn from an RNG.
pub fn run_smp_app_exhaustive(
    app: &SharedApp,
    cores: usize,
    len: usize,
    seed: u64,
) -> SmpSweepOutcome {
    let traces = app.generate_threads(len, seed, cores);
    let cfg = SystemConfig::ppa().with_threads(cores);
    let mut sys = SmpSystem::new(cfg, traces.clone());
    let total_uops = (len * cores) as u64;
    let limit = 1_000_000 + total_uops * 2_000;

    let mut cells = 0u64;
    let mut torn_cells = 0u64;
    let mut torn_accepted = 0u64;
    let mut mismatch_cells = 0u64;
    let mut first_failure: Option<String> = None;
    let fail = |slot: &mut Option<String>, count: &mut u64, msg: String| {
        *count += 1;
        slot.get_or_insert(msg);
    };

    loop {
        let cycle = sys.now();
        cells += 1;
        // Tearing probe every third cell, at a cell-derived interrupt.
        let cell = sys.crash_cell(cells.is_multiple_of(3).then_some(cells * 13));
        if let Some(torn) = cell.torn {
            torn_cells += 1;
            if !torn.torn_prefix_rejected {
                fail(
                    &mut first_failure,
                    &mut torn_accepted,
                    format!(
                        "cycle {cycle}: torn prefix ({} words) accepted",
                        torn.torn_words
                    ),
                );
            }
        }

        // Round-trip recovery against the golden prefix union.
        match cell.recovered {
            None => fail(
                &mut first_failure,
                &mut mismatch_cells,
                format!("cycle {cycle}: intact stream failed to deserialize"),
            ),
            Some((images, nvm)) => {
                let committed_per_core: Vec<u64> = images.iter().map(|i| i.committed).collect();
                let golden = GoldenMemory::from_thread_prefixes(&traces, &committed_per_core)
                    .expect("shared workloads are single-writer per word");
                let diffs = golden.diff_nvm(&nvm);
                if !diffs.is_empty() {
                    fail(
                        &mut first_failure,
                        &mut mismatch_cells,
                        format!(
                            "cycle {cycle}: {} golden mismatches, first {:?}",
                            diffs.len(),
                            diffs[0]
                        ),
                    );
                }
            }
        }

        if sys.is_finished() {
            break;
        }
        assert!(cycle < limit, "{} wedged the machine", app.name);
        sys.step();
    }

    // Phase-4 coverage: a few full recover-and-resume injections sampled
    // across the run (one of them tearing the flush mid-stream).
    let end = sys.now().max(5);
    let resume_points = (1..=4u64)
        .map(|i| {
            let fail_cycle = (end * i / 5).max(1);
            let mid_flush = (i == 3).then_some(40);
            run_smp_point(app, cores, len, seed, fail_cycle, mid_flush)
        })
        .collect();

    SmpSweepOutcome {
        app: app.name,
        cores,
        seed,
        cells,
        torn_cells,
        torn_accepted,
        mismatch_cells,
        first_failure,
        resume_points,
    }
}

/// Runs the exhaustive sweep across all shared workloads.
pub fn run_smp_suite_exhaustive(cores: usize, len: usize, seed: u64) -> Vec<SmpSweepOutcome> {
    ppa_pool::par_map_ordered(shared::all(), move |app| {
        run_smp_app_exhaustive(&app, cores, len, seed)
    })
}

/// One arbiter mutation self-test: the machine ran with `fault` injected,
/// and the validators reported `violations`.
#[derive(Debug)]
pub struct SmpMutationReport {
    /// The deliberately injected arbiter defect.
    pub fault: ArbiterFault,
    /// The invariant the defect is designed to break.
    pub expected: InvariantKind,
    /// Validator findings on the faulted machine.
    pub violations: Vec<Violation>,
}

impl SmpMutationReport {
    /// Whether the expected invariant fired.
    pub fn detected(&self) -> bool {
        self.violations.iter().any(|v| v.kind == self.expected)
    }

    /// The distinct invariant kinds that fired.
    pub fn fired_kinds(&self) -> Vec<InvariantKind> {
        crate::mutation::distinct_kinds(&self.violations)
    }
}

/// Runs every [`ArbiterFault`] through the multi-core machine and reports
/// what the validators caught. A correct checker detects all four — and
/// stays silent on the clean run the oracle sweep exercises.
pub fn run_arbiter_mutations(len: usize, seed: u64) -> Vec<SmpMutationReport> {
    let cases = [
        (
            ArbiterFault::UnorderedGrants,
            InvariantKind::CrossCoreDrainOrder,
        ),
        (
            ArbiterFault::PhantomGrant,
            InvariantKind::PersistBeforeDependence,
        ),
        (
            ArbiterFault::DuplicateImageEntry,
            InvariantKind::RecoveryImageOverlap,
        ),
        (ArbiterFault::BiasedPort, InvariantKind::ArbiterUnfair),
    ];
    ppa_pool::par_map_ordered(cases.to_vec(), move |(fault, expected)| {
        // Two cores suffice for an image overlap; the ordering faults need
        // enough cores for the round-robin to matter; the biased port only
        // shows once enough cores contend for the grant slot at the same
        // time, which the barrier workload's sync storms guarantee.
        let (app_name, cores) = match fault {
            ArbiterFault::DuplicateImageEntry => ("counters", 2),
            ArbiterFault::BiasedPort => ("barrier", 8),
            _ => ("counters", 4),
        };
        let app = shared::by_name(app_name).expect("shared workload is registered");
        let cfg = SystemConfig::ppa().with_threads(cores);
        let mut sys = SmpSystem::new(cfg, app.generate_threads(len, seed, cores));
        sys.inject_arbiter_fault(fault);
        let violations = if fault == ArbiterFault::DuplicateImageEntry {
            // The duplicated entry only lands when core 0's CSQ is
            // non-empty, so probe checkpoints until one is corrupt.
            let mut found = Vec::new();
            let limit = 1_000 + (len as u64) * 40;
            for cycle in (100..limit).step_by(100) {
                sys.run_to(cycle);
                found = sys.validate();
                if !found.is_empty() || sys.is_finished() {
                    break;
                }
            }
            found
        } else {
            while !sys.is_finished() {
                sys.step();
            }
            sys.validate()
        };
        SmpMutationReport {
            fault,
            expected,
            violations,
        }
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn one_smp_point_recovers_against_the_golden_union() {
        let app = shared::by_name("counters").unwrap();
        let o = run_smp_point(&app, 2, 600, 1, 1_500, None);
        assert!(
            o.passed(),
            "fail_cycle={} validators={:?} recovery={:?} final={:?} resumed={}",
            o.fail_cycle,
            o.validator_violations,
            o.recovery_mismatches,
            o.final_mismatches,
            o.resumed_to_completion
        );
    }

    #[test]
    fn mid_flush_point_rejects_the_torn_machine_stream() {
        let app = shared::by_name("barrier").unwrap();
        for interrupt in [0, 3, 25, 400] {
            let o = run_smp_point(&app, 2, 600, 1, 1_200, Some(interrupt));
            assert!(o.torn_prefix_rejected, "interrupt={interrupt}");
            assert!(o.stream_recovered, "interrupt={interrupt}");
            assert!(o.passed(), "interrupt={interrupt}");
        }
    }

    #[test]
    fn every_arbiter_mutation_is_detected() {
        let reports = run_arbiter_mutations(1_500, 1);
        assert_eq!(reports.len(), 4);
        for report in reports {
            assert!(
                report.detected(),
                "{:?} not detected; fired: {:?}",
                report.fault,
                report.fired_kinds()
            );
            let kinds = report.fired_kinds();
            for (i, k) in kinds.iter().enumerate() {
                assert!(
                    !kinds[i + 1..].contains(k),
                    "{:?} names {k:?} twice",
                    report.fault
                );
            }
        }
    }
}
