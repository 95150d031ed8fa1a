use crate::presets::SystemConfig;
use ppa_core::{Core, Lockstep, PersistenceMode};
use ppa_isa::Trace;
use ppa_mem::MemorySystem;

/// Outcome of one injected power failure plus recovery.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FailureOutcome {
    /// Cycle at which power was cut.
    pub fail_cycle: u64,
    /// Micro-ops committed before the failure (across all cores).
    pub committed_before: u64,
    /// Whether the raw NVM image already matched architectural memory at
    /// the failure point (usually not — that is the crash inconsistency).
    pub consistent_before_recovery: bool,
    /// Stores replayed from the checkpointed CSQs.
    pub replayed_stores: usize,
    /// Bytes the JIT checkpoint moved to NVM (summed over cores).
    pub checkpoint_bytes: u64,
    /// Controller cycles the checkpoint flush consumed (including a
    /// mid-flush interruption, if any).
    pub flush_cycles: u64,
    /// Words of the serialized stream durable at the mid-flush
    /// interruption (zero for an uninterrupted flush).
    pub torn_words: u64,
    /// Whether the torn prefix was rejected by deserialization — a torn
    /// image accepted as complete would be a silent-corruption recovery.
    /// Vacuously `true` when the flush was not interrupted.
    pub torn_prefix_rejected: bool,
    /// Whether the full serialized stream round-tripped and recovery ran
    /// from the deserialized images rather than the in-memory ones.
    pub stream_recovered: bool,
    /// Whether NVM matched architectural memory right after replay.
    pub consistent_after_recovery: bool,
    /// Whether the recovered machine resumed and completed the program
    /// with a consistent final NVM image.
    pub completed_after_resume: bool,
}

/// Runs a PPA machine until `fail_cycle`, cuts power, JIT-checkpoints,
/// recovers per §4.5–4.6, resumes, and reports every verification step.
///
/// # Panics
///
/// Panics if the configuration's persistence mode is not
/// [`PersistenceMode::Ppa`] — only PPA defines this recovery protocol.
///
/// # Examples
///
/// ```
/// use ppa_sim::{inject_failure, SystemConfig};
/// use ppa_workloads::registry;
///
/// let app = registry::by_name("hmmer").unwrap();
/// let trace = app.generate(3_000, 2);
/// let out = inject_failure(&SystemConfig::ppa(), &trace, 1_000);
/// assert!(out.consistent_after_recovery);
/// assert!(out.completed_after_resume);
/// ```
pub fn inject_failure(cfg: &SystemConfig, trace: &Trace, fail_cycle: u64) -> FailureOutcome {
    inject_failure_multicore(cfg, std::slice::from_ref(trace), fail_cycle)
}

/// Multi-core version of [`inject_failure`]: every core is checkpointed
/// and recovered individually, and the CSQs are replayed in arbitrary
/// (here: core-index) order — §6 argues DRF makes any order correct.
pub fn inject_failure_multicore(
    cfg: &SystemConfig,
    traces: &[Trace],
    fail_cycle: u64,
) -> FailureOutcome {
    inject_failure_with_flush(cfg, traces, fail_cycle, None)
}

/// The full failure model: run, checkpoint, recover, resume. With
/// `mid_flush = Some(n)` the failure point sits *inside* the
/// JIT-checkpoint FSM: power is lost again `n` controller cycles into the
/// flush, the torn word stream is shown to be rejected, the
/// residual-energy window finishes the flush, and recovery runs from the
/// deserialized full stream — exercising the detection path, not just the
/// happy path (see [`ppa_core::flush`]).
pub fn inject_failure_with_flush(
    cfg: &SystemConfig,
    traces: &[Trace],
    fail_cycle: u64,
    mid_flush: Option<u64>,
) -> FailureOutcome {
    assert_eq!(
        cfg.core.mode,
        PersistenceMode::Ppa,
        "failure injection drives PPA's recovery protocol"
    );
    assert!(!traces.is_empty(), "need at least one trace");

    let mut mem = MemorySystem::new(cfg.mem, traces.len());
    let mut cores: Vec<Core> = (0..traces.len()).map(|i| Core::new(cfg.core, i)).collect();
    let mut machine = Lockstep::new(&mut cores, traces, &mut mem);
    machine.run_to(fail_cycle);
    let committed_before: u64 = machine.cores().iter().map(Core::committed).sum();
    let consistent_before_recovery = arch_mem_matches(machine.mem());

    let crash = machine.crash(mid_flush);
    let checkpoint_bytes: u64 = crash
        .images
        .iter()
        .map(|i| i.checkpoint_bytes(cfg.core.total_prf()))
        .sum();
    let replayed_stores = machine.recover(&crash.images);
    let consistent_after_recovery = arch_mem_matches(machine.mem());

    assert!(machine.run(), "recovered machine deadlocked");
    let completed = machine
        .cores()
        .iter()
        .zip(traces)
        .all(|(c, t)| c.committed() == t.len() as u64)
        && arch_mem_matches(machine.mem());

    FailureOutcome {
        fail_cycle,
        committed_before,
        consistent_before_recovery,
        replayed_stores,
        checkpoint_bytes,
        flush_cycles: crash.flush.cycles,
        torn_words: crash.flush.torn_words,
        torn_prefix_rejected: crash.flush.torn_prefix_rejected,
        stream_recovered: crash.stream_recovered,
        consistent_after_recovery,
        completed_after_resume: completed,
    }
}

/// The judge: whether the NVM image holds every committed store.
fn arch_mem_matches(mem: &MemorySystem) -> bool {
    mem.nvm_image().diff(mem.arch_mem()).is_empty()
}

#[cfg(test)]
mod tests {
    use super::*;
    use ppa_workloads::registry;

    #[test]
    fn recovery_restores_consistency_at_many_failure_points() {
        let app = registry::by_name("tpcc").unwrap();
        let trace = app.generate(2_000, 11);
        for fail_cycle in [1, 50, 333, 1_000, 2_500] {
            let out = inject_failure(&SystemConfig::ppa(), &trace, fail_cycle);
            assert!(
                out.consistent_after_recovery,
                "inconsistent after recovery at cycle {fail_cycle}"
            );
            assert!(
                out.completed_after_resume,
                "did not complete after resume at cycle {fail_cycle}"
            );
        }
    }

    #[test]
    fn mid_run_failures_exhibit_the_inconsistency_ppa_repairs() {
        // At some failure point the raw NVM image must differ from the
        // architectural memory — otherwise the experiment proves nothing.
        let app = registry::by_name("rb").unwrap();
        let trace = app.generate(3_000, 7);
        let mut saw_inconsistency = false;
        for i in 1..25 {
            let fail_cycle = i * 211;
            let out = inject_failure(&SystemConfig::ppa(), &trace, fail_cycle);
            saw_inconsistency |= !out.consistent_before_recovery;
            assert!(out.consistent_after_recovery);
        }
        assert!(saw_inconsistency, "no failure point was inconsistent");
    }

    #[test]
    fn checkpoint_bytes_within_paper_worst_case() {
        let app = registry::by_name("lulesh").unwrap();
        let trace = app.generate(2_000, 3);
        let out = inject_failure(&SystemConfig::ppa(), &trace, 1_200);
        assert!(out.checkpoint_bytes > 0);
        // One core's checkpoint can never exceed §7.13's 1838-byte bound
        // (40 CSQ entries, 88 registers, CRT, MaskReg, LCPC).
        assert!(
            out.checkpoint_bytes <= 1838,
            "checkpoint was {} bytes",
            out.checkpoint_bytes
        );
    }

    #[test]
    fn multicore_recovery_in_arbitrary_order_is_consistent() {
        let app = registry::by_name("water-ns").unwrap();
        let traces: Vec<_> = (0..4).map(|t| app.generate_thread(1_500, 5, t)).collect();
        let cfg = SystemConfig::ppa().with_threads(4);
        let out = inject_failure_multicore(&cfg, &traces, 900);
        assert!(out.consistent_after_recovery);
        assert!(out.completed_after_resume);
    }

    #[test]
    fn failure_before_any_commit_is_trivially_recoverable() {
        let app = registry::by_name("gcc").unwrap();
        let trace = app.generate(500, 1);
        let out = inject_failure(&SystemConfig::ppa(), &trace, 0);
        assert_eq!(out.committed_before, 0);
        assert_eq!(out.replayed_stores, 0);
        assert!(out.completed_after_resume);
    }

    #[test]
    fn mid_flush_tearing_is_detected_and_recovery_still_succeeds() {
        let app = registry::by_name("tpcc").unwrap();
        let trace = app.generate(2_000, 11);
        for interrupt in [0, 1, 2, 3, 10, 40, 100, 1_000_000] {
            let out = inject_failure_with_flush(
                &SystemConfig::ppa(),
                std::slice::from_ref(&trace),
                1_000,
                Some(interrupt),
            );
            assert!(
                out.torn_prefix_rejected,
                "torn prefix after {interrupt} controller cycles was accepted"
            );
            assert!(out.stream_recovered, "stream did not round-trip");
            assert!(out.consistent_after_recovery);
            assert!(out.completed_after_resume);
        }
    }

    #[test]
    fn complete_flush_reports_no_tearing() {
        let app = registry::by_name("hmmer").unwrap();
        let trace = app.generate(1_500, 2);
        let out = inject_failure(&SystemConfig::ppa(), &trace, 700);
        assert_eq!(out.torn_words, 0);
        assert!(out.torn_prefix_rejected);
        assert!(out.stream_recovered);
        assert!(out.flush_cycles > 0, "the flush FSM must consume cycles");
    }

    #[test]
    #[should_panic(expected = "recovery protocol")]
    fn non_ppa_mode_panics() {
        let app = registry::by_name("gcc").unwrap();
        let trace = app.generate(100, 1);
        inject_failure(&SystemConfig::baseline(), &trace, 10);
    }
}
