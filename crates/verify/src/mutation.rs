//! Mutation self-tests: deliberately break the PPA hardware and prove
//! the invariant checker notices.
//!
//! A checker that has never caught a bug is untested. Each case here arms
//! one [`FaultKind`] in the core — skipping a MaskReg pin, dropping a CSQ
//! entry, reclaiming a pinned register eagerly, leaking the deferred-free
//! list — runs a register-recycling store workload with the default
//! validators attached, and reports which named invariants fired. The
//! self-test passes only if *every* fault is detected via one of its
//! expected violation kinds.

use ppa_core::verify::{FaultKind, InvariantKind, Violation};
use ppa_core::{Core, CoreConfig, Lockstep, PersistenceMode};
use ppa_isa::{ArchReg, Trace, TraceBuilder};
use ppa_mem::{MemConfig, MemorySystem};

/// One mutation case: the injected fault and the violation kinds that
/// legitimately witness it (detection timing decides which fires first).
#[derive(Debug, Clone, Copy)]
pub struct MutationCase {
    /// The bug injected into the core.
    pub fault: FaultKind,
    /// Violation kinds accepted as a detection of this fault.
    pub expected: &'static [InvariantKind],
}

/// The self-test suite: every injectable fault with its expected
/// witnesses.
pub fn cases() -> Vec<MutationCase> {
    vec![
        MutationCase {
            fault: FaultKind::SkipMaskPin,
            expected: &[
                InvariantKind::CsqSourceUnmasked,
                InvariantKind::CsqSourceFreed,
            ],
        },
        MutationCase {
            fault: FaultKind::SkipCsqEntry,
            expected: &[
                InvariantKind::MaskedNotStoreSource,
                InvariantKind::CsqStoreCountMismatch,
            ],
        },
        MutationCase {
            fault: FaultKind::EagerFreeMasked,
            expected: &[
                InvariantKind::MaskedRegisterFree,
                InvariantKind::MaskedRegisterReallocated,
                InvariantKind::CsqSourceFreed,
            ],
        },
        MutationCase {
            fault: FaultKind::LeakDeferredFrees,
            expected: &[InvariantKind::PrfLeak],
        },
    ]
}

/// A register-recycling store workload: every iteration redefines a
/// register that supplied an earlier store, so MaskReg pins, deferred
/// frees, and CSQ pressure all occur; the small PRF forces frequent
/// region boundaries.
fn mutation_trace() -> Trace {
    let mut b = TraceBuilder::new("mutation");
    for i in 0..400u64 {
        let r = ArchReg::int((i % 6) as u8);
        b.alu(r, &[r]);
        b.store(r, 0x1000 + (i % 48) * 8, i + 1);
        b.alu(r, &[r]); // redefine the store's data register
    }
    b.build()
}

/// The distinct kinds among `violations`, each named once, sorted by
/// name.
pub fn distinct_kinds(violations: &[Violation]) -> Vec<InvariantKind> {
    let mut kinds: Vec<InvariantKind> = violations.iter().map(|v| v.kind).collect();
    kinds.sort_by_key(|k| k.name());
    kinds.dedup();
    kinds
}

/// Result of running one mutation case.
#[derive(Debug)]
pub struct MutationReport {
    /// The case that ran.
    pub case: MutationCase,
    /// Every violation the validators reported.
    pub violations: Vec<Violation>,
}

impl MutationReport {
    /// The distinct violation kinds that fired.
    pub fn fired_kinds(&self) -> Vec<InvariantKind> {
        distinct_kinds(&self.violations)
    }

    /// Whether the fault was detected via one of its expected kinds.
    pub fn detected(&self) -> bool {
        self.violations
            .iter()
            .any(|v| self.case.expected.contains(&v.kind))
    }
}

/// Runs one mutation case: arms the fault, attaches the default
/// validators, and runs the core to completion, or to the machine's one
/// deadlock bound should a fault ever stall it.
pub fn run_case(case: MutationCase) -> MutationReport {
    let traces = [mutation_trace()];
    let cfg = CoreConfig::paper_default(PersistenceMode::Ppa).with_prf(56, 56);
    let mut mem = MemorySystem::new(MemConfig::memory_mode(), 1);
    let mut cores = [Core::new(cfg, 0)];
    cores[0].attach_default_validators();
    cores[0].inject_fault(case.fault);
    Lockstep::new(&mut cores, &traces, &mut mem).run();
    MutationReport {
        case,
        violations: cores[0].take_violations(),
    }
}

/// Runs the whole suite, one pool job per injected fault.
pub fn run_all() -> Vec<MutationReport> {
    ppa_pool::par_map_ordered(cases(), run_case)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn every_injected_fault_is_detected_as_a_named_violation() {
        let reports = run_all();
        assert!(reports.len() >= 3, "the suite must cover at least 3 bugs");
        for r in &reports {
            assert!(
                r.detected(),
                "fault {:?} went undetected; kinds that fired: {:?}",
                r.case.fault,
                r.fired_kinds()
            );
        }
    }

    #[test]
    fn clean_run_of_the_same_workload_reports_nothing() {
        let trace = mutation_trace();
        let cfg = CoreConfig::paper_default(PersistenceMode::Ppa).with_prf(56, 56);
        let mut mem = MemorySystem::new(MemConfig::memory_mode(), 1);
        let mut core = Core::new(cfg, 0);
        core.attach_default_validators();
        core.run(&trace, &mut mem);
        assert_eq!(core.violations(), &[] as &[Violation]);
    }
}
