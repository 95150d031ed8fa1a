//! End-to-end tests of the shared-memory multi-core machine: shared-state
//! DRF workloads, cross-core persist ordering, whole-machine failure and
//! recovery, and the mutation self-tests of the machine-level validators.

use ppa_core::verify::InvariantKind;
use ppa_core::{deadlock_bound, deserialize_images, serialize_images};
use ppa_isa::{ArchReg, TraceBuilder};
use ppa_sim::SystemConfig;
use ppa_smp::{ArbiterFault, SmpSystem};
use ppa_workloads::shared;
use std::panic::{catch_unwind, AssertUnwindSafe};

fn machine(app: &str, threads: usize, len: usize, cfg: SystemConfig) -> SmpSystem {
    let app = shared::by_name(app).expect("known shared workload");
    let cfg = cfg.with_threads(threads);
    SmpSystem::new(cfg, app.generate_threads(len, 1, threads))
}

#[test]
fn every_shared_workload_completes_consistently() {
    for app in shared::all() {
        let sys = machine(app.name, 4, 1_500, SystemConfig::ppa());
        let report = sys.run();
        assert_eq!(report.committed, 4 * 1_500, "{}", app.name);
        assert!(report.consistent, "{} left NVM inconsistent", app.name);
        assert!(
            report.drain_grants > 0,
            "{} never exercised the persist arbiter",
            app.name
        );
    }
}

#[test]
fn baseline_machine_needs_no_arbitration() {
    let report = machine("counters", 4, 1_500, SystemConfig::baseline()).run();
    assert_eq!(report.committed, 4 * 1_500);
    assert_eq!(report.drain_grants, 0, "baseline has no sync regions");
}

#[test]
fn runs_are_deterministic() {
    let run = || {
        let sys = machine("barrier", 4, 1_200, SystemConfig::ppa());
        let r = sys.run();
        (r.cycles, r.committed, r.drain_grants)
    };
    assert_eq!(run(), run());
}

#[test]
fn drain_grants_serialize_sync_regions_round_robin() {
    let mut sys = machine("counters", 4, 2_000, SystemConfig::ppa());
    while !sys.is_finished() {
        sys.step();
    }
    let log = sys.drain_log();
    assert!(
        log.len() >= 8,
        "expected plenty of grants, got {}",
        log.len()
    );
    // Every core's drains are certified, in increasing region order.
    for core in 0..4 {
        let regions: Vec<u64> = log
            .iter()
            .filter(|g| g.core == core)
            .map(|g| g.region)
            .collect();
        assert!(!regions.is_empty(), "core {core} never granted");
        assert!(regions.windows(2).all(|w| w[0] < w[1]));
    }
    assert!(sys.validate().is_empty(), "clean run must validate clean");
}

#[test]
fn clean_machine_validates_clean_at_any_point() {
    let mut sys = machine("halo", 2, 1_500, SystemConfig::ppa());
    for checkpoint_at in [300, 900, 1_500] {
        sys.run_to(checkpoint_at);
        assert!(
            sys.validate().is_empty(),
            "violations at cycle {checkpoint_at}"
        );
    }
}

#[test]
fn rename_starved_machine_panics_one_cycle_past_the_deadlock_bound() {
    // No physical register beyond the architectural ones: renaming a
    // destination never succeeds.
    let mut cfg = SystemConfig::baseline();
    cfg.core.int_prf = ppa_isa::NUM_INT_ARCH_REGS;
    let mut b = TraceBuilder::new("starved");
    b.alu(ArchReg::int(0), &[]);
    let traces = vec![b.build()];
    let bound = deadlock_bound(&traces);
    let mut sys = SmpSystem::new(cfg, traces);
    let mut run_to = |cycle| catch_unwind(AssertUnwindSafe(|| sys.run_to(cycle)));
    assert!(run_to(bound).is_ok(), "stepping up to the bound is allowed");
    let panic = run_to(bound + 1).expect_err("stepping past the bound must panic");
    let msg = panic.downcast_ref::<String>().expect("a formatted message");
    assert!(msg.contains("deadlocked"), "{msg}");
    assert_eq!(sys.now(), bound);
    assert_eq!(sys.cores()[0].committed(), 0);
}

#[test]
fn whole_machine_failure_and_recovery_is_consistent() {
    for app in ["counters", "prodcons"] {
        for mid_flush in [None, Some(0), Some(40)] {
            let mut sys = machine(app, 2, 1_200, SystemConfig::ppa());
            sys.run_to(2_000);
            let crash = sys.crash(mid_flush);
            assert!(crash.flush.torn_prefix_rejected, "{app} {mid_flush:?}");
            assert!(crash.stream_recovered, "{app} {mid_flush:?}");
            sys.recover(&crash.images);
            assert!(
                sys.consistent(),
                "{app} {mid_flush:?}: replay must restore consistency at the failure point"
            );
            let report = sys.run();
            assert_eq!(report.committed, 2 * 1_200, "{app} {mid_flush:?}");
            assert!(report.consistent, "{app} {mid_flush:?}");
        }
    }
}

#[test]
fn machine_checkpoint_survives_serialization_but_not_tearing() {
    let mut sys = machine("barrier", 2, 1_000, SystemConfig::ppa());
    sys.run_to(1_500);
    let ckpt = sys.jit_checkpoint();
    let words = serialize_images(&ckpt);
    assert_eq!(deserialize_images(&words), Some(ckpt));
    for cut in 0..words.len() {
        assert_eq!(
            deserialize_images(&words[..cut]),
            None,
            "torn prefix of {cut} words must be rejected"
        );
    }
}

#[test]
fn crash_cells_at_every_cycle_leave_the_run_unchanged() {
    let summary = |sys: SmpSystem| {
        let r = sys.run();
        (r.cycles, r.committed, r.drain_grants, r.consistent)
    };
    let plain = summary(machine("prodcons", 2, 800, SystemConfig::ppa()));
    let mut sys = machine("prodcons", 2, 800, SystemConfig::ppa());
    let mut torn = 0u64;
    let tear = |cycle: u64| (cycle + 1).is_multiple_of(3).then_some((cycle + 1) * 13);
    let cells = sys.sweep(tear, |sys, cycle, cell| {
        if let Some(f) = cell.torn {
            torn += 1;
            assert!(f.torn_prefix_rejected, "cycle {cycle}");
            assert!(f.torn_words < cell.words, "cycle {cycle}");
        }
        let (images, nvm) = cell.recovered.expect("intact stream deserializes");
        assert_eq!(images, sys.jit_checkpoint());
        assert_eq!(nvm, sys.replayed_nvm(&images));
    });
    assert_eq!(
        cells,
        sys.now() + 1,
        "one cell per cycle, the final state included"
    );
    assert!(torn > 0);
    assert_eq!(torn, cells / 3);
    assert_eq!(summary(sys), plain);
}

#[test]
fn every_cycles_recovered_images_are_the_machine_checkpoint() {
    let mut sys = machine("counters", 4, 400, SystemConfig::ppa());
    let mut with_stores = 0;
    sys.sweep(
        |_| None,
        |sys, cycle, cell| {
            let images = sys.jit_checkpoint();
            let (recovered, _) = cell.recovered.expect("intact stream deserializes");
            assert_eq!(recovered, images, "cycle {cycle}");
            assert_eq!(cell.words, serialize_images(&images).len() as u64);
            for image in &images {
                assert!(
                    image.prf_values.windows(2).all(|w| w[0].0 < w[1].0),
                    "cycle {cycle}: PRF slice not sorted and unique"
                );
                assert!(image.masked.windows(2).all(|w| w[0] < w[1]));
            }
            with_stores += usize::from(images.iter().any(|i| !i.csq.is_empty()));
        },
    );
    assert!(with_stores > 0, "no cycle checkpointed a committed store");
}

#[test]
fn unordered_grants_are_caught() {
    let mut sys = machine("counters", 4, 2_000, SystemConfig::ppa());
    sys.inject_arbiter_fault(ArbiterFault::UnorderedGrants);
    while !sys.is_finished() {
        sys.step();
    }
    let violations = sys.validate();
    assert!(
        violations
            .iter()
            .any(|v| v.kind == InvariantKind::CrossCoreDrainOrder),
        "pairwise-swapped grant log must break the total order: {violations:?}"
    );
}

#[test]
fn phantom_grants_are_caught() {
    let mut sys = machine("counters", 4, 2_000, SystemConfig::ppa());
    sys.inject_arbiter_fault(ArbiterFault::PhantomGrant);
    while !sys.is_finished() {
        sys.step();
    }
    let violations = sys.validate();
    assert!(
        violations
            .iter()
            .any(|v| v.kind == InvariantKind::PersistBeforeDependence),
        "mid-region certificates must be caught: {violations:?}"
    );
}

#[test]
fn duplicated_image_entries_are_caught() {
    let mut sys = machine("counters", 2, 1_500, SystemConfig::ppa());
    sys.inject_arbiter_fault(ArbiterFault::DuplicateImageEntry);
    // Position the failure where core 0's CSQ is non-empty so the
    // duplicated entry actually lands in core 1's image.
    let mut at = None;
    for cycle in (200..4_000).step_by(100) {
        sys.run_to(cycle);
        if !sys.jit_checkpoint()[0].csq.is_empty() {
            at = Some(cycle);
            break;
        }
    }
    let at = at.expect("some checkpoint has a duplicated entry");
    let violations = sys.validate();
    assert!(
        violations
            .iter()
            .any(|v| v.kind == InvariantKind::RecoveryImageOverlap),
        "overlapping recovery images at cycle {at} must be caught: {violations:?}"
    );
}
