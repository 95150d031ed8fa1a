//! End-to-end tests of the shared-memory multi-core machine: shared-state
//! DRF workloads, cross-core persist ordering, whole-machine failure and
//! recovery, and the mutation self-tests of the machine-level validators.

use ppa_core::verify::InvariantKind;
use ppa_core::{deserialize_images, serialize_images};
use ppa_sim::SystemConfig;
use ppa_smp::{ArbiterFault, SmpSystem};
use ppa_workloads::shared;

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
fn whole_machine_failure_and_recovery_is_consistent() {
    for app in ["counters", "prodcons"] {
        let mut sys = machine(app, 2, 1_200, SystemConfig::ppa());
        sys.run_to(2_000);
        let ckpt = sys.jit_checkpoint();
        sys.power_failure();
        sys.recover(&ckpt);
        assert!(
            sys.consistent(),
            "{app}: replay must restore consistency at the failure point"
        );
        let report = sys.run();
        assert_eq!(report.committed, 2 * 1_200, "{app}");
        assert!(report.consistent, "{app}");
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
    let mut cells = 0u64;
    let mut torn = 0u64;
    while !sys.is_finished() {
        cells += 1;
        let cell = sys.crash_cell(cells.is_multiple_of(3).then_some(cells * 13));
        if let Some(f) = cell.torn {
            torn += 1;
            assert!(f.torn_prefix_rejected, "cycle {}", sys.now());
            assert!(f.torn_words < cell.words, "cycle {}", sys.now());
        }
        let (images, nvm) = cell.recovered.expect("intact stream deserializes");
        assert_eq!(images, sys.jit_checkpoint());
        assert_eq!(nvm, sys.replayed_nvm(&images));
        sys.step();
    }
    assert!(torn > 0);
    assert_eq!(torn, cells / 3);
    assert_eq!(summary(sys), plain);
}

#[test]
fn every_cycles_recovered_images_are_the_machine_checkpoint() {
    let mut sys = machine("counters", 4, 400, SystemConfig::ppa());
    let mut with_stores = 0;
    while !sys.is_finished() {
        let images = sys.jit_checkpoint();
        let cell = sys.crash_cell(None);
        let (recovered, _) = cell.recovered.expect("intact stream deserializes");
        assert_eq!(recovered, images, "cycle {}", sys.now());
        assert_eq!(cell.words, serialize_images(&images).len() as u64);
        for image in &images {
            assert!(
                image.prf_values.windows(2).all(|w| w[0].0 < w[1].0),
                "cycle {}: PRF slice not sorted and unique",
                sys.now()
            );
            assert!(image.masked.windows(2).all(|w| w[0] < w[1]));
        }
        with_stores += usize::from(images.iter().any(|i| !i.csq.is_empty()));
        sys.step();
    }
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
