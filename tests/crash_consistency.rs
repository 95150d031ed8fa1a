//! Cross-crate crash-consistency tests: the central correctness claim of
//! the paper, exercised end-to-end through the facade crate.

use ppa::core::{Core, CoreConfig, Lockstep, PersistenceMode};
use ppa::mem::{MemConfig, MemorySystem};
use ppa::sim::{inject_failure, SystemConfig};
use ppa::workloads::registry;

/// Recovery works at every phase of execution, across very different
/// application behaviours.
#[test]
fn recovery_is_correct_across_apps_and_failure_points() {
    for name in ["bzip2", "lbm", "rb", "lulesh", "genome"] {
        let app = registry::by_name(name).expect("known app");
        let trace = app.generate(3_000, 13);
        for fail_cycle in [3, 170, 900, 2_400, 6_000] {
            let out = inject_failure(&SystemConfig::ppa(), &trace, fail_cycle);
            assert!(
                out.consistent_after_recovery,
                "{name}: inconsistent after recovery at {fail_cycle}"
            );
            assert!(
                out.completed_after_resume,
                "{name}: did not complete after resume at {fail_cycle}"
            );
        }
    }
}

/// The experiment is meaningful: without PPA's replay, some failure point
/// leaves the NVM inconsistent with committed state. The inconsistency
/// window is narrow (the write buffer drains within a few hundred
/// cycles), so scan store-heavy apps at a fine grain until one shows it.
#[test]
fn the_baseline_inconsistency_actually_exists() {
    let mut found = false;
    'apps: for name in ["tpcc", "pc", "sps"] {
        let app = registry::by_name(name).expect("known app");
        let trace = app.generate(4_000, 3);
        for i in 1..80 {
            let out = inject_failure(&SystemConfig::ppa(), &trace, i * 97);
            if !out.consistent_before_recovery {
                found = true;
                break 'apps;
            }
        }
    }
    assert!(found, "no failure point showed the crash inconsistency");
}

/// §4 footnote 8: stores are idempotent, so replaying twice is harmless.
#[test]
fn double_recovery_is_idempotent() {
    let app = registry::by_name("tatp").expect("tatp exists");
    let traces = [app.generate(3_000, 5)];
    let mut mem = MemorySystem::new(MemConfig::memory_mode(), 1);
    let mut cores = [Core::new(
        CoreConfig::paper_default(PersistenceMode::Ppa),
        0,
    )];
    let mut machine = Lockstep::new(&mut cores, &traces, &mut mem);
    machine.run_to(1_500);
    let crash = machine.crash(None);
    machine.recover(&crash.images);
    let first = machine.mem().nvm_image().clone();
    machine.recover(&crash.images);
    assert_eq!(*machine.mem().nvm_image(), first);
    assert!(consistent(machine.mem()));
}

/// Power failure during the *recovered* run is also recoverable — crashes
/// can nest.
#[test]
fn nested_failures_recover() {
    let app = registry::by_name("gcc").expect("gcc exists");
    let traces = [app.generate(4_000, 9)];
    let mut mem = MemorySystem::new(MemConfig::memory_mode(), 1);
    let mut cores = [Core::new(
        CoreConfig::paper_default(PersistenceMode::Ppa),
        0,
    )];
    let mut machine = Lockstep::new(&mut cores, &traces, &mut mem);
    machine.run_to(800);
    // First failure + recovery.
    let first = machine.crash(None);
    machine.recover(&first.images);
    assert!(consistent(machine.mem()));

    // Run a bit more, then fail again.
    machine.run_to(1_600);
    let second = machine.crash(None);
    machine.recover(&second.images);
    assert!(consistent(machine.mem()));
    assert!(
        second.images[0].committed >= first.images[0].committed,
        "progress is monotonic"
    );

    // Final resume completes.
    assert!(machine.run(), "deadlock after nested recovery");
    assert_eq!(machine.cores()[0].committed(), traces[0].len() as u64);
    assert!(consistent(machine.mem()));
}

fn consistent(mem: &MemorySystem) -> bool {
    mem.nvm_image().diff(mem.arch_mem()).is_empty()
}

/// The checkpoint never exceeds the paper's §7.13 worst case, at any
/// failure point of any app.
#[test]
fn checkpoint_size_bounded_by_paper_worst_case() {
    for name in ["hmmer", "rb", "lulesh"] {
        let app = registry::by_name(name).expect("known app");
        let trace = app.generate(3_000, 21);
        for fail_cycle in [100, 1_000, 3_000] {
            let out = inject_failure(&SystemConfig::ppa(), &trace, fail_cycle);
            assert!(
                out.checkpoint_bytes <= 1838,
                "{name}@{fail_cycle}: {} bytes",
                out.checkpoint_bytes
            );
        }
    }
}
