//! `smp.cycles.total` and `smp.drain.grants` count every machine,
//! however it is driven. The registry is process-wide, so this suite is
//! its own test binary with one test: nothing else moves the counters.

use ppa_sim::SystemConfig;
use ppa_smp::SmpSystem;
use ppa_workloads::shared;

fn counters() -> (u64, u64) {
    let get = |name| ppa_obs::registry::counter(name).get();
    (get("smp.cycles.total"), get("smp.drain.grants"))
}

fn machine() -> SmpSystem {
    let app = shared::by_name("counters").expect("known shared workload");
    SmpSystem::new(
        SystemConfig::ppa().with_threads(2),
        app.generate_threads(600, 1, 2),
    )
}

#[test]
fn every_stepped_cycle_and_grant_is_counted_once_per_machine() {
    // Run to completion: counted on drop, not again by `run_in_place`.
    let before = counters();
    let mut sys = machine();
    let report = sys.run_in_place();
    let (stepped, grants) = (sys.now(), sys.drain_log().len() as u64);
    assert!(stepped >= report.cycles && grants > 0);
    assert_eq!(counters(), before, "counted before the machine is done");
    drop(sys);
    assert_eq!(counters(), (before.0 + stepped, before.1 + grants));

    // Stepped by hand, across a power failure and recovery that clears
    // the arbiter's log: every cycle and grant on both sides counts.
    let before = counters();
    let mut sys = machine();
    sys.run_to(stepped / 2);
    let grants_before_failure = sys.drain_log().len() as u64;
    assert!(grants_before_failure > 0, "no grant before the failure");
    let crash = sys.crash(None);
    sys.recover(&crash.images);
    while !sys.is_finished() {
        sys.step();
    }
    let (stepped, grants) = (sys.now(), sys.drain_log().len() as u64);
    drop(sys);
    assert_eq!(
        counters(),
        (
            before.0 + stepped,
            before.1 + grants_before_failure + grants
        )
    );

    // A machine that never stepped adds nothing.
    let before = counters();
    drop(machine());
    assert_eq!(counters(), before);
}
