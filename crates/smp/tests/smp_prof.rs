//! The cycle-attribution profiler is one runtime switch
//! (`ppa_sim::set_profiling`): armed, an SMP machine exports its phase
//! timings and the cores their stage timings when ppa-core's `prof`
//! feature compiles stage timing in; unarmed, nothing `prof.*` exists.
//! The switch and the registry are process-wide, so this suite is its
//! own test binary with one test.

use ppa_core::prof::STAGE_TIMING;
use ppa_obs::registry::{snapshot, Value};
use ppa_sim::{Machine, SystemConfig};
use ppa_smp::SmpSystem;
use ppa_workloads::{registry, shared};

/// Every registered `prof.*` counter starting with `prefix`.
fn prof(prefix: &str) -> Vec<(String, u64)> {
    snapshot()
        .entries()
        .iter()
        .filter(|(name, _)| name.starts_with(prefix))
        .map(|(name, value)| match value {
            Value::Counter(v) => (name.clone(), *v),
            other => panic!("{name} is not a counter: {other:?}"),
        })
        .collect()
}

fn smp_machine() -> SmpSystem {
    let app = shared::by_name("counters").expect("known shared workload");
    SmpSystem::new(
        SystemConfig::ppa().with_threads(2),
        app.generate_threads(600, 1, 2),
    )
}

/// A single-core run the way perfbench's probe makes it.
fn probe_run() {
    let app = registry::by_name("mcf").expect("mcf is registered");
    Machine::new(SystemConfig::ppa()).run_app(&app, 200, 1);
}

#[test]
fn profiling_exports_prof_metrics_only_when_armed() {
    // Unarmed: neither machine exports anything under `prof.`.
    smp_machine().run();
    probe_run();
    assert_eq!(prof("prof."), vec![], "an unarmed profiler exported");

    // Armed, single-core: stage timings only where they are compiled in.
    ppa_sim::set_profiling(true);
    probe_run();
    let stages = prof("prof.core.step.");
    assert_eq!(
        !stages.is_empty(),
        STAGE_TIMING,
        "prof.core.step.* must exist iff STAGE_TIMING: {stages:?}"
    );
    assert_eq!(prof("prof.smp."), vec![]);

    // Armed, 2-core SMP: every phase timed every stepped cycle.
    let mut sys = smp_machine();
    sys.run_in_place();
    let stepped = sys.now();
    assert!(stepped > 0);
    for phase in ["cores", "arbiter", "mem"] {
        let base = format!("prof.smp.{phase}");
        let got = prof(&base);
        assert_eq!(got.len(), 2, "{base}.{{cycles,ns}}: {got:?}");
        assert_eq!(got[0], (format!("{base}.cycles"), stepped));
        assert_eq!(got[1].0, format!("{base}.ns"));
        assert!(got[1].1 > 0, "{base} attributed no time");
    }
    ppa_sim::set_profiling(false);
}
