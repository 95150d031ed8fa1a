//! Property-style tests over the crash-consistency invariants: any
//! application, any failure cycle, any seed — recovery must restore
//! exactly the committed state and the program must complete.
//!
//! Inputs are drawn from seeded [`ppa_prng::Prng`] loops for offline,
//! reproducible randomness.

use ppa::core::{Core, CoreConfig, Lockstep, PersistenceMode};
use ppa::mem::{MemConfig, MemorySystem};
use ppa::sim::{inject_failure, SystemConfig};
use ppa::workloads::registry;
use ppa_prng::Prng;

/// The headline invariant: replaying the checkpointed CSQ makes the
/// NVM image equal architectural memory at the last commit point, and
/// the resumed machine finishes the program consistently.
#[test]
fn recovery_restores_consistency() {
    let mut rng = Prng::seed_from_u64(0x4ec0_0001);
    for _ in 0..24 {
        let app = registry::all()[rng.random_below(41) as usize];
        let seed = rng.random_below(1_000);
        let fail_cycle = rng.random_below(5_000);
        let trace = app.generate(1_500, seed);
        let out = inject_failure(&SystemConfig::ppa(), &trace, fail_cycle);
        assert!(
            out.consistent_after_recovery,
            "{}@{} seed {}: inconsistent after recovery",
            app.name, fail_cycle, seed
        );
        assert!(
            out.completed_after_resume,
            "{}@{} seed {}: did not complete",
            app.name, fail_cycle, seed
        );
        assert!(out.checkpoint_bytes <= 1838);
    }
}

/// Recovery resumes exactly at the commit index the checkpoint
/// recorded — no committed instruction re-executes architecturally,
/// none is skipped.
#[test]
fn resume_point_is_exact() {
    let mut rng = Prng::seed_from_u64(0x4ec0_0002);
    for _ in 0..24 {
        let app = registry::all()[rng.random_below(41) as usize];
        let fail_cycle = 1 + rng.random_below(3_000);
        let traces = [app.generate(1_200, 77)];
        let cfg = CoreConfig::paper_default(PersistenceMode::Ppa);
        let mut mem = MemorySystem::new(MemConfig::memory_mode(), 1);
        let mut cores = [Core::new(cfg, 0)];
        let mut machine = Lockstep::new(&mut cores, &traces, &mut mem);
        machine.run_to(fail_cycle);
        let (committed, lcpc) = (machine.cores()[0].committed(), machine.cores()[0].lcpc());
        let crash = machine.crash(None);
        assert_eq!(crash.images[0].committed, committed);
        machine.recover(&crash.images);
        assert_eq!(machine.cores()[0].committed(), committed);
        assert_eq!(machine.cores()[0].lcpc(), lcpc);
    }
}

/// Simulation is a pure function of (app, len, seed, config).
#[test]
fn simulation_is_deterministic() {
    let mut rng = Prng::seed_from_u64(0x4ec0_0003);
    for _ in 0..24 {
        let app = registry::all()[rng.random_below(41) as usize];
        let seed = rng.random_below(100);
        let m = ppa::sim::Machine::new(SystemConfig::ppa());
        let r1 = m.run_app(&app, 1_000, seed);
        let r2 = m.run_app(&app, 1_000, seed);
        assert_eq!(r1.cycles, r2.cycles, "{} seed {}", app.name, seed);
        assert_eq!(r1.committed, r2.committed, "{} seed {}", app.name, seed);
    }
}

/// Every scheme commits the same architectural values — persistence
/// support must never change program semantics.
#[test]
fn schemes_agree_on_architectural_memory() {
    let mut rng = Prng::seed_from_u64(0x4ec0_0004);
    for _ in 0..24 {
        let app = registry::all()[rng.random_below(41) as usize];
        let seed = rng.random_below(50);
        let raw = app.generate(800, seed);
        let mut images = Vec::new();
        for cfg in [
            SystemConfig::baseline(),
            SystemConfig::ppa(),
            SystemConfig::replay_cache(),
            SystemConfig::capri(),
        ] {
            let machine = ppa::sim::Machine::new(cfg);
            let trace = machine.prepare_trace(&raw);
            let mut mem = MemorySystem::new(cfg.mem, 1);
            let mut core = Core::new(cfg.core, 0);
            core.run(&trace, &mut mem);
            let mut words: Vec<(u64, u64)> = mem.arch_mem().iter().collect();
            words.sort_unstable();
            images.push(words);
        }
        for w in &images[1..] {
            assert_eq!(w, &images[0], "{} seed {}", app.name, seed);
        }
    }
}
