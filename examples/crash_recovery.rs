//! Crash-recovery walkthrough: run a persistent-memory workload (WHISPER's
//! hash-table updater), cut power mid-execution, and follow PPA's §4.5–4.6
//! protocol step by step — JIT checkpoint, store replay, resume — with the
//! crash-consistency checker verifying each stage.
//!
//! ```text
//! cargo run --release --example crash_recovery
//! ```

use ppa::core::{Core, CoreConfig, Lockstep, PersistenceMode};
use ppa::mem::{MemConfig, MemorySystem};
use ppa::workloads::registry;

fn main() {
    let app = registry::by_name("pc").expect("WHISPER pc exists");
    let traces = [app.generate(20_000, 7)];
    println!("workload: {} — {}", app.name, app.description);

    let cfg = CoreConfig::paper_default(PersistenceMode::Ppa);
    let mut mem = MemorySystem::new(MemConfig::memory_mode(), 1);
    let mut cores = [Core::new(cfg, 0)];
    let mut machine = Lockstep::new(&mut cores, &traces, &mut mem);

    // Phase 1: normal execution, until the outage.
    let fail_cycle = 6_000;
    machine.run_to(fail_cycle);
    let committed = machine.cores()[0].committed();
    let dirty = machine.mem().nvm_image().diff(machine.mem().arch_mem());
    println!("\n-- power failure at cycle {fail_cycle} --");
    println!(
        "committed so far: {committed} micro-ops (LCPC = {:#x})",
        machine.cores()[0].lcpc()
    );
    println!(
        "NVM words inconsistent with committed state: {} {}",
        dirty.len(),
        if dirty.is_empty() {
            "(lucky instant: everything had just persisted)"
        } else {
            "<-- data a naive system would lose"
        }
    );

    // Phase 2: JIT checkpointing (§4.5) — MaskReg, CRT, CSQ, LCPC, and the
    // masked slice of the PRF go to NVM through the checkpoint controller;
    // everything else dies.
    let crash = machine.crash(None);
    let image = &crash.images[0];
    let bytes = image.checkpoint_bytes(cfg.total_prf());
    println!("\n-- JIT checkpoint --");
    println!(
        "CSQ entries (committed stores of the region): {}",
        image.csq.len()
    );
    println!("masked physical registers: {}", image.masked.len());
    println!("checkpoint size: {bytes} bytes (paper worst case: 1838)");
    println!(
        "controller flush: {} cycles; image read back intact: {}",
        crash.flush.cycles, crash.stream_recovered
    );
    let e = ppa::energy::checkpoint_energy_uj(bytes);
    let t = ppa::energy::checkpoint_time_ns(bytes, 2.3);
    println!("energy: {e:.2} uJ   flush time: {:.2} us", t / 1000.0);

    // Phase 3: recovery (§4.6) — restore, replay, verify.
    println!("\n-- recovery --");
    let replayed = machine.recover(&crash.images);
    println!("replayed {replayed} committed stores from the CSQ");
    let diff = machine.mem().nvm_image().diff(machine.mem().arch_mem());
    println!(
        "NVM vs committed state after replay: {} mismatches",
        diff.len()
    );
    assert!(diff.is_empty(), "recovery must restore crash consistency");

    // Phase 4: resume after the LCPC, from the crash cycle, and run to
    // completion.
    assert!(machine.run(), "the recovered machine must finish");
    println!("\n-- resumed --");
    println!(
        "completed the remaining {} micro-ops by cycle {}; total committed: {}",
        traces[0].len() as u64 - committed,
        machine.now(),
        machine.cores()[0].committed()
    );
    let final_diff = machine.mem().nvm_image().diff(machine.mem().arch_mem());
    assert!(final_diff.is_empty());
    println!("final NVM image is crash-consistent: true");
}
