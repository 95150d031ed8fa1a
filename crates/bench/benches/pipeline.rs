//! Benches for the cycle-level core: simulation throughput per
//! persistence scheme, plus the checkpoint/recovery hot path.

use ppa_bench::harness::bench_function;
use ppa_core::{replay_stores, Core, CoreConfig, InOrderCore, Lockstep, PersistenceMode};
use ppa_mem::{MemConfig, MemorySystem};
use ppa_sim::{Machine, SystemConfig};
use ppa_workloads::registry;
use std::hint::black_box;

const LEN: usize = 10_000;

fn bench_modes() {
    let app = registry::by_name("sjeng").expect("sjeng exists");
    for (name, cfg) in [
        ("baseline", SystemConfig::baseline()),
        ("ppa", SystemConfig::ppa()),
        ("replaycache", SystemConfig::replay_cache()),
        ("capri", SystemConfig::capri()),
    ] {
        bench_function("pipeline", name, |b| {
            b.iter(|| black_box(Machine::new(cfg).run_app(&app, LEN, 1)))
        });
    }
    bench_function("pipeline", "in_order", |b| {
        let trace = app.generate(LEN, 1);
        b.iter(|| {
            let mut mem = MemorySystem::new(MemConfig::memory_mode(), 1);
            let mut core = InOrderCore::new(40, 0);
            black_box(core.run(&trace, &mut mem))
        })
    });
}

fn bench_checkpoint_recovery() {
    let app = registry::by_name("tpcc").expect("tpcc exists");
    let traces = [app.generate(LEN, 1)];
    // Run a PPA core part-way to populate the CSQ/MaskReg.
    let cfg = CoreConfig::paper_default(PersistenceMode::Ppa);
    let mut mem = MemorySystem::new(MemConfig::memory_mode(), 1);
    let mut cores = [Core::new(cfg, 0)];
    Lockstep::new(&mut cores, &traces, &mut mem).run_to(3_000);
    let [core] = cores;

    bench_function("recovery", "jit_checkpoint", |b| {
        b.iter(|| black_box(core.jit_checkpoint()))
    });
    let image = core.jit_checkpoint();
    bench_function("recovery", "replay_stores", |b| {
        b.iter(|| {
            let mut nvm = ppa_mem::NvmImage::new();
            black_box(replay_stores(black_box(&image), &mut nvm))
        })
    });
    bench_function("recovery", "core_recover", |b| {
        b.iter(|| black_box(Core::recover(cfg, 0, black_box(&image))))
    });
}

fn main() {
    bench_modes();
    bench_checkpoint_recovery();
}
