//! The one machine loop: N cores stepped in lockstep over one memory
//! system, and the §4.5–4.6 crash-and-resume path every harness shares.
//! (`ppa-smp` keeps its own loop, since rotating service order and
//! arbiter stalls make it a different machine, but shares [`crash`],
//! [`recover_cores`] and [`deadlock_bound`].)

use crate::pipeline::Core;
use crate::ppa::checkpoint::{deserialize_images, flush, serialize_images, CheckpointImage, Flush};
use crate::ppa::recovery::replay_stores;
use ppa_isa::Trace;
use ppa_mem::MemorySystem;

/// Cycles a run of `traces` may take before it counts as deadlocked:
/// `1_000_000 + 2_000 × µops`. Every machine loop, [`Lockstep`] and
/// `ppa-smp`'s, uses this one bound.
pub fn deadlock_bound(traces: &[Trace]) -> u64 {
    let uops: u64 = traces.iter().map(|t| t.len() as u64).sum();
    1_000_000 + uops * 2_000
}

/// What a power failure leaves behind for recovery (see [`crash`]).
#[derive(Debug, Clone)]
pub struct Crash {
    /// One image per core, deserialized from the flushed word stream —
    /// recovery trusts nothing else.
    pub images: Vec<CheckpointImage>,
    /// The JIT-checkpoint flush, including a mid-flush interruption.
    pub flush: Flush,
    /// Whether the deserialized images equal the cores' checkpoints.
    pub stream_recovered: bool,
}

/// N cores, one trace each, stepped in lockstep over one memory system,
/// with one deadlock bound ([`deadlock_bound`]).
#[derive(Debug)]
pub struct Lockstep<'a> {
    cores: &'a mut [Core],
    traces: &'a [Trace],
    mem: &'a mut MemorySystem,
    now: u64,
    limit: u64,
}

impl<'a> Lockstep<'a> {
    /// Assembles a machine at cycle zero; core `i` executes `traces[i]`.
    ///
    /// # Panics
    ///
    /// Panics if `cores` and `traces` differ in length.
    pub fn new(cores: &'a mut [Core], traces: &'a [Trace], mem: &'a mut MemorySystem) -> Self {
        assert_eq!(cores.len(), traces.len(), "one trace per core");
        Lockstep {
            limit: deadlock_bound(traces),
            cores,
            traces,
            mem,
            now: 0,
        }
    }

    /// The next cycle to be stepped (cycles stepped so far).
    pub fn now(&self) -> u64 {
        self.now
    }

    /// The cores, in index order.
    pub fn cores(&self) -> &[Core] {
        self.cores
    }

    /// The shared memory system.
    pub fn mem(&self) -> &MemorySystem {
        self.mem
    }

    /// One machine cycle: every core in index order, then the memory
    /// system, then the clock.
    pub fn step(&mut self) {
        for (core, trace) in self.cores.iter_mut().zip(self.traces) {
            core.step(trace, self.mem, self.now);
        }
        self.mem.tick(self.now);
        self.now += 1;
    }

    /// Steps until `now() == cycle`, past finished cores too.
    pub fn run_to(&mut self, cycle: u64) {
        while self.now < cycle {
            self.step();
        }
    }

    /// Steps until every core has finished (`true`) or the deadlock bound
    /// is reached (`false`). Never panics.
    pub fn run(&mut self) -> bool {
        while !self.cores.iter().all(Core::is_finished) {
            if self.now >= self.limit {
                return false;
            }
            self.step();
        }
        true
    }

    /// Cuts power now: [`crash`] on every core's JIT checkpoint. The cores
    /// are dead until [`Lockstep::recover`].
    pub fn crash(&mut self, mid_flush: Option<u64>) -> Crash {
        let images: Vec<_> = self.cores.iter().map(Core::jit_checkpoint).collect();
        crash(&images, self.mem, mid_flush)
    }

    /// Recovers from `images` with [`recover_cores`]. The clock keeps
    /// running from the crash cycle and the deadlock bound restarts there.
    /// Returns the number of stores replayed.
    pub fn recover(&mut self, images: &[CheckpointImage]) -> usize {
        self.limit = self.now + deadlock_bound(self.traces);
        recover_cores(self.cores, self.mem, images)
    }
}

/// §4.5 for a whole machine whose cores' JIT checkpoints are `images`:
/// flushes the serialized images through the checkpoint controller
/// (interrupted `mid_flush` controller cycles in, if given), loses all
/// volatile memory state, and deserializes the durable stream.
pub fn crash(images: &[CheckpointImage], mem: &mut MemorySystem, mid_flush: Option<u64>) -> Crash {
    let stream = serialize_images(images);
    let flush = flush(&stream, mid_flush);
    mem.power_failure();
    let recovered = deserialize_images(&stream).expect("a completed flush must deserialize");
    Crash {
        stream_recovered: recovered == images,
        images: recovered,
        flush,
    }
}

/// §4.6 for a whole machine: replays each image's CSQ into NVM (core-index
/// order; §6 argues DRF makes any order correct) and rebuilds each core
/// from its image, still armed for profiling if it was. Returns the
/// number of stores replayed.
///
/// # Panics
///
/// Panics unless there is one image per core.
pub fn recover_cores(
    cores: &mut [Core],
    mem: &mut MemorySystem,
    images: &[CheckpointImage],
) -> usize {
    assert_eq!(images.len(), cores.len(), "one image per core");
    let mut replayed = 0;
    for (core, image) in cores.iter_mut().zip(images) {
        replayed += replay_stores(image, mem.nvm_image_mut()).replayed_stores;
        let prof_enabled = core.prof_enabled;
        *core = Core::recover(*core.config(), core.id(), image);
        core.prof_enabled = prof_enabled;
    }
    replayed
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::{CoreConfig, PersistenceMode};
    use ppa_isa::transform::{ReplayCachePass, TracePass};
    use ppa_isa::{ArchReg, TraceBuilder};
    use ppa_mem::MemConfig;

    #[test]
    fn rename_starved_core_hits_the_deadlock_bound_without_panicking() {
        // No physical register beyond the architectural ones: renaming a
        // destination never succeeds.
        let mut cfg = CoreConfig::paper_default(PersistenceMode::Baseline);
        cfg.int_prf = ppa_isa::NUM_INT_ARCH_REGS;
        let mut b = TraceBuilder::new("starved");
        b.alu(ArchReg::int(0), &[]);
        let traces = [b.build()];
        let mut mem = MemorySystem::new(MemConfig::memory_mode(), 1);
        let mut cores = [Core::new(cfg, 0)];
        let mut machine = Lockstep::new(&mut cores, &traces, &mut mem);
        assert!(!machine.run());
        assert_eq!(machine.now(), 1_000_000 + 2_000);
        assert_eq!(machine.cores()[0].committed(), 0);
        assert!(!machine.cores()[0].is_finished());
    }

    #[test]
    fn recovery_keeps_each_cores_profiling_switch() {
        let mut b = TraceBuilder::new("stores");
        for i in 0..32u64 {
            b.store(ArchReg::int(0), 0x1000 + i * 64, i);
        }
        let trace = b.build();
        let traces = [trace.clone(), trace];
        let mut mem = MemorySystem::new(MemConfig::memory_mode(), 2);
        let cfg = CoreConfig::paper_default(PersistenceMode::Ppa);
        let mut cores = [Core::new(cfg, 0), Core::new(cfg, 1)];
        cores[1].enable_profiling();
        let mut machine = Lockstep::new(&mut cores, &traces, &mut mem);
        machine.run_to(100);
        let crash = machine.crash(None);
        machine.recover(&crash.images);
        let armed: Vec<bool> = machine.cores().iter().map(|c| c.prof_enabled).collect();
        assert_eq!(armed, [false, true]);
    }

    #[test]
    fn run_to_keeps_draining_memory_past_finished_cores() {
        // A baseline core finishes without waiting for its clwbs, so the
        // write buffer still holds persists when it is done.
        let mut b = TraceBuilder::new("clwb");
        for i in 0..32u64 {
            b.store(ArchReg::int(0), 0x1000 + i * 64, i);
        }
        let traces = [ReplayCachePass::new().apply(&b.build())];
        let mut mem = MemorySystem::new(MemConfig::memory_mode(), 1);
        let mut cores = [Core::new(
            CoreConfig::paper_default(PersistenceMode::Baseline),
            0,
        )];
        let mut machine = Lockstep::new(&mut cores, &traces, &mut mem);
        assert!(machine.run());
        let done = machine.now();
        assert_eq!(machine.cores()[0].finished_at(), Some(done));
        assert!(machine.mem().persist_outstanding(0) > 0);

        machine.run_to(done + 10_000);
        assert_eq!(machine.now(), done + 10_000);
        assert_eq!(machine.mem().persist_outstanding(0), 0);
        assert_eq!(
            machine.cores()[0].stats().cycles,
            done,
            "finished cores stay put"
        );
    }
}
