//! The shared-memory multi-core machine: N cores, one memory hierarchy,
//! a deterministic interconnect, and whole-machine checkpoint/recovery.

use crate::arbiter::{
    check_arbiter_fairness, check_drain_log, ArbiterFault, DrainGrant, PersistArbiter,
};
use ppa_core::prof::{self, Timing};
use ppa_core::verify::{InvariantKind, Violation};
use ppa_core::{
    deadlock_bound, deserialize_images, flush, replay_stores, serialize_images, CheckpointImage,
    Core, CoreStats, Crash, Flush,
};
use ppa_isa::Trace;
use ppa_mem::{MemStats, MemorySystem, NvmImage};
use ppa_sim::SystemConfig;

/// One crash cell: what [`SmpSystem::crash_cell`] found when power failed
/// at the machine's current cycle. [`SmpSystem::sweep`] takes one at every
/// cycle.
#[derive(Debug, Clone)]
pub struct CrashCell {
    /// Words in the serialized machine checkpoint.
    pub words: u64,
    /// The tearing probe's flush, when one ran.
    pub torn: Option<Flush>,
    /// The images deserialized from the intact stream and the NVM image
    /// after replaying them; `None` if the stream failed to deserialize.
    pub recovered: Option<(Vec<CheckpointImage>, NvmImage)>,
}

/// Validates that the per-core recovery images are coherent: under DRF
/// single-writer discipline no word may appear in two cores' CSQs, since
/// §6 replays the images in arbitrary core order and an overlap would make
/// the recovered value order-dependent
/// ([`InvariantKind::RecoveryImageOverlap`]).
pub fn check_images(images: &[CheckpointImage]) -> Vec<Violation> {
    let mut out = Vec::new();
    let mut owner: std::collections::HashMap<u64, usize> = std::collections::HashMap::new();
    for (core, image) in images.iter().enumerate() {
        for entry in &image.csq {
            let word = entry.addr & !7;
            match owner.insert(word, core) {
                Some(prev) if prev != core => out.push(Violation {
                    kind: InvariantKind::RecoveryImageOverlap,
                    check: "machine-checkpoint",
                    cycle: 0,
                    core,
                    detail: format!(
                        "word {word:#x} appears in core {prev}'s and core {core}'s images"
                    ),
                }),
                _ => {}
            }
        }
    }
    out
}

/// Final report of an [`SmpSystem`] run.
#[derive(Debug, Clone)]
pub struct SmpReport {
    /// Wall-clock cycles until the last core finished.
    pub cycles: u64,
    /// Micro-ops committed across all cores.
    pub committed: u64,
    /// Whether the NVM image matched architectural memory at completion.
    pub consistent: bool,
    /// Drain certificates the persist arbiter issued.
    pub drain_grants: usize,
    /// Per-core execution statistics.
    pub core_stats: Vec<CoreStats>,
    /// Memory-system statistics.
    pub mem_stats: MemStats,
}

/// A live shared-memory multi-core PPA machine.
///
/// Unlike [`ppa_sim::Machine`] (a stateless runner that locksteps
/// independent cores), `SmpSystem` is a stepped object: cores are serviced
/// in rotating interconnect order, sync-region drains are serialized
/// through the [`PersistArbiter`], and the whole machine can be
/// checkpointed, power-failed, and recovered at any cycle. It crashes,
/// recovers and bounds itself exactly as [`ppa_core::Lockstep`] does
/// ([`ppa_core::crash`], [`ppa_core::recover_cores`],
/// [`ppa_core::deadlock_bound`]).
///
/// # Examples
///
/// ```
/// use ppa_sim::SystemConfig;
/// use ppa_smp::SmpSystem;
/// use ppa_workloads::shared;
///
/// let app = shared::by_name("counters").unwrap();
/// let cfg = SystemConfig::ppa().with_threads(2);
/// let traces = app.generate_threads(1_000, 1, 2);
/// let report = SmpSystem::new(cfg, traces).run();
/// assert_eq!(report.committed, 2_000);
/// assert!(report.consistent);
/// ```
#[derive(Debug)]
pub struct SmpSystem {
    cfg: SystemConfig,
    cores: Vec<Core>,
    traces: Vec<Trace>,
    mem: MemorySystem,
    arbiter: PersistArbiter,
    duplicate_image_fault: bool,
    /// Current cycle, which is also the number of cycles stepped: only
    /// [`step`](Self::step) advances it.
    now: u64,
    /// Drain grants the arbiter issued before recoveries cleared its log.
    grants_before_recovery: u64,
    /// The deadlock bound [`step`](Self::step) asserts.
    limit: u64,
    /// Whether phase timing is armed ([`ppa_sim::set_profiling`] when
    /// the machine was built).
    prof_enabled: bool,
    /// Per-phase cost accounting, aligned with [`SMP_PHASES`].
    phase_timing: [Timing; 3],
}

/// The machine phases [`SmpSystem::step`] attributes time to, in
/// execution order within a cycle.
const SMP_PHASES: [&str; 3] = ["cores", "arbiter", "mem"];

impl SmpSystem {
    /// Builds a machine with one core per trace. The machine starts cold
    /// (no prewarm): multi-core runs compare configurations against each
    /// other, so steady-state warmth cancels out.
    ///
    /// # Panics
    ///
    /// Panics if `traces` is empty.
    pub fn new(cfg: SystemConfig, traces: Vec<Trace>) -> Self {
        assert!(!traces.is_empty(), "need at least one trace");
        let n = traces.len();
        let mut cores: Vec<Core> = (0..n).map(|i| Core::new(cfg.core, i)).collect();
        let prof_enabled = ppa_sim::profiling_enabled();
        if prof_enabled {
            for core in &mut cores {
                core.enable_profiling();
            }
        }
        SmpSystem {
            cores,
            mem: MemorySystem::new(cfg.mem, n),
            arbiter: PersistArbiter::new(n),
            duplicate_image_fault: false,
            now: 0,
            grants_before_recovery: 0,
            limit: deadlock_bound(&traces),
            cfg,
            traces,
            prof_enabled,
            phase_timing: SMP_PHASES.map(Timing::new),
        }
    }

    /// The machine's configuration.
    pub fn config(&self) -> &SystemConfig {
        &self.cfg
    }

    /// The cores, indexed by id.
    pub fn cores(&self) -> &[Core] {
        &self.cores
    }

    /// The shared memory hierarchy.
    pub fn mem(&self) -> &MemorySystem {
        &self.mem
    }

    /// The persist arbiter's grant log.
    pub fn drain_log(&self) -> &[DrainGrant] {
        self.arbiter.log()
    }

    /// Current cycle.
    pub fn now(&self) -> u64 {
        self.now
    }

    /// Whether every core has committed its whole trace.
    pub fn is_finished(&self) -> bool {
        self.cores.iter().all(Core::is_finished)
    }

    /// Injects a deliberate defect for mutation self-tests.
    pub fn inject_arbiter_fault(&mut self, fault: ArbiterFault) {
        if fault == ArbiterFault::DuplicateImageEntry {
            self.duplicate_image_fault = true;
        } else {
            self.arbiter.inject_fault(fault);
        }
    }

    /// Advances the machine one cycle: cores step in rotating interconnect
    /// order (skipping cores stalled on an uncertified drain), the arbiter
    /// observes and grants, and the memory system ticks.
    ///
    /// # Panics
    ///
    /// Panics if the machine is at its deadlock bound
    /// ([`ppa_core::deadlock_bound`], restarted by [`recover`](Self::recover)).
    pub fn step(&mut self) {
        assert!(
            self.now < self.limit,
            "smp machine deadlocked after {} cycles",
            self.now
        );
        if self.prof_enabled {
            let t0 = std::time::Instant::now();
            self.step_cores();
            let t1 = std::time::Instant::now();
            self.arbiter.tick(self.now, &self.cores, &self.mem);
            let t2 = std::time::Instant::now();
            self.mem.tick(self.now);
            let t3 = std::time::Instant::now();
            self.phase_timing[0].add(t1 - t0);
            self.phase_timing[1].add(t2 - t1);
            self.phase_timing[2].add(t3 - t2);
            self.now += 1;
            return;
        }
        self.step_cores();
        self.arbiter.tick(self.now, &self.cores, &self.mem);
        self.mem.tick(self.now);
        self.now += 1;
    }

    /// One interconnect rotation: every unstalled core steps once.
    fn step_cores(&mut self) {
        let n = self.cores.len();
        for k in 0..n {
            let c = (self.now as usize + k) % n;
            if self.arbiter.is_stalled(c) {
                continue;
            }
            self.cores[c].step(&self.traces[c], &mut self.mem, self.now);
        }
    }

    /// Runs until `cycle` (useful for positioning a power failure).
    pub fn run_to(&mut self, cycle: u64) {
        while self.now < cycle {
            self.step();
        }
    }

    /// Runs to completion (all cores finished, all drains certified).
    ///
    /// # Panics
    ///
    /// Panics if the machine deadlocks ([`ppa_core::deadlock_bound`]).
    pub fn run(mut self) -> SmpReport {
        self.run_in_place()
    }

    /// Like [`run`](Self::run), but keeps the machine alive so the final
    /// NVM image and grant log stay inspectable (the crash oracle diffs
    /// them against its independent golden model).
    pub fn run_in_place(&mut self) -> SmpReport {
        while !self.is_finished() || self.arbiter.has_pending() {
            self.step();
        }
        let cycles = self
            .cores
            .iter()
            .map(|c| c.finished_at().expect("all cores finished"))
            .max()
            .unwrap_or(0);
        let committed: u64 = self.cores.iter().map(Core::committed).sum();
        // Once-per-run telemetry, mirroring the single-core machine's
        // sim.* counters for the multi-core path. Stepped cycles and
        // drain grants are lifted on drop, so hand-stepped machines count.
        ppa_obs::registry::counter("smp.machine.runs").inc();
        ppa_obs::registry::counter("smp.uops.committed").add(committed);
        // Lift (and drain) the phase accumulators so a second run of a
        // kept-alive machine cannot double-count them.
        let phases = prof::counters("prof.smp", &self.phase_timing);
        self.phase_timing = SMP_PHASES.map(Timing::new);
        for (name, value) in phases.into_iter().chain(prof::stage_counters(&self.cores)) {
            ppa_obs::registry::counter(&name).add(value);
        }
        SmpReport {
            cycles,
            committed,
            consistent: self.consistent(),
            drain_grants: self.arbiter.log().len(),
            core_stats: self.cores.iter().map(|c| c.stats().clone()).collect(),
            mem_stats: self.mem.stats(),
        }
    }

    /// Whether the NVM image currently matches architectural memory.
    pub fn consistent(&self) -> bool {
        self.mem.nvm_image().diff(self.mem.arch_mem()).is_empty()
    }

    /// Takes the whole machine's JIT checkpoint: one image per core, taken
    /// atomically (the paper's residual-energy window covers all cores —
    /// each flushes its own 1838-byte worst case in parallel).
    pub fn jit_checkpoint(&self) -> Vec<CheckpointImage> {
        let mut images: Vec<CheckpointImage> =
            self.cores.iter().map(Core::jit_checkpoint).collect();
        if self.duplicate_image_fault && images.len() >= 2 {
            if let Some(entry) = images[0].csq.first().copied() {
                let value = images[0].reg_value(entry.src).unwrap_or(0);
                images[1].csq.push(entry);
                if images[1].reg_value(entry.src).is_none() {
                    images[1].prf_values.push((entry.src, value));
                }
            }
        }
        images
    }

    /// The crash cell [`sweep`](Self::sweep) takes at every cycle:
    /// JIT-checkpoint the machine, serialize the images, optionally tear
    /// the flush at interrupt `tear % words` ([`ppa_core::flush`]),
    /// deserialize the intact stream and replay it into a clone of the
    /// live NVM image. Power failure never touches NVM, so the clone *is*
    /// the post-crash image; the machine itself is left untouched.
    pub fn crash_cell(&self, tear: Option<u64>) -> CrashCell {
        let stream = serialize_images(&self.jit_checkpoint());
        let words = stream.len() as u64;
        CrashCell {
            words,
            torn: tear.map(|t| flush(&stream, Some(t % words))),
            recovered: deserialize_images(&stream).map(|images| {
                let nvm = self.replayed_nvm(&images);
                (images, nvm)
            }),
        }
    }

    /// One forward run with a crash cell at every cycle, the final state
    /// included, until every core has finished. `tear(cycle)` is the
    /// cell's torn-flush interrupt ([`crash_cell`](Self::crash_cell));
    /// `judge` sees the machine, the cycle and the cell. Returns the number
    /// of cells.
    pub fn sweep(
        &mut self,
        mut tear: impl FnMut(u64) -> Option<u64>,
        mut judge: impl FnMut(&SmpSystem, u64, CrashCell),
    ) -> u64 {
        let mut cells = 0;
        loop {
            let cycle = self.now;
            judge(self, cycle, self.crash_cell(tear(cycle)));
            cells += 1;
            if self.is_finished() {
                return cells;
            }
            self.step();
        }
    }

    /// A clone of the live NVM image with every image's CSQ replayed into
    /// it, in core order.
    pub fn replayed_nvm(&self, images: &[CheckpointImage]) -> NvmImage {
        let mut nvm = self.mem.nvm_image().clone();
        for image in images {
            replay_stores(image, &mut nvm);
        }
        nvm
    }

    /// Cuts power now: [`ppa_core::crash`] on the machine's
    /// [`jit_checkpoint`](Self::jit_checkpoint). All volatile state
    /// (caches, DRAM, write buffers) dies; the NVM image and WPQ-accepted
    /// writes survive. The cores are dead until [`recover`](Self::recover).
    pub fn crash(&mut self, mid_flush: Option<u64>) -> Crash {
        ppa_core::crash(&self.jit_checkpoint(), &mut self.mem, mid_flush)
    }

    /// Recovers the machine from a checkpoint per §4.6/§6 with
    /// [`ppa_core::recover_cores`] (order across cores is immaterial under
    /// DRF — [`check_images`] validates that). The clock keeps running
    /// from the crash cycle and the deadlock bound restarts there. Returns
    /// the number of replayed stores.
    ///
    /// # Panics
    ///
    /// Panics if the checkpoint's core count differs from the machine's.
    pub fn recover(&mut self, images: &[CheckpointImage]) -> usize {
        self.limit = self.now + deadlock_bound(&self.traces);
        let replayed = ppa_core::recover_cores(&mut self.cores, &mut self.mem, images);
        self.grants_before_recovery += self.arbiter.log().len() as u64;
        self.arbiter.reset(&self.cores);
        replayed
    }

    /// Runs the machine-level validators: the drain-log total-order and
    /// persist-before-dependence checks, the grant port's observed
    /// round-robin fairness, plus recovery-image coherence on a
    /// checkpoint taken now. Empty on a correct machine.
    pub fn validate(&self) -> Vec<Violation> {
        let mut v = check_drain_log(
            self.arbiter.log(),
            self.cores.len(),
            self.arbiter.grants_per_cycle(),
        );
        v.extend(check_arbiter_fairness(self.arbiter.log(), self.cores.len()));
        v.extend(check_images(&self.jit_checkpoint()));
        v
    }
}

/// Lifts the machine's stepped cycles and drain grants into
/// `smp.cycles.total` and `smp.drain.grants`, once per machine, however
/// it was driven: [`SmpSystem::run`], [`SmpSystem::run_to`],
/// [`SmpSystem::sweep`] (the litmus runner and the exhaustive crash
/// sweep) or [`SmpSystem::step`] by hand. Skipped while unwinding, so a
/// drop cannot panic twice.
impl Drop for SmpSystem {
    fn drop(&mut self) {
        if self.now == 0 || std::thread::panicking() {
            return;
        }
        let grants = self.grants_before_recovery + self.arbiter.log().len() as u64;
        ppa_obs::registry::counter("smp.cycles.total").add(self.now);
        ppa_obs::registry::counter("smp.drain.grants").add(grants);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ppa_core::{CsqEntry, PhysReg};
    use ppa_isa::RegClass;

    fn image(entries: &[(u64, u64)]) -> CheckpointImage {
        let csq = entries
            .iter()
            .enumerate()
            .map(|(i, &(addr, _))| CsqEntry {
                src: PhysReg::new(RegClass::Int, i as u16),
                addr,
                size: 8,
            })
            .collect();
        let prf_values = entries
            .iter()
            .enumerate()
            .map(|(i, &(_, v))| (PhysReg::new(RegClass::Int, i as u16), v))
            .collect();
        CheckpointImage {
            csq,
            crt: vec![],
            masked: vec![],
            prf_values,
            lcpc: 0x1000,
            committed: entries.len() as u64,
        }
    }

    #[test]
    fn disjoint_images_are_coherent() {
        let images = [image(&[(0x100, 1), (0x108, 2)]), image(&[(0x200, 3)])];
        assert!(check_images(&images).is_empty());
    }

    #[test]
    fn same_core_rewrite_is_fine() {
        // One core storing the same word twice is ordered by its own CSQ.
        let images = [image(&[(0x100, 1), (0x100, 2)])];
        assert!(check_images(&images).is_empty());
    }

    #[test]
    fn cross_core_overlap_is_flagged() {
        let images = [image(&[(0x100, 1)]), image(&[(0x104, 2)])]; // same word
        let v = check_images(&images);
        assert_eq!(v.len(), 1);
        assert_eq!(v[0].kind, InvariantKind::RecoveryImageOverlap);
    }
}
