use crate::config::{CoreConfig, PersistenceMode};
use crate::events::{EventLog, PipelineEvent};
use crate::ppa::checkpoint::CheckpointImage;
use crate::ppa::csq::{Csq, CsqEntry};
use crate::ppa::mask::MaskReg;
use crate::prf::{PhysReg, Prf};
use crate::rename::RenameTable;
use crate::stats::{CoreStats, RegionEndCause};
use crate::verify::{CoreView, FaultKind, RobSlot};
#[cfg(feature = "verify")]
use crate::verify::{Validator, Violation};
use crate::window::{DstInfo, RobEntry, Window};
use ppa_isa::{ArchReg, Trace, UopKind};
use ppa_mem::MemorySystem;
use std::borrow::Cow;

/// The cycle-level out-of-order core.
///
/// A 4-wide (configurable) pipeline with register renaming over a unified
/// physical register file, a reorder buffer, an issue queue, and load/store
/// queues — the §2.1 machinery — extended with PPA's additions: the
/// MaskReg, the committed store queue (CSQ), the last-committed-PC
/// register (LCPC), dynamic region formation at free-list exhaustion, and
/// the commit-side hooks for asynchronous store persistence. The same core
/// executes the ReplayCache and Capri baselines by honouring their
/// trace-embedded persist barriers, and the plain baseline by ignoring
/// persistence entirely.
///
/// Drive it with [`Core::run`] for a single core to completion, or put it
/// in a [`crate::Lockstep`] machine to step, crash and recover it cycle by
/// cycle alongside other cores.
///
/// # Examples
///
/// ```
/// use ppa_core::{Core, CoreConfig, PersistenceMode};
/// use ppa_isa::{ArchReg, TraceBuilder};
/// use ppa_mem::{MemConfig, MemorySystem};
///
/// let mut b = TraceBuilder::new("t");
/// b.alu(ArchReg::int(0), &[]);
/// b.store(ArchReg::int(0), 0x100, 42);
/// let trace = b.build();
///
/// let mut mem = MemorySystem::new(MemConfig::memory_mode(), 1);
/// let mut core = Core::new(CoreConfig::paper_default(PersistenceMode::Ppa), 0);
/// let cycles = core.run(&trace, &mut mem);
/// assert!(cycles > 0);
/// assert_eq!(mem.nvm_image().read(0x100), Some(42));
/// ```
#[derive(Debug)]
pub struct Core {
    cfg: CoreConfig,
    id: usize,
    fetch_idx: usize,
    /// The ROB and the issue queue with its wake-up scheduler.
    rob: Window,
    prf: Prf,
    rat: RenameTable,
    crt: RenameTable,
    mask: MaskReg,
    csq: Csq,
    /// Physical registers whose redefinition committed while they were
    /// masked; reclaimed at the next region boundary (§3.3).
    deferred_frees: Vec<PhysReg>,
    lcpc: u64,
    committed: u64,
    /// Completion times of in-flight loads occupying LQ entries.
    lq_release: Vec<u64>,
    /// Renamed loads that have not issued yet.
    lq_pending: usize,
    /// Drain times of committed stores still occupying SQ entries.
    sq_release: Vec<u64>,
    /// Renamed stores/clwbs that have not committed yet.
    sq_pending: usize,
    /// A PPA region boundary is in progress at the rename stage.
    barrier_pending: bool,
    region_insts: u64,
    region_stores: u64,
    finished_at: Option<u64>,
    stats: CoreStats,
    event_log: Option<EventLog>,
    /// Attached cycle-level checks (the `verify` feature's hook).
    #[cfg(feature = "verify")]
    validators: Vec<Box<dyn Validator>>,
    /// Per-validator cost accounting, aligned with `validators`.
    #[cfg(feature = "verify")]
    validator_timing: Vec<crate::verify::ValidatorTiming>,
    /// Violations the attached validators have reported so far.
    #[cfg(feature = "verify")]
    violations: Vec<Violation>,
    /// The validators' ROB snapshot, refilled every checked cycle.
    #[cfg(feature = "verify")]
    rob_slots: Vec<RobSlot>,
    /// The validators' IQ snapshot, read from the IQ mask every checked
    /// cycle.
    #[cfg(feature = "verify")]
    iq_seqs: Vec<u64>,
    /// Deliberately injected bugs (mutation self-tests).
    #[cfg(feature = "verify")]
    faults: Vec<FaultKind>,
    /// Per-stage cost accounting (the `prof` feature's hook), aligned
    /// with [`crate::prof::STAGES`].
    #[cfg(feature = "prof")]
    stage_timing: Vec<crate::prof::StageTiming>,
    /// Whether stage timing is armed; a prof-enabled build with
    /// profiling off pays one branch per step.
    #[cfg(feature = "prof")]
    prof_enabled: bool,
}

impl Core {
    /// Creates a core with every architectural register mapped to a fresh
    /// physical register holding zero.
    pub fn new(cfg: CoreConfig, id: usize) -> Self {
        let mut prf = Prf::new(cfg.int_prf, cfg.fp_prf);
        let mut rat = RenameTable::new();
        let mut crt = RenameTable::new();
        for a in ArchReg::all() {
            let p = prf
                .allocate(a.class(), 0)
                .expect("PRF larger than architectural state");
            prf.force_architectural(p, 0);
            rat.set(a, p);
            crt.set(a, p);
        }
        let stats = CoreStats::new(&cfg);
        Core {
            id,
            fetch_idx: 0,
            rob: Window::new(cfg.rob_entries, cfg.int_prf, cfg.fp_prf, 0),
            prf,
            rat,
            crt,
            mask: MaskReg::new(cfg.int_prf, cfg.fp_prf),
            csq: Csq::new(cfg.csq_entries),
            deferred_frees: Vec::new(),
            lcpc: 0,
            committed: 0,
            lq_release: Vec::new(),
            lq_pending: 0,
            sq_release: Vec::new(),
            sq_pending: 0,
            barrier_pending: false,
            region_insts: 0,
            region_stores: 0,
            finished_at: None,
            stats,
            event_log: None,
            #[cfg(feature = "verify")]
            validators: Vec::new(),
            #[cfg(feature = "verify")]
            validator_timing: Vec::new(),
            #[cfg(feature = "verify")]
            violations: Vec::new(),
            #[cfg(feature = "verify")]
            rob_slots: Vec::new(),
            #[cfg(feature = "verify")]
            iq_seqs: Vec::new(),
            #[cfg(feature = "verify")]
            faults: Vec::new(),
            #[cfg(feature = "prof")]
            stage_timing: crate::prof::STAGES
                .iter()
                .map(|s| crate::prof::StageTiming::new(s))
                .collect(),
            #[cfg(feature = "prof")]
            prof_enabled: false,
            cfg,
        }
    }

    /// The core's configuration.
    pub fn config(&self) -> &CoreConfig {
        &self.cfg
    }

    /// The core's identifier (index into the memory system).
    pub fn id(&self) -> usize {
        self.id
    }

    /// Execution statistics.
    pub fn stats(&self) -> &CoreStats {
        &self.stats
    }

    /// Micro-ops committed so far.
    pub fn committed(&self) -> u64 {
        self.committed
    }

    /// The last committed program counter (the LCPC register).
    pub fn lcpc(&self) -> u64 {
        self.lcpc
    }

    /// Current CSQ occupancy (test/diagnostic hook).
    pub fn csq_len(&self) -> usize {
        self.csq.len()
    }

    /// Number of masked physical registers (test/diagnostic hook).
    pub fn masked_count(&self) -> usize {
        self.mask.masked_count()
    }

    /// Starts recording pipeline events (Figure 2/6-style walkthroughs),
    /// keeping at most `capacity` of them.
    pub fn enable_event_log(&mut self, capacity: usize) {
        self.event_log = Some(EventLog::with_capacity(capacity));
    }

    /// The recorded pipeline events, if logging was enabled.
    pub fn event_log(&self) -> Option<&EventLog> {
        self.event_log.as_ref()
    }

    fn log(&mut self, ev: PipelineEvent) {
        if let Some(log) = self.event_log.as_mut() {
            log.push(ev);
        }
    }

    /// Whether the core has committed its whole trace and drained.
    pub fn is_finished(&self) -> bool {
        self.finished_at.is_some()
    }

    /// Cycle at which the core finished, if it has.
    pub fn finished_at(&self) -> Option<u64> {
        self.finished_at
    }

    fn drained(&self, mem: &MemorySystem, now: u64) -> bool {
        match self.cfg.mode {
            PersistenceMode::Baseline => true,
            PersistenceMode::Ppa | PersistenceMode::ReplayCache => {
                mem.persist_outstanding(self.id) == 0
            }
            PersistenceMode::Capri => mem.capri_drained_at(self.id) <= now,
        }
    }

    fn end_region(&mut self, cause: RegionEndCause, now: u64) {
        let reclaimed = self.deferred_frees.len();
        if self.fault_active(FaultKind::LeakDeferredFrees) {
            self.deferred_frees.clear();
        }
        for p in std::mem::take(&mut self.deferred_frees) {
            self.prf.free(p);
        }
        self.mask.clear();
        self.csq.clear();
        self.log(PipelineEvent::RegionEnd {
            cycle: now,
            cause,
            insts: self.region_insts,
            stores: self.region_stores,
            reclaimed,
        });
        self.stats
            .record_region(self.region_insts, self.region_stores, cause);
        self.region_insts = 0;
        self.region_stores = 0;
        #[cfg(debug_assertions)]
        self.check_invariants(now);
    }

    /// Region-boundary sanity check in debug builds, expressed through the
    /// structured snapshot checks of [`crate::verify`] (the old scattered
    /// asserts, now named invariants). Skipped when validators or faults
    /// are attached — structured reporting owns detection then, and a
    /// panic here would pre-empt the violation record the mutation
    /// self-tests assert on.
    #[cfg(debug_assertions)]
    fn check_invariants(&self, now: u64) {
        #[cfg(feature = "verify")]
        if !self.validators.is_empty() || !self.faults.is_empty() {
            return;
        }
        let violations = crate::verify::check_snapshot(&self.verify_view(now));
        assert!(
            violations.is_empty(),
            "invariant violations at a region boundary: {violations:#?}"
        );
    }

    /// Advances the core one cycle. The caller must advance the memory
    /// system once per cycle as well; [`crate::Lockstep::step`] does both.
    pub fn step(&mut self, trace: &Trace, mem: &mut MemorySystem, now: u64) {
        if self.finished_at.is_some() {
            return;
        }
        // Figure 5 sampling: free registers, every cycle, at rename.
        self.stats
            .free_int_cdf
            .record(self.prf.free_count(ppa_isa::RegClass::Int) as u64);
        self.stats
            .free_fp_cdf
            .record(self.prf.free_count(ppa_isa::RegClass::Fp) as u64);

        self.lq_release.retain(|&t| t > now);
        self.sq_release.retain(|&t| t > now);

        self.step_stages(trace, mem, now);

        #[cfg(feature = "verify")]
        self.run_validators(now);

        if self.fetch_idx >= trace.len() && self.rob.is_empty() {
            if self.drained(mem, now) {
                if self.cfg.mode == PersistenceMode::Ppa && self.region_insts > 0 {
                    self.end_region(RegionEndCause::ProgramEnd, now);
                }
                self.finished_at = Some(now + 1);
                self.stats.cycles = now + 1;
            } else {
                // Waiting for the final region's stores to persist.
                self.stats.region_end_stall_cycles += 1;
            }
        }
    }

    fn commit(&mut self, mem: &mut MemorySystem, now: u64) {
        let mut commits = 0;
        while commits < self.cfg.width {
            let Some(head) = self.rob.front() else { break };
            if !head.issued || head.complete_at > now {
                break;
            }
            let kind = head.kind;
            let mem_ref = head.mem;
            let store_data = head.store_data;

            // Ablation: statically forced region boundaries. The next
            // commit after the interval elapses waits for the region's
            // persistence, exactly like an organic boundary.
            if self.cfg.mode == PersistenceMode::Ppa {
                if let Some(interval) = self.cfg.forced_region_interval {
                    if self.region_insts >= interval {
                        if mem.persist_outstanding(self.id) > 0 {
                            self.stats.region_end_stall_cycles += 1;
                            break;
                        }
                        self.end_region(RegionEndCause::Forced, now);
                    }
                }
            }

            // Mode- and kind-specific commit gating.
            match kind {
                UopKind::Store if self.cfg.mode == PersistenceMode::Ppa => {
                    if self.csq.is_full() {
                        if mem.persist_outstanding(self.id) > 0 {
                            self.stats.region_end_stall_cycles += 1;
                            break;
                        }
                        // Implicit region boundary: all prior stores are
                        // persisted, so rotate the region and continue.
                        self.end_region(RegionEndCause::CsqFull, now);
                    }
                    let addr = mem_ref.expect("store has an address").addr;
                    if !mem.persist_has_room(self.id, addr) {
                        self.stats.region_end_stall_cycles += 1;
                        break;
                    }
                }
                UopKind::Sync(_) if self.cfg.mode == PersistenceMode::Ppa => {
                    // §6: a synchronisation primitive cannot commit until
                    // every store of its region is persisted and the CSQ
                    // is emptied.
                    if mem.persist_outstanding(self.id) > 0 {
                        self.stats.region_end_stall_cycles += 1;
                        break;
                    }
                    self.end_region(RegionEndCause::Sync, now);
                }
                UopKind::Clwb => {
                    let addr = mem_ref.expect("clwb has an address").addr;
                    if !mem.clwb_enqueue(self.id, addr, now) {
                        self.stats.barrier_commit_stall_cycles += 1;
                        break;
                    }
                }
                UopKind::PersistBarrier => match self.cfg.mode {
                    PersistenceMode::ReplayCache if mem.persist_outstanding(self.id) > 0 => {
                        self.stats.barrier_commit_stall_cycles += 1;
                        break;
                    }
                    PersistenceMode::Capri => {
                        // The redo buffer is battery-backed: the barrier
                        // waits for room for the next region's worst-case
                        // store bytes (32 insts x 8 B), plus a commit-side
                        // ordering handshake with the redo-buffer
                        // controller (the region cannot be sealed before
                        // its log entries are ordered).
                        if !mem.capri_has_room(self.id, now, 32 * 8) {
                            self.stats.barrier_commit_stall_cycles += 1;
                            break;
                        }
                        let head = self.rob.front_mut().expect("checked above");
                        if !head.barrier_armed {
                            head.barrier_armed = true;
                            head.complete_at = now + self.cfg.capri_barrier_bubble;
                            self.stats.barrier_commit_stall_cycles += 1;
                            break;
                        }
                    }
                    _ => {}
                },
                _ => {}
            }

            let entry = self.rob.pop_front().expect("checked above");

            // Architectural register state: CRT update plus reclamation of
            // the previous mapping (deferred when masked — store integrity).
            if let Some(d) = entry.dst {
                self.crt.set(d.arch, d.phys);
                if let Some(prev) = d.prev {
                    if self.cfg.mode == PersistenceMode::Ppa
                        && self.mask.is_masked(prev)
                        && !self.fault_active(FaultKind::EagerFreeMasked)
                    {
                        self.deferred_frees.push(prev);
                    } else {
                        self.prf.free(prev);
                    }
                }
            }

            // Memory and persistence effects.
            match entry.kind {
                UopKind::Store => {
                    let m = entry.mem.expect("store has a memory reference");
                    let merge_lat = mem.store_merge(self.id, m.addr, now);
                    self.sq_pending -= 1;
                    self.sq_release.push(now + merge_lat);
                    mem.commit_store_value(m.addr, m.value);
                    self.stats.committed_stores += 1;
                    self.region_stores += 1;
                    match self.cfg.mode {
                        PersistenceMode::Ppa => {
                            let data = store_data.expect("PPA stores carry a data register");
                            if !self.fault_active(FaultKind::SkipCsqEntry) {
                                self.csq
                                    .push(CsqEntry {
                                        src: data,
                                        addr: m.addr,
                                        size: m.size,
                                    })
                                    .expect("CSQ rotation guarantees room");
                            }
                            if !self.fault_active(FaultKind::SkipMaskPin) {
                                self.mask.mask(data);
                            }
                            self.log(PipelineEvent::StoreTracked {
                                cycle: now,
                                addr: m.addr,
                                data_reg: data,
                                csq_occupancy: self.csq.len(),
                            });
                            let ok = mem.persist_enqueue(self.id, m.addr, now);
                            debug_assert!(ok, "room was checked before commit");
                        }
                        PersistenceMode::Capri => {
                            mem.capri_enqueue(self.id, m.addr, m.value, m.size as u64, now);
                        }
                        PersistenceMode::ReplayCache | PersistenceMode::Baseline => {}
                    }
                }
                UopKind::Clwb => {
                    // Persist already enqueued in the gating step above.
                    self.sq_pending -= 1;
                    self.sq_release.push(now + 1);
                }
                _ => {}
            }

            self.log(PipelineEvent::Commit {
                cycle: now,
                pc: entry.pc,
                kind: entry.kind,
            });
            self.lcpc = entry.pc;
            self.committed += 1;
            self.stats.committed_uops += 1;
            self.region_insts += 1;
            commits += 1;
        }
    }

    /// Issues up to `width` ready micro-ops, oldest first. Readiness is
    /// event-driven (see [`crate::window`]): the scheduler's ready mask
    /// holds exactly the IQ entries whose sources are all ready at `now`.
    fn issue(&mut self, mem: &mut MemorySystem, now: u64) {
        self.rob.wake_due(now);
        let mut issued = 0;
        let mut from = 0;
        while issued < self.cfg.width {
            let Some(at) = self.rob.next_ready(from) else {
                break;
            };
            from = at + 1;
            let entry = *self.rob.get(at);
            let kind = entry.kind;

            let complete_at = match kind {
                UopKind::Load => {
                    let m = entry.mem.expect("load has an address");
                    let lat = mem.load(self.id, m.addr, now);
                    // The loaded value lands in the destination register.
                    if let Some(d) = entry.dst {
                        let v = mem.functional_read(m.addr);
                        self.prf.set_value(d.phys, v);
                    }
                    self.lq_pending -= 1;
                    let done = now + lat;
                    self.lq_release.push(done);
                    done
                }
                UopKind::Store => {
                    // Address generation; the data register is
                    // back-annotated with the stored value so the PRF holds
                    // what recovery will replay.
                    if let Some(data) = entry.store_data {
                        let m = entry.mem.expect("store has a memory reference");
                        self.prf.set_value(data, m.value);
                    }
                    now + u64::from(kind.exec_latency())
                }
                UopKind::Sync(_) => {
                    now + u64::from(kind.exec_latency()) + self.cfg.sync_extra_latency
                }
                _ => now + u64::from(kind.exec_latency()),
            };

            if let Some(d) = entry.dst {
                if kind != UopKind::Load {
                    // ALU semantics are not modelled: give the register a
                    // deterministic token value so it is never garbage.
                    self.prf.set_value(d.phys, entry.pc);
                }
                self.prf.set_ready_at(d.phys, complete_at);
            }
            self.rob.mark_issued(at, complete_at);
            issued += 1;
        }
    }

    fn rename(&mut self, trace: &Trace, mem: &mut MemorySystem, now: u64) {
        // A PPA region boundary blocks renaming until the ROB drains and
        // every store of the region is persisted (§4.2).
        if self.barrier_pending {
            self.stats.rename_stall_cycles += 1;
            self.stats.rename_noreg_stall_cycles += 1;
            if self.rob.is_empty() {
                if mem.persist_outstanding(self.id) == 0 {
                    self.end_region(RegionEndCause::PrfExhausted, now);
                    self.barrier_pending = false;
                } else {
                    self.stats.region_end_stall_cycles += 1;
                    return;
                }
            } else {
                return;
            }
        }

        let mut renamed = 0;
        let mut blocked_no_reg = false;
        let mut blocked_sq = false;
        while renamed < self.cfg.width {
            let Some(u) = trace.get(self.fetch_idx) else {
                break;
            };
            if self.rob.len() >= self.cfg.rob_entries || self.rob.iq_len() >= self.cfg.iq_entries {
                break;
            }
            if u.kind.needs_lq_entry()
                && self.lq_pending + self.lq_release.len() >= self.cfg.lq_entries
            {
                break;
            }
            if u.kind.needs_sq_entry()
                && self.sq_pending + self.sq_release.len() >= self.cfg.sq_entries
            {
                blocked_sq = true;
                break;
            }

            // Destination allocation — the PPA region-boundary trigger.
            let dst = match u.dst {
                Some(arch) => match self.prf.allocate(arch.class(), u64::MAX) {
                    Some(phys) => Some((arch, phys)),
                    None => {
                        blocked_no_reg = true;
                        if self.cfg.mode == PersistenceMode::Ppa && !self.barrier_pending {
                            // Inject a persist barrier right before this
                            // instruction (§4.2).
                            self.barrier_pending = true;
                            self.log(PipelineEvent::BarrierInjected { cycle: now });
                        }
                        break;
                    }
                },
                None => None,
            };

            // Source renaming through the RAT (before the RAT update, so
            // `r0 = r0 + 1` reads the old mapping).
            let mut srcs = [None; 3];
            for (slot, s) in u.sources().enumerate() {
                srcs[slot] = Some(self.rat.get(s).expect("all architectural registers map"));
            }
            let store_data = if u.kind.is_store() { srcs[0] } else { None };
            debug_assert!(
                !u.kind.is_store() || store_data.is_some(),
                "stores must name a data register"
            );

            let dst_info = dst.map(|(arch, phys)| DstInfo {
                arch,
                phys,
                prev: self.rat.set(arch, phys),
            });

            let mut entry = RobEntry::new(u.pc, u.kind);
            entry.srcs = srcs;
            entry.dst = dst_info;
            entry.store_data = store_data;
            entry.mem = u.mem;
            self.rob.push(entry, now, |p| self.prf.ready_at(p));
            if u.kind.needs_lq_entry() {
                self.lq_pending += 1;
            }
            if u.kind.needs_sq_entry() {
                self.sq_pending += 1;
            }
            self.fetch_idx += 1;
            renamed += 1;
        }

        if renamed == 0 && self.fetch_idx < trace.len() {
            self.stats.rename_stall_cycles += 1;
            if blocked_no_reg {
                self.stats.rename_noreg_stall_cycles += 1;
            }
            if blocked_sq {
                self.stats.sq_full_stall_cycles += 1;
            }
        }
    }

    /// Runs the core to completion on a fresh single-core memory system
    /// (a one-core [`crate::Lockstep`] from cycle zero), returning the
    /// cycle count.
    ///
    /// # Panics
    ///
    /// Panics if the core hits the lockstep deadlock bound.
    pub fn run(&mut self, trace: &Trace, mem: &mut MemorySystem) -> u64 {
        let traces = std::slice::from_ref(trace);
        assert!(
            crate::Lockstep::new(std::slice::from_mut(self), traces, mem).run(),
            "pipeline deadlock"
        );
        self.stats.cycles
    }

    /// JIT-checkpoints the five structures of §4.5: CSQ, CRT, MaskReg,
    /// LCPC, and the physical registers referenced by CSQ or CRT entries.
    /// In-flight (uncommitted) state is deliberately excluded.
    pub fn jit_checkpoint(&self) -> CheckpointImage {
        let csq: Vec<_> = self.csq.iter().copied().collect();
        let mut crt = Vec::with_capacity(ArchReg::flat_count());
        crt.extend(self.crt.iter());
        // The saved PRF slice is CSQ sources ∪ CRT targets; marking them in
        // a bit-per-register set yields them deduplicated, in bank order.
        let mut saved = MaskReg::new(self.cfg.int_prf, self.cfg.fp_prf);
        for p in csq.iter().map(|e| e.src).chain(crt.iter().map(|&(_, p)| p)) {
            saved.mask(p);
        }
        let mut prf_values = Vec::with_capacity(saved.masked_count());
        prf_values.extend(saved.masked_regs().map(|r| (r, self.prf.value(r))));
        let mut masked = Vec::with_capacity(self.mask.masked_count());
        masked.extend(self.mask.masked_regs());
        CheckpointImage {
            csq,
            crt,
            masked,
            prf_values,
            lcpc: self.lcpc,
            committed: self.committed,
        }
    }

    /// Rebuilds a core from a checkpoint (§4.6 steps 1 and 3): restores
    /// the PRF slice, CRT (also populated into the RAT), MaskReg, and CSQ,
    /// and positions the fetch index after the last committed instruction.
    /// Combine with [`crate::replay_stores`] to repair the NVM image
    /// before resuming.
    pub fn recover(cfg: CoreConfig, id: usize, image: &CheckpointImage) -> Self {
        let mut prf = Prf::new(cfg.int_prf, cfg.fp_prf);
        let mut rat = RenameTable::new();
        let mut crt = RenameTable::new();
        for &(a, p) in &image.crt {
            prf.allocate_specific(p);
            prf.force_architectural(p, image.reg_value(p).unwrap_or(0));
            crt.set(a, p);
        }
        rat.copy_from(&crt);
        let mut mask = MaskReg::new(cfg.int_prf, cfg.fp_prf);
        let mut deferred = Vec::new();
        for &p in &image.masked {
            if !prf.is_allocated(p) {
                prf.allocate_specific(p);
                prf.force_architectural(p, image.reg_value(p).unwrap_or(0));
                // Masked but no longer architecturally mapped: its
                // redefinition committed before the failure, so it is
                // reclaimed at the next region boundary.
                deferred.push(p);
            }
            mask.mask(p);
        }
        Core {
            fetch_idx: image.committed as usize,
            rob: Window::new(cfg.rob_entries, cfg.int_prf, cfg.fp_prf, image.committed),
            prf,
            rat,
            crt,
            mask,
            csq: Csq::restore(cfg.csq_entries, image.csq.iter().copied()),
            deferred_frees: deferred,
            lcpc: image.lcpc,
            committed: image.committed,
            ..Core::new(cfg, id)
        }
    }

    /// A read-only snapshot of the core's microarchitectural state for
    /// the verification layer (`crate::verify`).
    pub fn verify_view(&self, now: u64) -> CoreView<'_> {
        self.view_over(
            now,
            Cow::Owned(self.rob_slots_iter().collect()),
            Cow::Owned(self.rob.iq_seqs().collect()),
        )
    }

    /// The ROB as validators see it, oldest first.
    fn rob_slots_iter(&self) -> impl Iterator<Item = RobSlot> + '_ {
        self.rob.iter().map(|e| RobSlot {
            seq: e.seq,
            kind: e.kind,
            dst: e.dst.map(|d| d.phys),
            prev: e.dst.and_then(|d| d.prev),
            srcs: e.srcs,
            store_data: e.store_data,
            issued: e.issued,
        })
    }

    /// A view whose ROB and IQ snapshots are `rob` and `iq`.
    fn view_over<'a>(
        &'a self,
        now: u64,
        rob: Cow<'a, [RobSlot]>,
        iq: Cow<'a, [u64]>,
    ) -> CoreView<'a> {
        CoreView {
            cycle: now,
            cfg: &self.cfg,
            id: self.id,
            prf: &self.prf,
            rat: &self.rat,
            crt: &self.crt,
            mask: &self.mask,
            csq: &self.csq,
            deferred: &self.deferred_frees,
            rob,
            iq,
            lq_pending: self.lq_pending,
            sq_pending: self.sq_pending,
            region_stores: self.region_stores,
            regions_completed: self.stats.regions,
        }
    }

    /// Whether a deliberately injected fault is armed.
    fn fault_active(&self, _fault: FaultKind) -> bool {
        #[cfg(feature = "verify")]
        {
            self.faults.contains(&_fault)
        }
        #[cfg(not(feature = "verify"))]
        {
            false
        }
    }

    /// The commit → issue → rename stage sequence of one cycle.
    #[cfg(not(feature = "prof"))]
    #[inline]
    fn step_stages(&mut self, trace: &Trace, mem: &mut MemorySystem, now: u64) {
        self.commit(mem, now);
        self.issue(mem, now);
        self.rename(trace, mem, now);
    }

    /// The commit → issue → rename stage sequence of one cycle, with
    /// per-stage wall-time attribution when profiling is armed.
    #[cfg(feature = "prof")]
    #[inline]
    fn step_stages(&mut self, trace: &Trace, mem: &mut MemorySystem, now: u64) {
        if !self.prof_enabled {
            self.commit(mem, now);
            self.issue(mem, now);
            self.rename(trace, mem, now);
            return;
        }
        let t0 = std::time::Instant::now();
        self.commit(mem, now);
        let t1 = std::time::Instant::now();
        self.issue(mem, now);
        let t2 = std::time::Instant::now();
        self.rename(trace, mem, now);
        let t3 = std::time::Instant::now();
        self.stage_timing[0].add(t1 - t0);
        self.stage_timing[1].add(t2 - t1);
        self.stage_timing[2].add(t3 - t2);
    }

    #[cfg(feature = "verify")]
    fn run_validators(&mut self, now: u64) {
        if self.validators.is_empty() {
            return;
        }
        // Detach the validator list so the checks can borrow `self`
        // immutably through the view.
        let mut validators = std::mem::take(&mut self.validators);
        let mut timing = std::mem::take(&mut self.validator_timing);
        let mut violations = std::mem::take(&mut self.violations);
        let mut rob_slots = std::mem::take(&mut self.rob_slots);
        rob_slots.clear();
        rob_slots.extend(self.rob_slots_iter());
        let mut iq_seqs = std::mem::take(&mut self.iq_seqs);
        iq_seqs.clear();
        iq_seqs.extend(self.rob.iq_seqs());
        {
            let view = self.view_over(now, Cow::Borrowed(&rob_slots), Cow::Borrowed(&iq_seqs));
            // Chained clock reads: one validator's end is the next one's
            // start, so n validators cost n + 1 reads.
            let mut start = std::time::Instant::now();
            for (v, t) in validators.iter_mut().zip(timing.iter_mut()) {
                v.check(&view, &mut violations);
                let end = std::time::Instant::now();
                t.elapsed += end - start;
                t.cycles += 1;
                start = end;
            }
        }
        self.rob_slots = rob_slots;
        self.iq_seqs = iq_seqs;
        self.validators = validators;
        self.validator_timing = timing;
        self.violations = violations;
    }
}

/// Verification hooks, available with the `verify` cargo feature. The
/// per-cycle validator pass only runs when at least one validator is
/// attached, so even verify-enabled builds pay nothing by default.
#[cfg(feature = "verify")]
impl Core {
    /// Attaches one cycle-level check.
    pub fn attach_validator(&mut self, v: Box<dyn Validator>) {
        self.validator_timing
            .push(crate::verify::ValidatorTiming::new(v.name()));
        self.validators.push(v);
    }

    /// Attaches the full built-in suite ([`crate::verify::default_validators`]).
    pub fn attach_default_validators(&mut self) {
        for v in crate::verify::default_validators() {
            self.attach_validator(v);
        }
    }

    /// Violations reported so far by attached validators.
    pub fn violations(&self) -> &[Violation] {
        &self.violations
    }

    /// Per-validator cost accounting: how many cycles each attached
    /// validator has checked and how much wall time it spent doing so.
    /// `ppa-verify check` aggregates these into the
    /// `verify.check.validator.<name>.*` metrics, the measurement
    /// baseline for the ROADMAP's dirty-set optimization.
    pub fn validator_timings(&self) -> &[crate::verify::ValidatorTiming] {
        &self.validator_timing
    }

    /// Drains the recorded violations.
    pub fn take_violations(&mut self) -> Vec<Violation> {
        std::mem::take(&mut self.violations)
    }

    /// Arms a deliberately injected bug. The mutation self-tests use this
    /// to prove the checker detects real implementation errors.
    pub fn inject_fault(&mut self, fault: FaultKind) {
        self.faults.push(fault);
    }
}

/// Profiling hooks, available with the `prof` cargo feature. Stage
/// timing only happens once [`Core::enable_profiling`] is called, so
/// even prof-enabled builds pay a single branch per step by default.
#[cfg(feature = "prof")]
impl Core {
    /// Arms per-stage wall-time attribution for this core.
    pub fn enable_profiling(&mut self) {
        self.prof_enabled = true;
    }

    /// Per-stage cost accounting, aligned with [`crate::prof::STAGES`].
    /// `ppa-sim` aggregates these into the `prof.core.step.<stage>.*`
    /// metrics after a run.
    pub fn stage_timings(&self) -> &[crate::prof::StageTiming] {
        &self.stage_timing
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ppa::recovery::replay_stores;
    use ppa_isa::transform::{CapriPass, ReplayCachePass, TracePass};
    use ppa_isa::{SyncKind, TraceBuilder};
    use ppa_mem::MemConfig;

    fn mem() -> MemorySystem {
        MemorySystem::new(MemConfig::memory_mode(), 1)
    }

    fn core(mode: PersistenceMode) -> Core {
        Core::new(CoreConfig::paper_default(mode), 0)
    }

    /// A compute/store loop with a SPEC-like mix (~11% stores) over a
    /// small, hot working set, like a store-locality-rich kernel.
    fn store_loop(n: u64) -> Trace {
        let mut b = TraceBuilder::new("loop");
        for i in 0..n {
            let r = ArchReg::int((i % 8) as u8);
            for _ in 0..4 {
                b.alu(r, &[r]);
            }
            b.load(ArchReg::int(((i + 1) % 8) as u8), 0x9000 + (i % 32) * 8);
            for _ in 0..3 {
                b.alu(r, &[r]);
            }
            b.store(r, 0x1000 + (i % 8) * 64 + (i / 8 % 8) * 8, i + 1);
        }
        b.build()
    }

    #[test]
    fn baseline_commits_everything() {
        let trace = store_loop(50);
        let mut m = mem();
        let mut c = core(PersistenceMode::Baseline);
        let cycles = c.run(&trace, &mut m);
        assert!(cycles > 0);
        assert_eq!(c.committed(), trace.len() as u64);
        assert!(m.functional_read(0x1000) >= 1);
    }

    #[test]
    fn lcpc_tracks_last_commit() {
        let trace = store_loop(5);
        let mut m = mem();
        let mut c = core(PersistenceMode::Baseline);
        c.run(&trace, &mut m);
        assert_eq!(c.lcpc(), trace[trace.len() - 1].pc);
    }

    #[test]
    fn ppa_persists_all_stores_by_completion() {
        let trace = store_loop(40);
        let mut m = mem();
        let mut c = core(PersistenceMode::Ppa);
        c.run(&trace, &mut m);
        // Every committed store value must be durable: PPA drains the last
        // region before finishing.
        assert!(m.nvm_image().diff(m.arch_mem()).is_empty());
    }

    #[test]
    fn baseline_leaves_nvm_inconsistent() {
        let trace = store_loop(40);
        let mut m = mem();
        let mut c = core(PersistenceMode::Baseline);
        c.run(&trace, &mut m);
        // With stores only in volatile caches, the NVM image lags.
        assert!(
            !m.nvm_image().diff(m.arch_mem()).is_empty(),
            "baseline must exhibit the crash inconsistency PPA repairs"
        );
    }

    #[test]
    fn ppa_overhead_is_small_on_compute_heavy_code() {
        let trace = store_loop(500);
        let mut mb = mem();
        let mut base = core(PersistenceMode::Baseline);
        let bc = base.run(&trace, &mut mb);
        let mut mp = mem();
        let mut ppa = core(PersistenceMode::Ppa);
        let pc = ppa.run(&trace, &mut mp);
        let slow = pc as f64 / bc as f64;
        assert!(slow < 1.35, "PPA slowdown {slow} too high");
    }

    #[test]
    fn ppa_forms_regions_on_prf_exhaustion() {
        // Every instruction defines a register, so the free list drains and
        // a small PRF forces frequent boundaries.
        let mut b = TraceBuilder::new("defs");
        for i in 0..600u64 {
            let r = ArchReg::int((i % 8) as u8);
            b.alu(r, &[]);
            if i % 10 == 0 {
                b.store(r, 0x2000 + i * 8, i);
            }
        }
        let trace = b.build();
        let cfg = CoreConfig::paper_default(PersistenceMode::Ppa).with_prf(48, 48);
        let mut c = Core::new(cfg, 0);
        let mut m = mem();
        c.run(&trace, &mut m);
        assert!(
            c.stats().region_ends_prf > 0,
            "PRF exhaustion must split regions"
        );
        assert!(c.stats().regions > 1);
    }

    #[test]
    fn csq_full_is_an_implicit_boundary() {
        // More stores than CSQ entries without exhausting the PRF.
        let mut b = TraceBuilder::new("stores");
        for i in 0..50u64 {
            b.store(ArchReg::int(0), 0x3000 + i * 64, i);
        }
        let trace = b.build();
        let cfg = CoreConfig::paper_default(PersistenceMode::Ppa).with_csq(8);
        let mut c = Core::new(cfg, 0);
        let mut m = mem();
        c.run(&trace, &mut m);
        assert!(c.stats().csq_full_boundaries > 0);
        assert!(m.nvm_image().diff(m.arch_mem()).is_empty());
    }

    #[test]
    fn sync_primitives_end_regions_under_ppa() {
        let mut b = TraceBuilder::new("sync");
        b.store(ArchReg::int(0), 0x100, 1);
        b.sync(SyncKind::AtomicRmw);
        b.store(ArchReg::int(1), 0x200, 2);
        let trace = b.build();
        let mut c = core(PersistenceMode::Ppa);
        let mut m = mem();
        c.run(&trace, &mut m);
        assert!(c.stats().region_ends_sync >= 1);
    }

    #[test]
    fn replaycache_slower_than_ppa() {
        let raw = store_loop(300);
        let rc_trace = ReplayCachePass::new().apply(&raw);
        let mut m1 = MemorySystem::new(
            MemConfig {
                persist_coalescing: false,
                ..MemConfig::memory_mode()
            },
            1,
        );
        let mut rc = core(PersistenceMode::ReplayCache);
        let rc_cycles = rc.run(&rc_trace, &mut m1);

        let mut m2 = mem();
        let mut ppa = core(PersistenceMode::Ppa);
        let ppa_cycles = ppa.run(&raw, &mut m2);
        assert!(
            rc_cycles as f64 > 1.5 * ppa_cycles as f64,
            "ReplayCache ({rc_cycles}) should be much slower than PPA ({ppa_cycles})"
        );
        // Both must still be crash consistent at completion.
        assert!(m1.nvm_image().diff(m1.arch_mem()).is_empty());
        assert!(m2.nvm_image().diff(m2.arch_mem()).is_empty());
    }

    #[test]
    fn capri_persists_through_redo_path() {
        let raw = store_loop(100);
        let capri_trace = CapriPass::new().apply(&raw);
        let mut m = mem();
        let mut c = core(PersistenceMode::Capri);
        c.run(&capri_trace, &mut m);
        assert!(m.nvm_image().diff(m.arch_mem()).is_empty());
        assert!(c.stats().barrier_commit_stall_cycles > 0 || c.stats().cycles > 0);
    }

    #[test]
    fn checkpoint_recover_replay_restores_consistency() {
        let traces = [store_loop(200)];
        let mut m = mem();
        let mut cores = [core(PersistenceMode::Ppa)];
        // Run part-way, then cut power.
        crate::Lockstep::new(&mut cores, &traces, &mut m).run_to(2_000);
        let c = &cores[0];
        assert!(c.committed() > 0, "must have made progress");
        let image = c.jit_checkpoint();
        m.power_failure();
        // Without replay the NVM may be inconsistent for committed stores;
        // after replay it must match architectural memory exactly.
        let report = replay_stores(&image, m.nvm_image_mut());
        assert_eq!(report.resume_index, c.committed());
        let diff = m.nvm_image().diff(m.arch_mem());
        assert!(diff.is_empty(), "recovery left {} bad words", diff.len());
    }

    #[test]
    fn recovered_core_resumes_and_completes() {
        let traces = [store_loop(120)];
        let mut m = mem();
        let mut cores = [core(PersistenceMode::Ppa)];
        let mut machine = crate::Lockstep::new(&mut cores, &traces, &mut m);
        machine.run_to(1_500);
        let before = machine.cores()[0].committed();
        let crash = machine.crash(None);
        machine.recover(&crash.images);
        assert_eq!(machine.cores()[0].committed(), before);
        assert_eq!(machine.now(), 1_500, "time never runs backwards");
        assert!(machine.run());
        assert_eq!(machine.cores()[0].committed(), traces[0].len() as u64);
        assert!(machine.cores()[0].finished_at() > Some(1_500));
        assert!(machine
            .mem()
            .nvm_image()
            .diff(machine.mem().arch_mem())
            .is_empty());
    }

    #[test]
    fn masked_registers_survive_redefinition() {
        // str r0; then redefine r0: the store's physical register must not
        // be freed until the region ends.
        let mut b = TraceBuilder::new("war");
        let r0 = ArchReg::int(0);
        b.alu(r0, &[]);
        b.store(r0, 0x100, 42);
        b.alu(r0, &[r0]); // redefinition commits while p(r0) is masked
        let traces = [b.build()];
        let mut m = mem();
        let mut cores = [core(PersistenceMode::Ppa)];
        let mut machine = crate::Lockstep::new(&mut cores, &traces, &mut m);
        // Step until everything committed but before final drain finishes.
        while machine.cores()[0].committed() < 3 {
            machine.step();
            assert!(machine.now() < 100_000);
        }
        let c = &machine.cores()[0];
        let image = c.jit_checkpoint();
        assert_eq!(image.csq.len(), 1);
        let entry = image.csq[0];
        assert_eq!(image.reg_value(entry.src), Some(42));
        assert_eq!(c.masked_count(), 1);
    }

    #[test]
    fn free_register_cdf_is_sampled() {
        let trace = store_loop(50);
        let mut m = mem();
        let mut c = core(PersistenceMode::Ppa);
        c.run(&trace, &mut m);
        assert_eq!(c.stats().free_int_cdf.total(), c.stats().cycles);
    }

    #[test]
    fn region_sizes_are_recorded() {
        let mut b = TraceBuilder::new("defs");
        for i in 0..2_000u64 {
            b.alu(ArchReg::int((i % 8) as u8), &[]);
            if i % 16 == 0 {
                b.store(ArchReg::int((i % 8) as u8), 0x8000 + i * 8, i);
            }
        }
        let trace = b.build();
        let cfg = CoreConfig::paper_default(PersistenceMode::Ppa).with_prf(64, 64);
        let mut c = Core::new(cfg, 0);
        let mut m = mem();
        c.run(&trace, &mut m);
        assert!(c.stats().regions > 2);
        assert!(c.stats().region_insts.mean() > 1.0);
    }

    #[test]
    fn in_order_commit_is_preserved() {
        // A slow divide followed by a fast ALU op: the ALU op completes
        // first but must not commit first (LCPC would go backwards).
        let mut b = TraceBuilder::new("order");
        b.push(ppa_isa::Uop::new(0, UopKind::IntDiv).with_dst(ArchReg::int(0)));
        b.alu(ArchReg::int(1), &[]);
        let trace = b.build();
        let mut m = mem();
        let mut c = core(PersistenceMode::Baseline);
        c.run(&trace, &mut m);
        assert_eq!(c.lcpc(), trace[1].pc);
        assert_eq!(c.committed(), 2);
    }

    #[test]
    fn event_log_narrates_the_pipeline() {
        let mut b = TraceBuilder::new("t");
        let r0 = ArchReg::int(0);
        b.alu(r0, &[]);
        b.store(r0, 0x100, 42);
        b.alu(r0, &[r0]);
        let trace = b.build();
        let mut m = mem();
        let mut c = core(PersistenceMode::Ppa);
        c.enable_event_log(64);
        c.run(&trace, &mut m);
        let log = c.event_log().expect("enabled");
        let events = log.events();
        // Three commits, one tracked store, one program-end region.
        let commits = events
            .iter()
            .filter(|e| matches!(e, crate::events::PipelineEvent::Commit { .. }))
            .count();
        assert_eq!(commits, 3);
        let tracked: Vec<_> = events
            .iter()
            .filter_map(|e| match e {
                crate::events::PipelineEvent::StoreTracked {
                    addr,
                    csq_occupancy,
                    ..
                } => Some((*addr, *csq_occupancy)),
                _ => None,
            })
            .collect();
        assert_eq!(tracked, vec![(0x100, 1)]);
        let region_ends = events
            .iter()
            .filter(|e| matches!(e, crate::events::PipelineEvent::RegionEnd { .. }))
            .count();
        assert_eq!(region_ends, 1, "the final drain ends the only region");
        // Events are time-ordered.
        for w in events.windows(2) {
            assert!(w[0].cycle() <= w[1].cycle());
        }
    }

    #[test]
    fn event_log_captures_prf_exhaustion_barriers() {
        let mut b = TraceBuilder::new("defs");
        for i in 0..600u64 {
            let r = ArchReg::int((i % 8) as u8);
            b.alu(r, &[]);
            if i % 10 == 0 {
                b.store(r, 0x2000 + i * 8, i);
            }
        }
        let trace = b.build();
        let cfg = CoreConfig::paper_default(PersistenceMode::Ppa).with_prf(48, 48);
        let mut c = Core::new(cfg, 0);
        c.enable_event_log(100_000);
        let mut m = mem();
        c.run(&trace, &mut m);
        let barriers = c
            .event_log()
            .unwrap()
            .events()
            .iter()
            .filter(|e| matches!(e, crate::events::PipelineEvent::BarrierInjected { .. }))
            .count();
        assert!(barriers > 0, "small PRF must trigger barrier injections");
        assert_eq!(barriers as u64, c.stats().region_ends_prf);
    }

    #[test]
    fn forced_regions_override_dynamic_formation() {
        let trace = store_loop(100);
        let cfg = CoreConfig::paper_default(PersistenceMode::Ppa).with_forced_regions(50);
        let mut c = Core::new(cfg, 0);
        let mut m = mem();
        c.run(&trace, &mut m);
        assert!(c.stats().region_ends_forced > 0);
        // Regions cannot exceed the forced interval by more than a commit
        // group (the boundary check runs before each commit).
        assert!(c.stats().region_insts.max() <= 51.0);
        assert!(m.nvm_image().diff(m.arch_mem()).is_empty());
    }

    #[test]
    fn baseline_and_ppa_commit_identical_architectural_state() {
        let trace = store_loop(100);
        let mut m1 = mem();
        let mut c1 = core(PersistenceMode::Baseline);
        c1.run(&trace, &mut m1);
        let mut m2 = mem();
        let mut c2 = core(PersistenceMode::Ppa);
        c2.run(&trace, &mut m2);
        for i in 0..100u64 {
            let addr = 0x1000 + (i % 8) * 64 + (i / 8 % 8) * 8;
            assert_eq!(m1.functional_read(addr), m2.functional_read(addr));
        }
    }
}
