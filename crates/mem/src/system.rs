use crate::cache::{Cache, CacheStats};
use crate::config::{Backing, MemConfig};
use crate::image::{ArchMem, NvmImage};
use crate::multi_mc::MultiChannelNvm;
use crate::nvm::NvmStats;
use crate::write_buffer::{WriteBuffer, WriteBufferStats};
use ppa_isa::line_of;

/// Aggregated memory-system statistics.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct MemStats {
    /// Per-core L1D stats merged.
    pub l1d: CacheStats,
    /// L2 stats (merged across private L2s when applicable).
    pub l2: CacheStats,
    /// L3 stats, if configured.
    pub l3: CacheStats,
    /// DRAM cache stats, if configured.
    pub dram: CacheStats,
    /// NVM stats, if configured.
    pub nvm: NvmStats,
    /// Write-buffer stats merged across cores.
    pub wb: WriteBufferStats,
    /// Extra cycles accesses spent waiting on a full WPQ (backpressure).
    pub wpq_stall_cycles: u64,
}

/// The complete simulated memory system shared by all cores.
///
/// Owns per-core L1Ds and write buffers, the (shared or private) L2, the
/// optional L3 and DRAM cache, the NVM device, and the functional state
/// (architectural memory and NVM image) the crash-consistency checker
/// inspects. See the crate docs for the timing model.
///
/// # Examples
///
/// ```
/// use ppa_mem::{MemConfig, MemorySystem};
///
/// let mut mem = MemorySystem::new(MemConfig::memory_mode(), 2);
/// let lat = mem.store_merge(1, 0x100, 0);
/// mem.commit_store_value(0x100, 7);
/// assert!(lat >= 4);
/// assert_eq!(mem.arch_mem().read(0x100), Some(7));
/// ```
#[derive(Debug)]
pub struct MemorySystem {
    cfg: MemConfig,
    l1d: Vec<Cache>,
    l2: Vec<Cache>,
    l3: Option<Cache>,
    dram: Option<Cache>,
    nvm: Option<MultiChannelNvm>,
    wb: Vec<WriteBuffer>,
    /// Cycle until which each core's Capri persist path is busy.
    capri_busy_until: Vec<u64>,
    arch: ArchMem,
    nvm_image: NvmImage,
    wpq_stall_cycles: u64,
    /// The latest [`MemorySystem::tick`]'s cycle.
    last_tick: u64,
}

impl MemorySystem {
    /// Builds the system for `num_cores` cores.
    ///
    /// # Panics
    ///
    /// Panics if `num_cores` is zero.
    pub fn new(cfg: MemConfig, num_cores: usize) -> Self {
        assert!(num_cores > 0, "need at least one core");
        let l2_count = if cfg.l2_shared { 1 } else { num_cores };
        MemorySystem {
            l1d: (0..num_cores).map(|_| Cache::new(cfg.l1d)).collect(),
            l2: (0..l2_count).map(|_| Cache::new(cfg.l2)).collect(),
            l3: cfg.l3.map(Cache::new),
            dram: cfg
                .dram_cache
                .map(|d| Cache::new(crate::CacheConfig::new(d.size_bytes, 1, d.hit_latency))),
            nvm: cfg
                .nvm()
                .map(|n| MultiChannelNvm::new(*n, cfg.memory_controllers)),
            wb: (0..num_cores)
                .map(|_| WriteBuffer::new(cfg.write_buffer_entries, cfg.persist_coalescing))
                .collect(),
            capri_busy_until: vec![0; num_cores],
            arch: ArchMem::new(),
            nvm_image: NvmImage::new(),
            wpq_stall_cycles: 0,
            last_tick: 0,
            cfg,
        }
    }

    /// The configuration this system was built with.
    pub fn config(&self) -> &MemConfig {
        &self.cfg
    }

    /// Number of cores.
    pub fn num_cores(&self) -> usize {
        self.l1d.len()
    }

    fn l2_idx(&self, core: usize) -> usize {
        if self.cfg.l2_shared {
            0
        } else {
            core
        }
    }

    /// Sends a dirty line to the backing store, charging WPQ backpressure
    /// to the returned latency penalty and updating the NVM image.
    fn backing_write(&mut self, line_addr: u64, now: u64) -> u64 {
        match (&mut self.nvm, &self.cfg.backing) {
            (Some(nvm), _) => {
                let mut penalty = 0;
                let mut t = now;
                loop {
                    match nvm.enqueue_write(line_addr, t) {
                        Ok(_) => break,
                        Err(retry) => {
                            penalty += retry - t;
                            t = retry;
                        }
                    }
                }
                self.wpq_stall_cycles += penalty;
                // The WPQ is in the persistence domain: the line's current
                // architectural content is now durable.
                self.nvm_image.persist_line(line_addr, &self.arch);
                penalty
            }
            (None, Backing::Dram { .. }) => 0,
            (None, Backing::Nvm(_)) => unreachable!("NVM backing implies a device"),
        }
    }

    /// Reads a line from the backing store, returning its latency.
    fn backing_read(&mut self, line_addr: u64, now: u64) -> u64 {
        match (&mut self.nvm, &self.cfg.backing) {
            (Some(nvm), _) => nvm.read(line_addr, now) - now,
            (None, Backing::Dram { latency }) => *latency,
            (None, Backing::Nvm(_)) => unreachable!("NVM backing implies a device"),
        }
    }

    /// Walks the hierarchy for an access at `addr`, allocating lines on the
    /// way down and cascading dirty evictions. Returns the access latency.
    fn walk(&mut self, core: usize, addr: u64, write: bool, now: u64) -> u64 {
        let addr = line_of(addr);
        let mut lat = self.cfg.l1d.hit_latency;
        let out = self.l1d[core].access(addr, write, now);
        // Dirty lines displaced at each level fall to the next one.
        let mut down: Vec<u64> = Vec::new();
        down.extend(out.writeback);
        let mut hit = out.hit;

        // L2.
        if !hit {
            lat += self.cfg.l2.hit_latency;
            let i = self.l2_idx(core);
            let o = self.l2[i].access(addr, false, now);
            hit = o.hit;
            let mut next: Vec<u64> = Vec::new();
            next.extend(o.writeback);
            for w in down {
                next.extend(self.l2[i].access(w, true, now).writeback);
            }
            down = next;
        } else {
            // L1 victims still need a home even on an L1 hit-after-fill;
            // (cannot happen: hits displace nothing) — keep them flowing.
            for w in down.drain(..) {
                let i = self.l2_idx(core);
                let o = self.l2[i].access(w, true, now);
                debug_assert!(o.writeback.is_none() || !o.hit);
                if let Some(v) = o.writeback {
                    self.sink_below_l2(core, v, now, &mut lat);
                }
            }
            return lat;
        }

        // L3 (optional).
        if !hit {
            if let Some(l3) = self.l3.as_mut() {
                lat += l3.config().hit_latency;
                let o = l3.access(addr, false, now);
                hit = o.hit;
                let mut next: Vec<u64> = Vec::new();
                next.extend(o.writeback);
                for w in down {
                    next.extend(l3.access(w, true, now).writeback);
                }
                down = next;
            }
        } else {
            for w in down.drain(..) {
                self.sink_below_l2(core, w, now, &mut lat);
            }
            return lat;
        }

        // DRAM cache (optional).
        if !hit {
            if let Some(dram) = self.dram.as_mut() {
                lat += dram.config().hit_latency;
                let o = dram.access(addr, false, now);
                hit = o.hit;
                let mut next: Vec<u64> = Vec::new();
                next.extend(o.writeback);
                for w in down {
                    next.extend(dram.access(w, true, now).writeback);
                }
                down = next;
            }
        } else {
            for w in down.drain(..) {
                self.sink_below_l3(core, w, now, &mut lat);
            }
            return lat;
        }

        // Backing store.
        if !hit {
            lat += self.backing_read(addr, now);
        }
        for w in down {
            lat += self.backing_write(w, now);
        }
        lat
    }

    /// Sinks a dirty line evicted from L2 into L3/DRAM/backing.
    fn sink_below_l2(&mut self, core: usize, line: u64, now: u64, lat: &mut u64) {
        let _ = core;
        let mut down = vec![line];
        if let Some(l3) = self.l3.as_mut() {
            let mut next = Vec::new();
            for w in down {
                next.extend(l3.access(w, true, now).writeback);
            }
            down = next;
        }
        for w in down {
            self.sink_below_l3(0, w, now, lat);
        }
    }

    /// Sinks a dirty line evicted from L3 (or L2 when no L3) into the DRAM
    /// cache or the backing store.
    fn sink_below_l3(&mut self, _core: usize, line: u64, now: u64, lat: &mut u64) {
        let mut down = vec![line];
        if let Some(dram) = self.dram.as_mut() {
            let mut next = Vec::new();
            for w in down {
                next.extend(dram.access(w, true, now).writeback);
            }
            down = next;
        }
        for w in down {
            *lat += self.backing_write(w, now);
        }
    }

    /// A demand load: returns the latency in cycles.
    pub fn load(&mut self, core: usize, addr: u64, now: u64) -> u64 {
        self.walk(core, addr, false, now)
    }

    /// Merges a committed store into the L1D (write-allocate), returning
    /// the merge latency. Timing only; couple it with
    /// [`MemorySystem::commit_store_value`] for the functional effect.
    pub fn store_merge(&mut self, core: usize, addr: u64, now: u64) -> u64 {
        self.walk(core, addr, true, now)
    }

    /// Functional effect of a committed store: updates architectural
    /// memory. Call in commit order.
    pub fn commit_store_value(&mut self, addr: u64, value: u64) {
        self.arch.write(addr, value);
    }

    /// Functional read of the latest committed value (loads are satisfied
    /// from architectural memory: the workloads are data-race-free, so the
    /// last committed store to an address is the only visible value).
    pub fn functional_read(&self, addr: u64) -> u64 {
        self.arch.read(addr).unwrap_or(0)
    }

    /// Enqueues an asynchronous persist of the line containing `addr` into
    /// the core's write buffer (PPA's store persistence). The L1D
    /// controller issues it straight toward the WPQ, so it becomes
    /// eligible immediately. Returns `false` when the buffer is full; the
    /// caller must stall commit and retry.
    pub fn persist_enqueue(&mut self, core: usize, addr: u64, now: u64) -> bool {
        let delay = self.cfg.persist_path_latency;
        self.wb[core].enqueue_delayed(line_of(addr), now, delay)
    }

    /// Marks the line containing `addr` as already resident (clean) in
    /// every L2 bank (hot working sets are SRAM-warm in steady state).
    pub fn prewarm_l2(&mut self, addr: u64) {
        for l2 in &mut self.l2 {
            if !l2.contains(addr) {
                l2.access(line_of(addr), false, 0);
            }
        }
    }

    /// Marks the line containing `addr` as already resident (clean) in the
    /// DRAM cache. Models the steady state reached during the billions of
    /// fast-forwarded instructions the paper skips before measurement: a
    /// working set that became DRAM-cache resident long ago. No-op when
    /// the configuration has no DRAM cache.
    pub fn prewarm_dram(&mut self, addr: u64) {
        if let Some(dram) = self.dram.as_mut() {
            if !dram.contains(addr) {
                dram.access(line_of(addr), false, 0);
            }
        }
    }

    /// Enqueues a `clwb` flush of the line containing `addr`. Unlike PPA's
    /// direct write-back path, the flush traverses the cache hierarchy
    /// (L2, L3, DRAM cache) before it can be accepted by the WPQ, so its
    /// acknowledgment is delayed by the full path latency — the reason
    /// ReplayCache's short regions cannot hide persistence (§2.4).
    pub fn clwb_enqueue(&mut self, core: usize, addr: u64, now: u64) -> bool {
        let delay = self.clwb_path_latency();
        self.wb[core].enqueue_delayed(line_of(addr), now, delay)
    }

    /// Latency for a flush to traverse the hierarchy below L1: through
    /// each SRAM level, then to the memory-controller head (half a DRAM
    /// round trip — the flush is acknowledged at the WPQ, not by the DRAM
    /// array).
    pub fn clwb_path_latency(&self) -> u64 {
        let mut lat = self.cfg.l2.hit_latency;
        if let Some(l3) = &self.cfg.l3 {
            lat += l3.hit_latency;
        }
        if let Some(d) = &self.cfg.dram_cache {
            lat += d.hit_latency / 2;
        }
        lat
    }

    /// Outstanding (unacknowledged) persists for `core` — the §4.3
    /// persistence counter the region boundary compares with zero.
    pub fn persist_outstanding(&self, core: usize) -> usize {
        self.wb[core].outstanding()
    }

    /// Whether the core's write buffer can accept a non-coalescing entry.
    pub fn persist_has_room(&self, core: usize, addr: u64) -> bool {
        self.wb[core].has_room() || self.wb[core].would_coalesce(line_of(addr))
    }

    /// Capri: pushes `bytes` of store data into the core's battery-backed
    /// redo buffer and schedules its drain over the dedicated persist path.
    /// The data is durable immediately (the buffer is battery-backed), but
    /// region boundaries must wait for the drain so the buffer never holds
    /// two regions.
    pub fn capri_enqueue(&mut self, core: usize, addr: u64, value: u64, bytes: u64, now: u64) {
        let start = self.capri_busy_until[core].max(now);
        let xfer = (bytes as f64 / self.cfg.capri_path_bytes_per_cycle).ceil() as u64;
        self.capri_busy_until[core] = start + xfer;
        self.nvm_image.write_word(addr, value);
    }

    /// Cycle at which the core's Capri redo buffer finishes draining.
    pub fn capri_drained_at(&self, core: usize) -> u64 {
        self.capri_busy_until[core]
    }

    /// Bytes still queued in the core's Capri redo buffer at `now`
    /// (backlog implied by the drain schedule).
    pub fn capri_backlog_bytes(&self, core: usize, now: u64) -> u64 {
        let remaining_cycles = self.capri_busy_until[core].saturating_sub(now);
        (remaining_cycles as f64 * self.cfg.capri_path_bytes_per_cycle).ceil() as u64
    }

    /// Whether the core's redo buffer has room for another region — the
    /// Capri region barrier's gating condition. The buffer is
    /// battery-backed, so a barrier need not wait for a full drain, only
    /// for the compiler's worst-case next-region bound to fit.
    pub fn capri_has_room(&self, core: usize, now: u64, next_region_bytes: u64) -> bool {
        self.capri_backlog_bytes(core, now) + next_region_bytes <= self.cfg.capri_buffer_bytes
    }

    /// Advances background machinery by one cycle: write buffers issue to
    /// the WPQ and acknowledged persists retire. `now` never decreases
    /// from one call to the next (checked in debug builds).
    pub fn tick(&mut self, now: u64) {
        debug_assert!(now >= self.last_tick, "time ran back to cycle {now}");
        self.last_tick = now;
        let MemorySystem {
            wb,
            nvm,
            nvm_image,
            arch,
            l1d,
            ..
        } = self;
        if let Some(nvm) = nvm.as_mut() {
            nvm.drain(now);
            // Cores contend for the shared WPQ ports through a rotating
            // round-robin: the core served first advances by one each
            // cycle, so no core is structurally favoured and the
            // interleaving is a pure function of the cycle number
            // (deterministic at any core count).
            let n = wb.len();
            for k in 0..n {
                let core = (now as usize + k) % n;
                let l1 = &mut l1d[core];
                wb[core].tick(
                    now,
                    |line, t| nvm.enqueue_write(line, t),
                    |line| {
                        // The write-back completed: the line's current
                        // content (including any stores coalesced while it
                        // was in flight) is durable, and the L1D copy is
                        // clean.
                        nvm_image.persist_line(line, arch);
                        l1.clean(line);
                    },
                );
            }
        }
    }

    /// Golden architectural memory (every committed store value).
    pub fn arch_mem(&self) -> &ArchMem {
        &self.arch
    }

    /// The NVM image — what survives a power failure.
    pub fn nvm_image(&self) -> &NvmImage {
        &self.nvm_image
    }

    /// Mutable NVM image, used by the recovery protocol to replay stores
    /// and by checkpointing to record PPA's structures.
    pub fn nvm_image_mut(&mut self) -> &mut NvmImage {
        &mut self.nvm_image
    }

    /// Models a power failure: every volatile structure (SRAM caches, DRAM
    /// cache, write buffers) loses its content. The NVM image and anything
    /// already accepted into the WPQ survive.
    pub fn power_failure(&mut self) {
        for c in &mut self.l1d {
            c.invalidate_all();
        }
        for c in &mut self.l2 {
            c.invalidate_all();
        }
        if let Some(l3) = self.l3.as_mut() {
            l3.invalidate_all();
        }
        if let Some(d) = self.dram.as_mut() {
            d.invalidate_all();
        }
        for b in &mut self.wb {
            b.clear();
        }
    }

    /// Merged statistics snapshot.
    pub fn stats(&self) -> MemStats {
        let mut s = MemStats::default();
        for c in &self.l1d {
            s.l1d.hits += c.stats().hits;
            s.l1d.misses += c.stats().misses;
            s.l1d.dirty_evictions += c.stats().dirty_evictions;
        }
        for c in &self.l2 {
            s.l2.hits += c.stats().hits;
            s.l2.misses += c.stats().misses;
            s.l2.dirty_evictions += c.stats().dirty_evictions;
        }
        if let Some(l3) = &self.l3 {
            s.l3 = *l3.stats();
        }
        if let Some(d) = &self.dram {
            s.dram = *d.stats();
        }
        if let Some(n) = &self.nvm {
            s.nvm = n.stats();
        }
        for b in &self.wb {
            s.wb.enqueued += b.stats().enqueued;
            s.wb.coalesced += b.stats().coalesced;
            s.wb.issued += b.stats().issued;
            s.wb.full_rejections += b.stats().full_rejections;
        }
        s.wpq_stall_cycles = self.wpq_stall_cycles;
        s
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::MemConfig;

    #[test]
    fn cold_miss_costs_full_hierarchy() {
        let mut m = MemorySystem::new(MemConfig::memory_mode(), 1);
        let lat = m.load(0, 0x4000, 0);
        // L1 (4) + L2 (44) + DRAM cache (60) + NVM read (350).
        assert_eq!(lat, 4 + 44 + 60 + 350);
    }

    #[test]
    fn warm_hit_costs_l1_only() {
        let mut m = MemorySystem::new(MemConfig::memory_mode(), 1);
        m.load(0, 0x4000, 0);
        assert_eq!(m.load(0, 0x4000, 500), 4);
    }

    #[test]
    fn l2_hit_after_l1_conflict() {
        let mut m = MemorySystem::new(MemConfig::memory_mode(), 1);
        m.load(0, 0x4000, 0);
        // Evict 0x4000 from the 128-set L1 with 8 conflicting lines
        // (stride = sets * line = 128 * 64 = 8192).
        for i in 1..=8u64 {
            m.load(0, 0x4000 + i * 8192, i);
        }
        let lat = m.load(0, 0x4000, 100);
        assert_eq!(lat, 4 + 44, "should hit in L2");
    }

    #[test]
    fn app_direct_pays_nvm_latency_on_l2_miss() {
        let mut m = MemorySystem::new(MemConfig::app_direct(), 1);
        assert_eq!(m.load(0, 0x4000, 0), 4 + 44 + 350);
    }

    #[test]
    fn dram_only_pays_dram_latency_on_l2_miss() {
        let mut m = MemorySystem::new(MemConfig::dram_only(), 1);
        assert_eq!(m.load(0, 0x4000, 0), 4 + 44 + 60);
    }

    #[test]
    fn deep_hierarchy_adds_l3() {
        let mut m = MemorySystem::new(MemConfig::deep_hierarchy(), 1);
        assert_eq!(m.load(0, 0x4000, 0), 4 + 14 + 44 + 60 + 350);
    }

    #[test]
    fn committed_values_visible_functionally() {
        let mut m = MemorySystem::new(MemConfig::memory_mode(), 1);
        m.store_merge(0, 0x100, 0);
        m.commit_store_value(0x100, 99);
        assert_eq!(m.functional_read(0x100), 99);
        assert_eq!(m.functional_read(0x9999), 0);
    }

    #[test]
    fn persisted_store_reaches_nvm_image_via_write_buffer() {
        let mut m = MemorySystem::new(MemConfig::memory_mode(), 1);
        m.store_merge(0, 0x100, 0);
        m.commit_store_value(0x100, 7);
        assert!(m.persist_enqueue(0, 0x100, 0));
        assert_eq!(m.persist_outstanding(0), 1);
        // Drive ticks until the persist is acknowledged.
        let mut t = 0;
        while m.persist_outstanding(0) > 0 {
            t += 1;
            m.tick(t);
            assert!(t < 10_000, "persist must complete");
        }
        assert_eq!(m.nvm_image().read(0x100), Some(7));
    }

    #[test]
    fn unpersisted_store_lost_on_power_failure() {
        let mut m = MemorySystem::new(MemConfig::memory_mode(), 1);
        m.store_merge(0, 0x100, 0);
        m.commit_store_value(0x100, 7);
        m.power_failure();
        assert_eq!(m.nvm_image().read(0x100), None);
        assert_eq!(m.nvm_image().diff(m.arch_mem()), vec![0x100]);
    }

    #[test]
    fn capri_path_serialises_by_bandwidth() {
        let mut m = MemorySystem::new(MemConfig::memory_mode(), 1);
        // 2 B/cycle path: an 8-byte store takes 4 cycles.
        m.capri_enqueue(0, 0x100, 1, 8, 0);
        assert_eq!(m.capri_drained_at(0), 4);
        m.capri_enqueue(0, 0x108, 2, 8, 0);
        assert_eq!(m.capri_drained_at(0), 8);
        // Capri data is durable immediately (battery-backed redo buffer).
        assert_eq!(m.nvm_image().read(0x100), Some(1));
    }

    #[test]
    fn dirty_eviction_from_dram_cache_persists_line() {
        // Tiny DRAM cache so an eviction is easy to force.
        let mut cfg = MemConfig::memory_mode();
        cfg.dram_cache = Some(crate::DramCacheConfig {
            size_bytes: 2 * 64,
            hit_latency: 60,
        });
        // Also shrink L1/L2 so the dirty line actually reaches DRAM.
        cfg.l1d = crate::CacheConfig::new(64, 1, 4);
        cfg.l2 = crate::CacheConfig::new(2 * 64, 1, 44);
        let mut m = MemorySystem::new(cfg, 1);
        m.store_merge(0, 0x0, 0);
        m.commit_store_value(0x0, 5);
        // Push conflicting lines through to evict 0x0 all the way down.
        // L1 has 1 set; L2 and DRAM have 2 sets each. Lines 0x80, 0x100,
        // 0x180... conflict at various levels.
        for i in 1..32u64 {
            m.load(0, i * 0x80, i);
        }
        assert_eq!(
            m.nvm_image().read(0x0),
            Some(5),
            "natural eviction must persist the line"
        );
    }

    #[test]
    fn stats_aggregate_across_cores() {
        let mut m = MemorySystem::new(MemConfig::memory_mode(), 2);
        m.load(0, 0x1000, 0);
        m.load(1, 0x2000, 0);
        let s = m.stats();
        assert_eq!(s.l1d.misses, 2);
        assert_eq!(s.nvm.reads, 2);
    }

    #[test]
    #[should_panic(expected = "at least one core")]
    fn zero_cores_panics() {
        MemorySystem::new(MemConfig::memory_mode(), 0);
    }
}
