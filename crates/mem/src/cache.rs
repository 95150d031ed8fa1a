use crate::hash::U64Map;
use ppa_isa::CACHE_LINE_BYTES;

/// Configuration of one cache level.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CacheConfig {
    /// Total capacity in bytes.
    pub size_bytes: u64,
    /// Associativity (1 = direct-mapped).
    pub ways: u32,
    /// Hit latency in core cycles.
    pub hit_latency: u64,
}

impl CacheConfig {
    /// Creates a configuration.
    ///
    /// # Panics
    ///
    /// Panics if the geometry is degenerate (zero size/ways, or a capacity
    /// that is not a multiple of `ways * line_size`).
    pub fn new(size_bytes: u64, ways: u32, hit_latency: u64) -> Self {
        assert!(
            size_bytes > 0 && ways > 0,
            "cache must have capacity and ways"
        );
        assert!(
            size_bytes.is_multiple_of(ways as u64 * CACHE_LINE_BYTES),
            "capacity must be a whole number of sets"
        );
        CacheConfig {
            size_bytes,
            ways,
            hit_latency,
        }
    }

    /// Number of sets implied by the geometry.
    pub fn num_sets(&self) -> u64 {
        self.size_bytes / (self.ways as u64 * CACHE_LINE_BYTES)
    }
}

/// Per-level access statistics.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CacheStats {
    /// Accesses that hit.
    pub hits: u64,
    /// Accesses that missed.
    pub misses: u64,
    /// Dirty lines pushed out by fills.
    pub dirty_evictions: u64,
}

impl CacheStats {
    /// Miss ratio; `0.0` when no accesses were made.
    pub fn miss_rate(&self) -> f64 {
        let total = self.hits + self.misses;
        if total == 0 {
            0.0
        } else {
            self.misses as f64 / total as f64
        }
    }
}

#[derive(Debug, Clone, Copy)]
struct Line {
    tag: u64,
    dirty: bool,
    last_used: u64,
}

/// Outcome of a cache access.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct AccessOutcome {
    /// Whether the line was present.
    pub hit: bool,
    /// Line address of a dirty line evicted to make room, if any.
    pub writeback: Option<u64>,
}

/// A set-associative, write-back, write-allocate cache with LRU replacement.
///
/// Sets are stored sparsely (keyed by set index) so the same type models a
/// 64 KB L1 and a 4 GB direct-mapped DRAM cache without gigabytes of host
/// memory. Only line *presence* and dirtiness are tracked; functional data
/// lives in [`crate::ArchMem`].
///
/// # Examples
///
/// ```
/// use ppa_mem::{Cache, CacheConfig};
///
/// let mut c = Cache::new(CacheConfig::new(64 * 1024, 8, 4));
/// assert!(!c.access(0x1000, false, 0).hit);
/// assert!(c.access(0x1000, false, 1).hit);
/// ```
#[derive(Debug, Clone)]
pub struct Cache {
    cfg: CacheConfig,
    sets: U64Map<Vec<Line>>,
    stats: CacheStats,
    tick: u64,
}

impl Cache {
    /// Creates an empty cache.
    pub fn new(cfg: CacheConfig) -> Self {
        Cache {
            cfg,
            sets: U64Map::default(),
            stats: CacheStats::default(),
            tick: 0,
        }
    }

    /// The cache's configuration.
    pub fn config(&self) -> &CacheConfig {
        &self.cfg
    }

    /// Accumulated statistics.
    pub fn stats(&self) -> &CacheStats {
        &self.stats
    }

    fn index_tag(&self, addr: u64) -> (u64, u64) {
        let line = addr / CACHE_LINE_BYTES;
        (line % self.cfg.num_sets(), line / self.cfg.num_sets())
    }

    fn line_addr(&self, set: u64, tag: u64) -> u64 {
        (tag * self.cfg.num_sets() + set) * CACHE_LINE_BYTES
    }

    /// Accesses `addr`, allocating on miss; marks the line dirty when
    /// `write`. Returns whether it hit and any dirty line displaced.
    ///
    /// `now` only orders LRU decisions; a monotone per-access counter is
    /// kept internally as a tie-breaker.
    pub fn access(&mut self, addr: u64, write: bool, now: u64) -> AccessOutcome {
        self.tick = self.tick.wrapping_add(1);
        let stamp = now.wrapping_mul(16).wrapping_add(self.tick % 16);
        let (set_idx, tag) = self.index_tag(addr);
        let num_sets = self.cfg.num_sets();
        let ways = self.cfg.ways as usize;
        let set = self
            .sets
            .entry(set_idx)
            .or_insert_with(|| Vec::with_capacity(ways));

        if let Some(line) = set.iter_mut().find(|l| l.tag == tag) {
            line.last_used = stamp;
            line.dirty |= write;
            self.stats.hits += 1;
            return AccessOutcome {
                hit: true,
                writeback: None,
            };
        }

        self.stats.misses += 1;
        let mut writeback = None;
        if set.len() < ways {
            set.push(Line {
                tag,
                dirty: write,
                last_used: stamp,
            });
        } else {
            // Evict the least recently used way.
            let victim = set
                .iter()
                .enumerate()
                .min_by_key(|(_, l)| l.last_used)
                .map(|(i, _)| i)
                .expect("non-empty set");
            let old = set[victim];
            if old.dirty {
                self.stats.dirty_evictions += 1;
                writeback = Some((old.tag * num_sets + set_idx) * CACHE_LINE_BYTES);
            }
            set[victim] = Line {
                tag,
                dirty: write,
                last_used: stamp,
            };
        }
        AccessOutcome {
            hit: false,
            writeback,
        }
    }

    /// Whether the line containing `addr` is present.
    pub fn contains(&self, addr: u64) -> bool {
        let (set_idx, tag) = self.index_tag(addr);
        self.sets
            .get(&set_idx)
            .is_some_and(|s| s.iter().any(|l| l.tag == tag))
    }

    /// Whether the line containing `addr` is present *and dirty*.
    pub fn is_dirty(&self, addr: u64) -> bool {
        let (set_idx, tag) = self.index_tag(addr);
        self.sets
            .get(&set_idx)
            .is_some_and(|s| s.iter().any(|l| l.tag == tag && l.dirty))
    }

    /// Clears the dirty bit of `addr`'s line if present (the line has been
    /// written back, e.g. by a persist operation or `clwb`).
    pub fn clean(&mut self, addr: u64) {
        let (set_idx, tag) = self.index_tag(addr);
        if let Some(set) = self.sets.get_mut(&set_idx) {
            if let Some(line) = set.iter_mut().find(|l| l.tag == tag) {
                line.dirty = false;
            }
        }
    }

    /// Line addresses of every dirty line currently resident. Used by the
    /// consistency checker to know what a power failure would lose.
    pub fn dirty_lines(&self) -> Vec<u64> {
        let mut out = Vec::new();
        for (&set_idx, set) in &self.sets {
            for l in set {
                if l.dirty {
                    out.push(self.line_addr(set_idx, l.tag));
                }
            }
        }
        out
    }

    /// Drops all content (power failure: SRAM and DRAM caches are volatile).
    pub fn invalidate_all(&mut self) {
        self.sets.clear();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny() -> Cache {
        // 2 sets x 2 ways.
        Cache::new(CacheConfig::new(4 * CACHE_LINE_BYTES, 2, 1))
    }

    #[test]
    fn hit_after_fill() {
        let mut c = tiny();
        assert!(!c.access(0, false, 0).hit);
        assert!(c.access(0, false, 1).hit);
        assert_eq!(c.stats().hits, 1);
        assert_eq!(c.stats().misses, 1);
    }

    #[test]
    fn same_set_distinct_tags_coexist_up_to_ways() {
        let mut c = tiny();
        // Set stride is num_sets * line = 2 * 64 = 128.
        c.access(0, false, 0);
        c.access(128, false, 1);
        assert!(c.contains(0));
        assert!(c.contains(128));
    }

    #[test]
    fn lru_evicts_oldest() {
        let mut c = tiny();
        c.access(0, false, 0); // way A
        c.access(128, false, 1); // way B
        c.access(0, false, 2); // touch A
        let out = c.access(256, false, 3); // evicts B (LRU)
        assert!(!out.hit);
        assert!(c.contains(0));
        assert!(!c.contains(128));
    }

    #[test]
    fn dirty_eviction_reports_victim_address() {
        let mut c = tiny();
        c.access(0, true, 0);
        c.access(128, false, 1);
        let out = c.access(256, false, 2); // evicts line 0, dirty
        assert_eq!(out.writeback, Some(0));
        assert_eq!(c.stats().dirty_evictions, 1);
    }

    #[test]
    fn clean_eviction_reports_nothing() {
        let mut c = tiny();
        c.access(0, false, 0);
        c.access(128, false, 1);
        let out = c.access(256, false, 2);
        assert_eq!(out.writeback, None);
    }

    #[test]
    fn write_hit_sets_dirty_and_clean_clears_it() {
        let mut c = tiny();
        c.access(0, false, 0);
        assert!(!c.is_dirty(0));
        c.access(0, true, 1);
        assert!(c.is_dirty(0));
        c.clean(0);
        assert!(!c.is_dirty(0));
        assert!(c.contains(0));
    }

    #[test]
    fn dirty_lines_enumerates_all() {
        let mut c = tiny();
        c.access(0, true, 0);
        c.access(64, true, 1);
        c.access(128, false, 2);
        let mut d = c.dirty_lines();
        d.sort_unstable();
        assert_eq!(d, vec![0, 64]);
    }

    #[test]
    fn invalidate_all_clears_content() {
        let mut c = tiny();
        c.access(0, true, 0);
        c.invalidate_all();
        assert!(!c.contains(0));
        assert!(c.dirty_lines().is_empty());
    }

    #[test]
    fn direct_mapped_giant_cache_is_sparse() {
        // 4 GB direct-mapped DRAM cache: must not allocate 64M sets up front.
        let mut c = Cache::new(CacheConfig::new(4 << 30, 1, 60));
        c.access(0x1234_5678, true, 0);
        assert!(c.contains(0x1234_5678));
        assert_eq!(c.dirty_lines().len(), 1);
    }

    #[test]
    fn direct_mapped_conflict_misses() {
        let mut c = Cache::new(CacheConfig::new(2 * CACHE_LINE_BYTES, 1, 1));
        c.access(0, true, 0);
        // Same set (stride 2 lines = 128 B), different tag.
        let out = c.access(128, false, 1);
        assert_eq!(out.writeback, Some(0));
        assert!(!c.contains(0));
    }

    #[test]
    fn miss_rate_computation() {
        let mut c = tiny();
        c.access(0, false, 0);
        c.access(0, false, 1);
        assert!((c.stats().miss_rate() - 0.5).abs() < 1e-12);
        assert_eq!(CacheStats::default().miss_rate(), 0.0);
    }

    #[test]
    #[should_panic(expected = "whole number of sets")]
    fn bad_geometry_panics() {
        CacheConfig::new(100, 3, 1);
    }
}
