//! The content-addressed result cache.
//!
//! Every work unit on the grid is a pure function of its `(tag,
//! payload)` pair: the tag embeds the unit kind and workload identity
//! (`repro.app:{exp}/{app}`, `oracle.cell:...`, `litmus.test:...`,
//! `dse.cell:...`) and the payload embeds the configuration, seed, and
//! trace length. The cache keys on the 64-bit FNV-1a hash of that pair,
//! but stores the full request alongside each result and verifies it on
//! lookup, so a hash collision degrades to a miss rather than serving a
//! wrong result. A cache hit is therefore always byte-identical to a
//! fresh simulation of the same unit — the property the daemon's stdout
//! guarantees rest on.
//!
//! The cache can be bounded ([`CacheLimits`]): when an insert pushes it
//! past the entry or byte budget, least-recently-used entries are
//! evicted (lookups refresh recency). Eviction only ever costs a future
//! re-simulation, never correctness.

use ppa_grid::sync::lock;
use ppa_grid::UnitSpec;
use std::collections::{BTreeMap, HashMap};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;

/// 64-bit FNV-1a over `bytes`, continued from `state`. Seed with
/// [`FNV64_OFFSET`].
pub const FNV64_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
const FNV64_PRIME: u64 = 0x0000_0100_0000_01b3;

pub fn fnv64(mut state: u64, bytes: &[u8]) -> u64 {
    for &b in bytes {
        state ^= u64::from(b);
        state = state.wrapping_mul(FNV64_PRIME);
    }
    state
}

/// The content address of a work unit: FNV-1a over the tag, a zero
/// separator (tags never contain NUL), then the payload. Deterministic
/// across processes, job counts, and worker counts — it reads only the
/// unit's own bytes.
pub fn unit_key(tag: &str, payload: &[u8]) -> u64 {
    let state = fnv64(FNV64_OFFSET, tag.as_bytes());
    let state = fnv64(state, &[0]);
    fnv64(state, payload)
}

/// One cached result, with the full request kept for collision checks.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CacheEntry {
    pub tag: String,
    pub request: Vec<u8>,
    pub result: Vec<u8>,
}

impl CacheEntry {
    /// Bytes this entry accounts for against [`CacheLimits::max_bytes`].
    fn bytes(&self) -> u64 {
        (self.tag.len() + self.request.len() + self.result.len()) as u64
    }
}

/// Retention bounds; `None` in either field means unbounded.
#[derive(Debug, Clone, Default)]
pub struct CacheLimits {
    /// Maximum number of entries.
    pub max_entries: Option<usize>,
    /// Maximum total of tag + request + result bytes.
    pub max_bytes: Option<u64>,
}

/// One resident entry plus its recency stamp.
#[derive(Debug)]
struct Slot {
    entry: CacheEntry,
    stamp: u64,
}

/// The locked interior: entries by key, plus an LRU index from recency
/// stamp to key (stamps are unique, so the `BTreeMap`'s first element
/// is always the coldest entry).
#[derive(Debug, Default)]
struct Store {
    map: HashMap<u64, Slot>,
    lru: BTreeMap<u64, u64>,
    next_stamp: u64,
    bytes: u64,
}

impl Store {
    fn touch(&mut self, key: u64) {
        let Some(slot) = self.map.get_mut(&key) else {
            return;
        };
        self.lru.remove(&slot.stamp);
        slot.stamp = self.next_stamp;
        self.lru.insert(self.next_stamp, key);
        self.next_stamp += 1;
    }
}

/// The daemon-wide result cache. Hit/miss/eviction counters mirror to
/// the `serve.cache.*` metrics family.
#[derive(Debug, Default)]
pub struct ResultCache {
    store: Mutex<Store>,
    limits: CacheLimits,
    hits: AtomicU64,
    misses: AtomicU64,
    evictions: AtomicU64,
}

impl ResultCache {
    /// An unbounded cache.
    pub fn new() -> Self {
        ResultCache::default()
    }

    /// A cache that evicts least-recently-used entries past `limits`.
    pub fn with_limits(limits: CacheLimits) -> Self {
        ResultCache {
            limits,
            ..ResultCache::default()
        }
    }

    /// Looks up a unit's cached result; counts a hit or a miss. A hit
    /// refreshes the entry's recency.
    pub fn lookup(&self, spec: &UnitSpec) -> Option<Vec<u8>> {
        let key = unit_key(&spec.tag, &spec.payload);
        let mut store = lock(&self.store);
        match store.map.get(&key) {
            Some(s) if s.entry.tag == spec.tag && s.entry.request == spec.payload => {
                let result = s.entry.result.clone();
                store.touch(key);
                self.hits.fetch_add(1, Ordering::Relaxed);
                ppa_obs::registry::counter("serve.cache.hits").inc();
                Some(result)
            }
            _ => {
                self.misses.fetch_add(1, Ordering::Relaxed);
                ppa_obs::registry::counter("serve.cache.misses").inc();
                None
            }
        }
    }

    /// Records a computed result. On a key collision with a *different*
    /// request the existing entry wins — colliding units simply stay
    /// uncached.
    pub fn insert(&self, spec: &UnitSpec, result: &[u8]) {
        self.admit(CacheEntry {
            tag: spec.tag.clone(),
            request: spec.payload.clone(),
            result: result.to_vec(),
        });
    }

    fn admit(&self, entry: CacheEntry) {
        let key = unit_key(&entry.tag, &entry.request);
        let mut store = lock(&self.store);
        if !store.map.contains_key(&key) {
            store.bytes += entry.bytes();
            let stamp = store.next_stamp;
            store.next_stamp += 1;
            store.map.insert(key, Slot { entry, stamp });
            store.lru.insert(stamp, key);
            self.evict_over_limit(&mut store);
        }
        self.publish_gauges(&store);
    }

    /// Evicts coldest-first until within limits. An entry larger than
    /// the whole byte budget is evicted straight away — it can never
    /// fit.
    fn evict_over_limit(&self, store: &mut Store) {
        let over = |s: &Store| {
            self.limits.max_entries.is_some_and(|m| s.map.len() > m)
                || self.limits.max_bytes.is_some_and(|m| s.bytes > m)
        };
        while over(store) {
            let Some((&stamp, &key)) = store.lru.iter().next() else {
                break;
            };
            store.lru.remove(&stamp);
            if let Some(slot) = store.map.remove(&key) {
                store.bytes -= slot.entry.bytes();
            }
            self.evictions.fetch_add(1, Ordering::Relaxed);
            ppa_obs::registry::counter("serve.cache.evictions").inc();
        }
    }

    fn publish_gauges(&self, store: &Store) {
        ppa_obs::registry::gauge("serve.cache.entries").set(store.map.len() as f64);
        ppa_obs::registry::gauge("serve.cache.bytes").set(store.bytes as f64);
    }

    pub fn len(&self) -> usize {
        lock(&self.store).map.len()
    }

    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Total tag + request + result bytes currently resident.
    pub fn bytes(&self) -> u64 {
        lock(&self.store).bytes
    }

    /// (hits, misses) since start.
    pub fn counters(&self) -> (u64, u64) {
        (
            self.hits.load(Ordering::Relaxed),
            self.misses.load(Ordering::Relaxed),
        )
    }

    /// Entries evicted by the retention limits since start.
    pub fn evictions(&self) -> u64 {
        self.evictions.load(Ordering::Relaxed)
    }

    /// All entries in key order — the checkpoint's cache section.
    pub fn export(&self) -> Vec<CacheEntry> {
        let store = lock(&self.store);
        let mut keys: Vec<&u64> = store.map.keys().collect();
        keys.sort();
        keys.iter().map(|k| store.map[k].entry.clone()).collect()
    }

    /// Restores checkpointed entries (existing entries win; retention
    /// limits apply as if freshly inserted).
    pub fn restore(&self, entries: Vec<CacheEntry>) {
        for e in entries {
            self.admit(e);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn spec(tag: &str, payload: &[u8]) -> UnitSpec {
        UnitSpec {
            tag: tag.into(),
            payload: payload.to_vec(),
        }
    }

    #[test]
    fn lookup_after_insert_returns_the_result() {
        let c = ResultCache::new();
        let s = spec("repro.app:fig1/gcc", &[1, 2, 3]);
        assert_eq!(c.lookup(&s), None);
        c.insert(&s, &[9, 9]);
        assert_eq!(c.lookup(&s), Some(vec![9, 9]));
        assert_eq!(c.counters(), (1, 1));
        assert_eq!(c.evictions(), 0);
    }

    #[test]
    fn tag_and_payload_both_address_content() {
        let c = ResultCache::new();
        c.insert(&spec("a", &[1]), &[10]);
        assert_eq!(c.lookup(&spec("a", &[2])), None);
        assert_eq!(c.lookup(&spec("b", &[1])), None);
        assert_eq!(c.lookup(&spec("a", &[1])), Some(vec![10]));
    }

    #[test]
    fn tag_payload_boundary_is_unambiguous() {
        // ("ab", "c") and ("a", "bc") must hash differently: the NUL
        // separator sits where no tag byte can.
        assert_ne!(unit_key("ab", b"c"), unit_key("a", b"bc"));
    }

    #[test]
    fn export_restore_round_trips() {
        let c = ResultCache::new();
        c.insert(&spec("x", &[1]), &[2]);
        c.insert(&spec("y", &[3]), &[4]);
        let d = ResultCache::new();
        d.restore(c.export());
        assert_eq!(d.lookup(&spec("x", &[1])), Some(vec![2]));
        assert_eq!(d.lookup(&spec("y", &[3])), Some(vec![4]));
    }

    #[test]
    fn entry_limit_evicts_least_recently_used() {
        let c = ResultCache::with_limits(CacheLimits {
            max_entries: Some(2),
            max_bytes: None,
        });
        c.insert(&spec("a", &[1]), &[1]);
        c.insert(&spec("b", &[2]), &[2]);
        c.insert(&spec("c", &[3]), &[3]);
        assert_eq!(c.len(), 2);
        assert_eq!(c.evictions(), 1);
        // "a" was coldest.
        assert_eq!(c.lookup(&spec("a", &[1])), None);
        assert_eq!(c.lookup(&spec("b", &[2])), Some(vec![2]));
        assert_eq!(c.lookup(&spec("c", &[3])), Some(vec![3]));
    }

    #[test]
    fn lookup_refreshes_recency() {
        let c = ResultCache::with_limits(CacheLimits {
            max_entries: Some(2),
            max_bytes: None,
        });
        c.insert(&spec("a", &[1]), &[1]);
        c.insert(&spec("b", &[2]), &[2]);
        // Touch "a" so "b" becomes the eviction victim.
        assert_eq!(c.lookup(&spec("a", &[1])), Some(vec![1]));
        c.insert(&spec("c", &[3]), &[3]);
        assert_eq!(c.lookup(&spec("a", &[1])), Some(vec![1]));
        assert_eq!(c.lookup(&spec("b", &[2])), None);
        assert_eq!(c.evictions(), 1);
    }

    #[test]
    fn byte_limit_accounts_tag_request_and_result() {
        // Each entry: 1 tag byte + 1 request byte + 8 result bytes = 10.
        let c = ResultCache::with_limits(CacheLimits {
            max_entries: None,
            max_bytes: Some(25),
        });
        c.insert(&spec("a", &[1]), &[0; 8]);
        c.insert(&spec("b", &[2]), &[0; 8]);
        assert_eq!(c.bytes(), 20);
        assert_eq!(c.evictions(), 0);
        c.insert(&spec("c", &[3]), &[0; 8]);
        assert_eq!(c.evictions(), 1);
        assert!(c.bytes() <= 25);
        assert_eq!(c.lookup(&spec("a", &[1])), None);
        assert_eq!(c.lookup(&spec("c", &[3])), Some(vec![0; 8]));
    }

    #[test]
    fn oversized_entry_is_evicted_immediately() {
        let c = ResultCache::with_limits(CacheLimits {
            max_entries: None,
            max_bytes: Some(4),
        });
        c.insert(&spec("big", &[1]), &[0; 64]);
        assert!(c.is_empty());
        assert_eq!(c.evictions(), 1);
    }

    #[test]
    fn restore_respects_limits() {
        let c = ResultCache::new();
        for i in 0..5u8 {
            c.insert(&spec("t", &[i]), &[i]);
        }
        let d = ResultCache::with_limits(CacheLimits {
            max_entries: Some(2),
            max_bytes: None,
        });
        d.restore(c.export());
        assert_eq!(d.len(), 2);
        assert_eq!(d.evictions(), 3);
    }
}
