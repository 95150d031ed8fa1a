//! The process-global metrics registry.
//!
//! Metrics live under stable dotted names mirroring the subsystem that
//! owns them (`pool.steals`, `grid.coord.lease.expired`,
//! `verify.check.cycles_scanned`). Three kinds exist:
//!
//! * **counters** — monotonic `u64` event counts; incrementing is one
//!   relaxed atomic add, cheap enough for hot paths.
//! * **gauges** — last-write-wins `f64` levels (live workers, derived
//!   rates like `sim.cycles_per_sec`).
//! * **summaries** — streaming count/sum/min/max/mean over `f64`
//!   samples, backed by [`ppa_stats::Summary`]. Span aggregates from
//!   [`crate::span`] land here under `span.<label>` (values in ns).
//!
//! Handles are cheap clones of the underlying atomics, so callers
//! resolve a name once and increment lock-free afterwards. Snapshots
//! are stable-sorted, which is what makes text/JSON renders diffable
//! across runs.

use crate::json;
use ppa_stats::TextTable;
use std::collections::BTreeMap;
use std::io;
use std::path::Path;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, OnceLock};

enum Metric {
    Counter(Arc<AtomicU64>),
    Gauge(Arc<AtomicU64>),
    Summary(Arc<Mutex<ppa_stats::Summary>>),
}

fn metrics() -> &'static Mutex<BTreeMap<String, Metric>> {
    static REGISTRY: OnceLock<Mutex<BTreeMap<String, Metric>>> = OnceLock::new();
    REGISTRY.get_or_init(|| Mutex::new(BTreeMap::new()))
}

/// A handle to a monotonic event counter.
#[derive(Clone)]
pub struct Counter(Arc<AtomicU64>);

impl Counter {
    /// Adds one.
    pub fn inc(&self) {
        self.add(1);
    }

    /// Adds `n`.
    pub fn add(&self, n: u64) {
        self.0.fetch_add(n, Ordering::Relaxed);
    }

    /// Overwrites the count; for mirroring an externally accumulated
    /// total (e.g. `PoolStats`) into the registry.
    pub fn set(&self, n: u64) {
        self.0.store(n, Ordering::Relaxed);
    }

    /// Current count.
    pub fn get(&self) -> u64 {
        self.0.load(Ordering::Relaxed)
    }
}

/// A handle to a last-write-wins level.
#[derive(Clone)]
pub struct Gauge(Arc<AtomicU64>);

impl Gauge {
    /// Overwrites the level.
    pub fn set(&self, v: f64) {
        self.0.store(v.to_bits(), Ordering::Relaxed);
    }

    /// Current level.
    pub fn get(&self) -> f64 {
        f64::from_bits(self.0.load(Ordering::Relaxed))
    }
}

/// A handle to a streaming sample summary.
#[derive(Clone)]
pub struct SummaryHandle(Arc<Mutex<ppa_stats::Summary>>);

impl SummaryHandle {
    /// Records one sample.
    pub fn record(&self, v: f64) {
        self.0.lock().unwrap_or_else(|e| e.into_inner()).record(v);
    }

    /// A copy of the current aggregate.
    pub fn get(&self) -> ppa_stats::Summary {
        *self.0.lock().unwrap_or_else(|e| e.into_inner())
    }
}

/// Resolves (registering on first use) the counter called `name`.
///
/// # Panics
///
/// Panics if `name` is already registered as a different metric kind.
pub fn counter(name: &str) -> Counter {
    let mut map = metrics().lock().unwrap_or_else(|e| e.into_inner());
    match map
        .entry(name.to_string())
        .or_insert_with(|| Metric::Counter(Arc::new(AtomicU64::new(0))))
    {
        Metric::Counter(c) => Counter(Arc::clone(c)),
        _ => panic!("metric {name} already registered with a different kind"),
    }
}

/// Resolves (registering on first use) the gauge called `name`.
///
/// # Panics
///
/// Panics if `name` is already registered as a different metric kind.
pub fn gauge(name: &str) -> Gauge {
    let mut map = metrics().lock().unwrap_or_else(|e| e.into_inner());
    match map
        .entry(name.to_string())
        .or_insert_with(|| Metric::Gauge(Arc::new(AtomicU64::new(0f64.to_bits()))))
    {
        Metric::Gauge(g) => Gauge(Arc::clone(g)),
        _ => panic!("metric {name} already registered with a different kind"),
    }
}

/// Resolves (registering on first use) the summary called `name`.
///
/// # Panics
///
/// Panics if `name` is already registered as a different metric kind.
pub fn summary(name: &str) -> SummaryHandle {
    let mut map = metrics().lock().unwrap_or_else(|e| e.into_inner());
    match map
        .entry(name.to_string())
        .or_insert_with(|| Metric::Summary(Arc::new(Mutex::new(ppa_stats::Summary::new()))))
    {
        Metric::Summary(s) => SummaryHandle(Arc::clone(s)),
        _ => panic!("metric {name} already registered with a different kind"),
    }
}

/// One metric's value inside a [`Snapshot`].
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Value {
    /// A counter's count.
    Counter(u64),
    /// A gauge's level.
    Gauge(f64),
    /// A summary's aggregate.
    Summary(ppa_stats::Summary),
}

/// A point-in-time, stable-sorted copy of every registered metric.
#[derive(Debug, Clone, Default)]
pub struct Snapshot {
    entries: Vec<(String, Value)>,
}

/// Takes a snapshot of the whole registry, sorted by metric name.
pub fn snapshot() -> Snapshot {
    let map = metrics().lock().unwrap_or_else(|e| e.into_inner());
    let entries = map
        .iter()
        .map(|(name, m)| {
            let v = match m {
                Metric::Counter(c) => Value::Counter(c.load(Ordering::Relaxed)),
                Metric::Gauge(g) => Value::Gauge(f64::from_bits(g.load(Ordering::Relaxed))),
                Metric::Summary(s) => Value::Summary(*s.lock().unwrap_or_else(|e| e.into_inner())),
            };
            (name.clone(), v)
        })
        .collect();
    Snapshot { entries }
}

impl Snapshot {
    /// The `(name, value)` entries, sorted by name.
    pub fn entries(&self) -> &[(String, Value)] {
        &self.entries
    }

    /// Whether no metric has been registered.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Looks up one metric by exact name.
    pub fn get(&self, name: &str) -> Option<&Value> {
        self.entries
            .binary_search_by(|(n, _)| n.as_str().cmp(name))
            .ok()
            .map(|i| &self.entries[i].1)
    }

    /// The change since `earlier`: counters and summary count/sum
    /// subtract (saturating at zero), gauges and summary min/max keep
    /// this snapshot's value. Metrics absent from `earlier` pass
    /// through unchanged.
    pub fn diff(&self, earlier: &Snapshot) -> Snapshot {
        let entries = self
            .entries
            .iter()
            .map(|(name, v)| {
                let d = match (v, earlier.get(name)) {
                    (Value::Counter(now), Some(Value::Counter(then))) => {
                        Value::Counter(now.saturating_sub(*then))
                    }
                    _ => *v,
                };
                (name.clone(), d)
            })
            .collect();
        Snapshot { entries }
    }

    /// Flattens to `(key, number)` pairs: counters keep their name,
    /// gauges keep their name, summaries expand to `.count`, `.sum`,
    /// `.min`, `.max`, and `.mean` suffixes. Non-finite values (an
    /// empty summary's min/max) are skipped so every emitted number is
    /// valid JSON. The result stays sorted by key.
    pub fn flat(&self) -> Vec<(String, json::Number)> {
        let mut out = Vec::with_capacity(self.entries.len());
        for (name, v) in &self.entries {
            match v {
                Value::Counter(c) => out.push((name.clone(), json::Number::Int(*c))),
                Value::Gauge(g) => {
                    if g.is_finite() {
                        out.push((name.clone(), json::Number::Float(*g)));
                    }
                }
                Value::Summary(s) => {
                    out.push((format!("{name}.count"), json::Number::Int(s.count())));
                    if s.is_empty() {
                        continue; // no samples: .sum/.min/.max/.mean would be padding
                    }
                    for (suffix, val) in [
                        ("sum", s.sum()),
                        ("min", s.min()),
                        ("max", s.max()),
                        ("mean", s.mean()),
                    ] {
                        if val.is_finite() {
                            out.push((format!("{name}.{suffix}"), json::Number::Float(val)));
                        }
                    }
                }
            }
        }
        out.sort_by(|a, b| a.0.cmp(&b.0));
        out
    }

    /// Renders an aligned two-column table, sorted by metric name.
    pub fn to_table(&self) -> TextTable {
        let mut t = TextTable::new(["metric", "value"]);
        for (key, num) in self.flat() {
            t.row([key.as_str(), &num.to_string()]);
        }
        t
    }

    /// Renders the flat form as one deterministic JSON object
    /// (sorted keys, one `"name": number` member per line).
    pub fn to_json(&self) -> String {
        json::render_flat(&self.flat())
    }

    /// Writes [`Snapshot::to_json`] to `path`. With `merge`, keys
    /// already present in an existing flat-JSON file at `path` are
    /// preserved unless this snapshot overwrites them — this is how
    /// `ppa-verify check --metrics-json-merge` folds its metrics into a
    /// file `repro --metrics-json` wrote.
    pub fn write_json_file(&self, path: &Path, merge: bool) -> io::Result<()> {
        let mut merged: BTreeMap<String, json::Number> = BTreeMap::new();
        if merge {
            if let Ok(existing) = std::fs::read_to_string(path) {
                let parsed = json::parse_flat(&existing).map_err(|e| {
                    io::Error::new(
                        io::ErrorKind::InvalidData,
                        format!("cannot merge into {}: {e}", path.display()),
                    )
                })?;
                merged.extend(parsed);
            }
        }
        merged.extend(self.flat());
        let pairs: Vec<(String, json::Number)> = merged.into_iter().collect();
        std::fs::write(path, json::render_flat(&pairs))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counters_accumulate_and_snapshot() {
        let c = counter("test.registry.hits");
        let before = snapshot();
        c.inc();
        c.add(4);
        let after = snapshot();
        let d = after.diff(&before);
        assert_eq!(d.get("test.registry.hits"), Some(&Value::Counter(5)));
    }

    #[test]
    fn gauges_are_last_write_wins() {
        let g = gauge("test.registry.level");
        g.set(3.5);
        g.set(2.0);
        assert_eq!(g.get(), 2.0);
        assert_eq!(
            snapshot().get("test.registry.level"),
            Some(&Value::Gauge(2.0))
        );
    }

    #[test]
    fn summaries_expand_in_flat_form() {
        let s = summary("test.registry.lat");
        s.record(1.0);
        s.record(3.0);
        let flat = snapshot().flat();
        let get = |k: &str| {
            flat.iter()
                .find(|(name, _)| name == k)
                .map(|(_, n)| n.as_f64())
        };
        assert!(get("test.registry.lat.count").unwrap() >= 2.0);
        assert!(get("test.registry.lat.min").unwrap() <= 1.0);
        assert!(get("test.registry.lat.max").unwrap() >= 3.0);
    }

    #[test]
    fn empty_summary_skips_non_finite_members() {
        summary("test.registry.empty");
        let flat = snapshot().flat();
        assert!(flat.iter().any(|(k, _)| k == "test.registry.empty.count"));
        assert!(!flat.iter().any(|(k, _)| k == "test.registry.empty.min"));
        assert!(!flat.iter().any(|(k, _)| k == "test.registry.empty.max"));
    }

    #[test]
    fn snapshot_is_sorted_and_json_is_stable() {
        counter("test.sorted.b").inc();
        counter("test.sorted.a").inc();
        let snap = snapshot();
        let names: Vec<&str> = snap.entries().iter().map(|(n, _)| n.as_str()).collect();
        let mut sorted = names.clone();
        sorted.sort_unstable();
        assert_eq!(names, sorted);
        assert_eq!(snap.to_json(), snap.to_json());
        let ja = snap.to_json();
        let a_pos = ja.find("test.sorted.a").unwrap();
        let b_pos = ja.find("test.sorted.b").unwrap();
        assert!(a_pos < b_pos);
    }

    #[test]
    #[should_panic(expected = "different kind")]
    fn kind_conflicts_panic() {
        counter("test.registry.conflict");
        gauge("test.registry.conflict");
    }

    #[test]
    fn merge_preserves_foreign_keys() {
        let dir = std::env::temp_dir().join("ppa_obs_merge_test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("merged.json");
        std::fs::write(&path, "{\n  \"alien.key\": 42\n}\n").unwrap();
        counter("test.registry.merge").inc();
        snapshot().write_json_file(&path, true).unwrap();
        let text = std::fs::read_to_string(&path).unwrap();
        assert!(text.contains("alien.key"), "foreign key dropped:\n{text}");
        assert!(text.contains("test.registry.merge"));
        let reparsed = json::parse_flat(&text).unwrap();
        assert_eq!(reparsed.get("alien.key").unwrap().as_f64(), 42.0);
    }
}
