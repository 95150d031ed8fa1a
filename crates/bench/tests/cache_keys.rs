//! The service cache key must be a pure function of (work-unit kind,
//! workload, config, seed, trace length): independent of `PPA_JOBS`,
//! worker counts, or when the unit list was generated. Otherwise a
//! daemon would recompute (or worse, wrongly share) results across
//! differently-configured clients.

use ppa_grid::Executor;
use ppa_litmus::gridwork::LitmusKind;
use ppa_serve::unit_key;
use std::collections::HashSet;

fn keys(units: &[ppa_grid::UnitSpec]) -> Vec<u64> {
    units.iter().map(|u| unit_key(&u.tag, &u.payload)).collect()
}

#[test]
fn cache_keys_are_stable_across_job_configurations() {
    // Generate the same unit lists under different parallelism
    // settings; the serialized units — and therefore their cache keys —
    // must not depend on the pool configuration.
    let fig11_a = ppa_bench::gridwork::units_for("fig11", 4_000).expect("fig11 decomposes");
    let litmus_a = LitmusKind.selftest_units();
    ppa_pool::set_jobs(4);
    let fig11_b = ppa_bench::gridwork::units_for("fig11", 4_000).expect("fig11 decomposes");
    let litmus_b = LitmusKind.selftest_units();

    assert_eq!(keys(&fig11_a), keys(&fig11_b));
    assert_eq!(keys(&litmus_a), keys(&litmus_b));
}

#[test]
fn cache_keys_distinguish_every_unit_and_configuration() {
    let fig11 = ppa_bench::gridwork::units_for("fig11", 4_000).expect("fig11 decomposes");
    let fig11_longer = ppa_bench::gridwork::units_for("fig11", 8_000).expect("fig11 decomposes");
    let litmus = LitmusKind.selftest_units();

    // No collisions across kinds, workloads, or trace lengths: the
    // cache must never serve a fig11@8000 result to a fig11@4000
    // client.
    let mut all = Vec::new();
    all.extend(keys(&fig11));
    all.extend(keys(&fig11_longer));
    all.extend(keys(&litmus));
    let distinct: HashSet<u64> = all.iter().copied().collect();
    assert_eq!(distinct.len(), all.len(), "cache key collision");

    // The key covers the payload, not just the tag: same tag at a
    // different trace length maps to a different cell.
    for (a, b) in fig11.iter().zip(&fig11_longer) {
        assert_eq!(a.tag, b.tag);
        assert_ne!(unit_key(&a.tag, &a.payload), unit_key(&b.tag, &b.payload));
    }
}
