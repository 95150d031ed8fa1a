//! Smoke tests for the reproduction harness: every experiment renders a
//! non-empty table at a reduced trace length. This keeps `repro all` from
//! bit-rotting without paying full experiment cost in CI.

use ppa_bench::experiments;

#[test]
fn static_tables_are_instant_and_complete() {
    for id in ["table1", "table2", "table3", "table4", "table5", "table6"] {
        let (_, f) = experiments::all_experiments()
            .into_iter()
            .find(|(n, _)| *n == id)
            .expect("registered");
        let t = f();
        assert!(!t.is_empty(), "{id} rendered an empty table");
    }
}

/// All length-sensitive experiments in one test, so the environment
/// variable that shrinks them is never touched concurrently.
#[test]
#[ignore = "slow in a debug build (~35 s); ci.sh runs it with --ignored"]
fn simulation_experiments_render_at_reduced_length() {
    std::env::set_var("PPA_REPRO_LEN", "3000");

    let s = experiments::ckpt().to_string();
    assert!(s.contains("1838"));
    assert!(!s.contains("false"), "checkpoint verification failed:\n{s}");

    let t13 = experiments::fig13();
    let text = t13.to_string();
    assert!(text.contains("mean"));
    // 41 apps + mean + paper rows.
    assert_eq!(t13.len(), 43);

    let t17 = experiments::fig17();
    assert_eq!(t17.len(), 6, "five CSQ sizes plus the paper row");

    let mc = experiments::mc().to_string();
    assert!(!mc.contains("false"), "multi-MC recovery failed:\n{mc}");

    let ablation = experiments::ablation();
    assert_eq!(ablation.len(), 6, "six ablation variants");

    // Dependence-driven insertion must beat Capri on every app: the
    // "apps cheaper" row counts all 41.
    let ap = experiments::autopersist();
    assert_eq!(ap.len(), 43, "41 apps + total + cheaper rows");
    let ap_text = ap.to_string();
    assert!(
        ap_text.contains("apps cheaper than capri") && ap_text.contains("41"),
        "autopersist table:\n{ap_text}"
    );

    std::env::remove_var("PPA_REPRO_LEN");
}
