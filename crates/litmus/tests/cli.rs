//! `ppa-litmus --metrics-json` end to end: the snapshot carries the
//! shared pool's counters, and a snapshot that cannot be written fails
//! the run.

use std::process::{Command, Output};

fn litmus(args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_ppa-litmus"))
        .args(args)
        .env_remove("PPA_JOBS")
        .env_remove("PPA_GRID")
        .env_remove("PPA_LOG")
        .output()
        .expect("ppa-litmus runs")
}

fn scratch(name: &str) -> std::path::PathBuf {
    std::env::temp_dir().join(format!("ppa_litmus_cli_{name}_{}", std::process::id()))
}

#[test]
fn metrics_json_includes_the_pool_counters() {
    let path = scratch("pool.json");
    let out = litmus(&[
        "run",
        "--tests",
        "8",
        "--jobs",
        "2",
        "--metrics-json",
        path.to_str().unwrap(),
    ]);
    let text = std::fs::read_to_string(&path).expect("metrics file written");
    let _ = std::fs::remove_file(&path);
    assert!(out.status.success(), "litmus run failed: {out:?}");
    let metrics = ppa_obs::json::parse_flat(&text).expect("metrics JSON parses");
    let jobs = metrics.get("pool.jobs_run").map(|v| v.as_f64());
    assert!(
        jobs.is_some_and(|n| n > 0.0),
        "pool.jobs_run missing or zero: {metrics:?}"
    );
}

#[test]
fn an_unwritable_metrics_path_fails_the_run() {
    let dir = scratch("dir");
    std::fs::create_dir_all(&dir).unwrap();
    let out = litmus(&[
        "gen",
        "--tests",
        "2",
        "--metrics-json",
        dir.to_str().unwrap(),
    ]);
    let _ = std::fs::remove_dir(&dir);
    assert_eq!(out.status.code(), Some(1), "{out:?}");
}
