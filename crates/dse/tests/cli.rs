//! `ppa-dse --metrics-json` end to end: a snapshot that cannot be
//! written fails the run.

use std::process::Command;

#[test]
fn an_unwritable_metrics_path_fails_the_run() {
    let dir = std::env::temp_dir().join(format!("ppa_dse_cli_dir_{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let out = Command::new(env!("CARGO_BIN_EXE_ppa-dse"))
        .args(["axes", "--metrics-json", dir.to_str().unwrap()])
        .env_remove("PPA_JOBS")
        .env_remove("PPA_GRID")
        .env_remove("PPA_LOG")
        .output()
        .expect("ppa-dse runs");
    let _ = std::fs::remove_dir(&dir);
    assert_eq!(out.status.code(), Some(1), "{out:?}");
}
