//! The loopback self-test mode: a coordinator plus N in-process worker
//! threads talking over `127.0.0.1`, exercising the full wire protocol,
//! lease bookkeeping, and failure recovery without a second host.

use crate::coord::{Coordinator, GridConfig, GridError, UnitOutcome, UnitRunner, UnitSpec};
use crate::worker::{run_worker, Executor, WorkerOptions, WorkerReport};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::Duration;

/// A running loopback grid. Dropping it shuts the coordinator down and
/// reaps the worker threads.
pub struct Loopback {
    coordinator: Arc<Coordinator>,
    workers: Vec<JoinHandle<Result<WorkerReport, crate::proto::ProtoError>>>,
}

/// Starts a coordinator on an OS-assigned loopback port plus one worker
/// thread per entry of `workers`, all sharing `exec`. Returns once
/// every worker has completed its handshake.
pub fn start(
    workers: Vec<WorkerOptions>,
    exec: Arc<dyn Executor>,
    cfg: GridConfig,
) -> std::io::Result<Loopback> {
    let n = workers.len();
    let coordinator = Arc::new(Coordinator::bind("127.0.0.1:0", cfg)?);
    let addr = coordinator.local_addr();
    let handles = workers
        .into_iter()
        .enumerate()
        .map(|(i, opts)| {
            let exec = Arc::clone(&exec);
            std::thread::Builder::new()
                .name(format!("grid-loopback-worker-{i}"))
                .spawn(move || run_worker(addr, opts, exec))
                .expect("spawning a loopback worker thread")
        })
        .collect();
    if !coordinator.wait_for_workers(n, Duration::from_secs(10)) {
        return Err(std::io::Error::new(
            std::io::ErrorKind::TimedOut,
            "loopback workers did not all connect",
        ));
    }
    Ok(Loopback {
        coordinator,
        workers: handles,
    })
}

/// `start` with `n` identical default workers, each running `jobs`
/// units concurrently.
pub fn start_uniform(
    n: usize,
    jobs: usize,
    exec: Arc<dyn Executor>,
    cfg: GridConfig,
) -> std::io::Result<Loopback> {
    let opts = WorkerOptions {
        jobs,
        ..WorkerOptions::default()
    };
    start(vec![opts; n.max(1)], exec, cfg)
}

/// The loopback grid a harness attaches with `--grid loopback:N`: `n`
/// workers with the configured job count (`--jobs`/`PPA_JOBS`) each. `PPA_GRID_DIE_AFTER=K` makes the
/// first drop its connection mid-lease after K units — the fault
/// injection behind the byte-identity checks.
pub fn start_harness(n: usize, exec: Arc<dyn Executor>) -> std::io::Result<Loopback> {
    let mut workers = vec![
        WorkerOptions {
            jobs: ppa_pool::configured_jobs(),
            ..WorkerOptions::default()
        };
        n.max(1)
    ];
    workers[0].die_after = std::env::var("PPA_GRID_DIE_AFTER")
        .ok()
        .and_then(|v| v.parse().ok());
    start(workers, exec, GridConfig::default())
}

impl Loopback {
    /// The embedded coordinator, shareable across submitting threads.
    pub fn coordinator(&self) -> &Arc<Coordinator> {
        &self.coordinator
    }

    /// Submits a batch through the embedded coordinator.
    pub fn run_units(&self, units: Vec<UnitSpec>) -> Vec<Result<UnitOutcome, GridError>> {
        self.coordinator.run_units(units)
    }

    /// Shuts down and returns each worker's report (connection-level
    /// failures are dropped).
    pub fn shutdown(mut self) -> Vec<WorkerReport> {
        self.coordinator.shutdown();
        self.workers
            .drain(..)
            .filter_map(|h| h.join().ok().and_then(Result::ok))
            .collect()
    }
}

impl Drop for Loopback {
    fn drop(&mut self) {
        self.coordinator.shutdown();
        for h in self.workers.drain(..) {
            let _ = h.join();
        }
    }
}
