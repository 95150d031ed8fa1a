//! The grid attachment every harness CLI shares: `--grid loopback:N`
//! owns an in-process loopback grid, `--grid serve:HOST:PORT` is a
//! client of a running daemon. Harnesses submit through
//! [`GridHandle::runner`] either way and call [`GridHandle::finish`]
//! once their output is written.

use crate::client::ServeClient;
use ppa_grid::loopback::{self, Loopback};
use ppa_grid::{Executor, GridMode, UnitRunner};
use std::sync::Arc;

/// A live grid attachment for this process.
pub enum GridHandle {
    Loopback(Loopback),
    Remote(ServeClient),
}

/// Attaches to `mode`, with `exec` serving the loopback workers;
/// `Ok(None)` for [`GridMode::Off`]. Loopback grids honour
/// `PPA_GRID_DIE_AFTER` (see [`loopback::start_harness`]).
pub fn attach(mode: GridMode, exec: Arc<dyn Executor>) -> Result<Option<GridHandle>, String> {
    match mode {
        GridMode::Off => Ok(None),
        GridMode::Loopback(n) => {
            let lb = loopback::start_harness(n, exec)
                .map_err(|e| format!("failed to start loopback grid: {e}"))?;
            ppa_obs::info!(
                "grid",
                "loopback with {n} workers on {}",
                lb.coordinator().local_addr()
            );
            Ok(Some(GridHandle::Loopback(lb)))
        }
        GridMode::Serve(addr) => {
            let client = ServeClient::connect(&addr)?;
            ppa_obs::info!("grid", "submitting to ppa-serve daemon at {addr}");
            Ok(Some(GridHandle::Remote(client)))
        }
    }
}

impl GridHandle {
    /// The runner work units are submitted through.
    pub fn runner(&self) -> &dyn UnitRunner {
        match self {
            GridHandle::Loopback(lb) => lb.coordinator().as_ref(),
            GridHandle::Remote(client) => client,
        }
    }

    /// Logs what the grid did for this run and shuts a loopback grid
    /// down; a daemon outlives its clients and is only queried.
    pub fn finish(&self) {
        match self {
            GridHandle::Loopback(lb) => {
                let s = lb.coordinator().stats();
                ppa_obs::info!(
                    "grid",
                    "dispatched={} completed={} redispatched={} duplicates={} unit_errors={} workers_joined={} workers_lost={}",
                    s.dispatched, s.completed, s.redispatched, s.duplicates, s.unit_errors, s.workers_joined, s.workers_lost
                );
                lb.coordinator().shutdown();
            }
            GridHandle::Remote(client) => {
                if let Ok(s) = client.stats() {
                    ppa_obs::info!(
                        "grid",
                        "daemon {}: cache hits={} misses={} entries={}",
                        client.addr(),
                        s.hits,
                        s.misses,
                        s.entries
                    );
                }
            }
        }
    }
}
