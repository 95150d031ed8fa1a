//! `ppa-grid` — a multi-host distributed experiment runner for the PPA
//! harnesses, built (per the offline dependency policy in ROADMAP.md)
//! from `std::net` alone.
//!
//! The scale-out story so far stopped at one machine: `ppa-pool` fans
//! per-app simulations and oracle cells across local cores. This crate
//! adds the cross-host axis:
//!
//! * [`proto`] — a length-prefixed binary wire protocol with a
//!   version/magic header and a per-frame checksum; every malformed
//!   frame decodes to a typed [`proto::ProtoError`], never a panic.
//! * [`Coordinator`] — leases serialized work units to workers with
//!   deadlines, tracks liveness via heartbeats, re-dispatches units on
//!   timeout, error, or connection loss (bounded retries with backoff),
//!   and suppresses duplicate results so each unit completes exactly
//!   once. Results return in submission order, which is what makes
//!   distributed runs byte-identical to local ones.
//! * [`run_worker`] — connects to a coordinator and executes units on a
//!   local `ppa-pool`, streaming results and timings back; its
//!   [`WorkerOptions::die_after`] hook injects mid-lease crashes for
//!   the robustness tests.
//! * [`loopback`] — coordinator + N in-process workers over
//!   `127.0.0.1`, the self-test mode `ci.sh` smokes.
//! * [`sync`] — poison-proof lock and condvar waits, shared with
//!   `ppa-serve`, so a panicking thread cannot wedge a long-lived
//!   process.
//!
//! The unit vocabulary (tags and payload layouts) belongs to the
//! callers, one unit kind per harness: `ppa-bench` serializes per-app
//! experiment cells (`repro.*`), `ppa-verify` serializes (app ×
//! failure-point) oracle cells (`oracle.*`), `ppa-litmus` serializes
//! conformance tests (`litmus.*`), and `ppa-dse` serializes
//! (configuration × workload) sweep cells (`dse.*`). Each kind is an
//! [`Executor`] naming its tag prefix and self-test units; a
//! [`Registry`] routes between kinds by prefix. The `ppa-grid` binary
//! (`crates/gridcli`) registers all four for its `work` / `selftest`
//! subcommands, and each harness accepts `--grid` (or `PPA_GRID`,
//! resolved by [`resolve_grid_mode`]) to distribute its own runs.

pub mod coord;
pub mod loopback;
pub mod proto;
pub mod sync;
pub mod worker;

pub use coord::{
    ConnDispatch, Coordinator, GridConfig, GridError, GridStats, UnitOutcome, UnitRunner, UnitSpec,
};
pub use proto::ProtoError;
pub use worker::{run_worker, Executor, Registry, WorkerOptions, WorkerReport};

/// How a harness run uses the grid, parsed from `--grid` / `PPA_GRID`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum GridMode {
    /// No grid: everything runs in-process (the default).
    Off,
    /// Self-test mode: spawn this many in-process workers over
    /// `127.0.0.1` and distribute to them.
    Loopback(usize),
    /// Submit to the `ppa-serve` daemon at this address as a client;
    /// its connected `ppa-grid work` processes execute the units.
    Serve(String),
}

/// Parses a `--grid` value: `off`, `loopback:N`, or `serve:HOST:PORT`.
pub fn parse_grid_mode(s: &str) -> Result<GridMode, String> {
    if s.is_empty() || s == "off" {
        return Ok(GridMode::Off);
    }
    if let Some(n) = s.strip_prefix("loopback:") {
        let n: usize = n
            .parse()
            .map_err(|_| format!("bad loopback worker count in --grid value '{s}'"))?;
        if n == 0 {
            return Err("loopback mode needs at least one worker".into());
        }
        return Ok(GridMode::Loopback(n));
    }
    if let Some(addr) = s.strip_prefix("serve:") {
        if addr.is_empty() {
            return Err("serve mode needs a daemon address, e.g. serve:127.0.0.1:7171".into());
        }
        return Ok(GridMode::Serve(addr.to_string()));
    }
    Err(format!(
        "bad --grid value '{s}' (expected off, loopback:N, or serve:HOST:PORT)"
    ))
}

/// Resolves a harness's grid mode: the `--grid` flag value when given,
/// else the `PPA_GRID` environment variable, else [`GridMode::Off`].
pub fn resolve_grid_mode(flag: Option<&str>) -> Result<GridMode, String> {
    match flag {
        Some(v) => parse_grid_mode(v),
        None => parse_grid_mode(&std::env::var("PPA_GRID").unwrap_or_default()),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn grid_mode_parses() {
        assert_eq!(parse_grid_mode("off"), Ok(GridMode::Off));
        assert_eq!(parse_grid_mode(""), Ok(GridMode::Off));
        assert_eq!(parse_grid_mode("loopback:4"), Ok(GridMode::Loopback(4)));
        assert_eq!(
            parse_grid_mode("serve:0.0.0.0:7171"),
            Ok(GridMode::Serve("0.0.0.0:7171".into()))
        );
        assert!(parse_grid_mode("loopback:0").is_err());
        assert!(parse_grid_mode("loopback:x").is_err());
        assert!(parse_grid_mode("serve:").is_err());
        assert!(parse_grid_mode("cluster").is_err());
        assert_eq!(
            resolve_grid_mode(Some("loopback:2")),
            Ok(GridMode::Loopback(2))
        );
    }
}
