//! `ppa-obs` — unified telemetry for the PPA harnesses.
//!
//! The repo spans five subsystems (core, smp, pool, grid, verify) and
//! until this crate existed none of them had a shared way to report
//! what they were doing: pool counters were collected and never surfaced,
//! the grid coordinator logged via ad-hoc `eprintln!`, and `repro`
//! timings went to stderr in an untested free-form format. This crate
//! is the observation surface for all of them, built (per the offline
//! dependency policy in ROADMAP.md) from `std` and `ppa-stats` alone:
//!
//! * [`registry`] — a process-global hierarchical metrics registry.
//!   Counters, gauges, and summaries live under stable dotted names
//!   (`grid.coord.lease.expired`, `verify.check.cycles_scanned`);
//!   increments are a single atomic op, and [`registry::snapshot`]
//!   renders stable-sorted text tables and JSON.
//! * [`span`] — RAII wall-clock spans. Each closed span aggregates
//!   into a per-label count/total/min/max summary (mirrored into the
//!   registry under `span.<label>`) and, when a trace sink is enabled,
//!   records a Chrome `trace_event` that [`span::write_trace`] emits
//!   as a JSON timeline loadable in `chrome://tracing` / Perfetto.
//! * [`log`] — a leveled, target-prefixed stderr logger configured via
//!   `PPA_LOG=error|warn|info|debug` (default `warn`), replacing the
//!   grid/pool `eprintln!` scatter.
//! * [`prof`] — collapsed-stack (flamegraph) rendering of the `prof.*`
//!   counter family exported by the feature-gated cycle-attribution
//!   profiler in ppa-core/ppa-sim/ppa-smp.
//!
//! # Determinism rules
//!
//! Simulated *results* on stdout must stay byte-identical at any job
//! or worker count — the invariant `ppa-pool` and `ppa-grid` already
//! enforce. Telemetry therefore never touches stdout: metrics and
//! traces go to stderr or to files named by the caller, and every
//! renderer sorts by name so two runs of the same binary produce
//! diffable output even though raw timings differ.
//!
//! # Examples
//!
//! ```
//! ppa_obs::registry::counter("doc.example.hits").inc();
//! {
//!     let _s = ppa_obs::span::span("doc.example.work");
//!     // ... timed region ...
//! }
//! let snap = ppa_obs::registry::snapshot();
//! assert!(snap.to_json().contains("doc.example.hits"));
//! ```

pub mod json;
pub mod log;
pub mod prof;
pub mod registry;
pub mod span;

pub use log::Level;
pub use registry::{snapshot, Snapshot};
pub use span::span;
