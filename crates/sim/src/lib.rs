//! System-level simulation for the PPA reproduction.
//!
//! This crate assembles cores ([`ppa_core::Core`]) and the memory system
//! ([`ppa_mem::MemorySystem`]) into runnable machines, provides the
//! configuration presets of the paper's evaluation (Table 2 and the
//! Figure 9/10/14 variants), injects power failures and drives the
//! checkpoint/recovery protocol, and verifies crash consistency against
//! the golden architectural memory.
//!
//! # Examples
//!
//! ```
//! use ppa_sim::{Machine, SystemConfig};
//! use ppa_workloads::registry;
//!
//! let app = registry::by_name("sjeng").unwrap();
//! let trace = app.generate(5_000, 1);
//! let base = Machine::new(SystemConfig::baseline()).run(&trace);
//! let ppa = Machine::new(SystemConfig::ppa()).run(&trace);
//! assert!(ppa.cycles >= base.cycles, "persistence is never free");
//! assert!(ppa.consistent, "PPA must leave NVM crash-consistent");
//! ```

mod consistency;
mod failure;
mod machine;
mod presets;
mod report;

pub use consistency::{check_consistency, BadWord, ConsistencyReport};
pub use failure::{
    inject_failure, inject_failure_multicore, inject_failure_with_flush, FailureOutcome,
};
pub use machine::Machine;
pub use presets::SystemConfig;
pub use report::SimReport;

/// Process-global switch for the cycle-attribution profiler.
///
/// Always present so front-ends need no `cfg` gates; it only has an
/// effect when the `prof` cargo feature is compiled in, in which case
/// every core built after `set_profiling(true)` times its pipeline
/// stages and the run lifts `prof.core.step.<stage>.{cycles,ns}`
/// counters into the metrics registry.
static PROFILING: std::sync::atomic::AtomicBool = std::sync::atomic::AtomicBool::new(false);

/// Arms (or disarms) stage-level profiling for subsequently built cores.
pub fn set_profiling(on: bool) {
    PROFILING.store(on, std::sync::atomic::Ordering::Relaxed);
}

/// Whether stage-level profiling is currently armed.
pub fn profiling_enabled() -> bool {
    PROFILING.load(std::sync::atomic::Ordering::Relaxed)
}
