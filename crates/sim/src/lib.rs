//! System-level simulation for the PPA reproduction.
//!
//! This crate assembles cores ([`ppa_core::Core`]) and the memory system
//! ([`ppa_mem::MemorySystem`]) into runnable machines, provides the
//! configuration presets of the paper's evaluation (Table 2 and the
//! Figure 9/10/14 variants), injects power failures and drives the
//! checkpoint/recovery protocol. Every run and recovery judges crash
//! consistency by diffing the NVM image against ppa-mem's golden
//! architectural memory (`nvm_image().diff(arch_mem())`).
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

mod failure;
mod machine;
mod presets;
mod report;

pub use failure::{
    inject_failure, inject_failure_multicore, inject_failure_with_flush, FailureOutcome,
};
pub use machine::Machine;
pub use presets::SystemConfig;
pub use report::SimReport;

/// Process-global switch for the cycle-attribution profiler.
///
/// Every machine built after `set_profiling(true)` arms its cores, and
/// `ppa-smp`'s machine also times its cores, arbiter and memory phases
/// into `prof.smp.<phase>.{cycles,ns}`. The cores time their pipeline
/// stages into `prof.core.step.<stage>.{cycles,ns}` only when ppa-core's
/// `prof` feature is compiled in ([`ppa_core::prof::STAGE_TIMING`]). A
/// timing that timed nothing exports nothing.
static PROFILING: std::sync::atomic::AtomicBool = std::sync::atomic::AtomicBool::new(false);

/// Arms (or disarms) stage-level profiling for subsequently built cores.
pub fn set_profiling(on: bool) {
    PROFILING.store(on, std::sync::atomic::Ordering::Relaxed);
}

/// Whether stage-level profiling is currently armed.
pub fn profiling_enabled() -> bool {
    PROFILING.load(std::sync::atomic::Ordering::Relaxed)
}
