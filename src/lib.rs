//! # ppa — Persistent Processor Architecture
//!
//! A from-scratch Rust reproduction of *Persistent Processor Architecture*
//! (Zeng, Jeong, Jung — MICRO 2023): lightweight microarchitectural support
//! for transparent **whole-system persistence** (WSP) on out-of-order
//! cores.
//!
//! This facade crate re-exports the workspace's sub-crates:
//!
//! * [`isa`] — micro-op ISA, traces, and the ReplayCache/Capri compiler
//!   passes;
//! * [`mem`] — SRAM caches, DRAM cache, PMEM with write-pending queue, and
//!   the persist-coalescing L1D write buffer;
//! * [`core`] — the cycle-level out-of-order core with PPA's MaskReg, CSQ,
//!   LCPC, dynamic region formation, and JIT checkpoint/recovery;
//! * [`workloads`] — the 41 application models of the paper's evaluation;
//! * [`sim`] — multi-core system assembly and power-failure injection,
//!   judged by diffing the NVM image against the golden architectural
//!   memory;
//! * [`energy`] — hardware cost and checkpoint-energy models;
//! * [`stats`] — CDFs, summaries, and table formatting.
//!
//! # Quickstart
//!
//! ```
//! use ppa::sim::{Machine, SystemConfig};
//! use ppa::workloads::registry;
//!
//! // Simulate one application under the paper's default configuration,
//! // both without persistence (memory-mode baseline) and with PPA.
//! let app = registry::by_name("mcf").expect("known app");
//! let trace = app.generate(20_000, 7);
//!
//! let base = Machine::new(SystemConfig::baseline()).run(&trace);
//! let ppa = Machine::new(SystemConfig::ppa()).run(&trace);
//!
//! let slowdown = ppa.cycles as f64 / base.cycles as f64;
//! assert!(slowdown < 1.25, "PPA should be lightweight, got {slowdown}");
//! ```

pub use ppa_core as core;
pub use ppa_energy as energy;
pub use ppa_isa as isa;
pub use ppa_mem as mem;
pub use ppa_sim as sim;
pub use ppa_stats as stats;
pub use ppa_workloads as workloads;
