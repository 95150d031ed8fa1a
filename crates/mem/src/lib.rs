//! Memory hierarchy for the PPA simulator.
//!
//! Models the machine of Table 2 in the paper: per-core L1D SRAM caches, a
//! shared (or private, for the Figure 14 configuration) L2, an optional
//! shared L3, a direct-mapped DRAM cache used as the last-level cache the
//! way Intel PMEM's *memory mode* does, and a PMEM (NVM) device with a
//! write-pending queue (WPQ) and bounded write bandwidth.
//!
//! On top of the plain hierarchy it implements the two data paths PPA's
//! evaluation depends on:
//!
//! * the **asynchronous store persistence** path of §4.3 — a per-core L1D
//!   write buffer that turns every committed store into a background
//!   write-back of the dirty line to NVM, with persist coalescing and a
//!   per-region outstanding-persist counter;
//! * the **Capri persist path** — a per-core battery-backed redo buffer
//!   drained to NVM over a dedicated channel of configurable bandwidth.
//!
//! The crate also maintains the *functional* state used by the
//! crash-consistency checker: the architectural memory (every committed
//! store value, word-granular) and the NVM image (what would actually
//! survive a power failure, given which lines have reached the device).
//!
//! # Timing model
//!
//! All times are core cycles at 2 GHz. Loads are charged the sum of hit
//! latencies down to the level that hits; there is no MSHR limit (the
//! out-of-order core overlaps misses naturally) and no cache-coherence
//! traffic (the workloads are data-race-free, §6). Write-backs and persists
//! move through the WPQ with `write_latency` plus bandwidth serialisation,
//! and full queues backpressure the requester — that backpressure is what
//! reproduces the WPQ- and bandwidth-sensitivity studies (Figures 15/18).
//!
//! # Examples
//!
//! ```
//! use ppa_mem::{MemConfig, MemorySystem};
//!
//! let mut mem = MemorySystem::new(MemConfig::memory_mode(), 1);
//! // First access misses all the way to NVM; the second hits in L1D.
//! let cold = mem.load(0, 0x4000, 0);
//! let warm = mem.load(0, 0x4000, cold);
//! assert!(cold > warm);
//! ```

mod cache;
mod config;
mod hash;
mod image;
mod multi_mc;
mod nvm;
mod system;
mod write_buffer;

pub use cache::{AccessOutcome, Cache, CacheConfig, CacheStats};
pub use config::{Backing, DramCacheConfig, MemConfig};
pub use image::{ArchMem, NvmImage};
pub use multi_mc::MultiChannelNvm;
pub use nvm::{Nvm, NvmConfig, NvmStats};
pub use system::{MemStats, MemorySystem};
pub use write_buffer::{WriteBuffer, WriteBufferStats};

/// Core clock frequency assumed by the latency constants (Table 2: 2 GHz).
pub const CORE_GHZ: f64 = 2.0;

/// Converts nanoseconds to core cycles at [`CORE_GHZ`].
///
/// # Examples
///
/// ```
/// // PMEM read latency: 175 ns -> 350 cycles at 2 GHz.
/// assert_eq!(ppa_mem::ns_to_cycles(175.0), 350);
/// ```
pub fn ns_to_cycles(ns: f64) -> u64 {
    (ns * CORE_GHZ).round() as u64
}

/// Converts GB/s to bytes per core cycle at [`CORE_GHZ`].
///
/// # Examples
///
/// ```
/// // 2.3 GB/s at 2 GHz is 1.15 B/cycle.
/// assert!((ppa_mem::gbps_to_bytes_per_cycle(2.3) - 1.15).abs() < 1e-12);
/// ```
pub fn gbps_to_bytes_per_cycle(gbps: f64) -> f64 {
    gbps / CORE_GHZ
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn unit_conversions() {
        assert_eq!(ns_to_cycles(90.0), 180);
        assert_eq!(ns_to_cycles(0.0), 0);
        assert!((gbps_to_bytes_per_cycle(4.0) - 2.0).abs() < 1e-12);
    }
}
