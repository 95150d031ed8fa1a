//! Shared-memory multi-core assembly for the PPA simulator (§6).
//!
//! [`ppa_sim::Machine`] locksteps cores whose store footprints are
//! disjoint, so nothing machine-wide ever needs coordinating. This crate
//! builds the real thing:
//!
//! * [`SmpSystem`] — N [`ppa_core::Core`]s sharing one
//!   [`ppa_mem::MemorySystem`] through a deterministic round-robin
//!   interconnect (the per-cycle service order rotates with the cycle
//!   number, mirroring the memory side's write-back arbitration);
//! * [`PersistArbiter`] — per-core committed-store queues drain into a
//!   shared arbiter that certifies sync-region drains one at a time in
//!   round-robin order, enforcing §6's cross-core persist ordering;
//!   synchronisation operations are region boundaries, and a core stalls
//!   at one until its drain certificate issues;
//! * whole-machine **JIT checkpoint and recovery**, through the same
//!   crash path and deadlock bound as [`ppa_core::Lockstep`] —
//!   [`SmpSystem::jit_checkpoint`] images every core atomically;
//!   [`SmpSystem::crash`] cuts power through [`ppa_core::crash`];
//!   [`SmpSystem::recover`] replays all cores' committed stores (any
//!   replay order is correct under data-race-freedom) and restarts every
//!   core after its LCPC; [`SmpSystem::sweep`] is the one per-cycle crash
//!   loop, taking a [`SmpSystem::crash_cell`] (checkpoint, serialize,
//!   optional torn flush, deserialize, replay into a clone of NVM) at
//!   every cycle for the litmus runner and the exhaustive crash oracle;
//! * **cross-core validators** — [`check_drain_log`] (drain-order and
//!   persist-before-dependence), [`check_arbiter_fairness`] (round-robin
//!   rotation and starvation-freedom, judged from the request lines each
//!   certificate records rather than asserted by construction) and
//!   [`check_images`] (recovery-image coherence), with [`ArbiterFault`]
//!   mutations to prove they catch a deliberately broken arbiter.
//!
//! Baseline (non-PPA) machines never end sync regions, so the arbiter
//! naturally no-ops and the interconnect is the only difference from the
//! lockstep runner.

mod arbiter;
mod system;

pub use arbiter::{
    check_arbiter_fairness, check_drain_log, ArbiterFault, DrainGrant, PersistArbiter,
};
pub use system::{check_images, CrashCell, SmpReport, SmpSystem};
