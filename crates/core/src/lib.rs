//! The Persistent Processor Architecture core model.
//!
//! This crate is the paper's primary contribution rebuilt in Rust: a
//! cycle-level out-of-order core (§2.1's renaming machinery — RAT, CRT,
//! free list, unified PRF — plus ROB, issue queue, and load/store queues)
//! extended with PPA's whole-system-persistence hardware:
//!
//! * **MaskReg** ([`MaskReg`]) — one bit per physical register, marking
//!   committed-store data registers that must not be reclaimed (§3.3);
//! * **CSQ** ([`Csq`]) — the committed store queue recording each region's
//!   stores for post-failure replay (§4.4);
//! * **LCPC** — the last-committed program counter, from which execution
//!   resumes after recovery;
//! * **dynamic region formation** — a persist barrier injected whenever
//!   renaming runs out of physical registers (§4.2), at synchronisation
//!   primitives (§6), or when the CSQ fills;
//! * **JIT checkpointing** ([`CheckpointController`], [`CheckpointImage`],
//!   and [`flush`], the one place a crash model tears a flush) and the **recovery protocol** ([`replay_stores`], [`Core::recover`])
//!   of §4.5–4.6;
//! * an **in-order variant** ([`InOrderCore`]) with a value-carrying CSQ,
//!   as sketched in §6;
//! * a **verification layer** ([`verify`]) — pluggable cycle-level
//!   invariant checks (store integrity, rename consistency, CSQ ordering,
//!   free-list health) hooked into [`Core::step`] behind the `verify`
//!   cargo feature, so release simulation pays nothing;
//! * **one machine loop** ([`Lockstep`]) — N cores stepped in lockstep
//!   over one memory system, with the crash-and-resume path
//!   ([`Lockstep::crash`], [`Lockstep::recover`]) every harness shares;
//!   `ppa-smp`'s machine keeps its own loop but crashes, recovers and
//!   bounds itself through the same [`crash`], [`recover_cores`] and
//!   [`deadlock_bound`].
//!
//! The same pipeline also executes the paper's software baselines
//! (ReplayCache and Capri) by honouring trace-embedded persist barriers —
//! see [`PersistenceMode`].
//!
//! # Examples
//!
//! ```
//! use ppa_core::{Core, CoreConfig, Lockstep, PersistenceMode};
//! use ppa_isa::{ArchReg, TraceBuilder};
//! use ppa_mem::{MemConfig, MemorySystem};
//!
//! // Run a tiny program under PPA, cut power mid-flight, recover, and
//! // verify crash consistency.
//! let mut b = TraceBuilder::new("demo");
//! for i in 0..64u64 {
//!     b.alu(ArchReg::int(0), &[]);
//!     b.store(ArchReg::int(0), 0x1000 + i * 64, i);
//! }
//! let traces = [b.build()];
//!
//! let mut mem = MemorySystem::new(MemConfig::memory_mode(), 1);
//! let mut cores = [Core::new(CoreConfig::paper_default(PersistenceMode::Ppa), 0)];
//! let mut machine = Lockstep::new(&mut cores, &traces, &mut mem);
//! machine.run_to(500);
//! let crash = machine.crash(None);
//! machine.recover(&crash.images);
//! assert!(machine.mem().nvm_image().diff(machine.mem().arch_mem()).is_empty());
//! ```

mod config;
mod events;
mod inorder;
mod lockstep;
mod pipeline;
pub mod ppa;
mod prf;
pub mod prof;
mod rename;
mod stats;
pub mod verify;
mod window;

pub use config::{ConfigError, CoreConfig, PersistenceMode};
pub use events::{EventLog, PipelineEvent};
pub use inorder::InOrderCore;
pub use lockstep::{crash, deadlock_bound, recover_cores, Crash, Lockstep};
pub use pipeline::Core;
pub use ppa::{
    deserialize_images, flush, replay_stores, serialize_images, CheckpointController,
    CheckpointImage, CkptState, Csq, CsqEntry, Flush, IndexWalker, MaskReg, RecoveryReport,
};
pub use prf::{PhysReg, Prf};
pub use rename::RenameTable;
pub use stats::{CoreStats, RegionEndCause};
