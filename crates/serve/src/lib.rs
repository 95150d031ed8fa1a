//! `ppa-serve` — persistent simulation-as-a-service.
//!
//! A long-lived grid coordinator daemon ([`daemon::Daemon`]) that
//! accepts many concurrent client submissions over the service frames
//! of the `ppa-grid` wire protocol, fronted by a content-addressed result
//! cache ([`cache::ResultCache`]) and persisted across restarts by
//! checkpoint/restore ([`checkpoint::Checkpoint`]). Front-ends dial it
//! through [`client::ServeClient`], an ordinary
//! [`ppa_grid::UnitRunner`], and attach to any grid mode — loopback or
//! daemon — through [`handle::attach`].
//!
//! The daemon is the paper's persistence discipline applied to the
//! infrastructure itself: it checkpoints its own queue and cache the
//! way the Persistent Processor checkpoints a core, and recovery is
//! re-execution from the last image with already-durable work (cached
//! cells) skipped.

pub mod cache;
pub mod checkpoint;
pub mod client;
pub mod daemon;
pub mod handle;

pub use cache::{unit_key, CacheLimits, ResultCache};
pub use checkpoint::Checkpoint;
pub use client::{ServeClient, ServeStats};
pub use daemon::{Daemon, DaemonOptions};
pub use handle::{attach, GridHandle};
