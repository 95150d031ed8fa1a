//! Benchmark harness for the PPA reproduction.
//!
//! Every figure and table of the paper's evaluation section has a
//! regeneration function in [`experiments`]; the `repro` binary dispatches
//! to them (`cargo run -p ppa-bench --release --bin repro -- fig8`), and
//! the benches in `benches/` time the simulator's building blocks with
//! the in-tree [`harness`] (no external bench framework).
//!
//! Experiment sizes default to traces that finish a full `repro all` in a
//! few minutes; set `PPA_REPRO_LEN` to scale them (micro-ops per
//! single-threaded trace; multi-threaded applications run 8 threads at a
//! third of the length each).

pub mod experiments;
pub mod gridwork;
pub mod harness;

/// Default per-trace micro-op count for single-threaded applications.
pub const DEFAULT_LEN: usize = 40_000;

/// Deterministic seed used by every experiment.
pub const SEED: u64 = 1;

/// Length override installed by grid workers so a dispatched work unit
/// reproduces the coordinator's trace sizing instead of consulting the
/// worker's own environment. Zero means "unset".
static LEN_OVERRIDE: std::sync::atomic::AtomicUsize = std::sync::atomic::AtomicUsize::new(0);

/// Pins [`experiment_len`] to `len` for this process. Grid workers call
/// this before rendering a whole-experiment work unit; all units of one
/// run carry the same length, so late writes are idempotent.
pub fn set_experiment_len_override(len: usize) {
    LEN_OVERRIDE.store(len, std::sync::atomic::Ordering::SeqCst);
}

/// Resolves the experiment length from the grid override, `PPA_REPRO_LEN`,
/// or the default, in that order.
pub fn experiment_len() -> usize {
    let pinned = LEN_OVERRIDE.load(std::sync::atomic::Ordering::SeqCst);
    if pinned != 0 {
        return pinned;
    }
    std::env::var("PPA_REPRO_LEN")
        .ok()
        .and_then(|s| s.parse().ok())
        .unwrap_or(DEFAULT_LEN)
}
