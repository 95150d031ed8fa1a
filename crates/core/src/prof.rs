//! Cycle-attribution accounting: the one [`Timing`] accumulator behind
//! the pipeline stages, the SMP machine phases and the validators.
//!
//! Plain data (no telemetry dependency) so `ppa-core` stays leaf-light.
//! [`counters`] names the metrics the machines record after a run, and
//! `ppa-obs` renders the `prof.*` family as collapsed (flamegraph)
//! stacks. Arming is a runtime switch ([`crate::Core::enable_profiling`]);
//! the `prof` cargo feature only decides whether [`crate::Core::step`]
//! times its stages ([`STAGE_TIMING`]).

use std::time::Duration;

/// Whether [`crate::Core::step`] times its stages once profiling is
/// armed. Off without the `prof` feature, which compiles the timed
/// branch away.
pub const STAGE_TIMING: bool = cfg!(feature = "prof");

/// The pipeline stages [`crate::Core::step`] attributes time to, in
/// execution order.
pub const STAGES: [&str; 3] = ["commit", "issue", "rename"];

/// Cost accounting for one timed piece of work: cycles it ran and wall
/// time spent inside it across those cycles.
#[derive(Debug, Clone)]
pub struct Timing {
    /// The timed work's name (a stage, a machine phase or a validator).
    pub name: &'static str,
    /// Cycles timed so far.
    pub cycles: u64,
    /// Wall time spent across those cycles.
    pub elapsed: Duration,
}

impl Timing {
    /// A zeroed accumulator for `name`.
    pub fn new(name: &'static str) -> Self {
        Timing {
            name,
            cycles: 0,
            elapsed: Duration::ZERO,
        }
    }

    /// Accounts one cycle that took `d`.
    #[inline]
    pub fn add(&mut self, d: Duration) {
        self.cycles += 1;
        self.elapsed += d;
    }
}

/// The `<prefix>.<name>.{cycles,ns}` metric values of `timings`. A
/// timing that timed no cycle exports nothing, so an unarmed (or
/// stage-timing-less) run leaves no trace in the metrics.
pub fn counters<'a>(
    prefix: &str,
    timings: impl IntoIterator<Item = &'a Timing>,
) -> Vec<(String, u64)> {
    let mut out = Vec::new();
    for t in timings.into_iter().filter(|t| t.cycles > 0) {
        let base = format!("{prefix}.{}", t.name);
        out.push((format!("{base}.cycles"), t.cycles));
        out.push((format!("{base}.ns"), t.elapsed.as_nanos() as u64));
    }
    out
}

/// The `prof.core.step.<stage>.{cycles,ns}` metric values of `cores`'
/// stage timings; the machines record them once per run.
pub fn stage_counters(cores: &[crate::Core]) -> Vec<(String, u64)> {
    counters(
        "prof.core.step",
        cores.iter().flat_map(crate::Core::stage_timings),
    )
}
