//! Cycle-attribution accounting for the pipeline stages, available with
//! the `prof` cargo feature.
//!
//! Mirrors the shape of [`crate::verify::ValidatorTiming`]: plain data
//! (no telemetry dependency) so `ppa-core` stays leaf-light.
//! [`stage_counters`] names the `prof.core.step.<stage>.*` metrics the
//! machines record after a run, and `ppa-obs` renders that family as
//! collapsed (flamegraph) stacks.

/// The pipeline stages [`crate::Core::step`] attributes time to, in
/// execution order.
pub const STAGES: [&str; 3] = ["commit", "issue", "rename"];

/// Per-stage cost accounting: cycles stepped and wall time spent inside
/// one pipeline stage across those cycles.
#[derive(Debug, Clone)]
pub struct StageTiming {
    /// The stage's name (one of [`STAGES`]).
    pub name: &'static str,
    /// Cycles this stage has been stepped while profiling was enabled.
    pub cycles: u64,
    /// Wall time spent inside the stage across those cycles.
    pub elapsed: std::time::Duration,
}

impl StageTiming {
    /// A zeroed accumulator for `name`.
    pub fn new(name: &'static str) -> Self {
        StageTiming {
            name,
            cycles: 0,
            elapsed: std::time::Duration::ZERO,
        }
    }

    pub(crate) fn add(&mut self, d: std::time::Duration) {
        self.cycles += 1;
        self.elapsed += d;
    }
}

/// The `prof.core.step.<stage>.{cycles,ns}` metric values, summed over
/// `cores`; the machines record them once per run.
pub fn stage_counters(cores: &[crate::Core]) -> Vec<(String, u64)> {
    let mut out = Vec::new();
    for (i, stage) in STAGES.iter().enumerate() {
        let timings = cores.iter().map(|c| &c.stage_timings()[i]);
        let cycles = timings.clone().map(|t| t.cycles).sum();
        let ns = timings.map(|t| t.elapsed.as_nanos() as u64).sum();
        out.push((format!("prof.core.step.{stage}.cycles"), cycles));
        out.push((format!("prof.core.step.{stage}.ns"), ns));
    }
    out
}
