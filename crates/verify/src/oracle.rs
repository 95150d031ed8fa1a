//! The crash-consistency oracle.
//!
//! For a workload and a randomized failure cycle, the oracle:
//!
//! 1. runs the PPA core normally until the failure cycle;
//! 2. takes the §4.5 JIT checkpoint and cuts power (volatile caches and
//!    write buffers are lost; only the NVM image and checkpoint survive);
//! 3. runs the §4.6 recovery — replaying the checkpointed CSQ's stores
//!    into the NVM image — and diffs the result against an independent
//!    **golden in-order execution** of the committed trace prefix
//!    ([`crate::golden::GoldenMemory`]);
//! 4. resumes a recovered core from the checkpoint, runs it to
//!    completion, and diffs final NVM state against the golden execution
//!    of the whole trace.
//!
//! Any disagreement at step 3 or 4 means a committed store was lost,
//! reordered, or corrupted across the failure — exactly the property PPA
//! exists to guarantee.

use crate::golden::{GoldenMemory, GoldenMismatch};
use ppa_core::{Core, CoreConfig, Lockstep, PersistenceMode};
use ppa_isa::Trace;
use ppa_mem::{MemConfig, MemorySystem};
use ppa_prng::Prng;
use ppa_workloads::{registry, AppDescriptor};

/// The §4.5 checkpoint budget: the paper's worst-case JIT checkpoint is
/// 1838 bytes, sized to eADR's residual-energy envelope.
pub const CHECKPOINT_BUDGET_BYTES: usize = 1838;

/// Outcome of one randomized power-failure injection.
#[derive(Debug)]
pub struct OracleOutcome {
    /// Workload name.
    pub app: &'static str,
    /// Trace generation seed.
    pub seed: u64,
    /// Cycle at which power was cut.
    pub fail_cycle: u64,
    /// Micro-ops committed before the failure.
    pub committed: u64,
    /// Stores replayed from the checkpointed CSQ.
    pub replayed: u64,
    /// Checkpoint footprint in bytes.
    pub checkpoint_bytes: usize,
    /// Controller cycles after which the checkpoint flush was interrupted
    /// by a second power loss; `None` for an uninterrupted flush.
    pub mid_flush_interrupt: Option<u64>,
    /// Words of the serialized checkpoint durable at the interruption.
    pub torn_words: u64,
    /// Whether the torn word stream was rejected by deserialization —
    /// accepting a torn image as complete would be silent corruption.
    /// Vacuously `true` for an uninterrupted flush.
    pub torn_prefix_rejected: bool,
    /// Whether the checkpoint round-tripped through serialization and
    /// recovery consumed the deserialized image, not the in-memory one.
    pub stream_recovered: bool,
    /// Whether the NVM image already matched the golden prefix *before*
    /// replay (usually false — that gap is what recovery repairs).
    pub consistent_before_replay: bool,
    /// Golden-prefix disagreements remaining after recovery (must be
    /// empty).
    pub recovery_mismatches: Vec<GoldenMismatch>,
    /// Whether the recovered core re-ran the rest of the trace to
    /// completion.
    pub resumed_to_completion: bool,
    /// Golden full-trace disagreements in the final NVM image (must be
    /// empty).
    pub final_mismatches: Vec<GoldenMismatch>,
}

impl OracleOutcome {
    /// Whether this injection point passed every oracle check.
    pub fn passed(&self) -> bool {
        self.recovery_mismatches.is_empty()
            && self.resumed_to_completion
            && self.final_mismatches.is_empty()
            && self.checkpoint_bytes <= CHECKPOINT_BUDGET_BYTES
            && self.torn_prefix_rejected
            && self.stream_recovered
    }
}

/// Renders the `ppa-verify oracle` FAIL block for a failing outcome
/// (empty string for a passing one). Lives here rather than in the
/// binary so grid workers render failure reports byte-identically to a
/// local run.
pub fn render_failure(o: &OracleOutcome) -> String {
    if o.passed() {
        return String::new();
    }
    let mut lines = vec![format!(
        "  FAIL {:<16} fail_cycle={} committed={} replayed={} ckpt={}B resumed={}",
        o.app, o.fail_cycle, o.committed, o.replayed, o.checkpoint_bytes, o.resumed_to_completion
    )];
    for m in o.recovery_mismatches.iter().take(5) {
        lines.push(format!("       recovery: {m:?}"));
    }
    for m in o.final_mismatches.iter().take(5) {
        lines.push(format!("       final:    {m:?}"));
    }
    lines.join("\n")
}

/// Whether this outcome exercised non-trivial recovery (replayed stores
/// or repaired a pre-replay inconsistency) — the statistic the oracle
/// summary line reports.
pub fn exercised_recovery(o: &OracleOutcome) -> bool {
    o.replayed > 0 || !o.consistent_before_replay
}

/// Runs one failure injection at `fail_cycle` on a single-core PPA
/// machine executing `trace`. With `mid_flush = None` the checkpoint
/// flush completes within the residual-energy window (the §4.5
/// guarantee). With `Some(n)` the failure point sits *inside* the
/// JIT-checkpoint FSM: power is lost again `n` controller cycles into the
/// flush ([`ppa_core::flush`]). The oracle then demands that the torn
/// word stream is rejected by deserialization and that recovery runs from
/// the re-deserialized full stream — exercising the tear-detection path,
/// not just the happy path.
pub fn run_point_with_flush(
    app: &'static str,
    trace: &Trace,
    seed: u64,
    fail_cycle: u64,
    mid_flush: Option<u64>,
) -> OracleOutcome {
    let cfg = CoreConfig::paper_default(PersistenceMode::Ppa);
    let mut mem = MemorySystem::new(MemConfig::memory_mode(), 1);
    let mut cores = [Core::new(cfg, 0)];
    let traces = std::slice::from_ref(trace);
    let mut machine = Lockstep::new(&mut cores, traces, &mut mem);
    machine.run_to(fail_cycle);
    let committed = machine.cores()[0].committed();
    let crash = machine.crash(mid_flush);
    let checkpoint_bytes = crash.images[0].checkpoint_bytes(cfg.total_prf()) as usize;

    // The judges: the NVM image against an independent golden in-order
    // execution, of the committed prefix after replay and of the whole
    // trace after resuming.
    let golden_prefix = GoldenMemory::from_trace_prefix(trace, committed);
    let consistent_before_replay = golden_prefix.diff_nvm(machine.mem().nvm_image()).is_empty();
    let replayed = machine.recover(&crash.images) as u64;
    let recovery_mismatches = golden_prefix.diff_nvm(machine.mem().nvm_image());
    let resumed_to_completion =
        machine.run() && machine.cores()[0].committed() == trace.len() as u64;
    let final_mismatches = GoldenMemory::from_trace(trace).diff_nvm(machine.mem().nvm_image());

    OracleOutcome {
        app,
        seed,
        fail_cycle,
        committed,
        replayed,
        checkpoint_bytes,
        mid_flush_interrupt: mid_flush,
        torn_words: crash.flush.torn_words,
        torn_prefix_rejected: crash.flush.torn_prefix_rejected,
        stream_recovered: crash.stream_recovered,
        consistent_before_replay,
        recovery_mismatches,
        resumed_to_completion,
        final_mismatches,
    }
}

/// Cycles the uninterrupted single-core PPA run of `trace` takes — the
/// span [`fail_points`] places failure points in.
pub fn total_cycles(trace: &Trace) -> u64 {
    let cfg = CoreConfig::paper_default(PersistenceMode::Ppa);
    let mut mem = MemorySystem::new(MemConfig::memory_mode(), 1);
    Core::new(cfg, 0).run(trace, &mut mem)
}

/// Plans `points` failure points for workload `app` whose uninterrupted
/// run takes `total` cycles, as `(fail_cycle, mid_flush)` pairs. Failure
/// cycles are drawn uniformly from the first ~80% of the run so the
/// checkpoint lands mid-flight. Every third point also interrupts the
/// checkpoint flush itself partway through, exercising the torn-stream
/// detection of §4.5's completion marker. A pure function of its
/// arguments, so a local run and a grid coordinator draw the same plan.
pub fn fail_points(app: &str, total: u64, seed: u64, points: usize) -> Vec<(u64, Option<u64>)> {
    let mut rng = Prng::seed_from_u64(seed ^ 0x07ac1e ^ app.len() as u64);
    (0..points)
        .map(|i| {
            let fail_cycle = rng.random_range(10..total.saturating_mul(4) / 5);
            let interrupt = rng.random_range(0..240);
            (fail_cycle, (i % 3 == 2).then_some(interrupt))
        })
        .collect()
}

/// Runs the [`fail_points`] plan for one workload, fanning the points out
/// across the pool.
pub fn run_app(app: &AppDescriptor, len: usize, seed: u64, points: usize) -> Vec<OracleOutcome> {
    let trace = app.generate(len, seed);
    let plan = fail_points(app.name, total_cycles(&trace), seed, points);
    let name = app.name;
    let trace = &trace;
    ppa_pool::par_map_ordered(plan, move |(fail_cycle, mid_flush)| {
        run_point_with_flush(name, trace, seed, fail_cycle, mid_flush)
    })
}

/// Runs the oracle across all 41 workloads with `points_per_app`
/// injections each. Workloads fan out across the shared pool; outcomes
/// are returned in (registry, injection) order at any job count.
pub fn run_suite(len: usize, seed: u64, points_per_app: usize) -> Vec<OracleOutcome> {
    ppa_pool::par_map_ordered(registry::all(), move |app| {
        run_app(&app, len, seed, points_per_app)
    })
    .into_iter()
    .flatten()
    .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn single_point_passes_and_repairs_an_inconsistency() {
        let app = registry::by_name("tpcc").or_else(|| registry::by_name("mcf"));
        let app = app.expect("registry has known apps");
        let outcomes = run_app(&app, 1_200, 3, 4);
        assert_eq!(outcomes.len(), 4);
        for o in &outcomes {
            assert!(
                o.passed(),
                "oracle point failed: app={} fail_cycle={} recovery={:?} final={:?} resumed={}",
                o.app,
                o.fail_cycle,
                o.recovery_mismatches,
                o.final_mismatches,
                o.resumed_to_completion
            );
        }
        // At least one point should land mid-region, i.e. recovery had
        // real work to do (replayed stores or an inconsistent pre-replay
        // image).
        assert!(
            outcomes
                .iter()
                .any(|o| o.replayed > 0 || !o.consistent_before_replay),
            "all injection points were trivially consistent; the oracle is not exercising recovery"
        );
        // Every third point interrupts the checkpoint flush itself.
        assert!(
            outcomes.iter().any(|o| o.mid_flush_interrupt.is_some()),
            "the sweep must include mid-flush failure points"
        );
    }
}
