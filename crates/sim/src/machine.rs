use crate::presets::SystemConfig;
use crate::report::SimReport;
use ppa_core::{Core, Lockstep};
use ppa_isa::transform::{CapriPass, ReplayCachePass, TracePass};
use ppa_isa::Trace;
use ppa_mem::MemorySystem;
use ppa_workloads::AppDescriptor;

/// Deterministically selects the fraction of the traces' footprint that
/// is DRAM-cache resident at measurement time (see
/// [`ppa_workloads::AppDescriptor::dram_resident_frac`]): a line is
/// resident iff a hash of its address falls below the fraction.
fn classify_lines(traces: &[Trace], app: &AppDescriptor) -> (Vec<u64>, Vec<u64>) {
    let mut hot = Vec::new();
    let mut resident = Vec::new();
    for t in traces {
        for u in t {
            if let Some(m) = u.mem {
                let line = ppa_isa::line_of(m.addr);
                if app.is_hot_line(line) {
                    hot.push(line);
                } else if hash01(line) < app.dram_resident_frac {
                    resident.push(line);
                }
            }
        }
    }
    // Sorted so prewarm order (and therefore LRU state) is deterministic.
    for lines in [&mut hot, &mut resident] {
        lines.sort_unstable();
        lines.dedup();
    }
    (hot, resident)
}

fn hash01(x: u64) -> f64 {
    // SplitMix64 finaliser: uniform enough for residency sampling.
    let mut z = x.wrapping_add(0x9e37_79b9_7f4a_7c15);
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^= z >> 31;
    (z >> 11) as f64 / (1u64 << 53) as f64
}

/// Cache contents established before a measured run (steady-state warmth).
#[derive(Debug, Clone, Default)]
struct Prewarm {
    /// Hot working-set lines: warmed into L2 and DRAM cache.
    hot: Vec<u64>,
    /// Additional DRAM-cache-resident lines.
    dram_resident: Vec<u64>,
}

/// A runnable machine: a [`SystemConfig`] plus the drive loop.
///
/// `Machine` owns nothing mutable — each `run_*` call builds a fresh
/// memory system and cores, so runs are independent and deterministic.
///
/// # Examples
///
/// ```
/// use ppa_sim::{Machine, SystemConfig};
/// use ppa_workloads::registry;
///
/// let app = registry::by_name("gobmk").unwrap();
/// let report = Machine::new(SystemConfig::ppa()).run_app(&app, 4_000, 1);
/// assert_eq!(report.committed, 4_000);
/// ```
#[derive(Debug, Clone, Copy)]
pub struct Machine {
    cfg: SystemConfig,
}

impl Machine {
    /// Creates a machine from a configuration.
    pub fn new(cfg: SystemConfig) -> Self {
        Machine { cfg }
    }

    /// The machine's configuration.
    pub fn config(&self) -> &SystemConfig {
        &self.cfg
    }

    /// Applies the persistence mode's compiler pass to a raw trace
    /// (identity for baseline and PPA — that is the paper's point).
    pub fn prepare_trace(&self, raw: &Trace) -> Trace {
        match self.cfg.core.mode {
            ppa_core::PersistenceMode::ReplayCache => ReplayCachePass::new().apply(raw),
            ppa_core::PersistenceMode::Capri => CapriPass::new().apply(raw),
            _ => raw.clone(),
        }
    }

    /// Runs a single prepared trace on core 0.
    pub fn run(&self, trace: &Trace) -> SimReport {
        self.run_threads(std::slice::from_ref(trace))
    }

    /// Runs one prepared trace per core, in lock step.
    ///
    /// # Panics
    ///
    /// Panics if `traces` is empty or the machine hits the
    /// [`Lockstep`] deadlock bound.
    pub fn run_threads(&self, traces: &[Trace]) -> SimReport {
        self.run_inner(traces, &Prewarm::default())
    }

    fn run_inner(&self, traces: &[Trace], warm: &Prewarm) -> SimReport {
        assert!(!traces.is_empty(), "need at least one trace");
        let mut mem = MemorySystem::new(self.cfg.mem, traces.len());
        for &line in &warm.hot {
            mem.prewarm_l2(line);
            mem.prewarm_dram(line);
        }
        for &line in &warm.dram_resident {
            mem.prewarm_dram(line);
        }
        let mut cores: Vec<Core> = (0..traces.len())
            .map(|i| Core::new(self.cfg.core, i))
            .collect();
        if crate::profiling_enabled() {
            for core in &mut cores {
                core.enable_profiling();
            }
        }
        let mut machine = Lockstep::new(&mut cores, traces, &mut mem);
        let finished = machine.run();
        let cycles = machine.now();
        assert!(finished, "machine deadlocked after {cycles} cycles");
        let committed = cores.iter().map(Core::committed).sum();
        let consistent = mem.nvm_image().diff(mem.arch_mem()).is_empty();
        // Once-per-run telemetry (never per-cycle): total simulated
        // work, from which `repro` derives `sim.cycles_per_sec`.
        ppa_obs::registry::counter("sim.machine.runs").inc();
        ppa_obs::registry::counter("sim.cycles.total").add(cycles);
        ppa_obs::registry::counter("sim.uops.committed").add(committed);
        for (name, value) in ppa_core::prof::stage_counters(&cores) {
            ppa_obs::registry::counter(&name).add(value);
        }
        SimReport {
            cycles,
            committed,
            core_stats: cores.into_iter().map(|c| c.stats().clone()).collect(),
            mem_stats: mem.stats(),
            consistent,
        }
    }

    /// Generates the application's traces (one per configured thread),
    /// applies the mode's compiler pass, and runs. `len` is micro-ops per
    /// thread of the *raw* program, so every scheme executes the same
    /// program (the software schemes' inserted `clwb`s/barriers make
    /// their dynamic instruction count larger, as in reality).
    pub fn run_app(&self, app: &AppDescriptor, len: usize, seed: u64) -> SimReport {
        let threads = self.cfg.threads.min(app.threads.max(1));
        let traces: Vec<Trace> = (0..threads)
            .map(|tid| self.prepare_trace(&app.generate_thread(len, seed, tid)))
            .collect();
        let (hot, dram_resident) = classify_lines(&traces, app);
        self.run_inner(&traces, &Prewarm { hot, dram_resident })
    }

    /// Runs the application with its default thread count under this
    /// configuration (SPEC apps stay single-threaded even on an 8-core
    /// config).
    pub fn run_app_parallel(&self, app: &AppDescriptor, len: usize, seed: u64) -> SimReport {
        let cfg = SystemConfig {
            threads: app.threads,
            ..self.cfg
        };
        Machine::new(cfg).run_app(app, len, seed)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::presets::SystemConfig;
    use ppa_workloads::registry;

    #[test]
    fn baseline_and_ppa_commit_the_same_program() {
        let app = registry::by_name("sjeng").unwrap();
        let base = Machine::new(SystemConfig::baseline()).run_app(&app, 3_000, 9);
        let ppa = Machine::new(SystemConfig::ppa()).run_app(&app, 3_000, 9);
        assert_eq!(base.committed, 3_000);
        assert_eq!(ppa.committed, 3_000);
        assert!(ppa.consistent);
    }

    #[test]
    fn replaycache_trace_is_longer_than_raw() {
        let app = registry::by_name("bzip2").unwrap();
        let m = Machine::new(SystemConfig::replay_cache());
        let raw = app.generate(2_000, 1);
        let prepared = m.prepare_trace(&raw);
        assert!(prepared.len() > raw.len(), "clwbs and barriers added");
    }

    #[test]
    fn multicore_run_is_consistent_and_deterministic() {
        let app = registry::by_name("radix").unwrap();
        let m = Machine::new(SystemConfig::ppa().with_threads(4));
        let r1 = m.run_app(&app, 2_000, 5);
        let r2 = m.run_app(&app, 2_000, 5);
        assert_eq!(r1.cycles, r2.cycles);
        assert_eq!(r1.committed, 4 * 2_000);
        assert!(r1.consistent);
    }

    #[test]
    fn dram_only_is_fastest_on_memory_bound_apps() {
        let app = registry::by_name("lbm").unwrap();
        let dram = Machine::new(SystemConfig::dram_only()).run_app(&app, 30_000, 3);
        let mem_mode = Machine::new(SystemConfig::baseline()).run_app(&app, 30_000, 3);
        assert!(
            dram.cycles < mem_mode.cycles,
            "DRAM-only ({}) must beat memory mode ({})",
            dram.cycles,
            mem_mode.cycles
        );
    }

    #[test]
    fn app_direct_is_slower_than_memory_mode_for_missy_apps() {
        let app = registry::by_name("libquantum").unwrap();
        let psp = Machine::new(SystemConfig::eadr_bbb()).run_app(&app, 10_000, 3);
        let mem_mode = Machine::new(SystemConfig::baseline()).run_app(&app, 10_000, 3);
        assert!(
            psp.cycles > mem_mode.cycles,
            "app-direct ({}) must trail memory mode ({})",
            psp.cycles,
            mem_mode.cycles
        );
    }

    #[test]
    #[should_panic(expected = "at least one trace")]
    fn empty_trace_list_panics() {
        Machine::new(SystemConfig::baseline()).run_threads(&[]);
    }
}
