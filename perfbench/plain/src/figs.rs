//! `figs`: what a `repro` user waits on. One pass runs fig8's cells
//! (every app under baseline, PPA and Capri, at an eighth of the default
//! length) and then fig16's PRF sweep over the single-thread apps
//! (baseline and PPA at six register-file sizes, at a twentieth of it),
//! serially, through `Machine::run_app_parallel`. The workload seed is
//! the trace seed. The run also simulates fig8 at the default length,
//! unmeasured, for `ppa_slowdown_gmean`, and at `ppa_bench::SEED` checks
//! it against the committed reproduction.

use perfbench_harness::{
    counter_deltas, pass_metrics, peak_rss_mb, ratio_gmean, run_passes, write_spans, Args, Metrics,
    PassLog, SetupTimes, Tally, Tracer,
};
use ppa_bench::experiments::len_for_base;
use ppa_bench::{DEFAULT_LEN, SEED};
use ppa_sim::{Machine, SimReport, SystemConfig};
use ppa_stats::fmt_slowdown;
use ppa_workloads::{registry, AppDescriptor};
use std::collections::BTreeMap;

/// Base lengths of the measured fig8 cells and of the fig16 sweep. One
/// pass then takes well under a second, and a run times each call in
/// tens of passes, spread over the run, and keeps its fastest. The sweep
/// leaves out the 8-thread apps, whose calls would take most of a pass.
const FIG8_BASE: usize = DEFAULT_LEN / 8;
const SWEEP_BASE: usize = DEFAULT_LEN / 20;

/// fig16's register-file sizes (int/fp).
const PRF_SIZES: [(usize, usize); 6] = [
    (80, 80),
    (100, 100),
    (120, 120),
    (140, 140),
    (180, 168),
    (280, 224),
];

/// The reproduction fig8 at the default length must match at
/// `ppa_bench::SEED`.
const REPRO_TABLE: &str = "results/repro_all.txt";

#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
enum Mode {
    Baseline,
    Ppa,
    Capri,
}

impl Mode {
    fn config(self) -> SystemConfig {
        match self {
            Mode::Baseline => SystemConfig::baseline(),
            Mode::Ppa => SystemConfig::ppa(),
            Mode::Capri => SystemConfig::capri(),
        }
    }

    fn name(self) -> &'static str {
        match self {
            Mode::Baseline => "baseline",
            Mode::Ppa => "ppa",
            Mode::Capri => "capri",
        }
    }
}

/// One measured call and what its report must show.
struct Call {
    app: AppDescriptor,
    mode: Mode,
    cfg: SystemConfig,
    len: usize,
    /// A fig8 cell, not a sweep point.
    fig8: bool,
    expected_committed: u64,
}

/// Builds one pass from the seed: fig8's cells, then fig16's sweep, each
/// with the micro-op count it must commit. Capri commits its pass's
/// output, so its count comes from generating and transforming the
/// traces here.
fn setup(seed: u64) -> (Vec<AppDescriptor>, Vec<Call>) {
    let apps = registry::all();
    let mut calls = Vec::new();
    for app in &apps {
        let len = len_for_base(app, FIG8_BASE);
        let threads = app.threads.max(1);
        for mode in [Mode::Baseline, Mode::Ppa, Mode::Capri] {
            let machine = Machine::new(mode.config());
            let expected_committed = match mode {
                Mode::Capri => (0..threads)
                    .map(|tid| {
                        machine
                            .prepare_trace(&app.generate_thread(len, seed, tid))
                            .len() as u64
                    })
                    .sum(),
                _ => (threads * len) as u64,
            };
            calls.push(Call {
                app: *app,
                mode,
                cfg: mode.config(),
                len,
                fig8: true,
                expected_committed,
            });
        }
    }
    for (int_prf, fp_prf) in PRF_SIZES {
        for app in apps.iter().filter(|a| a.threads <= 1) {
            let len = len_for_base(app, SWEEP_BASE);
            for mode in [Mode::Baseline, Mode::Ppa] {
                let mut cfg = mode.config();
                cfg.core = cfg.core.with_prf(int_prf, fp_prf);
                calls.push(Call {
                    app: *app,
                    mode,
                    cfg,
                    len,
                    fig8: false,
                    expected_committed: (app.threads.max(1) * len) as u64,
                });
            }
        }
    }
    (apps, calls)
}

/// Simulated statistics summed over the first pass's fig8 reports.
#[derive(Default)]
struct ModeSums {
    cycles: u64,
    committed: u64,
    regions: u64,
    region_end_stall: u64,
    rename_noreg_stall: u64,
    sq_full_stall: u64,
    csq_full_boundaries: u64,
    barrier_commit_stall: u64,
    /// (hits, misses) per level: l1d, l2, dram.
    levels: [(u64, u64); 3],
    nvm_writes: u64,
    wpq_stall: u64,
}

impl ModeSums {
    fn add(&mut self, r: &SimReport) {
        self.cycles += r.cycles;
        self.committed += r.committed;
        for c in &r.core_stats {
            self.regions += c.regions;
            self.region_end_stall += c.region_end_stall_cycles;
            self.rename_noreg_stall += c.rename_noreg_stall_cycles;
            self.sq_full_stall += c.sq_full_stall_cycles;
            self.csq_full_boundaries += c.csq_full_boundaries;
            self.barrier_commit_stall += c.barrier_commit_stall_cycles;
        }
        let m = &r.mem_stats;
        for (sum, level) in self.levels.iter_mut().zip([&m.l1d, &m.l2, &m.dram]) {
            sum.0 += level.hits;
            sum.1 += level.misses;
        }
        self.nvm_writes += m.nvm.writes;
        self.wpq_stall += m.wpq_stall_cycles;
    }
}

/// Everything one measuring loop observed.
#[derive(Default)]
struct Observed {
    log: PassLog,
    /// First-pass cycles per call, which repeat passes must reproduce.
    first_cycles: Vec<u64>,
    modes: BTreeMap<Mode, ModeSums>,
    generated_uops: u64,
    pass_added_uops: u64,
    counters: BTreeMap<String, u64>,
}

fn measure(
    calls: &[Call],
    seed: u64,
    seconds: f64,
    min_passes: usize,
    setups: &mut SetupTimes,
    tracer: &mut Tracer,
    tally: &mut Tally,
) -> Observed {
    let mut o = Observed::default();
    let between = || {
        setups.time(|| setup(seed));
    };
    let log = run_passes(seconds, min_passes, calls.len(), between, |pass, i| {
        let call = &calls[i];
        let machine = Machine::new(call.cfg);
        let before = tracer.enabled().then(ppa_obs::registry::snapshot);
        let report = tracer.span("bench.unit", |t| {
            if t.enabled() {
                // Attribution only: generate and transform the same
                // inputs the call will, so the simulator's self time
                // is the call minus these two.
                let threads = call.app.threads.max(1);
                let raw: Vec<_> = t.span("workloads.generate", |_| {
                    (0..threads)
                        .map(|tid| call.app.generate_thread(call.len, seed, tid))
                        .collect()
                });
                let prepared: Vec<_> = t.span("isa.pass", |_| {
                    raw.iter().map(|tr| machine.prepare_trace(tr)).collect()
                });
                let raw_uops: usize = raw.iter().map(|tr| tr.len()).sum();
                let prepared_uops: usize = prepared.iter().map(|tr| tr.len()).sum();
                o.generated_uops += raw_uops as u64;
                o.pass_added_uops += (prepared_uops - raw_uops) as u64;
            }
            t.span("sim.run_app_parallel", |_| {
                machine.run_app_parallel(&call.app, call.len, seed)
            })
        });
        if let Some(before) = before {
            let deltas = counter_deltas(&before, &["sim."]);
            for (name, v) in &deltas {
                *o.counters.entry(name.clone()).or_default() += v;
            }
            tracer.attach(deltas);
        }
        let wsp = call.mode != Mode::Baseline;
        let repeat_ok = pass == 0 || o.first_cycles[i] == report.cycles;
        tally.record(
                report.committed == call.expected_committed
                    && (!wsp || report.consistent)
                    && repeat_ok,
                || {
                    format!(
                        "figs pass {pass} {} {} len {}: committed {} (want {}), consistent {}, cycles {} (first pass {:?})",
                        call.app.name,
                        call.mode.name(),
                        call.len,
                        report.committed,
                        call.expected_committed,
                        report.consistent,
                        report.cycles,
                        o.first_cycles.get(i)
                    )
                },
            );
        if pass == 0 {
            o.first_cycles.push(report.cycles);
            if call.fig8 {
                o.modes.entry(call.mode).or_default().add(&report);
            }
        }
    });
    o.log = log;
    o
}

/// Simulates fig8 as `repro fig8` does, at the default length and trace
/// seed `seed`: each app's baseline, PPA and Capri cycles.
fn fig8_default(apps: &[AppDescriptor], seed: u64) -> Vec<(u64, u64, u64)> {
    apps.iter()
        .map(|app| {
            let len = len_for_base(app, DEFAULT_LEN);
            let cycles = |mode: Mode| {
                Machine::new(mode.config())
                    .run_app_parallel(app, len, seed)
                    .cycles
            };
            (
                cycles(Mode::Baseline),
                cycles(Mode::Ppa),
                cycles(Mode::Capri),
            )
        })
        .collect()
}

/// Compares fig8 at `ppa_bench::SEED` (`cells`, from [`fig8_default`]),
/// formatted as `repro fig8` prints it, with the committed reproduction
/// table.
fn check_against_repro(apps: &[AppDescriptor], cells: &[(u64, u64, u64)], tally: &mut Tally) {
    let table = std::fs::read_to_string(REPRO_TABLE).unwrap_or_default();
    let expected: Vec<Vec<&str>> = table
        .lines()
        .skip_while(|l| l.trim() != "=== fig8 ===")
        .skip(3)
        .take_while(|l| !l.trim().is_empty())
        .map(|l| l.split_whitespace().collect())
        .collect();
    let mut want = Vec::new();
    for (app, &(base, ppa, cap)) in apps.iter().zip(cells) {
        want.push(vec![
            app.name.to_string(),
            app.suite.to_string(),
            fmt_slowdown(ppa as f64 / base as f64),
            fmt_slowdown(cap as f64 / base as f64),
        ]);
    }
    let ppa_pairs: Vec<_> = cells.iter().map(|&(b, p, _)| (p, b)).collect();
    let cap_pairs: Vec<_> = cells.iter().map(|&(b, _, c)| (c, b)).collect();
    want.push(vec![
        "gmean".into(),
        fmt_slowdown(ratio_gmean(&ppa_pairs).unwrap_or(f64::NAN)),
        fmt_slowdown(ratio_gmean(&cap_pairs).unwrap_or(f64::NAN)),
    ]);
    let got: Vec<Vec<String>> = expected
        .iter()
        .take(want.len())
        .map(|row| row.iter().map(|s| s.to_string()).collect())
        .collect();
    tally.record(got == want, || {
        format!("fig8 at seed {SEED} differs from {REPRO_TABLE}: got {want:?}, table has {got:?}")
    });
}

pub fn run(args: &Args) -> (Tally, Metrics) {
    let mut tally = Tally::default();
    let mut m = Metrics::default();
    let mut setups = SetupTimes::default();
    let (apps, calls) = setups.time(|| setup(args.seed));

    if !args.trace {
        let o = measure(
            &calls,
            args.seed,
            args.seconds,
            4,
            &mut setups,
            &mut Tracer::new(false, args.seed),
            &mut tally,
        );
        let fig8 = fig8_default(&apps, args.seed);
        if args.seed == SEED {
            check_against_repro(&apps, &fig8, &mut tally);
        }
        let ppa_pairs: Vec<_> = fig8.iter().map(|&(b, p, _)| (p, b)).collect();
        m.set("setup_s", setups.median_s(), "s");
        m.set(
            "sim_cycles_per_s",
            o.log.rate(0, |i| o.first_cycles[i] as f64),
            "cycles/s",
        );
        m.set(
            "ppa_slowdown_gmean",
            ratio_gmean(&ppa_pairs).unwrap_or(f64::NAN),
            "ratio",
        );
        let wsp = |i: usize| f64::from(u8::from(calls[i].mode != Mode::Baseline));
        m.set("crash_cells_per_s", o.log.rate(0, wsp), "cells/s");
        m.set(
            "litmus_coverage",
            ppa_litmus::run::BatchTotals::from_rows(&[]).coverage(),
            "%",
        );
        pass_metrics(&mut m, &o.log, &mut tally);
        m.set("peak_rss_mb", peak_rss_mb().unwrap_or(f64::NAN), "MB");
        return (tally, m);
    }

    let half = args.seconds / 2.0;
    let plain = measure(
        &calls,
        args.seed,
        half,
        1,
        &mut setups,
        &mut Tracer::new(false, args.seed),
        &mut tally,
    );
    let mut tracer = Tracer::new(true, args.seed);
    let o = measure(
        &calls,
        args.seed,
        half,
        1,
        &mut setups,
        &mut tracer,
        &mut tally,
    );
    write_spans(&tracer, args);
    let gen_s = tracer.busy_s("workloads.generate");
    let pass_s = tracer.busy_s("isa.pass");
    let sim_s = tracer.busy_s("sim.run_app_parallel") - gen_s - pass_s;
    let counter = |name: &str| o.counters.get(name).copied().unwrap_or(0) as f64;
    m.set("workloads.generate.busy_s", gen_s, "s");
    m.set("workloads.generate.uops", o.generated_uops as f64, "uops");
    m.set("isa.pass.busy_s", pass_s, "s");
    m.set("isa.pass.uops_added", o.pass_added_uops as f64, "uops");
    m.set("sim.run.busy_s", sim_s, "s");
    m.set("sim.runs", counter("sim.machine.runs"), "count");
    m.set("sim.cycles", counter("sim.cycles.total"), "cycles");
    m.set("sim.uops", counter("sim.uops.committed"), "uops");
    m.set(
        "sim.host_ns_per_cycle",
        sim_s * 1e9 / counter("sim.cycles.total"),
        "ns",
    );
    for (mode, s) in &o.modes {
        m.set(
            format!("core.ipc.{}", mode.name()),
            s.committed as f64 / s.cycles as f64,
            "uops/cycle",
        );
    }
    if let Some(p) = o.modes.get(&Mode::Ppa) {
        m.set("core.regions.ppa", p.regions as f64, "count");
        m.set(
            "core.region_end_stall_cycles.ppa",
            p.region_end_stall as f64,
            "cycles",
        );
        m.set(
            "core.rename_noreg_stall_cycles.ppa",
            p.rename_noreg_stall as f64,
            "cycles",
        );
        m.set(
            "core.sq_full_stall_cycles.ppa",
            p.sq_full_stall as f64,
            "cycles",
        );
        m.set(
            "core.csq_full_boundaries.ppa",
            p.csq_full_boundaries as f64,
            "count",
        );
    }
    if let Some(c) = o.modes.get(&Mode::Capri) {
        m.set(
            "core.barrier_commit_stall_cycles.capri",
            c.barrier_commit_stall as f64,
            "cycles",
        );
    }
    let mut all = ModeSums::default();
    for s in o.modes.values() {
        for (sum, level) in all.levels.iter_mut().zip(s.levels) {
            sum.0 += level.0;
            sum.1 += level.1;
        }
        all.nvm_writes += s.nvm_writes;
        all.wpq_stall += s.wpq_stall;
    }
    for (name, (hits, misses)) in ["l1d", "l2", "dram"].iter().zip(all.levels) {
        m.set(
            format!("mem.{name}.miss_ratio"),
            misses as f64 / (hits + misses) as f64,
            "ratio",
        );
    }
    m.set("mem.nvm.writes", all.nvm_writes as f64, "count");
    m.set("mem.wpq_stall_cycles", all.wpq_stall as f64, "cycles");
    m.set(
        "trace.overhead_pct",
        (o.log.first_pass_s() / plain.log.first_pass_s() - 1.0) * 100.0,
        "%",
    );
    (tally, m)
}
