//! `crash`: the checking stack, mostly its write-and-recover side. One
//! pass runs generated litmus tests on the SMP machine (a crash at every
//! cycle, checkpoint serialise/deserialise, a torn flush every 7th
//! cycle), the exhaustive 4-core SMP crash sweep over the shared
//! workloads, the single-core crash oracle's failure points over every
//! app, and `runner::check_app` with the default validators over a few
//! single-thread apps. Each cell is a few micro-ops, so the pipeline
//! itself does little; checkpoint codec, SMP stepper and arbiter,
//! recovery replay, the axiomatic model and the validators take the
//! time. The whole litmus batch also runs once, unmeasured, for the
//! batch gates and the coverage figure; the pass times a sample of it.

use perfbench_harness::{
    counter_deltas, latency_metrics, peak_rss_mb, ratio_gmean, run_passes, write_spans, Args,
    Metrics, PassLog, SetupTimes, Tally, Tracer,
};
use ppa_litmus::run::BatchTotals;
use ppa_litmus::{
    allowed_states, generate, run_batch_local, GenConfig, LitmusTest, RunConfig, TestRow,
};
use ppa_prng::Prng;
use ppa_verify::runner::check_app;
use ppa_verify::{oracle, smp_oracle};
use ppa_workloads::{registry, shared, AppDescriptor};
use std::collections::BTreeMap;

/// Litmus tests generated and run once for the batch gates and
/// `litmus_coverage`, and how many of them each pass times. A short
/// pass is timed many times over a run, and each call's fastest time
/// discards the moments a busy host slowed it.
const LITMUS_TESTS: usize = 1_920;
const TIMED_TESTS: usize = 160;

/// Cores and per-thread micro-ops of the exhaustive SMP sweep.
const SWEEP_CORES: usize = 4;
const SWEEP_LEN: usize = 1_000;

/// Micro-ops per app and failure points per app of the single-core oracle.
const ORACLE_LEN: usize = 1_500;
const ORACLE_POINTS: usize = 3;

/// Apps `check_app` runs each pass, and their micro-ops. Draining the
/// machine makes each check some 900 cycles. Single-thread apps only: an
/// 8-thread check takes some 170 ms, too long a call to time steadily
/// on a shared host.
const CHECK_MIX: [&str; 4] = ["mcf", "bzip2", "gcc", "hmmer"];
const CHECK_LEN: usize = 80;

/// Validators `attach_default_validators` installs.
const VALIDATORS: [&str; 6] = [
    "free-list",
    "rename",
    "maskreg",
    "csq-order",
    "rob-age",
    "prf-leak",
];

/// The waiver the litmus batch must exercise: the machine recovers a
/// committed prefix, which is stronger than the model requires.
const PREFIX_WAIVER: &str = "ppa-prefix-strength";

enum Call {
    Litmus(usize),
    Sweep(usize),
    Oracle(usize),
    Check(usize),
}

struct Inputs {
    tests: Vec<LitmusTest>,
    sweep_apps: Vec<shared::SharedApp>,
    oracle_apps: Vec<AppDescriptor>,
    /// Each check's app, trace length and seed.
    checks: Vec<(AppDescriptor, usize, u64)>,
}

/// Generates the litmus batch and the checks' seeds from the seed.
fn setup(seed: u64, tracer: &mut Tracer) -> Inputs {
    let tests = tracer.span("litmus.generate", |_| {
        generate(&GenConfig {
            seed,
            tests: LITMUS_TESTS,
        })
    });
    let sweep_apps = shared::all();
    let oracle_apps = registry::all();
    let mut rng = Prng::seed_from_u64(seed);
    let checks: Vec<_> = CHECK_MIX
        .iter()
        .map(|name| {
            let app = registry::by_name(name).expect("check apps are registered");
            (app, CHECK_LEN, rng.next_u64())
        })
        .collect();
    Inputs {
        tests,
        sweep_apps,
        oracle_apps,
        checks,
    }
}

/// The litmus tests a pass times: [`TIMED_TESTS`] of the batch, evenly
/// spaced in the order of their failure points, so that every seed times
/// the same mix of short and long tests.
fn timed_tests(rows: &[TestRow]) -> Vec<usize> {
    let mut order: Vec<usize> = (0..rows.len()).collect();
    order.sort_by_key(|&t| (rows[t].cells, t));
    let step = (rows.len() / TIMED_TESTS).max(1);
    order
        .into_iter()
        .skip(step / 2)
        .step_by(step)
        .take(TIMED_TESTS)
        .collect()
}

/// One pass: the timed litmus tests, then every sweep, oracle and check
/// call.
fn pass_calls(inputs: &Inputs, timed: &[usize]) -> Vec<Call> {
    timed
        .iter()
        .map(|&t| Call::Litmus(t))
        .chain((0..inputs.sweep_apps.len()).map(Call::Sweep))
        .chain((0..inputs.oracle_apps.len()).map(Call::Oracle))
        .chain((0..inputs.checks.len()).map(Call::Check))
        .collect()
}

#[derive(Default)]
struct Observed {
    log: PassLog,
    /// First-pass signature per call, which repeat passes must reproduce.
    first: Vec<Vec<u64>>,
    /// Failure points per call, and the machine cycles it stepped.
    cells: Vec<u64>,
    cycles: Vec<u64>,
    counters: BTreeMap<String, u64>,
}

#[allow(clippy::too_many_arguments)]
fn measure(
    inputs: &Inputs,
    calls: &[Call],
    seed: u64,
    seconds: f64,
    min_passes: usize,
    setups: &mut SetupTimes,
    tracer: &mut Tracer,
    tally: &mut Tally,
) -> Observed {
    let cfg = RunConfig::default();
    let mut o = Observed::default();
    let between = || {
        setups.time(|| setup(seed, &mut Tracer::new(false, seed)));
    };
    let log = run_passes(seconds, min_passes, calls.len(), between, |pass, i| {
        let before = tracer.enabled().then(ppa_obs::registry::snapshot);
        // What the call checked, whether it passed, a signature repeat
        // passes must reproduce, its failure points, and the machine
        // cycles it stepped (none counted for oracle points).
        let (what, ok, signature, cells, cycles) = match calls[i] {
            Call::Litmus(t) => {
                let test = &inputs.tests[t];
                if tracer.enabled() {
                    // Attribution only: the model's share of run_test.
                    tracer.span("litmus.allowed_states", |_| {
                        std::hint::black_box(allowed_states(test))
                    });
                }
                let row = tracer
                    .span("litmus.run_batch_local", |_| {
                        run_batch_local(std::slice::from_ref(test), &cfg)
                    })
                    .remove(0);
                let ok = row.passed();
                let signature = vec![
                    row.cells,
                    row.torn,
                    row.reached,
                    row.allowed,
                    row.unsound_cells,
                ];
                (test.name.clone(), ok, signature, row.cells, row.cells)
            }
            Call::Sweep(a) => {
                let app = &inputs.sweep_apps[a];
                let sweep = tracer.span("smp_oracle.run_smp_app_exhaustive", |_| {
                    smp_oracle::run_smp_app_exhaustive(app, SWEEP_CORES, SWEEP_LEN, seed)
                });
                let ok = sweep.passed();
                let signature = vec![
                    sweep.cells,
                    sweep.torn_cells,
                    sweep.resume_points.len() as u64,
                ];
                let what = format!("smp sweep {} ({:?})", app.name, sweep.first_failure);
                (what, ok, signature, sweep.cells, sweep.cells)
            }
            Call::Oracle(a) => {
                let app = &inputs.oracle_apps[a];
                let points = tracer.span("oracle.run_app", |_| {
                    oracle::run_app(app, ORACLE_LEN, seed, ORACLE_POINTS)
                });
                let failed: Vec<String> = points
                    .iter()
                    .filter(|p| !p.passed())
                    .map(oracle::render_failure)
                    .collect();
                let ok = points.len() == ORACLE_POINTS && failed.is_empty();
                let signature: Vec<u64> = points.iter().map(|p| p.fail_cycle).collect();
                let cells = points.len() as u64;
                (
                    format!("oracle {} {failed:?}", app.name),
                    ok,
                    signature,
                    cells,
                    0,
                )
            }
            Call::Check(c) => {
                let (app, len, check_seed) = &inputs.checks[c];
                let report = tracer.span("runner.check_app", |_| check_app(app, *len, *check_seed));
                let ok = report.is_clean() && report.threads == app.threads;
                let what = format!(
                    "check_app {} len {len} seed {check_seed}: finished {}, violations {:?}",
                    app.name,
                    report.finished,
                    report.violations.first()
                );
                (what, ok, vec![report.cycles], 0, report.cycles)
            }
        };
        if let Some(before) = before {
            let deltas = counter_deltas(&before, &["smp.", "verify.check."]);
            for (name, v) in &deltas {
                *o.counters.entry(name.clone()).or_default() += v;
            }
            tracer.attach(deltas);
        }
        let repeat_ok = pass == 0 || o.first[i] == signature;
        tally.record(ok && repeat_ok, || {
            format!("crash pass {pass} {what}: passed {ok}, reproduces first pass {repeat_ok}")
        });
        if pass == 0 {
            o.cells.push(cells);
            o.cycles.push(cycles);
            o.first.push(signature);
        }
    });
    o.log = log;
    o
}

/// Runs the whole litmus batch once, unmeasured, and applies the
/// run-level gates: every row passes, nothing is machine-unsound, and
/// the prefix-strength waiver is exercised.
fn check_batch(tests: &[LitmusTest], tracer: &mut Tracer, tally: &mut Tally) -> Vec<TestRow> {
    let rows: Vec<TestRow> = tracer.span("litmus.batch", |_| {
        run_batch_local(tests, &RunConfig::default())
    });
    for row in &rows {
        tally.record(row.passed(), || format!("litmus batch: {} fails", row.name));
    }
    let totals = BatchTotals::from_rows(&rows);
    tally.record(totals.unsound == 0, || {
        format!("litmus: {} machine-unsound cell(s)", totals.unsound)
    });
    let exercised = rows
        .iter()
        .filter(|r| r.exercised.iter().any(|w| w == PREFIX_WAIVER))
        .count();
    tally.record(exercised > 0, || {
        format!("litmus: waiver {PREFIX_WAIVER} never exercised")
    });
    rows
}

pub fn run(args: &Args) -> (Tally, Metrics) {
    let mut tally = Tally::default();
    let mut m = Metrics::default();
    let mut tracer = Tracer::new(args.trace, args.seed);
    let mut setups = SetupTimes::default();
    let inputs = setups.time(|| setup(args.seed, &mut tracer));
    let rows = check_batch(&inputs.tests, &mut tracer, &mut tally);
    let totals = BatchTotals::from_rows(&rows);
    let calls = pass_calls(&inputs, &timed_tests(&rows));

    if !args.trace {
        let o = measure(
            &inputs,
            &calls,
            args.seed,
            args.seconds,
            5,
            &mut setups,
            &mut tracer,
            &mut tally,
        );
        m.set("setup_s", setups.median_s(), "s");
        m.set(
            "sim_cycles_per_s",
            o.log.rate(0, |i| o.cycles[i] as f64),
            "cycles/s",
        );
        m.set(
            "ppa_slowdown_gmean",
            ratio_gmean(&[]).unwrap_or(f64::NAN),
            "ratio",
        );
        m.set(
            "crash_cells_per_s",
            o.log.rate(0, |i| o.cells[i] as f64),
            "cells/s",
        );
        m.set("litmus_coverage", totals.coverage(), "%");
        m.set("units_per_s", o.log.rate(0, |_| 1.0), "units/s");
        m.set("cached_units_per_s", o.log.rate(1, |_| 1.0), "units/s");
        // Crash's unit of work is the failure point: a litmus or sweep
        // call's fastest time over its failure points, each one machine
        // cycle crashed and recovered. Litmus tests fall into clusters by
        // shape, and a percentile over whole calls jumps between them as
        // the seed shifts the clusters' sizes. An oracle point is a whole
        // run to its failure cycle, a unit a hundred times larger, so
        // oracle calls stay out.
        let per_cell: Vec<f64> = calls
            .iter()
            .zip(o.log.best_ms())
            .zip(&o.cells)
            .filter(|((c, _), _)| matches!(c, Call::Litmus(_) | Call::Sweep(_)))
            .map(|((_, ms), &n)| ms / n as f64)
            .collect();
        latency_metrics(&mut m, &per_cell, &mut tally);
        m.set("peak_rss_mb", peak_rss_mb().unwrap_or(f64::NAN), "MB");
        return (tally, m);
    }

    let half = args.seconds / 2.0;
    let plain = measure(
        &inputs,
        &calls,
        args.seed,
        half,
        1,
        &mut setups,
        &mut Tracer::new(false, args.seed),
        &mut tally,
    );
    let o = measure(
        &inputs,
        &calls,
        args.seed,
        half,
        1,
        &mut setups,
        &mut tracer,
        &mut tally,
    );
    write_spans(&tracer, args);
    let model_s = tracer.busy_s("litmus.allowed_states");
    m.set("litmus.generate.busy_s", setups.median_s(), "s");
    m.set("litmus.model.busy_s", model_s, "s");
    m.set(
        "litmus.run.busy_s",
        tracer.busy_s("litmus.run_batch_local") - model_s,
        "s",
    );
    m.set("litmus.cells", totals.cells as f64, "count");
    m.set("litmus.torn", totals.torn as f64, "count");
    m.set("litmus.states.reached", totals.reached as f64, "count");
    m.set("litmus.states.allowed", totals.allowed as f64, "count");
    m.set("litmus.unsound", totals.unsound as f64, "count");
    m.set("oracle.busy_s", tracer.busy_s("oracle.run_app"), "s");
    let cells_of = |kind: fn(&Call) -> bool| -> f64 {
        calls
            .iter()
            .zip(&o.cells)
            .filter(|(c, _)| kind(c))
            .map(|(_, &n)| n as f64)
            .sum()
    };
    m.set(
        "oracle.points",
        cells_of(|c| matches!(c, Call::Oracle(_))),
        "count",
    );
    m.set(
        "smp_oracle.busy_s",
        tracer.busy_s("smp_oracle.run_smp_app_exhaustive"),
        "s",
    );
    m.set(
        "smp_oracle.cells",
        cells_of(|c| matches!(c, Call::Sweep(_))),
        "count",
    );
    let counter = |name: &str| o.counters.get(name).copied().unwrap_or(0) as f64;
    let check_s = tracer.busy_s("runner.check_app");
    m.set("verify.check.busy_s", check_s, "s");
    let mut validator_ns = 0.0;
    for v in VALIDATORS {
        let ns = counter(&format!("verify.check.validator.{v}.ns"));
        validator_ns += ns;
        m.set(format!("verify.validator.{v}.ns"), ns, "ns");
    }
    m.set(
        "verify.validator_share",
        validator_ns * 1e-9 / check_s,
        "ratio",
    );
    m.set("smp.cycles", counter("smp.cycles.total"), "cycles");
    m.set("smp.drain.grants", counter("smp.drain.grants"), "count");
    m.set(
        "trace.overhead_pct",
        (o.log.first_pass_s() / plain.log.first_pass_s() - 1.0) * 100.0,
        "%",
    );
    (tally, m)
}
