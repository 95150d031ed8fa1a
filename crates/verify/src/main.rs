//! The `ppa-verify` command-line driver.
//!
//! ```text
//! ppa-verify <check|lint|analyze|oracle|smp|mutate|all> [--len N] [--seed N] [--points N] [--cores N] [--jobs N] [--json]
//! ```
//!
//! Exit code 0 means every selected verification passed; 1 means at
//! least one violation, lint error, oracle failure, or undetected
//! mutation.
//!
//! `--jobs N` (or `PPA_JOBS=N`; `0` = one worker per CPU) fans each
//! stage out across the shared thread pool: invariant checks and
//! lints per workload, the crash oracle over its (app x failure-point)
//! grid, and the mutation self-tests per injected fault. Output order
//! and content are identical at any job count.

use ppa_isa::transform::{AutoPersistPass, CapriPass, ReplayCachePass, TracePass};
use ppa_serve::GridHandle;
use ppa_verify::analysis::analyze_raw_trace;
use ppa_verify::analysis::crosscheck::run_crosscheck;
use ppa_verify::analysis::race::{detect_races, inject_second_writer, strip_syncs, RaceRule};
use ppa_verify::lint::{LintProfile, Severity};
use ppa_verify::{grid, lint_trace, mutation, oracle, runner, smp_oracle};
use ppa_workloads::registry;
use std::process::ExitCode;
use std::sync::Arc;

struct Options {
    len: usize,
    seed: u64,
    points: usize,
    cores: usize,
    grid: Option<String>,
    /// `smp --fail-points all`: sweep every cycle of the run as a failure
    /// point instead of `--points` randomized injections.
    fail_points_all: bool,
    /// `lint --json`: one JSON object per diagnostic instead of the
    /// human-readable table.
    json: bool,
    /// Write a flat metrics-JSON snapshot here on exit; `merge` folds
    /// into an existing file (how the validator-share numbers join a
    /// file `repro --metrics-json` wrote) instead of replacing it.
    metrics_json: Option<(std::path::PathBuf, bool)>,
}

impl Default for Options {
    fn default() -> Self {
        // PPA_ORACLE_POINTS raises/lowers the oracle's injection density
        // without touching the command line; `--points` still wins.
        let points = std::env::var("PPA_ORACLE_POINTS")
            .ok()
            .and_then(|v| v.parse().ok())
            .unwrap_or(3);
        Options {
            len: 2_000,
            seed: 1,
            points,
            cores: 2,
            grid: None,
            fail_points_all: false,
            json: false,
            metrics_json: None,
        }
    }
}

fn usage() -> ! {
    eprintln!(
        "usage: ppa-verify <check|lint|analyze|oracle|smp|mutate|all> [--len N] [--seed N] [--points N] [--cores N] [--jobs N] [--grid MODE] [--json]"
    );
    eprintln!();
    eprintln!("  check   run cycle-level invariant checks on all workloads (PPA mode)");
    eprintln!("  lint    lint raw + transformed traces for persistency-barrier defects");
    eprintln!("  analyze dependence graphs, autopersist placement, race detector, crosscheck");
    eprintln!("  oracle  inject randomized power failures and diff recovery vs golden");
    eprintln!("  smp     multi-core crash oracle over shared-state workloads + arbiter mutations");
    eprintln!("  mutate  self-test: injected hardware bugs must be caught by name");
    eprintln!("  all     everything above, in order");
    eprintln!();
    eprintln!("  --len N      uops per workload trace (default 2000)");
    eprintln!("  --seed N     base RNG seed (default 1)");
    eprintln!("  --points N   failure injections per workload for `oracle`/`smp` (default 3)");
    eprintln!(
        "  --cores N    cores for the `smp` oracle machine and `analyze` race threads (default 2)"
    );
    eprintln!("  --fail-points MODE  `smp` only: random (default) draws --points injections;");
    eprintln!("               all sweeps every cycle of the run as a failure point");
    eprintln!("  --json       `lint` only: one JSON object per diagnostic, no table");
    eprintln!("  --jobs N     worker threads for the fan-out (0 = auto, default 1 = serial)");
    eprintln!("  --grid MODE  distribute the `oracle` grid: off (default), loopback:N,");
    eprintln!("               or serve:HOST:PORT to submit to a `ppa-serve daemon`");
    eprintln!("  --metrics-json FILE        write a metrics snapshot (flat JSON) on exit");
    eprintln!("  --metrics-json-merge FILE  like --metrics-json, but merge into FILE");
    eprintln!();
    eprintln!("environment:");
    eprintln!("  PPA_JOBS=N           same as --jobs (the flag wins)");
    eprintln!("  PPA_GRID=MODE        same as --grid (the flag wins)");
    eprintln!("  PPA_GRID_DIE_AFTER=N loopback fault injection: worker 0 drops");
    eprintln!("                       its connection after N units (testing)");
    eprintln!("  PPA_ORACLE_POINTS=N  default for --points");
    eprintln!("  PPA_LOG=LEVEL        stderr log level: error|warn|info|debug (default warn)");
    std::process::exit(2)
}

fn parse_args() -> (String, Options) {
    let mut args = std::env::args().skip(1);
    let cmd = match args.next() {
        Some(c) => c,
        None => usage(),
    };
    let mut opts = Options::default();
    while let Some(flag) = args.next() {
        if flag == "--json" {
            opts.json = true;
            continue;
        }
        let value = args.next().unwrap_or_else(|| usage());
        match flag.as_str() {
            "--len" => opts.len = value.parse().unwrap_or_else(|_| usage()),
            "--seed" => opts.seed = value.parse().unwrap_or_else(|_| usage()),
            "--points" => opts.points = value.parse().unwrap_or_else(|_| usage()),
            "--cores" => opts.cores = value.parse().unwrap_or_else(|_| usage()),
            "--fail-points" => match value.as_str() {
                "all" => opts.fail_points_all = true,
                "random" => opts.fail_points_all = false,
                _ => usage(),
            },
            "--jobs" => ppa_pool::set_jobs(value.parse().unwrap_or_else(|_| usage())),
            "--grid" => opts.grid = Some(value),
            "--metrics-json" => opts.metrics_json = Some((value.into(), false)),
            "--metrics-json-merge" => opts.metrics_json = Some((value.into(), true)),
            _ => usage(),
        }
    }
    (cmd, opts)
}

/// `ppa-verify check`: cycle-level invariants over every workload.
fn cmd_check(opts: &Options) -> bool {
    println!(
        "== check: cycle-level invariants, {} workloads, len={} seed={}",
        registry::all().len(),
        opts.len,
        opts.seed
    );
    let t0 = std::time::Instant::now();
    let reports = {
        let _span = ppa_obs::span("verify.check");
        runner::check_all(opts.len, opts.seed)
    };
    // What fraction of the check's wall time went to the validators
    // themselves (vs simulation)? At --jobs 1 this is a true share;
    // with a pool it can exceed 1.0 since validator time sums across
    // workers. Either way it is the ROADMAP perf item's baseline.
    let wall_ns = t0.elapsed().as_nanos() as f64;
    let validator_ns: u64 = ppa_obs::registry::snapshot()
        .entries()
        .iter()
        .filter_map(|(name, v)| match v {
            ppa_obs::registry::Value::Counter(c)
                if name.starts_with("verify.check.validator.") && name.ends_with(".ns") =>
            {
                Some(*c)
            }
            _ => None,
        })
        .sum();
    if wall_ns > 0.0 {
        ppa_obs::registry::gauge("verify.check.validator_share").set(validator_ns as f64 / wall_ns);
    }
    let mut ok = true;
    for report in reports {
        if report.is_clean() {
            println!(
                "  ok   {:<16} threads={} cycles={}",
                report.app, report.threads, report.cycles
            );
        } else {
            ok = false;
            let status = if report.finished { "FAIL" } else { "HANG" };
            println!(
                "  {} {:<16} threads={} cycles={} violations={}",
                status,
                report.app,
                report.threads,
                report.cycles,
                report.violations.len()
            );
            for v in report.violations.iter().take(10) {
                println!("       {v}");
            }
        }
    }
    ok
}

/// `ppa-verify lint`: raw and transformed traces against their profiles.
fn cmd_lint(opts: &Options) -> bool {
    if !opts.json {
        println!(
            "== lint: persistency linter, raw + replaycache + capri + inorder + autopersist, len={} seed={}",
            opts.len, opts.seed
        );
    }
    let rc = ReplayCachePass::new();
    let capri = CapriPass::new();
    let autopersist = AutoPersistPass::new();
    let json = opts.json;
    // Lint each workload's five trace variants as one pool job; the
    // rendered lines come back in registry order for serial printing.
    let per_app = ppa_pool::par_map_ordered(registry::all(), |app| {
        let raw = app.generate(opts.len, opts.seed);
        let checks = [
            ("raw", lint_trace(&raw, &LintProfile::Raw)),
            (
                "replaycache",
                lint_trace(&rc.apply(&raw), &LintProfile::replaycache_default()),
            ),
            (
                "capri",
                lint_trace(&capri.apply(&raw), &LintProfile::capri_default()),
            ),
            // The raw trace is also what the §6 in-order variant consumes;
            // its value-carrying CSQ adds width and sync-interval rules.
            ("inorder", lint_trace(&raw, &LintProfile::inorder_default())),
            // Dependence-driven flush/fence insertion: lint-clean by
            // construction, so any finding here is a pass bug.
            (
                "autopersist",
                lint_trace(&autopersist.apply(&raw), &LintProfile::AutoPersist),
            ),
        ];
        let mut lines = Vec::new();
        let mut clean = true;
        for (label, diags) in checks {
            let errors = diags
                .iter()
                .filter(|d| d.severity == Severity::Error)
                .count();
            clean &= errors == 0;
            if json {
                for d in &diags {
                    lines.push(d.to_json(app.name, label));
                }
            } else if errors == 0 {
                lines.push(format!(
                    "  ok   {:<16} {:<12} ({} warnings)",
                    app.name,
                    label,
                    diags.len()
                ));
            } else {
                lines.push(format!(
                    "  FAIL {:<16} {:<12} {} errors",
                    app.name, label, errors
                ));
                for d in diags.iter().take(10) {
                    lines.push(format!("       {d}"));
                }
            }
        }
        (lines, clean)
    });
    let mut ok = true;
    for (lines, clean) in per_app {
        ok &= clean;
        for line in lines {
            println!("{line}");
        }
    }
    ok
}

/// `ppa-verify analyze`: the static persist-ordering analysis engine —
/// per-workload dependence graphs with the autopersist-vs-capri barrier
/// comparison, the shared-memory race detector (clean + injected-defect
/// runs), and the static-vs-dynamic soundness cross-check.
fn cmd_analyze(opts: &Options) -> bool {
    let mut ok = true;
    println!(
        "== analyze: persist-dependence graphs + autopersist placement, {} workloads, len={} seed={}",
        registry::all().len(),
        opts.len,
        opts.seed
    );
    let autopersist = AutoPersistPass::new();
    let capri = CapriPass::new();
    let per_app = ppa_pool::par_map_ordered(registry::all(), |app| {
        let raw = app.generate(opts.len, opts.seed);
        let a = analyze_raw_trace(&raw);
        let sealed = autopersist.apply(&raw);
        let errors = lint_trace(&sealed, &LintProfile::AutoPersist)
            .iter()
            .filter(|d| d.severity == Severity::Error)
            .count();
        let ap_barriers = sealed.mix().barriers;
        let capri_barriers = capri.apply(&raw).mix().barriers;
        // The engine's promise: clean by construction, and never more
        // barriers than the region-bounded baseline.
        let clean = errors == 0 && ap_barriers < capri_barriers;
        let status = if clean { "ok  " } else { "FAIL" };
        let line = format!(
            "  {status} {:<16} pairs={:<4} dep-seals={:<3} sync-seals={:<3} barriers={ap_barriers} capri={capri_barriers} lint-errors={errors}",
            app.name,
            a.summary.dependence_pairs,
            a.dependence_seals(),
            a.sync_seals(),
        );
        (line, clean)
    });
    for (line, clean) in per_app {
        ok &= clean;
        println!("{line}");
    }

    let threads = opts.cores.max(2);
    println!(
        "== analyze: race detector, {} shared workloads x {} threads, len={}",
        ppa_workloads::shared::all().len(),
        threads,
        opts.len
    );
    for app in ppa_workloads::shared::all() {
        let set = app.export(opts.len, opts.seed, threads);
        let diags = detect_races(&set.traces);
        if diags.is_empty() {
            println!(
                "  ok   {:<10} clean ({} remote reads across {} written words)",
                app.name,
                set.remote_reads(),
                set.written_words()
            );
        } else {
            ok = false;
            println!(
                "  FAIL {:<10} {} findings on the clean run",
                app.name,
                diags.len()
            );
            for d in diags.iter().take(5) {
                println!("       {d}");
            }
        }
        let (mutated, word) = inject_second_writer(&set.traces, 1);
        let caught_ww = detect_races(&mutated)
            .iter()
            .any(|d| d.rule == RaceRule::WriteWriteRace && d.word == word);
        if caught_ww {
            println!(
                "  ok   {:<10} injected second writer caught (word {word:#x})",
                app.name
            );
        } else {
            ok = false;
            println!("  FAIL {:<10} injected second writer NOT caught", app.name);
        }
        let caught_wr = detect_races(&strip_syncs(&set.traces, 1))
            .iter()
            .any(|d| d.rule == RaceRule::UnsyncedWriteRead);
        if caught_wr {
            println!("  ok   {:<10} stripped reader syncs caught", app.name);
        } else {
            ok = false;
            println!("  FAIL {:<10} stripped reader syncs NOT caught", app.name);
        }
    }

    println!(
        "== analyze: soundness cross-check, static lint vs dynamic crash adversary, seed={}",
        opts.seed
    );
    let report = run_crosscheck(opts.len.min(1_200), opts.seed, threads);
    for c in report.cases.iter().filter(|c| !c.sound()) {
        println!(
            "  UNSOUND {:<16} {} static-clean but dynamically divergent: {:?}",
            c.app, c.mutation, c.divergence
        );
    }
    println!(
        "  {} mutants: flagged={} divergent={} conservative={} unsound={}",
        report.mutants(),
        report.flagged(),
        report.divergent(),
        report.conservative(),
        report.unsound()
    );
    println!(
        "  race judges: {} ({} documented-conservative sync-strip mutants)",
        if report.race_agreed {
            "agree"
        } else {
            "DISAGREE"
        },
        report.race_conservative
    );
    ppa_obs::registry::gauge("verify.analyze.mutants").set(report.mutants() as f64);
    ppa_obs::registry::gauge("verify.analyze.unsound").set(report.unsound() as f64);
    ppa_obs::registry::gauge("verify.analyze.conservative").set(report.conservative() as f64);
    ok && report.passed()
}

/// `ppa-verify oracle`: randomized crash injections across all
/// workloads, distributed over the grid when one is attached.
fn cmd_oracle(opts: &Options, grid_handle: Option<&GridHandle>) -> bool {
    println!(
        "== oracle: {} injections x {} workloads, len={} seed={}",
        opts.points,
        registry::all().len(),
        opts.len,
        opts.seed
    );
    let rows: Vec<grid::OracleRow> = match grid_handle {
        Some(h) => match grid::oracle_rows(h.runner(), opts.len, opts.seed, opts.points) {
            Ok(rows) => rows,
            Err(e) => {
                println!("  grid: {e}");
                return false;
            }
        },
        None => oracle::run_suite(opts.len, opts.seed, opts.points)
            .iter()
            .map(grid::OracleRow::from_outcome)
            .collect(),
    };
    let mut ok = true;
    let mut exercised = 0usize;
    for row in &rows {
        if row.exercised {
            exercised += 1;
        }
        if !row.passed {
            ok = false;
            println!("{}", row.failure);
        }
    }
    println!(
        "  {} / {} points passed; {} exercised non-trivial recovery",
        rows.iter().filter(|r| r.passed).count(),
        rows.len(),
        exercised
    );
    ok
}

/// `ppa-verify smp`: whole-machine crash oracle over the shared-memory
/// multi-core machine, plus the persist-arbiter mutation self-tests.
fn cmd_smp(opts: &Options) -> bool {
    if opts.fail_points_all {
        return cmd_smp_exhaustive(opts);
    }
    println!(
        "== smp: {} injections x {} shared workloads, cores={} len={} seed={}",
        opts.points,
        ppa_workloads::shared::all().len(),
        opts.cores,
        opts.len,
        opts.seed
    );
    let outcomes = smp_oracle::run_smp_suite(opts.cores, opts.len, opts.seed, opts.points);
    let mut ok = true;
    let mut mid_flush = 0usize;
    for o in &outcomes {
        if o.mid_flush_interrupt.is_some() {
            mid_flush += 1;
        }
        if !o.passed() {
            ok = false;
            println!(
                "  FAIL {:<10} fail_cycle={} committed={} replayed={} grants={} torn={} resumed={}",
                o.app,
                o.fail_cycle,
                o.committed,
                o.replayed,
                o.drain_grants,
                o.torn_words,
                o.resumed_to_completion
            );
            for v in o.validator_violations.iter().take(5) {
                println!("       validator: {v}");
            }
            for m in o.recovery_mismatches.iter().take(5) {
                println!("       recovery: {m:?}");
            }
            for m in o.final_mismatches.iter().take(5) {
                println!("       final:    {m:?}");
            }
        }
    }
    println!(
        "  {} / {} machine points passed ({} mid-flush)",
        outcomes.iter().filter(|o| o.passed()).count(),
        outcomes.len(),
        mid_flush
    );
    print_arbiter_mutations(opts) && ok
}

/// `ppa-verify smp --fail-points all`: the exhaustive sweep — every cycle
/// of each shared workload's run is a failure point.
fn cmd_smp_exhaustive(opts: &Options) -> bool {
    println!(
        "== smp: exhaustive fail points x {} shared workloads, cores={} len={} seed={}",
        ppa_workloads::shared::all().len(),
        opts.cores,
        opts.len,
        opts.seed
    );
    let sweeps = smp_oracle::run_smp_suite_exhaustive(opts.cores, opts.len, opts.seed);
    let mut ok = true;
    for s in &sweeps {
        let resumed = s.resume_points.iter().filter(|o| o.passed()).count();
        if s.passed() {
            println!(
                "  ok   {:<10} cells={:<7} torn={:<6} resume-points={}/{}",
                s.app,
                s.cells,
                s.torn_cells,
                resumed,
                s.resume_points.len()
            );
        } else {
            ok = false;
            println!(
                "  FAIL {:<10} cells={} torn={} torn-accepted={} mismatch-cells={} resume-points={}/{}",
                s.app,
                s.cells,
                s.torn_cells,
                s.torn_accepted,
                s.mismatch_cells,
                resumed,
                s.resume_points.len()
            );
            if let Some(f) = &s.first_failure {
                println!("       first: {f}");
            }
        }
    }
    println!(
        "  {} / {} exhaustive sweeps passed ({} cells, {} torn)",
        sweeps.iter().filter(|s| s.passed()).count(),
        sweeps.len(),
        sweeps.iter().map(|s| s.cells).sum::<u64>(),
        sweeps.iter().map(|s| s.torn_cells).sum::<u64>()
    );
    print_arbiter_mutations(opts) && ok
}

/// The persist-arbiter mutation self-tests both `smp` modes end with:
/// every [`ppa_smp::ArbiterFault`] must be caught. Returns whether all
/// were.
fn print_arbiter_mutations(opts: &Options) -> bool {
    let mut ok = true;
    for report in smp_oracle::run_arbiter_mutations(opts.len.min(1_500), opts.seed) {
        let fired = report.fired_kinds();
        if report.detected() {
            println!(
                "  ok   arbiter {:?} detected ({} violations): {:?}",
                report.fault,
                report.violations.len(),
                fired
            );
        } else {
            ok = false;
            println!(
                "  FAIL arbiter {:?} NOT detected; kinds that fired: {:?}",
                report.fault, fired
            );
        }
    }
    ok
}

/// `ppa-verify mutate`: the checker must catch every injected bug.
fn cmd_mutate(_opts: &Options) -> bool {
    println!("== mutate: checker self-test via injected hardware bugs");
    let mut ok = true;
    for report in mutation::run_all() {
        let fired = report.fired_kinds();
        if report.detected() {
            println!(
                "  ok   {:?} detected ({} violations): {:?}",
                report.case.fault,
                report.violations.len(),
                fired
            );
        } else {
            ok = false;
            println!(
                "  FAIL {:?} NOT detected; kinds that fired: {:?}",
                report.case.fault, fired
            );
        }
    }
    ok
}

fn main() -> ExitCode {
    let (cmd, opts) = parse_args();
    let mode = ppa_grid::resolve_grid_mode(opts.grid.as_deref()).unwrap_or_else(|e| {
        eprintln!("ppa-verify: {e}");
        std::process::exit(2);
    });
    // The grid (if requested) distributes the `oracle` stage; the other
    // stages always run locally, so only `oracle` and `all` attach.
    let grid_handle = if matches!(cmd.as_str(), "oracle" | "all") {
        ppa_serve::attach(mode, Arc::new(grid::OracleKind)).unwrap_or_else(|e| {
            eprintln!("ppa-verify: {e}");
            std::process::exit(1);
        })
    } else {
        None
    };
    let ok = match cmd.as_str() {
        "check" => cmd_check(&opts),
        "lint" => cmd_lint(&opts),
        "analyze" => cmd_analyze(&opts),
        "oracle" => cmd_oracle(&opts, grid_handle.as_ref()),
        "smp" => cmd_smp(&opts),
        "mutate" => cmd_mutate(&opts),
        "all" => {
            // Run every stage even after a failure, so one report shows
            // the full picture.
            let c = cmd_check(&opts);
            let l = cmd_lint(&opts);
            let a = cmd_analyze(&opts);
            let o = cmd_oracle(&opts, grid_handle.as_ref());
            let s = cmd_smp(&opts);
            let m = cmd_mutate(&opts);
            c && l && a && o && s && m
        }
        _ => usage(),
    };
    if let Some(h) = &grid_handle {
        h.finish();
    }
    if let Some((path, merge)) = &opts.metrics_json {
        ppa_pool::export_metrics();
        if let Err(e) = ppa_obs::snapshot().write_json_file(path, *merge) {
            eprintln!(
                "ppa-verify: cannot write metrics to {}: {e}",
                path.display()
            );
            return ExitCode::FAILURE;
        }
    }
    if ok {
        println!("ppa-verify: all selected checks passed");
        ExitCode::SUCCESS
    } else {
        println!("ppa-verify: FAILURES detected");
        ExitCode::FAILURE
    }
}
