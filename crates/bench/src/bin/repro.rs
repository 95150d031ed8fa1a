//! `repro` — regenerates every figure and table of the PPA paper.
//!
//! ```text
//! cargo run -p ppa-bench --release --bin repro -- fig8
//! cargo run -p ppa-bench --release --bin repro -- --jobs 8 all
//! PPA_JOBS=8 cargo run -p ppa-bench --release --bin repro -- all
//! PPA_REPRO_LEN=100000 cargo run -p ppa-bench --release --bin repro -- fig16
//! cargo run -p ppa-bench --release --bin repro -- --grid loopback:2 all
//! cargo run -p ppa-bench --release --bin repro -- --metrics-json m.json all
//! ```
//!
//! Parallelism (`--jobs N` / `PPA_JOBS=N`; `0` = one worker per CPU)
//! fans per-app simulation out across the shared thread pool and,
//! for `all`, runs whole experiments concurrently. With `--grid` (or
//! `PPA_GRID`) the fan-out crosses hosts instead: `loopback:N` spawns N
//! in-process workers, `serve:HOST:PORT` submits to a running
//! `ppa-serve` daemon (results come back from its content-addressed
//! cache when available). Tables always print to stdout in paper
//! order and are byte-identical at any job count and any grid
//! configuration; all telemetry — timings, `--metrics` tables,
//! `--metrics-json` / `--trace-out` files — goes to stderr or to the
//! named files so stdout stays deterministic.

use ppa_bench::{experiments, gridwork};
use ppa_stats::fmt_duration;
use std::path::PathBuf;
use std::sync::Arc;
use std::time::Instant;

fn usage() -> ! {
    eprintln!("usage: repro [OPTIONS] <experiment>... | all | list");
    eprintln!();
    eprintln!("options:");
    eprintln!("  --jobs N            worker threads for per-app fan-out (0 = auto,");
    eprintln!("                      default 1 = serial); PPA_JOBS=N is equivalent");
    eprintln!("  --grid MODE         off (default), loopback:N (self-test with N");
    eprintln!("                      in-process workers), or serve:HOST:PORT");
    eprintln!("                      (submit to a running `ppa-serve daemon`)");
    eprintln!("  --metrics           print the metrics registry to stderr on exit");
    eprintln!("  --metrics-json FILE write the metrics registry as flat JSON");
    eprintln!("  --trace-out FILE    write a Chrome trace_event timeline (open in");
    eprintln!("                      chrome://tracing or https://ui.perfetto.dev)");
    eprintln!("  --profile           arm the cycle-attribution profiler (results");
    eprintln!("                      land in the prof.* metrics family; pipeline");
    eprintln!("                      stages need --features ppa-core/prof)");
    eprintln!("  --prof-out FILE     write collapsed (flamegraph) stacks derived");
    eprintln!("                      from prof.*; implies --profile");
    eprintln!();
    eprintln!("environment:");
    eprintln!("  PPA_JOBS=N        same as --jobs (the flag wins)");
    eprintln!("  PPA_GRID=MODE     same as --grid (the flag wins)");
    eprintln!("  PPA_GRID_DIE_AFTER=N  loopback fault injection: worker 0 drops");
    eprintln!("                    its connection after N units (testing)");
    eprintln!("  PPA_REPRO_LEN=N   per-app trace length (default 40000)");
    eprintln!("  PPA_LOG=LEVEL     stderr log level: error|warn|info|debug");
    eprintln!();
    eprintln!("experiments:");
    for (id, _) in experiments::all_experiments() {
        eprintln!("  {id}");
    }
    std::process::exit(2);
}

fn main() {
    let mut ids: Vec<String> = Vec::new();
    let mut grid_flag: Option<String> = None;
    let mut metrics_table = false;
    let mut metrics_json: Option<PathBuf> = None;
    let mut trace_out: Option<PathBuf> = None;
    let mut profile = false;
    let mut prof_out: Option<PathBuf> = None;
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--jobs" | "-j" => {
                let n = args
                    .next()
                    .and_then(|v| v.parse::<usize>().ok())
                    .unwrap_or_else(|| usage());
                ppa_pool::set_jobs(n);
            }
            "--grid" => grid_flag = Some(args.next().unwrap_or_else(|| usage())),
            "--metrics" => metrics_table = true,
            "--metrics-json" => {
                metrics_json = Some(PathBuf::from(args.next().unwrap_or_else(|| usage())));
            }
            "--trace-out" => {
                trace_out = Some(PathBuf::from(args.next().unwrap_or_else(|| usage())));
            }
            "--profile" => profile = true,
            "--prof-out" => {
                prof_out = Some(PathBuf::from(args.next().unwrap_or_else(|| usage())));
                profile = true;
            }
            "--help" | "-h" => usage(),
            _ => ids.push(arg),
        }
    }
    if ids.is_empty() {
        usage();
    }
    if trace_out.is_some() {
        ppa_obs::span::enable_trace();
    }
    if profile {
        ppa_sim::set_profiling(true);
        if !ppa_core::prof::STAGE_TIMING {
            eprintln!(
                "repro: this build lacks ppa-core's `prof` feature; --profile times \
                 SMP phases but not pipeline stages (rebuild with \
                 `--features ppa-core/prof`)"
            );
        }
    }

    let registry = experiments::all_experiments();
    if ids.iter().any(|id| id == "list") {
        for (id, _) in registry {
            println!("{id}");
        }
        return;
    }

    let selected: Vec<(&'static str, experiments::Experiment)> = if ids.iter().any(|id| id == "all")
    {
        registry
    } else {
        ids.iter()
            .map(|id| {
                registry
                    .iter()
                    .find(|(n, _)| n == id)
                    .copied()
                    .unwrap_or_else(|| usage())
            })
            .collect()
    };

    let mode = ppa_grid::resolve_grid_mode(grid_flag.as_deref()).unwrap_or_else(|e| {
        eprintln!("repro: {e}");
        std::process::exit(2);
    });
    let grid_on = match ppa_serve::attach(mode, Arc::new(gridwork::BenchExecutor)) {
        Ok(Some(handle)) => {
            gridwork::install(handle);
            true
        }
        Ok(None) => false,
        Err(e) => {
            eprintln!("repro: {e}");
            std::process::exit(1);
        }
    };

    // Run every selected experiment through the pool (serial unless jobs
    // were requested), buffering each rendered table so stdout comes out
    // in paper order regardless of completion order. A grid failure
    // (unit retries exhausted) panics with the failing unit's tag; turn
    // that into a clean nonzero exit naming the culprit.
    let t0 = Instant::now();
    let run = || {
        let _run_span = ppa_obs::span("repro.run");
        ppa_pool::par_map_ordered(selected, |(id, f)| {
            let _span = ppa_obs::span(&format!("experiment.{id}"));
            let table = gridwork::render_experiment(id, f);
            (id, table)
        })
    };
    let rendered = if grid_on {
        match std::panic::catch_unwind(std::panic::AssertUnwindSafe(run)) {
            Ok(r) => r,
            Err(payload) => {
                eprintln!("repro: {}", ppa_pool::panic_message(payload.as_ref()));
                std::process::exit(1);
            }
        }
    } else {
        run()
    };
    let wall = t0.elapsed();
    for (id, table) in rendered {
        println!("=== {id} ===");
        println!("{table}");
    }
    // One stable per-experiment timing format (aggregated from the
    // spans; sorted by label, not completion order).
    for line in ppa_obs::span::timing_lines("experiment.") {
        eprintln!("{line}");
    }
    eprintln!("total: {}", fmt_duration(wall));

    if let Some(grid) = gridwork::active() {
        grid.finish();
    }

    // Telemetry exports happen after all result output: fold the pool
    // counters in, derive throughput, then render/write the snapshot.
    if metrics_table || metrics_json.is_some() {
        ppa_pool::export_metrics();
        let secs = wall.as_secs_f64();
        if secs > 0.0 {
            let snap = ppa_obs::snapshot();
            if let Some(ppa_obs::registry::Value::Counter(cycles)) = snap.get("sim.cycles.total") {
                ppa_obs::registry::gauge("sim.cycles_per_sec").set(*cycles as f64 / secs);
            }
        }
        let snap = ppa_obs::snapshot();
        if metrics_table {
            eprint!("{}", snap.to_table());
        }
        if let Some(path) = &metrics_json {
            if let Err(e) = snap.write_json_file(path, false) {
                eprintln!("repro: failed to write {}: {e}", path.display());
                std::process::exit(1);
            }
        }
    }
    if let Some(path) = &trace_out {
        match ppa_obs::span::write_trace(path) {
            Ok(n) => ppa_obs::info!("trace", "wrote {n} events to {}", path.display()),
            Err(e) => {
                eprintln!("repro: failed to write {}: {e}", path.display());
                std::process::exit(1);
            }
        }
    }
    if let Some(path) = &prof_out {
        let stacks = ppa_obs::prof::collapsed_stacks();
        let lines = stacks.lines().count();
        match std::fs::write(path, &stacks) {
            Ok(()) => ppa_obs::info!(
                "prof",
                "wrote {lines} collapsed stacks to {}",
                path.display()
            ),
            Err(e) => {
                eprintln!("repro: failed to write {}: {e}", path.display());
                std::process::exit(1);
            }
        }
    }
}
