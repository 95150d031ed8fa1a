//! `ppa-litmus` — persistency-model conformance CLI.
//!
//! Subcommands:
//!
//! - `gen`   — list the generated canonical litmus tests
//! - `model` — print each test's model-allowed post-crash state counts
//! - `run`   — execute the conformance batch on the real machine across
//!   exhaustive failure points and diff against the model
//!
//! Stdout is byte-identical at any `--jobs`, grid worker count, or injected
//! worker death; telemetry goes to stderr / `--metrics-json` only.

use ppa_litmus::generator::{self, GenConfig};
use ppa_litmus::gridwork::{self, LitmusKind};
use ppa_litmus::run::{publish_metrics, render_batch, RunConfig};
use ppa_litmus::{allowed_states, waivers};
use std::sync::Arc;

struct Options {
    cmd: String,
    tests: usize,
    seed: u64,
    tear_stride: u64,
    grid: Option<String>,
    metrics_json: Option<(std::path::PathBuf, bool)>,
}

fn usage() -> ! {
    eprintln!("usage: ppa-litmus <gen|model|run> [--tests N] [--seed N] [--tear-stride N] [--jobs N] [--grid MODE] [--metrics-json FILE]");
    eprintln!();
    eprintln!("options:");
    eprintln!("  --tests N        number of generated litmus tests (default 256)");
    eprintln!("  --seed N         generator seed (default 1)");
    eprintln!("  --tear-stride N  run the mid-flush tearing probe every N cycles (default 7)");
    eprintln!("  --jobs N         worker threads (0 = serial)");
    eprintln!("  --grid MODE      off (default), loopback:N, or serve:HOST:PORT");
    eprintln!("                   (serve: submit to a running `ppa-serve daemon`)");
    eprintln!("  --metrics-json FILE        write the litmus.* metrics snapshot");
    eprintln!("  --metrics-json-merge FILE  same, merging into an existing file");
    eprintln!();
    eprintln!("environment:");
    eprintln!("  PPA_JOBS=N            same as --jobs (the flag wins)");
    eprintln!("  PPA_GRID=MODE         same as --grid (the flag wins)");
    eprintln!("  PPA_GRID_DIE_AFTER=N  loopback fault injection: worker 0 drops");
    eprintln!("                        its connection after N units (testing)");
    eprintln!("  PPA_LOG=LEVEL         stderr log level: error|warn|info|debug");
    std::process::exit(2);
}

fn parse_args() -> Options {
    let mut args = std::env::args().skip(1);
    let cmd = match args.next() {
        Some(c) if ["gen", "model", "run"].contains(&c.as_str()) => c,
        _ => usage(),
    };
    let mut opts = Options {
        cmd,
        tests: 256,
        seed: 1,
        tear_stride: 7,
        grid: None,
        metrics_json: None,
    };
    while let Some(flag) = args.next() {
        let value = match args.next() {
            Some(v) => v,
            None => usage(),
        };
        match flag.as_str() {
            "--tests" => opts.tests = value.parse().unwrap_or_else(|_| usage()),
            "--seed" => opts.seed = value.parse().unwrap_or_else(|_| usage()),
            "--tear-stride" => {
                opts.tear_stride = value.parse().unwrap_or_else(|_| usage());
                if opts.tear_stride == 0 {
                    usage()
                }
            }
            "--jobs" => ppa_pool::set_jobs(value.parse().unwrap_or_else(|_| usage())),
            "--grid" => opts.grid = Some(value),
            "--metrics-json" => opts.metrics_json = Some((value.into(), false)),
            "--metrics-json-merge" => opts.metrics_json = Some((value.into(), true)),
            _ => usage(),
        }
    }
    opts
}

fn main() {
    let opts = parse_args();
    let gen_cfg = GenConfig {
        seed: opts.seed,
        tests: opts.tests,
    };
    let run_cfg = RunConfig {
        tear_stride: opts.tear_stride,
        fault: None,
    };
    let tests = generator::generate(&gen_cfg);

    let ok = match opts.cmd.as_str() {
        "gen" => {
            println!(
                "== litmus: generator, {} tests, seed={}",
                opts.tests, opts.seed
            );
            for t in &tests {
                println!(
                    "  {:<44} cores={} words={} ops={}",
                    t.name,
                    t.cores.len(),
                    t.words(),
                    t.ops()
                );
                for (c, ops) in t.cores.iter().enumerate() {
                    let pretty: Vec<String> = ops.iter().map(|op| op.pretty()).collect();
                    println!("    c{c}: {}", pretty.join("; "));
                }
            }
            true
        }
        "model" => {
            println!(
                "== litmus: axiomatic model, {} tests, seed={}",
                opts.tests, opts.seed
            );
            let mut total = 0u64;
            for t in &tests {
                let m = allowed_states(t);
                let per_core: Vec<String> =
                    m.core_states.iter().map(|s| s.len().to_string()).collect();
                total = total.saturating_add(m.count());
                println!(
                    "  {:<44} allowed={:<6} per-core=[{}]",
                    t.name,
                    m.count(),
                    per_core.join(",")
                );
            }
            println!("  summary: tests={} allowed={total}", tests.len());
            true
        }
        "run" => {
            let mode = ppa_grid::resolve_grid_mode(opts.grid.as_deref()).unwrap_or_else(|e| {
                eprintln!("ppa-litmus: {e}");
                std::process::exit(2);
            });
            let handle = ppa_serve::attach(mode, Arc::new(LitmusKind)).unwrap_or_else(|e| {
                eprintln!("ppa-litmus: {e}");
                std::process::exit(1);
            });
            let rows = gridwork::run_batch(&tests, &run_cfg, handle.as_ref().map(|h| h.runner()));
            if let Some(h) = &handle {
                h.finish();
            }
            match rows {
                Ok(rows) => {
                    print!("{}", render_batch(&rows, opts.tests, opts.seed, &run_cfg));
                    publish_metrics(&rows);
                    let unexercised: Vec<&str> = waivers()
                        .iter()
                        .filter(|w| !rows.iter().any(|r| r.exercised.iter().any(|e| e == w.name)))
                        .map(|w| w.name)
                        .collect();
                    if !unexercised.is_empty() {
                        println!("  stale waivers: {}", unexercised.join(", "));
                    }
                    rows.iter().all(|r| r.passed()) && unexercised.is_empty()
                }
                Err(e) => {
                    println!("  grid: {e}");
                    false
                }
            }
        }
        _ => unreachable!(),
    };

    if let Some((path, merge)) = &opts.metrics_json {
        ppa_pool::export_metrics();
        if let Err(e) = ppa_obs::snapshot().write_json_file(path, *merge) {
            eprintln!("ppa-litmus: failed to write {}: {e}", path.display());
            std::process::exit(1);
        }
    }
    std::process::exit(if ok { 0 } else { 1 });
}
