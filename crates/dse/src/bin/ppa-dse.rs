//! `ppa-dse` — sensitivity-guided design-space exploration CLI.
//!
//! Subcommands:
//!
//! - `axes`  — list the sweepable axes, their levels, and the defaults
//! - `sweep` — run the pruned sweep and print the Pareto frontier over
//!   (runtime overhead, checkpoint bytes, energy)
//!
//! Stdout is a pure function of (seed, axes, apps, len, rounds,
//! threshold, budget): byte-identical at any `--jobs`, grid worker
//! count, or injected worker death. Telemetry goes to stderr /
//! `--metrics-json` only.

use ppa_dse::gridwork::{DseKind, GridEval, LocalEval};
use ppa_dse::{explore, ExploreParams, ExploreResult, FreezeReason, Space};
use ppa_obs::log::verbosity_flag;
use std::sync::Arc;

struct Options {
    cmd: String,
    seed: u64,
    axes: Option<String>,
    apps: Option<String>,
    len: usize,
    rounds: usize,
    freeze_threshold: f64,
    budget: usize,
    grid: Option<String>,
    metrics_json: Option<(std::path::PathBuf, bool)>,
}

fn usage() -> ! {
    eprintln!("usage: ppa-dse <axes|sweep> [--seed N] [--axes A,B,..] [--apps W,X,..] [--len N]");
    eprintln!("               [--rounds N] [--freeze-threshold F] [--budget N] [--jobs N]");
    eprintln!("               [--grid MODE] [--metrics-json FILE]");
    eprintln!();
    eprintln!("options:");
    eprintln!("  --seed N              sweep seed: axis visit order and cell traces (default 1)");
    eprintln!("  --axes A,B            axes to sweep (default: all; see `ppa-dse axes`)");
    eprintln!("  --apps W,X            workload subset (default: all registry workloads)");
    eprintln!("  --len N               base trace length per cell (default: experiment length)");
    eprintln!("  --rounds N            max exploration rounds (default 4)");
    eprintln!(
        "  --freeze-threshold F  freeze an axis whose contribution drops below F (default 0.02)"
    );
    eprintln!("  --budget N            max configurations to evaluate (default: unbounded)");
    eprintln!("  --jobs N              worker threads (0 = serial)");
    eprintln!("  --grid MODE           off (default), loopback:N, or serve:HOST:PORT");
    eprintln!("                        (serve: submit cells to a running `ppa-serve daemon`)");
    eprintln!("  --metrics-json FILE        write the dse.* metrics snapshot");
    eprintln!("  --metrics-json-merge FILE  same, merging into an existing file");
    eprintln!("  -q | -v | -vv         stderr log level: errors only / info / debug");
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
        Some(c) if ["axes", "sweep"].contains(&c.as_str()) => c,
        _ => usage(),
    };
    let mut opts = Options {
        cmd,
        seed: 1,
        axes: None,
        apps: None,
        len: ppa_bench::experiment_len(),
        rounds: 4,
        freeze_threshold: 0.02,
        budget: usize::MAX,
        grid: None,
        metrics_json: None,
    };
    while let Some(flag) = args.next() {
        // Verbosity flags take no value; handle them before the
        // value-consuming parse below would eat the next flag.
        if verbosity_flag(&flag) {
            continue;
        }
        let value = match args.next() {
            Some(v) => v,
            None => usage(),
        };
        match flag.as_str() {
            "--seed" => opts.seed = value.parse().unwrap_or_else(|_| usage()),
            "--axes" => opts.axes = Some(value),
            "--apps" => opts.apps = Some(value),
            "--len" => {
                opts.len = value.parse().unwrap_or_else(|_| usage());
                if opts.len == 0 {
                    usage()
                }
            }
            "--rounds" => opts.rounds = value.parse().unwrap_or_else(|_| usage()),
            "--freeze-threshold" => {
                opts.freeze_threshold = value.parse().unwrap_or_else(|_| usage());
                if !opts.freeze_threshold.is_finite() || opts.freeze_threshold < 0.0 {
                    usage()
                }
            }
            "--budget" => opts.budget = value.parse().unwrap_or_else(|_| usage()),
            "--jobs" => ppa_pool::set_jobs(value.parse().unwrap_or_else(|_| usage())),
            "--grid" => opts.grid = Some(value),
            "--metrics-json" => opts.metrics_json = Some((value.into(), false)),
            "--metrics-json-merge" => opts.metrics_json = Some((value.into(), true)),
            _ => usage(),
        }
    }
    opts
}

fn build_space(opts: &Options) -> Space {
    match &opts.axes {
        None => Space::full(),
        Some(csv) => {
            let names: Vec<&str> = csv.split(',').filter(|s| !s.is_empty()).collect();
            Space::select(&names).unwrap_or_else(|e| {
                ppa_obs::error!("dse", "{e}");
                std::process::exit(2);
            })
        }
    }
}

fn build_apps(opts: &Options) -> Vec<String> {
    match &opts.apps {
        None => ppa_workloads::registry::all()
            .iter()
            .map(|a| a.name.to_string())
            .collect(),
        Some(csv) => {
            let names: Vec<String> = csv
                .split(',')
                .filter(|s| !s.is_empty())
                .map(str::to_string)
                .collect();
            for n in &names {
                if ppa_workloads::registry::by_name(n).is_none() {
                    ppa_obs::error!("dse", "unknown workload '{n}'");
                    std::process::exit(2);
                }
            }
            names
        }
    }
}

fn cmd_axes() {
    let space = Space::full();
    println!(
        "== ppa-dse axes: {} axes, raw grid {}",
        space.axes().len(),
        space.raw_size()
    );
    for axis in space.axes() {
        let levels: Vec<String> = (0..axis.len())
            .map(|i| {
                let label = axis.level_label(i);
                if i == axis.default {
                    format!("{label}*")
                } else {
                    label
                }
            })
            .collect();
        println!("  {:<8} {}", axis.name, levels.join(" "));
    }
    println!("  (* = paper default; unselected axes stay at their defaults)");
}

/// Renders the deterministic sweep report.
fn render(space: &Space, params: &ExploreParams, r: &ExploreResult) -> String {
    use std::fmt::Write as _;
    let mut out = String::new();
    let axis_names: Vec<&str> = space.axes().iter().map(|a| a.name).collect();
    let _ = writeln!(
        out,
        "=== ppa-dse sweep: seed {}, axes {}, {} workloads, len {} ===",
        params.seed,
        axis_names.join(","),
        params.apps.len(),
        params.base_len
    );
    for p in &r.probes {
        let axis = space.axes()[p.axis].name;
        match p.froze {
            Some(reason) => {
                let _ = writeln!(
                    out,
                    "  round {}: axis {:<8} contribution {:.4} -> frozen ({reason})",
                    p.round, axis, p.contribution
                );
            }
            None => {
                let _ = writeln!(
                    out,
                    "  round {}: axis {:<8} contribution {:.4}",
                    p.round, axis, p.contribution
                );
            }
        }
    }
    let _ = writeln!(
        out,
        "  raw grid {} | evaluated {} | pruned {:.1}% | cells {} | rounds {} | frontier {}",
        space.raw_size(),
        r.evaluated.len(),
        r.pruned_pct(space.raw_size()),
        r.cells,
        r.rounds.len(),
        r.frontier.len()
    );
    let _ = writeln!(out, "  pareto frontier (all objectives minimized):");
    let _ = writeln!(
        out,
        "    {:>9} {:>8} {:>12}  config",
        "overhead", "ckpt-B", "energy-uJ"
    );
    let mut rows: Vec<(&Vec<usize>, &ppa_dse::Objectives)> = r
        .frontier
        .iter()
        .map(|&i| (&r.evaluated[i].0, &r.evaluated[i].1))
        .collect();
    rows.sort_by(|(ea, a), (eb, b)| {
        a.overhead
            .total_cmp(&b.overhead)
            .then(a.ckpt_bytes.cmp(&b.ckpt_bytes))
            .then(a.energy_uj.total_cmp(&b.energy_uj))
            .then(space.point(ea).id().cmp(&space.point(eb).id()))
    });
    for (emb, o) in rows {
        let _ = writeln!(
            out,
            "    {:>9.4} {:>8} {:>12.3}  {}",
            o.overhead,
            o.ckpt_bytes,
            o.energy_uj,
            space.point(emb).id()
        );
    }
    out
}

/// Publishes the sweep's telemetry (stderr / metrics files only).
fn publish_metrics(space: &Space, r: &ExploreResult) {
    use ppa_obs::registry::{counter, gauge};
    counter("dse.cells").add(r.cells);
    counter("dse.configs.evaluated").add(r.evaluated.len() as u64);
    gauge("dse.configs.raw").set(space.raw_size() as f64);
    gauge("dse.pruned.pct").set(r.pruned_pct(space.raw_size()));
    gauge("dse.frontier.size").set(r.frontier.len() as f64);
    gauge("dse.rounds").set(r.rounds.len() as f64);
    for (reason, name) in [
        (FreezeReason::Threshold, "dse.freezes.threshold"),
        (FreezeReason::Plateau, "dse.freezes.plateau"),
        (FreezeReason::Budget, "dse.freezes.budget"),
        (FreezeReason::Rounds, "dse.freezes.round_limit"),
    ] {
        let n = r.probes.iter().filter(|p| p.froze == Some(reason)).count();
        counter(name).add(n as u64);
    }
}

fn cmd_sweep(opts: &Options) -> bool {
    let space = build_space(opts);
    let mut params = ExploreParams::new(opts.seed, opts.len, build_apps(opts));
    params.freeze_threshold = opts.freeze_threshold;
    params.max_rounds = opts.rounds;
    params.budget = opts.budget;

    let mode = ppa_grid::resolve_grid_mode(opts.grid.as_deref()).unwrap_or_else(|e| {
        ppa_obs::error!("dse", "{e}");
        std::process::exit(2);
    });
    let handle = ppa_serve::attach(mode, Arc::new(DseKind)).unwrap_or_else(|e| {
        ppa_obs::error!("dse", "{e}");
        std::process::exit(1);
    });

    let result = match &handle {
        None => explore(&space, &params, &LocalEval),
        Some(h) => explore(&space, &params, &GridEval(h.runner())),
    };
    let ok = match result {
        Ok(r) => {
            print!("{}", render(&space, &params, &r));
            publish_metrics(&space, &r);
            true
        }
        Err(e) => {
            ppa_obs::error!("dse", "sweep failed: {e}");
            false
        }
    };

    if let Some(h) = &handle {
        h.finish();
    }
    ok
}

fn main() {
    let opts = parse_args();
    let ok = match opts.cmd.as_str() {
        "axes" => {
            cmd_axes();
            true
        }
        "sweep" => cmd_sweep(&opts),
        _ => unreachable!(),
    };

    if let Some((path, merge)) = &opts.metrics_json {
        ppa_pool::export_metrics();
        if let Err(e) = ppa_obs::snapshot().write_json_file(path, *merge) {
            ppa_obs::error!("dse", "failed to write {}: {e}", path.display());
            std::process::exit(1);
        }
    }
    std::process::exit(if ok { 0 } else { 1 });
}
