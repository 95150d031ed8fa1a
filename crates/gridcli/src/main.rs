//! `ppa-grid` — the standalone grid worker and self-test.
//!
//! ```text
//! # host A: the persistent service daemon (see `ppa-serve`)
//! ppa-serve daemon --listen 0.0.0.0:7171 --checkpoint /var/tmp/ppa.ppsc
//!
//! # hosts B, C: execute work units until the daemon stops
//! ppa-grid work --connect hostA:7171 --jobs 8
//!
//! # single host: loopback self-test of the whole stack
//! ppa-grid selftest --workers 3
//! ```
//!
//! Both subcommands route through one [`Registry`] holding every
//! harness's unit kind — benchmark (`repro.*`), oracle (`oracle.*`),
//! litmus (`litmus.*`), and design-space (`dse.*`) — so one worker
//! process serves every `repro`/`ppa-verify`/`ppa-litmus`/`ppa-dse`
//! client of a daemon alike. `selftest` runs each kind's self-test
//! units over a loopback grid — including an injected mid-lease worker
//! death — and checks the transported results byte-for-byte against
//! local execution.

use ppa_grid::coord::GridConfig;
use ppa_grid::loopback;
use ppa_grid::worker::{run_worker, Executor, Registry, WorkerOptions};
use ppa_obs::log::verbosity_flag;
use std::process::ExitCode;
use std::sync::Arc;

/// Every harness's unit kind, routed by tag prefix.
fn registry() -> Registry {
    Registry::new(vec![
        &ppa_bench::gridwork::BenchExecutor,
        &ppa_verify::grid::OracleKind,
        &ppa_litmus::gridwork::LitmusKind,
        &ppa_dse::gridwork::DseKind,
    ])
}

fn usage() -> ! {
    eprintln!("usage: ppa-grid <work|selftest> [options]");
    eprintln!();
    eprintln!("  work --connect HOST:PORT [--jobs N]");
    eprintln!("      execute work units for a `ppa-serve daemon` until it");
    eprintln!("      shuts down; N concurrent units (default: PPA_JOBS, else 1;");
    eprintln!("      0 = auto)");
    eprintln!();
    eprintln!("  selftest [--workers N] [--jobs N]");
    eprintln!("      loopback smoke test: distribute the repro, oracle, litmus");
    eprintln!("      and dse self-test units over N in-process workers (default");
    eprintln!("      2), kill one mid-lease, and diff every result against local");
    eprintln!("      execution");
    eprintln!();
    eprintln!("  verbosity: -q (errors only), -v (info), -vv (debug);");
    eprintln!("      default prints warnings only. PPA_LOG=LEVEL is equivalent");
    eprintln!("      (the flag wins).");
    std::process::exit(2)
}

fn cmd_work(args: &[String]) -> ExitCode {
    let mut connect: Option<String> = None;
    let mut it = args.iter();
    while let Some(a) = it.next() {
        match a.as_str() {
            "--connect" => connect = it.next().cloned(),
            "--jobs" => ppa_pool::set_jobs(
                it.next()
                    .and_then(|v| v.parse().ok())
                    .unwrap_or_else(|| usage()),
            ),
            a if verbosity_flag(a) => {}
            _ => usage(),
        }
    }
    let connect = connect.unwrap_or_else(|| usage());
    let jobs = ppa_pool::configured_jobs();
    ppa_obs::info!("grid", "connecting to {connect} with {jobs} job slot(s)");
    match run_worker(
        connect.as_str(),
        WorkerOptions {
            jobs,
            ..WorkerOptions::default()
        },
        Arc::new(registry()),
    ) {
        Ok(report) => {
            ppa_obs::info!("grid", "done; executed {} unit(s)", report.executed);
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("ppa-grid: worker failed: {e}");
            ExitCode::FAILURE
        }
    }
}

fn cmd_selftest(args: &[String]) -> ExitCode {
    let mut workers = 2usize;
    let mut it = args.iter();
    while let Some(a) = it.next() {
        match a.as_str() {
            "--workers" => {
                workers = it
                    .next()
                    .and_then(|v| v.parse().ok())
                    .unwrap_or_else(|| usage())
            }
            "--jobs" => ppa_pool::set_jobs(
                it.next()
                    .and_then(|v| v.parse().ok())
                    .unwrap_or_else(|| usage()),
            ),
            a if verbosity_flag(a) => {}
            _ => usage(),
        }
    }
    let workers = workers.max(2); // one dies; at least one must survive

    // Representative traffic: every kind's self-test units, at trace
    // lengths that keep the self-test in the seconds range.
    let exec = Arc::new(registry());
    let units = exec.selftest_units();
    let expected: Vec<Vec<u8>> = units
        .iter()
        .map(|u| {
            exec.execute(&u.tag, &u.payload)
                .expect("selftest units execute locally")
        })
        .collect();

    // Worker 0 drops its connection mid-lease after a few units; the
    // coordinator must re-dispatch its outstanding leases to survivors.
    let mut opts = vec![WorkerOptions {
        die_after: Some(3),
        ..WorkerOptions::default()
    }];
    opts.extend(vec![WorkerOptions::default(); workers - 1]);
    let lb = match loopback::start(opts, exec, GridConfig::default()) {
        Ok(lb) => lb,
        Err(e) => {
            eprintln!("ppa-grid: selftest failed to start loopback grid: {e}");
            return ExitCode::FAILURE;
        }
    };
    ppa_obs::info!(
        "grid",
        "selftest with {workers} loopback workers on {} ({} units, worker 0 dies mid-lease)",
        lb.coordinator().local_addr(),
        units.len()
    );
    let results = lb.run_units(units.clone());
    let stats = lb.coordinator().stats();
    let reports = lb.shutdown();

    let mut ok = true;
    for ((unit, exp), res) in units.iter().zip(&expected).zip(results) {
        match res {
            Ok(outcome) if outcome.payload == *exp => {}
            Ok(_) => {
                eprintln!("ppa-grid: selftest MISMATCH for unit '{}'", unit.tag);
                ok = false;
            }
            Err(e) => {
                eprintln!("ppa-grid: selftest unit '{}' failed: {e}", unit.tag);
                ok = false;
            }
        }
    }
    if !reports.iter().any(|r| r.died) {
        eprintln!("ppa-grid: selftest expected an injected worker death; none occurred");
        ok = false;
    }
    if stats.workers_lost == 0 || stats.redispatched == 0 {
        eprintln!(
            "ppa-grid: selftest expected the coordinator to lose a worker and re-dispatch (lost={}, redispatched={})",
            stats.workers_lost, stats.redispatched
        );
        ok = false;
    }
    ppa_obs::info!(
        "grid",
        "dispatched={} completed={} redispatched={} duplicates={} unit_errors={} workers_joined={} workers_lost={}",
        stats.dispatched, stats.completed, stats.redispatched, stats.duplicates, stats.unit_errors, stats.workers_joined, stats.workers_lost
    );
    if ok {
        println!(
            "ppa-grid: selftest passed (all transported results byte-identical to local execution)"
        );
        ExitCode::SUCCESS
    } else {
        println!("ppa-grid: selftest FAILED");
        ExitCode::FAILURE
    }
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match args.first().map(String::as_str) {
        Some("work") => cmd_work(&args[1..]),
        Some("selftest") => cmd_selftest(&args[1..]),
        _ => usage(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn kinds_have_disjoint_prefixes() {
        let reg = registry();
        let prefixes: Vec<&str> = reg.kinds().iter().map(|k| k.prefix()).collect();
        assert_eq!(prefixes, ["repro.", "oracle.", "litmus.", "dse."]);
        for (i, a) in prefixes.iter().enumerate() {
            for b in &prefixes[i + 1..] {
                assert!(!a.starts_with(b) && !b.starts_with(a), "{a} vs {b}");
            }
        }
    }

    #[test]
    fn registry_routes_every_kind_to_itself() {
        let reg = registry();
        for kind in reg.kinds() {
            let units = kind.selftest_units();
            assert!(
                !units.is_empty(),
                "{} has no self-test units",
                kind.prefix()
            );
            for u in units {
                let direct = kind.execute(&u.tag, &u.payload).expect("unit executes");
                assert_eq!(reg.execute(&u.tag, &u.payload), Ok(direct), "{}", u.tag);
            }
        }
    }

    #[test]
    fn unknown_tags_are_named_in_the_error() {
        let err = registry().execute("zzz.x", &[]).unwrap_err();
        assert!(err.contains("zzz.x"), "{err}");
    }
}
