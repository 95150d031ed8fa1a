//! `ppa-serve` — the persistent simulation service CLI.
//!
//! ```text
//! # start a daemon (workers and clients share the one port)
//! ppa-serve daemon --listen 127.0.0.1:7171 --checkpoint /var/tmp/ppa.ppsc
//! ppa-grid work --connect 127.0.0.1:7171 --jobs 8
//!
//! # any number of concurrent clients
//! repro --grid serve:127.0.0.1:7171 fig1
//! ppa-verify oracle --grid serve:127.0.0.1:7171
//! ppa-litmus run --grid serve:127.0.0.1:7171
//!
//! # observe / stop
//! ppa-serve stats --connect 127.0.0.1:7171
//! ppa-serve stop  --connect 127.0.0.1:7171
//! ```
//!
//! The daemon prints nothing on stdout; telemetry goes to stderr and
//! `--metrics-json`.

use ppa_obs::log::verbosity_flag;
use ppa_serve::{Daemon, DaemonOptions, ServeClient};
use std::io::Write;
use std::process::ExitCode;
use std::time::Duration;

fn usage() -> ! {
    eprintln!("usage: ppa-serve <daemon|stats|stop|watch> [options]");
    eprintln!();
    eprintln!("  daemon --listen HOST:PORT [--checkpoint FILE]");
    eprintln!("         [--checkpoint-interval SECS] [--metrics-json FILE]");
    eprintln!("         [--port-file FILE] [--cache-max-entries N]");
    eprintln!("         [--cache-max-bytes N]");
    eprintln!("      run the persistent coordinator: workers (ppa-grid work)");
    eprintln!("      and clients (repro/ppa-verify/ppa-litmus --grid serve:...)");
    eprintln!("      dial the same port; results are served from the");
    eprintln!("      content-addressed cache when available. With --checkpoint");
    eprintln!("      the queue and cache survive restarts. --port-file writes");
    eprintln!("      the resolved HOST:PORT (useful with port 0). The cache");
    eprintln!("      limits evict least-recently-used results past N entries");
    eprintln!("      or N bytes (unbounded by default).");
    eprintln!();
    eprintln!("  stats --connect HOST:PORT");
    eprintln!("      print the daemon's cache/queue/client counters");
    eprintln!();
    eprintln!("  stop --connect HOST:PORT");
    eprintln!("      checkpoint and shut the daemon down");
    eprintln!();
    eprintln!("  watch --connect HOST:PORT [--interval SECS] [--count N]");
    eprintln!("      live progress on stderr: queue depth, in-flight leases,");
    eprintln!("      per-worker gauges, cache hit/eviction rates (rates are");
    eprintln!("      per-interval deltas). --count stops after N frames");
    eprintln!("      (default: until interrupted). stdout stays empty.");
    eprintln!();
    eprintln!("  verbosity: -q (errors only), -v (info), -vv (debug);");
    eprintln!("      PPA_LOG=LEVEL is equivalent (the flag wins).");
    std::process::exit(2)
}

fn cmd_daemon(args: &[String]) -> ExitCode {
    let mut opts = DaemonOptions::default();
    let mut listen: Option<String> = None;
    let mut port_file: Option<std::path::PathBuf> = None;
    let mut it = args.iter();
    while let Some(a) = it.next() {
        match a.as_str() {
            "--listen" => listen = it.next().cloned(),
            "--checkpoint" => {
                opts.checkpoint = Some(std::path::PathBuf::from(
                    it.next().cloned().unwrap_or_else(|| usage()),
                ))
            }
            "--checkpoint-interval" => {
                let secs: u64 = it
                    .next()
                    .and_then(|v| v.parse().ok())
                    .unwrap_or_else(|| usage());
                opts.checkpoint_interval = Duration::from_secs(secs.max(1));
            }
            "--metrics-json" => {
                opts.metrics_json = Some(std::path::PathBuf::from(
                    it.next().cloned().unwrap_or_else(|| usage()),
                ))
            }
            "--port-file" => {
                port_file = Some(std::path::PathBuf::from(
                    it.next().cloned().unwrap_or_else(|| usage()),
                ))
            }
            "--cache-max-entries" => {
                opts.cache.max_entries = Some(
                    it.next()
                        .and_then(|v| v.parse().ok())
                        .unwrap_or_else(|| usage()),
                )
            }
            "--cache-max-bytes" => {
                opts.cache.max_bytes = Some(
                    it.next()
                        .and_then(|v| v.parse().ok())
                        .unwrap_or_else(|| usage()),
                )
            }
            a if verbosity_flag(a) => {}
            _ => usage(),
        }
    }
    opts.addr = listen.unwrap_or_else(|| usage());
    let daemon = match Daemon::start(opts) {
        Ok(d) => d,
        Err(e) => {
            ppa_obs::error!("serve", "{e}");
            return ExitCode::FAILURE;
        }
    };
    let addr = daemon.local_addr();
    ppa_obs::info!("serve", "daemon listening on {addr}");
    if let Some(path) = &port_file {
        let write = || -> std::io::Result<()> {
            let mut f = std::fs::File::create(path)?;
            writeln!(f, "{addr}")
        };
        if let Err(e) = write() {
            ppa_obs::error!("serve", "failed to write {}: {e}", path.display());
            return ExitCode::FAILURE;
        }
    }
    daemon.run();
    ppa_obs::info!("serve", "daemon stopped");
    ExitCode::SUCCESS
}

fn parse_connect(args: &[String]) -> String {
    let mut connect: Option<String> = None;
    let mut it = args.iter();
    while let Some(a) = it.next() {
        match a.as_str() {
            "--connect" => connect = it.next().cloned(),
            a if verbosity_flag(a) => {}
            _ => usage(),
        }
    }
    connect.unwrap_or_else(|| usage())
}

fn cmd_stats(args: &[String]) -> ExitCode {
    let addr = parse_connect(args);
    match ServeClient::with_addr(&addr).stats() {
        Ok(s) => {
            // `evictions` rides at the end so scripts matching the
            // older fields by prefix keep working.
            println!(
                "serve {addr}: cache hits={} misses={} entries={} queue={} inflight={} clients={} submissions={} workers={} evictions={}",
                s.hits, s.misses, s.entries, s.queue_depth, s.inflight, s.clients, s.submissions, s.workers, s.evictions
            );
            ExitCode::SUCCESS
        }
        Err(e) => {
            ppa_obs::error!("serve", "{e}");
            ExitCode::FAILURE
        }
    }
}

/// `ppa-serve watch`: a polling progress view, rendered entirely on
/// stderr (stdout stays empty so `watch` composes with output
/// redirection the same way the daemon does). Each frame polls the
/// daemon's `CacheStats` counters; rates are deltas against the
/// previous frame.
fn cmd_watch(args: &[String]) -> ExitCode {
    let mut connect: Option<String> = None;
    let mut interval = Duration::from_secs(1);
    let mut count: Option<u64> = None;
    let mut it = args.iter();
    while let Some(a) = it.next() {
        match a.as_str() {
            "--connect" => connect = it.next().cloned(),
            "--interval" => {
                let secs: f64 = it
                    .next()
                    .and_then(|v| v.parse().ok())
                    .filter(|s: &f64| s.is_finite() && *s > 0.0)
                    .unwrap_or_else(|| usage());
                interval = Duration::from_secs_f64(secs);
            }
            "--count" => {
                count = Some(
                    it.next()
                        .and_then(|v| v.parse().ok())
                        .filter(|&n| n >= 1)
                        .unwrap_or_else(|| usage()),
                );
            }
            a if verbosity_flag(a) => {}
            _ => usage(),
        }
    }
    let addr = connect.unwrap_or_else(|| usage());
    let client = ServeClient::with_addr(&addr);
    let mut prev: Option<ppa_serve::ServeStats> = None;
    let mut frame = 0u64;
    loop {
        match client.stats() {
            Ok(s) => {
                let secs = interval.as_secs_f64();
                let rate = |now: u64, before: u64| (now.saturating_sub(before)) as f64 / secs;
                let (hit_rate, evict_rate) = match &prev {
                    Some(p) => (rate(s.hits, p.hits), rate(s.evictions, p.evictions)),
                    None => (0.0, 0.0),
                };
                let served = s.hits + s.misses;
                let hit_pct = if served > 0 {
                    s.hits as f64 * 100.0 / served as f64
                } else {
                    0.0
                };
                eprintln!(
                    "watch {addr}: queue={} inflight={} clients={} submissions={} workers={}",
                    s.queue_depth, s.inflight, s.clients, s.submissions, s.workers
                );
                eprintln!(
                    "  cache: entries={} hits={} misses={} evictions={} hit-rate={hit_pct:.1}% (+{hit_rate:.1} hits/s, +{evict_rate:.1} evictions/s)",
                    s.entries, s.hits, s.misses, s.evictions
                );
                for &(wid, inflight, executed) in &s.worker_detail {
                    let exec_rate = prev
                        .as_ref()
                        .and_then(|p| {
                            p.worker_detail
                                .iter()
                                .find(|(w, _, _)| *w == wid)
                                .map(|&(_, _, e)| rate(executed, e))
                        })
                        .unwrap_or(0.0);
                    eprintln!("  worker {wid}: inflight={inflight} executed={executed} (+{exec_rate:.1}/s)");
                }
                prev = Some(s);
            }
            Err(e) => eprintln!("watch {addr}: unreachable ({e})"),
        }
        frame += 1;
        if count.is_some_and(|n| frame >= n) {
            return ExitCode::SUCCESS;
        }
        std::thread::sleep(interval);
    }
}

fn cmd_stop(args: &[String]) -> ExitCode {
    let addr = parse_connect(args);
    match ServeClient::with_addr(&addr).stop() {
        Ok(s) => {
            ppa_obs::info!(
                "serve",
                "stopped {addr} (hits={} misses={} entries={})",
                s.hits,
                s.misses,
                s.entries
            );
            ExitCode::SUCCESS
        }
        Err(e) => {
            ppa_obs::error!("serve", "{e}");
            ExitCode::FAILURE
        }
    }
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match args.first().map(String::as_str) {
        Some("daemon") => cmd_daemon(&args[1..]),
        Some("stats") => cmd_stats(&args[1..]),
        Some("stop") => cmd_stop(&args[1..]),
        Some("watch") => cmd_watch(&args[1..]),
        _ => usage(),
    }
}
