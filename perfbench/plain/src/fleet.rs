//! `fleet`: one in-process `ppa-serve` daemon, one grid worker running
//! `BenchExecutor` on a pool of `nproc` threads, and one client in a
//! closed loop (one request outstanding at a time). A round starts a
//! fresh fleet (empty cache) and makes three passes over `repro` grid
//! cells at a short trace length: (a) a cold batch, every cell
//! dispatched, executed and cached; (b) the same batch again, every cell
//! a cache hit; (c) single-cell submissions of other cells, for latency,
//! a different slice of them each round. Each submission waits a random
//! fraction of the daemon's poll first, untimed. A run repeats rounds
//! until it has measured `--seconds`. It takes the cold batch at its
//! fastest round (min-of-N), warm batches at their median, and latency
//! at percentiles over every submission.

use perfbench_harness::{
    counter_deltas, latency_metrics, median, peak_rss_mb, tail_percentile, write_spans, Args,
    Metrics, Tally, Tracer,
};
use ppa_bench::gridwork::{execute, units_for, BenchExecutor};
use ppa_grid::proto::ByteReader;
use ppa_grid::{run_worker, GridError, UnitOutcome, UnitRunner, UnitSpec, WorkerOptions};
use ppa_prng::Prng;
use ppa_serve::{Daemon, DaemonOptions, ServeClient};
use ppa_workloads::registry;
use std::collections::BTreeMap;
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// The decomposable `repro` experiments whose per-app cells feed the
/// fleet.
const EXPERIMENTS: [&str; 11] = [
    "fig1",
    "fig8",
    "fig9",
    "fig10",
    "fig11",
    "fig12",
    "fig13",
    "fig14",
    "fig15",
    "fig18",
    "autopersist",
];

/// Base trace length of every cell: short, so the grid and serve layers
/// are a visible share of each cell's time.
const BASE_LEN: usize = 2_000;

/// Fleets started per run just to time set-up. The daemon's accept loop
/// polls every 25 ms, so one set-up takes about 26 or about 51 ms,
/// depending on whether the worker registers before the client's first
/// query. A median jumps between the two; the mean of many set-ups moves
/// smoothly with how often each happens, so `setup_s` is that mean.
const FLEET_SETUPS: usize = 15;

/// Slices of the latency cells: round `r` submits slice `r % LATENCY_SLICES`.
/// Single-cell submissions wait on the daemon's poll, so a whole pass
/// of them would make a round long and leave the cold batch few rounds
/// to be timed in.
const LATENCY_SLICES: usize = 16;

/// Fewest rounds per run: every latency slice at least once.
const MIN_ROUNDS: usize = LATENCY_SLICES;

/// Warm batches per round, each the cold batch [`WARM_REPEATS`] times
/// over in one submission, so that answering it from the cache takes
/// about as long as the longest wait for the daemon's poll.
const WARM_BATCHES: usize = 2;
const WARM_REPEATS: usize = 100;

/// Every submission dials the daemon, whose accept loop polls every
/// 25 ms. A client that submits as soon as its last result arrives meets
/// that poll at a phase set by how long the last batch took, and keeps
/// meeting it there, so a timing jumps between runs by up to a poll.
/// Waiting a random time below one poll first, untimed, makes each
/// submission meet it at a uniform phase, as independent users' requests
/// would.
const ARRIVAL_SPREAD_US: u64 = 25_000;

/// Waits a random time below [`ARRIVAL_SPREAD_US`].
fn arrive(rng: &mut Prng) {
    std::thread::sleep(Duration::from_micros(rng.random_below(ARRIVAL_SPREAD_US)));
}

/// A daemon, its worker and a connected client.
struct Fleet {
    daemon: Arc<Daemon>,
    daemon_thread: JoinHandle<()>,
    worker_thread: JoinHandle<Result<ppa_grid::WorkerReport, ppa_grid::ProtoError>>,
    client: ServeClient,
    /// `Daemon::start` alone.
    start_s: f64,
    /// Daemon start to a client connected and a worker attached.
    setup_s: f64,
}

impl Fleet {
    fn start(jobs: usize, tracer: &mut Tracer) -> Result<Fleet, String> {
        tracer.span("fleet.setup", |t| {
            let begin = Instant::now();
            let daemon = t.span("serve.daemon_start", |_| {
                Daemon::start(DaemonOptions::default()).map(Arc::new)
            })?;
            let start_s = begin.elapsed().as_secs_f64();
            let addr = daemon.local_addr().to_string();
            let daemon_thread = {
                let daemon = Arc::clone(&daemon);
                std::thread::spawn(move || daemon.run())
            };
            let worker_thread = {
                let addr = addr.clone();
                std::thread::spawn(move || {
                    let opts = WorkerOptions {
                        jobs,
                        ..WorkerOptions::default()
                    };
                    run_worker(addr.as_str(), opts, Arc::new(BenchExecutor))
                })
            };
            let attached = t.span("grid.worker_attach", |_| {
                let client = ServeClient::connect(&addr)?;
                let deadline = Instant::now() + Duration::from_secs(60);
                while client.stats()?.workers < 1 {
                    if Instant::now() > deadline {
                        return Err("no worker attached within 60 s".to_string());
                    }
                    std::thread::sleep(Duration::from_micros(200));
                }
                Ok(client)
            });
            let setup_s = begin.elapsed().as_secs_f64();
            match attached {
                Ok(client) => Ok(Fleet {
                    daemon,
                    daemon_thread,
                    worker_thread,
                    client,
                    start_s,
                    setup_s,
                }),
                Err(e) => {
                    daemon.request_stop();
                    let _ = daemon_thread.join();
                    let _ = worker_thread.join();
                    Err(e)
                }
            }
        })
    }

    /// Stops the daemon and waits for it and the worker to end.
    fn stop(self) -> Result<(), String> {
        self.daemon.request_stop();
        self.daemon_thread
            .join()
            .map_err(|_| "the daemon thread panicked".to_string())?;
        match self.worker_thread.join() {
            Ok(Ok(_)) => Ok(()),
            Ok(Err(e)) => Err(format!("worker ended with {e:?}")),
            Err(_) => Err("the worker thread panicked".into()),
        }
    }
}

/// The seed's cells at [`BASE_LEN`]. Within every experiment, and there
/// separately among its single-thread and its multi-thread apps in
/// registry order, cells are dealt out by position modulo ten from an
/// offset: one tenth to the cold batch and three tenths to the latency
/// pass. The seed picks the first experiment's offset, and each next
/// experiment's is one more. So the seed picks which app goes with which
/// experiment, while every app is sent about equally often and every
/// seed sends the same mix of experiments, suites, and cheap and costly
/// cells: the work of a batch hardly depends on the seed.
fn cells(seed: u64) -> (Vec<UnitSpec>, Vec<UnitSpec>) {
    let first = Prng::seed_from_u64(seed).next_u64() % 10;
    let (mut cold, mut fresh) = (Vec::new(), Vec::new());
    for (exp, offset) in EXPERIMENTS.into_iter().zip(first..) {
        let units = units_for(exp, BASE_LEN).expect("decomposable experiment");
        let (multi, single): (Vec<_>, Vec<_>) = units.into_iter().partition(|u| {
            let app = u.tag.rsplit('/').next().and_then(registry::by_name);
            app.expect("cell tags name a registered app").threads > 1
        });
        for group in [multi, single] {
            for (k, unit) in (0u64..).zip(group) {
                match (k + 10 - offset % 10) % 10 {
                    0 => cold.push(unit),
                    1 | 4 | 7 => fresh.push(unit),
                    _ => {}
                }
            }
        }
    }
    (cold, fresh)
}

/// What one fleet run measured, over all its rounds.
#[derive(Default)]
struct Observed {
    setups: Vec<f64>,
    starts: Vec<f64>,
    /// Duration of each round's cold batch, and of every warm batch.
    cold_s: Vec<f64>,
    warm_s: Vec<f64>,
    /// Latency of every single-cell submission.
    latency_ms: Vec<f64>,
    /// Client latency minus worker execution, pass c.
    overhead_ms: Vec<f64>,
    /// Worker execution time of every executed cell (passes a and c).
    exec_ms: Vec<f64>,
    extra_attempts: u64,
    /// Simulated cycles of one cold batch.
    cold_sim_cycles: u64,
    /// Each cell's first payload, cold batch then fresh cells; `None`
    /// until the cell first returns one.
    payloads: Vec<Option<Vec<u8>>>,
    counters: BTreeMap<String, u64>,
}

impl Observed {
    /// Records the `results` of the cells in payload `slots`: a cell's
    /// first payload is kept, and later rounds must reproduce it.
    fn check(
        &mut self,
        round: usize,
        slots: &[usize],
        units: &[UnitSpec],
        results: &[Result<UnitOutcome, GridError>],
        tally: &mut Tally,
    ) {
        for ((&slot, unit), r) in slots.iter().zip(units).zip(results) {
            let payload = match r {
                Ok(out) => &out.payload,
                Err(e) => {
                    tally.record(false, || {
                        format!("fleet round {round} cell {} failed: {e}", unit.tag)
                    });
                    continue;
                }
            };
            match &self.payloads[slot] {
                None => self.payloads[slot] = Some(payload.clone()),
                Some(first) => {
                    tally.record(first == payload, || {
                        format!(
                            "fleet round {round} cell {} differs from its first result",
                            unit.tag
                        )
                    });
                }
            }
            if let Ok(out) = r {
                self.exec_ms.push(out.elapsed_ns as f64 * 1e-6);
                self.extra_attempts += u64::from(out.attempts.saturating_sub(1));
            }
        }
    }
}

/// One round: a fresh fleet, then passes a, b and c (slice
/// `round % LATENCY_SLICES` of the fresh cells).
#[allow(clippy::too_many_arguments)]
fn round(
    round: usize,
    cold: &[UnitSpec],
    fresh: &[UnitSpec],
    jobs: usize,
    rng: &mut Prng,
    o: &mut Observed,
    tracer: &mut Tracer,
    tally: &mut Tally,
) -> Result<(), String> {
    let fleet = Fleet::start(jobs, tracer)?;
    let client = &fleet.client;
    let before = ppa_obs::registry::snapshot();

    // (a) Cold batch: dispatch, execute, cache insert.
    arrive(rng);
    let t = Instant::now();
    let results = tracer.span("fleet.cold", |t| {
        t.span("serve.run_units", |_| client.run_units(cold.to_vec()))
    });
    o.cold_s.push(t.elapsed().as_secs_f64());
    o.cold_sim_cycles = counter_deltas(&before, &["sim.cycles.total"])
        .first()
        .map_or(0, |(_, v)| *v);
    let slots: Vec<usize> = (0..cold.len()).collect();
    o.check(round, &slots, cold, &results, tally);

    // (b) The cold batch again: every cell a cache hit.
    let hits_before = ppa_obs::registry::snapshot();
    let batch: Vec<UnitSpec> = cold
        .iter()
        .cycle()
        .take(WARM_REPEATS * cold.len())
        .cloned()
        .collect();
    tracer.span("fleet.warm", |tr| {
        for _ in 0..WARM_BATCHES {
            arrive(rng);
            let t = Instant::now();
            let results = tr.span("serve.run_units", |_| client.run_units(batch.clone()));
            o.warm_s.push(t.elapsed().as_secs_f64());
            for ((r, want), unit) in results
                .iter()
                .zip(o.payloads[..cold.len()].iter().cycle())
                .zip(&batch)
            {
                let same = matches!(r, Ok(out) if want.as_ref() == Some(&out.payload));
                tally.record(same, || {
                    format!("fleet warm cell {} differs from cold", unit.tag)
                });
            }
        }
    });
    let hits = counter_deltas(&hits_before, &["serve.client.results."]);
    let count = |name: &str| hits.iter().find(|(n, _)| n == name).map_or(0, |(_, v)| *v);
    let (cached, uncached) = (
        count("serve.client.results.cached"),
        count("serve.client.results.fresh"),
    );
    let warm_units = batch.len() as u64 * WARM_BATCHES as u64;
    tally.record(cached == warm_units && uncached == 0, || {
        format!("fleet warm pass: {cached} cached and {uncached} fresh results of {warm_units}")
    });

    // (c) One cell at a time, none of them cached, for latency.
    let slice: Vec<usize> = (round % LATENCY_SLICES..fresh.len())
        .step_by(LATENCY_SLICES)
        .collect();
    let units: Vec<UnitSpec> = slice.iter().map(|&j| fresh[j].clone()).collect();
    let mut results = Vec::with_capacity(units.len());
    tracer.span("fleet.latency", |tr| {
        for unit in &units {
            arrive(rng);
            let sent = Instant::now();
            let mut r = tr.span("serve.run_units", |_| client.run_units(vec![unit.clone()]));
            let ms = sent.elapsed().as_secs_f64() * 1e3;
            o.latency_ms.push(ms);
            if let Ok(out) = &r[0] {
                o.overhead_ms.push(ms - out.elapsed_ns as f64 * 1e-6);
            }
            results.push(r.remove(0));
        }
    });
    let slots: Vec<usize> = slice.iter().map(|&j| cold.len() + j).collect();
    o.check(round, &slots, &units, &results, tally);
    for (name, v) in counter_deltas(&before, &["grid.coord.", "serve.cache.", "sim."]) {
        *o.counters.entry(name).or_default() += v;
    }
    if let Some(ppa_obs::registry::Value::Gauge(b)) =
        ppa_obs::registry::snapshot().get("serve.cache.bytes")
    {
        o.counters.insert("serve.cache.bytes".into(), *b as u64);
    }
    fleet.stop()
}

/// Runs `execute` locally over `units` on `jobs` threads.
fn local_results(units: &[UnitSpec], jobs: usize) -> Vec<Result<Vec<u8>, String>> {
    let chunk = units.len().div_ceil(jobs.max(1));
    std::thread::scope(|s| {
        let handles: Vec<_> = units
            .chunks(chunk)
            .map(|part| {
                s.spawn(move || {
                    part.iter()
                        .map(|u| execute(&u.tag, &u.payload))
                        .collect::<Vec<_>>()
                })
            })
            .collect();
        handles
            .into_iter()
            .flat_map(|h| h.join().expect("local execution panicked"))
            .collect()
    })
}

/// Runs rounds until `seconds` have passed and at least [`MIN_ROUNDS`]
/// are done, then checks the first round's results against a local
/// `execute` of every cell.
fn measure(
    seed: u64,
    seconds: f64,
    jobs: usize,
    tracer: &mut Tracer,
    tally: &mut Tally,
) -> Observed {
    let (cold, fresh) = cells(seed);
    let mut rng = Prng::seed_from_u64(seed);
    let mut o = Observed {
        payloads: vec![None; cold.len() + fresh.len()],
        ..Observed::default()
    };
    for _ in 0..FLEET_SETUPS {
        let started = Fleet::start(jobs, tracer).and_then(|fleet| {
            o.setups.push(fleet.setup_s);
            o.starts.push(fleet.start_s);
            fleet.stop()
        });
        if !tally.record(started.is_ok(), || format!("fleet set-up: {started:?}")) {
            return o;
        }
    }
    let start = Instant::now();
    let mut n = 0;
    while n < MIN_ROUNDS || start.elapsed().as_secs_f64() < seconds {
        let done = round(n, &cold, &fresh, jobs, &mut rng, &mut o, tracer, tally);
        if !tally.record(done.is_ok(), || format!("fleet round {n}: {done:?}")) {
            return o;
        }
        n += 1;
    }
    let units: Vec<UnitSpec> = cold.iter().chain(&fresh).cloned().collect();
    for ((unit, got), local) in units
        .iter()
        .zip(&o.payloads)
        .zip(local_results(&units, jobs))
    {
        if let Some(got) = got {
            tally.record(local.as_ref() == Ok(got), || {
                format!(
                    "fleet cell {} differs from local execute: {local:?}",
                    unit.tag
                )
            });
        }
    }
    o
}

fn min(samples: &[f64]) -> f64 {
    samples.iter().copied().fold(f64::INFINITY, f64::min)
}

impl Observed {
    /// The cold batch at its fastest and `fresh` cells at the median
    /// latency: the time to produce every result the run checks against
    /// a local execution.
    fn checked_s(&self, fresh: usize) -> f64 {
        min(&self.cold_s) + fresh as f64 * median(&self.latency_ms) * 1e-3
    }

    /// PPA-over-baseline slowdowns of the fig8 cells in the cold batch.
    fn fig8_slowdowns(&self, cold: &[UnitSpec], tally: &mut Tally) -> Vec<f64> {
        let mut out = Vec::new();
        for (unit, payload) in cold.iter().zip(&self.payloads) {
            let (true, Some(p)) = (unit.tag.starts_with("repro.app:fig8/"), payload) else {
                continue;
            };
            let mut row = ByteReader::new(p);
            match row.u32().and_then(|_| row.f64()) {
                Ok(ppa) => out.push(ppa),
                Err(e) => {
                    tally.record(false, || format!("fleet cell {}: bad row {e}", unit.tag));
                }
            }
        }
        out
    }
}

pub fn run(args: &Args) -> (Tally, Metrics) {
    let mut tally = Tally::default();
    let mut m = Metrics::default();
    let jobs = std::thread::available_parallelism().map_or(1, |n| n.get());
    if !args.trace {
        let o = measure(
            args.seed,
            args.seconds,
            jobs,
            &mut Tracer::new(false, args.seed),
            &mut tally,
        );
        if o.cold_s.len() < MIN_ROUNDS {
            return (tally, m);
        }
        let (cold, fresh) = cells(args.seed);
        m.set(
            "setup_s",
            o.setups.iter().sum::<f64>() / o.setups.len() as f64,
            "s",
        );
        m.set(
            "sim_cycles_per_s",
            o.cold_sim_cycles as f64 / min(&o.cold_s),
            "cycles/s",
        );
        let slowdowns = o.fig8_slowdowns(&cold, &mut tally);
        m.set("ppa_slowdown_gmean", ppa_stats::geomean(slowdowns), "ratio");
        let checked = (cold.len() + fresh.len()) as f64;
        m.set(
            "crash_cells_per_s",
            checked / o.checked_s(fresh.len()),
            "cells/s",
        );
        m.set(
            "litmus_coverage",
            ppa_litmus::run::BatchTotals::from_rows(&[]).coverage(),
            "%",
        );
        m.set("units_per_s", cold.len() as f64 / min(&o.cold_s), "units/s");
        // A warm batch is short next to the poll wait a random arrival
        // meets, so its minimum rests on the one lucky arrival: take the
        // median.
        m.set(
            "cached_units_per_s",
            (WARM_REPEATS * cold.len()) as f64 / median(&o.warm_s),
            "units/s",
        );
        latency_metrics(&mut m, &o.latency_ms, &mut tally);
        m.set("peak_rss_mb", peak_rss_mb().unwrap_or(f64::NAN), "MB");
        return (tally, m);
    }

    let plain = measure(
        args.seed,
        args.seconds / 2.0,
        jobs,
        &mut Tracer::new(false, args.seed),
        &mut tally,
    );
    let mut tracer = Tracer::new(true, args.seed);
    let o = measure(args.seed, args.seconds / 2.0, jobs, &mut tracer, &mut tally);
    let fresh = cells(args.seed).1.len();
    write_spans(&tracer, args);
    ppa_pool::export_metrics();
    let snap = ppa_obs::registry::snapshot();
    for name in ["pool.jobs_run", "pool.steals", "pool.idle_ns"] {
        if let Some(ppa_obs::registry::Value::Counter(v)) = snap.get(name) {
            m.set(
                name,
                *v as f64,
                if name.ends_with("_ns") { "ns" } else { "count" },
            );
        }
    }
    let mut pct = |name: &str, samples: &[f64], p: f64| match tail_percentile(samples, p) {
        Ok(v) => m.set(name, v, "ms"),
        Err(e) => {
            tally.record(false, || format!("{name}: {e}"));
        }
    };
    pct("grid.exec_ms.p50", &o.exec_ms, 50.0);
    pct("grid.exec_ms.p90", &o.exec_ms, 90.0);
    pct("grid.overhead_ms.p50", &o.overhead_ms, 50.0);
    pct("grid.overhead_ms.p90", &o.overhead_ms, 90.0);
    m.set("grid.extra_attempts", o.extra_attempts as f64, "count");
    let counter = |name: &str| o.counters.get(name).copied().unwrap_or(0) as f64;
    for name in [
        "grid.coord.units.dispatched",
        "grid.coord.units.completed",
        "grid.coord.units.redispatched",
        "grid.coord.units.retried",
        "grid.coord.units.failed",
    ] {
        m.set(name, counter(name), "count");
    }
    m.set("sim.runs", counter("sim.machine.runs"), "count");
    m.set("sim.cycles", counter("sim.cycles.total"), "cycles");
    m.set("sim.uops", counter("sim.uops.committed"), "uops");
    let (hits, misses) = (counter("serve.cache.hits"), counter("serve.cache.misses"));
    m.set("serve.start_s", median(&o.starts), "s");
    m.set("serve.cache.hits", hits, "count");
    m.set("serve.cache.misses", misses, "count");
    m.set("serve.cache.hit_ratio", hits / (hits + misses), "ratio");
    m.set(
        "serve.cache.evictions",
        counter("serve.cache.evictions"),
        "count",
    );
    m.set("serve.cache.bytes", counter("serve.cache.bytes"), "bytes");
    m.set(
        "trace.overhead_pct",
        (o.checked_s(fresh) / plain.checked_s(fresh) - 1.0) * 100.0,
        "%",
    );
    (tally, m)
}
