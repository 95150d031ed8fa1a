//! Plumbing shared by the perfbench workload binaries: argument
//! parsing, failure accounting, the pass loop that measures a workload,
//! tail percentiles, in-memory span tracing, and the one-line JSON
//! result the benchmark prints last.

use ppa_obs::registry::{self, Snapshot, Value};
use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::io::Write as _;
use std::path::{Path, PathBuf};
use std::time::{Duration, Instant};

/// Arguments every workload binary takes.
#[derive(Debug, Clone)]
pub struct Args {
    pub workload: String,
    /// Seed all of the workload's inputs are generated from.
    pub seed: u64,
    /// Length of the measured phase.
    pub seconds: f64,
    /// Traced run: per-layer metrics instead of end-to-end ones.
    pub trace: bool,
    /// Directory the traced run writes its span file into.
    pub out_dir: PathBuf,
}

impl Args {
    /// Parses `--workload NAME --seed N --seconds S --trace 0|1 [--out DIR]`.
    pub fn parse(args: impl IntoIterator<Item = String>) -> Result<Args, String> {
        let mut workload = None;
        let mut seed = None;
        let mut seconds = None;
        let mut trace = false;
        let mut out_dir = PathBuf::from(".perfbench-out");
        let mut it = args.into_iter();
        while let Some(flag) = it.next() {
            let value = it
                .next()
                .ok_or_else(|| format!("flag {flag} needs a value"))?;
            match flag.as_str() {
                "--workload" => workload = Some(value),
                "--seed" => seed = Some(value.parse().map_err(|_| format!("bad --seed {value}"))?),
                "--seconds" => {
                    let s: f64 = value
                        .parse()
                        .map_err(|_| format!("bad --seconds {value}"))?;
                    if !(s > 0.0 && s <= 600.0) {
                        return Err(format!("--seconds must be in (0, 600], got {value}"));
                    }
                    seconds = Some(s);
                }
                "--trace" => {
                    trace = match value.as_str() {
                        "0" => false,
                        "1" => true,
                        _ => return Err(format!("--trace takes 0 or 1, got {value}")),
                    }
                }
                "--out" => out_dir = PathBuf::from(value),
                _ => return Err(format!("unknown flag {flag}")),
            }
        }
        Ok(Args {
            workload: workload.ok_or("missing --workload")?,
            seed: seed.ok_or("missing --seed")?,
            seconds: seconds.ok_or("missing --seconds")?,
            trace,
            out_dir,
        })
    }
}

/// Counts operations attempted and the ones that failed their check.
/// Every measured call is one operation; run-level gates (a table that
/// must match, a waiver that must be exercised) are one operation each.
#[derive(Debug, Default)]
pub struct Tally {
    attempted: u64,
    failures: Vec<String>,
}

impl Tally {
    /// Records one operation; `what` describes it if it failed.
    pub fn record(&mut self, ok: bool, what: impl FnOnce() -> String) -> bool {
        self.attempted += 1;
        if !ok {
            self.failures.push(what());
        }
        ok
    }

    pub fn attempted(&self) -> u64 {
        self.attempted
    }

    pub fn failed(&self) -> u64 {
        self.failures.len() as u64
    }

    pub fn failures(&self) -> &[String] {
        &self.failures
    }
}

/// Samples a tail percentile must have beyond it to be reported.
pub const TAIL_SAMPLES: usize = 10;

/// Nearest-rank index (1-based) of percentile `p` among `n` samples.
fn rank(p: f64, n: usize) -> usize {
    ((p / 100.0 * n as f64).ceil() as usize).clamp(1, n)
}

/// The fewest samples for which percentile `p` has [`TAIL_SAMPLES`]
/// samples beyond it (100 for p90).
fn samples_needed(p: f64) -> usize {
    (1..)
        .find(|&n| n - rank(p, n) >= TAIL_SAMPLES)
        .expect("p < 100")
}

/// Nearest-rank percentile `p` of `samples` (any order). Refused unless
/// at least [`TAIL_SAMPLES`] samples lie beyond it, so a reported tail
/// always rests on ten observations.
pub fn tail_percentile(samples: &[f64], p: f64) -> Result<f64, String> {
    if !(0.0..100.0).contains(&p) {
        return Err(format!("percentile {p} outside [0, 100)"));
    }
    let n = samples.len();
    if n == 0 {
        return Err("no samples".into());
    }
    let r = rank(p, n);
    if n - r < TAIL_SAMPLES {
        return Err(format!(
            "p{p} of {n} samples has {} beyond it, needs {TAIL_SAMPLES} ({} samples)",
            n - r,
            samples_needed(p)
        ));
    }
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    Ok(sorted[r - 1])
}

/// Durations of a workload's set-up, repeated through a run;
/// `setup_s` is their median. The host's speed changes by up to half for
/// tens of seconds at a time, so a run sets up once before its first pass and
/// again, untimed by the pass loop, before every later one: the median
/// then follows the host over the whole run, not the moment it started.
#[derive(Debug, Default)]
pub struct SetupTimes(Vec<f64>);

impl SetupTimes {
    /// Runs `setup` and records how long it took.
    pub fn time<T>(&mut self, setup: impl FnOnce() -> T) -> T {
        let t = Instant::now();
        let out = setup();
        self.0.push(t.elapsed().as_secs_f64());
        out
    }

    /// Median set-up time in seconds.
    pub fn median_s(&self) -> f64 {
        median(&self.0)
    }
}

/// Median of `values` (mean of the middle two for an even count).
pub fn median(values: &[f64]) -> f64 {
    assert!(!values.is_empty(), "median of no values");
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let m = v.len() / 2;
    if v.len() % 2 == 1 {
        v[m]
    } else {
        (v[m - 1] + v[m]) / 2.0
    }
}

/// Geometric mean of `numerator / denominator` over `pairs`, with
/// [`ppa_stats::geomean`]'s convention that no pairs give 1.
pub fn ratio_gmean(pairs: &[(u64, u64)]) -> Result<f64, String> {
    if let Some(&(n, d)) = pairs.iter().find(|&&(n, d)| n == 0 || d == 0) {
        return Err(format!("ratio {n}/{d} is not strictly positive"));
    }
    Ok(ppa_stats::geomean(
        pairs.iter().map(|&(n, d)| n as f64 / d as f64),
    ))
}

/// What the pass loop measured: every call's duration in every pass
/// that reached it.
#[derive(Debug, Default, Clone)]
pub struct PassLog {
    /// `secs[i][p]` is call `i`'s duration in pass `p`, in seconds.
    pub secs: Vec<Vec<f64>>,
}

impl PassLog {
    /// Work per second with every call at its fastest duration from pass
    /// `from` on (min-of-N): the sum of `work(i)` over the calls that have
    /// such a duration, divided by the sum of those durations. Taking each
    /// call's minimum discards the passes a busy host slowed down.
    pub fn rate(&self, from: usize, work: impl Fn(usize) -> f64) -> f64 {
        let (mut done, mut secs) = (0.0, 0.0);
        for (i, samples) in self.secs.iter().enumerate() {
            if let Some(best) = samples.iter().skip(from).copied().reduce(f64::min) {
                done += work(i);
                secs += best;
            }
        }
        done / secs
    }

    /// Duration of the first pass, in seconds.
    pub fn first_pass_s(&self) -> f64 {
        self.secs.iter().filter_map(|s| s.first()).sum()
    }

    /// Every call's fastest duration over the passes, in milliseconds.
    pub fn best_ms(&self) -> Vec<f64> {
        self.secs
            .iter()
            .filter_map(|s| s.iter().copied().reduce(f64::min))
            .map(|s| s * 1e3)
            .collect()
    }
}

/// Calls `unit(pass, index)` for `index` in `0..units`, pass after pass,
/// until `seconds` have passed and at least `min_passes` passes are
/// complete. Stops at a call boundary. Calls `between()` before every
/// pass but the first, outside any call's timing.
pub fn run_passes(
    seconds: f64,
    min_passes: usize,
    units: usize,
    mut between: impl FnMut(),
    mut unit: impl FnMut(usize, usize),
) -> PassLog {
    assert!(units > 0, "a workload needs at least one unit");
    let budget = Duration::from_secs_f64(seconds);
    let start = Instant::now();
    let mut log = PassLog {
        secs: vec![Vec::new(); units],
    };
    for pass in 0.. {
        if pass > 0 {
            between();
        }
        for index in 0..units {
            let t = Instant::now();
            unit(pass, index);
            log.secs[index].push(t.elapsed().as_secs_f64());
            let done = pass + usize::from(index + 1 == units);
            if start.elapsed() >= budget && done >= min_passes {
                return log;
            }
        }
    }
    unreachable!("the pass loop only returns from inside")
}

/// Sets the metrics a workload of uniform calls derives from its pass
/// loop: calls per second over all passes and over the repeat passes
/// alone, and call latency at p50 and p90 over the distinct calls, each
/// call at its fastest (min-of-N throughout).
pub fn pass_metrics(m: &mut Metrics, log: &PassLog, tally: &mut Tally) {
    m.set("units_per_s", log.rate(0, |_| 1.0), "units/s");
    m.set("cached_units_per_s", log.rate(1, |_| 1.0), "units/s");
    latency_metrics(m, &log.best_ms(), tally);
}

/// Sets `unit_p50_ms` and `unit_p90_ms`. Too few samples for ten beyond
/// the p90 is a failure.
pub fn latency_metrics(m: &mut Metrics, latencies_ms: &[f64], tally: &mut Tally) {
    for (name, p) in [("unit_p50_ms", 50.0), ("unit_p90_ms", 90.0)] {
        match tail_percentile(latencies_ms, p) {
            Ok(v) => m.set(name, v, "ms"),
            Err(e) => {
                tally.record(false, || format!("{name}: {e}"));
            }
        }
    }
}

/// Registry counters that changed since `before` and start with one of
/// `prefixes`, as deltas in name order.
pub fn counter_deltas(before: &Snapshot, prefixes: &[&str]) -> Vec<(String, u64)> {
    registry::snapshot()
        .diff(before)
        .entries()
        .iter()
        .filter_map(|(name, v)| match v {
            Value::Counter(c) if *c > 0 && prefixes.iter().any(|p| name.starts_with(p)) => {
                Some((name.clone(), *c))
            }
            _ => None,
        })
        .collect()
}

/// One recorded span. Times are nanoseconds since the tracer started.
#[derive(Debug, Clone)]
pub struct Span {
    pub name: &'static str,
    pub parent: Option<usize>,
    pub start_ns: u64,
    pub end_ns: u64,
    /// Registry counters read after the call, as deltas.
    pub counters: Vec<(String, u64)>,
}

impl Span {
    fn secs(&self) -> f64 {
        (self.end_ns - self.start_ns) as f64 * 1e-9
    }
}

/// In-memory span recorder. Disabled, [`Tracer::span`] only runs its
/// closure; enabled, it keeps every span until [`Tracer::write_jsonl`].
#[derive(Debug)]
pub struct Tracer {
    enabled: bool,
    run_id: u64,
    epoch: Instant,
    spans: Vec<Span>,
    open: Vec<usize>,
    last_closed: Option<usize>,
}

impl Tracer {
    pub fn new(enabled: bool, run_id: u64) -> Tracer {
        Tracer {
            enabled,
            run_id,
            epoch: Instant::now(),
            spans: Vec::new(),
            open: Vec::new(),
            last_closed: None,
        }
    }

    pub fn enabled(&self) -> bool {
        self.enabled
    }

    fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// Runs `f` inside a span named `name`, a child of the innermost
    /// open span.
    pub fn span<T>(&mut self, name: &'static str, f: impl FnOnce(&mut Tracer) -> T) -> T {
        if !self.enabled {
            return f(self);
        }
        let id = self.spans.len();
        let start_ns = self.now_ns();
        self.spans.push(Span {
            name,
            parent: self.open.last().copied(),
            start_ns,
            end_ns: start_ns,
            counters: Vec::new(),
        });
        self.open.push(id);
        let out = f(self);
        self.open.pop();
        self.spans[id].end_ns = self.now_ns();
        self.last_closed = Some(id);
        out
    }

    /// Attaches counter deltas to the span that closed last.
    pub fn attach(&mut self, counters: Vec<(String, u64)>) {
        if let Some(id) = self.last_closed {
            self.spans[id].counters.extend(counters);
        }
    }

    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Total duration of the spans named `name`, in seconds.
    pub fn busy_s(&self, name: &str) -> f64 {
        self.spans
            .iter()
            .filter(|s| s.name == name)
            .map(Span::secs)
            .sum()
    }

    /// Writes one JSON object per span.
    pub fn write_jsonl(&self, path: &Path) -> std::io::Result<()> {
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        let mut out = String::new();
        for (id, s) in self.spans.iter().enumerate() {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            let counters: Vec<String> = s
                .counters
                .iter()
                .map(|(k, v)| format!("\"{k}\":{v}"))
                .collect();
            writeln!(
                out,
                "{{\"run\":{},\"id\":{id},\"parent\":{parent},\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{},\"counters\":{{{}}}}}",
                self.run_id,
                s.name,
                s.start_ns,
                s.end_ns,
                counters.join(",")
            )
            .expect("writing to a String");
        }
        let mut file = std::fs::File::create(path)?;
        file.write_all(out.as_bytes())?;
        file.sync_all()
    }
}

/// Whether the core's `prof` feature is compiled into this binary: armed
/// profiling then leaves `prof.core.step.*` counters after a run. Timed
/// workloads refuse to run in such a build.
fn prof_compiled_in() -> bool {
    let app = ppa_workloads::registry::by_name("mcf").expect("mcf is registered");
    ppa_sim::set_profiling(true);
    ppa_sim::Machine::new(ppa_sim::SystemConfig::ppa()).run_app(&app, 200, 1);
    ppa_sim::set_profiling(false);
    registry::snapshot()
        .entries()
        .iter()
        .any(|(name, _)| name.starts_with("prof.core.step."))
}

/// Parses the arguments, refuses a `prof` build, runs the workload
/// `run` picks for the workload name, and prints the result line. `bin`
/// names the binary in messages; `run` returns `None` for a workload
/// this binary does not run.
pub fn main_for(bin: &str, run: impl FnOnce(&Args) -> Option<(Tally, Metrics)>) {
    let args = Args::parse(std::env::args().skip(1)).unwrap_or_else(|e| {
        eprintln!("{bin}: {e}");
        std::process::exit(2);
    });
    if prof_compiled_in() {
        eprintln!(
            "{bin}: ppa-core/prof is compiled in; refusing to time {}",
            args.workload
        );
        std::process::exit(3);
    }
    match run(&args) {
        Some((tally, metrics)) => finish(tally, &metrics),
        None => {
            eprintln!("{bin}: this binary does not run workload {}", args.workload);
            std::process::exit(2);
        }
    }
}

/// Writes a traced run's spans under `args.out_dir`. Failing to write is
/// reported, not fatal: the metrics are already measured.
pub fn write_spans(tracer: &Tracer, args: &Args) {
    let path = args
        .out_dir
        .join(format!("{}-seed{}-spans.jsonl", args.workload, args.seed));
    match tracer.write_jsonl(&path) {
        Ok(()) => eprintln!(
            "spans: {} written to {}",
            tracer.spans().len(),
            path.display()
        ),
        Err(e) => eprintln!("spans: cannot write {}: {e}", path.display()),
    }
}

/// Named metric values with their units.
#[derive(Debug, Default)]
pub struct Metrics(BTreeMap<String, (f64, &'static str)>);

impl Metrics {
    pub fn set(&mut self, name: impl Into<String>, value: f64, unit: &'static str) {
        self.0.insert(name.into(), (value, unit));
    }
}

/// Peak resident set of this process, in MB (`VmHWM`).
pub fn peak_rss_mb() -> Result<f64, String> {
    let status = std::fs::read_to_string("/proc/self/status").map_err(|e| e.to_string())?;
    let line = status
        .lines()
        .find(|l| l.starts_with("VmHWM:"))
        .ok_or("no VmHWM in /proc/self/status")?;
    let kb: f64 = line
        .split_whitespace()
        .nth(1)
        .and_then(|v| v.parse().ok())
        .ok_or_else(|| format!("unreadable {line}"))?;
    Ok(kb / 1024.0)
}

/// The result line: `correct`, `attempted`, `failed` and `metrics`. A
/// metric that is not a finite number counts as one more failure.
pub fn result_line(tally: &mut Tally, metrics: &Metrics) -> String {
    for (name, &(value, _)) in &metrics.0 {
        tally.record(value.is_finite(), || format!("metric {name} is {value}"));
    }
    let body: Vec<String> = metrics
        .0
        .iter()
        .filter(|(_, (v, _))| v.is_finite())
        .map(|(name, (value, unit))| {
            format!("\"{name}\": {{\"value\": {value}, \"unit\": \"{unit}\"}}")
        })
        .collect();
    format!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        tally.failed() == 0,
        tally.attempted(),
        tally.failed(),
        body.join(", ")
    )
}

/// Prints every failure to stderr and the result line last on stdout.
pub fn finish(mut tally: Tally, metrics: &Metrics) {
    let line = result_line(&mut tally, metrics);
    for f in tally.failures() {
        eprintln!("FAILED: {f}");
    }
    println!("{line}");
}

#[cfg(test)]
mod tests {
    use super::*;

    fn args(s: &str) -> Result<Args, String> {
        Args::parse(s.split_whitespace().map(String::from))
    }

    #[test]
    fn parses_the_benchmark_flags() {
        let a = args("--workload figs --seed 7 --seconds 10 --trace 1").unwrap();
        assert_eq!(
            (a.workload.as_str(), a.seed, a.seconds, a.trace),
            ("figs", 7, 10.0, true)
        );
        assert!(args("--workload figs --seed 7 --seconds 10 --trace 2").is_err());
        assert!(args("--workload figs --seconds 10").is_err());
        assert!(args("--workload figs --seed 1 --seconds 0").is_err());
        assert!(args("--workload figs --seed").is_err());
    }

    #[test]
    fn p90_needs_a_hundred_samples() {
        assert_eq!(samples_needed(90.0), 100);
        assert_eq!(samples_needed(50.0), 20);
        let hundred: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(tail_percentile(&hundred, 90.0), Ok(90.0));
        assert_eq!(tail_percentile(&hundred, 50.0), Ok(50.0));
        assert!(tail_percentile(&hundred[..99], 90.0).is_err());
        assert!(tail_percentile(&hundred, 99.0).is_err());
        assert!(tail_percentile(&[], 50.0).is_err());
    }

    #[test]
    fn percentile_ignores_sample_order() {
        let mut v: Vec<f64> = (1..=200).map(f64::from).collect();
        v.reverse();
        assert_eq!(tail_percentile(&v, 90.0), Ok(180.0));
        assert_eq!(tail_percentile(&v, 50.0), Ok(100.0));
    }

    #[test]
    fn setup_times_report_their_median() {
        let mut s = SetupTimes::default();
        for ms in [30, 1, 10] {
            s.time(|| std::thread::sleep(Duration::from_millis(ms)));
        }
        assert!(s.median_s() >= 0.01 && s.median_s() < 0.03);
    }

    #[test]
    fn median_of_odd_and_even_counts() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
    }

    #[test]
    fn gmean_of_ratios() {
        let g = ratio_gmean(&[(2, 1), (8, 1)]).unwrap();
        assert!((g - 4.0).abs() < 1e-12);
        let g = ratio_gmean(&[(103, 100), (103, 100)]).unwrap();
        assert!((g - 1.03).abs() < 1e-12);
        assert_eq!(ratio_gmean(&[]), Ok(1.0));
        assert!(ratio_gmean(&[(1, 0)]).is_err());
        assert!(ratio_gmean(&[(0, 5)]).is_err());
    }

    #[test]
    fn tally_counts_failed_against_attempted() {
        let mut t = Tally::default();
        assert!(t.record(true, || unreachable!()));
        assert!(!t.record(false, || "second".into()));
        t.record(true, || unreachable!());
        assert_eq!((t.attempted(), t.failed()), (3, 1));
        assert_eq!(t.failures(), ["second".to_string()]);
    }

    #[test]
    fn non_finite_metric_fails_the_run() {
        let mut t = Tally::default();
        t.record(true, String::new);
        let mut m = Metrics::default();
        m.set("a_s", 1.5, "s");
        m.set("b", f64::NAN, "ratio");
        let line = result_line(&mut t, &m);
        assert_eq!(
            line,
            "{\"correct\": false, \"attempted\": 3, \"failed\": 1, \"metrics\": {\"a_s\": {\"value\": 1.5, \"unit\": \"s\"}}}"
        );
    }

    #[test]
    fn pass_loop_runs_at_least_the_minimum_passes() {
        let mut seen = Vec::new();
        let mut between = 0;
        let log = run_passes(0.0, 2, 3, || between += 1, |pass, i| seen.push((pass, i)));
        assert_eq!(seen, [(0, 0), (0, 1), (0, 2), (1, 0), (1, 1), (1, 2)]);
        assert_eq!(between, 1);
        assert_eq!(log.secs.iter().map(Vec::len).collect::<Vec<_>>(), [2, 2, 2]);
    }

    #[test]
    fn rate_takes_each_calls_fastest_pass() {
        let log = PassLog {
            secs: vec![vec![2.0, 1.0, 3.0], vec![4.0, 6.0], vec![5.0]],
        };
        // Fastest durations 1 + 4 + 5 over 3 calls; work 1, 2, 3.
        assert!((log.rate(0, |_| 1.0) - 3.0 / 10.0).abs() < 1e-12);
        assert!((log.rate(0, |i| (i + 1) as f64) - 6.0 / 10.0).abs() < 1e-12);
        // From the second pass on only the first two calls count: 1 + 6.
        assert!((log.rate(1, |_| 1.0) - 2.0 / 7.0).abs() < 1e-12);
        assert_eq!(log.first_pass_s(), 11.0);
        assert_eq!(log.best_ms(), [1e3, 4e3, 5e3]);
    }

    #[test]
    fn spans_nest_and_time_their_closures() {
        let mut t = Tracer::new(true, 1);
        t.span("outer", |t| {
            t.span("inner", |_| std::thread::sleep(Duration::from_millis(20)));
            std::thread::sleep(Duration::from_millis(5));
        });
        let (outer, inner) = (t.busy_s("outer"), t.busy_s("inner"));
        assert!(inner >= 0.02 && outer >= inner + 0.005);
        assert_eq!(t.spans()[0].parent, None);
        assert_eq!(t.spans()[1].parent, Some(0));
        let mut off = Tracer::new(false, 1);
        assert_eq!(off.span("x", |_| 3), 3);
        assert!(off.spans().is_empty());
    }
}
