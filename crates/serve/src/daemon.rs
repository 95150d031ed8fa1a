//! The `ppa-serve` daemon: a long-lived coordinator that accepts many
//! concurrent client submissions on the same port its workers dial.
//!
//! Connections are demultiplexed by their first frame: `Hello` marks a
//! worker (handled entirely inside `ppa-grid`), while `Submit`,
//! `Subscribe`, and `Query` mark client sessions routed here through
//! the [`ppa_grid::ConnDispatch`] hook. Each submission is fronted by
//! the content-addressed [`ResultCache`]: cached cells complete
//! instantly without touching the queue, misses go to the prioritized
//! coordinator queue, and every fresh result is inserted on completion.
//!
//! Results stream back to the client strictly in submission-index
//! order, and their slots stay readable until the whole submission has
//! been delivered — a client whose connection died mid-stream can
//! `Subscribe` from the first index it is missing and receive the
//! byte-identical remainder.

use crate::cache::{CacheLimits, ResultCache};
use crate::checkpoint::{Checkpoint, PendingSubmission};
use ppa_grid::coord::{ConnDispatch, Coordinator, GridConfig};
use ppa_grid::proto::{self, Msg, QUERY_STATS, QUERY_STOP, RESULT_NO_SUCH_SUBMISSION};
use ppa_grid::sync::{lock, wait, wait_until};
use ppa_grid::UnitSpec;
use std::collections::HashMap;
use std::net::{Shutdown, TcpStream};
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Condvar, Mutex, Weak};
use std::time::{Duration, Instant};

/// Daemon configuration.
#[derive(Debug, Clone)]
pub struct DaemonOptions {
    /// Listen address, e.g. `127.0.0.1:7171` (port 0 for OS-assigned).
    pub addr: String,
    /// Checkpoint file; `None` disables persistence.
    pub checkpoint: Option<PathBuf>,
    /// Cadence for periodic checkpoints and metrics exports.
    pub checkpoint_interval: Duration,
    /// Metrics snapshot file, rewritten on every cadence tick and stop.
    pub metrics_json: Option<PathBuf>,
    /// Result-cache retention bounds (unbounded by default); evictions
    /// surface as the `serve.cache.evictions` counter.
    pub cache: CacheLimits,
    /// Scheduler tuning, forwarded to the embedded coordinator.
    pub grid: GridConfig,
}

impl Default for DaemonOptions {
    fn default() -> Self {
        DaemonOptions {
            addr: "127.0.0.1:0".into(),
            checkpoint: None,
            checkpoint_interval: Duration::from_secs(5),
            metrics_json: None,
            cache: CacheLimits::default(),
            grid: GridConfig::default(),
        }
    }
}

/// One slot of a submission, kept until the submission is retired so
/// re-subscribing clients can re-read delivered results.
#[derive(Debug, Clone)]
struct SlotResult {
    ok: bool,
    cached: bool,
    attempts: u32,
    elapsed_ns: u64,
    /// Trace fragments from the execution, in the daemon's clock and
    /// already on their worker `pid` lane (empty for cached results).
    spans: Vec<proto::SpanFrag>,
    payload: Vec<u8>,
}

struct SubInner {
    slots: Vec<Option<SlotResult>>,
    remaining: usize,
}

struct SubmissionState {
    client: u64,
    id: u64,
    priority: u8,
    trace_id: u64,
    units: Vec<UnitSpec>,
    inner: Mutex<SubInner>,
    cv: Condvar,
}

impl SubmissionState {
    fn is_complete(&self) -> bool {
        lock(&self.inner).remaining == 0
    }

    fn fill(&self, index: usize, result: SlotResult) {
        let mut inner = lock(&self.inner);
        if inner.slots[index].is_none() {
            inner.slots[index] = Some(result);
            inner.remaining -= 1;
        }
        self.cv.notify_all();
    }

    /// Blocks until slot `index` is filled; `None` once `stopped`.
    /// `stopped` is checked under the slot lock, and
    /// [`Inner::request_stop`] takes that lock to notify, so a stop
    /// cannot slip in between the check and the wait. `stopped` must
    /// not take the daemon's state lock: `persist` and `retire` take
    /// slot locks while holding it.
    fn wait_slot(&self, index: usize, stopped: &dyn Fn() -> bool) -> Option<SlotResult> {
        let mut inner = lock(&self.inner);
        loop {
            if let Some(r) = &inner.slots[index] {
                return Some(r.clone());
            }
            if stopped() {
                return None;
            }
            inner = wait(&self.cv, inner);
        }
    }

    /// Wakes every [`SubmissionState::wait_slot`] caller to re-check.
    fn wake(&self) {
        let _inner = lock(&self.inner);
        self.cv.notify_all();
    }
}

struct DaemonState {
    submissions: HashMap<(u64, u64), Arc<SubmissionState>>,
    clients: u64,
    submissions_total: u64,
}

struct Inner {
    coord: Coordinator,
    cache: ResultCache,
    state: Mutex<DaemonState>,
    /// Set once, under the `state` lock so that waits on `cv` see it;
    /// read without that lock by [`SubmissionState::wait_slot`].
    stop: AtomicBool,
    cv: Condvar,
    opts: DaemonOptions,
}

/// The [`ConnDispatch`] hook installed on the coordinator. It holds the
/// daemon weakly: `Inner` owns the coordinator, which owns this hook,
/// so a strong reference would keep both (and the coordinator's
/// threads) alive after the daemon is dropped.
struct Dispatch(Weak<Inner>);

impl ConnDispatch for Dispatch {
    fn handle(&self, first: Msg, stream: TcpStream) {
        if let Some(inner) = self.0.upgrade() {
            session(&inner, first, stream);
        }
    }
}

/// A running daemon. [`Daemon::run`] blocks until a client sends
/// `Query(QUERY_STOP)` (or [`Daemon::request_stop`] is called), then
/// checkpoints and shuts the coordinator down.
pub struct Daemon {
    inner: Arc<Inner>,
    ticker: Option<std::thread::JoinHandle<()>>,
}

impl Daemon {
    /// Binds and restores. An `AddrInUse` bind is retried for a few
    /// seconds: a restarting daemon races the kernel's release of its
    /// own previous listening socket.
    pub fn start(opts: DaemonOptions) -> Result<Daemon, String> {
        let mut last_err = String::new();
        let mut coord = None;
        for _ in 0..40 {
            match Coordinator::bind(opts.addr.as_str(), opts.grid.clone()) {
                Ok(c) => {
                    coord = Some(c);
                    break;
                }
                Err(e) if e.kind() == std::io::ErrorKind::AddrInUse => {
                    last_err = e.to_string();
                    std::thread::sleep(Duration::from_millis(250));
                }
                Err(e) => return Err(format!("failed to bind {}: {e}", opts.addr)),
            }
        }
        let coord = coord.ok_or_else(|| format!("failed to bind {}: {last_err}", opts.addr))?;
        let inner = Arc::new(Inner {
            coord,
            cache: ResultCache::with_limits(opts.cache.clone()),
            state: Mutex::new(DaemonState {
                submissions: HashMap::new(),
                clients: 0,
                submissions_total: 0,
            }),
            stop: AtomicBool::new(false),
            cv: Condvar::new(),
            opts,
        });

        // Recover: cached results come back verbatim; incomplete
        // submissions re-enter the queue, where the restored cache
        // instantly completes every cell that finished pre-crash.
        if let Some(path) = inner.opts.checkpoint.clone() {
            match Checkpoint::load(&path) {
                Ok(Some(ck)) => {
                    let n_cache = ck.cache.len();
                    let n_pending = ck.pending.len();
                    inner.cache.restore(ck.cache);
                    for p in ck.pending {
                        // Trace identities do not survive a restart: the
                        // submitting client will re-subscribe untraced.
                        ensure_submission(&inner, p.client, p.submission, p.priority, 0, p.units);
                    }
                    ppa_obs::info!(
                        "serve",
                        "restored checkpoint: {n_cache} cache entries, {n_pending} pending submission(s)"
                    );
                }
                Ok(None) => {}
                Err(e) => ppa_obs::warn!("serve", "ignoring checkpoint {}: {e}", path.display()),
            }
        }

        inner
            .coord
            .set_dispatch(Arc::new(Dispatch(Arc::downgrade(&inner))));

        // Cadence thread: gauges, checkpoint, metrics export.
        let ticker = {
            let inner = Arc::clone(&inner);
            std::thread::Builder::new()
                .name("serve-ticker".into())
                .spawn(move || loop {
                    let tick = Instant::now() + inner.opts.checkpoint_interval;
                    let mut state = lock(&inner.state);
                    while !inner.stopped() && Instant::now() < tick {
                        state = wait_until(&inner.cv, state, tick);
                    }
                    if inner.stopped() {
                        return;
                    }
                    drop(state);
                    inner.publish_gauges();
                    inner.persist();
                })
                .expect("spawning the serve ticker thread")
        };
        Ok(Daemon {
            inner,
            ticker: Some(ticker),
        })
    }

    /// The bound address (OS-assigned port resolved).
    pub fn local_addr(&self) -> std::net::SocketAddr {
        self.inner.coord.local_addr()
    }

    /// Blocks until stop is requested, then checkpoints and shuts down.
    pub fn run(&self) {
        let mut state = lock(&self.inner.state);
        while !self.inner.stopped() {
            state = wait(&self.inner.cv, state);
        }
        drop(state);
        self.inner.publish_gauges();
        self.inner.persist();
        self.inner.coord.shutdown();
    }

    /// Asks [`Daemon::run`] to return (same path as `QUERY_STOP`).
    pub fn request_stop(&self) {
        self.inner.request_stop();
    }
}

impl Drop for Daemon {
    fn drop(&mut self) {
        self.inner.request_stop();
        if let Some(t) = self.ticker.take() {
            let _ = t.join();
        }
    }
}

impl Inner {
    fn stopped(&self) -> bool {
        self.stop.load(Ordering::SeqCst)
    }

    /// Sets the stop flag, then wakes [`Daemon::run`], the ticker and
    /// every session streaming a submission's results.
    fn request_stop(&self) {
        let live: Vec<Arc<SubmissionState>> = {
            let state = lock(&self.state);
            self.stop.store(true, Ordering::SeqCst);
            self.cv.notify_all();
            state.submissions.values().cloned().collect()
        };
        // Outside the state lock: `wait_slot` holds a slot lock while
        // it takes the state lock to read the flag.
        for sub in live {
            sub.wake();
        }
    }

    fn publish_gauges(&self) {
        let (queued, inflight) = self.coord.queue_depth();
        ppa_obs::registry::gauge("serve.queue.depth").set(queued as f64);
        ppa_obs::registry::gauge("serve.queue.inflight").set(inflight as f64);
        let state = lock(&self.state);
        ppa_obs::registry::gauge("serve.clients.connected").set(state.clients as f64);
    }

    /// Writes the checkpoint and the metrics snapshot, if configured.
    fn persist(&self) {
        if let Some(path) = &self.opts.checkpoint {
            let pending: Vec<PendingSubmission> = {
                let state = lock(&self.state);
                state
                    .submissions
                    .values()
                    .filter(|s| !s.is_complete())
                    .map(|s| PendingSubmission {
                        client: s.client,
                        submission: s.id,
                        priority: s.priority,
                        units: s.units.clone(),
                    })
                    .collect()
            };
            let ck = Checkpoint {
                cache: self.cache.export(),
                pending,
            };
            if let Err(e) = ck.save(path) {
                ppa_obs::warn!("serve", "checkpoint write failed: {e}");
            }
        }
        if let Some(path) = &self.opts.metrics_json {
            if let Err(e) = ppa_obs::snapshot().write_json_file(path, false) {
                ppa_obs::warn!("serve", "metrics write failed: {e}");
            }
        }
    }

    fn lookup_submission(&self, client: u64, id: u64) -> Option<Arc<SubmissionState>> {
        lock(&self.state).submissions.get(&(client, id)).cloned()
    }

    /// Drops a fully-delivered submission: its results live on in the
    /// cache, so a late re-subscribe degrades to a re-submit that
    /// completes instantly.
    fn retire(&self, client: u64, id: u64) {
        let mut state = lock(&self.state);
        if let Some(sub) = state.submissions.get(&(client, id)) {
            if sub.is_complete() {
                state.submissions.remove(&(client, id));
            }
        }
    }

    /// Streams `sub`'s results from `from` in index order. Returns
    /// whether the socket survived.
    fn stream_results(&self, sub: &SubmissionState, from: usize, stream: &mut TcpStream) -> bool {
        let n = sub.units.len();
        for index in from..n {
            let Some(slot) = sub.wait_slot(index, &|| self.stopped()) else {
                return false; // daemon stopping
            };
            let msg = Msg::Result {
                submission: sub.id,
                index: index as u32,
                ok: slot.ok,
                cached: slot.cached,
                attempts: slot.attempts,
                elapsed_ns: slot.elapsed_ns,
                clock_us: ppa_obs::span::now_us(),
                spans: slot.spans,
                payload: slot.payload,
            };
            if proto::write_msg(stream, &msg).is_err() {
                return false;
            }
        }
        true
    }

    fn cache_stats_msg(&self) -> Msg {
        let (hits, misses) = self.cache.counters();
        let (queued, inflight) = self.coord.queue_depth();
        let worker_detail = self.coord.worker_loads();
        let state = lock(&self.state);
        Msg::CacheStats {
            hits,
            misses,
            entries: self.cache.len() as u64,
            evictions: self.cache.evictions(),
            queue_depth: queued as u64,
            inflight: inflight as u64,
            clients: state.clients,
            submissions: state.submissions_total,
            workers: self.coord.live_workers() as u64,
            worker_detail,
        }
    }
}

/// Finds or creates a submission. Creation consults the cache per
/// unit; misses are submitted to the coordinator queue at the
/// submission's priority, and a collector thread folds their outcomes
/// (and cache inserts) back into the submission's slots.
fn ensure_submission(
    inner: &Arc<Inner>,
    client: u64,
    id: u64,
    priority: u8,
    trace_id: u64,
    units: Vec<UnitSpec>,
) -> Arc<SubmissionState> {
    {
        let state = lock(&inner.state);
        if let Some(sub) = state.submissions.get(&(client, id)) {
            return Arc::clone(sub);
        }
    }
    let n = units.len();
    let sub = Arc::new(SubmissionState {
        client,
        id,
        priority,
        trace_id,
        units,
        inner: Mutex::new(SubInner {
            slots: (0..n).map(|_| None).collect(),
            remaining: n,
        }),
        cv: Condvar::new(),
    });
    {
        let mut state = lock(&inner.state);
        // A racing session may have registered it meanwhile.
        if let Some(existing) = state.submissions.get(&(client, id)) {
            return Arc::clone(existing);
        }
        state.submissions.insert((client, id), Arc::clone(&sub));
        state.submissions_total += 1;
        ppa_obs::registry::counter("serve.clients.submissions").inc();
    }
    // Cache pass: hits complete instantly, misses go to the queue.
    let mut miss_indices = Vec::new();
    let mut miss_units = Vec::new();
    for (i, u) in sub.units.iter().enumerate() {
        if let Some(result) = inner.cache.lookup(u) {
            ppa_obs::registry::counter("serve.results.cached").inc();
            sub.fill(
                i,
                SlotResult {
                    ok: true,
                    cached: true,
                    attempts: 0,
                    elapsed_ns: 0,
                    spans: Vec::new(),
                    payload: result,
                },
            );
        } else {
            miss_indices.push(i);
            miss_units.push(u.clone());
        }
    }
    if miss_units.is_empty() {
        // All-cache submission: nothing will tick persist for it.
        inner.persist();
    } else {
        let batch = inner.coord.submit_batch(miss_units, priority, sub.trace_id);
        let inner = Arc::clone(inner);
        let sub_c = Arc::clone(&sub);
        let _ = std::thread::Builder::new()
            .name("serve-collect".into())
            .spawn(move || {
                for (k, &i) in miss_indices.iter().enumerate() {
                    let result = match inner.coord.wait_slot(batch, k) {
                        Ok(outcome) => {
                            inner.cache.insert(&sub_c.units[i], &outcome.payload);
                            ppa_obs::registry::counter("serve.results.fresh").inc();
                            SlotResult {
                                ok: true,
                                cached: false,
                                attempts: outcome.attempts,
                                elapsed_ns: outcome.elapsed_ns,
                                spans: outcome.spans,
                                payload: outcome.payload,
                            }
                        }
                        Err(e) => SlotResult {
                            ok: false,
                            cached: false,
                            attempts: 0,
                            elapsed_ns: 0,
                            spans: Vec::new(),
                            payload: e.to_string().into_bytes(),
                        },
                    };
                    sub_c.fill(i, result);
                }
                inner.coord.drop_batch(batch);
                // The submission just completed; make that durable.
                inner.persist();
            });
    }
    sub
}

/// One client session: a request/stream loop over a single connection.
fn session(inner: &Arc<Inner>, first: Msg, mut stream: TcpStream) {
    // Client sessions idle between submissions; workers' short read
    // timeout does not apply to them.
    let _ = stream.set_read_timeout(None);
    {
        let mut state = lock(&inner.state);
        state.clients += 1;
        ppa_obs::registry::counter("serve.clients.sessions").inc();
        ppa_obs::registry::gauge("serve.clients.connected").set(state.clients as f64);
    }
    let mut pending = Some(first);
    loop {
        let msg = match pending.take() {
            Some(m) => m,
            None => match proto::read_msg(&mut stream) {
                Ok(m) => m,
                Err(_) => break,
            },
        };
        match msg {
            Msg::Submit {
                client,
                submission,
                trace_id,
                priority,
                units,
            } => {
                let units: Vec<UnitSpec> = units
                    .into_iter()
                    .map(|(tag, payload)| UnitSpec { tag, payload })
                    .collect();
                ppa_obs::info!(
                    "serve",
                    "client {client:#x} submitted {} unit(s) as submission {submission}",
                    units.len()
                );
                let sub = ensure_submission(inner, client, submission, priority, trace_id, units);
                if !inner.stream_results(&sub, 0, &mut stream) {
                    break;
                }
                inner.retire(client, submission);
            }
            Msg::Subscribe {
                client,
                submission,
                from_index,
            } => match inner.lookup_submission(client, submission) {
                Some(sub) => {
                    if !inner.stream_results(&sub, from_index as usize, &mut stream) {
                        break;
                    }
                    inner.retire(client, submission);
                }
                None => {
                    let nack = Msg::Result {
                        submission,
                        index: RESULT_NO_SUCH_SUBMISSION,
                        ok: false,
                        cached: false,
                        attempts: 0,
                        elapsed_ns: 0,
                        clock_us: ppa_obs::span::now_us(),
                        spans: Vec::new(),
                        payload: Vec::new(),
                    };
                    if proto::write_msg(&mut stream, &nack).is_err() {
                        break;
                    }
                }
            },
            Msg::Query { what } if what == QUERY_STATS => {
                if proto::write_msg(&mut stream, &inner.cache_stats_msg()).is_err() {
                    break;
                }
            }
            Msg::Query { what } if what == QUERY_STOP => {
                let _ = proto::write_msg(&mut stream, &inner.cache_stats_msg());
                ppa_obs::info!("serve", "stop requested by client");
                inner.request_stop();
                break;
            }
            // Anything else on a client session is protocol misuse.
            _ => break,
        }
    }
    let _ = stream.shutdown(Shutdown::Both);
    let mut state = lock(&inner.state);
    state.clients -= 1;
    ppa_obs::registry::gauge("serve.clients.connected").set(state.clients as f64);
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn dropping_a_daemon_frees_its_state_and_coordinator() {
        let daemon = Daemon::start(DaemonOptions::default()).expect("daemon starts");
        let inner = Arc::downgrade(&daemon.inner);
        drop(daemon);
        assert!(
            inner.upgrade().is_none(),
            "the daemon's state outlived it (a reference cycle through the coordinator)"
        );
    }
}
