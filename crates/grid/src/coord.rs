//! The grid coordinator: leases work units to connected workers and
//! survives their failures.
//!
//! Every submitted [`UnitSpec`] is leased to a worker with a deadline;
//! liveness is tracked from worker heartbeats. A unit whose lease
//! expires, whose worker disconnects, or whose execution fails is
//! re-queued with a short backoff and re-dispatched (to any worker, not
//! necessarily the original one) until [`GridConfig::max_attempts`] is
//! exhausted, at which point the unit — and only that unit — completes
//! as [`GridError::UnitFailed`] naming its tag. A late result from a
//! superseded lease is suppressed (first result wins), so a unit's
//! outcome is recorded exactly once no matter how many times it was
//! in flight.
//!
//! Determinism: [`Coordinator::run_units`] returns outcomes **in
//! submission order**, whatever the arrival order across workers, so
//! callers assemble byte-identical output at any worker count.

use crate::proto::{self, Msg, SpanFrag};
use crate::sync::{lock, wait, wait_until};
use std::collections::{BTreeSet, HashMap};
use std::net::{
    IpAddr, Ipv4Addr, Ipv6Addr, Shutdown, SocketAddr, TcpListener, TcpStream, ToSocketAddrs,
};
use std::sync::{Arc, Condvar, Mutex, OnceLock};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// Priority given to units submitted through the plain [`UnitRunner`]
/// path (`run_units`). Higher is sooner; 0..=255.
pub const DEFAULT_PRIORITY: u8 = 128;

/// Anything that can run a batch of work units and return their
/// outcomes in submission order. Implemented by [`Coordinator`] (the
/// loopback path) and by the `ppa-serve` client (the daemon
/// path), so front-ends are written once against this trait.
pub trait UnitRunner: Send + Sync {
    fn run_units(&self, units: Vec<UnitSpec>) -> Vec<Result<UnitOutcome, GridError>>;
}

/// A hook for routing non-worker connections (service frames) that
/// arrive on the coordinator's listening port. `ppa-serve` installs one
/// to serve client sessions on the same socket workers dial.
pub trait ConnDispatch: Send + Sync {
    /// Takes ownership of a connection whose first frame was a
    /// service frame. Runs the whole session; returns when it ends.
    fn handle(&self, first: Msg, stream: TcpStream);
}

/// Coordinator tuning knobs. The defaults suit real experiment units
/// (milliseconds to minutes each); tests shrink them to exercise the
/// timeout paths quickly.
#[derive(Debug, Clone)]
pub struct GridConfig {
    /// How long a leased unit may run before it is re-dispatched.
    pub lease_timeout: Duration,
    /// A worker silent for this long is declared dead and its leases
    /// re-queued. Workers beacon every [`super::WorkerOptions::heartbeat`].
    pub heartbeat_timeout: Duration,
    /// Total attempts (first dispatch included) before a unit fails.
    pub max_attempts: u32,
    /// Base re-queue delay; scaled by the attempt number.
    pub retry_backoff: Duration,
}

impl Default for GridConfig {
    fn default() -> Self {
        GridConfig {
            lease_timeout: Duration::from_secs(600),
            heartbeat_timeout: Duration::from_secs(15),
            max_attempts: 4,
            retry_backoff: Duration::from_millis(100),
        }
    }
}

/// One serializable work unit: an application-level `tag` routing it to
/// the right executor, and an opaque payload.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct UnitSpec {
    pub tag: String,
    pub payload: Vec<u8>,
}

/// A completed unit's result.
#[derive(Debug, Clone)]
pub struct UnitOutcome {
    /// The executor's result bytes.
    pub payload: Vec<u8>,
    /// Worker-measured execution time (the winning attempt).
    pub elapsed_ns: u64,
    /// How many dispatches this unit needed.
    pub attempts: u32,
    /// Trace fragments from the winning attempt, already corrected to
    /// the coordinator's clock and assigned their worker `pid` lane.
    /// Empty when the submission was untraced.
    pub spans: Vec<SpanFrag>,
}

/// Why a unit (or run) did not produce a result.
#[derive(Debug, Clone)]
pub enum GridError {
    /// The unit failed on every attempt; `message` is the last error.
    UnitFailed {
        tag: String,
        attempts: u32,
        message: String,
    },
    /// The coordinator was shut down before the unit completed.
    Aborted,
}

impl std::fmt::Display for GridError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            GridError::UnitFailed {
                tag,
                attempts,
                message,
            } => write!(
                f,
                "unit '{tag}' failed after {attempts} attempts: {message}"
            ),
            GridError::Aborted => write!(f, "coordinator shut down before the unit completed"),
        }
    }
}

impl std::error::Error for GridError {}

/// Scheduler counters, mirrored on stderr by the CLI front-ends.
#[derive(Debug, Default, Clone)]
pub struct GridStats {
    pub dispatched: u64,
    pub completed: u64,
    pub redispatched: u64,
    pub duplicates: u64,
    pub unit_errors: u64,
    pub workers_joined: u64,
    pub workers_lost: u64,
}

struct WorkerState {
    stream: TcpStream,
    jobs: usize,
    outstanding: Vec<u64>,
    last_seen: Instant,
    /// Units finished since connecting (from the heartbeat telemetry).
    executed: u64,
    /// Latest upper bound on `coordinator clock − worker clock` (µs),
    /// refreshed by heartbeats and results: the worker's clock sample
    /// was taken before the frame crossed the network, so receipt time
    /// minus the sample can only over-estimate the offset.
    offset_hi: Option<i64>,
}

struct LeaseState {
    unit: u64,
    worker: u64,
    deadline: Instant,
    /// Coordinator clock at dispatch (µs): the lower half of the
    /// clock-offset bracket for this lease's result.
    dispatch_us: u64,
}

struct UnitState {
    spec: UnitSpec,
    batch: u64,
    index: usize,
    priority: u8,
    trace_id: u64,
    attempts: u32,
    last_error: String,
    done: bool,
    /// Worker of the most recent lease. Re-dispatches avoid it when any
    /// other worker has capacity: a lease usually expires because its
    /// holder is wedged, and a single-slot worker would otherwise queue
    /// the retry behind the very execution that timed out.
    last_worker: Option<u64>,
}

/// Ordered key for the pending queue: higher priority first, then FIFO
/// by unit id within a priority band (uids are allocated in submission
/// order, so the band order is the submission order).
fn pending_key(priority: u8, uid: u64) -> (u8, u64) {
    (255 - priority, uid)
}

struct BatchState {
    results: Vec<Option<Result<UnitOutcome, GridError>>>,
    remaining: usize,
}

struct State {
    pending: BTreeSet<(u8, u64)>,
    delayed: Vec<(Instant, u64)>,
    units: HashMap<u64, UnitState>,
    leases: HashMap<u64, LeaseState>,
    workers: HashMap<u64, WorkerState>,
    batches: HashMap<u64, BatchState>,
    next_unit: u64,
    next_seq: u64,
    next_batch: u64,
    next_worker: u64,
    stats: GridStats,
    shutdown: bool,
}

struct Shared {
    state: Mutex<State>,
    cv: Condvar,
    cfg: GridConfig,
    /// Client-session router for service frames; set once by
    /// `ppa-serve`, absent in loopback runs.
    dispatch: OnceLock<Arc<dyn ConnDispatch>>,
}

/// A listening coordinator. Clone-free: share it behind an `Arc` to
/// submit batches from several threads at once.
pub struct Coordinator {
    shared: Arc<Shared>,
    addr: SocketAddr,
    accept_thread: Option<JoinHandle<()>>,
    dispatch_thread: Option<JoinHandle<()>>,
}

impl Coordinator {
    /// Binds `addr` (e.g. `"0.0.0.0:7171"` or `"127.0.0.1:0"`) and
    /// starts accepting workers.
    pub fn bind(addr: impl ToSocketAddrs, cfg: GridConfig) -> std::io::Result<Coordinator> {
        let listener = TcpListener::bind(addr)?;
        let addr = listener.local_addr()?;
        let shared = Arc::new(Shared {
            state: Mutex::new(State {
                pending: BTreeSet::new(),
                delayed: Vec::new(),
                units: HashMap::new(),
                leases: HashMap::new(),
                workers: HashMap::new(),
                batches: HashMap::new(),
                next_unit: 0,
                next_seq: 0,
                next_batch: 0,
                next_worker: 0,
                stats: GridStats::default(),
                shutdown: false,
            }),
            cv: Condvar::new(),
            cfg,
            dispatch: OnceLock::new(),
        });
        let accept_thread = {
            let shared = Arc::clone(&shared);
            std::thread::Builder::new()
                .name("grid-accept".into())
                .spawn(move || accept_loop(shared, listener))
                .expect("spawning the grid accept thread")
        };
        let dispatch_thread = {
            let shared = Arc::clone(&shared);
            std::thread::Builder::new()
                .name("grid-dispatch".into())
                .spawn(move || dispatch_loop(shared))
                .expect("spawning the grid dispatch thread")
        };
        Ok(Coordinator {
            shared,
            addr,
            accept_thread: Some(accept_thread),
            dispatch_thread: Some(dispatch_thread),
        })
    }

    /// The bound address (with the OS-assigned port resolved).
    pub fn local_addr(&self) -> SocketAddr {
        self.addr
    }

    /// Blocks until at least `n` workers have connected, up to
    /// `timeout`. Returns whether the quorum was reached.
    pub fn wait_for_workers(&self, n: usize, timeout: Duration) -> bool {
        let deadline = Instant::now() + timeout;
        let mut state = lock(&self.shared.state);
        loop {
            if state.stats.workers_joined as usize >= n {
                return true;
            }
            if Instant::now() >= deadline || state.shutdown {
                return false;
            }
            state = wait_until(&self.shared.cv, state, deadline);
        }
    }

    /// Number of currently connected workers.
    pub fn live_workers(&self) -> usize {
        lock(&self.shared.state).workers.len()
    }

    /// A snapshot of the scheduler counters.
    pub fn stats(&self) -> GridStats {
        lock(&self.shared.state).stats.clone()
    }

    /// Installs the client-session router. May be called once; a
    /// second call is ignored (the first router wins).
    pub fn set_dispatch(&self, dispatch: Arc<dyn ConnDispatch>) {
        let _ = self.shared.dispatch.set(dispatch);
    }

    /// Enqueues a batch of units at `priority` (higher is sooner) and
    /// returns its batch id without blocking. `trace_id` is stamped on
    /// every lease of the batch (0 = untraced: workers skip fragment
    /// collection). Collect outcomes with [`Coordinator::wait_slot`];
    /// release the batch's results with [`Coordinator::drop_batch`]
    /// when done with them.
    pub fn submit_batch(&self, units: Vec<UnitSpec>, priority: u8, trace_id: u64) -> u64 {
        let n = units.len();
        let mut state = lock(&self.shared.state);
        let batch = state.next_batch;
        state.next_batch += 1;
        state.batches.insert(
            batch,
            BatchState {
                results: (0..n).map(|_| None).collect(),
                remaining: n,
            },
        );
        for (index, spec) in units.into_iter().enumerate() {
            let uid = state.next_unit;
            state.next_unit += 1;
            state.units.insert(
                uid,
                UnitState {
                    spec,
                    batch,
                    index,
                    priority,
                    trace_id,
                    attempts: 0,
                    last_error: String::new(),
                    done: false,
                    last_worker: None,
                },
            );
            state.pending.insert(pending_key(priority, uid));
        }
        self.shared.cv.notify_all();
        batch
    }

    /// Blocks until slot `index` of `batch` has an outcome and returns a
    /// clone of it (the slot stays readable until [`drop_batch`], so a
    /// caller whose downstream write failed can read it again).
    ///
    /// [`drop_batch`]: Coordinator::drop_batch
    pub fn wait_slot(&self, batch: u64, index: usize) -> Result<UnitOutcome, GridError> {
        let mut state = lock(&self.shared.state);
        loop {
            match state.batches.get(&batch) {
                None => return Err(GridError::Aborted),
                Some(b) => {
                    if let Some(slot) = b.results.get(index) {
                        if let Some(result) = slot {
                            return result.clone();
                        }
                    } else {
                        return Err(GridError::Aborted);
                    }
                }
            }
            if state.shutdown {
                return Err(GridError::Aborted);
            }
            state = wait(&self.shared.cv, state);
        }
    }

    /// Releases a batch: its stored results are dropped and any of its
    /// units still queued are cancelled (leased units finish on their
    /// worker; the late result is suppressed as a duplicate).
    pub fn drop_batch(&self, batch: u64) {
        let mut state = lock(&self.shared.state);
        state.batches.remove(&batch);
        let doomed: Vec<(u64, u8)> = state
            .units
            .iter()
            .filter(|(_, u)| u.batch == batch)
            .map(|(&uid, u)| (uid, u.priority))
            .collect();
        for (uid, priority) in doomed {
            state.units.remove(&uid);
            state.pending.remove(&pending_key(priority, uid));
            state.delayed.retain(|&(_, d)| d != uid);
        }
        self.shared.cv.notify_all();
    }

    /// (queued, leased) unit counts — the daemon's depth gauges.
    pub fn queue_depth(&self) -> (usize, usize) {
        let state = lock(&self.shared.state);
        (
            state.pending.len() + state.delayed.len(),
            state.leases.len(),
        )
    }

    /// One `(wid, inflight, executed)` triple per connected worker,
    /// sorted by worker id — the live-progress feed behind
    /// `Msg::CacheStats::worker_detail`.
    pub fn worker_loads(&self) -> Vec<(u64, u64, u64)> {
        let state = lock(&self.shared.state);
        let mut out: Vec<(u64, u64, u64)> = state
            .workers
            .iter()
            .map(|(&wid, w)| (wid, w.outstanding.len() as u64, w.executed))
            .collect();
        out.sort_unstable();
        out
    }
}

impl UnitRunner for Coordinator {
    /// Submits a batch of units and blocks until every one has either a
    /// result or a terminal error. Outcomes come back **in submission
    /// order**; a failed unit yields `Err` for its slot only.
    fn run_units(&self, units: Vec<UnitSpec>) -> Vec<Result<UnitOutcome, GridError>> {
        if units.is_empty() {
            return Vec::new();
        }
        let n = units.len();
        let trace_id = if ppa_obs::span::trace_armed() {
            ppa_obs::span::trace_id()
        } else {
            0
        };
        let batch = self.submit_batch(units, DEFAULT_PRIORITY, trace_id);
        let out = (0..n).map(|i| self.wait_slot(batch, i)).collect();
        self.drop_batch(batch);
        out
    }
}

impl Coordinator {
    /// Signals shutdown: workers receive [`Msg::Shutdown`], in-flight
    /// batches complete as [`GridError::Aborted`], the accept loop
    /// stops. Threads are joined on drop.
    pub fn shutdown(&self) {
        let streams: Vec<TcpStream>;
        let first;
        {
            let mut state = lock(&self.shared.state);
            first = !state.shutdown;
            state.shutdown = true;
            streams = state
                .workers
                .values()
                .filter_map(|w| w.stream.try_clone().ok())
                .collect();
            self.shared.cv.notify_all();
        }
        if first {
            // The accept loop blocks in `accept`: a connection of our
            // own wakes it, and it sees the flag set above. (Should the
            // connect fail because the process is out of descriptors,
            // `accept` fails the same way and its backoff sees the flag.)
            if let Err(e) = TcpStream::connect_timeout(&wake_addr(self.addr), WAKE_TIMEOUT) {
                ppa_obs::warn!("grid.coord", "waking the accept loop failed: {e}");
            }
        }
        for mut s in streams {
            let _ = proto::write_msg(&mut s, &Msg::Shutdown);
            let _ = s.shutdown(Shutdown::Both);
        }
    }
}

impl Drop for Coordinator {
    fn drop(&mut self) {
        self.shutdown();
        if let Some(h) = self.accept_thread.take() {
            let _ = h.join();
        }
        if let Some(h) = self.dispatch_thread.take() {
            let _ = h.join();
        }
    }
}

/// Bound on the self-connect that wakes the accept loop on shutdown.
const WAKE_TIMEOUT: Duration = Duration::from_secs(1);

/// Pause after a failed `accept` (EMFILE, ENFILE, ENOBUFS): the error
/// is the listener's, so retrying at once would spin.
const ACCEPT_ERROR_BACKOFF: Duration = Duration::from_millis(25);

/// Where [`Coordinator::shutdown`] connects to wake the accept loop:
/// the bound address, with an unspecified IP (`0.0.0.0`, `::`) replaced
/// by loopback.
fn wake_addr(addr: SocketAddr) -> SocketAddr {
    let ip = match addr.ip() {
        IpAddr::V4(ip) if ip.is_unspecified() => IpAddr::V4(Ipv4Addr::LOCALHOST),
        IpAddr::V6(ip) if ip.is_unspecified() => IpAddr::V6(Ipv6Addr::LOCALHOST),
        ip => ip,
    };
    SocketAddr::new(ip, addr.port())
}

/// Blocks in `accept` and hands each connection to its own reader
/// thread. Shutdown sets the flag, then wakes this loop by connecting.
fn accept_loop(shared: Arc<Shared>, listener: TcpListener) {
    loop {
        let accepted = listener.accept();
        if lock(&shared.state).shutdown {
            return;
        }
        match accepted {
            Ok((stream, _)) => {
                let _ = stream.set_nodelay(true);
                let _ = stream.set_read_timeout(Some(shared.cfg.heartbeat_timeout * 2));
                let shared = Arc::clone(&shared);
                let _ = std::thread::Builder::new()
                    .name("grid-worker-conn".into())
                    .spawn(move || reader_loop(shared, stream));
            }
            Err(e) => {
                ppa_obs::warn!("grid.coord", "accept failed: {e}");
                std::thread::sleep(ACCEPT_ERROR_BACKOFF);
            }
        }
    }
}

fn reader_loop(shared: Arc<Shared>, mut stream: TcpStream) {
    // The handshake: a worker's first frame is Hello, announcing
    // capacity. A service frame instead marks a client session,
    // which is handed to the installed dispatcher (if any) — workers
    // and clients share one listening port.
    let jobs = match proto::read_msg(&mut stream) {
        Ok(Msg::Hello { jobs }) => (jobs as usize).max(1),
        Ok(msg @ (Msg::Submit { .. } | Msg::Query { .. } | Msg::Subscribe { .. })) => {
            if let Some(dispatch) = shared.dispatch.get() {
                let dispatch = Arc::clone(dispatch);
                dispatch.handle(msg, stream);
            } else {
                let _ = stream.shutdown(Shutdown::Both);
            }
            return;
        }
        _ => {
            let _ = stream.shutdown(Shutdown::Both);
            return;
        }
    };
    let wid;
    {
        let mut state = lock(&shared.state);
        if state.shutdown {
            let _ = stream.shutdown(Shutdown::Both);
            return;
        }
        wid = state.next_worker;
        state.next_worker += 1;
        let writer = match stream.try_clone() {
            Ok(w) => w,
            Err(_) => {
                let _ = stream.shutdown(Shutdown::Both);
                return;
            }
        };
        state.workers.insert(
            wid,
            WorkerState {
                stream: writer,
                jobs,
                outstanding: Vec::new(),
                last_seen: Instant::now(),
                executed: 0,
                offset_hi: None,
            },
        );
        state.stats.workers_joined += 1;
        ppa_obs::registry::counter("grid.coord.worker.joined").inc();
        ppa_obs::registry::gauge("grid.coord.workers.live").set(state.workers.len() as f64);
        ppa_obs::info!("grid.coord", "worker {wid} joined with {jobs} job slot(s)");
        shared.cv.notify_all();
    }
    while let Ok(msg) = proto::read_msg(&mut stream) {
        if !handle_worker_msg(&shared, wid, msg) {
            break;
        }
    }
    worker_gone(&shared, wid);
    let _ = stream.shutdown(Shutdown::Both);
}

/// Returns whether the connection should stay open.
fn handle_worker_msg(shared: &Arc<Shared>, wid: u64, msg: Msg) -> bool {
    let mut state = lock(&shared.state);
    if let Some(w) = state.workers.get_mut(&wid) {
        w.last_seen = Instant::now();
    } else {
        return false; // already declared dead
    }
    match msg {
        Msg::Heartbeat {
            inflight,
            executed,
            clock_us,
        } => {
            // Per-worker load gauges, carried on the liveness beacon.
            ppa_obs::registry::gauge(&format!("grid.coord.worker.{wid}.inflight"))
                .set(f64::from(inflight));
            ppa_obs::registry::gauge(&format!("grid.coord.worker.{wid}.executed"))
                .set(executed as f64);
            if let Some(w) = state.workers.get_mut(&wid) {
                w.executed = executed;
                w.offset_hi = Some(ppa_obs::span::now_us() as i64 - clock_us as i64);
            }
        }
        Msg::UnitResult {
            seq,
            payload,
            elapsed_ns,
            recv_us,
            done_us,
            spans,
            ..
        } => {
            if let Some(lease) = state.leases.remove(&seq) {
                // Bracket the worker's clock offset (coordinator −
                // worker, µs): the lease left here at `dispatch_us` and
                // arrived there at `recv_us`, so the offset is at least
                // their difference; the result left there at `done_us`
                // and is here now, so it is at most that difference.
                let now_us = ppa_obs::span::now_us() as i64;
                let lo = lease.dispatch_us as i64 - recv_us as i64;
                let mut hi = now_us - done_us as i64;
                if let Some(w) = state.workers.get_mut(&lease.worker) {
                    w.outstanding.retain(|&s| s != seq);
                    w.executed += 1;
                    // Heartbeats between results may have observed a
                    // tighter upper bound; use it, then keep the fresh
                    // sample for the next bracket.
                    if let Some(stored) = w.offset_hi {
                        hi = hi.min(stored);
                    }
                    w.offset_hi = Some(now_us - done_us as i64);
                }
                let offset = if lo <= hi { (lo + hi) / 2 } else { hi };
                let spans: Vec<SpanFrag> = spans
                    .into_iter()
                    .map(|mut s| {
                        if s.pid == 0 {
                            s.pid = ppa_obs::span::worker_pid(lease.worker);
                        }
                        s.start_us = s.start_us.saturating_add_signed(offset);
                        s.end_us = s.end_us.saturating_add_signed(offset).max(s.start_us);
                        s
                    })
                    .collect();
                if ppa_obs::span::trace_armed() {
                    for s in &spans {
                        ppa_obs::span::record_remote(&s.name, s.pid, s.tid, s.start_us, s.end_us);
                    }
                }
                // A missing unit means its batch was dropped (cancelled)
                // while this lease was in flight: suppress the result.
                let slot = state.units.get_mut(&lease.unit).map(|u| {
                    u.done = true;
                    (u.batch, u.index, u.attempts)
                });
                let Some((batch, index, attempts)) = slot else {
                    state.stats.duplicates += 1;
                    ppa_obs::registry::counter("grid.coord.units.duplicate").inc();
                    return true;
                };
                state.stats.completed += 1;
                ppa_obs::registry::counter("grid.coord.units.completed").inc();
                ppa_obs::registry::summary("grid.coord.unit.elapsed_ns").record(elapsed_ns as f64);
                complete(
                    &mut state,
                    batch,
                    index,
                    Ok(UnitOutcome {
                        payload,
                        elapsed_ns,
                        attempts,
                        spans,
                    }),
                );
                shared.cv.notify_all();
            } else {
                // A superseded lease finished after re-dispatch: the
                // first recorded result won, drop this one.
                state.stats.duplicates += 1;
                ppa_obs::registry::counter("grid.coord.units.duplicate").inc();
            }
        }
        Msg::UnitError { seq, message, .. } => {
            if let Some(lease) = state.leases.remove(&seq) {
                if let Some(w) = state.workers.get_mut(&lease.worker) {
                    w.outstanding.retain(|&s| s != seq);
                }
                state.stats.unit_errors += 1;
                ppa_obs::registry::counter("grid.coord.units.failed").inc();
                ppa_obs::warn!(
                    "grid.coord",
                    "unit seq={seq} failed on worker {wid}: {message}"
                );
                requeue_or_fail(shared, &mut state, lease.unit, message);
            } else {
                state.stats.duplicates += 1;
                ppa_obs::registry::counter("grid.coord.units.duplicate").inc();
            }
        }
        Msg::Shutdown => return false,
        // Hello twice, coordinator-only frames, or service frames on
        // an established worker connection: protocol misuse.
        Msg::Hello { .. }
        | Msg::Lease { .. }
        | Msg::Submit { .. }
        | Msg::Query { .. }
        | Msg::Subscribe { .. }
        | Msg::Result { .. }
        | Msg::CacheStats { .. } => return false,
    }
    true
}

fn worker_gone(shared: &Arc<Shared>, wid: u64) {
    let mut state = lock(&shared.state);
    let Some(w) = state.workers.remove(&wid) else {
        return;
    };
    state.stats.workers_lost += 1;
    ppa_obs::registry::counter("grid.coord.worker.lost").inc();
    ppa_obs::registry::gauge("grid.coord.workers.live").set(state.workers.len() as f64);
    ppa_obs::warn!(
        "grid.coord",
        "worker {wid} disconnected with {} unit(s) in flight",
        w.outstanding.len()
    );
    let _ = w.stream.shutdown(Shutdown::Both);
    for seq in w.outstanding {
        if let Some(lease) = state.leases.remove(&seq) {
            state.stats.redispatched += 1;
            ppa_obs::registry::counter("grid.coord.units.redispatched").inc();
            requeue_or_fail(
                shared,
                &mut state,
                lease.unit,
                "worker connection lost".into(),
            );
        }
    }
    shared.cv.notify_all();
}

/// A unit's current attempt ended without a recorded result: either
/// schedule another dispatch (after a backoff) or give up.
fn requeue_or_fail(shared: &Arc<Shared>, state: &mut State, uid: u64, message: String) {
    let (batch, index, give_up, tag, attempts) = {
        // A missing unit means its batch was dropped while the attempt
        // was in flight; there is nothing left to retry or fail.
        let Some(u) = state.units.get_mut(&uid) else {
            return;
        };
        if u.done {
            return;
        }
        u.last_error = message;
        (
            u.batch,
            u.index,
            u.attempts >= shared.cfg.max_attempts,
            u.spec.tag.clone(),
            u.attempts,
        )
    };
    if give_up {
        let message = {
            let u = state.units.get_mut(&uid).expect("unit exists");
            u.done = true;
            u.last_error.clone()
        };
        ppa_obs::registry::counter("grid.coord.units.exhausted").inc();
        ppa_obs::error!(
            "grid.coord",
            "unit '{tag}' failed after {attempts} attempts: {message}"
        );
        complete(
            state,
            batch,
            index,
            Err(GridError::UnitFailed {
                tag,
                attempts,
                message,
            }),
        );
    } else {
        ppa_obs::registry::counter("grid.coord.units.retried").inc();
        let delay = shared.cfg.retry_backoff * attempts.max(1);
        state.delayed.push((Instant::now() + delay, uid));
    }
    // Either a waiter's slot filled or the dispatcher has a new retry
    // deadline to sleep towards.
    shared.cv.notify_all();
}

fn complete(state: &mut State, batch: u64, index: usize, result: Result<UnitOutcome, GridError>) {
    if let Some(b) = state.batches.get_mut(&batch) {
        if b.results[index].is_none() {
            b.results[index] = Some(result);
            b.remaining -= 1;
        }
    }
}

fn dispatch_loop(shared: Arc<Shared>) {
    let mut state = lock(&shared.state);
    while !state.shutdown {
        let outbox = dispatch_pass(&shared, &mut state);
        if outbox.is_empty() {
            // Nothing to send: sleep until the next deadline or a
            // notify. The pass ran under this same guard, so a submit,
            // result or worker change landing after it notifies a
            // waiting dispatcher and cannot be missed.
            state = match next_deadline(&state, &shared.cfg) {
                Some(deadline) => wait_until(&shared.cv, state, deadline),
                None => wait(&shared.cv, state),
            };
            continue;
        }
        drop(state);

        // Socket writes happen outside the state lock; a failed write
        // means the worker is gone and its leases re-queue.
        let mut failed: Vec<u64> = Vec::new();
        for (wid, mut stream, msg) in outbox {
            if proto::write_msg(&mut stream, &msg).is_err() {
                failed.push(wid);
            }
        }
        for wid in failed {
            worker_gone(&shared, wid);
        }
        // Pass again before waiting: work that arrived during the
        // writes found no dispatcher waiting to notify.
        state = lock(&shared.state);
    }
}

/// The earliest instant the dispatcher must act without being
/// notified: a backed-off unit falling due, a lease expiring, or a
/// worker's heartbeat going stale. `None` when nothing is timed.
fn next_deadline(state: &State, cfg: &GridConfig) -> Option<Instant> {
    let retries = state.delayed.iter().map(|&(ready, _)| ready);
    let leases = state.leases.values().map(|l| l.deadline);
    let heartbeats = state
        .workers
        .values()
        .filter_map(|w| w.last_seen.checked_add(cfg.heartbeat_timeout));
    retries.chain(leases).chain(heartbeats).min()
}

/// One scheduling pass under the state lock: promotes due retries,
/// expires leases, reaps silent workers, and leases pending units to
/// workers with spare capacity. Returns the lease frames to send.
fn dispatch_pass(shared: &Arc<Shared>, state: &mut State) -> Vec<(u64, TcpStream, Msg)> {
    let mut outbox: Vec<(u64, TcpStream, Msg)> = Vec::new();
    let now = Instant::now();

    // Backed-off units whose delay has elapsed become pending
    // again, oldest first.
    let mut due: Vec<u64> = Vec::new();
    state.delayed.retain(|&(ready, uid)| {
        if ready <= now {
            due.push(uid);
            false
        } else {
            true
        }
    });
    for uid in due {
        // The unit may have been cancelled while backing off.
        if let Some(priority) = state.units.get(&uid).map(|u| u.priority) {
            state.pending.insert(pending_key(priority, uid));
        }
    }

    // Expired leases are re-dispatched elsewhere.
    let expired: Vec<u64> = state
        .leases
        .iter()
        .filter(|(_, l)| l.deadline <= now)
        .map(|(&seq, _)| seq)
        .collect();
    for seq in expired {
        if let Some(lease) = state.leases.remove(&seq) {
            if let Some(w) = state.workers.get_mut(&lease.worker) {
                w.outstanding.retain(|&s| s != seq);
            }
            state.stats.redispatched += 1;
            ppa_obs::registry::counter("grid.coord.lease.expired").inc();
            ppa_obs::registry::counter("grid.coord.units.redispatched").inc();
            ppa_obs::warn!(
                "grid.coord",
                "lease seq={seq} expired on worker {}; re-dispatching",
                lease.worker
            );
            requeue_or_fail(shared, state, lease.unit, "lease deadline expired".into());
        }
    }

    // Workers that stopped heartbeating are dead; their leases
    // move on. (An EOF on the connection catches most failures
    // faster — this is the backstop for wedged-but-open pipes.)
    let stale: Vec<u64> = state
        .workers
        .iter()
        .filter(|(_, w)| now.duration_since(w.last_seen) >= shared.cfg.heartbeat_timeout)
        .map(|(&wid, _)| wid)
        .collect();
    for wid in stale {
        if let Some(w) = state.workers.remove(&wid) {
            state.stats.workers_lost += 1;
            ppa_obs::registry::counter("grid.coord.worker.lost").inc();
            ppa_obs::registry::counter("grid.coord.worker.heartbeat_lost").inc();
            ppa_obs::registry::gauge("grid.coord.workers.live").set(state.workers.len() as f64);
            ppa_obs::warn!(
                "grid.coord",
                "worker {wid} stopped heartbeating; declared dead"
            );
            let _ = w.stream.shutdown(Shutdown::Both);
            for seq in w.outstanding {
                if let Some(lease) = state.leases.remove(&seq) {
                    state.stats.redispatched += 1;
                    ppa_obs::registry::counter("grid.coord.units.redispatched").inc();
                    requeue_or_fail(
                        shared,
                        state,
                        lease.unit,
                        "worker stopped heartbeating".into(),
                    );
                }
            }
        }
    }

    // Lease pending units (highest priority first, FIFO within
    // a band) to the least-loaded workers with spare capacity.
    while let Some(&key) = state.pending.iter().next() {
        let uid = key.1;
        let avoid = state.units.get(&uid).and_then(|u| u.last_worker);
        let target = state
            .workers
            .iter()
            .filter(|(_, w)| w.outstanding.len() < w.jobs)
            .min_by_key(|(&wid, w)| (Some(wid) == avoid, w.outstanding.len(), wid))
            .map(|(&wid, _)| wid);
        let Some(wid) = target else { break };
        state.pending.remove(&key);
        let seq = state.next_seq;
        state.next_seq += 1;
        let (tag, payload, attempt, trace_id) = {
            let u = state.units.get_mut(&uid).expect("pending unit exists");
            u.attempts += 1;
            u.last_worker = Some(wid);
            (
                u.spec.tag.clone(),
                u.spec.payload.clone(),
                u.attempts,
                u.trace_id,
            )
        };
        let dispatch_us = ppa_obs::span::now_us();
        state.leases.insert(
            seq,
            LeaseState {
                unit: uid,
                worker: wid,
                deadline: now + shared.cfg.lease_timeout,
                dispatch_us,
            },
        );
        state.stats.dispatched += 1;
        ppa_obs::registry::counter("grid.coord.units.dispatched").inc();
        let w = state.workers.get_mut(&wid).expect("target worker exists");
        w.outstanding.push(seq);
        if let Ok(stream) = w.stream.try_clone() {
            outbox.push((
                wid,
                stream,
                Msg::Lease {
                    seq,
                    attempt,
                    trace_id,
                    dispatch_us,
                    tag,
                    payload,
                },
            ));
        }
    }
    outbox
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::loopback;
    use crate::worker::Executor;

    struct Echo;

    impl Executor for Echo {
        fn execute(&self, tag: &str, payload: &[u8]) -> Result<Vec<u8>, String> {
            Ok([tag.as_bytes(), payload].concat())
        }
    }

    #[test]
    fn a_poisoned_state_lock_does_not_stop_the_coordinator() {
        let lb = loopback::start_uniform(2, 1, Arc::new(Echo), GridConfig::default())
            .expect("loopback grid starts");
        let coord = Arc::clone(lb.coordinator());
        let poisoner = Arc::clone(&coord);
        let _ = std::thread::spawn(move || {
            let _state = poisoner.shared.state.lock().unwrap();
            panic!("a panic while holding the coordinator's state lock");
        })
        .join();
        assert!(coord.shared.state.is_poisoned());

        let units: Vec<UnitSpec> = (0..24u8)
            .map(|i| UnitSpec {
                tag: format!("u{i}:"),
                payload: vec![i],
            })
            .collect();
        let results = coord.run_units(units.clone());
        assert_eq!(results.len(), units.len());
        for (unit, result) in units.iter().zip(results) {
            let outcome = result.expect("every unit completes after the poisoning");
            assert_eq!(
                outcome.payload,
                [unit.tag.as_bytes(), &unit.payload].concat()
            );
        }
        assert_eq!(coord.stats().completed, 24);
        drop(coord);
        lb.shutdown();
    }
}
