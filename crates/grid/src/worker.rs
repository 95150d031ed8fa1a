//! The grid worker: connects to a coordinator, executes leased units on
//! a local `ppa-pool`, and streams results (with timing) back.
//!
//! The read loop runs inside a pool scope: each incoming lease is
//! spawned as a pool job, so up to [`WorkerOptions::jobs`] units execute
//! concurrently (the coordinator throttles dispatch to the advertised
//! capacity) while the socket keeps draining. A heartbeat thread beacons
//! liveness every [`WorkerOptions::heartbeat`]. A unit that panics is
//! confined by the pool and reported as a [`Msg::UnitError`] carrying
//! the panic message, so the coordinator can retry it — or fail the run
//! naming the unit — instead of waiting out the lease.
//!
//! [`WorkerOptions::die_after`] is the fault-injection hook the
//! loopback self-tests use: after accepting that many leases the worker
//! drops its connection cold, mid-lease, exactly like a crashed host.

use crate::coord::UnitSpec;
use crate::proto::{self, Msg, ProtoError};
use crate::sync::lock;
use std::net::{Shutdown, TcpStream, ToSocketAddrs};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicU32, AtomicU64, Ordering};
use std::sync::mpsc::{self, RecvTimeoutError};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

/// An application-level unit executor: maps a `(tag, payload)` work
/// unit to result bytes. Each harness implements it once, as its unit
/// kind: the tag prefix its units carry (`"repro."`, `"oracle."`, ...)
/// and a small representative batch for `ppa-grid selftest`.
pub trait Executor: Send + Sync {
    fn execute(&self, tag: &str, payload: &[u8]) -> Result<Vec<u8>, String>;

    /// The tag prefix of every unit this kind executes; the default,
    /// empty, claims every tag.
    fn prefix(&self) -> &'static str {
        ""
    }

    /// Units whose transported results the self-test diffs against
    /// local execution.
    fn selftest_units(&self) -> Vec<UnitSpec> {
        Vec::new()
    }
}

/// Unit kinds routed by tag prefix: one [`Executor`] serving every
/// registered kind, so a single worker process serves every harness.
pub struct Registry {
    kinds: Vec<&'static dyn Executor>,
}

impl Registry {
    pub fn new(kinds: Vec<&'static dyn Executor>) -> Registry {
        Registry { kinds }
    }

    /// The registered kinds, in routing order (first prefix match wins).
    pub fn kinds(&self) -> &[&'static dyn Executor] {
        &self.kinds
    }
}

impl Executor for Registry {
    fn execute(&self, tag: &str, payload: &[u8]) -> Result<Vec<u8>, String> {
        match self.kinds.iter().find(|k| tag.starts_with(k.prefix())) {
            Some(kind) => kind.execute(tag, payload),
            None => Err(format!("unknown unit tag '{tag}'")),
        }
    }

    fn selftest_units(&self) -> Vec<UnitSpec> {
        self.kinds.iter().flat_map(|k| k.selftest_units()).collect()
    }
}

/// Worker tuning and fault-injection knobs.
#[derive(Debug, Clone)]
pub struct WorkerOptions {
    /// Units to run concurrently (advertised to the coordinator).
    pub jobs: usize,
    /// Liveness beacon interval; must be well under the coordinator's
    /// heartbeat timeout.
    pub heartbeat: Duration,
    /// Fault injection: accept this many leases, then drop the
    /// connection without completing the next one.
    pub die_after: Option<usize>,
}

impl Default for WorkerOptions {
    fn default() -> Self {
        WorkerOptions {
            jobs: 1,
            heartbeat: Duration::from_secs(2),
            die_after: None,
        }
    }
}

/// What a worker did before disconnecting.
#[derive(Debug)]
pub struct WorkerReport {
    /// Units executed to a successful result.
    pub executed: usize,
    /// Whether the worker died via [`WorkerOptions::die_after`].
    pub died: bool,
}

/// Runs one worker until the coordinator shuts it down (or the
/// connection drops). Blocks the calling thread.
pub fn run_worker(
    addr: impl ToSocketAddrs,
    opts: WorkerOptions,
    exec: Arc<dyn Executor>,
) -> Result<WorkerReport, ProtoError> {
    let stream = TcpStream::connect(addr).map_err(|e| ProtoError::Io(e.kind()))?;
    let _ = stream.set_nodelay(true);
    let mut reader = stream.try_clone().map_err(|e| ProtoError::Io(e.kind()))?;
    let writer = Arc::new(Mutex::new(
        stream.try_clone().map_err(|e| ProtoError::Io(e.kind()))?,
    ));
    proto::write_msg(
        &mut *lock(&writer),
        &Msg::Hello {
            jobs: opts.jobs.max(1) as u32,
        },
    )?;

    // Dropping `stop` ends the heartbeat thread's wait at once.
    let (stop, stopped) = mpsc::channel::<()>();
    // Telemetry the heartbeat beacons to the coordinator: units leased
    // but not yet answered, and units executed to a successful result.
    let inflight = Arc::new(AtomicU32::new(0));
    let executed = Arc::new(AtomicU64::new(0));
    let heartbeat_thread = {
        let writer = Arc::clone(&writer);
        let inflight = Arc::clone(&inflight);
        let executed = Arc::clone(&executed);
        let interval = opts.heartbeat;
        std::thread::Builder::new()
            .name("grid-heartbeat".into())
            .spawn(move || {
                while let Err(RecvTimeoutError::Timeout) = stopped.recv_timeout(interval) {
                    let beat = Msg::Heartbeat {
                        inflight: inflight.load(Ordering::SeqCst),
                        executed: executed.load(Ordering::SeqCst),
                        clock_us: ppa_obs::span::now_us(),
                    };
                    if proto::write_msg(&mut *lock(&writer), &beat).is_err() {
                        return;
                    }
                }
            })
            .expect("spawning the worker heartbeat thread")
    };

    let pool = ppa_pool::ThreadPool::new(opts.jobs.max(1));
    let mut received = 0usize;
    let mut died = false;
    pool.scope(|s| {
        loop {
            match proto::read_msg(&mut reader) {
                Ok(Msg::Lease {
                    seq,
                    attempt,
                    trace_id,
                    dispatch_us: _,
                    tag,
                    payload,
                }) => {
                    let recv_us = ppa_obs::span::now_us();
                    received += 1;
                    ppa_obs::debug!("grid.worker", "lease seq={seq} attempt={attempt} tag={tag}");
                    if opts.die_after.is_some_and(|n| received > n) {
                        // Crash injection: vanish mid-lease, no result,
                        // no goodbye — the coordinator must recover.
                        died = true;
                        let _ = stream.shutdown(Shutdown::Both);
                        break;
                    }
                    inflight.fetch_add(1, Ordering::SeqCst);
                    let writer = Arc::clone(&writer);
                    let exec = Arc::clone(&exec);
                    let executed = Arc::clone(&executed);
                    let inflight = Arc::clone(&inflight);
                    s.spawn(move || {
                        let t0 = Instant::now();
                        let start_us = ppa_obs::span::now_us();
                        let result =
                            catch_unwind(AssertUnwindSafe(|| exec.execute(&tag, &payload)))
                                .unwrap_or_else(|payload| {
                                    let msg = ppa_pool::panic_message(payload.as_ref());
                                    Err(format!("unit panicked: {msg}"))
                                });
                        let done_us = ppa_obs::span::now_us();
                        let msg = match result {
                            Ok(bytes) => {
                                executed.fetch_add(1, Ordering::SeqCst);
                                ppa_obs::registry::counter("grid.worker.units.executed").inc();
                                // One fragment per traced execution,
                                // built here rather than harvested from
                                // the process sink: loopback workers
                                // share the coordinator's sink, and
                                // harvesting would double-count.
                                // `pid` 0 is a placeholder the
                                // coordinator replaces with this
                                // worker's lane.
                                let spans = if trace_id != 0 {
                                    vec![proto::SpanFrag {
                                        name: tag.clone(),
                                        pid: 0,
                                        tid: ppa_obs::span::trace_tid(),
                                        start_us,
                                        end_us: done_us,
                                    }]
                                } else {
                                    Vec::new()
                                };
                                Msg::UnitResult {
                                    seq,
                                    attempt,
                                    elapsed_ns: t0.elapsed().as_nanos() as u64,
                                    recv_us,
                                    done_us,
                                    spans,
                                    payload: bytes,
                                }
                            }
                            Err(message) => {
                                ppa_obs::registry::counter("grid.worker.units.failed").inc();
                                ppa_obs::warn!(
                                    "grid.worker",
                                    "unit seq={seq} attempt={attempt} failed: {message}"
                                );
                                Msg::UnitError {
                                    seq,
                                    attempt,
                                    message,
                                }
                            }
                        };
                        inflight.fetch_sub(1, Ordering::SeqCst);
                        let _ = proto::write_msg(&mut *lock(&writer), &msg);
                    });
                }
                Ok(Msg::Shutdown) => break,
                Ok(_) => {}      // tolerate unexpected-but-valid frames
                Err(_) => break, // disconnect or protocol violation
            }
        }
    });
    drop(stop);
    let _ = heartbeat_thread.join();
    let _ = stream.shutdown(Shutdown::Both);
    Ok(WorkerReport {
        executed: executed.load(Ordering::SeqCst) as usize,
        died,
    })
}
