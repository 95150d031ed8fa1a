//! The `ppa-serve` client: what `repro --grid serve:HOST:PORT`,
//! `ppa-verify oracle --grid serve:...`, and `ppa-litmus run --grid
//! serve:...` actually talk through.
//!
//! [`ServeClient`] implements [`UnitRunner`], so front-ends use it
//! exactly like a local coordinator: submit a batch, receive outcomes
//! in submission order. Under the hood each batch becomes a
//! `Submit` and the daemon streams `Result` frames back in index
//! order. The client is resilient to the daemon restarting mid-batch:
//! on a broken connection it reconnects and sends `Subscribe` from the
//! first index it has not received; if the restarted daemon no longer
//! knows the submission it answers `RESULT_NO_SUCH_SUBMISSION` and the
//! client re-`Submit`s only the remaining units under a fresh id — the
//! daemon's cache makes already-computed cells complete instantly, so
//! the stitched result stream stays byte-identical and
//! submission-ordered.

use ppa_grid::coord::{UnitRunner, DEFAULT_PRIORITY};
use ppa_grid::proto::{self, Msg, QUERY_STATS, QUERY_STOP, RESULT_NO_SUCH_SUBMISSION};
use ppa_grid::{GridError, UnitOutcome, UnitSpec};
use std::net::TcpStream;
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::{Duration, Instant};

/// A daemon's service-level counters, as answered to `Query(STATS)`.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct ServeStats {
    pub hits: u64,
    pub misses: u64,
    pub entries: u64,
    pub evictions: u64,
    pub queue_depth: u64,
    pub inflight: u64,
    pub clients: u64,
    pub submissions: u64,
    pub workers: u64,
    /// One `(wid, inflight, executed)` triple per connected worker.
    pub worker_detail: Vec<(u64, u64, u64)>,
}

/// A connected client of a `ppa-serve` daemon.
pub struct ServeClient {
    addr: String,
    client_id: u64,
    priority: u8,
    next_submission: AtomicU64,
    /// How long to keep retrying an unreachable daemon before giving
    /// up on the remaining units.
    reconnect_window: Duration,
}

fn dial(addr: &str) -> std::io::Result<TcpStream> {
    let stream = TcpStream::connect(addr)?;
    stream.set_nodelay(true)?;
    Ok(stream)
}

impl ServeClient {
    /// Connects to a daemon at `addr` (`HOST:PORT`), verifying it
    /// answers a stats query.
    pub fn connect(addr: &str) -> Result<ServeClient, String> {
        let client = ServeClient::with_addr(addr);
        client
            .stats()
            .map_err(|e| format!("no ppa-serve daemon at {addr}: {e}"))?;
        Ok(client)
    }

    /// Builds a client without probing the daemon (it may not be up
    /// yet); the first submission will retry within the reconnect
    /// window.
    pub fn with_addr(addr: &str) -> ServeClient {
        // Client ids only need to be unique among concurrently
        // connected clients; wall-clock + pid entropy is plenty and
        // keeps the wire deterministic per session.
        let nanos = std::time::SystemTime::now()
            .duration_since(std::time::UNIX_EPOCH)
            .map(|d| d.subsec_nanos() as u64 ^ d.as_secs())
            .unwrap_or(0);
        let client_id = (u64::from(std::process::id())) << 32 | (nanos & 0xffff_ffff);
        ServeClient {
            addr: addr.to_string(),
            client_id,
            priority: DEFAULT_PRIORITY,
            next_submission: AtomicU64::new(1),
            reconnect_window: Duration::from_secs(600),
        }
    }

    /// Overrides the submission priority (higher is sooner).
    pub fn set_priority(&mut self, priority: u8) {
        self.priority = priority;
    }

    /// Shrinks/extends how long a broken daemon is retried (tests).
    pub fn set_reconnect_window(&mut self, window: Duration) {
        self.reconnect_window = window;
    }

    pub fn addr(&self) -> &str {
        &self.addr
    }

    /// Queries the daemon's service counters.
    pub fn stats(&self) -> Result<ServeStats, String> {
        let mut stream = dial(&self.addr).map_err(|e| e.to_string())?;
        proto::write_msg(&mut stream, &Msg::Query { what: QUERY_STATS })
            .map_err(|e| e.to_string())?;
        match proto::read_msg(&mut stream) {
            Ok(Msg::CacheStats {
                hits,
                misses,
                entries,
                evictions,
                queue_depth,
                inflight,
                clients,
                submissions,
                workers,
                worker_detail,
            }) => Ok(ServeStats {
                hits,
                misses,
                entries,
                evictions,
                queue_depth,
                inflight,
                clients,
                submissions,
                workers,
                worker_detail,
            }),
            Ok(other) => Err(format!("unexpected reply to stats query: {other:?}")),
            Err(e) => Err(e.to_string()),
        }
    }

    /// Asks the daemon to checkpoint and exit; returns its final
    /// counters.
    pub fn stop(&self) -> Result<ServeStats, String> {
        let mut stream = dial(&self.addr).map_err(|e| e.to_string())?;
        proto::write_msg(&mut stream, &Msg::Query { what: QUERY_STOP })
            .map_err(|e| e.to_string())?;
        match proto::read_msg(&mut stream) {
            Ok(Msg::CacheStats {
                hits,
                misses,
                entries,
                evictions,
                queue_depth,
                inflight,
                clients,
                submissions,
                workers,
                worker_detail,
            }) => Ok(ServeStats {
                hits,
                misses,
                entries,
                evictions,
                queue_depth,
                inflight,
                clients,
                submissions,
                workers,
                worker_detail,
            }),
            Ok(other) => Err(format!("unexpected reply to stop query: {other:?}")),
            Err(e) => Err(e.to_string()),
        }
    }
}

impl UnitRunner for ServeClient {
    fn run_units(&self, units: Vec<UnitSpec>) -> Vec<Result<UnitOutcome, GridError>> {
        let n = units.len();
        if n == 0 {
            return Vec::new();
        }
        let mut results: Vec<Result<UnitOutcome, GridError>> = Vec::with_capacity(n);
        // `base` is the results index the current submission's index 0
        // maps to: after a NO_SUCH_SUBMISSION recovery only the
        // remaining units are re-submitted, so daemon indices restart
        // at 0 while ours continue from `base`.
        let mut base = 0usize;
        let mut submission = self.next_submission.fetch_add(1, Ordering::Relaxed);
        let mut need_submit = true;
        let deadline = Instant::now() + self.reconnect_window;
        let mut backoff = Duration::from_millis(50);

        'outer: while results.len() < n {
            if Instant::now() > deadline {
                // The daemon never came back: fail the remaining slots.
                while results.len() < n {
                    results.push(Err(GridError::Aborted));
                }
                break;
            }
            let mut stream = match dial(&self.addr) {
                Ok(s) => s,
                Err(_) => {
                    std::thread::sleep(backoff);
                    backoff = (backoff * 2).min(Duration::from_millis(500));
                    continue;
                }
            };
            backoff = Duration::from_millis(50);
            let request = if need_submit {
                Msg::Submit {
                    client: self.client_id,
                    submission,
                    trace_id: if ppa_obs::span::trace_armed() {
                        ppa_obs::span::trace_id()
                    } else {
                        0
                    },
                    priority: self.priority,
                    units: units[base..]
                        .iter()
                        .map(|u| (u.tag.clone(), u.payload.clone()))
                        .collect(),
                }
            } else {
                Msg::Subscribe {
                    client: self.client_id,
                    submission,
                    from_index: (results.len() - base) as u32,
                }
            };
            if proto::write_msg(&mut stream, &request).is_err() {
                std::thread::sleep(backoff);
                continue;
            }
            need_submit = false;

            while results.len() < n {
                match proto::read_msg(&mut stream) {
                    Ok(Msg::Result {
                        submission: s,
                        index,
                        ok,
                        cached,
                        attempts,
                        elapsed_ns,
                        clock_us,
                        spans,
                        payload,
                    }) => {
                        if index == RESULT_NO_SUCH_SUBMISSION {
                            // The daemon restarted without our
                            // submission: re-submit the remainder
                            // under a fresh id.
                            base = results.len();
                            submission = self.next_submission.fetch_add(1, Ordering::Relaxed);
                            need_submit = true;
                            continue 'outer;
                        }
                        let expected = (results.len() - base) as u32;
                        if s != submission || index != expected {
                            // Out-of-order or stale stream: resync.
                            std::thread::sleep(backoff);
                            continue 'outer;
                        }
                        if cached {
                            ppa_obs::registry::counter("serve.client.results.cached").inc();
                        } else {
                            ppa_obs::registry::counter("serve.client.results.fresh").inc();
                        }
                        // Shift daemon-clock fragments onto our clock
                        // using the frame's send-time sample (the
                        // transit bias is one network hop, far below
                        // the span durations drawn on the timeline).
                        let offset = ppa_obs::span::now_us() as i64 - clock_us as i64;
                        let spans: Vec<_> = spans
                            .into_iter()
                            .map(|mut sp| {
                                sp.start_us = sp.start_us.saturating_add_signed(offset);
                                sp.end_us =
                                    sp.end_us.saturating_add_signed(offset).max(sp.start_us);
                                sp
                            })
                            .collect();
                        if ppa_obs::span::trace_armed() {
                            for sp in &spans {
                                ppa_obs::span::record_remote(
                                    &sp.name,
                                    sp.pid,
                                    sp.tid,
                                    sp.start_us,
                                    sp.end_us,
                                );
                            }
                        }
                        results.push(if ok {
                            Ok(UnitOutcome {
                                payload,
                                elapsed_ns,
                                attempts,
                                spans,
                            })
                        } else {
                            Err(GridError::UnitFailed {
                                tag: units[results.len()].tag.clone(),
                                attempts,
                                message: String::from_utf8_lossy(&payload).into_owned(),
                            })
                        });
                    }
                    Ok(_) | Err(_) => {
                        // Daemon died or misbehaved mid-stream:
                        // reconnect and subscribe from where we are.
                        std::thread::sleep(backoff);
                        continue 'outer;
                    }
                }
            }
        }
        results
    }
}
