//! End-to-end tests of the coordinator/worker stack over loopback TCP:
//! ordering, mid-lease worker death, retry exhaustion, executor panics,
//! and lease-timeout re-dispatch.

use ppa_grid::coord::{GridConfig, GridError, UnitSpec};
use ppa_grid::loopback;
use ppa_grid::worker::{Executor, WorkerOptions};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;
use std::time::Duration;

/// Echoes the payload back with the tag prepended.
struct EchoExecutor;

impl Executor for EchoExecutor {
    fn execute(&self, tag: &str, payload: &[u8]) -> Result<Vec<u8>, String> {
        let mut out = tag.as_bytes().to_vec();
        out.push(b'=');
        out.extend_from_slice(payload);
        Ok(out)
    }
}

fn units(n: usize) -> Vec<UnitSpec> {
    (0..n)
        .map(|i| UnitSpec {
            tag: format!("echo:{i}"),
            payload: vec![i as u8; i % 7],
        })
        .collect()
}

#[test]
fn results_come_back_in_submission_order() {
    let lb = loopback::start_uniform(3, 2, Arc::new(EchoExecutor), GridConfig::default())
        .expect("loopback grid starts");
    let batch = units(40);
    let results = lb.run_units(batch.clone());
    assert_eq!(results.len(), batch.len());
    for (unit, res) in batch.iter().zip(results) {
        let outcome = res.expect("echo units succeed");
        let mut expected = unit.tag.as_bytes().to_vec();
        expected.push(b'=');
        expected.extend_from_slice(&unit.payload);
        assert_eq!(outcome.payload, expected, "unit {} out of order", unit.tag);
    }
    let reports = lb.shutdown();
    assert_eq!(reports.len(), 3);
    assert_eq!(reports.iter().map(|r| r.executed).sum::<usize>(), 40);
}

/// [`EchoExecutor`] with a short per-unit delay, so one single-slot
/// worker cannot drain a batch before the other takes its share.
struct PacedEchoExecutor;

impl Executor for PacedEchoExecutor {
    fn execute(&self, tag: &str, payload: &[u8]) -> Result<Vec<u8>, String> {
        std::thread::sleep(Duration::from_millis(5));
        EchoExecutor.execute(tag, payload)
    }
}

#[test]
fn a_worker_dying_mid_lease_is_survivable() {
    // Worker 0 drops its socket after two units; its outstanding leases
    // must be re-dispatched to the survivor and every unit still
    // completes with the right payload.
    let opts = vec![
        WorkerOptions {
            die_after: Some(2),
            ..WorkerOptions::default()
        },
        WorkerOptions::default(),
    ];
    let lb = loopback::start(opts, Arc::new(PacedEchoExecutor), GridConfig::default())
        .expect("loopback grid starts");
    let batch = units(12);
    let results = lb.run_units(batch.clone());
    for (unit, res) in batch.iter().zip(results) {
        let outcome = res.expect("all units complete despite the death");
        assert!(outcome.payload.starts_with(unit.tag.as_bytes()));
    }
    let stats = lb.coordinator().stats();
    assert!(stats.workers_lost >= 1, "stats: {stats:?}");
    assert!(stats.redispatched >= 1, "stats: {stats:?}");
    let reports = lb.shutdown();
    assert!(reports.iter().any(|r| r.died), "no worker reported dying");
}

/// Fails units whose tag starts with "bad:".
struct FlakyExecutor;

impl Executor for FlakyExecutor {
    fn execute(&self, tag: &str, payload: &[u8]) -> Result<Vec<u8>, String> {
        if tag.starts_with("bad:") {
            Err(format!("no such cell: {tag}"))
        } else {
            Ok(payload.to_vec())
        }
    }
}

#[test]
fn exhausted_retries_name_the_failing_unit() {
    let cfg = GridConfig {
        max_attempts: 3,
        retry_backoff: Duration::from_millis(5),
        ..GridConfig::default()
    };
    let lb =
        loopback::start_uniform(2, 1, Arc::new(FlakyExecutor), cfg).expect("loopback grid starts");
    let batch = vec![
        UnitSpec {
            tag: "good:1".into(),
            payload: vec![1],
        },
        UnitSpec {
            tag: "bad:fig8/gcc".into(),
            payload: vec![2],
        },
        UnitSpec {
            tag: "good:2".into(),
            payload: vec![3],
        },
    ];
    let results = lb.run_units(batch);
    assert!(results[0].is_ok() && results[2].is_ok());
    match &results[1] {
        Err(GridError::UnitFailed {
            tag,
            attempts,
            message,
        }) => {
            assert_eq!(tag, "bad:fig8/gcc");
            assert_eq!(*attempts, 3);
            assert!(message.contains("no such cell"), "message: {message}");
        }
        other => panic!("expected UnitFailed, got {other:?}"),
    }
    let stats = lb.coordinator().stats();
    assert_eq!(stats.unit_errors, 3, "one error per attempt: {stats:?}");
}

/// Panics on every unit; the worker must convert the panic into a
/// UnitError instead of crashing its pool.
struct PanickyExecutor;

impl Executor for PanickyExecutor {
    fn execute(&self, tag: &str, _payload: &[u8]) -> Result<Vec<u8>, String> {
        panic!("boom in {tag}");
    }
}

#[test]
fn executor_panics_surface_as_unit_errors() {
    let cfg = GridConfig {
        max_attempts: 2,
        retry_backoff: Duration::from_millis(5),
        ..GridConfig::default()
    };
    let lb = loopback::start_uniform(1, 2, Arc::new(PanickyExecutor), cfg)
        .expect("loopback grid starts");
    let results = lb.run_units(vec![UnitSpec {
        tag: "explode".into(),
        payload: vec![],
    }]);
    match &results[0] {
        Err(GridError::UnitFailed { message, .. }) => {
            assert!(message.contains("panicked"), "message: {message}");
        }
        other => panic!("expected UnitFailed, got {other:?}"),
    }
    // The worker survives its own panics: a follow-up batch on the same
    // connection still errors cleanly rather than hanging.
    let again = lb.run_units(vec![UnitSpec {
        tag: "explode-again".into(),
        payload: vec![],
    }]);
    assert!(again[0].is_err());
    lb.shutdown();
}

/// Sleeps long on the first call per unit tag, then answers instantly.
struct SlowOnceExecutor {
    calls: AtomicUsize,
}

impl Executor for SlowOnceExecutor {
    fn execute(&self, _tag: &str, payload: &[u8]) -> Result<Vec<u8>, String> {
        if self.calls.fetch_add(1, Ordering::SeqCst) == 0 {
            std::thread::sleep(Duration::from_millis(900));
        }
        Ok(payload.to_vec())
    }
}

#[test]
fn expired_leases_are_redispatched_and_duplicates_suppressed() {
    let cfg = GridConfig {
        lease_timeout: Duration::from_millis(150),
        retry_backoff: Duration::from_millis(5),
        ..GridConfig::default()
    };
    let exec = Arc::new(SlowOnceExecutor {
        calls: AtomicUsize::new(0),
    });
    let lb = loopback::start_uniform(2, 1, Arc::clone(&exec) as Arc<dyn Executor>, cfg)
        .expect("loopback grid starts");
    let results = lb.run_units(vec![UnitSpec {
        tag: "slow".into(),
        payload: vec![42],
    }]);
    let outcome = results[0].as_ref().expect("the re-dispatched copy wins");
    assert_eq!(outcome.payload, vec![42]);
    assert!(outcome.attempts >= 2, "lease should have expired once");
    let stats = lb.coordinator().stats();
    assert!(stats.redispatched >= 1, "stats: {stats:?}");
    // Give the slow first execution time to land its late result, then
    // confirm it was counted as a duplicate, not delivered twice.
    std::thread::sleep(Duration::from_millis(1_200));
    let stats = lb.coordinator().stats();
    assert!(stats.duplicates >= 1, "stats: {stats:?}");
    assert_eq!(stats.completed, 1, "stats: {stats:?}");
    lb.shutdown();
}

/// The coordinator instruments its dispatch loop with `grid.coord.*`
/// metrics. Because the `ppa-obs` registry is process-global (and these
/// tests run concurrently), assert on the diff since a pre-run
/// snapshot with `>=` bounds rather than exact counts.
#[test]
fn loopback_run_populates_coordinator_metrics() {
    let before = ppa_obs::snapshot();
    let lb = loopback::start_uniform(2, 1, Arc::new(EchoExecutor), GridConfig::default())
        .expect("loopback grid starts");
    let batch = units(12);
    let results = lb.run_units(batch);
    assert!(results.iter().all(Result::is_ok));
    lb.shutdown();

    let delta = ppa_obs::snapshot().diff(&before);
    let counter = |name: &str| match delta.get(name) {
        Some(ppa_obs::registry::Value::Counter(v)) => *v,
        other => panic!("{name} missing or wrong kind: {other:?}"),
    };
    assert!(counter("grid.coord.units.dispatched") >= 12);
    assert!(counter("grid.coord.units.completed") >= 12);
    assert!(counter("grid.coord.worker.joined") >= 2);
    assert!(counter("grid.worker.units.executed") >= 12);
    let Some(ppa_obs::registry::Value::Summary(elapsed)) = delta.get("grid.coord.unit.elapsed_ns")
    else {
        panic!("unit latency summary missing");
    };
    assert!(elapsed.count() >= 12, "got {}", elapsed.count());
}
