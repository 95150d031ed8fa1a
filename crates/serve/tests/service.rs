//! End-to-end service tests: an in-process daemon round trip with
//! cache hits, two concurrent clients, a panicking unit next to a
//! concurrent client, and the crash-injection test —
//! SIGKILL the daemon process mid-queue, restart it on the same port
//! and checkpoint, and require the client to receive byte-identical,
//! submission-ordered results with the pre-crash prefix served from
//! the restored cache.

use ppa_serve::{Daemon, DaemonOptions, ServeClient};

use ppa_grid::{run_worker, Executor, UnitRunner, UnitSpec, WorkerOptions};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::thread;
use std::time::{Duration, Instant};

/// The deterministic unit transform the test workers apply: the tag,
/// a NUL, the payload, and an FNV-64 of all three. Any divergence
/// between a cached and a recomputed result is visible in the bytes.
fn transform(tag: &str, payload: &[u8]) -> Vec<u8> {
    let mut out = Vec::with_capacity(tag.len() + 1 + payload.len() + 8);
    out.extend_from_slice(tag.as_bytes());
    out.push(0);
    out.extend_from_slice(payload);
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for &b in &out {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    out.extend_from_slice(&h.to_le_bytes());
    out
}

/// Test executor: deterministic output, configurable per-unit latency
/// (so a kill lands mid-queue), and an error vocabulary.
struct SlowEcho(Duration);

impl Executor for SlowEcho {
    fn execute(&self, tag: &str, payload: &[u8]) -> Result<Vec<u8>, String> {
        if !self.0.is_zero() {
            thread::sleep(self.0);
        }
        if tag.starts_with("t.fail:") {
            return Err(format!("unit '{tag}' always fails"));
        }
        if tag.starts_with("t.panic:") {
            panic!("unit '{tag}' always panics");
        }
        Ok(transform(tag, payload))
    }
}

fn units(n: usize) -> Vec<UnitSpec> {
    (0..n)
        .map(|i| UnitSpec {
            tag: format!("t.unit:{i}"),
            payload: vec![i as u8; 16],
        })
        .collect()
}

/// Keeps one worker attached to `addr` until `done`, reconnecting
/// across daemon restarts.
fn worker_loop(addr: String, delay: Duration, done: Arc<AtomicBool>) -> thread::JoinHandle<()> {
    thread::spawn(move || {
        while !done.load(Ordering::SeqCst) {
            let _ = run_worker(
                addr.as_str(),
                WorkerOptions {
                    jobs: 2,
                    ..WorkerOptions::default()
                },
                Arc::new(SlowEcho(delay)),
            );
            thread::sleep(Duration::from_millis(100));
        }
    })
}

#[test]
fn daemon_serves_results_and_second_submission_hits_the_cache() {
    let daemon = Arc::new(Daemon::start(DaemonOptions::default()).expect("daemon starts"));
    let addr = daemon.local_addr().to_string();
    let run_thread = {
        let d = Arc::clone(&daemon);
        thread::spawn(move || d.run())
    };
    let done = Arc::new(AtomicBool::new(false));
    let worker = worker_loop(addr.clone(), Duration::ZERO, Arc::clone(&done));

    let client = ServeClient::connect(&addr).expect("client connects");
    let batch = units(6);
    let first = client.run_units(batch.clone());
    assert_eq!(first.len(), batch.len());
    for (u, res) in batch.iter().zip(&first) {
        let outcome = res.as_ref().expect("unit succeeds");
        assert_eq!(outcome.payload, transform(&u.tag, &u.payload), "{}", u.tag);
    }
    let s1 = client.stats().expect("stats");
    assert!(s1.misses >= batch.len() as u64, "all first-pass units miss");
    assert_eq!(s1.entries, batch.len() as u64);

    // Second submission of the same units: byte-identical, all hits.
    let second = client.run_units(batch.clone());
    for (a, b) in first.iter().zip(&second) {
        assert_eq!(
            a.as_ref().unwrap().payload,
            b.as_ref().unwrap().payload,
            "cache hit must be byte-identical to the fresh result"
        );
    }
    let s2 = client.stats().expect("stats");
    assert!(
        s2.hits >= s1.hits + batch.len() as u64,
        "second pass is served from the cache (hits {} -> {})",
        s1.hits,
        s2.hits
    );

    // A failing unit surfaces as an error naming the unit, and does
    // not poison the cache.
    let mixed = vec![
        UnitSpec {
            tag: "t.unit:0".into(),
            payload: vec![0u8; 16],
        },
        UnitSpec {
            tag: "t.fail:0".into(),
            payload: Vec::new(),
        },
    ];
    let res = client.run_units(mixed);
    assert!(res[0].is_ok());
    let err = res[1].as_ref().expect_err("failing unit reports an error");
    assert!(err.to_string().contains("t.fail:0"), "{err}");

    client.stop().expect("stop");
    run_thread.join().unwrap();
    done.store(true, Ordering::SeqCst);
    worker.join().unwrap();
}

#[test]
fn concurrent_clients_share_the_daemon_and_its_cache() {
    let daemon = Arc::new(Daemon::start(DaemonOptions::default()).expect("daemon starts"));
    let addr = daemon.local_addr().to_string();
    let run_thread = {
        let d = Arc::clone(&daemon);
        thread::spawn(move || d.run())
    };
    let done = Arc::new(AtomicBool::new(false));
    let worker = worker_loop(addr.clone(), Duration::from_millis(1), Arc::clone(&done));

    // Two clients submit the same batch concurrently; both must see
    // the same bytes regardless of which one's units computed first.
    let batch = units(12);
    let mut handles = Vec::new();
    for _ in 0..2 {
        let addr = addr.clone();
        let batch = batch.clone();
        handles.push(thread::spawn(move || {
            let client = ServeClient::connect(&addr).expect("client connects");
            client.run_units(batch)
        }));
    }
    let outputs: Vec<_> = handles.into_iter().map(|h| h.join().unwrap()).collect();
    for results in &outputs {
        for (u, res) in batch.iter().zip(results) {
            assert_eq!(
                res.as_ref().expect("unit succeeds").payload,
                transform(&u.tag, &u.payload)
            );
        }
    }

    let client = ServeClient::connect(&addr).expect("client connects");
    let stats = client.stats().expect("stats");
    assert_eq!(
        stats.entries,
        batch.len() as u64,
        "shared cache, one entry per unit"
    );
    client.stop().expect("stop");
    run_thread.join().unwrap();
    done.store(true, Ordering::SeqCst);
    worker.join().unwrap();
}

#[test]
fn a_panicking_unit_yields_one_error_row_and_spares_a_concurrent_client() {
    let daemon = Arc::new(Daemon::start(DaemonOptions::default()).expect("daemon starts"));
    let addr = daemon.local_addr().to_string();
    let run_thread = {
        let d = Arc::clone(&daemon);
        thread::spawn(move || d.run())
    };
    let done = Arc::new(AtomicBool::new(false));
    let worker = worker_loop(addr.clone(), Duration::from_millis(1), Arc::clone(&done));

    // Client A's batch has one panicking unit in the middle; client B
    // submits a clean batch at the same time.
    let mut mixed = units(8);
    mixed[3] = UnitSpec {
        tag: "t.panic:3".into(),
        payload: vec![3],
    };
    let clean: Vec<UnitSpec> = (0..10)
        .map(|i| UnitSpec {
            tag: format!("t.other:{i}"),
            payload: vec![i as u8; 5],
        })
        .collect();
    let submit = |batch: Vec<UnitSpec>| {
        let addr = addr.clone();
        thread::spawn(move || {
            ServeClient::connect(&addr)
                .expect("client connects")
                .run_units(batch)
        })
    };
    let a = submit(mixed.clone());
    let b = submit(clean.clone());
    let (a, b) = (a.join().unwrap(), b.join().unwrap());

    assert_eq!(a.len(), mixed.len());
    for (i, (u, res)) in mixed.iter().zip(&a).enumerate() {
        if i == 3 {
            let err = res
                .as_ref()
                .expect_err("the panicking unit reports an error");
            let text = err.to_string();
            assert!(
                text.contains("t.panic:3"),
                "error row names the unit: {text}"
            );
            assert!(text.contains("panicked"), "{text}");
        } else {
            let out = res.as_ref().expect("every other unit succeeds");
            assert_eq!(out.payload, transform(&u.tag, &u.payload), "{}", u.tag);
        }
    }
    let local: Vec<Vec<u8>> = clean
        .iter()
        .map(|u| {
            SlowEcho(Duration::ZERO)
                .execute(&u.tag, &u.payload)
                .unwrap()
        })
        .collect();
    let remote: Vec<Vec<u8>> = b
        .into_iter()
        .map(|r| r.expect("the concurrent client's units succeed").payload)
        .collect();
    assert_eq!(remote, local, "the concurrent client matches a local run");

    ServeClient::connect(&addr)
        .expect("client connects")
        .stop()
        .expect("stop");
    run_thread.join().unwrap();
    done.store(true, Ordering::SeqCst);
    worker.join().unwrap();
}

/// Reserves a port by binding to 0 and releasing it: the daemon must
/// come back on the *same* address for the client's reconnect loop.
fn reserve_port() -> u16 {
    std::net::TcpListener::bind("127.0.0.1:0")
        .expect("bind")
        .local_addr()
        .unwrap()
        .port()
}

fn spawn_daemon(addr: &str, checkpoint: &std::path::Path) -> std::process::Child {
    std::process::Command::new(env!("CARGO_BIN_EXE_ppa-serve"))
        .args([
            "daemon",
            "--listen",
            addr,
            "--checkpoint",
            checkpoint.to_str().unwrap(),
            "--checkpoint-interval",
            "1",
            "-q",
        ])
        .spawn()
        .expect("spawn ppa-serve daemon")
}

#[test]
fn killing_the_daemon_mid_queue_preserves_order_and_bytes() {
    let addr = format!("127.0.0.1:{}", reserve_port());
    let checkpoint =
        std::env::temp_dir().join(format!("ppa_serve_crash_{}.ppsc", std::process::id()));
    let _ = std::fs::remove_file(&checkpoint);

    let mut child = spawn_daemon(&addr, &checkpoint);
    let done = Arc::new(AtomicBool::new(false));
    // 50ms per unit over 2 job slots: 120 units take ~3s, so both the
    // 1s checkpoint cadence and the kill land mid-queue.
    let worker = worker_loop(addr.clone(), Duration::from_millis(50), Arc::clone(&done));

    let batch = units(120);
    let expected: Vec<Vec<u8>> = batch
        .iter()
        .map(|u| transform(&u.tag, &u.payload))
        .collect();
    let client_thread = {
        let addr = addr.clone();
        let batch = batch.clone();
        thread::spawn(move || {
            let mut client = ServeClient::with_addr(&addr);
            client.set_reconnect_window(Duration::from_secs(60));
            client.run_units(batch)
        })
    };

    // Wait until the daemon has computed a decent prefix *and* a
    // cadence tick has made part of it durable, then kill it cold.
    let probe = ServeClient::with_addr(&addr);
    let t0 = Instant::now();
    loop {
        assert!(
            t0.elapsed() < Duration::from_secs(30),
            "daemon never made progress"
        );
        if let Ok(s) = probe.stats() {
            if s.entries >= 20 {
                break;
            }
        }
        thread::sleep(Duration::from_millis(50));
    }
    thread::sleep(Duration::from_millis(1200)); // one full checkpoint cadence
    assert!(
        !client_thread.is_finished(),
        "the batch completed before the kill; the crash did not land mid-queue"
    );
    child.kill().expect("SIGKILL the daemon");
    let _ = child.wait();

    // Restart on the same address and checkpoint. The restored cache
    // must complete every pre-crash cell instantly; the remainder is
    // recomputed by the (reconnecting) worker.
    let mut child2 = spawn_daemon(&addr, &checkpoint);

    let results = client_thread.join().unwrap();
    assert_eq!(results.len(), batch.len());
    for (i, (res, exp)) in results.iter().zip(&expected).enumerate() {
        let outcome = res.as_ref().unwrap_or_else(|e| {
            panic!("unit {i} failed across the restart: {e}");
        });
        assert_eq!(
            &outcome.payload, exp,
            "unit {i} must be byte-identical across the restart"
        );
    }

    let stats = probe.stats().expect("restarted daemon answers");
    assert!(
        stats.hits > 0,
        "the restored cache must have served the pre-crash prefix"
    );
    assert_eq!(stats.entries, batch.len() as u64);

    probe.stop().expect("stop the restarted daemon");
    let _ = child2.wait();
    done.store(true, Ordering::SeqCst);
    worker.join().unwrap();
    let _ = std::fs::remove_file(&checkpoint);
}
