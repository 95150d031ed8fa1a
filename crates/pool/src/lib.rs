//! `ppa-pool` — the in-tree thread pool behind the PPA harnesses'
//! parallel fan-out.
//!
//! The simulator itself is single-threaded by design; the natural
//! parallel axis is *across* independent [`Machine`]s — per-app fan-out
//! in `repro` and `ppa-verify`, the crash oracle's (app × failure
//! point) grid, and one job per lease in the grid worker. Those jobs are
//! coarse (milliseconds to seconds each), so one mutex-guarded queue and
//! one condvar are all the scheduling they need: an idle worker takes the
//! oldest job, and a thread waiting for a result takes the newest, which
//! is usually its own nested job. Per the offline dependency policy (see
//! ROADMAP.md) no external crates — `rayon` included — are available, so
//! the executor is built from `std` alone, like `ppa-prng` before it.
//!
//! Three properties the consumers rely on:
//!
//! - **Order-preserving results.** [`ThreadPool::par_map`] and
//!   [`par_map_ordered`] return results in input order regardless of
//!   completion order, so harness output is byte-identical at any worker
//!   count (the simulations themselves are deterministic).
//! - **Panic isolation.** A panicking job is caught and surfaced as
//!   `Err(JobError::Panicked(_))` for that job only; the worker survives
//!   and the pool stays usable.
//! - **Deadlock-free nesting.** A job may fan out again into the same
//!   pool (`repro all` parallelises across experiments *and* across apps
//!   within each experiment). Waiting — scope exit or
//!   [`JobHandle::join`] — *helps*: the waiting thread executes queued
//!   jobs until its condition holds, so even a one-worker pool drains
//!   nested scopes.
//!
//! The shared pool is sized by the `PPA_JOBS` environment variable
//! (absent or `1` = serial, `0` = auto-detect cores, `N` = N workers) or
//! a [`set_jobs`] override (e.g. a `--jobs` CLI flag). Every pool adds to
//! one process-wide set of counters — jobs run, panics, idle time — which
//! [`export_metrics`] mirrors into the `ppa-obs` registry as `pool.*`.
//!
//! [`Machine`]: ../ppa_sim/struct.Machine.html
//!
//! # Examples
//!
//! ```
//! use ppa_pool::ThreadPool;
//!
//! let pool = ThreadPool::new(4);
//! let squares = pool.par_map(0..100u64, |i| i * i);
//! assert_eq!(squares[7], Ok(49));
//!
//! // Scoped spawns may borrow from the enclosing frame.
//! let data = vec![1u64, 2, 3];
//! let sum = pool.scope(|s| {
//!     let h = s.spawn(|| data.iter().sum::<u64>());
//!     h.join().unwrap()
//! });
//! assert_eq!(sum, 6);
//! ```

use std::any::Any;
use std::collections::VecDeque;
use std::marker::PhantomData;
use std::panic::{catch_unwind, resume_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Condvar, Mutex, MutexGuard, OnceLock, PoisonError, Weak};
use std::time::Instant;

/// Why a job did not produce a value.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum JobError {
    /// The job's closure panicked; the payload, rendered as text. The
    /// panic is confined to the job — the worker and pool stay usable.
    Panicked(String),
}

impl std::fmt::Display for JobError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            JobError::Panicked(msg) => write!(f, "job panicked: {msg}"),
        }
    }
}

impl std::error::Error for JobError {}

/// Renders a caught panic payload as text: the message of a `panic!`
/// with a literal or formatted string, a placeholder for anything else.
pub fn panic_message(payload: &(dyn Any + Send)) -> String {
    if let Some(s) = payload.downcast_ref::<&'static str>() {
        (*s).to_string()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "opaque panic payload".to_string()
    }
}

/// Locks `m`, ignoring poison: no code here panics while holding a lock,
/// and jobs run with none held.
fn lock<T>(m: &Mutex<T>) -> MutexGuard<'_, T> {
    m.lock().unwrap_or_else(PoisonError::into_inner)
}

// Process-wide counters every pool adds to; `export_metrics` reads them.
static WORKERS: AtomicUsize = AtomicUsize::new(0);
static JOBS_RUN: AtomicU64 = AtomicU64::new(0);
static PANICS: AtomicU64 = AtomicU64::new(0);
static IDLE_NS: AtomicU64 = AtomicU64::new(0);

type Task = Box<dyn FnOnce() + Send + 'static>;

/// What the queue mutex guards.
#[derive(Default)]
struct Queue {
    tasks: VecDeque<Task>,
    shutdown: bool,
}

/// Shared pool state: one queue and the one condvar every wait sleeps on.
///
/// No wakeup is lost. Every change that can end a wait — a push, a job's
/// completion, shutdown — is followed by `notify_all` while holding the
/// queue mutex, and every waiter checks its condition while holding that
/// mutex and keeps holding it until `wait` releases it. A change is thus
/// either seen by the check, or its notify comes after the waiter sleeps.
struct Inner {
    queue: Mutex<Queue>,
    cond: Condvar,
}

thread_local! {
    /// The pool whose job this thread is running, so nested
    /// [`par_map_ordered`] calls reuse the enclosing pool.
    static CURRENT: std::cell::RefCell<Option<Weak<Inner>>> =
        const { std::cell::RefCell::new(None) };
}

fn current_inner() -> Option<Arc<Inner>> {
    CURRENT.with(|c| c.borrow().as_ref().and_then(Weak::upgrade))
}

impl Inner {
    /// Runs `task` with nested [`par_map_ordered`] calls routed to this
    /// pool, whether a worker or a helping waiter runs it. Tasks never
    /// unwind: `Scope::spawn` catches the job's panic.
    fn run(self: &Arc<Self>, task: Task) {
        let outer = CURRENT.with(|c| c.replace(Some(Arc::downgrade(self))));
        task();
        CURRENT.with(|c| *c.borrow_mut() = outer);
    }

    /// Applies `change` under the queue mutex, then wakes every waiter.
    fn signal(&self, change: impl FnOnce(&mut Queue)) {
        let mut queue = lock(&self.queue);
        change(&mut queue);
        self.cond.notify_all();
    }

    /// Runs queued tasks, newest first, until `done` holds. This is what
    /// scope exits and [`JobHandle::join`] block on, and it is why nested
    /// fan-out cannot deadlock: a waiter is itself a worker.
    fn help_until(self: &Arc<Self>, done: impl Fn() -> bool) {
        let mut queue = lock(&self.queue);
        while !done() {
            if let Some(task) = queue.tasks.pop_back() {
                drop(queue);
                self.run(task);
                queue = lock(&self.queue);
            } else {
                queue = self
                    .cond
                    .wait(queue)
                    .unwrap_or_else(PoisonError::into_inner);
            }
        }
    }
}

/// Runs queued tasks, oldest first, until the pool shuts down.
fn worker_loop(inner: Arc<Inner>) {
    let mut queue = lock(&inner.queue);
    loop {
        if let Some(task) = queue.tasks.pop_front() {
            drop(queue);
            inner.run(task);
            queue = lock(&inner.queue);
        } else if queue.shutdown {
            return;
        } else {
            let t0 = Instant::now();
            queue = inner
                .cond
                .wait(queue)
                .unwrap_or_else(PoisonError::into_inner);
            IDLE_NS.fetch_add(t0.elapsed().as_nanos() as u64, Ordering::Relaxed);
        }
    }
}

/// A fixed-size thread pool. See the crate docs for the scheduling
/// discipline and the determinism/panic/nesting contract.
pub struct ThreadPool {
    inner: Arc<Inner>,
    threads: Vec<std::thread::JoinHandle<()>>,
}

impl std::fmt::Debug for ThreadPool {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ThreadPool")
            .field("workers", &self.threads.len())
            .finish()
    }
}

impl ThreadPool {
    /// Creates a pool with `workers` threads; `0` auto-detects the core
    /// count.
    pub fn new(workers: usize) -> Self {
        let workers = if workers == 0 {
            auto_parallelism()
        } else {
            workers
        };
        let inner = Arc::new(Inner {
            queue: Mutex::default(),
            cond: Condvar::new(),
        });
        let threads = (0..workers)
            .map(|i| {
                let inner = Arc::clone(&inner);
                std::thread::Builder::new()
                    .name(format!("ppa-pool-{i}"))
                    .spawn(move || worker_loop(inner))
                    .expect("spawning a pool worker thread")
            })
            .collect();
        WORKERS.fetch_add(workers, Ordering::Relaxed);
        ThreadPool { inner, threads }
    }

    /// Number of worker threads.
    pub fn workers(&self) -> usize {
        self.threads.len()
    }

    /// Runs `f` with a [`Scope`] that can spawn jobs borrowing from the
    /// enclosing frame. Does not return until every spawned job has
    /// completed (the calling thread helps run them while it waits); a
    /// panic in `f` itself still waits before resuming the unwind.
    pub fn scope<'env, F, R>(&'env self, f: F) -> R
    where
        F: FnOnce(&Scope<'env>) -> R,
    {
        scope_on(&self.inner, f)
    }

    /// Applies `f` to every item in parallel, returning per-job results
    /// **in input order**. A panicking job yields `Err` for its slot
    /// only.
    pub fn par_map<'env, T, U, F, I>(&'env self, items: I, f: F) -> Vec<Result<U, JobError>>
    where
        I: IntoIterator<Item = T>,
        T: Send + 'env,
        U: Send + 'env,
        F: Fn(T) -> U + Sync + 'env,
    {
        par_map_on(&self.inner, items, f)
    }
}

impl Drop for ThreadPool {
    fn drop(&mut self) {
        // Every scope borrows the pool, so the queue is empty by now.
        self.inner.signal(|queue| queue.shutdown = true);
        WORKERS.fetch_sub(self.threads.len(), Ordering::Relaxed);
        for handle in self.threads.drain(..) {
            let _ = handle.join();
        }
    }
}

/// Spawn handle passed to [`ThreadPool::scope`] closures.
pub struct Scope<'env> {
    inner: &'env Arc<Inner>,
    /// Jobs spawned and not yet completed.
    pending: Arc<AtomicUsize>,
    /// Invariance over `'env`, the crossbeam-style scoped-spawn guard.
    _env: PhantomData<&'env mut &'env ()>,
}

fn scope_on<'env, F, R>(inner: &'env Arc<Inner>, f: F) -> R
where
    F: FnOnce(&Scope<'env>) -> R,
{
    let scope = Scope {
        inner,
        pending: Arc::new(AtomicUsize::new(0)),
        _env: PhantomData,
    };
    let result = catch_unwind(AssertUnwindSafe(|| f(&scope)));
    inner.help_until(|| scope.pending.load(Ordering::SeqCst) == 0);
    result.unwrap_or_else(|payload| resume_unwind(payload))
}

impl<'env> Scope<'env> {
    /// Spawns a job. The closure may borrow anything that outlives the
    /// scope.
    pub fn spawn<T, F>(&self, f: F) -> JobHandle<T>
    where
        T: Send + 'env,
        F: FnOnce() -> T + Send + 'env,
    {
        self.pending.fetch_add(1, Ordering::SeqCst);
        let slot = Arc::new(Mutex::new(None));
        let out = Arc::clone(&slot);
        let pending = Arc::clone(&self.pending);
        let inner = Arc::clone(self.inner);
        let job: Box<dyn FnOnce() + Send + 'env> = Box::new(move || {
            JOBS_RUN.fetch_add(1, Ordering::Relaxed);
            let result = catch_unwind(AssertUnwindSafe(f)).map_err(|payload| {
                PANICS.fetch_add(1, Ordering::Relaxed);
                JobError::Panicked(panic_message(payload.as_ref()))
            });
            *lock(&out) = Some(result);
            // `out` goes before the count does, so a result nobody joins
            // is never dropped after its scope has returned.
            inner.signal(move |_| {
                drop(out);
                pending.fetch_sub(1, Ordering::SeqCst);
            });
        });
        // SAFETY: `scope_on` does not return — normally or by unwind —
        // until `pending` reaches zero, i.e. until this closure has run
        // `f` (consuming its captures) and released its share of the
        // result slot. What it still holds then (`inner`, `pending`) is
        // `'static`. Every capture outlives `'env`, and `'env` outlives
        // the `scope_on` call, so erasing the lifetime cannot let the job
        // observe freed data. This is the standard scoped-pool
        // construction.
        let task: Task =
            unsafe { std::mem::transmute::<Box<dyn FnOnce() + Send + 'env>, Task>(job) };
        self.inner.signal(|queue| queue.tasks.push_back(task));
        JobHandle {
            inner: Arc::clone(self.inner),
            slot,
        }
    }
}

/// Handle to one spawned job's result.
pub struct JobHandle<T> {
    inner: Arc<Inner>,
    slot: Arc<Mutex<Option<Result<T, JobError>>>>,
}

impl<T> JobHandle<T> {
    /// Waits for the job, helping run queued work in the meantime.
    pub fn join(self) -> Result<T, JobError> {
        self.inner.help_until(|| lock(&self.slot).is_some());
        lock(&self.slot)
            .take()
            .expect("a completed job always stores a result")
    }
}

fn par_map_on<'env, T, U, F, I>(inner: &'env Arc<Inner>, items: I, f: F) -> Vec<Result<U, JobError>>
where
    I: IntoIterator<Item = T>,
    T: Send + 'env,
    U: Send + 'env,
    F: Fn(T) -> U + Sync + 'env,
{
    let f = &f;
    scope_on(inner, |s| {
        let handles: Vec<JobHandle<U>> = items
            .into_iter()
            .map(|item| s.spawn(move || f(item)))
            .collect();
        handles.into_iter().map(JobHandle::join).collect()
    })
}

// ---------------------------------------------------------------------
// The shared pool and its environment knobs.

static JOBS_OVERRIDE: AtomicUsize = AtomicUsize::new(usize::MAX);
static GLOBAL: OnceLock<ThreadPool> = OnceLock::new();

fn auto_parallelism() -> usize {
    std::thread::available_parallelism()
        .map(std::num::NonZeroUsize::get)
        .unwrap_or(1)
}

/// Overrides `PPA_JOBS` (e.g. from a `--jobs` CLI flag). `0` means
/// auto-detect cores. Must be called before the first [`global`] use to
/// affect the shared pool's size.
pub fn set_jobs(n: usize) {
    JOBS_OVERRIDE.store(n, Ordering::SeqCst);
}

/// The effective job count: the [`set_jobs`] override if present, else
/// the `PPA_JOBS` environment variable, else `1` (serial). `0` resolves
/// to the detected core count.
pub fn configured_jobs() -> usize {
    let raw = match JOBS_OVERRIDE.load(Ordering::SeqCst) {
        usize::MAX => std::env::var("PPA_JOBS")
            .ok()
            .and_then(|s| s.parse().ok())
            .unwrap_or(1),
        n => n,
    };
    if raw == 0 {
        auto_parallelism()
    } else {
        raw
    }
}

/// The process-wide shared pool, created on first use with
/// [`configured_jobs`] workers.
pub fn global() -> &'static ThreadPool {
    GLOBAL.get_or_init(|| ThreadPool::new(configured_jobs()))
}

/// Mirrors the process-wide pool counters into the `ppa-obs` registry
/// as `pool.*` metrics: `pool.workers` (a gauge of the worker threads
/// alive now), and the cumulative `pool.jobs_run`, `pool.panics` and
/// `pool.idle_ns` (idle time summed across workers) of every pool the
/// process has run. Harness front-ends call this right before
/// snapshotting so `--metrics-json` always reflects the final state.
/// Serial runs, which start no pool, export an all-zero family so the
/// JSON shape is stable across job counts.
pub fn export_metrics() {
    use ppa_obs::registry::{counter, gauge};
    gauge("pool.workers").set(WORKERS.load(Ordering::Relaxed) as f64);
    counter("pool.jobs_run").set(JOBS_RUN.load(Ordering::Relaxed));
    counter("pool.panics").set(PANICS.load(Ordering::Relaxed));
    counter("pool.idle_ns").set(IDLE_NS.load(Ordering::Relaxed));
}

/// Order-preserving parallel map over the ambient pool: the enclosing
/// worker's pool when called from inside a job (nested fan-out), the
/// shared [`global`] pool otherwise — or a plain serial loop when
/// [`configured_jobs`] is 1, so default runs spawn no threads at all.
///
/// A panicking job re-panics here with its message, matching what the
/// serial loop would do; use [`ThreadPool::par_map`] directly to handle
/// per-job errors.
pub fn par_map_ordered<T, U, F>(items: Vec<T>, f: F) -> Vec<U>
where
    T: Send,
    U: Send,
    F: Fn(T) -> U + Sync,
{
    if let Some(inner) = current_inner() {
        return collect_ok(par_map_on(&inner, items, f));
    }
    if configured_jobs() <= 1 {
        return items.into_iter().map(f).collect();
    }
    collect_ok(par_map_on(&global().inner, items, f))
}

fn collect_ok<U>(results: Vec<Result<U, JobError>>) -> Vec<U> {
    results
        .into_iter()
        .map(|r| match r {
            Ok(v) => v,
            Err(e) => panic!("parallel job failed: {e}"),
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn par_map_preserves_input_order() {
        let pool = ThreadPool::new(4);
        let out = pool.par_map(0..64u64, |i| i * 3);
        let expect: Vec<Result<u64, JobError>> = (0..64).map(|i| Ok(i * 3)).collect();
        assert_eq!(out, expect);
    }

    #[test]
    fn zero_workers_means_auto_detect() {
        let pool = ThreadPool::new(0);
        assert!(pool.workers() >= 1);
    }

    #[test]
    fn configured_jobs_defaults_to_serial() {
        // Neither the env var nor the override is set under `cargo test`.
        if std::env::var("PPA_JOBS").is_err() && JOBS_OVERRIDE.load(Ordering::SeqCst) == usize::MAX
        {
            assert_eq!(configured_jobs(), 1);
        }
    }

    #[test]
    fn serial_par_map_ordered_needs_no_pool() {
        let out = par_map_ordered(vec![1u32, 2, 3], |x| x + 1);
        assert_eq!(out, vec![2, 3, 4]);
    }

    #[test]
    fn job_error_displays() {
        assert!(JobError::Panicked("boom".into())
            .to_string()
            .contains("boom"));
    }
}
