//! Poison-proof locking for the long-lived grid and serve processes.
//!
//! A panic while a thread holds a `Mutex` poisons it, and
//! `lock().unwrap()` would then turn one panicking unit or session into
//! a dead coordinator or daemon: every later lock panics too. The
//! state these locks guard is bookkeeping whose every mutation leaves
//! it usable (a map entry, a counter, a queue key), so the helpers
//! here recover the guard through [`PoisonError::into_inner`] and carry
//! on. Every lock and condvar wait in `ppa-grid` and `ppa-serve` goes
//! through them.

use std::sync::{Condvar, Mutex, MutexGuard, PoisonError};
use std::time::Instant;

/// Locks `m`, recovering the guard if another thread panicked while
/// holding it.
pub fn lock<T>(m: &Mutex<T>) -> MutexGuard<'_, T> {
    m.lock().unwrap_or_else(PoisonError::into_inner)
}

/// Waits on `cv` until notified (or spuriously woken); poison-proof.
pub fn wait<'a, T>(cv: &Condvar, guard: MutexGuard<'a, T>) -> MutexGuard<'a, T> {
    cv.wait(guard).unwrap_or_else(PoisonError::into_inner)
}

/// Waits on `cv` until notified or `deadline` passes; poison-proof.
/// Returns at once when the deadline is already past.
pub fn wait_until<'a, T>(
    cv: &Condvar,
    guard: MutexGuard<'a, T>,
    deadline: Instant,
) -> MutexGuard<'a, T> {
    let now = Instant::now();
    if deadline <= now {
        return guard;
    }
    cv.wait_timeout(guard, deadline - now)
        .unwrap_or_else(PoisonError::into_inner)
        .0
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;
    use std::time::Duration;

    #[test]
    fn a_poisoned_lock_is_recovered() {
        let m = Arc::new(Mutex::new(7));
        let m2 = Arc::clone(&m);
        let _ = std::thread::spawn(move || {
            let _g = m2.lock().unwrap();
            panic!("poison the lock");
        })
        .join();
        assert!(m.is_poisoned());
        *lock(&m) += 1;
        assert_eq!(*lock(&m), 8);
    }

    #[test]
    fn wait_until_a_past_deadline_returns_at_once() {
        let m = Mutex::new(());
        let cv = Condvar::new();
        let t0 = Instant::now();
        drop(wait_until(&cv, lock(&m), t0));
        assert!(t0.elapsed() < Duration::from_secs(1));
    }
}
