//! Lock-poison recovery for the serving stack.
//!
//! A poisoned `Mutex`/`RwLock` means a thread panicked while holding the
//! guard. For the serving layer that is a *degradation*, not a death
//! sentence: every lock in this workspace guards either a cache (safe to
//! clear), a statistics block, or a store that is structurally valid at
//! every instruction boundary. These helpers recover the guard, clear the
//! poison flag so later lockers do not trip over it, and count the event in
//! `sme_lock_poisoned_total` (process-wide, plus the metrics hub when one
//! is attached). The *caller* decides whether to additionally clear the
//! guarded data — shard caches do, stores do not.

use sme_obs::metrics::Counter;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Mutex, MutexGuard, OnceLock, RwLock, RwLockReadGuard, RwLockWriteGuard};

static RECOVERED: AtomicU64 = AtomicU64::new(0);

fn obs_counter() -> &'static OnceLock<Counter> {
    static COUNTER: OnceLock<Counter> = OnceLock::new();
    &COUNTER
}

/// Attach the `sme_lock_poisoned_total` counter from a metrics hub. Only
/// the first attachment wins (mirroring the cache's `attach_obs`
/// semantics); recoveries are always counted process-wide regardless.
pub fn attach_counter(counter: Counter) {
    let _ = obs_counter().set(counter);
}

/// Total lock-poison recoveries since process start.
pub fn recovered_total() -> u64 {
    RECOVERED.load(Ordering::Relaxed)
}

fn note(component: &'static str) {
    RECOVERED.fetch_add(1, Ordering::Relaxed);
    if let Some(counter) = obs_counter().get() {
        counter.inc();
    }
    eprintln!("sme-runtime: recovered poisoned lock in {component}");
}

/// Lock a mutex, recovering (and clearing) poison instead of panicking.
pub fn lock<'a, T>(mutex: &'a Mutex<T>, component: &'static str) -> MutexGuard<'a, T> {
    lock_recovering(mutex, component).0
}

/// Like [`lock`], but also reports whether poison was recovered on *this*
/// call, so cache-like callers can clear the guarded data they no longer
/// trust.
pub fn lock_recovering<'a, T>(
    mutex: &'a Mutex<T>,
    component: &'static str,
) -> (MutexGuard<'a, T>, bool) {
    match mutex.lock() {
        Ok(guard) => (guard, false),
        Err(poisoned) => {
            note(component);
            mutex.clear_poison();
            (poisoned.into_inner(), true)
        }
    }
}

/// Read-lock an `RwLock`, recovering (and clearing) poison instead of
/// panicking.
pub fn read<'a, T>(rwlock: &'a RwLock<T>, component: &'static str) -> RwLockReadGuard<'a, T> {
    match rwlock.read() {
        Ok(guard) => guard,
        Err(poisoned) => {
            note(component);
            rwlock.clear_poison();
            poisoned.into_inner()
        }
    }
}

/// Write-lock an `RwLock`, recovering (and clearing) poison instead of
/// panicking.
pub fn write<'a, T>(rwlock: &'a RwLock<T>, component: &'static str) -> RwLockWriteGuard<'a, T> {
    match rwlock.write() {
        Ok(guard) => guard,
        Err(poisoned) => {
            note(component);
            rwlock.clear_poison();
            poisoned.into_inner()
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;

    /// `recovered_total` is process-wide, so the two tests below, which
    /// assert exact deltas of it, must not interleave under the parallel
    /// test runner.
    static COUNTER_TESTS: Mutex<()> = Mutex::new(());

    #[test]
    fn poisoned_mutexes_are_recovered_and_counted() {
        let _serial = COUNTER_TESTS.lock().unwrap_or_else(|e| e.into_inner());
        let mutex = Arc::new(Mutex::new(41));
        let clone = Arc::clone(&mutex);
        let _ = std::thread::spawn(move || {
            let _guard = clone.lock().expect("first lock");
            panic!("poison it");
        })
        .join();
        assert!(mutex.is_poisoned(), "thread panic must poison the lock");

        let before = recovered_total();
        {
            let mut guard = lock(&mutex, "test-mutex");
            *guard += 1;
        }
        assert_eq!(recovered_total(), before + 1);
        assert!(!mutex.is_poisoned(), "poison flag must be cleared");
        // Later lockers see a healthy lock and the data survives.
        assert_eq!(*lock(&mutex, "test-mutex"), 42);
        assert_eq!(recovered_total(), before + 1, "healthy locks are free");
    }

    #[test]
    fn poisoned_rwlocks_are_recovered_on_both_paths() {
        let _serial = COUNTER_TESTS.lock().unwrap_or_else(|e| e.into_inner());
        let rw = Arc::new(RwLock::new(vec![1, 2, 3]));
        let clone = Arc::clone(&rw);
        let _ = std::thread::spawn(move || {
            let _guard = clone.write().expect("first write");
            panic!("poison it");
        })
        .join();
        assert!(rw.is_poisoned());

        let before = recovered_total();
        assert_eq!(read(&rw, "test-rwlock").len(), 3);
        assert_eq!(recovered_total(), before + 1);
        write(&rw, "test-rwlock").push(4);
        assert_eq!(read(&rw, "test-rwlock").len(), 4);
        assert_eq!(recovered_total(), before + 1, "cleared poison stays clear");
    }
}
