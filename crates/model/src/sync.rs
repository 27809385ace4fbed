//! Sync facade: `Mutex`, `Condvar`, `RwLock`, atomics and `Arc`.
//!
//! Outside a model schedule every type is a thin passthrough to
//! `std::sync` — the per-operation overhead is one thread-local read.
//! Inside a model schedule (a closure running under
//! [`explore`](crate::explore)), each operation first reports to the
//! model scheduler: acquisition order, blocking, and wakeups become
//! controller decisions, which is what lets the explorer enumerate
//! interleavings and detect deadlocks/lost wakeups.
//!
//! Two deliberate departures from `std::sync`:
//!
//! * **No `LockResult`** — `lock()` always succeeds. Poisoning is tracked
//!   by the facade itself (a flag set when a guard drops during a panic)
//!   and queried via [`Mutex::is_poisoned`]/[`Mutex::clear_poison`], so
//!   callers can give poisoning a *typed* meaning (e.g. the pool's
//!   `PoolPoisoned`) instead of unwrapping.
//! * **Named locks** — [`Mutex::named`] assigns a lock class for the
//!   [`lockdep`] acquisition-order graph.

use std::sync::atomic::Ordering;
use std::sync::{
    Condvar as StdCondvar, Mutex as StdMutex, MutexGuard as StdMutexGuard, RwLock as StdRwLock,
    RwLockReadGuard as StdRwLockReadGuard, RwLockWriteGuard as StdRwLockWriteGuard,
};
use std::time::Duration;

pub use std::sync::Arc;

use crate::lockdep;
use crate::world::{self, World};

struct ModelRef {
    world: Arc<World>,
    id: usize,
}

fn model_mutex() -> Option<ModelRef> {
    world::current().map(|(world, _)| {
        let id = world.register_mutex();
        ModelRef { world, id }
    })
}

/// Facade mutex (see module docs for the differences from `std`).
pub struct Mutex<T> {
    data: StdMutex<T>,
    model: Option<ModelRef>,
    class: usize,
    poisoned: std::sync::atomic::AtomicBool,
}

impl<T> Mutex<T> {
    /// An unnamed mutex (no lockdep class).
    pub fn new(value: T) -> Mutex<T> {
        Mutex {
            data: StdMutex::new(value),
            model: model_mutex(),
            class: lockdep::ANON,
            poisoned: std::sync::atomic::AtomicBool::new(false),
        }
    }

    /// A mutex with a lockdep class name (acquisition-order tracking in
    /// debug builds). Use stable, path-like names: `"pool/state"`.
    pub fn named(class: &'static str, value: T) -> Mutex<T> {
        Mutex {
            data: StdMutex::new(value),
            model: model_mutex(),
            class: lockdep::intern(class),
            poisoned: std::sync::atomic::AtomicBool::new(false),
        }
    }

    /// Acquire the mutex. Never fails: a poisoned inner lock is recovered
    /// (check [`is_poisoned`](Self::is_poisoned) for a typed policy).
    pub fn lock(&self) -> MutexGuard<'_, T> {
        if let Some(m) = &self.model {
            if let Some((_, me)) = world::current() {
                m.world.mutex_lock(me, m.id);
            }
            // A non-task thread touching a model-schedule lock falls
            // through to the real mutex below, which model holders also
            // hold for their critical sections.
        }
        lockdep::on_acquire(self.class);
        let inner = self.data.lock().unwrap_or_else(|p| p.into_inner());
        MutexGuard {
            lock: self,
            inner: Some(inner),
        }
    }

    /// Whether a guard was ever dropped during a panic (facade-level
    /// poisoning; surviving callers decide what that means).
    pub fn is_poisoned(&self) -> bool {
        self.poisoned.load(Ordering::Acquire) || self.data.is_poisoned()
    }

    /// Clear the poison flag (recovery is the caller's policy).
    pub fn clear_poison(&self) {
        self.poisoned.store(false, Ordering::Release);
        self.data.clear_poison();
    }

    /// Mutable access without locking (requires `&mut self`).
    pub fn get_mut(&mut self) -> &mut T {
        // A poisoned std mutex still hands out its data via get_mut.
        match self.data.get_mut() {
            Ok(v) => v,
            Err(p) => p.into_inner(),
        }
    }
}

impl<T: std::fmt::Debug> std::fmt::Debug for Mutex<T> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Mutex").finish_non_exhaustive()
    }
}

impl<T: Default> Default for Mutex<T> {
    fn default() -> Mutex<T> {
        Mutex::new(T::default())
    }
}

/// Guard for [`Mutex`]; releases (and reports to the model scheduler) on
/// drop.
pub struct MutexGuard<'a, T> {
    lock: &'a Mutex<T>,
    /// `None` only while a condvar wait has disassembled the guard.
    inner: Option<StdMutexGuard<'a, T>>,
}

impl<T> std::ops::Deref for MutexGuard<'_, T> {
    type Target = T;
    fn deref(&self) -> &T {
        self.inner.as_ref().expect("guard disassembled")
    }
}

impl<T> std::ops::DerefMut for MutexGuard<'_, T> {
    fn deref_mut(&mut self) -> &mut T {
        self.inner.as_mut().expect("guard disassembled")
    }
}

impl<T> Drop for MutexGuard<'_, T> {
    fn drop(&mut self) {
        // Drop the real guard first so the next owner can take the inner
        // lock as soon as the model grants it.
        if self.inner.take().is_some() {
            if std::thread::panicking() {
                self.lock.poisoned.store(true, Ordering::Release);
            }
            lockdep::on_release(self.lock.class);
            if let Some(m) = &self.lock.model {
                m.world.mutex_unlock(m.id);
            }
        }
    }
}

/// Result of [`Condvar::wait_timeout`]; mirrors
/// `std::sync::WaitTimeoutResult`.
#[derive(Debug, Clone, Copy)]
pub struct WaitTimeoutResult {
    timed_out: bool,
}

impl WaitTimeoutResult {
    /// Whether the wait ended by timeout rather than notify.
    pub fn timed_out(&self) -> bool {
        self.timed_out
    }
}

struct CvRef {
    world: Arc<World>,
    id: usize,
}

/// Facade condition variable. In the model there are **no spurious
/// wakeups**: a wakeup is always a notify or a timeout, so a protocol
/// that relies on one is reported as a lost wakeup instead of limping
/// through.
pub struct Condvar {
    std: StdCondvar,
    model: Option<CvRef>,
}

impl Default for Condvar {
    fn default() -> Condvar {
        Condvar::new()
    }
}

impl Condvar {
    /// A new condition variable.
    pub fn new() -> Condvar {
        Condvar {
            std: StdCondvar::new(),
            model: world::current().map(|(world, _)| {
                let id = world.register_condvar();
                CvRef { world, id }
            }),
        }
    }

    /// Wait until notified, releasing and reacquiring the guard's mutex.
    pub fn wait<'a, T>(&self, guard: MutexGuard<'a, T>) -> MutexGuard<'a, T> {
        self.wait_inner(guard, None).0
    }

    /// Wait with a timeout (virtual-clock time in the model).
    pub fn wait_timeout<'a, T>(
        &self,
        guard: MutexGuard<'a, T>,
        dur: Duration,
    ) -> (MutexGuard<'a, T>, WaitTimeoutResult) {
        self.wait_inner(guard, Some(dur))
    }

    fn wait_inner<'a, T>(
        &self,
        mut guard: MutexGuard<'a, T>,
        dur: Option<Duration>,
    ) -> (MutexGuard<'a, T>, WaitTimeoutResult) {
        let lock = guard.lock;
        let model_wait = match (&self.model, &lock.model, world::current()) {
            (Some(cv), Some(m), Some((_, me))) => Some((cv, m, me)),
            _ => None,
        };
        if let Some((cv, m, me)) = model_wait {
            drop(guard.inner.take());
            lockdep::on_release(lock.class);
            std::mem::forget(guard); // fully disassembled; Drop must not run
            let timed_out = cv.world.condvar_wait(me, cv.id, m.id, dur);
            lockdep::on_acquire(lock.class);
            let inner = lock.data.lock().unwrap_or_else(|p| p.into_inner());
            (
                MutexGuard {
                    lock,
                    inner: Some(inner),
                },
                WaitTimeoutResult { timed_out },
            )
        } else {
            let inner = guard.inner.take().expect("guard disassembled");
            lockdep::on_release(lock.class);
            std::mem::forget(guard);
            let (inner, timed_out) = match dur {
                None => (
                    self.std.wait(inner).unwrap_or_else(|p| p.into_inner()),
                    false,
                ),
                Some(d) => match self.std.wait_timeout(inner, d) {
                    Ok((g, r)) => (g, r.timed_out()),
                    Err(p) => {
                        let (g, r) = p.into_inner();
                        (g, r.timed_out())
                    }
                },
            };
            lockdep::on_acquire(lock.class);
            (
                MutexGuard {
                    lock,
                    inner: Some(inner),
                },
                WaitTimeoutResult { timed_out },
            )
        }
    }

    /// Wake one waiter (the lowest-id waiting task in the model, which
    /// keeps schedules deterministic).
    pub fn notify_one(&self) {
        match (&self.model, world::current()) {
            (Some(cv), Some((_, me))) => {
                cv.world.condvar_notify(me, cv.id, false);
                // Defensive: also wake any passthrough thread parked on
                // the real condvar.
                self.std.notify_one();
            }
            _ => self.std.notify_one(),
        }
    }

    /// Wake all waiters.
    pub fn notify_all(&self) {
        match (&self.model, world::current()) {
            (Some(cv), Some((_, me))) => {
                cv.world.condvar_notify(me, cv.id, true);
                self.std.notify_all();
            }
            _ => self.std.notify_all(),
        }
    }
}

struct RwRef {
    world: Arc<World>,
    id: usize,
}

/// Facade reader-writer lock (same poisoning policy as [`Mutex`]).
pub struct RwLock<T> {
    data: StdRwLock<T>,
    model: Option<RwRef>,
    class: usize,
}

impl<T> RwLock<T> {
    /// An unnamed rwlock.
    pub fn new(value: T) -> RwLock<T> {
        RwLock {
            data: StdRwLock::new(value),
            model: world::current().map(|(world, _)| {
                let id = world.register_rwlock();
                RwRef { world, id }
            }),
            class: lockdep::ANON,
        }
    }

    /// An rwlock with a lockdep class name.
    pub fn named(class: &'static str, value: T) -> RwLock<T> {
        let mut l = RwLock::new(value);
        l.class = lockdep::intern(class);
        l
    }

    /// Acquire shared read access.
    pub fn read(&self) -> RwLockReadGuard<'_, T> {
        if let Some(m) = &self.model {
            if let Some((_, me)) = world::current() {
                m.world.rw_lock(me, m.id, false);
            }
        }
        lockdep::on_acquire(self.class);
        let inner = self.data.read().unwrap_or_else(|p| p.into_inner());
        RwLockReadGuard {
            lock: self,
            inner: Some(inner),
        }
    }

    /// Acquire exclusive write access.
    pub fn write(&self) -> RwLockWriteGuard<'_, T> {
        if let Some(m) = &self.model {
            if let Some((_, me)) = world::current() {
                m.world.rw_lock(me, m.id, true);
            }
        }
        lockdep::on_acquire(self.class);
        let inner = self.data.write().unwrap_or_else(|p| p.into_inner());
        RwLockWriteGuard {
            lock: self,
            inner: Some(inner),
        }
    }
}

/// Read guard for [`RwLock`].
pub struct RwLockReadGuard<'a, T> {
    lock: &'a RwLock<T>,
    inner: Option<StdRwLockReadGuard<'a, T>>,
}

impl<T> std::ops::Deref for RwLockReadGuard<'_, T> {
    type Target = T;
    fn deref(&self) -> &T {
        self.inner.as_ref().expect("guard disassembled")
    }
}

impl<T> Drop for RwLockReadGuard<'_, T> {
    fn drop(&mut self) {
        if self.inner.take().is_some() {
            lockdep::on_release(self.lock.class);
            if let Some(m) = &self.lock.model {
                m.world.rw_unlock(m.id, false);
            }
        }
    }
}

/// Write guard for [`RwLock`].
pub struct RwLockWriteGuard<'a, T> {
    lock: &'a RwLock<T>,
    inner: Option<StdRwLockWriteGuard<'a, T>>,
}

impl<T> std::ops::Deref for RwLockWriteGuard<'_, T> {
    type Target = T;
    fn deref(&self) -> &T {
        self.inner.as_ref().expect("guard disassembled")
    }
}

impl<T> std::ops::DerefMut for RwLockWriteGuard<'_, T> {
    fn deref_mut(&mut self) -> &mut T {
        self.inner.as_mut().expect("guard disassembled")
    }
}

impl<T> Drop for RwLockWriteGuard<'_, T> {
    fn drop(&mut self) {
        if self.inner.take().is_some() {
            lockdep::on_release(self.lock.class);
            if let Some(m) = &self.lock.model {
                m.world.rw_unlock(m.id, true);
            }
        }
    }
}

/// Atomics facade: passthrough values whose every operation is a model
/// preemption point, so interleavings around flag checks get explored.
pub mod atomic {
    pub use std::sync::atomic::Ordering;

    use crate::world;

    fn preempt() {
        if let Some((w, me)) = world::current() {
            w.yield_point(me);
        }
    }

    macro_rules! facade_atomic {
        ($name:ident, $std:ty, $prim:ty) => {
            /// Facade atomic; operations are model preemption points.
            #[derive(Debug, Default)]
            pub struct $name {
                v: $std,
            }

            impl $name {
                /// A new atomic holding `v`.
                pub const fn new(v: $prim) -> $name {
                    $name { v: <$std>::new(v) }
                }

                /// Atomic load.
                pub fn load(&self, o: Ordering) -> $prim {
                    preempt();
                    self.v.load(o)
                }

                /// Atomic store.
                pub fn store(&self, val: $prim, o: Ordering) {
                    preempt();
                    self.v.store(val, o);
                }

                /// Atomic swap.
                pub fn swap(&self, val: $prim, o: Ordering) -> $prim {
                    preempt();
                    self.v.swap(val, o)
                }
            }
        };
    }

    facade_atomic!(AtomicBool, std::sync::atomic::AtomicBool, bool);
    facade_atomic!(AtomicU64, std::sync::atomic::AtomicU64, u64);
    facade_atomic!(AtomicUsize, std::sync::atomic::AtomicUsize, usize);

    impl AtomicU64 {
        /// Atomic fetch-add.
        pub fn fetch_add(&self, val: u64, o: Ordering) -> u64 {
            preempt();
            self.v.fetch_add(val, o)
        }

        /// Atomic fetch-max.
        pub fn fetch_max(&self, val: u64, o: Ordering) -> u64 {
            preempt();
            self.v.fetch_max(val, o)
        }
    }

    impl AtomicUsize {
        /// Atomic fetch-add.
        pub fn fetch_add(&self, val: usize, o: Ordering) -> usize {
            preempt();
            self.v.fetch_add(val, o)
        }

        /// Atomic fetch-sub.
        pub fn fetch_sub(&self, val: usize, o: Ordering) -> usize {
            preempt();
            self.v.fetch_sub(val, o)
        }
    }

    impl AtomicBool {
        /// Atomic fetch-or.
        pub fn fetch_or(&self, val: bool, o: Ordering) -> bool {
            preempt();
            self.v.fetch_or(val, o)
        }
    }
}
