//! MPSC channel facade: a `Sync` receiver over an unbounded queue
//! (`unbounded`, `Sender`, `Receiver`, typed recv errors). Passthrough
//! wraps `std::sync::mpsc`; in a model schedule the queue is a
//! model-visible object, so a receiver blocked on an empty channel is a
//! controller decision point and `recv_timeout` runs on the virtual
//! clock.

use std::collections::VecDeque;
use std::fmt;
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::{mpsc, Arc, Mutex as StdMutex};
use std::time::Duration;

use crate::world::{self, Wake, World};

/// Send failed: the receiver is gone. Carries the unsent value.
pub struct SendError<T>(pub T);

impl<T> fmt::Debug for SendError<T> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str("SendError(..)")
    }
}

impl<T> fmt::Display for SendError<T> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str("sending on a disconnected channel")
    }
}

/// Blocking receive failed: all senders are gone.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RecvError;

impl fmt::Display for RecvError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str("receiving on an empty and disconnected channel")
    }
}

/// Non-blocking receive outcome when no value is ready.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TryRecvError {
    /// Channel empty, senders still alive.
    Empty,
    /// Channel empty and all senders gone.
    Disconnected,
}

/// Timed receive outcome when no value arrived.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RecvTimeoutError {
    /// Timed out with senders still alive.
    Timeout,
    /// All senders gone.
    Disconnected,
}

struct Chan<T> {
    q: StdMutex<VecDeque<T>>,
    senders: AtomicUsize,
    rx_alive: AtomicBool,
    world: Arc<World>,
    cid: usize,
}

enum TxInner<T> {
    Std(mpsc::Sender<T>),
    Model(Arc<Chan<T>>),
}

/// Sending half; cloneable.
pub struct Sender<T> {
    inner: TxInner<T>,
}

enum RxInner<T> {
    // Mutex-wrapped so the facade Receiver is Sync (std's is not).
    Std(StdMutex<mpsc::Receiver<T>>),
    Model(Arc<Chan<T>>),
}

/// Receiving half; sharable across threads (`&self` receive).
pub struct Receiver<T> {
    inner: RxInner<T>,
}

/// An unbounded MPSC channel.
pub fn unbounded<T>() -> (Sender<T>, Receiver<T>) {
    match world::current() {
        None => {
            let (tx, rx) = mpsc::channel();
            (
                Sender {
                    inner: TxInner::Std(tx),
                },
                Receiver {
                    inner: RxInner::Std(StdMutex::new(rx)),
                },
            )
        }
        Some((w, _)) => {
            let cid = w.register_channel();
            let ch = Arc::new(Chan {
                q: StdMutex::new(VecDeque::new()),
                senders: AtomicUsize::new(1),
                rx_alive: AtomicBool::new(true),
                world: w,
                cid,
            });
            (
                Sender {
                    inner: TxInner::Model(ch.clone()),
                },
                Receiver {
                    inner: RxInner::Model(ch),
                },
            )
        }
    }
}

impl<T> Clone for Sender<T> {
    fn clone(&self) -> Sender<T> {
        match &self.inner {
            TxInner::Std(tx) => Sender {
                inner: TxInner::Std(tx.clone()),
            },
            TxInner::Model(ch) => {
                ch.senders.fetch_add(1, Ordering::AcqRel);
                Sender {
                    inner: TxInner::Model(ch.clone()),
                }
            }
        }
    }
}

impl<T> Drop for Sender<T> {
    fn drop(&mut self) {
        if let TxInner::Model(ch) = &self.inner {
            if ch.senders.fetch_sub(1, Ordering::AcqRel) == 1 {
                // Last sender gone: blocked receivers must observe the
                // disconnect.
                ch.world.chan_wake(ch.cid);
            }
        }
    }
}

impl<T> Drop for Receiver<T> {
    fn drop(&mut self) {
        if let RxInner::Model(ch) = &self.inner {
            ch.rx_alive.store(false, Ordering::Release);
        }
    }
}

impl<T> Sender<T> {
    /// Send a value; fails (returning it) when the receiver is gone.
    pub fn send(&self, value: T) -> Result<(), SendError<T>> {
        match &self.inner {
            TxInner::Std(tx) => tx.send(value).map_err(|mpsc::SendError(v)| SendError(v)),
            TxInner::Model(ch) => {
                if let Some((w, me)) = world::current() {
                    w.yield_point(me);
                }
                if !ch.rx_alive.load(Ordering::Acquire) {
                    return Err(SendError(value));
                }
                ch.q.lock()
                    .unwrap_or_else(|p| p.into_inner())
                    .push_back(value);
                ch.world.chan_wake(ch.cid);
                Ok(())
            }
        }
    }
}

fn dur_ns(d: Duration) -> u64 {
    u64::try_from(d.as_nanos()).unwrap_or(u64::MAX)
}

impl<T> Receiver<T> {
    /// Blocking receive.
    pub fn recv(&self) -> Result<T, RecvError> {
        match &self.inner {
            RxInner::Std(rx) => rx
                .lock()
                .unwrap_or_else(|p| p.into_inner())
                .recv()
                .map_err(|_| RecvError),
            RxInner::Model(_) => self.model_recv(None).map_err(|_| RecvError),
        }
    }

    /// Non-blocking receive.
    pub fn try_recv(&self) -> Result<T, TryRecvError> {
        match &self.inner {
            RxInner::Std(rx) => rx
                .lock()
                .unwrap_or_else(|p| p.into_inner())
                .try_recv()
                .map_err(|e| match e {
                    mpsc::TryRecvError::Empty => TryRecvError::Empty,
                    mpsc::TryRecvError::Disconnected => TryRecvError::Disconnected,
                }),
            RxInner::Model(ch) => {
                if let Some((w, me)) = world::current() {
                    w.yield_point(me);
                }
                match ch.q.lock().unwrap_or_else(|p| p.into_inner()).pop_front() {
                    Some(v) => Ok(v),
                    None if ch.senders.load(Ordering::Acquire) == 0 => {
                        Err(TryRecvError::Disconnected)
                    }
                    None => Err(TryRecvError::Empty),
                }
            }
        }
    }

    /// Receive with a timeout (virtual-clock time in the model).
    pub fn recv_timeout(&self, timeout: Duration) -> Result<T, RecvTimeoutError> {
        match &self.inner {
            RxInner::Std(rx) => rx
                .lock()
                .unwrap_or_else(|p| p.into_inner())
                .recv_timeout(timeout)
                .map_err(|e| match e {
                    mpsc::RecvTimeoutError::Timeout => RecvTimeoutError::Timeout,
                    mpsc::RecvTimeoutError::Disconnected => RecvTimeoutError::Disconnected,
                }),
            RxInner::Model(_) => self.model_recv(Some(timeout)),
        }
    }

    fn model_recv(&self, timeout: Option<Duration>) -> Result<T, RecvTimeoutError> {
        let RxInner::Model(ch) = &self.inner else {
            unreachable!("model_recv on passthrough receiver")
        };
        let (w, me) =
            world::current().expect("model channel received on a non-task thread (facade misuse)");
        w.yield_point(me);
        let expiry = timeout.map(|d| w.now_ns().saturating_add(dur_ns(d)));
        loop {
            if let Some(v) = ch.q.lock().unwrap_or_else(|p| p.into_inner()).pop_front() {
                return Ok(v);
            }
            if ch.senders.load(Ordering::Acquire) == 0 {
                return Err(RecvTimeoutError::Disconnected);
            }
            let wake = w.chan_block(me, ch.cid, expiry);
            if wake == Wake::TimedOut {
                return match ch.q.lock().unwrap_or_else(|p| p.into_inner()).pop_front() {
                    Some(v) => Ok(v),
                    None => Err(RecvTimeoutError::Timeout),
                };
            }
        }
    }
}
