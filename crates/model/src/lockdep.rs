//! Lock-order recording ("lockdep").
//!
//! Facade locks constructed with [`Mutex::named`](crate::sync::Mutex::named)
//! (or [`RwLock::named`](crate::sync::RwLock::named)) belong to a *class*.
//! In debug builds, every acquisition records directed edges `held-class →
//! acquired-class` into a process-global graph; a cycle in that graph is a
//! potential ABBA deadlock even if no single run ever deadlocks. The graph
//! is exported through `xct-obs` ([`export_into`]) and checked by
//! `xct-check`'s `LockOrderAcyclic` invariant.
//!
//! Recording is steady-state allocation-free: class interning, edge
//! insertion, and held-stack growth all allocate only on first occurrence,
//! which a warmup pass covers. Release builds compile the recording out
//! entirely (every class maps to `ANON`).

#[cfg(debug_assertions)]
use std::cell::RefCell;
#[cfg(debug_assertions)]
use std::collections::{HashMap, HashSet};
#[cfg(debug_assertions)]
use std::sync::{Mutex as StdMutex, OnceLock};

/// Class id of an unnamed (or release-build) lock: excluded from the
/// graph.
pub(crate) const ANON: usize = usize::MAX;

#[cfg(debug_assertions)]
struct Registry {
    names: Vec<&'static str>,
    ids: HashMap<&'static str, usize>,
    edges: HashSet<(usize, usize)>,
}

#[cfg(debug_assertions)]
fn registry() -> &'static StdMutex<Registry> {
    static REG: OnceLock<StdMutex<Registry>> = OnceLock::new();
    REG.get_or_init(|| {
        StdMutex::new(Registry {
            names: Vec::new(),
            ids: HashMap::new(),
            edges: HashSet::new(),
        })
    })
}

#[cfg(debug_assertions)]
thread_local! {
    /// Stack of class ids held by this thread (ANON entries included so
    /// release order can interleave).
    static HELD: RefCell<Vec<usize>> = const { RefCell::new(Vec::new()) };
}

/// Intern a lock-class name (called once per lock construction).
#[cfg(debug_assertions)]
pub(crate) fn intern(name: &'static str) -> usize {
    let mut reg = registry().lock().unwrap_or_else(|p| p.into_inner());
    if let Some(&id) = reg.ids.get(name) {
        return id;
    }
    let id = reg.names.len();
    reg.names.push(name);
    reg.ids.insert(name, id);
    id
}

#[cfg(not(debug_assertions))]
pub(crate) fn intern(_name: &'static str) -> usize {
    ANON
}

/// Record an acquisition of class `id` (ANON allowed).
#[cfg(debug_assertions)]
pub(crate) fn on_acquire(id: usize) {
    HELD.with(|h| {
        let mut h = h.borrow_mut();
        if id != ANON {
            let mut reg = registry().lock().unwrap_or_else(|p| p.into_inner());
            for &held in h.iter() {
                if held != ANON && held != id {
                    reg.edges.insert((held, id));
                }
            }
        }
        h.push(id);
    });
}

#[cfg(not(debug_assertions))]
pub(crate) fn on_acquire(_id: usize) {}

/// Record a release of class `id` (last matching entry; guards can drop
/// out of acquisition order).
#[cfg(debug_assertions)]
pub(crate) fn on_release(id: usize) {
    HELD.with(|h| {
        let mut h = h.borrow_mut();
        if let Some(pos) = h.iter().rposition(|&x| x == id) {
            h.remove(pos);
        }
    });
}

#[cfg(not(debug_assertions))]
pub(crate) fn on_release(_id: usize) {}

/// The interned lock-class names, in id order. Empty in release builds.
pub fn classes() -> Vec<String> {
    #[cfg(debug_assertions)]
    {
        let reg = registry().lock().unwrap_or_else(|p| p.into_inner());
        reg.names.iter().map(|n| n.to_string()).collect()
    }
    #[cfg(not(debug_assertions))]
    {
        Vec::new()
    }
}

/// The recorded acquisition-order edges as `(held, acquired)` name pairs,
/// sorted. Empty in release builds (recording compiled out).
pub fn edges() -> Vec<(String, String)> {
    #[cfg(debug_assertions)]
    {
        let reg = registry().lock().unwrap_or_else(|p| p.into_inner());
        let mut out: Vec<(String, String)> = reg
            .edges
            .iter()
            .map(|&(a, b)| (reg.names[a].to_string(), reg.names[b].to_string()))
            .collect();
        out.sort();
        out
    }
    #[cfg(not(debug_assertions))]
    {
        Vec::new()
    }
}

/// Export the lock-order graph into a metrics registry as the
/// `lockdep/edges` adjacency matrix (row = held class, column = acquired
/// class, 1 = observed edge), class names in [`classes`] order.
pub fn export_into(metrics: &xct_obs::Metrics) {
    #[cfg(debug_assertions)]
    {
        let reg = registry().lock().unwrap_or_else(|p| p.into_inner());
        let n = reg.names.len();
        if n == 0 {
            return;
        }
        let mut data = vec![0u64; n * n];
        for &(a, b) in reg.edges.iter() {
            data[a * n + b] = 1;
        }
        metrics.matrix_set(xct_obs::LOCKDEP_EDGES, n, data);
    }
    #[cfg(not(debug_assertions))]
    {
        let _ = metrics;
    }
}

/// Clear all recorded classes and edges. Test-only: the registry is
/// process-global, so concurrent tests observing it must serialize.
#[doc(hidden)]
pub fn reset_for_tests() {
    #[cfg(debug_assertions)]
    {
        let mut reg = registry().lock().unwrap_or_else(|p| p.into_inner());
        reg.names.clear();
        reg.ids.clear();
        reg.edges.clear();
    }
}
