//! The keyed plan cache: geometry + plan configuration in,
//! already-preprocessed [`Reconstructor`] out.

use std::collections::HashMap;

use xct_model::sync::{Arc, Mutex};

use memxct::preprocess::Config;
use memxct::{BuildError, Reconstructor, ReconstructorBuilder};
use xct_geometry::{Grid, ScanGeometry};
use xct_obs::{Metrics, MetricsSnapshot, CACHE_EVICT, CACHE_HIT, CACHE_MISS};
use xct_runtime::fnv1a64;

/// Everything that shapes a reconstructor's memoized plan: the geometry
/// plus the preprocessing/execution configuration. Two specs with equal
/// [`PlanKey`]s build bit-identical plans, so a cached reconstructor can
/// serve either.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PlanSpec {
    /// Tomogram grid.
    pub grid: Grid,
    /// Scan geometry (projections × channels).
    pub scan: ScanGeometry,
    /// Preprocessing configuration (ordering, projector, partition and
    /// buffer sizes, and the kernel the plan runs).
    pub config: Config,
    /// Execute on the persistent worker pool.
    pub use_pool: bool,
    /// Worker count for the pool; `None` uses the environment default.
    pub pool_threads: Option<usize>,
    /// Slices per engine run (SpMM width).
    pub batch: usize,
}

impl PlanSpec {
    /// A spec with the default configuration (serial execution, batch 1).
    pub fn new(grid: Grid, scan: ScanGeometry) -> Self {
        PlanSpec {
            grid,
            scan,
            config: Config::default(),
            use_pool: false,
            pool_threads: None,
            batch: 1,
        }
    }

    /// The cache key identifying this spec's plan.
    pub fn key(&self) -> PlanKey {
        PlanKey {
            grid_n: self.grid.n(),
            projections: self.scan.num_projections(),
            channels: self.scan.num_channels(),
            config: self.config,
            use_pool: self.use_pool,
            pool_threads: if self.use_pool {
                self.pool_threads
            } else {
                None
            },
            batch: self.batch,
        }
    }

    /// Build (and validate) the reconstructor this spec describes,
    /// recording into `metrics`.
    fn build(&self, metrics: &Metrics) -> Result<Reconstructor, BuildError> {
        let mut b = ReconstructorBuilder::new(self.grid, self.scan)
            .config(self.config)
            .batch(self.batch)
            .use_pool(self.use_pool)
            .validate_plan(true)
            .metrics(metrics.clone());
        if let Some(t) = self.pool_threads {
            b = b.pool_threads(t);
        }
        b.build()
    }
}

/// Identity of a memoized plan: a stable, hashable projection of the
/// validated plan inputs. Structural equality (not a hash) decides cache
/// hits, so distinct configurations can never collide into a false hit;
/// [`fingerprint`](Self::fingerprint) gives a stable 64-bit digest for
/// logs and reports.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct PlanKey {
    grid_n: u32,
    projections: u32,
    channels: u32,
    /// The whole preprocessing configuration, so no field of it can be
    /// left out of the key.
    config: Config,
    use_pool: bool,
    /// Only meaningful when `use_pool`; normalized to `None` otherwise so
    /// a thread-count hint on a serial spec cannot split the key.
    pool_threads: Option<usize>,
    batch: usize,
}

impl PlanKey {
    /// Stable FNV-1a digest of the key (for logs and job reports).
    pub fn fingerprint(&self) -> u64 {
        let repr = format!("{self:?}");
        fnv1a64(repr.as_bytes())
    }
}

struct Entry {
    rec: Arc<Reconstructor>,
    last_used: u64,
}

struct CacheState {
    map: HashMap<PlanKey, Entry>,
    tick: u64,
}

/// Bounded keyed cache of built reconstructors: [`PlanKey`] →
/// `Arc<Reconstructor>`, least-recently-used eviction, plan validation
/// run once at insert, `cache/{hit,miss,evict}` counters in the shared
/// metrics registry. Safe to share across threads.
pub struct PlanCache {
    state: Mutex<CacheState>,
    capacity: usize,
    metrics: Metrics,
}

impl PlanCache {
    /// A cache holding at most `capacity` built plans, recording into a
    /// fresh collecting registry.
    pub fn new(capacity: usize) -> Self {
        PlanCache::with_metrics(capacity, Metrics::collecting())
    }

    /// A cache recording into a shared metrics registry (cached
    /// reconstructors record their kernel/solver metrics there too).
    pub fn with_metrics(capacity: usize, metrics: Metrics) -> Self {
        PlanCache {
            state: Mutex::named(
                "serve/cache/state",
                CacheState {
                    map: HashMap::new(),
                    tick: 0,
                },
            ),
            capacity: capacity.max(1),
            metrics,
        }
    }

    /// The reconstructor for `spec`: the cached one when the key is
    /// already present (a hit — no preprocessing runs), otherwise built,
    /// validated, inserted and returned. A miss at capacity evicts the
    /// least-recently-used entry *before* it builds, so the cache never
    /// holds more than `capacity` plans at once; a build that fails has
    /// still cost that entry. The build happens under the cache lock, so
    /// concurrent requests for the same new key build once.
    pub fn get(&self, spec: &PlanSpec) -> Result<Arc<Reconstructor>, BuildError> {
        self.get_detailed(spec).map(|(rec, _)| rec)
    }

    /// [`get`](Self::get), also reporting whether the lookup was a hit.
    pub fn get_detailed(&self, spec: &PlanSpec) -> Result<(Arc<Reconstructor>, bool), BuildError> {
        let key = spec.key();
        let mut state = self.state.lock();
        state.tick += 1;
        let tick = state.tick;
        if let Some(entry) = state.map.get_mut(&key) {
            entry.last_used = tick;
            self.metrics.counter_add(CACHE_HIT, 1);
            return Ok((entry.rec.clone(), true));
        }
        self.metrics.counter_add(CACHE_MISS, 1);
        while state.map.len() >= self.capacity {
            // Evict the least-recently-used entry; in-flight borrowers
            // keep their Arc alive until they drop it.
            let Some(oldest) = state
                .map
                .iter()
                .min_by_key(|(_, e)| e.last_used)
                .map(|(k, _)| *k)
            else {
                break;
            };
            state.map.remove(&oldest);
            self.metrics.counter_add(CACHE_EVICT, 1);
        }
        let rec = Arc::new(spec.build(&self.metrics)?);
        state.map.insert(
            key,
            Entry {
                rec: rec.clone(),
                last_used: tick,
            },
        );
        Ok((rec, false))
    }

    /// Whether a plan for `spec` is currently cached (does not touch the
    /// LRU clock or counters).
    pub fn contains(&self, spec: &PlanSpec) -> bool {
        let state = self.state.lock();
        state.map.contains_key(&spec.key())
    }

    /// Number of cached plans.
    pub fn len(&self) -> usize {
        let state = self.state.lock();
        state.map.len()
    }

    /// Whether the cache is empty.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Maximum number of cached plans.
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// The shared metrics handle (counters: `cache/{hit,miss,evict}`).
    pub fn metrics_handle(&self) -> &Metrics {
        &self.metrics
    }

    /// Snapshot of everything recorded: cache counters plus whatever the
    /// cached reconstructors recorded while solving.
    pub fn metrics(&self) -> MetricsSnapshot {
        self.metrics.snapshot()
    }
}
