//! Trace-driven set-associative LRU cache simulator.
//!
//! The paper measures L2 miss rates with Intel VTune (§4.2, Fig 9(b)) and
//! illustrates cache behaviour of the two orderings with a worked example
//! (Fig 5). We have no VTune, so we model the caches explicitly: the miss
//! rate of an access sequence against a set-associative LRU cache is a
//! well-defined quantity this simulator computes exactly.
//!
//! Presets match the machines of Table 2: KNL (32 KB L1, 1 MB L2 per
//! tile), K80 (1.5 MB L2), P100 (4 MB L2), V100 (6 MB L2).

#![warn(missing_docs)]
#![forbid(unsafe_code)]

mod cache;
mod trace;

pub use cache::{CacheConfig, CacheSim, CacheStats};
pub use trace::{spmv_irregular_miss_rate, spmv_irregular_trace};
