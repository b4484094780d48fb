//! # uhm-memsim — memory-hierarchy substrate
//!
//! The memory subsystems Rau (1978) assumes: a two-level store with the
//! Section-7 cost parameters ([`hierarchy`]), the set-associative LRU
//! instruction cache of the T3 baseline and the geometry the DTB shares
//! with it ([`cache`]), and Denning working-set / LRU stack-distance
//! analysis of reference traces ([`workset`]) backing the paper's
//! locality argument.
//!
//! # Example
//!
//! ```
//! use memsim::cache::{Access, Geometry, SetAssocCache};
//!
//! let mut cache = SetAssocCache::new(Geometry::new(64, 4));
//! assert!(matches!(cache.access(0x1234), Access::Miss { .. }));
//! assert_eq!(cache.access(0x1234), Access::Hit);
//! ```

#![warn(missing_docs)]

pub mod cache;
pub mod hierarchy;
pub mod workset;

pub use cache::{Access, CacheStats, Geometry, SetAssocCache};
pub use hierarchy::MemoryCosts;
