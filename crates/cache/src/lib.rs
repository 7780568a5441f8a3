//! The HET cache embedding table (paper §3.1–§3.2, §4.3).
//!
//! Each worker holds a bounded cache of hot embeddings. A cached
//! embedding `x_k^i` carries two Lamport clocks:
//!
//! * `c_s` — the *start clock*: the global clock observed when the entry
//!   was last fetched from the server;
//! * `c_c` — the *current clock*: incremented by one every time this
//!   worker updates the embedding locally.
//!
//! Writes are **stale**: `update` applies the gradient to the local copy
//! immediately (read-my-updates) while accumulating the raw gradient in
//! a pending buffer that only reaches the server when the entry is
//! evicted or invalidated — this write-back behaviour is the half of the
//! paper's consistency model that distinguishes it from SSP.
//!
//! Validity of a cached entry (paper `Het.Cache.CheckValid`) is the
//! conjunction of two clock bounds with staleness threshold `s`:
//! `c_c ≤ c_s + s` (locally checkable) and `c_g ≤ c_c + s` (requires a
//! clock-only round trip, which `het-core` charges to the network).
//!
//! Eviction is pluggable — five policies behind one trait: the paper's
//! pair ([`policy::LruPolicy`], [`policy::LfuPolicy`]) and its §4.3
//! [`policy::LightLfuPolicy`] that promotes hot keys to a direct-access
//! set, plus [`policy::ClockPolicy`] (cheap recency) and
//! [`policy::LfudaPolicy`] (frequency aging).

#![warn(missing_docs)]

pub mod entry;
pub mod policy;
pub mod stats;
pub mod table;

pub use entry::{CacheEntry, EvictedEntry};
pub use policy::{
    CachePolicy, ClockPolicy, LfuPolicy, LfudaPolicy, LightLfuPolicy, LruPolicy, PolicyKind,
    DEFAULT_LIGHT_LFU_THRESHOLD,
};
pub use stats::CacheStats;
pub use table::CacheTable;

/// An embedding key (feature ID).
pub type Key = u64;
