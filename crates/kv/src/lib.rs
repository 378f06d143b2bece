//! Key-value store backends for FluidMem's remote memory.
//!
//! FluidMem "interfaces with key-value stores via a generic API that
//! supports partitions and allows multiple VMs to share the same key-value
//! store" (paper §IV). This crate provides that API, [`KeyValueStore`],
//! including the split *top-half/bottom-half* asynchronous calls
//! ([`KeyValueStore::begin_get`] / [`KeyValueStore::finish_get`]) that the
//! monitor's §V-B optimizations interleave with `UFFD_REMAP`.
//!
//! A backend is a [`StorageEngine`] behind the one [`LeafStore`] front
//! that charges its transport. The three of the paper's evaluation:
//!
//! * [`RamCloudStore`] — a log with a hash-table index, a segment cleaner
//!   and RAMCloud's `multiWrite`, over kernel-bypass InfiniBand verbs
//!   (~10 µs round trips; Table I's `READ_PAGE` = 15.62 µs).
//! * [`MemcachedStore`] — slab classes with per-class LRU eviction over
//!   TCP/IP-over-InfiniBand (tens of µs). Like real memcached it *evicts
//!   under memory pressure*, which the monitor must treat as data loss.
//! * [`DramStore`] — an in-process table (the paper's "FluidMem DRAM"
//!   baseline) with sub-microsecond access.
//!
//! Wrappers ([`CompressedStore`], [`FaultInjectingStore`],
//! [`ReplicatedStore`], [`ClusterStore`], the [`Shared`] handle) take
//! any store and state only the operations they change.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod cluster;
mod compress;
#[cfg(test)]
mod conformance;
mod dram;
mod error;
mod fault;
mod key;
mod leaf;
mod memcached;
mod pending;
mod ramcloud;
mod replicated;
mod retry;
mod ring;
mod shared;
mod stats;
mod store;
mod transport;

pub use cluster::{AuditReport, ClusterCounters, ClusterHandle, ClusterStore};
pub use compress::{
    compress_cost, decompress_cost, rle_compress, rle_len, stored_page_size, CompressedStore,
    TOKEN_STORED_BYTES,
};
pub use dram::DramStore;
pub use error::KvError;
pub use fault::FaultInjectingStore;
pub use key::ExternalKey;
pub use leaf::{LeafStore, StorageEngine};
pub use memcached::MemcachedStore;
pub use pending::{PendingGet, PendingWrite};
pub use ramcloud::RamCloudStore;
pub use replicated::ReplicatedStore;
pub use retry::{retry_backoff, run_with_retries_from, RETRY_MAX_ATTEMPTS};
pub use ring::NodeId;
pub use shared::{Shared, SharedStore};
pub use stats::{StoreCounters, StoreStats};
pub use store::KeyValueStore;
pub use transport::TransportModel;

/// The series every instrument set this crate declares exports.
pub const CATALOGUE: &[&[fluidmem_telemetry::CatalogueRow]] = &[
    StoreCounters::CATALOGUE,
    fault::FaultInjectionCounters::CATALOGUE,
    replicated::ReplicationCounters::CATALOGUE,
    ClusterCounters::CATALOGUE,
    cluster::NodeCounters::CATALOGUE,
];
