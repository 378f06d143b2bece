//! The generic key-value store API (paper §IV).

use fluidmem_mem::PageContents;
use fluidmem_telemetry::Registry;

use crate::error::KvError;
use crate::key::ExternalKey;
use crate::pending::{PendingGet, PendingWrite};
use crate::stats::StoreStats;

/// The generic, partition-aware store interface FluidMem's monitor uses.
///
/// Two call styles are offered:
///
/// * **synchronous** — [`get`](KeyValueStore::get) /
///   [`put`](KeyValueStore::put) charge the full round trip on the
///   caller's critical path (the monitor's unoptimized "Default" mode in
///   Table II);
/// * **asynchronous top/bottom halves** —
///   [`begin_get`](KeyValueStore::begin_get) issues the request and
///   returns immediately; the response lands in the background and
///   [`finish_get`](KeyValueStore::finish_get) waits only for whatever
///   remains. The §V-B optimizations run `UFFD_REMAP` and LRU bookkeeping
///   between the halves, hiding the network wait.
///
/// Implementations are single-writer (the monitor) in this reproduction;
/// multiple VMs share a store through distinct
/// [`partition`](ExternalKey::partition)s.
#[allow(clippy::len_without_is_empty)] // `len` sizes a store; nothing asks if it is empty
pub trait KeyValueStore {
    /// Short backend name (`"ramcloud"`, `"memcached"`, `"dram"`).
    fn name(&self) -> &'static str;

    /// Synchronous read.
    ///
    /// # Errors
    ///
    /// [`KvError::NotFound`] if the key is absent (or was evicted, for
    /// cache-style backends).
    fn get(&mut self, key: ExternalKey) -> Result<PageContents, KvError> {
        let pending = self.begin_get(key);
        self.finish_get(pending)
    }

    /// Synchronous single-object write.
    ///
    /// # Errors
    ///
    /// [`KvError::OutOfCapacity`] if the store cannot accept the object.
    fn put(&mut self, key: ExternalKey, value: PageContents) -> Result<(), KvError>;

    /// Removes an object; returns whether it existed.
    fn delete(&mut self, key: ExternalKey) -> bool;

    /// Synchronous batch write (RAMCloud `multiWrite`): one round trip
    /// for the whole batch.
    ///
    /// # Errors
    ///
    /// [`KvError::OutOfCapacity`] if the store cannot accept the batch.
    fn multi_write(&mut self, batch: Vec<(ExternalKey, PageContents)>) -> Result<(), KvError> {
        let pending = self.begin_multi_write(batch)?;
        self.finish_write(pending);
        Ok(())
    }

    /// Issues an asynchronous read (top half). The caller may do other
    /// work before calling [`finish_get`](KeyValueStore::finish_get).
    fn begin_get(&mut self, key: ExternalKey) -> PendingGet;

    /// Completes an asynchronous read (bottom half), waiting in virtual
    /// time only if the response has not yet arrived.
    ///
    /// # Errors
    ///
    /// [`KvError::NotFound`] if the key was absent when the server
    /// processed the request.
    fn finish_get(&mut self, pending: PendingGet) -> Result<PageContents, KvError>;

    /// Issues an asynchronous batch write (top half).
    ///
    /// # Errors
    ///
    /// [`KvError::OutOfCapacity`] if the store cannot accept the batch.
    fn begin_multi_write(
        &mut self,
        batch: Vec<(ExternalKey, PageContents)>,
    ) -> Result<PendingWrite, KvError>;

    /// Completes an asynchronous write, waiting if necessary.
    fn finish_write(&mut self, pending: PendingWrite);

    /// Drops every object in a partition (VM shutdown).
    fn drop_partition(&mut self, partition: fluidmem_coord::PartitionId) -> u64;

    /// Number of live objects.
    fn len(&self) -> usize;

    /// Maintenance hook: every key currently stored under `partition`,
    /// sorted ascending so callers iterate deterministically. Charges no
    /// virtual time — this is the snapshot a cluster migration copier
    /// takes, off the fault path.
    fn partition_keys(&self, partition: fluidmem_coord::PartitionId) -> Vec<ExternalKey>;

    /// Maintenance hook: the current value of a key, without charging
    /// time or consuming randomness. The migration copier reads pages
    /// through this so a background copy never advances the shared
    /// clock; transfer time is accounted on the copier's own timeline.
    /// Audits ask `peek(key).is_some()` for presence.
    fn peek(&self, key: ExternalKey) -> Option<PageContents>;

    /// Maintenance hook: installs a value without charging time (the
    /// receiving side of a migration copy).
    ///
    /// # Errors
    ///
    /// [`KvError::OutOfCapacity`] if the store cannot accept the object;
    /// [`KvError::Unavailable`] from stores that do not support
    /// maintenance ingestion (the default).
    fn ingest(&mut self, _key: ExternalKey, _value: PageContents) -> Result<(), KvError> {
        Err(KvError::Unavailable)
    }

    /// Maintenance hook: removes a key without charging time (propagating
    /// a concurrent delete to a migration target); returns whether it
    /// existed. The default removes nothing.
    fn expunge(&mut self, _key: ExternalKey) -> bool {
        false
    }

    /// Operation counters.
    fn stats(&self) -> StoreStats;

    /// Registers this store's live counters in `registry` (see
    /// [`StoreCounters::register`](crate::StoreCounters::register)).
    /// Wrapper stores forward to what they wrap.
    fn instrument(&mut self, registry: &Registry);
}

/// Writes the pass-through methods of a [`KeyValueStore`] that wraps
/// another one, so a wrapper states only the operations it changes.
/// Called inside the `impl` block as
/// `forward!(self, <shared access>, <exclusive access>; <methods>)`,
/// where `all` stands for every required or maintenance method.
macro_rules! forward {
    ($s:ident, $r:expr, $m:expr; all) => {
        forward!($s, $r, $m; name put delete begin_get finish_get begin_multi_write
            finish_write drop_partition len partition_keys peek ingest expunge
            stats instrument);
    };
    ($s:ident, $r:expr, $m:expr; $($method:ident)+) => {
        $(forward!(@$method $s, $r, $m);)+
    };
    (@name $s:ident, $r:expr, $m:expr) => {
        fn name(&$s) -> &'static str {
            $r.name()
        }
    };
    (@put $s:ident, $r:expr, $m:expr) => {
        fn put(
            &mut $s,
            key: $crate::ExternalKey,
            value: fluidmem_mem::PageContents,
        ) -> Result<(), $crate::KvError> {
            $m.put(key, value)
        }
    };
    (@delete $s:ident, $r:expr, $m:expr) => {
        fn delete(&mut $s, key: $crate::ExternalKey) -> bool {
            $m.delete(key)
        }
    };
    (@begin_get $s:ident, $r:expr, $m:expr) => {
        fn begin_get(&mut $s, key: $crate::ExternalKey) -> $crate::PendingGet {
            $m.begin_get(key)
        }
    };
    (@finish_get $s:ident, $r:expr, $m:expr) => {
        fn finish_get(
            &mut $s,
            pending: $crate::PendingGet,
        ) -> Result<fluidmem_mem::PageContents, $crate::KvError> {
            $m.finish_get(pending)
        }
    };
    (@begin_multi_write $s:ident, $r:expr, $m:expr) => {
        fn begin_multi_write(
            &mut $s,
            batch: Vec<($crate::ExternalKey, fluidmem_mem::PageContents)>,
        ) -> Result<$crate::PendingWrite, $crate::KvError> {
            $m.begin_multi_write(batch)
        }
    };
    (@finish_write $s:ident, $r:expr, $m:expr) => {
        fn finish_write(&mut $s, pending: $crate::PendingWrite) {
            $m.finish_write(pending)
        }
    };
    (@drop_partition $s:ident, $r:expr, $m:expr) => {
        fn drop_partition(&mut $s, partition: fluidmem_coord::PartitionId) -> u64 {
            $m.drop_partition(partition)
        }
    };
    (@len $s:ident, $r:expr, $m:expr) => {
        fn len(&$s) -> usize {
            $r.len()
        }
    };
    (@partition_keys $s:ident, $r:expr, $m:expr) => {
        fn partition_keys(
            &$s,
            partition: fluidmem_coord::PartitionId,
        ) -> Vec<$crate::ExternalKey> {
            $r.partition_keys(partition)
        }
    };
    (@peek $s:ident, $r:expr, $m:expr) => {
        fn peek(&$s, key: $crate::ExternalKey) -> Option<fluidmem_mem::PageContents> {
            $r.peek(key)
        }
    };
    (@ingest $s:ident, $r:expr, $m:expr) => {
        fn ingest(
            &mut $s,
            key: $crate::ExternalKey,
            value: fluidmem_mem::PageContents,
        ) -> Result<(), $crate::KvError> {
            $m.ingest(key, value)
        }
    };
    (@expunge $s:ident, $r:expr, $m:expr) => {
        fn expunge(&mut $s, key: $crate::ExternalKey) -> bool {
            $m.expunge(key)
        }
    };
    (@stats $s:ident, $r:expr, $m:expr) => {
        fn stats(&$s) -> $crate::StoreStats {
            $r.stats()
        }
    };
    (@instrument $s:ident, $r:expr, $m:expr) => {
        fn instrument(&mut $s, registry: &fluidmem_telemetry::Registry) {
            $m.instrument(registry)
        }
    };
}
pub(crate) use forward;

impl<S: KeyValueStore + ?Sized> KeyValueStore for Box<S> {
    forward!(self, **self, **self; all);
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn trait_is_object_safe() {
        fn _takes_object(_s: &mut dyn KeyValueStore) {}
    }
}
