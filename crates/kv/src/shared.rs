//! A shareable handle to one store (many monitors, one remote memory).

use std::cell::RefCell;
use std::rc::Rc;

use crate::store::{forward, KeyValueStore};

/// A cheaply clonable handle to one store of type `S`: every clone
/// operates on the same underlying store. [`SharedStore`] and
/// [`ClusterHandle`](crate::ClusterHandle) are this type.
pub struct Shared<S> {
    inner: Rc<RefCell<S>>,
}

/// A cheaply clonable handle to a single underlying store, so multiple
/// monitors — e.g. the source and destination hypervisors of a live
/// migration, or "multiple VMs \[sharing\] the same key-value store"
/// (§IV) — operate on the *same* remote memory.
///
/// # Example
///
/// ```
/// use fluidmem_coord::PartitionId;
/// use fluidmem_kv::{DramStore, ExternalKey, KeyValueStore, SharedStore};
/// use fluidmem_mem::{PageContents, Vpn};
/// use fluidmem_sim::{SimClock, SimRng};
///
/// let clock = SimClock::new();
/// let shared = SharedStore::new(Box::new(DramStore::new(
///     1 << 24,
///     clock.clone(),
///     SimRng::seed_from_u64(1),
/// )));
/// let mut host_a = shared.handle();
/// let mut host_b = shared.handle();
/// let key = ExternalKey::new(Vpn::new(1), PartitionId::new(0));
/// host_a.put(key, PageContents::Token(7))?;
/// assert_eq!(host_b.get(key)?, PageContents::Token(7));
/// # Ok::<(), fluidmem_kv::KvError>(())
/// ```
pub type SharedStore = Shared<Box<dyn KeyValueStore>>;

impl<S> Shared<S> {
    /// Wraps a store for sharing.
    pub fn new(store: S) -> Self {
        Shared {
            inner: Rc::new(RefCell::new(store)),
        }
    }

    /// Another handle to the same store.
    pub fn handle(&self) -> Self {
        Shared {
            inner: Rc::clone(&self.inner),
        }
    }

    /// Runs `f` with exclusive access to the store, for what the
    /// [`KeyValueStore`] face does not cover.
    pub fn with<R>(&self, f: impl FnOnce(&mut S) -> R) -> R {
        f(&mut self.inner.borrow_mut())
    }
}

impl<S> Clone for Shared<S> {
    fn clone(&self) -> Self {
        self.handle()
    }
}

impl<S: KeyValueStore> KeyValueStore for Shared<S> {
    forward!(self, self.inner.borrow(), self.inner.borrow_mut(); all);
}

impl<S: KeyValueStore> std::fmt::Debug for Shared<S> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Shared")
            .field("store", &self.name())
            .field("len", &self.len())
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{DramStore, ExternalKey};
    use fluidmem_coord::PartitionId;
    use fluidmem_mem::PageContents;
    use fluidmem_mem::Vpn;
    use fluidmem_sim::{SimClock, SimRng};
    use fluidmem_telemetry::Registry;

    #[test]
    fn handles_see_each_others_writes() {
        let clock = SimClock::new();
        let shared = SharedStore::new(Box::new(DramStore::new(
            1 << 20,
            clock,
            SimRng::seed_from_u64(1),
        )));
        let mut a = shared.handle();
        let mut b = shared.handle();
        let key = ExternalKey::new(Vpn::new(3), PartitionId::new(1));
        a.put(key, PageContents::Token(42)).unwrap();
        assert!(b.peek(key).is_some());
        assert!(b.delete(key));
        assert!(a.peek(key).is_none());
    }

    #[test]
    fn stats_are_shared() {
        let clock = SimClock::new();
        let shared = SharedStore::new(Box::new(DramStore::new(
            1 << 20,
            clock,
            SimRng::seed_from_u64(1),
        )));
        let mut a = shared.handle();
        let key = ExternalKey::new(Vpn::new(1), PartitionId::new(0));
        a.put(key, PageContents::Zero).unwrap();
        assert_eq!(shared.handle().stats().puts, 1);
        assert_eq!(shared.len(), 1);
    }

    #[test]
    fn two_handle_stats_aggregate_without_double_counting() {
        use fluidmem_telemetry::consts;

        let clock = SimClock::new();
        let shared = SharedStore::new(Box::new(DramStore::new(
            1 << 20,
            clock,
            SimRng::seed_from_u64(1),
        )));
        let mut a = shared.handle();
        let mut b = shared.handle();

        // Each handle attaches its own registry — the multi-monitor
        // shape, where every monitor instruments its store clone.
        let reg_a = Registry::new();
        let reg_b = Registry::new();
        a.instrument(&reg_a);
        b.instrument(&reg_b);

        // 3 puts + 2 gets through `a`, 5 puts + 4 gets through `b`.
        let key = |i: u64| ExternalKey::new(Vpn::new(i), PartitionId::new(0));
        for i in 0..3 {
            a.put(key(i), PageContents::Token(i)).unwrap();
        }
        for i in 3..8 {
            b.put(key(i), PageContents::Token(i)).unwrap();
        }
        for i in 0..2 {
            a.get(key(i)).unwrap();
        }
        for i in 2..6 {
            b.get(key(i)).unwrap();
        }

        // One inner store, one set of counters: every view agrees on the
        // sum of per-handle issued ops.
        let stats = shared.stats();
        assert_eq!(stats.puts, 3 + 5);
        assert_eq!(stats.gets, 2 + 4);
        let labels = |op: &'static str| [(consts::LABEL_STORE, "dram"), (consts::LABEL_OP, op)];
        for reg in [&reg_a, &reg_b] {
            assert_eq!(reg.counter(consts::STORE_OPS, &labels("put")).get(), 8);
            assert_eq!(reg.counter(consts::STORE_OPS, &labels("get")).get(), 6);
            // Latency histograms adopt the same handles: one observation
            // per issued op, not one per attached handle.
            let h = reg.histogram(consts::STORE_OP_LATENCY_US, &labels("get"));
            assert_eq!(h.snapshot().count, 6);
        }
    }

    #[test]
    fn reattaching_a_handle_neither_resets_nor_clobbers_counts() {
        use fluidmem_telemetry::consts;

        let clock = SimClock::new();
        let shared = SharedStore::new(Box::new(DramStore::new(
            1 << 20,
            clock,
            SimRng::seed_from_u64(1),
        )));
        let mut a = shared.handle();
        let mut b = shared.handle();

        let key = ExternalKey::new(Vpn::new(9), PartitionId::new(0));
        a.put(key, PageContents::Zero).unwrap();
        a.get(key).unwrap();

        // Both handles attach to the SAME registry, the second one after
        // ops already flowed: adoption must be idempotent (same live
        // handles), carrying accumulated values instead of replacing
        // them with fresh zeroed instruments.
        let reg = Registry::new();
        a.instrument(&reg);
        b.instrument(&reg);
        let gets = reg.counter(
            consts::STORE_OPS,
            &[(consts::LABEL_STORE, "dram"), (consts::LABEL_OP, "get")],
        );
        assert_eq!(gets.get(), 1, "pre-attach ops carried over exactly once");
        b.get(key).unwrap();
        assert_eq!(gets.get(), 2, "post-attach ops flow through either handle");
        assert_eq!(shared.stats().gets, 2);
    }
}
