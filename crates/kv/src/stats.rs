//! Per-store operation counters.
//!
//! Store backends increment [`StoreCounters`] — shared telemetry
//! handles — and [`StoreStats`] is the point-in-time snapshot those
//! handles produce. Registering a store's counters
//! ([`KeyValueStore::instrument`](crate::KeyValueStore::instrument))
//! exports the same handles under
//! [`consts::STORE_OPS`](fluidmem_telemetry::consts::STORE_OPS), so the
//! stats surface and the metrics endpoint cannot drift apart.

use fluidmem_telemetry::{consts, Counter, Histogram, Registry};

impl StoreStats {
    /// Total objects written by any means.
    pub fn total_puts(&self) -> u64 {
        self.puts + self.batched_puts
    }

    /// Total operations that failed with a retryable error.
    pub fn retryable_failures(&self) -> u64 {
        self.timeouts + self.unavailables
    }
}

macro_rules! store_counters {
    ($(($field:ident, $op:literal, $doc:literal)),+ $(,)?) => {
        /// A point-in-time snapshot of a store backend's counters.
        #[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
        pub struct StoreStats {
            $(#[doc = $doc] pub $field: u64,)+
        }

        /// Field-wise sum, for stores that total several backends or add
        /// counters of their own to a wrapped store's.
        impl std::ops::AddAssign for StoreStats {
            fn add_assign(&mut self, rhs: StoreStats) {
                $(self.$field += rhs.$field;)+
            }
        }

        /// A store backend's live counter handles (see the module docs),
        /// plus client-observed latency histograms for the three
        /// round-trip operations.
        #[derive(Debug, Clone, Default)]
        pub struct StoreCounters {
            $(#[doc = $doc] pub $field: Counter,)+
            /// Full get round-trip latency (issue → bottom half done).
            pub get_latency: Histogram,
            /// Single-object put round-trip latency.
            pub put_latency: Histogram,
            /// Batch multi-write round-trip latency.
            pub multi_write_latency: Histogram,
        }

        /// Visits every [`StoreStats`] field by name and accessor.
        #[cfg(test)]
        fn for_each_field(mut visit: impl FnMut(&str, fn(&mut StoreStats) -> &mut u64)) {
            $(visit(stringify!($field), |s| &mut s.$field);)+
        }

        impl StoreCounters {
            /// Fresh detached counters (not exported anywhere).
            pub fn new() -> Self {
                Self::default()
            }

            /// Registers every counter in `registry` under
            /// [`consts::STORE_OPS`] and every latency histogram under
            /// [`consts::STORE_OP_LATENCY_US`], labeled by `store` and
            /// the operation. Accumulated values carry over: the
            /// registry adopts the live handles.
            pub fn register(&self, registry: &Registry, store: &str) {
                $(registry.adopt_counter(
                    consts::STORE_OPS,
                    &[(consts::LABEL_STORE, store), (consts::LABEL_OP, $op)],
                    &self.$field,
                );)+
                registry.adopt_histogram(
                    consts::STORE_OP_LATENCY_US,
                    &[(consts::LABEL_STORE, store), (consts::LABEL_OP, "get")],
                    &self.get_latency,
                );
                registry.adopt_histogram(
                    consts::STORE_OP_LATENCY_US,
                    &[(consts::LABEL_STORE, store), (consts::LABEL_OP, "put")],
                    &self.put_latency,
                );
                registry.adopt_histogram(
                    consts::STORE_OP_LATENCY_US,
                    &[(consts::LABEL_STORE, store), (consts::LABEL_OP, "multi_write")],
                    &self.multi_write_latency,
                );
            }

            /// A point-in-time snapshot of every counter.
            pub fn snapshot(&self) -> StoreStats {
                StoreStats {
                    $($field: self.$field.get(),)+
                }
            }
        }
    };
}

store_counters! {
    (gets, "get", "Successful reads."),
    (get_misses, "get_miss", "Reads that missed (not found / evicted)."),
    (puts, "put", "Single-object writes."),
    (batched_puts, "batched_put", "Objects written through batch (`multiWrite`) operations."),
    (multi_writes, "multi_write", "Batch operations issued."),
    (deletes, "delete", "Objects removed by `delete`."),
    (evictions, "eviction", "Objects dropped by cache eviction (memcached) — data loss."),
    (cleanings, "cleaning", "Log-cleaner passes (RAMCloud)."),
    (recoveries, "recovery", "Crash-recovery replays (RAMCloud)."),
    (faults_injected, "fault_injected", "Faults injected by a fault-injecting wrapper, of any kind."),
    (timeouts, "timeout", "Operations that returned [`KvError::Timeout`](crate::KvError)."),
    (unavailables, "unavailable", "Operations refused as [`KvError::Unavailable`](crate::KvError)."),
    (failovers, "failover", "Operations redirected to another replica after a fault."),
}

#[cfg(test)]
mod tests {
    use super::*;
    use fluidmem_sim::SimDuration;

    #[test]
    fn total_puts_sums_both_paths() {
        let s = StoreStats {
            puts: 3,
            batched_puts: 7,
            ..Default::default()
        };
        assert_eq!(s.total_puts(), 10);
    }

    #[test]
    fn add_assign_sums_every_field() {
        let (mut a, mut b) = (StoreStats::default(), StoreStats::default());
        let mut n = 0;
        for_each_field(|_, field| {
            n += 1;
            *field(&mut a) = n;
            *field(&mut b) = 100 * n;
        });
        let mut sum = a;
        sum += b;
        for_each_field(|name, field| {
            let (a, b) = (*field(&mut a), *field(&mut b));
            assert_eq!(*field(&mut sum), a + b, "{name} dropped from the sum");
            assert_eq!(b, 100 * a, "{name} shares a slot with another field");
        });
        assert_eq!(n, 13, "one distinct value per counter");
    }

    #[test]
    fn snapshot_reads_live_handles() {
        let c = StoreCounters::new();
        c.gets.add(5);
        c.multi_writes.inc();
        let s = c.snapshot();
        assert_eq!(s.gets, 5);
        assert_eq!(s.multi_writes, 1);
        assert_eq!(s.puts, 0);
    }

    #[test]
    fn registered_counters_are_the_same_handles() {
        let c = StoreCounters::new();
        c.puts.add(2);
        c.get_latency.observe(SimDuration::from_micros(12));
        let reg = Registry::new();
        c.register(&reg, "dram");
        let puts = reg.counter(
            consts::STORE_OPS,
            &[(consts::LABEL_STORE, "dram"), (consts::LABEL_OP, "put")],
        );
        assert_eq!(puts.get(), 2);
        c.puts.inc();
        assert_eq!(puts.get(), 3);
        let lat = reg.histogram(
            consts::STORE_OP_LATENCY_US,
            &[(consts::LABEL_STORE, "dram"), (consts::LABEL_OP, "get")],
        );
        assert_eq!(lat.snapshot().count, 1);
    }
}
