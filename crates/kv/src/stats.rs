//! Per-store operation counters.
//!
//! Store backends increment [`StoreCounters`] — shared telemetry
//! handles — and [`StoreStats`] is the point-in-time snapshot those
//! handles produce. Registering a store's counters
//! ([`KeyValueStore::instrument`](crate::KeyValueStore::instrument))
//! exports the same handles under
//! [`consts::STORE_OPS`](fluidmem_telemetry::consts::STORE_OPS), so the
//! stats surface and the metrics endpoint cannot drift apart.

use fluidmem_telemetry::instrument_set;

impl StoreStats {
    /// Total objects written by any means.
    pub fn total_puts(&self) -> u64 {
        self.puts + self.batched_puts
    }
}

instrument_set! {
    /// A store backend's live instrument handles (see the module docs):
    /// one counter per operation kind plus client-observed latency
    /// histograms for the three round-trip operations. `register` takes
    /// the backend's name as the runtime `store` label.
    pub struct StoreCounters {
        counters {
            gets: STORE_OPS[LABEL_OP = "get"], "Successful reads.";
            get_misses: STORE_OPS[LABEL_OP = "get_miss"], "Reads that missed (not found / evicted).";
            puts: STORE_OPS[LABEL_OP = "put"], "Single-object writes.";
            batched_puts: STORE_OPS[LABEL_OP = "batched_put"],
                "Objects written through batch (`multiWrite`) operations.";
            multi_writes: STORE_OPS[LABEL_OP = "multi_write"], "Batch operations issued.";
            deletes: STORE_OPS[LABEL_OP = "delete"], "Objects removed by `delete`.";
            evictions: STORE_OPS[LABEL_OP = "eviction"],
                "Objects dropped by cache eviction (memcached) — data loss.";
            cleanings: STORE_OPS[LABEL_OP = "cleaning"], "Log-cleaner passes (RAMCloud).";
            recoveries: STORE_OPS[LABEL_OP = "recovery"], "Crash-recovery replays (RAMCloud).";
            faults_injected: STORE_OPS[LABEL_OP = "fault_injected"],
                "Faults injected by a fault-injecting wrapper, of any kind.";
            timeouts: STORE_OPS[LABEL_OP = "timeout"],
                "Operations that returned [`KvError::Timeout`](crate::KvError).";
            unavailables: STORE_OPS[LABEL_OP = "unavailable"],
                "Operations refused as [`KvError::Unavailable`](crate::KvError).";
            failovers: STORE_OPS[LABEL_OP = "failover"],
                "Operations redirected to another replica after a fault.";
        }
        histograms {
            get_latency: STORE_OP_LATENCY_US[LABEL_OP = "get"],
                "Full get round-trip latency (issue → bottom half done).";
            put_latency: STORE_OP_LATENCY_US[LABEL_OP = "put"],
                "Single-object put round-trip latency.";
            multi_write_latency: STORE_OP_LATENCY_US[LABEL_OP = "multi_write"],
                "Batch multi-write round-trip latency.";
        }
    }
    /// A point-in-time snapshot of a store backend's counters.
    pub struct StoreStats;
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn total_puts_sums_both_paths() {
        let s = StoreStats {
            puts: 3,
            batched_puts: 7,
            ..Default::default()
        };
        assert_eq!(s.total_puts(), 10);
    }
}
