//! The per-VM signals a host-level DRAM arbiter reads.
//!
//! A host agent running N monitors over one shared store (the
//! `fluidmem-host` crate) periodically decides how to split host DRAM
//! between the VMs' LRU buffers. [`VmSignals`] is the snapshot it reads
//! per VM: access/fault counters, residency, and write-back pressure —
//! everything needed to compute fault rates and hit ratios over a
//! rebalance window via [`VmSignals::window_since`].

fluidmem_telemetry::instrument_set! {
    /// A point-in-time snapshot of one VM's memory behavior, as seen by
    /// the backend ([`FluidMemMemory::signals`](crate::FluidMemMemory::signals)).
    /// Counters are monotone; gauges are instantaneous levels.
    pub snapshot VmSignals {
        counters {
            accesses: "Guest accesses observed in total (hits + faults).";
            hits: "Accesses served without any monitor involvement.";
            minor_faults: "Minor faults (CoW breaks, zero fills, write-list steals).";
            major_faults: "Major faults (the monitor had to consult the remote store path).";
            remote_reads: "Faults that performed an actual remote read.";
            refaults_measured: "Refaults whose shadow entry was live (distance measured).";
            thrash_refaults: "Measured refaults inside the working-set estimate — the faults extra \
                capacity would actually have avoided. The refault-proportional arbiter weighs this.";
            background_reclaims: "Pages evicted by the watermark-driven background reclaimer.";
            direct_reclaims: "Pages evicted inline with background reclaim enabled — nonzero means \
                the evictor fell behind and faults paid for eviction.";
            tier_hits: "Refaults resolved from the compressed local tier (no network round trip).";
            tier_demotions: "Pages demoted from the compressed tier to the remote store under pool \
                pressure.";
            prefetch_issued: "Speculative reads issued by the VM's prefetch policy.";
            prefetch_hits: "Prefetched pages the guest actually touched. With `prefetch_issued` this \
                gives the arbiter the VM's prefetch accuracy over a window — speculation that isn't \
                paying off is remote-read bandwidth the host can take back.";
        }
        gauges {
            resident_pages: "Pages currently resident in the VM's LRU buffer.";
            capacity_pages: "The LRU capacity currently granted to this VM.";
            pending_writes: "Pages waiting on the VM's asynchronous write list.";
            wss_estimate_pages: "The monitor's working-set-size estimate in pages.";
            tier_pool_bytes: "Compressed bytes currently charged to the VM's tier pool.";
        }
    }
}

impl VmSignals {
    /// Fraction of accesses served locally; `1.0` when idle (an idle VM
    /// should look cheap to the arbiter, not pathological).
    pub fn hit_ratio(&self) -> f64 {
        if self.accesses == 0 {
            1.0
        } else {
            self.hits as f64 / self.accesses as f64
        }
    }

    /// The delta of the monotone counters since `baseline`, carrying the
    /// instantaneous gauges (residency, capacity, pending writes) from
    /// `self`. This is the per-window view an arbiter rebalances on.
    pub fn window_since(&self, baseline: &VmSignals) -> VmSignals {
        self.since(baseline)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn idle_vm_looks_cheap() {
        let s = VmSignals::default();
        assert_eq!(s.hit_ratio(), 1.0);
    }

    #[test]
    fn ratios() {
        let s = VmSignals {
            accesses: 10,
            hits: 6,
            minor_faults: 1,
            major_faults: 3,
            remote_reads: 2,
            ..Default::default()
        };
        assert!((s.hit_ratio() - 0.6).abs() < 1e-12);
    }

    /// The five levels are declared as gauges: a window carries them and
    /// subtracts everything else.
    #[test]
    fn window_carries_the_levels_and_subtracts_the_counters() {
        let base = VmSignals {
            accesses: 100,
            prefetch_hits: 4,
            resident_pages: 32,
            capacity_pages: 64,
            pending_writes: 3,
            wss_estimate_pages: 70,
            tier_pool_bytes: 4096,
            ..Default::default()
        };
        let now = VmSignals {
            accesses: 150,
            prefetch_hits: 14,
            resident_pages: 48,
            capacity_pages: 64,
            pending_writes: 1,
            wss_estimate_pages: 90,
            tier_pool_bytes: 8192,
            ..Default::default()
        };
        let expected = VmSignals {
            accesses: 50,
            prefetch_hits: 10,
            ..now
        };
        assert_eq!(now.window_since(&base), expected);
    }
}
