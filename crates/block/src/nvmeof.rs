//! An NVMe-over-Fabrics remote block device.

use fluidmem_mem::PageContents;
use fluidmem_sim::{LatencyModel, SimClock, SimDuration, SimRng};

use crate::device::{BlockDevice, BlockError, BlockStats, Completion, QueueedStore};

/// An NVMe-over-Fabrics target reached over FDR InfiniBand RDMA — the
/// swap device the paper uses to stand in for Infiniswap-class remote
/// paging (§VI-A: a 10 GB `/dev/pmem0` region on another server exported
/// via NVMeoF).
///
/// A 4 KB read costs ≈16 µs: host submission and doorbell, fabric round
/// trip, target-side NVMe emulation over pmem, and the completion
/// interrupt. Combined with the guest swap path this yields the paper's
/// ≈41.7 µs average pmbench fault latency (Figure 3e).
///
/// # Example
///
/// ```
/// use fluidmem_block::{BlockDevice, NvmeofDevice};
/// use fluidmem_mem::PageContents;
/// use fluidmem_sim::{SimClock, SimRng};
///
/// let mut dev = NvmeofDevice::new(1024, SimClock::new(), SimRng::seed_from_u64(1));
/// dev.write_sync(0, PageContents::Token(1))?;
/// assert_eq!(dev.read_sync(0)?, PageContents::Token(1));
/// # Ok::<(), fluidmem_block::BlockError>(())
/// ```
#[derive(Debug)]
pub struct NvmeofDevice {
    inner: QueueedStore,
    read_latency: LatencyModel,
    write_latency: LatencyModel,
    submit_cost: SimDuration,
}

impl NvmeofDevice {
    /// Creates a target with `capacity_blocks` 4 KB blocks.
    pub fn new(capacity_blocks: u64, clock: SimClock, rng: SimRng) -> Self {
        NvmeofDevice {
            inner: QueueedStore::new(capacity_blocks, 32, clock, rng),
            // fabric RTT + target service, with a modest tail from target
            // CPU scheduling.
            read_latency: LatencyModel::lognormal_mean_p99_us(14.5, 34.0),
            write_latency: LatencyModel::lognormal_mean_p99_us(13.0, 30.0),
            // Host-side submission: queue entry + doorbell + IRQ handling.
            submit_cost: SimDuration::from_nanos(1_800),
        }
    }
}

impl BlockDevice for NvmeofDevice {
    fn name(&self) -> &'static str {
        "nvmeof"
    }

    fn capacity_blocks(&self) -> u64 {
        self.inner.capacity()
    }

    fn submit_read(&mut self, block: u64) -> Result<Completion, BlockError> {
        self.inner.check_range(block)?;
        let at = self.inner.schedule(self.submit_cost, &self.read_latency);
        self.inner.stats.reads.inc();
        let data = self
            .inner
            .blocks
            .get(&block)
            .cloned()
            .unwrap_or(PageContents::Zero);
        Ok(Completion { data, at })
    }

    fn submit_write(&mut self, block: u64, data: PageContents) -> Result<Completion, BlockError> {
        self.inner.check_range(block)?;
        let at = self.inner.schedule(self.submit_cost, &self.write_latency);
        self.inner.stats.writes.inc();
        self.inner.blocks.insert(block, data);
        Ok(Completion {
            data: PageContents::Zero,
            at,
        })
    }

    fn submit_write_background(
        &mut self,
        block: u64,
        data: PageContents,
    ) -> Result<Completion, BlockError> {
        self.inner.check_range(block)?;
        let at = self.inner.schedule_background(&self.write_latency);
        self.inner.stats.writes.inc();
        self.inner.blocks.insert(block, data);
        Ok(Completion {
            data: PageContents::Zero,
            at,
        })
    }

    fn clock(&self) -> &SimClock {
        &self.inner.clock
    }

    fn stats(&self) -> BlockStats {
        self.inner.stats.snapshot()
    }

    fn instrument(&mut self, registry: &fluidmem_telemetry::Registry) {
        self.inner.stats.register_device(registry, self.name());
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use fluidmem_sim::stats::Sample;

    #[test]
    fn read_latency_matches_calibration() {
        let clock = SimClock::new();
        let mut dev = NvmeofDevice::new(1 << 16, clock.clone(), SimRng::seed_from_u64(3));
        let mut s = Sample::new();
        for i in 0..5_000u64 {
            let t0 = clock.now();
            dev.read_sync(i % 1024).unwrap();
            s.record((clock.now() - t0).as_micros_f64());
        }
        assert!((s.mean() - 16.3).abs() < 1.5, "mean {}", s.mean());
    }

    #[test]
    fn slower_than_pmem_faster_than_nothing() {
        let c1 = SimClock::new();
        let mut nv = NvmeofDevice::new(64, c1.clone(), SimRng::seed_from_u64(1));
        let t0 = c1.now();
        nv.read_sync(0).unwrap();
        let nv_cost = c1.now() - t0;

        let c2 = SimClock::new();
        let mut pm = crate::PmemDevice::new(64, c2.clone(), SimRng::seed_from_u64(1));
        let t0 = c2.now();
        pm.read_sync(0).unwrap();
        assert!(nv_cost > (c2.now() - t0) * 5);
    }

    #[test]
    fn data_integrity_across_fabric() {
        let mut dev = NvmeofDevice::new(64, SimClock::new(), SimRng::seed_from_u64(1));
        let page = PageContents::from_byte_fill(0xC3);
        dev.write_sync(5, page.clone()).unwrap();
        assert_eq!(dev.read_sync(5).unwrap(), page);
    }
}
