//! A DRAM-backed (`/dev/pmem0`-style) block device.

use fluidmem_mem::PageContents;
use fluidmem_sim::{LatencyModel, SimClock, SimDuration, SimRng};

use crate::device::{BlockDevice, BlockError, BlockStats, Completion, QueueedStore};

/// A byte-addressable DRAM region exposed as a block device — the paper's
/// swap-to-DRAM baseline ("swap backed by local DRAM ... as a lower bound
/// for swap-based approaches", §VI-A) and the `/dev/pmem0` NVMeoF target
/// backing store.
///
/// Latency is a memcpy plus block-layer overhead: ~1.3 µs per 4 KB read.
///
/// # Example
///
/// ```
/// use fluidmem_block::{BlockDevice, PmemDevice};
/// use fluidmem_mem::PageContents;
/// use fluidmem_sim::{SimClock, SimRng};
///
/// let mut dev = PmemDevice::new(1024, SimClock::new(), SimRng::seed_from_u64(1));
/// dev.write_sync(7, PageContents::Token(7))?;
/// assert_eq!(dev.read_sync(7)?, PageContents::Token(7));
/// # Ok::<(), fluidmem_block::BlockError>(())
/// ```
#[derive(Debug)]
pub struct PmemDevice {
    inner: QueueedStore,
    read_latency: LatencyModel,
    write_latency: LatencyModel,
    submit_cost: SimDuration,
}

impl PmemDevice {
    /// Creates a device with `capacity_blocks` 4 KB blocks.
    pub fn new(capacity_blocks: u64, clock: SimClock, rng: SimRng) -> Self {
        PmemDevice {
            inner: QueueedStore::new(capacity_blocks, 64, clock, rng),
            read_latency: LatencyModel::normal_us(0.9, 0.15),
            write_latency: LatencyModel::normal_us(0.8, 0.15),
            submit_cost: SimDuration::from_nanos(400),
        }
    }
}

impl BlockDevice for PmemDevice {
    fn name(&self) -> &'static str {
        "pmem-dram"
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
    use fluidmem_sim::SimDuration;

    #[test]
    fn round_trip_and_unwritten_blocks_read_zero() {
        let mut dev = PmemDevice::new(8, SimClock::new(), SimRng::seed_from_u64(2));
        assert_eq!(dev.read_sync(0).unwrap(), PageContents::Zero);
        dev.write_sync(0, PageContents::from_byte_fill(9)).unwrap();
        assert_eq!(dev.read_sync(0).unwrap(), PageContents::from_byte_fill(9));
        assert_eq!(dev.stats().reads, 2);
        assert_eq!(dev.stats().writes, 1);
    }

    #[test]
    fn reads_cost_about_a_microsecond() {
        let clock = SimClock::new();
        let mut dev = PmemDevice::new(8, clock.clone(), SimRng::seed_from_u64(2));
        let t0 = clock.now();
        dev.read_sync(1).unwrap();
        let d = clock.now() - t0;
        assert!(
            d >= SimDuration::from_nanos(500) && d <= SimDuration::from_micros(4),
            "{d}"
        );
    }

    #[test]
    fn out_of_range_rejected() {
        let mut dev = PmemDevice::new(4, SimClock::new(), SimRng::seed_from_u64(2));
        assert!(dev.read_sync(4).is_err());
        assert!(dev.write_sync(9, PageContents::Zero).is_err());
    }
}
