//! A local flash SSD.

use fluidmem_mem::PageContents;
use fluidmem_sim::{LatencyModel, SimClock, SimDuration, SimRng};

use crate::device::{BlockDevice, BlockError, BlockStats, Completion, QueueedStore};

/// A local SATA/NVMe flash SSD — the paper's slowest swap backend
/// (Figure 3f: 106.56 µs average fault latency) and the disk under
/// MongoDB's 5 GB store in §VI-D2.
///
/// Flash asymmetry is modeled: 4 KB random reads ≈115 µs with a long
/// tail; writes land in the device's SLC/DRAM buffer (≈28 µs) but
/// occasionally stall multiple milliseconds behind garbage collection.
///
/// # Example
///
/// ```
/// use fluidmem_block::{BlockDevice, SsdDevice};
/// use fluidmem_mem::PageContents;
/// use fluidmem_sim::{SimClock, SimRng};
///
/// let mut dev = SsdDevice::new(1024, SimClock::new(), SimRng::seed_from_u64(1));
/// dev.write_sync(3, PageContents::Token(3))?;
/// assert_eq!(dev.read_sync(3)?, PageContents::Token(3));
/// # Ok::<(), fluidmem_block::BlockError>(())
/// ```
#[derive(Debug)]
pub struct SsdDevice {
    inner: QueueedStore,
    read_latency: LatencyModel,
    write_latency: LatencyModel,
    submit_cost: SimDuration,
}

impl SsdDevice {
    /// Creates an SSD with `capacity_blocks` 4 KB blocks.
    pub fn new(capacity_blocks: u64, clock: SimClock, rng: SimRng) -> Self {
        SsdDevice {
            inner: QueueedStore::new(capacity_blocks, 32, clock, rng),
            read_latency: LatencyModel::lognormal_mean_p99_us(104.0, 265.0),
            write_latency: LatencyModel::lognormal_mean_p99_us(28.0, 80.0)
                .with_spike(0.002, LatencyModel::uniform_us(2_000.0, 8_000.0)),
            submit_cost: SimDuration::from_nanos(1_500),
        }
    }
}

impl BlockDevice for SsdDevice {
    fn name(&self) -> &'static str {
        "ssd"
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
    fn read_latency_calibration() {
        let clock = SimClock::new();
        let mut dev = SsdDevice::new(1 << 16, clock.clone(), SimRng::seed_from_u64(4));
        let mut s = Sample::new();
        for i in 0..5_000u64 {
            let t0 = clock.now();
            dev.read_sync(i % 4096).unwrap();
            s.record((clock.now() - t0).as_micros_f64());
        }
        assert!((s.mean() - 106.0).abs() < 10.0, "mean {}", s.mean());
        assert!(s.percentile(0.99) > 200.0, "flash tail expected");
    }

    #[test]
    fn writes_are_buffered_and_faster_than_reads_on_average() {
        let clock = SimClock::new();
        let mut dev = SsdDevice::new(1 << 16, clock.clone(), SimRng::seed_from_u64(4));
        let mut w = Sample::new();
        // Enough writes that the 0.2%-probability GC stall reliably
        // populates the p99.9 rank (expected ~20 spikes in 10k writes).
        for i in 0..10_000u64 {
            let t0 = clock.now();
            dev.write_sync(i % 4096, PageContents::Token(i)).unwrap();
            w.record((clock.now() - t0).as_micros_f64());
        }
        assert!(w.mean() < 60.0, "buffered write mean {}", w.mean());
        // GC spikes exist in the extreme tail.
        assert!(w.percentile(0.999) > 300.0, "p99.9 {}", w.percentile(0.999));
    }

    #[test]
    fn slowest_of_the_three_backends() {
        let mk_cost = |f: &mut dyn FnMut(SimClock, SimRng) -> SimDuration| {
            f(SimClock::new(), SimRng::seed_from_u64(9))
        };
        let ssd = mk_cost(&mut |c, r| {
            let mut d = SsdDevice::new(64, c.clone(), r);
            let t0 = c.now();
            d.read_sync(0).unwrap();
            c.now() - t0
        });
        let nv = mk_cost(&mut |c, r| {
            let mut d = crate::NvmeofDevice::new(64, c.clone(), r);
            let t0 = c.now();
            d.read_sync(0).unwrap();
            c.now() - t0
        });
        assert!(ssd > nv);
    }
}
